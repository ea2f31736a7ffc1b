//! The m×m partition table and its transposition algebra (§IV-B, Fig. 4).
//!
//! After each GPU runs its local multisplit, cell `(gpu, part)` records
//! how many elements of partition `part` sit on GPU `gpu`. The all-to-all
//! phase transposes this table: afterwards GPU `i` exclusively holds the
//! keys with `p(k) = i`, concatenated over their source GPUs. "Matrix
//! transposition is an isomorphism and thus all-to-all communication is
//! reversible as well" — the query cascade routes results back along the
//! transposed cells, which is why [`PartitionTable::transposed`] being an
//! involution is property-tested.
//!
//! The table is one row-major buffer; a caller that only needs the
//! transposed cells reads `at(part, gpu)`, and the bytes of a transfer
//! are a cell times the element size ([`PartitionTable::bytes`]), so no
//! derived matrix is needed. A cascade round keeps the same cells in its
//! split's class counts and builds no table.

/// Element counts of each (source GPU, partition) cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionTable {
    m: usize,
    /// Row-major: cell `(gpu, part)` at `gpu * m + part`.
    counts: Vec<u64>,
}

impl PartitionTable {
    /// Builds the table of `m` GPUs from its row-major cells.
    ///
    /// # Panics
    /// Panics if `counts` is not `m × m` long.
    #[must_use]
    pub fn new(m: usize, counts: Vec<u64>) -> Self {
        assert_eq!(counts.len(), m * m, "partition table must be square");
        Self { m, counts }
    }

    /// Elements of partition `part` on GPU `gpu`.
    #[must_use]
    pub fn at(&self, gpu: usize, part: usize) -> u64 {
        assert!(part < self.m, "partition {part} of {}", self.m);
        self.counts[gpu * self.m + part]
    }

    /// The transposed table `T^t[part, gpu]` describing the layout after
    /// the all-to-all phase.
    #[must_use]
    pub fn transposed(&self) -> PartitionTable {
        let m = self.m;
        let counts = (0..m * m).map(|at| self.at(at % m, at / m)).collect();
        PartitionTable { m, counts }
    }

    /// Bytes the (source `gpu` → target `part`) transfer moves, for the
    /// all-to-all cost model: zero on the diagonal (data stays put).
    #[must_use]
    pub fn bytes(&self, gpu: usize, part: usize, bytes_per_element: u64) -> u64 {
        if gpu == part {
            0
        } else {
            self.at(gpu, part) * bytes_per_element
        }
    }

    /// Total elements per *target* GPU after transposition — what each
    /// local hash map will receive. Used to check load balance and VRAM
    /// headroom before committing to an insertion cascade.
    #[must_use]
    pub fn elements_per_target(&self) -> Vec<u64> {
        (0..self.m)
            .map(|part| (0..self.m).map(|gpu| self.at(gpu, part)).sum())
            .collect()
    }

    /// Total elements in the table.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn fig4_table() -> PartitionTable {
        // 4 GPUs × 7 keys each, p(k) = k mod 4 — an instance shaped like
        // the Fig. 4 example (28 keys total)
        PartitionTable::new(4, vec![2, 2, 2, 1, 1, 3, 1, 2, 2, 1, 2, 2, 3, 1, 1, 2])
    }

    #[test]
    fn transpose_swaps_axes() {
        let t = fig4_table();
        let tt = t.transposed();
        assert_eq!((t.at(0, 3), t.at(3, 0)), (1, 3));
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(t.at(i, j), tt.at(j, i));
            }
        }
    }

    #[test]
    fn transpose_is_involution() {
        let t = fig4_table();
        assert_eq!(t.transposed().transposed(), t);
    }

    #[test]
    fn per_target_sums_columns() {
        let t = fig4_table();
        assert_eq!(t.elements_per_target(), vec![8, 7, 6, 7]);
        assert_eq!(t.total(), 28);
    }

    #[test]
    fn byte_matrix_zeroes_diagonal() {
        let t = fig4_table();
        for i in 0..4 {
            assert_eq!(t.bytes(i, i, 8), 0);
            for j in 0..4 {
                if i != j {
                    assert_eq!(t.bytes(i, j, 8), t.at(i, j) * 8);
                }
            }
        }
    }

    proptest! {
        #[test]
        fn transpose_involution_holds_generally(
            cells in proptest::collection::vec(0u64..1000, 16)
        ) {
            let t = PartitionTable::new(4, cells);
            prop_assert_eq!(t.transposed().transposed(), t.clone());
            // totals preserved under transposition
            prop_assert_eq!(t.transposed().total(), t.total());
        }
    }

    #[test]
    #[should_panic(expected = "square")]
    fn ragged_table_rejected() {
        let _ = PartitionTable::new(2, vec![1, 2, 3]);
    }
}
