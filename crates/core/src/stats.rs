//! Cascade timing reports.
//!
//! Multi-GPU operations are *cascades* of globally-barriered phases
//! (§IV-B): multisplit → transposition → insert for insertion, and
//! multisplit → transposition → query → transposition for retrieval,
//! optionally bracketed by PCIe transfers. Each phase's simulated time is
//! recorded so the harnesses can print both aggregate rates (Figs. 9–10)
//! and the per-stage decomposition (Fig. 11).

use serde::{Deserialize, Serialize};

/// A cascade phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CascadeStage {
    /// Host → device PCIe transfer.
    H2D,
    /// Per-GPU multisplit (video memory).
    Multisplit,
    /// All-to-all partition transposition (NVLink).
    Transpose,
    /// Hash-table insertion kernels.
    Insert,
    /// Hash-table query kernels.
    Query,
    /// Result routing back to the origin GPUs (NVLink).
    TransposeBack,
    /// Result scatter into origin order (video memory).
    Scatter,
    /// Device → host PCIe transfer.
    D2H,
    /// Exponential-backoff waits accumulated by fault-injection retries
    /// (see [`gpu_sim::RETRY`]). Absent from healthy cascades —
    /// the fault-off path never pushes this stage, keeping its reports
    /// byte-identical to pre-chaos behaviour.
    Backoff,
}

/// One timed phase.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct StageTiming {
    /// Which phase.
    pub stage: CascadeStage,
    /// Simulated seconds (max over GPUs for per-GPU phases — the phases
    /// are separated by global barriers).
    pub time: f64,
    /// Bytes moved by the phase, where meaningful (transfers; the words
    /// the multisplit streamed, summed over GPUs), else 0.
    pub bytes: u64,
    /// Fixed (size-independent) launch-overhead portion of `time`. Used
    /// by scaled-down experiments: per-element cost extrapolates
    /// linearly, this part does not.
    pub overhead: f64,
}

impl StageTiming {
    /// The stage's time extrapolated to `scale`× the element count.
    #[must_use]
    pub fn scaled_time(&self, scale: f64) -> f64 {
        (self.time - self.overhead).max(0.0) * scale + self.overhead
    }
}

/// Rows a [`StageRows`] holds without the heap: a flush's one host-sided
/// round (H2D … D2H, 8 rows healthy), with room for the backoff rows of
/// its retries — and one row per [`CascadeStage`], all a folded total
/// has.
pub const INLINE_ROWS: usize = 16;

/// The stage rows of a report, in push order, read as a slice of
/// [`StageTiming`]: up to [`INLINE_ROWS`] in the report itself, so that a
/// call in one chunk allocates nothing for them, and a longer run — a
/// chunked call's rows — on the heap.
#[derive(Clone)]
pub struct StageRows {
    /// The rows while they fit, the first `len` of them.
    inline: [StageTiming; INLINE_ROWS],
    len: usize,
    /// Every row once they do not; the rows live here iff it has capacity.
    heap: Vec<StageTiming>,
}

impl StageRows {
    /// No rows, with room for `rows` of them: on the heap at once if they
    /// will not fit inline.
    #[must_use]
    pub fn with_capacity(rows: usize) -> Self {
        let heap = if rows > INLINE_ROWS {
            Vec::with_capacity(rows)
        } else {
            Vec::new()
        };
        Self {
            heap,
            ..Self::default()
        }
    }

    /// Appends a row.
    pub fn push(&mut self, row: StageTiming) {
        if self.heap.capacity() == 0 {
            if self.len < INLINE_ROWS {
                self.inline[self.len] = row;
                self.len += 1;
                return;
            }
            self.heap.reserve(2 * INLINE_ROWS);
            self.heap.extend_from_slice(&self.inline);
        }
        self.heap.push(row);
    }
}

impl Default for StageRows {
    fn default() -> Self {
        let row = StageTiming {
            stage: CascadeStage::H2D,
            time: 0.0,
            bytes: 0,
            overhead: 0.0,
        };
        Self {
            inline: [row; INLINE_ROWS],
            len: 0,
            heap: Vec::new(),
        }
    }
}

impl std::ops::Deref for StageRows {
    type Target = [StageTiming];

    fn deref(&self) -> &[StageTiming] {
        if self.heap.capacity() == 0 {
            &self.inline[..self.len]
        } else {
            &self.heap
        }
    }
}

impl std::ops::DerefMut for StageRows {
    fn deref_mut(&mut self) -> &mut [StageTiming] {
        if self.heap.capacity() == 0 {
            &mut self.inline[..self.len]
        } else {
            &mut self.heap
        }
    }
}

impl Extend<StageTiming> for StageRows {
    fn extend<I: IntoIterator<Item = StageTiming>>(&mut self, rows: I) {
        for row in rows {
            self.push(row);
        }
    }
}

impl<'a> IntoIterator for &'a StageRows {
    type Item = &'a StageTiming;
    type IntoIter = std::slice::Iter<'a, StageTiming>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl std::fmt::Debug for StageRows {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A table's slot occupancy split into live entries and tombstones.
///
/// Open addressing never un-probes a tombstone: a deleted slot still
/// lengthens every probe sequence crossing it, so *effective* load — the
/// number the resize watermark must watch — counts both. Reporting the
/// split (rather than one blended fraction) is what lets callers tell
/// "genuinely full, grow" apart from "tombstone-heavy, compact".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Occupancy {
    /// Slots holding a live key-value pair.
    pub live: u64,
    /// Slots holding a tombstone (deleted, still probed past).
    pub tombstones: u64,
    /// Total slots.
    pub capacity: u64,
}

impl Occupancy {
    /// Fraction of slots holding live entries.
    #[must_use]
    pub fn live_fraction(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            self.live as f64 / self.capacity as f64
        }
    }

    /// Fraction of slots that cost a probe: live **plus** tombstones.
    /// This is the load factor that predicts probe lengths and the one
    /// the resize watermark compares against.
    #[must_use]
    pub fn effective_fraction(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            (self.live + self.tombstones) as f64 / self.capacity as f64
        }
    }

    /// Fraction of slots wasted on tombstones.
    #[must_use]
    pub fn tombstone_fraction(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            self.tombstones as f64 / self.capacity as f64
        }
    }
}

impl std::iter::Sum for Occupancy {
    /// Aggregate occupancy of several tables (a node's partitions).
    fn sum<I: Iterator<Item = Self>>(tables: I) -> Self {
        tables.fold(Self::default(), |acc, o| Self {
            live: acc.live + o.live,
            tombstones: acc.tombstones + o.tombstones,
            capacity: acc.capacity + o.capacity,
        })
    }
}

/// Degraded-mode counters of a [`crate::DistributedHashMap`]: what fault
/// injection cost and what graceful degradation did about it. All-zero
/// on healthy runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct DegradedStats {
    /// Kernel launches that failed transiently and were retried.
    pub launch_retries: u64,
    /// Interconnect transfers that were dropped and re-sent.
    pub transfer_retries: u64,
    /// Total simulated seconds spent in exponential backoff.
    pub backoff_time: f64,
    /// GPUs quarantined after exhausting their retry budget.
    pub quarantined: u32,
    /// Keys re-inserted into survivors when their GPU was quarantined.
    pub migrated_keys: u64,
    /// Partition re-splits performed (one per quarantine event).
    pub repartitions: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degraded_stats_default_is_all_zero() {
        let s = DegradedStats::default();
        assert_eq!(s.launch_retries, 0);
        assert_eq!(s.transfer_retries, 0);
        assert_eq!(s.backoff_time, 0.0);
        assert_eq!(s.quarantined, 0);
        assert_eq!(s.migrated_keys, 0);
        assert_eq!(s.repartitions, 0);
    }

    #[test]
    fn occupancy_fractions_count_tombstones_toward_effective_load() {
        let o = Occupancy {
            live: 40,
            tombstones: 20,
            capacity: 100,
        };
        assert!((o.live_fraction() - 0.40).abs() < 1e-12);
        assert!((o.effective_fraction() - 0.60).abs() < 1e-12);
        assert!((o.tombstone_fraction() - 0.20).abs() < 1e-12);
        let empty = Occupancy::default();
        assert_eq!(empty.live_fraction(), 0.0);
        assert_eq!(empty.effective_fraction(), 0.0);
    }

    #[test]
    fn backoff_stage_accumulates_like_any_other() {
        let mut r = crate::OpReport::of_cascade(10);
        r.push(CascadeStage::Insert, 1.0, 0, 0.0);
        r.push(CascadeStage::Backoff, 0.25, 0, 0.0);
        assert!((r.time_of(CascadeStage::Backoff) - 0.25).abs() < 1e-12);
        assert!((r.time - 1.25).abs() < 1e-12);
    }

    #[test]
    fn empty_report_rates_are_zero() {
        let r = crate::OpReport::of_cascade(0);
        assert_eq!(r.ops_per_sec(), 0.0);
        assert_eq!(r.modeled_ops_per_sec(1024.0), 0.0);
    }
}
