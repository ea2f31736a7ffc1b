//! Multi-value hash map — the §II extension ("open addressing hash maps
//! can be extended to multi-value hash maps in a straightforward manner").
//!
//! Unlike [`crate::GpuHashMap`], duplicate keys do **not** update in
//! place: every `(k, v)` pair claims its own slot along `k`'s probing
//! sequence, and retrieval walks the sequence collecting *all* values
//! until an EMPTY slot proves exhaustion. This is the structure the
//! paper's bioinformatics motivation (k-mer indexing, where one k-mer
//! occurs at many genome positions) actually needs — see
//! `examples/kmer_index.rs`.
//!
//! It is the single-value table in another mode, not a second table:
//! insertion is the shared probe ([`crate::insert`]) with the
//! duplicate-key ballot off, retrieval the shared walk with a visitor
//! that collects instead of stopping ([`crate::retrieve`]).

use crate::config::Config;
use crate::errors::BuildError;
use crate::history::HistoryRecorder;
use crate::map::placed;
use crate::service::{GetAllResponse, OpError, OpReport};
use crate::table::Table;
use gpu_sim::{Device, GroupSize, KernelStats};
use std::sync::Arc;

/// A multi-value open-addressing hash map: a `Table` in multi-value
/// mode (AOS layout only — the packed word is what makes slot claims
/// atomic).
#[derive(Debug)]
pub struct GpuMultiMap {
    table: Table,
    group_size: GroupSize,
    recorder: Option<Arc<HistoryRecorder>>,
}

impl GpuMultiMap {
    /// Allocates a multi-map of `capacity` slots.
    ///
    /// # Errors
    /// Same failure modes as [`crate::GpuHashMap::new`].
    pub fn new(dev: Arc<Device>, capacity: usize, cfg: Config) -> Result<Self, BuildError> {
        Ok(Self {
            table: Table::alloc_multi(dev, capacity, &cfg)?,
            group_size: cfg.group_size,
            recorder: None,
        })
    }

    /// Attaches (or detaches) a per-operation history recorder — see
    /// [`crate::GpuHashMap::set_recorder`]. Multi-map events use the
    /// multiset op kinds checked by
    /// [`crate::linearize::check_linearizable_multi`].
    pub fn set_recorder(&mut self, rec: Option<Arc<HistoryRecorder>>) {
        self.recorder = rec;
    }

    /// Total stored pairs (each duplicate counts).
    #[must_use]
    pub fn len(&self) -> u64 {
        self.table.occupancy().live
    }

    /// Whether no pair is stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Load factor over all stored pairs.
    #[must_use]
    pub fn load_factor(&self) -> f64 {
        self.table.occupancy().live_fraction()
    }

    /// Inserts pairs; duplicates accumulate instead of updating.
    ///
    /// # Errors
    /// [`OpError::ProbingExhausted`] when slots run out along a
    /// probing sequence; [`OpError::ReservedKey`] for a key of
    /// `u32::MAX`, before any pair is inserted.
    pub fn insert_pairs(&self, pairs: &[(u32, u32)]) -> Result<KernelStats, OpError> {
        let outcome = self
            .table
            .insert_pairs(self.group_size, pairs, self.recorder.as_deref())?;
        Ok(placed(outcome)?.stats)
    }

    /// Retrieves **all** values stored under each key, with a typed
    /// [`crate::OpReport`]. Results are per-key value vectors (order
    /// across racing inserts unspecified).
    ///
    /// # Errors
    /// [`OpError::OutOfMemory`] if the query batch cannot be staged;
    /// [`OpError::ReservedKey`] for a key of `u32::MAX`.
    pub fn try_retrieve_all(&self, keys: &[u32]) -> Result<GetAllResponse, OpError> {
        let (values, stats) =
            self.table
                .retrieve_all_keys(self.group_size, keys, self.recorder.as_deref())?;
        let report = OpReport::from_kernel(&stats, keys.len() as u64);
        Ok(GetAllResponse { values, report })
    }

    /// Number of values stored under one key. Routed through the same
    /// counter/stats path as [`Self::try_retrieve_all`].
    #[must_use]
    pub fn count(&self, key: u32) -> usize {
        self.try_retrieve_all(&[key]).map_or(0, |r| r.values[0].len())
    }

    /// Host-side snapshot of all stored pairs.
    #[must_use]
    pub fn snapshot(&self) -> Vec<(u32, u32)> {
        self.table.live_pairs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(capacity: usize) -> GpuMultiMap {
        let dev = Arc::new(Device::with_words(0, capacity * 4 + 64));
        GpuMultiMap::new(dev, capacity, Config::default()).unwrap()
    }

    #[test]
    fn duplicates_accumulate() {
        let m = map(256);
        m.insert_pairs(&[(5, 10), (5, 11), (5, 12), (6, 60)])
            .unwrap();
        assert_eq!(m.len(), 4);
        let res = m.try_retrieve_all(&[5, 6, 7]).unwrap().values;
        let mut v5 = res[0].clone();
        v5.sort_unstable();
        assert_eq!(v5, vec![10, 11, 12]);
        assert_eq!(res[1], vec![60]);
        assert!(res[2].is_empty());
        assert_eq!(m.count(5), 3);
    }

    #[test]
    fn heavy_multiplicity_key() {
        let m = map(1024);
        let pairs: Vec<(u32, u32)> = (0..200).map(|i| (42, i)).collect();
        m.insert_pairs(&pairs).unwrap();
        let res = m.try_retrieve_all(&[42]).unwrap().values;
        let mut vals = res[0].clone();
        vals.sort_unstable();
        assert_eq!(vals, (0..200).collect::<Vec<u32>>());
    }

    #[test]
    fn fills_to_high_load() {
        let m = map(512);
        let pairs: Vec<(u32, u32)> = (0..486u32).map(|i| (i % 37, i)).collect(); // α = 0.95
        m.insert_pairs(&pairs).unwrap();
        assert!((m.load_factor() - 0.949).abs() < 0.01);
        let res = m.try_retrieve_all(&[0]).unwrap().values;
        assert_eq!(res[0].len(), pairs.iter().filter(|p| p.0 == 0).count());
    }

    #[test]
    fn overfull_map_reports_exhaustion() {
        let m = map(64);
        let pairs: Vec<(u32, u32)> = (0..100).map(|i| (1, i)).collect();
        let err = m.insert_pairs(&pairs).unwrap_err();
        match err {
            OpError::ProbingExhausted { failed } => assert!(failed >= 36),
            e => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn snapshot_matches_len() {
        let m = map(128);
        m.insert_pairs(&[(1, 1), (1, 2), (2, 1)]).unwrap();
        assert_eq!(m.snapshot().len() as u64, m.len());
    }
}
