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

use crate::config::Config;
use crate::entry::{is_empty_slot, is_occupied, is_vacant, key_of, pack, value_of, EMPTY};
use crate::errors::BuildError;
use crate::service::OpError;
use crate::history::{HistoryRecorder, OpKind, OpResponse};
use crate::probing::Prober;
use gpu_sim::{DevSlice, Device, GroupCtx, KernelStats, LaunchOptions};
use hashes::DoubleHash;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// A multi-value open-addressing hash map (AOS layout only — the packed
/// word is what makes slot claims atomic).
#[derive(Debug)]
pub struct GpuMultiMap {
    dev: Arc<Device>,
    table: DevSlice,
    capacity: usize,
    cfg: Config,
    dh: DoubleHash,
    occupied: AtomicU64,
    recorder: Option<Arc<HistoryRecorder>>,
}

impl GpuMultiMap {
    /// Allocates a multi-map of `capacity` slots.
    ///
    /// # Errors
    /// Same failure modes as [`crate::GpuHashMap::new`].
    pub fn new(dev: Arc<Device>, capacity: usize, cfg: Config) -> Result<Self, BuildError> {
        if capacity == 0 {
            return Err(BuildError::ZeroCapacity);
        }
        let capacity = capacity.div_ceil(32) * 32;
        let table = dev.alloc(capacity)?;
        dev.mem().fill(table, EMPTY);
        Ok(Self {
            dev,
            table,
            capacity,
            cfg,
            dh: DoubleHash::from_seed(cfg.seed),
            occupied: AtomicU64::new(0),
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
        self.occupied.load(Relaxed)
    }

    /// Whether no pair is stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Load factor over all stored pairs.
    #[must_use]
    pub fn load_factor(&self) -> f64 {
        self.len() as f64 / self.capacity as f64
    }

    fn prober(&self) -> Prober {
        Prober::new(self.dh, self.cfg.probing, self.capacity)
    }

    /// Inserts pairs; duplicates accumulate instead of updating.
    ///
    /// # Errors
    /// [`OpError::ProbingExhausted`] when slots run out along a
    /// probing sequence.
    pub fn insert_pairs(&self, pairs: &[(u32, u32)]) -> Result<KernelStats, OpError> {
        let words: Vec<u64> = pairs.iter().map(|&(k, v)| pack(k, v)).collect();
        let staging = self.dev.alloc_scratch(words.len().max(1))?;
        let input = staging.slice().sub(0, words.len());
        self.dev.mem().h2d(input, &words);

        let failed = AtomicU64::new(0);
        let inserted = AtomicU64::new(0);
        let table = self.table;
        let cap = self.capacity;
        let prober = self.prober();
        let p_max = self.cfg.p_max;
        let recorder = self.recorder.as_deref();
        let stats = self.dev.launch(
            "multimap_insert",
            words.len(),
            self.cfg.group_size,
            LaunchOptions::default()
                .with_working_set(table.bytes())
                .with_schedule(self.cfg.schedule)
                .with_per_op_dispatch(self.cfg.per_op_dispatch),
            |ctx: &GroupCtx| {
                let invoked = recorder.map(HistoryRecorder::invoke);
                let word = ctx.read_stream(input, ctx.group_id());
                let key = key_of(word);
                let g = ctx.size().get();
                let mut claimed = false;
                'probe: for p in 0..p_max {
                    for q in 0..ctx.size().windows_per_warp() {
                        let base = prober.window_base(key, p, q, g) as usize;
                        let mut window = ctx.read_window(table, base);
                        loop {
                            // claim the leftmost vacant slot; no update path
                            let mask = ctx.ballot(|r| is_vacant(window.lane(r)));
                            let Some(r) = GroupCtx::ffs(mask) else { break };
                            let idx = crate::probing::wrap_slot(base, r as usize, cap);
                            if ctx.cas(table, idx, window.lane(r), word).is_ok() {
                                inserted.fetch_add(1, Relaxed);
                                claimed = true;
                                break 'probe;
                            }
                            window = ctx.reload_window(table, base);
                        }
                    }
                }
                if !claimed {
                    failed.fetch_add(1, Relaxed);
                }
                if let (Some(rec), Some(invoked)) = (recorder, invoked) {
                    let response = if claimed {
                        OpResponse::Inserted { new_slot: true }
                    } else {
                        OpResponse::InsertFailed
                    };
                    rec.complete(
                        key,
                        OpKind::InsertMulti {
                            value: value_of(word),
                        },
                        response,
                        invoked,
                    );
                }
            },
        );
        self.occupied.fetch_add(inserted.load(Relaxed), Relaxed);
        let f = failed.load(Relaxed);
        if f > 0 {
            return Err(OpError::ProbingExhausted { failed: f });
        }
        Ok(stats)
    }

    /// Retrieves **all** values stored under each key, with a typed
    /// [`crate::OpReport`]. Results are per-key value vectors (order
    /// across racing inserts unspecified).
    ///
    /// # Errors
    /// [`crate::OpError::OutOfMemory`] if the query batch cannot be
    /// staged.
    pub fn try_retrieve_all(
        &self,
        keys: &[u32],
    ) -> Result<crate::GetAllResponse, crate::OpError> {
        let (values, stats) = self.retrieve_all_impl(keys)?;
        let report = crate::OpReport::from_kernel(&stats, keys.len() as u64);
        Ok(crate::GetAllResponse { values, report })
    }

    fn retrieve_all_impl(
        &self,
        keys: &[u32],
    ) -> Result<(Vec<Vec<u32>>, KernelStats), crate::OpError> {
        let results: Mutex<Vec<Vec<u32>>> = Mutex::new(vec![Vec::new(); keys.len()]);
        let words: Vec<u64> = keys.iter().map(|&k| u64::from(k) << 32).collect();
        let staging = self.dev.alloc_scratch(words.len().max(1))?;
        let input = staging.slice().sub(0, words.len());
        self.dev.mem().h2d(input, &words);

        let table = self.table;
        let prober = self.prober();
        let p_max = self.cfg.p_max;
        let recorder = self.recorder.as_deref();
        let stats = self.dev.launch(
            "multimap_retrieve_all",
            words.len(),
            self.cfg.group_size,
            LaunchOptions::default()
                .with_working_set(table.bytes())
                .with_schedule(self.cfg.schedule)
                .with_per_op_dispatch(self.cfg.per_op_dispatch),
            |ctx: &GroupCtx| {
                let invoked = recorder.map(HistoryRecorder::invoke);
                let gid = ctx.group_id();
                let key = key_of(ctx.read_stream(input, gid));
                let g = ctx.size().get();
                // collect (slot, value) and dedupe by slot: chaotic outer
                // jumps may revisit a span, and a slot must count once
                let mut hits: Vec<(usize, u32)> = Vec::new();
                let cap = prober.capacity() as usize;
                'probe: for p in 0..p_max {
                    for q in 0..ctx.size().windows_per_warp() {
                        let base = prober.window_base(key, p, q, g) as usize;
                        let window = ctx.read_window(table, base);
                        for (r, w) in window.iter() {
                            if key_of(w) == key {
                                hits.push((crate::probing::wrap_slot(base, r as usize, cap), value_of(w)));
                            }
                        }
                        if ctx.any(|r| is_empty_slot(window.lane(r))) {
                            break 'probe; // sequence exhausted
                        }
                    }
                }
                hits.sort_unstable_by_key(|h| h.0);
                hits.dedup_by_key(|h| h.0);
                let found: Vec<u32> = hits.into_iter().map(|h| h.1).collect();
                if let (Some(rec), Some(invoked)) = (recorder, invoked) {
                    let mut values = found.clone();
                    values.sort_unstable();
                    rec.complete(
                        key,
                        OpKind::RetrieveAll,
                        OpResponse::FoundAll { values },
                        invoked,
                    );
                }
                // result sizes are variable; materialize host-side and
                // bill the writes as streaming output
                ctx.bill_stream_bytes(8 * found.len().max(1) as u64);
                results.lock()[gid] = found;
            },
        );
        Ok((results.into_inner(), stats))
    }

    /// Number of values stored under one key. Routed through the same
    /// counter/stats path as [`Self::try_retrieve_all`].
    #[must_use]
    pub fn count(&self, key: u32) -> usize {
        self.retrieve_all_impl(&[key]).expect("multimap scratch").0[0].len()
    }

    /// Host-side snapshot of all stored pairs.
    #[must_use]
    pub fn snapshot(&self) -> Vec<(u32, u32)> {
        self.dev
            .mem()
            .d2h(self.table)
            .into_iter()
            .filter(|&w| is_occupied(w))
            .map(|w| (key_of(w), value_of(w)))
            .collect()
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
