//! The single-GPU hash map — WarpDrive's core data structure.

use crate::config::Config;
use crate::delete::EraseOutcome;
use crate::errors::BuildError;
use crate::get_put::{Input, Probe, Sections};
use crate::history::HistoryRecorder;
use crate::insert::InsertOutcome;
use crate::service::{
    check_call, composed, one_group_per_key, Applied, DeleteResponse, GetResponse, OpError,
    OpReport,
};
use crate::table::Table;
use gpu_sim::{DevSlice, Device, GroupCtx, GroupSize, KernelStats, Section};
use std::sync::Arc;

/// An open-addressing hash map in (simulated) GPU global memory with
/// subwarp-cooperative probing.
///
/// * Bulk operations are data-parallel launches of one kernel: one
///   coalesced group of `|g|` lanes per key or pair, in five sections
///   (gets, takes, upserts, puts, erases), relying on one group per key.
/// * Insertions and queries may be issued concurrently (they take
///   `&self`); the outcome of a racing insert/query on the same key is
///   decided by the "event horizon" of the kernels, as in the paper.
/// * Deletions require exclusive access (`&mut self`) — the global
///   barrier of §IV-A, enforced by the borrow checker, remains the API's.
///
/// See the crate docs for a usage example.
#[derive(Debug)]
pub struct GpuHashMap {
    /// The primary table: slots, hash member and counters.
    pub(crate) table: Table,
    /// `seed` mirrors the primary table's hash member; `group_size` is
    /// read by every launch on either table of a migration.
    pub(crate) cfg: Config,
    /// Optional per-operation history recorder (linearizability testing).
    pub(crate) recorder: Option<Arc<HistoryRecorder>>,
    /// Incremental-resize control block (see [`crate::resize`]).
    pub(crate) resize: parking_lot::Mutex<crate::resize::ResizeCtl>,
}

/// Probing exhaustion is an error even though the other pairs landed.
pub(crate) fn placed(outcome: InsertOutcome) -> Result<InsertOutcome, OpError> {
    match outcome.failed {
        0 => Ok(outcome),
        failed => Err(OpError::ProbingExhausted { failed }),
    }
}

impl GpuHashMap {
    /// Allocates and initialises a table of `capacity` slots on `dev`.
    ///
    /// # Errors
    /// [`BuildError::ZeroCapacity`] for `capacity == 0`;
    /// [`BuildError::OutOfMemory`] when the table exceeds the device's
    /// remaining VRAM — the single-GPU limitation the distributed map
    /// removes.
    pub fn new(dev: Arc<Device>, capacity: usize, cfg: Config) -> Result<Self, BuildError> {
        Ok(Self {
            table: Table::alloc(dev, capacity, &cfg, cfg.seed)?,
            cfg,
            recorder: None,
            resize: parking_lot::Mutex::new(crate::resize::ResizeCtl::default()),
        })
    }

    /// Number of slots of the primary table (the one a migration drains).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.table.capacity()
    }

    /// Live entries (exact after quiescence; approximate while kernels for
    /// the same map race, like any concurrent size counter). Counts keys
    /// wherever they live while a resize migration is in flight.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.occupancy_split().live
    }

    /// Whether the map holds no live entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current true load factor α = live entries / capacity, both taken
    /// from one [`GpuHashMap::occupancy_split`]: during a migration the
    /// capacity is the one writes land in, so α never counts keys of two
    /// tables against the slots of one.
    #[must_use]
    pub fn load_factor(&self) -> f64 {
        self.occupancy_split().live_fraction()
    }

    /// Tombstoned slots awaiting a rebuild or compaction. During a resize
    /// migration this reports the *target* table's tombstones — the source
    /// table's (including the transient ones migration itself leaves
    /// behind) vanish wholesale at the finalize swap.
    #[must_use]
    pub fn tombstones(&self) -> u64 {
        self.occupancy_split().tombstones
    }

    /// The device this map lives on.
    #[must_use]
    pub fn device(&self) -> &Arc<Device> {
        self.table.dev()
    }

    /// The map's configuration.
    #[must_use]
    pub fn config(&self) -> &Config {
        &self.cfg
    }

    /// Changes the coalesced-group size for subsequent launches, on the
    /// primary table and on a migration target alike. Safe at any
    /// quiescent point: the probing slot sequence is group-size
    /// independent (§IV-A), so existing entries remain reachable.
    pub fn set_group_size(&mut self, g: GroupSize) {
        self.cfg.group_size = g;
    }

    /// Bytes billed as the CAS working set (modeled capacity if set).
    #[must_use]
    pub fn working_set(&self) -> u64 {
        self.table.working_set()
    }

    /// Attaches (or detaches, with `None`) a history recorder: every
    /// subsequent insert/retrieve/erase operation logs an invocation/
    /// response event. Zero cost while detached. Share one recorder
    /// across maps to get a single globally-ordered history.
    pub fn set_recorder(&mut self, rec: Option<Arc<HistoryRecorder>>) {
        self.recorder = rec;
    }

    /// The attached history recorder, if any.
    #[must_use]
    pub fn recorder(&self) -> Option<&Arc<HistoryRecorder>> {
        self.recorder.as_ref()
    }

    // ---- device-sided operations ----------------------------------------

    /// Inserts the `n` packed pairs in `input` (device-resident, key in
    /// the high 32 bits). Duplicate keys update the stored value;
    /// last-writer-wins on the kernel's event horizon.
    ///
    /// # Errors
    /// [`OpError::ProbingExhausted`] if any pair ran out of probing
    /// attempts — the map should then be
    /// [rebuilt](GpuHashMap::rebuild_with_fresh_hash).
    pub fn insert_device(&self, input: DevSlice, n: usize) -> Result<InsertOutcome, OpError> {
        let (g, recorder) = (self.cfg.group_size, self.recorder.as_deref());
        let (input, out) = (Input { keys: input.sub(0, 0), pairs: input }, input.sub(0, 0));
        placed(self.table.run(g, Sections::puts(n), input, out, recorder, |_| {}).0)
    }

    /// Retrieves the `n` keys of `keys` into `out` (both device-resident):
    /// `out[i] = pack(key, value)` on a hit, `EMPTY` on a miss. The keys
    /// lie two to a word, key `2i` the low half of word `i`, as
    /// [`gpu_sim::DeviceMemory::h2d_keys`] leaves them.
    pub fn retrieve_device(&self, keys: DevSlice, out: DevSlice, n: usize) -> KernelStats {
        let recorder = self.recorder.as_deref();
        let g = self.cfg.group_size;
        let input = Input { keys, pairs: keys.sub(0, 0) };
        self.table.run(g, Sections::gets(n), input, out, recorder, |_| {}).0.stats
    }

    /// Tombstones the `n` keys of `keys` (device-resident, two to a word as
    /// for [`GpuHashMap::retrieve_device`]). Takes `&mut self`: the global
    /// barrier separating deletions from concurrent inserts/queries
    /// (§IV-A).
    pub fn erase_device(&mut self, keys: DevSlice, n: usize) -> EraseOutcome {
        self.table
            .erase(self.cfg.group_size, keys, n, self.recorder.as_deref())
    }

    /// The groups of one launch of the kernel over device-resident keys
    /// and pairs of distinct keys ([`Probe`]), for a node's launch to run
    /// as its section on this map's GPU ([`GpuHashMap::section`]). Not
    /// public: erase sections take `&self` here, where a
    /// [`crate::DistributedHashMap`]'s own `&mut self` provides the §IV-A
    /// barrier for every local map.
    pub(crate) fn probe<H: Fn(&GroupCtx, usize, bool) + Sync>(
        &self,
        sections: Sections,
        input: Input,
        out: DevSlice,
        hit: H,
    ) -> Probe<'_, H> {
        Probe::new(&self.table, sections, (input, out), self.recorder.as_deref(), hit)
    }

    /// The section of a node launch that runs `groups` groups of this
    /// map's kernel as member `member`.
    pub(crate) fn section(&self, member: usize, groups: usize) -> Section {
        let (size, working_set) = (self.cfg.group_size, self.table.working_set());
        Section { member, groups, size, working_set }
    }

    /// Counts what `probe`'s launch, billed `stats`, did to the table.
    ///
    /// # Errors
    /// [`OpError::ProbingExhausted`], as [`GpuHashMap::insert_device`].
    pub(crate) fn finish<H>(
        &self,
        probe: Probe<'_, H>,
        stats: KernelStats,
    ) -> Result<(InsertOutcome, u64), OpError> {
        let (outcome, erased) = probe.finish(stats);
        self.table.note_ran(&outcome, erased);
        Ok((placed(outcome)?, erased))
    }

    // ---- host-sided conveniences -----------------------------------------

    /// Uploads and inserts host-resident pairs (staging via scratch VRAM;
    /// PCIe time is *not* billed here — use the `host_ops` cascades for
    /// transfer-inclusive experiments).
    ///
    /// With a [`crate::ResizePolicy`] armed this is also the trigger
    /// point of incremental resize: crossing the effective-load watermark
    /// starts a migration, and writes during one land in the new table
    /// (the device-sided [`GpuHashMap::insert_device`] stays fixed-table —
    /// callers managing device buffers manage capacity themselves).
    ///
    /// # Errors
    /// Propagates probing exhaustion and scratch OOM.
    pub fn insert_pairs(&self, pairs: &[(u32, u32)]) -> Result<InsertOutcome, OpError> {
        Ok(self.call(&[], pairs, &[], &mut [], &mut [])?.0)
    }

    /// Queries host-resident keys, returning per-key results in order
    /// with the unified cost report.
    ///
    /// # Errors
    /// [`OpError::OutOfMemory`] when staging scratch is unavailable.
    pub fn try_retrieve(&self, keys: &[u32]) -> Result<GetResponse, OpError> {
        let mut values = vec![None; keys.len()];
        let (outcome, _) = self.call(keys, &[], &[], &mut values, &mut [])?;
        let report = OpReport::from_kernel(&outcome.stats, keys.len() as u64);
        Ok(GetResponse { values, report })
    }

    /// Tombstones host-resident keys, returning per-key hits in input
    /// order with the unified cost report. `&mut self` is §IV-A's global
    /// barrier: no insert or query of another call runs beside it (the
    /// one launch of [`crate::MapService::apply`] erases beside its own
    /// reads and puts, one group per key).
    ///
    /// # Errors
    /// [`OpError::OutOfMemory`] when staging scratch is unavailable.
    pub fn try_erase(&mut self, keys: &[u32]) -> Result<DeleteResponse, OpError> {
        let mut hits = vec![false; keys.len()];
        let (outcome, erased) = self.call(&[], &[], keys, &mut [], &mut hits)?;
        let report = OpReport::from_kernel(&outcome.stats, keys.len() as u64);
        Ok(DeleteResponse { report, hits, erased })
    }

    /// Looks up `reads`, applies `puts` and erases `erases`, answering
    /// into `values` and `hits`: one [`Table::apply`] while the table is
    /// stable, [`GpuHashMap::migrating_apply`] while it migrates. Only a
    /// call with puts may start a migration. Returns the insertion
    /// outcome, whose stats cover every launch, and the erased count.
    /// The lists are those of [`Table::apply`].
    fn call(
        &self,
        reads: &[u32],
        puts: &[(u32, u32)],
        erases: &[u32],
        values: &mut [Option<u32>],
        hits: &mut [bool],
    ) -> Result<(InsertOutcome, u64), OpError> {
        let mut ctl = self.resize.lock();
        if !puts.is_empty() {
            self.trigger_resize(&mut ctl, puts.len());
        }
        if let Some((m, policy)) = ctl.migrating() {
            return self.migrating_apply(m, policy, reads, puts, erases, values, hits);
        }
        drop(ctl);
        let (g, recorder) = (self.cfg.group_size, self.recorder.as_deref());
        let lists = (reads, puts, erases);
        let (outcome, erased) = self.table.apply(None, g, lists, values, hits, recorder)?;
        Ok((placed(outcome)?, erased))
    }

    // ---- maintenance ------------------------------------------------------

    /// Rebuilds the table in place with a fresh hash-function member
    /// ("the whole data structure is invalidated followed by a subsequent
    /// reconstruction with a distinct hash function", §II). Also purges
    /// tombstones. Returns the re-insertion outcome.
    ///
    /// # Errors
    /// Probing exhaustion can recur (retry with another seed) and scratch
    /// may be unavailable.
    pub fn rebuild_with_fresh_hash(&mut self) -> Result<InsertOutcome, OpError> {
        // a rebuild is a whole-table operation: drive any in-flight
        // migration to completion first so there is one table to rebuild
        self.finish_resize()?;
        // extract live entries (billed as one streaming table scan)
        let live = self.table.live_pairs();
        let scan = self.table.bill_scan("rebuild_scan", self.table.capacity());
        self.table.clear_with_next_member();
        self.cfg.seed = self.table.seed();
        let reinserted =
            self.table
                .insert_pairs(self.cfg.group_size, &live, self.recorder.as_deref())?;
        let mut outcome = placed(reinserted)?;
        outcome.stats = outcome.stats.merged(&scan);
        Ok(outcome)
    }

    /// Host-side snapshot of all live `(key, value)` pairs (diagnostic /
    /// test helper; uncounted). Includes both tables while a resize
    /// migration is in flight — the disjointness invariant keeps the
    /// union duplicate-free.
    #[must_use]
    pub fn snapshot(&self) -> Vec<(u32, u32)> {
        let mut out = self.table.live_pairs();
        if let Some(m) = self.resize.lock().migration.as_ref() {
            out.extend(m.table.live_pairs());
        }
        out
    }
}

impl crate::service::MapService for GpuHashMap {
    /// The reads, the puts and the erases as one `GpuHashMap::call`:
    /// one launch of the kernel's sections while the table is stable — a
    /// key read and put one upsert group, a key read and erased one take
    /// group —, one launch on each table while it migrates. Lists that
    /// could put one key in two racing groups ([`one_group_per_key`]) run
    /// as a read call, a write call and an erase call.
    fn apply(
        &mut self,
        reads: &[u32],
        puts: &[(u32, u32)],
        erases: &[u32],
        values: &mut [Option<u32>],
        hits: &mut [bool],
    ) -> Result<Applied, OpError> {
        check_call(reads, puts, erases, values, hits)?;
        let mut applied = Applied::default();
        if reads.is_empty() && puts.is_empty() && erases.is_empty() {
            return Ok(applied);
        }
        self.maybe_finalize_resize();
        if !one_group_per_key(reads, puts, erases) {
            return composed(self, reads, puts, erases, values, hits);
        }
        let (outcome, erased) = self.call(reads, puts, erases, values, hits)?;
        applied.note(&outcome, erased);
        let elements = (reads.len() + puts.len() + erases.len()) as u64;
        applied.report = OpReport::from_kernel(&outcome.stats, elements);
        Ok(applied)
    }

    fn mutation(&self) -> Option<crate::Mutation> {
        self.cfg.mutation
    }

    fn live_len(&self) -> u64 {
        self.len()
    }

    fn slot_capacity(&self) -> u64 {
        // during a migration, admission control must project against the
        // capacity writes actually land in
        self.occupancy_split().capacity
    }

    fn occupancy_split(&self) -> crate::Occupancy {
        GpuHashMap::occupancy_split(self)
    }

    fn resize_state(&self) -> crate::ResizeState {
        GpuHashMap::resize_state(self)
    }

    fn request_grow(&mut self) -> Result<bool, OpError> {
        GpuHashMap::request_grow(self)
    }

    fn request_compact(&mut self) -> Result<bool, OpError> {
        GpuHashMap::request_compact(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Layout, ProbingScheme};
    use proptest::prelude::*;

    fn device(words: usize) -> Arc<Device> {
        Arc::new(Device::with_words(0, words))
    }

    fn map_with(capacity: usize, cfg: Config) -> GpuHashMap {
        GpuHashMap::new(device(capacity * 4 + 256), capacity, cfg).unwrap()
    }

    #[test]
    fn insert_then_get_round_trip() {
        let m = map_with(1024, Config::default());
        let pairs: Vec<(u32, u32)> = (0..500u32).map(|i| (i * 7 + 1, i + 1000)).collect();
        let outcome = m.insert_pairs(&pairs).unwrap();
        assert_eq!(outcome.new_slots, 500);
        assert_eq!(outcome.updates, 0);
        assert_eq!(m.len(), 500);
        let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
        let res = m.try_retrieve(&keys).unwrap().values;
        for (i, p) in pairs.iter().enumerate() {
            assert_eq!(res[i], Some(p.1));
        }
    }

    #[test]
    fn misses_return_none() {
        let m = map_with(256, Config::default());
        m.insert_pairs(&[(1, 10)]).unwrap();
        assert_eq!(m.try_retrieve(&[1]).unwrap().values[0], Some(10));
        assert_eq!(m.try_retrieve(&[2]).unwrap().values[0], None);
        let res = m.try_retrieve(&[3, 1, 4]).unwrap().values;
        assert_eq!(res, vec![None, Some(10), None]);
    }

    #[test]
    fn duplicate_keys_update_value() {
        let m = map_with(128, Config::default());
        m.insert_pairs(&[(9, 1)]).unwrap();
        let outcome = m.insert_pairs(&[(9, 2)]).unwrap();
        assert_eq!(outcome.updates, 1);
        assert_eq!(outcome.new_slots, 0);
        assert_eq!(m.try_retrieve(&[9]).unwrap().values[0], Some(2));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn fills_to_99_percent_load() {
        // the paper's headline robustness claim: α > 0.95 works
        let cap = 4096;
        let n = (cap as f64 * 0.99) as u32;
        for g in [1u32, 2, 4, 8, 16, 32] {
            let m = map_with(cap, Config::default().with_group_size(g));
            let pairs: Vec<(u32, u32)> = (0..n).map(|i| (i * 2 + 1, i)).collect();
            m.insert_pairs(&pairs)
                .unwrap_or_else(|e| panic!("|g|={g}: {e}"));
            assert!((m.load_factor() - 0.99).abs() < 0.01);
            let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
            let res = m.try_retrieve(&keys).unwrap().values;
            assert!(res.iter().all(Option::is_some), "|g|={g} lost keys");
        }
    }

    #[test]
    fn group_sizes_interoperate() {
        // probing order is group-size independent: insert with |g|=8,
        // retrieve with |g|=2 must find everything
        let dev = device(8192);
        let cfg8 = Config::default().with_group_size(8);
        let m8 = GpuHashMap::new(Arc::clone(&dev), 1024, cfg8).unwrap();
        let pairs: Vec<(u32, u32)> = (0..900u32).map(|i| (i + 1, i)).collect();
        m8.insert_pairs(&pairs).unwrap();
        // rebuild a map view with a different group size over the same
        // table is not part of the API; instead check the slot sequences
        // directly via retrieval after reconfiguring through snapshot
        let snap = m8.snapshot();
        let cfg2 = Config::default().with_group_size(2);
        let m2 = GpuHashMap::new(Arc::clone(&dev), 1024, cfg2).unwrap();
        m2.insert_pairs(&snap).unwrap();
        let res = m2
            .try_retrieve(&pairs.iter().map(|p| p.0).collect::<Vec<_>>())
            .unwrap()
            .values;
        assert!(res.iter().all(Option::is_some));
    }

    #[test]
    fn erase_then_reinsert_over_tombstones() {
        let mut m = map_with(512, Config::default());
        let pairs: Vec<(u32, u32)> = (0..400u32).map(|i| (i + 1, i)).collect();
        m.insert_pairs(&pairs).unwrap();
        let erased = m.try_erase(&(1..=200).collect::<Vec<u32>>()).unwrap();
        assert_eq!(erased.erased, 200);
        assert!(erased.hits.iter().all(|&h| h), "every victim was present");
        assert_eq!(m.len(), 200);
        assert_eq!(m.tombstones(), 200);
        // erased keys gone, others remain
        assert_eq!(m.try_retrieve(&[5]).unwrap().values[0], None);
        assert_eq!(m.try_retrieve(&[300]).unwrap().values[0], Some(299));
        // probing walks through tombstones to find keys placed beyond them
        let res = m
            .try_retrieve(&(201..=400).collect::<Vec<u32>>())
            .unwrap()
            .values;
        assert!(res.iter().all(Option::is_some));
        // reinsert over tombstones
        m.insert_pairs(&(1..=200).map(|k| (k, k * 2)).collect::<Vec<_>>())
            .unwrap();
        assert_eq!(m.try_retrieve(&[5]).unwrap().values[0], Some(10));
        assert_eq!(m.len(), 400);
    }

    #[test]
    fn erase_missing_keys_reports_zero() {
        let mut m = map_with(128, Config::default());
        m.insert_pairs(&[(1, 1)]).unwrap();
        let out = m.try_erase(&[99, 100]).unwrap();
        assert_eq!(out.erased, 0);
        assert_eq!(out.hits, vec![false, false]);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn rebuild_purges_tombstones_and_preserves_content() {
        let mut m = map_with(512, Config::default());
        let pairs: Vec<(u32, u32)> = (0..300u32).map(|i| (i + 1, i)).collect();
        m.insert_pairs(&pairs).unwrap();
        m.try_erase(&(1..=100).collect::<Vec<u32>>()).unwrap();
        let seed_before = m.config().seed;
        m.rebuild_with_fresh_hash().unwrap();
        assert_eq!(m.config().seed, seed_before + 1);
        assert_eq!(m.tombstones(), 0);
        assert_eq!(m.len(), 200);
        for (k, v) in pairs.iter().skip(100) {
            let got = m.try_retrieve(&[*k]).unwrap().values;
            assert_eq!(got, [Some(*v)], "key {k} lost in rebuild");
        }
        assert_eq!(m.try_retrieve(&[50]).unwrap().values[0], None);
    }

    #[test]
    fn soa_layout_round_trips() {
        let m = map_with(512, Config::default().with_layout(Layout::Soa));
        let pairs: Vec<(u32, u32)> = (0..450u32).map(|i| (i * 3 + 2, i)).collect();
        m.insert_pairs(&pairs).unwrap();
        let res = m
            .try_retrieve(&pairs.iter().map(|p| p.0).collect::<Vec<_>>())
            .unwrap()
            .values;
        for (i, p) in pairs.iter().enumerate() {
            assert_eq!(res[i], Some(p.1));
        }
        // update + erase work in SOA too
        m.insert_pairs(&[(pairs[0].0, 777)]).unwrap();
        assert_eq!(m.try_retrieve(&[pairs[0].0]).unwrap().values[0], Some(777));
        let mut m = m;
        let del = m.try_erase(&[pairs[1].0]).unwrap();
        assert_eq!((del.erased, del.hits), (1, vec![true]));
        assert_eq!(m.try_retrieve(&[pairs[1].0]).unwrap().values[0], None);
    }

    #[test]
    fn soa_uses_twice_the_memory() {
        let dev = device(4096);
        let before = dev.mem().available_words();
        let _aos = GpuHashMap::new(Arc::clone(&dev), 512, Config::default()).unwrap();
        let after_aos = dev.mem().available_words();
        let _soa = GpuHashMap::new(
            Arc::clone(&dev),
            512,
            Config::default().with_layout(Layout::Soa),
        )
        .unwrap();
        let after_soa = dev.mem().available_words();
        assert_eq!(before - after_aos, 512);
        assert_eq!(after_aos - after_soa, 1024);
    }

    #[test]
    fn probing_schemes_all_round_trip() {
        for scheme in [
            ProbingScheme::Hybrid,
            ProbingScheme::Linear,
            ProbingScheme::Quadratic,
        ] {
            let m = map_with(1024, Config::default().with_probing(scheme));
            let pairs: Vec<(u32, u32)> = (0..900u32).map(|i| (i * 5 + 1, i)).collect();
            m.insert_pairs(&pairs)
                .unwrap_or_else(|e| panic!("{scheme:?}: {e}"));
            let res = m
                .try_retrieve(&pairs.iter().map(|p| p.0).collect::<Vec<_>>())
                .unwrap()
                .values;
            assert!(res.iter().all(Option::is_some), "{scheme:?} lost keys");
        }
    }

    #[test]
    fn overfull_insert_fails_with_probing_exhausted() {
        let m = map_with(64, Config::default());
        let pairs: Vec<(u32, u32)> = (0..80u32).map(|i| (i + 1, i)).collect();
        let err = m.insert_pairs(&pairs).unwrap_err();
        assert!(matches!(err, OpError::ProbingExhausted { failed } if failed >= 16));
        // the 64 placed entries are still retrievable
        assert_eq!(m.len(), 64);
    }

    #[test]
    fn table_larger_than_vram_is_rejected() {
        let dev = device(1024);
        let err = GpuHashMap::new(dev, 10_000, Config::default()).unwrap_err();
        assert!(matches!(err, BuildError::OutOfMemory(_)));
    }

    #[test]
    fn zero_capacity_rejected() {
        let err = GpuHashMap::new(device(64), 0, Config::default()).unwrap_err();
        assert!(matches!(err, BuildError::ZeroCapacity));
    }

    #[test]
    fn concurrent_inserts_of_same_key_store_exactly_one() {
        // many pairs with one key in a single batch: groups race on the
        // same slot; exactly one slot must be claimed, last CAS wins
        let m = map_with(256, Config::default());
        let pairs: Vec<(u32, u32)> = (0..64u32).map(|v| (42, v)).collect();
        let outcome = m.insert_pairs(&pairs).unwrap();
        assert_eq!(outcome.new_slots, 1);
        assert_eq!(outcome.updates, 63);
        assert_eq!(m.len(), 1);
        let v = m.try_retrieve(&[42]).unwrap().values[0].unwrap();
        assert!(v < 64);
    }

    #[test]
    fn stats_expose_probe_traffic() {
        let m = map_with(1024, Config::default());
        let pairs: Vec<(u32, u32)> = (0..500u32).map(|i| (i + 1, i)).collect();
        let outcome = m.insert_pairs(&pairs).unwrap();
        assert!(outcome.stats.counters.transactions >= 500);
        assert!(outcome.stats.counters.cas_ops >= 500);
        assert!(outcome.stats.sim_time > 0.0);
        // retrieval does no CAS
        let report = m.try_retrieve(&[1, 2, 3]).unwrap().report;
        assert_eq!(report.counters.cas_ops, 0);
        assert_eq!(report.elements, 3);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn matches_std_hashmap_model(
            ops in proptest::collection::vec((0u32..500, any::<u32>()), 1..300),
            g in proptest::sample::select(vec![1u32, 2, 4, 8, 16, 32]),
        ) {
            let m = map_with(2048, Config::default().with_group_size(g));
            let mut model = std::collections::HashMap::new();
            // sequential batches of one pair: deterministic model
            for &(k, v) in &ops {
                let key = k + 1; // avoid 0? keys may be 0; just not MAX
                m.insert_pairs(&[(key, v)]).unwrap();
                model.insert(key, v);
            }
            let keys: Vec<u32> = model.keys().copied().collect();
            let res = m.try_retrieve(&keys).unwrap().values;
            for (i, k) in keys.iter().enumerate() {
                prop_assert_eq!(res[i], model.get(k).copied());
            }
            prop_assert_eq!(m.len() as usize, model.len());
        }
    }
}
