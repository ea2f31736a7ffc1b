//! The distributed (multi-GPU) hash map — §IV-B's *distributed multisplit
//! transposition* scheme.
//!
//! Each of the `m` devices owns an independent [`GpuHashMap`] holding
//! exactly the keys with `p(k) = i` for the partition hash `p`. Insertion
//! runs the cascade **multisplit → transposition → insert**; retrieval
//! and erasure run **multisplit → transposition → query → transposition
//! (back) → scatter**, and a lookup of some keys with an insertion of
//! others (the reads and puts of [`crate::MapService::apply`]) is one
//! round over both — all four through the one driver in
//! [`crate::cascade`], bracketed by PCIe in [`crate::host_ops`]. Phases
//! are separated by global barriers, so a cascade's time is the sum of
//! per-phase maxima over the GPUs — exactly how the paper accounts
//! Fig. 9–11. The same map is §VI's sharded table: `s` partitions of one
//! device ([`Topology::one_device`]), where a phase takes the sum over the
//! partitions instead. This module holds the map itself: construction,
//! sizing, resizing, and the chaos state with its quarantine-and-migrate
//! step.
//!
//! Functional data movement between simulated devices is host-mediated
//! (there is only one address space underneath), but it is *billed*
//! through the [`interconnect`] all-to-all model of the Fig. 6 NVLink
//! fabric.
//!
//! ## Fault injection and graceful degradation
//!
//! Every cascade consults the map's [`gpu_sim::FaultPlan`] (from
//! [`Config::fault`], overridable via
//! [`DistributedHashMap::set_fault_plan`]): kernel launches may fail
//! transiently, transfers may drop, links may be degraded and devices may
//! straggle or die. Failures are retried idempotently with the
//! exponential backoff of [`gpu_sim::RETRY`]; a GPU that exhausts
//! its budget is **quarantined** — its partition is re-split across the
//! survivors (see [`crate::chaos::Router`]) and the cascade restarts,
//! re-applying its batch. Re-application is safe because phases that
//! mutate table state come last and single-map inserts are idempotent
//! (duplicate keys update in place). With a disarmed plan every code
//! path, billed counter and reported time is byte-identical to the
//! pre-chaos implementation.

use crate::chaos::{ChaosState, ChaosTally, Router};
use crate::config::{Config, Mutation};
use crate::errors::BuildError;
use crate::history::{OpKind, OpResponse};
use crate::host_ops::{Cut, Scratch};
use crate::map::GpuHashMap;
use crate::service::{check_call, composed, one_group_per_key, Applied, OpError, HELD_SCRATCH};
use crate::stats::DegradedStats;
use gpu_sim::{Device, FaultPlan};
use hashes::PartitionFn;
use interconnect::Topology;
use parking_lot::RwLock;
use std::sync::Arc;

/// Most partitions a node has: the quarantine mask holds a bit each.
pub(crate) const MAX_PARTITIONS: usize = u32::BITS as usize;

/// A hash map distributed over the GPUs of one node.
#[derive(Debug)]
pub struct DistributedHashMap {
    maps: Vec<GpuHashMap>,
    topo: Topology,
    part: PartitionFn,
    fallback: PartitionFn,
    cfg: Config,
    chaos: RwLock<ChaosState>,
    /// The buffers of a call of a serving flush's size, kept across
    /// calls ([`DistributedHashMap::with_scratch`]).
    scratch: Scratch,
}

impl DistributedHashMap {
    /// Builds one local map of `capacity_per_gpu` slots for every
    /// partition, on the device `devices` names for it. Partitions of one
    /// device share one `Arc` — §VI's sharded table is
    /// [`Topology::one_device`] over `s` clones of one device.
    ///
    /// # Errors
    /// Propagates per-device allocation failures.
    ///
    /// # Panics
    /// Panics unless there are 1 to 32 devices, one per partition of
    /// `topo`, shared exactly as its `device_of` says.
    pub fn new(
        devices: Vec<Arc<Device>>,
        capacity_per_gpu: usize,
        cfg: Config,
        topo: Topology,
    ) -> Result<Self, BuildError> {
        let m = devices.len();
        assert!(
            (1..=MAX_PARTITIONS).contains(&m),
            "a node has 1..={MAX_PARTITIONS} partitions, a bit each of the quarantine mask"
        );
        assert_eq!(m, topo.num_gpus, "topology must describe exactly the given devices");
        let shared = |i, j| Arc::ptr_eq(&devices[i], &devices[j]);
        let hosted = |i: usize, j: usize| topo.device_of[i] == topo.device_of[j];
        assert!(
            topo.device_of.len() == m
                && topo.device_of.iter().all(|&d| d < m)
                && (0..m).all(|i| (0..m).all(|j| shared(i, j) == hosted(i, j))),
            "the devices must be shared as the topology's `device_of` says"
        );
        let maps = devices
            .iter()
            .map(|d| GpuHashMap::new(Arc::clone(d), capacity_per_gpu, cfg))
            .collect::<Result<Vec<_>, _>>()?;
        let part = PartitionFn::new(maps.len() as u32, cfg.seed ^ 0x9e37_79b9);
        let fallback = PartitionFn::new(maps.len() as u32, cfg.seed ^ 0x51f7_ba11);
        let chaos = RwLock::new(ChaosState::new(cfg.fault));
        Ok(Self {
            maps,
            topo,
            part,
            fallback,
            cfg,
            chaos,
            scratch: Scratch::default(),
        })
    }

    /// Number of partitions: GPUs on the Fig. 6 node.
    #[must_use]
    pub fn num_gpus(&self) -> usize {
        self.maps.len()
    }

    /// The per-GPU maps (read access for stats/verification). Note that a
    /// quarantined GPU's map retains a stale pre-migration copy of its
    /// entries; use [`DistributedHashMap::live_snapshot`] for the
    /// authoritative contents.
    #[must_use]
    pub fn maps(&self) -> &[GpuHashMap] {
        &self.maps
    }

    /// The node topology.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The partition function `p(k)` routing keys to GPUs (healthy-path
    /// routing; see [`DistributedHashMap::router`] for the fault-aware
    /// view).
    #[must_use]
    pub fn partition(&self) -> &PartitionFn {
        &self.part
    }

    /// The fault-aware router under the current quarantine mask. With no
    /// quarantined GPU this routes identically to
    /// [`DistributedHashMap::partition`].
    #[must_use]
    pub fn router(&self) -> Router {
        self.router_for(self.chaos.read().mask)
    }

    /// Attaches (or detaches) one shared history recorder to every local
    /// map: the union of per-GPU kernel events forms a single history on
    /// the recorder's shared clock, so cross-GPU operations on one key
    /// stay totally ordered in real time. See
    /// [`crate::GpuHashMap::set_recorder`].
    pub fn set_recorder(&mut self, rec: Option<std::sync::Arc<crate::HistoryRecorder>>) {
        for map in &mut self.maps {
            map.set_recorder(rec.clone());
        }
    }

    /// The local maps of the live (non-quarantined) GPUs.
    fn live_maps(&self) -> impl Iterator<Item = &GpuHashMap> {
        let mask = self.chaos.read().mask;
        let live = move |&(i, _): &(usize, &GpuHashMap)| mask & (1 << i) == 0;
        self.maps.iter().enumerate().filter(live).map(|(_, map)| map)
    }

    /// Total live entries over all non-quarantined GPUs.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.live_maps().map(GpuHashMap::len).sum()
    }

    /// Whether no live GPU holds any entry.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregate load factor over the live GPUs.
    #[must_use]
    pub fn load_factor(&self) -> f64 {
        let cap: usize = self.live_maps().map(GpuHashMap::capacity).sum();
        self.len() as f64 / cap as f64
    }

    // ---- dynamic tables ---------------------------------------------------

    /// Grows every live (non-quarantined) GPU's local table, driving each
    /// migration to completion before returning: the device-sided
    /// cascades address one fixed table per GPU, so the distributed map
    /// never exposes a mid-migration local. Growth is per-GPU and
    /// independent — the partition function is capacity-independent, so
    /// no key ever moves between GPUs during a resize and per-partition
    /// key conservation holds trivially. Returns whether any table grew.
    ///
    /// # Errors
    /// Target-allocation failure or migration-insert failure on any GPU;
    /// already-resized GPUs keep their new tables (retry is safe).
    pub fn request_grow(&mut self) -> Result<bool, OpError> {
        self.resize_locals(crate::ResizeMode::Grow)
    }

    /// Compacts every live GPU's local table at unchanged capacity
    /// (tombstone purge), run to completion like
    /// [`Self::request_grow`]. Returns whether any table was compacted.
    ///
    /// # Errors
    /// Same contract as [`Self::request_grow`].
    pub fn request_compact(&mut self) -> Result<bool, OpError> {
        self.resize_locals(crate::ResizeMode::Compact)
    }

    fn resize_locals(&mut self, mode: crate::ResizeMode) -> Result<bool, OpError> {
        let mask = self.chaos.read().mask;
        let mut any = false;
        for (j, map) in self.maps.iter_mut().enumerate() {
            if mask & (1 << j) != 0 {
                continue; // quarantined: drained into survivors already
            }
            let started = match mode {
                crate::ResizeMode::Grow => map.request_grow()?,
                crate::ResizeMode::Compact => map.request_compact()?,
            };
            map.finish_resize()?;
            debug_assert!(map.resize_state() == crate::ResizeState::Stable);
            any |= started;
        }
        Ok(any)
    }

    /// Aggregate slot occupancy over the live (non-quarantined) GPUs.
    #[must_use]
    pub fn occupancy_split(&self) -> crate::Occupancy {
        self.live_maps().map(GpuHashMap::occupancy_split).sum()
    }

    // ---- chaos control ----------------------------------------------------

    /// Replaces the active fault plan at runtime (e.g. to kill a GPU
    /// mid-run). Quarantine state and degraded-mode stats persist across
    /// plan changes.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        self.chaos.write().plan = plan;
    }

    /// Indices of quarantined GPUs, ascending.
    #[must_use]
    pub fn quarantined(&self) -> Vec<usize> {
        let mask = self.chaos.read().mask;
        (0..self.num_gpus()).filter(|&g| mask & (1 << g) != 0).collect()
    }

    /// Degraded-mode counters accumulated so far (all-zero on healthy
    /// runs).
    #[must_use]
    pub fn degraded_stats(&self) -> DegradedStats {
        self.chaos.read().stats
    }

    /// Host-side snapshot of every live (non-quarantined) GPU's entries.
    #[must_use]
    pub fn live_snapshot(&self) -> Vec<(u32, u32)> {
        self.live_maps().flat_map(GpuHashMap::snapshot).collect()
    }

    /// Replay string reproducing this map's fault decisions and kernel
    /// schedule: `WD_FAULT=… WD_FAULT_SEED=…` composed with the
    /// `WD_SCHED_*` hints. Print it with every chaos failure.
    #[must_use]
    pub fn replay_hint(&self) -> String {
        self.chaos.read().plan.replay_hint_with(self.cfg.schedule)
    }

    pub(crate) fn chaos_snapshot(&self) -> (FaultPlan, u32) {
        let st = self.chaos.read();
        (st.plan, st.mask)
    }

    pub(crate) fn device(&self, i: usize) -> &Arc<Device> {
        self.maps[i].device()
    }

    pub(crate) fn cfg(&self) -> &Config {
        &self.cfg
    }

    pub(crate) fn router_for(&self, mask: u32) -> Router {
        Router::new(self.part, self.fallback, mask)
    }

    /// Books a step's retries and backoff into the degraded-mode
    /// counters (no-op on an all-zero tally).
    pub(crate) fn note_chaos(&self, t: &ChaosTally) {
        if t.launch_retries == 0 && t.transfer_retries == 0 && t.backoff == 0.0 {
            return;
        }
        let mut st = self.chaos.write();
        st.stats.launch_retries += t.launch_retries;
        st.stats.transfer_retries += t.transfer_retries;
        st.stats.backoff_time += t.backoff;
    }

    /// Inserts `pairs` into the local maps `router` assigns them to,
    /// bypassing the cascade; returns how many it placed.
    pub(crate) fn insert_routed(
        &self,
        router: &Router,
        pairs: impl IntoIterator<Item = (u32, u32)>,
    ) -> Result<u64, OpError> {
        let mut buckets: Vec<Vec<(u32, u32)>> = vec![Vec::new(); self.num_gpus()];
        for (k, v) in pairs {
            buckets[router.route(k) as usize].push((k, v));
        }
        let mut placed = 0u64;
        for (t, bucket) in buckets.iter().enumerate() {
            if !bucket.is_empty() {
                self.maps[t].insert_pairs(bucket)?;
                placed += bucket.len() as u64;
            }
        }
        Ok(placed)
    }

    /// Quarantines GPU `j`: marks it dead and re-splits its partition
    /// across the survivors via the fallback hash (graceful degradation).
    /// With the [`Mutation::ForgetQuarantinedPartition`] double the
    /// re-split is skipped, losing the partition — the chaos suite proves it
    /// catches that.
    ///
    /// # Errors
    /// [`OpError::DeviceLost`] if no survivor remains, and migration
    /// insert failures (e.g. probing exhaustion on an overloaded
    /// survivor).
    pub(crate) fn quarantine(&self, j: usize) -> Result<(), OpError> {
        {
            let mut st = self.chaos.write();
            if st.mask & (1 << j) != 0 {
                return Ok(());
            }
            let any_survivor = (0..self.num_gpus())
                .any(|g| g != j && st.mask & (1 << g) == 0);
            if !any_survivor {
                return Err(OpError::DeviceLost { device: j });
            }
            st.mask |= 1 << j;
            st.stats.quarantined += 1;
            st.stats.repartitions += 1;
        }
        if self.cfg.mutation == Some(Mutation::ForgetQuarantinedPartition) {
            // BROKEN (mutation double): the quarantined partition is dropped.
            return Ok(());
        }
        let pairs = self.maps[j].snapshot();
        if pairs.is_empty() {
            return Ok(());
        }
        // The migration re-inserts are logically *moves*: record a
        // synthetic erase per key first so a shared history stays
        // linearizable (erase → re-insert, totally ordered on the
        // recorder's clock).
        if let Some(rec) = self.maps[j].recorder() {
            for &(k, _) in &pairs {
                let t = rec.invoke();
                rec.complete(k, OpKind::Erase, OpResponse::Erased { hit: true }, t);
            }
        }
        let migrated = self.insert_routed(&self.router(), pairs)?;
        self.chaos.write().stats.migrated_keys += migrated;
        Ok(())
    }

    /// [`crate::MapService::apply`], a call of one list cut where `cut`
    /// says or by the planner without one: the one body of the trait's
    /// `apply` and of [`DistributedHashMap::apply_in_chunks`].
    pub(crate) fn apply_cut(
        &mut self,
        (reads, puts, erases): (&[u32], &[(u32, u32)], &[u32]),
        values: &mut [Option<u32>],
        hits: &mut [bool],
        cut: Option<Cut>,
    ) -> Result<Applied, OpError> {
        check_call(reads, puts, erases, values, hits)?;
        if reads.is_empty() && puts.is_empty() && erases.is_empty() {
            return Ok(Applied::default());
        }
        if !one_group_per_key(reads, puts, erases) {
            return composed(self, reads, puts, erases, values, hits);
        }
        let len = reads.len() + puts.len() + erases.len();
        self.with_scratch(len, |d, scratch| {
            d.apply_into((reads, puts, erases), values, hits, scratch, cut)
        })
    }

    /// Runs `call` with empty buffers for a call of `len` elements: the
    /// node's own, kept across calls, for a call of a serving flush's
    /// size; fresh ones for a larger call, which go with it — kept, they
    /// would hold a bulk call's pairs resident.
    fn with_scratch<T>(&mut self, len: usize, call: impl FnOnce(&Self, &mut Scratch) -> T) -> T {
        let held = len <= HELD_SCRATCH;
        let mut scratch = if held {
            std::mem::take(&mut self.scratch)
        } else {
            Scratch::default()
        };
        scratch.0.clear();
        scratch.1.clear();
        let out = call(self, &mut scratch);
        if held {
            self.scratch = scratch;
        }
        out
    }
}

impl crate::service::MapService for DistributedHashMap {
    /// The reads, the puts and the erases as one cascade round
    /// ([`crate::host_ops`]): one H2D, one multisplit, one all-to-all and
    /// one launch per GPU for every list, the answers alone on the return
    /// trip; a call of one list is that list's call, cut into chunks by the
    /// planner ([`DistributedHashMap::apply_in_chunks`] cuts where its
    /// caller says). Lists that could put one key in two racing groups
    /// ([`one_group_per_key`]) run as a read call, then a write call, then
    /// an erase call. The placement counts are the kernels' tallies,
    /// summed over the targets: exact on a healthy node.
    fn apply(
        &mut self,
        reads: &[u32],
        puts: &[(u32, u32)],
        erases: &[u32],
        values: &mut [Option<u32>],
        hits: &mut [bool],
    ) -> Result<Applied, OpError> {
        self.apply_cut((reads, puts, erases), values, hits, None)
    }

    fn mutation(&self) -> Option<crate::Mutation> {
        self.cfg.mutation
    }

    fn live_len(&self) -> u64 {
        self.len()
    }

    fn slot_capacity(&self) -> u64 {
        self.maps.iter().map(GpuHashMap::capacity).sum::<usize>() as u64
    }

    fn degraded(&self) -> DegradedStats {
        self.degraded_stats()
    }

    fn occupancy_split(&self) -> crate::Occupancy {
        DistributedHashMap::occupancy_split(self)
    }

    fn request_grow(&mut self) -> Result<bool, OpError> {
        DistributedHashMap::request_grow(self)
    }

    fn request_compact(&mut self) -> Result<bool, OpError> {
        DistributedHashMap::request_compact(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CascadeStage, OpReport, Resident};

    fn node(m: usize, words_per_dev: usize) -> DistributedHashMap {
        let devices: Vec<Arc<Device>> = (0..m)
            .map(|i| Arc::new(Device::with_words(i, words_per_dev)))
            .collect();
        DistributedHashMap::new(devices, 1024, Config::default(), Topology::p100_quad(m)).unwrap()
    }

    fn spread(pairs: &[(u32, u32)], m: usize) -> Vec<&[(u32, u32)]> {
        // unstructured distribution: equal contiguous chunks
        let per = pairs.len().div_ceil(m);
        pairs.chunks(per.max(1)).chain(std::iter::repeat(&[][..])).take(m).collect()
    }

    /// A device-sided put of `lists`: its report.
    fn put(d: &mut DistributedHashMap, lists: &[&[(u32, u32)]]) -> OpReport {
        d.apply_device_sided(Resident::Puts(lists), None).unwrap().applied.report
    }

    #[test]
    fn insert_routes_keys_to_their_partition() {
        let mut d = node(4, 1 << 16);
        let pairs: Vec<(u32, u32)> = (0..2000u32).map(|i| (i * 7 + 1, i)).collect();
        let report = put(&mut d, &spread(&pairs, 4));
        assert_eq!(d.len(), 2000);
        // every key lives on the GPU its partition function names
        for (j, map) in d.maps().iter().enumerate() {
            for (k, _) in map.snapshot() {
                assert_eq!(d.partition().part(k) as usize, j, "key {k} misplaced");
            }
        }
        // cascade has the three phases in order
        assert_eq!(report.stages.len(), 3);
        assert!(report.time > 0.0);
    }

    #[test]
    fn retrieve_round_trips_in_origin_order() {
        let mut d = node(4, 1 << 16);
        let pairs: Vec<(u32, u32)> = (0..1500u32).map(|i| (i * 3 + 5, i + 100)).collect();
        put(&mut d, &spread(&pairs, 4));

        // query from a *different* unstructured spread, with misses mixed in
        let mut keys: Vec<Vec<u32>> = vec![
            pairs[0..500].iter().map(|p| p.0).collect(),
            pairs[500..900].iter().map(|p| p.0).collect(),
            vec![4_000_000_000, 4_000_000_001], // absent
            pairs[900..].iter().map(|p| p.0).collect(),
        ];
        keys[2].push(pairs[42].0); // present key on the "miss" GPU
        let lists: Vec<&[u32]> = keys.iter().map(Vec::as_slice).collect();
        let resp = d.apply_device_sided(Resident::Reads(&lists), None).unwrap();

        let lookup: std::collections::HashMap<u32, u32> = pairs.iter().copied().collect();
        for (g, gpu_keys) in keys.iter().enumerate() {
            for (i, k) in gpu_keys.iter().enumerate() {
                assert_eq!(resp.values[g][i], lookup.get(k).copied(), "gpu {g} idx {i}");
            }
        }
        // five phases: MST, T, Q, T back, scatter
        assert_eq!(resp.applied.report.stages.len(), 5);
        assert!(resp
            .applied
            .report
            .stages
            .iter()
            .any(|t| t.stage == CascadeStage::TransposeBack && t.time > 0.0));
    }

    #[test]
    fn single_gpu_node_skips_communication_cost() {
        let mut d = node(1, 1 << 16);
        let pairs: Vec<(u32, u32)> = (0..500u32).map(|i| (i + 1, i)).collect();
        let report = put(&mut d, &spread(&pairs, 1));
        // m = 1: the all-to-all moves zero bytes
        assert_eq!(report.time_of(CascadeStage::Transpose), 0.0);
        assert_eq!(d.len(), 500);
    }

    #[test]
    fn duplicate_keys_update_across_gpus() {
        let mut d = node(2, 1 << 16);
        put(&mut d, &[&[(77, 1)], &[(77, 2)]]);
        // both pairs target the same GPU and key; last writer wins
        // nondeterministically — but exactly one value must be stored
        assert_eq!(d.len(), 1);
        let resp = d.apply_device_sided(Resident::Reads(&[&[77], &[]]), None).unwrap();
        let v = resp.values[0][0].unwrap();
        assert!(v == 1 || v == 2, "got {v}");
    }

    #[test]
    fn load_factor_aggregates() {
        let mut d = node(2, 1 << 16);
        assert!(d.is_empty());
        let pairs: Vec<(u32, u32)> = (0..1024u32).map(|i| (i * 11 + 3, i)).collect();
        put(&mut d, &spread(&pairs, 2));
        assert!((d.load_factor() - 0.5).abs() < 0.01);
    }
}

#[cfg(test)]
mod erase_tests {
    use super::*;
    use crate::service::MapService;
    use crate::CascadeStage;

    fn node(m: usize) -> DistributedHashMap {
        let devices: Vec<Arc<Device>> = (0..m)
            .map(|i| Arc::new(Device::with_words(i, 1 << 16)))
            .collect();
        DistributedHashMap::new(devices, 2048, Config::default(), Topology::p100_quad(m)).unwrap()
    }

    #[test]
    fn erase_cascade_removes_exactly_the_victims() {
        let mut d = node(4);
        let pairs: Vec<(u32, u32)> = (0..3000u32).map(|i| (i * 5 + 2, i)).collect();
        d.put_batch(&pairs).unwrap();
        let victims: Vec<u32> = pairs.iter().step_by(3).map(|p| p.0).collect();
        let del = d.delete_batch(&victims).unwrap();
        assert_eq!(del.erased as usize, victims.len());
        assert!(del.hits.iter().all(|&h| h), "all victims were present");
        assert_eq!(d.len() as usize, pairs.len() - victims.len());
        assert!(del
            .report
            .stages
            .iter()
            .any(|t| t.stage == CascadeStage::H2D && t.time > 0.0));
        // survivors answer, victims do not
        let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
        let res = d.get_batch(&keys).unwrap().values;
        for (i, r) in res.iter().enumerate() {
            if i % 3 == 0 {
                assert_eq!(*r, None, "victim {} survived", keys[i]);
            } else {
                assert_eq!(*r, Some(pairs[i].1), "survivor {} lost", keys[i]);
            }
        }
    }

    #[test]
    fn erase_of_absent_keys_reports_zero() {
        let mut d = node(2);
        d.put_batch(&[(1, 10), (2, 20)]).unwrap();
        let del = d.delete_batch(&[100, 200, 300]).unwrap();
        assert_eq!(del.erased, 0);
        assert_eq!(del.hits, vec![false, false, false]);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn erase_then_reinsert_round_trips() {
        let mut d = node(2);
        let pairs: Vec<(u32, u32)> = (0..500u32).map(|i| (i + 1, i)).collect();
        d.put_batch(&pairs).unwrap();
        let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
        let del = d.delete_batch(&keys).unwrap();
        assert_eq!(del.erased, 500);
        assert!(del.hits.iter().all(|&h| h));
        assert!(d.is_empty());
        // reinsert over the tombstones
        d.put_batch(&pairs).unwrap();
        assert_eq!(d.len(), 500);
        let res = d.get_batch(&keys).unwrap().values;
        assert!(res.iter().all(Option::is_some));
    }
}

#[cfg(test)]
mod chaos_tests {
    use super::*;
    use crate::service::MapService;
    use crate::{CascadeStage, Resident};
    use std::collections::BTreeMap;

    fn node_with(cfg: Config, m: usize) -> DistributedHashMap {
        let devices: Vec<Arc<Device>> = (0..m)
            .map(|i| Arc::new(Device::with_words(i, 1 << 17)))
            .collect();
        DistributedHashMap::new(devices, 1 << 13, cfg, Topology::p100_quad(m)).unwrap()
    }

    fn multiset(pairs: impl IntoIterator<Item = (u32, u32)>) -> BTreeMap<(u32, u32), u32> {
        let mut m = BTreeMap::new();
        for p in pairs {
            *m.entry(p).or_insert(0) += 1;
        }
        m
    }

    #[test]
    fn disarmed_cascade_reports_are_bit_identical() {
        // 1 024 pairs: the insert kernel's groups are one chunk of the
        // default pool, so one worker runs them in order. One more and two
        // chunks race, and a lost CAS race shows in the modeled time.
        let pairs: Vec<(u32, u32)> = (0..1024u32).map(|i| (i * 7 + 1, i)).collect();
        let spread: [&[(u32, u32)]; 1] = [&pairs];
        let mk = || {
            let devices = vec![Arc::new(Device::with_words(0, 1 << 17))];
            DistributedHashMap::new(devices, 1 << 13, Config::default(), Topology::p100_quad(1))
                .unwrap()
        };
        let put = || mk().apply_device_sided(Resident::Puts(&spread), None).unwrap().applied.report;
        let (a, b) = (put(), put());
        assert_eq!(a.stages.len(), b.stages.len());
        for (x, y) in a.stages.iter().zip(&b.stages) {
            assert_eq!(x.time.to_bits(), y.time.to_bits(), "{:?}", x.stage);
        }
    }

    #[test]
    fn killed_gpu_is_quarantined_and_keys_survive() {
        let mut d = node_with(Config::default(), 4);
        let pairs: Vec<(u32, u32)> = (0..4000u32).map(|i| (i * 3 + 1, i)).collect();
        d.put_batch(&pairs[..2000]).unwrap();
        assert!(d.quarantined().is_empty());

        // kill GPU 3 mid-run, then keep operating
        d.set_fault_plan(FaultPlan::default().with_kill(3));
        d.put_batch(&pairs[2000..]).unwrap();
        assert_eq!(d.quarantined(), vec![3]);
        let stats = d.degraded_stats();
        assert_eq!(stats.quarantined, 1);
        assert_eq!(stats.repartitions, 1);
        assert!(stats.migrated_keys > 0, "GPU 3 held keys before the kill");

        // every key — including those migrated off GPU 3 — still answers
        let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
        let res = d.get_batch(&keys).unwrap().values;
        for (i, p) in pairs.iter().enumerate() {
            assert_eq!(res[i], Some(p.1), "key {} lost after quarantine", p.0);
        }
        // conservation: the live multiset is exactly the inserted multiset
        assert_eq!(multiset(pairs), multiset(d.live_snapshot()));
        // GPU 3 holds nothing live
        assert_eq!(d.len(), 4000);
    }

    #[test]
    fn transient_launch_failures_retry_and_recover() {
        // moderate transient failure rate: retries happen, nothing dies
        let plan = FaultPlan::default().with_seed(11).with_launch_fail(0.3);
        let mut d = node_with(Config::default().with_fault(plan), 4);
        let pairs: Vec<(u32, u32)> = (0..3000u32).map(|i| (i * 5 + 3, i)).collect();
        let rep = d.put_batch(&pairs).unwrap().report;
        assert!(d.quarantined().is_empty(), "30% transient should not kill");
        let stats = d.degraded_stats();
        assert!(stats.launch_retries > 0, "no retries at 30% failure rate");
        assert!(stats.backoff_time > 0.0);
        assert!(rep.time_of(CascadeStage::Backoff) > 0.0);
        assert_eq!(multiset(pairs), multiset(d.live_snapshot()));
    }

    #[test]
    fn transfer_drops_retry_and_are_billed() {
        let plan = FaultPlan::default().with_seed(7).with_transfer_drop(0.4);
        let mut d = node_with(Config::default().with_fault(plan), 4);
        let pairs: Vec<(u32, u32)> = (0..3000u32).map(|i| (i * 11 + 5, i)).collect();
        d.put_batch(&pairs).unwrap();
        let stats = d.degraded_stats();
        assert!(stats.transfer_retries > 0, "no drops at 40% rate");
        let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
        let res = d.get_batch(&keys).unwrap().values;
        assert!(res.iter().all(Option::is_some));
    }

    #[test]
    fn last_gpu_loss_is_a_typed_error() {
        let mut d = node_with(Config::default(), 2);
        d.put_batch(&[(1, 10), (2, 20)]).unwrap();
        d.set_fault_plan(FaultPlan::default().with_launch_fail(1.0));
        // both GPUs fail permanently: first one quarantines, the second
        // has no survivor left
        let err = d.put_batch(&[(3, 30)]).unwrap_err();
        assert!(
            matches!(err, OpError::DeviceLost { .. }),
            "unexpected {err:?}"
        );
    }

    #[test]
    fn replay_hint_names_fault_and_schedule() {
        let d = node_with(
            Config::default()
                .with_fault(FaultPlan::default().with_seed(42).with_transfer_drop(0.25)),
            2,
        );
        let hint = d.replay_hint();
        assert!(hint.contains("WD_FAULT="), "{hint}");
        assert!(hint.contains("WD_FAULT_SEED=42"), "{hint}");
        assert!(hint.contains("WD_SCHED"), "{hint}");
    }

    #[test]
    fn straggler_slows_the_cascade_without_changing_results() {
        let pairs: Vec<(u32, u32)> = (0..2000u32).map(|i| (i * 13 + 7, i)).collect();
        let mut healthy = node_with(Config::default(), 4);
        let h_rep = healthy.put_batch(&pairs).unwrap().report;
        let mut slow = node_with(
            Config::default()
                .with_fault(FaultPlan::default().with_straggler(2, 4.0, 0.0)),
            4,
        );
        let s_rep = slow.put_batch(&pairs).unwrap().report;
        assert!(
            s_rep.time > h_rep.time,
            "straggler should slow the cascade: {} vs {}",
            s_rep.time,
            h_rep.time
        );
        assert_eq!(multiset(pairs), multiset(slow.live_snapshot()));
    }

    /// A straggler is billed once, by the node: on a one-GPU node the
    /// Insert row is `t·f + s` of the disarmed row's `t`, bit for bit,
    /// while the answers and the device's own counters and modeled time
    /// stay as they are.
    #[test]
    fn a_straggler_is_billed_once() {
        let (f, s) = (3.0, 1e-5);
        let pairs: Vec<(u32, u32)> = (0..1000u32).map(|i| (i * 11 + 5, i)).collect();
        let keys: Vec<u32> = pairs.iter().map(|&(k, _)| k).collect();
        let run = |plan: FaultPlan| {
            let cfg = Config::default().with_fault(plan);
            let mut d = node_with(cfg.with_schedule(gpu_sim::Schedule::Sequential), 1);
            let put = d.put_batch(&pairs).unwrap().report;
            let insert = put.stages.iter().find(|r| r.stage == CascadeStage::Insert);
            let values = d.get_batch(&keys).unwrap().values;
            (insert.unwrap().time, values, d.device(0).lifetime_stats())
        };
        let (t, values, device) = run(FaultPlan::default());
        let slow = run(FaultPlan::default().with_straggler(0, f, s));
        assert_eq!(slow.0.to_bits(), (t * f + s).to_bits(), "{} vs {t}", slow.0);
        assert_eq!(slow.1, values);
        assert_eq!(slow.2, device);
    }

    /// A round that aborts at GPU 3's launch re-runs on the survivors, and
    /// GPU 0's upserts, which landed before the abort, run again: the
    /// answers of the first run stand, not what the re-run reads back.
    #[test]
    fn answers_of_an_aborted_mixed_round_stand() {
        use crate::chaos::launch_site::{GET_PUT, MULTISPLIT};
        use crate::service::MapService;
        // a fault plan is a stateless function of its seed: find one
        // under which GPU 3 exhausts its retry budget at the one launch
        // and nothing else is lost — GPUs 0–2 have by then answered and
        // upserted before the round aborts
        let attempts = gpu_sim::RETRY.max_attempts;
        let exhausts = |plan: &FaultPlan, gpu, site| {
            (0..attempts).all(|attempt| plan.launch_fails(gpu, site, attempt))
        };
        let plan = (0..10_000)
            .map(|seed| FaultPlan::default().with_seed(seed).with_launch_fail(0.5))
            .find(|plan| {
                exhausts(plan, 3, GET_PUT)
                    && !(0..4).any(|gpu| exhausts(plan, gpu, MULTISPLIT))
                    && !(0..3).any(|gpu| exhausts(plan, gpu, GET_PUT))
            })
            .expect("one seed in 10 000 loses GPU 3 at the one launch and nothing else");

        let pairs: Vec<(u32, u32)> = (1..=600u32).map(|k| (k, k)).collect();
        let reads: Vec<u32> = (1..=600).filter(|k| k % 3 == 0).collect();
        let puts: Vec<(u32, u32)> = (1..=600)
            .filter(|k| k % 2 == 0)
            .map(|k| (k, k + 1000))
            .collect();
        let run = |plan: FaultPlan| {
            let mut d = node_with(Config::default(), 4);
            d.put_batch(&pairs).unwrap();
            d.set_fault_plan(plan);
            let mut values = vec![None; reads.len()];
            d.apply(&reads, &puts, &[], &mut values, &mut []).unwrap();
            let mut contents = d.live_snapshot();
            contents.sort_unstable();
            (d, values, contents)
        };
        let (d, values, contents) = run(plan);
        assert_eq!(d.quarantined(), vec![3], "{}", d.replay_hint());
        // GPU 0 owns a key the call reads and writes: its upsert landed
        // before the round aborted, and the re-run's upsert read it back
        let owned = reads
            .iter()
            .position(|&k| k % 2 == 0 && d.partition().part(k) == 0)
            .expect("GPU 0 owns a read-and-written key");
        assert_eq!(values[owned], Some(reads[owned]), "the pre-call value");
        let pre_call: Vec<Option<u32>> = reads.iter().map(|&k| Some(k)).collect();
        assert_eq!(values, pre_call);
        let (_, healthy_values, healthy_contents) = run(FaultPlan::default());
        assert_eq!(values, healthy_values);
        assert_eq!(contents, healthy_contents);
    }

    #[test]
    fn an_aborted_round_counts_the_launches_it_made() {
        use crate::chaos::launch_site::{INSERT, MULTISPLIT};
        // on an empty node a quarantine migrates nothing, so every launch
        // the devices saw was a round's. The first plan aborts round one
        // in the split at GPU 2 (GPUs 0 and 1 have split by then), the
        // second at GPU 3's kernel (all four have split, GPUs 0–2 have
        // inserted); neither loses anything else
        let attempts = gpu_sim::RETRY.max_attempts;
        let exhausts = |plan: &FaultPlan, gpu, site| {
            (0..attempts).all(|attempt| plan.launch_fails(gpu, site, attempt))
        };
        let losing_only = |lost: (usize, u64)| {
            (0..10_000)
                .map(|seed| FaultPlan::default().with_seed(seed).with_launch_fail(0.5))
                .find(|plan| {
                    let sites = (0..4).flat_map(|gpu| [(gpu, MULTISPLIT), (gpu, INSERT)]);
                    // once the split has lost a GPU, its kernel never runs
                    sites
                        .filter(|&(gpu, site)| lost != (gpu, MULTISPLIT) || site != INSERT)
                        .all(|(gpu, site)| exhausts(plan, gpu, site) == ((gpu, site) == lost))
                })
                .expect("one seed in 10 000 loses this launch and no other")
        };
        let pairs: Vec<(u32, u32)> = (0..3000u32).map(|i| (i * 7 + 3, i)).collect();
        for lost in [(2, MULTISPLIT), (3, INSERT)] {
            let mut d = node_with(Config::default().with_fault(losing_only(lost)), 4);
            let rep = d.put_batch(&pairs).unwrap().report;
            assert_eq!(d.quarantined(), vec![lost.0], "{}", d.replay_hint());
            let made = |map: &GpuHashMap| map.device().lifetime_stats().launches;
            let made: u64 = d.maps().iter().map(made).sum();
            assert_eq!(rep.launches, made, "{}", d.replay_hint());
            assert_eq!(multiset(pairs.clone()), multiset(d.live_snapshot()));
        }
    }

    #[test]
    fn erase_under_kill_still_tombstones_everything() {
        let mut d = node_with(Config::default(), 4);
        let pairs: Vec<(u32, u32)> = (0..1000u32).map(|i| (i * 7 + 2, i)).collect();
        d.put_batch(&pairs).unwrap();
        d.set_fault_plan(FaultPlan::default().with_kill(1));
        let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
        let del = d.delete_batch(&keys).unwrap();
        assert_eq!(del.erased, 1000, "migrated keys must still be erasable");
        assert!(
            del.hits.iter().all(|&h| h),
            "hits survive the quarantine restart"
        );
        assert!(d.is_empty());
        assert_eq!(d.quarantined(), vec![1]);
    }
}
