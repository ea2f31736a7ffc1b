//! Sharded single-GPU hash map — the paper's §VI future-work item:
//! "A possible workaround to further increase performance could be the
//! partitioning of high capacity hash maps into several smaller hash
//! maps each of size ≤ 2 GB."
//!
//! A [`ShardedHashMap`] splits one logical table into `s` independent
//! shards on the *same* device, routed by a partition hash (the same
//! machinery the multi-GPU map uses across devices). Each shard's CAS
//! working set stays below the degradation threshold, recovering the
//! insert throughput a monolithic >2 GB table loses — the experiment in
//! `ablation_sharding` quantifies the effect.
//!
//! Trade-off faithfully modeled: routing costs one extra multisplit-like
//! pass per bulk operation (billed as streaming traffic), so sharding
//! only pays off once the monolithic table is actually degraded.

use crate::chaos::{launch_site, ChaosTally};
use crate::config::Config;
use crate::errors::BuildError;
use crate::insert::InsertOutcome;
use crate::map::GpuHashMap;
use crate::service::{DeleteResponse, GetResponse, OpError, OpReport, PutResponse};
use crate::table::check_keys;
use gpu_sim::{Device, FaultPlan, GroupSize, KernelStats, LaunchOptions, RetryPolicy};
use hashes::PartitionFn;
use std::sync::Arc;

/// A logical hash map backed by `s` sub-2-GB shards on one device.
#[derive(Debug)]
pub struct ShardedHashMap {
    dev: Arc<Device>,
    shards: Vec<GpuHashMap>,
    part: PartitionFn,
    fault: FaultPlan,
}

impl ShardedHashMap {
    /// Builds `num_shards` shards of `capacity_per_shard` slots each.
    ///
    /// The per-shard modeled capacity is `cfg.modeled_capacity_bytes / s`
    /// when set (the logical table's footprint divides across shards) —
    /// that is the whole point of the construction.
    ///
    /// # Errors
    /// Propagates shard allocation failures.
    ///
    /// # Panics
    /// Panics if `num_shards == 0`.
    pub fn new(
        dev: Arc<Device>,
        capacity_per_shard: usize,
        num_shards: usize,
        cfg: Config,
    ) -> Result<Self, BuildError> {
        assert!(num_shards > 0, "need at least one shard");
        let shard_cfg = match cfg.modeled_capacity_bytes {
            Some(total) => cfg.with_modeled_capacity(total / num_shards as u64),
            None => cfg,
        };
        let shards = (0..num_shards)
            .map(|_| GpuHashMap::new(Arc::clone(&dev), capacity_per_shard, shard_cfg))
            .collect::<Result<Vec<_>, _>>()?;
        let part = PartitionFn::new(num_shards as u32, cfg.seed ^ 0x5aa4_d217);
        Ok(Self {
            dev,
            shards,
            part,
            fault: cfg.fault,
        })
    }

    /// Number of shards.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total live entries.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.shards.iter().map(GpuHashMap::len).sum()
    }

    /// Whether all shards are empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregate load factor.
    #[must_use]
    pub fn load_factor(&self) -> f64 {
        let cap: usize = self.shards.iter().map(GpuHashMap::capacity).sum();
        self.len() as f64 / cap as f64
    }

    /// Bills the on-device routing pass (read every pair, bucket it) and
    /// returns per-shard buckets.
    fn route(&self, pairs: &[(u32, u32)]) -> (Vec<Vec<(u32, u32)>>, KernelStats) {
        let mut buckets: Vec<Vec<(u32, u32)>> = vec![Vec::new(); self.num_shards()];
        for &(k, v) in pairs {
            buckets[self.part.part(k) as usize].push((k, v));
        }
        // modeled as one streaming pass with a warp-aggregated counter
        // per shard (same structure as the multi-GPU multisplit)
        let stats = self.dev.launch(
            "shard_route",
            pairs.len().div_ceil(32),
            GroupSize::WARP,
            LaunchOptions::default(),
            |ctx| {
                ctx.bill_stream_bytes(32 * 16); // read pairs + write routed
            },
        );
        (buckets, stats)
    }

    /// The shard by shard half of every routed operation: `op` on each
    /// shard whose bucket is not empty, behind a roll of the shard's
    /// transient launch failures at the shard-routing site. Returns the
    /// launches made, the routing pass included, and the retry backoff.
    /// One device hosts every shard, so an exhausted retry budget has no
    /// failover target.
    fn routed<T>(
        &self,
        buckets: &[Vec<T>],
        mut op: impl FnMut(&GpuHashMap, &[T]) -> Result<(), OpError>,
    ) -> Result<(u64, f64), OpError> {
        let mut launches = 1;
        let mut tally = ChaosTally::default();
        for (s, bucket) in buckets.iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            tally
                .gate_launch(&self.fault, &RetryPolicy::default(), s, launch_site::SHARD)
                .map_err(|device| OpError::DeviceLost { device })?;
            launches += 1;
            op(&self.shards[s], bucket)?;
        }
        Ok((launches, tally.backoff))
    }

    /// Bulk insert: route, then insert shard by shard. Returns the merged
    /// outcome (stats add; the per-shard kernels are billed individually
    /// with their sub-threshold working sets).
    ///
    /// Under an armed [`Config::fault`] plan each shard's launch is gated
    /// (see `routed`); retries bill exponential backoff into the outcome's
    /// `sim_time`. Retrying is idempotent — the bucket is only applied
    /// once the launch succeeds.
    ///
    /// # Errors
    /// Aggregated probing exhaustion; scratch OOM;
    /// [`OpError::DeviceLost`] if a shard exhausts its launch retry
    /// budget (one device hosts every shard — there is no failover
    /// target); [`OpError::ReservedKey`] before anything is routed.
    pub fn insert_pairs(&self, pairs: &[(u32, u32)]) -> Result<InsertOutcome, OpError> {
        let (mut outcome, _, backoff) = self.insert_impl(pairs)?;
        // fault-injection waits are real wall time; a fault-off run adds
        // its 0.0, which leaves the time bit-identical
        outcome.stats.sim_time += backoff;
        Ok(outcome)
    }

    /// [`Self::insert_pairs`] with the launch count and the retry
    /// backoff kept apart from the merged kernel stats.
    fn insert_impl(&self, pairs: &[(u32, u32)]) -> Result<(InsertOutcome, u64, f64), OpError> {
        check_keys(pairs.iter().map(|p| p.0))?;
        let (buckets, route_stats) = self.route(pairs);
        let mut merged: Option<InsertOutcome> = None;
        let mut failed = 0u64;
        let (launches, backoff) = self.routed(&buckets, |shard, bucket| {
            match shard.insert_pairs(bucket) {
                Ok(o) => {
                    merged = Some(match merged.take() {
                        None => o,
                        Some(mut acc) => {
                            acc.stats = acc.stats.merged(&o.stats);
                            acc.new_slots += o.new_slots;
                            acc.updates += o.updates;
                            acc.reclaimed += o.reclaimed;
                            acc
                        }
                    });
                }
                Err(OpError::ProbingExhausted { failed: f }) => failed += f,
                Err(e) => return Err(e),
            }
            Ok(())
        })?;
        if failed > 0 {
            return Err(OpError::ProbingExhausted { failed });
        }
        let mut outcome = merged.unwrap_or(InsertOutcome {
            stats: route_stats.clone(),
            failed: 0,
            new_slots: 0,
            updates: 0,
            reclaimed: 0,
        });
        outcome.stats = outcome.stats.merged(&route_stats);
        Ok((outcome, launches, backoff))
    }

    /// The report of one routed operation: the routing launch plus one
    /// per non-empty shard, with retry backoff booked on top of the
    /// merged kernel time.
    fn routed_report(stats: &KernelStats, elements: usize, launches: u64, backoff: f64) -> OpReport {
        let mut report = OpReport::from_kernel(stats, elements as u64);
        report.launches = launches;
        report.backoff_time = backoff;
        report.time += backoff;
        report
    }

    /// A routed operation over keys: buckets `keys` by shard, bills the
    /// routing pass `name`, lets `op` answer each shard's keys — one
    /// result a key, and the launch's stats — and scatters the results
    /// back to input positions.
    fn routed_keys<R: Clone + Default>(
        &self,
        name: &'static str,
        keys: &[u32],
        mut op: impl FnMut(&GpuHashMap, &[u32]) -> Result<(Vec<R>, KernelStats), OpError>,
    ) -> Result<(Vec<R>, OpReport), OpError> {
        check_keys(keys.iter().copied())?;
        let mut buckets: Vec<Vec<(usize, u32)>> = vec![Vec::new(); self.num_shards()];
        for (i, &k) in keys.iter().enumerate() {
            buckets[self.part.part(k) as usize].push((i, k));
        }
        let mut stats = self.dev.launch(
            name,
            keys.len().div_ceil(32).max(1),
            GroupSize::WARP,
            LaunchOptions::default(),
            |ctx| ctx.bill_stream_bytes(32 * 16),
        );
        let mut out = vec![R::default(); keys.len()];
        let (launches, backoff) = self.routed(&buckets, |shard, bucket| {
            let shard_keys: Vec<u32> = bucket.iter().map(|b| b.1).collect();
            let (results, shard_stats) = op(shard, &shard_keys)?;
            stats = stats.clone().merged(&shard_stats);
            for (&(origin, _), r) in bucket.iter().zip(results) {
                out[origin] = r;
            }
            Ok(())
        })?;
        Ok((out, Self::routed_report(&stats, keys.len(), launches, backoff)))
    }

    /// Bulk retrieval in input order, with a typed [`OpReport`]; retry
    /// backoff of the gated shard launches lands in its `backoff_time`
    /// (and `time`).
    ///
    /// # Errors
    /// [`OpError::OutOfMemory`] if a shard cannot stage its query batch;
    /// [`OpError::DeviceLost`] if a shard exhausts its launch retry
    /// budget (one device hosts every shard — there is no failover);
    /// [`OpError::ReservedKey`] before anything is routed.
    pub fn try_retrieve(&self, keys: &[u32]) -> Result<GetResponse, OpError> {
        let (values, report) =
            self.routed_keys("shard_route_query", keys, |shard, keys| shard.retrieve_impl(keys))?;
        Ok(GetResponse { values, report })
    }

    /// Bulk erase in input order: route, erase shard by shard, scatter
    /// the per-key hit flags back to input positions.
    ///
    /// Takes `&mut self` for the same §IV-A reason as
    /// [`GpuHashMap::try_erase`]: deletions must be separated from
    /// insertions and queries by a global barrier.
    ///
    /// Shard launches are gated exactly like [`Self::insert_pairs`]';
    /// retries are idempotent (tombstoning a tombstone is a no-op).
    ///
    /// # Errors
    /// [`OpError::DeviceLost`] if a shard exhausts its retry budget;
    /// [`OpError::OutOfMemory`] if a shard cannot stage its batch;
    /// [`OpError::ReservedKey`] before anything is routed.
    pub fn try_erase(&mut self, keys: &[u32]) -> Result<DeleteResponse, OpError> {
        let (hits, report) = self.routed_keys("shard_route_erase", keys, |shard, keys| {
            let erased = shard.erase_impl(keys)?;
            Ok((erased.hits, erased.stats))
        })?;
        Ok(DeleteResponse {
            erased: hits.iter().filter(|&&hit| hit).count() as u64,
            hits,
            report,
        })
    }

    /// Single-key convenience. Routed through the same counter/stats
    /// path as [`Self::try_retrieve`], so device lifetime telemetry
    /// ([`gpu_sim::LifetimeStats`]) counts it like any batched read.
    #[must_use]
    pub fn get(&self, key: u32) -> Option<u32> {
        self.try_retrieve(&[key]).map_or(None, |r| r.values[0])
    }

    /// Host-side snapshot across all shards.
    #[must_use]
    pub fn snapshot(&self) -> Vec<(u32, u32)> {
        self.shards.iter().flat_map(GpuHashMap::snapshot).collect()
    }

    /// Arms (or disarms) the incremental-resize policy on every shard.
    /// The partition hash spreads load evenly, so shards cross the
    /// watermark together and each runs its own independent migration —
    /// keys never move between shards (the partition function is
    /// capacity-independent).
    pub fn set_resize_policy(&mut self, policy: Option<crate::ResizePolicy>) {
        for s in &mut self.shards {
            s.set_resize_policy(policy);
        }
    }

    /// Swaps in any fully-scanned per-shard migrations (called at every
    /// service batch entry point).
    fn finalize_shards(&mut self) {
        for s in &mut self.shards {
            s.maybe_finalize_resize();
        }
    }
}

impl crate::service::MapService for ShardedHashMap {
    fn put_batch(&mut self, pairs: &[(u32, u32)]) -> Result<PutResponse, OpError> {
        self.finalize_shards();
        let (o, launches, backoff) = self.insert_impl(pairs)?;
        Ok(PutResponse {
            new_slots: o.new_slots,
            updates: o.updates,
            reclaimed: o.reclaimed,
            report: Self::routed_report(&o.stats, pairs.len(), launches, backoff),
        })
    }

    fn get_batch(&mut self, keys: &[u32]) -> Result<GetResponse, OpError> {
        self.finalize_shards();
        self.try_retrieve(keys)
    }

    fn delete_batch(&mut self, keys: &[u32]) -> Result<DeleteResponse, OpError> {
        self.finalize_shards();
        self.try_erase(keys)
    }

    fn mutation(&self) -> Option<crate::Mutation> {
        self.shards[0].cfg.mutation
    }

    fn live_len(&self) -> u64 {
        self.len()
    }

    fn slot_capacity(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.effective_capacity())
            .sum::<usize>() as u64
    }

    fn occupancy_split(&self) -> crate::Occupancy {
        self.shards.iter().map(GpuHashMap::occupancy_split).sum()
    }

    fn resize_state(&self) -> crate::ResizeState {
        // aggregate view: Migrating while any shard migrates, with
        // cursors and capacities summed over the migrating shards
        let mut agg: Option<crate::ResizeState> = None;
        for s in &self.shards {
            if let crate::ResizeState::Migrating {
                mode,
                cursor,
                source_capacity,
                target_capacity,
            } = s.resize_state()
            {
                agg = Some(match agg {
                    Some(crate::ResizeState::Migrating {
                        mode: m0,
                        cursor: c0,
                        source_capacity: s0,
                        target_capacity: t0,
                    }) => crate::ResizeState::Migrating {
                        mode: m0,
                        cursor: c0 + cursor,
                        source_capacity: s0 + source_capacity,
                        target_capacity: t0 + target_capacity,
                    },
                    _ => crate::ResizeState::Migrating {
                        mode,
                        cursor,
                        source_capacity,
                        target_capacity,
                    },
                });
            }
        }
        agg.unwrap_or(crate::ResizeState::Stable)
    }

    fn request_grow(&mut self) -> Result<bool, OpError> {
        // the partition hash load-balances shards, so an aggregate
        // watermark crossing means every shard is near its own — grow all
        let mut started = false;
        for s in &mut self.shards {
            started |= s.request_grow()?;
        }
        Ok(started)
    }

    fn request_compact(&mut self) -> Result<bool, OpError> {
        let mut started = false;
        for s in &mut self.shards {
            started |= s.request_compact()?;
        }
        Ok(started)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(shards: usize, cap: usize) -> ShardedHashMap {
        let dev = Arc::new(Device::with_words(0, shards * cap + (1 << 14)));
        ShardedHashMap::new(dev, cap, shards, Config::default()).unwrap()
    }

    #[test]
    fn round_trip_across_shards() {
        let m = map(4, 1024);
        let pairs: Vec<(u32, u32)> = (0..3500u32).map(|i| (i * 3 + 1, i)).collect();
        m.insert_pairs(&pairs).unwrap();
        assert_eq!(m.len(), 3500);
        let keys: Vec<u32> = pairs.iter().map(|p| p.0).chain([999_999_999]).collect();
        let res = m.try_retrieve(&keys).unwrap().values;
        for (i, p) in pairs.iter().enumerate() {
            assert_eq!(res[i], Some(p.1), "key {}", p.0);
        }
        assert_eq!(res[3500], None);
        // shards share the load roughly evenly
        assert!((m.load_factor() - 3500.0 / 4096.0).abs() < 0.01);
    }

    #[test]
    fn duplicates_update_within_their_shard() {
        let m = map(2, 256);
        m.insert_pairs(&[(42, 1)]).unwrap();
        let o = m.insert_pairs(&[(42, 2)]).unwrap();
        assert_eq!(o.updates, 1);
        assert_eq!(m.get(42), Some(2));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn sharding_divides_the_modeled_working_set() {
        // monolithic 8 GB modeled table vs 4 shards of 2 GB each: the
        // sharded insert must be faster because CAS stays undegraded
        let n = 4000usize;
        let dev_a = Arc::new(Device::with_words(0, 1 << 16));
        let mono = GpuHashMap::new(
            dev_a,
            8192,
            Config::default().with_modeled_capacity(8 << 30),
        )
        .unwrap();
        let dev_b = Arc::new(Device::with_words(0, 1 << 16));
        let sharded = ShardedHashMap::new(
            dev_b,
            2048,
            4,
            Config::default().with_modeled_capacity(8 << 30),
        )
        .unwrap();
        let pairs: Vec<(u32, u32)> = (0..n as u32).map(|i| (i * 7 + 1, i)).collect();
        // compare net of fixed launch overheads (1 launch monolithic,
        // 1 routing + 4 shard launches sharded): at paper scale they
        // vanish, at test scale they would swamp the comparison
        let p100 = gpu_sim::DeviceSpec::p100();
        let t_mono = p100.net_of_launches(mono.insert_pairs(&pairs).unwrap().stats.sim_time, 1);
        let t_shard = p100.net_of_launches(sharded.insert_pairs(&pairs).unwrap().stats.sim_time, 5);
        assert!(
            t_shard < t_mono,
            "sharding should dodge CAS degradation: {t_shard:.3e} vs {t_mono:.3e}"
        );
    }

    #[test]
    fn transient_shard_launch_failures_retry_idempotently() {
        let dev = Arc::new(Device::with_words(0, 1 << 16));
        let cfg = Config::default()
            .with_fault(FaultPlan::default().with_seed(5).with_launch_fail(0.4));
        let m = ShardedHashMap::new(dev, 1024, 4, cfg).unwrap();
        let pairs: Vec<(u32, u32)> = (0..2000u32).map(|i| (i * 9 + 1, i)).collect();
        let o = m.insert_pairs(&pairs).unwrap();
        assert_eq!(o.new_slots, 2000, "retries must apply each pair once");
        assert_eq!(m.len(), 2000);
        let res = m
            .try_retrieve(&pairs.iter().map(|p| p.0).collect::<Vec<_>>())
            .unwrap()
            .values;
        assert!(res.iter().all(Option::is_some));
    }

    #[test]
    fn put_reports_launches_and_backoff_like_get_and_delete() {
        use crate::service::MapService;
        let pairs: Vec<(u32, u32)> = (0..2000u32).map(|i| (i * 9 + 1, i)).collect();
        let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
        // 2000 keys leave none of 4 shards empty: routing + 4 launches
        let mut m = map(4, 1024);
        assert_eq!(m.put_batch(&pairs).unwrap().report.launches, 5);
        assert_eq!(m.get_batch(&keys).unwrap().report.launches, 5);
        assert_eq!(m.delete_batch(&keys).unwrap().report.launches, 5);
        // one key reaches one shard
        assert_eq!(m.put_batch(&pairs[..1]).unwrap().report.launches, 2);
        assert_eq!(m.get_batch(&keys[..1]).unwrap().report.launches, 2);
        assert_eq!(m.delete_batch(&keys[..1]).unwrap().report.launches, 2);

        let dev = Arc::new(Device::with_words(0, 1 << 16));
        let cfg = Config::default()
            .with_fault(FaultPlan::default().with_seed(5).with_launch_fail(0.4));
        let mut m = ShardedHashMap::new(dev, 1024, 4, cfg).unwrap();
        let report = m.put_batch(&pairs).unwrap().report;
        assert!(
            0.0 < report.backoff_time && report.backoff_time <= report.time,
            "seed 5 @ 0.4 rolls a failure, booked inside time: {report:?}"
        );
    }

    #[test]
    fn permanent_shard_failure_is_device_lost() {
        let dev = Arc::new(Device::with_words(0, 1 << 16));
        let cfg = Config::default().with_fault(FaultPlan::default().with_launch_fail(1.0));
        let m = ShardedHashMap::new(dev, 1024, 2, cfg).unwrap();
        let err = m.insert_pairs(&[(1, 10), (2, 20)]).unwrap_err();
        assert!(matches!(err, OpError::DeviceLost { .. }), "{err:?}");
    }

    #[test]
    fn empty_operations() {
        let m = map(3, 128);
        assert!(m.is_empty());
        assert!(m.insert_pairs(&[]).is_ok());
        let res = m.try_retrieve(&[]).unwrap().values;
        assert!(res.is_empty());
    }

    #[test]
    fn erase_scatters_hits_to_input_order() {
        let mut m = map(4, 1024);
        let pairs: Vec<(u32, u32)> = (0..1000u32).map(|i| (i * 3 + 1, i)).collect();
        m.insert_pairs(&pairs).unwrap();
        // interleave present and absent victims across shards
        let victims: Vec<u32> = (0..500u32)
            .flat_map(|i| [i * 3 + 1, i * 3 + 2])
            .collect();
        let out = m.try_erase(&victims).unwrap();
        assert_eq!(out.erased, 500);
        for (j, &k) in victims.iter().enumerate() {
            assert_eq!(out.hits[j], k % 3 == 1, "victim {k}");
        }
        assert_eq!(m.len(), 500);
        assert_eq!(m.get(4), None); // erased
        assert_eq!(m.get(500 * 3 + 1), Some(500)); // survivor
    }

    #[test]
    fn erase_under_transient_faults_retries_idempotently() {
        let dev = Arc::new(Device::with_words(0, 1 << 16));
        let cfg = Config::default()
            .with_fault(FaultPlan::default().with_seed(7).with_launch_fail(0.4));
        let mut m = ShardedHashMap::new(dev, 1024, 4, cfg).unwrap();
        let pairs: Vec<(u32, u32)> = (0..1500u32).map(|i| (i * 5 + 1, i)).collect();
        m.insert_pairs(&pairs).unwrap();
        let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
        let out = m.try_erase(&keys).unwrap();
        assert_eq!(out.erased, 1500);
        assert!(out.hits.iter().all(|&h| h));
        assert!(out.report.backoff_time > 0.0, "seed 7 @ 0.4 must roll at least one failure");
        assert!(m.is_empty());
    }

    #[test]
    fn permanent_failure_during_erase_is_typed_device_lost() {
        let dev = Arc::new(Device::with_words(0, 1 << 16));
        let cfg = Config::default().with_fault(FaultPlan::default().with_launch_fail(1.0));
        let mut m = ShardedHashMap::new(dev, 1024, 2, cfg).unwrap();
        let err = m.try_erase(&[1, 2, 3]).unwrap_err();
        assert!(matches!(err, OpError::DeviceLost { .. }), "{err:?}");
    }
}
