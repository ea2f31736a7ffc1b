//! Cache-tier equivalence suite: a [`wd_serve::Server`] over a
//! [`warpdrive::CachedMap`] is response-identical to the same server
//! over the bare backend.
//!
//! The cache's value proposition — absorb hot reads on the host without
//! changing a single answer — rests on the write-through invalidation
//! contract of `crates/core/src/cache.rs` (see its module docs for the
//! coherence argument). This suite drives the same seeded traces through
//! cached and uncached servers and demands identical responses *and*
//! rejections across seeds × schedules × batch sizes × fault plans,
//! including a mid-trace incremental resize and a kill-plan
//! quarantine-and-migrate. Only modeled latency may differ (absorbed
//! gets skip the kernel launch — that is the point).

use gpu_sim::{Device, FaultPlan, Schedule};
use interconnect::Topology;
use proptest::prelude::*;
use std::sync::Arc;
use warpdrive::{
    lower_mixed, CachePolicy, CachedMap, Config, DistributedHashMap, GpuHashMap, MapService,
    Response,
};
use wd_serve::{generate, Completion, ServeConfig, ServeError, Server, TraceConfig};
use workloads::{Ycsb, YcsbMix};

/// Sweep-breadth multiplier (`WD_SWEEP_SCALE`, default 1) — mirrors the
/// main equivalence suite.
fn scaled_cases(baseline: u32) -> u32 {
    let scale = std::env::var("WD_SWEEP_SCALE")
        .ok()
        .and_then(|v| v.trim().parse::<u32>().ok())
        .filter(|&s| s > 0)
        .unwrap_or(1);
    baseline.saturating_mul(scale)
}

fn single_gpu(capacity: usize, cfg: Config) -> GpuHashMap {
    let dev = Arc::new(Device::with_words(0, capacity * 8 + (1 << 13)));
    GpuHashMap::new(dev, capacity, cfg).unwrap()
}

/// §VI's sharded table: a node of four partitions on one device.
fn sharded(cfg: Config) -> DistributedHashMap {
    let dev = Arc::new(Device::with_words(0, 1 << 16));
    let topo = Topology::one_device(4, dev.spec());
    DistributedHashMap::new(vec![dev; 4], 1024, cfg, topo).unwrap()
}

fn quad_node(cfg: Config) -> DistributedHashMap {
    let devices: Vec<Arc<Device>> = (0..4)
        .map(|i| Arc::new(Device::with_words(i, 1 << 16)))
        .collect();
    DistributedHashMap::new(devices, 2048, cfg, Topology::p100_quad(4)).unwrap()
}

/// The observable outcome: per-op responses and typed rejections,
/// stripped of timing.
type Observable = (Vec<(u64, Response)>, Vec<(usize, &'static str)>);

fn observable(completions: &[Completion], rejects: &[(usize, ServeError)]) -> Observable {
    (
        completions.iter().map(|c| (c.seq, c.response)).collect(),
        rejects.iter().map(|(i, e)| (*i, e.reason())).collect(),
    )
}

fn assert_cached_equivalent<A: MapService, B: MapService>(
    uncached: &mut Server<A>,
    cached: &mut Server<CachedMap<B>>,
    trace_cfg: &TraceConfig,
    seed: u64,
) {
    let trace = generate(trace_cfg, seed);
    let plain = uncached.run_trace(&trace);
    let shadowed = cached.run_trace(&trace);
    assert_eq!(
        observable(&plain.completions, &plain.rejects),
        observable(&shadowed.completions, &shadowed.rejects),
        "cached serving diverged from uncached (seed {seed}, policy {})",
        cached.backend().policy().label()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(scaled_cases(12)))]

    /// Single-GPU backend: any cache capacity and either replacement
    /// policy serves the same answers as no cache at all, for arbitrary
    /// seeds, kernel schedules, and coalescing windows.
    #[test]
    fn cached_equals_uncached_single_gpu(
        seed in any::<u64>(),
        max_batch in proptest::sample::select(vec![1usize, 7, 32]),
        capacity in proptest::sample::select(vec![0usize, 1, 16, 4096]),
        lfu in any::<bool>(),
        seq_schedule in any::<bool>(),
    ) {
        let schedule = if seq_schedule { Schedule::Sequential } else { Schedule::Seeded(seed) };
        let cfg = Config::default().with_schedule(schedule);
        let policy = if lfu { CachePolicy::Lfu } else { CachePolicy::Lru };
        let serve = ServeConfig::default()
            .with_max_delay(f64::INFINITY)
            .with_max_batch(max_batch);
        let mut uncached = Server::new(single_gpu(4096, cfg), serve.clone());
        let mut cached = Server::cached(single_gpu(4096, cfg), capacity, policy, serve);
        // small key space → hot repeats, deletes of cached keys, put-over-cached
        let trace_cfg = TraceConfig { ops: 300, key_space: 64, ..TraceConfig::default() };
        assert_cached_equivalent(&mut uncached, &mut cached, &trace_cfg, seed);
    }

    /// The sharded table (partitions of one device) under a
    /// transient-fault plan: retried launches never change answers, cached
    /// or not — and the error-path invalidation in the cache must not
    /// either.
    #[test]
    fn cached_equals_uncached_under_transient_faults(
        seed in 0u64..64,
        lfu in any::<bool>(),
    ) {
        let cfg = Config::default()
            .with_fault(FaultPlan::default().with_launch_fail(0.2).with_seed(seed));
        let policy = if lfu { CachePolicy::Lfu } else { CachePolicy::Lru };
        let serve = ServeConfig::default().with_max_delay(f64::INFINITY).with_max_batch(16);
        let mut uncached = Server::new(sharded(cfg), serve.clone());
        let mut cached = Server::cached(sharded(cfg), 64, policy, serve);
        let trace_cfg = TraceConfig { ops: 200, key_space: 96, ..TraceConfig::default() };
        assert_cached_equivalent(&mut uncached, &mut cached, &trace_cfg, seed);
    }

    /// Mid-trace incremental resize: the watermark handoff grows the
    /// backend while cached entries stay live; migration preserves the
    /// key→value map, so the shadow stays coherent throughout.
    #[test]
    fn cached_equals_uncached_across_a_mid_trace_resize(
        seed in any::<u64>(),
        lfu in any::<bool>(),
    ) {
        let policy = if lfu { CachePolicy::Lfu } else { CachePolicy::Lru };
        let serve = ServeConfig::default()
            .with_max_delay(f64::INFINITY)
            .with_max_batch(16)
            .with_occupancy_watermark(0.5)
            .with_resize_on_watermark();
        let mut uncached = Server::new(single_gpu(256, Config::default()), serve.clone());
        let mut cached = Server::cached(single_gpu(256, Config::default()), 64, policy, serve);
        // put-heavy and wide enough to cross 0.5 × 256 with certainty,
        // with enough gets to keep the cache populated across the grow
        let trace_cfg = TraceConfig {
            ops: 400, key_space: 300, put_per_mille: 600, delete_per_mille: 50,
            ..TraceConfig::default()
        };
        let trace = generate(&trace_cfg, seed);
        let plain = uncached.run_trace(&trace);
        let shadowed = cached.run_trace(&trace);
        prop_assert_eq!(
            observable(&plain.completions, &plain.rejects),
            observable(&shadowed.completions, &shadowed.rejects)
        );
        prop_assert!(
            cached.telemetry().resizes >= 1,
            "trace must cross the watermark mid-run"
        );
        prop_assert_eq!(uncached.telemetry().resizes, cached.telemetry().resizes);
        prop_assert!(cached.backend().slot_capacity() >= 512);
    }
}

/// Quarantine-and-migrate traffic: a GPU dies mid-trace, its partition
/// re-homes onto the survivors, and the cached server still answers
/// exactly like the uncached one — migration preserves the key→value
/// map, so no shadow entry goes stale.
#[test]
fn cached_equals_uncached_across_quarantine_migration() {
    let serve = ServeConfig::default()
        .with_max_delay(f64::INFINITY)
        .with_max_batch(32);
    let mut uncached = Server::new(quad_node(Config::default()), serve.clone());
    let mut cached = Server::cached(quad_node(Config::default()), 128, CachePolicy::Lru, serve);
    let trace_cfg = TraceConfig {
        ops: 600,
        key_space: 512,
        ..TraceConfig::default()
    };
    let trace = generate(&trace_cfg, 0xcafe);
    let (first, second) = trace.split_at(300);

    let plain_a = uncached.run_trace(first);
    let shadowed_a = cached.run_trace(first);
    assert_eq!(
        observable(&plain_a.completions, &plain_a.rejects),
        observable(&shadowed_a.completions, &shadowed_a.rejects),
        "pre-kill halves diverged"
    );

    // GPU 2 dies between the halves; both servers see the same failure
    uncached
        .backend()
        .set_fault_plan(FaultPlan::default().with_kill(2));
    cached
        .backend()
        .backend()
        .set_fault_plan(FaultPlan::default().with_kill(2));

    let plain_b = uncached.run_trace(second);
    let shadowed_b = cached.run_trace(second);
    assert_eq!(
        observable(&plain_b.completions, &plain_b.rejects),
        observable(&shadowed_b.completions, &shadowed_b.rejects),
        "post-kill halves diverged"
    );
    assert_eq!(
        cached.backend().degraded().quarantined,
        1,
        "the kill plan must actually quarantine a GPU"
    );
    assert!(
        cached.backend().degraded().migrated_keys > 0,
        "the dead GPU held a partition before dying"
    );
    assert!(
        cached.cache_stats().hits > 0,
        "the 512-key space must produce repeat gets"
    );
}

/// Hit rate rises with workload skew: the same cache under YCSB-C
/// traffic at increasing Zipf exponents absorbs an increasing share of
/// gets, under both replacement policies.
#[test]
fn hit_rate_rises_with_zipf_skew() {
    for policy in [CachePolicy::Lru, CachePolicy::Lfu] {
        let mut last_rate = -1.0;
        for s in [0.5, 1.1, 1.8] {
            let gen = Ycsb::new(YcsbMix::C, s, 1 << 14, 99);
            // load the head of the key universe so reads actually hit
            let pairs: Vec<(u32, u32)> = (1..=4096u64)
                .map(|r| (gen.keys().key_for_rank_at(0, r), r as u32))
                .collect();
            let mut cache = CachedMap::new(single_gpu(1 << 13, Config::default()), 256, policy);
            cache.put_batch(&pairs).unwrap();
            let ops = lower_mixed(&gen.ops(4_000));
            // serving-shaped batches: admission happens between flushes,
            // so later batches can hit what earlier ones admitted
            for chunk in ops.chunks(64) {
                cache.execute(chunk).unwrap();
            }
            let rate = cache.stats().hit_rate();
            assert!(
                rate > last_rate,
                "{}: hit rate {rate} did not rise at s = {s} (previous {last_rate})",
                policy.label()
            );
            last_rate = rate;
        }
        assert!(
            last_rate > 0.5,
            "{}: s = 1.8 should be cache-friendly, got {last_rate}",
            policy.label()
        );
    }
}
