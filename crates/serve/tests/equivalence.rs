//! The wd-serve equivalence suite: coalesced serving is indistinguishable
//! from unbatched serving.
//!
//! The service's whole value proposition — batch aggressively for
//! throughput without changing a single answer — rests on the
//! [`warpdrive::MapService::execute`] coalescing contract (same-key
//! dependencies resolved on the host; one call, which the single-GPU map
//! runs as one launch of get, take, upsert, put and erase sections and the
//! node as one cascade round) plus the determinism of admission on the
//! host shadow model.
//! These properties drive the same seeded trace through `max_batch = 1`
//! (the sequential reference) and larger coalescing windows and demand
//! byte-identical responses *and* rejections, across backends,
//! schedules, and transient fault plans. Per-tenant Wing–Gong
//! linearizability is checked with the core history checker. Three
//! doubles must be caught within `WD_MUTATION_SEEDS`, and a fourth,
//! `Mutation::SplitTagsRunOffset` — a cascade multisplit that tags a key
//! with its offset inside the run of 256 instead of the GPU's chunk —
//! by flushes of more than 256 keys per GPU, and provably by no other:
//! `Mutation::ForwardStaleRead` — an `execute` that answers a get from
//! the pre-call read although the call wrote the key before it —,
//! `Mutation::UpsertReturnsNew` — a launch whose upsert groups answer
//! with the value they wrote instead of the one they replaced, hunted on
//! one GPU and on the node — and, on the 4-GPU node under a seeded
//! schedule, `Mutation::UpsertRunsAsGetAndPut` — a key a flush reads and
//! puts run as a get group and a put group of the one launch, which
//! race. A fifth, `Mutation::TakeTombstonesFirst` — a key a flush reads
//! and then deletes tombstoned before it is read — is hunted on one GPU
//! and on the node.

use gpu_sim::{Device, FaultPlan, Schedule};
use interconnect::Topology;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use warpdrive::{
    check_linearizable, Config, DistributedHashMap, GpuHashMap, MapService, Mutation, Op, Response,
};
use wd_serve::{generate, Completion, ServeConfig, ServeError, Server, TraceConfig};

/// Sweep-breadth multiplier (`WD_SWEEP_SCALE`, default 1) — mirrors
/// `wd_apps::sweep_scale`, re-read here because wd-serve sits below
/// wd-apps in the dependency graph. `PROPTEST_CASES` still overrides the
/// scaled default outright.
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

/// How a cell's backends interleave the groups of a launch: a schedule
/// made from the cell's seed, or `None` for what `Config::default()` says
/// — the racing pool, unless `WD_SCHED_MODE` pins the run.
type ScheduleOf = Option<fn(u64) -> Schedule>;

const SEQUENTIAL: ScheduleOf = Some(|_| Schedule::Sequential);
const SEEDED: ScheduleOf = Some(Schedule::Seeded);

/// The observable outcome of a trace: per-op responses and typed
/// rejections, stripped of timing (latency legitimately differs between
/// batch sizes — answers may not).
type Observable = (Vec<(u64, Response)>, Vec<(usize, &'static str)>);

fn observable(completions: &[Completion], rejects: &[(usize, ServeError)]) -> Observable {
    (
        completions.iter().map(|c| (c.seq, c.response)).collect(),
        rejects.iter().map(|(i, e)| (*i, e.reason())).collect(),
    )
}

fn assert_equivalent<A: MapService, B: MapService>(
    reference: &mut Server<A>,
    coalesced: &mut Server<B>,
    trace_cfg: &TraceConfig,
    seed: u64,
) {
    let trace = generate(trace_cfg, seed);
    let ref_run = reference.run_trace(&trace);
    let coal_run = coalesced.run_trace(&trace);
    assert_eq!(
        observable(&ref_run.completions, &ref_run.rejects),
        observable(&coal_run.completions, &coal_run.rejects),
        "coalesced serving diverged from sequential (seed {seed})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(scaled_cases(12)))]

    /// Single-GPU backend: any batch size serves the same answers as
    /// no batching at all, for arbitrary seeds and kernel schedules.
    #[test]
    fn coalesced_equals_sequential_single_gpu(
        seed in any::<u64>(),
        max_batch in proptest::sample::select(vec![2usize, 7, 16, 64]),
        seq_schedule in any::<bool>(),
    ) {
        let schedule = if seq_schedule { Schedule::Sequential } else { Schedule::Seeded(seed) };
        let cfg = Config::default().with_schedule(schedule);
        let serve = ServeConfig::default().with_max_delay(f64::INFINITY);
        let mut reference = Server::new(single_gpu(4096, cfg), serve.clone().with_max_batch(1));
        let mut coalesced = Server::new(single_gpu(4096, cfg), serve.with_max_batch(max_batch));
        let trace_cfg = TraceConfig { ops: 300, key_space: 512, ..TraceConfig::default() };
        assert_equivalent(&mut reference, &mut coalesced, &trace_cfg, seed);
    }

    /// The sharded table (partitions of one device) under a
    /// transient-fault plan: retried launches change timing, never answers.
    #[test]
    fn coalesced_equals_sequential_under_transient_faults(
        seed in 0u64..64,
        max_batch in proptest::sample::select(vec![4usize, 32]),
    ) {
        let cfg = Config::default()
            .with_fault(FaultPlan::default().with_launch_fail(0.2).with_seed(seed));
        let serve = ServeConfig::default().with_max_delay(f64::INFINITY);
        let mut reference = Server::new(sharded(cfg), serve.clone().with_max_batch(1));
        let mut coalesced = Server::new(sharded(cfg), serve.with_max_batch(max_batch));
        let trace_cfg = TraceConfig { ops: 200, key_space: 256, ..TraceConfig::default() };
        assert_equivalent(&mut reference, &mut coalesced, &trace_cfg, seed);
    }

    /// Admission rejections (quota + watermark) are part of the
    /// observable outcome and must also be batch-size-invariant — also
    /// when a finite `max_delay` cuts the batches at deadlines between
    /// arrivals (`serve_node4`'s 50 µs against a 20 µs mean gap, at which
    /// the server keeps up and its queue waits for the deadline).
    #[test]
    fn rejections_are_batch_size_invariant(
        seed in any::<u64>(),
        max_batch in proptest::sample::select(vec![3usize, 17]),
        max_delay in proptest::sample::select(vec![f64::INFINITY, 5e-5]),
    ) {
        let serve = ServeConfig::default()
            .with_max_delay(max_delay)
            .with_tenant_quota(40)
            .with_occupancy_watermark(0.35);
        let mut reference = Server::new(
            single_gpu(256, Config::default()), serve.clone().with_max_batch(1));
        let mut coalesced = Server::new(
            single_gpu(256, Config::default()), serve.with_max_batch(max_batch));
        // put-heavy so quota and watermark both bite
        let trace_cfg = TraceConfig {
            ops: 400, key_space: 200, put_per_mille: 800, delete_per_mille: 100, mean_gap: 2e-5,
            ..TraceConfig::default()
        };
        let trace = generate(&trace_cfg, seed);
        let ref_run = reference.run_trace(&trace);
        let coal_run = coalesced.run_trace(&trace);
        prop_assert!(!ref_run.rejects.is_empty(), "workload must trigger rejections");
        prop_assert_eq!(
            observable(&ref_run.completions, &ref_run.rejects),
            observable(&coal_run.completions, &coal_run.rejects)
        );
        let delay_flushes = coalesced.telemetry().delay_flushes;
        prop_assert_eq!(max_delay.is_infinite(), delay_flushes == 0, "{} delay flushes", delay_flushes);
    }

    /// Resize-on-watermark handoff: crossing the watermark grows the
    /// backend instead of shedding writes. The put-heavy trace is sized
    /// to cross 0.5 × 256 slots with certainty, so the run must record
    /// at least one grow, shed nothing on occupancy, stay byte-identical
    /// across batch sizes (admission is deterministic on the submission
    /// history, and the handoff is part of admission), and surface the
    /// resize counter in the metrics text.
    #[test]
    fn resize_handoff_keeps_equivalence_and_counts_resizes(
        seed in any::<u64>(),
        max_batch in proptest::sample::select(vec![2usize, 16, 64]),
    ) {
        let serve = ServeConfig::default()
            .with_max_delay(f64::INFINITY)
            .with_occupancy_watermark(0.5)
            .with_resize_on_watermark();
        let mut reference = Server::new(
            single_gpu(256, Config::default()), serve.clone().with_max_batch(1));
        let mut coalesced = Server::new(
            single_gpu(256, Config::default()), serve.with_max_batch(max_batch));
        let trace_cfg = TraceConfig {
            ops: 400, key_space: 300, put_per_mille: 800, delete_per_mille: 50,
            ..TraceConfig::default()
        };
        let trace = generate(&trace_cfg, seed);
        let ref_run = reference.run_trace(&trace);
        let coal_run = coalesced.run_trace(&trace);
        prop_assert_eq!(
            observable(&ref_run.completions, &ref_run.rejects),
            observable(&coal_run.completions, &coal_run.rejects)
        );
        prop_assert!(
            reference.telemetry().resizes >= 1,
            "trace must cross the watermark and hand off to a grow"
        );
        prop_assert_eq!(reference.telemetry().resizes, coalesced.telemetry().resizes);
        prop_assert!(
            ref_run.rejects.iter().all(|(_, e)| e.reason() != "saturated"),
            "handoff must absorb every watermark crossing"
        );
        prop_assert!(coalesced.backend().slot_capacity() >= 512);
        let wanted = format!("wd_serve_resizes_total {}", coalesced.telemetry().resizes);
        prop_assert!(coalesced.metrics_text().contains(&wanted));
    }

    /// Every tenant's completion history is Wing–Gong linearizable
    /// against the single-value map specification.
    #[test]
    fn per_tenant_histories_are_linearizable(
        seed in any::<u64>(),
        max_batch in proptest::sample::select(vec![1usize, 16, 128]),
    ) {
        let serve = ServeConfig::default().with_max_batch(max_batch);
        let mut srv = Server::new(single_gpu(4096, Config::default()), serve);
        let trace_cfg = TraceConfig {
            ops: 300, tenants: 3, key_space: 64, ..TraceConfig::default()
        };
        let run = srv.run_trace(&generate(&trace_cfg, seed));
        prop_assert!(run.rejects.is_empty());
        let mut by_tenant: BTreeMap<u8, Vec<_>> = BTreeMap::new();
        for c in &run.completions {
            by_tenant.entry(c.tenant).or_default().push(c.to_event());
        }
        prop_assert!(by_tenant.len() >= 2, "trace must exercise several tenants");
        for (tenant, events) in by_tenant {
            if let Err(v) = check_linearizable(&events) {
                return Err(TestCaseError::fail(format!(
                    "tenant {tenant} history not linearizable: {v:?}"
                )));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(scaled_cases(36)))]

    /// The multi-GPU cascade serves the same answers coalesced or not —
    /// a put/get flush is one mixed round, its one-op-a-call reference
    /// never is — under any schedule, batch size and fault plan (a
    /// quarantine changes where keys live, never what they hold), and
    /// its cost reports reach the service telemetry (stages present).
    #[test]
    fn coalesced_equals_sequential_multi_gpu(
        seed in any::<u64>(),
        schedule in proptest::sample::select(vec![SEQUENTIAL, SEEDED, None]),
        plan in proptest::sample::select(vec![
            FaultPlan::default(),
            FaultPlan::default().with_launch_fail(0.2),
            FaultPlan::default().with_transfer_drop(0.3),
            FaultPlan::default().with_kill(3),
        ]),
        max_batch in proptest::sample::select(vec![2usize, 48, 512]),
    ) {
        let cfg = Config::default().with_fault(plan.with_seed(seed));
        let cfg = schedule.map_or(cfg, |of| cfg.with_schedule(of(seed)));
        let serve = ServeConfig::default().with_max_delay(f64::INFINITY);
        let mut reference = Server::new(quad_node(cfg), serve.clone().with_max_batch(1));
        let mut coalesced = Server::new(quad_node(cfg), serve.with_max_batch(max_batch));
        // few keys, so that flushes read keys they also write
        let trace_cfg = TraceConfig { ops: 400, key_space: 256, ..TraceConfig::default() };
        assert_equivalent(&mut reference, &mut coalesced, &trace_cfg, seed);
        if plan.device_lost(3) {
            prop_assert_eq!(coalesced.backend().quarantined(), vec![3]);
        }
        if !plan.armed() {
            prop_assert!(
                !coalesced.telemetry().report.stages.is_empty(),
                "cascade stage timings must reach service telemetry"
            );
            prop_assert!(coalesced.telemetry().flushes < reference.telemetry().flushes);
        }
    }
}

/// Hunts one `Mutation` double of the front door with the coalesced ≡
/// sequential property: on backends made by `backend`, scheduled by
/// `hunt`, the coalesced run of the broken backend must answer
/// differently from the one-op-a-call reference within the seed budget
/// (`WD_MUTATION_SEEDS`, default `WD_SWEEP_SEEDS`, default 32), while the
/// shipped code stays equivalent on every hunted seed, under `hunt` and
/// every schedule of `also_clean`.
fn mutant_is_caught_by_equivalence<S: MapService>(
    mutation: Mutation,
    name: &str,
    backend: impl Fn(Config) -> S,
    hunt: ScheduleOf,
    also_clean: &[ScheduleOf],
) {
    let env = |name: &str| {
        std::env::var(name)
            .ok()
            .and_then(|v| v.trim().parse::<u32>().ok())
    };
    let budget = scaled_cases(
        env("WD_MUTATION_SEEDS")
            .or(env("WD_SWEEP_SEEDS"))
            .unwrap_or(32),
    );
    let trace_cfg = TraceConfig {
        ops: 300,
        key_space: 64,
        ..TraceConfig::default()
    };
    let run = |seed: u64, max_batch: usize, schedule: ScheduleOf, broken: bool| -> Observable {
        let mut cfg = Config::default();
        if let Some(of) = schedule {
            cfg = cfg.with_schedule(of(seed));
        }
        if broken {
            cfg = cfg.with_mutation(mutation);
        }
        let serve = ServeConfig::default()
            .with_max_delay(f64::INFINITY)
            .with_max_batch(max_batch);
        let run = Server::new(backend(cfg), serve).run_trace(&generate(&trace_cfg, seed));
        observable(&run.completions, &run.rejects)
    };
    let mut caught = None;
    for seed in 0..u64::from(budget) {
        let want = run(seed, 1, hunt, false);
        for &schedule in std::iter::once(&hunt).chain(also_clean) {
            assert_eq!(
                run(seed, 64, schedule, false),
                want,
                "false positive: the shipped code diverged at seed {seed} under {:?}",
                schedule.map(|of| of(seed))
            );
        }
        if caught.is_none() && run(seed, 64, hunt, true) != want {
            caught = Some(seed);
        }
    }
    let seed = caught
        .unwrap_or_else(|| panic!("{name} mutant survived {budget} seeds — suite has no teeth"));
    println!("{name} mutant caught by coalesced ≡ sequential at seed {seed}");
}

/// Mutation double: `execute` without store-to-load forwarding. A get
/// that follows a put of its key inside one flush reads the pre-call
/// state.
#[test]
fn broken_forward_stale_read_is_caught_by_equivalence() {
    let backend = |cfg| single_gpu(4096, cfg);
    mutant_is_caught_by_equivalence(Mutation::ForwardStaleRead, "stale-read", backend, None, &[]);
}

/// Mutation double: an upsert group of the one launch that answers with
/// the value it wrote. A get followed by a put of its key inside one
/// flush — one table visit — reads the put, on one GPU and on a node's
/// target alike.
#[test]
fn broken_upsert_returns_new_is_caught_by_equivalence() {
    let (mutation, name) = (Mutation::UpsertReturnsNew, "upsert-returns-new");
    let backend = |cfg| single_gpu(4096, cfg);
    mutant_is_caught_by_equivalence(mutation, name, backend, None, &[]);
    mutant_is_caught_by_equivalence(mutation, name, quad_node, SEEDED, &[SEQUENTIAL]);
}

/// Mutation double: a key a flush reads and puts runs as a get group and
/// a put group of the one launch, not one upsert group. In `group_id`
/// order — and in the pool, which runs launches this small in that order
/// — the gets come first and nothing shows; a seeded interleaving lets
/// the put overtake its key's get.
#[test]
fn broken_upsert_runs_as_get_and_put_is_caught_by_equivalence() {
    mutant_is_caught_by_equivalence(
        Mutation::UpsertRunsAsGetAndPut,
        "upsert-runs-as-get-and-put",
        quad_node,
        SEEDED,
        &[SEQUENTIAL, None],
    );
}

/// Mutation double: a key a flush both reads and deletes is tombstoned
/// before it is read — its take group erases first, on one GPU and on a
/// node's target alike — so the get misses.
#[test]
fn broken_take_tombstones_first_is_caught_by_equivalence() {
    let (mutation, name) = (Mutation::TakeTombstonesFirst, "take-tombstones-first");
    let backend = |cfg| single_gpu(4096, cfg);
    mutant_is_caught_by_equivalence(mutation, name, backend, None, &[]);
    mutant_is_caught_by_equivalence(mutation, name, quad_node, SEEDED, &[SEQUENTIAL]);
}

/// Mutation double: the cascade's multisplit tags a key with its offset
/// inside its group's run of 256, not its position in the GPU's chunk.
/// The first run's offsets *are* the positions, so the double is
/// invisible — provably: same words, same answers — to every flush that
/// asks each GPU for at most 256 keys, which at four GPUs is any flush of
/// up to 1 024 ops and every other case of this suite. A flush of 4 096
/// reads and deletes some 500 keys per GPU: past the 256th an answer
/// lands in another key's place, and the suite must say so.
#[test]
fn broken_split_tags_run_offset_is_caught_past_256_keys_per_gpu() {
    let trace_cfg = TraceConfig {
        ops: 2 * 4096,
        key_space: 2048,
        put_per_mille: 300,
        delete_per_mille: 50,
        ..TraceConfig::default()
    };
    for seed in 0..2 {
        let run = |max_batch: usize, broken: bool| -> Observable {
            let mut cfg = Config::default().with_schedule(Schedule::Sequential);
            if broken {
                cfg = cfg.with_mutation(Mutation::SplitTagsRunOffset);
            }
            let serve = ServeConfig::default()
                .with_max_delay(f64::INFINITY)
                .with_queue_cap(2 * max_batch)
                .with_max_batch(max_batch);
            let run = Server::new(quad_node(cfg), serve).run_trace(&generate(&trace_cfg, seed));
            observable(&run.completions, &run.rejects)
        };
        let want = run(1, false);
        assert_eq!(run(4096, false), want, "false positive at seed {seed}");
        // at most 1 024 distinct keys a call is at most 256 a GPU
        assert_eq!(run(1024, true), want, "no key past a GPU's first run");
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(4096, true))) {
            Ok(broken) => assert_ne!(broken, want, "the double survived seed {seed}"),
            // under `WD_SANITIZE` racecheck stops it first: two of its
            // query words name one position, so two warps of the result
            // scatter store the same half of a value word
            Err(panic) => {
                let msg = panic.downcast_ref::<String>().map_or("", String::as_str);
                assert!(msg.contains("[racecheck] kernel=`warpdrive_round`"), "{msg}");
            }
        }
    }
}

/// Transient faults surface in telemetry (backoff time, retries) while
/// answers stay correct — the degradation is graceful and observable.
#[test]
fn transient_faults_show_up_in_telemetry_not_answers() {
    use warpdrive::chaos::launch_site::MULTISPLIT;
    // a fault plan is a stateless function of its seed: take the first
    // under which a partition's first split launch fails. A flush of four
    // or more keys splits on every partition, so the trace must retry
    let plan = (0..1000)
        .map(|seed| FaultPlan::default().with_launch_fail(0.3).with_seed(seed))
        .find(|plan| (0..4).any(|p| plan.launch_fails(p, MULTISPLIT, 0)))
        .expect("one seed in 1 000 fails a first split launch");
    let cfg = Config::default().with_fault(plan);
    let mut srv = Server::new(sharded(cfg), ServeConfig::default().with_max_batch(32));
    let healthy = Server::new(
        sharded(Config::default()),
        ServeConfig::default().with_max_batch(32),
    );
    let trace_cfg = TraceConfig {
        ops: 300,
        key_space: 256,
        ..TraceConfig::default()
    };
    let trace = generate(&trace_cfg, 4);
    let run = srv.run_trace(&trace);
    assert!(run.rejects.is_empty());
    let mut healthy_srv = healthy;
    let healthy_run = healthy_srv.run_trace(&trace);
    assert_eq!(
        observable(&run.completions, &run.rejects).0,
        observable(&healthy_run.completions, &healthy_run.rejects).0,
        "faulted answers must match healthy answers"
    );
    let t = srv.telemetry();
    assert!(
        t.report.backoff_time > 0.0,
        "retried launches must bill backoff"
    );
    assert!(t.report.time > healthy_srv.telemetry().report.time);
    assert!(srv.metrics_text().contains("wd_serve_backoff_seconds_total"));
}

/// Backpressure end to end: a saturating put storm gets typed
/// `Saturated` rejections, reads keep flowing, deletes free space, and
/// the freed space admits new puts.
#[test]
fn backpressure_is_typed_and_recovers() {
    let serve = ServeConfig::default()
        .with_max_batch(8)
        .with_occupancy_watermark(0.25);
    let mut srv = Server::new(single_gpu(256, Config::default()), serve);
    let mut saturated = 0;
    for i in 0..128u32 {
        match srv.submit_at(0, Op::Put { key: i, value: i }, 0.0).outcome {
            Ok(_) => {}
            Err(ServeError::Saturated { projected, watermark }) => {
                assert!(projected > watermark);
                saturated += 1;
            }
            Err(e) => panic!("unexpected rejection: {e}"),
        }
    }
    assert_eq!(saturated, 64, "0.25 × 256 slots admits 64 new keys");
    assert!(srv.submit_at(0, Op::Get { key: 0 }, 0.0).outcome.is_ok());
    for i in 0..8u32 {
        assert!(srv.submit_at(0, Op::Delete { key: i }, 0.0).outcome.is_ok());
    }
    for i in 200..208u32 {
        assert!(
            srv.submit_at(0, Op::Put { key: i, value: 0 }, 0.0).outcome.is_ok(),
            "deletes must free admission budget"
        );
    }
    let m = srv.metrics_text();
    assert!(m.contains("wd_serve_tenant_rejects_total{tenant=\"0\",reason=\"saturated\"} 64"));
}

/// The acceptance scenario: one run, one multi-GPU backend, two tenants
/// with distinct workloads, full telemetry for both.
#[test]
fn telemetry_covers_two_tenants_in_one_run() {
    let mut srv = Server::new(
        quad_node(Config::default()),
        ServeConfig::default().with_max_batch(64),
    );
    let trace_cfg = TraceConfig {
        ops: 600,
        tenants: 2,
        key_space: 1024,
        ..TraceConfig::default()
    };
    let run = srv.run_trace(&generate(&trace_cfg, 77));
    assert!(run.rejects.is_empty());
    for tenant in [0u8, 1] {
        let st = srv.tenant(tenant).expect("tenant must have state");
        assert!(st.counters.completed > 0);
        assert!(st.latency.p50() > 0.0);
        assert!(st.latency.p99() >= st.latency.p50());
        let m = srv.metrics_text();
        assert!(m.contains(&format!(
            "wd_serve_tenant_latency_seconds{{tenant=\"{tenant}\",quantile=\"0.99\"}}"
        )));
        assert!(m.contains(&format!("wd_serve_tenant_live_keys{{tenant=\"{tenant}\"}}")));
    }
    assert!(srv.telemetry().latency.p99() >= srv.telemetry().latency.p50());
    assert!(srv.backend().occupancy() > 0.0);
}
