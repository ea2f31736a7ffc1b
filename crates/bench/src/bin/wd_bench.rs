//! `wd-bench` — the host-performance runner behind `BENCH_perf.json`.
//!
//! Executes the paper's single-GPU insert/retrieve protocol (the Fig. 7
//! grid, with a Fig. 8 Zipf point riding along) on one reusable fixture
//! and reports *both* clocks per point: host wall-time (what this
//! machine actually spent — the perf-gate signal) and modeled device
//! rates with full counter snapshots (which must stay bit-identical
//! across host-side optimizations). A table-build-free host microbench
//! isolates raw kernel throughput from allocation effects.
//!
//! Usage:
//!   wd-bench [--quick] [--n <count>] [--seed <seed>] [--out <path>]
//!   wd-bench --validate <report.json>
//!   wd-bench --compare <new.json> <baseline.json>
//!
//! `--validate` checks a report against the `wd-bench-perf/v5` schema
//! (exit 1 on violation). `--compare` prints host-rate deltas between two
//! reports and always exits 0 — wall-clock on shared CI runners is noisy,
//! so the delta is advisory, never a gate.

use std::time::Instant;
use wd_bench::perf::{host_rate_deltas, parse, validate_perf, Json, PERF_SCHEMA};
use wd_bench::{SingleGpuBench, PAPER_N_SINGLE};
use workloads::Distribution;

/// Fig. 7 load-factor axis.
const LOADS_FULL: [f64; 9] = [0.40, 0.50, 0.60, 0.70, 0.80, 0.85, 0.90, 0.95, 0.97];
/// Group sizes of the full grid.
const GROUPS_FULL: [u32; 6] = [1, 2, 4, 8, 16, 32];
/// Reduced grid for `--quick` (CI smoke).
const LOADS_QUICK: [f64; 3] = [0.50, 0.80, 0.95];
/// Group sizes for `--quick`.
const GROUPS_QUICK: [u32; 3] = [1, 4, 16];

fn counters_json(c: &gpu_sim::CounterSnapshot) -> Json {
    Json::obj(vec![
        ("transactions", Json::Num(c.transactions as f64)),
        ("stream_bytes", Json::Num(c.stream_bytes as f64)),
        ("cas_ops", Json::Num(c.cas_ops as f64)),
        ("cas_failed", Json::Num(c.cas_failed as f64)),
        ("atomic_ops", Json::Num(c.atomic_ops as f64)),
        ("cold_atomics", Json::Num(c.cold_atomics as f64)),
        ("group_steps", Json::Num(c.group_steps as f64)),
        ("groups", Json::Num(c.groups as f64)),
    ])
}

/// The serving scenario: a seeded two-tenant trace through a
/// [`wd_serve::Server`] over a 4-GPU node, reporting modeled tail
/// latency and throughput next to the host wall time of the whole run.
fn serve_scenario(quick: bool, seed: u64) -> Json {
    use interconnect::Topology;
    use std::sync::Arc;
    use warpdrive::{Config, DistributedHashMap, MapService};
    use wd_serve::{generate, ServeConfig, Server, TraceConfig};

    let ops = if quick { 8_192 } else { 32_768 };
    let wall = Instant::now();
    let devices: Vec<Arc<gpu_sim::Device>> = (0..4)
        .map(|i| Arc::new(gpu_sim::Device::with_words(i, 1 << 18)))
        .collect();
    let node = DistributedHashMap::new(devices, 1 << 14, Config::default(), Topology::p100_quad(4))
        .expect("serve node");
    let mut srv = Server::new(
        node,
        ServeConfig::default()
            .with_max_batch(512)
            .with_max_delay(5e-5)
            .with_tenant_quota(1 << 13),
    );
    let trace = generate(
        &TraceConfig {
            ops,
            tenants: 2,
            key_space: 1 << 13,
            put_per_mille: 500,
            delete_per_mille: 100,
            mean_gap: 2e-7,
        },
        seed,
    );
    let run = srv.run_trace(&trace);
    let host_wall_s = wall.elapsed().as_secs_f64();

    let t = srv.telemetry();
    Json::obj(vec![
        ("ops", Json::Num(run.completions.len() as f64)),
        ("tenants", Json::Num(2.0)),
        ("flushes", Json::Num(t.flushes as f64)),
        ("mean_batch", Json::Num(t.mean_batch())),
        ("p50_latency_s", Json::Num(t.latency.p50())),
        ("p99_latency_s", Json::Num(t.latency.p99())),
        (
            "throughput_ops_s",
            Json::Num(if t.report.time > 0.0 {
                t.flushed_ops as f64 / t.report.time
            } else {
                0.0
            }),
        ),
        ("occupancy", Json::Num(srv.backend().occupancy())),
        ("rejects", Json::Num(run.rejects.len() as f64)),
        ("host_wall_s", Json::Num(host_wall_s)),
    ])
}

/// The dynamic-tables scenario: steady-state modeled throughput of a
/// table that *grew itself* through its load-factor watermark versus a
/// table born at the final capacity, both holding the same live keys.
/// The modeled clocks are deterministic, so the comparison is a hard
/// gate (unlike the host wall-clock deltas): once migration finalizes,
/// a grown table must serve inserts and retrieves as fast as one that
/// never resized — any steady-state tax from the dynamic machinery
/// fails the run.
fn resize_scenario(quick: bool, seed: u64) -> Json {
    use std::sync::Arc;
    use wd_bench::scaled_rate;
    use warpdrive::{Config, GpuHashMap, ResizePolicy};

    let start_capacity: usize = if quick { 1 << 12 } else { 1 << 14 };
    // 7/8 of the start capacity crosses the default 0.85 watermark
    let live = start_capacity * 7 / 8;
    let batch = if quick { 512 } else { 2048 };

    // one unique pool, split into the resident set and the fresh
    // steady-state insert batch (unique ⇒ no in-batch key races)
    let pairs = Distribution::Unique.generate(live + batch, seed);
    let (resident, fresh) = pairs.split_at(live);
    let query_keys: Vec<u32> = resident.iter().take(batch).map(|p| p.0).collect();

    let device = |id: usize, capacity: usize| {
        Arc::new(gpu_sim::Device::with_words(id, 8 * capacity + (1 << 14)))
    };

    let wall = Instant::now();
    // managed path: starts small, the watermark fires mid-fill, chunked
    // migration interleaves with the remaining waves, finalize completes
    let mut managed = GpuHashMap::new(device(0, start_capacity), start_capacity, Config::default())
        .expect("managed table");
    managed.set_resize_policy(Some(ResizePolicy::default()));
    for wave in resident.chunks(512) {
        let out = managed.insert_pairs(wave).expect("managed fill");
        assert_eq!(out.failed, 0, "managed fill must not exhaust probing");
    }
    managed.finish_resize().expect("finalize grow");
    let final_capacity = managed.capacity();
    assert!(
        final_capacity > start_capacity,
        "watermark never fired at {live}/{start_capacity}"
    );

    // fixed path: born at the managed table's final capacity with the
    // same live keys — the equal-live-load control
    let fixed = GpuHashMap::new(device(1, final_capacity), final_capacity, Config::default())
        .expect("fixed table");
    for wave in resident.chunks(512) {
        let out = fixed.insert_pairs(wave).expect("fixed fill");
        assert_eq!(out.failed, 0, "fixed fill must not exhaust probing");
    }

    let steady = |map: &GpuHashMap| -> (f64, f64) {
        let ret = map.try_retrieve(&query_keys).expect("steady retrieve");
        let ins = map.insert_pairs(fresh).expect("steady insert");
        (
            scaled_rate(ins.stats.sim_time, batch, PAPER_N_SINGLE),
            scaled_rate(ret.report.time, batch, PAPER_N_SINGLE),
        )
    };
    let (managed_ins, managed_ret) = steady(&managed);
    let (fixed_ins, fixed_ret) = steady(&fixed);
    let host_wall_s = wall.elapsed().as_secs_f64();

    let insert_ratio = managed_ins / fixed_ins.max(1e-12);
    let retrieve_ratio = managed_ret / fixed_ret.max(1e-12);
    assert!(
        insert_ratio >= 0.9,
        "steady-state insert regressed after grow: {insert_ratio:.3}x of fixed-capacity"
    );
    assert!(
        retrieve_ratio >= 0.9,
        "steady-state retrieve regressed after grow: {retrieve_ratio:.3}x of fixed-capacity"
    );

    Json::obj(vec![
        ("capacity_before", Json::Num(start_capacity as f64)),
        ("capacity_after", Json::Num(final_capacity as f64)),
        ("live_keys", Json::Num(live as f64)),
        ("steady_batch", Json::Num(batch as f64)),
        ("managed_insert_modeled_ops_s", Json::Num(managed_ins)),
        ("managed_retrieve_modeled_ops_s", Json::Num(managed_ret)),
        ("fixed_insert_modeled_ops_s", Json::Num(fixed_ins)),
        ("fixed_retrieve_modeled_ops_s", Json::Num(fixed_ret)),
        ("insert_ratio", Json::Num(insert_ratio)),
        ("retrieve_ratio", Json::Num(retrieve_ratio)),
        ("host_wall_s", Json::Num(host_wall_s)),
    ])
}

/// The YCSB scenario: the four standard mixed workloads (A 50/50
/// read-update, B 95/5, C read-only, F read-modify-write) lowered onto a
/// single-GPU map through `lower_mixed` + `MapService::execute` in
/// 128-op calls, each over the same Zipf-1.1 key popularity. Reports
/// modeled ops/s per mix — deterministic, so mix-relative ordering (every
/// call is one launch, the reads and puts of a mixed one fused, so A, B
/// and C run at the launch rate and F, which lowers each
/// read-modify-write to two ops of one upsert group, at two thirds of
/// it per generated op) is a stable signal — with the host wall time of
/// the whole block riding along.
fn ycsb_scenario(quick: bool, seed: u64) -> Json {
    use std::sync::Arc;
    use warpdrive::{lower_mixed, Config, GpuHashMap, MapService};
    use workloads::{Ycsb, YcsbMix};

    let records: u64 = if quick { 1 << 12 } else { 1 << 14 };
    let ops = if quick { 4_096 } else { 16_384 };
    let zipf_s = 1.1;

    let wall = Instant::now();
    let mut rates = Vec::new();
    for mix in YcsbMix::ALL {
        // fresh table per mix, sized for a comfortable load factor
        let capacity = (records as usize) * 2;
        let dev = Arc::new(gpu_sim::Device::with_words(0, capacity * 8 + (1 << 14)));
        let mut map = GpuHashMap::new(dev, capacity, Config::default()).expect("ycsb table");
        let gen = Ycsb::new(mix, zipf_s, records, seed);
        // load the full record universe so every read resolves
        let pairs: Vec<(u32, u32)> = (1..=records)
            .map(|r| (gen.keys().key_for_rank_at(0, r), r as u32))
            .collect();
        map.put_batch(&pairs).expect("ycsb load");
        let lowered = lower_mixed(&gen.ops(ops));
        // a stream, not one batch: 128-op calls, as the repo benchmark's
        // `ycsb_a_1gpu` sends them
        let mut modeled_s = 0.0;
        for call in lowered.chunks(128) {
            let (responses, report) = map.execute(call).expect("ycsb run");
            assert_eq!(responses.len(), call.len());
            modeled_s += report.time;
        }
        rates.push((mix, ops as f64 / modeled_s.max(1e-12)));
    }
    let host_wall_s = wall.elapsed().as_secs_f64();

    let mut fields = vec![
        ("ops", Json::Num(ops as f64)),
        ("records", Json::Num(records as f64)),
        ("zipf_s", Json::Num(zipf_s)),
    ];
    for (mix, rate) in &rates {
        let key: &'static str = match mix.label() {
            "a" => "a_modeled_ops_s",
            "b" => "b_modeled_ops_s",
            "c" => "c_modeled_ops_s",
            _ => "f_modeled_ops_s",
        };
        fields.push((key, Json::Num(*rate)));
    }
    fields.push(("host_wall_s", Json::Num(host_wall_s)));
    Json::obj(fields)
}

/// The cache scenario: a hot-key [`warpdrive::CachedMap`] versus an
/// uncached twin under YCSB-C traffic, swept across Zipf exponents
/// (stationary, `drift_period` = 0) and hot-set drift periods (fixed
/// skew). Ops flow in serving-shaped 64-op chunks — admission happens
/// between flushes, so later chunks can hit what earlier ones admitted.
/// Hit rate must rise with skew (hard gate: the modeled numbers are
/// deterministic); modeled speedup comes from absorbed gets skipping
/// kernel launches.
fn cache_scenario(quick: bool, seed: u64) -> Json {
    use std::sync::Arc;
    use warpdrive::{lower_mixed, CachePolicy, CachedMap, Config, GpuHashMap, MapService};
    use workloads::{Ycsb, YcsbMix};

    let records: u64 = 1 << 10;
    let ops = if quick { 2_048 } else { 8_192 };
    let cache_entries: usize = 256;

    fn load<S: MapService>(map: &mut S, gen: &Ycsb, records: u64, epochs: u64) {
        for epoch in 0..=epochs {
            let pairs: Vec<(u32, u32)> = (1..=records)
                .map(|r| (gen.keys().key_for_rank_at(epoch, r), r as u32))
                .collect();
            map.put_batch(&pairs).expect("cache load");
        }
    }

    // every drift epoch brings a fresh `records`-key universe; size the
    // backend for all the epochs the longest sweep point can touch
    let single_gpu = || {
        let capacity = 1 << 15;
        let dev = Arc::new(gpu_sim::Device::with_words(0, capacity * 8 + (1 << 14)));
        GpuHashMap::new(dev, capacity, Config::default()).expect("cache backend")
    };

    let wall = Instant::now();
    let run_point = |zipf_s: f64, period: u64| -> Json {
        let gen = Ycsb::with_drift(YcsbMix::C, zipf_s, records, seed, period);
        let epochs = (ops as u64) / period.min(ops as u64);
        let mut cached = CachedMap::new(single_gpu(), cache_entries, CachePolicy::Lru);
        load(cached.backend_mut(), &gen, records, epochs);
        let mut uncached = single_gpu();
        load(&mut uncached, &gen, records, epochs);

        let lowered = lower_mixed(&gen.ops(ops));
        let mut cached_s = 0.0;
        let mut uncached_s = 0.0;
        for chunk in lowered.chunks(64) {
            cached_s += cached.execute(chunk).expect("cached run").1.time;
            uncached_s += uncached.execute(chunk).expect("uncached run").1.time;
        }
        let cached_rate = ops as f64 / cached_s.max(1e-12);
        let uncached_rate = ops as f64 / uncached_s.max(1e-12);
        Json::obj(vec![
            ("zipf_s", Json::Num(zipf_s)),
            // 0 = stationary (no drift)
            ("drift_period", Json::Num(if period == u64::MAX { 0.0 } else { period as f64 })),
            ("hit_rate", Json::Num(cached.stats().hit_rate())),
            ("cached_modeled_ops_s", Json::Num(cached_rate)),
            ("uncached_modeled_ops_s", Json::Num(uncached_rate)),
            ("speedup", Json::Num(cached_rate / uncached_rate.max(1e-12))),
        ])
    };

    let mut points = Vec::new();
    let mut last_rate = -1.0;
    for s in [0.5, 1.1, 1.5, 2.0] {
        let p = run_point(s, u64::MAX);
        let rate = p.get("hit_rate").and_then(Json::as_f64).expect("hit_rate");
        assert!(
            rate > last_rate,
            "hit rate must rise with skew: {rate} at s = {s} (previous {last_rate})"
        );
        last_rate = rate;
        points.push(p);
    }
    for period in [1_024u64, 4_096] {
        points.push(run_point(1.5, period));
    }
    let host_wall_s = wall.elapsed().as_secs_f64();

    Json::obj(vec![
        ("capacity", Json::Num(cache_entries as f64)),
        ("ops_per_point", Json::Num(ops as f64)),
        ("policy", Json::Str("lru".into())),
        ("points", Json::Arr(points)),
        ("host_wall_s", Json::Num(host_wall_s)),
    ])
}

/// The checker scenario: linearizability-check throughput (histories/s)
/// over synthetic recorded histories, serial vs parallel. Histories are
/// generated legal-by-construction with concurrency clusters per key, so
/// the Wing–Gong search takes its accepting (full-exploration) path —
/// the expensive case the parallel fan-out exists for. Both paths verify
/// every history accepts, so the numbers compare equal work.
fn checker_scenario(quick: bool, seed: u64) -> Json {
    use warpdrive::{check_linearizable, check_linearizable_serial, OpEvent, OpKind, OpResponse};

    let histories_n = if quick { 16 } else { 64 };
    let keys_per_history = 6u32;
    let ops_per_key = 4u64;

    // xorshift over a seeded state: deterministic across runs and hosts
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let histories: Vec<Vec<OpEvent>> = (0..histories_n)
        .map(|_| {
            let mut h = Vec::new();
            for key in 0..keys_per_history {
                let mut t = u64::from(key) % 7;
                // A cluster of concurrent same-key inserts with distinct
                // values (index 0 claims, the rest update) plus a
                // concurrent retrieve that observed the *claimed* value.
                // The witness must slot the retrieve right after the
                // claim, but the depth-first search tries the updates
                // first and only learns they were wrong at the bottom —
                // ~w·2^w memoized (mask, register) configurations of real
                // backtracking per key, the accepting-path worst case the
                // parallel fan-out exists for.
                let cluster = 10 + next() % 3;
                for c in 0..cluster {
                    h.push(OpEvent {
                        key,
                        kind: OpKind::Insert { value: c as u32 },
                        response: OpResponse::Inserted { new_slot: c == 0 },
                        invoked: t,
                        responded: t + 40,
                    });
                }
                h.push(OpEvent {
                    key,
                    kind: OpKind::Retrieve,
                    response: OpResponse::Found { value: 0 },
                    invoked: t + 1,
                    responded: t + 40,
                });
                t += 41;
                // sequential epilogue, legal regardless of update order:
                // erase, miss, re-claim, hit
                for _ in 0..ops_per_key {
                    let v = (next() % 100) as u32;
                    let steps = [
                        (OpKind::Erase, OpResponse::Erased { hit: true }),
                        (OpKind::Retrieve, OpResponse::NotFound),
                        (OpKind::Insert { value: v }, OpResponse::Inserted { new_slot: true }),
                        (OpKind::Retrieve, OpResponse::Found { value: v }),
                    ];
                    for (kind, response) in steps {
                        h.push(OpEvent {
                            key,
                            kind,
                            response,
                            invoked: t,
                            responded: t + 1,
                        });
                        t += 2;
                    }
                }
            }
            h
        })
        .collect();
    let ops_per_history = histories[0].len();

    let serial_wall = Instant::now();
    for h in &histories {
        check_linearizable_serial(h).expect("generated history must linearize");
    }
    let serial_s = serial_wall.elapsed().as_secs_f64();

    let parallel_wall = Instant::now();
    for h in &histories {
        check_linearizable(h).expect("generated history must linearize");
    }
    let parallel_s = parallel_wall.elapsed().as_secs_f64();

    let hps = |wall: f64| histories_n as f64 / wall.max(1e-12);
    Json::obj(vec![
        ("histories", Json::Num(histories_n as f64)),
        ("ops_per_history", Json::Num(ops_per_history as f64)),
        ("threads", Json::Num(rayon::current_num_threads() as f64)),
        ("serial_s", Json::Num(serial_s)),
        ("parallel_s", Json::Num(parallel_s)),
        ("serial_histories_s", Json::Num(hps(serial_s))),
        ("parallel_histories_s", Json::Num(hps(parallel_s))),
        ("speedup", Json::Num(serial_s / parallel_s.max(1e-12))),
    ])
}

fn grab(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn read_doc(path: &str) -> Json {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    parse(&text).unwrap_or_else(|e| panic!("{path}: malformed JSON: {e}"))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();

    if let Some(path) = grab(&args, "--validate") {
        let doc = read_doc(&path);
        match validate_perf(&doc) {
            Ok(()) => println!("{path}: valid {PERF_SCHEMA}"),
            Err(errs) => {
                eprintln!("{path}: schema violations:\n{errs}");
                std::process::exit(1);
            }
        }
        return;
    }

    if let Some(new_path) = grab(&args, "--compare") {
        let base_path = args
            .iter()
            .position(|a| a == "--compare")
            .and_then(|i| args.get(i + 2))
            .expect("--compare <new.json> <baseline.json>");
        let new_doc = read_doc(&new_path);
        let base_doc = read_doc(base_path);
        let rows = host_rate_deltas(&base_doc, &new_doc);
        if rows.is_empty() {
            println!("no shared sweep points between {base_path} and {new_path}");
        }
        for (k, old, new) in rows {
            let ratio = if old > 0.0 { new / old } else { f64::NAN };
            println!("{k}: {old:.3e} -> {new:.3e} ops/s ({ratio:.2}x)");
        }
        println!("(advisory only: host wall-clock on shared runners is noisy)");
        return;
    }

    let quick = args.iter().any(|a| a == "--quick");
    let seed: u64 = grab(&args, "--seed").and_then(|v| v.parse().ok()).unwrap_or(42);
    let n: usize = grab(&args, "--n")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 1 << 14 } else { 1 << 16 });
    let out_path = grab(&args, "--out").unwrap_or_else(|| "BENCH_perf.json".to_owned());

    let (loads, groups): (&[f64], &[u32]) = if quick {
        (&LOADS_QUICK, &GROUPS_QUICK)
    } else {
        (&LOADS_FULL, &GROUPS_FULL)
    };

    eprintln!(
        "wd-bench: n = {n}, seed = {seed}, {} sweep ({} points)",
        if quick { "quick" } else { "full" },
        loads.len() * groups.len()
    );

    let bench = SingleGpuBench::for_sweep(n, loads[0]);
    let mut sweep = Vec::new();
    for &load in loads {
        for &g in groups {
            let m = bench.warpdrive(Distribution::Unique, PAPER_N_SINGLE, load, g, seed);
            // host ops/s: insert + retrieve of n pairs each over the
            // measured host wall time of the whole point
            let host_ops = 2.0 * n as f64 / m.host_wall_s.max(1e-12);
            sweep.push(Json::obj(vec![
                ("load", Json::Num(load)),
                ("group_size", Json::Num(f64::from(g))),
                ("host_wall_s", Json::Num(m.host_wall_s)),
                ("insert_host_ops_s", Json::Num(host_ops / 2.0)),
                ("retrieve_host_ops_s", Json::Num(host_ops / 2.0)),
                ("insert_modeled_ops_s", Json::Num(m.insert_rate)),
                ("retrieve_modeled_ops_s", Json::Num(m.retrieve_rate)),
                ("insert_sim_s", Json::Num(m.insert_sim_s)),
                ("retrieve_sim_s", Json::Num(m.retrieve_sim_s)),
                ("insert_counters", counters_json(&m.insert_counters)),
                ("retrieve_counters", counters_json(&m.retrieve_counters)),
            ]));
        }
    }

    // Fig. 8 rider: one Zipf point — duplicate-heavy keys stress the
    // update path the unique sweep never takes.
    let zipf = bench.warpdrive(Distribution::paper_zipf(), PAPER_N_SINGLE, 0.80, 16, seed);

    // Host microbench: repeat one mid-grid point and keep the fastest
    // pass — table build, h2d and kernels, no input generation. The
    // fastest-of-k filter strips scheduler noise from the shared runner.
    let micro_rounds = if quick { 3 } else { 5 };
    let mut best_wall = f64::INFINITY;
    for _ in 0..micro_rounds {
        let wall = Instant::now();
        let _ = bench.warpdrive(Distribution::Unique, PAPER_N_SINGLE, 0.80, 4, seed);
        best_wall = best_wall.min(wall.elapsed().as_secs_f64());
    }
    let micro_ops_s = 2.0 * n as f64 / best_wall.max(1e-12);

    // Online serving scenario: seeded two-tenant trace, coalesced onto a
    // 4-GPU node — modeled p50/p99 and throughput are deterministic, the
    // host wall time rides along like everywhere else.
    let serve = serve_scenario(quick, seed);

    // Checker scenario: linearizability-check throughput, serial vs
    // parallel — the instrument the big test sweeps lean on.
    let checker = checker_scenario(quick, seed);

    // Dynamic-tables scenario: a grown table vs a fixed-capacity twin at
    // equal live load — the deterministic no-steady-state-regression gate.
    let resize = resize_scenario(quick, seed);

    // Scenario lab: YCSB mixed workloads and the hot-key cache tier —
    // modeled per-mix rates and hit-rate vs skew / drift period.
    let ycsb = ycsb_scenario(quick, seed);
    let cache = cache_scenario(quick, seed);

    let doc = Json::obj(vec![
        ("schema", Json::Str(PERF_SCHEMA.into())),
        (
            "machine",
            Json::obj(vec![
                ("os", Json::Str(std::env::consts::OS.into())),
                ("arch", Json::Str(std::env::consts::ARCH.into())),
                (
                    "threads",
                    Json::Num(rayon::current_num_threads() as f64),
                ),
            ]),
        ),
        (
            "run",
            Json::obj(vec![
                ("quick", Json::Bool(quick)),
                ("n", Json::Num(n as f64)),
                ("modeled_n", Json::Num(PAPER_N_SINGLE as f64)),
                ("seed", Json::Num(seed as f64)),
            ]),
        ),
        ("sweep", Json::Arr(sweep)),
        (
            "zipf_point",
            Json::obj(vec![
                ("load", Json::Num(zipf.load)),
                ("group_size", Json::Num(f64::from(zipf.group_size))),
                ("host_wall_s", Json::Num(zipf.host_wall_s)),
                ("insert_modeled_ops_s", Json::Num(zipf.insert_rate)),
                ("retrieve_modeled_ops_s", Json::Num(zipf.retrieve_rate)),
                ("insert_counters", counters_json(&zipf.insert_counters)),
                ("retrieve_counters", counters_json(&zipf.retrieve_counters)),
            ]),
        ),
        (
            "host_microbench",
            Json::obj(vec![
                ("point", Json::Str("unique load=0.80 g=4".into())),
                ("rounds", Json::Num(f64::from(micro_rounds))),
                ("best_wall_s", Json::Num(best_wall)),
                ("ops_s", Json::Num(micro_ops_s)),
            ]),
        ),
        ("serve", serve),
        ("checker", checker),
        ("resize", resize),
        ("ycsb", ycsb),
        ("cache", cache),
    ]);

    validate_perf(&doc).expect("self-emitted report must satisfy the schema");
    std::fs::write(&out_path, doc.pretty())
        .unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    eprintln!("wd-bench: wrote {out_path} (host microbench: {micro_ops_s:.3e} ops/s)");
}
