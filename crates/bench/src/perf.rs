//! The perf ledger `BENCH_perf.json` (`wd-bench perf`): the Fig. 7 grid
//! with full counter snapshots, a Fig. 8 Zipf point, and the serving,
//! resize, YCSB and cache scenarios — **modeled numbers only**, so the
//! document repeats byte for byte at one worker and the gate on it is
//! `diff`: a PR that moves a number commits the regenerated file. Host
//! wall-clock lives in the repo benchmark (`host.wall_ops_s`), not here.
//!
//! The container has no JSON dependency (the workspace `serde` shim is
//! compile-only), so this module hand-rolls a [`Json`] value tree with a
//! deterministic pretty printer: object keys keep insertion order and
//! floats print via Rust's shortest-roundtrip `Display`.

use crate::runner::{host_map, scaled_rate, NodeBench, SingleGpuBench, SingleGpuMeasurement};
use crate::{Opts, GROUP_SIZES, LOADS, PAPER_N_SINGLE};
use std::fmt::Write as _;
use std::io;
use warpdrive::{lower_mixed, CachePolicy, CachedMap, Config, GpuHashMap, MapService};
use workloads::{Distribution, Ycsb, YcsbMix};

/// Schema identifier of the ledger. v6 dropped every wall-clock field
/// (`machine`, `host_microbench`, `checker`, `host_wall_s`,
/// `*_host_ops_s`) and `run.quick`.
pub const PERF_SCHEMA: &str = "wd-bench-perf/v6";

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// A finite number (JSON has no NaN/Inf; printing panics on them).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Insertion order is preserved for printing.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs.
    #[must_use]
    pub fn obj(pairs: Vec<(&str, Json)>) -> Self {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Pretty-prints with two-space indentation and a trailing newline.
    ///
    /// # Panics
    /// Panics on non-finite numbers — the report builder must not emit
    /// NaN/Inf (JSON cannot represent them).
    #[must_use]
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth + 1);
        let close = "  ".repeat(depth);
        match self {
            Json::Num(x) => {
                assert!(x.is_finite(), "non-finite number in perf report");
                // shortest-roundtrip float; integers print without ".0"
                if x.fract() == 0.0 && x.abs() < 9e15 {
                    let _ = write!(out, "{}", *x as i64);
                } else {
                    let _ = write!(out, "{x}");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad);
                    item.write(out, depth + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                out.push_str(&close);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    out.push_str(&pad);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, depth + 1);
                    out.push_str(if i + 1 < pairs.len() { ",\n" } else { "\n" });
                }
                out.push_str(&close);
                out.push('}');
            }
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

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

/// One §V-B point: modeled rates and, where `sim_times`, the functional
/// kernel times, with the full counter snapshots of both kernels.
fn point_json(m: &SingleGpuMeasurement, sim_times: bool) -> Json {
    let mut fields = vec![
        ("load", Json::Num(m.load)),
        ("group_size", Json::Num(f64::from(m.group_size))),
        ("insert_modeled_ops_s", Json::Num(m.insert_rate)),
        ("retrieve_modeled_ops_s", Json::Num(m.retrieve_rate)),
    ];
    if sim_times {
        fields.push(("insert_sim_s", Json::Num(m.insert_sim_s)));
        fields.push(("retrieve_sim_s", Json::Num(m.retrieve_sim_s)));
    }
    fields.push(("insert_counters", counters_json(&m.insert_counters)));
    fields.push(("retrieve_counters", counters_json(&m.retrieve_counters)));
    Json::obj(fields)
}

/// The serving scenario: a seeded two-tenant trace (50/10/40
/// put/delete/get — the one ledger entry that drives deletes through a
/// [`wd_serve::Server`]) over a 4-GPU node, reporting modeled tail
/// latency and throughput.
fn serve_scenario(seed: u64) -> Json {
    use wd_serve::{generate, ServeConfig, Server, TraceConfig};

    let node = NodeBench::new(4, 1 << 14, 1.0, Config::default()).map;
    let mut srv = Server::new(
        node,
        ServeConfig::default()
            .with_max_batch(512)
            .with_max_delay(5e-5)
            .with_tenant_quota(1 << 13),
    );
    let trace = generate(
        &TraceConfig {
            ops: 32_768,
            tenants: 2,
            key_space: 1 << 13,
            put_per_mille: 500,
            delete_per_mille: 100,
            mean_gap: 2e-7,
        },
        seed,
    );
    let run = srv.run_trace(&trace);

    let t = srv.telemetry();
    let throughput = if t.report.time > 0.0 {
        t.flushed_ops as f64 / t.report.time
    } else {
        0.0
    };
    Json::obj(vec![
        ("ops", Json::Num(run.completions.len() as f64)),
        ("tenants", Json::Num(2.0)),
        ("flushes", Json::Num(t.flushes as f64)),
        ("mean_batch", Json::Num(t.mean_batch())),
        ("p50_latency_s", Json::Num(t.latency.p50())),
        ("p99_latency_s", Json::Num(t.latency.p99())),
        ("throughput_ops_s", Json::Num(throughput)),
        ("occupancy", Json::Num(srv.backend().occupancy())),
        ("rejects", Json::Num(run.rejects.len() as f64)),
    ])
}

/// A single-GPU map of the scenarios below, which stage at most
/// `capacity` pairs in a call.
fn small_map(capacity: usize) -> GpuHashMap {
    host_map(capacity, capacity, Config::default())
}

/// The dynamic-tables scenario: steady-state modeled throughput of a
/// table that *grew itself* through its load-factor watermark versus a
/// table born at the final capacity, both holding the same live keys.
/// Once migration finalizes, a grown table must serve inserts and
/// retrieves as fast as one that never resized — any steady-state tax
/// from the dynamic machinery fails the run.
fn resize_scenario(seed: u64) -> Json {
    let start_capacity: usize = 1 << 14;
    // 7/8 of the start capacity crosses the default 0.85 watermark
    let live = start_capacity * 7 / 8;
    let batch = 2048;

    // one unique pool, split into the resident set and the fresh
    // steady-state insert batch (unique ⇒ no in-batch key races)
    let pairs = Distribution::Unique.generate(live + batch, seed);
    let (resident, fresh) = pairs.split_at(live);
    let query_keys: Vec<u32> = resident.iter().take(batch).map(|p| p.0).collect();
    let fill = |map: &GpuHashMap| {
        for wave in resident.chunks(512) {
            let filled = map.insert_pairs(wave).expect("fill");
            assert_eq!(filled.failed, 0, "fill must not exhaust probing");
        }
    };

    // managed path: starts small, the watermark fires mid-fill, chunked
    // migration interleaves with the remaining waves, finalize completes
    let mut managed = small_map(start_capacity);
    managed.set_resize_policy(Some(warpdrive::ResizePolicy::default()));
    fill(&managed);
    managed.finish_resize().expect("finalize grow");
    let final_capacity = managed.capacity();
    assert!(
        final_capacity > start_capacity,
        "watermark never fired at {live}/{start_capacity}"
    );
    // fixed path: born at the managed table's final capacity with the
    // same live keys — the equal-live-load control
    let fixed = small_map(final_capacity);
    fill(&fixed);

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
    ])
}

/// The YCSB scenario: the four standard mixed workloads (A 50/50
/// read-update, B 95/5, C read-only, F read-modify-write — C and F run
/// nowhere else) lowered onto a single-GPU map through `lower_mixed` +
/// `MapService::execute` in 128-op calls, each over the same Zipf-1.1 key
/// popularity. Every call is one launch, the reads and puts of a mixed
/// one fused, so A, B and C run at the launch rate and F, which lowers
/// each read-modify-write to two ops of one upsert group, at two thirds
/// of it per generated op.
fn ycsb_scenario(seed: u64) -> Json {
    let records: u64 = 1 << 14;
    let ops = 16_384;
    let zipf_s = 1.1;

    let mut fields = vec![
        ("ops".to_owned(), Json::Num(ops as f64)),
        ("records".to_owned(), Json::Num(records as f64)),
        ("zipf_s".to_owned(), Json::Num(zipf_s)),
    ];
    for mix in YcsbMix::ALL {
        // fresh table per mix, sized for a comfortable load factor
        let mut map = small_map(records as usize * 2);
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
        let rate = ops as f64 / modeled_s.max(1e-12);
        fields.push((format!("{}_modeled_ops_s", mix.label()), Json::Num(rate)));
    }
    Json::Obj(fields)
}

/// The cache scenario: a hot-key [`CachedMap`] versus an uncached twin
/// under YCSB-C traffic, swept across Zipf exponents (stationary,
/// `drift_period` = 0) and hot-set drift periods (fixed skew). Ops flow in
/// serving-shaped 64-op chunks — admission happens between flushes, so
/// later chunks can hit what earlier ones admitted. Hit rate must rise
/// with skew; modeled speedup comes from absorbed gets skipping kernel
/// launches.
fn cache_scenario(seed: u64) -> Json {
    let records: u64 = 1 << 10;
    let ops = 8_192;
    let cache_entries: usize = 256;

    fn load<S: MapService>(map: &mut S, gen: &Ycsb, records: u64, epochs: u64) {
        for epoch in 0..=epochs {
            let pairs: Vec<(u32, u32)> = (1..=records)
                .map(|r| (gen.keys().key_for_rank_at(epoch, r), r as u32))
                .collect();
            map.put_batch(&pairs).expect("cache load");
        }
    }

    // (point, hit rate) at one skew and drift period
    let run_point = |zipf_s: f64, period: u64| -> (Json, f64) {
        let gen = Ycsb::with_drift(YcsbMix::C, zipf_s, records, seed, period);
        let epochs = (ops as u64) / period.min(ops as u64);
        // every drift epoch brings a fresh `records`-key universe; the
        // backends hold all the epochs the longest sweep point can touch
        let mut cached = CachedMap::new(small_map(1 << 15), cache_entries, CachePolicy::Lru);
        load(cached.backend_mut(), &gen, records, epochs);
        let mut uncached = small_map(1 << 15);
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
        let hit_rate = cached.stats().hit_rate();
        let point = Json::obj(vec![
            ("zipf_s", Json::Num(zipf_s)),
            // 0 = stationary (no drift)
            (
                "drift_period",
                Json::Num(if period == u64::MAX {
                    0.0
                } else {
                    period as f64
                }),
            ),
            ("hit_rate", Json::Num(hit_rate)),
            ("cached_modeled_ops_s", Json::Num(cached_rate)),
            ("uncached_modeled_ops_s", Json::Num(uncached_rate)),
            ("speedup", Json::Num(cached_rate / uncached_rate.max(1e-12))),
        ]);
        (point, hit_rate)
    };

    let mut points = Vec::new();
    let mut last_rate = -1.0;
    for s in [0.5, 1.1, 1.5, 2.0] {
        let (point, rate) = run_point(s, u64::MAX);
        assert!(
            rate > last_rate,
            "hit rate must rise with skew: {rate} at s = {s} (previous {last_rate})"
        );
        last_rate = rate;
        points.push(point);
    }
    for period in [1_024u64, 4_096] {
        points.push(run_point(1.5, period).0);
    }

    Json::obj(vec![
        ("capacity", Json::Num(cache_entries as f64)),
        ("ops_per_point", Json::Num(ops as f64)),
        ("policy", Json::Str("lru".into())),
        ("points", Json::Arr(points)),
    ])
}

/// `wd-bench perf`: writes the whole ledger as one JSON document.
///
/// # Errors
/// Propagates the sink's write errors.
pub fn ledger(opts: &Opts, out: &mut dyn io::Write) -> io::Result<()> {
    let bench = SingleGpuBench::for_sweep(opts.n, LOADS[0]);
    let mut sweep = Vec::new();
    for &load in &LOADS {
        for &g in &GROUP_SIZES {
            let m = bench.warpdrive(Distribution::Unique, opts.modeled_n, load, g, opts.seed);
            sweep.push(point_json(&m, true));
        }
    }
    // Fig. 8 rider: one Zipf point — duplicate-heavy keys stress the
    // update path the unique sweep never takes.
    let zipf = bench.warpdrive(
        Distribution::paper_zipf(),
        opts.modeled_n,
        0.80,
        16,
        opts.seed,
    );

    let doc = Json::obj(vec![
        ("schema", Json::Str(PERF_SCHEMA.into())),
        (
            "run",
            Json::obj(vec![
                ("n", Json::Num(opts.n as f64)),
                ("modeled_n", Json::Num(opts.modeled_n as f64)),
                ("seed", Json::Num(opts.seed as f64)),
            ]),
        ),
        ("sweep", Json::Arr(sweep)),
        ("zipf_point", point_json(&zipf, false)),
        ("serve", serve_scenario(opts.seed)),
        ("resize", resize_scenario(opts.seed)),
        ("ycsb", ycsb_scenario(opts.seed)),
        ("cache", cache_scenario(opts.seed)),
    ]);
    out.write_all(doc.pretty().as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_print_as_json() {
        let doc = Json::Str("a\"b\\c\nd\te\u{1}".into());
        assert_eq!(doc.pretty(), "\"a\\\"b\\\\c\\nd\\te\\u0001\"\n");
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Json::Num(65536.0).pretty(), "65536\n");
        assert_eq!(Json::Num(0.8).pretty(), "0.8\n");
    }

    #[test]
    fn containers_indent_and_keep_insertion_order() {
        let doc = Json::obj(vec![
            ("b", Json::Arr(vec![Json::Num(1.0), Json::Arr(vec![])])),
            ("a", Json::obj(vec![])),
        ]);
        assert_eq!(
            doc.pretty(),
            "{\n  \"b\": [\n    1,\n    []\n  ],\n  \"a\": {}\n}\n"
        );
    }
}
