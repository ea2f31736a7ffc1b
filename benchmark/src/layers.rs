//! Metric names and the per-layer counts read from the library's public
//! reports.
//!
//! [`END_TO_END`] and [`PER_LAYER`] list every metric `BENCHMARK.json`
//! declares (a test keeps the two in step). A workload reports every one of
//! them: a per-layer metric of a layer the workload does not reach reads 0.

use gpu_sim::{CounterSnapshot, Device, LifetimeStats};
use std::sync::Arc;
use warpdrive::{CacheStats, CascadeStage, Occupancy, OpReport};

/// End-to-end metrics and their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("modeled_ops_s", "ops/s"),
    ("modeled_p50_s", "s"),
    ("modeled_p99_s", "s"),
    ("host_allocs_per_op", "1/op"),
    ("host_alloc_bytes_per_op", "B/op"),
    ("host_peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// Rates of the SLO ladder, ops/s: 12 500 · 2ᵏ, k = 0…7.
pub const LADDER_RATES: [u32; 8] = [
    12_500, 25_000, 50_000, 100_000, 200_000, 400_000, 800_000, 1_600_000,
];

/// Per-layer metrics and their units, layer by layer.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("gpu-sim.launches", "count"),
    ("gpu-sim.kernel_sim_s", "s"),
    ("gpu-sim.launch_overhead_s", "s"),
    ("gpu-sim.transactions", "count"),
    ("gpu-sim.cas_ops", "count"),
    ("gpu-sim.cas_failed", "count"),
    ("gpu-sim.group_steps", "count"),
    ("gpu-sim.groups", "count"),
    ("gpu-sim.transactions_per_group", "1/group"),
    ("gpu-sim.steps_per_group", "1/group"),
    ("gpu-sim.host_empty_launch_us", "us"),
    ("core.map.host_put_ns_per_op", "ns/op"),
    ("core.map.host_get_ns_per_op", "ns/op"),
    ("core.map.host_delete_ns_per_op", "ns/op"),
    ("core.map.live_end", "count"),
    ("core.map.tombstones_end", "count"),
    ("multisplit.modeled_s", "s"),
    ("multisplit.host_ns_per_elem", "ns/elem"),
    ("interconnect.h2d_s", "s"),
    ("interconnect.d2h_s", "s"),
    ("interconnect.transpose_s", "s"),
    ("interconnect.transpose_back_s", "s"),
    ("interconnect.transpose_bytes", "B"),
    ("core.distributed.insert_s", "s"),
    ("core.distributed.query_s", "s"),
    ("core.distributed.scatter_s", "s"),
    ("core.distributed.backoff_s", "s"),
    ("core.distributed.host_put_ns_per_op", "ns/op"),
    ("core.distributed.host_get_ns_per_op", "ns/op"),
    ("core.distributed.host_delete_ns_per_op", "ns/op"),
    ("core.service.calls", "count"),
    ("core.service.launches_per_call", "1/call"),
    ("core.service.ops_per_launch", "op/launch"),
    ("core.service.host_self_s", "s"),
    ("core.cache.hit_rate", "ratio"),
    ("core.cache.hits", "count"),
    ("core.cache.misses", "count"),
    ("core.cache.evictions", "count"),
    ("core.cache.invalidations", "count"),
    ("core.cache.host_self_s", "s"),
    ("serve.flushes", "count"),
    ("serve.size_flushes", "count"),
    ("serve.delay_flushes", "count"),
    ("serve.mean_batch", "op"),
    ("serve.rejects", "count"),
    ("serve.queue_wait_p50_s", "s"),
    ("serve.queue_wait_p99_s", "s"),
    ("serve.service_p50_s", "s"),
    ("serve.p99_s_r12500", "s"),
    ("serve.p99_s_r25000", "s"),
    ("serve.p99_s_r50000", "s"),
    ("serve.p99_s_r100000", "s"),
    ("serve.p99_s_r200000", "s"),
    ("serve.p99_s_r400000", "s"),
    ("serve.p99_s_r800000", "s"),
    ("serve.p99_s_r1600000", "s"),
    ("serve.slo_rate_ops_s", "ops/s"),
    ("serve.host_self_s", "s"),
    ("workloads.gen_s", "s"),
    ("host.wall_ops_s", "ops/s"),
    ("host.wall_ops_s_p25", "ops/s"),
    ("host.wall_ops_s_p75", "ops/s"),
    ("host.reps", "count"),
    ("host.cpu_user_us_per_op", "us/op"),
    ("host.cpu_sys_us_per_op", "us/op"),
    ("host.allocs_per_launch", "1/launch"),
    ("host.trace_overhead_x", "x"),
    ("host.rayon_threads", "count"),
];

/// Named measurements in the order they were taken.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    /// Records `name = value`.
    ///
    /// # Panics
    /// Panics if `name` is in neither metric table or was already recorded:
    /// both are bugs in the benchmark.
    pub fn push(&mut self, name: &str, value: f64) {
        assert!(unit_of(name).is_some(), "metric {name} is not declared");
        assert!(self.get(name).is_none(), "metric {name} recorded twice");
        // an empty sum is -0.0; print it as plain 0
        self.0.push((name.to_owned(), value + 0.0));
    }

    /// The value recorded under `name`.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Appends every measurement of `other`.
    pub fn extend(&mut self, other: Metrics) {
        for (name, value) in other.0 {
            self.push(&name, value);
        }
    }

    /// `(name, value)` in recording order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.0.iter().map(|(n, v)| (n.as_str(), *v))
    }
}

/// The declared unit of `name`.
#[must_use]
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| *unit)
}

/// Lifetime stats summed over `devices`.
#[must_use]
pub fn device_totals(devices: &[Arc<Device>]) -> LifetimeStats {
    devices
        .iter()
        .map(|d| d.lifetime_stats())
        .fold(LifetimeStats::default(), |acc, s| LifetimeStats {
            launches: acc.launches + s.launches,
            counters: acc.counters.merged(s.counters),
            sim_time: acc.sim_time + s.sim_time,
        })
}

/// What the devices did between two [`device_totals`] readings.
#[must_use]
pub fn stats_since(now: LifetimeStats, earlier: LifetimeStats) -> LifetimeStats {
    let (a, b) = (now.counters, earlier.counters);
    LifetimeStats {
        launches: now.launches - earlier.launches,
        counters: CounterSnapshot {
            transactions: a.transactions - b.transactions,
            stream_bytes: a.stream_bytes - b.stream_bytes,
            cas_ops: a.cas_ops - b.cas_ops,
            cas_failed: a.cas_failed - b.cas_failed,
            atomic_ops: a.atomic_ops - b.atomic_ops,
            cold_atomics: a.cold_atomics - b.cold_atomics,
            group_steps: a.group_steps - b.group_steps,
            groups: a.groups - b.groups,
        },
        sim_time: now.sim_time - earlier.sim_time,
    }
}

/// What one model-pass run did, read from the library's public reports.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Ops completed.
    pub ops: u64,
    /// Calls made through the front door (`execute` or a batch method).
    pub calls: u64,
    /// Device work during the run, summed over devices.
    pub devices: LifetimeStats,
    /// Fixed modeled cost of one launch, from the device spec.
    pub launch_overhead: f64,
    /// The calls' reports, merged.
    pub report: OpReport,
    /// Table state when the run ended.
    pub occupancy: Occupancy,
}

/// `num / den`, or 0 where there is nothing to divide by.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

impl Measured {
    /// Modeled ops per modeled second over the merged report.
    #[must_use]
    pub fn modeled_ops_s(&self) -> f64 {
        ratio(self.ops as f64, self.report.time)
    }

    /// The per-layer counts of `gpu-sim`, `core.map`, `multisplit`,
    /// `interconnect`, `core.distributed` and `core.service`.
    #[must_use]
    pub fn layer_counts(&self) -> Metrics {
        let mut m = Metrics::default();
        let c = self.devices.counters;
        let launches = self.devices.launches as f64;
        m.push("gpu-sim.launches", launches);
        m.push("gpu-sim.kernel_sim_s", self.devices.sim_time);
        m.push("gpu-sim.launch_overhead_s", launches * self.launch_overhead);
        m.push("gpu-sim.transactions", c.transactions as f64);
        m.push("gpu-sim.cas_ops", c.cas_ops as f64);
        m.push("gpu-sim.cas_failed", c.cas_failed as f64);
        m.push("gpu-sim.group_steps", c.group_steps as f64);
        m.push("gpu-sim.groups", c.groups as f64);
        m.push(
            "gpu-sim.transactions_per_group",
            ratio(c.transactions as f64, c.groups as f64),
        );
        m.push("gpu-sim.steps_per_group", c.steps_per_group());
        m.push("core.map.live_end", self.occupancy.live as f64);
        m.push("core.map.tombstones_end", self.occupancy.tombstones as f64);
        let stage = |s| self.report.time_of(s);
        m.push("multisplit.modeled_s", stage(CascadeStage::Multisplit));
        m.push("interconnect.h2d_s", stage(CascadeStage::H2D));
        m.push("interconnect.d2h_s", stage(CascadeStage::D2H));
        m.push("interconnect.transpose_s", stage(CascadeStage::Transpose));
        m.push(
            "interconnect.transpose_back_s",
            stage(CascadeStage::TransposeBack),
        );
        let transpose_bytes: u64 = self
            .report
            .stages
            .iter()
            .filter(|s| {
                matches!(
                    s.stage,
                    CascadeStage::Transpose | CascadeStage::TransposeBack
                )
            })
            .map(|s| s.bytes)
            .sum();
        m.push("interconnect.transpose_bytes", transpose_bytes as f64);
        m.push("core.distributed.insert_s", stage(CascadeStage::Insert));
        m.push("core.distributed.query_s", stage(CascadeStage::Query));
        m.push("core.distributed.scatter_s", stage(CascadeStage::Scatter));
        m.push("core.distributed.backoff_s", self.report.backoff_time);
        m.push("core.service.calls", self.calls as f64);
        m.push(
            "core.service.launches_per_call",
            ratio(launches, self.calls as f64),
        );
        m.push(
            "core.service.ops_per_launch",
            ratio(self.ops as f64, launches),
        );
        m
    }
}

/// The `core.cache` counts.
#[must_use]
pub fn cache_counts(stats: &CacheStats) -> Metrics {
    let mut m = Metrics::default();
    m.push("core.cache.hit_rate", stats.hit_rate());
    m.push("core.cache.hits", stats.hits as f64);
    m.push("core.cache.misses", stats.misses as f64);
    m.push("core.cache.evictions", stats.evictions as f64);
    m.push("core.cache.invalidations", stats.invalidations as f64);
    m
}
