//! `serve_node4`: the whole stack — admission, coalescing, `execute`, the
//! cascade and the kernels — under small flushes, the only workload on which
//! queue wait and service time are different things.
//!
//! A `Server` (`max_batch` 512, `max_delay` 50 µs, tenant quota 2¹³) over a
//! 4-GPU `DistributedHashMap` (2¹⁴ slots per GPU) takes 60 % puts and 40 %
//! gets from two tenants over 2¹³ keys each.
//!
//! **No deletes.** A put of a key that lives beyond the first window of its
//! probe sequence claims a tombstone found earlier in the sequence without
//! looking further, which leaves two copies of the key; a later delete
//! removes one and gets then return the stale other. With 10 % deletes in
//! the trace the oracle catches that within 40 000 to 200 000 requests on
//! every seed tried (and in 2 000 single-op batches on a 256-slot
//! `GpuHashMap` at load 0.6). The benchmark may not change the library and
//! must run workloads whose responses are right, so until that is fixed the
//! erase cascade is measured by `bulk_node4` alone, which never re-inserts a
//! deleted key.
//!
//! **Open loop.** Requests are due at times fixed on the modeled clock
//! before the run, whatever the server does. A request's latency runs from
//! the time it was due to the end of the flush that answered it. The server
//! itself stamps a request that finds it busy with the later time at which
//! it was taken in (`Completion.latency` starts there), so the benchmark
//! drives `submit_at` itself, reads `clock()` around every call, and charges
//! the time a request waited to be taken in to its queue wait.

use super::{device, model_config, Model, Workload};
use crate::layers::{device_totals, stats_since, Measured, LADDER_RATES};
use crate::oracle::Oracle;
use crate::stats::{percentile, slo_rate, Rung};
use crate::trace::{Spy, Tracer};
use gpu_sim::Device;
use interconnect::Topology;
use std::rc::Rc;
use std::sync::Arc;
use warpdrive::{Config, DistributedHashMap, MapService, Op};
use wd_serve::{fold, generate, Completion, ServeConfig, Server, TraceConfig, TraceEvent};

/// GPUs of the node.
pub const GPUS: usize = 4;
/// Table slots per GPU.
pub const SLOTS_PER_GPU: usize = 1 << 14;
/// Rate of the nominal trace, ops/s: about half of what the node sustains.
pub const NOMINAL_RATE: f64 = 25_000.0;
/// Mean gap of the saturating trace, seconds: far more than the node
/// sustains, so every flush is full and the clock is all service time.
pub const SATURATING_GAP: f64 = 2e-7;
/// Requests of the nominal trace.
pub const NOMINAL_OPS: usize = 1 << 16;
/// Requests of the saturating trace: enough flushes that throughput differs
/// little from seed to seed.
pub const SATURATING_OPS: usize = 1 << 18;
/// Requests of each ladder trace.
pub const LADDER_OPS: usize = 1 << 14;
/// Requests one host repetition sends: the head of the nominal trace.
pub const HOST_OPS: usize = 1 << 15;
/// Latency limit of the SLO, seconds, on p99.
pub const SLO_LIMIT_S: f64 = 1e-3;

/// The nominal trace, whose head the host repetitions replay. The model
/// pass generates its other traces from `seed` one at a time, so that the
/// benchmark's own buffers stay small beside the library's.
#[derive(Debug, Clone)]
pub struct ServeInputs {
    seed: u64,
    nominal: Vec<TraceEvent>,
}

/// The server over its node, and the node's devices.
pub struct ServeSystem {
    devices: Vec<Arc<Device>>,
    server: Server<Spy<DistributedHashMap>>,
}

/// What came back from one trace. The three timing vectors run parallel to
/// `completions`.
#[derive(Debug, Clone, Default)]
pub struct Driven {
    sent: usize,
    completions: Vec<Completion>,
    /// Due time → end of the answering flush.
    latency: Vec<f64>,
    /// Due time → start of the answering flush.
    queue_wait: Vec<f64>,
    /// Duration of the answering flush.
    service: Vec<f64>,
}

impl Driven {
    /// Requests refused at admission or lost to a backend error.
    fn failed(&self) -> u64 {
        (self.sent - self.completions.len()) as u64
    }
}

fn trace(ops: usize, mean_gap: f64, seed: u64) -> Vec<TraceEvent> {
    let config = TraceConfig {
        ops,
        tenants: 2,
        key_space: 1 << 13,
        put_per_mille: 600,
        delete_per_mille: 0,
        mean_gap,
    };
    generate(&config, seed)
}

fn build(cfg: Config, tracer: &Rc<Tracer>) -> ServeSystem {
    let devices: Vec<Arc<Device>> = (0..GPUS).map(|i| device(i, 1 << 18)).collect();
    let node = DistributedHashMap::new(
        devices.clone(),
        SLOTS_PER_GPU,
        cfg,
        Topology::p100_quad(GPUS),
    )
    .expect("serve node");
    let config = ServeConfig::default()
        .with_max_batch(512)
        .with_max_delay(5e-5)
        .with_tenant_quota(1 << 13);
    ServeSystem {
        devices,
        server: Server::new(Spy::new(node, "core.distributed", tracer), config),
    }
}

/// Replays `trace` open loop and drains the last partial batch.
fn drive<S: MapService>(server: &mut Server<S>, trace: &[TraceEvent]) -> Driven {
    let mut out = Driven {
        sent: trace.len(),
        completions: Vec::with_capacity(trace.len()),
        latency: Vec::with_capacity(trace.len()),
        queue_wait: Vec::with_capacity(trace.len()),
        service: Vec::with_capacity(trace.len()),
    };
    // due time by sequence number, which the server assigns at admission
    let mut due = vec![f64::NAN; trace.len()];
    let mut settle = |done: Vec<Completion>, flush_start: f64, flush_end: f64, due: &[f64]| {
        for c in done {
            let at = due[c.seq as usize];
            out.latency.push(flush_end - at);
            out.queue_wait.push(flush_start - at);
            out.service.push(flush_end - flush_start);
            out.completions.push(c);
        }
    };
    for ev in trace {
        let before = server.clock();
        let submitted = server.submit_at(ev.tenant, ev.op, ev.at);
        if let Ok(seq) = submitted.outcome {
            due[seq as usize] = ev.at;
        }
        // at most one flush per call (max_batch > 1): it started when the
        // clock had caught up with this arrival and ended where it is now
        settle(
            submitted.completions,
            before.max(ev.at),
            server.clock(),
            &due,
        );
    }
    let before = server.clock();
    if let Ok(done) = server.flush() {
        settle(done, before, server.clock(), &due);
    }
    out
}

/// Replays the completions, in the order the server executed them, on the
/// oracle (tenant-folded keys).
fn check(driven: &Driven) -> Result<u64, String> {
    let folded = driven.completions.iter().map(|c| {
        let key = fold(c.tenant, c.op.key());
        match c.op {
            Op::Put { value, .. } => Op::Put { key, value },
            Op::Get { .. } => Op::Get { key },
            Op::Delete { .. } => Op::Delete { key },
        }
    });
    Oracle::default().check(folded, driven.completions.iter().map(|c| c.response))?;
    Ok(driven.failed())
}

/// The serving workload.
pub struct ServeNode4;

impl Workload for ServeNode4 {
    type Inputs = ServeInputs;
    type System = ServeSystem;
    type Output = Driven;

    fn generate(seed: u64) -> ServeInputs {
        ServeInputs {
            seed,
            nominal: trace(NOMINAL_OPS, 1.0 / NOMINAL_RATE, seed),
        }
    }

    fn build(_: &ServeInputs, cfg: Config, tracer: &Rc<Tracer>) -> ServeSystem {
        build(cfg, tracer)
    }

    fn devices(system: &ServeSystem) -> &[Arc<Device>] {
        &system.devices
    }

    fn host_ops(_: &ServeInputs) -> u64 {
        HOST_OPS as u64
    }

    fn run(system: &mut ServeSystem, inputs: &ServeInputs, tracer: &Tracer) -> Driven {
        tracer.span("serve", "trace", HOST_OPS as u64, || {
            drive(&mut system.server, &inputs.nominal[..HOST_OPS])
        })
    }

    fn check(_: &ServeInputs, output: &Driven) -> Result<u64, String> {
        check(output)
    }

    fn model(inputs: &ServeInputs) -> Result<Model, String> {
        let tracer = Tracer::new();
        let replay = |trace: &[TraceEvent]| -> Result<(ServeSystem, Driven), String> {
            let mut system = build(model_config(), &tracer);
            let driven = drive(&mut system.server, trace);
            check(&driven)?;
            Ok((system, driven))
        };

        // throughput and the layer counts: the saturating trace
        let (system, saturated) = replay(&trace(
            SATURATING_OPS,
            SATURATING_GAP,
            inputs.seed.wrapping_add(1),
        ))?;
        let telemetry = system.server.telemetry();
        let measured = Measured {
            ops: saturated.completions.len() as u64,
            calls: telemetry.flushes,
            // the devices are new, so their lifetime is this trace
            devices: stats_since(device_totals(&system.devices), Default::default()),
            launch_overhead: system.devices[0].spec().launch_overhead,
            report: telemetry.report.clone(),
            occupancy: system.server.backend().occupancy_split(),
        };
        let mut metrics = measured.layer_counts();
        metrics.push("modeled_ops_s", measured.ops as f64 / system.server.clock());
        metrics.push("serve.flushes", telemetry.flushes as f64);
        metrics.push("serve.size_flushes", telemetry.size_flushes as f64);
        metrics.push("serve.delay_flushes", telemetry.delay_flushes as f64);
        metrics.push("serve.mean_batch", telemetry.mean_batch());

        // latency, and where it was spent: the nominal trace
        let (_, nominal) = replay(&inputs.nominal)?;
        metrics.push("modeled_p50_s", percentile(&nominal.latency, 50.0));
        metrics.push("modeled_p99_s", percentile(&nominal.latency, 99.0));
        metrics.push(
            "serve.queue_wait_p50_s",
            percentile(&nominal.queue_wait, 50.0),
        );
        metrics.push(
            "serve.queue_wait_p99_s",
            percentile(&nominal.queue_wait, 99.0),
        );
        metrics.push("serve.service_p50_s", percentile(&nominal.service, 50.0));

        // the highest rate that keeps p99 within the limit: the ladder
        let mut rungs = Vec::with_capacity(LADDER_RATES.len());
        for (&rate, k) in LADDER_RATES.iter().zip(2..) {
            let (_, driven) = replay(&trace(
                LADDER_OPS,
                1.0 / f64::from(rate),
                inputs.seed.wrapping_add(k),
            ))?;
            let rung = Rung {
                rate: f64::from(rate),
                rejects: driven.failed(),
                latencies: driven.latency,
            };
            metrics.push(&format!("serve.p99_s_r{rate}"), rung.p99());
            rungs.push(rung);
        }
        metrics.push("serve.slo_rate_ops_s", slo_rate(&rungs, SLO_LIMIT_S));

        let failed =
            saturated.failed() + nominal.failed() + rungs.iter().map(|r| r.rejects).sum::<u64>();
        metrics.push("serve.rejects", failed as f64);
        Ok(Model {
            attempted: (NOMINAL_OPS + SATURATING_OPS + LADDER_RATES.len() * LADDER_OPS) as u64,
            failed,
            metrics,
        })
    }
}
