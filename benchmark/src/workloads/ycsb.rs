//! `ycsb_a_1gpu` and `ycsb_b_cached_1gpu`: interleaved mixed-op streams
//! through `MapService::execute`, in 128-op calls (a closed loop with one
//! caller: the next call is sent when the previous one returns).
//!
//! YCSB-A (50 % reads, 50 % updates, Zipf 1.1) is the write-heavy stream:
//! `execute` cuts a segment at every change of op kind, about every second
//! op, so the fixed cost of a launch on the modeled clock, and per-launch
//! thread spawn and allocation on the host, dominate while the kernels do
//! almost nothing. YCSB-B (95 % reads) through a `CachedMap` holding 1/16 of
//! the records uses the same front door the other way — read-mostly, working
//! set 16× the cache — so a gain for write-heavy segmentation that costs
//! cached reads, or the reverse, shows. It is the only workload on which
//! `core.cache` does work.

use super::{device, model_config, Model, Workload};
use crate::layers::{cache_counts, device_totals, stats_since, Measured};
use crate::oracle::Oracle;
use crate::stats::{p99, weighted_percentile};
use crate::trace::{Spy, Tracer};
use gpu_sim::Device;
use std::rc::Rc;
use std::sync::Arc;
use warpdrive::{
    lower_mixed, CachePolicy, CacheStats, CachedMap, Config, GpuHashMap, MapService, Op, OpError,
    OpReport, Response,
};
use workloads::{MixedOp, Ycsb, YcsbMix};

/// Records preloaded before the stream starts.
pub const RECORDS: u64 = 1 << 16;
/// Table slots: load factor 0.5.
pub const CAPACITY: usize = 1 << 17;
/// Ops per `execute` call.
pub const CALL_OPS: usize = 128;
/// Zipf exponent of key popularity.
pub const ZIPF_S: f64 = 1.1;
/// Entries of the hot-key cache: 1/16 of the records.
pub const CACHE_ENTRIES: usize = 4096;

/// The stream's generator, the records to preload, and the stream's first
/// block, lowered: what a host repetition sends.
#[derive(Debug, Clone)]
pub struct YcsbInputs {
    stream: Ycsb,
    prefill: Vec<(u32, u32)>,
    block0: Vec<Op>,
}

/// The service under test and its device.
pub struct YcsbSystem<S> {
    devices: Vec<Arc<Device>>,
    service: S,
}

/// Per call: the responses, and the modeled time with the ops it covered.
#[derive(Debug, Clone)]
pub struct YcsbOutput {
    responses: Vec<Vec<Response>>,
    calls: Vec<(f64, u64)>,
    report: OpReport,
    error: Option<OpError>,
}

/// What the two YCSB workloads differ in.
pub trait Variant {
    /// The front door the stream is sent to.
    type Service: MapService;
    /// Read/update mix.
    const MIX: YcsbMix;
    /// Ops of one block of the stream: what one host repetition sends.
    const BLOCK_OPS: usize;
    /// Blocks the model pass sends, one after another onto the same table:
    /// enough that the modeled numbers differ little from seed to seed.
    const MODEL_BLOCKS: usize;
    /// Puts the seams (and the cache, if any) around the table.
    fn wrap(map: GpuHashMap, tracer: &Rc<Tracer>) -> Self::Service;
    /// The cache's counters, where there is a cache.
    fn cache_stats(service: &Self::Service) -> Option<CacheStats>;
}

/// YCSB-A straight onto the table.
pub struct A;

impl Variant for A {
    type Service = Spy<GpuHashMap>;
    const MIX: YcsbMix = YcsbMix::A;
    const BLOCK_OPS: usize = 1 << 17;
    const MODEL_BLOCKS: usize = 8;

    fn wrap(map: GpuHashMap, tracer: &Rc<Tracer>) -> Self::Service {
        Spy::new(map, "core.map", tracer)
    }

    fn cache_stats(_: &Self::Service) -> Option<CacheStats> {
        None
    }
}

/// YCSB-B through an LRU [`CachedMap`].
pub struct BCached;

impl Variant for BCached {
    type Service = Spy<CachedMap<Spy<GpuHashMap>>>;
    const MIX: YcsbMix = YcsbMix::B;
    const BLOCK_OPS: usize = 1 << 19;
    const MODEL_BLOCKS: usize = 4;

    fn wrap(map: GpuHashMap, tracer: &Rc<Tracer>) -> Self::Service {
        let cached = CachedMap::new(
            Spy::new(map, "core.map", tracer),
            CACHE_ENTRIES,
            CachePolicy::Lru,
        );
        Spy::new(cached, "core.cache", tracer)
    }

    fn cache_stats(service: &Self::Service) -> Option<CacheStats> {
        Some(service.inner().stats())
    }
}

/// Sends `ops` in [`CALL_OPS`]-op calls, stopping at the first error.
fn drive<S: MapService>(service: &mut S, ops: &[Op]) -> YcsbOutput {
    let calls = ops.len().div_ceil(CALL_OPS);
    let mut out = YcsbOutput {
        responses: Vec::with_capacity(calls),
        calls: Vec::with_capacity(calls),
        report: OpReport::default(),
        error: None,
    };
    for chunk in ops.chunks(CALL_OPS) {
        match service.execute(chunk) {
            Ok((responses, report)) => {
                out.calls.push((report.time, chunk.len() as u64));
                out.report.merge(&report);
                out.responses.push(responses);
            }
            Err(e) => {
                out.error = Some(e);
                break;
            }
        }
    }
    out
}

/// The oracle after the preload.
fn preloaded(inputs: &YcsbInputs) -> Oracle {
    let mut oracle = Oracle::default();
    for &(key, value) in &inputs.prefill {
        oracle.apply(Op::Put { key, value });
    }
    oracle
}

/// Replays the completed calls of one block on the oracle; returns the ops
/// of the block that did not complete.
fn check(oracle: &mut Oracle, ops: &[Op], output: &YcsbOutput) -> Result<u64, String> {
    let completed: usize = output.responses.iter().map(Vec::len).sum();
    oracle.check(
        ops[..completed].iter().copied(),
        output.responses.iter().flatten().copied(),
    )?;
    if let Some(e) = &output.error {
        eprintln!(
            "ycsb stream stopped after {completed} of {} ops: {e}",
            ops.len()
        );
    }
    Ok((ops.len() - completed) as u64)
}

/// A YCSB stream of variant `V`.
pub struct Stream<V>(std::marker::PhantomData<V>);

impl<V: Variant> Workload for Stream<V> {
    type Inputs = YcsbInputs;
    type System = YcsbSystem<V::Service>;
    type Output = YcsbOutput;

    fn generate(seed: u64) -> YcsbInputs {
        let stream = Ycsb::new(V::MIX, ZIPF_S, RECORDS, seed);
        // the whole record universe, so every read resolves
        let prefill = (1..=RECORDS)
            .map(|r| (stream.keys().key_for_rank_at(0, r), r as u32))
            .collect();
        YcsbInputs {
            stream,
            prefill,
            block0: block::<V>(&stream, 0),
        }
    }

    fn build(inputs: &YcsbInputs, cfg: Config, tracer: &Rc<Tracer>) -> Self::System {
        // table + staging for the preload batch
        let devices = vec![device(0, CAPACITY + 5 * RECORDS as usize + 2048)];
        let mut map = GpuHashMap::new(Arc::clone(&devices[0]), CAPACITY, cfg).expect("ycsb table");
        map.put_batch(&inputs.prefill).expect("ycsb preload");
        YcsbSystem {
            devices,
            service: V::wrap(map, tracer),
        }
    }

    fn devices(system: &Self::System) -> &[Arc<Device>] {
        &system.devices
    }

    fn host_ops(_: &YcsbInputs) -> u64 {
        V::BLOCK_OPS as u64
    }

    fn run(system: &mut Self::System, inputs: &YcsbInputs, _: &Tracer) -> YcsbOutput {
        drive(&mut system.service, &inputs.block0)
    }

    fn check(inputs: &YcsbInputs, output: &YcsbOutput) -> Result<u64, String> {
        check(&mut preloaded(inputs), &inputs.block0, output)
    }

    fn model(inputs: &YcsbInputs) -> Result<Model, String> {
        let mut system = Self::build(inputs, model_config(), &Tracer::new());
        let before = device_totals(&system.devices);
        let mut oracle = preloaded(inputs);
        let mut calls = Vec::new();
        let mut report = OpReport::default();
        let mut failed = 0;
        // block by block, so that the model pass holds one block at a time
        for b in 0..V::MODEL_BLOCKS {
            let ops = block::<V>(&inputs.stream, b);
            let output = drive(&mut system.service, &ops);
            failed += check(&mut oracle, &ops, &output)?;
            calls.extend(output.calls);
            report.merge(&output.report);
        }
        let measured = Measured {
            ops: calls.iter().map(|c| c.1).sum(),
            calls: calls.len() as u64,
            devices: stats_since(device_totals(&system.devices), before),
            launch_overhead: system.devices[0].spec().launch_overhead,
            report,
            occupancy: system.service.occupancy_split(),
        };
        let mut metrics = measured.layer_counts();
        if let Some(stats) = V::cache_stats(&system.service) {
            metrics.extend(cache_counts(&stats));
        }
        metrics.push("modeled_ops_s", measured.modeled_ops_s());
        // an op completes when the call that carried it does
        metrics.push("modeled_p50_s", weighted_percentile(&calls, 50.0));
        metrics.push(
            "modeled_p99_s",
            p99(&calls).ok_or("fewer than 1000 ops completed")?,
        );
        Ok(Model {
            attempted: (V::MODEL_BLOCKS * V::BLOCK_OPS) as u64,
            failed,
            metrics,
        })
    }
}

/// Block `b` of the stream, lowered onto front-door ops.
fn block<V: Variant>(stream: &Ycsb, b: usize) -> Vec<Op> {
    let mixed: Vec<MixedOp> = (b * V::BLOCK_OPS..(b + 1) * V::BLOCK_OPS)
        .map(|i| stream.op_at(i as u64))
        .collect();
    lower_mixed(&mixed)
}
