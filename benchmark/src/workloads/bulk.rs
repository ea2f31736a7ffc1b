//! `bulk_1gpu` and `bulk_node4`: the paper's bulk protocol (§V-B, §V-C).
//!
//! n = 2²⁰ unique pairs into a table at load factor 0.9; one repetition is
//! `put_batch(n)`, `get_batch(n)` (all hit), `delete_batch(n/4)` and a
//! `get_batch` of the deleted n/4 (all miss): 2.5 n ops in four calls.
//! Kernels and the SIMT engine do all the work — one launch per batch on one
//! GPU, one cascade per batch on four — so the front door's segmentation and
//! the serving layer do nothing here, and a change to either must not move
//! these numbers. Both variants run the same ops, so their difference is the
//! cascade's cost.

use super::{device, model_config, Model, Workload};
use crate::layers::{device_totals, stats_since, Measured};
use crate::oracle::Oracle;
use crate::stats::{p99, weighted_percentile};
use crate::trace::{Spy, Tracer};
use gpu_sim::Device;
use interconnect::Topology;
use std::rc::Rc;
use std::sync::Arc;
use warpdrive::{
    Config, DeleteResponse, DistributedHashMap, GetResponse, GpuHashMap, MapService, Op, OpError,
    OpReport, PutResponse, Response,
};
use workloads::Distribution;

/// Pairs inserted per repetition.
pub const N: usize = 1 << 20;
/// Slots for `N` pairs at load factor 0.9.
pub const CAPACITY: usize = (N * 10).div_ceil(9);
/// GPUs of the `bulk_node4` node.
pub const GPUS: usize = 4;

/// The pairs, their keys, and the quarter of the keys that gets deleted
/// (every fourth, so the deletes spread over the GPUs like the inserts).
#[derive(Debug, Clone)]
pub struct BulkInputs {
    pairs: Vec<(u32, u32)>,
    keys: Vec<u32>,
    deleted: Vec<u32>,
}

/// The table under test behind its seam, and the devices it lives on.
pub struct BulkSystem<S> {
    devices: Vec<Arc<Device>>,
    map: Spy<S>,
}

/// One batch call's typed response.
#[derive(Debug, Clone)]
pub enum Call {
    /// `put_batch`.
    Put(PutResponse),
    /// `get_batch`.
    Get(GetResponse),
    /// `delete_batch`.
    Delete(DeleteResponse),
}

impl Call {
    fn report(&self) -> &OpReport {
        match self {
            Call::Put(r) => &r.report,
            Call::Get(r) => &r.report,
            Call::Delete(r) => &r.report,
        }
    }
}

/// The responses of the calls that completed, and the error that stopped
/// the script, if one did.
#[derive(Debug, Clone)]
pub struct BulkOutput {
    calls: Vec<Call>,
    error: Option<OpError>,
}

fn run_script<S: MapService>(map: &mut S, inputs: &BulkInputs) -> BulkOutput {
    let mut calls = Vec::with_capacity(4);
    let mut script = || -> Result<(), OpError> {
        calls.push(Call::Put(map.put_batch(&inputs.pairs)?));
        calls.push(Call::Get(map.get_batch(&inputs.keys)?));
        calls.push(Call::Delete(map.delete_batch(&inputs.deleted)?));
        calls.push(Call::Get(map.get_batch(&inputs.deleted)?));
        Ok(())
    };
    let error = script().err();
    BulkOutput { calls, error }
}

/// Ops of the script's four calls.
fn call_sizes(inputs: &BulkInputs) -> [u64; 4] {
    let (n, d) = (inputs.keys.len() as u64, inputs.deleted.len() as u64);
    [n, n, d, d]
}

/// Replays the completed calls on the oracle and returns the ops that did
/// not complete.
fn check(inputs: &BulkInputs, output: &BulkOutput) -> Result<u64, String> {
    fn gets(keys: &[u32]) -> impl Iterator<Item = Op> + '_ {
        keys.iter().map(|&key| Op::Get { key })
    }
    let mut oracle = Oracle::default();
    let mut completed = 0;
    for (i, call) in output.calls.iter().enumerate() {
        let checked = match (i, call) {
            (0, Call::Put(_)) => oracle.check(
                inputs
                    .pairs
                    .iter()
                    .map(|&(key, value)| Op::Put { key, value }),
                inputs.pairs.iter().map(|_| Response::Put),
            ),
            (1 | 3, Call::Get(r)) => oracle.check(
                gets(if i == 1 {
                    &inputs.keys
                } else {
                    &inputs.deleted
                }),
                r.values.iter().map(|&value| Response::Get { value }),
            ),
            (2, Call::Delete(r)) => oracle.check(
                inputs.deleted.iter().map(|&key| Op::Delete { key }),
                r.hits.iter().map(|&hit| Response::Delete { hit }),
            ),
            _ => Err("a response of the wrong kind".to_owned()),
        };
        completed += checked.map_err(|e| format!("call {i}: {e}"))?;
    }
    let total: u64 = call_sizes(inputs).iter().sum();
    if let Some(e) = &output.error {
        eprintln!("bulk script stopped after {completed} of {total} ops: {e}");
    }
    Ok(total - completed)
}

fn model<S: MapService>(mut system: BulkSystem<S>, inputs: &BulkInputs) -> Result<Model, String> {
    let before = device_totals(&system.devices);
    let output = run_script(&mut system.map, inputs);
    let mut report = OpReport::default();
    let mut latencies = Vec::new();
    for (call, ops) in output.calls.iter().zip(call_sizes(inputs)) {
        report.merge(call.report());
        // an op completes when the batch that carried it does
        latencies.push((call.report().time, ops));
    }
    let measured = Measured {
        ops: latencies.iter().map(|l| l.1).sum(),
        calls: output.calls.len() as u64,
        devices: stats_since(device_totals(&system.devices), before),
        launch_overhead: system.devices[0].spec().launch_overhead,
        report,
        occupancy: system.map.occupancy_split(),
    };
    drop(system); // the oracle should not sit on top of the devices' memory
    let failed = check(inputs, &output)?;
    let mut metrics = measured.layer_counts();
    metrics.push("modeled_ops_s", measured.modeled_ops_s());
    metrics.push("modeled_p50_s", weighted_percentile(&latencies, 50.0));
    metrics.push(
        "modeled_p99_s",
        p99(&latencies).ok_or("fewer than 1000 ops completed")?,
    );
    Ok(Model {
        attempted: call_sizes(inputs).iter().sum(),
        failed,
        metrics,
    })
}

/// Where the script runs: the only thing the two bulk workloads differ in.
pub trait Backend {
    /// The table type.
    type Map: MapService;
    /// Allocates devices and an empty table.
    fn build(cfg: Config, tracer: &Rc<Tracer>) -> BulkSystem<Self::Map>;
}

/// One GPU's [`GpuHashMap`].
pub struct OneGpu;

impl Backend for OneGpu {
    type Map = GpuHashMap;

    fn build(cfg: Config, tracer: &Rc<Tracer>) -> BulkSystem<GpuHashMap> {
        // table + staging for the largest batch's input and output words
        let devices = vec![device(0, CAPACITY + 5 * N + 2048)];
        let map = GpuHashMap::new(Arc::clone(&devices[0]), CAPACITY, cfg).expect("bulk table");
        BulkSystem {
            devices,
            map: Spy::new(map, "core.map", tracer),
        }
    }
}

/// A 4-GPU [`DistributedHashMap`], driven host-sided.
pub struct Node4;

impl Backend for Node4 {
    type Map = DistributedHashMap;

    fn build(cfg: Config, tracer: &Rc<Tracer>) -> BulkSystem<DistributedHashMap> {
        let per_gpu = CAPACITY.div_ceil(GPUS);
        // each GPU holds its table, its share of a batch, the multisplit's
        // double buffer and what the transposition sends it
        let devices: Vec<Arc<Device>> = (0..GPUS)
            .map(|i| device(i, per_gpu + 8 * (N / GPUS) + 4096))
            .collect();
        let map = DistributedHashMap::new(devices.clone(), per_gpu, cfg, Topology::p100_quad(GPUS))
            .expect("bulk node");
        BulkSystem {
            devices,
            map: Spy::new(map, "core.distributed", tracer),
        }
    }
}

/// The bulk protocol on backend `B`.
pub struct Bulk<B>(std::marker::PhantomData<B>);

impl<B: Backend> Workload for Bulk<B> {
    type Inputs = BulkInputs;
    type System = BulkSystem<B::Map>;
    type Output = BulkOutput;

    fn generate(seed: u64) -> BulkInputs {
        let pairs = Distribution::Unique.generate(N, seed);
        let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
        let deleted = keys.iter().copied().step_by(4).collect();
        BulkInputs {
            pairs,
            keys,
            deleted,
        }
    }

    fn build(_: &BulkInputs, cfg: Config, tracer: &Rc<Tracer>) -> Self::System {
        B::build(cfg, tracer)
    }

    fn devices(system: &Self::System) -> &[Arc<Device>] {
        &system.devices
    }

    fn host_ops(inputs: &BulkInputs) -> u64 {
        call_sizes(inputs).iter().sum()
    }

    fn run(system: &mut Self::System, inputs: &BulkInputs, _: &Tracer) -> BulkOutput {
        run_script(&mut system.map, inputs)
    }

    fn check(inputs: &BulkInputs, output: &BulkOutput) -> Result<u64, String> {
        check(inputs, output)
    }

    fn model(inputs: &BulkInputs) -> Result<Model, String> {
        model(B::build(model_config(), &Tracer::new()), inputs)
    }
}
