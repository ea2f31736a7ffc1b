//! The five workloads. Each one generates its inputs from the seed alone,
//! builds its devices and tables afresh for every repetition, replays the
//! same inputs, and checks every response against the sequential
//! [`crate::oracle::Oracle`].

pub mod bulk;
pub mod serve;
pub mod ycsb;

use crate::layers::Metrics;
use crate::trace::Tracer;
use gpu_sim::Device;
use std::rc::Rc;
use std::sync::Arc;
use warpdrive::{Config, Schedule};

/// Names accepted by `--workload`, in the order of the README's table.
pub const NAMES: [&str; 5] = [
    "bulk_1gpu",
    "bulk_node4",
    "ycsb_a_1gpu",
    "ycsb_b_cached_1gpu",
    "serve_node4",
];

/// What the model pass found.
#[derive(Debug, Clone, PartialEq)]
pub struct Model {
    /// Ops sent, all of them checked against the oracle.
    pub attempted: u64,
    /// Ops refused or failed (a wrong response is an error, not a failure).
    pub failed: u64,
    /// Every `modeled_*` metric and every per-layer count.
    pub metrics: Metrics,
}

/// One workload: inputs, the system it runs on, and how to drive and check
/// it. `build` + `run` is one repetition; `run` alone is the timed region.
pub trait Workload {
    /// Inputs generated from the seed.
    type Inputs;
    /// Devices, tables and wrappers of one repetition, prefilled.
    type System;
    /// What the library returned during `run`.
    type Output;

    /// Generates the inputs: the same seed gives the same inputs.
    fn generate(seed: u64) -> Self::Inputs;

    /// Builds and prefills the system a repetition runs on.
    fn build(inputs: &Self::Inputs, cfg: Config, tracer: &Rc<Tracer>) -> Self::System;

    /// The simulated devices of `system`.
    fn devices(system: &Self::System) -> &[Arc<Device>];

    /// Ops one host repetition sends.
    fn host_ops(inputs: &Self::Inputs) -> u64;

    /// One host repetition's timed region.
    fn run(system: &mut Self::System, inputs: &Self::Inputs, tracer: &Tracer) -> Self::Output;

    /// Compares `output` with the oracle and returns the number of failed
    /// ops.
    ///
    /// # Errors
    /// The first response that differs from the oracle's.
    fn check(inputs: &Self::Inputs, output: &Self::Output) -> Result<u64, String>;

    /// The model pass: runs on the sequential schedule with one rayon worker
    /// and reads everything from the modeled clock and the public reports.
    ///
    /// # Errors
    /// The first response that differs from the oracle's.
    fn model(inputs: &Self::Inputs) -> Result<Model, String>;
}

/// The model pass's configuration: groups run one after another on the
/// calling thread, so every counter and modeled time repeats bit for bit.
///
/// # Panics
/// Panics unless `RAYON_NUM_THREADS` is 1: `multisplit` and the scatter
/// kernels launch on the racing pool whatever the map's `Config` says, and at
/// two workers their counters differ from run to run.
#[must_use]
pub fn model_config() -> Config {
    let workers = std::env::var("RAYON_NUM_THREADS").unwrap_or_default();
    assert_eq!(
        workers.trim(),
        "1",
        "the model pass needs RAYON_NUM_THREADS=1"
    );
    Config::default().with_schedule(Schedule::Sequential)
}

/// Device `id` with `words` 64-bit words of memory.
#[must_use]
pub fn device(id: usize, words: usize) -> Arc<Device> {
    Arc::new(Device::with_words(id, words))
}
