//! Software SIMT substrate standing in for CUDA hardware.
//!
//! The WarpDrive paper targets CUDA GPUs; this reproduction runs on plain
//! CPUs, so the GPU is replaced by a *functional + analytical* simulator
//! (see DESIGN.md §1 for the substitution argument):
//!
//! * **Functional layer** — device global memory is a flat array of
//!   [`std::sync::atomic::AtomicU64`] words. Kernels are written against a
//!   [`simt::GroupCtx`] exposing the coalesced-group collectives of the
//!   paper (`ballot`, `any`, lane ranks, leader election via find-first-set)
//!   and execute *concurrently* on a Rayon pool using real
//!   `compare_exchange`, so all race behaviour the paper's algorithm has to
//!   survive (CAS failures, stale window copies, duplicate-key event
//!   horizons) is exercised for real.
//! * **Analytical layer** — every memory access records 32-byte
//!   transactions, streamed bytes, CAS operations and dependent probe
//!   steps in its launch's [`counters::CounterSnapshot`]; [`timing::TimingModel`]
//!   converts those into simulated seconds using constants calibrated to a
//!   Tesla P100 ([`spec::DeviceSpec::p100`]), including the paper's
//!   observed CAS-throughput degradation once a table spans more than
//!   ~2 GB of HBM2 (§V-C).
//!
//! The model is deliberately simple — three throughput terms and one
//! latency/occupancy term — because the paper's performance *shapes*
//! (load-factor curves, the group-size trade-off, super-linear strong
//! scaling) are all functions of access-pattern statistics that the
//! functional run measures exactly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counters;
pub mod device;
pub mod fault;
pub mod mem;
pub mod node;
pub mod sanitizer;
pub mod sched;
pub mod simt;
pub mod spec;
pub mod timing;

pub use counters::CounterSnapshot;
pub use device::{Device, KernelStats, LaunchOptions, LifetimeStats};
pub use fault::{FaultPlan, RetryPolicy, RETRY};
pub use mem::{DevSlice, DeviceMemory, OutOfMemory, ScratchGuard};
pub use node::{launch_node, NodeStats, Section};
pub use sanitizer::{Detector, Report, SanitizerSet};
pub use sched::{AdversarialMode, Schedule, StepSched};
pub use simt::{GroupCtx, GroupSize};
pub use spec::DeviceSpec;
pub use timing::{TimeBreakdown, TimingModel};
