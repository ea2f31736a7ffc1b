//! The repo benchmark behind `BENCHMARK.json`: five workloads measured from
//! outside the library crates, through their public functions only.
//!
//! End-to-end metrics that gate a change are the ones this sandbox repeats:
//! the modeled clock (exact), host allocation counts (exact), peak RSS and
//! set-up time. Host wall and CPU time are measured and reported per layer,
//! as advice. See `benchmark/README.md`.

#![warn(missing_docs)]

pub mod alloc;
pub mod layers;
pub mod oracle;
pub mod probes;
pub mod procfs;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;
