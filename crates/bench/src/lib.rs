//! The harness behind `wd-bench <scenario>`: one registry of scenarios,
//! each regenerating one table or figure of the paper (DESIGN.md §3 has
//! the index) or the modeled perf ledger `BENCH_perf.json`, all built on
//! the two fixtures of [`runner`].
//!
//! Experiments run *functionally scaled down* by default — probe
//! statistics at a given load factor are size-invariant, and
//! capacity-dependent artifacts enter through the modeled capacity — and
//! print simulated rates directly comparable to the paper's y-axes. Pass
//! `--full` to run at paper scale (hours on a laptop; the default
//! completes in seconds).
//!
//! Every number a scenario writes is modeled, so at one rayon worker its
//! output repeats byte for byte: `results/capture.sh` regenerates the
//! committed `results/*.txt` and `BENCH_perf.json`, and CI `diff`s them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ablations;
mod figures;
pub mod perf;
pub mod runner;
pub mod table;

pub use runner::{scaled_rate, CuckooMeasurement, NodeBench, SingleGpuBench, SingleGpuMeasurement};

use std::io::{self, Write};
use std::sync::Arc;

/// Default functional element count (2¹⁸) — large enough for stable probe
/// statistics, small enough for seconds-scale runs.
pub const DEFAULT_N: usize = 1 << 18;

/// The paper's single-GPU element count (2²⁷ pairs = 1 GB).
pub const PAPER_N_SINGLE: u64 = 1 << 27;

/// The group sizes |g| every single-GPU sweep covers.
pub const GROUP_SIZES: [u32; 6] = [1, 2, 4, 8, 16, 32];

/// The load-factor axis of Figs. 7 and 8 (and of the ledger's sweep).
pub const LOADS: [f64; 9] = [0.40, 0.50, 0.60, 0.70, 0.80, 0.85, 0.90, 0.95, 0.97];

/// Harness options parsed from the command line.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Functional element count.
    pub n: usize,
    /// Modeled element count (what the timing model believes).
    pub modeled_n: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Opts {
    /// Parses `--full`, `--n <count>`, `--seed <seed>` for a scenario
    /// whose paper-scale element count is `paper_n`.
    #[must_use]
    pub fn parse(args: &[String], paper_n: u64) -> Self {
        let full = args.iter().any(|a| a == "--full");
        let grab = |flag: &str| -> Option<u64> {
            args.iter()
                .position(|a| a == flag)
                .and_then(|i| args.get(i + 1))
                .and_then(|v| v.parse().ok())
        };
        let n = grab("--n").map_or(if full { paper_n as usize } else { DEFAULT_N }, |v| {
            v as usize
        });
        Self {
            n,
            modeled_n: paper_n,
            seed: grab("--seed").unwrap_or(42),
        }
    }
}

/// One row of the registry: `wd-bench <name>` runs `run` into stdout.
#[derive(Debug)]
pub struct Scenario {
    /// The name on the command line and of the captured file
    /// (`results/<name>.txt`; `perf` is `BENCH_perf.json`).
    pub name: &'static str,
    /// Element count at paper scale: what `--full` runs and what the
    /// timing model is told.
    pub paper_n: u64,
    /// Runs the scenario, writing its whole report to the sink.
    pub run: ScenarioFn,
}

/// What a registry row runs.
pub type ScenarioFn = fn(&Opts, &mut dyn Write) -> io::Result<()>;

impl Scenario {
    const fn new(name: &'static str, paper_n: u64, run: ScenarioFn) -> Self {
        Self { name, paper_n, run }
    }
}

/// Every scenario, in the order `results/capture.sh` captures them.
pub const SCENARIOS: [Scenario; 18] = [
    Scenario::new("fig7", PAPER_N_SINGLE, figures::fig7),
    Scenario::new("fig8", PAPER_N_SINGLE, figures::fig8),
    Scenario::new("fig9", 1 << 28, figures::fig9),
    Scenario::new("fig10", 1 << 28, figures::fig10),
    Scenario::new("fig11", 1 << 32, figures::fig11),
    Scenario::new("table_speedup", PAPER_N_SINGLE, figures::table_speedup),
    Scenario::new("table_baselines", PAPER_N_SINGLE, figures::table_baselines),
    Scenario::new("topo_check", 0, figures::topo_check),
    Scenario::new("ablation_layout", PAPER_N_SINGLE, ablations::layout),
    Scenario::new("ablation_probing", PAPER_N_SINGLE, ablations::probing),
    Scenario::new("ablation_multisplit", 1 << 27, ablations::multisplit),
    Scenario::new("ablation_distribution", 1 << 28, ablations::distribution),
    Scenario::new("ablation_hash", PAPER_N_SINGLE, ablations::hash),
    Scenario::new("ablation_adaptive", PAPER_N_SINGLE, ablations::adaptive),
    Scenario::new("ablation_sharding", PAPER_N_SINGLE, ablations::sharding),
    Scenario::new("perf", PAPER_N_SINGLE, perf::ledger),
    Scenario::new("stage_debug", 1 << 28, figures::stage_debug),
    Scenario::new("calibrate", PAPER_N_SINGLE, figures::calibrate),
];

/// Scenarios kept for tuning the model, with no captured file.
pub const DIAGNOSTICS: [&str; 2] = ["stage_debug", "calibrate"];

/// Creates a simulated P100 with enough pool for `words` words (the
/// experiments size their own pools; the real 16 GB limit is exercised by
/// `--full` runs and the capacity tests).
#[must_use]
pub fn p100_with_words(id: usize, words: usize) -> Arc<gpu_sim::Device> {
    Arc::new(gpu_sim::Device::with_words(id, words))
}

/// Formats an operations-per-second rate like the paper's axes (G ops/s).
#[must_use]
pub fn gops(rate: f64) -> String {
    format!("{:.2}", rate / 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_opts_scale_down() {
        let o = Opts::parse(&[], PAPER_N_SINGLE);
        assert_eq!((o.n, o.seed), (DEFAULT_N, 42));
        assert!(o.n < o.modeled_n as usize);
        let args = ["--full".to_owned(), "--seed".to_owned(), "7".to_owned()];
        let o = Opts::parse(&args, 1 << 20);
        assert_eq!((o.n, o.seed), (1 << 20, 7));
    }

    #[test]
    fn gops_formats() {
        assert_eq!(gops(1.4e9), "1.40");
        assert_eq!(gops(250.0e6), "0.25");
    }
}
