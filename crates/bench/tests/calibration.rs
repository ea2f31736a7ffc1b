//! The calibration anchors (EXPERIMENTS.md, "How to read the numbers"):
//! the device and link constants were fixed against four rates the paper
//! measured. Three of them hold and are pinned here, each within the
//! tolerance its test states. The fourth — the single-GPU insert at
//! α = 0.95 and |g| = 4, ≈ 1.4 G ops/s in the paper — reads 1.71 G ops/s
//! (fig7) and is not pinned: it joins this file once a change brings it
//! into a tolerance of its own. A tolerance is never widened to let an
//! anchor pass.

use interconnect::{alltoall_time, h2d_time, Topology};
use wd_bench::SingleGpuBench;
use workloads::Distribution;

/// `|measured − anchor| ≤ tolerance · anchor`.
fn assert_near(what: &str, measured: f64, anchor: f64, tolerance: f64) {
    let off = (measured - anchor).abs() / anchor;
    assert!(
        off <= tolerance,
        "{what}: {measured:.4e} is {:.1} % off the anchor {anchor:.4e} (tolerance {:.1} %)",
        100.0 * off,
        100.0 * tolerance
    );
}

/// Retrieval peak ≈ 5.5 G ops/s, within 5 %: fig7's best retrieval, unique
/// keys at α = 0.4 and |g| = 4 on a 2^27-slot modeled table (5.56 at the
/// figure's 2^16 functional keys; 2^14 here keep the test fast).
#[test]
fn retrieval_peaks_near_5_5_g_ops() {
    let n = 1 << 14;
    let bench = SingleGpuBench::for_sweep(n, 0.4);
    let point = bench.warpdrive(Distribution::Unique, 1 << 27, 0.4, 4, 42);
    assert_near("retrieval peak", point.retrieve_rate, 5.5e9, 0.05);
}

/// H2D ≈ 22 GB/s accumulated, within 2 %: Fig. 6's four GPUs each receive
/// 1 GiB over the node's host links at once.
#[test]
fn host_links_carry_22_gb_s() {
    let topo = Topology::p100_quad(4);
    let bytes = [1u64 << 30; 4];
    let rate = bytes.iter().sum::<u64>() as f64 / h2d_time(&topo, &bytes);
    assert_near("H2D", rate, 22e9, 0.02);
}

/// All-to-all ≈ 192 GB/s accumulated, within 5 %: Fig. 6's balanced
/// transposition, 1 GiB between every ordered pair of GPUs.
#[test]
fn a_balanced_all_to_all_moves_192_gb_s() {
    let topo = Topology::p100_quad(4);
    let transposition = alltoall_time(&topo, |_, _| 1 << 30);
    assert_near("all-to-all", transposition.accumulated_bandwidth(), 192e9, 0.05);
}
