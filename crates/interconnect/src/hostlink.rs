//! Host ↔ device transfer cost model (PCIe switches of Fig. 6).
//!
//! GPUs sharing a PCIe switch contend for its bandwidth when transferring
//! simultaneously; switches operate in parallel. For the paper's balanced
//! batches this reproduces the ≈22 GB/s accumulated host bandwidth
//! (84%/55% of which the host-sided insert/retrieve cascades achieve,
//! §V-C).

use crate::fault::{transfer_with_retry, FailedTransfer, FaultedTransfer};
use crate::topology::Topology;
use gpu_sim::{fault::site, FaultPlan};

/// Time for simultaneous host→device transfers, `per_gpu_bytes[g]` bytes
/// to each GPU `g`. GPUs on the same switch share its bandwidth
/// proportionally; the phase ends when the most loaded switch finishes.
///
/// # Panics
/// Panics if `per_gpu_bytes.len()` ≠ number of GPUs.
#[must_use]
pub fn h2d_time(topo: &Topology, per_gpu_bytes: &[u64]) -> f64 {
    assert_eq!(per_gpu_bytes.len(), topo.num_gpus, "one byte count per GPU");
    let mut worst: f64 = 0.0;
    for s in 0..topo.num_switches() {
        let load: u64 = topo.gpus_on_switch(s).map(|g| per_gpu_bytes[g]).sum();
        worst = worst.max(load as f64 / topo.switch_bandwidth[s]);
    }
    worst
}

/// Time for simultaneous device→host transfers. PCIe is full duplex, so
/// the model is symmetric with [`h2d_time`].
#[must_use]
pub fn d2h_time(topo: &Topology, per_gpu_bytes: &[u64]) -> f64 {
    h2d_time(topo, per_gpu_bytes)
}

/// Shared engine of the fault-aware host-link estimators: per-switch
/// contention at degraded bandwidth, with per-GPU drop/retry rolls whose
/// wasted attempts serialize onto the GPU's switch. A GPU whose rolls
/// outlast the retry budget fails the phase with `src == dst == g`.
fn hostlink_faulted(
    topo: &Topology,
    per_gpu_bytes: &[u64],
    plan: &FaultPlan,
    transfer_site: u64,
) -> Result<FaultedTransfer, FailedTransfer> {
    assert_eq!(per_gpu_bytes.len(), topo.num_gpus, "one byte count per GPU");
    let mut worst: f64 = 0.0;
    let mut retries = 0u32;
    let mut backoff = 0.0f64;
    for s in 0..topo.num_switches() {
        let bw = topo.degraded_switch_bandwidth(s, plan);
        let gpus = topo.gpus_on_switch(s);
        let load: u64 = gpus.clone().map(|g| per_gpu_bytes[g]).sum();
        let mut t = load as f64 / bw;
        // wasted (dropped) attempts re-send a GPU's share over the same
        // switch, extending the contention window
        for g in gpus {
            if per_gpu_bytes[g] == 0 {
                continue;
            }
            let share = per_gpu_bytes[g] as f64 / bw;
            let spent =
                transfer_with_retry(plan, (g, g, transfer_site), share, &mut retries, &mut backoff)
                    .map_err(|error| FailedTransfer { error, retries, backoff })?;
            t += spent - share;
        }
        worst = worst.max(t);
    }
    Ok(FaultedTransfer {
        time: worst,
        bytes: per_gpu_bytes.iter().sum(),
        retries,
        backoff,
    })
}

/// [`h2d_time`] under a fault plan (see [`crate::fault`]): degraded
/// switches, per-GPU drop/retry, typed failure on budget exhaustion.
/// Bit-identical to [`h2d_time`] when the plan is disarmed.
///
/// # Errors
/// [`FailedTransfer`] with `src == dst == g` for the first GPU `g` whose
/// host link exhausted its retries.
///
/// # Panics
/// Panics if `per_gpu_bytes.len()` ≠ number of GPUs.
pub fn h2d_time_faulted(
    topo: &Topology,
    per_gpu_bytes: &[u64],
    plan: &FaultPlan,
) -> Result<FaultedTransfer, FailedTransfer> {
    hostlink_faulted(topo, per_gpu_bytes, plan, site::H2D)
}

/// [`d2h_time`] under a fault plan. PCIe stays full duplex, but the
/// drop rolls are per direction (distinct site tags), so an upstream
/// drop does not imply a downstream one.
///
/// # Errors
/// [`FailedTransfer`] with `src == dst == g` for the first GPU `g` whose
/// host link exhausted its retries.
///
/// # Panics
/// Panics if `per_gpu_bytes.len()` ≠ number of GPUs.
pub fn d2h_time_faulted(
    topo: &Topology,
    per_gpu_bytes: &[u64],
    plan: &FaultPlan,
) -> Result<FaultedTransfer, FailedTransfer> {
    hostlink_faulted(topo, per_gpu_bytes, plan, site::D2H)
}

/// Convenience: `total_bytes` split evenly across all GPUs.
#[must_use]
pub fn broadcast_h2d_time(topo: &Topology, total_bytes: u64) -> f64 {
    let m = topo.num_gpus as u64;
    let per: Vec<u64> = (0..m)
        .map(|g| total_bytes / m + u64::from(g < total_bytes % m))
        .collect();
    h2d_time(topo, &per)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulated_bandwidth_matches_paper() {
        let topo = Topology::p100_quad(4);
        let total: u64 = 32 << 30; // the paper's 32 GB workload
        let t = broadcast_h2d_time(&topo, total);
        let accum = total as f64 / t;
        assert!((21.0e9..23.0e9).contains(&accum), "accumulated {accum:.3e}");
    }

    #[test]
    fn switch_contention_halves_per_gpu_rate() {
        let topo = Topology::p100_quad(4);
        let solo = h2d_time(&topo, &[1 << 30, 0, 0, 0]);
        let shared = h2d_time(&topo, &[1 << 30, 1 << 30, 0, 0]);
        assert!((shared / solo - 2.0).abs() < 1e-9);
        // but a transfer on the other switch is free parallelism
        let split = h2d_time(&topo, &[1 << 30, 0, 1 << 30, 0]);
        assert!((split / solo - 1.0).abs() < 1e-9);
    }

    #[test]
    fn d2h_is_symmetric() {
        let topo = Topology::p100_quad(2);
        let b = [123 << 20, 456 << 20];
        assert_eq!(h2d_time(&topo, &b), d2h_time(&topo, &b));
    }

    #[test]
    fn broadcast_splits_remainders() {
        let topo = Topology::p100_quad(4);
        // 10 bytes over 4 GPUs: 3,3,2,2 — just ensure no panic and > 0
        assert!(broadcast_h2d_time(&topo, 10) > 0.0);
        assert_eq!(broadcast_h2d_time(&topo, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "one byte count per GPU")]
    fn wrong_length_rejected() {
        let topo = Topology::p100_quad(4);
        let _ = h2d_time(&topo, &[1, 2]);
    }

    #[test]
    fn disarmed_faulted_variants_are_bit_identical() {
        let topo = Topology::p100_quad(4);
        let bytes = [1 << 30, 123 << 10, 0, 42];
        let plan = FaultPlan::default();
        let up = h2d_time_faulted(&topo, &bytes, &plan).unwrap();
        assert_eq!(up.time.to_bits(), h2d_time(&topo, &bytes).to_bits());
        assert_eq!((up.retries, up.backoff), (0, 0.0));
        let down = d2h_time_faulted(&topo, &bytes, &plan).unwrap();
        assert_eq!(down.time.to_bits(), d2h_time(&topo, &bytes).to_bits());
    }

    #[test]
    fn degraded_switch_slows_only_its_gpus() {
        let topo = Topology::p100_quad(4);
        let plan = FaultPlan::default().with_seed(3).with_link_degrade(1.0, 2.0);
        let solo = |b: &[u64; 4]| h2d_time_faulted(&topo, b, &plan).unwrap().time;
        // every switch degraded 2×: both phases double exactly
        assert!(
            (solo(&[1 << 30, 0, 0, 0]) / h2d_time(&topo, &[1 << 30, 0, 0, 0]) - 2.0).abs() < 1e-9
        );
    }

    #[test]
    fn killed_gpu_fails_its_host_link() {
        let topo = Topology::p100_quad(4);
        let plan = FaultPlan::default().with_kill(3);
        let err = h2d_time_faulted(&topo, &[10, 10, 10, 10], &plan).unwrap_err().error;
        assert_eq!((err.src, err.dst), (3, 3));
        // a batch that skips the dead GPU sails through
        let ok = h2d_time_faulted(&topo, &[10, 10, 10, 0], &plan);
        assert!(ok.is_ok());
    }
}
