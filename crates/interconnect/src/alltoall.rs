//! All-to-all transposition cost model.
//!
//! The distributed multisplit cascade (§IV-B) reshuffles the m×m partition
//! table: GPU `i` sends partition `j ≠ i` directly to GPU `j` over the
//! NVLink edge (i, j); all `m² − m` transfers proceed concurrently. Each
//! directed edge carries exactly one transfer, so the phase completes when
//! the slowest edge finishes:
//!
//! ```text
//! t = max_{i ≠ j}  S[i][j] / bw(i, j)
//! ```
//!
//! With balanced partitions this yields the paper's measured ≈192 GB/s
//! accumulated bandwidth on the quad-P100 node.
//!
//! Two partitions of one device ([`Topology::one_device`]) share no link:
//! what one sends the other is a device-local copy. A device copies the
//! summed bytes of the edges inside it, reading and writing them at its
//! streaming bandwidth, alongside the links, so the phase ends when the
//! slower of the two does.

use crate::fault::{transfer_with_retry, FailedTransfer, FaultedTransfer};
use crate::topology::Topology;
use gpu_sim::{fault::site, FaultPlan};

/// Outcome of an all-to-all phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AllToAllReport {
    /// Simulated wall time of the phase in seconds.
    pub time: f64,
    /// Total off-diagonal bytes moved.
    pub bytes: u64,
}

impl AllToAllReport {
    /// Accumulated bandwidth achieved by the phase.
    #[must_use]
    pub fn accumulated_bandwidth(&self) -> f64 {
        if self.time == 0.0 {
            0.0
        } else {
            self.bytes as f64 / self.time
        }
    }
}

/// Estimates the transposition time for the byte matrix `sizes`, where
/// `sizes(i, j)` is the number of bytes GPU `i` must deliver to GPU `j`
/// for `i, j` below the topology's `m` (diagonal entries stay local, are
/// free and are never asked for).
#[must_use]
pub fn alltoall_time(topo: &Topology, sizes: impl Fn(usize, usize) -> u64) -> AllToAllReport {
    let (mut worst, mut bytes) = local_copies(topo, &sizes);
    for (i, j) in edges(topo, false) {
        let s = sizes(i, j);
        if s == 0 {
            continue;
        }
        bytes += s;
        let t = s as f64 / topo.peer_bandwidth(i, j);
        worst = worst.max(t);
    }
    AllToAllReport { time: worst, bytes }
}

/// The directed edges `(i, j)`, `i ≠ j`, in row-major order that stay
/// inside one device (`local`) or cross between two (`!local`).
fn edges(topo: &Topology, local: bool) -> impl Iterator<Item = (usize, usize)> + '_ {
    let m = topo.num_gpus;
    let inside = |i: usize, j: usize| topo.device_of[i] == topo.device_of[j];
    (0..m)
        .flat_map(move |i| (0..m).map(move |j| (i, j)))
        .filter(move |&(i, j)| i != j && inside(i, j) == local)
}

/// The device-local copies of a phase, devices side by side: the slowest
/// device's time and the bytes of all. Nothing drops or degrades inside
/// a device, so a fault plan leaves them as they are.
fn local_copies(topo: &Topology, sizes: &impl Fn(usize, usize) -> u64) -> (f64, u64) {
    let (mut worst, mut bytes) = (0.0f64, 0u64);
    for d in 0..topo.num_gpus {
        let (mut sum, mut bandwidth) = (0u64, 0.0);
        for (i, j) in edges(topo, true).filter(|&(i, _)| topo.device_of[i] == d) {
            sum += sizes(i, j);
            bandwidth = topo.nvlink[i][j];
        }
        if sum > 0 {
            // read once and written once
            worst = worst.max(2.0 * sum as f64 / bandwidth);
            bytes += sum;
        }
    }
    (worst, bytes)
}

/// [`alltoall_time`] under a fault plan: degraded links carry their
/// trained-down bandwidth, dropped edge transfers retry per
/// [`gpu_sim::RETRY`] (wasted attempts bill against the edge; backoff
/// accumulates separately), and an edge that exhausts its budget fails
/// the phase.
///
/// With a disarmed plan the result is bit-identical to
/// [`alltoall_time`] — the chaos layer's off-mode guarantee.
///
/// # Errors
/// [`FailedTransfer`] naming the first edge (row-major order) whose drop
/// rolls outlasted the retry budget, with the retries and backoff of
/// every edge up to it.
pub fn alltoall_time_faulted(
    topo: &Topology,
    sizes: impl Fn(usize, usize) -> u64,
    plan: &FaultPlan,
) -> Result<FaultedTransfer, FailedTransfer> {
    let (mut worst, mut bytes) = local_copies(topo, &sizes);
    let mut retries = 0u32;
    let mut backoff = 0.0f64;
    for (i, j) in edges(topo, false) {
        let s = sizes(i, j);
        if s == 0 {
            continue;
        }
        bytes += s;
        let t_once = s as f64 / topo.degraded_peer_bandwidth(i, j, plan);
        let t = transfer_with_retry(plan, (i, j, site::ALLTOALL), t_once, &mut retries, &mut backoff)
            .map_err(|error| FailedTransfer { error, retries, backoff })?;
        worst = worst.max(t);
    }
    Ok(FaultedTransfer {
        time: worst,
        bytes,
        retries,
        backoff,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{NVLINK_EFFICIENCY, NVLINK_PEAK};

    fn balanced(m: usize, per_transfer: u64) -> Vec<Vec<u64>> {
        vec![vec![per_transfer; m]; m]
    }

    /// A nested matrix as the cell accessor the model takes.
    fn cells(sizes: &[Vec<u64>]) -> impl Fn(usize, usize) -> u64 + '_ {
        |i, j| sizes[i][j]
    }

    #[test]
    fn balanced_quad_hits_paper_bandwidth_ballpark() {
        let topo = Topology::p100_quad(4);
        // 1 GiB per directed transfer, 12 transfers
        let rep = alltoall_time(&topo, cells(&balanced(4, 1 << 30)));
        let accum = rep.accumulated_bandwidth();
        // paper: ≈192 GB/s; the slowest (single) links bind, doubled links
        // idle early, so accumulated < 12 × 16 GB/s
        assert!(
            (150.0e9..230.0e9).contains(&accum),
            "accumulated {accum:.3e}"
        );
    }

    #[test]
    fn slowest_edge_binds() {
        let topo = Topology::p100_quad(4);
        let mut sizes = balanced(4, 1 << 20);
        sizes[0][2] = 1 << 30; // single link, big payload
        let rep = alltoall_time(&topo, cells(&sizes));
        let expected = (1u64 << 30) as f64 / (NVLINK_PEAK * NVLINK_EFFICIENCY);
        assert!((rep.time - expected).abs() / expected < 1e-12);
    }

    #[test]
    fn diagonal_is_free() {
        let topo = Topology::p100_quad(2);
        let sizes = vec![vec![u64::MAX / 2, 0], vec![0, u64::MAX / 2]];
        let rep = alltoall_time(&topo, cells(&sizes));
        assert_eq!(rep.time, 0.0);
        assert_eq!(rep.bytes, 0);
        assert_eq!(rep.accumulated_bandwidth(), 0.0);
    }

    #[test]
    fn doubled_edges_are_faster() {
        let topo = Topology::p100_quad(4);
        let mut only01 = vec![vec![0u64; 4]; 4];
        only01[0][1] = 1 << 30;
        let mut only02 = vec![vec![0u64; 4]; 4];
        only02[0][2] = 1 << 30;
        let t01 = alltoall_time(&topo, cells(&only01)).time;
        let t02 = alltoall_time(&topo, cells(&only02)).time;
        assert!((t02 / t01 - 2.0).abs() < 1e-9, "t02/t01 = {}", t02 / t01);
    }

    #[test]
    fn disarmed_faulted_variant_is_bit_identical() {
        let topo = Topology::p100_quad(4);
        let mut sizes = balanced(4, 1 << 22);
        sizes[1][3] = 77_777; // unbalanced corner
        let healthy = alltoall_time(&topo, cells(&sizes));
        let faulted = alltoall_time_faulted(&topo, cells(&sizes), &FaultPlan::default()).unwrap();
        assert_eq!(healthy.time.to_bits(), faulted.time.to_bits());
        assert_eq!(healthy.bytes, faulted.bytes);
        assert_eq!(faulted.retries, 0);
        assert_eq!(faulted.backoff, 0.0);
    }

    #[test]
    fn one_device_copies_its_partitions_chunks_through_its_memory() {
        let spec = gpu_sim::DeviceSpec::p100();
        let topo = Topology::one_device(4, &spec);
        let mut sizes = balanced(4, 1 << 20);
        sizes[1][3] = 77_777;
        // the twelve off-diagonal cells
        let total: u64 = 11 * (1 << 20) + 77_777;
        let healthy = alltoall_time(&topo, cells(&sizes));
        let bandwidth = spec.mem_bandwidth * spec.stream_efficiency;
        assert_eq!(healthy.time.to_bits(), (2.0 * total as f64 / bandwidth).to_bits());
        assert_eq!(healthy.bytes, total);
        let faulted = alltoall_time_faulted(&topo, cells(&sizes), &FaultPlan::default()).unwrap();
        assert_eq!(faulted.time.to_bits(), healthy.time.to_bits());
        assert_eq!((faulted.bytes, faulted.retries, faulted.backoff), (total, 0, 0.0));
    }

    #[test]
    fn degraded_link_slows_the_phase() {
        let topo = Topology::p100_quad(4);
        let sizes = balanced(4, 1 << 26);
        let healthy = alltoall_time(&topo, cells(&sizes));
        let plan = FaultPlan::default().with_seed(5).with_link_degrade(1.0, 4.0);
        let slow = alltoall_time_faulted(&topo, cells(&sizes), &plan).unwrap();
        assert!((slow.time / healthy.time - 4.0).abs() < 1e-9);
    }

    #[test]
    fn killed_gpu_fails_its_edges() {
        let topo = Topology::p100_quad(4);
        let plan = FaultPlan::default().with_kill(2);
        let sizes = balanced(4, 1024);
        let err = alltoall_time_faulted(&topo, cells(&sizes), &plan).unwrap_err().error;
        assert!(err.src == 2 || err.dst == 2, "unexpected edge {err}");
    }

    #[test]
    fn drops_retry_and_bill_backoff() {
        let topo = Topology::p100_quad(4);
        let sizes = balanced(4, 1 << 22);
        // 12 edges at 50% drop: a seed whose phase completes within the
        // retry budget essentially always retried an edge on the way
        for seed in 0..64 {
            let plan = FaultPlan::default().with_seed(seed).with_transfer_drop(0.5);
            let Ok(rep) = alltoall_time_faulted(&topo, cells(&sizes), &plan) else {
                continue;
            };
            if rep.retries > 0 {
                assert!(rep.backoff > 0.0);
                assert!(rep.time >= alltoall_time(&topo, cells(&sizes)).time);
                return;
            }
        }
        panic!("no retries observed across 64 seeds at 50% drop rate");
    }
}
