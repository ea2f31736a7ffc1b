//! The link graph of a multi-GPU node.

use serde::{Deserialize, Serialize};

/// Interconnect topology: NVLink peer-to-peer bandwidths plus the PCIe
/// switch layout towards the host, over the *partitions* of one table —
/// one per GPU on the Fig. 6 node, several on one device for §VI's
/// sharded table ([`Topology::one_device`]).
///
/// Bandwidths are *effective* bytes/second per direction (peak × an
/// efficiency factor covering protocol overhead), so transfer times come
/// straight out of `bytes / bandwidth`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Topology {
    /// Number of partitions (GPUs on the Fig. 6 node).
    pub num_gpus: usize,
    /// `nvlink[i][j]`: effective bandwidth of the direct i→j path in
    /// bytes/s (0 on the diagonal); between two partitions of one device,
    /// that device's streaming bandwidth. Symmetric.
    pub nvlink: Vec<Vec<f64>>,
    /// For each partition, the index of the device that hosts it.
    pub device_of: Vec<usize>,
    /// For each partition, the index of the PCIe switch it hangs off.
    pub switch_of: Vec<usize>,
    /// Effective bandwidth of each PCIe switch in bytes/s (shared by all
    /// GPUs on that switch, full duplex).
    pub switch_bandwidth: Vec<f64>,
}

/// Peak NVLink bandwidth per link and direction on the paper's node.
pub const NVLINK_PEAK: f64 = 20.0e9;
/// Efficiency factor calibrated to the paper's measured ≈192 GB/s
/// accumulated all-to-all bandwidth (vs 240 GB/s theoretical).
pub const NVLINK_EFFICIENCY: f64 = 0.80;
/// Peak PCIe bandwidth per switch on the paper's node (2 × 12 GB/s total).
pub const PCIE_SWITCH_PEAK: f64 = 12.0e9;
/// Efficiency calibrated to the ≈22 GB/s measured accumulated H2D rate
/// (vs 24 GB/s theoretical, §V-A).
pub const PCIE_EFFICIENCY: f64 = 22.0 / 24.0;

impl Topology {
    /// The Fig. 6 node: `m ∈ 1..=4` P100s.
    ///
    /// At least one 20 GB/s bidirectional NVLink edge between every GPU
    /// pair; the two parallel edges of the 2D-hypercube subnetwork —
    /// (0,1) and (2,3) — carry a second link, i.e. 40 GB/s. Each PCIe
    /// switch serves one GPU pair: switch 0 → GPUs {0,1}, switch 1 →
    /// GPUs {2,3}.
    ///
    /// # Panics
    /// Panics unless `1 ≤ m ≤ 4`.
    #[must_use]
    pub fn p100_quad(m: usize) -> Self {
        assert!((1..=4).contains(&m), "the Fig. 6 node has 1..=4 GPUs");
        let mut nvlink = vec![vec![0.0; m]; m];
        #[allow(clippy::needless_range_loop)] // symmetric (i, j) matrix fill
        for i in 0..m {
            for j in 0..m {
                if i == j {
                    continue;
                }
                let doubled = matches!((i.min(j), i.max(j)), (0, 1) | (2, 3));
                let links = if doubled { 2.0 } else { 1.0 };
                nvlink[i][j] = links * NVLINK_PEAK * NVLINK_EFFICIENCY;
            }
        }
        let switch_of: Vec<usize> = (0..m).map(|g| g / 2).collect();
        let num_switches = switch_of.iter().copied().max().unwrap_or(0) + 1;
        Self {
            num_gpus: m,
            nvlink,
            device_of: (0..m).collect(),
            switch_of,
            switch_bandwidth: vec![PCIE_SWITCH_PEAK * PCIE_EFFICIENCY; num_switches],
        }
    }

    /// §VI's sharded table: `s` partitions on one device behind one PCIe
    /// switch. A partition's chunk for another moves as a device-local
    /// copy at `spec`'s streaming bandwidth ([`crate::alltoall`]).
    #[must_use]
    pub fn one_device(s: usize, spec: &gpu_sim::DeviceSpec) -> Self {
        let local = |i, j| if i == j { 0.0 } else { spec.stream_bandwidth() };
        Self {
            num_gpus: s,
            nvlink: (0..s).map(|i| (0..s).map(|j| local(i, j)).collect()).collect(),
            device_of: vec![0; s],
            switch_of: vec![0; s],
            switch_bandwidth: vec![PCIE_SWITCH_PEAK * PCIE_EFFICIENCY],
        }
    }

    /// Effective bandwidth of the direct path i→j.
    ///
    /// # Panics
    /// Panics if `i == j` or out of range.
    #[must_use]
    pub fn peer_bandwidth(&self, i: usize, j: usize) -> f64 {
        assert!(i != j, "no self-link");
        self.nvlink[i][j]
    }

    /// Effective bandwidth of the direct path i→j under `plan`'s
    /// persistent link degradation (trained-down links divide their rate
    /// by the plan's degrade factor; a disarmed plan is the identity).
    ///
    /// # Panics
    /// Panics if `i == j` or out of range.
    #[must_use]
    pub fn degraded_peer_bandwidth(&self, i: usize, j: usize, plan: &gpu_sim::FaultPlan) -> f64 {
        self.peer_bandwidth(i, j) / plan.link_factor(i, j)
    }

    /// Effective bandwidth of PCIe switch `s` under `plan`'s persistent
    /// link degradation.
    #[must_use]
    pub fn degraded_switch_bandwidth(&self, s: usize, plan: &gpu_sim::FaultPlan) -> f64 {
        self.switch_bandwidth[s] / plan.switch_factor(s)
    }

    /// GPUs attached to PCIe switch `s`, ascending.
    pub fn gpus_on_switch(&self, s: usize) -> impl Iterator<Item = usize> + Clone + '_ {
        (0..self.num_gpus).filter(move |&g| self.switch_of[g] == s)
    }

    /// Number of PCIe switches.
    #[must_use]
    pub fn num_switches(&self) -> usize {
        self.switch_bandwidth.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quad_matches_fig6() {
        let t = Topology::p100_quad(4);
        assert_eq!(t.num_gpus, 4);
        // doubled edges
        let d = 2.0 * NVLINK_PEAK * NVLINK_EFFICIENCY;
        let s = NVLINK_PEAK * NVLINK_EFFICIENCY;
        assert_eq!(t.peer_bandwidth(0, 1), d);
        assert_eq!(t.peer_bandwidth(2, 3), d);
        assert_eq!(t.peer_bandwidth(0, 2), s);
        assert_eq!(t.peer_bandwidth(1, 3), s);
        assert_eq!(t.peer_bandwidth(0, 3), s);
        // symmetry
        for i in 0..4 {
            for j in 0..4 {
                if i != j {
                    assert_eq!(t.nvlink[i][j], t.nvlink[j][i]);
                }
            }
        }
        // switches: {0,1} and {2,3}
        assert!(t.gpus_on_switch(0).eq([0, 1]));
        assert!(t.gpus_on_switch(1).eq([2, 3]));
        assert_eq!(t.device_of, [0, 1, 2, 3]);
        // ≈22 GB/s accumulated host bandwidth
        let total: f64 = t.switch_bandwidth.iter().sum();
        assert!((total - 22.0e9).abs() < 0.1e9, "{total}");
    }

    #[test]
    fn single_gpu_node_has_one_switch_no_links() {
        let t = Topology::p100_quad(1);
        assert_eq!(t.num_switches(), 1);
        assert!(t.gpus_on_switch(0).eq([0]));
    }

    #[test]
    fn one_partition_on_one_device_is_the_single_gpu_node() {
        let spec = gpu_sim::DeviceSpec::p100();
        assert_eq!(Topology::one_device(1, &spec), Topology::p100_quad(1));
        let t = Topology::one_device(4, &spec);
        assert_eq!((&t.device_of[..], t.num_switches()), (&[0; 4][..], 1));
        assert_eq!(t.nvlink[1][3], spec.stream_bandwidth());
    }

    #[test]
    #[should_panic(expected = "1..=4")]
    fn more_than_four_gpus_rejected() {
        let _ = Topology::p100_quad(5);
    }

    #[test]
    #[should_panic(expected = "self-link")]
    fn self_link_rejected() {
        let t = Topology::p100_quad(2);
        let _ = t.peer_bandwidth(1, 1);
    }
}
