//! Device specifications and calibrated timing constants.

use serde::{Deserialize, Serialize};

/// Static description of a simulated CUDA device.
///
/// The default instance models the NVIDIA Tesla P100 boards of the paper's
/// Mogon II evaluation node (§V-A): 56 SMs @ 1.48 GHz, 16 GB HBM2 with
/// 720 GB/s peak bandwidth addressed via 8 memory interfaces.
///
/// Throughput constants are *calibrated*, not measured: they were chosen so
/// that the simulated WarpDrive kernels land inside the rate ranges the
/// paper reports (see DESIGN.md §4), and are then held fixed across all
/// experiments and baselines so every comparison is apples-to-apples.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeviceSpec {
    /// Human-readable device name.
    pub name: String,
    /// Number of streaming multiprocessors.
    pub num_sms: u32,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Peak HBM2 bandwidth in bytes/second.
    pub mem_bandwidth: f64,
    /// Fraction of peak bandwidth achievable for fully coalesced streams.
    pub stream_efficiency: f64,
    /// Fraction of peak bandwidth achievable for random 32-byte
    /// transactions (TLB / row-buffer limited).
    pub random_efficiency: f64,
    /// Memory transaction granularity in bytes (32 on Pascal).
    pub transaction_bytes: u64,
    /// Average global-memory round-trip latency in seconds.
    pub mem_latency: f64,
    /// Maximum resident threads across the device
    /// (`num_sms * 2048` on Pascal).
    pub max_resident_threads: u32,
    /// Peak throughput of 64-bit global atomic CAS on L2-resident lines
    /// (the WarpDrive pattern: CAS follows the window load), ops/second.
    pub cas_throughput: f64,
    /// Peak throughput of other warm global atomics (add/or on hot
    /// counter/ticket words), ops/second.
    pub atomic_throughput: f64,
    /// Throughput of *cold* atomics — RMWs on lines not in L2, each a
    /// DRAM round-trip (the cuckoo eviction pattern), ops/second.
    pub cold_atomic_throughput: f64,
    /// Working-set size above which lock-free CAS degrades because
    /// operations spread across several HBM2 memory interfaces — the
    /// artifact the paper identifies in §V-C to explain both the insert
    /// slowdown for n > 2³⁰ and the super-linear strong scaling.
    pub cas_degradation_threshold: u64,
    /// Multiplier (< 1) applied to CAS throughput above the threshold.
    pub cas_degradation_factor: f64,
    /// Fixed kernel launch overhead in seconds.
    pub launch_overhead: f64,
    /// Total video memory in bytes.
    pub vram_bytes: u64,
}

impl DeviceSpec {
    /// Tesla P100 (SXM2, 16 GB HBM2) as in the paper's testbed.
    #[must_use]
    pub fn p100() -> Self {
        Self {
            name: "Tesla P100-sim".to_owned(),
            num_sms: 56,
            clock_ghz: 1.48,
            mem_bandwidth: 720.0e9,
            stream_efficiency: 0.78,
            random_efficiency: 0.30,
            transaction_bytes: 32,
            mem_latency: 430.0e-9,
            max_resident_threads: 56 * 2048,
            cas_throughput: 4.00e9,
            atomic_throughput: 6.50e9,
            cold_atomic_throughput: 3.70e9,
            cas_degradation_threshold: 2 << 30, // 2 GiB
            cas_degradation_factor: 0.50,
            launch_overhead: 6.0e-6,
            vram_bytes: 16 << 30,
        }
    }

    /// A deliberately small device for unit tests: identical constants but
    /// tiny VRAM so out-of-memory paths can be exercised cheaply.
    #[must_use]
    pub fn test_small(vram_bytes: u64) -> Self {
        Self {
            name: "test-device".to_owned(),
            vram_bytes,
            ..Self::p100()
        }
    }

    /// Effective streaming bandwidth in bytes/second.
    #[must_use]
    pub fn stream_bandwidth(&self) -> f64 {
        self.mem_bandwidth * self.stream_efficiency
    }

    /// Effective random-transaction bandwidth in bytes/second.
    #[must_use]
    pub fn random_bandwidth(&self) -> f64 {
        self.mem_bandwidth * self.random_efficiency
    }

    /// `time` net of the fixed overhead of `launches` kernel launches.
    /// At the paper's 2²⁷ elements that overhead is invisible, so runs
    /// scaled down functionally compare and extrapolate without it.
    #[must_use]
    pub fn net_of_launches(&self, time: f64, launches: u32) -> f64 {
        time - f64::from(launches) * self.launch_overhead
    }

    /// CAS throughput for a kernel whose hot working set spans
    /// `working_set` bytes.
    ///
    /// §V-C/§VI: "single-GPU performance decreases *gradually* for
    /// capacities c > 2 GB", bottoming out at about half rate once CAS
    /// traffic spreads across all 8 HBM2 memory interfaces. Modeled as a
    /// linear ramp from full throughput at the threshold down to
    /// `cas_degradation_factor` at 4× the threshold.
    #[must_use]
    pub fn effective_cas_throughput(&self, working_set: u64) -> f64 {
        let t = self.cas_degradation_threshold as f64;
        let ws = working_set as f64;
        if ws <= t {
            return self.cas_throughput;
        }
        let ramp = ((ws / t - 1.0) / 1.2).min(1.0); // 0 at T, 1 at 2.2T
        let factor = 1.0 - (1.0 - self.cas_degradation_factor) * ramp;
        self.cas_throughput * factor
    }
}

impl Default for DeviceSpec {
    fn default() -> Self {
        Self::p100()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p100_constants_sane() {
        let s = DeviceSpec::p100();
        assert_eq!(s.max_resident_threads, 114_688);
        assert!(s.stream_bandwidth() > 500.0e9);
        assert!(s.random_bandwidth() < s.stream_bandwidth());
        assert_eq!(s.vram_bytes, 16 * 1024 * 1024 * 1024);
    }

    #[test]
    fn cas_degradation_ramps_above_2gib() {
        let s = DeviceSpec::p100();
        assert_eq!(s.effective_cas_throughput(1 << 30), s.cas_throughput);
        assert_eq!(s.effective_cas_throughput(2 << 30), s.cas_throughput);
        let mid = s.effective_cas_throughput(3 << 30);
        assert!(mid < s.cas_throughput && mid > s.cas_throughput * 0.5);
        // floor at 2.5× the threshold and beyond
        let floor = s.effective_cas_throughput(6 << 30);
        assert!((floor - s.cas_throughput * 0.5).abs() < 1.0);
        assert!((s.effective_cas_throughput(12 << 30) - floor).abs() < 1.0);
    }

    #[test]
    fn test_small_overrides_vram_only() {
        let s = DeviceSpec::test_small(1 << 20);
        assert_eq!(s.vram_bytes, 1 << 20);
        assert_eq!(s.num_sms, DeviceSpec::p100().num_sms);
    }
}
