//! Analytical timing model converting access-pattern counters into
//! simulated seconds.
//!
//! A kernel's simulated execution time combines four throughput terms and
//! one latency term plus a fixed launch overhead:
//!
//! ```text
//! t_throughput = stream_bytes / BW_stream       -- coalesced streaming
//!              + transactions·32 / BW_random    -- irregular probing
//!              + cas_ops / R_cas(working_set)   -- warm CAS serialization
//!              + atomic_ops / R_atomic          -- warm atomic RMWs
//!              + cold_atomics / R_cold          -- cold (DRAM) RMWs
//! t = max(t_throughput, group_steps·L / groups_in_flight + chain·L) + t_launch
//! ```
//!
//! Throughput terms *add*: atomics and irregular transactions contend for
//! the same memory pipeline, so a CAS-heavy insert pays both its sector
//! traffic and its serialization (this additive structure is what bends
//! the paper's Fig. 7 insert curves down as the load factor grows, while
//! queries — CAS-free — stay traffic-bound). The latency term captures
//! the occupancy trade-off of the Fig. 7 discussion: small groups put
//! more groups in flight (`max_resident_threads / |g|`) but probe more
//! windows; large groups probe fewer windows but expose less memory-level
//! parallelism and move more bytes per probe.
//!
//! `chain` is the launch's deepest chain of flag waits
//! (`GroupCtx::poll`): a group that waits for a flag another group
//! publishes after a wait of its own cannot overlap those round-trips
//! with anything, so they are billed whole, not shared out over the
//! groups in flight. It is zero for every kernel that does not wait.

use crate::counters::CounterSnapshot;
use crate::simt::GroupSize;
use crate::spec::DeviceSpec;

/// Timing model bound to a device specification.
#[derive(Debug, Clone)]
pub struct TimingModel {
    spec: DeviceSpec,
}

/// Breakdown of a kernel-time estimate (useful for reports and tests).
#[derive(Debug, Clone, Copy, Default)]
pub struct TimeBreakdown {
    /// Streaming-bandwidth term, seconds.
    pub stream: f64,
    /// Random-transaction bandwidth term, seconds.
    pub random: f64,
    /// CAS-throughput term, seconds.
    pub cas: f64,
    /// Warm-atomics term, seconds.
    pub atomic: f64,
    /// Cold-atomics term, seconds.
    pub cold: f64,
    /// Latency/occupancy term, seconds.
    pub latency: f64,
    /// Fixed launch overhead, seconds.
    pub overhead: f64,
}

impl TimeBreakdown {
    /// Sum of the throughput (pipeline-contention) terms.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        self.stream + self.random + self.cas + self.atomic + self.cold
    }

    /// Total simulated kernel time.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.throughput().max(self.latency) + self.overhead
    }

    /// Name of the binding (dominant) term.
    #[must_use]
    pub fn binding_term(&self) -> &'static str {
        let terms = [
            (self.stream, "stream"),
            (self.random, "random"),
            (self.cas, "cas"),
            (self.atomic, "atomic"),
            (self.cold, "cold"),
            (self.latency, "latency"),
        ];
        terms
            .iter()
            .max_by(|a, b| a.0.total_cmp(&b.0))
            .map_or("none", |t| t.1)
    }
}

impl TimingModel {
    /// Builds a model for `spec`.
    #[must_use]
    pub fn new(spec: DeviceSpec) -> Self {
        Self { spec }
    }

    /// The underlying device specification.
    #[must_use]
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Estimates the simulated time of one kernel launch.
    ///
    /// * `counters` — what the functional execution measured.
    /// * `group_size` — coalesced-group size of the launch (occupancy).
    /// * `num_groups` — groups launched (informational; the latency term
    ///   assumes a *saturated* grid — `max_resident_threads / |g|` groups
    ///   in flight — because experiments launch element-proportional
    ///   grids and scaled-down functional runs must extrapolate linearly
    ///   to paper-scale grids).
    /// * `working_set` — bytes of the hot data structure **at modeled
    ///   scale**; drives the >2 GB CAS degradation artifact. Pass the
    ///   functional size when no scaling is in effect.
    #[must_use]
    pub fn kernel_time(
        &self,
        counters: CounterSnapshot,
        group_size: GroupSize,
        num_groups: u64,
        working_set: u64,
    ) -> TimeBreakdown {
        let s = &self.spec;
        let _ = num_groups;
        let resident_groups =
            (u64::from(s.max_resident_threads) / u64::from(group_size.get())).max(1) as f64;
        TimeBreakdown {
            stream: counters.stream_bytes as f64 / s.stream_bandwidth(),
            random: counters.random_bytes(s.transaction_bytes) as f64 / s.random_bandwidth(),
            cas: counters.cas_ops as f64 / s.effective_cas_throughput(working_set),
            atomic: counters.atomic_ops as f64 / s.atomic_throughput,
            cold: counters.cold_atomics as f64 / s.cold_atomic_throughput,
            latency: counters.group_steps as f64 * s.mem_latency / resident_groups,
            overhead: s.launch_overhead,
        }
    }

    /// Seconds of a chain of `depth` dependent flag waits: a memory
    /// round-trip each, which the launch's latency term adds whole.
    #[must_use]
    pub fn chain_latency(&self, depth: u64) -> f64 {
        depth as f64 * self.spec.mem_latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap() -> CounterSnapshot {
        CounterSnapshot {
            transactions: 1_000_000,
            stream_bytes: 8_000_000,
            cas_ops: 500_000,
            cas_failed: 10_000,
            atomic_ops: 0,
            group_steps: 2_000_000,
            groups: 1_000_000,
            ..Default::default()
        }
    }

    #[test]
    fn total_combines_terms_plus_overhead() {
        let m = TimingModel::new(DeviceSpec::p100());
        let b = m.kernel_time(snap(), GroupSize::new(4), 1_000_000, 1 << 20);
        let expected =
            (b.stream + b.random + b.cas + b.atomic + b.cold).max(b.latency) + b.overhead;
        assert!((b.total() - expected).abs() < 1e-15);
        assert!(b.throughput() > 0.0);
    }

    #[test]
    fn more_transactions_is_never_faster() {
        let m = TimingModel::new(DeviceSpec::p100());
        let a = m.kernel_time(snap(), GroupSize::new(4), 1_000_000, 1 << 20);
        let mut s2 = snap();
        s2.transactions *= 10;
        let b = m.kernel_time(s2, GroupSize::new(4), 1_000_000, 1 << 20);
        assert!(b.total() >= a.total());
    }

    #[test]
    fn cas_degradation_slows_large_working_sets() {
        let m = TimingModel::new(DeviceSpec::p100());
        let mut s = snap();
        s.cas_ops = 100_000_000; // make CAS the binding term
        let small = m.kernel_time(s, GroupSize::new(4), 1_000_000, 1 << 30);
        let large = m.kernel_time(s, GroupSize::new(4), 1_000_000, 8 << 30);
        assert!(large.total() > small.total() * 1.8);
        assert_eq!(large.binding_term(), "cas");
    }

    #[test]
    fn small_groups_expose_more_latency_parallelism() {
        let m = TimingModel::new(DeviceSpec::p100());
        let s = snap();
        let g1 = m.kernel_time(s, GroupSize::new(1), u64::MAX, 1 << 20);
        let g32 = m.kernel_time(s, GroupSize::new(32), u64::MAX, 1 << 20);
        // same steps, 32× fewer groups in flight → 32× the latency term
        assert!((g32.latency / g1.latency - 32.0).abs() < 1e-9);
    }

    #[test]
    fn latency_term_is_grid_size_invariant() {
        // scaled-down runs must extrapolate linearly: the same counters
        // yield the same latency estimate regardless of grid size
        let m = TimingModel::new(DeviceSpec::p100());
        let s = snap();
        let many = m.kernel_time(s, GroupSize::new(1), u64::MAX, 1 << 20);
        let few = m.kernel_time(s, GroupSize::new(1), 64, 1 << 20);
        assert_eq!(few.latency, many.latency);
    }

    #[test]
    fn binding_term_names_dominant_resource() {
        let m = TimingModel::new(DeviceSpec::p100());
        let s = CounterSnapshot {
            stream_bytes: 1 << 40,
            ..Default::default()
        };
        let b = m.kernel_time(s, GroupSize::new(4), 1024, 0);
        assert_eq!(b.binding_term(), "stream");
    }
}
