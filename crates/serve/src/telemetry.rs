//! Live service telemetry on the modeled clock.
//!
//! Latency is tracked in logarithmic buckets (one per power of two of
//! nanoseconds), so quantile queries are O(buckets), memory is constant,
//! and — because bucket assignment is integer arithmetic on the modeled
//! times — every quantile is bit-deterministic across runs.

use warpdrive::OpReport;

/// Number of power-of-two latency buckets (covers 1 ns … ~584 years).
const BUCKETS: usize = 64;

/// A fixed-size log₂ histogram of modeled latencies.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: [u64; BUCKETS],
    total: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            counts: [0; BUCKETS],
            total: 0,
        }
    }
}

impl LatencyHistogram {
    /// Index of the bucket holding `seconds` (sub-nanosecond clamps to
    /// bucket 0).
    fn bucket(seconds: f64) -> usize {
        let ns = (seconds * 1e9).max(0.0) as u64;
        (64 - ns.max(1).leading_zeros() as usize - 1).min(BUCKETS - 1)
    }

    /// Records one latency sample (seconds, modeled clock).
    pub fn record(&mut self, seconds: f64) {
        self.counts[Self::bucket(seconds)] += 1;
        self.total += 1;
    }

    /// Samples recorded.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Whether no sample has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The upper bound (seconds) of the bucket holding the `q`-quantile
    /// sample, or 0.0 when empty. `q` is clamped to `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // upper edge of bucket i: 2^(i+1) ns. The last bucket's
                // true edge (2^64 ns) does not fit a u64; saturate to
                // u64::MAX so it stays strictly above bucket 62's edge
                // and quantiles remain monotone in bucket index.
                let ns = if i + 1 >= BUCKETS {
                    u64::MAX
                } else {
                    1u64 << (i + 1)
                };
                return ns as f64 * 1e-9;
            }
        }
        unreachable!("rank is at most total");
    }

    /// Median latency (bucket upper bound, seconds).
    #[must_use]
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 99th-percentile latency (bucket upper bound, seconds).
    #[must_use]
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

/// Service-wide telemetry, merged across every flush.
#[derive(Debug, Default)]
pub struct ServiceTelemetry {
    /// Batches flushed to the backend.
    pub flushes: u64,
    /// Ops flushed (sum of batch sizes).
    pub flushed_ops: u64,
    /// Flushes forced by the size threshold.
    pub size_flushes: u64,
    /// Flushes forced by the max-delay threshold.
    pub delay_flushes: u64,
    /// Watermark crossings handed to the backend's incremental resize
    /// (each one admitted a put that would otherwise have been shed).
    pub resizes: u64,
    /// Merged cost report of every flush (time, backoff, counters), its
    /// cascade stages folded into one row per stage.
    pub report: OpReport,
    /// End-to-end latency across all tenants: flush end − arrival.
    pub latency: LatencyHistogram,
    /// Each op's queue wait: flush start − arrival.
    pub queue_wait: LatencyHistogram,
    /// Each op's service time: the modeled duration of its flush.
    pub service: LatencyHistogram,
}

impl ServiceTelemetry {
    /// Mean flushed batch size.
    #[must_use]
    pub fn mean_batch(&self) -> f64 {
        if self.flushes == 0 {
            0.0
        } else {
            self.flushed_ops as f64 / self.flushes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The log₂ histogram's quantile brackets the exact sample
        /// quantile: bucket lower edge ≤ exact ≤ reported upper edge.
        /// Both compute rank = max(1, ceil(q·n)) over the same multiset
        /// and the bucket map is monotone in nanoseconds, so the rank-th
        /// smallest sample lies inside the reported bucket.
        #[test]
        fn quantile_brackets_the_exact_sample_quantile(
            samples in proptest::collection::vec(1u64..(1u64 << 53), 1..200),
            q_mille in 0u32..=1000,
        ) {
            let q = f64::from(q_mille) / 1000.0;
            let mut h = LatencyHistogram::default();
            for &ns in &samples {
                h.record(ns as f64 * 1e-9);
            }
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
            let exact = sorted[rank - 1] as f64 * 1e-9;
            let upper = h.quantile(q);
            let lower = upper / 2.0;
            // 1e-6 relative slack absorbs the ns → seconds → ns round
            // trip at power-of-two bucket edges
            prop_assert!(
                exact <= upper * (1.0 + 1e-6),
                "exact {exact} above reported upper bound {upper}"
            );
            prop_assert!(
                exact >= lower * (1.0 - 1e-6),
                "exact {exact} below bucket lower bound {lower}"
            );
        }
    }

    #[test]
    fn quantiles_are_monotone_and_bracket_samples() {
        let mut h = LatencyHistogram::default();
        for i in 1..=1000u64 {
            h.record(i as f64 * 1e-6); // 1 µs … 1 ms
        }
        assert_eq!(h.len(), 1000);
        let (p50, p99) = (h.p50(), h.p99());
        assert!(p50 <= p99, "p50 {p50} > p99 {p99}");
        // p50 bucket upper bound must be within a factor-2 of 500 µs
        assert!((2.5e-4..=1.1e-3).contains(&p50), "p50 {p50}");
        assert!(p99 >= 5.0e-4, "p99 {p99}");
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::default();
        assert!(h.is_empty());
        assert_eq!(h.p50(), 0.0);
        assert_eq!(h.p99(), 0.0);
    }

    #[test]
    fn extreme_latencies_clamp_into_range() {
        let mut h = LatencyHistogram::default();
        h.record(0.0);
        h.record(1e12);
        assert_eq!(h.len(), 2);
        assert!(h.p99() > 0.0);

        // regression: the two top buckets used to share one reported
        // upper edge (2^63 ns), making tail quantiles non-monotone in
        // bucket index. 6.5e9 s ≈ 2^62.5 ns lands in bucket 62; 1e12 s
        // saturates the f64 → u64 cast into bucket 63. Their bounds must
        // differ, with the last bucket's saturating to u64::MAX ns.
        let mut t = LatencyHistogram::default();
        t.record(6.5e9);
        t.record(1e12);
        let (p50, p99) = (t.p50(), t.p99());
        assert!(
            p50 < p99,
            "buckets 62 and 63 collapsed: p50 {p50} !< p99 {p99}"
        );
        assert!((p50 - (1u64 << 63) as f64 * 1e-9).abs() < 1.0, "p50 {p50}");
        assert!((p99 - u64::MAX as f64 * 1e-9).abs() < 1.0, "p99 {p99}");
    }
}
