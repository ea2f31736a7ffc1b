//! Exact nearest-rank percentiles and the SLO ladder's pass rule.
//!
//! Nearest rank: the p-th percentile of n samples is the sample at rank
//! ⌈p·n/100⌉ of the sorted list, so the result is always one of the samples
//! and repeats bit for bit when the samples do. With weights, a sample of
//! weight w stands for w equal samples (a batch call's latency is the
//! latency of every op it carried).

/// Fewest samples for which a 99th percentile is reported: ten samples lie
/// beyond it.
pub const P99_MIN_SAMPLES: u64 = 1_000;

/// Nearest-rank percentile `p` (0 < p ≤ 100) of weighted samples.
///
/// # Panics
/// Panics if the total weight is zero or `p` is outside (0, 100].
#[must_use]
pub fn weighted_percentile(samples: &[(f64, u64)], p: f64) -> f64 {
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    let total: u64 = samples.iter().map(|s| s.1).sum();
    assert!(total > 0, "percentile of no samples");
    let mut sorted: Vec<(f64, u64)> = samples.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let rank = ((p / 100.0) * total as f64).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (value, weight) in sorted {
        seen += weight;
        if seen >= rank {
            return value;
        }
    }
    unreachable!("rank {rank} exceeds total weight {total}")
}

/// Nearest-rank percentile of unweighted samples.
///
/// # Panics
/// As [`weighted_percentile`].
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let weighted: Vec<(f64, u64)> = samples.iter().map(|&v| (v, 1)).collect();
    weighted_percentile(&weighted, p)
}

/// Nearest-rank median.
///
/// # Panics
/// Panics on an empty slice.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The 99th percentile, or `None` with fewer than [`P99_MIN_SAMPLES`]
/// samples (by weight).
#[must_use]
pub fn p99(samples: &[(f64, u64)]) -> Option<f64> {
    let total: u64 = samples.iter().map(|s| s.1).sum();
    (total >= P99_MIN_SAMPLES).then(|| weighted_percentile(samples, 99.0))
}

/// One rung of the SLO ladder: an open-loop trace replayed at a fixed rate.
#[derive(Debug, Clone, PartialEq)]
pub struct Rung {
    /// Arrival rate of the trace, ops/s.
    pub rate: f64,
    /// Per-request latency from the time each request was due, in arrival
    /// order.
    pub latencies: Vec<f64>,
    /// Requests refused or failed.
    pub rejects: u64,
}

impl Rung {
    /// p99 over the whole trace.
    #[must_use]
    pub fn p99(&self) -> f64 {
        percentile(&self.latencies, 99.0)
    }

    /// p99 over the last quarter of the trace, where a backlog that grows
    /// shows: a queue that never drains makes late requests slower than
    /// early ones.
    #[must_use]
    pub fn p99_last_quarter(&self) -> f64 {
        let quarter = (self.latencies.len() / 4).max(1);
        percentile(&self.latencies[self.latencies.len() - quarter..], 99.0)
    }

    /// Whether the rung meets `limit` seconds: nothing refused, and p99
    /// within the limit over the whole trace and over its last quarter.
    #[must_use]
    pub fn passes(&self, limit: f64) -> bool {
        self.rejects == 0 && self.p99() <= limit && self.p99_last_quarter() <= limit
    }
}

/// The highest rate that passes with every lower rate passing too; 0 when
/// the lowest rung already fails. `rungs` must be in ascending rate order.
#[must_use]
pub fn slo_rate(rungs: &[Rung], limit: f64) -> f64 {
    rungs
        .iter()
        .take_while(|r| r.passes(limit))
        .last()
        .map_or(0.0, |r| r.rate)
}
