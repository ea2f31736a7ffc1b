//! Nearest-rank percentiles and the ladder's pass rule.

use wd_benchmark::stats::{median, p99, percentile, slo_rate, weighted_percentile, Rung};

#[test]
fn percentiles_are_nearest_rank_samples() {
    let v = [5.0, 1.0, 4.0, 2.0, 3.0];
    assert_eq!(median(&v), 3.0);
    assert_eq!(percentile(&v, 20.0), 1.0);
    assert_eq!(percentile(&v, 21.0), 2.0);
    assert_eq!(percentile(&v, 100.0), 5.0);
    // even count: the lower middle sample, never an average
    assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.0);
    let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&hundred, 99.0), 99.0);
    assert_eq!(percentile(&hundred, 99.5), 100.0);
}

#[test]
fn a_weight_stands_for_that_many_samples() {
    // a bulk repetition: two calls of 4 ops, two of 1
    let calls = [(0.5, 4), (0.3, 4), (0.1, 1), (0.2, 1)];
    let spelled_out = [0.5, 0.5, 0.5, 0.5, 0.3, 0.3, 0.3, 0.3, 0.1, 0.2];
    for p in [1.0, 10.0, 20.0, 50.0, 60.0, 61.0, 99.0, 100.0] {
        assert_eq!(
            weighted_percentile(&calls, p),
            percentile(&spelled_out, p),
            "p{p}"
        );
    }
}

#[test]
fn p99_needs_a_thousand_samples() {
    assert_eq!(p99(&[(1.0, 999)]), None);
    assert_eq!(p99(&[(1.0, 990), (2.0, 10)]), Some(1.0));
    assert_eq!(p99(&[(1.0, 989), (2.0, 11)]), Some(2.0));
}

fn rung(rate: f64, latencies: Vec<f64>, rejects: u64) -> Rung {
    Rung {
        rate,
        latencies,
        rejects,
    }
}

#[test]
fn a_growing_backlog_fails_a_rung_whose_overall_p99_passes() {
    let limit = 1e-3;
    // 1000 requests, the last 9 slow: p99 over the trace is a fast request,
    // p99 over the last quarter is a slow one
    let mut latencies = vec![1e-4; 991];
    latencies.extend([5e-3; 9]);
    let backlog = rung(100.0, latencies, 0);
    assert!(backlog.p99() <= limit);
    assert!(backlog.p99_last_quarter() > limit);
    assert!(!backlog.passes(limit));

    // the same nine slow requests spread out are an ordinary tail
    let mut spread = vec![1e-4; 1000];
    for i in 0..9 {
        spread[i * 100] = 5e-3;
    }
    assert!(rung(100.0, spread, 0).passes(limit));

    // a refusal fails the rung whatever the latencies
    assert!(!rung(100.0, vec![1e-4; 1000], 1).passes(limit));
}

#[test]
fn the_slo_rate_is_the_last_rung_before_the_first_failure() {
    let limit = 1e-3;
    let ok = |rate| rung(rate, vec![1e-4; 1000], 0);
    let slow = |rate| rung(rate, vec![2e-3; 1000], 0);
    assert_eq!(
        slo_rate(&[ok(1.0), ok(2.0), slow(4.0), slow(8.0)], limit),
        2.0
    );
    assert_eq!(slo_rate(&[ok(1.0), ok(2.0)], limit), 2.0);
    assert_eq!(slo_rate(&[slow(1.0), ok(2.0)], limit), 0.0);
    // a rung that passes above one that fails does not count
    assert_eq!(slo_rate(&[ok(1.0), slow(2.0), ok(4.0)], limit), 1.0);
}
