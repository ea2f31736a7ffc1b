//! Property tests for the pipeline scheduler
//! ([`interconnect::pipeline`]) — the engine behind the asynchronous
//! overlap experiments (Fig. 11) and the chaos suite's degraded
//! re-planning.
//!
//! Invariants asserted over random instances:
//!
//! 1. `busy[r] <= makespan` and `utilization(r) <= 1.0` for every
//!    resource — a serial resource cannot be busy longer than the run.
//! 2. `makespan >= max_b (Σ durations of batch b)` — batches are
//!    sequential chains, so the longest chain lower-bounds the makespan.
//! 3. `makespan(threads) <= makespan(1)` and `makespan(1) == Σ all
//!    durations` — overlap never loses to the fully serial schedule, and
//!    one thread *is* the fully serial schedule.
//!
//! 4. Over the host bracket, whose chunks the scheduler overlays: a call's
//!    time is at least its busiest resource's rows and at most the sum of
//!    its rows, and a call in one chunk takes that sum bit for bit.
//!
//! Deliberately **not** asserted: makespan monotonicity in `threads`.
//! List scheduling exhibits Graham anomalies — adding a stream can
//! *increase* the makespan — and an empirical sweep falsified stepwise
//! monotonicity on ~7% of random instances. The concrete counterexample
//! is pinned in [`graham_anomaly_counterexample_is_real`] so nobody
//! "fixes" the property back in without reading this.

use interconnect::pipeline::{PipelineReport, PipelineSim, Stage};
use interconnect::Topology;
use proptest::prelude::*;
use warpdrive::host_ops::Cut;
use warpdrive::{Config, DistributedHashMap, FaultPlan, OpReport};
use wd_apps::quad_node;
use workloads::Distribution;

/// Raw instance material drawn by the proptest macro: batches of
/// `(resource index, duration in 1/100ths)` pairs.
type RawBatches = Vec<Vec<(usize, u32)>>;

fn raw_instances() -> impl Strategy<Value = RawBatches> {
    proptest::collection::vec(
        proptest::collection::vec((0usize..8, 1u32..1000), 1..6),
        1..9,
    )
}

/// Builds a pipeline instance from raw material: up to 8 batches of 1–5
/// stages over `nres` resources (raw indices wrap around).
fn build(nres: usize, raw: &RawBatches) -> Vec<Vec<Stage>> {
    raw.iter()
        .map(|b| {
            b.iter()
                .map(|&(r, d)| Stage {
                    resource: r % nres,
                    duration: f64::from(d) / 100.0,
                })
                .collect()
        })
        .collect()
}

/// Schedules `batches`, a list of stages each, over `nres` resources.
fn run(nres: usize, batches: &[Vec<Stage>], threads: usize) -> PipelineReport {
    let mut at = 0;
    let runs: Vec<std::ops::Range<usize>> = batches
        .iter()
        .map(|batch| {
            at += batch.len();
            at - batch.len()..at
        })
        .collect();
    PipelineSim::new(nres).run(&batches.concat(), &runs, threads)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn busy_and_utilization_are_bounded(nres in 2usize..6, raw in raw_instances(), threads in 1usize..6) {
        let batches = build(nres, &raw);
        let r = run(nres, &batches, threads);
        for res in 0..nres {
            prop_assert!(
                r.busy[res] <= r.makespan + 1e-9,
                "resource {} busy {} > makespan {}",
                res, r.busy[res], r.makespan
            );
            let u = r.utilization(res);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&u), "utilization({res}) = {u}");
        }
        // out-of-range utilization is 0.0, not a panic (regression for
        // the indexing fix; the unit test in the crate pins it too)
        prop_assert_eq!(r.utilization(nres + 7), 0.0);
    }

    #[test]
    fn makespan_is_bracketed(nres in 2usize..6, raw in raw_instances(), threads in 1usize..6) {
        let batches = build(nres, &raw);
        let r = run(nres, &batches, threads);
        let critical = batches
            .iter()
            .map(|b| b.iter().map(|s| s.duration).sum::<f64>())
            .fold(0.0f64, f64::max);
        let total: f64 = batches.iter().flatten().map(|s| s.duration).sum();
        prop_assert!(
            r.makespan >= critical - 1e-9,
            "makespan {} below critical path {critical}", r.makespan
        );
        prop_assert!(
            r.makespan <= total + 1e-9,
            "makespan {} above serial total {total}", r.makespan
        );
    }

    /// Overlap never loses to the serial schedule, and one thread is
    /// exactly the serial schedule. (Stepwise monotonicity in `threads`
    /// does NOT hold — see the module docs and the counterexample below.)
    #[test]
    fn overlap_never_loses_to_serial(nres in 2usize..6, raw in raw_instances(), threads in 2usize..6) {
        let batches = build(nres, &raw);
        let serial = run(nres, &batches, 1);
        let total: f64 = batches.iter().flatten().map(|s| s.duration).sum();
        prop_assert!((serial.makespan - total).abs() < 1e-9, "one thread must serialize");
        let overlapped = run(nres, &batches, threads);
        prop_assert!(
            overlapped.makespan <= serial.makespan + 1e-9,
            "threads={threads} makespan {} exceeds serial {}",
            overlapped.makespan, serial.makespan
        );
    }

    #[test]
    fn empty_batches_cost_nothing(nres in 1usize..5, n in 1usize..6, threads in 1usize..4) {
        let batches: Vec<Vec<Stage>> = vec![Vec::new(); n];
        let r = run(nres, &batches, threads);
        prop_assert_eq!(r.makespan, 0.0);
        for res in 0..nres {
            prop_assert_eq!(r.utilization(res), 0.0);
        }
    }
}

/// Whether `report`'s time lies where the bracket's overlay puts it.
fn bracketed(report: &OpReport) -> Result<(), String> {
    let rows: f64 = report.stages.iter().map(|s| s.time).sum();
    let Some(overlap) = report.overlaps.first() else {
        if report.time.to_bits() == rows.to_bits() {
            return Ok(());
        }
        return Err(format!("one chunk: time {:e}, rows {rows:e}", report.time));
    };
    let slack = 1.0 + 1e-12;
    let busy = overlap.schedule(&report.stages, 1.0, overlap.streams).busy;
    let busiest = busy.iter().copied().fold(0.0, f64::max);
    if busiest > report.time * slack || report.time > rows * slack {
        return Err(format!("busiest {busiest:e}, time {:e}, rows {rows:e}", report.time));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every cut of a host-sided insert and get, one chunk or many, on one
    /// stream or several, under a fault plan that drops transfers and fails
    /// launches or none.
    #[test]
    fn the_bracket_keeps_time_between_busiest_resource_and_rows(
        n in 1usize..1500,
        batch in 64usize..600,
        streams in 1usize..5,
        faults in any::<bool>(),
    ) {
        let plan = FaultPlan::default().with_seed(n as u64);
        let plan = if faults {
            plan.with_transfer_drop(0.1).with_launch_fail(0.1)
        } else {
            plan
        };
        let cfg = Config::default().with_fault(plan);
        let node = DistributedHashMap::new(quad_node(2048, 1500), 2048, cfg, Topology::p100_quad(4))
            .expect("node");
        let pairs = Distribution::Unique.generate(n, n as u64);
        let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
        let cut = Cut::new(batch, streams);
        let put = node.insert_in_chunks(&pairs, cut).expect("put");
        let get = node.retrieve_in_chunks(&keys, cut).expect("get");
        prop_assert!(get.values.iter().zip(&pairs).all(|(&v, p)| v == Some(p.1)));
        for report in [&put, &get.report] {
            prop_assert_eq!(report.overlaps.len(), usize::from(n > batch));
            if let Err(e) = bracketed(report) {
                prop_assert!(false, "{} (n {n}, batch {batch}, streams {streams})", e);
            }
        }
    }
}

/// The empirical sweep that falsified makespan monotonicity in
/// `threads`, pinned as a concrete instance: list scheduling is subject
/// to Graham anomalies, so a wider pipeline can finish *later*. If this
/// test starts failing because the anomaly disappeared, the scheduler
/// changed — re-run the sweep before asserting monotonicity anywhere.
#[test]
fn graham_anomaly_counterexample_is_real() {
    fn lcg(s: &mut u64) -> u64 {
        *s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *s >> 33
    }
    let mut anomaly = None;
    'seeds: for seed in 0..64u64 {
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let nbatches = 2 + (lcg(&mut s) % 8) as usize;
        let nres = 2 + (lcg(&mut s) % 4) as usize;
        let batches: Vec<Vec<Stage>> = (0..nbatches)
            .map(|_| {
                let nst = 1 + (lcg(&mut s) % 5) as usize;
                (0..nst)
                    .map(|_| Stage {
                        resource: (lcg(&mut s) % nres as u64) as usize,
                        duration: 1.0 + (lcg(&mut s) % 1000) as f64 / 100.0,
                    })
                    .collect()
            })
            .collect();
        let mut prev = f64::INFINITY;
        for threads in 1..=nbatches {
            let m = run(nres, &batches, threads).makespan;
            if m > prev + 1e-9 {
                anomaly = Some((seed, threads, prev, m));
                break 'seeds;
            }
            prev = m;
        }
    }
    let (seed, threads, prev, m) =
        anomaly.expect("no Graham anomaly in 64 seeds — scheduler changed, re-evaluate");
    println!(
        "Graham anomaly at seed {seed}: threads {} -> {threads} raised makespan {prev} -> {m}",
        threads - 1
    );
}
