//! Measures the cost of wd-chaos: one distributed insert + retrieve
//! workload on a 4-GPU node, run with the fault plan disarmed and under
//! representative armed plans.
//!
//! Three costs are in play:
//!
//! * **Disarmed cost: zero, bit-for-bit.** A disarmed plan takes the
//!   mask==0 fast paths everywhere — no `Backoff` stage, all-zero
//!   degraded stats, and modeled stage times *bitwise identical* to a
//!   `Config::default()` run — asserted below.
//! * **Armed, modeled.** Faults that fire are billed into simulated
//!   time: retries re-run stages, backoff lands as a `Backoff` stage,
//!   stragglers stretch their device's launches. The table reports the
//!   modeled slowdown next to the degraded stats that explain it.
//! * **Armed, host.** The deterministic rolls are a few SplitMix64
//!   mixes per transfer/launch — wall-clock overhead is reported so
//!   sweeps can arm chaos freely.
//!
//! Run with: `cargo run -p wd-apps --release --example chaos_overhead`
//! (leave `WD_FAULT` unset — it would arm the baseline row too).

use gpu_sim::{Device, FaultPlan};
use interconnect::Topology;
use std::sync::Arc;
use std::time::Instant;
use warpdrive::{Config, DistributedHashMap, MapService};

const N: usize = 100_000;
const CAPACITY_PER_GPU: usize = 1 << 16; // load ≈ 0.38 per GPU, 4 GPUs

struct Row {
    wall: f64,
    modeled: f64,
    stage_bits: Vec<(warpdrive::CascadeStage, u64)>,
    stats: warpdrive::DegradedStats,
}

fn run(plan: FaultPlan) -> Row {
    let devices: Vec<Arc<Device>> = (0..4)
        .map(|i| Arc::new(Device::with_words(i, 1 << 19)))
        .collect();
    let mut d = DistributedHashMap::new(
        devices,
        CAPACITY_PER_GPU,
        Config::default().with_fault(plan),
        Topology::p100_quad(4),
    )
    .expect("node");
    let pairs: Vec<(u32, u32)> = (0..N as u32).map(|i| (i * 7 + 1, i)).collect();
    let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
    let t0 = Instant::now();
    let ins = d.put_batch(&pairs).expect("insert").report;
    let ret = d.get_batch(&keys).expect("retrieve");
    let wall = t0.elapsed().as_secs_f64();
    assert!(ret.values.iter().all(Option::is_some), "all keys must be found");
    Row {
        wall,
        modeled: ins.time + ret.report.time,
        stage_bits: ins
            .stages
            .iter()
            .chain(&ret.report.stages)
            .map(|s| (s.stage, s.time.to_bits()))
            .collect(),
        stats: d.degraded_stats(),
    }
}

fn main() {
    if std::env::var_os("WD_FAULT").is_some() {
        eprintln!("warning: WD_FAULT is set; the baseline row will be faulted too");
    }
    let cases: [(&str, FaultPlan); 5] = [
        ("off", FaultPlan::default()),
        ("off (seed only)", FaultPlan::default().with_seed(99)),
        (
            "drops 10%",
            FaultPlan::default().with_seed(1).with_transfer_drop(0.1),
        ),
        (
            "drops 25% + launch 20%",
            FaultPlan::default()
                .with_seed(1)
                .with_transfer_drop(0.25)
                .with_launch_fail(0.2),
        ),
        (
            "straggler 3x + degraded links",
            FaultPlan::default()
                .with_seed(2026)
                .with_link_degrade(0.3, 4.0)
                .with_straggler(1, 3.0, 1e-5),
        ),
    ];
    // warm-up, and the bit-identity reference for the disarmed rows
    let baseline = run(FaultPlan::default());

    println!("{N} inserts + {N} retrieves, 4 GPUs, capacity {CAPACITY_PER_GPU}/GPU (best of 3)\n");
    println!("| plan | wall time | modeled time | launch retries | transfer retries | backoff (modeled) |");
    println!("|---|---|---|---|---|---|");
    let mut base_wall = f64::NAN;
    for (label, plan) in cases {
        let row = (0..3).map(|_| run(plan)).fold(None::<Row>, |best, r| {
            match best {
                Some(b) if b.wall <= r.wall => Some(b),
                _ => Some(r),
            }
        });
        let row = row.expect("three runs");
        if !plan.armed() {
            assert_eq!(
                row.stage_bits, baseline.stage_bits,
                "{label}: disarmed plan changed modeled stage times"
            );
            assert_eq!(
                row.stats,
                warpdrive::DegradedStats::default(),
                "{label}: disarmed plan booked degraded stats"
            );
            if base_wall.is_nan() {
                base_wall = row.wall;
            }
        }
        println!(
            "| {label} | {:.1} ms ({:.2}x) | {:.3} ms ({:.2}x) | {} | {} | {:.3} ms |",
            row.wall * 1e3,
            row.wall / base_wall,
            row.modeled * 1e3,
            row.modeled / baseline.modeled,
            row.stats.launch_retries,
            row.stats.transfer_retries,
            row.stats.backoff_time * 1e3,
        );
    }
    println!("\ndisarmed rows bitwise-identical to the baseline (asserted).");
}
