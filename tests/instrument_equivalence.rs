//! Instrument-speed equivalence suite: the overhauled instruments — the
//! epoch-batched racecheck, chunked lane dispatch, and the parallel
//! linearizability checker — must change *nothing observable* except
//! wall-clock time.
//!
//! Three families of proof:
//!
//! 1. **Sanitizer doubles.** Every PR 3 mutation double
//!    (`Mutation::PublishPlainStore`, `Mutation::SkipFill`,
//!    `Mutation::WindowOverrun`, `Mutation::DivergentBallot`) is hunted
//!    under both per-op and chunked dispatch on the same seeds; the *full
//!    report signature set* (detector + message, which embeds group,
//!    lane, address, and the schedule replay hint) must be identical, the
//!    double must still be caught, and the correct kernel must stay clean
//!    in both modes.
//! 2. **Modeled counters.** Correct kernels bill bit-identical counter
//!    snapshots under per-op and chunked dispatch — the timing model
//!    cannot tell the dispatch strategies apart.
//! 3. **Chaos doubles.** The PR 4 doubles (`Mutation::DoubleApplyOnRetry`,
//!    `Mutation::ForgetQuarantinedPartition`) are hunted under a stepwise
//!    seeded schedule in both dispatch modes; per-seed verdicts of the
//!    conservation / round-trip checks must agree, and the doubles must
//!    still be caught.
//!
//! Failure messages carry the seed: replay with `WD_SCHED_MODE=seeded
//! WD_SCHED_SEED=<seed>` (per-op path: `Config::with_per_op_dispatch(true)`).

use gpu_sim::{Detector, Device, FaultPlan, SanitizerSet, Schedule};
use interconnect::Topology;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use warpdrive::{Config, DistributedHashMap, GpuHashMap, Layout, MapService, Mutation};
use wd_apps::mutation_seeds;

/// Everything a sanitized run can tell us, normalized for comparison
/// across dispatch modes: either the sorted `(detector, message)`
/// signatures of every report, or (under a `WD_SANITIZE` panic-policy
/// attachment) the panic message itself.
type RunSignature = Result<Vec<(Detector, String)>, String>;

/// Builds a map from `cfg` on a sanitized collecting device, runs
/// `work`, and returns the run's full report signature.
fn signatures(cfg: Config, work: impl Fn(&GpuHashMap)) -> RunSignature {
    let dev = Arc::new(Device::with_words(0, 1 << 13).sanitized_collecting(SanitizerSet::ALL));
    let probe = Arc::clone(&dev);
    let ran = catch_unwind(AssertUnwindSafe(|| {
        let map = GpuHashMap::new(dev, 64, cfg).unwrap();
        work(&map);
        drop(map);
    }));
    signature_of(&[probe], ran)
}

/// Builds the 4-GPU node from `cfg`, every device sanitized, runs a put and
/// a get of the same keys, and returns the run's full report signature:
/// the node launch's peer stores, flags and merge warps' half reads are
/// checked across devices.
fn node_signatures(cfg: Config) -> RunSignature {
    let devices: Vec<Arc<Device>> = (0..4)
        .map(|i| Arc::new(Device::with_words(i, 1 << 14).sanitized_collecting(SanitizerSet::ALL)))
        .collect();
    let probes = devices.clone();
    let ran = catch_unwind(AssertUnwindSafe(|| {
        let cfg = cfg.with_fault(FaultPlan::default());
        let mut d = DistributedHashMap::new(devices, 512, cfg, Topology::p100_quad(4)).unwrap();
        let pairs: Vec<(u32, u32)> = (0..200u32).map(|i| (i * 13 + 5, i)).collect();
        d.put_batch(&pairs).unwrap();
        let keys: Vec<u32> = pairs.iter().map(|p| p.0).chain(9_000..9_040).collect();
        let _ = d.get_batch(&keys).unwrap();
    }));
    signature_of(&probes, ran)
}

/// The signature of a run on `devices` that ended as `ran`.
fn signature_of(devices: &[Arc<Device>], ran: std::thread::Result<()>) -> RunSignature {
    match ran {
        Ok(()) => {
            let mut sigs: Vec<(Detector, String)> = devices
                .iter()
                .flat_map(|dev| dev.take_sanitizer_reports())
                .map(|r| (r.detector, r.to_string()))
                .collect();
            sigs.sort_by(|a, b| (a.0.as_str(), &a.1).cmp(&(b.0.as_str(), &b.1)));
            Ok(sigs)
        }
        Err(payload) => Err(payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default()),
    }
}

/// Whether `sig` contains a detection by `want`.
fn fired(sig: &RunSignature, want: Detector) -> bool {
    match sig {
        Ok(sigs) => sigs.iter().any(|(d, _)| *d == want),
        Err(msg) => msg.contains(want.as_str()),
    }
}

/// Whether `sig` is a clean run.
fn clean(sig: &RunSignature) -> bool {
    matches!(sig, Ok(sigs) if sigs.is_empty())
}

/// Hunts one sanitizer double across the seed budget in BOTH dispatch
/// modes, demanding identical signatures per (seed, config) pair.
fn hunt_equivalent(
    label: &str,
    want: Detector,
    budget: u64,
    cfg: impl Fn(u64, bool) -> Config,
    run: impl Fn(Config) -> RunSignature,
) {
    let mut caught = None;
    for seed in 0..budget {
        for broken in [false, true] {
            let per_op = run(cfg(seed, broken).with_per_op_dispatch(true));
            let chunked = run(cfg(seed, broken).with_per_op_dispatch(false));
            assert_eq!(
                per_op, chunked,
                "{label}: chunked dispatch changed the report set at seed {seed} \
                 (broken={broken}; replay: WD_SCHED_MODE=seeded WD_SCHED_SEED={seed})"
            );
            if broken {
                if caught.is_none() && fired(&chunked, want) {
                    caught = Some(seed);
                }
            } else {
                assert!(
                    clean(&chunked),
                    "{label}: false positive on the correct kernel at seed {seed}: {chunked:?}"
                );
            }
        }
    }
    let seed = caught.unwrap_or_else(|| {
        panic!(
            "{label}: mutation double survived {budget} seeds under chunked dispatch — \
             {} lost its teeth",
            want.as_str()
        )
    });
    println!("{label}: {} flagged the mutant at seed {seed} in both dispatch modes", want.as_str());
}

/// Same-key contention: one group claims the slot, the rest take the
/// duplicate-update path — maximum pressure on the publication protocol.
fn contended_insert(map: &GpuHashMap) {
    let pairs: Vec<(u32, u32)> = (0..8u32).map(|v| (42, v)).collect();
    let _ = map.insert_pairs(&pairs);
}

#[test]
fn racecheck_double_equivalent_across_dispatch() {
    hunt_equivalent(
        "publish_plain_store",
        Detector::Race,
        mutation_seeds(),
        |seed, broken| {
            let c = Config::default()
                .with_layout(Layout::Soa)
                .with_group_size(4)
                .with_schedule(Schedule::Seeded(seed));
            if broken {
                c.with_mutation(Mutation::PublishPlainStore)
            } else {
                c
            }
        },
        |c| signatures(c, contended_insert),
    );
}

#[test]
fn initcheck_double_equivalent_across_dispatch() {
    hunt_equivalent(
        "skip_fill",
        Detector::Init,
        mutation_seeds(),
        |seed, broken| {
            let c = Config {
                p_max: 4,
                ..Config::default()
            }
            .with_schedule(Schedule::Seeded(seed));
            if broken {
                c.with_mutation(Mutation::SkipFill)
            } else {
                c
            }
        },
        |c| {
            signatures(c, |map| {
                let _ = map.insert_pairs(&[(1, 10), (2, 20), (3, 30), (4, 40)]);
            })
        },
    );
}

#[test]
fn memcheck_double_equivalent_across_dispatch() {
    hunt_equivalent(
        "window_overrun",
        Detector::Mem,
        mutation_seeds(),
        |seed, broken| {
            let c = Config::default().with_schedule(Schedule::Seeded(seed));
            if broken {
                c.with_mutation(Mutation::WindowOverrun)
            } else {
                c
            }
        },
        |c| {
            signatures(c, |map| {
                let _ = map.insert_pairs(&[(1, 10), (2, 20), (3, 30)]);
                let _ = map.try_retrieve(&[1, 2, 3]);
            })
        },
    );
}

#[test]
fn synccheck_double_equivalent_across_dispatch() {
    hunt_equivalent(
        "divergent_ballot",
        Detector::Sync,
        mutation_seeds(),
        |seed, broken| {
            let c = Config::default()
                .with_group_size(4)
                .with_schedule(Schedule::Seeded(seed));
            if broken {
                c.with_mutation(Mutation::DivergentBallot)
            } else {
                c
            }
        },
        |c| signatures(c, contended_insert),
    );
}

/// `Mutation::ScatterReadsBeforeFlag` on the 4-GPU node: a merge warp
/// reads the answers' halves before it polls the flags of the targets that
/// stored them. Racecheck catches it with the same reports under both
/// dispatch modes, and the correct round is clean in both.
#[test]
fn node_racecheck_double_equivalent_across_dispatch() {
    hunt_equivalent(
        "scatter_reads_before_flag",
        Detector::Race,
        mutation_seeds().min(4),
        |seed, broken| {
            let c = Config::default().with_schedule(Schedule::Seeded(seed));
            if broken {
                c.with_mutation(Mutation::ScatterReadsBeforeFlag)
            } else {
                c
            }
        },
        node_signatures,
    );
}

/// The timing model cannot tell the dispatch strategies apart: correct
/// kernels bill bit-identical counters under per-op and chunked lane
/// dispatch, across layouts and seeds.
#[test]
fn modeled_counters_identical_across_dispatch() {
    for layout in [Layout::Aos, Layout::Soa] {
        for seed in 0..mutation_seeds().min(8) {
            let run = |per_op: bool| {
                let dev = Arc::new(Device::with_words(0, 1 << 13));
                let cfg = Config::default()
                    .with_layout(layout)
                    .with_schedule(Schedule::Seeded(seed))
                    .with_per_op_dispatch(per_op);
                let map = GpuHashMap::new(dev, 64, cfg).unwrap();
                let pairs: Vec<(u32, u32)> = (0..32u32).map(|i| (i % 12 + 1, i)).collect();
                let ins = map.insert_pairs(&pairs).expect("insert");
                let q = map.try_retrieve(&(1..=16u32).collect::<Vec<_>>()).unwrap();
                (ins.stats.counters, q.report.counters, q.values)
            };
            assert_eq!(
                run(true),
                run(false),
                "layout {layout:?}, seed {seed}: chunked dispatch changed modeled counters \
                 (replay: WD_SCHED_MODE=seeded WD_SCHED_SEED={seed})"
            );
        }
    }
}

// ---- chaos doubles under the new instruments ---------------------------

fn quad(cfg: Config) -> DistributedHashMap {
    let devices: Vec<Arc<Device>> = (0..4)
        .map(|i| Arc::new(Device::with_words(i, 1 << 16)))
        .collect();
    DistributedHashMap::new(devices, 2048, cfg, Topology::p100_quad(4)).unwrap()
}

fn multiset(pairs: impl IntoIterator<Item = (u32, u32)>) -> BTreeMap<(u32, u32), u32> {
    let mut m = BTreeMap::new();
    for p in pairs {
        *m.entry(p).or_insert(0) += 1;
    }
    m
}

/// PR 4 double #1 under a stepwise seeded schedule: the premature
/// failover still breaks multiset conservation, with the same per-seed
/// verdict in both dispatch modes.
#[test]
fn chaos_double_apply_equivalent_across_dispatch() {
    let budget = mutation_seeds().min(6);
    let pairs: Vec<(u32, u32)> = (0..600u32).map(|i| (i * 7 + 1, i)).collect();
    let want = multiset(pairs.iter().copied());
    let run = |seed: u64, broken: bool, per_op: bool| -> Option<BTreeMap<(u32, u32), u32>> {
        let plan = FaultPlan::default().with_seed(seed).with_launch_fail(0.3);
        let mut cfg = Config::default()
            .with_schedule(Schedule::Seeded(seed))
            .with_per_op_dispatch(per_op)
            .with_fault(plan);
        if broken {
            cfg = cfg.with_mutation(Mutation::DoubleApplyOnRetry);
        }
        let mut d = quad(cfg);
        d.put_batch(&pairs).ok()?;
        Some(multiset(d.live_snapshot()))
    };
    let mut caught = None;
    for seed in 0..budget {
        for broken in [false, true] {
            let per_op = run(seed, broken, true);
            let chunked = run(seed, broken, false);
            assert_eq!(
                per_op, chunked,
                "double-apply: dispatch modes disagree at seed {seed} (broken={broken})"
            );
            if broken {
                if caught.is_none() && chunked.is_some_and(|got| got != want) {
                    caught = Some(seed);
                }
            } else if let Some(got) = chunked {
                assert_eq!(got, want, "correct code broke conservation at seed {seed}");
            }
        }
    }
    let seed = caught.unwrap_or_else(|| {
        panic!("double-apply mutant survived {budget} stepwise seeds — suite lost its teeth")
    });
    println!("double-apply mutant caught at stepwise seed {seed} in both dispatch modes");
}

/// PR 4 double #2 under a stepwise seeded schedule: the forgotten
/// repartition still loses keys, with the same per-seed verdict in both
/// dispatch modes.
#[test]
fn chaos_forget_quarantine_equivalent_across_dispatch() {
    let budget = mutation_seeds().min(6);
    let run = |seed: u64, broken: bool, per_op: bool| -> usize {
        let mut cfg = Config::default()
            .with_schedule(Schedule::Seeded(seed))
            .with_per_op_dispatch(per_op);
        if broken {
            cfg = cfg.with_mutation(Mutation::ForgetQuarantinedPartition);
        }
        let mut d = quad(cfg);
        let base = (seed as u32) * 10_007 + 1;
        let pairs: Vec<(u32, u32)> = (0..400u32).map(|i| (base + i * 5, i)).collect();
        d.put_batch(&pairs).unwrap();
        d.set_fault_plan(FaultPlan::default().with_kill((seed % 4) as u32));
        d.put_batch(&[(base + 999_983, 42)]).unwrap();
        let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
        let res = d.get_batch(&keys).unwrap().values;
        res.iter().filter(|r| r.is_none()).count()
    };
    let mut caught = None;
    for seed in 0..budget {
        for broken in [false, true] {
            let per_op = run(seed, broken, true);
            let chunked = run(seed, broken, false);
            assert_eq!(
                per_op, chunked,
                "forget-quarantine: dispatch modes disagree at seed {seed} (broken={broken})"
            );
            if broken {
                if caught.is_none() && chunked > 0 {
                    caught = Some(seed);
                }
            } else {
                assert_eq!(chunked, 0, "correct code lost keys at seed {seed}");
            }
        }
    }
    let seed = caught.unwrap_or_else(|| {
        panic!("forget-partition mutant survived {budget} stepwise seeds — suite lost its teeth")
    });
    println!("forget-partition mutant caught at stepwise seed {seed} in both dispatch modes");
}
