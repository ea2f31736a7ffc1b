//! wd-sanitizer mutation proofs: every seeded mutation double is caught
//! by its detector within the seed budget, while the *correct* kernels
//! stay clean on exactly the same seeds (no false positives).
//!
//! | mutation double               | detector  | bug class               |
//! |-------------------------------|-----------|-------------------------|
//! | `Mutation::PublishPlainStore` | racecheck | lost release edge       |
//! | `Mutation::SkipFill`          | initcheck | read of unwritten VRAM  |
//! | `Mutation::WindowOverrun`     | memcheck  | off-by-one slice read   |
//! | `Mutation::DivergentBallot`   | synccheck | divergent collective    |
//! | `Mutation::ScatterReadsBeforeFlag` | racecheck | read before the node launch's flag |
//!
//! Each test runs on a device attached with a *collecting* sanitizer, so
//! detections land in [`gpu_sim::Report`]s we can inspect. When the whole
//! suite runs under `WD_SANITIZE=...` (the CI sanitize job) the
//! environment's panic-policy attachment wins the device's one-shot slot
//! instead; detections then surface as a panic whose message names the
//! detector, which the harness accepts equally.
//!
//! Failure messages carry the seed: replay any cell with
//! `WD_SCHED_MODE=seeded WD_SCHED_SEED=<seed>`.

use gpu_sim::{Detector, Device, FaultPlan, SanitizerSet, Schedule};
use interconnect::Topology;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use warpdrive::{Config, DistributedHashMap, GpuHashMap, Layout, MapService, Mutation};
use wd_apps::mutation_seeds;

const ALL_DETECTORS: [Detector; 4] =
    [Detector::Race, Detector::Init, Detector::Mem, Detector::Sync];

/// Builds a map from `cfg` on a sanitized device, runs `work` on it, and
/// returns the set of detectors that fired (empty = clean run).
fn detectors_fired(cfg: Config, work: impl Fn(&GpuHashMap)) -> Vec<Detector> {
    let dev = Arc::new(Device::with_words(0, 1 << 13).sanitized_collecting(SanitizerSet::ALL));
    let probe = Arc::clone(&dev);
    let ran = catch_unwind(AssertUnwindSafe(|| {
        let map = GpuHashMap::new(dev, 64, cfg).unwrap();
        work(&map);
        drop(map);
    }));
    match ran {
        Ok(()) => {
            let mut fired: Vec<Detector> = probe
                .take_sanitizer_reports()
                .iter()
                .map(|r| r.detector)
                .collect();
            fired.dedup();
            fired
        }
        // under WD_SANITIZE the env's Panic attachment owned the slot:
        // the panic message lists the reports, naming each detector
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_default();
            ALL_DETECTORS
                .into_iter()
                .filter(|d| msg.contains(d.as_str()))
                .collect()
        }
    }
}

/// Hunts `mutant` across the seed budget: the correct config must stay
/// clean on every seed, the mutated config must trip `want` on at least
/// one seed.
fn hunt(
    label: &str,
    want: Detector,
    cfg: impl Fn(u64, bool) -> Config,
    work: impl Fn(&GpuHashMap) + Copy,
) {
    let budget = mutation_seeds();
    let mut caught = None;
    for seed in 0..budget {
        let clean = detectors_fired(cfg(seed, false), work);
        assert!(
            clean.is_empty(),
            "{label}: false positive on the correct kernel at seed {seed}: {clean:?} \
             (replay: WD_SCHED_MODE=seeded WD_SCHED_SEED={seed})"
        );
        if caught.is_none() && detectors_fired(cfg(seed, true), work).contains(&want) {
            caught = Some(seed);
        }
    }
    let seed = caught.unwrap_or_else(|| {
        panic!("{label}: mutation double survived {budget} seeds — {} has no teeth", want.as_str())
    });
    println!("{label}: {} flagged the mutant at seed {seed}", want.as_str());
}

/// Same-key contention: one group claims the slot, the rest take the
/// duplicate-update path and write the value word — maximum pressure on
/// the publication protocol.
fn contended_insert(map: &GpuHashMap) {
    let pairs: Vec<(u32, u32)> = (0..8u32).map(|v| (42, v)).collect();
    let _ = map.insert_pairs(&pairs);
}

#[test]
fn racecheck_catches_plain_store_publish() {
    hunt(
        "publish_plain_store",
        Detector::Race,
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
        contended_insert,
    );
}

#[test]
fn initcheck_catches_skipped_table_fill() {
    hunt(
        "skip_fill",
        Detector::Init,
        |seed, broken| {
            // small p_max: the unfilled table looks fully occupied (zero
            // words ≠ vacant), so probing must be allowed to exhaust fast
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
        |map| {
            // keys avoid 0: an unfilled pool reads as key-0 slots
            let _ = map.insert_pairs(&[(1, 10), (2, 20), (3, 30), (4, 40)]);
        },
    );
}

#[test]
fn memcheck_catches_window_overrun() {
    hunt(
        "window_overrun",
        Detector::Mem,
        |seed, broken| {
            let c = Config::default().with_schedule(Schedule::Seeded(seed));
            if broken {
                c.with_mutation(Mutation::WindowOverrun)
            } else {
                c
            }
        },
        |map| {
            // insert is unmutated; the overrun reads one query past the
            // staged input slice in retrieve
            let _ = map.insert_pairs(&[(1, 10), (2, 20), (3, 30)]);
            let _ = map.try_retrieve(&[1, 2, 3]);
        },
    );
}

#[test]
fn synccheck_catches_divergent_ballot() {
    hunt(
        "divergent_ballot",
        Detector::Sync,
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
        // the divergent re-ballot only runs after a *failed* claim CAS,
        // so the same-key race is what arms it
        contended_insert,
    );
}

/// The detectors that fired on the 4-GPU node built from `cfg` while it
/// ran a put and then a get of the same keys: every device sanitized, so
/// a node launch's peer stores and flags are checked across devices.
fn node_detectors_fired(cfg: Config) -> Vec<Detector> {
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
        let got = d.get_batch(&keys).unwrap().values;
        assert!(got[..200].iter().zip(&pairs).all(|(v, p)| *v == Some(p.1)));
        let _ = d.delete_batch(&keys[..50]).unwrap();
    }));
    let mut fired: Vec<Detector> = match ran {
        Ok(()) => probes
            .iter()
            .flat_map(|dev| dev.take_sanitizer_reports())
            .map(|r| r.detector)
            .collect(),
        // under WD_SANITIZE the env's Panic attachment owned the slots
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_default();
            ALL_DETECTORS.into_iter().filter(|d| msg.contains(d.as_str())).collect()
        }
    };
    fired.sort_by_key(|d| d.as_str());
    fired.dedup();
    fired
}

/// `Mutation::ScatterReadsBeforeFlag`: a merge warp of the node launch
/// reads the answers that landed on its GPU before it polls the flags of
/// the targets that stored them. In `group_id` order every store came
/// first, so the answers are right; racecheck still finds the read
/// unordered after the peer's store — on every schedule, the correct
/// round on none.
#[test]
fn racecheck_catches_a_scatter_reading_before_its_flag() {
    for schedule in [Schedule::Sequential, Schedule::Seeded(1)] {
        let cfg = Config::default().with_schedule(schedule);
        let clean = node_detectors_fired(cfg);
        assert!(clean.is_empty(), "{schedule:?}: false positive on the node launch: {clean:?}");
        let broken = node_detectors_fired(cfg.with_mutation(Mutation::ScatterReadsBeforeFlag));
        assert!(broken.contains(&Detector::Race), "{schedule:?}: the early read went unseen");
    }
}

/// Off-mode invariance: attaching the sanitizer must not change a single
/// billed operation — the timing model sees identical counter snapshots
/// whether or not shadow state is being maintained.
#[test]
fn sanitizer_does_not_change_billed_counters() {
    let run = |sanitized: bool| {
        let mut dev = Device::with_words(0, 1 << 13);
        if sanitized {
            dev = dev.sanitized_collecting(SanitizerSet::ALL);
        }
        let cfg = Config::default().with_schedule(Schedule::Seeded(3));
        let map = GpuHashMap::new(Arc::new(dev), 64, cfg).unwrap();
        let pairs: Vec<(u32, u32)> = (0..32u32).map(|i| (i + 1, i)).collect();
        let ins = map.insert_pairs(&pairs).expect("insert");
        let keys: Vec<u32> = (1..=32).collect();
        let q = map.try_retrieve(&keys).unwrap();
        assert!(q.values.iter().all(Option::is_some));
        (ins.stats.counters, q.report.counters)
    };
    assert_eq!(
        run(false),
        run(true),
        "sanitizer on/off must bill identical op counts"
    );
}
