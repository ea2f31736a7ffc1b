//! Linearizability checking of recorded operation histories under
//! deterministic stepwise schedules.
//!
//! Each case attaches a [`warpdrive::HistoryRecorder`] to a map, drives
//! concurrent batches under a seeded schedule, and feeds the recorded
//! history to the Wing–Gong checker. Two obligations:
//!
//! 1. **Soundness of the implementation** — every shipped map variant
//!    yields linearizable histories under every swept seed, group size
//!    and layout.
//! 2. **Power of the checker** — the deliberately broken probing variant
//!    (`Mutation::CasRecheck`, which skips the Fig. 3 reload after
//!    a failed claim CAS) is flagged non-linearizable within the seed
//!    budget (`WD_MUTATION_SEEDS`, default = `WD_SWEEP_SEEDS`).
//!
//! Failure messages always carry the seed: replay with
//! `WD_SCHED_MODE=seeded WD_SCHED_SEED=<seed>`.

use gpu_sim::{Device, GroupSize, Schedule};
use interconnect::Topology;
use std::sync::Arc;
use warpdrive::{
    check_linearizable, check_linearizable_multi, Config, DistributedHashMap, GpuHashMap,
    GpuMultiMap, HistoryRecorder, Layout, MapService, Mutation, OpKind, OpResponse,
};
use wd_apps::{mutation_seeds, sweep_seeds};

/// Contended workload: 16 pairs over 4 keys (4-way same-key races), a
/// mixed-hit retrieve, an erase wave, then a re-check retrieve.
fn drive(map: &mut GpuHashMap) {
    let pairs: Vec<(u32, u32)> = (0..16u32).map(|i| (i % 4 + 1, i * 7)).collect();
    map.insert_pairs(&pairs).unwrap();
    let _ = map.try_retrieve(&[1, 2, 3, 4, 5, 6]).unwrap();
    map.try_erase(&[2, 4, 6]).unwrap();
    let _ = map.try_retrieve(&[1, 2, 3, 4]).unwrap();
    map.insert_pairs(&[(2, 999), (4, 1000)]).unwrap();
    let _ = map.try_retrieve(&[2, 4]).unwrap();
}

#[test]
fn map_histories_are_linearizable_across_the_sweep() {
    let seeds = sweep_seeds();
    for layout in [Layout::Aos, Layout::Soa] {
        for g in GroupSize::ALL {
            for seed in 0..seeds {
                let cell = format!("layout {layout:?}, |g|={}, seed {seed}", g.get());
                let dev = Arc::new(Device::with_words(0, 1 << 12));
                let cfg = Config::default()
                    .with_layout(layout)
                    .with_group_size(g.get())
                    .with_schedule(Schedule::Seeded(seed));
                let mut map = GpuHashMap::new(dev, 64, cfg).unwrap();
                let rec = Arc::new(HistoryRecorder::new());
                map.set_recorder(Some(Arc::clone(&rec)));
                drive(&mut map);
                let history = rec.events();
                assert!(!history.is_empty(), "{cell}: recorder captured nothing");
                check_linearizable(&history)
                    .unwrap_or_else(|v| panic!("{cell}: {v}"));
            }
        }
    }
}

/// The fused get + put launch: every group logs what its own kernel
/// would have, and an upsert group — a key both looked up and written,
/// one table visit — logs the lookup (the value it replaced) and the
/// write, so the history checks like that of the two launches.
#[test]
fn fused_launch_histories_are_linearizable_and_an_upsert_logs_both_its_ops() {
    let seeds = sweep_seeds().min(8);
    for layout in [Layout::Aos, Layout::Soa] {
        for g in [1u32, 4, 32] {
            for seed in 0..seeds {
                let cell = format!("layout {layout:?}, |g|={g}, seed {seed}");
                let dev = Arc::new(Device::with_words(0, 1 << 12));
                let cfg = Config::default()
                    .with_layout(layout)
                    .with_group_size(g)
                    .with_schedule(Schedule::Seeded(seed));
                let mut map = GpuHashMap::new(dev, 64, cfg).unwrap();
                let rec = Arc::new(HistoryRecorder::new());
                map.set_recorder(Some(Arc::clone(&rec)));
                map.put_batch(&[(1, 10), (2, 20), (3, 30), (4, 40)]).unwrap();
                map.delete_batch(&[4]).unwrap();
                // key 2 is present, key 4 erased, key 6 was never there
                let (reads, puts) = ([1, 2, 4, 5, 6], [(2, 21), (3, 31), (4, 41), (6, 61)]);
                let mut got = [Some(0); 5];
                map.apply(&reads, &puts, &[], &mut got, &mut []).unwrap();
                assert_eq!(got, [Some(10), Some(20), None, None, None], "{cell}");
                let _ = map.get_batch(&[1, 2, 3, 4, 5, 6]).unwrap();

                let history = rec.events();
                for (key, old, new) in [(2, Some(20), 21), (4, None, 41), (6, None, 61)] {
                    let lookup = match old {
                        Some(value) => OpResponse::Found { value },
                        None => OpResponse::NotFound,
                    };
                    let logged = |kind: OpKind, response: &OpResponse| {
                        history
                            .iter()
                            .filter(|e| e.key == key && e.kind == kind && e.response == *response)
                            .count()
                    };
                    assert_eq!(logged(OpKind::Retrieve, &lookup), 1, "{cell}: key {key} lookup");
                    let written = OpResponse::Inserted { new_slot: old.is_none() };
                    assert_eq!(
                        logged(OpKind::Insert { value: new }, &written),
                        1,
                        "{cell}: key {key} write"
                    );
                }
                check_linearizable(&history).unwrap_or_else(|v| panic!("{cell}: {v}"));
            }
        }
    }
}

#[test]
fn histories_replay_bit_identically() {
    for seed in 0..sweep_seeds().min(8) {
        let record = || {
            let dev = Arc::new(Device::with_words(0, 1 << 12));
            let cfg = Config::default().with_schedule(Schedule::Seeded(seed));
            let mut map = GpuHashMap::new(dev, 64, cfg).unwrap();
            let rec = Arc::new(HistoryRecorder::new());
            map.set_recorder(Some(Arc::clone(&rec)));
            drive(&mut map);
            rec.events()
        };
        assert_eq!(
            record(),
            record(),
            "seed {seed}: history (events, order and timestamps) diverged on replay"
        );
    }
}

#[test]
fn multimap_histories_are_linearizable() {
    let seeds = sweep_seeds().min(16);
    let pairs: Vec<(u32, u32)> = (0..16u32).map(|i| (i % 4 + 1, i)).collect();
    for g in GroupSize::ALL {
        for seed in 0..seeds {
            let cell = format!("multimap |g|={}, seed {seed}", g.get());
            let dev = Arc::new(Device::with_words(0, 1 << 12));
            let cfg = Config::default()
                .with_group_size(g.get())
                .with_schedule(Schedule::Seeded(seed));
            let mut mm = GpuMultiMap::new(dev, 64, cfg).unwrap();
            let rec = Arc::new(HistoryRecorder::new());
            mm.set_recorder(Some(Arc::clone(&rec)));
            mm.insert_pairs(&pairs).unwrap();
            let _ = mm.try_retrieve_all(&[1, 2, 3, 4, 5]).unwrap();
            // second wave overlaps existing content
            mm.insert_pairs(&[(1, 100), (5, 101)]).unwrap();
            let _ = mm.try_retrieve_all(&[1, 5]).unwrap();
            check_linearizable_multi(&rec.events())
                .unwrap_or_else(|v| panic!("{cell}: {v}"));
        }
    }
}

#[test]
fn distributed_histories_are_linearizable() {
    let seeds = sweep_seeds().min(8);
    for seed in 0..seeds {
        let cell = format!("distributed seed {seed}");
        let devices: Vec<Arc<Device>> = (0..2)
            .map(|i| Arc::new(Device::with_words(i, 1 << 14)))
            .collect();
        let cfg = Config::default().with_schedule(Schedule::Seeded(seed));
        let mut d = DistributedHashMap::new(devices, 256, cfg, Topology::p100_quad(2)).unwrap();
        let rec = Arc::new(HistoryRecorder::new());
        d.set_recorder(Some(Arc::clone(&rec)));
        let pairs: Vec<(u32, u32)> = (0..32u32).map(|i| (i % 8 + 1, i)).collect();
        d.put_batch(&pairs).unwrap();
        let _ = d.get_batch(&(1..=10).collect::<Vec<u32>>()).unwrap();
        let _ = d.delete_batch(&[1, 3, 5]);
        let _ = d.get_batch(&(1..=6).collect::<Vec<u32>>()).unwrap();
        check_linearizable(&rec.events()).unwrap_or_else(|v| panic!("{cell}: {v}"));
    }
}

/// Fault-injection mode: transient launch failures and dropped
/// transfers force the distributed cascades to retry and restart, and a
/// quarantine mid-run migrates a whole partition — yet the recorded
/// history must stay linearizable on every swept seed. In particular,
/// retried inserts apply exactly once (restarted rounds re-apply
/// idempotently, recorded as in-place updates), and quarantine migration
/// books its moves as legal erase→insert sequences.
#[test]
fn distributed_histories_stay_linearizable_under_faults() {
    let seeds = sweep_seeds().min(12);
    for seed in 0..seeds {
        let plan = gpu_sim::FaultPlan::default()
            .with_seed(seed)
            .with_launch_fail(0.3)
            .with_transfer_drop(0.2);
        let devices: Vec<Arc<Device>> = (0..3)
            .map(|i| Arc::new(Device::with_words(i, 1 << 14)))
            .collect();
        let cfg = Config::default()
            .with_schedule(Schedule::Seeded(seed))
            .with_fault(plan);
        let mut d = DistributedHashMap::new(devices, 256, cfg, Topology::p100_quad(3)).unwrap();
        let cell = format!("faulted distributed seed {seed}; replay: {}", d.replay_hint());
        let rec = Arc::new(HistoryRecorder::new());
        d.set_recorder(Some(Arc::clone(&rec)));
        let pairs: Vec<(u32, u32)> = (0..48u32).map(|i| (i % 12 + 1, i)).collect();
        if d.put_batch(&pairs).is_err() {
            continue; // the whole node died under this plan — nothing to check
        }
        if d.get_batch(&(1..=14).collect::<Vec<u32>>()).is_ok() {
            let _ = d.delete_batch(&[1, 3, 5]);
            let _ = d.get_batch(&(1..=6).collect::<Vec<u32>>());
        }
        check_linearizable(&rec.events()).unwrap_or_else(|v| panic!("{cell}: {v}"));
    }
}

/// The chaos mutation double at the history level: the broken retry that
/// re-applies a sub-batch to failover GPUs while the primary retry also
/// succeeds leaves one key freshly inserted on two devices — the history
/// then has two `new_slot` insert responses for one key with no erase
/// between them, which no linearization legalizes. Must be caught within
/// the seed budget while the correct retry stays clean on every seed.
#[test]
fn broken_double_apply_is_flagged_non_linearizable() {
    let budget = mutation_seeds();
    let pairs: Vec<(u32, u32)> = (0..64u32).map(|i| (i * 7 + 1, i)).collect();
    let run = |seed: u64, broken: bool| -> Option<Result<(), warpdrive::Violation>> {
        let plan = gpu_sim::FaultPlan::default()
            .with_seed(seed)
            .with_launch_fail(0.3);
        let devices: Vec<Arc<Device>> = (0..4)
            .map(|i| Arc::new(Device::with_words(i, 1 << 14)))
            .collect();
        let mut cfg = Config::default().with_fault(plan);
        if broken {
            cfg = cfg.with_mutation(Mutation::DoubleApplyOnRetry);
        }
        let mut d = DistributedHashMap::new(devices, 256, cfg, Topology::p100_quad(4)).unwrap();
        let rec = Arc::new(HistoryRecorder::new());
        d.set_recorder(Some(Arc::clone(&rec)));
        d.put_batch(&pairs).ok()?;
        Some(check_linearizable(&rec.events()))
    };
    let mut caught = None;
    for seed in 0..budget {
        if let Some(res) = run(seed, false) {
            res.unwrap_or_else(|v| panic!("false positive at fault seed {seed}: {v}"));
        }
        if caught.is_none() && matches!(run(seed, true), Some(Err(_))) {
            caught = Some(seed);
        }
    }
    let seed = caught.unwrap_or_else(|| {
        panic!("double-apply mutant survived {budget} fault seeds — checker has no teeth")
    });
    println!("double-apply mutant flagged non-linearizable at fault seed {seed}");
}

/// The mutation test: the broken probing variant must be *caught*. It
/// skips the window reload after a failed claim CAS, so a key can land
/// in two slots — the recorded history then contains two `new_slot`
/// insert responses for one key with no erase between them, which no
/// linearization legalizes.
#[test]
fn broken_cas_recheck_is_flagged_non_linearizable() {
    let budget = mutation_seeds();
    // heavy same-key contention maximizes failed-claim CASes
    let pairs: Vec<(u32, u32)> = (0..8u32).map(|v| (42, v)).collect();
    let run = |seed: u64, broken: bool| -> Result<(), warpdrive::Violation> {
        let dev = Arc::new(Device::with_words(0, 1 << 12));
        let mut cfg = Config::default()
            .with_group_size(4)
            .with_schedule(Schedule::Seeded(seed));
        if broken {
            cfg = cfg.with_mutation(Mutation::CasRecheck);
        }
        let mut map = GpuHashMap::new(dev, 64, cfg).unwrap();
        let rec = Arc::new(HistoryRecorder::new());
        map.set_recorder(Some(Arc::clone(&rec)));
        map.insert_pairs(&pairs).unwrap();
        let _ = map.try_retrieve(&[42]).unwrap();
        check_linearizable(&rec.events())
    };
    let mut caught = None;
    for seed in 0..budget {
        // the correct implementation must stay clean on every seed the
        // mutant is hunted with — no false positives
        run(seed, false).unwrap_or_else(|v| panic!("false positive at seed {seed}: {v}"));
        if caught.is_none() && run(seed, true).is_err() {
            caught = Some(seed);
        }
    }
    let seed = caught.unwrap_or_else(|| {
        panic!("mutation double survived {budget} seeds — checker has no teeth")
    });
    println!("mutation double flagged non-linearizable at seed {seed}");
}
