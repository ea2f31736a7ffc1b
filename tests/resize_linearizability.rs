//! Fault-mode Wing–Gong checks on resize histories.
//!
//! The resize sweeps (`resize_sweep.rs`) prove conservation and
//! linearizability of incremental migration under healthy schedules;
//! this suite layers the chaos machinery on top. Histories here mix
//! foreground ops, fault-retried cascades, quarantine migrations *and*
//! resize migrations — every migrated key recorded as a legal
//! erase→insert pair — and the checker must accept all of it.
//!
//! Every failure message carries a replay hint: either
//! `WD_SCHED_MODE=seeded WD_SCHED_SEED=<seed>` for schedule-only cases
//! or the full `WD_SCHED_* WD_FAULT_*` line from
//! [`warpdrive::DistributedHashMap::replay_hint`] for faulted ones.

use gpu_sim::{Device, FaultPlan, Schedule};
use interconnect::Topology;
use std::collections::BTreeMap;
use std::sync::Arc;
use warpdrive::{
    check_linearizable, Config, DistributedHashMap, GpuHashMap, HistoryRecorder, MapService,
    ResizePolicy,
};
use wd_apps::sweep_seeds;

/// Pushes a policy-armed map through its watermark while recording, so
/// the history contains pre-migration, mid-migration and post-finalize
/// operations.
fn drive_resize(map: &mut GpuHashMap) {
    let warm: Vec<(u32, u32)> = (1..=100u32).map(|k| (k, k * 3)).collect();
    map.insert_pairs(&warm).unwrap();
    for round in 0..5u32 {
        let fresh: Vec<(u32, u32)> = (0..8u32).map(|i| (200 + round * 8 + i, i)).collect();
        map.insert_pairs(&fresh).unwrap();
        let _ = map.try_retrieve(&(1..=40).collect::<Vec<u32>>()).unwrap();
        map.try_erase(&[1 + round * 7, 2 + round * 11]).unwrap();
    }
    map.finish_resize().unwrap();
}

#[test]
fn resize_histories_are_linearizable_across_the_schedule_sweep() {
    for seed in 0..sweep_seeds().min(12) {
        let cell =
            format!("resize seed {seed}; replay: WD_SCHED_MODE=seeded WD_SCHED_SEED={seed}");
        let dev = Arc::new(Device::with_words(0, 1 << 14));
        let cfg = Config::default().with_schedule(Schedule::Seeded(seed));
        let mut map = GpuHashMap::new(dev, 128, cfg).unwrap();
        map.set_resize_policy(Some(
            ResizePolicy::default().with_watermark(0.5).with_chunk(32),
        ));
        let rec = Arc::new(HistoryRecorder::new());
        map.set_recorder(Some(Arc::clone(&rec)));
        drive_resize(&mut map);
        assert!(map.capacity() > 128, "{cell}: watermark never fired");
        let history = rec.events();
        assert!(!history.is_empty(), "{cell}: recorder captured nothing");
        check_linearizable(&history).unwrap_or_else(|v| panic!("{cell}: {v}"));
    }
}

#[test]
fn resize_histories_replay_bit_identically() {
    for seed in 0..sweep_seeds().min(6) {
        let record = || {
            let dev = Arc::new(Device::with_words(0, 1 << 14));
            let cfg = Config::default().with_schedule(Schedule::Seeded(seed));
            let mut map = GpuHashMap::new(dev, 128, cfg).unwrap();
            map.set_resize_policy(Some(
                ResizePolicy::default().with_watermark(0.5).with_chunk(32),
            ));
            let rec = Arc::new(HistoryRecorder::new());
            map.set_recorder(Some(Arc::clone(&rec)));
            drive_resize(&mut map);
            rec.events()
        };
        assert_eq!(
            record(),
            record(),
            "seed {seed}: resize history (events, order, timestamps) diverged on replay \
             — replay: WD_SCHED_MODE=seeded WD_SCHED_SEED={seed}"
        );
    }
}

/// Transient launch failures and dropped transfers force the cascades
/// to retry around a per-GPU grow: retried rounds must stay
/// exactly-once and the grow's migration pairs must stay history-legal
/// on every swept seed.
#[test]
fn faulted_distributed_resize_histories_stay_linearizable() {
    let mut checked = 0u32;
    for seed in 0..sweep_seeds().min(10) {
        let plan = FaultPlan::default()
            .with_seed(seed)
            .with_launch_fail(0.3)
            .with_transfer_drop(0.2);
        let devices: Vec<Arc<Device>> = (0..2)
            .map(|i| Arc::new(Device::with_words(i, 1 << 15)))
            .collect();
        let cfg = Config::default()
            .with_schedule(Schedule::Seeded(seed))
            .with_fault(plan);
        let mut d = DistributedHashMap::new(devices, 256, cfg, Topology::p100_quad(2)).unwrap();
        let cell = format!("faulted resize seed {seed}; replay: {}", d.replay_hint());
        let rec = Arc::new(HistoryRecorder::new());
        d.set_recorder(Some(Arc::clone(&rec)));
        let pairs: Vec<(u32, u32)> = (0..96u32).map(|i| (i * 5 + 1, i)).collect();
        if d.put_batch(&pairs).is_err() {
            continue; // the whole node died under this plan — nothing to check
        }
        let cap_before = d.occupancy_split().capacity;
        match d.request_grow() {
            Ok(started) => assert!(started, "{cell}: stable node must start a grow"),
            Err(_) => continue, // growth lost to the fault plan mid-flight
        }
        assert_eq!(
            d.occupancy_split().capacity,
            2 * cap_before,
            "{cell}: every live GPU must double"
        );
        if d.get_batch(&(1..=60).collect::<Vec<u32>>()).is_ok() {
            let _ = d.delete_batch(&[1, 6, 11]);
            let _ = d.get_batch(&(1..=12).collect::<Vec<u32>>());
        }
        check_linearizable(&rec.events()).unwrap_or_else(|v| panic!("{cell}: {v}"));
        checked += 1;
    }
    assert!(
        checked > 0,
        "every fault seed killed the node before the grow — the sweep checked nothing"
    );
}

/// The headline race: a GPU dies (its partition quarantine-migrates to
/// the survivors, booked as erase→insert pairs) and the node then
/// *grows* the survivors — two migration machineries writing the same
/// history, which must still linearize, conserve every key, and leave
/// the quarantined GPU excluded from the new capacity.
#[test]
fn resize_racing_quarantine_keeps_history_linearizable() {
    let devices: Vec<Arc<Device>> = (0..4)
        .map(|i| Arc::new(Device::with_words(i, 1 << 16)))
        .collect();
    let cfg = Config::default().with_schedule(Schedule::Seeded(7));
    let mut d = DistributedHashMap::new(devices, 1024, cfg, Topology::p100_quad(4)).unwrap();
    let rec = Arc::new(HistoryRecorder::new());
    d.set_recorder(Some(Arc::clone(&rec)));
    let mut model: BTreeMap<u32, u32> = BTreeMap::new();
    let healthy: Vec<(u32, u32)> = (0..600u32).map(|i| (i * 3 + 1, i)).collect();
    d.put_batch(&healthy).unwrap();
    model.extend(healthy.iter().copied());
    // kill GPU 2 mid-run: the next insert wave quarantines it and
    // migrates its partition into the survivors
    d.set_fault_plan(FaultPlan::default().with_kill(2));
    let cell = format!("resize×quarantine; replay: {}", d.replay_hint());
    let wave: Vec<(u32, u32)> = (600..800u32).map(|i| (i * 3 + 1, i)).collect();
    d.put_batch(&wave).unwrap();
    model.extend(wave.iter().copied());
    assert_eq!(d.quarantined(), vec![2], "{cell}: GPU 2 must be quarantined");
    // now grow the degraded node: quarantined GPU 2 is skipped, every
    // survivor doubles
    let cap_before = d.occupancy_split().capacity;
    assert!(d.request_grow().unwrap(), "{cell}: grow must start");
    assert_eq!(
        d.occupancy_split().capacity,
        2 * cap_before,
        "{cell}: survivors must double, quarantined GPU must not count"
    );
    assert_eq!(d.quarantined(), vec![2], "{cell}: grow must not resurrect GPU 2");
    // keep serving after both migrations
    let victims: Vec<u32> = model.keys().copied().step_by(9).take(40).collect();
    let del = d.delete_batch(&victims).unwrap();
    for (i, k) in victims.iter().enumerate() {
        assert!(del.hits[i], "{cell}: live key {k} missed post-grow");
        model.remove(k);
    }
    let keys: Vec<u32> = model.keys().copied().collect();
    let res = d.get_batch(&keys).unwrap().values;
    for (i, k) in keys.iter().enumerate() {
        assert_eq!(res[i], model.get(k).copied(), "{cell}: key {k} lost");
    }
    assert_eq!(d.len(), model.len() as u64, "{cell}: conservation");
    check_linearizable(&rec.events()).unwrap_or_else(|v| panic!("{cell}: {v}"));
}
