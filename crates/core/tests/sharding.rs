//! §VI's sharded table: "the partitioning of high capacity hash maps into
//! several smaller hash maps each of size ≤ 2 GB" is a
//! [`DistributedHashMap`] whose partitions share one device
//! ([`Topology::one_device`]). The cascade routes keys to partitions as it
//! routes them to GPUs; one device runs its partitions' launches one after
//! another, so a phase takes the sum over the partitions, and what one
//! partition sends another is a copy through device memory.

use gpu_sim::{Device, DeviceSpec, FaultPlan};
use interconnect::Topology;
use std::sync::Arc;
use warpdrive::{
    CascadeStage, Config, DistributedHashMap, GpuHashMap, MapService, OpError, Resident, Schedule,
};

/// `s` partitions of `capacity` slots on one device.
fn sharded(s: usize, capacity: usize, cfg: Config) -> DistributedHashMap {
    let dev = Arc::new(Device::with_words(0, s * capacity + (1 << 16)));
    let topo = Topology::one_device(s, dev.spec());
    DistributedHashMap::new(vec![dev; s], capacity, cfg, topo).unwrap()
}

/// `cfg` with no fault plan from the environment.
fn healthy(cfg: Config) -> Config {
    cfg.with_fault(FaultPlan::default())
}

/// The launches the one device of `node` has made.
fn launches(node: &DistributedHashMap) -> u64 {
    node.maps()[0].device().lifetime_stats().launches
}

/// `items` in `m` contiguous chunks, one a partition.
fn spread<T>(items: &[T], m: usize) -> Vec<&[T]> {
    items.chunks(items.len().div_ceil(m)).collect()
}

#[test]
fn round_trip_across_partitions() {
    let mut node = sharded(4, 1024, Config::default());
    let pairs: Vec<(u32, u32)> = (0..3500u32).map(|i| (i * 3 + 1, i)).collect();
    node.put_batch(&pairs).unwrap();
    assert_eq!(node.len(), 3500);
    let keys: Vec<u32> = pairs.iter().map(|p| p.0).chain([999_999_999]).collect();
    let res = node.get_batch(&keys).unwrap().values;
    for (i, p) in pairs.iter().enumerate() {
        assert_eq!(res[i], Some(p.1), "key {}", p.0);
    }
    assert_eq!(res[3500], None);
    // the partitions share the load roughly evenly
    assert!((node.load_factor() - 3500.0 / 4096.0).abs() < 0.01);
}

#[test]
fn duplicates_update_within_their_partition() {
    let mut node = sharded(2, 256, Config::default());
    node.put_batch(&[(42, 1)]).unwrap();
    let put = node.put_batch(&[(42, 2)]).unwrap();
    assert_eq!((put.new_slots, put.updates), (0, 1));
    assert_eq!((node.get_batch(&[42]).unwrap().values, node.len()), (vec![Some(2)], 1));
}

#[test]
fn empty_operations() {
    let mut node = sharded(3, 128, Config::default());
    assert!(node.is_empty());
    assert_eq!(node.put_batch(&[]).unwrap().new_slots, 0);
    assert!(node.get_batch(&[]).unwrap().values.is_empty());
    assert_eq!(node.delete_batch(&[]).unwrap().erased, 0);
    assert!(node.is_empty());
}

#[test]
fn erase_scatters_hits_to_input_order() {
    let mut node = sharded(4, 1024, Config::default());
    let pairs: Vec<(u32, u32)> = (0..1000u32).map(|i| (i * 3 + 1, i)).collect();
    node.put_batch(&pairs).unwrap();
    // present and absent victims interleaved across partitions
    let victims: Vec<u32> = (0..500u32).flat_map(|i| [i * 3 + 1, i * 3 + 2]).collect();
    let out = node.delete_batch(&victims).unwrap();
    assert_eq!(out.erased, 500);
    for (j, &k) in victims.iter().enumerate() {
        assert_eq!(out.hits[j], k % 3 == 1, "victim {k}");
    }
    assert_eq!(node.len(), 500);
    // erased, and a survivor
    assert_eq!(node.get_batch(&[4, 500 * 3 + 1]).unwrap().values, [None, Some(500)]);
}

#[test]
fn transient_partition_launch_failures_retry_idempotently() {
    let plan = FaultPlan::default().with_seed(5).with_launch_fail(0.4);
    let mut node = sharded(4, 1024, Config::default().with_fault(plan));
    let pairs: Vec<(u32, u32)> = (0..2000u32).map(|i| (i * 9 + 1, i)).collect();
    let put = node.put_batch(&pairs).unwrap();
    assert_eq!(put.new_slots, 2000, "retries must apply each pair once");
    assert!(put.report.backoff_time > 0.0, "seed 5 @ 0.4 rolls a failure");
    assert!(put.report.backoff_time <= put.report.time);
    let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
    let res = node.get_batch(&keys).unwrap().values;
    assert!(res.iter().zip(&pairs).all(|(&v, p)| v == Some(p.1)));
}

#[test]
fn erase_under_transient_faults_retries_idempotently() {
    let plan = FaultPlan::default().with_seed(7).with_launch_fail(0.4);
    let mut node = sharded(4, 1024, Config::default().with_fault(plan));
    let pairs: Vec<(u32, u32)> = (0..1500u32).map(|i| (i * 5 + 1, i)).collect();
    node.put_batch(&pairs).unwrap();
    let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
    let out = node.delete_batch(&keys).unwrap();
    assert_eq!(out.erased, 1500);
    assert!(out.hits.iter().all(|&h| h));
    assert!(out.report.backoff_time > 0.0, "seed 7 @ 0.4 rolls a failure");
    assert!(node.is_empty());
}

/// Every partition of the one device fails for good: each is quarantined
/// in turn, and the last one has no survivor to take over.
#[test]
fn permanent_partition_failure_is_device_lost() {
    let mut node = sharded(2, 1024, Config::default());
    node.set_fault_plan(FaultPlan::default().with_launch_fail(1.0));
    let err = node.put_batch(&[(1, 10), (2, 20)]).unwrap_err();
    assert!(matches!(err, OpError::DeviceLost { .. }), "{err:?}");
}

#[test]
fn permanent_failure_during_erase_is_typed_device_lost() {
    let mut node = sharded(2, 1024, Config::default());
    node.set_fault_plan(FaultPlan::default().with_launch_fail(1.0));
    let err = node.delete_batch(&[1, 2, 3]).unwrap_err();
    assert!(matches!(err, OpError::DeviceLost { .. }), "{err:?}");
}

#[test]
fn put_get_and_delete_report_the_launches_the_device_made() {
    let pairs: Vec<(u32, u32)> = (0..2000u32).map(|i| (i * 9 + 1, i)).collect();
    let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
    let mut node = sharded(4, 1024, healthy(Config::default()));
    for (pairs, keys) in [(&pairs[..], &keys[..]), (&pairs[..1], &keys[..1])] {
        let before = launches(&node);
        let put = node.put_batch(pairs).unwrap().report.launches;
        let get = node.get_batch(keys).unwrap().report.launches;
        let delete = node.delete_batch(keys).unwrap().report.launches;
        assert_eq!(put + get + delete, launches(&node) - before);
        // the one key: a split where it was uploaded, and the device's one
        // node launch of the partition that owns it and, for the get and
        // the delete, of the scatter back
        if keys.len() == 1 {
            assert_eq!((put, get, delete), (2, 2, 2));
        }
    }
}

/// §VI: one 8 GB table degrades its CAS, four partitions of 2 GB on the
/// same device do not — net of what does not grow with the batch (the
/// launches each makes, the tail of the split's chain of waits), which
/// vanishes at paper scale and would swamp the comparison at test scale.
#[test]
fn sharding_divides_the_modeled_working_set() {
    let pairs: Vec<(u32, u32)> = (0..4000u32).map(|i| (i * 7 + 1, i)).collect();
    let dev = Arc::new(Device::with_words(0, 1 << 16));
    let mono = GpuHashMap::new(dev, 8192, Config::default().with_modeled_capacity(8 << 30));
    let mut node = sharded(4, 2048, Config::default().with_modeled_capacity(2 << 30));
    let p100 = DeviceSpec::p100();
    let t_mono = mono.unwrap().insert_pairs(&pairs).unwrap().stats.sim_time;
    let t_mono = p100.net_of_launches(t_mono, 1);
    let puts = Resident::Puts(&spread(&pairs, 4));
    let report = node.apply_device_sided(puts, None).unwrap().applied.report;
    let fixed: f64 = report.stages.iter().map(|row| row.overhead).sum();
    let t_node = report.time - fixed;
    assert!(t_node < t_mono, "CAS degradation not dodged: {t_node:.3e} vs {t_mono:.3e}");
}

/// The time of `stage`'s rows in `report`, and their launch overhead.
fn stage(report: &warpdrive::OpReport, stage: CascadeStage) -> (f64, f64) {
    let rows = report.stages.iter().filter(|s| s.stage == stage);
    rows.fold((0.0, 0.0), |(t, o), s| (t + s.time, o + s.overhead))
}

/// One device runs its partitions' launches one after another: the phases
/// of a round together take what the device's launches took, the split
/// pays a launch a partition, the partitions share the device's node
/// launch — its kernel phase pays one launch overhead and its scatter
/// phase one chain of waits — and each phase lies between
/// the max over the partitions — what the same partitions on a GPU each
/// (Fig. 6) take — and four times that.
#[test]
fn a_one_device_phase_is_the_sum_over_its_partitions() {
    use CascadeStage::{Insert, Multisplit, Query, Scatter, Transpose, TransposeBack};
    let cfg = healthy(Config::default().with_schedule(Schedule::Sequential));
    let mut node = sharded(4, 2048, cfg);
    let devices = (0..4).map(|i| Arc::new(Device::with_words(i, 1 << 16))).collect();
    let mut quad = DistributedHashMap::new(devices, 2048, cfg, Topology::p100_quad(4)).unwrap();
    let pairs: Vec<(u32, u32)> = (0..6000u32).map(|i| (i * 11 + 3, i)).collect();
    let puts = spread(&pairs, 4);
    let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
    let keys = spread(&keys, 4);
    let dev = node.maps()[0].device().clone();
    let oh = dev.spec().launch_overhead;
    for round in 0..2 {
        let before = dev.lifetime_stats();
        let (lists, phases) = match round {
            0 => (Resident::Puts(&puts), &[Multisplit, Insert][..]),
            _ => (Resident::Reads(&keys), &[Multisplit, Query, Scatter][..]),
        };
        let run = |d: &mut DistributedHashMap| d.apply_device_sided(lists, None).unwrap().applied;
        let (report, twin) = (run(&mut node).report, run(&mut quad).report);
        let after = dev.lifetime_stats();
        assert_eq!(report.launches, after.launches - before.launches);
        let copies = stage(&report, Transpose).0 + stage(&report, TransposeBack).0;
        let spent = after.sim_time - before.sim_time;
        assert!((report.time - copies - spent).abs() <= 1e-12 * spent, "round {round}");
        for &phase in phases {
            let ((time, overhead), (max, _)) = (stage(&report, phase), stage(&twin, phase));
            assert!(max < time && time <= 4.0 * max, "{phase:?}: {time:e} vs max {max:e}");
            if phase != Multisplit {
                // the device's one node launch pays its overhead on the
                // kernels' row, its chain of two waits on the scatter's
                let chain = 2.0 * dev.spec().mem_latency;
                let paid = if phase == Scatter { chain } else { oh };
                assert!((overhead - paid).abs() < 1e-15, "{phase:?}: {overhead:e}");
            }
        }
        // the transposition runs through device memory, not a link
        let (local, link) = (stage(&report, Transpose).0, stage(&twin, Transpose).0);
        assert!(0.0 < local && local < link, "{local:e} vs {link:e}");
    }
}

#[test]
#[should_panic(expected = "1..=32 partitions")]
fn a_node_refuses_more_partitions_than_its_quarantine_mask_holds() {
    let _ = sharded(33, 32, Config::default());
}

#[test]
#[should_panic(expected = "shared as the topology's `device_of` says")]
fn a_node_refuses_devices_shared_otherwise_than_its_topology_says() {
    // four partitions of one device, described as four GPUs
    let dev = Arc::new(Device::with_words(0, 1 << 16));
    let _ = DistributedHashMap::new(vec![dev; 4], 32, Config::default(), Topology::p100_quad(4));
}
