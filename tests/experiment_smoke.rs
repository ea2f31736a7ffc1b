//! Experiment-path smoke tests: run the library calls behind every
//! figure at tiny scale and assert the paper's qualitative shapes. These
//! are the same code paths the `wd-bench` scenarios drive (each of which
//! `crates/bench/tests/registry.rs` also runs at a tiny `--n`).

use interconnect::{alltoall_time, broadcast_h2d_time, Topology};
use std::sync::Arc;
use warpdrive::host_ops::Cut;
use warpdrive::{pack, Config, DistributedHashMap, GpuHashMap};
use wd_apps::quad_node;
use workloads::Distribution;

fn single_rates(load: f64, g: u32, n: usize) -> (f64, f64) {
    let capacity = (n as f64 / load).ceil() as usize;
    let dev = Arc::new(gpu_sim::Device::with_words(0, capacity + 4 * n + 1024));
    let map = GpuHashMap::new(
        Arc::clone(&dev),
        capacity,
        Config::default().with_group_size(g),
    )
    .unwrap();
    let pairs = Distribution::Unique.generate(n, 1);
    let ins = map.insert_pairs(&pairs).unwrap();
    let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
    let ret = map.try_retrieve(&keys).unwrap().report;
    let p100 = gpu_sim::DeviceSpec::p100();
    (
        n as f64 / p100.net_of_launches(ins.stats.sim_time, 1),
        n as f64 / p100.net_of_launches(ret.time, 1),
    )
}

/// Fig. 7 shapes: rates fall with load; retrieval beats insertion;
/// |g| = 4 beats |g| = 32 everywhere; |g| = 4 beats |g| = 1 at high load.
#[test]
fn fig7_shape_holds() {
    let n = 1 << 14;
    let (ins_lo_4, ret_lo_4) = single_rates(0.5, 4, n);
    let (ins_hi_4, ret_hi_4) = single_rates(0.95, 4, n);
    let (ins_hi_1, _) = single_rates(0.95, 1, n);
    let (ins_hi_32, _) = single_rates(0.95, 32, n);
    assert!(ins_lo_4 > ins_hi_4, "insert must slow with load");
    assert!(ret_lo_4 > ret_hi_4, "retrieve must slow with load");
    assert!(ret_hi_4 > ins_hi_4, "retrieval (no CAS) must be faster");
    assert!(ins_hi_4 > ins_hi_1, "groups must beat naive at high load");
    assert!(ins_hi_4 > ins_hi_32, "full warps waste bandwidth");
}

/// §V-B headline: WarpDrive beats the cuckoo baseline on insertion at
/// high load by a growing factor.
#[test]
fn speedup_over_cuckoo_grows_with_load() {
    let n = 1 << 14;
    let ratio_at = |load: f64| {
        let (wd, _) = single_rates(load, 4, n);
        let capacity = (n as f64 / load).ceil() as usize;
        let dev = Arc::new(gpu_sim::Device::with_words(0, capacity + 4 * n + 1024));
        let cuckoo = baselines::CuckooHash::new(dev, capacity, 1).unwrap();
        let pairs = Distribution::Unique.generate(n, 1);
        let out = cuckoo.insert_pairs(&pairs);
        let cuckoo_s = gpu_sim::DeviceSpec::p100().net_of_launches(out.stats.sim_time, 1);
        wd / (n as f64 / cuckoo_s)
    };
    let r80 = ratio_at(0.80);
    let r95 = ratio_at(0.95);
    assert!(r80 > 1.3, "speedup at 0.8 was {r80:.2}");
    assert!(
        r95 > r80,
        "speedup must grow with load: {r80:.2} vs {r95:.2}"
    );
}

/// Fig. 9 shape: device cascades scale — per-phase times shrink with m,
/// and the m = 1 cascade skips communication.
#[test]
fn fig9_shape_holds() {
    let n = 1 << 14;
    let tau = |m: usize| {
        let per = n / m;
        let cap = (per as f64 / 0.9).ceil() as usize;
        let devices: Vec<_> = (0..m)
            .map(|i| Arc::new(gpu_sim::Device::with_words(i, cap + 8 * per + 4096)))
            .collect();
        let dmap = DistributedHashMap::new(devices, cap, Config::default(), Topology::p100_quad(m))
            .unwrap();
        let pairs = Distribution::Unique.generate(n, 2);
        let per_gpu: Vec<Vec<u64>> = pairs
            .chunks(per)
            .map(|c| c.iter().map(|&(k, v)| pack(k, v)).collect())
            .collect();
        // extrapolate to paper scale so fixed launch overheads (which
        // vanish at 2^28 elements) don't mask the comparison
        dmap.insert_device_sided(&per_gpu)
            .unwrap()
            .modeled_time(1024.0)
    };
    let t1 = tau(1);
    let t4 = tau(4);
    assert!(t4 < t1, "4 GPUs must beat 1: {t1:.2e} vs {t4:.2e}");
}

/// Fig. 11 shape: overlapped issue saves a large fraction; more threads
/// never hurt.
#[test]
fn fig11_shape_holds() {
    let n = 8000;
    let pairs = Distribution::Unique.generate(n, 3);
    let dmap = DistributedHashMap::new(
        quad_node(4096, n),
        4096,
        Config::default(),
        Topology::p100_quad(4),
    )
    .unwrap();
    // modeled scale strips the fixed launch overheads that mute overlap
    // at functional batch sizes
    let rep = dmap.insert_in_chunks(&pairs, Cut::new(1000, 4)).unwrap();
    let saving = rep.overlaps[0].saving(&rep.stages, 1024.0);
    assert!(saving > 0.2, "saving {saving:.2}");
    let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
    let retrieve = |threads| {
        let get = dmap.retrieve_in_chunks(&keys, Cut::new(1000, threads));
        get.unwrap().report
    };
    let (r2, r4) = (retrieve(2), retrieve(4));
    assert!(r4.modeled_time(1024.0) <= r2.modeled_time(1024.0) * 1.001);
    assert!(r2.overlaps[0].saving(&r2.stages, 1024.0) > 0.2);
}

/// Fig. 6 numbers: interconnect ceilings match the paper.
#[test]
fn interconnect_ceilings_match_paper() {
    let topo = Topology::p100_quad(4);
    let total = 32u64 << 30;
    let h2d = total as f64 / broadcast_h2d_time(&topo, total);
    assert!((21.0e9..23.0e9).contains(&h2d), "H2D {h2d:.3e}");

    let per = 1u64 << 28;
    let a2a = alltoall_time(&topo, |_, _| per).accumulated_bandwidth();
    assert!((150.0e9..230.0e9).contains(&a2a), "all-to-all {a2a:.3e}");
}

/// The >2 GB CAS artifact: the same workload inserts slower when the
/// modeled capacity crosses the threshold (Fig. 10's drop and Fig. 9's
/// super-linearity both come from this).
#[test]
fn cas_degradation_artifact_reproduces() {
    let n = 1 << 14;
    let run = |modeled: u64| {
        let capacity = 4 * n;
        let dev = Arc::new(gpu_sim::Device::with_words(0, capacity + 4 * n + 1024));
        let cfg = Config::default().with_modeled_capacity(modeled);
        let map = GpuHashMap::new(dev, capacity, cfg).unwrap();
        let pairs = Distribution::Unique.generate(n, 4);
        map.insert_pairs(&pairs).unwrap().stats.sim_time
    };
    let small = run(1 << 30);
    let large = run(8 << 30);
    assert!(
        large > small * 1.05,
        "no degradation: {small:.3e} vs {large:.3e}"
    );
}
