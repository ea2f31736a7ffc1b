//! Cross-crate integration: the full stack — workload generators →
//! multisplit → interconnect → hash maps — agrees with reference
//! implementations end to end.

use interconnect::Topology;
use std::collections::HashMap;
use std::sync::Arc;
use warpdrive::host_ops::Cut;
use warpdrive::{Config, DistributedHashMap, GpuHashMap, MapService, Resident};
use wd_apps::quad_node;
use workloads::Distribution;

/// The distributed map, the single-GPU map and std's HashMap must hold
/// identical content after the same insertion stream (unique keys).
#[test]
fn distributed_equals_single_equals_std() {
    let n = 6000;
    let pairs = Distribution::Unique.generate(n, 11);

    // reference
    let model: HashMap<u32, u32> = pairs.iter().copied().collect();

    // single GPU
    let dev = Arc::new(gpu_sim::Device::with_words(0, 1 << 17));
    let single = GpuHashMap::new(dev, 8192, Config::default()).unwrap();
    single.insert_pairs(&pairs).unwrap();

    // distributed over 4 GPUs (device-sided cascade)
    let mut dmap = DistributedHashMap::new(
        quad_node(4096, n),
        4096,
        Config::default(),
        Topology::p100_quad(4),
    )
    .unwrap();
    let per_gpu: Vec<&[(u32, u32)]> = pairs.chunks(n / 4).collect();
    dmap.apply_device_sided(Resident::Puts(&per_gpu), None).unwrap();

    assert_eq!(single.len() as usize, model.len());
    assert_eq!(dmap.len() as usize, model.len());

    // contents agree
    let mut single_snap = single.snapshot();
    single_snap.sort_unstable();
    let mut dist_snap: Vec<(u32, u32)> =
        dmap.maps().iter().flat_map(GpuHashMap::snapshot).collect();
    dist_snap.sort_unstable();
    let mut model_snap: Vec<(u32, u32)> = model.into_iter().collect();
    model_snap.sort_unstable();
    assert_eq!(single_snap, model_snap);
    assert_eq!(dist_snap, model_snap);
}

/// Host-sided cascade answers equal the device-sided cascade answers.
#[test]
fn host_and_device_cascades_agree() {
    let n = 4000;
    let pairs = Distribution::Uniform.generate(n, 3);
    let mut dmap = DistributedHashMap::new(
        quad_node(4096, n),
        4096,
        Config::default(),
        Topology::p100_quad(4),
    )
    .unwrap();
    dmap.put_batch(&pairs).unwrap();

    let keys: Vec<u32> = pairs.iter().map(|p| p.0).chain([1, 2, 3]).collect();
    let host_res = dmap.get_batch(&keys).unwrap().values;

    // device-sided query of the same keys, spread arbitrarily
    let per = keys.len() / 4;
    let per_gpu: Vec<&[u32]> =
        (0..4).map(|g| &keys[g * per..if g == 3 { keys.len() } else { (g + 1) * per }]).collect();
    let dev_res = dmap.apply_device_sided(Resident::Reads(&per_gpu), None).unwrap().values;
    let dev_flat: Vec<Option<u32>> = dev_res.into_iter().flatten().collect();
    assert_eq!(host_res, dev_flat);
}

/// The overlapped pipeline produces the same final map state as the
/// synchronous path, and its results match, batch boundaries or not.
#[test]
fn overlap_is_functionally_transparent() {
    let n = 5000;
    let pairs = Distribution::Unique.generate(n, 5);

    let mut a = DistributedHashMap::new(
        quad_node(4096, n),
        4096,
        Config::default(),
        Topology::p100_quad(4),
    )
    .unwrap();
    a.put_batch(&pairs).unwrap();

    let mut b = DistributedHashMap::new(
        quad_node(4096, n),
        4096,
        Config::default(),
        Topology::p100_quad(4),
    )
    .unwrap();
    b.apply_in_chunks(&[], &pairs, &[], &mut [], &mut [], Cut::new(700, 4)).unwrap();

    assert_eq!(a.len(), b.len());
    let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
    let mut ra = vec![None; keys.len()];
    a.apply_in_chunks(&keys, &[], &[], &mut ra, &mut [], Cut::new(999, 2)).unwrap();
    let rb = b.get_batch(&keys).unwrap().values;
    assert_eq!(ra, rb);
}

/// Multisplit + partition-table transposition routes every key to the GPU
/// the partition function names, for every distribution.
#[test]
fn partition_routing_is_exact_for_all_distributions() {
    for dist in [
        Distribution::Unique,
        Distribution::Uniform,
        Distribution::paper_zipf(),
    ] {
        let n = 3000;
        let pairs = dist.generate(n, 17);
        let mut dmap = DistributedHashMap::new(
            quad_node(4096, n),
            4096,
            Config::default(),
            Topology::p100_quad(4),
        )
        .unwrap();
        dmap.put_batch(&pairs).unwrap();
        for (g, map) in dmap.maps().iter().enumerate() {
            for (k, _) in map.snapshot() {
                assert_eq!(
                    dmap.partition().part(k) as usize,
                    g,
                    "{}: key {k} on wrong GPU",
                    dist.label()
                );
            }
        }
    }
}

/// Baselines agree with WarpDrive on content for a shared workload.
#[test]
fn baselines_agree_with_warpdrive() {
    let n = 2000;
    let pairs = Distribution::Unique.generate(n, 23);
    let keys: Vec<u32> = pairs.iter().map(|p| p.0).chain([7, 8]).collect();

    let dev = Arc::new(gpu_sim::Device::with_words(0, 1 << 16));
    let wd = GpuHashMap::new(Arc::clone(&dev), 4096, Config::default()).unwrap();
    wd.insert_pairs(&pairs).unwrap();
    let wd_res = wd.try_retrieve(&keys).unwrap().values;

    let cuckoo = baselines::CuckooHash::new(Arc::clone(&dev), 4096, 1).unwrap();
    let out = cuckoo.insert_pairs(&pairs);
    assert_eq!(out.failed, 0);
    let ck_res = cuckoo.try_retrieve(&keys).unwrap().values;

    let rh = baselines::RobinHoodMap::new(Arc::clone(&dev), 4096, 2).unwrap();
    assert_eq!(rh.insert_pairs(&pairs).failed, 0);
    let rh_res = rh.try_retrieve(&keys).unwrap().values;

    let st = baselines::StadiumHash::new(
        Arc::clone(&dev),
        4096,
        baselines::stadium::TablePlacement::InCore,
        3,
    )
    .unwrap();
    assert_eq!(st.insert_pairs(&pairs).failed, 0);
    let st_res = st.try_retrieve(&keys).unwrap().values;

    let (sc, _) = baselines::SortCompressStore::build(Arc::clone(&dev), &pairs).unwrap();
    let sc_res = sc.try_retrieve(&keys).unwrap().values;

    let fl = baselines::FolkloreMap::new(4096);
    assert_eq!(fl.insert_bulk(&pairs).failed, 0);
    let fl_res = fl.get_bulk(&keys);

    assert_eq!(wd_res, ck_res);
    assert_eq!(wd_res, rh_res);
    assert_eq!(wd_res, st_res);
    assert_eq!(wd_res, sc_res);
    assert_eq!(wd_res, fl_res);
}
