//! VRAM-limit behaviour across the stack — the paper's motivation: the
//! single-GPU table size is bounded by global memory, and the multi-GPU
//! scheme removes that bound.

use interconnect::Topology;
use std::sync::Arc;
use warpdrive::{BuildError, Config, DistributedHashMap, GpuHashMap, MapService, Resident};
use workloads::Distribution;

/// A table that exceeds one device's VRAM fails to build …
#[test]
fn single_gpu_table_is_vram_bounded() {
    let dev = Arc::new(gpu_sim::Device::with_words(0, 10_000));
    let err = GpuHashMap::new(dev, 20_000, Config::default()).unwrap_err();
    match err {
        BuildError::OutOfMemory(oom) => {
            assert!(oom.requested_words >= 20_000);
            assert!(oom.available_words <= 10_000);
        }
        e => panic!("expected OOM, got {e}"),
    }
}

/// … while the same aggregate capacity distributes over four devices.
#[test]
fn distributed_map_exceeds_single_device_capacity() {
    let per_dev_words = 10_000;
    let total_capacity = 24_000; // will not fit one 10k-word device
    let devices: Vec<_> = (0..4)
        .map(|i| Arc::new(gpu_sim::Device::with_words(i, per_dev_words)))
        .collect();
    let mut dmap = DistributedHashMap::new(
        devices,
        total_capacity / 4,
        Config::default(),
        Topology::p100_quad(4),
    )
    .expect("distributed map fits");
    let pairs = Distribution::Unique.generate(4000, 1);
    dmap.put_batch(&pairs).unwrap();
    assert_eq!(dmap.len(), 4000);
}

/// Scratch staging is reclaimed: thousands of host-API calls must not
/// exhaust VRAM (the regression the scratch allocator exists for).
#[test]
fn repeated_host_calls_do_not_leak_vram() {
    let dev = Arc::new(gpu_sim::Device::with_words(0, 1 << 14));
    let map = GpuHashMap::new(Arc::clone(&dev), 2048, Config::default()).unwrap();
    let before = dev.mem().available_words();
    for round in 0..2000u32 {
        map.insert_pairs(&[(round + 1, round)]).unwrap();
        map.try_retrieve(&[round + 1]).unwrap();
    }
    assert_eq!(dev.mem().available_words(), before, "scratch leaked");
}

/// When the staging buffers cannot fit next to the table, the operation
/// fails cleanly with OOM instead of corrupting anything.
#[test]
fn oversized_staging_fails_cleanly() {
    let dev = Arc::new(gpu_sim::Device::with_words(0, 4096));
    let map = GpuHashMap::new(Arc::clone(&dev), 3968, Config::default()).unwrap();
    // staging for 4096 pairs cannot fit beside a ~4k-word table
    let pairs: Vec<(u32, u32)> = (0..4096u32).map(|i| (i + 1, i)).collect();
    let err = map.insert_pairs(&pairs).unwrap_err();
    assert!(matches!(err, warpdrive::OpError::OutOfMemory(_)));
    // the map remains usable
    map.insert_pairs(&[(5, 50)]).unwrap();
    assert_eq!(map.try_retrieve(&[5]).unwrap().values, [Some(50)]);
}

/// Rebuild-after-failure: an overfilled probing sequence triggers
/// ProbingExhausted; a rebuild with a fresh hash function reuses the
/// same VRAM (no second allocation).
#[test]
fn rebuild_reuses_table_memory() {
    let dev = Arc::new(gpu_sim::Device::with_words(0, 1 << 14));
    let mut map = GpuHashMap::new(Arc::clone(&dev), 1024, Config::default()).unwrap();
    let pairs = Distribution::Unique.generate(1000, 9);
    map.insert_pairs(&pairs).unwrap();
    let free_before = dev.mem().available_words();
    map.rebuild_with_fresh_hash().unwrap();
    assert_eq!(dev.mem().available_words(), free_before);
    assert_eq!(map.len(), 1000);
}

/// The full 16 GB P100 pool arithmetic: capacity accounting matches the
/// spec (a paper-scale table of 2^27/0.95 slots consumes ~1.1 GB).
#[test]
fn paper_scale_capacity_arithmetic() {
    let spec = gpu_sim::DeviceSpec::p100();
    assert_eq!(spec.vram_bytes, 16 << 30);
    let capacity = ((1u64 << 27) as f64 / 0.95).ceil() as u64;
    let table_bytes = capacity * 8;
    assert!(
        table_bytes < 2 << 30,
        "single-GPU Fig. 7 table fits in 2 GB"
    );
    // 2^32 pairs at alpha = 0.95 need ~36 GB — impossible on one 16 GB
    // device, the Fig. 10 motivation
    let big = ((1u64 << 32) as f64 / 0.95).ceil() as u64 * 8;
    assert!(big > spec.vram_bytes);
    // but fine across four devices
    assert!(big / 4 < spec.vram_bytes);
}

/// The retrieval cascade stages its answers in scratch on every target
/// GPU. A target whose VRAM holds the received queries but not the
/// answers beside them fails the operation with a typed OOM — like the
/// multisplit and transposition phases before it — and frees what it
/// held.
#[test]
fn starved_query_output_scratch_is_a_typed_error() {
    let words = |i| if i == 1 { 1024 + 700 } else { 1 << 14 };
    let devices: Vec<_> = (0..2)
        .map(|i| Arc::new(gpu_sim::Device::with_words(i, words(i))))
        .collect();
    let starved = Arc::clone(&devices[1]);
    let mut dmap =
        DistributedHashMap::new(devices, 1024, Config::default(), Topology::p100_quad(2)).unwrap();
    let free_before = starved.mem().available_words();
    // 500 queries resident on GPU 0, all owned by GPU 1: its 700 free
    // words take the 500 received words, not 500 answers as well
    let keys: Vec<u32> = (1..)
        .filter(|&k| dmap.partition().part(k) == 1)
        .take(500)
        .collect();
    let err = dmap.apply_device_sided(Resident::Reads(&[&keys, &[]]), None).unwrap_err();
    assert!(matches!(err, warpdrive::OpError::OutOfMemory(_)), "{err:?}");
    assert_eq!(starved.mem().available_words(), free_before, "scratch leaked");
    // the map remains usable at a size that fits
    dmap.put_batch(&[(5, 50)]).unwrap();
    assert_eq!(dmap.get_batch(&[5]).unwrap().values, [Some(50)]);
}
