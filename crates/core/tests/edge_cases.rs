//! Edge-case coverage for the warpdrive crate: boundary sizes, extreme
//! values, failure paths and recovery — the inputs a downstream user will
//! eventually throw at the library.

use interconnect::Topology;
use std::sync::Arc;
use warpdrive::host_ops::Cut;
use warpdrive::{
    pack, Config, DistributedHashMap, GpuHashMap, GpuMultiMap, Layout, MapService, Op, OpError,
    OpReport, Schedule,
};

fn device(words: usize) -> Arc<gpu_sim::Device> {
    Arc::new(gpu_sim::Device::with_words(0, words))
}

#[test]
fn empty_batches_are_noops() {
    let mut map = GpuHashMap::new(device(1 << 12), 256, Config::default()).unwrap();
    let out = map.insert_pairs(&[]).unwrap();
    assert_eq!(out.new_slots, 0);
    let res = map.try_retrieve(&[]).unwrap().values;
    assert!(res.is_empty());
    assert_eq!(map.try_erase(&[]).unwrap().erased, 0);
    assert!(map.is_empty());
}

#[test]
fn capacity_rounds_up_to_spans() {
    let map = GpuHashMap::new(device(1 << 12), 1, Config::default()).unwrap();
    assert_eq!(map.capacity(), 32);
    let map = GpuHashMap::new(device(1 << 12), 33, Config::default()).unwrap();
    assert_eq!(map.capacity(), 64);
}

#[test]
fn extreme_key_and_value_bits_round_trip() {
    let map = GpuHashMap::new(device(1 << 12), 64, Config::default()).unwrap();
    // key 0, max legal key, value 0 and value u32::MAX all survive
    let pairs = [(0u32, 0u32), (0xFFFF_FFFE, u32::MAX), (1, 0x8000_0000)];
    map.insert_pairs(&pairs).unwrap();
    for (k, v) in pairs {
        assert_eq!(map.get(k), Some(v), "key {k:#x}");
    }
}

/// Every front-door call naming the reserved key at position 2 is
/// refused with that position, nothing applied, and the backend goes on
/// working. Packed, `u32::MAX` would read as a vacant slot: an AOS
/// "update" of an EMPTY word used to leak the slot for good.
fn refuses_the_reserved_key<S: MapService>(s: &mut S, backend: &str) {
    const BAD: u32 = u32::MAX;
    let refused = OpError::ReservedKey { index: 2 };
    s.put_batch(&[(1, 10), (2, 20)]).unwrap();
    let before = (s.live_len(), s.occupancy_split());
    assert_eq!(s.put_batch(&[(3, 30), (4, 40), (BAD, 1)]).unwrap_err(), refused, "{backend}");
    assert_eq!(s.get_batch(&[1, 2, BAD]).unwrap_err(), refused, "{backend}");
    assert_eq!(s.delete_batch(&[1, 2, BAD, 2]).unwrap_err(), refused, "{backend}");
    assert_eq!(s.get_put_batch(&[1, 2, BAD], &[(3, 30)]).unwrap_err(), refused, "{backend}");
    let puts = [(3, 30), (4, 40), (BAD, 1)];
    assert_eq!(s.get_put_batch(&[1], &puts).unwrap_err(), refused, "{backend}");
    let ops = [
        Op::Put { key: 3, value: 30 },
        Op::Delete { key: 1 },
        Op::Get { key: BAD },
        Op::Put { key: BAD, value: 1 },
    ];
    assert_eq!(s.execute(&ops).unwrap_err(), refused, "{backend}");
    assert_eq!((s.live_len(), s.occupancy_split()), before, "{backend}: nothing was applied");
    assert_eq!(s.get_batch(&[1, 2, 3]).unwrap().values, [Some(10), Some(20), None], "{backend}");
    s.put_batch(&[(0xFFFF_FFFE, 7)]).unwrap();
    assert_eq!(s.get_batch(&[0xFFFF_FFFE]).unwrap().values, [Some(7)], "{backend}");
}

#[test]
fn reserved_key_is_refused_with_a_typed_error() {
    let refused = OpError::ReservedKey { index: 1 };
    for layout in [Layout::Aos, Layout::Soa] {
        let cfg = Config::default().with_layout(layout);
        let mut map = GpuHashMap::new(device(1 << 12), 64, cfg).unwrap();
        refuses_the_reserved_key(&mut map, &format!("GpuHashMap {layout:?}"));
        assert_eq!(map.insert_pairs(&[(5, 5), (u32::MAX, 1)]).unwrap_err(), refused);
        assert_eq!(map.try_retrieve(&[5, u32::MAX]).unwrap_err(), refused);
        assert_eq!(map.try_erase(&[5, u32::MAX]).unwrap_err(), refused);
        assert_eq!(map.get(u32::MAX), None);
        // the routed paths of a migration in flight refuse it as well
        assert!(map.request_grow().unwrap());
        refuses_the_reserved_key(&mut map, &format!("GpuHashMap {layout:?}, migrating"));
    }

    // a node of four GPUs, and §VI's sharded table: three partitions of
    // one device
    let quad = (0..4).map(|i| Arc::new(gpu_sim::Device::with_words(i, 1 << 14)));
    let topo = Topology::p100_quad(4);
    let quad = DistributedHashMap::new(quad.collect(), 512, Config::default(), topo);
    let dev = device(1 << 15);
    let topo = Topology::one_device(3, dev.spec());
    let sharded = DistributedHashMap::new(vec![dev; 3], 256, Config::default(), topo);
    for (name, node) in [("DistributedHashMap", quad), ("one-device DistributedHashMap", sharded)] {
        let mut node = node.unwrap();
        refuses_the_reserved_key(&mut node, name);
        // the position is the caller's, not the partition's
        assert_eq!(node.insert_from_host(&[(5, 5), (u32::MAX, 1)]).unwrap_err(), refused);
        assert_eq!(node.try_retrieve_from_host(&[5, u32::MAX]).unwrap_err(), refused);
        assert_eq!(node.try_erase_from_host(&[5, u32::MAX]).unwrap_err(), refused);
        assert_eq!(node.get(u32::MAX), None);
    }

    let multi = GpuMultiMap::new(device(1 << 12), 64, Config::default()).unwrap();
    multi.insert_pairs(&[(5, 50)]).unwrap();
    assert_eq!(multi.insert_pairs(&[(5, 51), (u32::MAX, 1)]).unwrap_err(), refused);
    // no phantom value for the EMPTY slots of the first window
    assert_eq!(multi.try_retrieve_all(&[5, u32::MAX]).unwrap_err(), refused);
    assert_eq!(multi.count(u32::MAX), 0);
    assert_eq!((multi.len(), multi.count(5)), (1, 1));
}

/// A node of four GPUs holding `(1, 10)`, and the device-sided lists that
/// name the reserved key fourth in GPU order: GPU 0 holds two words, GPU 1
/// none, GPU 2 the bad one behind a good one.
fn node_and_lists_naming_the_reserved_key() -> (DistributedHashMap, Vec<Vec<u32>>) {
    let devices = (0..4).map(|i| Arc::new(gpu_sim::Device::with_words(i, 1 << 14)));
    let node =
        DistributedHashMap::new(devices.collect(), 512, Config::default(), Topology::p100_quad(4))
            .unwrap();
    node.insert_from_host(&[(1, 10)]).unwrap();
    (node, vec![vec![1, 2], vec![], vec![3, u32::MAX], vec![4]])
}

/// What a node's devices have seen: launches and uploaded bytes.
fn device_traffic(node: &DistributedHashMap) -> Vec<(u64, u64)> {
    let traffic = |map: &GpuHashMap| {
        let dev = map.device();
        (dev.lifetime_stats().launches, dev.mem().uploaded_bytes())
    };
    node.maps().iter().map(traffic).collect()
}

#[test]
fn insert_device_sided_refuses_the_reserved_key_before_any_upload() {
    let (node, keys) = node_and_lists_naming_the_reserved_key();
    // packed by hand: `pack` asserts the key is not the reserved one
    let words: Vec<Vec<u64>> = keys
        .iter()
        .map(|list| list.iter().map(|&k| u64::from(k) << 32 | 7).collect())
        .collect();
    let before = device_traffic(&node);
    let refused = node.insert_device_sided(&words).unwrap_err();
    assert_eq!(refused, OpError::ReservedKey { index: 3 });
    assert_eq!((device_traffic(&node), node.len()), (before, 1));
}

#[test]
fn try_retrieve_device_sided_refuses_the_reserved_key_before_any_upload() {
    let (node, keys) = node_and_lists_naming_the_reserved_key();
    let before = device_traffic(&node);
    let refused = node.try_retrieve_device_sided(&keys).unwrap_err();
    assert_eq!(refused, OpError::ReservedKey { index: 3 });
    assert_eq!(device_traffic(&node), before);
}

#[test]
fn try_erase_device_sided_refuses_the_reserved_key_before_any_upload() {
    let (mut node, mut keys) = node_and_lists_naming_the_reserved_key();
    let before = device_traffic(&node);
    let refused = node.try_erase_device_sided(&keys).unwrap_err();
    assert_eq!(refused, OpError::ReservedKey { index: 3 });
    assert_eq!((device_traffic(&node), node.len()), (before, 1));
    keys[2].pop();
    assert_eq!(node.try_erase_device_sided(&keys).unwrap().erased, 1);
}

#[test]
fn tiny_p_max_fails_fast_and_recovers() {
    let cfg = Config {
        p_max: 1, // one span only: 32 slots reachable per key
        ..Config::default()
    };
    let map = GpuHashMap::new(device(1 << 13), 96, cfg).unwrap();
    // overfill one span's worth of keys: some must fail
    let pairs: Vec<(u32, u32)> = (0..96u32).map(|i| (i + 1, i)).collect();
    match map.insert_pairs(&pairs) {
        Ok(_) => { /* possible if hashing spread perfectly */ }
        Err(OpError::ProbingExhausted { failed }) => {
            assert!(failed > 0);
            // the placed subset is still fully retrievable
            let placed = map.len();
            let res = map.try_retrieve(&(1..=96).collect::<Vec<u32>>()).unwrap().values;
            assert_eq!(res.iter().filter(|r| r.is_some()).count() as u64, placed);
        }
        Err(e) => panic!("unexpected {e}"),
    }
}

#[test]
fn interleaved_erase_insert_query_cycles() {
    let mut map = GpuHashMap::new(device(1 << 14), 512, Config::default()).unwrap();
    for round in 0..6u32 {
        let base = round * 100;
        let pairs: Vec<(u32, u32)> = (0..100).map(|i| (base + i + 1, round)).collect();
        map.insert_pairs(&pairs).unwrap();
        if round % 2 == 1 {
            // erase the previous round entirely
            let victims: Vec<u32> = (0..100).map(|i| base - 100 + i + 1).collect();
            assert_eq!(map.try_erase(&victims).unwrap().erased, 100);
        }
    }
    // rounds 0,2,4 were erased by 1,3,5 → rounds 1,3,5 + none of 0,2,4?
    // erasures happen on odd rounds against the preceding even round
    assert_eq!(map.len(), 300);
    // 300 entries were tombstoned, but later rounds' inserts reclaim any
    // tombstone they probe into, so the pending count is at most 300
    assert!(map.tombstones() <= 300, "got {}", map.tombstones());
    assert_eq!(map.get(1), None); // round 0, erased
    assert_eq!(map.get(101), Some(1)); // round 1, alive
                                       // rebuild compacts and preserves
    map.rebuild_with_fresh_hash().unwrap();
    assert_eq!(map.len(), 300);
    assert_eq!(map.get(101), Some(1));
}

#[test]
fn soa_and_aos_agree_on_everything() {
    let pairs: Vec<(u32, u32)> = (0..700u32).map(|i| (i * 13 + 1, i ^ 0xbeef)).collect();
    let keys: Vec<u32> = pairs.iter().map(|p| p.0).chain([42]).collect();
    let mut results = Vec::new();
    for layout in [Layout::Aos, Layout::Soa] {
        let mut map =
            GpuHashMap::new(device(1 << 13), 1024, Config::default().with_layout(layout)).unwrap();
        map.insert_pairs(&pairs).unwrap();
        map.try_erase(&[pairs[0].0, pairs[1].0]).unwrap();
        map.insert_pairs(&[(pairs[2].0, 777)]).unwrap();
        let res = map.try_retrieve(&keys).unwrap().values;
        results.push(res);
    }
    assert_eq!(results[0], results[1]);
}

#[test]
fn multimap_empty_and_absent_keys() {
    let map = GpuMultiMap::new(device(1 << 12), 128, Config::default()).unwrap();
    let res = map.try_retrieve_all(&[5]).unwrap().values;
    assert!(res[0].is_empty());
    assert_eq!(map.count(5), 0);
    map.insert_pairs(&[]).unwrap();
    assert!(map.is_empty());
}

#[test]
fn distributed_two_and_three_gpu_nodes() {
    for m in [2usize, 3] {
        let devices: Vec<_> = (0..m)
            .map(|i| Arc::new(gpu_sim::Device::with_words(i, 1 << 15)))
            .collect();
        let dmap =
            DistributedHashMap::new(devices, 2048, Config::default(), Topology::p100_quad(m))
                .unwrap();
        let pairs: Vec<(u32, u32)> = (0..2500u32).map(|i| (i * 11 + 1, i)).collect();
        dmap.insert_from_host(&pairs).unwrap();
        assert_eq!(dmap.len(), 2500, "m = {m}");
        let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
        let res = dmap.try_retrieve_from_host(&keys).unwrap().values;
        assert!(res.iter().all(Option::is_some), "m = {m}");
    }
}

#[test]
fn distributed_handles_empty_and_skewed_gpu_batches() {
    let devices: Vec<_> = (0..4)
        .map(|i| Arc::new(gpu_sim::Device::with_words(i, 1 << 15)))
        .collect();
    let dmap =
        DistributedHashMap::new(devices, 2048, Config::default(), Topology::p100_quad(4)).unwrap();
    // everything on GPU 0, nothing elsewhere
    let words: Vec<u64> = (0..1000u32).map(|i| pack(i * 3 + 1, i)).collect();
    let rep = dmap
        .insert_device_sided(&[words, Vec::new(), Vec::new(), Vec::new()])
        .unwrap();
    assert_eq!(dmap.len(), 1000);
    assert!(rep.time > 0.0);
    // query entirely from GPU 3
    let keys: Vec<u32> = (0..1000u32).map(|i| i * 3 + 1).collect();
    let res = dmap
        .try_retrieve_device_sided(&[Vec::new(), Vec::new(), Vec::new(), keys])
        .unwrap()
        .values;
    assert!(res[3].iter().all(Option::is_some));
}

/// A report's launches and its stage rows, every time bit for bit.
fn report_bits(report: &OpReport) -> Vec<(String, u64, u64, u64)> {
    let rows = report.stages.iter().map(|s| {
        (format!("{:?}", s.stage), s.time.to_bits(), s.bytes, s.overhead.to_bits())
    });
    let total = ("launches".to_owned(), report.launches, 0, report.time.to_bits());
    rows.chain([total]).collect()
}

#[test]
fn one_partition_on_one_device_reports_what_a_single_gpu_node_reports() {
    let cfg = Config::default().with_schedule(Schedule::Sequential);
    let dev = device(1 << 15);
    let topo = Topology::one_device(1, dev.spec());
    let nodes = [
        DistributedHashMap::new(vec![dev], 1024, cfg, topo),
        DistributedHashMap::new(vec![device(1 << 15)], 1024, cfg, Topology::p100_quad(1)),
    ];
    let pairs: Vec<(u32, u32)> = (0..900u32).map(|i| (i + 1, i)).collect();
    let keys: Vec<u32> = pairs.iter().map(|p| p.0).chain([5000]).collect();
    let [sharded, single] = nodes.map(|node| {
        let mut node = node.unwrap();
        let put = node.insert_from_host(&pairs).unwrap();
        let get = node.try_retrieve_from_host(&keys).unwrap();
        let del = node.try_erase_from_host(&keys[..300]).unwrap();
        let reports = [&put, &get.report, &del.report].map(report_bits);
        (reports, get.values, del.hits, node.len())
    });
    assert_eq!(sharded, single);
    assert_eq!(single.3, 600);
}

#[test]
fn overlapped_batch_size_larger_than_input() {
    let devices: Vec<_> = (0..4)
        .map(|i| Arc::new(gpu_sim::Device::with_words(i, 1 << 15)))
        .collect();
    let dmap =
        DistributedHashMap::new(devices, 2048, Config::default(), Topology::p100_quad(4)).unwrap();
    let pairs: Vec<(u32, u32)> = (0..100u32).map(|i| (i + 1, i)).collect();
    let rep = dmap.insert_in_chunks(&pairs, Cut::new(10_000, 4)).unwrap();
    // one batch cannot overlap with itself: the plain bracket's report
    assert!(rep.overlaps.is_empty());
    let rows: f64 = rep.stages.iter().map(|s| s.time).sum();
    assert_eq!(rep.time.to_bits(), rows.to_bits());
    assert_eq!(dmap.len(), 100);
}

#[test]
fn group_size_can_change_between_batches() {
    let mut map = GpuHashMap::new(device(1 << 13), 1024, Config::default()).unwrap();
    let pairs: Vec<(u32, u32)> = (0..800u32).map(|i| (i + 1, i)).collect();
    for (i, chunk) in pairs.chunks(200).enumerate() {
        map.set_group_size(gpu_sim::GroupSize::new([1u32, 4, 16, 32][i]));
        map.insert_pairs(chunk).unwrap();
    }
    map.set_group_size(gpu_sim::GroupSize::new(2));
    let res = map
        .try_retrieve(&pairs.iter().map(|p| p.0).collect::<Vec<_>>())
        .unwrap()
        .values;
    assert!(res.iter().all(Option::is_some));
}
