//! Cross-crate property-based tests (proptest): the invariants that make
//! the whole system correct, checked on arbitrary inputs.

use interconnect::Topology;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use warpdrive::{Config, DistributedHashMap, GpuHashMap, GpuMultiMap, Resident};
use wd_apps::quad_node;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Insert-then-get completeness for arbitrary pair sets, group sizes
    /// and layouts.
    #[test]
    fn insert_get_complete(
        pairs in proptest::collection::vec((0u32..100_000, any::<u32>()), 1..400),
        g in proptest::sample::select(vec![1u32, 2, 4, 8, 16, 32]),
        soa in any::<bool>(),
    ) {
        let layout = if soa { warpdrive::Layout::Soa } else { warpdrive::Layout::Aos };
        let dev = Arc::new(gpu_sim::Device::with_words(0, 1 << 15));
        let cfg = Config::default().with_group_size(g).with_layout(layout);
        let map = GpuHashMap::new(dev, 2048, cfg).unwrap();
        // model: last write wins per key within each sequential batch
        let mut model = HashMap::new();
        for chunk in pairs.chunks(64) {
            map.insert_pairs(chunk).unwrap();
            for &(k, v) in chunk {
                model.insert(k, v);
            }
        }
        let keys: Vec<u32> = model.keys().copied().collect();
        let res = map.try_retrieve(&keys).unwrap().values;
        for (i, k) in keys.iter().enumerate() {
            prop_assert_eq!(res[i], model.get(k).copied());
        }
        prop_assert_eq!(map.len() as usize, model.len());
    }

    /// Erase removes exactly the requested keys; the rest stay reachable
    /// through the tombstones.
    #[test]
    fn erase_is_precise(
        keys in proptest::collection::hash_set(0u32..10_000, 2..200),
        erase_every in 2usize..5,
    ) {
        let keys: Vec<u32> = keys.into_iter().collect();
        let dev = Arc::new(gpu_sim::Device::with_words(0, 1 << 15));
        let mut map = GpuHashMap::new(dev, 2048, Config::default()).unwrap();
        let pairs: Vec<(u32, u32)> = keys.iter().map(|&k| (k, k ^ 0xabcd)).collect();
        map.insert_pairs(&pairs).unwrap();
        let victims: Vec<u32> = keys.iter().step_by(erase_every).copied().collect();
        let out = map.try_erase(&victims).unwrap();
        prop_assert_eq!(out.erased as usize, victims.len());
        let res = map.try_retrieve(&keys).unwrap().values;
        for (i, k) in keys.iter().enumerate() {
            if victims.contains(k) {
                prop_assert_eq!(res[i], None);
            } else {
                prop_assert_eq!(res[i], Some(k ^ 0xabcd));
            }
        }
    }

    /// The multimap stores exactly the multiset of inserted values.
    #[test]
    fn multimap_preserves_multiplicity(
        pairs in proptest::collection::vec((0u32..50, 0u32..1000), 1..300),
    ) {
        let dev = Arc::new(gpu_sim::Device::with_words(0, 1 << 14));
        let map = GpuMultiMap::new(dev, 1024, Config::default()).unwrap();
        map.insert_pairs(&pairs).unwrap();
        let mut model: HashMap<u32, Vec<u32>> = HashMap::new();
        for &(k, v) in &pairs {
            model.entry(k).or_default().push(v);
        }
        for (k, vs) in &model {
            let res = map.try_retrieve_all(&[*k]).unwrap().values;
            let mut got = res[0].clone();
            let mut want = vs.clone();
            got.sort_unstable();
            want.sort_unstable();
            prop_assert_eq!(got, want, "key {}", k);
        }
    }

    /// Distributed and single-GPU maps answer identically for any
    /// workload split.
    #[test]
    fn distributed_matches_single(
        pairs in proptest::collection::vec((1u32..1_000_000, any::<u32>()), 4..300),
    ) {
        // dedupe keys: racing duplicates resolve nondeterministically and
        // are covered by dedicated tests
        let mut seen = std::collections::HashSet::new();
        let pairs: Vec<(u32, u32)> = pairs
            .into_iter()
            .filter(|(k, _)| seen.insert(*k))
            .collect();

        let dev = Arc::new(gpu_sim::Device::with_words(0, 1 << 14));
        let single = GpuHashMap::new(dev, 1024, Config::default()).unwrap();
        single.insert_pairs(&pairs).unwrap();

        let mut dmap = DistributedHashMap::new(
            quad_node(1024, pairs.len().max(16)),
            1024,
            Config::default(),
            Topology::p100_quad(4),
        )
        .unwrap();
        let per = pairs.len().div_ceil(4);
        let mut per_gpu: Vec<&[(u32, u32)]> = pairs.chunks(per).collect();
        per_gpu.resize(4, &[]);
        dmap.apply_device_sided(Resident::Puts(&per_gpu), None).unwrap();

        let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
        let s_res = single.try_retrieve(&keys).unwrap().values;
        let reads: [&[u32]; 4] = [&keys, &[], &[], &[]];
        let d_res = dmap.apply_device_sided(Resident::Reads(&reads), None).unwrap().values;
        prop_assert_eq!(&s_res, &d_res[0]);
        prop_assert!(s_res.iter().all(Option::is_some));
    }

    /// Rebuilding with a fresh hash function preserves content exactly.
    #[test]
    fn rebuild_preserves_content(
        keys in proptest::collection::hash_set(1u32..100_000, 1..200),
    ) {
        let keys: Vec<u32> = keys.into_iter().collect();
        let dev = Arc::new(gpu_sim::Device::with_words(0, 1 << 14));
        let mut map = GpuHashMap::new(dev, 1024, Config::default()).unwrap();
        let pairs: Vec<(u32, u32)> = keys.iter().map(|&k| (k, k.rotate_left(7))).collect();
        map.insert_pairs(&pairs).unwrap();
        let mut before = map.snapshot();
        map.rebuild_with_fresh_hash().unwrap();
        let mut after = map.snapshot();
        before.sort_unstable();
        after.sort_unstable();
        prop_assert_eq!(before, after);
    }
}
