//! Property-based coverage of delete/tombstone semantics.
//!
//! The two load-bearing invariants (satellite of the concurrency-harness
//! issue):
//!
//! 1. **Tombstone reclamation** — a slot freed by `erase` is reusable by a
//!    later insert. Re-inserting every erased key claims tombstones (never
//!    fresh slots), driving the pending-tombstone count back to zero.
//! 2. **`len()` consistency** — across arbitrarily interleaved insert /
//!    erase / re-insert batches, `len()` tracks the sequential model
//!    exactly and `tombstones()` never exceeds the total ever erased.
//!
//! Case counts follow `PROPTEST_CASES` (see README "Testing &
//! determinism").

use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use warpdrive::{Config, GpuHashMap, Layout};

fn map_with(layout: Layout, g: u32, capacity: usize) -> GpuHashMap {
    let dev = Arc::new(gpu_sim::Device::with_words(0, 1 << 15));
    let cfg = Config::default().with_layout(layout).with_group_size(g);
    GpuHashMap::new(dev, capacity, cfg).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Erase a subset, then re-insert those keys one at a time: every
    /// re-insert must land on a tombstone (its probe path reaches a
    /// tombstoned slot no later than any empty one), so the pending
    /// count returns to zero and no extra slots are consumed.
    #[test]
    fn reinserts_reclaim_every_tombstone(
        keys in proptest::collection::hash_set(1u32..50_000, 4..200),
        erase_every in 2usize..5,
        g in proptest::sample::select(vec![1u32, 4, 16, 32]),
        soa in any::<bool>(),
    ) {
        let layout = if soa { Layout::Soa } else { Layout::Aos };
        let keys: Vec<u32> = keys.into_iter().collect();
        let mut map = map_with(layout, g, 2048);
        let pairs: Vec<(u32, u32)> = keys.iter().map(|&k| (k, k ^ 0x5a5a)).collect();
        map.insert_pairs(&pairs).unwrap();
        let slots_before = map.len();

        let victims: Vec<u32> = keys.iter().step_by(erase_every).copied().collect();
        let out = map.try_erase(&victims).unwrap();
        prop_assert_eq!(out.erased as usize, victims.len());
        prop_assert_eq!(map.tombstones() as usize, victims.len());

        // one-at-a-time removes insert-insert races from the picture:
        // this is purely about slot reuse
        for &k in &victims {
            let out = map.insert_pairs(&[(k, k.wrapping_mul(3))]).unwrap();
            prop_assert_eq!(out.new_slots, 1, "key {} updated instead of claiming", k);
        }
        prop_assert_eq!(map.tombstones(), 0, "unreclaimed tombstones remain");
        prop_assert_eq!(map.len(), slots_before);

        let res = map.try_retrieve(&keys).unwrap().values;
        for (i, k) in keys.iter().enumerate() {
            let want = if victims.contains(k) { k.wrapping_mul(3) } else { k ^ 0x5a5a };
            prop_assert_eq!(res[i], Some(want), "key {}", k);
        }
    }

    /// Arbitrary interleavings of insert / erase batches against a
    /// sequential model: `len()` agrees after every batch and
    /// `tombstones()` is bounded by the total ever erased.
    #[test]
    fn len_tracks_model_across_interleaved_batches(
        script in proptest::collection::vec(
            (any::<bool>(), proptest::collection::vec(1u32..600, 1..40)),
            1..20,
        ),
        g in proptest::sample::select(vec![1u32, 8, 32]),
        soa in any::<bool>(),
    ) {
        let layout = if soa { Layout::Soa } else { Layout::Aos };
        let mut map = map_with(layout, g, 4096);
        let mut model: HashMap<u32, u32> = HashMap::new();
        let mut total_erased: u64 = 0;
        for (step, (is_erase, batch)) in script.iter().enumerate() {
            if *is_erase {
                // dedupe: concurrent same-key erases both reporting a hit
                // would double-count against the model
                let mut victims = batch.clone();
                victims.sort_unstable();
                victims.dedup();
                let out = map.try_erase(&victims).unwrap();
                let hits = victims.iter().filter(|k| model.remove(k).is_some()).count();
                prop_assert_eq!(out.erased as usize, hits, "step {}", step);
                total_erased += out.erased;
            } else {
                let pairs: Vec<(u32, u32)> =
                    batch.iter().map(|&k| (k, k.rotate_left(9))).collect();
                map.insert_pairs(&pairs).unwrap();
                for &(k, v) in &pairs {
                    model.insert(k, v);
                }
            }
            prop_assert_eq!(map.len() as usize, model.len(), "step {}", step);
            prop_assert!(
                map.tombstones() <= total_erased,
                "step {}: tombstones {} > ever erased {}",
                step, map.tombstones(), total_erased
            );
        }
        // final content check
        let keys: Vec<u32> = (1..600).collect();
        let res = map.try_retrieve(&keys).unwrap().values;
        for (i, k) in keys.iter().enumerate() {
            prop_assert_eq!(res[i], model.get(k).copied(), "key {}", k);
        }
    }

    /// Erase-all / reinsert-all cycles never leak capacity: the table
    /// supports unbounded such cycles even though capacity is tight,
    /// because reclaimed tombstones keep the load factor constant.
    #[test]
    fn erase_reinsert_cycles_do_not_leak_capacity(
        n in 8usize..120,
        rounds in 2usize..6,
    ) {
        let map_capacity = 256;
        let mut map = map_with(Layout::Aos, 16, map_capacity);
        let pairs: Vec<(u32, u32)> = (0..n as u32).map(|i| (i + 1, i)).collect();
        let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
        for round in 0..rounds {
            map.insert_pairs(&pairs).unwrap_or_else(|e| {
                panic!("round {round}: capacity leaked across cycles: {e}")
            });
            prop_assert_eq!(map.len() as usize, n, "round {}", round);
            let out = map.try_erase(&keys).unwrap();
            prop_assert_eq!(out.erased as usize, n, "round {}", round);
            prop_assert_eq!(map.len(), 0, "round {}", round);
        }
        prop_assert!(map.tombstones() as usize <= n);
    }
}

/// 2 000 single-op put / delete / get batches over 160 keys on 256 slots,
/// every response checked against a `HashMap`, then a snapshot check that
/// no key occupies two slots. Deleted slots soon lie in front of live
/// keys on their probe paths; an insert that claimed the first tombstone
/// it met, without finishing the probe for its key, stored such a key a
/// second time, and a later delete left the stale copy readable.
fn churn_matches_a_hash_map<S: warpdrive::MapService>(
    mut s: S,
    snapshot: impl Fn(&S) -> Vec<(u32, u32)>,
) {
    let mut model: HashMap<u32, u32> = HashMap::new();
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for step in 0..2000u32 {
        // SplitMix64
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let key = (z >> 32) as u32 % 160 * 13 + 1;
        match z % 4 {
            0 | 1 => {
                s.put_batch(&[(key, step)]).unwrap();
                model.insert(key, step);
            }
            2 => {
                let hit = s.delete_batch(&[key]).unwrap().hits[0];
                assert_eq!(hit, model.remove(&key).is_some(), "step {step}: delete {key}");
            }
            _ => {
                let got = s.get_batch(&[key]).unwrap().values[0];
                assert_eq!(got, model.get(&key).copied(), "step {step}: get {key}");
            }
        }
    }
    let mut stored = snapshot(&s);
    stored.sort_unstable();
    let mut want: Vec<(u32, u32)> = model.into_iter().collect();
    want.sort_unstable();
    assert_eq!(stored, want, "a key occupies two slots, or one went missing");
}

#[test]
fn reinsert_beyond_a_tombstone_never_stores_a_key_twice() {
    for layout in [Layout::Aos, Layout::Soa] {
        churn_matches_a_hash_map(map_with(layout, 4, 256), GpuHashMap::snapshot);
        let devices: Vec<_> = (0..4)
            .map(|i| Arc::new(gpu_sim::Device::with_words(i, 1 << 12)))
            .collect();
        let cfg = Config::default()
            .with_layout(layout)
            .with_fault(warpdrive::FaultPlan::default());
        let topo = interconnect::Topology::p100_quad(4);
        let node = warpdrive::DistributedHashMap::new(devices, 64, cfg, topo).unwrap();
        churn_matches_a_hash_map(node, warpdrive::DistributedHashMap::live_snapshot);
    }
}

/// A put over tombstones — the erased quarter again, every other survivor
/// and 150 fresh keys: the node derives its placement classes from its
/// counters and reports what the single-GPU map counts per key (at this
/// load every tombstone goes back to its own key).
#[test]
fn a_node_reports_the_placement_classes_the_single_gpu_map_counts() {
    use warpdrive::MapService;
    let devices = (0..4).map(|i| Arc::new(gpu_sim::Device::with_words(i, 1 << 16)));
    let topo = interconnect::Topology::p100_quad(4);
    let node = warpdrive::DistributedHashMap::new(devices.collect(), 2048, Config::default(), topo);
    let (mut node, mut single) = (node.unwrap(), map_with(Layout::Aos, 4, 1 << 13));
    let pairs: Vec<(u32, u32)> = (0..800u32).map(|i| (i * 11 + 3, i)).collect();
    let victims: Vec<u32> = pairs.iter().step_by(4).map(|p| p.0).collect();
    let again = pairs.iter().enumerate().filter(|(i, _)| i % 4 == 0 || i % 8 == 1);
    let fresh = (0..150u32).map(|i| (i * 11 + 9_000_001, i));
    let again: Vec<(u32, u32)> = again.map(|(_, &(k, v))| (k, v + 1)).chain(fresh).collect();
    let counts = [&mut single as &mut dyn MapService, &mut node].map(|map| {
        map.put_batch(&pairs).unwrap();
        assert_eq!(map.delete_batch(&victims).unwrap().erased, 200);
        let r = map.put_batch(&again).unwrap();
        (r.new_slots, r.updates, r.reclaimed)
    });
    assert_eq!(counts, [(350, 100, 200); 2]);
}
