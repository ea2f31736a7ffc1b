//! Quickstart: build a WarpDrive hash map on one simulated GPU, insert a
//! batch, query it, delete, and inspect the performance counters.
//!
//! Run with: `cargo run -p wd-apps --release --example quickstart`

use gpu_sim::Device;
use std::sync::Arc;
use warpdrive::{Config, GpuHashMap};

fn main() {
    // A simulated Tesla P100 with a small memory pool (2 MiB of words:
    // table + staging for the bulk queries below; Device::new(id,
    // DeviceSpec::p100()) would allocate the full 16 GB).
    let dev = Arc::new(Device::with_words(0, 1 << 18));

    // A table of 65,536 slots with the paper's default configuration:
    // coalesced group size |g| = 4, hybrid probing, AOS layout.
    let map =
        GpuHashMap::new(Arc::clone(&dev), 1 << 16, Config::default()).expect("table fits in VRAM");

    // Bulk-insert key-value pairs (one coalesced group per pair).
    let pairs: Vec<(u32, u32)> = (0..50_000u32).map(|i| (i * 7 + 1, i)).collect();
    let outcome = map.insert_pairs(&pairs).expect("insertion succeeds");
    println!(
        "inserted {} pairs ({} new slots, {} updates), load factor {:.2}",
        pairs.len(),
        outcome.new_slots,
        outcome.updates,
        map.load_factor()
    );

    // Bulk-retrieve (misses come back as None).
    let keys: Vec<u32> = pairs
        .iter()
        .take(5)
        .map(|p| p.0)
        .chain([999_999_999])
        .collect();
    let results = map.try_retrieve(&keys).unwrap().values;
    println!("lookups: {results:?}");

    // rates only mean something on bulk launches — query everything
    let all_keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
    let stats = map.try_retrieve(&all_keys).unwrap().report;
    println!(
        "bulk retrieval probed {:.2} windows per key at a simulated {:.2} G ops/s",
        stats.counters.steps_per_group(),
        stats.ops_per_sec() / 1e9
    );

    // Duplicate keys update in place (last writer wins).
    map.insert_pairs(&[(pairs[0].0, 4242)]).expect("update");
    assert_eq!(
        map.try_retrieve(&[pairs[0].0]).unwrap().values,
        [Some(4242)]
    );

    // Deletion needs exclusive access (the paper's global barrier,
    // enforced by &mut).
    let mut map = map;
    let erased = map.try_erase(&[pairs[1].0]).expect("erase");
    assert_eq!(erased.erased, 1);
    assert_eq!(map.try_retrieve(&[pairs[1].0]).unwrap().values, [None]);
    println!(
        "after erase: {} live entries, {} tombstones",
        map.len(),
        map.tombstones()
    );

    // Tombstones lengthen probe chains; rebuilding with a fresh hash
    // function purges them.
    map.rebuild_with_fresh_hash().expect("rebuild");
    println!(
        "after rebuild: {} live entries, {} tombstones, seed {}",
        map.len(),
        map.tombstones(),
        map.config().seed
    );

    // The insertion counters drive the paper's performance model.
    println!(
        "insert kernel: {} CAS ops ({} lost races), {} 32-byte transactions",
        outcome.stats.counters.cas_ops,
        outcome.stats.counters.cas_failed,
        outcome.stats.counters.transactions,
    );
}
