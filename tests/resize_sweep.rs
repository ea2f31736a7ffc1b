//! The resize test lab: load-factor-triggered incremental resize under
//! concurrent foreground traffic.
//!
//! Each sweep cell arms a [`warpdrive::ResizePolicy`] with a small chunk
//! so migrations stay in flight across many foreground batches, drives a
//! seeded mixed put/get/delete workload against a host-side model, and
//! then demands the full contract of DESIGN.md §7's dynamic tables:
//!
//! 1. **Conservation** — the live multiset after the migration equals
//!    the model exactly (nothing lost, nothing resurrected, nothing
//!    duplicated).
//! 2. **Full retrieval** — every key ever touched answers with the
//!    model's verdict, including keys that crossed tables mid-flight.
//! 3. **Linearizability** — the recorded history, *including* the
//!    migration erase→insert pairs, passes the Wing–Gong checker.
//!
//! The lab also proves the checker has teeth: the two resize mutation
//! doubles (`Mutation::MigrateSkipsTombstoneCheck`,
//! `Mutation::ReadMissesMigratingWindow`) must each be caught
//! within the `WD_MUTATION_SEEDS` budget while the correct code stays
//! clean on the same seeds.
//!
//! Failure messages carry the seed; replay with
//! `WD_SCHED_MODE=seeded WD_SCHED_SEED=<seed>`.

use gpu_sim::{Device, Schedule};
use std::collections::BTreeMap;
use std::sync::Arc;
use warpdrive::{
    check_linearizable, Config, GpuHashMap, HistoryRecorder, Layout, Mutation, ResizePolicy,
    ResizeState,
};
use wd_apps::{mutation_seeds, sweep_seeds};

/// Builds a map with enough VRAM for the original table, several
/// migration targets (the bump allocator never frees the old table) and
/// staging scratch.
fn map_with(capacity: usize, cfg: Config, policy: Option<ResizePolicy>) -> GpuHashMap {
    let dev = Arc::new(Device::with_words(0, capacity * 64 + (1 << 14)));
    let mut map = GpuHashMap::new(dev, capacity, cfg).unwrap();
    map.set_resize_policy(policy);
    map
}

/// Deterministic per-(seed, round, i) value in `[0, bound)`.
fn mix(seed: u64, round: u64, i: u64, bound: u64) -> u64 {
    hashes::fmix64(seed ^ round.wrapping_mul(0x9e37_79b9) ^ i.wrapping_mul(0x85eb_ca6b)) % bound
}

/// Collapses in-batch duplicate keys to their last write. Duplicate keys
/// inside one raw kernel batch race (only `MapService::execute` imposes
/// in-order semantics), so the lab's model batches are kept dup-free.
fn dedup_last(pairs: Vec<(u32, u32)>) -> Vec<(u32, u32)> {
    let m: BTreeMap<u32, u32> = pairs.into_iter().collect();
    m.into_iter().collect()
}

/// Drives `rounds` mixed batches against `map` and a host model:
/// puts over `key_space`, gets of a mixed hit/miss window, and a delete
/// wave every third round. Returns the model.
fn drive_mixed(
    map: &mut GpuHashMap,
    seed: u64,
    rounds: u64,
    key_space: u64,
) -> BTreeMap<u32, u32> {
    let mut model: BTreeMap<u32, u32> = BTreeMap::new();
    for round in 0..rounds {
        let pairs = dedup_last(
            (0..16u64)
                .map(|i| {
                    let k = 1 + mix(seed, round, i, key_space) as u32;
                    (k, (round * 100 + i) as u32)
                })
                .collect(),
        );
        map.insert_pairs(&pairs).unwrap();
        for &(k, v) in &pairs {
            model.insert(k, v);
        }
        let probe: Vec<u32> = (0..8u64)
            .map(|i| 1 + mix(seed, round ^ 0xf00d, i, 2 * key_space) as u32)
            .collect();
        let got = map.try_retrieve(&probe).unwrap();
        for (i, k) in probe.iter().enumerate() {
            assert_eq!(
                got.values[i],
                model.get(k).copied(),
                "seed {seed}, round {round}: mid-flight read of key {k} diverged"
            );
        }
        if round % 3 == 2 {
            let victims: Vec<u32> = model.keys().copied().step_by(5).take(6).collect();
            let del = map.try_erase(&victims).unwrap();
            for (i, k) in victims.iter().enumerate() {
                assert!(del.hits[i], "seed {seed}, round {round}: live key {k} missed");
                model.remove(k);
            }
        }
    }
    model
}

/// Checks conservation + full retrieval of `map` against `model` over
/// the whole `key_space`.
fn assert_matches_model(map: &GpuHashMap, model: &BTreeMap<u32, u32>, key_space: u64, cell: &str) {
    assert_eq!(map.len(), model.len() as u64, "{cell}: live count diverged");
    let keys: Vec<u32> = (1..=2 * key_space as u32).collect();
    let resp = map.try_retrieve(&keys).unwrap();
    for (i, k) in keys.iter().enumerate() {
        assert_eq!(
            resp.values[i],
            model.get(k).copied(),
            "{cell}: key {k} diverged after migration"
        );
    }
}

#[test]
fn grow_sweep_conserves_and_retrieves_under_mixed_traffic() {
    let seeds = sweep_seeds().min(8);
    for layout in [Layout::Aos, Layout::Soa] {
        for seed in 0..seeds {
            let cell = format!(
                "grow: layout {layout:?}, seed {seed}; replay: \
                 WD_SCHED_MODE=seeded WD_SCHED_SEED={seed}"
            );
            let cfg = Config::default()
                .with_layout(layout)
                .with_schedule(Schedule::Seeded(seed));
            let policy = ResizePolicy::default().with_watermark(0.6).with_chunk(32);
            let mut map = map_with(256, cfg, Some(policy));
            let rec = Arc::new(HistoryRecorder::new());
            map.set_recorder(Some(Arc::clone(&rec)));
            let model = drive_mixed(&mut map, seed, 24, 512);
            assert!(map.finish_resize().is_ok(), "{cell}: finish failed");
            assert!(
                map.capacity() > 256,
                "{cell}: the workload must push through the watermark"
            );
            assert_eq!(map.resize_state(), ResizeState::Stable, "{cell}");
            assert_matches_model(&map, &model, 512, &cell);
            check_linearizable(&rec.events()).unwrap_or_else(|v| panic!("{cell}: {v}"));
        }
    }
}

#[test]
fn compaction_sweep_purges_tombstones_under_mixed_traffic() {
    let seeds = sweep_seeds().min(8);
    for layout in [Layout::Aos, Layout::Soa] {
        for seed in 0..seeds {
            let cell = format!(
                "compact: layout {layout:?}, seed {seed}; replay: \
                 WD_SCHED_MODE=seeded WD_SCHED_SEED={seed}"
            );
            let cfg = Config::default()
                .with_layout(layout)
                .with_schedule(Schedule::Seeded(seed));
            // watermark 1.0 never auto-fires: the compaction below is
            // the only migration, so its effects are isolated
            let policy = ResizePolicy::default().with_watermark(1.0).with_chunk(32);
            let mut map = map_with(512, cfg, Some(policy));
            let rec = Arc::new(HistoryRecorder::new());
            map.set_recorder(Some(Arc::clone(&rec)));
            // build up a tombstone-heavy table
            let pairs: Vec<(u32, u32)> = (1..=300u32).map(|k| (k, k * 2)).collect();
            map.insert_pairs(&pairs).unwrap();
            let dead: Vec<u32> = (1..=200u32).collect();
            map.try_erase(&dead).unwrap();
            let mut model: BTreeMap<u32, u32> =
                (201..=300u32).map(|k| (k, k * 2)).collect();
            assert_eq!(map.tombstones(), 200, "{cell}: setup must leave tombstones");
            assert!(map.request_compact().unwrap(), "{cell}: compact must start");
            // serve puts and gets while the compaction is in flight
            for round in 0..8u64 {
                let fresh: Vec<(u32, u32)> = (0..8u64)
                    .map(|i| (400 + (round * 8 + i) as u32, round as u32))
                    .collect();
                map.insert_pairs(&fresh).unwrap();
                for &(k, v) in &fresh {
                    model.insert(k, v);
                }
                let probe: Vec<u32> = (0..8u64)
                    .map(|i| 1 + mix(seed, round, i, 500) as u32)
                    .collect();
                let got = map.try_retrieve(&probe).unwrap();
                for (i, k) in probe.iter().enumerate() {
                    assert_eq!(got.values[i], model.get(k).copied(), "{cell}: key {k}");
                }
            }
            assert!(map.finish_resize().is_ok(), "{cell}: finish failed");
            assert_eq!(map.capacity(), 512, "{cell}: compaction keeps capacity");
            assert_eq!(map.tombstones(), 0, "{cell}: compaction must purge");
            assert_matches_model(&map, &model, 300, &cell);
            check_linearizable(&rec.events()).unwrap_or_else(|v| panic!("{cell}: {v}"));
        }
    }
}

/// Miss-probe traffic over a fixed absent-key batch: misses must probe
/// past tombstones until an EMPTY slot terminates the chain, so this is
/// the probe-length degradation observable.
fn miss_probe_transactions(map: &GpuHashMap) -> u64 {
    let misses: Vec<u32> = (1_000_000..1_000_256).collect();
    let resp = map.try_retrieve(&misses).unwrap();
    assert!(resp.values.iter().all(Option::is_none));
    resp.report.counters.transactions
}

/// Satellite regression, part 1: a near-full fill followed by a mass
/// delete leaves a tombstone-dense table whose miss probes stay
/// degraded *forever* under fixed-capacity churn — erase/insert churn
/// recycles tombstones but never restores EMPTY terminators. A
/// same-capacity compaction purges them and collapses the probe cost.
#[test]
fn compaction_restores_probe_lengths_after_delete_heavy_churn() {
    let mut map = map_with(512, Config::default(), None);
    // 508 of 512 slots: almost no window still holds an EMPTY
    let fill: Vec<(u32, u32)> = (1..=508u32).map(|k| (k, k)).collect();
    map.insert_pairs(&fill).unwrap();
    let dead: Vec<u32> = (1..=460u32).collect();
    map.try_erase(&dead).unwrap();
    assert_eq!(map.tombstones(), 460);
    let degraded = miss_probe_transactions(&map);
    // delete-heavy churn at constant live size: tombstones are
    // recycled, EMPTY slots never come back, probes stay degraded
    for round in 0..4u32 {
        let dead: Vec<u32> = (461 + round * 8..461 + (round + 1) * 8).collect();
        map.try_erase(&dead).unwrap();
        let fresh: Vec<(u32, u32)> = (0..8u32)
            .map(|i| (600 + round * 8 + i, i))
            .collect();
        map.insert_pairs(&fresh).unwrap();
    }
    let still_degraded = miss_probe_transactions(&map);
    assert!(
        2 * still_degraded > degraded,
        "churn alone must not heal the table ({still_degraded} vs {degraded} transactions)"
    );
    // the fix: same-capacity compaction (no policy needed — the default
    // one drives the explicit request)
    assert!(map.request_compact().unwrap());
    map.finish_resize().unwrap();
    assert_eq!(map.resize_state(), ResizeState::Stable);
    assert_eq!(map.capacity(), 512, "compaction must not change capacity");
    assert_eq!(map.tombstones(), 0, "compaction must purge every tombstone");
    let restored = miss_probe_transactions(&map);
    assert!(
        restored * 4 <= still_degraded,
        "compaction must collapse miss probe traffic \
         (restored {restored} vs degraded {still_degraded} transactions)"
    );
}

/// Satellite regression, part 2: the watermark trigger picks *Compact*
/// (not Grow) on its own when the crossing is tombstone-dominated, so a
/// delete-heavy workload self-heals with no explicit request.
#[test]
fn watermark_picks_compaction_under_delete_heavy_load() {
    let policy = ResizePolicy::default().with_watermark(0.6).with_chunk(64);
    let mut map = map_with(512, Config::default(), Some(policy));
    // effective load stays below the 0.6 × 512 ≈ 307 trigger during
    // setup: 280 inserts, then 250 erases (erases never trigger)
    let fill: Vec<(u32, u32)> = (1..=280u32).map(|k| (k, k)).collect();
    map.insert_pairs(&fill).unwrap();
    let dead: Vec<u32> = (1..=250u32).collect();
    map.try_erase(&dead).unwrap();
    assert_eq!(map.tombstones(), 250);
    assert_eq!(map.resize_state(), ResizeState::Stable);
    // the next insert wave crosses the watermark with tombstones ≥ live
    let fresh: Vec<(u32, u32)> = (300..=330u32).map(|k| (k, k)).collect();
    map.insert_pairs(&fresh).unwrap();
    map.finish_resize().unwrap();
    assert_eq!(map.capacity(), 512, "tombstone-dominated crossing must compact, not grow");
    assert!(
        map.tombstones() < 250,
        "the automatic compaction must purge tombstones (left: {})",
        map.tombstones()
    );
    assert_eq!(map.len(), 30 + 31, "conservation across the automatic compaction");
}

// ---- mutation doubles -----------------------------------------------

/// One resize workload under a seeded schedule, returning an error
/// description if the model check or the history checker flags it.
/// `mutate` injects the double under test into the config.
fn resize_run(seed: u64, mutate: impl Fn(Config) -> Config) -> Result<(), String> {
    let cfg = mutate(Config::default().with_schedule(Schedule::Seeded(seed)));
    let policy = ResizePolicy::default().with_watermark(0.5).with_chunk(32);
    let mut map = map_with(256, cfg, Some(policy));
    let rec = Arc::new(HistoryRecorder::new());
    map.set_recorder(Some(Arc::clone(&rec)));
    let mut model: BTreeMap<u32, u32> = BTreeMap::new();
    // fill just below the watermark, then push through it so the
    // migration is live while the erase and read waves land
    let warm: Vec<(u32, u32)> = (1..=110u32).map(|k| (k, k * 3)).collect();
    map.insert_pairs(&warm).unwrap();
    model.extend(warm.iter().copied());
    for round in 0..6u64 {
        let fresh: Vec<(u32, u32)> = (0..8u64)
            .map(|i| {
                let k = 200 + (round * 8 + i) as u32;
                (k, k)
            })
            .collect();
        map.insert_pairs(&fresh).unwrap();
        model.extend(fresh.iter().copied());
        // erase keys all over the old table, many beyond the cursor
        // (deduped: duplicate keys inside one erase batch race)
        let victims: Vec<u32> = (0..4u64)
            .map(|i| 1 + mix(seed, round, i, 110) as u32)
            .collect::<std::collections::BTreeSet<u32>>()
            .into_iter()
            .collect();
        let del = map.try_erase(&victims).unwrap();
        for (i, k) in victims.iter().enumerate() {
            if model.remove(k).is_some() != del.hits[i] {
                return Err(format!("round {round}: erase verdict for key {k} diverged"));
            }
        }
        // read the whole key space mid-migration — the read-race double
        // blanks whatever overlaps the chunk in flight
        let probe: Vec<u32> = (1..=260u32).collect();
        let got = map.try_retrieve(&probe).map_err(|e| e.to_string())?;
        for (i, k) in probe.iter().enumerate() {
            if got.values[i] != model.get(k).copied() {
                return Err(format!("round {round}: mid-flight read of key {k} diverged"));
            }
        }
    }
    map.finish_resize().map_err(|e| e.to_string())?;
    if map.len() != model.len() as u64 {
        return Err(format!(
            "conservation: {} live vs {} modeled",
            map.len(),
            model.len()
        ));
    }
    let probe: Vec<u32> = (1..=260u32).collect();
    let got = map.try_retrieve(&probe).map_err(|e| e.to_string())?;
    for (i, k) in probe.iter().enumerate() {
        if got.values[i] != model.get(k).copied() {
            return Err(format!("post-migration read of key {k} diverged"));
        }
    }
    check_linearizable(&rec.events()).map_err(|v| v.to_string())
}

/// Shared catch loop: the correct code must stay clean on every seed the
/// mutant is hunted with (no false positives), and the mutant must fail
/// on some seed within the budget.
fn hunt(name: &str, mutate: impl Fn(Config) -> Config) {
    let budget = mutation_seeds();
    let mut caught = None;
    for seed in 0..budget {
        resize_run(seed, |c| c)
            .unwrap_or_else(|e| panic!("false positive at seed {seed}: {e}"));
        if caught.is_none() {
            if let Err(e) = resize_run(seed, &mutate) {
                caught = Some((seed, e));
            }
        }
    }
    let (seed, evidence) = caught.unwrap_or_else(|| {
        panic!("{name} mutant survived {budget} seeds — the resize lab has no teeth")
    });
    println!("{name} mutant caught at seed {seed}: {evidence}");
}

/// The stale-scan double: migration replays the table as snapshotted at
/// migration start, so keys deleted after the resize began are migrated
/// back to life. Conservation or the Wing–Gong checker must flag it.
#[test]
fn broken_migrate_skips_tombstone_check_is_caught() {
    hunt("stale-migration-scan", |c| {
        c.with_mutation(Mutation::MigrateSkipsTombstoneCheck)
    });
}

/// The read-race double: a read during migration drops old-table hits
/// for keys whose home window sits in the chunk being moved — a live
/// key transiently answers `NotFound`. The mid-flight model check or
/// the Wing–Gong checker must flag it.
#[test]
fn broken_read_misses_migrating_window_is_caught() {
    hunt("migrating-window-read-race", |c| {
        c.with_mutation(Mutation::ReadMissesMigratingWindow)
    });
}
