//! The node's one cascade round for every mix of reads, puts and erases
//! (`DistributedHashMap`'s `MapService::apply`): its launches, rows and
//! bytes, its answers against one call per kind, its placement counts,
//! and the doubles its take, upsert and erase segments must catch.

use gpu_sim::{Device, FaultPlan};
use interconnect::Topology;
use std::sync::Arc;
use warpdrive::{
    Applied, CascadeStage, Config, DistributedHashMap, MapService, Mutation, OpReport,
};

/// The Fig. 6 node, reading no fault plan from the environment.
fn node(cfg: Config) -> DistributedHashMap {
    let devices: Vec<Arc<Device>> =
        (0..4).map(|i| Arc::new(Device::with_words(i, 1 << 16))).collect();
    let cfg = cfg.with_fault(FaultPlan::default());
    DistributedHashMap::new(devices, 2048, cfg, Topology::p100_quad(4)).unwrap()
}

/// Launches the node's devices have made.
fn launches(d: &DistributedHashMap) -> u64 {
    d.maps().iter().map(|map| map.device().lifetime_stats().launches).sum()
}

fn stages_of(report: &OpReport) -> Vec<CascadeStage> {
    report.stages.iter().map(|s| s.stage).collect()
}

fn bytes_of(report: &OpReport, stage: CascadeStage) -> u64 {
    report.stages.iter().filter(|s| s.stage == stage).map(|s| s.bytes).sum()
}

fn live_sorted(d: &DistributedHashMap) -> Vec<(u32, u32)> {
    let mut live = d.live_snapshot();
    live.sort_unstable();
    live
}

fn preloaded(cfg: Config, keys: std::ops::RangeInclusive<u32>) -> DistributedHashMap {
    let mut d = node(cfg);
    d.put_batch(&keys.map(|k| (k, k)).collect::<Vec<_>>()).unwrap();
    d
}

/// `apply` with answer slices of its own: the answers, the hits and what
/// it did.
fn apply(
    d: &mut DistributedHashMap,
    reads: &[u32],
    puts: &[(u32, u32)],
    erases: &[u32],
) -> (Vec<Option<u32>>, Vec<bool>, Applied) {
    let (mut values, mut hits) = (vec![None; reads.len()], vec![false; erases.len()]);
    let applied = d.apply(reads, puts, erases, &mut values, &mut hits).unwrap();
    (values, hits, applied)
}

/// A put/get/delete call, each list over keys of its own: one round of a
/// split and a node launch of kernel and scatter a GPU, the erases' hits down as found
/// bits, and the answers, hits and contents of a get, a put and a delete
/// call one after the other.
#[test]
fn a_put_get_delete_call_is_one_round() {
    use CascadeStage::{Multisplit, Query, Scatter, Transpose, TransposeBack, D2H, H2D};
    let reads: Vec<u32> = (1..=300).filter(|k| k % 3 == 0).chain(5000..5010).collect();
    let puts: Vec<(u32, u32)> = (301..=400).chain(2001..=2050).map(|k| (k, k + 7)).collect();
    let erases: Vec<u32> = (401..=600).step_by(2).chain(7000..7010).collect();
    let fresh = || preloaded(Config::default(), 1..=600);
    let (mut d, mut twin) = (fresh(), fresh());
    let before = launches(&d);
    let (values, hits, applied) = apply(&mut d, &reads, &puts, &erases);
    let report = &applied.report;
    let rows = [H2D, Multisplit, Transpose, Query, TransposeBack, Scatter, D2H];
    assert_eq!(stages_of(report), rows);
    assert_eq!(launches(&d) - before, 4 + 4);
    assert_eq!(report.launches, launches(&d) - before);
    // a GPU's chunk of the reads brings down a value and a bit a key, of
    // the erases a bit a key
    let chunk = |n: usize, g: usize| {
        let per = n.div_ceil(4);
        n.min((g + 1) * per).saturating_sub(g * per)
    };
    let down = |g| {
        let (n, e) = (chunk(reads.len(), g), chunk(erases.len(), g));
        4 * n as u64 + n.div_ceil(8) as u64 + e.div_ceil(8) as u64
    };
    assert_eq!(bytes_of(report, D2H), (0..4).map(down).sum::<u64>());

    let get = twin.get_batch(&reads).unwrap();
    let put = twin.put_batch(&puts).unwrap();
    let delete = twin.delete_batch(&erases).unwrap();
    assert_eq!((values, hits), (get.values, delete.hits));
    assert_eq!((applied.new_slots, applied.updates), (put.new_slots, put.updates));
    assert_eq!((applied.erased, report.elements), (100, 370));
    assert_eq!(live_sorted(&d), live_sorted(&twin));
    for stage in [H2D, TransposeBack] {
        let apart = [&get.report, &put.report, &delete.report].map(|r| bytes_of(r, stage));
        assert_eq!(bytes_of(report, stage), apart.iter().sum::<u64>(), "{stage:?}");
    }
}

/// A call that reads keys it also deletes: each such key is a take group
/// of the one launch, which answers the value from before the call and
/// then erases, its hit its answer's found bit — a split, the kernel and
/// a scatter a GPU. `Mutation::TakeTombstonesFirst` has the take group
/// erase first, and the reads miss, and so do their hits.
#[test]
fn keys_read_and_erased_are_takes_of_the_one_launch() {
    for mutation in [None, Some(Mutation::TakeTombstonesFirst)] {
        let cfg = mutation.map_or(Config::default(), |m| Config::default().with_mutation(m));
        let mut d = preloaded(cfg, 1..=200);
        let reads: Vec<u32> = (1..=300).step_by(3).collect();
        let puts: Vec<(u32, u32)> = (2..=300).step_by(6).map(|k| (k, 0)).collect();
        let erases: Vec<u32> = (1..=300).step_by(2).filter(|k| k % 3 != 2).collect();
        let before = launches(&d);
        let (values, hits, applied) = apply(&mut d, &reads, &puts, &erases);
        let pre: Vec<Option<u32>> = reads.iter().map(|&k| (k <= 200).then_some(k)).collect();
        let present: Vec<bool> = erases.iter().map(|&k| k <= 200).collect();
        assert_eq!(hits == present, mutation.is_none(), "{mutation:?}");
        assert_eq!(values == pre, mutation.is_none(), "{mutation:?}");
        assert!(!stages_of(&applied.report).contains(&CascadeStage::Insert));
        assert_eq!(launches(&d) - before, 4 + 4);
        let gone = d.get_batch(&erases).unwrap().values;
        assert!(gone.iter().all(Option::is_none));
    }
}

/// `Mutation::SplitTagsRunOffset` on the position words of upserts: a
/// call that reads every key it puts is upserts alone, and with more than
/// 256 of them on a GPU the answers past a run land in other keys'
/// places.
#[test]
fn upsert_positions_past_a_run_are_caught() {
    let keys = 1..=2048u32;
    let puts: Vec<(u32, u32)> = keys.clone().map(|k| (k, k + 1)).collect();
    let reads: Vec<u32> = keys.clone().collect();
    let pre: Vec<Option<u32>> = keys.clone().map(Some).collect();
    let answers = |cfg: Config| {
        let mut d = preloaded(cfg, keys.clone());
        let before = launches(&d);
        let (values, _, _) = apply(&mut d, &reads, &puts, &[]);
        assert_eq!(launches(&d) - before, 4 + 4);
        values
    };
    assert_eq!(answers(Config::default()), pre);
    let broken = Config::default().with_mutation(Mutation::SplitTagsRunOffset);
    match std::panic::catch_unwind(|| answers(broken)) {
        Ok(values) => assert_ne!(values, pre),
        // under `WD_SANITIZE` racecheck stops it first: two of its
        // positions name one half, which two merge warps store
        Err(panic) => {
            let msg = panic.downcast_ref::<String>().map_or("", String::as_str);
            assert!(msg.contains("[racecheck] kernel=`warpdrive_round`"), "{msg}");
        }
    }
}

/// `Mutation::ScatterReadsPositionOfWrongRun`: a merge warp reads a
/// position at its offset in the first target's run, so the answers of
/// every later target's run land in other keys' places — through a get,
/// a get + put of keys read and written, and an erase whose every other
/// key is present.
#[test]
fn a_position_read_from_the_wrong_run_is_caught() {
    let keys: Vec<u32> = (1..=600).collect();
    let run = |cfg: Config| {
        let mut d = preloaded(cfg, 1..=600);
        let get = d.get_batch(&keys).unwrap().values;
        let puts: Vec<(u32, u32)> = keys[..300].iter().map(|&k| (k, k + 1)).collect();
        let (upserted, _, _) = apply(&mut d, &keys[..300], &puts, &[]);
        let every_other = keys.iter().map(|&k| if k % 2 == 0 { k + 1000 } else { k });
        let absent: Vec<u32> = every_other.collect();
        (get, upserted, d.delete_batch(&absent).unwrap().hits)
    };
    let want = (
        keys.iter().map(|&k| Some(k)).collect::<Vec<_>>(),
        keys[..300].iter().map(|&k| Some(k)).collect::<Vec<_>>(),
        keys.iter().map(|k| k % 2 == 1).collect::<Vec<_>>(),
    );
    assert_eq!(run(Config::default()), want);
    let broken = Config::default().with_mutation(Mutation::ScatterReadsPositionOfWrongRun);
    match std::panic::catch_unwind(|| run(broken)) {
        Ok((get, upserted, hits)) => {
            assert_ne!(get, want.0, "get");
            assert_ne!(upserted, want.1, "get + put");
            assert_ne!(hits, want.2, "erase");
        }
        // under `WD_SANITIZE` racecheck stops it first: two lanes name one
        // position, whose half two merge warps store
        Err(panic) => {
            let msg = panic.downcast_ref::<String>().map_or("", String::as_str);
            assert!(msg.contains("[racecheck] kernel=`warpdrive_round`"), "{msg}");
        }
    }
}

/// `Mutation::EraseHitInWrongBit`: every other key of an erase present,
/// so a hit set in its neighbour's bit shows, through an erase call and a
/// mixed one.
#[test]
fn an_erase_hit_in_the_wrong_bit_is_caught() {
    let keys: Vec<u32> = (1..=400).collect();
    let hits_of = |cfg: Config| {
        let mut d = node(cfg);
        let present: Vec<(u32, u32)> = keys.iter().step_by(2).map(|&k| (k, k)).collect();
        d.put_batch(&present).unwrap();
        let alone = d.delete_batch(&keys[..200]).unwrap().hits;
        let (_, mixed, _) = apply(&mut d, &[1000], &[(1001, 1)], &keys[200..]);
        (alone, mixed)
    };
    let want: Vec<bool> = keys.iter().map(|k| k % 2 == 1).collect();
    let (alone, mixed) = hits_of(Config::default());
    assert_eq!((&alone[..], &mixed[..]), (&want[..200], &want[200..]));
    let (alone, mixed) = hits_of(Config::default().with_mutation(Mutation::EraseHitInWrongBit));
    assert_ne!(alone, want[..200], "erase");
    assert_ne!(mixed, want[200..], "put/get/delete");
}

/// One call of puts over tombstones, new puts, updates and erases that hit
/// and miss reports exactly what the tables counted — on the Fig. 6 node
/// and on §VI's partitions of one device.
#[test]
fn a_mixed_call_reports_exact_placement_counts() {
    let one_device = || {
        let dev = Arc::new(Device::with_words(0, 1 << 18));
        let topo = Topology::one_device(4, dev.spec());
        let cfg = Config::default().with_fault(FaultPlan::default());
        DistributedHashMap::new(vec![dev; 4], 2048, cfg, topo).unwrap()
    };
    for (name, mut d) in [("Fig. 6", node(Config::default())), ("one device", one_device())] {
        d.put_batch(&(1..=400u32).map(|k| (k, k)).collect::<Vec<_>>()).unwrap();
        d.delete_batch(&(1..=100).collect::<Vec<_>>()).unwrap();
        let before = d.occupancy_split();
        let puts: Vec<(u32, u32)> =
            (1..=100).chain(1001..=1050).chain(201..=250).map(|k| (k, k + 1)).collect();
        let erases: Vec<u32> = (301..=350).chain(5001..=5010).collect();
        let (_, _, applied) = apply(&mut d, &[], &puts, &erases);
        let after = d.occupancy_split();
        let counts = (applied.new_slots, applied.updates, applied.erased);
        assert_eq!(counts, (150, 50, 50), "{name}");
        // claims over tombstones shrink them, erases grow them
        let reclaimed = before.tombstones + applied.erased - after.tombstones;
        assert_eq!(applied.reclaimed, reclaimed, "{name}");
        assert!(applied.reclaimed > 0, "{name}: a put went back over a tombstone");
        assert_eq!(after.live, before.live + 150 - 50, "{name}");
    }
}
