//! Deterministic-schedule sweeps over the map variants.
//!
//! Every stepwise schedule the `gpu_sim::sched` module can produce is a
//! legal interleaving of the corresponding CUDA grid, so under *any*
//! swept seed the maps must produce model-correct results — and under
//! the *same* seed they must produce bit-identical results and kernel
//! counters (the replay guarantee that makes CI failures reproducible).
//!
//! Breadth knobs (see README "Testing & determinism"):
//! * `WD_SWEEP_SEEDS` — seeds per (layout × group size) cell (default 32)
//! * `WD_SCHED_*` — replay any single schedule across the whole suite
//!
//! Every assertion message names the `(layout, |g|, schedule)` cell so a
//! CI failure can be replayed with `WD_SCHED_MODE=seeded
//! WD_SCHED_SEED=<seed>`.

use gpu_sim::{AdversarialMode, CounterSnapshot, Device, FaultPlan, GroupSize, Schedule};
use interconnect::Topology;
use std::collections::HashMap;
use std::sync::Arc;
use warpdrive::{
    Config, DistributedHashMap, GetResponse, GpuHashMap, GpuMultiMap, Layout, MapService,
    Mutation, Resident,
};
use wd_apps::{scaled, sweep_seeds};

/// One deterministic workload: 24 pairs over 8 distinct keys (3-way
/// same-key contention), retrieved together with 4 absent keys.
fn pairs() -> Vec<(u32, u32)> {
    (0..24u32).map(|i| (i % 8 + 1, i * 10)).collect()
}

fn query_keys() -> Vec<u32> {
    (1..=12u32).collect() // keys 9..=12 are absent
}

/// Runs the workload on a fresh map; returns everything determinism must
/// cover: retrieve results, len, and both kernels' counters.
fn run_case(
    layout: Layout,
    g: GroupSize,
    schedule: Schedule,
) -> (Vec<Option<u32>>, u64, CounterSnapshot, CounterSnapshot) {
    let dev = Arc::new(Device::with_words(0, 1 << 12));
    let cfg = Config::default()
        .with_layout(layout)
        .with_group_size(g.get())
        .with_schedule(schedule);
    let map = GpuHashMap::new(dev, 64, cfg).unwrap();
    let ins = map.insert_pairs(&pairs()).unwrap();
    let ret = map.try_retrieve(&query_keys()).unwrap();
    (ret.values, map.len(), ins.stats.counters, ret.report.counters)
}

fn check_model(res: &[Option<u32>], len: u64, cell: &str) {
    // last-writer-wins is schedule-dependent, but *some* inserted value
    // for the key must be stored, and misses must miss
    let mut by_key: HashMap<u32, Vec<u32>> = HashMap::new();
    for (k, v) in pairs() {
        by_key.entry(k).or_default().push(v);
    }
    assert_eq!(len, 8, "{cell}: wrong live count");
    for (i, &k) in query_keys().iter().enumerate() {
        match by_key.get(&k) {
            Some(candidates) => {
                let v = res[i].unwrap_or_else(|| panic!("{cell}: key {k} lost"));
                assert!(candidates.contains(&v), "{cell}: key {k} holds alien value {v}");
            }
            None => assert_eq!(res[i], None, "{cell}: phantom hit for absent key {k}"),
        }
    }
}

#[test]
fn seeded_schedules_are_model_correct_and_replayable() {
    let seeds = scaled(sweep_seeds());
    for layout in [Layout::Aos, Layout::Soa] {
        for g in GroupSize::ALL {
            for seed in 0..seeds {
                let schedule = Schedule::Seeded(seed);
                let cell = format!("layout {layout:?}, |g|={}, {schedule}", g.get());
                let first = run_case(layout, g, schedule);
                check_model(&first.0, first.1, &cell);
                // replay: bit-identical results and counters
                let second = run_case(layout, g, schedule);
                assert_eq!(first, second, "{cell}: same seed diverged on replay");
            }
        }
    }
}

#[test]
fn adversarial_schedules_are_model_correct() {
    for layout in [Layout::Aos, Layout::Soa] {
        for g in GroupSize::ALL {
            for schedule in [
                Schedule::Sequential,
                Schedule::Adversarial {
                    mode: AdversarialMode::Reverse,
                    seed: 0,
                },
                Schedule::Adversarial {
                    mode: AdversarialMode::DelayOne,
                    seed: 3,
                },
                Schedule::Adversarial {
                    mode: AdversarialMode::RoundRobin { quantum: 1 },
                    seed: 1,
                },
                Schedule::Adversarial {
                    mode: AdversarialMode::RoundRobin { quantum: 7 },
                    seed: 2,
                },
            ] {
                let cell = format!("layout {layout:?}, |g|={}, {schedule}", g.get());
                let run = run_case(layout, g, schedule);
                check_model(&run.0, run.1, &cell);
                let replay = run_case(layout, g, schedule);
                assert_eq!(run, replay, "{cell}: adversarial replay diverged");
            }
        }
    }
}

#[test]
fn different_seeds_reach_different_interleavings() {
    // not a correctness property, but the sweep is pointless if every
    // seed collapses to the same trace: over 16 seeds at |g|=1 the
    // insert counters (probe work depends on interleaving) must vary
    let mut distinct = std::collections::HashSet::new();
    for seed in 0..16u64 {
        let (_, _, ins, _) = run_case(Layout::Aos, GroupSize::new(1), Schedule::Seeded(seed));
        distinct.insert((ins.transactions, ins.cas_ops, ins.cas_failed, ins.group_steps));
    }
    assert!(
        distinct.len() > 1,
        "16 seeds produced identical counter traces — scheduler not interleaving"
    );
}

#[test]
fn multimap_sweep_preserves_multiplicity() {
    let seeds = scaled(sweep_seeds().min(16));
    let pairs: Vec<(u32, u32)> = (0..24u32).map(|i| (i % 4 + 1, i)).collect();
    let mut model: HashMap<u32, Vec<u32>> = HashMap::new();
    for &(k, v) in &pairs {
        let e = model.entry(k).or_default();
        e.push(v);
        e.sort_unstable();
    }
    for g in GroupSize::ALL {
        for seed in 0..seeds {
            let cell = format!("multimap |g|={}, seed {seed}", g.get());
            let dev = Arc::new(Device::with_words(0, 1 << 12));
            let cfg = Config::default()
                .with_group_size(g.get())
                .with_schedule(Schedule::Seeded(seed));
            let mm = GpuMultiMap::new(dev, 64, cfg).unwrap();
            mm.insert_pairs(&pairs).unwrap();
            assert_eq!(mm.len(), pairs.len() as u64, "{cell}: lost pairs");
            let res = mm.try_retrieve_all(&[1, 2, 3, 4, 5]).unwrap().values;
            for (i, key) in (1u32..=5).enumerate() {
                let mut got = res[i].clone();
                got.sort_unstable();
                let want = model.get(&key).cloned().unwrap_or_default();
                assert_eq!(got, want, "{cell}: key {key} multiset wrong");
            }
        }
    }
}

#[test]
fn distributed_sweep_is_deterministic_and_complete() {
    let seeds = scaled(sweep_seeds().min(8));
    let pairs: Vec<(u32, u32)> = (0..64u32).map(|i| (i + 1, i * 3)).collect();
    for seed in 0..seeds {
        let run = |schedule: Schedule| {
            let devices: Vec<Arc<Device>> = (0..2)
                .map(|i| Arc::new(Device::with_words(i, 1 << 14)))
                .collect();
            let cfg = Config::default().with_schedule(schedule);
            let mut d =
                DistributedHashMap::new(devices, 256, cfg, Topology::p100_quad(2)).unwrap();
            let lists: Vec<&[(u32, u32)]> = pairs.chunks(32).collect();
            d.apply_device_sided(Resident::Puts(&lists), None).unwrap();
            let mut content: Vec<(u32, u32)> = d
                .maps()
                .iter()
                .flat_map(warpdrive::GpuHashMap::snapshot)
                .collect();
            content.sort_unstable();
            (d.len(), content)
        };
        let schedule = Schedule::Seeded(seed);
        let (len, content) = run(schedule);
        assert_eq!(len, 64, "{schedule}: entries lost in cascade");
        let mut want: Vec<(u32, u32)> = pairs.clone();
        want.sort_unstable();
        assert_eq!(content, want, "{schedule}: content mismatch");
        assert_eq!((len, content), run(schedule), "{schedule}: replay diverged");
    }
}

/// The answers a 2-GPU node under `schedule` gives a get of 64 keys it
/// holds and 8 it does not, `mutation` armed.
fn node_answers(schedule: Schedule, mutation: Option<Mutation>) -> Vec<Option<u32>> {
    let devices: Vec<Arc<Device>> =
        (0..2).map(|i| Arc::new(Device::with_words(i, 1 << 14))).collect();
    let mut cfg = Config::default().with_schedule(schedule).with_fault(FaultPlan::default());
    cfg.mutation = mutation;
    let mut d = DistributedHashMap::new(devices, 256, cfg, Topology::p100_quad(2)).unwrap();
    let pairs: Vec<(u32, u32)> = (0..64u32).map(|i| (i * 5 + 1, i + 100)).collect();
    d.put_batch(&pairs).unwrap();
    let keys: Vec<u32> = pairs.iter().map(|p| p.0).chain(1_000..1_008).collect();
    d.get_batch(&keys).unwrap().values
}

/// The node launch under adversarial schedules: its merge warps may run
/// before the targets' kernels, and every answer is still right, since a
/// warp waits for the flags of the targets that answer it. The mutation
/// double `Mutation::ScatterReadsBeforeFlag`, which reads first and waits
/// after, hands out what lay in its GPU's landing before the answers came
/// under one of them at least.
#[test]
fn adversarial_schedules_order_the_node_launchs_scatter_after_its_answers() {
    let want: Vec<Option<u32>> = (0..64).map(|i| Some(i + 100)).chain([None; 8]).collect();
    let schedules = [
        Schedule::Adversarial { mode: AdversarialMode::Reverse, seed: 0 },
        Schedule::Adversarial { mode: AdversarialMode::DelayOne, seed: 3 },
        Schedule::Adversarial { mode: AdversarialMode::RoundRobin { quantum: 7 }, seed: 2 },
    ];
    let mut caught = Vec::new();
    for schedule in schedules {
        assert_eq!(node_answers(schedule, None), want, "{schedule}");
        let early = Some(Mutation::ScatterReadsBeforeFlag);
        match std::panic::catch_unwind(|| node_answers(schedule, early)) {
            Ok(answers) if answers == want => {}
            Ok(_) => caught.push(schedule),
            // under `WD_SANITIZE` racecheck stops the early read first
            Err(panic) => {
                let msg = panic.downcast_ref::<String>().map_or("", String::as_str);
                assert!(msg.contains("[racecheck] kernel=`warpdrive_round`"), "{msg}");
                caught.push(schedule);
            }
        }
    }
    assert!(!caught.is_empty(), "no adversarial schedule caught a scatter reading early");
}

// ---- the fused get + put launch against its two-launch twin ---------------

/// A 256-slot table holding keys 1..=96 (value 7·key) of which 41..=56
/// were then erased, so probe chains run through tombstones.
fn preloaded(layout: Layout, g: GroupSize, schedule: Schedule) -> GpuHashMap {
    let dev = Arc::new(Device::with_words(0, 1 << 12));
    let cfg = Config::default()
        .with_layout(layout)
        .with_group_size(g.get())
        .with_schedule(schedule);
    let mut map = GpuHashMap::new(dev, 256, cfg).unwrap();
    let pairs: Vec<(u32, u32)> = (1..=96u32).map(|k| (k, 7 * k)).collect();
    map.put_batch(&pairs).unwrap();
    map.delete_batch(&(41..=56u32).collect::<Vec<_>>()).unwrap();
    map
}

fn contents(map: &GpuHashMap) -> Vec<(u32, u32)> {
    let mut pairs = map.snapshot();
    pairs.sort_unstable();
    pairs
}

/// `reads` and `puts` in one [`MapService::apply`]: the reads' answers
/// and the call's report.
fn get_put(map: &mut GpuHashMap, reads: &[u32], puts: &[(u32, u32)]) -> GetResponse {
    let mut values = vec![None; reads.len()];
    let report = map.apply(reads, puts, &[], &mut values, &mut []).unwrap().report;
    GetResponse { values, report }
}

/// What the preload left under `key`.
fn preloaded_value(key: u32) -> Option<u32> {
    ((1..=40).contains(&key) || (57..=96).contains(&key)).then_some(7 * key)
}

/// Present, erased and absent keys.
fn fused_reads() -> Vec<u32> {
    vec![1, 2, 3, 30, 41, 42, 60, 61, 500, 501]
}

/// Updates, re-inserts of erased keys and new keys, none of them read by
/// [`fused_reads`].
fn disjoint_puts() -> Vec<(u32, u32)> {
    [4, 5, 31, 43, 44, 45, 62, 600, 601]
        .iter()
        .map(|&k| (k, k + 1000))
        .collect()
}

/// The same with keys 2, 30 (present), 41 (erased) and 500 (absent) also
/// read by [`fused_reads`].
fn overlapping_puts() -> Vec<(u32, u32)> {
    [2, 4, 30, 41, 43, 62, 500, 600]
        .iter()
        .map(|&k| (k, k + 1000))
        .collect()
}

const FUSED_GROUPS: [u32; 3] = [1, 4, 32];

#[test]
fn fused_launch_bills_the_get_launch_plus_the_put_launch() {
    for layout in [Layout::Aos, Layout::Soa] {
        for g in FUSED_GROUPS.map(GroupSize::new) {
            let cell = format!("layout {layout:?}, |g|={}", g.get());
            let (reads, puts) = (fused_reads(), disjoint_puts());
            let mut two = preloaded(layout, g, Schedule::Sequential);
            let get = two.get_batch(&reads).unwrap();
            let put = two.put_batch(&puts).unwrap();
            let mut one = preloaded(layout, g, Schedule::Sequential);
            let fused = get_put(&mut one, &reads, &puts);

            assert_eq!(fused.values, get.values, "{cell}: answers");
            assert_eq!(fused.report.launches, 1, "{cell}: launches");
            // disjoint lists: every group runs the body it runs in its
            // own kernel, so the fused launch may neither under- nor
            // over-bill a single counter
            assert_eq!(
                fused.report.counters,
                get.report.counters.merged(put.report.counters),
                "{cell}: counters"
            );
            // and what it saves is one launch overhead, at least
            let overhead = one.device().spec().launch_overhead;
            let separate = get.report.time + put.report.time;
            assert!(
                fused.report.time <= (separate - overhead) * (1.0 + 1e-12),
                "{cell}: fused {} s against {separate} s in two launches",
                fused.report.time
            );
            assert_eq!(contents(&one), contents(&two), "{cell}: contents");
            // the re-inserted keys reclaimed tombstones in both twins
            assert_eq!(one.occupancy_split(), two.occupancy_split(), "{cell}: occupancy");
            assert!(one.tombstones() < 16, "{cell}: no tombstone reclaimed");
        }
    }
}

#[test]
fn fused_launch_visits_a_key_in_both_lists_once_and_answers_its_old_value() {
    for layout in [Layout::Aos, Layout::Soa] {
        for g in FUSED_GROUPS.map(GroupSize::new) {
            let cell = format!("layout {layout:?}, |g|={}", g.get());
            let (reads, puts) = (fused_reads(), overlapping_puts());
            let mut two = preloaded(layout, g, Schedule::Sequential);
            let get = two.get_batch(&reads).unwrap();
            let put = two.put_batch(&puts).unwrap();
            let mut one = preloaded(layout, g, Schedule::Sequential);
            let fused = get_put(&mut one, &reads, &puts);

            let want: Vec<Option<u32>> = reads.iter().map(|&k| preloaded_value(k)).collect();
            assert_eq!(fused.values, want, "{cell}: answers are the pre-call values");
            assert_eq!(get.values, want, "{cell}: twin answers");
            let separate = get.report.counters.merged(put.report.counters);
            assert!(
                fused.report.counters.transactions < separate.transactions,
                "{cell}: four keys visited once instead of twice must save transactions"
            );
            assert_eq!(fused.report.counters.groups + 4, separate.groups, "{cell}: groups");
            assert_eq!(fused.report.counters.cas_ops, separate.cas_ops, "{cell}: CAS");
            assert_eq!(contents(&one), contents(&two), "{cell}: contents");
            assert_eq!(one.occupancy_split(), two.occupancy_split(), "{cell}: occupancy");
        }
    }
}

#[test]
fn fused_launch_answers_and_contents_do_not_depend_on_the_schedule() {
    let seeds = scaled(sweep_seeds().min(8));
    let (reads, puts) = (fused_reads(), overlapping_puts());
    let run = |layout, g, schedule| {
        let mut map = preloaded(layout, g, schedule);
        let fused = get_put(&mut map, &reads, &puts);
        (fused.values, contents(&map), map.occupancy_split())
    };
    for layout in [Layout::Aos, Layout::Soa] {
        for g in FUSED_GROUPS.map(GroupSize::new) {
            let want = run(layout, g, Schedule::Sequential);
            let adversarial = [
                AdversarialMode::Reverse,
                AdversarialMode::DelayOne,
                AdversarialMode::RoundRobin { quantum: 1 },
            ]
            .map(|mode| Schedule::Adversarial { mode, seed: 1 });
            for schedule in (0..seeds).map(Schedule::Seeded).chain(adversarial) {
                // each key is in exactly one group, so no interleaving of
                // the groups may show in what they answer or leave behind
                assert_eq!(
                    run(layout, g, schedule),
                    want,
                    "layout {layout:?}, |g|={}, {schedule}: diverged from the sequential run",
                    g.get()
                );
            }
        }
    }
}
