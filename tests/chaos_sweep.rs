//! wd-chaos: deterministic fault injection for the multi-GPU cascades,
//! proven by property sweeps.
//!
//! Layers (tentpole of the chaos issue):
//!
//! 1. **Conservation under chaos** — proptest over fault plans ×
//!    schedules × group sizes: whatever the injected faults do (dropped
//!    transfers, transient launch failures, stragglers, degraded links,
//!    killed GPUs), a successful insert leaves the exact input multiset
//!    in the union of the live tables, and every stored key still
//!    answers.
//! 2. **Replay** — every chaos failure message carries
//!    `WD_FAULT=… WD_FAULT_SEED=…` (composable with `WD_SCHED_*`); this
//!    suite proves a run reconstructed from that printed string is
//!    bit-identical, stats and stage times included.
//! 3. **Graceful degradation** — with one of four GPUs killed mid-run,
//!    the distributed insert+retrieve round trip still returns every
//!    key (the dead GPU's partition re-splits across the survivors).
//! 4. **Off mode** — a disarmed plan bills byte-identical counters and
//!    times: no `Backoff` stage, all-zero degraded stats, bitwise-equal
//!    reports (mirrors the sanitizer's off-mode guarantee).
//! 5. **Mutation doubles** — `Mutation::DoubleApplyOnRetry`
//!    (retry without the idempotence guard) and
//!    `Mutation::ForgetQuarantinedPartition` (repartition loses
//!    the shard) are provably caught within `WD_MUTATION_SEEDS`, while
//!    the correct implementation stays clean on every hunted seed.

use gpu_sim::{Device, FaultPlan, Schedule};
use interconnect::Topology;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use warpdrive::{CascadeStage, Config, DistributedHashMap, MapService, Mutation};
use wd_apps::{mutation_seeds, scaled};

fn node(m: usize, cfg: Config) -> DistributedHashMap {
    let devices: Vec<Arc<Device>> = (0..m)
        .map(|i| Arc::new(Device::with_words(i, 1 << 16)))
        .collect();
    DistributedHashMap::new(devices, 2048, cfg, Topology::p100_quad(m)).unwrap()
}

fn multiset(pairs: impl IntoIterator<Item = (u32, u32)>) -> BTreeMap<(u32, u32), u32> {
    let mut m = BTreeMap::new();
    for p in pairs {
        *m.entry(p).or_insert(0) += 1;
    }
    m
}

/// Builds an armed fault plan from raw proptest draws: independent
/// knobs, each possibly off. `knobs` is
/// `(drop %, launch-fail %, degrade %, degrade factor)`; a straggler
/// device of 4+ means "no straggler".
fn fault_plan(seed: u64, knobs: (u32, u32, u32, u32), straggler: (u32, u32)) -> FaultPlan {
    let (drop, launch, dp, df) = knobs;
    let (sd, sf) = straggler;
    let mut plan = FaultPlan::default()
        .with_seed(seed)
        .with_transfer_drop(f64::from(drop) / 100.0)
        .with_launch_fail(f64::from(launch) / 100.0);
    if dp > 0 {
        plan = plan.with_link_degrade(f64::from(dp) / 100.0, f64::from(df));
    }
    if sd < 4 {
        plan = plan.with_straggler(sd, f64::from(sf), 1e-5);
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(wd_apps::scaled(24) as u32))]

    /// Whatever the plan injects, recovery preserves the key multiset:
    /// a successful insert leaves exactly the input in the live tables,
    /// and retrieval answers every key. Failure messages echo the replay
    /// string.
    #[test]
    fn chaos_conserves_the_key_multiset(
        fault_seed in 0u64..1024,
        knobs in (0u32..=35, 0u32..=35, 0u32..=50, 2u32..8),
        straggler in (0u32..8, 2u32..6),
        sched_seed in 0u64..64,
        g_idx in 0usize..6,
        m in 2usize..5,
        keys in proptest::collection::hash_set(1u32..1_000_000, 8..200),
    ) {
        let plan = fault_plan(fault_seed, knobs, straggler);
        let cfg = Config::default()
            .with_fault(plan)
            .with_schedule(Schedule::Seeded(sched_seed))
            .with_group_size(gpu_sim::GroupSize::ALL[g_idx].get());
        let mut d = node(m, cfg);
        let replay = d.replay_hint();
        let pairs: Vec<(u32, u32)> = keys.iter().map(|&k| (k, k ^ 0xbeef)).collect();
        match d.put_batch(&pairs) {
            Err(e) => {
                // the whole node died — legal under heavy plans, but only
                // via the typed path, and only with every GPU quarantined
                // or a transfer hard-failing; replay must reproduce it
                prop_assert!(
                    d.quarantined().len() >= m - 1,
                    "{e} without exhausting failover; replay: {replay}"
                );
            }
            Ok(_) => {
                prop_assert_eq!(
                    multiset(pairs.iter().copied()),
                    multiset(d.live_snapshot()),
                    "conservation broken; replay: {}",
                    replay
                );
                if let Ok(resp) = d.get_batch(
                    &pairs.iter().map(|p| p.0).collect::<Vec<_>>(),
                ) {
                    for (i, p) in pairs.iter().enumerate() {
                        prop_assert_eq!(
                            resp.values[i], Some(p.1),
                            "key {} lost; replay: {}", p.0, replay
                        );
                    }
                }
            }
        }
    }

    /// Erase under chaos: tombstoning a subset leaves exactly the
    /// remainder, faults or not (erase restarts are idempotent).
    #[test]
    fn chaos_erase_leaves_the_remainder(
        fault_seed in 0u64..1024,
        knobs in (0u32..=35, 0u32..=35, 0u32..=50, 2u32..8),
        straggler in (0u32..8, 2u32..6),
        sched_seed in 0u64..32,
        keys in proptest::collection::hash_set(1u32..500_000, 8..150),
        erase_every in 2usize..4,
    ) {
        let plan = fault_plan(fault_seed, knobs, straggler);
        let cfg = Config::default()
            .with_fault(plan)
            .with_schedule(Schedule::Seeded(sched_seed));
        let mut d = node(3, cfg);
        let replay = d.replay_hint();
        let keys: Vec<u32> = keys.into_iter().collect();
        let pairs: Vec<(u32, u32)> = keys.iter().map(|&k| (k, k)).collect();
        if d.put_batch(&pairs).is_err() {
            return Ok(()); // node died before the experiment started
        }
        let victims: Vec<u32> = keys.iter().step_by(erase_every).copied().collect();
        let erased = d.delete_batch(&victims).unwrap().erased;
        prop_assert_eq!(
            erased as usize, victims.len(),
            "erase count; replay: {}", replay
        );
        let mut stored: Vec<u32> = d.live_snapshot().into_iter().map(|(k, _)| k).collect();
        stored.sort_unstable();
        let mut want: Vec<u32> = keys
            .iter()
            .filter(|k| !victims.contains(k))
            .copied()
            .collect();
        want.sort_unstable();
        prop_assert_eq!(stored, want, "erase broke conservation; replay: {}", replay);
    }
}

/// A chaos run reconstructed from the printed replay string is
/// bit-identical: same degraded stats, same stage times to the last bit.
#[test]
fn chaos_runs_replay_bit_for_bit_from_the_printed_hint() {
    let plan = FaultPlan::default()
        .with_seed(2026)
        .with_transfer_drop(0.3)
        .with_launch_fail(0.25)
        .with_straggler(1, 3.0, 1e-5);
    let pairs: Vec<(u32, u32)> = (0..2500u32).map(|i| (i * 7 + 1, i)).collect();

    let run = |plan: FaultPlan| {
        let mut d = node(4, Config::default().with_fault(plan));
        let rep = d.put_batch(&pairs).expect("node survives this plan").report;
        (rep, d.degraded_stats(), d.quarantined(), d.replay_hint())
    };
    let (rep_a, stats_a, q_a, hint) = run(plan);

    // parse the plan back out of the printed hint, exactly as a human
    // replaying a failure would
    let spec = hint
        .split_whitespace()
        .find_map(|t| t.strip_prefix("WD_FAULT="))
        .expect("hint names WD_FAULT");
    let seed: u64 = hint
        .split_whitespace()
        .find_map(|t| t.strip_prefix("WD_FAULT_SEED="))
        .expect("hint names WD_FAULT_SEED")
        .parse()
        .unwrap();
    assert!(hint.contains("WD_SCHED"), "hint must compose with the scheduler: {hint}");
    let rebuilt = FaultPlan::from_spec(spec, seed);
    assert_eq!(rebuilt, plan, "spec `{spec}` did not round-trip");

    let (rep_b, stats_b, q_b, _) = run(rebuilt);
    assert_eq!(stats_a, stats_b, "degraded stats diverged on replay");
    assert_eq!(q_a, q_b, "quarantine set diverged on replay");
    assert_eq!(rep_a.stages.len(), rep_b.stages.len());
    for (x, y) in rep_a.stages.iter().zip(&rep_b.stages) {
        assert_eq!(x.stage, y.stage);
        assert_eq!(
            x.time.to_bits(),
            y.time.to_bits(),
            "{:?} time diverged on replay",
            x.stage
        );
        assert_eq!(x.bytes, y.bytes);
    }
}

/// One of four GPUs dies mid-run: the node quarantines it, re-splits its
/// partition over the three survivors, and the insert+retrieve round
/// trip still returns every key — the acceptance scenario.
#[test]
fn one_dead_gpu_of_four_degrades_gracefully() {
    let mut d = node(4, Config::default());
    let pairs: Vec<(u32, u32)> = (0..4000u32).map(|i| (i * 3 + 1, i)).collect();
    d.put_batch(&pairs[..2000]).unwrap();
    assert!(d.quarantined().is_empty());
    assert_eq!(d.degraded_stats(), warpdrive::DegradedStats::default());

    d.set_fault_plan(FaultPlan::default().with_kill(2));
    d.put_batch(&pairs[2000..]).unwrap();
    assert_eq!(d.quarantined(), vec![2], "GPU 2 must be quarantined");
    let stats = d.degraded_stats();
    assert_eq!(stats.quarantined, 1);
    assert!(stats.migrated_keys > 0, "GPU 2 held a partition before dying");

    let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
    let res = d.get_batch(&keys).unwrap().values;
    for (i, p) in pairs.iter().enumerate() {
        assert_eq!(res[i], Some(p.1), "key {} lost after quarantine", p.0);
    }
    assert_eq!(multiset(pairs), multiset(d.live_snapshot()));
}

/// Off mode: a disarmed plan (even one with a seed set) is
/// indistinguishable from no plan at all — no `Backoff` stage, all-zero
/// degraded stats, and bitwise-identical stage times and byte counters.
#[test]
fn fault_off_is_byte_identical() {
    let pairs: Vec<(u32, u32)> = (0..3000u32).map(|i| (i * 13 + 5, i)).collect();
    let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
    let run = |cfg: Config| {
        let mut d = node(4, cfg);
        let ins = d.put_batch(&pairs).unwrap().report;
        let ret = d.get_batch(&keys).unwrap().report;
        assert_eq!(d.degraded_stats(), warpdrive::DegradedStats::default());
        assert!(d.quarantined().is_empty());
        (ins, ret)
    };
    // seed alone does not arm the plan
    let seeded_but_disarmed = FaultPlan::default().with_seed(777);
    assert!(!seeded_but_disarmed.armed());
    let (ins_a, ret_a) = run(Config::default());
    let (ins_b, ret_b) = run(Config::default().with_fault(seeded_but_disarmed));
    for (a, b) in [
        (&ins_a.stages[..], &ins_b.stages[..]),
        (&ret_a.stages[..], &ret_b.stages[..]),
    ] {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.stage, y.stage);
            assert!(
                x.stage != CascadeStage::Backoff,
                "fault-off run must never bill a Backoff stage"
            );
            assert_eq!(x.time.to_bits(), y.time.to_bits(), "{:?}", x.stage);
            assert_eq!(x.bytes, y.bytes, "{:?}", x.stage);
            assert_eq!(x.overhead.to_bits(), y.overhead.to_bits(), "{:?}", x.stage);
        }
    }
}

/// CI chaos-matrix entry point: `Config::default()` arms its plan from
/// `WD_FAULT` / `WD_FAULT_SEED`, so under the workflow's fault matrix
/// this runs the full host round trip against whatever the matrix
/// injected and proves conservation plus recovery. Without `WD_FAULT`
/// it degenerates to a healthy round trip (and documents that a bare
/// environment means a disarmed plan).
#[test]
fn env_armed_round_trip_conserves() {
    let mut d = node(4, Config::default());
    println!("chaos smoke plan: {}", d.replay_hint());
    let pairs: Vec<(u32, u32)> = (0..2000u32).map(|i| (i * 11 + 3, i)).collect();
    match d.put_batch(&pairs) {
        Err(e) => {
            assert!(
                d.quarantined().len() >= 3,
                "{e} without exhausting failover; replay: {}",
                d.replay_hint()
            );
        }
        Ok(_) => {
            assert_eq!(
                multiset(pairs.iter().copied()),
                multiset(d.live_snapshot()),
                "conservation broken; replay: {}",
                d.replay_hint()
            );
            let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
            if let Ok(resp) = d.get_batch(&keys) {
                for (i, p) in pairs.iter().enumerate() {
                    assert_eq!(resp.values[i], Some(p.1), "key {}; replay: {}", p.0, d.replay_hint());
                }
            }
        }
    }
}

/// Mutation double #1: retry without the idempotence guard. The broken
/// variant applies the sub-batch to its failover targets while the
/// primary is still being retried (and succeeds), so a key ends up on
/// two GPUs — caught by multiset conservation within the seed budget,
/// while the correct implementation stays clean on every hunted seed.
#[test]
fn broken_double_apply_on_retry_is_caught_by_conservation() {
    let budget = scaled(mutation_seeds());
    let pairs: Vec<(u32, u32)> = (0..1200u32).map(|i| (i * 7 + 1, i)).collect();
    let want = multiset(pairs.iter().copied());
    let run = |seed: u64, broken: bool| -> Option<BTreeMap<(u32, u32), u32>> {
        let plan = FaultPlan::default().with_seed(seed).with_launch_fail(0.3);
        let mut cfg = Config::default().with_fault(plan);
        if broken {
            cfg = cfg.with_mutation(Mutation::DoubleApplyOnRetry);
        }
        let mut d = node(4, cfg);
        d.put_batch(&pairs).ok()?;
        Some(multiset(d.live_snapshot()))
    };
    let mut caught = None;
    for seed in 0..budget {
        if let Some(got) = run(seed, false) {
            assert_eq!(
                got, want,
                "false positive: correct code broke conservation at fault seed {seed}"
            );
        }
        if caught.is_none() && run(seed, true).is_some_and(|got| got != want) {
            caught = Some(seed);
        }
    }
    let seed = caught.unwrap_or_else(|| {
        panic!("double-apply mutant survived {budget} fault seeds — suite has no teeth")
    });
    println!("double-apply mutant caught by conservation at fault seed {seed}");
}

/// Mutation double #2: the repartition that forgets the quarantined
/// GPU's shard. Killing one GPU mid-run must migrate its partition; the
/// broken variant drops it, so previously-inserted keys vanish — caught
/// by the degraded round trip within the seed budget, while the correct
/// implementation returns every key on every hunted seed.
#[test]
fn broken_forget_quarantined_partition_is_caught_by_round_trip() {
    let budget = scaled(mutation_seeds());
    let run = |seed: u64, broken: bool| -> usize {
        let mut cfg = Config::default();
        if broken {
            cfg = cfg.with_mutation(Mutation::ForgetQuarantinedPartition);
        }
        let mut d = node(4, cfg);
        // data varies with the seed so each hunted seed is a fresh case
        let base = (seed as u32) * 10_007 + 1;
        let pairs: Vec<(u32, u32)> = (0..800u32).map(|i| (base + i * 5, i)).collect();
        d.put_batch(&pairs).unwrap();
        d.set_fault_plan(FaultPlan::default().with_kill((seed % 4) as u32));
        d.put_batch(&[(base + 999_983, 42)]).unwrap();
        let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
        let res = d.get_batch(&keys).unwrap().values;
        res.iter().filter(|r| r.is_none()).count()
    };
    let mut caught = None;
    for seed in 0..budget {
        let lost_correct = run(seed, false);
        assert_eq!(
            lost_correct, 0,
            "false positive: correct code lost keys at seed {seed}"
        );
        if caught.is_none() && run(seed, true) > 0 {
            caught = Some(seed);
        }
    }
    let seed = caught.unwrap_or_else(|| {
        panic!("forget-partition mutant survived {budget} seeds — suite has no teeth")
    });
    println!("forget-partition mutant caught by degraded round trip at seed {seed}");
}

// Host-sided erase runs inside the same PCIe bracket as insert and
// retrieve. (Its disarmed report is pinned bit for bit by
// `tests/cascade_golden.rs`.)

/// A node holding `key(0..n)`, loaded before `plan` is armed.
fn preloaded(m: usize, n: u32, plan: FaultPlan) -> (DistributedHashMap, Vec<u32>) {
    let mut d = node(m, Config::default().with_fault(FaultPlan::default()));
    let pairs: Vec<(u32, u32)> = (0..n).map(|i| (i * 7 + 3, i)).collect();
    d.put_batch(&pairs).unwrap();
    d.set_fault_plan(plan);
    (d, pairs.iter().map(|p| p.0).collect())
}

/// Dropped host-link transfers of an erase are retried with backoff, and
/// the retries are booked: `transfer_retries`, and a `Backoff` stage
/// right behind the transfer it delayed — the keys' H2D or the hit
/// flags' D2H. On a 1-GPU node the all-to-all moves nothing, so every
/// transfer retry is the host link's.
#[test]
fn erase_from_host_retries_dropped_host_link_transfers() {
    let mut retried = 0;
    for seed in 0..16 {
        let plan = FaultPlan::default().with_seed(seed).with_transfer_drop(0.5);
        let (mut d, keys) = preloaded(1, 600, plan);
        let del = match d.delete_batch(&keys) {
            Ok(del) => del,
            // the only link gave up and there is no survivor to fail over to
            Err(e) => {
                assert!(matches!(e, warpdrive::OpError::DeviceLost { device: 0 }), "{e:?}");
                continue;
            }
        };
        assert!(del.hits.iter().all(|&h| h), "{}", d.replay_hint());
        let stats = d.degraded_stats();
        let stages: Vec<CascadeStage> = del.report.stages.iter().map(|s| s.stage).collect();
        assert_eq!(stages[0], CascadeStage::H2D);
        assert_eq!(
            stages.iter().filter(|&&s| s == CascadeStage::D2H).count(),
            1
        );
        if stats.transfer_retries > 0 {
            retried += 1;
            let delayed = stages.windows(2).filter(|w| w[1] == CascadeStage::Backoff);
            assert!(delayed.clone().count() > 0, "{}", d.replay_hint());
            for transfer in delayed {
                let host_link = matches!(transfer[0], CascadeStage::H2D | CascadeStage::D2H);
                assert!(host_link, "{:?} {}", transfer[0], d.replay_hint());
            }
            assert_eq!(del.report.backoff_time.to_bits(), stats.backoff_time.to_bits());
        } else {
            assert!(!stages.contains(&CascadeStage::Backoff));
        }
    }
    assert!(retried > 0, "no seed dropped a host-link transfer at 50 %");
}

/// A host link that exhausts its budget during an erase quarantines its
/// GPU then and there: the PCIe phase condemns it (transfer retries, no
/// launch retries), its keys migrate, and the erase still finds them all.
#[test]
fn erase_from_host_quarantines_an_exhausted_host_link() {
    let (mut d, keys) = preloaded(4, 1200, FaultPlan::default().with_kill(1));
    let del = d.delete_batch(&keys).unwrap();
    assert_eq!(del.erased, 1200);
    assert!(del.hits.iter().all(|&h| h));
    assert_eq!(d.quarantined(), vec![1]);
    let stats = d.degraded_stats();
    assert_eq!(stats.transfer_retries, u64::from(gpu_sim::RETRY.max_attempts) - 1);
    assert_eq!(stats.launch_retries, 0, "the host link failed before any launch");
    assert!(stats.migrated_keys > 0);
    // the failed upload's backoff is billed ahead of the one that went through
    let stages: Vec<CascadeStage> = del.report.stages.iter().map(|s| s.stage).collect();
    assert_eq!(stages[..2], [CascadeStage::Backoff, CascadeStage::H2D]);
}

/// Once a GPU is quarantined, an erase uploads nothing to it: the keys
/// spread over the survivors' host links only.
#[test]
fn erase_from_host_sends_no_pcie_bytes_to_quarantined_gpus() {
    let (mut d, keys) = preloaded(4, 1200, FaultPlan::default().with_kill(3));
    // any upload that reaches GPU 3 finds its host link dead
    d.put_batch(&[(1, 1), (2, 2), (4, 4), (5, 5)]).unwrap();
    assert_eq!(d.quarantined(), vec![3]);
    let del = d.delete_batch(&keys[..900]).unwrap();
    assert_eq!(del.erased, 900);
    let h2d = del.report.stages[0];
    assert_eq!(h2d.stage, CascadeStage::H2D);
    assert_eq!(h2d.bytes, 900 * 4);
    let topo = Topology::p100_quad(4);
    let over_survivors = interconnect::h2d_time(&topo, &[1200, 1200, 1200, 0]);
    let over_everyone = interconnect::h2d_time(&topo, &[900; 4]);
    assert_ne!(over_survivors.to_bits(), over_everyone.to_bits());
    assert_eq!(h2d.time.to_bits(), over_survivors.to_bits());
    // nor do the hits come down a dead link: a found bit a key, the
    // survivors'
    let d2h = *del.report.stages.last().unwrap();
    assert_eq!((d2h.stage, d2h.bytes), (CascadeStage::D2H, 3 * 300_u64.div_ceil(8)));
    let down = interconnect::d2h_time(&topo, &[38, 38, 38, 0]);
    assert_eq!(d2h.time.to_bits(), down.to_bits());
}

/// Keys go up 4 bytes each, two to a device word, and get their place in
/// the chunk from the split: chunks of odd length (a half-filled last
/// word), of more than one run, a GPU without a key and a quarantined GPU
/// — lost mid-call, then absent — all hand the answers back in the
/// caller's order, from retrieve, erase and the mixed round alike.
#[test]
fn answers_come_back_in_the_callers_order_whatever_the_chunks() {
    use warpdrive::MapService;
    for plan in [FaultPlan::default(), FaultPlan::default().with_kill(1)] {
        // 3 keys leave GPU 3 empty; 1027 make chunks of 257, 257, 257, 256
        for n in [1usize, 3, 5, 1027, 1030] {
            let (mut d, keys) = preloaded(4, 1200, plan);
            // every third key absent, the list in descending order
            let asked = |i: usize| matches!(i % 3, 1 | 2).then_some(i as u32);
            let query: Vec<u32> = (0..n)
                .rev()
                .map(|i| keys[i] + u32::from(asked(i).is_none()))
                .collect();
            let want: Vec<Option<u32>> = (0..n).rev().map(asked).collect();
            let case = format!("n={n} {}", d.replay_hint());

            let got = d.get_batch(&query).unwrap();
            assert_eq!(got.values, want, "retrieve {case}");
            if n >= 3 {
                // GPU 1's chunk found its host link dead
                let lost = if plan.armed() { vec![1] } else { vec![] };
                assert_eq!(d.quarantined(), lost, "{case}");
            }

            // the mixed round takes its reads ascending: every read key rewritten
            let reads: Vec<u32> = query.iter().rev().copied().collect();
            let puts: Vec<(u32, u32)> = reads.iter().map(|&k| (k, k)).collect();
            let mut got = vec![None; reads.len()];
            d.apply(&reads, &puts, &[], &mut got, &mut []).unwrap();
            let before: Vec<Option<u32>> = want.iter().rev().copied().collect();
            assert_eq!(got, before, "get + put {case}");

            let (present, absent) = (&query[..n / 2], &query[n / 2..]);
            let del = d.delete_batch(present).unwrap();
            assert!(del.hits.iter().all(|&hit| hit), "erase {case}");
            let after = d.get_batch(&query).unwrap();
            let gone = present.iter().map(|_| None);
            let want: Vec<Option<u32>> = gone.chain(absent.iter().map(|&k| Some(k))).collect();
            assert_eq!(after.values, want, "after the erase {case}");
        }
    }
}
