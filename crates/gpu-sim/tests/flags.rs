//! `GroupCtx::publish` and `GroupCtx::poll` under the racing pool: a
//! launch of several chunks of 1 024 groups, each group waiting on its
//! predecessor's flag, finishes at every worker count. That rests on how
//! the rayon shim hands out the chunks — a contiguous, ascending range to
//! each thread, the first to the caller — and this suite pins that shape.

use gpu_sim::{launch_node, Device, GroupSize, KernelStats, LaunchOptions, Section};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Mutex;
use std::thread::{self, ThreadId};
use std::time::Duration;

/// Groups of a launch, four chunks of the pool.
const GROUPS: usize = 4 * 1024;

/// Runs `f` on a thread of its own and returns what it returns, or panics
/// if it has not finished within a minute.
fn within_a_minute<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(Duration::from_secs(60)) {
        Ok(out) => out,
        Err(RecvTimeoutError::Timeout) => panic!("{what}: no progress within a minute"),
        Err(RecvTimeoutError::Disconnected) => panic!("{what}: the launch panicked"),
    }
}

/// A chain over [`GROUPS`] groups in the pool: group `g` waits for flag
/// `g - 1` and raises flag `g`. Returns, in the order each thread ran
/// them, the groups of every thread — the launching thread's first — and
/// the launch's stats.
fn chain() -> (Vec<Vec<usize>>, KernelStats) {
    let dev = Device::with_words(0, GROUPS + 64);
    let flags = dev.alloc(GROUPS).unwrap();
    dev.mem().fill(flags, 0);
    let ran: Mutex<Vec<(ThreadId, usize)>> = Mutex::new(Vec::with_capacity(GROUPS));
    let stats = dev.launch("chain", GROUPS, GroupSize::WARP, LaunchOptions::default(), |ctx| {
        let g = ctx.group_id();
        if g > 0 {
            let mut before = [0];
            // the g-th wait of the chain
            ctx.poll(flags, g - 1, &mut before, g as u64, |flag| flag[0] != 0);
            assert_eq!(before[0], g as u64, "flag {} carries its group", g - 1);
        }
        ran.lock().unwrap().push((thread::current().id(), g));
        ctx.publish(flags, g, &[g as u64 + 1]);
    });
    let raised = dev.mem().d2h(flags);
    assert!(raised.iter().zip(1..).all(|(&flag, want)| flag == want));
    let caller = thread::current().id();
    let mut threads: Vec<(ThreadId, Vec<usize>)> = Vec::new();
    for (id, g) in ran.into_inner().unwrap() {
        match threads.iter_mut().find(|(of, _)| *of == id) {
            Some((_, groups)) => groups.push(g),
            None => threads.push((id, vec![g])),
        }
    }
    threads.sort_by_key(|(id, _)| *id != caller);
    assert_eq!(threads[0].0, caller, "the launching thread runs groups too");
    (threads.into_iter().map(|(_, groups)| groups).collect(), stats)
}

/// The shape progress rests on: at 1, 2 and 4 workers each thread runs
/// one contiguous, ascending range of groups, the launching thread the
/// one from group 0 — and the chain, whose every group waits on the group
/// before it, finishes and bills the same at every worker count: its
/// waits one after another, a memory round-trip each.
#[test]
fn a_chain_of_waiters_finishes_in_the_pool_at_every_worker_count() {
    let mut billed = None;
    for workers in [1, 2, 4] {
        std::env::set_var("RAYON_NUM_THREADS", workers.to_string());
        let (threads, stats) = within_a_minute("the chain", chain);
        let counters = stats.counters;
        assert!(threads.len() <= workers, "{workers} workers: {} threads", threads.len());
        assert_eq!(threads[0][0], 0, "{workers} workers");
        let mut next = 0;
        for groups in &threads {
            assert_eq!(groups[0], next, "{workers} workers: a range starts where one ends");
            assert!(groups.windows(2).all(|pair| pair[1] == pair[0] + 1), "{workers} workers");
            next += groups.len();
        }
        assert_eq!(next, GROUPS);
        // one poll a group but the first, however long it spun
        assert_eq!(counters.group_steps, GROUPS as u64 - 1);
        let serial = (GROUPS - 1) as f64 * Device::with_words(0, 1).spec().mem_latency;
        assert!(stats.breakdown.latency >= serial, "{workers} workers");
        assert_eq!(*billed.get_or_insert(counters), counters, "{workers} workers");
    }
    std::env::remove_var("RAYON_NUM_THREADS");
}

/// Groups of each of a node launch's two sections on each of its devices:
/// more than one chunk of the pool a device.
const NODE_GROUPS: usize = 600;

/// A node launch over 4 devices, `[producers of every device | consumers
/// of every device]`: producer `g` of device `d` stores a word into device
/// `d + 1`'s inbox and publishes its flag there, consumer `g` of that
/// device waits for the flag and keeps the word. Returns whether every
/// word arrived, and the bytes counted on the edge from device 0 to 1.
fn relay(opts: LaunchOptions) -> (bool, u64) {
    let devices: Vec<Device> = (0..4).map(|d| Device::with_words(d, 4 * NODE_GROUPS)).collect();
    let slices = |d: &Device| {
        let [inbox, flags, kept] = [(); 3].map(|()| d.alloc(NODE_GROUPS).unwrap());
        d.mem().fill(flags, 0);
        (inbox, flags, kept)
    };
    let bufs: Vec<_> = devices.iter().map(slices).collect();
    let members: Vec<&Device> = devices.iter().collect();
    let size = GroupSize::WARP;
    let section = |member| Section { member, groups: NODE_GROUPS, size, working_set: 0 };
    let sections: Vec<Section> = (0..8).map(|k| section(k % 4)).collect();
    let stats = launch_node(&members, "relay", &sections, opts, |k, g, ctx| {
        let d = k % 4;
        if k < 4 {
            let (inbox, flags, _) = bufs[(d + 1) % 4];
            let word = (d * NODE_GROUPS + g) as u64;
            ctx.store_peer((d + 1) % 4, inbox, g, &[word], 8);
            ctx.publish_peer((d + 1) % 4, flags, g, &[1]);
        } else {
            let (inbox, flags, kept) = bufs[d];
            ctx.poll(flags, g, &mut [0], 1, |flag| flag[0] != 0);
            let word = ctx.read(inbox, g);
            ctx.write(kept, g, word);
        }
    });
    let arrived = (0..4).all(|d| {
        let from = (d + 3) % 4;
        let kept = devices[d].mem().d2h(bufs[d].2);
        kept.iter().enumerate().all(|(g, &w)| w == (from * NODE_GROUPS + g) as u64)
    });
    (arrived, stats.edge_bytes(0, 1))
}

/// A node launch whose later sections wait on flags its earlier ones
/// publish into other devices' memories finishes in the pool at 1 and 2
/// workers and under seeded and adversarial stepwise schedules, and
/// counts each edge's bytes.
#[test]
fn a_node_launch_finishes_under_every_schedule() {
    use gpu_sim::{AdversarialMode, Schedule};
    let pool = LaunchOptions::default();
    for workers in [1, 2] {
        std::env::set_var("RAYON_NUM_THREADS", workers.to_string());
        let (arrived, bytes) = within_a_minute("the relay", move || relay(pool));
        assert!(arrived, "{workers} workers");
        assert_eq!(bytes, 8 * NODE_GROUPS as u64);
    }
    std::env::remove_var("RAYON_NUM_THREADS");
    let stepwise = [
        Schedule::Seeded(3),
        Schedule::Adversarial { mode: AdversarialMode::DelayOne, seed: 1 },
        Schedule::Adversarial { mode: AdversarialMode::Reverse, seed: 0 },
    ];
    for schedule in stepwise {
        let opts = pool.with_schedule(schedule);
        let (arrived, _) = within_a_minute("the stepwise relay", move || relay(opts));
        assert!(arrived, "{schedule:?}");
    }
}

/// On one thread in id order a group that polls a flag a higher id
/// publishes can never see it: the poll panics instead of hanging.
#[test]
fn a_node_launch_panics_on_a_wait_for_a_higher_id() {
    use gpu_sim::Schedule;
    let devices: Vec<Device> = (0..2).map(|d| Device::with_words(d, 64)).collect();
    let flags = devices[1].alloc(1).unwrap();
    devices[1].mem().fill(flags, 0);
    let members: Vec<&Device> = devices.iter().collect();
    let section = |member| Section { member, groups: 1, size: GroupSize::WARP, working_set: 0 };
    let opts = LaunchOptions::default().with_schedule(Schedule::Sequential);
    let waited = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        launch_node(&members, "backwards", &[section(1), section(0)], opts, |k, _, ctx| {
            if k == 0 {
                ctx.poll(flags, 0, &mut [0], 1, |flag| flag[0] != 0);
            } else {
                ctx.publish_peer(1, flags, 0, &[1]);
            }
        });
    }));
    let message = waited.expect_err("a wait for a higher id must panic");
    let message = message.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(message.contains("polls a flag that no earlier group published"), "{message}");
}

/// A device of a node launch counts what its sections would count as
/// launches of their own and bills their time but one launch overhead
/// a section more: the fused grid pays the overhead once.
#[test]
fn a_node_launch_bills_its_sections_less_their_overheads() {
    let probe = |ctx: &gpu_sim::GroupCtx, buf| {
        let _ = ctx.read_window(buf, 7 * ctx.group_id());
        ctx.bill_stream_bytes(64);
    };
    let devices: Vec<Device> = (0..4).map(|d| Device::with_words(d, 1 << 14)).collect();
    let bufs: Vec<_> = devices.iter().map(|d| d.alloc(1 << 13).unwrap()).collect();
    for (d, buf) in devices.iter().zip(&bufs) {
        d.mem().fill(*buf, 1);
    }
    let sizes = [GroupSize::new(4), GroupSize::WARP];
    // groups of section `s` of device `d`: more than a chunk a device
    let groups = |d: usize, s: usize| 500 + 100 * d + 60 * s;
    let opts = LaunchOptions::default();
    let apart: Vec<Vec<KernelStats>> = (0..4)
        .map(|d| {
            let launch = |s: usize| {
                devices[d].launch("apart", groups(d, s), sizes[s], opts, |ctx| probe(ctx, bufs[d]))
            };
            vec![launch(0), launch(1)]
        })
        .collect();
    let before: Vec<_> = devices.iter().map(Device::lifetime_stats).collect();
    let members: Vec<&Device> = devices.iter().collect();
    let sections: Vec<Section> = (0..8)
        .map(|k| {
            let (member, size) = (k % 4, sizes[k / 4]);
            Section { member, groups: groups(member, k / 4), size, working_set: 0 }
        })
        .collect();
    let fused = |k: usize, _, ctx: &gpu_sim::GroupCtx| probe(ctx, bufs[k % 4]);
    let stats = launch_node(&members, "fused", &sections, opts, fused);
    for d in 0..4 {
        let after = devices[d].lifetime_stats();
        assert_eq!(after.launches - before[d].launches, 1, "device {d}: one launch");
        let counters = apart[d][0].counters.merged(apart[d][1].counters);
        assert_eq!(after.counters, before[d].counters.merged(counters), "device {d}");
        for (s, alone) in apart[d].iter().enumerate() {
            assert_eq!(stats.section(d + 4 * s).counters, alone.counters, "device {d}");
        }
        let overhead = devices[d].spec().launch_overhead;
        let sum = apart[d][0].sim_time + apart[d][1].sim_time - overhead;
        assert!((stats.time(d) - sum).abs() < 1e-15, "device {d}: {} vs {sum}", stats.time(d));
        assert!((after.sim_time - before[d].sim_time - sum).abs() < 1e-15, "device {d}");
        assert_eq!(stats.edge_bytes(d, (d + 1) % 4), 0);
    }
}

/// Members that share a device — §VI's partitions of one GPU — share its
/// node launch: the device counts one launch and bills one overhead for
/// the sections of all of them, and each member reads the device's bill.
#[test]
fn members_on_one_device_share_its_launch() {
    let dev = Device::with_words(0, 1 << 10);
    let probe = |ctx: &gpu_sim::GroupCtx| ctx.bill_stream_bytes(64);
    let (opts, size) = (LaunchOptions::default(), GroupSize::WARP);
    let groups = [300, 500];
    let apart: Vec<KernelStats> =
        groups.iter().map(|&n| dev.launch("apart", n, size, opts, probe)).collect();
    let sections: Vec<Section> = (0..2)
        .map(|member| Section { member, groups: groups[member], size, working_set: 0 })
        .collect();
    let before = dev.lifetime_stats();
    let stats = launch_node(&[&dev, &dev], "shared", &sections, opts, |_, _, ctx| probe(ctx));
    let after = dev.lifetime_stats();
    assert_eq!((stats.launches(), after.launches - before.launches), (1, 1));
    let sum = apart[0].sim_time + apart[1].sim_time - dev.spec().launch_overhead;
    for member in 0..2 {
        assert!(stats.launched(member));
        assert!((stats.time(member) - sum).abs() < 1e-15, "{} vs {sum}", stats.time(member));
    }
    assert!((after.sim_time - before.sim_time - sum).abs() < 1e-15);
}
