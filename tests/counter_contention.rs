//! Contention stress for a launch's one counter set.
//!
//! Many tiny groups hammer the counters from 8 pool workers at once; the
//! launch totals must match the sequential schedule *exactly* — the
//! chunked accumulator flush may change the order in which chunks take
//! the launch's counter lock, never how much lands. A seeded stepwise
//! launch, which flushes once per group while that group alone holds the
//! turn, must match too. Only operations with schedule-independent totals
//! are used (window reads, streaming loads, atomic adds); CAS
//! success/failure is genuinely racy and belongs to the determinism
//! suite's sequential passes instead.
//!
//! Kept as its own test binary: it pins `RAYON_NUM_THREADS=8` for the
//! whole process, which must not leak into other tests' environments.

use gpu_sim::{CounterSnapshot, Device, GroupSize, LaunchOptions, Schedule};

const GROUPS: usize = 50_000;

/// Groups of the stepwise launch: few, since a stepwise schedule hands
/// the turn from group to group.
const STEPWISE_GROUPS: usize = 2_000;

/// One tiny kernel pass of `groups` groups under `schedule`.
fn run(schedule: Schedule, groups: usize) -> (CounterSnapshot, u64) {
    let dev = Device::with_words(0, 4096);
    let data = dev.alloc(64).unwrap();
    dev.mem().fill(data, 7);
    let tally = dev.alloc(1).unwrap();
    dev.mem().fill(tally, 0);
    let stats = dev.launch(
        "contention_tiny",
        groups,
        GroupSize::new(4),
        LaunchOptions::default().with_schedule(schedule),
        |ctx| {
            // one coalesced window, one streamed word, one warm atomic —
            // every counter involved has a schedule-independent total
            let w = ctx.read_window(data, ctx.group_id() % 64);
            let _ = w.lane(0);
            let _ = ctx.read_stream(data, ctx.group_id() % 64);
            let _ = ctx.atomic_add(tally, 0, 1);
        },
    );
    (stats.counters, dev.mem().d2h(tally)[0])
}

#[test]
fn pool_totals_match_sequential_exactly() {
    std::env::set_var("RAYON_NUM_THREADS", "8");
    let (want, serial_sum) = run(Schedule::Sequential, GROUPS);
    assert_eq!(want.groups, GROUPS as u64);
    assert_eq!(want.atomic_ops, GROUPS as u64);
    assert_eq!(serial_sum, GROUPS as u64);
    // several pool passes: distinct worker interleavings every time, the
    // same totals every time
    for round in 0..3 {
        let (got, sum) = run(Schedule::Pool, GROUPS);
        assert_eq!(want, got, "pool round {round} diverged from sequential");
        assert_eq!(sum, GROUPS as u64, "lost atomic adds in round {round}");
    }
    let (want, _) = run(Schedule::Sequential, STEPWISE_GROUPS);
    let (got, sum) = run(Schedule::Seeded(7), STEPWISE_GROUPS);
    assert_eq!(want, got, "the seeded stepwise launch diverged from sequential");
    assert_eq!(sum, STEPWISE_GROUPS as u64, "lost atomic adds under the seeded schedule");
}
