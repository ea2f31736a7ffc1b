//! Counter/billing determinism across host worker counts.
//!
//! A launch's one counter set and the chunked accumulator flush must
//! never let the *host* parallelism leak into modeled results: on a fixed
//! seed, the `CounterSnapshot`s and every modeled stage time have to be
//! bit-equal whether the launch ran on 1, 2, or 8 workers. `u64` counter
//! addition commutes, so any divergence is a real bug (a lost flush, a
//! flush read in part, a schedule-dependent code path). A launch of
//! at most 1 024 groups never reaches the pool: it runs on the caller,
//! under `Pool` exactly as under `Sequential`.
//!
//! Everything runs in ONE `#[test]`: the worker count is swept via
//! `RAYON_NUM_THREADS`, which the rayon shim reads per call — concurrent
//! tests mutating the environment would race.

use gpu_sim::{
    CounterSnapshot, Device, GroupSize, KernelStats, LaunchOptions, Schedule, TimeBreakdown,
};
use interconnect::Topology;
use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use warpdrive::{Config, DistributedHashMap, GpuHashMap, MapService};
use workloads::Distribution;

const N: usize = 4096;
const CAPACITY: usize = 8192;
const SEED: u64 = 2026;

/// Bit-exact fingerprint of one kernel launch: the raw counters plus the
/// bit patterns of every modeled stage time (not an epsilon compare — the
/// acceptance bar is replay-grade determinism).
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    counters: CounterSnapshot,
    stages: [u64; 8],
}

impl Fingerprint {
    fn of(stats: &KernelStats) -> Self {
        let TimeBreakdown {
            stream,
            random,
            cas,
            atomic,
            cold,
            latency,
            overhead,
        } = stats.breakdown;
        Self {
            counters: stats.counters,
            stages: [
                stream.to_bits(),
                random.to_bits(),
                cas.to_bits(),
                atomic.to_bits(),
                cold.to_bits(),
                latency.to_bits(),
                overhead.to_bits(),
                stats.sim_time.to_bits(),
            ],
        }
    }
}

/// One full insert + retrieve pass under `schedule`, returning both
/// launch fingerprints.
fn run_pass(schedule: Schedule) -> (Fingerprint, Fingerprint) {
    let pairs = Distribution::Unique.generate(N, SEED);
    let dev = Arc::new(Device::with_words(0, 1 << 17));
    let map = GpuHashMap::new(dev, CAPACITY, Config::default().with_schedule(schedule)).unwrap();
    let ins = map.insert_pairs(&pairs).unwrap();
    let keys: Vec<u32> = pairs.iter().map(|&(k, _)| k).collect();
    (Fingerprint::of(&ins.stats), Fingerprint::of(&retrieve_stats(&map, &keys)))
}

/// One retrieve launch's raw stats. The fingerprint needs
/// `KernelStats.breakdown`, which the typed `OpReport` of `try_retrieve`
/// abstracts away, so the keys are staged by hand for the device-sided
/// call.
fn retrieve_stats(map: &GpuHashMap, keys: &[u32]) -> KernelStats {
    let staging = map.device().alloc_scratch(2 * keys.len()).unwrap();
    let input = staging.slice().sub(0, keys.len().div_ceil(2));
    let out = staging.slice().sub(keys.len(), keys.len());
    map.device().mem().h2d_keys(input, keys);
    map.retrieve_device(input, out, keys.len())
}

/// One host-sided put + get of 2¹⁸ pairs on a 4-GPU `Sequential` node
/// filled to 0.89: the bits of every stage time of both reports and every
/// device's lifetime counters. A split or scatter launch that ignored the
/// map's schedule would race on the pool once it has more than one
/// 1 024-group chunk, as the paper's m-pass had here (2 048 warps per
/// GPU): the order of the words inside a class would follow the
/// interleaving, and at this load so do the probe counters of the insert
/// kernel that receives them.
fn run_node_pass() -> (Vec<u64>, Vec<CounterSnapshot>) {
    let pairs = Distribution::Unique.generate(1 << 18, SEED);
    let devices: Vec<Arc<Device>> = (0..4)
        .map(|i| Arc::new(Device::with_words(i, 1 << 19)))
        .collect();
    let cfg = Config::default().with_schedule(Schedule::Sequential);
    let mut node =
        DistributedHashMap::new(devices, 73_728, cfg, Topology::p100_quad(4)).unwrap();
    let put = node.put_batch(&pairs).unwrap().report;
    let keys: Vec<u32> = pairs.iter().map(|&(k, _)| k).collect();
    let get = node.get_batch(&keys).unwrap();
    assert!(get.values.iter().all(Option::is_some));
    let times = put.stages.iter().chain(&get.report.stages);
    let counters = node.maps().iter();
    (
        times.map(|stage| stage.time.to_bits()).collect(),
        counters
            .map(|map| map.device().lifetime_stats().counters)
            .collect(),
    )
}

/// The insert launch of 1 000 pairs — one pool chunk — under `schedule`.
fn one_chunk_insert(schedule: Schedule) -> Fingerprint {
    let pairs = Distribution::Unique.generate(1000, SEED);
    let dev = Arc::new(Device::with_words(0, 1 << 15));
    let map = GpuHashMap::new(dev, 2048, Config::default().with_schedule(schedule)).unwrap();
    Fingerprint::of(&map.insert_pairs(&pairs).unwrap().stats)
}

/// The threads that ran the groups of a pool launch of `num_groups`.
fn threads_of_a_pool_launch(num_groups: usize) -> HashSet<ThreadId> {
    let dev = Device::with_words(0, 64);
    let ran_on = Mutex::new(HashSet::new());
    let opts = LaunchOptions::default().with_schedule(Schedule::Pool);
    let stats = dev.launch("who_runs_me", num_groups, GroupSize::WARP, opts, |_| {
        ran_on.lock().unwrap().insert(std::thread::current().id());
    });
    assert_eq!(stats.counters.groups, num_groups as u64);
    ran_on.into_inner().unwrap()
}

/// Runs `pass` on 1, 2 and 8 pool workers and holds every run to the
/// first one's result.
fn assert_equal_at_every_worker_count<T: PartialEq + std::fmt::Debug>(
    what: &str,
    mut pass: impl FnMut() -> T,
) {
    let mut baseline = None;
    for workers in ["1", "2", "8"] {
        std::env::set_var("RAYON_NUM_THREADS", workers);
        let got = pass();
        match &baseline {
            None => baseline = Some(got),
            Some(want) => assert_eq!(
                want, &got,
                "{what}: modeled results changed between 1 and {workers} workers"
            ),
        }
    }
}

#[test]
fn modeled_results_are_bit_equal_across_worker_counts() {
    // Deterministic schedules: totals must not depend on the worker count
    // at all. Sequential never touches the pool; Seeded runs its own
    // bounded wave — but both flush into the launch's one counter set, and
    // the order the flushes land in must never change a total.
    // The Pool schedule with >1 worker genuinely races on table slots
    // (CAS outcomes may differ), so only its *read-only* retrieve pass —
    // which exercises the chunked flush across real pool workers — is
    // held to bit-equality here.
    for (name, schedule) in [
        ("sequential", Schedule::Sequential),
        ("seeded", Schedule::Seeded(0xDECAF)),
    ] {
        assert_equal_at_every_worker_count(name, || run_pass(schedule));
    }

    // The cascade: its split and scatter launches take the map's schedule
    // like its kernels, so a Sequential node repeats at every worker count.
    assert_equal_at_every_worker_count("sequential node", run_node_pass);

    // A launch that fits one pool chunk runs on the caller in group order
    // under `Pool` as under `Sequential`: the same arm, so the racing
    // insert kernel bills the same counters and time under both, at every
    // worker count. One group more is two chunks on two workers again.
    assert_equal_at_every_worker_count("one-chunk insert", || {
        let (pool, sequential) = (
            one_chunk_insert(Schedule::Pool),
            one_chunk_insert(Schedule::Sequential),
        );
        assert_eq!(pool, sequential, "one chunk, two arms");
        pool
    });
    std::env::set_var("RAYON_NUM_THREADS", "2");
    let caller = HashSet::from([std::thread::current().id()]);
    assert_eq!(threads_of_a_pool_launch(1024), caller);
    assert_eq!(threads_of_a_pool_launch(1025).len(), 2);

    // Pool retrieve on a fixed, quiesced table: read-only probing is
    // deterministic, so counters and stage times must be bit-equal even
    // though the chunks land on different workers each sweep.
    let pairs = Distribution::Unique.generate(N, SEED);
    let keys: Vec<u32> = pairs.iter().map(|&(k, _)| k).collect();
    let dev = Arc::new(Device::with_words(0, 1 << 17));
    let map = GpuHashMap::new(
        dev,
        CAPACITY,
        Config::default().with_schedule(Schedule::Pool),
    )
    .unwrap();
    // populate on one worker so the table contents are deterministic
    std::env::set_var("RAYON_NUM_THREADS", "1");
    map.insert_pairs(&pairs).unwrap();
    assert_equal_at_every_worker_count("pool retrieve", || {
        Fingerprint::of(&retrieve_stats(&map, &keys))
    });
    std::env::remove_var("RAYON_NUM_THREADS");
}
