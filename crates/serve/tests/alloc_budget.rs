//! Heap-allocation budgets of the four paths a small batch pays for — a
//! kernel launch, a serving flush through the 4-GPU cascade, a front-door
//! call on one GPU, and a call through a filled hot-key cache — and of the
//! two a large one adds: a launch on the rayon shim's pool, and a
//! host-sided call the bracket cuts into overlapping chunks, whose cascade
//! rounds allocate nothing.
//!
//! A binary of its own, because it installs a counting
//! `#[global_allocator]`. The count is per thread — every `#[test]` runs
//! on its own, so tests running side by side do not bleed into each other
//! — which is also its limit: it sees what the calling thread allocates,
//! not the pool's workers (`shims/rayon/tests/alloc.rs` counts those).

use gpu_sim::{launch_node, Device, GroupSize, LaunchOptions, Schedule, Section};
use interconnect::Topology;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use warpdrive::host_ops::Cut;
use warpdrive::{
    CachePolicy, CachedMap, Config, DistributedHashMap, GpuHashMap, MapService, Op, OpReport,
    ResizePolicy, ResizeState, Response,
};
use wd_serve::{ServeConfig, Server};

thread_local! {
    /// `alloc` + `alloc_zeroed` + `realloc` calls of this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Those of them the size of `std`'s copy of [`WORKERS`].
    static WORKER_READS: Cell<u64> = const { Cell::new(0) };
    /// Bytes those calls asked for (a `realloc` its new size).
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// `RAYON_NUM_THREADS` as the tests of a large call set it: two workers,
/// as the benchmark's host pass runs. The pool trims the spaces; they give
/// `std`'s copy of the value, which the pool makes once a launch outside a
/// host call, a size no other allocation here has, so that
/// [`measure`] can count those copies.
const WORKERS: &str = "2            ";

/// Forwards to [`System`] and counts the calling thread's calls.
struct CountingAlloc;

fn count(layout: Layout, bytes: usize) {
    // a thread that is tearing down its locals allocates uncounted
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
    if (layout.size(), layout.align()) == (WORKERS.len(), 1) {
        let _ = WORKER_READS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain thread-local
// cell without destructor and touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout, layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout, layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(layout, new_size);
        // SAFETY: `ptr`, `layout` and `new_size` come straight from the caller.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations the calling thread makes while `region` runs.
fn allocations<T>(region: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = region();
    (ALLOCS.with(Cell::get) - before, out)
}

/// The budgets are the default configuration's: a sanitizer, a fault plan
/// or a stepwise schedule taken from the environment changes what a launch
/// does (the CI sanitize and chaos jobs set them).
fn default_environment() -> bool {
    let knobs = ["WD_SANITIZE", "WD_FAULT", "WD_SCHED_MODE"];
    knobs.iter().all(|knob| std::env::var_os(knob).is_none())
}

#[test]
fn a_one_chunk_launch_allocates_nothing() {
    if !default_environment() {
        return;
    }
    let dev = Device::with_words(0, 1 << 10);
    for schedule in [Schedule::Pool, Schedule::Sequential] {
        let opts = LaunchOptions::default().with_schedule(schedule);
        let (allocs, stats) = allocations(|| dev.launch("noop", 64, GroupSize::WARP, opts, |_| {}));
        assert_eq!(stats.counters.groups, 64);
        assert_eq!(allocs, 0, "{schedule:?}");
    }
}

/// A warm node launch allocates nothing either: its members, sections'
/// counters, edge counts and bills live on its stack (gpu-sim node.rs),
/// whether one thread runs its grid or the pool's workers do (past
/// reading RAYON_NUM_THREADS). Each group stores a word into the next
/// device, publishes its flag there, and a group of that device's second
/// section waits for it.
#[test]
fn a_warm_node_launch_allocates_nothing() {
    if !default_environment() {
        return;
    }
    two_workers();
    let devices: Vec<Device> = (0..4).map(|d| Device::with_words(d, 1 << 12)).collect();
    let members: Vec<&Device> = devices.iter().collect();
    let alloc = |d: &Device| (d.alloc(1024).unwrap(), d.alloc(1024).unwrap());
    let bufs: Vec<_> = devices.iter().map(alloc).collect();
    let runs = [(Schedule::Pool, 100), (Schedule::Sequential, 100), (Schedule::Pool, 1000)];
    for (flag, run) in runs {
        let opts = LaunchOptions::default().with_schedule(flag);
        let size = GroupSize::WARP;
        let section = |k: usize| Section { member: k % 4, groups: run, size, working_set: 0 };
        let sections: Vec<Section> = (0..8).map(section).collect();
        let launch = || {
            for (d, (_, flags)) in devices.iter().zip(&bufs) {
                d.mem().fill(*flags, 0);
            }
            launch_node(&members, "relay", &sections, opts, |k, g, ctx| {
                let (d, next) = (k % 4, (k + 1) % 4);
                if k < 4 {
                    ctx.store_peer(next, bufs[next].0, g, &[g as u64], 8);
                    ctx.publish_peer(next, bufs[next].1, g, &[1]);
                } else {
                    ctx.poll(bufs[d].1, g, &mut [0], 1, |flag| flag[0] != 0);
                }
            })
        };
        launch(); // warms the pool's worker
        let (read, _) = allocations(|| std::env::var("RAYON_NUM_THREADS"));
        let (allocs, stats) = allocations(launch);
        assert_eq!(stats.edge_bytes(0, 1), 8 * run as u64);
        let allowed = if 8 * run > 1024 { read } else { 0 };
        assert_eq!(
            allocs, allowed,
            "a node launch of {} groups ({flag:?}) allocated: its fixed arrays (gpu-sim \
             node.rs `Node`, `NodeStats`, the sections' `KernelCounters`) or the race state \
             it makes only under a sanitizer went back to the heap",
            8 * run
        );
    }
}

/// The benchmark's 4-GPU node, Fig. 6's topology.
fn fig6_node() -> DistributedHashMap {
    let devices: Vec<Arc<Device>> = (0..4)
        .map(|i| Arc::new(Device::with_words(i, 1 << 18)))
        .collect();
    DistributedHashMap::new(devices, 1 << 14, Config::default(), Topology::p100_quad(4))
        .expect("serve node")
}

/// `serve_node4`'s server: the benchmark's 4-GPU node and thresholds.
fn serve_node4() -> Server<DistributedHashMap> {
    let node = fig6_node();
    let config = ServeConfig::default()
        .with_max_batch(512)
        .with_max_delay(5e-5)
        .with_tenant_quota(1 << 13);
    Server::new(node, config)
}

/// What a flush hands out, and so all it allocates: `execute`'s responses
/// and the server's completions.
const HANDED_OUT: u64 = 2;

/// Where a flush's allocations went back to, for a failure message.
const FLUSH_SITES: &str = "MapService::execute's sort keys, lists or answers (service.rs: on the \
    stack up to INLINE_OPS ops), OpReport's stage rows (stats.rs StageRows: inline for a \
    flush's rounds), DistributedHashMap::apply's packed pairs and cut sections (distributed.rs \
    with_scratch: the node's own scratch), the cascade round (cascade.rs) or Server::flush's \
    buffers (server.rs)";

/// A put + get flush through `serve_node4`'s server allocates only what it
/// hands out: its one `apply` packs the pairs into the node's own scratch,
/// answers into `execute`'s stack, and its cascade round and report rows
/// allocate nothing.
#[test]
fn a_two_op_flush_over_four_gpus_stays_within_two() {
    if !default_environment() {
        return;
    }
    let mut server = serve_node4();
    let mut flush = |value: u32, at: f64| {
        allocations(|| {
            let put = server.submit_at(0, Op::Put { key: 7, value }, at);
            let get = server.submit_at(1, Op::Get { key: 11 }, at + 1e-6);
            assert!(put.outcome.is_ok() && get.outcome.is_ok());
            server.flush().expect("healthy node")
        })
    };
    // the first flush also pays what lives as long as the server does
    let (_, warm_up) = flush(1, 0.0);
    assert_eq!(warm_up.len(), 2);
    let (allocs, done) = flush(2, 1e-3);
    assert_eq!(done.len(), 2);
    assert!(
        allocs <= HANDED_OUT,
        "{allocs} allocations for a put + get flush, {HANDED_OUT} before: {FLUSH_SITES} went \
         back to allocating"
    );
}

/// Launches the devices of `server`'s node have made.
fn launches(server: &Server<DistributedHashMap>) -> u64 {
    let maps = server.backend().maps().iter();
    maps.map(|map| map.device().lifetime_stats().launches).sum()
}

/// A put + get + delete flush allocates no more: the erases are a segment
/// of the flush's one round, their hits come home as found bits into
/// `execute`'s hits, and the round's rows fit the report inline. Nor does
/// it launch more: with no key both read and written, the round is a
/// split and a node launch of kernel and scatter on each GPU — 8
/// launches, what the same flush without its deletes makes.
#[test]
fn a_put_get_delete_flush_over_four_gpus_stays_within_two() {
    if !default_environment() {
        return;
    }
    let mut server = serve_node4();
    // 32 puts of new keys and 32 gets of others, then 32 deletes of the
    // previous flush's puts if `deletes`: every GPU holds words of each
    let mut flush = |base: u32, at: f64, deletes: bool| {
        let ops = (0..32u32).flat_map(|i| {
            let put = Op::Put { key: base + i, value: i };
            let get = Op::Get { key: 1_000_000 + i };
            let delete = Op::Delete { key: base - 1_000 + i };
            [Some(put), Some(get), deletes.then_some(delete)].into_iter().flatten()
        });
        let ops: Vec<Op> = ops.collect();
        let before = launches(&server);
        let (allocs, done) = allocations(|| {
            for (i, &op) in ops.iter().enumerate() {
                let submitted = server.submit_at(0, op, at + i as f64 * 1e-7);
                assert!(submitted.outcome.is_ok());
            }
            server.flush().expect("healthy node")
        });
        assert_eq!(done.len(), ops.len());
        let hits = done.iter().filter(|c| c.response == Response::Delete { hit: true });
        (allocs, hits.count(), launches(&server) - before)
    };
    let (_, _, without) = flush(1_000, 0.0, false);
    assert_eq!(without, 8, "a put + get flush: a split and a node launch a GPU");
    // the warm-up grows the server's buffers to the flush's size
    flush(2_000, 1e-3, true);
    let (allocs, hits, with) = flush(3_000, 2e-3, true);
    assert_eq!(hits, 32, "the deletes of the previous flush's puts hit");
    assert_eq!(with, without, "the deletes ride the put + get round");
    assert!(
        allocs <= HANDED_OUT,
        "{allocs} allocations for a put + get + delete flush, {HANDED_OUT} before: the \
         erases' hits (cascade.rs Scatter's found bits), {FLUSH_SITES} went back to \
         allocating"
    );
}

/// A flush that reads the keys it writes, and one that reads the keys it
/// deletes, are one round as a put + get flush is: a key both read and
/// written is an upsert group of the one launch, a key read and deleted a
/// take group — a split and a node launch of kernel and scatter a GPU, 8
/// launches. Nor do
/// they allocate more: the sections cut out of the flush's lists go into
/// the node's own scratch.
#[test]
fn a_flush_of_keys_read_and_written_or_deleted_stays_within_two() {
    if !default_environment() {
        return;
    }
    let mut server = serve_node4();
    // a get of each of 64 keys, then a put of it, or a delete of it: every
    // GPU holds words of the flush's one section
    let mut flush = |base: u32, at: f64, delete: bool| {
        let ops = (0..64u32).flat_map(|i| {
            let key = base + i;
            let write = if delete { Op::Delete { key } } else { Op::Put { key, value: i } };
            [Op::Get { key }, write]
        });
        let ops: Vec<Op> = ops.collect();
        let before = launches(&server);
        let (allocs, done) = allocations(|| {
            for (i, &op) in ops.iter().enumerate() {
                assert!(server.submit_at(0, op, at + i as f64 * 1e-7).outcome.is_ok());
            }
            server.flush().expect("healthy node")
        });
        assert_eq!(done.len(), ops.len());
        let hits = done.iter().filter(|c| c.response == Response::Delete { hit: true });
        (allocs, hits.count(), launches(&server) - before)
    };
    // the first flush of each kind grows the server's buffers and the
    // node's scratch to the flushes' size; the puts make the keys the
    // deletes take, and the measured put flush writes keys the server
    // already holds, so that its admission model does not grow
    for (base, at, delete, measured) in [
        (1_000, 0.0, false, false),
        (1_000, 1e-3, false, true),
        (2_000, 2e-3, false, false),
        (1_000, 3e-3, true, false),
        (2_000, 4e-3, true, true),
    ] {
        let why = if delete { "delete" } else { "put" };
        let (allocs, hits, launched) = flush(base, at, delete);
        assert_eq!(launched, 8, "a get + {why} flush of the same keys");
        assert_eq!(hits, if delete { 64 } else { 0 }, "the takes hit what the upserts put");
        if measured {
            assert!(
                allocs <= HANDED_OUT,
                "{allocs} allocations for a get + {why} flush of the same keys, {HANDED_OUT} \
                 before: {FLUSH_SITES} went back to allocating"
            );
        }
    }
}

/// The same put + get flush, run by the next arrival's `submit_at` at the
/// put's deadline, allocates no more: the submission hands back the flush's
/// completions, it does not copy them into a list of its own.
#[test]
fn a_delay_flush_in_a_submission_stays_within_two() {
    if !default_environment() {
        return;
    }
    let submit = |server: &mut Server<DistributedHashMap>, value: u32, at: f64| {
        allocations(|| {
            let put = server.submit_at(0, Op::Put { key: 7, value }, at);
            let get = server.submit_at(1, Op::Get { key: 11 }, at + 1e-6);
            assert!(put.outcome.is_ok() && get.outcome.is_ok());
            // long after the put's deadline: the delay flush runs first
            server.submit_at(0, Op::Get { key: 7 }, at + 1e-3)
        })
    };
    let mut server = serve_node4();
    let (_, warm_up) = submit(&mut server, 1, 0.0);
    assert_eq!(warm_up.completions.len(), 2);
    // the last get leaves at its deadline, before the measured flush
    assert_eq!(server.advance_to(1e-2).expect("healthy node").0.len(), 1);
    let (allocs, sub) = submit(&mut server, 2, 1e-2);
    assert_eq!(sub.completions.len(), 2);
    let flush = sub.flush.expect("a delay flush");
    assert_eq!(flush.cause, wd_serve::FlushCause::Delay);
    assert_eq!(flush.start, 1e-2 + 5e-5);
    assert!(
        allocs <= HANDED_OUT,
        "{allocs} allocations for a submission that ran a put + get delay flush, \
         {HANDED_OUT} before: Server::submit_at went back to copying the flush's completions \
         (server.rs), or {FLUSH_SITES} went back to allocating"
    );
}

/// A 128-op call on one GPU allocates its responses alone: its sort keys,
/// lists and answers fit `execute`'s stack, the fused launch stages its
/// words as it makes them and hands its answers out as it reads them back.
#[test]
fn a_128_op_call_on_one_gpu_stays_within_three() {
    if !default_environment() {
        return;
    }
    let dev = Arc::new(Device::with_words(0, 1 << 16));
    let mut map = GpuHashMap::new(dev, 1 << 12, Config::default()).expect("map");
    // 50 / 50 over distinct keys: one fused get + upsert launch
    let ops: Vec<Op> = (0..128u32)
        .map(|i| match i % 2 {
            0 => Op::Get { key: i + 1 },
            _ => Op::Put {
                key: i + 1,
                value: i,
            },
        })
        .collect();
    map.execute(&ops).expect("warm-up");
    let (allocs, out) = allocations(|| map.execute(&ops).expect("healthy map"));
    assert_eq!(out.0.len(), 128);
    assert_eq!(out.1.launches, 1);
    assert!(
        allocs <= 3,
        "{allocs} allocations for a 128-op call, 3 allowed and 1 made: MapService::execute's \
         sort keys, lists or answers (service.rs: on the stack up to INLINE_OPS ops) or \
         Table::apply's staged or read-back words (table.rs) went back to allocating"
    );
}

/// A 128-op put/get/delete call on one GPU is one launch of the kernel's
/// get, put and erase sections, and allocates what the put/get call does.
#[test]
fn a_128_op_put_get_delete_call_on_one_gpu_is_one_launch() {
    if !default_environment() {
        return;
    }
    let dev = Arc::new(Device::with_words(0, 1 << 16));
    let mut map = GpuHashMap::new(dev, 1 << 12, Config::default()).expect("map");
    let preload: Vec<(u32, u32)> = (1..=128u32).map(|k| (k, k)).collect();
    map.put_batch(&preload).expect("preload");
    // a third each over distinct keys: a get, a put, a delete of a
    // preloaded key
    let ops: Vec<Op> = (0..128u32)
        .map(|i| match i % 3 {
            0 => Op::Get { key: i + 1 },
            1 => Op::Put {
                key: i + 1,
                value: i,
            },
            _ => Op::Delete { key: i + 1 },
        })
        .collect();
    map.execute(&ops).expect("warm-up");
    let (allocs, out) = allocations(|| map.execute(&ops).expect("healthy map"));
    assert_eq!(out.0.len(), 128);
    assert_eq!(out.1.launches, 1);
    let missed = |r: &&Response| matches!(r, Response::Delete { hit: false });
    assert_eq!(out.0.iter().filter(missed).count(), 42, "the warm-up erased them");
    assert!(
        allocs <= 3,
        "{allocs} allocations for a 128-op put/get/delete call, 3 allowed and 1 made: \
         MapService::execute (service.rs) or Table::apply (table.rs) went back to allocating"
    );
}

/// Calls of [`a_16_op_call_mid_migration_borrows_its_ascending_lists`],
/// each a chunk step of the migration.
const MIGRATING_CALLS: u32 = 16;

/// Allocations of [`MIGRATING_CALLS`] calls through `MapService::apply` on
/// a policy-armed map mid-migration, after a warm-up call: 512 keys growing
/// out of 1 024 slots, 32 slots a chunk step, so the migration outlasts
/// them. Call `c` reads (`put` false) or writes the 16 distinct keys from
/// `16c + 1` up, in ascending order as `execute` sends them.
fn migrating_calls(put: bool) -> u64 {
    let dev = Arc::new(Device::with_words(0, 1 << 16));
    let mut map = GpuHashMap::new(dev, 1 << 10, Config::default()).expect("map");
    let pairs: Vec<(u32, u32)> = (1..=512u32).map(|k| (k, k)).collect();
    map.put_batch(&pairs).expect("preload");
    map.set_resize_policy(Some(ResizePolicy::default().with_chunk(32)));
    assert!(map.request_grow().expect("room for the target"));
    let mut values = [None; 16];
    let mut call = |c: u32| {
        let keys: [u32; 16] = std::array::from_fn(|i| 16 * c + 1 + i as u32);
        let pairs = keys.map(|k| (k, c));
        let done = match put {
            false => map.apply(&keys, &[], &[], &mut values, &mut []),
            true => map.apply(&[], &pairs, &[], &mut [], &mut []),
        };
        done.expect("healthy map");
    };
    call(0);
    let (allocs, ()) = allocations(|| (1..=MIGRATING_CALLS).for_each(&mut call));
    assert!(map.resize_state() != ResizeState::Stable, "the migration outlasts the calls");
    allocs
}

/// A 16-key get and a 16-pair put through `MapService::apply` on a map
/// mid-migration: a chunk step and a launch on each table, whose lists
/// `migrating_apply` borrows when they are already distinct and ascending.
#[test]
fn a_16_op_call_mid_migration_borrows_its_ascending_lists() {
    if !default_environment() {
        return;
    }
    for (op, put, budget) in [("get", false, 142), ("put", true, 166)] {
        let allocs = migrating_calls(put);
        assert!(
            allocs <= budget,
            "{allocs} allocations for {MIGRATING_CALLS} 16-key {op} calls mid-migration, \
             {budget} allowed and made: migrating_apply (resize.rs) went back to sorting a copy \
             of a list that is already ascending (`ascending`, `ascending_pairs`), or its chunk \
             step (`advance`) or combine to allocating more"
        );
    }
}

/// Entries of the caches of [`a_cached_call_allocates_only_its_responses`].
const CACHED: u32 = 64;

/// Runs 128-op calls through a cache of [`CACHED`] entries over a backend
/// `make` builds, reading 4 × [`CACHED`] keys and every 20th op a put of
/// the (hot) key read just before it: each call hits, misses, admits,
/// evicts and updates a cached value in place. Past the warm-up, which
/// fills the cache, each call allocates its responses alone.
fn a_cached_call_allocates_once<S: MapService>(make: impl Fn() -> S, what: &str) {
    let keys = 4 * CACHED;
    let pairs: Vec<(u32, u32)> = (1..=keys).map(|k| (k, k)).collect();
    for policy in [CachePolicy::Lru, CachePolicy::Lfu] {
        let mut cache = CachedMap::new(make(), CACHED as usize, policy);
        cache.put_batch(&pairs).expect("preload");
        let call = |c: u32| -> Vec<Op> {
            let key = |i: u32| {
                let h = (c * 128 + i).wrapping_mul(0x9e37_79b1) >> 8;
                // three reads in four go to a hot quarter of the entries
                1 + h % if i.is_multiple_of(4) { keys } else { CACHED / 4 }
            };
            (0..128u32)
                .map(|i| match i % 20 {
                    19 => Op::Put { key: key(i - 1), value: c },
                    _ => Op::Get { key: key(i) },
                })
                .collect()
        };
        for c in 0..32 {
            cache.execute(&call(c)).expect("warm-up");
        }
        assert_eq!(cache.cached_len(), CACHED as usize);
        for c in 32..48 {
            let ops = call(c);
            let before = cache.stats();
            let (allocs, out) = allocations(|| cache.execute(&ops).expect("healthy backend"));
            assert_eq!(out.0.len(), 128);
            let after = cache.stats();
            for (counter, moved) in [
                ("hits", after.hits > before.hits),
                ("misses", after.misses > before.misses),
                ("admissions", after.admissions > before.admissions),
                ("evictions", after.evictions > before.evictions),
                ("write_updates", after.write_updates > before.write_updates),
            ] {
                assert!(moved, "{what} {}: call {c} left {counter} unmoved", policy.label());
            }
            assert_eq!(
                allocs,
                1,
                "{allocs} allocations for a 128-op call through a filled {} cache over {what}, 1 \
                 made (the responses): the cache's shadow (core/src/cache.rs Shadow: its slab, \
                 runs and index grow only until the cache fills), its misses' scratch \
                 (cache.rs Misses), MapService::execute (service.rs) or the backend's apply \
                 went back to allocating",
                policy.label()
            );
        }
    }
}

#[test]
fn a_cached_call_allocates_only_its_responses() {
    if !default_environment() {
        return;
    }
    let one_gpu = || {
        let dev = Arc::new(Device::with_words(0, 1 << 16));
        GpuHashMap::new(dev, 1 << 12, Config::default()).expect("map")
    };
    a_cached_call_allocates_once(one_gpu, "a GpuHashMap");
    a_cached_call_allocates_once(fig6_node, "the Fig. 6 node");
}

/// Runs the pool at two workers, as the benchmark's host pass does. Only
/// the tests of a large call set it, and always to [`WORKERS`]: a launch
/// of at most 1 024 groups, all the others make, does not read it.
fn two_workers() {
    std::env::set_var("RAYON_NUM_THREADS", WORKERS);
}

#[test]
fn a_pool_launch_allocates_nothing_after_warm_up() {
    if !default_environment() {
        return;
    }
    two_workers();
    let dev = Device::with_words(0, 1 << 10);
    let opts = LaunchOptions::default().with_schedule(Schedule::Pool);
    let launch = || dev.launch("noop", 4096, GroupSize::WARP, opts, |_| {});
    launch(); // spawns the pool's worker
    let (read, _) = allocations(|| std::env::var("RAYON_NUM_THREADS"));
    let (allocs, stats) = allocations(launch);
    assert_eq!(stats.counters.groups, 4096);
    assert_eq!(
        allocs, read,
        "a 4 096-group pool launch allocated past reading RAYON_NUM_THREADS: the launch's \
         counter set (gpu-sim device.rs, one `KernelCounters` on the launch's stack) or the \
         pool (shims/rayon `run`) regressed"
    );
}

/// The pool is warm, the thread is not: a launch keeps no counters on the
/// thread that makes it, so its first launch costs what every later one
/// does.
#[test]
fn a_new_threads_first_pool_launch_allocates_nothing() {
    if !default_environment() {
        return;
    }
    two_workers();
    let dev = Device::with_words(0, 1 << 10);
    let opts = LaunchOptions::default().with_schedule(Schedule::Pool);
    let launch = || dev.launch("noop", 4096, GroupSize::WARP, opts, |_| {});
    launch(); // spawns the pool's worker
    let (allocs, read, stats) = std::thread::scope(|scope| {
        let fresh = scope.spawn(|| {
            let (allocs, stats) = allocations(launch);
            let (read, _) = allocations(|| std::env::var("RAYON_NUM_THREADS"));
            (allocs, read, stats)
        });
        fresh.join().expect("fresh thread")
    });
    assert_eq!(stats.counters.groups, 4096);
    assert_eq!(
        allocs, read,
        "the first 4 096-group pool launch of a new thread allocated past reading \
         RAYON_NUM_THREADS: the launch's counter set went back to living on the thread \
         (gpu-sim device.rs) or the pool (shims/rayon `run`) regressed"
    );
}

/// A node's put larger than the node's held scratch borrows the caller's
/// pairs and packs them as they upload: a put of 2^16 pairs allocates
/// fewer bytes than the pairs occupy — its report, not a packed copy of
/// its pairs.
#[test]
fn a_node_put_allocates_fewer_bytes_than_its_pairs() {
    if !default_environment() {
        return;
    }
    two_workers();
    let devices: Vec<Arc<Device>> = (0..4)
        .map(|i| Arc::new(Device::with_words(i, 1 << 19)))
        .collect();
    let mut node =
        DistributedHashMap::new(devices, 1 << 15, Config::default(), Topology::p100_quad(4))
            .expect("node");
    let pairs: Vec<(u32, u32)> = (0..1 << 16).map(|i| (i * 3 + 1, i)).collect();
    node.put_batch(&pairs[..1 << 12]).expect("healthy node"); // spawns the pool's workers
    let before = BYTES.with(Cell::get);
    node.put_batch(&pairs).expect("healthy node");
    let bytes = BYTES.with(Cell::get) - before;
    assert!(
        bytes < std::mem::size_of_val(&pairs[..]) as u64,
        "a put of {} pairs allocated {bytes} bytes: a packed copy of its pairs is back \
         (host_ops.rs `apply_into`; cascade.rs `multisplit_phase` packs pairs as they upload)",
        pairs.len()
    );
}

/// Keys of `bulk_node4`'s put and get.
const BULK_KEYS: usize = 1 << 20;

/// `bulk_node4`'s node: 4 GPUs at load factor 0.9, with room for a call of
/// [`BULK_KEYS`] in one chunk.
fn bulk_node() -> DistributedHashMap {
    let per_gpu = (BULK_KEYS * 10).div_ceil(9).div_ceil(4);
    let words = per_gpu + 8 * (BULK_KEYS / 4) + 4096;
    let devices: Vec<Arc<Device>> = (0..4)
        .map(|i| Arc::new(Device::with_words(i, words)))
        .collect();
    DistributedHashMap::new(devices, per_gpu, Config::default(), Topology::p100_quad(4))
        .expect("bulk node")
}

/// What an overlapped call allocates past the same call in one chunk,
/// besides its schedule: its rows, which a call in one chunk keeps in the
/// report, the chunks' runs of them, and the report's record of the
/// overlap.
const OVERLAY: u64 = 3;

/// [`allocations`] of `call`, and how many of them were the pool's reads of
/// [`WORKERS`].
fn measure(call: impl FnOnce() -> OpReport) -> (u64, u64, OpReport) {
    let reads = WORKER_READS.with(Cell::get);
    let (allocs, report) = allocations(call);
    (allocs, WORKER_READS.with(Cell::get) - reads, report)
}

/// `bulk_node4`'s put, get and delete — 2^20, 2^20 and 2^18 keys, cut into
/// as many chunks as the planner picks — allocate what a call the bracket
/// leaves in one chunk (2^16 keys) does, past the overlay; a put and a get
/// cut into 8 chunks by a `Cut` allocate the same. A chunk's cascade round
/// allocates nothing, and a call reads `RAYON_NUM_THREADS` once, however
/// many pool launches its chunks make.
#[test]
fn a_call_allocates_the_same_whatever_its_cut() {
    if !default_environment() {
        return;
    }
    two_workers();
    const N: usize = BULK_KEYS;
    const ONE: usize = 1 << 16;
    let pairs: Vec<(u32, u32)> = (0..N as u32).map(|i| (i * 3 + 1, i)).collect();
    let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
    let eight = Cut::new(N / 8, 8);
    // a warm-up call on another node spawns the pool's workers
    bulk_node().put_batch(&pairs[..ONE]).expect("healthy node");
    let (mut one_node, mut eight_node, mut node) = (bulk_node(), bulk_node(), bulk_node());
    let calls = [
        (
            "put",
            measure(|| one_node.put_batch(&pairs[..ONE]).unwrap().report),
            measure(|| node.put_batch(&pairs).unwrap().report),
            Some(measure(|| {
                let put = eight_node.apply_in_chunks(&[], &pairs, &[], &mut [], &mut [], eight);
                put.unwrap().report
            })),
        ),
        (
            "get",
            measure(|| node.get_batch(&keys[..ONE]).unwrap().report),
            measure(|| node.get_batch(&keys).unwrap().report),
            Some(measure(|| {
                let mut values = vec![None; N];
                let get = node.apply_in_chunks(&keys, &[], &[], &mut values, &mut [], eight);
                get.unwrap().report
            })),
        ),
        (
            "delete",
            measure(|| one_node.delete_batch(&keys[..ONE]).unwrap().report),
            measure(|| node.delete_batch(&keys[..N / 4]).unwrap().report),
            None,
        ),
    ];
    for (op, (one, one_reads, one_report), planned, fixed) in calls {
        assert!(one_report.overlaps.is_empty(), "{op}");
        assert_eq!(one_reads, 1, "{op} in one chunk: one read of RAYON_NUM_THREADS");
        for (chunked, reads, report) in [Some(planned), fixed].into_iter().flatten() {
            let overlap = &report.overlaps[0];
            let chunks = overlap.chunks.len();
            assert!(chunks > 1, "{op}");
            assert_eq!(reads, 1, "a {op} in {chunks} chunks read RAYON_NUM_THREADS {reads} times");
            let (schedule, _) =
                allocations(|| overlap.schedule(&report.stages, 1.0, overlap.streams));
            assert_eq!(
                chunked,
                one + OVERLAY + schedule,
                "a {op} in {chunks} chunks allocated {chunked} times, in one chunk \
                 {one}: its overlay is {OVERLAY} + {schedule} (host_ops.rs `in_chunks`, \
                 `Overlap::schedule`, stats.rs `StageRows`) — or the planner (host_ops.rs \
                 `Planner`), a chunk's \
                 bracket (host_ops.rs `host_bracket`) or cascade round (cascade.rs `round` \
                 and its erase flags, `SplitPhase`, `transpose_move`; multisplit's \
                 `SegmentedSplit`) went back to allocating, or the call's launches to \
                 reading RAYON_NUM_THREADS one each (rayon `with_num_threads_held`)"
            );
        }
    }
}
