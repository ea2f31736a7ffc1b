//! Heap-allocation budgets of the three paths a small batch pays for — a
//! kernel launch, a serving flush through the 4-GPU cascade, and a
//! front-door call on one GPU — and of the two a large one adds: a launch
//! on the rayon shim's pool, and a host-sided call the bracket cuts into
//! overlapping chunks.
//!
//! A binary of its own, because it installs a counting
//! `#[global_allocator]`. The count is per thread — every `#[test]` runs
//! on its own, so tests running side by side do not bleed into each other
//! — which is also its limit: it sees what the calling thread allocates,
//! not the pool's workers (`shims/rayon/tests/alloc.rs` counts those).

use gpu_sim::{Device, GroupSize, LaunchOptions, Schedule};
use interconnect::Topology;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use warpdrive::{Config, DistributedHashMap, GpuHashMap, MapService, Op, OpReport};
use wd_serve::{ServeConfig, Server};

thread_local! {
    /// `alloc` + `alloc_zeroed` + `realloc` calls of this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to [`System`] and counts the calling thread's calls.
struct CountingAlloc;

fn count() {
    // a thread that is tearing down its locals allocates uncounted
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain thread-local
// cell without destructor and touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
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

#[test]
fn a_two_op_flush_over_four_gpus_stays_within_thirty() {
    if !default_environment() {
        return;
    }
    let devices: Vec<Arc<Device>> = (0..4)
        .map(|i| Arc::new(Device::with_words(i, 1 << 18)))
        .collect();
    let node = DistributedHashMap::new(devices, 1 << 14, Config::default(), Topology::p100_quad(4))
        .expect("serve node");
    // the benchmark's `serve_node4`
    let config = ServeConfig::default()
        .with_max_batch(512)
        .with_max_delay(5e-5)
        .with_tenant_quota(1 << 13);
    let mut server = Server::new(node, config);
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
    assert!(allocs <= 30, "{allocs} allocations for a put + get flush");
}

#[test]
fn a_128_op_call_on_one_gpu_stays_within_seven() {
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
    assert!(allocs <= 7, "{allocs} allocations for a 128-op call");
}

/// Runs the pool at two workers, as the benchmark's host pass does. Only
/// the tests of a large call set it, and always to 2: a launch of at most
/// 1 024 groups, all the others make, does not read it.
fn two_workers() {
    std::env::set_var("RAYON_NUM_THREADS", "2");
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
    launch(); // spawns the pool's worker and the thread's counter stripes
    let (read, _) = allocations(|| std::env::var("RAYON_NUM_THREADS"));
    let (allocs, stats) = allocations(launch);
    assert_eq!(stats.counters.groups, 4096);
    assert_eq!(
        allocs, read,
        "a 4 096-group pool launch allocated past reading RAYON_NUM_THREADS: the counter \
         stripes (gpu-sim device.rs `striped`) or the pool (shims/rayon `run`) regressed"
    );
}

/// What a host-sided put of 2^20 pairs on `bulk_node4`'s node may allocate
/// past the same put in one chunk: each of the three more chunks' bracket
/// and cascade round (10), the overlay of the four chunks (13: the rows, the
/// chunks and their schedule), and a read of `RAYON_NUM_THREADS` for each
/// of the 12 more launches that run on the pool.
const CHUNKED_PUT_BUDGET: u64 = 3 * 10 + 13 + 12;

#[test]
fn a_chunked_put_stays_within_its_budget_over_one_chunk() {
    if !default_environment() {
        return;
    }
    two_workers();
    const N: usize = 1 << 20;
    let pairs: Vec<(u32, u32)> = (0..N as u32).map(|i| (i * 3 + 1, i)).collect();
    // the benchmark's `bulk_node4`: 4 GPUs at load factor 0.9
    let per_gpu = (N * 10).div_ceil(9).div_ceil(4);
    let put = |chunked: bool| -> (u64, OpReport) {
        let devices: Vec<Arc<Device>> = (0..4)
            .map(|i| Arc::new(Device::with_words(i, per_gpu + 8 * (N / 4) + 4096)))
            .collect();
        let topology = Topology::p100_quad(4);
        let node = DistributedHashMap::new(devices, per_gpu, Config::default(), topology)
            .expect("bulk node");
        let (allocs, report) = allocations(|| {
            if chunked {
                node.insert_from_host(&pairs)
            } else {
                node.insert_overlapped(&pairs, N, 1)
            }
        });
        (allocs, report.expect("healthy node"))
    };
    put(true); // warm-up
    let (one, one_report) = put(false);
    let (chunked, report) = put(true);
    assert!(one_report.overlaps.is_empty());
    assert_eq!(report.overlaps[0].chunks.len(), 4);
    assert!(
        chunked <= one + CHUNKED_PUT_BUDGET,
        "{chunked} allocations for a put in 4 chunks, {one} in one: more than \
         {CHUNKED_PUT_BUDGET} more — host_ops.rs `in_chunks` and `host_bracket`, or \
         cascade.rs's round, went back to allocating per chunk"
    );
}
