//! Heap allocations of a pool call. A binary of its own, with one test,
//! because it installs a counting `#[global_allocator]` that counts every
//! thread's calls: the workers' too.

use rayon::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// `alloc` + `alloc_zeroed` + `realloc` calls of every thread.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Forwards to [`System`] and counts.
struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
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

/// Allocations any thread makes while `region` runs.
fn allocations(region: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Relaxed);
    region();
    ALLOCS.load(Relaxed) - before
}

/// A `for_each` over 4 096 items, the shape of a launch's chunks.
fn call() {
    let sum = AtomicU64::new(0);
    (0u64..4096).into_par_iter().for_each(|i| {
        sum.fetch_add(i, Relaxed);
    });
    assert_eq!(sum.load(Relaxed), 4095 * 4096 / 2);
}

/// Once the workers a call needs are spawned, a call allocates nothing but
/// what `std::env::var` needs to read `RAYON_NUM_THREADS`: nothing while
/// it is unset, a copy of its value while it is set — and calls one after
/// the other inside `with_num_threads_held` read it once between them.
#[test]
fn a_call_allocates_nothing_after_warm_up() {
    std::env::remove_var("RAYON_NUM_THREADS");
    call(); // warm-up: spawns the workers
    for _ in 0..3 {
        assert_eq!(allocations(call), 0, "RAYON_NUM_THREADS unset");
    }
    std::env::set_var("RAYON_NUM_THREADS", "2");
    call();
    let read = allocations(|| drop(std::env::var("RAYON_NUM_THREADS")));
    assert_eq!(rayon::current_num_threads(), 2);
    for _ in 0..3 {
        assert_eq!(allocations(call), read, "RAYON_NUM_THREADS=2");
    }
    let held = allocations(|| rayon::with_num_threads_held(|| (0..3).for_each(|_| call())));
    assert_eq!(held, read, "three held calls");
}
