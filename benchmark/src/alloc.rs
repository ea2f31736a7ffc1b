//! A counting global allocator: every `alloc`, `alloc_zeroed` and `realloc`
//! bumps a call counter and a requested-bytes counter, then forwards to the
//! system allocator. The benchmark binary installs it with
//! `#[global_allocator]`; a timed region's cost is the difference of two
//! [`snapshot`]s, so threads the library spawns inside the region count too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Forwards to [`System`] and counts.
pub struct CountingAlloc;

/// Allocation calls and bytes requested since the process started.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// `alloc` + `alloc_zeroed` + `realloc` calls.
    pub calls: u64,
    /// Bytes those calls asked for (a `realloc` counts its new size).
    pub bytes: u64,
}

impl AllocSnapshot {
    /// What was allocated between `earlier` and `self`.
    #[must_use]
    pub fn since(self, earlier: AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            calls: self.calls - earlier.calls,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// Reads both counters. They are statistics, so `Relaxed` is enough: the
/// benchmark reads them only while the library is idle.
#[must_use]
pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot {
        calls: CALLS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    }
}

fn count(size: usize) {
    CALLS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr`, `layout` and `new_size` come straight from the caller.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Pins glibc's two self-adjusting `malloc` thresholds at 1 MiB.
///
/// Left alone, glibc raises its mmap threshold (and with it the trim
/// threshold) to the size of the last big block freed, up to 32 MiB. Whether
/// a repetition's 19 MiB device memory is then a fresh mapping or retained
/// heap depends on the process's allocation history and even on the size of
/// its environment: identical runs of `bulk_node4` read a set-up time of
/// 0.024 s or 0.055 s, and `bulk_1gpu` a peak RSS of 103 or 124 MiB. Pinned,
/// every block of 1 MiB or more is a mapping of its own, returned to the
/// system when freed, in every repetition of every run: set-up always pays
/// the page faults of fresh device memory, and `VmHWM` is the largest live
/// set rather than the sum of what successive phases touched. Changes no
/// allocation count.
pub fn pin_malloc_thresholds() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        use std::ffi::c_int;
        extern "C" {
            fn mallopt(param: c_int, value: c_int) -> c_int;
        }
        const M_TRIM_THRESHOLD: c_int = -1;
        const M_MMAP_THRESHOLD: c_int = -3;
        const ONE_MIB: c_int = 1 << 20;
        // SAFETY: `mallopt` only stores two integers in malloc's own state;
        // it is called before any other thread exists.
        let accepted = unsafe {
            mallopt(M_MMAP_THRESHOLD, ONE_MIB) == 1 && mallopt(M_TRIM_THRESHOLD, ONE_MIB) == 1
        };
        assert!(accepted, "glibc refused the malloc thresholds");
    }
}
