//! Simulated device global memory.
//!
//! Global memory is a flat array of [`AtomicU64`] words, mirroring the
//! 64-bit word granularity the paper's hash map relies on (CUDA atomics
//! are limited to 64-bit words, §II, so key-value pairs are packed AOS
//! into one word). Two allocators share the pool:
//!
//! * a **bump allocator** growing from the bottom for long-lived
//!   structures (the hash table, distributed double buffers) — no free,
//!   like a `cudaMalloc` arena held for the experiment's lifetime;
//! * a **scratch stack** growing from the top for per-call staging
//!   buffers (host-API inputs/outputs), released RAII-style via
//!   [`ScratchGuard`] so repeated bulk operations don't leak VRAM.
//!
//! Functional accesses go through [`crate::simt::GroupCtx`] (which
//! performs transaction accounting); the raw accessors here are for
//! host-side setup and verification and are *not* counted.

use crate::sanitizer::{memcheck, DeviceSanitizer, Policy, SanitizerSet};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Error returned when a device allocation exceeds the remaining VRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfMemory {
    /// Words requested by the failing allocation.
    pub requested_words: usize,
    /// Words still available.
    pub available_words: usize,
}

impl std::fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "device out of memory: requested {} words, {} available",
            self.requested_words, self.available_words
        )
    }
}

impl std::error::Error for OutOfMemory {}

/// A handle to a contiguous region of device words.
///
/// Deliberately does not borrow the memory: kernels receive copies and
/// resolve them against the device they run on, like raw device pointers
/// in CUDA (but bounds-checked at access time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DevSlice {
    pub(crate) offset: usize,
    pub(crate) len: usize,
}

impl DevSlice {
    /// Number of 64-bit words in the slice.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the slice is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Size in bytes.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        (self.len as u64) * 8
    }

    /// Sub-slice `[start, start+len)`.
    ///
    /// # Panics
    /// Panics if the range exceeds the slice.
    #[must_use]
    pub fn sub(&self, start: usize, len: usize) -> DevSlice {
        assert!(
            start.checked_add(len).is_some_and(|end| end <= self.len),
            "sub-slice [{start}, {start}+{len}) out of bounds for slice of {} words",
            self.len
        );
        DevSlice {
            offset: self.offset + start,
            len,
        }
    }
}

#[derive(Debug)]
struct AllocState {
    /// First free word above the bump region.
    next_free: usize,
    /// Live scratch allocations (offsets of the descending stack).
    scratch_live: Vec<DevSlice>,
    /// Lowest offset handed to scratch (== pool size when none live).
    scratch_floor: usize,
    /// Device-lifetime scratch arena pinned at the very top of the pool
    /// (see [`DeviceMemory::arena_reserve`]). Unlike the transient stack
    /// it survives [`DeviceMemory::reset`], so sweep loops reuse one
    /// staging buffer across measurement points instead of re-carving
    /// (and re-validating) `3n` words per point.
    arena: Option<DevSlice>,
}

impl AllocState {
    /// Lowest offset transient scratch may fall back to when the stack
    /// empties: the arena's base when one is reserved, else the pool top.
    fn scratch_base(&self, pool_words: usize) -> usize {
        self.arena.map_or(pool_words, |a| a.offset)
    }
}

/// Most dropped memories whose words are kept for a new one: a node's
/// devices.
const KEPT_MEMORIES: usize = 4;

/// Largest memory, in words, whose words are kept once it is dropped.
const KEPT_WORDS: usize = 1 << 20;

/// The words of dropped memories, kept for the next memory of the same
/// size: their pages are resident, so a process that builds its devices
/// again — a benchmark's repetition, a test's next node — zeroes them
/// instead of faulting every page in anew (≈ 2 µs a 4 KiB page).
static KEPT: Mutex<Vec<Box<[AtomicU64]>>> = Mutex::new(Vec::new());

/// Global memory of one simulated device.
#[derive(Debug)]
pub struct DeviceMemory {
    words: Box<[AtomicU64]>,
    state: Mutex<AllocState>,
    /// Bytes the host → device copies moved so far (a statistic).
    uploaded: AtomicU64,
    /// `wd-sanitizer` shadow state, attached at most once (first
    /// attachment wins). `None` — the default — keeps every access path
    /// free of sanitizer work beyond one predictable branch.
    sanitizer: OnceLock<DeviceSanitizer>,
}

impl DeviceMemory {
    /// Allocates a memory pool of `words` 64-bit words, zero-initialised:
    /// the words of a dropped memory of that size if some are kept.
    #[must_use]
    pub fn new(words: usize) -> Self {
        let kept = {
            let mut kept = KEPT.lock();
            let at = kept.iter().position(|pool| pool.len() == words);
            at.map(|at| kept.swap_remove(at))
        };
        let pool = match kept {
            Some(mut pool) => {
                for word in pool.iter_mut() {
                    *word.get_mut() = 0;
                }
                pool
            }
            None => {
                let mut v = Vec::with_capacity(words);
                v.resize_with(words, || AtomicU64::new(0));
                v.into_boxed_slice()
            }
        };
        Self {
            words: pool,
            state: Mutex::new(AllocState {
                next_free: 0,
                // room for the buffers a cascade round holds on a GPU at
                // once, so that staging allocates no host memory
                scratch_live: Vec::with_capacity(8),
                scratch_floor: words,
                arena: None,
            }),
            uploaded: AtomicU64::new(0),
            sanitizer: OnceLock::new(),
        }
    }

    /// Attaches `wd-sanitizer` shadow state (idempotent: the first
    /// attachment wins and later calls return it unchanged).
    /// `assume_valid` marks all existing memory as initialised — used for
    /// lazy per-launch attachment so words written before the sanitizer
    /// existed don't produce initcheck false positives.
    pub(crate) fn attach_sanitizer(
        &self,
        set: SanitizerSet,
        policy: Policy,
        assume_valid: bool,
    ) -> &DeviceSanitizer {
        self.sanitizer
            .get_or_init(|| DeviceSanitizer::new(set, policy, self.words.len(), assume_valid))
    }

    /// The attached sanitizer, if any.
    pub(crate) fn sanitizer(&self) -> Option<&DeviceSanitizer> {
        self.sanitizer.get()
    }

    /// The initcheck valid-bit shadow, when initcheck is attached.
    #[inline]
    fn valid_bits(&self) -> Option<&crate::sanitizer::initcheck::ValidBits> {
        self.sanitizer.get().and_then(DeviceSanitizer::valid)
    }

    /// Words not claimed by either allocator.
    #[must_use]
    pub fn available_words(&self) -> usize {
        let s = self.state.lock();
        s.scratch_floor - s.next_free
    }

    /// Bump-allocates `len` words for the lifetime of the device.
    ///
    /// # Errors
    /// Returns [`OutOfMemory`] if the pool is exhausted. There is no
    /// per-allocation free: experiments allocate long-lived structures up
    /// front, like `cudaMalloc` arenas (use [`DeviceMemory::alloc_scratch`]
    /// for transient staging buffers, or [`DeviceMemory::reset`]).
    pub fn alloc(&self, len: usize) -> Result<DevSlice, OutOfMemory> {
        let mut s = self.state.lock();
        // align to 32-byte sectors (4 words), like cudaMalloc: keeps the
        // transaction accounting of aligned windows exact
        let offset = s.next_free.div_ceil(4) * 4;
        let end = offset.checked_add(len).filter(|&e| e <= s.scratch_floor);
        match end {
            Some(end) => {
                s.next_free = end;
                // freshly allocated words are *undefined* (cudaMalloc
                // returns garbage; the pool's zero bytes don't count)
                if let Some(v) = self.valid_bits() {
                    v.clear_range(offset, len);
                }
                Ok(DevSlice { offset, len })
            }
            None => Err(OutOfMemory {
                requested_words: len,
                available_words: s.scratch_floor.saturating_sub(s.next_free),
            }),
        }
    }

    /// Allocates `len` words from the scratch stack at the top of the
    /// pool; the region is reclaimed when the returned guard drops.
    ///
    /// # Errors
    /// Returns [`OutOfMemory`] when scratch would collide with the bump
    /// region.
    pub fn alloc_scratch(&self, len: usize) -> Result<ScratchGuard<'_>, OutOfMemory> {
        let mut s = self.state.lock();
        let offset = s
            .scratch_floor
            .checked_sub(len)
            .map(|o| o / 4 * 4) // sector alignment, cf. alloc
            .filter(|&o| o >= s.next_free)
            .ok_or(OutOfMemory {
                requested_words: len,
                available_words: s.scratch_floor - s.next_free,
            })?;
        let slice = DevSlice { offset, len };
        s.scratch_live.push(slice);
        s.scratch_floor = offset;
        if let Some(v) = self.valid_bits() {
            v.clear_range(offset, len);
        }
        Ok(ScratchGuard { mem: self, slice })
    }

    /// Reserves a device-lifetime scratch **arena** of at least `len`
    /// words at the top of the pool, or returns the existing reservation
    /// when it is already large enough. The returned slice is valid until
    /// [`DeviceMemory::arena_release`] — in particular it **survives
    /// [`DeviceMemory::reset`]**, which is the point: bench sweeps reserve
    /// one staging buffer, then `reset()` between measurement points
    /// without re-allocating (or tripping the outstanding-scratch panic
    /// that guards transient [`ScratchGuard`]s).
    ///
    /// The words are *undefined* on every reservation (initcheck clears
    /// their valid bits); callers fill what they use, as with
    /// [`DeviceMemory::alloc_scratch`].
    ///
    /// # Errors
    /// Returns [`OutOfMemory`] when the arena would collide with the bump
    /// region.
    ///
    /// # Panics
    /// Panics when growing the arena while transient scratch allocations
    /// are live — the carve would move the floor out from under them.
    pub fn arena_reserve(&self, len: usize) -> Result<DevSlice, OutOfMemory> {
        let mut s = self.state.lock();
        if let Some(a) = s.arena {
            if a.len >= len {
                // Reuse the standing reservation; contents are undefined
                // again for this round of use.
                if let Some(v) = self.valid_bits() {
                    v.clear_range(a.offset, len);
                }
                return Ok(DevSlice {
                    offset: a.offset,
                    len,
                });
            }
        }
        assert!(
            s.scratch_live.is_empty(),
            "DeviceMemory::arena_reserve() growing under {} live transient scratch \
             allocation(s) — reserve the arena before any ScratchGuard",
            s.scratch_live.len()
        );
        let offset = (self.words.len().checked_sub(len))
            .map(|o| o / 4 * 4) // sector alignment, cf. alloc
            .filter(|&o| o >= s.next_free)
            .ok_or(OutOfMemory {
                requested_words: len,
                available_words: self.words.len() - s.next_free,
            })?;
        // The reservation spans [offset, pool top): alignment slack at the
        // top stays inside the arena rather than leaking to the stack.
        let arena = DevSlice {
            offset,
            len: self.words.len() - offset,
        };
        s.arena = Some(arena);
        s.scratch_floor = offset;
        if let Some(v) = self.valid_bits() {
            v.clear_range(arena.offset, arena.len);
        }
        Ok(DevSlice { offset, len })
    }

    /// Releases the arena reservation (no-op when none is held). Any
    /// slices previously returned by [`DeviceMemory::arena_reserve`]
    /// become dangling; initcheck marks the words undefined so stale reads
    /// through them are flagged.
    ///
    /// # Panics
    /// Panics when transient scratch is still stacked on the arena floor.
    pub fn arena_release(&self) {
        let mut s = self.state.lock();
        let Some(a) = s.arena.take() else { return };
        assert!(
            s.scratch_live.is_empty(),
            "DeviceMemory::arena_release() with {} live transient scratch \
             allocation(s) stacked on the arena floor",
            s.scratch_live.len()
        );
        s.scratch_floor = self.words.len();
        if let Some(v) = self.valid_bits() {
            v.clear_range(a.offset, a.len);
        }
    }

    fn release_scratch(&self, slice: DevSlice) {
        let mut s = self.state.lock();
        let pos = s
            .scratch_live
            .iter()
            .position(|l| *l == slice)
            .expect("scratch guard released twice");
        s.scratch_live.swap_remove(pos);
        let base = s.scratch_base(self.words.len());
        s.scratch_floor = s
            .scratch_live
            .iter()
            .map(|l| l.offset)
            .min()
            .unwrap_or(base);
        // released scratch is undefined again: a stale read through a
        // dangling DevSlice into recycled scratch is flagged by initcheck
        if let Some(v) = self.valid_bits() {
            v.clear_range(slice.offset, slice.len);
        }
    }

    /// Resets both allocators, invalidating all outstanding slices
    /// (contents are *not* cleared; callers fill what they allocate).
    /// An arena reservation ([`DeviceMemory::arena_reserve`]) is
    /// deliberately **preserved** — it is the reuse mechanism that lets
    /// sweep loops reset between measurement points.
    ///
    /// # Panics
    /// Panics when scratch allocations are outstanding: resetting under a
    /// live [`ScratchGuard`] would let kernels keep writing through a
    /// slice the allocator has reclaimed, and the guard's eventual drop
    /// would corrupt the fresh allocator state. Drop every guard first.
    pub fn reset(&self) {
        let mut s = self.state.lock();
        assert!(
            s.scratch_live.is_empty(),
            "DeviceMemory::reset() with {} outstanding scratch allocation(s) — \
             drop every ScratchGuard before resetting (wd-sanitizer memcheck)",
            s.scratch_live.len()
        );
        s.next_free = 0;
        s.scratch_floor = s.scratch_base(self.words.len());
    }

    /// Memcheck leak report: scratch allocations still registered (their
    /// [`ScratchGuard`] was leaked with `mem::forget`), when the `mem`
    /// detector is attached. Printed to stderr when the memory drops.
    #[must_use]
    pub fn leak_report(&self) -> Option<String> {
        let san = self.sanitizer.get()?;
        if !san.set().mem() {
            return None;
        }
        let s = self.state.lock();
        if s.scratch_live.is_empty() {
            return None;
        }
        Some(memcheck::leak_message(&s.scratch_live))
    }

    /// Direct word access (host-side / uncounted).
    #[inline]
    pub(crate) fn word(&self, slice: DevSlice, idx: usize) -> &AtomicU64 {
        debug_assert!(
            idx < slice.len,
            "index {idx} out of slice len {}",
            slice.len
        );
        &self.words[slice.offset + idx]
    }

    /// Host → device copy (uncounted; transfer time is modeled by the
    /// `interconnect` crate, not here).
    ///
    /// # Panics
    /// Panics if `data.len() != slice.len()`.
    pub fn h2d(&self, slice: DevSlice, data: &[u64]) {
        self.h2d_from(slice, data.iter().copied());
    }

    /// [`DeviceMemory::h2d`] of the words `words` yields, made as they are
    /// copied: no staging buffer on the host.
    ///
    /// # Panics
    /// Panics if `words.len() != slice.len()`.
    pub fn h2d_from(&self, slice: DevSlice, words: impl ExactSizeIterator<Item = u64>) {
        assert_eq!(words.len(), slice.len, "h2d length mismatch");
        let cells = &self.words[slice.offset..slice.offset + slice.len];
        for (cell, w) in cells.iter().zip(words) {
            cell.store(w, Ordering::Relaxed);
        }
        self.book_upload(slice, slice.len as u64 * 8);
    }

    /// Host → device copy of 32-bit keys as they lie in host memory: two
    /// to a device word, key `2i` the low half of word `i`, the high half
    /// of an odd tail zero. Moves 4 bytes per key — no 64-bit staging copy
    /// on the host (billed to no kernel, like [`DeviceMemory::h2d`]).
    ///
    /// # Panics
    /// Panics if `slice` is not `keys.len().div_ceil(2)` words.
    pub fn h2d_keys(&self, slice: DevSlice, keys: &[u32]) {
        self.h2d_keys_from(slice, keys.iter().copied());
    }

    /// [`DeviceMemory::h2d_keys`] of the keys `keys` yields, packed as they
    /// are copied: no staging buffer on the host.
    ///
    /// # Panics
    /// Panics if `slice` is not `keys.len().div_ceil(2)` words.
    pub fn h2d_keys_from(&self, slice: DevSlice, mut keys: impl ExactSizeIterator<Item = u32>) {
        let n = keys.len();
        assert_eq!(n.div_ceil(2), slice.len, "h2d length mismatch");
        for cell in &self.words[slice.offset..slice.offset + slice.len] {
            let low = u64::from(keys.next().unwrap_or(0));
            let high = u64::from(keys.next().unwrap_or(0)) << 32;
            cell.store(high | low, Ordering::Relaxed);
        }
        self.book_upload(slice, n as u64 * 4);
    }

    /// Books an upload of `bytes` that filled `slice`.
    fn book_upload(&self, slice: DevSlice, bytes: u64) {
        self.uploaded.fetch_add(bytes, Ordering::Relaxed);
        if let Some(v) = self.valid_bits() {
            v.set_range(slice.offset, slice.len);
        }
    }

    /// Bytes [`DeviceMemory::h2d`] and [`DeviceMemory::h2d_keys`] have
    /// moved onto this device: what a report may bill for an upload.
    #[must_use]
    pub fn uploaded_bytes(&self) -> u64 {
        self.uploaded.load(Ordering::Relaxed)
    }

    /// Device → host copy (uncounted).
    #[must_use]
    pub fn d2h(&self, slice: DevSlice) -> Vec<u64> {
        let mut out = vec![0; slice.len];
        self.d2h_into(slice, &mut out);
        out
    }

    /// Device → host copy (uncounted) into a buffer the caller owns.
    ///
    /// # Panics
    /// Panics if `out.len() != slice.len()`.
    pub fn d2h_into(&self, slice: DevSlice, out: &mut [u64]) {
        assert_eq!(out.len(), slice.len, "d2h length mismatch");
        for (w, word) in out.iter_mut().zip(self.d2h_words(slice)) {
            *w = word;
        }
    }

    /// Device → host copy (uncounted) of `slice`'s words, read one by one
    /// as the caller consumes them: no staging buffer on the host.
    pub fn d2h_words(&self, slice: DevSlice) -> impl ExactSizeIterator<Item = u64> + '_ {
        let words = &self.words[slice.offset..slice.offset + slice.len];
        words.iter().map(|w| w.load(Ordering::Relaxed))
    }

    /// Device → device copy of this memory's `src` into `dst` of `peer`,
    /// another device's memory or this one (a raw move between two regions
    /// of one device): the words move without a host copy, uncounted and
    /// booked as no upload — kernels bill their own traffic, and a transfer
    /// between devices is billed by the interconnect model. Initcheck
    /// validity travels with the words; from a device without a shadow
    /// they arrive defined, as from the host. A node's cascade moves its
    /// forward leg this way — the split's chunks to their targets — while
    /// the answers come back inside the round's node launch
    /// ([`crate::GroupCtx::store_peer`]).
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn peer_copy(&self, src: DevSlice, peer: &DeviceMemory, dst: DevSlice) {
        assert_eq!(src.len, dst.len, "peer copy length mismatch");
        let from = &self.words[src.offset..src.offset + src.len];
        let to = &peer.words[dst.offset..dst.offset + dst.len];
        for (to, from) in to.iter().zip(from) {
            to.store(from.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        match (self.valid_bits(), peer.valid_bits()) {
            (Some(from), Some(to)) => to.copy_range(from, src.offset, dst.offset, src.len),
            (None, Some(to)) => to.set_range(dst.offset, dst.len),
            (_, None) => {}
        }
    }

    /// [`DeviceMemory::peer_copy`] of `n` 32-bit halves: from half `from`
    /// of this memory's `src` on to half `to` of `peer`'s `dst` on, half
    /// `h` of a slice the low half of its word `h / 2` for even `h` and
    /// the high half for odd. A half of a word at either end that the copy
    /// does not cover is left as it is, and initcheck validity travels per
    /// half.
    ///
    /// # Panics
    /// Panics if either range runs off its slice.
    pub fn peer_copy_halves(
        &self,
        (src, from): (DevSlice, usize),
        peer: &DeviceMemory,
        (dst, to): (DevSlice, usize),
        n: usize,
    ) {
        assert!(from + n <= 2 * src.len && to + n <= 2 * dst.len, "peer copy out of range");
        let (valid_from, valid_to) = (self.valid_bits(), peer.valid_bits());
        for i in 0..n {
            let (s, d) = (src.offset + (from + i) / 2, dst.offset + (to + i) / 2);
            let (s_high, d_high) = ((from + i) % 2, (to + i) % 2);
            let val = (self.words[s].load(Ordering::Relaxed) >> (32 * s_high)) as u32;
            store_half(&peer.words[d], d_high, val);
            if let Some(valid) = valid_to {
                let defined = valid_from.is_none_or(|v| v.halves(s) >> s_high & 1 == 1);
                if defined {
                    valid.set_halves(d, 1 << d_high);
                }
            }
        }
    }

    /// Fills a slice with a constant word (e.g. the EMPTY sentinel).
    pub fn fill(&self, slice: DevSlice, value: u64) {
        for i in 0..slice.len {
            self.words[slice.offset + i].store(value, Ordering::Relaxed);
        }
        if let Some(v) = self.valid_bits() {
            v.set_range(slice.offset, slice.len);
        }
    }
}

impl Drop for DeviceMemory {
    fn drop(&mut self) {
        let pool = std::mem::take(&mut self.words);
        let mut kept = KEPT.lock();
        if pool.len() <= KEPT_WORDS && kept.len() < KEPT_MEMORIES {
            kept.push(pool);
        }
        drop(kept);
        if std::thread::panicking() {
            return; // don't pile a leak report onto an unwinding failure
        }
        if let Some(msg) = self.leak_report() {
            eprintln!("{msg}");
        }
    }
}

/// Stores `val` into the low (`high == 0`) or the high half of `word`,
/// leaving the other half as it is.
pub(crate) fn store_half(word: &AtomicU64, high: usize, val: u32) {
    let shift = 32 * high;
    let keep = !(0xffff_ffff << shift);
    let _ = word.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |w| {
        Some((w & keep) | (u64::from(val) << shift))
    });
}

/// RAII guard for a scratch allocation (see
/// [`DeviceMemory::alloc_scratch`]).
#[derive(Debug)]
pub struct ScratchGuard<'m> {
    mem: &'m DeviceMemory,
    slice: DevSlice,
}

impl ScratchGuard<'_> {
    /// The allocated region (copy the handle into kernels freely; it must
    /// simply not outlive the guard).
    #[must_use]
    pub fn slice(&self) -> DevSlice {
        self.slice
    }
}

impl Drop for ScratchGuard<'_> {
    fn drop(&mut self) {
        self.mem.release_scratch(self.slice);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_round_trip() {
        let mem = DeviceMemory::new(1024);
        let a = mem.alloc(100).unwrap();
        let b = mem.alloc(200).unwrap();
        assert_eq!(a.len(), 100);
        assert_eq!(b.len(), 200);
        assert_eq!(mem.available_words(), 1024 - 300);

        let data: Vec<u64> = (0..100).collect();
        mem.h2d(a, &data);
        assert_eq!(mem.d2h(a), data);
        // b unaffected
        assert!(mem.d2h(b).iter().all(|&w| w == 0));
    }

    #[test]
    fn keys_go_up_two_to_a_word_and_four_bytes_each() {
        let mem = DeviceMemory::new(16);
        let (even, odd, none) = (
            mem.alloc(2).unwrap(),
            mem.alloc(2).unwrap(),
            mem.alloc(0).unwrap(),
        );
        mem.h2d_keys(even, &[1, 2, 3, u32::MAX]);
        assert_eq!(mem.d2h(even), [2 << 32 | 1, u64::from(u32::MAX) << 32 | 3]);
        mem.h2d_keys(odd, &[7, 8, 9]);
        assert_eq!(mem.d2h(odd), [8 << 32 | 7, 9]);
        mem.h2d_keys(none, &[]);
        assert_eq!(mem.uploaded_bytes(), 4 * (4 + 3));
        mem.h2d(even, &[5, 6]);
        assert_eq!(mem.uploaded_bytes(), 4 * 7 + 8 * 2);
    }

    #[test]
    fn a_memory_of_a_dropped_ones_size_starts_zeroed_and_undefined() {
        use crate::sanitizer::{Policy, SanitizerSet};
        // a size no other test uses, so the words kept are this test's
        const WORDS: usize = 4093;
        let mem = DeviceMemory::new(WORDS);
        let all = mem.alloc(WORDS).unwrap();
        mem.fill(all, u64::MAX);
        drop(mem);
        let mem = DeviceMemory::new(WORDS);
        let san = mem.attach_sanitizer(SanitizerSet::INIT, Policy::Collect, false);
        let all = mem.alloc(WORDS).unwrap();
        assert!(!san.valid().unwrap().is_valid(all.offset));
        assert!(mem.d2h(all).iter().all(|&w| w == 0));
        assert_eq!(mem.available_words(), 0);
    }

    #[test]
    fn alloc_exhaustion_reports_oom() {
        let mem = DeviceMemory::new(16);
        let _ = mem.alloc(10).unwrap();
        let err = mem.alloc(10).unwrap_err();
        assert_eq!(err.requested_words, 10);
        assert_eq!(err.available_words, 6);
        assert!(err.to_string().contains("out of memory"));
    }

    #[test]
    fn reset_reclaims_pool() {
        let mem = DeviceMemory::new(8);
        let _ = mem.alloc(8).unwrap();
        assert!(mem.alloc(1).is_err());
        mem.reset();
        assert!(mem.alloc(8).is_ok());
    }

    #[test]
    fn scratch_reclaims_on_drop() {
        let mem = DeviceMemory::new(100);
        let _persistent = mem.alloc(40).unwrap();
        {
            let s = mem.alloc_scratch(52).unwrap();
            assert_eq!(s.slice().len(), 52);
            assert_eq!(mem.available_words(), 8);
            assert!(mem.alloc_scratch(20).is_err());
        }
        assert_eq!(mem.available_words(), 60);
        let again = mem.alloc_scratch(60).unwrap();
        assert_eq!(again.slice().len(), 60);
    }

    #[test]
    fn scratch_and_bump_collide_safely() {
        let mem = DeviceMemory::new(64);
        let _s = mem.alloc_scratch(32).unwrap();
        assert!(mem.alloc(40).is_err());
        assert!(mem.alloc(32).is_ok());
    }

    #[test]
    fn out_of_order_scratch_release() {
        let mem = DeviceMemory::new(100);
        let a = mem.alloc_scratch(12).unwrap();
        let b = mem.alloc_scratch(12).unwrap();
        drop(a); // floor cannot rise while b is live
        assert_eq!(mem.available_words(), 76);
        drop(b);
        assert_eq!(mem.available_words(), 100);
    }

    #[test]
    fn fill_sets_every_word() {
        let mem = DeviceMemory::new(32);
        let s = mem.alloc(32).unwrap();
        mem.fill(s, u64::MAX);
        assert!(mem.d2h(s).iter().all(|&w| w == u64::MAX));
    }

    #[test]
    fn a_peer_copy_moves_the_words_and_books_no_upload() {
        let (here, there) = (DeviceMemory::new(16), DeviceMemory::new(16));
        let (src, dst) = (here.alloc(4).unwrap(), there.alloc(8).unwrap());
        here.h2d(src, &[1, 2, 3, 4]);
        there.h2d(dst, &[9; 8]);
        let uploaded = (here.uploaded_bytes(), there.uploaded_bytes());
        here.peer_copy(src.sub(1, 3), &there, dst.sub(4, 3));
        assert_eq!(there.d2h(dst), [9, 9, 9, 9, 2, 3, 4, 9]);
        assert_eq!(here.d2h(src), [1, 2, 3, 4]);
        assert_eq!((here.uploaded_bytes(), there.uploaded_bytes()), uploaded);
        // onto its own memory it copies between two regions
        here.peer_copy(src.sub(0, 2), &here, src.sub(2, 2));
        assert_eq!(here.d2h(src), [1, 2, 1, 2]);
    }

    #[test]
    fn a_peer_copy_carries_initcheck_validity() {
        use crate::sanitizer::{Policy, SanitizerSet};
        let (here, there) = (DeviceMemory::new(64), DeviceMemory::new(64));
        let from = here.attach_sanitizer(SanitizerSet::INIT, Policy::Collect, false);
        let to = there.attach_sanitizer(SanitizerSet::INIT, Policy::Collect, false);
        let (from, to) = (from.valid().unwrap(), to.valid().unwrap());
        let (src, dst) = (here.alloc(4).unwrap(), there.alloc(4).unwrap());
        here.h2d(src.sub(0, 2), &[1, 2]);
        there.fill(dst, 0);
        here.peer_copy(src, &there, dst);
        let valid = |slice: DevSlice| -> Vec<bool> {
            (0..slice.len)
                .map(|i| to.is_valid(slice.offset + i))
                .collect()
        };
        assert_eq!(
            valid(dst),
            [true, true, false, false],
            "an undefined word stays undefined"
        );
        assert!(from.is_valid(src.offset) && !from.is_valid(src.offset + 3));
        // from a memory without a shadow the words arrive defined
        let bare = DeviceMemory::new(8);
        let plain = bare.alloc(4).unwrap();
        let dst = there.alloc(4).unwrap();
        bare.peer_copy(plain, &there, dst);
        assert_eq!(valid(dst), [true; 4]);
    }

    #[test]
    #[should_panic(expected = "peer copy length mismatch")]
    fn a_peer_copy_of_another_length_panics() {
        let (here, there) = (DeviceMemory::new(8), DeviceMemory::new(8));
        let (src, dst) = (here.alloc(4).unwrap(), there.alloc(3).unwrap());
        here.peer_copy(src, &there, dst);
    }

    #[test]
    fn sub_slice_windows() {
        let mem = DeviceMemory::new(64);
        let s = mem.alloc(64).unwrap();
        let data: Vec<u64> = (0..64).collect();
        mem.h2d(s, &data);
        let w = s.sub(16, 8);
        assert_eq!(mem.d2h(w), (16..24).collect::<Vec<u64>>());
        assert_eq!(w.bytes(), 64);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn sub_slice_bounds_checked() {
        let mem = DeviceMemory::new(8);
        let s = mem.alloc(8).unwrap();
        let _ = s.sub(4, 8);
    }

    #[test]
    #[should_panic(expected = "outstanding scratch")]
    fn reset_with_live_scratch_guard_panics() {
        let mem = DeviceMemory::new(64);
        let _guard = mem.alloc_scratch(8).unwrap();
        mem.reset(); // latent use-after-reset hazard, now a hard error
    }

    #[test]
    fn reset_after_guards_drop_is_fine() {
        let mem = DeviceMemory::new(64);
        {
            let _guard = mem.alloc_scratch(8).unwrap();
        }
        mem.reset();
        assert_eq!(mem.available_words(), 64);
    }

    #[test]
    fn forgotten_scratch_guard_produces_leak_report() {
        use crate::sanitizer::{Policy, SanitizerSet};
        let mem = DeviceMemory::new(64);
        mem.attach_sanitizer(SanitizerSet::MEM, Policy::Collect, false);
        assert!(mem.leak_report().is_none());
        let guard = mem.alloc_scratch(8).unwrap();
        std::mem::forget(guard); // the leak memcheck exists to catch
        let report = mem.leak_report().expect("leak must be reported");
        assert!(report.contains("1 leaked scratch"));
        assert!(report.contains("len=8"));
    }

    #[test]
    fn leak_report_needs_mem_detector() {
        use crate::sanitizer::{Policy, SanitizerSet};
        let mem = DeviceMemory::new(64);
        mem.attach_sanitizer(SanitizerSet::RACE, Policy::Collect, false);
        std::mem::forget(mem.alloc_scratch(8).unwrap());
        assert!(mem.leak_report().is_none());
    }

    #[test]
    fn released_scratch_words_become_undefined_again() {
        use crate::sanitizer::{Policy, SanitizerSet};
        let mem = DeviceMemory::new(64);
        let san = mem.attach_sanitizer(SanitizerSet::INIT, Policy::Collect, false);
        let valid = san.valid().unwrap();
        let offset = {
            let g = mem.alloc_scratch(4).unwrap();
            mem.h2d(g.slice(), &[1, 2, 3, 4]);
            assert!(valid.is_valid(g.slice().offset));
            g.slice().offset
        };
        assert!(
            !valid.is_valid(offset),
            "recycled scratch must read as undefined"
        );
    }

    #[test]
    fn arena_survives_reset_at_stable_offset() {
        let mem = DeviceMemory::new(128);
        let a = mem.arena_reserve(32).unwrap();
        let base = mem.alloc(16).unwrap();
        mem.h2d(a, &[7; 32]);
        mem.reset();
        // bump region reclaimed, arena reservation intact
        assert_eq!(mem.alloc(16).unwrap().offset, base.offset);
        let b = mem.arena_reserve(32).unwrap();
        assert_eq!(b.offset, a.offset, "reused arena must not move");
        assert_eq!(b.len, 32);
    }

    #[test]
    fn arena_reuse_serves_smaller_requests_in_place() {
        let mem = DeviceMemory::new(128);
        let a = mem.arena_reserve(48).unwrap();
        let b = mem.arena_reserve(16).unwrap();
        assert_eq!(b.offset, a.offset);
        assert_eq!(b.len, 16);
    }

    #[test]
    fn transient_scratch_stacks_below_the_arena() {
        let mem = DeviceMemory::new(128);
        let a = mem.arena_reserve(32).unwrap();
        let g = mem.alloc_scratch(16).unwrap();
        assert!(g.slice().offset + g.slice().len <= a.offset);
        drop(g);
        // floor returns to the arena base, not the pool top
        let g2 = mem.alloc_scratch(16).unwrap();
        assert!(g2.slice().offset + g2.slice().len <= a.offset);
    }

    #[test]
    fn arena_release_restores_full_pool() {
        let mem = DeviceMemory::new(128);
        let _ = mem.arena_reserve(64).unwrap();
        assert!(mem.alloc(100).is_err());
        mem.arena_release();
        assert!(mem.alloc(100).is_ok());
    }

    #[test]
    fn arena_collision_with_bump_region_reports_oom() {
        let mem = DeviceMemory::new(64);
        let _ = mem.alloc(40).unwrap();
        let err = mem.arena_reserve(32).unwrap_err();
        assert_eq!(err.requested_words, 32);
        mem.reset();
        assert!(mem.arena_reserve(32).is_ok());
    }

    #[test]
    #[should_panic(expected = "live transient scratch")]
    fn arena_growth_under_live_scratch_panics() {
        let mem = DeviceMemory::new(256);
        let _ = mem.arena_reserve(16).unwrap();
        let _guard = mem.alloc_scratch(8).unwrap();
        let _ = mem.arena_reserve(64); // grow would move the floor
    }

    #[test]
    fn arena_words_are_undefined_on_each_reservation() {
        use crate::sanitizer::{Policy, SanitizerSet};
        let mem = DeviceMemory::new(64);
        let san = mem.attach_sanitizer(SanitizerSet::INIT, Policy::Collect, false);
        let valid = san.valid().unwrap();
        let a = mem.arena_reserve(8).unwrap();
        mem.h2d(a, &[1; 8]);
        assert!(valid.is_valid(a.offset));
        let b = mem.arena_reserve(8).unwrap();
        assert!(
            !valid.is_valid(b.offset),
            "re-reserved arena words must read as undefined"
        );
    }

    #[test]
    fn concurrent_alloc_never_overlaps() {
        let mem = std::sync::Arc::new(DeviceMemory::new(4096));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let mem = std::sync::Arc::clone(&mem);
            handles.push(std::thread::spawn(move || {
                let mut slices = Vec::new();
                for _ in 0..16 {
                    slices.push(mem.alloc(32).unwrap());
                }
                slices
            }));
        }
        let mut all: Vec<DevSlice> = Vec::new();
        for h in handles {
            all.extend(h.join().unwrap());
        }
        all.sort_by_key(|s| s.offset);
        for pair in all.windows(2) {
            assert!(pair[0].offset + pair[0].len <= pair[1].offset);
        }
    }
}
