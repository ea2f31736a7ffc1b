//! Valid-bit shadow memory for uninitialised-read detection (initcheck).
//!
//! Two bits per device word — one per 32-bit half, 32 words per
//! `AtomicU64` — so a half-word store ([`crate::GroupCtx::write_stream_half`])
//! defines its half alone, a half-word load
//! ([`crate::GroupCtx::read_stream_half`]) asks its half alone to be
//! defined, and a load of the word is flagged while either half was never
//! written. A flagged load marks the halves it read, so each reports once.
//! Bits are set by every defining operation
//! — `h2d`, `fill`, `peer_copy` (copying the source's validity), kernel stores
//! and atomic RMWs — and cleared whenever the word is (re)allocated:
//! `alloc`, `alloc_scratch`, and scratch release (so a stale read through
//! a dangling `DevSlice` into recycled scratch is flagged as reading an
//! undefined word).
//!
//! A device's pool is zero-*initialised* by the OS but that zero is not a
//! *defined value* in the CUDA model this simulates — `cudaMalloc`
//! returns garbage. A table constructor that forgets its EMPTY-sentinel
//! fill therefore reads "never-written" words even though they happen to
//! be zero; that is exactly the bug class this detector exists for.

use super::BOTH;
use std::sync::atomic::{AtomicU64, Ordering};

/// Packed per-half valid bits: bit `2i` for the low half of word `i`,
/// bit `2i + 1` for its high half.
pub(crate) struct ValidBits {
    bits: Box<[AtomicU64]>,
}

impl ValidBits {
    /// Shadow for `words` device words; `all_valid` marks everything
    /// defined up front (used when attaching lazily to a device that has
    /// already been written — avoids false positives at the cost of
    /// missing earlier undefined reads).
    pub(crate) fn new(words: usize, all_valid: bool) -> Self {
        let n = words.div_ceil(32);
        let init = if all_valid { u64::MAX } else { 0 };
        let mut v = Vec::with_capacity(n);
        v.resize_with(n, || AtomicU64::new(init));
        Self {
            bits: v.into_boxed_slice(),
        }
    }

    /// The shadow word and bit offset of absolute word `idx`'s two bits.
    #[inline]
    fn at(&self, idx: usize) -> (&AtomicU64, u32) {
        (&self.bits[idx / 32], 2 * (idx % 32) as u32)
    }

    /// The defined halves of absolute word `idx`: bit 0 the low half,
    /// bit 1 the high half.
    #[inline]
    pub(crate) fn halves(&self, idx: usize) -> u8 {
        let (bits, shift) = self.at(idx);
        (bits.load(Ordering::Relaxed) >> shift) as u8 & BOTH
    }

    /// Whether both halves of absolute word `idx` have been written.
    #[cfg(test)]
    pub(crate) fn is_valid(&self, idx: usize) -> bool {
        self.halves(idx) == BOTH
    }

    /// Marks absolute word `idx` defined.
    #[inline]
    pub(crate) fn set(&self, idx: usize) {
        self.set_halves(idx, BOTH);
    }

    /// Marks `halves` of absolute word `idx` defined (bit 0 the low half).
    #[inline]
    pub(crate) fn set_halves(&self, idx: usize, halves: u8) {
        let (bits, shift) = self.at(idx);
        bits.fetch_or(u64::from(halves) << shift, Ordering::Relaxed);
    }

    /// Marks `[offset, offset+len)` defined (bulk h2d / fill).
    pub(crate) fn set_range(&self, offset: usize, len: usize) {
        for idx in offset..offset + len {
            self.set(idx);
        }
    }

    /// Marks `[offset, offset+len)` undefined (fresh allocation).
    pub(crate) fn clear_range(&self, offset: usize, len: usize) {
        for idx in offset..offset + len {
            let (bits, shift) = self.at(idx);
            bits.fetch_and(!(u64::from(BOTH) << shift), Ordering::Relaxed);
        }
    }

    /// Copies the validity of `from`'s `[src, src+len)` onto this shadow's
    /// `[dst, dst+len)` (a device-to-device copy, `from` the source's
    /// shadow: a copy of an undefined half is still undefined).
    pub(crate) fn copy_range(&self, from: &ValidBits, src: usize, dst: usize, len: usize) {
        for i in 0..len {
            let halves = from.halves(src + i);
            self.clear_range(dst + i, 1);
            self.set_halves(dst + i, halves);
        }
    }
}

impl std::fmt::Debug for ValidBits {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ValidBits({} words)", self.bits.len() * 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_shadow_is_all_undefined() {
        let v = ValidBits::new(130, false);
        assert!(!v.is_valid(0));
        assert!(!v.is_valid(129));
    }

    #[test]
    fn assume_valid_marks_everything() {
        let v = ValidBits::new(100, true);
        assert!(v.is_valid(0));
        assert!(v.is_valid(99));
    }

    #[test]
    fn set_and_clear_ranges() {
        let v = ValidBits::new(256, false);
        v.set_range(60, 10); // crosses the 64-bit boundary
        assert!(!v.is_valid(59));
        assert!(v.is_valid(60));
        assert!(v.is_valid(69));
        assert!(!v.is_valid(70));
        v.clear_range(64, 3);
        assert!(v.is_valid(63));
        assert!(!v.is_valid(64));
        assert!(!v.is_valid(66));
        assert!(v.is_valid(67));
    }

    #[test]
    fn copy_range_propagates_undefinedness() {
        let v = ValidBits::new(64, false);
        v.set_range(0, 2); // words 0,1 defined; 2,3 not
        v.set_range(10, 4); // destination previously defined
        v.copy_range(&v, 0, 10, 4);
        assert!(v.is_valid(10));
        assert!(v.is_valid(11));
        assert!(!v.is_valid(12), "copying an undefined word taints the dst");
        assert!(!v.is_valid(13));
    }

    #[test]
    fn halves_are_defined_one_at_a_time() {
        let v = ValidBits::new(64, false);
        v.set_halves(33, 0b10);
        assert_eq!((v.halves(33), v.is_valid(33)), (0b10, false));
        assert_eq!((v.halves(32), v.halves(34)), (0, 0));
        v.set_halves(33, 0b01);
        assert!(v.is_valid(33));
        // a copy keeps the half it had
        v.set_halves(40, 0b01);
        v.set(41);
        v.copy_range(&v, 40, 41, 1);
        assert_eq!(v.halves(41), 0b01);
    }
}
