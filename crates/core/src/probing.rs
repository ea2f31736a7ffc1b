//! The probing sequence: where each outer attempt's windows live.
//!
//! Fig. 3 structure: the **outer** loop re-hashes (`h ← hash(d, p)`), the
//! **inner** loop slides a `|g|`-slot window across the warp-sized span
//! `[h, h + 32)`, and the group probes window slots in parallel. This
//! module computes the window bases; the kernels own the intra-window
//! ballot/CAS mechanics.
//!
//! The probing sequence depends only on `(key, seed, scheme)` — *not* on
//! the group size — so a map written with `|g| = 8` can be queried with
//! `|g| = 2`: both traverse the same span sequence slot-by-slot ("the
//! inner probing loop ensures a consistent probing scheme in case the
//! size of g is varied over time", §IV-A).

use crate::config::ProbingScheme;
use hashes::{DoubleHash, FastMod32, HashFamily};

/// Width of one outer attempt's span in slots (a traditional warp).
pub const SPAN: u64 = 32;

/// Slots per 32-byte memory sector (probe starts align to this).
pub const SECTOR_SLOTS: u64 = 4;

/// `(base + r) % cap` for a window-local lane offset: `base` is already
/// reduced modulo `cap` and `r` is a lane rank (< 32 ≤ cap), so a single
/// conditional subtraction is bit-identical to the modulo without the
/// hardware division every probed slot would otherwise pay.
#[inline]
pub(crate) fn wrap_slot(base: usize, r: usize, cap: usize) -> usize {
    debug_assert!(base < cap && r < cap);
    let s = base + r;
    if s >= cap {
        s - cap
    } else {
        s
    }
}

/// Probing-sequence generator for one map configuration.
#[derive(Debug, Clone, Copy)]
pub struct Prober {
    dh: DoubleHash,
    scheme: ProbingScheme,
    capacity: u64,
    /// Division-free `% capacity` (bit-identical to `%`; the probing hot
    /// path reduces several values per window, and a hardware `div` per
    /// reduction dominates the simulated kernel's host cost).
    fm: FastMod32,
}

impl Prober {
    /// Creates a prober over a table of `capacity` slots.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(dh: DoubleHash, scheme: ProbingScheme, capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        assert_eq!(
            capacity % SPAN as usize,
            0,
            "capacity must be a whole number of 32-slot spans"
        );
        Self {
            dh,
            scheme,
            capacity: capacity as u64,
            fm: FastMod32::new(capacity as u64),
        }
    }

    /// The same scheme over the same capacity under another member of
    /// the hash family (a rebuild's "distinct hash function", §II).
    #[must_use]
    pub(crate) fn with_member(mut self, dh: DoubleHash) -> Self {
        self.dh = dh;
        self
    }

    /// Base slot of outer attempt `p` for `key`, reduced mod capacity and
    /// **aligned down to a 4-slot (32-byte sector) boundary**. Sector
    /// alignment is what gives the coalesced window load its minimal
    /// transaction count — a `|g| ≤ 4` window then never straddles two
    /// sectors, and a `|g| = 8/16/32` window touches exactly 2/4/8. The
    /// granularity is deliberately the *sector*, not the span: aligning
    /// to the whole 32-slot span would funnel every key of a span onto
    /// the same start slot and front-load the span (32-way clustering);
    /// sector alignment costs at most 3 slots of clustering while keeping
    /// the probing sequence group-size independent (capacities are
    /// rounded to a multiple of 32 by the map, so alignment survives the
    /// modulo).
    #[inline]
    #[must_use]
    pub fn span_base(&self, key: u32, p: u32) -> u64 {
        let raw = match self.scheme {
            // chaotic jumps: double hashing across spans (Eq. 3 at span
            // granularity)
            ProbingScheme::Hybrid => u64::from(self.dh.member(p, key)),
            // consecutive spans (Eq. 1 at span granularity)
            ProbingScheme::Linear => u64::from(self.dh.h(key)) + u64::from(p) * SPAN,
            // quadratically advancing spans (Eq. 2 at span granularity)
            ProbingScheme::Quadratic => {
                u64::from(self.dh.h(key)) + u64::from(p) * u64::from(p) * SPAN
            }
        };
        let base = self.fm.rem(raw);
        base - base % SECTOR_SLOTS // SECTOR_SLOTS is a power of two: free
    }

    /// Base slot of window `q` (of `window` slots) within attempt `p` —
    /// line 7 of Fig. 3: `h + q·|g|`, reduced mod capacity.
    #[inline]
    #[must_use]
    pub fn window_base(&self, key: u32, p: u32, q: u32, window: u32) -> u64 {
        // span_base is already reduced and q·|g| < SPAN ≤ capacity: one
        // conditional subtraction replaces the modulo
        self.fm
            .add_rem(self.span_base(key, p), u64::from(q) * u64::from(window))
    }

    /// Flat sequence of the first `n` *slot* indices probed for `key` —
    /// group-size independent (used by tests to certify consistency).
    #[must_use]
    pub fn slot_sequence(&self, key: u32, n: usize) -> Vec<u64> {
        (0..)
            .flat_map(|p| {
                let base = self.span_base(key, p);
                (0..SPAN).map(move |o| (base + o) % self.capacity)
            })
            .take(n)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn prober(scheme: ProbingScheme, capacity: usize) -> Prober {
        Prober::new(DoubleHash::from_seed(7), scheme, capacity)
    }

    #[test]
    fn linear_spans_are_consecutive() {
        let p = prober(ProbingScheme::Linear, 1 << 20);
        let k = 42;
        let b0 = p.span_base(k, 0);
        assert_eq!(p.span_base(k, 1), (b0 + 32) % (1 << 20));
        assert_eq!(p.span_base(k, 2), (b0 + 64) % (1 << 20));
    }

    #[test]
    fn quadratic_spans_grow_quadratically() {
        let p = prober(ProbingScheme::Quadratic, 1 << 20);
        let k = 42;
        let b0 = p.span_base(k, 0);
        assert_eq!(p.span_base(k, 1), (b0 + 32) % (1 << 20));
        assert_eq!(p.span_base(k, 2), (b0 + 128) % (1 << 20));
        assert_eq!(p.span_base(k, 3), (b0 + 288) % (1 << 20));
    }

    #[test]
    fn hybrid_spans_jump_chaotically() {
        let p = prober(ProbingScheme::Hybrid, 1 << 20);
        let k = 42;
        let diffs: Vec<i64> = (0..4)
            .map(|a| p.span_base(k, a + 1) as i64 - p.span_base(k, a) as i64)
            .collect();
        // double hashing: constant stride mod capacity, but not ±32
        assert!(diffs.iter().all(|&d| d.unsigned_abs() > 32));
    }

    #[test]
    fn window_bases_tile_the_span() {
        let p = prober(ProbingScheme::Hybrid, 4096);
        let k = 9;
        let base = p.span_base(k, 0);
        for (g, q_count) in [(8u32, 4u32), (4, 8), (32, 1)] {
            for q in 0..q_count {
                assert_eq!(p.window_base(k, 0, q, g), (base + u64::from(q * g)) % 4096);
            }
        }
    }

    #[test]
    fn slot_sequence_is_group_size_independent_by_construction() {
        let p = prober(ProbingScheme::Hybrid, 512);
        let seq = p.slot_sequence(5, 96);
        assert_eq!(seq.len(), 96);
        // reconstruct via windows of size 8 and compare
        let mut via_windows = Vec::new();
        'outer: for attempt in 0.. {
            for q in 0..4 {
                let base = p.window_base(5, attempt, q, 8);
                for r in 0..8 {
                    via_windows.push((base + r) % 512);
                    if via_windows.len() == 96 {
                        break 'outer;
                    }
                }
            }
        }
        assert_eq!(seq, via_windows);
    }

    proptest! {
        #[test]
        fn bases_always_in_range(key: u32, p in 0u32..100, spans in 1usize..300) {
            let cap = spans * 32;
            for scheme in [ProbingScheme::Hybrid, ProbingScheme::Linear, ProbingScheme::Quadratic] {
                let pr = prober(scheme, cap);
                prop_assert!(pr.span_base(key, p) < cap as u64);
                prop_assert!(pr.window_base(key, p, 3, 8) < cap as u64);
            }
        }

        #[test]
        fn sequence_deterministic(key: u32) {
            let a = prober(ProbingScheme::Hybrid, 1024).slot_sequence(key, 64);
            let b = prober(ProbingScheme::Hybrid, 1024).slot_sequence(key, 64);
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = prober(ProbingScheme::Hybrid, 0);
    }
}
