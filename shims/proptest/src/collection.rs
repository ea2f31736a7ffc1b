//! Collection strategies: `vec` and `hash_set`.

use crate::{Strategy, TestRng};
use std::collections::HashSet;
use std::fmt::Debug;
use std::hash::Hash;

/// Element-count specification: an exact length or a `lo..hi` range.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    lo: usize,
    hi: usize, // exclusive
}

impl SizeRange {
    fn pick(self, rng: &mut TestRng) -> usize {
        debug_assert!(self.lo < self.hi);
        self.lo + rng.below((self.hi - self.lo) as u64) as usize
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n + 1 }
    }
}

impl From<core::ops::Range<usize>> for SizeRange {
    fn from(r: core::ops::Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            lo: r.start,
            hi: r.end,
        }
    }
}

impl From<core::ops::RangeInclusive<usize>> for SizeRange {
    fn from(r: core::ops::RangeInclusive<usize>) -> Self {
        SizeRange {
            lo: *r.start(),
            hi: *r.end() + 1,
        }
    }
}

/// Strategy for `Vec<S::Value>` with a size drawn from `size`.
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

/// `Vec` strategy: `size` elements (exact `usize` or `lo..hi`), each from
/// `element`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        let n = self.size.pick(rng);
        (0..n).map(|_| self.element.generate(rng)).collect()
    }
}

/// Strategy for `HashSet<S::Value>` with a size drawn from `size`.
#[derive(Debug, Clone)]
pub struct HashSetStrategy<S> {
    element: S,
    size: SizeRange,
}

/// `HashSet` strategy: like [`vec()`] but deduplicated; keeps drawing until
/// the set reaches the chosen size (bounded, so tiny element domains
/// settle for fewer elements rather than spinning forever).
pub fn hash_set<S>(element: S, size: impl Into<SizeRange>) -> HashSetStrategy<S>
where
    S: Strategy,
    S::Value: Eq + Hash,
{
    HashSetStrategy {
        element,
        size: size.into(),
    }
}

impl<S> Strategy for HashSetStrategy<S>
where
    S: Strategy,
    S::Value: Eq + Hash + Debug,
{
    type Value = HashSet<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        let target = self.size.pick(rng);
        let mut out = HashSet::with_capacity(target);
        let mut attempts = 0usize;
        while out.len() < target && attempts < target.saturating_mul(64) + 64 {
            out.insert(self.element.generate(rng));
            attempts += 1;
        }
        out
    }
}
