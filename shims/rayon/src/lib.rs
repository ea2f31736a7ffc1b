//! Offline stand-in for `rayon`.
//!
//! The build environment cannot reach a crate registry, so this local
//! path dependency reimplements the slice of rayon's API the workspace
//! uses — `into_par_iter()` on integer ranges, `par_iter()` on slices,
//! `map`/`for_each`/`collect`/`reduce`, `with_min_len`, and
//! `current_num_threads` — on top of `std::thread::scope`. Work is split
//! into contiguous per-thread chunks, so `collect` preserves input order
//! exactly like rayon's indexed parallel iterators.

#![forbid(unsafe_code)]

use std::num::NonZeroUsize;

/// Number of worker threads parallel operations fan out to.
///
/// Honours `RAYON_NUM_THREADS` like real rayon's default pool (a positive
/// integer overrides the hardware count; `0`, garbage, or unset fall back
/// to [`std::thread::available_parallelism`]). Read per call — there is no
/// persistent pool in this shim — so tests can sweep worker counts by
/// setting the variable between launches.
#[must_use]
pub fn current_num_threads() -> usize {
    if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// An indexed, random-access source of items — the engine all the
/// parallel combinators run on. Contiguous index chunks go to separate
/// threads; order is recoverable because access is by index.
pub trait IndexedSource: Sync {
    /// Item type produced.
    type Item: Send;
    /// Total number of items.
    fn len(&self) -> usize;
    /// Whether the source is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Produces the item at index `i` (`i < self.len()`).
    fn get(&self, i: usize) -> Self::Item;
}

/// A parallel iterator: an [`IndexedSource`] plus a minimum chunk length.
pub struct ParIter<S> {
    source: S,
    min_len: usize,
}

/// Splits `len` items into per-thread contiguous chunks honouring
/// `min_len`, runs `work(start, end)` for each chunk — the first on the
/// caller, which would otherwise sleep in `join`, the others on scoped
/// threads — and returns the per-chunk results in index order.
fn run_chunked<R, F>(len: usize, min_len: usize, work: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, usize) -> R + Sync,
{
    if len == 0 {
        return Vec::new();
    }
    let min_len = min_len.max(1);
    let threads = current_num_threads().max(1);
    let chunks = len.div_ceil(min_len).clamp(1, threads);
    let per = len.div_ceil(chunks);
    if chunks == 1 {
        return vec![work(0, len)];
    }
    let bounds: Vec<(usize, usize)> = (0..chunks)
        .map(|c| (c * per, ((c + 1) * per).min(len)))
        .filter(|(s, e)| s < e)
        .collect();
    let work = &work;
    std::thread::scope(|scope| {
        let handles: Vec<_> = bounds[1..]
            .iter()
            .map(|&(s, e)| scope.spawn(move || work(s, e)))
            .collect();
        let (s, e) = bounds[0];
        let first = work(s, e);
        let rest = handles.into_iter().map(|h| h.join().unwrap());
        std::iter::once(first).chain(rest).collect()
    })
}

impl<S: IndexedSource> ParIter<S> {
    /// Lower bound on the number of items a worker chunk processes.
    #[must_use]
    pub fn with_min_len(mut self, min_len: usize) -> Self {
        self.min_len = min_len.max(1);
        self
    }

    /// Parallel map; the result is still indexed and order-preserving.
    pub fn map<T, F>(self, f: F) -> ParIter<Map<S, F>>
    where
        T: Send,
        F: Fn(S::Item) -> T + Sync,
    {
        ParIter {
            source: Map {
                base: self.source,
                f,
            },
            min_len: self.min_len,
        }
    }

    /// Runs `f` on every item across the thread pool.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(S::Item) + Sync,
    {
        let src = &self.source;
        run_chunked(src.len(), self.min_len, |s, e| {
            for i in s..e {
                f(src.get(i));
            }
        });
    }

    /// Collects into a container, preserving input order.
    pub fn collect<C>(self) -> C
    where
        C: FromParIter<S::Item>,
    {
        let src = &self.source;
        let parts = run_chunked(src.len(), self.min_len, |s, e| {
            (s..e).map(|i| src.get(i)).collect::<Vec<_>>()
        });
        C::from_ordered_parts(parts)
    }

    /// Parallel fold-then-combine with an identity constructor, like
    /// rayon's `reduce`.
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> S::Item
    where
        ID: Fn() -> S::Item + Sync,
        OP: Fn(S::Item, S::Item) -> S::Item + Sync,
    {
        let src = &self.source;
        let parts = run_chunked(src.len(), self.min_len, |s, e| {
            (s..e).map(|i| src.get(i)).fold(identity(), &op)
        });
        parts.into_iter().fold(identity(), &op)
    }

    /// Sums the items.
    pub fn sum<T>(self) -> T
    where
        S::Item: Into<T>,
        T: Send + std::iter::Sum<S::Item> + std::iter::Sum<T>,
    {
        let src = &self.source;
        let parts = run_chunked(src.len(), self.min_len, |s, e| {
            (s..e).map(|i| src.get(i)).sum::<T>()
        });
        parts.into_iter().sum()
    }
}

/// Containers constructible from ordered per-chunk parts.
pub trait FromParIter<T>: Sized {
    /// Concatenates the chunk outputs (already in index order).
    fn from_ordered_parts(parts: Vec<Vec<T>>) -> Self;
}

impl<T> FromParIter<T> for Vec<T> {
    fn from_ordered_parts(parts: Vec<Vec<T>>) -> Self {
        let total = parts.iter().map(Vec::len).sum();
        let mut out = Vec::with_capacity(total);
        for p in parts {
            out.extend(p);
        }
        out
    }
}

/// Map adapter produced by [`ParIter::map`].
pub struct Map<S, F> {
    base: S,
    f: F,
}

impl<S, F, T> IndexedSource for Map<S, F>
where
    S: IndexedSource,
    T: Send,
    F: Fn(S::Item) -> T + Sync,
{
    type Item = T;
    fn len(&self) -> usize {
        self.base.len()
    }
    fn get(&self, i: usize) -> T {
        (self.f)(self.base.get(i))
    }
}

/// Source over an integer range.
pub struct RangeSource<T> {
    start: T,
    len: usize,
}

macro_rules! impl_range_source {
    ($($t:ty),*) => {$(
        impl IndexedSource for RangeSource<$t> {
            type Item = $t;
            fn len(&self) -> usize {
                self.len
            }
            #[allow(clippy::cast_possible_truncation)]
            fn get(&self, i: usize) -> $t {
                self.start + i as $t
            }
        }

        impl IntoParallelIterator for core::ops::Range<$t> {
            type Item = $t;
            type Iter = ParIter<RangeSource<$t>>;
            fn into_par_iter(self) -> Self::Iter {
                let len = usize::try_from(self.end.saturating_sub(self.start))
                    .expect("parallel range too long for usize");
                ParIter {
                    source: RangeSource {
                        start: self.start,
                        len,
                    },
                    min_len: 1,
                }
            }
        }
    )*};
}

impl_range_source!(u32, u64, usize);

/// Borrowed-slice source for `par_iter()`.
pub struct SliceSource<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> IndexedSource for SliceSource<'a, T> {
    type Item = &'a T;
    fn len(&self) -> usize {
        self.slice.len()
    }
    fn get(&self, i: usize) -> &'a T {
        &self.slice[i]
    }
}

/// Owned-`Vec` source for `into_par_iter()` on vectors. Items are cloned
/// out of the shared buffer because chunk workers only hold `&self`.
pub struct VecSource<T> {
    items: Vec<T>,
}

impl<T: Clone + Send + Sync> IndexedSource for VecSource<T> {
    type Item = T;
    fn len(&self) -> usize {
        self.items.len()
    }
    fn get(&self, i: usize) -> T {
        self.items[i].clone()
    }
}

/// Conversion into a parallel iterator (rayon's entry point).
pub trait IntoParallelIterator {
    /// Item the iterator yields.
    type Item: Send;
    /// Concrete iterator type.
    type Iter;
    /// Converts `self` into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

impl<T: Clone + Send + Sync> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = ParIter<VecSource<T>>;
    fn into_par_iter(self) -> Self::Iter {
        ParIter {
            source: VecSource { items: self },
            min_len: 1,
        }
    }
}

/// `par_iter()` on borrowed collections.
pub trait IntoParallelRefIterator<'a> {
    /// Item the iterator yields (a reference).
    type Item: Send;
    /// Concrete iterator type.
    type Iter;
    /// Borrows `self` as a parallel iterator.
    fn par_iter(&'a self) -> Self::Iter;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    type Iter = ParIter<SliceSource<'a, T>>;
    fn par_iter(&'a self) -> Self::Iter {
        ParIter {
            source: SliceSource { slice: self },
            min_len: 1,
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    type Iter = ParIter<SliceSource<'a, T>>;
    fn par_iter(&'a self) -> Self::Iter {
        ParIter {
            source: SliceSource { slice: self },
            min_len: 1,
        }
    }
}

/// Runs two closures, potentially in parallel, returning both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    std::thread::scope(|scope| {
        let hb = scope.spawn(b);
        let ra = a();
        (ra, hb.join().unwrap())
    })
}

/// `rayon::prelude` stand-in.
pub mod prelude {
    pub use super::{IntoParallelIterator, IntoParallelRefIterator};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn range_map_collect_preserves_order() {
        let v: Vec<u64> = (0u64..10_000).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v.len(), 10_000);
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i as u64 * 2);
        }
    }

    #[test]
    fn for_each_visits_every_index() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let sum = AtomicU64::new(0);
        (0u32..1000)
            .into_par_iter()
            .with_min_len(64)
            .for_each(|i| {
                sum.fetch_add(u64::from(i), Ordering::Relaxed);
            });
        assert_eq!(sum.load(Ordering::Relaxed), 999 * 1000 / 2);
    }

    #[test]
    fn the_caller_runs_the_first_chunk_and_parts_keep_their_order() {
        let caller = std::thread::current().id();
        let parts = super::run_chunked(4096, 1, |s, e| (s, e, std::thread::current().id()));
        assert_eq!(parts[0].2, caller);
        assert!(parts[1..].iter().all(|part| part.2 != caller));
        assert_eq!((parts[0].0, parts.last().unwrap().1), (0, 4096));
        assert!(parts.windows(2).all(|pair| pair[0].1 == pair[1].0));
    }

    #[test]
    fn slice_par_iter_reduce() {
        let data: Vec<u32> = (1..=100).collect();
        let total = data
            .par_iter()
            .map(|&x| u64::from(x))
            .reduce(|| 0u64, |a, b| a + b);
        assert_eq!(total, 5050);
    }

    #[test]
    fn empty_range_is_fine() {
        let v: Vec<u32> = (5u32..5).into_par_iter().map(|i| i).collect();
        assert!(v.is_empty());
    }

    #[test]
    fn join_runs_both() {
        let (a, b) = super::join(|| 1 + 1, || "x".repeat(3));
        assert_eq!(a, 2);
        assert_eq!(b, "xxx");
    }
}
