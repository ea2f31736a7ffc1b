//! Offline stand-in for `rayon`.
//!
//! The build environment cannot reach a crate registry, so this local
//! path dependency reimplements the slice of rayon's API the workspace
//! uses — `into_par_iter()` on integer ranges, `par_iter()` on slices,
//! `map`/`for_each`/`collect`/`reduce`, `with_min_len`, and
//! `current_num_threads` — on a persistent pool of worker threads. Work is
//! split into contiguous per-thread chunks, so `collect` preserves input
//! order exactly like rayon's indexed parallel iterators.
//!
//! The pool is the shape of "Warp-Level Parallelism": a few long-lived
//! workers, each running one contiguous chunk of many independent items,
//! not a task per item. It is grown lazily, to the most workers a call
//! has needed, and its workers live as long as the process. A call runs
//! chunk 0 on its caller and chunk `w` on worker `w`, so a worker's
//! thread is the same from call to call. The caller owns the workers
//! until every chunk is done; a nested call, or one from another thread
//! while they are owned, runs all its chunks on its own caller, in order.
//! So every thread runs one contiguous range of a call's items in
//! ascending order, all ranges at once, which is what lets a group of a
//! `gpu-sim` launch wait on a lower group's flag (`GroupCtx::poll`; its
//! `tests/flags.rs` pins the shape).
//! Past the workers a call first needs, `for_each` allocates nothing but
//! what `std` needs to read a set `RAYON_NUM_THREADS`, and inside
//! [`with_num_threads_held`] only its first call reads it.

#![deny(unsafe_code)]

use std::any::Any;
use std::cell::Cell;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Number of worker threads parallel operations fan out to.
///
/// Honours `RAYON_NUM_THREADS` like real rayon's default pool (a positive
/// integer overrides the hardware count; `0`, garbage, or unset fall back
/// to [`std::thread::available_parallelism`], read once). Read per call,
/// unlike real rayon, so tests can sweep worker counts by setting the
/// variable between launches; the pool grows to what a call needs.
/// Inside [`with_num_threads_held`], the count the first call on this
/// thread read.
#[must_use]
pub fn current_num_threads() -> usize {
    match HELD.get() {
        Held::Free => read_num_threads(),
        Held::Unread => {
            let threads = read_num_threads();
            HELD.set(Held::Read(threads));
            threads
        }
        Held::Read(threads) => threads,
    }
}

/// What [`current_num_threads`] holds on a thread.
#[derive(Debug, Clone, Copy)]
enum Held {
    /// Outside [`with_num_threads_held`]: every call reads.
    Free,
    /// Inside, before the first call.
    Unread,
    /// Inside, after the first call, which read this count.
    Read(usize),
}

thread_local! {
    static HELD: Cell<Held> = const { Cell::new(Held::Free) };
}

/// Runs `f` with [`current_num_threads`] held on this thread: its first
/// call inside reads `RAYON_NUM_THREADS`, and every later one answers what
/// that one read. An operation that makes many parallel calls, one after
/// the other, pays one read of a set variable instead of one a call; one
/// that makes none reads nothing. A nested hold keeps the outer one's
/// count.
pub fn with_num_threads_held<R>(f: impl FnOnce() -> R) -> R {
    /// Lets the hold go when `f` returns or unwinds.
    struct Release;
    impl Drop for Release {
        fn drop(&mut self) {
            HELD.set(Held::Free);
        }
    }
    if matches!(HELD.get(), Held::Free) {
        HELD.set(Held::Unread);
        let _release = Release;
        f()
    } else {
        f()
    }
}

fn read_num_threads() -> usize {
    if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    static HARDWARE: OnceLock<usize> = OnceLock::new();
    *HARDWARE.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// How a call's `len` items split into contiguous chunks: chunk `c` is
/// `c * per .. ((c + 1) * per).min(len)`, and none is empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Chunks {
    len: usize,
    per: usize,
    count: usize,
}

impl Chunks {
    /// At most one chunk per worker, each at least `min_len` items long
    /// where there are enough of them.
    fn new(len: usize, min_len: usize, threads: usize) -> Self {
        let count = len.div_ceil(min_len.max(1)).clamp(1, threads.max(1));
        let per = len.div_ceil(count).max(1);
        Self {
            len,
            per,
            count: len.div_ceil(per),
        }
    }

    fn range(self, c: usize) -> Range<usize> {
        c * self.per..((c + 1) * self.per).min(self.len)
    }
}

/// The process's workers. Worker `w` (from 1) runs chunk `w` of every job
/// of more than `w` chunks; the job's caller runs chunk 0.
struct Pool {
    state: Mutex<State>,
    /// Signalled when a job is posted.
    posted: Condvar,
    /// Signalled when the last worker of a job is done.
    finished: Condvar,
}

struct State {
    /// Whether a caller owns the workers.
    owned: bool,
    /// Jobs posted so far: a worker runs each one once.
    jobs: u64,
    /// Chunks of the current job.
    chunks: usize,
    /// The current job's work, its lifetime erased (see [`run`]).
    work: Option<&'static (dyn Fn(usize) + Sync)>,
    /// Workers not done with the current job yet.
    running: usize,
    /// The first panic a worker caught in the current job.
    panic: Option<Box<dyn Any + Send>>,
    /// Workers spawned so far.
    workers: usize,
}

static POOL: Pool = Pool {
    state: Mutex::new(State {
        owned: false,
        jobs: 0,
        chunks: 0,
        work: None,
        running: 0,
        panic: None,
        workers: 0,
    }),
    posted: Condvar::new(),
    finished: Condvar::new(),
};

/// The pool's state. Every update leaves it valid — a worker is counted
/// once it is spawned — so a poisoned lock is taken as it is.
fn lock() -> MutexGuard<'static, State> {
    POOL.state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Worker `w`'s loop: wait for a job posted after `seen` that has a chunk
/// for it, run the chunk, report done.
fn worker(w: usize, mut seen: u64) {
    loop {
        let caught = {
            let mut state = lock();
            let work = loop {
                if state.jobs != seen {
                    seen = state.jobs;
                    if w < state.chunks {
                        break state.work.expect("a job is posted with its work");
                    }
                }
                state = POOL
                    .posted
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            };
            drop(state);
            panic::catch_unwind(AssertUnwindSafe(|| work(w)))
        };
        let mut state = lock();
        if let Err(payload) = caught {
            state.panic.get_or_insert(payload);
        }
        state.running -= 1;
        if state.running == 0 {
            POOL.finished.notify_all();
        }
    }
}

/// The caller's hold on the workers while they run its job. Released —
/// after chunk 0, or while chunk 0 unwinds — it waits until no worker runs
/// the job any more, so none touches its work after [`run`] has returned.
struct Owned;

impl Owned {
    /// Waits for the workers, frees them, and returns a worker's panic.
    fn release(&self) -> Option<Box<dyn Any + Send>> {
        let mut state = lock();
        while state.running > 0 {
            state = POOL
                .finished
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state.work = None;
        state.owned = false;
        state.panic.take()
    }
}

impl Drop for Owned {
    fn drop(&mut self) {
        // chunk 0 is unwinding: its panic wins over a worker's
        drop(self.release());
    }
}

/// Runs `work(c)` for every chunk `c < chunks` and returns once all have:
/// chunk 0 on the caller, chunk `w` on worker `w`. When the workers are
/// owned by another call — a nested one or a concurrent one — the caller
/// runs every chunk itself, in order. A panic in a chunk reaches the
/// caller after every chunk has stopped.
fn run(chunks: usize, work: &(dyn Fn(usize) + Sync)) {
    let mut state = lock();
    if chunks == 1 || state.owned {
        drop(state);
        (0..chunks).for_each(work);
        return;
    }
    while state.workers < chunks - 1 {
        let (w, seen) = (state.workers + 1, state.jobs);
        std::thread::Builder::new()
            .name(format!("rayon-shim-{w}"))
            .spawn(move || worker(w, seen))
            .expect("spawning a pool worker");
        // the worker lives as long as the process: nothing joins it
        state.workers = w;
    }
    // SAFETY: only the lifetime changes. A worker copies `work` out of the
    // state, under the lock, only for a job it runs a chunk of, and drops
    // the copy before it counts itself out of `running`. The job is posted
    // with `owned` set, in one hold of the lock, so no other call replaces
    // `work` until `Owned::release` has seen `running` at zero and cleared
    // it; `release` runs before this function returns, or from
    // `Owned::drop` while chunk 0 unwinds. So no worker calls `work` after
    // the borrow it came from ends.
    #[allow(unsafe_code)]
    let work: &'static (dyn Fn(usize) + Sync) = unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(work)
    };
    state.owned = true;
    state.jobs += 1;
    state.chunks = chunks;
    state.work = Some(work);
    state.running = chunks - 1;
    drop(state);
    POOL.posted.notify_all();
    let owned = Owned;
    work(0);
    let panic = owned.release();
    std::mem::forget(owned);
    if let Some(payload) = panic {
        panic::resume_unwind(payload);
    }
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

/// Splits `len` items into per-worker contiguous chunks honouring
/// `min_len`, runs `work(start, end)` for each chunk on the pool ([`run`])
/// and returns the per-chunk results in index order.
fn run_chunked<R, F>(len: usize, min_len: usize, work: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, usize) -> R + Sync,
{
    if len == 0 {
        return Vec::new();
    }
    let chunks = Chunks::new(len, min_len, current_num_threads());
    if chunks.count == 1 {
        return vec![work(0, len)];
    }
    let parts: Vec<Mutex<Option<R>>> = (0..chunks.count).map(|_| Mutex::new(None)).collect();
    run(chunks.count, &|c| {
        let Range { start, end } = chunks.range(c);
        let part = work(start, end);
        *parts[c].lock().unwrap_or_else(PoisonError::into_inner) = Some(part);
    });
    parts
        .into_iter()
        .map(|part| {
            let part = part.into_inner().unwrap_or_else(PoisonError::into_inner);
            part.expect("every chunk ran")
        })
        .collect()
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
        if src.is_empty() {
            return;
        }
        let chunks = Chunks::new(src.len(), self.min_len, current_num_threads());
        run(chunks.count, &|c| {
            chunks.range(c).for_each(|i| f(src.get(i)))
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
    use super::{run_chunked, Chunks};
    use std::sync::{Barrier, Mutex, MutexGuard, PoisonError};
    use std::thread::{self, ThreadId};

    /// Who owns the workers decides where chunks run, and some tests set
    /// `RAYON_NUM_THREADS`: the tests of this module run one at a time.
    fn serial() -> MutexGuard<'static, ()> {
        static SERIAL: Mutex<()> = Mutex::new(());
        SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `f` with `RAYON_NUM_THREADS` set to `n`, then restores it.
    fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
        let before = std::env::var_os("RAYON_NUM_THREADS");
        std::env::set_var("RAYON_NUM_THREADS", n.to_string());
        let out = f();
        match before {
            Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
            None => std::env::remove_var("RAYON_NUM_THREADS"),
        }
        out
    }

    /// The thread each chunk of a 4 096-item call ran on.
    fn threads_of_a_call() -> Vec<ThreadId> {
        run_chunked(4096, 1, |_, _| thread::current().id())
    }

    #[test]
    fn range_map_collect_preserves_order() {
        let _serial = serial();
        let v: Vec<u64> = (0u64..10_000).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v.len(), 10_000);
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i as u64 * 2);
        }
    }

    #[test]
    fn for_each_visits_every_index() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let _serial = serial();
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
        let _serial = serial();
        let caller = thread::current().id();
        let parts = with_threads(4, || {
            run_chunked(4096, 1, |s, e| (s, e, thread::current().id()))
        });
        assert_eq!(parts.len(), 4);
        assert_eq!(parts[0].2, caller);
        assert!(parts[1..].iter().all(|part| part.2 != caller));
        assert_eq!((parts[0].0, parts.last().unwrap().1), (0, 4096));
        assert!(parts.windows(2).all(|pair| pair[0].1 == pair[1].0));
        // chunk `w` runs on worker `w`: the same threads, call after call
        let ran_on = |_| with_threads(4, threads_of_a_call);
        let calls: Vec<Vec<ThreadId>> = (0..3).map(ran_on).collect();
        assert_eq!(calls[0], parts.iter().map(|part| part.2).collect::<Vec<_>>());
        assert!(calls.windows(2).all(|pair| pair[0] == pair[1]));
    }

    /// The bounds the scoped-thread shim cut, pinned: every test that
    /// sweeps worker counts relies on them.
    #[test]
    fn chunk_bounds_keep_the_scoped_thread_formula() {
        let scoped = |len: usize, min_len: usize, threads: usize| -> Vec<(usize, usize)> {
            let chunks = len.div_ceil(min_len.max(1)).clamp(1, threads);
            let per = len.div_ceil(chunks);
            (0..chunks)
                .map(|c| (c * per, ((c + 1) * per).min(len)))
                .filter(|(s, e)| s < e)
                .collect()
        };
        let lens = (1..=300).chain([1023, 1024, 1025, 4096, 10_000, 1 << 20]);
        for len in lens {
            for min_len in [0, 1, 2, 3, 7, 64, 1024] {
                for threads in 1..=9 {
                    let chunks = Chunks::new(len, min_len, threads);
                    let ours: Vec<(usize, usize)> = (0..chunks.count)
                        .map(|c| (chunks.range(c).start, chunks.range(c).end))
                        .collect();
                    assert_eq!(ours, scoped(len, min_len, threads), "{len} {min_len} {threads}");
                }
            }
        }
    }

    #[test]
    fn worker_counts_follow_rayon_num_threads_between_calls() {
        let _serial = serial();
        for workers in [1, 8, 2] {
            let ran_on = with_threads(workers, threads_of_a_call);
            assert_eq!(ran_on.len(), workers);
            let distinct: std::collections::HashSet<_> = ran_on.iter().collect();
            assert_eq!(distinct.len(), workers, "{workers} workers");
        }
    }

    #[test]
    fn a_held_count_is_the_first_calls_and_ends_with_its_hold() {
        use super::{current_num_threads, with_num_threads_held};
        let _serial = serial();
        let (first, second, nested, after) = with_threads(2, || {
            with_num_threads_held(|| {
                let first = threads_of_a_call().len();
                // a change inside the hold goes unread, nested or not
                let (second, nested) = with_threads(3, || {
                    let nested = with_num_threads_held(current_num_threads);
                    (threads_of_a_call().len(), nested)
                });
                (first, second, nested, with_threads(4, current_num_threads))
            })
        });
        assert_eq!((first, second, nested, after), (2, 2, 2, 2));
        // released, on return and on unwind alike
        assert_eq!(with_threads(3, current_num_threads), 3);
        let unwound = std::panic::catch_unwind(|| with_num_threads_held(|| panic!("inside")));
        assert!(unwound.is_err());
        assert_eq!(with_threads(5, current_num_threads), 5);
        // a hold that makes no call reads nothing, so it holds nothing
        with_num_threads_held(|| {});
        assert_eq!(with_threads(6, current_num_threads), 6);
    }

    #[test]
    fn nested_and_concurrent_callers_run_inline() {
        let _serial = serial();
        // a call from inside a chunk: the workers are owned, so the chunk's
        // thread runs every chunk of it
        let nested = with_threads(4, || {
            run_chunked(4096, 1, |_, _| (thread::current().id(), threads_of_a_call()))
        });
        assert_eq!(nested.len(), 4);
        for (outer, inner) in &nested {
            assert_eq!(inner.len(), 4);
            assert!(inner.iter().all(|id| id == outer));
        }
        // a call from another thread while chunk 0 of a call holds the
        // workers: it must neither wait for them nor borrow them
        let (held, released) = (Barrier::new(2), Barrier::new(2));
        let concurrent = with_threads(4, || {
            thread::scope(|scope| {
                scope.spawn(|| {
                    run_chunked(4096, 1, |start, _| {
                        if start == 0 {
                            held.wait();
                            released.wait();
                        }
                    })
                });
                held.wait();
                let ran_on = threads_of_a_call();
                released.wait();
                ran_on
            })
        });
        assert_eq!(concurrent.len(), 4);
        assert!(concurrent.iter().all(|&id| id == thread::current().id()));
    }

    #[test]
    fn a_panicking_chunk_reaches_the_caller_and_the_pool_survives() {
        let _serial = serial();
        for bad in [0, 1, 3] {
            let call = || {
                run_chunked(4096, 1, |start, _| {
                    assert!(start != bad * 1024, "chunk {bad}");
                })
            };
            let payload = with_threads(4, || std::panic::catch_unwind(call)).unwrap_err();
            let message = payload.downcast_ref::<String>().expect("a formatted panic");
            assert_eq!(*message, format!("chunk {bad}"));
            let ran_on = with_threads(4, threads_of_a_call);
            assert_eq!(ran_on.len(), 4);
            assert!(ran_on[1..].iter().all(|&id| id != thread::current().id()));
        }
    }

    #[test]
    fn slice_par_iter_reduce() {
        let _serial = serial();
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
