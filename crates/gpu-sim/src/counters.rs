//! Access-pattern counters recorded by the functional execution.
//!
//! Hot-path design. Every simulated memory operation used to `fetch_add`
//! straight into one shared set of eight contiguous `AtomicU64`s — a
//! single cache line hammered by every Rayon worker (false sharing) and
//! one locked RMW per counted operation even when uncontended. The
//! current scheme has two layers:
//!
//! 1. each [`crate::GroupCtx`] accumulates into plain cells
//!    ([`LocalCounters`], `Cell<u64>` — no atomics at all) owned by the
//!    launch driver and shared by every group of one scheduler chunk;
//!    the accumulator flushes **once per chunk**;
//! 2. the flush lands in a per-worker, cache-line-padded *stripe* of the
//!    shared [`KernelCounters`], so concurrent retirements on different
//!    workers never touch the same line.
//!
//! [`KernelCounters::snapshot`] sums the stripes after the launch joins
//! (the join provides the happens-before edge; stripe increments are
//! `Relaxed` statistics, not synchronization). Totals are bit-identical
//! to the old per-op scheme — `u64` addition is associative and
//! commutative — so modeled times, replay hints and the sanitizer's
//! off-mode billing assertions are unchanged.
//!
//! Snapshots must be *quiesced*: summing stripes while a launch is in
//! flight could observe, say, `cas_ops` incremented but `cas_failed` not
//! (a torn multi-field read). [`KernelCounters::snapshot`] debug-asserts
//! that no [`LaunchGuard`] is outstanding.

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::OnceLock;

/// One cache-line-padded stripe of live counters. 128-byte alignment
/// covers the adjacent-line prefetcher pairing on x86 and the 128-byte
/// lines of some ARM parts.
#[derive(Debug, Default)]
#[repr(align(128))]
struct CounterCell {
    transactions: AtomicU64,
    stream_bytes: AtomicU64,
    cas_ops: AtomicU64,
    cas_failed: AtomicU64,
    atomic_ops: AtomicU64,
    cold_atomics: AtomicU64,
    group_steps: AtomicU64,
    groups: AtomicU64,
    /// Deepest chain of flag waits, a maximum over the launch.
    chain: AtomicU64,
}

/// Number of stripes: the worker-thread count rounded up to a power of
/// two (cheap masking), capped so a per-launch `KernelCounters` stays a
/// few KiB. Computed once — it only affects contention, never totals.
fn stripe_count() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
            .next_power_of_two()
            .clamp(1, 64)
    })
}

/// Stable per-thread stripe index. Threads are assigned round-robin on
/// first use — the rayon shim's workers live as long as the process — and
/// the id is masked by the stripe count, so other threads that launch
/// cycle through the stripes instead of piling onto one.
fn stripe_id() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    STRIPE.with(|s| {
        let mut id = s.get();
        if id == usize::MAX {
            id = NEXT.fetch_add(1, Relaxed);
            s.set(id);
        }
        id
    })
}

/// Live counters for one kernel launch, striped per worker.
#[derive(Debug)]
pub struct KernelCounters {
    cells: Box<[CounterCell]>,
    /// Launches currently executing against these counters (see
    /// [`KernelCounters::launch_guard`]).
    in_flight: AtomicU64,
}

impl Default for KernelCounters {
    fn default() -> Self {
        Self::new()
    }
}

/// RAII marker for a launch executing against a [`KernelCounters`];
/// while any guard is alive, [`KernelCounters::snapshot`] is a torn
/// multi-field read and debug-asserts.
#[derive(Debug)]
pub struct LaunchGuard<'c> {
    counters: &'c KernelCounters,
}

impl Drop for LaunchGuard<'_> {
    fn drop(&mut self) {
        self.counters.in_flight.fetch_sub(1, Relaxed);
    }
}

impl KernelCounters {
    /// Fresh zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        let n = stripe_count();
        let mut cells = Vec::with_capacity(n);
        cells.resize_with(n, CounterCell::default);
        Self {
            cells: cells.into_boxed_slice(),
            in_flight: AtomicU64::new(0),
        }
    }

    /// Marks a launch as executing against these counters until the
    /// returned guard drops. [`KernelCounters::snapshot`] debug-asserts
    /// no guard is outstanding (quiesce-before-snapshot).
    #[must_use]
    pub fn launch_guard(&self) -> LaunchGuard<'_> {
        self.in_flight.fetch_add(1, Relaxed);
        LaunchGuard { counters: self }
    }

    /// The calling thread's stripe.
    #[inline]
    fn cell(&self) -> &CounterCell {
        // stripe_count() is a power of two and cells.len() == stripe_count()
        &self.cells[stripe_id() & (self.cells.len() - 1)]
    }

    /// Records that a group ran to completion.
    #[inline]
    pub fn add_group(&self) {
        self.cell().groups.fetch_add(1, Relaxed);
    }

    /// Records that `n` groups ran to completion (one RMW for a whole
    /// scheduler chunk).
    #[inline]
    pub fn add_groups(&self, n: u64) {
        self.cell().groups.fetch_add(n, Relaxed);
    }

    /// Immutable snapshot for the timing model.
    ///
    /// Must be taken *quiesced* — after every launch against these
    /// counters has joined. A snapshot concurrent with a live launch is a
    /// torn multi-field read (it can observe `cas_ops` incremented but
    /// `cas_failed` not); debug builds assert against it.
    #[must_use]
    pub fn snapshot(&self) -> CounterSnapshot {
        self.sum(|cell| cell.load(Relaxed))
    }

    /// [`Self::snapshot`] that zeroes every stripe as it reads it, so the
    /// counters can serve another launch.
    pub(crate) fn drain(&self) -> CounterSnapshot {
        self.sum(|cell| cell.swap(0, Relaxed))
    }

    /// The deepest chain of flag waits any group of the launch ended
    /// ([`LocalCounters::note_chain`]), zeroing it like [`Self::drain`].
    pub(crate) fn drain_chain(&self) -> u64 {
        self.cells
            .iter()
            .map(|cell| cell.chain.swap(0, Relaxed))
            .max()
            .unwrap_or(0)
    }

    fn sum(&self, read: impl Fn(&AtomicU64) -> u64) -> CounterSnapshot {
        debug_assert_eq!(
            self.in_flight.load(Relaxed),
            0,
            "KernelCounters::snapshot() while a launch is in flight — \
             the multi-field read would be torn; join the launch first"
        );
        let mut s = CounterSnapshot::default();
        for cell in &self.cells {
            s.transactions += read(&cell.transactions);
            s.stream_bytes += read(&cell.stream_bytes);
            s.cas_ops += read(&cell.cas_ops);
            s.cas_failed += read(&cell.cas_failed);
            s.atomic_ops += read(&cell.atomic_ops);
            s.cold_atomics += read(&cell.cold_atomics);
            s.group_steps += read(&cell.group_steps);
            s.groups += read(&cell.groups);
        }
        s
    }
}

/// Per-group counter accumulator: plain `Cell<u64>`s a single
/// [`crate::GroupCtx`] increments without any atomic traffic, flushed
/// once into a [`KernelCounters`] stripe when the group retires.
#[derive(Debug, Default)]
pub struct LocalCounters {
    transactions: Cell<u64>,
    stream_bytes: Cell<u64>,
    cas_ops: Cell<u64>,
    cas_failed: Cell<u64>,
    atomic_ops: Cell<u64>,
    cold_atomics: Cell<u64>,
    group_steps: Cell<u64>,
    chain: Cell<u64>,
}

/// `cell += n` on a `Cell<u64>`.
#[inline]
fn bump(cell: &Cell<u64>, n: u64) {
    cell.set(cell.get().wrapping_add(n));
}

impl LocalCounters {
    /// Fresh zeroed accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `n` irregular 32-byte transactions.
    #[inline]
    pub fn add_transactions(&self, n: u64) {
        bump(&self.transactions, n);
    }

    /// Records `bytes` of fully coalesced streaming traffic.
    #[inline]
    pub fn add_stream_bytes(&self, bytes: u64) {
        bump(&self.stream_bytes, bytes);
    }

    /// Records one CAS, with success flag.
    #[inline]
    pub fn add_cas(&self, success: bool) {
        bump(&self.cas_ops, 1);
        if !success {
            bump(&self.cas_failed, 1);
        }
    }

    /// Records one warm (L2-resident) non-CAS global atomic.
    #[inline]
    pub fn add_atomic(&self) {
        bump(&self.atomic_ops, 1);
    }

    /// Records one cold non-CAS global atomic.
    #[inline]
    pub fn add_cold_atomic(&self) {
        bump(&self.cold_atomics, 1);
    }

    /// Records `n` dependent round-trips for the issuing group.
    #[inline]
    pub fn add_steps(&self, n: u64) {
        bump(&self.group_steps, n);
    }

    /// Records that a wait ends a chain of `depth` dependent flag waits
    /// (`GroupCtx::poll`); the launch keeps the deepest.
    #[inline]
    pub fn note_chain(&self, depth: u64) {
        self.chain.set(self.chain.get().max(depth));
    }

    /// The deepest chain of waits noted since the last flush.
    #[must_use]
    pub fn chain(&self) -> u64 {
        self.chain.get()
    }

    /// The accumulated values of a launch of `groups` groups that ran
    /// against this accumulator alone — what [`KernelCounters::snapshot`]
    /// reads after [`Self::flush_into`] and `add_groups(groups)`.
    #[must_use]
    pub fn snapshot(&self, groups: u64) -> CounterSnapshot {
        CounterSnapshot {
            transactions: self.transactions.get(),
            stream_bytes: self.stream_bytes.get(),
            cas_ops: self.cas_ops.get(),
            cas_failed: self.cas_failed.get(),
            atomic_ops: self.atomic_ops.get(),
            cold_atomics: self.cold_atomics.get(),
            group_steps: self.group_steps.get(),
            groups,
        }
    }

    /// Flushes the accumulated values into `sink`'s stripe for the
    /// calling worker and zeroes the accumulator. Zero fields are
    /// skipped, so a group that never issued a CAS costs no CAS-counter
    /// RMW at all.
    pub fn flush_into(&self, sink: &KernelCounters) {
        let cell = sink.cell();
        let pairs: [(&Cell<u64>, &AtomicU64); 7] = [
            (&self.transactions, &cell.transactions),
            (&self.stream_bytes, &cell.stream_bytes),
            (&self.cas_ops, &cell.cas_ops),
            (&self.cas_failed, &cell.cas_failed),
            (&self.atomic_ops, &cell.atomic_ops),
            (&self.cold_atomics, &cell.cold_atomics),
            (&self.group_steps, &cell.group_steps),
        ];
        for (local, shared) in pairs {
            let v = local.take();
            if v != 0 {
                shared.fetch_add(v, Relaxed);
            }
        }
        let chain = self.chain.take();
        if chain != 0 {
            cell.chain.fetch_max(chain, Relaxed);
        }
    }
}

/// Frozen counter values after a launch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Irregular 32-byte transactions.
    pub transactions: u64,
    /// Coalesced streaming bytes.
    pub stream_bytes: u64,
    /// CAS operations issued.
    pub cas_ops: u64,
    /// CAS operations that lost their race.
    pub cas_failed: u64,
    /// Warm non-CAS global atomics.
    pub atomic_ops: u64,
    /// Cold non-CAS global atomics.
    pub cold_atomics: u64,
    /// Dependent round-trips summed over groups.
    pub group_steps: u64,
    /// Groups executed.
    pub groups: u64,
}

impl CounterSnapshot {
    /// Total bytes attributable to irregular transactions
    /// (`transactions × 32`).
    #[must_use]
    pub fn random_bytes(&self, transaction_bytes: u64) -> u64 {
        self.transactions * transaction_bytes
    }

    /// Mean dependent steps per group — the simulated probe-chain length.
    #[must_use]
    pub fn steps_per_group(&self) -> f64 {
        if self.groups == 0 {
            0.0
        } else {
            self.group_steps as f64 / self.groups as f64
        }
    }

    /// Element-wise sum, used when a logical operation spans several
    /// launches (e.g. the m passes of the binary multisplit).
    #[must_use]
    pub fn merged(self, other: Self) -> Self {
        Self {
            transactions: self.transactions + other.transactions,
            stream_bytes: self.stream_bytes + other.stream_bytes,
            cas_ops: self.cas_ops + other.cas_ops,
            cas_failed: self.cas_failed + other.cas_failed,
            atomic_ops: self.atomic_ops + other.atomic_ops,
            cold_atomics: self.cold_atomics + other.cold_atomics,
            group_steps: self.group_steps + other.group_steps,
            groups: self.groups + other.groups,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_increments() {
        let c = KernelCounters::new();
        let l = LocalCounters::new();
        l.add_transactions(3);
        l.add_stream_bytes(128);
        l.add_cas(true);
        l.add_cas(false);
        l.add_atomic();
        l.add_steps(5);
        l.flush_into(&c);
        c.add_group();
        let s = c.snapshot();
        assert_eq!(s.transactions, 3);
        assert_eq!(s.stream_bytes, 128);
        assert_eq!(s.cas_ops, 2);
        assert_eq!(s.cas_failed, 1);
        assert_eq!(s.atomic_ops, 1);
        assert_eq!(s.group_steps, 5);
        assert_eq!(s.groups, 1);
        assert_eq!(s.random_bytes(32), 96);
    }

    #[test]
    fn merged_adds_componentwise() {
        let a = CounterSnapshot {
            transactions: 1,
            stream_bytes: 2,
            cas_ops: 3,
            cas_failed: 1,
            atomic_ops: 4,
            cold_atomics: 2,
            group_steps: 5,
            groups: 6,
        };
        let b = a;
        let m = a.merged(b);
        assert_eq!(m.transactions, 2);
        assert_eq!(m.groups, 12);
    }

    #[test]
    fn steps_per_group_handles_zero_groups() {
        let s = CounterSnapshot::default();
        assert_eq!(s.steps_per_group(), 0.0);
    }

    #[test]
    fn counters_are_thread_safe() {
        let c = std::sync::Arc::new(KernelCounters::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = std::sync::Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    let l = LocalCounters::new();
                    l.add_transactions(1);
                    l.add_steps(2);
                    l.flush_into(&c);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = c.snapshot();
        assert_eq!(s.transactions, 4000);
        assert_eq!(s.group_steps, 8000);
    }

    #[test]
    fn local_counters_flush_exact_totals() {
        let c = KernelCounters::new();
        let l = LocalCounters::new();
        l.add_transactions(7);
        l.add_stream_bytes(64);
        l.add_cas(true);
        l.add_cas(false);
        l.add_atomic();
        l.add_cold_atomic();
        l.add_steps(3);
        // reading the accumulator directly is what the flush delivers
        let direct = l.snapshot(0);
        l.flush_into(&c);
        // second flush is a no-op: the accumulator was drained
        l.flush_into(&c);
        let s = c.snapshot();
        assert_eq!(direct, s);
        assert_eq!(s.transactions, 7);
        assert_eq!(s.stream_bytes, 64);
        assert_eq!(s.cas_ops, 2);
        assert_eq!(s.cas_failed, 1);
        assert_eq!(s.atomic_ops, 1);
        assert_eq!(s.cold_atomics, 1);
        assert_eq!(s.group_steps, 3);
    }

    #[test]
    fn flushes_from_many_threads_sum_exactly() {
        // the per-worker stripes must never lose an increment, whatever
        // stripe each thread lands on
        let c = std::sync::Arc::new(KernelCounters::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = std::sync::Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    let l = LocalCounters::new();
                    l.add_transactions(2);
                    l.add_cas(false);
                    l.flush_into(&c);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = c.snapshot();
        assert_eq!(s.transactions, 8000);
        assert_eq!(s.cas_ops, 4000);
        assert_eq!(s.cas_failed, 4000);
    }

    #[test]
    #[cfg(debug_assertions)]
    fn snapshot_during_live_launch_is_rejected() {
        // regression: a snapshot taken concurrently with a launch is a
        // torn multi-field read (cas_ops without cas_failed); with a
        // LaunchGuard outstanding it must debug-assert
        let c = KernelCounters::new();
        let guard = c.launch_guard();
        let torn = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| c.snapshot()));
        assert!(torn.is_err(), "unquiesced snapshot must be rejected");
        drop(guard);
        let _ = c.snapshot(); // quiesced: fine
    }

    #[test]
    fn launch_guard_nesting_quiesces_only_when_all_drop() {
        let c = KernelCounters::new();
        let a = c.launch_guard();
        let b = c.launch_guard();
        drop(a);
        drop(b);
        let s = c.snapshot();
        assert_eq!(s, CounterSnapshot::default());
    }
}
