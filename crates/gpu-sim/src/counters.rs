//! Access-pattern counters recorded by the functional execution.
//!
//! Every [`crate::GroupCtx`] counts into plain cells (`LocalCounters`,
//! `Cell<u64>` — no atomics at all on the hot path) that the launch
//! driver owns and shares among the groups of one scheduler chunk, or one
//! group under a stepwise schedule. When the chunk or the group is done,
//! the driver flushes the cells into the launch's one `KernelCounters`,
//! a lock around a [`CounterSnapshot`] on the launch's own stack. A pool
//! launch flushes at most once per 1 024 groups and a stepwise one once
//! per group, while that group alone holds the turn, so the lock is
//! hardly ever contended, and a launch allocates nothing for its counters.
//!
//! Totals are `u64` sums and one maximum, whatever order the flushes come
//! in, so modeled times, replay hints and the sanitizer's off-mode billing
//! assertions do not depend on the interleaving. A snapshot is read under
//! the lock, so it never sees one flush in part (`cas_ops` without its
//! `cas_failed`).

use parking_lot::Mutex;
use std::cell::Cell;

/// The counters of one launch: the totals its chunks or groups have
/// flushed so far and the deepest chain of flag waits any of them ended.
#[derive(Debug, Default)]
pub(crate) struct KernelCounters(Mutex<(CounterSnapshot, u64)>);

impl KernelCounters {
    /// The totals flushed so far and the deepest chain of waits.
    pub(crate) fn snapshot(&self) -> (CounterSnapshot, u64) {
        *self.0.lock()
    }
}

/// Counter accumulator of one scheduler chunk, or of one group under a
/// stepwise schedule: plain `Cell<u64>`s the groups' [`crate::GroupCtx`]s
/// increment without any atomic traffic, flushed into the launch's
/// [`KernelCounters`] when the chunk or the group is done.
#[derive(Debug, Default)]
pub(crate) struct LocalCounters {
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

    /// Adds the accumulated values and `groups`, the groups that ran
    /// against them, to `sink`'s totals and zeroes the accumulator.
    pub fn flush_into(&self, sink: &KernelCounters, groups: u64) {
        let add = CounterSnapshot {
            transactions: self.transactions.take(),
            stream_bytes: self.stream_bytes.take(),
            cas_ops: self.cas_ops.take(),
            cas_failed: self.cas_failed.take(),
            atomic_ops: self.atomic_ops.take(),
            cold_atomics: self.cold_atomics.take(),
            group_steps: self.group_steps.take(),
            groups,
        };
        let chain = self.chain.take();
        let mut totals = sink.0.lock();
        totals.0 = totals.0.merged(add);
        totals.1 = totals.1.max(chain);
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
        let c = KernelCounters::default();
        let l = LocalCounters::new();
        l.add_transactions(3);
        l.add_stream_bytes(128);
        l.add_cas(true);
        l.add_cas(false);
        l.add_atomic();
        l.add_steps(5);
        l.note_chain(2);
        l.flush_into(&c, 1);
        let (s, chain) = c.snapshot();
        assert_eq!(s.transactions, 3);
        assert_eq!(s.stream_bytes, 128);
        assert_eq!(s.cas_ops, 2);
        assert_eq!(s.cas_failed, 1);
        assert_eq!(s.atomic_ops, 1);
        assert_eq!(s.group_steps, 5);
        assert_eq!(s.groups, 1);
        assert_eq!(s.random_bytes(32), 96);
        assert_eq!(chain, 2);
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
        let c = KernelCounters::default();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        let l = LocalCounters::new();
                        l.add_transactions(1);
                        l.add_steps(2);
                        l.flush_into(&c, 1);
                    }
                });
            }
        });
        let (s, _) = c.snapshot();
        assert_eq!(s.transactions, 4000);
        assert_eq!(s.group_steps, 8000);
    }

    #[test]
    fn local_counters_flush_exact_totals() {
        let (c, again) = (KernelCounters::default(), KernelCounters::default());
        let l = LocalCounters::new();
        l.add_transactions(7);
        l.add_stream_bytes(64);
        l.add_cas(true);
        l.add_cas(false);
        l.add_atomic();
        l.add_cold_atomic();
        l.add_steps(3);
        l.note_chain(4);
        l.flush_into(&c, 2);
        // a second flush delivers nothing: the first zeroed the accumulator
        l.flush_into(&again, 0);
        assert_eq!(again.snapshot(), (CounterSnapshot::default(), 0));
        let (s, chain) = c.snapshot();
        assert_eq!(s.transactions, 7);
        assert_eq!(s.stream_bytes, 64);
        assert_eq!(s.cas_ops, 2);
        assert_eq!(s.cas_failed, 1);
        assert_eq!(s.atomic_ops, 1);
        assert_eq!(s.cold_atomics, 1);
        assert_eq!(s.group_steps, 3);
        assert_eq!(s.groups, 2);
        assert_eq!(chain, 4);
    }

    #[test]
    fn flushes_from_many_threads_sum_exactly() {
        // concurrent flushes must never lose an increment, whatever order
        // they take the lock in
        let c = KernelCounters::default();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..500 {
                        let l = LocalCounters::new();
                        l.add_transactions(2);
                        l.add_cas(false);
                        l.flush_into(&c, 1);
                    }
                });
            }
        });
        let (s, _) = c.snapshot();
        assert_eq!(s.transactions, 8000);
        assert_eq!(s.cas_ops, 4000);
        assert_eq!(s.cas_failed, 4000);
        assert_eq!(s.groups, 4000);
    }

    /// A snapshot taken while other threads flush reads whole flushes
    /// only: each flush adds as many failed CASes as CASes, so no snapshot
    /// may see one without the other.
    #[test]
    fn a_snapshot_beside_live_flushes_is_never_torn() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let c = KernelCounters::default();
        let flushing = AtomicUsize::new(4);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..2000 {
                        let l = LocalCounters::new();
                        l.add_cas(false);
                        l.add_cas(false);
                        l.flush_into(&c, 1);
                    }
                    flushing.fetch_sub(1, Ordering::Release);
                });
            }
            let mut reads = 0u64;
            while flushing.load(Ordering::Acquire) > 0 || reads == 0 {
                let (s, _) = c.snapshot();
                assert_eq!(s.cas_ops, s.cas_failed, "snapshot {reads} is torn");
                assert_eq!(s.cas_ops, 2 * s.groups, "snapshot {reads} is torn");
                reads += 1;
            }
        });
        let (s, _) = c.snapshot();
        assert_eq!((s.cas_ops, s.cas_failed, s.groups), (16_000, 16_000, 8000));
    }
}
