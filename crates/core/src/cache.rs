//! Hot-key host-side cache tier in front of any [`MapService`] backend.
//!
//! GPU lookups are throughput devices: even a coalesced retrieve costs a
//! kernel launch plus PCIe/NVLink round trips. Under Zipfian traffic a
//! tiny host-resident shadow of the hottest keys absorbs most reads
//! before they reach the device. [`CachedMap`] wraps a backend behind the
//! same [`MapService`] trait, so the wd-serve front door can stack it
//! under its `Server` without code changes.
//!
//! ## Design
//!
//! * **Fixed capacity, deterministic replacement.** Entries live in
//!   `BTreeMap`/`BTreeSet` structures keyed by an explicit priority tuple
//!   `(class, stamp, key)` — no hash-iteration order anywhere, so one
//!   seed gives one eviction sequence on every host ([`CachePolicy::Lru`]
//!   evicts the least-recently-touched entry, [`CachePolicy::Lfu`] the
//!   least-frequently-touched one, ties broken oldest-first).
//! * **Read-driven admission.** Only values the backend actually
//!   returned on a get are admitted; writes update an entry already
//!   present but never admit (a write-heavy scan must not flush the hot
//!   read set).
//! * **Write-through invalidation.** Every mutation goes to the backend
//!   *first*; on success the shadow is updated (put of a cached key) or
//!   dropped (delete). If the backend reports an error the batch may
//!   have been partially applied, so every key it mentions is
//!   invalidated — the cache never guesses.
//!
//! ## Why cached ≡ uncached
//!
//! [`MapService`] methods take `&mut self` and the cache owns its
//! backend exclusively, so every mutation of the backend flows through
//! the cache and the shadow is exact: a cached `(k, v)` always equals
//! the backend's live value for `k`. Backend-internal reorganisations —
//! incremental resize steps, tombstone compaction, quarantine-and-migrate
//! fault recovery — preserve the key→value mapping by contract (their
//! own equivalence suites prove it), so they cannot invalidate the
//! shadow either. Duplicate keys inside one put batch are the one
//! genuinely racy case (last writer wins on the kernel's event horizon,
//! not slice order), so those keys are invalidated rather than updated;
//! only a direct `put_batch` caller can send them —
//! [`MapService::execute`] sends each key's last write alone, and
//! answers same-key reads after it without consulting backend or shadow.
//! When an `execute` fails, an unspecified subset of the call's final
//! writes may have been applied; the failed [`MapService::apply`]
//! invalidates every key it writes or erases and admits none of its
//! answers, so the shadow still holds no value the backend does not.
//! The wd-serve `cache_equivalence` suite checks all of this end to end
//! across seeds × schedules × fault plans, including mid-trace resizes
//! and kill-plan migration traffic.

use crate::service::{answer, check_call, Applied, MapService, OpError, HELD_SCRATCH};
use crate::stats::DegradedStats;
use std::collections::{BTreeMap, BTreeSet};

/// Replacement policy of the hot-key cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachePolicy {
    /// Evict the least-recently-touched entry.
    Lru,
    /// Evict the least-frequently-touched entry (ties: oldest touch).
    Lfu,
}

impl CachePolicy {
    /// Label used in metrics and benchmark tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            CachePolicy::Lru => "lru",
            CachePolicy::Lfu => "lfu",
        }
    }
}

/// Counters describing cache effectiveness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Gets answered from the shadow (no backend work).
    pub hits: u64,
    /// Gets forwarded to the backend.
    pub misses: u64,
    /// Values admitted after a backend hit.
    pub admissions: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries dropped by write-through invalidation.
    pub invalidations: u64,
    /// Cached values updated in place by a put.
    pub write_updates: u64,
}

impl CacheStats {
    /// Fraction of gets answered from the shadow.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    value: u32,
    freq: u64,
    stamp: u64,
}

/// A fixed-capacity deterministic hot-key cache wrapping a
/// [`MapService`] backend (see the module docs for the design and the
/// coherence argument).
#[derive(Debug)]
pub struct CachedMap<S> {
    backend: S,
    capacity: usize,
    policy: CachePolicy,
    entries: BTreeMap<u32, Entry>,
    /// Eviction order: `(class, stamp, key)` with the victim at
    /// `first()`. `class` is the touch count under LFU and constant 0
    /// under LRU (reducing the order to stamps alone).
    order: BTreeSet<(u64, u64, u32)>,
    tick: u64,
    stats: CacheStats,
    /// The misses of a call of a serving flush's size, kept across calls.
    misses: Misses,
}

/// The reads of one call the shadow could not answer.
#[derive(Debug, Default)]
struct Misses {
    /// Their keys, as the backend is asked them.
    keys: Vec<u32>,
    /// Their positions among the call's reads.
    slots: Vec<usize>,
    /// The backend's answers.
    answers: Vec<Option<u32>>,
}

impl Misses {
    /// Itself, emptied for the next call — or nothing, if a bulk call grew
    /// it past what a cache keeps between calls.
    fn cleared(mut self) -> Self {
        if self.keys.capacity() > HELD_SCRATCH {
            return Self::default();
        }
        self.keys.clear();
        self.slots.clear();
        self.answers.clear();
        self
    }
}

impl<S: MapService> CachedMap<S> {
    /// Wraps `backend` with a hot-key cache of at most `capacity`
    /// entries (a capacity of 0 disables caching: every get forwards).
    #[must_use]
    pub fn new(backend: S, capacity: usize, policy: CachePolicy) -> Self {
        Self {
            backend,
            capacity,
            policy,
            entries: BTreeMap::new(),
            order: BTreeSet::new(),
            tick: 0,
            stats: CacheStats::default(),
            misses: Misses::default(),
        }
    }

    /// The wrapped backend.
    #[must_use]
    pub fn backend(&self) -> &S {
        &self.backend
    }

    /// Mutable access to the wrapped backend.
    ///
    /// Mutating the backend's *contents* through this reference bypasses
    /// write-through invalidation and voids the coherence argument; it
    /// exists for control-plane calls (resize policy, fault plans) that
    /// do not change the key→value mapping.
    pub fn backend_mut(&mut self) -> &mut S {
        &mut self.backend
    }

    /// Cache effectiveness counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Live cached entries.
    #[must_use]
    pub fn cached_len(&self) -> usize {
        self.entries.len()
    }

    /// Configured capacity.
    #[must_use]
    pub fn cache_capacity(&self) -> usize {
        self.capacity
    }

    /// The replacement policy.
    #[must_use]
    pub fn policy(&self) -> CachePolicy {
        self.policy
    }

    fn order_class(&self, freq: u64) -> u64 {
        match self.policy {
            CachePolicy::Lru => 0,
            CachePolicy::Lfu => freq,
        }
    }

    /// Re-keys `key`'s order tuple after a touch.
    fn touch(&mut self, key: u32) {
        let policy = self.policy;
        let tick = self.tick;
        if let Some(entry) = self.entries.get_mut(&key) {
            let class_of = |freq: u64| match policy {
                CachePolicy::Lru => 0,
                CachePolicy::Lfu => freq,
            };
            let old = (class_of(entry.freq), entry.stamp, key);
            entry.freq += 1;
            entry.stamp = tick;
            let new = (class_of(entry.freq), entry.stamp, key);
            self.order.remove(&old);
            self.order.insert(new);
            self.tick = tick + 1;
        }
    }

    /// Admits (or refreshes) `key → value` after a backend hit.
    fn admit(&mut self, key: u32, value: u32) {
        if self.capacity == 0 {
            return;
        }
        if self.entries.contains_key(&key) {
            if let Some(entry) = self.entries.get_mut(&key) {
                entry.value = value;
            }
            self.touch(key);
            return;
        }
        if self.entries.len() >= self.capacity {
            if let Some(&victim) = self.order.first() {
                self.order.remove(&victim);
                self.entries.remove(&victim.2);
                self.stats.evictions += 1;
            }
        }
        let entry = Entry {
            value,
            freq: 1,
            stamp: self.tick,
        };
        self.tick += 1;
        self.entries.insert(key, entry);
        self.order
            .insert((self.order_class(entry.freq), entry.stamp, key));
        self.stats.admissions += 1;
    }

    /// Drops `key` from the shadow, if present.
    fn invalidate(&mut self, key: u32) {
        if let Some(entry) = self.entries.remove(&key) {
            self.order
                .remove(&(self.order_class(entry.freq), entry.stamp, key));
            self.stats.invalidations += 1;
        }
    }

    /// Answers what it can of `keys` from the shadow into `values`, and
    /// notes the rest in `misses`.
    fn lookup(&mut self, keys: &[u32], values: &mut [Option<u32>], misses: &mut Misses) {
        for (i, &k) in keys.iter().enumerate() {
            if let Some(entry) = self.entries.get(&k) {
                values[i] = Some(entry.value);
                self.stats.hits += 1;
                self.touch(k);
            } else {
                misses.keys.push(k);
                misses.slots.push(i);
                self.stats.misses += 1;
            }
        }
    }

    /// Fills the backend's answers to the `misses` of `keys` into
    /// `values`, admitting every hit.
    fn admit_answers(&mut self, keys: &[u32], misses: &Misses, values: &mut [Option<u32>]) {
        let mutation = self.backend.mutation();
        for (&slot, &value) in misses.slots.iter().zip(&misses.answers) {
            answer(&mut values[slot], value, mutation);
            if let Some(v) = value {
                self.admit(keys[slot], v);
            }
        }
    }

    /// Write-through after the backend applied `pairs`: a cached key
    /// takes its new value, a key the batch wrote twice is dropped.
    fn note_puts(&mut self, pairs: &[(u32, u32)]) {
        // keys in strictly ascending order, as `execute` sends them, are
        // distinct: no count needed
        let dup_count = (!pairs.is_sorted_by(|a, b| a.0 < b.0)).then(|| {
            let mut count: BTreeMap<u32, u32> = BTreeMap::new();
            for &(k, _) in pairs {
                *count.entry(k).or_default() += 1;
            }
            count
        });
        for &(k, v) in pairs {
            if dup_count
                .as_ref()
                .is_some_and(|count| count.get(&k) > Some(&1))
            {
                // duplicate keys race in the kernel (last writer
                // on the event horizon, not slice order) — the
                // shadow must not guess the winner
                self.invalidate(k);
            } else if let Some(entry) = self.entries.get_mut(&k) {
                entry.value = v;
                self.stats.write_updates += 1;
            }
        }
    }

    /// After a failed write the batch may be partially applied: the
    /// shadow forgets every key it mentions.
    fn forget_puts(&mut self, pairs: &[(u32, u32)]) {
        for &(k, _) in pairs {
            self.invalidate(k);
        }
    }
}

impl<S: MapService> MapService for CachedMap<S> {
    /// The shadow answers what it can; the misses, the puts and the erases
    /// reach the backend in **one** call. The backend goes first: on an
    /// error the call may be partially applied, so the shadow forgets
    /// every key it writes or erases and admits no answer. On success the
    /// answers are admitted before the write-through, so a key read and
    /// written in one call enters with its old value and is then updated,
    /// and an erased key is dropped last.
    fn apply(
        &mut self,
        reads: &[u32],
        puts: &[(u32, u32)],
        erases: &[u32],
        values: &mut [Option<u32>],
        hits: &mut [bool],
    ) -> Result<Applied, OpError> {
        // a reserved key fails the call here, before the shadow answers
        // or forgets anything
        check_call(reads, puts, erases, values, hits)?;
        let mut misses = std::mem::take(&mut self.misses);
        self.lookup(reads, values, &mut misses);
        misses.answers.resize(misses.keys.len(), None);
        let done = if misses.keys.is_empty() && puts.is_empty() && erases.is_empty() {
            // fully absorbed: no kernel launch, zero modeled device time
            Ok(Applied::default())
        } else {
            self.backend
                .apply(&misses.keys, puts, erases, &mut misses.answers, hits)
        };
        if done.is_ok() {
            self.admit_answers(reads, &misses, values);
            self.note_puts(puts);
        } else {
            self.forget_puts(puts);
        }
        // the erased keys go whether the backend succeeded or not — on an
        // error some may already be tombstoned
        for &k in erases {
            self.invalidate(k);
        }
        self.misses = misses.cleared();
        done
    }

    fn mutation(&self) -> Option<crate::Mutation> {
        self.backend.mutation()
    }

    fn live_len(&self) -> u64 {
        self.backend.live_len()
    }

    fn slot_capacity(&self) -> u64 {
        self.backend.slot_capacity()
    }

    fn degraded(&self) -> DegradedStats {
        self.backend.degraded()
    }

    fn occupancy_split(&self) -> crate::Occupancy {
        self.backend.occupancy_split()
    }

    fn resize_state(&self) -> crate::ResizeState {
        self.backend.resize_state()
    }

    fn request_grow(&mut self) -> Result<bool, OpError> {
        // resize migrates entries without changing the key→value map, so
        // the shadow stays valid across it
        self.backend.request_grow()
    }

    fn request_compact(&mut self) -> Result<bool, OpError> {
        self.backend.request_compact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::model::{ModelService, OneCall};
    use crate::service::Op;

    fn warmed(capacity: usize, policy: CachePolicy) -> CachedMap<ModelService> {
        let mut c = CachedMap::new(ModelService::default(), capacity, policy);
        c.put_batch(&[(1, 10), (2, 20), (3, 30), (4, 40)]).unwrap();
        c
    }

    #[test]
    fn repeat_gets_are_absorbed() {
        let mut c = warmed(8, CachePolicy::Lru);
        assert_eq!(c.get_batch(&[1]).unwrap().values, vec![Some(10)]);
        let before = c.backend().gets;
        assert_eq!(c.get_batch(&[1, 1, 1]).unwrap().values, vec![Some(10); 3]);
        assert_eq!(c.backend().gets, before, "cached hits must not reach the backend");
        assert_eq!(c.stats().hits, 3);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn misses_are_not_negative_cached() {
        let mut c = warmed(8, CachePolicy::Lru);
        assert_eq!(c.get_batch(&[99]).unwrap().values, vec![None]);
        assert_eq!(c.cached_len(), 0, "a backend miss must not be admitted");
        c.put_batch(&[(99, 9)]).unwrap();
        assert_eq!(c.get_batch(&[99]).unwrap().values, vec![Some(9)]);
    }

    #[test]
    fn puts_update_cached_values_in_place() {
        let mut c = warmed(8, CachePolicy::Lru);
        c.get_batch(&[2]).unwrap(); // admit
        c.put_batch(&[(2, 200)]).unwrap();
        let before = c.backend().gets;
        assert_eq!(c.get_batch(&[2]).unwrap().values, vec![Some(200)]);
        assert_eq!(c.backend().gets, before, "updated entry must stay cached");
        assert_eq!(c.stats().write_updates, 1);
    }

    #[test]
    fn duplicate_put_keys_invalidate_instead_of_guessing() {
        let mut c = warmed(8, CachePolicy::Lru);
        c.get_batch(&[3]).unwrap();
        c.put_batch(&[(3, 1), (5, 2), (3, 7)]).unwrap();
        assert_eq!(c.stats().invalidations, 1);
        // the next get re-reads whatever the backend settled on
        let v = c.get_batch(&[3]).unwrap().values[0];
        assert_eq!(v, c.backend().map.get(&3).copied());
    }

    #[test]
    fn deletes_invalidate() {
        let mut c = warmed(8, CachePolicy::Lru);
        c.get_batch(&[1]).unwrap();
        c.delete_batch(&[1]).unwrap();
        assert_eq!(c.get_batch(&[1]).unwrap().values, vec![None]);
    }

    #[test]
    fn failed_put_invalidates_every_batch_key() {
        let mut c = warmed(8, CachePolicy::Lru);
        c.get_batch(&[1, 2]).unwrap();
        assert_eq!(c.cached_len(), 2);
        c.backend_mut().fail_puts = true;
        assert!(c.put_batch(&[(1, 111), (2, 222)]).is_err());
        assert_eq!(c.cached_len(), 0, "error path must not trust the shadow");
    }

    #[test]
    fn lru_evicts_least_recently_touched() {
        let mut c = warmed(2, CachePolicy::Lru);
        c.get_batch(&[1]).unwrap();
        c.get_batch(&[2]).unwrap();
        c.get_batch(&[1]).unwrap(); // 1 now more recent than 2
        c.get_batch(&[3]).unwrap(); // evicts 2
        let before = c.backend().gets;
        c.get_batch(&[1, 3]).unwrap();
        assert_eq!(c.backend().gets, before, "1 and 3 must be resident");
        c.get_batch(&[2]).unwrap();
        assert_eq!(c.backend().gets, before + 1, "2 must have been evicted");
    }

    #[test]
    fn lfu_keeps_the_frequent_entry() {
        let mut c = warmed(2, CachePolicy::Lfu);
        c.get_batch(&[1, 1, 1]).unwrap(); // freq 3
        c.get_batch(&[2]).unwrap(); // freq 1
        c.get_batch(&[3]).unwrap(); // evicts 2 (lowest freq), not 1
        let before = c.backend().gets;
        c.get_batch(&[1]).unwrap();
        assert_eq!(c.backend().gets, before, "hot entry must survive under LFU");
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = warmed(0, CachePolicy::Lru);
        c.get_batch(&[1]).unwrap();
        c.get_batch(&[1]).unwrap();
        assert_eq!(c.cached_len(), 0);
        assert_eq!(c.stats().hits, 0);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn mixed_batch_merges_hits_and_misses_in_order() {
        let mut c = warmed(8, CachePolicy::Lru);
        c.get_batch(&[1, 3]).unwrap(); // admit 1 and 3
        let resp = c.get_batch(&[1, 2, 99, 3, 2]).unwrap();
        assert_eq!(
            resp.values,
            vec![Some(10), Some(20), None, Some(30), Some(20)]
        );
    }

    /// A cache over a backend of one call, keys 1..=4 stored and key 1
    /// cached.
    fn warmed_over_one_call() -> CachedMap<OneCall> {
        let mut c = CachedMap::new(OneCall::default(), 8, CachePolicy::Lru);
        c.put_batch(&[(1, 10), (2, 20), (3, 30), (4, 40)]).unwrap();
        c.get_batch(&[1]).unwrap();
        c.backend_mut().calls.clear();
        c
    }

    #[test]
    fn mixed_call_reaches_the_backend_once_with_the_misses_and_the_puts() {
        let mut c = warmed_over_one_call();
        let ops = [
            Op::Get { key: 1 },
            Op::Get { key: 2 },
            Op::Put { key: 3, value: 33 },
            Op::Get { key: 9 },
            Op::Delete { key: 4 },
        ];
        let (resp, _) = c.execute(&ops).unwrap();
        // key 1 is answered by the shadow: reads 2 and 9, put 3, erase 4
        assert_eq!(c.backend().calls, vec![[vec![2, 9], vec![3], vec![4]]]);
        assert_eq!(resp[0], crate::Response::Get { value: Some(10) });
        assert_eq!(resp[1], crate::Response::Get { value: Some(20) });
        assert_eq!(resp[3], crate::Response::Get { value: None });
        assert_eq!(resp[4], crate::Response::Delete { hit: true });
        assert_eq!((c.stats().hits, c.stats().misses), (1, 3));
    }

    #[test]
    fn mixed_call_whose_reads_all_hit_sends_the_puts_alone() {
        let mut c = warmed_over_one_call();
        let ops = [Op::Get { key: 1 }, Op::Put { key: 3, value: 33 }];
        let (resp, _) = c.execute(&ops).unwrap();
        assert_eq!(c.backend().calls, vec![[vec![], vec![3], vec![]]]);
        assert_eq!(resp[0], crate::Response::Get { value: Some(10) });
        assert_eq!(c.backend().map.get(&3), Some(&33));
    }

    #[test]
    fn key_read_and_written_in_one_call_is_admitted_old_then_updated() {
        let mut c = warmed_over_one_call();
        let before = c.stats();
        let ops = [Op::Get { key: 2 }, Op::Put { key: 2, value: 22 }];
        let (resp, _) = c.execute(&ops).unwrap();
        assert_eq!(c.backend().calls, vec![[vec![2], vec![2], vec![]]]);
        assert_eq!(resp[0], crate::Response::Get { value: Some(20) });
        let after = c.stats();
        assert_eq!(after.admissions, before.admissions + 1);
        assert_eq!(after.write_updates, before.write_updates + 1);
        assert_eq!(after.invalidations, before.invalidations);
        // the shadow holds the new value: no backend call for the re-read
        assert_eq!(c.get_batch(&[2]).unwrap().values, vec![Some(22)]);
        assert_eq!(c.backend().calls.len(), 1);
    }

    #[test]
    fn failed_mixed_call_invalidates_every_put_key() {
        let mut c = warmed_over_one_call();
        c.get_batch(&[2, 3]).unwrap();
        assert_eq!(c.cached_len(), 3);
        c.backend_mut().fail_puts = true;
        let ops = [
            Op::Get { key: 9 },
            Op::Put { key: 1, value: 11 },
            Op::Put { key: 2, value: 22 },
            Op::Delete { key: 3 },
        ];
        assert!(c.execute(&ops).is_err());
        assert_eq!(c.cached_len(), 0, "error path must not trust the shadow");
    }

    #[test]
    fn duplicate_put_keys_are_dropped_and_ascending_ones_updated() {
        let mut c = warmed(8, CachePolicy::Lru);
        c.get_batch(&[1, 2, 3]).unwrap();
        // out of order with a duplicate: key 2 races itself, so it goes
        c.put_batch(&[(3, 33), (2, 21), (1, 11), (2, 22)]).unwrap();
        assert_eq!(c.stats().invalidations, 1);
        assert_eq!(c.stats().write_updates, 2);
        // strictly ascending, as `execute` sends them: every key updated
        c.put_batch(&[(1, 12), (3, 34)]).unwrap();
        assert_eq!(c.stats().invalidations, 1);
        let before = c.backend().gets;
        assert_eq!(
            c.get_batch(&[1, 3]).unwrap().values,
            vec![Some(12), Some(34)]
        );
        assert_eq!(c.backend().gets, before, "both updated in the shadow");
    }

    #[test]
    fn execute_through_the_cache_matches_uncached() {
        let ops: Vec<Op> = (0..200u32)
            .map(|i| match i % 5 {
                0 | 1 => Op::Put {
                    key: i % 17,
                    value: i,
                },
                4 => Op::Delete { key: i % 13 },
                _ => Op::Get { key: i % 17 },
            })
            .collect();
        let mut plain = ModelService::default();
        let (want, _) = plain.execute(&ops).unwrap();
        for policy in [CachePolicy::Lru, CachePolicy::Lfu] {
            let mut cached = CachedMap::new(ModelService::default(), 4, policy);
            let (got, _) = cached.execute(&ops).unwrap();
            assert_eq!(got, want, "{} diverged", policy.label());
        }
    }
}
