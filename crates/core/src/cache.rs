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
//! * **Fixed capacity, deterministic replacement.** The shadow is a slab
//!   of slots that grows on demand up to the capacity and is then reused,
//!   so a call on a filled cache allocates nothing. Every slot sits in a
//!   *run*, an intrusive list of the slots of one order class, oldest
//!   touch first, and the runs are linked in ascending class order: the
//!   victim is the head of the first run. [`CachePolicy::Lru`] keeps one
//!   run (class 0) and evicts the least-recently-touched entry;
//!   [`CachePolicy::Lfu`]'s class is the touch count, so it evicts the
//!   least-frequently-touched entry, ties broken oldest-first. A key finds
//!   its slot through a hashed index that is only looked up, never
//!   iterated — no hash-iteration order anywhere, so one seed gives one
//!   eviction sequence on every host.
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
use std::collections::HashMap;

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

/// No slot, or no run: the end of a list.
const NIL: u32 = u32::MAX;

/// A cached entry, linked into its run.
#[derive(Debug, Clone, Copy)]
struct Slot {
    key: u32,
    value: u32,
    /// The run it is in.
    run: u32,
    /// The slots of its run touched just before and just after it; a free
    /// slot's `next` is the next free slot.
    prev: u32,
    next: u32,
}

/// The slots of one order class, oldest touch first.
#[derive(Debug, Clone, Copy)]
struct Run {
    /// The touch count under LFU, 0 under LRU.
    class: u64,
    /// Its oldest and its newest slot.
    head: u32,
    tail: u32,
    /// The runs of the next lower and the next higher class; a free run's
    /// `next` is the next free run.
    prev: u32,
    next: u32,
}

/// The cached entries in eviction order, in memory that grows with them up
/// to the cache's capacity and is reused from then on.
///
/// The victim is the head of the first run. A touch appends its entry to
/// the run of its new class — its own, the next one, or a new one right
/// after its own — and an admission appends to the first run, of the
/// lowest class. That is ascending `(class, stamp, key)` order with a fresh
/// stamp for every touch or admission, the tests' reference: within a
/// class, stamps are touch order.
#[derive(Debug)]
struct Shadow {
    slots: Vec<Slot>,
    /// As many as `slots`: a run in use holds a slot, so a slot that is
    /// about to start a run always finds a free one.
    runs: Vec<Run>,
    /// Key → slot; only looked up, never iterated.
    index: HashMap<u32, u32>,
    /// The run of the lowest class.
    first: u32,
    free_slots: u32,
    free_runs: u32,
}

impl Shadow {
    fn new() -> Self {
        Self {
            slots: Vec::new(),
            runs: Vec::new(),
            index: HashMap::new(),
            first: NIL,
            free_slots: NIL,
            free_runs: NIL,
        }
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    /// The slot of `key`, if it is cached.
    fn find(&self, key: u32) -> Option<u32> {
        self.index.get(&key).copied()
    }

    fn slot(&mut self, s: u32) -> &mut Slot {
        &mut self.slots[s as usize]
    }

    fn run(&mut self, r: u32) -> &mut Run {
        &mut self.runs[r as usize]
    }

    /// The slot an eviction takes.
    fn victim(&self) -> Option<u32> {
        (self.first != NIL).then(|| self.runs[self.first as usize].head)
    }

    /// Enters `key → value` at the newest end of the run of `class`, below
    /// which no run's class is.
    fn admit(&mut self, key: u32, value: u32, class: u64) {
        let s = match self.free_slots {
            NIL => self.grow(),
            s => s,
        };
        self.free_slots = self.slot(s).next;
        self.slot(s).key = key;
        self.slot(s).value = value;
        let first = self.first;
        let r = if first != NIL && self.run(first).class == class {
            first
        } else {
            self.new_run(NIL, class)
        };
        self.append(r, s);
        self.index.insert(key, s);
    }

    /// One free slot and one free run more; the new slot.
    fn grow(&mut self) -> u32 {
        // a slot a key, and the reserved key `u32::MAX` is never cached:
        // no slot's index reaches NIL
        let s = self.slots.len() as u32;
        self.slots.push(Slot { key: 0, value: 0, run: NIL, prev: NIL, next: NIL });
        self.runs.push(Run { class: 0, head: NIL, tail: NIL, prev: NIL, next: self.free_runs });
        self.free_runs = s;
        // room in the index for twice the slab: an insert that finds it
        // full of tombstones then rehashes in place instead of growing
        self.index.reserve(2 * self.slots.len() - self.index.len());
        s
    }

    /// Moves slot `s` to the newest end of the run of its class + `step`:
    /// its own run, the next one, or a new one right after its own.
    fn touch(&mut self, s: u32, step: u64) {
        let r = self.slot(s).run;
        let Run { class, head, tail, next, .. } = *self.run(r);
        let class = class + step;
        let joins_next = next != NIL && self.run(next).class == class;
        if head == tail && !joins_next {
            // alone in its run: the run takes the new class along
            self.run(r).class = class;
            return;
        }
        self.unlink(s);
        let to = if step == 0 {
            r
        } else if joins_next {
            next
        } else {
            self.new_run(r, class)
        };
        self.append(to, s);
    }

    /// Drops slot `s`.
    fn remove(&mut self, s: u32) {
        self.unlink(s);
        let key = self.slot(s).key;
        self.index.remove(&key);
        self.slot(s).next = self.free_slots;
        self.free_slots = s;
    }

    /// Takes slot `s` out of its run, and the run out of the order once it
    /// is empty.
    fn unlink(&mut self, s: u32) {
        let Slot { run, prev, next, .. } = *self.slot(s);
        match prev {
            NIL => self.run(run).head = next,
            p => self.slot(p).next = next,
        }
        match next {
            NIL => self.run(run).tail = prev,
            n => self.slot(n).prev = prev,
        }
        if self.run(run).head == NIL {
            let Run { prev, next, .. } = *self.run(run);
            match prev {
                NIL => self.first = next,
                p => self.run(p).next = next,
            }
            if next != NIL {
                self.run(next).prev = prev;
            }
            self.run(run).next = self.free_runs;
            self.free_runs = run;
        }
    }

    /// Puts slot `s` at the newest end of run `r`.
    fn append(&mut self, r: u32, s: u32) {
        let tail = self.run(r).tail;
        let slot = self.slot(s);
        (slot.run, slot.prev, slot.next) = (r, tail, NIL);
        match tail {
            NIL => self.run(r).head = s,
            t => self.slot(t).next = s,
        }
        self.run(r).tail = s;
    }

    /// A new, empty run of `class` right after run `after`, or first.
    fn new_run(&mut self, after: u32, class: u64) -> u32 {
        let r = self.free_runs;
        self.free_runs = self.run(r).next;
        let next = match after {
            NIL => self.first,
            a => self.run(a).next,
        };
        *self.run(r) = Run { class, head: NIL, tail: NIL, prev: after, next };
        match after {
            NIL => self.first = r,
            a => self.run(a).next = r,
        }
        if next != NIL {
            self.run(next).prev = r;
        }
        r
    }
}

/// A fixed-capacity deterministic hot-key cache wrapping a
/// [`MapService`] backend (see the module docs for the design and the
/// coherence argument).
#[derive(Debug)]
pub struct CachedMap<S> {
    backend: S,
    capacity: usize,
    policy: CachePolicy,
    shadow: Shadow,
    stats: CacheStats,
    /// The misses of a call of a serving flush's size, kept across calls.
    misses: Misses,
}

/// The reads of one call the shadow could not answer.
#[derive(Debug, Default)]
struct Misses {
    /// Their keys, as the backend is asked them; after the answers are in,
    /// the sorted keys of an unsorted put batch.
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
    /// The cache's memory grows with its entries, not with `capacity`.
    #[must_use]
    pub fn new(backend: S, capacity: usize, policy: CachePolicy) -> Self {
        Self {
            backend,
            capacity,
            policy,
            shadow: Shadow::new(),
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
        self.shadow.len()
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

    /// The class an admission enters and how far a touch moves an entry's
    /// class: the touch count under LFU, one class under LRU.
    fn step(&self) -> u64 {
        // MUTATION DOUBLE (test builds, `tests::LFU_TOUCH_STAYS`): an LFU
        // entry stays in the class it entered, which orders LFU as LRU
        #[cfg(test)]
        if tests::LFU_TOUCH_STAYS.with(std::cell::Cell::get) {
            return 0;
        }
        u64::from(self.policy == CachePolicy::Lfu)
    }

    /// The cached value of `key`, if any, its entry touched.
    fn hit(&mut self, key: u32) -> Option<u32> {
        let s = self.shadow.find(key)?;
        let step = self.step();
        self.shadow.touch(s, step);
        Some(self.shadow.slot(s).value)
    }

    /// Admits (or refreshes) `key → value` after a backend hit.
    fn admit(&mut self, key: u32, value: u32) {
        if self.capacity == 0 {
            return;
        }
        let step = self.step();
        if let Some(s) = self.shadow.find(key) {
            self.shadow.slot(s).value = value;
            self.shadow.touch(s, step);
            return;
        }
        if self.shadow.len() >= self.capacity {
            if let Some(victim) = self.shadow.victim() {
                self.shadow.remove(victim);
                self.stats.evictions += 1;
            }
        }
        self.shadow.admit(key, value, step);
        self.stats.admissions += 1;
    }

    /// Drops `key` from the shadow, if present.
    fn invalidate(&mut self, key: u32) {
        if let Some(s) = self.shadow.find(key) {
            self.shadow.remove(s);
            self.stats.invalidations += 1;
        }
    }

    /// Answers what it can of `keys` from the shadow into `values`, and
    /// notes the rest in `misses`.
    fn lookup(&mut self, keys: &[u32], values: &mut [Option<u32>], misses: &mut Misses) {
        for (i, &k) in keys.iter().enumerate() {
            if let Some(v) = self.hit(k) {
                values[i] = Some(v);
                self.stats.hits += 1;
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
    /// `sorted` is scratch for the keys of an unsorted batch.
    fn note_puts(&mut self, pairs: &[(u32, u32)], sorted: &mut Vec<u32>) {
        sorted.clear();
        // keys in strictly ascending order, as `execute` sends them, are
        // distinct: no sort needed
        if !pairs.is_sorted_by(|a, b| a.0 < b.0) {
            sorted.extend(pairs.iter().map(|p| p.0));
            sorted.sort_unstable();
        }
        for &(k, v) in pairs {
            // a key written twice sits twice in a row in `sorted`
            let at = sorted.partition_point(|&s| s < k);
            if sorted.get(at + 1) == Some(&k) {
                // duplicate keys race in the kernel (last writer
                // on the event horizon, not slice order) — the
                // shadow must not guess the winner
                self.invalidate(k);
            } else if let Some(s) = self.shadow.find(k) {
                self.shadow.slot(s).value = v;
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
            self.note_puts(puts, &mut misses.keys);
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
    use rand::prelude::*;
    use std::cell::Cell;
    use std::collections::{BTreeMap, BTreeSet};

    thread_local! {
        /// Arms `CachedMap::step`'s mutation double: every LFU entry stays
        /// in the class it entered, so LFU evicts as LRU does.
        pub(super) static LFU_TOUCH_STAYS: Cell<bool> = const { Cell::new(false) };
    }

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
        for policy in [CachePolicy::Lru, CachePolicy::Lfu] {
            let mut c = warmed(0, policy);
            c.get_batch(&[1]).unwrap();
            c.get_batch(&[1]).unwrap();
            assert_eq!(c.cached_len(), 0);
            assert_eq!(c.stats().hits, 0);
            assert_eq!(c.stats().misses, 2);
            assert_eq!(c.backend().gets, 2, "{}: every get forwards", policy.label());
        }
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

    #[test]
    fn a_hostile_capacity_reserves_nothing() {
        for policy in [CachePolicy::Lru, CachePolicy::Lfu] {
            let mut c = warmed(usize::MAX, policy);
            assert_eq!(c.shadow.slots.capacity(), 0, "nothing reserved for usize::MAX");
            assert_eq!(c.get_batch(&[1, 2, 9]).unwrap().values, [Some(10), Some(20), None]);
            c.put_batch(&[(2, 21)]).unwrap();
            let before = c.backend().gets;
            assert_eq!(c.get_batch(&[2, 1]).unwrap().values, [Some(21), Some(10)]);
            assert_eq!(c.backend().gets, before, "{}: both cached", policy.label());
            assert_eq!((c.cached_len(), c.stats().evictions), (2, 0));
            assert!(c.shadow.slots.capacity() < 64, "the slab grows with its entries");
        }
    }

    #[test]
    fn one_entry_evicts_on_every_new_admission() {
        for policy in [CachePolicy::Lru, CachePolicy::Lfu] {
            let mut c = warmed(1, policy);
            c.get_batch(&[1, 1, 1]).unwrap(); // 1 admitted and touched twice
            for (i, key) in [2, 3, 1, 4].into_iter().enumerate() {
                let before = c.backend().gets;
                c.get_batch(&[key]).unwrap();
                c.get_batch(&[key]).unwrap();
                let why = format!("{}: {key} missed, then hit", policy.label());
                assert_eq!(c.backend().gets, before + 1, "{why}");
                assert_eq!(c.stats().evictions, i as u64 + 1, "{why}");
                assert_eq!(order(&c.shadow), [(key, key * 10)]);
            }
        }
    }

    /// The entries, victim first, every link checked on the way.
    fn order(shadow: &Shadow) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        let (mut r, mut lower, mut class) = (shadow.first, NIL, None);
        while r != NIL {
            let run = shadow.runs[r as usize];
            assert_eq!(run.prev, lower, "run {r}'s lower neighbour");
            assert!(class < Some(run.class), "runs in ascending class order");
            assert_ne!(run.head, NIL, "run {r} is empty");
            let (mut s, mut older) = (run.head, NIL);
            while s != NIL {
                let slot = shadow.slots[s as usize];
                assert_eq!((slot.run, slot.prev), (r, older), "slot {s}'s links");
                assert_eq!(shadow.find(slot.key), Some(s), "key {}'s slot", slot.key);
                out.push((slot.key, slot.value));
                (older, s) = (s, slot.next);
            }
            assert_eq!(run.tail, older, "run {r}'s tail");
            (lower, class, r) = (r, Some(run.class), run.next);
        }
        assert_eq!(out.len(), shadow.len(), "every indexed slot in a run");
        out
    }

    /// An entry of the order the shadow replaced.
    #[derive(Debug, Clone, Copy)]
    struct Entry {
        value: u32,
        freq: u64,
        stamp: u64,
    }

    /// The order the shadow replaced: `(class, stamp, key)` tuples in a
    /// `BTreeSet`, the victim first, `class` the touch count under LFU and
    /// 0 under LRU, and a fresh stamp a touch or an admission.
    struct Reference {
        capacity: usize,
        policy: CachePolicy,
        entries: BTreeMap<u32, Entry>,
        order: BTreeSet<(u64, u64, u32)>,
        tick: u64,
    }

    impl Reference {
        fn new(capacity: usize, policy: CachePolicy) -> Self {
            let (entries, order) = (BTreeMap::new(), BTreeSet::new());
            Self { capacity, policy, entries, order, tick: 0 }
        }

        fn class(&self, freq: u64) -> u64 {
            match self.policy {
                CachePolicy::Lru => 0,
                CachePolicy::Lfu => freq,
            }
        }

        fn touch(&mut self, key: u32) {
            let Some(mut entry) = self.entries.get(&key).copied() else {
                return;
            };
            self.order.remove(&(self.class(entry.freq), entry.stamp, key));
            entry.freq += 1;
            entry.stamp = self.tick;
            self.tick += 1;
            self.order.insert((self.class(entry.freq), entry.stamp, key));
            self.entries.insert(key, entry);
        }

        /// The key evicted, if any.
        fn admit(&mut self, key: u32, value: u32) -> Option<u32> {
            if self.capacity == 0 {
                return None;
            }
            if let Some(entry) = self.entries.get_mut(&key) {
                entry.value = value;
                self.touch(key);
                return None;
            }
            let victim = (self.entries.len() >= self.capacity).then(|| {
                let (_, _, victim) = self.order.pop_first().expect("a full order");
                self.entries.remove(&victim);
                victim
            });
            let entry = Entry { value, freq: 1, stamp: self.tick };
            self.tick += 1;
            self.entries.insert(key, entry);
            self.order.insert((self.class(entry.freq), entry.stamp, key));
            victim
        }

        fn update(&mut self, key: u32, value: u32) {
            if let Some(entry) = self.entries.get_mut(&key) {
                entry.value = value;
            }
        }

        fn invalidate(&mut self, key: u32) {
            if let Some(entry) = self.entries.remove(&key) {
                self.order.remove(&(self.class(entry.freq), entry.stamp, key));
            }
        }

        fn order(&self) -> Vec<(u32, u32)> {
            self.order.iter().map(|&(_, _, k)| (k, self.entries[&k].value)).collect()
        }
    }

    /// Drives a cache and the reference through `steps` seeded random
    /// admits, touches, write-updates and invalidations over a few keys
    /// more than twice the capacity; the first step at which their orders
    /// or their victims differ, if any.
    fn divergence(policy: CachePolicy, capacity: usize, seed: u64, steps: u32) -> Option<String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cache = CachedMap::new(ModelService::default(), capacity, policy);
        let mut reference = Reference::new(capacity, policy);
        let keys = 2 * capacity as u32 + 3;
        let mut was: Vec<(u32, u32)> = Vec::new();
        for step in 0..steps {
            let (key, value) = (rng.gen_range(0..keys), rng.gen_range(0..1_000u32));
            let (op, want) = match rng.gen_range(0..8u32) {
                0..=2 => {
                    cache.admit(key, value);
                    ("admit", reference.admit(key, value))
                }
                3..=5 => {
                    cache.hit(key);
                    reference.touch(key);
                    ("touch", None)
                }
                6 => {
                    cache.note_puts(&[(key, value)], &mut Vec::new());
                    reference.update(key, value);
                    ("update", None)
                }
                _ => {
                    cache.invalidate(key);
                    reference.invalidate(key);
                    ("invalidate", None)
                }
            };
            let now = order(&cache.shadow);
            // what an admission took out of the shadow is its victim
            let gone = was.iter().map(|e| e.0).find(|&k| now.iter().all(|e| e.0 != k));
            let evicted = if op == "admit" { gone } else { None };
            if now != reference.order() || evicted != want {
                return Some(format!(
                    "{} at capacity {capacity}, step {step} ({op} {key} → {value}): shadow \
                     {now:?} evicted {evicted:?}, reference {:?} evicted {want:?}",
                    policy.label(),
                    reference.order()
                ));
            }
            was = now;
        }
        None
    }

    #[test]
    fn the_shadow_evicts_as_the_btree_order_did() {
        for policy in [CachePolicy::Lru, CachePolicy::Lfu] {
            for capacity in [0, 1, 2, 7, 64] {
                if let Some(diff) = divergence(policy, capacity, 42 + capacity as u64, 20_000) {
                    panic!("{diff}");
                }
            }
        }
    }

    #[test]
    fn an_lfu_that_evicts_as_lru_is_caught() {
        LFU_TOUCH_STAYS.with(|stays| stays.set(true));
        let differential = divergence(CachePolicy::Lfu, 7, 49, 2_000);
        let frequent = std::panic::catch_unwind(lfu_keeps_the_frequent_entry).is_err();
        LFU_TOUCH_STAYS.with(|stays| stays.set(false));
        assert!(differential.is_some(), "the differential test passed an LRU-ordered LFU");
        assert!(frequent, "lfu_keeps_the_frequent_entry passed an LRU-ordered LFU");
    }
}
