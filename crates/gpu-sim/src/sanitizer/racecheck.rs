//! Happens-before race detection between SIMT groups (racecheck).
//!
//! A FastTrack-style detector specialized to the simulator's access
//! model. Each *group* (not thread — a coalesced group is the unit of
//! scheduling) carries a sparse vector clock; each device word that has
//! been accessed during the launch carries a shadow record of its last
//! write, its recent readers, and a *sync* vector clock.
//!
//! Happens-before edges come from two sources:
//!
//! * **program order** within one group. A group's clock is an *epoch*
//!   in the FastTrack sense: it advances only where another group could
//!   come to know about it — at every **release** (after the current
//!   epoch is published into the word's sync clock) and at every
//!   **collective** (ballots synchronize the lanes of a group, which is
//!   the epoch-advance the paper's CG semantics imply). All plain
//!   accesses between two releases share one epoch; since the only way
//!   another group can order itself after them is by acquiring the
//!   *next* release, per-access ticking buys no extra precision — the
//!   happens-before verdicts are identical, at a fraction of the
//!   bookkeeping.
//! * **release/acquire through atomics**: every CAS / atomicAdd / Or /
//!   exchange on a word *releases* the group's clock into the word's sync
//!   clock and *acquires* the sync clock into the group — exactly the edge
//!   the claim-CAS/publish protocol relies on. A flag published by
//!   `GroupCtx::publish` and read by `GroupCtx::poll` is checked the same
//!   way, as an atomic access on each side.
//!
//! Under a deterministic stepwise schedule, release publication is
//! additionally **batched**: only one group runs at a time, so a
//! release cannot be observed until the group yields the token. The
//! publication is buffered in the group's clock (coalescing repeated
//! releases through the same word — the hot-CAS loop) and flushed at
//! schedule-quantum boundaries, before the next acquire through a
//! different word, and at group retirement. The flush points are
//! exactly the places another group could next run or the releasing
//! group could next learn something new, so verdicts are identical to
//! eager publication (asserted by a unit test below).
//!
//! Accesses are classified by intent ([`AccessKind`]), mirroring how the
//! kernels are written:
//!
//! * `RelaxedRead` — coalesced window loads. Probing reads are *designed*
//!   to race with CAS claims and shared stores (stale windows are
//!   re-balloted), so they conflict only with plain writes.
//! * `PlainRead` / `PlainWrite` — ordinary loads/stores with no protocol
//!   annotation. Plain writes conflict with every unordered access;
//!   that's what catches a publish store downgraded from CAS to a plain
//!   store.
//! * `SharedRead` / `SharedWrite` — *annotated* intentionally-relaxed
//!   accesses (the SOA value-word update path): last-writer-wins by
//!   design, so they conflict only with unordered *plain* accesses.
//! * `Atomic` — never races (hardware serializes RMWs) but creates sync
//!   edges.
//!
//! The conflict matrix deliberately does **not** flag plain reads racing
//! atomics: the ticket-board and cuckoo baselines read words that other
//! groups concurrently RMW, which is well-defined on hardware.
//!
//! Every access covers **32-bit halves** of its word: a half-word load or
//! store ([`crate::GroupCtx::read_stream_half`],
//! [`crate::GroupCtx::write_stream_half`]) one, every other access both. A
//! word keeps its last write per half and each read with the halves it
//! read, and two accesses conflict only where their halves meet: two groups
//! storing the two halves of one word do not race, nor does a half read
//! with an unordered store of the other half; two storing the same half
//! do, as does a half access against an unordered access of the whole word.
//!
//! State is per-launch (the CUDA default-stream analogy): launch
//! boundaries are global barriers, so cross-launch accesses never
//! conflict and the shadow map is dropped when the launch returns.

use super::BOTH;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// How many lock shards the shadow map is split over.
const SHARDS: usize = 64;

/// log2 of the words per shadow *page*. Shadow state is keyed by page —
/// 64 consecutive words, twice the span of the widest coalesced window,
/// so a window read usually touches one page (worst case two when it
/// straddles a boundary) and costs one shard lock and one hash lookup
/// instead of 32 of each (the dominant term of racecheck overhead).
const PAGE_BITS: usize = 6;

/// Words per shadow page.
const PAGE_WORDS: usize = 1 << PAGE_BITS;

/// Mask selecting the in-page slot of a word.
const PAGE_MASK: usize = PAGE_WORDS - 1;

/// Per-word reader records kept before the list is recycled.
const MAX_READS: usize = 32;

/// Distinct groups tracked in one word's sync (release) clock before it
/// *saturates*. Unbounded sync clocks make a single hot atomic counter
/// quadratic (every RMW joins a clock holding every prior accessor);
/// real detectors bound shadow precision the same way. Past the cap, new
/// groups' releases through that word are dropped — a word with this
/// many distinct synchronizing groups is a contended statistics counter,
/// not a publication protocol, so the precision loss is confined to
/// shapes the kernels don't use. A release records its own group's epoch
/// before the epochs it acquired, so a flag published by a group that
/// first acquired more than this many others' (a node launch's sender,
/// which polls a run of answers) still orders its stores before a poll.
const SYNC_CAP: usize = 64;

/// Multiply-rotate hasher for the shadow maps' small-integer keys (word
/// indices and group ids). These maps sit on the hot path of every
/// sanitized access, where SipHash's per-lookup cost dominates; the
/// shadow state is not attacker-facing, so DoS resistance buys nothing.
#[derive(Debug, Default)]
pub(crate) struct WordHasher(u64);

impl WordHasher {
    #[inline]
    fn add(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for WordHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// A `HashMap` over the non-cryptographic [`WordHasher`].
pub(crate) type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// Classification of one device-memory access (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AccessKind {
    /// Coalesced window load — tolerates racing CAS/shared stores.
    RelaxedRead,
    /// Unannotated single-word load.
    PlainRead,
    /// Annotated intentionally-relaxed load.
    SharedRead,
    /// Unannotated single-word store.
    PlainWrite,
    /// Annotated intentionally-relaxed store (last-writer-wins).
    SharedWrite,
    /// Atomic read-modify-write (CAS, add, or, max, exchange).
    Atomic,
}

impl AccessKind {
    /// Whether the access only reads.
    pub(crate) fn is_read(self) -> bool {
        matches!(
            self,
            AccessKind::RelaxedRead | AccessKind::PlainRead | AccessKind::SharedRead
        )
    }

    /// Human-readable label for reports.
    pub(crate) fn describe(self) -> &'static str {
        match self {
            AccessKind::RelaxedRead => "relaxed window read",
            AccessKind::PlainRead => "plain read",
            AccessKind::SharedRead => "shared (annotated relaxed) read",
            AccessKind::PlainWrite => "plain write",
            AccessKind::SharedWrite => "shared (annotated relaxed) write",
            AccessKind::Atomic => "atomic RMW",
        }
    }
}

/// An access epoch: group id + that group's clock at access time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Prior {
    /// Group that performed the prior access.
    pub gid: u32,
    /// The group's clock value at that access.
    pub clk: u32,
    /// What the access was.
    pub kind: AccessKind,
    /// The halves it covered (bit 0 the low half).
    pub halves: u8,
}

/// Sparse per-group vector clock.
#[derive(Debug)]
pub(crate) struct GroupClock {
    gid: u32,
    clk: u32,
    /// `vc[g]` = highest clock of group `g` this group has acquired.
    vc: FastMap<u32, u32>,
    /// Sync-clock version last acquired per word — re-acquiring an
    /// unchanged clock is a no-op, so it is skipped (the hot-counter
    /// fast path).
    acquired: FastMap<usize, u32>,
    /// Deferred release publication (stepwise batching): at most one
    /// word's release is buffered at a time, coalesced to the latest
    /// epoch. `None` unless [`GroupClock::with_batching`] armed it.
    pending: Option<(usize, u32)>,
    /// Whether releases may be buffered. Only sound under a stepwise
    /// schedule, where no other group runs between buffer and flush.
    batch: bool,
}

impl GroupClock {
    pub(crate) fn new(gid: u32) -> Self {
        Self {
            gid,
            clk: 1,
            vc: FastMap::default(),
            acquired: FastMap::default(),
            pending: None,
            batch: false,
        }
    }

    /// Arms release batching (stepwise schedules only — see module docs).
    #[must_use]
    pub(crate) fn with_batching(mut self) -> Self {
        self.batch = true;
        self
    }

    /// Ticks the group's own clock. Called after a release has published
    /// the current epoch, and at collectives — the only points another
    /// group could come to distinguish "before" from "after".
    pub(crate) fn advance(&mut self) {
        self.clk += 1;
    }

    /// Whether a release publication is currently buffered.
    #[cfg(test)]
    pub(crate) fn has_pending(&self) -> bool {
        self.pending.is_some()
    }

    /// Whether `prior` happened-before this group's current epoch.
    fn saw(&self, prior: &Prior) -> bool {
        prior.gid == self.gid || self.vc.get(&prior.gid).copied().unwrap_or(0) >= prior.clk
    }
}

/// Bounded per-word release clock: a flat `(group, clock)` list. Words
/// are touched by a handful of synchronizing groups in every kernel
/// shape we model, so a linear scan over at most [`SYNC_CAP`] entries
/// beats a heap-allocated map.
#[derive(Debug, Default)]
struct SyncClock(Vec<(u32, u32)>);

impl SyncClock {
    #[inline]
    fn get_mut(&mut self, gid: u32) -> Option<&mut u32> {
        self.0.iter_mut().find(|(g, _)| *g == gid).map(|(_, c)| c)
    }

    #[inline]
    fn contains(&self, gid: u32) -> bool {
        self.0.iter().any(|(g, _)| *g == gid)
    }

    #[inline]
    fn len(&self) -> usize {
        self.0.len()
    }
}

/// Recent readers of a word, promoted lazily: most words see either no
/// reader or a single group, so the common cases carry no heap
/// allocation (FastTrack's read-epoch → read-vector promotion).
#[derive(Debug, Default)]
enum ReadSet {
    #[default]
    Empty,
    One(Prior),
    Many(Vec<Prior>),
}

impl ReadSet {
    #[inline]
    fn as_slice(&self) -> &[Prior] {
        match self {
            ReadSet::Empty => &[],
            ReadSet::One(r) => std::slice::from_ref(r),
            ReadSet::Many(v) => v,
        }
    }

    fn clear(&mut self) {
        *self = ReadSet::Empty;
    }

    /// Records a read epoch: latest clock per group and halves is exact
    /// for the HB test; the "strongest" kind is kept so a plain read isn't
    /// masked by a later relaxed one.
    fn record(&mut self, epoch: Prior) {
        let same = |r: &Prior| r.gid == epoch.gid && r.halves == epoch.halves;
        let update = |r: &mut Prior| {
            r.clk = r.clk.max(epoch.clk);
            if epoch.kind == AccessKind::PlainRead {
                r.kind = AccessKind::PlainRead;
            }
        };
        match self {
            ReadSet::Empty => *self = ReadSet::One(epoch),
            ReadSet::One(r) if same(r) => update(r),
            ReadSet::One(r) => *self = ReadSet::Many(vec![*r, epoch]),
            ReadSet::Many(v) => {
                if let Some(r) = v.iter_mut().find(|r| same(r)) {
                    update(r);
                } else {
                    if v.len() >= MAX_READS {
                        v.clear(); // recycle (bounded memory beats recall)
                    }
                    v.push(epoch);
                }
            }
        }
    }
}

/// Shadow record of one device word.
#[derive(Debug, Default)]
struct WordState {
    /// Last write of each half, the low one first; a whole-word write is
    /// the last write of both.
    last_write: [Option<Prior>; 2],
    reads: ReadSet,
    /// Release clock: join of every releasing (atomic) accessor's VC
    /// (bounded by [`SYNC_CAP`] distinct groups).
    sync: SyncClock,
    /// Bumped whenever `sync` changes, so acquirers can skip no-op joins.
    sync_version: u32,
    /// A word reports at most one race (dedup).
    reported: bool,
}

/// A shadow page: the [`WordState`]s of [`PAGE_WORDS`] consecutive
/// device words plus the page's epoch-compressed window-read log.
struct PageState {
    words: [WordState; PAGE_WORDS],
    /// Relaxed **window** reads over this page, one entry per
    /// `(group, epoch)` with a bitmask of the slots it covered — a
    /// 32-lane window read records here once instead of appending to 32
    /// per-word read lists (the dominant racecheck cost). Bounded like a
    /// [`ReadSet`]: recycled past [`MAX_READS`] entries.
    window_reads: Vec<(Prior, u64)>,
}

/// Boxed so map rehashing moves only pointers.
type Page = Box<PageState>;

fn new_page() -> Page {
    Box::new(PageState {
        words: std::array::from_fn(|_| WordState::default()),
        window_reads: Vec::new(),
    })
}

/// Per-launch race-detection state, sharded for pool-mode parallelism
/// and paged so coalesced windows amortize the lock + lookup.
pub(crate) struct RaceState {
    shards: Vec<Mutex<FastMap<usize, Page>>>,
}

impl RaceState {
    pub(crate) fn new() -> Self {
        Self {
            shards: (0..SHARDS).map(|_| Mutex::new(FastMap::default())).collect(),
        }
    }

    /// Publishes a release — joins the group's VC plus `(gid, clk)` into
    /// the word's sync clock. A saturated clock not already tracking
    /// this group cannot change, so the whole publication is skipped
    /// (see [`SYNC_CAP`]). Locks the word's shard; the caller must not
    /// already hold it.
    fn publish(&self, word: usize, clk: u32, clock: &mut GroupClock) {
        let page = word >> PAGE_BITS;
        let mut shard = self.shards[page % SHARDS].lock();
        let st = &mut shard.entry(page).or_insert_with(new_page).words[word & PAGE_MASK];
        if st.sync.len() < SYNC_CAP || st.sync.contains(clock.gid) {
            let mut changed = false;
            // the releasing group's own epoch first: past the cap it is the
            // entry a poll of this word must find
            for (&g, &c) in std::iter::once((&clock.gid, &clk)).chain(clock.vc.iter()) {
                if let Some(e) = st.sync.get_mut(g) {
                    if *e < c {
                        *e = c;
                        changed = true;
                    }
                } else if st.sync.len() < SYNC_CAP {
                    st.sync.0.push((g, c));
                    changed = true;
                }
            }
            if changed {
                st.sync_version = st.sync_version.wrapping_add(1);
            }
        }
        // Our own release is the only thing that changed the clock, and
        // everything in it was already acquired at the time the release
        // was issued — re-acquiring would be a no-op join, so mark the
        // new version as seen.
        clock.acquired.insert(word, st.sync_version);
    }

    /// Flushes a buffered release publication, if any. Must be called
    /// before the owning group yields the schedule token and at group
    /// retirement (the points where another group could next observe
    /// the release).
    pub(crate) fn flush_releases(&self, clock: &mut GroupClock) {
        if let Some((word, clk)) = clock.pending.take() {
            self.publish(word, clk, clock);
        }
    }

    /// Records one access of the `halves` of `word` (bit 0 the low half,
    /// bit 1 the high half) and returns the conflicting prior access, if
    /// any (first conflict per word only).
    pub(crate) fn on_halves(
        &self,
        word: usize,
        halves: u8,
        clock: &mut GroupClock,
        kind: AccessKind,
    ) -> Option<Prior> {
        // A buffered release through another word must be published
        // before this access acquires (acquisition may grow our VC, and
        // the buffered publication snapshot is "VC as of the release").
        // Done before taking the shard lock: the pending word may map to
        // the same (non-reentrant) shard.
        if kind == AccessKind::Atomic {
            if let Some((pw, pc)) = clock.pending {
                if pw != word {
                    clock.pending = None;
                    self.publish(pw, pc, clock);
                }
            }
        }

        let page = word >> PAGE_BITS;
        let slot = word & PAGE_MASK;
        let bit = 1u64 << slot;
        let mut shard = self.shards[page % SHARDS].lock();
        let PageState {
            words,
            window_reads,
        } = &mut **shard.entry(page).or_insert_with(new_page);
        let st = &mut words[slot];

        // -- conflict detection (the matrix from the module docs) --------
        let conflicts_with_write = |w: AccessKind| match kind {
            AccessKind::RelaxedRead | AccessKind::SharedRead | AccessKind::Atomic => {
                w == AccessKind::PlainWrite
            }
            AccessKind::PlainRead => {
                matches!(w, AccessKind::PlainWrite | AccessKind::SharedWrite)
            }
            AccessKind::PlainWrite => true, // any unordered write conflicts
            AccessKind::SharedWrite => w == AccessKind::PlainWrite,
        };
        let mut conflict = st
            .last_write
            .iter()
            .zip([1, 2])
            .filter(|&(_, half)| halves & half != 0)
            .find_map(|(w, _)| w.filter(|w| conflicts_with_write(w.kind) && !clock.saw(w)));
        if conflict.is_none() && !kind.is_read() {
            // writes also conflict with unordered prior reads
            let read_conflicts = |r: AccessKind| match kind {
                AccessKind::PlainWrite => true,
                AccessKind::SharedWrite => r == AccessKind::PlainRead,
                _ => false, // Atomic never conflicts with reads
            };
            conflict = st
                .reads
                .as_slice()
                .iter()
                .find(|r| r.halves & halves != 0 && read_conflicts(r.kind) && !clock.saw(r))
                .copied();
            if conflict.is_none() && kind == AccessKind::PlainWrite {
                // ...including relaxed window reads of this slot, logged
                // epoch-compressed at page level
                conflict = window_reads
                    .iter()
                    .find(|(r, mask)| mask & bit != 0 && !clock.saw(r))
                    .map(|(r, _)| *r);
            }
        }
        let fire = conflict.filter(|_| !st.reported);
        if fire.is_some() {
            st.reported = true;
        }

        // -- sync edges: atomics release + acquire ------------------------
        if kind == AccessKind::Atomic {
            // acquire: join the word's release clock into the group
            // (skipped when it has not changed since our last acquire)
            if clock.acquired.get(&word).copied() != Some(st.sync_version) {
                for &(g, c) in &st.sync.0 {
                    if g != clock.gid {
                        let e = clock.vc.entry(g).or_insert(0);
                        *e = (*e).max(c);
                    }
                }
            }
            // release: publish the group's VC (and own epoch) into the
            // word — eagerly, or buffered until a flush point under a
            // stepwise schedule (coalescing same-word repeats to the
            // latest epoch; no other group can observe the word before
            // the flush, so verdicts are identical).
            if clock.batch {
                clock.pending = Some((word, clock.clk));
                clock.acquired.insert(word, st.sync_version);
            } else {
                if st.sync.len() < SYNC_CAP || st.sync.contains(clock.gid) {
                    let mut changed = false;
                    let own = std::iter::once((&clock.gid, &clock.clk));
                    for (&g, &c) in own.chain(clock.vc.iter()) {
                        if let Some(e) = st.sync.get_mut(g) {
                            if *e < c {
                                *e = c;
                                changed = true;
                            }
                        } else if st.sync.len() < SYNC_CAP {
                            st.sync.0.push((g, c));
                            changed = true;
                        }
                    }
                    if changed {
                        st.sync_version = st.sync_version.wrapping_add(1);
                    }
                }
                clock.acquired.insert(word, st.sync_version);
            }
        }

        // -- record the access -------------------------------------------
        let epoch = Prior {
            gid: clock.gid,
            clk: clock.clk,
            kind,
            halves,
        };
        if kind.is_read() {
            st.reads.record(epoch);
        } else {
            for (last, half) in st.last_write.iter_mut().zip([1, 2]) {
                if halves & half != 0 {
                    *last = Some(epoch);
                }
            }
            if kind == AccessKind::PlainWrite && halves == BOTH {
                // a plain write of the word supersedes (and was checked
                // against) every recorded read — per-word records and
                // window-log entries. A half store does not: a later store
                // of the other half must still meet them
                st.reads.clear();
                if !window_reads.is_empty() {
                    for (_, mask) in window_reads.iter_mut() {
                        *mask &= !bit;
                    }
                    window_reads.retain(|(_, mask)| *mask != 0);
                }
            }
        }
        // FastTrack epoch advance: only a release makes the current
        // epoch observable to another group, so only a release (the
        // publication above, eager or buffered) ends it.
        if kind == AccessKind::Atomic {
            clock.advance();
        }
        fire
    }

    /// Records a run of consecutive **relaxed window reads** at absolute
    /// words `start..start + count` (no wraparound — the caller splits
    /// the window at the table boundary). Each page-sized stretch costs
    /// one shard lock and one map lookup; the per-word verdicts are
    /// exactly what [`RaceState::on_halves`] would produce for
    /// [`AccessKind::RelaxedRead`]. Returns every word whose read fired,
    /// as `(offset into the run, conflicting prior)` — allocation-free
    /// unless something fires.
    pub(crate) fn on_window_reads(
        &self,
        start: usize,
        count: usize,
        clock: &mut GroupClock,
    ) -> Vec<(u32, Prior)> {
        let mut fired = Vec::new();
        let epoch = Prior {
            gid: clock.gid,
            clk: clock.clk,
            kind: AccessKind::RelaxedRead,
            halves: BOTH,
        };
        let mut off = 0usize;
        while off < count {
            let word = start + off;
            let slot = word & PAGE_MASK;
            let run = (PAGE_WORDS - slot).min(count - off);
            let page = word >> PAGE_BITS;
            let mut shard = self.shards[page % SHARDS].lock();
            let PageState {
                words,
                window_reads,
            } = &mut **shard.entry(page).or_insert_with(new_page);
            for (k, st) in words[slot..slot + run].iter_mut().enumerate() {
                // relaxed window reads conflict only with plain writes
                let conflict = st.last_write.iter().find_map(|w| {
                    w.filter(|w| w.kind == AccessKind::PlainWrite && !st.reported && !clock.saw(w))
                });
                if let Some(prior) = conflict {
                    st.reported = true;
                    fired.push(((off + k) as u32, prior));
                }
            }
            // One epoch-compressed log entry covers the whole run: a mask
            // of the slots this (gid, clk) read. Consecutive probes by the
            // same group in the same epoch extend the previous entry.
            let run_mask = (u64::MAX >> (64 - run)) << slot;
            match window_reads.last_mut() {
                Some((r, mask)) if r.gid == epoch.gid && r.clk == epoch.clk => *mask |= run_mask,
                _ => {
                    if window_reads.len() >= MAX_READS {
                        // same recycling rule as the per-word read list
                        window_reads.clear();
                    }
                    window_reads.push((epoch, run_mask));
                }
            }
            off += run;
        }
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clock(gid: u32) -> GroupClock {
        GroupClock::new(gid)
    }

    #[test]
    fn plain_write_write_race_detected() {
        let rs = RaceState::new();
        let mut a = clock(0);
        let mut b = clock(1);
        assert!(rs.on_halves(7, BOTH, &mut a, AccessKind::PlainWrite).is_none());
        let c = rs.on_halves(7, BOTH, &mut b, AccessKind::PlainWrite);
        assert_eq!(c.unwrap().gid, 0);
    }

    #[test]
    fn plain_read_vs_plain_write_race_detected() {
        let rs = RaceState::new();
        let mut a = clock(0);
        let mut b = clock(1);
        assert!(rs.on_halves(3, BOTH, &mut a, AccessKind::PlainRead).is_none());
        let c = rs.on_halves(3, BOTH, &mut b, AccessKind::PlainWrite);
        assert_eq!(c.unwrap().kind, AccessKind::PlainRead);
    }

    #[test]
    fn atomics_never_race_each_other() {
        let rs = RaceState::new();
        let mut a = clock(0);
        let mut b = clock(1);
        for _ in 0..4 {
            assert!(rs.on_halves(0, BOTH, &mut a, AccessKind::Atomic).is_none());
            assert!(rs.on_halves(0, BOTH, &mut b, AccessKind::Atomic).is_none());
        }
    }

    #[test]
    fn relaxed_window_reads_tolerate_cas_and_shared_stores() {
        let rs = RaceState::new();
        let mut claimer = clock(0);
        let mut prober = clock(1);
        assert!(rs.on_halves(5, BOTH, &mut claimer, AccessKind::Atomic).is_none());
        assert!(rs
            .on_halves(5, BOTH, &mut prober, AccessKind::RelaxedRead)
            .is_none());
        assert!(rs
            .on_halves(5, BOTH, &mut claimer, AccessKind::SharedWrite)
            .is_none());
        assert!(rs
            .on_halves(5, BOTH, &mut prober, AccessKind::RelaxedRead)
            .is_none());
    }

    #[test]
    fn release_acquire_through_atomic_orders_plain_accesses() {
        // group 0: plain-write w, then release via atomic on s.
        // group 1: acquire via atomic on s, then plain-write w → ordered.
        let rs = RaceState::new();
        let (w, s) = (10, 11);
        let mut a = clock(0);
        let mut b = clock(1);
        assert!(rs.on_halves(w, BOTH, &mut a, AccessKind::PlainWrite).is_none());
        assert!(rs.on_halves(s, BOTH, &mut a, AccessKind::Atomic).is_none());
        assert!(rs.on_halves(s, BOTH, &mut b, AccessKind::Atomic).is_none());
        assert!(
            rs.on_halves(w, BOTH, &mut b, AccessKind::PlainWrite).is_none(),
            "acquire edge must order the second plain write after the first"
        );
    }

    #[test]
    fn unsynchronized_plain_publish_vs_shared_update_races() {
        // The `Mutation::PublishPlainStore` shape: claimer plain-stores the
        // value word; a racing updater shared-writes it. The updater only
        // saw the *key* word (relaxed), so there is no HB edge.
        let rs = RaceState::new();
        let mut claimer = clock(0);
        let mut updater = clock(1);
        assert!(rs
            .on_halves(20, BOTH, &mut claimer, AccessKind::PlainWrite)
            .is_none());
        let c = rs.on_halves(20, BOTH, &mut updater, AccessKind::SharedWrite);
        assert_eq!(c.unwrap().kind, AccessKind::PlainWrite);
    }

    #[test]
    fn plain_read_does_not_race_atomics() {
        // ticket-board shape: groups read a word others concurrently RMW
        let rs = RaceState::new();
        let mut reader = clock(0);
        let mut rmw = clock(1);
        assert!(rs.on_halves(2, BOTH, &mut rmw, AccessKind::Atomic).is_none());
        assert!(rs.on_halves(2, BOTH, &mut reader, AccessKind::PlainRead).is_none());
        assert!(rs.on_halves(2, BOTH, &mut rmw, AccessKind::Atomic).is_none());
    }

    #[test]
    fn each_word_reports_once() {
        let rs = RaceState::new();
        let mut a = clock(0);
        let mut b = clock(1);
        let mut c = clock(2);
        assert!(rs.on_halves(9, BOTH, &mut a, AccessKind::PlainWrite).is_none());
        assert!(rs.on_halves(9, BOTH, &mut b, AccessKind::PlainWrite).is_some());
        assert!(rs.on_halves(9, BOTH, &mut c, AccessKind::PlainWrite).is_none());
    }

    #[test]
    fn release_acquire_is_transitive_across_words() {
        // A → B through word 2, B → C through word 3: C inherits A's edge.
        let rs = RaceState::new();
        let mut a = clock(0);
        let mut b = clock(1);
        let mut c = clock(2);
        assert!(rs.on_halves(1, BOTH, &mut a, AccessKind::PlainWrite).is_none());
        assert!(rs.on_halves(2, BOTH, &mut a, AccessKind::Atomic).is_none());
        assert!(rs.on_halves(2, BOTH, &mut b, AccessKind::Atomic).is_none());
        assert!(rs.on_halves(3, BOTH, &mut b, AccessKind::Atomic).is_none());
        assert!(rs.on_halves(3, BOTH, &mut c, AccessKind::Atomic).is_none());
        assert!(
            rs.on_halves(1, BOTH, &mut c, AccessKind::PlainWrite).is_none(),
            "A's plain write must be ordered before C's via the atomic chain"
        );
    }

    #[test]
    fn sync_clock_saturates_without_quadratic_blowup() {
        // the hot-counter shape: many groups RMW one word; sync state and
        // per-group VCs must stay bounded by SYNC_CAP, with no reports
        let rs = RaceState::new();
        for g in 0..(SYNC_CAP as u32 * 4) {
            let mut c = clock(g);
            for _ in 0..4 {
                assert!(rs.on_halves(0, BOTH, &mut c, AccessKind::Atomic).is_none());
            }
            assert!(c.vc.len() <= SYNC_CAP, "group VC exceeded the sync cap");
        }
    }

    /// A group that acquired more groups than the cap, then writes and
    /// releases a flag: a later group that acquires the flag is ordered
    /// after the write, eagerly and batched.
    #[test]
    fn a_release_past_the_cap_carries_its_own_epoch() {
        for batch in [false, true] {
            let rs = RaceState::new();
            let fresh = |g: u32| if batch { clock(g).with_batching() } else { clock(g) };
            let many = SYNC_CAP as u32 * 2;
            for g in 0..many {
                let mut c = fresh(g);
                assert!(rs.on_halves(100 + g as usize, BOTH, &mut c, AccessKind::Atomic).is_none());
                rs.flush_releases(&mut c);
            }
            let mut sender = fresh(many);
            for g in 0..many {
                let _ = rs.on_halves(100 + g as usize, BOTH, &mut sender, AccessKind::Atomic);
            }
            assert!(sender.vc.len() > SYNC_CAP);
            assert!(rs.on_halves(1, BOTH, &mut sender, AccessKind::PlainWrite).is_none());
            let _ = rs.on_halves(2, BOTH, &mut sender, AccessKind::Atomic);
            rs.flush_releases(&mut sender);
            let mut reader = fresh(many + 1);
            let _ = rs.on_halves(2, BOTH, &mut reader, AccessKind::Atomic);
            let read = rs.on_halves(1, BOTH, &mut reader, AccessKind::PlainRead);
            assert!(read.is_none(), "batch {batch}");
        }
    }

    #[test]
    fn the_two_halves_of_a_word_are_written_apart() {
        use AccessKind::{PlainRead, PlainWrite};
        let rs = RaceState::new();
        let (mut a, mut b, mut c) = (clock(0), clock(1), clock(2));
        assert!(rs.on_halves(50, 0b01, &mut a, PlainWrite).is_none());
        assert!(rs.on_halves(50, 0b10, &mut b, PlainWrite).is_none());
        // the same half, unordered: a race with its last writer
        assert_eq!(rs.on_halves(50, 0b10, &mut c, PlainWrite).unwrap().gid, 1);
        // a whole-word access meets the writer of either half
        let mut d = clock(3);
        assert!(rs.on_halves(51, 0b01, &mut a, PlainWrite).is_none());
        let prior = rs.on_halves(51, BOTH, &mut d, PlainRead).unwrap();
        assert_eq!((prior.gid, prior.kind), (0, PlainWrite));
        // a half read meets only the writer of its own half...
        assert!(rs.on_halves(52, 0b01, &mut a, PlainWrite).is_none());
        assert!(rs.on_halves(52, 0b10, &mut b, PlainRead).is_none());
        let prior = rs.on_halves(52, 0b01, &mut c, PlainRead).unwrap();
        assert_eq!((prior.gid, prior.kind), (0, PlainWrite));
        // ...and a later store meets it only if it covers that half
        assert!(rs.on_halves(53, 0b01, &mut a, PlainRead).is_none());
        assert!(rs.on_halves(53, 0b10, &mut b, PlainWrite).is_none());
        assert!(rs.on_halves(54, 0b01, &mut a, PlainRead).is_none());
        let prior = rs.on_halves(54, BOTH, &mut c, PlainWrite).unwrap();
        assert_eq!((prior.gid, prior.kind), (0, PlainRead));
    }

    #[test]
    fn program_order_within_one_group_never_races() {
        let rs = RaceState::new();
        let mut a = clock(0);
        assert!(rs.on_halves(1, BOTH, &mut a, AccessKind::PlainWrite).is_none());
        assert!(rs.on_halves(1, BOTH, &mut a, AccessKind::PlainRead).is_none());
        assert!(rs.on_halves(1, BOTH, &mut a, AccessKind::PlainWrite).is_none());
    }

    #[test]
    fn epoch_shared_by_accesses_between_releases() {
        // FastTrack epochs: plain accesses don't tick the clock; a
        // release publishes the current epoch and *then* ticks, so a
        // racing group that acquired the release has seen every access
        // of that epoch — and none of the next.
        let rs = RaceState::new();
        let mut a = clock(0);
        let mut b = clock(1);
        // a's epoch 1: two plain writes, then the publishing release.
        assert!(rs.on_halves(30, BOTH, &mut a, AccessKind::PlainWrite).is_none());
        assert!(rs.on_halves(31, BOTH, &mut a, AccessKind::PlainWrite).is_none());
        assert!(rs.on_halves(32, BOTH, &mut a, AccessKind::Atomic).is_none());
        // a's epoch 2: a write the release did NOT cover.
        assert!(rs.on_halves(33, BOTH, &mut a, AccessKind::PlainWrite).is_none());
        // b acquires the release: both epoch-1 writes are ordered...
        assert!(rs.on_halves(32, BOTH, &mut b, AccessKind::Atomic).is_none());
        assert!(rs.on_halves(30, BOTH, &mut b, AccessKind::PlainWrite).is_none());
        assert!(rs.on_halves(31, BOTH, &mut b, AccessKind::PlainWrite).is_none());
        // ...but the epoch-2 write is not.
        assert!(
            rs.on_halves(33, BOTH, &mut b, AccessKind::PlainWrite).is_some(),
            "a write after the release must not be covered by it"
        );
    }

    #[test]
    fn read_set_promotes_lazily_and_keeps_verdicts() {
        // One reader stays inline; a second promotes to the vector, and
        // a later plain write still finds both unordered reads.
        let rs = RaceState::new();
        let mut r1 = clock(0);
        let mut r2 = clock(1);
        let mut w = clock(2);
        assert!(rs.on_halves(40, BOTH, &mut r1, AccessKind::PlainRead).is_none());
        assert!(rs.on_halves(40, BOTH, &mut r2, AccessKind::PlainRead).is_none());
        let c = rs.on_halves(40, BOTH, &mut w, AccessKind::PlainWrite);
        assert_eq!(c.unwrap().kind, AccessKind::PlainRead);
    }

    /// Replays one access sequence through an eager and a batched
    /// detector (flushing at the simulated yield points, as the stepwise
    /// scheduler does) and asserts identical verdicts at every step.
    #[test]
    fn batched_releases_match_eager_publication() {
        use AccessKind::*;
        // (gid, word, kind); a yield boundary after every access — the
        // strictest flush cadence the per-op stepwise schedule produces.
        let trace: &[(u32, usize, AccessKind)] = &[
            (0, 10, PlainWrite),
            (0, 11, Atomic),
            (0, 11, Atomic), // same-word repeat: coalesced when batched
            (0, 12, Atomic), // different word: forces an inline flush
            (1, 11, Atomic),
            (1, 10, PlainWrite), // ordered via the acquired release
            (2, 10, SharedWrite), // unordered: must fire in both modes
            (2, 12, Atomic),
            (2, 10, PlainRead),
        ];
        let eager_rs = RaceState::new();
        let batch_rs = RaceState::new();
        let mut eager: Vec<GroupClock> = (0..3).map(GroupClock::new).collect();
        let mut batch: Vec<GroupClock> =
            (0..3).map(|g| GroupClock::new(g).with_batching()).collect();
        for &(gid, word, kind) in trace {
            let e = eager_rs.on_halves(word, BOTH, &mut eager[gid as usize], kind);
            let b = batch_rs.on_halves(word, BOTH, &mut batch[gid as usize], kind);
            assert_eq!(
                e.map(|p| (p.gid, p.clk, p.kind)),
                b.map(|p| (p.gid, p.clk, p.kind)),
                "verdict diverged at gid={gid} word={word} {kind:?}"
            );
            // the group yields the token after every op
            batch_rs.flush_releases(&mut batch[gid as usize]);
        }
        for c in &batch {
            assert!(!c.has_pending(), "flush must drain every buffer");
        }
    }
}
