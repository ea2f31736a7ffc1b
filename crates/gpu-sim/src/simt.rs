//! Coalesced-group execution contexts — the simulated SIMT layer.
//!
//! The paper (§IV-A) expresses its kernels against *coalesced groups*
//! (CGs): `|g| ∈ {1, 2, 4, 8, 16, 32}` consecutive threads that execute in
//! lock-step (guaranteed on pre-Volta hardware, enforced with explicit
//! synchronization on Volta+). Because a CG is lock-step by definition,
//! the simulator executes each group as **one** unit of work whose
//! per-lane state lives in small stack arrays; the warp collectives
//! (`ballot`, `any`, leader election via find-first-set) become plain
//! bit-mask operations over those arrays. This is exactly the
//! warp-synchronous semantics the algorithm assumes, while different
//! *groups* race against each other for real on a Rayon thread pool.

use crate::counters::LocalCounters;
use crate::mem::{store_half, DevSlice, DeviceMemory};
use crate::node::Node;
use crate::sanitizer::racecheck::{AccessKind, GroupClock};
use crate::sanitizer::{LaunchSanitizer, BOTH};
use crate::sched::StepSched;
use std::cell::{Cell, RefCell};
use std::sync::atomic::Ordering;

/// A validated coalesced-group size: one of `{1, 2, 4, 8, 16, 32}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupSize(u32);

impl GroupSize {
    /// All legal group sizes, smallest first (the x-axis of Figs. 7–8).
    pub const ALL: [GroupSize; 6] = [
        GroupSize(1),
        GroupSize(2),
        GroupSize(4),
        GroupSize(8),
        GroupSize(16),
        GroupSize(32),
    ];

    /// A full warp (`|g| = 32`).
    pub const WARP: GroupSize = GroupSize(32);

    /// Creates a group size.
    ///
    /// # Panics
    /// Panics unless `n ∈ {1, 2, 4, 8, 16, 32}`.
    #[must_use]
    pub fn new(n: u32) -> Self {
        assert!(
            matches!(n, 1 | 2 | 4 | 8 | 16 | 32),
            "coalesced group size must divide a warp: got {n}"
        );
        Self(n)
    }

    /// The raw size.
    #[inline]
    #[must_use]
    pub fn get(self) -> u32 {
        self.0
    }

    /// Number of sub-group probing windows per warp-sized span
    /// (`32 / |g|`, the inner-loop trip count of Fig. 3).
    #[inline]
    #[must_use]
    pub fn windows_per_warp(self) -> u32 {
        32 / self.0
    }
}

impl std::fmt::Display for GroupSize {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A window of up to 32 words read by one coalesced group.
///
/// `vals[r]` is the word loaded by lane `r`. Mirrors the register copies
/// `d_t` in the Fig. 3 pseudocode.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    vals: [u64; 32],
    size: u32,
}

impl Window {
    /// Word held by lane `rank`.
    #[inline]
    #[must_use]
    pub fn lane(&self, rank: u32) -> u64 {
        debug_assert!(rank < self.size);
        self.vals[rank as usize]
    }

    /// Number of lanes.
    #[inline]
    #[must_use]
    pub fn size(&self) -> u32 {
        self.size
    }

    /// Iterator over `(rank, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        (0..self.size).map(move |r| (r, self.vals[r as usize]))
    }
}

/// Execution context of one coalesced group inside a kernel launch.
///
/// All device-memory accessors perform transaction accounting; collectives
/// are pure bit operations (their hardware cost is negligible next to the
/// global-memory traffic, as in the paper).
pub struct GroupCtx<'a> {
    mem: &'a DeviceMemory,
    /// Scheduler-chunk accumulator: counted operations bump plain
    /// `Cell`s here (no atomics at all on the hot path). The launch
    /// driver owns the accumulator, shares it across every group of one
    /// scheduler chunk (one group under a stepwise schedule), and flushes
    /// it into the launch's one counter set when the chunk is done — `u64`
    /// addition commutes, so totals are bit-identical to per-op updates.
    local: &'a LocalCounters,
    group_id: usize,
    size: GroupSize,
    /// Stepwise scheduler of the launch, when one is active. `None` on
    /// the pool/sequential paths, so the per-operation pacing check is a
    /// single predictable branch.
    sched: Option<&'a StepSched>,
    /// `wd-sanitizer` context of the launch. `None` — the default — keeps
    /// every memory op at one predictable branch of sanitizer overhead:
    /// no locks, no allocation, counters untouched.
    san: Option<&'a LaunchSanitizer<'a>>,
    /// Racecheck vector clock of this group (iff racecheck is active).
    clock: Option<RefCell<GroupClock>>,
    /// Remaining ops of this group's scheduler lease (chunked dispatch):
    /// counted ops decrement it lock-free and only a zero crosses into
    /// [`StepSched::yield_point`] for a real scheduling decision. Stays 0
    /// under per-op dispatch, so every op yields, as the legacy path did.
    lease: Cell<u64>,
    /// Running collective-site counter (synccheck report labels).
    sites: Cell<u32>,
    /// Whether other threads run groups of this launch beside this one
    /// (the pool's launch of more than one chunk), so that a flag this
    /// group polls may still come while it spins.
    concurrent: bool,
    /// The node launch this group runs in and the member whose memory it
    /// is on, for stores into a peer's memory; `None` in a launch on one
    /// device.
    node: Option<(&'a Node<'a>, usize)>,
}

impl<'a> GroupCtx<'a> {
    pub(crate) fn new(
        mem: &'a DeviceMemory,
        local: &'a LocalCounters,
        group_id: usize,
        size: GroupSize,
        san: Option<&'a LaunchSanitizer<'a>>,
        concurrent: bool,
    ) -> Self {
        Self {
            mem,
            local,
            group_id,
            size,
            sched: None,
            san,
            clock: san.and_then(|s| s.group_clock(group_id)),
            lease: Cell::new(0),
            sites: Cell::new(0),
            concurrent,
            node: None,
        }
    }

    pub(crate) fn new_stepped(
        mem: &'a DeviceMemory,
        local: &'a LocalCounters,
        group_id: usize,
        size: GroupSize,
        sched: &'a StepSched,
        lease: u64,
        san: Option<&'a LaunchSanitizer<'a>>,
    ) -> Self {
        Self {
            mem,
            local,
            group_id,
            size,
            sched: Some(sched),
            san,
            clock: san.and_then(|s| s.group_clock(group_id)),
            lease: Cell::new(lease),
            sites: Cell::new(0),
            concurrent: false,
            node: None,
        }
    }

    /// This group as member `member` of the node launch `node`.
    pub(crate) fn in_node(mut self, node: &'a Node<'a>, member: usize) -> Self {
        self.node = Some((node, member));
        self
    }

    /// The node launch this group runs in, and its own member.
    fn node(&self) -> (&'a Node<'a>, usize) {
        self.node.expect("a store into a peer's memory needs a node launch")
    }

    /// Sanitizer hook of one access of the `halves` of `slice[idx]` (`idx`
    /// already resolved in-bounds), checked by `san`: this group's own
    /// launch, or a peer's in a node launch.
    #[inline]
    fn san_access(
        &self,
        san: Option<&LaunchSanitizer>,
        slice: DevSlice,
        idx: usize,
        kind: AccessKind,
        halves: u8,
    ) {
        if let Some(s) = san {
            s.on_access(slice, idx, kind, halves, self.group_id, None, self.clock.as_ref());
        }
    }

    /// Epoch advance + site bump at every collective; returns the site id
    /// of this collective for synccheck labels.
    #[inline]
    fn san_collective(&self) -> u32 {
        let site = self.sites.get();
        if let Some(s) = self.san {
            self.sites.set(site + 1);
            s.on_collective(self.clock.as_ref());
        }
        site
    }

    /// Preemption point: under a stepwise schedule, possibly hands
    /// execution to another group. Free (one `None` check) on the pool
    /// and sequential paths. Called at the top of every counted
    /// device-memory operation — the places where groups interact.
    ///
    /// Chunked dispatch: while the lease countdown is positive the op is
    /// already covered by a pre-computed scheduling decision, so no lock
    /// is taken. On expiry, any buffered racecheck release edges flush
    /// first — another group may run next and must observe them — then
    /// the scheduler makes a real decision and hands back a fresh lease
    /// (minus the op about to execute).
    #[inline]
    fn pace(&self) {
        if let Some(s) = self.sched {
            let left = self.lease.get();
            if left > 0 {
                self.lease.set(left - 1);
            } else {
                if let Some(san) = self.san {
                    san.flush_releases(self.clock.as_ref());
                }
                self.lease.set(s.yield_point(self.group_id).saturating_sub(1));
            }
        }
    }

    /// End-of-kernel bookkeeping for stepwise launches: publishes any
    /// still-buffered racecheck release edges (a later group may acquire
    /// them after this group retires) and returns the unused lease so
    /// the scheduler can rewind its pre-drawn decisions.
    pub(crate) fn retire(&self) -> u64 {
        if let Some(san) = self.san {
            san.flush_releases(self.clock.as_ref());
        }
        self.lease.get()
    }

    /// Identifier of this group within the launch (like
    /// `blockIdx * groupsPerBlock + groupIdx`).
    #[inline]
    #[must_use]
    pub fn group_id(&self) -> usize {
        self.group_id
    }

    /// Size of the coalesced group.
    #[inline]
    #[must_use]
    pub fn size(&self) -> GroupSize {
        self.size
    }

    // ---- collectives ----------------------------------------------------

    /// `g.ballot(pred)`: evaluates `pred(rank)` on every lane and returns
    /// the packed `|g|`-bit mask (implicitly synchronizing, as the paper's
    /// CG member function does).
    #[inline]
    #[must_use]
    pub fn ballot(&self, mut pred: impl FnMut(u32) -> bool) -> u32 {
        self.san_collective();
        let mut mask = 0u32;
        for rank in 0..self.size.get() {
            if pred(rank) {
                mask |= 1 << rank;
            }
        }
        mask
    }

    /// `g.any(pred)`: true if the predicate holds on any lane.
    #[inline]
    #[must_use]
    pub fn any(&self, pred: impl FnMut(u32) -> bool) -> bool {
        self.ballot(pred) != 0
    }

    /// `g.all(pred)`: true if the predicate holds on every lane.
    #[inline]
    #[must_use]
    pub fn all(&self, pred: impl FnMut(u32) -> bool) -> bool {
        self.san_collective();
        (0..self.size.get()).all(pred)
    }

    /// The participation mask with every lane of the group active.
    #[inline]
    #[must_use]
    pub fn full_mask(&self) -> u32 {
        u32::MAX >> (32 - self.size.get())
    }

    /// `g.ballot(pred)` restricted to the lanes of `active` — the masked
    /// collective a kernel reaches when *it believes* some lanes have
    /// exited. Under synccheck, a mask that differs from
    /// [`GroupCtx::full_mask`] is reported as a divergent collective
    /// (`compute-sanitizer --tool synccheck`'s "divergent thread(s) in
    /// warp"); lanes outside `active` do not evaluate the predicate.
    #[must_use]
    pub fn ballot_where(&self, active: u32, mut pred: impl FnMut(u32) -> bool) -> u32 {
        let site = self.sites.get();
        if let Some(s) = self.san {
            self.sites.set(site + 1);
            s.on_masked_collective(
                self.group_id,
                site,
                active,
                self.full_mask(),
                self.clock.as_ref(),
            );
        }
        let mut mask = 0u32;
        for rank in 0..self.size.get() {
            if active & (1 << rank) != 0 && pred(rank) {
                mask |= 1 << rank;
            }
        }
        mask
    }

    /// `g.any(pred)` restricted to the lanes of `active` (see
    /// [`GroupCtx::ballot_where`]).
    #[must_use]
    pub fn any_where(&self, active: u32, pred: impl FnMut(u32) -> bool) -> bool {
        self.ballot_where(active, pred) != 0
    }

    /// `__ffs(mask) - 1`: the lowest-ranked active lane — the *leader* in
    /// the paper's probing scheme ("leftmost position in the CG").
    #[inline]
    #[must_use]
    pub fn ffs(mask: u32) -> Option<u32> {
        if mask == 0 {
            None
        } else {
            Some(mask.trailing_zeros())
        }
    }

    // ---- counted memory accesses ----------------------------------------

    /// Coalesced group load of `|g|` consecutive slots starting at
    /// `base mod slice.len()` (each lane `r` loads slot
    /// `(base + r) mod len`, line 7–8 of Fig. 3).
    ///
    /// Counts the exact number of 32-byte transactions the access pattern
    /// touches — including the extra transaction when the window wraps
    /// around the end of the table — and one dependent round-trip.
    #[must_use]
    pub fn read_window(&self, slice: DevSlice, base: usize) -> Window {
        self.pace();
        let len = slice.len();
        debug_assert!(len > 0);
        let g = self.size.get() as usize;
        let start = fast_idx(base, len);
        let mut vals = [0u64; 32];
        if start + g <= len {
            // common case: the window does not wrap — straight-line
            // indices, no per-lane reduction at all
            for (r, val) in vals.iter_mut().enumerate().take(g) {
                *val = self.mem.word(slice, start + r).load(Ordering::Relaxed);
            }
        } else {
            let mut idx = start;
            for val in vals.iter_mut().take(g) {
                *val = self.mem.word(slice, idx).load(Ordering::Relaxed);
                idx += 1;
                if idx == len {
                    idx = 0; // wrap to the front of the table (mod len)
                }
            }
        }
        // window loads are *relaxed by design*: probing tolerates racing
        // CAS claims and annotated shared stores (stale data is
        // re-balloted), so racecheck only flags plain writes. The whole
        // window is checked in one batched call (one shadow lock).
        if let Some(s) = self.san {
            s.on_window_read(slice, start, g, self.group_id, self.clock.as_ref());
        }
        self.local
            .add_transactions(window_transactions(slice, start, g));
        self.local.add_steps(1);
        Window {
            vals,
            size: self.size.get(),
        }
    }

    /// Reloads a single lane's slot after a failed CAS (line 20 of
    /// Fig. 3). The hardware would reload the full window in one
    /// transaction; we count one transaction and one step.
    #[must_use]
    pub fn reload_window(&self, slice: DevSlice, base: usize) -> Window {
        // Semantically identical to read_window but kept separate so the
        // counters reflect that a reload is a fresh round trip.
        self.read_window(slice, base)
    }

    /// Uncoalesced single-word load (one full 32-byte transaction even
    /// though only 8 bytes are useful — this is what makes the `|g| = 1`
    /// naïve scheme and the cuckoo baselines bandwidth-hungry).
    #[must_use]
    pub fn read(&self, slice: DevSlice, idx: usize) -> u64 {
        self.pace();
        let idx = fast_idx(idx, slice.len());
        let v = self.mem.word(slice, idx).load(Ordering::Relaxed);
        self.san_access(self.san, slice, idx, AccessKind::PlainRead, BOTH);
        self.local.add_transactions(1);
        self.local.add_steps(1);
        v
    }

    /// Uncoalesced single-word store.
    pub fn write(&self, slice: DevSlice, idx: usize, val: u64) {
        self.pace();
        let idx = fast_idx(idx, slice.len());
        self.san_access(self.san, slice, idx, AccessKind::PlainWrite, BOTH);
        self.mem.word(slice, idx).store(val, Ordering::Relaxed);
        self.local.add_transactions(1);
    }

    /// Uncoalesced single-word load *annotated as intentionally relaxed*:
    /// the protocol tolerates racing [`GroupCtx::write_shared`] stores of
    /// the same word (e.g. reading an SOA value word that concurrent
    /// updaters overwrite last-writer-wins). Counted exactly like
    /// [`GroupCtx::read`]; only racecheck treats it differently.
    #[must_use]
    pub fn read_shared(&self, slice: DevSlice, idx: usize) -> u64 {
        self.pace();
        let idx = fast_idx(idx, slice.len());
        let v = self.mem.word(slice, idx).load(Ordering::Relaxed);
        self.san_access(self.san, slice, idx, AccessKind::SharedRead, BOTH);
        self.local.add_transactions(1);
        self.local.add_steps(1);
        v
    }

    /// Uncoalesced single-word store *annotated as intentionally relaxed*
    /// (last-writer-wins by protocol design, e.g. the SOA value-word
    /// update path). Counted exactly like [`GroupCtx::write`]; racecheck
    /// flags it only against unordered *plain* accesses — an unannotated
    /// plain store racing this one is still a finding.
    pub fn write_shared(&self, slice: DevSlice, idx: usize, val: u64) {
        self.pace();
        let idx = fast_idx(idx, slice.len());
        self.san_access(self.san, slice, idx, AccessKind::SharedWrite, BOTH);
        self.mem.word(slice, idx).store(val, Ordering::Relaxed);
        self.local.add_transactions(1);
    }

    /// Fully coalesced streaming load (bulk inputs: keys to insert or
    /// query). Counts 8 bytes at streaming bandwidth, no dependent step —
    /// these accesses are prefetch-friendly.
    #[must_use]
    pub fn read_stream(&self, slice: DevSlice, idx: usize) -> u64 {
        self.pace();
        self.local.add_stream_bytes(8);
        if let Some(s) = self.san {
            // streaming accesses index directly (no wrap) — the one place
            // a counted op can run off a slice. Memcheck reports and
            // *contains* the access: the load is skipped, returning 0.
            if !s.stream_in_bounds("read_stream", slice, idx, self.group_id) && s.contains_oob() {
                return 0;
            }
        }
        let v = self.mem.word(slice, idx).load(Ordering::Relaxed);
        self.san_access(self.san, slice, idx, AccessKind::PlainRead, BOTH);
        v
    }

    /// Fully coalesced streaming store (bulk outputs: query results).
    pub fn write_stream(&self, slice: DevSlice, idx: usize, val: u64) {
        self.pace();
        self.local.add_stream_bytes(8);
        if let Some(s) = self.san {
            if !s.stream_in_bounds("write_stream", slice, idx, self.group_id) && s.contains_oob() {
                return;
            }
        }
        self.san_access(self.san, slice, idx, AccessKind::PlainWrite, BOTH);
        self.mem.word(slice, idx).store(val, Ordering::Relaxed);
    }

    /// Streaming load of 32-bit half `h` of `slice` — the low half of word
    /// `h / 2` for even `h`, its high half for odd — billed 4 bytes at
    /// streaming bandwidth, like [`GroupCtx::read_stream`] of half a word.
    /// The sanitizer checks that half alone: initcheck asks it to be
    /// written, and racecheck orders the load only against that half's
    /// stores, so a group may read one half while another stores the other.
    #[must_use]
    pub fn read_stream_half(&self, slice: DevSlice, h: usize) -> u32 {
        self.pace();
        self.local.add_stream_bytes(4);
        let (idx, high) = (h / 2, h % 2);
        if let Some(s) = self.san {
            if !s.stream_in_bounds("read_stream_half", slice, idx, self.group_id)
                && s.contains_oob()
            {
                return 0;
            }
        }
        self.san_access(self.san, slice, idx, AccessKind::PlainRead, 1 << high);
        (self.mem.word(slice, idx).load(Ordering::Relaxed) >> (32 * high)) as u32
    }

    /// Streaming store of `val` into 32-bit half `h` of `slice` (as
    /// [`GroupCtx::read_stream_half`] numbers them), billed 4 bytes at
    /// streaming bandwidth. The other half of the word is left as it is,
    /// so groups may store the two halves of one word.
    pub fn write_stream_half(&self, slice: DevSlice, h: usize, val: u32) {
        self.pace();
        self.local.add_stream_bytes(4);
        let (idx, high) = (h / 2, h % 2);
        if let Some(s) = self.san {
            if !s.stream_in_bounds("write_stream_half", slice, idx, self.group_id)
                && s.contains_oob()
            {
                return;
            }
        }
        self.san_access(self.san, slice, idx, AccessKind::PlainWrite, 1 << high);
        store_half(self.mem.word(slice, idx), high, val);
    }

    /// Release streaming store: a word of a run that consecutive groups
    /// store, coalesced and billed like [`GroupCtx::write_stream`] — the
    /// release orders this group's earlier accesses before the word, a
    /// fence on hardware, not traffic. The word is its own flag: a later
    /// group's [`GroupCtx::poll`] that finds it written may use it.
    pub fn publish_stream(&self, slice: DevSlice, idx: usize, val: u64) {
        self.pace();
        self.local.add_stream_bytes(8);
        if let Some(s) = self.san {
            if !s.stream_in_bounds("publish_stream", slice, idx, self.group_id)
                && s.contains_oob()
            {
                return;
            }
            s.on_release(slice, idx, self.group_id, self.clock.as_ref());
        }
        self.mem.word(slice, idx).store(val, Ordering::Release);
        if let Some(s) = self.sched {
            self.lease.set(s.wake(self.group_id, self.lease.get()));
        }
    }

    /// 64-bit `atomicCAS` on a table slot (line 13 of Fig. 3).
    ///
    /// Returns `Ok(())` on success and `Err(actual)` with the word that was
    /// found on failure, mirroring `compare_exchange`. The packed key-value
    /// word is self-contained — no other memory is published through it —
    /// so `Relaxed` ordering suffices (the AOS layout exists precisely to
    /// avoid cross-word publication; cf. the paper's SOA discussion).
    ///
    /// Billed as a *warm* atomic: in every WarpDrive kernel the CAS
    /// immediately follows the coalesced window load of the same sector,
    /// so the line is L2-resident and the RMW executes near the cache —
    /// no extra DRAM transaction.
    pub fn cas(&self, slice: DevSlice, idx: usize, current: u64, new: u64) -> Result<(), u64> {
        self.pace();
        let idx = fast_idx(idx, slice.len());
        self.san_access(self.san, slice, idx, AccessKind::Atomic, BOTH);
        let r = self.mem.word(slice, idx).compare_exchange(
            current,
            new,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
        self.local.add_cas(r.is_ok());
        self.local.add_steps(1);
        r.map(|_| ())
    }

    /// 64-bit `atomicExch` to a *cold* random address (the cuckoo
    /// baseline's eviction step): the line is not L2-resident, so the RMW
    /// pays a full sector fetch plus the cold-atomic round-trip.
    pub fn exchange(&self, slice: DevSlice, idx: usize, new: u64) -> u64 {
        self.pace();
        let idx = fast_idx(idx, slice.len());
        self.san_access(self.san, slice, idx, AccessKind::Atomic, BOTH);
        let old = self.mem.word(slice, idx).swap(new, Ordering::Relaxed);
        self.local.add_cold_atomic();
        self.local.add_transactions(1); // sector fetch
        self.local.add_steps(1);
        old
    }

    /// 64-bit `atomicAdd` returning the previous value (multisplit
    /// counters, warp-aggregated compaction).
    pub fn atomic_add(&self, slice: DevSlice, idx: usize, delta: u64) -> u64 {
        self.pace();
        let idx = fast_idx(idx, slice.len());
        self.san_access(self.san, slice, idx, AccessKind::Atomic, BOTH);
        let old = self.mem.word(slice, idx).fetch_add(delta, Ordering::Relaxed);
        self.local.add_atomic();
        self.local.add_steps(1);
        old
    }

    /// 64-bit `atomicOr` returning the previous value (ticket-board bit
    /// claims in the Stadium-hash baseline).
    pub fn atomic_or(&self, slice: DevSlice, idx: usize, bits: u64) -> u64 {
        self.pace();
        let idx = fast_idx(idx, slice.len());
        self.san_access(self.san, slice, idx, AccessKind::Atomic, BOTH);
        let old = self.mem.word(slice, idx).fetch_or(bits, Ordering::Relaxed);
        self.local.add_atomic();
        self.local.add_steps(1);
        old
    }

    // ---- flags: one group publishes, a later one waits --------------------

    /// Release publish: stores `vals` into the consecutive words of `slice`
    /// from `at` on — flags that a later group's [`GroupCtx::poll`] waits
    /// for — ordered after everything this group did before. Billed as the
    /// 32-byte sectors the words span, with no dependent step, like a group
    /// store. Under a stepwise schedule every parked group becomes runnable
    /// again ([`crate::sched`]).
    pub fn publish(&self, slice: DevSlice, at: usize, vals: &[u64]) {
        self.pace();
        debug_assert!(!vals.is_empty(), "a publish stores a flag");
        let start = fast_idx(at, slice.len());
        for (i, &val) in vals.iter().enumerate() {
            let idx = fast_idx(start + i, slice.len());
            if let Some(s) = self.san {
                s.on_release(slice, idx, self.group_id, self.clock.as_ref());
            }
            self.mem.word(slice, idx).store(val, Ordering::Release);
        }
        self.local
            .add_transactions(window_transactions(slice, start, vals.len()));
        if let Some(s) = self.sched {
            self.lease.set(s.wake(self.group_id, self.lease.get()));
        }
    }

    /// Group store into a peer's memory in a node launch
    /// ([`crate::node`]): `vals` into the consecutive words of `slice` of
    /// member `peer`, from `at` on, as plain stores. The words cross the
    /// link from this group's member to `peer` — `width` bytes each, 8 for
    /// a word and fewer for a word that carries a flag of that many bytes —
    /// and the node counts them on that edge, none on a store into the
    /// group's own member; the interconnect model bills them, not either
    /// device's memory counters.
    ///
    /// # Panics
    /// Panics outside a node launch.
    pub fn store_peer(&self, peer: usize, slice: DevSlice, at: usize, vals: &[u64], width: u64) {
        self.pace();
        let (node, me) = self.node();
        let (mem, san) = (node.mem(peer), node.san(peer));
        for (i, &val) in vals.iter().enumerate() {
            let idx = fast_idx(at + i, slice.len());
            self.san_access(san, slice, idx, AccessKind::PlainWrite, BOTH);
            mem.word(slice, idx).store(val, Ordering::Relaxed);
        }
        if peer != me {
            node.count_edge(me, peer, vals.len() as u64 * width);
        }
    }

    /// [`GroupCtx::store_peer`] of 32-bit halves: `vals` into the
    /// consecutive halves of `slice` of member `peer` from half `at` on (as
    /// [`GroupCtx::read_stream_half`] numbers them), 4 bytes each on the
    /// link. The other half of a word at either end is left as it is, so
    /// two groups may store the two halves of one word.
    ///
    /// # Panics
    /// Panics outside a node launch.
    pub fn store_peer_halves(&self, peer: usize, slice: DevSlice, at: usize, vals: &[u32]) {
        self.pace();
        let (node, me) = self.node();
        let (mem, san) = (node.mem(peer), node.san(peer));
        for (i, &val) in vals.iter().enumerate() {
            let (idx, high) = (fast_idx((at + i) / 2, slice.len()), (at + i) % 2);
            self.san_access(san, slice, idx, AccessKind::PlainWrite, 1 << high);
            store_half(mem.word(slice, idx), high, val);
        }
        if peer != me {
            node.count_edge(me, peer, 4 * vals.len() as u64);
        }
    }

    /// [`GroupCtx::publish`] into the memory of member `peer` of a node
    /// launch: a flag that a group on `peer` polls, ordered after
    /// everything this group did before, the stores into that memory
    /// included. Billed as a publish, to this group's counters.
    ///
    /// # Panics
    /// Panics outside a node launch.
    pub fn publish_peer(&self, peer: usize, slice: DevSlice, at: usize, vals: &[u64]) {
        self.pace();
        debug_assert!(!vals.is_empty(), "a publish stores a flag");
        let (node, _) = self.node();
        let (mem, san) = (node.mem(peer), node.san(peer));
        let start = fast_idx(at, slice.len());
        for (i, &val) in vals.iter().enumerate() {
            let idx = fast_idx(start + i, slice.len());
            if let Some(s) = san {
                s.on_release(slice, idx, self.group_id, self.clock.as_ref());
            }
            mem.word(slice, idx).store(val, Ordering::Release);
        }
        self.local
            .add_transactions(window_transactions(slice, start, vals.len()));
        if let Some(s) = self.sched {
            self.lease.set(s.wake(self.group_id, self.lease.get()));
        }
    }

    /// Acquire poll: waits until `ready` holds for the `out.len()` words of
    /// `slice` from `at` on and copies them into `out`; what their
    /// publishers did before [`GroupCtx::publish`] is then ordered before
    /// what this group does next. Billed as one read of the words' sectors
    /// and one dependent step **however long it waited**, so a launch
    /// bills the same under every schedule.
    ///
    /// `depth` is where the wait stands on the launch's longest chain of
    /// waits: 1 for a flag published without waiting, one more than its
    /// publisher's for a flag published after a wait. The launch keeps the
    /// deepest and bills `depth` memory round-trips whole on top of its
    /// latency term ([`crate::TimingModel::chain_latency`]) — a chain
    /// cannot overlap its own waits, whatever else the grid does.
    ///
    /// A group may only wait on flags of **lower group ids**. How it waits
    /// depends on the schedule, and each way makes progress:
    ///
    /// * **stepwise**: a poll that finds the words not ready *parks* the
    ///   group until another group publishes or retires ([`crate::sched`]);
    ///   the wave admits groups in id order, so what the lowest waiter waits
    ///   on has run.
    /// * **`Sequential`, and a pool launch of one chunk** (at most 1 024
    ///   groups): one thread runs the groups in id order, so a lower group's
    ///   flag is there already. One that is not will never come, and the
    ///   poll panics instead of hanging.
    /// * **pool launch of more chunks**: the group spins. Progress rests on
    ///   how the rayon shim runs `into_par_iter().for_each` over the chunks
    ///   (`shims/rayon`): each thread takes one contiguous range of them and
    ///   runs it in ascending order, the caller the first range, every
    ///   range at once — or, when the workers are busy, the caller runs all
    ///   of them in order. So a thread's first waiter waits on a lower range,
    ///   whose thread never waits on a higher one, and by induction over
    ///   group ids every flag comes. This crate's `tests/flags.rs` pins that shape.
    ///
    /// # Panics
    /// Panics if the flag cannot come: on a single thread, as above, or
    /// when every resident group of a stepwise launch waits.
    pub fn poll(
        &self,
        slice: DevSlice,
        at: usize,
        out: &mut [u64],
        depth: u64,
        ready: impl Fn(&[u64]) -> bool,
    ) {
        let start = self.wait(slice, at, out, depth, ready);
        self.local
            .add_transactions(window_transactions(slice, start, out.len()));
        self.local.add_steps(1);
    }

    /// [`GroupCtx::poll`] of a run of consecutive words that are each
    /// their own flag ([`GroupCtx::publish_stream`]), which the group reads
    /// as it streams them: it waits as a poll does and is billed like
    /// [`GroupCtx::read_stream`] of each word, 8 bytes, and one dependent
    /// step.
    ///
    /// # Panics
    /// As [`GroupCtx::poll`].
    pub fn poll_stream(
        &self,
        slice: DevSlice,
        at: usize,
        out: &mut [u64],
        depth: u64,
        ready: impl Fn(&[u64]) -> bool,
    ) {
        self.wait(slice, at, out, depth, ready);
        self.local.add_stream_bytes(8 * out.len() as u64);
        self.local.add_steps(1);
    }

    /// The wait of a poll, unbilled: returns where in `slice` the words
    /// start.
    fn wait(
        &self,
        slice: DevSlice,
        at: usize,
        out: &mut [u64],
        depth: u64,
        ready: impl Fn(&[u64]) -> bool,
    ) -> usize {
        self.pace();
        let start = fast_idx(at, slice.len());
        let word = |i: usize| self.mem.word(slice, fast_idx(start + i, slice.len()));
        loop {
            for (i, val) in out.iter_mut().enumerate() {
                *val = word(i).load(Ordering::Acquire);
            }
            if ready(out) {
                break;
            }
            if let Some(s) = self.sched {
                if let Some(san) = self.san {
                    san.flush_releases(self.clock.as_ref());
                }
                self.lease.set(s.park(self.group_id, self.lease.get()));
            } else {
                assert!(
                    self.concurrent,
                    "group {} polls a flag that no earlier group published",
                    self.group_id
                );
                std::hint::spin_loop();
                std::thread::yield_now();
            }
        }
        for i in 0..out.len() {
            let idx = fast_idx(start + i, slice.len());
            self.san_access(self.san, slice, idx, AccessKind::Atomic, BOTH);
        }
        self.local.note_chain(depth);
        start
    }

    /// Bills `n` irregular 32-byte transactions without touching memory —
    /// a modeling hook for composite kernels whose functional work happens
    /// elsewhere (e.g. the radix-scatter pass of the sort-based
    /// multisplit, whose permutation is computed host-side but whose
    /// traffic must still be charged).
    pub fn bill_transactions(&self, n: u64) {
        self.pace();
        self.local.add_transactions(n);
        self.local.add_steps(1);
    }

    /// Bills `bytes` of coalesced streaming traffic without touching
    /// memory (modeling hook, cf. [`GroupCtx::bill_transactions`]).
    pub fn bill_stream_bytes(&self, bytes: u64) {
        self.local.add_stream_bytes(bytes);
    }
}

/// Reduces an index into `[0, len)` without a hardware division on the
/// common path. Kernel call sites almost always pass an already-reduced
/// index (the probers reduce modulo capacity before dispatch), so the
/// branch is predictably not-taken and costs ~1 cycle where `idx % len`
/// costs a 64-bit `div`. Bit-identical to `idx % len` in every case.
#[inline]
fn fast_idx(idx: usize, len: usize) -> usize {
    if idx < len {
        idx
    } else {
        idx % len
    }
}

/// Words of a 32-byte sector, the unit of a transaction.
const WORDS_PER_SECTOR: usize = 4;

/// Number of 32-byte transactions touched by a `len`-slot window starting
/// at `start` (word indices relative to the slice), accounting for
/// wraparound at the slice end and for the slice's absolute alignment.
fn window_transactions(slice: DevSlice, start: usize, len: usize) -> u64 {
    let table_len = slice.len();
    let seg_of = |abs_word: usize| abs_word / WORDS_PER_SECTOR;
    if start + len <= table_len {
        let first = seg_of(slice.offset + start);
        let last = seg_of(slice.offset + start + len - 1);
        (last - first + 1) as u64
    } else {
        // wrapped: [start, table_len) and [0, start+len-table_len)
        let head = table_len - start;
        let tail = len - head;
        window_transactions(slice, start, head) + window_transactions(slice, 0, tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::{CounterSnapshot, KernelCounters};
    use crate::mem::DeviceMemory;

    fn ctx<'a>(mem: &'a DeviceMemory, local: &'a LocalCounters, g: u32) -> GroupCtx<'a> {
        GroupCtx::new(mem, local, 0, GroupSize::new(g), None, false)
    }

    /// The totals flushed into `c` so far.
    fn totals(c: &KernelCounters) -> CounterSnapshot {
        c.snapshot().0
    }

    #[test]
    fn full_mask_matches_group_size() {
        let mem = DeviceMemory::new(8);
        let l = LocalCounters::new();
        assert_eq!(ctx(&mem, &l, 1).full_mask(), 0b1);
        assert_eq!(ctx(&mem, &l, 4).full_mask(), 0b1111);
        assert_eq!(ctx(&mem, &l, 32).full_mask(), u32::MAX);
    }

    #[test]
    fn masked_collectives_skip_inactive_lanes() {
        let mem = DeviceMemory::new(8);
        let l = LocalCounters::new();
        let g = ctx(&mem, &l, 4);
        // lane 2 inactive: its predicate must not run and cannot vote
        let mask = g.ballot_where(0b1011, |r| {
            assert_ne!(r, 2);
            r != 0
        });
        assert_eq!(mask, 0b1010);
        assert!(g.any_where(0b0001, |r| r == 0));
        assert!(!g.any_where(0b1110, |r| r == 0));
    }

    #[test]
    fn shared_accessors_bill_like_plain_ones() {
        let mem = DeviceMemory::new(8);
        let c = KernelCounters::default();
        let l = LocalCounters::new();
        let s = mem.alloc(4).unwrap();
        mem.fill(s, 7);
        let g = ctx(&mem, &l, 1);
        g.write_shared(s, 1, 9);
        assert_eq!(g.read_shared(s, 1), 9);
        drop(g);
        l.flush_into(&c, 1); // the chunk is done: flush the accumulator
        let snap = totals(&c);
        assert_eq!(snap.transactions, 2);
        assert_eq!(snap.group_steps, 1); // read pays the round-trip, write doesn't
    }

    #[test]
    #[should_panic(expected = "group size")]
    fn invalid_group_size_rejected() {
        let _ = GroupSize::new(3);
    }

    #[test]
    fn windows_per_warp_is_inner_trip_count() {
        assert_eq!(GroupSize::new(1).windows_per_warp(), 32);
        assert_eq!(GroupSize::new(8).windows_per_warp(), 4);
        assert_eq!(GroupSize::WARP.windows_per_warp(), 1);
    }

    #[test]
    fn ballot_packs_lane_predicates() {
        let mem = DeviceMemory::new(64);
        let l = LocalCounters::new();
        let g = ctx(&mem, &l, 8);
        let mask = g.ballot(|r| r % 2 == 0);
        assert_eq!(mask, 0b0101_0101);
        assert!(g.any(|r| r == 7));
        assert!(!g.any(|r| r > 7));
        assert!(g.all(|r| r < 8));
    }

    #[test]
    fn ffs_finds_lowest_rank() {
        assert_eq!(GroupCtx::ffs(0), None);
        assert_eq!(GroupCtx::ffs(0b1000), Some(3));
        assert_eq!(GroupCtx::ffs(0b1001), Some(0));
    }

    #[test]
    fn read_window_wraps_around_table() {
        let mem = DeviceMemory::new(16);
        let l = LocalCounters::new();
        let s = mem.alloc(10).unwrap();
        let data: Vec<u64> = (100..110).collect();
        mem.h2d(s, &data);
        let g = ctx(&mem, &l, 4);
        let w = g.read_window(s, 8); // slots 8, 9, 0, 1
        assert_eq!(w.lane(0), 108);
        assert_eq!(w.lane(1), 109);
        assert_eq!(w.lane(2), 100);
        assert_eq!(w.lane(3), 101);
    }

    #[test]
    fn window_transaction_counting_aligned() {
        let mem = DeviceMemory::new(64);
        let c = KernelCounters::default();
        let l = LocalCounters::new();
        let s = mem.alloc(64).unwrap(); // offset 0, aligned
        let g8 = ctx(&mem, &l, 8);
        let _ = g8.read_window(s, 0); // words 0..8 → segments 0,1 → 2 txns
        drop(g8);
        l.flush_into(&c, 1);
        assert_eq!(totals(&c).transactions, 2);
        let g8 = ctx(&mem, &l, 8);
        let _ = g8.read_window(s, 2); // words 2..10 → segments 0,1,2 → 3 txns
        drop(g8);
        l.flush_into(&c, 1);
        assert_eq!(totals(&c).transactions, 5);
    }

    #[test]
    fn window_transaction_counting_wrapped() {
        let mem = DeviceMemory::new(64);
        let c = KernelCounters::default();
        let l = LocalCounters::new();
        let s = mem.alloc(16).unwrap();
        let g4 = ctx(&mem, &l, 4);
        let _ = g4.read_window(s, 14); // 14,15 + 0,1 → 2 segments
        drop(g4);
        l.flush_into(&c, 1);
        assert_eq!(totals(&c).transactions, 2);
    }

    #[test]
    fn cas_success_and_failure_paths() {
        let mem = DeviceMemory::new(8);
        let c = KernelCounters::default();
        let l = LocalCounters::new();
        let s = mem.alloc(4).unwrap();
        let g = ctx(&mem, &l, 1);
        assert!(g.cas(s, 2, 0, 42).is_ok());
        assert_eq!(g.cas(s, 2, 0, 43), Err(42));
        drop(g);
        l.flush_into(&c, 1);
        let snap = totals(&c);
        assert_eq!(snap.cas_ops, 2);
        assert_eq!(snap.cas_failed, 1);
        assert_eq!(mem.d2h(s)[2], 42);
    }

    #[test]
    fn atomic_add_returns_previous() {
        let mem = DeviceMemory::new(4);
        let c = KernelCounters::default();
        let l = LocalCounters::new();
        let s = mem.alloc(1).unwrap();
        let g = ctx(&mem, &l, 1);
        assert_eq!(g.atomic_add(s, 0, 5), 0);
        assert_eq!(g.atomic_add(s, 0, 7), 5);
        assert_eq!(mem.d2h(s)[0], 12);
        drop(g);
        l.flush_into(&c, 1);
        assert_eq!(totals(&c).atomic_ops, 2);
    }

    #[test]
    fn stream_accesses_count_bytes_not_transactions() {
        let mem = DeviceMemory::new(8);
        let c = KernelCounters::default();
        let l = LocalCounters::new();
        let s = mem.alloc(8).unwrap();
        let g = ctx(&mem, &l, 4);
        let _ = g.read_stream(s, 0);
        g.write_stream(s, 1, 9);
        drop(g);
        l.flush_into(&c, 1);
        let snap = totals(&c);
        assert_eq!(snap.stream_bytes, 16);
        assert_eq!(snap.transactions, 0);
        assert_eq!(snap.group_steps, 0);
    }

    #[test]
    fn exchange_swaps_and_counts() {
        let mem = DeviceMemory::new(4);
        let l = LocalCounters::new();
        let s = mem.alloc(1).unwrap();
        mem.h2d(s, &[11]);
        let g = ctx(&mem, &l, 1);
        assert_eq!(g.exchange(s, 0, 22), 11);
        assert_eq!(mem.d2h(s)[0], 22);
    }
}
