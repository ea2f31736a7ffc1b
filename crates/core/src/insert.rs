//! The insertion kernel — Fig. 3 of the paper, with the duplicate-key
//! update semantics of §V-B ("our implementation resolves such collisions
//! by updating an already written value for a colliding key").
//!
//! One coalesced group inserts one key-value pair:
//!
//! 1. outer loop `p < p_max`: re-derive the span base `h ← hash(d, p)`;
//! 2. inner loop `q < 32/|g|`: coalesced load of the `|g|`-slot window;
//! 3. ballot for a slot holding the *same key* — if present, CAS-update
//!    the value (AOS) or overwrite the value word (SOA, see
//!    [`insert_one_soa`] for the sentinel protocol that keeps the
//!    split-word layout linearizable);
//! 4. ballot for vacant slots (`∅` or tombstone); in a window holding
//!    `∅` — where the probe for the key ends — the *leader* (lowest
//!    active lane, `__ffs`) attempts the CAS; on success every member
//!    exits (`g.any`), on failure the window is reloaded and the ballot
//!    repeated until the window is exhausted;
//! 5. a tombstone does not end the probe (the key may have been placed
//!    beyond it before the slot was deleted), so the first one met is
//!    only remembered, and claimed once the probe has ended without
//!    finding the key; a failed claim rescans from the tombstone's
//!    window, so racing inserts of one key still converge on one slot;
//! 6. after `p_max` spans without `∅` or a tombstone, raise an insertion
//!    error.
//!
//! The reload in step 4 is load-bearing: a failed claim CAS means another
//! group changed the window — possibly by inserting *our* key — so both
//! ballots must rerun against fresh data. The
//! [`Mutation::CasRecheck`] double skips exactly that reload so the
//! linearizability harness can prove it catches the resulting
//! duplicate-slot anomaly.

use crate::config::{Layout, Mutation};
use crate::entry::{
    is_empty_slot, is_tombstone, is_vacant, key_of, pack, value_of, EMPTY, RESERVED_KEY,
};
use crate::history::{HistoryRecorder, OpKind, OpResponse};
use crate::table::Table;
use gpu_sim::{DevSlice, GroupCtx, GroupSize, KernelStats};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Result of a bulk-insert launch.
#[derive(Debug, Clone)]
pub struct InsertOutcome {
    /// Kernel stats (counters + simulated time).
    pub stats: KernelStats,
    /// Pairs that exhausted `p_max` probing attempts.
    pub failed: u64,
    /// Pairs that claimed a previously vacant slot.
    pub new_slots: u64,
    /// Pairs that updated the value of an already-present key.
    pub updates: u64,
    /// Subset of `new_slots` whose claimed slot was a tombstone (the
    /// owning map deducts these from its tombstone count).
    pub reclaimed: u64,
}

/// What one group's insertion did.
#[derive(Clone, Copy)]
pub(crate) enum GroupResult {
    NewSlot {
        /// The claimed slot held a TOMBSTONE (not EMPTY).
        reclaimed: bool,
    },
    Updated {
        /// The `pack(key, value)` the update replaced. AOS always knows
        /// it (the expected word of the CAS that succeeded); SOA reads
        /// the value word only for a caller that asked ([`insert_one`]).
        old: Option<u64>,
    },
    Failed,
}

/// Per-launch insertion bookkeeping. It lives host-side (captured
/// atomics): the real kernel tracks only the error flag, so none of it
/// costs modeled traffic.
#[derive(Default)]
pub(crate) struct InsertTally {
    failed: AtomicU64,
    new_slots: AtomicU64,
    updates: AtomicU64,
    reclaimed: AtomicU64,
}

impl InsertTally {
    /// Counts one group's result and, with a recorder attached, logs the
    /// insert of `word` it answers.
    pub(crate) fn note(&self, word: u64, r: GroupResult, history: Option<(&HistoryRecorder, u64)>) {
        let response = match r {
            GroupResult::NewSlot { reclaimed } => {
                self.new_slots.fetch_add(1, Relaxed);
                if reclaimed {
                    self.reclaimed.fetch_add(1, Relaxed);
                }
                OpResponse::Inserted { new_slot: true }
            }
            GroupResult::Updated { .. } => {
                self.updates.fetch_add(1, Relaxed);
                OpResponse::Inserted { new_slot: false }
            }
            GroupResult::Failed => {
                self.failed.fetch_add(1, Relaxed);
                OpResponse::InsertFailed
            }
        };
        if let Some((rec, invoked)) = history {
            let kind = OpKind::Insert {
                value: value_of(word),
            };
            rec.complete(key_of(word), kind, response, invoked);
        }
    }

    /// The launch's outcome.
    pub(crate) fn outcome(self, stats: KernelStats) -> InsertOutcome {
        InsertOutcome {
            stats,
            failed: self.failed.into_inner(),
            new_slots: self.new_slots.into_inner(),
            updates: self.updates.into_inner(),
            reclaimed: self.reclaimed.into_inner(),
        }
    }
}

/// Launches the insertion kernel for the packed pairs in `input[..n]`,
/// one group of `g` lanes per pair.
pub(crate) fn insert_kernel(
    table: &Table,
    g: GroupSize,
    input: DevSlice,
    n: usize,
    recorder: Option<&HistoryRecorder>,
) -> InsertOutcome {
    let tally = InsertTally::default();
    let stats = table.launch("warpdrive_insert", n, g, |ctx: &GroupCtx| {
        let invoked = recorder.map(HistoryRecorder::invoke);
        let word = ctx.read_stream(input, ctx.group_id());
        let r = insert_one(ctx, table, word, false);
        tally.note(word, r, recorder.zip(invoked));
    });
    tally.outcome(stats)
}

/// Inserts one packed pair by one coalesced group, in the table's
/// layout. `want_old` asks an update for the pair it replaced — free in
/// AOS, one more read of the value word in SOA, which a plain put
/// therefore does not ask for.
pub(crate) fn insert_one(ctx: &GroupCtx, table: &Table, word: u64, want_old: bool) -> GroupResult {
    match table.layout() {
        Layout::Aos => insert_one_aos(ctx, table, word),
        Layout::Soa => insert_one_soa(ctx, table, word, want_old),
    }
}

/// AOS insertion of one packed pair by one coalesced group.
fn insert_one_aos(ctx: &GroupCtx, table: &Table, word: u64) -> GroupResult {
    let (prober, p_max, cap) = (table.prober(), table.p_max(), table.capacity());
    let mutation = table.mutation();
    let key = key_of(word);
    let g = ctx.size().get();
    let data = table.keys();
    let windows = u64::from(ctx.size().windows_per_warp());
    let mut w = 0u64;
    loop {
        // first tombstone of this scan: (window, slot, word seen)
        let mut tomb: Option<(u64, usize, u64)> = None;
        'scan: while w < u64::from(p_max) * windows {
            let (p, q) = ((w / windows) as u32, (w % windows) as u32);
            let base = prober.window_base(key, p, q, g) as usize;
            let mut window = ctx.read_window(data, base);
            // lanes already CAS-failed since the last reload (only ever
            // non-zero under the mutation double)
            let mut tried: u32 = 0;
            loop {
                // update path: our key already lives in this window
                let dup = ctx.ballot(|r| key_of(window.lane(r)) == key);
                if let Some(r) = GroupCtx::ffs(dup) {
                    let idx = crate::probing::wrap_slot(base, r as usize, cap);
                    let old = window.lane(r);
                    if ctx.cas(data, idx, old, word).is_ok() {
                        return GroupResult::Updated { old: Some(old) };
                    }
                    window = ctx.reload_window(data, base);
                    tried = 0;
                    continue;
                }
                let mask = ctx.ballot(|r| is_vacant(window.lane(r))) & !tried;
                let ends = ctx.any(|r| is_empty_slot(window.lane(r)));
                if ends && tomb.is_some() {
                    break 'scan;
                }
                let Some(r) = GroupCtx::ffs(mask) else {
                    break; // window exhausted → next window
                };
                let idx = crate::probing::wrap_slot(base, r as usize, cap);
                let expected = window.lane(r);
                if !ends {
                    tomb.get_or_insert((w, idx, expected));
                    break;
                }
                // claim path: leader CASes the leftmost vacant slot
                if ctx.cas(data, idx, expected, word).is_ok() {
                    // g.any(success) — all members exit
                    return GroupResult::NewSlot {
                        reclaimed: is_tombstone(expected),
                    };
                }
                if mutation == Some(Mutation::CasRecheck) {
                    // MUTATION DOUBLE: keep the stale window and move on to
                    // its next vacant slot without re-running the ballots —
                    // misses a racing insert of our own key, so the key can
                    // end up in two slots.
                    tried |= 1 << r;
                    continue;
                }
                if mutation == Some(Mutation::DivergentBallot) {
                    // MUTATION DOUBLE: re-ballot with the CAS-losing lane
                    // dropped from the participation mask — the "one lane
                    // exited the loop early" lockstep-divergence bug
                    // synccheck exists to catch. Functionally inert (the
                    // result is discarded and the window reloads below).
                    let active = ctx.full_mask() & !(1 << r);
                    let _ = ctx.ballot_where(active, |rr| is_vacant(window.lane(rr)));
                }
                // lost the race: reload and re-ballot (Fig. 3 lines 19–21)
                window = ctx.reload_window(data, base);
            }
            w += 1;
        }
        // the probe ended without our key: its first vacant slot was the
        // remembered tombstone
        let Some((at, idx, expected)) = tomb else {
            return GroupResult::Failed;
        };
        if ctx.cas(data, idx, expected, word).is_ok() {
            return GroupResult::NewSlot { reclaimed: true };
        }
        // lost it to a racing insert, possibly of our own key: rescan
        w = at;
    }
}

/// SOA insertion: CAS claims the key word, then the value word is
/// *published* with a CAS from the EMPTY sentinel. The sentinel CAS is
/// what makes the split-word layout linearizable: once the key word is
/// visible, racing duplicates of the same key take the update path and
/// overwrite the value word — if one of them gets there before the
/// claimer, the claimer's sentinel CAS fails and its (older) value is
/// discarded instead of clobbering an update that already responded.
/// (The schedule-sweep harness found exactly that lost-update anomaly in
/// the original plain-store variant.) Erase restores the sentinel, so
/// tombstone reclaim re-enters the same protocol.
fn insert_one_soa(ctx: &GroupCtx, table: &Table, word: u64, want_old: bool) -> GroupResult {
    let (prober, p_max, cap) = (table.prober(), table.p_max(), table.capacity());
    let mutation = table.mutation();
    let key = key_of(word);
    let value = value_of(word);
    let g = ctx.size().get();
    let keys = table.keys();
    let values = table.soa_values();
    let windows = u64::from(ctx.size().windows_per_warp());
    let mut w = 0u64;
    loop {
        // first tombstone of this scan — see the AOS variant above
        let mut tomb: Option<(u64, usize, u64)> = None;
        'scan: while w < u64::from(p_max) * windows {
            let (p, q) = ((w / windows) as u32, (w % windows) as u32);
            let base = prober.window_base(key, p, q, g) as usize;
            let mut window = ctx.read_window(keys, base);
            let mut tried: u32 = 0;
            loop {
                let dup = ctx.ballot(|r| soa_key_of(window.lane(r)) == Some(key));
                if let Some(r) = GroupCtx::ffs(dup) {
                    let idx = crate::probing::wrap_slot(base, r as usize, cap);
                    // what a retrieve of the key would have fetched
                    let old = want_old.then(|| soa_hit(key, ctx.read_shared(values, idx)));
                    // relaxed value overwrite: last writer wins, but two
                    // racing updaters may interleave with readers — the
                    // shared annotation tells racecheck this is by design
                    ctx.write_shared(values, idx, u64::from(value));
                    return GroupResult::Updated { old };
                }
                let mask = ctx.ballot(|r| is_vacant(window.lane(r))) & !tried;
                let ends = ctx.any(|r| is_empty_slot(window.lane(r)));
                if ends && tomb.is_some() {
                    break 'scan;
                }
                let Some(r) = GroupCtx::ffs(mask) else {
                    break;
                };
                let idx = crate::probing::wrap_slot(base, r as usize, cap);
                let expected = window.lane(r);
                if !ends {
                    tomb.get_or_insert((w, idx, expected));
                    break;
                }
                if ctx.cas(keys, idx, expected, u64::from(key)).is_ok() {
                    if mutation == Some(Mutation::PublishPlainStore) {
                        // MUTATION DOUBLE: publish with a plain store —
                        // the lost release edge lets a racing updater's
                        // shared write interleave unordered, which
                        // racecheck flags even when the end state looks
                        // right.
                        ctx.write(values, idx, u64::from(value));
                    } else {
                        // publish the value only if no racing update of
                        // this key beat us to the word (its response
                        // already promised the newer value survives)
                        let _ = ctx.cas(values, idx, EMPTY, u64::from(value));
                    }
                    return GroupResult::NewSlot {
                        reclaimed: is_tombstone(expected),
                    };
                }
                if mutation == Some(Mutation::CasRecheck) {
                    // MUTATION DOUBLE — see the AOS variant above
                    tried |= 1 << r;
                    continue;
                }
                window = ctx.reload_window(keys, base);
            }
            w += 1;
        }
        let Some((at, idx, expected)) = tomb else {
            return GroupResult::Failed;
        };
        if ctx.cas(keys, idx, expected, u64::from(key)).is_ok() {
            let _ = ctx.cas(values, idx, EMPTY, u64::from(value));
            return GroupResult::NewSlot { reclaimed: true };
        }
        w = at;
    }
}

/// Key stored in an SOA key word, if the slot is occupied.
#[inline]
pub(crate) fn soa_key_of(key_word: u64) -> Option<u32> {
    if is_vacant(key_word) {
        None
    } else {
        debug_assert!(key_word <= u64::from(RESERVED_KEY));
        Some(key_word as u32)
    }
}

/// Whether an SOA key word is the EMPTY sentinel (query terminator).
#[inline]
pub(crate) fn soa_is_empty(key_word: u64) -> bool {
    is_empty_slot(key_word)
}

/// Packs a retrieve result for an SOA hit.
#[inline]
pub(crate) fn soa_hit(key: u32, value_word: u64) -> u64 {
    pack(key, value_word as u32)
}
