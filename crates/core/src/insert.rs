//! Insertion — Fig. 3 of the paper, with the duplicate-key
//! update semantics of §V-B ("our implementation resolves such collisions
//! by updating an already written value for a colliding key").
//!
//! One coalesced group of the one kernel's put or upsert section
//! ([`crate::get_put`]) inserts one key-value pair:
//!
//! 1. outer loop `p < p_max`: re-derive the span base `h ← hash(d, p)`;
//! 2. inner loop `q < 32/|g|`: coalesced load of the `|g|`-slot window;
//! 3. ballot for a slot holding the *same key* — if present, CAS-update
//!    the value (AOS) or overwrite the value word (SOA, see
//!    `slots.rs` for the sentinel protocol that keeps the
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

use crate::config::Mutation;
use crate::entry::{is_empty_slot, is_tombstone, is_vacant, key_of, value_of};
use crate::history::{HistoryRecorder, OpKind, OpResponse};
use crate::table::Table;
use gpu_sim::{GroupCtx, KernelStats};
use std::ops::ControlFlow;
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
    /// insert of `word` it answers — a multiset insert where `multi`.
    pub(crate) fn note(
        &self,
        multi: bool,
        word: u64,
        r: GroupResult,
        history: Option<(&HistoryRecorder, u64)>,
    ) {
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
            let value = value_of(word);
            let kind = if multi { OpKind::InsertMulti { value } } else { OpKind::Insert { value } };
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

/// Inserts one packed pair by one coalesced group. `want_old` asks an
/// update for the pair it replaced — free in AOS, one more read of the
/// value word in SOA, which a plain put therefore does not ask for. On a
/// multi-value table the duplicate-key ballot is off: the pair claims the
/// first vacant slot of its key's sequence.
pub(crate) fn insert_one(ctx: &GroupCtx, table: &Table, word: u64, want_old: bool) -> GroupResult {
    let (slots, mutation, multi) = (table.slots(), table.mutation(), table.multi());
    let (key, value) = (key_of(word), value_of(word));
    let mut from = 0;
    loop {
        // first tombstone of this scan: (window, slot, word seen)
        let mut tomb: Option<(u64, usize, u64)> = None;
        let placed = table.walk(ctx, key, from, |w, base, mut window| {
            // lanes already CAS-failed since the last reload (only ever
            // non-zero under the mutation double)
            let mut tried: u32 = 0;
            loop {
                // update path: our key already lives in this window
                let dup = if multi { 0 } else { ctx.ballot(|r| slots.holds(window.lane(r), key)) };
                if let Some(r) = GroupCtx::ffs(dup) {
                    let seen = window.lane(r);
                    if let Some(old) = slots.update(ctx, slots.at(base, r), seen, word, want_old) {
                        return ControlFlow::Break(Some(GroupResult::Updated { old }));
                    }
                    window = ctx.reload_window(slots.keys, base);
                    tried = 0;
                    continue;
                }
                let mask = ctx.ballot(|r| is_vacant(window.lane(r))) & !tried;
                let ends = ctx.any(|r| is_empty_slot(window.lane(r)));
                if ends && tomb.is_some() {
                    return ControlFlow::Break(None); // not found: claim the tombstone
                }
                let Some(r) = GroupCtx::ffs(mask) else {
                    return ControlFlow::Continue(()); // window exhausted → next window
                };
                let (idx, expected) = (slots.at(base, r), window.lane(r));
                if !ends {
                    tomb.get_or_insert((w, idx, expected));
                    return ControlFlow::Continue(());
                }
                // claim path: leader CASes the leftmost vacant slot
                if slots.claim(ctx, idx, expected, word).is_ok() {
                    match slots.values {
                        // MUTATION DOUBLE: publish with a plain store — the
                        // lost release edge lets a racing updater's shared
                        // write interleave unordered, which racecheck flags
                        // even when the end state looks right.
                        Some(values) if mutation == Some(Mutation::PublishPlainStore) => {
                            ctx.write(values, idx, u64::from(value));
                        }
                        _ => slots.publish(ctx, idx, word),
                    }
                    // g.any(success) — all members exit
                    return ControlFlow::Break(Some(GroupResult::NewSlot {
                        reclaimed: is_tombstone(expected),
                    }));
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
                window = ctx.reload_window(slots.keys, base);
            }
        });
        if let Some(Some(result)) = placed {
            return result;
        }
        // the probe ended without our key: its first vacant slot was the
        // remembered tombstone
        let Some((at, idx, expected)) = tomb else {
            return GroupResult::Failed;
        };
        if slots.claim(ctx, idx, expected, word).is_ok() {
            slots.publish(ctx, idx, word);
            return GroupResult::NewSlot { reclaimed: true };
        }
        // lost it to a racing insert, possibly of our own key: rescan
        from = at;
    }
}
