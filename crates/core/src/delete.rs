//! Deletion (tombstoning): the erase and take sections of the one kernel
//! ([`crate::get_put`]).
//!
//! Deletion replaces a live entry with the TOMBSTONE sentinel via CAS.
//! §IV-A's safety rule is that insertions and queries may race each
//! other, but a deletion must be separated from them by a global barrier,
//! since a delete could race an insert. The kernel needs less: erase
//! groups share a launch with get, upsert and put groups as long as each
//! key has one group ([`crate::slots`] restores an SOA value word before
//! its tombstone is visible, so a put of another key may reclaim the slot
//! at once), and a key both read and erased is one take group, which
//! reads before it tombstones. So every [`crate::MapService::apply`]
//! erases in its one launch (its one cascade round), beside its reads and
//! puts. [`crate::GpuHashMap`] still takes `&mut self` for
//! [`crate::GpuHashMap::try_erase`]: the API's barrier between calls stays
//! a compile-time fact (exclusive access ⇒ no concurrent kernel).

use crate::entry::is_empty_slot;
use crate::table::Table;
use gpu_sim::{GroupCtx, KernelStats};
use std::ops::ControlFlow;

/// Result of a bulk erase.
#[derive(Debug, Clone)]
pub struct EraseOutcome {
    /// Kernel stats.
    pub stats: KernelStats,
    /// Number of keys found and tombstoned.
    pub erased: u64,
    /// Per-key outcome in input order: `hits[i]` is `true` iff input
    /// key `i` was found and tombstoned (`erased` is its popcount).
    pub hits: Vec<bool>,
}

/// Tombstones one key by one coalesced group; whether it was found.
pub(crate) fn erase_one(ctx: &GroupCtx, table: &Table, key: u32) -> bool {
    let slots = table.slots();
    let erased = table.walk(ctx, key, 0, |_, base, mut window| loop {
        let hit = ctx.ballot(|r| slots.holds(window.lane(r), key));
        let Some(r) = GroupCtx::ffs(hit) else {
            if ctx.any(|r| is_empty_slot(window.lane(r))) {
                return ControlFlow::Break(false); // key is not in the map
            }
            return ControlFlow::Continue(()); // window full of other keys → next window
        };
        let seen = window.lane(r);
        let tombstoned = slots.tombstone(ctx, slots.at(base, r), seen, table.mutation());
        if let ControlFlow::Break(hit) = tombstoned {
            return ControlFlow::Break(hit);
        }
        // a racing erase changed the word; reload and look again
        window = ctx.reload_window(slots.keys, base);
    });
    erased.unwrap_or(false)
}
