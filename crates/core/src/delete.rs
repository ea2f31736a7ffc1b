//! The deletion kernel (tombstoning).
//!
//! Deletion replaces a live entry with the TOMBSTONE sentinel via CAS.
//! §IV-A's safety rule applies: insertions and queries may be issued
//! concurrently with each other, but deletions must be separated from
//! them by a global barrier — [`crate::GpuHashMap`] enforces this by
//! taking `&mut self` for [`crate::GpuHashMap::try_erase`], making the barrier
//! a compile-time fact (exclusive access ⇒ no concurrent kernel).

use crate::entry::{is_empty_slot, key_of};
use crate::history::{HistoryRecorder, OpKind, OpResponse};
use crate::table::Table;
use gpu_sim::{DevSlice, GroupCtx, GroupSize, KernelStats};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

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

/// Launches the deletion kernel for the `n` query words in `input`, one
/// group of `g` lanes per key: `hit(i)` for each key `i` it tombstoned.
/// Returns the kernel's stats and how many keys it tombstoned.
pub(crate) fn erase_kernel(
    table: &Table,
    g: GroupSize,
    input: DevSlice,
    n: usize,
    recorder: Option<&HistoryRecorder>,
    hit: impl Fn(usize) + Sync,
) -> (KernelStats, u64) {
    let erased = AtomicU64::new(0);
    let stats = table.launch("warpdrive_erase", n, g, |ctx: &GroupCtx| {
        let invoked = recorder.map(HistoryRecorder::invoke);
        let key = key_of(ctx.read_stream(input, ctx.group_id()));
        let found = erase_one(ctx, table, key);
        if found {
            erased.fetch_add(1, Relaxed);
            hit(ctx.group_id());
        }
        if let (Some(rec), Some(invoked)) = (recorder, invoked) {
            let response = OpResponse::Erased { hit: found };
            rec.complete(key, OpKind::Erase, response, invoked);
        }
    });
    (stats, erased.into_inner())
}

/// Tombstones one key by one coalesced group; whether it was found.
fn erase_one(ctx: &GroupCtx, table: &Table, key: u32) -> bool {
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
        if let ControlFlow::Break(hit) = slots.tombstone(ctx, slots.at(base, r), seen) {
            return ControlFlow::Break(hit);
        }
        // a racing erase changed the word; reload and look again
        window = ctx.reload_window(slots.keys, base);
    });
    erased.unwrap_or(false)
}
