//! Retrieval (query): the get section of the one kernel
//! ([`crate::get_put`]), and the multi-value retrieval.
//!
//! "Queries are performed in a similar way whereby the atomic swap is not
//! required" (§IV-A). One coalesced group retrieves one key: windows are
//! probed in the exact slot order of insertion; a ballot finds the key,
//! and an EMPTY sentinel anywhere in a window proves absence (a tombstone
//! does *not* — deleted slots may have been probed past by an earlier
//! insertion, so the probe must continue through them).
//!
//! Output convention: `out[i] = pack(key, value)` on a hit, [`EMPTY`] on a
//! miss. The input carries the key in the *high* 32 bits of each word; the
//! low bits are caller payload (the distributed cascade routes origin
//! indices through them) and are ignored here.

use crate::entry::{is_empty_slot, value_of, EMPTY};
use crate::get_put::read_key;
use crate::history::{HistoryRecorder, OpKind, OpResponse};
use crate::table::Table;
use gpu_sim::{DevSlice, GroupCtx, GroupSize, KernelStats};
use parking_lot::Mutex;
use std::ops::ControlFlow;

/// Retrieves one key by one coalesced group: `pack(key, value)` on a
/// hit, [`EMPTY`] on a miss.
pub(crate) fn retrieve_one(ctx: &GroupCtx, table: &Table, key: u32) -> u64 {
    let slots = table.slots();
    let found = table.walk(ctx, key, 0, |_, base, window| {
        // hit check first: the window may contain both our key and an
        // EMPTY slot when racing with inserts of unrelated keys
        let hit = ctx.ballot(|r| slots.holds(window.lane(r), key));
        if let Some(r) = GroupCtx::ffs(hit) {
            return ControlFlow::Break(slots.pair(ctx, slots.at(base, r), window.lane(r)));
        }
        if ctx.any(|r| is_empty_slot(window.lane(r))) {
            return ControlFlow::Break(EMPTY); // insertion would have claimed this slot
        }
        ControlFlow::Continue(())
    });
    found.unwrap_or(EMPTY) // probing exhausted: definitively absent under p_max
}

/// With a recorder attached, logs the retrieve of `key` that `result`
/// (the kernel's output word) answers.
pub(crate) fn record_retrieve(history: Option<(&HistoryRecorder, u64)>, key: u32, result: u64) {
    if let Some((rec, invoked)) = history {
        let response = if result == EMPTY {
            OpResponse::NotFound
        } else {
            OpResponse::Found {
                value: value_of(result),
            }
        };
        rec.complete(key, OpKind::Retrieve, response, invoked);
    }
}

/// Launches the multi-value retrieval for the `n` keys in `keys`, packed
/// two to a word, on a multi-value table: per key, every value stored under it, in slot
/// order — the walk does not stop at a hit, only at an EMPTY slot.
pub(crate) fn retrieve_all_kernel(
    table: &Table,
    g: GroupSize,
    keys: DevSlice,
    n: usize,
    recorder: Option<&HistoryRecorder>,
) -> (Vec<Vec<u32>>, KernelStats) {
    let slots = table.slots();
    let results: Mutex<Vec<Vec<u32>>> = Mutex::new(vec![Vec::new(); n]);
    let stats = table.launch("multimap_retrieve_all", n, g, |ctx: &GroupCtx| {
        let invoked = recorder.map(HistoryRecorder::invoke);
        let key = read_key(ctx, keys, ctx.group_id());
        // collect (slot, value) and dedupe by slot: chaotic outer
        // jumps may revisit a span, and a slot must count once
        let mut hits: Vec<(usize, u32)> = Vec::new();
        let _: Option<()> = table.walk(ctx, key, 0, |_, base, window| {
            for (r, w) in window.iter() {
                if slots.holds(w, key) {
                    hits.push((slots.at(base, r), value_of(w)));
                }
            }
            if ctx.any(|r| is_empty_slot(window.lane(r))) {
                return ControlFlow::Break(()); // sequence exhausted
            }
            ControlFlow::Continue(())
        });
        hits.sort_unstable_by_key(|h| h.0);
        hits.dedup_by_key(|h| h.0);
        let found: Vec<u32> = hits.into_iter().map(|h| h.1).collect();
        if let (Some(rec), Some(invoked)) = (recorder, invoked) {
            let mut values = found.clone();
            values.sort_unstable();
            rec.complete(key, OpKind::RetrieveAll, OpResponse::FoundAll { values }, invoked);
        }
        // result sizes are variable; materialize host-side and
        // bill the writes as streaming output
        ctx.bill_stream_bytes(8 * found.len().max(1) as u64);
        results.lock()[ctx.group_id()] = found;
    });
    (results.into_inner(), stats)
}
