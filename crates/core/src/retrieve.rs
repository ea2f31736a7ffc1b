//! The retrieval (query) kernel.
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

use crate::config::{Layout, Mutation};
use crate::entry::{is_empty_slot, key_of, value_of, EMPTY};
use crate::history::{HistoryRecorder, OpKind, OpResponse};
use crate::insert::{soa_hit, soa_is_empty, soa_key_of};
use crate::table::Table;
use gpu_sim::{DevSlice, GroupCtx, GroupSize, KernelStats};

/// Launches the retrieval kernel for the `n` query words in `input`,
/// one group of `g` lanes per query, writing one result word per query
/// to `out`.
pub(crate) fn retrieve_kernel(
    table: &Table,
    g: GroupSize,
    input: DevSlice,
    out: DevSlice,
    n: usize,
    recorder: Option<&HistoryRecorder>,
) -> KernelStats {
    table.launch("warpdrive_retrieve", n, g, |ctx: &GroupCtx| {
        let invoked = recorder.map(HistoryRecorder::invoke);
        // MUTATION DOUBLE (`Mutation::WindowOverrun`): read the query
        // one group past our own — the last group runs off the end of
        // the input buffer, which memcheck reports and contains.
        let qidx = if table.mutation() == Some(Mutation::WindowOverrun) {
            ctx.group_id() + 1
        } else {
            ctx.group_id()
        };
        let key = key_of(ctx.read_stream(input, qidx));
        let result = retrieve_one(ctx, table, key);
        record_retrieve(recorder.zip(invoked), key, result);
        ctx.write_stream(out, ctx.group_id(), result);
    })
}

/// Retrieves one key by one coalesced group, in the table's layout:
/// `pack(key, value)` on a hit, [`EMPTY`] on a miss.
pub(crate) fn retrieve_one(ctx: &GroupCtx, table: &Table, key: u32) -> u64 {
    match table.layout() {
        Layout::Aos => retrieve_one_aos(ctx, table, key),
        Layout::Soa => retrieve_one_soa(ctx, table, key),
    }
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

fn retrieve_one_aos(ctx: &GroupCtx, table: &Table, key: u32) -> u64 {
    let (prober, p_max) = (table.prober(), table.p_max());
    let g = ctx.size().get();
    let data = table.keys();
    for p in 0..p_max {
        for q in 0..ctx.size().windows_per_warp() {
            let base = prober.window_base(key, p, q, g) as usize;
            let window = ctx.read_window(data, base);
            // hit check first: the window may contain both our key and an
            // EMPTY slot when racing with inserts of unrelated keys
            let hit = ctx.ballot(|r| key_of(window.lane(r)) == key);
            if let Some(r) = GroupCtx::ffs(hit) {
                return window.lane(r);
            }
            if ctx.any(|r| is_empty_slot(window.lane(r))) {
                return EMPTY; // insertion would have claimed this slot
            }
        }
    }
    EMPTY // probing exhausted: definitively absent under p_max
}

fn retrieve_one_soa(ctx: &GroupCtx, table: &Table, key: u32) -> u64 {
    let (prober, p_max, cap) = (table.prober(), table.p_max(), table.capacity());
    let g = ctx.size().get();
    let keys = table.keys();
    let values = table.soa_values();
    for p in 0..p_max {
        for q in 0..ctx.size().windows_per_warp() {
            let base = prober.window_base(key, p, q, g) as usize;
            let window = ctx.read_window(keys, base);
            let hit = ctx.ballot(|r| soa_key_of(window.lane(r)) == Some(key));
            if let Some(r) = GroupCtx::ffs(hit) {
                // the Fig. 1 SOA cost: a second, uncoalesced access to
                // fetch the value word — annotated shared: it races with
                // last-writer-wins updates by design
                let idx = crate::probing::wrap_slot(base, r as usize, cap);
                return soa_hit(key, ctx.read_shared(values, idx));
            }
            if ctx.any(|r| soa_is_empty(window.lane(r))) {
                return EMPTY;
            }
        }
    }
    EMPTY
}
