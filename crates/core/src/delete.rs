//! The deletion kernel (tombstoning).
//!
//! Deletion replaces a live entry with the TOMBSTONE sentinel via CAS.
//! §IV-A's safety rule applies: insertions and queries may be issued
//! concurrently with each other, but deletions must be separated from
//! them by a global barrier — [`crate::GpuHashMap`] enforces this by
//! taking `&mut self` for [`crate::GpuHashMap::try_erase`], making the barrier
//! a compile-time fact (exclusive access ⇒ no concurrent kernel).

use crate::config::Layout;
use crate::entry::{is_empty_slot, key_of, EMPTY, TOMBSTONE};
use crate::history::{HistoryRecorder, OpKind, OpResponse};
use crate::insert::{soa_is_empty, soa_key_of};
use crate::table::Table;
use gpu_sim::{DevSlice, GroupCtx, GroupSize, KernelStats};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

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
/// group of `g` lanes per key.
pub(crate) fn erase_kernel(
    table: &Table,
    g: GroupSize,
    input: DevSlice,
    n: usize,
    recorder: Option<&HistoryRecorder>,
) -> EraseOutcome {
    let erased = AtomicU64::new(0);
    let hits: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
    let stats = table.launch("warpdrive_erase", n, g, |ctx: &GroupCtx| {
        let invoked = recorder.map(HistoryRecorder::invoke);
        let key = key_of(ctx.read_stream(input, ctx.group_id()));
        let hit = match table.layout() {
            Layout::Aos => erase_one_aos(ctx, table, key),
            Layout::Soa => erase_one_soa(ctx, table, key),
        };
        if hit {
            erased.fetch_add(1, Relaxed);
            hits[ctx.group_id()].store(true, Relaxed);
        }
        if let (Some(rec), Some(invoked)) = (recorder, invoked) {
            rec.complete(key, OpKind::Erase, OpResponse::Erased { hit }, invoked);
        }
    });
    EraseOutcome {
        stats,
        erased: erased.load(Relaxed),
        hits: hits.into_iter().map(AtomicBool::into_inner).collect(),
    }
}

fn erase_one_aos(ctx: &GroupCtx, table: &Table, key: u32) -> bool {
    let (prober, p_max, cap) = (table.prober(), table.p_max(), table.capacity());
    let g = ctx.size().get();
    let data = table.keys();
    for p in 0..p_max {
        for q in 0..ctx.size().windows_per_warp() {
            let base = prober.window_base(key, p, q, g) as usize;
            let mut window = ctx.read_window(data, base);
            loop {
                let hit = ctx.ballot(|r| key_of(window.lane(r)) == key);
                if let Some(r) = GroupCtx::ffs(hit) {
                    let idx = crate::probing::wrap_slot(base, r as usize, cap);
                    if ctx.cas(data, idx, window.lane(r), TOMBSTONE).is_ok() {
                        return true;
                    }
                    // racing update changed the word; reload and retry
                    window = ctx.reload_window(data, base);
                    continue;
                }
                if ctx.any(|r| is_empty_slot(window.lane(r))) {
                    return false; // key is not in the map
                }
                break; // window full of other keys → next window
            }
        }
    }
    false
}

fn erase_one_soa(ctx: &GroupCtx, table: &Table, key: u32) -> bool {
    let (prober, p_max, cap) = (table.prober(), table.p_max(), table.capacity());
    let g = ctx.size().get();
    let keys = table.keys();
    for p in 0..p_max {
        for q in 0..ctx.size().windows_per_warp() {
            let base = prober.window_base(key, p, q, g) as usize;
            let window = ctx.read_window(keys, base);
            let hit = ctx.ballot(|r| soa_key_of(window.lane(r)) == Some(key));
            if let Some(r) = GroupCtx::ffs(hit) {
                let idx = crate::probing::wrap_slot(base, r as usize, cap);
                // exclusive access (global barrier) makes a plain CAS
                // against the known key word sufficient
                if ctx.cas(keys, idx, window.lane(r), TOMBSTONE).is_ok() {
                    // restore the value-word sentinel so a reclaiming
                    // insert re-enters the publication protocol (see
                    // `insert_one_soa`)
                    ctx.write(table.soa_values(), idx, EMPTY);
                    return true;
                }
                return false;
            }
            if ctx.any(|r| soa_is_empty(window.lane(r))) {
                return false;
            }
        }
    }
    false
}
