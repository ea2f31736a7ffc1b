//! Load-factor-triggered incremental resize with linearizable online
//! migration.
//!
//! WarpDrive's table is fixed-capacity — the paper sizes it up front and
//! Fig. 7 degrades sharply past load factor ~0.9. This module removes
//! that cliff: a [`ResizePolicy`] watermark on the *effective* load
//! (live **plus** tombstones — both lengthen probe chains) triggers an
//! incremental migration to a fresh table, interleaved with foreground
//! operations in fixed-size slot chunks.
//!
//! ## State machine
//!
//! ```text
//! Stable ──(effective load ≥ watermark)──► Migrating(cursor)
//!    ▲                                          │ chunk per foreground op
//!    └──────────(&mut finalize swap)◄───────────┘ cursor == capacity
//! ```
//!
//! * **Writes land in the new table.** A routed put first tombstones the
//!   key in the old table (so the key never lives in both) and then
//!   inserts into the new one.
//! * **Reads consult old-then-new.** The disjointness invariant — every
//!   key lives in exactly one table — makes the combine order
//!   irrelevant and keeps responses independent of how far the chunk
//!   cursor has advanced, which is what preserves wd-serve's
//!   batch-size-invariance during a resize.
//! * **Every migrated key is history-legal.** The chunk step records
//!   each moved key as an erase→insert pair
//!   ([`crate::HistoryRecorder::record_migration_pair`], the same shape
//!   the chaos `Router` uses for quarantine migration), so the
//!   Wing–Gong checker validates a resize like any other history.
//! * **Compaction** rebuilds at the *same* capacity with a fresh hash
//!   seed, reclaiming tombstone-heavy tables — fixing the "tombstones
//!   count toward load forever" accounting cliff.
//!
//! The table swap itself needs `&mut` (the table reference is a plain
//! field read by `&self` kernels), so a migration whose cursor reaches
//! the end *stays* in `Migrating` — harmlessly: the old table is fully
//! drained — until the next `&mut` entry point
//! ([`crate::GpuHashMap::maybe_finalize_resize`], which every
//! [`crate::MapService`] batch method calls first).
//!
//! The old table's VRAM is **not** reclaimed: [`gpu_sim`]'s device
//! memory is a bump allocator with no per-allocation free (faithful to
//! the scratch discipline real deployments use). Size devices for old +
//! new + scratch when arming a policy.

use crate::config::Mutation;
use crate::delete::EraseOutcome;
use crate::entry::{live_pair, value_of, EMPTY};
use crate::errors::BuildError;
use crate::insert::InsertOutcome;
use crate::map::{placed, GpuHashMap};
use crate::service::OpError;
use crate::table::{pair_words, query_words, Table};
use gpu_sim::{KernelStats, LaunchOptions};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::sync::Arc;

/// When and how a map resizes itself. Armed via
/// [`crate::GpuHashMap::set_resize_policy`]; `None` (the default) keeps
/// the paper's fixed-capacity behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResizePolicy {
    /// Effective-load watermark that triggers a resize:
    /// `(live + tombstones + incoming) / capacity ≥ watermark`.
    /// Tombstones count — they lengthen probe chains exactly like live
    /// entries until reclaimed.
    pub watermark: f64,
    /// Slots migrated per chunk step (rounded up to whole 32-slot spans
    /// by construction — the scan is span-granular). A foreground op runs
    /// one chunk step while a migration is active.
    pub chunk: usize,
}

/// Capacity multiplier of a grow (compaction always rebuilds at 1×).
const GROWTH_FACTOR: usize = 2;

impl Default for ResizePolicy {
    fn default() -> Self {
        Self {
            watermark: 0.85,
            chunk: 256,
        }
    }
}

impl ResizePolicy {
    /// The default policy with the `WD_RESIZE_WATERMARK` (fraction) and
    /// `WD_RESIZE_CHUNK` (slots) environment overrides applied, so any
    /// harness can re-run under a different trigger point or chunk
    /// granularity without code changes.
    #[must_use]
    pub fn from_env() -> Self {
        let mut p = Self::default();
        if let Some(w) = std::env::var("WD_RESIZE_WATERMARK")
            .ok()
            .and_then(|v| v.trim().parse::<f64>().ok())
            .filter(|w| (0.0..=1.0).contains(w))
        {
            p.watermark = w;
        }
        if let Some(c) = std::env::var("WD_RESIZE_CHUNK")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&c| c > 0)
        {
            p.chunk = c;
        }
        p
    }

    /// Sets the effective-load watermark.
    #[must_use]
    pub fn with_watermark(mut self, w: f64) -> Self {
        self.watermark = w;
        self
    }

    /// Sets the migration chunk size in slots.
    #[must_use]
    pub fn with_chunk(mut self, slots: usize) -> Self {
        self.chunk = slots.max(1);
        self
    }
}

/// Why a migration is running.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ResizeMode {
    /// Growing to twice the capacity (watermark hit with mostly live
    /// entries).
    Grow,
    /// Rebuilding at the *same* capacity to purge tombstones (watermark
    /// hit with tombstones ≥ live entries).
    Compact,
}

/// Externally visible resize state of a map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResizeState {
    /// No migration active.
    Stable,
    /// An incremental migration is in flight (or fully scanned and
    /// awaiting its `&mut` finalize).
    Migrating {
        /// Why.
        mode: ResizeMode,
        /// Slots of the source table already migrated.
        cursor: usize,
        /// Source-table capacity (migration completes at
        /// `cursor == source_capacity`).
        source_capacity: usize,
        /// Target-table capacity.
        target_capacity: usize,
    },
}

/// An in-flight migration: the table being filled (with its own hash
/// member and counters, like any [`Table`]) and how far the source has
/// been drained. The source stays the owning map's primary table until
/// the finalize moves this one into its place.
#[derive(Debug)]
pub(crate) struct Migration {
    pub(crate) table: Table,
    pub(crate) mode: ResizeMode,
    /// Source slots `[0, cursor)` have been migrated.
    pub(crate) cursor: usize,
    /// Source-table image taken at `begin` — populated **only** under
    /// the [`Mutation::MigrateSkipsTombstoneCheck`] double, whose
    /// chunk step replays this stale image instead of scanning the live
    /// table.
    stale: Option<Vec<u64>>,
}

/// Resize control block of a [`GpuHashMap`], behind a mutex because the
/// insert/retrieve fast paths take `&self`. A routed operation holds the
/// lock from its routing decision to its last launch.
#[derive(Debug, Default)]
pub(crate) struct ResizeCtl {
    pub(crate) policy: Option<ResizePolicy>,
    pub(crate) migration: Option<Migration>,
    /// A growth allocation failed: stop re-trying on every insert and
    /// fall back to fixed-capacity behaviour.
    pub(crate) blocked: bool,
}

impl ResizeCtl {
    /// The in-flight migration, if any, with the policy that paces it.
    pub(crate) fn migrating(&mut self) -> Option<(&mut Migration, ResizePolicy)> {
        let policy = self.policy.unwrap_or_default();
        self.migration.as_mut().map(|m| (m, policy))
    }
}

/// `s` merged onto the stats of the launches that ran before it, if any.
fn merged_onto(earlier: Option<KernelStats>, s: KernelStats) -> KernelStats {
    match earlier {
        Some(prev) => prev.merged(&s),
        None => s,
    }
}

/// Accumulates kernel stats across the several launches of a routed op.
fn merge_stats(acc: &mut Option<KernelStats>, s: KernelStats) {
    *acc = Some(merged_onto(acc.take(), s));
}

/// Splits `pairs` into maximal duplicate-key-free segments. The routed
/// put records per-key events manually, so a batch must not contain two
/// writes of one key — the kernels' race winner could contradict the
/// recorded order. ([`crate::MapService::execute`] sends each key once;
/// only a direct `put_batch` / `insert_pairs` caller can send more.)
fn dup_free_segments(pairs: &[(u32, u32)]) -> Vec<std::ops::Range<usize>> {
    let mut segs = Vec::new();
    let mut start = 0usize;
    let mut seen: HashSet<u32> = HashSet::new();
    for (i, &(k, _)) in pairs.iter().enumerate() {
        if seen.contains(&k) {
            segs.push(start..i);
            start = i;
            seen.clear();
        }
        seen.insert(k);
    }
    segs.push(start..pairs.len());
    segs
}

impl GpuHashMap {
    // ---- policy survey ---------------------------------------------------

    /// Arms (or disarms, with `None`) the incremental-resize policy.
    /// Disarming does not abandon an in-flight migration — it runs to
    /// completion; only new triggers stop firing.
    pub fn set_resize_policy(&mut self, policy: Option<ResizePolicy>) {
        let ctl = self.resize.get_mut();
        ctl.policy = policy;
        ctl.blocked = false;
    }

    /// Current resize state.
    #[must_use]
    pub fn resize_state(&self) -> ResizeState {
        match &self.resize.lock().migration {
            None => ResizeState::Stable,
            Some(m) => ResizeState::Migrating {
                mode: m.mode,
                cursor: m.cursor,
                source_capacity: self.table.capacity(),
                target_capacity: m.table.capacity(),
            },
        }
    }

    /// The capacity foreground writes currently land in: the migration
    /// target's during a resize, the table's otherwise.
    #[must_use]
    pub fn effective_capacity(&self) -> usize {
        self.occupancy_split().capacity as usize
    }

    /// Slot occupancy split into live entries and tombstones (see
    /// [`crate::Occupancy`]). During a migration the capacity and
    /// tombstone count describe the table the map is migrating *into*
    /// (the old table's transient tombstones vanish at the swap), while
    /// `live` counts every key wherever it currently resides.
    #[must_use]
    pub fn occupancy_split(&self) -> crate::Occupancy {
        let ctl = self.resize.lock();
        let source = self.table.occupancy();
        match &ctl.migration {
            None => source,
            Some(m) => {
                let target = m.table.occupancy();
                crate::Occupancy {
                    live: source.live + target.live,
                    ..target
                }
            }
        }
    }

    // ---- explicit triggers ----------------------------------------------

    /// Starts an incremental grow if the map is stable; returns
    /// `Ok(false)` when a migration is already in flight (after
    /// finalizing a completed one).
    ///
    /// # Errors
    /// [`OpError::OutOfMemory`] when the target table does not fit the
    /// device's remaining VRAM.
    pub fn request_grow(&mut self) -> Result<bool, OpError> {
        self.request_resize(ResizeMode::Grow)
    }

    /// Starts an incremental same-capacity compaction (tombstone purge)
    /// if the map is stable; returns `Ok(false)` when a migration is
    /// already in flight.
    ///
    /// # Errors
    /// [`OpError::OutOfMemory`] when the target table does not fit.
    pub fn request_compact(&mut self) -> Result<bool, OpError> {
        self.request_resize(ResizeMode::Compact)
    }

    fn request_resize(&mut self, mode: ResizeMode) -> Result<bool, OpError> {
        self.maybe_finalize_resize();
        let mut ctl = self.resize.lock();
        if ctl.migration.is_some() {
            return Ok(false);
        }
        self.begin(&mut ctl, mode)?;
        Ok(true)
    }

    /// Moves a *fully scanned* migration's table in as the primary one
    /// (the drained old table is dropped). Returns whether that
    /// happened. Called automatically at every [`crate::MapService`]
    /// batch entry point; also public for callers driving the `&self`
    /// APIs directly.
    pub fn maybe_finalize_resize(&mut self) -> bool {
        let source_capacity = self.table.capacity();
        let scanned = self.resize.get_mut().migration.take_if(|m| m.cursor >= source_capacity);
        let Some(m) = scanned else {
            return false;
        };
        self.table = m.table;
        self.cfg.seed = self.table.seed();
        true
    }

    /// Drives any in-flight migration to completion and finalizes it.
    /// Returns whether a migration was finished.
    ///
    /// # Errors
    /// Migration inserts can exhaust probing (compaction into a still
    /// adversarial hash member) and scratch can run out; the migration
    /// stays resumable after an error.
    pub fn finish_resize(&mut self) -> Result<bool, OpError> {
        let mut finished = false;
        loop {
            if self.maybe_finalize_resize() {
                finished = true;
                continue;
            }
            let mut ctl = self.resize.lock();
            let Some((m, policy)) = ctl.migrating() else {
                return Ok(finished);
            };
            self.advance(m, policy, usize::MAX)?;
        }
    }

    // ---- trigger (called from the put path; reads and deletes never
    //      *start* a resize — neither raises effective load) --------------

    /// Fires the watermark trigger if a policy is armed, the map is
    /// stable and `incoming` more entries would cross it.
    pub(crate) fn trigger_resize(&self, ctl: &mut ResizeCtl, incoming: usize) {
        let Some(policy) = ctl.policy else {
            return;
        };
        if ctl.migration.is_some() || ctl.blocked {
            return;
        }
        let now = self.table.occupancy();
        let projected = crate::Occupancy {
            live: now.live + incoming as u64,
            ..now
        };
        if projected.effective_fraction() < policy.watermark {
            return;
        }
        let mode = if now.tombstones >= now.live && now.tombstones > 0 {
            ResizeMode::Compact
        } else {
            ResizeMode::Grow
        };
        // a target that does not fit: fall back to fixed-capacity
        // behaviour instead of failing the foreground op, and stop
        // re-trying the allocation on every insert
        ctl.blocked = self.begin(ctl, mode).is_err();
    }

    // ---- migration machinery ---------------------------------------------

    /// Allocates and installs the migration target: the next hash member
    /// over the grown (or, compacting, the same) capacity.
    fn begin(&self, ctl: &mut ResizeCtl, mode: ResizeMode) -> Result<(), BuildError> {
        let capacity = match mode {
            ResizeMode::Grow => self.table.capacity() * GROWTH_FACTOR,
            ResizeMode::Compact => self.table.capacity(),
        };
        let seed = self.table.seed().wrapping_add(1);
        let table = Table::alloc(Arc::clone(self.table.dev()), capacity, &self.cfg, seed)?;
        let stale = (self.cfg.mutation == Some(Mutation::MigrateSkipsTombstoneCheck))
            .then(|| self.table.scan(0..self.table.capacity()));
        ctl.migration = Some(Migration {
            table,
            mode,
            cursor: 0,
            stale,
        });
        Ok(())
    }

    /// Advances the migration by up to `chunks` chunk steps (stops at the
    /// end of the source table): one before each foreground op, all of
    /// them to finish. Returns merged stats of the step launches, if any
    /// ran.
    ///
    /// Each step: scan the next chunk of source slots (billed as one
    /// streaming launch, like `rebuild_scan`), insert the live pairs
    /// into the target, *then* tombstone the source slots — a key is
    /// never in neither table at an op boundary — and record each move
    /// as an erase→insert history pair.
    fn advance(
        &self,
        m: &mut Migration,
        policy: ResizePolicy,
        chunks: usize,
    ) -> Result<Option<KernelStats>, OpError> {
        let source = &self.table;
        let mut acc: Option<KernelStats> = None;
        for _ in 0..chunks {
            if m.cursor >= source.capacity() {
                break;
            }
            let chunk = m.cursor..source.capacity().min(m.cursor + policy.chunk.max(1));
            let moved: Vec<(usize, (u32, u32))> = (chunk.clone())
                .zip(source.scan(chunk.clone()))
                .filter_map(|(slot, w)| live_pair(w).map(|kv| (slot, kv)))
                .collect();
            // MUTATION DOUBLE (`Mutation::MigrateSkipsTombstoneCheck`):
            // replay the begin-time image of this chunk instead of the
            // live scan — a key deleted (or updated) since the migration
            // began is migrated back to life with its stale value.
            let inserted: Vec<(u32, u32)> = match &m.stale {
                Some(image) => image[chunk.clone()].iter().filter_map(|&w| live_pair(w)).collect(),
                None => moved.iter().map(|&(_, kv)| kv).collect(),
            };
            merge_stats(&mut acc, source.bill_scan("resize_scan", chunk.len()));

            // -- insert into the target first (a key is never lost if the
            //    insert errors — the source slots are still intact)
            if !inserted.is_empty() {
                let outcome = placed(m.table.insert_pairs(self.cfg.group_size, &inserted, None)?)?;
                merge_stats(&mut acc, outcome.stats);
            }
            // -- tombstone the moved source slots (EMPTY slots stay EMPTY
            //    so probe sequences on the source keep terminating early)
            source.tombstone(moved.iter().map(|&(slot, _)| slot));

            // -- history: each migrated key is a legal erase→insert pair
            if let Some(rec) = self.recorder.as_deref() {
                for &(k, v) in &inserted {
                    rec.record_migration_pair(k, v, true);
                }
            }
            m.cursor = chunk.end;
        }
        Ok(acc)
    }

    // ---- routed foreground ops (active while Migrating) -------------------
    //
    // Each is a composition of the two tables' operations over one staged
    // upload. The kernels run unrecorded — kernel-level events would claim
    // a false erase/miss on whichever table doesn't hold the key — and the
    // per-key history is recorded here instead.

    /// Put during migration: tombstone in the source, insert into the
    /// target; a pair is new iff its key was in neither table.
    pub(crate) fn migrating_insert_pairs(
        &self,
        m: &mut Migration,
        policy: ResizePolicy,
        pairs: &[(u32, u32)],
    ) -> Result<InsertOutcome, OpError> {
        let g = self.cfg.group_size;
        let queries = query_words(pairs.iter().map(|p| p.0))?;
        let packed = pair_words(pairs)?;
        let mut acc = self.advance(m, policy, 1)?;
        let (source, target) = (&self.table, &m.table);

        let mut new_slots = 0u64;
        let mut updates = 0u64;
        let mut reclaimed = 0u64;
        for seg in dup_free_segments(pairs) {
            let seg_pairs = &pairs[seg.clone()];
            if seg_pairs.is_empty() {
                continue;
            }
            let n = seg_pairs.len();
            let (_scratch, [queries, packed], probed) =
                source.stage([&queries[seg.clone()], &packed[seg]].map(|w| w.iter().copied()), n)?;
            // per-key hits tell who was present in the source …
            let erase = source.erase(g, queries, n, None);
            // … and an unrecorded probe who is already in the target
            let probe = target.retrieve(g, queries, probed, n, None);
            let in_target = source.dev().mem().d2h(probed);
            let outcome = target.insert(g, packed, n, None);
            merge_stats(&mut acc, erase.stats);
            merge_stats(&mut acc, probe.merged(&outcome.stats));
            let outcome = placed(outcome)?;

            for (i, &(k, v)) in seg_pairs.iter().enumerate() {
                let new_slot = !erase.hits[i] && in_target[i] == EMPTY;
                if new_slot {
                    new_slots += 1;
                } else {
                    updates += 1;
                }
                if let Some(rec) = self.recorder.as_deref() {
                    let invoked = rec.invoke();
                    rec.complete(
                        k,
                        crate::OpKind::Insert { value: v },
                        crate::OpResponse::Inserted { new_slot },
                        invoked,
                    );
                }
            }
            reclaimed += outcome.reclaimed;
        }
        // empty batch against a fully-scanned migration: nothing launched
        let stats = acc.unwrap_or_else(|| {
            let idle = |_: &gpu_sim::GroupCtx| {};
            source.dev().launch("warpdrive_insert", 0, g, LaunchOptions::default(), idle)
        });
        Ok(InsertOutcome {
            stats,
            failed: 0,
            new_slots,
            updates,
            reclaimed,
        })
    }

    /// Get during migration: probe the source, then the target; the
    /// disjointness invariant means at most one hits.
    pub(crate) fn migrating_retrieve(
        &self,
        m: &mut Migration,
        policy: ResizePolicy,
        keys: &[u32],
    ) -> Result<(Vec<Option<u32>>, KernelStats), OpError> {
        let g = self.cfg.group_size;
        let queries = query_words(keys.iter().copied())?;
        let cursor_before = m.cursor;
        let steps = self.advance(m, policy, 1)?;
        let (source, target) = (&self.table, &m.table);

        let n = keys.len();
        let (_scratch, [queries], out) = source.stage([queries.iter().copied()], 2 * n)?;
        let (source_out, target_out) = (out.sub(0, n), out.sub(n, n));
        let in_source = source.retrieve(g, queries, source_out, n, None);
        let in_target = target.retrieve(g, queries, target_out, n, None);
        let stats = merged_onto(steps, in_source.merged(&in_target));

        let found = source.dev().mem().d2h(out);
        let migrated_window = cursor_before..m.cursor;
        let values: Vec<Option<u32>> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| {
                // MUTATION DOUBLE (`Mutation::ReadMissesMigratingWindow`):
                // a read whose home span lies in the chunk that just
                // moved races the movement — it sees the source already
                // cleared and the target not yet visible, reporting a
                // miss for a live key.
                if self.cfg.mutation == Some(Mutation::ReadMissesMigratingWindow)
                    && migrated_window.contains(&(source.prober().span_base(k, 0) as usize))
                {
                    return None;
                }
                let hit = if found[i] != EMPTY { found[i] } else { found[n + i] };
                (hit != EMPTY).then(|| value_of(hit))
            })
            .collect();

        if let Some(rec) = self.recorder.as_deref() {
            for (&k, &value) in keys.iter().zip(&values) {
                let invoked = rec.invoke();
                let response = match value {
                    Some(value) => crate::OpResponse::Found { value },
                    None => crate::OpResponse::NotFound,
                };
                rec.complete(k, crate::OpKind::Retrieve, response, invoked);
            }
        }
        Ok((values, stats))
    }

    /// Delete during migration: erase from both tables; the key lives in
    /// at most one, so the per-key hit is the OR.
    pub(crate) fn migrating_erase(
        &self,
        m: &mut Migration,
        policy: ResizePolicy,
        keys: &[u32],
    ) -> Result<EraseOutcome, OpError> {
        let g = self.cfg.group_size;
        let queries = query_words(keys.iter().copied())?;
        let steps = self.advance(m, policy, 1)?;

        let n = keys.len();
        let (_scratch, [queries], _) = self.table.stage([queries.iter().copied()], 0)?;
        let source = self.table.erase(g, queries, n, None);
        let target = m.table.erase(g, queries, n, None);
        let stats = merged_onto(steps, source.stats.merged(&target.stats));

        let hits: Vec<bool> = source
            .hits
            .iter()
            .zip(&target.hits)
            .map(|(&a, &b)| a || b)
            .collect();
        if let Some(rec) = self.recorder.as_deref() {
            for (&k, &hit) in keys.iter().zip(&hits) {
                let invoked = rec.invoke();
                rec.complete(k, crate::OpKind::Erase, crate::OpResponse::Erased { hit }, invoked);
            }
        }
        let erased = hits.iter().filter(|&&h| h).count() as u64;
        Ok(EraseOutcome {
            stats,
            erased,
            hits,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Config;
    use gpu_sim::Device;
    use std::sync::Arc;

    fn map(capacity: usize, cfg: Config) -> GpuHashMap {
        // room for source + 2× target + scratch
        let dev = Arc::new(Device::with_words(0, capacity * 16 + (1 << 12)));
        GpuHashMap::new(dev, capacity, cfg).unwrap()
    }

    #[test]
    fn policy_env_knobs_parse_and_clamp() {
        let p = ResizePolicy::default();
        assert!((p.watermark - 0.85).abs() < 1e-12);
        assert_eq!(p.chunk, 256);
        let p = p.with_watermark(0.5).with_chunk(0);
        assert!((p.watermark - 0.5).abs() < 1e-12);
        assert_eq!(p.chunk, 1);
    }

    #[test]
    fn dup_free_segments_cut_before_each_repeated_key() {
        let pairs = [(1, 0), (2, 0), (1, 1), (1, 2), (3, 0)];
        let segs = dup_free_segments(&pairs);
        assert_eq!(segs, vec![0..2, 2..3, 3..5]);
        assert_eq!(dup_free_segments(&[]), vec![0..0]);
    }

    #[test]
    fn watermark_triggers_grow_and_content_survives() {
        let mut m = map(256, Config::default());
        m.set_resize_policy(Some(ResizePolicy::default().with_chunk(64)));
        let pairs: Vec<(u32, u32)> = (0..400u32).map(|i| (i + 1, i)).collect();
        // push straight through the 0.85 watermark of the 256-slot table
        for chunk in pairs.chunks(50) {
            m.insert_pairs(chunk).unwrap();
        }
        assert!(matches!(
            m.resize_state(),
            ResizeState::Migrating { mode: ResizeMode::Grow, .. } | ResizeState::Stable
        ));
        assert!(m.finish_resize().is_ok());
        assert!(m.maybe_finalize_resize() || m.resize_state() == ResizeState::Stable);
        assert_eq!(m.capacity(), 512);
        assert_eq!(m.len(), 400);
        let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
        let res = m.try_retrieve(&keys).unwrap().values;
        for (i, p) in pairs.iter().enumerate() {
            assert_eq!(res[i], Some(p.1), "key {} lost in grow", p.0);
        }
    }

    #[test]
    fn reads_and_deletes_work_mid_migration() {
        let mut m = map(512, Config::default());
        let pairs: Vec<(u32, u32)> = (0..300u32).map(|i| (i + 1, i)).collect();
        m.insert_pairs(&pairs).unwrap();
        assert!(m.request_grow().unwrap());
        // mid-migration: nothing has moved yet beyond chunk steps driven
        // by these very ops
        let res = m.try_retrieve(&[1, 2, 300, 999]).unwrap().values;
        assert_eq!(res, vec![Some(0), Some(1), Some(299), None]);
        let del = m.try_erase(&[1, 999]).unwrap();
        assert_eq!(del.hits, vec![true, false]);
        assert_eq!(m.get(1), None);
        // writes land in the target; updates of unmigrated keys move them
        m.insert_pairs(&[(2, 77), (1000, 1)]).unwrap();
        assert_eq!(m.get(2), Some(77));
        assert_eq!(m.get(1000), Some(1));
        m.finish_resize().unwrap();
        assert_eq!(m.capacity(), 1024);
        assert_eq!(m.get(2), Some(77));
        assert_eq!(m.get(1), None);
        assert_eq!(m.len(), 300); // 300 - 1 deleted + 1 new
    }

    #[test]
    fn compaction_purges_tombstones_at_same_capacity() {
        let mut m = map(512, Config::default());
        let pairs: Vec<(u32, u32)> = (0..400u32).map(|i| (i + 1, i)).collect();
        m.insert_pairs(&pairs).unwrap();
        m.try_erase(&(1..=300).collect::<Vec<u32>>()).unwrap();
        assert_eq!(m.tombstones(), 300);
        assert!(m.request_compact().unwrap());
        assert!(matches!(
            m.resize_state(),
            ResizeState::Migrating { mode: ResizeMode::Compact, .. }
        ));
        m.finish_resize().unwrap();
        assert_eq!(m.capacity(), 512, "compaction must not grow");
        assert_eq!(m.tombstones(), 0);
        assert_eq!(m.len(), 100);
        for k in 301..=400u32 {
            assert_eq!(m.get(k), Some(k - 1));
        }
        assert_eq!(m.get(5), None, "deleted key must stay dead");
    }

    #[test]
    fn migration_records_erase_insert_pairs() {
        let mut m = map(256, Config::default());
        let rec = Arc::new(crate::HistoryRecorder::new());
        m.set_recorder(Some(Arc::clone(&rec)));
        m.insert_pairs(&(0..50u32).map(|i| (i + 1, i)).collect::<Vec<_>>())
            .unwrap();
        m.request_grow().unwrap();
        m.finish_resize().unwrap();
        let events = rec.events();
        let erases = events
            .iter()
            .filter(|e| e.kind == crate::OpKind::Erase)
            .count();
        assert_eq!(erases, 50, "each migrated key records one erase");
        crate::check_linearizable(&events).expect("migration history must linearize");
    }

    #[test]
    fn occupancy_split_tracks_target_during_migration() {
        let mut m = map(256, Config::default());
        m.insert_pairs(&(0..100u32).map(|i| (i + 1, i)).collect::<Vec<_>>())
            .unwrap();
        let o = m.occupancy_split();
        assert_eq!((o.live, o.tombstones, o.capacity), (100, 0, 256));
        m.request_grow().unwrap();
        let o = m.occupancy_split();
        assert_eq!(o.live, 100);
        assert_eq!(o.capacity, 512);
        m.finish_resize().unwrap();
        let o = m.occupancy_split();
        assert_eq!((o.live, o.capacity), (100, 512));
    }

    /// The group size is one value of the map: set while a migration is
    /// in flight, it must survive the finalize. (Fails before `Table`:
    /// the target table froze |g| at `begin`, and the finalize swap
    /// reinstated it — config said 16, launches ran with 4.)
    #[test]
    fn group_size_set_mid_migration_survives_the_finalize() {
        let cfg = Config::default().with_schedule(gpu_sim::Schedule::Sequential);
        let pairs: Vec<(u32, u32)> = (0..50u32).map(|i| (i * 7 + 3, i)).collect();
        let probe: Vec<u32> = pairs[..4].iter().map(|p| p.0).collect();

        let mut m = map(512, cfg);
        m.insert_pairs(&pairs).unwrap();
        assert!(m.request_grow().unwrap());
        m.set_group_size(gpu_sim::GroupSize::new(16));
        m.finish_resize().unwrap();
        assert_eq!(m.config().group_size.get(), 16);
        let got = m.try_retrieve(&probe).unwrap().report;

        let fresh_cfg = cfg.with_group_size(16).with_seed(m.config().seed);
        let fresh = map(m.capacity(), fresh_cfg);
        fresh.insert_pairs(&pairs).unwrap();
        let want = fresh.try_retrieve(&probe).unwrap().report;
        assert_eq!(got.counters, want.counters);
        assert_eq!(got.time.to_bits(), want.time.to_bits());
        // four hits in their first 16-slot window: four sectors each
        assert_eq!(got.counters.transactions, 16);
    }

    /// `load_factor`, `len`, `tombstones`, `effective_capacity` and the
    /// service's `occupancy`/`slot_capacity` all read one
    /// `occupancy_split`. (Fails before `Table`: `load_factor` divided
    /// keys of both tables by the source capacity — 1.7578 here.)
    #[test]
    fn load_factor_agrees_with_service_occupancy_through_grow_and_compact() {
        use crate::MapService;
        fn check(m: &GpuHashMap, at: &str) {
            let o = m.occupancy_split();
            assert_eq!(m.load_factor().to_bits(), m.occupancy().to_bits(), "{at}");
            assert!(m.load_factor() <= 1.0, "{at}: α = {}", m.load_factor());
            assert_eq!((m.len(), m.tombstones()), (o.live, o.tombstones), "{at}");
            assert_eq!(m.effective_capacity() as u64, o.capacity, "{at}");
            assert_eq!(m.slot_capacity(), o.capacity, "{at}");
        }
        let mut m = map(1024, Config::default());
        m.set_resize_policy(Some(ResizePolicy::default().with_watermark(0.99).with_chunk(64)));
        m.insert_pairs(&(0..800u32).map(|i| (i + 1, i)).collect::<Vec<_>>())
            .unwrap();
        check(&m, "stable");
        assert!(m.request_grow().unwrap());
        for step in 0..10u32 {
            // `&self` puts never finalize: both tables stay populated
            let batch: Vec<(u32, u32)> = (0..100).map(|i| (1000 + step * 100 + i, i)).collect();
            m.insert_pairs(&batch).unwrap();
            check(&m, &format!("grow step {step}"));
        }
        assert_eq!(m.effective_capacity(), 2048);
        assert!((m.load_factor() - 1800.0 / 2048.0).abs() < 1e-12);
        m.finish_resize().unwrap();
        check(&m, "grown");

        m.try_erase(&(1..=900).collect::<Vec<u32>>()).unwrap();
        check(&m, "tombstoned");
        assert!(m.request_compact().unwrap());
        for step in 0..10u32 {
            m.try_erase(&[1000 + step]).unwrap();
            m.insert_pairs(&[(5000 + step, step)]).unwrap();
            check(&m, &format!("compact step {step}"));
        }
        m.finish_resize().unwrap();
        check(&m, "compacted");
        assert_eq!(m.tombstones(), 0);
    }

    #[test]
    fn request_grow_while_migrating_is_a_noop() {
        let mut m = map(256, Config::default());
        m.insert_pairs(&(0..100u32).map(|i| (i + 1, i)).collect::<Vec<_>>())
            .unwrap();
        assert!(m.request_grow().unwrap());
        assert!(!m.request_grow().unwrap(), "second request must coalesce");
        m.finish_resize().unwrap();
        assert_eq!(m.capacity(), 512);
    }

    #[test]
    fn oom_on_growth_blocks_trigger_but_keeps_serving() {
        // device fits the source table + scratch but not a 2× target
        let dev = Arc::new(Device::with_words(0, 700));
        let mut m = GpuHashMap::new(dev, 256, Config::default()).unwrap();
        m.set_resize_policy(Some(ResizePolicy::default().with_watermark(0.3)));
        let pairs: Vec<(u32, u32)> = (0..200u32).map(|i| (i + 1, i)).collect();
        m.insert_pairs(&pairs).unwrap(); // trigger fires, alloc fails, op succeeds
        assert_eq!(m.resize_state(), ResizeState::Stable);
        assert_eq!(m.len(), 200);
        // explicit request surfaces the typed error
        assert!(matches!(m.request_grow(), Err(OpError::OutOfMemory(_))));
    }
}
