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
//! * **A call is one launch on each table.** After its chunk step, a
//!   call during a migration (`GpuHashMap::migrating_apply`) is one
//!   `Table::apply` on the old table — its reads, and every key it
//!   writes erased, so a key never lives in both — and one on the new
//!   table, over what the old one missed.
//! * **Writes land in the new table.** A put's key leaves the old table
//!   in the first launch and is written in the second.
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
use crate::entry::live_pair;
use crate::errors::BuildError;
use crate::get_put;
use crate::history::{OpKind, OpResponse};
use crate::insert::InsertOutcome;
use crate::map::{placed, GpuHashMap};
use crate::service::{answer, OpError};
use crate::table::{check_lists, Table};
use gpu_sim::{DevSlice, GroupSize, KernelStats};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
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
/// insert/retrieve fast paths take `&self`. A routed call holds the lock
/// from its routing decision to its last launch.
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

/// Accumulates kernel stats across the several launches of a routed call.
fn merge_stats(acc: &mut Option<KernelStats>, s: KernelStats) {
    *acc = Some(match acc.take() {
        Some(prev) => prev.merged(&s),
        None => s,
    });
}

/// `keys` in ascending order, each once.
fn distinct(keys: impl Iterator<Item = u32>) -> Vec<u32> {
    let mut keys: Vec<u32> = keys.collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// `keys` in ascending order, each once: borrowed when they already are.
fn ascending(keys: &[u32]) -> Cow<'_, [u32]> {
    if keys.is_sorted_by(|a, b| a < b) {
        Cow::Borrowed(keys)
    } else {
        Cow::Owned(distinct(keys.iter().copied()))
    }
}

/// `puts` in ascending key order, a key once with its last value:
/// borrowed when they already are.
fn ascending_pairs(puts: &[(u32, u32)]) -> Cow<'_, [(u32, u32)]> {
    if puts.is_sorted_by(|a, b| a.0 < b.0) {
        return Cow::Borrowed(puts);
    }
    let mut pairs = puts.to_vec();
    // stable: a key's pairs stay in call order, the last one is kept
    pairs.sort_by_key(|p| p.0);
    pairs.dedup_by(|later, kept| {
        let same = later.0 == kept.0;
        if same {
            kept.1 = later.1;
        }
        same
    });
    Cow::Owned(pairs)
}

/// [`Table::apply`] in `scratch` on `table`, unrecorded, its stats merged
/// into `acc`, unless every list is empty: then nothing launches. Returns
/// the tombstones its puts reclaimed.
fn apply_on(
    acc: &mut Option<KernelStats>,
    (table, g, scratch): (&Table, GroupSize, DevSlice),
    lists: (&[u32], &[(u32, u32)], &[u32]),
    values: &mut [Option<u32>],
    hits: &mut [bool],
) -> Result<u64, OpError> {
    if lists.0.is_empty() && lists.1.is_empty() && lists.2.is_empty() {
        return Ok(0);
    }
    let ran = placed(table.apply(Some(scratch), g, lists, values, hits, None)?.0)?;
    merge_stats(acc, ran.stats);
    Ok(ran.reclaimed)
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

    // ---- the routed call (active while Migrating) --------------------------

    /// A call during a migration: one chunk step, then one [`Table::apply`]
    /// on the source and one on the target. The source reads the call's
    /// reads and erases every key the call writes, so a key read and
    /// written is a take and a written key never lives in both tables.
    /// The target reads what the source missed of the reads and of the put
    /// keys (a put's upsert answer says whether it claims a new slot),
    /// applies the puts and erases what the source missed of the erases. A
    /// read answers from whichever table held its key — at most one does —,
    /// a put is a new slot iff both missed its key, an erase hits iff
    /// either held it. A table with nothing to do is not launched. Both
    /// launches stage into one scratch allocation, made before the
    /// first: short of scratch, the call fails before it changes a key.
    ///
    /// The lists may repeat keys: each table sees them distinct and
    /// ascending, a put with its key's last value — a list that already
    /// is, as [`crate::MapService::apply`] hands them over, borrowed, any
    /// other a sorted copy. The kernels run unrecorded — a kernel-level
    /// event would claim a false miss on the table that does not hold the
    /// key —: the history records every occurrence in call order, reads
    /// first, a key's first put as its new slot and its first erase as its
    /// hit.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn migrating_apply(
        &self,
        m: &mut Migration,
        policy: ResizePolicy,
        reads: &[u32],
        puts: &[(u32, u32)],
        erases: &[u32],
        values: &mut [Option<u32>],
        hits: &mut [bool],
    ) -> Result<(InsertOutcome, u64), OpError> {
        check_lists(reads, puts, erases)?;
        let cursor_before = m.cursor;
        let mut acc = self.advance(m, policy, 1)?;
        let migrated_window = cursor_before..m.cursor;
        let (source, target, g) = (&self.table, &m.table, self.cfg.group_size);

        let (read_keys, erase_keys) = (ascending(reads), ascending(erases));
        let put_pairs = ascending_pairs(puts);
        let written = put_pairs.iter().map(|p| p.0);
        // MUTATION DOUBLE (test builds, `tests::SOURCE_KEEPS_PUTS`): the
        // source erases only the call's erases, so a put key stays behind
        #[cfg(test)]
        let written = written.filter(|_| !tests::SOURCE_KEEPS_PUTS.with(std::cell::Cell::get));
        let leaving = distinct(written.chain(erase_keys.iter().copied()));

        // both launches' scratch: the target reads at most the reads and
        // the put keys, and the source stages no more than the target may
        let put_only = put_pairs.iter().filter(|p| read_keys.binary_search(&p.0).is_err());
        let read_or_put = read_keys.len() + put_only.count();
        let bound = 2 * read_or_put + put_pairs.len() + erase_keys.len();
        let scratch = source.dev().alloc_scratch(bound.max(1))?;
        let (on_source, on_target) = ((source, g, scratch.slice()), (target, g, scratch.slice()));

        let mut in_source = vec![None; read_keys.len()];
        let mut left = vec![false; leaving.len()];
        let lists = (&read_keys[..], &[][..], &leaving[..]);
        apply_on(&mut acc, on_source, lists, &mut in_source, &mut left)?;
        let left_source = |k: u32| leaving.binary_search(&k).is_ok_and(|i| left[i]);

        let missed = read_keys.iter().zip(&in_source).filter(|(_, v)| v.is_none());
        let new_keys = put_pairs.iter().map(|p| p.0).filter(|&k| !left_source(k));
        let target_reads = distinct(missed.map(|(&k, _)| k).chain(new_keys));
        let target_erases: Vec<u32> =
            erase_keys.iter().copied().filter(|&k| !left_source(k)).collect();
        let mut target_values = vec![None; target_reads.len()];
        let mut target_hits = vec![false; target_erases.len()];
        let lists = (&target_reads[..], &put_pairs[..], &target_erases[..]);
        let reclaimed = apply_on(&mut acc, on_target, lists, &mut target_values, &mut target_hits)?;
        let in_target = |k: u32| target_reads.binary_search(&k).ok().and_then(|i| target_values[i]);

        // -- combine: a put or an erase once per key
        let mut fresh: Vec<bool> = (put_pairs.iter())
            .map(|&(k, _)| !left_source(k) && in_target(k).is_none())
            .collect();
        let erased_there = |k: u32| target_erases.binary_search(&k).is_ok_and(|i| target_hits[i]);
        let mut erase_hits: Vec<bool> =
            erase_keys.iter().map(|&k| left_source(k) || erased_there(k)).collect();
        let new_slots = fresh.iter().filter(|&&f| f).count() as u64;
        let erased = erase_hits.iter().filter(|&&h| h).count() as u64;

        // -- answer and record each occurrence in call order, reads first;
        //    every key of the call sits in its sorted list
        let at = |keys: &[u32], k: u32| keys.partition_point(|&x| x < k);
        let rec = self.recorder.as_deref();
        let record = |k, kind, response| {
            if let Some(rec) = rec {
                let invoked = rec.invoke();
                rec.complete(k, kind, response, invoked);
            }
        };
        for (slot, &k) in values.iter_mut().zip(reads) {
            let mut value = in_source[at(&read_keys, k)].or_else(|| in_target(k));
            // MUTATION DOUBLE (`Mutation::ReadMissesMigratingWindow`): a
            // read whose home span lies in the chunk that just moved races
            // the movement — it sees the source already cleared and the
            // target not yet visible, reporting a miss for a live key.
            if self.cfg.mutation == Some(Mutation::ReadMissesMigratingWindow)
                && migrated_window.contains(&(source.prober().span_base(k, 0) as usize))
            {
                value = None;
            }
            answer(slot, value, self.cfg.mutation);
            let response = match value {
                Some(value) => OpResponse::Found { value },
                None => OpResponse::NotFound,
            };
            record(k, OpKind::Retrieve, response);
        }
        for &(k, value) in puts {
            let new_slot = std::mem::take(&mut fresh[put_pairs.partition_point(|p| p.0 < k)]);
            record(k, OpKind::Insert { value }, OpResponse::Inserted { new_slot });
        }
        for (hit, &k) in hits.iter_mut().zip(erases) {
            *hit = std::mem::take(&mut erase_hits[at(&erase_keys, k)]);
            record(k, OpKind::Erase, OpResponse::Erased { hit: *hit });
        }
        // nothing launched: an empty call on a drained source
        let stats = acc.unwrap_or_else(|| get_put::idle_stats(g));
        let outcome = InsertOutcome {
            stats,
            failed: 0,
            new_slots,
            updates: puts.len() as u64 - new_slots,
            reclaimed,
        };
        Ok((outcome, erased))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::model::ModelService;
    use crate::service::{MapService, Op};
    use crate::Config;
    use gpu_sim::{Device, FaultPlan, Schedule};
    use rand::prelude::*;
    use std::cell::Cell;
    use std::sync::Arc;

    thread_local! {
        /// Arms `migrating_apply`'s mutation double: the source launch
        /// erases only the call's erases, so a put key stays behind in the
        /// source table.
        pub(super) static SOURCE_KEEPS_PUTS: Cell<bool> = const { Cell::new(false) };
    }

    fn map(capacity: usize, cfg: Config) -> GpuHashMap {
        // room for source + 2× target + scratch
        let dev = Arc::new(Device::with_words(0, capacity * 16 + (1 << 12)));
        GpuHashMap::new(dev, capacity, cfg).unwrap()
    }

    #[test]
    fn policy_builders_set_and_clamp() {
        let p = ResizePolicy::default();
        assert!((p.watermark - 0.85).abs() < 1e-12);
        assert_eq!(p.chunk, 256);
        let p = p.with_watermark(0.5).with_chunk(0);
        assert!((p.watermark - 0.5).abs() < 1e-12);
        assert_eq!(p.chunk, 1);
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
        assert_eq!(m.try_retrieve(&[1]).unwrap().values[0], None);
        // writes land in the target; updates of unmigrated keys move them
        m.insert_pairs(&[(2, 77), (1000, 1)]).unwrap();
        assert_eq!(m.try_retrieve(&[2]).unwrap().values[0], Some(77));
        assert_eq!(m.try_retrieve(&[1000]).unwrap().values[0], Some(1));
        m.finish_resize().unwrap();
        assert_eq!(m.capacity(), 1024);
        assert_eq!(m.try_retrieve(&[2]).unwrap().values[0], Some(77));
        assert_eq!(m.try_retrieve(&[1]).unwrap().values[0], None);
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
            assert_eq!(m.try_retrieve(&[k]).unwrap().values[0], Some(k - 1));
        }
        assert_eq!(m.try_retrieve(&[5]).unwrap().values[0], None, "deleted key must stay dead");
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

    fn sequential() -> Config {
        Config::default()
            .with_schedule(Schedule::Sequential)
            .with_fault(FaultPlan::default())
    }

    fn launches(m: &GpuHashMap) -> u64 {
        m.device().lifetime_stats().launches
    }

    fn cursor(m: &GpuHashMap) -> usize {
        match m.resize_state() {
            ResizeState::Migrating { cursor, .. } => cursor,
            ResizeState::Stable => panic!("the map must be migrating"),
        }
    }

    /// `n` random keys of `0..universe`, repeats likely.
    fn draw(rng: &mut StdRng, n: usize, universe: u32) -> Vec<u32> {
        (0..n).map(|_| rng.gen_range(0..universe)).collect()
    }

    /// A policy-armed map and the model through the same `calls` random
    /// calls — mixed `execute`s, mixed `apply`s of distinct ascending
    /// keys, unsorted batches with repeated keys —, every answer, hit and
    /// count compared at each call, contents and history at the end.
    /// Returns the mode of the migration each routed call met.
    fn differential(chunk: usize, seed: u64, calls: usize) -> Vec<ResizeMode> {
        const UNIVERSE: u32 = 300;
        let mut rng = StdRng::seed_from_u64(seed);
        let dev = Arc::new(Device::with_words(0, 1 << 18));
        let mut m = GpuHashMap::new(dev, 64, sequential()).unwrap();
        m.set_resize_policy(Some(ResizePolicy::default().with_watermark(0.7).with_chunk(chunk)));
        let rec = Arc::new(crate::HistoryRecorder::new());
        m.set_recorder(Some(Arc::clone(&rec)));
        let mut model = ModelService::default();
        let mut routed = Vec::new();
        for call in 0..calls {
            let at = format!("chunk {chunk} seed {seed} call {call}");
            // phases of 40 calls: filling, then mostly deleting
            let deleting = call / 40 % 2 == 1;
            if let ResizeState::Migrating { mode, .. } = m.resize_state() {
                routed.push(mode);
            }
            let n = rng.gen_range(1..24);
            match rng.gen_range(0..5) {
                0 => {
                    let ops: Vec<Op> = draw(&mut rng, n, UNIVERSE)
                        .into_iter()
                        .map(|key| match rng.gen_range(0..4) {
                            0 => Op::Get { key },
                            1 if !deleting => Op::Put { key, value: rng.gen() },
                            _ if deleting => Op::Delete { key },
                            _ => Op::Put { key, value: rng.gen() },
                        })
                        .collect();
                    let got = m.execute(&ops).unwrap().0;
                    assert_eq!(got, model.execute(&ops).unwrap().0, "{at}: execute");
                }
                1 => {
                    let mut reads = draw(&mut rng, n, UNIVERSE);
                    let mut written = draw(&mut rng, 2 * n, UNIVERSE);
                    for list in [&mut reads, &mut written] {
                        list.sort_unstable();
                        list.dedup();
                    }
                    let erased_in_ten = if deleting { 7 } else { 2 };
                    let (erases, puts): (Vec<u32>, Vec<u32>) =
                        written.into_iter().partition(|_| rng.gen_range(0..10) < erased_in_ten);
                    let puts: Vec<(u32, u32)> = puts.into_iter().map(|k| (k, rng.gen())).collect();
                    let mut answers = (vec![None; reads.len()], vec![false; erases.len()]);
                    let mut want = answers.clone();
                    let got = m.apply(&reads, &puts, &erases, &mut answers.0, &mut answers.1);
                    let got = got.unwrap();
                    let expected = model.apply(&reads, &puts, &erases, &mut want.0, &mut want.1);
                    let expected = expected.unwrap();
                    assert_eq!(answers, want, "{at}: apply answers");
                    let counts = |a: &crate::Applied| (a.new_slots, a.updates, a.erased);
                    assert_eq!(counts(&got), counts(&expected), "{at}: apply counts");
                }
                2 if !deleting => {
                    let keys = draw(&mut rng, n, UNIVERSE / 4);
                    let pairs: Vec<(u32, u32)> = keys.into_iter().map(|k| (k, rng.gen())).collect();
                    let got = m.put_batch(&pairs).unwrap();
                    let want = model.put_batch(&pairs).unwrap();
                    let placed = (got.new_slots, got.updates);
                    assert_eq!(placed, (want.new_slots, want.updates), "{at}: put_batch");
                }
                3 => {
                    let keys = draw(&mut rng, n, UNIVERSE);
                    let got = m.get_batch(&keys).unwrap().values;
                    assert_eq!(got, model.get_batch(&keys).unwrap().values, "{at}: get_batch");
                }
                _ => {
                    let keys = draw(&mut rng, n, UNIVERSE / 4);
                    let got = m.delete_batch(&keys).unwrap();
                    let want = model.delete_batch(&keys).unwrap();
                    assert_eq!(got.hits, want.hits, "{at}: delete_batch hits");
                    assert_eq!(got.erased, want.erased, "{at}: delete_batch erased");
                }
            }
            // keep a migration in flight for most calls
            if call % 10 == 9 {
                m.request_compact().unwrap();
            }
        }
        let mut snapshot = m.snapshot();
        snapshot.sort_unstable();
        let want: Vec<(u32, u32)> = model.map.into_iter().collect();
        assert_eq!(snapshot, want, "chunk {chunk} seed {seed}: contents");
        crate::check_linearizable(&rec.events()).expect("the history must linearize");
        routed
    }

    /// Every answer and count of a migrating map is the model's, through
    /// grows and compactions at three chunk sizes.
    #[test]
    fn migrating_calls_match_the_model() {
        let mut routed = Vec::new();
        for (chunk, seed) in [(32, 1), (64, 2), (256, 3)] {
            routed.extend(differential(chunk, seed, 400));
        }
        let grows = routed.iter().filter(|&&mode| mode == ResizeMode::Grow).count();
        assert!(routed.len() >= 600, "{} of 1 200 calls routed", routed.len());
        assert!(grows > 0 && grows < routed.len(), "{grows} of {} in grows", routed.len());
    }

    #[test]
    fn a_source_that_keeps_put_keys_is_caught() {
        SOURCE_KEEPS_PUTS.with(|keeps| keeps.set(true));
        let caught = std::panic::catch_unwind(|| differential(64, 2, 400)).is_err();
        SOURCE_KEEPS_PUTS.with(|keeps| keeps.set(false));
        assert!(caught, "a put key left in the source passed the differential");
    }

    /// A migrating call is one chunk step (a scan and an insert launch)
    /// and at most one launch on each table; a table with nothing to do,
    /// and a drained source, launch nothing.
    #[test]
    fn a_migrating_call_is_one_chunk_step_and_a_launch_a_table() {
        let mut m = map(512, sequential());
        m.set_resize_policy(Some(ResizePolicy::default().with_chunk(32)));
        let pairs: Vec<(u32, u32)> = (0..300u32).map(|i| (i * 7 + 3, i)).collect();
        m.insert_pairs(&pairs).unwrap();
        assert!(m.request_grow().unwrap());

        let (before, from) = (launches(&m), cursor(&m));
        let ops = [
            Op::Get { key: pairs[0].0 },
            Op::Put { key: pairs[1].0, value: 9 },
            Op::Delete { key: pairs[2].0 },
            Op::Put { key: 5000, value: 1 },
            Op::Get { key: 6000 },
        ];
        m.execute(&ops).unwrap();
        assert_eq!(cursor(&m), from + 32, "one chunk step a call");
        assert!(launches(&m) - before <= 4, "{} launches", launches(&m) - before);

        // keys in source slots past the next chunk stay there
        let next = cursor(&m) + 32;
        let image = m.table.scan(next..m.capacity());
        let resident: Vec<u32> = image.into_iter().filter_map(live_pair).map(|p| p.0).collect();
        let resident = &resident[..8];
        let before = launches(&m);
        let got = m.try_retrieve(resident).unwrap().values;
        assert!(got.iter().all(Option::is_some));
        assert!(launches(&m) - before <= 3, "{} launches", launches(&m) - before);

        while cursor(&m) < m.capacity() {
            m.try_retrieve(&[]).unwrap();
        }
        let before = launches(&m);
        m.insert_pairs(&[]).unwrap();
        assert_eq!(launches(&m), before, "an empty put on a drained source");
    }

    /// A migrating call takes its scratch for both tables before either
    /// launch: short of it, the call fails and no key has moved. Here the
    /// free scratch would stage the source's erases but not the target's
    /// upserts behind them.
    #[test]
    fn a_migrating_call_short_of_scratch_changes_nothing() {
        let mut m = map(512, sequential());
        m.set_resize_policy(Some(ResizePolicy::default().with_chunk(8)));
        let pairs: Vec<(u32, u32)> = (0..300u32).map(|i| (i * 7 + 3, i)).collect();
        m.insert_pairs(&pairs).unwrap();
        assert!(m.request_grow().unwrap());
        // 20 keys still in the source, 20 new ones: the source stages 40
        // words, the target 40 words and 20 answers
        let next = cursor(&m) + 8;
        let image = m.table.scan(next..m.capacity());
        let resident = image.into_iter().filter_map(live_pair).take(20);
        let new = pairs[..20].iter().map(|&(k, v)| (k + 1, v));
        let puts: Vec<(u32, u32)> = resident.map(|(k, v)| (k, v + 1)).chain(new).collect();
        assert_eq!(puts.len(), 40);

        let dev = Arc::clone(m.device());
        let free = |dev: &Device| dev.alloc_scratch(usize::MAX / 2).unwrap_err().available_words;
        let hog = dev.alloc_scratch(free(&dev) - 50).unwrap();
        assert!((40..60).contains(&free(&dev)), "{} words free", free(&dev));
        let contents = |m: &GpuHashMap| {
            let mut pairs = m.snapshot();
            pairs.sort_unstable();
            pairs
        };
        let before = contents(&m);
        let failed = m.insert_pairs(&puts);
        assert!(matches!(failed, Err(OpError::OutOfMemory(_))), "{failed:?}");
        assert!(contents(&m) == before, "a failed call changed the contents");

        drop(hog);
        m.insert_pairs(&puts).unwrap();
        let keys: Vec<u32> = puts.iter().map(|p| p.0).collect();
        let values: Vec<Option<u32>> = puts.iter().map(|p| Some(p.1)).collect();
        assert_eq!(m.try_retrieve(&keys).unwrap().values, values);
    }

    /// Only a call with puts starts a migration, whoever makes it.
    #[test]
    fn only_a_call_with_puts_starts_a_resize() {
        let mut m = map(256, sequential());
        let pairs: Vec<(u32, u32)> = (0..230u32).map(|i| (i + 1, i)).collect();
        m.insert_pairs(&pairs).unwrap();
        // armed above the watermark: 230 / 256 > 0.85
        m.set_resize_policy(Some(ResizePolicy::default()));
        m.insert_pairs(&[]).unwrap();
        assert_eq!(m.resize_state(), ResizeState::Stable, "an empty put");
        m.get_batch(&[1, 2]).unwrap();
        assert_eq!(m.resize_state(), ResizeState::Stable, "a get");
        m.insert_pairs(&[(1000, 1)]).unwrap();
        assert!(matches!(
            m.resize_state(),
            ResizeState::Migrating { mode: ResizeMode::Grow, .. }
        ));
    }
}
