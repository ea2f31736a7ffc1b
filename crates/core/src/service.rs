//! The unified request/response front door — one vocabulary for every
//! map backend.
//!
//! Historically each backend spoke its own dialect: `insert_pairs`
//! returned its own error type, `retrieve` a bare
//! `(Vec<Option<u32>>, KernelStats)` tuple, the host-sided cascades
//! `(_, CascadeReport)` tuples, and erase panicked on fault exhaustion.
//! This module defines the single vocabulary that replaces all of them:
//!
//! * [`Op`] / [`Response`] — one request/response pair for puts, gets and
//!   deletes, whatever the backend;
//! * [`OpReport`] — one cost report for single-GPU launches
//!   ([`KernelStats`]) and multi-GPU cascades (per-stage rows);
//! * [`OpError`] — one error type for every operation, bulk insertion
//!   included, so fault-mode callers never hit a panic;
//! * [`MapService`] — the trait the wd-serve coalescer is generic over,
//!   implemented by [`crate::GpuHashMap`] and [`crate::DistributedHashMap`]
//!   (the GPUs of a node, or §VI's partitions of one device).
//!
//! ## Coalescing contract
//!
//! [`MapService::execute`] answers a mixed op stream exactly as
//! one-op-at-a-time execution would, in **one [`MapService::apply`]
//! call, whatever the mix**: the call's reads, final puts and final
//! erases, each list over distinct keys in ascending key order (never
//! hash-iteration order, so a call replays bit for bit), its answers
//! written into slices the call holds — on the stack for a call of up to
//! [`INLINE_OPS`] ops, so that such a call allocates only its responses.
//!
//! Ops on distinct keys commute (§IV-A lets them race freely); only the
//! ops of one key depend on each other, and that dependency is resolved
//! on the host. Walking a key's ops in submission order, the call knows
//! the key's state after its first write — *pre-call state* →
//! `present(v)` → `absent` — so:
//!
//! * a get or delete that follows a write of the same key in the call is
//!   answered by store-to-load forwarding and never reaches the table;
//! * every write of a key but its last is dead: the table sees one final
//!   put *or* one final erase per written key;
//! * the pre-call state is read once, and only for a key whose first op
//!   is a get, or a delete whose key the call later puts back (a
//!   delete-first key that ends erased takes its hit from the erase).
//!
//! A key the call both reads and writes is in two lists, and its answer
//! is the *pre-call* value. What a backend makes of the call is its own
//! business: [`crate::GpuHashMap`] runs reads, puts and erases as **one
//! launch** of the kernel's sections (a key read and put is one upsert
//! group, a key read and erased one take group: one table visit each), so
//! a put/get/delete call pays one launch overhead instead of three;
//! [`crate::CachedMap`] answers what it can from its shadow and sends the
//! misses, the puts and the erases on in one call;
//! [`crate::DistributedHashMap`] runs them as **one cascade round**
//! ([`crate::cascade`]: the same five sections, cut from the lists in the
//! same place, are segments of one multisplit and one all-to-all, and the
//! owning GPU runs them as one launch), on a node of GPUs and on the
//! partitions of one device alike.
//!
//! Erases need no launch of their own: §IV-A's barrier guards a key
//! against a racing op *of the same key*, and the call holds one group
//! per key — an SOA tombstone restores its value sentinel before the CAS
//! that makes it visible ([`crate::slots`]), so a put of another key may
//! reclaim the slot in the same launch. The wd-serve equivalence suite
//! proves response identity across seeds × schedules × fault plans, and
//! its [`crate::Mutation::ForwardStaleRead`],
//! [`crate::Mutation::UpsertReturnsNew`],
//! [`crate::Mutation::UpsertRunsAsGetAndPut`] and
//! [`crate::Mutation::TakeTombstonesFirst`] cases prove the suite can
//! fail.
//!
//! On `Err` nothing is answered and an unspecified subset of the call's
//! final writes may have been applied (what `put_batch` already says of
//! probing exhaustion) — none if the call names the reserved key, which
//! every backend checks in all three lists before anything launches.

use crate::config::Mutation;
use crate::host_ops::Overlap;
use crate::insert::InsertOutcome;
use crate::stats::{CascadeStage, DegradedStats, StageRows, StageTiming};
use gpu_sim::{CounterSnapshot, KernelStats, OutOfMemory};
use interconnect::TransferError;

/// One small request against a map service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Store `value` under `key` (duplicate keys update in place).
    Put {
        /// Key to store under.
        key: u32,
        /// Value to store.
        value: u32,
    },
    /// Look up `key`.
    Get {
        /// Key to look up.
        key: u32,
    },
    /// Tombstone `key`.
    Delete {
        /// Key to tombstone.
        key: u32,
    },
}

impl Op {
    /// The key the op addresses.
    #[must_use]
    pub fn key(&self) -> u32 {
        match *self {
            Op::Put { key, .. } | Op::Get { key } | Op::Delete { key } => key,
        }
    }

    /// Whether the op mutates the map.
    #[must_use]
    pub fn is_write(&self) -> bool {
        !matches!(self, Op::Get { .. })
    }
}

/// The response to one [`Op`], in submission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Response {
    /// The put was applied.
    Put,
    /// Get result: the stored value, if the key was present.
    Get {
        /// `Some(value)` on a hit, `None` on a miss.
        value: Option<u32>,
    },
    /// Delete result: whether a live entry was tombstoned.
    Delete {
        /// `true` iff the key was present (and is now gone).
        hit: bool,
    },
}

/// One cost report for any operation on any backend.
///
/// Subsumes both per-launch [`KernelStats`] (single-GPU backends, where
/// `counters` is populated and `stages` is empty) and the multi-GPU
/// cascades' timing (where `stages` carries the per-phase breakdown).
/// Reports merge additively, so a coalesced flush spanning several
/// batches accumulates into one report.
///
/// **Time.** A call in one chunk — every call on one GPU, and every
/// cascade the host bracket does not cut — takes as `time` the sum of its
/// stage rows, bit for bit. A host-sided call cut into chunks
/// ([`crate::host_ops`]) keeps every chunk's rows, launches and bytes,
/// and takes as `time` the makespan of Fig. 5's overlay of its chunks
/// ([`Self::overlaps`]): at least the busiest resource's rows, at most the
/// sum of all its rows. Merged reports add their times.
#[derive(Debug, Clone, Default)]
pub struct OpReport {
    /// Elements processed.
    pub elements: u64,
    /// Kernel launches attributed to the operation. A cascade counts
    /// the launches its rounds made, summed over GPUs: a healthy round
    /// makes two on a GPU that holds words, the multisplit and the node
    /// launch of its kernel and merge. Every launch made counts, those of
    /// a round a fault aborted included (a quarantine's migration is not
    /// a round and is not counted).
    pub launches: u64,
    /// Total modeled time in seconds (see **Time** above).
    pub time: f64,
    /// Portion of `time` spent in fault-retry exponential backoff
    /// (always ≤ `time`; zero on healthy runs).
    pub backoff_time: f64,
    /// Summed access-pattern counters, where the backend exposes them.
    pub counters: CounterSnapshot,
    /// Per-phase cascade breakdown, where the backend is a cascade.
    pub stages: StageRows,
    /// The calls among those reported whose chunks overlapped, each with
    /// its chunks' runs of `stages`, in call order; empty where every call
    /// was one chunk. After [`Self::merge_folded`] only a record that some
    /// did, with no chunks ([`Self::modeled_time`] refuses it).
    pub overlaps: Vec<Overlap>,
}

impl OpReport {
    /// Wraps one kernel launch's stats as a report over `elements` ops.
    #[must_use]
    pub fn from_kernel(stats: &KernelStats, elements: u64) -> Self {
        Self {
            elements,
            launches: 1,
            time: stats.sim_time,
            backoff_time: 0.0,
            counters: stats.counters,
            stages: StageRows::default(),
            overlaps: Vec::new(),
        }
    }

    /// The report a cascade over `elements` ops pushes its phases into.
    #[must_use]
    pub(crate) fn of_cascade(elements: u64) -> Self {
        Self {
            elements,
            // −0.0, the identity of f64 addition `Iterator::sum` starts
            // from: each total is, bit for bit, the sum of its rows
            time: -0.0,
            backoff_time: -0.0,
            ..Self::default()
        }
    }

    /// Appends a cascade phase, `overhead` of its `time` fixed launch
    /// overhead. Phases are globally barriered, so their times add; a
    /// [`CascadeStage::Backoff`] phase is also the report's backoff.
    pub(crate) fn push(&mut self, stage: CascadeStage, time: f64, bytes: u64, overhead: f64) {
        self.stages.push(StageTiming {
            stage,
            time,
            bytes,
            overhead,
        });
        self.time += time;
        if stage == CascadeStage::Backoff {
            self.backoff_time += time;
        }
    }

    /// Accumulates another report (times add — operations on one service
    /// are serialized); its stage rows append, one per occurrence, and so
    /// do its overlaps, over the rows where they now lie.
    pub fn merge(&mut self, other: &OpReport) {
        let at = self.stages.len();
        self.add_totals(other);
        self.stages.extend(other.stages.iter().copied());
        self.overlaps.extend(other.overlaps.iter().map(|o| o.moved_by(at)));
    }

    /// [`Self::merge`] for a long-lived total (a server's telemetry): a
    /// stage row of `other` adds its time, bytes and overhead onto this
    /// report's row of the same stage, appended the first time the stage
    /// appears — so the report stays at one row per [`CascadeStage`]
    /// however many reports it takes in, and [`Self::time_of`] reads what
    /// it would after `merge`, bit for bit (the same values added in the
    /// same order). Folded rows no longer tell one chunk from another:
    /// once an overlapped call is on either side, `overlaps` is one
    /// [`Overlap`] without chunks.
    pub fn merge_folded(&mut self, other: &OpReport) {
        self.add_totals(other);
        for s in &other.stages {
            match self.stages.iter_mut().find(|row| row.stage == s.stage) {
                Some(row) => {
                    row.time += s.time;
                    row.bytes += s.bytes;
                    row.overhead += s.overhead;
                }
                None => self.stages.push(*s),
            }
        }
        if !self.overlaps.is_empty() || !other.overlaps.is_empty() {
            self.overlaps.clear();
            self.overlaps.push(Overlap::default());
        }
    }

    fn add_totals(&mut self, other: &OpReport) {
        self.elements += other.elements;
        self.launches += other.launches;
        self.time += other.time;
        self.backoff_time += other.backoff_time;
        self.counters = self.counters.merged(other.counters);
    }

    /// Operation rate over the report's modeled time.
    #[must_use]
    pub fn ops_per_sec(&self) -> f64 {
        if self.time == 0.0 {
            0.0
        } else {
            self.elements as f64 / self.time
        }
    }

    /// Total modeled time extrapolated to `scale`× the element count.
    ///
    /// With a cascade breakdown the variable parts scale and the fixed
    /// launch overheads do not ([`StageTiming::scaled_time`]); without
    /// one the flat total scales linearly. A call whose chunks overlapped
    /// adds the makespan of its overlay re-run at that scale
    /// ([`Overlap::schedule`]), not the sum of its rows.
    ///
    /// # Panics
    /// Panics on a report [`Self::merge_folded`] took an overlapped call
    /// into: which rows were whose chunks is lost.
    #[must_use]
    pub fn modeled_time(&self, scale: f64) -> f64 {
        if self.stages.is_empty() {
            return self.time * scale;
        }
        let rows = |rows: &[StageTiming]| rows.iter().map(|s| s.scaled_time(scale)).sum::<f64>();
        if self.overlaps.is_empty() {
            return rows(&self.stages);
        }
        let (mut time, mut at) = (0.0, 0);
        for overlap in &self.overlaps {
            let chunks = overlap.rows();
            assert!(!chunks.is_empty(), "modeled_time of folded overlapped calls");
            time += rows(&self.stages[at..chunks.start]);
            time += overlap.schedule(&self.stages, scale, overlap.streams).makespan;
            at = chunks.end;
        }
        time + rows(&self.stages[at..])
    }

    /// Operation rate at modeled scale.
    #[must_use]
    pub fn modeled_ops_per_sec(&self, scale: f64) -> f64 {
        let t = self.modeled_time(scale);
        if t == 0.0 {
            0.0
        } else {
            self.elements as f64 * scale / t
        }
    }

    /// Accumulated time of one cascade phase kind (zero when the backend
    /// exposes no stage breakdown).
    #[must_use]
    pub fn time_of(&self, stage: CascadeStage) -> f64 {
        self.stages
            .iter()
            .filter(|s| s.stage == stage)
            .map(|s| s.time)
            .sum()
    }
}

/// The unified error of the front-door API: every failure mode of every
/// backend, typed. No front-door path panics under an armed fault plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpError {
    /// One or more pairs exhausted `p_max` probing attempts (Fig. 3,
    /// line 26). The paper's remedy is reconstruction with a distinct
    /// hash function — see [`crate::GpuHashMap::rebuild_with_fresh_hash`].
    /// With a [`crate::ResizePolicy`] armed the load-factor watermark
    /// normally grows or compacts the table before probing can saturate,
    /// so this marks a disabled policy or a failed growth allocation.
    ProbingExhausted {
        /// Number of pairs that could not be placed.
        failed: u64,
    },
    /// A scratch allocation for the operation failed.
    OutOfMemory(OutOfMemory),
    /// An interconnect transfer exhausted its retry budget with no
    /// failover avenue left.
    Transfer(TransferError),
    /// A GPU (or a partition of one device) exhausted its launch retry
    /// budget with no survivor to take over.
    DeviceLost {
        /// The lost device's index.
        device: usize,
    },
    /// The batch names the key `u32::MAX`, which both slot sentinels
    /// carry ([`crate::RESERVED_KEY`]): stored, it would read as a vacant
    /// slot. Rejected before anything is uploaded; nothing was applied.
    ReservedKey {
        /// Position of the first such key in the list (of keys, pairs
        /// or ops) that names it.
        index: usize,
    },
    /// A cascade invariant broke (a WarpDrive bug, not an
    /// environmental failure). Typed so a serving process can fail the
    /// one op and keep serving instead of panicking.
    Internal {
        /// The violated invariant, verbatim.
        detail: &'static str,
    },
}

impl std::fmt::Display for OpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpError::ProbingExhausted { failed } => {
                write!(f, "{failed} pair(s) exhausted the probing scheme")
            }
            OpError::OutOfMemory(e) => write!(f, "operation scratch allocation failed: {e}"),
            OpError::Transfer(e) => write!(f, "unrecoverable transfer failure: {e}"),
            OpError::DeviceLost { device } => {
                write!(f, "GPU {device} lost: launch retry budget exhausted, no failover target")
            }
            OpError::ReservedKey { index } => {
                write!(f, "key u32::MAX is reserved (position {index} of the batch)")
            }
            OpError::Internal { detail } => write!(f, "internal invariant violated: {detail}"),
        }
    }
}

impl std::error::Error for OpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OpError::Transfer(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TransferError> for OpError {
    fn from(e: TransferError) -> Self {
        OpError::Transfer(e)
    }
}

impl From<OutOfMemory> for OpError {
    fn from(e: OutOfMemory) -> Self {
        OpError::OutOfMemory(e)
    }
}

impl From<crate::errors::BuildError> for OpError {
    fn from(e: crate::errors::BuildError) -> Self {
        match e {
            crate::errors::BuildError::OutOfMemory(o) => OpError::OutOfMemory(o),
            // a resize target inherits a positive capacity from the source
            // table, so this arm marks a bug, not an environmental failure
            crate::errors::BuildError::ZeroCapacity => OpError::Internal {
                detail: "zero-capacity table requested",
            },
        }
    }
}

/// Typed result of a bulk put.
///
/// [`crate::GpuHashMap`] counts the three classes per key;
/// [`crate::DistributedHashMap`] derives them from its live maps' live
/// and tombstone counts before and after the call, exact for distinct
/// keys on a healthy node.
#[derive(Debug, Clone)]
pub struct PutResponse {
    /// Pairs that claimed a previously vacant slot.
    pub new_slots: u64,
    /// Pairs that updated an already-present key in place.
    pub updates: u64,
    /// Claims that reclaimed a tombstoned slot (subset of `new_slots`).
    pub reclaimed: u64,
    /// Cost report.
    pub report: OpReport,
}

/// Typed result of a bulk get, values in input order.
#[derive(Debug, Clone)]
pub struct GetResponse {
    /// `values[i]` answers `keys[i]`: `Some(v)` on a hit, `None` miss.
    pub values: Vec<Option<u32>>,
    /// Cost report.
    pub report: OpReport,
}

/// Typed result of a multi-map get-all, value vectors in input order.
#[derive(Debug, Clone)]
pub struct GetAllResponse {
    /// `values[i]` holds every value stored under `keys[i]`.
    pub values: Vec<Vec<u32>>,
    /// Cost report.
    pub report: OpReport,
}

/// Typed result of a bulk delete, hits in input order.
#[derive(Debug, Clone)]
pub struct DeleteResponse {
    /// `hits[i]` is `true` iff `keys[i]` was present (and is now gone).
    pub hits: Vec<bool>,
    /// Number of keys found and tombstoned (`hits` popcount).
    pub erased: u64,
    /// Cost report.
    pub report: OpReport,
}

/// Typed result of a device-sided multi-GPU call
/// ([`crate::DistributedHashMap::apply_device_sided`]): per-GPU answers in
/// the original per-GPU order.
#[derive(Debug, Clone)]
pub struct PerGpuResponse {
    /// Of a read, `values[g][i]` answers `lists[g][i]`; empty otherwise.
    pub values: Vec<Vec<Option<u32>>>,
    /// Of an erase, `hits[g][i]` is `true` iff `lists[g][i]` was
    /// tombstoned; empty otherwise.
    pub hits: Vec<Vec<bool>>,
    /// How the call's puts were placed, how many of its erases hit, and
    /// its cost report.
    pub applied: Applied,
}

/// What one [`MapService::apply`] did besides answering: how its puts were
/// placed, how many of its erases hit, and what the whole call cost. The
/// placement classes are counted as [`PutResponse`]'s are.
#[derive(Debug, Clone, Default)]
pub struct Applied {
    /// Pairs that claimed a previously vacant slot.
    pub new_slots: u64,
    /// Pairs that updated an already-present key in place.
    pub updates: u64,
    /// Claims that reclaimed a tombstoned slot (subset of `new_slots`).
    pub reclaimed: u64,
    /// Erased keys that were present (the popcount of the call's hits).
    pub erased: u64,
    /// Cost report.
    pub report: OpReport,
}

impl Applied {
    /// Adds the counts of a launch whose puts were placed as `outcome`
    /// says and whose erases tombstoned `erased` keys.
    pub(crate) fn note(&mut self, outcome: &InsertOutcome, erased: u64) {
        self.new_slots += outcome.new_slots;
        self.updates += outcome.updates;
        self.reclaimed += outcome.reclaimed;
        self.erased += erased;
    }
}

/// The backend abstraction the wd-serve coalescer is generic over: one
/// batch call that reads, writes and erases, [`MapService::apply`], plus
/// the occupancy and degradation signals admission control needs.
///
/// A backend implements `apply`; `put_batch`, `get_batch` and
/// `delete_batch` are wrappers over it that allocate only the answers they
/// hand back, and [`MapService::execute`] makes one `apply` call. A
/// backend may instead implement `get_batch`, `put_batch` and
/// `delete_batch` and keep the provided `apply`, which composes the three.
/// It must do one or the other: each provided side calls the other.
///
/// Every method takes `&mut self` — a service owns its backend
/// exclusively, which *is* the §IV-A global barrier: no kernel of one
/// batch can race a kernel of another, so deletions need no further
/// synchronization. (A [`crate::GpuHashMap`] still exposes the
/// finer-grained `&self` insert/query calls for toolchain embedding.)
pub trait MapService {
    /// Looks up `reads`, applies `puts` and then erases `erases`, in one
    /// call: `values[i]` answers `reads[i]` with what it held **before**
    /// the call (`None` on a miss), whether or not the call writes or
    /// erases it too, and `hits[i]` is whether `erases[i]` was present. Every slot of both
    /// is written, misses included; a list left empty costs nothing.
    /// [`MapService::execute`] sends lists of distinct keys in ascending
    /// order, a read key in one of the other two at most.
    ///
    /// The provided body composes `get_batch`, `put_batch` and
    /// `delete_batch`, in that order and on the lists that are not empty,
    /// reports merged in that order. A backend that can do better
    /// overrides it: [`crate::GpuHashMap`] reads, writes and erases in one
    /// launch of the kernel, [`crate::DistributedHashMap`] in one cascade
    /// round, [`crate::CachedMap`] answers what its shadow holds and sends
    /// the rest on in one call.
    ///
    /// # Errors
    /// [`OpError::ReservedKey`] if a list names the key `u32::MAX` — its
    /// position in the first list that does, reads before puts before
    /// erases — with nothing applied. Otherwise the first failing part's
    /// [`OpError`]: nothing is answered, and an unspecified subset of the
    /// puts and erases may have been applied. [`OpError::Internal`] if
    /// `values` or `hits` lacks a slot per read or erase, or a composed
    /// `get_batch` or `delete_batch` answers with the wrong number of
    /// results.
    fn apply(
        &mut self,
        reads: &[u32],
        puts: &[(u32, u32)],
        erases: &[u32],
        values: &mut [Option<u32>],
        hits: &mut [bool],
    ) -> Result<Applied, OpError> {
        composed(self, reads, puts, erases, values, hits)
    }

    /// Applies a batch of puts: [`MapService::apply`] of `pairs` alone.
    /// Duplicate keys within one batch race (last writer wins on the
    /// kernel's event horizon) — callers that need sequential semantics
    /// send each key once, as [`MapService::execute`] does.
    ///
    /// # Errors
    /// Any [`OpError`]; probing exhaustion is an error even though the
    /// non-colliding pairs were applied.
    fn put_batch(&mut self, pairs: &[(u32, u32)]) -> Result<PutResponse, OpError> {
        let done = self.apply(&[], pairs, &[], &mut [], &mut [])?;
        Ok(PutResponse {
            new_slots: done.new_slots,
            updates: done.updates,
            reclaimed: done.reclaimed,
            report: done.report,
        })
    }

    /// Looks up a batch of keys, results in input order:
    /// [`MapService::apply`] of `keys` alone.
    ///
    /// # Errors
    /// Fault-mode failures once every failover avenue is exhausted.
    fn get_batch(&mut self, keys: &[u32]) -> Result<GetResponse, OpError> {
        let mut values = vec![None; keys.len()];
        let report = self.apply(keys, &[], &[], &mut values, &mut [])?.report;
        Ok(GetResponse { values, report })
    }

    /// Tombstones a batch of keys, per-key hits in input order:
    /// [`MapService::apply`] of `keys` alone.
    ///
    /// # Errors
    /// Fault-mode failures once every failover avenue is exhausted.
    fn delete_batch(&mut self, keys: &[u32]) -> Result<DeleteResponse, OpError> {
        let mut hits = vec![false; keys.len()];
        let done = self.apply(&[], &[], keys, &mut [], &mut hits)?;
        Ok(DeleteResponse {
            hits,
            erased: done.erased,
            report: done.report,
        })
    }

    /// Live (non-tombstone) entries.
    fn live_len(&self) -> u64;

    /// Total slots across the backend.
    fn slot_capacity(&self) -> u64;

    /// Load factor α = live entries / capacity.
    fn occupancy(&self) -> f64 {
        let cap = self.slot_capacity();
        if cap == 0 {
            0.0
        } else {
            self.live_len() as f64 / cap as f64
        }
    }

    /// Degraded-mode counters (all-zero for backends without a chaos
    /// layer).
    fn degraded(&self) -> DegradedStats {
        DegradedStats::default()
    }

    /// Slot occupancy split into live entries and tombstones. Backends
    /// without tombstone accounting report every occupied slot as live.
    fn occupancy_split(&self) -> crate::Occupancy {
        crate::Occupancy {
            live: self.live_len(),
            tombstones: 0,
            capacity: self.slot_capacity(),
        }
    }

    /// Resize state of the backend (always `Stable` for fixed-capacity
    /// backends).
    fn resize_state(&self) -> crate::ResizeState {
        crate::ResizeState::Stable
    }

    /// Asks the backend to start growing. Fixed-capacity backends return
    /// `Ok(false)` ("cannot comply — keep shedding"); resizable ones
    /// start (or continue) an incremental migration and return whether a
    /// new one was started.
    ///
    /// # Errors
    /// Allocation failure of the resize target.
    fn request_grow(&mut self) -> Result<bool, OpError> {
        Ok(false)
    }

    /// Asks the backend to start a same-capacity compaction (tombstone
    /// purge). Same contract as [`MapService::request_grow`].
    ///
    /// # Errors
    /// Allocation failure of the compaction target.
    fn request_compact(&mut self) -> Result<bool, OpError> {
        Ok(false)
    }

    /// **Test-only.** The [`Mutation`] double armed on the backend's
    /// [`crate::Config`], if any; [`MapService::execute`] consults it for
    /// [`Mutation::ForwardStaleRead`].
    #[doc(hidden)]
    fn mutation(&self) -> Option<Mutation> {
        None
    }

    /// Executes a mixed op stream, returning one response per op in
    /// submission order plus the cost report of its one
    /// [`MapService::apply`], whose `elements` is `ops.len()` — a
    /// forwarded op is an answered op.
    ///
    /// Response-identical to executing the ops one at a time, in one
    /// `apply` of distinct ascending keys in each list: same-key
    /// dependencies are resolved on the host, see the module docs. A call
    /// of up to [`INLINE_OPS`] ops keeps its sort keys, lists and answers
    /// on the stack and allocates only its responses.
    ///
    /// # Errors
    /// The `apply`'s [`OpError`]. No op is answered, and an unspecified
    /// subset of the call's final writes may have been applied.
    /// [`OpError::ReservedKey`], with nothing applied, if an op names the
    /// key `u32::MAX`. [`OpError::Internal`] if the call carries more than
    /// `u32::MAX` ops or a backend answers with the wrong number of
    /// results.
    fn execute(&mut self, ops: &[Op]) -> Result<(Vec<Response>, OpReport), OpError> {
        if u32::try_from(ops.len()).is_err() {
            return Err(OpError::Internal {
                detail: "execute: one call carries at most u32::MAX ops",
            });
        }
        // `key << 32 | index`, sorted: each key's ops, contiguous and in
        // submission order, keys ascending
        let mut sort = ([0; INLINE_OPS], Vec::new());
        let by_key = room(&mut sort, ops.len(), 0);
        for (entry, (i, op)) in by_key.iter_mut().zip(ops.iter().enumerate()) {
            *entry = u64::from(op.key()) << 32 | i as u64;
        }
        by_key.sort_unstable();
        let index = |entry: u64| (entry & 0xffff_ffff) as usize;
        // the reserved key sorts last; its first op names the offender
        let reserved = by_key.partition_point(|&e| e >> 32 < u64::from(crate::RESERVED_KEY));
        if let Some(&entry) = by_key.get(reserved) {
            return Err(OpError::ReservedKey { index: index(entry) });
        }
        // per key: whether its pre-call state must be read — its first
        // op is a get, or a delete whose hit no final erase will report
        // because the call puts the key back — and its last write, the
        // only one the table must see
        let plan = |group: &[u64]| {
            let last_write = group
                .iter()
                .rev()
                .map(|&e| ops[index(e)])
                .find(Op::is_write);
            let read = match ops[index(group[0])] {
                Op::Put { .. } => false,
                Op::Get { .. } => true,
                Op::Delete { .. } => matches!(last_write, Some(Op::Put { .. })),
            };
            (read, last_write)
        };

        // sized by a counting pass, so that a list of a large call stays
        // on the stack while it fits
        let (mut n_reads, mut n_puts, mut n_erases) = (0, 0, 0);
        for group in by_key.chunk_by(same_key) {
            let (read, last_write) = plan(group);
            n_reads += usize::from(read);
            match last_write {
                Some(Op::Put { .. }) => n_puts += 1,
                Some(Op::Delete { .. }) => n_erases += 1,
                _ => {}
            }
        }
        let mut lists = (
            ([0; INLINE_OPS], Vec::new()),
            ([(0, 0); INLINE_OPS], Vec::new()),
            ([0; INLINE_OPS], Vec::new()),
        );
        let reads = room(&mut lists.0, n_reads, 0);
        let puts = room(&mut lists.1, n_puts, (0, 0));
        let erases = room(&mut lists.2, n_erases, 0);
        let (mut r, mut p, mut e) = (0, 0, 0);
        for group in by_key.chunk_by(same_key) {
            let (read, last_write) = plan(group);
            if read {
                reads[r] = (group[0] >> 32) as u32;
                r += 1;
            }
            match last_write {
                Some(Op::Put { key, value }) => {
                    puts[p] = (key, value);
                    p += 1;
                }
                Some(Op::Delete { key }) => {
                    erases[e] = key;
                    e += 1;
                }
                _ => {}
            }
        }
        let mut answers = (
            ([None; INLINE_OPS], Vec::new()),
            ([false; INLINE_OPS], Vec::new()),
        );
        let values = room(&mut answers.0, n_reads, None);
        let hits = room(&mut answers.1, n_erases, false);
        let mut report = self.apply(reads, puts, erases, values, hits)?.report;
        report.elements = ops.len() as u64;

        // answer each key's ops in submission order, carrying its state
        let stale_reads = self.mutation() == Some(Mutation::ForwardStaleRead);
        let mut responses = vec![Response::Put; ops.len()];
        let (mut values, mut hits) = (values.iter().copied(), hits.iter().copied());
        for group in by_key.chunk_by(same_key) {
            let (read, last_write) = plan(group);
            let pre = if read { values.next().flatten() } else { None };
            let erased = matches!(last_write, Some(Op::Delete { .. })) && hits.next() == Some(true);
            // an unread key starts with a put, which looks at neither, or
            // with a delete and ends erased: the erase reports its presence
            let (mut value, mut present) = (pre, if read { pre.is_some() } else { erased });
            for i in group.iter().map(|&e| index(e)) {
                responses[i] = match ops[i] {
                    Op::Put { value: v, .. } => {
                        (value, present) = (Some(v), true);
                        Response::Put
                    }
                    // MUTATION DOUBLE (`Mutation::ForwardStaleRead`): no
                    // forwarding — every get sees the pre-call state
                    Op::Get { .. } if stale_reads => Response::Get { value: pre },
                    Op::Get { .. } => Response::Get { value },
                    Op::Delete { .. } => {
                        let hit = present;
                        (value, present) = (None, false);
                        Response::Delete { hit }
                    }
                };
            }
        }
        Ok((responses, report))
    }
}

/// Most ops whose sort keys, lists and answers [`MapService::execute`]
/// keeps on the stack, about 4 KiB of them: a YCSB client's 128-op call,
/// and a server's flush under light load.
pub const INLINE_OPS: usize = 128;

/// Most elements a backend's scratch keeps between calls: past a serving
/// flush (a server's `max_batch` ops), far below a bulk call, whose buffers
/// are its own and go with it.
pub(crate) const HELD_SCRATCH: usize = 1 << 12;

/// `len` slots: in the array of `space` while they fit, else in its `Vec`,
/// filled with `fill`.
fn room<T: Copy, const N: usize>(space: &mut ([T; N], Vec<T>), len: usize, fill: T) -> &mut [T] {
    if len <= N {
        &mut space.0[..len]
    } else {
        space.1.resize(len, fill);
        &mut space.1
    }
}

/// Whether two `key << 32 | index` entries address the same key.
fn same_key(a: &u64, b: &u64) -> bool {
    a >> 32 == b >> 32
}

/// The report of two calls made one after the other: `first`'s, if there
/// was one, with `next` merged into it — else `next`'s, as it is.
pub(crate) fn joined(first: Option<OpReport>, next: OpReport) -> OpReport {
    match first {
        Some(mut report) => {
            report.merge(&next);
            report
        }
        None => next,
    }
}

/// [`MapService::apply`] as `svc`'s `get_batch`, `put_batch` and
/// `delete_batch`, on the lists that are not empty, in that order, reports
/// merged in that order — the provided body, and what a backend that
/// implements `apply` runs for lists it cannot send in one call.
///
/// # Errors
/// As [`MapService::apply`].
pub(crate) fn composed<S: MapService + ?Sized>(
    svc: &mut S,
    reads: &[u32],
    puts: &[(u32, u32)],
    erases: &[u32],
    values: &mut [Option<u32>],
    hits: &mut [bool],
) -> Result<Applied, OpError> {
    check_call(reads, puts, erases, values, hits)?;
    let mut applied = Applied::default();
    let mut report = None;
    if !reads.is_empty() {
        let got = svc.get_batch(reads)?;
        answered(reads.len(), got.values.len())?;
        values.copy_from_slice(&got.values);
        report = Some(got.report);
    }
    if !puts.is_empty() {
        let put = svc.put_batch(puts)?;
        (applied.new_slots, applied.updates) = (put.new_slots, put.updates);
        applied.reclaimed = put.reclaimed;
        report = Some(joined(report, put.report));
    }
    if !erases.is_empty() {
        let erased = svc.delete_batch(erases)?;
        answered(erases.len(), erased.hits.len())?;
        hits.copy_from_slice(&erased.hits);
        applied.erased = erased.erased;
        report = Some(joined(report, erased.report));
    }
    applied.report = report.unwrap_or_default();
    Ok(applied)
}

/// Checks a call of [`MapService::apply`] before anything runs: that
/// `values` holds a slot per read and `hits` one per erase, and that no
/// list names the reserved key.
///
/// # Errors
/// [`OpError::Internal`] for a slice of the wrong length;
/// [`OpError::ReservedKey`] as [`crate::table::check_lists`].
pub(crate) fn check_call(
    reads: &[u32],
    puts: &[(u32, u32)],
    erases: &[u32],
    values: &[Option<u32>],
    hits: &[bool],
) -> Result<(), OpError> {
    if values.len() != reads.len() || hits.len() != erases.len() {
        return Err(OpError::Internal {
            detail: "apply: one answer slot per read and one hit slot per erase",
        });
    }
    crate::table::check_lists(reads, puts, erases)
}

/// Whether a call's lists may share one launch (one round) without a key
/// in two groups: a list alone may repeat keys; two lists or more each
/// hold distinct keys in ascending order, none both put and erased.
pub(crate) fn one_group_per_key(reads: &[u32], puts: &[(u32, u32)], erases: &[u32]) -> bool {
    let lists = [reads.is_empty(), puts.is_empty(), erases.is_empty()];
    lists.iter().filter(|&&empty| !empty).count() <= 1
        || (reads.is_sorted_by(|a, b| a < b)
            && puts.is_sorted_by(|a, b| a.0 < b.0)
            && erases.is_sorted_by(|a, b| a < b)
            && !puts.iter().any(|p| erases.binary_search(&p.0).is_ok()))
}

/// Checks that a composed batch call answered each of its `asked` keys.
fn answered(asked: usize, got: usize) -> Result<(), OpError> {
    if asked == got {
        Ok(())
    } else {
        Err(OpError::Internal {
            detail: "execute: a backend answered a batch with the wrong number of results",
        })
    }
}

/// Writes a read's answer into its slot, a miss's `None` included.
pub(crate) fn answer(slot: &mut Option<u32>, value: Option<u32>, mutation: Option<Mutation>) {
    // MUTATION DOUBLE (`Mutation::ApplySkipsMisses`): a miss leaves its
    // slot as the caller handed it over
    if value.is_some() || mutation != Some(Mutation::ApplySkipsMisses) {
        *slot = value;
    }
}

/// Lowers a YCSB-style mixed stream onto front-door [`Op`]s: reads
/// become gets, updates become puts, and each read-modify-write expands
/// into a get immediately followed by a put of the same key (the
/// dependent pair YCSB F models). The output is therefore up to twice as
/// long as the input; feed it to [`MapService::execute`], which answers
/// the pair as sequential execution would: the get from the pre-call
/// read, the put as the key's final write.
#[must_use]
pub fn lower_mixed(ops: &[workloads::ycsb::MixedOp]) -> Vec<Op> {
    use workloads::ycsb::MixedOp;
    let mut out = Vec::with_capacity(ops.len());
    for op in ops {
        match *op {
            MixedOp::Read { key } => out.push(Op::Get { key }),
            MixedOp::Update { key, value } => out.push(Op::Put { key, value }),
            MixedOp::ReadModifyWrite { key, value } => {
                out.push(Op::Get { key });
                out.push(Op::Put { key, value });
            }
        }
    }
    out
}

/// The in-memory reference [`MapService`]s of the crate's unit tests: a
/// `BTreeMap` behind the trait, in each of the two shapes a backend may
/// take, with probes for what reached it.
#[cfg(test)]
pub(crate) mod model {
    use super::*;

    /// Reference backend in the shape that keeps the provided
    /// [`MapService::apply`]: it implements `get_batch`, `put_batch` and
    /// `delete_batch`. Every field is a test probe.
    #[derive(Default)]
    pub(crate) struct ModelService {
        pub(crate) map: std::collections::BTreeMap<u32, u32>,
        /// Kind (`'p'`/`'g'`/`'d'`) and keys of every batch call, in order.
        pub(crate) batches: Vec<(char, Vec<u32>)>,
        /// Keys looked up so far.
        pub(crate) gets: usize,
        /// Makes every put batch fail with `ProbingExhausted`.
        pub(crate) fail_puts: bool,
        /// The double `execute` runs with.
        pub(crate) mutation: Option<Mutation>,
    }

    fn report(elements: usize) -> OpReport {
        OpReport {
            elements: elements as u64,
            ..OpReport::default()
        }
    }

    impl MapService for ModelService {
        fn put_batch(&mut self, pairs: &[(u32, u32)]) -> Result<PutResponse, OpError> {
            self.batches
                .push(('p', pairs.iter().map(|p| p.0).collect()));
            if self.fail_puts {
                return Err(OpError::ProbingExhausted {
                    failed: pairs.len() as u64,
                });
            }
            let mut new_slots = 0;
            for &(k, v) in pairs {
                if self.map.insert(k, v).is_none() {
                    new_slots += 1;
                }
            }
            Ok(PutResponse {
                new_slots,
                updates: pairs.len() as u64 - new_slots,
                reclaimed: 0,
                report: report(pairs.len()),
            })
        }

        fn get_batch(&mut self, keys: &[u32]) -> Result<GetResponse, OpError> {
            self.batches.push(('g', keys.to_vec()));
            self.gets += keys.len();
            Ok(GetResponse {
                values: keys.iter().map(|k| self.map.get(k).copied()).collect(),
                report: report(keys.len()),
            })
        }

        fn delete_batch(&mut self, keys: &[u32]) -> Result<DeleteResponse, OpError> {
            self.batches.push(('d', keys.to_vec()));
            let hits: Vec<bool> = keys.iter().map(|k| self.map.remove(k).is_some()).collect();
            let erased = hits.iter().filter(|&&h| h).count() as u64;
            Ok(DeleteResponse {
                hits,
                erased,
                report: report(keys.len()),
            })
        }

        fn mutation(&self) -> Option<Mutation> {
            self.mutation
        }

        fn live_len(&self) -> u64 {
            self.map.len() as u64
        }

        fn slot_capacity(&self) -> u64 {
            1 << 20
        }
    }

    /// The same reference in the shape of a backend that implements
    /// [`MapService::apply`] alone. Every field is a test probe.
    #[derive(Default)]
    pub(crate) struct OneCall {
        pub(crate) map: std::collections::BTreeMap<u32, u32>,
        /// The reads, the put keys and the erases of every call, in order.
        pub(crate) calls: Vec<[Vec<u32>; 3]>,
        /// Makes every call with puts fail with `ProbingExhausted`, after
        /// its reads and before anything is written.
        pub(crate) fail_puts: bool,
    }

    impl MapService for OneCall {
        fn apply(
            &mut self,
            reads: &[u32],
            puts: &[(u32, u32)],
            erases: &[u32],
            values: &mut [Option<u32>],
            hits: &mut [bool],
        ) -> Result<Applied, OpError> {
            check_call(reads, puts, erases, values, hits)?;
            let put_keys = puts.iter().map(|p| p.0).collect();
            self.calls.push([reads.to_vec(), put_keys, erases.to_vec()]);
            for (slot, k) in values.iter_mut().zip(reads) {
                *slot = self.map.get(k).copied();
            }
            if self.fail_puts && !puts.is_empty() {
                return Err(OpError::ProbingExhausted {
                    failed: puts.len() as u64,
                });
            }
            let mut applied = Applied::default();
            for &(k, v) in puts {
                match self.map.insert(k, v) {
                    None => applied.new_slots += 1,
                    Some(_) => applied.updates += 1,
                }
            }
            for (hit, k) in hits.iter_mut().zip(erases) {
                *hit = self.map.remove(k).is_some();
                applied.erased += u64::from(*hit);
            }
            applied.report = report(reads.len() + puts.len() + erases.len());
            Ok(applied)
        }

        fn live_len(&self) -> u64 {
            self.map.len() as u64
        }

        fn slot_capacity(&self) -> u64 {
            1 << 20
        }
    }
}

#[cfg(test)]
mod tests {
    use super::model::{ModelService, OneCall};
    use super::*;

    #[test]
    fn op_report_merges_additively() {
        let mut a = OpReport {
            elements: 10,
            launches: 1,
            time: 1.0,
            backoff_time: 0.25,
            counters: CounterSnapshot {
                transactions: 5,
                ..CounterSnapshot::default()
            },
            stages: StageRows::default(),
            overlaps: vec![],
        };
        let b = OpReport {
            elements: 20,
            launches: 2,
            time: 2.0,
            backoff_time: 0.0,
            counters: CounterSnapshot {
                transactions: 7,
                ..CounterSnapshot::default()
            },
            stages: StageRows::default(),
            overlaps: vec![],
        };
        a.merge(&b);
        assert_eq!(a.elements, 30);
        assert_eq!(a.launches, 3);
        assert!((a.time - 3.0).abs() < 1e-12);
        assert!((a.backoff_time - 0.25).abs() < 1e-12);
        assert_eq!(a.counters.transactions, 12);
        assert!((a.ops_per_sec() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn merge_folded_keeps_one_row_per_stage_and_the_bits_of_time_of() {
        let report = |scale: f64| {
            let mut c = OpReport::of_cascade(10);
            c.push(CascadeStage::H2D, 0.1 * scale, 80, 0.0);
            c.push(CascadeStage::Multisplit, 0.3 * scale, 0, 6e-6);
            c.push(CascadeStage::Insert, 0.7 * scale, 0, 6e-6);
            c.push(CascadeStage::Insert, 0.01 * scale, 0, 6e-6);
            c.launches = 9;
            c
        };
        let (mut rows, mut folded) = (OpReport::default(), OpReport::default());
        for i in 1..=1000 {
            rows.merge(&report(f64::from(i)));
            folded.merge_folded(&report(f64::from(i)));
        }
        assert_eq!(rows.stages.len(), 4000);
        assert_eq!(folded.stages.len(), 3);
        for stage in [CascadeStage::H2D, CascadeStage::Multisplit, CascadeStage::Insert] {
            assert_eq!(folded.time_of(stage).to_bits(), rows.time_of(stage).to_bits());
        }
        assert_eq!(folded.stages[0].bytes, 80_000);
        assert!((folded.stages[2].overhead - 2000.0 * 6e-6).abs() < 1e-12);
        assert_eq!((folded.elements, folded.launches), (rows.elements, rows.launches));
        assert_eq!(folded.time.to_bits(), rows.time.to_bits());
    }

    #[test]
    fn a_cascades_report_totals_its_rows_and_extracts_backoff() {
        let mut r = OpReport::of_cascade(100);
        r.push(CascadeStage::Insert, 0.1, 0, 6e-6);
        r.push(CascadeStage::Backoff, 0.2, 0, 0.0);
        r.push(CascadeStage::Scatter, 0.3, 0, 6e-6);
        r.push(CascadeStage::Backoff, 0.5, 0, 0.0);
        r.launches = 5;
        assert_eq!(r.elements, 100);
        assert_eq!(r.launches, 5);
        assert_eq!(r.stages.len(), 4);
        // each total is the sum of its rows in push order, bit for bit
        let rows: f64 = r.stages.iter().map(|s| s.time).sum();
        assert_eq!(r.time.to_bits(), rows.to_bits());
        assert_eq!(r.backoff_time.to_bits(), r.time_of(CascadeStage::Backoff).to_bits());
        assert!((r.backoff_time - 0.7).abs() < 1e-12);
        // and so is a healthy cascade's backoff: the sum of no row
        let healthy = OpReport::of_cascade(0);
        let no_row = healthy.time_of(CascadeStage::Backoff);
        assert_eq!(healthy.backoff_time.to_bits(), no_row.to_bits());
        assert_eq!(healthy.backoff_time, 0.0);
    }

    #[test]
    fn op_error_conversions_cover_every_variant() {
        let t = TransferError {
            src: 0,
            dst: 1,
            attempts: 2,
        };
        assert_eq!(OpError::from(t), OpError::Transfer(t));
        let oom = OutOfMemory {
            requested_words: 2,
            available_words: 1,
        };
        assert_eq!(OpError::from(oom), OpError::OutOfMemory(oom));
        let e: OpError = crate::errors::BuildError::OutOfMemory(oom).into();
        assert_eq!(e, OpError::OutOfMemory(oom));
        let e: OpError = crate::errors::BuildError::ZeroCapacity.into();
        assert!(matches!(e, OpError::Internal { .. }));
    }

    /// A mixed stream with every dependency shape on six keys.
    fn mixed_stream() -> Vec<Op> {
        vec![
            Op::Get { key: 1 },
            Op::Put { key: 2, value: 20 },
            Op::Delete { key: 3 },
            Op::Put { key: 1, value: 11 },
            Op::Get { key: 2 },
            Op::Get { key: 1 },
            Op::Delete { key: 2 },
            Op::Put { key: 3, value: 31 },
            Op::Put { key: 2, value: 22 },
            Op::Get { key: 4 },
            Op::Delete { key: 5 },
            Op::Get { key: 4 },
            Op::Delete { key: 5 },
            Op::Put { key: 6, value: 60 },
            Op::Delete { key: 6 },
        ]
    }

    /// `mixed_stream` over keys 1, 3 and 5 present, in a backend of the
    /// shape `S`.
    fn preloaded<S: MapService>(mut svc: S) -> S {
        svc.put_batch(&[(1, 10), (3, 30), (5, 50)]).unwrap();
        svc
    }

    /// What `execute` answers to `mixed_stream` over keys 1, 3 and 5.
    fn mixed_answers() -> Vec<Response> {
        vec![
            Response::Get { value: Some(10) },
            Response::Put,
            Response::Delete { hit: true },
            Response::Put,
            Response::Get { value: Some(20) },
            Response::Get { value: Some(11) },
            Response::Delete { hit: true },
            Response::Put,
            Response::Put,
            Response::Get { value: None },
            Response::Delete { hit: true },
            Response::Get { value: None },
            Response::Delete { hit: false },
            Response::Put,
            Response::Delete { hit: true },
        ]
    }

    /// A backend that implements `apply` gets one call: the reads, the
    /// puts and the erases together.
    #[test]
    fn execute_sends_reads_and_puts_together_to_a_backend_that_fuses() {
        let mut svc = preloaded(OneCall::default());
        svc.calls.clear();
        let ops = mixed_stream();
        let (resp, report) = svc.execute(&ops).unwrap();
        // one call: distinct ascending keys in each list, only what the
        // call cannot know itself — keys 1 (get → put) and 3 (delete →
        // put) read and written
        assert_eq!(svc.calls, vec![[vec![1, 3, 4], vec![1, 2, 3], vec![5, 6]]]);
        assert_eq!(resp, mixed_answers());
        // forwarded ops are answered ops
        assert_eq!(report.elements, ops.len() as u64);
        let want = [(1, 11), (2, 22), (3, 31)].into_iter().collect();
        assert_eq!(svc.map, want);
    }

    /// A backend of the per-kind shape gets the same lists through the
    /// provided `apply`: one batch call per kind, in get → put → delete
    /// order.
    #[test]
    fn execute_makes_at_most_three_batch_calls_get_put_delete() {
        let mut svc = preloaded(ModelService::default());
        svc.batches.clear();
        let ops = mixed_stream();
        let (resp, report) = svc.execute(&ops).unwrap();
        // one call per kind, in get → put → delete order, the lists of
        // the one apply call
        assert_eq!(
            svc.batches,
            vec![
                ('g', vec![1, 3, 4]),
                ('p', vec![1, 2, 3]),
                ('d', vec![5, 6]),
            ]
        );
        assert_eq!(resp, mixed_answers());
        assert_eq!(report.elements, ops.len() as u64);
        let want = [(1, 11), (2, 22), (3, 31)].into_iter().collect();
        assert_eq!(svc.map, want);
    }

    #[test]
    fn the_provided_apply_merges_the_reports_in_call_order() {
        // three cascades' reports, the first with its rows, as a backend
        // of the per-kind shape returns them
        struct Rows;
        fn rows(stage: CascadeStage, time: f64) -> OpReport {
            let mut r = OpReport::of_cascade(1);
            r.push(stage, time, 8, 0.0);
            r.launches = 1;
            r
        }
        impl MapService for Rows {
            fn get_batch(&mut self, keys: &[u32]) -> Result<GetResponse, OpError> {
                let values = vec![None; keys.len()];
                Ok(GetResponse {
                    values,
                    report: rows(CascadeStage::Query, 0.1),
                })
            }
            fn put_batch(&mut self, _: &[(u32, u32)]) -> Result<PutResponse, OpError> {
                let report = rows(CascadeStage::Insert, 0.2);
                Ok(PutResponse {
                    new_slots: 1,
                    updates: 0,
                    reclaimed: 0,
                    report,
                })
            }
            fn delete_batch(&mut self, keys: &[u32]) -> Result<DeleteResponse, OpError> {
                let (hits, report) = (vec![true; keys.len()], rows(CascadeStage::Scatter, 0.3));
                Ok(DeleteResponse {
                    hits,
                    erased: keys.len() as u64,
                    report,
                })
            }
            fn live_len(&self) -> u64 {
                0
            }
            fn slot_capacity(&self) -> u64 {
                1
            }
        }
        let (mut values, mut hits) = ([Some(7)], [false, false]);
        let done = Rows
            .apply(&[1], &[(2, 2)], &[3, 4], &mut values, &mut hits)
            .unwrap();
        assert_eq!((values, hits), ([None], [true, true]));
        assert_eq!((done.new_slots, done.erased), (1, 2));
        let mut want = rows(CascadeStage::Query, 0.1);
        want.merge(&rows(CascadeStage::Insert, 0.2));
        want.merge(&rows(CascadeStage::Scatter, 0.3));
        let stages = |r: &OpReport| r.stages.iter().map(|s| s.stage).collect::<Vec<_>>();
        assert_eq!(stages(&done.report), stages(&want));
        assert_eq!(done.report.time.to_bits(), want.time.to_bits());
        assert_eq!(done.report.launches, 3);
    }

    /// A list left empty reaches no batch call, and costs a backend of one
    /// call nothing but the empty slice.
    #[test]
    fn execute_with_one_kind_of_read_write_work_stays_on_the_single_kind_calls() {
        let mut svc = ModelService::default();
        svc.execute(&[Op::Get { key: 1 }, Op::Delete { key: 2 }])
            .unwrap();
        svc.execute(&[Op::Put { key: 1, value: 1 }, Op::Delete { key: 2 }])
            .unwrap();
        let kinds: String = svc.batches.iter().map(|b| b.0).collect();
        assert_eq!(kinds, "gdpd");

        let mut svc = OneCall::default();
        svc.execute(&[Op::Get { key: 1 }, Op::Delete { key: 2 }])
            .unwrap();
        assert_eq!(svc.calls, vec![[vec![1], vec![], vec![2]]]);
    }

    #[test]
    fn execute_sends_only_a_keys_last_write() {
        let mut svc = OneCall::default();
        let ops = vec![
            Op::Put { key: 7, value: 1 },
            Op::Put { key: 8, value: 2 },
            Op::Delete { key: 7 },
            Op::Put { key: 7, value: 3 },
            Op::Get { key: 7 },
        ];
        let (resp, report) = svc.execute(&ops).unwrap();
        // put → delete → put of key 7 leaves one put; the get and the
        // delete are forwarded, so nothing is read and nothing erased
        assert_eq!(svc.calls, vec![[vec![], vec![7, 8], vec![]]]);
        assert_eq!(resp[2], Response::Delete { hit: true });
        assert_eq!(resp[4], Response::Get { value: Some(3) });
        assert_eq!(svc.map.get(&7), Some(&3));
        assert_eq!(report.elements, 5);
    }

    #[test]
    fn execute_reads_a_key_once_and_forwards_after_a_write() {
        let mut svc = OneCall::default();
        svc.map.insert(5, 50);
        let ops = vec![
            Op::Get { key: 5 },
            Op::Get { key: 5 },
            Op::Put { key: 5, value: 51 },
            Op::Get { key: 5 },
        ];
        let (resp, report) = svc.execute(&ops).unwrap();
        // duplicate and forwarded gets stay off the backend
        assert_eq!(svc.calls, vec![[vec![5], vec![5], vec![]]]);
        assert_eq!(
            resp,
            vec![
                Response::Get { value: Some(50) },
                Response::Get { value: Some(50) },
                Response::Put,
                Response::Get { value: Some(51) },
            ]
        );
        assert_eq!(report.elements, 4);
    }

    #[test]
    fn execute_delete_first_key_reports_pre_call_presence() {
        let mut svc = OneCall::default();
        svc.map.extend([(3, 30), (4, 40)]);
        let ops = vec![
            Op::Delete { key: 3 },
            Op::Delete { key: 3 },
            Op::Delete { key: 4 },
            Op::Put { key: 4, value: 41 },
            Op::Delete { key: 9 },
            Op::Put { key: 9, value: 91 },
        ];
        let (resp, _) = svc.execute(&ops).unwrap();
        // key 3 ends erased: the erase itself reports the hit. Keys 4 and
        // 9 are put back, so their presence has to be read first.
        assert_eq!(svc.calls, vec![[vec![4, 9], vec![4, 9], vec![3]]]);
        assert_eq!(
            resp,
            vec![
                Response::Delete { hit: true },
                Response::Delete { hit: false },
                Response::Delete { hit: true },
                Response::Put,
                Response::Delete { hit: false },
                Response::Put,
            ]
        );
    }

    #[test]
    fn execute_forward_stale_read_double_answers_from_the_pre_call_read() {
        let mut svc = ModelService {
            mutation: Some(Mutation::ForwardStaleRead),
            ..ModelService::default()
        };
        svc.map.insert(1, 10);
        let ops = [
            Op::Get { key: 1 },
            Op::Put { key: 1, value: 11 },
            Op::Get { key: 1 },
        ];
        let (resp, _) = svc.execute(&ops).unwrap();
        assert_eq!(resp[2], Response::Get { value: Some(10) });
    }

    #[test]
    fn execute_error_answers_nothing_and_may_leave_writes_behind() {
        let ops = [
            Op::Get { key: 1 },
            Op::Put { key: 2, value: 20 },
            Op::Delete { key: 1 },
        ];
        let failed = OpError::ProbingExhausted { failed: 1 };
        // composed: the read ran, the put failed, the erase was never sent
        let mut svc = ModelService {
            fail_puts: true,
            ..ModelService::default()
        };
        svc.map.insert(1, 10);
        assert_eq!(svc.execute(&ops).unwrap_err(), failed);
        assert_eq!(svc.batches, vec![('g', vec![1]), ('p', vec![2])]);
        assert_eq!(svc.map.get(&1), Some(&10));

        // the same through a backend of one call: it failed, so no op is
        // answered and the erase was not applied
        let mut svc = OneCall {
            fail_puts: true,
            ..OneCall::default()
        };
        svc.map.insert(1, 10);
        assert_eq!(svc.execute(&ops).unwrap_err(), failed);
        assert_eq!(svc.calls, vec![[vec![1], vec![2], vec![1]]]);
        assert_eq!(svc.map.get(&1), Some(&10));
    }

    #[test]
    fn apply_refuses_answer_slices_of_the_wrong_length() {
        let refused = |svc: &mut dyn MapService| {
            let short = svc.apply(&[1, 2], &[], &[], &mut [None], &mut []);
            let long = svc.apply(&[], &[], &[3], &mut [], &mut [false, false]);
            [short, long]
                .iter()
                .all(|r| matches!(r, Err(OpError::Internal { .. })))
        };
        assert!(refused(&mut ModelService::default()));
        assert!(refused(&mut OneCall::default()));
        assert!(refused(&mut crate::CachedMap::new(
            OneCall::default(),
            4,
            crate::CachePolicy::Lru
        )));
    }

    /// `ops` one at a time against a plain `BTreeMap`, from `preload`.
    fn one_at_a_time(preload: &[(u32, u32)], ops: &[Op]) -> Vec<Response> {
        let mut map: std::collections::BTreeMap<u32, u32> = preload.iter().copied().collect();
        let answer = |op: &Op| match *op {
            Op::Put { key, value } => {
                map.insert(key, value);
                Response::Put
            }
            Op::Get { key } => Response::Get {
                value: map.get(&key).copied(),
            },
            Op::Delete { key } => Response::Delete {
                hit: map.remove(&key).is_some(),
            },
        };
        ops.iter().map(answer).collect()
    }

    proptest::proptest! {
        /// The differential: one `execute` over the stream answers, and
        /// leaves the map, exactly as the ops one at a time do — through a
        /// backend of either shape, neither of which recurses into the
        /// other side of the trait. At most 16 keys, so that same-key
        /// chains run deep.
        #[test]
        fn execute_equals_one_op_at_a_time(
            preload in proptest::collection::vec((0u32..16, proptest::prelude::any::<u32>()), 0..12),
            stream in proptest::collection::vec(
                (0u32..3, 0u32..16, proptest::prelude::any::<u32>()), 0..200),
        ) {
            let ops: Vec<Op> = stream
                .iter()
                .map(|&(kind, key, value)| match kind {
                    0 => Op::Put { key, value },
                    1 => Op::Get { key },
                    _ => Op::Delete { key },
                })
                .collect();
            let want = one_at_a_time(&preload, &ops);
            let mut single = ModelService::default();
            single.map.extend(preload.iter().copied());
            for op in &ops {
                single.execute(std::slice::from_ref(op)).unwrap();
            }

            let mut composed = ModelService::default();
            composed.map.extend(preload.iter().copied());
            let (got, report) = composed.execute(&ops).unwrap();
            proptest::prop_assert_eq!(&got, &want);
            proptest::prop_assert_eq!(&composed.map, &single.map);
            proptest::prop_assert_eq!(report.elements, ops.len() as u64);
            // at most one call per kind, get → put → delete, each over
            // distinct ascending keys
            let kinds: String = composed.batches.iter().map(|b| b.0).collect();
            proptest::prop_assert!(["", "g", "p", "d", "gp", "gd", "pd", "gpd"].contains(&kinds.as_str()));
            for (_, keys) in &composed.batches {
                proptest::prop_assert!(keys.windows(2).all(|w| w[0] < w[1]));
            }

            let mut one = OneCall::default();
            one.map.extend(preload.iter().copied());
            let (got, _) = one.execute(&ops).unwrap();
            proptest::prop_assert_eq!(&got, &want);
            proptest::prop_assert_eq!(&one.map, &single.map);
            proptest::prop_assert!(one.calls.len() <= 1);
            for keys in one.calls.iter().flatten() {
                proptest::prop_assert!(keys.windows(2).all(|w| w[0] < w[1]));
            }
        }

        /// The batch wrappers over `apply`, and `apply` over the batch
        /// calls, answer alike: a backend of either shape, called through
        /// the other side of the trait, does not recurse.
        #[test]
        fn either_side_of_the_trait_answers_alike(
            preload in proptest::collection::vec((0u32..16, 0u32..1000), 0..12),
            keys in proptest::collection::vec(0u32..16, 0..8),
            value in proptest::prelude::any::<u32>(),
        ) {
            let pairs: Vec<(u32, u32)> = keys.iter().map(|&k| (k, value)).collect();
            let mut composed = ModelService::default();
            let mut one = OneCall::default();
            composed.map.extend(preload.iter().copied());
            one.map.extend(preload.iter().copied());
            let got = one.get_batch(&keys).unwrap().values;
            let mut values = vec![Some(u32::MAX); keys.len()];
            composed.apply(&keys, &[], &[], &mut values, &mut []).unwrap();
            proptest::prop_assert_eq!(&got, &values);
            let mut read = vec![None; keys.len()];
            one.apply(&keys, &pairs, &[], &mut read, &mut []).unwrap();
            proptest::prop_assert_eq!(&read, &got);
            composed.apply(&[], &pairs, &[], &mut [], &mut []).unwrap();
            proptest::prop_assert_eq!(&one.map, &composed.map);
            let hits = one.delete_batch(&keys[..keys.len() / 2]).unwrap().hits;
            let mut flags = vec![false; keys.len() / 2];
            composed.apply(&[], &[], &keys[..keys.len() / 2], &mut [], &mut flags).unwrap();
            proptest::prop_assert_eq!(hits, flags);
            proptest::prop_assert_eq!(&one.map, &composed.map);
        }
    }

    /// Whether `svc`, holding keys 1 and 3, answers reads of 1 to 4 —
    /// alone, and with a put — into slots that held a value, misses
    /// included.
    fn overwrites_every_slot(svc: &mut impl MapService) -> bool {
        let reads = [1, 2, 3, 4];
        let want = [Some(10), None, Some(30), None];
        [&[][..], &[(5, 50)]].iter().all(|puts| {
            let mut values = [Some(u32::MAX); 4];
            svc.apply(&reads, puts, &[], &mut values, &mut []).unwrap();
            values == want
        })
    }

    #[test]
    fn apply_writes_every_answer_slot_and_a_double_that_skips_misses_is_caught() {
        use crate::{CachePolicy, CachedMap, Config, DistributedHashMap, GpuHashMap};
        use gpu_sim::Device;
        use std::sync::Arc;
        let gpu = |mutation| {
            let cfg = Config {
                mutation,
                ..Config::default()
            };
            let dev = Arc::new(Device::with_words(0, 1 << 14));
            let mut map = GpuHashMap::new(dev, 1024, cfg).unwrap();
            map.put_batch(&[(1, 10), (3, 30)]).unwrap();
            overwrites_every_slot(&mut map)
        };
        let node = |mutation| {
            let cfg = Config {
                mutation,
                ..Config::default()
            };
            let devices = (0..4)
                .map(|i| Arc::new(Device::with_words(i, 1 << 14)))
                .collect();
            let topo = interconnect::Topology::p100_quad(4);
            let mut node = DistributedHashMap::new(devices, 1024, cfg, topo).unwrap();
            node.put_batch(&[(1, 10), (3, 30)]).unwrap();
            overwrites_every_slot(&mut node)
        };
        let cached = |mutation| {
            let backend = ModelService {
                mutation,
                ..ModelService::default()
            };
            let mut cache = CachedMap::new(backend, 4, CachePolicy::Lru);
            cache.put_batch(&[(1, 10), (3, 30)]).unwrap();
            overwrites_every_slot(&mut cache)
        };
        let skips = Some(Mutation::ApplySkipsMisses);
        // whether a backend armed with the double answers every slot
        type Answers = fn(Option<Mutation>) -> bool;
        let backends: [(&str, Answers); 3] =
            [("GpuHashMap", gpu), ("node", node), ("CachedMap", cached)];
        for (backend, answers) in backends {
            assert!(answers(None), "{backend} left a miss's slot unwritten");
            assert!(
                !answers(skips),
                "{backend}: Mutation::ApplySkipsMisses went uncaught"
            );
        }
    }

    #[test]
    fn stage_rows_spill_to_the_heap_in_order() {
        let row = |i: usize| StageTiming {
            stage: if i.is_multiple_of(2) {
                CascadeStage::Query
            } else {
                CascadeStage::D2H
            },
            time: i as f64 * 0.25,
            bytes: i as u64,
            overhead: 1e-6,
        };
        for n in [
            0,
            1,
            crate::stats::INLINE_ROWS,
            crate::stats::INLINE_ROWS + 1,
            100,
        ] {
            let (mut rows, mut reserved) = (StageRows::default(), StageRows::with_capacity(n));
            let mut want = Vec::new();
            for i in 0..n {
                rows.push(row(i));
                reserved.push(row(i));
                want.push(row(i));
            }
            for got in [&rows, &reserved, &rows.clone()] {
                assert_eq!(got.len(), n);
                let same = got.iter().zip(&want).all(|(a, b)| {
                    (a.stage, a.time.to_bits(), a.bytes) == (b.stage, b.time.to_bits(), b.bytes)
                });
                assert!(same, "{n} rows");
            }
            rows.extend(want.iter().copied());
            assert_eq!(rows.len(), 2 * n);
            let bytes = |rows: &[StageTiming]| rows.iter().map(|r| r.bytes).sum::<u64>();
            assert_eq!(bytes(&rows[n..]), bytes(&want));
        }
    }

    #[test]
    fn lower_mixed_expands_rmw_into_get_then_put() {
        use workloads::ycsb::MixedOp;
        let mixed = vec![
            MixedOp::Read { key: 1 },
            MixedOp::ReadModifyWrite { key: 2, value: 9 },
            MixedOp::Update { key: 3, value: 4 },
        ];
        assert_eq!(
            lower_mixed(&mixed),
            vec![
                Op::Get { key: 1 },
                Op::Get { key: 2 },
                Op::Put { key: 2, value: 9 },
                Op::Put { key: 3, value: 4 },
            ]
        );
    }

    #[test]
    fn lowered_rmw_reads_the_pre_write_value() {
        use workloads::ycsb::MixedOp;
        let mut svc = ModelService::default();
        svc.map.insert(7, 70);
        let ops = lower_mixed(&[MixedOp::ReadModifyWrite { key: 7, value: 71 }]);
        let (resp, _) = svc.execute(&ops).unwrap();
        // the read half sees the old value; the modify half lands after
        assert_eq!(resp[0], Response::Get { value: Some(70) });
        assert_eq!(svc.map.get(&7), Some(&71));
    }

    #[test]
    fn execute_empty_stream_is_empty() {
        let mut svc = ModelService::default();
        let (resp, report) = svc.execute(&[]).unwrap();
        assert!(resp.is_empty());
        assert_eq!(report.elements, 0);
        assert!(svc.batches.is_empty());
    }
}
