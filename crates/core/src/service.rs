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
//! one-op-at-a-time execution would, in **one read/write call plus one
//! erase call, whatever the mix**: the call's reads and final puts go out
//! together in one [`MapService::get_put_batch`] (one `get_batch` or one
//! `put_batch` when the call has only the one kind), then the final
//! erases in one `delete_batch`, each list over distinct keys in
//! ascending key order (never hash-iteration order, so a call replays bit
//! for bit).
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
//! A key the call both reads and puts is in both lists of the
//! `get_put_batch`, whose answers are the *pre-call* values. What a
//! backend makes of that call is its own business: [`crate::GpuHashMap`]
//! runs it as **one launch** of the fused get + upsert kernel (a key in
//! both lists is one upsert group, one table visit), so a put/get call
//! pays one launch overhead instead of two; [`crate::CachedMap`] answers
//! what it can from its shadow and sends the misses and the puts on in
//! one call; [`crate::DistributedHashMap`] runs it as **one cascade
//! round** ([`crate::cascade`]: query words and pairs are segments of one
//! multisplit and one all-to-all, the owning GPU answers and inserts in
//! one fused launch, and only the put of a key that is also read waits
//! for a late launch behind it), on a node of GPUs and on the partitions
//! of one device alike.
//!
//! Erases keep a launch of their own because §IV-A's barrier is real
//! here: the SOA erase tombstones the key word and *then* resets the
//! value sentinel, so an insert reclaiming that slot in the same launch
//! could lose its value. The wd-serve equivalence suite proves response
//! identity across seeds × schedules × fault plans, and its
//! [`crate::Mutation::ForwardStaleRead`],
//! [`crate::Mutation::UpsertReturnsNew`] and
//! [`crate::Mutation::LatePutsJoinFirstLaunch`] cases prove the suite can
//! fail.
//!
//! On `Err` nothing is answered and an unspecified subset of the call's
//! final writes may have been applied (what `put_batch` already says of
//! probing exhaustion): a failed read/write call may have placed some of
//! its pairs — none if it had no puts — and a failed `delete_batch` comes
//! after every final put was applied.

use crate::config::Mutation;
use crate::host_ops::Overlap;
use crate::stats::{CascadeStage, DegradedStats, StageTiming};
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
    /// the launches its rounds made, summed over GPUs: multisplit,
    /// kernel, late insert and scatter — every launch made, those of a
    /// round a fault aborted included (a quarantine's migration is not a
    /// round and is not counted).
    pub launches: u64,
    /// Total modeled time in seconds (see **Time** above).
    pub time: f64,
    /// Portion of `time` spent in fault-retry exponential backoff
    /// (always ≤ `time`; zero on healthy runs).
    pub backoff_time: f64,
    /// Summed access-pattern counters, where the backend exposes them.
    pub counters: CounterSnapshot,
    /// Per-phase cascade breakdown, where the backend is a cascade.
    pub stages: Vec<StageTiming>,
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
            stages: Vec::new(),
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
            // room for a healthy host-sided round: H2D … D2H
            stages: Vec::with_capacity(8),
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

/// Typed result of a device-sided multi-GPU get: per-GPU result vectors
/// in the original per-GPU order.
#[derive(Debug, Clone)]
pub struct PerGpuGetResponse {
    /// `values[g][i]` answers `per_gpu_keys[g][i]`.
    pub values: Vec<Vec<Option<u32>>>,
    /// Cost report.
    pub report: OpReport,
}

/// Typed result of a device-sided multi-GPU delete: per-GPU hit vectors
/// in the original per-GPU order.
#[derive(Debug, Clone)]
pub struct PerGpuDeleteResponse {
    /// `hits[g][i]` is `true` iff `per_gpu_keys[g][i]` was tombstoned.
    pub hits: Vec<Vec<bool>>,
    /// Total keys found and tombstoned.
    pub erased: u64,
    /// Cost report.
    pub report: OpReport,
}

/// The backend abstraction the wd-serve coalescer is generic over: bulk
/// typed put/get/delete plus the occupancy and degradation signals
/// admission control needs.
///
/// Every method takes `&mut self` — a service owns its backend
/// exclusively, which *is* the §IV-A global barrier: no kernel of one
/// batch can race a kernel of another, so deletions need no further
/// synchronization. (The underlying maps still expose the finer-grained
/// `&self` insert/query APIs for toolchain embedding.)
pub trait MapService {
    /// Applies a batch of puts. Duplicate keys within one batch race
    /// (last writer wins on the kernel's event horizon) — callers that
    /// need sequential semantics send each key once, as
    /// [`MapService::execute`] does.
    ///
    /// # Errors
    /// Any [`OpError`]; probing exhaustion is an error even though the
    /// non-colliding pairs were applied.
    fn put_batch(&mut self, pairs: &[(u32, u32)]) -> Result<PutResponse, OpError>;

    /// Looks up a batch of keys, results in input order.
    ///
    /// # Errors
    /// Fault-mode failures once every failover avenue is exhausted.
    fn get_batch(&mut self, keys: &[u32]) -> Result<GetResponse, OpError>;

    /// Tombstones a batch of keys, per-key hits in input order.
    ///
    /// # Errors
    /// Fault-mode failures once every failover avenue is exhausted.
    fn delete_batch(&mut self, keys: &[u32]) -> Result<DeleteResponse, OpError>;

    /// Looks up `reads` and applies `puts` in one call: `values[i]` is
    /// what `reads[i]` held **before** the call, whether or not `puts`
    /// writes it too. Each list holds distinct keys in ascending order (a
    /// key may be in both) — how [`MapService::execute`] sends the reads
    /// and the final puts of a call that has both.
    ///
    /// The provided body is a `get_batch` followed by a `put_batch`,
    /// reports merged in that order. A backend that can do better
    /// overrides it: [`crate::GpuHashMap`] makes one fused launch,
    /// [`crate::DistributedHashMap`] one cascade round.
    ///
    /// # Errors
    /// As [`MapService::get_batch`] and [`MapService::put_batch`]; some
    /// of the pairs may have been applied.
    fn get_put_batch(
        &mut self,
        reads: &[u32],
        puts: &[(u32, u32)],
    ) -> Result<GetResponse, OpError> {
        get_then_put(self, reads, puts)
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
    /// submission order plus the merged cost report, whose `elements`
    /// is `ops.len()` — a forwarded op is an answered op.
    ///
    /// Response-identical to executing the ops one at a time, in at most
    /// one read/write call — a [`MapService::get_put_batch`] when the
    /// call has both reads and puts, else one `get_batch` or one
    /// `put_batch` — followed by at most one `delete_batch`, distinct
    /// ascending keys in each list: same-key dependencies are resolved on
    /// the host, see the module docs.
    ///
    /// # Errors
    /// The first failing batch's [`OpError`]. No op is answered, and an
    /// unspecified subset of the call's final writes may have been
    /// applied: some of the puts (none, if the call has no put) if the
    /// read/write call failed, every put and some of the erases if the
    /// delete batch failed. [`OpError::ReservedKey`], with nothing
    /// applied, if an op names the key `u32::MAX`. [`OpError::Internal`]
    /// if the call carries more than `u32::MAX` ops or a backend answers
    /// a batch with the wrong number of results.
    fn execute(&mut self, ops: &[Op]) -> Result<(Vec<Response>, OpReport), OpError> {
        if u32::try_from(ops.len()).is_err() {
            return Err(OpError::Internal {
                detail: "execute: one call carries at most u32::MAX ops",
            });
        }
        // `key << 32 | index`, sorted: each key's ops, contiguous and in
        // submission order, keys ascending. A call of a serving flush's
        // size sorts them on the stack, a larger one on the heap
        let (mut inline, mut heap) = ([0; INLINE_SORT], Vec::new());
        let by_key: &mut [u64] = if ops.len() <= INLINE_SORT {
            &mut inline[..ops.len()]
        } else {
            heap.resize(ops.len(), 0);
            &mut heap
        };
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

        // sized by a counting pass: a list that stays empty allocates
        // nothing, and none of them grows
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
        let mut reads = Vec::with_capacity(n_reads);
        let mut puts = Vec::with_capacity(n_puts);
        let mut erases = Vec::with_capacity(n_erases);
        for group in by_key.chunk_by(same_key) {
            let (read, last_write) = plan(group);
            if read {
                reads.push((group[0] >> 32) as u32);
            }
            match last_write {
                Some(Op::Put { key, value }) => puts.push((key, value)),
                Some(Op::Delete { key }) => erases.push(key),
                _ => {}
            }
        }

        let answered = |asked: usize, got: usize| {
            if asked == got {
                Ok(())
            } else {
                Err(OpError::Internal {
                    detail: "execute: a backend answered a batch with the wrong number of results",
                })
            }
        };
        let mut report = OpReport::default();
        let mut values = Vec::new();
        if !reads.is_empty() {
            let r = if puts.is_empty() {
                self.get_batch(&reads)?
            } else {
                self.get_put_batch(&reads, &puts)?
            };
            answered(reads.len(), r.values.len())?;
            (values, report) = (r.values, r.report);
        } else if !puts.is_empty() {
            report = self.put_batch(&puts)?.report;
        }
        let mut hits = Vec::new();
        if !erases.is_empty() {
            let r = self.delete_batch(&erases)?;
            answered(erases.len(), r.hits.len())?;
            report.merge(&r.report);
            hits = r.hits;
        }
        report.elements = ops.len() as u64;

        // answer each key's ops in submission order, carrying its state
        let stale_reads = self.mutation() == Some(Mutation::ForwardStaleRead);
        let mut responses = vec![Response::Put; ops.len()];
        let (mut values, mut hits) = (values.into_iter(), hits.into_iter());
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

/// The provided body of [`MapService::get_put_batch`], also what an
/// overriding backend falls back to: the reads, then the puts.
pub(crate) fn get_then_put<S: MapService + ?Sized>(
    service: &mut S,
    reads: &[u32],
    puts: &[(u32, u32)],
) -> Result<GetResponse, OpError> {
    let mut got = service.get_batch(reads)?;
    got.report.merge(&service.put_batch(puts)?.report);
    Ok(got)
}

/// Whether two `key << 32 | index` entries address the same key.
/// Most ops whose sort keys [`MapService::execute`] keeps on the stack:
/// 512 bytes, past any flush of a server under light load.
const INLINE_SORT: usize = 64;

fn same_key(a: &u64, b: &u64) -> bool {
    a >> 32 == b >> 32
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

/// The one in-memory reference [`MapService`] of the crate's unit tests:
/// a `BTreeMap` behind the trait, with probes for what reached it.
#[cfg(test)]
pub(crate) mod model {
    use super::*;

    /// Reference backend; every field is a test probe.
    #[derive(Default)]
    pub(crate) struct ModelService {
        pub(crate) map: std::collections::BTreeMap<u32, u32>,
        /// Kind (`'p'`/`'g'`/`'d'`) and keys of every batch call, in order.
        pub(crate) batches: Vec<(char, Vec<u32>)>,
        /// Keys looked up so far.
        pub(crate) gets: usize,
        /// Makes every put batch fail with `ProbingExhausted`.
        pub(crate) fail_puts: bool,
        /// Overrides `get_put_batch` with one call of its own, recorded
        /// as `'m'` with the read keys followed by the put keys; unset,
        /// the provided body runs (a `'g'` and a `'p'`).
        pub(crate) fused: bool,
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

        fn get_put_batch(
            &mut self,
            reads: &[u32],
            puts: &[(u32, u32)],
        ) -> Result<GetResponse, OpError> {
            if !self.fused {
                return get_then_put(self, reads, puts);
            }
            let keys = reads.iter().copied().chain(puts.iter().map(|p| p.0));
            self.batches.push(('m', keys.collect()));
            self.gets += reads.len();
            if self.fail_puts {
                return Err(OpError::ProbingExhausted {
                    failed: puts.len() as u64,
                });
            }
            let values = reads.iter().map(|k| self.map.get(k).copied()).collect();
            self.map.extend(puts.iter().copied());
            Ok(GetResponse {
                values,
                report: report(reads.len() + puts.len()),
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
}

#[cfg(test)]
mod tests {
    use super::model::ModelService;
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
            stages: vec![],
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
            stages: vec![],
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

    #[test]
    fn execute_makes_at_most_three_batch_calls_get_put_delete() {
        let mut svc = ModelService::default();
        svc.map.extend([(1, 10), (3, 30), (5, 50)]);
        let ops = mixed_stream();
        let (resp, report) = svc.execute(&ops).unwrap();
        // one call per kind, in get → put → delete order, distinct
        // ascending keys in each: only what the call cannot know itself
        assert_eq!(
            svc.batches,
            vec![
                ('g', vec![1, 3, 4]),
                ('p', vec![1, 2, 3]),
                ('d', vec![5, 6]),
            ]
        );
        assert_eq!(
            resp,
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
        );
        // forwarded ops are answered ops
        assert_eq!(report.elements, ops.len() as u64);
        let want = [(1, 11), (2, 22), (3, 31)].into_iter().collect();
        assert_eq!(svc.map, want);
    }

    #[test]
    fn execute_sends_reads_and_puts_together_to_a_backend_that_fuses() {
        let mut plain = ModelService::default();
        let mut svc = ModelService {
            fused: true,
            ..ModelService::default()
        };
        for m in [&mut plain, &mut svc] {
            m.map.extend([(1, 10), (3, 30), (5, 50)]);
        }
        let ops = mixed_stream();
        let (resp, report) = svc.execute(&ops).unwrap();
        // one read/write call — reads 1, 3, 4, then puts 1, 2, 3: distinct
        // ascending keys in each list, keys 1 (get → put) and 3 (delete →
        // put) in both — and the erases in a call of their own
        assert_eq!(
            svc.batches,
            vec![('m', vec![1, 3, 4, 1, 2, 3]), ('d', vec![5, 6])]
        );
        assert_eq!(svc.gets, 3);
        let (want, _) = plain.execute(&ops).unwrap();
        assert_eq!(resp, want);
        assert_eq!(svc.map, plain.map);
        assert_eq!(report.elements, ops.len() as u64);
    }

    #[test]
    fn execute_with_one_kind_of_read_write_work_stays_on_the_single_kind_calls() {
        let mut svc = ModelService {
            fused: true,
            ..ModelService::default()
        };
        svc.execute(&[Op::Get { key: 1 }, Op::Delete { key: 2 }])
            .unwrap();
        svc.execute(&[Op::Put { key: 1, value: 1 }, Op::Delete { key: 2 }])
            .unwrap();
        let kinds: String = svc.batches.iter().map(|b| b.0).collect();
        assert_eq!(kinds, "gdpd");
    }

    #[test]
    fn execute_sends_only_a_keys_last_write() {
        let mut svc = ModelService::default();
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
        assert_eq!(svc.batches, vec![('p', vec![7, 8])]);
        assert_eq!(svc.gets, 0);
        assert_eq!(resp[2], Response::Delete { hit: true });
        assert_eq!(resp[4], Response::Get { value: Some(3) });
        assert_eq!(svc.map.get(&7), Some(&3));
        assert_eq!(report.elements, 5);
    }

    #[test]
    fn execute_reads_a_key_once_and_forwards_after_a_write() {
        let mut svc = ModelService::default();
        svc.map.insert(5, 50);
        let ops = vec![
            Op::Get { key: 5 },
            Op::Get { key: 5 },
            Op::Put { key: 5, value: 51 },
            Op::Get { key: 5 },
        ];
        let (resp, report) = svc.execute(&ops).unwrap();
        assert_eq!(svc.batches, vec![('g', vec![5]), ('p', vec![5])]);
        assert_eq!(
            svc.gets, 1,
            "duplicate and forwarded gets stay off the backend"
        );
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
        let mut svc = ModelService::default();
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
        assert_eq!(
            svc.batches,
            vec![('g', vec![4, 9]), ('p', vec![4, 9]), ('d', vec![3])]
        );
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
        let mut svc = ModelService {
            fail_puts: true,
            ..ModelService::default()
        };
        svc.map.insert(1, 10);
        let ops = [
            Op::Get { key: 1 },
            Op::Put { key: 2, value: 20 },
            Op::Delete { key: 1 },
        ];
        assert_eq!(
            svc.execute(&ops).unwrap_err(),
            OpError::ProbingExhausted { failed: 1 }
        );
        // the read ran, the put failed, the erase was never sent
        assert_eq!(svc.batches, vec![('g', vec![1]), ('p', vec![2])]);
        assert_eq!(svc.map.get(&1), Some(&10));

        // the same through a backend that fuses: its one read/write call
        // failed, so no op is answered and the erase was never sent
        let mut svc = ModelService {
            fail_puts: true,
            fused: true,
            ..ModelService::default()
        };
        svc.map.insert(1, 10);
        assert_eq!(
            svc.execute(&ops).unwrap_err(),
            OpError::ProbingExhausted { failed: 1 }
        );
        assert_eq!(svc.batches, vec![('m', vec![1, 2])]);
        assert_eq!(svc.map.get(&1), Some(&10));
    }

    proptest::proptest! {
        /// The differential: one `execute` over the stream answers, and
        /// leaves the map, exactly as one `execute` per op does. At most
        /// 16 keys, so that same-key chains run deep.
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
            let mut batched = ModelService::default();
            batched.map.extend(preload.iter().copied());
            let mut single = ModelService::default();
            single.map.extend(preload.iter().copied());
            let mut fused = ModelService { fused: true, ..ModelService::default() };
            fused.map.extend(preload.iter().copied());

            let (got, report) = batched.execute(&ops).unwrap();
            let want: Vec<Response> = ops
                .iter()
                .map(|op| single.execute(std::slice::from_ref(op)).unwrap().0[0])
                .collect();
            proptest::prop_assert_eq!(got, want);
            proptest::prop_assert_eq!(&batched.map, &single.map);
            proptest::prop_assert_eq!(report.elements, ops.len() as u64);

            // at most one call per kind, get → put → delete, each over
            // distinct ascending keys
            let kinds: String = batched.batches.iter().map(|b| b.0).collect();
            proptest::prop_assert!(["", "g", "p", "d", "gp", "gd", "pd", "gpd"].contains(&kinds.as_str()));
            for (_, keys) in &batched.batches {
                proptest::prop_assert!(keys.windows(2).all(|w| w[0] < w[1]));
            }

            // a backend that fuses gets the reads and the puts in one
            // call whenever the call has both, and answers the same
            let (got, _) = fused.execute(&ops).unwrap();
            proptest::prop_assert_eq!(got, want);
            proptest::prop_assert_eq!(&fused.map, &single.map);
            let kinds: String = fused.batches.iter().map(|b| b.0).collect();
            proptest::prop_assert!(["", "g", "p", "d", "m", "gd", "pd", "md"].contains(&kinds.as_str()));
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
