//! Hash-map configuration.

use gpu_sim::{FaultPlan, GroupSize, Schedule};
use serde::{Deserialize, Serialize};

/// Table memory layout (paper Fig. 1; ablation A1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Layout {
    /// Array-of-structs: one packed 64-bit word per slot. Fully atomic,
    /// cache-friendly — the paper's default.
    Aos,
    /// Struct-of-arrays: separate key and value words. CAS guards only
    /// the key word; the value word is written relaxed *after* the claim,
    /// so concurrent updaters of the same key may exhibit the priority
    /// inversion discussed in §II. Twice the footprint in this 4+4-byte
    /// instantiation (it pays off only for keys wider than 32 bits).
    Soa,
}

/// Probing-scheme selection (§II; ablation A2).
///
/// All schemes probe `|g|`-slot windows with intra-window linear probing
/// (the coalesced access is what the paper's contribution is about); they
/// differ in how the *window base* advances with the outer attempt `p`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProbingScheme {
    /// The paper's hybrid: chaotic (double-hashed) jumps between
    /// warp-sized spans, linear within (Fig. 3: `h ← hash(d, p)`).
    Hybrid,
    /// Pure linear probing: consecutive warp-sized spans
    /// (`s(k, l) = h(k) + l`, Eq. 1 — prone to primary clustering).
    Linear,
    /// Quadratic probing: spans advance by `p²` (Eq. 2).
    Quadratic,
}

/// A deliberately broken variant of one code path — a *mutation double*
/// — that a test arms through [`Config::with_mutation`] to prove the
/// suite built to catch that class of bug can fail. At most one is armed
/// per map. Never arm one outside tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Mutation {
    /// Insertion skips the Fig. 3 window-reload/re-ballot after a failed
    /// claim CAS and retries the next vacant slot of the *stale* window
    /// instead, which can store one key in two slots. The linearizability
    /// harness exists to catch exactly this.
    CasRecheck,
    /// The SOA insert path publishes the value word with a *plain store*
    /// instead of the sentinel-CAS of the publication protocol, losing
    /// the release/acquire edge that orders it against concurrent
    /// updaters. The end state often still looks right; `wd-sanitizer`'s
    /// racecheck exists to catch exactly this.
    PublishPlainStore,
    /// Table construction skips the EMPTY-sentinel fill, leaving every
    /// slot word undefined — the classic forgotten-`cudaMemset` bug
    /// initcheck exists to catch.
    SkipFill,
    /// The retrieve kernel reads its input query one group past its own,
    /// running the last group off the end of the input buffer — the
    /// off-by-one memcheck exists to catch.
    WindowOverrun,
    /// The insert path re-ballots after a failed claim CAS with the
    /// failing lane masked out of the participation mask — lockstep
    /// divergence synccheck exists to catch.
    DivergentBallot,
    /// A transiently failed insert launch is *also* applied to its
    /// failover targets while the primary GPU is still being retried —
    /// premature failover without the idempotence guard, leaving the same
    /// key live on two GPUs. The chaos suite's multiset-conservation and
    /// linearizability checks exist to catch exactly this.
    DoubleApplyOnRetry,
    /// Quarantining a GPU skips the re-split of its partition across the
    /// survivors, silently dropping the quarantined partition's keys. The
    /// chaos suite's degraded-mode round-trip exists to catch exactly
    /// this.
    ForgetQuarantinedPartition,
    /// The incremental resize's migration scan skips the live-entry check
    /// and replays the table contents *snapshotted at migration start*,
    /// so a key deleted after the resize began is migrated back to life
    /// in the new table — the classic stale-scan bug of online migration.
    /// The resize sweeps' conservation and linearizability checks exist
    /// to catch exactly this.
    MigrateSkipsTombstoneCheck,
    /// A read issued during migration ignores old-table hits for keys
    /// whose home window lies inside the chunk currently being moved —
    /// the read races the in-flight chunk and reports `NotFound` for a
    /// live key. The resize sweeps' full-retrieval and linearizability
    /// checks exist to catch exactly this.
    ReadMissesMigratingWindow,
    /// [`crate::MapService::execute`] skips its store-to-load forwarding:
    /// a get that follows a write of the same key in the call is answered
    /// from the pre-call read instead of the written value — the classic
    /// stale read of a batcher that reorders reads before writes. The
    /// wd-serve equivalence suite (coalesced ≡ one op at a time) exists
    /// to catch exactly this.
    ForwardStaleRead,
    /// An upsert group (a key [`crate::MapService::apply`] both reads and
    /// puts) answers with the value it *wrote* instead of the one it
    /// replaced — the classic fetch-and-store that returns the wrong side
    /// of the exchange, so a get followed by a put of its key in one call
    /// reads the put. The wd-serve equivalence suite exists to catch
    /// exactly this.
    UpsertReturnsNew,
    /// A key [`crate::MapService::apply`] both reads and puts runs as a
    /// get group and a put group of the one launch, not one upsert group,
    /// so its get races its own put and may read the value the call wrote.
    /// In `group_id` order the gets run first and nothing shows; the
    /// wd-serve equivalence suite under a seeded schedule exists to catch
    /// exactly this.
    UpsertRunsAsGetAndPut,
    /// The cascade's multisplit tags a key, or an upsert's position, with
    /// its offset inside the group's run of 256, not its position in the
    /// GPU's chunk — a tiled kernel's local-for-global index — so from a
    /// GPU's 257th key on an answer lands in another's place. Flushes
    /// larger than that and the node's mixed-round test exist to catch
    /// exactly this.
    SplitTagsRunOffset,
    /// A run of the cascade's multisplit reads its predecessor's
    /// inclusive prefix without waiting for the flag that publishes it —
    /// the look-back a single-thread test run never catches out, since in
    /// `group_id` order the predecessor always ran first. Under a reverse
    /// or seeded schedule a run reads an aggregate or nothing, the classes
    /// stop adding up, and the split's class-conservation check exists to
    /// catch exactly this.
    LookBackReadsUnpublished,
    /// The return trip's merge warps write an answer's value into the
    /// other half of its word — the neighbouring position's — so a key
    /// reads its neighbour's value. Host-sided gets over chunks of odd
    /// length through the retrieve and the mixed round exist to catch
    /// exactly this.
    AnswerHalvesSwapped,
    /// An SOA erase restores the value word's sentinel *after* its CAS
    /// made the tombstone visible, so a put of another key that reclaims
    /// the slot in the same launch fails to publish and the restore wipes
    /// its value. The one kernel's mixed-section test under a seeded
    /// schedule exists to catch exactly this.
    SentinelAfterTombstone,
    /// The host bracket starts a chunk of a large call at the chunk's index
    /// times its own length instead of at the sum of the chunks before it —
    /// right for a cut of equal chunks, wrong for the planner's unequal
    /// ones, so a get's answers and an erase's hits land in other keys'
    /// places. `host_ops`'s chunked-call test on a planned cut exists to
    /// catch exactly this.
    ChunkOffsetByIndex,
    /// [`crate::MapService::apply`] writes a read's answer only on a hit,
    /// leaving a miss's slot as the caller handed it over — the classic
    /// output buffer that is assumed to arrive cleared. `service`'s answer
    /// test, with every slot pre-filled with a value, exists to catch
    /// exactly this on each of the three backends.
    ApplySkipsMisses,
    /// A key [`crate::MapService::apply`] both reads and erases is
    /// tombstoned before it is read — its take group erases first, on one
    /// GPU and on a node's target alike — so the read answers a miss where
    /// the key held a value. The service and wd-serve equivalence suites
    /// exist to catch exactly this.
    TakeTombstonesFirst,
    /// The return trip's merge warps set an erase's hit in the
    /// neighbouring position's found bit, so an erased key reports a miss
    /// and its neighbour a hit. The cascade's mixed-round test on the
    /// Fig. 6 node exists to catch exactly this.
    EraseHitInWrongBit,
    /// A merge warp of the cascade's node launch reads the answers that
    /// landed on its GPU before it polls the flags that say they have —
    /// in `group_id` order every target's store came first, so a
    /// single-thread run never shows it. Racecheck under the node launch
    /// and an adversarial schedule exist to catch exactly this.
    ScatterReadsBeforeFlag,
    /// A target of the cascade's node launch stores the answers it owes
    /// origin `i` into the landing of origin `(i + 1) % m`, so keys read
    /// another GPU's answers, or stale words. The cascade golden and the
    /// node's linearizability suite exist to catch exactly this.
    AnswerSliceToWrongOrigin,
    /// A merge warp of the cascade's node launch reads an element's
    /// position at its offset in the first target's run of answers rather
    /// than in its own — a run's local index for the origin's — so the
    /// answers of every later target's run land in other keys' places. The cascade
    /// golden's answer digests and the node's mixed-round test exist to
    /// catch exactly this.
    ScatterReadsPositionOfWrongRun,
    /// A merge warp of the cascade's node launch reads a target's piece of
    /// its run from where the next target's piece starts — an off-by-one
    /// in the split's per-class offsets — so its positions and values are
    /// another target's, and answers land in other keys' places or go
    /// missing. The cascade's merge differential exists to catch exactly
    /// this.
    MergeReadsPieceOfNextClass,
}

/// Configuration of a [`crate::GpuHashMap`].
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Config {
    /// Coalesced-group size `|g|` (the central tuning knob of Figs. 7–8).
    pub group_size: GroupSize,
    /// Probing scheme.
    pub probing: ProbingScheme,
    /// Memory layout.
    pub layout: Layout,
    /// Maximum outer probing attempts before raising an insertion error
    /// (`p_max` of Fig. 3).
    pub p_max: u32,
    /// Seed selecting the hash-family member; bumped on rebuild after an
    /// insertion failure ("reconstruction with a distinct hash function",
    /// §II).
    pub seed: u32,
    /// Capacity in bytes **at modeled scale** for the timing model's >2 GB
    /// CAS artifact; `None` bills the actual table footprint. Harnesses
    /// running functionally scaled-down experiments set this to the
    /// paper-scale footprint.
    pub modeled_capacity_bytes: Option<u64>,
    /// How this map's kernel launches interleave their groups: the racing
    /// Rayon pool (default) or a deterministic stepwise schedule for
    /// concurrency testing and replay. `Config::default()` honors the
    /// `WD_SCHED_MODE` / `WD_SCHED_SEED` environment variables (see
    /// [`gpu_sim::Schedule::from_env`]), so any test can be replayed
    /// under a recorded schedule without code changes.
    pub schedule: Schedule,
    /// Per-op stepwise dispatch (`true`) instead of chunked lane dispatch
    /// (`false`, the default) for this map's kernel launches. Only
    /// meaningful under a stepwise [`Schedule`]; pool mode ignores it.
    /// The two paths produce bit-identical modeled counters and schedule
    /// decisions — the per-op path is the reference for differential
    /// testing and for replaying per-op traces.
    pub per_op_dispatch: bool,
    /// Deterministic fault-injection plan for the multi-GPU cascades:
    /// link degradation, transfer drops, transient launch failures,
    /// stragglers and killed devices. It is the one way to arm a plan:
    /// `Config::default()` honors the `WD_FAULT` / `WD_FAULT_SEED`
    /// environment variables (see [`gpu_sim::FaultPlan::from_env`]), so
    /// any suite can run under chaos without code changes, and nothing
    /// else reads them; the default plan is disarmed and the fault-off
    /// path bills byte-identical counters to pre-chaos behaviour.
    /// Override per map with [`crate::DistributedHashMap::set_fault_plan`].
    /// A [`crate::GpuHashMap`] ignores it: a single GPU has no transfer
    /// to drop and no peer to fail over to.
    pub fault: FaultPlan,
    /// **Test-only.** The [`Mutation`] double armed on this map, if any.
    pub mutation: Option<Mutation>,
}

impl Default for Config {
    /// The paper's "reasonably fast but not optimal" reference setting:
    /// `|g| = 4`, hybrid probing, AOS (§V-C).
    fn default() -> Self {
        Self {
            group_size: GroupSize::new(4),
            probing: ProbingScheme::Hybrid,
            layout: Layout::Aos,
            p_max: 10_000,
            seed: 0,
            modeled_capacity_bytes: None,
            schedule: Schedule::from_env(),
            per_op_dispatch: false,
            fault: FaultPlan::from_env(),
            mutation: None,
        }
    }
}

impl Config {
    /// Sets the group size.
    #[must_use]
    pub fn with_group_size(mut self, g: u32) -> Self {
        self.group_size = GroupSize::new(g);
        self
    }

    /// Sets the probing scheme.
    #[must_use]
    pub fn with_probing(mut self, p: ProbingScheme) -> Self {
        self.probing = p;
        self
    }

    /// Sets the layout.
    #[must_use]
    pub fn with_layout(mut self, l: Layout) -> Self {
        self.layout = l;
        self
    }

    /// Sets the hash seed.
    #[must_use]
    pub fn with_seed(mut self, s: u32) -> Self {
        self.seed = s;
        self
    }

    /// Sets the modeled capacity (for scaled experiments).
    #[must_use]
    pub fn with_modeled_capacity(mut self, bytes: u64) -> Self {
        self.modeled_capacity_bytes = Some(bytes);
        self
    }

    /// Sets the group schedule for this map's kernel launches.
    #[must_use]
    pub fn with_schedule(mut self, s: Schedule) -> Self {
        self.schedule = s;
        self
    }

    /// Selects per-op (`true`) or chunked (`false`) stepwise dispatch for
    /// this map's kernel launches (see [`Config::per_op_dispatch`]).
    #[must_use]
    pub fn with_per_op_dispatch(mut self, per_op: bool) -> Self {
        self.per_op_dispatch = per_op;
        self
    }

    /// Sets the fault-injection plan (see [`Config::fault`]).
    #[must_use]
    pub fn with_fault(mut self, plan: FaultPlan) -> Self {
        self.fault = plan;
        self
    }

    /// Arms one mutation double (test-only; see [`Mutation`]).
    #[must_use]
    pub fn with_mutation(mut self, m: Mutation) -> Self {
        self.mutation = Some(m);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_reference_setting() {
        let c = Config::default();
        assert_eq!(c.group_size.get(), 4);
        assert_eq!(c.probing, ProbingScheme::Hybrid);
        assert_eq!(c.layout, Layout::Aos);
    }

    #[test]
    fn builder_chain() {
        let c = Config::default()
            .with_group_size(8)
            .with_probing(ProbingScheme::Linear)
            .with_layout(Layout::Soa)
            .with_seed(99)
            .with_modeled_capacity(1 << 33);
        assert_eq!(c.group_size.get(), 8);
        assert_eq!(c.probing, ProbingScheme::Linear);
        assert_eq!(c.layout, Layout::Soa);
        assert_eq!(c.seed, 99);
        assert_eq!(c.modeled_capacity_bytes, Some(1 << 33));
    }
}
