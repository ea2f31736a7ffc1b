//! Graceful degradation for the multi-GPU cascades under fault injection.
//!
//! The chaos layer (DESIGN.md §6.3) threads a deterministic
//! [`gpu_sim::FaultPlan`] through the distributed cascades: transient
//! kernel-launch failures and dropped transfers are retried with the
//! exponential backoff of [`gpu_sim::RETRY`]; a GPU that exhausts
//! its retry budget is **quarantined** — its partition is re-split across
//! the survivors via the same multisplit path healthy cascades use, and
//! every subsequent operation routes around it through a [`Router`].
//!
//! All fault decisions are stateless functions of
//! `(seed, site, coordinates, attempt)`, so any failure replays
//! bit-for-bit from the `WD_FAULT` / `WD_FAULT_SEED` pair printed with
//! it (composable with the `WD_SCHED_*` scheduler hints — see
//! [`gpu_sim::FaultPlan::replay_hint_with`]).

use gpu_sim::{FaultPlan, RETRY};
use hashes::PartitionFn;
use interconnect::{FailedTransfer, FaultedTransfer};

/// Launch-site tags distinguishing the fault rolls of the cascades'
/// kernel families (transfer sites live in [`gpu_sim::fault::site`]).
pub mod launch_site {
    /// Per-GPU multisplit passes.
    pub const MULTISPLIT: u64 = 0x00c0_de01;
    /// Hash-table insert kernels.
    pub const INSERT: u64 = 0x00c0_de02;
    /// Hash-table query kernels.
    pub const QUERY: u64 = 0x00c0_de03;
    /// Erase (tombstoning) kernels.
    pub const ERASE: u64 = 0x00c0_de04;
    /// Fused get + put kernels of the mixed cascade round.
    pub const GET_PUT: u64 = 0x00c0_de06;
}

/// Fault-aware key router: primary partition function plus a
/// deterministic re-split of quarantined partitions across the
/// survivors.
///
/// Healthy keys (primary GPU live) route exactly as the plain partition
/// function does — with an empty quarantine mask the router *is* the
/// partition function, so the fault-off path is unchanged. A key whose
/// primary GPU is quarantined is re-split by an independent fallback
/// hash over the live GPUs, so a lost partition spreads evenly instead
/// of dogpiling one survivor.
#[derive(Debug, Clone)]
pub struct Router {
    primary: PartitionFn,
    fallback: PartitionFn,
    mask: u32,
}

impl Router {
    /// Builds a router over `primary`'s `m` partitions with the given
    /// quarantine `mask` (bit `g` set ⇒ GPU `g` is quarantined).
    ///
    /// # Panics
    /// Panics if the mask quarantines every GPU.
    #[must_use]
    pub fn new(primary: PartitionFn, fallback: PartitionFn, mask: u32) -> Self {
        let router = Self {
            primary,
            fallback,
            mask,
        };
        assert!(router.num_live() > 0, "router needs at least one live GPU");
        router
    }

    /// The GPU that owns key `k` under the current quarantine mask.
    #[must_use]
    pub fn route(&self, k: u32) -> u32 {
        let p = self.primary.part(k);
        if self.mask & (1 << p) == 0 {
            p
        } else {
            // the survivors in a ring (`new` saw one, so it never ends)
            let nth = self.fallback.part(k) as usize;
            self.live().cycle().nth(nth).unwrap_or(p)
        }
    }

    /// Number of live GPUs.
    #[must_use]
    pub fn num_live(&self) -> usize {
        self.live().count()
    }

    /// Live GPU indices in ascending order.
    pub fn live(&self) -> impl Iterator<Item = u32> + Clone + '_ {
        (0..self.primary.m).filter(move |&g| self.mask & (1 << g) == 0)
    }

    /// This router with GPU `j` additionally masked, or `None` if that
    /// would leave no live GPU. Used by the premature-failover mutation
    /// double to compute where a batch *would* land after a failover.
    #[must_use]
    pub fn also_masking(&self, j: usize) -> Option<Router> {
        let mask = self.mask | (1 << j);
        if (0..self.primary.m).all(|g| mask & (1 << g) != 0) {
            return None;
        }
        Some(Router::new(self.primary, self.fallback, mask))
    }
}

/// Mutable chaos state of a distributed map, behind one lock: the armed
/// plan, the quarantine mask and the degraded-mode counters.
#[derive(Debug)]
pub(crate) struct ChaosState {
    /// The active fault plan (initially `Config::fault`, overridable at
    /// runtime via `DistributedHashMap::set_fault_plan`).
    pub plan: FaultPlan,
    /// Bit `g` set ⇒ GPU `g` is quarantined.
    pub mask: u32,
    /// Degraded-mode counters.
    pub stats: crate::stats::DegradedStats,
}

impl ChaosState {
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            mask: 0,
            stats: crate::stats::DegradedStats::default(),
        }
    }
}

/// Fault accounting of one step (a cascade round, a PCIe phase): what
/// its retries cost, booked into [`crate::DegradedStats`] and billed as
/// backoff when the step ends.
#[derive(Debug, Default)]
pub(crate) struct ChaosTally {
    pub launch_retries: u64,
    pub transfer_retries: u64,
    pub backoff: f64,
}

impl ChaosTally {
    /// The crate's one retry gate: rolls the transient launch-failure
    /// dice for one kernel site, billing exponential backoff between
    /// retried failures. `Err(device)` once the retry budget is exhausted.
    pub fn gate_launch(&mut self, plan: &FaultPlan, device: usize, site: u64) -> Result<(), usize> {
        let mut attempt = 0u32;
        let mut spent = 0.0f64;
        while plan.launch_fails(device, site, attempt) {
            attempt += 1;
            if !RETRY.may_retry(attempt) {
                self.backoff += spent;
                return Err(device);
            }
            spent += RETRY.backoff_before(attempt);
            self.launch_retries += 1;
        }
        self.backoff += spent;
        Ok(())
    }

    /// Books a fault-aware transfer phase's retries and backoff — those
    /// of a failed phase too: that work happened even though the phase
    /// then failed. A failed phase condemns a device, returned as `Err`:
    /// the source of the edge that gave up if the plan has killed it,
    /// otherwise the destination (a host-link failure has `src == dst`,
    /// so the distinction only matters for NVLink edges).
    pub fn settle(
        &mut self,
        plan: &FaultPlan,
        phase: Result<FaultedTransfer, FailedTransfer>,
    ) -> Result<FaultedTransfer, usize> {
        let (retries, backoff) = match &phase {
            Ok(t) => (t.retries, t.backoff),
            Err(f) => (f.retries, f.backoff),
        };
        self.transfer_retries += u64::from(retries);
        self.backoff += backoff;
        phase.map_err(|FailedTransfer { error: e, .. }| {
            if plan.device_lost(e.src) {
                e.src
            } else {
                e.dst
            }
        })
    }
}

/// Applies `plan`'s per-device straggler model to a kernel time at the
/// orchestration layer: a straggling device's kernels run `factor`×
/// slower plus a fixed stall. Exactly `t` for non-straggling devices —
/// no float op touches the healthy path, preserving bit-identity.
pub(crate) fn straggled(plan: &FaultPlan, device: usize, t: f64) -> f64 {
    let f = plan.straggle_factor(device);
    let s = plan.launch_stall(device);
    if f > 1.0 || s > 0.0 {
        t * f + s
    } else {
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn router(mask: u32) -> Router {
        Router::new(PartitionFn::new(4, 1), PartitionFn::new(4, 2), mask)
    }

    #[test]
    fn empty_mask_is_the_primary_partition() {
        let r = router(0);
        let p = PartitionFn::new(4, 1);
        for k in 0..10_000u32 {
            assert_eq!(r.route(k), p.part(k));
        }
        assert_eq!(r.num_live(), 4);
    }

    #[test]
    fn quarantined_partition_respreads_over_survivors() {
        let r = router(0b0100); // GPU 2 quarantined
        let p = PartitionFn::new(4, 1);
        let mut fallback_counts = [0u32; 4];
        for k in 0..40_000u32 {
            let t = r.route(k);
            assert_ne!(t, 2, "key {k} routed to a quarantined GPU");
            if p.part(k) == 2 {
                fallback_counts[t as usize] += 1;
            } else {
                assert_eq!(t, p.part(k), "live key {k} re-routed");
            }
        }
        // the lost partition spreads over all three survivors, roughly
        // evenly (each ≥ half its fair share)
        let spread: u32 = fallback_counts.iter().sum();
        for g in r.live() {
            assert!(
                fallback_counts[g as usize] > spread / 6,
                "survivor {g} got {fallback_counts:?}"
            );
        }
    }

    #[test]
    fn routing_is_deterministic() {
        let a = router(0b0001);
        let b = router(0b0001);
        for k in 0..1000u32 {
            assert_eq!(a.route(k), b.route(k));
        }
    }

    #[test]
    fn also_masking_runs_out_of_gpus() {
        let r = router(0b0111);
        assert_eq!(r.num_live(), 1);
        assert!(r.also_masking(3).is_none());
        let r = router(0b0011);
        let r2 = r.also_masking(2).unwrap();
        assert!(r2.live().eq([3]));
    }

    #[test]
    #[should_panic(expected = "at least one live GPU")]
    fn full_mask_rejected() {
        let _ = router(0b1111);
    }

    #[test]
    fn straggled_is_identity_when_disarmed() {
        let plan = FaultPlan::default();
        let t = 1.234e-3;
        assert_eq!(straggled(&plan, 0, t).to_bits(), t.to_bits());
        let plan = FaultPlan::default().with_straggler(1, 3.0, 1e-4);
        assert_eq!(straggled(&plan, 0, t).to_bits(), t.to_bits());
        assert!((straggled(&plan, 1, t) - (3.0 * t + 1e-4)).abs() < 1e-15);
    }
}
