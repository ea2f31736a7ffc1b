//! Deterministic fault injection — the `wd-chaos` plan layer.
//!
//! Real multi-GPU nodes fail in undramatic ways: a link trains down to a
//! lower rate, a transfer times out once and succeeds on retry, one GPU
//! runs hot and straggles, a kernel launch returns a transient error. The
//! simulator injects exactly these faults from a [`FaultPlan`]: a small
//! `Copy` value whose every decision is a **pure function of the plan
//! seed and the injection site** — no RNG state, no ordering dependence.
//! Two runs with the same plan (and the same `WD_SCHED_*` schedule)
//! observe bit-identical faults, so every chaos-test failure replays from
//! the `WD_FAULT`/`WD_FAULT_SEED` pair it prints, composing with the
//! scheduler's replay hints.
//!
//! A plan is a value; the multi-GPU node (`warpdrive::Config::fault`)
//! is what holds and injects it. It is built programmatically via the
//! builders, or from the environment (`WD_FAULT=drop=0.2,launch=0.1
//! WD_FAULT_SEED=7`, [`FaultPlan::from_env`]), which only
//! `warpdrive::Config::default()` reads. A [`crate::Device`] carries no
//! plan: a launch never fails and never straggles on its own, so each
//! fault is billed once, by the node.
//!
//! What each knob injects (all disabled at 0 / `None`):
//!
//! * `transfer_drop` — probability that one attempt of an interconnect
//!   transfer (a directed all-to-all edge, or a PCIe switch batch) drops
//!   and must be retried. Decided per `(site, src, dst, attempt)`.
//! * `link_degrade` / `degrade_factor` — probability that a given link is
//!   *persistently* degraded (trained down), dividing its bandwidth by
//!   `degrade_factor`. Decided per link, stable for the whole run.
//! * `launch_fail` — probability that a kernel-launch attempt fails
//!   transiently before any work runs (the CUDA "launch returned an
//!   error, retry it" class). Decided per `(device, site, attempt)`.
//! * `straggler` / `straggler_factor` / `stall` — one device whose every
//!   launch runs `straggler_factor`× slower plus a fixed `stall` of
//!   simulated seconds (timing-model faults; functionally invisible).
//! * `kill` — one device that is *permanently lost*: every launch and
//!   transfer attempt involving it fails. This is what drives the
//!   quarantine/repartition path of the distributed map.

use crate::sched::Schedule;

/// A deterministic fault-injection plan (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed from which every injection decision is derived.
    pub seed: u64,
    /// Per-attempt transfer-drop probability in `[0, 1]`.
    pub transfer_drop: f64,
    /// Per-link persistent degradation probability in `[0, 1]`.
    pub link_degrade: f64,
    /// Bandwidth divisor applied to degraded links (≥ 1).
    pub degrade_factor: f64,
    /// Per-attempt transient kernel-launch failure probability.
    pub launch_fail: f64,
    /// Device index that straggles, if any.
    pub straggler: Option<u32>,
    /// Slowdown multiplier of the straggler's launches (≥ 1).
    pub straggler_factor: f64,
    /// Fixed stall in simulated seconds added to the straggler's
    /// launches (a timing-model fault; functionally invisible).
    pub stall: f64,
    /// Device index that is permanently lost, if any.
    pub kill: Option<u32>,
}

impl Default for FaultPlan {
    /// The disarmed plan: no knob injects anything.
    fn default() -> Self {
        Self {
            seed: 0,
            transfer_drop: 0.0,
            link_degrade: 0.0,
            degrade_factor: 4.0,
            launch_fail: 0.0,
            straggler: None,
            straggler_factor: 2.0,
            stall: 0.0,
            kill: None,
        }
    }
}

/// Fowler-style site tags keeping decisions at distinct injection sites
/// independent even when their numeric ids coincide.
pub mod site {
    /// All-to-all transposition edge.
    pub const ALLTOALL: u64 = 0x_a11;
    /// Host→device PCIe batch.
    pub const H2D: u64 = 0x_42d;
    /// Device→host PCIe batch.
    pub const D2H: u64 = 0x_d24;
    /// Kernel launch.
    pub const LAUNCH: u64 = 0x_1a0;
}

/// SplitMix64 finalizer — the plan's only mixing primitive.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// Whether any knob can inject anything. The disarmed plan is the
    /// identity: fault-aware code paths bill byte-identical counters to
    /// their pre-chaos versions (asserted in `tests/chaos_sweep.rs`).
    #[must_use]
    pub fn armed(&self) -> bool {
        self.transfer_drop > 0.0
            || self.link_degrade > 0.0
            || self.launch_fail > 0.0
            || self.straggler.is_some()
            || self.stall > 0.0
            || self.kill.is_some()
    }

    /// A deterministic Bernoulli roll: true with probability `p`, as a
    /// pure function of the seed and the site coordinates.
    fn roll(&self, p: f64, tag: u64, a: u64, b: u64, attempt: u64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        // chained (not XOR-folded) so no two coordinates can cancel:
        // seed 1/attempt 0 and seed 0/attempt 1 land on distinct rolls
        let mut h = self.seed;
        for coord in [tag, a, b, attempt] {
            h = mix(h ^ coord);
        }
        (h as f64 / u64::MAX as f64) < p
    }

    /// Whether launch attempt `attempt` at `site` on `device` fails
    /// transiently (nothing ran; the caller retries). A killed device
    /// always fails.
    #[must_use]
    pub fn launch_fails(&self, device: usize, launch_site: u64, attempt: u32) -> bool {
        self.device_lost(device)
            || self.roll(
                self.launch_fail,
                site::LAUNCH ^ launch_site,
                device as u64,
                launch_site,
                u64::from(attempt),
            )
    }

    /// Whether transfer attempt `attempt` over the directed edge
    /// `src → dst` at `site` drops. Transfers touching a killed device
    /// always drop.
    #[must_use]
    pub fn transfer_drops(&self, src: usize, dst: usize, transfer_site: u64, attempt: u32) -> bool {
        self.device_lost(src)
            || self.device_lost(dst)
            || self.roll(
                self.transfer_drop,
                transfer_site,
                src as u64,
                dst as u64,
                u64::from(attempt),
            )
    }

    /// Persistent bandwidth divisor of the directed link `src → dst`
    /// (1.0 when the link trained at full rate).
    #[must_use]
    pub fn link_factor(&self, src: usize, dst: usize) -> f64 {
        if self.roll(self.link_degrade, site::ALLTOALL ^ 0x_deca, src as u64, dst as u64, 0) {
            self.degrade_factor.max(1.0)
        } else {
            1.0
        }
    }

    /// Persistent bandwidth divisor of PCIe switch `switch_idx`.
    #[must_use]
    pub fn switch_factor(&self, switch_idx: usize) -> f64 {
        if self.roll(self.link_degrade, site::H2D ^ 0x_deca, switch_idx as u64, 0, 0) {
            self.degrade_factor.max(1.0)
        } else {
            1.0
        }
    }

    /// Slowdown multiplier of `device`'s kernel launches (≥ 1).
    #[must_use]
    pub fn straggle_factor(&self, device: usize) -> f64 {
        if self.straggler == Some(device as u32) {
            self.straggler_factor.max(1.0)
        } else {
            1.0
        }
    }

    /// Fixed stall added to `device`'s kernel launches, in simulated
    /// seconds.
    #[must_use]
    pub fn launch_stall(&self, device: usize) -> f64 {
        if self.straggler == Some(device as u32) {
            self.stall.max(0.0)
        } else {
            0.0
        }
    }

    /// Whether `device` is permanently lost under this plan.
    #[must_use]
    pub fn device_lost(&self, device: usize) -> bool {
        self.kill == Some(device as u32)
    }

    // ---- construction ----------------------------------------------------

    /// Sets the plan seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the per-attempt transfer-drop probability.
    #[must_use]
    pub fn with_transfer_drop(mut self, p: f64) -> Self {
        self.transfer_drop = p;
        self
    }

    /// Sets the per-link degradation probability and bandwidth divisor.
    #[must_use]
    pub fn with_link_degrade(mut self, p: f64, factor: f64) -> Self {
        self.link_degrade = p;
        self.degrade_factor = factor;
        self
    }

    /// Sets the per-attempt transient launch-failure probability.
    #[must_use]
    pub fn with_launch_fail(mut self, p: f64) -> Self {
        self.launch_fail = p;
        self
    }

    /// Makes `device` a straggler: `factor`× slower launches plus a fixed
    /// `stall` of simulated seconds each.
    #[must_use]
    pub fn with_straggler(mut self, device: u32, factor: f64, stall: f64) -> Self {
        self.straggler = Some(device);
        self.straggler_factor = factor;
        self.stall = stall;
        self
    }

    /// Permanently kills `device`.
    #[must_use]
    pub fn with_kill(mut self, device: u32) -> Self {
        self.kill = Some(device);
        self
    }

    // ---- replay ----------------------------------------------------------

    /// The `WD_FAULT`/`WD_FAULT_SEED` pair that replays this plan —
    /// printed in chaos-test failures next to the scheduler's
    /// [`Schedule::replay_hint`], so one environment line reproduces the
    /// whole run.
    #[must_use]
    pub fn replay_hint(&self) -> String {
        if !self.armed() {
            return "WD_FAULT= (disarmed)".to_owned();
        }
        format!("WD_FAULT={} WD_FAULT_SEED={}", self.spec(), self.seed)
    }

    /// Replay hint composed with a schedule's: the full deterministic
    /// coordinates of a chaos run.
    #[must_use]
    pub fn replay_hint_with(&self, schedule: Schedule) -> String {
        format!("{} {}", self.replay_hint(), schedule.replay_hint())
    }

    /// The `WD_FAULT` spec string encoding this plan (without the seed).
    #[must_use]
    pub fn spec(&self) -> String {
        let mut parts = Vec::new();
        if self.transfer_drop > 0.0 {
            parts.push(format!("drop={}", self.transfer_drop));
        }
        if self.link_degrade > 0.0 {
            parts.push(format!("degrade={}", self.link_degrade));
            parts.push(format!("dfactor={}", self.degrade_factor));
        }
        if self.launch_fail > 0.0 {
            parts.push(format!("launch={}", self.launch_fail));
        }
        if let Some(d) = self.straggler {
            parts.push(format!("straggle={d}"));
            parts.push(format!("sfactor={}", self.straggler_factor));
            if self.stall > 0.0 {
                parts.push(format!("stall={}", self.stall));
            }
        }
        if let Some(d) = self.kill {
            parts.push(format!("kill={d}"));
        }
        parts.join(",")
    }

    /// Parses a `WD_FAULT` spec string (`drop=0.2,launch=0.1,kill=3,...`;
    /// unknown or malformed entries are ignored) with `seed`.
    #[must_use]
    pub fn from_spec(spec: &str, seed: u64) -> Self {
        let mut plan = Self::default().with_seed(seed);
        for kv in spec.split(',') {
            let Some((k, v)) = kv.split_once('=') else {
                continue;
            };
            let (k, v) = (k.trim(), v.trim());
            match k {
                "drop" => plan.transfer_drop = v.parse().unwrap_or(0.0),
                "degrade" => plan.link_degrade = v.parse().unwrap_or(0.0),
                "dfactor" => plan.degrade_factor = v.parse().unwrap_or(4.0),
                "launch" => plan.launch_fail = v.parse().unwrap_or(0.0),
                "straggle" => plan.straggler = v.parse().ok(),
                "sfactor" => plan.straggler_factor = v.parse().unwrap_or(2.0),
                "stall" => plan.stall = v.parse().unwrap_or(0.0),
                "kill" => plan.kill = v.parse().ok(),
                _ => {}
            }
        }
        plan
    }

    /// Builds the plan from `WD_FAULT` / `WD_FAULT_SEED`, for replaying a
    /// failing chaos run printed by a test. Unset → disarmed.
    #[must_use]
    pub fn from_env() -> Self {
        let seed = std::env::var("WD_FAULT_SEED")
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0);
        match std::env::var("WD_FAULT") {
            Ok(spec) if !spec.trim().is_empty() => Self::from_spec(&spec, seed),
            _ => Self::default().with_seed(seed),
        }
    }
}

impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.armed() {
            write!(f, "fault({}, seed={})", self.spec(), self.seed)
        } else {
            write!(f, "fault(disarmed)")
        }
    }
}

/// Retry discipline for fault-aware operations: bounded idempotent
/// retries with exponential backoff. There is one, [`RETRY`], which both
/// retrying sites read: the interconnect's transfers and the node's
/// kernel-launch gate.
///
/// Backoff is *billed, not slept* — the simulator adds it to the
/// operation's modeled time (the `Backoff` cascade stage) while the
/// functional retry happens immediately.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per operation (first try included). Exhaustion
    /// surfaces as a typed error (`TransferError` / `DeviceLost`).
    pub max_attempts: u32,
    /// Backoff before the first retry, simulated seconds.
    pub base_backoff: f64,
    /// Backoff growth factor per retry.
    pub multiplier: f64,
}

/// The retry policy documented in EXPERIMENTS.md: 4 attempts, 10 µs
/// base backoff doubling with each retry — 10, 20 and 40 µs, 70 µs for
/// an operation that exhausts its attempts.
pub const RETRY: RetryPolicy = RetryPolicy {
    max_attempts: 4,
    base_backoff: 10e-6,
    multiplier: 2.0,
};

impl RetryPolicy {
    /// Backoff billed before retry attempt `attempt` (attempt 0 is the
    /// first try: no backoff).
    #[must_use]
    pub fn backoff_before(&self, attempt: u32) -> f64 {
        if attempt == 0 {
            0.0
        } else {
            self.base_backoff * self.multiplier.powi(attempt as i32 - 1)
        }
    }

    /// Whether another attempt is allowed after `attempts_done` attempts
    /// have failed.
    #[must_use]
    pub fn may_retry(&self, attempts_done: u32) -> bool {
        attempts_done < self.max_attempts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_plan_injects_nothing() {
        let p = FaultPlan::default();
        assert!(!p.armed());
        for dev in 0..8 {
            for att in 0..8 {
                assert!(!p.launch_fails(dev, 1, att));
                assert!(!p.transfer_drops(dev, (dev + 1) % 8, site::ALLTOALL, att));
            }
            assert_eq!(p.link_factor(dev, (dev + 1) % 8), 1.0);
            assert_eq!(p.straggle_factor(dev), 1.0);
            assert_eq!(p.launch_stall(dev), 0.0);
            assert!(!p.device_lost(dev));
        }
    }

    #[test]
    fn decisions_are_pure_functions_of_the_seed() {
        let p = FaultPlan::default()
            .with_seed(42)
            .with_transfer_drop(0.5)
            .with_launch_fail(0.5)
            .with_link_degrade(0.5, 4.0);
        for src in 0..4 {
            for dst in 0..4 {
                for att in 0..4 {
                    assert_eq!(
                        p.transfer_drops(src, dst, site::ALLTOALL, att),
                        p.transfer_drops(src, dst, site::ALLTOALL, att),
                    );
                }
                assert_eq!(p.link_factor(src, dst), p.link_factor(src, dst));
            }
        }
        // attempts are independent coordinates: with p=0.5 over 64 rolls
        // both outcomes must appear
        let rolls: Vec<bool> = (0..64)
            .map(|att| p.transfer_drops(0, 1, site::ALLTOALL, att))
            .collect();
        assert!(rolls.iter().any(|&b| b) && rolls.iter().any(|&b| !b));
    }

    #[test]
    fn different_seeds_differ() {
        let hits = |seed: u64| -> u32 {
            let p = FaultPlan::default().with_seed(seed).with_transfer_drop(0.5);
            (0..64)
                .filter(|&att| p.transfer_drops(0, 1, site::ALLTOALL, att))
                .count() as u32
        };
        let distinct: std::collections::HashSet<u32> = (0..8).map(hits).collect();
        assert!(distinct.len() > 1, "seeds must change the plan");
    }

    #[test]
    fn probability_extremes() {
        let never = FaultPlan::default().with_seed(9);
        assert!(!never.roll(0.0, 1, 2, 3, 4));
        assert!(never.roll(1.0, 1, 2, 3, 4));
        let always = FaultPlan::default().with_seed(9).with_launch_fail(1.0);
        assert!((0..16).all(|att| always.launch_fails(0, 7, att)));
    }

    #[test]
    fn killed_device_fails_everything() {
        let p = FaultPlan::default().with_kill(2);
        assert!(p.armed());
        assert!(p.device_lost(2));
        assert!(p.launch_fails(2, 1, 0));
        assert!(p.transfer_drops(2, 0, site::ALLTOALL, 3));
        assert!(p.transfer_drops(0, 2, site::H2D, 3));
        assert!(!p.transfer_drops(0, 1, site::H2D, 3) || p.transfer_drop > 0.0);
    }

    #[test]
    fn straggler_scales_only_its_device() {
        let p = FaultPlan::default().with_straggler(1, 3.0, 1e-4);
        assert_eq!(p.straggle_factor(1), 3.0);
        assert_eq!(p.straggle_factor(0), 1.0);
        assert_eq!(p.launch_stall(1), 1e-4);
        assert_eq!(p.launch_stall(3), 0.0);
    }

    #[test]
    fn spec_round_trips_through_parse() {
        let p = FaultPlan::default()
            .with_seed(77)
            .with_transfer_drop(0.25)
            .with_link_degrade(0.125, 8.0)
            .with_launch_fail(0.0625)
            .with_straggler(2, 3.0, 5e-5)
            .with_kill(1);
        let back = FaultPlan::from_spec(&p.spec(), p.seed);
        assert_eq!(p, back, "spec `{}` did not round-trip", p.spec());
        assert!(p.replay_hint().contains("WD_FAULT_SEED=77"));
        assert!(p
            .replay_hint_with(Schedule::Seeded(3))
            .contains("WD_SCHED_SEED=3"));
    }

    #[test]
    fn malformed_spec_entries_are_ignored() {
        let p = FaultPlan::from_spec("drop=0.5,nonsense,what=ever,launch=x", 1);
        assert_eq!(p.transfer_drop, 0.5);
        assert_eq!(p.launch_fail, 0.0);
    }

    #[test]
    fn retry_policy_backoff_doubles_over_three_retries() {
        let r = RETRY;
        assert_eq!(r.backoff_before(0), 0.0);
        let billed: Vec<f64> = (1..r.max_attempts).map(|a| r.backoff_before(a)).collect();
        assert_eq!(billed, [10e-6, 20e-6, 40e-6]);
        assert!((billed.iter().sum::<f64>() - 70e-6).abs() < 1e-15);
        assert!(r.may_retry(1));
        assert!(r.may_retry(r.max_attempts - 1));
        assert!(!r.may_retry(r.max_attempts));
    }
}
