//! Deterministic group scheduling for kernel launches.
//!
//! By default the simulator races coalesced groups on a thread pool, so
//! each test run observes one arbitrary OS-chosen interleaving — a racy
//! bug that loses the lottery stays invisible. This module adds
//! *schedulable* execution: groups run **stepwise**, one at a time, with
//! preemption points at every counted device-memory operation (window
//! loads, CAS, atomics — exactly the places where CUDA groups interact),
//! and the choice of which group runs next is a pure function of a seed.
//! Same seed ⇒ bit-identical execution, table contents and
//! [`crate::CounterSnapshot`]s.
//!
//! Three families of schedules exist behind [`Schedule`]:
//!
//! * [`Schedule::Pool`] — the production path, unchanged: real threads,
//!   real races, no determinism.
//! * [`Schedule::Seeded`] — a pseudo-random interleaver: at every
//!   preemption point the next group is drawn from the runnable set by a
//!   seeded SplitMix64. Sweeping seeds explores distinct interleavings
//!   reproducibly.
//! * [`Schedule::Adversarial`] — systematic perturbations that target
//!   known race shapes: starve one group ([`AdversarialMode::DelayOne`]),
//!   always run the highest-numbered runnable group
//!   ([`AdversarialMode::Reverse`]), or rotate fairly with a configurable
//!   preemption quantum ([`AdversarialMode::RoundRobin`]).
//!
//! A bounded *wave* of groups is co-resident (the GPU-occupancy
//! analogue); when a group retires, the next unstarted group joins the
//! wave inside the same critical section, keeping the whole execution
//! deterministic. Failing interleavings replay from environment
//! variables via [`Schedule::from_env`] (`WD_SCHED_MODE`,
//! `WD_SCHED_SEED`, `WD_SCHED_QUANTUM`, `WD_SCHED_WAVE`).
//!
//! # Chunked dispatch
//!
//! Naively, every counted operation takes the scheduler lock, updates
//! the runnable set and possibly draws from the RNG — per-*op* dispatch
//! overhead that dominates stepwise wall-clock. The executor therefore
//! hands out **leases**: when a group is elected, the scheduler computes
//! *up front* how many consecutive operations that election covers (for
//! a seeded schedule, by pre-drawing the RNG while it keeps re-electing
//! the same group and rewinding the first non-matching draw; for
//! round-robin, the quantum; for the adversarial modes, a closed form).
//! The group then runs that many ops on a thread-local countdown with no
//! locking at all, and comes back for a real decision when the lease
//! expires. Because each pre-drawn decision is exactly the decision the
//! per-op path would have made, the op-level interleaving — and hence
//! every modeled counter and replay hint — is **bit-identical** to
//! per-op dispatch (asserted by the equivalence tests below). A group
//! retiring mid-lease rewinds its unused pre-drawn decisions, keeping
//! the RNG stream aligned. `LaunchOptions::with_per_op_dispatch(true)`
//! selects the per-op path (the default is chunked).
//!
//! # Waiting on a flag
//!
//! A group whose [`crate::GroupCtx::poll`] finds its flag unpublished
//! **parks**: it leaves the runnable set — a scheduling decision, like a
//! retirement — until another group publishes a flag or retires, which
//! puts every parked group back. So no policy can starve a waiter by
//! electing it forever, `Reverse` and `DelayOne` included. A waiter
//! only ever waits on a lower group id, and the wave admits groups in id
//! order, so the lowest unfinished resident group never waits for long:
//! what it waits on has retired and published. A wake that grows the
//! runnable set while the publisher still holds a lease ends the lease's
//! pre-drawn decisions, so chunked dispatch stays bit-identical to per-op
//! dispatch here too.

use std::sync::{Condvar, Mutex, MutexGuard};

/// Systematic schedule perturbations for [`Schedule::Adversarial`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdversarialMode {
    /// Starve one group (chosen by the seed): it only runs when it is the
    /// sole runnable group. Catches bugs where progress of one group
    /// depends on another's completed write (lost-update shapes).
    DelayOne,
    /// Always schedule the highest-numbered runnable group — the exact
    /// reverse of launch order, the opposite of what a pool tends to do.
    Reverse,
    /// Fair rotation in group-id order, preempting every `quantum`
    /// device-memory operations. `quantum: 1` switches at every CAS /
    /// window load.
    RoundRobin {
        /// Memory operations a group runs before being preempted.
        quantum: u32,
    },
}

/// How the groups of a kernel launch interleave.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Schedule {
    /// Race groups on the thread pool (production default).
    #[default]
    Pool,
    /// Run all groups to completion in launch order on the calling
    /// thread.
    Sequential,
    /// Deterministic stepwise interleaving, pseudo-randomly shuffled by
    /// the seed. Same seed ⇒ bit-identical execution and counters.
    Seeded(u64),
    /// Deterministic stepwise interleaving with a systematic
    /// perturbation.
    Adversarial {
        /// The perturbation applied at every scheduling decision.
        mode: AdversarialMode,
        /// Seed for the mode's remaining choices (e.g. the delayed
        /// group).
        seed: u64,
    },
}

impl Schedule {
    /// Whether this schedule needs the stepwise executor.
    #[must_use]
    pub fn is_stepwise(self) -> bool {
        matches!(self, Schedule::Seeded(_) | Schedule::Adversarial { .. })
    }

    /// The `WD_SCHED_*` environment settings that replay this schedule
    /// (printed in sanitizer reports). [`Schedule::Pool`] is inherently
    /// nondeterministic, so the hint says how to pin it instead.
    #[must_use]
    pub fn replay_hint(self) -> String {
        match self {
            Schedule::Pool => {
                "nondeterministic pool; pin with WD_SCHED_MODE=seeded WD_SCHED_SEED=<n>".to_owned()
            }
            Schedule::Sequential => "WD_SCHED_MODE=seq".to_owned(),
            Schedule::Seeded(seed) => {
                format!("WD_SCHED_MODE=seeded WD_SCHED_SEED={seed}")
            }
            Schedule::Adversarial { mode, seed } => match mode {
                AdversarialMode::DelayOne => {
                    format!("WD_SCHED_MODE=delay WD_SCHED_SEED={seed}")
                }
                AdversarialMode::Reverse => {
                    format!("WD_SCHED_MODE=reverse WD_SCHED_SEED={seed}")
                }
                AdversarialMode::RoundRobin { quantum } => format!(
                    "WD_SCHED_MODE=rr WD_SCHED_SEED={seed} WD_SCHED_QUANTUM={quantum}"
                ),
            },
        }
    }

    /// Builds a schedule from `WD_SCHED_MODE` / `WD_SCHED_SEED` /
    /// `WD_SCHED_QUANTUM`, for replaying a failing interleaving printed
    /// by a test. Modes: `pool` (default), `sequential`, `seeded`,
    /// `delay`, `reverse`, `rr`. Unknown modes fall back to `Pool`.
    #[must_use]
    pub fn from_env() -> Schedule {
        let mode = std::env::var("WD_SCHED_MODE").unwrap_or_default();
        Schedule::from_parts(
            &mode,
            env_u64("WD_SCHED_SEED").unwrap_or(0),
            env_u64("WD_SCHED_QUANTUM"),
        )
        .unwrap_or(Schedule::Pool)
    }

    /// Parses a replay-hint string back into the schedule it describes —
    /// the inverse of [`Schedule::replay_hint`]. Accepts any string
    /// containing `WD_SCHED_MODE=…` (and optionally `WD_SCHED_SEED=…` /
    /// `WD_SCHED_QUANTUM=…`) tokens, e.g. a full sanitizer report line;
    /// foreign `KEY=VALUE` tokens (`WD_FAULT=…`) are ignored. Returns
    /// `None` when no parseable mode token is present, so a replay test
    /// can reconstruct a printed schedule without mutating the process
    /// environment.
    #[must_use]
    pub fn parse_hint(hint: &str) -> Option<Schedule> {
        let mut mode: Option<&str> = None;
        let mut seed = 0u64;
        let mut quantum = None;
        for tok in hint.split_whitespace() {
            if let Some((k, v)) = tok.split_once('=') {
                // report lines wrap the hint in brackets/parens, which
                // stick to the last token: `… WD_SCHED_SEED=7])`
                let v = v.trim_end_matches([']', ')', ',', '.', ';', '"', '\'']);
                match k {
                    "WD_SCHED_MODE" => mode = Some(v),
                    "WD_SCHED_SEED" => seed = v.parse().ok()?,
                    "WD_SCHED_QUANTUM" => quantum = Some(v.parse().ok()?),
                    _ => {} // foreign settings (WD_FAULT, …) ride along
                }
            }
        }
        Schedule::from_parts(mode?, seed, quantum)
    }

    /// Shared token decoder behind [`Schedule::from_env`] and
    /// [`Schedule::parse_hint`].
    fn from_parts(mode: &str, seed: u64, quantum: Option<u64>) -> Option<Schedule> {
        Some(match mode {
            "pool" => Schedule::Pool,
            "sequential" | "seq" => Schedule::Sequential,
            "seeded" => Schedule::Seeded(seed),
            "delay" | "delay-one" => Schedule::Adversarial {
                mode: AdversarialMode::DelayOne,
                seed,
            },
            "reverse" => Schedule::Adversarial {
                mode: AdversarialMode::Reverse,
                seed,
            },
            "rr" | "round-robin" => Schedule::Adversarial {
                mode: AdversarialMode::RoundRobin {
                    quantum: quantum.map_or(1, |q| q.max(1) as u32),
                },
                seed,
            },
            _ => return None,
        })
    }
}

impl std::fmt::Display for Schedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Schedule::Pool => write!(f, "pool"),
            Schedule::Sequential => write!(f, "sequential"),
            Schedule::Seeded(s) => write!(f, "seeded(seed={s})"),
            Schedule::Adversarial { mode, seed } => match mode {
                AdversarialMode::DelayOne => write!(f, "delay-one(seed={seed})"),
                AdversarialMode::Reverse => write!(f, "reverse"),
                AdversarialMode::RoundRobin { quantum } => {
                    write!(f, "round-robin(quantum={quantum})")
                }
            },
        }
    }
}

/// Reads a `u64` environment variable.
fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// Default number of co-resident groups in the stepwise executor.
const DEFAULT_WAVE: usize = 16;

/// Co-resident group count (the simulated occupancy). Overridable via
/// `WD_SCHED_WAVE`; replaying a seed requires the same wave.
#[must_use]
pub fn wave_size() -> usize {
    env_u64("WD_SCHED_WAVE").map_or(DEFAULT_WAVE, |w| w.clamp(1, 1024) as usize)
}

/// SplitMix64 additive state increment. The state advances by pure
/// addition, so one draw is un-consumed by subtracting it back — the
/// property chunked dispatch relies on to rewind pre-drawn decisions.
const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64 step — the scheduler's only source of randomness.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GOLDEN_GAMMA);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Scheduling policy of a stepwise run (derived from a [`Schedule`]).
#[derive(Debug, Clone, Copy)]
enum Policy {
    Seeded,
    DelayOne { victim: usize },
    Reverse,
    RoundRobin { quantum: u32 },
}

struct StepState {
    /// Group currently holding the execution token (`None` once all
    /// groups retired).
    current: Option<usize>,
    /// Groups waiting for the token, sorted ascending.
    runnable: Vec<usize>,
    /// Next group id that has not yet joined the wave.
    next_unstarted: usize,
    num_groups: usize,
    policy: Policy,
    rng: u64,
    /// Memory operations the current group has run this turn
    /// (round-robin quantum accounting, per-op mode only).
    steps_in_turn: u32,
    /// Whether elections hand out multi-op leases (chunked dispatch) or
    /// a fresh decision happens at every counted op.
    chunked: bool,
    /// Ops the most recent election entitles its electee to run before
    /// the next real scheduling decision (1 in per-op mode; 0 for a
    /// group that has not reached its first preemption point yet).
    lease_grant: u64,
    /// RNG draws pre-consumed for the current lease's re-elections;
    /// rewound draw-for-op if the group retires mid-lease.
    lease_draws: u64,
    /// Per-group flag: has this group executed its first preemption
    /// point? A fresh group makes a full decision there (exactly as the
    /// per-op path does), so electing it grants no ops yet. A parked group
    /// is fresh again: it resumes inside its poll, not at an op.
    started: Vec<bool>,
    /// Groups waiting on an unpublished flag, out of the runnable set.
    parked: Vec<usize>,
    /// Every resident group parked at once: no flag can come, and every
    /// thread of the launch gives up.
    stuck: bool,
}

impl StepState {
    /// Picks the next current group from the runnable set and removes it.
    /// Pure function of `(runnable, rng, policy, current)` — this is what
    /// makes the whole execution deterministic.
    fn pick_next(&mut self) {
        debug_assert!(!self.runnable.is_empty());
        let idx = match self.policy {
            Policy::Seeded => (splitmix(&mut self.rng) % self.runnable.len() as u64) as usize,
            Policy::Reverse => self.runnable.len() - 1,
            Policy::DelayOne { victim } => {
                // lowest non-victim; the victim only runs when alone
                self.runnable
                    .iter()
                    .position(|&g| g != victim)
                    .unwrap_or(0)
            }
            Policy::RoundRobin { .. } => match self.current {
                // smallest gid greater than the departing group, wrapping
                Some(last) => self
                    .runnable
                    .iter()
                    .position(|&g| g > last)
                    .unwrap_or(0),
                None => 0,
            },
        };
        let gid = self.runnable.remove(idx);
        self.current = Some(gid);
        self.steps_in_turn = 0;
        if !self.chunked {
            (self.lease_grant, self.lease_draws) = (1, 0);
        } else if !self.started[gid] {
            // the electee has not reached its first preemption point.
            // Under round-robin that point only counts toward the
            // quantum (the per-op path early-returns until it fills),
            // so the election covers the quantum remainder; under every
            // other policy it performs a full decision, so it covers
            // no ops yet.
            let grant = match self.policy {
                Policy::RoundRobin { quantum } => u64::from(quantum) - 1,
                _ => 0,
            };
            (self.lease_grant, self.lease_draws) = (grant, 0);
        } else {
            (self.lease_grant, self.lease_draws) = self.lookahead(gid);
        }
    }

    /// Computes how many consecutive ops electing `e` covers before the
    /// next decision could pick someone else. Only `e` retiring, parking
    /// or waking parked groups can change the runnable set while it holds
    /// the token — and a wake ends the lease ([`StepSched::wake`]) — so
    /// every decision the lease covers draws over exactly `runnable ∪
    /// {e}`: each re-election can be resolved now instead of per op.
    fn lookahead(&mut self, e: usize) -> (u64, u64) {
        if self.runnable.is_empty() {
            // sole runner: nothing can preempt it until it retires, and
            // the per-op path draws nothing while runnable is empty
            return (u64::MAX, 0);
        }
        match self.policy {
            Policy::Seeded => {
                let pos = self.runnable.partition_point(|&g| g < e) as u64;
                let n = self.runnable.len() as u64 + 1;
                let mut m = 0u64;
                while splitmix(&mut self.rng) % n == pos {
                    m += 1;
                }
                // the breaking draw belongs to the future decision that
                // elects a different group — rewind it so that decision
                // replays it when the lease expires
                self.rng = self.rng.wrapping_sub(GOLDEN_GAMMA);
                (m + 1, m)
            }
            Policy::Reverse => {
                if self.runnable.last().is_some_and(|&g| g < e) {
                    (u64::MAX, 0) // stays the highest until it retires
                } else {
                    (1, 0)
                }
            }
            Policy::DelayOne { victim } => {
                if e != victim && self.runnable.iter().all(|&g| g == victim || g > e) {
                    (u64::MAX, 0) // stays the lowest non-victim until it retires
                } else {
                    (1, 0)
                }
            }
            Policy::RoundRobin { quantum } => (u64::from(quantum), 0),
        }
    }

    fn insert_runnable(&mut self, gid: usize) {
        let pos = self.runnable.partition_point(|&g| g < gid);
        self.runnable.insert(pos, gid);
    }

    /// Un-draws the decisions pre-drawn for the `unused` ops left on the
    /// current lease, so the RNG stream matches the per-op path's.
    fn rewind(&mut self, unused: u64) {
        let rollback = unused.min(self.lease_draws);
        self.rng = self.rng.wrapping_sub(GOLDEN_GAMMA.wrapping_mul(rollback));
        self.lease_draws = 0;
    }

    /// Puts every parked group back into the runnable set; returns whether
    /// there was one.
    fn unpark(&mut self) -> bool {
        let any = !self.parked.is_empty();
        while let Some(gid) = self.parked.pop() {
            self.insert_runnable(gid);
        }
        any
    }
}

/// The stepwise executor: a single execution token handed between
/// groups at preemption points. [`crate::GroupCtx`] calls
/// [`StepSched::yield_point`] from every counted memory operation.
pub struct StepSched {
    state: Mutex<StepState>,
    /// One per group: a handoff wakes the one thread that runs the group
    /// it elected, not every thread of the wave.
    turns: Vec<Condvar>,
}

impl StepSched {
    fn new(schedule: Schedule, num_groups: usize, wave: usize, chunked: bool) -> Self {
        let (policy, seed) = match schedule {
            Schedule::Seeded(seed) => (Policy::Seeded, seed),
            Schedule::Adversarial { mode, seed } => (
                match mode {
                    AdversarialMode::DelayOne => Policy::DelayOne {
                        victim: (seed % num_groups.max(1) as u64) as usize,
                    },
                    AdversarialMode::Reverse => Policy::Reverse,
                    AdversarialMode::RoundRobin { quantum } => Policy::RoundRobin {
                        quantum: quantum.max(1),
                    },
                },
                seed,
            ),
            Schedule::Pool | Schedule::Sequential => {
                unreachable!("stepwise executor requires a stepwise schedule")
            }
        };
        let mut state = StepState {
            current: None,
            runnable: (0..wave.min(num_groups)).collect(),
            next_unstarted: wave.min(num_groups),
            num_groups,
            policy,
            rng: seed ^ 0x0057_a7e5_c4ed_01e5_u64.rotate_left(17),
            steps_in_turn: 0,
            chunked,
            lease_grant: 0,
            lease_draws: 0,
            started: vec![false; num_groups],
            parked: Vec::new(),
            stuck: false,
        };
        if !state.runnable.is_empty() {
            state.pick_next();
        }
        StepSched {
            state: Mutex::new(state),
            turns: (0..num_groups).map(|_| Condvar::new()).collect(),
        }
    }

    /// Releases the lock and wakes the thread of the group that now holds
    /// the token, if one does: woken after the release, it does not block
    /// again on the lock.
    fn hand_over(&self, st: MutexGuard<'_, StepState>) {
        let next = st.current;
        drop(st);
        if let Some(gid) = next {
            self.turns[gid].notify_one();
        }
    }

    fn lock(&self) -> MutexGuard<'_, StepState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Blocks until `gid` holds the token.
    ///
    /// # Panics
    /// Panics if every resident group parked (see [`StepSched::park`]).
    fn wait_turn<'s>(
        &'s self,
        mut st: MutexGuard<'s, StepState>,
        gid: usize,
    ) -> MutexGuard<'s, StepState> {
        while st.current != Some(gid) {
            assert!(!st.stuck, "group {gid}: the launch stopped, every resident group waiting");
            st = self.turns[gid]
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        st
    }

    /// Preemption point: possibly hands the token to another group and
    /// blocks until it is `gid`'s turn again. Called by [`crate::GroupCtx`]
    /// when its lease runs out before a counted device-memory operation
    /// (per-op mode leases are always one op, so that is every op).
    /// Returns the ops the new lease covers, **including** the op about
    /// to execute — the caller keeps `grant - 1` on its local countdown.
    pub(crate) fn yield_point(&self, gid: usize) -> u64 {
        let mut st = self.lock();
        debug_assert_eq!(st.current, Some(gid), "yield from a group without the token");
        if !st.chunked {
            st.steps_in_turn += 1;
            if let Policy::RoundRobin { quantum } = st.policy {
                if st.steps_in_turn < quantum {
                    return 1;
                }
            }
            if st.runnable.is_empty() {
                st.steps_in_turn = 0;
                return 1; // nobody to switch to
            }
        } else if st.runnable.is_empty() {
            // sole runner: the wave cannot grow until this group
            // retires, so the whole remainder is one lease (the per-op
            // path draws nothing here either, so the RNG stays aligned)
            st.lease_grant = u64::MAX;
            st.lease_draws = 0;
            return u64::MAX;
        }
        st.insert_runnable(gid);
        st.pick_next();
        if st.current == Some(gid) {
            return st.lease_grant; // re-elected; no handoff needed
        }
        self.hand_over(st);
        self.wait_turn(self.lock(), gid).lease_grant
    }

    /// Blocks until it is `gid`'s turn to start executing and returns
    /// the lease its election granted (always 0 in per-op mode, so the
    /// first op yields exactly as the legacy path did).
    fn wait_for_turn(&self, gid: usize) -> u64 {
        let mut st = self.wait_turn(self.lock(), gid);
        // from its first preemption point onward, electing this group
        // grants real ops (see `StepState::pick_next`)
        st.started[gid] = true;
        if st.chunked {
            st.lease_grant
        } else {
            0
        }
    }

    /// Parks `gid`, whose poll found its flag unpublished, with `unused`
    /// ops left on its lease: it leaves the runnable set, another group
    /// is elected, and it blocks until a publish or a retirement has put
    /// it back and it is elected again. Returns the lease that election
    /// granted, as [`StepSched::wait_for_turn`] does.
    ///
    /// # Panics
    /// Panics if no other resident group is runnable: then every one of
    /// them waits on a flag that none will publish.
    pub(crate) fn park(&self, gid: usize, unused: u64) -> u64 {
        let mut st = self.lock();
        debug_assert_eq!(st.current, Some(gid), "park from a group without the token");
        st.rewind(unused);
        st.parked.push(gid);
        st.started[gid] = false;
        if st.runnable.is_empty() {
            st.current = None;
            st.stuck = true;
            // every waiting thread gives up
            self.turns.iter().for_each(Condvar::notify_all);
            drop(st);
            panic!("group {gid} polls a flag that no resident group will publish");
        }
        st.pick_next();
        self.hand_over(st);
        let mut st = self.wait_turn(self.lock(), gid);
        st.started[gid] = true;
        if st.chunked {
            st.lease_grant
        } else {
            0
        }
    }

    /// Called by `gid`, which holds the token with `unused` ops left on
    /// its lease, after it published a flag: every parked group becomes
    /// runnable again. Returns what is left of the lease. A lease whose
    /// pre-drawn decisions assumed the old runnable set ends, so the next
    /// op decides afresh, as per-op dispatch would; a round-robin lease
    /// does not depend on that set, except a sole runner's unbounded one,
    /// which is cut back to the rest of its quantum.
    pub(crate) fn wake(&self, gid: usize, unused: u64) -> u64 {
        let mut st = self.lock();
        debug_assert_eq!(st.current, Some(gid), "wake from a group without the token");
        if !st.unpark() || !st.chunked {
            return unused;
        }
        match st.policy {
            Policy::RoundRobin { quantum } if st.lease_grant == u64::MAX => {
                // the unbounded lease began at an op where per-op dispatch
                // restarted the quantum, and `done` ops have run since
                let (quantum, done) = (u64::from(quantum), u64::MAX - unused);
                st.lease_grant = quantum; // a bounded lease from here on
                quantum - 1 - (done - 1) % quantum
            }
            Policy::RoundRobin { .. } => unused,
            _ => {
                st.rewind(unused);
                0
            }
        }
    }

    /// Retires `gid` and, in the same critical section, puts every parked
    /// group back and admits the next unstarted group to the wave (keeping
    /// the schedule deterministic).
    /// `unused` is the retiring group's leftover lease; re-elections
    /// pre-drawn for ops it never ran are rewound so the RNG stream
    /// matches the per-op path exactly. Returns the group this worker
    /// thread should run next, if any.
    fn finish_group(&self, gid: usize, unused: u64) -> Option<usize> {
        let mut st = self.lock();
        debug_assert_eq!(st.current, Some(gid), "finish from a group without the token");
        st.rewind(unused);
        st.unpark();
        let claimed = if st.next_unstarted < st.num_groups {
            let g = st.next_unstarted;
            st.next_unstarted += 1;
            st.insert_runnable(g);
            Some(g)
        } else {
            None
        };
        if st.runnable.is_empty() {
            st.current = None;
        } else {
            st.pick_next();
        }
        self.hand_over(st);
        claimed
    }
}

/// Runs `body(gid, sched, lease)` for every group id in `0..num_groups`
/// under the stepwise deterministic scheduler. `body` must route all
/// device-memory operations through a [`crate::GroupCtx`] built with the
/// provided [`StepSched`] so preemption points fire, seed the context's
/// lease countdown with the `lease` argument, and return the unused
/// lease at the end (0 when it tracks no lease) so mid-lease retirement
/// can rewind pre-drawn decisions. `chunked` selects multi-op leases vs
/// a scheduling decision at every op; both produce the identical
/// op-level interleaving.
pub(crate) fn run_stepwise<F>(schedule: Schedule, num_groups: usize, chunked: bool, body: F)
where
    F: Fn(usize, &StepSched, u64) -> u64 + Sync,
{
    if num_groups == 0 {
        return;
    }
    let wave = wave_size().min(num_groups);
    let sched = StepSched::new(schedule, num_groups, wave, chunked);
    let sched = &sched;
    let body = &body;
    std::thread::scope(|scope| {
        for t in 0..wave {
            scope.spawn(move || {
                let mut gid = t;
                loop {
                    let lease = sched.wait_for_turn(gid);
                    let unused = body(gid, sched, lease);
                    match sched.finish_group(gid, unused) {
                        Some(next) => gid = next,
                        None => break,
                    }
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex as StdMutex;

    /// Per-op dispatch: a scheduling decision at every op, the legacy
    /// reference behavior the chunked path must reproduce bit-for-bit.
    fn per_op_trace<O>(schedule: Schedule, num_groups: usize, ops: O) -> Vec<usize>
    where
        O: Fn(usize) -> usize + Sync,
    {
        let log = StdMutex::new(Vec::new());
        run_stepwise(schedule, num_groups, false, |gid, sched, _| {
            for _ in 0..ops(gid) {
                sched.yield_point(gid);
                log.lock().unwrap().push(gid);
            }
            0
        });
        log.into_inner().unwrap()
    }

    /// Chunked dispatch driven exactly the way [`crate::GroupCtx::pace`]
    /// drives it: a local lease countdown, a real yield only on expiry,
    /// leftover lease returned for rewind on retirement.
    fn leased_trace<O>(schedule: Schedule, num_groups: usize, ops: O) -> Vec<usize>
    where
        O: Fn(usize) -> usize + Sync,
    {
        let log = StdMutex::new(Vec::new());
        run_stepwise(schedule, num_groups, true, |gid, sched, lease0| {
            let mut lease = lease0;
            for _ in 0..ops(gid) {
                if lease > 0 {
                    lease -= 1;
                } else {
                    lease = sched.yield_point(gid) - 1;
                }
                log.lock().unwrap().push(gid);
            }
            lease
        });
        log.into_inner().unwrap()
    }

    /// Groups that each wait on their predecessor's flag — parking while
    /// it is down, as [`crate::GroupCtx::poll`] does — and then raise their
    /// own, waking the parked, as [`crate::GroupCtx::publish`] does; driven
    /// per op or on chunked leases the way `GroupCtx` drives them. Returns
    /// the op log and the order the flags went up in.
    fn flag_trace(
        schedule: Schedule,
        num_groups: usize,
        chunked: bool,
    ) -> (Vec<usize>, Vec<usize>) {
        use std::sync::atomic::AtomicBool;
        let flags: Vec<AtomicBool> = (0..num_groups).map(|_| AtomicBool::new(false)).collect();
        let (log, raised) = (StdMutex::new(Vec::new()), StdMutex::new(Vec::new()));
        run_stepwise(schedule, num_groups, chunked, |gid, sched, lease0| {
            let mut lease = lease0;
            let op = |lease: &mut u64| {
                if *lease > 0 {
                    *lease -= 1;
                } else {
                    *lease = sched.yield_point(gid) - 1;
                }
                log.lock().unwrap().push(gid);
            };
            for _ in 0..1 + gid % 3 {
                op(&mut lease);
            }
            if gid > 0 {
                op(&mut lease); // the poll
                while !flags[gid - 1].load(Ordering::Acquire) {
                    lease = sched.park(gid, lease);
                }
            }
            op(&mut lease); // the publish
            flags[gid].store(true, Ordering::Release);
            raised.lock().unwrap().push(gid);
            lease = sched.wake(gid, lease);
            for _ in 0..gid % 4 {
                op(&mut lease);
            }
            lease
        });
        (log.into_inner().unwrap(), raised.into_inner().unwrap())
    }

    /// A chain of waiters finishes under every policy — the adversarial
    /// ones elect a waiter that cannot proceed again and again — and its
    /// chunked dispatch replays per-op dispatch op for op.
    #[test]
    fn parked_waiters_finish_and_chunked_matches_per_op() {
        let adversarial = |mode| Schedule::Adversarial { mode, seed: 0 };
        let schedules = (0..12)
            .map(Schedule::Seeded)
            .chain((0..4).map(|seed| Schedule::Adversarial {
                mode: AdversarialMode::DelayOne,
                seed,
            }))
            .chain([
                adversarial(AdversarialMode::Reverse),
                adversarial(AdversarialMode::RoundRobin { quantum: 1 }),
                adversarial(AdversarialMode::RoundRobin { quantum: 3 }),
            ]);
        for schedule in schedules {
            for groups in [1, 5, 40] {
                let per_op = flag_trace(schedule, groups, false);
                assert_eq!(per_op.1, (0..groups).collect::<Vec<_>>(), "{schedule}");
                let chunked = flag_trace(schedule, groups, true);
                assert_eq!(per_op, chunked, "{schedule}, {groups} groups");
            }
        }
    }

    /// A group waiting on a flag that no one raises is woken by each
    /// retirement and parks again, until it parks alone: the launch then
    /// panics instead of hanging.
    #[test]
    fn a_waiter_no_one_will_wake_stops_the_launch() {
        let stopped = std::panic::catch_unwind(|| {
            run_stepwise(Schedule::Seeded(3), 4, true, |gid, sched, mut lease| {
                if gid == 2 {
                    loop {
                        lease = sched.park(gid, lease);
                    }
                }
                lease
            });
        });
        assert!(stopped.is_err());
    }

    fn trace(schedule: Schedule, num_groups: usize, ops_per_group: usize) -> Vec<usize> {
        per_op_trace(schedule, num_groups, |_| ops_per_group)
    }

    #[test]
    fn every_group_runs_exactly_once() {
        let count = AtomicU64::new(0);
        run_stepwise(Schedule::Seeded(1), 100, true, |_, _, _| {
            count.fetch_add(1, Ordering::Relaxed);
            0
        });
        assert_eq!(count.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn same_seed_same_trace() {
        for seed in [0, 1, 42, u64::MAX] {
            let a = trace(Schedule::Seeded(seed), 40, 7);
            let b = trace(Schedule::Seeded(seed), 40, 7);
            assert_eq!(a, b, "seed {seed} must replay identically");
            assert_eq!(a.len(), 40 * 7);
        }
    }

    #[test]
    fn different_seeds_usually_differ() {
        let distinct: std::collections::HashSet<Vec<usize>> =
            (0..8).map(|s| trace(Schedule::Seeded(s), 16, 5)).collect();
        assert!(distinct.len() > 4, "seeds should explore interleavings");
    }

    #[test]
    fn reverse_runs_highest_first() {
        let t = trace(
            Schedule::Adversarial {
                mode: AdversarialMode::Reverse,
                seed: 0,
            },
            8,
            3,
        );
        // wave admits all 8 groups; the first op executed must belong to
        // the highest-numbered group
        assert_eq!(t[0], 7);
    }

    #[test]
    fn delay_one_starves_the_victim() {
        let victim = 3usize;
        let t = trace(
            Schedule::Adversarial {
                mode: AdversarialMode::DelayOne,
                seed: victim as u64,
            },
            8,
            4,
        );
        // all of the victim's ops must come after every other group's
        let last_other = t
            .iter()
            .rposition(|&g| g != victim)
            .expect("other groups ran");
        let first_victim = t.iter().position(|&g| g == victim).expect("victim ran");
        assert!(
            first_victim > last_other,
            "victim ran at {first_victim}, before another group at {last_other}: {t:?}"
        );
    }

    #[test]
    fn round_robin_rotates_in_order() {
        let t = trace(
            Schedule::Adversarial {
                mode: AdversarialMode::RoundRobin { quantum: 1 },
                seed: 0,
            },
            4,
            3,
        );
        assert_eq!(t[..8], [0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn chunked_matches_per_op_seeded() {
        // variable op counts exercise mid-lease retirement (the RNG
        // rewind path) at many different offsets
        for seed in 0..24u64 {
            let ops = |gid: usize| 1 + (gid * 7 + seed as usize) % 11;
            let a = per_op_trace(Schedule::Seeded(seed), 24, ops);
            let b = leased_trace(Schedule::Seeded(seed), 24, ops);
            assert_eq!(a, b, "seed {seed}: chunked dispatch changed the interleaving");
        }
    }

    #[test]
    fn chunked_matches_per_op_past_wave() {
        // more groups than the wave: lease rewinds interact with
        // retirement-time admission
        for seed in [0, 3, 17, 255, u64::MAX] {
            let ops = |gid: usize| 2 + gid % 7;
            let a = per_op_trace(Schedule::Seeded(seed), 64, ops);
            let b = leased_trace(Schedule::Seeded(seed), 64, ops);
            assert_eq!(a, b, "seed {seed}: chunked dispatch changed the interleaving");
        }
    }

    #[test]
    fn chunked_matches_per_op_adversarial() {
        let schedules = [
            Schedule::Adversarial {
                mode: AdversarialMode::DelayOne,
                seed: 3,
            },
            Schedule::Adversarial {
                mode: AdversarialMode::Reverse,
                seed: 0,
            },
            Schedule::Adversarial {
                mode: AdversarialMode::RoundRobin { quantum: 1 },
                seed: 0,
            },
            Schedule::Adversarial {
                mode: AdversarialMode::RoundRobin { quantum: 3 },
                seed: 0,
            },
            Schedule::Adversarial {
                mode: AdversarialMode::RoundRobin { quantum: 7 },
                seed: 0,
            },
        ];
        for schedule in schedules {
            let ops = |gid: usize| 2 + gid % 6;
            let a = per_op_trace(schedule, 12, ops);
            let b = leased_trace(schedule, 12, ops);
            assert_eq!(a, b, "{schedule}: chunked dispatch changed the interleaving");
        }
    }

    #[test]
    fn replay_hint_round_trips() {
        let schedules = [
            Schedule::Sequential,
            Schedule::Seeded(7),
            Schedule::Seeded(u64::MAX),
            Schedule::Adversarial {
                mode: AdversarialMode::DelayOne,
                seed: 5,
            },
            Schedule::Adversarial {
                mode: AdversarialMode::Reverse,
                seed: 0,
            },
            Schedule::Adversarial {
                mode: AdversarialMode::RoundRobin { quantum: 3 },
                seed: 9,
            },
        ];
        for s in schedules {
            assert_eq!(Schedule::parse_hint(&s.replay_hint()), Some(s), "{s}");
        }
        // hints embedded in a full sanitizer report line parse too
        let line = format!(
            "racecheck: PlainWrite races with Atomic by group 3 \
             (schedule=seeded(seed=7) [replay: {}])",
            Schedule::Seeded(7).replay_hint()
        );
        assert_eq!(Schedule::parse_hint(&line), Some(Schedule::Seeded(7)));
        // the pool hint's `WD_SCHED_SEED=<n>` placeholder is not a
        // schedule, and plain prose has no mode token at all
        assert_eq!(Schedule::parse_hint(&Schedule::Pool.replay_hint()), None);
        assert_eq!(Schedule::parse_hint("no tokens here"), None);
    }

    #[test]
    fn wave_bounds_resident_groups() {
        // groups > wave: later groups must not start before an earlier
        // one retires
        let started = StdMutex::new(Vec::new());
        run_stepwise(Schedule::Seeded(9), 64, true, |gid, _, _| {
            started.lock().unwrap().push(gid);
            0
        });
        let order = started.into_inner().unwrap();
        assert_eq!(order.len(), 64);
        let wave = wave_size().min(64);
        // group `wave + k` is only admitted after `k + 1` retirements, so
        // it cannot appear in the log before that many earlier entries
        for (pos, &g) in order.iter().enumerate() {
            if g >= wave {
                assert!(
                    pos > g - wave,
                    "group {g} ran at position {pos}, before the wave could admit it"
                );
            }
        }
    }

    #[test]
    fn from_env_parses_modes() {
        // avoid mutating the process env (tests run concurrently); just
        // exercise the default path
        assert_eq!(Schedule::from_env(), Schedule::Pool);
        assert!(Schedule::Seeded(3).is_stepwise());
        assert!(!Schedule::Sequential.is_stepwise());
        assert_eq!(format!("{}", Schedule::Seeded(3)), "seeded(seed=3)");
    }
}
