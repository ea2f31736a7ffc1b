//! `wd-sanitizer` — a `compute-sanitizer` analogue for the SIMT engine.
//!
//! Real CUDA development leans on `compute-sanitizer`'s four tools to
//! catch protocol bugs that end-state tests miss; this module is the
//! software-simulator equivalent. Because every device-memory access
//! already flows through [`crate::simt::GroupCtx`], that API is a perfect
//! instrumentation choke point: shadow state is attached to every device
//! word and each counted memory operation is checked *at access time*.
//!
//! Four detectors, individually selectable via [`SanitizerSet`]:
//!
//! * **racecheck** ([`racecheck`]) — FastTrack-style happens-before
//!   detection of plain-load/write and write/write races between SIMT
//!   groups. CAS/atomic operations create release/acquire edges through a
//!   per-word sync vector clock; group epochs advance at releases (after
//!   the epoch is published) and at collectives (ballots) — per-access
//!   ticking buys no extra precision, see the [`racecheck`] module docs —
//!   so an unsynchronized plain publish store racing an annotated shared
//!   store is flagged even when the outcome happens to look correct.
//!   Under stepwise schedules release publication is batched and flushed
//!   at schedule-quantum boundaries.
//! * **initcheck** ([`initcheck`]) — a valid-bit shadow per half of a
//!   device word, set by `h2d`/`fill`/`peer_copy`/kernel stores and cleared on
//!   (re)allocation, flags reads of never-written words or halves (e.g.
//!   probing a table whose EMPTY-fill was skipped).
//! * **memcheck** ([`memcheck`]) — out-of-bounds streaming accesses are
//!   reported and *contained* (the access is skipped, reads return 0), and
//!   scratch allocations leaked past their guard (`mem::forget`) are
//!   reported when the device memory drops. `DeviceMemory::reset()` with
//!   outstanding [`crate::ScratchGuard`]s panics unconditionally.
//! * **synccheck** ([`synccheck`]) — masked collectives
//!   ([`crate::GroupCtx::ballot_where`]) flag lanes of one coalesced group
//!   reaching a group op with divergent participation masks.
//!
//! Enable globally with `WD_SANITIZE=race,init,mem,sync` (or `all`), which
//! attaches shadow state at [`crate::Device`] construction with the
//! fail-fast [`Policy::Panic`]; or per device with
//! [`crate::Device::sanitized`] / [`crate::Device::sanitized_collecting`];
//! or per launch with `LaunchOptions::sanitize` (lazy attachment marks
//! pre-existing memory valid to avoid initcheck false positives).
//!
//! Every [`Report`] carries the kernel label, group/lane ids, the absolute
//! word index and the launch's schedule — findings made under a
//! deterministic schedule replay bit-for-bit from the printed `WD_SCHED_*`
//! settings. With every detector off the hot path costs exactly one
//! predictable `Option` branch per operation: no locks, no allocation,
//! and the op counters are untouched either way.

pub mod initcheck;
pub mod memcheck;
pub mod racecheck;
pub mod synccheck;

use crate::mem::DevSlice;
use crate::sched::Schedule;
use initcheck::ValidBits;
use parking_lot::Mutex;
use racecheck::{AccessKind, GroupClock, RaceState, BOTH};
use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Which detectors are active — a small bitset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SanitizerSet(u8);

impl SanitizerSet {
    /// No detectors (the zero-cost default).
    pub const NONE: SanitizerSet = SanitizerSet(0);
    /// Happens-before race detection.
    pub const RACE: SanitizerSet = SanitizerSet(1);
    /// Uninitialised-read detection.
    pub const INIT: SanitizerSet = SanitizerSet(2);
    /// Out-of-bounds / leak detection.
    pub const MEM: SanitizerSet = SanitizerSet(4);
    /// Divergent-collective detection.
    pub const SYNC: SanitizerSet = SanitizerSet(8);
    /// All four detectors.
    pub const ALL: SanitizerSet = SanitizerSet(15);

    /// Union of two sets.
    #[must_use]
    pub fn union(self, other: SanitizerSet) -> SanitizerSet {
        SanitizerSet(self.0 | other.0)
    }

    /// Whether no detector is selected.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Racecheck selected?
    #[must_use]
    pub fn race(self) -> bool {
        self.0 & Self::RACE.0 != 0
    }

    /// Initcheck selected?
    #[must_use]
    pub fn init(self) -> bool {
        self.0 & Self::INIT.0 != 0
    }

    /// Memcheck selected?
    #[must_use]
    pub fn mem(self) -> bool {
        self.0 & Self::MEM.0 != 0
    }

    /// Synccheck selected?
    #[must_use]
    pub fn sync(self) -> bool {
        self.0 & Self::SYNC.0 != 0
    }

    /// Parses a comma-separated detector list: `race`, `init`, `mem`,
    /// `sync`, `all` (aliases: `racecheck`, `initcheck`, `memcheck`,
    /// `synccheck`). Empty strings, `0`, `off` and `none` select nothing;
    /// unknown tokens are ignored.
    #[must_use]
    pub fn parse(spec: &str) -> SanitizerSet {
        let mut set = SanitizerSet::NONE;
        for tok in spec.split(',') {
            set = set.union(match tok.trim() {
                "race" | "racecheck" => Self::RACE,
                "init" | "initcheck" => Self::INIT,
                "mem" | "memcheck" => Self::MEM,
                "sync" | "synccheck" => Self::SYNC,
                "all" | "full" => Self::ALL,
                _ => Self::NONE,
            });
        }
        set
    }

    /// Reads the detector set from the `WD_SANITIZE` environment variable
    /// (see [`SanitizerSet::parse`]); unset means none.
    #[must_use]
    pub fn from_env() -> SanitizerSet {
        std::env::var("WD_SANITIZE").map_or(Self::NONE, |v| Self::parse(&v))
    }
}

impl std::fmt::Display for SanitizerSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_empty() {
            return write!(f, "none");
        }
        let mut first = true;
        for (on, name) in [
            (self.race(), "race"),
            (self.init(), "init"),
            (self.mem(), "mem"),
            (self.sync(), "sync"),
        ] {
            if on {
                if !first {
                    write!(f, ",")?;
                }
                write!(f, "{name}")?;
                first = false;
            }
        }
        Ok(())
    }
}

/// The detector that produced a [`Report`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Detector {
    /// Happens-before race detection.
    Race,
    /// Uninitialised-read detection.
    Init,
    /// Bounds / leak detection.
    Mem,
    /// Divergent-collective detection.
    Sync,
}

impl Detector {
    /// Tool-style name (`racecheck`, …).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Detector::Race => "racecheck",
            Detector::Init => "initcheck",
            Detector::Mem => "memcheck",
            Detector::Sync => "synccheck",
        }
    }
}

impl std::fmt::Display for Detector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One sanitizer finding.
///
/// Carries everything needed to replay it: the kernel label, the group
/// (and lane, for per-lane accesses), the absolute device word, and the
/// schedule of the launch — under a deterministic schedule the printed
/// `WD_SCHED_*` settings reproduce the finding bit-for-bit.
#[derive(Debug, Clone)]
pub struct Report {
    /// Which detector fired.
    pub detector: Detector,
    /// Kernel label of the launch.
    pub kernel: String,
    /// Group id within the launch.
    pub group: usize,
    /// Lane rank within the group, when the access is per-lane.
    pub lane: Option<u32>,
    /// Absolute device word index, when the finding is about a word.
    pub word: Option<usize>,
    /// Schedule of the launch (e.g. `seeded(seed=7)`), plus the
    /// environment settings replaying it.
    pub schedule: String,
    /// Human-readable description of the finding.
    pub message: String,
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] kernel=`{}` group={}",
            self.detector, self.kernel, self.group
        )?;
        if let Some(lane) = self.lane {
            write!(f, " lane={lane}")?;
        }
        if let Some(word) = self.word {
            write!(f, " word={word}")?;
        }
        write!(f, ": {} (schedule {})", self.message, self.schedule)
    }
}

/// What happens when a launch produced findings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Panic at the end of the launch, printing every finding — the
    /// fail-fast mode `WD_SANITIZE` uses in CI.
    Panic,
    /// Keep collecting; findings are drained with
    /// [`crate::Device::take_sanitizer_reports`] (what the mutation-double
    /// tests use to assert on reports).
    Collect,
}

/// Findings kept before the sink saturates (further ones only count).
const REPORT_CAP: usize = 256;

/// Per-device sanitizer shadow state, attached once (first attachment
/// wins) and shared by every launch on the device.
#[derive(Debug)]
pub struct DeviceSanitizer {
    set: SanitizerSet,
    policy: Policy,
    valid: Option<ValidBits>,
    reports: Mutex<Vec<Report>>,
    dropped: AtomicUsize,
}

impl DeviceSanitizer {
    pub(crate) fn new(
        set: SanitizerSet,
        policy: Policy,
        words: usize,
        assume_valid: bool,
    ) -> Self {
        Self {
            set,
            policy,
            valid: set.init().then(|| ValidBits::new(words, assume_valid)),
            reports: Mutex::new(Vec::new()),
            dropped: AtomicUsize::new(0),
        }
    }

    /// Detectors this device checks.
    #[must_use]
    pub fn set(&self) -> SanitizerSet {
        self.set
    }

    /// The failure policy.
    #[must_use]
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// The initcheck valid-bit shadow (present iff `init` is selected).
    pub(crate) fn valid(&self) -> Option<&ValidBits> {
        self.valid.as_ref()
    }

    /// Records a finding (capped; overflow only counts).
    pub(crate) fn submit(&self, report: Report) {
        let mut r = self.reports.lock();
        if r.len() < REPORT_CAP {
            r.push(report);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.reports.lock().len()
    }

    pub(crate) fn clone_reports(&self) -> Vec<Report> {
        self.reports.lock().clone()
    }

    pub(crate) fn take_reports(&self) -> Vec<Report> {
        std::mem::take(&mut *self.reports.lock())
    }

    /// Findings dropped past the cap.
    #[must_use]
    pub fn dropped(&self) -> usize {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// Per-launch sanitizer context: borrows the device shadow, owns the
/// launch-scoped race state (races are checked within one launch — the
/// CUDA default-stream analogy; cross-launch hazards are out of scope),
/// and remembers the schedule string for reports.
pub(crate) struct LaunchSanitizer<'a> {
    dev: &'a DeviceSanitizer,
    set: SanitizerSet,
    kernel: &'a str,
    schedule: String,
    /// Stepwise launches batch release publication (see [`racecheck`]);
    /// pool/sequential launches publish eagerly.
    stepwise: bool,
    race: Option<RaceState>,
    baseline: usize,
}

impl<'a> LaunchSanitizer<'a> {
    pub(crate) fn new(
        dev: &'a DeviceSanitizer,
        set: SanitizerSet,
        kernel: &'a str,
        schedule: Schedule,
    ) -> Self {
        Self {
            dev,
            set,
            kernel,
            schedule: format!("{schedule} [replay: {}]", schedule.replay_hint()),
            stepwise: schedule.is_stepwise(),
            race: set.race().then(RaceState::new),
            baseline: dev.len(),
        }
    }

    /// The valid-bit shadow, iff this launch checks initcheck *and* the
    /// device shadow carries valid bits (the first attachment decides).
    fn valid(&self) -> Option<&ValidBits> {
        if self.set.init() {
            self.dev.valid()
        } else {
            None
        }
    }

    /// A fresh vector clock for one group, iff racecheck is on. Under a
    /// stepwise schedule the clock buffers release publication until the
    /// group yields (see [`LaunchSanitizer::flush_releases`]).
    pub(crate) fn group_clock(&self, group: usize) -> Option<RefCell<GroupClock>> {
        self.race.as_ref().map(|_| {
            let clock = GroupClock::new(group as u32);
            RefCell::new(if self.stepwise { clock.with_batching() } else { clock })
        })
    }

    /// Publishes any buffered release edge of `clock`. Called before a
    /// group yields the schedule token and at group retirement — the
    /// points where another group could next observe the release.
    pub(crate) fn flush_releases(&self, clock: Option<&RefCell<GroupClock>>) {
        if let (Some(rs), Some(clock)) = (self.race.as_ref(), clock) {
            rs.flush_releases(&mut clock.borrow_mut());
        }
    }

    fn report(
        &self,
        detector: Detector,
        group: usize,
        lane: Option<u32>,
        word: Option<usize>,
        message: String,
    ) {
        self.dev.submit(Report {
            detector,
            kernel: self.kernel.to_owned(),
            group,
            lane,
            word,
            schedule: self.schedule.clone(),
            message,
        });
    }

    /// Checks one read of `slice[idx]` (already resolved, in-bounds).
    pub(crate) fn on_read(
        &self,
        slice: DevSlice,
        idx: usize,
        kind: AccessKind,
        group: usize,
        lane: Option<u32>,
        clock: Option<&RefCell<GroupClock>>,
    ) {
        debug_assert!(kind.is_read());
        let abs = slice.offset + idx;
        if let Some(valid) = self.valid() {
            if self.set.init() && !valid.is_valid(abs) {
                let what = never_written(valid.halves(abs));
                // mark valid so each word reports at most once
                valid.set(abs);
                self.report(
                    Detector::Init,
                    group,
                    lane,
                    Some(abs),
                    format!(
                        "{} of {what} (slice offset={} len={}, idx={idx})",
                        kind.describe(),
                        slice.offset,
                        slice.len
                    ),
                );
            }
        }
        self.race_access(abs, slice, idx, kind, BOTH, group, lane, clock);
    }

    /// Checks a plain store of one half of `slice[idx]` (bit 0 of `half`
    /// the low half, bit 1 the high half) and marks that half initialised.
    pub(crate) fn on_half_write(
        &self,
        slice: DevSlice,
        idx: usize,
        half: u8,
        group: usize,
        lane: u32,
        clock: Option<&RefCell<GroupClock>>,
    ) {
        let abs = slice.offset + idx;
        let kind = AccessKind::PlainWrite;
        self.race_access(abs, slice, idx, kind, half, group, Some(lane), clock);
        if let Some(valid) = self.valid() {
            valid.set_halves(abs, u64::from(half));
        }
    }

    /// Checks one write of `slice[idx]` and marks the word initialised.
    pub(crate) fn on_write(
        &self,
        slice: DevSlice,
        idx: usize,
        kind: AccessKind,
        group: usize,
        lane: Option<u32>,
        clock: Option<&RefCell<GroupClock>>,
    ) {
        debug_assert!(!kind.is_read());
        let abs = slice.offset + idx;
        self.race_access(abs, slice, idx, kind, BOTH, group, lane, clock);
        if let Some(valid) = self.valid() {
            valid.set(abs);
        }
    }

    /// Checks one atomic read-modify-write of `slice[idx]`: initcheck
    /// treats it as read+write, racecheck as a synchronizing access.
    pub(crate) fn on_atomic(
        &self,
        slice: DevSlice,
        idx: usize,
        group: usize,
        clock: Option<&RefCell<GroupClock>>,
    ) {
        let abs = slice.offset + idx;
        if let Some(valid) = self.valid() {
            if self.set.init() && !valid.is_valid(abs) {
                let what = never_written(valid.halves(abs));
                valid.set(abs);
                self.report(
                    Detector::Init,
                    group,
                    None,
                    Some(abs),
                    format!(
                        "atomic read-modify-write of {what} (slice offset={} len={}, idx={idx})",
                        slice.offset, slice.len
                    ),
                );
            } else {
                valid.set(abs);
            }
        }
        self.race_access(abs, slice, idx, AccessKind::Atomic, BOTH, group, None, clock);
    }

    #[allow(clippy::too_many_arguments)]
    fn race_access(
        &self,
        abs: usize,
        slice: DevSlice,
        idx: usize,
        kind: AccessKind,
        halves: u8,
        group: usize,
        lane: Option<u32>,
        clock: Option<&RefCell<GroupClock>>,
    ) {
        if let (Some(rs), Some(clock)) = (self.race.as_ref(), clock) {
            let mut clock = clock.borrow_mut();
            if let Some(prior) = rs.on_halves(abs, halves, &mut clock, kind) {
                let half = match halves {
                    0b01 => " of the low half",
                    0b10 => " of the high half",
                    _ => "",
                };
                self.report(
                    Detector::Race,
                    group,
                    lane,
                    Some(abs),
                    format!(
                        "{}{half} races with {} by group {} (no happens-before edge; \
                         slice offset={} len={}, idx={idx})",
                        kind.describe(),
                        prior.kind.describe(),
                        prior.gid,
                        slice.offset,
                        slice.len
                    ),
                );
            }
        }
    }

    /// Checks a coalesced window read of `count` consecutive slots
    /// starting at `slice[start]`, wrapping at `slice.len` — the batched
    /// fast path behind [`crate::GroupCtx::read_window`]. Initcheck
    /// walks the words in lane order, exactly as per-lane
    /// [`LaunchSanitizer::on_read`] calls would; racecheck hands each
    /// contiguous absolute run to [`RaceState::on_window_reads`] so the
    /// whole window costs one shard lock + one page lookup instead of
    /// `count` of each. Verdicts and reports are identical to the
    /// per-word path.
    pub(crate) fn on_window_read(
        &self,
        slice: DevSlice,
        start: usize,
        count: usize,
        group: usize,
        clock: Option<&RefCell<GroupClock>>,
    ) {
        if self.valid().is_some() {
            let mut idx = start;
            for lane in 0..count {
                self.on_read(
                    slice,
                    idx,
                    AccessKind::RelaxedRead,
                    group,
                    Some(lane as u32),
                    None, // racecheck handled batched below
                );
                idx += 1;
                if idx == slice.len {
                    idx = 0;
                }
            }
        }
        if let (Some(rs), Some(clock)) = (self.race.as_ref(), clock) {
            let mut clk = clock.borrow_mut();
            // at most two contiguous runs: before and after the wrap
            let first = count.min(slice.len - start);
            for (run_start, lane0, run_count) in
                [(start, 0usize, first), (0, first, count - first)]
            {
                if run_count == 0 {
                    continue;
                }
                for (off, prior) in
                    rs.on_window_reads(slice.offset + run_start, run_count, &mut clk)
                {
                    let idx = run_start + off as usize;
                    self.report(
                        Detector::Race,
                        group,
                        Some((lane0 + off as usize) as u32),
                        Some(slice.offset + idx),
                        format!(
                            "{} races with {} by group {} (no happens-before edge; \
                             slice offset={} len={}, idx={idx})",
                            AccessKind::RelaxedRead.describe(),
                            prior.kind.describe(),
                            prior.gid,
                            slice.offset,
                            slice.len
                        ),
                    );
                }
            }
        }
    }

    /// Bounds check for streaming accesses (the only counted ops without
    /// a wrap). Returns `false` — and reports — when `idx` is out of
    /// bounds; the caller then *contains* the access by skipping it.
    pub(crate) fn stream_in_bounds(
        &self,
        op: &str,
        slice: DevSlice,
        idx: usize,
        group: usize,
    ) -> bool {
        if idx < slice.len {
            return true;
        }
        if self.set.mem() {
            self.report(
                Detector::Mem,
                group,
                None,
                Some(slice.offset + idx),
                memcheck::oob_message(op, slice, idx),
            );
        }
        false
    }

    /// Whether out-of-bounds containment is active (the access should be
    /// skipped rather than allowed to trip the debug assertion).
    pub(crate) fn contains_oob(&self) -> bool {
        self.set.mem()
    }

    /// Epoch advance at a collective (ballot/any/all): lanes of the group
    /// synchronize with each other here, so the group's clock ticks.
    pub(crate) fn on_collective(&self, clock: Option<&RefCell<GroupClock>>) {
        if let Some(clock) = clock {
            clock.borrow_mut().advance();
        }
    }

    /// Checks a masked collective's participation mask (synccheck).
    pub(crate) fn on_masked_collective(
        &self,
        group: usize,
        site: u32,
        active: u32,
        full: u32,
        clock: Option<&RefCell<GroupClock>>,
    ) {
        self.on_collective(clock);
        if self.set.sync() {
            if let Some(msg) = synccheck::divergence(site, active, full) {
                self.report(Detector::Sync, group, None, None, msg);
            }
        }
    }

    /// End-of-launch hook: under [`Policy::Panic`], any finding made
    /// during this launch aborts with a replayable message.
    ///
    /// # Panics
    /// Panics when the policy is `Panic` and the launch produced findings.
    pub(crate) fn finish(&self) {
        if self.dev.policy() != Policy::Panic {
            return;
        }
        let reports = self.dev.clone_reports();
        if reports.len() <= self.baseline {
            return;
        }
        let new = &reports[self.baseline..];
        let mut msg = format!(
            "wd-sanitizer: {} finding(s) in kernel `{}` (schedule {}):\n",
            new.len(),
            self.kernel,
            self.schedule
        );
        for r in new {
            msg.push_str(&format!("  {r}\n"));
        }
        panic!("{msg}");
    }
}

/// What initcheck says a word with only `halves` defined is.
fn never_written(halves: u64) -> &'static str {
    match halves {
        0b01 => "device word whose high half was never written",
        0b10 => "device word whose low half was never written",
        _ => "never-written device word",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_parses_detector_lists() {
        assert_eq!(SanitizerSet::parse("race,init,mem,sync"), SanitizerSet::ALL);
        assert_eq!(SanitizerSet::parse("all"), SanitizerSet::ALL);
        assert_eq!(SanitizerSet::parse(""), SanitizerSet::NONE);
        assert_eq!(SanitizerSet::parse("off"), SanitizerSet::NONE);
        let rm = SanitizerSet::parse("race, mem");
        assert!(rm.race() && rm.mem() && !rm.init() && !rm.sync());
        assert_eq!(rm.to_string(), "race,mem");
        assert_eq!(SanitizerSet::NONE.to_string(), "none");
    }

    #[test]
    fn set_union_and_accessors() {
        let s = SanitizerSet::RACE.union(SanitizerSet::SYNC);
        assert!(s.race() && s.sync() && !s.init() && !s.mem());
        assert!(SanitizerSet::NONE.is_empty());
        assert!(!s.is_empty());
    }

    #[test]
    fn report_display_carries_replay_context() {
        let r = Report {
            detector: Detector::Race,
            kernel: "k".into(),
            group: 3,
            lane: Some(1),
            word: Some(42),
            schedule: "seeded(seed=7)".into(),
            message: "plain write races with plain write by group 0".into(),
        };
        let s = r.to_string();
        assert!(s.contains("[racecheck]"));
        assert!(s.contains("group=3"));
        assert!(s.contains("lane=1"));
        assert!(s.contains("word=42"));
        assert!(s.contains("seeded(seed=7)"));
    }

    #[test]
    fn report_sink_caps_and_counts_overflow() {
        let ds = DeviceSanitizer::new(SanitizerSet::MEM, Policy::Collect, 8, false);
        for _ in 0..REPORT_CAP + 5 {
            ds.submit(Report {
                detector: Detector::Mem,
                kernel: "k".into(),
                group: 0,
                lane: None,
                word: None,
                schedule: "pool".into(),
                message: "m".into(),
            });
        }
        assert_eq!(ds.len(), REPORT_CAP);
        assert_eq!(ds.dropped(), 5);
        assert_eq!(ds.take_reports().len(), REPORT_CAP);
        assert_eq!(ds.len(), 0);
    }
}
