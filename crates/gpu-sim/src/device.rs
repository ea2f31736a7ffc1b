//! The simulated device: memory + kernel launcher + timing.

use crate::counters::{CounterSnapshot, KernelCounters, LocalCounters};
use crate::mem::{DevSlice, DeviceMemory, OutOfMemory};
use crate::sanitizer::{LaunchSanitizer, Policy, Report, SanitizerSet};
use crate::sched::{self, Schedule, StepSched};
use crate::simt::{GroupCtx, GroupSize};
use crate::spec::DeviceSpec;
use crate::timing::{TimeBreakdown, TimingModel};
use rayon::prelude::*;

/// Options for a kernel launch.
#[derive(Debug, Clone, Copy, Default)]
pub struct LaunchOptions {
    /// Bytes of the kernel's hot working set **at modeled scale** — used
    /// for the >2 GB CAS degradation artifact. When experiments run
    /// functionally scaled down, pass the full-scale footprint here.
    /// `None` means the footprint is unknown: no degradation.
    pub modeled_working_set: Option<u64>,
    /// How groups interleave: the racing pool (default), sequential, or
    /// one of the deterministic stepwise schedules (see
    /// [`crate::sched`]).
    pub schedule: Schedule,
    /// `wd-sanitizer` detectors for this launch, unioned with whatever is
    /// attached to the device (via `WD_SANITIZE` or
    /// [`Device::sanitized`]). When this launch is the first to request
    /// sanitizing, shadow state attaches lazily with all existing memory
    /// assumed initialised.
    pub sanitize: SanitizerSet,
    /// Per-op dispatch (`true`) instead of chunked dispatch (`false`,
    /// the default) for stepwise schedules on this launch. Both modes
    /// produce bit-identical interleavings, counters and reports; the
    /// per-op path is the reference the equivalence tests A/B the
    /// chunked one against within one process.
    pub per_op_dispatch: bool,
}

impl LaunchOptions {
    /// Sets the modeled working set.
    #[must_use]
    pub fn with_working_set(mut self, bytes: u64) -> Self {
        self.modeled_working_set = Some(bytes);
        self
    }

    /// Selects the group schedule for this launch.
    #[must_use]
    pub fn with_schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Selects `wd-sanitizer` detectors for this launch (see the field
    /// docs on [`LaunchOptions::sanitize`]).
    #[must_use]
    pub fn sanitize(mut self, set: SanitizerSet) -> Self {
        self.sanitize = set;
        self
    }

    /// Selects a scheduling decision at every counted op (`true`) or
    /// chunked leases (`false`) for stepwise schedules (see the field
    /// docs on [`LaunchOptions::per_op_dispatch`]).
    #[must_use]
    pub fn with_per_op_dispatch(mut self, per_op: bool) -> Self {
        self.per_op_dispatch = per_op;
        self
    }
}

/// Groups of one pool task. A launch of no more is a single chunk.
const CHUNK: usize = 1024;

/// Runs the groups `0..num_groups` of a launch as its schedule says.
/// `chunk(lo, hi, concurrent)` runs groups `lo..hi` in id order on one
/// thread: the whole grid under `Sequential` and for a pool launch of one
/// chunk, else one chunk of the pool's, which other threads' chunks run
/// beside (`concurrent`). `stepped(gid, sched, lease)` runs one group
/// under a stepwise schedule and returns its unused lease.
pub(crate) fn run_grid(
    opts: LaunchOptions,
    num_groups: usize,
    chunk: impl Fn(usize, usize, bool) + Sync,
    stepped: impl Fn(usize, &StepSched, u64) -> u64 + Sync,
) {
    match opts.schedule {
        Schedule::Pool if num_groups > CHUNK => {
            // Chunk groups so per-task overhead stays negligible even
            // for millions of tiny groups (perf-book: amortize
            // par_iter tasks). Each chunk flushes its accumulator
            // once — `u64` addition commutes, so totals stay
            // bit-identical to per-op (and per-group) updates under
            // every interleaving.
            let chunks = num_groups.div_ceil(CHUNK);
            (0..chunks).into_par_iter().for_each(|c| {
                let lo = c * CHUNK;
                chunk(lo, (lo + CHUNK).min(num_groups), true);
            });
        }
        Schedule::Sequential | Schedule::Pool => chunk(0, num_groups, false),
        stepwise => {
            let chunked = !opts.per_op_dispatch;
            sched::run_stepwise(stepwise, num_groups, chunked, stepped);
        }
    }
}

/// Result of a kernel launch: measured counters and modeled time.
#[derive(Debug, Clone, Copy)]
pub struct KernelStats {
    /// Kernel name (for reports).
    pub name: &'static str,
    /// Access-pattern counters from the functional run.
    pub counters: CounterSnapshot,
    /// Per-term time breakdown from the analytical model.
    pub breakdown: TimeBreakdown,
    /// Simulated seconds (breakdown total).
    pub sim_time: f64,
    /// Group size of the launch.
    pub group_size: GroupSize,
    /// Number of groups launched.
    pub num_groups: u64,
}

impl KernelStats {
    /// Simulated operation rate, given the number of logical operations
    /// the launch performed.
    #[must_use]
    pub fn ops_per_sec(&self, ops: u64) -> f64 {
        ops as f64 / self.sim_time
    }

    /// Merges stats of a multi-launch logical operation: counters add,
    /// simulated times add, the name and group size of `self` win.
    #[must_use]
    pub fn merged(mut self, other: &KernelStats) -> KernelStats {
        self.counters = self.counters.merged(other.counters);
        self.sim_time += other.sim_time;
        self.num_groups += other.num_groups;
        self
    }
}

/// Cumulative per-device counters over every launch since construction.
///
/// Unlike the per-launch [`KernelStats`], which callers may drop (e.g. a
/// call that keeps only its answers), these accumulate
/// unconditionally inside [`Device::launch`] — a telemetry layer reading
/// them never undercounts, whatever path issued the kernels.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct LifetimeStats {
    /// Kernel launches completed on this device.
    pub launches: u64,
    /// Element-wise sum of every completed launch's counter snapshot.
    pub counters: CounterSnapshot,
    /// Sum of every completed launch's modeled time (seconds).
    pub sim_time: f64,
}

/// One simulated CUDA device: global memory, a calibrated spec and a
/// kernel launcher.
#[derive(Debug)]
pub struct Device {
    /// Device identifier within a node (0-based).
    pub id: usize,
    mem: DeviceMemory,
    timing: TimingModel,
    /// Cumulative counters over all launches (see [`LifetimeStats`]).
    lifetime: std::sync::Mutex<LifetimeStats>,
}

impl Device {
    /// Creates device `id` with the full VRAM of `spec` available.
    #[must_use]
    pub fn new(id: usize, spec: DeviceSpec) -> Self {
        let words = (spec.vram_bytes / 8) as usize;
        Self {
            id,
            mem: DeviceMemory::new(words),
            timing: TimingModel::new(spec),
            lifetime: std::sync::Mutex::new(LifetimeStats::default()),
        }
        .with_env_sanitizer()
    }

    /// Creates a small test device with `words` words of memory.
    #[must_use]
    pub fn with_words(id: usize, words: usize) -> Self {
        Self {
            id,
            mem: DeviceMemory::new(words),
            timing: TimingModel::new(DeviceSpec::test_small((words as u64) * 8)),
            lifetime: std::sync::Mutex::new(LifetimeStats::default()),
        }
        .with_env_sanitizer()
    }

    /// Cumulative counters over every launch completed on this device.
    ///
    /// These accumulate inside [`Device::launch`] itself, so they count
    /// kernels whose per-launch [`KernelStats`] the caller discarded —
    /// the authoritative source for service-layer telemetry.
    ///
    /// # Panics
    /// Panics if the internal lock was poisoned (a kernel panicked while
    /// retiring its stats).
    #[must_use]
    pub fn lifetime_stats(&self) -> LifetimeStats {
        *self.lifetime.lock().expect("lifetime stats lock")
    }

    /// Attaches the `WD_SANITIZE` detector set (fail-fast), if any. Runs
    /// at construction, before any memory is written, so initcheck tracks
    /// the full lifetime of every word.
    fn with_env_sanitizer(self) -> Self {
        let set = SanitizerSet::from_env();
        if !set.is_empty() {
            self.mem.attach_sanitizer(set, Policy::Panic, false);
        }
        self
    }

    /// Attaches `set` with the fail-fast [`Policy::Panic`]: any finding
    /// aborts at the end of the offending launch. First attachment wins —
    /// under `WD_SANITIZE` the environment's set is already in place.
    #[must_use]
    pub fn sanitized(self, set: SanitizerSet) -> Self {
        self.mem.attach_sanitizer(set, Policy::Panic, false);
        self
    }

    /// Attaches `set` with [`Policy::Collect`]: findings accumulate and
    /// are drained with [`Device::take_sanitizer_reports`] — what tests
    /// asserting on specific reports use.
    #[must_use]
    pub fn sanitized_collecting(self, set: SanitizerSet) -> Self {
        self.mem.attach_sanitizer(set, Policy::Collect, false);
        self
    }

    /// Clones the sanitizer findings collected so far (empty when no
    /// sanitizer is attached).
    #[must_use]
    pub fn sanitizer_reports(&self) -> Vec<Report> {
        self.mem
            .sanitizer()
            .map(crate::sanitizer::DeviceSanitizer::clone_reports)
            .unwrap_or_default()
    }

    /// Drains the sanitizer findings collected so far.
    pub fn take_sanitizer_reports(&self) -> Vec<Report> {
        self.mem
            .sanitizer()
            .map(crate::sanitizer::DeviceSanitizer::take_reports)
            .unwrap_or_default()
    }

    /// The device's memory (host-side, uncounted access).
    #[must_use]
    pub fn mem(&self) -> &DeviceMemory {
        &self.mem
    }

    /// The device specification.
    #[must_use]
    pub fn spec(&self) -> &DeviceSpec {
        self.timing.spec()
    }

    /// The timing model.
    #[must_use]
    pub fn timing(&self) -> &TimingModel {
        &self.timing
    }

    /// Allocates `len` words of global memory.
    ///
    /// # Errors
    /// Returns [`OutOfMemory`] when VRAM is exhausted — the capacity limit
    /// whose removal motivates the paper's multi-GPU scheme.
    pub fn alloc(&self, len: usize) -> Result<DevSlice, OutOfMemory> {
        self.mem.alloc(len)
    }

    /// Allocates transient scratch (reclaimed when the guard drops) —
    /// staging buffers for host-API bulk operations.
    ///
    /// # Errors
    /// Returns [`OutOfMemory`] when scratch would collide with persistent
    /// allocations.
    pub fn alloc_scratch(&self, len: usize) -> Result<crate::mem::ScratchGuard<'_>, OutOfMemory> {
        self.mem.alloc_scratch(len)
    }

    /// Reserves (or reuses) the device-lifetime scratch arena — a staging
    /// buffer that survives [`DeviceMemory::reset`] so measurement sweeps
    /// stop re-allocating per point. See
    /// [`DeviceMemory::arena_reserve`].
    ///
    /// # Errors
    /// Returns [`OutOfMemory`] when the arena would collide with
    /// persistent allocations.
    pub fn arena_reserve(&self, len: usize) -> Result<DevSlice, OutOfMemory> {
        self.mem.arena_reserve(len)
    }

    /// Releases the scratch arena (see [`DeviceMemory::arena_release`]).
    pub fn arena_release(&self) {
        self.mem.arena_release();
    }

    /// The sanitizer context of a launch named `name`: whatever is
    /// attached to the device, plus the launch's request. A launch-only
    /// request attaches lazily with pre-existing memory assumed
    /// initialised (there is no history for it), mirroring attaching
    /// compute-sanitizer to a running process.
    pub(crate) fn launch_sanitizer<'d>(
        &'d self,
        name: &'d str,
        opts: LaunchOptions,
    ) -> Option<LaunchSanitizer<'d>> {
        let dev_set = self
            .mem
            .sanitizer()
            .map_or(SanitizerSet::NONE, |s| s.set());
        let eff = dev_set.union(opts.sanitize);
        (!eff.is_empty()).then(|| {
            let ds = self.mem.attach_sanitizer(eff, Policy::Panic, true);
            LaunchSanitizer::new(ds, eff, name, opts.schedule)
        })
    }

    /// Books one completed launch that counted `counters` and took
    /// `sim_time` into the lifetime totals.
    pub(crate) fn retire_launch(&self, counters: CounterSnapshot, sim_time: f64) {
        let mut lt = self.lifetime.lock().expect("lifetime stats lock");
        lt.launches += 1;
        lt.counters = lt.counters.merged(counters);
        lt.sim_time += sim_time;
    }

    /// Launches `num_groups` coalesced groups of size `group_size` running
    /// `kernel`, returning measured counters and modeled time.
    ///
    /// Groups execute concurrently on the Rayon pool (or as
    /// [`LaunchOptions::schedule`] says); every inter-group interleaving
    /// is a legal schedule of the corresponding CUDA grid. A pool launch
    /// of at most 1 024 groups is one chunk, which the calling
    /// thread runs itself: it takes the sequential arm, and neither that
    /// arm nor the rest of a launch touches the heap. A larger one runs on
    /// the rayon shim's persistent workers and allocates nothing but what
    /// reading a set `RAYON_NUM_THREADS` costs. Every arm counts into one
    /// counter set on the launch's own stack, which each chunk (each
    /// group, under a stepwise schedule) flushes its accumulator into once
    /// it is done.
    pub fn launch<F>(
        &self,
        name: &'static str,
        num_groups: usize,
        group_size: GroupSize,
        opts: LaunchOptions,
        kernel: F,
    ) -> KernelStats
    where
        F: Fn(&GroupCtx) + Sync,
    {
        let san = self.launch_sanitizer(name, opts);
        let san = san.as_ref();
        let sink = KernelCounters::default();
        run_grid(
            opts,
            num_groups,
            |lo, hi, concurrent| {
                let local = LocalCounters::new();
                for gid in lo..hi {
                    kernel(&GroupCtx::new(&self.mem, &local, gid, group_size, san, concurrent));
                }
                local.flush_into(&sink, (hi - lo) as u64);
            },
            |gid, step, lease| {
                let local = LocalCounters::new();
                let ctx =
                    GroupCtx::new_stepped(&self.mem, &local, gid, group_size, step, lease, san);
                kernel(&ctx);
                let unused = ctx.retire();
                drop(ctx);
                local.flush_into(&sink, 1);
                unused
            },
        );
        let (snapshot, chain) = sink.snapshot();
        if let Some(san) = san {
            san.finish();
        }
        let working_set = opts.modeled_working_set.unwrap_or(0);
        let mut breakdown =
            self.timing
                .kernel_time(snapshot, group_size, num_groups as u64, working_set);
        // a chain of flag waits is latency no other group's work hides
        if chain > 0 {
            breakdown.latency += self.timing.chain_latency(chain);
        }
        self.retire_launch(snapshot, breakdown.total());
        KernelStats {
            name,
            counters: snapshot,
            breakdown,
            sim_time: breakdown.total(),
            group_size,
            num_groups: num_groups as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sanitizer::Detector;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn launch_runs_every_group_once() {
        let dev = Device::with_words(0, 1024);
        let hits = AtomicU64::new(0);
        let stats = dev.launch(
            "count",
            500,
            GroupSize::new(4),
            LaunchOptions::default(),
            |_ctx| {
                hits.fetch_add(1, Ordering::Relaxed);
            },
        );
        assert_eq!(hits.load(Ordering::Relaxed), 500);
        assert_eq!(stats.counters.groups, 500);
        assert!(stats.sim_time > 0.0);
    }

    #[test]
    fn lifetime_stats_accumulate_across_launches() {
        let dev = Device::with_words(0, 1024);
        assert_eq!(dev.lifetime_stats(), LifetimeStats::default());
        let s1 = dev.launch("a", 8, GroupSize::new(4), LaunchOptions::default(), |ctx| {
            ctx.bill_stream_bytes(64);
        });
        let s2 = dev.launch("b", 4, GroupSize::new(4), LaunchOptions::default(), |ctx| {
            ctx.bill_transactions(2);
        });
        let lt = dev.lifetime_stats();
        assert_eq!(lt.launches, 2);
        assert_eq!(lt.counters, s1.counters.merged(s2.counters));
        assert!((lt.sim_time - (s1.sim_time + s2.sim_time)).abs() < 1e-15);
    }

    #[test]
    fn sequential_launch_is_ordered() {
        let dev = Device::with_words(0, 1024);
        let order = std::sync::Mutex::new(Vec::new());
        dev.launch(
            "seq",
            16,
            GroupSize::new(1),
            LaunchOptions::default().with_schedule(Schedule::Sequential),
            |ctx| order.lock().unwrap().push(ctx.group_id()),
        );
        let order = order.into_inner().unwrap();
        assert_eq!(order, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_groups_share_memory_atomically() {
        let dev = Device::with_words(0, 64);
        let counter = dev.alloc(1).unwrap();
        dev.mem().fill(counter, 0);
        dev.launch(
            "inc",
            10_000,
            GroupSize::new(1),
            LaunchOptions::default(),
            |ctx| {
                let _ = ctx.atomic_add(counter, 0, 1);
            },
        );
        assert_eq!(dev.mem().d2h(counter)[0], 10_000);
    }

    #[test]
    fn stats_expose_rates_and_merge() {
        let dev = Device::with_words(0, 1024);
        let buf = dev.alloc(512).unwrap();
        dev.mem().fill(buf, 0);
        let s1 = dev.launch(
            "a",
            128,
            GroupSize::new(4),
            LaunchOptions::default(),
            |ctx| {
                let _ = ctx.read_window(buf, ctx.group_id() * 4);
            },
        );
        let s2 = s1.merged(&s1);
        assert_eq!(s2.counters.transactions, 2 * s1.counters.transactions);
        assert!((s2.sim_time - 2.0 * s1.sim_time).abs() < 1e-12);
        assert!(s1.ops_per_sec(128) > 0.0);
    }

    #[test]
    fn launch_level_sanitize_flags_uninit_read() {
        // lazy launch-level attachment (or the env-attached set when the
        // suite runs under WD_SANITIZE) must flag a read of a word that
        // was never written after the attach point
        let dev = Device::with_words(0, 64);
        let buf = dev.alloc(4).unwrap();
        // a second allocation is written after attach, so it is valid
        // even under lazy assume_valid attachment
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dev.launch(
                "first",
                1,
                GroupSize::new(1),
                LaunchOptions::default()
                    .with_schedule(Schedule::Sequential)
                    .sanitize(SanitizerSet::INIT),
                |_| {},
            );
            let fresh = dev.alloc(4).unwrap();
            dev.launch(
                "uninit_read",
                1,
                GroupSize::new(1),
                LaunchOptions::default()
                    .with_schedule(Schedule::Sequential)
                    .sanitize(SanitizerSet::INIT),
                |ctx| {
                    let _ = ctx.read(fresh, 0);
                },
            );
        }));
        match caught {
            // Panic policy (env or lazy attach): the launch aborted
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .unwrap_or_default();
                assert!(msg.contains("initcheck"), "unexpected panic: {msg}");
            }
            Ok(()) => panic!("uninitialised read went undetected"),
        }
        let _ = buf;
    }

    #[test]
    fn collecting_sanitizer_reports_instead_of_panicking() {
        let dev = Device::with_words(0, 64).sanitized_collecting(SanitizerSet::ALL);
        let buf = dev.alloc(4).unwrap();
        let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dev.launch(
                "uninit_read",
                1,
                GroupSize::new(1),
                LaunchOptions::default().with_schedule(Schedule::Sequential),
                |ctx| {
                    let _ = ctx.read(buf, 0);
                },
            );
        }));
        // an Err means the env's Panic attachment won (WD_SANITIZE was
        // set) — that equally proves the read was flagged
        if ran.is_ok() {
            // Collect policy took effect (first attachment was ours)
            let reports = dev.take_sanitizer_reports();
            assert!(
                reports
                    .iter()
                    .any(|r| r.detector == Detector::Init && r.kernel == "uninit_read"),
                "expected an initcheck report, got {reports:?}"
            );
            assert!(dev.sanitizer_reports().is_empty(), "take must drain");
        }
    }

    #[test]
    fn half_stores_are_checked_half_by_half() {
        let set = SanitizerSet::RACE.union(SanitizerSet::INIT);
        let dev = Device::with_words(0, 64).sanitized_collecting(set);
        let (buf, full) = (dev.alloc(4).unwrap(), dev.alloc(2).unwrap());
        dev.mem().fill(full, 0);
        let opts = LaunchOptions::default().with_schedule(Schedule::Sequential);
        // groups 0 and 1 store the two halves of word 0: no race, and a
        // read of the word finds both defined
        dev.launch("two_halves", 2, GroupSize::WARP, opts, |ctx| {
            ctx.write_stream_half(buf, ctx.group_id(), 1);
        });
        dev.launch("word_read", 1, GroupSize::new(1), opts, |ctx| {
            let _ = ctx.read(buf, 0);
        });
        // a half read meets neither an unordered store of the other half
        // before it (word 0) nor one after it (word 1)
        dev.launch("other_half", 2, GroupSize::WARP, opts, |ctx| {
            if ctx.group_id() == 0 {
                ctx.write_stream_half(full, 0, 1);
                let _ = ctx.read_stream_half(full, 2);
            } else {
                let _ = ctx.read_stream_half(full, 1);
                ctx.write_stream_half(full, 3, 1);
            }
        });
        assert!(dev.take_sanitizer_reports().is_empty());
        // both groups store the low half of word 1, whose high half no
        // one writes
        let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dev.launch("same_half", 2, GroupSize::WARP, opts, |ctx| {
                ctx.write_stream_half(buf, 2, 1);
            });
            dev.launch("half_read", 1, GroupSize::new(1), opts, |ctx| {
                let _ = ctx.read(buf, 1);
            });
            // a half read meets an unordered store of its own half (word
            // 0), and a store of the whole word meets the half read (word 1)
            dev.launch("half_races", 2, GroupSize::WARP, opts, |ctx| {
                if ctx.group_id() == 0 {
                    ctx.write_stream_half(full, 0, 1);
                    let _ = ctx.read_stream_half(full, 2);
                } else {
                    let _ = ctx.read_stream_half(full, 0);
                    ctx.write_stream(full, 1, 7);
                }
            });
            // the high half of word 2 is read twice but reported once, and
            // its low half is still undefined when the word is read
            dev.launch("unwritten_half", 2, GroupSize::WARP, opts, |ctx| {
                let _ = ctx.read_stream_half(buf, 5);
            });
            dev.launch("word_after_half", 1, GroupSize::new(1), opts, |ctx| {
                let _ = ctx.read(buf, 2);
            });
        }));
        // an Err means the env's Panic attachment won (WD_SANITIZE was
        // set), which equally proves a finding
        if ran.is_ok() {
            let reports = dev.take_sanitizer_reports();
            let found: Vec<_> = reports.iter().map(|r| (r.detector, r.kernel.as_str())).collect();
            assert_eq!(
                found,
                [
                    (Detector::Race, "same_half"),
                    (Detector::Init, "half_read"),
                    (Detector::Race, "half_races"),
                    (Detector::Race, "half_races"),
                    (Detector::Init, "unwritten_half"),
                    (Detector::Init, "word_after_half"),
                ],
                "{reports:?}"
            );
            let says = |r: usize, what: &str| {
                assert!(reports[r].message.contains(what), "{}", reports[r]);
            };
            says(0, "low half");
            says(1, "high half was never written");
            says(2, "plain read of the low half races with plain write");
            says(3, "plain write races with plain read");
            says(4, "high half was never written");
            says(5, "low half was never written");
        }
    }

    /// A flag published by one group and polled by the next orders what
    /// the two do around it: the second may overwrite a word the first
    /// wrote. Reading the flag with a plain load instead orders nothing,
    /// and racecheck says so.
    #[test]
    fn a_polled_flag_orders_plain_accesses() {
        let set = SanitizerSet::RACE.union(SanitizerSet::INIT);
        let dev = Device::with_words(0, 64).sanitized_collecting(set);
        let (flag, data) = (dev.alloc(4).unwrap(), dev.alloc(4).unwrap());
        dev.mem().fill(flag, 0);
        let opts = LaunchOptions::default().with_schedule(Schedule::Sequential);
        let handoff = |polled: bool| {
            dev.launch("handoff", 2, GroupSize::WARP, opts, |ctx| {
                if ctx.group_id() == 0 {
                    ctx.write(data, 0, 7);
                    ctx.publish(flag, 0, &[1]);
                } else {
                    if polled {
                        ctx.poll(flag, 0, &mut [0], 1, |words| words[0] != 0);
                    } else {
                        let _ = ctx.read(flag, 0);
                    }
                    ctx.write(data, 0, 8);
                }
            })
        };
        let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let polled = handoff(true);
            assert!(dev.take_sanitizer_reports().is_empty());
            // one sector stored, one read, and the poll's dependent step
            assert_eq!(polled.counters.transactions, 2 + 2);
            assert_eq!(polled.counters.group_steps, 1);
            // and a chain of one wait: a round-trip billed whole
            assert!(polled.breakdown.latency > dev.spec().mem_latency);
            dev.mem().fill(flag, 0);
            handoff(false);
        }));
        // an Err means the env's Panic attachment won (WD_SANITIZE was
        // set) — that equally proves the plain read was flagged
        if ran.is_ok() {
            let reports = dev.take_sanitizer_reports();
            assert_eq!(reports.len(), 1, "{reports:?}");
            assert_eq!(reports[0].detector, Detector::Race);
            assert!(reports[0].message.contains("plain write races with plain write"));
        }
    }

    #[test]
    fn unsanitized_launch_reports_nothing() {
        // no WD_SANITIZE guard needed: this asserts only that *no report
        // sink* exists when nothing was attached by this test itself
        let dev = Device::with_words(0, 64);
        let buf = dev.alloc(4).unwrap();
        dev.mem().fill(buf, 7);
        dev.launch(
            "clean",
            4,
            GroupSize::new(1),
            LaunchOptions::default().with_schedule(Schedule::Sequential),
            |ctx| {
                let _ = ctx.read(buf, ctx.group_id());
            },
        );
        assert!(dev.sanitizer_reports().is_empty());
    }

    #[test]
    fn working_set_option_changes_cas_bound_time() {
        let dev = Device::with_words(0, 1024);
        let slot = dev.alloc(1).unwrap();
        dev.mem().fill(slot, 0);
        let run = |ws: u64| {
            dev.launch(
                "cas",
                100_000,
                GroupSize::new(1),
                LaunchOptions::default().with_working_set(ws),
                |ctx| {
                    // hammer CAS so it binds
                    for _ in 0..4 {
                        let _ = ctx.cas(slot, 0, 0, 0);
                    }
                },
            )
        };
        let small = run(1 << 20);
        let large = run(16 << 30);
        assert!(large.breakdown.cas > small.breakdown.cas * 1.5);
    }
}
