//! The cascade driver: the one round loop behind every multi-GPU
//! operation.
//!
//! §IV-B's scheme is a single pipeline — multisplit → transposition →
//! per-GPU kernel, optionally → transposition back → scatter — and so is
//! this module. Every operation is one [`CascadeOp`], read off the
//! segments its [`Input`] has: an insertion has pairs, a retrieval keys
//! read, an erasure keys erased, and the mixed round of
//! [`crate::MapService::apply`] any of them side by side. A segment's
//! path through the round:
//!
//! | segment | upload (host-sided) | section of the one kernel | return trip | D2H (host-sided), `n` keys a GPU | scatter kernel (per warp) |
//! |---------|---------------------|---------------------------|-------------|------------------|---------------------------|
//! | reads   | 4 B / key           | gets                      | 8 B / key   | `4n + ⌈n/8⌉` B   | [`result_scatter`]: 32·(8+8) B streamed, the sectors its values touch, an `atomicOr` per found-bit word |
//! | puts    | 8 B / pair          | puts                      | none        | none             | —                         |
//! | late puts | 8 B / pair        | puts, in the late launch  | none        | none             | —                         |
//! | erases  | 4 B / key           | erases (in the late launch if there is one) | 1 B / key | `⌈n/8⌉` B | [`result_scatter`]: 32·(8+8) B streamed, an `atomicOr` per found-bit word |
//!
//! A read's answer travels back between GPUs as the 8-byte pair (or
//! `EMPTY`) its target found and lands on its origin beside the query
//! word; the origin's scatter writes the value into the half of a value
//! word its position names — a 4-byte store, two values to a word — and
//! sets a found bit, so what the host downloads is `⌈n/2⌉` value words and
//! `⌈n/64⌉` found-bit words, read back in the caller's order. No value is
//! free to mean "absent" (only a key is reserved), hence the bitmap. An
//! erase's answer is its hit: a flag billed as a byte on the way back,
//! which the same scatter turns into a found bit of its own bitmap.
//!
//! A cascade's segments lie in the order of the table above, each the
//! elements of every GPU: keys as they lie in the caller's memory, pairs
//! packed. The multisplit writes a key out as its *query word*, its
//! position in the GPU's chunk in the low half — the half of the paper's
//! 8-byte upload (§V-C) a device knows. A GPU's segments lie back to back
//! on the device and share the round — one upload, the one launch of one
//! multisplit ([`multisplit::device_multisplit_segments`], whose runs scan
//! their class counts by decoupled look-back; none on a GPU without a
//! word — not the paper's `m` passes, because a small round pays for
//! launches, §V-B), one all-to-all billed on the summed byte matrix —
//! while each is split and transposed on its own, so a target receives
//! segment after segment, each in source order. What arrives is already
//! the input of one launch of the kernel's sections (distinct keys race
//! freely, §IV-A; an erase restores its SOA sentinel before its tombstone
//! shows, [`crate::slots`]). Only a call that reads a key it also writes
//! needs a **late** launch behind it, which only a target that received
//! late words makes: the pairs of keys also read, and then every erase,
//! so that such a key is read first. A healthy round is thus three
//! sequential launches a GPU — split, kernel, scatter — and its report
//! counts the launches it made, summed over the GPUs. Every launch takes
//! the map's schedule, so under `Schedule::Sequential` a class reaches
//! its kernel in input order whatever the worker count.
//!
//! Words move between GPUs device to device
//! ([`gpu_sim::DeviceMemory::peer_copy`]): the all-to-all copies each
//! chunk from its source's split buffer into its target's, and an answer
//! from beside its target's words to where it lands on its origin. The
//! host reads only what it hands out — the values and found bits that
//! come down — and a healthy round keeps its bookkeeping in arrays of
//! fixed capacity, so it allocates nothing on the host.
//!
//! Fault handling is woven through once. [`DistributedHashMap::with_failover`]
//! runs a step (a device round here, a PCIe phase in [`crate::host_ops`])
//! under a snapshot of the fault plan and quarantine mask, books what its
//! retries cost, and on a lost device quarantines it and runs the step
//! again — at most `m + 1` times, since every failed run removes a GPU.
//! Re-running is safe because table mutations come last in a round and
//! are idempotent: duplicate inserts update in place, tombstoning a
//! tombstone is a no-op, queries are pure. Answers of targets that
//! completed before a round aborted stand: an aborted round hands out
//! every answer that had landed on its origin, read back from there, and
//! bills no return trip. An erased key is a hit even though the restarted
//! round no longer sees it (its caller ORs the hits of every round), and a
//! key the mixed round read keeps its first answer — the re-run would read
//! what the aborted round already wrote.

use crate::chaos::{launch_site, straggled, ChaosTally, Router};
use crate::config::Mutation;
use crate::distributed::{DistributedHashMap, MAX_PARTITIONS};
use crate::entry::{key_of, value_of, EMPTY};
use crate::get_put::Sections;
use crate::service::{Applied, OpError, OpReport, PerGpuDeleteResponse, PerGpuGetResponse};
use crate::stats::CascadeStage;
use crate::table::check_keys;
use gpu_sim::{
    DevSlice, Device, FaultPlan, GroupCtx, GroupSize, KernelStats, LaunchOptions, RetryPolicy,
    ScratchGuard,
};
use interconnect::{alltoall_time_faulted, Topology};
use multisplit::{
    device_multisplit_segments, scratch_words, Segment, SegmentedSplit, MAX_CLASSES, MAX_SEGMENTS,
};

// a node's partitions are the classes of its multisplit
const _: () = assert!(MAX_PARTITIONS <= MAX_CLASSES);

/// A round's segments, in the order a target GPU's words lie: keys read,
/// pairs of keys not read, pairs of keys also read, keys erased.
pub(crate) const READS: usize = 0;
pub(crate) const PUTS: usize = 1;
pub(crate) const LATE_PUTS: usize = 2;
pub(crate) const ERASES: usize = 3;
const SEGMENTS: usize = MAX_SEGMENTS;

/// The segments that answer per key, each with a return trip.
const ANSWERED: [usize; 2] = [READS, ERASES];

/// Lengths of the segments a target GPU received, which lie back to back
/// in [`READS`] … [`ERASES`] order; a segment the round lacks is zero.
type Cuts = [usize; SEGMENTS];

/// Per slot of a GPU's re-spread keys, its `(origin GPU, origin index)`.
type Origins = Vec<Vec<(usize, usize)>>;

/// One segment of a cascade's input: a list per GPU, or none (an empty
/// slice) for a segment the call lacks.
#[derive(Clone, Copy)]
enum Lists<'a> {
    /// Keys, 4 bytes each until split.
    Keys(&'a [&'a [u32]]),
    /// Packed pairs.
    Pairs(&'a [&'a [u64]]),
}

impl Lists<'_> {
    /// Lists it holds: one per GPU, or none.
    fn gpus(self) -> usize {
        match self {
            Lists::Keys(lists) => lists.len(),
            Lists::Pairs(lists) => lists.len(),
        }
    }

    /// Whether the call has the segment.
    fn present(self) -> bool {
        self.gpus() > 0
    }

    /// Elements GPU `i` holds.
    fn len(self, i: usize) -> usize {
        match self {
            Lists::Keys(lists) => lists.get(i).map_or(0, |l| l.len()),
            Lists::Pairs(lists) => lists.get(i).map_or(0, |l| l.len()),
        }
    }
}

/// A cascade's input, each segment a list per GPU — or none, for a segment
/// the call lacks.
#[derive(Clone, Copy, Default)]
pub(crate) struct Input<'a> {
    /// Keys to answer with their values ([`READS`]).
    pub(crate) reads: &'a [&'a [u32]],
    /// Pairs of keys not read ([`PUTS`]).
    pub(crate) puts: &'a [&'a [u64]],
    /// Pairs of keys also read, put in the late launch ([`LATE_PUTS`]).
    pub(crate) late_puts: &'a [&'a [u64]],
    /// Keys to erase, answered with their hits ([`ERASES`]).
    pub(crate) erases: &'a [&'a [u32]],
    /// Whether the erases wait for the late launch: the call reads a key
    /// it also writes.
    pub(crate) late: bool,
}

impl<'a> Input<'a> {
    /// The segments in target order.
    fn segments(&self) -> [Lists<'a>; SEGMENTS] {
        [
            Lists::Keys(self.reads),
            Lists::Pairs(self.puts),
            Lists::Pairs(self.late_puts),
            Lists::Keys(self.erases),
        ]
    }

    /// The operation this input describes.
    fn op(&self) -> CascadeOp {
        CascadeOp {
            present: self.segments().map(Lists::present),
            late_erases: self.late,
        }
    }
}

/// What distinguishes one cascade from another: the segments it carries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct CascadeOp {
    /// Per segment, whether the round carries it.
    present: [bool; SEGMENTS],
    /// Whether the erases run in the late launch.
    late_erases: bool,
}

impl CascadeOp {
    /// A call of `segments` alone, its erases (if any) in the kernel.
    pub(crate) fn of(segments: &[usize]) -> Self {
        let mut op = Self::default();
        for &s in segments {
            op.present[s] = true;
        }
        op
    }

    /// Whether the round answers per key, with a return trip.
    pub(crate) fn back(&self) -> bool {
        ANSWERED.iter().any(|&s| self.present[s])
    }

    /// Whether a target may make a late launch.
    fn late(&self) -> bool {
        self.present[LATE_PUTS] || self.late_erases
    }

    /// Fault-roll site of the kernel launches: a launch of one kind keeps
    /// its kind's site, a mix is the mixed round's.
    fn site(&self) -> u64 {
        let only = |s: usize| (0..SEGMENTS).all(|t| self.present[t] == (t == s));
        if only(PUTS) {
            launch_site::INSERT
        } else if only(READS) {
            launch_site::QUERY
        } else if only(ERASES) {
            launch_site::ERASE
        } else {
            launch_site::GET_PUT
        }
    }

    /// Stage the kernel step reports under: an insertion's `Insert`, any
    /// round that answers a `Query`.
    fn stage(&self) -> CascadeStage {
        if self.back() {
            CascadeStage::Query
        } else {
            CascadeStage::Insert
        }
    }

    /// The launches a GPU that holds words of every segment makes in one
    /// round: the split and the kernel, the late launch if there may be
    /// one, and the return trip's scatter if there is one.
    pub(crate) fn launches(&self) -> usize {
        2 + usize::from(self.late()) + usize::from(self.back())
    }
}

/// The answer a cascade hands out for one key.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Answer {
    /// A read's: the value its target found, if any.
    Read(Option<u32>),
    /// An erase's: whether its target tombstoned the key.
    Erase(bool),
}

/// Bytes a read's answer carries back between GPUs, and an erase's.
const BACK_BYTES: [u64; 2] = [8, 1];

/// Bytes that come down to the host for `n` reads' and `e` erases'
/// answers of one GPU: a value a read and a found bit a key.
pub(crate) fn down_bytes(n: usize, e: usize) -> u64 {
    4 * n as u64 + n.div_ceil(8) as u64 + e.div_ceil(8) as u64
}

/// What [`result_scatter`] leaves for `n` reads and `e` erases: value
/// words, two values to a word, then the reads' found-bit words and the
/// erases', 64 bits to a word.
fn result_words(n: usize, e: usize) -> [usize; 3] {
    [n.div_ceil(2), n.div_ceil(64), e.div_ceil(64)]
}

/// Why a step stopped early.
pub(crate) enum Abort {
    /// This device exhausted its retry budget: quarantine it and re-run.
    Lost(usize),
    /// Unrecoverable (probing exhaustion, scratch OOM): propagate.
    Fatal(OpError),
}

/// A kernel step's probing exhaustion is summed into `failed` — the other
/// GPUs still run, the round reports the aggregate — and `None`; any
/// other error ends the round.
fn unless_exhausted<T>(res: Result<T, OpError>, failed: &mut u64) -> Result<Option<T>, Abort> {
    match res {
        Ok(out) => Ok(Some(out)),
        Err(OpError::ProbingExhausted { failed: f }) => {
            *failed += f;
            Ok(None)
        }
        Err(e) => Err(Abort::Fatal(e)),
    }
}

/// One phase's kernels on a node whose devices may host several
/// partitions: a device runs its partitions' launches one after another
/// and the devices run side by side, so the phase lasts as long as the
/// busiest device's sum, and pays its launch overheads. With one
/// partition a device (Fig. 6) that is the max over GPUs, bit for bit.
struct Phase<'t> {
    device_of: &'t [usize],
    /// Per device, the summed time and launch overhead of its partitions.
    sums: [(f64, f64); MAX_PARTITIONS],
}

impl<'t> Phase<'t> {
    fn new(topo: &'t Topology) -> Self {
        Self {
            device_of: &topo.device_of,
            sums: [(0.0, 0.0); MAX_PARTITIONS],
        }
    }

    /// Books launches of partition `j` that took `time` in all, `fixed`
    /// of it size-independent (their overhead).
    fn add(&mut self, j: usize, time: f64, fixed: f64) {
        let sum = &mut self.sums[self.device_of[j]];
        sum.0 += time;
        sum.1 += fixed;
    }

    /// The most time and the most launch overhead a device spent.
    fn max(&self) -> (f64, f64) {
        let most = |of: fn(&(f64, f64)) -> f64| self.sums.iter().map(of).fold(0.0, f64::max);
        (most(|sum| sum.0), most(|sum| sum.1))
    }
}

/// Per-GPU data prepared for a cascade (device-resident words). A round
/// keeps its bookkeeping here and in [`Landed`], in arrays of fixed
/// capacity: a healthy round allocates nothing on the host. A slot a node
/// of fewer GPUs leaves unused is `None`, so that making the arrays writes
/// a tag per slot, not the slot.
struct SplitPhase<'g> {
    /// Scratch guards keeping the buffers alive: every GPU's split
    /// buffer, then what [`DistributedHashMap::transpose_move`] lands.
    guards: [Option<ScratchGuard<'g>>; 2 * MAX_PARTITIONS],
    /// What each source GPU sends, in GPU order.
    sent: [Option<Sent>; MAX_PARTITIONS],
    /// Phase time and launch overhead ([`Phase::max`]).
    time: (f64, f64),
}

impl SplitPhase<'_> {
    /// What each source GPU sends, in GPU order.
    fn sent(&self) -> impl Iterator<Item = &Sent> + '_ {
        self.sent.iter().map_while(Option::as_ref)
    }

    /// Bytes source `i` sends target `j` of segment `s`, `per` an element:
    /// none where the words stay on their GPU.
    fn bytes(&self, i: usize, j: usize, s: usize, per: u64) -> u64 {
        let sent = self.sent[i].as_ref().filter(|_| i != j);
        sent.map_or(0, |sent| sent.at(s, j).1 as u64 * per)
    }

    /// Segment `s` of what target `j` received, cut into its sources'
    /// chunks: `(source GPU, where the chunk starts in the source's
    /// output, where in the target's segment, its length)`.
    fn by_source(
        &self,
        j: usize,
        s: usize,
    ) -> impl Iterator<Item = (usize, usize, usize, usize)> + '_ {
        let mut from = 0;
        self.sent().enumerate().map(move |(i, sent)| {
            let (at, n) = sent.at(s, j);
            from += n;
            (i, at, from - n, n)
        })
    }
}

/// One source GPU's multisplit, in its split buffer.
#[derive(Clone, Copy)]
struct Sent {
    /// Per segment, the buffer it was split into, partition-ordered.
    out: [DevSlice; SEGMENTS],
    /// Per segment, where the words of each class — a target — end in
    /// its output; a class starts where the one before it ends.
    ends: [[usize; MAX_PARTITIONS]; SEGMENTS],
    /// Per segment that answers, where the answers to its query words
    /// land, in their order.
    landing: [DevSlice; SEGMENTS],
    /// What [`result_scatter`] writes ([`result_words`]).
    results: DevSlice,
    /// The bytes its split's launches streamed.
    stream_bytes: u64,
}

impl Sent {
    /// The words `out` the segments `ids` were split into, by `classes`,
    /// one after the other.
    fn split(&mut self, ids: &[usize], classes: &SegmentedSplit) {
        for (k, &s) in ids.iter().enumerate() {
            let classes = classes.offsets(k).iter().zip(classes.counts(k));
            for (end, (at, n)) in self.ends[s].iter_mut().zip(classes) {
                *end = (at + n) as usize;
            }
        }
        self.stream_bytes = classes.counters.stream_bytes;
    }

    /// Where the words of segment `s` this GPU holds for target `j` start
    /// in its output, and how many there are.
    fn at(&self, s: usize, j: usize) -> (usize, usize) {
        let at = j.checked_sub(1).map_or(0, |before| self.ends[s][before]);
        (at, self.ends[s][j] - at)
    }

    /// The words of segment `s` this GPU holds for target `j`.
    fn chunk(&self, s: usize, j: usize) -> DevSlice {
        let (at, n) = self.at(s, j);
        self.out[s].sub(at, n)
    }
}

/// What [`DistributedHashMap::transpose_move`] lands on a target GPU.
#[derive(Clone, Copy)]
struct Landed {
    /// The lengths of the segments in `words`.
    cuts: Cuts,
    /// The words received: segment after segment, each every source's
    /// chunk in GPU order.
    words: DevSlice,
    /// Where the kernel leaves an answer per read, then a hit flag per
    /// erase: empty for an operation without a return trip.
    answers: DevSlice,
}

impl Landed {
    /// Where segment `s` starts in `words`, and among the answers.
    fn start(&self, s: usize) -> (usize, usize) {
        let words = self.cuts[..s].iter().sum();
        (words, if s == ERASES { self.cuts[READS] } else { 0 })
    }
}

/// The lists of a device-sided call as the cascade takes them.
fn slices<T>(per_gpu: &[Vec<T>]) -> Vec<&[T]> {
    per_gpu.iter().map(Vec::as_slice).collect()
}

/// One segment re-spread: element `idx` of GPU `i` goes to GPU `to(i, idx)`.
fn respread<T: Copy>(per_gpu: &[&[T]], mut to: impl FnMut(usize, usize) -> usize) -> Vec<Vec<T>> {
    let mut effective = vec![Vec::new(); per_gpu.len()];
    for (i, items) in per_gpu.iter().enumerate() {
        for (idx, &item) in items.iter().enumerate() {
            effective[to(i, idx)].push(item);
        }
    }
    effective
}

/// An [`Input`] re-spread over the live GPUs, owned, with the
/// [`Origins`] of its reads and of its erases.
struct Respread {
    reads: Vec<Vec<u32>>,
    puts: Vec<Vec<u64>>,
    late_puts: Vec<Vec<u64>>,
    erases: Vec<Vec<u32>>,
    origins: [Origins; 2],
}

/// The return trip's scatter on an origin GPU `sent`: warp `w` of a
/// segment that answers reads query words `32w..` of its split and the
/// answers that landed beside them; a read's warp writes each hit's value
/// into the half of the value words its position names, and every warp
/// sets its hits' found bits, in the segment's own bitmap, with one
/// warp-aggregated `atomicOr` per found-bit word it touches
/// ([`result_words`]). A miss stores nothing, and the found bits start
/// cleared. The reads' warps come first. Mutation doubles:
/// `Mutation::AnswerHalvesSwapped` and `Mutation::EraseHitInWrongBit`.
fn result_scatter(
    dev: &Device,
    sent: &Sent,
    opts: LaunchOptions,
    mutation: Option<Mutation>,
) -> KernelStats {
    const G: usize = 32;
    let [n, e] = ANSWERED.map(|s| sent.out[s].len());
    let [value_words, read_bits, erase_bits] = result_words(n, e);
    let values = sent.results.sub(0, value_words);
    let found = [
        sent.results.sub(value_words, read_bits),
        sent.results.sub(value_words + read_bits, erase_bits),
    ];
    dev.mem().fill(sent.results.sub(value_words, read_bits + erase_bits), 0);
    let swapped = mutation == Some(Mutation::AnswerHalvesSwapped);
    let wrong_bit = mutation == Some(Mutation::EraseHitInWrongBit);
    let read_warps = n.div_ceil(G);
    dev.launch("result_scatter", read_warps + e.div_ceil(G), GroupSize::WARP, opts, |ctx| {
        let erase = usize::from(ctx.group_id() >= read_warps);
        let (s, found) = (ANSWERED[erase], found[erase]);
        let (words, answers) = (sent.out[s], sent.landing[s]);
        let first = (ctx.group_id() - erase * read_warps) * G;
        let (mut slot, mut pair) = ([0usize; G], [EMPTY; G]);
        for r in 0..(words.len() - first).min(G) {
            // the position the split tagged, and what the target found
            slot[r] = value_of(ctx.read_stream(words, first + r)) as usize;
            pair[r] = ctx.read_stream(answers, first + r);
        }
        let hits = ctx.ballot(|r| pair[r as usize] != EMPTY);
        if s == READS {
            let mut halves = [(0, 0); G];
            let mut stores = 0;
            for r in (0..G).filter(|&r| hits & (1 << r) != 0) {
                // BROKEN if `swapped` (mutation double): the other half
                halves[stores] = (slot[r] ^ usize::from(swapped), value_of(pair[r]));
                stores += 1;
            }
            ctx.write_halves(values, &halves[..stores]);
        } else if wrong_bit {
            // BROKEN (mutation double): the neighbouring position's bit
            slot.iter_mut().for_each(|slot| *slot ^= 1);
        }
        // the leader of each found-bit word ORs in the bits of its lanes
        let mut pending = hits;
        while let Some(leader) = GroupCtx::ffs(pending) {
            let word = slot[leader as usize] / 64;
            let same_word = |r: u32| pending & (1 << r) != 0 && slot[r as usize] / 64 == word;
            let lanes = ctx.ballot(same_word);
            let bits = (0..G)
                .filter(|&r| lanes & (1 << r) != 0)
                .fold(0, |bits, r| bits | (1 << (slot[r] % 64)));
            ctx.atomic_or(found, word, bits);
            pending &= !lanes;
        }
    })
}

fn new_report<T>(per_gpu: &[Vec<T>]) -> OpReport {
    OpReport::of_cascade(per_gpu.iter().map(|w| w.len() as u64).sum())
}

impl DistributedHashMap {
    /// Runs `step` under a snapshot of the fault plan and quarantine mask
    /// until it succeeds. Whatever its retries cost is booked whether or
    /// not it succeeded — a [`CascadeStage::Backoff`] stage, the degraded
    /// stats — and a step that lost a device has it quarantined (its
    /// partition re-splits over the survivors) before the next run.
    ///
    /// # Errors
    /// A step's fatal error; [`OpError::DeviceLost`] and migration
    /// failures from the quarantine once no survivor remains.
    pub(crate) fn with_failover<O>(
        &self,
        report: &mut OpReport,
        mut step: impl FnMut(&FaultPlan, u32, &mut OpReport, &mut ChaosTally) -> Result<O, Abort>,
    ) -> Result<O, OpError> {
        for _run in 0..=self.num_gpus() {
            let (plan, mask) = self.chaos_snapshot();
            let mut tally = ChaosTally::default();
            let res = step(&plan, mask, report, &mut tally);
            if tally.backoff > 0.0 {
                report.push(CascadeStage::Backoff, tally.backoff, 0, 0.0);
            }
            self.note_chaos(&tally);
            match res {
                Ok(out) => return Ok(out),
                Err(Abort::Lost(j)) => self.quarantine(j)?,
                Err(Abort::Fatal(e)) => return Err(e),
            }
        }
        Err(OpError::Internal {
            detail: "every failed round quarantines one GPU; at most m rounds",
        })
    }

    /// The device-sided cascade over `input` (each list already resident
    /// on its GPU), appending its stages to `report` and what its kernels
    /// placed and tombstoned, summed over targets and rounds, to `placed`.
    ///
    /// Each target GPU runs one launch of the kernel over the words it
    /// received — segment after segment, in the kernel's sections — and
    /// the late launch behind it if it received late words; it leaves on
    /// the same GPU an answer per read (the packed pair found or `EMPTY`)
    /// and a hit flag per erase. `answer((g, i), a)` receives the answer
    /// to key `i` of the caller's GPU `g` — of its reads or of its erases,
    /// as `a` says — once the round's scatter is done, from the value
    /// and found bit that came down, an erase's from its found bit. Words move between GPUs device to
    /// device; the host reads only what it hands out. Under an armed plan
    /// rounds run more than once: input addressed to quarantined GPUs
    /// re-spreads over the survivors with its origin tracked, wasted
    /// attempts stay billed, and the counts and `answer` see every
    /// completed target of every round — an aborted round hands out the
    /// answers that had landed on their origins.
    ///
    /// # Errors
    /// Probing exhaustion aggregated over the GPUs; a kernel's other
    /// errors and scratch OOM; [`Self::with_failover`]'s.
    pub(crate) fn cascade(
        &self,
        input: Input,
        report: &mut OpReport,
        placed: &mut Applied,
        mut answer: impl FnMut((usize, usize), Answer),
    ) -> Result<(), OpError> {
        let gpus = input.segments().map(Lists::gpus);
        let m = self.num_gpus();
        assert!(gpus.iter().all(|&n| n == 0 || n == m), "one batch per GPU");
        assert!(gpus.contains(&m), "a round carries a segment");
        let policy = self.retry_policy();
        self.with_failover(report, |plan, mask, report, tally| {
            // the healthy path borrows the caller's lists as they are
            let respread = (mask != 0).then(|| self.respread(input, mask));
            let lists = respread.as_ref().map(|r| {
                let (reads, erases) = (slices(&r.reads), slices(&r.erases));
                (reads, slices(&r.puts), slices(&r.late_puts), erases)
            });
            let effective = lists.as_ref().map(|(reads, puts, late_puts, erases)| Input {
                reads,
                puts,
                late_puts,
                erases,
                late: input.late,
            });
            let origins = respread.as_ref().map(|r| &r.origins);
            let router = self.router_for(mask);
            self.round(
                effective.unwrap_or(input),
                origins,
                &router,
                plan,
                &policy,
                report,
                tally,
                placed,
                &mut answer,
            )
        })
    }

    /// One round under a fixed router/plan snapshot.
    #[allow(clippy::too_many_arguments)]
    fn round(
        &self,
        input: Input,
        origins: Option<&[Origins; 2]>,
        router: &Router,
        plan: &FaultPlan,
        policy: &RetryPolicy,
        report: &mut OpReport,
        tally: &mut ChaosTally,
        placed: &mut Applied,
        answer: &mut impl FnMut((usize, usize), Answer),
    ) -> Result<(), Abort> {
        let op = input.op();
        let mutation = self.cfg().mutation;
        let oh = self.device(0).spec().launch_overhead;
        let opts = LaunchOptions::default()
            .with_schedule(self.cfg().schedule)
            .with_per_op_dispatch(self.cfg().per_op_dispatch);
        let alltoall = |bytes: &dyn Fn(usize, usize) -> u64, tally: &mut ChaosTally| {
            let phase = alltoall_time_faulted(self.topology(), bytes, plan, policy);
            tally.settle(plan, policy, phase).map_err(Abort::Lost)
        };
        // key `slot` of GPU `i`'s list of answered segment `k`, in the
        // caller's lists
        let origin_of =
            |k: usize, i: usize, slot: usize| origins.map_or((i, slot), |o| o[k][i][slot]);

        // Phases 1+2: multisplit and transposition
        let mut split = SplitPhase {
            guards: std::array::from_fn(|_| None),
            sent: [None; MAX_PARTITIONS],
            time: (0.0, 0.0),
        };
        self.multisplit_phase(&mut split, input, router, opts, plan, policy, report, tally)?;
        // the stage streams the bytes of every partition's split
        let bytes = split.sent().map(|sent| sent.stream_bytes);
        let (time, overhead) = split.time;
        report.push(CascadeStage::Multisplit, time, bytes.sum(), overhead);
        let words = |i, j| (0..SEGMENTS).map(|s| split.bytes(i, j, s, 8)).sum::<u64>();
        let transpose = alltoall(&words, tally)?;
        let landed = self.transpose_move(&mut split).map_err(Abort::Fatal)?;
        let landed = landed.iter().map_while(Option::as_ref);
        report.push(CascadeStage::Transpose, transpose.time, transpose.bytes, 0.0);

        // bit `j`: target `j`'s answers have landed on their origins
        let mut done = 0u64;
        // the rest of the round: where it aborts, what landed still stands
        let res = (|| {
            // Phase 3: the local kernels (global barrier → the busiest device)
            let mut kernels = Phase::new(self.topology());
            let mut late_launches = None;
            let mut failed = 0u64;
            for (j, landed) in landed.clone().enumerate() {
                if landed.words.is_empty() {
                    continue;
                }
                let mem = self.device(j).mem();
                let [gets, puts, late_puts, erases] = landed.cuts;
                // an erase's flag: EMPTY, then 0 where `hit` tombstoned
                mem.fill(landed.answers.sub(gets, erases), EMPTY);
                let hit = |i| mem.fill(landed.answers.sub(gets + i, 1), 0);
                let late_erases = if op.late_erases { erases } else { 0 };
                debug_assert!(late_erases == erases || late_puts == 0, "erases follow late puts");
                let none = Sections::default();
                let first = Sections { gets, puts, erases: erases - late_erases, ..none };
                let late = Sections { puts: late_puts, erases: late_erases, ..none };
                // the late words follow the first's, and run after them, so
                // that a key both read and written is read first
                let mut launches = [(false, first), (true, late)];
                // MUTATION DOUBLE (`Mutation::TakeTombstonesFirst`): the
                // late launch runs ahead of the kernel
                if mutation == Some(Mutation::TakeTombstonesFirst) {
                    launches.reverse();
                }
                let mut answered = true;
                for (is_late, sections) in launches {
                    if is_late && sections.len() == 0 {
                        continue;
                    }
                    let site = if is_late { launch_site::INSERT } else { op.site() };
                    let retried = tally.launch_retries;
                    let gate = tally.gate_launch(plan, policy, j, site);
                    if mutation == Some(Mutation::DoubleApplyOnRetry)
                        && op.site() == launch_site::INSERT
                        && tally.launch_retries > retried
                    {
                        // BROKEN (mutation double): premature failover
                        // without the idempotence guard — the sub-batch is
                        // applied to its failover targets although the
                        // primary is still being retried (and will
                        // succeed), duplicating keys.
                        if let Some(failover) = router.also_masking(j) {
                            let words = mem.d2h_words(landed.words);
                            let pairs = words.map(|w| (key_of(w), value_of(w)));
                            let _ = self.insert_routed(&failover, pairs);
                        }
                    }
                    gate.map_err(Abort::Lost)?;
                    report.launches += 1;
                    let words = if is_late {
                        landed.words.sub(gets + puts, late.len())
                    } else {
                        landed.words
                    };
                    let ran = self.maps()[j].launch(sections, words, landed.answers, hit);
                    let Some((outcome, erased)) = unless_exhausted(ran, &mut failed)? else {
                        answered = false;
                        continue;
                    };
                    placed.note(&outcome, erased);
                    let time = straggled(plan, j, outcome.stats.sim_time);
                    match is_late {
                        false => kernels.add(j, time, oh),
                        true => late_launches
                            .get_or_insert_with(|| Phase::new(self.topology()))
                            .add(j, time, oh),
                    }
                }
                if answered && op.back() {
                    // the NVLink leg, billed as TransposeBack
                    for s in ANSWERED {
                        let (_, answers_at) = landed.start(s);
                        for (i, at, from, n) in split.by_source(j, s) {
                            let answers = landed.answers.sub(answers_at + from, n);
                            let sent = split.sent[i].as_ref().expect("every GPU of the node split");
                            let landing = sent.landing[s].sub(at, n);
                            mem.peer_copy(answers, self.device(i).mem(), landing);
                        }
                    }
                }
                done |= u64::from(answered) << j;
            }
            // a kernel row bills at least one launch's overhead
            let push = |report: &mut OpReport, stage, phase: &Phase| {
                let (time, overhead) = phase.max();
                report.push(stage, time, 0, overhead.max(oh));
            };
            push(report, op.stage(), &kernels);
            if let Some(late) = &late_launches {
                push(report, CascadeStage::Insert, late);
            }
            if failed > 0 {
                return Err(Abort::Fatal(OpError::ProbingExhausted { failed }));
            }

            // Phases 4+5: the return trip, of the segments that answer
            if !op.back() {
                return Ok(());
            }
            // the transposed cells: target `j`'s answers travel to source `i`
            let back = |j, i| {
                let bytes = ANSWERED.iter().zip(BACK_BYTES);
                bytes.map(|(&s, per)| split.bytes(i, j, s, per)).sum::<u64>()
            };
            let transpose = alltoall(&back, tally)?;
            report.push(CascadeStage::TransposeBack, transpose.time, transpose.bytes, 0.0);
            let mut scatters = Phase::new(self.topology());
            for (i, sent) in split.sent().enumerate() {
                if ANSWERED.iter().all(|&s| sent.out[s].is_empty()) {
                    continue;
                }
                let stats = result_scatter(self.device(i), sent, opts, mutation);
                report.launches += 1;
                scatters.add(i, straggled(plan, i, stats.sim_time), oh);
            }
            push(report, CascadeStage::Scatter, &scatters);
            Ok(())
        })();
        if !op.back() {
            return res;
        }
        if res.is_ok() {
            // what comes down: a value per read, two to a word, then the
            // found bits of the reads and of the erases
            for (i, sent) in split.sent().enumerate() {
                let mem = self.device(i).mem();
                let [n, e] = ANSWERED.map(|s| sent.out[s].len());
                let [value_words, read_bits, erase_bits] = result_words(n, e);
                let bits = |at, words| {
                    let found = mem.d2h_words(sent.results.sub(at, words));
                    found.flat_map(|word| (0..64).map(move |bit| word >> bit & 1 == 1))
                };
                let values = mem.d2h_words(sent.results.sub(0, value_words));
                let values = values.flat_map(|word| [word as u32, (word >> 32) as u32]);
                let answers = values.zip(bits(value_words, read_bits)).take(n);
                for (slot, (value, found)) in answers.enumerate() {
                    answer(origin_of(0, i, slot), Answer::Read(found.then_some(value)));
                }
                let hits = bits(value_words + read_bits, erase_bits).take(e);
                for (slot, hit) in hits.enumerate() {
                    answer(origin_of(1, i, slot), Answer::Erase(hit));
                }
            }
        } else {
            // the answers that landed before the round aborted stand
            for (j, landed) in landed.enumerate() {
                if done & (1 << j) == 0 {
                    continue;
                }
                for (k, s) in ANSWERED.into_iter().enumerate() {
                    let (words_at, _) = landed.start(s);
                    for (i, at, from, n) in split.by_source(j, s) {
                        let sent = split.sent[i].as_ref().expect("every GPU of the node split");
                        let words = landed.words.sub(words_at + from, n);
                        let words = self.device(j).mem().d2h_words(words);
                        let answers = self.device(i).mem().d2h_words(sent.landing[s].sub(at, n));
                        for (word, a) in words.zip(answers) {
                            let a = match s {
                                READS => Answer::Read((a != EMPTY).then(|| value_of(a))),
                                _ => Answer::Erase(a != EMPTY),
                            };
                            answer(origin_of(k, i, value_of(word) as usize), a);
                        }
                    }
                }
            }
        }
        res
    }

    /// Re-spreads elements addressed to quarantined GPUs round-robin over
    /// the live ones (a dead GPU cannot host its cascade input), segment
    /// by segment, with the [`Origins`] of the keys that are answered, so
    /// that answers return in the caller's order.
    fn respread(&self, input: Input, mask: u32) -> Respread {
        let m = self.num_gpus();
        let live: Vec<usize> = (0..m).filter(|&g| mask & (1 << g) == 0).collect();
        let mut rr = 0usize;
        let mut place = |i: usize| {
            if mask & (1 << i) == 0 {
                return i;
            }
            rr += 1;
            live[(rr - 1) % live.len()] // round-robin over the survivors
        };
        let mut origins: [Origins; 2] = std::array::from_fn(|_| vec![Vec::new(); m]);
        // element `idx` of GPU `i`, of the answered segment `k` if any
        let mut spread = |k: Option<usize>, i: usize, idx: usize| {
            let g = place(i);
            if let Some(k) = k {
                origins[k][g].push((i, idx));
            }
            g
        };
        let reads = respread(input.reads, |i, idx| spread(Some(0), i, idx));
        let puts = respread(input.puts, |i, idx| spread(None, i, idx));
        let late_puts = respread(input.late_puts, |i, idx| spread(None, i, idx));
        let erases = respread(input.erases, |i, idx| spread(Some(1), i, idx));
        Respread { reads, puts, late_puts, erases, origins }
    }

    // ---- phases -----------------------------------------------------------

    /// Uploads each GPU's segments — keys two to a word — and
    /// multisplits them into `split`, every segment on its own in the same
    /// launches, by the router's fault-aware partition assignment, gating
    /// each non-empty GPU's launches on the fault plan. A GPU without an
    /// element launches nothing; the launches made count in `report` as
    /// they are made, so those of a phase that a later GPU's gate aborts
    /// stay.
    #[allow(clippy::too_many_arguments)]
    fn multisplit_phase<'s>(
        &'s self,
        split: &mut SplitPhase<'s>,
        input: Input,
        router: &Router,
        opts: LaunchOptions,
        plan: &FaultPlan,
        policy: &RetryPolicy,
        report: &mut OpReport,
        tally: &mut ChaosTally,
    ) -> Result<(), Abort> {
        let m = self.num_gpus();
        let lists = input.segments();
        // the segments the round carries, in order: the split's
        let (mut ids, mut carried) = ([0; SEGMENTS], 0);
        for s in (0..SEGMENTS).filter(|&s| lists[s].present()) {
            ids[carried] = s;
            carried += 1;
        }
        let ids = &ids[..carried];
        let mut splits = Phase::new(self.topology());
        for i in 0..m {
            let dev = self.device(i);
            let len = |s: usize| lists[s].len(i);
            // double buffer (Fig. 4: "out-of-place using one double buffer
            // per GPU"): a segment as uploaded — keys lie two to a word —
            // then the words it is split into
            let uploaded = |s: usize| match lists[s] {
                Lists::Keys(_) => len(s).div_ceil(2),
                Lists::Pairs(_) => len(s),
            };
            let words: usize = ids.iter().map(|&s| uploaded(s) + len(s)).sum();
            // and what the split keeps its counts and prefixes in
            let counters = scratch_words(m, ids.iter().map(|&s| len(s)));
            // and at its end where the answers to the keys land, then
            // their results (`Sent::landing`, `Sent::results`)
            let [n, e] = ANSWERED.map(len);
            let results: usize = result_words(n, e).iter().sum();
            if words > 0 {
                tally
                    .gate_launch(plan, policy, i, launch_site::MULTISPLIT)
                    .map_err(Abort::Lost)?;
            }
            let guard = dev
                .alloc_scratch(words + counters + n + e + results)
                .map_err(|e| Abort::Fatal(e.into()))?;
            let buf = guard.slice();
            split.guards[i] = Some(guard);
            let mut at = 0;
            let mut take = |len| {
                at += len;
                buf.sub(at - len, len)
            };
            let mut parts = [Segment::words(take(0), take(0)); MAX_SEGMENTS];
            // MUTATION DOUBLE (`Mutation::LookBackReadsUnpublished`)
            let peek = self.cfg().mutation == Some(Mutation::LookBackReadsUnpublished);
            // MUTATION DOUBLE (`Mutation::SplitTagsRunOffset`)
            let broken = self.cfg().mutation == Some(Mutation::SplitTagsRunOffset);
            for (part, &s) in parts.iter_mut().zip(ids) {
                let staged = take(uploaded(s));
                *part = match lists[s] {
                    Lists::Keys(keys) => {
                        dev.mem().h2d_keys(staged, keys[i]);
                        Segment::keys(staged, len(s), take(len(s))).tagging_run_offsets(broken)
                    }
                    Lists::Pairs(pairs) => {
                        dev.mem().h2d(staged, pairs[i]);
                        Segment::words(staged, take(len(s)))
                    }
                }
                .reading_unpublished_prefixes(peek);
            }
            let counters = take(counters);
            let answers = |s: usize| if ANSWERED.contains(&s) { len(s) } else { 0 };
            let mut sent = Sent {
                out: [take(0); SEGMENTS],
                ends: [[0; MAX_PARTITIONS]; SEGMENTS],
                landing: std::array::from_fn(|s| take(answers(s))),
                results: take(results),
                stream_bytes: 0,
            };
            for (&s, part) in ids.iter().zip(&parts) {
                sent.out[s] = part.out();
            }
            let parts = &parts[..carried];
            let classes = device_multisplit_segments(dev, parts, counters, m, opts, |w| {
                router.route(key_of(w))
            });
            sent.split(ids, &classes);
            report.launches += u64::from(classes.launches);
            splits.add(i, straggled(plan, i, classes.sim_time), classes.fixed_time);
            split.sent[i] = Some(sent);
        }
        split.time = splits.max();
        Ok(())
    }

    /// Moves every partition to its target GPU, device to device
    /// (functional movement only — the transfer itself is billed by the
    /// caller via the all-to-all model, faulted or healthy). A target's
    /// words land in one buffer, segment after segment, each every
    /// source's chunk in GPU order, as its [`Landed`] says; behind them
    /// lies room for an answer per word of the segments that answer.
    fn transpose_move<'s>(
        &'s self,
        split: &mut SplitPhase<'s>,
    ) -> Result<[Option<Landed>; MAX_PARTITIONS], OpError> {
        let m = self.num_gpus();
        let mut landed = [None; MAX_PARTITIONS];
        for (j, landed) in landed.iter_mut().enumerate().take(m) {
            let mut cuts: Cuts = [0; SEGMENTS];
            for (s, cut) in cuts.iter_mut().enumerate() {
                *cut = split.sent().map(|sent| sent.at(s, j).1).sum();
            }
            let words: usize = cuts.iter().sum();
            let answers: usize = ANSWERED.iter().map(|&s| cuts[s]).sum();
            let to = self.device(j).mem();
            let guard = self.device(j).alloc_scratch((words + answers).max(1))?;
            let buf = guard.slice();
            split.guards[m + j] = Some(guard);
            let mut at = 0;
            for s in 0..SEGMENTS {
                for (i, sent) in split.sent().enumerate() {
                    let chunk = sent.chunk(s, j);
                    self.device(i).mem().peer_copy(chunk, to, buf.sub(at, chunk.len()));
                    at += chunk.len();
                }
            }
            *landed = Some(Landed {
                cuts,
                words: buf.sub(0, words),
                answers: buf.sub(words, answers),
            });
        }
        Ok(landed)
    }

    // ---- the operations ---------------------------------------------------

    /// Device-sided insertion cascade: `per_gpu_words[i]` are packed pairs
    /// already resident on GPU `i` (the paper's in-toolchain case where
    /// PCIe is bypassed). Returns the per-phase timing report.
    ///
    /// Under an armed fault plan the cascade retries transient failures
    /// with backoff, quarantines GPUs that exhaust their budget (their
    /// input re-spreads over the survivors) and restarts; wasted attempts
    /// stay billed in the report, with backoff in its own
    /// [`CascadeStage::Backoff`] stage.
    ///
    /// # Errors
    /// [`OpError::ReservedKey`], its `index` counted through the lists in
    /// GPU order, before anything is uploaded; aggregated probing
    /// exhaustion across GPUs; scratch OOM; [`OpError::DeviceLost`] once no
    /// survivor remains.
    pub fn insert_device_sided(
        &self,
        per_gpu_words: &[Vec<u64>],
    ) -> Result<OpReport, OpError> {
        check_keys(per_gpu_words.iter().flatten().map(|&word| key_of(word)))?;
        let mut report = new_report(per_gpu_words);
        let input = Input { puts: &slices(per_gpu_words), ..Input::default() };
        self.cascade(input, &mut report, &mut Applied::default(), |_, _| {})?;
        Ok(report)
    }

    /// Device-sided retrieval with typed fault errors. `per_gpu_keys[i]`
    /// are the queried keys resident on GPU `i`; returns the per-GPU
    /// results *in the original per-GPU order* plus a unified
    /// [`OpReport`]. Retrieval is pure, so fault recovery restarts the
    /// whole cascade after quarantining the culprit; queries addressed to
    /// quarantined GPUs re-spread over the survivors with their origin
    /// tracked, so result order is unaffected.
    ///
    /// # Errors
    /// [`OpError::ReservedKey`] as [`Self::insert_device_sided`];
    /// [`OpError`] once every failover avenue is exhausted; scratch OOM.
    pub fn try_retrieve_device_sided(
        &self,
        per_gpu_keys: &[Vec<u32>],
    ) -> Result<PerGpuGetResponse, OpError> {
        check_keys(per_gpu_keys.iter().flatten().copied())?;
        let mut report = new_report(per_gpu_keys);
        let mut values: Vec<Vec<_>> = per_gpu_keys.iter().map(|k| vec![None; k.len()]).collect();
        let input = Input { reads: &slices(per_gpu_keys), ..Input::default() };
        self.cascade(input, &mut report, &mut Applied::default(), |(g, i), a| {
            if let Answer::Read(value) = a {
                values[g][i] = value;
            }
        })?;
        Ok(PerGpuGetResponse {
            values,
            report,
        })
    }

    /// Device-sided erase with typed fault errors, returning the per-key
    /// hit flags *in the original per-GPU order* alongside the tombstoned
    /// count and a unified [`OpReport`].
    ///
    /// Takes `&mut self` — deletions require the global barrier of §IV-A
    /// on every local map, and exclusive access makes that a compile-time
    /// fact, exactly as in [`crate::GpuHashMap::try_erase`]. Hit flags survive
    /// quarantine restarts: a key tombstoned in an aborted round stays
    /// reported as a hit even though the retried round no longer observes
    /// it.
    ///
    /// # Errors
    /// [`OpError::ReservedKey`] as [`Self::insert_device_sided`];
    /// [`OpError`] once every failover avenue is exhausted.
    pub fn try_erase_device_sided(
        &mut self,
        per_gpu_keys: &[Vec<u32>],
    ) -> Result<PerGpuDeleteResponse, OpError> {
        check_keys(per_gpu_keys.iter().flatten().copied())?;
        let mut report = new_report(per_gpu_keys);
        let mut hits: Vec<Vec<bool>> = per_gpu_keys.iter().map(|k| vec![false; k.len()]).collect();
        let input = Input { erases: &slices(per_gpu_keys), ..Input::default() };
        let mut placed = Applied::default();
        self.cascade(input, &mut report, &mut placed, |(g, i), a| {
            // of every round, so ORed
            hits[g][i] |= matches!(a, Answer::Erase(true));
        })?;
        Ok(PerGpuDeleteResponse {
            hits,
            erased: placed.erased,
            report,
        })
    }
}
