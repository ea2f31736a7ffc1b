//! The cascade driver: the one round loop behind every multi-GPU
//! operation.
//!
//! §IV-B's scheme is a single pipeline — multisplit → transposition →
//! per-GPU kernel, optionally → transposition back → scatter — and so is
//! this module. Insertion, retrieval, erasure and the mixed get + put
//! round are four [`CascadeOp`] descriptions plus a per-GPU kernel call
//! each:
//!
//! | operation | segments | upload (host-sided) | launch site | stage    | return trip | D2H (host-sided), `n` keys a GPU | scatter kernel (per warp) |
//! |-----------|----------|---------------------|-------------|----------|-------------|------------------|---------------------------|
//! | insert    | 1        | 8 B / pair          | `INSERT`    | `Insert` | none        | none             | —                         |
//! | retrieve  | 1        | 4 B / key           | `QUERY`     | `Query`  | 8 B / key   | `4n + ⌈n/8⌉` B   | [`result_scatter`], run: 32·(8+8) B streamed, the sectors its values touch, an `atomicOr` per found-bit word |
//! | erase     | 1        | 4 B / key           | `ERASE`     | `Query`  | 1 B / key   | `n` B            | `erase_hit_scatter`, billed: 32·(8+1) B, 2 transactions |
//! | get + put | 3        | 4 B / read key + 8 B / pair | `GET_PUT`, late puts `INSERT` | `Query`, late puts `Insert` | 8 B / read key | `4n + ⌈n/8⌉` B, `n` read keys | [`result_scatter`], over the read keys |
//!
//! A value's answer travels back between GPUs as the 8-byte pair (or
//! `EMPTY`) its target found and lands on its origin beside the query
//! word; the origin's scatter writes the value into the half of a value
//! word its position names — a 4-byte store, two values to a word — and
//! sets a found bit, so what the host downloads is `⌈n/2⌉` value words and
//! `⌈n/64⌉` found-bit words, read back in the caller's order. No value is
//! free to mean "absent" (only a key is reserved), hence the bitmap.
//!
//! A cascade's [`Input`] is its **segments**, each the elements of every
//! GPU: packed pairs behind, segment 0 of an operation that answers per
//! key, the keys as they lie in the caller's memory. The multisplit writes
//! a key out as its *query word*, its position in the GPU's chunk in the
//! low half — the half of the paper's 8-byte upload (§V-C) a device knows.
//! A GPU's segments lie back to back on the device and share the round —
//! one upload, the one launch of one multisplit
//! ([`multisplit::device_multisplit_segments`], whose runs scan their
//! class counts by decoupled look-back; none on a GPU without a word —
//! not the paper's `m` passes, because a small round pays for launches,
//! §V-B), one all-to-all billed on the summed byte
//! matrix — while each is split and transposed on its own, so a target
//! receives segment after segment, each in source order. The mixed
//! round's are `[read keys | pairs of keys not read | pairs of keys
//! also read]`: what arrives is already the input of one
//! fused get + put launch over the first two (distinct keys race freely,
//! §IV-A) and of a late insert launch over the third, which only a target
//! that received any makes — so a key both read and written is read
//! first.
//! The return trip carries segment 0 alone. A healthy round is thus
//! three sequential launches — split, kernel, scatter — and its report
//! counts the launches it made, summed over the GPUs. Every launch takes
//! the map's schedule, so under `Schedule::Sequential` a class reaches
//! its kernel in input order whatever the worker count.
//!
//! Words move between GPUs device to device
//! ([`gpu_sim::DeviceMemory::peer_copy`]): the all-to-all copies each
//! chunk from its source's split buffer into its target's, and a value
//! answer from beside its target's words to where it lands on its origin.
//! The host reads only what it hands out — an erase's hit flags and
//! positions, the values and found bits that come down — and a healthy
//! round keeps its bookkeeping in arrays of fixed capacity, so it
//! allocates nothing on the host.
//!
//! Fault handling is woven through once. [`DistributedHashMap::with_failover`]
//! runs a step (a device round here, a PCIe phase in [`crate::host_ops`])
//! under a snapshot of the fault plan and quarantine mask, books what its
//! retries cost, and on a lost device quarantines it and runs the step
//! again — at most `m + 1` times, since every failed run removes a GPU.
//! Re-running is safe because table mutations come last in a round and
//! are idempotent: duplicate inserts update in place, tombstoning a
//! tombstone is a no-op, queries are pure. Answers of targets that
//! completed before a round aborted stand: an erased key is a hit even
//! though the restarted round no longer sees it, and a key the mixed
//! round read keeps its first answer — the re-run would read what the
//! aborted round already wrote. An aborted round hands out the value
//! answers that had landed on their origins, read back from there; it
//! bills no return trip.

use crate::chaos::{launch_site, straggled, ChaosTally, Router};
use crate::config::Mutation;
use crate::distributed::{DistributedHashMap, MAX_PARTITIONS};
use crate::entry::{key_of, pack, value_of, EMPTY};
use crate::get_put::Sections;
use crate::service::{OpError, OpReport, PerGpuDeleteResponse, PerGpuGetResponse};
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
use std::ops::Range;

// a node's partitions are the classes of its multisplit
const _: () = assert!(MAX_PARTITIONS <= MAX_CLASSES);

/// Lengths of the segments a target GPU received, which lie back to back
/// in this order; an operation with fewer segments (the mixed round has
/// [`MAX_SEGMENTS`]) leaves the rest zero.
type Cuts = [usize; MAX_SEGMENTS];

/// Per slot of a GPU's re-spread keys, its `(origin GPU, origin index)`.
type Origins = Vec<Vec<(usize, usize)>>;

/// A cascade's input, each segment a list per GPU.
#[derive(Clone, Copy)]
pub(crate) struct Input<'a> {
    /// Keys to answer: segment 0 of exactly the operations with a
    /// [`CascadeOp::back`] (no list otherwise), 4 bytes each until split.
    pub(crate) keys: &'a [&'a [u32]],
    /// The segments of packed pairs behind it, one after the other.
    pub(crate) pairs: &'a [&'a [u64]],
}

/// What distinguishes one cascade from another.
pub(crate) struct CascadeOp {
    /// The sections of the one kernel ([`crate::get_put`]) a target runs
    /// over the segments it received, given their lengths.
    sections: fn(&Cuts) -> Sections,
    /// Fault-roll site of the per-GPU kernel launches.
    site: u64,
    /// Stage the kernel step reports under.
    stage: CascadeStage,
    /// The segment, if any, of pairs that must not race the kernel: a
    /// target that received any inserts them in a launch of their own
    /// after it ([`launch_site::INSERT`], an `Insert` stage).
    late: Option<usize>,
    /// Present iff the operation answers per key: segment 0 is then
    /// [`Input::keys`], and the answers come back in their order.
    pub(crate) back: Option<ReturnTrip>,
}

impl CascadeOp {
    /// The launches a GPU that holds words of every segment makes in one
    /// round: the split and the kernel, the late insert if there is one,
    /// and the return trip's scatter if there is one.
    pub(crate) fn launches(&self) -> usize {
        2 + usize::from(self.late.is_some()) + usize::from(self.back.is_some())
    }

    /// Whether the answers land on their origins for [`result_scatter`].
    fn lands_values(&self) -> bool {
        matches!(
            self.back,
            Some(ReturnTrip {
                scatter: Scatter::Values,
                ..
            })
        )
    }
}

/// The return half of a cascade: transposition back, then one scatter
/// kernel per origin GPU.
pub(crate) struct ReturnTrip {
    /// Bytes per element on the way back; chunk sizes mirror the forward
    /// transposition.
    bytes: u64,
    scatter: Scatter,
}

/// How a return trip's answers reach their places on the origin GPU.
enum Scatter {
    /// Each target's answers go to the caller as it answers, and a scatter
    /// kernel is billed, not run: per warp of 32 elements, streamed bytes
    /// read (query word plus answer each) and store transactions.
    Billed {
        name: &'static str,
        stream_bytes: u64,
        transactions: u64,
    },
    /// The packed pairs (or `EMPTY`) a target found land on their origin,
    /// and [`result_scatter`] writes a hit's value into its position's
    /// half of a value word and sets its found bit: what the host
    /// downloads is 4 bytes a key plus a bit.
    Values,
}

impl ReturnTrip {
    /// Bytes that come down to the host for `n` answers of one GPU.
    pub(crate) fn down_bytes(&self, n: usize) -> u64 {
        match self.scatter {
            Scatter::Billed { .. } => self.bytes * n as u64,
            Scatter::Values => 4 * n as u64 + n.div_ceil(8) as u64,
        }
    }
}

/// What [`result_scatter`] leaves for `n` answers: value words, two values
/// to a word, then found-bit words, 64 bits to a word.
fn result_words(n: usize) -> (usize, usize) {
    (n.div_ceil(2), n.div_ceil(64))
}

/// The value of every hit, and a found bit per key: the return trip of
/// every operation that reads values.
const RESULTS: ReturnTrip = ReturnTrip {
    bytes: 8,
    scatter: Scatter::Values,
};

pub(crate) const INSERT: CascadeOp = CascadeOp {
    sections: |cuts| Sections::puts(cuts[0]),
    site: launch_site::INSERT,
    stage: CascadeStage::Insert,
    late: None,
    back: None,
};

pub(crate) const RETRIEVE: CascadeOp = CascadeOp {
    sections: |cuts| Sections::gets(cuts[0]),
    site: launch_site::QUERY,
    stage: CascadeStage::Query,
    late: None,
    back: Some(RESULTS),
};

pub(crate) const ERASE: CascadeOp = CascadeOp {
    sections: |cuts| Sections::erases(cuts[0]),
    site: launch_site::ERASE,
    stage: CascadeStage::Query,
    late: None,
    back: Some(ReturnTrip {
        bytes: 1,
        scatter: Scatter::Billed {
            name: "erase_hit_scatter",
            stream_bytes: 32 * (8 + 1),
            transactions: 2,
        },
    }),
};

/// The mixed round: `[read keys | pairs of keys not read | pairs of keys
/// the call also reads]`, all keys of a kind distinct. One launch of get
/// and put sections over the first two segments (their keys are
/// distinct, so they race freely, §IV-A), then on a target that received
/// any the pairs of the third in an insert launch of their own, so the
/// answers are what the keys held **before** the call.
pub(crate) const GET_PUT: CascadeOp = CascadeOp {
    sections: |&[gets, puts, _]| Sections { gets, puts, ..Sections::default() },
    site: launch_site::GET_PUT,
    stage: CascadeStage::Query,
    late: Some(2),
    back: Some(RESULTS),
};

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

    /// Where the answers to GPU `i`'s `n` query words land, in their
    /// order, when the return trip scatters values — at the end of its
    /// split buffer — and behind them what [`result_scatter`] writes.
    fn landing(&self, i: usize, n: usize) -> (DevSlice, DevSlice) {
        let buf = self.sent[i].as_ref().expect("every GPU of the node split").buf;
        let (value_words, bit_words) = result_words(n);
        let at = buf.len() - value_words - bit_words;
        (buf.sub(at - n, n), buf.sub(at, value_words + bit_words))
    }

    /// Bytes source `i` sends target `j` of `segments`, `per` an element:
    /// none where the words stay on their GPU.
    fn bytes(&self, i: usize, j: usize, segments: Range<usize>, per: u64) -> u64 {
        let sent = self.sent[i].as_ref().filter(|_| i != j);
        let counts = sent.into_iter().flat_map(|sent| segments.clone().map(|s| sent.at(s, j).1));
        counts.sum::<usize>() as u64 * per
    }

    /// Segment 0 of what target `j` received, cut into its sources'
    /// chunks: `(source GPU, where the chunk starts in the source's
    /// output, where in the target's words, its length)`.
    fn by_source(&self, j: usize) -> impl Iterator<Item = (usize, usize, usize, usize)> + '_ {
        let mut from = 0;
        self.sent().enumerate().map(move |(i, sent)| {
            let (at, n) = sent.at(0, j);
            from += n;
            (i, at, from - n, n)
        })
    }
}

/// One source GPU's multisplit.
#[derive(Clone, Copy)]
struct Sent {
    /// Its split buffer, which holds the rest.
    buf: DevSlice,
    /// Its output buffers: a segment each, partition-ordered.
    out: [DevSlice; MAX_SEGMENTS],
    /// Per segment, where the words of each class — a target — end in
    /// its output; a class starts where the one before it ends.
    ends: [[usize; MAX_PARTITIONS]; MAX_SEGMENTS],
    /// The bytes its split's launches streamed.
    stream_bytes: u64,
}

impl Sent {
    /// What a GPU sends: its split buffer `buf`, the buffers `out` its
    /// segments were split into, and their `classes`.
    fn new(buf: DevSlice, out: [DevSlice; MAX_SEGMENTS], classes: &SegmentedSplit) -> Self {
        let mut ends = [[0; MAX_PARTITIONS]; MAX_SEGMENTS];
        for (s, ends) in ends.iter_mut().enumerate() {
            let classes = classes.offsets(s).iter().zip(classes.counts(s));
            for (end, (at, n)) in ends.iter_mut().zip(classes) {
                *end = (at + n) as usize;
            }
        }
        Self {
            buf,
            out,
            ends,
            stream_bytes: classes.counters.stream_bytes,
        }
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
    /// Where the kernel leaves an answer per word of segment 0: empty for
    /// an operation without a return trip.
    answers: DevSlice,
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

/// The value a query kernel found: `found` is the key's packed pair, or
/// `EMPTY`.
pub(crate) fn found_value(found: u64) -> Option<u32> {
    (found != EMPTY).then(|| value_of(found))
}

/// The return trip's scatter on an origin GPU: warp `w` reads query words
/// `32w..` of the origin's split (`words`, `n` in all) and the `answers`
/// that landed beside them, writes each hit's value into the half of the
/// value words of `results` its position names and sets the position's
/// found bit with one warp-aggregated `atomicOr` per found-bit word it
/// touches ([`result_words`]); a miss stores nothing. The found bits start
/// cleared. `swapped` is `Mutation::AnswerHalvesSwapped`.
fn result_scatter(
    dev: &Device,
    [words, answers, results]: [DevSlice; 3],
    opts: LaunchOptions,
    swapped: bool,
) -> KernelStats {
    const G: usize = 32;
    let n = words.len();
    let (value_words, bit_words) = result_words(n);
    let values = results.sub(0, value_words);
    let found = results.sub(value_words, bit_words);
    dev.mem().fill(found, 0);
    let warps = n.div_ceil(G);
    dev.launch("result_scatter", warps, GroupSize::WARP, opts, |ctx| {
        let first = ctx.group_id() * G;
        let (mut slot, mut pair) = ([0usize; G], [EMPTY; G]);
        for r in 0..(n - first).min(G) {
            // the position the split tagged, and what the target found
            slot[r] = value_of(ctx.read_stream(words, first + r)) as usize;
            pair[r] = ctx.read_stream(answers, first + r);
        }
        let hits = ctx.ballot(|r| pair[r as usize] != EMPTY);
        let mut halves = [(0, 0); G];
        let mut stores = 0;
        for r in (0..G).filter(|&r| hits & (1 << r) != 0) {
            // BROKEN if `swapped` (mutation double): the other half
            halves[stores] = (slot[r] ^ usize::from(swapped), value_of(pair[r]));
            stores += 1;
        }
        ctx.write_halves(values, &halves[..stores]);
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
    fn segments(&self, input: Input) -> usize {
        usize::from(!input.keys.is_empty()) + input.pairs.len() / self.num_gpus()
    }

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

    /// The device-sided cascade of `op` over `input` (each list already
    /// resident on its GPU), appending its stages to `report`; returns how
    /// many keys it tombstoned.
    ///
    /// Each target GPU runs one launch of the kernel over the words it
    /// received — segment after segment, in `op`'s sections — and leaves
    /// on the same GPU one answer per word of segment 0: the packed pair
    /// found or `EMPTY` where the return trip scatters values, an erase's
    /// hit flag otherwise (1 iff tombstoned, stored unbilled).
    /// `answer((g, i), a)` receives the answer to key `i` of the caller's
    /// GPU `g`: a value return trip's once the round's scatter is done —
    /// as the pair rebuilt from the key and the value that came down, or
    /// `EMPTY` — a flag return trip's as its target answers. Words move
    /// between GPUs device to device; the host reads only what it hands
    /// out. Under an armed plan rounds run more than once: input
    /// addressed to quarantined GPUs re-spreads over the survivors with its
    /// origin tracked, wasted attempts stay billed, and the count and
    /// `answer` see every completed target of every round — an aborted
    /// round hands out the answers that had landed on their origins.
    ///
    /// # Errors
    /// Probing exhaustion aggregated over the GPUs; a kernel's other
    /// errors and scratch OOM; [`Self::with_failover`]'s.
    pub(crate) fn cascade(
        &self,
        op: &CascadeOp,
        input: Input,
        report: &mut OpReport,
        mut answer: impl FnMut((usize, usize), u64),
    ) -> Result<u64, OpError> {
        let m = self.num_gpus();
        let answered = if op.back.is_some() { m } else { 0 };
        assert_eq!((input.keys.len(), input.pairs.len() % m), (answered, 0), "one batch per GPU");
        assert!((1..=MAX_SEGMENTS).contains(&self.segments(input)));
        let policy = self.retry_policy();
        let mut tombstoned = 0;
        self.with_failover(report, |plan, mask, report, tally| {
            // the healthy path borrows the caller's lists as they are
            let respread = (mask != 0).then(|| self.respread(input, mask));
            let lists = respread
                .as_ref()
                .map(|(keys, pairs, _)| (slices(keys), slices(pairs)));
            let effective = lists.as_ref().map(|(keys, pairs)| Input { keys, pairs });
            let origin = respread.as_ref().map(|(_, _, origin)| origin);
            let router = self.router_for(mask);
            self.round(
                op,
                effective.unwrap_or(input),
                origin,
                &router,
                plan,
                &policy,
                report,
                tally,
                &mut tombstoned,
                &mut answer,
            )
        })?;
        Ok(tombstoned)
    }

    /// One round under a fixed router/plan snapshot.
    #[allow(clippy::too_many_arguments)]
    fn round(
        &self,
        op: &CascadeOp,
        input: Input,
        origin: Option<&Origins>,
        router: &Router,
        plan: &FaultPlan,
        policy: &RetryPolicy,
        report: &mut OpReport,
        tally: &mut ChaosTally,
        tombstoned: &mut u64,
        answer: &mut impl FnMut((usize, usize), u64),
    ) -> Result<(), Abort> {
        let oh = self.device(0).spec().launch_overhead;
        let opts = LaunchOptions::default()
            .with_schedule(self.cfg().schedule)
            .with_per_op_dispatch(self.cfg().per_op_dispatch);
        let alltoall = |bytes: &dyn Fn(usize, usize) -> u64, tally: &mut ChaosTally| {
            let phase = alltoall_time_faulted(self.topology(), bytes, plan, policy);
            tally.settle(plan, policy, phase).map_err(Abort::Lost)
        };
        let origin_of = |i: usize, slot: usize| origin.map_or((i, slot), |o| o[i][slot]);

        // Phases 1+2: multisplit and transposition
        let segments = self.segments(input);
        let mut split = SplitPhase {
            guards: std::array::from_fn(|_| None),
            sent: [None; MAX_PARTITIONS],
            time: (0.0, 0.0),
        };
        self.multisplit_phase(&mut split, op, input, router, opts, plan, policy, report, tally)?;
        // the stage streams the bytes of every partition's split
        let bytes = split.sent().map(|sent| sent.stream_bytes);
        let (time, overhead) = split.time;
        report.push(CascadeStage::Multisplit, time, bytes.sum(), overhead);
        let transpose = alltoall(&|i, j| split.bytes(i, j, 0..segments, 8), tally)?;
        let landed = self
            .transpose_move(op, segments, &mut split)
            .map_err(Abort::Fatal)?;
        let landed = landed.iter().map_while(Option::as_ref);
        report.push(CascadeStage::Transpose, transpose.time, transpose.bytes, 0.0);

        // bit `j`: target `j`'s answers have landed on their origins
        let mut done = 0u64;
        // the rest of the round: where it aborts, what landed still stands
        let res = (|| {
            // Phase 3: the local kernels (global barrier → the busiest device)
            let mut kernels = Phase::new(self.topology());
            let mut late_inserts = None;
            let mut failed = 0u64;
            for (j, landed) in landed.clone().enumerate() {
                if landed.words.is_empty() {
                    continue;
                }
                let mem = self.device(j).mem();
                let retried = tally.launch_retries;
                let gate = tally.gate_launch(plan, policy, j, op.site);
                if self.cfg().mutation == Some(Mutation::DoubleApplyOnRetry)
                    && op.site == launch_site::INSERT
                    && tally.launch_retries > retried
                {
                    // BROKEN (mutation double): premature failover without
                    // the idempotence guard — the sub-batch is applied to
                    // its failover targets although the primary is still
                    // being retried (and will succeed), duplicating keys.
                    if let Some(failover) = router.also_masking(j) {
                        let words = mem.d2h_words(landed.words);
                        let pairs = words.map(|w| (key_of(w), value_of(w)));
                        let _ = self.insert_routed(&failover, pairs);
                    }
                }
                gate.map_err(Abort::Lost)?;
                report.launches += 1;
                let sections = (op.sections)(&landed.cuts);
                // an erase's hit flags: 0, then 1 where `hit` tombstoned
                if sections.erases > 0 {
                    mem.fill(landed.answers, 0);
                }
                let hit = |i| mem.fill(landed.answers.sub(i, 1), 1);
                let ran = self.maps()[j].launch(sections, landed.words, landed.answers, hit);
                if let Some((outcome, erased)) = unless_exhausted(ran, &mut failed)? {
                    *tombstoned += erased;
                    kernels.add(j, straggled(plan, j, outcome.stats.sim_time), oh);
                    // segment 0 of the words is every source GPU's chunk
                    // for `j` in GPU order, and so are the answers
                    let sources = op.back.as_ref().map(|_| split.by_source(j));
                    for (i, at, from, n) in sources.into_iter().flatten() {
                        let answers = landed.answers.sub(from, n);
                        if op.lands_values() {
                            // the NVLink leg, billed as TransposeBack
                            let (landing, _) = split.landing(i, input.keys[i].len());
                            mem.peer_copy(answers, self.device(i).mem(), landing.sub(at, n));
                        } else {
                            // hand the answers out now, so they stand even
                            // if a later target aborts the round
                            let words = mem.d2h_words(landed.words.sub(from, n));
                            for (word, a) in words.zip(mem.d2h_words(answers)) {
                                answer(origin_of(i, value_of(word) as usize), a);
                            }
                        }
                    }
                    done |= 1 << j;
                }
                let cuts = landed.cuts;
                if let Some(late) = op.late.filter(|&late| cuts[late] > 0) {
                    // after the kernel on this target, so that a key it
                    // both read and wrote was read first
                    tally
                        .gate_launch(plan, policy, j, launch_site::INSERT)
                        .map_err(Abort::Lost)?;
                    let pairs = landed.words.sub(cuts[..late].iter().sum(), cuts[late]);
                    report.launches += 1;
                    let (puts, none) = (Sections::puts(cuts[late]), pairs.sub(0, 0));
                    let inserted = self.maps()[j].launch(puts, pairs, none, |_| {});
                    if let Some((outcome, _)) = unless_exhausted(inserted, &mut failed)? {
                        let time = straggled(plan, j, outcome.stats.sim_time);
                        let phase = late_inserts.get_or_insert_with(|| Phase::new(self.topology()));
                        phase.add(j, time, oh);
                    }
                }
            }
            // a kernel row bills at least one launch's overhead
            let push = |report: &mut OpReport, stage, phase: &Phase| {
                let (time, overhead) = phase.max();
                report.push(stage, time, 0, overhead.max(oh));
            };
            push(report, op.stage, &kernels);
            if let Some(late) = &late_inserts {
                push(report, CascadeStage::Insert, late);
            }
            if failed > 0 {
                return Err(Abort::Fatal(OpError::ProbingExhausted { failed }));
            }

            // Phases 4+5: the return trip, of segment 0
            let Some(back) = &op.back else {
                return Ok(());
            };
            // the transposed cells: target `j`'s answers travel to source `i`
            let transpose = alltoall(&|j, i| split.bytes(i, j, 0..1, back.bytes), tally)?;
            report.push(CascadeStage::TransposeBack, transpose.time, transpose.bytes, 0.0);
            let mut scatters = Phase::new(self.topology());
            let swapped = self.cfg().mutation == Some(Mutation::AnswerHalvesSwapped);
            for (i, sent) in split.sent().enumerate() {
                let n = input.keys[i].len();
                if n == 0 {
                    continue;
                }
                let dev = self.device(i);
                let stats = match back.scatter {
                    Scatter::Billed {
                        name,
                        stream_bytes,
                        transactions,
                    } => dev.launch(name, n.div_ceil(32), GroupSize::WARP, opts, |ctx| {
                        ctx.bill_stream_bytes(stream_bytes);
                        ctx.bill_transactions(transactions);
                    }),
                    Scatter::Values => {
                        let (answers, results) = split.landing(i, n);
                        let words = sent.out[0];
                        result_scatter(dev, [words, answers, results], opts, swapped)
                    }
                };
                report.launches += 1;
                scatters.add(i, straggled(plan, i, stats.sim_time), oh);
            }
            push(report, CascadeStage::Scatter, &scatters);
            Ok(())
        })();
        if op.lands_values() {
            if res.is_ok() {
                // what comes down: a value per key, two to a word, then
                // the found bits
                for (i, keys) in input.keys.iter().enumerate() {
                    let (_, results) = split.landing(i, keys.len());
                    let (value_words, bit_words) = result_words(keys.len());
                    let mem = self.device(i).mem();
                    let values = mem.d2h_words(results.sub(0, value_words));
                    let values = values.flat_map(|word| [word as u32, (word >> 32) as u32]);
                    let found = mem.d2h_words(results.sub(value_words, bit_words));
                    let found = found.flat_map(|word| (0..64).map(move |bit| word >> bit & 1 == 1));
                    let answers = values.zip(found);
                    for ((slot, &key), (value, found)) in keys.iter().enumerate().zip(answers) {
                        let pair = if found { pack(key, value) } else { EMPTY };
                        answer(origin_of(i, slot), pair);
                    }
                }
            } else {
                // the answers that landed before the round aborted stand
                for (j, landed) in landed.enumerate() {
                    if done & (1 << j) == 0 {
                        continue;
                    }
                    for (i, at, from, n) in split.by_source(j) {
                        let (landing, _) = split.landing(i, input.keys[i].len());
                        let words = self.device(j).mem().d2h_words(landed.words.sub(from, n));
                        let pairs = self.device(i).mem().d2h_words(landing.sub(at, n));
                        for (word, pair) in words.zip(pairs) {
                            answer(origin_of(i, value_of(word) as usize), pair);
                        }
                    }
                }
            }
        }
        res
    }

    /// Re-spreads elements addressed to quarantined GPUs round-robin over
    /// the live ones (a dead GPU cannot host its cascade input), segment
    /// by segment: the effective keys, the effective pairs, and the keys'
    /// [`Origins`], so that answers return in the caller's order.
    fn respread(&self, input: Input, mask: u32) -> (Vec<Vec<u32>>, Vec<Vec<u64>>, Origins) {
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
        let mut origin: Origins = vec![Vec::new(); m];
        let keys = respread(input.keys, |i, idx| {
            let g = place(i);
            origin[g].push((i, idx));
            g
        });
        let pairs = input.pairs.chunks(m).flat_map(|per_gpu| respread(per_gpu, |i, _| place(i)));
        (keys, pairs.collect(), origin)
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
        op: &CascadeOp,
        input: Input,
        router: &Router,
        opts: LaunchOptions,
        plan: &FaultPlan,
        policy: &RetryPolicy,
        report: &mut OpReport,
        tally: &mut ChaosTally,
    ) -> Result<(), Abort> {
        let (m, segments) = (self.num_gpus(), self.segments(input));
        let mut splits = Phase::new(self.topology());
        for i in 0..m {
            let dev = self.device(i);
            let keys = input.keys.get(i).copied();
            let pairs = || input.pairs.iter().skip(i).step_by(m);
            // double buffer (Fig. 4: "out-of-place using one double buffer
            // per GPU"): a segment as uploaded — keys lie two to a word —
            // then the words it is split into
            let words = keys.map_or(0, |keys| keys.len().div_ceil(2) + keys.len())
                + 2 * pairs().map(|words| words.len()).sum::<usize>();
            // and at its end where the answers to the keys land, then
            // their results (`SplitPhase::landing`)
            let answered = keys.filter(|_| op.lands_values()).map_or(0, <[u32]>::len);
            let (value_words, bit_words) = result_words(answered);
            let back = answered + value_words + bit_words;
            // and what the split keeps its counts and prefixes in
            let lens = keys.map(<[u32]>::len).into_iter();
            let counters = scratch_words(m, lens.chain(pairs().map(|words| words.len())));
            if words > 0 {
                tally
                    .gate_launch(plan, policy, i, launch_site::MULTISPLIT)
                    .map_err(Abort::Lost)?;
            }
            let guard = dev
                .alloc_scratch(words + counters + back)
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
            if let Some(keys) = keys {
                let staged = take(keys.len().div_ceil(2));
                dev.mem().h2d_keys(staged, keys);
                // MUTATION DOUBLE (`Mutation::SplitTagsRunOffset`)
                let broken = self.cfg().mutation == Some(Mutation::SplitTagsRunOffset);
                parts[0] = Segment::keys(staged, keys.len(), take(keys.len()))
                    .tagging_run_offsets(broken)
                    .reading_unpublished_prefixes(peek);
            }
            for (part, words) in parts[usize::from(keys.is_some())..].iter_mut().zip(pairs()) {
                let staged = take(words.len());
                dev.mem().h2d(staged, words);
                *part =
                    Segment::words(staged, take(staged.len())).reading_unpublished_prefixes(peek);
            }
            let counters = take(counters);
            let classes =
                device_multisplit_segments(dev, &parts[..segments], counters, m, opts, |w| {
                    router.route(key_of(w))
                });
            report.launches += u64::from(classes.launches);
            splits.add(i, straggled(plan, i, classes.sim_time), classes.fixed_time);
            split.sent[i] = Some(Sent::new(buf, parts.map(|part| part.out()), &classes));
        }
        split.time = splits.max();
        Ok(())
    }

    /// Moves every partition to its target GPU, device to device
    /// (functional movement only — the transfer itself is billed by the
    /// caller via the all-to-all model, faulted or healthy). A target's
    /// words land in one buffer, segment after segment, each every
    /// source's chunk in GPU order, as its [`Landed`] says; behind them
    /// lies room for an answer per word of segment 0 if `op` has a return
    /// trip.
    fn transpose_move<'s>(
        &'s self,
        op: &CascadeOp,
        segments: usize,
        split: &mut SplitPhase<'s>,
    ) -> Result<[Option<Landed>; MAX_PARTITIONS], OpError> {
        let m = self.num_gpus();
        let mut landed = [None; MAX_PARTITIONS];
        for (j, landed) in landed.iter_mut().enumerate().take(m) {
            let mut cuts: Cuts = [0; MAX_SEGMENTS];
            for (s, cut) in cuts.iter_mut().enumerate().take(segments) {
                *cut = split.sent().map(|sent| sent.at(s, j).1).sum();
            }
            let words: usize = cuts.iter().sum();
            let answers = if op.back.is_some() { cuts[0] } else { 0 };
            let to = self.device(j).mem();
            let guard = self.device(j).alloc_scratch((words + answers).max(1))?;
            let buf = guard.slice();
            split.guards[m + j] = Some(guard);
            let mut at = 0;
            for s in 0..segments {
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
        let input = Input { keys: &[], pairs: &slices(per_gpu_words) };
        self.cascade(&INSERT, input, &mut report, |_, _| {})?;
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
        let input = Input { keys: &slices(per_gpu_keys), pairs: &[] };
        self.cascade(&RETRIEVE, input, &mut report, |(g, i), pair| {
            values[g][i] = found_value(pair);
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
        let input = Input { keys: &slices(per_gpu_keys), pairs: &[] };
        let erased = self.cascade(&ERASE, input, &mut report, |(g, i), flag| {
            hits[g][i] |= flag != 0;
        })?;
        Ok(PerGpuDeleteResponse {
            hits,
            erased,
            report,
        })
    }
}
