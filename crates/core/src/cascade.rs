//! The cascade driver: the one round loop behind every multi-GPU
//! operation.
//!
//! §IV-B's scheme is a single pipeline — multisplit → transposition →
//! per-GPU kernel, optionally → transposition back → merge — and so is
//! this module. Every operation is one [`CascadeOp`], read off the
//! segments its [`Input`] has: an insertion has puts, a retrieval gets, an
//! erasure erases, and the mixed round of [`crate::MapService::apply`] any
//! of them side by side. A round's segments are the sections of the one
//! kernel ([`crate::get_put`]), in its grid order, as
//! [`crate::get_put::Mix`] cuts a call into them. A segment's path
//! through the round, `n` the answered and `e` the erased keys of a GPU:
//!
//! | segment, section | upload (host-sided) | NVLink there | return trip | D2H (host-sided) | merge warps (node launch, one a run of 256) |
//! |------------------|---------------------|--------------|-------------|------------------|---------------------------------------------|
//! | gets: keys read alone | 4 B / key | 4 B / key | 4 B / key + 4 B / 32 keys | `4n + ⌈n/8⌉` B for gets, takes and upserts together | [`Merge`]: where its `m` pieces start, a poll of the flag of each target holding a piece, 256·(4+4) B and the found words streamed in, 256·4 B of values and the found words streamed out, an `atomicOr` only on a found word shared with a neighbouring run or segment |
//! | takes: keys read and erased | 4 B / key | 4 B / key | 4 B / key + 4 B / 32 keys | (with the gets) | as a get's; its found bit is the erase's hit |
//! | upserts: keys read and put | 8 B / pair | 8 B / pair | 4 B / pair + 4 B / 32 pairs | (with the gets) | as a get's |
//! | puts: keys put alone | 8 B / pair | 8 B / pair | none | none | — |
//! | erases: keys erased alone | 4 B / key | 4 B / key | 4 B / 32 keys | `⌈e/8⌉` B | [`Merge`]: as a get's, without values |
//!
//! Every answered key's position stays on its origin: the multisplit
//! writes a key out as its 4 bytes, two to a word, an upsert's pair as it
//! is, and beside each the element's position in the GPU's chunk, 4 bytes
//! in a side array that never leaves the origin. A target answers in the
//! order it received, so the last group of each source's run stores home
//! the run's 4-byte values — a get's, a take's or an upsert's, what its key
//! held before the launch — and a 32-bit found word per 32 answers, the
//! run's found bits starting a word of their own, since runs from
//! different targets are not aligned to 32. The split wrote each run of
//! 256 positions out as a piece per target, in position order, and keeps
//! where each piece starts, 4 bytes a target a run. The origin's merge
//! takes a run at a time: it streams each piece's positions, values and
//! found words back in, places the answers by position and streams the
//! run's values out, two to a value word, and its found bits, 64 to a
//! word: the host downloads `⌈n/2⌉` value words and `⌈n/64⌉` found-bit
//! words, read back in the caller's order (no value is free to mean
//! "absent"). A take's hit and an erase's are found bits, an erase's in a
//! bitmap of its own.
//!
//! A cascade's segments lie in the order of the table above, each the
//! elements of every GPU, as they lie in the caller's memory: keys, or
//! `(key, value)` pairs, packed into words as they upload. A GPU's
//! segments share the round — one upload, the one launch of one multisplit
//! ([`multisplit::device_multisplit_segments`], whose runs scan their
//! class counts by decoupled look-back; none on a GPU without a word — not
//! the paper's `m` passes, because a small round pays for launches, §V-B),
//! one all-to-all billed on the summed byte matrix — while each is split
//! and transposed on its own, so a target receives segment after segment,
//! each in source order: the input of **one** run of the kernel, its
//! sections the segments' lengths (distinct keys race freely, §IV-A; a
//! key both read and written is one group, which reads first; an erase
//! restores its SOA sentinel before its tombstone shows, [`crate::slots`]).
//!
//! Every GPU's kernel and every GPU's merge are **one node launch**
//! (`gpu_sim::launch_node`), `[kernel of every GPU | merge of every GPU]`,
//! with no global barrier between the two: a kernel group publishes its
//! answer as its own flag, the last group of each source's run of a
//! segment waits for the run's answers and stores their values and found
//! words into that source's landing, then publishes a flag there, and a
//! merge warp waits for the flags of the targets that hold a piece of its
//! run. A healthy round is thus two sequential launches a GPU — the split,
//! and the node launch — and its report counts the launches it made,
//! summed over the devices (partitions that share a device share its node
//! launch). The kernels' row pays the node launch's overhead; the
//! `Scatter` row bills the merge warps net of it and, as its fixed part,
//! the chain of two waits that ends in them. The two rows are the two
//! sections of one launch, and the host bracket's overlay schedules them
//! as one stage of the video memory ([`crate::host_ops`]). Every launch
//! takes the map's schedule, so under `Schedule::Sequential` a class
//! reaches its kernel in input order whatever the worker count.
//!
//! Words move between GPUs device to device: the all-to-all copies each
//! chunk from its source's split buffer into its target's
//! ([`gpu_sim::DeviceMemory::peer_copy`], keys by
//! [`gpu_sim::DeviceMemory::peer_copy_halves`]), and the node launch's
//! stores ([`gpu_sim::GroupCtx::store_peer_halves`] and
//! [`gpu_sim::GroupCtx::store_peer`]) carry the answers back, counted on
//! the links the transposition back bills. The host reads only what it
//! hands out — the values and found bits that come down — and a healthy
//! round keeps its bookkeeping in arrays of fixed capacity, so it
//! allocates nothing on the host.
//!
//! Fault handling is woven through once. [`DistributedHashMap::with_failover`]
//! runs a step (a device round here, a PCIe phase in [`crate::host_ops`])
//! under a snapshot of the fault plan and quarantine mask, books what its
//! retries cost, and on a lost device quarantines it and runs the step
//! again — at most `m + 1` times, since every failed run removes a GPU.
//! Every GPU's launch is gated before the node launch, so a gate that
//! gives up aborts the round before any table is touched. Re-running is
//! safe because table mutations come last in a round and are idempotent:
//! duplicate inserts update in place, tombstoning a tombstone is a no-op,
//! queries are pure. Once the node launch ran, its answers stand: a round
//! that aborts after it — the transposition back gives up — hands out
//! every answer and bills no return trip. An erased key is a hit even
//! though the restarted round no longer sees it (its caller ORs the hits
//! of every round), and a key the mixed round read keeps its first answer
//! — the re-run would upsert again and read what the aborted round
//! already wrote.

use crate::chaos::{launch_site, straggled, ChaosTally, Router};
use crate::config::Mutation;
use crate::distributed::{DistributedHashMap, MAX_PARTITIONS};
use crate::entry::{key_of, pack, value_of, EMPTY, TOMBSTONE};
use crate::get_put::{Input as Words, Probe, Sections};
use crate::host_ops::Cut;
use crate::service::{Applied, OpError, OpReport, PerGpuResponse};
use crate::stats::CascadeStage;
use crate::table::check_keys;
use gpu_sim::{
    launch_node, DevSlice, Device, FaultPlan, GroupCtx, GroupSize, LaunchOptions, NodeStats,
    ScratchGuard, Section,
};
use interconnect::{alltoall_time_faulted, Topology};
use multisplit::{
    device_multisplit_segments, scratch_words, Segment, SegmentedSplit, MAX_CLASSES, MAX_SEGMENTS,
    RUN_WORDS,
};

// a node's partitions are the classes of its multisplit and the members of
// its node launch
const _: () = assert!(MAX_PARTITIONS <= MAX_CLASSES);
const _: () = assert!(MAX_PARTITIONS <= gpu_sim::node::MAX_MEMBERS);

/// A round's segments, the kernel's sections in grid order, and so the
/// order a target GPU's groups run in: keys read alone, keys read and
/// erased, pairs of keys read and put, pairs of keys put alone, keys
/// erased alone.
pub(crate) const GETS: usize = 0;
pub(crate) const TAKES: usize = 1;
pub(crate) const UPSERTS: usize = 2;
pub(crate) const PUTS: usize = 3;
pub(crate) const ERASES: usize = 4;
pub(crate) const SEGMENTS: usize = MAX_SEGMENTS;

/// The segments that answer per key, each with a return trip: those that
/// answer the value their key held, then the erases.
const ANSWERED: [usize; 4] = [GETS, TAKES, UPSERTS, ERASES];

/// The segments that answer with a value, and so the first sections of
/// the kernel's output and of an origin's value words.
const VALUED: usize = 3;

/// Whether segment `s` carries keys, 4 bytes each, rather than pairs.
fn keyed(s: usize) -> bool {
    matches!(s, GETS | TAKES | ERASES)
}

/// Bytes an element of segment `s` carries to its target.
pub(crate) fn up_bytes(s: usize) -> u64 {
    if keyed(s) {
        4
    } else {
        8
    }
}

/// Answers a found word holds, a bit each, in the low half of a word of
/// its own.
const FOUND_BITS: usize = 32;

/// Bytes the answers to `n` words of segment `s` that one source sent one
/// target carry back between GPUs: a 4-byte value per get, take or upsert,
/// and a 32-bit found word per [`FOUND_BITS`] answers.
fn back_bytes(s: usize, n: usize) -> u64 {
    let values = if s == ERASES { 0 } else { 4 * n };
    (values + 4 * n.div_ceil(FOUND_BITS)) as u64
}

/// Per slot of a GPU's re-spread keys, its `(origin GPU, origin index)`.
type Origins = Vec<Vec<(usize, usize)>>;

/// Elements GPU `i` holds of a segment's lists.
fn len_of<T>(lists: &[&[T]], i: usize) -> usize {
    lists.get(i).map_or(0, |list| list.len())
}

/// The lists of a device-sided call ([`DistributedHashMap::apply_device_sided`]),
/// one per GPU, each already resident on its GPU: of one kind a call.
#[derive(Clone, Copy, Debug)]
pub enum Resident<'a> {
    /// Pairs to put.
    Puts(&'a [&'a [(u32, u32)]]),
    /// Keys to read.
    Reads(&'a [&'a [u32]]),
    /// Keys to erase.
    Erases(&'a [&'a [u32]]),
}

/// A cascade's input: per segment a list per GPU — of keys, 4 bytes each,
/// or of `(key, value)` pairs, 8 — or none, for a segment the call lacks.
/// The gets, takes and erases are keys, the upserts and puts pairs.
#[derive(Clone, Copy, Default)]
pub(crate) struct Input<'a> {
    pub(crate) keys: [&'a [&'a [u32]]; SEGMENTS],
    pub(crate) pairs: [&'a [&'a [(u32, u32)]]; SEGMENTS],
}

impl Input<'_> {
    /// Lists segment `s` holds: one per GPU, or none.
    fn gpus(&self, s: usize) -> usize {
        self.keys[s].len().max(self.pairs[s].len())
    }

    /// Elements GPU `i` holds of segment `s`.
    fn len(&self, s: usize, i: usize) -> usize {
        len_of(self.keys[s], i) + len_of(self.pairs[s], i)
    }

    /// The operation this input describes.
    pub(crate) fn op(&self) -> CascadeOp {
        CascadeOp {
            present: std::array::from_fn(|s| self.gpus(s) > 0),
        }
    }
}

/// The launches a GPU that holds words makes in one round, one after the
/// other: the split, and the node launch of its kernel and, if the round
/// answers, the return trip's merge.
pub(crate) const ROUND_LAUNCHES: usize = 2;

/// What distinguishes one cascade from another: the segments it carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct CascadeOp {
    /// Per segment, whether the round carries it.
    present: [bool; SEGMENTS],
}

impl CascadeOp {
    /// Whether the round answers per key, with a return trip.
    pub(crate) fn back(&self) -> bool {
        ANSWERED.iter().any(|&s| self.present[s])
    }

    /// Fault-roll site of the kernel launch: a launch of one kind keeps
    /// its kind's site, a mix is the mixed round's.
    fn site(&self) -> u64 {
        let only = |s: usize| (0..SEGMENTS).all(|t| self.present[t] == (t == s));
        if only(PUTS) {
            launch_site::INSERT
        } else if only(GETS) {
            launch_site::QUERY
        } else if only(ERASES) {
            launch_site::ERASE
        } else {
            launch_site::GET_PUT
        }
    }
}

/// Bytes that come down to the host for `n` answered values and `e`
/// erases' hits of one GPU: a value a read and a found bit a key.
pub(crate) fn down_bytes(n: usize, e: usize) -> u64 {
    4 * n as u64 + n.div_ceil(8) as u64 + e.div_ceil(8) as u64
}

/// What a [`Merge`] leaves for `n` answered values and `e` erases:
/// value words, two values to a word, then the values' found-bit words and
/// the erases', 64 bits to a word.
fn result_words(n: usize, e: usize) -> [usize; 3] {
    [n.div_ceil(2), n.div_ceil(64), e.div_ceil(64)]
}

/// What a target's answer word holds until its group publishes it: no
/// answer is a tombstone.
const PENDING: u64 = TOMBSTONE;

/// A round's node launch: what it billed, its sections, and the kernel's
/// groups of each target, whose counts the round reads off.
struct NodeRun<'a, H> {
    stats: NodeStats,
    sections: [Section; 2 * MAX_PARTITIONS],
    probes: [Option<Probe<'a, H>>; MAX_PARTITIONS],
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
    /// Per device, whether a partition booked a section of a shared launch.
    shared: [bool; MAX_PARTITIONS],
}

impl<'t> Phase<'t> {
    fn new(topo: &'t Topology) -> Self {
        Self {
            device_of: &topo.device_of,
            sums: [(0.0, 0.0); MAX_PARTITIONS],
            shared: [false; MAX_PARTITIONS],
        }
    }

    /// Books launches of partition `j` that took `time` in all, `fixed`
    /// of it size-independent (their overhead).
    fn add(&mut self, j: usize, time: f64, fixed: f64) {
        let sum = &mut self.sums[self.device_of[j]];
        sum.0 += time;
        sum.1 += fixed;
    }

    /// Books partition `j`'s section of a node launch that took `time` as
    /// a launch of its own, `fixed` of it what the launch pays once a
    /// device — its overhead, or its chain of waits. The partitions of a
    /// device share its launch, so the first of them books `time` and a
    /// later one `time - fixed`.
    fn add_shared(&mut self, j: usize, time: f64, fixed: f64) {
        let d = self.device_of[j];
        if std::mem::replace(&mut self.shared[d], true) {
            self.sums[d].0 += time - fixed;
        } else {
            self.add(j, time, fixed);
        }
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

    /// Elements source `i` sends target `j` of segment `s` across a link:
    /// none where they stay on their GPU.
    fn crossing(&self, i: usize, j: usize, s: usize) -> usize {
        let sent = self.sent[i].as_ref().filter(|_| i != j);
        sent.map_or(0, |sent| sent.at(s, j).1)
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

/// One source GPU's multisplit, in its split buffer, and where the
/// answers to it land.
#[derive(Clone, Copy)]
struct Sent {
    /// Per segment, the buffer it was split into, partition-ordered: keys
    /// two to a word, or pairs.
    out: [DevSlice; SEGMENTS],
    /// Per segment, its elements.
    lens: [usize; SEGMENTS],
    /// Per segment, where the words of each class — a target — end in
    /// its output; a class starts where the one before it ends.
    ends: [[usize; MAX_PARTITIONS]; SEGMENTS],
    /// Per segment that answers, per element of its output, its position
    /// in the segment: 32-bit halves, which never leave this GPU.
    positions: [DevSlice; SEGMENTS],
    /// Per segment that answers, where each run's piece of each target
    /// starts in its output ([`Segment::with_pieces`]): `m` 32-bit halves a
    /// run, which never leave this GPU either.
    pieces: [DevSlice; SEGMENTS],
    /// Per segment that answers with a value, where the values of its
    /// answers land, 32-bit halves in the order of its output.
    values: [DevSlice; SEGMENTS],
    /// Per segment that answers, where its found words land: per target,
    /// from [`Sent::found_at`] on, a word per [`FOUND_BITS`] answers.
    found: [DevSlice; SEGMENTS],
    /// What its merge writes ([`result_words`]).
    results: DevSlice,
    /// Per segment that answers and target, in [`ANSWERED`] order, the
    /// flag that target publishes once its answers have landed.
    flags: DevSlice,
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

    /// Where the elements of segment `s` this GPU holds for target `j`
    /// start in its output, and how many there are.
    fn at(&self, s: usize, j: usize) -> (usize, usize) {
        let at = j.checked_sub(1).map_or(0, |before| self.ends[s][before]);
        (at, self.ends[s][j] - at)
    }

    /// The found word where target `j`'s answers to segment `s` start.
    fn found_at(&self, s: usize, j: usize) -> usize {
        (0..j).map(|t| self.at(s, t).1.div_ceil(FOUND_BITS)).sum()
    }

    /// Elements of each segment that answers, in [`ANSWERED`] order.
    fn answered(&self) -> [usize; 4] {
        ANSWERED.map(|s| self.lens[s])
    }
}

/// What [`DistributedHashMap::transpose_move`] lands on a target GPU.
#[derive(Clone, Copy)]
struct Landed {
    /// The lengths of the segments, zero for one the round lacks.
    cuts: [usize; SEGMENTS],
    /// The keys and the pairs received: segment after segment, each every
    /// source's chunk in GPU order.
    input: Words,
    /// Where the kernel leaves an answer per get, take and upsert, then a
    /// hit flag per erase: empty for an operation without a return trip.
    answers: DevSlice,
}

impl Landed {
    /// The sections of the one launch over `input`.
    fn sections(&self) -> Sections {
        let [gets, takes, upserts, puts, erases] = self.cuts;
        Sections { gets, takes, upserts, puts, erases }
    }

    /// Where segment `s` starts among the keys, or among the pairs.
    fn at(&self, s: usize) -> usize {
        (0..s).filter(|&t| keyed(t) == keyed(s)).map(|t| self.cuts[t]).sum()
    }

    /// Where the answers of segment `s` start.
    fn answers_at(&self, s: usize) -> usize {
        ANSWERED.iter().filter(|&&t| t < s).map(|&t| self.cuts[t]).sum()
    }
}

/// The lists of a device-sided call as the cascade takes them.
fn slices<T>(per_gpu: &[Vec<T>]) -> Vec<&[T]> {
    per_gpu.iter().map(Vec::as_slice).collect()
}

/// Per GPU of segment `s` of `input`, `x` for each of its elements.
fn per_key<T: Clone>(input: Input, s: usize, x: T) -> Vec<Vec<T>> {
    (0..input.gpus(s)).map(|g| vec![x.clone(); input.len(s, g)]).collect()
}

/// One segment re-spread: element `idx` of GPU `i`'s list goes to GPU
/// `to(i, idx)`.
fn respread<T: Copy>(lists: &[&[T]], mut to: impl FnMut(usize, usize) -> usize) -> Vec<Vec<T>> {
    let mut effective = vec![Vec::new(); lists.len()];
    for (i, list) in lists.iter().enumerate() {
        for (idx, &item) in list.iter().enumerate() {
            effective[to(i, idx)].push(item);
        }
    }
    effective
}

/// An [`Input`] re-spread over the live GPUs, owned, with the [`Origins`]
/// of each segment that answers.
struct Respread {
    keys: [Vec<Vec<u32>>; SEGMENTS],
    pairs: [Vec<Vec<(u32, u32)>>; SEGMENTS],
    origins: [Origins; SEGMENTS],
}

/// The return trip's merge on an origin GPU `sent`, warps of a node
/// launch: one warp a run of a segment that answers — [`RUN_WORDS`]
/// consecutive positions of the segment, whose elements the split wrote
/// out as a piece per target, in position order, from where
/// [`Sent::pieces`] says. Warp `w` reads where its run's pieces start and
/// end, waits for the flags of exactly the targets that hold a piece of it
/// — a value that shares a word with another target's is read as its own
/// half — then streams each piece back as the split streamed it out: its
/// positions, the values that landed beside them (a get's, take's or
/// upsert's) and the found words of its target's run. It places every
/// answer by its position and writes its run's values — behind those of
/// the segments before it, misses' too, whose found bit stays clear — and
/// found words as streamed stores, the erases' into a bitmap of their own
/// ([`result_words`]); an `atomicOr` sets only the bits of a found word
/// it shares with a neighbouring run or segment. The warps come segment
/// by segment, in [`ANSWERED`] order. Mutation doubles:
/// `Mutation::AnswerHalvesSwapped`, `Mutation::EraseHitInWrongBit`,
/// `Mutation::ScatterReadsBeforeFlag`,
/// `Mutation::ScatterReadsPositionOfWrongRun` and
/// `Mutation::MergeReadsPieceOfNextClass`.
struct Merge<'s> {
    sent: &'s Sent,
    /// Elements of each segment that answers, in [`ANSWERED`] order, and
    /// the runs, a warp each, over them.
    lens: [usize; 4],
    runs: [usize; 4],
    values: DevSlice,
    found: [DevSlice; 2],
}

/// Found words a run's found bits span: its [`RUN_WORDS`] bits from
/// anywhere in a word, and the one past them a mutation double may set.
const RUN_FOUND_WORDS: usize = RUN_WORDS / 64 + 1;

impl<'s> Merge<'s> {
    /// The merge of `sent`, its found bits cleared.
    fn new(dev: &Device, sent: &'s Sent) -> Self {
        let lens = sent.answered();
        let n = lens[..VALUED].iter().sum();
        let [value_words, read_bits, erase_bits] = result_words(n, lens[VALUED]);
        dev.mem().fill(sent.results.sub(value_words, read_bits + erase_bits), 0);
        Self {
            sent,
            lens,
            runs: lens.map(|len| len.div_ceil(RUN_WORDS)),
            values: sent.results.sub(0, value_words),
            found: [
                sent.results.sub(value_words, read_bits),
                sent.results.sub(value_words + read_bits, erase_bits),
            ],
        }
    }

    /// Warps of the merge.
    fn groups(&self) -> usize {
        self.runs.iter().sum()
    }

    /// Warp `w` of the merge on a node of `m` GPUs.
    fn warp(&self, ctx: &GroupCtx, mut w: usize, m: usize, mutation: Option<Mutation>) {
        // the segment this warp's id falls into, and its run within
        let mut k = 0;
        while w >= self.runs[k] {
            w -= self.runs[k];
            k += 1;
        }
        let (s, erase, sent) = (ANSWERED[k], k == VALUED, self.sent);
        let first = w * RUN_WORDS;
        let len = (self.lens[k] - first).min(RUN_WORDS);
        // where each target's piece of the run starts and ends in the
        // split's output: the next run's piece starts where it ends, the
        // last run's at the class's end, and at m = 1 a run is one piece
        let (mut starts, mut ends) = ([0; MAX_PARTITIONS], [0; MAX_PARTITIONS]);
        let last = first + len == self.lens[k];
        for j in 0..m {
            starts[j] = ctx.read_stream_half(sent.pieces[s], w * m + j) as usize;
            ends[j] = if m == 1 {
                starts[j] + len
            } else if last {
                sent.ends[s][j]
            } else {
                ctx.read_stream_half(sent.pieces[s], (w + 1) * m + j) as usize
            };
        }
        // the targets that answered a piece have stored it here, each
        // publishing its flag after its store (depth 2: the target published
        // after waiting for its answers); a value half is read on its own,
        // so the target of the word's other half need not have stored it
        let landed = || {
            for j in (0..m).filter(|&j| ends[j] > starts[j]) {
                ctx.poll(sent.flags, k * m + j, &mut [0], 2, |flag| flag[0] != 0);
            }
        };
        // BROKEN if set (mutation double): read before the flags say so
        let early = mutation == Some(Mutation::ScatterReadsBeforeFlag);
        if !early {
            landed();
        }
        // BROKEN if set (mutation double): an element's position is read
        // at its offset in the first target's run, not in its own
        let wrong_run = mutation == Some(Mutation::ScatterReadsPositionOfWrongRun);
        // BROKEN if set (mutation double): a piece is read from where the
        // next class's piece of the run starts
        let next_class = mutation == Some(Mutation::MergeReadsPieceOfNextClass);
        // the run's answers by position
        let (mut value, mut hit) = ([0u32; RUN_WORDS], [false; RUN_WORDS]);
        for j in 0..m {
            let (at, n) = sent.at(s, j);
            let found_at = sent.found_at(s, j);
            let piece = starts[j]..ends[j];
            let from = if next_class {
                starts[(j + 1) % m].min(self.lens[k] - piece.len())
            } else {
                piece.start
            };
            let mut word = (usize::MAX, 0);
            for (x, y) in piece.clone().zip(from..) {
                debug_assert!(x < at + n, "a piece lies in its target's run");
                let p = ctx.read_stream_half(sent.positions[s], if wrong_run { y - at } else { y });
                let answer = if erase { 0 } else { ctx.read_stream_half(sent.values[s], y) };
                let (fw, bit) = (found_at + (x - at) / FOUND_BITS, (x - at) % FOUND_BITS);
                if word.0 != fw {
                    word = (fw, ctx.read_stream_half(sent.found[s], 2 * fw));
                }
                // a broken position may leave the run
                if let Some(r) = (p as usize).checked_sub(first).filter(|&r| r < len) {
                    value[r] = answer;
                    hit[r] = word.1 >> bit & 1 == 1;
                }
            }
        }
        if early {
            landed();
        }
        // the run's halves of the value words, behind the segments' before
        let base: usize = if erase { 0 } else { self.lens[..k].iter().sum() };
        let (lo, hi) = (base + first, base + first + len);
        if !erase {
            // BROKEN if set (mutation double): the other half of the word
            let swapped = usize::from(mutation == Some(Mutation::AnswerHalvesSwapped));
            for (h, &answer) in (lo..hi).zip(&value) {
                ctx.write_stream_half(self.values, h ^ swapped, answer);
            }
        }
        // BROKEN if set (mutation double): an erase's hit in the
        // neighbouring position's bit
        let wrong_bit = usize::from(erase && mutation == Some(Mutation::EraseHitInWrongBit));
        let mut words = [0u64; RUN_FOUND_WORDS];
        for (h, _) in (lo..hi).zip(&hit).filter(|(_, &hit)| hit) {
            let h = h ^ wrong_bit;
            words[h / 64 - lo / 64] |= 1 << (h % 64);
        }
        let found = self.found[usize::from(erase)];
        let total = if erase { self.lens[VALUED] } else { self.lens[..VALUED].iter().sum() };
        let last = ((hi - 1 + wrong_bit) / 64).min(found.len() - 1);
        for (fw, &word) in (lo / 64..=last).zip(&words) {
            // a word is the run's alone if no other run's bit lies in it
            if fw * 64 >= lo && (fw * 64 + 64 <= hi || hi == total) {
                ctx.write_stream(found, fw, word);
            } else if word != 0 {
                ctx.atomic_or(found, fw, word);
            }
        }
    }
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
    /// Each target GPU runs the kernel over the keys and pairs it
    /// received — segment after segment, the kernel's sections — as its
    /// section of the round's node launch, answering per get, take and
    /// upsert (the value found, and a found bit) and per erase (a found
    /// bit) into the landing of the key's origin, whose merge warps run
    /// in the same launch. `answer(s, (g, i), found)` receives the answer to key `i`
    /// of the caller's GPU `g` in segment `s` once the launch is done,
    /// from the value and found bit that came down: the value the key held
    /// before the launch, if any — of an erase, whether it held one. Words
    /// move between GPUs device to device; the host reads only what it
    /// hands out. Under an armed plan rounds run more than once: input
    /// addressed to quarantined GPUs re-spreads over the survivors with its
    /// origin tracked, wasted attempts stay billed, and the counts and
    /// `answer` see every node launch of every round — a round that
    /// aborts after its launch hands out the answers it made.
    ///
    /// # Errors
    /// Probing exhaustion aggregated over the GPUs; a kernel's other
    /// errors and scratch OOM; [`Self::with_failover`]'s.
    pub(crate) fn cascade(
        &self,
        input: Input,
        report: &mut OpReport,
        placed: &mut Applied,
        mut answer: impl FnMut(usize, (usize, usize), Option<u32>),
    ) -> Result<(), OpError> {
        let gpus: [usize; SEGMENTS] = std::array::from_fn(|s| input.gpus(s));
        let m = self.num_gpus();
        assert!(gpus.iter().all(|&n| n == 0 || n == m), "one batch per GPU");
        assert!(gpus.contains(&m), "a round carries a segment");
        self.with_failover(report, |plan, mask, report, tally| {
            // the healthy path borrows the caller's lists as they are
            let respread = (mask != 0).then(|| self.respread(input, mask));
            let lists = respread.as_ref().map(|r| {
                (r.keys.each_ref().map(|k| slices(k)), r.pairs.each_ref().map(|p| slices(p)))
            });
            let effective = lists.as_ref().map(|(keys, pairs)| Input {
                keys: keys.each_ref().map(Vec::as_slice),
                pairs: pairs.each_ref().map(Vec::as_slice),
            });
            let origins = respread.as_ref().map(|r| &r.origins);
            let router = self.router_for(mask);
            self.round(
                effective.unwrap_or(input),
                origins,
                &router,
                plan,
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
        origins: Option<&[Origins; SEGMENTS]>,
        router: &Router,
        plan: &FaultPlan,
        report: &mut OpReport,
        tally: &mut ChaosTally,
        placed: &mut Applied,
        answer: &mut impl FnMut(usize, (usize, usize), Option<u32>),
    ) -> Result<(), Abort> {
        let op = input.op();
        let mutation = self.cfg().mutation;
        let oh = self.device(0).spec().launch_overhead;
        let opts = LaunchOptions::default()
            .with_schedule(self.cfg().schedule)
            .with_per_op_dispatch(self.cfg().per_op_dispatch);
        let alltoall = |bytes: &dyn Fn(usize, usize) -> u64, tally: &mut ChaosTally| {
            let phase = alltoall_time_faulted(self.topology(), bytes, plan);
            tally.settle(plan, phase).map_err(Abort::Lost)
        };
        // key `slot` of GPU `i`'s list of segment `s`, in the caller's lists
        let origin_of =
            |s: usize, i: usize, slot: usize| origins.map_or((i, slot), |o| o[s][i][slot]);

        // Phases 1+2: multisplit and transposition
        let mut split = SplitPhase {
            guards: std::array::from_fn(|_| None),
            sent: [None; MAX_PARTITIONS],
            time: (0.0, 0.0),
        };
        self.multisplit_phase(&mut split, input, router, opts, plan, report, tally)?;
        // the stage streams the bytes of every partition's split
        let bytes = split.sent().map(|sent| sent.stream_bytes);
        let (time, overhead) = split.time;
        report.push(CascadeStage::Multisplit, time, bytes.sum(), overhead);
        let up = |i, j| (0..SEGMENTS).map(|s| split.crossing(i, j, s) as u64 * up_bytes(s)).sum();
        let transpose = alltoall(&up, tally)?;
        let landed = self.transpose_move(&mut split).map_err(Abort::Fatal)?;
        report.push(CascadeStage::Transpose, transpose.time, transpose.bytes, 0.0);

        // Phases 3-5: every GPU's kernel and merge, one node launch. Every
        // launch is gated first, so a gate that gives up aborts the round
        // before any table is touched.
        let m = self.num_gpus();
        let targets = || (0..m).filter(|&j| landed[j].is_some_and(|l| l.sections().len() > 0));
        for j in targets() {
            let retried = tally.launch_retries;
            let gate = tally.gate_launch(plan, j, op.site());
            if mutation == Some(Mutation::DoubleApplyOnRetry)
                && op.site() == launch_site::INSERT
                && tally.launch_retries > retried
            {
                // BROKEN (mutation double): premature failover without the
                // idempotence guard — the sub-batch is applied to its
                // failover targets although the primary is still being
                // retried (and will succeed), duplicating keys.
                if let (Some(failover), Some(landed)) = (router.also_masking(j), landed[j]) {
                    let words = self.device(j).mem().d2h_words(landed.input.pairs);
                    let pairs = words.map(|w| (key_of(w), value_of(w)));
                    let _ = self.insert_routed(&failover, pairs);
                }
            }
            gate.map_err(Abort::Lost)?;
        }
        let mut ran = self.node_launch(&split, &landed, opts);
        let kernels = &ran.sections[..m];
        let mut failed = 0u64;
        let mut phase = Phase::new(self.topology());
        for (j, (map, kernel)) in self.maps().iter().zip(kernels).enumerate() {
            let Some(probe) = ran.probes[j].take() else {
                continue;
            };
            let stats = *ran.stats.section(j);
            let finished = unless_exhausted(map.finish(probe, stats), &mut failed)?;
            if let Some((outcome, erased)) = finished {
                placed.note(&outcome, erased);
            }
            if kernel.groups > 0 {
                phase.add_shared(j, straggled(plan, j, stats.sim_time), oh);
            }
        }
        report.launches += ran.stats.launches() as u64;
        // the kernels' row bills the launch's one overhead a device: an
        // insertion's row is `Insert`, a round that answers `Query`
        let stage = if op.back() { CascadeStage::Query } else { CascadeStage::Insert };
        let (time, overhead) = phase.max();
        report.push(stage, time, 0, overhead.max(oh));
        let back = if op.back() {
            // the transposed cells: target `j`'s answers travel to source `i`
            let edges = |j: usize, i: usize| if i == j { 0 } else { ran.stats.edge_bytes(j, i) };
            if mutation != Some(Mutation::AnswerSliceToWrongOrigin) {
                let expected = |j, i| {
                    let back = |&s: &usize| back_bytes(s, split.crossing(i, j, s));
                    ANSWERED.iter().map(back).sum::<u64>()
                };
                debug_assert!(
                    (0..m).all(|j| (0..m).all(|i| edges(j, i) == expected(j, i))),
                    "the answers' stores cross the links the transposition back bills"
                );
            }
            let transpose = alltoall(&edges, tally);
            if let Ok(transpose) = &transpose {
                report.push(CascadeStage::TransposeBack, transpose.time, transpose.bytes, 0.0);
                // the merges, net of the launch's overhead, which the
                // kernels' row bills, and the chain of waits that ends in
                // them: two round-trips whatever the size, the row's fixed
                // part, paid once a device
                let mut phase = Phase::new(self.topology());
                for i in (0..m).filter(|&i| ran.stats.launched(i)) {
                    let merge = ran.stats.section(m + i);
                    let net = self.device(i).spec().net_of_launches(merge.sim_time, 1);
                    let net = if merge.num_groups == 0 { 0.0 } else { net };
                    let chain = ran.stats.chain_latency(i);
                    phase.add_shared(i, straggled(plan, i, net + chain), chain);
                }
                let (time, chain) = phase.max();
                report.push(CascadeStage::Scatter, time, 0, chain);
            }
            // what comes down: a value per get, take and upsert, two to a
            // word, then their found bits and the erases' — the answers
            // landed, whatever aborts the round after the launch
            for (i, sent) in split.sent().enumerate() {
                let mem = self.device(i).mem();
                let lens = sent.answered();
                let (n, e) = (lens[..VALUED].iter().sum(), lens[VALUED]);
                let [value_words, read_bits, erase_bits] = result_words(n, e);
                let bits = |at, words| {
                    let found = mem.d2h_words(sent.results.sub(at, words));
                    found.flat_map(|word| (0..64).map(move |bit| word >> bit & 1 == 1))
                };
                let values = mem.d2h_words(sent.results.sub(0, value_words));
                let values = values.flat_map(|word| [word as u32, (word >> 32) as u32]);
                let mut answers = values.zip(bits(value_words, read_bits));
                for (k, &s) in ANSWERED[..VALUED].iter().enumerate() {
                    for (slot, (value, found)) in answers.by_ref().take(lens[k]).enumerate() {
                        answer(s, origin_of(s, i, slot), found.then_some(value));
                    }
                }
                let hits = bits(value_words + read_bits, erase_bits).take(e);
                for (slot, hit) in hits.enumerate() {
                    answer(ERASES, origin_of(ERASES, i, slot), hit.then_some(0));
                }
            }
            transpose.map(|_| ())
        } else {
            Ok(())
        };
        if failed > 0 {
            return Err(Abort::Fatal(OpError::ProbingExhausted { failed }));
        }
        back
    }

    /// Runs every target's kernel over what `landed` holds and every
    /// origin's merge of what comes back as one node launch
    /// (`gpu_sim::launch_node`): a section of the kernel per GPU, then a
    /// section of merge warps per GPU. A target's groups answer into its
    /// `Landed::answers` (pending until each publishes its own); the last
    /// group of each source's run of a segment waits for the run's answers
    /// and stores their values and found words into that source's
    /// `Sent::values` and `Sent::found`, then publishes the flag the
    /// source's merge warps wait for.
    fn node_launch<'s>(
        &'s self,
        split: &'s SplitPhase<'s>,
        landed: &'s [Option<Landed>; MAX_PARTITIONS],
        opts: LaunchOptions,
    ) -> NodeRun<'s, impl Fn(&GroupCtx, usize, bool) + Sync + 's> {
        let m = self.num_gpus();
        let mutation = self.cfg().mutation;
        // an erase's flag, EMPTY or 0 where it tombstoned, is its answer
        let hit = move |answers: DevSlice, from: usize| {
            move |ctx: &GroupCtx, i: usize, found: bool| {
                ctx.publish_stream(answers, from + i, if found { 0 } else { EMPTY });
            }
        };
        let probes: [_; MAX_PARTITIONS] = std::array::from_fn(|j| {
            let landed = landed[j].filter(|l| j < m && l.sections().len() > 0)?;
            let sections = landed.sections();
            self.device(j).mem().fill(landed.answers, PENDING);
            let erases = hit(landed.answers, sections.answered());
            Some(self.maps()[j].probe(sections, landed.input, landed.answers, erases))
        });
        let merges: [Option<Merge>; MAX_PARTITIONS] = std::array::from_fn(|i| {
            let sent = split.sent.get(i)?.as_ref()?;
            self.device(i).mem().fill(sent.flags, 0);
            Some(Merge::new(self.device(i), sent))
        });
        let size = GroupSize::WARP;
        let warps = |member, groups| Section { member, groups, size, working_set: 0 };
        let mut sections = [warps(0, 0); 2 * MAX_PARTITIONS];
        for j in 0..m {
            sections[j] = self.maps()[j].section(j, landed[j].map_or(0, |l| l.sections().len()));
            sections[m + j] = warps(j, merges[j].as_ref().map_or(0, Merge::groups));
        }
        let devices: [&Device; MAX_PARTITIONS] =
            std::array::from_fn(|j| &**self.device(j.min(m - 1)));
        let grid = &sections[..2 * m];
        let stats = launch_node(&devices[..m], "warpdrive_round", grid, opts, |k, id, ctx| {
            if k >= m {
                if let Some(merge) = &merges[k - m] {
                    merge.warp(ctx, id, m, mutation);
                }
                return;
            }
            if let (Some(probe), Some(landed)) = (&probes[k], landed[k]) {
                probe.group(ctx, id);
                self.send_answers(ctx, split, landed, k, id);
            }
        });
        NodeRun { stats, sections, probes }
    }

    /// After group `id` of target `j`'s kernel: if it is the last of a
    /// source's run of a segment that answers, waits for the run's answers
    /// (depth 1: each group published its own without waiting), stores
    /// them into the source's landing — per 32, their values, 4 bytes each
    /// but an erase's, and a found word of their hits — and publishes the
    /// source's flag. Mutation double: `Mutation::AnswerSliceToWrongOrigin`.
    fn send_answers(
        &self,
        ctx: &GroupCtx,
        split: &SplitPhase,
        landed: Landed,
        j: usize,
        id: usize,
    ) {
        let m = self.num_gpus();
        // the segment `id` falls into, and where in it
        for (k, &s) in ANSWERED.iter().enumerate() {
            let at = landed.cuts[..s].iter().sum::<usize>();
            if id < at || id >= at + landed.cuts[s] {
                continue;
            }
            let local = id - at;
            for (i, to, from, n) in split.by_source(j, s) {
                if n == 0 || local != from + n - 1 {
                    continue;
                }
                let answers = landed.answers.sub(landed.answers_at(s) + from, n);
                let source = split.sent[i].as_ref().expect("every GPU of the node split");
                let found_at = source.found_at(s, j);
                // BROKEN if set (mutation double): another origin's landing
                let wrong = self.cfg().mutation == Some(Mutation::AnswerSliceToWrongOrigin);
                let origin = if wrong { (i + 1) % m } else { i };
                let sent = split.sent[origin].as_ref().expect("every GPU of the node split");
                let (values, found) = (sent.values[s], sent.found[s]);
                let mut words = [0; FOUND_BITS];
                for (b, first) in (0..n).step_by(FOUND_BITS).enumerate() {
                    let words = &mut words[..(n - first).min(FOUND_BITS)];
                    let ready = |words: &[u64]| words.iter().all(|&w| w != PENDING);
                    ctx.poll_stream(answers, first, words, 1, ready);
                    let mut hits = 0;
                    let mut vals = [0; FOUND_BITS];
                    for (r, &word) in words.iter().enumerate().filter(|&(_, &w)| w != EMPTY) {
                        hits |= 1 << r;
                        vals[r] = value_of(word);
                    }
                    let room = (2 * values.len()).saturating_sub(to + first).min(words.len());
                    if s != ERASES && room > 0 {
                        ctx.store_peer_halves(origin, values, to + first, &vals[..room]);
                    }
                    if found_at + b < found.len() {
                        ctx.store_peer(origin, found, found_at + b, &[hits], 4);
                    }
                }
                ctx.publish_peer(i, source.flags, k * m + j, &[1]);
            }
            return;
        }
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
        let mut origins: [Origins; SEGMENTS] = std::array::from_fn(|_| vec![Vec::new(); m]);
        // element `idx` of GPU `i` of segment `s`
        let mut spread = |s: usize, i: usize, idx: usize| {
            let g = place(i);
            if ANSWERED.contains(&s) {
                origins[s][g].push((i, idx));
            }
            g
        };
        // in segment order, which the round-robin follows
        let mut keys: [Vec<Vec<u32>>; SEGMENTS] = Default::default();
        let mut pairs: [Vec<Vec<(u32, u32)>>; SEGMENTS] = Default::default();
        for s in 0..SEGMENTS {
            keys[s] = respread(input.keys[s], |i, idx| spread(s, i, idx));
            pairs[s] = respread(input.pairs[s], |i, idx| spread(s, i, idx));
        }
        Respread { keys, pairs, origins }
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
        report: &mut OpReport,
        tally: &mut ChaosTally,
    ) -> Result<(), Abort> {
        let m = self.num_gpus();
        let present = input.op().present;
        // the segments the round carries, in order: the split's
        let (mut ids, mut carried) = ([0; SEGMENTS], 0);
        for s in (0..SEGMENTS).filter(|&s| present[s]) {
            ids[carried] = s;
            carried += 1;
        }
        let ids = &ids[..carried];
        let mut splits = Phase::new(self.topology());
        for i in 0..m {
            let dev = self.device(i);
            let len = |s: usize| input.len(s, i);
            // double buffer (Fig. 4: "out-of-place using one double buffer
            // per GPU"): a segment as uploaded, then as it is split — keys
            // lie two to a word — and behind an answered one's elements
            // their positions, 32 bits each
            let words = |s: usize| if keyed(s) { len(s).div_ceil(2) } else { len(s) };
            let answered = |s: usize| ANSWERED.contains(&s);
            let positions = |s: usize| if answered(s) { len(s).div_ceil(2) } else { 0 };
            // and where each run's piece of each class starts
            let pieces = |s: usize| {
                if answered(s) {
                    (len(s).div_ceil(RUN_WORDS) * m).div_ceil(2)
                } else {
                    0
                }
            };
            let split_words: usize =
                ids.iter().map(|&s| 2 * words(s) + positions(s) + pieces(s)).sum();
            // and what the split keeps its counts and prefixes in
            let counters = scratch_words(m, ids.iter().map(|&s| len(s)));
            // and at its end where the answers land — values two to a word,
            // and a found word per 32 answers of each target's run — then
            // their results (`Sent::values`, `Sent::found`, `Sent::results`)
            let values = |s: usize| if s == ERASES { 0 } else { positions(s) };
            let found = |s: usize| if answered(s) && len(s) > 0 { len(s) / 32 + m } else { 0 };
            let landing: usize = ANSWERED.iter().map(|&s| values(s) + found(s)).sum();
            let lens = ANSWERED.map(len);
            let results = result_words(lens[..VALUED].iter().sum(), lens[VALUED]);
            let results: usize = results.iter().sum();
            // and the flags of the targets its answers come back from
            let flags = if landing > 0 { ANSWERED.len() * m } else { 0 };
            if split_words > 0 {
                tally.gate_launch(plan, i, launch_site::MULTISPLIT).map_err(Abort::Lost)?;
            }
            let guard = dev
                .alloc_scratch(split_words + counters + landing + results + flags)
                .map_err(|e| Abort::Fatal(e.into()))?;
            let buf = guard.slice();
            split.guards[i] = Some(guard);
            let mut at = 0;
            let mut take = |len| {
                at += len;
                buf.sub(at - len, len)
            };
            let mut parts = [Segment::words(take(0), take(0)); MAX_SEGMENTS];
            let mut sent = Sent {
                out: [take(0); SEGMENTS],
                lens: std::array::from_fn(len),
                ends: [[0; MAX_PARTITIONS]; SEGMENTS],
                positions: [take(0); SEGMENTS],
                pieces: [take(0); SEGMENTS],
                values: [take(0); SEGMENTS],
                found: [take(0); SEGMENTS],
                results: take(0),
                flags: take(0),
                stream_bytes: 0,
            };
            // MUTATION DOUBLE (`Mutation::LookBackReadsUnpublished`)
            let peek = self.cfg().mutation == Some(Mutation::LookBackReadsUnpublished);
            // MUTATION DOUBLE (`Mutation::SplitTagsRunOffset`)
            let broken = self.cfg().mutation == Some(Mutation::SplitTagsRunOffset);
            for (part, &s) in parts.iter_mut().zip(ids) {
                let staged = take(words(s));
                sent.out[s] = take(words(s));
                let segment = if keyed(s) {
                    dev.mem().h2d_keys(staged, input.keys[s][i]);
                    Segment::keys(staged, len(s), sent.out[s])
                } else {
                    let pairs = input.pairs[s][i].iter().map(|&(k, v)| pack(k, v));
                    dev.mem().h2d_from(staged, pairs);
                    Segment::words(staged, sent.out[s])
                };
                sent.positions[s] = take(positions(s));
                sent.pieces[s] = take(pieces(s));
                let segment = if answered(s) {
                    segment.with_positions(sent.positions[s]).with_pieces(sent.pieces[s])
                } else {
                    segment
                };
                *part = segment.tagging_run_offsets(broken).reading_unpublished_prefixes(peek);
            }
            let counters = take(counters);
            for s in ANSWERED {
                sent.values[s] = take(values(s));
                sent.found[s] = take(found(s));
            }
            sent.results = take(results);
            sent.flags = take(flags);
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
    /// keys land two to a word, and its pairs behind them, segment after
    /// segment, each every source's chunk in GPU order, as its [`Landed`]
    /// says; behind them lies room for an answer per element of the
    /// segments that answer.
    fn transpose_move<'s>(
        &'s self,
        split: &mut SplitPhase<'s>,
    ) -> Result<[Option<Landed>; MAX_PARTITIONS], OpError> {
        let m = self.num_gpus();
        let mut landed = [None; MAX_PARTITIONS];
        for (j, landed) in landed.iter_mut().enumerate().take(m) {
            let mut cuts = [0; SEGMENTS];
            for (s, cut) in cuts.iter_mut().enumerate() {
                *cut = split.sent().map(|sent| sent.at(s, j).1).sum();
            }
            let total = |of: fn(usize) -> bool| -> usize {
                (0..SEGMENTS).filter(|&s| of(s)).map(|s| cuts[s]).sum()
            };
            let (keys, pairs) = (total(keyed), total(|s| !keyed(s)));
            let answers = total(|s| ANSWERED.contains(&s));
            let to = self.device(j).mem();
            let words = keys.div_ceil(2) + pairs;
            let guard = self.device(j).alloc_scratch((words + answers).max(1))?;
            let buf = guard.slice();
            split.guards[m + j] = Some(guard);
            let input = Words {
                keys: buf.sub(0, keys.div_ceil(2)),
                pairs: buf.sub(keys.div_ceil(2), pairs),
            };
            // an odd tail's other half is defined, as an upload leaves it: a
            // group reads its key's word whole
            if keys % 2 == 1 {
                to.fill(input.keys.sub(keys / 2, 1), 0);
            }
            let into = Landed { cuts, input, answers: buf.sub(words, answers) };
            for s in 0..SEGMENTS {
                let mut at = into.at(s);
                for (i, sent) in split.sent().enumerate() {
                    let (from, n) = sent.at(s, j);
                    let mem = self.device(i).mem();
                    if keyed(s) {
                        mem.peer_copy_halves((sent.out[s], from), to, (input.keys, at), n);
                    } else {
                        mem.peer_copy(sent.out[s].sub(from, n), to, input.pairs.sub(at, n));
                    }
                    at += n;
                }
            }
            *landed = Some(into);
        }
        Ok(landed)
    }

    // ---- the operation ----------------------------------------------------

    /// The device-sided cascade (§V-C) over `lists`, one list a GPU
    /// already resident on it — the paper's case where PCIe is bypassed —
    /// cut into chunks as the host bracket cuts a call (`in_chunks`):
    /// where `cut` says, or where the planner picks from a first chunk of
    /// what the all-to-all carries in a round's launch overheads
    /// (`first_device_chunk`), below twice which the call is one round. A
    /// chunk takes of every GPU's list its share in proportion to the
    /// list's length, and a chunk's split and transposition overlap the
    /// kernel and merge of the chunk before it. A put answers nothing
    /// but what it placed; a read's `values` and an erase's `hits` come
    /// back *in the original per-GPU order*, whatever GPU answered. The
    /// call is of one kind, as the [`Resident`] says: a round of several
    /// would need one group per key across the GPUs' lists, which the node
    /// cannot check without reading the lists back.
    ///
    /// Under an armed fault plan the cascade retries transient failures
    /// with backoff, quarantines GPUs that exhaust their budget (their
    /// lists re-spread over the survivors with their origin tracked) and
    /// restarts; wasted attempts stay billed in the report, with backoff
    /// in its own [`CascadeStage::Backoff`] stage. An erase's hit survives
    /// a restart: a key tombstoned in an aborted round stays a hit though
    /// the retried round no longer sees it. Takes `&mut self`, as
    /// deletions need the global barrier of §IV-A on every local map.
    ///
    /// # Errors
    /// [`OpError::ReservedKey`], its `index` counted through the lists in
    /// GPU order, before anything is uploaded; aggregated probing
    /// exhaustion across GPUs; scratch OOM; [`OpError::DeviceLost`] once no
    /// survivor remains. The chunks before a failed one stay applied.
    ///
    /// # Panics
    /// Panics unless `lists` holds one list per GPU.
    pub fn apply_device_sided(
        &mut self,
        lists: Resident<'_>,
        cut: Option<Cut>,
    ) -> Result<PerGpuResponse, OpError> {
        let (s, keys, pairs) = match lists {
            Resident::Puts(lists) => (PUTS, &[][..], lists),
            Resident::Reads(lists) => (GETS, lists, &[][..]),
            Resident::Erases(lists) => (ERASES, lists, &[][..]),
        };
        let m = self.num_gpus();
        assert_eq!(keys.len() + pairs.len(), m, "one batch per GPU");
        let named = pairs.iter().flat_map(|list| list.iter().map(|p| p.0));
        check_keys(keys.iter().flat_map(|list| list.iter().copied()).chain(named))?;
        let mut input = Input::default();
        (input.keys[s], input.pairs[s]) = (keys, pairs);
        let mut values = if s == GETS { per_key(input, s, None) } else { Vec::new() };
        let mut hits = if s == ERASES { per_key(input, s, false) } else { Vec::new() };
        let len = (0..m).map(|g| input.len(s, g)).sum::<usize>();
        // where element `at` of the call lies in a list of `n` of its elements
        let share = |at: usize, n: usize| (at as u128 * n as u128 / len.max(1) as u128) as usize;
        let mut applied = Applied::default();
        let first = self.first_device_chunk(s);
        applied.report = self.in_chunks(first, len, cut, |range, at, report| {
            let (mut chunk, mut from) = (input, [0; MAX_PARTITIONS]);
            let mut sub_keys: [&[u32]; MAX_PARTITIONS] = [&[]; MAX_PARTITIONS];
            let mut sub_pairs: [&[(u32, u32)]; MAX_PARTITIONS] = [&[]; MAX_PARTITIONS];
            for g in 0..m {
                let n = input.len(s, g);
                let part = share(range.start, n)..share(range.end, n);
                report.elements += part.len() as u64;
                from[g] = share(at, n);
                if let Some(list) = keys.get(g) {
                    sub_keys[g] = &list[part.clone()];
                }
                if let Some(list) = pairs.get(g) {
                    sub_pairs[g] = &list[part];
                }
            }
            chunk.keys[s] = &sub_keys[..keys.len()];
            chunk.pairs[s] = &sub_pairs[..pairs.len()];
            self.cascade(chunk, report, &mut applied, |s, (g, i), found| match s {
                GETS => values[g][from[g] + i] = found,
                // of every round, so ORed
                _ => hits[g][from[g] + i] |= found.is_some(),
            })
        })?;
        Ok(PerGpuResponse { values, hits, applied })
    }
}
