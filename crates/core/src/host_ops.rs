//! Host-sided cascades: PCIe transfers bracketing the device cascades.
//!
//! §V-C's "host-sided" variants prepend an H2D transfer to the insertion
//! cascade and bracket the retrieval cascade with an H2D (keys up — here
//! 4 bytes each, not the paper's 8: the device writes the index) and a
//! D2H (results down — here a value of 4 bytes per key and a found bit,
//! not the paper's 8-byte pair). The initial spread over GPUs is the
//! *unstructured distribution* of §IV-B — equal contiguous chunks, no
//! host-side reordering (which the paper rules out as "almost as
//! expensive as CPU-based hash map construction").
//!
//! The mixed round (the reads, puts and erases of the node's
//! [`crate::MapService::apply`]) goes through the same bracket: the lists
//! are cut into the kernel's sections, each spread on its own into one
//! segment of the cascade round, a GPU's chunks travel up back to back in
//! one transfer, and only the answers travel down — a read's value and
//! found bit, an erase's found bit.
//!
//! ## Chunks that overlap (§IV-B, Fig. 5)
//!
//! A large put, get or erase — a call of one list — is cut into
//! chunks, each its own bracket — H2D, cascade, D2H — run one after the
//! other into the call's one output and the call's one report. Their
//! stages occupy different hardware
//! ([`resource`]), so the chunks overlap, a stream each, and the call's
//! [`OpReport::time`] is the makespan of that overlay ([`Overlap`]). A
//! chunk's stages are its rows (`stages_of`), but that an answering
//! round's node launch — its `Query` and `Scatter` rows, the kernels and
//! the merge of one launch — holds the video memory as one stage, which a
//! later chunk's kernels wait for, and its `TransposeBack` row crosses the
//! fabric behind it, before the download.
//!
//! The bracket plans the cut from the chunks it has already run — the
//! trade of §IV-C between overlap and per-chunk overhead:
//! - The first chunk is sized before anything ran. Every GPU takes as many
//!   elements as its host link uploads in the overhead of a put's two
//!   launches — the split and the node launch — or of one launch of a get
//!   or an erase, whose node launch of kernel and scatter binds the video
//!   memory, which waits for that first upload: on the P100 node 8 250
//!   either way, 8-byte pairs or 4-byte keys. A call below twice that is
//!   one chunk, with no overlay.
//! - After every chunk the planner picks the next chunk's length: first
//!   how many equal chunks the rest of the call takes, the count whose
//!   overlay has the least makespan, the chunks already run as they ran
//!   and the rest as copies of the latest chunk's rows, scaled to their
//!   size ([`StageTiming::scaled_time`]) and without its backoff; then
//!   whether a next chunk of half to twice that equal share, the rest
//!   behind it in one chunk fewer, as many or one more, ends sooner.
//!   Re-planning sees what a plan made once cannot: inserts and queries
//!   slow down as the table fills.
//! - It searches near its previous pick, in scratch of fixed size, so it
//!   allocates nothing and a call allocates the same whatever it picks.
//!   The scratch holds `PLAN_CHUNKS` (64) chunks, the most a call is cut
//!   into.
//!
//! A chunk costs the host no allocation — its round moves words device to
//! device ([`crate::cascade`]) — so the call pays for its overlay once,
//! whatever the cut. A mixed call is always one chunk: its reads answer
//! the values from before the call, which a chunk behind a write would
//! not. [`DistributedHashMap::apply_in_chunks`] cuts a call of one list
//! where its caller's [`Cut`] says — a chunk size and a number of streams,
//! Fig. 11's `Ins`/`Ret` variants — in the same loop, a plan fixed in
//! advance.
//!
//! ## One planner for every call
//!
//! The node's host-sided calls are [`crate::MapService::apply`] and the
//! trait's `put_batch`, `get_batch` and `delete_batch` over it, and
//! [`DistributedHashMap::apply_in_chunks`] for a fixed cut: both run one
//! body down to the one bracket. The one device-sided entry,
//! [`DistributedHashMap::apply_device_sided`], takes per-GPU lists already
//! on the devices, skips the bracket's PCIe legs and is cut by the same
//! `in_chunks`, where its [`Cut`] says or by the planner: a chunk's split
//! and transposition on the fabric overlap the kernel and scatter of the
//! chunk before it in video memory. Its first chunk is what the all-to-all
//! carries in a round's launch overheads, 384 000 pairs on the P100 node,
//! so a device call of the tests and figures is one round unless its
//! caller cuts it.

use crate::cascade::{
    down_bytes, up_bytes, Abort, Input, ERASES, GETS, PUTS, ROUND_LAUNCHES, SEGMENTS, TAKES,
    UPSERTS,
};
use crate::config::Mutation;
use crate::distributed::{DistributedHashMap, MAX_PARTITIONS};
use crate::get_put::Mix;
use crate::service::{answer, Applied, OpError, OpReport};
use crate::stats::{CascadeStage, StageRows, StageTiming};
use interconnect::{
    alltoall_time, d2h_time_faulted, h2d_time, h2d_time_faulted, PipelineReport, PipelineSim,
    Stage,
};
use std::ops::Range;

/// Chunks the planner's scratch holds, and so the most chunks it cuts a
/// call into.
const PLAN_CHUNKS: usize = 64;

/// Pipeline stages the planner's scratch holds: twice a healthy chunk's
/// rows (H2D … D2H) for every chunk, so a faulted chunk's retries fit too.
const PLAN_STAGES: usize = 16 * PLAN_CHUNKS;

/// Pipeline resource indices (the bars of Fig. 11, matching the Fig. 5
/// legend: H2D = PCIe bus, MST = NVLink network, INS = video memory).
pub mod resource {
    /// PCIe host→device direction (PCIe is full duplex; a retrieval batch
    /// crosses it twice, 4-byte keys up and a 4-byte value plus a found
    /// bit per key down, so the two directions overlap nearly evenly — the
    /// paper's 8 bytes both ways cap retrieval at ≈55% of the aggregate).
    pub const PCIE_UP: usize = 0;
    /// PCIe device→host direction.
    pub const PCIE_DOWN: usize = 1;
    /// NVLink fabric (multisplit + transposition phases).
    pub const NVLINK: usize = 2;
    /// Video memory / SMs (insert & query kernels).
    pub const VRAM: usize = 3;
    /// Number of resources.
    pub const COUNT: usize = 4;
}

/// The resource a chunk's stage row occupies.
fn resource_of(stage: CascadeStage) -> usize {
    match stage {
        CascadeStage::H2D => resource::PCIE_UP,
        // MST = multisplit + transposition; Fig. 5 bins it as "mainly
        // NVLink"
        CascadeStage::Multisplit | CascadeStage::Transpose | CascadeStage::TransposeBack => {
            resource::NVLINK
        }
        CascadeStage::Insert | CascadeStage::Query | CascadeStage::Scatter => resource::VRAM,
        CascadeStage::D2H => resource::PCIE_DOWN,
        // Backoff waits stem from retried transfers and launches; the
        // cascade is blocked on the fabric while they drain, so they
        // occupy the NVLink timeline. Healthy cascades never contain
        // this stage, leaving the pipeline plan untouched. After a
        // quarantine the later chunks' rows already reflect the
        // degraded node (fewer GPUs, re-spread batches), so the
        // scheduler re-plans around the lost resource for free.
        CascadeStage::Backoff => resource::NVLINK,
    }
}

/// A chunk's stage rows as the pipeline stages of its stream, in order,
/// each extrapolated to `scale`× its functional element count: `stage`
/// receives them one by one, none of a row that takes no time. A row is a
/// stage on its [`resource`], but for an answering round's node launch: its
/// `Query` row and the `Scatter` row behind it are the two sections of one
/// launch, and so **one** video-memory stage, which no other chunk's stage
/// can enter; the `TransposeBack` row between them, the answers' stores
/// that leave while other groups still probe, follows that stage on the
/// fabric, before the download. The chunk's stages last as long as its
/// rows. Allocates nothing.
fn stages_of<'r>(
    rows: impl IntoIterator<Item = &'r StageTiming>,
    scale: f64,
    mut stage: impl FnMut(Stage),
) {
    let mut emit = |resource: usize, duration: f64| {
        if duration > 0.0 {
            stage(Stage { resource, duration });
        }
    };
    // a node launch's kernels, and the return trip seen since
    let mut launch: Option<(f64, f64)> = None;
    for row in rows {
        let duration = row.scaled_time(scale);
        match (row.stage, &mut launch) {
            (CascadeStage::TransposeBack, Some((_, back))) => *back += duration,
            (CascadeStage::Scatter, Some((kernels, back))) => {
                emit(resource::VRAM, *kernels + duration);
                emit(resource::NVLINK, *back);
                launch = None;
            }
            (row, _) => {
                // a launch whose return trip gave up has no scatter
                if let Some((kernels, back)) = launch.take() {
                    emit(resource::VRAM, kernels);
                    emit(resource::NVLINK, back);
                }
                if row == CascadeStage::Query {
                    launch = Some((duration, 0.0));
                } else {
                    emit(resource_of(row), duration);
                }
            }
        }
    }
    if let Some((kernels, back)) = launch {
        emit(resource::VRAM, kernels);
        emit(resource::NVLINK, back);
    }
}

/// How the chunks of one call overlapped: each chunk a run of its report's
/// stage rows, the chunks issued round-robin on `streams` streams. A
/// chunk's stages run in order; a stage waits for its resource, and a
/// chunk for the one before it on its stream (Fig. 5).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Overlap {
    /// Streams the chunks were issued on.
    pub streams: usize,
    /// Each chunk's rows of the report's `stages`, in issue order.
    pub chunks: Vec<Range<usize>>,
}

impl Overlap {
    /// The chunks' schedule on `streams` streams — 1 issues one after the
    /// other — each stage of `rows` extrapolated to `scale`× its elements:
    /// the makespan and every [`resource`]'s busy time.
    #[must_use]
    pub fn schedule(&self, rows: &[StageTiming], scale: f64, streams: usize) -> PipelineReport {
        let mut stages = Vec::with_capacity(self.rows().len());
        let chunks: Vec<Range<usize>> = self
            .chunks
            .iter()
            .map(|chunk| {
                let start = stages.len();
                stages_of(&rows[chunk.clone()], scale, |stage| stages.push(stage));
                start..stages.len()
            })
            .collect();
        PipelineSim::new(resource::COUNT).run(&stages, &chunks, streams)
    }

    /// The share of the one-stream makespan that issuing on `streams`
    /// streams saves, at `scale`.
    #[must_use]
    pub fn saving(&self, rows: &[StageTiming], scale: f64) -> f64 {
        let sequential = self.schedule(rows, scale, 1).makespan;
        if sequential == 0.0 {
            0.0
        } else {
            1.0 - self.schedule(rows, scale, self.streams).makespan / sequential
        }
    }

    /// The rows of all the chunks.
    pub(crate) fn rows(&self) -> Range<usize> {
        let start = self.chunks.first().map_or(0, |chunk| chunk.start);
        start..self.chunks.last().map_or(start, |chunk| chunk.end)
    }

    /// The same chunks, `at` rows further down a report.
    pub(crate) fn moved_by(&self, at: usize) -> Self {
        let chunks = self.chunks.iter().map(|c| c.start + at..c.end + at);
        Self {
            streams: self.streams,
            chunks: chunks.collect(),
        }
    }
}

/// How a node call is cut: into chunks of `len` elements — the last one
/// may be shorter; a device-sided call's elements counted over all its
/// GPUs' lists — issued round-robin on `streams` streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cut {
    len: usize,
    streams: usize,
}

impl Cut {
    /// Chunks of `len` elements on `streams` streams.
    ///
    /// # Panics
    /// Panics if `len == 0` or `streams == 0`.
    #[must_use]
    pub fn new(len: usize, streams: usize) -> Self {
        assert!(len > 0 && streams > 0, "chunks hold elements and run on streams");
        Self { len, streams }
    }
}

/// The next chunk's lengths the planner tries besides the equal share of
/// the rest, in quarters of that share: from half to twice it.
const FRACTIONS: [usize; 5] = [2, 3, 5, 6, 8];

/// The bracket's planner: after each chunk of a call, how long the next
/// chunk is — the cut that minimises the makespan of the chunks run so far
/// as they ran and the rest as copies of the latest chunk's rows, scaled to
/// their size and without its backoff, each chunk on its own stream. It
/// first picks how many equal chunks the rest takes, searching near its
/// previous pick, then tries the next chunk a fraction of that equal share
/// ([`FRACTIONS`]) with the rest after it in equal chunks, one chunk fewer,
/// as many or one more. It keeps every candidate in fixed arrays: planning
/// allocates nothing.
struct Planner {
    /// The chunks run so far as pipeline stages, then a candidate's copies.
    stages: [Stage; PLAN_STAGES],
    /// Each chunk's run of `stages`.
    runs: [Range<usize>; PLAN_CHUNKS],
    /// Chunks run so far, and the stages they fill.
    done: usize,
    filled: usize,
    /// How many chunks the latest plan gave the rest of the call, the next
    /// one included; 0 before the first.
    rest: usize,
    /// The schedule's scratch.
    batches: [(usize, Option<f64>); PLAN_CHUNKS],
    resources: [(f64, f64); resource::COUNT],
}

impl Planner {
    fn new() -> Self {
        Self {
            stages: [Stage {
                resource: 0,
                duration: 0.0,
            }; PLAN_STAGES],
            runs: std::array::from_fn(|_| 0..0),
            done: 0,
            filled: 0,
            rest: 0,
            batches: [(0, None); PLAN_CHUNKS],
            resources: [(0.0, 0.0); resource::COUNT],
        }
    }

    /// The length of the next chunk, now that a chunk of `len` elements
    /// ran with `rows` and `left` elements remain. The rest goes in one
    /// chunk once the scratch cannot hold another.
    fn next(&mut self, rows: &[StageTiming], len: usize, left: usize) -> usize {
        let (start, mut full) = (self.filled, false);
        stages_of(rows, 1.0, |stage| match self.stages.get_mut(self.filled) {
            Some(slot) => {
                *slot = stage;
                self.filled += 1;
            }
            None => full = true,
        });
        if full {
            return left;
        }
        self.runs[self.done] = start..self.filled;
        self.done += 1;
        let most = (PLAN_CHUNKS - self.done)
            .min((PLAN_STAGES - self.filled) / rows.len().max(1))
            .min(left);
        if most <= 1 {
            return left;
        }
        // from the previous plan less the chunk that ran; at first, chunks
        // as long as this one
        let from = match self.rest {
            0 => left.div_ceil(len),
            rest => rest - 1,
        };
        let equal = |k: usize| left.div_ceil(k);
        let mut best = from.clamp(1, most);
        let mut time = self.predict(rows, len, equal(best), equal(best), best);
        // walk up while the makespan falls, else down
        for step in [1, usize::MAX] {
            let start = best;
            loop {
                let k = best.wrapping_add(step);
                if !(1..=most).contains(&k) {
                    break;
                }
                let t = self.predict(rows, len, equal(k), equal(k), k);
                if t >= time {
                    break;
                }
                (best, time) = (k, t);
            }
            if best != start {
                break;
            }
        }
        // then the next chunk longer or shorter than that equal share, the
        // rest after it in one chunk fewer, as many or one more
        let (mut next, mut rest) = (equal(best), best);
        for quarters in FRACTIONS {
            let chunk = (equal(best) * quarters).div_ceil(4);
            if chunk >= left {
                continue;
            }
            for after in best.saturating_sub(1).max(1)..=(best + 1).min(most - 1) {
                let t = self.predict(rows, len, chunk, (left - chunk).div_ceil(after), after + 1);
                if t < time {
                    (next, rest, time) = (chunk, after + 1, t);
                }
            }
        }
        self.rest = rest;
        next
    }

    /// The makespan of the chunks run so far and `k` more — a chunk of
    /// `next` elements, then `k - 1` of `rest` each — each a copy of `rows`
    /// — a chunk of `len` elements — scaled to its length and without its
    /// backoff.
    fn predict(
        &mut self,
        rows: &[StageTiming],
        len: usize,
        next: usize,
        rest: usize,
        k: usize,
    ) -> f64 {
        let copy = rows.iter().filter(|row| row.stage != CascadeStage::Backoff);
        let mut at = self.filled;
        for (c, run) in self.runs[self.done..self.done + k].iter_mut().enumerate() {
            let scale = if c == 0 { next } else { rest } as f64 / len as f64;
            let start = at;
            stages_of(copy.clone(), scale, |stage| {
                self.stages[at] = stage;
                at += 1;
            });
            *run = start..at;
        }
        let n = self.done + k;
        let (stages, runs) = (&self.stages[..at], &self.runs[..n]);
        let (batches, resources) = (&mut self.batches[..n], &mut self.resources);
        PipelineSim::run_in(stages, runs, n, batches, resources, |_, _| {})
    }
}

/// The contiguous chunk of `len` items that GPU `g` of `m` takes: near-equal
/// over the live GPUs of a quarantine `mask` in ascending order, empty for
/// the dead ones (they cannot accept PCIe traffic). The chunks one after the
/// other are the items in their order.
fn live_chunk(len: usize, m: usize, mask: u32, g: usize) -> std::ops::Range<usize> {
    let live = |g: &usize| mask & (1 << g) == 0;
    if !live(&g) {
        return 0..0;
    }
    let per = len.div_ceil((0..m).filter(live).count()).max(1);
    let rank = (0..g).filter(live).count();
    (rank * per).min(len)..((rank + 1) * per).min(len)
}

/// A host-sided call's lists as the segments of its cascade round
/// ([`Input`]), each in the caller's order: per segment its keys or its
/// pairs, or none.
#[derive(Clone, Copy, Default)]
struct Call<'a> {
    keys: [&'a [u32]; SEGMENTS],
    pairs: [&'a [(u32, u32)]; SEGMENTS],
}

impl Call<'_> {
    /// Elements of segment `s`.
    fn len(&self, s: usize) -> usize {
        self.keys[s].len() + self.pairs[s].len()
    }

    /// Elements `range` of the call's one list.
    fn sub(self, range: Range<usize>) -> Self {
        let cut = |len: usize| range.start.min(len)..range.end.min(len);
        Self {
            keys: self.keys.map(|list| &list[cut(list.len())]),
            pairs: self.pairs.map(|list| &list[cut(list.len())]),
        }
    }
}

/// GPU `g`'s chunks of `list` under quarantine `mask`, and how many lists
/// it makes: `m`, or none for an empty list.
fn chunks<T>(list: &[T], m: usize, mask: u32) -> ([&[T]; MAX_PARTITIONS], usize) {
    let mut chunks: [&[T]; MAX_PARTITIONS] = [&[]; MAX_PARTITIONS];
    for (g, chunk) in chunks.iter_mut().enumerate().take(m) {
        *chunk = &list[live_chunk(list.len(), m, mask, g)];
    }
    (chunks, if list.is_empty() { 0 } else { m })
}

impl DistributedHashMap {
    /// The bracket's first chunk of a host-sided call of segment `s` alone,
    /// whose elements go up as 8-byte pairs or 4-byte keys: as many
    /// elements as the host links upload to every GPU in the time a put's
    /// `ROUND_LAUNCHES` pay in overhead, or one launch of a call that
    /// answers, whose node launch binds the video memory — the sooner its
    /// first keys are up, the sooner that memory starts.
    pub(crate) fn first_chunk(&self, s: usize) -> usize {
        let m = self.num_gpus();
        let pairs = matches!(s, UPSERTS | PUTS);
        let (bytes, launches) = if pairs { (8, ROUND_LAUNCHES) } else { (4, 1) };
        let element = h2d_time(self.topology(), &[bytes; MAX_PARTITIONS][..m]);
        self.in_launches(launches, element, m)
    }

    /// A device-sided call's first chunk of segment `s`: as many elements
    /// as the all-to-all carries between the GPUs in the time a round's
    /// `ROUND_LAUNCHES` pay in overhead — an element from every GPU to
    /// every GPU at a time. A node of one GPU carries nothing across, and
    /// never cuts.
    pub(crate) fn first_device_chunk(&self, s: usize) -> usize {
        let m = self.num_gpus();
        let element = alltoall_time(self.topology(), |_, _| up_bytes(s)).time;
        self.in_launches(ROUND_LAUNCHES, element, m * m)
    }

    /// `per` times the elements that take `element` seconds each in the
    /// overhead of `launches` launches, at least one.
    fn in_launches(&self, launches: usize, element: f64, per: usize) -> usize {
        let overhead = launches as f64 * self.device(0).spec().launch_overhead;
        // a float-to-int cast saturates: no time an element is no cut
        per.saturating_mul((overhead / element) as usize).max(1)
    }

    /// Runs `call` on each chunk of a call of `len` elements — the chunk's
    /// range, where its answers start, and the call's report, which it
    /// pushes its rows into — one after the other, cut where `cut` says or,
    /// without one, where the planner picks from a first chunk of `first`
    /// elements (none below twice that), and overlays the chunks: the
    /// report holds every chunk's rows, launches and bytes, and the
    /// makespan of [`Overlap::schedule`] as its time. A call of one chunk is `call` on
    /// all of it, its report as `call` leaves it. The call's launches read
    /// `RAYON_NUM_THREADS` once between them, so what it allocates does
    /// not depend on its cut.
    pub(crate) fn in_chunks(
        &self,
        first: usize,
        len: usize,
        cut: Option<Cut>,
        mut call: impl FnMut(Range<usize>, usize, &mut OpReport) -> Result<(), OpError>,
    ) -> Result<OpReport, OpError> {
        rayon::with_num_threads_held(|| {
            let (mut chunk, most) = match cut {
                Some(cut) => (cut.len, len.div_ceil(cut.len)),
                None => {
                    if len / 2 < first {
                        (len, 1)
                    } else {
                        // one of the equal chunks of at most `first` that
                        // the call would make
                        (len.div_ceil(len.div_ceil(first)), PLAN_CHUNKS)
                    }
                }
            };
            if most <= 1 {
                let mut report = OpReport::of_cascade(0);
                call(0..len, 0, &mut report)?;
                return Ok(report);
            }
            // room for every chunk's healthy round: H2D … D2H
            let stages = StageRows::with_capacity(8 * most);
            let mut report = OpReport {
                stages,
                ..OpReport::default()
            };
            let mut chunks = Vec::with_capacity(most);
            let mut planner = Planner::new();
            // MUTATION DOUBLE (`Mutation::ChunkOffsetByIndex`): a chunk starts
            // at its index times its own length, right for equal chunks alone
            let by_index = self.cfg().mutation == Some(Mutation::ChunkOffsetByIndex);
            let mut at = 0;
            while at < len {
                let range = at..(at + chunk).min(len);
                let (rows, n) = (report.stages.len(), range.len());
                let start = if by_index { chunks.len() * chunk } else { at };
                call(range, start, &mut report)?;
                chunks.push(rows..report.stages.len());
                at += n;
                if cut.is_none() && at < len {
                    chunk = planner.next(&report.stages[rows..], n, len - at);
                }
            }
            let streams = cut.map_or(chunks.len(), |cut| cut.streams);
            let overlap = Overlap { streams, chunks };
            report.time = overlap.schedule(&report.stages, 1.0, streams).makespan;
            report.overlaps.push(overlap);
            Ok(report)
        })
    }

    /// Runs `call`: a call of gets, puts or erases alone cut into chunks
    /// by the planner or where `cut` says ([`Self::in_chunks`]), a mixed
    /// call in one chunk, an empty one not at all. `answer(s, i, found)`
    /// receives the answer to key `i` of segment `s`'s list, as the
    /// cascade's, and `placed` what the kernels placed and tombstoned.
    /// Returns the call's report.
    fn run(
        &self,
        call: Call,
        cut: Option<Cut>,
        placed: &mut Applied,
        mut answer: impl FnMut(usize, usize, Option<u32>),
    ) -> Result<OpReport, OpError> {
        let mut lists = (0..SEGMENTS).filter(|&s| call.len(s) > 0);
        let mut report = OpReport::of_cascade(0);
        match (lists.next(), lists.next()) {
            (None, _) => Ok(report),
            // takes and upserts are a mixed call's, which is one chunk
            (Some(s), None) if s != TAKES && s != UPSERTS => {
                self.in_chunks(self.first_chunk(s), call.len(s), cut, |range, at, report| {
                    let chunk = call.sub(range);
                    self.host_bracket(chunk, report, placed, |s, i, a| answer(s, at + i, a))
                })
            }
            _ => self.host_bracket(call, &mut report, placed, answer).map(|()| report),
        }
    }

    /// The one host bracket over one chunk of a call: every GPU's
    /// [`live_chunk`] of each of its lists travels up over PCIe in one
    /// transfer — 4 bytes a key, 8 a pair — the device cascade runs on the
    /// chunks, a list a segment, `answer(s, i, found)` receiving its
    /// answer to key `i` of the chunk's list of segment `s`
    /// ([`DistributedHashMap::cascade`]), and the answers travel down: a
    /// GPU's `n` values of gets, takes and upserts in `4n` bytes plus
    /// `⌈n/8⌉` of found bits, and its `e` erases' hits in `⌈e/8⌉`
    /// ([`down_bytes`]). The cascade copies
    /// those words down itself, at the end of its round, in the order it
    /// hands the answers out; the bracket bills the transfer. Dropped PCIe
    /// transfers are retried with backoff; a host link whose budget is
    /// exhausted quarantines its GPU and the transfer re-spreads over the
    /// survivors. The chunk's elements and rows go into `report`, the
    /// call's. The caller has checked the keys.
    fn host_bracket(
        &self,
        call: Call,
        report: &mut OpReport,
        placed: &mut Applied,
        mut answer: impl FnMut(usize, usize, Option<u32>),
    ) -> Result<(), OpError> {
        let m = self.num_gpus();
        // a take is a read and an erase, an upsert a read and a put
        let ops = |s| call.len(s) * (1 + usize::from(s == TAKES || s == UPSERTS));
        report.elements += (0..SEGMENTS).map(ops).sum::<usize>() as u64;
        // what each host link carries, of the upload and then the download
        let mut bytes = [0; MAX_PARTITIONS];
        let bytes = &mut bytes[..m];
        let mask = self.with_failover(report, |plan, mask, report, tally| {
            for (g, bytes) in bytes.iter_mut().enumerate() {
                let up = |len, per| (live_chunk(len, m, mask, g).len() * per) as u64;
                let up = |s: usize| up(call.keys[s].len(), 4) + up(call.pairs[s].len(), 8);
                *bytes = (0..SEGMENTS).map(up).sum();
            }
            let up = h2d_time_faulted(self.topology(), bytes, plan);
            let up = tally.settle(plan, up).map_err(Abort::Lost)?;
            report.push(CascadeStage::H2D, up.time, up.bytes, 0.0);
            Ok(mask)
        })?;
        // list after list, each cut into its `m` chunks
        let keys = call.keys.map(|list| chunks(list, m, mask));
        let pairs = call.pairs.map(|list| chunks(list, m, mask));
        let input = Input {
            keys: keys.each_ref().map(|(chunks, n)| &chunks[..*n]),
            pairs: pairs.each_ref().map(|(chunks, n)| &chunks[..*n]),
        };
        self.cascade(input, report, placed, |s, (g, i), found| {
            answer(s, live_chunk(call.len(s), m, mask, g).start + i, found);
        })?;
        // GPU `g`'s values of gets, takes and upserts, and erases' hits
        let down = |g: usize| {
            let len = |s: usize| keys[s].0[g].len() + pairs[s].0[g].len();
            down_bytes(len(GETS) + len(TAKES) + len(UPSERTS), len(ERASES))
        };
        if input.op().back() {
            self.with_failover(report, |plan, mask, report, tally| {
                // the cascade may have quarantined GPUs mid-flight; their
                // answers physically came from survivors, so the dead
                // links carry no bytes
                for (g, bytes) in bytes.iter_mut().enumerate() {
                    *bytes = match mask & (1 << g) {
                        0 => down(g),
                        _ => 0,
                    };
                }
                let down = d2h_time_faulted(self.topology(), bytes, plan);
                let down = tally.settle(plan, down).map_err(Abort::Lost)?;
                report.push(CascadeStage::D2H, down.time, down.bytes, 0.0);
                Ok(())
            })?;
        }
        Ok(())
    }

    /// [`crate::MapService::apply`] with a call of one list cut into chunks where
    /// `cut` says — a chunk length and a number of streams, Fig. 11's
    /// `Ins`/`Ret` variants — not by the planner. A call of more lists is
    /// what `apply` makes of it, uncut: one cascade round, or the composed
    /// calls of lists that could put one key in two groups.
    ///
    /// # Errors
    /// As [`crate::MapService::apply`]; the chunks before a failed one stay
    /// applied.
    pub fn apply_in_chunks(
        &mut self,
        reads: &[u32],
        puts: &[(u32, u32)],
        erases: &[u32],
        values: &mut [Option<u32>],
        hits: &mut [bool],
        cut: Cut,
    ) -> Result<Applied, OpError> {
        self.apply_cut((reads, puts, erases), values, hits, Some(cut))
    }

    /// Host-sided lookup of `reads`, insertion of `puts` and erasure of
    /// `erases`, into `values` in `reads` order and `hits` in `erases`
    /// order: a call of one list as that list's call, cut into chunks where
    /// `cut` says or by the planner without one, and a mixed call (each
    /// list distinct ascending keys, none both put and erased) in **one**
    /// cascade round whose segments are the kernel's sections ([`Mix`]).
    /// A key both read and written is one group — an upsert or a take —
    /// that reads first, so the answers are the values **before** the
    /// call, and a take's hit is its found bit. A call that reads and
    /// writes cuts its sections into `scratch` (empty) — the keys of the
    /// gets, takes and erases, the pairs of the upserts and puts, and a bit
    /// per read of what the round answered — and any other borrows its
    /// lists. The caller has checked the keys.
    ///
    /// # Errors
    /// The cascade's, and [`OpError::DeviceLost`] once no failover
    /// remains; some of the pairs and erases may have been applied.
    pub(crate) fn apply_into(
        &self,
        (reads, puts, erases): (&[u32], &[(u32, u32)], &[u32]),
        values: &mut [Option<u32>],
        hits: &mut [bool],
        scratch: &mut Scratch,
        cut: Option<Cut>,
    ) -> Result<Applied, OpError> {
        let mutation = self.cfg().mutation;
        let mix = Mix::new(reads, puts, erases, mutation);
        let sections = mix.sections();
        let (keys, pairs) = scratch;
        let mixed = !reads.is_empty() && (!puts.is_empty() || !erases.is_empty());
        if mixed {
            keys.reserve(sections.keys() + reads.len().div_ceil(32));
            keys.extend(mix.gets().chain(mix.takes()).chain(mix.erases()));
            keys.resize(sections.keys() + reads.len().div_ceil(32), 0);
            pairs.extend(mix.upserts().chain(mix.puts()));
        }
        let (keys, answered) = keys.split_at_mut(if mixed { sections.keys() } else { 0 });
        let (upserts, pairs) = if mixed {
            pairs.split_at(sections.upserts)
        } else {
            (&[][..], puts)
        };
        let (gets, keys) = keys.split_at(if mixed { sections.gets } else { 0 });
        let (takes, erased) = keys.split_at(sections.takes);
        let (gets, erased) = if mixed { (gets, erased) } else { (reads, erases) };
        let call = Call {
            keys: [gets, takes, &[], &[], erased],
            pairs: [&[], &[], upserts, pairs, &[]],
        };
        // where key `k` lies in a list of the caller's, and key `i` of a
        // section's list: the list's key `i` where the call borrowed it
        let at = |list: &[u32], k: u32| list.binary_search(&k).unwrap_or_else(|at| at);
        let place = |list: &[u32], section: &[u32], i| if mixed { at(list, section[i]) } else { i };
        hits.fill(false);
        let mut applied = Applied::default();
        applied.report = self.run(call, cut, &mut applied, |s, i, found| {
            let r = match s {
                GETS => place(reads, gets, i),
                TAKES => {
                    // of every round, so ORed
                    hits[at(erases, takes[i])] |= found.is_some();
                    at(reads, takes[i])
                }
                UPSERTS => at(reads, upserts[i].0),
                // of every round, so ORed
                _ => return hits[place(erases, erased, i)] |= found.is_some(),
            };
            // the first answer a key gets stands: a round re-run after a
            // lost device would read what the aborted one wrote
            if let Some(word) = answered.get_mut(r / 32) {
                let bit = 1 << (r % 32);
                if *word & bit != 0 {
                    return;
                }
                *word |= bit;
            }
            answer(&mut values[r], found, mutation);
        })?;
        Ok(applied)
    }
}

/// The buffers of a node's mixed call ([`DistributedHashMap::apply_into`]):
/// its sections' keys and a bit per read, and their pairs.
pub(crate) type Scratch = (Vec<u32>, Vec<(u32, u32)>);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cascade::{ERASES, GETS, PUTS};
    use crate::config::Config;
    use crate::service::{DeleteResponse, GetResponse, MapService, PerGpuResponse};
    use gpu_sim::{Device, DeviceSpec, Schedule};
    use interconnect::Topology;
    use std::sync::Arc;

    fn node(m: usize) -> DistributedHashMap {
        let devices: Vec<Arc<Device>> = (0..m)
            .map(|i| Arc::new(Device::with_words(i, 1 << 16)))
            .collect();
        DistributedHashMap::new(devices, 2048, Config::default(), Topology::p100_quad(m)).unwrap()
    }

    /// `reads` and `puts` in one call, cut where `cut` says or by the
    /// planner without one: the reads' answers and the call's report.
    fn read_write(
        d: &mut DistributedHashMap,
        reads: &[u32],
        puts: &[(u32, u32)],
        cut: Option<Cut>,
    ) -> GetResponse {
        let mut values = vec![None; reads.len()];
        let report = d.apply_cut((reads, puts, &[]), &mut values, &mut [], cut).unwrap().report;
        GetResponse { values, report }
    }

    /// An erase of `keys`, cut as [`read_write`]'s call.
    fn delete(d: &mut DistributedHashMap, keys: &[u32], cut: Option<Cut>) -> DeleteResponse {
        let mut hits = vec![false; keys.len()];
        let done = d.apply_cut((&[], &[], keys), &mut [], &mut hits, cut).unwrap();
        DeleteResponse { hits, erased: done.erased, report: done.report }
    }

    #[test]
    fn host_cascade_round_trip() {
        let mut d = node(4);
        let pairs: Vec<(u32, u32)> = (0..3000u32).map(|i| (i * 13 + 7, i)).collect();
        let rep = d.put_batch(&pairs).unwrap().report;
        assert!(rep.time_of(CascadeStage::H2D) > 0.0);
        assert_eq!(rep.stages[0].stage, CascadeStage::H2D);
        // a report counts the launches its cascade made: the split and
        // the insert on each GPU
        assert_eq!(rep.launches, 4 * 2);
        assert_eq!(rep.launches, launches(&d));

        let before = launches(&d);
        let erased = d.delete_batch(&[pairs[0].0, 5]).unwrap();
        assert_eq!(erased.hits, [true, false]);
        assert_eq!(erased.report.launches, launches(&d) - before);
        d.put_batch(&pairs[..1]).unwrap();

        let keys: Vec<u32> = pairs.iter().map(|p| p.0).chain([999_999_999]).collect();
        let before = launches(&d);
        let resp = d.get_batch(&keys).unwrap();
        assert_eq!(resp.report.launches, launches(&d) - before);
        for (i, p) in pairs.iter().enumerate() {
            assert_eq!(resp.values[i], Some(p.1), "key {}", p.0);
        }
        assert_eq!(resp.values[pairs.len()], None);
        // retrieval pays PCIe both ways, visible through the unified report
        let stage_time = |s: CascadeStage| {
            resp.report
                .stages
                .iter()
                .filter(|t| t.stage == s)
                .map(|t| t.time)
                .sum::<f64>()
        };
        assert!(stage_time(CascadeStage::D2H) > 0.0);
        assert!(stage_time(CascadeStage::H2D) > 0.0);
    }

    #[test]
    fn host_insert_is_pcie_bound_for_cheap_tables() {
        // with a low load factor the insert kernels are fast and PCIe
        // dominates — §V-C: "host-sided insertion is comparably fast as
        // plain memcopies". Needs a realistic batch size: at toy sizes the
        // fixed kernel launch overheads (µs) swamp the µs-scale transfer.
        let devices: Vec<Arc<Device>> = (0..4)
            .map(|i| Arc::new(Device::with_words(i, 1 << 19)))
            .collect();
        let mut d =
            DistributedHashMap::new(devices, 1 << 16, Config::default(), Topology::p100_quad(4))
                .unwrap();
        let pairs: Vec<(u32, u32)> = (0..120_000u32).map(|i| (i * 17 + 3, i)).collect();
        let rep = d.put_batch(&pairs).unwrap().report;
        let h2d = rep.time_of(CascadeStage::H2D);
        assert!(
            h2d > 0.3 * rep.time,
            "h2d {h2d:.3e} of {:.3e}",
            rep.time
        );
    }

    fn stages_of(report: &OpReport) -> Vec<CascadeStage> {
        report.stages.iter().map(|s| s.stage).collect()
    }

    fn bytes_of(report: &OpReport, stage: CascadeStage) -> u64 {
        let of_stage = report.stages.iter().filter(|s| s.stage == stage);
        of_stage.map(|s| s.bytes).sum()
    }

    fn launches(d: &DistributedHashMap) -> u64 {
        d.maps()
            .iter()
            .map(|map| map.device().lifetime_stats().launches)
            .sum()
    }

    /// A get + put call is one round — a split and the node launch of
    /// the kernel and the scatter on each GPU — that answers the values from before the call,
    /// whether a sixth of its keys are both read and written or none are.
    /// Against a get call and a put call on a twin: the same answers and
    /// contents, and the same bytes but that a key both read and written
    /// goes up and across once, as its pair.
    #[test]
    fn get_put_is_one_round_answering_the_pre_call_values() {
        use CascadeStage::{Multisplit, Query, Scatter, Transpose, TransposeBack, D2H, H2D};
        let pairs: Vec<(u32, u32)> = (1..=1000u32).map(|k| (k, k)).collect();
        // a third of the keys read (and ten absent ones), half written
        // (and ten new ones): every sixth both
        let reads: Vec<u32> = (1..=1010).filter(|k| k % 3 == 0 || *k > 1000).collect();
        let puts: Vec<(u32, u32)> = (1..=1000)
            .filter(|k| k % 2 == 0)
            .chain(2001..=2010)
            .map(|k| (k, k + 7))
            .collect();
        let disjoint: Vec<(u32, u32)> = (3001..=3500u32).map(|k| (k, k)).collect();
        for (puts, both) in [(&puts, 166), (&disjoint, 0)] {
            let (mut d, mut twin) = (node(4), node(4));
            d.put_batch(&pairs).unwrap();
            twin.put_batch(&pairs).unwrap();

            let before = launches(&d);
            let resp = read_write(&mut d, &reads, puts, None);
            for (&k, &v) in reads.iter().zip(&resp.values) {
                assert_eq!(v, (k <= 1000).then_some(k), "key {k}");
            }
            assert_eq!(resp.report.elements, (reads.len() + puts.len()) as u64);
            let rows = [H2D, Multisplit, Transpose, Query, TransposeBack, Scatter, D2H];
            assert_eq!(stages_of(&resp.report), rows, "{both} both");
            // a multisplit launch (every segment fits one group) and the
            // node launch of kernel and scatter on each of the 4 GPUs
            assert_eq!(launches(&d) - before, 4 + 4, "{both} both");
            assert_eq!(resp.report.launches, launches(&d) - before);

            let mut two = twin.get_batch(&reads).unwrap();
            two.report.merge(&twin.put_batch(puts).unwrap().report);
            assert_eq!(resp.values, two.values);
            let sorted = |d: &DistributedHashMap| {
                let mut live = d.live_snapshot();
                live.sort_unstable();
                live
            };
            assert_eq!(sorted(&d), sorted(&twin));
            // a key both read and written goes up as a pair alone, not
            // also as a key
            let up = bytes_of(&resp.report, H2D);
            assert_eq!(up + 4 * both as u64, bytes_of(&two.report, H2D), "{both} both");
            // the gets' and upserts' chunks cross, come back and come down
            // from other GPUs than the reads' (a found bit rounds up to a
            // byte on each; on a link, to a 4-byte found word a run of each
            // of the two segments), and a pair crosses where a key and a
            // pair did
            let near = |a: u64, b: u64| a.abs_diff(b) * 50 < b;
            let (one, apart) = (bytes_of(&resp.report, D2H), bytes_of(&two.report, D2H));
            assert!(near(one, apart), "D2H: {one} vs {apart}");
            let one = bytes_of(&resp.report, TransposeBack);
            let apart = bytes_of(&two.report, TransposeBack);
            assert!(one.abs_diff(apart) <= 4 * 4 * 3, "TransposeBack: {one} vs {apart}");
            let one = bytes_of(&resp.report, Transpose);
            let apart = bytes_of(&two.report, Transpose);
            assert!(if both > 0 { one < apart } else { near(one, apart) }, "{one} vs {apart}");
            assert!(resp.report.time < two.report.time);
        }
    }

    #[test]
    fn a_gpu_without_a_word_launches_nothing() {
        let mut d = node(4);
        let resp = d.put_batch(&[(7, 70)]).unwrap();
        // the one GPU holding the pair splits it, its owner inserts it
        assert_eq!(launches(&d), 1 + 1);
        assert_eq!(resp.report.launches, 2);
        let overhead = |stage| {
            let rows = resp.report.stages.iter().filter(|s| s.stage == stage);
            rows.map(|s| s.overhead).sum::<f64>()
        };
        let oh = d.maps()[0].device().spec().launch_overhead;
        assert_eq!(overhead(CascadeStage::Multisplit), oh);
    }

    /// A report's rows, every number bit for bit, less those of `skip`.
    fn rows_less(report: &OpReport, skip: &[CascadeStage]) -> Vec<(CascadeStage, u64, u64, u64)> {
        let kept = report.stages.iter().filter(|row| !skip.contains(&row.stage));
        kept.map(|row| (row.stage, row.time.to_bits(), row.bytes, row.overhead.to_bits())).collect()
    }

    /// What makes a node afresh.
    type Maker = fn() -> DistributedHashMap;

    /// The Fig. 6 node and §VI's four partitions of one device, on a
    /// sequential schedule and without a fault plan, each by its name.
    fn quad_and_sharded() -> [(&'static str, Maker); 2] {
        fn cfg() -> Config {
            let cfg = Config::default().with_schedule(Schedule::Sequential);
            cfg.with_fault(gpu_sim::FaultPlan::default())
        }
        fn quad() -> DistributedHashMap {
            let devices = (0..4).map(|i| Arc::new(Device::with_words(i, 1 << 16))).collect();
            DistributedHashMap::new(devices, 2048, cfg(), Topology::p100_quad(4)).unwrap()
        }
        fn sharded() -> DistributedHashMap {
            let dev = Arc::new(Device::with_words(0, 4 * 2048 + (1 << 16)));
            let topo = Topology::one_device(4, dev.spec());
            DistributedHashMap::new(vec![dev; 4], 2048, cfg(), topo).unwrap()
        }
        [("p100_quad", quad), ("one_device", sharded)]
    }

    /// A device-sided call is the host-sided call's round less its PCIe
    /// bracket: on two identical nodes, a put, then a get, then an erase,
    /// each under the first chunk and so one round, through the host
    /// wrappers and through `apply_device_sided` with every GPU's list laid
    /// out as [`live_chunk`] spreads the host's — the same rows but `H2D`
    /// and `D2H`, bit for bit, the same launches, answers and hits. On the
    /// Fig. 6 node and on §VI's four partitions of one device.
    #[test]
    fn a_device_sided_call_is_the_host_round_less_its_bracket() {
        use crate::cascade::Resident;
        use CascadeStage::{D2H, H2D};
        let pairs: Vec<(u32, u32)> = (0..3000u32).map(|i| (i * 13 + 7, i)).collect();
        // every other key put, then absent ones
        let keys: Vec<u32> = (0..1600u32).map(|i| i * 26 + 7).collect();
        for (name, node) in quad_and_sharded() {
            let (mut host, mut device) = (node(), node());
            let m = host.num_gpus();
            assert!(pairs.len() < 2 * host.first_chunk(PUTS), "{name}: one chunk");
            assert!(keys.len() < 2 * host.first_chunk(GETS), "{name}: one chunk");
            let spread = |len: usize| (0..m).map(move |g| live_chunk(len, m, 0, g));
            let puts: Vec<&[(u32, u32)]> = spread(pairs.len()).map(|c| &pairs[c]).collect();
            let lists: Vec<&[u32]> = spread(keys.len()).map(|c| &keys[c]).collect();

            let put = host.put_batch(&pairs).unwrap();
            let on = device.apply_device_sided(Resident::Puts(&puts), None).unwrap().applied;
            assert_eq!(rows_less(&put.report, &[H2D]), rows_less(&on.report, &[]), "{name}");
            assert_eq!(put.report.launches, on.report.launches, "{name}");
            assert_eq!(put.report.elements, on.report.elements, "{name}");
            let placed = |a: &Applied| (a.new_slots, a.updates, a.reclaimed);
            assert_eq!((put.new_slots, put.updates, put.reclaimed), placed(&on), "{name}");

            let get = host.get_batch(&keys).unwrap();
            let on = device.apply_device_sided(Resident::Reads(&lists), None).unwrap();
            let report = &on.applied.report;
            assert_eq!(rows_less(&get.report, &[H2D, D2H]), rows_less(report, &[]), "{name}");
            assert_eq!(get.report.launches, report.launches, "{name}");
            assert_eq!(get.values, on.values.concat(), "{name}");
            assert_eq!(get.values.iter().flatten().count(), 1500, "{name}");

            let erase = host.delete_batch(&keys).unwrap();
            let on = device.apply_device_sided(Resident::Erases(&lists), None).unwrap();
            let (report, erased) = (&on.applied.report, on.applied.erased);
            assert_eq!(rows_less(&erase.report, &[H2D, D2H]), rows_less(report, &[]), "{name}");
            assert_eq!(erase.report.launches, report.launches, "{name}");
            assert_eq!((erase.hits, erase.erased), (on.hits.concat(), erased), "{name}");
            assert_eq!(live_sorted(&host), live_sorted(&device), "{name}");
        }
    }

    /// A device-sided put, get and erase cut by a [`Cut`] into at least
    /// three chunks, of lists of unequal lengths — one empty — answer,
    /// place and count as the one-chunk call on a twin, and the cut call
    /// takes at most the sum of its chunks' rows. On the Fig. 6 node and on
    /// §VI's four partitions of one device.
    #[test]
    fn a_cut_device_call_answers_places_and_counts_like_one_chunk() {
        use crate::cascade::Resident;
        let pairs: Vec<(u32, u32)> = (0..3000u32).map(|i| (i * 13 + 7, i)).collect();
        // every other key put, then absent ones
        let keys: Vec<u32> = (0..1600u32).map(|i| i * 26 + 7).collect();
        let uneven = |n: usize| [0..n / 3, n / 3..n / 3, n / 3..n / 2, n / 2..n];
        let puts: Vec<&[(u32, u32)]> = uneven(pairs.len()).map(|c| &pairs[c]).to_vec();
        let lists: Vec<&[u32]> = uneven(keys.len()).map(|c| &keys[c]).to_vec();
        let cut = Cut::new(500, 2);
        for (name, node) in quad_and_sharded() {
            let (mut d, mut twin) = (node(), node());
            let put = d.apply_device_sided(Resident::Puts(&puts), Some(cut)).unwrap().applied;
            let one = twin.apply_device_sided(Resident::Puts(&puts), None).unwrap().applied;
            assert!(chunks_of(&put.report) >= 3 && one.report.overlaps.is_empty(), "{name}");
            let placed = |a: &Applied| (a.new_slots, a.updates, a.reclaimed, a.report.elements);
            assert_eq!(placed(&put), placed(&one), "{name}");
            assert_time_is_bracketed(&put.report);

            let get = d.apply_device_sided(Resident::Reads(&lists), Some(cut)).unwrap();
            let one = twin.apply_device_sided(Resident::Reads(&lists), None).unwrap();
            assert!(chunks_of(&get.applied.report) >= 3, "{name}");
            assert_eq!(get.values, one.values, "{name}");
            assert_eq!(get.values.iter().flatten().flatten().count(), 1500, "{name}");
            assert_eq!(get.applied.report.elements, one.applied.report.elements, "{name}");
            assert_time_is_bracketed(&get.applied.report);

            let erase = d.apply_device_sided(Resident::Erases(&lists), Some(cut)).unwrap();
            let one = twin.apply_device_sided(Resident::Erases(&lists), None).unwrap();
            assert!(chunks_of(&erase.applied.report) >= 3, "{name}");
            let erased = |r: &PerGpuResponse| (r.hits.clone(), r.applied.erased);
            assert_eq!(erased(&erase), erased(&one), "{name}");
            assert_eq!(erase.applied.erased, 1500, "{name}");
            assert_time_is_bracketed(&erase.applied.report);
            assert_eq!(live_sorted(&d), live_sorted(&twin), "{name}");
        }
    }

    /// Every answer and hit the return trip's merge places, against the
    /// `BTreeMap` model: a mixed call whose segments a GPU holds 300 gets,
    /// 77 takes, 129 upserts and 515 erases of — runs of 256 crossed, found
    /// words of 64 shared between runs and segments, every other key
    /// present — in one round, then a get and an erase of every key cut
    /// into chunks of 1 500, each a run and a half a GPU. On the Fig. 6
    /// node and on §VI's four partitions of one device, under
    /// `mutation`: whether every answer, hit and pair matched.
    fn merge_matches_the_model(mutation: Option<Mutation>) -> bool {
        use crate::service::model::ModelService;
        let keys = |from: u32, n: u32| (from..from + n).collect::<Vec<u32>>();
        let (gets, takes) = (keys(10_000, 4 * 300), keys(20_000, 4 * 77));
        let upserts = keys(30_000, 4 * 129);
        let (erased, put) = (keys(40_000, 4 * 515), keys(50_000, 64));
        let mut reads = [&gets[..], &takes, &upserts].concat();
        reads.sort_unstable();
        let puts: Vec<(u32, u32)> = upserts.iter().chain(&put).map(|&k| (k, k + 1)).collect();
        let erases = [&takes[..], &erased].concat();
        let every = [&reads[..], &erased, &put].concat();
        let odd = every.iter().filter(|&&k| k % 2 == 1);
        let present: Vec<(u32, u32)> = odd.map(|&k| (k, 3 * k)).collect();
        let cut = Cut::new(1500, 2);
        let mut matched = true;
        let mut cfg = Config::default().with_schedule(Schedule::Sequential);
        cfg.mutation = mutation;
        let cfg = cfg.with_fault(gpu_sim::FaultPlan::default());
        let quad = || {
            let devices = (0..4).map(|i| Arc::new(Device::with_words(i, 1 << 16))).collect();
            DistributedHashMap::new(devices, 8192, cfg, Topology::p100_quad(4)).unwrap()
        };
        let sharded = || {
            let dev = Arc::new(Device::with_words(0, 4 * 8192 + (1 << 17)));
            let topo = Topology::one_device(4, dev.spec());
            DistributedHashMap::new(vec![dev; 4], 8192, cfg, topo).unwrap()
        };
        let nodes: [(&str, &dyn Fn() -> DistributedHashMap); 2] =
            [("p100_quad", &quad), ("one_device", &sharded)];
        for (name, node) in nodes {
            let (mut d, mut model) = (node(), ModelService::default());
            d.put_batch(&present).unwrap();
            model.put_batch(&present).unwrap();
            let (mut values, mut hits) = (vec![None; reads.len()], vec![false; erases.len()]);
            let round = d.apply(&reads, &puts, &erases, &mut values, &mut hits).unwrap().report;
            assert!(round.overlaps.is_empty(), "{name}: one round");
            let (mut want, mut want_hits) = (vec![None; reads.len()], vec![false; erases.len()]);
            model.apply(&reads, &puts, &erases, &mut want, &mut want_hits).unwrap();
            matched &= (values, hits) == (want, want_hits);
            let mut values = vec![None; every.len()];
            let get = d.apply_in_chunks(&every, &[], &[], &mut values, &mut [], cut).unwrap();
            assert!(chunks_of(&get.report) > 1, "{name}: cut");
            matched &= values == model.get_batch(&every).unwrap().values;
            let mut hits = vec![false; every.len()];
            d.apply_in_chunks(&[], &[], &every, &mut [], &mut hits, cut).unwrap();
            matched &= hits == model.delete_batch(&every).unwrap().hits;
            matched &= live_sorted(&d).is_empty() && model.map.is_empty();
        }
        matched
    }

    /// The merge answers as the model does; reading a piece from where
    /// the next target's piece starts (`Mutation::MergeReadsPieceOfNextClass`)
    /// is caught.
    #[test]
    fn a_merge_answers_every_run_and_found_word_like_the_model() {
        assert!(merge_matches_the_model(None));
        let broken = Some(Mutation::MergeReadsPieceOfNextClass);
        let caught = std::panic::catch_unwind(|| merge_matches_the_model(broken));
        assert!(caught.map_or(true, |matched| !matched), "the next class's piece went unseen");
    }

    #[test]
    fn get_put_of_unsorted_lists_runs_the_two_cascades() {
        let mut d = node(2);
        d.put_batch(&[(1, 10), (2, 20)]).unwrap();
        // a duplicate read and a duplicate put: not distinct ascending
        let resp = read_write(&mut d, &[2, 1, 2], &[(2, 21), (2, 22), (3, 30)], None);
        assert_eq!(resp.values, [Some(20), Some(10), Some(20)]);
        let uploads = stages_of(&resp.report);
        assert_eq!(
            uploads.iter().filter(|&&s| s == CascadeStage::H2D).count(),
            2
        );
        assert!(matches!(d.get_batch(&[2]).unwrap().values[0], Some(21 | 22)));
        assert_eq!(d.get_batch(&[3]).unwrap().values[0], Some(30));
    }

    /// A node of `m` GPUs that reads no fault plan from the environment.
    fn node_with(m: usize, cfg: Config) -> DistributedHashMap {
        let devices: Vec<Arc<Device>> = (0..m)
            .map(|i| Arc::new(Device::with_words(i, 1 << 16)))
            .collect();
        let cfg = cfg.with_fault(gpu_sim::FaultPlan::default());
        DistributedHashMap::new(devices, 2048, cfg, Topology::p100_quad(m)).unwrap()
    }

    /// What comes down for a get whose GPUs hold `chunks` keys each.
    fn down_bytes(chunks: &[usize]) -> u64 {
        chunks.iter().map(|&n| 4 * n as u64 + n.div_ceil(8) as u64).sum()
    }

    #[test]
    fn a_get_brings_down_a_value_and_a_found_bit_per_key() {
        let key = |i: usize| i as u32 * 3 + 1;
        let cases = [
            (0, [0; 4]),
            (3, [1, 1, 1, 0]),
            (252, [63; 4]),
            (256, [64; 4]),
            (260, [65; 4]),
        ];
        for (n, chunks) in cases {
            let mut d = node_with(4, Config::default());
            // every other key present
            let pairs: Vec<(u32, u32)> = (0..n).step_by(2).map(|i| (key(i), i as u32)).collect();
            d.put_batch(&pairs).unwrap();
            let keys: Vec<u32> = (0..n).map(key).collect();
            let want: Vec<Option<u32>> = (0..n).map(|i| (i % 2 == 0).then_some(i as u32)).collect();
            let get = d.get_batch(&keys).unwrap();
            // a put of a key not read, so that the reads lie as the get's
            let round = read_write(&mut d, &keys, &[(key(n), 5)], None);
            for resp in [&get, &round] {
                assert_eq!(resp.values, want, "n={n}");
                let down = bytes_of(&resp.report, CascadeStage::D2H);
                assert_eq!(down, down_bytes(&chunks), "n={n}");
                assert!(down <= 8 * n as u64, "n={n}");
            }
        }
        // a quarantined GPU's chunk is spread over the survivors, and its
        // link carries nothing down
        let mut d = node_with(4, Config::default());
        let pairs: Vec<(u32, u32)> = (0..195).map(|i| (key(i), i as u32)).collect();
        d.put_batch(&pairs).unwrap();
        d.set_fault_plan(gpu_sim::FaultPlan::default().with_kill(3));
        let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
        let get = d.get_batch(&keys).unwrap();
        assert_eq!(d.quarantined(), [3]);
        assert!(get.values.iter().zip(0..).all(|(&v, i)| v == Some(i)));
        assert_eq!(bytes_of(&get.report, CascadeStage::D2H), down_bytes(&[65, 65, 65, 0]));
    }

    /// `Mutation::AnswerHalvesSwapped`: chunks of 257 keys, odd, so the
    /// last value of each sits alone in the low half of its word.
    #[test]
    fn swapped_answer_halves_are_caught_through_retrieve_and_the_mixed_round() {
        let pairs: Vec<(u32, u32)> = (0..4 * 257u32).map(|i| (i * 3 + 1, i)).collect();
        let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
        let want: Vec<Option<u32>> = pairs.iter().map(|p| Some(p.1)).collect();
        let answers = |cfg: Config| {
            let mut d = node_with(4, cfg);
            d.put_batch(&pairs).unwrap();
            let get = d.get_batch(&keys).unwrap().values;
            let puts: Vec<(u32, u32)> = keys[..100].iter().map(|&k| (k, 0)).collect();
            (get, read_write(&mut d, &keys, &puts, None).values)
        };
        assert_eq!(answers(Config::default()), (want.clone(), want.clone()));
        let (get, round) = answers(Config::default().with_mutation(Mutation::AnswerHalvesSwapped));
        assert_ne!(get, want, "retrieve");
        assert_ne!(round, want, "get + put");
    }

    #[test]
    fn chunking_covers_and_pads() {
        let chunks = |items: &'static [i32], m, mask| -> Vec<&[i32]> {
            let chunk = |g| &items[live_chunk(items.len(), m, mask, g)];
            (0..m).map(chunk).collect()
        };
        assert_eq!(chunks(&[1, 2, 3, 4, 5], 3, 0), [&[1, 2][..], &[3, 4], &[5]]);
        assert_eq!(chunks(&[], 2, 0), [&[][..], &[]]);
        // quarantined GPUs get nothing; the survivors share in order
        let c = chunks(&[1, 2, 3, 4, 5], 4, 0b0101);
        assert_eq!(c, [&[][..], &[1, 2, 3], &[], &[4, 5]]);
    }

    /// The time a report takes: a call in one chunk the sum of its rows,
    /// bit for bit; an overlapped one at least its busiest resource's rows
    /// and at most the sum of all of them.
    fn assert_time_is_bracketed(report: &OpReport) {
        let rows: f64 = report.stages.iter().map(|s| s.time).sum();
        let Some(overlap) = report.overlaps.first() else {
            assert_eq!(report.time.to_bits(), rows.to_bits());
            return;
        };
        let slack = 1.0 + 1e-12;
        let busy = overlap.schedule(&report.stages, 1.0, overlap.streams).busy;
        let busiest = busy.iter().copied().fold(0.0, f64::max);
        assert!(busiest <= report.time * slack, "busy {busiest:e} > {:e}", report.time);
        assert!(report.time <= rows * slack, "time {:e} > rows {rows:e}", report.time);
    }

    fn live_sorted(d: &DistributedHashMap) -> Vec<(u32, u32)> {
        let mut live = d.live_snapshot();
        live.sort_unstable();
        live
    }

    /// How many chunks a call of `len` elements made.
    fn chunks_of(report: &OpReport) -> usize {
        report.overlaps.first().map_or(1, |overlap| overlap.chunks.len())
    }

    /// Chunks of multiples of 32 keys, so a GPU's found bits fill whole
    /// bytes in every chunk as in the whole call.
    fn test_cuts() -> [Cut; 4] {
        [Cut::new(1024, 4), Cut::new(768, 2), Cut::new(4096, 3), Cut::new(1024, 1)]
    }

    /// A node of `m` GPUs like [`node_with`]'s whose launches pay
    /// `overhead` seconds each: far below the P100's 6 µs, the planner's
    /// first chunk is small enough for a unit test to cut.
    fn node_paying(m: usize, overhead: f64, cfg: Config) -> DistributedHashMap {
        let spec = DeviceSpec {
            launch_overhead: overhead,
            ..DeviceSpec::test_small(8 << 16)
        };
        let devices: Vec<Arc<Device>> =
            (0..m).map(|i| Arc::new(Device::new(i, spec.clone()))).collect();
        let cfg = cfg.with_fault(gpu_sim::FaultPlan::default());
        DistributedHashMap::new(devices, 2048, cfg, Topology::p100_quad(m)).unwrap()
    }

    /// A launch overhead at which the planner cuts the calls of
    /// [`chunked_and_whole`] into unequal chunks.
    const SMALL_OVERHEAD: f64 = 6.0e-8;

    /// Puts, gets (half of the keys absent) and erases on a node `node`
    /// makes, in the chunks of `cut` — or the planner's, without one — and
    /// on a twin in one chunk each. Checks that the two answer alike, end
    /// up holding the same pairs and that each report counts its call's
    /// launches; returns each call's chunked report, its one-chunk report
    /// and its length.
    fn chunked_and_whole(
        cut: Option<Cut>,
        node: impl Fn() -> DistributedHashMap,
    ) -> [(OpReport, OpReport, usize); 3] {
        let pairs: Vec<(u32, u32)> = (0..4096u32).map(|i| (i * 7 + 1, i)).collect();
        let keys: Vec<u32> = (0..4096u32).flat_map(|i| [i * 7 + 1, i * 7 + 3]).collect();
        let deleted: Vec<u32> = keys.iter().copied().step_by(3).collect();
        let whole = |len: usize| Some(Cut::new(len, 1));
        let (mut d, mut twin) = (node(), node());
        let before = launches(&d);
        let put = read_write(&mut d, &[], &pairs, cut).report;
        assert_eq!(put.launches, launches(&d) - before);
        let twin_put = read_write(&mut twin, &[], &pairs, whole(pairs.len())).report;
        let before = launches(&d);
        let GetResponse { values, report: get } = read_write(&mut d, &keys, &[], cut);
        assert_eq!(get.launches, launches(&d) - before);
        let GetResponse { values: twin_values, report: twin_get } =
            read_write(&mut twin, &keys, &[], whole(keys.len()));
        assert_eq!(values, twin_values);
        let before = launches(&d);
        let erase = delete(&mut d, &deleted, cut);
        assert_eq!(erase.report.launches, launches(&d) - before);
        let twin_erase = delete(&mut twin, &deleted, whole(deleted.len()));
        assert_eq!((&erase.hits, erase.erased), (&twin_erase.hits, twin_erase.erased));
        assert_eq!(live_sorted(&d), live_sorted(&twin));
        [
            (put, twin_put, pairs.len()),
            (get, twin_get, keys.len()),
            (erase.report, twin_erase.report, deleted.len()),
        ]
    }

    /// The elements of each chunk of a call whose elements go up as
    /// `bytes` bytes each, read off its chunks' uploads.
    fn chunk_lengths(report: &OpReport, bytes: u64) -> Vec<u64> {
        let chunks = &report.overlaps[0].chunks;
        let up = |rows: &Range<usize>| {
            let rows = &report.stages[rows.clone()];
            rows.iter().filter(|s| s.stage == CascadeStage::H2D).map(|s| s.bytes).sum::<u64>()
        };
        chunks.iter().map(|rows| up(rows) / bytes).collect()
    }

    #[test]
    fn a_chunked_call_answers_moves_and_launches_like_one_chunk() {
        use CascadeStage::{D2H, H2D};
        for cut in test_cuts() {
            let node = || node_with(4, Config::default());
            for (chunked, one, len) in chunked_and_whole(Some(cut), node) {
                assert_eq!(chunks_of(&chunked), len.div_ceil(cut.len));
                assert!(one.overlaps.is_empty());
                for stage in [H2D, D2H] {
                    assert_eq!(bytes_of(&chunked, stage), bytes_of(&one, stage), "{stage:?}");
                }
                assert_eq!(chunked.elements, one.elements);
                assert_time_is_bracketed(&chunked);
                if chunks_of(&chunked) > 1 && cut.streams > 1 {
                    // a chunk's upload hides behind the one before it
                    let rows: f64 = chunked.stages.iter().map(|s| s.time).sum();
                    assert!(chunked.time < rows);
                }
                assert_time_is_bracketed(&one);
            }
        }
    }

    /// The planner cuts a put, a get and an erase into chunks of unequal
    /// lengths, a stream each: they answer, move and launch like one
    /// chunk, but for the found bits' byte rounding of each chunk's
    /// download. `Mutation::ChunkOffsetByIndex` puts a get's answers and
    /// an erase's hits in other keys' places, or past the end.
    #[test]
    fn a_planned_call_answers_moves_and_launches_like_one_chunk() {
        use CascadeStage::{D2H, H2D};
        let node = || node_paying(4, SMALL_OVERHEAD, Config::default());
        let calls = chunked_and_whole(None, node);
        for ((chunked, one, len), bytes) in calls.iter().zip([8, 4, 4]) {
            let lengths = chunk_lengths(chunked, bytes);
            assert!(lengths.windows(2).any(|w| w[0] != w[1]), "{lengths:?}");
            assert_eq!(lengths.iter().sum::<u64>(), *len as u64);
            assert_eq!(chunked.overlaps[0].streams, lengths.len());
            assert_eq!(bytes_of(chunked, H2D), bytes_of(one, H2D));
            // a GPU's found bits round up to a byte in every chunk
            let down = bytes_of(chunked, D2H) - bytes_of(one, D2H);
            assert!(down <= 4 * lengths.len() as u64, "{down} bytes");
            assert_eq!(chunked.elements, one.elements);
            assert_time_is_bracketed(chunked);
        }
        let mutated = || {
            let cfg = Config::default().with_mutation(Mutation::ChunkOffsetByIndex);
            node_paying(4, SMALL_OVERHEAD, cfg)
        };
        let pairs: Vec<(u32, u32)> = (0..4096u32).map(|i| (i * 7 + 1, i)).collect();
        let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
        let want: Vec<Option<u32>> = pairs.iter().map(|p| Some(p.1)).collect();
        let caught = |call: &dyn Fn(&mut DistributedHashMap) -> bool| {
            let mut d = mutated();
            d.put_batch(&pairs).unwrap();
            let run = std::panic::AssertUnwindSafe(|| call(&mut d));
            std::panic::catch_unwind(run).map_or(true, |right| !right)
        };
        assert!(caught(&|d| d.get_batch(&keys).unwrap().values == want), "get");
        let all_hit = |d: &mut DistributedHashMap| {
            d.delete_batch(&keys).unwrap().hits.iter().all(|&h| h)
        };
        assert!(caught(&all_hit), "erase");
    }

    /// `apply_in_chunks` cuts a call of one list where its [`Cut`] says —
    /// ⌈n/len⌉ chunks, on its streams — and answers, places and erases
    /// what the trait's calls on a twin do.
    #[test]
    fn apply_in_chunks_cuts_a_call_of_one_list_where_it_says() {
        let pairs: Vec<(u32, u32)> = (0..3000u32).map(|i| (i * 7 + 1, i)).collect();
        // ascending, half of them absent
        let keys: Vec<u32> = (0..3000u32).flat_map(|i| [i * 7 + 1, i * 7 + 3]).collect();
        let deleted: Vec<u32> = keys.iter().copied().step_by(3).collect();
        let cut_as_said = |report: &OpReport, n: usize, cut: Cut| {
            assert_eq!(chunks_of(report), n.div_ceil(cut.len), "{cut:?}");
            if let Some(overlap) = report.overlaps.first() {
                assert_eq!(overlap.streams, cut.streams, "{cut:?}");
            }
        };
        for cut in test_cuts() {
            let node = || node_with(4, Config::default());
            let (mut d, mut twin) = (node(), node());
            let put = d.apply_in_chunks(&[], &pairs, &[], &mut [], &mut [], cut).unwrap();
            cut_as_said(&put.report, pairs.len(), cut);
            let twin_put = twin.put_batch(&pairs).unwrap();
            assert_eq!((put.new_slots, put.updates), (twin_put.new_slots, twin_put.updates));
            let mut values = vec![None; keys.len()];
            let get = d.apply_in_chunks(&keys, &[], &[], &mut values, &mut [], cut).unwrap();
            cut_as_said(&get.report, keys.len(), cut);
            assert_eq!(values, twin.get_batch(&keys).unwrap().values, "{cut:?}");
            let mut hits = vec![false; deleted.len()];
            let erase = d.apply_in_chunks(&[], &[], &deleted, &mut [], &mut hits, cut).unwrap();
            cut_as_said(&erase.report, deleted.len(), cut);
            let twin_erase = twin.delete_batch(&deleted).unwrap();
            assert_eq!((hits, erase.erased), (twin_erase.hits, twin_erase.erased), "{cut:?}");
            assert_eq!(live_sorted(&d), live_sorted(&twin), "{cut:?}");
        }
    }

    /// A mixed call under any cut is one round, as the trait's `apply`
    /// makes it: no overlap, one upload, the same launches and answers.
    #[test]
    fn apply_in_chunks_leaves_a_mixed_call_one_round() {
        let pairs: Vec<(u32, u32)> = (0..3000u32).map(|i| (i * 7 + 1, i)).collect();
        let reads: Vec<u32> = (0..1000u32).flat_map(|i| [i * 7 + 1, i * 7 + 3]).collect();
        let puts: Vec<(u32, u32)> = pairs[500..1500].iter().map(|&(k, v)| (k, v + 1)).collect();
        let erases: Vec<u32> = pairs[2000..2500].iter().map(|p| p.0).collect();
        for cut in test_cuts() {
            let node = || node_with(4, Config::default());
            let (mut d, mut twin) = (node(), node());
            d.put_batch(&pairs).unwrap();
            twin.put_batch(&pairs).unwrap();
            let (mut values, mut hits) = (vec![None; reads.len()], vec![false; erases.len()]);
            let before = launches(&d);
            let chunked =
                d.apply_in_chunks(&reads, &puts, &erases, &mut values, &mut hits, cut).unwrap();
            assert_eq!(chunked.report.launches, launches(&d) - before, "{cut:?}");
            let mut twin_values = vec![None; reads.len()];
            let mut twin_hits = vec![false; erases.len()];
            let whole = twin.apply(&reads, &puts, &erases, &mut twin_values, &mut twin_hits);
            let whole = whole.unwrap().report;
            assert!(chunked.report.overlaps.is_empty(), "{cut:?}");
            let rows = stages_of(&chunked.report);
            let uploads = rows.iter().filter(|&&s| s == CascadeStage::H2D).count();
            assert_eq!(uploads, 1, "{cut:?}");
            assert_eq!(rows, stages_of(&whole), "{cut:?}");
            assert_eq!(chunked.report.launches, whole.launches, "{cut:?}");
            assert_eq!((values, hits), (twin_values, twin_hits), "{cut:?}");
            assert_eq!(live_sorted(&d), live_sorted(&twin), "{cut:?}");
        }
    }

    #[test]
    fn one_stream_issues_the_chunks_one_after_the_other() {
        // one stream issues the chunks one after the other
        let cut = Cut::new(1024, 1);
        let node = || node_with(4, Config::default());
        for (chunked, _, len) in chunked_and_whole(Some(cut), node) {
            assert!(len > cut.len);
            let overlap = chunked.overlaps.first().expect("a call of many chunks overlaps");
            let one_stream = overlap.schedule(&chunked.stages, 1.0, 1).makespan;
            assert_eq!(chunked.time.to_bits(), one_stream.to_bits());
            assert_eq!(overlap.saving(&chunked.stages, 1.0), 0.0);
        }
    }

    /// Two answering chunks on two streams, the second one's kernels
    /// ready while the first one's answers cross back: the first chunk's
    /// scatter follows its kernels on the video memory, since they are one
    /// launch, and its download starts as its transposition back ends — the
    /// chunk waits for nothing.
    #[test]
    fn a_node_launch_is_one_stage_of_the_video_memory() {
        use CascadeStage::{Query, Scatter, TransposeBack, D2H};
        let row = |stage, time| StageTiming { stage, time, bytes: 0, overhead: 0.0 };
        let chunk = [row(Query, 4.0), row(TransposeBack, 1.0), row(Scatter, 2.0), row(D2H, 1.0)];
        let rows = [chunk, chunk].concat();
        let overlap = Overlap { streams: 2, chunks: vec![0..4, 4..8] };
        let report = overlap.schedule(&rows, 1.0, 2);
        // kernels and scatter 0–6, the way back 6–7, the download 7–8;
        // the second launch 6–12, its way back and download 12–14
        assert_eq!(report.batch_done, [8.0, 14.0]);
        assert_eq!(report.busy[resource::VRAM], 12.0);
        assert_eq!(report.busy[resource::NVLINK], 2.0);
        assert_eq!(report.makespan, 14.0);
    }

    #[test]
    fn every_chunk_crosses_pcie_nvlink_and_the_video_memory() {
        // every chunk crosses PCIe, NVLink and the video memory
        let crossed = [resource::PCIE_UP, resource::NVLINK, resource::VRAM];
        for cut in test_cuts() {
            let node = || node_with(4, Config::default());
            for (chunked, ..) in chunked_and_whole(Some(cut), node) {
                if let Some(overlap) = chunked.overlaps.first() {
                    let busy = overlap.schedule(&chunked.stages, 1.0, cut.streams).busy;
                    assert!(crossed.iter().all(|&r| busy[r] > 0.0), "{cut:?}");
                }
            }
        }
    }

    /// A chunk bound by its upload gets the rest cut fine, into more chunks
    /// than of its length: the last chunk's kernel, the tail no upload
    /// hides, shrinks with it. One whose kernel is almost all launch
    /// overhead gets the rest in one chunk: every chunk more pays another
    /// launch.
    #[test]
    fn the_planner_trades_overlap_against_overhead() {
        use CascadeStage::{Insert, H2D};
        let row = |stage, time, overhead| StageTiming {
            stage,
            time,
            bytes: 0,
            overhead,
        };
        let streaming = [row(H2D, 10e-6, 0.0), row(Insert, 2e-6, 0.0)];
        let mut planner = Planner::new();
        let next = planner.next(&streaming, 1000, 9000);
        assert!(planner.rest > 9, "{} chunks, the next of {next}", planner.rest);
        let launching = [row(H2D, 1e-6, 0.0), row(Insert, 10e-6, 9.9e-6)];
        assert_eq!(Planner::new().next(&launching, 1000, 9000), 9000);
    }

    #[test]
    fn a_call_below_twice_the_first_chunk_is_one_chunk() {
        let d = node_paying(4, SMALL_OVERHEAD, Config::default());
        let (put, get) = (d.first_chunk(PUTS), d.first_chunk(GETS));
        // 2 launches against 8-byte pairs, 1 against 4-byte keys: two GPUs
        // share a PCIe switch of 11 GB/s, so a GPU uploads 8 bytes in
        // 1.45 ns, and the 120 ns of two launches hide 82 pairs a GPU
        assert_eq!((put, get), (328, 328));
        // and on the P100 node, 12 µs of two launches or 6 µs of one:
        // 8 250 a GPU either way
        let p100 = node(4);
        assert_eq!(p100.first_chunk(PUTS), 4 * 8250);
        assert_eq!(p100.first_chunk(ERASES), 4 * 8250);
        for (first, len) in [(put, 2 * put - 1), (put, 2 * put)] {
            let pairs: Vec<(u32, u32)> = (1..=len as u32).map(|k| (k, k)).collect();
            let mut d = node_paying(4, SMALL_OVERHEAD, Config::default());
            let cut = chunks_of(&d.put_batch(&pairs).unwrap().report) > 1;
            assert_eq!(cut, len >= 2 * first, "{len} pairs");
            let keys: Vec<u32> = (1..=(len * get / put) as u32).collect();
            let cut = chunks_of(&d.get_batch(&keys).unwrap().report) > 1;
            assert_eq!(cut, keys.len() >= 2 * get, "{} keys", keys.len());
        }
    }

    /// A device-sided call below twice its first chunk — what the
    /// all-to-all carries in a round's launch overheads — is one round, its
    /// rows the cascade's round's bit for bit; one of twice that is cut.
    #[test]
    fn a_device_call_below_twice_its_first_chunk_is_one_round() {
        use crate::cascade::Resident;
        let cfg = Config::default().with_schedule(Schedule::Sequential);
        let paying = || node_paying(4, 1.52e-8, cfg);
        let d = paying();
        let (put, get) = (d.first_device_chunk(PUTS), d.first_device_chunk(GETS));
        // the 30.4 ns of two launches against an element from every GPU to
        // every GPU over a single NVLink of 16 GB/s: 60.8 pairs or 121.6
        // keys a GPU pair
        assert_eq!((put, get), (16 * 60, 16 * 121));
        // and on the P100 node 12 µs: 24 000 pairs a GPU pair, past any
        // device call of the tests and figures
        assert_eq!(node(4).first_device_chunk(PUTS), 16 * 24_000);
        let spread = |len: usize| (0..4).map(move |g| live_chunk(len, 4, 0, g));
        for (s, first) in [(PUTS, put), (GETS, get)] {
            for len in [2 * first - 1, 2 * first] {
                let (mut d, twin) = (paying(), paying());
                let pairs: Vec<(u32, u32)> = (1..=len as u32).map(|k| (k, k)).collect();
                let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
                let puts: Vec<&[(u32, u32)]> = spread(len).map(|c| &pairs[c]).collect();
                let reads: Vec<&[u32]> = spread(len).map(|c| &keys[c]).collect();
                let mut input = Input::default();
                let lists = if s == PUTS {
                    input.pairs[s] = &puts;
                    Resident::Puts(&puts)
                } else {
                    input.keys[s] = &reads;
                    Resident::Reads(&reads)
                };
                let report = d.apply_device_sided(lists, None).unwrap().applied.report;
                if len == 2 * first {
                    assert!(chunks_of(&report) > 1, "{len} elements");
                    continue;
                }
                let mut round = OpReport::of_cascade(len as u64);
                twin.cascade(input, &mut round, &mut Applied::default(), |_, _, _| {}).unwrap();
                assert!(report.overlaps.is_empty(), "{len} elements");
                assert_eq!(rows_less(&report, &[]), rows_less(&round, &[]), "{len} elements");
                assert_eq!(report.time.to_bits(), round.time.to_bits(), "{len} elements");
                assert_eq!(report.launches, round.launches, "{len} elements");
            }
        }
    }

    #[test]
    fn identical_nodes_cut_a_call_identically() {
        let cfg = Config::default().with_schedule(Schedule::Sequential);
        let pairs: Vec<(u32, u32)> = (0..6000u32).map(|i| (i * 5 + 2, i)).collect();
        let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
        let script = || {
            let mut d = node_paying(4, SMALL_OVERHEAD, cfg);
            let put = d.put_batch(&pairs).unwrap().report;
            let get = d.get_batch(&keys).unwrap().report;
            let erase = d.delete_batch(&keys).unwrap().report;
            [put, get, erase].map(|report| {
                let Overlap { streams, chunks } = report.overlaps[0].clone();
                (streams, chunks, report.time.to_bits())
            })
        };
        let cuts = script();
        assert!(cuts.iter().all(|(streams, ..)| *streams > 1));
        assert_eq!(cuts, script());
    }

    /// At the P100's launch overhead: a put and a get cut by the planner
    /// take no longer than in 8 equal chunks, and spend at most 11
    /// launches and 8.3 µs of multisplit a chunk between them — the
    /// bounds CI holds `bulk_node4` to.
    #[test]
    fn a_planned_call_beats_eight_chunks_within_the_per_chunk_bounds() {
        let cfg = Config::default()
            .with_schedule(Schedule::Sequential)
            .with_fault(gpu_sim::FaultPlan::default());
        let n = 1 << 18;
        let pairs: Vec<(u32, u32)> = (0..n as u32).map(|i| (i * 3 + 1, i)).collect();
        let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
        let node = || {
            let devices: Vec<Arc<Device>> = (0..4)
                .map(|i| Arc::new(Device::with_words(i, 1 << 19)))
                .collect();
            DistributedHashMap::new(devices, 1 << 17, cfg, Topology::p100_quad(4)).unwrap()
        };
        let eight = Some(Cut::new(n / 8, 8));
        let (mut planned, mut fixed) = (node(), node());
        let put = read_write(&mut planned, &[], &pairs, None).report;
        assert!(put.time <= read_write(&mut fixed, &[], &pairs, eight).report.time);
        let get = read_write(&mut planned, &keys, &[], None).report;
        assert!(get.time <= read_write(&mut fixed, &keys, &[], eight).report.time);
        assert!(chunks_of(&put) > 1 && chunks_of(&get) > 1);
        let chunks = (chunks_of(&put) + chunks_of(&get)) as f64;
        let launches = (put.launches + get.launches) as f64;
        assert!(launches <= 11.0 * chunks, "{launches} launches in {chunks} chunks");
        let split = put.time_of(CascadeStage::Multisplit) + get.time_of(CascadeStage::Multisplit);
        assert!(split <= 8.3e-6 * chunks, "{split:e} s of split in {chunks} chunks");
    }

    /// On the Fig. 6 node at load 0.9, a get of hits, the same get in the
    /// order the keys were put — its last keys, put at the highest load,
    /// probe longest — and a get of tombstoned keys, each past twice its
    /// first chunk: the planner's cut reads within 1 % of the best cut into
    /// 1 to 16 equal chunks, a stream each (2.7 % and 2.5 % below it, and
    /// 0.5 % above, here). Launches pay a quarter of the P100's overhead,
    /// so that a call is cut at a quarter of the size.
    #[test]
    fn a_planned_get_reads_within_a_percent_of_the_best_equal_cut() {
        let cfg = Config::default()
            .with_schedule(Schedule::Sequential)
            .with_fault(gpu_sim::FaultPlan::default());
        let per_gpu = 1 << 13;
        let spec = DeviceSpec {
            launch_overhead: DeviceSpec::p100().launch_overhead / 4.0,
            ..DeviceSpec::test_small(80 * per_gpu as u64)
        };
        let devices = (0..4).map(|i| Arc::new(Device::new(i, spec.clone()))).collect();
        let mut d = DistributedHashMap::new(devices, per_gpu, cfg, Topology::p100_quad(4)).unwrap();
        let n = 4 * per_gpu * 9 / 10;
        let pairs: Vec<(u32, u32)> = (0..n as u32).map(|i| (i * 3 + 1, i)).collect();
        d.put_batch(&pairs).unwrap();
        let put: Vec<u32> = pairs.iter().map(|p| p.0).collect();
        let within = |d: &mut DistributedHashMap, keys: &[u32], bound: f64, what: &str| {
            assert!(keys.len() >= 2 * d.first_chunk(GETS), "{what}: one chunk");
            let planned = read_write(d, keys, &[], None).report;
            let equal = |k: usize| Some(Cut::new(keys.len().div_ceil(k), k));
            let cut = |k| read_write(d, keys, &[], equal(k)).report.time;
            let best = (1..=16).map(cut).fold(f64::INFINITY, f64::min);
            let (time, chunks) = (planned.time, chunks_of(&planned));
            assert!(time <= bound * best, "{what}: {time:e} s in {chunks} chunks, {best:e}");
        };
        let mut hits = put.clone();
        hits.sort_unstable_by_key(|&k| k.wrapping_mul(0x9e37_79b9));
        within(&mut d, &hits, 1.01, "hits");
        within(&mut d, &put, 1.01, "hits in the order put");
        let tombstoned = &put[..n * 5 / 8];
        d.delete_batch(tombstoned).unwrap();
        within(&mut d, tombstoned, 1.01, "tombstoned");
    }

    #[test]
    fn a_quarantine_in_chunk_3_of_8_still_answers_right() {
        let mut d = node_with(4, Config::default());
        // chunks of 6 pairs: a live GPU 3 takes none of a chunk over PCIe,
        // and none of the first three chunks' keys is of its partition
        let part = |k: u32| d.partition().part(k);
        let elsewhere = (1..).filter(|&k| part(k) != 3).take(18);
        let mut pairs: Vec<(u32, u32)> = elsewhere.map(|k| (k, k + 1)).collect();
        pairs.extend((1000..1030).map(|k| (k, k + 1)));
        assert!(pairs[18..24].iter().any(|&(k, _)| part(k) == 3));
        d.set_fault_plan(gpu_sim::FaultPlan::default().with_kill(3));
        let cut = Cut::new(6, 8);
        let put = read_write(&mut d, &[], &pairs, Some(cut)).report;
        assert_eq!(d.quarantined(), [3]);
        let backoff = |chunk: &Range<usize>| {
            let rows = &put.stages[chunk.clone()];
            rows.iter().any(|s| s.stage == CascadeStage::Backoff)
        };
        let chunks: Vec<bool> = put.overlaps[0].chunks.iter().map(backoff).collect();
        assert_eq!(chunks, [false, false, false, true, false, false, false, false]);
        assert_time_is_bracketed(&put);
        // every answer right, an absent key's too, through 8 chunks of
        // reads and of erases on the degraded node
        let keys: Vec<u32> = pairs.iter().map(|p| p.0).chain([5000]).collect();
        let get = read_write(&mut d, &keys, &[], Some(cut));
        let want: Vec<Option<u32>> = pairs.iter().map(|p| Some(p.1)).chain([None]).collect();
        assert_eq!(get.values, want);
        assert_eq!(chunks_of(&get.report), 9);
        let erase = delete(&mut d, &keys, Some(cut));
        let hits: Vec<bool> = want.iter().map(Option::is_some).collect();
        assert_eq!((erase.hits, erase.erased), (hits, pairs.len() as u64));
        let values = read_write(&mut d, &keys, &[], Some(cut)).values;
        assert!(values.iter().all(Option::is_none));
    }

    /// A put the planner cuts into chunks of 9 pairs — none uploaded to
    /// GPU 3 (9 over 4 GPUs is 3, 3, 3, 0) — whose first chunk holds no key
    /// of GPU 3's partition: the kill lands in its middle chunk.
    #[test]
    fn a_kill_in_a_middle_chunk_of_a_planned_call() {
        let cfg = Config::default().with_schedule(Schedule::Sequential);
        let mut d = node_paying(4, 2.5e-9, cfg);
        assert_eq!(d.first_chunk(PUTS), 12);
        let part = |k: u32| d.partition().part(k);
        let elsewhere = (1..).filter(|&k| part(k) != 3).take(9);
        let mut pairs: Vec<(u32, u32)> = elsewhere.map(|k| (k, k + 1)).collect();
        pairs.extend((1000..1018).map(|k| (k, k + 1)));
        d.set_fault_plan(gpu_sim::FaultPlan::default().with_kill(3));
        let put = d.put_batch(&pairs).unwrap().report;
        assert_eq!(d.quarantined(), [3]);
        let chunks = &put.overlaps[0].chunks;
        let rows = |c: usize| &put.stages[chunks[c].clone()];
        let backoff = |c| rows(c).iter().any(|s| s.stage == CascadeStage::Backoff);
        assert_eq!((0..chunks.len()).map(backoff).collect::<Vec<_>>(), [false, true, false]);
        assert_eq!(chunk_lengths(&put, 8), [9, 9, 9]);
        assert_time_is_bracketed(&put);
        // the plan replays from the rows: the chunk after the kill is
        // planned from the survivors' rows, and a copy of them leaves the
        // kill's backoff out
        let mut planner = Planner::new();
        assert_eq!(planner.next(rows(0), 9, 18), 9);
        let healthy: Vec<StageTiming> =
            rows(1).iter().filter(|s| s.stage != CascadeStage::Backoff).copied().collect();
        let waited = rows(1).iter().filter(|s| s.stage == CascadeStage::Backoff);
        assert!(waited.map(|s| s.time).sum::<f64>() > 0.0);
        for k in 1..=3 {
            let share = 9usize.div_ceil(k);
            let with = planner.predict(rows(1), 9, share, share, k);
            let without = planner.predict(&healthy, 9, share, share, k);
            assert_eq!(with.to_bits(), without.to_bits(), "{k}");
        }
        assert_eq!(planner.next(rows(1), 9, 9), 9);
        // every answer right on the degraded node, an absent key's too
        let keys: Vec<u32> = pairs.iter().map(|p| p.0).chain([5000]).collect();
        let want: Vec<Option<u32>> = pairs.iter().map(|p| Some(p.1)).chain([None]).collect();
        let get = d.get_batch(&keys).unwrap();
        assert_eq!(get.values, want);
        assert_time_is_bracketed(&get.report);
        assert_eq!(live_sorted(&d), {
            let mut want = pairs.clone();
            want.sort_unstable();
            want
        });
        let erase = d.delete_batch(&keys).unwrap();
        let hits: Vec<bool> = want.iter().map(Option::is_some).collect();
        assert_eq!((erase.hits, erase.erased), (hits, pairs.len() as u64));
        assert!(d.live_snapshot().is_empty());
    }

    #[test]
    fn a_get_put_round_above_the_threshold_stays_one_round() {
        // one GPU, so that a round past the threshold stays small
        let devices = vec![Arc::new(Device::with_words(0, 1 << 20))];
        let cfg = Config::default().with_fault(gpu_sim::FaultPlan::default());
        let mut d = DistributedHashMap::new(devices, 1 << 17, cfg, Topology::p100_quad(1)).unwrap();
        // twice a put's first chunk, so that a put of them is cut; the
        // round is twice that, past twice either first chunk
        let n = 2 * d.first_chunk(PUTS);
        let old: Vec<(u32, u32)> = (1..=n as u32).map(|k| (k, k)).collect();
        assert!(chunks_of(&d.put_batch(&old).unwrap().report) > 1);
        let keys: Vec<u32> = old.iter().map(|p| p.0).collect();
        let new: Vec<(u32, u32)> = keys.iter().map(|&k| (k, k + 1)).collect();
        let the_bracket_would_cut = |len| len >= 2 * d.first_chunk(GETS).max(n / 2);
        assert!(the_bracket_would_cut(keys.len() + new.len()));
        let resp = read_write(&mut d, &keys, &new, None);
        assert!(resp.values.iter().zip(&keys).all(|(&v, &k)| v == Some(k)));
        assert!(resp.report.overlaps.is_empty());
        let uploads = stages_of(&resp.report).iter().filter(|&&s| s == CascadeStage::H2D).count();
        assert_eq!(uploads, 1);
        assert_time_is_bracketed(&resp.report);
        assert_eq!(d.get_batch(&[7]).unwrap().values[0], Some(8));
    }

    #[test]
    fn a_quarantine_in_chunk_2_re_spreads_the_later_chunks() {
        let mut d = node_with(4, Config::default());
        // chunks of 6 pairs: a live GPU 3 takes none of a chunk over PCIe
        // (6 over 4 GPUs is 2, 2, 2, 0), and none of the first two chunks'
        // keys is of its partition, so nothing reaches it before chunk 2
        let part = |k: u32| d.partition().part(k);
        let elsewhere = (1..).filter(|&k| part(k) != 3).take(12);
        let mut pairs: Vec<(u32, u32)> = elsewhere.map(|k| (k, k)).collect();
        pairs.extend((1000..1012).map(|k| (k, k)));
        assert!(pairs[12..18].iter().any(|&(k, _)| part(k) == 3));
        d.set_fault_plan(gpu_sim::FaultPlan::default().with_kill(3));
        let cut = Cut::new(6, 2);
        let put = read_write(&mut d, &[], &pairs, Some(cut)).report;
        assert_eq!(d.quarantined(), [3]);
        // the retries and backoff of the lost transfer lie in chunk 2; the
        // last chunk spreads over the survivors from the start
        let chunks = &put.overlaps[0].chunks;
        let backoff = |chunk: &Range<usize>| {
            let rows = &put.stages[chunk.clone()];
            rows.iter().any(|s| s.stage == CascadeStage::Backoff)
        };
        assert_eq!(chunks.iter().map(backoff).collect::<Vec<_>>(), [false, false, true, false]);
        assert_time_is_bracketed(&put);
        let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
        let get = read_write(&mut d, &keys, &[], Some(cut));
        assert!(get.values.iter().zip(&pairs).all(|(&v, p)| v == Some(p.1)));
        assert_time_is_bracketed(&get.report);
        assert_eq!(live_sorted(&d), {
            let mut want = pairs.clone();
            want.sort_unstable();
            want
        });
    }
}
