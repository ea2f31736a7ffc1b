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
//! The mixed get + put round ([`crate::MapService::get_put_batch`] of the
//! node) goes through the same bracket: each list is spread on its own
//! into one segment of the cascade round, a GPU's chunks travel up back
//! to back in one transfer, and only the answers travel down.
//!
//! ## Chunks that overlap (§IV-B, Fig. 5)
//!
//! A large insert, get or erase is cut into chunks, each its own bracket —
//! H2D, cascade, D2H — run one after the other into the call's one output
//! and the call's one report. Their stages occupy different hardware
//! ([`resource`]), so the chunks overlap on as many streams as there are
//! chunks, and the call's [`OpReport::time`] is the makespan of that
//! overlay ([`Overlap`]). The cut depends on the size of the call alone:
//! as many chunks as give every GPU at least `MIN_CHUNK_PER_GPU` (2¹⁴)
//! elements of each, at most `MAX_CHUNKS` (8); below twice that a call is
//! one chunk, with no overlay. A chunk costs the host no allocation — its
//! round moves words device to device ([`crate::cascade`]) — so the call
//! pays for its overlay once, whatever the cut.
//! The mixed round is always one chunk: its reads answer the values from
//! before the call, which a chunk behind a put would not.
//! [`DistributedHashMap::insert_in_chunks`] and
//! [`DistributedHashMap::retrieve_in_chunks`] cut where their caller's
//! [`Cut`] says — a chunk size and a number of streams, Fig. 11's
//! `Ins`/`Ret` variants.

use crate::cascade::{Abort, CascadeOp, Input, ERASE, GET_PUT, INSERT, RETRIEVE};
use crate::config::Mutation;
use crate::distributed::{DistributedHashMap, MAX_PARTITIONS};
use crate::entry::pack;
use crate::service::{DeleteResponse, GetResponse, OpError, OpReport};
use crate::stats::{CascadeStage, StageTiming};
use crate::table::{check_keys, pair_words};
use interconnect::{d2h_time_faulted, h2d_time_faulted, PipelineReport, PipelineSim, Stage};
use std::ops::Range;

/// Fewest elements a GPU takes from each chunk of a call the bracket cuts:
/// a smaller chunk would pay its launch overheads for little transfer to
/// hide.
pub(crate) const MIN_CHUNK_PER_GPU: usize = 1 << 14;

/// Most chunks, and streams, the bracket cuts a call into: past 8, a
/// chunk's launch overheads outweigh what the finer overlap hides.
pub(crate) const MAX_CHUNKS: usize = 8;

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

/// A chunk's stage row as a pipeline stage on one of the four resources,
/// extrapolated to `scale`× its functional element count; none if it
/// takes no time. Consecutive same-resource phases merge naturally by
/// being scheduled back-to-back; order must follow the cascade.
fn stage_of(row: &StageTiming, scale: f64) -> Option<Stage> {
    let resource = match row.stage {
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
    };
    let duration = row.scaled_time(scale);
    (duration > 0.0).then_some(Stage { resource, duration })
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
                stages.extend(rows[chunk.clone()].iter().filter_map(|row| stage_of(row, scale)));
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

/// How a host-sided call is cut: into chunks of `len` elements — the last
/// one may be shorter — issued round-robin on `streams` streams.
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

    /// The bracket's own cut of a call of `elements` elements over `m`
    /// GPUs: from the per-GPU count alone, as many chunks as leave every
    /// GPU [`MIN_CHUNK_PER_GPU`] elements of each, at most [`MAX_CHUNKS`],
    /// one stream each.
    pub(crate) fn of(elements: usize, m: usize) -> Self {
        let chunks = (elements / m / MIN_CHUNK_PER_GPU).clamp(1, MAX_CHUNKS);
        Self::new(elements.div_ceil(chunks).max(1), chunks)
    }
}

/// Runs `call` on each chunk of `items` that `cut` makes — the chunk,
/// where it starts in `items`, and the call's report, which it pushes its
/// rows into — one after the other, and overlays the chunks: the report
/// holds every chunk's rows, launches and bytes, and the makespan of
/// [`Overlap::schedule`] as its time. A call of one chunk is `call` on all
/// of `items`, its report as `call` leaves it.
fn in_chunks<T>(
    items: &[T],
    cut: Cut,
    mut call: impl FnMut(&[T], usize, &mut OpReport) -> Result<(), OpError>,
) -> Result<OpReport, OpError> {
    if items.len() <= cut.len {
        let mut report = OpReport::of_cascade(0);
        call(items, 0, &mut report)?;
        return Ok(report);
    }
    let count = items.len().div_ceil(cut.len);
    // room for every chunk's healthy round: H2D … D2H
    let stages = Vec::with_capacity(8 * count);
    let mut report = OpReport {
        stages,
        ..OpReport::default()
    };
    let mut chunks = Vec::with_capacity(count);
    for (c, chunk) in items.chunks(cut.len).enumerate() {
        let at = report.stages.len();
        call(chunk, c * cut.len, &mut report)?;
        chunks.push(at..report.stages.len());
    }
    let overlap = Overlap {
        streams: cut.streams,
        chunks,
    };
    report.time = overlap.schedule(&report.stages, 1.0, cut.streams).makespan;
    report.overlaps.push(overlap);
    Ok(report)
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

/// Where GPU `g`'s chunk starts in the list that `chunks` cut up.
fn start_of<T>(chunks: &[&[T]], g: usize) -> usize {
    chunks[..g].iter().map(|chunk| chunk.len()).sum()
}

impl DistributedHashMap {
    /// The one host bracket of `op` over one chunk of a call: every GPU's
    /// [`live_chunk`] of the `keys` it answers (none for an insertion) and
    /// of each list of `pairs` travels up over PCIe in one transfer — 4
    /// bytes a key, 8 a pair — the `device` cascade runs on the chunks, a
    /// list a segment, and `op`'s answers travel down: a GPU's `n` values
    /// in `4n` bytes plus `⌈n/8⌉` of found bits, or a byte per erase's hit
    /// flag ([`crate::cascade::ReturnTrip::down_bytes`]). The cascade
    /// copies those words down itself, at the end of its round, in the
    /// order it hands the answers out; the bracket bills the transfer.
    /// Dropped PCIe transfers are retried with backoff; a host link whose
    /// budget is exhausted quarantines its GPU and the transfer re-spreads
    /// over the survivors. The chunk's elements and rows go into `report`,
    /// the call's. The caller has checked the keys.
    fn host_bracket<O>(
        &self,
        op: &CascadeOp,
        keys: &[u32],
        pairs: &[&[u64]],
        report: &mut OpReport,
        device: impl FnOnce(&Self, Input, &mut OpReport) -> Result<O, OpError>,
    ) -> Result<O, OpError> {
        let m = self.num_gpus();
        let policy = self.retry_policy();
        let elements = keys.len() + pairs.iter().map(|l| l.len()).sum::<usize>();
        report.elements += elements as u64;
        // what each host link carries, of the upload and then the download
        let mut bytes = [0; MAX_PARTITIONS];
        let bytes = &mut bytes[..m];
        let spread_mask = self.with_failover(report, |plan, mask, report, tally| {
            for (g, bytes) in bytes.iter_mut().enumerate() {
                let words = pairs.iter().map(|l| live_chunk(l.len(), m, mask, g).len());
                *bytes = live_chunk(keys.len(), m, mask, g).len() as u64 * 4
                    + words.sum::<usize>() as u64 * 8;
            }
            let up = h2d_time_faulted(self.topology(), bytes, plan, &policy);
            let up = tally.settle(plan, &policy, up).map_err(Abort::Lost)?;
            report.push(CascadeStage::H2D, up.time, up.bytes, 0.0);
            Ok(mask)
        })?;
        // list after list, each cut into its `m` chunks: the keys of an
        // operation that answers, at most two lists of pairs
        let chunks_of = |len| (0..m).map(move |g| live_chunk(len, m, spread_mask, g));
        let mut key_chunks: [&[u32]; MAX_PARTITIONS] = [&[]; MAX_PARTITIONS];
        let answered = if op.back.is_some() { m } else { 0 };
        for (g, chunk) in chunks_of(keys.len()).take(answered).enumerate() {
            key_chunks[g] = &keys[chunk];
        }
        let mut pair_chunks: [&[u64]; 2 * MAX_PARTITIONS] = [&[]; 2 * MAX_PARTITIONS];
        for (l, list) in pairs.iter().enumerate() {
            for (g, chunk) in chunks_of(list.len()).enumerate() {
                pair_chunks[l * m + g] = &list[chunk];
            }
        }
        let (keys, pairs) = (&key_chunks[..answered], &pair_chunks[..pairs.len() * m]);
        let out = device(self, Input { keys, pairs }, report)?;
        if let Some(back) = &op.back {
            self.with_failover(report, |plan, mask, report, tally| {
                // the cascade may have quarantined GPUs mid-flight; their
                // answers physically came from survivors, so the dead
                // links carry no bytes
                for (g, bytes) in bytes.iter_mut().enumerate() {
                    *bytes = match mask & (1 << g) {
                        0 => back.down_bytes(key_chunks[g].len()),
                        _ => 0,
                    };
                }
                let down = d2h_time_faulted(self.topology(), bytes, plan, &policy);
                let down = tally.settle(plan, &policy, down).map_err(Abort::Lost)?;
                report.push(CascadeStage::D2H, down.time, down.bytes, 0.0);
                Ok(())
            })?;
        }
        Ok(out)
    }

    /// Host-sided insertion: transfer the packed pairs over PCIe
    /// (unstructured equal spread over the live GPUs), then run the
    /// device cascade — chunk after chunk for a large call, overlapped.
    ///
    /// # Errors
    /// Propagates the device cascade's errors;
    /// [`OpError::DeviceLost`] once no failover remains. The chunks before
    /// a failed one stay applied.
    pub fn insert_from_host(&self, pairs: &[(u32, u32)]) -> Result<OpReport, OpError> {
        self.insert_in_chunks(pairs, Cut::of(pairs.len(), self.num_gpus()))
    }

    /// [`Self::insert_from_host`] cut where `cut` says, not by the call's
    /// size: Fig. 11's `Ins1`/`Ins2`/`Ins4` are one chunk size on 1, 2 or
    /// 4 streams.
    ///
    /// # Errors
    /// As [`Self::insert_from_host`].
    pub fn insert_in_chunks(
        &self,
        pairs: &[(u32, u32)],
        cut: Cut,
    ) -> Result<OpReport, OpError> {
        let words = pair_words(pairs)?;
        in_chunks(&words, cut, |words, _, report| {
            self.host_bracket(&INSERT, &[], &[words], report, |d, input, report| {
                d.insert_words(input.pairs, report)
            })
        })
    }

    /// Host-sided retrieval with typed fault errors: keys up over PCIe
    /// (4 bytes each), device cascade, results down (a 4-byte value per
    /// key and a found bit) — chunk after chunk for a large call,
    /// overlapped. Returns the results in the original key order with a
    /// unified [`OpReport`].
    ///
    /// # Errors
    /// [`OpError`] once every failover avenue is exhausted.
    pub fn try_retrieve_from_host(&self, keys: &[u32]) -> Result<GetResponse, OpError> {
        self.retrieve_in_chunks(keys, Cut::of(keys.len(), self.num_gpus()))
    }

    /// Single-key convenience. Routed through the same counter/stats
    /// path as [`DistributedHashMap::try_retrieve_from_host`], so device
    /// lifetime telemetry counts it like any batched read.
    #[must_use]
    pub fn get(&self, key: u32) -> Option<u32> {
        self.try_retrieve_from_host(&[key])
            .map_or(None, |resp| resp.values[0])
    }

    /// [`Self::try_retrieve_from_host`] cut where `cut` says, not by the
    /// call's size (Fig. 11's `Ret1`/`Ret2`/`Ret4`), answering in key
    /// order.
    ///
    /// # Errors
    /// As [`Self::try_retrieve_from_host`].
    pub fn retrieve_in_chunks(&self, keys: &[u32], cut: Cut) -> Result<GetResponse, OpError> {
        check_keys(keys.iter().copied())?;
        // chunks are contiguous, so one after the other is input order
        let mut values = vec![None; keys.len()];
        let report = in_chunks(keys, cut, |keys, at, report| {
            self.host_bracket(&RETRIEVE, keys, &[], report, |d, input, report| {
                d.query_keys(input.keys, report, |(g, i), v| {
                    values[at + start_of(input.keys, g) + i] = v;
                })
            })
        })?;
        Ok(GetResponse { values, report })
    }

    /// Host-sided erase with typed fault errors: keys travel over PCIe
    /// (4 bytes each) under the same retry-and-quarantine contract as
    /// insertion, the device cascade runs, and per-key hit flags come back
    /// down (a byte each) in the original input order — chunk after chunk
    /// for a large call, overlapped.
    ///
    /// # Errors
    /// [`OpError`] once every failover avenue is exhausted.
    pub fn try_erase_from_host(&mut self, keys: &[u32]) -> Result<DeleteResponse, OpError> {
        self.erase_in_chunks(keys, Cut::of(keys.len(), self.num_gpus()))
    }

    pub(crate) fn erase_in_chunks(
        &mut self,
        keys: &[u32],
        cut: Cut,
    ) -> Result<DeleteResponse, OpError> {
        check_keys(keys.iter().copied())?;
        let mut hits = vec![false; keys.len()];
        let mut erased = 0;
        let report = in_chunks(keys, cut, |keys, at, report| {
            erased += self.host_bracket(&ERASE, keys, &[], report, |d, input, report| {
                d.erase_keys(input.keys, report, |(g, i), hit| {
                    hits[at + start_of(input.keys, g) + i] |= hit;
                })
            })?;
            Ok(())
        })?;
        Ok(DeleteResponse {
            hits,
            erased,
            report,
        })
    }

    /// Host-sided lookup of `reads` and insertion of `puts` in **one**
    /// cascade round (each list distinct ascending keys; a key may be in
    /// both): one H2D carries each GPU's chunk of the read keys, of the
    /// pairs of keys not read and of the pairs of keys also read, one
    /// multisplit and one all-to-all move all three, the owning GPU
    /// answers and inserts in one fused launch — the put of a key that is
    /// also read waits for a late launch behind it, so the answers are
    /// the values **before** the call — and the answers alone travel
    /// back, in `reads` order. One chunk, however large.
    ///
    /// # Errors
    /// As [`Self::try_retrieve_from_host`] and [`Self::insert_from_host`];
    /// some of the pairs may have been applied.
    pub(crate) fn get_put_from_host(
        &self,
        reads: &[u32],
        puts: &[(u32, u32)],
    ) -> Result<GetResponse, OpError> {
        check_keys(puts.iter().map(|p| p.0))?;
        check_keys(reads.iter().copied())?;
        // MUTATION DOUBLE (`Mutation::LatePutsJoinFirstLaunch`): no put is
        // late, so a key's get races its own put in the fused launch.
        let races = self.cfg().mutation == Some(Mutation::LatePutsJoinFirstLaunch);
        let (mut first, mut late) = (Vec::new(), Vec::new());
        for &(k, v) in puts {
            let read_too = !races && reads.binary_search(&k).is_ok();
            if read_too { &mut late } else { &mut first }.push(pack(k, v));
        }
        // chunks are contiguous, so one after the other is input order
        let mut values = vec![None; reads.len()];
        let puts = [&first[..], &late];
        let mut report = OpReport::of_cascade(0);
        self.host_bracket(&GET_PUT, reads, &puts, &mut report, |d, input, report| {
            d.get_put_round(input, report, |(g, i), v| {
                values[start_of(input.keys, g) + i].get_or_insert(v);
            })
        })?;
        Ok(GetResponse {
            values: values.into_iter().map(Option::flatten).collect(),
            report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use gpu_sim::Device;
    use interconnect::Topology;
    use std::sync::Arc;

    fn node(m: usize) -> DistributedHashMap {
        let devices: Vec<Arc<Device>> = (0..m)
            .map(|i| Arc::new(Device::with_words(i, 1 << 16)))
            .collect();
        DistributedHashMap::new(devices, 2048, Config::default(), Topology::p100_quad(m)).unwrap()
    }

    #[test]
    fn host_cascade_round_trip() {
        let mut d = node(4);
        let pairs: Vec<(u32, u32)> = (0..3000u32).map(|i| (i * 13 + 7, i)).collect();
        let rep = d.insert_from_host(&pairs).unwrap();
        assert!(rep.time_of(CascadeStage::H2D) > 0.0);
        assert_eq!(rep.stages[0].stage, CascadeStage::H2D);
        // a report counts the launches its cascade made: count, scatter
        // and insert on each GPU
        assert_eq!(rep.launches, 4 * 3);
        assert_eq!(rep.launches, launches(&d));

        let before = launches(&d);
        let erased = d.try_erase_from_host(&[pairs[0].0, 5]).unwrap();
        assert_eq!(erased.hits, [true, false]);
        assert_eq!(erased.report.launches, launches(&d) - before);
        d.insert_from_host(&pairs[..1]).unwrap();

        let keys: Vec<u32> = pairs.iter().map(|p| p.0).chain([999_999_999]).collect();
        let before = launches(&d);
        let resp = d.try_retrieve_from_host(&keys).unwrap();
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
        let d =
            DistributedHashMap::new(devices, 1 << 16, Config::default(), Topology::p100_quad(4))
                .unwrap();
        let pairs: Vec<(u32, u32)> = (0..120_000u32).map(|i| (i * 17 + 3, i)).collect();
        let rep = d.insert_from_host(&pairs).unwrap();
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

    #[test]
    fn get_put_is_one_round_answering_the_pre_call_values() {
        use crate::service::{get_then_put, MapService};
        use CascadeStage::{
            Insert, Multisplit, Query, Scatter, Transpose, TransposeBack, D2H, H2D,
        };
        let pairs: Vec<(u32, u32)> = (1..=1000u32).map(|k| (k, k)).collect();
        // a third of the keys read (and ten absent ones), half written
        // (and ten new ones): every sixth both
        let reads: Vec<u32> = (1..=1010).filter(|k| k % 3 == 0 || *k > 1000).collect();
        let puts: Vec<(u32, u32)> = (1..=1000)
            .filter(|k| k % 2 == 0)
            .chain(2001..=2010)
            .map(|k| (k, k + 7))
            .collect();
        let (mut d, mut twin) = (node(4), node(4));
        d.insert_from_host(&pairs).unwrap();
        twin.insert_from_host(&pairs).unwrap();

        let before = launches(&d);
        let resp = d.get_put_batch(&reads, &puts).unwrap();
        for (&k, &v) in reads.iter().zip(&resp.values) {
            assert_eq!(v, (k <= 1000).then_some(k), "key {k}");
        }
        assert_eq!(resp.report.elements, (reads.len() + puts.len()) as u64);
        assert_eq!(
            stages_of(&resp.report),
            [
                H2D,
                Multisplit,
                Transpose,
                Query,
                Insert,
                TransposeBack,
                Scatter,
                D2H
            ]
        );
        // a multisplit launch (every segment fits one group), a fused
        // launch, a late launch and a scatter on each of the 4 GPUs
        assert_eq!(launches(&d) - before, 4 + 4 + 4 + 4);
        assert_eq!(resp.report.launches, launches(&d) - before);

        // the provided body on a twin: same answers, same contents, and
        // the same bytes over PCIe and NVLink in twice the trips (the
        // first and the late puts are spread over the GPUs list by list,
        // so a few pairs start on another GPU than in one list of puts)
        let two = get_then_put(&mut twin, &reads, &puts).unwrap();
        assert_eq!(resp.values, two.values);
        let sorted = |d: &DistributedHashMap| {
            let mut live = d.live_snapshot();
            live.sort_unstable();
            live
        };
        assert_eq!(sorted(&d), sorted(&twin));
        assert_eq!(
            stages_of(&two.report).iter().filter(|&&s| s == H2D).count(),
            2
        );
        for stage in [H2D, TransposeBack, D2H] {
            assert_eq!(
                bytes_of(&resp.report, stage),
                bytes_of(&two.report, stage),
                "{stage:?}"
            );
        }
        let (one_trip, two_trips) = (
            bytes_of(&resp.report, Transpose),
            bytes_of(&two.report, Transpose),
        );
        assert!(
            one_trip.abs_diff(two_trips) * 50 < two_trips,
            "{one_trip} vs {two_trips}"
        );
        assert!(resp.report.time < two.report.time);
    }

    #[test]
    fn get_put_of_disjoint_keys_has_no_late_launch() {
        use crate::service::MapService;
        let mut d = node(4);
        d.insert_from_host(&[(1, 10), (2, 20), (3, 30)]).unwrap();
        let before = launches(&d);
        let puts: Vec<(u32, u32)> = (100..200u32).map(|k| (k, k)).collect();
        let resp = d.get_put_batch(&[1, 2, 3, 4], &puts).unwrap();
        assert_eq!(resp.values, [Some(10), Some(20), Some(30), None]);
        assert!(!stages_of(&resp.report).contains(&CascadeStage::Insert));
        // three of the four GPUs at most sent an answer back
        assert!(launches(&d) - before <= 4 + 4 + 4);
        assert_eq!(d.len(), 103);
    }

    #[test]
    fn a_gpu_without_a_word_launches_nothing() {
        use crate::service::MapService;
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

    #[test]
    fn get_put_of_unsorted_lists_runs_the_two_cascades() {
        use crate::service::MapService;
        let mut d = node(2);
        d.insert_from_host(&[(1, 10), (2, 20)]).unwrap();
        // a duplicate read and a duplicate put: not distinct ascending
        let resp = d
            .get_put_batch(&[2, 1, 2], &[(2, 21), (2, 22), (3, 30)])
            .unwrap();
        assert_eq!(resp.values, [Some(20), Some(10), Some(20)]);
        let uploads = stages_of(&resp.report);
        assert_eq!(
            uploads.iter().filter(|&&s| s == CascadeStage::H2D).count(),
            2
        );
        assert!(matches!(d.get(2), Some(21 | 22)));
        assert_eq!(d.get(3), Some(30));
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
        use crate::service::MapService;
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
            d.insert_from_host(&pairs).unwrap();
            let keys: Vec<u32> = (0..n).map(key).collect();
            let want: Vec<Option<u32>> = (0..n).map(|i| (i % 2 == 0).then_some(i as u32)).collect();
            let get = d.try_retrieve_from_host(&keys).unwrap();
            let round = d.get_put_batch(&keys, &[(key(1), 5)]).unwrap();
            for resp in [&get, &round] {
                assert_eq!(resp.values, want, "n={n}");
                let down = bytes_of(&resp.report, CascadeStage::D2H);
                assert_eq!(down, down_bytes(&chunks), "n={n}");
                assert!(down <= 8 * n as u64, "n={n}");
            }
        }
        // a quarantined GPU's chunk is spread over the survivors, and its
        // link carries nothing down
        let d = node_with(4, Config::default());
        let pairs: Vec<(u32, u32)> = (0..195).map(|i| (key(i), i as u32)).collect();
        d.insert_from_host(&pairs).unwrap();
        d.set_fault_plan(gpu_sim::FaultPlan::default().with_kill(3));
        let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
        let get = d.try_retrieve_from_host(&keys).unwrap();
        assert_eq!(d.quarantined(), [3]);
        assert!(get.values.iter().zip(0..).all(|(&v, i)| v == Some(i)));
        assert_eq!(bytes_of(&get.report, CascadeStage::D2H), down_bytes(&[65, 65, 65, 0]));
    }

    /// `Mutation::AnswerHalvesSwapped`: chunks of 257 keys, odd, so the
    /// last value of each sits alone in the low half of its word.
    #[test]
    fn swapped_answer_halves_are_caught_through_retrieve_and_the_mixed_round() {
        use crate::service::MapService;
        let pairs: Vec<(u32, u32)> = (0..4 * 257u32).map(|i| (i * 3 + 1, i)).collect();
        let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
        let want: Vec<Option<u32>> = pairs.iter().map(|p| Some(p.1)).collect();
        let answers = |cfg: Config| {
            let mut d = node_with(4, cfg);
            d.insert_from_host(&pairs).unwrap();
            let get = d.try_retrieve_from_host(&keys).unwrap().values;
            let puts: Vec<(u32, u32)> = keys[..100].iter().map(|&k| (k, 0)).collect();
            (get, d.get_put_batch(&keys, &puts).unwrap().values)
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

    /// Puts, gets (half of the keys absent) and erases on a node in the
    /// chunks of `cut`, and on a twin in one chunk each. Checks that the
    /// two answer alike, end up holding the same pairs and that each report
    /// counts its call's launches; returns each call's chunked report, its
    /// one-chunk report and its length.
    fn chunked_and_whole(cut: Cut) -> [(OpReport, OpReport, usize); 3] {
        let pairs: Vec<(u32, u32)> = (0..4096u32).map(|i| (i * 7 + 1, i)).collect();
        let keys: Vec<u32> = (0..4096u32).flat_map(|i| [i * 7 + 1, i * 7 + 3]).collect();
        let deleted: Vec<u32> = keys.iter().copied().step_by(3).collect();
        let whole = |len: usize| Cut::new(len, 1);
        let node = || node_with(4, Config::default());
        let (mut d, mut twin) = (node(), node());
        let before = launches(&d);
        let put = d.insert_in_chunks(&pairs, cut).unwrap();
        assert_eq!(put.launches, launches(&d) - before);
        let twin_put = twin.insert_in_chunks(&pairs, whole(pairs.len())).unwrap();
        let before = launches(&d);
        let GetResponse { values, report: get } = d.retrieve_in_chunks(&keys, cut).unwrap();
        assert_eq!(get.launches, launches(&d) - before);
        let GetResponse { values: twin_values, report: twin_get } =
            twin.retrieve_in_chunks(&keys, whole(keys.len())).unwrap();
        assert_eq!(values, twin_values);
        let before = launches(&d);
        let erase = d.erase_in_chunks(&deleted, cut).unwrap();
        assert_eq!(erase.report.launches, launches(&d) - before);
        let twin_erase = twin.erase_in_chunks(&deleted, whole(deleted.len())).unwrap();
        assert_eq!((&erase.hits, erase.erased), (&twin_erase.hits, twin_erase.erased));
        assert_eq!(live_sorted(&d), live_sorted(&twin));
        [
            (put, twin_put, pairs.len()),
            (get, twin_get, keys.len()),
            (erase.report, twin_erase.report, deleted.len()),
        ]
    }

    #[test]
    fn a_chunked_call_answers_moves_and_launches_like_one_chunk() {
        use CascadeStage::{D2H, H2D};
        for cut in test_cuts() {
            for (chunked, one, len) in chunked_and_whole(cut) {
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

    #[test]
    fn one_stream_issues_the_chunks_one_after_the_other() {
        // one stream issues the chunks one after the other
        let cut = Cut::new(1024, 1);
        for (chunked, _, len) in chunked_and_whole(cut) {
            assert!(len > cut.len);
            let overlap = chunked.overlaps.first().expect("a call of many chunks overlaps");
            let one_stream = overlap.schedule(&chunked.stages, 1.0, 1).makespan;
            assert_eq!(chunked.time.to_bits(), one_stream.to_bits());
            assert_eq!(overlap.saving(&chunked.stages, 1.0), 0.0);
        }
    }

    #[test]
    fn every_chunk_crosses_pcie_nvlink_and_the_video_memory() {
        // every chunk crosses PCIe, NVLink and the video memory
        let crossed = [resource::PCIE_UP, resource::NVLINK, resource::VRAM];
        for cut in test_cuts() {
            for (chunked, ..) in chunked_and_whole(cut) {
                if let Some(overlap) = chunked.overlaps.first() {
                    let busy = overlap.schedule(&chunked.stages, 1.0, cut.streams).busy;
                    assert!(crossed.iter().all(|&r| busy[r] > 0.0), "{cut:?}");
                }
            }
        }
    }

    #[test]
    fn the_bracket_cuts_a_call_by_its_size_per_gpu_alone() {
        let cut = |elements: usize, m| {
            let cut = Cut::of(elements, m);
            (elements.div_ceil(cut.len), cut.streams)
        };
        // bulk_node4's script: put and get 2^20 keys, delete and get 2^18
        assert_eq!(cut(1 << 20, 4), (8, 8));
        assert_eq!(cut(1 << 18, 4), (4, 4));
        // one chunk below twice MIN_CHUNK_PER_GPU a GPU, never more than
        // MAX_CHUNKS
        assert_eq!(cut(2 * 4 * MIN_CHUNK_PER_GPU - 1, 4), (1, 1));
        assert_eq!(cut(2 * 4 * MIN_CHUNK_PER_GPU, 4), (2, 2));
        assert_eq!(cut(1 << 30, 4), (MAX_CHUNKS, MAX_CHUNKS));
        assert_eq!(cut(3 * MIN_CHUNK_PER_GPU, 1), (3, 3));
        assert_eq!(Cut::of(0, 4), Cut::new(1, 1));
        // every GPU takes MIN_CHUNK_PER_GPU elements of each chunk or more
        for elements in (1..400).map(|i| i * 7919) {
            let Cut { len, streams } = Cut::of(elements, 4);
            assert!(streams == 1 || len / 4 >= MIN_CHUNK_PER_GPU, "{elements}");
        }
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
        let put = d.insert_in_chunks(&pairs, cut).unwrap();
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
        let get = d.retrieve_in_chunks(&keys, cut).unwrap();
        let want: Vec<Option<u32>> = pairs.iter().map(|p| Some(p.1)).chain([None]).collect();
        assert_eq!(get.values, want);
        assert_eq!(chunks_of(&get.report), 9);
        let erase = d.erase_in_chunks(&keys, cut).unwrap();
        let hits: Vec<bool> = want.iter().map(Option::is_some).collect();
        assert_eq!((erase.hits, erase.erased), (hits, pairs.len() as u64));
        let values = d.retrieve_in_chunks(&keys, cut).unwrap().values;
        assert!(values.iter().all(Option::is_none));
    }

    #[test]
    fn a_get_put_round_above_the_threshold_stays_one_round() {
        use crate::service::MapService;
        // one GPU, so that a round past the threshold stays small
        let n = 2 * MIN_CHUNK_PER_GPU as u32;
        let devices = vec![Arc::new(Device::with_words(0, 1 << 20))];
        let cfg = Config::default().with_fault(gpu_sim::FaultPlan::default());
        let mut d = DistributedHashMap::new(devices, 1 << 17, cfg, Topology::p100_quad(1)).unwrap();
        let old: Vec<(u32, u32)> = (1..=n).map(|k| (k, k)).collect();
        assert_eq!(chunks_of(&d.insert_from_host(&old).unwrap()), 2);
        let keys: Vec<u32> = old.iter().map(|p| p.0).collect();
        let new: Vec<(u32, u32)> = keys.iter().map(|&k| (k, k + 1)).collect();
        assert!(Cut::of(keys.len() + new.len(), 1).streams > 1, "the bracket would cut it");
        let resp = d.get_put_batch(&keys, &new).unwrap();
        assert!(resp.values.iter().zip(&keys).all(|(&v, &k)| v == Some(k)));
        assert!(resp.report.overlaps.is_empty());
        let uploads = stages_of(&resp.report).iter().filter(|&&s| s == CascadeStage::H2D).count();
        assert_eq!(uploads, 1);
        assert_time_is_bracketed(&resp.report);
        assert_eq!(d.get(7), Some(8));
    }

    #[test]
    fn a_quarantine_in_chunk_2_re_spreads_the_later_chunks() {
        let d = node_with(4, Config::default());
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
        let put = d.insert_in_chunks(&pairs, cut).unwrap();
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
        let get = d.retrieve_in_chunks(&keys, cut).unwrap();
        assert!(get.values.iter().zip(&pairs).all(|(&v, p)| v == Some(p.1)));
        assert_time_is_bracketed(&get.report);
        assert_eq!(live_sorted(&d), {
            let mut want = pairs.clone();
            want.sort_unstable();
            want
        });
    }
}
