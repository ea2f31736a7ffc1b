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

use crate::cascade::{Abort, CascadeOp, Input, ERASE, GET_PUT, INSERT, RETRIEVE};
use crate::config::Mutation;
use crate::distributed::DistributedHashMap;
use crate::entry::pack;
use crate::service::{DeleteResponse, GetResponse, OpError, OpReport};
use crate::stats::CascadeStage;
use crate::table::{check_keys, pair_words};
use interconnect::{d2h_time_faulted, h2d_time_faulted};

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
    /// The one host bracket of `op`: every GPU's [`live_chunk`] of the
    /// `keys` it answers (none for an insertion) and of each list of
    /// `pairs` travels up over PCIe in one transfer — 4 bytes a key, 8 a
    /// pair — the `device` cascade runs on the chunks, a list a segment,
    /// and `op`'s answers travel down: a GPU's `n` values in `4n` bytes
    /// plus `⌈n/8⌉` of found bits, or a byte per erase's hit flag
    /// ([`crate::cascade::ReturnTrip::down_bytes`]). The cascade copies
    /// those words down itself, at the end of its round, in the order it
    /// hands the answers out; the bracket bills the transfer.
    /// Dropped PCIe transfers are retried with backoff; a host link whose
    /// budget is exhausted quarantines its GPU and the transfer re-spreads
    /// over the survivors.
    fn host_bracket<O>(
        &self,
        op: &CascadeOp,
        keys: &[u32],
        pairs: &[&[u64]],
        device: impl FnOnce(&Self, Input, &mut OpReport) -> Result<O, OpError>,
    ) -> Result<(O, OpReport), OpError> {
        check_keys(keys.iter().copied())?;
        let m = self.num_gpus();
        let policy = self.retry_policy();
        let elements = keys.len() + pairs.iter().map(|l| l.len()).sum::<usize>();
        let mut report = OpReport::of_cascade(elements as u64);
        // what each host link carries, of the upload and then the download
        let mut bytes = vec![0; m];
        let spread_mask = self.with_failover(&mut report, |plan, mask, report, tally| {
            for (g, bytes) in bytes.iter_mut().enumerate() {
                let words = pairs.iter().map(|l| live_chunk(l.len(), m, mask, g).len());
                *bytes = live_chunk(keys.len(), m, mask, g).len() as u64 * 4
                    + words.sum::<usize>() as u64 * 8;
            }
            let up = h2d_time_faulted(self.topology(), &bytes, plan, &policy);
            let up = tally.settle(plan, &policy, up).map_err(Abort::Lost)?;
            report.push(CascadeStage::H2D, up.time, up.bytes, 0.0);
            Ok(mask)
        })?;
        // list after list, each cut into its `m` chunks
        let chunks_of = |len| (0..m).map(move |g| live_chunk(len, m, spread_mask, g));
        let mut key_chunks = Vec::new();
        if op.back.is_some() {
            key_chunks.extend(chunks_of(keys.len()).map(|chunk| &keys[chunk]));
        }
        let mut chunks = Vec::with_capacity(pairs.len() * m);
        for l in pairs {
            chunks.extend(chunks_of(l.len()).map(|chunk| &l[chunk]));
        }
        let (keys, pairs) = (&key_chunks[..], &chunks[..]);
        let out = device(self, Input { keys, pairs }, &mut report)?;
        if let Some(back) = &op.back {
            self.with_failover(&mut report, |plan, mask, report, tally| {
                // the cascade may have quarantined GPUs mid-flight; their
                // answers physically came from survivors, so the dead
                // links carry no bytes
                for (g, bytes) in bytes.iter_mut().enumerate() {
                    *bytes = match mask & (1 << g) {
                        0 => back.down_bytes(key_chunks[g].len()),
                        _ => 0,
                    };
                }
                let down = d2h_time_faulted(self.topology(), &bytes, plan, &policy);
                let down = tally.settle(plan, &policy, down).map_err(Abort::Lost)?;
                report.push(CascadeStage::D2H, down.time, down.bytes, 0.0);
                Ok(())
            })?;
        }
        Ok((out, report))
    }

    /// Host-sided insertion: transfer the packed pairs over PCIe
    /// (unstructured equal spread over the live GPUs), then run the
    /// device cascade.
    ///
    /// # Errors
    /// Propagates the device cascade's errors;
    /// [`OpError::DeviceLost`] once no failover remains.
    pub fn insert_from_host(&self, pairs: &[(u32, u32)]) -> Result<OpReport, OpError> {
        let words = pair_words(pairs)?;
        let ((), report) = self.host_bracket(&INSERT, &[], &[&words], |d, input, report| {
            d.insert_words(input.pairs, report)
        })?;
        Ok(report)
    }

    /// Host-sided retrieval with typed fault errors: keys up over PCIe
    /// (4 bytes each), device cascade, results down (a 4-byte value per
    /// key and a found bit). Returns the results in the original key
    /// order with a unified [`OpReport`].
    ///
    /// # Errors
    /// [`OpError`] once every failover avenue is exhausted.
    pub fn try_retrieve_from_host(&self, keys: &[u32]) -> Result<GetResponse, OpError> {
        let (values, report) = self.retrieve_from_host_impl(keys)?;
        Ok(GetResponse { values, report })
    }

    /// Single-key convenience. Routed through the same counter/stats
    /// path as [`DistributedHashMap::try_retrieve_from_host`], so device
    /// lifetime telemetry counts it like any batched read.
    #[must_use]
    pub fn get(&self, key: u32) -> Option<u32> {
        self.retrieve_from_host_impl(&[key])
            .map_or(None, |(values, _)| values[0])
    }

    pub(crate) fn retrieve_from_host_impl(
        &self,
        keys: &[u32],
    ) -> Result<(Vec<Option<u32>>, OpReport), OpError> {
        // chunks are contiguous, so one after the other is input order
        let mut values = vec![None; keys.len()];
        let ((), report) = self.host_bracket(&RETRIEVE, keys, &[], |d, input, report| {
            d.query_keys(input.keys, report, |(g, i), v| {
                values[start_of(input.keys, g) + i] = v
            })
        })?;
        Ok((values, report))
    }

    /// Host-sided erase with typed fault errors: keys travel over PCIe
    /// (4 bytes each) under the same retry-and-quarantine contract as
    /// insertion, the device cascade runs, and per-key hit flags come back
    /// down (a byte each) in the original input order.
    ///
    /// # Errors
    /// [`OpError`] once every failover avenue is exhausted.
    pub fn try_erase_from_host(&mut self, keys: &[u32]) -> Result<DeleteResponse, OpError> {
        let mut hits = vec![false; keys.len()];
        let (erased, report) = self.host_bracket(&ERASE, keys, &[], |d, input, report| {
            d.erase_keys(input.keys, report, |(g, i), hit| {
                hits[start_of(input.keys, g) + i] |= hit
            })
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
    /// back, in `reads` order.
    ///
    /// # Errors
    /// As [`Self::try_retrieve_from_host`] and [`Self::insert_from_host`];
    /// some of the pairs may have been applied.
    pub(crate) fn get_put_from_host(
        &self,
        reads: &[u32],
        puts: &[(u32, u32)],
    ) -> Result<GetResponse, OpError> {
        // MUTATION DOUBLE (`Mutation::LatePutsJoinFirstLaunch`): no put is
        // late, so a key's get races its own put in the fused launch.
        check_keys(puts.iter().map(|p| p.0))?; // the bracket checks `reads`
        let races = self.cfg().mutation == Some(Mutation::LatePutsJoinFirstLaunch);
        let (mut first, mut late) = (Vec::new(), Vec::new());
        for &(k, v) in puts {
            let read_too = !races && reads.binary_search(&k).is_ok();
            if read_too { &mut late } else { &mut first }.push(pack(k, v));
        }
        // chunks are contiguous, so one after the other is input order
        let mut values = vec![None; reads.len()];
        let puts = [&first[..], &late];
        let ((), report) = self.host_bracket(&GET_PUT, reads, &puts, |d, input, report| {
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
}
