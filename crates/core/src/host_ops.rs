//! Host-sided cascades: PCIe transfers bracketing the device cascades.
//!
//! §V-C's "host-sided" variants prepend an H2D transfer to the insertion
//! cascade and bracket the retrieval cascade with an H2D (keys up) and a
//! D2H (key-value results down). The initial spread over GPUs is the
//! *unstructured distribution* of §IV-B — equal contiguous chunks, no
//! host-side reordering (which the paper rules out as "almost as
//! expensive as CPU-based hash map construction").

use crate::cascade::Abort;
use crate::distributed::DistributedHashMap;
use crate::entry::pack;
use crate::service::{DeleteResponse, GetResponse, OpError, OpReport};
use crate::stats::{CascadeReport, CascadeStage};
use interconnect::{d2h_time_faulted, h2d_time_faulted};

/// Splits `items` into one contiguous chunk per GPU: near-equal over the
/// live GPUs of a quarantine `mask` in ascending order, empty for the
/// dead ones (they cannot accept PCIe traffic). Flattening the chunks
/// restores the original order.
fn live_chunks<T>(items: &[T], m: usize, mask: u32) -> Vec<&[T]> {
    let live = (0..m).filter(|&g| mask & (1 << g) == 0).count();
    let mut chunks = items.chunks(items.len().div_ceil(live.max(1)).max(1));
    (0..m)
        .map(|g| match mask & (1 << g) {
            0 => chunks.next().unwrap_or_default(),
            _ => &[],
        })
        .collect()
}

impl DistributedHashMap {
    /// The one host bracket: `items` travel up over PCIe as 8-byte words
    /// (`word(i, item)` for the `i`-th item of a GPU's chunk), the
    /// `device` cascade of this map runs on them, and — for an operation whose
    /// answers the host reads — 8 bytes per item travel back `down`.
    /// Dropped PCIe transfers are retried with backoff; a host link whose
    /// budget is exhausted quarantines its GPU and the transfer
    /// re-spreads over the survivors.
    fn host_bracket<T: Copy, O>(
        &self,
        items: &[T],
        word: impl Fn(usize, T) -> u64,
        down: bool,
        device: impl FnOnce(&Self, &[Vec<u64>], &mut CascadeReport) -> Result<O, OpError>,
    ) -> Result<(O, CascadeReport), OpError> {
        let m = self.num_gpus();
        let policy = self.retry_policy();
        let mut report = CascadeReport::new(items.len() as u64);
        let per_gpu = self.with_failover(&mut report, |plan, mask, report, tally| {
            let per_gpu: Vec<Vec<u64>> = live_chunks(items, m, mask)
                .into_iter()
                .map(|c| c.iter().enumerate().map(|(i, &x)| word(i, x)).collect())
                .collect();
            let bytes: Vec<u64> = per_gpu.iter().map(|c| c.len() as u64 * 8).collect();
            let up = h2d_time_faulted(self.topology(), &bytes, plan, &policy);
            let up = tally.settle(plan, &policy, up).map_err(Abort::Lost)?;
            report.push(CascadeStage::H2D, up.time, up.bytes);
            Ok(per_gpu)
        })?;
        let out = device(self, &per_gpu, &mut report)?;
        if down {
            self.with_failover(&mut report, |plan, mask, report, tally| {
                // the cascade may have quarantined GPUs mid-flight; their
                // answers physically came from survivors, so the dead
                // links carry no bytes
                let bytes: Vec<u64> = (0..m)
                    .map(|g| match mask & (1 << g) {
                        0 => per_gpu[g].len() as u64 * 8,
                        _ => 0,
                    })
                    .collect();
                let down = d2h_time_faulted(self.topology(), &bytes, plan, &policy);
                let down = tally.settle(plan, &policy, down).map_err(Abort::Lost)?;
                report.push(CascadeStage::D2H, down.time, down.bytes);
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
    pub fn insert_from_host(&self, pairs: &[(u32, u32)]) -> Result<CascadeReport, OpError> {
        let word = |_, (k, v)| pack(k, v);
        let ((), report) = self.host_bracket(pairs, word, false, Self::insert_words)?;
        Ok(report)
    }

    /// Host-sided retrieval with typed fault errors: query words up over
    /// PCIe (8 bytes each — the key with its per-GPU index packed in the
    /// low half), device cascade, packed key-value results down (8 bytes
    /// each). Returns the results in the original key order with a
    /// unified [`OpReport`].
    ///
    /// # Errors
    /// [`OpError`] once every failover avenue is exhausted.
    pub fn try_retrieve_from_host(&self, keys: &[u32]) -> Result<GetResponse, OpError> {
        let (values, report) = self.retrieve_from_host_impl(keys)?;
        Ok(GetResponse {
            values,
            report: OpReport::from_cascade(&report),
        })
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
    ) -> Result<(Vec<Option<u32>>, CascadeReport), OpError> {
        let word = |i, k| pack(k, i as u32);
        let (values, report) = self.host_bracket(keys, word, true, Self::query_words)?;
        // chunks are contiguous, so flattening restores input order
        Ok((values.into_iter().flatten().collect(), report))
    }

    /// Host-sided erase with typed fault errors: keys travel over PCIe
    /// under the same retry-and-quarantine contract as insertion, the
    /// device cascade runs, and per-key hit flags come back in the
    /// original input order.
    ///
    /// # Errors
    /// [`OpError`] once every failover avenue is exhausted.
    pub fn try_erase_from_host(&mut self, keys: &[u32]) -> Result<DeleteResponse, OpError> {
        let word = |i, k| pack(k, i as u32);
        let ((hits, erased), report) = self.host_bracket(keys, word, false, Self::erase_words)?;
        Ok(DeleteResponse {
            hits: hits.into_iter().flatten().collect(),
            erased,
            report: OpReport::from_cascade(&report),
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
        let d = node(4);
        let pairs: Vec<(u32, u32)> = (0..3000u32).map(|i| (i * 13 + 7, i)).collect();
        let rep = d.insert_from_host(&pairs).unwrap();
        assert!(rep.time_of(CascadeStage::H2D) > 0.0);
        assert_eq!(rep.stages[0].stage, CascadeStage::H2D);

        let keys: Vec<u32> = pairs.iter().map(|p| p.0).chain([999_999_999]).collect();
        let resp = d.try_retrieve_from_host(&keys).unwrap();
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
            h2d > 0.3 * rep.total_time(),
            "h2d {h2d:.3e} of {:.3e}",
            rep.total_time()
        );
    }

    #[test]
    fn chunking_covers_and_pads() {
        let c = live_chunks(&[1, 2, 3, 4, 5], 3, 0);
        assert_eq!(c, [&[1, 2][..], &[3, 4], &[5]]);
        let c = live_chunks::<i32>(&[], 2, 0);
        assert_eq!(c, [&[][..], &[]]);
        // quarantined GPUs get nothing; the survivors share in order
        let c = live_chunks(&[1, 2, 3, 4, 5], 4, 0b0101);
        assert_eq!(c, [&[][..], &[1, 2, 3], &[], &[4, 5]]);
    }
}
