//! Fig. 11's `Ins1`/`Ins2`/`Ins4` and `Ret1`/`Ret2`/`Ret4`: the host bracket
//! of [`crate::host_ops`] cut at a batch size and on a number of streams its
//! caller picks. [`OpReport::overlaps`] says how the batches overlapped, and
//! [`OpReport::modeled_time`] re-runs the overlay at paper scale.

use crate::distributed::DistributedHashMap;
use crate::host_ops::Cut;
use crate::service::{GetResponse, OpError, OpReport};

impl DistributedHashMap {
    /// Inserts `pairs` in batches of `batch_size` on `streams` overlapping
    /// streams (the paper's `Ins1`/`Ins2`/`Ins4`).
    ///
    /// # Errors
    /// As [`Self::insert_from_host`].
    ///
    /// # Panics
    /// Panics if `batch_size == 0` or `streams == 0`.
    pub fn insert_overlapped(
        &self,
        pairs: &[(u32, u32)],
        batch_size: usize,
        streams: usize,
    ) -> Result<OpReport, OpError> {
        self.insert_in_chunks(pairs, Cut::new(batch_size, streams))
    }

    /// Retrieves `keys` in batches of `batch_size` on `streams` overlapping
    /// streams (`Ret1`/`Ret2`/`Ret4`), answering in key order.
    ///
    /// # Errors
    /// As [`Self::try_retrieve_from_host`].
    ///
    /// # Panics
    /// Panics if `batch_size == 0` or `streams == 0`.
    pub fn retrieve_overlapped(
        &self,
        keys: &[u32],
        batch_size: usize,
        streams: usize,
    ) -> Result<GetResponse, OpError> {
        let (values, report) = self.retrieve_in_chunks(keys, Cut::new(batch_size, streams))?;
        Ok(GetResponse { values, report })
    }
}

#[cfg(test)]
mod tests {
    use crate::host_ops::resource::{NVLINK, PCIE_UP, VRAM};
    use crate::{Config, DistributedHashMap};
    use gpu_sim::Device;
    use std::sync::Arc;

    fn node(m: usize) -> DistributedHashMap {
        let devices = (0..m).map(|i| Arc::new(Device::with_words(i, 1 << 17))).collect();
        let topology = interconnect::Topology::p100_quad(m);
        DistributedHashMap::new(devices, 4096, Config::default(), topology).unwrap()
    }

    #[test]
    fn overlapped_insert_is_faster_and_correct() {
        let d = node(4);
        let pairs: Vec<(u32, u32)> = (0..8000u32).map(|i| (i * 19 + 11, i)).collect();
        let rep = d.insert_overlapped(&pairs, 1000, 4).unwrap();
        let overlap = &rep.overlaps[0];
        assert_eq!(overlap.chunks.len(), 8);
        assert!(rep.time < overlap.schedule(&rep.stages, 1.0, 1).makespan);
        assert!(overlap.saving(&rep.stages, 1.0) > 0.15);
        assert_eq!(d.len(), 8000);
    }

    #[test]
    fn overlapped_retrieve_preserves_order() {
        let d = node(2);
        let pairs: Vec<(u32, u32)> = (0..2000u32).map(|i| (i * 23 + 1, i + 7)).collect();
        d.insert_overlapped(&pairs, 500, 2).unwrap();
        let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
        let resp = d.retrieve_overlapped(&keys, 300, 4).unwrap();
        assert!(resp.values.iter().zip(&pairs).all(|(&v, p)| v == Some(p.1)));
        assert!(resp.report.overlaps[0].saving(&resp.report.stages, 1.0) > 0.0);
        assert!(resp.report.ops_per_sec() > 0.0);
    }

    #[test]
    fn single_thread_equals_sequential() {
        let pairs: Vec<(u32, u32)> = (0..1000u32).map(|i| (i * 29 + 5, i)).collect();
        let rep = node(2).insert_overlapped(&pairs, 250, 1).unwrap();
        let sequential = rep.overlaps[0].schedule(&rep.stages, 1.0, 1).makespan;
        assert_eq!(rep.time.to_bits(), sequential.to_bits());
        assert_eq!(rep.overlaps[0].saving(&rep.stages, 1.0), 0.0);
    }

    #[test]
    fn busy_times_cover_all_stages() {
        let pairs: Vec<(u32, u32)> = (0..3000u32).map(|i| (i * 31 + 9, i)).collect();
        let rep = node(4).insert_overlapped(&pairs, 1000, 2).unwrap();
        let busy = rep.overlaps[0].schedule(&rep.stages, 1.0, 2).busy;
        assert!([PCIE_UP, NVLINK, VRAM].iter().all(|&r| busy[r] > 0.0));
    }
}
