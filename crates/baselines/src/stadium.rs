//! Stadium hashing (Khorasani et al., ref. \[9\]).
//!
//! An auxiliary **ticket board** — one availability bit per table slot,
//! packed 64 per word — gates accesses to the hash table: a thread probes
//! the (cheap, cache-resident) ticket board first and touches the big
//! table only when the bit says the slot is available (insert) or occupied
//! (query). Double hashing drives the probe sequence.
//!
//! Two placements of the main table are supported, as in the paper:
//!
//! * **in-core** — table in VRAM; Stadium runs ≈1.04–1.19× faster than
//!   GPU cuckoo at α = 0.8 on the authors' hardware;
//! * **out-of-core** — only the ticket board stays in VRAM, the table
//!   lives in host memory behind PCIe; throughput collapses to
//!   ≈100 M ops/s. This mode is WarpDrive's foil: §III argues multi-GPU
//!   distribution beats out-of-core host tables.
//!
//! Out-of-core table traffic is billed against PCIe bandwidth on top of
//! the kernel's simulated time.

use gpu_sim::{DevSlice, Device, GroupCtx, GroupSize, KernelStats, LaunchOptions};
use hashes::{DoubleHash, FastMod32, HashFamily};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use warpdrive::{key_of, pack, value_of, EMPTY};

/// Where the main table lives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TablePlacement {
    /// Table in video memory (fast).
    InCore,
    /// Table in host memory behind PCIe (the out-of-core mode).
    OutOfCore {
        /// Effective PCIe bandwidth in bytes/s for table traffic.
        pcie_bandwidth: f64,
    },
}

/// Result of a Stadium bulk operation, including out-of-core PCIe billing.
#[derive(Debug, Clone)]
pub struct StadiumStats {
    /// On-device kernel stats (ticket board + in-core table traffic).
    pub kernel: KernelStats,
    /// Bytes of main-table traffic that crossed PCIe (0 when in-core).
    pub pcie_bytes: u64,
    /// Total simulated time: kernel time + PCIe table traffic.
    pub sim_time: f64,
    /// Pairs that exhausted the probe bound (inserts only).
    pub failed: u64,
}

/// A Stadium hash table.
#[derive(Debug)]
pub struct StadiumHash {
    dev: Arc<Device>,
    tickets: DevSlice,
    table: DevSlice,
    /// Division-free `% capacity` for the per-attempt probe slot (also
    /// carries the capacity itself via [`FastMod32::divisor`]).
    fm: FastMod32,
    placement: TablePlacement,
    dh: DoubleHash,
    max_probe: u32,
    occupied: AtomicU64,
}

impl StadiumHash {
    /// Allocates a table of `capacity` slots plus its ticket board
    /// (`capacity / 64` words).
    ///
    /// # Errors
    /// Propagates device OOM (out-of-core mode still allocates the table
    /// words in the simulation pool, but bills their traffic over PCIe).
    pub fn new(
        dev: Arc<Device>,
        capacity: usize,
        placement: TablePlacement,
        seed: u32,
    ) -> Result<Self, gpu_sim::OutOfMemory> {
        assert!(capacity > 0);
        let tickets = dev.alloc(capacity.div_ceil(64))?;
        let table = dev.alloc(capacity)?;
        dev.mem().fill(tickets, 0); // bit set = slot claimed
        dev.mem().fill(table, EMPTY);
        Ok(Self {
            dev,
            tickets,
            table,
            fm: FastMod32::new(capacity as u64),
            placement,
            dh: DoubleHash::from_seed(seed ^ 0x57ad_1030),
            max_probe: (capacity as u32).min(4096),
            occupied: AtomicU64::new(0),
        })
    }

    /// Live entries.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.occupied.load(Relaxed)
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn probe_slot(&self, key: u32, attempt: u32) -> usize {
        self.fm.rem(u64::from(self.dh.member(attempt, key))) as usize
    }

    fn finish(&self, kernel: KernelStats, table_txns: u64, failed: u64) -> StadiumStats {
        let (pcie_bytes, extra) = match self.placement {
            TablePlacement::InCore => (0, 0.0),
            TablePlacement::OutOfCore { pcie_bandwidth } => {
                // each table transaction moves a 32-byte sector over PCIe
                let bytes = table_txns * 32;
                (bytes, bytes as f64 / pcie_bandwidth)
            }
        };
        StadiumStats {
            sim_time: kernel.sim_time + extra,
            kernel,
            pcie_bytes,
            failed,
        }
    }

    /// Bulk insert: claim a ticket bit, then write the slot (no table CAS
    /// needed — the ticket serializes claims).
    pub fn insert_pairs(&self, pairs: &[(u32, u32)]) -> StadiumStats {
        let words: Vec<u64> = pairs.iter().map(|&(k, v)| pack(k, v)).collect();
        let staging = self
            .dev
            .alloc_scratch(words.len().max(1))
            .expect("stadium staging");
        let input = staging.slice().sub(0, words.len());
        self.dev.mem().h2d(input, &words);

        let failed = AtomicU64::new(0);
        let inserted = AtomicU64::new(0);
        let table_txns = AtomicU64::new(0);
        let stats = self.dev.launch(
            "stadium_insert",
            words.len(),
            GroupSize::new(1),
            LaunchOptions::default().with_working_set(self.tickets.bytes()),
            |ctx: &GroupCtx| {
                let word = ctx.read_stream(input, ctx.group_id());
                let key = key_of(word);
                for a in 0..self.max_probe {
                    let slot = self.probe_slot(key, a);
                    let (tw, tb) = (slot / 64, slot % 64);
                    let bits = ctx.read(self.tickets, tw);
                    if bits & (1 << tb) != 0 {
                        continue; // ticket says occupied: rehash
                    }
                    let prev = ctx.atomic_or(self.tickets, tw, 1 << tb);
                    if prev & (1 << tb) != 0 {
                        continue; // lost the claim race
                    }
                    // we own the slot: plain store to the big table
                    ctx.write(self.table, slot, word);
                    table_txns.fetch_add(1, Relaxed);
                    inserted.fetch_add(1, Relaxed);
                    return;
                }
                failed.fetch_add(1, Relaxed);
            },
        );
        self.occupied.fetch_add(inserted.load(Relaxed), Relaxed);
        self.finish(stats, table_txns.load(Relaxed), failed.load(Relaxed))
    }

    /// Bulk retrieval with a typed [`warpdrive::OpReport`]: the ticket
    /// board screens absent slots; the table is touched only for occupied
    /// slots on the probe path. The report's `time` is the PCIe-inclusive
    /// modeled time ([`StadiumStats::sim_time`]).
    ///
    /// # Errors
    /// [`warpdrive::OpError::OutOfMemory`] if the query batch cannot be
    /// staged.
    pub fn try_retrieve(
        &self,
        keys: &[u32],
    ) -> Result<warpdrive::GetResponse, warpdrive::OpError> {
        let (values, st) = self.retrieve_impl(keys)?;
        let mut report = warpdrive::OpReport::from_kernel(&st.kernel, keys.len() as u64);
        report.time = st.sim_time;
        Ok(warpdrive::GetResponse { values, report })
    }

    fn retrieve_impl(
        &self,
        keys: &[u32],
    ) -> Result<(Vec<Option<u32>>, StadiumStats), warpdrive::OpError> {
        let n = keys.len();
        let words: Vec<u64> = keys.iter().map(|&k| u64::from(k) << 32).collect();
        let staging = self.dev.alloc_scratch(2 * n.max(1))?;
        let input = staging.slice().sub(0, n);
        let out = staging.slice().sub(n.max(1), n);
        self.dev.mem().h2d(input, &words);

        let table_txns = AtomicU64::new(0);
        let stats = self.dev.launch(
            "stadium_retrieve",
            n,
            GroupSize::new(1),
            LaunchOptions::default().with_working_set(self.tickets.bytes()),
            |ctx: &GroupCtx| {
                let key = key_of(ctx.read_stream(input, ctx.group_id()));
                for a in 0..self.max_probe {
                    let slot = self.probe_slot(key, a);
                    let (tw, tb) = (slot / 64, slot % 64);
                    let bits = ctx.read(self.tickets, tw);
                    if bits & (1 << tb) == 0 {
                        break; // never claimed: key absent
                    }
                    let w = ctx.read(self.table, slot);
                    table_txns.fetch_add(1, Relaxed);
                    if key_of(w) == key {
                        ctx.write_stream(out, ctx.group_id(), w);
                        return;
                    }
                }
                ctx.write_stream(out, ctx.group_id(), EMPTY);
            },
        );
        let results = self
            .dev
            .mem()
            .d2h(out)
            .into_iter()
            .map(|w| (w != EMPTY).then(|| value_of(w)))
            .collect();
        Ok((results, self.finish(stats, table_txns.load(Relaxed), 0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(capacity: usize, placement: TablePlacement) -> StadiumHash {
        let dev = Arc::new(Device::with_words(0, capacity * 4 + 512));
        StadiumHash::new(dev, capacity, placement, 7).unwrap()
    }

    #[test]
    fn in_core_round_trip() {
        let t = table(1024, TablePlacement::InCore);
        let pairs: Vec<(u32, u32)> = (0..819u32).map(|i| (i * 5 + 2, i)).collect(); // 0.8
        let out = t.insert_pairs(&pairs);
        assert_eq!(out.failed, 0);
        assert_eq!(out.pcie_bytes, 0);
        let keys: Vec<u32> = pairs.iter().map(|p| p.0).chain([404]).collect();
        let res = t.try_retrieve(&keys).unwrap().values;
        for (i, p) in pairs.iter().enumerate() {
            assert_eq!(res[i], Some(p.1), "key {}", p.0);
        }
        assert_eq!(res[819], None);
    }

    #[test]
    fn out_of_core_pays_pcie() {
        let pairs: Vec<(u32, u32)> = (0..800u32).map(|i| (i * 3 + 1, i)).collect();
        let incore = table(1024, TablePlacement::InCore);
        let i = incore.insert_pairs(&pairs);
        let oo = table(
            1024,
            TablePlacement::OutOfCore {
                pcie_bandwidth: 11.0e9,
            },
        );
        let o = oo.insert_pairs(&pairs);
        assert_eq!(o.failed, 0);
        assert!(o.pcie_bytes >= 800 * 32);
        assert!(
            o.sim_time > i.sim_time,
            "out-of-core {:.3e} vs in-core {:.3e}",
            o.sim_time,
            i.sim_time
        );
    }

    #[test]
    fn ticket_board_screens_misses_cheaply() {
        let t = table(4096, TablePlacement::InCore);
        let pairs: Vec<(u32, u32)> = (0..1000u32).map(|i| (i + 1, i)).collect();
        t.insert_pairs(&pairs);
        // query only absent keys: table reads should be rare relative to
        // probes because tickets answer most of them
        let miss_keys: Vec<u32> = (1_000_000..1_002_000).collect();
        let resp = t.try_retrieve(&miss_keys).unwrap();
        assert!(resp.values.iter().all(Option::is_none));
        assert!(resp.report.counters.transactions > 0);
    }

    #[test]
    fn ticket_claims_are_exclusive() {
        // duplicates are two independent claims (Stadium does not merge
        // keys) — both succeed in distinct slots
        let t = table(128, TablePlacement::InCore);
        let out = t.insert_pairs(&[(7, 1), (7, 2)]);
        assert_eq!(out.failed, 0);
        assert_eq!(t.len(), 2);
        // retrieval returns the first on the probe path
        let res = t.try_retrieve(&[7]).unwrap().values;
        assert!(res[0].is_some());
    }
}
