//! CUDPP-style cuckoo hashing (Alcantara et al., refs. \[2\]/\[7\]).
//!
//! The single-pass "GPU cuckoo hash": one *thread* (`|g| = 1`) inserts one
//! pair using fourth-degree cuckoo hashing on a single table. An insertion
//! `atomicExch`es its word into the first candidate slot; if the displaced
//! word is live, the thread adopts it and re-inserts it at *its* next
//! candidate position, bounding the chain at `max_iter ≈ 7·log₂ n` before
//! spilling to a small linearly-probed stash. Every probe is an
//! uncoalesced single-word access — one full 32-byte transaction for 8
//! useful bytes — which is precisely the traffic disadvantage WarpDrive's
//! coalesced windows remove.
//!
//! Like CUDPP, duplicate keys are **not** supported (two copies may land
//! in different candidate slots); the paper notes this when discussing the
//! Zipf experiment.

use gpu_sim::{DevSlice, Device, GroupCtx, GroupSize, KernelStats, LaunchOptions};
use hashes::{FastMod32, HashFn32, Hasher32, Translated};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use warpdrive::{key_of, pack, value_of, EMPTY};

/// Number of hash functions (fourth-degree cuckoo, as in CUDPP).
pub const DEGREE: usize = 4;

/// Maximum supported load factor (the paper: "CUDPP is constrained to a
/// maximum load of 97%").
pub const MAX_LOAD: f64 = 0.97;

/// Outcome of a cuckoo bulk insert.
#[derive(Debug, Clone)]
pub struct CuckooInsertOutcome {
    /// Kernel stats.
    pub stats: KernelStats,
    /// Pairs that exceeded the eviction-chain bound *and* found no stash
    /// slot (the table must be rebuilt with new functions).
    pub failed: u64,
    /// Pairs that landed in the stash.
    pub stashed: u64,
}

/// A GPU cuckoo hash table with stash.
#[derive(Debug)]
pub struct CuckooHash {
    dev: Arc<Device>,
    table: DevSlice,
    stash: DevSlice,
    capacity: usize,
    /// Division-free `% capacity` for the per-attempt location lookup.
    fm: FastMod32,
    hashes: [Translated; DEGREE],
    max_iter: u32,
    occupied: AtomicU64,
}

/// Stash size (CUDPP uses a small constant-size stash).
const STASH_SLOTS: usize = 101;

impl CuckooHash {
    /// Allocates a cuckoo table of `capacity` slots plus the stash.
    ///
    /// # Errors
    /// Propagates device OOM.
    pub fn new(dev: Arc<Device>, capacity: usize, seed: u32) -> Result<Self, gpu_sim::OutOfMemory> {
        assert!(capacity > 0);
        let table = dev.alloc(capacity)?;
        let stash = dev.alloc(STASH_SLOTS)?;
        dev.mem().fill(table, EMPTY);
        dev.mem().fill(stash, EMPTY);
        let hashes = std::array::from_fn(|i| Translated {
            base: if i % 2 == 0 {
                HashFn32::Murmur
            } else {
                HashFn32::Mueller
            },
            offset: seed
                .wrapping_add(i as u32)
                .wrapping_mul(0x9e37_79b9)
                .wrapping_add(i as u32),
        });
        let max_iter = 7 * (usize::BITS - capacity.leading_zeros()).max(4);
        Ok(Self {
            dev,
            table,
            stash,
            capacity,
            fm: FastMod32::new(capacity as u64),
            hashes,
            max_iter,
            occupied: AtomicU64::new(0),
        })
    }

    /// Slots in the main table.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
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
    fn slot(&self, which: usize, key: u32) -> usize {
        self.fm.rem(u64::from(self.hashes[which].hash(key))) as usize
    }

    /// Which hash function placed `key` at `pos`, if any.
    #[inline]
    fn placed_by(&self, key: u32, pos: usize) -> Option<usize> {
        (0..DEGREE).find(|&i| self.slot(i, key) == pos)
    }

    /// Bulk insert (device-resident packed pairs are staged internally).
    ///
    /// # Panics
    /// Panics if a key equals the reserved `u32::MAX`.
    pub fn insert_pairs(&self, pairs: &[(u32, u32)]) -> CuckooInsertOutcome {
        let words: Vec<u64> = pairs.iter().map(|&(k, v)| pack(k, v)).collect();
        let staging = self
            .dev
            .alloc_scratch(words.len().max(1))
            .expect("cuckoo staging");
        let input = staging.slice().sub(0, words.len());
        self.dev.mem().h2d(input, &words);

        let failed = AtomicU64::new(0);
        let stashed = AtomicU64::new(0);
        let inserted = AtomicU64::new(0);
        let stats = self.dev.launch(
            "cuckoo_insert",
            words.len(),
            GroupSize::new(1),
            LaunchOptions::default().with_working_set(self.table.bytes()),
            |ctx: &GroupCtx| {
                let mut word = ctx.read_stream(input, ctx.group_id());
                // start at h1; on eviction, continue from the evicted
                // key's next candidate
                let mut pos = self.slot(0, key_of(word));
                for _ in 0..self.max_iter {
                    let old = ctx.exchange(self.table, pos, word);
                    if old == EMPTY {
                        inserted.fetch_add(1, Relaxed);
                        return;
                    }
                    // adopt the evicted entry
                    word = old;
                    let k = key_of(word);
                    let came_from = self.placed_by(k, pos).unwrap_or(DEGREE - 1);
                    pos = self.slot((came_from + 1) % DEGREE, k);
                }
                // chain bound exceeded: spill to the stash
                for s in 0..STASH_SLOTS {
                    let idx = (key_of(word) as usize + s) % STASH_SLOTS;
                    let cur = ctx.read(self.stash, idx);
                    if cur == EMPTY && ctx.cas(self.stash, idx, EMPTY, word).is_ok() {
                        stashed.fetch_add(1, Relaxed);
                        inserted.fetch_add(1, Relaxed);
                        return;
                    }
                }
                failed.fetch_add(1, Relaxed);
            },
        );
        self.occupied.fetch_add(inserted.load(Relaxed), Relaxed);
        CuckooInsertOutcome {
            stats,
            failed: failed.load(Relaxed),
            stashed: stashed.load(Relaxed),
        }
    }

    /// Bulk retrieval with a typed [`warpdrive::OpReport`]: probes the
    /// ≤ 4 candidate slots, then the stash.
    ///
    /// # Errors
    /// [`warpdrive::OpError::OutOfMemory`] if the query batch cannot be
    /// staged.
    pub fn try_retrieve(
        &self,
        keys: &[u32],
    ) -> Result<warpdrive::GetResponse, warpdrive::OpError> {
        let (values, stats) = self.retrieve_impl(keys)?;
        Ok(warpdrive::GetResponse {
            values,
            report: warpdrive::OpReport::from_kernel(&stats, keys.len() as u64),
        })
    }

    fn retrieve_impl(
        &self,
        keys: &[u32],
    ) -> Result<(Vec<Option<u32>>, KernelStats), warpdrive::OpError> {
        let words: Vec<u64> = keys.iter().map(|&k| u64::from(k) << 32).collect();
        let n = words.len();
        let staging = self.dev.alloc_scratch(2 * n.max(1))?;
        let input = staging.slice().sub(0, n);
        let out = staging.slice().sub(n.max(1), n);
        self.dev.mem().h2d(input, &words);

        let any_stashed = self.dev.mem().d2h(self.stash).iter().any(|&w| w != EMPTY);
        let stats = self.dev.launch(
            "cuckoo_retrieve",
            n,
            GroupSize::new(1),
            LaunchOptions::default().with_working_set(self.table.bytes()),
            |ctx: &GroupCtx| {
                let key = key_of(ctx.read_stream(input, ctx.group_id()));
                for i in 0..DEGREE {
                    let w = ctx.read(self.table, self.slot(i, key));
                    if key_of(w) == key {
                        ctx.write_stream(out, ctx.group_id(), w);
                        return;
                    }
                }
                if any_stashed {
                    for s in 0..STASH_SLOTS {
                        let idx = (key as usize + s) % STASH_SLOTS;
                        let w = ctx.read(self.stash, idx);
                        if key_of(w) == key {
                            ctx.write_stream(out, ctx.group_id(), w);
                            return;
                        }
                        if w == EMPTY {
                            break;
                        }
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
        Ok((results, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(capacity: usize) -> CuckooHash {
        let dev = Arc::new(Device::with_words(0, capacity * 4 + 512));
        CuckooHash::new(dev, capacity, 1).unwrap()
    }

    #[test]
    fn insert_and_retrieve_round_trip() {
        let t = table(1024);
        let pairs: Vec<(u32, u32)> = (0..800u32).map(|i| (i * 3 + 1, i)).collect();
        let out = t.insert_pairs(&pairs);
        assert_eq!(out.failed, 0, "failures at load 0.78");
        assert_eq!(t.len(), 800);
        let keys: Vec<u32> = pairs.iter().map(|p| p.0).chain([999_999]).collect();
        let res = t.try_retrieve(&keys).unwrap().values;
        for (i, p) in pairs.iter().enumerate() {
            assert_eq!(res[i], Some(p.1), "key {}", p.0);
        }
        assert_eq!(res[800], None);
    }

    #[test]
    fn eviction_chains_grow_with_load() {
        // steps per insert (chain length) must grow with load factor
        let low = table(4096);
        let lo_pairs: Vec<(u32, u32)> = (0..1638u32).map(|i| (i + 1, i)).collect(); // 0.4
        let lo = low.insert_pairs(&lo_pairs);
        let hi_t = table(4096);
        let hi_pairs: Vec<(u32, u32)> = (0..3890u32).map(|i| (i + 1, i)).collect(); // 0.95
        let hi = hi_t.insert_pairs(&hi_pairs);
        let lo_steps = lo.stats.counters.steps_per_group();
        let hi_steps = hi.stats.counters.steps_per_group();
        assert!(
            hi_steps > lo_steps * 1.5,
            "chains: lo {lo_steps:.2}, hi {hi_steps:.2}"
        );
    }

    #[test]
    fn stash_catches_hard_cases() {
        // tiny table at extreme load forces stash usage
        let t = table(64);
        let pairs: Vec<(u32, u32)> = (0..62u32).map(|i| (i + 1, i)).collect();
        let out = t.insert_pairs(&pairs);
        // everything must land somewhere (stash or table)
        assert_eq!(out.failed + t.len(), 62);
        let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
        let res = t.try_retrieve(&keys).unwrap().values;
        let found = res.iter().filter(|r| r.is_some()).count() as u64;
        assert_eq!(found, t.len());
    }

    #[test]
    fn retrieval_costs_at_most_degree_plus_stash_probes() {
        let t = table(512);
        let pairs: Vec<(u32, u32)> = (0..400u32).map(|i| (i + 1, i)).collect();
        t.insert_pairs(&pairs);
        let keys: Vec<u32> = (1..=400).collect();
        let report = t.try_retrieve(&keys).unwrap().report;
        let per_query = report.counters.transactions as f64 / 400.0;
        assert!(
            (1.0..=4.0 + 0.01).contains(&per_query),
            "avg probes {per_query}"
        );
    }
}
