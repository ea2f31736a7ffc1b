//! One table: the array of slots of §IV-A (Fig. 1/3) together with
//! everything that defines how it is probed and how full it is.
//!
//! [`crate::GpuHashMap`] holds one [`Table`]; a resize migration holds
//! the table it fills, and the finalize moves that table into the map.
//! The three kernels are launched from here and nowhere else, and the
//! memory layout is matched on here and in the kernels only — the map,
//! the migration and every routed operation are written against slots,
//! pairs and counters.
//!
//! What one launch takes from the *map* rather than from the table is the
//! coalesced-group size: the slot sequence does not depend on it (§IV-A),
//! so it is one value of the map that both tables of a migration read.

use crate::config::{Config, Layout, Mutation};
use crate::delete::{erase_kernel, EraseOutcome};
use crate::entry::{live_pair, pack, value_of, EMPTY, TOMBSTONE};
use crate::errors::BuildError;
use crate::get_put::get_put_kernel;
use crate::history::HistoryRecorder;
use crate::insert::{insert_kernel, soa_key_of, InsertOutcome};
use crate::probing::Prober;
use crate::retrieve::retrieve_kernel;
use crate::stats::Occupancy;
use gpu_sim::{
    DevSlice, Device, GroupCtx, GroupSize, KernelStats, LaunchOptions, OutOfMemory, ScratchGuard,
};
use hashes::DoubleHash;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Query word for `key`: the key in the high 32 bits (the kernels' input
/// convention for retrieval and erase).
fn query_word(key: u32) -> u64 {
    u64::from(key) << 32
}

/// Query words for `keys`.
pub(crate) fn query_words(keys: impl IntoIterator<Item = u32>) -> Vec<u64> {
    keys.into_iter().map(query_word).collect()
}

/// Packed words for `pairs` (the insertion kernel's input convention).
pub(crate) fn pair_words(pairs: &[(u32, u32)]) -> Vec<u64> {
    pairs.iter().map(|&(k, v)| pack(k, v)).collect()
}

/// One key of a fused get + put launch.
enum Fused {
    /// Looked up only.
    Get(u32),
    /// Looked up and written: one upsert group.
    Upsert(u32, u32),
    /// Written only.
    Put(u32, u32),
}

/// The keys of `reads` and `puts` (each distinct and ascending) in one
/// ascending sequence, a key in both lists merged into one upsert.
fn fused_order<'a>(reads: &'a [u32], puts: &'a [(u32, u32)]) -> impl Iterator<Item = Fused> + 'a {
    let (mut reads, mut puts) = (reads.iter().peekable(), puts.iter().peekable());
    std::iter::from_fn(move || match (reads.peek(), puts.peek()) {
        (Some(&&k), Some(&&(pk, _))) if k < pk => reads.next().map(|_| Fused::Get(k)),
        (Some(&&k), Some(&&(pk, v))) if k == pk => {
            reads.next();
            puts.next().map(|_| Fused::Upsert(k, v))
        }
        (_, Some(_)) => puts.next().map(|&(k, v)| Fused::Put(k, v)),
        (Some(_), None) => reads.next().map(|&k| Fused::Get(k)),
        (None, None) => None,
    })
}

/// The slots of one hash table in device memory, the hash-family member
/// and probing knobs that address them, and the count of what they hold.
#[derive(Debug)]
pub(crate) struct Table {
    dev: Arc<Device>,
    /// `capacity` words (AOS) or `2·capacity` (SOA: keys, then values).
    data: DevSlice,
    /// Number of slots, a whole number of 32-slot spans.
    capacity: usize,
    layout: Layout,
    /// Seed of the hash-family member `prober` walks over `capacity`.
    seed: u32,
    prober: Prober,
    p_max: u32,
    mutation: Option<Mutation>,
    /// Working set, schedule and dispatch of every launch on this table.
    opts: LaunchOptions,
    /// Live (non-tombstone) entries.
    occupied: AtomicU64,
    /// Tombstoned slots: they lengthen probe chains until an insertion
    /// reclaims them or the table is rebuilt or compacted away.
    tombstones: AtomicU64,
}

impl Table {
    /// Allocates `capacity` slots (rounded up to whole 32-slot spans, so
    /// aligned spans survive the modulo — see [`Prober::span_base`]) on
    /// `dev`, filled with the EMPTY sentinel, addressed by hash member
    /// `seed` under `cfg`'s probing scheme.
    pub(crate) fn alloc(
        dev: Arc<Device>,
        capacity: usize,
        cfg: &Config,
        seed: u32,
    ) -> Result<Self, BuildError> {
        if capacity == 0 {
            return Err(BuildError::ZeroCapacity);
        }
        let capacity = capacity.div_ceil(32) * 32;
        let data = dev.alloc(match cfg.layout {
            Layout::Aos => capacity,
            Layout::Soa => 2 * capacity,
        })?;
        // MUTATION DOUBLE (`Mutation::SkipFill`): skip the EMPTY-sentinel
        // fill — the forgotten-cudaMemset bug initcheck exists to catch.
        if cfg.mutation != Some(Mutation::SkipFill) {
            dev.mem().fill(data, EMPTY);
        }
        let working_set = cfg.modeled_capacity_bytes.unwrap_or_else(|| data.bytes());
        Ok(Self {
            dev,
            data,
            capacity,
            layout: cfg.layout,
            seed,
            prober: Prober::new(DoubleHash::from_seed(seed), cfg.probing, capacity),
            p_max: cfg.p_max,
            mutation: cfg.mutation,
            opts: LaunchOptions::default()
                .with_working_set(working_set)
                .with_schedule(cfg.schedule)
                .with_per_op_dispatch(cfg.per_op_dispatch),
            occupied: AtomicU64::new(0),
            tombstones: AtomicU64::new(0),
        })
    }

    /// The device the slots live on.
    pub(crate) fn dev(&self) -> &Arc<Device> {
        &self.dev
    }

    /// Number of slots.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Memory layout of the slots.
    pub(crate) fn layout(&self) -> Layout {
        self.layout
    }

    /// Seed of the hash-family member in use.
    pub(crate) fn seed(&self) -> u32 {
        self.seed
    }

    /// The probing sequence over this table's slots.
    pub(crate) fn prober(&self) -> &Prober {
        &self.prober
    }

    /// Outer probing attempts before an insertion gives up.
    pub(crate) fn p_max(&self) -> u32 {
        self.p_max
    }

    /// The mutation double armed on this table, if any.
    pub(crate) fn mutation(&self) -> Option<Mutation> {
        self.mutation
    }

    /// Bytes billed as the CAS working set of this table's launches.
    pub(crate) fn working_set(&self) -> u64 {
        self.opts.modeled_working_set.unwrap_or_else(|| self.data.bytes())
    }

    /// Live entries, tombstones and slots (exact after quiescence).
    pub(crate) fn occupancy(&self) -> Occupancy {
        Occupancy {
            live: self.occupied.load(Relaxed),
            tombstones: self.tombstones.load(Relaxed),
            capacity: self.capacity as u64,
        }
    }

    // ---- storage, as the kernels address it -------------------------------

    /// The packed-pair array (AOS) or the key array (SOA).
    pub(crate) fn keys(&self) -> DevSlice {
        self.data.sub(0, self.capacity)
    }

    /// The value array (SOA layout only).
    pub(crate) fn soa_values(&self) -> DevSlice {
        debug_assert_eq!(self.layout, Layout::Soa);
        self.data.sub(self.capacity, self.capacity)
    }

    /// Launches `kernel` over `n` groups of `g` lanes with this table's
    /// launch options.
    pub(crate) fn launch(
        &self,
        name: &'static str,
        n: usize,
        g: GroupSize,
        kernel: impl Fn(&GroupCtx) + Sync,
    ) -> KernelStats {
        self.dev.launch(name, n, g, self.opts, kernel)
    }

    // ---- the three operations, over device-resident words -----------------

    /// Inserts the `n` packed pairs of `input`, counting claims and
    /// reclaimed tombstones. Pairs that exhausted probing are reported
    /// in the outcome, not as an error.
    pub(crate) fn insert(
        &self,
        g: GroupSize,
        input: DevSlice,
        n: usize,
        recorder: Option<&HistoryRecorder>,
    ) -> InsertOutcome {
        let outcome = insert_kernel(self, g, input, n, recorder);
        self.note_inserted(&outcome);
        outcome
    }

    fn note_inserted(&self, outcome: &InsertOutcome) {
        self.occupied.fetch_add(outcome.new_slots, Relaxed);
        // claims over TOMBSTONE words shorten the pending-rebuild debt
        self.tombstones.fetch_sub(outcome.reclaimed, Relaxed);
    }

    /// Answers the `n` query words of `input` into `out`: `pack(key,
    /// value)` on a hit, `EMPTY` on a miss.
    pub(crate) fn retrieve(
        &self,
        g: GroupSize,
        input: DevSlice,
        out: DevSlice,
        n: usize,
        recorder: Option<&HistoryRecorder>,
    ) -> KernelStats {
        retrieve_kernel(self, g, input, out, n, recorder)
    }

    /// One launch of the fused kernel ([`crate::get_put`]) over the words
    /// of `input`: the first `gets` are looked up, the rest inserted and
    /// counted, and the first `out.len()` — the gets and, behind them,
    /// the upserts — answered into `out`.
    pub(crate) fn get_put(
        &self,
        g: GroupSize,
        input: DevSlice,
        out: DevSlice,
        gets: usize,
        recorder: Option<&HistoryRecorder>,
    ) -> InsertOutcome {
        let outcome = get_put_kernel(self, g, input, out, gets, recorder);
        self.note_inserted(&outcome);
        outcome
    }

    /// Tombstones the `n` keys of `input`, counting them.
    pub(crate) fn erase(
        &self,
        g: GroupSize,
        input: DevSlice,
        n: usize,
        recorder: Option<&HistoryRecorder>,
    ) -> EraseOutcome {
        let outcome = erase_kernel(self, g, input, n, recorder);
        self.note_tombstoned(outcome.erased);
        outcome
    }

    fn note_tombstoned(&self, slots: u64) {
        self.occupied.fetch_sub(slots, Relaxed);
        self.tombstones.fetch_add(slots, Relaxed);
    }

    // ---- the same, over host-resident pairs and keys ----------------------

    /// Uploads each of `inputs` into its own region of one scratch
    /// allocation, with `out` result words behind them. One allocation
    /// per host-staged operation, however many launches it takes: it
    /// fails before the first launch or not at all. PCIe time is *not*
    /// billed here — the `host_ops` cascades do that.
    pub(crate) fn stage<const N: usize>(
        &self,
        inputs: [&[u64]; N],
        out: usize,
    ) -> Result<(ScratchGuard<'_>, [DevSlice; N], DevSlice), OutOfMemory> {
        let words = inputs.iter().map(|w| w.len()).sum::<usize>() + out;
        let scratch = self.dev.alloc_scratch(words.max(1))?;
        let mut at = 0;
        let regions = inputs.map(|words| {
            let region = scratch.slice().sub(at, words.len());
            self.dev.mem().h2d(region, words);
            at += words.len();
            region
        });
        let out = scratch.slice().sub(at, out);
        Ok((scratch, regions, out))
    }

    /// [`Table::insert`] of host-resident pairs.
    pub(crate) fn insert_pairs(
        &self,
        g: GroupSize,
        pairs: &[(u32, u32)],
        recorder: Option<&HistoryRecorder>,
    ) -> Result<InsertOutcome, OutOfMemory> {
        let (_scratch, [input], _) = self.stage([&pair_words(pairs)], 0)?;
        Ok(self.insert(g, input, pairs.len(), recorder))
    }

    /// [`Table::retrieve`] of host-resident keys; returns the result
    /// words in key order.
    pub(crate) fn retrieve_keys(
        &self,
        g: GroupSize,
        keys: &[u32],
        recorder: Option<&HistoryRecorder>,
    ) -> Result<(Vec<u64>, KernelStats), OutOfMemory> {
        let queries = query_words(keys.iter().copied());
        let (_scratch, [input], out) = self.stage([&queries], keys.len())?;
        let stats = self.retrieve(g, input, out, keys.len(), recorder);
        Ok((self.dev.mem().d2h(out), stats))
    }

    /// Looks up `reads` and applies `puts` in **one** launch of the
    /// fused kernel ([`crate::get_put`]): both lists hold distinct keys
    /// in ascending order, and a key in both runs once, as an upsert.
    /// Returns the value each key of `reads` held before the launch, in
    /// `reads` order, and the insertion outcome, whose stats cover the
    /// whole launch.
    pub(crate) fn get_put_pairs(
        &self,
        g: GroupSize,
        reads: &[u32],
        puts: &[(u32, u32)],
        recorder: Option<&HistoryRecorder>,
    ) -> Result<(Vec<Option<u32>>, InsertOutcome), OutOfMemory> {
        let upserts = fused_order(reads, puts)
            .filter(|k| matches!(k, Fused::Upsert(..)))
            .count();
        let gets = reads.len() - upserts;
        // the kernel's three sections: get-only keys, upserts, put-only keys
        let mut words = vec![0; gets + puts.len()];
        let (mut get_at, mut upsert_at, mut put_at) = (0, gets, reads.len());
        for key in fused_order(reads, puts) {
            let (at, word) = match key {
                Fused::Get(k) => (&mut get_at, query_word(k)),
                Fused::Upsert(k, v) => (&mut upsert_at, pack(k, v)),
                Fused::Put(k, v) => (&mut put_at, pack(k, v)),
            };
            words[*at] = word;
            *at += 1;
        }
        let (_scratch, [input], out) = self.stage([&words], reads.len())?;
        let outcome = self.get_put(g, input, out, gets, recorder);
        // answers come back section by section; hand them out key by key
        let found = self.dev.mem().d2h(out);
        let (mut get_at, mut upsert_at) = (0, gets);
        let mut values = Vec::with_capacity(reads.len());
        for key in fused_order(reads, puts) {
            let at = match key {
                Fused::Get(_) => &mut get_at,
                Fused::Upsert(..) => &mut upsert_at,
                Fused::Put(..) => continue,
            };
            let word = found[*at];
            *at += 1;
            values.push((word != EMPTY).then(|| value_of(word)));
        }
        Ok((values, outcome))
    }

    /// [`Table::erase`] of host-resident keys.
    pub(crate) fn erase_keys(
        &self,
        g: GroupSize,
        keys: &[u32],
        recorder: Option<&HistoryRecorder>,
    ) -> Result<EraseOutcome, OutOfMemory> {
        let (_scratch, [input], _) = self.stage([&query_words(keys.iter().copied())], 0)?;
        Ok(self.erase(g, input, keys.len(), recorder))
    }

    // ---- whole-slot access from the host (uncounted) ----------------------

    /// Host image of the slots in `range`, one packed word per slot in
    /// either layout: `pack(key, value)` for a live slot, the slot's
    /// sentinel otherwise.
    pub(crate) fn scan(&self, range: Range<usize>) -> Vec<u64> {
        let (start, len) = (range.start, range.len());
        let keys = self.dev.mem().d2h(self.keys().sub(start, len));
        match self.layout {
            Layout::Aos => keys,
            Layout::Soa => {
                let values = self.dev.mem().d2h(self.soa_values().sub(start, len));
                keys.iter()
                    .zip(&values)
                    .map(|(&k, &v)| soa_key_of(k).map_or(k, |key| pack(key, v as u32)))
                    .collect()
            }
        }
    }

    /// Every live `(key, value)` pair, in slot order.
    pub(crate) fn live_pairs(&self) -> Vec<(u32, u32)> {
        self.scan(0..self.capacity)
            .into_iter()
            .filter_map(live_pair)
            .collect()
    }

    /// Bills reading `slots` slots as one streaming launch of whole
    /// warps — what a [`Table::scan`] of them would cost on the device.
    pub(crate) fn bill_scan(&self, name: &'static str, slots: usize) -> KernelStats {
        self.dev.launch(
            name,
            slots.div_ceil(32),
            GroupSize::WARP,
            LaunchOptions::default(),
            |ctx| ctx.bill_stream_bytes(32 * 8),
        )
    }

    /// Tombstones the live slots `slots` from the host, counting them
    /// (the value word of an SOA slot goes back to its sentinel so a
    /// reclaiming insert re-enters the publication protocol).
    pub(crate) fn tombstone(&self, slots: impl IntoIterator<Item = usize>) {
        let mem = self.dev.mem();
        let mut n = 0;
        for slot in slots {
            mem.h2d(self.keys().sub(slot, 1), &[TOMBSTONE]);
            if self.layout == Layout::Soa {
                mem.h2d(self.soa_values().sub(slot, 1), &[EMPTY]);
            }
            n += 1;
        }
        self.note_tombstoned(n);
    }

    /// Invalidates the table for "a subsequent reconstruction with a
    /// distinct hash function" (§II): every slot EMPTY, nothing counted,
    /// the next member of the hash family.
    pub(crate) fn clear_with_next_member(&mut self) {
        self.seed = self.seed.wrapping_add(1);
        self.prober = self.prober.with_member(DoubleHash::from_seed(self.seed));
        self.dev.mem().fill(self.data, EMPTY);
        *self.occupied.get_mut() = 0;
        *self.tombstones.get_mut() = 0;
    }
}
