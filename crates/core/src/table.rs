//! One table: the array of slots of §IV-A (Fig. 1/3) together with
//! everything that defines how it is probed and how full it is.
//!
//! [`crate::GpuHashMap`] holds one [`Table`]; a resize migration holds
//! the table it fills, and the finalize moves that table into the map.
//! Its two kernels — the one kernel of every op kind, whose sections are
//! gets, takes, upserts, puts and erases ([`crate::get_put`]), and the
//! multi-value retrieval — are launched from here and nowhere else, both
//! probe through [`Table::walk`], and the memory layout is known to
//! the slot view ([`crate::slots`]) alone — the kernels, the map, the
//! migration and its routed call are written against slots, pairs
//! and counters. [`crate::GpuMultiMap`] is a table in multi-value mode.
//!
//! What one launch takes from the *map* rather than from the table is the
//! coalesced-group size: the slot sequence does not depend on it (§IV-A),
//! so it is one value of the map that both tables of a migration read.

use crate::config::{Config, Layout, Mutation};
use crate::delete::EraseOutcome;
use crate::entry::{live_pair, pack, value_of, EMPTY, RESERVED_KEY};
use crate::errors::BuildError;
use crate::get_put::{self, Input, Mix, Sections};
use crate::history::HistoryRecorder;
use crate::insert::InsertOutcome;
use crate::probing::Prober;
use crate::retrieve::retrieve_all_kernel;
use crate::service::{answer, OpError};
use crate::slots::Slots;
use crate::stats::Occupancy;
use gpu_sim::simt::Window;
use gpu_sim::{
    DevSlice, Device, GroupCtx, GroupSize, KernelStats, LaunchOptions, OutOfMemory, ScratchGuard,
};
use hashes::DoubleHash;
use parking_lot::Mutex;
use std::ops::{ControlFlow, Range};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Rejects the key both sentinels carry: packed, it would read as a
/// vacant slot, not as a pair.
///
/// # Errors
/// [`OpError::ReservedKey`] with the position of the first such key.
pub(crate) fn check_keys(keys: impl IntoIterator<Item = u32>) -> Result<(), OpError> {
    match keys.into_iter().position(|k| k == RESERVED_KEY) {
        Some(index) => Err(OpError::ReservedKey { index }),
        None => Ok(()),
    }
}

/// [`check_keys`] of a call's reads, then its puts' keys, then its erases:
/// the first list that names the reserved key gives the position.
///
/// # Errors
/// [`OpError::ReservedKey`], as [`check_keys`].
pub(crate) fn check_lists(
    reads: &[u32],
    puts: &[(u32, u32)],
    erases: &[u32],
) -> Result<(), OpError> {
    check_keys(reads.iter().copied())?;
    check_keys(puts.iter().map(|p| p.0))?;
    check_keys(erases.iter().copied())
}

/// Most stripes a [`HitSink`] cuts its flags into.
const HIT_STRIPES: usize = 64;

/// The hit flags of a launch's erase groups, which set them from any
/// worker: each stripe of the caller's flags behind a lock of its own, so
/// that a launch of any size answers into them without a host list.
struct HitSink<'a> {
    stripes: [Mutex<&'a mut [bool]>; HIT_STRIPES],
    /// Flags a stripe holds (the last may hold fewer).
    per: usize,
}

impl<'a> HitSink<'a> {
    fn new(hits: &'a mut [bool]) -> Self {
        let per = hits.len().div_ceil(HIT_STRIPES).max(1);
        let mut stripes = hits.chunks_mut(per);
        Self {
            stripes: std::array::from_fn(|_| Mutex::new(stripes.next().unwrap_or_default())),
            per,
        }
    }

    /// Sets flag `i`.
    fn set(&self, i: usize) {
        self.stripes[i / self.per].lock()[i % self.per] = true;
    }
}

/// The slots of one hash table in device memory, the hash-family member
/// and probing knobs that address them, and the count of what they hold.
#[derive(Debug)]
pub(crate) struct Table {
    dev: Arc<Device>,
    /// Every word of the table.
    data: DevSlice,
    /// `data` as the kernels address it, in the table's layout.
    slots: Slots,
    /// Number of slots, a whole number of 32-slot spans.
    capacity: usize,
    /// Multi-value mode (§II): a pair never updates the slot of its key,
    /// every pair claims a slot of its own.
    multi: bool,
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
        let (data, slots) = Slots::alloc(&dev, capacity, cfg.layout)?;
        // MUTATION DOUBLE (`Mutation::SkipFill`): skip the EMPTY-sentinel
        // fill — the forgotten-cudaMemset bug initcheck exists to catch.
        if cfg.mutation != Some(Mutation::SkipFill) {
            dev.mem().fill(data, EMPTY);
        }
        let working_set = cfg.modeled_capacity_bytes.unwrap_or_else(|| data.bytes());
        Ok(Self {
            dev,
            data,
            slots,
            capacity,
            multi: false,
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

    /// [`Table::alloc`] of a multi-value table under `cfg`'s hash member:
    /// packed pairs, since one CAS must claim key and value together.
    pub(crate) fn alloc_multi(
        dev: Arc<Device>,
        capacity: usize,
        cfg: &Config,
    ) -> Result<Self, BuildError> {
        let mut table = Self::alloc(dev, capacity, &cfg.with_layout(Layout::Aos), cfg.seed)?;
        table.multi = true;
        Ok(table)
    }

    /// The device the slots live on.
    pub(crate) fn dev(&self) -> &Arc<Device> {
        &self.dev
    }

    /// Number of slots.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether duplicate keys accumulate instead of updating.
    pub(crate) fn multi(&self) -> bool {
        self.multi
    }

    /// Seed of the hash-family member in use.
    pub(crate) fn seed(&self) -> u32 {
        self.seed
    }

    /// The probing sequence over this table's slots.
    pub(crate) fn prober(&self) -> &Prober {
        &self.prober
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

    /// The slots in the table's layout.
    pub(crate) fn slots(&self) -> Slots {
        self.slots
    }

    /// The probe of Fig. 3, the one every kernel runs: from window `from`
    /// of `key`'s sequence on — window `w` is window `q = w mod 32/|g|` of
    /// outer attempt `p = w div 32/|g|` —, one coalesced load per window,
    /// handed to `visit` with its number and base slot until `visit`
    /// breaks or `p_max` attempts are exhausted (`None`). What a group
    /// does with a window — ballot, CAS, reload — is `visit`'s.
    #[inline]
    pub(crate) fn walk<T>(
        &self,
        ctx: &GroupCtx,
        key: u32,
        from: u64,
        mut visit: impl FnMut(u64, usize, Window) -> ControlFlow<T>,
    ) -> Option<T> {
        let g = ctx.size().get();
        // 32/|g| is a power of two: p and q are the halves of w
        let windows = u64::from(ctx.size().windows_per_warp());
        let shift = windows.trailing_zeros();
        for w in from..u64::from(self.p_max) << shift {
            let (p, q) = ((w >> shift) as u32, (w & (windows - 1)) as u32);
            let base = self.prober.window_base(key, p, q, g) as usize;
            let window = ctx.read_window(self.slots.keys, base);
            if let ControlFlow::Break(done) = visit(w, base, window) {
                return Some(done);
            }
        }
        None
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

    // ---- the one kernel, over device-resident words ------------------------

    /// One launch of the kernel ([`crate::get_put`]) over the keys and
    /// pairs of `input`, section by section: the gets, takes and upserts answered
    /// into `out`, `hit(i)` for each key `i` of the erase section it
    /// tombstoned, claims, reclaimed tombstones and tombstoned keys
    /// counted. Returns the insertion outcome, whose stats cover the whole
    /// launch, and the tombstoned count. Pairs that exhausted probing are
    /// reported in the outcome, not as an error.
    pub(crate) fn run(
        &self,
        g: GroupSize,
        sections: Sections,
        input: Input,
        out: DevSlice,
        recorder: Option<&HistoryRecorder>,
        hit: impl Fn(usize) + Sync,
    ) -> (InsertOutcome, u64) {
        let (outcome, erased) = get_put::kernel(self, g, sections, input, out, recorder, hit);
        self.note_ran(&outcome, erased);
        (outcome, erased)
    }

    /// Counts what a launch of the kernel on this table claimed, reclaimed
    /// and tombstoned.
    pub(crate) fn note_ran(&self, outcome: &InsertOutcome, erased: u64) {
        // adds before subtractions: a put may reclaim a tombstone of the
        // same launch
        self.occupied.fetch_add(outcome.new_slots, Relaxed);
        self.note_tombstoned(erased);
        // claims over TOMBSTONE words shorten the pending-rebuild debt
        self.tombstones.fetch_sub(outcome.reclaimed, Relaxed);
    }

    /// [`Table::run`] of the `n` erase keys of `keys`, packed two to a
    /// word, alone, its hits in a host list.
    pub(crate) fn erase(
        &self,
        g: GroupSize,
        keys: DevSlice,
        n: usize,
        recorder: Option<&HistoryRecorder>,
    ) -> EraseOutcome {
        let mut hits = vec![false; n];
        let sink = HitSink::new(&mut hits);
        // an erase answers through `hit`, not into `out`
        let (input, out) = (Input { keys, pairs: keys.sub(0, 0) }, keys.sub(0, 0));
        let (outcome, erased) =
            self.run(g, Sections::erases(n), input, out, recorder, |i| sink.set(i));
        EraseOutcome {
            stats: outcome.stats,
            erased,
            hits,
        }
    }

    fn note_tombstoned(&self, slots: u64) {
        self.occupied.fetch_sub(slots, Relaxed);
        self.tombstones.fetch_add(slots, Relaxed);
    }

    // ---- the same, over host-resident pairs and keys ----------------------

    /// Uploads `keys`, two to a word, and `pairs` into the scratch `into`
    /// that the caller holds, or into one scratch allocation of its own,
    /// with `out` result words behind them. One allocation per host-staged
    /// call, however many launches it takes: it fails before the first
    /// launch or not at all. The words are made as they are copied, with
    /// no staging copy on the host. PCIe time is *not* billed here — the
    /// `host_ops` cascades do that.
    pub(crate) fn stage(
        &self,
        into: Option<DevSlice>,
        keys: impl ExactSizeIterator<Item = u32>,
        pairs: impl ExactSizeIterator<Item = u64>,
        out: usize,
    ) -> Result<(Option<ScratchGuard<'_>>, Input, DevSlice), OutOfMemory> {
        let (k, n) = (keys.len().div_ceil(2), pairs.len());
        let mut guard = None;
        let scratch = match into {
            Some(scratch) => scratch,
            None => guard.insert(self.dev.alloc_scratch((k + n + out).max(1))?).slice(),
        };
        let input = Input { keys: scratch.sub(0, k), pairs: scratch.sub(k, n) };
        self.dev.mem().h2d_keys_from(input.keys, keys);
        self.dev.mem().h2d_from(input.pairs, pairs);
        Ok((guard, input, scratch.sub(k + n, out)))
    }

    /// [`Table::apply`] of host-resident pairs alone.
    pub(crate) fn insert_pairs(
        &self,
        g: GroupSize,
        pairs: &[(u32, u32)],
        recorder: Option<&HistoryRecorder>,
    ) -> Result<InsertOutcome, OpError> {
        Ok(self.apply(None, g, (&[], pairs, &[]), &mut [], &mut [], recorder)?.0)
    }

    /// Every value stored under each of the host-resident `keys` of a
    /// multi-value table, in slot order.
    pub(crate) fn retrieve_all_keys(
        &self,
        g: GroupSize,
        keys: &[u32],
        recorder: Option<&HistoryRecorder>,
    ) -> Result<(Vec<Vec<u32>>, KernelStats), OpError> {
        check_keys(keys.iter().copied())?;
        let (_scratch, input, _) = self.stage(None, keys.iter().copied(), [].into_iter(), 0)?;
        Ok(retrieve_all_kernel(self, g, input.keys, keys.len(), recorder))
    }

    /// Looks up `reads`, applies `puts` and erases `erases` in **one**
    /// launch of the kernel ([`crate::get_put`]). A list alone may repeat
    /// keys; a call of two lists or more holds distinct keys in ascending
    /// order in each, none both put and erased, and a key read and put runs
    /// once, as an upsert, one read and erased once, as a take ([`Mix`]
    /// cuts the sections). Answers
    /// into `values` what each key of `reads` held before the launch and
    /// into `hits` whether each key of `erases` was tombstoned, and returns
    /// the insertion outcome, whose stats cover the whole launch, and the
    /// tombstoned count. The words go up as they are made and the answers
    /// come down as they are handed out: the host stages nothing. The
    /// words go into `scratch` when the caller holds it (see
    /// [`Table::stage`]), of `2 · reads + puts + erases` words at least —
    /// more than the keys two to a word, the pairs and an answer a read
    /// take.
    ///
    /// # Errors
    /// [`OpError::ReservedKey`], as [`check_keys`], before anything
    /// launches; scratch OOM, unless `scratch` is given.
    pub(crate) fn apply(
        &self,
        scratch: Option<DevSlice>,
        g: GroupSize,
        (reads, puts, erases): (&[u32], &[(u32, u32)], &[u32]),
        values: &mut [Option<u32>],
        hits: &mut [bool],
        recorder: Option<&HistoryRecorder>,
    ) -> Result<(InsertOutcome, u64), OpError> {
        check_lists(reads, puts, erases)?;
        let mix = Mix::new(reads, puts, erases, self.mutation);
        let sections = mix.sections();
        let mut keys = mix.gets().chain(mix.takes()).chain(mix.erases());
        let mut pairs = mix.upserts().chain(mix.puts()).map(|(k, v)| pack(k, v));
        // as many as the sections count, which `stage` must know first
        let keys = (0..sections.keys()).map(|_| keys.next().unwrap_or(0));
        let pairs = (0..sections.pairs()).map(|_| pairs.next().unwrap_or(EMPTY));
        let (_scratch, input, out) = self.stage(scratch, keys, pairs, sections.answered())?;
        // the erase section's hits land behind the takes' places
        let takes = sections.takes;
        hits.fill(false);
        let sink = HitSink::new(&mut hits[takes..]);
        let ran = self.run(g, sections, input, out, recorder, |i| sink.set(i));
        // an erase-only key's hit moves to its place, a take's is its
        // answer's found bit, set below
        let mut section = takes;
        for (e, &k) in erases.iter().enumerate() {
            if !mix.read(k) {
                hits[e] = hits[section];
                section += 1;
            }
        }
        // answers come back section by section; hand them out key by key
        let mem = self.dev.mem();
        let mut got = mem.d2h_words(out.sub(0, sections.gets));
        let mut taken = mem.d2h_words(out.sub(sections.gets, takes));
        let mut upserted = mem.d2h_words(out.sub(sections.gets + takes, sections.upserts));
        for (slot, &k) in values.iter_mut().zip(reads) {
            let word = match mix.erased(k) {
                Some(e) => {
                    let word = taken.next().unwrap_or(EMPTY);
                    hits[e] = word != EMPTY;
                    word
                }
                None if mix.upserted(k) => upserted.next().unwrap_or(EMPTY),
                None => got.next().unwrap_or(EMPTY),
            };
            answer(slot, (word != EMPTY).then(|| value_of(word)), self.mutation);
        }
        Ok(ran)
    }

    // ---- whole-slot access from the host (uncounted) ----------------------

    /// Host image of the slots in `range`, one packed word per slot in
    /// either layout: `pack(key, value)` for a live slot, the slot's
    /// sentinel otherwise.
    pub(crate) fn scan(&self, range: Range<usize>) -> Vec<u64> {
        self.slots.scan(self.dev.mem(), range)
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

    /// Tombstones the live slots `slots` from the host, counting them.
    pub(crate) fn tombstone(&self, slots: impl IntoIterator<Item = usize>) {
        let mut n = 0;
        for slot in slots {
            self.slots.tombstone_from_host(self.dev.mem(), slot);
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
