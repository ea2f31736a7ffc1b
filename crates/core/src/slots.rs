//! The slot view: what a memory layout (§II, Fig. 1) means for one slot.
//!
//! The probe of Fig. 3 is written once ([`crate::table::Table::walk`]) and
//! the kernels run it over this view, which answers the five questions
//! that differ between array-of-structs and struct-of-arrays: does a
//! window word hold a key ([`Slots::holds`]), what pair does a hit stand
//! for ([`Slots::pair`]), how is a value replaced ([`Slots::update`]), how
//! is a vacant slot claimed and its value published ([`Slots::claim`],
//! [`Slots::publish`]), and how is a pair deleted ([`Slots::tombstone`]).
//! A window load reads `keys` in either layout: packed pairs (AOS) or key
//! words (SOA), the sentinels the same in both.
//!
//! The SOA protocol: a CAS claims the key word, then the value word is
//! *published* with a CAS from the EMPTY sentinel. The sentinel CAS is
//! what makes the split-word layout linearizable: once the key word is
//! visible, racing duplicates of the same key take the update path and
//! overwrite the value word — if one of them gets there before the
//! claimer, the claimer's sentinel CAS fails and its (older) value is
//! discarded instead of clobbering an update that already responded.
//! (The schedule-sweep harness found exactly that lost-update anomaly in
//! the original plain-store variant.) Erase restores the sentinel before
//! its tombstone is visible, so a reclaiming insert re-enters the same
//! protocol even in the erase's own launch — the one kernel
//! ([`crate::get_put`]) runs erase and put groups together and relies on
//! one group per key for it.

use crate::config::{Layout, Mutation};
use crate::entry::{is_vacant, key_of, pack, value_of, EMPTY, TOMBSTONE};
use gpu_sim::{DevSlice, Device, DeviceMemory, GroupCtx, OutOfMemory};
use std::ops::{ControlFlow, Range};

/// The slots of one table as the kernels address them.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Slots {
    /// One word per slot, what a window load reads: the packed pair
    /// (AOS) or the key (SOA).
    pub(crate) keys: DevSlice,
    /// One value word per slot, in the SOA layout only.
    pub(crate) values: Option<DevSlice>,
}

impl Slots {
    /// Allocates `capacity` slots in `layout` — `capacity` words, or
    /// `2·capacity` for SOA, keys in front of values — and returns all
    /// of their words with the view of them.
    pub(crate) fn alloc(
        dev: &Device,
        capacity: usize,
        layout: Layout,
    ) -> Result<(DevSlice, Self), OutOfMemory> {
        let (keys, values) = match layout {
            Layout::Aos => (dev.alloc(capacity)?, None),
            Layout::Soa => {
                let data = dev.alloc(2 * capacity)?;
                (data, Some(data.sub(capacity, capacity)))
            }
        };
        Ok((keys, Self { keys: keys.sub(0, capacity), values }))
    }

    /// The slot lane `r` of the window at `base` loaded.
    #[inline]
    pub(crate) fn at(&self, base: usize, r: u32) -> usize {
        crate::probing::wrap_slot(base, r as usize, self.keys.len())
    }

    /// Whether the window word `word` is a live slot of `key`.
    #[inline]
    pub(crate) fn holds(&self, word: u64, key: u32) -> bool {
        match self.values {
            None => key_of(word) == key,
            Some(_) => !is_vacant(word) && word as u32 == key,
        }
    }

    /// `pack(key, value)` of the live slot `idx`, loaded as `word`: the
    /// word itself (AOS), or — the Fig. 1 SOA cost — a second,
    /// uncoalesced access for the value word, annotated shared: it races
    /// with last-writer-wins updates by design.
    #[inline]
    pub(crate) fn pair(&self, ctx: &GroupCtx, idx: usize, word: u64) -> u64 {
        match self.values {
            None => word,
            Some(values) => pack(word as u32, ctx.read_shared(values, idx) as u32),
        }
    }

    /// Gives the live slot `idx`, loaded as `seen`, the value of `pair`.
    /// `None` when a racing write changed the slot first and the window
    /// must be loaded again (AOS: the pair is one CAS); otherwise the
    /// pair replaced — AOS always knows it, SOA reads the value word
    /// only when `want_old` asks. The SOA overwrite is relaxed: last
    /// writer wins, but two racing updaters may interleave with readers —
    /// the shared annotation tells racecheck this is by design.
    #[inline]
    pub(crate) fn update(
        &self,
        ctx: &GroupCtx,
        idx: usize,
        seen: u64,
        pair: u64,
        want_old: bool,
    ) -> Option<Option<u64>> {
        match self.values {
            None => ctx.cas(self.keys, idx, seen, pair).ok().map(|()| Some(seen)),
            Some(values) => {
                // what a retrieve of the key would have fetched
                let old = want_old.then(|| self.pair(ctx, idx, seen));
                ctx.write_shared(values, idx, u64::from(value_of(pair)));
                Some(old)
            }
        }
    }

    /// Claims the vacant slot `idx`, loaded as `expected`, for `pair`:
    /// the CAS of Fig. 3 line 13, on the packed pair (AOS) or on the key
    /// word, whose value the winner then [publishes](Slots::publish).
    #[inline]
    pub(crate) fn claim(
        &self,
        ctx: &GroupCtx,
        idx: usize,
        expected: u64,
        pair: u64,
    ) -> Result<(), u64> {
        let word = match self.values {
            None => pair,
            Some(_) => u64::from(key_of(pair)),
        };
        ctx.cas(self.keys, idx, expected, word)
    }

    /// Publishes the value of `pair` in the slot `idx` just claimed for
    /// it — only if no racing update of the key beat the claimer to the
    /// word (its response already promised the newer value survives).
    /// Nothing to do where the claim wrote the whole pair.
    #[inline]
    pub(crate) fn publish(&self, ctx: &GroupCtx, idx: usize, pair: u64) {
        if let Some(values) = self.values {
            let _ = ctx.cas(values, idx, EMPTY, u64::from(value_of(pair)));
        }
    }

    /// Tombstones the live slot `idx`, loaded as `seen`: `Break(hit)`
    /// when the erase is decided, `Continue` when the window must be
    /// loaded again. SOA restores the value word's sentinel **before** the
    /// CAS makes the tombstone visible, so a put of another key that
    /// reclaims the slot in the same launch publishes into EMPTY, not
    /// over the erased value. With one group per key in a launch of
    /// erases and puts ([`crate::get_put`]), only another erase of the
    /// key, in an erase-only launch, can have changed the word: AOS looks
    /// again (and finds the tombstone), SOA reports the miss at once, its
    /// restore (`write_shared`, as two erases may both make it) harmless.
    #[inline]
    pub(crate) fn tombstone(
        &self,
        ctx: &GroupCtx,
        idx: usize,
        seen: u64,
        mutation: Option<Mutation>,
    ) -> ControlFlow<bool> {
        match self.values {
            None => match ctx.cas(self.keys, idx, seen, TOMBSTONE) {
                Ok(()) => ControlFlow::Break(true),
                Err(_) => ControlFlow::Continue(()),
            },
            Some(values) => {
                // MUTATION DOUBLE (`Mutation::SentinelAfterTombstone`):
                // restore the sentinel after the tombstone is visible, in
                // the CAS's success arm — a put of another key that
                // reclaims the slot in between finds the erased value,
                // its publication fails, and the restore then wipes it.
                let late = mutation == Some(Mutation::SentinelAfterTombstone);
                if !late {
                    ctx.write_shared(values, idx, EMPTY);
                }
                let hit = ctx.cas(self.keys, idx, seen, TOMBSTONE).is_ok();
                if hit && late {
                    ctx.write_shared(values, idx, EMPTY);
                }
                ControlFlow::Break(hit)
            }
        }
    }

    // ---- whole-slot access from the host (uncounted) ----------------------

    /// Host image of the slots in `range`, one packed word per slot in
    /// either layout: `pack(key, value)` for a live slot, the slot's
    /// sentinel otherwise.
    pub(crate) fn scan(&self, mem: &DeviceMemory, range: Range<usize>) -> Vec<u64> {
        let (start, len) = (range.start, range.len());
        let mut words = mem.d2h(self.keys.sub(start, len));
        if let Some(values) = self.values {
            for (word, value) in words.iter_mut().zip(mem.d2h(values.sub(start, len))) {
                if !is_vacant(*word) {
                    *word = pack(*word as u32, value as u32);
                }
            }
        }
        words
    }

    /// Tombstones the live slot `slot` from the host (the value word of
    /// an SOA slot goes back to its sentinel, as in [`Slots::tombstone`]).
    pub(crate) fn tombstone_from_host(&self, mem: &DeviceMemory, slot: usize) {
        mem.h2d(self.keys.sub(slot, 1), &[TOMBSTONE]);
        if let Some(values) = self.values {
            mem.h2d(values.sub(slot, 1), &[EMPTY]);
        }
    }
}
