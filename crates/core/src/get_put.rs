//! The one kernel of a single-value table: every launch that looks keys
//! up, writes pairs or deletes keys is a launch of this grid.
//!
//! Insertions and queries on *distinct* keys may race freely (§IV-A), so
//! nothing but the launch boundary separates them — and a launch boundary
//! is what a small batch pays most for (§V-B). This kernel runs every op
//! kind in one grid of five contiguous sections, selected by `group_id`
//! against the launch's [`Sections`] (no tag word, no extra stream
//! traffic): **get** groups run the retrieval probe ([`crate::retrieve`])
//! and write their answer; **take** groups — keys both looked up and
//! erased — answer as a get does and then, on a hit, run the deletion
//! probe ([`crate::delete`]); **upsert** groups — keys both looked up and
//! written — run the insertion probe ([`crate::insert`]) and answer with
//! the pair it replaced, one table visit instead of two; **put** groups
//! run the insertion probe (a multiset insert on a multi-value table);
//! **erase** groups run the deletion probe and report a hit through the
//! caller's sink, billed to no kernel. A launch of one section keeps the
//! paper's name for it (`warpdrive_insert` / `multimap_insert`,
//! `warpdrive_retrieve`, `warpdrive_erase`), a mix is
//! `warpdrive_get_put`; each group bills what it billed in a launch of
//! its own kind, an upsert plus the SOA value-word read of its get.
//!
//! **One group per key.** A group's answer does not depend on how the
//! launch interleaves as long as each key has one group: a tombstone is
//! reclaimable by a put of *another* key the moment its CAS lands
//! ([`crate::slots`]), so a launch with both erase and put groups must
//! not erase a key twice, nor put a key it erases. A take is the erase
//! counterpart of an upsert: the key read and erased is one group, which
//! reads before it tombstones, so its answer is the pair from before the
//! launch and its hit is that answer's found bit. `execute` and the
//! cascade's rounds hold distinct keys, an erase-only launch has no put
//! to race, and `&mut self` on [`crate::GpuHashMap::try_erase`] remains
//! the API's §IV-A barrier.
//!
//! Input ([`Input`]): the keys of the gets, the takes and the erases, in
//! that order, packed two to a word as `DeviceMemory::h2d_keys` leaves
//! them, each read as one streamed word; and the packed pairs of the
//! upserts and the puts. Output: `gets + takes + upserts` words,
//! `pack(key, value)` for a key that was present before the launch,
//! [`EMPTY`] otherwise.

use crate::config::Mutation;
use crate::delete::erase_one;
use crate::entry::{key_of, EMPTY};
use crate::history::{HistoryRecorder, OpKind, OpResponse};
use crate::insert::{insert_one, GroupResult, InsertOutcome, InsertTally};
use crate::retrieve::{record_retrieve, retrieve_one};
use crate::table::Table;
use gpu_sim::{CounterSnapshot, DevSlice, GroupCtx, GroupSize, KernelStats, TimeBreakdown};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// How many groups of each kind one launch runs, in grid order: keys
/// looked up, keys looked up and erased, keys looked up and written, pairs
/// written, keys erased.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Sections {
    pub(crate) gets: usize,
    pub(crate) takes: usize,
    pub(crate) upserts: usize,
    pub(crate) puts: usize,
    pub(crate) erases: usize,
}

impl Sections {
    /// One section alone: `n` gets, puts or erases.
    pub(crate) fn gets(n: usize) -> Self {
        Self { gets: n, ..Self::default() }
    }

    pub(crate) fn puts(n: usize) -> Self {
        Self { puts: n, ..Self::default() }
    }

    pub(crate) fn erases(n: usize) -> Self {
        Self { erases: n, ..Self::default() }
    }

    /// Groups in the grid.
    pub(crate) fn len(self) -> usize {
        self.answered() + self.puts + self.erases
    }

    /// Groups that answer: gets, takes and upserts.
    pub(crate) fn answered(self) -> usize {
        self.gets + self.takes + self.upserts
    }

    /// Groups of keys: gets, takes and erases.
    pub(crate) fn keys(self) -> usize {
        self.gets + self.takes + self.erases
    }

    /// Groups of pairs: upserts and puts.
    pub(crate) fn pairs(self) -> usize {
        self.upserts + self.puts
    }

    /// The launch's name, from the sections it runs; an empty launch is
    /// named as a put.
    fn name(self, multi: bool) -> &'static str {
        match self {
            Self { gets: 0, takes: 0, upserts: 0, erases: 0, .. } if multi => "multimap_insert",
            Self { gets: 0, takes: 0, upserts: 0, erases: 0, .. } => "warpdrive_insert",
            Self { takes: 0, upserts: 0, puts: 0, erases: 0, .. } => "warpdrive_retrieve",
            Self { gets: 0, takes: 0, upserts: 0, puts: 0, .. } => "warpdrive_erase",
            _ => "warpdrive_get_put",
        }
    }
}

/// The stats of a call that launches nothing: no groups, no time, no
/// traffic, named as the kernel names an empty launch.
pub(crate) fn idle_stats(g: GroupSize) -> KernelStats {
    KernelStats {
        name: Sections::default().name(false),
        counters: CounterSnapshot::default(),
        breakdown: TimeBreakdown::default(),
        sim_time: 0.0,
        group_size: g,
        num_groups: 0,
    }
}

/// A call's lists cut into the kernel's sections — the one place that
/// decides them, for one GPU's launch and a node's round: a key read and
/// erased is a take, one read and put an upsert, any other key runs in
/// its list's section, and each section is an ascending sublist of its
/// list. The lists hold distinct ascending keys, none both put and
/// erased, or one list is alone and may repeat keys.
#[derive(Clone, Copy)]
pub(crate) struct Mix<'a> {
    reads: &'a [u32],
    puts: &'a [(u32, u32)],
    erases: &'a [u32],
    /// MUTATION DOUBLE (`Mutation::UpsertRunsAsGetAndPut`): no upserts.
    apart: bool,
}

impl<'a> Mix<'a> {
    pub(crate) fn new(
        reads: &'a [u32],
        puts: &'a [(u32, u32)],
        erases: &'a [u32],
        mutation: Option<Mutation>,
    ) -> Self {
        let apart = mutation == Some(Mutation::UpsertRunsAsGetAndPut);
        Self { reads, puts, erases, apart }
    }

    pub(crate) fn read(self, k: u32) -> bool {
        self.reads.binary_search(&k).is_ok()
    }

    /// Whether a key the call reads is upserted.
    pub(crate) fn upserted(self, k: u32) -> bool {
        !self.apart && self.puts.binary_search_by_key(&k, |p| p.0).is_ok()
    }

    /// Where a key lies among the erases.
    pub(crate) fn erased(self, k: u32) -> Option<usize> {
        self.erases.binary_search(&k).ok()
    }

    pub(crate) fn gets(self) -> impl Iterator<Item = u32> + 'a {
        let get = move |&k: &u32| !self.upserted(k) && self.erased(k).is_none();
        self.reads.iter().copied().filter(get)
    }

    /// Takes and upserts come from nowhere when a list is empty, so that
    /// a call of one list walks it once.
    pub(crate) fn takes(self) -> impl Iterator<Item = u32> + 'a {
        let taking = if self.erases.is_empty() { &[][..] } else { self.reads };
        taking.iter().copied().filter(move |&k| self.erased(k).is_some())
    }

    pub(crate) fn upserts(self) -> impl Iterator<Item = (u32, u32)> + 'a {
        let upserting = if self.reads.is_empty() || self.apart { &[][..] } else { self.puts };
        upserting.iter().copied().filter(move |p| self.read(p.0))
    }

    pub(crate) fn puts(self) -> impl Iterator<Item = (u32, u32)> + 'a {
        self.puts.iter().copied().filter(move |p| self.apart || !self.read(p.0))
    }

    pub(crate) fn erases(self) -> impl Iterator<Item = u32> + 'a {
        self.erases.iter().copied().filter(move |&k| !self.read(k))
    }

    pub(crate) fn sections(self) -> Sections {
        let (takes, upserts) = (self.takes().count(), self.upserts().count());
        let (gets, puts) = (self.reads.len() - takes - upserts, self.puts.len() - upserts);
        Sections { gets, takes, upserts, puts, erases: self.erases.len() - takes }
    }
}

/// A launch's input on the device: the keys of its gets, takes and
/// erases, two to a word in that order, and the pairs of its upserts and
/// puts.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Input {
    pub(crate) keys: DevSlice,
    pub(crate) pairs: DevSlice,
}

/// Key `i` of `keys`, packed two to a word: one streamed read of its
/// word, billed as a word.
pub(crate) fn read_key(ctx: &GroupCtx, keys: DevSlice, i: usize) -> u32 {
    (ctx.read_stream(keys, i / 2) >> (32 * (i % 2))) as u32
}

/// The groups of one launch of the kernel over `table`, one group per key
/// or pair of `input`, section by section: the gets, the takes and the
/// upserts answered into `out`, each answer a [`GroupCtx::publish_stream`]
/// that is its own flag, and `hit(ctx, i, found)` once key `i` of the
/// erase section is done. A launch on one GPU runs them alone
/// ([`kernel`]); a node's round runs them as a section of its node launch.
pub(crate) struct Probe<'a, H> {
    table: &'a Table,
    sections: Sections,
    input: Input,
    out: DevSlice,
    recorder: Option<&'a HistoryRecorder>,
    hit: H,
    tally: InsertTally,
    erased: AtomicU64,
}

impl<'a, H: Fn(&GroupCtx, usize, bool) + Sync> Probe<'a, H> {
    pub(crate) fn new(
        table: &'a Table,
        sections: Sections,
        (input, out): (Input, DevSlice),
        recorder: Option<&'a HistoryRecorder>,
        hit: H,
    ) -> Self {
        Self {
            table,
            sections,
            input,
            out,
            recorder,
            hit,
            tally: InsertTally::default(),
            erased: AtomicU64::new(0),
        }
    }

    /// The launch's name, from the sections it runs.
    pub(crate) fn name(&self) -> &'static str {
        self.sections.name(self.table.multi())
    }

    /// Runs group `id` of the grid.
    pub(crate) fn group(&self, ctx: &GroupCtx, id: usize) {
        let (table, sections, input, out) = (self.table, self.sections, self.input, self.out);
        // the key groups before the pairs, and where the erases start
        let (reads, answered) = (sections.gets + sections.takes, sections.answered());
        let erases_from = sections.len() - sections.erases;
        let history = self.recorder.map(|rec| (rec, rec.invoke()));
        if id < sections.gets {
            // MUTATION DOUBLE (`Mutation::WindowOverrun`): read the key a
            // word past our own — the last get of a get-only launch runs
            // off the end of the input buffer, which memcheck reports and
            // contains.
            let at = if table.mutation() == Some(Mutation::WindowOverrun) { id + 2 } else { id };
            let key = read_key(ctx, input.keys, at);
            let result = retrieve_one(ctx, table, key);
            record_retrieve(history, key, result);
            ctx.publish_stream(out, id, result);
            return;
        }
        if id < reads {
            let key = read_key(ctx, input.keys, id);
            // MUTATION DOUBLE (`Mutation::TakeTombstonesFirst`): tombstone
            // the key before reading it, so the answer is a miss
            let first = table.mutation() == Some(Mutation::TakeTombstonesFirst);
            let early = first && erase_one(ctx, table, key);
            let result = retrieve_one(ctx, table, key);
            record_retrieve(history, key, result);
            ctx.publish_stream(out, id, result);
            // a hit is the answer's found bit: read first, then tombstone
            let found = early || (result != EMPTY && erase_one(ctx, table, key));
            if found {
                self.erased.fetch_add(1, Relaxed);
            }
            if let Some((rec, invoked)) = history {
                let response = OpResponse::Erased { hit: found };
                rec.complete(key, OpKind::Erase, response, invoked);
            }
            return;
        }
        if id >= erases_from {
            let key = read_key(ctx, input.keys, reads + id - erases_from);
            let found = erase_one(ctx, table, key);
            if found {
                self.erased.fetch_add(1, Relaxed);
            }
            (self.hit)(ctx, id - erases_from, found);
            if let Some((rec, invoked)) = history {
                let response = OpResponse::Erased { hit: found };
                rec.complete(key, OpKind::Erase, response, invoked);
            }
            return;
        }
        let word = ctx.read_stream(input.pairs, id - reads);
        let upsert = id < answered;
        let r = insert_one(ctx, table, word, upsert);
        if upsert {
            let old = match r {
                GroupResult::Updated { old } => old.unwrap_or(EMPTY),
                GroupResult::NewSlot { .. } | GroupResult::Failed => EMPTY,
            };
            // MUTATION DOUBLE (`Mutation::UpsertReturnsNew`): answer with
            // the pair just written instead of the one it replaced.
            let answer = if table.mutation() == Some(Mutation::UpsertReturnsNew) {
                word
            } else {
                old
            };
            // one visit, two logical ops: the lookup, then the write
            record_retrieve(history, key_of(word), answer);
            ctx.publish_stream(out, id, answer);
        }
        self.tally.note(table.multi(), word, r, history);
    }

}

impl<H> Probe<'_, H> {
    /// The insertion outcome of the launch that `stats` bill, and the
    /// tombstoned count, the takes' included.
    pub(crate) fn finish(self, stats: KernelStats) -> (InsertOutcome, u64) {
        (self.tally.outcome(stats), self.erased.into_inner())
    }
}

/// Launches the kernel over the words of `input` ([`Probe`]), `hit(i)`
/// for each key `i` of the erase section it tombstoned. Returns the
/// insertion outcome, whose stats cover the whole launch, and the
/// tombstoned count, the takes' included.
pub(crate) fn kernel(
    table: &Table,
    g: GroupSize,
    sections: Sections,
    input: Input,
    out: DevSlice,
    recorder: Option<&HistoryRecorder>,
    hit: impl Fn(usize) + Sync,
) -> (InsertOutcome, u64) {
    let report = |_: &GroupCtx, i, found| {
        if found {
            hit(i);
        }
    };
    let probe = Probe::new(table, sections, (input, out), recorder, report);
    let group = |ctx: &GroupCtx| probe.group(ctx, ctx.group_id());
    let stats = table.launch(probe.name(), sections.len(), g, group);
    probe.finish(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Config, Layout};
    use crate::entry::pack;
    use gpu_sim::{Device, Schedule};
    use std::collections::BTreeSet;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    /// Seeds a hunt runs: `WD_MUTATION_SEEDS`, else `WD_SWEEP_SEEDS`,
    /// else 32.
    fn seeds() -> u64 {
        let env = |name| std::env::var(name).ok().and_then(|v| v.trim().parse().ok());
        env("WD_MUTATION_SEEDS").or_else(|| env("WD_SWEEP_SEEDS")).unwrap_or(32)
    }

    fn table(cfg: Config, capacity: usize) -> Table {
        let dev = Arc::new(Device::with_words(0, 4 * capacity + (1 << 12)));
        Table::alloc(dev, capacity, &cfg, cfg.seed).unwrap()
    }

    /// What one launch did: its answers; failed, new, updated, reclaimed
    /// and tombstoned counts; erase hits.
    type Launched = (Vec<u64>, [u64; 5], Vec<bool>);

    /// One launch of `s` over `keys` — the gets', then the erases' — and
    /// `pairs`.
    fn launch(t: &Table, g: GroupSize, s: Sections, keys: &[u32], pairs: &[u64]) -> Launched {
        let answered = s.gets + s.upserts;
        let (keys, pairs) = (keys.iter().copied(), pairs.iter().copied());
        let (_scratch, input, out) = t.stage(None, keys, pairs, answered).unwrap();
        let hits: Vec<AtomicBool> = (0..s.erases).map(|_| AtomicBool::new(false)).collect();
        let (o, erased) = t.run(g, s, input, out, None, |i| hits[i].store(true, Relaxed));
        let counts = [o.failed, o.new_slots, o.updates, o.reclaimed, erased];
        (t.dev().mem().d2h(out), counts, hits.into_iter().map(AtomicBool::into_inner).collect())
    }

    /// One launch of all four sections over distinct keys against the
    /// one-kind launches — get, insert, erase — on a twin table: the same
    /// answers, hits, counts and pairs, in either layout, at every group
    /// size, in `group_id` order and under seeded schedules. Puts and
    /// upserts take a span each, none where an erased key lives, so what a
    /// put claims does not depend on the interleaving.
    #[test]
    fn one_kernel_sections_match_one_kind_launches() {
        let seeded = (0..seeds().min(4)).map(Schedule::Seeded);
        for schedule in std::iter::once(Schedule::Sequential).chain(seeded) {
            let cells = [Layout::Aos, Layout::Soa].map(|l| [1, 4, 32].map(|g| (l, g)));
            for (layout, g) in cells.concat() {
                let cell = format!("{layout:?} |g|={g} {schedule:?}");
                let cfg = Config::default().with_layout(layout).with_schedule(schedule);
                let [mixed, twin] = [(); 2].map(|()| table(cfg, 2048));
                let g = GroupSize::new(g);
                let prefill: Vec<(u32, u32)> = (1..=160u32).map(|k| (k * 29, k)).collect();
                let dead: Vec<u32> = prefill.iter().step_by(5).map(|p| p.0).collect();
                for t in [&mixed, &twin] {
                    t.insert_pairs(g, &prefill, None).unwrap();
                    let mut hits = vec![false; dead.len()];
                    t.apply(None, g, (&[], &[], &dead), &mut [], &mut hits, None).unwrap();
                }
                let span = |k: u32| mixed.prober().span_base(k, 0) / 32;
                let fresh = (0..120u32).map(|i| 7_000_001 + 13 * i);
                let (mut spans, mut writes, mut gets, mut erases) =
                    (BTreeSet::new(), Vec::new(), Vec::new(), Vec::new());
                for (i, k) in prefill.iter().map(|p| p.0).chain(fresh).enumerate() {
                    if span(k) % 4 == 0 {
                        if i % 2 == 0 { &mut erases } else { &mut gets }.push(k);
                    } else if i % 3 != 2 && spans.insert(span(k)) {
                        writes.push(pack(k, k ^ 0x5a5a));
                    } else if i % 2 == 0 {
                        gets.push(k);
                    }
                }
                let (upserts, puts) = (writes.len() / 2, writes.len() - writes.len() / 2);
                let s = Sections {
                    gets: gets.len(),
                    upserts,
                    puts,
                    erases: erases.len(),
                    ..Sections::default()
                };
                let keys = [&gets[..], &erases].concat();
                let (answers, counts, hits) = launch(&mixed, g, s, &keys, &writes);

                let upserted = writes[..upserts].iter().map(|&w| key_of(w));
                let read: Vec<u32> = gets.iter().copied().chain(upserted).collect();
                let (twin_answers, ..) = launch(&twin, g, Sections::gets(read.len()), &read, &[]);
                let (_, put, _) = launch(&twin, g, Sections::puts(writes.len()), &[], &writes);
                let (_, erase, twin_hits) =
                    launch(&twin, g, Sections::erases(erases.len()), &erases, &[]);
                assert_eq!(answers, twin_answers, "{cell}: gets and upserts");
                assert_eq!(hits, twin_hits, "{cell}: erase hits");
                assert_eq!(counts, std::array::from_fn(|i| put[i] + erase[i]), "{cell}");
                let (o, t) = (mixed.occupancy(), twin.occupancy());
                assert_eq!((o.live, o.tombstones), (t.live, t.tombstones), "{cell}");
                let pairs = |t: &Table| t.live_pairs().into_iter().collect::<BTreeSet<_>>();
                assert_eq!(pairs(&mixed), pairs(&twin), "{cell}: pairs");
                // every section ran, a put reclaimed a tombstone, an erase hit
                assert!(s.gets * upserts * puts * s.erases > 0 && counts[3] * counts[4] > 0);
            }
        }
    }

    /// One launch of eight SOA erases and eight puts of other keys in one
    /// 32-slot span, the puts reclaiming the erased slots whenever they
    /// find them tombstoned: whether every put's value, and no erased key,
    /// survives.
    fn reclaiming_puts_keep_their_values(mutation: Option<Mutation>, seed: Option<u64>) -> bool {
        let schedule = seed.map_or(Schedule::Sequential, Schedule::Seeded);
        let mut cfg = Config::default().with_layout(Layout::Soa).with_schedule(schedule);
        cfg.mutation = mutation;
        let t = table(cfg, 32);
        let victims: Vec<(u32, u32)> = (1..=8).map(|k| (k, 100 + k)).collect();
        t.insert_pairs(GroupSize::WARP, &victims, None).unwrap();
        let puts: Vec<(u32, u32)> = (0..8).map(|i| (1_000 + i, 7 + i)).collect();
        let victim_keys: Vec<u32> = victims.iter().map(|p| p.0).collect();
        let words: Vec<u64> = puts.iter().map(|&(k, v)| pack(k, v)).collect();
        let s = Sections { puts: 8, erases: 8, ..Sections::default() };
        let (_, counts, _) = launch(&t, GroupSize::WARP, s, &victim_keys, &words);
        assert_eq!(counts[..2], [0, 8]);
        let keys: Vec<u32> = puts.iter().chain(&victims).map(|p| p.0).collect();
        let mut found = vec![None; keys.len()];
        let lists = (&keys[..], &[][..], &[][..]);
        t.apply(None, GroupSize::WARP, lists, &mut found, &mut [], None).unwrap();
        let kept = found.iter().zip(&puts).all(|(&v, p)| v == Some(p.1));
        kept && found[8..].iter().all(Option::is_none)
    }

    /// `Mutation::SentinelAfterTombstone` is caught by a seeded schedule
    /// within the budget; the shipped order passes every hunted seed and
    /// `group_id` order.
    #[test]
    fn one_kernel_catches_a_sentinel_restored_after_the_tombstone() {
        let late = Some(Mutation::SentinelAfterTombstone);
        assert!(reclaiming_puts_keep_their_values(None, None));
        let caught = (0..seeds()).filter(|&seed| {
            assert!(reclaiming_puts_keep_their_values(None, Some(seed)), "seed {seed}");
            !reclaiming_puts_keep_their_values(late, Some(seed))
        });
        assert!(caught.count() > 0, "the late restore went uncaught in {} seeds", seeds());
    }
}
