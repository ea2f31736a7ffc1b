//! The device multisplits: the paper's m-pass binary split and the
//! one-launch split the cascade runs.
//!
//! "Our approach is based on a simpler technique that consecutively
//! computes m binary splits (one class versus the rest) of keys in global
//! memory … using a warp-aggregated atomic counter" (§IV-B). Pass `c`
//! compacts all elements of class `c` behind the elements of classes
//! `< c` in the output buffer, so after `m` passes the buffer is
//! partition-ordered and the per-class counts/offsets fall out of the
//! counter. That is [`device_multisplit`]: `m` launches and `(m + 1)·n`
//! words of traffic, "a minor portion of the overall runtime" on the
//! paper's 2²⁴-element batches.
//!
//! A small batch pays for launches instead (§V-B), so the cascade runs
//! [`device_multisplit_segments`], which makes **one launch whatever
//! `m`**. A *run* is [`RUN_WORDS`] consecutive elements — `T` tiles of
//! 32 — of one segment; a group reads its run once into registers and
//! ballots each tile once per class. Where a segment has more than one
//! run (and `m > 1`) its runs scan their class counts by Merrill &
//! Garland's decoupled look-back ("Single-pass Parallel Prefix Scan with
//! Decoupled Look-back", 2016), on a descriptor of `m` flag words per
//! run ([`GroupCtx::publish`], [`GroupCtx::poll`]). The run's **count
//! group**
//!
//! 1. counts its classes;
//! 2. publishes them as its *aggregate*;
//! 3. reads the window of the `WINDOW` (32) descriptors before its own, a
//!    lane each, and waits until, from the nearest back, each class's
//!    words are published up to an inclusive prefix;
//! 4. adds that prefix and the aggregates after it to its counts and
//!    publishes the sum as its own inclusive prefix.
//!
//! The first run publishes its prefix at once. Where Merrill & Garland
//! walk on past a window of aggregates, a run here waits for its window
//! instead, so its look-back is one read of one window whatever the
//! schedule — at worst its nearest prefix is a window back, so the last
//! prefix of `r` runs lies behind a chain of `⌈(r − 1) / WINDOW⌉` waits,
//! which the launch bills whole (see [`GroupCtx::poll`]). The run's
//! **scatter group** then waits for that prefix and for the segment's
//! last — the class totals, whose exclusive scan is where each class
//! starts — and scatters its words behind the runs before it, class by
//! class. A class's place depends on every run of the segment, so no
//! group can scatter before the last run has counted: the count groups
//! take the first group ids of the launch and the scatter groups the
//! rest, and every wait is on a lower id ([`GroupCtx::poll`] says why
//! that makes progress under every schedule). A run is thus read twice
//! and written once — `3n` words of traffic, as the count and scatter
//! launches this replaces streamed — and a class keeps its input order
//! under every schedule. The host reads the class totals from the last
//! run's prefix.
//!
//! A segment of one run needs no scan: its lone group's own counts *are*
//! the histogram, so it offsets its classes itself behind `m` counter
//! words (a warp-aggregated atomic a class) and leaves the counts there;
//! so does every run at `m = 1`. A launch of such segments alone is the
//! scatter half by itself. A call without a word launches nothing.
//!
//! A [`Segment`] holds 64-bit words, or 32-bit **keys** packed two a
//! word as a `&[u32]` lies in host memory ([`Segment::keys`]): a run of
//! keys is `RUN_WORDS / 2` streamed words, and the scatter group writes
//! each key out as 4 bytes, two to a word again, so a key crosses PCIe
//! and NVLink as 4 bytes and is split on `2n` words of traffic, not `3n`.
//! A segment can carry out each element's position in it too, 4 bytes
//! beside where the element goes ([`Segment::with_positions`]), and where
//! each run's *piece* of each class starts in the output, 4 bytes a class
//! a run ([`Segment::with_pieces`]): what a cascade that answers per key
//! keeps on the origin to place the answers, a run at a time.
//!
//! The run is what keeps the descriptor traffic in bounds: a run's scan
//! costs a few sector stores of `m` words and one window's load of at
//! most `32m`, where one pass of the paper's kernel issues an atomic per
//! 32 words.

use crate::scan::exclusive_scan;
use crate::warp_agg::warp_aggregated_compact;
use gpu_sim::{CounterSnapshot, DevSlice, Device, GroupCtx, GroupSize, KernelStats, LaunchOptions};

/// Lanes of a tile: the split runs at warp width.
const G: usize = 32;

/// Tiles a group sweeps before it touches a counter.
const T: usize = 8;

/// Elements of one group's run. A segment no longer than this is split by
/// a lone group, which needs no scan.
pub const RUN_WORDS: usize = G * T;

/// One segment of [`device_multisplit_segments`]: its elements on the
/// device and the buffer its partition-ordered words go to.
#[derive(Debug, Clone, Copy)]
pub struct Segment {
    input: DevSlice,
    out: DevSlice,
    /// Elements, each a word of `out`, or half a word for keys.
    len: usize,
    /// Whether `input` and `out` hold 32-bit keys two a word.
    keys: bool,
    /// Where the position of each element goes, beside where it goes in
    /// `out`: 32-bit halves, two to a word.
    positions: Option<DevSlice>,
    /// Where each run's piece of each class starts in `out`: `m` 32-bit
    /// halves a run, in class order.
    pieces: Option<DevSlice>,
    /// BROKEN (mutation double): a key's or a word's position is its
    /// offset inside the run.
    run_offsets: bool,
    /// BROKEN (mutation double): the count groups read the predecessor's
    /// prefix without waiting for its flag.
    peek: bool,
}

impl Segment {
    /// The 64-bit words of `input`, moved as they are into `out`.
    ///
    /// # Panics
    /// Panics if `out` is shorter than `input`.
    #[must_use]
    pub fn words(input: DevSlice, out: DevSlice) -> Self {
        assert!(out.len() >= input.len(), "output buffer too small");
        Self {
            input,
            out,
            len: input.len(),
            keys: false,
            positions: None,
            pieces: None,
            run_offsets: false,
            peek: false,
        }
    }

    /// The same segment, each element's position in it written to
    /// `positions` as 32 bits, half `i` — the low half of word `i / 2` for
    /// even `i` — where the element goes to element `i` of `out`.
    ///
    /// # Panics
    /// Panics if `positions` is shorter than `len.div_ceil(2)` words or a
    /// position does not fit 32 bits.
    #[must_use]
    pub fn with_positions(mut self, positions: DevSlice) -> Self {
        assert!(positions.len() >= self.len.div_ceil(2), "position buffer too small");
        assert!(u32::try_from(self.len).is_ok(), "positions are 32-bit");
        self.positions = Some(positions);
        self
    }

    /// The same segment, where each run's elements of each class start in
    /// `out` written to `pieces` as 32 bits, half `run · m + c` for class
    /// `c` of `m` — an empty piece's too: the pieces of a class follow one
    /// another in run order, each ending where the next one starts, the
    /// last at the class's end, but where a run offsets its classes by an
    /// atomic, at `m = 1`, where a run's one piece is the whole run.
    ///
    /// # Panics
    /// [`device_multisplit_segments`] panics if `pieces` is shorter than
    /// `m` halves a run.
    #[must_use]
    pub fn with_pieces(mut self, pieces: DevSlice) -> Self {
        self.pieces = Some(pieces);
        self
    }

    /// `len` 32-bit keys packed two a word in `packed` — key `2i` the low
    /// half of word `i`, as `DeviceMemory::h2d_keys` leaves them — split
    /// into `out` packed the same way. `class_of` sees a key as the word
    /// `key << 32`, where a packed pair holds its key.
    ///
    /// # Panics
    /// Panics if `packed` is not `len.div_ceil(2)` words or `out` is
    /// shorter than that.
    #[must_use]
    pub fn keys(packed: DevSlice, len: usize, out: DevSlice) -> Self {
        assert_eq!(packed.len(), len.div_ceil(2), "two keys per word");
        assert!(out.len() >= len.div_ceil(2), "output buffer too small");
        Self {
            input: packed,
            out,
            len,
            keys: true,
            positions: None,
            pieces: None,
            run_offsets: false,
            peek: false,
        }
    }

    /// **Test-only** mutation double (the cascade's
    /// `Mutation::SplitTagsRunOffset`): if `broken`, the scatter group
    /// writes an element's position as its offset inside the group's run
    /// instead of the segment: the same for the first [`RUN_WORDS`]
    /// elements only.
    #[must_use]
    pub fn tagging_run_offsets(mut self, broken: bool) -> Self {
        self.run_offsets = broken;
        self
    }

    /// **Test-only** mutation double (the cascade's
    /// `Mutation::LookBackReadsUnpublished`): if `broken`, a run's count
    /// group reads its window of descriptors without waiting for their
    /// flags — right whenever its predecessor ran first, as in `group_id`
    /// order, where the nearest descriptor holds a prefix.
    #[must_use]
    pub fn reading_unpublished_prefixes(mut self, broken: bool) -> Self {
        self.peek = broken;
        self
    }

    /// The buffer the partition-ordered words go to.
    #[must_use]
    pub fn out(&self) -> DevSlice {
        self.out
    }

    /// Runs of the segment, a scatter group each.
    fn runs(&self) -> usize {
        self.len.div_ceil(RUN_WORDS)
    }
}

/// Runs of `len` elements that scan their counts by look-back into `m`
/// classes — a count group and a descriptor each: none unless there is
/// more than one run and more than one class.
fn looked_back_runs(m: usize, len: usize) -> usize {
    let runs = len.div_ceil(RUN_WORDS);
    if m > 1 && runs > 1 {
        runs
    } else {
        0
    }
}

/// Scratch words [`device_multisplit_segments`] needs to split segments
/// of `lens` elements into `m` classes: `m` counter words a segment, and
/// a descriptor of `m` words a run that looks back.
#[must_use]
pub fn scratch_words(m: usize, lens: impl IntoIterator<Item = usize>) -> usize {
    lens.into_iter()
        .map(|len| m * (1 + looked_back_runs(m, len)))
        .sum()
}

/// Status bits of a descriptor word, Merrill & Garland's flags: beside
/// them is the run's class count (its *aggregate*), or the inclusive
/// prefix of the class over the segment's runs up to it. A zero word is
/// not published yet.
const AGGREGATE: u64 = 1 << 62;
const PREFIX: u64 = 1 << 63;
const COUNT: u64 = AGGREGATE - 1;

/// Descriptors a run's look-back reads at once: lane `r` of the warp the
/// `r + 1`-th before its own.
const WINDOW: usize = G;

/// Whether a descriptor word holds an inclusive prefix.
fn is_prefix(word: u64) -> bool {
    word & PREFIX != 0
}

/// Whether a window of descriptors of `m` words suffices for every class:
/// from the nearest descriptor back, the class's words are published up to
/// an inclusive prefix.
fn reaches_prefixes(window: &[u64], m: usize) -> bool {
    (0..m).all(|c| {
        for word in window.iter().skip(c).step_by(m).rev() {
            if *word == 0 {
                return false;
            }
            if is_prefix(*word) {
                return true;
            }
        }
        false
    })
}

/// Class `c`'s count over the runs a window of descriptors covers back to
/// its nearest inclusive prefix: that prefix plus the aggregates after it.
fn looked_back(window: &[u64], m: usize, c: usize) -> u64 {
    let mut sum = 0;
    for word in window.iter().skip(c).step_by(m).rev() {
        sum += word & COUNT;
        if is_prefix(*word) {
            break;
        }
    }
    sum
}

/// Waits on the longest chain behind run `run`'s inclusive prefix: the
/// first run publishes its prefix without waiting, and at worst a run's
/// nearest prefix is a whole window back.
fn depth(run: usize) -> u64 {
    run.div_ceil(WINDOW) as u64
}

/// Outcome of a device multisplit.
#[derive(Debug, Clone)]
pub struct SplitResult {
    /// Partition-ordered output buffer (same length as the input).
    pub out: DevSlice,
    /// Number of elements in each class.
    pub counts: Vec<u64>,
    /// Exclusive offsets of each class within `out`.
    pub offsets: Vec<u64>,
    /// Merged stats over all passes (counters add, simulated times add).
    pub stats: KernelStats,
}

impl SplitResult {
    /// The sub-slice of `out` holding class `c`.
    #[must_use]
    pub fn class_slice(&self, c: usize) -> DevSlice {
        self.out
            .sub(self.offsets[c] as usize, self.counts[c] as usize)
    }
}

/// Most classes a [`SegmentedSplit`] has: the partitions of a node.
pub const MAX_CLASSES: usize = 32;

/// Most segments one [`device_multisplit_segments`] splits: the cascade's
/// mixed round has five, the sections of its kernel.
pub const MAX_SEGMENTS: usize = 5;

/// Outcome of [`device_multisplit_segments`]: per segment what a
/// [`SplitResult`] holds, in arrays of fixed capacity — a split allocates
/// nothing on the host — and what the launches all segments shared cost.
#[derive(Debug, Clone, Default)]
pub struct SegmentedSplit {
    m: usize,
    /// Per segment, the class counts; the first `m` of a row are used.
    counts: [[u64; MAX_CLASSES]; MAX_SEGMENTS],
    /// Per segment, the exclusive class offsets, likewise.
    offsets: [[u64; MAX_CLASSES]; MAX_SEGMENTS],
    /// Launches made: 0 (no word) or 1.
    pub launches: u32,
    /// Simulated seconds of those launches.
    pub sim_time: f64,
    /// The part of `sim_time` a split of more words would not scale: the
    /// launch overhead, and what the chain of waits holds beyond its
    /// share of the runs — its last window and the scatter's read, which
    /// a longer segment also waits for once.
    pub fixed_time: f64,
    /// Their counters, summed.
    pub counters: CounterSnapshot,
}

impl SegmentedSplit {
    /// Number of elements in each class of segment `s`.
    #[must_use]
    pub fn counts(&self, s: usize) -> &[u64] {
        &self.counts[s][..self.m]
    }

    /// Exclusive offsets of each class within segment `s`'s output.
    #[must_use]
    pub fn offsets(&self, s: usize) -> &[u64] {
        &self.offsets[s][..self.m]
    }

    /// Bills `launch`, whose longest segment that looks back has `runs`
    /// runs (0 if none does).
    fn bill(&mut self, launch: &KernelStats, runs: usize, latency: f64) {
        self.launches += 1;
        self.sim_time += launch.sim_time;
        self.fixed_time += launch.breakdown.overhead;
        if runs > 0 {
            // the chain grows by a wait a window of runs: what a split of
            // `s`× the words takes is `s`× this slope, plus the rest
            let b = launch.breakdown;
            let chain = (depth(runs - 1) + 1) as f64 * latency;
            let share = runs as f64 / WINDOW as f64 * latency;
            let slope = b.throughput().max(b.latency - chain + share);
            self.fixed_time += (b.throughput().max(b.latency) - slope).max(0.0);
        }
        self.counters = self.counters.merged(launch.counters);
    }
}

/// Splits the words of `input` into `m` classes given by `class_of` the
/// paper's way — `m` binary compaction passes over one counter word —
/// writing the partition-ordered result to `out` (a caller-allocated
/// double buffer of at least `input.len()` words, as in Fig. 4's
/// out-of-place scheme). `scratch` must hold ≥ 1 word for the aggregated
/// counter. The reference [`device_multisplit_segments`] is tested and
/// measured against (ablation A3).
///
/// # Panics
/// Panics if `m == 0`, `out` is shorter than `input`, or `class_of`
/// returns a class ≥ `m`.
pub fn device_multisplit<F>(
    dev: &Device,
    input: DevSlice,
    out: DevSlice,
    scratch: DevSlice,
    m: usize,
    class_of: F,
) -> SplitResult
where
    F: Fn(u64) -> u32 + Sync,
{
    assert!(m > 0, "need at least one class");
    assert!(out.len() >= input.len(), "output buffer too small");
    assert!(!scratch.is_empty(), "need a counter word");
    let counter = scratch.sub(0, 1);

    let mut counts = Vec::with_capacity(m);
    let mut stats: Option<KernelStats> = None;
    let mut written = 0usize;
    for c in 0..m as u32 {
        dev.mem().fill(counter, 0);
        // a pass appends its class behind the classes before it
        let class_out = out.sub(written, out.len() - written);
        let pass = warp_aggregated_compact(dev, input, class_out, counter, |w| {
            let cls = class_of(w);
            assert!(cls < m as u32, "class {cls} out of range (m = {m})");
            cls == c
        });
        let kept = dev.mem().d2h(counter)[0];
        counts.push(kept);
        written += kept as usize;
        stats = Some(match stats {
            None => pass,
            Some(s) => s.merged(&pass),
        });
    }
    assert_eq!(written, input.len(), "classes must cover every element");
    SplitResult {
        out: out.sub(0, input.len()),
        offsets: exclusive_scan(&counts),
        counts,
        stats: stats.expect("m > 0 guarantees at least one pass"),
    }
}

/// Splits each [`Segment`] of `segments` into `m` classes given by
/// `class_of`, every segment on its own — its own partition-ordered `out`,
/// counts and offsets — in **one launch** (`opts`) over the segments' runs,
/// none if every segment is empty: the count groups of the runs that look
/// back, then a scatter group a run (see the module docs). The launch's
/// latency term holds the longest segment's chain of waits. `scratch` must
/// hold [`scratch_words`] words. Under `Schedule::Sequential` a class keeps
/// its input order, and so it does under every schedule in a segment of
/// more than one run and class.
///
/// # Panics
/// Panics if `m` is not in `1..=MAX_CLASSES`, there are more than
/// [`MAX_SEGMENTS`] segments, `scratch` is shorter than
/// [`scratch_words`], `class_of` returns a class ≥ `m`, or the classes do
/// not add up to a segment — its class-conservation check.
pub fn device_multisplit_segments<F>(
    dev: &Device,
    segments: &[Segment],
    scratch: DevSlice,
    m: usize,
    opts: LaunchOptions,
    class_of: F,
) -> SegmentedSplit
where
    F: Fn(u64) -> u32 + Sync,
{
    assert!(
        (1..=MAX_CLASSES).contains(&m),
        "1..={MAX_CLASSES} classes, not {m}"
    );
    assert!(
        segments.len() <= MAX_SEGMENTS,
        "at most {MAX_SEGMENTS} segments"
    );
    assert!(
        scratch.len() >= scratch_words(m, segments.iter().map(|segment| segment.len)),
        "need m counter words per segment and m descriptor words per run that looks back"
    );
    assert!(
        segments.iter().all(|s| s.pieces.is_none_or(|p| 2 * p.len() >= s.runs() * m)),
        "need m piece halves per run"
    );
    let counters = scratch.sub(0, m * segments.len());
    // per segment, its first descriptor; and the count groups, one each
    let mut first = [0; MAX_SEGMENTS];
    let mut counting = 0;
    for (first, segment) in first.iter_mut().zip(segments) {
        *first = counting;
        counting += looked_back_runs(m, segment.len);
    }
    let descriptors = scratch.sub(counters.len(), m * counting);
    let at = |k: usize| k * m; // descriptor `k`'s first word
    let mut split = SegmentedSplit {
        m,
        ..SegmentedSplit::default()
    };
    let scattering: usize = segments.iter().map(Segment::runs).sum();
    if scattering == 0 {
        return split;
    }

    let kernel = |ctx: &GroupCtx| {
        // the count groups come first, then a scatter group a run
        let counts_only = ctx.group_id() < counting;
        let runs = |segment: &Segment| {
            if counts_only {
                looked_back_runs(m, segment.len)
            } else {
                segment.runs()
            }
        };
        // the segment this group's id falls into, and its run within
        let (mut s, mut run) = (0, ctx.group_id() - if counts_only { 0 } else { counting });
        while run >= runs(&segments[s]) {
            run -= runs(&segments[s]);
            s += 1;
        }
        let Segment {
            input,
            out: output,
            len,
            keys,
            positions,
            pieces,
            run_offsets,
            peek,
        } = segments[s];
        let looks_back = looked_back_runs(m, len) > 0;
        let first_run = first[s];
        let (k, last) = (first_run + run, first_run + len.div_ceil(RUN_WORDS) - 1);
        let first = run * RUN_WORDS;
        let len = (len - first).min(RUN_WORDS);
        // the position of element `i` of the run: `base + i`
        let base = if run_offsets { 0 } else { first };
        // streaming read of the run into registers, a class beside each word
        let (mut vals, mut class) = ([0u64; RUN_WORDS], [0u32; RUN_WORDS]);
        if keys {
            // two keys a word, each where a pair holds its key
            for (w, pair) in vals.chunks_mut(2).enumerate().take(len.div_ceil(2)) {
                let packed = ctx.read_stream(input, first / 2 + w);
                pair[0] = packed << 32;
                pair[1] = packed >> 32 << 32;
            }
        } else {
            for (i, val) in vals.iter_mut().enumerate().take(len) {
                *val = ctx.read_stream(input, first + i);
            }
        }
        for i in 0..len {
            class[i] = class_of(vals[i]);
            assert!(
                class[i] < m as u32,
                "class {} out of range (m = {m})",
                class[i]
            );
        }
        // one ballot per tile and class; the popcounts add up in a register
        let ballots = |c: usize| {
            let mut masks = [0u32; T];
            for (t, mask) in masks.iter_mut().enumerate().take(len.div_ceil(G)) {
                let lane = |r: u32| t * G + r as usize;
                *mask = ctx.ballot(|r| lane(r) < len && class[lane(r)] == c as u32);
            }
            let count: u64 = masks.iter().map(|mask| u64::from(mask.count_ones())).sum();
            (masks, count)
        };
        // the run's piece of class `c` starts at `at`
        let piece = |c: usize, at: usize| {
            if let Some(pieces) = pieces {
                ctx.write_stream_half(pieces, run * m + c, at as u32);
            }
        };
        let scatter = |masks: &[u32; T], mut at: usize| {
            for (t, mask) in masks.iter().enumerate() {
                for r in (0..G).filter(|r| mask & (1 << r) != 0) {
                    let val = vals[t * G + r];
                    if keys {
                        ctx.write_stream_half(output, at, (val >> 32) as u32);
                    } else {
                        ctx.write_stream(output, at, val);
                    }
                    if let Some(positions) = positions {
                        ctx.write_stream_half(positions, at, (base + t * G + r) as u32);
                    }
                    at += 1;
                }
            }
        };
        // a descriptor of the run: a word a class
        let mut desc = [0u64; MAX_CLASSES];

        if counts_only {
            for (c, count) in desc.iter_mut().enumerate().take(m) {
                *count = ballots(c).1;
            }
            if run > 0 {
                let aggregate = desc.map(|count| AGGREGATE | count);
                ctx.publish(descriptors, at(k), &aggregate[..m]);
                // the window: the `back` descriptors before this run's
                let back = run.min(WINDOW);
                let mut window = [0u64; WINDOW * MAX_CLASSES];
                let window = &mut window[..back * m];
                // BROKEN if `peek` (mutation double): whatever is there
                let ready = |words: &[u64]| peek || reaches_prefixes(words, m);
                ctx.poll(descriptors, at(k - back), window, depth(run), ready);
                for (c, count) in desc.iter_mut().enumerate().take(m) {
                    *count += looked_back(window, m, c);
                }
            }
            let prefix = desc.map(|count| PREFIX | count);
            ctx.publish(descriptors, at(k), &prefix[..m]);
        } else if looks_back {
            // this run's inclusive prefix, and the segment's class totals
            let prefixes = |words: &[u64]| words.iter().all(|&word| is_prefix(word));
            ctx.poll(descriptors, at(k), &mut desc[..m], depth(run) + 1, prefixes);
            let mut totals = desc;
            if k != last {
                let depth = depth(last - first_run) + 1;
                ctx.poll(descriptors, at(last), &mut totals[..m], depth, prefixes);
            }
            let mut start = 0; // where class `c` starts in the output
            for c in 0..m {
                let (masks, count) = ballots(c);
                let at = (start + (desc[c] & COUNT) - count) as usize;
                piece(c, at);
                scatter(&masks, at);
                start += totals[c] & COUNT;
            }
        } else {
            // a lone run, or one class: offset behind the counter words
            let mut before = 0u64; // words of the run in the classes before `c`
            for c in 0..m {
                let (masks, count) = ballots(c);
                if count == 0 {
                    // a lone run's empty class starts where it ends
                    piece(c, before as usize);
                    continue;
                }
                // the leader's one atomic for the whole run and class
                let cursor = ctx.atomic_add(counters, s * m + c, count);
                piece(c, (before + cursor) as usize);
                scatter(&masks, (before + cursor) as usize);
                before += count;
            }
        }
    };

    dev.mem().fill(counters, 0);
    dev.mem().fill(descriptors, 0);
    let groups = counting + scattering;
    let launch = dev.launch("multisplit", groups, GroupSize::WARP, opts, kernel);
    let longest = segments.iter().map(|segment| looked_back_runs(m, segment.len));
    split.bill(&launch, longest.max().unwrap_or(0), dev.spec().mem_latency);
    // the counts are in the last run's prefix, or in the counter words
    for (s, segment) in segments.iter().enumerate() {
        let words = match looked_back_runs(m, segment.len) {
            0 => counters.sub(s * m, m),
            runs => descriptors.sub(at(first[s] + runs - 1), m),
        };
        let (counts, offsets) = (&mut split.counts[s][..m], &mut split.offsets[s][..m]);
        dev.mem().d2h_into(words, counts);
        let mut total = 0;
        for (offset, count) in offsets.iter_mut().zip(counts.iter_mut()) {
            *count &= COUNT;
            *offset = total;
            total += *count;
        }
        assert_eq!(
            total as usize, segment.len,
            "classes must cover every element of segment {s}"
        );
    }
    split
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::exclusive_scan;
    use gpu_sim::Device;
    use hashes::PartitionFn;

    fn run_split(data: &[u64], m: usize) -> (Device, SplitResult) {
        let dev = Device::with_words(0, 2 * data.len() + 8);
        let input = dev.alloc(data.len()).unwrap();
        let out = dev.alloc(data.len()).unwrap();
        let scratch = dev.alloc(1).unwrap();
        dev.mem().h2d(input, data);
        let p = PartitionFn::modulo(m as u32);
        let res = device_multisplit(&dev, input, out, scratch, m, move |w| p.part(w as u32));
        (dev, res)
    }

    #[test]
    fn partitions_are_contiguous_and_complete() {
        let data: Vec<u64> = (0..997u64).map(|i| i * 31 % 1000).collect();
        let m = 4;
        let (dev, res) = run_split(&data, m);
        let out = dev.mem().d2h(res.out);
        assert_eq!(out.len(), data.len());
        // classes contiguous in class order
        for c in 0..m {
            let lo = res.offsets[c] as usize;
            let hi = lo + res.counts[c] as usize;
            assert!(out[lo..hi]
                .iter()
                .all(|&w| (w as u32) % m as u32 == c as u32));
        }
        // multiset preserved
        let mut a = out.clone();
        let mut b = data.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        // counts match ground truth
        for c in 0..m {
            let truth = data
                .iter()
                .filter(|&&w| (w as u32) % m as u32 == c as u32)
                .count() as u64;
            assert_eq!(res.counts[c], truth);
        }
    }

    #[test]
    fn class_slices_address_their_partition() {
        let data: Vec<u64> = (0..256u64).collect();
        let (dev, res) = run_split(&data, 2);
        let evens = dev.mem().d2h(res.class_slice(0));
        assert_eq!(evens.len(), 128);
        assert!(evens.iter().all(|&w| w % 2 == 0));
    }

    #[test]
    fn single_class_is_a_copy() {
        let data: Vec<u64> = vec![9, 8, 7, 6];
        let (dev, res) = run_split(&data, 1);
        let mut out = dev.mem().d2h(res.out);
        out.sort_unstable();
        assert_eq!(out, vec![6, 7, 8, 9]);
        assert_eq!(res.counts, vec![4]);
        assert_eq!(res.offsets, vec![0]);
    }

    #[test]
    fn empty_input_gives_empty_classes() {
        let (_, res) = run_split(&[], 3);
        assert_eq!(res.counts, vec![0, 0, 0]);
    }

    #[test]
    fn stats_accumulate_m_passes() {
        let data: Vec<u64> = (0..64u64).collect();
        let (_, res2) = run_split(&data, 2);
        let (_, res4) = run_split(&data, 4);
        // m passes re-read the input m times
        assert!(res4.counters_stream_bytes() > res2.counters_stream_bytes());
    }

    impl SplitResult {
        fn counters_stream_bytes(&self) -> u64 {
            self.stats.counters.stream_bytes
        }
    }

    /// Ragged segment lengths around the warp width and the run. Every
    /// launch of these stays under 1 024 groups — one chunk of the pool,
    /// so one worker runs it whatever the pool's size and its counters
    /// repeat exactly.
    const LENS: [usize; 9] = [
        0,
        1,
        31,
        32,
        33,
        RUN_WORDS - 1,
        RUN_WORDS,
        RUN_WORDS + 1,
        1000,
    ];
    const CLASSES: [usize; 5] = [1, 2, 3, 4, 8];

    fn words(len: usize, salt: u64) -> Vec<u64> {
        (0..len as u64).map(|i| (i * 31 + salt) % 1009).collect()
    }

    fn sorted(mut words: Vec<u64>) -> Vec<u64> {
        words.sort_unstable();
        words
    }

    /// A device holding each of `data` in a segment of its own, and the
    /// scratch their split needs.
    fn segments_of(data: &[Vec<u64>], m: usize) -> (Device, Vec<Segment>, DevSlice) {
        let total: usize = data.iter().map(Vec::len).sum();
        let scratch = scratch_words(m, data.iter().map(Vec::len));
        let dev = Device::with_words(0, 2 * total + scratch + 16);
        let segments = data
            .iter()
            .map(|words| {
                let input = dev.alloc(words.len()).unwrap();
                dev.mem().h2d(input, words);
                Segment::words(input, dev.alloc(words.len()).unwrap())
            })
            .collect();
        let scratch = dev.alloc(scratch).unwrap();
        (dev, segments, scratch)
    }

    /// Splits `data`, a segment each, by `w mod m` on a device of its own.
    fn split_of(
        data: &[Vec<u64>],
        m: usize,
        opts: LaunchOptions,
    ) -> (Device, Vec<Segment>, SegmentedSplit) {
        let (dev, segments, scratch) = segments_of(data, m);
        let split = device_multisplit_segments(&dev, &segments, scratch, m, opts, |w| {
            (w % m as u64) as u32
        });
        (dev, segments, split)
    }

    #[test]
    fn every_segment_is_split_on_its_own() {
        for m in CLASSES {
            for k in 1..=3 {
                for first in 0..LENS.len() {
                    // k consecutive lengths of the ragged list, wrapping:
                    // [1000, 0, 1] is a long segment beside two short ones
                    let lens: Vec<usize> = (0..k).map(|s| LENS[(first + s) % LENS.len()]).collect();
                    let data: Vec<Vec<u64>> = lens
                        .iter()
                        .zip(0..)
                        .map(|(&len, s)| words(len, s))
                        .collect();
                    let (dev, segments, split) = split_of(&data, m, LaunchOptions::default());
                    // one launch, unless there is no word
                    let launches = u32::from(lens.iter().any(|&len| len > 0));
                    assert_eq!(split.launches, launches, "m={m} lens {lens:?}");
                    assert_eq!(dev.lifetime_stats().launches, u64::from(launches));
                    for (s, (words, segment)) in data.iter().zip(&segments).enumerate() {
                        let got = dev.mem().d2h(segment.out());
                        let (counts, offsets) = (split.counts(s), split.offsets(s));
                        assert_eq!(offsets, exclusive_scan(counts), "m={m} lens {lens:?}");
                        for c in 0..m {
                            let class = &got[offsets[c] as usize..][..counts[c] as usize];
                            assert!(class.iter().all(|&w| w % m as u64 == c as u64));
                        }
                        assert_eq!(counts.iter().sum::<u64>() as usize, words.len());
                        assert_eq!(sorted(got), sorted(words.clone()), "m={m} lens {lens:?}");
                    }
                }
            }
        }
    }

    /// Differential against the paper's m-pass: the same counts, offsets
    /// and class contents — everything a [`SplitResult`] holds but the
    /// stats, which are the point of the difference.
    #[test]
    fn one_segment_is_device_multisplit_field_by_field() {
        for m in CLASSES {
            for len in LENS {
                let data = [words(len, 7)];
                let (dev, segments, seg) = split_of(&data, m, LaunchOptions::default());
                let (ref_dev, one) = run_split(&data[0], m);
                assert_eq!(seg.counts(0), one.counts, "m={m} len {len}");
                assert_eq!(seg.offsets(0), one.offsets, "m={m} len {len}");
                for c in 0..m {
                    let class = segments[0]
                        .out()
                        .sub(one.offsets[c] as usize, one.counts[c] as usize);
                    assert_eq!(
                        sorted(dev.mem().d2h(class)),
                        sorted(ref_dev.mem().d2h(one.class_slice(c))),
                        "m={m} len {len} class {c}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_class_keeps_its_input_order_under_the_sequential_schedule() {
        let opts = LaunchOptions::default().with_schedule(gpu_sim::Schedule::Sequential);
        for m in CLASSES {
            let data = [words(1000, 3), words(200, 4), words(RUN_WORDS + 1, 5)];
            let (dev, segments, _) = split_of(&data, m, opts);
            for (words, segment) in data.iter().zip(&segments) {
                let stable: Vec<u64> = (0..m as u64)
                    .flat_map(|c| words.iter().copied().filter(move |w| w % m as u64 == c))
                    .collect();
                assert_eq!(dev.mem().d2h(segment.out()), stable, "m={m}");
            }
        }
    }

    /// Segments split together bill the counters they bill apart; the
    /// time saves the launches, and where the segments look back, their
    /// chains of waits run side by side: the deepest one is billed.
    #[test]
    fn k_segments_share_the_launches_and_bill_nothing_else_less() {
        let m = 4;
        // all longer than a run (look-back), all within one (scatter alone)
        for (lens, look_back) in [([1000, 300, 257], true), ([33, 31, 200], false)] {
            let data = lens.map(|len| words(len, len as u64));
            let (dev, _, together) = split_of(&data, m, LaunchOptions::default());
            assert_eq!(together.launches, 1);

            let apart: Vec<SegmentedSplit> = data
                .iter()
                .map(|words| split_of(std::slice::from_ref(words), m, LaunchOptions::default()).2)
                .collect();
            assert!(apart.iter().all(|split| split.launches == 1));
            // the same bytes, atomics and groups; what is saved is launches
            let counters = apart.iter().fold(CounterSnapshot::default(), |sum, split| {
                sum.merged(split.counters)
            });
            assert_eq!(together.counters, counters);
            let apart_time: f64 = apart.iter().map(|split| split.sim_time).sum();
            let saved = (data.len() - 1) as f64 * dev.spec().launch_overhead;
            if look_back {
                // each apart launch waits on a chain of two: a window, the totals
                let chains = 2.0 * (data.len() - 1) as f64 * dev.spec().mem_latency;
                assert!(together.sim_time <= apart_time - saved - chains + 1e-12);
                let slowest = apart.iter().map(|split| split.sim_time).fold(0.0, f64::max);
                assert!(together.sim_time >= slowest);
            } else {
                assert!((apart_time - together.sim_time - saved).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn empty_segment_beside_a_full_one_is_fine() {
        let data = [Vec::new(), words(100, 5), Vec::new()];
        let (dev, segments, split) = split_of(&data, 2, LaunchOptions::default());
        assert_eq!(split.counts(0), [0, 0]);
        assert_eq!(split.counts(2), [0, 0]);
        assert_eq!(split.counts(1).iter().sum::<u64>(), 100);
        assert_eq!(
            sorted(dev.mem().d2h(segments[1].out())),
            sorted(data[1].clone())
        );
    }

    /// Splits by the key — the high half of a word — as the cascade does.
    fn key_class(m: usize) -> impl Fn(u64) -> u32 + Sync {
        move |w| ((w >> 32) % m as u64) as u32
    }

    /// The first `n` 32-bit halves of `words`, low half first.
    fn halves(words: &[u64], n: usize) -> Vec<u64> {
        words.iter().flat_map(|&w| [w & 0xffff_ffff, w >> 32]).take(n).collect()
    }

    /// A device holding `keys` packed two a word in segment 0, with room
    /// for their positions, and each of `pairs` in a word segment behind
    /// it.
    fn key_segments_of(
        keys: &[u32],
        pairs: &[Vec<u64>],
        m: usize,
    ) -> (Device, Vec<Segment>, DevSlice) {
        let total: usize = keys.len() + pairs.iter().map(Vec::len).sum::<usize>();
        let lens = || std::iter::once(keys.len()).chain(pairs.iter().map(Vec::len));
        // room for the words, their copies and a position each
        let dev = Device::with_words(0, 3 * total + scratch_words(m, lens()) + 32);
        let packed = dev.alloc(keys.len().div_ceil(2)).unwrap();
        dev.mem().h2d_keys(packed, keys);
        let out = dev.alloc(keys.len().div_ceil(2)).unwrap();
        let positions = dev.alloc(keys.len().div_ceil(2)).unwrap();
        let mut segments =
            vec![Segment::keys(packed, keys.len(), out).with_positions(positions)];
        for words in pairs {
            let input = dev.alloc(words.len()).unwrap();
            dev.mem().h2d(input, words);
            segments.push(Segment::words(input, dev.alloc(words.len()).unwrap()));
        }
        let scratch = dev.alloc(scratch_words(m, lens())).unwrap();
        (dev, segments, scratch)
    }

    /// Differential against the query words a host would build: a
    /// segment of packed keys with positions leaves the split as the split
    /// of `key << 32 | i` leaves it, the keys its high halves and the
    /// positions its low ones — bit for bit in `group_id` order, class by
    /// class as a multiset in the pool — alone and beside two segments of
    /// pairs, on half the input stream.
    #[test]
    fn packed_keys_split_like_the_query_words_the_host_built() {
        let odd_runs = 3 * RUN_WORDS + 9;
        let sequential = LaunchOptions::default().with_schedule(gpu_sim::Schedule::Sequential);
        for m in [1, 2, 4] {
            for len in [0, 1, RUN_WORDS - 1, RUN_WORDS, RUN_WORDS + 1, odd_runs] {
                for pairs in [vec![], vec![words(300, 1), words(RUN_WORDS + 2, 2)]] {
                    for (opts, in_order) in [(sequential, true), (LaunchOptions::default(), false)]
                    {
                        let keys: Vec<u32> = (0..len as u32).map(|i| (i * 31 + 5) % 1009).collect();
                        let built: Vec<u64> = (0..)
                            .zip(&keys)
                            .map(|(i, &k)| u64::from(k) << 32 | i)
                            .collect();
                        let mut data = vec![built];
                        data.extend(pairs.iter().cloned());

                        let (dev, segments, scratch) = key_segments_of(&keys, &pairs, m);
                        let split = device_multisplit_segments(
                            &dev,
                            &segments,
                            scratch,
                            m,
                            opts,
                            key_class(m),
                        );
                        let (ref_dev, ref_segments, scratch) = segments_of(&data, m);
                        let want = device_multisplit_segments(
                            &ref_dev,
                            &ref_segments,
                            scratch,
                            m,
                            opts,
                            key_class(m),
                        );

                        let case =
                            format!("m={m} len={len} beside {} in_order={in_order}", pairs.len());
                        assert_eq!(split.launches, want.launches, "{case}");
                        for s in 0..data.len() {
                            assert_eq!(split.counts(s), want.counts(s), "{case}");
                            assert_eq!(split.offsets(s), want.offsets(s), "{case}");
                            let mut got = dev.mem().d2h(segments[s].out());
                            let reference = ref_dev.mem().d2h(ref_segments[s].out());
                            if s == 0 {
                                // the key and its position, as a query word
                                let at = dev.mem().d2h(segments[0].positions.unwrap());
                                let (keys, at) = (halves(&got, len), halves(&at, len));
                                got = keys.iter().zip(at).map(|(k, i)| k << 32 | i).collect();
                            }
                            if in_order {
                                assert_eq!(got, reference, "{case} segment {s}");
                            }
                            for c in 0..m {
                                let start = split.offsets(s)[c] as usize;
                                let class = start..start + split.counts(s)[c] as usize;
                                assert_eq!(
                                    sorted(got[class.clone()].to_vec()),
                                    sorted(reference[class].to_vec()),
                                    "{case} segment {s} class {c}"
                                );
                            }
                        }
                        // a run's count and scatter groups each read a key
                        // as 4 bytes of a streamed word, where they read a
                        // query word, and the scatter writes it and its
                        // position as 4 bytes each; a lone run or class has
                        // no count group
                        let reads = 1 + u64::from(m > 1 && len > RUN_WORDS);
                        let saved = 8 * (len - len.div_ceil(2)) as u64 * reads;
                        assert_eq!(
                            split.counters.stream_bytes + saved,
                            want.counters.stream_bytes,
                            "{case}"
                        );
                        assert_eq!(split.counters.atomic_ops, want.counters.atomic_ops);
                    }
                }
            }
        }
    }

    /// A segment of words with positions writes beside each word where
    /// it lay in its segment, in every class, run and schedule, and its
    /// words go where they go without.
    #[test]
    fn positions_name_where_each_word_lay() {
        let sequential = LaunchOptions::default().with_schedule(gpu_sim::Schedule::Sequential);
        for m in [1, 4] {
            for len in [1, RUN_WORDS, RUN_WORDS + 1, 1000] {
                for (opts, in_order) in [(sequential, true), (LaunchOptions::default(), false)] {
                    let data = [words(len, 11)];
                    let (dev, segments, scratch) = key_segments_of(&[], &data, m);
                    let positions = dev.alloc(len.div_ceil(2)).unwrap();
                    let with = [segments[0], segments[1].with_positions(positions)];
                    let class = |w| (w % m as u64) as u32;
                    device_multisplit_segments(&dev, &with, scratch, m, opts, class);
                    let out = dev.mem().d2h(with[1].out());
                    let at = halves(&dev.mem().d2h(positions), len);
                    let lay: Vec<u64> = at.iter().map(|&i| data[0][i as usize]).collect();
                    assert_eq!(lay, out, "m={m} len {len}");
                    assert_eq!(sorted(at), (0..len as u64).collect::<Vec<_>>());
                    if in_order {
                        let (ref_dev, without, _) = split_of(&data, m, opts);
                        assert_eq!(out, ref_dev.mem().d2h(without[0].out()), "m={m} len {len}");
                    }
                }
            }
        }
    }

    /// A segment with pieces writes where each run's elements of each
    /// class start: ending where the next run's piece of the class starts,
    /// or the last at the class's end, at `m = 1` as long as its run, a
    /// piece holds exactly that run's elements of that class — in every
    /// class, run and schedule.
    #[test]
    fn pieces_name_where_each_runs_class_starts() {
        let sequential = LaunchOptions::default().with_schedule(gpu_sim::Schedule::Sequential);
        for m in [1, 4] {
            for len in [1, RUN_WORDS, RUN_WORDS + 1, 1000] {
                for opts in [sequential, LaunchOptions::default()] {
                    let data = [words(len, 11)];
                    let (dev, segments, scratch) = key_segments_of(&[], &data, m);
                    let runs = len.div_ceil(RUN_WORDS);
                    let positions = dev.alloc(len.div_ceil(2)).unwrap();
                    let pieces = dev.alloc((runs * m).div_ceil(2)).unwrap();
                    let with = segments[1].with_positions(positions).with_pieces(pieces);
                    let with = [segments[0], with];
                    let class = |w| (w % m as u64) as u32;
                    let split = device_multisplit_segments(&dev, &with, scratch, m, opts, class);
                    let out = dev.mem().d2h(with[1].out());
                    let at = halves(&dev.mem().d2h(positions), len);
                    let starts = halves(&dev.mem().d2h(pieces), runs * m);
                    for c in 0..m {
                        let class_end = (split.offsets(1)[c] + split.counts(1)[c]) as usize;
                        for run in 0..runs {
                            let start = starts[run * m + c] as usize;
                            let run_len = (len - run * RUN_WORDS).min(RUN_WORDS);
                            let end = match (m, run + 1 == runs) {
                                (1, _) => start + run_len,
                                (_, true) => class_end,
                                _ => starts[(run + 1) * m + c] as usize,
                            };
                            let mine = |i: &usize| {
                                (run * RUN_WORDS..run * RUN_WORDS + run_len).contains(i)
                                    && data[0][*i] % m as u64 == c as u64
                            };
                            let want = (0..len).filter(mine).count();
                            let case = format!("m={m} len {len} run {run} class {c}");
                            assert_eq!(end - start, want, "{case}");
                            assert!(at[start..end].iter().all(|&i| mine(&(i as usize))), "{case}");
                            assert!(out[start..end].iter().all(|&w| w % m as u64 == c as u64));
                        }
                    }
                }
            }
        }
    }

    /// The mutation double writes a key's or a word's position as its
    /// offset inside the run: the first run's are right, every later
    /// run's are not.
    #[test]
    fn run_offset_tags_differ_from_the_second_run_on() {
        for (len, differs) in [(RUN_WORDS, false), (RUN_WORDS + 1, true)] {
            let keys: Vec<u32> = (0..len as u32).collect();
            let pairs = [words(len, 3)];
            let split = |broken| {
                let (dev, mut segments, scratch) = key_segments_of(&keys, &pairs, 1);
                let positions = dev.alloc(len.div_ceil(2)).unwrap();
                segments[0] = segments[0].tagging_run_offsets(broken);
                segments[1] = segments[1].with_positions(positions).tagging_run_offsets(broken);
                let opts = LaunchOptions::default();
                device_multisplit_segments(&dev, &segments, scratch, 1, opts, |_| 0);
                let at = [segments[0].positions.unwrap(), positions];
                at.map(|words| sorted(halves(&dev.mem().d2h(words), len)))
            };
            let (broken, right) = (split(true), split(false));
            assert_eq!(broken[0] != right[0], differs, "keys, len {len}");
            assert_eq!(broken[1] != right[1], differs, "positions, len {len}");
        }
    }

    /// The mutation double reads a predecessor's prefix without waiting
    /// for its flag: right in `group_id` order, where the predecessor ran
    /// first, and stopped by the class-conservation check under the
    /// reverse schedule, where a run reads an aggregate or nothing.
    #[test]
    fn unpublished_prefixes_break_the_class_count() {
        let data = [words(1000, 9)];
        let split = |schedule, broken| {
            let (dev, segments, scratch) = segments_of(&data, 4);
            let segment = [segments[0].reading_unpublished_prefixes(broken)];
            let opts = LaunchOptions::default().with_schedule(schedule);
            let class = |w| (w % 4) as u32;
            let split = device_multisplit_segments(&dev, &segment, scratch, 4, opts, class);
            (split.counts(0).to_vec(), dev.mem().d2h(segment[0].out()))
        };
        let sequential = gpu_sim::Schedule::Sequential;
        assert_eq!(split(sequential, true), split(sequential, false));
        let reverse = gpu_sim::Schedule::Adversarial {
            mode: gpu_sim::AdversarialMode::Reverse,
            seed: 0,
        };
        let caught = std::panic::catch_unwind(|| split(reverse, true)).unwrap_err();
        let message = caught.downcast_ref::<String>().expect("a formatted panic");
        // under `WD_SANITIZE` racecheck stops it first: two scatter groups
        // store to the same word
        let racecheck = message.contains("[racecheck] kernel=`multisplit`");
        assert!(racecheck || message.contains("classes must cover every element"), "{message}");
    }

    /// A window is read from its nearest descriptor back: a class is
    /// ready once its words reach a prefix with no unpublished word
    /// between, and its count is that prefix plus the aggregates after it.
    #[test]
    fn a_window_adds_the_aggregates_behind_its_nearest_prefix() {
        let (agg, pre) = (|n| AGGREGATE | n, |n| PREFIX | n);
        // two classes a descriptor, oldest first
        let window = [pre(9), pre(1), agg(3), pre(4), agg(2), agg(5)];
        assert!(reaches_prefixes(&window, 2));
        assert_eq!(looked_back(&window, 2, 0), 9 + 3 + 2);
        assert_eq!(looked_back(&window, 2, 1), 4 + 5);
        // an aggregate missing before the prefix, or no prefix at all
        let gap = [pre(9), pre(1), 0, pre(4), agg(2), agg(5)];
        assert!(!reaches_prefixes(&gap, 2));
        assert!(!reaches_prefixes(&[agg(9), pre(1), agg(3), pre(4)], 2));
        // what lies beyond the nearest prefix is never read
        assert!(reaches_prefixes(&[0, pre(1), pre(3), agg(4)], 2));
        // the chain: a window of 32 runs a wait, the scatter's read one more
        assert_eq!([1, 32, 33, 64, 65].map(depth), [1, 1, 2, 2, 3]);
    }

    /// A segment's launch bills its chain of waits whole: `⌈(r − 1) / 32⌉`
    /// windows behind the last prefix of `r` runs, and the scatter's read
    /// of it, a memory round-trip each.
    #[test]
    fn the_launch_bills_the_chain_of_waits_whole() {
        for runs in [2, 33, 64, 65, 200] {
            let data = [words(runs * RUN_WORDS, 3)];
            let (dev, _, split) = split_of(&data, 4, LaunchOptions::default());
            let chain = ((runs - 1).div_ceil(WINDOW) + 1) as f64 * dev.spec().mem_latency;
            let launch = split.sim_time - dev.spec().launch_overhead;
            assert!(launch >= chain, "{runs} runs: {launch} < {chain}");
        }
    }

    /// The split is never slower than the m-pass it replaces, nor issues
    /// more atomics — a run that looks back issues none, and a lone one
    /// at most one a class. A run is read by its count and its scatter
    /// group and written once: `3n` words against the m-pass's `(m + 1)n`.
    #[test]
    fn never_slower_than_the_m_pass_nor_more_atomics() {
        for m in CLASSES {
            for n in [1, 33, RUN_WORDS + 1, 1 << 16, 1 << 20] {
                let data = [words(n, 11)];
                let (_, _, new) = split_of(&data, m, LaunchOptions::default());
                let old = run_split(&data[0], m).1.stats;
                assert!(new.sim_time <= old.sim_time, "m={m} n={n}");
                assert!(
                    new.counters.atomic_ops <= old.counters.atomic_ops,
                    "m={m} n={n}"
                );
                if (m, n) == (4, 1 << 20) {
                    // the look-back's windows of descriptors are the rest
                    assert!(new.sim_time <= 0.65 * old.sim_time);
                    assert_eq!(new.counters.stream_bytes, 3 * 8 * (n as u64));
                    assert_eq!(old.counters.stream_bytes, 5 * 8 * (n as u64));
                }
            }
        }
    }
}
