//! The device multisplits: the paper's m-pass binary split and the
//! count + scatter split the cascade runs.
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
//! [`device_multisplit_segments`], which makes **at most two launches
//! whatever `m`**. A group owns a *run* of [`RUN_WORDS`] consecutive
//! elements — `T` tiles of 32 — of one segment, reads it once into
//! registers and ballots each tile once per class:
//!
//! 1. the **count** launch adds the run's class counts to the segment's
//!    `m` counter words (≤ `m` atomics per run); the host scans them into
//!    exclusive class offsets in place;
//! 2. the **scatter** launch reserves the run's slots behind those `m`
//!    cursors (≤ `m` atomics per run) and streams every word to its
//!    place — `3n` words of traffic.
//!
//! A [`Segment`] holds 64-bit words, or 32-bit **keys** packed two a
//! word as a `&[u32]` lies in host memory ([`Segment::keys`]): a run of
//! keys is `RUN_WORDS / 2` streamed words, and the scatter launch writes
//! each key out as the word `key << 32 | position in the segment` — the
//! query word of a cascade that answers per key, which thus crosses PCIe
//! as 4 bytes and is split on `2n` words of traffic, not `3n`.
//!
//! The run is what keeps the atomics in bounds: with one tile per group
//! a launch would issue up to `m` atomics per 32 words, twice over, where
//! one pass of the paper's kernel issues one — at `m = 2` the split would
//! be slower than the one it replaces. Over `T = 8` tiles the two
//! launches together issue at most `2m / 8` atomics per 32 words, no more
//! than one pass for any `m ≤ 4`.
//!
//! The count launch exists only to turn per-group counts into
//! segment-wide offsets, so it is skipped when there is nothing to turn:
//! at `m = 1`, and when every segment fits one run — a lone group's own
//! counts *are* the histogram, so it offsets its classes itself and
//! leaves the counts in the counter words. A call without a word
//! launches nothing. Which of the three it is follows from `m` and the
//! segment lengths alone.

use crate::scan::exclusive_scan;
use crate::warp_agg::warp_aggregated_compact;
use gpu_sim::{CounterSnapshot, DevSlice, Device, GroupCtx, GroupSize, KernelStats, LaunchOptions};

/// Lanes of a tile: the split runs at warp width.
const G: usize = 32;

/// Tiles a group sweeps before it touches a counter.
const T: usize = 8;

/// Elements of one group's run. A segment no longer than this is split by
/// a lone group, which needs no count launch.
pub const RUN_WORDS: usize = G * T;

/// One segment of [`device_multisplit_segments`]: its elements on the
/// device and the buffer its partition-ordered words go to.
#[derive(Debug, Clone, Copy)]
pub struct Segment {
    input: DevSlice,
    out: DevSlice,
    /// Elements, each a word of `out`.
    len: usize,
    tag: Option<Tag>,
}

/// What the low half of a key's output word holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tag {
    /// The key's position in the segment.
    Position,
    /// BROKEN (mutation double): its offset inside the run.
    RunOffset,
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
            tag: None,
        }
    }

    /// `len` 32-bit keys packed two a word in `packed` — key `2i` the low
    /// half of word `i`, as `DeviceMemory::h2d_keys` leaves them — each
    /// written to `out` as `key << 32 | position in the segment`, which is
    /// also the word `class_of` sees.
    ///
    /// # Panics
    /// Panics if `packed` is not `len.div_ceil(2)` words, `out` is shorter
    /// than `len`, or a position does not fit 32 bits.
    #[must_use]
    pub fn keys(packed: DevSlice, len: usize, out: DevSlice) -> Self {
        assert_eq!(packed.len(), len.div_ceil(2), "two keys per word");
        assert!(out.len() >= len, "output buffer too small");
        assert!(u32::try_from(len).is_ok(), "positions are 32-bit");
        Self {
            input: packed,
            out,
            len,
            tag: Some(Tag::Position),
        }
    }

    /// **Test-only** mutation double (the cascade's
    /// `Mutation::SplitTagsRunOffset`): if `broken`, the scatter launch
    /// tags a key with its offset inside the group's run instead of the
    /// segment — the same word for the first [`RUN_WORDS`] keys only.
    #[must_use]
    pub fn tagging_run_offsets(mut self, broken: bool) -> Self {
        if broken && self.tag.is_some() {
            self.tag = Some(Tag::RunOffset);
        }
        self
    }

    /// The buffer the partition-ordered words go to.
    #[must_use]
    pub fn out(&self) -> DevSlice {
        self.out
    }

    /// Groups that split the segment, a run each.
    fn runs(&self) -> usize {
        self.len.div_ceil(RUN_WORDS)
    }
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
/// mixed round has three.
pub const MAX_SEGMENTS: usize = 3;

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
    /// Launches made: 0 (no word), 1 (scatter alone) or 2.
    pub launches: u32,
    /// Simulated seconds of those launches.
    pub sim_time: f64,
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

    fn bill(&mut self, launch: &KernelStats) {
        self.launches += 1;
        self.sim_time += launch.sim_time;
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

/// What a group of the count + scatter split does with its run once it
/// knows how many of its words each class holds.
#[derive(Clone, Copy)]
enum Pass {
    /// Adds the counts to the segment's counter words.
    Count,
    /// Reserves its slots behind the counter words and writes its words
    /// there. The words hold the class offsets if a count launch ran
    /// (`counted`); if none did they start at zero and the group offsets
    /// a class by its own counts of the classes before — right for a lone
    /// group, and for the one class of `m = 1`.
    Scatter { counted: bool },
}

/// Splits each [`Segment`] of `segments` into `m` classes given by
/// `class_of`, every segment on its own — its own partition-ordered `out`,
/// counts and offsets — in **at most two launches** (`opts` each) over the
/// segments' runs laid end to end: count and scatter; scatter alone if
/// `m == 1` or no segment is longer than [`RUN_WORDS`]; none if every
/// segment is empty. `scratch` must hold `m` counter words per segment.
/// Under `Schedule::Sequential` a class keeps its input order.
///
/// # Panics
/// Panics if `m` is not in `1..=MAX_CLASSES`, there are more than
/// [`MAX_SEGMENTS`] segments, `scratch` is shorter than
/// `m · segments.len()`, or `class_of` returns a class ≥ `m`.
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
        scratch.len() >= m * segments.len(),
        "need m counter words per segment"
    );
    let counters = scratch.sub(0, m * segments.len());
    let mut split = SegmentedSplit {
        m,
        ..SegmentedSplit::default()
    };
    let num_groups: usize = segments.iter().map(Segment::runs).sum();
    if num_groups == 0 {
        return split;
    }

    let kernel = |ctx: &GroupCtx, pass: Pass| {
        // the segment this group's id falls into, and its run within
        let (mut s, mut run) = (0, ctx.group_id());
        while run >= segments[s].runs() {
            run -= segments[s].runs();
            s += 1;
        }
        let Segment {
            input,
            out: output,
            len,
            tag,
        } = segments[s];
        let first = run * RUN_WORDS;
        let len = (len - first).min(RUN_WORDS);
        // streaming read of the run into registers, a class beside each word
        let (mut vals, mut class) = ([0u64; RUN_WORDS], [0u32; RUN_WORDS]);
        match tag {
            None => {
                for (i, val) in vals.iter_mut().enumerate().take(len) {
                    *val = ctx.read_stream(input, first + i);
                }
            }
            // two keys a word, each widened to the word it leaves as
            Some(tag) => {
                let base = match tag {
                    Tag::Position => first,
                    Tag::RunOffset => 0,
                };
                for (w, pair) in vals.chunks_mut(2).enumerate().take(len.div_ceil(2)) {
                    let packed = ctx.read_stream(input, first / 2 + w);
                    for (half, val) in pair.iter_mut().enumerate() {
                        let key = (packed >> (32 * half)) & 0xffff_ffff;
                        *val = key << 32 | (base + 2 * w + half) as u64;
                    }
                }
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
        let mut before = 0u64; // words of the run in the classes before `c`
        for c in 0..m {
            // one ballot per tile; the popcounts add up in a register
            let mut masks = [0u32; T];
            for (t, mask) in masks.iter_mut().enumerate().take(len.div_ceil(G)) {
                let lane = |r: u32| t * G + r as usize;
                *mask = ctx.ballot(|r| lane(r) < len && class[lane(r)] == c as u32);
            }
            let count: u64 = masks.iter().map(|mask| u64::from(mask.count_ones())).sum();
            if count == 0 {
                continue;
            }
            // the leader's one atomic for the whole run and class
            let cursor = ctx.atomic_add(counters, s * m + c, count);
            let Pass::Scatter { counted } = pass else {
                continue;
            };
            let mut at = if counted { cursor } else { before + cursor } as usize;
            for (t, mask) in masks.iter().enumerate() {
                for r in (0..G).filter(|r| mask & (1 << r) != 0) {
                    ctx.write_stream(output, at, vals[t * G + r]);
                    at += 1;
                }
            }
            before += count;
        }
    };
    let launch = |name, pass| {
        dev.launch(name, num_groups, GroupSize::WARP, opts, |ctx| {
            kernel(ctx, pass);
        })
    };

    dev.mem().fill(counters, 0);
    let counted = m > 1 && segments.iter().any(|segment| segment.runs() > 1);
    split.bill(&if counted {
        launch("multisplit_count", Pass::Count)
    } else {
        launch("multisplit_scatter", Pass::Scatter { counted: false })
    });
    // either launch leaves the class counts in the counter words
    for (s, segment) in segments.iter().enumerate() {
        let words = counters.sub(s * m, m);
        let (counts, offsets) = (&mut split.counts[s][..m], &mut split.offsets[s][..m]);
        dev.mem().d2h_into(words, counts);
        let mut total = 0;
        for (offset, &count) in offsets.iter_mut().zip(&*counts) {
            *offset = total;
            total += count;
        }
        assert_eq!(
            total as usize, segment.len,
            "classes must cover every element of segment {s}"
        );
        if counted {
            dev.mem().h2d(words, offsets);
        }
    }
    if counted {
        split.bill(&launch(
            "multisplit_scatter",
            Pass::Scatter { counted: true },
        ));
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

    /// A device holding each of `data` in a segment of its own, and `m`
    /// counter words per segment.
    fn segments_of(data: &[Vec<u64>], m: usize) -> (Device, Vec<Segment>, DevSlice) {
        let total: usize = data.iter().map(Vec::len).sum();
        let dev = Device::with_words(0, 2 * total + m * data.len() + 16);
        let segments = data
            .iter()
            .map(|words| {
                let input = dev.alloc(words.len()).unwrap();
                dev.mem().h2d(input, words);
                Segment::words(input, dev.alloc(words.len()).unwrap())
            })
            .collect();
        let scratch = dev.alloc(m * data.len()).unwrap();
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
                    // count + scatter, unless there is nothing to count
                    let launches = match lens.iter().max() {
                        Some(0) => 0,
                        Some(&longest) if m == 1 || longest <= RUN_WORDS => 1,
                        _ => 2,
                    };
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

    #[test]
    fn k_segments_share_the_launches_and_bill_nothing_else_less() {
        let m = 4;
        // all longer than a run (count + scatter), all within one (scatter)
        for (lens, each) in [([1000, 300, 257], 2), ([33, 31, 200], 1)] {
            let data = lens.map(|len| words(len, len as u64));
            let (dev, _, together) = split_of(&data, m, LaunchOptions::default());
            assert_eq!(together.launches, each);

            let apart: Vec<SegmentedSplit> = data
                .iter()
                .map(|words| split_of(std::slice::from_ref(words), m, LaunchOptions::default()).2)
                .collect();
            assert!(apart.iter().all(|split| split.launches == each));
            // the same bytes, atomics and groups; what is saved is launches
            let counters = apart.iter().fold(CounterSnapshot::default(), |sum, split| {
                sum.merged(split.counters)
            });
            assert_eq!(together.counters, counters);
            let apart_time: f64 = apart.iter().map(|split| split.sim_time).sum();
            let saved = f64::from((data.len() as u32 - 1) * each) * dev.spec().launch_overhead;
            assert!((apart_time - together.sim_time - saved).abs() < 1e-12);
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

    /// A device holding `keys` packed two a word in segment 0 and each of
    /// `pairs` in a word segment behind it.
    fn key_segments_of(
        keys: &[u32],
        pairs: &[Vec<u64>],
        m: usize,
    ) -> (Device, Vec<Segment>, DevSlice) {
        let total: usize = keys.len() + pairs.iter().map(Vec::len).sum::<usize>();
        let dev = Device::with_words(0, 2 * total + m * (1 + pairs.len()) + 32);
        let packed = dev.alloc(keys.len().div_ceil(2)).unwrap();
        dev.mem().h2d_keys(packed, keys);
        let mut segments = vec![Segment::keys(
            packed,
            keys.len(),
            dev.alloc(keys.len()).unwrap(),
        )];
        for words in pairs {
            let input = dev.alloc(words.len()).unwrap();
            dev.mem().h2d(input, words);
            segments.push(Segment::words(input, dev.alloc(words.len()).unwrap()));
        }
        let scratch = dev.alloc(m * segments.len()).unwrap();
        (dev, segments, scratch)
    }

    /// Differential against the words the host used to build: a segment
    /// of packed keys leaves the split as the split of `key << 32 | i`
    /// leaves it — bit for bit in `group_id` order, class by class as a
    /// multiset in the pool — alone and beside two segments of pairs, on
    /// half the input stream.
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
                            let got = dev.mem().d2h(segments[s].out());
                            let reference = ref_dev.mem().d2h(ref_segments[s].out());
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
                        // every pass reads a key as 4 bytes of a streamed
                        // word, where it read a query word
                        let reads = u64::from(split.launches);
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

    /// The mutation double tags a key with its offset inside the run: the
    /// first run's words are right, every later run's are not.
    #[test]
    fn run_offset_tags_differ_from_the_second_run_on() {
        for (len, differs) in [(RUN_WORDS, false), (RUN_WORDS + 1, true)] {
            let keys: Vec<u32> = (0..len as u32).collect();
            let split = |broken| {
                let (dev, mut segments, scratch) = key_segments_of(&keys, &[], 1);
                segments[0] = segments[0].tagging_run_offsets(broken);
                let opts = LaunchOptions::default();
                device_multisplit_segments(&dev, &segments, scratch, 1, opts, |_| 0);
                sorted(dev.mem().d2h(segments[0].out()))
            };
            assert_eq!(split(true) != split(false), differs, "len {len}");
        }
    }

    /// The split is never slower than the m-pass it replaces, nor issues
    /// more atomics — the run of `T` tiles is what the latter takes.
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
                    assert!(new.sim_time <= 0.6 * old.sim_time);
                    assert_eq!(new.counters.stream_bytes, 3 * 8 * (n as u64));
                    assert_eq!(old.counters.stream_bytes, 5 * 8 * (n as u64));
                }
            }
        }
    }
}
