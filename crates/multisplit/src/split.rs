//! The paper's m-pass binary multisplit.
//!
//! "Our approach is based on a simpler technique that consecutively
//! computes m binary splits (one class versus the rest) of keys in global
//! memory … using a warp-aggregated atomic counter" (§IV-B). Pass `c`
//! compacts all elements of class `c` behind the elements of classes
//! `< c` in the output buffer, so after `m` passes the buffer is
//! partition-ordered and the per-class counts/offsets fall out of the
//! counters.
//!
//! A pass is one launch however many independent **segments** it splits
//! ([`device_multisplit_segments`]): each segment has its own input,
//! output, counter word, counts and offsets, and all of them share the
//! `m` launches — what lets a cascade carry its query words and its
//! pairs through one multisplit instead of two (a small batch pays for
//! launches, §V-B, not for bytes). [`device_multisplit`] is the
//! one-segment case.

use crate::warp_agg::{warp_aggregated_compact_segments, CompactSegment};
use gpu_sim::{DevSlice, Device, KernelStats};

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

/// Outcome of a segment-batched device multisplit: per segment what a
/// [`SplitResult`] holds, in two flat segment-major tables, and the
/// stats of the `m` launches all segments shared.
#[derive(Debug, Clone)]
pub struct SegmentedSplit {
    m: usize,
    counts: Vec<u64>,
    offsets: Vec<u64>,
    /// Merged stats over all passes (counters add, simulated times add).
    pub stats: KernelStats,
}

impl SegmentedSplit {
    /// Number of elements in each class of segment `s`.
    #[must_use]
    pub fn counts(&self, s: usize) -> &[u64] {
        &self.counts[s * self.m..(s + 1) * self.m]
    }

    /// Exclusive offsets of each class within segment `s`'s output.
    #[must_use]
    pub fn offsets(&self, s: usize) -> &[u64] {
        &self.offsets[s * self.m..(s + 1) * self.m]
    }
}

/// Splits the words of `input` into `m` classes given by `class_of`,
/// writing the partition-ordered result to `out` (a caller-allocated
/// double buffer of at least `input.len()` words, as in Fig. 4's
/// out-of-place scheme). `scratch` must hold ≥ 1 word for the aggregated
/// counter.
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
    let split = device_multisplit_segments(dev, &[(input, out)], scratch, m, class_of);
    SplitResult {
        out: out.sub(0, input.len()),
        counts: split.counts,
        offsets: split.offsets,
        stats: split.stats,
    }
}

/// Splits each `(input, out)` segment of `segments` into `m` classes
/// given by `class_of`, every segment on its own — its own
/// partition-ordered `out` (at least `input.len()` words), counts and
/// offsets — in the **same `m` launches**: pass `c` compacts class `c`
/// of all segments at once. `scratch` must hold one counter word per
/// segment.
///
/// # Panics
/// Panics if `m == 0`, an `out` is shorter than its `input`, `scratch`
/// is shorter than `segments`, or `class_of` returns a class ≥ `m`.
pub fn device_multisplit_segments<F>(
    dev: &Device,
    segments: &[(DevSlice, DevSlice)],
    scratch: DevSlice,
    m: usize,
    class_of: F,
) -> SegmentedSplit
where
    F: Fn(u64) -> u32 + Sync,
{
    assert!(m > 0, "need at least one class");
    assert!(
        segments.iter().all(|(input, out)| out.len() >= input.len()),
        "output buffer too small"
    );
    assert!(
        scratch.len() >= segments.len(),
        "need a counter word per segment"
    );
    let counters = scratch.sub(0, segments.len());

    // each segment's window of its output still to fill: a pass appends
    // its class behind the classes before it
    let mut pass: Vec<CompactSegment> = segments
        .iter()
        .enumerate()
        .map(|(s, &(input, output))| CompactSegment {
            input,
            output,
            counter: counters.sub(s, 1),
        })
        .collect();
    let mut counts = vec![0u64; segments.len() * m];
    let mut offsets = vec![0u64; segments.len() * m];
    let mut stats: Option<KernelStats> = None;
    for c in 0..m {
        dev.mem().fill(counters, 0);
        let launch = warp_aggregated_compact_segments(dev, &pass, |w| {
            let cls = class_of(w);
            assert!(cls < m as u32, "class {cls} out of range (m = {m})");
            cls == c as u32
        });
        let kept = dev.mem().d2h(counters);
        for (s, (seg, &kept)) in pass.iter_mut().zip(&kept).enumerate() {
            let at = s * m + c;
            counts[at] = kept;
            if c > 0 {
                offsets[at] = offsets[at - 1] + counts[at - 1];
            }
            seg.output = seg
                .output
                .sub(kept as usize, seg.output.len() - kept as usize);
        }
        stats = Some(match stats {
            None => launch,
            Some(s) => s.merged(&launch),
        });
    }
    for (s, (input, _)) in segments.iter().enumerate() {
        let last = (s + 1) * m - 1;
        assert_eq!(
            (offsets[last] + counts[last]) as usize,
            input.len(),
            "classes must cover every element of segment {s}"
        );
    }
    SegmentedSplit {
        m,
        counts,
        offsets,
        stats: stats.expect("m > 0 guarantees at least one pass"),
    }
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

    /// Ragged segment lengths around the warp width. Every launch below
    /// stays under 1 024 groups — one chunk of the pool, so one worker
    /// runs it whatever the pool's size and its counters repeat exactly.
    const LENS: [usize; 6] = [0, 1, 31, 32, 33, 1000];

    fn words(len: usize, salt: u64) -> Vec<u64> {
        (0..len as u64).map(|i| (i * 31 + salt) % 1009).collect()
    }

    /// A device holding each of `data` in a segment of its own: the
    /// `(input, out)` pairs and a counter word per segment.
    fn segments_of(data: &[Vec<u64>]) -> (Device, Vec<(DevSlice, DevSlice)>, DevSlice) {
        let total: usize = data.iter().map(Vec::len).sum();
        let dev = Device::with_words(0, 2 * total + data.len() + 16);
        let segments = data
            .iter()
            .map(|words| {
                let input = dev.alloc(words.len()).unwrap();
                dev.mem().h2d(input, words);
                (input, dev.alloc(words.len()).unwrap())
            })
            .collect();
        let scratch = dev.alloc(data.len()).unwrap();
        (dev, segments, scratch)
    }

    #[test]
    fn every_segment_is_split_on_its_own() {
        let m = 4;
        let class_of = |w: u64| (w % m as u64) as u32;
        for k in 1..=3 {
            for first in 0..LENS.len() {
                // k consecutive lengths of the ragged list, wrapping
                let data: Vec<Vec<u64>> = (0..k)
                    .map(|s| words(LENS[(first + s) % LENS.len()], s as u64))
                    .collect();
                let (dev, segments, scratch) = segments_of(&data);
                let split = device_multisplit_segments(&dev, &segments, scratch, m, class_of);
                for (s, (words, &(_, out))) in data.iter().zip(&segments).enumerate() {
                    let got = dev.mem().d2h(out);
                    let (counts, offsets) = (split.counts(s), split.offsets(s));
                    assert_eq!(offsets, exclusive_scan(counts), "k={k} segment {s}");
                    for c in 0..m {
                        let class = &got[offsets[c] as usize..][..counts[c] as usize];
                        assert!(class.iter().all(|&w| class_of(w) == c as u32));
                        let truth = words.iter().filter(|&&w| class_of(w) == c as u32).count();
                        assert_eq!(counts[c], truth as u64, "k={k} segment {s} class {c}");
                    }
                    let (mut a, mut b) = (got, words.clone());
                    a.sort_unstable();
                    b.sort_unstable();
                    assert_eq!(a, b, "k={k} segment {s}: multiset");
                }
            }
        }
    }

    #[test]
    fn one_segment_is_device_multisplit_field_by_field() {
        for len in LENS {
            let data = [words(len, 7)];
            let class_of = |w: u64| (w % 3) as u32;
            let (dev, segments, scratch) = segments_of(&data);
            let seg = device_multisplit_segments(&dev, &segments, scratch, 3, class_of);
            let (dev, segments, scratch) = segments_of(&data);
            let (input, out) = segments[0];
            let one = device_multisplit(&dev, input, out, scratch, 3, class_of);
            assert_eq!(seg.counts(0), one.counts);
            assert_eq!(seg.offsets(0), one.offsets);
            let (a, b) = (&seg.stats, &one.stats);
            assert_eq!(a.name, b.name);
            assert_eq!(a.counters, b.counters, "len {len}");
            assert_eq!(format!("{:?}", a.breakdown), format!("{:?}", b.breakdown));
            assert_eq!(a.sim_time.to_bits(), b.sim_time.to_bits(), "len {len}");
            assert_eq!(a.group_size, b.group_size);
            assert_eq!(a.num_groups, b.num_groups);
            assert_eq!(dev.lifetime_stats().launches, 3);
        }
    }

    #[test]
    fn k_segments_share_the_m_launches_and_bill_nothing_else_less() {
        let m = 4;
        let class_of = |w: u64| (w % m as u64) as u32;
        let data = [words(1000, 1), words(33, 2), words(31, 3)];
        let (dev, segments, scratch) = segments_of(&data);
        let together = device_multisplit_segments(&dev, &segments, scratch, m, class_of);
        assert_eq!(dev.lifetime_stats().launches, m as u64);

        let (dev, segments, scratch) = segments_of(&data);
        let apart = segments
            .iter()
            .map(|&(input, out)| device_multisplit(&dev, input, out, scratch, m, class_of).stats)
            .reduce(|a, b| a.merged(&b))
            .unwrap();
        assert_eq!(dev.lifetime_stats().launches, (data.len() * m) as u64);
        // the same bytes, atomics and groups; what is saved is launches
        assert_eq!(together.stats.counters, apart.counters);
        assert_eq!(together.stats.num_groups, apart.num_groups);
        let saved = ((data.len() - 1) * m) as f64 * dev.spec().launch_overhead;
        assert!((apart.sim_time - together.stats.sim_time - saved).abs() < 1e-12);
    }

    #[test]
    fn empty_segment_beside_a_full_one_is_fine() {
        let data = [Vec::new(), words(100, 5), Vec::new()];
        let (dev, segments, scratch) = segments_of(&data);
        let split = device_multisplit_segments(&dev, &segments, scratch, 2, |w| (w % 2) as u32);
        assert_eq!(split.counts(0), [0, 0]);
        assert_eq!(split.counts(2), [0, 0]);
        assert_eq!(split.counts(1).iter().sum::<u64>(), 100);
        let mut got = dev.mem().d2h(segments[1].1);
        got.sort_unstable();
        let mut want = data[1].clone();
        want.sort_unstable();
        assert_eq!(got, want);
    }
}
