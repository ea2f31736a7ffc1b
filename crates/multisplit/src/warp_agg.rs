//! Warp-aggregated atomic compaction (Adinetz, ref. \[23\] of the paper).
//!
//! Filtering elements into a dense output with one `atomicAdd` *per
//! element* serializes on the counter; the warp-aggregated variant issues
//! one `atomicAdd` *per group*: the group ballots the predicate, the
//! leader reserves `popcount(mask)` output slots with a single atomic,
//! broadcasts the base offset, and every active lane writes to
//! `base + (number of active lanes below it)` — consecutive slots, hence a
//! coalesced store.
//!
//! One launch compacts any number of independent **segments**
//! ([`warp_aggregated_compact_segments`]): the grid is the segments'
//! warps laid end to end, and a group works on the segment its
//! `group_id` falls into — a launch parameter, so no tag word travels
//! with the data and a segment bills exactly the bytes, atomics and
//! groups a launch of its own would. What k segments save over k
//! launches is k − 1 launch overheads, which is all a small batch pays
//! (§V-B). [`warp_aggregated_compact`] is the one-segment case.

use gpu_sim::{DevSlice, Device, GroupCtx, GroupSize, KernelStats, LaunchOptions};

/// Compaction always runs at warp width.
const G: usize = 32;

/// One independently compacted stream of a segment-batched launch.
#[derive(Debug, Clone, Copy)]
pub struct CompactSegment {
    /// The words to filter.
    pub input: DevSlice,
    /// Where the kept words go, densely from index 0; at least as long
    /// as the number of kept words.
    pub output: DevSlice,
    /// The segment's own single-word atomic counter, zeroed by the
    /// caller; its final value is the number of kept words.
    pub counter: DevSlice,
}

impl CompactSegment {
    /// Groups (warps) the segment occupies in the grid.
    fn warps(&self) -> usize {
        self.input.len().div_ceil(G)
    }
}

/// Compacts all words of `input` satisfying `pred` into `output`,
/// reserving space through the single-word atomic counter `counter`
/// (which must be zeroed by the caller; its final value is the number of
/// kept elements). Returns the kernel stats; the element order within the
/// output is nondeterministic across groups (as on real hardware) but
/// deterministic *within* a group.
///
/// # Panics
/// Panics if `output` is shorter than the number of kept elements
/// (detected at write time via slice bounds in debug builds; the caller
/// sizes `output` ≥ `input` in all our uses).
pub fn warp_aggregated_compact<P>(
    dev: &Device,
    input: DevSlice,
    output: DevSlice,
    counter: DevSlice,
    pred: P,
) -> KernelStats
where
    P: Fn(u64) -> bool + Sync,
{
    let segment = CompactSegment {
        input,
        output,
        counter,
    };
    warp_aggregated_compact_segments(dev, &[segment], pred)
}

/// Compacts every segment of `segments` by `pred` in **one** launch, each
/// into its own output through its own counter, as
/// [`warp_aggregated_compact`] would one at a time. An empty segment
/// occupies no group.
///
/// # Panics
/// As [`warp_aggregated_compact`], per segment.
pub fn warp_aggregated_compact_segments<P>(
    dev: &Device,
    segments: &[CompactSegment],
    pred: P,
) -> KernelStats
where
    P: Fn(u64) -> bool + Sync,
{
    let num_groups = segments.iter().map(CompactSegment::warps).sum();
    dev.launch(
        "warp_aggregated_compact",
        num_groups,
        GroupSize::new(G as u32),
        LaunchOptions::default(),
        |ctx: &GroupCtx| {
            // the segment this group's id falls into, and its warp within
            let mut warp = ctx.group_id();
            let mut rest = segments.iter();
            let seg = loop {
                match rest.next() {
                    Some(seg) if warp < seg.warps() => break seg,
                    Some(seg) => warp -= seg.warps(),
                    None => unreachable!("the grid is exactly the segments' warps"),
                }
            };
            let base_idx = warp * G;
            let lanes = (seg.input.len() - base_idx).min(G) as u32;
            // streaming read of up to 32 consecutive elements
            let mut vals = [0u64; G];
            for (r, val) in vals.iter_mut().enumerate().take(lanes as usize) {
                *val = ctx.read_stream(seg.input, base_idx + r);
            }
            let mask = ctx.ballot(|r| r < lanes && pred(vals[r as usize]));
            let keep = mask.count_ones();
            if keep == 0 {
                return;
            }
            // leader reserves the whole group's slots with one atomic
            let base = ctx.atomic_add(seg.counter, 0, u64::from(keep));
            // each active lane writes at base + rank-among-active
            let mut written = 0u64;
            for r in 0..lanes {
                if mask & (1 << r) != 0 {
                    ctx.write_stream(seg.output, (base + written) as usize, vals[r as usize]);
                    written += 1;
                }
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::Device;

    fn setup(n: usize) -> (Device, DevSlice, DevSlice, DevSlice) {
        let dev = Device::with_words(0, 4 * n + 8);
        let input = dev.alloc(n).unwrap();
        let output = dev.alloc(n).unwrap();
        let counter = dev.alloc(1).unwrap();
        dev.mem().fill(counter, 0);
        (dev, input, output, counter)
    }

    #[test]
    fn keeps_exactly_the_matching_elements() {
        let n = 1000;
        let (dev, input, output, counter) = setup(n);
        let data: Vec<u64> = (0..n as u64).collect();
        dev.mem().h2d(input, &data);
        let stats = warp_aggregated_compact(&dev, input, output, counter, |w| w % 3 == 0);
        let kept = dev.mem().d2h(counter)[0] as usize;
        let expected: Vec<u64> = data.iter().copied().filter(|w| w % 3 == 0).collect();
        assert_eq!(kept, expected.len());
        let mut out = dev.mem().d2h(output)[..kept].to_vec();
        out.sort_unstable();
        assert_eq!(out, expected);
        assert!(stats.counters.atomic_ops > 0);
    }

    #[test]
    fn one_atomic_per_nonempty_group_not_per_element() {
        let n = 32 * 64; // 64 full warps
        let (dev, input, output, counter) = setup(n);
        let data: Vec<u64> = vec![1; n]; // everything matches
        dev.mem().h2d(input, &data);
        let stats = warp_aggregated_compact(&dev, input, output, counter, |w| w == 1);
        // 64 atomics, not 2048 — the whole point of the technique
        assert_eq!(stats.counters.atomic_ops, 64);
        assert_eq!(dev.mem().d2h(counter)[0], n as u64);
    }

    #[test]
    fn empty_match_issues_no_atomics() {
        let n = 256;
        let (dev, input, output, counter) = setup(n);
        dev.mem().h2d(input, &vec![7u64; n]);
        let stats = warp_aggregated_compact(&dev, input, output, counter, |w| w == 0);
        assert_eq!(stats.counters.atomic_ops, 0);
        assert_eq!(dev.mem().d2h(counter)[0], 0);
    }

    #[test]
    fn ragged_tail_handled() {
        let n = 100; // 3 warps + 4-lane tail
        let (dev, input, output, counter) = setup(n);
        let data: Vec<u64> = (0..n as u64).collect();
        dev.mem().h2d(input, &data);
        let _ = warp_aggregated_compact(&dev, input, output, counter, |w| w >= 96);
        let kept = dev.mem().d2h(counter)[0];
        assert_eq!(kept, 4);
        let mut out = dev.mem().d2h(output)[..4].to_vec();
        out.sort_unstable();
        assert_eq!(out, vec![96, 97, 98, 99]);
    }

    #[test]
    fn segments_compact_independently_in_one_launch() {
        // three segments, the middle one empty, the last with a ragged tail
        let lens = [64usize, 0, 40];
        let dev = Device::with_words(0, 512);
        let segments: Vec<CompactSegment> = lens
            .iter()
            .map(|&n| CompactSegment {
                input: dev.alloc(n).unwrap(),
                output: dev.alloc(n).unwrap(),
                counter: dev.alloc(1).unwrap(),
            })
            .collect();
        for (s, seg) in segments.iter().enumerate() {
            let data: Vec<u64> = (0..seg.input.len() as u64)
                .map(|i| i * 3 + s as u64)
                .collect();
            dev.mem().h2d(seg.input, &data);
            dev.mem().fill(seg.counter, 0);
        }
        let stats = warp_aggregated_compact_segments(&dev, &segments, |w| w % 2 == 0);
        assert_eq!(dev.lifetime_stats().launches, 1);
        assert_eq!(
            stats.num_groups,
            2 + 2,
            "the segments' warps laid end to end"
        );
        for seg in &segments {
            let want: Vec<u64> = dev
                .mem()
                .d2h(seg.input)
                .into_iter()
                .filter(|w| w % 2 == 0)
                .collect();
            let kept = dev.mem().d2h(seg.counter)[0] as usize;
            let mut got = dev.mem().d2h(seg.output)[..kept].to_vec();
            got.sort_unstable();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn concurrent_groups_never_lose_elements() {
        // many groups hammer one counter; atomicity must hold
        let n = 32 * 500;
        let (dev, input, output, counter) = setup(n);
        let data: Vec<u64> = (0..n as u64).map(|i| i * 2_654_435_761 % 1000).collect();
        dev.mem().h2d(input, &data);
        let _ = warp_aggregated_compact(&dev, input, output, counter, |w| w < 500);
        let kept = dev.mem().d2h(counter)[0] as usize;
        let expected = data.iter().filter(|&&w| w < 500).count();
        assert_eq!(kept, expected);
        let mut out = dev.mem().d2h(output)[..kept].to_vec();
        let mut exp: Vec<u64> = data.into_iter().filter(|&w| w < 500).collect();
        out.sort_unstable();
        exp.sort_unstable();
        assert_eq!(out, exp);
    }
}
