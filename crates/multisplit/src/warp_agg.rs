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
//! This is one pass of the paper's m-pass multisplit
//! ([`crate::device_multisplit`]). The split the cascade runs
//! ([`crate::device_multisplit_segments`]) aggregates the same way, but
//! over a run of tiles and all `m` classes at once, so that its atomics
//! per word never exceed this kernel's.

use gpu_sim::{DevSlice, Device, GroupCtx, GroupSize, KernelStats, LaunchOptions};

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
    const G: usize = 32; // compaction always runs at warp width
    dev.launch(
        "warp_aggregated_compact",
        input.len().div_ceil(G),
        GroupSize::WARP,
        LaunchOptions::default(),
        |ctx: &GroupCtx| {
            let base_idx = ctx.group_id() * G;
            let lanes = (input.len() - base_idx).min(G) as u32;
            // streaming read of up to 32 consecutive elements
            let mut vals = [0u64; G];
            for (r, val) in vals.iter_mut().enumerate().take(lanes as usize) {
                *val = ctx.read_stream(input, base_idx + r);
            }
            let mask = ctx.ballot(|r| r < lanes && pred(vals[r as usize]));
            let keep = mask.count_ones();
            if keep == 0 {
                return;
            }
            // leader reserves the whole group's slots with one atomic
            let base = ctx.atomic_add(counter, 0, u64::from(keep));
            // each active lane writes at base + rank-among-active
            let mut written = 0u64;
            for r in 0..lanes {
                if mask & (1 << r) != 0 {
                    ctx.write_stream(output, (base + written) as usize, vals[r as usize]);
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
