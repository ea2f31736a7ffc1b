//! Conservation laws of the multi-GPU path: no stage of the distributed
//! cascade may create or destroy elements.
//!
//! Three layers (satellite of the concurrency-harness issue):
//!
//! 1. **Device multisplit** — the partition-ordered output is a
//!    permutation of the input, classes are pure, and the counts/offsets
//!    bookkeeping adds up.
//! 2. **The partition table** — Fig. 4's m×m table, each source's split
//!    counts a row, conserves totals: a row sums to its source's length, a
//!    column to its class's count in the union of the inputs, and the
//!    total to the union's length.
//! 3. **End-to-end `DistributedHashMap`** — after multisplit, all-to-all,
//!    and insert, the union of per-GPU table snapshots is exactly the
//!    input key multiset; erasing a subset leaves exactly the remainder.

use interconnect::Topology;
use multisplit::{device_multisplit, device_multisplit_segments, Segment, RUN_WORDS};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use warpdrive::{key_of, pack, Config, DistributedHashMap};

fn multiset(words: impl IntoIterator<Item = u64>) -> BTreeMap<u64, usize> {
    let mut m = BTreeMap::new();
    for w in words {
        *m.entry(w).or_insert(0) += 1;
    }
    m
}

/// One split segment: `counts` sum to the input's length and scan to
/// `offsets`, `split` holds the input's multiset, and each class's range
/// of it holds only that class.
fn check_split(
    data: &[u64],
    counts: &[u64],
    offsets: &[u64],
    split: &[u64],
    m: usize,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(counts.iter().sum::<u64>() as usize, data.len());
    // offsets are the exclusive scan of counts
    let mut running = 0u64;
    for c in 0..m {
        prop_assert_eq!(offsets[c], running, "class {}", c);
        for &w in &split[running as usize..][..counts[c] as usize] {
            prop_assert_eq!(w % m as u64, c as u64, "alien word in class {}", c);
        }
        running += counts[c];
    }
    prop_assert_eq!(
        multiset(split.iter().copied()),
        multiset(data.iter().copied())
    );
    Ok(())
}

/// The checker provably fails: a correct split passes, and three
/// hand-broken copies of it — two words swapped across a class boundary,
/// one word duplicated over its neighbour, one offset off by one — do not.
#[test]
fn the_split_checker_rejects_broken_splits() {
    let m = 3;
    let data: Vec<u64> = (0..100u64).map(|i| i * 7 + 1).collect();
    let split: Vec<u64> = (0..m as u64)
        .flat_map(|c| data.iter().copied().filter(move |w| w % m as u64 == c))
        .collect();
    let counts: Vec<u64> = (0..m as u64)
        .map(|c| data.iter().filter(|&&w| w % m as u64 == c).count() as u64)
        .collect();
    let offsets = multisplit::exclusive_scan(&counts);
    assert!(check_split(&data, &counts, &offsets, &split, m).is_ok());

    let boundary = offsets[1] as usize;
    let mut swapped = split.clone();
    swapped.swap(boundary - 1, boundary);
    assert!(check_split(&data, &counts, &offsets, &swapped, m).is_err());

    let mut duplicated = split.clone();
    duplicated[boundary + 1] = duplicated[boundary];
    assert!(check_split(&data, &counts, &offsets, &duplicated, m).is_err());

    let mut shifted = offsets.clone();
    shifted[1] += 1;
    assert!(check_split(&data, &counts, &shifted, &split, m).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Multisplit is a permutation: same multiset out as in, each class
    /// slice pure, counts summing to n and consistent with offsets — of
    /// the whole input as one segment by the paper's m-pass, and by the
    /// cascade's count + scatter split of each of the three segments two
    /// cuts make of it — the middle one as the cuts fall, or a run of
    /// 32·T words or one word off — in the launches those lengths take.
    #[test]
    fn multisplit_conserves_the_input_multiset(
        data in proptest::collection::vec(any::<u64>(), 1..900),
        m in 1usize..6,
        cut_a in 0usize..900,
        cut_b in 0usize..900,
        run in proptest::sample::select(vec![
            None,
            Some(RUN_WORDS - 1),
            Some(RUN_WORDS),
            Some(RUN_WORDS + 1),
        ]),
    ) {
        let class_of = move |w: u64| (w % m as u64) as u32;
        let dev = gpu_sim::Device::with_words(0, 4 * data.len() + 3 * m + 16);
        let input = dev.alloc(data.len()).unwrap();
        let out = dev.alloc(data.len()).unwrap();
        let scratch = dev.alloc(3 * m).unwrap();
        dev.mem().h2d(input, &data);
        let res = device_multisplit(&dev, input, out, scratch, m, class_of);
        prop_assert_eq!(res.counts.len(), m);
        check_split(&data, &res.counts, &res.offsets, &dev.mem().d2h(res.out), m)?;
        for c in 0..m {
            for &w in &dev.mem().d2h(res.class_slice(c)) {
                prop_assert_eq!(w % m as u64, c as u64, "alien word in class {}", c);
            }
        }

        // the three-segment cell: the same words, cut twice
        let lo = cut_a.min(cut_b).min(data.len());
        let hi = run.map_or(cut_a.max(cut_b), |run| lo + run).min(data.len());
        let out3 = dev.alloc(data.len()).unwrap();
        let cuts = [(0, lo), (lo, hi), (hi, data.len())]
            .map(|(from, to)| (input.sub(from, to - from), out3.sub(from, to - from)));
        let segments = cuts.map(|(seg_in, seg_out)| Segment::words(seg_in, seg_out));
        let launches = dev.lifetime_stats().launches;
        let opts = gpu_sim::LaunchOptions::default();
        let split = device_multisplit_segments(&dev, &segments, scratch, m, opts, class_of);
        // count + scatter, unless there is nothing to count
        let longest = cuts.iter().map(|(seg_in, _)| seg_in.len()).max().unwrap();
        let expected = if m == 1 || longest <= RUN_WORDS { 1 } else { 2 };
        prop_assert_eq!(dev.lifetime_stats().launches - launches, expected);
        for (s, (seg_in, seg_out)) in cuts.iter().enumerate() {
            let words = dev.mem().d2h(*seg_in);
            check_split(&words, split.counts(s), split.offsets(s), &dev.mem().d2h(*seg_out), m)?;
        }
    }

    /// Fig. 4's partition table is the sources' split counts, a row each:
    /// each of `m` sources splits its own words into `m` classes by the
    /// cascade's count + scatter split, and the table conserves what went
    /// in — a row sums to its source's length, a column (what the
    /// all-to-all hands partition `c`) to class `c`'s count in the union
    /// of the inputs, and the total to the union's length.
    #[test]
    fn the_split_counts_conserve_totals_as_a_partition_table(
        sources in proptest::collection::vec(
            proptest::collection::vec(any::<u64>(), 0..600),
            1..9,
        ),
    ) {
        let m = sources.len();
        let class_of = move |w: u64| (w % m as u64) as u32;
        let opts = gpu_sim::LaunchOptions::default();
        let rows: Vec<Vec<u64>> = sources
            .iter()
            .enumerate()
            .map(|(g, words)| {
                let dev = gpu_sim::Device::with_words(g, 2 * words.len() + m + 16);
                let input = dev.alloc(words.len()).unwrap();
                let out = dev.alloc(words.len()).unwrap();
                let scratch = dev.alloc(m).unwrap();
                dev.mem().h2d(input, words);
                let segment = [Segment::words(input, out)];
                let split = device_multisplit_segments(&dev, &segment, scratch, m, opts, class_of);
                split.counts(0).to_vec()
            })
            .collect();
        for (g, (row, words)) in rows.iter().zip(&sources).enumerate() {
            prop_assert_eq!(row.iter().sum::<u64>(), words.len() as u64, "source {}", g);
        }
        for c in 0..m {
            let column: u64 = rows.iter().map(|row| row[c]).sum();
            let union = sources.iter().flatten();
            let in_class = union.filter(|&&w| class_of(w) == c as u32).count();
            prop_assert_eq!(column, in_class as u64, "partition {}", c);
        }
        let total: u64 = rows.iter().flatten().sum();
        prop_assert_eq!(total, sources.iter().map(Vec::len).sum::<usize>() as u64);
    }

    /// End to end: multisplit + all-to-all + insert preserves the key
    /// multiset across the node, and each GPU holds only its partition.
    #[test]
    fn distributed_insert_conserves_keys_across_gpus(
        keys in proptest::collection::hash_set(1u32..1_000_000, 8..400),
        m in 2usize..5,
    ) {
        let keys: Vec<u32> = keys.into_iter().collect();
        let devices: Vec<_> = (0..m)
            .map(|i| Arc::new(gpu_sim::Device::with_words(i, 1 << 16)))
            .collect();
        let d = DistributedHashMap::new(
            devices,
            2048,
            Config::default(),
            Topology::p100_quad(m),
        )
        .unwrap();
        // arbitrary initial placement: round-robin over source GPUs
        let per_gpu: Vec<Vec<u64>> = (0..m)
            .map(|i| {
                keys.iter()
                    .enumerate()
                    .filter(|(j, _)| j % m == i)
                    .map(|(_, &k)| pack(k, k ^ 0xfeed))
                    .collect()
            })
            .collect();
        d.insert_device_sided(&per_gpu).unwrap();

        // union of the per-GPU tables == input key multiset
        let mut stored: Vec<u32> = Vec::new();
        for (gpu, map) in d.maps().iter().enumerate() {
            let snap = map.snapshot();
            for &(k, _) in &snap {
                // partition purity: GPU i owns exactly the keys with p(k)=i
                prop_assert_eq!(
                    d.partition().part(k) as usize, gpu,
                    "key {} stored off-partition on gpu {}", k, gpu
                );
            }
            stored.extend(snap.iter().map(|&(k, _)| k));
        }
        stored.sort_unstable();
        let mut want = keys.clone();
        want.sort_unstable();
        prop_assert_eq!(stored, want, "key multiset not conserved across the node");
    }

    /// Erasing a subset through the full cascade leaves exactly the
    /// remainder in the union of the per-GPU tables.
    #[test]
    fn distributed_erase_conserves_the_remainder(
        keys in proptest::collection::hash_set(1u32..500_000, 8..300),
        erase_every in 2usize..4,
    ) {
        let keys: Vec<u32> = keys.into_iter().collect();
        let devices: Vec<_> = (0..3)
            .map(|i| Arc::new(gpu_sim::Device::with_words(i, 1 << 16)))
            .collect();
        let mut d = DistributedHashMap::new(
            devices,
            2048,
            Config::default(),
            Topology::p100_quad(3),
        )
        .unwrap();
        let pairs: Vec<(u32, u32)> = keys.iter().map(|&k| (k, k)).collect();
        d.insert_from_host(&pairs).unwrap();
        let victims: Vec<u32> = keys.iter().step_by(erase_every).copied().collect();
        let erased = d.try_erase_from_host(&victims).unwrap().erased;
        prop_assert_eq!(erased as usize, victims.len());

        let mut stored: Vec<u32> = d
            .maps()
            .iter()
            .flat_map(|map| map.snapshot().into_iter().map(|(k, _)| k))
            .collect();
        stored.sort_unstable();
        let mut want: Vec<u32> = keys
            .iter()
            .filter(|k| !victims.contains(k))
            .copied()
            .collect();
        want.sort_unstable();
        prop_assert_eq!(stored, want, "erase broke conservation");
    }
}

/// What a host-sided call bills for PCIe is what crosses it — keys go up
/// 4 bytes each and pairs 8, a GPU's `n` values come down in `4n` bytes
/// and its found bits in `⌈n/8⌉`, hit flags 1 byte each — and the bytes of
/// its H2D stage are the bytes `DeviceMemory` moved for the upload. The
/// multisplit's bytes are what its kernels streamed: a key is read as half
/// a word by each pass and written as a word.
#[test]
fn host_sided_calls_bill_the_pcie_bytes_they_move() {
    use warpdrive::CascadeStage::{Multisplit, D2H, H2D};
    use warpdrive::{MapService, OpReport};
    let m = 4u64;
    let devices: Vec<_> = (0..m as usize)
        .map(|i| Arc::new(gpu_sim::Device::with_words(i, 1 << 17)))
        .collect();
    let topology = Topology::p100_quad(m as usize);
    // a retried transfer is billed again: no plan from the environment
    let cfg = Config::default().with_fault(gpu_sim::FaultPlan::default());
    let mut d = DistributedHashMap::new(devices.clone(), 4096, cfg, topology).unwrap();
    let uploaded = || -> u64 { devices.iter().map(|dev| dev.mem().uploaded_bytes()).sum() };
    let bytes = |report: &OpReport, stage| -> u64 {
        let of_stage = report.stages.iter().filter(|s| s.stage == stage);
        of_stage.map(|s| s.bytes).sum()
    };
    // What else the host copies onto the devices during a call in
    // `segments` lists, a chunk of which is longer than a run on every
    // GPU: every GPU's count pass leaves `m` class offsets per segment for
    // its scatter pass. The all-to-all and the answers' way back move
    // words device to device, uploading nothing.
    let beside_the_upload = |segments: u64| 8 * m * m * segments;
    let values_down =
        |chunks: [u64; 4]| -> u64 { chunks.iter().map(|n| 4 * n + n.div_ceil(8)).sum() };

    // 2 999 over 4 GPUs: three chunks of 750 and an odd one, of 749
    let pairs: Vec<(u32, u32)> = (0..2999u32).map(|i| (i * 7 + 3, i)).collect();
    let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
    let n = keys.len() as u64;

    let before = uploaded();
    let put = d.put_batch(&pairs).unwrap().report;
    assert_eq!((bytes(&put, H2D), bytes(&put, D2H)), (8 * n, 0));
    assert_eq!(
        uploaded() - before,
        bytes(&put, H2D) + beside_the_upload(1)
    );
    assert_eq!(bytes(&put, Multisplit), 3 * 8 * n);

    let before = uploaded();
    let get = d.get_batch(&keys).unwrap();
    assert!(get.values.iter().all(Option::is_some));
    assert_eq!(
        (bytes(&get.report, H2D), bytes(&get.report, D2H)),
        (4 * n, values_down([750, 750, 750, 749]))
    );
    assert_eq!(
        uploaded() - before,
        bytes(&get.report, H2D) + beside_the_upload(1)
    );
    let halves = 3 * 750 + 750; // the odd chunk's last word is half full
    assert_eq!(bytes(&get.report, Multisplit), 2 * 4 * halves + 8 * n);

    // the mixed round: 1 501 reads, 1 999 puts, 501 of them late
    let reads = &keys[..1501];
    let puts: Vec<(u32, u32)> = pairs[1000..].iter().map(|&(k, v)| (k, v + 1)).collect();
    let before = uploaded();
    let round = d.get_put_batch(reads, &puts).unwrap().report;
    let (r, p) = (reads.len() as u64, puts.len() as u64);
    assert_eq!(
        (bytes(&round, H2D), bytes(&round, D2H)),
        (4 * r + 8 * p, values_down([376, 376, 376, 373]))
    );
    assert_eq!(
        uploaded() - before,
        bytes(&round, H2D) + beside_the_upload(3)
    );

    let victims = &keys[..1499];
    let before = uploaded();
    let del = d.delete_batch(victims).unwrap();
    assert_eq!(del.erased, 1499);
    let v = victims.len() as u64;
    assert_eq!(
        (bytes(&del.report, H2D), bytes(&del.report, D2H)),
        (4 * v, v)
    );
    assert_eq!(
        uploaded() - before,
        bytes(&del.report, H2D) + beside_the_upload(1)
    );
}

/// Snapshot words of every GPU reconstruct the exact (key, value) pairs —
/// a deterministic smoke companion to the property tests above.
#[test]
fn snapshot_words_round_trip_pack() {
    let devices: Vec<_> = (0..2)
        .map(|i| Arc::new(gpu_sim::Device::with_words(i, 1 << 15)))
        .collect();
    let d =
        DistributedHashMap::new(devices, 1024, Config::default(), Topology::p100_quad(2)).unwrap();
    let pairs: Vec<(u32, u32)> = (0..200u32).map(|i| (i * 7 + 1, i)).collect();
    d.insert_from_host(&pairs).unwrap();
    let mut got: Vec<(u32, u32)> = d
        .maps()
        .iter()
        .flat_map(warpdrive::GpuHashMap::snapshot)
        .collect();
    got.sort_unstable();
    let mut want = pairs;
    want.sort_unstable();
    assert_eq!(got, want);
    // sanity on the packing helpers used throughout
    assert_eq!(key_of(pack(7, 70)), 7);
}
