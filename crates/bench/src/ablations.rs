//! Ablations A1–A7: the design choices the paper argues for (§II, §IV)
//! and the two future-work items of §VI, one function per registry row.

use crate::runner::{host_map, scaled_rate, NodeBench};
use crate::table::TextTable;
use crate::{gops, p100_with_words, Opts, GROUP_SIZES};
use std::io::{self, Write};
use warpdrive::{Config, GpuHashMap, Layout, OpReport, ProbingScheme};
use workloads::Distribution;

/// **Ablation A1** — AOS versus SOA table layout (paper Fig. 1).
///
/// The paper argues AOS (packed 64-bit words) is cache-friendly and fully
/// atomic, while SOA pays an extra uncoalesced value access per query hit
/// and doubles the footprint for 4+4-byte pairs. This ablation quantifies
/// both effects on the same workload.
pub fn layout(opts: &Opts, out: &mut dyn Write) -> io::Result<()> {
    let n = opts.n;
    writeln!(
        out,
        "Ablation A1: AOS vs SOA layout, unique keys (n = {n})\n"
    )?;
    let mut t = TextTable::new(vec![
        "load",
        "layout",
        "insert G/s",
        "retrieve G/s",
        "table words",
    ]);
    let pairs = Distribution::Unique.generate(n, opts.seed);
    let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
    for &load in &[0.5, 0.8, 0.95] {
        let capacity = (n as f64 / load).ceil() as usize;
        for (layout, label, words_per_slot) in [(Layout::Aos, "AOS", 1), (Layout::Soa, "SOA", 2)] {
            let map = host_map(n, capacity, Config::default().with_layout(layout));
            let ins = map.insert_pairs(&pairs).expect("insert");
            let ret = map.try_retrieve(&keys).expect("retrieve");
            assert!(ret.values.iter().all(Option::is_some));
            t.row(vec![
                format!("{load:.2}"),
                label.to_owned(),
                gops(scaled_rate(ins.stats.sim_time, n, opts.modeled_n)),
                gops(scaled_rate(ret.report.time, n, opts.modeled_n)),
                (words_per_slot * map.capacity()).to_string(),
            ]);
        }
    }
    write!(out, "{t}")?;
    writeln!(
        out,
        "\nExpect: SOA retrieval slower (extra uncoalesced value read) at 2x footprint."
    )
}

/// **Ablation A2** — probing schemes (§II's strategy menu).
///
/// Compares the paper's hybrid scheme (chaotic span jumps + intra-window
/// linear probing) against pure linear and quadratic span advancement.
/// Linear probing suffers primary clustering at high loads: probe chains
/// grow super-linearly and insertion rates collapse, which is exactly why
/// the paper re-hashes between spans.
pub fn probing(opts: &Opts, out: &mut dyn Write) -> io::Result<()> {
    let n = opts.n;
    writeln!(
        out,
        "Ablation A2: probing schemes, unique keys, |g| = 4 (n = {n})\n"
    )?;
    let mut t = TextTable::new(vec![
        "load",
        "scheme",
        "insert G/s",
        "retrieve G/s",
        "probe steps/op",
    ]);
    let pairs = Distribution::Unique.generate(n, opts.seed);
    let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
    for &load in &[0.5, 0.8, 0.95, 0.99] {
        let capacity = (n as f64 / load).ceil() as usize;
        for (scheme, label) in [
            (ProbingScheme::Hybrid, "hybrid (paper)"),
            (ProbingScheme::Linear, "linear"),
            (ProbingScheme::Quadratic, "quadratic"),
        ] {
            let map = host_map(n, capacity, Config::default().with_probing(scheme));
            let ins = match map.insert_pairs(&pairs) {
                Ok(o) => o,
                Err(e) => {
                    t.row(vec![
                        format!("{load:.2}"),
                        label.to_owned(),
                        "FAILED".to_owned(),
                        "-".to_owned(),
                        format!("{e}"),
                    ]);
                    continue;
                }
            };
            let ret = map.try_retrieve(&keys).expect("retrieve").report;
            t.row(vec![
                format!("{load:.2}"),
                label.to_owned(),
                gops(scaled_rate(ins.stats.sim_time, n, opts.modeled_n)),
                gops(scaled_rate(ret.time, n, opts.modeled_n)),
                format!("{:.2}", ins.stats.counters.steps_per_group()),
            ]);
        }
    }
    write!(out, "{t}")?;
    writeln!(
        out,
        "\nExpect: linear probing degrades sharply at alpha >= 0.95 (primary clustering)."
    )
}

/// **Ablation A3** — the paper's m-pass warp-aggregated multisplit versus
/// the one-launch multisplit the cascade runs (§IV-B).
///
/// "Although warp-aggregated compression is slightly slower than
/// Ashkiani's full stack GPU multisplit implementation, we stick to our
/// basic approach. It only accounts for a minor portion of the overall
/// runtime." That holds for the paper's 2²⁴-element batches; a small
/// batch pays for the `m` launches (§V-B), which is why the cascade
/// splits in one, its runs scanning their class counts by decoupled
/// look-back. This ablation measures both kernels on the same words.
pub fn multisplit(opts: &Opts, out: &mut dyn Write) -> io::Result<()> {
    use multisplit::{device_multisplit, device_multisplit_segments, scratch_words, Segment};
    let n = opts.n;
    writeln!(
        out,
        "Ablation A3: multisplit strategies, uniform keys (n = {n})\n"
    )?;
    let mut t = TextTable::new(vec![
        "m",
        "strategy",
        "launches",
        "sim us",
        "GB/s accumulated",
    ]);
    let pairs = Distribution::Uniform.generate(n, opts.seed);
    let words: Vec<u64> = pairs
        .iter()
        .map(|&(k, v)| (u64::from(k) << 32) | u64::from(v))
        .collect();

    for m in [2usize, 4, 8] {
        let part = hashes::PartitionFn::new(m as u32, 7);
        let class = move |w: u64| part.part((w >> 32) as u32);
        let dev = p100_with_words(0, 2 * n + scratch_words(m, [n]) + 64);
        let input = dev.alloc(n).expect("input");
        let output = dev.alloc(n).expect("output");
        let scratch = dev.alloc(scratch_words(m, [n])).expect("counters and descriptors");
        dev.mem().h2d(input, &words);
        // the bytes are the ones the kernels billed as streamed
        let mut row = |strategy: &str, launches: usize, sim_time: f64, bytes: u64| {
            t.row(vec![
                m.to_string(),
                strategy.to_owned(),
                launches.to_string(),
                format!("{:.1}", sim_time * 1e6),
                format!("{:.0}", bytes as f64 / sim_time / 1e9),
            ]);
        };

        let paper = device_multisplit(&dev, input, output, scratch, m, class);
        row(
            "binary warp-agg (paper)",
            m,
            paper.stats.sim_time,
            paper.stats.counters.stream_bytes,
        );
        let cascade = device_multisplit_segments(
            &dev,
            &[Segment::words(input, output)],
            scratch,
            m,
            gpu_sim::LaunchOptions::default(),
            class,
        );
        row(
            "look-back (cascade)",
            cascade.launches as usize,
            cascade.sim_time,
            cascade.counters.stream_bytes,
        );
    }
    write!(out, "{t}")?;
    writeln!(
        out,
        "\nExpect: the m-pass grows with m in launches and bytes, the \
         look-back split stays at one launch and 3n words, growing with m \
         only by its runs' windows of descriptors (32m words a run); at the \
         paper's batch sizes both are minor next to insertion, which is the \
         paper's point."
    )
}

/// **Ablation A4** — multi-GPU distribution strategies (§IV-B's list).
///
/// The paper enumerates four options and argues for *distributed
/// multisplit transposition*. The practical alternative is *unstructured
/// distribution* (skip multisplit and transposition entirely) — inserts
/// get cheaper, but querying must broadcast every key to all m GPUs
/// because nothing is known about placement. This ablation measures that
/// trade-off.
pub fn distribution(opts: &Opts, out: &mut dyn Write) -> io::Result<()> {
    const LOAD: f64 = 0.90;
    const M: usize = 4;
    let n = (opts.n / M) * M;
    let scale = opts.modeled_n as f64 / n as f64;
    writeln!(
        out,
        "Ablation A4: distribution strategies over {M} GPUs, unique keys (n = {n})\n"
    )?;
    let per = n / M;
    let pairs = Distribution::Unique.generate(n, opts.seed);
    let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();

    let mut t = TextTable::new(vec![
        "strategy",
        "insert G/s",
        "query G/s",
        "query probes/key",
    ]);

    // strategy 1: multisplit transposition (the paper's)
    {
        let mut node = NodeBench::new(M, per, LOAD, Config::default());
        let (ins, ret) = node.device_round(&pairs, None);
        assert!(ret.values.iter().flatten().all(Option::is_some));
        t.row(vec![
            "multisplit transposition (paper)".to_owned(),
            gops(ins.modeled_ops_per_sec(scale)),
            gops(ret.applied.report.modeled_ops_per_sec(scale)),
            "1 GPU each".to_owned(),
        ]);
    }

    // strategy 2: unstructured — each GPU keeps its chunk; queries hit
    // every GPU because placement is unknown
    {
        let cap = (per as f64 / LOAD).ceil() as usize;
        let maps: Vec<GpuHashMap> = (0..M)
            .map(|i| {
                let dev = p100_with_words(i, cap + 8 * per + 4096);
                GpuHashMap::new(dev, cap, Config::default()).expect("map")
            })
            .collect();
        let mut ins_worst = 0.0f64;
        for (map, chunk) in maps.iter().zip(pairs.chunks(per)) {
            let outcome = map.insert_pairs(chunk).expect("insert");
            ins_worst = ins_worst.max(outcome.stats.sim_time);
        }
        // query: broadcast all keys to all m GPUs (each GPU probes all)
        let mut ret_worst = 0.0f64;
        let mut found = vec![false; keys.len()];
        for map in &maps {
            let ret = map.try_retrieve(&keys).expect("broadcast retrieve");
            ret_worst = ret_worst.max(ret.report.time);
            for (i, r) in ret.values.iter().enumerate() {
                found[i] |= r.is_some();
            }
        }
        assert!(found.iter().all(|&f| f));
        t.row(vec![
            "unstructured (broadcast queries)".to_owned(),
            gops(n as f64 * scale / (ins_worst * scale)),
            gops(n as f64 * scale / (ret_worst * scale)),
            format!("{M} GPUs each"),
        ]);
    }

    write!(out, "{t}")?;
    writeln!(
        out,
        "\nExpect: unstructured insertion is slightly faster (no multisplit \
         or all-to-all), but every query probes all {M} GPUs — aggregate \
         query throughput collapses by ~{M}x, the paper's argument for the \
         transposition cascade."
    )
}

/// **Ablation A5** — hash-function families (§V-A / §II theory).
///
/// The paper selects the MurmurHash3 finalizer and the Mueller hash for
/// their avalanche quality; §II recalls that probing guarantees depend on
/// the family's independence (tabulation hashing behaves 5-independent
/// for linear probing). This ablation reports avalanche bias and the
/// probe-length distributions each family produces on a real table, plus
/// the pathological identity "hash" for contrast.
pub fn hash(opts: &Opts, out: &mut dyn Write) -> io::Result<()> {
    use hashes::{avalanche::avalanche, HashFn32, Hasher32, Tabulation32};
    let n = opts.n;
    writeln!(out, "Ablation A5: hash families (n = {n})\n")?;

    // avalanche quality
    let mut q = TextTable::new(vec!["function", "max bias", "mean bias"]);
    let tab = Tabulation32::new(opts.seed);
    let fns: [(&str, &dyn Hasher32); 4] = [
        ("murmur fmix32", &HashFn32::Murmur),
        ("mueller", &HashFn32::Mueller),
        ("tabulation", &tab),
        ("identity", &HashFn32::Identity),
    ];
    for (name, h) in fns {
        let m = avalanche(h, 4000);
        q.row(vec![
            name.to_owned(),
            format!("{:.3}", m.max_bias()),
            format!("{:.3}", m.mean_bias()),
        ]);
    }
    write!(out, "{q}")?;

    // probe behaviour on a real table at high load. The effective primary
    // hash is controlled by feeding keys through fmix32's inverse: the
    // map then "sees" the raw key as its primary hash value. Two inputs:
    // sequential keys (identity's *best* case — perfectly spread) and
    // strided keys (its worst — everything lands on a few sectors).
    writeln!(
        out,
        "\nInsertion at alpha = 0.95 (probe steps reveal first-probe quality):"
    )?;
    let mut t = TextTable::new(vec![
        "family / input",
        "insert G/s",
        "probe steps/op",
        "failures",
    ]);
    let capacity = (n as f64 / 0.95).ceil() as usize;
    let sequential: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, i ^ 0x5555)).collect();
    let strided: Vec<(u32, u32)> = (0..n as u32)
        .map(|i| (i.wrapping_mul(1 << 12).wrapping_add(5), i))
        .collect();
    #[allow(clippy::type_complexity)] // (label, input, identity-hash?) rows
    let cases: [(&str, &[(u32, u32)], bool); 4] = [
        ("murmur, sequential", &sequential, false),
        ("murmur, strided", &strided, false),
        ("identity, sequential", &sequential, true),
        ("identity, strided", &strided, true),
    ];
    for (label, input, identity) in cases {
        let map = host_map(n, capacity, Config::default());
        let effective: Vec<(u32, u32)> = if identity {
            input
                .iter()
                .map(|&(k, v)| (hashes::murmur::fmix32_inverse(k), v))
                .collect()
        } else {
            input.to_vec()
        };
        match map.insert_pairs(&effective) {
            Ok(ins) => t.row(vec![
                label.to_owned(),
                gops(scaled_rate(ins.stats.sim_time, n, opts.modeled_n)),
                format!("{:.2}", ins.stats.counters.steps_per_group()),
                "0".to_owned(),
            ]),
            Err(e) => t.row(vec![
                label.to_owned(),
                "-".to_owned(),
                "-".to_owned(),
                format!("{e}"),
            ]),
        }
    }
    write!(out, "{t}")?;
    writeln!(
        out,
        "\nExpect: murmur is input-insensitive; identity matches it on \
         sequential keys but degrades on strided keys (weak first probes, \
         rescued only by the chaotic secondary hash)."
    )?;

    // Zipf hot keys: distribution resilience of the workload generators
    let z = Distribution::paper_zipf().generate(n.min(1 << 16), opts.seed);
    let distinct: std::collections::HashSet<u32> = z.iter().map(|p| p.0).collect();
    writeln!(
        out,
        "\nzipf sanity: {} elements -> {} distinct keys (hot keys scattered by Feistel)",
        z.len(),
        distinct.len()
    )
}

/// **Ablation A6 (future work, §VI)** — dynamic group-size scaling.
///
/// The paper suggests "a heuristic which dynamically scales the group
/// size |g| with the current load factor". `warpdrive::recommend_group_size`
/// is a traffic-minimizing one; this harness fills a table to α = 0.97 in
/// batches and compares re-selecting |g| before every batch against every
/// fixed group size on total simulated insertion time.
pub fn adaptive(opts: &Opts, out: &mut dyn Write) -> io::Result<()> {
    use warpdrive::{recommend_group_size, GroupSize};
    let n = opts.n;
    let capacity = (n as f64 / 0.97).ceil() as usize;
    let batches = 16;
    let batch = n / batches;
    let p100 = gpu_sim::DeviceSpec::p100();
    writeln!(
        out,
        "Ablation A6: adaptive |g| vs fixed, filling to alpha = 0.97 in {batches} batches (n = {n})\n"
    )?;

    // what the heuristic recommends across the load range
    let mut rec = TextTable::new(vec!["alpha", "recommended |g|"]);
    for a in [0.0, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99] {
        rec.row(vec![format!("{a:.2}"), recommend_group_size(a).to_string()]);
    }
    writeln!(out, "{rec}")?;

    let pairs = Distribution::Unique.generate(n, opts.seed);
    let mut t = TextTable::new(vec!["policy", "total sim ms (net of launches)"]);
    // total insert time of the fill, net of its one launch per batch;
    // `pick` chooses the next batch's group size from the load factor
    let fill = |pick: &mut dyn FnMut(f64) -> u32| -> f64 {
        let mut map = host_map(n, capacity, Config::default());
        let mut total = 0.0;
        for chunk in pairs.chunks(batch) {
            map.set_group_size(GroupSize::new(pick(map.load_factor())));
            let ins = map.insert_pairs(chunk).expect("insert");
            total += p100.net_of_launches(ins.stats.sim_time, 1);
        }
        total
    };
    for g in GROUP_SIZES {
        let total = fill(&mut |_| g);
        t.row(vec![
            format!("fixed |g| = {g}"),
            format!("{:.4}", total * 1e3),
        ]);
    }
    let mut switches = Vec::new();
    let total = fill(&mut |alpha| {
        switches.push(recommend_group_size(alpha).get());
        switches[switches.len() - 1]
    });
    t.row(vec![
        format!("adaptive ({switches:?})"),
        format!("{:.4}", total * 1e3),
    ]);
    write!(out, "{t}")?;
    writeln!(
        out,
        "\nFinding: with sector-aligned windows the traffic optimum pins \
         to the sector width |g| = 4 across nearly the whole load range, \
         so the adaptive policy ~matches the best fixed choice and the \
         paper's open question has a boring-but-useful answer."
    )
}

/// **Ablation A7 (future work, §VI)** — partitioning high-capacity maps.
///
/// "A possible workaround … could be the partitioning of high capacity
/// hash maps into several smaller hash maps each of size ≤ 2 GB." That
/// table is a `warpdrive::DistributedHashMap` over four partitions of one
/// device (`Topology::one_device`), a quarter of the modeled footprint
/// each: the cascade routes keys to partitions as it routes them to GPUs,
/// and transposes through the device's memory. This harness sweeps the
/// footprint and compares the monolithic map with the node's
/// device-sided insert + retrieve round, showing the monolithic CAS
/// degradation and its recovery.
pub fn sharding(opts: &Opts, out: &mut dyn Write) -> io::Result<()> {
    const PARTITIONS: usize = 4;
    let n = opts.n;
    let load = 0.9;
    let capacity = (n as f64 / load).ceil() as usize;
    let p100 = gpu_sim::DeviceSpec::p100();
    let rate = |sim: f64| scaled_rate(sim, n, opts.modeled_n);
    // the monolithic map makes one launch, the node's rounds as many as
    // their reports count: net what their rows hold that does not scale
    // (their launches' overhead, the split's chain of waits but its share
    // of the runs) but the one launch `rate` nets
    let node_rate = |report: &OpReport| {
        let fixed: f64 = report.stages.iter().map(|row| row.overhead).sum();
        rate(report.time - fixed + p100.launch_overhead)
    };
    writeln!(
        out,
        "Ablation A7: monolithic vs sharded tables, alpha = {load} (n = {n})\n"
    )?;

    let pairs = Distribution::Unique.generate(n, opts.seed);
    let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
    let mut t = TextTable::new(vec![
        "modeled footprint",
        "mono ins G/s",
        "sharded(4) ins G/s",
        "sharded gain",
        "mono ret G/s",
        "sharded ret G/s",
    ]);

    for gib in [1u64, 2, 4, 8, 16] {
        let cfg = Config::default().with_modeled_capacity(gib << 30);
        let mono = host_map(n, capacity, cfg);
        let mi = mono.insert_pairs(&pairs).expect("insert");
        let mr = mono.try_retrieve(&keys).expect("retrieve").report;
        let quarter = cfg.with_modeled_capacity((gib << 30) / PARTITIONS as u64);
        let per_partition = n.div_ceil(PARTITIONS);
        let mut node = NodeBench::one_device(PARTITIONS, per_partition, load, quarter);
        let (ni, nr) = node.device_round(&pairs, None);

        let (mono_ins, node_ins) = (rate(mi.stats.sim_time), node_rate(&ni));
        t.row(vec![
            format!("{gib} GiB"),
            gops(mono_ins),
            gops(node_ins),
            format!("{:.2}x", node_ins / mono_ins),
            gops(rate(mr.time)),
            gops(node_rate(&nr.applied.report)),
        ]);
    }
    write!(out, "{t}")?;
    writeln!(
        out,
        "\nExpect: 0.87x at 1-2 GiB, the routing bill of the cascade (split \
         ~0.06 + device-local transposition 0.02 ns per element, net of \
         launches and the tail of the split's chain of waits); 4 partitions \
         recover the monolithic degradation at 4 and 8 GiB (1.16x / 1.28x); \
         at 16 GiB each 4 GiB partition degrades again (0.99x) — more \
         partitions would be needed, the scaling the paper predicts. Retrieval pays a return trip (transposition back + \
         the merge warps of its node launch, which wait for the targets to re-read and \
         send their answers as 4-byte values and found words and store a run's answers \
         as streams, 0.03 ns per element) the monolithic map does not."
    )
}
