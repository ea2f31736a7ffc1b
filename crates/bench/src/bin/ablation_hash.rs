//! **Ablation A5** — hash-function families (§V-A / §II theory).
//!
//! The paper selects the MurmurHash3 finalizer and the Mueller hash for
//! their avalanche quality; §II recalls that probing guarantees depend on
//! the family's independence (tabulation hashing behaves 5-independent
//! for linear probing). This ablation reports avalanche bias and the
//! probe-length distributions each family produces on a real table, plus
//! the pathological identity "hash" for contrast.
//!
//! Usage: `ablation_hash [--full] [--n <count>] [--seed <seed>]`

use hashes::{avalanche::avalanche, HashFn32, Hasher32, Tabulation32};
use warpdrive::{Config, GpuHashMap};
use wd_bench::{gops, p100_with_words, scaled_rate, table::TextTable, Opts, PAPER_N_SINGLE};
use workloads::Distribution;

fn main() {
    let opts = Opts::from_args(PAPER_N_SINGLE);
    let n = opts.n;
    println!("Ablation A5: hash families (n = {n})\n");

    // avalanche quality
    let mut q = TextTable::new(vec!["function", "max bias", "mean bias"]);
    let tab = Tabulation32::new(opts.seed);
    let fns: Vec<(&str, &dyn Hasher32)> = vec![
        ("murmur fmix32", &HashFn32::Murmur),
        ("mueller", &HashFn32::Mueller),
        ("tabulation", &tab),
        ("identity", &HashFn32::Identity),
    ];
    for (name, h) in &fns {
        let m = avalanche(*h, 4000);
        q.row(vec![
            (*name).to_owned(),
            format!("{:.3}", m.max_bias()),
            format!("{:.3}", m.mean_bias()),
        ]);
    }
    q.print();

    // probe behaviour on a real table at high load. The effective primary
    // hash is controlled by feeding keys through fmix32's inverse: the
    // map then "sees" the raw key as its primary hash value. Two inputs:
    // sequential keys (identity's *best* case — perfectly spread) and
    // strided keys (its worst — everything lands on a few sectors).
    println!("\nInsertion at alpha = 0.95 (probe steps reveal first-probe quality):");
    let mut t = TextTable::new(vec![
        "family / input",
        "insert G/s",
        "probe steps/op",
        "failures",
    ]);
    let load = 0.95;
    let capacity = (n as f64 / load).ceil() as usize;
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
        let dev = p100_with_words(0, capacity + 3 * n + 1024);
        let map = GpuHashMap::new(dev, capacity, Config::default()).expect("map");
        let effective: Vec<(u32, u32)> = if identity {
            input
                .iter()
                .map(|&(k, v)| (hashes::murmur::fmix32_inverse(k), v))
                .collect()
        } else {
            input.to_vec()
        };
        match map.insert_pairs(&effective) {
            Ok(ins) => {
                t.row(vec![
                    label.to_owned(),
                    gops(scaled_rate(ins.stats.sim_time, n, opts.modeled_n)),
                    format!("{:.2}", ins.stats.counters.steps_per_group()),
                    "0".to_owned(),
                ]);
            }
            Err(e) => t.row(vec![
                label.to_owned(),
                "-".to_owned(),
                "-".to_owned(),
                format!("{e}"),
            ]),
        }
    }
    t.print();
    println!(
        "\nExpect: murmur is input-insensitive; identity matches it on \
         sequential keys but degrades on strided keys (weak first probes, \
         rescued only by the chaotic secondary hash)."
    );

    // Zipf hot keys: distribution resilience of the workload generators
    let dist = Distribution::paper_zipf();
    let z = dist.generate(n.min(1 << 16), opts.seed);
    let distinct: std::collections::HashSet<u32> = z.iter().map(|p| p.0).collect();
    println!(
        "\nzipf sanity: {} elements -> {} distinct keys (hot keys scattered by Feistel)",
        z.len(),
        distinct.len()
    );
}
