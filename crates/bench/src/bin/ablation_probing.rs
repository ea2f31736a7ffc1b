//! **Ablation A2** — probing schemes (§II's strategy menu).
//!
//! Compares the paper's hybrid scheme (chaotic span jumps + intra-window
//! linear probing) against pure linear and quadratic span advancement.
//! Linear probing suffers primary clustering at high loads: probe chains
//! grow super-linearly and insertion rates collapse, which is exactly why
//! the paper re-hashes between spans.
//!
//! Usage: `ablation_probing [--full] [--n <count>] [--seed <seed>]`

use warpdrive::{Config, GpuHashMap, ProbingScheme};
use wd_bench::{gops, p100_with_words, scaled_rate, table::TextTable, Opts, PAPER_N_SINGLE};
use workloads::Distribution;

fn main() {
    let opts = Opts::from_args(PAPER_N_SINGLE);
    let n = opts.n;
    println!("Ablation A2: probing schemes, unique keys, |g| = 4 (n = {n})\n");
    let mut t = TextTable::new(vec![
        "load",
        "scheme",
        "insert G/s",
        "retrieve G/s",
        "probe steps/op",
    ]);
    for &load in &[0.5, 0.8, 0.95, 0.99] {
        let capacity = (n as f64 / load).ceil() as usize;
        for (scheme, label) in [
            (ProbingScheme::Hybrid, "hybrid (paper)"),
            (ProbingScheme::Linear, "linear"),
            (ProbingScheme::Quadratic, "quadratic"),
        ] {
            let dev = p100_with_words(0, capacity + 3 * n + 1024);
            let cfg = Config::default().with_probing(scheme);
            let map = GpuHashMap::new(dev, capacity, cfg).expect("map");
            let pairs = Distribution::Unique.generate(n, opts.seed);
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
            let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
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
    t.print();
    println!("\nExpect: linear probing degrades sharply at alpha >= 0.95 (primary clustering).");
}
