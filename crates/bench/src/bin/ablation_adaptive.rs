//! **Ablation A6 (future work, §VI)** — dynamic group-size scaling.
//!
//! The paper suggests "a heuristic which dynamically scales the group
//! size |g| with the current load factor". `warpdrive::AdaptiveHashMap`
//! implements a traffic-minimizing heuristic; this harness fills a table
//! to α = 0.97 in batches and compares the adaptive policy against every
//! fixed group size on total simulated insertion time.
//!
//! Usage: `ablation_adaptive [--full] [--n <count>] [--seed <seed>]`

use warpdrive::{recommend_group_size, AdaptiveHashMap, Config, GpuHashMap};
use wd_bench::{p100_with_words, table::TextTable, Opts, PAPER_N_SINGLE};
use workloads::Distribution;

fn main() {
    let opts = Opts::from_args(PAPER_N_SINGLE);
    let n = opts.n;
    let capacity = (n as f64 / 0.97).ceil() as usize;
    let batches = 16;
    let batch = n / batches;
    let p100 = gpu_sim::DeviceSpec::p100();
    println!(
        "Ablation A6: adaptive |g| vs fixed, filling to alpha = 0.97 in {batches} batches (n = {n})\n"
    );

    // what the heuristic recommends across the load range
    let mut rec = TextTable::new(vec!["alpha", "recommended |g|"]);
    for a in [0.0, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99] {
        rec.row(vec![format!("{a:.2}"), recommend_group_size(a).to_string()]);
    }
    rec.print();
    println!();

    let pairs = Distribution::Unique.generate(n, opts.seed);
    let mut t = TextTable::new(vec!["policy", "total sim ms (net of launches)"]);

    for g in [1u32, 2, 4, 8, 16, 32] {
        let dev = p100_with_words(0, capacity + 3 * n + 1024);
        let map = GpuHashMap::new(dev, capacity, Config::default().with_group_size(g)).unwrap();
        let mut total = 0.0;
        for chunk in pairs.chunks(batch) {
            total += p100.net_of_launches(map.insert_pairs(chunk).unwrap().stats.sim_time, 1);
        }
        t.row(vec![
            format!("fixed |g| = {g}"),
            format!("{:.4}", total * 1e3),
        ]);
    }
    {
        let dev = p100_with_words(0, capacity + 3 * n + 1024);
        let mut map = AdaptiveHashMap::new(dev, capacity, Config::default()).unwrap();
        let mut total = 0.0;
        let mut switches = Vec::new();
        for chunk in pairs.chunks(batch) {
            switches.push(map.current_group_size().get());
            total += p100.net_of_launches(map.insert_pairs(chunk).unwrap().stats.sim_time, 1);
        }
        t.row(vec![
            format!("adaptive ({switches:?})"),
            format!("{:.4}", total * 1e3),
        ]);
    }
    t.print();
    println!(
        "\nFinding: with sector-aligned windows the traffic optimum pins \
         to the sector width |g| = 4 across nearly the whole load range, \
         so the adaptive policy ~matches the best fixed choice and the \
         paper's open question has a boring-but-useful answer."
    );
}
