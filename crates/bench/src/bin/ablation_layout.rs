//! **Ablation A1** — AOS versus SOA table layout (paper Fig. 1).
//!
//! The paper argues AOS (packed 64-bit words) is cache-friendly and fully
//! atomic, while SOA pays an extra uncoalesced value access per query hit
//! and doubles the footprint for 4+4-byte pairs. This ablation quantifies
//! both effects on the same workload.
//!
//! Usage: `ablation_layout [--full] [--n <count>] [--seed <seed>]`

use warpdrive::{Config, GpuHashMap, Layout};
use wd_bench::{gops, p100_with_words, scaled_rate, table::TextTable, Opts, PAPER_N_SINGLE};
use workloads::Distribution;

fn main() {
    let opts = Opts::from_args(PAPER_N_SINGLE);
    let n = opts.n;
    println!("Ablation A1: AOS vs SOA layout, unique keys (n = {n})\n");
    let mut t = TextTable::new(vec![
        "load",
        "layout",
        "insert G/s",
        "retrieve G/s",
        "table words",
    ]);
    for &load in &[0.5, 0.8, 0.95] {
        let capacity = (n as f64 / load).ceil() as usize;
        for (layout, label) in [(Layout::Aos, "AOS"), (Layout::Soa, "SOA")] {
            let dev = p100_with_words(0, 2 * capacity + 3 * n + 1024);
            let cfg = Config::default().with_layout(layout);
            let map = GpuHashMap::new(dev, capacity, cfg).expect("map");
            let pairs = Distribution::Unique.generate(n, opts.seed);
            let ins = map.insert_pairs(&pairs).expect("insert");
            let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
            let ret = map.try_retrieve(&keys).expect("retrieve");
            assert!(ret.values.iter().all(Option::is_some));
            let words = match layout {
                Layout::Aos => map.capacity(),
                Layout::Soa => 2 * map.capacity(),
            };
            t.row(vec![
                format!("{load:.2}"),
                label.to_owned(),
                gops(scaled_rate(ins.stats.sim_time, n, opts.modeled_n)),
                gops(scaled_rate(ret.report.time, n, opts.modeled_n)),
                words.to_string(),
            ]);
        }
    }
    t.print();
    println!("\nExpect: SOA retrieval slower (extra uncoalesced value read) at 2x footprint.");
}
