//! **Ablation A7 (future work, §VI)** — partitioning high-capacity maps.
//!
//! "A possible workaround … could be the partitioning of high capacity
//! hash maps into several smaller hash maps each of size ≤ 2 GB."
//! `warpdrive::ShardedHashMap` implements it; this harness sweeps the
//! modeled table footprint and compares monolithic vs sharded insert
//! rates, showing the monolithic CAS degradation and its recovery.
//!
//! Usage: `ablation_sharding [--full] [--n <count>] [--seed <seed>]`

use warpdrive::{Config, GpuHashMap, ShardedHashMap};
use wd_bench::{gops, p100_with_words, scaled_rate, table::TextTable, Opts, PAPER_N_SINGLE};
use workloads::Distribution;

fn main() {
    let opts = Opts::from_args(PAPER_N_SINGLE);
    let n = opts.n;
    let load = 0.9;
    let capacity = (n as f64 / load).ceil() as usize;
    let p100 = gpu_sim::DeviceSpec::p100();
    // sharded issues 1 routing + 4 shard launches where monolithic issues 1
    let shard_time = |t: f64| p100.net_of_launches(t, 4);
    println!("Ablation A7: monolithic vs sharded tables, alpha = {load} (n = {n})\n");

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
        let modeled = gib << 30;
        // monolithic
        let dev = p100_with_words(0, capacity + 3 * n + 1024);
        let mono = GpuHashMap::new(
            dev,
            capacity,
            Config::default().with_modeled_capacity(modeled),
        )
        .unwrap();
        let mi = mono.insert_pairs(&pairs).unwrap();
        let mr = mono.try_retrieve(&keys).unwrap().report;
        // sharded ×4 (per-shard modeled footprint = modeled/4)
        let dev = p100_with_words(0, capacity + 3 * n + 4096);
        let shard = ShardedHashMap::new(
            dev,
            capacity / 4,
            4,
            Config::default().with_modeled_capacity(modeled),
        )
        .unwrap();
        let si = shard.insert_pairs(&pairs).unwrap();
        let sr = shard.try_retrieve(&keys).unwrap().report;

        let mono_ins = scaled_rate(mi.stats.sim_time, n, opts.modeled_n);
        let shard_ins = scaled_rate(shard_time(si.stats.sim_time), n, opts.modeled_n);
        t.row(vec![
            format!("{gib} GiB"),
            gops(mono_ins),
            gops(shard_ins),
            format!("{:.2}x", shard_ins / mono_ins),
            gops(scaled_rate(mr.time, n, opts.modeled_n)),
            gops(scaled_rate(shard_time(sr.time), n, opts.modeled_n)),
        ]);
    }
    t.print();
    println!(
        "\nExpect: parity below 2 GiB (routing overhead only); 4 shards \
         fully recover the monolithic degradation for footprints up to \
         8 GiB (~1.4x); at 16 GiB each 4 GiB shard degrades again — more \
         shards would be needed, exactly the scaling the paper predicts."
    );
}
