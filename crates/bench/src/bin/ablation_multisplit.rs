//! **Ablation A3** — the paper's m-pass warp-aggregated multisplit versus
//! the count + scatter multisplit the cascade runs (§IV-B).
//!
//! "Although warp-aggregated compression is slightly slower than
//! Ashkiani's full stack GPU multisplit implementation, we stick to our
//! basic approach. It only accounts for a minor portion of the overall
//! runtime." That holds for the paper's 2²⁴-element batches; a small
//! batch pays for the `m` launches (§V-B), which is why the cascade
//! splits in at most two. This ablation measures both kernels on the
//! same words.
//!
//! Usage: `ablation_multisplit [--full] [--n <count>] [--seed <seed>]`

use gpu_sim::LaunchOptions;
use multisplit::{device_multisplit, device_multisplit_segments, Segment};
use wd_bench::{p100_with_words, table::TextTable, Opts};
use workloads::Distribution;

fn main() {
    let opts = Opts::from_args(1 << 27);
    let n = opts.n;
    println!("Ablation A3: multisplit strategies, uniform keys (n = {n})\n");
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
        let dev = p100_with_words(0, 2 * n + m + 64);
        let input = dev.alloc(n).unwrap();
        let out = dev.alloc(n).unwrap();
        let scratch = dev.alloc(m).unwrap();
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

        let paper = device_multisplit(&dev, input, out, scratch, m, class);
        row(
            "binary warp-agg (paper)",
            m,
            paper.stats.sim_time,
            paper.stats.counters.stream_bytes,
        );
        let cascade = device_multisplit_segments(
            &dev,
            &[Segment::words(input, out)],
            scratch,
            m,
            LaunchOptions::default(),
            class,
        );
        row(
            "count + scatter (cascade)",
            cascade.launches as usize,
            cascade.sim_time,
            cascade.counters.stream_bytes,
        );
    }
    t.print();
    println!(
        "\nExpect: the m-pass grows with m in launches and bytes, count + \
         scatter stays at two launches and 3n words; at the paper's batch \
         sizes both are minor next to insertion, which is the paper's point."
    );
}
