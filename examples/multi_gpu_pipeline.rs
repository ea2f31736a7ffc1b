//! The full multi-GPU story: a hash map distributed over four simulated
//! P100s with NVLink, fed from the host through the asynchronous
//! overlapping pipeline (paper §IV-B + Fig. 5).
//!
//! Shows the three headline mechanisms end to end:
//! 1. the distributed multisplit → transposition → insert cascade,
//! 2. partition-exact placement (every key lives on GPU `p(k)`),
//! 3. overlap of PCIe transfers with device work across batches.
//!
//! Run with: `cargo run -p wd-apps --release --example multi_gpu_pipeline`

use interconnect::Topology;
use warpdrive::host_ops::Cut;
use warpdrive::{Config, DistributedHashMap};
use wd_apps::quad_node;
use workloads::Distribution;

const N: usize = 400_000;
const BATCH: usize = 50_000;

fn main() {
    let per_gpu = N / 4;
    let capacity = (per_gpu as f64 / 0.9).ceil() as usize;
    let node = quad_node(capacity, per_gpu * 4);
    let dmap = DistributedHashMap::new(node, capacity, Config::default(), Topology::p100_quad(4))
        .expect("node construction");

    let pairs = Distribution::Unique.generate(N, 99);
    println!("inserting {N} pairs over 4 GPUs, {BATCH}-element batches\n");

    // sequential vs overlapped issue (Ins1 vs Ins4)
    let report = dmap
        .insert_in_chunks(&pairs, Cut::new(BATCH, 4))
        .expect("pipeline insert");
    let overlap = &report.overlaps[0];
    println!(
        "overlapped makespan {:.3} ms vs sequential {:.3} ms -> {:.0}% saved",
        report.time * 1e3,
        overlap.schedule(&report.stages, 1.0, 1).makespan * 1e3,
        overlap.saving(&report.stages, 1.0) * 100.0
    );
    println!(
        "aggregate rate: {:.2} G inserts/s over {} batches",
        report.ops_per_sec() / 1e9,
        overlap.chunks.len()
    );

    // partition-exact placement
    for (g, map) in dmap.maps().iter().enumerate() {
        let sample = map.snapshot();
        assert!(
            sample
                .iter()
                .all(|&(k, _)| dmap.partition().part(k) as usize == g),
            "gpu {g} holds foreign keys"
        );
        println!(
            "gpu {g}: {} keys, load factor {:.2}",
            map.len(),
            map.load_factor()
        );
    }

    // overlapped retrieval with misses mixed in
    let mut keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
    keys.extend([4_000_000_001, 4_000_000_003]);
    let resp = dmap
        .retrieve_in_chunks(&keys, Cut::new(BATCH, 4))
        .expect("pipeline retrieve");
    let (results, qreport) = (&resp.values, &resp.report);
    let hits = results.iter().filter(|r| r.is_some()).count();
    assert_eq!(hits, N, "every inserted key must be found");
    assert!(results[N].is_none() && results[N + 1].is_none());
    let overlap = &qreport.overlaps[0];
    println!(
        "\nretrieved {hits} hits + 2 misses at {:.2} G queries/s ({:.0}% saved by overlap)",
        qreport.ops_per_sec() / 1e9,
        overlap.saving(&qreport.stages, 1.0) * 100.0
    );

    // where the time went (the Fig. 11 decomposition, in miniature)
    use warpdrive::host_ops::resource;
    let busy = overlap.schedule(&qreport.stages, 1.0, overlap.streams).busy;
    println!(
        "retrieval busy: PCIe up {:.3} ms | PCIe down {:.3} ms | NVLink {:.3} ms | VRAM {:.3} ms",
        busy[resource::PCIE_UP] * 1e3,
        busy[resource::PCIE_DOWN] * 1e3,
        busy[resource::NVLINK] * 1e3,
        busy[resource::VRAM] * 1e3,
    );
}
