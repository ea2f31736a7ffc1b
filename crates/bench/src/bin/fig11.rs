//! **Figure 11** — runtime decomposition of host-sided insertion and
//! retrieval cascades for 32 GB (2³² pairs) over PCIe, sequential versus
//! 2- and 4-thread asynchronous overlap.
//!
//! Paper targets: overlap reduces the accumulated execution time by up to
//! 36% for insertion (Ins2/Ins4 vs Ins1) and 45% for querying (Ret2/Ret4
//! vs Ret1); multisplit + transposition account for 2–4% of the total;
//! multisplit runs at ≈210 GB/s accumulated and the all-to-all
//! transposition at ≈192 GB/s of NVLink bandwidth.
//!
//! Usage: `fig11 [--full] [--n <count>] [--seed <seed>]`

use warpdrive::async_pipe::resource;
use warpdrive::{CascadeStage, Config, DistributedHashMap, GpuHashMap};
use wd_bench::{p100_with_words, table::TextTable, Opts};
use workloads::Distribution;

const LOAD: f64 = 0.95;
const M: usize = 4;
const N_MODEL: u64 = 1 << 32; // 32 GB of packed pairs
const BATCH_MODEL: u64 = 1 << 24; // 128 MB batches

fn main() {
    let opts = Opts::from_args(N_MODEL);
    let n_func = (opts.n / M) * M;
    let scale = N_MODEL as f64 / n_func as f64;
    let batches = (N_MODEL / BATCH_MODEL) as usize; // 256
    let batch_func = (n_func / batches).max(1);
    println!(
        "Figure 11: cascade decomposition, 2^32 pairs (32 GB) over PCIe, \
         {batches} batches (functional n = {n_func})\n"
    );

    let per_func = n_func / M;
    let cap_func = (per_func as f64 / LOAD).ceil() as usize;
    let modeled_cap_bytes = (((N_MODEL / M as u64) as f64 / LOAD).ceil() as u64) * 8;
    let make = || {
        let devices: Vec<_> = (0..M)
            .map(|i| p100_with_words(i, cap_func + 8 * per_func + 4096))
            .collect();
        let cfg = Config::default()
            .with_group_size(4)
            .with_modeled_capacity(modeled_cap_bytes);
        DistributedHashMap::new(devices, cap_func, cfg, interconnect::Topology::p100_quad(M))
            .expect("node")
    };
    let pairs = Distribution::Unique.generate(n_func, opts.seed);
    let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();

    let mut t = TextTable::new(vec![
        "variant",
        "total s",
        "PCIe up",
        "PCIe down",
        "NVLink s",
        "VRAM s",
        "saving",
    ]);

    let mut insert_reports = Vec::new();
    for threads in [1usize, 2, 4] {
        let map = make();
        let rep = map
            .insert_overlapped_scaled(&pairs, batch_func, threads, scale)
            .expect("insert");
        t.row(vec![
            format!("Ins{threads}"),
            format!("{:.3}", rep.makespan),
            format!("{:.3}", rep.busy[resource::PCIE_UP]),
            format!("{:.3}", rep.busy[resource::PCIE_DOWN]),
            format!("{:.3}", rep.busy[resource::NVLINK]),
            format!("{:.3}", rep.busy[resource::VRAM]),
            format!("{:.0}%", rep.saving() * 100.0),
        ]);
        insert_reports.push((threads, map, rep));
    }
    // retrieval uses the 4-thread-loaded map (content identical across maps)
    let loaded = &insert_reports.last().expect("three variants").1;
    for threads in [1usize, 2, 4] {
        let (_, rep) = loaded
            .retrieve_overlapped_scaled(&keys, batch_func, threads, scale)
            .expect("retrieve");
        t.row(vec![
            format!("Ret{threads}"),
            format!("{:.3}", rep.makespan),
            format!("{:.3}", rep.busy[resource::PCIE_UP]),
            format!("{:.3}", rep.busy[resource::PCIE_DOWN]),
            format!("{:.3}", rep.busy[resource::NVLINK]),
            format!("{:.3}", rep.busy[resource::VRAM]),
            format!("{:.0}%", rep.saving() * 100.0),
        ]);
    }
    t.print();

    // MST fractions and accumulated bandwidths (paper: 2-4%, ~210 GB/s
    // multisplit, ~192 GB/s all-to-all)
    let (_, _, ins4) = &insert_reports[2];
    let agg = {
        let mut total = warpdrive::CascadeReport::new(0);
        for c in &ins4.cascades {
            total.absorb(c);
        }
        total
    };
    // use modeled (scaled) stage times: functional ones are dominated by
    // the fixed launch overheads that vanish at paper scale
    let scaled_time_of = |stage: CascadeStage| -> f64 {
        agg.stages
            .iter()
            .filter(|s| s.stage == stage)
            .map(|s| s.scaled_time(scale))
            .sum()
    };
    let mst_frac = (scaled_time_of(CascadeStage::Multisplit)
        + scaled_time_of(CascadeStage::Transpose))
        / agg.modeled_time(scale);
    // both stages report the bytes they moved, summed over GPUs
    let scaled_bytes_of = |stage: CascadeStage| -> f64 {
        let of_stage = agg.stages.iter().filter(|s| s.stage == stage);
        of_stage.map(|s| s.bytes as f64 * scale).sum()
    };
    let transpose_bytes = scaled_bytes_of(CascadeStage::Transpose);
    let transpose_time = scaled_time_of(CascadeStage::Transpose);
    let split_bytes = scaled_bytes_of(CascadeStage::Multisplit);
    let split_time = scaled_time_of(CascadeStage::Multisplit);
    println!(
        "\nmultisplit+transposition fraction of cascade: {:.1}%",
        mst_frac * 100.0
    );
    println!(
        "multisplit accumulated bandwidth: {:.0} GB/s (paper ~210)",
        split_bytes / split_time / 1e9
    );
    println!(
        "all-to-all accumulated bandwidth: {:.0} GB/s (paper ~192)",
        transpose_bytes / transpose_time / 1e9
    );
    println!(
        "\nExpect: Ins2/Ins4 save up to ~36%, Ret2/Ret4 up to ~45% vs the \
         sequential variants. The paper's retrieval crosses PCIe with 8-byte \
         words both ways; here keys go up as 4 bytes, so `PCIe up` of the \
         Ret rows is half of `PCIe down`, Ret1 is shorter, and Ret4 is bound \
         by the way down alone (~50% saved, of a smaller total)."
    );
    let _ = GpuHashMap::new; // silence unused-import lints on some configs
}
