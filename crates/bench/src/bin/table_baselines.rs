//! **Baseline comparison table** (§III claims).
//!
//! * Stadium hash in-core: 1.04–1.19× faster than GPU cuckoo at α = 0.8;
//! * Stadium hash out-of-core (table behind PCIe): collapses to
//!   ≈100 M ops/s;
//! * Robin Hood: "comparable speed to Alcantara's hash map";
//! * sort-and-compress: O(n) auxiliary memory (half the effective
//!   capacity) and O(log n) queries;
//! * Folklore CPU (real wall-clock on this machine, not simulated).
//!
//! Usage: `table_baselines [--full] [--n <count>] [--seed <seed>]`

use baselines::{
    stadium::TablePlacement, CuckooHash, FolkloreMap, RobinHoodMap, SortCompressStore, StadiumHash,
};
use wd_bench::{gops, p100_with_words, scaled_rate, table::TextTable, Opts, PAPER_N_SINGLE};
use workloads::Distribution;

const LOAD: f64 = 0.80;

fn main() {
    let opts = Opts::from_args(PAPER_N_SINGLE);
    let n = opts.n;
    let capacity = (n as f64 / LOAD).ceil() as usize;
    let pairs = Distribution::Unique.generate(n, opts.seed);
    let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
    println!("Baselines at alpha = {LOAD}, unique keys (n = {n}, modeled 2^27)\n");

    let mut t = TextTable::new(vec![
        "structure",
        "insert G/s",
        "retrieve G/s",
        "memory words",
        "notes",
    ]);

    let rate = |sim: f64| scaled_rate(sim, n, opts.modeled_n);

    // WarpDrive reference
    {
        let dev = p100_with_words(0, capacity + 3 * n + 1024);
        let map = warpdrive::GpuHashMap::new(dev, capacity, warpdrive::Config::default())
            .expect("warpdrive");
        let ins = map.insert_pairs(&pairs).expect("insert");
        let ret = map.try_retrieve(&keys).expect("retrieve").report;
        t.row(vec![
            "WarpDrive |g|=4".to_owned(),
            gops(rate(ins.stats.sim_time)),
            gops(rate(ret.time)),
            map.capacity().to_string(),
            "this paper".to_owned(),
        ]);
    }

    // CUDPP cuckoo
    let cuckoo_rates = {
        let dev = p100_with_words(0, capacity + 3 * n + 1024);
        let table = CuckooHash::new(dev, capacity, opts.seed as u32).expect("cuckoo");
        let ins = table.insert_pairs(&pairs);
        let ret = table.try_retrieve(&keys).expect("retrieve").report;
        let r = (rate(ins.stats.sim_time), rate(ret.time));
        t.row(vec![
            "CUDPP cuckoo".to_owned(),
            gops(r.0),
            gops(r.1),
            (capacity + 101).to_string(),
            format!("{} stashed, {} failed", ins.stashed, ins.failed),
        ]);
        r
    };

    // Robin Hood
    {
        let dev = p100_with_words(0, capacity + 3 * n + 1024);
        let map = RobinHoodMap::new(dev, capacity, opts.seed as u32).expect("robin hood");
        let ins = map.insert_pairs(&pairs);
        let ret = map.try_retrieve(&keys).expect("retrieve").report;
        t.row(vec![
            "Robin Hood".to_owned(),
            gops(rate(ins.stats.sim_time)),
            gops(rate(ret.time)),
            capacity.to_string(),
            "García et al.".to_owned(),
        ]);
    }

    // Stadium, in-core and out-of-core
    for (placement, label) in [
        (TablePlacement::InCore, "Stadium in-core"),
        (
            TablePlacement::OutOfCore {
                pcie_bandwidth: 11.0e9,
            },
            "Stadium out-of-core",
        ),
    ] {
        let dev = p100_with_words(0, capacity + capacity / 64 + 3 * n + 1024);
        let table = StadiumHash::new(dev, capacity, placement, opts.seed as u32).expect("stadium");
        let ins = table.insert_pairs(&pairs);
        let ret = table.try_retrieve(&keys).expect("retrieve").report;
        let ins_rate = rate(ins.sim_time);
        let note = if matches!(placement, TablePlacement::InCore) {
            format!("{:.2}x cuckoo ins", ins_rate / cuckoo_rates.0)
        } else {
            "table behind PCIe".to_owned()
        };
        t.row(vec![
            label.to_owned(),
            gops(ins_rate),
            gops(rate(ret.time)),
            (capacity + capacity / 64).to_string(),
            note,
        ]);
    }

    // sort-and-compress
    {
        let dev = p100_with_words(0, 4 * n + 1024);
        let (store, build) = SortCompressStore::build(dev, &pairs).expect("sort store");
        let q = store.try_retrieve(&keys).expect("query").report;
        t.row(vec![
            "sort+compress".to_owned(),
            gops(rate(build.sim_time)),
            gops(rate(q.time)),
            store.footprint_words.to_string(),
            "2x memory, O(log n) query".to_owned(),
        ]);
    }

    // Folklore CPU — real wall-clock
    {
        let map = FolkloreMap::new(capacity);
        let t0 = std::time::Instant::now();
        let out = map.insert_bulk(&pairs);
        let ins_t = t0.elapsed().as_secs_f64();
        let t0 = std::time::Instant::now();
        let res = map.get_bulk(&keys);
        let ret_t = t0.elapsed().as_secs_f64();
        assert_eq!(out.failed, 0);
        assert!(res.iter().all(Option::is_some));
        t.row(vec![
            "Folklore (CPU, real)".to_owned(),
            gops(n as f64 / ins_t),
            gops(n as f64 / ret_t),
            map.capacity().to_string(),
            format!("{} host threads", rayon::current_num_threads()),
        ]);
    }

    t.print();
    println!(
        "\nExpect: Stadium in-core 1.04-1.19x cuckoo insert; out-of-core \
         ~0.1 G/s; Robin Hood comparable to cuckoo; Folklore well below \
         the GPU structures (paper cites 0.3 G/s on 48 threads)."
    );
}
