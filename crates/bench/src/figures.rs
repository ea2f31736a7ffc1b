//! The paper's figures and tables (§V, Figs. 6–11) plus the two tuning
//! diagnostics, one function per registry row.

use crate::runner::{host_map, scaled_rate, NodeBench, SingleGpuBench};
use crate::table::TextTable;
use crate::{gops, p100_with_words, Opts, GROUP_SIZES, LOADS};
use std::collections::HashSet;
use std::io::{self, Write};
use warpdrive::host_ops::{resource, Cut};
use warpdrive::{CascadeStage, Config, OpReport};
use workloads::Distribution;

/// GPUs of the paper's node.
const M: usize = 4;

/// The insert and retrieve tables of the §V-B protocol (insert `n` pairs
/// residing in video memory, then retrieve all of them; kernel times
/// only) over [`LOADS`] × [`GROUP_SIZES`], the CUDPP cuckoo baseline in
/// the last column. WarpDrive tables are sized for `load · dup_ratio`
/// elements per slot, so that *distinct* keys hit the target occupancy;
/// CUDPP stores duplicates separately and is sized by raw element count.
fn rate_tables(
    opts: &Opts,
    dist: Distribution,
    dup_ratio: f64,
    cuckoo_label: &str,
    failure_mark: &str,
) -> (TextTable, TextTable) {
    let header: Vec<String> = std::iter::once("load".to_owned())
        .chain(GROUP_SIZES.iter().map(|g| format!("WD g={g}")))
        .chain([cuckoo_label.to_owned()])
        .collect();
    let mut insert = TextTable::new(header.clone());
    let mut retrieve = TextTable::new(header);
    // one fixture for the whole sweep: sized for the lowest load, staging
    // arena reused at every point
    let bench = SingleGpuBench::for_sweep(opts.n, LOADS[0]);
    for &load in &LOADS {
        let mut ins_row = vec![format!("{load:.2}")];
        let mut ret_row = vec![format!("{load:.2}")];
        for &g in &GROUP_SIZES {
            let m = bench.warpdrive(dist, opts.modeled_n, load * dup_ratio, g, opts.seed);
            ins_row.push(gops(m.insert_rate));
            ret_row.push(gops(m.retrieve_rate));
        }
        let c = bench.cuckoo(dist, opts.modeled_n, load, opts.seed);
        let mark = if c.failed > 0 { failure_mark } else { "" };
        ins_row.push(format!("{}{mark}", gops(c.insert_rate)));
        ret_row.push(gops(c.retrieve_rate));
        insert.row(ins_row);
        retrieve.row(ret_row);
    }
    (insert, retrieve)
}

/// **Figure 7** — device-sided insertion and retrieval rates for varying
/// group sizes and load factors, *unique* keys, versus the CUDPP cuckoo
/// baseline (constrained to loads ≤ 0.97).
pub fn fig7(opts: &Opts, out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "Figure 7: single-GPU rates, unique keys (n = {} functional, 2^27 modeled)\n",
        opts.n
    )?;
    let (insert, retrieve) = rate_tables(opts, Distribution::Unique, 1.0, "CUDPP", "*");
    write!(out, "Insertion rate (G ops/s):\n{insert}")?;
    write!(
        out,
        "\nRetrieval rate (G ops/s):  (* = cuckoo insertion failures)\n{retrieve}"
    )
}

/// **Figure 8** — the Fig. 7 protocol under a *Zipf* key distribution
/// (s = 1 + 10⁻⁶).
///
/// Duplicate keys share a table slot: WarpDrive resolves them by updating
/// the stored value (the retained value is the last write on the kernel's
/// event horizon), so "load" here is the *actual slot occupancy* after
/// inserting all elements (§V-B). CUDPP does not support key collisions —
/// it stores duplicates as independent entries — so its column is marked
/// and sized by raw element count, exactly the caveat the paper notes.
pub fn fig8(opts: &Opts, out: &mut dyn Write) -> io::Result<()> {
    let dist = Distribution::paper_zipf();
    // actual-occupancy bookkeeping: distinct keys in the generated stream
    let sample = dist.generate(opts.n, opts.seed);
    let distinct = sample.iter().map(|p| p.0).collect::<HashSet<_>>().len();
    writeln!(
        out,
        "Figure 8: single-GPU rates, Zipf (s = 1+1e-6) keys \
         (n = {} functional, {} distinct, 2^27 modeled)\n",
        opts.n, distinct
    )?;
    let dup_ratio = opts.n as f64 / distinct as f64;
    let (insert, retrieve) = rate_tables(opts, dist, dup_ratio, "CUDPP*", "!");
    write!(out, "Insertion rate (G ops/s):\n{insert}")?;
    write!(out, "\nRetrieval rate (G ops/s):\n{retrieve}")?;
    writeln!(
        out,
        "\n(*) CUDPP stores duplicate keys as separate entries; (!) = insertion failures."
    )
}

/// **Figure 9** — strong and weak scaling of the device-sided cascades
/// over m = 1..4 GPUs.
///
/// Protocol (§V-C): α = 0.95 target load, |g| = 4, unique keys.
/// * strong: n ∈ {2²⁸, 2²⁹} **total** pairs spread over m GPUs;
/// * weak: n ∈ {2²⁸, 2²⁹} pairs **per GPU** (m·n total).
///
/// Efficiencies: `E_s(n, m) = τ(n,1) / (m·τ(n,m))`,
/// `E_w(n, m) = τ(n,1) / τ(m·n, m)` (Eq. 4). The super-linear strong
/// insert efficiency for 2²⁹ reproduces the >2 GB CAS artifact: a single
/// GPU's 4.5 GB table runs degraded, four 1.1 GB tables do not.
pub fn fig9(opts: &Opts, out: &mut dyn Write) -> io::Result<()> {
    // functional n divisible by 1..=4
    let n_func = (opts.n / 12) * 12;
    writeln!(
        out,
        "Figure 9: strong & weak scaling, unique keys, alpha = 0.95, |g| = 4 \
         (functional n = {n_func})\n"
    )?;
    // (insert seconds, retrieve seconds) at modeled scale for `n_model`
    // total elements on `m` GPUs; a fresh node per point (m devices with
    // distinct pool sizes — no shared fixture to reuse)
    let pairs = Distribution::Unique.generate(n_func, opts.seed);
    let tau = |n_model: u64, m: usize| -> (f64, f64) {
        let (ins, ret) = NodeBench::paper(m, n_func / m, n_model).device_round(&pairs);
        let scale = n_model as f64 / n_func as f64;
        (ins.modeled_time(scale), ret.report.modeled_time(scale))
    };

    let columns = |kind: &str| {
        let cell = |op: &str, exp: u32| format!("{kind} {op} 2^{exp}");
        vec![
            "m".to_owned(),
            cell("ins", 28),
            cell("ins", 29),
            cell("ret", 28),
            cell("ret", 29),
        ]
    };
    let mut strong = TextTable::new(columns("E_s"));
    let mut weak = TextTable::new(columns("E_w"));
    for m in 1..=M {
        // per modeled size: [E_s ins, E_s ret, E_w ins, E_w ret]
        let eff: Vec<[f64; 4]> = [1u64 << 28, 1 << 29]
            .iter()
            .map(|&n_model| {
                let (i1, r1) = tau(n_model, 1);
                let (im, rm) = tau(n_model, m); // strong: same total on m GPUs
                let (iw, rw) = tau(n_model * m as u64, m); // weak: m× total
                [i1 / (m as f64 * im), r1 / (m as f64 * rm), i1 / iw, r1 / rw]
            })
            .collect();
        let row = |ins: usize, ret: usize| -> Vec<String> {
            let cells = [eff[0][ins], eff[1][ins], eff[0][ret], eff[1][ret]];
            std::iter::once(m.to_string())
                .chain(cells.iter().map(|e| format!("{e:.2}")))
                .collect()
        };
        strong.row(row(0, 1));
        weak.row(row(2, 3));
    }

    write!(out, "Strong scaling efficiency E_s(n, m):\n{strong}")?;
    write!(out, "\nWeak scaling efficiency E_w(n, m):\n{weak}")?;
    writeln!(
        out,
        "\nExpect: efficiencies ~constant for m >= 2; E_s insert 2^29 > 1 \
         (super-linear, >2 GB CAS artifact on the single GPU)."
    )
}

/// **Figure 10** — m = 4 insertion/retrieval rates versus total element
/// count 2²⁸–2³² for the three key distributions, device-sided (upper
/// panel) and host-sided including PCIe transfers (lower panel).
///
/// Expected shapes (§V-C): query rates stay high (up to ≈9 G ops/s) over
/// all sizes; device-sided insertion drops by up to ≈2× for n > 2³⁰
/// (> 2 GB per GPU — the CAS/memory-interface artifact); host-sided
/// insertion ≈2.5–2.7 G ops/s (84% of PCIe), host-sided retrieval ≈2 G
/// ops/s (55%, two transfers of 8-byte words). This reproduction uploads
/// the 4-byte keys themselves and downloads a 4-byte value and a found bit
/// per key, so the two directions carry about the same and its overlapped
/// host-sided retrieval runs at ≈4.2–5.3 G ops/s.
pub fn fig10(opts: &Opts, out: &mut dyn Write) -> io::Result<()> {
    let n_func = (opts.n / M) * M;
    writeln!(
        out,
        "Figure 10: 4-GPU rates vs total size, alpha = 0.95, |g| = 4 \
         (functional n = {n_func})\n"
    )?;
    let dists = [
        Distribution::Unique,
        Distribution::Uniform,
        Distribution::paper_zipf(),
    ];
    let header: Vec<String> = std::iter::once("n".to_owned())
        .chain(
            dists
                .iter()
                .flat_map(|d| [format!("{} ins", d.label()), format!("{} ret", d.label())]),
        )
        .collect();
    let mut device = TextTable::new(header.clone());
    let mut host = TextTable::new(header);

    for exp in 28..=32u32 {
        let n_model = 1u64 << exp;
        let scale = n_model as f64 / n_func as f64;
        let node = || NodeBench::paper(M, n_func / M, n_model);
        let mut dev_row = vec![format!("2^{exp}")];
        let mut host_row = vec![format!("2^{exp}")];
        for &dist in &dists {
            let pairs = dist.generate(n_func, opts.seed);
            let (ins, ret) = node().device_round(&pairs);
            dev_row.push(gops(ins.modeled_ops_per_sec(scale)));
            dev_row.push(gops(ret.report.modeled_ops_per_sec(scale)));

            // host-sided: the paper's peak host rates (84%/55% of PCIe) are
            // the asynchronously overlapped variants — batches of 2^24
            // modeled elements, 4 pipeline threads (Fig. 5 / Fig. 11)
            let hmap = node().map;
            let batches = (n_model >> 24).clamp(2, 512) as usize;
            let batch_func = (n_func / batches).max(1);
            let cut = Cut::new(batch_func, 4);
            let hins = hmap.insert_in_chunks(&pairs, cut).expect("host insert");
            let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
            let hret = hmap.retrieve_in_chunks(&keys, cut).expect("host retrieve");
            host_row.push(gops(hins.modeled_ops_per_sec(scale)));
            host_row.push(gops(hret.report.modeled_ops_per_sec(scale)));
        }
        device.row(dev_row);
        host.row(host_row);
    }

    write!(out, "Device-sided rates (G ops/s):\n{device}")?;
    write!(out, "\nHost-sided rates incl. PCIe (G ops/s):\n{host}")?;
    writeln!(
        out,
        "\nExpect: device insert drops ~2x beyond 2^30 (>2 GB per GPU); \
         host insert ~2.5-2.7 G/s (84% PCIe), host retrieve ~2 G/s (55%) in \
         the paper, which moves an 8-byte word per key each way. Here a key \
         goes up as its 4 bytes (the device writes the index) and comes back \
         as a 4-byte value and a found bit, so up and down carry about the \
         same and overlap: host retrieve ~4.2-5.3 G/s, above host insert, \
         which its 8-byte pairs going up bind."
    )
}

/// **Figure 11** — runtime decomposition of host-sided insertion and
/// retrieval cascades for 32 GB (2³² pairs) over PCIe, sequential versus
/// 2- and 4-thread asynchronous overlap.
///
/// Paper targets: overlap reduces the accumulated execution time by up to
/// 36% for insertion (Ins2/Ins4 vs Ins1) and 45% for querying (Ret2/Ret4
/// vs Ret1); multisplit + transposition account for 2–4% of the total;
/// multisplit runs at ≈210 GB/s accumulated and the all-to-all
/// transposition at ≈192 GB/s of NVLink bandwidth.
pub fn fig11(opts: &Opts, out: &mut dyn Write) -> io::Result<()> {
    let n_model = opts.modeled_n; // 2^32 pairs, 32 GB
    let n_func = (opts.n / M) * M;
    let scale = n_model as f64 / n_func as f64;
    let batches = (n_model >> 24) as usize; // 128 MB batches: 256
    let batch_func = (n_func / batches).max(1);
    writeln!(
        out,
        "Figure 11: cascade decomposition, 2^32 pairs (32 GB) over PCIe, \
         {batches} batches (functional n = {n_func})\n"
    )?;
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
    // each row the makespan and busy times at paper scale, and what the
    // overlap saves over issuing the same batches one after the other
    let mut row = |variant: String, rep: &OpReport| {
        let overlap = &rep.overlaps[0];
        let run = overlap.schedule(&rep.stages, scale, overlap.streams);
        t.row(vec![
            variant,
            format!("{:.3}", run.makespan),
            format!("{:.3}", run.busy[resource::PCIE_UP]),
            format!("{:.3}", run.busy[resource::PCIE_DOWN]),
            format!("{:.3}", run.busy[resource::NVLINK]),
            format!("{:.3}", run.busy[resource::VRAM]),
            format!("{:.0}%", overlap.saving(&rep.stages, scale) * 100.0),
        ]);
    };

    // a fresh node per insert variant; retrieval uses the last one loaded
    // (content identical across them)
    let mut loaded = None;
    for threads in [1usize, 2, 4] {
        let map = NodeBench::paper(M, n_func / M, n_model).map;
        let rep = map
            .insert_in_chunks(&pairs, Cut::new(batch_func, threads))
            .expect("insert");
        row(format!("Ins{threads}"), &rep);
        loaded = Some((map, rep));
    }
    let (map, ins4) = loaded.expect("three variants");
    for threads in [1usize, 2, 4] {
        let rep = map
            .retrieve_in_chunks(&keys, Cut::new(batch_func, threads))
            .expect("retrieve");
        row(format!("Ret{threads}"), &rep.report);
    }
    write!(out, "{t}")?;

    // MST fractions and accumulated bandwidths (paper: 2-4%, ~210 GB/s
    // multisplit, ~192 GB/s all-to-all), of the batches' rows one after
    // the other; (scaled seconds, scaled bytes) of a stage kind, summed
    // over batches and GPUs: functional times are dominated by the fixed
    // launch overheads that vanish at paper scale
    let scaled = |stage: CascadeStage| -> (f64, f64) {
        let of_stage = || ins4.stages.iter().filter(move |s| s.stage == stage);
        (
            of_stage().map(|s| s.scaled_time(scale)).sum(),
            of_stage().map(|s| s.bytes as f64 * scale).sum(),
        )
    };
    let rows_time: f64 = ins4.stages.iter().map(|s| s.scaled_time(scale)).sum();
    let (split_time, split_bytes) = scaled(CascadeStage::Multisplit);
    let (transpose_time, transpose_bytes) = scaled(CascadeStage::Transpose);
    writeln!(
        out,
        "\nmultisplit+transposition fraction of cascade: {:.1}%",
        (split_time + transpose_time) / rows_time * 100.0
    )?;
    writeln!(
        out,
        "multisplit accumulated bandwidth: {:.0} GB/s (paper ~210)",
        split_bytes / split_time / 1e9
    )?;
    writeln!(
        out,
        "all-to-all accumulated bandwidth: {:.0} GB/s (paper ~192)",
        transpose_bytes / transpose_time / 1e9
    )?;
    writeln!(
        out,
        "\nExpect: Ins2/Ins4 save up to ~36%, Ret2/Ret4 up to ~45% vs the \
         sequential variants. The paper's retrieval crosses PCIe with 8-byte \
         words both ways; here keys go up as 4 bytes and answers come down \
         as 4-byte values and a found bit, so `PCIe up` and `PCIe down` of \
         the Ret rows are about equal, half the paper's each, and Ret4 \
         overlaps them (~64% saved, of a smaller total)."
    )
}

/// **§V-B text table** — WarpDrive speedups over CUDPP cuckoo at the
/// three headline load factors.
///
/// Paper: "WarpDrive shows speedups over CUDPP of 1.79, 2.18, 2.84 for
/// insertion and 1.3, 1.34, 1.3 for retrieval at load factors of 0.8,
/// 0.9, 0.95 respectively" (best group size per load).
pub fn table_speedup(opts: &Opts, out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "Speedup over CUDPP cuckoo, unique keys, best |g| per load (n = {})\n",
        opts.n
    )?;
    let mut t = TextTable::new(vec![
        "load",
        "best |g|",
        "insert speedup",
        "paper",
        "retrieve speedup",
        "paper",
    ]);
    let bench = SingleGpuBench::for_sweep(opts.n, 0.80);
    for (load, paper_ins, paper_ret) in [
        (0.80, "1.79", "1.30"),
        (0.90, "2.18", "1.34"),
        (0.95, "2.84", "1.30"),
    ] {
        let best = GROUP_SIZES
            .iter()
            .map(|&g| bench.warpdrive(Distribution::Unique, opts.modeled_n, load, g, opts.seed))
            .max_by(|a, b| a.insert_rate.total_cmp(&b.insert_rate))
            .expect("nonempty sweep");
        let cuckoo = bench.cuckoo(Distribution::Unique, opts.modeled_n, load, opts.seed);
        t.row(vec![
            format!("{load:.2}"),
            best.group_size.to_string(),
            format!("{:.2}x", best.insert_rate / cuckoo.insert_rate),
            paper_ins.to_owned(),
            format!("{:.2}x", best.retrieve_rate / cuckoo.retrieve_rate),
            paper_ret.to_owned(),
        ]);
    }
    write!(out, "{t}")
}

/// **Baseline comparison table** (§III claims).
///
/// * Stadium hash in-core: 1.04–1.19× faster than GPU cuckoo at α = 0.8;
/// * Stadium hash out-of-core (table behind PCIe): collapses to
///   ≈100 M ops/s;
/// * Robin Hood: "comparable speed to Alcantara's hash map";
/// * sort-and-compress: O(n) auxiliary memory (half the effective
///   capacity) and O(log n) queries;
/// * Folklore CPU (real wall-clock on this machine, not simulated): its
///   row goes to stderr, so what `out` receives repeats byte for byte.
pub fn table_baselines(opts: &Opts, out: &mut dyn Write) -> io::Result<()> {
    use baselines::stadium::TablePlacement;
    use baselines::{CuckooHash, FolkloreMap, RobinHoodMap, SortCompressStore, StadiumHash};
    const LOAD: f64 = 0.80;
    const FOLKLORE: &str = "Folklore (CPU, real)";

    let n = opts.n;
    let capacity = (n as f64 / LOAD).ceil() as usize;
    let pairs = Distribution::Unique.generate(n, opts.seed);
    let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
    writeln!(
        out,
        "Baselines at alpha = {LOAD}, unique keys (n = {n}, modeled 2^27)\n"
    )?;

    let mut t = TextTable::new(vec![
        "structure",
        "insert G/s",
        "retrieve G/s",
        "memory words",
        "notes",
    ]);
    let rate = |sim: f64| scaled_rate(sim, n, opts.modeled_n);
    let device = |table_words: usize| p100_with_words(0, table_words + 3 * n + 1024);

    // WarpDrive reference
    {
        let map = host_map(n, capacity, Config::default());
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
    let cuckoo_insert_rate = {
        let table = CuckooHash::new(device(capacity), capacity, opts.seed as u32).expect("cuckoo");
        let ins = table.insert_pairs(&pairs);
        let ret = table.try_retrieve(&keys).expect("retrieve").report;
        t.row(vec![
            "CUDPP cuckoo".to_owned(),
            gops(rate(ins.stats.sim_time)),
            gops(rate(ret.time)),
            (capacity + 101).to_string(),
            format!("{} stashed, {} failed", ins.stashed, ins.failed),
        ]);
        rate(ins.stats.sim_time)
    };

    // Robin Hood
    {
        let map =
            RobinHoodMap::new(device(capacity), capacity, opts.seed as u32).expect("robin hood");
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
    let out_of_core = TablePlacement::OutOfCore {
        pcie_bandwidth: 11.0e9,
    };
    for (placement, label) in [
        (TablePlacement::InCore, "Stadium in-core"),
        (out_of_core, "Stadium out-of-core"),
    ] {
        let words = capacity + capacity / 64;
        let table = StadiumHash::new(device(words), capacity, placement, opts.seed as u32)
            .expect("stadium");
        let ins = table.insert_pairs(&pairs);
        let ret = table.try_retrieve(&keys).expect("retrieve").report;
        let ins_rate = rate(ins.sim_time);
        let note = if matches!(placement, TablePlacement::InCore) {
            format!("{:.2}x cuckoo ins", ins_rate / cuckoo_insert_rate)
        } else {
            "table behind PCIe".to_owned()
        };
        t.row(vec![
            label.to_owned(),
            gops(ins_rate),
            gops(rate(ret.time)),
            words.to_string(),
            note,
        ]);
    }

    // sort-and-compress
    {
        let (store, build) = SortCompressStore::build(device(n), &pairs).expect("sort store");
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
        let inserted = map.insert_bulk(&pairs);
        let ins_t = t0.elapsed().as_secs_f64();
        let t0 = std::time::Instant::now();
        let res = map.get_bulk(&keys);
        let ret_t = t0.elapsed().as_secs_f64();
        assert_eq!(inserted.failed, 0);
        assert!(res.iter().all(Option::is_some));
        t.row(vec![
            FOLKLORE.to_owned(),
            gops(n as f64 / ins_t),
            gops(n as f64 / ret_t),
            map.capacity().to_string(),
            format!("{} host threads", rayon::current_num_threads()),
        ]);
    }

    // the wall-clock row is laid out with the others and leaves by stderr
    for line in t.render().lines() {
        if line.contains(FOLKLORE) {
            eprintln!("{line}");
        } else {
            writeln!(out, "{line}")?;
        }
    }
    writeln!(
        out,
        "\nExpect: Stadium in-core 1.04-1.19x cuckoo insert; out-of-core \
         ~0.1 G/s; Robin Hood comparable to cuckoo; Folklore well below \
         the GPU structures (paper cites 0.3 G/s on 48 threads)."
    )
}

/// **Fig. 6 check** — bandwidth ceilings of the modeled interconnect.
///
/// Verifies the topology model against the §V-A numbers: ≈22 GB/s
/// measured accumulated host→device bandwidth (24 GB/s theoretical over
/// two 12 GB/s switches) and the NVLink edge structure (one 20 GB/s
/// bidirectional link per GPU pair, doubled on (0,1) and (2,3)).
pub fn topo_check(_opts: &Opts, out: &mut dyn Write) -> io::Result<()> {
    use interconnect::{alltoall_time, broadcast_h2d_time, Topology};
    writeln!(out, "Fig. 6 topology check: quad-P100 node\n")?;
    let topo = Topology::p100_quad(M);

    // host link
    let total: u64 = 32 << 30;
    let h2d_gbs = |topo: &Topology| total as f64 / broadcast_h2d_time(topo, total) / 1e9;
    writeln!(
        out,
        "H2D accumulated bandwidth: {:.1} GB/s (theoretical 24, paper measured ~22)",
        h2d_gbs(&topo)
    )?;

    // peer links
    let mut links = TextTable::new(vec!["pair", "eff. GB/s", "links"]);
    for i in 0..M {
        for j in (i + 1)..M {
            let bw = topo.peer_bandwidth(i, j);
            let doubled = bw > 20.0e9 * 0.9;
            links.row(vec![
                format!("{i}-{j}"),
                format!("{:.1}", bw / 1e9),
                if doubled { "2" } else { "1" }.to_owned(),
            ]);
        }
    }
    write!(out, "{links}")?;

    // balanced all-to-all
    let rep = alltoall_time(&topo, |_, _| 1u64 << 30);
    writeln!(
        out,
        "\nbalanced all-to-all accumulated bandwidth: {:.0} GB/s (paper ~192)",
        rep.accumulated_bandwidth() / 1e9
    )?;

    // per-m scaling of the host link
    let mut per_m = TextTable::new(vec!["m", "H2D GB/s"]);
    for m in 1..=M {
        per_m.row(vec![
            m.to_string(),
            format!("{:.1}", h2d_gbs(&Topology::p100_quad(m))),
        ]);
    }
    write!(out, "\n{per_m}")
}

/// Diagnostic: per-stage fractions of the device-sided cascades on two
/// GPUs (used while calibrating; kept because it answers "where does the
/// time go" for any configuration).
pub fn stage_debug(opts: &Opts, out: &mut dyn Write) -> io::Result<()> {
    let m = 2;
    let n = (opts.n / 12) * 12;
    let node = NodeBench::new(m, n / m, NodeBench::PAPER_LOAD, Config::default());
    let pairs = Distribution::Unique.generate(n, opts.seed);
    let (ins, ret) = node.device_round(&pairs);
    let scale = opts.modeled_n as f64 / n as f64;
    for (title, report) in [
        (format!("insert cascade (m={m}, modeled 2^28):"), &ins),
        ("retrieve cascade:".to_owned(), &ret.report),
    ] {
        writeln!(out, "{title}")?;
        for s in &report.stages {
            writeln!(
                out,
                "  {:?}: {:.3} ms ({:.1}%)",
                s.stage,
                s.scaled_time(scale) * 1e3,
                100.0 * s.scaled_time(scale) / report.modeled_time(scale)
            )?;
        }
    }
    Ok(())
}

/// Calibration check: prints the simulated single-GPU rates against the
/// paper's headline numbers so model constants can be tuned.
///
/// Targets (paper §V-B / §VI):
/// * insert ≈ 1.4 G ops/s at α = 0.95 for the best |g|;
/// * device insert range ≈ 1.7–2.7 G ops/s over the sweep midband;
/// * device retrieve ≈ 3.5–5.5 G ops/s;
/// * optimum at |g| ∈ {2, 4, 8} for high loads; |g| = 32 clearly worse.
pub fn calibrate(opts: &Opts, out: &mut dyn Write) -> io::Result<()> {
    let mut t = TextTable::new(vec![
        "load",
        "|g|",
        "ins G/s",
        "ret G/s",
        "ins steps",
        "ret steps",
    ]);
    let bench = SingleGpuBench::for_sweep(opts.n, 0.5);
    for &load in &[0.5, 0.8, 0.95] {
        for &g in &GROUP_SIZES {
            let m = bench.warpdrive(Distribution::Unique, opts.modeled_n, load, g, opts.seed);
            t.row(vec![
                format!("{load:.2}"),
                g.to_string(),
                gops(m.insert_rate),
                gops(m.retrieve_rate),
                format!("{:.2}", m.insert_steps),
                format!("{:.2}", m.retrieve_steps),
            ]);
        }
    }
    write!(out, "{t}")
}
