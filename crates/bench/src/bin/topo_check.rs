//! **Fig. 6 check** — bandwidth ceilings of the modeled interconnect.
//!
//! Verifies the topology model against the §V-A numbers: ≈22 GB/s
//! measured accumulated host→device bandwidth (24 GB/s theoretical over
//! two 12 GB/s switches) and the NVLink edge structure (one 20 GB/s
//! bidirectional link per GPU pair, doubled on (0,1) and (2,3)).

use interconnect::{alltoall_time, broadcast_h2d_time, Topology};
use wd_bench::table::TextTable;

fn main() {
    println!("Fig. 6 topology check: quad-P100 node\n");
    let topo = Topology::p100_quad(4);

    // host link
    let total: u64 = 32 << 30;
    let t = broadcast_h2d_time(&topo, total);
    println!(
        "H2D accumulated bandwidth: {:.1} GB/s (theoretical 24, paper measured ~22)",
        total as f64 / t / 1e9
    );

    // peer links
    let mut links = TextTable::new(vec!["pair", "eff. GB/s", "links"]);
    for i in 0..4 {
        for j in (i + 1)..4 {
            let bw = topo.peer_bandwidth(i, j);
            let doubled = bw > 20.0e9 * 0.9;
            links.row(vec![
                format!("{i}-{j}"),
                format!("{:.1}", bw / 1e9),
                if doubled { "2" } else { "1" }.to_owned(),
            ]);
        }
    }
    links.print();

    // balanced all-to-all
    let per = 1u64 << 30;
    let rep = alltoall_time(&topo, |_, _| per);
    println!(
        "\nbalanced all-to-all accumulated bandwidth: {:.0} GB/s (paper ~192)",
        rep.accumulated_bandwidth() / 1e9
    );

    // per-m scaling of the host link
    let mut per_m = TextTable::new(vec!["m", "H2D GB/s"]);
    for m in 1..=4usize {
        let topo = Topology::p100_quad(m);
        let t = broadcast_h2d_time(&topo, total);
        per_m.row(vec![
            m.to_string(),
            format!("{:.1}", total as f64 / t / 1e9),
        ]);
    }
    println!();
    per_m.print();
}
