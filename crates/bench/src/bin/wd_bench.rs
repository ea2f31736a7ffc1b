//! `wd-bench <scenario> [--n N] [--seed S] [--full]` — runs one row of
//! the scenario registry to stdout; `wd-bench list` names the rows that
//! have a committed capture (`results/<name>.txt`, `BENCH_perf.json`).

use std::io::Write;
use wd_bench::{Opts, DIAGNOSTICS, SCENARIOS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args.first().map_or("", String::as_str);
    let mut out = std::io::stdout().lock();
    if name == "list" {
        for s in SCENARIOS.iter().filter(|s| !DIAGNOSTICS.contains(&s.name)) {
            writeln!(out, "{}", s.name).expect("stdout");
        }
        return;
    }
    let Some(scenario) = SCENARIOS.iter().find(|s| s.name == name) else {
        let names: Vec<&str> = SCENARIOS.iter().map(|s| s.name).collect();
        eprintln!("usage: wd-bench <scenario> [--n N] [--seed S] [--full]");
        eprintln!("       wd-bench list");
        eprintln!("scenarios: {}", names.join(" "));
        std::process::exit(2);
    };
    let workers = rayon::current_num_threads();
    if workers != 1 {
        eprintln!(
            "wd-bench: {workers} rayon workers: output not comparable with results/ \
             (set RAYON_NUM_THREADS=1)"
        );
    }
    let opts = Opts::parse(&args[1..], scenario.paper_n);
    (scenario.run)(&opts, &mut out).expect("stdout");
}
