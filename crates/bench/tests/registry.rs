//! The scenario registry against the committed captures: every row has
//! its file and every file its row, every row runs, and the ledger holds
//! modeled numbers only.

use std::collections::BTreeSet;
use std::path::Path;
use wd_bench::{Opts, DIAGNOSTICS, SCENARIOS};

/// Divisible by 12 (fig9's m = 1..4) and by fig11's 256 batches, so every
/// scenario runs exactly this many elements.
const TINY_N: usize = 3072;

fn run(name: &str) -> String {
    let scenario = SCENARIOS.iter().find(|s| s.name == name).expect("registered");
    let opts = Opts::parse(&["--n".to_owned(), TINY_N.to_string()], scenario.paper_n);
    let mut out = Vec::new();
    (scenario.run)(&opts, &mut out).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("scenarios write UTF-8")
}

#[test]
fn registry_names_and_committed_captures_are_a_bijection() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut captured = BTreeSet::new();
    for entry in std::fs::read_dir(root.join("results")).expect("results/") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "txt") {
            captured.insert(path.file_stem().unwrap().to_str().unwrap().to_owned());
        }
    }
    assert!(root.join("BENCH_perf.json").is_file());
    captured.insert("perf".to_owned());

    let names: BTreeSet<String> = SCENARIOS.iter().map(|s| s.name.to_owned()).collect();
    assert_eq!(names.len(), SCENARIOS.len(), "duplicate scenario name");
    assert!(DIAGNOSTICS.iter().all(|d| names.contains(*d)));
    let expected: BTreeSet<String> = names
        .into_iter()
        .filter(|n| !DIAGNOSTICS.contains(&n.as_str()))
        .collect();
    assert_eq!(expected, captured);
}

#[test]
fn every_scenario_runs_in_process_and_names_its_n() {
    for scenario in &SCENARIOS {
        let text = run(scenario.name);
        assert!(text.ends_with('\n'), "{}: {text:?}", scenario.name);
        // topo_check runs no elements; the diagnostics print bare tables
        if scenario.name == "topo_check" || DIAGNOSTICS.contains(&scenario.name) {
            continue;
        }
        let header = if scenario.name == "perf" {
            text.lines().find(|l| l.contains("\"n\":"))
        } else {
            text.lines().next()
        };
        let header = header.unwrap_or_else(|| panic!("{}: no header", scenario.name));
        assert!(header.contains(&TINY_N.to_string()), "{}: {header}", scenario.name);
    }
}

#[test]
fn the_ledger_holds_no_wall_clock_or_machine_field() {
    let doc = run("perf");
    let keys = doc.lines().filter_map(|l| l.trim_start().strip_prefix('"')?.split_once("\":"));
    let mut seen = 0;
    for (key, _) in keys {
        seen += 1;
        for banned in ["wall", "host_ops", "threads"] {
            assert!(!key.contains(banned), "ledger key `{key}`");
        }
    }
    assert!(seen > 1000, "{seen} keys: the sweep is missing");
}
