//! `BENCHMARK.json` and the benchmark's own metric tables must agree, and
//! the oracle must answer like a map.

use warpdrive::{Op, Response};
use wd_benchmark::layers::{unit_of, END_TO_END, LADDER_RATES, PER_LAYER};
use wd_benchmark::oracle::Oracle;
use wd_benchmark::workloads::NAMES;

#[test]
fn benchmark_json_declares_exactly_the_metrics_the_binary_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert_eq!(text.matches(&entry).count(), 1, "{entry}");
    }
    for name in NAMES {
        assert_eq!(
            text.matches(&format!("\"name\": \"{name}\"")).count(),
            1,
            "{name}"
        );
    }
    assert_eq!(
        text.matches("\"name\": ").count(),
        NAMES.len() + END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json names something the binary does not know"
    );
    for rate in LADDER_RATES {
        assert_eq!(unit_of(&format!("serve.p99_s_r{rate}")), Some("s"));
    }
}

#[test]
fn the_oracle_is_a_sequential_map() {
    let ops = [
        Op::Get { key: 1 },
        Op::Put { key: 1, value: 10 },
        Op::Put { key: 1, value: 11 },
        Op::Get { key: 1 },
        Op::Delete { key: 1 },
        Op::Delete { key: 1 },
        Op::Get { key: 1 },
    ];
    let right = [
        Response::Get { value: None },
        Response::Put,
        Response::Put,
        Response::Get { value: Some(11) },
        Response::Delete { hit: true },
        Response::Delete { hit: false },
        Response::Get { value: None },
    ];
    assert_eq!(Oracle::default().check(ops, right), Ok(7));

    let mut wrong = right;
    wrong[3] = Response::Get { value: Some(10) };
    let err = Oracle::default().check(ops, wrong).unwrap_err();
    assert!(err.starts_with("op 3 "), "{err}");
    assert!(Oracle::default()
        .check(ops, right[..6].iter().copied())
        .is_err());
    assert!(Oracle::default()
        .check(ops[..6].iter().copied(), right)
        .is_err());
}
