//! `wd-benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1]
//! [--selfcheck] [--out <dir>]`
//!
//! Prints every metric it measures as `metric <name> <value> <unit>` and, as
//! the last line of standard output, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. Exits non-zero,
//! without that line, when a response differs from the oracle's.

use std::path::PathBuf;
use std::process::ExitCode;
use wd_benchmark::alloc::CountingAlloc;
use wd_benchmark::run::{dispatch, Args, Outcome};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage: wd-benchmark --workload <name> [--seed <n>] [--seconds <s>] \
                     [--trace 0|1] [--selfcheck] [--out <dir>]";

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        trace: false,
        selfcheck: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".to_owned());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--selfcheck" => args.selfcheck = true,
            "--out" => args.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_owned());
    }
    Ok(args)
}

fn json_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    wd_benchmark::alloc::pin_malloc_thresholds();
    // Config::default(), Device and ResizePolicy read WD_* knobs (schedule,
    // fault plan, sanitizers); the benchmark's settings must not depend on
    // what the caller's shell happens to export
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("WD_") {
            std::env::remove_var(key);
        }
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match dispatch(&args) {
        Ok(outcome) => {
            println!("{}", json_line(&outcome));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("FAILED {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
