//! The passes of one invocation.
//!
//! 1. *model pass* — one rayon worker, sequential schedule: every modeled
//!    metric, the oracle check, every per-layer count.
//! 2. *host pass* (`--trace 0`) — two rayon workers, the default racing
//!    pool, spans off: allocation counts, peak RSS, set-up time, and the
//!    advisory wall and CPU numbers.
//! 3. *traced pass* (`--trace 1`) — same settings, three of the repetitions
//!    with spans on, then the layer probes: per-layer host time and what
//!    tracing costs.
//!
//! Every repetition builds its devices and tables anew and replays the same
//! inputs, so repetitions are identical work and counts per op do not depend
//! on how many of them fit in `--seconds`.

use crate::alloc::{self, AllocSnapshot};
use crate::layers::{device_totals, ratio, unit_of, Metrics, END_TO_END, PER_LAYER};
use crate::procfs::{self, CpuTimes};
use crate::stats::{median, percentile};
use crate::trace::{layer_self_time, self_times_ns, total_of, Span, Tracer};
use crate::workloads::{Model, Workload};
use crate::{probes, workloads};
use std::path::PathBuf;
use std::rc::Rc;
use std::time::{Duration, Instant};
use warpdrive::Config;

/// Rayon workers of the host and traced passes: the machine's two cores.
/// One worker would run every launch inline and hide the thread-spawn cost
/// the small-batch workloads pay.
pub const HOST_THREADS: usize = 2;
/// Fewest repetitions a pass measures, however short `--seconds` is.
pub const MIN_REPS: usize = 3;
/// Repetitions the traced pass records spans for: the trace file should
/// stay small enough to read.
pub const TRACED_REPS: usize = 3;
/// Input generations whose median is `workloads.gen_s`.
pub const GEN_RUNS: usize = 3;

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// `--workload`.
    pub workload: String,
    /// `--seed` (default 42).
    pub seed: u64,
    /// `--seconds` (default 10): how long the invocation measures.
    pub seconds: f64,
    /// `--trace 1`: per-layer metrics from a traced pass, not end-to-end
    /// metrics from an untraced one.
    pub trace: bool,
    /// `--selfcheck`: run the model pass twice and compare.
    pub selfcheck: bool,
    /// `--out` (default `benchmark/out`): where the trace file goes.
    pub out: PathBuf,
}

/// What the last line of standard output reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Ops sent over all passes.
    pub attempted: u64,
    /// Ops refused or failed.
    pub failed: u64,
    /// The metrics `BENCHMARK.json` declares for this mode, in its order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

/// One repetition's host-side measurements; all but `setup_s` cover the
/// timed region only.
#[derive(Debug, Clone, Copy)]
struct Rep {
    setup_s: f64,
    wall_s: f64,
    cpu: CpuTimes,
    alloc: AllocSnapshot,
    launches: u64,
    failed: u64,
}

fn set_rayon_threads(n: usize) {
    std::env::set_var("RAYON_NUM_THREADS", n.to_string());
    println!("# RAYON_NUM_THREADS={n}");
}

/// Builds the system, runs the timed region, and checks the responses.
fn repetition<W: Workload>(
    inputs: &W::Inputs,
    tracer: &Rc<Tracer>,
    id: u32,
) -> Result<Rep, String> {
    tracer.set_rep(id);
    tracer.span("harness", "rep", 0, || {
        let ops = W::host_ops(inputs);
        let start = Instant::now();
        let mut system = tracer.span("harness", "setup", 0, || {
            W::build(inputs, Config::default(), tracer)
        });
        let setup_s = start.elapsed().as_secs_f64();
        let launches = device_totals(W::devices(&system)).launches;
        // reading /proc allocates, so the allocation counter is read innermost
        let cpu = procfs::cpu_times();
        let allocated = alloc::snapshot();
        let start = Instant::now();
        let output = tracer.span("harness", "run", ops, || {
            W::run(&mut system, inputs, tracer)
        });
        let wall_s = start.elapsed().as_secs_f64();
        let alloc = alloc::snapshot().since(allocated);
        let cpu = procfs::cpu_times().since(cpu);
        let launches = device_totals(W::devices(&system)).launches - launches;
        drop(system);
        let failed = tracer.span("harness", "check", 0, || W::check(inputs, &output))?;
        Ok(Rep {
            setup_s,
            wall_s,
            cpu,
            alloc,
            launches,
            failed,
        })
    })
}

/// Repeats until `deadline` would be overrun, at least [`MIN_REPS`] times.
/// With `traced`, each of the first [`TRACED_REPS`] untraced repetitions is
/// followed by one with spans on, so that both kinds see the same machine
/// state; returns the untraced and the traced repetitions.
fn repeat<W: Workload>(
    inputs: &W::Inputs,
    tracer: &Rc<Tracer>,
    traced: bool,
    deadline: Instant,
) -> Result<(Vec<Rep>, Vec<Rep>), String> {
    // warm-up: first-touch page faults and lazy initialisation
    repetition::<W>(inputs, tracer, 0)?;
    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    loop {
        let start = Instant::now();
        plain.push(repetition::<W>(inputs, tracer, 0)?);
        if traced && spanned.len() < TRACED_REPS {
            tracer.set_on(true);
            // one repetition's execute calls are enough for the probe
            tracer.set_capture(spanned.is_empty());
            let rep = repetition::<W>(inputs, tracer, spanned.len() as u32);
            tracer.set_on(false);
            tracer.set_capture(false);
            spanned.push(rep?);
        }
        let round = start.elapsed();
        if plain.len() >= MIN_REPS && Instant::now() + round > deadline {
            return Ok((plain, spanned));
        }
    }
}

/// Allocation, wall-clock and CPU metrics of untraced repetitions of `ops`
/// ops each.
fn host_metrics(reps: &[Rep], ops: u64) -> Metrics {
    let total_ops = (reps.len() as u64 * ops) as f64;
    let sum = |f: fn(&Rep) -> f64| reps.iter().map(f).sum::<f64>();
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let allocs = sum(|r| r.alloc.calls as f64);
    let mut m = Metrics::default();
    m.push("host_allocs_per_op", allocs / total_ops);
    m.push(
        "host_alloc_bytes_per_op",
        sum(|r| r.alloc.bytes as f64) / total_ops,
    );
    m.push("host.wall_ops_s", ops as f64 / median(&walls));
    // the slow quartile of the rate is the long quartile of the time
    m.push("host.wall_ops_s_p25", ops as f64 / percentile(&walls, 75.0));
    m.push("host.wall_ops_s_p75", ops as f64 / percentile(&walls, 25.0));
    m.push("host.reps", reps.len() as f64);
    m.push(
        "host.cpu_user_us_per_op",
        sum(|r| r.cpu.user_s) * 1e6 / total_ops,
    );
    m.push(
        "host.cpu_sys_us_per_op",
        sum(|r| r.cpu.sys_s) * 1e6 / total_ops,
    );
    m.push(
        "host.allocs_per_launch",
        ratio(allocs, sum(|r| r.launches as f64)),
    );
    m
}

/// Per-layer host time from the spans of `reps` traced repetitions.
fn span_metrics(spans: &[Span], reps: usize) -> Metrics {
    let mut m = Metrics::default();
    for layer in ["core.map", "core.distributed"] {
        for (call, metric) in [
            ("put_batch", "host_put_ns_per_op"),
            ("get_batch", "host_get_ns_per_op"),
            ("delete_batch", "host_delete_ns_per_op"),
        ] {
            let (seconds, items) = total_of(spans, layer, call);
            m.push(
                &format!("{layer}.{metric}"),
                ratio(seconds * 1e9, items as f64),
            );
        }
    }
    for layer in ["core.cache", "serve"] {
        m.push(
            &format!("{layer}.host_self_s"),
            layer_self_time(spans, layer) / reps as f64,
        );
    }
    m
}

/// How far the spans' self times are from adding up to the root spans, as a
/// share of the roots: 0 when every child lies inside its parent.
#[must_use]
pub fn self_time_gap(spans: &[Span]) -> f64 {
    let roots: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::duration_ns)
        .sum();
    let own: u64 = self_times_ns(spans).iter().sum();
    ratio((roots as f64 - own as f64).abs(), roots as f64)
}

fn print_metrics(metrics: &Metrics) {
    for (name, value) in metrics.iter() {
        let unit = unit_of(name).expect("declared metric");
        println!("metric {name} {value} {unit}");
    }
}

/// Runs workload `W` as `args` ask and prints every metric it measures.
///
/// # Errors
/// A response that differs from the oracle's, a model pass that does not
/// repeat under `--selfcheck`, or a trace file that cannot be written.
pub fn run<W: Workload>(args: &Args) -> Result<Outcome, String> {
    println!(
        "# workload {} seed {} seconds {} trace {} cores {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, std::num::NonZero::get),
    );
    set_rayon_threads(HOST_THREADS);
    let mut gen_times = Vec::with_capacity(GEN_RUNS);
    let mut inputs = None;
    for _ in 0..GEN_RUNS {
        let start = Instant::now();
        inputs = Some(W::generate(args.seed));
        gen_times.push(start.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("GEN_RUNS is positive");
    let gen_s = median(&gen_times);

    let measuring = Instant::now();
    set_rayon_threads(1);
    let fail = |e: String| format!("seed {}: {e}", args.seed);
    let Model {
        attempted,
        failed,
        mut metrics,
    } = W::model(&inputs).map_err(fail)?;
    if args.selfcheck {
        let again = W::model(&inputs).map_err(fail)?;
        if again.metrics != metrics || again.failed != failed {
            for ((name, a), (_, b)) in metrics.iter().zip(again.metrics.iter()) {
                if a.to_bits() != b.to_bits() {
                    eprintln!("selfcheck: {name} read {a} then {b}");
                }
            }
            return Err("the model pass did not repeat bit for bit".to_owned());
        }
        println!("# selfcheck: two model passes agree bit for bit");
    }
    println!("# model pass: {:.2} s", measuring.elapsed().as_secs_f64());

    set_rayon_threads(HOST_THREADS);
    let tracer = Tracer::new();
    let deadline = measuring + Duration::from_secs_f64(args.seconds);
    let (plain, spanned) = repeat::<W>(&inputs, &tracer, args.trace, deadline).map_err(fail)?;
    let ops = W::host_ops(&inputs);
    metrics.extend(host_metrics(&plain, ops));
    metrics.push("host.rayon_threads", HOST_THREADS as f64);
    metrics.push("workloads.gen_s", gen_s);
    let setups: Vec<f64> = plain.iter().map(|r| r.setup_s).collect();
    metrics.push("setup_s", gen_s + median(&setups));

    if args.trace {
        let spans = tracer.spans();
        metrics.extend(span_metrics(&spans, spanned.len()));
        let wall = |reps: &[Rep]| median(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        metrics.push("host.trace_overhead_x", wall(&spanned) / wall(&plain));
        metrics.push(
            "core.service.host_self_s",
            probes::segmentation_s(&tracer.captured()),
        );
        metrics.push("gpu-sim.host_empty_launch_us", probes::empty_launch_us());
        metrics.push(
            "multisplit.host_ns_per_elem",
            probes::multisplit_ns_per_elem(),
        );
        let path = args.out.join(format!("{}.trace.jsonl", args.workload));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!(
            "# trace: {} spans in {}, self times within {:.4} % of the root spans",
            spans.len(),
            path.display(),
            100.0 * self_time_gap(&spans)
        );
    }
    // read last, so it covers everything the process did
    metrics.push("host_peak_rss_mib", procfs::peak_rss_mib());

    let host_reps = (plain.len() + spanned.len()) as u64;
    let outcome = Outcome {
        attempted: attempted + host_reps * ops,
        failed: failed + plain.iter().chain(&spanned).map(|r| r.failed).sum::<u64>(),
        metrics: declared(&metrics, args.trace)?,
    };
    print_metrics(&metrics);
    println!("ops_attempted {}", outcome.attempted);
    println!("ops_failed {}", outcome.failed);
    Ok(outcome)
}

/// The metrics `BENCHMARK.json` declares for this mode. A per-layer metric
/// of a layer the workload does not reach reads 0; an end-to-end metric
/// must have been measured.
fn declared(
    metrics: &Metrics,
    trace: bool,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let table = if trace { PER_LAYER } else { END_TO_END };
    table
        .iter()
        .map(|&(name, unit)| {
            let value = match metrics.get(name) {
                Some(v) => v,
                None if trace => 0.0,
                None => return Err(format!("{name} was not measured")),
            };
            if value.is_finite() {
                Ok((name, value, unit))
            } else {
                Err(format!("{name} is {value}"))
            }
        })
        .collect()
}

/// Dispatches on `args.workload`.
///
/// # Errors
/// An unknown workload name, or whatever [`run`] reports.
pub fn dispatch(args: &Args) -> Result<Outcome, String> {
    use workloads::bulk::{Bulk, Node4, OneGpu};
    use workloads::serve::ServeNode4;
    use workloads::ycsb::{BCached, Stream, A};
    match args.workload.as_str() {
        "bulk_1gpu" => run::<Bulk<OneGpu>>(args),
        "bulk_node4" => run::<Bulk<Node4>>(args),
        "ycsb_a_1gpu" => run::<Stream<A>>(args),
        "ycsb_b_cached_1gpu" => run::<Stream<BCached>>(args),
        "serve_node4" => run::<ServeNode4>(args),
        other => Err(format!(
            "unknown workload {other}; one of {}",
            workloads::NAMES.join(", ")
        )),
    }
}
