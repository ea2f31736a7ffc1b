//! Golden differential for the cascade driver.
//!
//! `tests/fixtures/cascade_golden.txt` holds full cascade reports (stage
//! order, `f64::to_bits` of time and overhead, bytes), the degraded-mode
//! counters and a digest of the answers for insert / retrieve / erase ×
//! device- and host-sided × m ∈ {1, 2, 4}, disarmed and under four fixed
//! armed plans. It was captured from the three hand-written cascade
//! ladders that preceded the shared driver, so the driver must reproduce
//! every row bit for bit; the host-sided erase rows under armed plans were
//! regenerated once, when erase gained the host-link retry contract of its
//! two siblings.
//!
//! The `op=execute` rows pin [`MapService::execute`] through the same
//! cascades: a mixed stream of duplicate keys, put → delete → put,
//! delete-first keys and get-only duplicates, host-sided, m × plan.
//!
//! Every case starts from a fresh node pre-loaded under a disarmed plan,
//! arms the plan, runs the operation (mid-flight quarantine and restart)
//! and runs it once more on other keys (steady state under the resulting
//! mask). Typed errors are part of the fixture.
//!
//! A deliberate change to a modeled number regenerates the file with
//! `UPDATE_GOLDEN=1 cargo test --test cascade_golden`; review its diff.

use gpu_sim::{Device, FaultPlan, Schedule};
use interconnect::Topology;
use std::fmt::Write as _;
use std::sync::Arc;
use warpdrive::stats::StageTiming;
use warpdrive::{pack, Config, DistributedHashMap, MapService, Mutation, Op, Resident, Response};

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures/cascade_golden.txt");
const PRELOAD: u32 = 1500;

fn plans(m: usize) -> Vec<(&'static str, FaultPlan)> {
    let seeded = FaultPlan::default().with_seed(0x5eed_2026);
    vec![
        ("disarmed", FaultPlan::default()),
        ("kill", seeded.with_kill(m as u32 - 1)),
        ("drop", seeded.with_transfer_drop(0.4)),
        ("launch", seeded.with_launch_fail(0.3)),
        (
            "mixed",
            seeded
                .with_transfer_drop(0.5)
                .with_launch_fail(0.5)
                .with_link_degrade(0.3, 2.0)
                .with_straggler(0, 3.0, 1e-5),
        ),
    ]
}

fn key(i: u32) -> u32 {
    i * 7 + 3
}

/// A fresh node holding `key(0..PRELOAD)`, loaded while disarmed.
fn node(m: usize, plan: FaultPlan) -> DistributedHashMap {
    node_with(m, plan, None)
}

/// [`node`] with `mutation` armed.
fn node_with(m: usize, plan: FaultPlan, mutation: Option<Mutation>) -> DistributedHashMap {
    let devices: Vec<Arc<Device>> = (0..m)
        .map(|i| Arc::new(Device::with_words(i, 1 << 16)))
        .collect();
    // every knob `Config::default()` reads from the environment is pinned
    let mut cfg = Config::default()
        .with_schedule(Schedule::Sequential)
        .with_fault(FaultPlan::default());
    cfg.mutation = mutation;
    let mut d = DistributedHashMap::new(devices, 4096, cfg, Topology::p100_quad(m)).unwrap();
    let pairs: Vec<(u32, u32)> = (0..PRELOAD).map(|i| (key(i), i)).collect();
    d.put_batch(&pairs).unwrap();
    d.set_fault_plan(plan);
    d
}

/// Unstructured spread: equal contiguous chunks, one per GPU.
fn spread<T>(items: &[T], m: usize) -> Vec<&[T]> {
    let per = items.len().div_ceil(m).max(1);
    items.chunks(per).chain(std::iter::repeat(&[][..])).take(m).collect()
}

fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, w| (h ^ w).wrapping_mul(0x0100_0000_01b3))
}

fn stages(out: &mut String, stages: &[StageTiming]) {
    for s in stages {
        writeln!(
            out,
            "  {:?} time={:016x} bytes={} overhead={:016x}",
            s.stage,
            s.time.to_bits(),
            s.bytes,
            s.overhead.to_bits()
        )
        .unwrap();
    }
}

/// A mixed stream over `keys`: each key runs one of eight same-key
/// chains, dealt out round by round so a key's ops lie far apart.
fn mixed_stream(keys: &[u32]) -> Vec<Op> {
    let chains: Vec<Vec<Op>> = keys
        .iter()
        .enumerate()
        .map(|(i, &key)| {
            let put = |salt: u32| Op::Put {
                key,
                value: key ^ salt,
            };
            let (get, delete) = (Op::Get { key }, Op::Delete { key });
            match i % 8 {
                0 => vec![get, get, get],
                1 => vec![put(1), delete, put(2)],
                2 => vec![delete, delete],
                3 => vec![delete, put(3), get],
                4 => vec![get, put(4), get],
                5 => vec![put(5), put(6)],
                6 => vec![put(7), get, delete, get],
                _ => vec![get],
            }
        })
        .collect();
    (0..4)
        .flat_map(|round| chains.iter().filter_map(move |c| c.get(round).copied()))
        .collect()
}

/// Runs one operation and renders its outcome plus the node's state.
fn run(out: &mut String, d: &mut DistributedHashMap, op: &str, host: bool, lo: u32, hi: u32) {
    let m = d.num_gpus();
    let keys: Vec<u32> = (lo..hi).map(key).collect();
    match op {
        "insert" => {
            let pairs: Vec<(u32, u32)> = keys.iter().map(|&k| (k, k ^ 0xabcd)).collect();
            let res = if host {
                d.put_batch(&pairs).map(|r| r.report)
            } else {
                let puts = Resident::Puts(&spread(&pairs, m));
                d.apply_device_sided(puts, None).map(|r| r.applied.report)
            };
            match res {
                Ok(r) => {
                    writeln!(out, " ok elements={}", r.elements).unwrap();
                    stages(out, &r.stages);
                }
                Err(e) => writeln!(out, " error {e:?}").unwrap(),
            }
        }
        "retrieve" => {
            let res = if host {
                d.get_batch(&keys).map(|r| (r.values, r.report))
            } else {
                d.apply_device_sided(Resident::Reads(&spread(&keys, m)), None)
                    .map(|r| (r.values.into_iter().flatten().collect(), r.applied.report))
            };
            match res {
                Ok((values, r)) => {
                    let answers = digest(values.iter().map(|v| v.map_or(u64::MAX, u64::from)));
                    writeln!(out, " ok elements={} answers={answers:016x}", r.elements).unwrap();
                    stages(out, &r.stages);
                }
                Err(e) => writeln!(out, " error {e:?}").unwrap(),
            }
        }
        "erase" => {
            let res = if host {
                d.delete_batch(&keys).map(|r| (r.hits, r.erased, r.report))
            } else {
                d.apply_device_sided(Resident::Erases(&spread(&keys, m)), None).map(|r| {
                    let hits = r.hits.into_iter().flatten().collect();
                    (hits, r.applied.erased, r.applied.report)
                })
            };
            match res {
                Ok((hits, erased, r)) => {
                    let answers = digest(hits.iter().map(|&h| u64::from(h)));
                    writeln!(
                        out,
                        " ok elements={} erased={erased} answers={answers:016x}",
                        r.elements
                    )
                    .unwrap();
                    stages(out, &r.stages);
                }
                Err(e) => writeln!(out, " error {e:?}").unwrap(),
            }
        }
        "execute" => match d.execute(&mixed_stream(&keys)) {
            Ok((responses, r)) => {
                let answers = digest(responses.iter().map(|r| match *r {
                    Response::Put => 0,
                    Response::Get { value } => value.map_or(1 << 32, |v| 2 << 32 | u64::from(v)),
                    Response::Delete { hit } => 3 << 32 | u64::from(hit),
                }));
                writeln!(out, " ok elements={} answers={answers:016x}", r.elements).unwrap();
                stages(out, &r.stages);
            }
            Err(e) => writeln!(out, " error {e:?}").unwrap(),
        },
        _ => unreachable!("unknown op {op}"),
    }
    let s = d.degraded_stats();
    let mut live = d.live_snapshot();
    live.sort_unstable();
    writeln!(
        out,
        "  degraded launch_retries={} transfer_retries={} backoff={:016x} quarantined={:?} migrated={} repartitions={} live={} contents={:016x}",
        s.launch_retries,
        s.transfer_retries,
        s.backoff_time.to_bits(),
        d.quarantined(),
        s.migrated_keys,
        s.repartitions,
        d.len(),
        digest(live.into_iter().map(|(k, v)| pack(k, v))),
    )
    .unwrap();
}

fn render() -> String {
    let mut out = String::new();
    for m in [1usize, 2, 4] {
        for (plan_name, plan) in plans(m) {
            for host in [false, true] {
                for op in ["insert", "retrieve", "erase"] {
                    let mut d = node(m, plan);
                    let side = if host { "host" } else { "device" };
                    // first call: hits and misses straddling the pre-load,
                    // quarantine (if any) happens mid-operation
                    write!(out, "m={m} plan={plan_name} side={side} op={op} call=1:").unwrap();
                    run(&mut out, &mut d, op, host, PRELOAD - 600, PRELOAD + 400);
                    // second call: steady state under the resulting mask
                    write!(out, "m={m} plan={plan_name} side={side} op={op} call=2:").unwrap();
                    run(&mut out, &mut d, op, host, 100, 900);
                }
            }
        }
    }
    // after the 180 cascade cases, so that their rows keep their place
    for m in [1usize, 2, 4] {
        for (plan_name, plan) in plans(m) {
            let mut d = node(m, plan);
            for (call, lo, hi) in [(1, PRELOAD - 600, PRELOAD + 400), (2, 100, 900)] {
                write!(
                    out,
                    "m={m} plan={plan_name} side=host op=execute call={call}:"
                )
                .unwrap();
                run(&mut out, &mut d, "execute", true, lo, hi);
            }
        }
    }
    out
}

#[test]
fn cascades_reproduce_the_golden_reports_bit_for_bit() {
    let actual = render();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(FIXTURE, &actual).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(FIXTURE).expect("tests/fixtures/cascade_golden.txt");
    let mut header = "";
    for (n, (want, got)) in golden.lines().zip(actual.lines()).enumerate() {
        if want.starts_with("m=") {
            header = want;
        }
        assert_eq!(want, got, "line {} differs, in case `{header}`", n + 1);
    }
    assert_eq!(golden.lines().count(), actual.lines().count(), "row count");
}

/// `Mutation::AnswerSliceToWrongOrigin`: each target stores the answers it
/// owes a GPU into the landing of the next one, so the disarmed 4-GPU
/// retrieves, device- and host-sided, hand out answers whose digest is not
/// the golden one.
#[test]
fn answers_landing_on_the_wrong_origin_miss_the_golden_digests() {
    let golden = std::fs::read_to_string(FIXTURE).expect("tests/fixtures/cascade_golden.txt");
    for side in ["device", "host"] {
        let header = format!("m=4 plan=disarmed side={side} op=retrieve call=1:");
        let line = |rendered: &str| {
            let at = rendered.find(&header).expect("the case is in the fixture");
            rendered[at..].lines().next().unwrap_or_default().to_owned()
        };
        let broken = Some(Mutation::AnswerSliceToWrongOrigin);
        let ran = std::panic::catch_unwind(|| {
            let mut out = header.clone();
            let mut d = node_with(4, FaultPlan::default(), broken);
            run(&mut out, &mut d, "retrieve", side == "host", PRELOAD - 600, PRELOAD + 400);
            out
        });
        match ran {
            Ok(out) => {
                assert!(line(&out).contains("answers="), "{}", line(&out));
                assert_ne!(line(&out), line(&golden), "{side}: the wrong origin went unnoticed");
            }
            // under `WD_SANITIZE` racecheck stops it first: the wrong
            // origin's scatter reads a slice no flag it polled ordered
            Err(panic) => {
                let msg = panic.downcast_ref::<String>().map_or("", String::as_str);
                assert!(msg.contains("[racecheck] kernel=`warpdrive_round`"), "{msg}");
            }
        }
    }
}
