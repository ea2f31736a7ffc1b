//! Golden differential for the single-GPU map and its incremental resize.
//!
//! `tests/fixtures/resize_golden.txt` holds, for layout ∈ {AOS, SOA} ×
//! {watermark grow, `request_compact`, watermark compact}, a fixed script
//! of put / get / delete batches issued through the `&self` APIs, the
//! device-sided APIs and `MapService`: a duplicate-key put batch, empty
//! batches, a put updating keys still in the source table, a delete of
//! already-migrated keys, gets spanning both tables, ops against a fully
//! scanned migration awaiting its finalize, `rebuild_with_fresh_hash`
//! mid-migration and a group-size change. Per call it records the
//! response, the kernel stats (`sim_time.to_bits()`, every counter, the
//! breakdown), and after the call the device's lifetime launch count,
//! counters and time (an f64 sum, so launch *order* shows), the
//! occupancy split, the resize state, the live contents and the recorded
//! history.
//!
//! It was captured from the code that preceded `table.rs`, where the map
//! and the migration each kept their own copy of a table's state; the
//! one-`Table` refactor reproduced every row bit for bit. It was
//! regenerated once, when a call during a migration became one chunk
//! step and one launch on each table (`GpuHashMap::migrating_apply`):
//! only the routed calls' kernel stats and reports and the `device`
//! rows moved (fewer launches and groups); every response, every `map`
//! row — occupancy, resize state, contents and history digests — and
//! the seeded section stayed as they were.
//!
//! Those scenarios run under `Schedule::Sequential`, where a group runs
//! to completion and the *order* of its `ctx` calls cannot show. Behind
//! them the file holds, for layout ∈ {AOS, SOA} × |g| ∈ {1, 4, 32} under
//! `Schedule::Seeded(7)` — every counted `ctx` call a preemption point —
//! a put batch with duplicate keys inside one wave of groups, a get, an
//! erase naming each victim twice, a put over the tombstones and an
//! `apply` of gets and puts, and one `GpuMultiMap` section (insert,
//! `retrieve_all`) under the same schedule: the rows the one-probe-walk
//! refactor of the kernels was pinned against before it was made.
//!
//! A deliberate change to a modeled number regenerates the file with
//! `UPDATE_GOLDEN=1 cargo test --test resize_golden`; review its diff.

use gpu_sim::{CounterSnapshot, Device, FaultPlan, KernelStats, LifetimeStats, Schedule};
use std::fmt::{Debug, Write as _};
use std::sync::Arc;
use warpdrive::{
    pack, Config, GpuHashMap, GpuMultiMap, HistoryRecorder, Layout, MapService, Op, OpReport,
    ResizePolicy, ResizeState,
};

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures/resize_golden.txt");
const CAPACITY: usize = 256;

fn key(i: u32) -> u32 {
    i * 7 + 3
}

fn keys(r: impl IntoIterator<Item = u32>) -> Vec<u32> {
    r.into_iter().map(key).collect()
}

fn pairs(r: impl IntoIterator<Item = u32>, salt: u32) -> Vec<(u32, u32)> {
    r.into_iter().map(|i| (key(i), i ^ salt)).collect()
}

fn digest(bytes: impl IntoIterator<Item = u64>) -> u64 {
    bytes
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, w| (h ^ w).wrapping_mul(0x0100_0000_01b3))
}

fn counters(c: &CounterSnapshot) -> String {
    format!(
        "tx={} sb={} cas={} casf={} at={} cold={} steps={} groups={}",
        c.transactions,
        c.stream_bytes,
        c.cas_ops,
        c.cas_failed,
        c.atomic_ops,
        c.cold_atomics,
        c.group_steps,
        c.groups
    )
}

fn kernel(s: &KernelStats) -> String {
    format!(
        "{} g={} n={} t={:016x} {} {:?}",
        s.name,
        s.group_size.get(),
        s.num_groups,
        s.sim_time.to_bits(),
        counters(&s.counters),
        s.breakdown
    )
}

fn report(r: &OpReport) -> String {
    format!(
        "elements={} launches={} t={:016x} backoff={:016x} {} stages={}",
        r.elements,
        r.launches,
        r.time.to_bits(),
        r.backoff_time.to_bits(),
        counters(&r.counters),
        r.stages.len()
    )
}

/// Every knob `Config::default()` reads from the environment, pinned.
fn config(layout: Layout, schedule: Schedule, g: u32) -> Config {
    Config::default()
        .with_layout(layout)
        .with_group_size(g)
        .with_schedule(schedule)
        .with_fault(FaultPlan::default())
}

/// The device's lifetime launch count, counters and time.
fn device_row(out: &mut String, dev: &Device) {
    let LifetimeStats {
        launches,
        counters: c,
        sim_time,
    } = dev.lifetime_stats();
    writeln!(
        out,
        "  device launches={launches} t={:016x} {}",
        sim_time.to_bits(),
        counters(&c)
    )
    .unwrap();
}

/// Digests of the live contents and of the events recorded since the
/// last row.
fn contents_and_history(
    mut live: Vec<(u32, u32)>,
    rec: &HistoryRecorder,
    events_seen: &mut usize,
) -> String {
    live.sort_unstable();
    let events = rec.events();
    let fresh = &events[*events_seen..];
    *events_seen = events.len();
    format!(
        "contents={:016x} events+{}={:016x}",
        digest(live.into_iter().map(|(k, v)| pack(k, v))),
        fresh.len(),
        digest(fresh.iter().flat_map(|e| format!("{e:?}").into_bytes()).map(u64::from)),
    )
}

/// The map under test plus everything the fixture observes around it.
struct Rig {
    map: GpuHashMap,
    dev: Arc<Device>,
    rec: Arc<HistoryRecorder>,
    events_seen: usize,
    out: String,
}

impl Rig {
    fn new(
        layout: Layout,
        schedule: Schedule,
        g: u32,
        capacity: usize,
        policy: Option<ResizePolicy>,
    ) -> Self {
        // room for the table, several migration targets (the bump
        // allocator never frees) and scratch
        let dev = Arc::new(Device::with_words(0, 1 << 16));
        let cfg = config(layout, schedule, g);
        let mut map = GpuHashMap::new(Arc::clone(&dev), capacity, cfg).unwrap();
        map.set_resize_policy(policy);
        let rec = Arc::new(HistoryRecorder::new());
        map.set_recorder(Some(Arc::clone(&rec)));
        Self {
            map,
            dev,
            rec,
            events_seen: 0,
            out: String::new(),
        }
    }

    /// The rig of the resize scenarios: groups run one after another.
    fn resizing(layout: Layout, policy: ResizePolicy) -> Self {
        Self::new(layout, Schedule::Sequential, 4, CAPACITY, Some(policy))
    }

    /// Writes one call's row and the state rows that follow it.
    fn row(&mut self, label: &str, response: String) {
        writeln!(self.out, " {label}: {response}").unwrap();
        device_row(&mut self.out, &self.dev);
        let o = self.map.occupancy_split();
        let state = match self.map.resize_state() {
            ResizeState::Stable => "Stable".to_string(),
            s => format!("{s:?}"),
        };
        writeln!(
            self.out,
            "  map live={} tombstones={} capacity={} source={} effective={} seed={} g={} {state} {}",
            o.live,
            o.tombstones,
            o.capacity,
            self.map.capacity(),
            self.map.effective_capacity(),
            self.map.config().seed,
            self.map.config().group_size.get(),
            contents_and_history(self.map.snapshot(), &self.rec, &mut self.events_seen),
        )
        .unwrap();
    }

    // ---- `&self` / `&mut self` host-sided APIs ----------------------------

    fn put(&mut self, label: &str, pairs: &[(u32, u32)]) {
        let r = match self.map.insert_pairs(pairs) {
            Ok(o) => format!(
                "ok new={} updates={} reclaimed={} failed={} {}",
                o.new_slots,
                o.updates,
                o.reclaimed,
                o.failed,
                kernel(&o.stats)
            ),
            Err(e) => format!("error {e:?}"),
        };
        self.row(label, r);
    }

    fn get(&mut self, label: &str, keys: &[u32]) {
        let r = match self.map.try_retrieve(keys) {
            Ok(r) => format!("ok {:?} {}", r.values, report(&r.report)),
            Err(e) => format!("error {e:?}"),
        };
        self.row(label, r);
    }

    fn erase(&mut self, label: &str, keys: &[u32]) {
        let r = match self.map.try_erase(keys) {
            Ok(r) => format!("ok erased={} {:?} {}", r.erased, r.hits, report(&r.report)),
            Err(e) => format!("error {e:?}"),
        };
        self.row(label, r);
    }

    // ---- device-sided APIs (fixed-table by contract) ----------------------

    fn device_ops(&mut self, put: &[(u32, u32)], get: &[u32], del: &[u32]) {
        let dev = Arc::clone(&self.dev);
        let words: Vec<u64> = put.iter().map(|&(k, v)| pack(k, v)).collect();
        let staging = dev.alloc_scratch(words.len() + 2 * get.len() + del.len()).unwrap();
        let s = staging.slice();
        let input = s.sub(0, words.len());
        dev.mem().h2d(input, &words);
        let r = match self.map.insert_device(input, words.len()) {
            Ok(o) => format!("ok new={} updates={} {}", o.new_slots, o.updates, kernel(&o.stats)),
            Err(e) => format!("error {e:?}"),
        };
        self.row("insert_device", r);

        let q_in = s.sub(words.len(), get.len().div_ceil(2));
        let q_out = s.sub(words.len() + get.len(), get.len());
        dev.mem().h2d_keys(q_in, get);
        let stats = self.map.retrieve_device(q_in, q_out, get.len());
        let r = format!("{:016x} {}", digest(dev.mem().d2h(q_out)), kernel(&stats));
        self.row("retrieve_device", r);

        let d_in = s.sub(words.len() + 2 * get.len(), del.len().div_ceil(2));
        dev.mem().h2d_keys(d_in, del);
        let o = self.map.erase_device(d_in, del.len());
        let r = format!("erased={} {:?} {}", o.erased, o.hits, kernel(&o.stats));
        self.row("erase_device", r);
    }

    // ---- the `MapService` front door --------------------------------------

    fn svc<T>(
        &mut self,
        label: &str,
        call: impl FnOnce(&mut GpuHashMap) -> T,
        show: impl FnOnce(&T) -> String,
    ) {
        let r = call(&mut self.map);
        let r = show(&r);
        self.row(label, r);
    }

    fn svc_put(&mut self, label: &str, pairs: &[(u32, u32)]) {
        self.svc(label, |m| m.put_batch(pairs), |r| match r {
            Ok(r) => format!(
                "ok new={} updates={} reclaimed={} {}",
                r.new_slots,
                r.updates,
                r.reclaimed,
                report(&r.report)
            ),
            Err(e) => format!("error {e:?}"),
        });
    }

    fn svc_get(&mut self, label: &str, keys: &[u32]) {
        self.svc(label, |m| m.get_batch(keys), |r| match r {
            Ok(r) => format!("ok {:?} {}", r.values, report(&r.report)),
            Err(e) => format!("error {e:?}"),
        });
    }

    fn svc_delete(&mut self, label: &str, keys: &[u32]) {
        self.svc(label, |m| m.delete_batch(keys), |r| match r {
            Ok(r) => format!("ok erased={} {:?} {}", r.erased, r.hits, report(&r.report)),
            Err(e) => format!("error {e:?}"),
        });
    }

    fn svc_execute(&mut self, label: &str, ops: &[Op]) {
        self.svc(label, |m| m.execute(ops), |r| match r {
            Ok((responses, rep)) => format!("ok {responses:?} {}", report(rep)),
            Err(e) => format!("error {e:?}"),
        });
    }

    fn show<T: Debug>(&mut self, label: &str, call: impl FnOnce(&mut GpuHashMap) -> T) {
        self.svc(label, call, |r| format!("{r:?}"));
    }

    fn migrating(&self) -> bool {
        self.map.resize_state() != ResizeState::Stable
    }

    /// The script every scenario runs once its migration is in flight.
    /// `old` indexes keys that were live when it began, `fresh` keys that
    /// were never stored.
    fn routed_script(&mut self, old: std::ops::Range<u32>, fresh: u32) {
        assert!(self.migrating(), "the scenario must have started a migration");
        let (o, f) = (old.start, fresh);
        // a duplicate-key batch: new key three times around an old one
        self.put(
            "put duplicates",
            &[(key(f), 1), (key(f + 1), 2), (key(f), 3), (key(o + 5), 9), (key(f), 4)],
        );
        self.put("put empty", &[]);
        // old keys, some already moved by the chunk steps, some still in
        // the source table
        self.put("put over old keys", &pairs(o..o + 20, 0x5a5a));
        self.get(
            "get across both tables",
            &keys((o..o + 40).step_by(3).chain(f..f + 4).chain(9000..9003)),
        );
        let one = self.map.try_retrieve(&[key(o + 7)]).expect("one-key get").values[0];
        self.row("get single", format!("{one:?}"));
        // keys now in the target (rewritten or new), keys possibly still
        // in the source, a key nobody stored, a key erased twice
        self.erase(
            "erase migrated and unmigrated",
            &keys([f, o + 3, o + 30, 9001, o + 31, f]),
        );
        self.get("get empty", &[]);
        self.erase("erase empty", &[]);
        self.svc_put("service put", &pairs((f + 10..f + 20).chain(o + 25..o + 30), 0x1111));
        self.svc_get("service get", &keys((o + 20..o + 36).chain(f + 8..f + 12)));
        self.svc_delete("service delete", &keys([o + 26, f + 11, 9002]));
        let k = key(f + 30);
        self.svc_execute(
            "service execute",
            &[
                Op::Put { key: k, value: 1 },
                Op::Put { key: key(o + 40), value: 2 },
                Op::Put { key: k, value: 3 },
                Op::Get { key: k },
                Op::Get { key: key(o + 40) },
                Op::Delete { key: k },
                Op::Delete { key: k },
                Op::Get { key: k },
                Op::Put { key: k, value: 4 },
            ],
        );
        self.show("occupancy", |m| (m.live_len(), m.slot_capacity(), m.occupancy().to_bits()));
        // `&self` reads never finalize: walk the scan to its end
        for step in 0..64 {
            let ResizeState::Migrating { cursor, source_capacity, .. } = self.map.resize_state()
            else {
                panic!("a `&self` op finalized the migration");
            };
            if cursor >= source_capacity {
                break;
            }
            self.get(&format!("get advancing {step}"), &keys([o + 1, f + 1]));
        }
        // fully scanned, not yet swapped in
        self.put("scanned: put empty", &[]);
        self.put("scanned: put", &pairs([o + 2, f + 40], 0x2222));
        self.get("scanned: get", &keys([o + 2, f + 40, o + 41, 9003]));
        self.erase("scanned: erase", &keys([f + 40, o + 42, 9003]));
        self.svc_get("service get finalizes", &keys(o + 40..o + 50));
        assert!(!self.migrating(), "the service entry point must finalize");
    }

    /// What every scenario ends with: a second migration, rebuilt over.
    fn rebuild_script(&mut self, all: std::ops::Range<u32>) {
        self.show("request_grow", MapService::request_grow);
        self.show("request_grow again", MapService::request_grow);
        self.put("put before rebuild", &pairs(all.end..all.end + 5, 0x3333));
        self.show("rebuild mid-migration", |m| {
            m.rebuild_with_fresh_hash().map(|o| {
                format!(
                    "new={} updates={} reclaimed={} {}",
                    o.new_slots,
                    o.updates,
                    o.reclaimed,
                    kernel(&o.stats)
                )
            })
        });
        self.get("get everything", &keys(all.start..all.end + 8));
        self.show("request_compact", MapService::request_compact);
        self.erase("erase while compacting", &keys(all.start + 50..all.start + 60));
        self.show("finish_resize", |m| m.finish_resize());
        self.show("finish_resize again", |m| m.finish_resize());
        self.map.set_group_size(warpdrive::GroupSize::new(8));
        self.get("get with |g|=8", &keys(all.start + 45..all.start + 65));
        self.put("put with |g|=8", &pairs(all.start + 50..all.start + 55, 0x4444));
    }
}

fn grow(layout: Layout) -> String {
    let mut r = Rig::resizing(layout, ResizePolicy::default().with_watermark(0.6).with_chunk(8));
    r.put("put stable", &pairs(0..100, 0));
    r.get("get stable", &keys((0..10).chain(1000..1005)));
    r.device_ops(&pairs(100..110, 0), &keys(95..112), &keys([100, 101, 2000]));
    // (108 live + 2 tombstones + 60) / 256 crosses the 0.6 watermark
    r.put("put crossing the watermark", &pairs(110..170, 0));
    r.routed_script(0..100, 300);
    r.rebuild_script(0..400);
    r.out
}

fn compact(layout: Layout) -> String {
    let mut r = Rig::resizing(layout, ResizePolicy::default().with_watermark(0.99).with_chunk(8));
    r.put("put stable", &pairs(0..200, 0));
    r.erase("erase stable", &keys(0..150));
    r.show("request_compact", |m| m.request_compact());
    r.routed_script(150..200, 300);
    r.rebuild_script(100..400);
    r.out
}

fn watermark_compact(layout: Layout) -> String {
    let mut r = Rig::resizing(layout, ResizePolicy::default().with_watermark(0.85).with_chunk(12));
    r.put("put stable", &pairs(0..200, 0));
    r.erase("erase stable", &keys(0..150));
    // (50 live + 150 tombstones + 20) / 256 crosses 0.85 with more
    // tombstones than live keys: the trigger picks Compact
    r.put("put crossing the watermark", &pairs(200..220, 0));
    r.routed_script(150..220, 300);
    r.rebuild_script(100..400);
    r.out
}

/// The kernels racing themselves, on 128 slots. Duplicates sit next to
/// each other, so they share a wave of 16 resident groups: claims race
/// updates, an erase races the erase of its own victim, and α reaches
/// 0.85, where a probe crosses windows and a tombstone may fill a window
/// that holds no EMPTY slot.
fn racing(layout: Layout, g: u32) -> String {
    let mut r = Rig::new(layout, Schedule::Seeded(7), g, 128, None);
    let twice = (0..20).flat_map(|i| [(key(i), i), (key(i), i ^ 0x100)]);
    let hot = (0..8).map(|v| (key(20), v));
    r.put(
        "put racing duplicates",
        &twice.chain(hot).chain(pairs(21..109, 0)).collect::<Vec<_>>(),
    );
    r.get("get", &keys((0..115).step_by(3).chain(9000..9002)));
    let victims = (15..75).step_by(2).flat_map(|i| [key(i), key(i)]);
    r.erase(
        "erase each victim twice",
        &victims.chain([key(9000)]).collect::<Vec<_>>(),
    );
    // erased keys (twice each), keys still live and keys never stored
    let back = (15..45).step_by(2).flat_map(|i| [(key(i), i ^ 0x200), (key(i), i ^ 0x300)]);
    r.put(
        "put over the tombstones",
        &back.chain(pairs(0..5, 0x400)).chain(pairs(300..315, 0)).collect::<Vec<_>>(),
    );
    // a key in both lists is one upsert group
    let (reads, puts) = (keys((0..120).step_by(2)), pairs((0..120).step_by(3), 0x500));
    let get_put = |m: &mut GpuHashMap| {
        let mut values = vec![None; reads.len()];
        let done = m.apply(&reads, &puts, &[], &mut values, &mut []);
        done.map(|done| (values, done.report))
    };
    r.svc("get + put apply", get_put, |r| match r {
        Ok((values, rep)) => format!("ok {values:?} {}", report(rep)),
        Err(e) => format!("error {e:?}"),
    });
    r.out
}

/// The multi-value map under the same schedule: one key's pairs race
/// each other for slots, `retrieve_all` collects them in slot order.
fn multimap() -> String {
    let dev = Arc::new(Device::with_words(0, 1 << 12));
    let mut cfg = config(Layout::Aos, Schedule::Seeded(7), 4);
    cfg.p_max = 4; // the last insert runs out of slots: fail fast
    let mut map = GpuMultiMap::new(Arc::clone(&dev), 128, cfg).unwrap();
    let rec = Arc::new(HistoryRecorder::new());
    map.set_recorder(Some(Arc::clone(&rec)));
    let (mut out, mut events_seen) = (String::new(), 0);
    let mut row = |label: &str, response: String, map: &GpuMultiMap| {
        writeln!(out, " {label}: {response}").unwrap();
        device_row(&mut out, &dev);
        let state = contents_and_history(map.snapshot(), &rec, &mut events_seen);
        writeln!(out, "  multimap len={} {state}", map.len()).unwrap();
    };
    let insert = |map: &GpuMultiMap, pairs: Vec<(u32, u32)>| match map.insert_pairs(&pairs) {
        Ok(stats) => format!("ok {}", kernel(&stats)),
        Err(e) => format!("error {e:?}"),
    };
    let hot = (0..40).map(|v| (key(1), v));
    let r = insert(&map, hot.chain(pairs(0..60, 0)).collect());
    row("insert_pairs", r, &map);
    let r = match map.try_retrieve_all(&keys((0..65).step_by(5).chain([1, 9000]))) {
        Ok(r) => format!("ok {:?} {}", r.values, report(&r.report)),
        Err(e) => format!("error {e:?}"),
    };
    row("try_retrieve_all", r, &map);
    let r = insert(&map, pairs(400..440, 0));
    row("insert_pairs past capacity", r, &map);
    out
}

fn render() -> String {
    let mut out = String::new();
    for layout in [Layout::Aos, Layout::Soa] {
        for (name, scenario) in [
            ("grow", grow as fn(Layout) -> String),
            ("compact", compact),
            ("watermark-compact", watermark_compact),
        ] {
            writeln!(out, "layout={layout:?} scenario={name}").unwrap();
            out.push_str(&scenario(layout));
        }
    }
    for layout in [Layout::Aos, Layout::Soa] {
        for g in [1, 4, 32] {
            writeln!(out, "layout={layout:?} scenario=racing schedule=Seeded(7) g={g}").unwrap();
            out.push_str(&racing(layout, g));
        }
    }
    writeln!(out, "multimap schedule=Seeded(7) g=4").unwrap();
    out.push_str(&multimap());
    out
}

#[test]
fn map_and_resize_reproduce_the_golden_script_bit_for_bit() {
    let actual = render();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(FIXTURE, &actual).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(FIXTURE).expect("tests/fixtures/resize_golden.txt");
    let (mut scenario, mut call) = ("", "");
    for (n, (want, got)) in golden.lines().zip(actual.lines()).enumerate() {
        if want.starts_with("layout=") {
            scenario = want;
        } else if !want.starts_with("  ") {
            call = want.split(':').next().unwrap_or(want);
        }
        assert_eq!(want, got, "line {} differs, in `{scenario}` at call `{}`", n + 1, call.trim());
    }
    assert_eq!(golden.lines().count(), actual.lines().count(), "row count");
}
