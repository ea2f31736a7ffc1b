//! Span self-time arithmetic and the `Spy` seam.

use std::collections::HashMap;
use std::time::{Duration, Instant};
use warpdrive::{
    DeleteResponse, GetResponse, MapService, Op, OpError, OpReport, PutResponse, Response,
};
use wd_benchmark::run::self_time_gap;
use wd_benchmark::trace::{layer_self_time, self_times_ns, total_of, Span, Spy, Tracer};

fn span(id: usize, parent: Option<usize>, layer: &'static str, start_ns: u64, end_ns: u64) -> Span {
    Span {
        id,
        parent,
        layer,
        name: "call",
        rep: 0,
        items: 1,
        start_ns,
        end_ns,
    }
}

#[test]
fn self_time_is_the_span_minus_its_direct_children() {
    let spans = [
        span(0, None, "a", 0, 100),
        span(1, Some(0), "b", 10, 40),
        span(2, Some(1), "c", 15, 25),
        span(3, Some(0), "b", 50, 90),
    ];
    assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
    assert!((layer_self_time(&spans, "b") - 60e-9).abs() < 1e-15);
    let (seconds, items) = total_of(&spans, "b", "call");
    assert!((seconds - 70e-9).abs() < 1e-15);
    assert_eq!(items, 2);
    assert_eq!(self_time_gap(&spans), 0.0);
}

fn spin(d: Duration) {
    let start = Instant::now();
    while start.elapsed() < d {
        std::hint::spin_loop();
    }
}

#[test]
fn recorded_self_times_add_up_to_the_root() {
    let tracer = Tracer::new();
    tracer.span("harness", "ignored", 0, || spin(Duration::from_millis(1)));
    assert!(tracer.spans().is_empty(), "off by default");
    tracer.set_on(true);
    for rep in 0..3 {
        tracer.set_rep(rep);
        tracer.span("harness", "rep", 0, || {
            spin(Duration::from_millis(2));
            for _ in 0..4 {
                tracer.span("core.cache", "execute", 128, || {
                    spin(Duration::from_millis(1));
                    tracer.span("core.map", "get_batch", 7, || {
                        spin(Duration::from_millis(1))
                    });
                });
            }
        });
    }
    let spans = tracer.spans();
    assert_eq!(spans.len(), 3 * 9);
    assert!(
        self_time_gap(&spans) < 0.01,
        "gap {}",
        self_time_gap(&spans)
    );
    let roots: f64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.duration_ns() as f64 * 1e-9)
        .sum();
    let own: f64 = ["harness", "core.cache", "core.map"]
        .iter()
        .map(|layer| layer_self_time(&spans, layer))
        .sum();
    assert!((own - roots).abs() <= 0.01 * roots);
    assert_eq!(spans.iter().filter(|s| s.rep == 2).count(), 9);
    let (_, items) = total_of(&spans, "core.map", "get_batch");
    assert_eq!(items, 3 * 4 * 7);
}

/// An in-memory service that notes which trait methods were called.
#[derive(Default)]
struct Model {
    map: HashMap<u32, u32>,
    calls: Vec<&'static str>,
}

impl MapService for Model {
    fn put_batch(&mut self, pairs: &[(u32, u32)]) -> Result<PutResponse, OpError> {
        self.calls.push("put_batch");
        self.map.extend(pairs.iter().copied());
        Ok(PutResponse {
            new_slots: pairs.len() as u64,
            updates: 0,
            reclaimed: 0,
            report: OpReport::default(),
        })
    }

    fn get_batch(&mut self, keys: &[u32]) -> Result<GetResponse, OpError> {
        self.calls.push("get_batch");
        Ok(GetResponse {
            values: keys.iter().map(|k| self.map.get(k).copied()).collect(),
            report: OpReport::default(),
        })
    }

    fn delete_batch(&mut self, keys: &[u32]) -> Result<DeleteResponse, OpError> {
        self.calls.push("delete_batch");
        let hits: Vec<bool> = keys.iter().map(|k| self.map.remove(k).is_some()).collect();
        Ok(DeleteResponse {
            erased: hits.iter().filter(|&&h| h).count() as u64,
            hits,
            report: OpReport::default(),
        })
    }

    fn live_len(&self) -> u64 {
        self.map.len() as u64
    }

    fn slot_capacity(&self) -> u64 {
        64
    }

    /// An override, as a backend with a fused kernel would have: the seam
    /// must reach it, not the trait's default.
    fn execute(&mut self, ops: &[Op]) -> Result<(Vec<Response>, OpReport), OpError> {
        self.calls.push("execute");
        Ok((vec![Response::Put; ops.len()], OpReport::default()))
    }
}

#[test]
fn the_spy_forwards_every_call_and_records_the_batch_ones() {
    let tracer = Tracer::new();
    tracer.set_on(true);
    tracer.set_capture(true);
    let mut spy = Spy::new(Model::default(), "core.map", &tracer);
    spy.put_batch(&[(1, 10), (2, 20)]).unwrap();
    assert_eq!(spy.get_batch(&[2, 3]).unwrap().values, vec![Some(20), None]);
    assert_eq!(spy.delete_batch(&[1]).unwrap().hits, vec![true]);
    let ops = [Op::Get { key: 2 }, Op::Put { key: 4, value: 40 }];
    spy.execute(&ops).unwrap();
    assert_eq!((spy.live_len(), spy.slot_capacity()), (1, 64));
    assert_eq!(spy.occupancy(), 1.0 / 64.0);
    assert_eq!(
        spy.inner().calls,
        ["put_batch", "get_batch", "delete_batch", "execute"],
        "execute reaches the backend's own execute"
    );
    let seen: Vec<(&str, u64)> = tracer.spans().iter().map(|s| (s.name, s.items)).collect();
    assert_eq!(
        seen,
        [
            ("put_batch", 2),
            ("get_batch", 2),
            ("delete_batch", 1),
            ("execute", 2)
        ]
    );
    assert_eq!(tracer.captured(), vec![ops.to_vec()]);
}

#[test]
fn the_trace_file_holds_one_json_object_per_span() {
    let tracer = Tracer::new();
    tracer.set_on(true);
    tracer.span("harness", "rep", 0, || {
        tracer.span("serve", "trace", 8192, || ())
    });
    let dir = std::env::temp_dir().join(format!("wd-benchmark-trace-{}", std::process::id()));
    let path = dir.join("t.trace.jsonl");
    tracer.write_jsonl(&path).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2);
    assert!(
        lines[0].starts_with("{\"id\":0,\"parent\":null,\"layer\":\"harness\",\"name\":\"rep\"")
    );
    assert!(lines[1].starts_with(
        "{\"id\":1,\"parent\":0,\"layer\":\"serve\",\"name\":\"trace\",\"rep\":0,\"items\":8192,"
    ));
}
