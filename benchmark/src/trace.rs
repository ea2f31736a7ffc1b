//! Host-time spans recorded from the benchmark's side of each layer seam.
//!
//! A [`Tracer`] keeps spans in memory (name, start, end, parent, repetition)
//! and writes them out once, when the benchmark ends. A [`Spy`] is a
//! [`MapService`] wrapper placed at a seam — `Server` → Spy → `CachedMap` →
//! Spy → backend — that forwards every trait method, `execute` included, so
//! a traced run executes exactly the library code an untraced one does. With
//! the tracer off a span costs one branch.
//!
//! The benchmark is single-threaded on its own side of the seams (the
//! library's worker threads never call back into it), so spans nest strictly
//! and a layer's self time is its spans' duration minus their direct
//! children's.

use std::cell::{Cell, RefCell};
use std::io::Write as _;
use std::rc::Rc;
use std::time::Instant;
use warpdrive::{
    DegradedStats, DeleteResponse, GetResponse, MapService, Occupancy, Op, OpError, OpReport,
    PutResponse, ResizeState, Response,
};

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of the span in recording order.
    pub id: usize,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    /// Layer entered (`core.map`, `serve`, …) or `harness` for the
    /// benchmark's own phases.
    pub layer: &'static str,
    /// Call or phase name within the layer.
    pub name: &'static str,
    /// Traced repetition the span belongs to.
    pub rep: u32,
    /// Ops the call carried (0 where that has no meaning).
    pub items: u64,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder, shared by the harness and its [`Spy`]s.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    on: Cell<bool>,
    rep: Cell<u32>,
    open: RefCell<Vec<usize>>,
    spans: RefCell<Vec<Span>>,
    capture: Cell<bool>,
    captured: RefCell<Vec<Vec<Op>>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            on: Cell::new(false),
            rep: Cell::new(0),
            open: RefCell::new(Vec::new()),
            spans: RefCell::new(Vec::new()),
            capture: Cell::new(false),
            captured: RefCell::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// A tracer that records nothing until [`Tracer::set_on`].
    #[must_use]
    pub fn new() -> Rc<Self> {
        Rc::new(Self::default())
    }

    /// Turns recording on or off.
    pub fn set_on(&self, on: bool) {
        self.on.set(on);
    }

    /// Sets the repetition id stamped on spans recorded from now on.
    pub fn set_rep(&self, rep: u32) {
        self.rep.set(rep);
    }

    /// Runs `f` inside a span (or bare, with recording off).
    pub fn span<R>(
        &self,
        layer: &'static str,
        name: &'static str,
        items: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.on.get() {
            return f();
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len();
            spans.push(Span {
                id,
                parent: self.open.borrow().last().copied(),
                layer,
                name,
                rep: self.rep.get(),
                items,
                start_ns: self.epoch.elapsed().as_nanos() as u64,
                end_ns: 0,
            });
            id
        };
        self.open.borrow_mut().push(id);
        let result = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
        result
    }

    /// Keeps a copy of the ops of every `execute` call a [`Spy`] sees from
    /// now on (or stops keeping them). The segmentation probe replays them.
    pub fn set_capture(&self, capture: bool) {
        self.capture.set(capture);
    }

    /// The `execute` calls captured so far, in order.
    #[must_use]
    pub fn captured(&self) -> Vec<Vec<Op>> {
        self.captured.borrow().clone()
    }

    /// A copy of every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Writes the spans as JSON lines, one object per span.
    ///
    /// # Errors
    /// Any I/O error creating or writing `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.borrow().iter() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"layer\":\"{}\",\"name\":\"{}\",\"rep\":{},\"items\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.layer, s.name, s.rep, s.items, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Each span's self time in nanoseconds: its duration minus the durations
/// of its direct children. Indexed like `spans`.
#[must_use]
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Self time in seconds summed over the spans of `layer`.
#[must_use]
pub fn layer_self_time(spans: &[Span], layer: &str) -> f64 {
    spans
        .iter()
        .zip(self_times_ns(spans))
        .filter(|(s, _)| s.layer == layer)
        .map(|(_, own)| own as f64 * 1e-9)
        .sum()
}

/// Duration in seconds and items, summed over the spans of one call.
#[must_use]
pub fn total_of(spans: &[Span], layer: &str, name: &str) -> (f64, u64) {
    spans
        .iter()
        .filter(|s| s.layer == layer && s.name == name)
        .fold((0.0, 0), |(t, n), s| {
            (t + s.duration_ns() as f64 * 1e-9, n + s.items)
        })
}

/// A [`MapService`] that forwards everything to `inner`, recording a span
/// around each batch call.
pub struct Spy<S> {
    inner: S,
    layer: &'static str,
    tracer: Rc<Tracer>,
}

impl<S> Spy<S> {
    /// Wraps `inner`; its calls are recorded as entering `layer`.
    pub fn new(inner: S, layer: &'static str, tracer: &Rc<Tracer>) -> Self {
        Self {
            inner,
            layer,
            tracer: Rc::clone(tracer),
        }
    }

    /// The wrapped service.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: MapService> MapService for Spy<S> {
    fn put_batch(&mut self, pairs: &[(u32, u32)]) -> Result<PutResponse, OpError> {
        let inner = &mut self.inner;
        self.tracer
            .span(self.layer, "put_batch", pairs.len() as u64, || {
                inner.put_batch(pairs)
            })
    }

    fn get_batch(&mut self, keys: &[u32]) -> Result<GetResponse, OpError> {
        let inner = &mut self.inner;
        self.tracer
            .span(self.layer, "get_batch", keys.len() as u64, || {
                inner.get_batch(keys)
            })
    }

    fn delete_batch(&mut self, keys: &[u32]) -> Result<DeleteResponse, OpError> {
        let inner = &mut self.inner;
        self.tracer
            .span(self.layer, "delete_batch", keys.len() as u64, || {
                inner.delete_batch(keys)
            })
    }

    fn execute(&mut self, ops: &[Op]) -> Result<(Vec<Response>, OpReport), OpError> {
        if self.tracer.capture.get() {
            self.tracer.captured.borrow_mut().push(ops.to_vec());
        }
        let inner = &mut self.inner;
        self.tracer
            .span(self.layer, "execute", ops.len() as u64, || {
                inner.execute(ops)
            })
    }

    fn live_len(&self) -> u64 {
        self.inner.live_len()
    }

    fn slot_capacity(&self) -> u64 {
        self.inner.slot_capacity()
    }

    fn occupancy(&self) -> f64 {
        self.inner.occupancy()
    }

    fn degraded(&self) -> DegradedStats {
        self.inner.degraded()
    }

    fn occupancy_split(&self) -> Occupancy {
        self.inner.occupancy_split()
    }

    fn resize_state(&self) -> ResizeState {
        self.inner.resize_state()
    }

    fn request_grow(&mut self) -> Result<bool, OpError> {
        self.inner.request_grow()
    }

    fn request_compact(&mut self) -> Result<bool, OpError> {
        self.inner.request_compact()
    }
}
