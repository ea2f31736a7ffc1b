//! The serving loop: admission → coalescing → flush → completions.
//!
//! A [`Server`] owns one [`MapService`] backend exclusively and turns a
//! timed stream of small per-tenant requests into GPU-sized batches. Two
//! kinds of event move its modeled clock, and it handles them in time
//! order: an arrival at `at`, and the deadline of the oldest pending op,
//! `arrival + max_delay`. [`Server::advance_to`] runs a deadline that
//! falls before the next arrival at that deadline — the delay flush
//! starts there, not when a later request happens to reveal it — and
//! every flush adds its backend-reported modeled cost. A request that
//! finds the server busy is taken in when the flush ends. End-to-end
//! latency of a request is therefore `flush_end − arrival`: its queue
//! wait (`flush_start − arrival`, at most `max_delay` unless a flush of
//! other ops was running at its deadline) plus the flush's service time.
//!
//! A submission triggers at most one flush: with `max_batch > 1` a delay
//! flush empties the queue and the one op admitted after it cannot fill
//! it again, and with `max_batch = 1` every op leaves in a size flush of
//! its own, so no op is pending when the next one arrives.
//!
//! ## Determinism and the shadow model
//!
//! Admission decisions (quota, watermark, queue cap, key domain) are
//! computed on a host *shadow* of each tenant's live key set, updated at
//! admission time. Because admission order equals execution order and
//! [`MapService::execute`] is response-identical to sequential
//! execution, the shadow is exact, and every admission decision is a
//! deterministic function of the submission history — independent of how
//! ops later coalesce into batches. That is what makes the equivalence
//! suite possible: the same trace against `max_batch = 1` and
//! `max_batch = B` produces byte-identical responses *and* rejections.

use crate::config::ServeConfig;
use crate::error::ServeError;
use crate::telemetry::ServiceTelemetry;
use crate::tenant::{fits_domain, fold, TenantState};
use crate::trace::TraceEvent;
use std::collections::BTreeMap;
use warpdrive::{CachePolicy, CacheStats, CachedMap, MapService, Op, OpEvent, OpKind, OpResponse, Response};

/// One finished request: the response plus its cost and logical times.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// Submission sequence number (global, 0-based).
    pub seq: u64,
    /// Owning tenant.
    pub tenant: u8,
    /// The original request (tenant-local key).
    pub op: Op,
    /// The backend's answer.
    pub response: Response,
    /// End-to-end modeled latency: flush end − arrival.
    pub latency: f64,
    /// Logical invocation timestamp (admission tick).
    pub invoked: u64,
    /// Logical response timestamp (completion tick, after `invoked`).
    pub responded: u64,
    /// For puts: whether the key was absent at admission (shadow model).
    pub new_slot: bool,
}

impl Completion {
    /// Converts to a [`warpdrive::OpEvent`] for Wing–Gong
    /// linearizability checking (per tenant: keys are tenant-local).
    #[must_use]
    pub fn to_event(&self) -> OpEvent {
        let kind = match self.op {
            Op::Put { value, .. } => OpKind::Insert { value },
            Op::Get { .. } => OpKind::Retrieve,
            Op::Delete { .. } => OpKind::Erase,
        };
        let response = match self.response {
            Response::Put => OpResponse::Inserted {
                new_slot: self.new_slot,
            },
            Response::Get { value } => value.map_or(OpResponse::NotFound, |value| {
                OpResponse::Found { value }
            }),
            Response::Delete { hit } => OpResponse::Erased { hit },
        };
        OpEvent {
            key: self.op.key(),
            kind,
            response,
            invoked: self.invoked,
            responded: self.responded,
        }
    }
}

/// What made a flush run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushCause {
    /// The oldest pending op reached its deadline, `arrival + max_delay`.
    Delay,
    /// The queue reached `max_batch` ops.
    Size,
}

/// When one flush ran on the modeled clock, and why.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Flush {
    /// Modeled time the flush started: the clock when its cause fired.
    pub start: f64,
    /// Modeled time it ended: `start` plus the backend's reported cost.
    pub end: f64,
    /// What triggered it.
    pub cause: FlushCause,
}

/// What one submission did: completions drained by the flush it
/// triggered, if any, plus whether the op itself was admitted.
#[derive(Debug)]
pub struct Submitted {
    /// Completions delivered while handling this submission (ops flushed
    /// by the delay or size threshold — possibly including this op).
    pub completions: Vec<Completion>,
    /// The flush that delivered them; `None` if no flush ran or it failed.
    pub flush: Option<Flush>,
    /// `Ok(seq)` if the op was admitted, the typed rejection otherwise.
    pub outcome: Result<u64, ServeError>,
}

impl Submitted {
    fn rejected(e: ServeError) -> Self {
        Self {
            completions: Vec::new(),
            flush: None,
            outcome: Err(e),
        }
    }
}

/// The result of replaying a whole trace.
#[derive(Debug)]
pub struct TraceRun {
    /// Every completion, sorted by submission sequence number.
    pub completions: Vec<Completion>,
    /// `(trace index, rejection)` for every refused event.
    pub rejects: Vec<(usize, ServeError)>,
}

struct Pending {
    seq: u64,
    tenant: u8,
    local: Op,
    folded: Op,
    arrival: f64,
    invoked: u64,
    new_slot: bool,
}

/// An online, multi-tenant service over one [`MapService`] backend.
pub struct Server<S: MapService> {
    backend: S,
    cfg: ServeConfig,
    clock: f64,
    ticks: u64,
    seq: u64,
    live_keys: u64,
    /// The admitted ops not flushed yet; it and `ops` keep their capacity
    /// from flush to flush.
    pending: Vec<Pending>,
    /// A flush's ops as the backend takes them.
    ops: Vec<Op>,
    tenants: BTreeMap<u8, TenantState>,
    telemetry: ServiceTelemetry,
}

impl<S: MapService> Server<S> {
    /// Wraps `backend` behind the service front door.
    pub fn new(backend: S, cfg: ServeConfig) -> Self {
        Self {
            backend,
            cfg,
            clock: 0.0,
            ticks: 0,
            seq: 0,
            live_keys: 0,
            pending: Vec::new(),
            ops: Vec::new(),
            tenants: BTreeMap::new(),
            telemetry: ServiceTelemetry::default(),
        }
    }

    /// Submits one request arriving at modeled time `at`.
    ///
    /// [`Self::advance_to`] `at` first — running the delay flush the
    /// oldest pending op's deadline calls for, at that deadline — then
    /// runs admission, and flushes if the queue reached the size
    /// threshold. At most one of the two flushes runs; its completions
    /// and record are returned.
    pub fn submit_at(&mut self, tenant: u8, op: Op, at: f64) -> Submitted {
        let (completions, flush) = match self.advance_to(at) {
            Ok(flushed) => flushed,
            Err(e) => return Submitted::rejected(e),
        };
        let (new_slot, folded) = match self.admit(tenant, op) {
            Ok(x) => x,
            Err(e) => {
                let st = self.tenants.entry(tenant).or_default();
                st.counters.rejects += 1;
                *st.rejects_by_reason.entry(e.reason()).or_insert(0) += 1;
                return Submitted {
                    completions,
                    flush,
                    outcome: Err(e),
                };
            }
        };
        let seq = self.seq;
        self.seq += 1;
        self.ticks += 1;
        self.pending.push(Pending {
            seq,
            tenant,
            local: op,
            folded,
            arrival: self.clock,
            invoked: self.ticks,
            new_slot,
        });
        if self.pending.len() < self.cfg.max_batch {
            return Submitted {
                completions,
                flush,
                outcome: Ok(seq),
            };
        }
        // a delay flush left one op behind it, which fills no queue of
        // max_batch > 1: one flush a submission
        debug_assert!(flush.is_none(), "a submission flushed twice");
        match self.flush_for(FlushCause::Size) {
            Ok((completions, flush)) => Submitted {
                completions,
                flush: Some(flush),
                outcome: Ok(seq),
            },
            Err(e) => Submitted::rejected(e),
        }
    }

    /// Moves the modeled clock to `t`, handling the one event that can
    /// fall before it: if the oldest pending op's deadline,
    /// `arrival + max_delay`, is at or before `max(clock, t)`, the clock
    /// moves to that deadline (or stays, if a flush ran past it) and the
    /// delay flush runs there. Then the clock moves on to `t`; it never
    /// goes back. Returns the delay flush's completions and record, or an
    /// empty list and `None`.
    ///
    /// # Errors
    /// As [`Self::flush`], if the delay flush fails; the clock still
    /// moves to `t`.
    pub fn advance_to(&mut self, t: f64) -> Result<(Vec<Completion>, Option<Flush>), ServeError> {
        let now = self.clock.max(t);
        let due = self.pending.first().map(|p| p.arrival + self.cfg.max_delay);
        let flushed = match due {
            Some(deadline) if deadline <= now => {
                // MUTATION DOUBLE (test builds, `tests::LATE_FLUSH`): the
                // flush waits for the event that revealed its deadline
                #[cfg(test)]
                let deadline = if tests::LATE_FLUSH.with(std::cell::Cell::get) {
                    now
                } else {
                    deadline
                };
                // a flush that ran past the deadline delays this one
                self.clock = self.clock.max(deadline);
                Some(self.flush_for(FlushCause::Delay))
            }
            _ => None,
        };
        self.clock = self.clock.max(t);
        match flushed.transpose()? {
            Some((completions, flush)) => Ok((completions, Some(flush))),
            None => Ok((Vec::new(), None)),
        }
    }

    /// Runs admission for `(tenant, op)`; on success updates the shadow
    /// model and counters and returns `(new_slot, folded op)`.
    fn admit(&mut self, tenant: u8, op: Op) -> Result<(bool, Op), ServeError> {
        let key = op.key();
        if !fits_domain(tenant, key) {
            return Err(ServeError::KeyOutOfRange { key });
        }
        if self.pending.len() >= self.cfg.queue_cap {
            return Err(ServeError::QueueFull {
                cap: self.cfg.queue_cap,
            });
        }
        let folded_key = fold(tenant, key);
        let st = self.tenants.entry(tenant).or_default();
        let mut new_slot = false;
        match op {
            Op::Put { .. } => {
                new_slot = !st.shadow.contains(&folded_key);
                if new_slot {
                    if let Some(quota) = self.cfg.tenant_quota {
                        if st.shadow.len() as u64 >= quota {
                            return Err(ServeError::QuotaExceeded { tenant, quota });
                        }
                    }
                    let mut cap = self.backend.slot_capacity();
                    let projected = |cap: u64| {
                        if cap == 0 {
                            1.0
                        } else {
                            (self.live_keys + 1) as f64 / cap as f64
                        }
                    };
                    if projected(cap) > self.cfg.occupancy_watermark {
                        // hand the crossing to the backend's incremental
                        // resize before shedding; admission stays a
                        // deterministic function of the submission history
                        // because request_grow is itself deterministic
                        if self.cfg.resize_on_watermark
                            && self.backend.request_grow().unwrap_or(false)
                        {
                            self.telemetry.resizes += 1;
                            cap = self.backend.slot_capacity();
                        }
                        if projected(cap) > self.cfg.occupancy_watermark {
                            return Err(ServeError::Saturated {
                                projected: projected(cap),
                                watermark: self.cfg.occupancy_watermark,
                            });
                        }
                    }
                    st.shadow.insert(folded_key);
                    self.live_keys += 1;
                }
                st.counters.puts += 1;
            }
            Op::Get { .. } => st.counters.gets += 1,
            Op::Delete { .. } => {
                if st.shadow.remove(&folded_key) {
                    self.live_keys -= 1;
                }
                st.counters.deletes += 1;
            }
        }
        let folded = match op {
            Op::Put { value, .. } => Op::Put {
                key: folded_key,
                value,
            },
            Op::Get { .. } => Op::Get { key: folded_key },
            Op::Delete { .. } => Op::Delete { key: folded_key },
        };
        Ok((new_slot, folded))
    }

    /// Drains the pending queue through one coalesced backend execution,
    /// starting now: the caller's flush, whatever the thresholds say.
    ///
    /// # Errors
    /// [`ServeError::Backend`] if a batch of the backend's
    /// [`MapService::execute`] fails. The whole flush is dropped — none
    /// of its ops completes — while an unspecified subset of its final
    /// writes may have been applied (see `execute`'s `# Errors`).
    pub fn flush(&mut self) -> Result<Vec<Completion>, ServeError> {
        if self.pending.is_empty() {
            return Ok(Vec::new());
        }
        self.execute_pending().map(|(done, _)| done)
    }

    /// The flush a threshold triggered, counted by its cause.
    fn flush_for(&mut self, cause: FlushCause) -> Result<(Vec<Completion>, Flush), ServeError> {
        match cause {
            FlushCause::Delay => self.telemetry.delay_flushes += 1,
            FlushCause::Size => self.telemetry.size_flushes += 1,
        }
        let (done, start) = self.execute_pending()?;
        let flush = Flush {
            start,
            end: self.clock,
            cause,
        };
        Ok((done, flush))
    }

    /// Runs the pending ops as one batch from the current clock and
    /// returns their completions and the time the flush started.
    fn execute_pending(&mut self) -> Result<(Vec<Completion>, f64), ServeError> {
        self.ops.clear();
        self.ops.extend(self.pending.iter().map(|p| p.folded));
        self.telemetry.flushes += 1;
        self.telemetry.flushed_ops += self.pending.len() as u64;
        let executed = self.backend.execute(&self.ops);
        // the flush is over, whether or not the backend answered
        let batch = self.pending.drain(..);
        let (responses, report) = executed?;
        let start = self.clock;
        let end = start + report.time;
        self.clock = end;
        // folded: the telemetry lives as long as the server does
        self.telemetry.report.merge_folded(&report);
        let mut out = Vec::with_capacity(batch.len());
        for (p, response) in batch.zip(responses) {
            let latency = end - p.arrival;
            self.telemetry.latency.record(latency);
            self.telemetry.queue_wait.record(start - p.arrival);
            self.telemetry.service.record(end - start);
            let st = self.tenants.entry(p.tenant).or_default();
            st.latency.record(latency);
            st.counters.completed += 1;
            self.ticks += 1;
            out.push(Completion {
                seq: p.seq,
                tenant: p.tenant,
                op: p.local,
                response,
                latency,
                invoked: p.invoked,
                responded: self.ticks,
                new_slot: p.new_slot,
            });
        }
        Ok((out, start))
    }

    /// Replays a whole trace and drains the final partial batch.
    ///
    /// No arrival follows the last batch to reveal its deadline, so the
    /// run [`advances`](Self::advance_to) the clock to it and the delay
    /// flush drains the batch there; only under an infinite `max_delay`,
    /// which never flushes, does the run flush it itself.
    ///
    /// Backend flush failures surface as rejects of the event being
    /// handled when the flush fired (or of the final drain, recorded at
    /// `trace.len()`).
    pub fn run_trace(&mut self, trace: &[TraceEvent]) -> TraceRun {
        let mut completions = Vec::new();
        let mut rejects = Vec::new();
        for (i, ev) in trace.iter().enumerate() {
            let sub = self.submit_at(ev.tenant, ev.op, ev.at);
            completions.extend(sub.completions);
            if let Err(e) = sub.outcome {
                rejects.push((i, e));
            }
        }
        let deadline = self.pending.first().map(|p| p.arrival + self.cfg.max_delay);
        let drained = match deadline {
            Some(deadline) if deadline.is_finite() => {
                self.advance_to(deadline).map(|(done, _)| done)
            }
            _ => self.flush(),
        };
        match drained {
            Ok(done) => completions.extend(done),
            Err(e) => rejects.push((trace.len(), e)),
        }
        completions.sort_by_key(|c| c.seq);
        TraceRun {
            completions,
            rejects,
        }
    }
    /// The modeled clock (seconds).
    #[must_use]
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Ops admitted but not yet flushed.
    #[must_use]
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Live keys across all tenants (host shadow model).
    #[must_use]
    pub fn live_keys(&self) -> u64 {
        self.live_keys
    }

    /// The wrapped backend.
    pub fn backend(&self) -> &S {
        &self.backend
    }

    /// Service-wide telemetry.
    #[must_use]
    pub fn telemetry(&self) -> &ServiceTelemetry {
        &self.telemetry
    }

    /// One tenant's state, if it ever submitted.
    #[must_use]
    pub fn tenant(&self, tenant: u8) -> Option<&TenantState> {
        self.tenants.get(&tenant)
    }

    /// Renders every live gauge and counter in a flat, scrape-friendly
    /// text format (one `name{labels} value` per line, deterministic
    /// order).
    #[must_use]
    pub fn metrics_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let t = &self.telemetry;
        let d = self.backend.degraded();
        let _ = writeln!(s, "wd_serve_clock_seconds {}", self.clock);
        let _ = writeln!(s, "wd_serve_flushes_total {}", t.flushes);
        let _ = writeln!(s, "wd_serve_flushed_ops_total {}", t.flushed_ops);
        let _ = writeln!(s, "wd_serve_size_flushes_total {}", t.size_flushes);
        let _ = writeln!(s, "wd_serve_delay_flushes_total {}", t.delay_flushes);
        let _ = writeln!(s, "wd_serve_resizes_total {}", t.resizes);
        let _ = writeln!(s, "wd_serve_mean_batch {}", t.mean_batch());
        let _ = writeln!(s, "wd_serve_pending_ops {}", self.pending.len());
        let _ = writeln!(s, "wd_serve_live_keys {}", self.live_keys);
        let _ = writeln!(s, "wd_serve_occupancy {}", self.backend.occupancy());
        let _ = writeln!(
            s,
            "wd_serve_throughput_ops_per_sec {}",
            t.report.ops_per_sec()
        );
        let _ = writeln!(s, "wd_serve_backend_time_seconds_total {}", t.report.time);
        let _ = writeln!(
            s,
            "wd_serve_backoff_seconds_total {}",
            t.report.backoff_time
        );
        let _ = writeln!(s, "wd_serve_launch_retries_total {}", d.launch_retries);
        let _ = writeln!(s, "wd_serve_transfer_retries_total {}", d.transfer_retries);
        let _ = writeln!(s, "wd_serve_quarantined_gpus {}", d.quarantined);
        let _ = writeln!(s, "wd_serve_migrated_keys_total {}", d.migrated_keys);
        for (name, h) in [
            ("latency", &t.latency),
            ("queue_wait", &t.queue_wait),
            ("service", &t.service),
        ] {
            for (q, v) in [(0.5, h.p50()), (0.99, h.p99())] {
                let _ = writeln!(s, "wd_serve_{name}_seconds{{quantile=\"{q}\"}} {v}");
            }
        }
        for (id, st) in &self.tenants {
            let c = st.counters;
            for (op, n) in [("put", c.puts), ("get", c.gets), ("delete", c.deletes)] {
                let _ = writeln!(
                    s,
                    "wd_serve_tenant_requests_total{{tenant=\"{id}\",op=\"{op}\"}} {n}"
                );
            }
            for (reason, n) in &st.rejects_by_reason {
                let _ = writeln!(
                    s,
                    "wd_serve_tenant_rejects_total{{tenant=\"{id}\",reason=\"{reason}\"}} {n}"
                );
            }
            let _ = writeln!(
                s,
                "wd_serve_tenant_live_keys{{tenant=\"{id}\"}} {}",
                st.shadow.len()
            );
            for (q, v) in [(0.5, st.latency.p50()), (0.99, st.latency.p99())] {
                let _ = writeln!(
                    s,
                    "wd_serve_tenant_latency_seconds{{tenant=\"{id}\",quantile=\"{q}\"}} {v}"
                );
            }
        }
        s
    }
}

impl<S: MapService> Server<CachedMap<S>> {
    /// Wraps `backend` with a hot-key cache tier of `capacity` entries
    /// and puts the service front door on top: gets that hit the host
    /// shadow never reach the GPU. Responses are identical to an
    /// uncached server on the same trace (the [`CachedMap`] coherence
    /// contract, proven by the `cache_equivalence` suite).
    pub fn cached(backend: S, capacity: usize, policy: CachePolicy, cfg: ServeConfig) -> Self {
        Server::new(CachedMap::new(backend, capacity, policy), cfg)
    }

    /// Cache effectiveness counters.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.backend.stats()
    }

    /// [`Server::metrics_text`] plus the cache tier's gauges.
    #[must_use]
    pub fn cache_metrics_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = self.metrics_text();
        let c = self.backend.stats();
        let _ = writeln!(
            s,
            "wd_serve_cache_entries{{policy=\"{}\"}} {}",
            self.backend.policy().label(),
            self.backend.cached_len()
        );
        let _ = writeln!(s, "wd_serve_cache_capacity {}", self.backend.cache_capacity());
        let _ = writeln!(s, "wd_serve_cache_hits_total {}", c.hits);
        let _ = writeln!(s, "wd_serve_cache_misses_total {}", c.misses);
        let _ = writeln!(s, "wd_serve_cache_hit_rate {}", c.hit_rate());
        let _ = writeln!(s, "wd_serve_cache_admissions_total {}", c.admissions);
        let _ = writeln!(s, "wd_serve_cache_evictions_total {}", c.evictions);
        let _ = writeln!(s, "wd_serve_cache_invalidations_total {}", c.invalidations);
        let _ = writeln!(s, "wd_serve_cache_write_updates_total {}", c.write_updates);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::Device;
    use std::sync::Arc;
    use warpdrive::{
        Config, DeleteResponse, GetResponse, GpuHashMap, OpError, OpReport, PutResponse,
    };

    fn single_gpu(capacity: usize) -> GpuHashMap {
        let dev = Arc::new(Device::with_words(0, capacity * 8 + (1 << 12)));
        GpuHashMap::new(dev, capacity, Config::default()).unwrap()
    }

    #[test]
    fn size_threshold_flushes_exactly_at_max_batch() {
        let mut srv = Server::new(single_gpu(1024), ServeConfig::default().with_max_batch(4));
        for i in 0..3u32 {
            let sub = srv.submit_at(0, Op::Put { key: i, value: i }, 0.0);
            assert!(sub.outcome.is_ok());
            assert!(sub.completions.is_empty());
        }
        assert_eq!(srv.pending_len(), 3);
        let sub = srv.submit_at(0, Op::Put { key: 3, value: 3 }, 0.0);
        assert_eq!(sub.completions.len(), 4);
        assert_eq!(srv.pending_len(), 0);
        assert_eq!(srv.telemetry().flushes, 1);
        assert_eq!(srv.telemetry().size_flushes, 1);
        assert!(srv.clock() > 0.0, "flush must advance the modeled clock");
        assert!(sub.completions.iter().all(|c| c.latency > 0.0));
    }

    #[test]
    fn delay_threshold_flushes_a_trickle() {
        let cfg = ServeConfig::default()
            .with_max_batch(1000)
            .with_max_delay(1e-6);
        let mut srv = Server::new(single_gpu(1024), cfg);
        assert!(srv
            .submit_at(0, Op::Put { key: 1, value: 10 }, 0.0)
            .outcome
            .is_ok());
        // arrives 2 µs later: the pending put exceeded its delay budget
        let sub = srv.submit_at(0, Op::Get { key: 1 }, 2e-6);
        assert_eq!(sub.completions.len(), 1);
        assert_eq!(sub.completions[0].response, Response::Put);
        assert_eq!(srv.telemetry().delay_flushes, 1);
        let done = srv.flush().unwrap();
        assert_eq!(done[0].response, Response::Get { value: Some(10) });
    }

    thread_local! {
        /// Arms `advance_to`'s mutation double: a delay flush that starts
        /// at the event that revealed its deadline, as a server that
        /// checks deadlines only on arrival does.
        pub(super) static LATE_FLUSH: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    }

    /// `serve_node4`'s delay threshold.
    const MAX_DELAY: f64 = 5e-5;

    fn deadline_server(max_batch: usize) -> Server<GpuHashMap> {
        let cfg = ServeConfig::default()
            .with_max_batch(max_batch)
            .with_max_delay(MAX_DELAY);
        Server::new(single_gpu(1024), cfg)
    }

    /// The modeled cost of a flush of `ops` (tenant 0, whose keys fold to
    /// themselves) on a fresh map.
    fn service_of(ops: &[Op]) -> f64 {
        single_gpu(1024).execute(ops).unwrap().1.time
    }

    #[test]
    fn a_lone_request_completes_at_its_deadline() {
        let mut srv = deadline_server(64);
        let (put, at) = (Op::Put { key: 1, value: 10 }, 1e-6);
        assert!(srv.submit_at(0, put, at).outcome.is_ok());
        // the next arrival comes long after the put's deadline
        let sub = srv.submit_at(0, Op::Get { key: 1 }, 1e-3);
        let deadline = at + MAX_DELAY;
        let end = deadline + service_of(&[put]);
        assert_eq!(sub.completions.len(), 1);
        assert_eq!(sub.completions[0].latency, end - at);
        let want = Flush {
            start: deadline,
            end,
            cause: FlushCause::Delay,
        };
        assert_eq!(sub.flush, Some(want));
        assert_eq!(srv.clock(), 1e-3);
        assert_eq!(srv.telemetry().delay_flushes, 1);
    }

    #[test]
    fn flushing_at_the_next_arrival_is_caught() {
        LATE_FLUSH.with(|late| late.set(true));
        let caught = std::panic::catch_unwind(a_lone_request_completes_at_its_deadline).is_err();
        LATE_FLUSH.with(|late| late.set(false));
        assert!(
            caught,
            "a delay flush at the next arrival passed the deadline test"
        );
    }

    #[test]
    fn advance_to_flushes_at_the_deadline_once() {
        let mut srv = deadline_server(64);
        let put = Op::Put { key: 1, value: 10 };
        assert!(srv.submit_at(0, put, 0.0).outcome.is_ok());
        // before the deadline nothing happens
        let (done, flush) = srv.advance_to(MAX_DELAY / 2.0).unwrap();
        assert!(done.is_empty() && flush.is_none());
        assert_eq!(srv.pending_len(), 1);
        let (done, flush) = srv.advance_to(1.0).unwrap();
        assert_eq!(done.len(), 1);
        let flush = flush.expect("the deadline passed");
        assert_eq!(flush.start, MAX_DELAY);
        assert_eq!(flush.end, MAX_DELAY + service_of(&[put]));
        assert_eq!(flush.cause, FlushCause::Delay);
        assert_eq!(srv.clock(), 1.0);
        let (done, flush) = srv.advance_to(1.0).unwrap();
        assert!(done.is_empty() && flush.is_none());
        assert_eq!((srv.clock(), srv.telemetry().flushes), (1.0, 1));
        // the clock never goes back
        srv.advance_to(0.5).unwrap();
        assert_eq!(srv.clock(), 1.0);
    }

    #[test]
    fn a_request_that_arrives_while_busy_is_stamped_at_the_end_of_the_flush() {
        let mut srv = deadline_server(2);
        let puts = [Op::Put { key: 1, value: 1 }, Op::Put { key: 2, value: 2 }];
        assert!(srv.submit_at(0, puts[0], 0.0).flush.is_none());
        let sub = srv.submit_at(0, puts[1], 0.0);
        let busy = sub.flush.expect("the queue reached max_batch");
        assert_eq!(busy.cause, FlushCause::Size);
        assert_eq!((busy.start, busy.end), (0.0, service_of(&puts)));
        assert_eq!(sub.completions.len(), 2);
        // arrives mid-flush: taken in, and its deadline counted, at the end
        let get = Op::Get { key: 1 };
        assert!(srv.submit_at(0, get, busy.end / 2.0).flush.is_none());
        assert_eq!(srv.clock(), busy.end);
        let (done, flush) = srv.advance_to(1.0).unwrap();
        let flush = flush.expect("the get's deadline passed");
        assert_eq!(flush.start, busy.end + MAX_DELAY);
        assert_eq!(done[0].latency, flush.end - busy.end);
        assert_eq!(done[0].response, Response::Get { value: Some(1) });
    }

    #[test]
    fn an_infinite_max_delay_never_flushes() {
        let cfg = ServeConfig::default()
            .with_max_batch(64)
            .with_max_delay(f64::INFINITY);
        let mut srv = Server::new(single_gpu(1024), cfg);
        for (key, at) in [(1, 0.0), (2, 1.0), (3, 1e9)] {
            let sub = srv.submit_at(0, Op::Get { key }, at);
            assert!(sub.completions.is_empty() && sub.flush.is_none());
        }
        let (done, flush) = srv.advance_to(1e12).unwrap();
        assert!(done.is_empty() && flush.is_none());
        assert_eq!((srv.pending_len(), srv.telemetry().flushes), (3, 0));
    }

    #[test]
    fn tenants_are_isolated_on_the_same_local_key() {
        let mut srv = Server::new(single_gpu(1024), ServeConfig::default());
        srv.submit_at(1, Op::Put { key: 5, value: 11 }, 0.0);
        srv.submit_at(2, Op::Put { key: 5, value: 22 }, 0.0);
        srv.submit_at(1, Op::Get { key: 5 }, 0.0);
        srv.submit_at(2, Op::Get { key: 5 }, 0.0);
        srv.submit_at(2, Op::Delete { key: 5 }, 0.0);
        srv.submit_at(1, Op::Get { key: 5 }, 0.0);
        let done = srv.flush().unwrap();
        assert_eq!(done[2].response, Response::Get { value: Some(11) });
        assert_eq!(done[3].response, Response::Get { value: Some(22) });
        assert_eq!(done[4].response, Response::Delete { hit: true });
        // tenant 2's delete must not touch tenant 1's key
        assert_eq!(done[5].response, Response::Get { value: Some(11) });
        assert_eq!(srv.tenant(1).unwrap().shadow.len(), 1);
        assert_eq!(srv.tenant(2).unwrap().shadow.len(), 0);
    }

    #[test]
    fn quota_rejects_new_keys_but_admits_updates_and_deletes() {
        let cfg = ServeConfig::default().with_tenant_quota(2);
        let mut srv = Server::new(single_gpu(1024), cfg);
        assert!(srv.submit_at(0, Op::Put { key: 1, value: 1 }, 0.0).outcome.is_ok());
        assert!(srv.submit_at(0, Op::Put { key: 2, value: 2 }, 0.0).outcome.is_ok());
        let rej = srv.submit_at(0, Op::Put { key: 3, value: 3 }, 0.0).outcome;
        assert_eq!(
            rej.unwrap_err(),
            ServeError::QuotaExceeded {
                tenant: 0,
                quota: 2
            }
        );
        // updates of live keys don't count against the quota
        assert!(srv.submit_at(0, Op::Put { key: 1, value: 9 }, 0.0).outcome.is_ok());
        // other tenants have their own budget
        assert!(srv.submit_at(1, Op::Put { key: 3, value: 3 }, 0.0).outcome.is_ok());
        // deleting frees quota
        assert!(srv.submit_at(0, Op::Delete { key: 2 }, 0.0).outcome.is_ok());
        assert!(srv.submit_at(0, Op::Put { key: 4, value: 4 }, 0.0).outcome.is_ok());
        assert_eq!(srv.tenant(0).unwrap().counters.rejects, 1);
    }

    #[test]
    fn watermark_saturates_puts_only() {
        let cfg = ServeConfig::default().with_occupancy_watermark(0.5);
        let mut srv = Server::new(single_gpu(64), cfg);
        let mut saturated = None;
        for i in 0..64u32 {
            if let Err(e) = srv.submit_at(0, Op::Put { key: i, value: i }, 0.0).outcome {
                saturated = Some((i, e));
                break;
            }
        }
        let (at, err) = saturated.expect("watermark must bite before capacity");
        assert_eq!(at, 32, "0.5 × 64 slots admits exactly 32 new keys");
        assert!(matches!(err, ServeError::Saturated { .. }));
        // reads and deletes still pass at the watermark
        assert!(srv.submit_at(0, Op::Get { key: 0 }, 0.0).outcome.is_ok());
        assert!(srv.submit_at(0, Op::Delete { key: 0 }, 0.0).outcome.is_ok());
        // the delete freed a slot: one more new put fits
        assert!(srv.submit_at(0, Op::Put { key: 99, value: 0 }, 0.0).outcome.is_ok());
    }

    #[test]
    fn resize_on_watermark_hands_off_instead_of_shedding() {
        let cfg = ServeConfig::default()
            .with_occupancy_watermark(0.5)
            .with_resize_on_watermark();
        let mut srv = Server::new(single_gpu(64), cfg);
        // 0.5 × 64 sheds the 33rd new key without the handoff; with it
        // the backend doubles to 128 slots and every put is admitted
        for i in 0..48u32 {
            let sub = srv.submit_at(0, Op::Put { key: i, value: i }, 0.0);
            assert!(sub.outcome.is_ok(), "put {i} rejected: {:?}", sub.outcome);
        }
        srv.flush().unwrap();
        assert_eq!(srv.telemetry().resizes, 1, "exactly one grow handoff");
        assert!(srv.backend().slot_capacity() >= 128);
        assert_eq!(srv.tenant(0).unwrap().counters.rejects, 0);
        assert!(srv.metrics_text().contains("wd_serve_resizes_total 1"));
    }

    #[test]
    fn queue_cap_rejects_with_queue_full() {
        let cfg = ServeConfig::default()
            .with_max_batch(100)
            .with_max_delay(f64::INFINITY)
            .with_queue_cap(2);
        let mut srv = Server::new(single_gpu(1024), cfg);
        assert!(srv.submit_at(0, Op::Get { key: 1 }, 0.0).outcome.is_ok());
        assert!(srv.submit_at(0, Op::Get { key: 2 }, 0.0).outcome.is_ok());
        let rej = srv.submit_at(0, Op::Get { key: 3 }, 0.0).outcome;
        assert_eq!(rej.unwrap_err(), ServeError::QueueFull { cap: 2 });
    }

    #[test]
    fn out_of_domain_keys_are_rejected_not_panicked() {
        let mut srv = Server::new(single_gpu(1024), ServeConfig::default());
        let rej = srv
            .submit_at(0, Op::Get { key: crate::tenant::KEY_SPACE }, 0.0)
            .outcome;
        assert_eq!(
            rej.unwrap_err(),
            ServeError::KeyOutOfRange {
                key: crate::tenant::KEY_SPACE
            }
        );
        // tenant 255's top key folds onto the reserved word
        let rej = srv
            .submit_at(
                255,
                Op::Put {
                    key: crate::tenant::KEY_SPACE - 1,
                    value: 0,
                },
                0.0,
            )
            .outcome;
        assert!(matches!(rej.unwrap_err(), ServeError::KeyOutOfRange { .. }));
    }

    #[test]
    fn metrics_text_exposes_tenants_and_quantiles() {
        let mut srv = Server::new(single_gpu(1024), ServeConfig::default().with_max_batch(2));
        srv.submit_at(0, Op::Put { key: 1, value: 1 }, 0.0);
        srv.submit_at(3, Op::Put { key: 1, value: 2 }, 0.0);
        srv.flush().unwrap();
        let m = srv.metrics_text();
        assert!(m.contains("wd_serve_flushes_total 1"));
        assert!(m.contains("wd_serve_tenant_requests_total{tenant=\"0\",op=\"put\"} 1"));
        assert!(m.contains("wd_serve_tenant_requests_total{tenant=\"3\",op=\"put\"} 1"));
        assert!(m.contains("wd_serve_latency_seconds{quantile=\"0.99\"}"));
        assert!(m.contains("wd_serve_queue_wait_seconds{quantile=\"0.5\"}"));
        assert!(m.contains("wd_serve_service_seconds{quantile=\"0.99\"}"));
        assert!(m.contains("wd_serve_tenant_live_keys{tenant=\"3\"} 1"));
        assert!(m.contains("wd_serve_occupancy"));
    }

    #[test]
    fn cached_server_matches_uncached_and_absorbs_hot_reads() {
        let trace = crate::trace::generate(
            &crate::trace::TraceConfig {
                ops: 400,
                key_space: 32, // tiny key space → plenty of repeat gets
                ..crate::trace::TraceConfig::default()
            },
            11,
        );
        let cfg = ServeConfig::default().with_max_batch(16);
        let mut plain = Server::new(single_gpu(4096), cfg.clone());
        let want = plain.run_trace(&trace);
        let mut cached = Server::cached(single_gpu(4096), 16, CachePolicy::Lru, cfg);
        let got = cached.run_trace(&trace);
        // responses are identical; modeled latencies legitimately differ
        // (absorbed gets skip the kernel launch)
        let observable = |run: &TraceRun| -> Vec<(u64, u8, Op, Response, bool)> {
            run.completions
                .iter()
                .map(|c| (c.seq, c.tenant, c.op, c.response, c.new_slot))
                .collect()
        };
        assert_eq!(observable(&got), observable(&want));
        assert_eq!(got.rejects.len(), want.rejects.len());
        let stats = cached.cache_stats();
        assert!(stats.hits > 0, "32-key space must produce cache hits");
        let m = cached.cache_metrics_text();
        assert!(m.contains("wd_serve_cache_hit_rate"));
        assert!(m.contains(&format!("wd_serve_cache_hits_total {}", stats.hits)));
    }

    /// A node that keeps every `execute` report, one row per occurrence.
    struct Recording {
        node: warpdrive::DistributedHashMap,
        rows: OpReport,
    }

    impl MapService for Recording {
        fn put_batch(&mut self, pairs: &[(u32, u32)]) -> Result<PutResponse, OpError> {
            self.node.put_batch(pairs)
        }
        fn get_batch(&mut self, keys: &[u32]) -> Result<GetResponse, OpError> {
            self.node.get_batch(keys)
        }
        fn delete_batch(&mut self, keys: &[u32]) -> Result<DeleteResponse, OpError> {
            self.node.delete_batch(keys)
        }
        fn live_len(&self) -> u64 {
            self.node.live_len()
        }
        fn slot_capacity(&self) -> u64 {
            self.node.slot_capacity()
        }
        fn execute(&mut self, ops: &[Op]) -> Result<(Vec<Response>, OpReport), OpError> {
            let done = self.node.execute(ops)?;
            self.rows.merge(&done.1);
            Ok(done)
        }
    }

    #[test]
    fn telemetry_report_stays_one_row_per_stage_over_ten_thousand_flushes() {
        use warpdrive::CascadeStage::{
            Backoff, Insert, Multisplit, Query, Scatter, Transpose, TransposeBack, D2H, H2D,
        };
        let devices = (0..4).map(|i| Arc::new(Device::with_words(i, 1 << 14)));
        let node = warpdrive::DistributedHashMap::new(
            devices.collect(),
            1024,
            Config::default(),
            interconnect::Topology::p100_quad(4),
        )
        .unwrap();
        let backend = Recording {
            node,
            rows: OpReport::default(),
        };
        let mut srv = Server::new(backend, ServeConfig::default().with_max_batch(1));
        for i in 0..10_000u32 {
            let key = i % 512;
            let op = match i % 3 {
                0 => Op::Put { key, value: i },
                1 => Op::Get { key },
                _ => Op::Delete { key },
            };
            assert_eq!(srv.submit_at(0, op, 0.0).completions.len(), 1);
        }
        let stages = [
            H2D,
            Multisplit,
            Transpose,
            Insert,
            Query,
            TransposeBack,
            Scatter,
            D2H,
            Backoff,
        ];
        let (total, rows) = (&srv.telemetry().report, &srv.backend().rows);
        assert_eq!(srv.telemetry().flushes, 10_000);
        assert!(rows.stages.len() > 30_000);
        assert!(total.stages.len() <= stages.len());
        for stage in stages {
            assert_eq!(
                total.time_of(stage).to_bits(),
                rows.time_of(stage).to_bits(),
                "{stage:?}"
            );
        }
        assert_eq!(total.time.to_bits(), rows.time.to_bits());
        assert_eq!(total.launches, rows.launches);
    }

    #[test]
    fn completions_order_and_logical_clocks_are_coherent() {
        let mut srv = Server::new(single_gpu(1024), ServeConfig::default().with_max_batch(3));
        srv.submit_at(0, Op::Put { key: 1, value: 1 }, 0.0);
        srv.submit_at(0, Op::Get { key: 1 }, 0.0);
        let sub = srv.submit_at(0, Op::Delete { key: 1 }, 0.0);
        let done = sub.completions;
        assert_eq!(done.len(), 3);
        for c in &done {
            assert!(c.invoked < c.responded, "invocation precedes response");
        }
        assert!(done.windows(2).all(|w| w[0].seq < w[1].seq));
        let events: Vec<_> = done.iter().map(Completion::to_event).collect();
        warpdrive::check_linearizable(&events).unwrap();
    }
}
