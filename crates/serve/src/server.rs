//! The serving loop: admission → coalescing → flush → completions.
//!
//! A [`Server`] owns one [`MapService`] backend exclusively and turns a
//! timed stream of small per-tenant requests into GPU-sized batches. The
//! modeled clock advances two ways: submissions carry arrival times
//! (`clock = max(clock, at)`), and every flush adds its backend-reported
//! modeled cost. End-to-end latency of a request is therefore
//! `flush_end − arrival` — queueing delay plus its share of the batch.
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

/// What one submission did: completions drained by any flush it
/// triggered, plus whether the op itself was admitted.
#[derive(Debug)]
pub struct Submitted {
    /// Completions delivered while handling this submission (ops flushed
    /// by the delay or size threshold — possibly including this op).
    pub completions: Vec<Completion>,
    /// `Ok(seq)` if the op was admitted, the typed rejection otherwise.
    pub outcome: Result<u64, ServeError>,
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
    /// Advances the clock to `at`, flushes first if the oldest pending
    /// op has exceeded the delay threshold, then runs admission, and
    /// flushes again if the queue reached the size threshold. All
    /// completions drained along the way are returned.
    pub fn submit_at(&mut self, tenant: u8, op: Op, at: f64) -> Submitted {
        self.clock = self.clock.max(at);
        let mut completions = Vec::new();
        if !self.pending.is_empty() && self.clock - self.pending[0].arrival >= self.cfg.max_delay {
            self.telemetry.delay_flushes += 1;
            match self.flush() {
                Ok(done) => completions.extend(done),
                Err(e) => {
                    return Submitted {
                        completions,
                        outcome: Err(e),
                    }
                }
            }
        }
        let (new_slot, folded) = match self.admit(tenant, op) {
            Ok(x) => x,
            Err(e) => {
                let st = self.tenants.entry(tenant).or_default();
                st.counters.rejects += 1;
                *st.rejects_by_reason.entry(e.reason()).or_insert(0) += 1;
                return Submitted {
                    completions,
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
        if self.pending.len() >= self.cfg.max_batch {
            self.telemetry.size_flushes += 1;
            match self.flush() {
                Ok(done) => completions.extend(done),
                Err(e) => {
                    return Submitted {
                        completions,
                        outcome: Err(e),
                    }
                }
            }
        }
        Submitted {
            completions,
            outcome: Ok(seq),
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
                if self.cfg.degraded_reject_puts && self.backend.degraded().quarantined > 0 {
                    return Err(ServeError::Degraded);
                }
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

    /// Drains the pending queue through one coalesced backend execution.
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
        self.ops.clear();
        self.ops.extend(self.pending.iter().map(|p| p.folded));
        self.telemetry.flushes += 1;
        self.telemetry.flushed_ops += self.pending.len() as u64;
        let executed = self.backend.execute(&self.ops);
        // the flush is over, whether or not the backend answered
        let batch = self.pending.drain(..);
        let (responses, report) = executed?;
        let end = self.clock + report.time;
        self.clock = end;
        // folded: the telemetry lives as long as the server does
        self.telemetry.report.merge_folded(&report);
        let mut out = Vec::with_capacity(batch.len());
        for (p, response) in batch.zip(responses) {
            let latency = end - p.arrival;
            self.telemetry.latency.record(latency);
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
        Ok(out)
    }

    /// Replays a whole trace and drains the final partial batch.
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
        match self.flush() {
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
        for (q, v) in [(0.5, t.latency.p50()), (0.99, t.latency.p99())] {
            let _ = writeln!(s, "wd_serve_latency_seconds{{quantile=\"{q}\"}} {v}");
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
