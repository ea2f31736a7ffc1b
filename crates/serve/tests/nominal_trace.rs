//! The serving policy's promises on `serve_node4`'s nominal trace: 2¹⁶
//! requests at 25 000 ops/s from two tenants over the benchmark's 4-GPU
//! node, `max_batch` 512 and `max_delay` 50 µs — about half of what the
//! node sustains, so every flush is a delay flush of a few ops.
//!
//! Every [`Submitted::flush`] dates its flush, so queue wait and service
//! time are exact here, where the telemetry's log₂ histograms are only
//! good to a factor of two. A delay flush starts at its deadline, so no
//! request waits in the queue longer than `max_delay`, and a flush of a
//! few ops is one cascade round of three 6 µs launches. CI's `serve` job
//! runs the suite in a release build.

use gpu_sim::Device;
use interconnect::Topology;
use std::sync::Arc;
use warpdrive::{Config, DistributedHashMap};
use wd_serve::{generate, Completion, Flush, FlushCause, ServeConfig, Server, TraceConfig};

const MAX_DELAY: f64 = 5e-5;

/// The nearest-rank `q`-quantile of `samples`.
fn quantile(samples: &mut [f64], q: f64) -> f64 {
    samples.sort_by(f64::total_cmp);
    let rank = ((q * samples.len() as f64).ceil() as usize).max(1);
    samples[rank - 1]
}

#[test]
fn the_nominal_trace_waits_at_most_max_delay_and_serves_in_twenty_us() {
    let devices: Vec<Arc<Device>> = (0..4)
        .map(|i| Arc::new(Device::with_words(i, 1 << 18)))
        .collect();
    let node = DistributedHashMap::new(devices, 1 << 14, Config::default(), Topology::p100_quad(4))
        .expect("serve node");
    let config = ServeConfig::default()
        .with_max_batch(512)
        .with_max_delay(MAX_DELAY)
        .with_tenant_quota(1 << 13);
    let mut server = Server::new(node, config);
    let trace = generate(
        &TraceConfig {
            ops: 1 << 16,
            tenants: 2,
            key_space: 1 << 13,
            put_per_mille: 600,
            delete_per_mille: 0,
            mean_gap: 1.0 / 25_000.0,
        },
        42,
    );

    let (mut latency, mut queue_wait, mut service) = (Vec::new(), Vec::new(), Vec::new());
    let mut settle = |completions: Vec<Completion>, flush: Option<Flush>| {
        let Some(flush) = flush else {
            assert!(completions.is_empty());
            return;
        };
        assert_eq!(
            flush.cause,
            FlushCause::Delay,
            "no size flush at 25 000 ops/s"
        );
        for c in &completions {
            latency.push(c.latency);
            // latency − service = flush start − arrival, to rounding
            queue_wait.push(c.latency - (flush.end - flush.start));
            service.push(flush.end - flush.start);
        }
    };
    for ev in &trace {
        let sub = server.submit_at(ev.tenant, ev.op, ev.at);
        assert!(sub.outcome.is_ok(), "{:?}", sub.outcome);
        settle(sub.completions, sub.flush);
    }
    // the last batch leaves at its deadline
    let (completions, flush) = server
        .advance_to(server.clock() + MAX_DELAY)
        .expect("healthy node");
    settle(completions, flush);
    assert_eq!(latency.len(), trace.len());
    assert_eq!(server.pending_len(), 0);

    let service_p50 = quantile(&mut service, 0.5);
    let service_p99 = quantile(&mut service, 0.99);
    let wait_p99 = quantile(&mut queue_wait, 0.99);
    let latency_p99 = quantile(&mut latency, 0.99);
    println!(
        "service p50 {service_p50:.3e} p99 {service_p99:.3e}, queue wait p99 {wait_p99:.3e}, \
         latency p99 {latency_p99:.3e} s over {} flushes",
        server.telemetry().flushes
    );
    // 1e-12 s absorbs the rounding of `latency − service`
    assert!(
        wait_p99 <= MAX_DELAY + 1e-12,
        "queue wait p99 {wait_p99:.4e} s past max_delay: a delay flush waited for the next \
         arrival (Server::advance_to, server.rs)"
    );
    assert!(
        latency_p99 <= MAX_DELAY + service_p99 + 1e-12,
        "latency p99 {latency_p99:.4e} s"
    );
    assert!(
        service_p50 <= 2.0e-5,
        "a flush of a few ops took {service_p50:.4e} s at the median, more than 20 us: a put/get \
         flush is one cascade round of two launches a GPU, the split and one node launch of \
         kernel and scatter (the one-launch multisplit in crates/multisplit/src/split.rs, \
         the mixed round behind DistributedHashMap::apply in crates/core/src/cascade.rs and \
         host_ops.rs, gpu_sim::launch_node)"
    );
}
