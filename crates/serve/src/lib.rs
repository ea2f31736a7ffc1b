//! # wd-serve — an online, multi-tenant hash-map service
//!
//! WarpDrive's kernels want millions of keys per launch; online callers
//! bring one key at a time. This crate closes that gap with a
//! deterministic, long-lived service over any [`warpdrive::MapService`]
//! backend ([`warpdrive::GpuHashMap`], or a [`warpdrive::DistributedHashMap`]
//! over the GPUs of a node or over the partitions of one device):
//!
//! * **Coalescing** — a [`Server`] queues small [`warpdrive::Op`]
//!   requests and flushes GPU-sized batches when the queue reaches
//!   [`ServeConfig::max_batch`] or the oldest request has waited
//!   [`ServeConfig::max_delay`] on the modeled clock. Arrivals and that
//!   deadline are handled in time order ([`Server::advance_to`]): a
//!   delay flush starts at the deadline, not at the next arrival, and a
//!   submission triggers at most one flush, recorded in
//!   [`Submitted::flush`]. Coalesced
//!   execution is response-identical to sequential execution (the
//!   [`warpdrive::MapService::execute`] contract), which the
//!   equivalence suite proves across seeds × schedules × fault plans.
//! * **Tenancy** — tenant ids occupy the top 8 bits of the key word
//!   ([`tenant::fold`]), giving every tenant a private 2²⁴-key
//!   namespace in one shared (multi-GPU) table, with per-tenant quotas
//!   and telemetry.
//! * **Admission control** — typed [`ServeError`] rejections: occupancy
//!   watermark, per-tenant quota, queue cap, key domain, and optional
//!   write-shedding while the backend reports quarantined GPUs.
//! * **Telemetry** — p50/p99 modeled latency, split into queue wait and
//!   service time, throughput, occupancy and degraded-mode counters,
//!   scrapeable via [`Server::metrics_text`].
//!
//! Per tenant, the service is Wing–Gong linearizable: each completion
//! carries logical invocation/response timestamps and converts to a
//! [`warpdrive::OpEvent`] for [`warpdrive::check_linearizable`].
//!
//! ```
//! use std::sync::Arc;
//! use wd_serve::{ServeConfig, Server};
//! use warpdrive::{Config, GpuHashMap, Op, Response};
//!
//! let dev = Arc::new(gpu_sim::Device::with_words(0, 1 << 16));
//! let map = GpuHashMap::new(dev, 4096, Config::default()).unwrap();
//! let mut srv = Server::new(map, ServeConfig::default().with_max_batch(2));
//!
//! // two tenants, same local key, no interference
//! srv.submit_at(0, Op::Put { key: 7, value: 70 }, 0.0);
//! srv.submit_at(1, Op::Put { key: 7, value: 71 }, 1e-6);
//! srv.submit_at(0, Op::Get { key: 7 }, 2e-6);
//! let done = srv.flush().unwrap();
//! assert_eq!(done[0].response, Response::Get { value: Some(70) });
//! println!("{}", srv.metrics_text());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod error;
pub mod server;
pub mod telemetry;
pub mod tenant;
pub mod trace;

pub use config::ServeConfig;
pub use error::ServeError;
pub use server::{Completion, Flush, FlushCause, Server, Submitted, TraceRun};

/// Re-export of the hot-key cache tier stackable under a [`Server`] (see
/// [`Server::cached`]).
pub use warpdrive::{CachePolicy, CacheStats, CachedMap};
pub use telemetry::{LatencyHistogram, ServiceTelemetry};
pub use tenant::{fold, unfold, TenantState, KEY_SPACE, TENANT_BITS};
pub use trace::{generate, TraceConfig, TraceEvent};
