//! # WarpDrive — massively parallel hashing on (simulated) multi-GPU nodes
//!
//! A faithful Rust reproduction of *"WarpDrive: Massively Parallel Hashing
//! on Multi-GPU Nodes"* (Jünger, Hundt, Schmidt — IPDPS 2018), running on
//! the software SIMT substrate of the [`gpu_sim`] crate (no physical GPU
//! required; see DESIGN.md for the substitution argument).
//!
//! The crate provides the paper's three contributions:
//!
//! 1. **Subwarp-cooperative probing** ([`GpuHashMap`]) — an open-addressing
//!    hash map whose hybrid probing scheme combines *linear probing within
//!    a coalesced group window* of `|g| ∈ {1,…,32}` consecutive slots with
//!    *chaotic (double-hashed) probing across windows*; insertion follows
//!    the Fig. 3 kernel verbatim: coalesced window load → vacancy ballot →
//!    leader CAS → group notification.
//! 2. **Multi-GPU distribution** ([`DistributedHashMap`]) — the
//!    *distributed multisplit transposition* cascades of §IV-B: each GPU
//!    multisplits its elements by the partition function `p(k)`, the m×m
//!    partition table is transposed with all-to-all NVLink communication,
//!    and each GPU owns exactly the keys with `p(k) = i`.
//! 3. **Asynchronous overlap** ([`host_ops`]) — a large host-sided call is
//!    cut into chunks whose H2D → MST → INS stages overlap on independent
//!    hardware resources (Figs. 5, 11): cut by its size alone, or at an
//!    explicit [`host_ops::Cut`]
//!    ([`DistributedHashMap::apply_in_chunks`]).
//!
//! Every backend has one host entry, [`MapService::apply`] (reads, puts
//! and erases in one call), with the trait's `put_batch`, `get_batch` and
//! `delete_batch` over it; the node adds only `apply_in_chunks` for
//! Fig. 11's fixed cuts and one device-sided entry,
//! [`DistributedHashMap::apply_device_sided`], for lists already on the
//! GPUs: puts, reads or erases ([`Resident`]), one kind a call.
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use gpu_sim::{Device, DeviceSpec};
//! use warpdrive::{Config, GpuHashMap};
//!
//! let dev = Arc::new(Device::with_words(0, 1 << 16));
//! let map = GpuHashMap::new(dev, 1024, Config::default()).unwrap();
//! map.insert_pairs(&[(7, 70), (8, 80)]).unwrap();
//! let resp = map.try_retrieve(&[7, 8, 9]).unwrap();
//! assert_eq!(resp.values, vec![Some(70), Some(80), None]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod cache;
pub mod cascade;
pub mod chaos;
pub mod config;
pub mod delete;
pub mod distributed;
pub mod entry;
pub mod errors;
mod get_put;
pub mod history;
pub mod host_ops;
pub mod insert;
pub mod linearize;
pub mod map;
pub mod multimap;
pub mod probing;
pub mod resize;
pub mod retrieve;
pub mod service;
mod slots;
pub mod stats;
mod table;

pub use adaptive::recommend_group_size;
pub use cache::{CachePolicy, CacheStats, CachedMap};
pub use cascade::Resident;
pub use chaos::Router;
pub use config::{Config, Layout, Mutation, ProbingScheme};
pub use distributed::DistributedHashMap;
pub use entry::{key_of, pack, value_of, EMPTY, RESERVED_KEY, TOMBSTONE};
pub use errors::BuildError;
pub use history::{HistoryRecorder, OpEvent, OpKind, OpResponse};
pub use linearize::{
    check_linearizable, check_linearizable_multi, check_linearizable_multi_serial,
    check_linearizable_serial, Violation,
};
pub use map::GpuHashMap;
pub use multimap::GpuMultiMap;
pub use service::{
    lower_mixed, Applied, DeleteResponse, GetAllResponse, GetResponse, MapService, Op, OpError,
    OpReport, PerGpuResponse, PutResponse, Response,
};
pub use resize::{ResizeMode, ResizePolicy, ResizeState};
pub use stats::{CascadeStage, DegradedStats, Occupancy, StageRows};

/// Re-export of the group-size type used throughout the public API.
pub use gpu_sim::GroupSize;

/// Re-export of the deterministic fault-injection plan (see
/// [`Config::fault`] and DESIGN.md §6.3 "Chaos testing").
pub use gpu_sim::FaultPlan;

/// Re-export of the typed transfer-failure error surfaced by the
/// fault-aware cascades.
pub use interconnect::TransferError;

/// Re-export of the kernel-launch schedule selector (see
/// [`Config::schedule`] and the "Testing & determinism" section of
/// DESIGN.md).
pub use gpu_sim::Schedule;
