//! Interconnection-network model of the paper's evaluation node (Fig. 6).
//!
//! The multi-GPU cascades of §IV-B are bandwidth-bound: the all-to-all
//! transposition is limited by the NVLink fabric and host-sided operations
//! by the PCIe switches. This crate models exactly the topology of the
//! Mogon II node — four Tesla P100s, an augmented fully-connected NVLink
//! graph with 20 GB/s bidirectional links, and two PCIe switches of
//! 12 GB/s each serving one GPU pair — and provides:
//!
//! * [`Topology`] — the link graph with per-pair NVLink bandwidth and
//!   per-switch PCIe bandwidth,
//! * [`alltoall`] — transfer-time estimation for the m×m partition-table
//!   transposition,
//! * [`hostlink`] — H2D/D2H batch transfer costs including switch
//!   contention,
//! * [`pipeline`] — the deterministic resource-timeline scheduler behind
//!   the asynchronous overlapping cascades (Figs. 5 and 11).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alltoall;
pub mod fault;
pub mod hostlink;
pub mod pipeline;
pub mod topology;

pub use alltoall::{alltoall_time, alltoall_time_faulted, AllToAllReport};
pub use fault::{FailedTransfer, FaultedTransfer, TransferError};
pub use hostlink::{broadcast_h2d_time, d2h_time, d2h_time_faulted, h2d_time, h2d_time_faulted};
pub use pipeline::{PipelineReport, PipelineSim, Stage};
pub use topology::Topology;
