//! Device multisplit primitives (§IV-B of the paper).
//!
//! The distributed hash map reorders each GPU's key-value pairs into `m`
//! classes given by the partition function `p(k)` before the all-to-all
//! transposition. The paper deliberately uses a *simple* multisplit — `m`
//! consecutive binary splits (one class versus the rest), each compacting
//! its class with a **warp-aggregated atomic counter** (Adinetz's
//! technique, ref. \[23\]) — rather than Ashkiani's full GPU multisplit,
//! because the step accounts for only 2–4% of cascade runtime. On a
//! small batch what it costs is its `m` launches (§V-B), so a pass
//! compacts any number of independent **segments** in one launch: a
//! cascade that moves query words and pairs splits both in the `m`
//! launches one of them takes.
//!
//! * [`warp_agg`] — the warp-aggregated compaction building block, over
//!   the segments of one launch,
//! * [`split`] — the m-pass binary multisplit on a simulated device, one
//!   pass loop for one segment or several,
//! * [`sort_split`] — a radix-sort-based multisplit standing in for the
//!   CUB approach the paper compares against (ablation A3),
//! * [`scan`] — exclusive prefix scans,
//! * [`table`] — the m×m partition table and its transposition algebra.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod scan;
pub mod sort_split;
pub mod split;
pub mod table;
pub mod warp_agg;

pub use scan::{col_exclusive_scan, exclusive_scan, row_exclusive_scan};
pub use split::{device_multisplit, device_multisplit_segments, SegmentedSplit, SplitResult};
pub use table::PartitionTable;
pub use warp_agg::{warp_aggregated_compact, warp_aggregated_compact_segments, CompactSegment};
