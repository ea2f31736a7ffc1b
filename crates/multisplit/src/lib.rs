//! Device multisplit primitives (§IV-B of the paper).
//!
//! The distributed hash map reorders each GPU's key-value pairs into `m`
//! classes given by the partition function `p(k)` before the all-to-all
//! transposition. The paper deliberately uses a *simple* multisplit — `m`
//! consecutive binary splits (one class versus the rest), each compacting
//! its class with a **warp-aggregated atomic counter** (Adinetz's
//! technique, ref. \[23\]) — rather than Ashkiani's full GPU multisplit,
//! because on 2²⁴-element batches the step accounts for only 2–4% of
//! cascade runtime. On a small batch what it costs is its `m` launches
//! (§V-B), so the cascade runs a one-launch split instead: its runs scan
//! their class counts by decoupled look-back, one launch whatever `m`,
//! with any number of independent **segments** — the keys and the pairs
//! of a mixed round — in the same launch. The paper's split stays
//! as the reference the new one is tested and measured against.
//!
//! * [`warp_agg`] — the warp-aggregated compaction building block: one
//!   pass of the paper's split,
//! * [`split`] — the paper's m-pass binary multisplit and the cascade's
//!   one-launch multisplit on a simulated device (ablation A3 compares
//!   them),
//! * [`scan`] — exclusive prefix scans.
//!
//! Fig. 4's m×m partition table is no type of its own: a source GPU's
//! [`SegmentedSplit::counts`] is its row, and the all-to-all reads the
//! cells transposed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod scan;
pub mod split;
pub mod warp_agg;

pub use scan::exclusive_scan;
pub use split::{
    device_multisplit, device_multisplit_segments, scratch_words, Segment, SegmentedSplit,
    SplitResult, MAX_CLASSES, MAX_SEGMENTS, RUN_WORDS,
};
pub use warp_agg::warp_aggregated_compact;
