//! Error types of the public API.

use gpu_sim::OutOfMemory;
use interconnect::TransferError;

/// Errors while constructing a hash map.
#[derive(Debug)]
pub enum BuildError {
    /// The table (plus auxiliary buffers) does not fit the device's VRAM —
    /// the very limitation the multi-GPU scheme removes.
    OutOfMemory(OutOfMemory),
    /// Capacity of zero requested.
    ZeroCapacity,
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::OutOfMemory(e) => write!(f, "hash table allocation failed: {e}"),
            BuildError::ZeroCapacity => write!(f, "hash table capacity must be positive"),
        }
    }
}

impl std::error::Error for BuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BuildError::OutOfMemory(e) => Some(e),
            BuildError::ZeroCapacity => None,
        }
    }
}

impl From<OutOfMemory> for BuildError {
    fn from(e: OutOfMemory) -> Self {
        BuildError::OutOfMemory(e)
    }
}

/// Errors during bulk insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertError {
    /// One or more pairs exhausted `p_max` probing attempts (Fig. 3,
    /// line 26). The paper's remedy is invalidation and reconstruction
    /// with a distinct hash function — see
    /// [`crate::GpuHashMap::rebuild_with_fresh_hash`]. With a
    /// [`crate::ResizePolicy`] armed, the load-factor watermark
    /// normally triggers incremental growth or compaction *before* the
    /// probing scheme can saturate, so this error marks either a
    /// disabled policy or a table whose growth allocation failed.
    ProbingExhausted {
        /// Number of pairs that could not be placed.
        failed: u64,
    },
    /// A scratch allocation for the operation failed.
    OutOfMemory(OutOfMemory),
    /// An interconnect transfer exhausted its retry budget (fault
    /// injection, see [`gpu_sim::FaultPlan`]). Surfaced only when the
    /// failing link's endpoints could not be quarantined — with
    /// survivors available the cascade re-routes instead.
    Transfer(TransferError),
    /// A GPU exhausted its kernel-launch retry budget and no survivor
    /// remained to take over its partition.
    DeviceLost {
        /// The lost device's index.
        device: usize,
    },
    /// A cascade invariant broke (e.g. a retry loop exhausted its
    /// round budget without a quarantine). This is a bug in WarpDrive,
    /// not an environmental failure — but a fault path that promised a
    /// typed error must not panic a serving process over it.
    Internal {
        /// The violated invariant, verbatim.
        detail: &'static str,
    },
}

impl std::fmt::Display for InsertError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InsertError::ProbingExhausted { failed } => {
                write!(f, "{failed} pair(s) exhausted the probing scheme")
            }
            InsertError::OutOfMemory(e) => write!(f, "insertion scratch allocation failed: {e}"),
            InsertError::Transfer(e) => write!(f, "unrecoverable transfer failure: {e}"),
            InsertError::DeviceLost { device } => {
                write!(f, "GPU {device} lost: launch retry budget exhausted, no failover target")
            }
            InsertError::Internal { detail } => {
                write!(f, "internal invariant violated: {detail}")
            }
        }
    }
}

impl std::error::Error for InsertError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            InsertError::Transfer(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TransferError> for InsertError {
    fn from(e: TransferError) -> Self {
        InsertError::Transfer(e)
    }
}

impl From<OutOfMemory> for InsertError {
    fn from(e: OutOfMemory) -> Self {
        InsertError::OutOfMemory(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_actionable() {
        let e = BuildError::ZeroCapacity;
        assert!(e.to_string().contains("positive"));
        let e = InsertError::ProbingExhausted { failed: 3 };
        assert!(e.to_string().contains('3'));
    }

    #[test]
    fn fault_variants_display_and_convert() {
        let t = TransferError {
            src: 1,
            dst: 2,
            attempts: 4,
        };
        let i: InsertError = t.into();
        assert!(i.to_string().contains("transfer"));
        assert!(InsertError::DeviceLost { device: 3 }.to_string().contains("GPU 3"));
    }

    #[test]
    fn oom_conversions_preserve_detail() {
        let oom = OutOfMemory {
            requested_words: 10,
            available_words: 5,
        };
        let b: BuildError = oom.into();
        assert!(b.to_string().contains("10"));
        let i: InsertError = oom.into();
        assert!(i.to_string().contains("10"));
    }
}
