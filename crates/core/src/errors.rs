//! Error types of the public API.

use gpu_sim::OutOfMemory;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::OpError;
    use interconnect::TransferError;

    #[test]
    fn display_messages_are_actionable() {
        let e = BuildError::ZeroCapacity;
        assert!(e.to_string().contains("positive"));
        let e = OpError::ProbingExhausted { failed: 3 };
        assert!(e.to_string().contains('3'));
    }

    #[test]
    fn fault_variants_display_and_convert() {
        let t = TransferError {
            src: 1,
            dst: 2,
            attempts: 4,
        };
        let i: OpError = t.into();
        assert!(i.to_string().contains("transfer"));
        assert!(OpError::DeviceLost { device: 3 }.to_string().contains("GPU 3"));
    }

    #[test]
    fn oom_conversions_preserve_detail() {
        let oom = OutOfMemory {
            requested_words: 10,
            available_words: 5,
        };
        let b: BuildError = oom.into();
        assert!(b.to_string().contains("10"));
        let i: OpError = oom.into();
        assert!(i.to_string().contains("10"));
    }
}
