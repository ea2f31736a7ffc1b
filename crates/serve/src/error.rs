//! The typed rejection vocabulary of the front door.

use warpdrive::OpError;

/// Why the service refused (or failed) a request. Admission rejections
/// (`KeyOutOfRange` … `QueueFull`) are decided on the host shadow model
/// *before* the op is queued — they are deterministic functions of the
/// submission history, independent of how ops later coalesce into
/// batches. `Backend` wraps a typed [`OpError`] from a flush.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServeError {
    /// The tenant-local key does not fit the folded key domain.
    KeyOutOfRange {
        /// The offending key.
        key: u32,
    },
    /// The put would push the tenant past its live-key quota.
    QuotaExceeded {
        /// The tenant at its cap.
        tenant: u8,
        /// The configured cap.
        quota: u64,
    },
    /// The put would push the projected load factor past the admission
    /// watermark.
    Saturated {
        /// Projected load factor had the put been admitted.
        projected: f64,
        /// The configured watermark.
        watermark: f64,
    },
    /// The pending queue is at its hard cap.
    QueueFull {
        /// The configured cap.
        cap: usize,
    },
    /// A flush failed with a typed backend error. None of its ops
    /// completes, while an unspecified subset of its final writes may
    /// have been applied; the shadow model keeps the *intended* state,
    /// which is the conservative side for admission.
    Backend(OpError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::KeyOutOfRange { key } => {
                write!(f, "key {key} outside the tenant key domain")
            }
            ServeError::QuotaExceeded { tenant, quota } => {
                write!(f, "tenant {tenant} at its live-key quota of {quota}")
            }
            ServeError::Saturated { projected, watermark } => write!(
                f,
                "projected load {projected:.3} past the {watermark:.3} admission watermark"
            ),
            ServeError::QueueFull { cap } => write!(f, "pending queue at its cap of {cap}"),
            ServeError::Backend(e) => write!(f, "backend failure: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Backend(e) => Some(e),
            _ => None,
        }
    }
}

impl From<OpError> for ServeError {
    fn from(e: OpError) -> Self {
        ServeError::Backend(e)
    }
}

impl ServeError {
    /// Short machine-readable label used as the telemetry reject reason.
    #[must_use]
    pub fn reason(&self) -> &'static str {
        match self {
            ServeError::KeyOutOfRange { .. } => "key_out_of_range",
            ServeError::QuotaExceeded { .. } => "quota",
            ServeError::Saturated { .. } => "saturated",
            ServeError::QueueFull { .. } => "queue_full",
            ServeError::Backend(_) => "backend",
        }
    }
}
