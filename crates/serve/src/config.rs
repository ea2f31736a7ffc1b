//! Service configuration: coalescing thresholds and admission limits.

/// Tuning knobs of a [`crate::Server`].
///
/// The two coalescing thresholds trade latency for throughput exactly as
/// §V's batch-size sweeps do: larger batches amortize launch overhead and
/// saturate more subwarps, smaller batches bound how long a request sits
/// in the queue. Both are expressed on the *modeled* clock (seconds of
/// simulated GPU time), so every run is deterministic and replayable.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Flush the pending queue once it holds this many ops (≥ 1). A
    /// value of 1 disables coalescing — every op becomes its own batch,
    /// which is the reference behavior the equivalence suite compares
    /// against.
    pub max_batch: usize,
    /// Flush once the oldest pending op has waited this long on the
    /// modeled clock (seconds). Bounds tail latency under trickle load.
    pub max_delay: f64,
    /// Reject with [`crate::ServeError::QueueFull`] once the pending
    /// queue holds this many ops (backpressure of last resort).
    pub queue_cap: usize,
    /// Reject puts of *new* keys once the projected load factor (live
    /// keys / slot capacity, on the host shadow model) would exceed this
    /// watermark. Updates of live keys and all gets/deletes still pass:
    /// the paper's probing guarantees degrade past α ≈ 0.95, so the
    /// service refuses to be pushed there.
    pub occupancy_watermark: f64,
    /// Per-tenant cap on live keys; `None` disables quotas.
    pub tenant_quota: Option<u64>,
    /// When `true`, crossing [`ServeConfig::occupancy_watermark`] asks
    /// the backend to grow (incremental resize) instead of shedding the
    /// put: the op is admitted against the enlarged capacity when the
    /// backend complies, and only falls back to
    /// [`crate::ServeError::Saturated`] when it cannot (fixed-capacity
    /// backend, or the growth allocation failed).
    pub resize_on_watermark: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_batch: 256,
            max_delay: 1e-3,
            queue_cap: 4096,
            occupancy_watermark: 0.90,
            tenant_quota: None,
            resize_on_watermark: false,
        }
    }
}

impl ServeConfig {
    /// Sets the size flush threshold.
    ///
    /// # Panics
    /// Panics if `n == 0` — a service must be able to flush.
    #[must_use]
    pub fn with_max_batch(mut self, n: usize) -> Self {
        assert!(n > 0, "max_batch must be at least 1");
        self.max_batch = n;
        self
    }

    /// Sets the modeled-time flush threshold (seconds).
    #[must_use]
    pub fn with_max_delay(mut self, s: f64) -> Self {
        self.max_delay = s;
        self
    }

    /// Sets the pending-queue hard cap.
    #[must_use]
    pub fn with_queue_cap(mut self, n: usize) -> Self {
        self.queue_cap = n;
        self
    }

    /// Sets the admission watermark on the projected load factor.
    #[must_use]
    pub fn with_occupancy_watermark(mut self, w: f64) -> Self {
        self.occupancy_watermark = w;
        self
    }

    /// Caps every tenant at `n` live keys.
    #[must_use]
    pub fn with_tenant_quota(mut self, n: u64) -> Self {
        self.tenant_quota = Some(n);
        self
    }

    /// Hands watermark crossings to the backend's incremental resize
    /// instead of shedding writes.
    #[must_use]
    pub fn with_resize_on_watermark(mut self) -> Self {
        self.resize_on_watermark = true;
        self
    }
}
