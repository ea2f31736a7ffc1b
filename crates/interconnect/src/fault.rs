//! Fault-aware transfer types shared by [`crate::alltoall`] and
//! [`crate::hostlink`] (the `wd-chaos` layer of the interconnect).
//!
//! The healthy estimators (`alltoall_time`, `h2d_time`, …) stay exactly
//! as they were; the `*_faulted` variants take a [`gpu_sim::FaultPlan`]
//! and model what a production transfer engine does under
//! [`gpu_sim::RETRY`]: retry dropped transfers with exponential backoff,
//! bill the wasted attempts against the link, and give up with a typed
//! [`TransferError`] once the retry budget is exhausted. A disarmed plan
//! makes every `*_faulted` variant bit-identical to its healthy twin —
//! asserted by `tests/chaos_sweep.rs`.

use gpu_sim::{FaultPlan, RETRY};

/// A transfer that exhausted its retry budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferError {
    /// Source GPU of the failing edge. For host-link (PCIe) transfers
    /// `src == dst`: the GPU whose host link failed.
    pub src: usize,
    /// Destination GPU of the failing edge.
    pub dst: usize,
    /// Attempts made before giving up.
    pub attempts: u32,
}

impl std::fmt::Display for TransferError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.src == self.dst {
            write!(
                f,
                "host link of GPU {} failed after {} attempt(s)",
                self.src, self.attempts
            )
        } else {
            write!(
                f,
                "transfer {} -> {} failed after {} attempt(s)",
                self.src, self.dst, self.attempts
            )
        }
    }
}

impl std::error::Error for TransferError {}

/// Outcome of a fault-aware transfer phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultedTransfer {
    /// Simulated wall time of the phase, including wasted (dropped)
    /// attempts but excluding backoff — backoff is billed separately as
    /// the cascade's `Backoff` stage so stage accounting stays additive.
    pub time: f64,
    /// Payload bytes moved (successful attempts only).
    pub bytes: u64,
    /// Dropped attempts across all links of the phase.
    pub retries: u32,
    /// Exponential-backoff time billed across all links, seconds.
    pub backoff: f64,
}

/// A fault-aware transfer phase that failed: the edge that exhausted its
/// retry budget, and what every edge's retries cost before it did — work
/// that happened although the phase then failed, billed as a
/// [`FaultedTransfer`]'s is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailedTransfer {
    /// The edge that gave up.
    pub error: TransferError,
    /// Retried attempts across all links of the phase; the failing
    /// edge's last attempt, which nothing retried, is not one.
    pub retries: u32,
    /// Exponential-backoff time billed across all links, seconds.
    pub backoff: f64,
}

/// Runs one link's transfer of duration `t_once` under the plan's drop
/// rolls: retries per [`RETRY`], accumulating wasted time and, for each
/// retry, a retry and its backoff into the phase accumulators. Returns
/// the link's serial time.
///
/// # Errors
/// [`TransferError`] when the drop rolls outlast the retry budget.
pub(crate) fn transfer_with_retry(
    plan: &FaultPlan,
    (src, dst, site): (usize, usize, u64),
    t_once: f64,
    retries: &mut u32,
    backoff: &mut f64,
) -> Result<f64, TransferError> {
    let mut elapsed = 0.0;
    let mut attempt: u32 = 0;
    loop {
        if !plan.transfer_drops(src, dst, site, attempt) {
            return Ok(elapsed + t_once);
        }
        // the attempt ran (and dropped): its time is wasted on the link
        elapsed += t_once;
        attempt += 1;
        if !RETRY.may_retry(attempt) {
            return Err(TransferError {
                src,
                dst,
                attempts: attempt,
            });
        }
        *retries += 1;
        *backoff += RETRY.backoff_before(attempt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_edge() {
        let e = TransferError {
            src: 1,
            dst: 3,
            attempts: 4,
        };
        assert!(e.to_string().contains("1 -> 3"));
        let h = TransferError {
            src: 2,
            dst: 2,
            attempts: 1,
        };
        assert!(h.to_string().contains("host link of GPU 2"));
    }

    #[test]
    fn clean_link_costs_one_attempt_and_no_backoff() {
        let plan = FaultPlan::default();
        let (mut r, mut b) = (0, 0.0);
        let t = transfer_with_retry(
            &plan,
            (0, 1, gpu_sim::fault::site::ALLTOALL),
            2.5,
            &mut r,
            &mut b,
        )
        .unwrap();
        assert_eq!(t.to_bits(), 2.5f64.to_bits());
        assert_eq!(r, 0);
        assert_eq!(b, 0.0);
    }

    #[test]
    fn killed_destination_exhausts_the_budget() {
        let plan = FaultPlan::default().with_kill(1);
        let (mut r, mut b) = (0, 0.0);
        let err = transfer_with_retry(
            &plan,
            (0, 1, gpu_sim::fault::site::ALLTOALL),
            1.0,
            &mut r,
            &mut b,
        )
        .unwrap_err();
        assert_eq!(err.attempts, RETRY.max_attempts);
        // every attempt but the last was retried, after its backoff
        assert_eq!(r, RETRY.max_attempts - 1);
        let want: f64 = (1..RETRY.max_attempts).map(|a| RETRY.backoff_before(a)).sum();
        assert_eq!(b.to_bits(), want.to_bits());
    }

    #[test]
    fn dropped_attempts_bill_wasted_time() {
        // find a seed whose first roll drops but a later one succeeds
        for seed in 0..256u64 {
            let plan = FaultPlan::default().with_seed(seed).with_transfer_drop(0.5);
            let (mut r, mut b) = (0, 0.0);
            if let Ok(t) = transfer_with_retry(
                &plan,
                (2, 3, gpu_sim::fault::site::ALLTOALL),
                1.0,
                &mut r,
                &mut b,
            ) {
                if r > 0 {
                    assert!((t - f64::from(r + 1)).abs() < 1e-12, "seed {seed}: {t}");
                    assert!(b > 0.0);
                    return;
                }
            }
        }
        panic!("no seed produced a drop-then-success sequence");
    }
}
