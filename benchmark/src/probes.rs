//! Layer probes: small host-time measurements of one layer alone, taken
//! after the traced repetitions. They are the same for every workload except
//! the segmentation probe, which replays the workload's own `execute` calls.

use crate::stats::median;
use gpu_sim::{Device, GroupSize, LaunchOptions};
use std::hint::black_box;
use std::time::Instant;
use warpdrive::{DeleteResponse, GetResponse, MapService, Op, OpError, OpReport, PutResponse};

/// Launches timed by [`empty_launch_us`].
pub const EMPTY_LAUNCHES: usize = 2_000;
/// Words split by [`multisplit_ns_per_elem`].
pub const MULTISPLIT_WORDS: usize = 1 << 18;
/// Runs whose median a probe reports.
const RUNS: usize = 5;

/// Median host time, in µs, of [`EMPTY_LAUNCHES`] `Device::launch` calls of
/// a 64-group kernel that does nothing: what a launch costs the host before
/// any group runs.
#[must_use]
pub fn empty_launch_us() -> f64 {
    let dev = Device::with_words(0, 1024);
    let times: Vec<f64> = (0..EMPTY_LAUNCHES)
        .map(|_| {
            let start = Instant::now();
            black_box(dev.launch(
                "noop",
                64,
                GroupSize::new(4),
                LaunchOptions::default(),
                |ctx| {
                    black_box(ctx.group_id());
                },
            ));
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times)
}

/// Median host time per element, in ns, of `device_multisplit` of
/// [`MULTISPLIT_WORDS`] words into four classes.
#[must_use]
pub fn multisplit_ns_per_elem() -> f64 {
    let dev = Device::with_words(0, 2 * MULTISPLIT_WORDS + 64);
    let input = dev.alloc(MULTISPLIT_WORDS).expect("probe input");
    let out = dev.alloc(MULTISPLIT_WORDS).expect("probe output");
    let scratch = dev.alloc(1).expect("probe counter");
    // a fixed odd multiplier spreads the classes evenly
    let words: Vec<u64> = (0..MULTISPLIT_WORDS as u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();
    dev.mem().h2d(input, &words);
    let times: Vec<f64> = (0..RUNS)
        .map(|_| {
            let start = Instant::now();
            black_box(multisplit::device_multisplit(
                &dev,
                input,
                out,
                scratch,
                4,
                |w| (w >> 62) as u32,
            ));
            start.elapsed().as_secs_f64() * 1e9 / MULTISPLIT_WORDS as f64
        })
        .collect();
    median(&times)
}

/// A backend that answers at once: puts succeed, gets miss, deletes miss.
struct NoBackend;

impl MapService for NoBackend {
    fn put_batch(&mut self, pairs: &[(u32, u32)]) -> Result<PutResponse, OpError> {
        Ok(PutResponse {
            new_slots: pairs.len() as u64,
            updates: 0,
            reclaimed: 0,
            report: OpReport::default(),
        })
    }

    fn get_batch(&mut self, keys: &[u32]) -> Result<GetResponse, OpError> {
        Ok(GetResponse {
            values: vec![None; keys.len()],
            report: OpReport::default(),
        })
    }

    fn delete_batch(&mut self, keys: &[u32]) -> Result<DeleteResponse, OpError> {
        Ok(DeleteResponse {
            hits: vec![false; keys.len()],
            erased: 0,
            report: OpReport::default(),
        })
    }

    fn live_len(&self) -> u64 {
        0
    }

    fn slot_capacity(&self) -> u64 {
        0
    }
}

/// Median host time, in seconds, of `MapService::execute` over `calls`
/// against a backend that does nothing: the front door's own work
/// (segmentation, batch and response assembly) for one repetition's calls.
/// No seam can separate it inside a real backend, which makes its batch
/// calls on itself.
#[must_use]
pub fn segmentation_s(calls: &[Vec<Op>]) -> f64 {
    if calls.is_empty() {
        return 0.0;
    }
    let times: Vec<f64> = (0..RUNS)
        .map(|_| {
            let start = Instant::now();
            for ops in calls {
                black_box(
                    NoBackend
                        .execute(black_box(ops))
                        .expect("the probe backend cannot fail"),
                );
            }
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}
