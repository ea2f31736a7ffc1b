//! The cascade driver: the one round loop behind every multi-GPU
//! operation.
//!
//! §IV-B's scheme is a single pipeline — multisplit → transposition →
//! per-GPU kernel, optionally → transposition back → scatter — and so is
//! this module. Insertion, retrieval and erasure are three [`CascadeOp`]
//! descriptions plus a per-GPU kernel call each:
//!
//! | operation | launch site | stage    | return trip | scatter kernel (per warp)                     |
//! |-----------|-------------|----------|-------------|-----------------------------------------------|
//! | insert    | `INSERT`    | `Insert` | none        | —                                             |
//! | retrieve  | `QUERY`     | `Query`  | 8 B / key   | `result_scatter`: 32·(16+8) B, 4 transactions |
//! | erase     | `ERASE`     | `Query`  | 1 B / key   | `erase_hit_scatter`: 32·(8+1) B, 2 transactions |
//!
//! Fault handling is woven through once. [`DistributedHashMap::with_failover`]
//! runs a step (a device round here, a PCIe phase in [`crate::host_ops`])
//! under a snapshot of the fault plan and quarantine mask, books what its
//! retries cost, and on a lost device quarantines it and runs the step
//! again — at most `m + 1` times, since every failed run removes a GPU.
//! Re-running is safe because table mutations come last in a round and
//! are idempotent: duplicate inserts update in place, tombstoning a
//! tombstone is a no-op, queries are pure. Answers of targets that
//! completed before a round aborted stand (an erased key is a hit even
//! though the restarted round no longer sees it).

use crate::chaos::{launch_site, straggled, ChaosTally, Router};
use crate::config::Mutation;
use crate::distributed::DistributedHashMap;
use crate::entry::{key_of, pack, value_of, EMPTY};
use crate::service::{OpError, OpReport, PerGpuDeleteResponse, PerGpuGetResponse};
use crate::stats::{CascadeReport, CascadeStage};
use gpu_sim::{DevSlice, FaultPlan, GroupSize, LaunchOptions, RetryPolicy, ScratchGuard};
use interconnect::alltoall_time_faulted;
use multisplit::{device_multisplit, PartitionTable, SplitResult};

/// What distinguishes one cascade from another, besides its kernel call.
pub(crate) struct CascadeOp {
    /// Fault-roll site of the per-GPU kernel launches.
    site: u64,
    /// Stage the kernel step reports under.
    stage: CascadeStage,
    /// Present iff the operation answers per key: its words then carry
    /// their per-GPU index in the low half (the kernels only read
    /// `key_of`), and the answers travel back and scatter into that order.
    back: Option<ReturnTrip>,
}

/// The return half of a cascade: transposition back, then one
/// irregular-store scatter kernel per origin GPU.
struct ReturnTrip {
    /// Bytes per element on the way back; chunk sizes mirror the forward
    /// transposition.
    bytes: u64,
    /// The scatter kernel's name.
    scatter: &'static str,
    /// Per warp of 32 elements: streamed bytes read (query word plus
    /// answer each) …
    stream_bytes: u64,
    /// … and store transactions. Compaction is order-preserving within a
    /// class chunk, so the stores land in near-origin order and coalesce
    /// up to chunk boundaries.
    transactions: u64,
}

const INSERT: CascadeOp = CascadeOp {
    site: launch_site::INSERT,
    stage: CascadeStage::Insert,
    back: None,
};

const RETRIEVE: CascadeOp = CascadeOp {
    site: launch_site::QUERY,
    stage: CascadeStage::Query,
    back: Some(ReturnTrip {
        bytes: 8,
        scatter: "result_scatter",
        stream_bytes: 32 * (16 + 8),
        transactions: 4,
    }),
};

const ERASE: CascadeOp = CascadeOp {
    site: launch_site::ERASE,
    stage: CascadeStage::Query,
    back: Some(ReturnTrip {
        bytes: 1,
        scatter: "erase_hit_scatter",
        stream_bytes: 32 * (8 + 1),
        transactions: 2,
    }),
};

/// Why a step stopped early.
pub(crate) enum Abort {
    /// This device exhausted its retry budget: quarantine it and re-run.
    Lost(usize),
    /// Unrecoverable (probing exhaustion, scratch OOM): propagate.
    Fatal(OpError),
}

/// Per-GPU data prepared for a cascade (device-resident words).
struct SplitPhase<'g> {
    /// Scratch guards keeping the buffers alive.
    _guards: Vec<ScratchGuard<'g>>,
    /// Partition-ordered buffers, one per source GPU.
    splits: Vec<SplitResult>,
    /// The m×m partition table.
    table: PartitionTable,
    /// Phase time (max over GPUs).
    time: f64,
}

/// Query words for keys resident per GPU: the key with its per-GPU index
/// in the low half.
fn indexed(per_gpu_keys: &[Vec<u32>]) -> Vec<Vec<u64>> {
    per_gpu_keys
        .iter()
        .map(|keys| {
            keys.iter()
                .enumerate()
                .map(|(i, &k)| pack(k, i as u32))
                .collect()
        })
        .collect()
}

fn new_report(per_gpu_words: &[Vec<u64>]) -> CascadeReport {
    CascadeReport::new(per_gpu_words.iter().map(|w| w.len() as u64).sum())
}

impl DistributedHashMap {
    /// Runs `step` under a snapshot of the fault plan and quarantine mask
    /// until it succeeds. Whatever its retries cost is booked whether or
    /// not it succeeded — a [`CascadeStage::Backoff`] stage, the degraded
    /// stats — and a step that lost a device has it quarantined (its
    /// partition re-splits over the survivors) before the next run.
    ///
    /// # Errors
    /// A step's fatal error; [`OpError::DeviceLost`] and migration
    /// failures from the quarantine once no survivor remains.
    pub(crate) fn with_failover<O>(
        &self,
        report: &mut CascadeReport,
        mut step: impl FnMut(&FaultPlan, u32, &mut CascadeReport, &mut ChaosTally) -> Result<O, Abort>,
    ) -> Result<O, OpError> {
        for _run in 0..=self.num_gpus() {
            let (plan, mask) = self.chaos_snapshot();
            let mut tally = ChaosTally::default();
            let res = step(&plan, mask, report, &mut tally);
            if tally.backoff > 0.0 {
                report.push(CascadeStage::Backoff, tally.backoff, 0);
            }
            self.note_chaos(&tally);
            match res {
                Ok(out) => return Ok(out),
                Err(Abort::Lost(j)) => self.quarantine(j)?,
                Err(Abort::Fatal(e)) => return Err(e),
            }
        }
        Err(OpError::Internal {
            detail: "every failed round quarantines one GPU; at most m rounds",
        })
    }

    /// The device-sided cascade of `op` over `per_gpu_words` (words
    /// already resident on their GPU), appending its stages to `report`.
    ///
    /// `kernel(j, buf, n)` runs the operation's kernel on GPU `j` over
    /// the `n` words it received and returns its simulated time plus one
    /// answer per word (none for an operation without return trip);
    /// `answer((g, i), word, a)` receives the answer to the caller's
    /// `per_gpu_words[g][i]`. Under an armed fault plan rounds may run
    /// more than once: input addressed to quarantined GPUs re-spreads
    /// over the survivors with its origin tracked, wasted attempts stay
    /// billed, and `kernel`/`answer` see every completed target of every
    /// round.
    ///
    /// # Errors
    /// Probing exhaustion aggregated over the GPUs; a kernel's other
    /// errors and scratch OOM; [`Self::with_failover`]'s.
    pub(crate) fn cascade<A>(
        &self,
        op: &CascadeOp,
        per_gpu_words: &[Vec<u64>],
        report: &mut CascadeReport,
        mut kernel: impl FnMut(usize, DevSlice, usize) -> Result<(f64, Vec<A>), OpError>,
        mut answer: impl FnMut((usize, usize), u64, &A),
    ) -> Result<(), OpError> {
        assert_eq!(per_gpu_words.len(), self.num_gpus(), "one batch per GPU");
        let policy = self.retry_policy();
        self.with_failover(report, |plan, mask, report, tally| {
            // the healthy path borrows the caller's words as they are
            let respread =
                (mask != 0).then(|| self.respread(per_gpu_words, mask, op.back.is_some()));
            let (words, origin) = match &respread {
                Some((words, origin)) => (words.as_slice(), Some(origin.as_slice())),
                None => (per_gpu_words, None),
            };
            let router = self.router_for(mask);
            self.round(
                op,
                words,
                origin,
                &router,
                plan,
                &policy,
                report,
                tally,
                &mut kernel,
                &mut answer,
            )
        })
    }

    /// One round under a fixed router/plan snapshot.
    #[allow(clippy::too_many_arguments)]
    fn round<A>(
        &self,
        op: &CascadeOp,
        per_gpu_words: &[Vec<u64>],
        origin: Option<&[Vec<(usize, usize)>]>,
        router: &Router,
        plan: &FaultPlan,
        policy: &RetryPolicy,
        report: &mut CascadeReport,
        tally: &mut ChaosTally,
        kernel: &mut impl FnMut(usize, DevSlice, usize) -> Result<(f64, Vec<A>), OpError>,
        answer: &mut impl FnMut((usize, usize), u64, &A),
    ) -> Result<(), Abort> {
        let m = self.num_gpus();
        let oh = self.device(0).spec().launch_overhead;
        let alltoall = |bytes: Vec<Vec<u64>>, tally: &mut ChaosTally| {
            let phase = alltoall_time_faulted(self.topology(), &bytes, plan, policy);
            tally.settle(plan, policy, phase).map_err(Abort::Lost)
        };

        // Phases 1+2: multisplit and transposition
        let split = self.multisplit_phase(per_gpu_words, router, plan, policy, tally)?;
        // each GPU runs m sequential compaction passes → m launches
        report.push_with_overhead(CascadeStage::Multisplit, split.time, 0, oh * m as f64);
        let transpose = alltoall(split.table.byte_matrix(8), tally)?;
        let (recv, recv_guards) = self.transpose_move(&split).map_err(Abort::Fatal)?;
        report.push(CascadeStage::Transpose, transpose.time, transpose.bytes);

        // Phase 3: the local kernels (global barrier → max over GPUs)
        let mut worst = 0.0f64;
        let mut failed = 0u64;
        for (j, words) in recv.iter().enumerate() {
            if words.is_empty() {
                continue;
            }
            let retried = tally.launch_retries;
            let gate = tally.gate_launch(plan, policy, j, op.site);
            if self.cfg().mutation == Some(Mutation::DoubleApplyOnRetry)
                && op.site == launch_site::INSERT
                && tally.launch_retries > retried
            {
                // BROKEN (mutation double): premature failover without
                // the idempotence guard — the sub-batch is applied to
                // its failover targets although the primary is still
                // being retried (and will succeed), duplicating keys.
                if let Some(failover) = router.also_masking(j) {
                    let pairs = words.iter().map(|&w| (key_of(w), value_of(w)));
                    let _ = self.insert_routed(&failover, pairs);
                }
            }
            gate.map_err(Abort::Lost)?;
            let buf = recv_guards[j].slice().sub(0, words.len());
            match kernel(j, buf, words.len()) {
                Ok((time, answers)) => {
                    worst = worst.max(straggled(plan, j, time));
                    // `words` is every source GPU's chunk for `j` in GPU
                    // order; hand the answers out now, so they stand
                    // even if a later target aborts the round
                    let sources = (0..m)
                        .flat_map(|i| std::iter::repeat_n(i, split.splits[i].counts[j] as usize));
                    for ((i, &word), a) in sources.zip(words).zip(&answers) {
                        let slot = value_of(word) as usize;
                        answer(origin.map_or((i, slot), |o| o[i][slot]), word, a);
                    }
                }
                // the other GPUs still run: report the aggregate
                Err(OpError::ProbingExhausted { failed: f }) => failed += f,
                Err(e) => return Err(Abort::Fatal(e)),
            }
        }
        report.push_with_overhead(op.stage, worst, 0, oh);
        if failed > 0 {
            return Err(Abort::Fatal(OpError::ProbingExhausted { failed }));
        }

        // Phases 4+5: the return trip
        let Some(back) = &op.back else {
            return Ok(());
        };
        let transpose = alltoall(split.table.transposed().byte_matrix(back.bytes), tally)?;
        report.push(CascadeStage::TransposeBack, transpose.time, transpose.bytes);
        let mut worst = 0.0f64;
        for (i, sent) in split.splits.iter().enumerate() {
            let writes: u64 = sent.counts.iter().sum();
            if writes > 0 {
                let stats = self.device(i).launch(
                    back.scatter,
                    (writes as usize).div_ceil(32),
                    GroupSize::WARP,
                    LaunchOptions::default(),
                    |ctx| {
                        ctx.bill_stream_bytes(back.stream_bytes);
                        ctx.bill_transactions(back.transactions);
                    },
                );
                worst = worst.max(straggled(plan, i, stats.sim_time));
            }
        }
        report.push_with_overhead(CascadeStage::Scatter, worst, 0, oh);
        Ok(())
    }

    /// Re-spreads words addressed to quarantined GPUs round-robin over
    /// the live ones (a dead GPU cannot host its cascade input), tracking
    /// each effective slot's `(origin GPU, origin index)` so answers
    /// return in the caller's order. `indexed` words have their low half
    /// rewritten to the effective slot.
    #[allow(clippy::type_complexity)]
    fn respread(
        &self,
        per_gpu_words: &[Vec<u64>],
        mask: u32,
        indexed: bool,
    ) -> (Vec<Vec<u64>>, Vec<Vec<(usize, usize)>>) {
        let m = self.num_gpus();
        let live: Vec<usize> = (0..m).filter(|&g| mask & (1 << g) == 0).collect();
        let mut eff: Vec<Vec<u64>> = vec![Vec::new(); m];
        let mut origin: Vec<Vec<(usize, usize)>> = vec![Vec::new(); m];
        let mut rr = 0usize;
        for (i, words) in per_gpu_words.iter().enumerate() {
            for (idx, &w) in words.iter().enumerate() {
                let g = if mask & (1 << i) == 0 {
                    i
                } else {
                    rr += 1;
                    live[(rr - 1) % live.len()] // round-robin over the survivors
                };
                let slot = eff[g].len() as u32;
                eff[g].push(if indexed { pack(key_of(w), slot) } else { w });
                origin[g].push((i, idx));
            }
        }
        (eff, origin)
    }

    // ---- phases -----------------------------------------------------------

    /// Uploads each GPU's words and multisplits them by the router's
    /// fault-aware partition assignment, gating each non-empty GPU's
    /// launches on the fault plan.
    fn multisplit_phase(
        &self,
        per_gpu_words: &[Vec<u64>],
        router: &Router,
        plan: &FaultPlan,
        policy: &RetryPolicy,
        tally: &mut ChaosTally,
    ) -> Result<SplitPhase<'_>, Abort> {
        let m = self.num_gpus();
        let mut guards = Vec::new();
        let mut splits = Vec::with_capacity(m);
        let mut worst = 0.0f64;
        for (i, words) in per_gpu_words.iter().enumerate() {
            let dev = self.device(i);
            let n = words.len();
            if n > 0 {
                tally
                    .gate_launch(plan, policy, i, launch_site::MULTISPLIT)
                    .map_err(Abort::Lost)?;
            }
            // double buffer (Fig. 4: "out-of-place using one double buffer
            // per GPU") plus the aggregation counter
            let guard = dev
                .alloc_scratch(2 * n.max(1) + 1)
                .map_err(|e| Abort::Fatal(e.into()))?;
            let input = guard.slice().sub(0, n);
            let output = guard.slice().sub(n.max(1), n.max(1));
            let scratch = guard.slice().sub(2 * n.max(1), 1);
            dev.mem().h2d(input, words);
            let classifier = router.clone();
            let res = device_multisplit(dev, input, output, scratch, m, move |w| {
                classifier.route(key_of(w))
            });
            worst = worst.max(straggled(plan, i, res.stats.sim_time));
            splits.push(res);
            guards.push(guard);
        }
        let table = PartitionTable::new(splits.iter().map(|s| s.counts.clone()).collect());
        Ok(SplitPhase {
            _guards: guards,
            splits,
            table,
            time: worst,
        })
    }

    /// Moves every off-diagonal partition to its target GPU (functional
    /// movement only — the transfer itself is billed by the caller via
    /// the all-to-all model, faulted or healthy).
    #[allow(clippy::type_complexity)]
    fn transpose_move<'s>(
        &'s self,
        split: &SplitPhase<'_>,
    ) -> Result<(Vec<Vec<u64>>, Vec<ScratchGuard<'s>>), OpError> {
        let m = self.num_gpus();
        let mut recv: Vec<Vec<u64>> = vec![Vec::new(); m];
        #[allow(clippy::needless_range_loop)] // (i, j) walks the square count matrix
        for i in 0..m {
            for j in 0..m {
                let off = split.splits[i].offsets[j] as usize;
                let cnt = split.splits[i].counts[j] as usize;
                let chunk = self.device(i).mem().d2h(split.splits[i].out.sub(off, cnt));
                recv[j].extend(chunk);
            }
        }
        // land the received words in device memory on their targets
        let mut guards = Vec::with_capacity(m);
        for (j, words) in recv.iter().enumerate() {
            let guard = self.device(j).alloc_scratch(words.len().max(1))?;
            self.device(j)
                .mem()
                .h2d(guard.slice().sub(0, words.len()), words);
            guards.push(guard);
        }
        Ok((recv, guards))
    }

    // ---- the three operations ---------------------------------------------

    /// Insertion of packed pairs: multisplit → transposition → insert.
    pub(crate) fn insert_words(
        &self,
        per_gpu_words: &[Vec<u64>],
        report: &mut CascadeReport,
    ) -> Result<(), OpError> {
        self.cascade(
            &INSERT,
            per_gpu_words,
            report,
            |j, buf, n| {
                let outcome = self.maps()[j].insert_device(buf, n)?;
                Ok((outcome.stats.sim_time, Vec::new()))
            },
            |_, _, _: &()| {},
        )
    }

    /// Retrieval of [`indexed`] query words: … → query → transposition
    /// back → scatter. Queries are positional: answer `r` is the packed
    /// pair (or `EMPTY`) for received word `r`.
    pub(crate) fn query_words(
        &self,
        per_gpu_words: &[Vec<u64>],
        report: &mut CascadeReport,
    ) -> Result<Vec<Vec<Option<u32>>>, OpError> {
        let mut values: Vec<Vec<Option<u32>>> =
            per_gpu_words.iter().map(|w| vec![None; w.len()]).collect();
        self.cascade(
            &RETRIEVE,
            per_gpu_words,
            report,
            |j, input, n| {
                let dev = self.device(j);
                let out = dev.alloc_scratch(n)?;
                let stats = self.maps()[j].retrieve_device(input, out.slice(), n);
                Ok((stats.sim_time, dev.mem().d2h(out.slice())))
            },
            |(g, i), word, &found| {
                values[g][i] = (found != EMPTY).then(|| {
                    debug_assert_eq!(key_of(found), key_of(word));
                    value_of(found)
                });
            },
        )?;
        Ok(values)
    }

    /// Erasure of [`indexed`] query words: … → erase → one status byte
    /// per key back → scatter. Returns the per-key hit flags and the
    /// tombstoned count; both accumulate over restarted rounds.
    pub(crate) fn erase_words(
        &self,
        per_gpu_words: &[Vec<u64>],
        report: &mut CascadeReport,
    ) -> Result<(Vec<Vec<bool>>, u64), OpError> {
        let mut hits: Vec<Vec<bool>> = per_gpu_words.iter().map(|w| vec![false; w.len()]).collect();
        let mut erased = 0u64;
        self.cascade(
            &ERASE,
            per_gpu_words,
            report,
            |j, buf, n| {
                let out = self.maps()[j].erase_device_shared(buf, n);
                erased += out.erased;
                Ok((out.stats.sim_time, out.hits))
            },
            |(g, i), _, &hit| hits[g][i] |= hit,
        )?;
        Ok((hits, erased))
    }

    /// Device-sided insertion cascade: `per_gpu_words[i]` are packed pairs
    /// already resident on GPU `i` (the paper's in-toolchain case where
    /// PCIe is bypassed). Returns the per-phase timing report.
    ///
    /// Under an armed fault plan the cascade retries transient failures
    /// with backoff, quarantines GPUs that exhaust their budget (their
    /// input re-spreads over the survivors) and restarts; wasted attempts
    /// stay billed in the report, with backoff in its own
    /// [`CascadeStage::Backoff`] stage.
    ///
    /// # Errors
    /// Aggregated probing exhaustion across GPUs; scratch OOM;
    /// [`OpError::DeviceLost`] once no survivor remains.
    pub fn insert_device_sided(
        &self,
        per_gpu_words: &[Vec<u64>],
    ) -> Result<CascadeReport, OpError> {
        let mut report = new_report(per_gpu_words);
        self.insert_words(per_gpu_words, &mut report)?;
        Ok(report)
    }

    /// Device-sided retrieval with typed fault errors. `per_gpu_keys[i]`
    /// are the queried keys resident on GPU `i`; returns the per-GPU
    /// results *in the original per-GPU order* plus a unified
    /// [`OpReport`]. Retrieval is pure, so fault recovery restarts the
    /// whole cascade after quarantining the culprit; queries addressed to
    /// quarantined GPUs re-spread over the survivors with their origin
    /// tracked, so result order is unaffected.
    ///
    /// # Errors
    /// [`OpError`] once every failover avenue is exhausted; scratch OOM.
    pub fn try_retrieve_device_sided(
        &self,
        per_gpu_keys: &[Vec<u32>],
    ) -> Result<PerGpuGetResponse, OpError> {
        let words = indexed(per_gpu_keys);
        let mut report = new_report(&words);
        let values = self.query_words(&words, &mut report)?;
        Ok(PerGpuGetResponse {
            values,
            report: OpReport::from_cascade(&report),
        })
    }

    /// Device-sided erase with typed fault errors, returning the per-key
    /// hit flags *in the original per-GPU order* alongside the tombstoned
    /// count and a unified [`OpReport`].
    ///
    /// Takes `&mut self` — deletions require the global barrier of §IV-A
    /// on every local map, and exclusive access makes that a compile-time
    /// fact, exactly as in [`crate::GpuHashMap::try_erase`]. Hit flags survive
    /// quarantine restarts: a key tombstoned in an aborted round stays
    /// reported as a hit even though the retried round no longer observes
    /// it.
    ///
    /// # Errors
    /// [`OpError`] once every failover avenue is exhausted.
    pub fn try_erase_device_sided(
        &mut self,
        per_gpu_keys: &[Vec<u32>],
    ) -> Result<PerGpuDeleteResponse, OpError> {
        let words = indexed(per_gpu_keys);
        let mut report = new_report(&words);
        let (hits, erased) = self.erase_words(&words, &mut report)?;
        Ok(PerGpuDeleteResponse {
            hits,
            erased,
            report: OpReport::from_cascade(&report),
        })
    }
}
