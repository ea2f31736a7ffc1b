//! Deterministic scheduler for the asynchronous overlapping cascades.
//!
//! Fig. 5 of the paper: a batch traverses H2D → MST → INS sequentially,
//! but the *stages of different batches* overlap because they occupy
//! different hardware resources (PCIe bus, NVLink fabric, video memory).
//! The host issues batches round-robin over a user-chosen number of CPU
//! threads; within a thread (a CUDA stream, effectively) batches are
//! strictly in order.
//!
//! The schedule is computed on simulated resource horizons: a stage
//! starts when its predecessor in the batch is done, its stream has
//! finished the previous batch, and its resource is free. For one
//! thread this degenerates to the fully sequential cascade (`Ins1`/`Ret1`
//! in Fig. 11); for 2–4 threads it reproduces the 36%/45% makespan
//! reductions.

use std::ops::Range;

/// One stage of a batch cascade: occupy `resource` for `duration`
/// simulated seconds.
#[derive(Debug, Clone, Copy)]
pub struct Stage {
    /// Index into the pipeline's resource table.
    pub resource: usize,
    /// Stage duration in simulated seconds.
    pub duration: f64,
}

/// Report of a scheduled pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Total makespan (end of the last stage).
    pub makespan: f64,
    /// Accumulated busy time per resource, indexed like the resource
    /// table — the bars of the Fig. 11 decomposition.
    pub busy: Vec<f64>,
    /// Per-batch completion times.
    pub batch_done: Vec<f64>,
}

impl PipelineReport {
    /// Fraction of the makespan during which `resource` was busy.
    /// Out-of-range indices report 0.0 — callers iterate fixed resource
    /// tables over reports from pipelines of any width (a quarantined
    /// node may re-plan with fewer resources), and "never busy" is the
    /// honest answer for a resource the run did not have.
    #[must_use]
    pub fn utilization(&self, resource: usize) -> f64 {
        if self.makespan == 0.0 {
            0.0
        } else {
            self.busy.get(resource).map_or(0.0, |b| b / self.makespan)
        }
    }
}

/// A pipeline over `num_resources` serial resources.
#[derive(Debug)]
pub struct PipelineSim {
    num_resources: usize,
}

impl PipelineSim {
    /// Creates a pipeline with `num_resources` independent resources.
    #[must_use]
    pub fn new(num_resources: usize) -> Self {
        Self { num_resources }
    }

    /// Schedules `batches` — each a run of `stages`, a cascade in order —
    /// over `threads` round-robin streams and returns the resulting timing
    /// report. Every run starts from idle resources.
    ///
    /// # Panics
    /// As [`Self::run_in`].
    #[must_use]
    pub fn run(
        &self,
        stages: &[Stage],
        batches: &[Range<usize>],
        threads: usize,
    ) -> PipelineReport {
        let mut state = vec![(0, None); batches.len()];
        let mut resources = vec![(0.0, 0.0); self.num_resources];
        let mut batch_done = vec![0.0f64; batches.len()];
        let done = |b, t| batch_done[b] = t;
        let makespan = Self::run_in(stages, batches, threads, &mut state, &mut resources, done);
        PipelineReport {
            makespan,
            busy: resources.iter().map(|r| r.1).collect(),
            batch_done,
        }
    }

    /// [`Self::run`] in scratch its caller holds, so that a caller that
    /// schedules again and again allocates nothing: `state` has a slot per
    /// batch (its next stage, and when that is ready — none while its
    /// stream runs an earlier batch, and once it is done), `resources` one
    /// per resource (its busy horizon, and its busy time, which the run
    /// leaves there). Tells `done` each batch and when it completed, and
    /// returns the makespan.
    ///
    /// List scheduling with earliest start time: among all stages whose
    /// predecessors are done (previous stage of the batch, and — for a
    /// batch's *first* stage — the completion of the stream's previous
    /// batch), the one that can start earliest is dispatched next, the
    /// lowest batch on a tie. This lets a later batch's transfer backfill
    /// a resource while an earlier batch computes, as CUDA streams do.
    ///
    /// # Panics
    /// Panics if `threads == 0`, `state` holds fewer slots than there are
    /// batches, a batch lies outside `stages`, a stage names an unknown
    /// resource or lasts a negative time.
    pub fn run_in(
        stages: &[Stage],
        batches: &[Range<usize>],
        threads: usize,
        state: &mut [(usize, Option<f64>)],
        resources: &mut [(f64, f64)],
        mut done: impl FnMut(usize, f64),
    ) -> f64 {
        assert!(threads > 0, "need at least one pipeline thread");
        let n = batches.len();
        // a batch is eligible once its stream predecessor completed
        let state = &mut state[..n];
        for (b, (slot, batch)) in state.iter_mut().zip(batches).enumerate() {
            *slot = (batch.start, (b < threads).then_some(0.0));
        }
        resources.fill((0.0, 0.0));
        let mut remaining: usize = batches.iter().map(ExactSizeIterator::len).sum();
        let mut makespan = 0.0f64;
        let mut finished = 0usize;
        while finished < n {
            // complete stage-less batches instantly (they still gate
            // their stream successor)
            for b in 0..n {
                if let (next, Some(r)) = state[b] {
                    if next >= batches[b].end {
                        done(b, r);
                        makespan = makespan.max(r);
                        state[b].1 = None;
                        finished += 1;
                        if b + threads < n {
                            state[b + threads].1 = Some(r);
                        }
                    }
                }
            }
            if remaining == 0 {
                continue; // only empty batches left to drain
            }
            // pick the eligible stage with the earliest feasible start
            let mut best: Option<(usize, f64)> = None;
            for (b, &(next, ready)) in state.iter().enumerate() {
                let Some(r) = ready else { continue };
                if next >= batches[b].end {
                    continue;
                }
                let est = r.max(resources[stages[next].resource].0);
                if best.is_none_or(|(_, t)| est < t) {
                    best = Some((b, est));
                }
            }
            let (b, _) = best.expect("remaining > 0 implies an eligible stage");
            let (next, ready) = state[b];
            let stage = stages[next];
            assert!(stage.duration >= 0.0, "negative duration");
            let (horizon, busy) = &mut resources[stage.resource];
            let start = horizon.max(ready.expect("eligible"));
            let end = start + stage.duration;
            *horizon = end;
            *busy += end - start;
            remaining -= 1;
            if next + 1 == batches[b].end {
                done(b, end);
                makespan = makespan.max(end);
                state[b] = (next + 1, None);
                finished += 1;
                if b + threads < n {
                    state[b + threads].1 = Some(end); // unblock the stream
                }
            } else {
                state[b] = (next + 1, Some(end));
            }
        }
        makespan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`PipelineSim::run`] of batches given one list each.
    pub(super) fn run(sim: &PipelineSim, batches: &[Vec<Stage>], threads: usize) -> PipelineReport {
        let stages: Vec<Stage> = batches.concat();
        let mut at = 0;
        let runs: Vec<Range<usize>> = batches
            .iter()
            .map(|batch| {
                at += batch.len();
                at - batch.len()..at
            })
            .collect();
        sim.run(&stages, &runs, threads)
    }

    /// Three-stage cascade over three resources, like H2D → MST → INS.
    fn cascade(d: [f64; 3]) -> Vec<Stage> {
        vec![
            Stage {
                resource: 0,
                duration: d[0],
            },
            Stage {
                resource: 1,
                duration: d[1],
            },
            Stage {
                resource: 2,
                duration: d[2],
            },
        ]
    }

    #[test]
    fn single_thread_is_fully_sequential() {
        let sim = PipelineSim::new(3);
        let batches = vec![cascade([1.0, 1.0, 1.0]); 4];
        let rep = run(&sim, &batches, 1);
        assert!((rep.makespan - 12.0).abs() < 1e-12);
    }

    #[test]
    fn two_threads_overlap_like_fig5() {
        let sim = PipelineSim::new(3);
        let batches = vec![cascade([1.0, 1.0, 1.0]); 4];
        let rep = run(&sim, &batches, 2);
        // each stream completes a 3-stage batch, then starts its next:
        // stream 0 finishes batches 0 and 2 at t=3, 6; stream 1 finishes
        // batches 1 and 3 at t=4, 7 → makespan 7 < 12 sequential
        assert!(rep.makespan < 12.0 * 0.7, "makespan {}", rep.makespan);
        assert!(
            (rep.makespan - 7.0).abs() < 1e-9,
            "makespan {}",
            rep.makespan
        );
    }

    #[test]
    fn overlap_saves_match_paper_range() {
        // H2D comparable to MST+INS (the paper's "realistic assumption"
        // in §IV-B) → overlapped variant approaches half the sequential
        // time; the paper reports 36–45% reductions
        let sim_seq = PipelineSim::new(3);
        let sim_ovl = PipelineSim::new(3);
        let batches = vec![cascade([2.0, 0.5, 1.5]); 16];
        let seq = run(&sim_seq, &batches, 1).makespan;
        let ovl = run(&sim_ovl, &batches, 4).makespan;
        let saving = 1.0 - ovl / seq;
        assert!(
            (0.30..0.55).contains(&saving),
            "saving {saving:.2} (seq {seq}, ovl {ovl})"
        );
    }

    #[test]
    fn busy_time_accounts_every_stage() {
        let sim = PipelineSim::new(3);
        let batches = vec![cascade([1.0, 2.0, 3.0]); 5];
        let rep = run(&sim, &batches, 2);
        assert!((rep.busy[0] - 5.0).abs() < 1e-12);
        assert!((rep.busy[1] - 10.0).abs() < 1e-12);
        assert!((rep.busy[2] - 15.0).abs() < 1e-12);
        // the slowest resource should be the utilization bottleneck
        assert!(rep.utilization(2) > rep.utilization(0));
    }

    #[test]
    fn batch_completion_monotone_per_stream() {
        let sim = PipelineSim::new(2);
        let batches: Vec<_> = (0..6)
            .map(|_| {
                vec![
                    Stage {
                        resource: 0,
                        duration: 1.0,
                    },
                    Stage {
                        resource: 1,
                        duration: 1.0,
                    },
                ]
            })
            .collect();
        let rep = run(&sim, &batches, 3);
        for stream in 0..3 {
            let times: Vec<f64> = (stream..6).step_by(3).map(|b| rep.batch_done[b]).collect();
            assert!(times.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn empty_pipeline_reports_zero() {
        let sim = PipelineSim::new(1);
        let rep = run(&sim, &[], 2);
        assert_eq!(rep.makespan, 0.0);
        assert_eq!(rep.utilization(0), 0.0);
    }

    #[test]
    fn out_of_range_utilization_is_zero_not_panic() {
        let sim = PipelineSim::new(2);
        let batches = vec![vec![Stage {
            resource: 0,
            duration: 1.0,
        }]];
        let rep = run(&sim, &batches, 1);
        assert!(rep.utilization(0) > 0.0);
        assert_eq!(rep.utilization(1), 0.0); // in range, never busy
        assert_eq!(rep.utilization(2), 0.0); // out of range: no panic
        assert_eq!(rep.utilization(usize::MAX), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one pipeline thread")]
    fn zero_threads_rejected() {
        let sim = PipelineSim::new(1);
        let _ = run(&sim, &[], 0);
    }
}

#[cfg(test)]
mod backfill_tests {
    use super::tests::run;
    use super::*;

    /// The list scheduler must backfill: while batch 0 computes, batch 1's
    /// transfer (a different resource) runs — even though batch 0's later
    /// stages were submitted first.
    #[test]
    fn later_batch_backfills_idle_resources() {
        let sim = PipelineSim::new(2);
        // batch 0: short transfer, long compute; batch 1: long transfer
        let batches = vec![
            vec![
                Stage {
                    resource: 0,
                    duration: 1.0,
                },
                Stage {
                    resource: 1,
                    duration: 10.0,
                },
            ],
            vec![
                Stage {
                    resource: 0,
                    duration: 9.0,
                },
                Stage {
                    resource: 1,
                    duration: 1.0,
                },
            ],
        ];
        let rep = run(&sim, &batches, 2);
        // without backfill batch 1's transfer would wait for batch 0's
        // compute; with it, transfer [1,10] hides under compute [1,11]
        assert!(
            (rep.makespan - 12.0).abs() < 1e-9,
            "makespan {}",
            rep.makespan
        );
        assert!((rep.batch_done[0] - 11.0).abs() < 1e-9);
        assert!((rep.batch_done[1] - 12.0).abs() < 1e-9);
    }

    /// Streams with empty batches still gate their successors correctly.
    #[test]
    fn empty_batches_gate_streams() {
        let sim = PipelineSim::new(1);
        let batches = vec![
            vec![Stage {
                resource: 0,
                duration: 2.0,
            }],
            vec![], // stream 1, empty
            vec![Stage {
                resource: 0,
                duration: 3.0,
            }], // stream 0, after batch 0
            vec![Stage {
                resource: 0,
                duration: 1.0,
            }], // stream 1, after empty
        ];
        let rep = run(&sim, &batches, 2);
        assert_eq!(rep.batch_done[1], 0.0);
        // all three real stages share one resource: total busy 6
        assert!((rep.busy[0] - 6.0).abs() < 1e-9);
        assert!(rep.makespan >= 6.0);
    }
}
