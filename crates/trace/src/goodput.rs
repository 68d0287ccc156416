//! Goodput accounting (§5.2.3).
//!
//! Goodput is useful throughput: batches per second over the whole window,
//! discounting batches that are re-computations of work lost to a rollback.
//! Replaying a preemption trace against a simulated training run:
//!
//! * the run's *effective* iteration time (including checkpoint overhead)
//!   comes from the simulation's measured throughput,
//! * each (coalesced) preemption rolls back to the latest durable
//!   checkpoint; the average rollback depth is measured empirically from
//!   the simulation's commit log,
//! * recovery additionally pays the checkpoint load time `l`.
//!
//! The formula and the rollback-depth walk are `pccheck_util::goodput`'s,
//! which the online `RunAccounting` shares.

use pccheck_sim::SimReport;
use pccheck_util::goodput::{goodput, mean_rollback_depth, Mark};
use pccheck_util::SimDuration;

use crate::preemption::PreemptionTrace;

/// Bulk preemptions within this gap cause a single rollback.
pub(crate) const BULK_COALESCE_GAP: SimDuration = SimDuration::from_secs(60);

/// Goodput replay configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GoodputReplay {
    /// Time to load a checkpoint back into the GPU(s) after a failure.
    pub load_time: SimDuration,
}

/// Result of a goodput replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GoodputResult {
    /// Useful iterations per second over the window.
    pub goodput: f64,
    /// Training throughput without failures (iterations/second).
    pub failure_free_throughput: f64,
    /// Number of rollbacks (coalesced preemptions).
    pub rollbacks: usize,
    /// Average iterations lost per rollback.
    pub avg_lost_iterations: f64,
    /// Total time spent recovering (loads + recomputation).
    pub total_recovery: SimDuration,
}

impl GoodputReplay {
    /// Creates a replay with the given checkpoint load time.
    pub fn new(load_time: SimDuration) -> Self {
        GoodputReplay { load_time }
    }

    /// Replays `trace` against a simulated run.
    ///
    /// # Panics
    ///
    /// Panics if the report has zero throughput.
    pub fn replay(&self, report: &SimReport, trace: &PreemptionTrace) -> GoodputResult {
        assert!(report.throughput > 0.0, "report has zero throughput");
        let t_eff = 1.0 / report.throughput; // seconds per iteration
        let avg_lost = Self::average_rollback_depth(report);
        let rollbacks = trace.coalesced(BULK_COALESCE_GAP).len();
        let (goodput, total_recovery) = goodput(
            trace.window().as_secs_f64(),
            t_eff,
            rollbacks as u64,
            self.load_time.as_secs_f64(),
            avg_lost,
        );
        GoodputResult {
            goodput,
            failure_free_throughput: report.throughput,
            rollbacks,
            avg_lost_iterations: avg_lost,
            total_recovery: SimDuration::from_secs_f64(total_recovery),
        }
    }

    /// The ideal baseline: checkpoints at every `interval` iterations with
    /// zero overhead and instant durability; a failure loses on average
    /// half an interval.
    pub fn ideal(
        &self,
        iter_time: SimDuration,
        interval: u64,
        trace: &PreemptionTrace,
    ) -> GoodputResult {
        let t = iter_time.as_secs_f64();
        let avg_lost = interval as f64 / 2.0;
        let rollbacks = trace.coalesced(BULK_COALESCE_GAP).len();
        let (goodput, total_recovery) = goodput(
            trace.window().as_secs_f64(),
            t,
            rollbacks as u64,
            self.load_time.as_secs_f64(),
            avg_lost,
        );
        GoodputResult {
            goodput,
            failure_free_throughput: 1.0 / t,
            rollbacks,
            avg_lost_iterations: avg_lost,
            total_recovery: SimDuration::from_secs_f64(total_recovery),
        }
    }

    /// Measures the mean rollback depth of a run: at each iteration
    /// completion, how many iterations would be lost if the failure struck
    /// right then?
    fn average_rollback_depth(report: &SimReport) -> f64 {
        // Interleave iteration completions and the commit log: a commit
        // counts for every completion at or after its time.
        let mut commits = report.commits.iter().peekable();
        let mut timeline = Vec::with_capacity(report.iteration_times.len() + report.commits.len());
        for (i, &t) in report.iteration_times.iter().enumerate() {
            while let Some(commit) = commits.next_if(|c| c.time <= t) {
                timeline.push(Mark::Commit(commit.iteration));
            }
            timeline.push(Mark::Boundary((i + 1) as u64));
        }
        mean_rollback_depth(timeline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pccheck_gpu::ModelZoo;
    use pccheck_sim::{SimConfig, StrategyCfg};
    use pccheck_util::SimTime;

    fn trace() -> PreemptionTrace {
        PreemptionTrace::synthetic_gcp_a100(1)
    }

    fn replay() -> GoodputReplay {
        GoodputReplay::new(SimDuration::from_secs(10))
    }

    #[test]
    fn no_failures_means_goodput_equals_throughput() {
        let report = SimConfig::ssd_a100(&ModelZoo::vgg16(), 10, 200)
            .with_strategy(StrategyCfg::pccheck(2, 3))
            .run();
        let empty = PreemptionTrace::from_events(SimDuration::from_secs(3600), vec![]);
        let g = replay().replay(&report, &empty);
        assert_eq!(g.rollbacks, 0);
        assert!((g.goodput - report.throughput).abs() < 1e-9);
    }

    #[test]
    fn failures_reduce_goodput() {
        let report = SimConfig::ssd_a100(&ModelZoo::vgg16(), 10, 200)
            .with_strategy(StrategyCfg::pccheck(2, 3))
            .run();
        let g = replay().replay(&report, &trace());
        assert!(g.goodput < report.throughput);
        assert!(g.rollbacks > 50);
        assert!(g.avg_lost_iterations > 0.0);
    }

    #[test]
    fn frequent_checkpointing_loses_less_work() {
        let frequent = SimConfig::ssd_a100(&ModelZoo::vgg16(), 10, 400)
            .with_strategy(StrategyCfg::pccheck(2, 3))
            .run();
        let rare = SimConfig::ssd_a100(&ModelZoo::vgg16(), 100, 400)
            .with_strategy(StrategyCfg::pccheck(2, 3))
            .run();
        let lost_frequent = GoodputReplay::average_rollback_depth(&frequent);
        let lost_rare = GoodputReplay::average_rollback_depth(&rare);
        assert!(
            lost_frequent < lost_rare,
            "frequent {lost_frequent} vs rare {lost_rare}"
        );
    }

    #[test]
    fn ideal_dominates_real_strategies() {
        let cfg = SimConfig::ssd_a100(&ModelZoo::vgg16(), 10, 300);
        let pc = cfg.clone().with_strategy(StrategyCfg::pccheck(2, 3)).run();
        let g_pc = replay().replay(&pc, &trace());
        let g_ideal = replay().ideal(
            ModelZoo::vgg16().iter_time(pccheck_gpu::GpuKind::A100),
            10,
            &trace(),
        );
        assert!(g_ideal.goodput >= g_pc.goodput * 0.999);
    }

    #[test]
    fn goodput_is_never_negative() {
        // Absurdly slow strategy + many failures: goodput clamps at 0.
        let report = SimConfig::ssd_a100(&ModelZoo::opt_1_3b(), 1, 30)
            .with_strategy(StrategyCfg::Traditional)
            .run();
        let dense = PreemptionTrace::synthetic(1, SimDuration::from_secs(16 * 3600), 200.0, 0.0);
        let g = replay().replay(&report, &dense);
        assert!(g.goodput >= 0.0);
        assert!(g.total_recovery <= SimDuration::from_secs(16 * 3600));
    }

    #[test]
    fn rollback_depth_matches_hand_example() {
        use pccheck_sim::report::CommitRecord;
        // Iterations complete at t=1..4; a commit for iter 2 lands at t=2.5.
        let report = SimReport {
            strategy: "x".into(),
            label: "w".into(),
            iterations: 4,
            elapsed: SimDuration::from_secs(4),
            throughput: 1.0,
            stall_time: SimDuration::ZERO,
            commits: vec![CommitRecord {
                time: SimTime::from_secs_f64(2.5),
                iteration: 2,
            }],
            mean_write_time: SimDuration::ZERO,
            iteration_times: (1..=4).map(|s| SimTime::from_secs_f64(s as f64)).collect(),
        };
        // Lost at t=1: 1; t=2: 2; t=3: 1; t=4: 2 → mean 1.5.
        let d = GoodputReplay::average_rollback_depth(&report);
        assert!((d - 1.5).abs() < 1e-9);
    }
}
