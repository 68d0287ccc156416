//! Simulation results.

use pccheck_util::{SimDuration, SimTime};

/// One committed checkpoint in the simulated run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitRecord {
    /// Virtual time the checkpoint became durable.
    pub time: SimTime,
    /// The training iteration it captured.
    pub iteration: u64,
}

/// Results of a simulated training run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Strategy name.
    pub strategy: String,
    /// Workload label.
    pub label: String,
    /// Iterations executed.
    pub iterations: u64,
    /// Virtual elapsed time.
    pub elapsed: SimDuration,
    /// Iterations per (virtual) second.
    pub throughput: f64,
    /// Total time the training actor spent blocked on checkpointing
    /// (admission stalls + inline persists + update/copy conflicts).
    pub stall_time: SimDuration,
    /// Commit log, in commit order.
    pub commits: Vec<CommitRecord>,
    /// Mean end-to-end write time of a checkpoint (start of snapshot to
    /// durable), i.e. the paper's `Tw` under real contention.
    pub mean_write_time: SimDuration,
    /// Completion times of each iteration (for goodput replay).
    pub iteration_times: Vec<SimTime>,
}

impl SimReport {
    /// Slowdown of this run relative to `baseline` (≥ 1 when checkpointing
    /// costs anything).
    pub fn slowdown_vs(&self, baseline: &SimReport) -> f64 {
        baseline.throughput / self.throughput
    }

    /// The latest iteration committed no later than `t` (what a failure at
    /// `t` can recover to).
    pub fn latest_commit_at(&self, t: SimTime) -> Option<CommitRecord> {
        self.commits
            .iter()
            .filter(|c| c.time <= t)
            .max_by_key(|c| c.iteration)
            .copied()
    }

    /// The number of iterations finished no later than `t`.
    pub fn iterations_done_at(&self, t: SimTime) -> u64 {
        self.iteration_times.partition_point(|&it| it <= t) as u64
    }

    /// Mean interval (iterations) between consecutive commits.
    pub fn mean_commit_interval(&self) -> f64 {
        if self.commits.len() < 2 {
            return self.iterations as f64;
        }
        let first = self.commits.first().expect("len>=2").iteration;
        let last = self.commits.last().expect("len>=2").iteration;
        (last - first) as f64 / (self.commits.len() - 1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SimReport {
        SimReport {
            strategy: "test".into(),
            label: "w".into(),
            iterations: 4,
            elapsed: SimDuration::from_secs(4),
            throughput: 1.0,
            stall_time: SimDuration::ZERO,
            commits: vec![
                CommitRecord {
                    time: SimTime::from_secs_f64(1.5),
                    iteration: 1,
                },
                CommitRecord {
                    time: SimTime::from_secs_f64(3.5),
                    iteration: 3,
                },
            ],
            mean_write_time: SimDuration::from_millis(500),
            iteration_times: vec![
                SimTime::from_secs_f64(1.0),
                SimTime::from_secs_f64(2.0),
                SimTime::from_secs_f64(3.0),
                SimTime::from_secs_f64(4.0),
            ],
        }
    }

    #[test]
    fn latest_commit_at_respects_time() {
        let r = report();
        assert_eq!(r.latest_commit_at(SimTime::from_secs_f64(1.0)), None);
        assert_eq!(
            r.latest_commit_at(SimTime::from_secs_f64(2.0))
                .unwrap()
                .iteration,
            1
        );
        assert_eq!(
            r.latest_commit_at(SimTime::from_secs_f64(10.0))
                .unwrap()
                .iteration,
            3
        );
    }

    #[test]
    fn iterations_done_counts_completed() {
        let r = report();
        assert_eq!(r.iterations_done_at(SimTime::from_secs_f64(0.5)), 0);
        assert_eq!(r.iterations_done_at(SimTime::from_secs_f64(2.0)), 2);
        assert_eq!(r.iterations_done_at(SimTime::from_secs_f64(99.0)), 4);
    }

    #[test]
    fn slowdown_and_commit_interval() {
        let base = report();
        let mut slow = report();
        slow.throughput = 0.5;
        assert_eq!(slow.slowdown_vs(&base), 2.0);
        assert_eq!(base.mean_commit_interval(), 2.0);
    }
}
