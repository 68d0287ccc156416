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
    fn slowdown_is_relative_throughput() {
        let base = report();
        let mut slow = report();
        slow.throughput = 0.5;
        assert_eq!(slow.slowdown_vs(&base), 2.0);
    }
}
