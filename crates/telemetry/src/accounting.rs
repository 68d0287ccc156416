//! Stall-time and goodput accounting from the event stream.
//!
//! Reproduces the paper's two headline metrics online, without replaying a
//! simulation:
//!
//! * **Fig. 8 (checkpoint stall)** — the training thread's blocked time
//!   inside `checkpoint()` summed from `Stall` events, as a fraction of the
//!   run window and as a slowdown factor versus a stall-free run.
//! * **Fig. 9 (goodput under preemption)** — useful iterations per second
//!   given a preemption rate, using the run's measured effective iteration
//!   time and its *empirical* rollback depth: at each iteration completion,
//!   how much work would a failure right then lose? The math mirrors
//!   `pccheck-trace`'s offline `GoodputReplay` so both agree.

use crate::event::{Event, EventKind};

/// Metrics distilled from one run's event stream.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunAccounting {
    /// Run window: timestamp of the last event, nanoseconds.
    pub(crate) window_nanos: u64,
    /// Training iterations completed (`IterationEnd` events).
    pub iterations: u64,
    /// Total training-thread stall, nanoseconds (`Stall` events).
    pub(crate) stall_nanos: u64,
    /// Committed checkpoints.
    pub committed: u64,
    /// Superseded checkpoints.
    pub superseded: u64,
    /// Failed checkpoints.
    pub failed: u64,
    /// Mean iterations lost if a failure struck at a uniformly random
    /// iteration boundary (the empirical rollback depth).
    pub(crate) avg_rollback_depth: f64,
}

/// A goodput estimate under a failure scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GoodputEstimate {
    /// Useful iterations per second over the window.
    pub goodput: f64,
    /// Measured failure-free throughput (iterations/second).
    pub failure_free_throughput: f64,
    /// Rollbacks assumed by the scenario.
    pub rollbacks: u64,
    /// Mean iterations recomputed per rollback.
    pub avg_lost_iterations: f64,
    /// Total recovery time (loads + recomputation), seconds.
    pub(crate) total_recovery_secs: f64,
}

impl RunAccounting {
    /// Distills accounting from an event stream.
    ///
    /// Events may arrive in any order; they are scanned by timestamp so the
    /// commit log and iteration completions interleave correctly.
    pub fn from_events(events: &[Event]) -> Self {
        let mut ordered: Vec<&Event> = events.iter().collect();
        ordered.sort_by_key(|e| e.at_nanos);

        let mut acc = RunAccounting::default();
        let mut best_committed: u64 = 0;
        let mut total_lost: u64 = 0;
        for event in ordered {
            acc.window_nanos = acc.window_nanos.max(event.at_nanos);
            match &event.kind {
                EventKind::Stall { nanos } => acc.stall_nanos += nanos,
                EventKind::Committed { iteration, .. } => {
                    acc.committed += 1;
                    best_committed = best_committed.max(*iteration);
                }
                EventKind::Superseded { .. } => acc.superseded += 1,
                EventKind::Failed { .. } => acc.failed += 1,
                EventKind::IterationEnd { iteration } => {
                    acc.iterations += 1;
                    total_lost += iteration.saturating_sub(best_committed);
                }
                _ => {}
            }
        }
        if acc.iterations > 0 {
            acc.avg_rollback_depth = total_lost as f64 / acc.iterations as f64;
        }
        acc
    }

    /// Run window in seconds.
    pub fn window_secs(&self) -> f64 {
        self.window_nanos as f64 / 1e9
    }

    /// Effective throughput including checkpoint overhead, iterations/sec.
    pub fn throughput(&self) -> f64 {
        let w = self.window_secs();
        if w <= 0.0 {
            0.0
        } else {
            self.iterations as f64 / w
        }
    }

    /// Fraction of the window the training thread spent stalled (Fig. 8).
    pub fn stall_fraction(&self) -> f64 {
        if self.window_nanos == 0 {
            return 0.0;
        }
        (self.stall_nanos as f64 / self.window_nanos as f64).min(1.0)
    }

    /// Slowdown factor versus a stall-free run: `window / (window - stall)`
    /// (1.0 = zero overhead; capped when stall consumes the whole window).
    pub fn slowdown(&self) -> f64 {
        let useful = self.window_nanos.saturating_sub(self.stall_nanos);
        if useful == 0 {
            return f64::INFINITY;
        }
        self.window_nanos as f64 / useful as f64
    }

    /// Estimated goodput if the run's window had seen `rollbacks` failures,
    /// each paying `load_time_secs` plus recomputation of the empirical
    /// rollback depth (Fig. 9, same formula as the offline replay).
    ///
    /// Returns `None` when the run made no progress (zero throughput).
    pub fn goodput(&self, rollbacks: u64, load_time_secs: f64) -> Option<GoodputEstimate> {
        let throughput = self.throughput();
        if throughput <= 0.0 {
            return None;
        }
        let t_eff = 1.0 / throughput;
        let window = self.window_secs();
        let recovery_per_failure = load_time_secs + self.avg_rollback_depth * t_eff;
        let total_recovery = (rollbacks as f64 * recovery_per_failure).min(window);
        let progress = window - total_recovery;
        Some(GoodputEstimate {
            goodput: (progress / t_eff / window).max(0.0),
            failure_free_throughput: throughput,
            rollbacks,
            avg_lost_iterations: self.avg_rollback_depth,
            total_recovery_secs: total_recovery,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SpanId;

    fn at(secs: f64, kind: EventKind) -> Event {
        Event {
            span: SpanId::NONE,
            at_nanos: (secs * 1e9) as u64,
            kind,
        }
    }

    /// Mirrors `pccheck-trace`'s hand example: iterations complete at
    /// t = 1..4 s; a commit for iteration 2 lands at t = 2.5 s. Lost work
    /// at each boundary is 1, 2, 1, 2 → mean rollback depth 1.5.
    #[test]
    fn rollback_depth_matches_offline_replay_example() {
        let mut events = vec![
            at(1.0, EventKind::IterationEnd { iteration: 1 }),
            at(2.0, EventKind::IterationEnd { iteration: 2 }),
            at(
                2.5,
                EventKind::Committed {
                    iteration: 2,
                    bytes: 0,
                },
            ),
            at(3.0, EventKind::IterationEnd { iteration: 3 }),
            at(4.0, EventKind::IterationEnd { iteration: 4 }),
        ];
        // Shuffle: from_events must sort by timestamp itself.
        events.swap(0, 3);
        let acc = RunAccounting::from_events(&events);
        assert_eq!(acc.iterations, 4);
        assert_eq!(acc.committed, 1);
        assert!((acc.avg_rollback_depth - 1.5).abs() < 1e-9);
        assert!((acc.throughput() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn stall_accumulates_and_bounds_slowdown() {
        let events = vec![
            at(0.5, EventKind::Stall { nanos: 100_000_000 }),
            at(1.0, EventKind::Stall { nanos: 150_000_000 }),
            at(2.0, EventKind::IterationEnd { iteration: 1 }),
        ];
        let acc = RunAccounting::from_events(&events);
        assert_eq!(acc.stall_nanos, 250_000_000);
        assert!((acc.stall_fraction() - 0.125).abs() < 1e-9);
        // 2s window, 0.25s stalled → 2 / 1.75.
        assert!((acc.slowdown() - 2.0 / 1.75).abs() < 1e-9);
    }

    #[test]
    fn zero_rollbacks_goodput_equals_throughput() {
        let events = vec![
            at(1.0, EventKind::IterationEnd { iteration: 1 }),
            at(2.0, EventKind::IterationEnd { iteration: 2 }),
        ];
        let acc = RunAccounting::from_events(&events);
        let g = acc.goodput(0, 10.0).unwrap();
        assert!((g.goodput - acc.throughput()).abs() < 1e-9);
        assert_eq!(g.total_recovery_secs, 0.0);
    }

    #[test]
    fn dense_failures_clamp_goodput_at_zero() {
        let events = vec![at(10.0, EventKind::IterationEnd { iteration: 1 })];
        let acc = RunAccounting::from_events(&events);
        let g = acc.goodput(1000, 60.0).unwrap();
        assert_eq!(g.goodput, 0.0);
        assert!((g.total_recovery_secs - acc.window_secs()).abs() < 1e-9);
    }

    #[test]
    fn empty_stream_is_all_zeroes() {
        let acc = RunAccounting::from_events(&[]);
        assert_eq!(acc, RunAccounting::default());
        assert_eq!(acc.throughput(), 0.0);
        assert_eq!(acc.stall_fraction(), 0.0);
        assert!(acc.goodput(1, 1.0).is_none());
    }

    #[test]
    fn terminal_counts_tally() {
        let events = vec![
            at(
                1.0,
                EventKind::Committed {
                    iteration: 1,
                    bytes: 8,
                },
            ),
            at(2.0, EventKind::Superseded { by_counter: 2 }),
            at(3.0, EventKind::Failed { error: "io".into() }),
        ];
        let acc = RunAccounting::from_events(&events);
        assert_eq!((acc.committed, acc.superseded, acc.failed), (1, 1, 1));
    }
}
