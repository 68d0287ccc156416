//! Goodput accounting (§5.2.3), for the offline trace replays
//! (`pccheck-trace`) and the online event-stream accounting
//! (`pccheck-telemetry`) alike.
//!
//! Goodput is useful throughput: iterations per second over a window,
//! discounting the time spent reloading checkpoints and recomputing work a
//! rollback lost. How much work a failure loses is a run's *empirical
//! rollback depth*: at each iteration boundary, how many iterations lie
//! past the newest checkpoint committed by then?

/// Goodput over a window of `window_secs` at `secs_per_iter` per
/// iteration, when each of `rollbacks` failures reloads a checkpoint for
/// `load_secs` and recomputes `lost_iterations` iterations.
///
/// Returns the goodput (iterations/second, never below 0) and the total
/// recovery time counted against the window (seconds, at most the window).
pub fn goodput(
    window_secs: f64,
    secs_per_iter: f64,
    rollbacks: u64,
    load_secs: f64,
    lost_iterations: f64,
) -> (f64, f64) {
    let recovery_per_failure = load_secs + lost_iterations * secs_per_iter;
    let total_recovery = (rollbacks as f64 * recovery_per_failure).min(window_secs);
    let progress = window_secs - total_recovery;
    (
        (progress / secs_per_iter / window_secs).max(0.0),
        total_recovery,
    )
}

/// One point of a run's timeline, in time order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mark {
    /// An iteration boundary: this many iterations are done.
    Boundary(u64),
    /// A checkpoint of this iteration committed.
    Commit(u64),
}

/// The mean rollback depth over a timeline: at each [`Mark::Boundary`],
/// the iterations done past the newest [`Mark::Commit`] before it,
/// averaged over the boundaries (0 when there are none).
pub fn mean_rollback_depth(timeline: impl IntoIterator<Item = Mark>) -> f64 {
    let mut best_committed = 0u64;
    let mut total_lost = 0u64;
    let mut boundaries = 0u64;
    for mark in timeline {
        match mark {
            Mark::Commit(iteration) => best_committed = best_committed.max(iteration),
            Mark::Boundary(done) => {
                total_lost += done.saturating_sub(best_committed);
                boundaries += 1;
            }
        }
    }
    if boundaries == 0 {
        0.0
    } else {
        total_lost as f64 / boundaries as f64
    }
}
