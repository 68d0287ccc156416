//! Just-in-time (JIT) checkpointing, analytically replayed against a
//! preemption trace.
//!
//! Gupta et al. (EuroSys'24, discussed in §2.2 of the PCcheck paper)
//! checkpoint *only when a failure is detected*: healthy workers hold a
//! replica of the failed worker's state, and the preemption grace period
//! (30 s on GCP/Azure, 2 min on AWS) is used to persist it. During normal
//! training the overhead is zero — strictly better than any periodic
//! scheme — **if** the save always succeeds. The PCcheck paper's counter-
//! argument, which this module quantifies: on preemptible VMs, *bulky*
//! revocations take out replicas together, and large states do not fit the
//! grace window, so JIT falls back to whatever older state happens to be
//! durable.
//!
//! [`JitReplay`] walks the trace: a non-bulky preemption whose shard fits
//! the grace window advances the durable frontier to the failure instant
//! (losing nothing but the reload); a bulky one, or a shard too large for
//! the grace period, rolls back to the last durable frontier.

use pccheck_util::{Bandwidth, ByteSize, SimDuration, SimTime};

use crate::goodput::{GoodputResult, BULK_COALESCE_GAP};
use crate::preemption::PreemptionTrace;

/// Configuration of a JIT replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JitReplay {
    /// Per-node state size to persist within the grace window.
    pub shard_size: ByteSize,
    /// Bandwidth available for the emergency save (storage or network).
    pub save_bandwidth: Bandwidth,
    /// The provider's preemption grace period.
    pub grace: SimDuration,
    /// Time to load state back after recovery.
    pub load_time: SimDuration,
    /// Iteration time (JIT adds no overhead, so this is the ideal rate).
    pub iter_time: SimDuration,
}

impl JitReplay {
    /// GCP/Azure-style 30-second grace window.
    pub const GCP_GRACE: SimDuration = SimDuration::from_secs(30);

    /// Whether one emergency save fits the grace window.
    pub(crate) fn save_fits(&self) -> bool {
        self.save_bandwidth.transfer_time(self.shard_size) <= self.grace
    }

    /// Replays `trace` and returns goodput accounting.
    ///
    /// # Panics
    ///
    /// Panics if the iteration time is zero.
    pub fn replay(&self, trace: &PreemptionTrace) -> GoodputResult {
        assert!(!self.iter_time.is_zero(), "iteration time must be nonzero");
        let t = self.iter_time.as_secs_f64();
        let events = trace.coalesced_with_bulk_flag(BULK_COALESCE_GAP);
        let window = trace.window().as_secs_f64();

        let mut durable_frontier = SimTime::ZERO;
        let mut lost_secs = 0.0f64;
        let mut total_lost_iters = 0.0f64;
        for (at, bulky) in &events {
            if !*bulky && self.save_fits() {
                // The grace-period save captures the state at the failure
                // instant: nothing re-executes, only the reload is paid.
                durable_frontier = *at;
                lost_secs += self.load_time.as_secs_f64();
            } else {
                // Replicas died together (or the state does not fit the
                // window): roll back to the last durable frontier.
                let lost = at.saturating_since(durable_frontier).as_secs_f64();
                lost_secs += lost + self.load_time.as_secs_f64();
                total_lost_iters += lost / t;
                // Recovery restores the frontier's state; training resumes
                // from there, and the frontier only advances at the next
                // successful save.
                durable_frontier = *at;
            }
        }
        let rollbacks = events.len();
        let total_recovery = lost_secs.min(window);
        let progress = window - total_recovery;
        GoodputResult {
            goodput: (progress / t / window).max(0.0),
            failure_free_throughput: 1.0 / t,
            rollbacks,
            avg_lost_iterations: if rollbacks == 0 {
                0.0
            } else {
                total_lost_iters / rollbacks as f64
            },
            total_recovery: SimDuration::from_secs_f64(total_recovery),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn replay(shard_gb: f64, grace_secs: u64) -> JitReplay {
        JitReplay {
            shard_size: ByteSize::from_gb(shard_gb),
            save_bandwidth: Bandwidth::from_gb_per_sec(1.5),
            grace: SimDuration::from_secs(grace_secs),
            load_time: SimDuration::from_secs(10),
            iter_time: SimDuration::from_secs(2),
        }
    }

    fn trace_with(burst_prob: f64, seed: u64) -> PreemptionTrace {
        PreemptionTrace::synthetic(seed, SimDuration::from_secs(16 * 3600), 7.4, burst_prob)
    }

    /// Evenly spaced singles, far beyond the bulk-coalescing gap — the
    /// regime JIT was designed for. (A Poisson trace has chance clusters
    /// within 60 s that read as bulky, so we construct this explicitly.)
    fn evenly_spaced_trace(n: u64, window_secs: u64) -> PreemptionTrace {
        let gap = window_secs / (n + 1);
        PreemptionTrace::from_events(
            SimDuration::from_secs(window_secs),
            (1..=n)
                .map(|i| SimTime::from_secs_f64((i * gap) as f64))
                .collect(),
        )
    }

    #[test]
    fn graceful_singles_cost_only_reloads() {
        let trace = evenly_spaced_trace(100, 16 * 3600);
        let g = replay(16.2, 30).replay(&trace);
        assert!(g.avg_lost_iterations < 1e-9, "no work re-executed");
        // Goodput loss = reloads only.
        let expected = 1.0 - (g.rollbacks as f64 * 10.0) / (16.0 * 3600.0);
        assert!((g.goodput * 2.0 - expected).abs() < 1e-6);
    }

    #[test]
    fn oversized_state_defeats_the_grace_window() {
        // A 108 GB full model state cannot persist in 30 s at 1.5 GB/s.
        let r = replay(108.0, 30);
        assert!(!r.save_fits());
        let trace = trace_with(0.0, 2);
        let g = r.replay(&trace);
        assert!(
            g.avg_lost_iterations > 100.0,
            "every failure rolls back: {}",
            g.avg_lost_iterations
        );
    }

    #[test]
    fn bulky_preemptions_erode_jit_goodput() {
        // The paper's argument: as bulk revocations appear, JIT loses its
        // advantage. Sweep burst probability and watch goodput fall.
        let r = replay(16.2, 30);
        let none = r.replay(&trace_with(0.0, 3)).goodput;
        let some = r.replay(&trace_with(0.3, 3)).goodput;
        let many = r.replay(&trace_with(0.8, 3)).goodput;
        assert!(none > some, "{none} vs {some}");
        assert!(some > many, "{some} vs {many}");
    }

    #[test]
    fn periodic_checkpointing_wins_under_bulky_preemptions() {
        // Head-to-head at the paper's conditions: frequent bursts. A
        // periodic scheme checkpointing every 10 iterations loses at most
        // ~interval + lag per failure; JIT loses the entire gap since the
        // last non-bulky failure.
        let trace = trace_with(0.6, 4);
        let jit = replay(16.2, 30).replay(&trace);
        // Periodic ideal-ish: lose f/2 iterations per rollback + reload.
        let periodic = crate::goodput::GoodputReplay::new(SimDuration::from_secs(10)).ideal(
            SimDuration::from_secs(2),
            10,
            &trace,
        );
        assert!(
            periodic.goodput > jit.goodput,
            "periodic {} vs jit {}",
            periodic.goodput,
            jit.goodput
        );
    }

    #[test]
    fn jit_beats_periodic_when_preemptions_are_graceful_singles() {
        // Fairness check: in the regime JIT was designed for, it wins.
        let trace = evenly_spaced_trace(100, 16 * 3600);
        let jit = replay(16.2, 30).replay(&trace);
        let periodic = crate::goodput::GoodputReplay::new(SimDuration::from_secs(10)).ideal(
            SimDuration::from_secs(2),
            25,
            &trace,
        );
        assert!(
            jit.goodput > periodic.goodput,
            "jit {} vs periodic {}",
            jit.goodput,
            periodic.goodput
        );
    }

    #[test]
    fn empty_trace_is_perfect() {
        let trace = PreemptionTrace::from_events(SimDuration::from_secs(3600), vec![]);
        let g = replay(16.2, 30).replay(&trace);
        assert_eq!(g.rollbacks, 0);
        assert!((g.goodput - 0.5).abs() < 1e-12); // 1/t = 0.5 it/s
    }
}
