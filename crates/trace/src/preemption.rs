//! Preemption traces.

use pccheck_util::rng::{self, Rng};
use pccheck_util::{SimDuration, SimTime};

/// Published summary of the André et al. GCP A100 spot trace: 26
/// preemptions in 3.5 hours.
pub const GCP_A100_PREEMPTIONS_PER_HOUR: f64 = 26.0 / 3.5;

/// The default experiment window (§1/Figure 2: a 16-hour trace).
pub(crate) const DEFAULT_WINDOW: SimDuration = SimDuration::from_secs(16 * 3600);

/// A sequence of preemption/failure events over a time window.
///
/// Any event interrupts training: in elastic frameworks like Varuna, *any*
/// worker's preemption rolls all workers back to the last checkpoint
/// (§5.2.3), so one merged event stream suffices for a whole cluster.
///
/// # Examples
///
/// ```
/// use pccheck_trace::PreemptionTrace;
///
/// let trace = PreemptionTrace::synthetic_gcp_a100(42);
/// // 16 h at ~7.43/h is ~119 arrivals; a burst twin follows 20% of them,
/// // so ~143 events are expected, with a standard deviation of ~14.
/// assert!(trace.len() > 90 && trace.len() < 200);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreemptionTrace {
    window: SimDuration,
    events: Vec<SimTime>,
}

impl PreemptionTrace {
    /// Builds a trace from explicit event times.
    ///
    /// # Panics
    ///
    /// Panics if any event lies outside the window or the events are not
    /// sorted ascending.
    pub fn from_events(window: SimDuration, events: Vec<SimTime>) -> Self {
        assert!(
            events.windows(2).all(|w| w[0] <= w[1]),
            "events must be sorted"
        );
        assert!(
            events
                .iter()
                .all(|e| e.saturating_since(SimTime::ZERO) <= window),
            "events must lie within the window"
        );
        PreemptionTrace { window, events }
    }

    /// Generates a seeded synthetic trace over a 16-hour window matching
    /// the GCP A100 spot statistics: exponential inter-arrivals at
    /// ~7.4 preemptions/hour, with 20% of events arriving as short bursts
    /// (bulk preemptions — the trace's "bulky" revocations; a burst still
    /// causes a single rollback, but we keep the events for fidelity).
    pub fn synthetic_gcp_a100(seed: u64) -> Self {
        Self::synthetic(seed, DEFAULT_WINDOW, GCP_A100_PREEMPTIONS_PER_HOUR, 0.2)
    }

    /// Generates a seeded synthetic trace with `rate_per_hour` exponential
    /// arrivals over `window`; each arrival is followed by a burst twin
    /// within 60 s with probability `burst_prob`.
    ///
    /// # Panics
    ///
    /// Panics if `rate_per_hour` is not positive or `burst_prob` is outside
    /// `[0, 1]`.
    pub fn synthetic(seed: u64, window: SimDuration, rate_per_hour: f64, burst_prob: f64) -> Self {
        assert!(rate_per_hour > 0.0, "rate must be positive");
        assert!((0.0..=1.0).contains(&burst_prob), "burst_prob in [0,1]");
        let mut r = Rng::seeded(rng::derive_seed(seed, "preemption-trace"));
        let mean_gap_secs = 3600.0 / rate_per_hour;
        let mut events = Vec::new();
        let mut t = 0.0f64;
        let horizon = window.as_secs_f64();
        loop {
            // Exponential inter-arrival via inverse CDF.
            let u = r.range_f64(1e-12..1.0);
            t += -mean_gap_secs * u.ln();
            if t >= horizon {
                break;
            }
            events.push(SimTime::from_secs_f64(t));
            if r.chance(burst_prob) {
                let burst_at = t + r.range_f64(1.0..60.0);
                if burst_at < horizon {
                    events.push(SimTime::from_secs_f64(burst_at));
                    t = burst_at;
                }
            }
        }
        events.sort_unstable();
        PreemptionTrace { window, events }
    }

    /// The trace window.
    pub fn window(&self) -> SimDuration {
        self.window
    }

    /// Number of preemption events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The event times, ascending.
    pub fn events(&self) -> &[SimTime] {
        &self.events
    }

    /// Events collapsed so that any events within `gap` of the previous
    /// kept event are merged (bulk preemptions cause one rollback).
    pub fn coalesced(&self, gap: SimDuration) -> Vec<SimTime> {
        self.coalesced_with_bulk_flag(gap)
            .into_iter()
            .map(|(t, _)| t)
            .collect()
    }

    /// Like [`coalesced`](Self::coalesced), but each kept event also says
    /// whether it was *bulky* — other preemptions landed within `gap` of
    /// it. Bulky revocations are the failure mode that defeats
    /// replication-based schemes (just-in-time checkpointing assumes a
    /// surviving replica; §2.2 notes bulk VM preemptions break that).
    pub(crate) fn coalesced_with_bulk_flag(&self, gap: SimDuration) -> Vec<(SimTime, bool)> {
        let mut out: Vec<(SimTime, bool)> = Vec::new();
        for &e in &self.events {
            match out.last_mut() {
                Some((last, bulk)) if e.saturating_since(*last) < gap => {
                    *bulk = true; // a twin arrived: the kept event is bulky
                }
                _ => out.push((e, false)),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_rate_matches_published_statistics() {
        // Average over several seeds: ~7.43/h * 16 h ≈ 119 events plus
        // ~20% burst twins ≈ 143; accept a generous band.
        let mean: f64 = (0..10)
            .map(|s| PreemptionTrace::synthetic_gcp_a100(s).len() as f64)
            .sum::<f64>()
            / 10.0;
        assert!(
            (100.0..190.0).contains(&mean),
            "mean events {mean} out of band"
        );
    }

    #[test]
    fn burst_free_rate_matches_the_published_rate() {
        // Without twins the arrivals are the published Poisson process
        // alone: ~119 per 16 h window, so the mean over 32 seeds has a
        // standard deviation of ~1.6% and must land within 5%.
        let seeds = 32;
        let events: usize = (0..seeds)
            .map(|s| {
                PreemptionTrace::synthetic(s, DEFAULT_WINDOW, GCP_A100_PREEMPTIONS_PER_HOUR, 0.0)
                    .len()
            })
            .sum();
        let per_hour = events as f64 / seeds as f64 / (DEFAULT_WINDOW.as_secs_f64() / 3600.0);
        let error = (per_hour / GCP_A100_PREEMPTIONS_PER_HOUR - 1.0).abs();
        assert!(
            error < 0.05,
            "burst-free rate {per_hour}/h is off by {error}"
        );
    }

    #[test]
    fn synthetic_is_deterministic_per_seed() {
        let a = PreemptionTrace::synthetic_gcp_a100(7);
        let b = PreemptionTrace::synthetic_gcp_a100(7);
        assert_eq!(a, b);
        let c = PreemptionTrace::synthetic_gcp_a100(8);
        assert_ne!(a, c);
    }

    #[test]
    fn events_are_sorted_within_window() {
        let t = PreemptionTrace::synthetic_gcp_a100(1);
        assert!(t.events().windows(2).all(|w| w[0] <= w[1]));
        let horizon = t.window().as_secs_f64();
        assert!(t.events().iter().all(|e| e.as_secs_f64() < horizon));
    }

    #[test]
    fn from_events_validates() {
        let w = SimDuration::from_secs(100);
        let t = PreemptionTrace::from_events(
            w,
            vec![SimTime::from_secs_f64(10.0), SimTime::from_secs_f64(20.0)],
        );
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "must be sorted")]
    fn unsorted_events_rejected() {
        PreemptionTrace::from_events(
            SimDuration::from_secs(100),
            vec![SimTime::from_secs_f64(20.0), SimTime::from_secs_f64(10.0)],
        );
    }

    #[test]
    #[should_panic(expected = "within the window")]
    fn out_of_window_events_rejected() {
        PreemptionTrace::from_events(
            SimDuration::from_secs(100),
            vec![SimTime::from_secs_f64(200.0)],
        );
    }

    #[test]
    fn coalescing_merges_bursts() {
        let w = SimDuration::from_secs(1000);
        let t = PreemptionTrace::from_events(
            w,
            vec![
                SimTime::from_secs_f64(10.0),
                SimTime::from_secs_f64(15.0), // burst twin
                SimTime::from_secs_f64(500.0),
            ],
        );
        let merged = t.coalesced(SimDuration::from_secs(60));
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0], SimTime::from_secs_f64(10.0));
        assert_eq!(merged[1], SimTime::from_secs_f64(500.0));
    }

    #[test]
    fn higher_rate_means_more_events() {
        let lo = PreemptionTrace::synthetic(3, DEFAULT_WINDOW, 1.0, 0.0);
        let hi = PreemptionTrace::synthetic(3, DEFAULT_WINDOW, 20.0, 0.0);
        assert!(hi.len() > lo.len() * 5);
    }
}
