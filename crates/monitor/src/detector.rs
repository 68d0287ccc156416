//! Update-magnitude anomaly detection over a checkpoint stream.
//!
//! Training derails for many reasons the loss curve shows only later:
//! exploding gradients, silently corrupted hardware (§2.1 cites He et al.'s
//! ISCA'23 study), bad data shards. One cheap, model-agnostic signal is the
//! *per-iteration update magnitude*: how much of the state changes per
//! training step between consecutive checkpoints. A healthy run's magnitude
//! is stable; a spike (exploding update) or collapse (frozen optimizer,
//! stale replica) stands out.
//!
//! [`UpdateMagnitudeDetector`] consumes `(iteration, changed_fraction)`
//! observations — typically produced by [`crate::diff()`] over consecutive
//! checkpoints — normalizes by the iteration gap, and flags deviations
//! beyond a configurable multiple of the trailing window's spread.

/// One flagged observation.
#[derive(Debug, Clone, PartialEq)]
pub struct AnomalyReport {
    /// The iteration of the checkpoint that triggered the flag.
    pub iteration: u64,
    /// The normalized update magnitude observed.
    pub magnitude: f64,
    /// The trailing-window mean it was compared against.
    pub expected: f64,
    /// `magnitude / expected` (∞-safe: 0 expected reports the raw value).
    pub ratio: f64,
}

/// Sliding-window update-magnitude detector.
///
/// # Examples
///
/// ```
/// use pccheck_monitor::UpdateMagnitudeDetector;
///
/// let mut det = UpdateMagnitudeDetector::new(4, 3.0);
/// // Stable magnitudes: no flags.
/// for i in 1..=8u64 {
///     assert!(det.observe(i * 10, 0.5).is_none());
/// }
/// // A 4x spike trips the detector.
/// assert!(det.observe(90, 2.0).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct UpdateMagnitudeDetector {
    window: usize,
    threshold: f64,
    history: Vec<f64>, // normalized magnitudes
    last_iteration: Option<u64>,
}

impl UpdateMagnitudeDetector {
    /// Creates a detector with a trailing `window` of observations and a
    /// flag `threshold` (flag when magnitude is more than `threshold`×
    /// or less than `1/threshold`× the trailing mean).
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero or `threshold <= 1`.
    pub fn new(window: usize, threshold: f64) -> Self {
        assert!(window > 0, "window must be positive");
        assert!(threshold > 1.0, "threshold must exceed 1");
        UpdateMagnitudeDetector {
            window,
            threshold,
            history: Vec::new(),
            last_iteration: None,
        }
    }

    /// Feeds the changed fraction between the previous checkpoint and the
    /// one at `iteration`; returns a report if it is anomalous relative to
    /// the trailing window.
    ///
    /// The first observation (no gap) and observations while the window is
    /// still warming up are never flagged.
    ///
    /// # Panics
    ///
    /// Panics if iterations do not strictly increase.
    pub fn observe(&mut self, iteration: u64, changed_fraction: f64) -> Option<AnomalyReport> {
        let gap = match self.last_iteration {
            None => {
                self.last_iteration = Some(iteration);
                return None;
            }
            Some(prev) => {
                assert!(
                    iteration > prev,
                    "iterations must increase: {prev} -> {iteration}"
                );
                iteration - prev
            }
        };
        self.last_iteration = Some(iteration);
        let magnitude = changed_fraction / gap as f64;

        let report = if self.history.len() >= self.window {
            let start = self.history.len() - self.window;
            let mean: f64 = self.history[start..].iter().sum::<f64>() / self.window as f64;
            let anomalous = if mean == 0.0 {
                magnitude > 0.0
            } else {
                let ratio = magnitude / mean;
                ratio > self.threshold || ratio < 1.0 / self.threshold
            };
            if anomalous {
                Some(AnomalyReport {
                    iteration,
                    magnitude,
                    expected: mean,
                    ratio: if mean == 0.0 {
                        magnitude
                    } else {
                        magnitude / mean
                    },
                })
            } else {
                None
            }
        } else {
            None
        };
        // Anomalies do not poison the baseline: only accept in-band
        // observations into the window.
        if report.is_none() {
            self.history.push(magnitude);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_stream_never_flags() {
        let mut det = UpdateMagnitudeDetector::new(3, 2.5);
        for i in 1..=20u64 {
            assert!(det.observe(i * 5, 0.4).is_none(), "iteration {i}");
        }
        assert_eq!(det.history.len(), 19); // first observation only warms up
    }

    #[test]
    fn spike_is_flagged_with_context() {
        let mut det = UpdateMagnitudeDetector::new(4, 3.0);
        for i in 1..=6u64 {
            det.observe(i * 10, 0.5);
        }
        let report = det.observe(70, 1.9).expect("spike flagged");
        assert_eq!(report.iteration, 70);
        assert!(report.ratio > 3.0);
        assert!((report.expected - 0.05).abs() < 1e-9);
    }

    #[test]
    fn collapse_is_flagged_too() {
        let mut det = UpdateMagnitudeDetector::new(4, 3.0);
        for i in 1..=6u64 {
            det.observe(i * 10, 0.6);
        }
        let report = det.observe(70, 0.01).expect("collapse flagged");
        assert!(report.ratio < 1.0 / 3.0);
    }

    #[test]
    fn gap_normalization_prevents_false_positives() {
        // A checkpoint after 50 iterations changes ~5x more than one after
        // 10 — magnitude per iteration stays constant, so no flag.
        let mut det = UpdateMagnitudeDetector::new(3, 2.0);
        det.observe(10, 0.1);
        det.observe(20, 0.1);
        det.observe(30, 0.1);
        det.observe(40, 0.1);
        assert!(det.observe(90, 0.5).is_none(), "5x gap, 5x change: fine");
    }

    #[test]
    fn anomalies_do_not_poison_the_baseline() {
        let mut det = UpdateMagnitudeDetector::new(3, 2.0);
        for i in 1..=5u64 {
            det.observe(i * 10, 0.3);
        }
        assert!(det.observe(60, 1.0).is_some(), "spike");
        // The spike was excluded from the window, so normal traffic
        // continues without flags and a repeat spike still triggers.
        assert!(det.observe(70, 0.3).is_none());
        assert!(det.observe(80, 1.0).is_some(), "repeat spike still flagged");
    }

    #[test]
    #[should_panic(expected = "iterations must increase")]
    fn non_monotonic_iterations_panic() {
        let mut det = UpdateMagnitudeDetector::new(2, 2.0);
        det.observe(10, 0.1);
        det.observe(10, 0.1);
    }

    #[test]
    #[should_panic(expected = "threshold must exceed 1")]
    fn bad_threshold_rejected() {
        UpdateMagnitudeDetector::new(2, 1.0);
    }
}
