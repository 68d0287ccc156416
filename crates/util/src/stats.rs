//! Summary statistics for repeated experiment runs.
//!
//! The paper reports averages over three runs with standard deviation below
//! 0.2 (§5.1); [`Summary`] provides the same aggregation plus percentiles for
//! latency-shaped data (e.g., per-checkpoint persist times in Figure 11).

use std::fmt;

/// Summary statistics over a set of `f64` samples.
///
/// # Examples
///
/// ```
/// use pccheck_util::Summary;
/// let s = Summary::from_samples(&[1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(s.mean(), 2.5);
/// assert_eq!(s.min(), 1.0);
/// assert_eq!(s.max(), 4.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    sorted: Vec<f64>,
    mean: f64,
    stddev: f64,
}

impl Summary {
    /// Computes summary statistics over `samples`.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or contains non-finite values.
    pub fn from_samples(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "cannot summarize zero samples");
        assert!(
            samples.iter().all(|s| s.is_finite()),
            "samples must be finite"
        );
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
        let n = sorted.len() as f64;
        let mean = sorted.iter().sum::<f64>() / n;
        let var = sorted.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n;
        Summary {
            sorted,
            mean,
            stddev: var.sqrt(),
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Returns `true` if there are no samples (never true: construction
    /// requires at least one sample, but provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        self.stddev
    }

    /// Smallest sample.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Largest sample.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("non-empty")
    }

    /// Median (50th percentile).
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// Linear-interpolated percentile, `p` in `[0, 100]`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    ///
    /// # Examples
    ///
    /// ```
    /// use pccheck_util::Summary;
    /// let s = Summary::from_samples(&[10.0, 20.0, 30.0, 40.0, 50.0]);
    /// assert_eq!(s.percentile(0.0), 10.0);
    /// assert_eq!(s.percentile(100.0), 50.0);
    /// assert_eq!(s.percentile(50.0), 30.0);
    /// ```
    pub fn percentile(&self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
        if self.sorted.len() == 1 {
            return self.sorted[0];
        }
        let rank = p / 100.0 * (self.sorted.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let frac = rank - lo as f64;
        self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mean={:.4} std={:.4} min={:.4} p50={:.4} max={:.4} (n={})",
            self.mean(),
            self.stddev(),
            self.min(),
            self.median(),
            self.max(),
            self.len()
        )
    }
}

/// Computes the geometric mean of strictly positive samples.
///
/// Useful when averaging slowdown ratios across models.
///
/// # Panics
///
/// Panics if `samples` is empty or any sample is not strictly positive.
///
/// # Examples
///
/// ```
/// use pccheck_util::stats::geometric_mean;
/// assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
/// ```
pub fn geometric_mean(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "cannot average zero samples");
    assert!(
        samples.iter().all(|s| s.is_finite() && *s > 0.0),
        "geometric mean requires positive samples"
    );
    (samples.iter().map(|s| s.ln()).sum::<f64>() / samples.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{check, DEFAULT_CASES};

    #[test]
    fn summary_of_single_sample() {
        let s = Summary::from_samples(&[7.0]);
        assert_eq!(s.mean(), 7.0);
        assert_eq!(s.stddev(), 0.0);
        assert_eq!(s.median(), 7.0);
        assert_eq!(s.percentile(99.0), 7.0);
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
    }

    #[test]
    fn summary_matches_hand_computation() {
        let s = Summary::from_samples(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.mean(), 5.0);
        assert_eq!(s.stddev(), 2.0); // classic textbook example
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn median_of_even_count_interpolates() {
        let s = Summary::from_samples(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.median(), 2.5);
    }

    #[test]
    #[should_panic(expected = "cannot summarize zero samples")]
    fn empty_samples_rejected() {
        Summary::from_samples(&[]);
    }

    #[test]
    #[should_panic(expected = "samples must be finite")]
    fn nan_samples_rejected() {
        Summary::from_samples(&[1.0, f64::NAN]);
    }

    #[test]
    fn geometric_mean_of_ratios() {
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geometric_mean(&[1.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentiles_are_monotone() {
        check(DEFAULT_CASES, |r| {
            let xs: Vec<f64> = (0..r.range(1..50))
                .map(|_| r.range_f64(-1e6..1e6).abs())
                .collect();
            let (p1, p2) = (r.range_f64(0.0..100.0), r.range_f64(0.0..100.0));
            let s = Summary::from_samples(&xs);
            let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
            assert!(s.percentile(lo) <= s.percentile(hi) + 1e-9);
            assert!(s.min() <= s.mean() + 1e-9);
            assert!(s.mean() <= s.max() + 1e-9);
        });
    }
}
