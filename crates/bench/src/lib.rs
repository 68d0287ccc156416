//! Benchmark crate: see `benches/`, every target a plain `fn main`. The
//! paper's figure and table rows are printed by the `pccheck-harness`
//! binaries; the micro-benches here time code paths nothing else measures,
//! through [`stats::time`]. They print and gate nothing: performance is
//! judged by the perf ledger (`crates/ledger`).

/// Timing helpers shared by the micro-benches.
pub mod stats {
    /// Median of a sample (the run summary statistic — robust to the odd
    /// slow rep, unlike best-of-reps, which systematically
    /// under-reports).
    ///
    /// # Panics
    ///
    /// Panics on an empty sample or NaN entries.
    pub fn median(v: &[f64]) -> f64 {
        let mut sorted = v.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        sorted[sorted.len() / 2]
    }

    /// Relative inter-quartile range: (q3 - q1) / median. The run-to-run
    /// noise of one arm, as a fraction of its typical value — the finest
    /// difference this host can actually resolve.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample or NaN entries.
    pub fn rel_iqr(v: &[f64]) -> f64 {
        let mut sorted = v.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let n = sorted.len();
        let (q1, q3) = (sorted[n / 4], sorted[n - 1 - n / 4]);
        let med = sorted[n / 2];
        if med > 0.0 {
            (q3 - q1) / med
        } else {
            0.0
        }
    }

    /// Times `routine` `reps` times after one warm-up rep, prints `name`,
    /// the median and its relative IQR, and returns the median in seconds.
    ///
    /// # Panics
    ///
    /// Panics if `reps` is zero.
    pub fn time<R>(name: &str, reps: usize, mut routine: impl FnMut() -> R) -> f64 {
        time_with_setup(name, reps, || (), |()| routine())
    }

    /// As [`time`], with each rep run on a fresh `setup()` value whose
    /// construction is not timed.
    pub fn time_with_setup<S, R>(
        name: &str,
        reps: usize,
        mut setup: impl FnMut() -> S,
        mut routine: impl FnMut(S) -> R,
    ) -> f64 {
        let mut secs = Vec::with_capacity(reps);
        for rep in 0..=reps {
            let input = setup();
            let start = std::time::Instant::now();
            std::hint::black_box(routine(std::hint::black_box(input)));
            if rep > 0 {
                secs.push(start.elapsed().as_secs_f64());
            }
        }
        let med = median(&secs);
        println!(
            "  {name:<44} {:>12.3} us  (iqr {:.1}%, {reps} reps)",
            med * 1e6,
            rel_iqr(&secs) * 100.0
        );
        med
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn median_is_order_insensitive() {
            assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
            assert_eq!(median(&[5.0]), 5.0);
        }

        #[test]
        fn time_runs_a_warm_up_and_every_rep_on_fresh_input() {
            let (mut setups, mut runs) = (0, 0);
            let med = time_with_setup("noop", 5, || setups += 1, |()| runs += 1);
            assert_eq!((setups, runs), (6, 6), "five reps and one warm-up");
            assert!(med >= 0.0);
        }

        #[test]
        fn rel_iqr_scales_with_spread() {
            assert_eq!(rel_iqr(&[2.0, 2.0, 2.0]), 0.0);
            let tight = rel_iqr(&[10.0, 10.1, 9.9, 10.0, 10.05]);
            let loose = rel_iqr(&[10.0, 14.0, 6.0, 10.0, 12.0]);
            assert!(loose > tight);
        }
    }
}
