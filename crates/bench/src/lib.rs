//! Benchmark crate: see `benches/`, every target a plain `fn main`. The
//! paper's figure and table rows are printed by the `pccheck-harness`
//! binaries; the micro-benches here time code paths nothing else measures,
//! through [`stats::time`].
//!
//! The [`stats`] module is the shared acceptance scaffolding for the
//! `bench_prN` gate benches: every gate summarizes interleaved reps with
//! a median, widens its ceiling to the measured run-to-run noise, and
//! only enforces wall-clock comparisons when the host has enough cores
//! for the widest arm. Keeping those rules in one place means every PR
//! gate applies the same noise discipline.

/// Acceptance statistics shared by the `bench_prN` gate benches.
pub mod stats {
    /// Measured overheads with magnitude under this fraction are
    /// scheduler noise, not signal.
    pub const NOISE_FLOOR: f64 = 0.01;

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
    /// overhead this host can actually resolve.
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

    /// Widens `ceiling` to the worst measured arm noise (and never below
    /// [`NOISE_FLOOR`]): a gate can only resolve overheads as fine as
    /// the host's own jitter.
    pub fn effective_ceiling(ceiling: f64, arms: &[&[f64]]) -> f64 {
        arms.iter()
            .map(|arm| rel_iqr(arm))
            .fold(ceiling.max(NOISE_FLOOR), f64::max)
    }

    /// Cores available to this process (1 when undeterminable). Gates
    /// compare against the widest thread arm: threads time-sharing one
    /// core measure the scheduler, not the protocol.
    pub fn host_cores() -> usize {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }

    /// Repository-root path for a `BENCH_prN.json` artifact (resolved
    /// from `CARGO_MANIFEST_DIR` when cargo sets it, the working
    /// directory otherwise).
    pub fn bench_json_path(file: &str) -> String {
        let root = std::env::var("CARGO_MANIFEST_DIR")
            .map(|d| format!("{d}/../.."))
            .unwrap_or_else(|_| ".".into());
        format!("{root}/{file}")
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

        #[test]
        fn effective_ceiling_never_narrows() {
            assert_eq!(effective_ceiling(0.02, &[&[1.0, 1.0, 1.0]]), 0.02);
            let noisy = [10.0, 14.0, 6.0, 10.0, 12.0];
            assert!(effective_ceiling(0.02, &[&noisy]) > 0.02);
            // Floor applies even when the ceiling asks for finer.
            assert_eq!(effective_ceiling(0.001, &[&[1.0, 1.0, 1.0]]), NOISE_FLOOR);
        }

        #[test]
        fn bench_json_path_lands_at_repo_root() {
            let p = bench_json_path("BENCH_test.json");
            assert!(p.ends_with("BENCH_test.json"));
        }
    }
}
