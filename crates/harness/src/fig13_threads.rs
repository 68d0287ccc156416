//! Figure 13: sensitivity to the number of parallel writer threads per
//! checkpoint (`p`) — OPT-350M at a fixed checkpoint interval of 10,
//! varying `p` for each `N`.

use pccheck_gpu::ModelZoo;
use pccheck_sim::{SimConfig, StrategyCfg};
use pccheck_util::CsvWriter;

use crate::sweep::iterations_for;

/// Fixed checkpoint interval (the paper uses 10).
pub const INTERVAL: u64 = 10;
/// Concurrency levels swept.
pub(crate) const N_VALUES: [usize; 3] = [1, 2, 3];
/// Writer-thread counts swept.
pub(crate) const P_VALUES: [usize; 3] = [1, 2, 3];

/// One Figure 13 row.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig13Row {
    /// Concurrent checkpoints `N`.
    pub n: usize,
    /// Writer threads per checkpoint `p`.
    pub p: usize,
    /// Slowdown over no checkpointing.
    pub slowdown: f64,
}

/// Runs the sweep.
pub fn run() -> Vec<Fig13Row> {
    let model = ModelZoo::opt_350m();
    let iters = iterations_for(INTERVAL);
    let ideal = SimConfig::ssd_a100(&model, INTERVAL, iters)
        .with_strategy(StrategyCfg::Ideal)
        .run();
    let mut rows = Vec::new();
    for &n in &N_VALUES {
        for &p in &P_VALUES {
            let report = SimConfig::ssd_a100(&model, INTERVAL, iters)
                .with_strategy(StrategyCfg::pccheck(n, p))
                .run();
            rows.push(Fig13Row {
                n,
                p,
                slowdown: report.slowdown_vs(&ideal),
            });
        }
    }
    rows
}

/// Writes the rows as CSV.
///
/// # Errors
///
/// Returns any I/O error.
pub fn write_csv<W: std::io::Write>(rows: &[Fig13Row], out: W) -> std::io::Result<()> {
    let mut w = CsvWriter::new(out, &["n", "p", "slowdown"]);
    for r in rows {
        w.row(&[&r.n, &r.p, &format_args!("{:.4}", r.slowdown)])?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slowdown(rows: &[Fig13Row], n: usize, p: usize) -> f64 {
        rows.iter()
            .find(|r| r.n == n && r.p == p)
            .map(|r| r.slowdown)
            .expect("row present")
    }

    #[test]
    fn more_writers_help_most_at_low_concurrency() {
        // §5.4.2: 3 threads instead of 1 improve by 1.36×/1.16×/1.13× for
        // N=1/2/3 — the benefit shrinks as N grows.
        let rows = run();
        let gain_n1 = slowdown(&rows, 1, 1) / slowdown(&rows, 1, 3);
        let gain_n3 = slowdown(&rows, 3, 1) / slowdown(&rows, 3, 3);
        assert!(gain_n1 > 1.0, "p=3 must help at N=1: gain {gain_n1}");
        assert!(
            gain_n1 >= gain_n3 * 0.98,
            "benefit should shrink with N: N=1 gain {gain_n1}, N=3 gain {gain_n3}"
        );
    }

    #[test]
    fn writers_never_hurt_within_the_swept_range() {
        let rows = run();
        for &n in &N_VALUES {
            let p1 = slowdown(&rows, n, 1);
            let p3 = slowdown(&rows, n, 3);
            assert!(p3 <= p1 * 1.001, "N={n}: p=3 {p3} vs p=1 {p1}");
        }
    }

    #[test]
    fn grid_is_complete() {
        assert_eq!(run().len(), 9);
    }
}
