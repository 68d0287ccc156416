//! Figure 12: sensitivity to the number of concurrent checkpoints (`N`) —
//! slowdown over no checkpointing for VGG-16, varying frequency and `N`.

use pccheck_gpu::ModelZoo;
use pccheck_sim::{SimConfig, StrategyCfg};
use pccheck_util::CsvWriter;

use crate::sweep::iterations_for;
use crate::PAPER_INTERVALS;

/// The concurrency levels the paper sweeps.
pub(crate) const N_VALUES: [usize; 3] = [1, 2, 4];

/// One Figure 12 row.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig12Row {
    /// Checkpoint interval.
    pub interval: u64,
    /// Concurrent checkpoints `N`.
    pub n: usize,
    /// Slowdown over no checkpointing.
    pub slowdown: f64,
}

/// Runs the sweep.
pub fn run() -> Vec<Fig12Row> {
    let model = ModelZoo::vgg16();
    let mut rows = Vec::new();
    for &interval in &PAPER_INTERVALS {
        let ideal = SimConfig::ssd_a100(&model, interval, iterations_for(interval))
            .with_strategy(StrategyCfg::Ideal)
            .run();
        for &n in &N_VALUES {
            let report = SimConfig::ssd_a100(&model, interval, iterations_for(interval))
                .with_strategy(StrategyCfg::pccheck(n, 3))
                .run();
            rows.push(Fig12Row {
                interval,
                n,
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
pub fn write_csv<W: std::io::Write>(rows: &[Fig12Row], out: W) -> std::io::Result<()> {
    let mut w = CsvWriter::new(out, &["interval", "n", "slowdown"]);
    for r in rows {
        w.row(&[&r.interval, &r.n, &format_args!("{:.4}", r.slowdown)])?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slowdown(rows: &[Fig12Row], interval: u64, n: usize) -> f64 {
        rows.iter()
            .find(|r| r.interval == interval && r.n == n)
            .map(|r| r.slowdown)
            .expect("row present")
    }

    #[test]
    fn more_than_one_checkpoint_is_consistently_better() {
        // §5.4.1: "using more than one checkpoint is consistently better".
        let rows = run();
        for &interval in &[1u64, 10, 25] {
            let n1 = slowdown(&rows, interval, 1);
            let n2 = slowdown(&rows, interval, 2);
            assert!(
                n2 <= n1 * 1.001,
                "interval {interval}: N=2 ({n2}) should not lose to N=1 ({n1})"
            );
        }
        // And at interval 1 the benefit is pronounced.
        assert!(slowdown(&rows, 1, 4) < slowdown(&rows, 1, 1) * 0.9);
    }

    #[test]
    fn diminishing_returns_beyond_saturation() {
        // §5.4.1: ~4 concurrent checkpoints saturate the SSD; N=4 over N=2
        // helps much less than N=2 over N=1 at interval 1.
        let rows = run();
        let gain_12 = slowdown(&rows, 1, 1) / slowdown(&rows, 1, 2);
        let gain_24 = slowdown(&rows, 1, 2) / slowdown(&rows, 1, 4);
        assert!(
            gain_12 > gain_24 * 0.95,
            "first doubling ({gain_12}) should help at least as much as the second ({gain_24})"
        );
    }

    #[test]
    fn slowdown_shrinks_with_interval() {
        let rows = run();
        for &n in &N_VALUES {
            let s1 = slowdown(&rows, 1, n);
            let s100 = slowdown(&rows, 100, n);
            assert!(s100 < s1, "N={n}: {s100} should be below {s1}");
            assert!(s100 < 1.25, "N={n}: interval-100 slowdown {s100}");
        }
    }
}
