//! Figure 2: goodput as a function of checkpoint interval for BLOOM-7B on
//! the spot-VM preemption trace — CheckFreq, Gemini, PCcheck, and the
//! ideal system.

use pccheck_gpu::ModelZoo;
use pccheck_sim::StrategyCfg;
use pccheck_trace::PreemptionTrace;
use pccheck_util::CsvWriter;

use crate::sweep::{goodput_sweep, GoodputRow};
use crate::PAPER_INTERVALS;

/// Runs the experiment (seeded trace for reproducibility).
pub(crate) fn run(seed: u64) -> Vec<GoodputRow> {
    let trace = PreemptionTrace::synthetic_gcp_a100(seed);
    goodput_sweep(
        &ModelZoo::bloom_7b(),
        &[
            StrategyCfg::CheckFreq,
            StrategyCfg::Gemini,
            StrategyCfg::pccheck(2, 3),
        ],
        &PAPER_INTERVALS,
        &trace,
    )
}

/// Writes the rows as CSV.
///
/// # Errors
///
/// Returns any I/O error.
pub(crate) fn write_csv<W: std::io::Write>(rows: &[GoodputRow], out: W) -> std::io::Result<()> {
    let mut w = CsvWriter::new(
        out,
        &[
            "model",
            "strategy",
            "interval",
            "goodput",
            "rollbacks",
            "avg_lost_iters",
        ],
    );
    for r in rows {
        w.row(&[
            &r.model,
            &r.strategy,
            &r.interval,
            &format_args!("{:.5}", r.goodput),
            &r.rollbacks,
            &format_args!("{:.2}", r.avg_lost_iterations),
        ])?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Peak goodput per strategy across intervals, as a fraction of the ideal
    /// peak (the paper: CheckFreq reaches only 66%, Gemini 58% of ideal).
    fn peak_fraction_of_ideal(rows: &[GoodputRow], strategy_prefix: &str) -> f64 {
        let peak = |p: &str| {
            rows.iter()
                .filter(|r| r.strategy.starts_with(p))
                .map(|r| r.goodput)
                .fold(0.0f64, f64::max)
        };
        let ideal = peak("ideal");
        if ideal == 0.0 {
            return 0.0;
        }
        peak(strategy_prefix) / ideal
    }

    #[test]
    fn figure2_shapes_hold() {
        let rows = run(1);
        // 5 intervals × 4 curves.
        assert_eq!(rows.len(), 20);
        // PCcheck's peak goodput beats both baselines' peaks and approaches
        // the ideal.
        let pc = peak_fraction_of_ideal(&rows, "pccheck");
        let cf = peak_fraction_of_ideal(&rows, "checkfreq");
        let gm = peak_fraction_of_ideal(&rows, "gemini");
        assert!(pc > cf, "pccheck {pc} vs checkfreq {cf}");
        assert!(pc > gm, "pccheck {pc} vs gemini {gm}");
        assert!(pc > 0.80, "pccheck should approach ideal, got {pc}");
        assert!(cf < 0.95, "checkfreq must fall short of ideal: {cf}");
    }

    #[test]
    fn csv_round_trips() {
        let rows = run(2);
        let mut buf = Vec::new();
        write_csv(&rows, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), rows.len() + 1);
        assert!(text.contains("BLOOM-7B"));
    }
}
