//! Figure 9 (a–f): goodput when replaying the Google Cloud A100 spot
//! preemption trace, for the six Figure-8 models.

use pccheck_gpu::{ModelSpec, ModelZoo};
use pccheck_trace::PreemptionTrace;
use pccheck_util::CsvWriter;

use crate::fig8_throughput::strategies_for;
use crate::sweep::{goodput_sweep, GoodputRow};
use crate::PAPER_INTERVALS;

/// Runs the full six-model goodput sweep with a seeded trace.
pub fn run(seed: u64) -> Vec<GoodputRow> {
    let trace = PreemptionTrace::synthetic_gcp_a100(seed);
    let mut rows = Vec::new();
    for model in ModelZoo::figure8_models() {
        rows.extend(run_model(&model, &trace));
    }
    rows
}

/// Runs one model's panel.
pub(crate) fn run_model(model: &ModelSpec, trace: &PreemptionTrace) -> Vec<GoodputRow> {
    goodput_sweep(model, &strategies_for(model), &PAPER_INTERVALS, trace)
}

/// Writes the rows as CSV.
///
/// # Errors
///
/// Returns any I/O error.
pub fn write_csv<W: std::io::Write>(rows: &[GoodputRow], out: W) -> std::io::Result<()> {
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

    /// The maximum per-interval goodput ratio of PCcheck over `baseline`
    /// across a model's rows (the paper's "up to 2.86× higher goodput").
    fn max_ratio_vs(rows: &[GoodputRow], baseline: &str) -> f64 {
        let mut best: f64 = 0.0;
        for r in rows.iter().filter(|r| r.strategy.starts_with("pccheck")) {
            if let Some(b) = rows
                .iter()
                .find(|b| b.strategy.starts_with(baseline) && b.interval == r.interval)
            {
                if b.goodput > 0.0 {
                    best = best.max(r.goodput / b.goodput);
                }
            }
        }
        best
    }

    #[test]
    fn opt13b_goodput_shapes_hold() {
        let trace = PreemptionTrace::synthetic_gcp_a100(1);
        let rows = run_model(&ModelZoo::opt_1_3b(), &trace);
        // PCcheck beats CheckFreq substantially at frequent checkpointing
        // (paper: 1.77× at interval 10 for OPT-1.3B).
        let ratio = max_ratio_vs(&rows, "checkfreq");
        assert!(ratio > 1.2, "pccheck/checkfreq max ratio {ratio}");
        // PCcheck's best point approaches ideal's best point.
        let peak = |p: &str| {
            rows.iter()
                .filter(|r| r.strategy.starts_with(p))
                .map(|r| r.goodput)
                .fold(0.0f64, f64::max)
        };
        assert!(peak("pccheck") > 0.85 * peak("ideal"));
    }

    #[test]
    fn goodput_has_an_interior_optimum_for_baselines() {
        // Checkpointing every iteration wastes time on overhead; very rare
        // checkpoints waste time on rollbacks. The best interval for
        // CheckFreq on VGG16 lies strictly inside the sweep.
        let trace = PreemptionTrace::synthetic_gcp_a100(2);
        let rows = run_model(&ModelZoo::vgg16(), &trace);
        let cf: Vec<_> = rows.iter().filter(|r| r.strategy == "checkfreq").collect();
        let best = cf
            .iter()
            .max_by(|a, b| a.goodput.partial_cmp(&b.goodput).expect("finite"))
            .expect("rows");
        assert!(
            best.interval > 1,
            "interval-1 checkpointing should not be optimal for CheckFreq"
        );
    }
}
