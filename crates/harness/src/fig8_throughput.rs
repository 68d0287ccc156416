//! Figure 8 (a–f): training throughput vs checkpoint frequency on the
//! SSD/A100 testbed for six models, comparing PCcheck against CheckFreq,
//! GPM (single-GPU models) and Gemini (distributed models), with the
//! no-checkpoint throughput as the horizontal reference line.

use pccheck_gpu::{ModelSpec, ModelZoo};
use pccheck_sim::StrategyCfg;
use pccheck_util::CsvWriter;

use crate::sweep::{sweep_ssd, SweepRow};
use crate::PAPER_INTERVALS;

/// The strategies compared for a given model (Gemini only in distributed
/// setups, matching §5.1).
pub(crate) fn strategies_for(model: &ModelSpec) -> Vec<StrategyCfg> {
    let mut s = vec![
        StrategyCfg::CheckFreq,
        StrategyCfg::Gpm,
        StrategyCfg::pccheck(2, 3),
    ];
    if model.is_distributed() {
        s.push(StrategyCfg::Gemini);
    }
    s
}

/// Runs the full six-model sweep.
pub fn run() -> Vec<SweepRow> {
    let mut rows = Vec::new();
    for model in ModelZoo::figure8_models() {
        rows.extend(sweep_ssd(&model, &strategies_for(&model), &PAPER_INTERVALS));
    }
    rows
}

/// Writes the rows as CSV.
///
/// # Errors
///
/// Returns any I/O error.
pub fn write_csv<W: std::io::Write>(rows: &[SweepRow], out: W) -> std::io::Result<()> {
    let mut w = CsvWriter::new(
        out,
        &[
            "model",
            "strategy",
            "interval",
            "throughput",
            "slowdown",
            "write_time_secs",
        ],
    );
    for r in rows {
        w.row(&[
            &r.model,
            &r.strategy,
            &r.interval,
            &format_args!("{:.5}", r.throughput),
            &format_args!("{:.4}", r.slowdown),
            &format_args!("{:.3}", r.write_time_secs),
        ])?;
    }
    w.flush()
}

/// Runs one model's panel.
#[cfg(test)]
pub(crate) fn run_model(name: &str) -> Vec<SweepRow> {
    let model = ModelZoo::by_name(name).expect("known model");
    sweep_ssd(&model, &strategies_for(&model), &PAPER_INTERVALS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slowdown(rows: &[SweepRow], strategy: &str, interval: u64) -> f64 {
        rows.iter()
            .find(|r| r.strategy.starts_with(strategy) && r.interval == interval)
            .map(|r| r.slowdown)
            .expect("row present")
    }

    #[test]
    fn bert_panel_shapes_hold() {
        let rows = run_model("BERT");
        // PCcheck checkpointing every 10 iterations has small overhead...
        let pc10 = slowdown(&rows, "pccheck", 10);
        assert!(pc10 < 1.15, "pccheck@10 slowdown {pc10}");
        // ...GPM pays much more at the same frequency (it stalls training
        // for the whole persist), and CheckFreq collapses at interval 1
        // where its one-at-a-time rule serializes everything.
        let gpm10 = slowdown(&rows, "gpm", 10);
        assert!(gpm10 > 1.4, "gpm@10 {gpm10}");
        let cf1 = slowdown(&rows, "checkfreq", 1);
        let pc1 = slowdown(&rows, "pccheck", 1);
        assert!(cf1 > pc1 * 1.3, "checkfreq@1 {cf1} vs pccheck@1 {pc1}");
    }

    #[test]
    fn opt13b_matches_paper_anchor() {
        // §5.2.3: at interval 10, PCcheck sustains ~0.5 it/s (its ideal
        // rate) while CheckFreq drops to ~0.256 it/s — a ~2x gap driven by
        // the 16.2 GB / 37 s single-threaded persist. GPM is worse still.
        let rows = run_model("OPT-1.3B");
        let pc = slowdown(&rows, "pccheck", 10);
        let cf = slowdown(&rows, "checkfreq", 10);
        let gpm = slowdown(&rows, "gpm", 10);
        assert!(pc < 1.15, "pccheck@10 {pc}");
        assert!(
            (1.5..=2.5).contains(&cf),
            "checkfreq@10 {cf} (paper ~1.95x)"
        );
        assert!(gpm > cf, "gpm@10 {gpm} should exceed checkfreq {cf}");
        // And everyone converges by interval 50+ except GPM's stall.
        let pc50 = slowdown(&rows, "pccheck", 50);
        assert!(pc50 < 1.12, "pccheck@50 {pc50}");
    }

    #[test]
    fn distributed_panels_include_gemini() {
        let rows = run_model("BLOOM-7B");
        assert!(rows.iter().any(|r| r.strategy == "gemini"));
        // §5.2.1: Gemini 1.65–1.08× slower at intervals 10–100, PCcheck
        // < 1.02× at the same points.
        let gm10 = slowdown(&rows, "gemini", 10);
        let pc10 = slowdown(&rows, "pccheck", 10);
        assert!(gm10 > 1.3, "gemini@10 {gm10}");
        assert!(pc10 < 1.10, "pccheck@10 {pc10}");
        let gm100 = slowdown(&rows, "gemini", 100);
        assert!(gm100 < 1.3, "gemini@100 {gm100} should be mild");
    }

    #[test]
    fn single_gpu_panels_exclude_gemini() {
        let rows = run_model("VGG16");
        assert!(rows.iter().all(|r| r.strategy != "gemini"));
    }
}
