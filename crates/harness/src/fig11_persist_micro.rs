//! Figure 11: end-to-end time to persist one checkpoint of varying size
//! (log-scale y in the paper), comparing PCcheck, CheckFreq, GPM, and
//! Gemini on the SSD/A100 testbed.
//!
//! The microbenchmark isolates a *single* checkpoint: a long interval and
//! a short run so no two checkpoints ever contend.

use pccheck_gpu::ModelZoo;
use pccheck_sim::{SimConfig, StrategyCfg};
use pccheck_util::{ByteSize, CsvWriter};

/// The checkpoint sizes swept (Table 3 sizes: VGG16, TransformerXL, BERT,
/// OPT-1.3B).
pub(crate) fn paper_sizes() -> Vec<ByteSize> {
    vec![
        ByteSize::from_gb(1.1),
        ByteSize::from_gb(2.7),
        ByteSize::from_gb(4.0),
        ByteSize::from_gb(16.2),
    ]
}

/// One Figure 11 row.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Fig11Row {
    /// Checkpoint size.
    pub(crate) size: ByteSize,
    /// Strategy name.
    pub(crate) strategy: String,
    /// End-to-end time from snapshot start to durable (seconds).
    pub(crate) persist_secs: f64,
}

/// Measures the solo per-checkpoint write time for one strategy and size.
/// The interval is huge so exactly one checkpoint runs, free of contention.
pub(crate) fn measure(strategy: StrategyCfg, size: ByteSize) -> f64 {
    let mut cfg = SimConfig::ssd_a100(&ModelZoo::vgg16(), 2000, 2500).with_strategy(strategy);
    if matches!(strategy, StrategyCfg::Gemini) {
        // The microbenchmark transfers one checkpoint with no concurrent
        // training traffic, so Gemini gets the full 15 Gbps NIC here.
        cfg.storage_bandwidth = pccheck_util::Bandwidth::from_gbit_per_sec(15.0);
    }
    cfg.checkpoint_size = size;
    cfg.chunk_size = ByteSize::from_bytes((size.as_u64() / 20).max(1));
    cfg.label = format!("micro-{}", size);
    let report = cfg.run();
    report.mean_write_time.as_secs_f64()
}

/// Runs the sweep.
pub(crate) fn run() -> Vec<Fig11Row> {
    let strategies = [
        StrategyCfg::CheckFreq,
        StrategyCfg::Gpm,
        StrategyCfg::Gemini,
        StrategyCfg::pccheck(1, 3),
    ];
    let mut rows = Vec::new();
    for size in paper_sizes() {
        for &strategy in &strategies {
            rows.push(Fig11Row {
                size,
                strategy: strategy.name(),
                persist_secs: measure(strategy, size),
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
pub(crate) fn write_csv<W: std::io::Write>(rows: &[Fig11Row], out: W) -> std::io::Result<()> {
    let mut w = CsvWriter::new(out, &["size_gb", "strategy", "persist_secs"]);
    for r in rows {
        w.row(&[
            &format_args!("{:.1}", r.size.as_gb()),
            &r.strategy,
            &format_args!("{:.3}", r.persist_secs),
        ])?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn time_of(rows: &[Fig11Row], strategy: &str, gb: f64) -> f64 {
        rows.iter()
            .find(|r| r.strategy.starts_with(strategy) && (r.size.as_gb() - gb).abs() < 0.01)
            .map(|r| r.persist_secs)
            .expect("row present")
    }

    #[test]
    fn figure11_shapes_hold() {
        let rows = run();
        for gb in [1.1, 4.0, 16.2] {
            let pc = time_of(&rows, "pccheck", gb);
            let cf = time_of(&rows, "checkfreq", gb);
            let gpm = time_of(&rows, "gpm", gb);
            let gem = time_of(&rows, "gemini", gb);
            // Gemini has the lowest time per checkpoint (no storage).
            assert!(gem < pc, "{gb} GB: gemini {gem} vs pccheck {pc}");
            // PCcheck outperforms CheckFreq and GPM (paper: up to 1.9×).
            assert!(pc < cf, "{gb} GB: pccheck {pc} vs checkfreq {cf}");
            assert!(pc < gpm, "{gb} GB: pccheck {pc} vs gpm {gpm}");
            // The paper reports up to 1.9x; our per-writer scaling is more
            // linear (no interleaving penalty), landing nearer 3x — see
            // EXPERIMENTS.md.
            let ratio = cf / pc;
            assert!(
                (1.5..=3.6).contains(&ratio),
                "{gb} GB: checkfreq/pccheck ratio {ratio} out of band"
            );
        }
    }

    #[test]
    fn persist_time_scales_with_size() {
        let rows = run();
        let small = time_of(&rows, "pccheck", 1.1);
        let large = time_of(&rows, "pccheck", 16.2);
        let ratio = large / small;
        assert!(
            (10.0..=20.0).contains(&ratio),
            "16.2/1.1 GB should scale ~linearly, ratio {ratio}"
        );
    }
}
