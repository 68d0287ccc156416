//! Figure 10: checkpointing overhead for BERT on the Intel Optane PMEM
//! machine (TitanRTX GPU). PMEM's higher bandwidth shrinks everyone's
//! overhead; PCcheck still wins at every frequency.

use pccheck_gpu::ModelZoo;
use pccheck_sim::{SimConfig, StrategyCfg};

use crate::sweep::{iterations_for, SweepRow};
use crate::PAPER_INTERVALS;

/// Runs the PMEM BERT sweep.
pub(crate) fn run() -> Vec<SweepRow> {
    let model = ModelZoo::bert();
    let strategies = [
        StrategyCfg::CheckFreq,
        StrategyCfg::Gpm,
        StrategyCfg::pccheck(2, 3),
    ];
    let mut rows = Vec::new();
    for &interval in &PAPER_INTERVALS {
        let ideal = SimConfig::pmem_rtx(&model, interval, iterations_for(interval))
            .with_strategy(StrategyCfg::Ideal)
            .run();
        for &strategy in &strategies {
            let report = SimConfig::pmem_rtx(&model, interval, iterations_for(interval))
                .with_strategy(strategy)
                .run();
            rows.push(SweepRow {
                model: "BERT-PMEM".into(),
                strategy: report.strategy.clone(),
                interval,
                throughput: report.throughput,
                slowdown: report.slowdown_vs(&ideal),
                write_time_secs: report.mean_write_time.as_secs_f64(),
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
pub(crate) fn write_csv<W: std::io::Write>(rows: &[SweepRow], out: W) -> std::io::Result<()> {
    crate::fig8_throughput::write_csv(rows, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fig8_throughput::run_model;

    fn slowdown(rows: &[SweepRow], strategy: &str, interval: u64) -> f64 {
        rows.iter()
            .find(|r| r.strategy.starts_with(strategy) && r.interval == interval)
            .map(|r| r.slowdown)
            .expect("row present")
    }

    #[test]
    fn pccheck_wins_at_every_frequency_on_pmem() {
        let rows = run();
        for &interval in &PAPER_INTERVALS {
            let pc = slowdown(&rows, "pccheck", interval);
            let cf = slowdown(&rows, "checkfreq", interval);
            let gpm = slowdown(&rows, "gpm", interval);
            assert!(pc <= cf * 1.01, "interval {interval}: pc {pc} cf {cf}");
            assert!(pc <= gpm * 1.01, "interval {interval}: pc {pc} gpm {gpm}");
        }
    }

    #[test]
    fn pmem_overheads_are_lower_than_ssd() {
        // §5.2.4: PMEM bandwidth is higher than the SSD's, so CheckFreq and
        // GPM perform better than in the SSD setup.
        let pmem = run();
        let ssd = run_model("BERT");
        // At interval 1 CheckFreq's stall is bandwidth-bound, so the faster
        // media shows directly.
        let cf_pmem = slowdown(&pmem, "checkfreq", 1);
        let cf_ssd = slowdown(&ssd, "checkfreq", 1);
        assert!(
            cf_pmem < cf_ssd,
            "interval 1: PMEM {cf_pmem} should beat SSD {cf_ssd}"
        );
        let gpm_pmem = slowdown(&pmem, "gpm", 10);
        let gpm_ssd = slowdown(&ssd, "gpm", 10);
        assert!(gpm_pmem < gpm_ssd, "gpm: PMEM {gpm_pmem} vs SSD {gpm_ssd}");
    }

    #[test]
    fn pccheck_interval_10_on_pmem_is_cheap() {
        // §5.2.4: checkpointing every 10 instead of every 100 iterations
        // keeps the same (small) overhead while recovering 10× faster.
        let rows = run();
        let pc10 = slowdown(&rows, "pccheck", 10);
        let pc100 = slowdown(&rows, "pccheck", 100);
        assert!(pc10 < 1.12, "pccheck@10 on PMEM {pc10}");
        assert!((pc10 - pc100).abs() < 0.1);
    }
}
