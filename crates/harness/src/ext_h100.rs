//! Extension experiment: the Azure H100/NVMe variant (§5.2.1).
//!
//! The paper re-ran OPT-1.3B on a `Standard_NC40ads_H100_v5` VM (H100 GPU,
//! 3.5 TB NVMe) and "observed similar patterns for PCcheck and the
//! baselines, since the iteration time was halved, and the disk bandwidth
//! doubled". This experiment regenerates that claim: the same interval
//! sweep on both testbeds, asserting the *pattern* (who wins, where the
//! knee sits) is preserved while absolute throughput doubles.

use pccheck_gpu::ModelZoo;
use pccheck_sim::{SimConfig, StrategyCfg};
use pccheck_util::CsvWriter;

use crate::sweep::{iterations_for, SweepRow};
use crate::PAPER_INTERVALS;

/// Runs the OPT-1.3B sweep on both the A100/pd-ssd and H100/NVMe testbeds.
pub(crate) fn run() -> Vec<SweepRow> {
    let model = ModelZoo::opt_1_3b();
    let strategies = [
        StrategyCfg::CheckFreq,
        StrategyCfg::Gpm,
        StrategyCfg::pccheck(2, 3),
    ];
    let mut rows = Vec::new();
    for &interval in &PAPER_INTERVALS {
        let iters = iterations_for(interval);
        for (testbed, make) in [
            ("A100-ssd", SimConfig::ssd_a100 as fn(_, _, _) -> SimConfig),
            (
                "H100-nvme",
                SimConfig::nvme_h100 as fn(_, _, _) -> SimConfig,
            ),
        ] {
            let ideal = make(&model, interval, iters)
                .with_strategy(StrategyCfg::Ideal)
                .run();
            for &strategy in &strategies {
                let report = make(&model, interval, iters).with_strategy(strategy).run();
                rows.push(SweepRow {
                    model: format!("OPT-1.3B/{testbed}"),
                    strategy: report.strategy.clone(),
                    interval,
                    throughput: report.throughput,
                    slowdown: report.slowdown_vs(&ideal),
                    write_time_secs: report.mean_write_time.as_secs_f64(),
                });
            }
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
    let mut w = CsvWriter::new(
        out,
        &[
            "testbed",
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

#[cfg(test)]
mod tests {
    use super::*;

    fn pick<'a>(
        rows: &'a [SweepRow],
        testbed: &str,
        strategy: &str,
        interval: u64,
    ) -> &'a SweepRow {
        rows.iter()
            .find(|r| {
                r.model.ends_with(testbed)
                    && r.strategy.starts_with(strategy)
                    && r.interval == interval
            })
            .expect("row present")
    }

    #[test]
    fn h100_preserves_the_patterns() {
        let rows = run();
        for &interval in &[10u64, 50] {
            let a100_pc = pick(&rows, "A100-ssd", "pccheck", interval);
            let h100_pc = pick(&rows, "H100-nvme", "pccheck", interval);
            // Halved iteration time → ~doubled absolute throughput.
            let ratio = h100_pc.throughput / a100_pc.throughput;
            assert!(
                (1.6..=2.4).contains(&ratio),
                "interval {interval}: H100/A100 throughput ratio {ratio}"
            );
            // Same pattern: PCcheck within a few % of ideal on both.
            assert!(a100_pc.slowdown < 1.15, "{}", a100_pc.slowdown);
            assert!(h100_pc.slowdown < 1.15, "{}", h100_pc.slowdown);
        }
        // CheckFreq's knee stays: both testbeds show a visible stall at
        // interval 10 (iteration time and Tw halved together, so the ratio
        // Tw/(f·t) is invariant).
        let a100_cf = pick(&rows, "A100-ssd", "checkfreq", 10);
        let h100_cf = pick(&rows, "H100-nvme", "checkfreq", 10);
        assert!(a100_cf.slowdown > 1.5);
        assert!(h100_cf.slowdown > 1.5);
        assert!((a100_cf.slowdown - h100_cf.slowdown).abs() < 0.3);
    }

    #[test]
    fn grid_covers_both_testbeds() {
        let rows = run();
        assert_eq!(rows.len(), 5 * 2 * 3);
        assert!(rows.iter().any(|r| r.model.contains("H100")));
    }
}
