//! Shared sweep helpers: run a (model × interval × strategy) grid of
//! simulations and collect throughput/slowdown/goodput rows.

use pccheck_gpu::ModelSpec;
use pccheck_sim::{SimConfig, SimReport, StrategyCfg};
use pccheck_trace::{GoodputReplay, PreemptionTrace};
use pccheck_util::SimDuration;

/// One (strategy, interval) measurement for a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// Workload name.
    pub model: String,
    /// Strategy name.
    pub strategy: String,
    /// Checkpoint interval in iterations.
    pub interval: u64,
    /// Absolute throughput (iterations/second).
    pub throughput: f64,
    /// Slowdown relative to the no-checkpoint run (≥ 1).
    pub slowdown: f64,
    /// Mean end-to-end checkpoint write time `Tw` (seconds).
    pub(crate) write_time_secs: f64,
}

/// Iterations to simulate for a given interval: enough checkpoint cycles
/// for steady state, bounded to keep sweeps fast.
pub(crate) fn iterations_for(interval: u64) -> u64 {
    (interval * 20).clamp(200, 3000)
}

/// Runs one strategy at one interval on the SSD/A100 testbed.
pub fn run_point(model: &ModelSpec, strategy: StrategyCfg, interval: u64) -> SimReport {
    SimConfig::ssd_a100(model, interval, iterations_for(interval))
        .with_strategy(strategy)
        .run()
}

/// Sweeps `strategies × intervals` for `model`, with slowdowns relative to
/// the ideal run at the same interval count.
pub(crate) fn sweep_ssd(
    model: &ModelSpec,
    strategies: &[StrategyCfg],
    intervals: &[u64],
) -> Vec<SweepRow> {
    let mut rows = Vec::new();
    for &interval in intervals {
        let ideal = SimConfig::ssd_a100(model, interval, iterations_for(interval))
            .with_strategy(StrategyCfg::Ideal)
            .run();
        for &strategy in strategies {
            let report = run_point(model, strategy, interval);
            rows.push(SweepRow {
                model: model.name.to_string(),
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

/// One goodput measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct GoodputRow {
    /// Workload name.
    pub model: String,
    /// Strategy name.
    pub strategy: String,
    /// Checkpoint interval in iterations.
    pub interval: u64,
    /// Useful iterations/second over the trace window.
    pub goodput: f64,
    /// Rollbacks replayed.
    pub rollbacks: usize,
    /// Average iterations lost per rollback.
    pub avg_lost_iterations: f64,
}

/// Checkpoint load time for goodput replays: reading `m` back from the
/// device at its (read ≈ write) bandwidth.
pub fn load_time(model: &ModelSpec) -> SimDuration {
    let cfg = SimConfig::ssd_a100(model, 10, 10);
    cfg.storage_bandwidth.transfer_time(cfg.checkpoint_size)
}

/// Replays the spot trace for `strategies × intervals` on `model`,
/// including the ideal upper bound.
pub(crate) fn goodput_sweep(
    model: &ModelSpec,
    strategies: &[StrategyCfg],
    intervals: &[u64],
    trace: &PreemptionTrace,
) -> Vec<GoodputRow> {
    let replay = GoodputReplay::new(load_time(model));
    let mut rows = Vec::new();
    for &interval in intervals {
        let iter_time = SimConfig::ssd_a100(model, interval, 10).iter_time;
        let ideal = replay.ideal(iter_time, interval, trace);
        rows.push(GoodputRow {
            model: model.name.to_string(),
            strategy: "ideal".into(),
            interval,
            goodput: ideal.goodput,
            rollbacks: ideal.rollbacks,
            avg_lost_iterations: ideal.avg_lost_iterations,
        });
        for &strategy in strategies {
            let report = run_point(model, strategy, interval);
            let g = replay.replay(&report, trace);
            rows.push(GoodputRow {
                model: model.name.to_string(),
                strategy: report.strategy.clone(),
                interval,
                goodput: g.goodput,
                rollbacks: g.rollbacks,
                avg_lost_iterations: g.avg_lost_iterations,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use pccheck_gpu::ModelZoo;

    #[test]
    fn iterations_scale_with_interval() {
        assert_eq!(iterations_for(1), 200);
        assert_eq!(iterations_for(25), 500);
        assert_eq!(iterations_for(100), 2000);
        assert_eq!(iterations_for(1000), 3000);
    }

    #[test]
    fn sweep_produces_full_grid() {
        let rows = sweep_ssd(
            &ModelZoo::vgg16(),
            &[StrategyCfg::CheckFreq, StrategyCfg::pccheck(2, 3)],
            &[10, 50],
        );
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|r| r.slowdown >= 0.99));
        assert!(rows.iter().all(|r| r.throughput > 0.0));
    }

    #[test]
    fn goodput_sweep_includes_ideal() {
        let trace = PreemptionTrace::synthetic_gcp_a100(3);
        let rows = goodput_sweep(
            &ModelZoo::vgg16(),
            &[StrategyCfg::pccheck(2, 3)],
            &[25],
            &trace,
        );
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].strategy, "ideal");
        assert!(rows[0].goodput >= rows[1].goodput * 0.999);
    }

    #[test]
    fn load_time_is_checkpoint_over_bandwidth() {
        // 16.2 GB read back at the raw device rate (1.5 GB/s) ≈ 10.8 s.
        let lt = load_time(&ModelZoo::opt_1_3b());
        assert!(
            (lt.as_secs_f64() - 10.8).abs() < 0.2,
            "got {}",
            lt.as_secs_f64()
        );
    }
}
