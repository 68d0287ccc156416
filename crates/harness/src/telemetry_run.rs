//! Instrumented concrete runs: one training loop, one telemetry timeline.
//!
//! The figure modules replay the paper's experiments through the DES for
//! speed; this module instead runs the *concrete* (wall-clock) substrate
//! with a [`Telemetry`] recorder attached to both the training loop and
//! the checkpointer. One run yields the paper's Fig. 8 ingredients (stall
//! time, per-phase latency) and Fig. 9 ingredients (iteration timeline +
//! commit timeline → rollback depth → goodput) from a single timeline,
//! plus exportable JSONL / Chrome-trace views of the same events.

use std::sync::Arc;

use pccheck::strategy::Medium;
use pccheck::{recover_instrumented, PcCheckEngine, PccheckError, StrategyRow, STRATEGIES};
use pccheck_device::{DeviceConfig, NetworkConfig, NetworkLink, PersistentDevice, SsdDevice};
use pccheck_gpu::{Gpu, GpuConfig, TrainingLoop, TrainingReport, TrainingState};
use pccheck_telemetry::{RunAccounting, Telemetry, TelemetrySnapshot};
use pccheck_util::{ByteSize, SimDuration};

/// Geometry of an instrumented concrete run.
#[derive(Debug, Clone)]
pub struct InstrumentedRunConfig {
    /// Training-state size.
    pub state_bytes: u64,
    /// Iterations to run.
    pub iterations: u64,
    /// Checkpoint every `interval` iterations.
    pub interval: u64,
    /// Modeled compute time per iteration (`T`).
    pub iter_compute: SimDuration,
    /// PCcheck's `N` (the baselines run with N = 1).
    pub max_concurrent: usize,
    /// Synthetic-state seed.
    pub seed: u64,
    /// After training, run the recovery path against the same device and
    /// record its trace. Off by default because recovery opens its own
    /// span and shifts the run's requested/committed counters.
    pub restore_leg: bool,
}

impl Default for InstrumentedRunConfig {
    fn default() -> Self {
        InstrumentedRunConfig {
            state_bytes: 256 * 1024,
            iterations: 20,
            interval: 5,
            iter_compute: SimDuration::ZERO,
            max_concurrent: 2,
            seed: 7,
            restore_leg: false,
        }
    }
}

/// Everything one instrumented run produces.
#[derive(Debug)]
pub struct InstrumentedRun {
    /// The strategy that ran (`pccheck`, `traditional`, `checkfreq`,
    /// `gpm`, or `gemini`).
    pub strategy: String,
    /// Wall-clock training report.
    pub report: TrainingReport,
    /// Aggregated histograms/counters/gauges, with the device queue
    /// gauges read from the run's device after training.
    pub snapshot: TelemetrySnapshot,
    /// Stall/goodput accounting derived from the event stream.
    pub accounting: RunAccounting,
    /// The live handle, for exporting the raw events afterwards.
    pub telemetry: Telemetry,
}

/// Builds the engine of the strategy row `strategy` names over a fresh
/// device of the row's medium, recording to `telemetry`.
fn build_checkpointer(
    strategy: &str,
    cfg: &InstrumentedRunConfig,
    gpu: &Gpu,
    telemetry: &Telemetry,
) -> Result<(PcCheckEngine, Arc<dyn PersistentDevice>), PccheckError> {
    let row = StrategyRow::named(strategy).ok_or_else(|| {
        PccheckError::InvalidConfig(format!(
            "unknown strategy {strategy:?} (expected {})",
            STRATEGIES.map(|row| row.name()).join("|")
        ))
    })?;
    let state = gpu.state_size();
    let cap = row.required_capacity(cfg.max_concurrent, state);
    let device: Arc<dyn PersistentDevice> = match row.medium() {
        Medium::Storage => Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap))),
        Medium::PeerDram => Arc::new(NetworkLink::new(NetworkConfig::fast_for_tests(), cap)),
    };
    let engine = row
        .build(cfg.max_concurrent, Arc::clone(&device), state)?
        .with_telemetry(telemetry.clone());
    Ok((engine, device))
}

/// Runs `strategy` under `cfg` with telemetry attached to both the
/// training loop and the checkpointer.
///
/// # Errors
///
/// Returns [`PccheckError::InvalidConfig`] for an unknown strategy or
/// invalid geometry; device errors surface from the engine.
pub fn run_instrumented(
    strategy: &str,
    cfg: &InstrumentedRunConfig,
) -> Result<InstrumentedRun, PccheckError> {
    let telemetry = Telemetry::enabled();
    let gpu = Gpu::new(
        GpuConfig::fast_for_tests(),
        TrainingState::synthetic(ByteSize::from_bytes(cfg.state_bytes), cfg.seed),
    );
    let (ckpt, device) = build_checkpointer(strategy, cfg, &gpu, &telemetry)?;
    let lp = TrainingLoop::new(gpu, cfg.iter_compute)
        .with_interval(cfg.interval)
        .with_telemetry(telemetry.clone());
    let report = lp.run(cfg.iterations, &ckpt);
    if cfg.restore_leg {
        recover_instrumented(Arc::clone(&device), &telemetry)?;
    }
    let accounting = RunAccounting::from_events(&telemetry.events());
    let mut snapshot = telemetry
        .snapshot()
        .expect("telemetry was constructed enabled");
    snapshot.observe_device(device.as_ref());
    Ok(InstrumentedRun {
        strategy: strategy.to_string(),
        report,
        snapshot,
        accounting,
        telemetry,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pccheck_telemetry::Phase;

    #[test]
    fn pccheck_run_produces_full_telemetry() {
        let cfg = InstrumentedRunConfig::default();
        let run = run_instrumented("pccheck", &cfg).unwrap();
        assert_eq!(run.report.checkpoints_requested, 4);
        assert_eq!(run.snapshot.counters.requested, 4);
        assert_eq!(run.snapshot.counters.terminated(), 4);
        assert_eq!(run.accounting.iterations, 20);
        assert!(run.snapshot.phase(Phase::Persist).count >= 1);
        assert!(
            run.snapshot.device_queue_peak[0] >= 1,
            "the device's own peak"
        );
        assert!(run.accounting.throughput() > 0.0);
        // Online accounting agrees with the training report's iteration
        // count and produces a finite slowdown.
        assert!(run.accounting.slowdown().is_finite());
    }

    #[test]
    fn every_strategy_runs_and_commits() {
        let cfg = InstrumentedRunConfig {
            iterations: 10,
            interval: 5,
            ..InstrumentedRunConfig::default()
        };
        for strategy in STRATEGIES.map(|row| row.name()) {
            let run = run_instrumented(strategy, &cfg).unwrap();
            assert_eq!(run.strategy, strategy);
            assert_eq!(run.snapshot.counters.requested, 2, "{strategy}");
            assert!(run.snapshot.counters.committed >= 1, "{strategy}");
            assert_eq!(run.snapshot.counters.failed, 0, "{strategy}");
        }
    }

    #[test]
    fn restore_leg_appends_a_recovery_span() {
        let cfg = InstrumentedRunConfig {
            restore_leg: true,
            ..InstrumentedRunConfig::default()
        };
        let run = run_instrumented("pccheck", &cfg).unwrap();
        // The run checkpoints at iterations 5/10/15/20; the recovery span
        // rides the same timeline: one extra requested span beyond the
        // training run's four.
        assert_eq!(run.snapshot.counters.requested, 5);
        // A baseline writes the same store, and recovers the same way.
        let run = run_instrumented("traditional", &cfg).unwrap();
        assert_eq!(run.snapshot.counters.requested, 5);
    }

    #[test]
    fn unknown_strategy_is_rejected() {
        let err = run_instrumented("dynamo", &InstrumentedRunConfig::default()).unwrap_err();
        assert!(matches!(err, PccheckError::InvalidConfig(_)));
    }
}
