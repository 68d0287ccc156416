//! Profiled concrete runs: one canonical checkpoint workload, one
//! archived [`RunProfile`] per run name.
//!
//! `pccheckctl profile <run>` runs the canonical workload and archives its
//! profile as `results/profiles/<run>.profile.json`, so two runs on the
//! same machine are directly diffable with
//! [`diff_profiles`](pccheck_telemetry::diff_profiles) (absolute mode) and
//! any run is diffable against the checked-in CI baseline (shares mode —
//! scale-invariant, so machine speed drops out and only the *shape* of the
//! critical path gates).

use std::path::PathBuf;
use std::sync::Arc;

use pccheck::{recover_instrumented, CheckpointStore, PcCheckConfig, PcCheckEngine, PccheckError};
use pccheck_device::{DeviceConfig, PersistentDevice, SsdDevice, StripedDevice};
use pccheck_gpu::{Checkpointer, Gpu, GpuConfig, TrainingLoop, TrainingState};
use pccheck_telemetry::{
    build_ledgers, ProfileArchive, RunProfile, Telemetry, TelemetryIoObserver,
};
use pccheck_util::{Bandwidth, ByteSize, SimDuration};

/// Geometry of a profiled run.
#[derive(Debug, Clone)]
pub struct ProfileRunConfig {
    /// Training-state size in bytes.
    pub state_bytes: u64,
    /// Iterations to run.
    pub iterations: u64,
    /// Checkpoint every `interval` iterations.
    pub interval: u64,
    /// Stripe width of the backing store.
    pub stripe_ways: usize,
    /// Per-member write-bandwidth throttle; `None` runs unthrottled.
    pub member_mb_per_sec: Option<f64>,
    /// Persist-pipeline writer threads.
    pub writer_threads: usize,
    /// PCcheck's `N` (concurrent checkpoints).
    pub max_concurrent: usize,
    /// DRAM chunk size in KiB.
    pub chunk_kb: u64,
    /// DRAM chunk-pool depth.
    pub dram_chunks: usize,
    /// Synthetic-state seed.
    pub seed: u64,
    /// Also run the recovery path and fold its span into the profile.
    pub restore_leg: bool,
}

impl Default for ProfileRunConfig {
    fn default() -> Self {
        ProfileRunConfig {
            state_bytes: 256 * 1024,
            iterations: 12,
            interval: 2,
            stripe_ways: 4,
            member_mb_per_sec: None,
            writer_threads: 4,
            max_concurrent: 2,
            chunk_kb: 16,
            dram_chunks: 8,
            seed: 7,
            restore_leg: false,
        }
    }
}

impl ProfileRunConfig {
    /// The CI gate geometry: throttled enough that Persist dominates the
    /// critical path on any machine, making the shares-mode baseline
    /// stable across hardware.
    pub fn ci_gate() -> Self {
        ProfileRunConfig {
            member_mb_per_sec: Some(256.0),
            ..ProfileRunConfig::default()
        }
    }
}

/// Everything one profiled run produces.
#[derive(Debug)]
pub struct ProfiledRun {
    /// The archived summary.
    pub profile: RunProfile,
    /// The live handle, for exporting raw events or annotated traces.
    pub telemetry: Telemetry,
}

/// Opens the shared on-disk profile archive, creating `results/profiles/`
/// if needed.
///
/// # Errors
///
/// Propagates directory-creation failures.
pub fn archive() -> std::io::Result<ProfileArchive> {
    ProfileArchive::open(PathBuf::from(crate::RESULTS_DIR).join("profiles"))
}

/// Runs the canonical profiled workload under `cfg` and returns its
/// profile, named `run`.
///
/// # Errors
///
/// Returns [`PccheckError::InvalidConfig`] for invalid geometry; device
/// errors surface from the engine.
pub fn run_profiled(run: &str, cfg: &ProfileRunConfig) -> Result<ProfiledRun, PccheckError> {
    let state = ByteSize::from_bytes(cfg.state_bytes);
    let slots = cfg.max_concurrent as u32 + 1;
    let cap = CheckpointStore::required_capacity(state, slots) + ByteSize::from_kb(4);
    let member_cfg = match cfg.member_mb_per_sec {
        Some(mb) => DeviceConfig {
            capacity: cap,
            write_bandwidth: Bandwidth::from_mb_per_sec(mb),
            throttled: true,
        },
        None => DeviceConfig::fast_for_tests(cap),
    };
    let telemetry = Telemetry::enabled();
    let device: Arc<dyn PersistentDevice> = if cfg.stripe_ways > 1 {
        let members: Vec<Arc<dyn PersistentDevice>> = (0..cfg.stripe_ways)
            .map(|_| Arc::new(SsdDevice::new(member_cfg.clone())) as Arc<dyn PersistentDevice>)
            .collect();
        let striped = Arc::new(StripedDevice::new(members, ByteSize::from_kb(4)));
        striped.set_io_observer(Arc::new(TelemetryIoObserver::new(telemetry.clone())));
        striped
    } else {
        Arc::new(SsdDevice::new(member_cfg))
    };
    let gpu = Gpu::new(
        GpuConfig::fast_for_tests(),
        TrainingState::synthetic(state, cfg.seed),
    );
    let engine = PcCheckEngine::new(
        PcCheckConfig::builder()
            .max_concurrent(cfg.max_concurrent)
            .writer_threads(cfg.writer_threads)
            .chunk_size(ByteSize::from_kb(cfg.chunk_kb))
            .dram_chunks(cfg.dram_chunks)
            .build()?,
        Arc::clone(&device),
        gpu.state_size(),
    )?
    .with_telemetry(telemetry.clone());
    let lp = TrainingLoop::new(gpu, SimDuration::ZERO)
        .with_interval(cfg.interval)
        .with_telemetry(telemetry.clone());
    lp.run(cfg.iterations, &engine);
    engine.drain();
    if cfg.restore_leg {
        recover_instrumented(device, &telemetry)?;
    }
    let profile = RunProfile::from_ledgers(run, &build_ledgers(&telemetry.events()));
    Ok(ProfiledRun { profile, telemetry })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pccheck_telemetry::{diff_profiles, DiffMode, DiffThresholds, NodeKind};

    #[test]
    fn profiled_run_yields_committed_ledgers_and_writer_legs() {
        let run = run_profiled("unit_profile", &ProfileRunConfig::default()).unwrap();
        assert_eq!(run.profile.run, "unit_profile");
        assert!(run.profile.commits >= 1, "{:?}", run.profile);
        assert!(run.profile.critical_nanos_median > 0);
        // Writer legs and stripe-member legs both landed in the ledgers.
        let ledgers = build_ledgers(&run.telemetry.events());
        let has = |kind: NodeKind| {
            ledgers
                .iter()
                .any(|l| l.nodes.iter().any(|n| n.kind == kind))
        };
        assert!(has(NodeKind::Writer), "no writer legs attributed");
        assert!(has(NodeKind::Device), "no stripe-member legs attributed");
        // Persist is on the critical path of at least one commit.
        assert!(run.profile.critical_share("persist") > 0.0);
    }

    #[test]
    fn throttled_run_flags_persist_regression_against_fast_run() {
        let fast = run_profiled("fast", &ProfileRunConfig::default()).unwrap();
        let slow = run_profiled(
            "slow",
            &ProfileRunConfig {
                member_mb_per_sec: Some(4.0),
                ..ProfileRunConfig::default()
            },
        )
        .unwrap();
        let d = diff_profiles(
            &fast.profile,
            &slow.profile,
            DiffMode::Absolute,
            &DiffThresholds::default(),
        );
        assert!(d.regressed, "throttled run must flag");
        assert_eq!(d.blamed_phase.as_deref(), Some("persist"));
        let actor = d.blamed_actor.expect("persist blame names an actor");
        assert!(
            actor.starts_with("writer-") || actor.starts_with("stripe-"),
            "{actor}"
        );
    }
}
