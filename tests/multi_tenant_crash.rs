//! Multi-tenant crash consistency: two jobs interleave checkpoints
//! through one shared store (shared pipeline, shared QoS arbiter, shared
//! staging DRAM), and the power cord is pulled at five different
//! protocol points. After every crash:
//!
//! * the forensic audit of the frozen device is invariant-clean,
//! * each namespace independently recovers a complete, verified
//!   checkpoint (or honestly reports `NoCheckpoint`),
//! * one tenant's in-flight work never corrupts — or rolls back — the
//!   other tenant's committed state,
//! * the audit's per-namespace recovery prediction matches what that
//!   tenant's recovery actually restores.
//!
//! The last test sweeps the shared-store rows of the crash matrix
//! (`tests/crash_consistency.rs` sweeps the single-tenant rows): each
//! tenant in turn is driven through the real pipeline and crashed on
//! every persist while the bystanders must recover their own baselines
//! bit-exactly.

mod common;

use std::sync::Arc;

use pccheck::{
    recover_instrumented_with, recovery, CheckpointStore, FrameTable, PcCheckConfig, PcCheckEngine,
    PccheckError, PersistPipeline, QosArbiter, QosConfig, RestoreOptions, StoreGeometry,
    DEFAULT_JOB,
};
use pccheck_device::{DeviceConfig, HostBufferPool, PersistentDevice, SsdDevice};
use pccheck_gpu::{Checkpointer, Gpu, GpuConfig, TrainingState};
use pccheck_telemetry::Telemetry;
use pccheck_util::ByteSize;

const STATE: u64 = 4096;
const CHUNK: u64 = 512;
const SLOTS: u32 = 8;
const FLIGHT: u32 = 128;

/// Two engine facades over one shared store/pipeline, plus the crashable
/// device underneath and each tenant's GPU.
struct Tenants {
    ssd: Arc<SsdDevice>,
    engines: [Arc<PcCheckEngine>; 2],
    gpus: [Gpu; 2],
}

fn tenants() -> Tenants {
    let (size, chunk) = (ByteSize::from_bytes(STATE), ByteSize::from_bytes(CHUNK));
    let geometry = StoreGeometry {
        slot_size: FrameTable::slot_size_for(size, chunk),
        slots: SLOTS,
        flight_records: FLIGHT,
        max_namespaces: 4,
    };
    let cap = geometry.required_capacity() + ByteSize::from_kb(4);
    let ssd = Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
    let dev: Arc<dyn PersistentDevice> = ssd.clone();
    let store = Arc::new(CheckpointStore::format(dev, geometry).expect("format"));
    store.allocate_namespace(1, 4).expect("ns 1");
    store.allocate_namespace(2, 4).expect("ns 2");
    let qos = Arc::new(QosArbiter::new(QosConfig::default()));
    qos.register_job(1, 1);
    qos.register_job(2, 2);
    let pipeline = Arc::new(
        PersistPipeline::new(Arc::clone(&store), HostBufferPool::new(chunk, 6))
            .with_writers(2)
            .with_qos(qos),
    );
    let config = PcCheckConfig::builder()
        .max_concurrent(2)
        .writer_threads(2)
        .chunk_size(chunk)
        .dram_chunks(6)
        .build()
        .expect("valid config");
    let engines = [
        Arc::new(
            PcCheckEngine::with_shared(config.clone(), Arc::clone(&pipeline), 1).expect("job 1"),
        ),
        Arc::new(PcCheckEngine::with_shared(config, Arc::clone(&pipeline), 2).expect("job 2")),
    ];
    let gpus = [
        Gpu::new(
            GpuConfig::fast_for_tests(),
            TrainingState::synthetic(ByteSize::from_bytes(STATE), 101),
        ),
        Gpu::new(
            GpuConfig::fast_for_tests(),
            TrainingState::synthetic(ByteSize::from_bytes(STATE), 202),
        ),
    ];
    Tenants { ssd, engines, gpus }
}

/// Issue `iters` interleaved checkpoints on both tenants (job 1 gets
/// even iterations, job 2 odd — both streams advance concurrently).
fn interleave(t: &Tenants, from: u64, iters: u64) {
    for iter in from..from + iters {
        for (i, engine) in t.engines.iter().enumerate() {
            t.gpus[i].update();
            engine.checkpoint(&t.gpus[i], iter);
        }
    }
}

/// Post-crash verdict for one namespace: the audit's prediction, the
/// actual recovery, and full payload verification against that tenant's
/// state layout.
fn check_namespace(t: &Tenants, job: u64, issued_max: u64) -> Option<u64> {
    let report =
        pccheck_monitor::audit(t.ssd.clone() as Arc<dyn PersistentDevice>).expect("audit runs");
    assert!(report.is_clean(), "job {job}: {}", report.render());
    let predicted = report.expected_recovery(job);
    let options = RestoreOptions {
        job: Some(job),
        ..RestoreOptions::default()
    };
    match recover_instrumented_with(t.ssd.clone(), &Telemetry::disabled(), options) {
        Ok((rec, _)) => {
            assert!(
                rec.iteration <= issued_max,
                "job {job} recovered iteration {} > issued {issued_max}",
                rec.iteration
            );
            assert_eq!(
                predicted.map(|m| m.counter),
                Some(rec.counter),
                "job {job}: audit prediction and recovery disagree"
            );
            let layout = t.gpus[(job - 1) as usize].with_weights(|s| s.layout());
            recovery::verify_against_state(&rec, &layout).expect("verified payload");
            Some(rec.iteration)
        }
        Err(PccheckError::NoCheckpoint) => {
            assert!(predicted.is_none(), "job {job}: audit predicted a head");
            None
        }
        Err(e) => panic!("job {job}: unexpected recovery failure: {e}"),
    }
}

fn crash(t: &Tenants) {
    t.ssd.crash_now();
    for engine in &t.engines {
        engine.drain(); // workers observe the crash and bail
    }
    t.ssd.recover();
}

/// Crash point 1: both tenants have checkpoints in flight, nothing is
/// known to be committed yet. Each namespace either recovers a valid
/// prefix or honestly has nothing — and the audit stays clean.
#[test]
fn crash_with_first_checkpoints_in_flight() {
    let t = tenants();
    interleave(&t, 1, 1);
    crash(&t);
    check_namespace(&t, 1, 1);
    check_namespace(&t, 2, 1);
}

/// Crash point 2: tenant 1 has committed; tenant 2 is mid-flight. The
/// bystander's committed checkpoint must survive its neighbor's torn
/// in-flight write.
#[test]
fn crash_during_neighbor_flight_preserves_committed_tenant() {
    let t = tenants();
    t.gpus[0].update();
    t.engines[0].checkpoint(&t.gpus[0], 1);
    t.engines[0].drain();
    assert!(t.engines[0].last_committed().is_some());
    // Tenant 2 starts a burst, then the crash lands mid-flight.
    for iter in 1..=3u64 {
        t.gpus[1].update();
        t.engines[1].checkpoint(&t.gpus[1], iter);
    }
    crash(&t);
    let rec1 = check_namespace(&t, 1, 1);
    assert_eq!(rec1, Some(1), "tenant 1's drained commit must survive");
    check_namespace(&t, 2, 3);
}

/// Crash point 3: both tenants have committed history AND new work in
/// flight. Neither namespace may roll back below its drained baseline.
#[test]
fn crash_mid_burst_never_rolls_back_either_baseline() {
    let t = tenants();
    interleave(&t, 1, 2);
    for engine in &t.engines {
        engine.drain();
    }
    let baselines: Vec<u64> = t
        .engines
        .iter()
        .map(|e| e.last_committed().expect("drained").iteration)
        .collect();
    interleave(&t, 3, 2); // new in-flight work on both
    crash(&t);
    for job in [1u64, 2] {
        let rec = check_namespace(&t, job, 4).expect("baseline survives");
        assert!(
            rec >= baselines[(job - 1) as usize],
            "job {job} rolled back from {} to {rec}",
            baselines[(job - 1) as usize]
        );
    }
}

/// Crash point 4: clean shutdown shape — both tenants drained, then the
/// crash. Recovery must restore each tenant's exact final iteration.
#[test]
fn crash_after_both_drained_recovers_exact_iterations() {
    let t = tenants();
    interleave(&t, 1, 3);
    for engine in &t.engines {
        engine.drain();
    }
    let finals: Vec<u64> = t
        .engines
        .iter()
        .map(|e| e.last_committed().expect("drained").iteration)
        .collect();
    crash(&t);
    for job in [1u64, 2] {
        let rec = check_namespace(&t, job, 3).expect("drained commit survives");
        assert_eq!(rec, finals[(job - 1) as usize], "job {job}");
    }
}

/// Crash point 5: asymmetric lifecycle — tenant 1 drained and idle,
/// tenant 2 still bursting when the cord is pulled. The idle tenant
/// recovers exactly; the active one recovers a valid prefix.
#[test]
fn crash_with_one_tenant_idle_and_one_bursting() {
    let t = tenants();
    t.gpus[0].update();
    t.engines[0].checkpoint(&t.gpus[0], 1);
    t.gpus[0].update();
    t.engines[0].checkpoint(&t.gpus[0], 2);
    t.engines[0].drain();
    let idle_final = t.engines[0].last_committed().expect("drained").iteration;
    for iter in 1..=4u64 {
        t.gpus[1].update();
        t.engines[1].checkpoint(&t.gpus[1], iter);
    }
    crash(&t);
    let rec1 = check_namespace(&t, 1, 2).expect("idle tenant survives");
    assert_eq!(rec1, idle_final);
    check_namespace(&t, 2, 4);
}

/// The crash sweep over the shared-store rows of the crash matrix: on a
/// flat and a striped device, over all-`Raw` and codec-packed
/// baselines, each of jobs 1..=3 in turn is driven through the real
/// pipeline and crashed on its `k`-th persist, for every `k`, while the
/// other two hold their baselines. The audit, the state-word lattice,
/// that tenant's recovery and the bit-exact payload must agree, the
/// bystanders must recover their baselines bit-exactly — and asking for
/// nobody in particular must not hand out a neighbour's checkpoint.
#[test]
fn forensic_verdicts_match_actual_recovery_for_every_tenant_at_every_crash_point() {
    common::sweep_crash_matrix(|cfg| cfg.tenants != [DEFAULT_JOB]);
}
