//! Crash-consistency property tests: no matter when the crash happens —
//! and even under the adversarial cache-line-granular crash policy — the
//! recovery invariant holds: once any checkpoint has committed, recovery
//! yields a *complete, verified* checkpoint whose iteration never goes
//! backwards across crashes.

mod common;

use std::sync::Arc;

use pccheck::{
    recovery, CheckpointStore, FrameTable, PcCheckConfig, PcCheckEngine, PccheckError,
    StoreGeometry, DEFAULT_JOB,
};
use pccheck_device::{CrashPolicy, DeviceConfig, PersistentDevice, SsdDevice};
use pccheck_gpu::{Checkpointer, Gpu, GpuConfig, TrainingState};
use pccheck_util::rng::check;
use pccheck_util::ByteSize;

const STATE: u64 = 4096;

/// Cases per seeded property.
const CASES: u64 = 24;

fn run_with_crash(
    crash_after_ckpt: usize,
    drain_before_crash: bool,
    policy: CrashPolicy,
    seed: u64,
) -> Result<u64, PccheckError> {
    let size = ByteSize::from_bytes(STATE);
    let gpu = Gpu::new(
        GpuConfig::fast_for_tests(),
        TrainingState::synthetic(size, seed),
    );
    let cap = CheckpointStore::required_capacity(size, 3) + ByteSize::from_kb(4);
    let ssd = Arc::new(SsdDevice::with_crash_policy(
        DeviceConfig::fast_for_tests(cap),
        policy,
    ));
    let dev: Arc<dyn PersistentDevice> = ssd.clone();
    let engine = PcCheckEngine::new(
        PcCheckConfig::builder()
            .max_concurrent(2)
            .writer_threads(2)
            .chunk_size(ByteSize::from_bytes(512))
            .dram_chunks(6)
            .build()?,
        dev,
        size,
    )?;

    let mut issued = 0usize;
    for iter in 1..=10u64 {
        gpu.update();
        engine.checkpoint(&gpu, iter);
        issued += 1;
        if issued == crash_after_ckpt {
            break;
        }
    }
    if drain_before_crash {
        engine.drain();
    }
    ssd.crash_now();
    engine.drain(); // background workers observe the crash and bail
    ssd.recover();
    let rec = recovery::recover(ssd)?;
    // Verify the payload end to end against the state layout.
    let layout = gpu.with_weights(|s| s.layout());
    recovery::verify_against_state(&rec, &layout)?;
    Ok(rec.iteration)
}

/// Drained checkpoints always recover exactly; the iteration equals the
/// last drained boundary.
#[test]
fn drained_checkpoints_always_recover() {
    check(CASES, |r| {
        let (k, seed) = (r.range(1..8), r.next_u64());
        let iter = run_with_crash(k as usize, true, CrashPolicy::DropUnpersisted, seed)
            .expect("drained checkpoint must recover");
        assert_eq!(iter, k);
    });
}

/// Crashing with checkpoints still in flight recovers to SOME earlier
/// committed checkpoint — never a torn one (verification would fail) —
/// or reports NoCheckpoint if the crash beat the very first commit.
#[test]
fn inflight_crash_recovers_to_valid_prefix() {
    check(CASES, |r| {
        let (k, seed) = (r.range(1..8), r.next_u64());
        match run_with_crash(k as usize, false, CrashPolicy::DropUnpersisted, seed) {
            Ok(iter) => assert!(iter <= k, "recovered {iter} > issued {k}"),
            Err(PccheckError::NoCheckpoint) => {} // crash won the race; fine
            Err(e) => panic!("unexpected recovery failure: {e}"),
        }
    });
}

/// The adversarial policy (unfenced cache lines may survive) must never
/// produce a checkpoint that passes verification but holds wrong data:
/// verification is part of recovery here, so any Ok result is genuine.
#[test]
fn adversarial_crashes_never_yield_torn_checkpoints() {
    check(CASES, |r| {
        let (k, drain, seed) = (r.range(1..6), r.bool(), r.next_u64());
        match run_with_crash(k as usize, drain, CrashPolicy::RandomPartial { seed }, seed) {
            Ok(iter) => assert!(iter <= k),
            Err(PccheckError::NoCheckpoint) => assert!(
                !drain,
                "a drained checkpoint must survive even adversarial crashes"
            ),
            Err(PccheckError::CorruptCheckpoint { .. }) => {
                panic!("recovery must never select a checkpoint that fails verification")
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    });
}

#[test]
fn repeated_crash_recover_cycles_never_regress() {
    // Alternate training/checkpointing with crashes; the recovered
    // iteration must be monotonically non-decreasing across cycles.
    let size = ByteSize::from_bytes(STATE);
    let slot = FrameTable::slot_size_for(size, ByteSize::from_bytes(512));
    let cap = CheckpointStore::required_capacity(slot, 3) + ByteSize::from_kb(4);
    let ssd = Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
    let gpu = Gpu::new(
        GpuConfig::fast_for_tests(),
        TrainingState::synthetic(size, 7),
    );

    let mut last_recovered = 0u64;
    let mut iter = 0u64;
    for cycle in 0..5 {
        let dev: Arc<dyn PersistentDevice> = ssd.clone();
        let store = if cycle == 0 {
            CheckpointStore::format(dev, StoreGeometry::single(slot, 3)).expect("format")
        } else {
            CheckpointStore::open(dev).expect("reopen")
        };
        let engine = PcCheckEngine::with_store(
            PcCheckConfig::builder()
                .max_concurrent(2)
                .writer_threads(2)
                .chunk_size(ByteSize::from_bytes(512))
                .dram_chunks(6)
                .build()
                .expect("valid"),
            Arc::new(store),
        )
        .expect("engine");
        for _ in 0..3 {
            iter += 1;
            gpu.update();
            engine.checkpoint(&gpu, iter);
        }
        engine.drain();
        ssd.crash_now();
        ssd.recover();
        let rec = recovery::recover(ssd.clone()).expect("recoverable");
        assert!(
            rec.iteration >= last_recovered,
            "cycle {cycle}: regressed from {last_recovered} to {}",
            rec.iteration
        );
        last_recovered = rec.iteration;
    }
    assert_eq!(last_recovered, 15);
}

/// The crash sweep over the single-tenant rows of the crash matrix (flat
/// and striped devices; all-`Raw` and codec-packed checkpoints;
/// `tests/multi_tenant_crash.rs` sweeps the shared-store rows): the tenant
/// is driven through the real pipeline and the device crashes on its
/// `k`-th persist, for every `k` until the run outlasts the fuse, once
/// dropping every unsynced byte and once tearing the unsynced cache lines
/// under a seed derived from `(row, tenant, k)`. Every crash must pass
/// `ForensicsRun::verify`: a clean audit of the frozen device, prediction
/// == recovery, bit-exact bytes no older than the last acknowledged
/// commit, a state-word lattice that agrees, and a store that checkpoints
/// again. Over each row the tenant is caught in every in-flight phase and
/// committed, and a codec row recovers a linked frame. A failure names its
/// repro.
#[test]
fn forensic_verdicts_match_actual_recovery_at_every_crash_point() {
    common::sweep_crash_matrix(|cfg| cfg.tenants == [DEFAULT_JOB]);
}

/// The auditor also understands stores the *engine* wrote: run a real
/// concurrent engine on a flight-enabled store, crash it mid-flight, and
/// the audit must stay invariant-clean with its expected-recovery target
/// matching actual recovery.
#[test]
fn engine_crash_with_flight_ring_audits_clean() {
    let size = ByteSize::from_bytes(STATE);
    let geometry = StoreGeometry {
        flight_records: 128,
        ..StoreGeometry::single(size, 3)
    };
    let cap = geometry.required_capacity() + ByteSize::from_kb(4);
    let ssd = Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
    let dev: Arc<dyn PersistentDevice> = ssd.clone();
    let gpu = Gpu::new(
        GpuConfig::fast_for_tests(),
        TrainingState::synthetic(size, 11),
    );
    let engine = PcCheckEngine::new(
        PcCheckConfig::builder()
            .max_concurrent(2)
            .writer_threads(2)
            .chunk_size(ByteSize::from_bytes(512))
            .dram_chunks(6)
            .flight_records(128)
            .build()
            .expect("valid"),
        dev,
        size,
    )
    .expect("engine");
    for iter in 1..=6u64 {
        gpu.update();
        engine.checkpoint(&gpu, iter);
    }
    ssd.crash_now();
    engine.drain();

    let report = pccheck_monitor::audit(ssd.clone()).expect("audit");
    assert!(report.is_clean(), "{}", report.render());
    assert!(report.ring_records > 0, "engine wrote flight records");

    ssd.recover();
    match recovery::recover(ssd) {
        Ok(rec) => assert_eq!(
            report.expected_recovery(DEFAULT_JOB).map(|m| m.iteration),
            Some(rec.iteration)
        ),
        Err(PccheckError::NoCheckpoint) => {
            assert!(report.expected_recovery(DEFAULT_JOB).is_none());
        }
        Err(e) => panic!("unexpected recovery failure: {e}"),
    }
}
