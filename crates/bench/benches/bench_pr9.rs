//! Lock-free commit-path benchmark: commit throughput at 1→2→4→8
//! concurrent checkpointers versus the pre-PR locked metadata path, plus
//! a crash-audit matrix proving the state lattice stays decidable at
//! every crash point on flat, striped, and two-tenant stores — emitted
//! as `BENCH_pr9.json` at the repository root.
//!
//! The throughput leg uses small checkpoints (1 KiB) so the metadata
//! commit — not data movement — dominates each operation: that is the
//! path this PR un-serialized. The *locked* arm reconstructs the old
//! behavior with a bench-local mutex held across `begin_checkpoint` and
//! across `commit` (where `check_addr_io: Mutex<u64>` and the commit
//! `io_lock` used to serialize every checkpointer's metadata I/O); the
//! *lock-free* arm is the store as shipped.
//!
//! Acceptance follows the bench_pr6/pr8 precedent for single-core
//! hosts: the wall-clock ratios are reported, but gated only when the
//! host has at least as many cores as the widest arm (threads
//! time-sharing one core measure the scheduler, not the protocol).
//! What is always gated is the deterministic fluid model: per commit,
//! the locked path serializes all three metadata records (slot meta +
//! committed state word + CHECK_ADDR, 64 B each) behind one lock, while
//! the lock-free path's only serialized device write is the shared
//! CHECK_ADDR record — claim CAS, meta publish, and the state-word
//! publish all land in per-slot locations and overlap freely, and the
//! head advance is a single `fetch_max`.
//!
//! The crash leg runs all six crash points (claim-publish, during-copy,
//! during-persist, between-persist-and-commit, after-commit,
//! dedup-chain) on a flat SSD store, a 2-way striped store, and a
//! two-tenant service-mode store, asserting for every run that the
//! forensic audit is invariant-clean, that no slot decides `Torn`, and
//! that the auditor's prediction (global or per-namespace) matches what
//! recovery actually restores, slot by slot.

use std::fmt::Write as _;
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

use pccheck::{
    recover_instrumented_with, CheckpointStore, PccheckError, RestoreOptions, SlotOutcome,
    StoreGeometry, DEFAULT_JOB,
};
use pccheck_bench::stats::{bench_json_path, host_cores, median};
use pccheck_device::{DeviceConfig, PersistentDevice, SsdDevice};
use pccheck_gpu::StateDigest;
use pccheck_harness::forensics_run::{
    commit_checkpoint, drive_to_crash_point, run_crash_scenario, synthetic_payload, CrashPoint,
    ForensicsRunConfig,
};
use pccheck_telemetry::Telemetry;
use pccheck_util::ByteSize;

/// Checkpoint payload: small on purpose, so the commit path dominates.
const PAYLOAD: u64 = 1024;
/// Commits per checkpointer thread per rep.
const OPS: u64 = 120;
/// Concurrency ladder.
const ARMS: [usize; 4] = [1, 2, 4, 8];
/// Wall reps per (arm, path); the median summarizes.
const REPS: usize = 3;
/// Model device bandwidth (bytes/sec) — any value cancels out of the
/// gated ratios; 256 MB/s keeps the printed numbers recognizable.
const MODEL_BW: f64 = 256.0 * 1024.0 * 1024.0;
/// One metadata record: slot meta, state word, and CHECK_ADDR records
/// are all this size.
const META_REC: f64 = 64.0;
/// Serialized metadata bytes per commit under the old locks: the slot
/// meta record, the committed state word, and the CHECK_ADDR record all
/// funneled through one critical section.
const LOCKED_SERIAL: f64 = 3.0 * META_REC;
/// Serialized metadata bytes per commit lock-free: only the shared
/// CHECK_ADDR record (per-slot records overlap across slots).
const FREE_SERIAL: f64 = META_REC;
/// N=8 must beat N=1 by this factor.
const SCALING_FLOOR: f64 = 1.5;
/// N=8 lock-free must beat N=8 locked by this factor.
const VS_LOCKED_FLOOR: f64 = 1.2;

/// One throughput rep: `n` threads each commit [`OPS`] checkpoints
/// through a fresh flat store. `locked` adds the bench-local mutex
/// around `begin_checkpoint` and `commit`, reconstructing the pre-PR
/// serialized metadata path. Returns commits/sec.
fn throughput_rep(n: usize, locked: bool) -> f64 {
    let state = ByteSize::from_bytes(PAYLOAD);
    let slots = n as u32 + 1;
    let cap = CheckpointStore::required_capacity(state, slots) + ByteSize::from_kb(4);
    let device: Arc<dyn PersistentDevice> =
        Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
    let store = Arc::new(
        CheckpointStore::format(device, StoreGeometry::single(state, slots)).expect("format"),
    );
    let ns = store.namespace(DEFAULT_JOB).expect("single-tenant store");
    let lock = Arc::new(Mutex::new(()));
    let barrier = Arc::new(Barrier::new(n + 1));

    let workers: Vec<_> = (0..n)
        .map(|t| {
            let store = Arc::clone(&store);
            let ns = Arc::clone(&ns);
            let lock = Arc::clone(&lock);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let payload = synthetic_payload(t as u64, PAYLOAD);
                barrier.wait();
                for op in 0..OPS {
                    let iteration = t as u64 * OPS + op;
                    let lease = if locked {
                        let _g = lock.lock().unwrap();
                        store.begin_checkpoint(&ns)
                    } else {
                        store.begin_checkpoint(&ns)
                    };
                    store.write_payload(&lease, 0, &payload).expect("write");
                    store.persist_payload(&lease, 0, PAYLOAD).expect("persist");
                    let digest = StateDigest::of_payload(&payload, iteration).0;
                    if locked {
                        let _g = lock.lock().unwrap();
                        store
                            .commit(lease, iteration, PAYLOAD, digest)
                            .expect("commit");
                    } else {
                        store
                            .commit(lease, iteration, PAYLOAD, digest)
                            .expect("commit");
                    }
                }
            })
        })
        .collect();
    barrier.wait();
    let t0 = Instant::now();
    for w in workers {
        w.join().expect("checkpointer thread");
    }
    (n as u64 * OPS) as f64 / t0.elapsed().as_secs_f64()
}

/// Fluid-model commit throughput (commits/sec) at `n` checkpointers
/// with `serial` serialized metadata bytes per commit: each commit
/// moves `PAYLOAD + LOCKED_SERIAL` bytes of device work total, and the
/// serial fraction bounds the aggregate like a single shared channel.
fn model_throughput(n: usize, serial: f64) -> f64 {
    let t_op = (PAYLOAD as f64 + LOCKED_SERIAL) / MODEL_BW;
    let saturation = MODEL_BW / serial;
    (n as f64 / t_op).min(saturation)
}

/// Per-slot check that the audit's lattice prediction matches recovery:
/// no slot decides `Torn`, every `InFlight` counter was discarded, and
/// the newest `Committed` slot is exactly what recovery restored.
fn lattice_matches_recovery(outcomes: &[SlotOutcome], recovered: &[u64]) -> bool {
    let mut committed_max = None::<u64>;
    for outcome in outcomes {
        match *outcome {
            SlotOutcome::Torn { .. } => return false,
            SlotOutcome::InFlight { counter } => {
                if recovered.contains(&counter) {
                    return false;
                }
            }
            SlotOutcome::Committed { counter } => {
                committed_max = Some(committed_max.map_or(counter, |m: u64| m.max(counter)));
            }
            SlotOutcome::Empty | SlotOutcome::Historical { .. } | SlotOutcome::Persisted { .. } => {
            }
        }
    }
    // Whatever the lattice says is the newest committed checkpoint must
    // be among the counters recovery actually restored.
    committed_max.is_none_or(|m| recovered.contains(&m))
}

/// One flat/striped crash scenario: clean audit, prediction == recovery,
/// lattice consistent. Returns `Ok(true)` when every check holds.
fn crash_case(point: CrashPoint, cfg: &ForensicsRunConfig) -> Result<bool, PccheckError> {
    let run = run_crash_scenario(point, cfg, RestoreOptions::default())?;
    let predicted = run.report.expected_recovery(DEFAULT_JOB).map(|m| m.counter);
    Ok(run.report.is_clean()
        && predicted == Some(run.recovered.counter)
        && lattice_matches_recovery(&run.report.slot_outcomes, &[run.recovered.counter]))
}

/// One two-tenant crash scenario: tenant 1 commits a baseline, tenant 2
/// is driven into `point`, the power fails, and both the global audit
/// and each namespace's prediction must match what that tenant's recovery
/// restores — with tenant 1's state intact.
fn namespace_crash_case(point: CrashPoint) -> Result<bool, PccheckError> {
    const STATE: u64 = 4096;
    const SLOTS: u32 = 8;
    const FLIGHT: u32 = 128;
    const MAX_NS: u32 = 4;
    let state = ByteSize::from_bytes(STATE);
    let geometry = StoreGeometry {
        slot_size: state,
        slots: SLOTS,
        flight_records: FLIGHT,
        max_namespaces: MAX_NS,
    };
    let cap = geometry.required_capacity() + ByteSize::from_kb(4);
    let ssd = Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
    let device: Arc<dyn PersistentDevice> = ssd.clone();
    let store = CheckpointStore::format(Arc::clone(&device), geometry)?;
    store.allocate_namespace(1, 4)?;
    store.allocate_namespace(2, 4)?;

    let baseline1 = commit_checkpoint(&store, 1, 100, &synthetic_payload(100, STATE))?;
    commit_checkpoint(&store, 2, 100, &synthetic_payload(100, STATE))?;

    let payload = synthetic_payload(200, STATE);
    let (crashed_counter, slot) = drive_to_crash_point(&store, 2, point, 200, &payload)?;
    match point {
        CrashPoint::DuringPersist => {
            ssd.arm_crash_after_persists(0);
            let err = device.persist(store.slot_payload_offset(slot), payload.len() as u64);
            debug_assert!(err.is_err(), "armed persist must crash");
        }
        _ => device.crash_now(),
    }
    drop(store);

    let report = pccheck_monitor::audit(Arc::clone(&device))?;
    device.recover();

    let mut recovered = Vec::new();
    let mut predictions_hold = true;
    for &(job, ref head) in &report.namespace_recovery {
        let options = RestoreOptions {
            job: Some(job),
            ..RestoreOptions::default()
        };
        match recover_instrumented_with(Arc::clone(&device), &Telemetry::disabled(), options) {
            Ok((r, _)) => {
                recovered.push(r.counter);
                predictions_hold &= head.as_ref().map(|m| m.counter) == Some(r.counter);
                if job == 1 {
                    // Tenant isolation: tenant 2's crash never moves
                    // tenant 1 off its committed baseline.
                    predictions_hold &= r.counter == baseline1;
                }
            }
            Err(PccheckError::NoCheckpoint) => predictions_hold &= head.is_none(),
            Err(e) => return Err(e),
        }
    }
    let crashed_survived = recovered.contains(&crashed_counter);
    let crash_committed = point == CrashPoint::AfterCommit;
    Ok(report.is_clean()
        && predictions_hold
        && crashed_survived == crash_committed
        && lattice_matches_recovery(&report.slot_outcomes, &recovered))
}

fn main() {
    let cores = host_cores();
    println!(
        "[bench_pr9] lock-free commit path: {PAYLOAD} B payloads, {OPS} commits/thread, \
         arms {ARMS:?}, {REPS} reps, {cores} cores"
    );

    // Leg 1: wall-clock commit throughput, lock-free vs locked.
    let mut wall_free = Vec::new();
    let mut wall_locked = Vec::new();
    for &n in &ARMS {
        let free: Vec<f64> = (0..REPS).map(|_| throughput_rep(n, false)).collect();
        let locked: Vec<f64> = (0..REPS).map(|_| throughput_rep(n, true)).collect();
        println!(
            "  N={n}: lock-free {:.0} commits/s, locked {:.0} commits/s",
            median(&free),
            median(&locked)
        );
        wall_free.push(median(&free));
        wall_locked.push(median(&locked));
    }
    let wall_scaling = wall_free[3] / wall_free[0];
    let wall_vs_locked = wall_free[3] / wall_locked[3];

    // Leg 2: the deterministic fluid model (always gated).
    let model_free: Vec<f64> = ARMS.iter().map(|&n| model_throughput(n, FREE_SERIAL)).collect();
    let model_locked: Vec<f64> = ARMS
        .iter()
        .map(|&n| model_throughput(n, LOCKED_SERIAL))
        .collect();
    let model_scaling = model_free[3] / model_free[0];
    let model_vs_locked = model_free[3] / model_locked[3];
    println!(
        "  fluid model: N=8/N=1 scaling {model_scaling:.2}x (floor {SCALING_FLOOR}), \
         vs locked at N=8 {model_vs_locked:.2}x (floor {VS_LOCKED_FLOOR})"
    );
    let wall_gate_enforced = cores >= *ARMS.last().unwrap();
    println!(
        "  wall: N=8/N=1 scaling {wall_scaling:.2}x, vs locked at N=8 {wall_vs_locked:.2}x{}",
        if wall_gate_enforced {
            ""
        } else {
            " (informational: fewer cores than checkpointers)"
        }
    );

    // Leg 3: the crash-audit matrix.
    let formats: [(&str, Option<ForensicsRunConfig>); 3] = [
        ("flat", Some(ForensicsRunConfig::default())),
        ("striped", Some(ForensicsRunConfig::striped(2))),
        ("namespace", None),
    ];
    let mut matrix: Vec<(String, Vec<(String, bool)>)> = Vec::new();
    let mut crash_all_clean = true;
    for (name, cfg) in &formats {
        let mut row = Vec::new();
        for point in CrashPoint::ALL {
            let ok = match cfg {
                Some(cfg) => crash_case(point, cfg),
                None => namespace_crash_case(point),
            }
            .unwrap_or_else(|e| panic!("{name}/{}: scenario error: {e}", point.name()));
            crash_all_clean &= ok;
            row.push((point.name().to_string(), ok));
        }
        println!(
            "  crash audit [{name}]: {}",
            row.iter()
                .map(|(p, ok)| format!("{p}={}", if *ok { "clean" } else { "DIRTY" }))
                .collect::<Vec<_>>()
                .join(" ")
        );
        matrix.push((name.to_string(), row));
    }

    let model_pass = model_scaling >= SCALING_FLOOR && model_vs_locked >= VS_LOCKED_FLOOR;
    let wall_pass = !wall_gate_enforced
        || (wall_scaling >= SCALING_FLOOR && wall_vs_locked >= VS_LOCKED_FLOOR);
    let pass = model_pass && wall_pass && crash_all_clean;

    let row = |v: &[f64]| {
        v.iter()
            .map(|s| format!("{s:.0}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"bench_pr9\",\n");
    let _ = writeln!(
        json,
        "  \"config\": {{\"payload_bytes\": {PAYLOAD}, \"ops_per_thread\": {OPS}, \
         \"arms\": [1, 2, 4, 8], \"reps\": {REPS}, \"model_bw_bytes_per_sec\": {MODEL_BW}, \
         \"locked_serial_bytes\": {LOCKED_SERIAL}, \"lockfree_serial_bytes\": {FREE_SERIAL}}},"
    );
    let _ = writeln!(json, "  \"wall_lockfree_commits_per_sec\": [{}],", row(&wall_free));
    let _ = writeln!(json, "  \"wall_locked_commits_per_sec\": [{}],", row(&wall_locked));
    let _ = writeln!(json, "  \"model_lockfree_commits_per_sec\": [{}],", row(&model_free));
    let _ = writeln!(json, "  \"model_locked_commits_per_sec\": [{}],", row(&model_locked));
    json.push_str("  \"crash_matrix\": {\n");
    for (i, (name, points)) in matrix.iter().enumerate() {
        let cells = points
            .iter()
            .map(|(p, ok)| format!("\"{p}\": {ok}"))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(
            json,
            "    \"{name}\": {{{cells}}}{}",
            if i + 1 < matrix.len() { "," } else { "" }
        );
    }
    json.push_str("  },\n");
    let _ = writeln!(
        json,
        "  \"acceptance\": {{\"model_scaling\": {model_scaling:.4}, \
         \"model_vs_locked\": {model_vs_locked:.4}, \"wall_scaling\": {wall_scaling:.4}, \
         \"wall_vs_locked\": {wall_vs_locked:.4}, \"scaling_floor\": {SCALING_FLOOR}, \
         \"vs_locked_floor\": {VS_LOCKED_FLOOR}, \"cores\": {cores}, \
         \"wall_gate_enforced\": {wall_gate_enforced}, \"crash_all_clean\": {crash_all_clean}, \
         \"pass\": {pass}}}\n}}"
    );

    let path = bench_json_path("BENCH_pr9.json");
    std::fs::write(&path, &json).expect("write BENCH_pr9.json");
    println!("[bench_pr9] wrote {path}");

    assert!(
        pass,
        "bench_pr9 gate failed: model scaling {model_scaling:.2} (floor {SCALING_FLOOR}), \
         model vs locked {model_vs_locked:.2} (floor {VS_LOCKED_FLOOR}), \
         wall scaling {wall_scaling:.2}, wall vs locked {wall_vs_locked:.2} \
         (enforced: {wall_gate_enforced}), crash matrix clean: {crash_all_clean}"
    );
}
