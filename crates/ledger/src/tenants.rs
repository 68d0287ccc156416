//! The multi-tenant workload: four paced jobs through one `Daemon`.
//!
//! The daemon owns its device, store, pipeline and engines, so the
//! ledger sees this workload only through `submit` / `join_all` /
//! `jobs` / `shutdown`, the device's counters, and each job's always-on
//! telemetry snapshot — which is also all an operator of the service has.

use std::sync::Arc;
use std::time::Instant;

use crate::api::{
    recover_into_gpu, ByteSize, Daemon, DaemonConfig, Gpu, GpuConfig, JobSpec, PccheckError,
    PersistentDevice, RestoreOptions, SubmitOutcome, Summary, Telemetry, TrainingState,
};
use crate::metrics::{mb_per_s, Report};
use crate::single::{pipeline_layers, recovery_layers, RunOptions, READERS, SPAN_RECOVER};
use crate::stats::{low_decile, median};
use crate::trace::{TracedDevice, Tracer};
use crate::workload::{Plan, TenantsSpec};

fn daemon_config(spec: &TenantsSpec, state_bytes: u64) -> DaemonConfig {
    DaemonConfig {
        slot_size: ByteSize::from_bytes(state_bytes),
        total_slots: spec.total_slots,
        stripe_ways: spec.stripe_ways,
        writer_threads: spec.writers,
        chunk_size: ByteSize::from_bytes(spec.chunk_bytes.min(state_bytes)),
        dram_chunks: spec.dram_chunks,
        codec: false,
        ..DaemonConfig::sim_default()
    }
}

fn job(
    spec: &TenantsSpec,
    state_bytes: u64,
    name: String,
    iterations: u64,
    paced: bool,
) -> JobSpec {
    JobSpec {
        state: ByteSize::from_bytes(state_bytes),
        max_concurrent: 2,
        // Room for N+1 = 3 checkpoints: admission grants N=2.
        storage_budget: ByteSize::from_bytes(state_bytes * 4),
        weight: 1,
        interval: spec.interval,
        iterations,
        pacing: if paced {
            spec.pacing
        } else {
            std::time::Duration::ZERO
        },
        ..JobSpec::sim(&name)
    }
}

fn submit_all(
    daemon: &Daemon,
    spec: &TenantsSpec,
    state_bytes: u64,
    iterations: u64,
    paced: bool,
) -> Result<(Vec<f64>, Vec<u64>), PccheckError> {
    let mut walls = Vec::with_capacity(spec.jobs);
    let mut ids = Vec::with_capacity(spec.jobs);
    for j in 0..spec.jobs {
        let job = job(spec, state_bytes, format!("tenant-{j}"), iterations, paced);
        let t = Instant::now();
        let outcome = daemon.submit(job)?;
        walls.push(t.elapsed().as_secs_f64());
        match outcome {
            SubmitOutcome::Admitted(status) => ids.push(status.id),
            SubmitOutcome::Queued(why) => {
                return Err(PccheckError::InvalidConfig(format!(
                    "tenant-{j} was queued, not admitted: {why}"
                )))
            }
        }
    }
    Ok((walls, ids))
}

/// One crash → job-scoped recovery into a fresh GPU; as in `single`, the
/// simulated crash itself is not timed.
fn recover_job(
    device: &Arc<dyn PersistentDevice>,
    telemetry: &Telemetry,
    job: u64,
    state_bytes: u64,
    fresh_seed: u64,
    tracer: Option<&Arc<Tracer>>,
) -> Result<(f64, u64, u64), PccheckError> {
    let fresh = Gpu::new(
        GpuConfig::fast_for_tests(),
        TrainingState::synthetic(ByteSize::from_bytes(state_bytes), fresh_seed),
    );
    let options = RestoreOptions {
        readers: READERS,
        job: Some(job),
        ..RestoreOptions::default()
    };
    device.crash_now();
    device.recover();
    let span = tracer.map(|t| t.enter(SPAN_RECOVER));
    let t0 = Instant::now();
    let trace = recover_into_gpu(Arc::clone(device), &fresh, telemetry, options)?;
    let wall = t0.elapsed().as_secs_f64();
    drop(span);
    Ok((wall, trace.iteration, fresh.step_count()))
}

/// Set-up: a complete warm-up service cycle (short unpaced jobs, join,
/// audited shutdown, one recovery), then the daemon the run measures.
fn set_up(
    spec: &TenantsSpec,
    plan: &Plan,
    state_bytes: u64,
    report: &mut Report,
) -> Result<(Daemon, f64), PccheckError> {
    let warm = Daemon::new(daemon_config(spec, state_bytes))?;
    let (_, ids) = submit_all(
        &warm,
        spec,
        state_bytes,
        plan.warmups * spec.interval,
        false,
    )?;
    warm.join_all()?;
    let audit = warm.shutdown()?;
    report.check(audit.is_clean(), || {
        format!("warm-up shutdown audit: {}", audit.render())
    });
    let (wall, _, _) = recover_job(
        warm.device(),
        &Telemetry::disabled(),
        ids[0],
        state_bytes,
        1,
        None,
    )?;
    Ok((Daemon::new(daemon_config(spec, state_bytes))?, wall))
}

pub fn run(
    spec: &TenantsSpec,
    plan: &Plan,
    state_bytes: u64,
    opts: &RunOptions,
) -> Result<Report, PccheckError> {
    let mut report = Report::default();
    let tracer = opts.tracer.as_ref();

    let mut setup_walls = Vec::with_capacity(plan.setups);
    let mut first_recover_s = None;
    let mut daemon = None;
    for _ in 0..plan.setups {
        // Free the previous daemon first: two would double the peak RSS.
        drop(daemon.take());
        let t = Instant::now();
        let (built, recover_s) = set_up(spec, plan, state_bytes, &mut report)?;
        setup_walls.push(t.elapsed().as_secs_f64());
        first_recover_s.get_or_insert(recover_s);
        daemon = Some(built);
    }
    let daemon = daemon.expect("at least one set-up");

    // --- sustained: submit, run to completion, audited shutdown ---
    let written0 = daemon.device().stats().bytes_written().as_u64();
    let persist_ops0 = daemon.device().stats().persist_ops();
    let iterations = plan.sustained_iters;
    let start = Instant::now();
    let (submit_walls, ids) = submit_all(&daemon, spec, state_bytes, iterations, true)?;
    let joined = daemon.join_all();
    let makespan = start.elapsed().as_secs_f64();
    let t = Instant::now();
    let audit = daemon.shutdown()?;
    let shutdown_s = t.elapsed().as_secs_f64();
    report.check(audit.is_clean(), || {
        format!("shutdown audit: {}", audit.render())
    });

    let rows = daemon.jobs();
    let requested = iterations / spec.interval * spec.jobs as u64;
    report.attempted += requested;
    if let Err(e) = &joined {
        report.failed += 1;
        report
            .problems
            .push(format!("a tenant's checkpoints failed: {e}"));
    }
    let committed: u64 = rows.iter().map(|r| r.committed).sum();
    let logical: u64 = rows.iter().map(|r| r.bytes_persisted).sum();
    for row in &rows {
        let last = iterations - iterations % spec.interval;
        report.check(row.last_iteration == Some(last), || {
            format!(
                "{} last committed {:?}, ran {iterations} iterations",
                row.name, row.last_iteration
            )
        });
        report.check(
            row.committed > 0 && row.bytes_persisted == row.committed * state_bytes,
            || {
                format!(
                    "{}: {} bytes over {} commits of {state_bytes}",
                    row.name, row.bytes_persisted, row.committed
                )
            },
        );
    }
    let rate = (iterations * spec.jobs as u64) as f64 / makespan;
    let bytes_written = daemon.device().stats().bytes_written().as_u64() - written0;
    let persist_ops = daemon.device().stats().persist_ops() - persist_ops0;

    // --- recovery: per tenant, crash → job-scoped recover ---
    let device: Arc<dyn PersistentDevice> = match tracer {
        Some(t) => Arc::new(TracedDevice::new(
            Arc::clone(daemon.device()),
            Some(Arc::clone(t)),
        )),
        None => Arc::clone(daemon.device()),
    };
    let telemetry = opts.telemetry();
    let mut recovers = Vec::new();
    for round in 0..plan.tenant_recoveries {
        for (&id, row) in ids.iter().zip(&rows) {
            match recover_job(
                &device,
                &telemetry,
                id,
                state_bytes,
                0xf00d + round as u64,
                tracer,
            ) {
                Ok((wall, iteration, step)) => {
                    recovers.push(wall);
                    report.check(Some(iteration) == row.last_iteration && step == iteration, || {
                        format!(
                            "{} recovered iteration {iteration} (GPU at step {step}), jobs() says {:?}",
                            row.name, row.last_iteration
                        )
                    });
                }
                Err(e) => report.check(false, || format!("{} recovery failed: {e}", row.name)),
            }
        }
    }

    if let Some(tracer) = tracer {
        recovery_layers(&mut report, &tracer.spans(), &recovers);
        report.put(
            "core.restore.first_recover_ms",
            first_recover_s.expect("set-up ran") * 1e3,
            "ms",
        );
        let per_ckpt = committed.max(1) as f64;
        report.put(
            "device.persist_ops_per_ckpt",
            persist_ops as f64 / per_ckpt,
            "count",
        );
        report.put(
            "device.bytes_written_per_ckpt",
            bytes_written as f64 / per_ckpt,
            "bytes",
        );
        report.put(
            "core.engine.superseded_frac",
            requested.saturating_sub(committed) as f64 / requested as f64,
            "ratio",
        );
        report.put("daemon.submit_ms_p50", median(&submit_walls) * 1e3, "ms");
        report.put("daemon.shutdown_ms", shutdown_s * 1e3, "ms");
        report.put("daemon.makespan_s", makespan, "s");
        report.put("core.engine.traced_iter_per_s", rate, "1/s");
        let shares: Vec<f64> = rows.iter().map(|r| r.qos_share).collect();
        let shares = Summary::from_samples(&shares);
        report.put(
            "core.qos.share_spread",
            shares.max() - shares.min(),
            "ratio",
        );
        // Each job's always-on snapshot, plus the recovery handle's.
        let jobs: Vec<_> = rows
            .iter()
            .filter_map(|r| daemon.job_telemetry(&r.name))
            .filter_map(|t| t.snapshot())
            .collect();
        pipeline_layers(&mut report, &jobs, telemetry.snapshot());
    } else {
        report.put("setup_s", median(&setup_walls), "s");
        report.put("train_iter_per_s", rate, "1/s");
        report.put("goodput_mb_per_s", mb_per_s(logical, makespan), "MB/s");
        report.put(
            "write_amp",
            bytes_written as f64 / logical.max(1) as f64,
            "ratio",
        );
        if !recovers.is_empty() {
            report.put("recover_ms_p10", low_decile(&recovers) * 1e3, "ms");
            report.put("info.recover_ms_p50", median(&recovers) * 1e3, "ms");
        }
        report.put("info.sustained_wall_s", makespan, "s");
    }
    Ok(report)
}
