//! The single-tenant workloads: set-up → sustained → isolated persist →
//! recovery → in-flight crash, all through one `PcCheckEngine`.

use std::sync::Arc;
use std::time::Instant;

use crate::api::{
    recover_into_gpu, Bandwidth, ByteSize, CheckpointStore, Checkpointer, DeviceConfig, Gpu,
    GpuConfig, NullCheckpointer, PcCheckConfig, PcCheckEngine, PccheckError, PersistentDevice,
    Phase, RestoreOptions, SsdDevice, Telemetry, TelemetrySnapshot, Tensor, TrainingState,
};
use crate::metrics::Report;
use crate::stats::{low_decile, median, self_time, tail, union_len, window_rate_median};
use crate::trace::{Span, TracedDevice, Tracer, DEV_PERSIST, DEV_READ, DEV_WRITE};
use crate::workload::{Plan, SingleSpec, SUB_WINDOWS};

/// Reader threads every recovery uses.
pub const READERS: usize = 2;

/// Span names the generator opens around calls into the engine.
pub const SPAN_ISOLATED: &str = "isolated_persist";
pub const SPAN_RECOVER: &str = "recover";

/// How one run is observed.
#[derive(Debug, Default, Clone)]
pub struct RunOptions {
    /// Record spans here and attach engine telemetry: the per-layer run.
    /// `None` is the untraced, end-to-end run.
    pub tracer: Option<Arc<Tracer>>,
    /// Flip one byte of the newest committed payload as the recovery
    /// phase first reads it (acceptance: the run must then fail).
    pub inject_bitrot: bool,
}

impl RunOptions {
    pub fn traced(&self) -> bool {
        self.tracer.is_some()
    }

    /// Telemetry for the product calls of this run: on when traced.
    pub fn telemetry(&self) -> Telemetry {
        if self.traced() {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        }
    }
}

pub fn build_state(spec: &SingleSpec, state_bytes: u64, seed: u64) -> TrainingState {
    let size = ByteSize::from_bytes(state_bytes);
    if spec.sparse {
        // A pure RNG-dense state never frames (the codec declines the
        // first checkpoint and no dedup generation is ever installed),
        // so two of the three tensors are tiled to make the codec work.
        let shares = size.split_even(3);
        TrainingState::from_tensors(vec![
            Tensor::synthetic("params", shares[0], seed),
            Tensor::compressible("adam_m", shares[1], seed, 4096),
            Tensor::compressible("adam_v", shares[2], seed, 64),
        ])
    } else {
        TrainingState::synthetic(size, seed)
    }
}

pub fn step(spec: &SingleSpec, gpu: &Gpu) {
    if spec.sparse {
        gpu.update_sparse(0.05);
    } else {
        gpu.update();
    }
}

fn ms(secs: f64) -> f64 {
    secs * 1e3
}

/// What a recovery must bring back: an iteration and the digest the GPU
/// had at it, computed by the ledger rather than taken from the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Expected {
    iteration: u64,
    digest: u64,
}

impl Expected {
    fn of(gpu: &Gpu) -> Expected {
        Expected {
            iteration: gpu.step_count(),
            digest: gpu.digest().0,
        }
    }
}

impl std::fmt::Display for Expected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "iteration {} digest {:016x}",
            self.iteration, self.digest
        )
    }
}

/// Everything one set-up builds.
struct Rig {
    gpu: Gpu,
    /// What the engine and recovery talk to (the SSD, possibly wrapped).
    device: Arc<dyn PersistentDevice>,
    wrapper: Option<Arc<TracedDevice>>,
    engine: PcCheckEngine,
    /// The engine's telemetry (checkpoint lifecycle only).
    telemetry: Telemetry,
    /// The handle recoveries report to, kept apart so that recoveries do
    /// not count as commits in the engine's counters.
    recovery_telemetry: Telemetry,
    /// Median uncontended update time, seconds.
    u0: f64,
    /// Iterations per second with no checkpointing, when measured.
    baseline_rate: Option<f64>,
    /// Wall time of the set-up's own recovery, seconds.
    setup_recover_s: f64,
}

fn engine_config(spec: &SingleSpec, state_bytes: u64) -> Result<PcCheckConfig, PccheckError> {
    let chunk = spec.chunk_bytes.min(state_bytes);
    PcCheckConfig::builder()
        .max_concurrent(2)
        .writer_threads(2)
        .chunk_size(ByteSize::from_bytes(chunk))
        .dram_chunks((2 * state_bytes).div_ceil(chunk) as usize)
        .codec(spec.codec)
        .build()
}

impl Rig {
    /// A GPU with the workload's layout but other contents, to recover
    /// into.
    fn fresh_gpu(&self, spec: &SingleSpec, seed: u64) -> Gpu {
        let state_bytes = self.gpu.state_size().as_u64();
        Gpu::new(
            GpuConfig::fast_for_tests(),
            build_state(spec, state_bytes, seed),
        )
    }

    /// One crash → recover cycle into `fresh`, which is stepped first
    /// (untimed) so that it never already holds the state it is about to
    /// receive. Returns the wall time of `recover_into_gpu` — from the
    /// device being back to the verified state being resident — and what
    /// came back. The simulated crash is not timed: `crash_now()` copies
    /// the whole device image, which is the simulator's work, as long as
    /// the recovery itself, and bound by the host's memory bandwidth.
    fn crash_and_recover(
        &self,
        fresh: &Gpu,
        tracer: Option<&Arc<Tracer>>,
    ) -> Result<(f64, Expected), PccheckError> {
        fresh.update();
        let options = RestoreOptions {
            readers: READERS,
            ..RestoreOptions::default()
        };
        self.device.crash_now();
        self.device.recover();
        let span = tracer.map(|t| t.enter(SPAN_RECOVER));
        let t0 = Instant::now();
        let trace = recover_into_gpu(
            Arc::clone(&self.device),
            fresh,
            &self.recovery_telemetry,
            options,
        )?;
        let wall = t0.elapsed().as_secs_f64();
        drop(span);
        let got = Expected {
            iteration: trace.iteration,
            digest: fresh.digest().0,
        };
        Ok((wall, got))
    }
}

fn set_up(
    spec: &SingleSpec,
    plan: &Plan,
    state_bytes: u64,
    seed: u64,
    opts: &RunOptions,
    report: &mut Report,
) -> Result<Rig, PccheckError> {
    let gpu = Gpu::new(
        GpuConfig::fast_for_tests(),
        build_state(spec, state_bytes, seed),
    );
    let size = gpu.state_size();
    let capacity = CheckpointStore::required_capacity(size, 3) + ByteSize::from_kb(64);
    let mut config = DeviceConfig::fast_for_tests(capacity);
    if let Some(mbps) = spec.throttle_mb_per_s {
        config = config.with_bandwidth(Bandwidth::from_mb_per_sec(mbps));
        config.throttled = true;
    }
    let ssd: Arc<dyn PersistentDevice> = Arc::new(SsdDevice::new(config));
    // Tracing off means no wrapper at all between the engine and the SSD.
    let wrapper = (opts.traced() || opts.inject_bitrot)
        .then(|| Arc::new(TracedDevice::new(Arc::clone(&ssd), opts.tracer.clone())));
    let device = match &wrapper {
        Some(w) => Arc::clone(w) as Arc<dyn PersistentDevice>,
        None => ssd,
    };
    let telemetry = opts.telemetry();
    let engine = PcCheckEngine::new(engine_config(spec, state_bytes)?, Arc::clone(&device), size)?
        .with_telemetry(telemetry.clone());
    let mut rig = Rig {
        gpu,
        device,
        wrapper,
        engine,
        telemetry,
        recovery_telemetry: opts.telemetry(),
        u0: 0.0,
        baseline_rate: None,
        setup_recover_s: 0.0,
    };

    for _ in 0..plan.warmups {
        step(spec, &rig.gpu);
        rig.engine.checkpoint(&rig.gpu, rig.gpu.step_count());
        let drained = rig.engine.try_drain();
        report.check(drained.is_ok(), || {
            format!("warm-up checkpoint failed: {drained:?}")
        });
    }
    let want = Expected::of(&rig.gpu);
    // No span: this recovery is warm-up, not one of the measured ones.
    let fresh = rig.fresh_gpu(spec, seed ^ 0x5e7);
    let (wall, got) = rig.crash_and_recover(&fresh, None)?;
    report.check(got == want, || {
        format!("set-up recovery returned {got}, wanted {want}")
    });
    rig.setup_recover_s = wall;

    let calib: Vec<f64> = (0..plan.calib_steps)
        .map(|_| {
            let t = Instant::now();
            step(spec, &rig.gpu);
            t.elapsed().as_secs_f64()
        })
        .collect();
    rig.u0 = median(&calib);

    if spec.baseline_iters > 0 {
        let null = NullCheckpointer::new();
        let t = Instant::now();
        for it in 1..=spec.baseline_iters {
            std::thread::sleep(spec.pace);
            step(spec, &rig.gpu);
            if it % spec.interval == 0 {
                null.checkpoint(&rig.gpu, rig.gpu.step_count());
            }
        }
        rig.baseline_rate = Some(spec.baseline_iters as f64 / t.elapsed().as_secs_f64());
    }
    Ok(rig)
}

/// Raw timings and counts of the sustained loop.
struct Sustained {
    wall: f64,
    /// Median sub-window iterations per second.
    rate: f64,
    /// Per checkpoint interval: seconds the trainer was blocked.
    stalls: Vec<f64>,
    /// Per iteration: seconds `update*` ran beyond `u0`.
    update_waits: Vec<f64>,
    /// Per checkpoint: seconds inside `checkpoint()`.
    calls: Vec<f64>,
    requested: u64,
    committed: u64,
    superseded: u64,
    bytes_written: u64,
}

fn sustained(spec: &SingleSpec, plan: &Plan, rig: &Rig, report: &mut Report) -> Sustained {
    let stats = rig.engine.stats();
    let (committed0, superseded0, failed0) =
        (stats.committed(), stats.superseded(), stats.failed());
    let written0 = rig.device.stats().bytes_written().as_u64();
    let iters = plan.sustained_iters as usize;
    let mut stamps = Vec::with_capacity(iters);
    let mut stalls = Vec::with_capacity(iters);
    let mut update_waits = Vec::with_capacity(iters);
    let mut calls = Vec::with_capacity(iters);
    let mut blocked = 0.0;
    let start = Instant::now();
    for it in 1..=plan.sustained_iters {
        if !spec.pace.is_zero() {
            std::thread::sleep(spec.pace);
        }
        let t = Instant::now();
        step(spec, &rig.gpu);
        let wait = (t.elapsed().as_secs_f64() - rig.u0).max(0.0);
        update_waits.push(wait);
        blocked += wait;
        if it % spec.interval == 0 {
            let t = Instant::now();
            rig.engine.checkpoint(&rig.gpu, rig.gpu.step_count());
            let call = t.elapsed().as_secs_f64();
            calls.push(call);
            stalls.push(blocked + call);
            blocked = 0.0;
        }
        stamps.push(start.elapsed().as_secs_f64());
    }
    let drained = rig.engine.try_drain();
    let wall = start.elapsed().as_secs_f64();
    let requested = plan.sustained_iters / spec.interval;
    let failed = stats.failed() - failed0;
    report.attempted += requested;
    report.failed += failed;
    if failed > 0 || drained.is_err() {
        report.problems.push(format!(
            "sustained: {failed} checkpoints failed, drain: {drained:?}"
        ));
    }
    Sustained {
        wall,
        rate: window_rate_median(0.0, &stamps, SUB_WINDOWS.min(stamps.len())),
        stalls,
        update_waits,
        calls,
        requested,
        committed: stats.committed() - committed0,
        superseded: stats.superseded() - superseded0,
        bytes_written: rig.device.stats().bytes_written().as_u64() - written0,
    }
}

/// Device counters over the isolated-persist phase.
struct IsolatedCounts {
    checkpoints: u64,
    bytes_written: u64,
    persist_ops: u64,
}

/// Runs one single-tenant workload: end-to-end metrics when untraced,
/// per-layer ones (to which the caller adds the probes) when traced.
pub fn run(
    spec: &SingleSpec,
    plan: &Plan,
    state_bytes: u64,
    seed: u64,
    opts: &RunOptions,
) -> Result<Report, PccheckError> {
    let mut report = Report::default();
    let tracer = opts.tracer.as_ref();

    // --- set-up, several times; the last rig is the one measured ---
    let mut setup_walls = Vec::with_capacity(plan.setups);
    let mut first_recover_s = None;
    let mut rig = None;
    for round in 0..plan.setups as u64 {
        // Free the previous rig first: two would double the peak RSS.
        drop(rig.take());
        let t = Instant::now();
        let built = set_up(spec, plan, state_bytes, seed + round, opts, &mut report)?;
        setup_walls.push(t.elapsed().as_secs_f64());
        first_recover_s.get_or_insert(built.setup_recover_s);
        rig = Some(built);
    }
    let rig = rig.expect("at least one set-up");
    let state_len = rig.gpu.state_size().as_u64();

    // --- sustained ---
    let sus = sustained(spec, plan, &rig, &mut report);

    // --- isolated persist: update; checkpoint; drain ---
    let mut persists = Vec::with_capacity(plan.isolated);
    let written0 = rig.device.stats().bytes_written().as_u64();
    let persist_ops0 = rig.device.stats().persist_ops();
    for _ in 0..plan.isolated {
        step(spec, &rig.gpu);
        let span = tracer.map(|t| t.enter(SPAN_ISOLATED));
        let t = Instant::now();
        rig.engine.checkpoint(&rig.gpu, rig.gpu.step_count());
        let drained = rig.engine.try_drain();
        persists.push(t.elapsed().as_secs_f64());
        drop(span);
        report.check(drained.is_ok(), || {
            format!("isolated checkpoint failed: {drained:?}")
        });
    }
    let iso = IsolatedCounts {
        checkpoints: plan.isolated as u64,
        bytes_written: rig.device.stats().bytes_written().as_u64() - written0,
        persist_ops: rig.device.stats().persist_ops() - persist_ops0,
    };
    let drained = Expected::of(&rig.gpu);
    let acked = rig.engine.last_committed().map(|o| Expected {
        iteration: o.iteration,
        digest: o.digest.0,
    });
    report.check(acked == Some(drained), || {
        format!("engine acknowledged {acked:x?}, the GPU holds {drained}")
    });

    // --- recovery: crash; recover; recover_into_gpu ---
    let mut recovers = Vec::with_capacity(plan.recoveries);
    let fresh = rig.fresh_gpu(spec, seed ^ 0xf00d);
    for round in 0..plan.recoveries {
        if opts.inject_bitrot && round == 0 {
            let wrapper = rig.wrapper.as_ref().expect("bit-rot needs the wrapper");
            wrapper.arm_bitrot(spec.chunk_bytes.min(state_len) as usize);
        }
        match rig.crash_and_recover(&fresh, tracer) {
            Ok((wall, got)) => {
                recovers.push(wall);
                report.check(got == drained, || {
                    format!(
                        "recovery {round}: got {got}, the last drained checkpoint was {drained}"
                    )
                });
            }
            Err(e) => report.check(false, || format!("recovery {round} failed: {e}")),
        }
    }

    // --- in-flight crash: the killed checkpoint itself is not counted ---
    step(spec, &rig.gpu);
    let in_flight = Expected::of(&rig.gpu);
    rig.engine.checkpoint(&rig.gpu, in_flight.iteration);
    rig.device.crash_now();
    let _ = rig.engine.try_drain();
    match rig.crash_and_recover(&fresh, None) {
        Ok((_, got)) => report.check(got == drained || got == in_flight, || {
            format!("in-flight crash recovered {got}; wanted {drained} or {in_flight}")
        }),
        Err(e) => report.check(false, || {
            format!("recovery after the in-flight crash failed: {e}")
        }),
    }

    // --- metrics ---
    if let Some(tracer) = tracer {
        let spans = tracer.spans();
        engine_layers(&mut report, &sus, &spans, &persists, &iso);
        recovery_layers(&mut report, &spans, &recovers);
        let engine: Vec<_> = rig.telemetry.snapshot().into_iter().collect();
        pipeline_layers(&mut report, &engine, rig.recovery_telemetry.snapshot());
        report.put(
            "core.restore.first_recover_ms",
            ms(first_recover_s.expect("set-up ran")),
            "ms",
        );
    } else {
        let logical = sus.committed * state_len;
        // Committed bytes per iteration at the median sub-window rate: a
        // burst of host noise in one sub-window moves neither metric.
        let goodput = logical as f64 / plan.sustained_iters as f64 * sus.rate / crate::metrics::MB;
        report.put("setup_s", median(&setup_walls), "s");
        report.put("train_iter_per_s", sus.rate, "1/s");
        report.put("stall_ms_p50", ms(median(&sus.stalls)), "ms");
        report.put(
            "stall_frac",
            sus.stalls.iter().sum::<f64>() / sus.wall,
            "ratio",
        );
        report.put("persist_ms_p50", ms(median(&persists)), "ms");
        report.put("goodput_mb_per_s", goodput, "MB/s");
        report.put(
            "write_amp",
            sus.bytes_written as f64 / logical as f64,
            "ratio",
        );
        if !recovers.is_empty() {
            report.put("recover_ms_p10", ms(low_decile(&recovers)), "ms");
            report.put("info.recover_ms_p50", ms(median(&recovers)), "ms");
        }
        // Context for the numbers above; no bound applies to these.
        report.put("info.update_u0_ms", ms(rig.u0), "ms");
        report.put("info.sustained_wall_s", sus.wall, "s");
        if let Some(rate) = rig.baseline_rate {
            report.put("info.nockpt_iter_per_s", rate, "1/s");
        }
        if let Some((p, v)) = tail(&sus.stalls) {
            report.put("info.stall_ms_tail", ms(v), "ms");
            report.put("info.stall_tail_pct", p, "%");
        }
    }
    Ok(report)
}

/// `(start, end)` of every span called `name` whose parent is `parent`.
fn children(spans: &[Span], parent: u32, name: &str) -> Vec<(u64, u64)> {
    spans
        .iter()
        .filter(|s| s.parent == parent && s.name == name)
        .map(|s| (s.start, s.end))
        .collect()
}

fn total_ms(intervals: &[(u64, u64)]) -> f64 {
    intervals.iter().map(|(s, e)| e - s).sum::<u64>() as f64 / 1e6
}

/// `device` and `core.engine` metrics from the isolated-persist spans
/// (exactly one checkpoint in flight, so attribution is exact) and the
/// sustained loop's call timings.
fn engine_layers(
    report: &mut Report,
    sus: &Sustained,
    spans: &[Span],
    persists: &[f64],
    iso: &IsolatedCounts,
) {
    let mut write_ms = 0.0;
    let mut persist_ms = 0.0;
    let mut write_ops = 0usize;
    let mut selfs = Vec::new();
    let mut unions = Vec::new();
    for p in spans.iter().filter(|s| s.name == SPAN_ISOLATED) {
        let writes = children(spans, p.id, DEV_WRITE);
        let fences = children(spans, p.id, DEV_PERSIST);
        write_ms += total_ms(&writes);
        persist_ms += total_ms(&fences);
        write_ops += writes.len();
        let mut all = writes;
        all.extend(fences);
        selfs.push(self_time((p.start, p.end), all.iter().copied()) as f64 / 1e6);
        unions.push(union_len(&mut all) as f64 / 1e6);
    }
    let n = iso.checkpoints as f64;
    report.put("device.write_ms_per_ckpt", write_ms / n, "ms");
    report.put("device.persist_ms_per_ckpt", persist_ms / n, "ms");
    report.put("device.write_ops_per_ckpt", write_ops as f64 / n, "count");
    report.put(
        "device.persist_ops_per_ckpt",
        iso.persist_ops as f64 / n,
        "count",
    );
    report.put(
        "device.bytes_written_per_ckpt",
        iso.bytes_written as f64 / n,
        "bytes",
    );
    report.put("device.span_union_ms_p50", median(&unions), "ms");
    report.put("core.engine.persist_self_ms_p50", median(&selfs), "ms");
    report.put(
        "core.engine.persist_traced_ms_p50",
        ms(median(persists)),
        "ms",
    );
    report.put(
        "core.engine.checkpoint_call_ms_p50",
        ms(median(&sus.calls)),
        "ms",
    );
    report.put(
        "core.engine.update_wait_ms_p50",
        ms(median(&sus.update_waits)),
        "ms",
    );
    report.put("core.engine.traced_iter_per_s", sus.rate, "1/s");
    report.put(
        "core.engine.superseded_frac",
        sus.superseded as f64 / sus.requested as f64,
        "ratio",
    );
    if let Some((p, v)) = tail(&sus.stalls) {
        report.put("core.engine.stall_ms_tail", ms(v), "ms");
        report.put("core.engine.stall_tail_pct", p, "%");
    }
}

/// `device` read and `core.restore` metrics from the recovery spans.
pub fn recovery_layers(report: &mut Report, spans: &[Span], recovers: &[f64]) {
    let mut read_ms = 0.0;
    let mut read_ops = 0usize;
    let mut selfs = Vec::new();
    for r in spans.iter().filter(|s| s.name == SPAN_RECOVER) {
        let reads = children(spans, r.id, DEV_READ);
        read_ms += total_ms(&reads);
        read_ops += reads.len();
        selfs.push(self_time((r.start, r.end), reads) as f64 / 1e6);
    }
    if selfs.is_empty() {
        return;
    }
    let n = selfs.len() as f64;
    report.put("device.read_ms_per_recover", read_ms / n, "ms");
    report.put("device.read_ops_per_recover", read_ops as f64 / n, "count");
    report.put("core.restore.recover_self_ms_p50", median(&selfs), "ms");
    report.put(
        "core.restore.recover_traced_ms_p50",
        ms(median(recovers)),
        "ms",
    );
}

/// `core.pipeline` phase latencies and `core.codec` counters from the
/// product's own telemetry snapshots: one per engine, plus the handle the
/// recoveries reported to. Phases are walked generically: counts add
/// across snapshots, and the p50 is the median of the snapshots' p50s.
pub fn pipeline_layers(
    report: &mut Report,
    engines: &[TelemetrySnapshot],
    recovery: Option<TelemetrySnapshot>,
) {
    for phase in Phase::ALL {
        let seen: Vec<_> = engines
            .iter()
            .chain(&recovery)
            .map(|s| s.phase(phase))
            .filter(|h| h.count > 0)
            .collect();
        if seen.is_empty() {
            continue;
        }
        let p50s: Vec<f64> = seen.iter().map(|h| h.p50_nanos as f64 / 1e6).collect();
        let name = phase.name();
        report.put(
            format!("core.pipeline.phase.{name}.ms_p50"),
            median(&p50s),
            "ms",
        );
        report.put(
            format!("core.pipeline.phase.{name}.count"),
            seen.iter().map(|h| h.count).sum::<u64>() as f64,
            "count",
        );
    }
    let committed: u64 = engines.iter().map(|s| s.counters.committed).sum();
    let logical: u64 = engines.iter().map(|s| s.counters.bytes_persisted).sum();
    let saved: u64 = engines.iter().map(|s| s.codec_bytes_saved).sum();
    let dedup: u64 = engines.iter().map(|s| s.dedup_chunks).sum();
    report.put(
        "core.codec.bytes_saved_frac",
        saved as f64 / logical.max(1) as f64,
        "ratio",
    );
    report.put(
        "core.codec.dedup_chunks_per_ckpt",
        dedup as f64 / committed.max(1) as f64,
        "count",
    );
}
