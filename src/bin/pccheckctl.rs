//! `pccheckctl` — inspect and exercise PCcheck stores on real files.
//!
//! Stores created here live in ordinary files (via
//! [`pccheck_device::FileDevice`]) and survive process restarts, so the
//! full demo is:
//!
//! ```bash
//! pccheckctl demo  /tmp/store.pcc     # train + checkpoint into the file
//! pccheckctl info  /tmp/store.pcc     # list the checkpoint history
//! pccheckctl recover /tmp/store.pcc   # load + verify the latest checkpoint
//! ```
//!
//! `pccheckctl telemetry <out-dir> [strategy]` runs an instrumented
//! in-memory training run and writes the human summary, the JSONL event
//! log, and a Perfetto-loadable Chrome trace into `out-dir`.
//!
//! The crash-forensics pair exercises the flight recorder end to end:
//!
//! ```bash
//! pccheckctl crashdemo /tmp/crashed.pcc 20   # crash on the 21st persist
//! pccheckctl forensics /tmp/crashed.pcc      # audit the wreck
//! ```
//!
//! `crashdemo` formats a flight-recorder-enabled store on a simulated SSD,
//! takes a baseline and three sparse mutations through the pipeline, each
//! copy staged whole and trying LZ, powers the device off on its `k`-th
//! persist (0-based), and writes the durable image the crash left into the
//! file. A copy staged whole records that it is copied before its first
//! write, so each `k` crashes the same persist on every run. `forensics` replays the
//! flight ring against the slot metadata and exits nonzero if any commit-
//! protocol invariant is violated.
//!
//! The live-introspection trio exposes a *running* workload instead of a
//! finished one: `serve` trains while serving the metrics registry over
//! HTTP (`GET /metrics`, `GET /metrics.json`), `top` renders a periodic
//! console view (of its own workload with `self`, or of a remote `serve`
//! endpoint by address), and `watchdog` drives a deliberately throttled
//! workload under tight SLOs until the watchdog trips and captures a
//! black-box bundle — the CI smoke for the whole observability layer.

use std::io::Write;
use std::net::SocketAddr;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

use pccheck::{
    bind_frame_table, recover_instrumented_with, recovery, CheckMeta, CheckpointStore,
    ChunkEncoding, PcCheckConfig, PcCheckEngine, RestoreOptions, StrategyRow, DEFAULT_JOB,
    STRATEGIES,
};
use pccheck_device::{DeviceConfig, FileDevice, PersistentDevice, SsdDevice, StripedDevice};
use pccheck_gpu::{Checkpointer, Gpu, GpuConfig, TrainingState};
use pccheck_harness::forensics_run::{crashed_image, Baselines, ForensicsRunConfig};
use pccheck_harness::profile_run::{self, ProfileRunConfig};
use pccheck_harness::telemetry_run::{run_instrumented, InstrumentedRunConfig};
use pccheck_monitor::{armed_watchdog, SloConfig};
use pccheck_telemetry::{
    chrome_trace, chrome_trace_annotated, diff_profiles, http_get, json_lines, render_diff,
    render_profile, render_summary, validate_prometheus_text, DiffMode, DiffThresholds,
    MetricsRegistry, MetricsServer, RunProfile, Telemetry, TelemetryIoObserver,
};
use pccheck_util::{Bandwidth, ByteSize};

/// Demo geometry: a 1 MB training state, N=2 concurrent checkpoints.
const STATE_BYTES: u64 = 1024 * 1024;
const SLOTS: u32 = 3;
const SEED: u64 = 2025;

/// Crashdemo geometry: small enough to audit instantly, flight ring on.
const CRASH_STATE_BYTES: u64 = 64 * 1024;
const CRASH_FLIGHT_RECORDS: u32 = 128;

/// Writes to standard output, which every line a command prints goes
/// through. A reader that stops reading (`pccheckctl info store.pcc | head
/// -2`) ends the command quietly, as a finished one; any other error
/// writing it ends the command with a message and status 1.
fn emit(args: std::fmt::Arguments<'_>) {
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("pccheckctl: writing standard output: {e}");
        std::process::exit(1);
    }
}

/// `print!` through [`emit`].
macro_rules! out {
    ($($arg:tt)*) => {
        emit(format_args!($($arg)*))
    };
}

/// `println!` through [`emit`].
macro_rules! outln {
    () => {
        emit(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        emit(format_args!("{}\n", format_args!($($arg)*)))
    };
}

fn usage() -> ExitCode {
    eprintln!("usage: pccheckctl demo <store-file> [iterations]");
    eprintln!("       pccheckctl info <store-file>");
    eprintln!("       pccheckctl recover <store-file> [readers]");
    eprintln!("       pccheckctl telemetry <out-dir> [strategy]");
    eprintln!("       pccheckctl crashdemo <store-file> <k>");
    eprintln!("       pccheckctl forensics <store-file>");
    eprintln!("       pccheckctl device <store-file> [stripe-ways]");
    eprintln!("       pccheckctl serve <addr> [iterations]");
    eprintln!("       pccheckctl top <addr|self> [refreshes]");
    eprintln!("       pccheckctl watchdog <out-dir> [iterations]");
    eprintln!("       pccheckctl profile <file|run-name> [stripe-ways] [throttle-mb]");
    eprintln!("       pccheckctl diff <base> <candidate> [abs|shares|both]");
    eprintln!("       pccheckctl job submit <ctl-addr> <name> [key=value ...]");
    eprintln!("       pccheckctl job list <ctl-addr>");
    eprintln!("       pccheckctl job drain <ctl-addr> <name>");
    eprintln!("       pccheckctl job shutdown <ctl-addr>");
    eprintln!("  demo       create the store and run a checkpointed training demo");
    eprintln!("  info       print the store header, checkpoint history, and the");
    eprintln!("             per-slot commit-state lattice (free/claimed/committed)");
    eprintln!("  recover    load the latest committed checkpoint through the parallel");
    eprintln!("             restore pipeline ([readers] threads, default 4) and print");
    eprintln!("             the per-phase recovery trace");
    eprintln!(
        "  telemetry  run an instrumented training run ({}) and write",
        STRATEGIES.map(|row| row.name()).join("|")
    );
    eprintln!("             summary.txt, events.jsonl, trace.json into <out-dir>");
    eprintln!("  crashdemo  run the crash scenario's checkpoints through the pipeline,");
    eprintln!("             crash on persist #<k> (0-based) and write the crashed");
    eprintln!("             durable image into <store-file>");
    eprintln!("  forensics  audit a (crashed) store's flight ring + metadata;");
    eprintln!("             exits nonzero on any invariant violation");
    eprintln!("  device     run a short checkpointed demo against a single file");
    eprintln!("             or a <stripe-ways>-wide RAID-0 of files, then print");
    eprintln!("             per-device I/O stats (each stripe member separately)");
    eprintln!("  serve      train in-memory while serving GET /metrics (Prometheus");
    eprintln!("             text) and GET /metrics.json on <addr> (e.g. 127.0.0.1:9464;");
    eprintln!("             port 0 picks an ephemeral one), then self-scrape + validate");
    eprintln!("  top        periodic console view: `self` runs its own workload,");
    eprintln!("             an address polls a running `serve` endpoint remotely");
    eprintln!("  watchdog   run a throttled workload under tight SLOs; the watchdog");
    eprintln!("             must trip and capture a black-box bundle into <out-dir>");
    eprintln!("             (violation.json, metrics, Chrome trace, forensic audit)");
    eprintln!("  profile    render an archived pccheck.profile.v1 artifact, or run the");
    eprintln!("             canonical profiled workload under <run-name> (striped");
    eprintln!("             [stripe-ways] wide, optionally throttled to [throttle-mb]");
    eprintln!("             MB/s per member), archive it under results/profiles/, and");
    eprintln!("             print the critical-path top-offenders view");
    eprintln!("  diff       compare two profiles (paths or archived run names) with");
    eprintln!("             noise-aware thresholds; abs = median nanoseconds (same");
    eprintln!("             machine), shares = critical-path shares (cross-machine);");
    eprintln!("             exits nonzero when a critical-path regression is flagged");
    eprintln!("  job        drive a running pccheckd over its control endpoint:");
    eprintln!("             submit (optional keys: state_kb n weight budget_kb iters");
    eprintln!("             interval), list (one row per tenant with commit count,");
    eprintln!("             bytes persisted, QoS share), drain (stop + drain a job)");
    ExitCode::from(2)
}

fn device_config() -> DeviceConfig {
    let cap = CheckpointStore::required_capacity(ByteSize::from_bytes(STATE_BYTES), SLOTS)
        + ByteSize::from_kb(4);
    DeviceConfig::fast_for_tests(cap)
}

fn cmd_demo(path: &str, iterations: u64) -> Result<(), Box<dyn std::error::Error>> {
    let device: Arc<dyn PersistentDevice> = Arc::new(FileDevice::create(path, device_config())?);
    let gpu = Gpu::new(
        GpuConfig::fast_for_tests(),
        TrainingState::synthetic(ByteSize::from_bytes(STATE_BYTES), SEED),
    );
    let engine = PcCheckEngine::new(
        PcCheckConfig::builder()
            .max_concurrent((SLOTS - 1) as usize)
            .writer_threads(2)
            .chunk_size(ByteSize::from_kb(128))
            .dram_chunks(8)
            .build()?,
        device,
        gpu.state_size(),
    )?;
    let interval = 5u64;
    outln!("training {iterations} iterations, checkpointing every {interval} into {path}");
    for iter in 1..=iterations {
        gpu.update();
        if iter % interval == 0 {
            engine.checkpoint(&gpu, iter);
        }
    }
    engine.drain();
    match engine.last_committed() {
        Some(out) => outln!("done: latest committed {out}"),
        None => outln!("done: no checkpoint boundary reached (run more iterations)"),
    }
    Ok(())
}

/// Opens the store file at `path` as a device of the file's length, so
/// `demo` and `crashdemo` images (whose geometries differ) both open.
fn open_device(path: &str) -> Result<Arc<dyn PersistentDevice>, Box<dyn std::error::Error>> {
    let len = std::fs::metadata(path)?.len();
    let config = DeviceConfig::fast_for_tests(ByteSize::from_bytes(len));
    Ok(Arc::new(FileDevice::open(path, config)?))
}

fn cmd_info(path: &str) -> Result<(), Box<dyn std::error::Error>> {
    let store = CheckpointStore::open(open_device(path)?)?;
    outln!(
        "store: {} slots x {} payload",
        store.num_slots(),
        store.slot_size()
    );
    for desc in store.namespaces() {
        let ns = store.namespace(desc.job)?;
        outln!(
            "job {}: slots {:?}, {} free",
            desc.job,
            desc.slot_range(),
            store.free_slot_count(&ns)
        );
        match store.latest_committed(&ns) {
            Some(m) => {
                outln!(
                    "  latest committed: counter {} iteration {} ({} bytes)",
                    m.counter,
                    m.iteration,
                    m.payload_len
                );
                outln!("  head frame: {}", record_mix(&store, &m));
            }
            None => outln!("  latest committed: none"),
        }
        outln!("  history:");
        for meta in store.history(&ns)? {
            let kind = match meta.delta {
                Some(link) => format!("base->c{} depth {}", link.base_counter, link.chain_depth),
                None => "full".to_string(),
            };
            outln!(
                "    counter {:>4} iteration {:>6} {:>10} bytes digest {:016x} {}",
                meta.counter,
                meta.iteration,
                meta.payload_len,
                meta.digest,
                kind
            );
        }
    }
    // The per-slot commit-state lattice the forensic auditor reasons over:
    // the durable state word (Free/Claimed/Committed + counter) next to
    // the decision it supports (DESIGN §13).
    let view = pccheck::RawStoreView::load(store.device().as_ref())?;
    outln!("slots:");
    for slot in 0..store.num_slots() {
        let word = match view.slot_state.get(slot as usize).copied().flatten() {
            Some(state) => state.to_string(),
            None => "torn".to_string(),
        };
        outln!(
            "  slot {:>3} state {:<14} outcome {}",
            slot,
            word,
            view.slot_outcome(slot)
        );
    }
    Ok(())
}

/// The record mix of the frame committed as `meta`: how many records of
/// each encoding it holds, and the packed bytes they take — a frame cut at
/// a dirty run shows as more records than chunks.
fn record_mix(store: &CheckpointStore, meta: &CheckMeta) -> String {
    let table = store.read_checkpoint(meta).ok();
    let Some(table) = table.and_then(|payload| bind_frame_table(&payload, meta)) else {
        return "unreadable".to_string();
    };
    let encodings = [
        ChunkEncoding::Raw,
        ChunkEncoding::Lz,
        ChunkEncoding::DedupSelf,
        ChunkEncoding::DedupBase,
    ];
    let mix = encodings.map(|kind| {
        let records = table.records.iter().filter(|r| r.kind == kind);
        // A reference's `b` is an offset in its home, not bytes here.
        let packed: u64 = match kind {
            ChunkEncoding::Raw | ChunkEncoding::Lz => records.clone().map(|r| r.b).sum(),
            _ => 0,
        };
        format!("{kind:?} {} ({packed} B)", records.count())
    });
    format!("{} records: {}", table.records.len(), mix.join(", "))
}

fn cmd_recover(path: &str, readers: usize) -> Result<(), Box<dyn std::error::Error>> {
    let options = RestoreOptions {
        readers,
        ..RestoreOptions::default()
    };
    let telemetry = Telemetry::disabled();
    let (rec, trace) = recover_instrumented_with(open_device(path)?, &telemetry, options)?;
    // The restore verified the frame's state digest. A `demo` image also
    // holds the demo's layout (derived from the state size): rebuild that
    // state and check its digest end to end.
    let demo = (rec.payload.len() as u64 == STATE_BYTES)
        .then(|| TrainingState::synthetic(ByteSize::from_bytes(STATE_BYTES), SEED));
    if let Some(state) = &demo {
        recovery::verify_against_state(&rec, &state.layout())?;
    }
    outln!(
        "recovered iteration {} ({} bytes) with {readers} reader(s), digest verified: {:016x}",
        rec.iteration,
        rec.payload.len(),
        rec.digest
    );
    let ms = |nanos: u64| nanos as f64 / 1e6;
    outln!(
        "  scan   {:>9.3} ms  ({} candidate(s), {} fallback(s))",
        ms(trace.scan_nanos),
        trace.candidates_scanned,
        trace.fallbacks
    );
    outln!(
        "  load   {:>9.3} ms  ({} base link(s) resolved)",
        ms(trace.load_nanos),
        trace.chain_links
    );
    outln!(
        "  verify {:>9.3} ms  (digest compute inside load, summed over readers)",
        ms(trace.verify_nanos)
    );
    outln!("  total  {:>9.3} ms", ms(trace.total_nanos));
    // Prove a demo state is usable: restore and advance one step.
    let Some(state) = demo else {
        return Ok(());
    };
    let gpu = Gpu::new(GpuConfig::fast_for_tests(), state);
    rec.restore_into(&gpu);
    gpu.update();
    outln!(
        "resumed training: now at step {} (digest {})",
        gpu.step_count(),
        gpu.digest()
    );
    Ok(())
}

fn cmd_telemetry(out_dir: &str, strategy: &str) -> Result<(), Box<dyn std::error::Error>> {
    let cfg = InstrumentedRunConfig {
        iterations: 50,
        interval: 5,
        ..InstrumentedRunConfig::default()
    };
    outln!(
        "instrumented run: {strategy}, {} iterations, checkpoint every {}",
        cfg.iterations,
        cfg.interval
    );
    let run = run_instrumented(strategy, &cfg)?;
    std::fs::create_dir_all(out_dir)?;
    let dir = std::path::Path::new(out_dir);
    let summary = render_summary(&run.snapshot, &run.accounting);
    let events = run.telemetry.events();
    std::fs::write(dir.join("summary.txt"), &summary)?;
    std::fs::write(dir.join("events.jsonl"), json_lines(&events))?;
    std::fs::write(dir.join("trace.json"), chrome_trace(&events))?;
    out!("{summary}");
    outln!(
        "wrote {} events to {}/{{summary.txt,events.jsonl,trace.json}}",
        events.len(),
        out_dir
    );
    Ok(())
}

fn cmd_crashdemo(path: &str, k: u64) -> Result<(), Box<dyn std::error::Error>> {
    let cfg = ForensicsRunConfig {
        state_bytes: CRASH_STATE_BYTES,
        slots: SLOTS,
        flight_records: CRASH_FLIGHT_RECORDS,
        baselines: Baselines::Codec,
        whole: true,
        ..ForensicsRunConfig::default()
    };
    let image = crashed_image(&cfg, DEFAULT_JOB, k)?
        .ok_or_else(|| format!("the run makes no more than {k} persists: nothing crashed"))?;
    std::fs::write(path, image)?;
    outln!("crashed a run of codec checkpoints on its persist #{k}");
    outln!("wrote the durable image the crash left to {path}; audit it with:");
    outln!("pccheckctl forensics {path}");
    Ok(())
}

fn cmd_forensics(path: &str) -> Result<(), Box<dyn std::error::Error>> {
    let report = pccheck_monitor::audit(open_device(path)?)?;
    out!("{}", report.render());
    if report.is_clean() {
        outln!("verdict: clean — the commit protocol's invariants hold");
        Ok(())
    } else {
        Err(format!("{} invariant violation(s) found", report.violations.len()).into())
    }
}

fn cmd_device(path: &str, ways: u32) -> Result<(), Box<dyn std::error::Error>> {
    let device: Arc<dyn PersistentDevice> = if ways <= 1 {
        Arc::new(FileDevice::create(path, device_config())?)
    } else {
        // One backing file per member: `<path>.m0`, `<path>.m1`, ...
        let mut members: Vec<Arc<dyn PersistentDevice>> = Vec::new();
        for i in 0..ways {
            members.push(Arc::new(FileDevice::create(
                format!("{path}.m{i}"),
                device_config(),
            )?));
        }
        Arc::new(StripedDevice::new(members, ByteSize::from_kb(64)))
    };
    let gpu = Gpu::new(
        GpuConfig::fast_for_tests(),
        TrainingState::synthetic(ByteSize::from_bytes(STATE_BYTES), SEED),
    );
    let engine = PcCheckEngine::new(
        PcCheckConfig::builder()
            .max_concurrent((SLOTS - 1) as usize)
            .writer_threads(2)
            .chunk_size(ByteSize::from_kb(128))
            .dram_chunks(8)
            .build()?,
        Arc::clone(&device),
        gpu.state_size(),
    )?;
    let (iterations, interval) = (20u64, 5u64);
    outln!("exercising {ways}-way store at {path}: {iterations} iterations, checkpoint every {interval}");
    for iter in 1..=iterations {
        gpu.update();
        if iter % interval == 0 {
            engine.checkpoint(&gpu, iter);
        }
    }
    engine.drain();
    outln!(
        "{:<10} {:>14} {:>16} {:>12} {:>8}",
        "device",
        "bytes_written",
        "bytes_persisted",
        "persist_ops",
        "peak_qd"
    );
    for r in device.stats_report() {
        outln!(
            "{:<10} {:>14} {:>16} {:>12} {:>8}",
            r.name,
            r.bytes_written,
            r.bytes_persisted,
            r.persist_ops,
            r.peak_queue_depth
        );
    }
    Ok(())
}

fn cmd_serve(addr: &str, iterations: u64) -> Result<(), Box<dyn std::error::Error>> {
    let telemetry = Telemetry::enabled();
    let device: Arc<dyn PersistentDevice> = Arc::new(SsdDevice::new(device_config()));
    let registry = MetricsRegistry::new(telemetry.clone()).with_device(Arc::clone(&device));
    let server = MetricsServer::bind(addr, registry)?;
    outln!(
        "serving GET /metrics and GET /metrics.json at http://{}",
        server.addr()
    );
    let gpu = Gpu::new(
        GpuConfig::fast_for_tests(),
        TrainingState::synthetic(ByteSize::from_bytes(STATE_BYTES), SEED),
    );
    let engine = PcCheckEngine::new(
        PcCheckConfig::builder()
            .max_concurrent((SLOTS - 1) as usize)
            .writer_threads(2)
            .chunk_size(ByteSize::from_kb(128))
            .dram_chunks(8)
            .build()?,
        device,
        gpu.state_size(),
    )?
    .with_telemetry(telemetry.clone());
    let interval = 5u64;
    outln!("training {iterations} iterations, checkpointing every {interval}; scrape away");
    for iter in 1..=iterations {
        gpu.update();
        if iter % interval == 0 {
            engine.checkpoint(&gpu, iter);
        }
        // Leave the scraper a window: this demo is about exposition, not
        // peak iteration rate.
        std::thread::sleep(Duration::from_millis(2));
    }
    engine.drain();
    let prom = http_get(server.addr(), "/metrics")?;
    let samples = validate_prometheus_text(&prom)?;
    // Every checkpoint went through the device's queue, and the device
    // counts its own high-water mark.
    let series = "pccheck_device_queue_peak{device=\"0\"} ";
    let peak = match prom.lines().find_map(|line| line.strip_prefix(series)) {
        Some(peak) if peak != "0" => peak,
        peak => return Err(format!("{series}is {peak:?} after training").into()),
    };
    outln!("final self-scrape: {samples} samples, exposition parses, device queue peak {peak}");
    server.shutdown();
    Ok(())
}

fn cmd_top(target: &str, refreshes: u64) -> Result<(), Box<dyn std::error::Error>> {
    if let Ok(addr) = target.parse::<SocketAddr>() {
        // Remote mode: poll a running `pccheckctl serve` endpoint.
        for round in 1..=refreshes {
            let prom = http_get(addr, "/metrics")?;
            outln!("-- {addr} refresh {round}/{refreshes} --");
            for line in prom.lines() {
                if line.starts_with("pccheck_checkpoints_")
                    || line.starts_with("pccheck_in_flight")
                    || line.starts_with("pccheck_queue_depth")
                    || line.starts_with("pccheck_stall_fraction")
                {
                    outln!("  {line}");
                }
            }
            if round < refreshes {
                std::thread::sleep(Duration::from_millis(500));
            }
        }
        return Ok(());
    }
    if target != "self" {
        return Err(format!("top target {target:?} is neither an address nor `self`").into());
    }
    // Local mode: run a workload on a background thread and render the
    // registry's console view while it progresses.
    let telemetry = Telemetry::enabled();
    let device: Arc<dyn PersistentDevice> = Arc::new(SsdDevice::new(device_config()));
    let registry = MetricsRegistry::new(telemetry.clone()).with_device(Arc::clone(&device));
    let worker = {
        let telemetry = telemetry.clone();
        std::thread::spawn(move || -> Result<(), pccheck::PccheckError> {
            let gpu = Gpu::new(
                GpuConfig::fast_for_tests(),
                TrainingState::synthetic(ByteSize::from_bytes(STATE_BYTES), SEED),
            );
            let engine = PcCheckEngine::new(
                PcCheckConfig::builder()
                    .max_concurrent((SLOTS - 1) as usize)
                    .writer_threads(2)
                    .chunk_size(ByteSize::from_kb(128))
                    .dram_chunks(8)
                    .build()?,
                device,
                gpu.state_size(),
            )?
            .with_telemetry(telemetry);
            for iter in 1..=200u64 {
                gpu.update();
                if iter % 5 == 0 {
                    engine.checkpoint(&gpu, iter);
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            engine.drain();
            Ok(())
        })
    };
    for round in 1..=refreshes {
        std::thread::sleep(Duration::from_millis(300));
        outln!("-- refresh {round}/{refreshes} --");
        out!("{}", registry.console_view());
    }
    worker.join().map_err(|_| "workload thread panicked")??;
    Ok(())
}

fn cmd_watchdog(out_dir: &str, iterations: u64) -> Result<(), Box<dyn std::error::Error>> {
    // A deliberately slow 2-way striped store: every checkpoint stalls the
    // trainer, so a tight stall-fraction SLO must trip. The striped members
    // also feed the telemetry observer, so the bundle's Chrome trace shows
    // per-member I/O lanes next to the writer lanes.
    let state = ByteSize::from_bytes(CRASH_STATE_BYTES);
    let cap = CheckpointStore::required_capacity(state, 2) + ByteSize::from_kb(4);
    let member_cfg = DeviceConfig {
        capacity: cap,
        write_bandwidth: Bandwidth::from_mb_per_sec(16.0),
        throttled: true,
    };
    let members: Vec<Arc<dyn PersistentDevice>> = (0..2)
        .map(|_| Arc::new(SsdDevice::new(member_cfg.clone())) as Arc<dyn PersistentDevice>)
        .collect();
    let striped = Arc::new(StripedDevice::new(members, ByteSize::from_kb(4)));
    let telemetry = Telemetry::enabled();
    striped.set_io_observer(Arc::new(TelemetryIoObserver::new(telemetry.clone())));
    let device: Arc<dyn PersistentDevice> = striped;
    let gpu = Gpu::new(
        GpuConfig::fast_for_tests(),
        TrainingState::synthetic(state, SEED),
    );
    let engine = PcCheckEngine::new(
        PcCheckConfig::builder()
            .max_concurrent(1)
            .writer_threads(2)
            .chunk_size(ByteSize::from_kb(16))
            .dram_chunks(4)
            .build()?,
        Arc::clone(&device),
        gpu.state_size(),
    )?
    .with_telemetry(telemetry.clone());
    let wd = armed_watchdog(
        device,
        telemetry.clone(),
        SloConfig {
            max_stall_fraction: Some(0.05),
            ..SloConfig::default()
        },
        out_dir,
    );
    outln!(
        "throttled workload: {iterations} iterations, checkpoint every iteration, SLO stall<=5%"
    );
    // Checkpoint back-to-back: with N=1 each call after the first blocks in
    // the ticket wait — the stall the SLO meters. Interleaving `update()`
    // would move the blocking into the weights write-lock instead, which is
    // deliberately not attributed to `checkpoint()`.
    gpu.update();
    for iter in 1..=iterations {
        engine.checkpoint(&gpu, iter);
    }
    engine.drain();
    let violations = wd.check_now();
    if violations.is_empty() {
        return Err("watchdog did not fire (expected a stall-fraction violation)".into());
    }
    for v in &violations {
        outln!(
            "violation: {} observed {:.3} > allowed {:.3}",
            v.rule.name(),
            v.observed,
            v.threshold
        );
    }
    let bundle = wd
        .last_bundle()
        .ok_or("violation fired but no bundle was captured")?;
    for file in [
        "violation.json",
        "metrics.prom",
        "metrics.json",
        "trace.json",
        "flight.txt",
    ] {
        let body = std::fs::read_to_string(bundle.join(file))?;
        if body.is_empty() {
            return Err(format!("{file} is empty").into());
        }
    }
    let samples = validate_prometheus_text(&std::fs::read_to_string(bundle.join("metrics.prom"))?)?;
    let flight = std::fs::read_to_string(bundle.join("flight.txt"))?;
    if !flight.contains("forensic audit") {
        return Err("flight.txt is not a forensic audit".into());
    }
    outln!(
        "black-box bundle at {} ({samples} metric samples, forensic audit attached)",
        bundle.display()
    );
    Ok(())
}

/// Loads a profile from a JSON file path, or from the shared archive by
/// run name when no such file exists.
fn load_profile(arg: &str) -> Result<RunProfile, Box<dyn std::error::Error>> {
    if std::path::Path::new(arg).is_file() {
        return Ok(RunProfile::from_json(&std::fs::read_to_string(arg)?)?);
    }
    Ok(profile_run::archive()?.load(arg)?)
}

fn cmd_profile(
    target: &str,
    ways: usize,
    throttle_mb: Option<f64>,
) -> Result<(), Box<dyn std::error::Error>> {
    if std::path::Path::new(target).is_file() {
        let profile = RunProfile::from_json(&std::fs::read_to_string(target)?)?;
        out!("{}", render_profile(&profile));
        return Ok(());
    }
    let cfg = ProfileRunConfig {
        stripe_ways: ways.max(1),
        member_mb_per_sec: throttle_mb,
        ..ProfileRunConfig::default()
    };
    let run =
        profile_run::run_profiled(target, &cfg).map_err(|e| format!("profiled run failed: {e}"))?;
    let archive = profile_run::archive()?;
    let path = archive.store(&run.profile)?;
    let trace_path = archive.dir().join(format!("{target}.trace.json"));
    std::fs::write(&trace_path, chrome_trace_annotated(&run.telemetry.events()))?;
    out!("{}", render_profile(&run.profile));
    outln!("archived {}", path.display());
    outln!("annotated trace {}", trace_path.display());
    Ok(())
}

/// Pulls `"key":value` (string or number) out of one hand-rolled JSON
/// object — enough for the daemon's fixed status schema, no parser dep.
fn json_field<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\":");
    let rest = &obj[obj.find(&tag)? + tag.len()..];
    if let Some(s) = rest.strip_prefix('"') {
        s.split('"').next()
    } else {
        rest.split([',', '}']).next()
    }
}

fn cmd_job(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let sub = args
        .get(2)
        .map(String::as_str)
        .ok_or("job needs a subcommand")?;
    let addr: SocketAddr = args
        .get(3)
        .ok_or("job needs the daemon's control address")?
        .parse()?;
    match sub {
        "list" => {
            let body = http_get(addr, "/jobs")?;
            outln!(
                "{:<14} {:>4} {:<8} {:>3} {:>9} {:>14} {:>7}",
                "job",
                "id",
                "state",
                "N",
                "commits",
                "bytes",
                "share"
            );
            // The daemon emits a flat array of flat objects; split on the
            // object boundary rather than pulling in a JSON parser.
            for obj in body.trim_matches(['[', ']', '\n']).split("},{") {
                if obj.trim().is_empty() {
                    continue;
                }
                outln!(
                    "{:<14} {:>4} {:<8} {:>3} {:>9} {:>14} {:>7}",
                    json_field(obj, "name").unwrap_or("?"),
                    json_field(obj, "id").unwrap_or("?"),
                    json_field(obj, "state").unwrap_or("?"),
                    json_field(obj, "concurrent").unwrap_or("?"),
                    json_field(obj, "committed").unwrap_or("?"),
                    json_field(obj, "bytes_persisted").unwrap_or("?"),
                    json_field(obj, "qos_share").unwrap_or("?"),
                );
            }
            Ok(())
        }
        "submit" => {
            let name = args.get(4).ok_or("submit needs a job name")?;
            let mut query = format!("/submit?name={name}");
            for kv in &args[5..] {
                let (k, v) = kv
                    .split_once('=')
                    .ok_or_else(|| format!("expected key=value, got {kv:?}"))?;
                query.push_str(&format!("&{k}={v}"));
            }
            let body = http_get(addr, &query)?;
            outln!("{}", body.trim());
            Ok(())
        }
        "drain" => {
            let name = args.get(4).ok_or("drain needs a job name")?;
            let body = http_get(addr, &format!("/drain?name={name}"))?;
            outln!("{}", body.trim());
            Ok(())
        }
        "shutdown" => {
            let body = http_get(addr, "/shutdown")?;
            outln!("{}", body.trim());
            Ok(())
        }
        other => {
            Err(format!("unknown job subcommand {other:?} (submit|list|drain|shutdown)").into())
        }
    }
}

fn cmd_diff(base: &str, cand: &str, mode: &str) -> Result<(), Box<dyn std::error::Error>> {
    let base_profile = load_profile(base)?;
    let cand_profile = load_profile(cand)?;
    let modes: Vec<DiffMode> = match mode {
        "abs" => vec![DiffMode::Absolute],
        "shares" => vec![DiffMode::Shares],
        "both" => vec![DiffMode::Absolute, DiffMode::Shares],
        other => return Err(format!("unknown diff mode {other:?} (abs|shares|both)").into()),
    };
    let mut regressed = false;
    for m in modes {
        let d = diff_profiles(&base_profile, &cand_profile, m, &DiffThresholds::default());
        out!("{}", render_diff(&d));
        regressed |= d.regressed;
    }
    if regressed {
        return Err("critical-path regression flagged".into());
    }
    Ok(())
}

/// The positional `args[at]` as a `T`: `None` when absent, and a usage
/// error naming `<name>` when it does not parse.
fn arg<T: FromStr>(args: &[String], at: usize, name: &str) -> Result<Option<T>, String> {
    args.get(at)
        .map(|s| {
            s.parse()
                .map_err(|_| format!("<{name}> {s:?} does not parse"))
        })
        .transpose()
}

/// Parses `cmd`'s arguments, then runs it. A usage error (an unknown
/// command, or an argument that is missing, does not parse, or is one
/// `cmd` does not take) is `Err`, and nothing has run.
fn run(
    cmd: &str,
    path: &str,
    args: &[String],
) -> Result<Result<(), Box<dyn std::error::Error>>, String> {
    // How many positionals each command takes after its name.
    let takes = match cmd {
        "job" => return Ok(cmd_job(args)),
        "info" | "forensics" => 1,
        "profile" | "diff" => 3,
        _ => 2,
    };
    if let Some(extra) = args.get(2 + takes) {
        return Err(format!("unexpected argument {extra:?}"));
    }
    Ok(match cmd {
        "demo" => cmd_demo(path, arg(args, 3, "iterations")?.unwrap_or(20)),
        "info" => cmd_info(path),
        "recover" => cmd_recover(path, arg(args, 3, "readers")?.unwrap_or(4).max(1)),
        "telemetry" => {
            let strategy = args.get(3).map_or("pccheck", String::as_str);
            if StrategyRow::named(strategy).is_none() {
                let names = STRATEGIES.map(|row| row.name()).join("|");
                return Err(format!("<strategy> {strategy:?} is none of {names}"));
            }
            cmd_telemetry(path, strategy)
        }
        "crashdemo" => cmd_crashdemo(path, arg(args, 3, "k")?.ok_or("missing <k>")?),
        "forensics" => cmd_forensics(path),
        "device" => cmd_device(path, arg(args, 3, "stripe-ways")?.unwrap_or(1)),
        "serve" => cmd_serve(path, arg(args, 3, "iterations")?.unwrap_or(200)),
        "top" => cmd_top(path, arg(args, 3, "refreshes")?.unwrap_or(5).max(1)),
        "watchdog" => cmd_watchdog(path, arg(args, 3, "iterations")?.unwrap_or(30)),
        "profile" => cmd_profile(
            path,
            arg(args, 3, "stripe-ways")?.unwrap_or(4),
            arg(args, 4, "throttle-mb")?,
        ),
        "diff" => cmd_diff(
            path,
            args.get(3).ok_or("missing <candidate>")?,
            args.get(4).map_or("abs", String::as_str),
        ),
        other => return Err(format!("unknown command {other:?}")),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let (cmd, path) = match (args.get(1), args.get(2)) {
        (Some(c), Some(p)) => (c.as_str(), p.as_str()),
        _ => return usage(),
    };
    let result = match run(cmd, path, &args) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("pccheckctl {cmd}: {e}");
            return usage();
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pccheckctl {cmd}: {e}");
            ExitCode::FAILURE
        }
    }
}
