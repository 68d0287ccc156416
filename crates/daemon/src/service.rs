//! The daemon proper: shared resources, job lifecycle, per-job metrics.
//!
//! One [`Daemon`] owns, for its whole lifetime:
//!
//! * a `stripe_ways`-wide [`StripedDevice`] of simulated SSDs,
//! * one [`CheckpointStore`] over it (a namespace per job),
//! * one shared [`PersistPipeline`] (writer pool + staging pool),
//! * one [`QosArbiter`] scheduling writer-pool bandwidth across jobs,
//! * one [`MetricsRegistry`] with a `job="<name>"` label per tenant, over
//!   metrics-only recorders ([`Telemetry::metrics`]): histograms,
//!   counters and gauges, no event timeline, so the service's memory does
//!   not grow with its uptime.
//!
//! Jobs arrive via [`Daemon::submit`], pass [`admission`],
//! get a namespace plus a [`PcCheckEngine`] facade, and train on a
//! background worker until their iteration budget runs out or
//! [`Daemon::drain`] stops them. Drained state stays recoverable: the
//! namespace directory is append-only, exactly like the on-disk layout.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use pccheck::{
    CheckpointStore, FrameTable, PcCheckConfig, PcCheckEngine, PccheckError, PersistPipeline,
    QosArbiter, QosConfig, StoreGeometry,
};
use pccheck_device::{DeviceConfig, HostBufferPool, PersistentDevice, SsdDevice, StripedDevice};
use pccheck_gpu::{Checkpointer, Gpu, GpuConfig, TrainingState};
use pccheck_monitor::ForensicReport;
use pccheck_telemetry::{MetricsRegistry, Telemetry};
use pccheck_util::sync::Mutex;
use pccheck_util::ByteSize;

use crate::admission::{self, Admission, SystemParams};

/// One tenant's submission: its checkpoint geometry, §3.4 user
/// constraints, and the synthetic workload the daemon drives for it.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Unique job name (the `job` metrics label).
    pub name: String,
    /// Checkpoint size `m` (must fit one store slot).
    pub state: ByteSize,
    /// Requested concurrent checkpoints `N` (clamped by admission).
    pub max_concurrent: usize,
    /// Tenant storage budget `S` for the §3.4 bound.
    pub storage_budget: ByteSize,
    /// QoS weight (relative bandwidth share under contention).
    pub weight: u64,
    /// Checkpoint every this many iterations.
    pub interval: u64,
    /// Total training iterations the sim worker runs.
    pub iterations: u64,
    /// Simulated compute time per iteration. Zero means the worker
    /// trains flat-out (a saturating tenant); nonzero paces the
    /// checkpoint cadence the way real iteration time does.
    pub pacing: std::time::Duration,
    /// Whether this tenant asks for the chunk codec (compression +
    /// dedup framing). Granted only if the operator's
    /// `SystemParams::allow_codec` also permits it.
    pub codec: bool,
    /// When nonzero, the sim worker trains on a *compressible* state
    /// built from tiled `compress_period`-byte blocks instead of the
    /// default incompressible RNG fill — the knob that makes the codec
    /// worth granting.
    pub compress_period: usize,
}

impl JobSpec {
    /// A small sim-backed job: 64 KiB state, N=2, a 4-slot budget, unit
    /// weight, checkpointing every other iteration for 20 iterations.
    pub fn sim(name: &str) -> Self {
        JobSpec {
            name: name.to_string(),
            state: ByteSize::from_kb(64),
            max_concurrent: 2,
            storage_budget: ByteSize::from_kb(256),
            weight: 1,
            interval: 2,
            iterations: 20,
            pacing: std::time::Duration::ZERO,
            codec: false,
            compress_period: 0,
        }
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting for store capacity (FIFO).
    Queued,
    /// Admitted; the sim worker is training.
    Running,
    /// Worker finished or drained; checkpoints remain recoverable.
    Drained,
}

impl JobState {
    /// Lower-case wire name.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Drained => "drained",
        }
    }
}

/// One row of `pccheckctl job list` / the control endpoint's `/jobs`.
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// Namespace id in the shared store (0 while queued).
    pub id: u64,
    /// Job name.
    pub name: String,
    /// Lifecycle state.
    pub state: JobState,
    /// Granted concurrency `N` (0 while queued).
    pub concurrent: usize,
    /// Checkpoints committed so far.
    pub committed: u64,
    /// Payload bytes persisted so far.
    pub bytes_persisted: u64,
    /// This job's fraction of all QoS-served bytes (0 when the arbiter
    /// has served nothing yet).
    pub qos_share: f64,
    /// Latest committed iteration, if any.
    pub last_iteration: Option<u64>,
    /// Whether the chunk codec was granted at admission (false while
    /// queued).
    pub codec: bool,
}

/// Outcome of [`Daemon::submit`].
#[derive(Debug, Clone)]
pub enum SubmitOutcome {
    /// Running now, under this namespace id.
    Admitted(JobStatus),
    /// Waiting for capacity.
    Queued(String),
}

/// Daemon-wide geometry and model parameters.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// The largest tenant checkpoint a slot holds; each slot also has
    /// room for that state's frame table at `chunk_size` records.
    pub slot_size: ByteSize,
    /// Total slots shared by all namespaces.
    pub total_slots: u32,
    /// Namespace directory capacity (max jobs over the store lifetime).
    pub max_jobs: u32,
    /// Flight-recorder ring entries.
    pub flight_records: u32,
    /// RAID-0 width of the shared device.
    pub stripe_ways: usize,
    /// Shared writer-pool width.
    pub writer_threads: usize,
    /// Pipeline chunk size.
    pub chunk_size: ByteSize,
    /// Shared staging-pool chunks.
    pub dram_chunks: usize,
    /// Whether the shared pipeline stands up codec infrastructure at
    /// all (per-tenant grants still gate each job's framed path).
    pub codec: bool,
    /// QoS arbiter tuning.
    pub qos: QosConfig,
    /// System parameters for per-tenant admission math.
    pub system: SystemParams,
}

impl DaemonConfig {
    /// The CI/smoke geometry: a 4-way stripe, 64 KiB slots, room for 16
    /// jobs of N=2 each.
    pub fn sim_default() -> Self {
        DaemonConfig {
            slot_size: ByteSize::from_kb(64),
            total_slots: 48,
            max_jobs: 16,
            flight_records: 512,
            stripe_ways: 4,
            writer_threads: 4,
            chunk_size: ByteSize::from_kb(16),
            dram_chunks: 16,
            codec: true,
            qos: QosConfig::default(),
            system: SystemParams::default(),
        }
    }
}

struct JobEntry {
    id: u64,
    spec: JobSpec,
    state: JobState,
    concurrent: usize,
    codec: bool,
    engine: Option<Arc<PcCheckEngine>>,
    telemetry: Telemetry,
    stop: Arc<AtomicBool>,
    worker: Option<JoinHandle<Result<(), PccheckError>>>,
}

#[derive(Default)]
struct DaemonState {
    jobs: Vec<JobEntry>,
    pending: VecDeque<JobSpec>,
    next_id: u64,
}

/// The long-running multi-tenant checkpoint service.
pub struct Daemon {
    config: DaemonConfig,
    device: Arc<dyn PersistentDevice>,
    store: Arc<CheckpointStore>,
    pipeline: Arc<PersistPipeline>,
    qos: Arc<QosArbiter>,
    registry: MetricsRegistry,
    state: Mutex<DaemonState>,
    quit: AtomicBool,
}

impl Daemon {
    /// Formats a fresh shared store over a `stripe_ways`-wide
    /// simulated stripe and stands up the shared pipeline, staging pool,
    /// QoS arbiter, and metrics registry.
    ///
    /// # Errors
    ///
    /// Propagates store formatting errors (e.g., an undersized device).
    pub fn new(config: DaemonConfig) -> Result<Self, PccheckError> {
        let geometry = StoreGeometry {
            slot_size: FrameTable::slot_size_for(config.slot_size, config.chunk_size),
            slots: config.total_slots,
            flight_records: config.flight_records,
            // A one-row directory is the single-tenant layout, whose row
            // belongs to the default job; this daemon numbers its jobs
            // from 1, so even a one-job daemon takes two rows.
            max_namespaces: config.max_jobs.max(2),
        };
        let total_cap = geometry.required_capacity() + ByteSize::from_kb(64);
        let ways = config.stripe_ways.max(1);
        let member_cap =
            ByteSize::from_bytes(total_cap.as_u64() / ways as u64) + ByteSize::from_kb(64);
        let device: Arc<dyn PersistentDevice> = if ways == 1 {
            Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(total_cap)))
        } else {
            let members: Vec<Arc<dyn PersistentDevice>> = (0..ways)
                .map(|_| {
                    Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(member_cap)))
                        as Arc<dyn PersistentDevice>
                })
                .collect();
            Arc::new(StripedDevice::new(members, ByteSize::from_kb(16)))
        };
        let store = Arc::new(CheckpointStore::format(Arc::clone(&device), geometry)?);
        let qos = Arc::new(QosArbiter::new(config.qos.clone()));
        let pool = HostBufferPool::new(config.chunk_size, config.dram_chunks);
        let pipeline = Arc::new(
            PersistPipeline::new(Arc::clone(&store), pool)
                .with_writers(config.writer_threads)
                .with_codec(config.codec)
                .with_qos(Arc::clone(&qos)),
        );
        // A service never ends, so its recorders keep metrics only: an
        // event timeline would grow with uptime and nothing here reads it.
        let registry = MetricsRegistry::new(Telemetry::metrics());
        Ok(Daemon {
            config,
            device,
            store,
            pipeline,
            qos,
            registry,
            state: Mutex::new(DaemonState::default()),
            quit: AtomicBool::new(false),
        })
    }

    /// Asks the serve loop to exit (the control endpoint's `/shutdown`).
    pub(crate) fn request_quit(&self) {
        self.quit.store(true, Ordering::Release);
    }

    /// Whether `request_quit` has been called.
    pub fn quit_requested(&self) -> bool {
        self.quit.load(Ordering::Acquire)
    }

    /// The shared metrics registry (serve it with
    /// [`MetricsServer`](pccheck_telemetry::MetricsServer)).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The shared store.
    pub fn store(&self) -> &Arc<CheckpointStore> {
        &self.store
    }

    /// The shared QoS arbiter.
    pub fn qos(&self) -> &Arc<QosArbiter> {
        &self.qos
    }

    /// The shared device (for audits and stats).
    pub fn device(&self) -> &Arc<dyn PersistentDevice> {
        &self.device
    }

    fn free_capacity(&self) -> (u32, u32) {
        let allocated: u32 = self.store.namespaces().iter().map(|d| d.slot_count).sum();
        let free_slots = self.store.num_slots().saturating_sub(allocated);
        let free_ns = self
            .config
            .max_jobs
            .saturating_sub(self.store.namespaces().len() as u32);
        (free_slots, free_ns)
    }

    /// Submits a job: runs §3.4 admission, allocates its namespace, and
    /// starts its sim-backed training worker. Jobs the store cannot hold
    /// *right now* queue FIFO; jobs that can never fit are errors.
    ///
    /// # Errors
    ///
    /// Returns [`PccheckError::InvalidConfig`] for rejected jobs and
    /// duplicate names.
    pub fn submit(&self, spec: JobSpec) -> Result<SubmitOutcome, PccheckError> {
        {
            let state = self.state.lock();
            if state.jobs.iter().any(|j| j.spec.name == spec.name)
                || state.pending.iter().any(|p| p.name == spec.name)
            {
                return Err(PccheckError::InvalidConfig(format!(
                    "job name {:?} already submitted",
                    spec.name
                )));
            }
        }
        let (free_slots, free_ns) = self.free_capacity();
        match admission::decide(
            &spec,
            self.config.slot_size,
            free_slots,
            free_ns,
            &self.config.system,
        ) {
            Admission::Rejected(reason) => Err(PccheckError::InvalidConfig(format!(
                "job {:?} rejected: {reason}",
                spec.name
            ))),
            Admission::Queued(reason) => {
                self.state.lock().pending.push_back(spec);
                Ok(SubmitOutcome::Queued(reason))
            }
            Admission::Admitted {
                concurrent,
                slots,
                codec,
            } => {
                let status = self.start_job(spec, concurrent, slots, codec)?;
                Ok(SubmitOutcome::Admitted(status))
            }
        }
    }

    fn start_job(
        &self,
        spec: JobSpec,
        concurrent: usize,
        slots: u32,
        codec: bool,
    ) -> Result<JobStatus, PccheckError> {
        // The grant is only real if the shared pipeline stood the codec
        // infrastructure up; a raw daemon serves codec tenants raw.
        let codec = codec && self.config.codec;
        let id = {
            let mut state = self.state.lock();
            state.next_id += 1;
            state.next_id
        };
        self.store.allocate_namespace(id, slots)?;
        self.qos.register_job(id, spec.weight.max(1));
        let telemetry = Telemetry::metrics();
        self.registry.register_job(&spec.name, telemetry.clone());
        let engine = Arc::new(
            PcCheckEngine::with_shared(
                PcCheckConfig::builder()
                    .max_concurrent(concurrent)
                    .writer_threads(self.config.writer_threads)
                    .chunk_size(self.config.chunk_size)
                    .dram_chunks(self.config.dram_chunks)
                    .codec(codec)
                    .build()?,
                Arc::clone(&self.pipeline),
                id,
            )?
            .with_telemetry(telemetry.clone()),
        );
        let stop = Arc::new(AtomicBool::new(false));
        let worker = {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            let spec = spec.clone();
            std::thread::spawn(move || -> Result<(), PccheckError> {
                let state = if spec.compress_period > 0 {
                    TrainingState::compressible(spec.state, id, spec.compress_period)
                } else {
                    TrainingState::synthetic(spec.state, id)
                };
                let gpu = Gpu::new(GpuConfig::fast_for_tests(), state);
                for iter in 1..=spec.iterations {
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    if !spec.pacing.is_zero() {
                        std::thread::sleep(spec.pacing);
                    }
                    gpu.update();
                    if spec.interval > 0 && iter % spec.interval == 0 {
                        engine.checkpoint(&gpu, iter);
                    }
                }
                engine.try_drain()
            })
        };
        let status = JobStatus {
            id,
            name: spec.name.clone(),
            state: JobState::Running,
            concurrent,
            committed: 0,
            bytes_persisted: 0,
            qos_share: 0.0,
            last_iteration: None,
            codec,
        };
        self.state.lock().jobs.push(JobEntry {
            id,
            spec,
            state: JobState::Running,
            concurrent,
            codec,
            engine: Some(engine),
            telemetry,
            stop,
            worker: Some(worker),
        });
        Ok(status)
    }

    /// Stops `name`'s worker, drains its in-flight checkpoints, and
    /// marks it [`JobState::Drained`]. Idempotent for drained jobs. Then
    /// retries queued submissions against the freed *runtime* capacity
    /// (directory entries are append-only, so a queued job only starts
    /// if unallocated slots remain).
    ///
    /// # Errors
    ///
    /// Unknown names and worker errors surface as [`PccheckError`].
    pub fn drain(&self, name: &str) -> Result<(), PccheckError> {
        let (stop, worker) = {
            let mut state = self.state.lock();
            // A queued job drains by leaving the queue.
            if let Some(pos) = state.pending.iter().position(|p| p.name == name) {
                state.pending.remove(pos);
                return Ok(());
            }
            let entry = state
                .jobs
                .iter_mut()
                .find(|j| j.spec.name == name)
                .ok_or_else(|| PccheckError::InvalidConfig(format!("no job named {name:?}")))?;
            entry.state = JobState::Drained;
            (Arc::clone(&entry.stop), entry.worker.take())
        };
        stop.store(true, Ordering::Release);
        if let Some(handle) = worker {
            handle
                .join()
                .map_err(|_| PccheckError::InvalidConfig("job worker panicked".into()))??;
        }
        self.admit_pending();
        Ok(())
    }

    /// Waits for every running worker to finish its iteration budget and
    /// drain. Unlike [`drain`](Self::drain) this does not interrupt.
    ///
    /// # Errors
    ///
    /// Propagates the first worker error.
    pub fn join_all(&self) -> Result<(), PccheckError> {
        loop {
            let worker = {
                let mut state = self.state.lock();
                let Some(entry) = state.jobs.iter_mut().find(|j| j.worker.is_some()) else {
                    break;
                };
                entry.state = JobState::Drained;
                entry.worker.take()
            };
            if let Some(handle) = worker {
                handle
                    .join()
                    .map_err(|_| PccheckError::InvalidConfig("job worker panicked".into()))??;
            }
        }
        self.admit_pending();
        Ok(())
    }

    fn admit_pending(&self) {
        loop {
            let Some(spec) = self.state.lock().pending.pop_front() else {
                return;
            };
            let (free_slots, free_ns) = self.free_capacity();
            match admission::decide(
                &spec,
                self.config.slot_size,
                free_slots,
                free_ns,
                &self.config.system,
            ) {
                Admission::Admitted {
                    concurrent,
                    slots,
                    codec,
                } => {
                    if self.start_job(spec, concurrent, slots, codec).is_err() {
                        return;
                    }
                }
                _ => {
                    // Still no room: put it back at the head and stop
                    // (FIFO — later jobs must not jump the queue).
                    self.state.lock().pending.push_front(spec);
                    return;
                }
            }
        }
    }

    /// A consistent status row per job (running, drained, and queued).
    pub fn jobs(&self) -> Vec<JobStatus> {
        let shares = self.qos.shares();
        let total_share: u64 = shares.iter().map(|(_, b)| *b).sum();
        let share_of = |id: u64| -> f64 {
            if total_share == 0 {
                return 0.0;
            }
            shares
                .iter()
                .find(|(j, _)| *j == id)
                .map_or(0.0, |(_, b)| *b as f64 / total_share as f64)
        };
        let state = self.state.lock();
        let mut rows: Vec<JobStatus> = state
            .jobs
            .iter()
            .map(|j| {
                let (committed, bytes, last_iteration) = match &j.engine {
                    Some(e) => (
                        e.stats().committed(),
                        e.stats().bytes_persisted(),
                        e.last_committed().map(|o| o.iteration),
                    ),
                    None => (0, 0, None),
                };
                JobStatus {
                    id: j.id,
                    name: j.spec.name.clone(),
                    state: j.state,
                    concurrent: j.concurrent,
                    committed,
                    bytes_persisted: bytes,
                    qos_share: share_of(j.id),
                    last_iteration,
                    codec: j.codec,
                }
            })
            .collect();
        rows.extend(state.pending.iter().map(|p| JobStatus {
            id: 0,
            name: p.name.clone(),
            state: JobState::Queued,
            concurrent: 0,
            committed: 0,
            bytes_persisted: 0,
            qos_share: 0.0,
            last_iteration: None,
            codec: false,
        }));
        rows
    }

    /// The per-job telemetry handle, for tests and expositions.
    pub fn job_telemetry(&self, name: &str) -> Option<Telemetry> {
        self.state
            .lock()
            .jobs
            .iter()
            .find(|j| j.spec.name == name)
            .map(|j| j.telemetry.clone())
    }

    /// Drains everything and audits the shared store's commit-protocol
    /// invariants — the forensics gate a clean shutdown must pass.
    ///
    /// # Errors
    ///
    /// Propagates worker and audit errors.
    pub fn shutdown(&self) -> Result<ForensicReport, PccheckError> {
        let names: Vec<String> = self
            .state
            .lock()
            .jobs
            .iter()
            .filter(|j| j.worker.is_some())
            .map(|j| j.spec.name.clone())
            .collect();
        for name in names {
            self.drain(&name)?;
        }
        self.state.lock().pending.clear();
        pccheck_monitor::audit(Arc::clone(&self.device))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_sim_jobs_share_one_store_and_all_commit() {
        let daemon = Daemon::new(DaemonConfig::sim_default()).unwrap();
        for i in 0..4 {
            let outcome = daemon.submit(JobSpec::sim(&format!("job-{i}"))).unwrap();
            assert!(matches!(outcome, SubmitOutcome::Admitted(_)));
        }
        daemon.join_all().unwrap();
        let rows = daemon.jobs();
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert_eq!(row.state, JobState::Drained);
            assert!(row.committed >= 1, "job {} never committed", row.name);
            assert!(row.bytes_persisted > 0);
            assert_eq!(row.last_iteration, Some(20));
        }
        // Every tenant shows up in the shared exposition under its label.
        let text = daemon.registry().prometheus_text();
        for i in 0..4 {
            assert!(text.contains(&format!("{{job=\"job-{i}\"}}")));
        }
        let report = daemon.shutdown().unwrap();
        assert!(report.is_clean(), "{:?}", report.violations);
    }

    #[test]
    fn service_telemetry_keeps_metrics_and_no_event_timeline() {
        use pccheck_telemetry::{validate_prometheus_text, Phase};
        let daemon = Daemon::new(DaemonConfig::sim_default()).unwrap();
        for name in ["leak-a", "leak-b"] {
            daemon.submit(JobSpec::sim(name)).unwrap();
        }
        daemon.join_all().unwrap();
        // Every event the recorders kept would stay for the service's
        // whole uptime: none may be kept.
        assert!(daemon.registry().telemetry().events().is_empty());
        let text = daemon.registry().prometheus_text();
        validate_prometheus_text(&text).unwrap();
        for row in daemon.jobs() {
            let telemetry = daemon.job_telemetry(&row.name).unwrap();
            assert!(
                telemetry.events().is_empty(),
                "job {} kept events",
                row.name
            );
            let snap = telemetry.snapshot().expect("metrics recorded");
            assert!(row.committed >= 1, "job {} never committed", row.name);
            assert_eq!(snap.counters.committed, row.committed);
            assert!(snap.phase(Phase::Commit).count >= row.committed);
            assert!(text.contains(&format!(
                "pccheck_phase_latency_nanos_count{{phase=\"commit\",job=\"{}\"}}",
                row.name
            )));
        }
        let report = daemon.shutdown().unwrap();
        assert!(report.is_clean(), "{:?}", report.violations);
    }

    #[test]
    fn tiny_shared_staging_pool_is_arbitrated_across_racing_jobs() {
        // Four engine facades share ONE two-chunk staging pool, so pool
        // exhaustion is the steady state while all four train at once.
        // Every job must still finish (no lost wakeups, nobody starved),
        // and the pool must never over-grant or leak chunks.
        let config = DaemonConfig {
            dram_chunks: 2,
            ..DaemonConfig::sim_default()
        };
        let daemon = Daemon::new(config).unwrap();
        for i in 0..4 {
            daemon.submit(JobSpec::sim(&format!("racer-{i}"))).unwrap();
        }
        daemon.join_all().unwrap();
        let pool = daemon.pipeline.staging_pool();
        assert!(
            pool.peak_outstanding() <= 2,
            "pool over-granted: {} chunks live at peak",
            pool.peak_outstanding()
        );
        assert_eq!(pool.available(), 2, "staging chunks leaked");
        assert_eq!(
            pool.resident_chunks(),
            pool.peak_outstanding(),
            "the shared pool holds its high-water, not its budget"
        );
        for row in daemon.jobs() {
            assert!(row.committed >= 1, "job {} starved", row.name);
        }
        let report = daemon.shutdown().unwrap();
        assert!(report.is_clean(), "{:?}", report.violations);
    }

    #[test]
    fn duplicate_names_and_hopeless_budgets_are_rejected() {
        let daemon = Daemon::new(DaemonConfig::sim_default()).unwrap();
        daemon.submit(JobSpec::sim("a")).unwrap();
        assert!(daemon.submit(JobSpec::sim("a")).is_err());
        let hopeless = JobSpec {
            storage_budget: ByteSize::from_kb(64),
            ..JobSpec::sim("b")
        };
        assert!(daemon.submit(hopeless).is_err());
        daemon.join_all().unwrap();
    }

    #[test]
    fn jobs_queue_when_slots_run_out_and_drain_reaps_the_queue() {
        let config = DaemonConfig {
            total_slots: 7,
            max_jobs: 4,
            ..DaemonConfig::sim_default()
        };
        let daemon = Daemon::new(config).unwrap();
        // Two N=2 jobs take 3 slots each; the third job's 3 do not fit
        // the single remaining slot.
        daemon.submit(JobSpec::sim("a")).unwrap();
        daemon.submit(JobSpec::sim("b")).unwrap();
        let outcome = daemon.submit(JobSpec::sim("c")).unwrap();
        assert!(matches!(outcome, SubmitOutcome::Queued(_)), "{outcome:?}");
        let rows = daemon.jobs();
        assert_eq!(rows.len(), 3);
        assert_eq!(
            rows.iter().filter(|r| r.state == JobState::Queued).count(),
            1
        );
        // Draining the queued job just removes it from the queue.
        daemon.drain("c").unwrap();
        assert_eq!(daemon.jobs().len(), 2);
        daemon.join_all().unwrap();
        let report = daemon.shutdown().unwrap();
        assert!(report.is_clean(), "{:?}", report.violations);
    }

    #[test]
    fn codec_tenant_saves_bytes_while_a_raw_tenant_rides_along() {
        let daemon = Daemon::new(DaemonConfig::sim_default()).unwrap();
        // A codec tenant with a highly redundant state (32-byte tiled
        // blocks) and a raw tenant sharing the same pipeline.
        let packed = JobSpec {
            codec: true,
            compress_period: 32,
            ..JobSpec::sim("packed")
        };
        let raw = JobSpec::sim("raw");
        let SubmitOutcome::Admitted(status) = daemon.submit(packed).unwrap() else {
            panic!("codec job should admit");
        };
        assert!(status.codec, "codec grant should survive admission");
        daemon.submit(raw).unwrap();
        daemon.join_all().unwrap();
        let rows = daemon.jobs();
        for row in &rows {
            assert!(row.committed >= 1, "job {} never committed", row.name);
            assert_eq!(row.codec, row.name == "packed");
        }
        // The codec tenant's own telemetry shows framed savings; the raw
        // tenant's shows none.
        let packed_t = daemon.job_telemetry("packed").unwrap();
        let snap = packed_t.snapshot().unwrap();
        assert!(
            snap.codec_bytes_saved > 0 || snap.dedup_chunks > 0,
            "codec tenant saved nothing: {snap:?}"
        );
        let raw_t = daemon.job_telemetry("raw").unwrap();
        let raw_snap = raw_t.snapshot().unwrap();
        assert_eq!(raw_snap.codec_bytes_saved, 0);
        assert_eq!(raw_snap.dedup_chunks, 0);
        let report = daemon.shutdown().unwrap();
        assert!(report.is_clean(), "{:?}", report.violations);
    }

    #[test]
    fn drain_interrupts_a_running_job_and_keeps_its_checkpoints() {
        let spec = JobSpec {
            iterations: 1_000_000,
            interval: 1,
            ..JobSpec::sim("long")
        };
        let daemon = Daemon::new(DaemonConfig::sim_default()).unwrap();
        daemon.submit(spec).unwrap();
        // Let it commit something, then cut it short.
        loop {
            let rows = daemon.jobs();
            if rows[0].committed >= 2 {
                break;
            }
            std::thread::yield_now();
        }
        daemon.drain("long").unwrap();
        let rows = daemon.jobs();
        assert_eq!(rows[0].state, JobState::Drained);
        assert!(rows[0].committed >= 2);
        assert!(rows[0].last_iteration.is_some());
        let report = daemon.shutdown().unwrap();
        assert!(report.is_clean(), "{:?}", report.violations);
    }
}
