//! Crash-injected runs for the post-crash forensic auditor.
//!
//! One driver takes each tenant's checkpoints through the product's own
//! [`PersistPipeline`] (lease → copy → seal → commit, one writer): every
//! tenant's baseline, then two sparse mutations of the driven tenant's.
//! Every copy plans its frame from the tenant's last snapshot. A codec row
//! copies trying LZ, so its first mutation commits as a frame linked to the
//! baseline, and takes a third mutation that cuts a chunk off the chunk
//! grid, so its frame is cut at the dirty run; a `Raw` row's RNG-dense
//! state copies without LZ, so its frames are `Raw` records for what
//! changed and references for what did not. A row copies pipelined, or
//! staged whole as the N = 1 strategy rows do. The device's
//! persist fuse crashes the run's power domain on its `k`-th persist
//! ([`run_to_crash`]); under
//! [`CrashPolicy::DropUnpersisted`] every durable image the run can leave
//! is one of these persist prefixes, so sweeping `k` from 0 until the fuse
//! no longer fires tries every crash instant of the run, and
//! [`CrashPolicy::RandomPartial`] at the same `k` also tears the unsynced
//! cache lines in flight.
//!
//! Each run audits the frozen device with [`pccheck_monitor::forensics`],
//! powers it on and recovers the driven tenant; [`ForensicsRun::verify`]
//! is the one checker tests, `pccheckctl` and CI share, over flat and
//! striped stores of one tenant or several.

use std::sync::Arc;

use pccheck::{
    raw_frame, recover_instrumented_with, CheckpointStore, CommitOutcome, FrameTable, JobId,
    PccheckError, PersistPipeline, PipelineCtx, RawStoreView, RecoveredCheckpoint, RecoveryTrace,
    RestoreOptions, SlotOutcome, StoreGeometry, DEFAULT_JOB,
};
use pccheck_device::{
    CrashPolicy, DeviceConfig, HostBufferPool, PersistentDevice, SsdDevice, StripedDevice,
};
use pccheck_gpu::{SnapshotSource, StateDigest, Version};
use pccheck_monitor::ForensicReport;
use pccheck_telemetry::{SpanId, Telemetry};
use pccheck_util::sync::must_not_hang;
use pccheck_util::{fnv1a, ByteSize};

/// Device topology a crash scenario runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceTopology {
    /// One simulated SSD.
    Single,
    /// A RAID-0 [`StripedDevice`] over `ways` simulated SSDs. The crash
    /// fires the *controller* fuse, powering off every member at once.
    Striped {
        /// Number of stripe members.
        ways: u32,
    },
}

/// How a scenario frames the checkpoints it commits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Baselines {
    /// Every baseline is RNG-dense bytes seeded by its iteration, copied
    /// without LZ: `Raw` records, and `DedupBase` hits on the tenant's
    /// previous commits for the chunks a mutation left clean.
    Raw,
    /// Every checkpoint is a state of 32-byte tiles and pseudo-random
    /// bytes copied trying LZ: compressed and `Raw` records, `DedupSelf` copies, and `DedupBase` hits on the tenant's
    /// previous commits — of whole chunks, and of the clean part of a chunk
    /// a mutation cut.
    Codec,
}

impl Baselines {
    /// The state a tenant's baseline captures at `iteration`.
    fn state(self, iteration: u64, len: u64) -> Vec<u8> {
        match self {
            Baselines::Raw => {
                let mut state = vec![0; len as usize];
                pccheck_util::rng::fill_deterministic(&mut state, iteration);
                state
            }
            Baselines::Codec => tiled_payload(iteration, len),
        }
    }
}

/// Geometry of a crash scenario.
#[derive(Debug, Clone)]
pub struct ForensicsRunConfig {
    /// State size of each checkpoint.
    pub state_bytes: u64,
    /// Slots (N + 1) of each tenant's namespace.
    pub slots: u32,
    /// Flight-recorder ring capacity in records.
    pub flight_records: u32,
    /// Iteration captured by the first tenant's baseline checkpoint.
    pub baseline_iteration: u64,
    /// Iteration captured by the driven tenant's second sparse mutation;
    /// its first captures the iteration halfway from its baseline's, and a
    /// codec row's third the one after this.
    pub crash_iteration: u64,
    /// Device topology backing the store.
    pub topology: DeviceTopology,
    /// The jobs sharing the store, one namespace of `slots` slots each.
    /// `[DEFAULT_JOB]` is a [`StoreGeometry::single`] store. Tenant `i`'s
    /// baseline captures iteration `baseline_iteration + i`, so no two
    /// tenants ever hold the same bytes.
    pub tenants: Vec<JobId>,
    /// How every checkpoint of the scenario is copied and framed.
    pub baselines: Baselines,
    /// Whether every copy stages the whole snapshot before its first write
    /// and leases after, as the N = 1 strategy rows' copies do, rather
    /// than pipelining it with its persist.
    pub whole: bool,
}

impl Default for ForensicsRunConfig {
    fn default() -> Self {
        ForensicsRunConfig {
            state_bytes: 4 * 1024,
            slots: 3,
            flight_records: 64,
            baseline_iteration: 100,
            crash_iteration: 200,
            topology: DeviceTopology::Single,
            tenants: vec![DEFAULT_JOB],
            baselines: Baselines::Raw,
            whole: false,
        }
    }
}

impl ForensicsRunConfig {
    /// The store's geometry: a `single` one for the default job alone, a
    /// directory row and `slots` slots per tenant otherwise; every slot
    /// holds a state's frame.
    pub fn geometry(&self) -> StoreGeometry {
        let tenants = self.tenants.len() as u32;
        let state = ByteSize::from_bytes(self.state_bytes);
        let record = ByteSize::from_bytes(self.state_bytes / FRAME_CHUNKS as u64);
        StoreGeometry {
            slot_size: FrameTable::slot_size_for(state, record),
            slots: self.slots * tenants,
            flight_records: self.flight_records,
            max_namespaces: if self.tenants == [DEFAULT_JOB] {
                1
            } else {
                tenants.max(2)
            },
        }
    }

    /// The scenario's pipeline over `store`: one writer, and a staging
    /// pool of [`FRAME_CHUNKS`] chunks that holds the whole state, so
    /// every frame has the same record grid.
    fn pipeline(&self, store: &Arc<CheckpointStore>) -> PersistPipeline {
        let chunk = ByteSize::from_bytes(self.state_bytes / FRAME_CHUNKS as u64);
        PersistPipeline::new(Arc::clone(store), HostBufferPool::new(chunk, FRAME_CHUNKS))
    }

    /// Every checkpoint the driver takes when it drives `job`, in order:
    /// each tenant's baseline, then two sparse mutations of `job`'s — on
    /// the chunk grid — and, in a codec row, a third that writes the second
    /// half of chunk 1 and leaves its first half clean.
    fn checkpoints(&self, job: JobId) -> Vec<Driven> {
        let len = self.state_bytes;
        let driven = |job, iteration, state, seq, dirty| Driven {
            job,
            iteration,
            state,
            seq,
            dirty,
            acked: false,
        };
        let mut out: Vec<Driven> = (self.tenants.iter().zip(self.baseline_iteration..))
            .map(|(&tenant, iteration)| {
                let state = self.baselines.state(iteration, len);
                driven(tenant, iteration, state, 0, Vec::new())
            })
            .collect();
        let base = out.iter().find(|c| c.job == job).expect("job is a tenant");
        let mid = base.iteration + self.crash_iteration.saturating_sub(base.iteration) / 2;
        let mut mutations = vec![
            (mid, vec![(0, len / 8), (len / 2, len / 8)]),
            (self.crash_iteration, vec![(len / 4, len / 8)]),
        ];
        if self.baselines == Baselines::Codec {
            mutations.push((
                self.crash_iteration + 1,
                vec![(len / 8 + len / 16, len / 16)],
            ));
        }
        let mut state = base.state.clone();
        for (seq, (iteration, dirty)) in (1..).zip(mutations) {
            state = sparse_payload(&state, iteration, &dirty);
            out.push(driven(job, iteration, state.clone(), seq, dirty));
        }
        out
    }
}

/// One checkpoint the driver takes.
#[derive(Debug)]
struct Driven {
    job: JobId,
    iteration: u64,
    state: Vec<u8>,
    /// Its place in its tenant's checkpoints, 0 for the baseline.
    seq: u64,
    /// The ranges its mutation wrote over the tenant's previous state.
    dirty: Vec<(u64, u64)>,
    /// Whether its commit was acknowledged (`Committed`) before the crash.
    acked: bool,
}

impl Driven {
    /// The checkpoint's snapshot, with its place in its tenant's history:
    /// the codec serves what its mutation left clean.
    fn snapshot(&self) -> Snapshot<'_> {
        Snapshot {
            state: &self.state,
            step: self.iteration,
            history: Some((self.seq, &self.dirty)),
        }
    }
}

/// The [`Version::source`] of every driven tenant's history: GPUs take
/// theirs counting up from 0, and a scenario's pipeline serves no GPU.
const DRIVER_SOURCE: u64 = u64::MAX;

/// A snapshot the driver copies: a state and the step it captures, and —
/// when it has one — its place in its tenant's history and the ranges
/// written since the checkpoint before it.
struct Snapshot<'a> {
    state: &'a [u8],
    step: u64,
    history: Option<(u64, &'a [(u64, u64)])>,
}

impl SnapshotSource for Snapshot<'_> {
    fn size(&self) -> ByteSize {
        ByteSize::from_bytes(self.state.len() as u64)
    }

    fn step_count(&self) -> u64 {
        self.step
    }

    fn copy_range_to_host(&self, offset: u64, dst: &mut [u8]) {
        let at = offset as usize;
        dst.copy_from_slice(&self.state[at..at + dst.len()]);
    }

    fn version(&self) -> Option<Version> {
        let (seq, _) = self.history?;
        Some(Version {
            source: DRIVER_SOURCE,
            seq,
        })
    }

    fn dirty_since(&self, seq: u64) -> Option<Vec<(u64, u64)>> {
        let (at, dirty) = self.history?;
        (seq + 1 == at).then(|| dirty.to_vec())
    }
}

/// Everything one crash scenario produces.
#[derive(Debug)]
pub struct ForensicsRun {
    /// The tenant whose mutations the driver took, and whom recovery ran
    /// for.
    pub job: JobId,
    /// The device, post-recovery (the store image is still on it).
    pub device: Arc<dyn PersistentDevice>,
    /// The forensic audit taken while the device was still crashed.
    pub report: ForensicReport,
    /// The counters of `job`'s checkpoints, in the order they were leased.
    pub counters: Vec<u64>,
    /// What recovery restored for `job` after power-on, and its measured
    /// phase latencies; `None` when no checkpoint of `job` survived.
    pub recovered: Option<(RecoveredCheckpoint, RecoveryTrace)>,
    config: ForensicsRunConfig,
    checkpoints: Vec<Driven>,
}

/// `base` with each `(offset, len)` range overwritten by deterministic
/// bytes seeded from `iteration` — a sparse mutation of the full state.
// api: a test oracle, listed in DESIGN §4 ("Test oracles").
pub fn sparse_payload(base: &[u8], iteration: u64, ranges: &[(u64, u64)]) -> Vec<u8> {
    let mut full = base.to_vec();
    for &(off, len) in ranges {
        for i in off..off + len {
            full[i as usize] = (iteration as u8).wrapping_mul(37).wrapping_add(i as u8);
        }
    }
    full
}

/// Record grid of every frame a scenario writes: the state cut into
/// eighths.
const FRAME_CHUNKS: usize = 8;

/// A [`Baselines::Codec`] state seeded by `seed`: 32-byte tiles in every
/// even eighth, so those chunks compress, and one chunk of pseudo-random
/// bytes repeated in every odd eighth, which stays `Raw` — so each chunk
/// from the third on is a `DedupSelf` copy of chunk 0 or of chunk 1, a
/// restore that copies from the wrong job lands the wrong bytes, and the
/// clean part of chunk 1 has a home that holds it verbatim.
fn tiled_payload(seed: u64, len: u64) -> Vec<u8> {
    let chunk = (len / FRAME_CHUNKS as u64).max(1);
    let mut noise = vec![0u8; chunk as usize];
    pccheck_util::rng::fill_deterministic(&mut noise, seed);
    (0..len)
        .map(|i| match (i / chunk) % 2 {
            0 => (seed as u8).wrapping_mul(31).wrapping_add(i as u8 % 32),
            _ => noise[(i % chunk) as usize],
        })
        .collect()
}

/// Commits one checkpoint of `job` — `payload` as its all-`Raw` frame of
/// eight records — through the store's own calls, with no pipeline and no
/// flight records: a reference writer for tests that compare the codec
/// against raw frames. Returns the checkpoint's counter.
///
/// # Errors
///
/// Propagates device/store errors; `job` must have a namespace.
// api: a test oracle, listed in DESIGN §4 ("Test oracles").
pub fn commit_checkpoint(
    store: &CheckpointStore,
    job: JobId,
    iteration: u64,
    payload: &[u8],
) -> Result<u64, PccheckError> {
    let lease = store.begin_checkpoint(&store.namespace(job)?);
    let counter = lease.counter;
    let full_digest = StateDigest::of_payload(payload, iteration).0;
    let (frame, digest) = raw_frame(counter, full_digest, payload, payload.len() / FRAME_CHUNKS);
    store.write_payload(&lease, 0, &frame)?;
    store.persist_payload(&lease, 0, frame.len() as u64)?;
    store.commit(lease, iteration, frame.len() as u64, digest)?;
    Ok(counter)
}

/// Takes one checkpoint of `job` through `pipeline` — lease, copy as
/// `cfg` says, seal, commit — of `src`, acknowledged at `iteration`.
/// `leased` sees the counter before the copy starts. Returns whether the
/// commit was acknowledged as the tenant's newest.
fn checkpoint(
    pipeline: &PersistPipeline,
    cfg: &ForensicsRunConfig,
    job: JobId,
    iteration: u64,
    src: Snapshot<'_>,
    leased: impl FnOnce(u64),
) -> Result<bool, PccheckError> {
    let telemetry = Telemetry::disabled();
    let ctx = PipelineCtx {
        telemetry: &telemetry,
        span: SpanId::NONE,
    };
    let lease = pipeline.lease(ctx, &pipeline.store().namespace(job)?);
    leased(lease.counter);
    let lz = cfg.baselines == Baselines::Codec;
    let copied = pipeline.copy(ctx, src, &lease, iteration, cfg.whole, lz)?;
    pipeline.seal(ctx, &lease, iteration, &copied)?;
    Ok(pipeline.commit(ctx, lease, iteration, &copied)? == CommitOutcome::Committed)
}

/// What recovery restored for one tenant, and how.
type Recovered = Option<(RecoveredCheckpoint, RecoveryTrace)>;

/// Recovers `job`'s newest checkpoint from `device` on `readers` readers;
/// `None` when it has none.
fn recover_job(
    device: &Arc<dyn PersistentDevice>,
    job: JobId,
    readers: usize,
) -> Result<Recovered, PccheckError> {
    let options = RestoreOptions {
        job: Some(job),
        readers,
    };
    match recover_instrumented_with(Arc::clone(device), &Telemetry::disabled(), options) {
        Ok(recovered) => Ok(Some(recovered)),
        Err(PccheckError::NoCheckpoint) => Ok(None),
        Err(e) => Err(e),
    }
}

/// The powered-off device, the counters `job` leased, every checkpoint.
type Crashed = (Arc<dyn PersistentDevice>, Vec<u64>, Vec<Driven>);

/// [`run_to_crash`] up to the crash: the powered-off device, before any
/// audit or recovery touches it.
fn crash(
    cfg: &ForensicsRunConfig,
    job: JobId,
    k: u64,
    policy: CrashPolicy,
) -> Result<Option<Crashed>, PccheckError> {
    if !cfg.tenants.contains(&job) {
        return Err(PccheckError::InvalidConfig(format!(
            "job {job} is not one of the scenario's tenants {:?}",
            cfg.tenants
        )));
    }
    let geometry = cfg.geometry();
    let (device, arm, fired) = fused_device(cfg.topology, geometry, policy);
    let store = Arc::new(CheckpointStore::format(Arc::clone(&device), geometry)?);
    for &tenant in cfg.tenants.iter().filter(|&&t| t != DEFAULT_JOB) {
        store.allocate_namespace(tenant, cfg.slots)?;
    }
    let pipeline = cfg.pipeline(&store);
    let mut checkpoints = cfg.checkpoints(job);
    let mut counters = Vec::new();
    arm(k);
    for c in &mut checkpoints {
        let leased = |counter| {
            if c.job == job {
                counters.push(counter);
            }
        };
        match checkpoint(&pipeline, cfg, c.job, c.iteration, c.snapshot(), leased) {
            Ok(acked) => c.acked = acked,
            // Only the crash may stop the run.
            Err(_) if fired() => break,
            Err(e) => return Err(e),
        }
    }
    drop(pipeline);
    drop(store);
    // A flight-ring append swallows its device error, so only the device
    // knows whether the fuse fired; a run it outlasts acknowledged all.
    match checkpoints.iter().find(|c| !c.acked) {
        _ if fired() => Ok(Some((device, counters, checkpoints))),
        None => Ok(None),
        Some(c) => Err(PccheckError::InvalidConfig(format!(
            "no crash, yet job {}'s commit of iteration {} was not acknowledged",
            c.job, c.iteration
        ))),
    }
}

/// Runs the scenario of `cfg` driving `job` on a fresh store whose power
/// domain crashes on its `k`-th persist (0-based) after the store is
/// formatted and every tenant's namespace allocated, its members crashing
/// under `policy`; audits the frozen device, powers it on and recovers
/// `job` with the product's default restore options. `None` when the run
/// made no more than `k` persists, so the fuse never fired — the end of a
/// sweep over `k`.
///
/// # Errors
///
/// [`PccheckError::InvalidConfig`] when `job` is not one of `cfg`'s
/// tenants, or when a run the fuse outlasts left a commit unacknowledged;
/// any other error of the set-up, of a checkpoint the crash did not stop,
/// of the audit or of recovery. The injected crash itself is absorbed.
pub fn run_to_crash(
    cfg: &ForensicsRunConfig,
    job: JobId,
    k: u64,
    policy: CrashPolicy,
) -> Result<Option<ForensicsRun>, PccheckError> {
    let Some((device, counters, checkpoints)) = crash(cfg, job, k, policy)? else {
        return Ok(None);
    };
    let report = pccheck_monitor::audit(Arc::clone(&device))?;
    device.recover();
    let recovered = recover_job(&device, job, RestoreOptions::default().readers)?;
    Ok(Some(ForensicsRun {
        job,
        device,
        report,
        counters,
        recovered,
        config: cfg.clone(),
        checkpoints,
    }))
}

/// The durable image [`run_to_crash`]'s crash leaves, read before
/// power-on (recovery appends flight records); `None` when the fuse never
/// fired.
///
/// # Errors
///
/// Those of [`run_to_crash`]'s set-up, and device read errors.
pub fn crashed_image(
    cfg: &ForensicsRunConfig,
    job: JobId,
    k: u64,
) -> Result<Option<Vec<u8>>, PccheckError> {
    let Some((device, ..)) = crash(cfg, job, k, CrashPolicy::DropUnpersisted)? else {
        return Ok(None);
    };
    let mut image = vec![0; device.capacity().as_u64() as usize];
    device.read_durable_at(0, &mut image)?;
    Ok(Some(image))
}

/// A device, the persist fuse of its whole power domain (`arm(n)` lets `n`
/// more persists through and crashes on the next) and whether it fired.
type Fused = (
    Arc<dyn PersistentDevice>,
    Box<dyn Fn(u64)>,
    Box<dyn Fn() -> bool>,
);

/// Device `d` with its own fuse's `arm` and crashed-state probe.
fn fused<D: PersistentDevice + 'static>(d: D, arm: fn(&D, u64), fired: fn(&D) -> bool) -> Fused {
    let d = Arc::new(d);
    let (a, f) = (Arc::clone(&d), Arc::clone(&d));
    (
        d,
        Box::new(move |n| arm(&a, n)),
        Box::new(move || fired(&f)),
    )
}

/// A fresh device of `topology` with room for `geometry`, whose SSDs crash
/// under `policy`.
fn fused_device(topology: DeviceTopology, geometry: StoreGeometry, policy: CrashPolicy) -> Fused {
    let cap = geometry.required_capacity() + ByteSize::from_kb(4);
    let ssd = || SsdDevice::with_crash_policy(DeviceConfig::fast_for_tests(cap), policy);
    match topology {
        DeviceTopology::Single => fused(
            ssd(),
            SsdDevice::arm_crash_after_persists,
            SsdDevice::is_crashed,
        ),
        DeviceTopology::Striped { ways } => fused(
            StripedDevice::new(
                (0..ways.max(1))
                    .map(|_| Arc::new(ssd()) as Arc<dyn PersistentDevice>)
                    .collect(),
                ByteSize::from_kb(1),
            ),
            StripedDevice::arm_crash_after_persists,
            StripedDevice::is_crashed,
        ),
    }
}

impl ForensicsRun {
    /// The agreement every crash owes every tenant: the audit of the
    /// frozen device is clean; one reader recovers for the driven tenant
    /// what the default readers did; for each tenant, the audit predicts the
    /// checkpoint recovery restores, whose bytes are exactly the state the
    /// driver took at its iteration and which is no older than the
    /// tenant's last acknowledged commit; the slots' state-word lattice
    /// agrees with what each tenant recovered (no slot decides `Torn`, no
    /// `InFlight` counter is recovered, no `Committed` slot of a tenant's
    /// namespace is newer than what it recovered); and the store makes
    /// progress: reopened, it commits one more checkpoint of the driven
    /// tenant, acknowledged at an iteration other than its step, which
    /// recovers bit-exactly.
    ///
    /// # Errors
    ///
    /// Describes the first disagreement.
    pub fn verify(&self) -> Result<(), String> {
        if !self.report.is_clean() {
            return Err(format!("audit not clean:\n{}", self.report.render()));
        }
        let key = |r: &Recovered| -> Option<(u64, u64, u64, u64)> {
            r.as_ref()
                .map(|(r, t)| (r.counter, r.iteration, t.chain_links, fnv1a(&r.payload)))
        };
        let mut heads = Vec::new();
        for &job in &self.config.tenants {
            let recovered = recover_job(&self.device, job, 1)
                .map_err(|e| format!("job {job} did not recover: {e}"))?;
            if job == self.job && key(&recovered) != key(&self.recovered) {
                return Err(format!(
                    "job {job}: the default readers recovered {:?}, one reader {:?} \
                     (counter, iteration, links, payload digest)",
                    key(&self.recovered),
                    key(&recovered)
                ));
            }
            let recovered = recovered.map(|(r, _)| r);
            self.check_tenant(job, recovered.as_ref())?;
            heads.push((job, recovered.map(|r| r.counter)));
        }
        // Recovery appends flight records only: the directory and the slot
        // words are still the ones the crash left.
        let view = RawStoreView::load(self.device.as_ref())
            .map_err(|e| format!("the crashed store does not load: {e}"))?;
        for (ns, &(job, head)) in view.namespaces.iter().zip(&heads) {
            for slot in ns.desc.slot_range() {
                let outcome = self.report.slot_outcomes[slot as usize];
                let disagrees = match outcome {
                    SlotOutcome::Torn { .. } => true,
                    SlotOutcome::InFlight { counter } => head == Some(counter),
                    SlotOutcome::Committed { counter } => head < Some(counter),
                    _ => false,
                };
                if ns.desc.job != job || disagrees {
                    return Err(format!(
                        "job {job} recovered checkpoint {head:?}, slot {slot} of job {} \
                         decides {outcome}",
                        ns.desc.job
                    ));
                }
            }
        }
        self.check_progress()
    }

    /// `job`'s share of [`verify`](Self::verify): prediction, bytes and
    /// age of what it `recovered`.
    fn check_tenant(
        &self,
        job: JobId,
        recovered: Option<&RecoveredCheckpoint>,
    ) -> Result<(), String> {
        let predicted = self.report.expected_recovery(job).map(|m| m.counter);
        let restored = recovered.map(|r| r.counter);
        if predicted != restored {
            return Err(format!(
                "job {job}: audit predicted checkpoint {predicted:?}, recovery restored {restored:?}"
            ));
        }
        let mut taken = self.checkpoints.iter().filter(|c| c.job == job);
        let acked = taken.clone().filter(|c| c.acked).map(|c| c.iteration).max();
        let Some(recovered) = recovered else {
            return acked.map_or(Ok(()), |acked| {
                Err(format!(
                    "job {job} recovered nothing, its iteration {acked} acknowledged"
                ))
            });
        };
        let iteration = recovered.iteration;
        if acked.is_some_and(|acked| iteration < acked) {
            return Err(format!(
                "job {job} recovered iteration {iteration}, older than its acknowledged {acked:?}"
            ));
        }
        match taken.find(|c| c.iteration == iteration) {
            Some(c) if c.state == recovered.payload => Ok(()),
            Some(_) => Err(format!(
                "job {job}'s iteration {iteration} recovered, not bit-exact"
            )),
            None => Err(format!(
                "job {job} recovered iteration {iteration}, which it never checkpointed"
            )),
        }
    }

    /// The progress check of [`verify`](Self::verify), on its own thread:
    /// a lease that never comes back panics rather than hanging the caller.
    fn check_progress(&self) -> Result<(), String> {
        let (device, job, cfg) = (Arc::clone(&self.device), self.job, self.config.clone());
        must_not_hang("a checkpoint after recovery", move || {
            let store = CheckpointStore::open(Arc::clone(&device))
                .map_err(|e| format!("the recovered store does not open: {e}"))?;
            let pipeline = cfg.pipeline(&Arc::new(store));
            let iteration = cfg.crash_iteration + 2;
            let state = cfg.baselines.state(iteration, cfg.state_bytes);
            let src = Snapshot {
                state: &state,
                step: iteration + 1,
                history: None,
            };
            let acked = checkpoint(&pipeline, &cfg, job, iteration, src, drop)
                .map_err(|e| format!("no checkpoint after recovery: {e}"))?;
            drop(pipeline);
            let recovered = recover_job(&device, job, 1)
                .map_err(|e| format!("the checkpoint after recovery does not recover: {e}"))?;
            match recovered {
                Some((r, _)) if acked && r.iteration == iteration && r.payload == state => Ok(()),
                other => Err(format!(
                    "the checkpoint after recovery (acknowledged: {acked}) recovered as {:?}",
                    other.map(|(r, _)| (r.counter, r.iteration))
                )),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_topology_crashes_on_the_armed_persist() {
        let geometry = ForensicsRunConfig::default().geometry();
        for topology in [DeviceTopology::Single, DeviceTopology::Striped { ways: 2 }] {
            let (device, arm, fired) =
                fused_device(topology, geometry, CrashPolicy::DropUnpersisted);
            arm(1);
            device.write_at(0, &[7; 512]).unwrap();
            device.persist(0, 512).unwrap();
            assert!(!fired(), "{topology:?}: fired one persist early");
            assert!(device.persist(0, 512).is_err(), "{topology:?}");
            assert!(fired(), "{topology:?}: the armed persist did not crash");
        }
    }

    #[test]
    fn the_crashed_image_audits_like_the_crashed_device() {
        let cfg = ForensicsRunConfig::default();
        let run = run_to_crash(&cfg, DEFAULT_JOB, 30, CrashPolicy::DropUnpersisted);
        let run = run.unwrap().unwrap();
        let image = crashed_image(&cfg, DEFAULT_JOB, 30).unwrap().unwrap();
        let cap = ByteSize::from_bytes(image.len() as u64);
        let copy = Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        copy.write_at(0, &image).unwrap();
        copy.persist(0, cap.as_u64()).unwrap();
        let report = pccheck_monitor::audit(copy).unwrap();
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.render(), run.report.render());
        assert!(crashed_image(&cfg, DEFAULT_JOB, 10_000).unwrap().is_none());
    }

    #[test]
    fn a_fuse_the_run_outlasts_ends_the_sweep() {
        let cfg = ForensicsRunConfig::default();
        // `None` also says that every commit of the run was acknowledged.
        let run = run_to_crash(&cfg, DEFAULT_JOB, 10_000, CrashPolicy::DropUnpersisted);
        assert!(run.unwrap().is_none());
        assert!(run_to_crash(&cfg, 7, 0, CrashPolicy::DropUnpersisted).is_err());
    }
}
