//! Crash-injected runs for the post-crash forensic auditor.
//!
//! The crash-consistency property tests crash the device at *random*
//! points; this module instead pins the crash to an exact step of the
//! commit protocol (Listing 1) so the forensic verdicts in
//! [`pccheck_monitor::forensics`] can be asserted deterministically:
//!
//! * between the slot claim and any subsequent write (only the durable
//!   per-slot state word witnesses the checkpoint),
//! * during the GPU→storage copy (payload half-written, nothing durable),
//! * during the payload `msync` (the [`SsdDevice`] persist fuse fires
//!   mid-call, so the range never becomes durable),
//! * between payload persist and commit (payload durable, never published),
//! * after commit (the checkpoint is the recovery target),
//! * mid dedup chain (a chunk-framed checkpoint whose clean chunks are
//!   `DedupBase` references into the baseline committed on top of it, a
//!   second frame stranded before its meta record — recovery must resolve
//!   the committed frame through its pinned base).
//!
//! Each scenario drives the [`CheckpointStore`] directly, emitting the
//! same flight records the engine does, crashes, audits the frozen
//! device, then powers it back on and recovers — returning all three
//! artifacts (report, recovered checkpoint, recovery trace) so tests,
//! `pccheckctl`, and CI can cross-check them, and [`ForensicsRun::verify`]
//! is the one checker they share. Every driver takes the tenant it
//! drives, so the same six crash points run on a single-tenant store (the
//! default job) and on one several jobs share, over all-`Raw` and over
//! codec-packed baselines ([`crash_matrix`]).

use std::sync::Arc;

use pccheck::store::SlotLease;
use pccheck::{
    raw_frame, recover_instrumented_with, CheckMeta, CheckpointStore, ChunkEncoding, CopyMode,
    DeltaLink, FrameRecord, FrameTable, JobId, Namespace, PccheckError, PersistPipeline,
    PipelineCtx, RecoveredCheckpoint, RecoveryTrace, RestoreOptions, SlotOutcome, StoreGeometry,
    StoreLayout, DEFAULT_JOB,
};
use pccheck_device::{
    DeviceConfig, HostBufferPool, PersistentDevice, SsdDevice, StripedDevice, TieredDevice,
};
use pccheck_gpu::StateDigest;
use pccheck_monitor::ForensicReport;
use pccheck_telemetry::{FlightEventKind, SpanId, Telemetry};
use pccheck_util::fnv::{content_address, fnv1a};
use pccheck_util::ByteSize;

use crate::HostPayload;

/// A protocol step at which the crash is injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Between the slot claim and any payload/meta write: the slot's
    /// durable state word says `Claimed{counter}` but no other trace of
    /// the checkpoint exists — the state-word lattice alone must decide
    /// the slot as in-flight (detectable recovery, DESIGN §13).
    ClaimPublish,
    /// Mid GPU→storage copy: the payload is half-written and unpersisted.
    DuringCopy,
    /// During the payload `msync`: the persist call itself crashes.
    DuringPersist,
    /// After the payload persisted but before the commit publishes it.
    BetweenPersistAndCommit,
    /// After the commit completed; the checkpoint must be recovered.
    AfterCommit,
    /// Mid dedup chain: one frame committed whose clean chunks reference
    /// the baseline, a second frame's payload durable but its meta record
    /// never written — recovery must resolve the committed frame through
    /// its pinned base.
    DedupChain,
}

impl CrashPoint {
    /// Every crash point, in protocol order.
    pub const ALL: [CrashPoint; 6] = [
        CrashPoint::ClaimPublish,
        CrashPoint::DuringCopy,
        CrashPoint::DuringPersist,
        CrashPoint::BetweenPersistAndCommit,
        CrashPoint::AfterCommit,
        CrashPoint::DedupChain,
    ];

    /// Stable name (accepted by [`CrashPoint::from_name`] and pccheckctl).
    pub fn name(&self) -> &'static str {
        match self {
            CrashPoint::ClaimPublish => "claim-publish",
            CrashPoint::DuringCopy => "during-copy",
            CrashPoint::DuringPersist => "during-persist",
            CrashPoint::BetweenPersistAndCommit => "between-persist-and-commit",
            CrashPoint::AfterCommit => "after-commit",
            CrashPoint::DedupChain => "dedup-chain",
        }
    }

    /// Parses a [`CrashPoint::name`].
    pub fn from_name(name: &str) -> Option<CrashPoint> {
        CrashPoint::ALL.iter().copied().find(|p| p.name() == name)
    }
}

impl std::fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

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
    /// A [`TieredDevice`]: a hot tier holding the slot region with the
    /// flight ring and slot state words spilling to a second SSD. The crash
    /// fires the *tier member's* fuse; the composite powers off the whole
    /// device when the member persist fails, exactly like a shared power
    /// domain.
    Tiered,
}

/// How a scenario frames the checkpoints it commits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Baselines {
    /// Every checkpoint is the all-`Raw` frame of a [`synthetic_payload`],
    /// written through the store's own calls.
    Raw,
    /// Each tenant's baseline is a state of 32-byte tiles committed through
    /// a [`PersistPipeline`] under [`CopyMode::Codec`]: compressed records
    /// and `DedupSelf` copies, which only codec-packed frames carry. The
    /// [`CrashPoint::AfterCommit`] and [`CrashPoint::DedupChain`]
    /// checkpoints go through the codec too, taking `DedupBase` hits on
    /// the baseline; at the other points an all-`Raw` frame is interrupted.
    Codec,
}

impl Baselines {
    /// The state a tenant's baseline captures at `iteration`.
    fn state(self, iteration: u64, len: u64) -> Vec<u8> {
        match self {
            Baselines::Raw => synthetic_payload(iteration, len),
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
    /// Iteration captured by the committed baseline checkpoint.
    pub baseline_iteration: u64,
    /// Iteration captured by the checkpoint the crash interrupts.
    pub crash_iteration: u64,
    /// Device topology backing the store.
    pub topology: DeviceTopology,
    /// The jobs sharing the store, one namespace of `slots` slots each.
    /// `[DEFAULT_JOB]` is a [`StoreGeometry::single`] store. Tenant `i`'s
    /// baseline captures iteration `baseline_iteration + i`, so no two
    /// tenants ever hold the same bytes.
    pub tenants: Vec<JobId>,
    /// How the tenants' baselines, and the checkpoint driven past them,
    /// are framed.
    pub baselines: Baselines,
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
        }
    }
}

impl ForensicsRunConfig {
    /// The default geometry on a `ways`-wide stripe set.
    pub fn striped(ways: u32) -> Self {
        ForensicsRunConfig {
            topology: DeviceTopology::Striped { ways },
            ..Self::default()
        }
    }

    /// The default geometry on a hot-tier + spill device pair.
    pub fn tiered() -> Self {
        ForensicsRunConfig {
            topology: DeviceTopology::Tiered,
            ..Self::default()
        }
    }

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
}

/// The one table both tenancies' crash tests run: flat, striped and tiered
/// devices, each as a single-tenant store and as one shared by jobs 1..=3,
/// each over all-`Raw` and over codec-packed baselines. A test runs every
/// tenant of a row through [`CrashPoint::ALL`].
pub fn crash_matrix() -> Vec<ForensicsRunConfig> {
    let topologies = [
        ForensicsRunConfig::default(),
        ForensicsRunConfig::striped(2),
        ForensicsRunConfig::tiered(),
    ];
    let tenancies = [vec![DEFAULT_JOB], vec![1, 2, 3]];
    let mut rows = Vec::new();
    for cfg in &topologies {
        for tenants in &tenancies {
            for baselines in [Baselines::Raw, Baselines::Codec] {
                rows.push(ForensicsRunConfig {
                    tenants: tenants.clone(),
                    baselines,
                    ..cfg.clone()
                });
            }
        }
    }
    rows
}

/// Everything one crash scenario produces.
#[derive(Debug)]
pub struct ForensicsRun {
    /// Where the crash was injected.
    pub crash_point: CrashPoint,
    /// The tenant whose checkpoint the crash interrupted, and whom
    /// recovery ran for.
    pub job: JobId,
    /// The device, post-recovery (the store image is still on it).
    pub device: Arc<dyn PersistentDevice>,
    /// The forensic audit taken while the device was still crashed.
    pub report: ForensicReport,
    /// The counter of the checkpoint the crash interrupted (or, for
    /// [`CrashPoint::AfterCommit`], completed).
    pub crashed_counter: u64,
    /// What recovery actually restored after power-on.
    pub recovered: RecoveredCheckpoint,
    /// The bytes a correct recovery restores: the crashed checkpoint's
    /// after [`CrashPoint::AfterCommit`], the committed frame's state
    /// after [`CrashPoint::DedupChain`], the tenant's baseline otherwise.
    pub expected_payload: Vec<u8>,
    /// Measured recovery-path phase latencies.
    pub trace: RecoveryTrace,
    /// Every tenant's baseline state, `(job, state)` in
    /// [`ForensicsRunConfig::tenants`] order: what each bystander must
    /// still recover.
    pub baselines: Vec<(JobId, Vec<u8>)>,
}

/// Deterministic per-iteration payload bytes.
pub fn synthetic_payload(iteration: u64, len: u64) -> Vec<u8> {
    (0..len)
        .map(|i| (iteration as u8).wrapping_mul(31).wrapping_add(i as u8))
        .collect()
}

/// `base` with each `(offset, len)` range overwritten by deterministic
/// bytes seeded from `iteration` — a sparse mutation of the full state.
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

/// A [`Baselines::Codec`] state seeded by `seed`: 32-byte tiles, so every
/// chunk compresses, shifted by 128 in every odd eighth — so each chunk
/// from the third on is a `DedupSelf` copy of chunk 0 or of chunk 1, and a
/// restore that copies from the wrong job lands the wrong bytes.
fn tiled_payload(seed: u64, len: u64) -> Vec<u8> {
    let chunk = (len / FRAME_CHUNKS as u64).max(1);
    (0..len)
        .map(|i| {
            let shift = ((i / chunk) % 2) as u8 * 128;
            (seed as u8)
                .wrapping_mul(31)
                .wrapping_add(i as u8 % 32)
                .wrapping_add(shift)
        })
        .collect()
}

/// Which chunks of `full` are byte-identical to the same chunk of `base`.
fn unchanged_chunks(full: &[u8], base: &[u8]) -> Vec<bool> {
    let chunk = full.len() / FRAME_CHUNKS;
    full.chunks(chunk)
        .zip(base.chunks(chunk))
        .map(|(a, b)| a == b)
        .collect()
}

/// `state`, captured at `iteration`, as checkpoint `counter`'s all-`Raw`
/// frame of [`FRAME_CHUNKS`] records — the product's builder, so every
/// record is a chunk a later frame may reference — and its commit digest.
fn all_raw_frame(counter: u64, iteration: u64, state: &[u8]) -> (Vec<u8>, u64) {
    let full_digest = StateDigest::of_payload(state, iteration).0;
    raw_frame(counter, full_digest, state, state.len() / FRAME_CHUNKS)
}

/// Serializes a frame for `full`, laid out the way the persist pipeline
/// would over base checkpoint `base`: chunk `i` becomes a `DedupBase`
/// record naming `base` when `reuse[i]` (the base holds those bytes
/// materialized), a packed `Raw` record otherwise. Returns the payload
/// and its commit digest.
fn build_frame_payload(
    full: &[u8],
    iteration: u64,
    counter: u64,
    base: &CheckMeta,
    reuse: &[bool],
) -> (Vec<u8>, u64) {
    let chunk = full.len() / FRAME_CHUNKS;
    let mut packed = Vec::new();
    let records = full
        .chunks(chunk)
        .zip(reuse)
        .enumerate()
        .map(|(i, (bytes, &reuse))| {
            let (kind, aux, a, b) = if reuse {
                let logical_off = (i * chunk) as u64;
                (ChunkEncoding::DedupBase, base.slot, base.counter, logical_off)
            } else {
                let phys_off = packed.len() as u64;
                packed.extend_from_slice(bytes);
                (ChunkEncoding::Raw, 0, phys_off, bytes.len() as u64)
            };
            FrameRecord {
                kind,
                aux,
                logical_len: bytes.len() as u64,
                a,
                b,
                digest: content_address(bytes),
            }
        })
        .collect();
    let table = FrameTable {
        counter,
        logical_len: full.len() as u64,
        full_digest: StateDigest::of_payload(full, iteration).0,
        records,
    };
    let table = table.encode();
    let digest = fnv1a(&table);
    ([table, packed].concat(), digest)
}

/// The state the [`CrashPoint::DedupChain`] scenario commits as a frame
/// over baseline `base`, captured at `base_iteration`, halfway to
/// `crash_iteration`: a sparse mutation of the baseline. Returns
/// `(iteration, state)`.
fn dedup_mid_state(base: &[u8], base_iteration: u64, crash_iteration: u64) -> (u64, Vec<u8>) {
    let len = base.len() as u64;
    let mid_iteration = base_iteration + crash_iteration.saturating_sub(base_iteration) / 2;
    let full_mid = sparse_payload(base, mid_iteration, &[(0u64, len / 8), (len / 2, len / 8)]);
    (mid_iteration, full_mid)
}

/// The state the [`CrashPoint::DedupChain`] scenario strands over the
/// committed frame's state `mid`: a sparse mutation of it.
fn dedup_stranded_state(mid: &[u8], crash_iteration: u64) -> Vec<u8> {
    let len = mid.len() as u64;
    sparse_payload(mid, crash_iteration, &[(len / 4, len / 8)])
}

/// Writes and persists `frame`, checkpoint `iteration`'s payload, into
/// `lease`'s slot, emitting the engine's flight records up to
/// `PayloadPersisted`.
fn persist_frame(
    store: &CheckpointStore,
    lease: &SlotLease,
    iteration: u64,
    frame: &[u8],
) -> Result<(), PccheckError> {
    let (counter, slot, len) = (lease.counter, lease.slot, frame.len() as u64);
    store.write_payload(lease, 0, frame)?;
    store
        .flight()
        .record(FlightEventKind::CopyDone, counter, slot, 0, len, 0);
    store.persist_payload(lease, 0, len)?;
    store.flight().record(
        FlightEventKind::PayloadPersisted,
        counter,
        slot,
        iteration,
        len,
        0,
    );
    Ok(())
}

/// Commits one checkpoint of `job` — `payload` as its all-`Raw` frame —
/// through the store, emitting the same flight records the engine does.
/// Returns the checkpoint's counter.
///
/// # Errors
///
/// Propagates device/store errors; `job` must have a namespace.
pub fn commit_checkpoint(
    store: &CheckpointStore,
    job: JobId,
    iteration: u64,
    payload: &[u8],
) -> Result<u64, PccheckError> {
    let ns = store.namespace(job)?;
    commit(store, &ns, iteration, payload).map(|(counter, _)| counter)
}

/// [`commit_checkpoint`] in `ns`; returns `(counter, slot)`.
fn commit(
    store: &CheckpointStore,
    ns: &Arc<Namespace>,
    iteration: u64,
    payload: &[u8],
) -> Result<(u64, u32), PccheckError> {
    let lease = store.begin_checkpoint(ns);
    let (counter, slot) = (lease.counter, lease.slot);
    let (frame, digest) = all_raw_frame(counter, iteration, payload);
    persist_frame(store, &lease, iteration, &frame)?;
    store.commit(lease, iteration, frame.len() as u64, digest)?;
    Ok((counter, slot))
}

/// Drives one checkpoint of `job` — `payload` as its all-`Raw` frame — up
/// to (but not through) `point`, emitting the engine's flight records
/// along the way; the other tenants' committed state stays untouched. For
/// [`CrashPoint::AfterCommit`] the checkpoint commits fully; for
/// [`CrashPoint::DuringPersist`] the frame is written and `CopyDone`
/// recorded, but the persist is left to the caller (who crashes it).
/// Returns `(counter, slot)` of the driven checkpoint.
///
/// # Errors
///
/// Propagates device/store errors; `job` must have a namespace.
pub fn drive_to_crash_point(
    store: &CheckpointStore,
    job: JobId,
    point: CrashPoint,
    iteration: u64,
    payload: &[u8],
) -> Result<(u64, u32), PccheckError> {
    let ns = &store.namespace(job)?;
    if point == CrashPoint::AfterCommit {
        return commit(store, ns, iteration, payload);
    }
    if point == CrashPoint::DedupChain {
        // A frame committed halfway between the baseline and the crash
        // iteration — its clean chunks reference the (all-`Raw`) baseline,
        // which its link pins — then a second frame stranded with its
        // payload durable but no meta record, exactly like a process
        // dying between persist and commit.
        let base = store
            .latest_committed(ns)
            .ok_or(PccheckError::NoCheckpoint)?;
        let len = payload.len() as u64;
        let base_payload = synthetic_payload(base.iteration, len);
        let (mid_iteration, full_mid) = dedup_mid_state(&base_payload, base.iteration, iteration);
        let from_base = unchanged_chunks(&full_mid, &base_payload);
        let lease = store.begin_checkpoint(ns);
        let (frame, digest) =
            build_frame_payload(&full_mid, mid_iteration, lease.counter, &base, &from_base);
        persist_frame(store, &lease, mid_iteration, &frame)?;
        store.commit_with_delta(
            lease,
            mid_iteration,
            frame.len() as u64,
            digest,
            Some(DeltaLink {
                base_counter: base.counter,
                base_slot: base.slot,
                chain_depth: base.delta.map_or(0, |l| l.chain_depth) + 1,
            }),
        )?;

        // The stranded frame bases on the committed one and may only
        // reference chunks that one materialized (references never chain).
        let mid = store
            .latest_committed(ns)
            .ok_or(PccheckError::NoCheckpoint)?;
        let full_crash = dedup_stranded_state(&full_mid, iteration);
        let from_mid: Vec<bool> = unchanged_chunks(&full_crash, &full_mid)
            .iter()
            .zip(&from_base)
            .map(|(&unchanged, &mid_referenced)| unchanged && !mid_referenced)
            .collect();
        let lease = store.begin_checkpoint(ns);
        let (frame, _) =
            build_frame_payload(&full_crash, iteration, lease.counter, &mid, &from_mid);
        persist_frame(store, &lease, iteration, &frame)?;
        let stranded = (lease.counter, lease.slot);
        std::mem::forget(lease);
        return Ok(stranded);
    }
    let lease = store.begin_checkpoint(ns);
    let (counter, slot) = (lease.counter, lease.slot);
    let (frame, _) = all_raw_frame(counter, iteration, payload);
    match point {
        CrashPoint::ClaimPublish => {
            // Nothing: the claim already published the slot's durable
            // state word inside `begin_checkpoint`; the crash lands before
            // a single payload or meta byte follows it.
        }
        CrashPoint::DuringCopy => {
            // Half the frame lands in the page cache; no CopyDone yet.
            store.write_payload(&lease, 0, &frame[..frame.len() / 2])?;
        }
        CrashPoint::DuringPersist => {
            store.write_payload(&lease, 0, &frame)?;
            let len = frame.len() as u64;
            store
                .flight()
                .record(FlightEventKind::CopyDone, counter, slot, 0, len, 0);
            // The fatal msync is the caller's move.
        }
        CrashPoint::BetweenPersistAndCommit => persist_frame(store, &lease, iteration, &frame)?,
        CrashPoint::AfterCommit | CrashPoint::DedupChain => unreachable!("handled above"),
    }
    // The lease is deliberately leaked: the crash strands the in-flight
    // slot, exactly like a process dying mid-checkpoint.
    std::mem::forget(lease);
    Ok((counter, slot))
}

/// A codec row's pipeline: its staging pool holds the whole state in
/// [`FRAME_CHUNKS`] chunks, so the codec packs every copy.
fn codec_pipeline(store: &Arc<CheckpointStore>, state_bytes: u64) -> PersistPipeline {
    let chunk = ByteSize::from_bytes(state_bytes / FRAME_CHUNKS as u64);
    PersistPipeline::new(Arc::clone(store), HostBufferPool::new(chunk, FRAME_CHUNKS))
        .with_writers(2)
        .with_codec(true)
}

/// Copies `state`, captured at `iteration`, into a fresh slot of `job`'s
/// through `pipeline` under the codec and seals it; then commits it when
/// `commit`, or strands it — payload durable, no meta record — like a
/// process dying between persist and commit. Returns `(counter, slot)`.
///
/// # Errors
///
/// [`PccheckError::InvalidConfig`] when the codec saved nothing: a frame
/// that went out all-`Raw` tests nothing the raw rows do not. Propagates
/// device/store errors.
fn persist_packed(
    pipeline: &PersistPipeline,
    job: JobId,
    iteration: u64,
    state: &[u8],
    commit: bool,
) -> Result<(u64, u32), PccheckError> {
    let telemetry = Telemetry::disabled();
    let ctx = PipelineCtx {
        telemetry: &telemetry,
        span: SpanId::NONE,
    };
    let src = HostPayload {
        data: state.to_vec(),
        step: iteration,
    };
    let total = ByteSize::from_bytes(state.len() as u64);
    let lease = pipeline.lease(ctx, &pipeline.store().namespace(job)?);
    let (counter, slot) = (lease.counter, lease.slot);
    let mode = CopyMode::Codec;
    let copied = pipeline.copy(ctx, &src, &lease, iteration, total, mode)?;
    if copied.frame.saved_bytes == 0 {
        return Err(PccheckError::InvalidConfig(format!(
            "checkpoint {counter}'s codec frame saved nothing"
        )));
    }
    pipeline.seal(ctx, &lease, iteration, &copied)?;
    if commit {
        pipeline.commit(ctx, lease, iteration, &copied)?;
    } else {
        std::mem::forget(lease);
    }
    Ok((counter, slot))
}

/// [`drive_to_crash_point`] for the two points a codec row checkpoints
/// through the codec: [`CrashPoint::AfterCommit`] commits a sparse
/// mutation of `baseline`; [`CrashPoint::DedupChain`] commits one halfway
/// to `iteration` — its clean chunks `DedupBase` hits on the baseline —
/// and strands a second frame over it. Returns the driven checkpoint's
/// `(counter, slot)` and the state a correct recovery restores.
fn drive_packed(
    pipeline: &PersistPipeline,
    job: JobId,
    point: CrashPoint,
    baseline_iteration: u64,
    baseline: &[u8],
    iteration: u64,
) -> Result<((u64, u32), Vec<u8>), PccheckError> {
    if point == CrashPoint::AfterCommit {
        let len = baseline.len() as u64;
        let state = sparse_payload(baseline, iteration, &[(0, len / 8)]);
        return Ok((
            persist_packed(pipeline, job, iteration, &state, true)?,
            state,
        ));
    }
    let (mid_iteration, mid) = dedup_mid_state(baseline, baseline_iteration, iteration);
    persist_packed(pipeline, job, mid_iteration, &mid, true)?;
    let stranded = dedup_stranded_state(&mid, iteration);
    Ok((
        persist_packed(pipeline, job, iteration, &stranded, false)?,
        mid,
    ))
}

/// A device and the fuse that crashes its power domain after `n` persists.
type FusedDevice = (Arc<dyn PersistentDevice>, Box<dyn Fn(u64)>);

/// Arms `arm_fuse` to let `after` persists through, then persists
/// `[offset, offset + len)` of `device`: with `after == 0` the fuse fires
/// inside this persist and the range never becomes durable.
///
/// # Errors
///
/// [`PccheckError::InvalidConfig`] when the persist succeeds: the fuse did
/// not fire, the device is still live, and an audit of it would check
/// nothing.
fn persist_into_fuse(
    device: &dyn PersistentDevice,
    arm_fuse: &dyn Fn(u64),
    after: u64,
    offset: u64,
    len: u64,
) -> Result<(), PccheckError> {
    arm_fuse(after);
    match device.persist(offset, len) {
        Ok(()) => Err(PccheckError::InvalidConfig(format!(
            "a fuse armed to let {after} persists through did not fire"
        ))),
        Err(_) => Ok(()),
    }
}

/// Runs one full crash scenario on a fresh store of `cfg`'s geometry:
/// a baseline commit per tenant, a crash at `point` in the namespace of
/// `options.job` (the default job when `None`), a forensic audit of the
/// frozen device, power-on, and instrumented recovery of that tenant
/// under `options` — `readers: 1` reproduces the sequential restore path,
/// the default runs the parallel one.
///
/// # Errors
///
/// Propagates device/store/recovery errors, and reports a
/// [`CrashPoint::DuringPersist`] fuse that did not fire; the injected
/// crash itself is expected and absorbed.
pub fn run_crash_scenario(
    point: CrashPoint,
    cfg: &ForensicsRunConfig,
    options: RestoreOptions,
) -> Result<ForensicsRun, PccheckError> {
    let job = options.job.unwrap_or(DEFAULT_JOB);
    let Some(index) = cfg.tenants.iter().position(|&tenant| tenant == job) else {
        return Err(PccheckError::InvalidConfig(format!(
            "job {job} is not one of the scenario's tenants {:?}",
            cfg.tenants
        )));
    };
    let geometry = cfg.geometry();
    let (device, arm_fuse) = fused_device(cfg.topology, geometry)?;
    let store = Arc::new(CheckpointStore::format(Arc::clone(&device), geometry)?);
    let pipeline =
        (cfg.baselines == Baselines::Codec).then(|| codec_pipeline(&store, cfg.state_bytes));
    let mut baselines = Vec::with_capacity(cfg.tenants.len());
    for (&tenant, iteration) in cfg.tenants.iter().zip(cfg.baseline_iteration..) {
        if tenant != DEFAULT_JOB {
            store.allocate_namespace(tenant, cfg.slots)?;
        }
        let state = cfg.baselines.state(iteration, cfg.state_bytes);
        match &pipeline {
            Some(pipeline) => persist_packed(pipeline, tenant, iteration, &state, true)?,
            None => commit(&store, &store.namespace(tenant)?, iteration, &state)?,
        };
        baselines.push((tenant, state));
    }

    let (baseline_iteration, baseline) =
        (cfg.baseline_iteration + index as u64, &baselines[index].1);
    let payload = synthetic_payload(cfg.crash_iteration, cfg.state_bytes);
    let ((crashed_counter, slot), expected_payload) = match (&pipeline, point) {
        (Some(pipeline), CrashPoint::AfterCommit | CrashPoint::DedupChain) => drive_packed(
            pipeline,
            job,
            point,
            baseline_iteration,
            baseline,
            cfg.crash_iteration,
        )?,
        _ => {
            let driven = drive_to_crash_point(&store, job, point, cfg.crash_iteration, &payload)?;
            let expected = match point {
                CrashPoint::AfterCommit => payload.clone(),
                CrashPoint::DedupChain => {
                    dedup_mid_state(baseline, baseline_iteration, cfg.crash_iteration).1
                }
                _ => baseline.clone(),
            };
            (driven, expected)
        }
    };
    match point {
        CrashPoint::DuringPersist => persist_into_fuse(
            device.as_ref(),
            &*arm_fuse,
            0,
            store.slot_payload_offset(slot),
            payload.len() as u64,
        )?,
        _ => device.crash_now(),
    }
    drop(pipeline);
    drop(store);

    let report = pccheck_monitor::audit(Arc::clone(&device))?;
    device.recover();
    let (recovered, trace) =
        recover_instrumented_with(Arc::clone(&device), &Telemetry::disabled(), options)?;
    Ok(ForensicsRun {
        crash_point: point,
        job,
        device,
        report,
        crashed_counter,
        recovered,
        expected_payload,
        trace,
        baselines,
    })
}

/// A fresh device of `topology` with room for `geometry`, and its fuse.
fn fused_device(
    topology: DeviceTopology,
    geometry: StoreGeometry,
) -> Result<FusedDevice, PccheckError> {
    let cap = geometry.required_capacity() + ByteSize::from_kb(4);
    // `arm_fuse` abstracts over the SSD's persist fuse and the striped
    // controller's — both crash the whole store's power domain.
    Ok(match topology {
        DeviceTopology::Single => {
            let ssd = Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
            let fuse = Arc::clone(&ssd);
            (ssd, Box::new(move |n| fuse.arm_crash_after_persists(n)))
        }
        DeviceTopology::Striped { ways } => {
            let members: Vec<Arc<dyn PersistentDevice>> = (0..ways.max(1))
                .map(|_| {
                    Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)))
                        as Arc<dyn PersistentDevice>
                })
                .collect();
            let array = Arc::new(StripedDevice::new(members, ByteSize::from_kb(1)));
            let fuse = Arc::clone(&array);
            (array, Box::new(move |n| fuse.arm_crash_after_persists(n)))
        }
        DeviceTopology::Tiered => {
            // The tier covers the superblock + slot region (where the
            // fatal payload persist lands); the flight ring, the
            // directory and the slot state words spill over the boundary
            // to the second SSD.
            let tier_cap = ByteSize::from_bytes(StoreLayout::new(geometry)?.flight());
            let tier = Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(tier_cap)));
            let spill = Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
            let fuse = Arc::clone(&tier);
            let tiered = Arc::new(TieredDevice::new(
                tier as Arc<dyn PersistentDevice>,
                spill as Arc<dyn PersistentDevice>,
            ));
            (tiered, Box::new(move |n| fuse.arm_crash_after_persists(n)))
        }
    })
}

impl ForensicsRun {
    /// The agreement every crash point owes every tenant: the audit of
    /// the frozen device is clean; every bystander tenant recovers its own
    /// baseline bit-exactly; the slots' state-word lattice agrees with
    /// what the tenants recovered (no slot decides `Torn`, no `InFlight`
    /// counter is recovered, the newest `Committed` slot is one of the
    /// recovered heads); the audit's prediction for the driven tenant is
    /// the checkpoint recovery restored, and that checkpoint's payload is
    /// bit-exact.
    ///
    /// # Errors
    ///
    /// Describes the first disagreement.
    pub fn verify(&self) -> Result<(), String> {
        if !self.report.is_clean() {
            return Err(format!("audit not clean:\n{}", self.report.render()));
        }
        let mut heads = vec![self.recovered.counter];
        for (job, baseline) in self.baselines.iter().filter(|(job, _)| *job != self.job) {
            let options = RestoreOptions {
                job: Some(*job),
                ..RestoreOptions::default()
            };
            let telemetry = Telemetry::disabled();
            let (bystander, _) =
                recover_instrumented_with(Arc::clone(&self.device), &telemetry, options)
                    .map_err(|e| format!("bystander job {job} did not recover: {e}"))?;
            if bystander.payload != *baseline {
                return Err(format!(
                    "bystander job {job} recovered checkpoint {}, not its baseline",
                    bystander.counter
                ));
            }
            heads.push(bystander.counter);
        }
        let mut newest_committed = None;
        for (slot, &outcome) in self.report.slot_outcomes.iter().enumerate() {
            match outcome {
                SlotOutcome::Torn { .. } => {
                    return Err(format!("slot {slot} decides {outcome}"));
                }
                SlotOutcome::InFlight { counter } if heads.contains(&counter) => {
                    return Err(format!(
                        "recovery restored checkpoint {counter}, in flight in slot {slot}"
                    ));
                }
                SlotOutcome::Committed { counter } => {
                    newest_committed = newest_committed.max(Some(counter));
                }
                _ => {}
            }
        }
        if let Some(counter) = newest_committed.filter(|c| !heads.contains(c)) {
            return Err(format!(
                "the newest committed slot holds checkpoint {counter}, the tenants \
                 recovered {heads:?}"
            ));
        }
        let predicted = self.report.expected_recovery(self.job).map(|m| m.counter);
        if predicted != Some(self.recovered.counter) {
            return Err(format!(
                "audit predicted counter {predicted:?}, recovery restored {}",
                self.recovered.counter
            ));
        }
        if self.recovered.payload != self.expected_payload {
            return Err("recovered payload is not bit-exact".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pccheck_monitor::{CheckpointVerdict, InFlightPhase};

    fn scenario(point: CrashPoint) -> ForensicsRun {
        run_crash_scenario(
            point,
            &ForensicsRunConfig::default(),
            RestoreOptions::default(),
        )
        .unwrap()
    }

    fn in_flight_phase(run: &ForensicsRun) -> InFlightPhase {
        match run.report.checkpoints.get(&run.crashed_counter) {
            Some(CheckpointVerdict::InFlight { phase, .. }) => *phase,
            other => panic!(
                "expected in-flight verdict for counter {}, got {other:?}",
                run.crashed_counter
            ),
        }
    }

    #[test]
    fn crash_between_claim_and_publish_is_decidable_from_the_state_word() {
        let run = scenario(CrashPoint::ClaimPublish);
        assert!(run.report.is_clean(), "{}", run.report.render());
        assert_eq!(in_flight_phase(&run), InFlightPhase::Begun);
        assert_eq!(run.recovered.counter, 1, "baseline survives");
        assert_eq!(
            run.report.expected_recovery(DEFAULT_JOB).map(|m| m.counter),
            Some(run.recovered.counter)
        );
        // The slot's durable state word alone classifies the claim.
        let in_flight: Vec<_> = run
            .report
            .slot_outcomes
            .iter()
            .filter_map(|o| match o {
                pccheck::SlotOutcome::InFlight { counter } => Some(*counter),
                _ => None,
            })
            .collect();
        assert_eq!(in_flight, vec![run.crashed_counter]);
    }

    #[test]
    fn crash_during_copy_is_classified_begun() {
        let run = scenario(CrashPoint::DuringCopy);
        assert!(run.report.is_clean(), "{}", run.report.render());
        assert_eq!(in_flight_phase(&run), InFlightPhase::Begun);
        assert_eq!(run.recovered.counter, 1, "baseline survives");
        assert_eq!(
            run.report.expected_recovery(DEFAULT_JOB).map(|m| m.counter),
            Some(run.recovered.counter),
            "forensic prediction matches what recovery restored"
        );
    }

    #[test]
    fn crash_during_persist_is_classified_copied() {
        let run = scenario(CrashPoint::DuringPersist);
        assert!(run.report.is_clean(), "{}", run.report.render());
        assert_eq!(in_flight_phase(&run), InFlightPhase::Copied);
        assert_eq!(run.recovered.counter, 1);
        assert_eq!(
            run.report.expected_recovery(DEFAULT_JOB).map(|m| m.counter),
            Some(run.recovered.counter)
        );
    }

    #[test]
    fn crash_between_persist_and_commit_is_classified_persisted() {
        let run = scenario(CrashPoint::BetweenPersistAndCommit);
        assert!(run.report.is_clean(), "{}", run.report.render());
        assert_eq!(in_flight_phase(&run), InFlightPhase::Persisted);
        // The payload is durable but unpublished: recovery must NOT use it.
        assert_eq!(run.recovered.counter, 1);
        assert_eq!(run.recovered.iteration, 100);
        assert_eq!(
            run.report.expected_recovery(DEFAULT_JOB).map(|m| m.counter),
            Some(run.recovered.counter)
        );
    }

    #[test]
    fn crash_after_commit_recovers_the_new_checkpoint() {
        let run = scenario(CrashPoint::AfterCommit);
        assert!(run.report.is_clean(), "{}", run.report.render());
        assert_eq!(run.crashed_counter, 2);
        match run.report.checkpoints.get(&2) {
            Some(CheckpointVerdict::Committed {
                iteration,
                payload_valid,
                ..
            }) => {
                assert_eq!(*iteration, 200);
                assert!(payload_valid);
            }
            other => panic!("expected committed verdict, got {other:?}"),
        }
        assert_eq!(run.recovered.counter, 2);
        assert_eq!(run.recovered.iteration, 200);
        assert_eq!(run.recovered.payload, synthetic_payload(200, 4 * 1024));
    }

    #[test]
    fn crash_mid_dedup_chain_recovers_through_the_pinned_base() {
        let run = scenario(CrashPoint::DedupChain);
        assert!(run.report.is_clean(), "{}", run.report.render());
        assert_eq!(run.crashed_counter, 3, "the stranded second frame");
        assert_eq!(run.recovered.counter, 2, "the committed frame survives");
        assert_eq!(run.recovered.iteration, 150);
        assert_eq!(run.trace.chain_links, 1, "one base link resolved");
        // The reconstructed state is the sparse mutation of the baseline.
        let base = synthetic_payload(100, 4 * 1024);
        let expected = sparse_payload(&base, 150, &[(0, 512), (2048, 512)]);
        assert_eq!(run.recovered.payload, expected);
        assert_eq!(
            run.report.expected_recovery(DEFAULT_JOB).map(|m| m.counter),
            Some(run.recovered.counter),
            "forensic prediction matches the frame walk"
        );
        assert!(run
            .report
            .expected_recovery(DEFAULT_JOB)
            .is_some_and(|m| m.is_delta()));
    }

    #[test]
    fn recovery_trace_measures_every_phase() {
        let run = scenario(CrashPoint::DuringPersist);
        assert!(run.trace.total_nanos > 0);
        assert!(run.trace.candidates_scanned >= 1);
        assert_eq!(run.trace.fallbacks, 0);
        assert_eq!(run.trace.counter, run.recovered.counter);
    }

    #[test]
    fn striped_store_survives_every_crash_point() {
        for point in CrashPoint::ALL {
            let run = run_crash_scenario(
                point,
                &ForensicsRunConfig::striped(2),
                RestoreOptions::default(),
            )
            .unwrap();
            assert!(run.report.is_clean(), "{point}: {}", run.report.render());
            match point {
                CrashPoint::AfterCommit => {
                    assert_eq!(run.recovered.counter, 2, "{point}");
                    assert_eq!(run.recovered.iteration, 200, "{point}");
                    assert_eq!(run.recovered.payload, synthetic_payload(200, 4 * 1024));
                }
                CrashPoint::DedupChain => {
                    assert_eq!(run.recovered.counter, 2, "{point}: frame survives");
                    assert_eq!(run.recovered.iteration, 150, "{point}");
                }
                _ => {
                    assert_eq!(run.recovered.counter, 1, "{point}: baseline survives");
                    assert_eq!(run.recovered.iteration, 100, "{point}");
                }
            }
            assert_eq!(
                run.report.expected_recovery(DEFAULT_JOB).map(|m| m.counter),
                Some(run.recovered.counter),
                "{point}: forensic prediction matches recovery"
            );
        }
    }

    #[test]
    fn tiered_store_survives_every_crash_point() {
        for point in CrashPoint::ALL {
            let run = run_crash_scenario(
                point,
                &ForensicsRunConfig::tiered(),
                RestoreOptions::default(),
            )
            .unwrap();
            assert!(run.report.is_clean(), "{point}: {}", run.report.render());
            match point {
                CrashPoint::AfterCommit => {
                    assert_eq!(run.recovered.counter, 2, "{point}");
                    assert_eq!(run.recovered.payload, synthetic_payload(200, 4 * 1024));
                }
                CrashPoint::DedupChain => {
                    assert_eq!(run.recovered.counter, 2, "{point}: frame survives");
                    assert_eq!(run.recovered.iteration, 150, "{point}");
                }
                _ => {
                    assert_eq!(run.recovered.counter, 1, "{point}: baseline survives");
                }
            }
            assert_eq!(
                run.report.expected_recovery(DEFAULT_JOB).map(|m| m.counter),
                Some(run.recovered.counter),
                "{point}: forensic prediction matches recovery"
            );
        }
    }

    /// The tentpole cross-check: on every topology and at every crash
    /// point, the parallel restore path (4 readers) must recover the same
    /// checkpoint, bit for bit, as the sequential one (1 reader) — and the
    /// forensic auditor must bless the store either way.
    #[test]
    fn parallel_restore_is_bit_identical_to_sequential_at_every_crash_point() {
        let topologies = [ForensicsRunConfig::striped(2), ForensicsRunConfig::tiered()];
        for cfg in &topologies {
            for point in CrashPoint::ALL {
                let parallel = run_crash_scenario(
                    point,
                    cfg,
                    RestoreOptions {
                        readers: 4,
                        job: None,
                    },
                )
                .unwrap();
                assert!(
                    parallel.report.is_clean(),
                    "{point}/{:?}: {}",
                    cfg.topology,
                    parallel.report.render()
                );
                // Re-run recovery sequentially on the same recovered store
                // image and compare everything that matters.
                let (sequential, seq_trace) = recover_instrumented_with(
                    Arc::clone(&parallel.device),
                    &Telemetry::disabled(),
                    RestoreOptions {
                        readers: 1,
                        job: None,
                    },
                )
                .unwrap();
                assert_eq!(
                    parallel.recovered.payload, sequential.payload,
                    "{point}/{:?}: parallel and sequential restores diverge",
                    cfg.topology
                );
                assert_eq!(parallel.recovered.counter, sequential.counter);
                assert_eq!(parallel.recovered.iteration, sequential.iteration);
                assert_eq!(parallel.trace.chain_links, seq_trace.chain_links);
            }
        }
    }

    #[test]
    fn a_fuse_that_does_not_fire_is_reported() {
        let geometry = ForensicsRunConfig::default().geometry();
        for topology in [
            DeviceTopology::Single,
            DeviceTopology::Striped { ways: 2 },
            DeviceTopology::Tiered,
        ] {
            let (device, arm_fuse) = fused_device(topology, geometry).unwrap();
            let fire = |after| persist_into_fuse(device.as_ref(), &*arm_fuse, after, 0, 512);
            assert!(
                fire(1).is_err(),
                "{topology:?}: a fuse armed one persist too late goes unreported"
            );
            assert!(
                fire(0).is_ok(),
                "{topology:?}: the armed persist did not crash"
            );
        }
    }

    #[test]
    fn crash_point_names_round_trip() {
        for p in CrashPoint::ALL {
            assert_eq!(CrashPoint::from_name(p.name()), Some(p));
        }
        assert_eq!(CrashPoint::from_name("nope"), None);
    }
}
