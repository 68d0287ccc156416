//! The parallel restore pipeline: the read-side mirror of the persist
//! pipeline.
//!
//! §4.2 of the paper treats recovery as a mostly-serial tail cost: read the
//! newest committed payload, verify its digest, load it back to the GPU.
//! That serializes resources that could overlap — device read bandwidth
//! (striped members especially), LZ decoding, digest computation and the
//! DRAM→GPU upload. Here a recovery candidate — a frame, like every
//! checkpoint ([`crate::codec`]) — compiles to a plan of independent jobs,
//! one per record, and one executor runs it on `r` **reader threads**:
//!
//! * **Jobs land where they will live.** The destination lends itself as
//!   disjoint pieces — one `Vec<u8>`, or the tensor-shaped staging of a
//!   [`pccheck_gpu::RestoreTarget`] — and each job reads (or LZ-decodes, or
//!   copies an earlier job's bytes) straight into its range of them; only
//!   a job that straddles two pieces goes through a spill buffer. Sources
//!   run first, copies second. An N-way striped store restores at close to
//!   N× a single reader's bandwidth.
//! * **Homes are read by range.** A frame's `DedupBase` records resolve at
//!   plan time to the physical ranges their homes materialized the content
//!   at: a recovery reads what the frame references, never a home's slot.
//! * **Verification overlaps I/O, one digest pass per byte.** Each reader
//!   makes one pass over the bytes it just landed: it files the digests of
//!   the [`pccheck_util::fnv`] blocks the job wholly covers and, from the
//!   same values when the job starts on a block boundary, checks the
//!   record's content address. Blocks cut by a job boundary are digested
//!   from the destination after the join. The candidate is accepted on the
//!   fold of the block values against the frame's state digest, before
//!   anything is handed over: a rejected `RestoreTarget` is dropped, never
//!   finished.
//!
//! [`recover_instrumented_with`] rebuilds the crate's recovery flow on top
//! of this: candidates fall back newest-first on *any* failure (digest
//! mismatch, torn table, missing home **or** device read fault).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use pccheck_util::sync::Mutex;

use pccheck_device::PersistentDevice;
use pccheck_gpu::{CopyEngine, Gpu};
use pccheck_telemetry::{FlightEventKind, Phase, SpanId, Telemetry};
use pccheck_util::fnv::{chunk_digest, file_blocks, fold_blocks, DIGEST_BLOCK};
use pccheck_util::ByteSize;

use crate::codec::{lz_decompress_into, Job, JobSource, RestorePlan, SlotRead};
use crate::error::PccheckError;
use crate::meta::CheckMeta;
use crate::pipeline::PipelineCtx;
use crate::recovery::{RecoveredCheckpoint, RecoveryTrace};
use crate::store::{CheckpointStore, JobId, DEFAULT_JOB};

/// Knobs for the parallel recovery flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestoreOptions {
    /// Parallel reader threads (`r`). 1 reproduces the sequential path.
    pub readers: usize,
    /// The tenant to recover; `None` is [`DEFAULT_JOB`], the tenant of a
    /// single-tenant store. Candidates outside its namespace's slot range
    /// are never considered, so one tenant's torn checkpoint can never
    /// fall back onto another tenant's state.
    pub job: Option<JobId>,
}

impl Default for RestoreOptions {
    fn default() -> Self {
        RestoreOptions {
            readers: 4,
            job: None,
        }
    }
}

/// What one plan execution hands back to the recovery flow.
#[derive(Debug, Clone, Copy, Default)]
struct FetchReport {
    ok: bool,
    /// Digest compute time, summed over the readers, in nanoseconds.
    verify_nanos: u64,
    /// The wall-clock share of `verify_nanos`: each fan-out's sum divided
    /// by the readers that ran it, plus the serial tail after the join.
    verify_share: u64,
    /// The wall-clock share of the readers' waits in the copy engine.
    meter_share: u64,
}

/// A job's destination: one segment, unless the job straddles pieces.
type Segments<'a> = Vec<&'a mut [u8]>;

/// Splits `pieces` — disjoint memory whose concatenation is the logical
/// payload — at every job boundary, in order.
fn carve<'a>(pieces: Vec<&'a mut [u8]>, jobs: &[Job]) -> Vec<Segments<'a>> {
    let mut pieces = pieces.into_iter();
    let mut piece: &mut [u8] = &mut [];
    let carve_job = |job: &Job| {
        let mut segs = Vec::with_capacity(1);
        let mut need = job.len as usize;
        while need > 0 {
            if piece.is_empty() {
                piece = pieces.next().expect("pieces hold the plan");
                continue;
            }
            let n = need.min(piece.len());
            let (seg, rest) = std::mem::take(&mut piece).split_at_mut(n);
            segs.push(seg);
            (piece, need) = (rest, need - n);
        }
        segs
    };
    jobs.iter().map(carve_job).collect()
}

/// Copies the logical range `[at, at + out.len())` out of `segs`:
/// `(logical offset, bytes)` of consecutive segments of the payload.
fn gather(segs: &[(u64, &[u8])], mut at: u64, mut out: &mut [u8]) {
    let mut k = segs.partition_point(|(start, seg)| start + seg.len() as u64 <= at);
    while !out.is_empty() {
        let (start, seg) = segs[k];
        let from = (at - start) as usize;
        let (head, tail) = out.split_at_mut((seg.len() - from).min(out.len()));
        head.copy_from_slice(&seg[from..from + head.len()]);
        (at, out, k) = (at + head.len() as u64, tail, k + 1);
    }
}

/// A reader's private state across the jobs it lands: scratch for an LZ
/// job's compressed bytes, and its actor span's bytes and media time.
#[derive(Default)]
struct Reader {
    packed: Vec<u8>,
    bytes: u64,
    media_nanos: u64,
}

/// Runs `work(k, reader)` for every `k < count` on up to `readers` threads;
/// a `false` stops every reader at once. Returns the readers that ran and
/// whether all the work succeeded.
///
/// Claims walk `0..count` as `readers` contiguous runs, round-robin: jobs
/// in flight at the same time lie a run apart — on different members of a
/// striped store — while each run is still read front to back and a slow
/// reader never strands a share of the payload.
fn fan_out(
    ctx: PipelineCtx<'_>,
    readers: usize,
    count: usize,
    work: &(dyn Fn(usize, &mut Reader) -> bool + Sync),
) -> (u64, bool) {
    let readers = readers.min(count) as u64;
    let run = (count as u64).div_ceil(readers.max(1));
    let (next, failed) = (AtomicU64::new(0), AtomicBool::new(false));
    std::thread::scope(|s| {
        for r in 0..readers {
            let (next, failed) = (&next, &failed);
            s.spawn(move || {
                let actor_start = ctx.telemetry.now_nanos();
                let mut reader = Reader::default();
                while !failed.load(Ordering::Acquire) {
                    let claim = next.fetch_add(1, Ordering::Relaxed);
                    if claim >= run * readers {
                        break;
                    }
                    let k = ((claim % readers) * run + claim / readers) as usize;
                    // `k >= count` is past the end of the short last run.
                    if k < count && !work(k, &mut reader) {
                        failed.store(true, Ordering::Release);
                    }
                }
                if reader.bytes > 0 {
                    ctx.telemetry.actor_span_split(
                        ctx.span,
                        format_args!("reader-{r}"),
                        actor_start,
                        reader.bytes,
                        reader.media_nanos,
                    );
                }
            });
        }
    });
    (readers, !failed.into_inner())
}

/// The one executor: lands `plan` in `pieces` — disjoint memory whose
/// concatenation is the logical payload, or it panics — on up to `readers`
/// threads, source jobs first, copy jobs second, and accepts it iff every
/// job landed intact and the fold of the block digests — seeded with the
/// plan's iteration and length — equals the plan's digest: corruption
/// anywhere is caught here at the latest, before the caller hands a byte
/// over. `engine` meters every landed job when the pieces are GPU staging.
fn execute(
    ctx: PipelineCtx<'_>,
    plan: &RestorePlan,
    readers: usize,
    read: &SlotRead<'_>,
    pieces: Vec<&mut [u8]>,
    engine: Option<&CopyEngine>,
) -> FetchReport {
    let (telemetry, span) = (ctx.telemetry, ctx.span);
    let start = telemetry.now_nanos();
    let lent: u64 = pieces.iter().map(|p| p.len() as u64).sum();
    assert_eq!(lent, plan.len, "destination pieces must hold the plan");
    let block = DIGEST_BLOCK as u64;
    // Block digests by block index; 0 until filed (a block that really
    // digests to 0 is merely digested again after the join).
    let blocks = (0..plan.len.div_ceil(block)).map(|_| AtomicU64::new(0));
    let blocks: Vec<AtomicU64> = blocks.collect();
    let (verify_nanos, meter_nanos) = (AtomicU64::new(0), AtomicU64::new(0));

    // Lands one job in `segs`: one device read (or LZ decode out of the
    // reader's scratch, or copy of what an earlier job landed) straight
    // into a single segment — or, when the job straddles pieces, into a
    // spill buffer that is then scattered. Either way one pass over the
    // bytes that land files the digests of the blocks the job wholly
    // covers and checks the record's content address. `false` on a read
    // fault, a malformed LZ block or a content-address mismatch.
    let land = |job: &Job, segs: &mut [&mut [u8]], landed: &[Segments], reader: &mut Reader| {
        let mut read = |slot, at, buf: &mut [u8]| {
            let start = telemetry.now_nanos();
            let ok = read(slot, at, buf);
            reader.media_nanos += telemetry.now_nanos().saturating_sub(start);
            ok
        };
        let mut spill = Vec::new();
        let in_place = segs.len() == 1;
        let whole: &mut [u8] = if in_place {
            segs[0]
        } else {
            spill.resize(job.len as usize, 0);
            &mut spill
        };
        let filled = match job.source {
            JobSource::Verbatim { slot, at } => read(slot, at, whole),
            JobSource::Lz { slot, at, phys_len } => {
                reader.packed.resize(phys_len as usize, 0);
                read(slot, at, &mut reader.packed) && lz_decompress_into(&reader.packed, whole)
            }
            JobSource::Copy { of } => {
                match &landed[of][..] {
                    [one] => whole.copy_from_slice(one),
                    straddler => whole.copy_from_slice(&straddler.concat()),
                }
                true
            }
        };

        let v0 = Instant::now();
        // Relaxed: the scope's join orders every store before the fold
        // reads the cells. A job that fails its check fails the plan, so
        // what it filed is never folded.
        let file = |i: usize, value| blocks[i].store(value, Ordering::Relaxed);
        let intact = filled && file_blocks(job.off, whole, plan.len, file) == job.digest;
        verify_nanos.fetch_add(v0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if !intact {
            return false;
        }

        if !in_place {
            let mut rest = &spill[..];
            for seg in segs {
                let (head, tail) = rest.split_at(seg.len());
                seg.copy_from_slice(head);
                rest = tail;
            }
        }
        if let Some(engine) = engine {
            let m0 = Instant::now();
            engine.meter(ByteSize::from_bytes(job.len));
            meter_nanos.fetch_add(m0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            telemetry.chunk(span, Phase::RestoreUpload, job.off, job.len);
        }
        reader.bytes += job.len;
        true
    };

    let mut report = FetchReport::default();
    let mut landed_all = true;
    let mut dst = carve(pieces, &plan.jobs);
    let is_copy = |j: &usize| matches!(plan.jobs[*j].source, JobSource::Copy { .. });
    let (copies, sources): (Vec<_>, Vec<_>) = (0..plan.jobs.len()).partition(is_copy);
    for order in [sources, copies] {
        if order.is_empty() || !landed_all {
            continue;
        }
        let lend = |&j: &usize| Mutex::new(std::mem::take(&mut dst[j]));
        let cells: Vec<_> = order.iter().map(lend).collect();
        let work = |k: usize, reader: &mut Reader| {
            land(&plan.jobs[order[k]], &mut cells[k].lock(), &dst, reader)
        };
        let ran;
        (ran, landed_all) = fan_out(ctx, readers, order.len(), &work);
        for (&j, cell) in order.iter().zip(cells) {
            dst[j] = cell.into_inner();
        }
        let verify = verify_nanos.swap(0, Ordering::Relaxed);
        report.verify_nanos += verify;
        report.verify_share += verify / ran;
        report.meter_share += meter_nanos.swap(0, Ordering::Relaxed) / ran;
    }
    telemetry.phase_done(span, Phase::RestoreRead, start);

    let t0 = Instant::now();
    report.ok = landed_all && {
        // Digest what no job could — the blocks a job boundary cuts, still
        // unfiled — from the destination. An aligned geometry has none.
        let mut at = 0u64;
        let segs = dst.iter().flatten().map(|seg| {
            at += seg.len() as u64;
            (at - seg.len() as u64, &**seg)
        });
        let segs: Vec<(u64, &[u8])> = segs.collect();
        let mut buf = [0u8; DIGEST_BLOCK];
        let digests = blocks.iter().zip((0..).step_by(DIGEST_BLOCK));
        let digests = digests.map(|(cell, at)| match cell.load(Ordering::Relaxed) {
            0 => {
                let cut = &mut buf[..block.min(plan.len - at) as usize];
                gather(&segs, at, cut);
                chunk_digest(cut)
            }
            filed => filed,
        });
        fold_blocks(plan.iteration, plan.len, digests) == plan.digest
    };
    let tail = t0.elapsed().as_nanos() as u64;
    report.verify_nanos += tail;
    report.verify_share += tail;
    let since = telemetry.now_nanos().saturating_sub(report.verify_share);
    telemetry.phase_done(span, Phase::RestoreVerify, since);
    report
}

/// [`execute`] into a fresh `Vec<u8>`: the payload, if it verified.
fn execute_into_memory(
    ctx: PipelineCtx<'_>,
    plan: &RestorePlan,
    readers: usize,
    read: &SlotRead<'_>,
) -> (FetchReport, Option<Vec<u8>>) {
    let Ok(len) = usize::try_from(plan.len) else {
        return (FetchReport::default(), None);
    };
    let mut out = vec![0u8; len];
    let report = execute(ctx, plan, readers, read, vec![&mut out[..]], None);
    (report, report.ok.then_some(out))
}

/// Materializes the frame committed as `meta` on `readers` threads with no
/// store open: `read` reads slot payloads, `commits` are the commit records a
/// frame's `DedupBase` records may name as homes. The forensics auditor's
/// entry to the plan and the executor recovery runs.
///
/// Returns `(logical payload, full-state digest)`; `None` on any torn
/// table, missing home, out-of-range record, failed read or digest
/// mismatch.
pub fn decode_frame(
    meta: &CheckMeta,
    commits: &[CheckMeta],
    read: &SlotRead<'_>,
    readers: usize,
) -> Option<(Vec<u8>, u64)> {
    let ctx = PipelineCtx {
        telemetry: &Telemetry::disabled(),
        span: SpanId::NONE,
    };
    let plan = RestorePlan::compile(meta, commits, read)?;
    let (_, payload) = execute_into_memory(ctx, &plan, readers.max(1), read);
    Some((payload?, plan.digest))
}

/// The multi-reader, verification-overlapped read path over a
/// [`CheckpointStore`].
///
/// Cloning is cheap; clones share the store.
#[derive(Debug, Clone)]
pub struct RestorePipeline {
    store: Arc<CheckpointStore>,
    readers: usize,
}

impl RestorePipeline {
    /// A single-reader pipeline over `store`.
    pub fn new(store: Arc<CheckpointStore>) -> Self {
        RestorePipeline { store, readers: 1 }
    }

    /// Sets the number of parallel reader threads (`r`).
    pub fn with_readers(mut self, readers: usize) -> Self {
        self.readers = readers.max(1);
        self
    }

    /// Compiles `meta`'s frame to its plan; `homes` are the commit records
    /// it may reference. Reads frame tables only.
    fn plan(&self, meta: &CheckMeta, homes: &[CheckMeta]) -> Option<RestorePlan> {
        RestorePlan::compile(meta, homes, &|slot, at, buf| {
            self.store.read_slot(slot, at, buf)
        })
    }

    /// Reads, reconstructs and verifies `meta`'s frame with the configured
    /// readers; `homes` as for a recovery's candidates.
    ///
    /// Returns `None` on any device read error or digest mismatch — the
    /// caller falls back to an older candidate, exactly like a digest
    /// failure. Never propagates per-candidate read faults as hard errors.
    pub fn fetch_verified(
        &self,
        ctx: PipelineCtx<'_>,
        meta: &CheckMeta,
        homes: &[CheckMeta],
    ) -> Option<Vec<u8>> {
        let plan = self.plan(meta, homes)?;
        let read = |slot, at, buf: &mut [u8]| self.read_slot(ctx, slot, at, buf);
        execute_into_memory(ctx, &plan, self.readers, &read).1
    }

    /// One device read of a job's source range with read-stage telemetry,
    /// mirroring the persist pipeline's `write_chunk`.
    fn read_slot(&self, ctx: PipelineCtx<'_>, slot: u32, at: u64, buf: &mut [u8]) -> bool {
        let start = ctx.telemetry.now_nanos();
        if !self.store.read_slot(slot, at, buf) {
            return false;
        }
        if ctx.telemetry.is_enabled() {
            let media = ctx.telemetry.now_nanos().saturating_sub(start);
            ctx.telemetry.stage_read(media);
            // Controller at index 0, composite members after it.
            for (i, depth) in self.store.device().queue_depths().iter().enumerate() {
                ctx.telemetry.gauge_device_queue(i, *depth);
            }
        }
        ctx.telemetry
            .chunk(ctx.span, Phase::RestoreRead, at, buf.len() as u64);
        true
    }
}

/// [`crate::recover_instrumented`] with explicit [`RestoreOptions`]: the
/// full parallel recovery flow returning the materialized checkpoint.
///
/// # Errors
///
/// * [`PccheckError::NoCheckpoint`] if the device holds no committed
///   checkpoint.
/// * [`PccheckError::CorruptCheckpoint`] if **no** candidate verifies
///   (digest mismatches and device read faults both count as a failed
///   candidate, not a failed recovery).
/// * [`PccheckError::InvalidConfig`] if the device holds no PCcheck store,
///   or the store has no namespace for `options.job` (the message names
///   the jobs it does have).
pub fn recover_instrumented_with(
    device: Arc<dyn PersistentDevice>,
    telemetry: &Telemetry,
    options: RestoreOptions,
) -> Result<(RecoveredCheckpoint, RecoveryTrace), PccheckError> {
    let (trace, recovered) = recover_core(device, telemetry, options, None)?;
    Ok((
        recovered.expect("non-GPU recovery always materializes"),
        trace,
    ))
}

/// Recovers the newest verifiable checkpoint straight into `gpu`'s device
/// memory: each candidate lands job by job in the
/// tensor-shaped staging of a [`pccheck_gpu::RestoreTarget`], metered
/// through the GPU's copy engine, and the staged tensors are swapped in as
/// the live state only once the payload verified (a rejected target is
/// dropped, never finished).
///
/// # Errors
///
/// Same as [`recover_instrumented_with`].
///
/// # Panics
///
/// Panics if a candidate's payload does not match `gpu`'s state layout
/// (the same contract as [`RecoveredCheckpoint::restore_into`]).
pub fn recover_into_gpu(
    device: Arc<dyn PersistentDevice>,
    gpu: &Gpu,
    telemetry: &Telemetry,
    options: RestoreOptions,
) -> Result<RecoveryTrace, PccheckError> {
    let (trace, _) = recover_core(device, telemetry, options, Some(gpu))?;
    Ok(trace)
}

fn recover_core(
    device: Arc<dyn PersistentDevice>,
    telemetry: &Telemetry,
    options: RestoreOptions,
    gpu: Option<&Gpu>,
) -> Result<(RecoveryTrace, Option<RecoveredCheckpoint>), PccheckError> {
    let t0 = Instant::now();
    let span = telemetry.span_requested("recovery", 0, 0);
    let ctx = PipelineCtx { telemetry, span };
    let scan_start = telemetry.now_nanos();

    let store = Arc::new(CheckpointStore::open(device)?);
    store.flight().record_run(FlightEventKind::RecoveryStart, 0);
    // Candidates: every slot of the tenant's namespace holding a complete
    // checkpoint, newest first — another tenant's slots are never read.
    let ns = store.namespace(options.job.unwrap_or(DEFAULT_JOB))?;
    let mut candidates = store.history(&ns)?;
    candidates.reverse();
    let pipeline = RestorePipeline::new(Arc::clone(&store)).with_readers(options.readers);
    let read = |slot, at, buf: &mut [u8]| pipeline.read_slot(ctx, slot, at, buf);
    let readers = pipeline.readers;

    let mut trace = RecoveryTrace {
        scan_nanos: t0.elapsed().as_nanos() as u64,
        ..RecoveryTrace::default()
    };
    telemetry.phase_done(span, Phase::RecoveryScan, scan_start);

    if candidates.is_empty() {
        telemetry.failed(span, "no committed checkpoint");
        return Err(PccheckError::NoCheckpoint);
    }
    let newest_counter = candidates[0].counter;

    for meta in &candidates {
        trace.candidates_scanned += 1;

        // Plan the candidate and land it: in the GPU's staging, or in
        // memory. Any failure — torn table, bad digest, missing home, *or
        // a device read fault* — rejects only this candidate.
        let load_t0 = Instant::now();
        let load_start = telemetry.now_nanos();
        let plan = pipeline.plan(meta, &candidates);
        let mut target = None;
        let (report, payload) = match (&plan, gpu) {
            (None, _) => (FetchReport::default(), None),
            (Some(plan), Some(gpu)) => {
                let staging = target.insert(gpu.begin_restore(ByteSize::from_bytes(plan.len)));
                let (pieces, engine) = (staging.pieces(), Some(gpu.copy_engine()));
                (execute(ctx, plan, readers, &read, pieces, engine), None)
            }
            (Some(plan), None) => execute_into_memory(ctx, plan, readers, &read),
        };
        trace.load_nanos += load_t0.elapsed().as_nanos() as u64;
        trace.verify_nanos += report.verify_nanos;
        telemetry.phase_done(span, Phase::RecoveryLoad, load_start);
        let since = telemetry.now_nanos().saturating_sub(report.verify_share);
        telemetry.phase_done(span, Phase::RecoveryVerify, since);

        // A rejected candidate's target drops here without ever reaching
        // the GPU; recovery falls back to the next-newest commit.
        let Some(plan) = plan.filter(|_| report.ok) else {
            continue;
        };
        if let Some(target) = target {
            let upload_start = telemetry.now_nanos().saturating_sub(report.meter_share);
            target.finish(meta.iteration);
            telemetry.phase_done(span, Phase::RestoreUpload, upload_start);
        }
        trace.chain_links = meta.delta.map_or(0, |_| 1);
        trace.fallbacks = trace.candidates_scanned - 1;
        trace.counter = meta.counter;
        trace.iteration = meta.iteration;
        trace.total_nanos = t0.elapsed().as_nanos() as u64;
        telemetry.committed(span, meta.iteration, meta.payload_len);
        store.flight().record(
            FlightEventKind::RecoveryDone,
            meta.counter,
            meta.slot,
            meta.iteration,
            meta.payload_len,
            trace.fallbacks,
        );
        let recovered = payload.map(|payload| RecoveredCheckpoint {
            iteration: meta.iteration,
            counter: meta.counter,
            payload,
            digest: plan.digest,
        });
        return Ok((trace, recovered));
    }

    telemetry.failed(span, "no slot passed digest verification");
    Err(PccheckError::CorruptCheckpoint {
        counter: newest_counter,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pccheck_device::{DeviceConfig, HostBufferPool, SsdDevice};
    use pccheck_gpu::{GpuConfig, StateDigest, TrainingState};

    use crate::codec::{raw_frame, FrameTable};
    use crate::layout::StoreGeometry;
    use crate::pipeline::{CopyMode, DeltaPolicy, PersistPipeline};
    use crate::store::Namespace;

    /// The tenant of a single-tenant store.
    fn ns(store: &CheckpointStore) -> Arc<Namespace> {
        store.namespace(DEFAULT_JOB).unwrap()
    }

    fn ctx(telemetry: &Telemetry) -> PipelineCtx<'_> {
        PipelineCtx {
            telemetry,
            span: SpanId::NONE,
        }
    }

    /// Record size of [`raw_store`]'s frames: four of them share 16 KiB.
    const RECORD: usize = 4096;

    /// Formats a store over a fresh SSD and commits `n` all-Raw frames of
    /// `payload_bytes` each at the store level.
    fn raw_store(
        n: u64,
        payload_bytes: u64,
    ) -> (Arc<SsdDevice>, Arc<CheckpointStore>, Vec<Vec<u8>>) {
        let state = ByteSize::from_bytes(payload_bytes);
        let slot = FrameTable::slot_size_for(state, ByteSize::from_bytes(RECORD as u64));
        let cap = CheckpointStore::required_capacity(slot, 3) + ByteSize::from_kb(1);
        let ssd = Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let store = Arc::new(
            CheckpointStore::format(
                Arc::clone(&ssd) as Arc<dyn PersistentDevice>,
                StoreGeometry::single(slot, 3),
            )
            .unwrap(),
        );
        let mut payloads = Vec::new();
        for i in 1..=n {
            let payload: Vec<u8> = (0..payload_bytes)
                .map(|b| (b as u8).wrapping_mul(31).wrapping_add(i as u8))
                .collect();
            let lease = store.begin_checkpoint(&ns(&store));
            let full_digest = StateDigest::of_payload(&payload, i).0;
            let (frame, digest) = raw_frame(lease.counter, full_digest, &payload, RECORD);
            store.write_payload(&lease, 0, &frame).unwrap();
            store
                .persist_payload(&lease, 0, frame.len() as u64)
                .unwrap();
            store.commit(lease, i, frame.len() as u64, digest).unwrap();
            payloads.push(payload);
        }
        (ssd, store, payloads)
    }

    /// Drives `iters` full checkpoints of a synthetic GPU state through the
    /// persist pipeline, returning the device, the store, the GPU at its
    /// final state, and the GPU's digest at each checkpoint.
    fn gpu_store(
        iters: u64,
        bytes: u64,
        chunk: u64,
    ) -> (Arc<SsdDevice>, Arc<CheckpointStore>, Gpu, Vec<StateDigest>) {
        let state = TrainingState::synthetic(ByteSize::from_bytes(bytes), 7);
        let gpu = Gpu::new(GpuConfig::fast_for_tests(), state);
        let slot = FrameTable::slot_size_for(gpu.state_size(), ByteSize::from_bytes(chunk));
        let cap = CheckpointStore::required_capacity(slot, 4) + ByteSize::from_kb(1);
        let ssd = Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let store = Arc::new(
            CheckpointStore::format(
                Arc::clone(&ssd) as Arc<dyn PersistentDevice>,
                StoreGeometry::single(slot, 4),
            )
            .unwrap(),
        );
        let pipeline = PersistPipeline::new(
            Arc::clone(&store),
            HostBufferPool::new(ByteSize::from_bytes(chunk), 4),
        )
        .with_writers(2);
        let telemetry = Telemetry::disabled();
        let ctx = ctx(&telemetry);
        let total = gpu.state_size();
        let mut digests = Vec::new();
        for iter in 1..=iters {
            gpu.update();
            digests.push(gpu.digest());
            let guard = gpu.lock_weights_shared_owned();
            let lease = pipeline.lease(ctx, &ns(pipeline.store()));
            let copied = pipeline
                .copy(ctx, &guard, &lease, iter, total, CopyMode::Streamed)
                .unwrap();
            drop(guard);
            pipeline.seal(ctx, &lease, iter, &copied).unwrap();
            pipeline.commit(ctx, lease, iter, &copied).unwrap();
        }
        (ssd, store, gpu, digests)
    }

    #[test]
    fn parallel_fetch_matches_sequential() {
        // Four records, so four readers really share the payload.
        let (_ssd, store, payloads) = raw_store(2, 16 * 1024);
        let meta = store.latest_committed(&ns(&store)).unwrap();
        let telemetry = Telemetry::disabled();
        let fetch = |readers| {
            RestorePipeline::new(Arc::clone(&store))
                .with_readers(readers)
                .fetch_verified(ctx(&telemetry), &meta, &[])
                .unwrap()
        };
        assert_eq!(fetch(1), payloads[1]);
        assert_eq!(fetch(4), payloads[1], "parallel read is bit-identical");
    }

    #[test]
    fn parallel_fetch_emits_reader_actor_spans() {
        let (_ssd, store, _payloads) = raw_store(1, 16 * 1024);
        let meta = store.latest_committed(&ns(&store)).unwrap();
        let telemetry = Telemetry::enabled();
        let span = telemetry.span_requested("restore", 1, meta.payload_len);
        let got = RestorePipeline::new(Arc::clone(&store))
            .with_readers(4)
            .fetch_verified(
                PipelineCtx {
                    telemetry: &telemetry,
                    span,
                },
                &meta,
                &[],
            );
        assert!(got.is_some());
        let spans: Vec<(String, u64)> = telemetry
            .events()
            .iter()
            .filter_map(|e| match &e.kind {
                pccheck_telemetry::EventKind::ActorSpan { actor, bytes, .. } if e.span == span => {
                    Some((actor.clone(), *bytes))
                }
                _ => None,
            })
            .collect();
        // Four chunks off a shared counter: one span per reader that got any.
        assert!((1..=4).contains(&spans.len()), "{spans:?}");
        assert!(spans.iter().all(|(a, _)| a.starts_with("reader-")));
        let total: u64 = spans.iter().map(|(_, b)| b).sum();
        assert_eq!(total, 16 * 1024, "reader spans account for every byte");
        let snap = telemetry.snapshot().unwrap();
        assert_eq!(snap.restore_chunk_bytes, 16 * 1024);
        assert!(snap.phase(Phase::RestoreRead).count >= 1);
        assert!(snap.phase(Phase::RestoreVerify).count >= 1);
    }

    /// Wherever a byte of an all-Raw frame's state flips, at any reader
    /// count, the candidate is rejected and recovery lands on the older
    /// commit — in DRAM and on the GPU alike.
    #[test]
    fn corrupt_raw_candidate_falls_back_at_every_reader_count() {
        // Sixty-four records plus a short last block.
        const MIB: u64 = 1024 * 1024;
        const CHUNK: u64 = 64 * 1024;
        const BYTES: u64 = 4 * MIB + 100;
        let flips: [(&str, u64, &[u8]); 3] = [
            ("first block", 10, b"!"),
            ("across a block boundary", MIB - 1, b"!!"),
            ("short last block", BYTES - 1, b"!"),
        ];
        let table = FrameTable::encoded_len_for(BYTES.div_ceil(CHUNK) as usize);
        for (place, at, garbage) in flips {
            let (ssd, store, _gpu, digests) = gpu_store(2, BYTES, CHUNK);
            let newest = store.latest_committed(&ns(&store)).unwrap();
            assert_eq!(newest.iteration, 2);
            let off = store.slot_payload_offset(newest.slot) + table + at;
            ssd.write_at(off, garbage).unwrap();
            ssd.persist(off, garbage.len() as u64).unwrap();
            drop(store);
            let device = Arc::clone(&ssd) as Arc<dyn PersistentDevice>;
            for readers in [1, 2, 4] {
                let options = RestoreOptions {
                    readers,
                    ..RestoreOptions::default()
                };
                let telemetry = Telemetry::disabled();
                let (rec, trace) =
                    recover_instrumented_with(Arc::clone(&device), &telemetry, options).unwrap();
                assert_eq!(rec.iteration, 1, "{place}, {readers} readers");
                assert_eq!(trace.fallbacks, 1, "{place}, {readers} readers");
                assert_eq!(StateDigest::of_payload(&rec.payload, 1), digests[0]);

                let fresh = Gpu::new(
                    GpuConfig::fast_for_tests(),
                    TrainingState::synthetic(ByteSize::from_bytes(BYTES), 999),
                );
                let trace =
                    recover_into_gpu(Arc::clone(&device), &fresh, &telemetry, options).unwrap();
                assert_eq!(trace.iteration, 1);
                assert_eq!(fresh.digest(), digests[0], "{place}, {readers} readers");
            }
        }
    }

    #[test]
    fn a_rejected_restore_target_never_reaches_the_gpu() {
        let (ssd, store, _gpu, _digests) = gpu_store(1, 16 * 1024, 4096);
        let only = store.latest_committed(&ns(&store)).unwrap();
        let off = store.slot_payload_offset(only.slot) + 9000;
        ssd.write_at(off, b"!").unwrap();
        ssd.persist(off, 1).unwrap();
        drop(store);
        let fresh = Gpu::new(
            GpuConfig::fast_for_tests(),
            TrainingState::synthetic(ByteSize::from_bytes(16 * 1024), 999),
        );
        let before = fresh.digest();
        let err = recover_into_gpu(
            Arc::clone(&ssd) as Arc<dyn PersistentDevice>,
            &fresh,
            &Telemetry::disabled(),
            RestoreOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            PccheckError::CorruptCheckpoint { counter: 1 }
        ));
        assert_eq!(fresh.digest(), before, "staged chunks were dropped");
    }

    #[test]
    fn read_fault_on_newest_falls_back_instead_of_erroring() {
        let (ssd, store, payloads) = raw_store(2, 16 * 1024);
        let newest = store.latest_committed(&ns(&store)).unwrap();
        assert_eq!(newest.iteration, 2);
        // Latent sector error in the middle of the newest payload,
        // "discovered" mid-recovery-scan. Before the parallel pipeline this
        // aborted recovery with the device error; now it must fall back.
        ssd.arm_read_fault_at(store.slot_payload_offset(newest.slot) + 4096, 64);
        drop(store);
        let telemetry = Telemetry::disabled();
        let (rec, trace) = recover_instrumented_with(
            Arc::clone(&ssd) as Arc<dyn PersistentDevice>,
            &telemetry,
            RestoreOptions::default(),
        )
        .unwrap();
        assert_eq!(rec.iteration, 1, "fell back past the unreadable slot");
        assert_eq!(rec.payload, payloads[0]);
        assert_eq!(trace.fallbacks, 1);
        assert_eq!(trace.candidates_scanned, 2);
    }

    #[test]
    fn read_fault_everywhere_reports_corrupt_not_device_error() {
        // Newest payload is unreadable media, the older one is corrupt on
        // disk: recovery exhausts both and reports the protocol error, not
        // the raw device error.
        let (ssd, store, _payloads) = raw_store(2, 16 * 1024);
        let metas = store.history(&ns(&store)).unwrap();
        let newest = metas.last().unwrap();
        let oldest = metas.first().unwrap();
        ssd.arm_read_fault_at(store.slot_payload_offset(newest.slot), newest.payload_len);
        let off = store.slot_payload_offset(oldest.slot);
        ssd.write_at(off, b"XX").unwrap();
        ssd.persist(off, 2).unwrap();
        drop(store);
        let err = recover_instrumented_with(
            Arc::clone(&ssd) as Arc<dyn PersistentDevice>,
            &Telemetry::disabled(),
            RestoreOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            PccheckError::CorruptCheckpoint { counter: 2 }
        ));
    }

    #[test]
    fn recover_into_gpu_streams_full_checkpoints() {
        let (ssd, store, gpu, _digests) = gpu_store(2, 16 * 1024, 4096);
        let want = gpu.digest();
        drop(store);
        ssd.crash_now();
        ssd.recover();

        let fresh = Gpu::new(
            GpuConfig::fast_for_tests(),
            TrainingState::synthetic(ByteSize::from_bytes(16 * 1024), 999),
        );
        let telemetry = Telemetry::enabled();
        let trace = recover_into_gpu(
            Arc::clone(&ssd) as Arc<dyn PersistentDevice>,
            &fresh,
            &telemetry,
            RestoreOptions::default(),
        )
        .unwrap();
        assert_eq!(trace.iteration, 2);
        assert_eq!(fresh.digest(), want, "streamed restore is bit-identical");
        assert_eq!(fresh.step_count(), 2);
        let snap = telemetry.snapshot().unwrap();
        assert!(snap.phase(Phase::RestoreUpload).count >= 1);
        assert!(snap.restore_chunk_bytes >= 16 * 1024, "chunk-wise reads");
    }

    #[test]
    fn recover_into_gpu_materializes_framed_chains() {
        let state = TrainingState::compressible(ByteSize::from_bytes(2048), 7, 32);
        let gpu = Gpu::new(GpuConfig::fast_for_tests(), state);
        gpu.update();
        let slot = FrameTable::slot_size_for(gpu.state_size(), ByteSize::from_bytes(256));
        let cap = CheckpointStore::required_capacity(slot, 4) + ByteSize::from_kb(1);
        let ssd = Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let store = Arc::new(
            CheckpointStore::format(
                Arc::clone(&ssd) as Arc<dyn PersistentDevice>,
                StoreGeometry::single(slot, 4),
            )
            .unwrap(),
        );
        let persist = PersistPipeline::new(
            Arc::clone(&store),
            HostBufferPool::new(ByteSize::from_bytes(256), 8),
        )
        .with_writers(2)
        .with_codec(true);
        let telemetry = Telemetry::disabled();
        let pctx = ctx(&telemetry);
        for iter in 1..=2u64 {
            if iter > 1 {
                gpu.update_sparse(0.1);
            }
            let guard = gpu.lock_weights_shared_owned();
            persist
                .checkpoint_framed(
                    pctx,
                    &ns(&store),
                    &guard,
                    iter,
                    CopyMode::Codec(DeltaPolicy::default()),
                )
                .unwrap();
        }
        let head = store.latest_committed(&ns(&store)).unwrap();
        assert!(head.is_delta(), "clean chunks reference the pinned base");
        let want = gpu.digest();
        drop(store);
        ssd.crash_now();
        ssd.recover();

        let fresh = Gpu::new(
            GpuConfig::fast_for_tests(),
            TrainingState::synthetic(ByteSize::from_bytes(2048), 999),
        );
        let trace = recover_into_gpu(
            Arc::clone(&ssd) as Arc<dyn PersistentDevice>,
            &fresh,
            &Telemetry::disabled(),
            RestoreOptions::default(),
        )
        .unwrap();
        assert_eq!(trace.chain_links, 1);
        assert_eq!(fresh.digest(), want);
        assert_eq!(fresh.step_count(), 2);
    }
}
