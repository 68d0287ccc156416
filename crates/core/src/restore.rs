//! The parallel restore pipeline: the read-side mirror of the persist
//! pipeline.
//!
//! §4.2 of the paper treats recovery as a mostly-serial tail cost: read the
//! newest committed payload, verify its digest, load it back to the GPU.
//! On modern devices that serializes three resources that could overlap —
//! device read bandwidth (striped members especially), digest computation,
//! and the DRAM→GPU upload. [`RestorePipeline`] overlaps them:
//!
//! * `r` **reader threads** pull payload chunks concurrently, so an N-way
//!   striped store restores at close to N× a single reader's bandwidth.
//! * **Verification overlaps I/O.** The state digest is a fold over
//!   fixed-size block digests ([`pccheck_util::fnv`]), so every reader
//!   digests the blocks of each chunk right after its read completes, in
//!   whatever order chunks land; the candidate is accepted on the final
//!   fold of the block values against the commit's digest.
//! * **Uploads stream.** Chunks can land directly in a [`RestoreSink`]
//!   (e.g. [`pccheck_gpu::RestoreTarget`], which stages them until the
//!   fold passes) instead of materializing the full payload in DRAM first.
//!
//! [`recover_instrumented_with`] rebuilds the crate's recovery flow on top
//! of this pipeline: candidates fall back newest-first on *any* failure
//! (digest mismatch **or** device read fault). A candidate is one of two
//! kinds, told apart by its payload head: *framed* (`PCFRAME1`, decoded by
//! the one walk in [`crate::codec`], which resolves `DedupBase`
//! references in one hop) or *raw*.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use pccheck_util::sync::Mutex;

use pccheck_device::{HostBufferPool, PersistentDevice};
use pccheck_gpu::{Gpu, RestoreTarget};
use pccheck_telemetry::{FlightEventKind, Phase, Telemetry};
use pccheck_util::fnv::{block_digests, fold_blocks, DIGEST_BLOCK};
use pccheck_util::ByteSize;

use crate::codec::{decode_frame, is_frame};
use crate::error::PccheckError;
use crate::meta::CheckMeta;
use crate::pipeline::PipelineCtx;
use crate::recovery::{RecoveredCheckpoint, RecoveryTrace};
use crate::store::CheckpointStore;

/// Default read granularity: a whole number of digest blocks, large
/// enough that a device read's fixed cost is noise beside digesting what
/// it returned, and the bound on each reader's scratch.
const DEFAULT_READ_CHUNK: u64 = 1024 * 1024;

/// Knobs for the parallel recovery flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestoreOptions {
    /// Parallel reader threads (`r`). 1 reproduces the sequential path.
    pub readers: usize,
    /// On a multi-tenant (service-mode) store, recover only this job's
    /// namespace: candidates outside its slot range are never considered,
    /// so one tenant's torn checkpoint can never fall back onto another
    /// tenant's state. `None` recovers the newest checkpoint store-wide.
    pub job: Option<crate::store::JobId>,
}

impl Default for RestoreOptions {
    fn default() -> Self {
        RestoreOptions {
            readers: 4,
            job: None,
        }
    }
}

/// Destination for restore chunks.
///
/// Offsets are payload-relative; each chunk is delivered exactly once, in
/// arbitrary order, possibly from several threads at once — and *before*
/// the candidate's digest is known to verify, so a sink must not act on
/// the bytes until the fetch reports success.
pub trait RestoreSink: Sync {
    /// Accepts one chunk.
    fn put(&self, offset: u64, data: &[u8]);
}

impl RestoreSink for RestoreTarget {
    fn put(&self, offset: u64, data: &[u8]) {
        self.write_chunk(offset, data);
    }
}

/// What the fetch loop hands back to the recovery flow.
#[derive(Debug, Clone, Copy, Default)]
struct FetchReport {
    ok: bool,
    /// Digest compute time, summed over the readers, in nanoseconds.
    verify_nanos: u64,
}

/// The multi-reader, verification-overlapped read path over a
/// [`CheckpointStore`].
///
/// Cloning is cheap; clones share the store.
#[derive(Debug, Clone)]
pub struct RestorePipeline {
    store: Arc<CheckpointStore>,
    readers: usize,
    chunk: ByteSize,
}

impl RestorePipeline {
    /// A single-reader pipeline over `store` with the default read chunk.
    pub fn new(store: Arc<CheckpointStore>) -> Self {
        RestorePipeline {
            store,
            readers: 1,
            chunk: ByteSize::from_bytes(DEFAULT_READ_CHUNK),
        }
    }

    /// Sets the number of parallel reader threads (`r`).
    pub fn with_readers(mut self, readers: usize) -> Self {
        self.readers = readers.max(1);
        self
    }

    /// Sets the read granularity, rounded up to a whole number of digest
    /// blocks so every reader digests the blocks of what it read.
    ///
    /// # Panics
    ///
    /// Panics on a zero chunk.
    pub fn with_read_chunk(mut self, chunk: ByteSize) -> Self {
        assert!(chunk.as_u64() > 0, "read chunk must be non-zero");
        self.chunk = ByteSize::from_bytes(chunk.as_u64().next_multiple_of(DIGEST_BLOCK as u64));
        self
    }

    /// The underlying store.
    pub fn store(&self) -> &Arc<CheckpointStore> {
        &self.store
    }

    /// The configured reader count.
    pub fn readers(&self) -> usize {
        self.readers
    }

    /// Reads and verifies `meta`'s payload with the configured readers.
    ///
    /// Returns `None` on any device read error or digest mismatch — the
    /// caller falls back to an older candidate, exactly like a digest
    /// failure. Never propagates per-candidate read faults as hard errors.
    pub fn fetch_verified(&self, ctx: PipelineCtx<'_>, meta: &CheckMeta) -> Option<Vec<u8>> {
        let mut out = vec![0u8; usize::try_from(meta.payload_len).ok()?];
        let report = self.fetch_into_buffer(ctx, meta, &mut out);
        report.ok.then_some(out)
    }

    /// Streams `meta`'s payload into `sink` chunk by chunk as each chunk
    /// is read, without materializing the whole payload. Returns whether
    /// every chunk was read and delivered and the payload verified.
    pub fn fetch_streaming(
        &self,
        ctx: PipelineCtx<'_>,
        meta: &CheckMeta,
        sink: &dyn RestoreSink,
    ) -> bool {
        self.fetch_into_sink(ctx, meta, sink).ok
    }

    /// Per-chunk device read with read-stage telemetry, mirroring the
    /// persist pipeline's `write_chunk`. Returns the nanoseconds spent in
    /// the device call (media time, for the reader's queue-wait split).
    fn read_chunk(
        &self,
        ctx: PipelineCtx<'_>,
        device_off: u64,
        payload_off: u64,
        buf: &mut [u8],
    ) -> Result<u64, PccheckError> {
        let start = ctx.telemetry.now_nanos();
        self.store.device().read_durable_at(device_off, buf)?;
        let mut media = 0;
        if ctx.telemetry.is_enabled() {
            media = ctx.telemetry.now_nanos().saturating_sub(start);
            ctx.telemetry.stage_read(media);
            self.sample_device_queues(ctx);
        }
        ctx.telemetry
            .chunk(ctx.span, Phase::RestoreRead, payload_off, buf.len() as u64);
        Ok(media)
    }

    /// Samples the device's submission queues into the per-device gauges
    /// (controller at index 0, composite members after it).
    fn sample_device_queues(&self, ctx: PipelineCtx<'_>) {
        if !ctx.telemetry.is_enabled() {
            return;
        }
        for (i, depth) in self.store.device().queue_depths().iter().enumerate() {
            ctx.telemetry.gauge_device_queue(i, *depth);
        }
    }

    /// Assembling in place: the output buffer splits into one cell per
    /// read chunk and each reader reads straight into the cell it claimed.
    fn fetch_into_buffer(
        &self,
        ctx: PipelineCtx<'_>,
        meta: &CheckMeta,
        out: &mut [u8],
    ) -> FetchReport {
        let chunk = self.chunk.as_usize();
        let cells: Vec<Mutex<&mut [u8]>> = out.chunks_mut(chunk).map(Mutex::new).collect();
        self.fetch(ctx, meta, &|off, _, read| {
            read(&mut cells[off as usize / chunk].lock());
        })
    }

    /// Streaming: each reader reads into pooled scratch and delivers
    /// straight to the sink — no ordering, no assembly.
    fn fetch_into_sink(
        &self,
        ctx: PipelineCtx<'_>,
        meta: &CheckMeta,
        sink: &dyn RestoreSink,
    ) -> FetchReport {
        let chunk = self.chunk.as_u64().min(meta.payload_len).max(1);
        let pool = HostBufferPool::new(ByteSize::from_bytes(chunk), self.readers);
        self.fetch(ctx, meta, &|off, len, read| {
            let mut buf = pool.acquire();
            let data = &mut buf.as_mut_slice()[..len];
            if read(data) {
                sink.put(off, data);
                ctx.telemetry
                    .chunk(ctx.span, Phase::RestoreUpload, off, len as u64);
            }
        })
    }

    /// The one fetch loop over a raw payload. Readers claim read chunks
    /// (each a whole number of digest blocks, but for the payload's tail)
    /// off a shared counter; for each, `lend(payload offset, len, read)`
    /// supplies `len` bytes of destination memory and calls `read` on it,
    /// which fills it from the device, files the digests of its blocks by
    /// block index, and says whether the read succeeded. The candidate is
    /// accepted iff every read succeeded and the fold of the block
    /// digests — seeded with the commit's iteration and length — equals
    /// the commit's digest: corruption anywhere is caught here, after the
    /// last block, and a read fault stops the readers at once.
    ///
    /// Claims walk the payload as `readers` contiguous runs, round-robin:
    /// chunks in flight at the same time lie a run apart — on different
    /// members of a striped store — while each run is still read front to
    /// back and a slow reader never strands a share of the payload.
    fn fetch(
        &self,
        ctx: PipelineCtx<'_>,
        meta: &CheckMeta,
        lend: &(dyn Fn(u64, usize, &mut dyn FnMut(&mut [u8]) -> bool) + Sync),
    ) -> FetchReport {
        let read_start = ctx.telemetry.now_nanos();
        let total = meta.payload_len;
        let base = self.store.slot_payload_offset(meta.slot);
        let chunk = self.chunk.as_u64();
        let count = total.div_ceil(chunk);
        let readers = count.min(self.readers as u64);
        let run = count.div_ceil(readers.max(1));
        let block = DIGEST_BLOCK as u64;
        let blocks: Vec<AtomicU64> = (0..total.div_ceil(block))
            .map(|_| AtomicU64::new(0))
            .collect();
        let next = AtomicU64::new(0);
        let failed = AtomicBool::new(false);
        let verify_nanos = AtomicU64::new(0);

        std::thread::scope(|s| {
            for r in 0..readers {
                let (blocks, next, failed, verify_nanos) = (&blocks, &next, &failed, &verify_nanos);
                s.spawn(move || {
                    let actor_start = ctx.telemetry.now_nanos();
                    let mut actor_bytes = 0u64;
                    let mut media_nanos = 0u64;
                    while !failed.load(Ordering::Acquire) {
                        let claim = next.fetch_add(1, Ordering::Relaxed);
                        if claim >= run * readers {
                            break;
                        }
                        let off = ((claim % readers) * run + claim / readers) * chunk;
                        if off >= total {
                            continue; // past the end of the short last run
                        }
                        let len = chunk.min(total - off) as usize;
                        lend(off, len, &mut |dst| {
                            match self.read_chunk(ctx, base + off, off, dst) {
                                Ok(media) => media_nanos += media,
                                Err(_) => {
                                    failed.store(true, Ordering::Release);
                                    return false;
                                }
                            }
                            let v0 = Instant::now();
                            let first = (off / block) as usize;
                            // Relaxed: the scope's join orders every store
                            // before the fold below reads the cells.
                            for (cell, digest) in blocks[first..].iter().zip(block_digests(dst)) {
                                cell.store(digest, Ordering::Relaxed);
                            }
                            verify_nanos
                                .fetch_add(v0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                            actor_bytes += len as u64;
                            true
                        });
                    }
                    if actor_bytes > 0 && ctx.telemetry.is_enabled() {
                        ctx.telemetry.actor_span_split(
                            ctx.span,
                            &format!("reader-{r}"),
                            actor_start,
                            actor_bytes,
                            media_nanos,
                        );
                    }
                });
            }
        });

        let folded = fold_blocks(
            meta.iteration,
            total,
            blocks.iter().map(|b| b.load(Ordering::Relaxed)),
        );
        ctx.telemetry
            .phase_done(ctx.span, Phase::RestoreRead, read_start);
        ctx.telemetry
            .phase_done(ctx.span, Phase::RestoreVerify, read_start);
        FetchReport {
            ok: !failed.load(Ordering::Acquire) && folded == meta.digest,
            verify_nanos: verify_nanos.into_inner(),
        }
    }

    /// Whether `meta`'s payload begins with a chunk-frame table (the codec
    /// persist path). Unreadable heads count as not framed — the candidate
    /// then fails verification on the raw path it is routed to.
    pub fn is_framed(&self, meta: &CheckMeta) -> bool {
        let mut head = [0u8; 8];
        meta.payload_len >= 8
            && self
                .store
                .device()
                .read_durable_at(self.store.slot_payload_offset(meta.slot), &mut head)
                .is_ok()
            && is_frame(&head)
    }

    /// Reads `meta`'s whole slot payload in one device read.
    fn read_slot(&self, ctx: PipelineCtx<'_>, meta: &CheckMeta) -> Option<Vec<u8>> {
        let mut payload = vec![0u8; usize::try_from(meta.payload_len).ok()?];
        self.read_chunk(ctx, self.store.slot_payload_offset(meta.slot), 0, &mut payload)
            .ok()?;
        Some(payload)
    }

    /// Reads and fully materializes a framed (codec) payload through the
    /// shared [`decode_frame`] walk, resolving each base-dedup reference
    /// with one read of the base checkpoint it names (found among
    /// `candidates`).
    ///
    /// Returns `(logical payload, full-state digest)`; `None` on any torn
    /// table, failed read, or digest mismatch — the caller falls back to
    /// an older candidate, like every other verification failure. Either
    /// way `verify_nanos` gains the walk's digest compute time.
    pub fn fetch_framed(
        &self,
        ctx: PipelineCtx<'_>,
        meta: &CheckMeta,
        candidates: &[CheckMeta],
        verify_nanos: &mut u64,
    ) -> Option<(Vec<u8>, u64)> {
        let payload = self.read_slot(ctx, meta)?;
        let mut base = |counter, slot| {
            let base = candidates
                .iter()
                .find(|c| c.counter == counter && c.slot == slot)?;
            Some((*base, self.read_slot(ctx, base)?))
        };
        decode_frame(&payload, meta, &mut base, verify_nanos)
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
/// * [`PccheckError::InvalidConfig`] if the device holds no PCcheck store.
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
/// memory: raw checkpoints stream chunk-by-chunk into a
/// [`RestoreTarget`], which hands them to the GPU only once the payload
/// verified (a rejected target is dropped, never finished), framed
/// checkpoints reconstruct in DRAM and upload once.
///
/// # Errors
///
/// Same as [`recover_instrumented_with`].
///
/// # Panics
///
/// Panics if the recovered payload does not match `gpu`'s state layout
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
    // Candidates: every slot holding a complete checkpoint, newest first.
    // With a job filter, only that namespace's slots are candidates.
    let mut candidates = store.history()?;
    if let Some(job) = options.job {
        if !store.is_multi_tenant() {
            return Err(PccheckError::InvalidConfig(
                "job-scoped recovery needs a multi-tenant store".into(),
            ));
        }
        candidates.retain(|m| store.namespace_of_slot(m.slot) == Some(job));
    }
    candidates.reverse();
    let pipeline = RestorePipeline::new(Arc::clone(&store)).with_readers(options.readers);

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

        // `verified` is `Some((Some(payload) | None-if-streamed, digest))`
        // on success; any failure — torn payload, bad digest, *or a device
        // read fault* — rejects only this candidate and falls back.
        let verified: Option<(Option<Vec<u8>>, u64)> = if pipeline.is_framed(meta) {
            // Framed (codec) payload: decode, decompress, resolve dedup
            // references, and verify end to end — whether or not the
            // commit carries a base link.
            let load_t0 = Instant::now();
            let load_start = telemetry.now_nanos();
            let out = pipeline.fetch_framed(ctx, meta, &candidates, &mut trace.verify_nanos);
            trace.load_nanos += load_t0.elapsed().as_nanos() as u64;
            telemetry.phase_done(span, Phase::RecoveryLoad, load_start);
            telemetry.phase_done(span, Phase::RecoveryVerify, load_start);
            out.map(|(payload, digest)| {
                trace.chain_links = meta.delta.map_or(0, |_| 1);
                let payload = match gpu {
                    Some(gpu) => {
                        let upload_start = telemetry.now_nanos();
                        gpu.restore(&payload, meta.iteration);
                        telemetry.phase_done(span, Phase::RestoreUpload, upload_start);
                        None
                    }
                    None => Some(payload),
                };
                (payload, digest)
            })
        } else {
            let load_t0 = Instant::now();
            let load_start = telemetry.now_nanos();
            let (report, payload) = match gpu {
                Some(gpu) if meta.payload_len == gpu.state_size().as_u64() => {
                    let target = gpu.begin_restore(ByteSize::from_bytes(meta.payload_len));
                    let report = pipeline.fetch_into_sink(ctx, meta, &target);
                    if report.ok {
                        target.finish(meta.iteration);
                        telemetry.phase_done(span, Phase::RestoreUpload, load_start);
                    }
                    (report, None)
                }
                _ => {
                    let mut out =
                        vec![0u8; usize::try_from(meta.payload_len).expect("payload fits")];
                    let report = pipeline.fetch_into_buffer(ctx, meta, &mut out);
                    let payload = report.ok.then(|| match gpu {
                        Some(gpu) => {
                            // Size differs from the GPU layout: restore()
                            // owns the panic, as restore_into always has.
                            let upload_start = telemetry.now_nanos();
                            gpu.restore(&out, meta.iteration);
                            telemetry.phase_done(span, Phase::RestoreUpload, upload_start);
                            None
                        }
                        None => Some(out),
                    });
                    (report, payload.flatten())
                }
            };
            trace.load_nanos += load_t0.elapsed().as_nanos() as u64;
            trace.verify_nanos += report.verify_nanos;
            telemetry.phase_done(span, Phase::RecoveryLoad, load_start);
            telemetry.phase_done(span, Phase::RecoveryVerify, load_start);
            report.ok.then_some((payload, meta.digest))
        };

        let Some((payload, digest)) = verified else {
            continue;
        };
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
            digest,
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
    use pccheck_device::{DeviceConfig, SsdDevice};
    use pccheck_gpu::{GpuConfig, StateDigest, TrainingState};
    use pccheck_telemetry::SpanId;

    use crate::pipeline::{DeltaPolicy, PersistPipeline};

    fn ctx(telemetry: &Telemetry) -> PipelineCtx<'_> {
        PipelineCtx {
            telemetry,
            span: SpanId::NONE,
        }
    }

    /// Formats a store over a fresh SSD and commits `n` raw checkpoints of
    /// `payload_bytes` each at the store level.
    fn raw_store(
        n: u64,
        payload_bytes: u64,
    ) -> (Arc<SsdDevice>, Arc<CheckpointStore>, Vec<Vec<u8>>) {
        let slot = ByteSize::from_bytes(payload_bytes);
        let cap = CheckpointStore::required_capacity(slot, 3) + ByteSize::from_kb(1);
        let ssd = Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let store = Arc::new(
            CheckpointStore::format(Arc::clone(&ssd) as Arc<dyn PersistentDevice>, slot, 3)
                .unwrap(),
        );
        let mut payloads = Vec::new();
        for i in 1..=n {
            let payload: Vec<u8> = (0..payload_bytes)
                .map(|b| (b as u8).wrapping_mul(31).wrapping_add(i as u8))
                .collect();
            let lease = store.begin_checkpoint();
            store.write_payload(&lease, 0, &payload).unwrap();
            store.persist_payload(&lease, 0, payload_bytes).unwrap();
            let digest = StateDigest::of_payload(&payload, i).0;
            store.commit(lease, i, payload_bytes, digest).unwrap();
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
        use pccheck_device::HostBufferPool;

        let state = TrainingState::synthetic(ByteSize::from_bytes(bytes), 7);
        let gpu = Gpu::new(GpuConfig::fast_for_tests(), state);
        let cap = CheckpointStore::required_capacity(gpu.state_size(), 4) + ByteSize::from_kb(1);
        let ssd = Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let store = Arc::new(
            CheckpointStore::format(
                Arc::clone(&ssd) as Arc<dyn PersistentDevice>,
                gpu.state_size(),
                4,
            )
            .unwrap(),
        );
        let pipeline = PersistPipeline::new(Arc::clone(&store))
            .with_writers(2)
            .with_staging(HostBufferPool::new(ByteSize::from_bytes(chunk), 4));
        let telemetry = Telemetry::disabled();
        let ctx = ctx(&telemetry);
        let total = gpu.state_size();
        let mut digests = Vec::new();
        for iter in 1..=iters {
            gpu.update();
            digests.push(gpu.digest());
            let guard = gpu.lock_weights_shared_owned();
            let lease = pipeline.lease(ctx);
            let copied = pipeline
                .copy_chunks(ctx, &guard, &lease, total, true)
                .unwrap();
            drop(guard);
            pipeline.seal(ctx, &lease, iter, &copied).unwrap();
            pipeline.commit(ctx, lease, iter, &copied).unwrap();
        }
        (ssd, store, gpu, digests)
    }

    #[test]
    fn parallel_fetch_matches_sequential() {
        // Four read chunks, so four readers really share the payload.
        let (_ssd, store, payloads) = raw_store(2, 16 * 1024);
        let meta = store.latest_committed().unwrap();
        let telemetry = Telemetry::disabled();
        let fetch = |readers| {
            RestorePipeline::new(Arc::clone(&store))
                .with_readers(readers)
                .with_read_chunk(ByteSize::from_bytes(4096))
                .fetch_verified(ctx(&telemetry), &meta)
                .unwrap()
        };
        assert_eq!(fetch(1), payloads[1]);
        assert_eq!(fetch(4), payloads[1], "parallel read is bit-identical");
    }

    #[test]
    fn parallel_fetch_emits_reader_actor_spans() {
        let (_ssd, store, _payloads) = raw_store(1, 16 * 1024);
        let meta = store.latest_committed().unwrap();
        let telemetry = Telemetry::enabled();
        let span = telemetry.span_requested("restore", 1, meta.payload_len);
        let got = RestorePipeline::new(Arc::clone(&store))
            .with_readers(4)
            .with_read_chunk(ByteSize::from_bytes(4096))
            .fetch_verified(
                PipelineCtx {
                    telemetry: &telemetry,
                    span,
                },
                &meta,
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

    /// Nothing but the end-to-end fold guards a raw payload: wherever a
    /// byte flips, at any reader count, the candidate is rejected and
    /// recovery lands on the older commit — in DRAM and on the GPU alike.
    #[test]
    fn corrupt_raw_candidate_falls_back_at_every_reader_count() {
        // Four default read chunks plus a short last block.
        const BYTES: u64 = 4 * DEFAULT_READ_CHUNK + 100;
        let flips: [(&str, u64, &[u8]); 3] = [
            ("first block", 10, b"!"),
            ("across a block boundary", DEFAULT_READ_CHUNK - 1, b"!!"),
            ("short last block", BYTES - 1, b"!"),
        ];
        for (place, at, garbage) in flips {
            let (ssd, store, _gpu, digests) = gpu_store(2, BYTES, 64 * 1024);
            let newest = store.latest_committed().unwrap();
            assert_eq!(newest.iteration, 2);
            let off = store.slot_payload_offset(newest.slot) + at;
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
        let only = store.latest_committed().unwrap();
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
        let newest = store.latest_committed().unwrap();
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
        let metas = store.history().unwrap();
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
        use pccheck_device::HostBufferPool;

        let state = TrainingState::compressible(ByteSize::from_bytes(2048), 7, 32);
        let gpu = Gpu::new(GpuConfig::fast_for_tests(), state);
        gpu.update();
        let cap = CheckpointStore::required_capacity(gpu.state_size(), 4) + ByteSize::from_kb(1);
        let ssd = Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let store = Arc::new(
            CheckpointStore::format(
                Arc::clone(&ssd) as Arc<dyn PersistentDevice>,
                gpu.state_size(),
                4,
            )
            .unwrap(),
        );
        let persist = PersistPipeline::new(Arc::clone(&store))
            .with_writers(2)
            .with_staging(HostBufferPool::new(ByteSize::from_bytes(256), 8))
            .with_codec(true);
        let telemetry = Telemetry::disabled();
        let pctx = ctx(&telemetry);
        for iter in 1..=2u64 {
            if iter > 1 {
                gpu.update_sparse(0.1);
            }
            let guard = gpu.lock_weights_shared_owned();
            persist
                .checkpoint_framed(pctx, &guard, iter, DeltaPolicy::default())
                .unwrap();
        }
        let head = store.latest_committed().unwrap();
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
