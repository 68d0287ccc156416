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
//! * **Verification overlaps I/O.** When the slot carries a per-chunk
//!   [`ChunkDigestTable`] (written by the persist pipeline's copy paths),
//!   every chunk verifies independently right after its read completes.
//!   Legacy slots without a table fall back to a dedicated verifier thread
//!   that folds the whole-payload digest in payload order while later
//!   chunks are still in flight — chunk `i` verifies while chunk `i+1`
//!   reads.
//! * **Uploads stream.** Verified chunks can land directly in a
//!   [`RestoreSink`] (e.g. [`pccheck_gpu::RestoreTarget`]) instead of
//!   materializing the full payload in DRAM first.
//!
//! [`recover_instrumented_with`] rebuilds the crate's recovery flow on top
//! of this pipeline: candidates fall back newest-first on *any* failure
//! (digest mismatch **or** device read fault). A candidate is one of two
//! kinds, told apart by its payload head: *framed* (`PCFRAME1`, decoded by
//! the one walk in [`crate::codec`], which resolves `DedupBase`
//! references in one hop) or *raw*.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::Arc;
use std::time::Instant;

use pccheck_util::sync::Mutex;

use pccheck_device::{
    fnv1a_fold, ChunkDigestTable, HostBuffer, HostBufferPool, PersistentDevice, FNV_SEED,
};
use pccheck_gpu::{Gpu, RestoreTarget};
use pccheck_telemetry::{FlightEventKind, Phase, Telemetry};
use pccheck_util::ByteSize;

use crate::codec::{decode_frame, is_frame};
use crate::error::PccheckError;
use crate::meta::CheckMeta;
use crate::pipeline::PipelineCtx;
use crate::recovery::{RecoveredCheckpoint, RecoveryTrace};
use crate::store::CheckpointStore;

/// Read granularity for slots without a per-chunk digest table.
const DEFAULT_READ_CHUNK: u64 = 256 * 1024;

/// Knobs for the parallel recovery flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestoreOptions {
    /// Parallel reader threads (`r`). 1 reproduces the sequential path.
    pub readers: usize,
    /// How many of the newest candidates have their digest tables probed
    /// concurrently before the first payload fetch starts.
    pub probe: usize,
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
            probe: 2,
            job: None,
        }
    }
}

/// Destination for verified restore chunks.
///
/// Offsets are payload-relative; each chunk is delivered exactly once, in
/// arbitrary order, possibly from several threads at once.
pub trait RestoreSink: Sync {
    /// Accepts one verified chunk.
    fn put(&self, offset: u64, data: &[u8]);
}

impl RestoreSink for RestoreTarget {
    fn put(&self, offset: u64, data: &[u8]) {
        self.write_chunk(offset, data);
    }
}

/// Per-fetch accounting the private fetch paths hand back to the recovery
/// flow (summed verification / sink compute time, in nanoseconds).
#[derive(Debug, Clone, Copy, Default)]
struct FetchReport {
    ok: bool,
    verify_nanos: u64,
    upload_nanos: u64,
}

/// The multi-reader, verification-overlapped read path over a
/// [`CheckpointStore`].
///
/// Cloning is cheap; clones share the store, the optional DRAM scratch
/// pool, and the probed digest-table cache.
#[derive(Debug, Clone)]
pub struct RestorePipeline {
    store: Arc<CheckpointStore>,
    readers: usize,
    chunk: ByteSize,
    pool: Option<HostBufferPool>,
    /// Digest tables probed ahead of the fetches, keyed `(counter, slot)`.
    /// A present `None` means "probed, no usable table" — don't re-read.
    tables: Arc<Mutex<HashMap<(u64, u32), Option<ChunkDigestTable>>>>,
}

impl RestorePipeline {
    /// A single-reader pipeline over `store` with the default read chunk.
    pub fn new(store: Arc<CheckpointStore>) -> Self {
        RestorePipeline {
            store,
            readers: 1,
            chunk: ByteSize::from_bytes(DEFAULT_READ_CHUNK),
            pool: None,
            tables: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// Sets the number of parallel reader threads (`r`).
    pub fn with_readers(mut self, readers: usize) -> Self {
        self.readers = readers.max(1);
        self
    }

    /// Sets the read granularity used for slots without a digest table.
    ///
    /// # Panics
    ///
    /// Panics on a zero chunk.
    pub fn with_read_chunk(mut self, chunk: ByteSize) -> Self {
        assert!(chunk.as_u64() > 0, "read chunk must be non-zero");
        self.chunk = chunk;
        self
    }

    /// Attaches a DRAM scratch pool bounding how many chunks may be in
    /// flight between the readers and the verifier/sink.
    pub fn with_staging(mut self, pool: HostBufferPool) -> Self {
        self.pool = Some(pool);
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

    /// Concurrently probes the digest tables of the newest `k` candidates
    /// into the pipeline's cache, so per-candidate fetches don't serialize
    /// on the table read.
    pub fn probe(&self, candidates: &[CheckMeta], k: usize) {
        let k = k.min(candidates.len());
        match k {
            0 => {}
            1 => {
                let meta = &candidates[0];
                let table = self.store.read_digest_table(meta);
                self.tables.lock().insert((meta.counter, meta.slot), table);
            }
            _ => {
                std::thread::scope(|s| {
                    for meta in &candidates[..k] {
                        s.spawn(move || {
                            let table = self.store.read_digest_table(meta);
                            self.tables.lock().insert((meta.counter, meta.slot), table);
                        });
                    }
                });
            }
        }
    }

    /// The candidate's digest table: probed cache first, device second.
    fn table_for(&self, meta: &CheckMeta) -> Option<ChunkDigestTable> {
        if let Some(entry) = self.tables.lock().get(&(meta.counter, meta.slot)) {
            return entry.clone();
        }
        self.store.read_digest_table(meta)
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
    /// verifies, without materializing the whole payload. Returns whether
    /// every chunk was read, verified, and delivered.
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

    /// DRAM scratch for streaming paths: the attached pool when its chunks
    /// are large enough, otherwise an ad-hoc pool bounded at ~2 chunks per
    /// reader.
    fn scratch_pool(&self, chunk: u64) -> HostBufferPool {
        match &self.pool {
            Some(p) if p.chunk_size().as_u64() >= chunk => p.clone(),
            _ => HostBufferPool::new(ByteSize::from_bytes(chunk), self.readers * 2 + 2),
        }
    }

    fn fetch_into_buffer(
        &self,
        ctx: PipelineCtx<'_>,
        meta: &CheckMeta,
        out: &mut [u8],
    ) -> FetchReport {
        let read_start = ctx.telemetry.now_nanos();
        let report = match self.table_for(meta) {
            Some(table) if !table.digests.is_empty() => {
                self.fetch_table_buffer(ctx, meta, &table, out)
            }
            _ => {
                let out_cell = Mutex::new(out);
                self.fetch_legacy(ctx, meta, &|off, data| {
                    let start = usize::try_from(off).expect("offset fits");
                    out_cell.lock()[start..start + data.len()].copy_from_slice(data);
                })
            }
        };
        ctx.telemetry
            .phase_done(ctx.span, Phase::RestoreRead, read_start);
        ctx.telemetry
            .phase_done(ctx.span, Phase::RestoreVerify, read_start);
        report
    }

    fn fetch_into_sink(
        &self,
        ctx: PipelineCtx<'_>,
        meta: &CheckMeta,
        sink: &dyn RestoreSink,
    ) -> FetchReport {
        let read_start = ctx.telemetry.now_nanos();
        let report = match self.table_for(meta) {
            Some(table) if !table.digests.is_empty() => {
                self.fetch_table_sink(ctx, meta, &table, sink)
            }
            _ => {
                let upload_nanos = AtomicU64::new(0);
                let mut report = self.fetch_legacy(ctx, meta, &|off, data| {
                    let u0 = Instant::now();
                    sink.put(off, data);
                    upload_nanos.fetch_add(u0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    ctx.telemetry
                        .chunk(ctx.span, Phase::RestoreUpload, off, data.len() as u64);
                });
                report.upload_nanos = upload_nanos.into_inner();
                report
            }
        };
        ctx.telemetry
            .phase_done(ctx.span, Phase::RestoreRead, read_start);
        ctx.telemetry
            .phase_done(ctx.span, Phase::RestoreVerify, read_start);
        report
    }

    /// Table path, assembling in place: the output buffer splits into one
    /// contiguous run of chunks per reader, each reader reads straight
    /// into its run and verifies every chunk against the table the moment
    /// its read returns.
    fn fetch_table_buffer(
        &self,
        ctx: PipelineCtx<'_>,
        meta: &CheckMeta,
        table: &ChunkDigestTable,
        out: &mut [u8],
    ) -> FetchReport {
        let base = self.store.slot_payload_offset(meta.slot);
        let count = table.digests.len();
        let readers = self.readers.min(count).max(1);
        let per = count.div_ceil(readers);
        let failed = AtomicBool::new(false);
        let verify_nanos = AtomicU64::new(0);

        // Carve the output into per-reader runs of whole chunks.
        let mut runs: Vec<(usize, &mut [u8])> = Vec::with_capacity(readers);
        let mut rest = out;
        let mut first = 0usize;
        while first < count {
            let last = (first + per).min(count);
            let (start_off, _) = table.chunk_range(first);
            let end_off = if last == count {
                table.payload_len
            } else {
                table.chunk_range(last).0
            };
            let take = usize::try_from(end_off - start_off).expect("run fits");
            let (head, tail) = rest.split_at_mut(take);
            runs.push((first, head));
            rest = tail;
            first = last;
        }

        std::thread::scope(|s| {
            for (r, (first, run)) in runs.into_iter().enumerate() {
                let failed = &failed;
                let verify_nanos = &verify_nanos;
                s.spawn(move || {
                    let actor_start = ctx.telemetry.now_nanos();
                    let (run_base, _) = table.chunk_range(first);
                    let mut done = 0usize;
                    let mut media_nanos = 0u64;
                    for i in first.. {
                        if done >= run.len() || failed.load(Ordering::Acquire) {
                            break;
                        }
                        let (off, len) = table.chunk_range(i);
                        let n = usize::try_from(len).expect("chunk fits");
                        let dst = &mut run[done..done + n];
                        match self.read_chunk(ctx, base + off, off, dst) {
                            Ok(media) => media_nanos += media,
                            Err(_) => {
                                failed.store(true, Ordering::Release);
                                break;
                            }
                        }
                        let v0 = Instant::now();
                        let ok = table.verify_chunk(i, dst);
                        verify_nanos.fetch_add(v0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                        if !ok {
                            failed.store(true, Ordering::Release);
                            break;
                        }
                        done += n;
                        debug_assert_eq!(off, run_base + (done as u64 - n as u64));
                    }
                    if done > 0 && ctx.telemetry.is_enabled() {
                        ctx.telemetry.actor_span_split(
                            ctx.span,
                            &format!("reader-{r}"),
                            actor_start,
                            done as u64,
                            media_nanos,
                        );
                    }
                });
            }
        });

        FetchReport {
            ok: !failed.load(Ordering::Acquire),
            verify_nanos: verify_nanos.into_inner(),
            upload_nanos: 0,
        }
    }

    /// Table path, streaming: readers claim chunk indices from a shared
    /// counter, read into pooled scratch, verify inline, and deliver
    /// straight to the sink — no ordering, no assembly.
    fn fetch_table_sink(
        &self,
        ctx: PipelineCtx<'_>,
        meta: &CheckMeta,
        table: &ChunkDigestTable,
        sink: &dyn RestoreSink,
    ) -> FetchReport {
        let base = self.store.slot_payload_offset(meta.slot);
        let count = table.digests.len();
        let readers = self.readers.min(count).max(1);
        let pool = self.scratch_pool(table.chunk_len.min(table.payload_len));
        let next = AtomicUsize::new(0);
        let failed = AtomicBool::new(false);
        let verify_nanos = AtomicU64::new(0);
        let upload_nanos = AtomicU64::new(0);

        std::thread::scope(|s| {
            for r in 0..readers {
                let next = &next;
                let failed = &failed;
                let verify_nanos = &verify_nanos;
                let upload_nanos = &upload_nanos;
                let pool = &pool;
                s.spawn(move || {
                    let actor_start = ctx.telemetry.now_nanos();
                    let mut actor_bytes = 0u64;
                    let mut media_nanos = 0u64;
                    loop {
                        if failed.load(Ordering::Acquire) {
                            break;
                        }
                        // Acquire scratch *before* claiming an index so the
                        // lowest in-flight chunk always owns a buffer.
                        let mut buf = pool.acquire();
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            break;
                        }
                        let (off, len) = table.chunk_range(i);
                        let n = usize::try_from(len).expect("chunk fits");
                        let data = &mut buf.as_mut_slice()[..n];
                        match self.read_chunk(ctx, base + off, off, data) {
                            Ok(media) => media_nanos += media,
                            Err(_) => {
                                failed.store(true, Ordering::Release);
                                break;
                            }
                        }
                        let v0 = Instant::now();
                        let ok = table.verify_chunk(i, data);
                        verify_nanos.fetch_add(v0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                        if !ok {
                            failed.store(true, Ordering::Release);
                            break;
                        }
                        let u0 = Instant::now();
                        sink.put(off, data);
                        upload_nanos.fetch_add(u0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                        ctx.telemetry
                            .chunk(ctx.span, Phase::RestoreUpload, off, len);
                        actor_bytes += len;
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

        FetchReport {
            ok: !failed.load(Ordering::Acquire),
            verify_nanos: verify_nanos.into_inner(),
            upload_nanos: upload_nanos.into_inner(),
        }
    }

    /// Legacy path for slots without a digest table: both whole-payload
    /// digest disciplines are order-dependent folds, so reads fan out
    /// across the readers while one verifier folds completed chunks in
    /// payload order — verification of chunk `i` overlaps the read of
    /// chunk `i+1`.
    fn fetch_legacy(
        &self,
        ctx: PipelineCtx<'_>,
        meta: &CheckMeta,
        deliver: &(dyn Fn(u64, &[u8]) + Sync),
    ) -> FetchReport {
        let total = meta.payload_len;
        let base = self.store.slot_payload_offset(meta.slot);
        let chunk = self.chunk.as_u64();
        let count = usize::try_from(total.div_ceil(chunk)).expect("chunk count fits");
        let readers = self.readers.min(count.max(1));
        let failed = AtomicBool::new(false);
        let mut verify_nanos = 0u64;
        let mut h_state = FNV_SEED ^ meta.iteration;
        let mut h_raw = FNV_SEED;
        let mut folded = 0usize;

        if count > 0 {
            let pool = self.scratch_pool(chunk.min(total));
            let next = AtomicUsize::new(0);
            let (tx, rx) = sync_channel::<(usize, usize, HostBuffer)>(pool.total_chunks());
            std::thread::scope(|s| {
                for r in 0..readers {
                    let tx = tx.clone();
                    let next = &next;
                    let failed = &failed;
                    let pool = &pool;
                    s.spawn(move || {
                        let actor_start = ctx.telemetry.now_nanos();
                        let mut actor_bytes = 0u64;
                        let mut media_nanos = 0u64;
                        loop {
                            if failed.load(Ordering::Acquire) {
                                break;
                            }
                            // Acquire before claiming: the lowest unfolded
                            // chunk always holds a buffer, so the verifier can
                            // always make progress and return buffers.
                            let mut buf = pool.acquire();
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= count {
                                break;
                            }
                            let off = i as u64 * chunk;
                            let n = usize::try_from(chunk.min(total - off)).expect("chunk fits");
                            match self.read_chunk(
                                ctx,
                                base + off,
                                off,
                                &mut buf.as_mut_slice()[..n],
                            ) {
                                Ok(media) => media_nanos += media,
                                Err(_) => {
                                    failed.store(true, Ordering::Release);
                                    break;
                                }
                            }
                            if tx.send((i, n, buf)).is_err() {
                                break;
                            }
                            actor_bytes += n as u64;
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
                drop(tx);
                // Verifier: fold in payload order, buffering the odd
                // out-of-order arrival.
                let mut pending: BTreeMap<usize, (usize, HostBuffer)> = BTreeMap::new();
                while let Ok((i, n, buf)) = rx.recv() {
                    pending.insert(i, (n, buf));
                    while let Some((n, buf)) = pending.remove(&folded) {
                        let data = &buf.as_slice()[..n];
                        let v0 = Instant::now();
                        h_state = fnv1a_fold(h_state, data);
                        h_raw = fnv1a_fold(h_raw, data);
                        verify_nanos += v0.elapsed().as_nanos() as u64;
                        deliver(folded as u64 * chunk, data);
                        folded += 1;
                    }
                }
            });
        }

        let ok = !failed.load(Ordering::Acquire)
            && folded == count
            && (h_state == meta.digest || h_raw == meta.digest);
        FetchReport {
            ok,
            verify_nanos,
            upload_nanos: 0,
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
    /// an older candidate, like every other verification failure.
    pub fn fetch_framed(
        &self,
        ctx: PipelineCtx<'_>,
        meta: &CheckMeta,
        candidates: &[CheckMeta],
    ) -> Option<(Vec<u8>, u64)> {
        let payload = self.read_slot(ctx, meta)?;
        decode_frame(&payload, meta, &mut |counter, slot| {
            let base = candidates
                .iter()
                .find(|c| c.counter == counter && c.slot == slot)?;
            Some((*base, self.read_slot(ctx, base)?))
        })
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
/// [`RestoreTarget`] as they verify (no full-payload DRAM image), framed
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
    pipeline.probe(&candidates, options.probe);

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
            let out = pipeline.fetch_framed(ctx, meta, &candidates);
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
                    let mut report = pipeline.fetch_into_sink(ctx, meta, &target);
                    if report.ok {
                        let u0 = Instant::now();
                        target.finish(meta.iteration);
                        report.upload_nanos += u0.elapsed().as_nanos() as u64;
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
    use pccheck_gpu::{GpuConfig, TrainingState};
    use pccheck_telemetry::SpanId;

    use crate::meta::checksum;
    use crate::pipeline::{DeltaPolicy, PersistPipeline};

    fn ctx(telemetry: &Telemetry) -> PipelineCtx<'_> {
        PipelineCtx {
            telemetry,
            span: SpanId::NONE,
        }
    }

    /// Formats a store over a fresh SSD and commits `n` raw-checksum
    /// checkpoints of `payload_bytes` each, writing a per-chunk digest
    /// table (`chunk_len`-grained) when `tabled`.
    fn raw_store(
        n: u64,
        payload_bytes: u64,
        chunk_len: u64,
        tabled: bool,
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
            let digest = checksum(&payload);
            if tabled {
                let slot_id = lease.slot;
                let table = ChunkDigestTable::build(&payload, chunk_len, lease.counter, digest);
                assert!(store.write_digest_table(slot_id, &table).unwrap());
            }
            store.commit(lease, i, payload_bytes, digest).unwrap();
            payloads.push(payload);
        }
        (ssd, store, payloads)
    }

    /// Drives `iters` full checkpoints of a synthetic GPU state through the
    /// persist pipeline (which writes per-chunk digest tables), returning
    /// the device, the store, and the GPU at its final state.
    fn gpu_store(
        iters: u64,
        bytes: u64,
        chunk: u64,
    ) -> (Arc<SsdDevice>, Arc<CheckpointStore>, Gpu) {
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
        for iter in 1..=iters {
            gpu.update();
            let guard = gpu.lock_weights_shared_owned();
            let digest = guard.digest().0;
            let lease = pipeline.lease(ctx);
            let persist_start = pipeline
                .copy_chunks(ctx, &guard, &lease, total, true)
                .unwrap();
            drop(guard);
            pipeline
                .seal(ctx, &lease, iter, total, persist_start)
                .unwrap();
            pipeline
                .commit(ctx, lease, iter, total.as_u64(), digest)
                .unwrap();
        }
        (ssd, store, gpu)
    }

    #[test]
    fn parallel_fetch_matches_sequential_with_digest_table() {
        // 16 KiB slot → 4-chunk digest capacity; 4 KiB chunks fill it.
        let (_ssd, store, payloads) = raw_store(2, 16 * 1024, 4096, true);
        let meta = store.latest_committed().unwrap();
        assert!(
            store.read_digest_table(&meta).is_some(),
            "digest table is present, so the table path is exercised"
        );
        let telemetry = Telemetry::disabled();
        let seq = RestorePipeline::new(Arc::clone(&store))
            .with_readers(1)
            .fetch_verified(ctx(&telemetry), &meta)
            .unwrap();
        let par = RestorePipeline::new(Arc::clone(&store))
            .with_readers(4)
            .fetch_verified(ctx(&telemetry), &meta)
            .unwrap();
        assert_eq!(seq, payloads[1]);
        assert_eq!(par, payloads[1], "parallel read is bit-identical");
    }

    #[test]
    fn parallel_fetch_emits_reader_actor_spans() {
        // 4 chunks, 4 readers → one run per reader, 4 KiB each.
        let (_ssd, store, _payloads) = raw_store(1, 16 * 1024, 4096, true);
        let meta = store.latest_committed().unwrap();
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
        assert_eq!(spans.len(), 4, "one actor span per reader run: {spans:?}");
        assert!(spans.iter().all(|(a, _)| a.starts_with("reader-")));
        let total: u64 = spans.iter().map(|(_, b)| b).sum();
        assert_eq!(total, 16 * 1024, "reader spans account for every byte");
    }

    #[test]
    fn legacy_slot_without_table_verifies_via_ordered_fold() {
        let (_ssd, store, payloads) = raw_store(1, 16 * 1024, 4096, false);
        let meta = store.latest_committed().unwrap();
        assert!(store.read_digest_table(&meta).is_none());
        let telemetry = Telemetry::enabled();
        let span = telemetry.span_requested("restore", 1, meta.payload_len);
        let got = RestorePipeline::new(Arc::clone(&store))
            .with_readers(4)
            .with_read_chunk(ByteSize::from_bytes(1024))
            .fetch_verified(
                PipelineCtx {
                    telemetry: &telemetry,
                    span,
                },
                &meta,
            )
            .unwrap();
        assert_eq!(got, payloads[0]);
        // The overlapped fold really ran chunk-wise: every byte was read
        // through the restore-read stage.
        let snap = telemetry.snapshot().unwrap();
        assert_eq!(snap.restore_chunk_bytes, 16 * 1024);
        assert!(snap.phase(Phase::RestoreRead).count >= 1);
        assert!(snap.phase(Phase::RestoreVerify).count >= 1);
    }

    #[test]
    fn corrupt_payload_is_rejected_by_the_table_path() {
        let (ssd, store, _payloads) = raw_store(1, 16 * 1024, 4096, true);
        let meta = store.latest_committed().unwrap();
        let off = store.slot_payload_offset(meta.slot) + 9000;
        ssd.write_at(off, b"!").unwrap();
        ssd.persist(off, 1).unwrap();
        let telemetry = Telemetry::disabled();
        let got = RestorePipeline::new(Arc::clone(&store))
            .with_readers(4)
            .fetch_verified(ctx(&telemetry), &meta);
        assert!(got.is_none(), "per-chunk verification caught the flip");
    }

    #[test]
    fn torn_digest_table_degrades_to_whole_payload_verification() {
        let (ssd, store, payloads) = raw_store(1, 16 * 1024, 4096, true);
        let meta = store.latest_committed().unwrap();
        // Tear the table's trailing CRC; the payload itself is intact.
        let table_off = store.slot_digest_offset(meta.slot).unwrap();
        let tear = table_off + ChunkDigestTable::encoded_len_for(4) - 1;
        let mut b = [0u8; 1];
        ssd.read_durable_at(tear, &mut b).unwrap();
        b[0] ^= 0xFF;
        ssd.write_at(tear, &b).unwrap();
        ssd.persist(tear, 1).unwrap();
        assert!(store.read_digest_table(&meta).is_none(), "table is torn");
        let telemetry = Telemetry::disabled();
        let got = RestorePipeline::new(Arc::clone(&store))
            .with_readers(4)
            .fetch_verified(ctx(&telemetry), &meta)
            .unwrap();
        assert_eq!(got, payloads[0], "fold path still verifies the payload");
    }

    #[test]
    fn read_fault_on_newest_falls_back_instead_of_erroring() {
        let (ssd, store, payloads) = raw_store(2, 16 * 1024, 4096, true);
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
        let (ssd, store, _payloads) = raw_store(2, 16 * 1024, 4096, false);
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
        // 16 KiB state, 4 KiB pipeline chunks → the persist side wrote a
        // digest table, so restore streams through the table sink path.
        let (ssd, store, gpu) = gpu_store(2, 16 * 1024, 4096);
        let want = gpu.digest();
        let meta = store.latest_committed().unwrap();
        assert!(store.read_digest_table(&meta).is_some());
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
            let digest = guard.digest();
            persist
                .checkpoint_framed(pctx, &guard, iter, digest.0, DeltaPolicy::default())
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

    #[test]
    fn probe_prefetches_tables_for_the_newest_candidates() {
        let (ssd, store, _payloads) = raw_store(2, 16 * 1024, 4096, true);
        let pipeline = RestorePipeline::new(Arc::clone(&store)).with_readers(2);
        let mut candidates = store.history().unwrap();
        candidates.reverse();
        pipeline.probe(&candidates, 2);
        let reads = ssd.stats().read_ops();
        // Cached: table_for answers without touching the device.
        for meta in &candidates {
            assert!(pipeline.table_for(meta).is_some());
        }
        assert_eq!(ssd.stats().read_ops(), reads);
    }
}
