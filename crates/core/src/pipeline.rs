//! The shared persist pipeline: chunk → write → fence → commit.
//!
//! Every storage-backed strategy in this repository — the PCcheck engine
//! and the traditional/CheckFreq/GPM baselines — moves checkpoint bytes
//! through the same four mechanical stages: slice the snapshot into
//! chunks, write each chunk into a leased slot, fence it durable, and run
//! the store's lock-free commit (meta publish → durable `Committed`
//! state word → `fetch_max` head advance — never a mutex across device
//! I/O). What *differs* between strategies is pure
//! scheduling policy: when the training thread stalls, how many
//! concurrency tickets exist, whether the copier runs inline or on a
//! background thread, and whether fences are issued per writer (PMEM) or
//! deferred into one `msync` (SSD).
//!
//! [`PersistPipeline`] owns the mechanism so the strategies reduce to
//! policy. It also owns the pipeline's telemetry: per-chunk write/persist
//! stage latencies ([`Telemetry::stage_write`] /
//! [`Telemetry::stage_persist`]) and the per-device submission-queue
//! gauges sampled from [`PersistentDevice::queue_depths`] — including
//! every member of a striped or tiered composite device.
//!
//! # Who waits for what
//!
//! *The weights are held for the memcpy — not for the digest, not for the
//! persist.* A chunk copy verb takes its [`SnapshotSource`] by value and
//! drops it the moment the last chunk is staged in DRAM, and staging a
//! chunk is one `copy_range_to_host` into a pooled buffer; everything after
//! — fold, classify, compress, write, fence — runs with training already
//! unblocked, so the work of up to `N` checkpoints overlaps. It all runs on
//! one resident writer pool (`writers()` wide, shared by every clone of the
//! pipeline) that serves a tenant's oldest checkpoint first (see
//! `pool.rs`), taking the QoS grant per chunk.
//!
//! *The state digest folds out of order, on that pool.* It is a fold over
//! per-block values ([`pccheck_util::fnv`]), so each chunk's pool job first
//! files the values of the blocks its chunk wholly covers into the
//! checkpoint's block table — for a frame it also takes the chunk's content
//! address in the same pass — and then goes on to what it was queued for.
//! The coordinator folds the table once its batch has drained. A block cut
//! by a chunk boundary is whole in no job; the staging producer, which sees
//! the bytes in order, carries the head of the one open block (at most a
//! block of bytes) and files it when a later chunk closes it — the restore
//! executor's cut-block rule (DESIGN §9) from the producer's side: one
//! rule, nothing to do on an aligned geometry, no branch on geometry.
//!
//! Three rules keep that free of deadlock:
//!
//! 1. *A pool worker never waits on another job.* Folds, compressions and
//!    writes are the only pool jobs and none blocks on the pool; the
//!    thread that fans a checkpoint out and waits for it (the caller of a
//!    copy verb — the engine's coordinator) is never a pool worker.
//! 2. *Whoever must hold a whole snapshot reserves it in one step.*
//!    `copy_framed` and the staged `copy_chunks` take all their chunks
//!    with one [`HostBufferPool::acquire_many`], so two of them can never
//!    each hold half a pool. The streaming `copy_chunks` may hold a
//!    partial set, because every chunk it holds is already a queued,
//!    self-contained write that frees its buffer when it runs.
//! 3. *A failed checkpoint cleans up before it reports.* The first error
//!    cancels the checkpoint's queued jobs (their buffers go back
//!    unwritten), the producer stops and releases the weights, and the
//!    verb returns only once every job it queued has run or been
//!    cancelled — so no job outlives the lease it writes under, and the
//!    pool is as usable afterwards as before.
//!
//! [`PersistentDevice::queue_depths`]: pccheck_device::PersistentDevice::queue_depths

use std::any::Any;
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use pccheck_util::sync::{Condvar, Mutex};

use pccheck_device::{HostBuffer, HostBufferPool};
use pccheck_gpu::{SnapshotSource, StateDigest};
use pccheck_telemetry::{FlightEventKind, Phase, SpanId, Telemetry};
use pccheck_util::fnv::{
    block_digests, chunk_digest, fold_blocks, whole_blocks, StateFold, DIGEST_BLOCK,
};
use pccheck_util::ByteSize;

use crate::codec::{compress_gated, ChunkEncoding, DedupHome, DedupIndex, FrameRecord, FrameTable};
use crate::error::PccheckError;
use crate::meta::DeltaLink;
use crate::pool::{Order, WorkerPool};
use crate::qos::QosArbiter;
use crate::store::{CheckpointStore, CommitOutcome, JobId, Namespace, SlotLease};

/// Tile size for the GPU-kernel write-through loop (kernel grids move data
/// in bounded tiles; GPM's SSD/PMEM adaptation).
pub const KERNEL_COPY_CHUNK: usize = 4 * 1024 * 1024;

/// How payload fences are issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FenceMode {
    /// Each writer persists the chunks it wrote (required on PMEM, where
    /// fences are per-thread — §4.1).
    PerWriter,
    /// Writers only write; the coordinator issues one deferred fence over
    /// the whole payload in [`PersistPipeline::seal`] (the SSD `msync`
    /// optimization).
    Deferred,
}

/// How far a chain of pinned dedup bases may grow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeltaPolicy {
    /// Deepest chain a framed checkpoint may commit at. A chunk whose home
    /// already sits at this depth is materialized again instead of
    /// referenced, bounding how many slots a chain pins.
    /// [`copy_framed`](PersistPipeline::copy_framed) clamps it further to
    /// the lease's slot budget minus two, so a committed chain always
    /// leaves a slot free.
    pub max_chain: u32,
}

impl Default for DeltaPolicy {
    fn default() -> Self {
        DeltaPolicy { max_chain: 7 }
    }
}

/// Rolled-up outcome of [`PersistPipeline::checkpoint_framed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FramedOutcome {
    /// A framed payload (frame table + packed chunks) was persisted.
    Framed {
        /// Physical bytes in the slot (table + packed chunks).
        payload_len: u64,
        /// Bytes the codec avoided persisting.
        saved_bytes: u64,
        /// Chunks stored as dedup references.
        dedup_chunks: u64,
    },
    /// The codec saved nothing (or was inapplicable) and the payload was
    /// persisted raw.
    Raw,
}

/// Telemetry context for one checkpoint's trip through the pipeline.
#[derive(Clone, Copy)]
pub struct PipelineCtx<'a> {
    /// The recording handle (may be disabled: every hook no-ops).
    pub telemetry: &'a Telemetry,
    /// The checkpoint's span.
    pub span: SpanId,
}

/// One staged chunk: a pooled DRAM buffer and how much of it is payload.
/// Clones share the buffer — the coordinator keeps one while pool jobs
/// digest, compress or write theirs — and the last one dropped hands it
/// back to the pool.
#[derive(Clone)]
struct StagedChunk {
    buf: Arc<HostBuffer>,
    len: usize,
}

impl AsRef<[u8]> for StagedChunk {
    fn as_ref(&self) -> &[u8] {
        &self.buf.as_slice()[..self.len]
    }
}

/// The state digest of one snapshot, gathered out of order: block values by
/// block index, filed by whoever had the block's bytes in hand and folded
/// by the coordinator once the checkpoint's batch has drained (module docs,
/// "Who waits for what"). Same definition as [`StateFold`] — it is
/// [`fold_blocks`] over [`block_digests`] — without its order.
struct BlockValues {
    step: u64,
    len: u64,
    /// Relaxed throughout: every job hands the batch's mutex to
    /// [`Batch::wait`], which orders the stores before the fold's loads.
    cells: Vec<AtomicU64>,
}

impl BlockValues {
    fn of(src: &impl SnapshotSource, total: ByteSize) -> Arc<Self> {
        let blocks = total.as_u64().div_ceil(DIGEST_BLOCK as u64);
        Arc::new(BlockValues {
            step: src.step_count(),
            len: total.as_u64(),
            cells: (0..blocks).map(|_| AtomicU64::new(0)).collect(),
        })
    }

    /// A chunk's pool job: files the values of the blocks `chunk`, staged
    /// from offset `off`, wholly covers.
    fn file_whole(&self, off: u64, chunk: &[u8]) {
        let (head, whole) = whole_blocks(off, chunk.len(), self.len);
        let first = (off + head as u64) / DIGEST_BLOCK as u64;
        let values = block_digests(&chunk[head..head + whole]);
        for (cell, value) in self.cells[first as usize..].iter().zip(values) {
            cell.store(value, Ordering::Relaxed);
        }
    }

    /// The producer's share, as `chunk` goes by: the blocks a chunk
    /// boundary cuts, which no job sees whole. `open` carries the head of
    /// the one such block that is open between two chunks — never more
    /// than a block of bytes, and none at all on an aligned geometry.
    fn file_cut(&self, open: &mut Vec<u8>, off: u64, chunk: &[u8]) {
        let (head, whole) = whole_blocks(off, chunk.len(), self.len);
        open.extend_from_slice(&chunk[..head]);
        if open.len() == DIGEST_BLOCK || (head > 0 && off + head as u64 == self.len) {
            let cell = &self.cells[(off / DIGEST_BLOCK as u64) as usize];
            cell.store(chunk_digest(open), Ordering::Relaxed);
            open.clear();
        }
        open.extend_from_slice(&chunk[head + whole..]);
    }

    /// The digest, once every block has been filed.
    fn fold(&self) -> StateDigest {
        let values = self.cells.iter().map(|cell| cell.load(Ordering::Relaxed));
        StateDigest(fold_blocks(self.step, self.len, values))
    }
}

/// How [`PersistPipeline::stage`] takes its DRAM (module docs, rule 2).
enum Reserve<'a> {
    /// The whole snapshot in one step, for a caller that keeps every chunk
    /// until the last is staged.
    Whole,
    /// Chunk by chunk, waiting when DRAM is scarce: every chunk held is a
    /// write queued on this batch, which frees it. Staging stops when the
    /// batch aborts.
    Streaming(&'a Batch),
}

/// The part of a lease a chunk write needs. `Copy`, so a queued job can
/// own it while the lease itself stays with the coordinator that will
/// commit it.
#[derive(Debug, Clone, Copy)]
struct SlotRef {
    slot: u32,
    tenant: JobId,
    counter: u64,
}

impl SlotRef {
    fn of(lease: &SlotLease) -> Self {
        SlotRef {
            slot: lease.slot,
            tenant: lease.job(),
            counter: lease.counter,
        }
    }
}

/// What moves one chunk onto the device: the store, the fence mode and the
/// QoS arbiter. Split from the pipeline so a queued job can own a clone —
/// a job must not hold the pipeline itself, or the last job to finish
/// could be the one that drops (and then joins) the pool it runs on.
#[derive(Debug, Clone)]
struct ChunkIo {
    store: Arc<CheckpointStore>,
    fence: FenceMode,
    /// Bandwidth arbiter gating chunk writes when several jobs multiplex
    /// this pipeline (service mode). `None` = no arbitration.
    qos: Option<Arc<QosArbiter>>,
}

impl ChunkIo {
    /// Writes one payload chunk, feeding the write-stage histogram and the
    /// per-device submission-queue gauges. Returns the nanoseconds spent in
    /// the device call (media time, for the writer's queue-wait split).
    fn write_chunk(
        &self,
        ctx: PipelineCtx<'_>,
        slot: u32,
        offset: u64,
        data: &[u8],
    ) -> Result<u64, PccheckError> {
        let start = ctx.telemetry.now_nanos();
        self.store.write_slot(slot, offset, data)?;
        let mut media = 0;
        if ctx.telemetry.is_enabled() {
            media = ctx.telemetry.now_nanos().saturating_sub(start);
            ctx.telemetry.stage_write(media);
            self.sample_device_queues(ctx);
        }
        Ok(media)
    }

    /// Fences one payload range, feeding the persist-stage histogram.
    /// Returns the nanoseconds spent in the device call (media time).
    fn persist_chunk(
        &self,
        ctx: PipelineCtx<'_>,
        slot: u32,
        offset: u64,
        len: u64,
    ) -> Result<u64, PccheckError> {
        let start = ctx.telemetry.now_nanos();
        self.store.persist_slot(slot, offset, len)?;
        let mut media = 0;
        if ctx.telemetry.is_enabled() {
            media = ctx.telemetry.now_nanos().saturating_sub(start);
            ctx.telemetry.stage_persist(media);
        }
        Ok(media)
    }

    /// Samples the device's submission queues into the per-device gauges
    /// and, when a QoS arbiter is attached, feeds the summed depth into
    /// its backpressure cap. Composite devices report the controller at
    /// index 0 and each member after it.
    fn sample_device_queues(&self, ctx: PipelineCtx<'_>) {
        if self.qos.is_none() && !ctx.telemetry.is_enabled() {
            return;
        }
        let depths = self.store.device().queue_depths();
        if let Some(q) = &self.qos {
            q.observe_queue_depth(depths.iter().copied().sum());
        }
        if !ctx.telemetry.is_enabled() {
            return;
        }
        for (i, depth) in depths.iter().enumerate() {
            ctx.telemetry.gauge_device_queue(i, *depth);
        }
    }

    /// Writes one chunk and, in [`FenceMode::PerWriter`], fences it; emits
    /// the per-chunk `Persist` telemetry either way (in deferred mode the
    /// fence follows in [`PersistPipeline::seal`]).
    fn write_and_fence_chunk(
        &self,
        ctx: PipelineCtx<'_>,
        at: SlotRef,
        offset: u64,
        data: &[u8],
    ) -> Result<u64, PccheckError> {
        // Held across write + fence: the grant is the writer-pool lease
        // the WDRR arbiter schedules.
        let _grant = self
            .qos
            .as_ref()
            .map(|q| q.acquire(at.tenant, data.len() as u64));
        let mut media = self.write_chunk(ctx, at.slot, offset, data)?;
        if self.fence == FenceMode::PerWriter {
            media += self.persist_chunk(ctx, at.slot, offset, data.len() as u64)?;
        }
        ctx.telemetry
            .chunk(ctx.span, Phase::Persist, offset, data.len() as u64);
        Ok(media)
    }
}

/// Why a [`Batch`] stopped early.
enum Failure {
    Error(PccheckError),
    /// A job unwound (say, the QoS starvation assert): re-raised on the
    /// thread that waits for the batch.
    Panic(Box<dyn Any + Send>),
}

#[derive(Default)]
struct BatchState {
    /// Jobs submitted and not yet run or cancelled.
    pending: usize,
    failure: Option<Failure>,
    /// Per pool worker: `(bytes moved, busy nanos)` for this batch — busy
    /// in a device call or computing on a chunk (fold, content address,
    /// LZ), so only what is left of a leg is time it spent queued.
    legs: Vec<(u64, u64)>,
}

/// One checkpoint's fan-out onto the writer pool: the jobs a copy verb
/// queued, the first failure among them, and what each worker moved. The
/// verb's thread submits, then [`wait`](Batch::wait)s; the jobs own an
/// `Arc` of the batch and nothing of the pipeline.
struct Batch {
    io: ChunkIo,
    telemetry: Telemetry,
    span: SpanId,
    at: SlotRef,
    opened_nanos: u64,
    /// Set by the first failure: queued jobs are cancelled, and the
    /// producer polls it to stop copying.
    abort: AtomicBool,
    state: Mutex<BatchState>,
    drained: Condvar,
}

impl Batch {
    fn open(io: &ChunkIo, ctx: PipelineCtx<'_>, lease: &SlotLease) -> Arc<Batch> {
        Arc::new(Batch {
            io: io.clone(),
            telemetry: ctx.telemetry.clone(),
            span: ctx.span,
            at: SlotRef::of(lease),
            opened_nanos: ctx.telemetry.now_nanos(),
            abort: AtomicBool::new(false),
            state: Mutex::new(BatchState::default()),
            drained: Condvar::new(),
        })
    }

    fn ctx(&self) -> PipelineCtx<'_> {
        PipelineCtx {
            telemetry: &self.telemetry,
            span: self.span,
        }
    }

    fn aborted(&self) -> bool {
        self.abort.load(Ordering::Acquire)
    }

    /// Queues `work` on `workers` at this checkpoint's place in the order.
    /// It returns the `(bytes moved, busy nanos)` of its leg; it is dropped
    /// unrun if the batch has aborted by the time a worker reaches it.
    fn submit(
        self: &Arc<Self>,
        workers: &WorkerPool,
        work: impl FnOnce(&Batch) -> Result<(u64, u64), PccheckError> + Send + 'static,
    ) {
        self.state.lock().pending += 1;
        let batch = Arc::clone(self);
        let order = Order {
            tenant: self.at.tenant,
            counter: self.at.counter,
        };
        workers.submit(
            order,
            Box::new(move |w| {
                // Whatever `work` owns (a staged buffer, a share of the
                // snapshot) is released before the job is counted done, so
                // a drained batch has given all of it back.
                let outcome = if batch.aborted() {
                    drop(work);
                    Ok(Ok((0, 0)))
                } else {
                    catch_unwind(AssertUnwindSafe(|| work(&batch)))
                };
                batch.complete(w, outcome);
            }),
        );
    }

    /// Runs `compute`, timing it for the leg's busy figure (0 with
    /// telemetry off, like every other timestamp).
    fn busy<T>(&self, compute: impl FnOnce() -> T) -> (T, u64) {
        let start = self.telemetry.now_nanos();
        let out = compute();
        (out, self.telemetry.now_nanos().saturating_sub(start))
    }

    /// Queues the write (and, per the fence mode, the fence) of `data` at
    /// payload offset `offset`, under the tenant's per-chunk QoS grant.
    /// With `fold`, `data` is the raw chunk staged from that offset and
    /// the job first files its block values, while it is the one thing the
    /// worker has in cache.
    fn write<D: AsRef<[u8]> + Send + 'static>(
        self: &Arc<Self>,
        workers: &WorkerPool,
        offset: u64,
        data: D,
        fold: Option<&Arc<BlockValues>>,
    ) {
        let fold = fold.cloned();
        self.submit(workers, move |batch| {
            let bytes = data.as_ref();
            let folding = fold.map_or(0, |blocks| {
                batch.busy(|| blocks.file_whole(offset, bytes)).1
            });
            let media = batch
                .io
                .write_and_fence_chunk(batch.ctx(), batch.at, offset, bytes)?;
            Ok((bytes.len() as u64, folding + media))
        });
    }

    fn complete(&self, w: usize, outcome: std::thread::Result<Result<(u64, u64), PccheckError>>) {
        let mut state = self.state.lock();
        let failure = match outcome {
            Ok(Ok((bytes, busy))) => {
                if state.legs.len() <= w {
                    state.legs.resize(w + 1, (0, 0));
                }
                state.legs[w].0 += bytes;
                state.legs[w].1 += busy;
                None
            }
            Ok(Err(e)) => Some(Failure::Error(e)),
            Err(payload) => Some(Failure::Panic(payload)),
        };
        if let Some(failure) = failure {
            self.abort.store(true, Ordering::Release);
            state.failure.get_or_insert(failure);
        }
        state.pending -= 1;
        if state.pending == 0 {
            self.drained.notify_all();
        }
    }

    /// Blocks until every job submitted so far has run or been cancelled,
    /// reports one `writer-{w}` actor span per worker that worked for the
    /// batch (opened when the batch was), and surfaces the first failure.
    ///
    /// # Errors
    ///
    /// The first error any job returned.
    fn wait(&self) -> Result<(), PccheckError> {
        let mut state = self.state.lock();
        while state.pending > 0 {
            state = self.drained.wait(state);
        }
        let legs = std::mem::take(&mut state.legs);
        let failure = state.failure.take();
        drop(state);
        if self.telemetry.is_enabled() {
            for (w, &(bytes, busy)) in legs.iter().enumerate() {
                if bytes > 0 || busy > 0 {
                    self.telemetry.actor_span_split(
                        self.span,
                        &format!("writer-{w}"),
                        self.opened_nanos,
                        bytes,
                        busy,
                    );
                }
            }
        }
        match failure {
            None => Ok(()),
            Some(Failure::Error(e)) => Err(e),
            Some(Failure::Panic(payload)) => resume_unwind(payload),
        }
    }
}

/// The shared chunk-scheduled I/O layer over a [`CheckpointStore`].
///
/// Cloning is cheap: clones share the store, the DRAM staging pool and the
/// resident writer pool, so a strategy may hand a clone to a background
/// persist thread. The writer threads are joined when the last clone
/// drops.
#[derive(Debug, Clone)]
pub struct PersistPipeline {
    io: ChunkIo,
    pool: Option<HostBufferPool>,
    /// The resident writer pool (`p` workers in the paper), shared across
    /// clones and by every checkpoint in flight. Its width is the knob the
    /// online controller retunes between checkpoints.
    workers: Arc<WorkerPool>,
    /// Chunk codec + dedup state, shared across clones (the controller
    /// toggles `enabled`; the dedup index survives across checkpoints).
    codec: Arc<CodecState>,
}

/// Shared chunk-codec state: the on/off switch the controller flips and
/// the content-addressed index of chunk homes as of each job's latest
/// framed commit.
#[derive(Debug, Default)]
struct CodecState {
    enabled: AtomicBool,
    dedup: Mutex<DedupIndex>,
}

/// What a copy verb left in the leased slot: the argument of
/// [`seal`](PersistPipeline::seal) and [`commit`](PersistPipeline::commit).
#[derive(Debug, Clone)]
pub struct Copied {
    /// Persist-phase start timestamp `seal` closes the phase against (the
    /// whole-buffer and write-through verbs close their own).
    pub persist_start: u64,
    /// Physical bytes in the slot (for a frame: table + packed chunks).
    pub payload_len: u64,
    /// End-to-end digest of the logical state, computed from the bytes the
    /// verb staged (the chunk verbs fold it on the writer pool): exactly
    /// [`pccheck_gpu::Gpu::digest`] of the snapshot. A raw commit records
    /// it; a frame's table carries it.
    pub state_digest: StateDigest,
    /// The frame [`copy_framed`](PersistPipeline::copy_framed) packed;
    /// `None` for a raw payload.
    pub frame: Option<FramedPlan>,
}

/// The frame half of what [`PersistPipeline::copy_framed`] persisted, for
/// [`PersistPipeline::commit`] to bind to the commit record.
#[derive(Debug, Clone)]
pub struct FramedPlan {
    /// Checksum of the serialized frame table (the framed slot's meta
    /// digest: it binds the table, and through it every chunk, to the
    /// commit).
    pub payload_digest: u64,
    /// Back-pointer to the youngest home any chunk references — its chain
    /// pins every other home the frame names. Present iff any chunk
    /// deduplicated against an earlier checkpoint.
    pub link: Option<DeltaLink>,
    /// Logical (uncompressed) payload length.
    pub logical_len: u64,
    /// Bytes the codec avoided persisting (`logical - physical`).
    pub saved_bytes: u64,
    /// Chunks stored as dedup references instead of materialized bytes.
    pub dedup_chunks: u64,
    /// The frame table as persisted.
    pub table: FrameTable,
    /// The next dedup generation, `(digest, home)`: this frame's
    /// materialized chunks homed at itself plus every base hit it took,
    /// carried forward unchanged. Commit installs it.
    pub homes: Vec<(u64, DedupHome)>,
}

impl PersistPipeline {
    /// A single-writer, per-writer-fence pipeline over `store` with no
    /// DRAM staging pool (whole-buffer strategies).
    pub fn new(store: Arc<CheckpointStore>) -> Self {
        PersistPipeline {
            io: ChunkIo {
                store,
                fence: FenceMode::PerWriter,
                qos: None,
            },
            pool: None,
            workers: Arc::new(WorkerPool::new("pccheck-writer", 1)),
            codec: Arc::new(CodecState::default()),
        }
    }

    /// Sets the number of parallel writer threads (`p` in the paper).
    pub fn with_writers(self, writers: usize) -> Self {
        self.set_writers(writers);
        self
    }

    /// Retunes the writer-pool width online, for every clone and every
    /// checkpoint in flight: queued chunks are never dropped, a shrink
    /// waits for each retired writer to finish the chunk in its hands
    /// (so it must not be called from a pool job), a growth starts its
    /// threads with the next chunk queued.
    pub fn set_writers(&self, writers: usize) {
        self.workers.set_width(writers);
    }

    /// The current writer-pool width.
    pub fn writers(&self) -> usize {
        self.workers.width()
    }

    /// Enables or disables the chunk codec at build time.
    pub fn with_codec(self, enabled: bool) -> Self {
        self.set_codec_enabled(enabled);
        self
    }

    /// Flips the chunk codec online (the controller's switch). Disabling
    /// also drops the dedup index: re-enabling starts from a cold index
    /// rather than trusting generations whose age is unknown.
    pub fn set_codec_enabled(&self, enabled: bool) {
        let was = self.codec.enabled.swap(enabled, Ordering::AcqRel);
        if was && !enabled {
            self.codec.dedup.lock().clear();
        }
    }

    /// Whether the chunk codec is currently enabled.
    pub fn codec_enabled(&self) -> bool {
        self.codec.enabled.load(Ordering::Acquire)
    }

    /// Sets the fence mode.
    pub fn with_fence(mut self, fence: FenceMode) -> Self {
        self.io.fence = fence;
        self
    }

    /// Attaches the DRAM staging pool used by the chunk-scheduled copy
    /// paths ([`copy_chunks`](Self::copy_chunks) /
    /// [`copy_framed`](Self::copy_framed)).
    pub fn with_staging(mut self, pool: HostBufferPool) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Attaches the bandwidth QoS arbiter: every chunk write first
    /// acquires a byte-metered grant on behalf of the lease's job, so
    /// concurrent jobs share the writer pool in weighted-deficit
    /// round-robin order instead of device-queue arrival order.
    pub fn with_qos(mut self, qos: Arc<QosArbiter>) -> Self {
        self.io.qos = Some(qos);
        self
    }

    /// The attached QoS arbiter, when one is installed.
    pub fn qos(&self) -> Option<&Arc<QosArbiter>> {
        self.io.qos.as_ref()
    }

    /// The underlying store.
    pub fn store(&self) -> &Arc<CheckpointStore> {
        &self.io.store
    }

    /// The fence mode this pipeline issues.
    pub fn fence(&self) -> FenceMode {
        self.io.fence
    }

    /// The staging pool, when one is attached.
    pub fn staging_pool(&self) -> Option<&HostBufferPool> {
        self.pool.as_ref()
    }

    fn pool(&self) -> &HostBufferPool {
        self.pool
            .as_ref()
            .expect("chunk-scheduled copy paths need a staging pool")
    }

    /// Leases a free slot from `ns` and refreshes the queue-depth gauges
    /// with that namespace's free-slot count.
    pub fn lease(&self, ctx: PipelineCtx<'_>, ns: &Arc<Namespace>) -> SlotLease {
        let lease = self.io.store.begin_checkpoint(ns);
        ctx.telemetry
            .gauge_queue_depth(self.io.store.free_slot_count(ns) as u64);
        self.io.sample_device_queues(ctx);
        lease
    }

    /// The one staging loop: copies the snapshot GPU→DRAM into pooled
    /// chunks, taken from the pool as `reserve` says, and hands each chunk
    /// with its offset to `each`. The producer does nothing else with the
    /// bytes — folding `blocks` is the chunks' pool jobs' work — except for
    /// the blocks a chunk boundary cuts, which it files from a carry of at
    /// most one block. Drops `src` (the weights go back to training) the
    /// moment the last chunk is staged, then closes the `GpuCopy` phase.
    /// Returns the phase's start.
    ///
    /// # Errors
    ///
    /// [`PccheckError::InvalidConfig`] when the pool cannot hold a whole
    /// reservation; the source is untouched.
    fn stage<S: SnapshotSource>(
        &self,
        ctx: PipelineCtx<'_>,
        src: S,
        lease: &SlotLease,
        blocks: &BlockValues,
        reserve: Reserve<'_>,
        mut each: impl FnMut(u64, StagedChunk),
    ) -> Result<u64, PccheckError> {
        let pool = self.pool();
        let (chunk, total) = (pool.chunk_size().as_u64(), blocks.len);
        let mut reserved = Vec::new();
        if let Reserve::Whole = reserve {
            let n_chunks = total.div_ceil(chunk) as usize;
            if pool.total_chunks() < n_chunks {
                return Err(PccheckError::InvalidConfig(format!(
                    "staging a whole {} snapshot needs {n_chunks} chunks, the pool has {}",
                    ByteSize::from_bytes(total),
                    pool.total_chunks()
                )));
            }
            reserved = pool.acquire_many(n_chunks);
        }
        let stopped = || matches!(reserve, Reserve::Streaming(batch) if batch.aborted());
        let copy_start = ctx.telemetry.now_nanos();
        let mut open = Vec::new();
        let mut off = 0u64;
        while off < total && !stopped() {
            let len = chunk.min(total - off) as usize;
            let mut buf = reserved.pop().unwrap_or_else(|| pool.acquire());
            src.copy_range_to_host(off, &mut buf.as_mut_slice()[..len]);
            blocks.file_cut(&mut open, off, &buf.as_slice()[..len]);
            ctx.telemetry
                .chunk(ctx.span, Phase::GpuCopy, off, len as u64);
            let buf = Arc::new(buf);
            each(off, StagedChunk { buf, len });
            off += len as u64;
        }
        drop(src);
        if off == total {
            self.copy_done(ctx, lease, ByteSize::from_bytes(total), copy_start);
        } else {
            ctx.telemetry
                .phase_done(ctx.span, Phase::GpuCopy, copy_start);
        }
        Ok(copy_start)
    }

    /// Closes the `GpuCopy` phase and records the flight milestone.
    fn copy_done(&self, ctx: PipelineCtx<'_>, lease: &SlotLease, total: ByteSize, copy_start: u64) {
        ctx.telemetry
            .phase_done(ctx.span, Phase::GpuCopy, copy_start);
        self.io.store.flight().record(
            FlightEventKind::CopyDone,
            lease.counter,
            lease.slot,
            0,
            total.as_u64(),
            0,
        );
    }

    /// Persists an already staged snapshot as the raw payload, chunk `i`
    /// at offset `i × chunk size`, each write job filing its chunk's share
    /// of `fold` first when the snapshot is not folded yet; each buffer
    /// returns to the pool the moment its write returns.
    fn persist_staged(
        &self,
        ctx: PipelineCtx<'_>,
        lease: &SlotLease,
        staged: Vec<StagedChunk>,
        fold: Option<&Arc<BlockValues>>,
    ) -> Result<(), PccheckError> {
        let chunk = self.pool().chunk_size().as_u64();
        let batch = Batch::open(&self.io, ctx, lease);
        for (i, piece) in staged.into_iter().enumerate() {
            batch.write(&self.workers, i as u64 * chunk, piece, fold);
        }
        batch.wait()
    }

    /// Chunk-scheduled raw copy: the calling thread copies the snapshot
    /// from the GPU into pooled DRAM chunks and the writer pool digests
    /// and persists them. With `pipelined` (Figure 7) the two overlap —
    /// writers persist already-copied chunks while the producer copies the
    /// next, and each DRAM buffer returns to the pool the moment its chunk
    /// is written.
    /// Without it (Figure 6) the producer stages the entire snapshot
    /// before the first write, so the pool must hold the whole snapshot.
    ///
    /// `src` is consumed: it is dropped — handing the weights back to
    /// training — as soon as the last chunk is in DRAM, while this call
    /// goes on to wait for the writes. Pass `&guard` to keep a guard.
    ///
    /// The returned [`Copied::persist_start`] lets the caller close the
    /// phase after [`seal`](Self::seal): the copy start when pipelined
    /// (the phases overlap), the end of staging otherwise.
    ///
    /// # Errors
    ///
    /// Propagates the first device error any writer hit, after the
    /// checkpoint's remaining queued writes were cancelled; rejects a
    /// staged copy whose pool cannot hold the snapshot.
    pub fn copy_chunks<S: SnapshotSource>(
        &self,
        ctx: PipelineCtx<'_>,
        src: S,
        lease: &SlotLease,
        total: ByteSize,
        pipelined: bool,
    ) -> Result<Copied, PccheckError> {
        let blocks = BlockValues::of(&src, total);
        let persist_start = if pipelined {
            let batch = Batch::open(&self.io, ctx, lease);
            let start = self.stage(
                ctx,
                src,
                lease,
                &blocks,
                Reserve::Streaming(&batch),
                |off, piece| batch.write(&self.workers, off, piece, Some(&blocks)),
            )?;
            batch.wait()?;
            start
        } else {
            let mut staged = Vec::new();
            self.stage(ctx, src, lease, &blocks, Reserve::Whole, |_, piece| {
                staged.push(piece)
            })?;
            let start = ctx.telemetry.now_nanos();
            self.persist_staged(ctx, lease, staged, Some(&blocks))?;
            start
        };
        Ok(Copied {
            persist_start,
            payload_len: total.as_u64(),
            state_digest: blocks.fold(),
            frame: None,
        })
    }

    /// Codec copy: stages the snapshot, content-addresses every chunk,
    /// deduplicates byte-identical chunks (within this frame and against
    /// the homes the job's head installed), entropy-gate-compresses the
    /// rest on the writer pool, and persists `[frame table][packed
    /// chunks]` into the leased slot. The table is written *last* so a
    /// torn frame is never mistaken for a complete one.
    ///
    /// `src` is consumed and dropped as soon as the snapshot is staged —
    /// before classify, compress, pack and write — so training never
    /// waits for the codec (pass `&guard` to keep a guard).
    ///
    /// A base hit is taken iff `home.depth + 1` fits `policy.max_chain`
    /// and the lease's slot budget minus two; the frame links to the
    /// youngest home it references (see the `codec` module docs, "Dedup
    /// index lifetime").
    ///
    /// When the frame would not pay — its physical payload is not smaller
    /// than the raw one, or overflows the slot — the chunks already in
    /// DRAM are persisted as the raw payload instead: no second GPU copy,
    /// no second digest fold, [`Copied::frame`] `None`. When the staging
    /// pool cannot hold the whole snapshot the codec is inapplicable (it
    /// needs every chunk's content address before any byte is packed) and
    /// the snapshot streams raw through [`copy_chunks`](Self::copy_chunks)
    /// — decided before the source is touched.
    ///
    /// The state digest is folded by the same pool jobs that take the
    /// content addresses and lands in the table as `full_digest`; restore
    /// verifies the reconstructed payload against it end to end.
    ///
    /// # Errors
    ///
    /// Propagates the first device error any writer hit.
    pub fn copy_framed<S: SnapshotSource>(
        &self,
        ctx: PipelineCtx<'_>,
        src: S,
        lease: &SlotLease,
        total: ByteSize,
        policy: DeltaPolicy,
    ) -> Result<Copied, PccheckError> {
        // The controller's chain-length signal: how much of the state
        // changed since the previous snapshot.
        let dirty_bytes: u64 = src.dirty_ranges().iter().map(|&(_, len)| len).sum();
        ctx.telemetry
            .gauge_dirty_ratio(dirty_bytes * 1000 / total.as_u64().max(1));

        let chunk = self.pool().chunk_size().as_u64();
        let n_chunks = total.as_u64().div_ceil(chunk) as usize;
        if n_chunks == 0 || self.pool().total_chunks() < n_chunks {
            return self.copy_chunks(ctx, src, lease, total, true);
        }

        // Stage all chunks. Each one's pool job files its block values and
        // its content address in one pass, while the chunk is hot; the
        // weights are back with training before the first of them is
        // waited for.
        let blocks = BlockValues::of(&src, total);
        let addresses: Arc<Vec<AtomicU64>> =
            Arc::new((0..n_chunks).map(|_| AtomicU64::new(0)).collect());
        let mut staged = Vec::with_capacity(n_chunks);
        let batch = Batch::open(&self.io, ctx, lease);
        self.stage(ctx, src, lease, &blocks, Reserve::Whole, |off, piece| {
            let (blocks, addresses) = (Arc::clone(&blocks), Arc::clone(&addresses));
            let i = staged.len();
            staged.push(piece.clone());
            batch.submit(&self.workers, move |batch| {
                let ((), busy) = batch.busy(|| {
                    let bytes = piece.as_ref();
                    blocks.file_whole(off, bytes);
                    addresses[i].store(chunk_digest(bytes), Ordering::Relaxed);
                });
                Ok((0, busy))
            });
        })?;
        batch.wait()?;
        let state_digest = blocks.fold();
        let digests = addresses.iter().map(|a| a.load(Ordering::Relaxed));
        let digests: Vec<u64> = digests.collect();

        // Cross-checkpoint dedup answers from the generation the job's
        // head installed, hit by hit: a home is referenced only while the
        // frame that links to it stays within the depth bound. A chain of
        // depth d pins d + 1 slots and the next checkpoint needs one more,
        // so the lease's slot budget bounds the depth too.
        let ns = lease.namespace();
        let max_depth = policy.max_chain.min(ns.desc().slot_count.saturating_sub(2));

        let persist_start = ctx.telemetry.now_nanos();

        // Classify every chunk: self-dedup (byte compare — exact), then
        // base dedup (content address against the head's homes), then
        // materialize.
        let mut records: Vec<FrameRecord> = Vec::with_capacity(staged.len());
        let mut self_seen: HashMap<u64, usize> = HashMap::new();
        let mut materialized: Vec<usize> = Vec::new();
        let mut homes: Vec<(u64, DedupHome)> = Vec::new();
        {
            // The head is read under the index's lock, which a framed
            // commit holds from before its head advance until its
            // generation is installed: head and generation are one
            // observation, never a new head beside the old generation.
            let dedup = self.codec.dedup.lock();
            let head = self.io.store.latest_committed(ns).map(|h| h.counter);
            for (i, (piece, &digest)) in staged.iter().zip(&digests).enumerate() {
                let n = piece.len as u64;
                if let Some(&j) = self_seen.get(&digest) {
                    if staged[j].as_ref() == piece.as_ref() {
                        records.push(FrameRecord {
                            kind: ChunkEncoding::DedupSelf,
                            aux: j as u32,
                            logical_len: n,
                            a: 0,
                            b: 0,
                            digest,
                        });
                        continue;
                    }
                }
                let hit = head
                    .and_then(|h| dedup.lookup(lease.job(), h, digest, n))
                    .filter(|home| home.depth < max_depth);
                if let Some(home) = hit {
                    records.push(FrameRecord {
                        kind: ChunkEncoding::DedupBase,
                        aux: home.slot,
                        logical_len: n,
                        a: home.counter,
                        b: home.logical_off,
                        digest,
                    });
                    homes.push((digest, home));
                    continue;
                }
                self_seen.entry(digest).or_insert(i);
                materialized.push(i);
                // Placeholder; phys offset/len assigned after compression.
                records.push(FrameRecord {
                    kind: ChunkEncoding::Raw,
                    aux: 0,
                    logical_len: n,
                    a: 0,
                    b: 0,
                    digest,
                });
            }
        }

        // Compress materialized chunks on the writer pool, one job each
        // (compression is the CPU-bound stage; the entropy gate keeps
        // dense payloads cheap).
        let compressed: Arc<Mutex<HashMap<usize, Vec<u8>>>> = Arc::default();
        let batch = Batch::open(&self.io, ctx, lease);
        for &i in &materialized {
            let (piece, compressed) = (staged[i].clone(), Arc::clone(&compressed));
            batch.submit(&self.workers, move |batch| {
                let (lz, busy) = batch.busy(|| compress_gated(piece.as_ref()));
                if let Some(c) = lz {
                    compressed.lock().insert(i, c);
                }
                Ok((0, busy))
            });
        }
        batch.wait()?;
        let mut compressed = Arc::try_unwrap(compressed)
            .unwrap_or_else(|_| unreachable!("a drained batch has dropped every job's share"))
            .into_inner();

        // Pack materialized chunks back to back after the table.
        let mut phys = 0u64;
        for &i in &materialized {
            let n = records[i].logical_len;
            let (kind, len) = match compressed.get(&i) {
                Some(c) if (c.len() as u64) < n => (ChunkEncoding::Lz, c.len() as u64),
                _ => {
                    compressed.remove(&i);
                    (ChunkEncoding::Raw, n)
                }
            };
            records[i].kind = kind;
            records[i].a = phys;
            records[i].b = len;
            phys += len;
        }

        let table_len = FrameTable::encoded_len_for(records.len());
        let physical = table_len + phys;
        if physical >= total.as_u64() || physical > self.io.store.slot_size().as_u64() {
            // The frame would not pay. The snapshot is already in DRAM and
            // folded, and the source is gone: it goes out as the raw
            // payload it is.
            drop(compressed);
            self.persist_staged(ctx, lease, staged, None)?;
            return Ok(Copied {
                persist_start,
                payload_len: total.as_u64(),
                state_digest,
                frame: None,
            });
        }

        // Persist the packed chunks through the writer pool — then the
        // table, last. A chunk the frame stores as a reference or as LZ
        // bytes needs its DRAM no longer.
        let batch = Batch::open(&self.io, ctx, lease);
        for &i in &materialized {
            let dst = table_len + records[i].a;
            match compressed.remove(&i) {
                Some(lz) => {
                    debug_assert_eq!(lz.len() as u64, records[i].b);
                    batch.write(&self.workers, dst, lz, None);
                }
                None => {
                    debug_assert_eq!(staged[i].len as u64, records[i].b);
                    batch.write(&self.workers, dst, staged[i].clone(), None);
                }
            }
        }
        drop(staged);
        batch.wait()?;

        let table = FrameTable {
            counter: lease.counter,
            logical_len: total.as_u64(),
            full_digest: state_digest.0,
            records,
        };
        let table_bytes = table.encode();
        debug_assert_eq!(table_bytes.len() as u64, table_len);
        self.io
            .write_and_fence_chunk(ctx, SlotRef::of(lease), 0, &table_bytes)?;

        let dedup_chunks = table
            .records
            .iter()
            .filter(|r| !r.kind.is_materialized())
            .count() as u64;
        let saved_bytes = total.as_u64() - physical;
        ctx.telemetry.add_codec_bytes_saved(saved_bytes);
        ctx.telemetry.add_dedup_chunks(dedup_chunks);
        ctx.telemetry
            .gauge_compression_ratio(physical * 1000 / total.as_u64().max(1));

        // Link to the youngest home referenced: the older ones lie on its
        // chain, so pinning that chain pins them all.
        let link = homes
            .iter()
            .map(|(_, home)| home)
            .max_by_key(|home| home.counter)
            .map(|home| DeltaLink {
                base_counter: home.counter,
                base_slot: home.slot,
                chain_depth: home.depth + 1,
            });
        let depth = link.map_or(0, |l| l.chain_depth);
        let mut logical_off = 0u64;
        for r in &table.records {
            if r.kind.is_materialized() {
                homes.push((
                    r.digest,
                    DedupHome {
                        counter: lease.counter,
                        slot: lease.slot,
                        logical_off,
                        len: r.logical_len,
                        depth,
                    },
                ));
            }
            logical_off += r.logical_len;
        }
        Ok(Copied {
            persist_start,
            payload_len: physical,
            state_digest,
            frame: Some(FramedPlan {
                payload_digest: crate::meta::checksum(&table_bytes),
                link,
                logical_len: total.as_u64(),
                saved_bytes,
                dedup_chunks,
                table,
                homes,
            }),
        })
    }

    /// One-call codec checkpoint in `ns`: lease →
    /// [`copy_framed`](Self::copy_framed) → `seal` → commit.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn checkpoint_framed(
        &self,
        ctx: PipelineCtx<'_>,
        ns: &Arc<Namespace>,
        src: &dyn SnapshotSource,
        iteration: u64,
        policy: DeltaPolicy,
    ) -> Result<(CommitOutcome, FramedOutcome), PccheckError> {
        let total = src.size();
        let lease = self.lease(ctx, ns);
        let copied = self.copy_framed(ctx, src, &lease, total, policy)?;
        self.seal(ctx, &lease, iteration, &copied)?;
        let out = self.commit(ctx, lease, iteration, &copied)?;
        let kind = match &copied.frame {
            Some(frame) => FramedOutcome::Framed {
                payload_len: copied.payload_len,
                saved_bytes: frame.saved_bytes,
                dedup_chunks: frame.dedup_chunks,
            },
            None => FramedOutcome::Raw,
        };
        Ok((out, kind))
    }

    /// Whole-buffer snapshot: copies the entire source into one host
    /// allocation, digests it, and closes the `GpuCopy` phase that started
    /// at `phase_start` (the traditional/CheckFreq `C` step). The digest
    /// rides with the bytes into [`persist_whole`](Self::persist_whole).
    pub fn snapshot_whole(
        &self,
        ctx: PipelineCtx<'_>,
        src: &dyn SnapshotSource,
        phase_start: u64,
    ) -> (Vec<u8>, StateDigest) {
        let total = src.size();
        let mut host = vec![0u8; total.as_usize()];
        src.copy_range_to_host(0, &mut host);
        let state_digest = StateDigest::of_payload(&host, src.step_count());
        ctx.telemetry
            .chunk(ctx.span, Phase::GpuCopy, 0, total.as_u64());
        ctx.telemetry
            .phase_done(ctx.span, Phase::GpuCopy, phase_start);
        (host, state_digest)
    }

    /// Whole-buffer persist: leases a slot of `ns` *after* the copy,
    /// writes the payload in one piece, fences it, and closes the
    /// `Persist` phase (the traditional/CheckFreq `P` step).
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn persist_whole(
        &self,
        ctx: PipelineCtx<'_>,
        ns: &Arc<Namespace>,
        payload: &[u8],
        state_digest: StateDigest,
        iteration: u64,
    ) -> Result<(SlotLease, Copied), PccheckError> {
        let total = payload.len() as u64;
        let persist_start = ctx.telemetry.now_nanos();
        let lease = self.lease(ctx, ns);
        self.io.write_chunk(ctx, lease.slot, 0, payload)?;
        self.io.persist_chunk(ctx, lease.slot, 0, total)?;
        ctx.telemetry.chunk(ctx.span, Phase::Persist, 0, total);
        ctx.telemetry
            .phase_done(ctx.span, Phase::Persist, persist_start);
        self.io.store.flight().record(
            FlightEventKind::PayloadPersisted,
            lease.counter,
            lease.slot,
            iteration,
            total,
            0,
        );
        let copied = Copied {
            persist_start,
            payload_len: total,
            state_digest,
            frame: None,
        };
        Ok((lease, copied))
    }

    /// Kernel write-through (GPM): copies the snapshot tile by tile
    /// straight into the leased slot with no DRAM staging, then issues one
    /// same-thread fence over the payload. `GpuCopy` and `Persist` overlap
    /// tile-by-tile, so both phases close against the shared `phase_start`.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn write_through(
        &self,
        ctx: PipelineCtx<'_>,
        src: &dyn SnapshotSource,
        lease: &SlotLease,
        iteration: u64,
        phase_start: u64,
    ) -> Result<Copied, PccheckError> {
        let total = src.size();
        // A small bounce tile stands in for the kernel's register/shared-
        // memory tile; it never holds the checkpoint (Table 1: DRAM = 0).
        let mut tile = vec![0u8; KERNEL_COPY_CHUNK.min(total.as_usize().max(1))];
        let mut fold = StateFold::new(src.step_count(), total.as_u64());
        let mut off = 0u64;
        while off < total.as_u64() {
            let n = (tile.len() as u64).min(total.as_u64() - off) as usize;
            src.copy_range_to_host(off, &mut tile[..n]);
            fold.feed(&tile[..n]);
            ctx.telemetry.chunk(ctx.span, Phase::GpuCopy, off, n as u64);
            self.io.write_chunk(ctx, lease.slot, off, &tile[..n])?;
            ctx.telemetry.chunk(ctx.span, Phase::Persist, off, n as u64);
            off += n as u64;
        }
        ctx.telemetry
            .phase_done(ctx.span, Phase::GpuCopy, phase_start);
        // cudaDeviceSynchronize + msync/fence: one persist over the payload
        // issued by this same (training) thread — correct on both SSD and
        // PMEM because the same thread performed every store.
        self.io.persist_chunk(ctx, lease.slot, 0, total.as_u64())?;
        ctx.telemetry
            .phase_done(ctx.span, Phase::Persist, phase_start);
        self.io.store.flight().record(
            FlightEventKind::PayloadPersisted,
            lease.counter,
            lease.slot,
            iteration,
            total.as_u64(),
            0,
        );
        Ok(Copied {
            persist_start: phase_start,
            payload_len: total.as_u64(),
            state_digest: StateDigest(fold.finish()),
            frame: None,
        })
    }

    /// Makes a chunk-copied payload durable: in [`FenceMode::Deferred`]
    /// issues the one coordinator fence over the whole payload, records the
    /// flight milestone, and closes the `Persist` phase that started at
    /// `copied.persist_start`.
    ///
    /// # Errors
    ///
    /// Propagates device errors from the deferred fence.
    pub fn seal(
        &self,
        ctx: PipelineCtx<'_>,
        lease: &SlotLease,
        iteration: u64,
        copied: &Copied,
    ) -> Result<(), PccheckError> {
        let total = ByteSize::from_bytes(copied.payload_len);
        if self.io.fence == FenceMode::Deferred {
            // §4.1 SSD path: one msync covering the whole payload. The
            // drain shows up as a `fence` actor leg so the ledger can tell
            // "media still flushing" from "device idle" inside Persist.
            let fence_start = ctx.telemetry.now_nanos();
            let media = self.io.persist_chunk(ctx, lease.slot, 0, total.as_u64())?;
            if ctx.telemetry.is_enabled() {
                ctx.telemetry.actor_span_split(
                    ctx.span,
                    "fence",
                    fence_start,
                    total.as_u64(),
                    media,
                );
            }
        }
        self.io.store.flight().record(
            FlightEventKind::PayloadPersisted,
            lease.counter,
            lease.slot,
            iteration,
            total.as_u64(),
            0,
        );
        ctx.telemetry
            .phase_done(ctx.span, Phase::Persist, copied.persist_start);
        Ok(())
    }

    /// Runs the store's lock-free, link-aware commit — meta publish,
    /// durable `Committed` state-word write, `fetch_max` head advance —
    /// for what a copy verb left in the slot, and closes the `Commit`
    /// phase. A raw payload's commit record carries the state digest
    /// itself; a frame's carries the checksum of its table (which binds
    /// the state digest and every chunk), and a frame that commits
    /// installs its homes as the job's next dedup generation — under the
    /// codec index's lock, the one lock on this path, which raw commits
    /// never take. Concurrent callers otherwise never serialize here;
    /// losers of the head race surface as [`CommitOutcome::SupersededBy`].
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn commit(
        &self,
        ctx: PipelineCtx<'_>,
        lease: SlotLease,
        iteration: u64,
        copied: &Copied,
    ) -> Result<CommitOutcome, PccheckError> {
        let commit_start = ctx.telemetry.now_nanos();
        let (job, counter) = (lease.job(), lease.counter);
        let (digest, link) = match &copied.frame {
            Some(frame) => (frame.payload_digest, frame.link),
            None => (copied.state_digest.0, None),
        };
        // A frame's commit and the install of its generation are one step
        // to the classifier of the next frame (see `copy_framed`): it waits
        // here rather than meet the new head without its homes and
        // materialize every chunk.
        let mut framed = copied
            .frame
            .as_ref()
            .map(|frame| (frame, self.codec.dedup.lock()));
        let outcome =
            self.io
                .store
                .commit_with_delta(lease, iteration, copied.payload_len, digest, link)?;
        if let (CommitOutcome::Committed, Some((frame, dedup))) = (outcome, &mut framed) {
            dedup.install(job, counter, frame.homes.iter().copied());
        }
        drop(framed);
        ctx.telemetry
            .phase_done(ctx.span, Phase::Commit, commit_start);
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pccheck_device::{DeviceConfig, PersistentDevice, SsdDevice, StripedDevice};
    use pccheck_gpu::{Gpu, GpuConfig, TrainingState};
    use pccheck_telemetry::Telemetry;

    use crate::layout::StoreGeometry;
    use crate::store::DEFAULT_JOB;
    use crate::testutil::GatedDevice;

    /// The tenant of the single-tenant store under `pipeline`.
    fn default_ns(pipeline: &PersistPipeline) -> Arc<Namespace> {
        pipeline.store().namespace(DEFAULT_JOB).unwrap()
    }

    fn gpu(size: u64, seed: u64) -> Gpu {
        Gpu::new(
            GpuConfig::fast_for_tests(),
            TrainingState::synthetic(ByteSize::from_bytes(size), seed),
        )
    }

    fn ssd_store(state: ByteSize, slots: u32) -> Arc<CheckpointStore> {
        let cap = CheckpointStore::required_capacity(state, slots) + ByteSize::from_kb(1);
        let device: Arc<dyn PersistentDevice> =
            Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        Arc::new(CheckpointStore::format(device, StoreGeometry::single(state, slots)).unwrap())
    }

    #[test]
    fn whole_buffer_path_commits_a_recoverable_checkpoint() {
        let g = gpu(300, 11);
        g.update();
        let pipeline = PersistPipeline::new(ssd_store(g.state_size(), 2));
        let telemetry = Telemetry::enabled();
        let span = telemetry.span_requested("test", 1, 300);
        let ctx = PipelineCtx {
            telemetry: &telemetry,
            span,
        };
        let guard = g.lock_weights_shared();
        let start = telemetry.now_nanos();
        let (host, digest) = pipeline.snapshot_whole(ctx, &guard, start);
        drop(guard);
        let (lease, copied) = pipeline
            .persist_whole(ctx, &default_ns(&pipeline), &host, digest, 1)
            .unwrap();
        let outcome = pipeline.commit(ctx, lease, 1, &copied).unwrap();
        assert_eq!(outcome, CommitOutcome::Committed);
        let meta = pipeline
            .store()
            .latest_committed(&default_ns(&pipeline))
            .unwrap();
        assert_eq!(meta.iteration, 1);
        assert_eq!(meta.digest, g.digest().0);
        let snap = telemetry.snapshot().unwrap();
        assert_eq!(snap.phase(Phase::GpuCopy).count, 1);
        assert_eq!(snap.phase(Phase::Persist).count, 1);
        assert_eq!(snap.phase(Phase::Commit).count, 1);
        // The pipeline fed the per-stage histograms and the device gauge.
        assert_eq!(snap.write_stage.count, 1);
        assert_eq!(snap.persist_stage.count, 1);
    }

    #[test]
    fn staged_and_streamed_paths_agree() {
        for streamed in [false, true] {
            let g = gpu(900, 13);
            g.update();
            let pool = HostBufferPool::new(ByteSize::from_bytes(128), 8);
            let pipeline = PersistPipeline::new(ssd_store(g.state_size(), 3))
                .with_writers(2)
                .with_staging(pool);
            let telemetry = Telemetry::enabled();
            let span = telemetry.span_requested("test", 1, 900);
            let ctx = PipelineCtx {
                telemetry: &telemetry,
                span,
            };
            let guard = g.lock_weights_shared_owned();
            let total = guard.size();
            let lease = pipeline.lease(ctx, &default_ns(&pipeline));
            let copied = pipeline
                .copy_chunks(ctx, &guard, &lease, total, streamed)
                .unwrap();
            drop(guard);
            pipeline.seal(ctx, &lease, 1, &copied).unwrap();
            let outcome = pipeline.commit(ctx, lease, 1, &copied).unwrap();
            assert_eq!(outcome, CommitOutcome::Committed, "streamed={streamed}");
            let snap = telemetry.snapshot().unwrap();
            // 900 bytes in 128-byte chunks: 8 chunks through both stages.
            assert_eq!(snap.gpu_copy_bytes, 900);
            assert_eq!(snap.persist_chunk_bytes, 900);
            assert_eq!(snap.write_stage.count, 8);
            assert_eq!(snap.persist_stage.count, 8);
        }
    }

    #[test]
    fn chunk_copy_paths_emit_writer_actor_spans() {
        for streamed in [false, true] {
            let g = gpu(900, 47);
            g.update();
            let pool = HostBufferPool::new(ByteSize::from_bytes(128), 8);
            let pipeline = PersistPipeline::new(ssd_store(g.state_size(), 3))
                .with_writers(2)
                .with_staging(pool);
            let telemetry = Telemetry::enabled();
            let span = telemetry.span_requested("test", 1, 900);
            let ctx = PipelineCtx {
                telemetry: &telemetry,
                span,
            };
            let guard = g.lock_weights_shared_owned();
            let total = guard.size();
            let lease = pipeline.lease(ctx, &default_ns(&pipeline));
            let copied = pipeline
                .copy_chunks(ctx, &guard, &lease, total, streamed)
                .unwrap();
            drop(guard);
            pipeline.seal(ctx, &lease, 1, &copied).unwrap();

            let spans: Vec<(String, u64)> = telemetry
                .events()
                .iter()
                .filter_map(|e| match &e.kind {
                    pccheck_telemetry::EventKind::ActorSpan { actor, bytes, .. }
                        if e.span == span =>
                    {
                        Some((actor.clone(), *bytes))
                    }
                    _ => None,
                })
                .collect();
            let total_bytes: u64 = spans.iter().map(|(_, b)| b).sum();
            assert_eq!(
                total_bytes, 900,
                "writer spans account for every chunk (streamed={streamed})"
            );
            assert!(
                spans.iter().all(|(a, _)| a.starts_with("writer-")),
                "streamed={streamed}: {spans:?}"
            );
        }
    }

    #[test]
    fn deferred_fence_skips_per_chunk_persists_until_seal() {
        let g = gpu(512, 17);
        g.update();
        let pool = HostBufferPool::new(ByteSize::from_bytes(128), 4);
        let pipeline = PersistPipeline::new(ssd_store(g.state_size(), 2))
            .with_writers(2)
            .with_fence(FenceMode::Deferred)
            .with_staging(pool);
        let telemetry = Telemetry::enabled();
        let span = telemetry.span_requested("test", 1, 512);
        let ctx = PipelineCtx {
            telemetry: &telemetry,
            span,
        };
        let guard = g.lock_weights_shared_owned();
        let total = guard.size();
        let lease = pipeline.lease(ctx, &default_ns(&pipeline));
        let copied = pipeline
            .copy_chunks(ctx, &guard, &lease, total, false)
            .unwrap();
        drop(guard);
        pipeline.seal(ctx, &lease, 1, &copied).unwrap();
        pipeline.commit(ctx, lease, 1, &copied).unwrap();
        let snap = telemetry.snapshot().unwrap();
        // 4 chunk writes but exactly one (deferred) fence.
        assert_eq!(snap.write_stage.count, 4);
        assert_eq!(snap.persist_stage.count, 1);
    }

    #[test]
    fn device_queue_gauges_cover_striped_members() {
        let g = gpu(600, 19);
        g.update();
        let members: Vec<Arc<dyn PersistentDevice>> = (0..2)
            .map(|_| {
                Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(
                    ByteSize::from_kb(64),
                ))) as Arc<dyn PersistentDevice>
            })
            .collect();
        let striped: Arc<dyn PersistentDevice> =
            Arc::new(StripedDevice::new(members, ByteSize::from_bytes(256)));
        let store = Arc::new(
            CheckpointStore::format(striped, StoreGeometry::single(g.state_size(), 2)).unwrap(),
        );
        let pipeline = PersistPipeline::new(store);
        let telemetry = Telemetry::enabled();
        let span = telemetry.span_requested("test", 1, 600);
        let ctx = PipelineCtx {
            telemetry: &telemetry,
            span,
        };
        let guard = g.lock_weights_shared();
        let (host, digest) = pipeline.snapshot_whole(ctx, &guard, 0);
        drop(guard);
        let (lease, copied) = pipeline
            .persist_whole(ctx, &default_ns(&pipeline), &host, digest, 1)
            .unwrap();
        pipeline.commit(ctx, lease, 1, &copied).unwrap();
        // Controller + two members were sampled (values may be zero since
        // sampling happens after each op completes, but the gauge slots
        // exist and the store's own stats saw the traffic).
        let report = pipeline.store().device().stats_report();
        assert_eq!(report.len(), 3);
        assert!(report[0].bytes_persisted >= 600);
    }

    #[test]
    fn multi_job_leases_route_through_qos_and_namespaces() {
        use crate::qos::{QosArbiter, QosConfig};

        let state = ByteSize::from_bytes(900);
        let geometry = StoreGeometry {
            max_namespaces: 4,
            ..StoreGeometry::single(state, 8)
        };
        let cap = geometry.required_capacity() + ByteSize::from_kb(1);
        let device: Arc<dyn PersistentDevice> =
            Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let store = Arc::new(CheckpointStore::format(device, geometry).unwrap());
        let tenants = [
            store.allocate_namespace(1, 3).unwrap(),
            store.allocate_namespace(2, 3).unwrap(),
        ];
        let qos = Arc::new(QosArbiter::new(QosConfig::default()));
        qos.register_job(1, 1);
        qos.register_job(2, 1);
        let pool = HostBufferPool::new(ByteSize::from_bytes(128), 8);
        let pipeline = PersistPipeline::new(store)
            .with_writers(2)
            .with_staging(pool)
            .with_qos(Arc::clone(&qos));
        let telemetry = Telemetry::disabled();
        let ctx = PipelineCtx {
            telemetry: &telemetry,
            span: SpanId::NONE,
        };
        for (ns, seed, iter) in [(&tenants[0], 5u64, 10u64), (&tenants[1], 6, 20)] {
            let g = gpu(900, seed);
            g.update();
            let guard = g.lock_weights_shared_owned();
            let total = guard.size();
            let lease = pipeline.lease(ctx, ns);
            assert_eq!(lease.job(), ns.job());
            let copied = pipeline
                .copy_chunks(ctx, &guard, &lease, total, true)
                .unwrap();
            drop(guard);
            pipeline.seal(ctx, &lease, iter, &copied).unwrap();
            let out = pipeline.commit(ctx, lease, iter, &copied).unwrap();
            assert_eq!(out, CommitOutcome::Committed);
        }
        // Each job committed into its own namespace...
        let store = pipeline.store();
        assert_eq!(store.latest_committed(&tenants[0]).unwrap().iteration, 10);
        assert_eq!(store.latest_committed(&tenants[1]).unwrap().iteration, 20);
        // ...and every chunk write was metered by the arbiter.
        let shares = qos.shares();
        assert_eq!(shares.iter().find(|s| s.0 == 1).unwrap().1, 900);
        assert_eq!(shares.iter().find(|s| s.0 == 2).unwrap().1, 900);
    }

    #[test]
    fn write_through_needs_no_staging_pool() {
        let g = gpu(300, 23);
        g.update();
        let pipeline = PersistPipeline::new(ssd_store(g.state_size(), 2));
        assert!(pipeline.staging_pool().is_none());
        let telemetry = Telemetry::enabled();
        let span = telemetry.span_requested("test", 1, 300);
        let ctx = PipelineCtx {
            telemetry: &telemetry,
            span,
        };
        let guard = g.lock_weights_shared();
        let start = telemetry.now_nanos();
        let lease = pipeline.lease(ctx, &default_ns(&pipeline));
        let copied = pipeline
            .write_through(ctx, &guard, &lease, 1, start)
            .unwrap();
        let outcome = pipeline.commit(ctx, lease, 1, &copied).unwrap();
        drop(guard);
        assert_eq!(outcome, CommitOutcome::Committed);
        let snap = telemetry.snapshot().unwrap();
        // One tile (300 bytes < 4 MiB), one same-thread fence.
        assert_eq!(snap.gpu_copy_bytes, 300);
        assert_eq!(snap.persist_chunk_bytes, 300);
        assert_eq!(snap.persist_stage.count, 1);
    }

    /// In-memory snapshot source with controllable content, for codec
    /// tests (synthetic GPU states are RNG-filled, i.e. incompressible).
    struct VecSource {
        data: Vec<u8>,
        step: u64,
    }

    impl pccheck_gpu::SnapshotSource for VecSource {
        fn size(&self) -> ByteSize {
            ByteSize::from_bytes(self.data.len() as u64)
        }
        fn step_count(&self) -> u64 {
            self.step
        }
        fn copy_range_to_host(&self, offset: u64, dst: &mut [u8]) {
            let s = offset as usize;
            dst.copy_from_slice(&self.data[s..s + dst.len()]);
        }
    }

    /// Store + framed pipeline over a fresh SSD, returning the device too
    /// so tests can crash/recover it.
    fn framed_rig(
        state_bytes: u64,
        chunk: u64,
        pool_chunks: usize,
    ) -> (Arc<dyn PersistentDevice>, PersistPipeline) {
        let state = ByteSize::from_bytes(state_bytes);
        let cap = CheckpointStore::required_capacity(state, 4) + ByteSize::from_kb(1);
        let device: Arc<dyn PersistentDevice> =
            Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let store = Arc::new(
            CheckpointStore::format(Arc::clone(&device), StoreGeometry::single(state, 4)).unwrap(),
        );
        let pipeline = PersistPipeline::new(store)
            .with_writers(2)
            .with_staging(HostBufferPool::new(ByteSize::from_bytes(chunk), pool_chunks))
            .with_codec(true);
        (device, pipeline)
    }

    fn test_ctx(telemetry: &Telemetry) -> PipelineCtx<'_> {
        PipelineCtx {
            telemetry,
            span: pccheck_telemetry::SpanId::NONE,
        }
    }

    /// One behaviour, three callers: whichever copy verb drives the writer
    /// pool, the first device error comes back, the writers stop issuing
    /// I/O (at most the chunks already in other writers' hands land after
    /// the fault), every staging buffer is back in the pool when the verb
    /// returns, and the same pipeline then persists a checkpoint cleanly.
    /// The "queued" raw callers take the fault with both writers held at
    /// the gate and the other thirty chunks' jobs — fold and write — still
    /// in the queue, all of which the failure must cancel. (A framed
    /// caller's folds drain before its first write, so it has no such
    /// case.)
    #[test]
    fn every_copy_path_aborts_after_the_first_writer_error() {
        const TOTAL: u64 = 4096;
        const CHUNK: u64 = 128;
        const WRITERS: usize = 2;
        // Compressible and chunk-wise distinct, so the framed caller
        // materializes (and writes) all 32 chunks instead of declining.
        let data: Vec<u8> = (0..TOTAL as u32).map(|i| (i / 48) as u8).collect();
        for caller in [
            "staged",
            "overlapped",
            "framed",
            "staged queued",
            "overlapped queued",
        ] {
            let queued = caller.ends_with("queued");
            let state = ByteSize::from_bytes(TOTAL);
            let cap = CheckpointStore::required_capacity(state, 2) + ByteSize::from_kb(1);
            let device = GatedDevice::new(cap);
            let store = Arc::new(
                CheckpointStore::format(
                    Arc::clone(&device) as Arc<dyn PersistentDevice>,
                    StoreGeometry::single(state, 2),
                )
                .unwrap(),
            );
            device.gate_payloads(&store);
            if !queued {
                device.open();
            }
            let pipeline = PersistPipeline::new(store)
                .with_writers(WRITERS)
                .with_staging(HostBufferPool::new(ByteSize::from_bytes(CHUNK), 32))
                .with_codec(true);
            let pool = pipeline.staging_pool().unwrap();
            let telemetry = Telemetry::enabled();
            let span = telemetry.span_requested("test", 1, TOTAL);
            let ctx = PipelineCtx {
                telemetry: &telemetry,
                span,
            };
            let src = VecSource {
                data: data.clone(),
                step: 1,
            };
            let copy = |lease: &SlotLease| match caller {
                "framed" => pipeline.copy_framed(ctx, &src, lease, state, DeltaPolicy::default()),
                _ => {
                    pipeline.copy_chunks(ctx, &src, lease, state, caller.starts_with("overlapped"))
                }
            };
            let lease = pipeline.lease(ctx, &default_ns(&pipeline));
            let err = std::thread::scope(|s| {
                if queued {
                    s.spawn(|| {
                        device.wait_until_blocked(WRITERS);
                        while pool.available() > 0 {
                            std::thread::yield_now();
                        }
                        device.fail_write(1);
                        device.allow(1);
                        // Every queued job is cancelled; only the chunk in
                        // the other writer's hands, still at the gate, is
                        // out.
                        while pool.available() + 1 < pool.total_chunks() {
                            std::thread::yield_now();
                        }
                        device.open();
                    });
                } else {
                    device.fail_write(3);
                }
                copy(&lease).err()
            });
            let (fault_offset, admitted_before) =
                device.failed().expect("the armed write was reached");
            match err {
                Some(PccheckError::Device(pccheck_device::DeviceError::ReadFault { offset })) => {
                    assert_eq!(offset, fault_offset, "{caller}: the first error propagates");
                }
                other => panic!("{caller}: expected the injected fault, got {other:?}"),
            }
            let after = device.payload_bytes() - admitted_before;
            assert!(
                after <= (WRITERS as u64 - 1) * CHUNK,
                "{caller}: writers kept issuing I/O after the fault ({after} bytes)"
            );
            assert_eq!(
                pool.available(),
                pool.total_chunks(),
                "{caller}: cancelled writes gave their buffers back"
            );
            // The pool outlives the failure: same pipeline, next lease.
            let lease = pipeline.lease(ctx, &default_ns(&pipeline));
            let copied = copy(&lease).unwrap_or_else(|e| panic!("{caller}: retry failed: {e}"));
            pipeline.seal(ctx, &lease, 1, &copied).unwrap();
            let outcome = pipeline.commit(ctx, lease, 1, &copied).unwrap();
            assert_eq!(outcome, CommitOutcome::Committed, "{caller}");
            let rec = crate::recovery::recover(device as Arc<dyn PersistentDevice>).unwrap();
            assert_eq!(rec.payload, data, "{caller}");
        }
    }

    /// `set_writers` moves the resident pool's width between checkpoints —
    /// for every clone — and every queued chunk is still written.
    #[test]
    fn set_writers_resizes_the_resident_pool_and_drops_no_chunk() {
        let g = gpu(900, 53);
        g.update();
        let pool = HostBufferPool::new(ByteSize::from_bytes(128), 8);
        let pipeline = PersistPipeline::new(ssd_store(g.state_size(), 3))
            .with_writers(2)
            .with_staging(pool);
        assert_eq!(pipeline.workers.threads(), 0, "no chunk yet, no thread yet");
        let clone = pipeline.clone();
        let telemetry = Telemetry::enabled();
        let mut checkpoints = 0;
        for (width, through) in [(2, &pipeline), (4, &clone), (1, &pipeline), (3, &clone)] {
            clone.set_writers(width);
            assert_eq!(pipeline.writers(), width, "clones share the pool");
            checkpoints += 1;
            let span = telemetry.span_requested("test", checkpoints, 900);
            let ctx = PipelineCtx {
                telemetry: &telemetry,
                span,
            };
            let lease = through.lease(ctx, &default_ns(through));
            let guard = g.lock_weights_shared_owned();
            let copied = through
                .copy_chunks(ctx, guard, &lease, g.state_size(), true)
                .unwrap();
            through.seal(ctx, &lease, checkpoints, &copied).unwrap();
            let out = through.commit(ctx, lease, checkpoints, &copied).unwrap();
            assert_eq!(out, CommitOutcome::Committed);
            assert_eq!(copied.state_digest, g.digest());
            assert_eq!(pipeline.workers.threads(), width, "width {width}");
            let writers: Vec<String> = telemetry
                .events()
                .iter()
                .filter_map(|e| match &e.kind {
                    pccheck_telemetry::EventKind::ActorSpan { actor, .. } if e.span == span => {
                        Some(actor.clone())
                    }
                    _ => None,
                })
                .collect();
            assert!(!writers.is_empty(), "width {width}: writer spans survive");
            for actor in &writers {
                let w: usize = actor.strip_prefix("writer-").unwrap().parse().unwrap();
                assert!(w < width, "width {width} ran {actor}");
            }
        }
        let snap = telemetry.snapshot().unwrap();
        assert_eq!(
            snap.persist_chunk_bytes,
            checkpoints * 900,
            "no chunk dropped"
        );
    }

    /// The writers belong to the clones collectively: dropping one clone
    /// leaves them running, dropping the last joins them.
    #[test]
    fn dropping_the_last_clone_joins_the_writers() {
        let g = gpu(900, 59);
        g.update();
        let pipeline = PersistPipeline::new(ssd_store(g.state_size(), 3))
            .with_writers(2)
            .with_staging(HostBufferPool::new(ByteSize::from_bytes(128), 8));
        let telemetry = Telemetry::disabled();
        let ctx = test_ctx(&telemetry);
        let checkpoint = |through: &PersistPipeline, iter: u64| {
            let lease = through.lease(ctx, &default_ns(through));
            let copied = through
                .copy_chunks(
                    ctx,
                    g.lock_weights_shared_owned(),
                    &lease,
                    g.state_size(),
                    true,
                )
                .unwrap();
            through.seal(ctx, &lease, iter, &copied).unwrap();
            through.commit(ctx, lease, iter, &copied).unwrap()
        };
        let clone = pipeline.clone();
        assert_eq!(checkpoint(&clone, 1), CommitOutcome::Committed);
        // What the worker threads keep alive, seen from outside.
        let alive = pipeline.workers.liveness();
        assert!(alive.strong_count() > 2, "two workers and the pool hold it");
        drop(clone);
        assert_eq!(
            pipeline.workers.threads(),
            2,
            "a clone remains: still running"
        );
        assert_eq!(checkpoint(&pipeline, 2), CommitOutcome::Committed);
        drop(pipeline);
        assert_eq!(alive.strong_count(), 0, "the last clone joined its writers");
    }

    #[test]
    fn dedup_bases_stay_inside_their_namespace() {
        // Job 1 commits a framed checkpoint and a near-duplicate that
        // references it; job 2 then checkpoints the *same bytes*. Job 2
        // has no base in its own namespace, so none of its chunks may
        // reference job 1's slots even though job 1's generation holds
        // byte-identical content.
        let state = ByteSize::from_bytes(4096);
        let geometry = StoreGeometry {
            max_namespaces: 4,
            ..StoreGeometry::single(state, 8)
        };
        let cap = geometry.required_capacity() + ByteSize::from_kb(1);
        let device: Arc<dyn PersistentDevice> =
            Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let store = Arc::new(CheckpointStore::format(device, geometry).unwrap());
        let tenants = [
            store.allocate_namespace(1, 4).unwrap(),
            store.allocate_namespace(2, 4).unwrap(),
        ];
        let pipeline = PersistPipeline::new(store)
            .with_writers(2)
            .with_staging(HostBufferPool::new(ByteSize::from_bytes(256), 16))
            .with_codec(true);
        let telemetry = Telemetry::disabled();
        let ctx = test_ctx(&telemetry);
        let commit = |job: usize, iter: u64, data: &[u8]| {
            let src = VecSource {
                data: data.to_vec(),
                step: iter,
            };
            let lease = pipeline.lease(ctx, &tenants[job - 1]);
            let copied = pipeline
                .copy_framed(ctx, &src, &lease, state, DeltaPolicy::default())
                .unwrap();
            pipeline.seal(ctx, &lease, iter, &copied).unwrap();
            pipeline.commit(ctx, lease, iter, &copied).unwrap();
            copied.frame.expect("self-redundant payload frames")
        };

        let mut data = vec![0u8; 4096];
        pccheck_util::rng::fill_deterministic(&mut data[..2048], 7);
        data.copy_within(..2048, 2048);
        let first = commit(1, 1, &data);
        assert!(first.link.is_none(), "first commit has no base");
        let mut next = data.clone();
        next[100] ^= 0x5A;
        let second = commit(1, 2, &next);
        let base = pipeline.store().latest_committed(&tenants[0]).unwrap();
        assert_eq!(
            second.link.expect("near-duplicate references its base").base_counter,
            1
        );
        assert_eq!(base.delta.unwrap().chain_depth, 1);

        let foreign = commit(2, 1, &next);
        assert!(!foreign.table.references_base());
        assert!(foreign.link.is_none(), "job 2 has no base in its namespace");
        let head = pipeline.store().latest_committed(&tenants[1]).unwrap();
        assert!(!head.is_delta());
    }

    #[test]
    fn chain_depth_cap_rematerializes_chunks_homed_at_the_cap() {
        // Four copies of a 1 KiB block (so every checkpoint frames, linked
        // or not); iteration k dirties chunk k and leaves it alone after.
        // With `max_chain` 2 a chunk dirtied at iteration 3 or later is
        // homed at depth 2: no frame may reference it, so it is written
        // again each time, while the chunks homed at depths 0 and 1 stay
        // references to the same two homes. Four slots carry it: the chain
        // pins three and one stays free.
        let (device, pipeline) = framed_rig(4096, 256, 16);
        let telemetry = Telemetry::disabled();
        let ctx = test_ctx(&telemetry);
        let policy = DeltaPolicy { max_chain: 2 };
        let mut data = vec![0u8; 4096];
        pccheck_util::rng::fill_deterministic(&mut data[..1024], 37);
        for copy in 1..4 {
            data.copy_within(..1024, copy * 1024);
        }
        let mut depths = Vec::new();
        let mut homes_of_clean_chunks = Vec::new();
        for iter in 1..=7u64 {
            // A different flip per copy, so no dirtied chunk equals another.
            data[iter as usize * 256 + 5] ^= iter as u8;
            let src = VecSource {
                data: data.clone(),
                step: iter,
            };
            let (out, kind) = pipeline
                .checkpoint_framed(ctx, &default_ns(&pipeline), &src, iter, policy)
                .unwrap();
            assert_eq!(out, CommitOutcome::Committed);
            assert!(matches!(kind, FramedOutcome::Framed { .. }), "{kind:?}");
            let store = pipeline.store();
            assert!(
                store.free_slot_count(&default_ns(&pipeline)) >= 1,
                "iteration {iter} pinned every slot"
            );
            let head = store.latest_committed(&default_ns(&pipeline)).unwrap();
            depths.push(head.delta.map_or(0, |l| l.chain_depth));
            let table = FrameTable::decode(&store.read_checkpoint(&head).unwrap()).unwrap();
            for k in 1..=iter as usize {
                let r = &table.records[k];
                let referenced = r.kind == ChunkEncoding::DedupBase;
                // Dirtied this iteration, or homed at the depth cap.
                let rewritten = k == iter as usize || k >= 3;
                assert_eq!(referenced, !rewritten, "iteration {iter}, chunk {k}: {r:?}");
            }
            if iter >= 3 {
                let home = |k: usize| (table.records[k].a, table.records[k].aux);
                homes_of_clean_chunks.push((home(0), home(2)));
            }
        }
        assert_eq!(depths, [0, 1, 2, 2, 2, 2, 2]);
        assert!(
            homes_of_clean_chunks.windows(2).all(|w| w[0] == w[1]),
            "clean chunks keep their homes: {homes_of_clean_chunks:?}"
        );
        let (never_dirtied, dirtied_at_2) = homes_of_clean_chunks[0];
        assert_eq!((never_dirtied.0, dirtied_at_2.0), (1, 2));
        let rec = crate::recovery::recover(device).unwrap();
        assert_eq!(rec.iteration, 7);
        assert_eq!(rec.payload, data);
    }

    #[test]
    fn framed_checkpoint_compresses_and_recovers_bit_identical() {
        let (device, pipeline) = framed_rig(4096, 256, 16);
        // Compressible: long runs with mild variation.
        let data: Vec<u8> = (0..4096u32).map(|i| (i / 192) as u8).collect();
        let src = VecSource {
            data: data.clone(),
            step: 1,
        };
        let telemetry = Telemetry::enabled();
        let ctx = test_ctx(&telemetry);
        let (commit, outcome) = pipeline
            .checkpoint_framed(ctx, &default_ns(&pipeline), &src, 1, DeltaPolicy::default())
            .unwrap();
        assert_eq!(commit, CommitOutcome::Committed);
        let FramedOutcome::Framed {
            payload_len,
            saved_bytes,
            ..
        } = outcome
        else {
            panic!("compressible payload must persist framed, got {outcome:?}");
        };
        assert!(payload_len < 4096, "physical {payload_len} < logical");
        assert_eq!(saved_bytes, 4096 - payload_len);
        let meta = pipeline
            .store()
            .latest_committed(&default_ns(&pipeline))
            .unwrap();
        assert_eq!(
            meta.payload_len, payload_len,
            "commit records physical bytes"
        );
        let snap = telemetry.snapshot().unwrap();
        assert_eq!(snap.codec_bytes_saved, saved_bytes);
        assert!(snap.compression_ratio_permille < 1000);

        let rec = crate::recovery::recover(device).unwrap();
        assert_eq!(rec.iteration, 1);
        assert_eq!(rec.payload, data, "restore decodes the frame bit-identically");
    }

    #[test]
    fn framed_self_dedup_collapses_repeated_chunks() {
        let (device, pipeline) = framed_rig(4096, 256, 16);
        // 16 chunks, but only 2 distinct contents → 14 self-dedup refs.
        // Use incompressible chunk bodies so dedup (not LZ) does the work.
        let mut chunk_a = vec![0u8; 256];
        let mut chunk_b = vec![0u8; 256];
        pccheck_util::rng::fill_deterministic(&mut chunk_a, 11);
        pccheck_util::rng::fill_deterministic(&mut chunk_b, 22);
        let mut data = Vec::new();
        for i in 0..16 {
            data.extend_from_slice(if i % 2 == 0 { &chunk_a } else { &chunk_b });
        }
        let src = VecSource {
            data: data.clone(),
            step: 1,
        };
        let telemetry = Telemetry::disabled();
        let ctx = test_ctx(&telemetry);
        let (_, outcome) = pipeline
            .checkpoint_framed(ctx, &default_ns(&pipeline), &src, 1, DeltaPolicy::default())
            .unwrap();
        let FramedOutcome::Framed { dedup_chunks, payload_len, .. } = outcome else {
            panic!("repeated chunks must persist framed, got {outcome:?}");
        };
        assert_eq!(dedup_chunks, 14, "2 materialized + 14 self-references");
        // 688-byte table + two 256-byte materialized chunks.
        assert!(payload_len < 4096 / 2, "physical {payload_len} collapsed");
        let rec = crate::recovery::recover(device).unwrap();
        assert_eq!(rec.payload, data);
    }

    #[test]
    fn framed_base_dedup_links_and_recovers_across_checkpoints() {
        let (device, pipeline) = framed_rig(4096, 256, 16);
        let mut data = vec![0u8; 4096];
        pccheck_util::rng::fill_deterministic(&mut data, 7);
        let telemetry = Telemetry::disabled();
        let ctx = test_ctx(&telemetry);

        let src1 = VecSource {
            data: data.clone(),
            step: 1,
        };
        let (_, o1) = pipeline
            .checkpoint_framed(
                ctx,
                &default_ns(&pipeline),
                &src1,
                1,
                DeltaPolicy::default(),
            )
            .unwrap();
        // Incompressible and nothing to dedup against: the first
        // checkpoint streams raw (all-Raw framing would only add a table).
        assert_eq!(o1, FramedOutcome::Raw);

        // Second checkpoint: mutate one chunk; with a raw base there is no
        // installed generation, still raw.
        data[300] ^= 0xA5;
        let src2 = VecSource {
            data: data.clone(),
            step: 2,
        };
        let (_, o2) = pipeline
            .checkpoint_framed(
                ctx,
                &default_ns(&pipeline),
                &src2,
                2,
                DeltaPolicy::default(),
            )
            .unwrap();
        assert_eq!(o2, FramedOutcome::Raw, "no generation installed yet");

        // Seed a framed generation: make the payload self-redundant once.
        let half: Vec<u8> = data[..2048].to_vec();
        let mut doubled = half.clone();
        doubled.extend_from_slice(&half);
        let src3 = VecSource {
            data: doubled.clone(),
            step: 3,
        };
        let (_, o3) = pipeline
            .checkpoint_framed(
                ctx,
                &default_ns(&pipeline),
                &src3,
                3,
                DeltaPolicy::default(),
            )
            .unwrap();
        assert!(
            matches!(o3, FramedOutcome::Framed { .. }),
            "self-redundant payload frames: {o3:?}"
        );

        // Fourth: nearly identical to the third → base dedup kicks in.
        let mut data4 = doubled.clone();
        data4[100] ^= 0x5A;
        let src4 = VecSource {
            data: data4.clone(),
            step: 4,
        };
        let (commit, o4) = pipeline
            .checkpoint_framed(
                ctx,
                &default_ns(&pipeline),
                &src4,
                4,
                DeltaPolicy::default(),
            )
            .unwrap();
        assert_eq!(commit, CommitOutcome::Committed);
        let FramedOutcome::Framed { dedup_chunks, payload_len, .. } = o4 else {
            panic!("near-duplicate of a framed base must frame, got {o4:?}");
        };
        assert!(dedup_chunks >= 14, "most chunks deduplicate: {dedup_chunks}");
        assert!(payload_len < 1024, "tiny physical payload: {payload_len}");
        let meta = pipeline
            .store()
            .latest_committed(&default_ns(&pipeline))
            .unwrap();
        assert!(meta.is_delta(), "base references pin the base via a link");
        assert_eq!(meta.delta.unwrap().base_counter, 3);

        // Newest recovers through the base-reference resolution path.
        let rec = crate::recovery::recover(device).unwrap();
        assert_eq!(rec.iteration, 4);
        assert_eq!(rec.payload, data4);
    }

    #[test]
    fn framed_declines_incompressible_dense_payloads() {
        let (_device, pipeline) = framed_rig(4096, 256, 16);
        let mut data = vec![0u8; 4096];
        pccheck_util::rng::fill_deterministic(&mut data, 99);
        let src = VecSource { data, step: 1 };
        let telemetry = Telemetry::disabled();
        let ctx = test_ctx(&telemetry);
        let (commit, outcome) = pipeline
            .checkpoint_framed(ctx, &default_ns(&pipeline), &src, 1, DeltaPolicy::default())
            .unwrap();
        assert_eq!(commit, CommitOutcome::Committed);
        assert_eq!(outcome, FramedOutcome::Raw, "dense payloads stream raw");
        let meta = pipeline
            .store()
            .latest_committed(&default_ns(&pipeline))
            .unwrap();
        assert_eq!(meta.payload_len, 4096, "raw fallback commits the raw shape");
    }

    #[test]
    fn framed_declines_when_pool_cannot_stage_the_snapshot() {
        // 16 chunks needed, pool holds 4: the codec must decline rather
        // than deadlock on the staging pool.
        let (_device, pipeline) = framed_rig(4096, 256, 4);
        let data: Vec<u8> = (0..4096u32).map(|i| (i / 192) as u8).collect();
        let src = VecSource { data, step: 1 };
        let telemetry = Telemetry::disabled();
        let ctx = test_ctx(&telemetry);
        let (commit, outcome) = pipeline
            .checkpoint_framed(ctx, &default_ns(&pipeline), &src, 1, DeltaPolicy::default())
            .unwrap();
        assert_eq!(commit, CommitOutcome::Committed);
        assert_eq!(outcome, FramedOutcome::Raw);
    }

    #[test]
    fn disabling_codec_clears_dedup_generations() {
        let (_device, pipeline) = framed_rig(4096, 256, 16);
        let mut data = vec![0u8; 4096];
        pccheck_util::rng::fill_deterministic(&mut data[..2048], 7);
        let tail = data[..2048].to_vec();
        data[2048..].copy_from_slice(&tail);
        let src = VecSource {
            data: data.clone(),
            step: 1,
        };
        let telemetry = Telemetry::disabled();
        let ctx = test_ctx(&telemetry);
        let (_, o) = pipeline
            .checkpoint_framed(ctx, &default_ns(&pipeline), &src, 1, DeltaPolicy::default())
            .unwrap();
        assert!(matches!(o, FramedOutcome::Framed { .. }));
        assert!(pipeline
            .codec
            .dedup
            .lock()
            .generation_counter(DEFAULT_JOB)
            .is_some());
        pipeline.set_codec_enabled(false);
        assert!(
            pipeline
                .codec
                .dedup
                .lock()
                .generation_counter(DEFAULT_JOB)
                .is_none(),
            "disable drops generations; re-enable starts cold"
        );
        pipeline.set_codec_enabled(true);
        assert!(pipeline
            .codec
            .dedup
            .lock()
            .generation_counter(DEFAULT_JOB)
            .is_none());
    }
}
