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
//! policy. A strategy drives four verbs — [`lease`](PersistPipeline::lease)
//! a slot, [`copy`](PersistPipeline::copy) the snapshot into it,
//! [`seal`](PersistPipeline::seal) it durable,
//! [`commit`](PersistPipeline::commit) it — or the last three in one call,
//! [`checkpoint_framed`](PersistPipeline::checkpoint_framed), and differs
//! from the others only in its [`CopyMode`], its staging pool and the
//! thread that calls it. It also owns the pipeline's telemetry: per-chunk
//! write/persist stage latencies ([`Telemetry::stage_write`] /
//! [`Telemetry::stage_persist`]) and the per-device submission-queue
//! gauges sampled from [`PersistentDevice::queue_depths`] — including
//! every member of a striped or tiered composite device.
//!
//! # One payload format
//!
//! Whatever writes it, a checkpoint is a frame (see [`crate::codec`]): a
//! table, written last, in front of the packed chunks. The one copy verb,
//! [`copy`](PersistPipeline::copy), packs the codec's frame when it is
//! asked to and the frame pays; otherwise — codec off, a staging pool too
//! small for the snapshot, a frame no smaller than the state — it writes
//! every chunk verbatim at its packed offset under an all-`Raw` table. Every
//! commit binds the checksum of the table it lands on.
//!
//! # Who waits for what
//!
//! *The weights are held for the memcpy of the chunks that changed — not
//! for the digest, not for the lease, not for the persist.* The copy verb
//! takes its [`SnapshotSource`] by value and drops it the moment the last
//! chunk is staged in DRAM, and staging a chunk is one `copy_range_to_host`
//! into a pooled buffer; everything after — digest, classify, compress,
//! write, fence — runs with training already unblocked, so the work of up
//! to `N` checkpoints overlaps. It all runs on one resident writer pool
//! (`writers()` wide, shared by every clone of the pipeline) that serves a
//! tenant's oldest checkpoint first (see `pool.rs`), taking the QoS grant
//! per chunk.
//!
//! *The slot is leased when the first write needs it* ([`LeaseSlot`]): a
//! streamed copy writes chunk 0 before it has staged the rest, so it leases
//! first; a copy that stages the whole snapshot leases once the source is
//! dropped, so a trainer never waits out an older checkpoint's commit for
//! a slot. Jobs queued before the lease (the digests of the chunks being
//! staged) queue behind every leased checkpoint of their tenant.
//!
//! *A whole-snapshot copy stages only what changed.* Per job, the pipeline
//! keeps the last snapshot it staged whole as a host mirror: its pooled
//! chunks, its block digests and the source [`Version`] it was taken at. The
//! next whole copy of the same source asks the source what changed since
//! that version ([`SnapshotSource::dirty_since`]) and shares the mirror's
//! chunk for every chunk no dirty range touches — no memcpy, no digest, its
//! block values read from the mirror's digests once those are settled,
//! after the weights are back. It copies and digests the rest. The mirror
//! is speculation, so it is validated: each such copy compares one carried
//! chunk, rotating through the snapshot, with the GPU's bytes while it
//! still holds them, and on a mismatch copies the whole snapshot, drops the
//! mirror and raises an `anomaly` event. The bytes that reach the frame are
//! the ones a full copy would have staged, so nothing downstream changes.
//!
//! *The digests are taken out of order, on that pool.* The state digest is
//! a fold over per-block values ([`pccheck_util::fnv`]) and a record's
//! content address a fold over the values of its own blocks, so each
//! chunk's pool job makes one pass over its chunk: it files the values of
//! the blocks the chunk wholly covers into the checkpoint's block table and
//! the chunk's address into its address table — on a block-aligned geometry
//! the same values serve both — and then goes on to what it was queued for.
//! The coordinator folds the block table once its batch has drained. A
//! block cut by a chunk boundary is whole in no job; the staging producer,
//! which sees the bytes in order, carries the head of the one open block (at
//! most a block of bytes) and files it when a later chunk closes it — the
//! restore executor's cut-block rule (DESIGN §9) from the producer's side:
//! one rule, nothing to do on an aligned geometry, no branch on geometry.
//!
//! Three rules keep that free of deadlock:
//!
//! 1. *A pool worker never waits on another job.* Digests, compressions
//!    and writes are the only pool jobs and none blocks on the pool; the
//!    thread that fans a checkpoint out and waits for it (the caller of the
//!    copy verb — the engine's coordinator, a baseline's training or
//!    background thread) is never a pool worker.
//! 2. *A reservation that waits holds nothing, and nothing idle holds what
//!    it waits for.* The staged and codec copies give back the mirror
//!    chunks they will not carry, then take all the chunks they copy in one
//!    step. One that would have to wait gives up its carry too and copies
//!    the whole snapshot, evicts every idle mirror (one no staging has
//!    checked out), and, while it waits, no new mirror is kept: the chunks
//!    still held then belong to checkpoints in flight, which free them. The
//!    streamed copy may hold a partial set, because every chunk it holds is
//!    already a queued, self-contained write that frees its buffer when it
//!    runs; when it must wait for one more it evicts too. Whole copies of
//!    one engine stage in ticket order (`engine.rs`), so a newer one never
//!    sits on its chunks waiting for the lease of an older one still
//!    waiting for chunks.
//! 3. *A failed checkpoint cleans up before it reports.* The first error
//!    cancels the checkpoint's queued jobs (their buffers go back
//!    unwritten), the producer stops and releases the weights, and the
//!    verb returns only once every job it queued has run or been
//!    cancelled — so no job outlives the lease it writes under, and the
//!    pool is as usable afterwards as before.
//!
//! [`PersistentDevice::queue_depths`]: pccheck_device::PersistentDevice::queue_depths
//! [`Version`]: pccheck_gpu::Version

use std::any::Any;
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use pccheck_util::sync::{Condvar, Mutex};

use pccheck_device::{HostBuffer, HostBufferPool};
use pccheck_gpu::{SnapshotSource, StateDigest, Version};
use pccheck_telemetry::{FlightEventKind, Phase, SpanId, Telemetry};
use pccheck_util::fnv::{chunk_digest, file_blocks, fold_blocks, whole_blocks, DIGEST_BLOCK};
use pccheck_util::ByteSize;

use crate::codec::{compress_gated, ChunkEncoding, DedupHome, DedupIndex, FrameRecord, FrameTable};
use crate::error::PccheckError;
use crate::meta::{checksum, DeltaLink};
use crate::pool::{Order, WorkerPool};
use crate::qos::QosArbiter;
use crate::store::{CheckpointStore, CommitOutcome, JobId, Namespace, SlotLease};

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

/// How [`PersistPipeline::copy`] stages a snapshot and packs its frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CopyMode {
    /// All-`Raw`, pipelined (Figure 7): writers persist already-copied
    /// chunks while the producer copies the next, and each DRAM buffer
    /// returns to the pool the moment its chunk is written.
    Streamed,
    /// All-`Raw`, staged (Figure 6): the producer stages the entire
    /// snapshot before the first write, so the pool must hold it.
    Staged,
    /// The chunk codec: the snapshot is staged whole, then every chunk
    /// deduplicated, compressed or kept verbatim. A pool too small to stage
    /// the snapshot streams it all-`Raw`.
    Codec,
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
/// digest, compress or write theirs, a mirror keeps one for the next
/// snapshot to carry — and the last one dropped hands it back to the pool.
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

/// The digests of one snapshot, gathered out of order: the state digest's
/// block values by block index and each chunk's content address by chunk
/// index, filed by whoever had the bytes in hand and folded by the
/// coordinator once the checkpoint's batch has drained (module docs, "Who
/// waits for what"). Same definitions as [`pccheck_util::fnv`]'s in-order
/// forms, without their order.
struct Digests {
    /// The iteration the checkpoint's commit records, which the state
    /// digest folds in.
    iteration: u64,
    len: u64,
    /// The staging chunk size: chunk `i` starts at `i × chunk`.
    chunk: u64,
    /// Relaxed throughout: every job hands the batch's mutex to
    /// [`Batch::wait`], which orders the stores before the fold's loads,
    /// and the owner settles under `settled`'s mutex, which orders them
    /// before a later snapshot carries them.
    blocks: Vec<AtomicU64>,
    addresses: Vec<AtomicU64>,
    /// `None` while some value may still be on its way; then whether every
    /// value was filed. The first verdict stands.
    settled: Mutex<Option<bool>>,
    settle: Condvar,
}

impl Digests {
    fn of(iteration: u64, total: ByteSize, chunk: u64) -> Arc<Self> {
        let cells = |n: u64| (0..n).map(|_| AtomicU64::new(0)).collect();
        Arc::new(Digests {
            iteration,
            len: total.as_u64(),
            chunk,
            blocks: cells(total.as_u64().div_ceil(DIGEST_BLOCK as u64)),
            addresses: cells(total.as_u64().div_ceil(chunk)),
            settled: Mutex::new(None),
            settle: Condvar::new(),
        })
    }

    /// Records the verdict; `true` when this call was the first.
    fn settle(&self, filed: bool) -> bool {
        let mut settled = self.settled.lock();
        let first = settled.is_none();
        if first {
            *settled = Some(filed);
            self.settle.notify_all();
        }
        first
    }

    /// Waits for the verdict: whether every value was filed.
    fn settled(&self) -> bool {
        let mut settled = self.settled.lock();
        loop {
            match *settled {
                Some(filed) => return filed,
                None => settled = self.settle.wait(settled),
            }
        }
    }

    /// Files chunk `i`'s values from `from`, a settled snapshot of the same
    /// geometry whose chunk `i` held the same bytes: the blocks the chunk
    /// wholly covers and its content address (the blocks a chunk boundary
    /// cuts are the producer's, [`file_cut`](Self::file_cut)).
    fn carry(&self, from: &Digests, i: usize) {
        let off = i as u64 * self.chunk;
        let len = self.chunk.min(self.len - off) as usize;
        let (head, whole) = whole_blocks(off, len, self.len);
        let first = ((off + head as u64) / DIGEST_BLOCK as u64) as usize;
        let copy = |cell: &AtomicU64, from: &AtomicU64| {
            cell.store(from.load(Ordering::Relaxed), Ordering::Relaxed)
        };
        for b in first..first + whole.div_ceil(DIGEST_BLOCK) {
            copy(&self.blocks[b], &from.blocks[b]);
        }
        copy(&self.addresses[i], &from.addresses[i]);
    }

    /// A chunk's pool job: one pass over `chunk`, staged from offset `off`,
    /// files the values of the blocks it wholly covers and its content
    /// address.
    fn file(&self, off: u64, chunk: &[u8]) {
        let store = |cell: &AtomicU64, value| cell.store(value, Ordering::Relaxed);
        let address = file_blocks(off, chunk, self.len, |i, v| store(&self.blocks[i], v));
        store(&self.addresses[(off / self.chunk) as usize], address);
    }

    /// The producer's share, as `chunk` goes by: the blocks a chunk
    /// boundary cuts, which no job sees whole. `open` carries the head of
    /// the one such block that is open between two chunks — never more
    /// than a block of bytes, and none at all on an aligned geometry.
    fn file_cut(&self, open: &mut Vec<u8>, off: u64, chunk: &[u8]) {
        let (head, whole) = whole_blocks(off, chunk.len(), self.len);
        open.extend_from_slice(&chunk[..head]);
        if open.len() == DIGEST_BLOCK || (head > 0 && off + head as u64 == self.len) {
            let cell = &self.blocks[(off / DIGEST_BLOCK as u64) as usize];
            cell.store(chunk_digest(open), Ordering::Relaxed);
            open.clear();
        }
        open.extend_from_slice(&chunk[head + whole..]);
    }

    /// The state digest, once every block has been filed.
    fn fold(&self) -> StateDigest {
        let values = self.blocks.iter().map(|cell| cell.load(Ordering::Relaxed));
        StateDigest(fold_blocks(self.iteration, self.len, values))
    }

    /// The chunks' content addresses, once every chunk has been filed.
    fn addresses(&self) -> Vec<u64> {
        let addresses = self.addresses.iter();
        addresses.map(|cell| cell.load(Ordering::Relaxed)).collect()
    }

    /// The all-`Raw` table of checkpoint `counter`: one record per chunk.
    fn all_raw(&self, counter: u64) -> FrameTable {
        let (chunk, len) = (self.chunk, self.len);
        let lens = (0..len)
            .step_by(chunk as usize)
            .map(|off| chunk.min(len - off));
        FrameTable::all_raw(counter, self.fold().0, lens.zip(self.addresses()))
    }
}

/// How [`PersistPipeline::stage`] takes its DRAM (module docs, rule 2) and
/// what it queues for each chunk it copies.
#[derive(Clone, Copy)]
enum Reserve<'a> {
    /// The whole snapshot in one step, carrying what the job's mirror
    /// still holds: each copied chunk's digest job goes on the batch, and
    /// the staged snapshot becomes the job's mirror.
    Whole(&'a Arc<Batch>),
    /// Chunk by chunk, waiting when DRAM is scarce: each chunk is written
    /// at `packed` plus its offset by a job on the batch, which frees it.
    /// Staging stops when the batch aborts.
    Streaming { batch: &'a Arc<Batch>, packed: u64 },
}

/// What [`PersistPipeline::stage`] staged.
struct Staging {
    /// When the `GpuCopy` phase started.
    start: u64,
    /// A whole reservation's chunks in order, carried ones included.
    chunks: Vec<StagedChunk>,
    /// The chunks carried from the mirror, and its digests to read their
    /// values from.
    carried: Option<(Arc<Digests>, Vec<usize>)>,
    /// Bytes changed since the mirror was staged: the whole state when
    /// there was none to carry from.
    dirty: u64,
}

/// What a whole copy takes from its job's mirror.
struct Carry {
    /// By chunk index: the mirror's chunk, where it still holds the
    /// source's bytes.
    chunks: Vec<Option<StagedChunk>>,
    /// The mirror's digests, to file the carried chunks' values from.
    from: Option<Arc<Digests>>,
    /// Bytes changed since the mirror was staged: the whole state when
    /// nothing is known.
    dirty: u64,
    /// Where the next mirror's validation sample starts.
    cursor: usize,
}

impl Carry {
    fn nothing(n_chunks: usize, dirty: u64) -> Self {
        Carry {
            chunks: vec![None; n_chunks],
            from: None,
            dirty,
            cursor: 0,
        }
    }
}

/// A job's last whole-staged snapshot (module docs, "Who waits for what").
struct Mirror {
    version: Version,
    chunks: Vec<StagedChunk>,
    digests: Arc<Digests>,
    /// Where the next validation sample starts looking for a carried chunk.
    cursor: usize,
}

/// The mirrors of every job, and the reservations waiting for DRAM: while
/// any waits, no mirror is kept (module docs, rule 2).
#[derive(Default)]
struct Mirrors {
    by_job: HashMap<JobId, Mirror>,
    waiting: usize,
}

impl std::fmt::Debug for Mirrors {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mirrors")
            .field("jobs", &self.by_job.keys().collect::<Vec<_>>())
            .field("waiting", &self.waiting)
            .finish()
    }
}

/// Until its copy has filed every value, a whole copy's digests are
/// unsettled; leaving before that — a job of theirs unwound — settles them
/// incomplete and drops the mirror that shares them, so no later snapshot
/// carries values that were never filed.
struct Unfiled<'a> {
    mirrors: &'a Mutex<Mirrors>,
    digests: &'a Arc<Digests>,
}

impl Drop for Unfiled<'_> {
    fn drop(&mut self) {
        if self.digests.settle(false) {
            let mut mirrors = self.mirrors.lock();
            (mirrors.by_job).retain(|_, m| !Arc::ptr_eq(&m.digests, self.digests));
        }
    }
}

/// Where [`PersistPipeline::copy`] gets the slot it writes into: a lease
/// the caller already holds (`&SlotLease`), or a [`DeferredLease`] the copy
/// takes when its first write needs a slot.
pub trait LeaseSlot {
    /// The tenant whose slot it is.
    fn job(&self) -> JobId;

    /// The lease, taken now if it has not been yet.
    fn leased(&mut self) -> &SlotLease;
}

impl LeaseSlot for &SlotLease {
    fn job(&self) -> JobId {
        SlotLease::job(self)
    }

    fn leased(&mut self) -> &SlotLease {
        self
    }
}

/// A slot leased by a closure the first time [`PersistPipeline::copy`]
/// needs one — for a caller whose leases must follow an order of its own
/// (the engine's tickets) without making the trainer wait for it.
pub struct DeferredLease<'a> {
    job: JobId,
    take: Option<Box<dyn FnOnce() -> SlotLease + 'a>>,
    lease: Option<SlotLease>,
}

impl<'a> DeferredLease<'a> {
    /// A slot of `job`'s, leased by `take`.
    pub fn new(job: JobId, take: impl FnOnce() -> SlotLease + 'a) -> Self {
        DeferredLease {
            job,
            take: Some(Box::new(take)),
            lease: None,
        }
    }

    /// The lease, once taken: after a copy that returned `Ok`, always.
    pub fn into_lease(self) -> Option<SlotLease> {
        self.lease
    }
}

impl LeaseSlot for &mut DeferredLease<'_> {
    fn job(&self) -> JobId {
        self.job
    }

    fn leased(&mut self) -> &SlotLease {
        let take = &mut self.take;
        (self.lease).get_or_insert_with(|| take.take().expect("taken at most once")())
    }
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
    /// in a device call or computing on a chunk (digests, LZ), so only what
    /// is left of a leg is time it spent queued.
    legs: Vec<(u64, u64)>,
}

/// One checkpoint's fan-out onto the writer pool: the jobs the copy verb
/// queued, the first failure among them, and what each worker moved. The
/// verb's thread submits, then [`wait`](Batch::wait)s; the jobs own an
/// `Arc` of the batch and nothing of the pipeline.
struct Batch {
    io: ChunkIo,
    telemetry: Telemetry,
    span: SpanId,
    /// Where the jobs queue: at the checkpoint's counter once it is leased,
    /// behind every leased checkpoint of the tenant before.
    order: Order,
    /// The slot writes go to; `None` for a batch that writes nothing.
    at: Option<SlotRef>,
    opened_nanos: u64,
    /// Set by the first failure: queued jobs are cancelled, and the
    /// producer polls it to stop copying.
    abort: AtomicBool,
    state: Mutex<BatchState>,
    drained: Condvar,
}

impl Batch {
    fn open(io: &ChunkIo, ctx: PipelineCtx<'_>, lease: &SlotLease) -> Arc<Batch> {
        let at = SlotRef::of(lease);
        Self::queued(io, ctx, at.tenant, at.counter, Some(at))
    }

    /// A batch of `job`'s jobs that need no slot, queued before its lease.
    fn unleased(io: &ChunkIo, ctx: PipelineCtx<'_>, job: JobId) -> Arc<Batch> {
        Self::queued(io, ctx, job, u64::MAX, None)
    }

    fn queued(
        io: &ChunkIo,
        ctx: PipelineCtx<'_>,
        tenant: JobId,
        counter: u64,
        at: Option<SlotRef>,
    ) -> Arc<Batch> {
        Arc::new(Batch {
            io: io.clone(),
            telemetry: ctx.telemetry.clone(),
            span: ctx.span,
            order: Order { tenant, counter },
            at,
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
        workers.submit(
            self.order,
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
    /// payload offset `at`, under the tenant's per-chunk QoS grant. With
    /// `digests`, `data` is the chunk staged from logical offset `off` and
    /// the job first files its digests, while it is the one thing the
    /// worker has in cache.
    fn write<D: AsRef<[u8]> + Send + 'static>(
        self: &Arc<Self>,
        workers: &WorkerPool,
        at: u64,
        data: D,
        digests: Option<(&Arc<Digests>, u64)>,
    ) {
        let digests = digests.map(|(d, off)| (Arc::clone(d), off));
        let slot = self.at.expect("writes go to a leased slot");
        self.submit(workers, move |batch| {
            let bytes = data.as_ref();
            let digesting = digests.map_or(0, |(digests, off)| {
                batch.busy(|| digests.file(off, bytes)).1
            });
            let media = batch
                .io
                .write_and_fence_chunk(batch.ctx(), slot, at, bytes)?;
            Ok((bytes.len() as u64, digesting + media))
        });
    }

    /// Queues the filing of `piece`'s digests, staged from logical offset
    /// `off`.
    fn file(
        self: &Arc<Self>,
        workers: &WorkerPool,
        digests: &Arc<Digests>,
        off: u64,
        piece: StagedChunk,
    ) {
        let digests = Arc::clone(digests);
        self.submit(workers, move |batch| {
            Ok((0, batch.busy(|| digests.file(off, piece.as_ref())).1))
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
        for (w, &(bytes, busy)) in legs.iter().enumerate() {
            if bytes > 0 || busy > 0 {
                self.telemetry.actor_span_split(
                    self.span,
                    format_args!("writer-{w}"),
                    self.opened_nanos,
                    bytes,
                    busy,
                );
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
    /// The DRAM staging pool every copy stages through.
    pool: HostBufferPool,
    /// The resident writer pool (`p` workers in the paper), shared across
    /// clones and by every checkpoint in flight. Its width is fixed at
    /// build.
    workers: Arc<WorkerPool>,
    /// Chunk codec + dedup state, shared across clones (the dedup index
    /// survives across checkpoints).
    codec: Arc<CodecState>,
    /// Each job's last whole-staged snapshot, shared across clones.
    mirrors: Arc<Mutex<Mirrors>>,
}

/// Shared chunk-codec state: the on/off switch and the content-addressed
/// index of chunk homes as of each job's latest codec commit.
#[derive(Debug, Default)]
struct CodecState {
    enabled: AtomicBool,
    dedup: Mutex<DedupIndex>,
}

/// What [`copy`](PersistPipeline::copy) left in the leased slot: the
/// argument of [`seal`](PersistPipeline::seal) and
/// [`commit`](PersistPipeline::commit).
#[derive(Debug, Clone)]
pub struct Copied {
    /// Persist-phase start timestamp `seal` closes the phase against: the
    /// copy's start when streamed, the end of staging otherwise.
    pub persist_start: u64,
    /// Physical bytes in the slot: the frame's table and packed chunks.
    pub payload_len: u64,
    /// End-to-end digest of the logical state, folded on the writer pool
    /// from the bytes the copy staged: exactly [`pccheck_gpu::Gpu::digest`]
    /// of the snapshot. The frame's table carries it.
    pub state_digest: StateDigest,
    /// What the commit binds of the frame the copy wrote.
    pub frame: FramedPlan,
}

/// The frame half of what a copy persisted, for
/// [`PersistPipeline::commit`] to bind to the commit record. An all-`Raw`
/// frame links nothing, saved nothing and has no homes to install.
#[derive(Debug, Clone, Default)]
pub struct FramedPlan {
    /// Checksum of the serialized frame table (the slot's meta digest: it
    /// binds the table, and through it every chunk, to the commit).
    pub payload_digest: u64,
    /// Back-pointer to the youngest home any chunk references — its chain
    /// pins every other home the frame names. Present iff any chunk
    /// deduplicated against an earlier checkpoint.
    pub link: Option<DeltaLink>,
    /// Bytes the codec avoided persisting (`logical - packed`).
    pub saved_bytes: u64,
    /// Chunks stored as dedup references instead of materialized bytes.
    pub dedup_chunks: u64,
    /// The next dedup generation, `(digest, home)`: a codec frame's
    /// materialized chunks homed at itself plus every base hit it took,
    /// carried forward unchanged. Commit installs it.
    pub homes: Vec<(u64, DedupHome)>,
}

impl PersistPipeline {
    /// A single-writer, per-writer-fence pipeline over `store` that stages
    /// every copy through `pool`: the whole snapshot unless streamed, so
    /// size it by the [`CopyMode`]s it will serve.
    pub fn new(store: Arc<CheckpointStore>, pool: HostBufferPool) -> Self {
        PersistPipeline {
            io: ChunkIo {
                store,
                fence: FenceMode::PerWriter,
                qos: None,
            },
            pool,
            workers: Arc::new(WorkerPool::new("pccheck-writer", 1)),
            codec: Arc::new(CodecState::default()),
            mirrors: Arc::default(),
        }
    }

    /// Sets the number of parallel writer threads (`p` in the paper).
    /// Call it while building, before any clone shares the pool.
    pub fn with_writers(mut self, writers: usize) -> Self {
        self.workers = Arc::new(WorkerPool::new("pccheck-writer", writers));
        self
    }

    /// The writer-pool width.
    pub fn writers(&self) -> usize {
        self.workers.width()
    }

    /// Enables or disables the chunk codec at build time.
    pub fn with_codec(self, enabled: bool) -> Self {
        self.set_codec_enabled(enabled);
        self
    }

    /// Flips the chunk codec. Disabling also drops the dedup index —
    /// re-enabling starts from a cold index rather than trusting
    /// generations whose age is unknown, as a restart with the codec back
    /// on would — and every job's mirror, giving their DRAM back to the
    /// streamed copies.
    pub(crate) fn set_codec_enabled(&self, enabled: bool) {
        let was = self.codec.enabled.swap(enabled, Ordering::AcqRel);
        if was && !enabled {
            self.codec.dedup.lock().clear();
            self.mirrors.lock().by_job.clear();
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

    /// The DRAM staging pool.
    pub fn staging_pool(&self) -> &HostBufferPool {
        &self.pool
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

    /// Takes `n` chunks in one step (module docs, rule 2): at once when
    /// they are free; otherwise it evicts every idle mirror and, until it is
    /// served, keeps any new one from being published.
    fn reserve(&self, n: usize) -> Vec<HostBuffer> {
        let pool = &self.pool;
        if let Some(buffers) = pool.try_acquire_many(n) {
            return buffers;
        }
        {
            let mut mirrors = self.mirrors.lock();
            mirrors.waiting += 1;
            mirrors.by_job.clear();
        }
        let buffers = pool.acquire_many(n);
        self.mirrors.lock().waiting -= 1;
        buffers
    }

    /// Checks `job`'s mirror out and keeps, by chunk index, the chunks of
    /// it `src` may carry: those no range dirtied since the mirror was
    /// staged touches. One of them — the first at or after the mirror's
    /// cursor — is compared with the GPU's bytes first; on a mismatch the
    /// tracker missed a write, and nothing is carried. A mirror of another
    /// source or geometry, or older than the source's log reaches, carries
    /// nothing either. The rest of the mirror is dropped.
    fn plan_carry(
        &self,
        ctx: PipelineCtx<'_>,
        src: &impl SnapshotSource,
        job: JobId,
        digests: &Digests,
    ) -> Carry {
        let (chunk, total) = (digests.chunk, digests.len);
        let n = total.div_ceil(chunk) as usize;
        let nothing = Carry::nothing(n, total);
        let (Some(version), Some(mirror)) =
            (src.version(), self.mirrors.lock().by_job.remove(&job))
        else {
            return nothing;
        };
        let same = mirror.version.source == version.source
            && (mirror.digests.len, mirror.digests.chunk) == (total, chunk);
        let Some(ranges) = same.then(|| src.dirty_since(mirror.version.seq)).flatten() else {
            return nothing;
        };
        let mut chunks: Vec<Option<StagedChunk>> = mirror.chunks.into_iter().map(Some).collect();
        for &(off, len) in ranges.iter().filter(|&&(off, len)| len > 0 && off < total) {
            let last = (off + len - 1).min(total - 1) / chunk;
            chunks[(off / chunk) as usize..=last as usize].fill(None);
        }
        let dirty = ranges.iter().map(|&(_, len)| len).sum::<u64>().min(total);
        let sample = (0..n)
            .map(|k| (mirror.cursor + k) % n)
            .find(|&i| chunks[i].is_some());
        if let Some(i) = sample {
            let carried = chunks[i].as_ref().expect("a carried chunk").as_ref();
            let mut gpu = vec![0u8; carried.len()];
            src.copy_range_to_host(i as u64 * chunk, &mut gpu);
            // One memcmp while the weights are held; the byte count that
            // sizes the anomaly is taken only on a mismatch.
            if gpu != carried {
                let differ = gpu.iter().zip(carried).filter(|(a, b)| a != b).count();
                let share = differ as f64 / carried.len() as f64;
                ctx.telemetry
                    .anomaly(digests.iteration, share, 0.0, f64::INFINITY);
                return Carry::nothing(n, dirty);
            }
        }
        Carry {
            chunks,
            from: Some(mirror.digests),
            dirty,
            cursor: sample.map_or(0, |i| (i + 1) % n),
        }
    }

    /// The one staging loop: copies the snapshot GPU→DRAM into pooled
    /// chunks, taken from the pool as `reserve` says, and queues each copied
    /// chunk's job on the reservation's batch. The producer does nothing
    /// else with the bytes — filing `digests` is the chunks' pool jobs'
    /// work — except for the blocks a chunk boundary cuts, which it files
    /// from a carry of at most one block. A whole reservation copies only
    /// what its job's mirror cannot carry ([`plan_carry`](Self::plan_carry))
    /// and publishes what it staged as the job's next mirror. Drops `src`
    /// (the weights go back to training) the moment the last chunk is
    /// staged, then closes the `GpuCopy` phase.
    ///
    /// # Errors
    ///
    /// [`PccheckError::InvalidConfig`] when the pool cannot hold a whole
    /// reservation; the source is untouched.
    fn stage<S: SnapshotSource>(
        &self,
        ctx: PipelineCtx<'_>,
        src: S,
        job: JobId,
        digests: &Arc<Digests>,
        reserve: Reserve<'_>,
    ) -> Result<Staging, PccheckError> {
        let (chunk, total) = (digests.chunk, digests.len);
        let n_chunks = total.div_ceil(chunk) as usize;
        let mut carry = Carry::nothing(n_chunks, total);
        let mut reserved = Vec::new();
        if let Reserve::Whole(_) = reserve {
            let pool = &self.pool;
            if pool.total_chunks() < n_chunks {
                return Err(PccheckError::InvalidConfig(format!(
                    "staging a whole {} snapshot needs {n_chunks} chunks, the pool has {}",
                    ByteSize::from_bytes(total),
                    pool.total_chunks()
                )));
            }
            carry = self.plan_carry(ctx, &src, job, digests);
            let copies = carry.chunks.iter().filter(|c| c.is_none()).count();
            reserved = match pool.try_acquire_many(copies) {
                Some(buffers) => buffers,
                None => {
                    // Waiting holds nothing: the carry goes back too.
                    carry = Carry::nothing(n_chunks, carry.dirty);
                    self.reserve(n_chunks)
                }
            };
        }
        let stopped = || matches!(reserve, Reserve::Streaming { batch, .. } if batch.aborted());
        let copy_start = ctx.telemetry.now_nanos();
        let mut open = Vec::new();
        let (mut chunks, mut carried) = (Vec::new(), Vec::new());
        for (i, mirrored) in carry.chunks.into_iter().enumerate() {
            if stopped() {
                break;
            }
            let off = i as u64 * chunk;
            let (piece, copied) = match mirrored {
                Some(piece) => (piece, false),
                None => {
                    let len = chunk.min(total - off) as usize;
                    let mut buf = match reserved.pop() {
                        Some(buf) => buf,
                        None => self.reserve(1).remove(0),
                    };
                    src.copy_range_to_host(off, &mut buf.as_mut_slice()[..len]);
                    ctx.telemetry
                        .chunk(ctx.span, Phase::GpuCopy, off, len as u64);
                    let buf = Arc::new(buf);
                    (StagedChunk { buf, len }, true)
                }
            };
            digests.file_cut(&mut open, off, piece.as_ref());
            match reserve {
                Reserve::Whole(batch) => {
                    if copied {
                        batch.file(&self.workers, digests, off, piece.clone());
                    } else {
                        carried.push(i);
                    }
                    chunks.push(piece);
                }
                Reserve::Streaming { batch, packed } => {
                    batch.write(&self.workers, packed + off, piece, Some((digests, off)))
                }
            }
        }
        if let (Reserve::Whole(_), Some(version)) = (reserve, src.version()) {
            let mirror = Mirror {
                version,
                chunks: chunks.clone(),
                digests: Arc::clone(digests),
                cursor: carry.cursor,
            };
            let mut mirrors = self.mirrors.lock();
            if mirrors.waiting == 0 {
                mirrors.by_job.insert(job, mirror);
            }
        }
        drop(src);
        ctx.telemetry
            .phase_done(ctx.span, Phase::GpuCopy, copy_start);
        Ok(Staging {
            start: copy_start,
            chunks,
            carried: carry
                .from
                .filter(|_| !carried.is_empty())
                .map(|from| (from, carried)),
            dirty: carry.dirty,
        })
    }

    /// Files the values of the chunks `staging` carried: read from the
    /// mirror's digests once those are settled, or — some job of the
    /// mirror's never ran — taken afresh by jobs on `batch`.
    fn file_carried(&self, batch: &Arc<Batch>, digests: &Arc<Digests>, staging: &Staging) {
        let Some((from, carried)) = &staging.carried else {
            return;
        };
        let settled = from.settled();
        for &i in carried {
            if settled {
                digests.carry(from, i);
            } else {
                let (off, piece) = (i as u64 * digests.chunk, staging.chunks[i].clone());
                batch.file(&self.workers, digests, off, piece);
            }
        }
    }

    /// Writes an already staged snapshot verbatim, chunk `i` at payload
    /// offset `packed + i × chunk size`; each buffer returns to the pool the
    /// moment its write returns, unless a mirror still shares it.
    fn write_staged(
        &self,
        ctx: PipelineCtx<'_>,
        lease: &SlotLease,
        packed: u64,
        staged: Vec<StagedChunk>,
    ) -> Result<(), PccheckError> {
        let chunk = self.pool.chunk_size().as_u64();
        let batch = Batch::open(&self.io, ctx, lease);
        for (i, piece) in staged.into_iter().enumerate() {
            batch.write(&self.workers, packed + i as u64 * chunk, piece, None);
        }
        batch.wait()
    }

    /// The one copy verb: copies the snapshot GPU→DRAM into pooled
    /// chunks — the calling thread copies, the writer pool digests and
    /// persists — and writes it into its slot as a frame, its table last so
    /// a torn frame is never mistaken for a complete one. `mode` says how
    /// it stages and what it packs ([`CopyMode`]); every chunk the codec
    /// does not pack is written verbatim at its packed offset under an
    /// all-`Raw` table.
    ///
    /// `src` is consumed: it is dropped — handing the weights back to
    /// training — as soon as the last chunk is in DRAM, before the codec
    /// classifies, compresses or packs anything and while the streamed
    /// copy's writes are still landing. Pass `&guard` to keep a guard.
    ///
    /// `iteration` is the one the commit will record: the state digest the
    /// frame carries is folded with it, not with the source's step count.
    /// Restore verifies against the committed iteration and sets the GPU's
    /// step to it, so the frame verifies and the restored GPU's digest is
    /// the one this copy returns.
    ///
    /// `slot` is leased when the first write needs it: before staging when
    /// streamed, after `src` is dropped otherwise (module docs, "Who waits
    /// for what"). A staged or codec copy stages the whole snapshot through
    /// its job's host mirror, copying only the chunks the source dirtied
    /// since the mirror was staged.
    ///
    /// The codec deduplicates byte-identical chunks within the frame and
    /// against the homes the job's head installed, taking a base hit iff
    /// `home.depth + 1` fits the chain cap (7) and the lease's slot budget
    /// minus two; the frame links to the youngest home it references (see
    /// the `codec` module docs, "Dedup index lifetime"). It compresses the
    /// rest on the writer pool, and writes the all-`Raw` frame of the
    /// chunks it already staged — no second GPU copy, no second digest —
    /// when its packed chunks would not be smaller than the state. It needs
    /// every chunk's content address before any byte is packed, so a pool
    /// too small to stage the snapshot streams it all-`Raw` instead,
    /// decided before the source is touched.
    ///
    /// The returned [`Copied::persist_start`] lets the caller close the
    /// phase after [`seal`](Self::seal): the copy start when streamed (the
    /// phases overlap), the end of staging otherwise.
    ///
    /// # Errors
    ///
    /// [`PccheckError::InvalidConfig`] when a staged copy's pool cannot
    /// hold the snapshot, or a write falls past a slot too small for the
    /// snapshot's all-`Raw` frame; otherwise the first device error any
    /// writer hit — in either case after the checkpoint's remaining queued
    /// jobs were cancelled.
    pub fn copy<S: SnapshotSource>(
        &self,
        ctx: PipelineCtx<'_>,
        src: S,
        mut slot: impl LeaseSlot,
        iteration: u64,
        total: ByteSize,
        mode: CopyMode,
    ) -> Result<Copied, PccheckError> {
        let pool = &self.pool;
        let chunk = pool.chunk_size().as_u64();
        let n_chunks = total.as_u64().div_ceil(chunk) as usize;
        let packed = FrameTable::encoded_len_for(n_chunks);
        let mode = match mode {
            CopyMode::Codec if n_chunks == 0 || pool.total_chunks() < n_chunks => {
                CopyMode::Streamed
            }
            mode => mode,
        };
        let job = slot.job();
        let digests = Digests::of(iteration, total, chunk);
        let copy_done = |lease: &SlotLease| {
            let (counter, slot, len) = (lease.counter, lease.slot, total.as_u64());
            let flight = self.io.store.flight();
            flight.record(FlightEventKind::CopyDone, counter, slot, 0, len, 0);
        };
        let (lease, persist_start, codec) = match mode {
            CopyMode::Streamed => {
                let lease = slot.leased();
                let batch = Batch::open(&self.io, ctx, lease);
                let reserve = Reserve::Streaming {
                    batch: &batch,
                    packed,
                };
                let staging = self.stage(ctx, src, job, &digests, reserve)?;
                batch.wait()?;
                copy_done(lease);
                (lease, staging.start, None)
            }
            CopyMode::Staged | CopyMode::Codec => {
                // The copied chunks' digest jobs queue before the lease; the
                // carried chunks' values follow once the lease is taken.
                let filing = Batch::unleased(&self.io, ctx, job);
                let staging = self.stage(ctx, src, job, &digests, Reserve::Whole(&filing))?;
                let _unfiled = Unfiled {
                    mirrors: &self.mirrors,
                    digests: &digests,
                };
                let start = ctx.telemetry.now_nanos();
                let lease = slot.leased();
                copy_done(lease);
                self.file_carried(&filing, &digests, &staging);
                filing.wait()?;
                digests.settle(true);
                let codec = match mode {
                    CopyMode::Codec => {
                        // The dirty-ratio gauge: how much of the state
                        // changed since the job's last snapshot.
                        let permille = staging.dirty * 1000 / total.as_u64().max(1);
                        ctx.telemetry.gauge_dirty_ratio(permille);
                        self.pack(ctx, lease, &staging.chunks, &digests)?
                    }
                    _ => None,
                };
                if codec.is_none() {
                    // Staged, or a frame that would not pay: the snapshot is
                    // in DRAM and digested, and the source is gone, so it
                    // goes out as the all-`Raw` frame it is.
                    self.write_staged(ctx, lease, packed, staging.chunks)?;
                }
                (lease, start, codec)
            }
        };

        let all_raw = || (digests.all_raw(lease.counter), FramedPlan::default());
        let (table, plan) = codec.unwrap_or_else(all_raw);
        let table_bytes = table.encode();
        assert_eq!(table_bytes.len() as u64, packed, "the table fills its room");
        self.io
            .write_and_fence_chunk(ctx, SlotRef::of(lease), 0, &table_bytes)?;
        Ok(Copied {
            persist_start,
            payload_len: table.physical_len(),
            state_digest: StateDigest(table.full_digest),
            frame: FramedPlan {
                payload_digest: checksum(&table_bytes),
                ..plan
            },
        })
    }

    /// The codec's half of [`copy`](Self::copy), once the snapshot is
    /// staged and `digests` complete: classifies every chunk — self-dedup
    /// (byte compare — exact), then base dedup (content address against
    /// the head's homes), then materialize — compresses the materialized
    /// ones on the writer pool and, when the packed chunks are smaller than
    /// the state, writes them behind the table's room and returns the table
    /// and what the commit binds of it besides its checksum. `None` —
    /// nothing written — when they are not.
    fn pack(
        &self,
        ctx: PipelineCtx<'_>,
        lease: &SlotLease,
        staged: &[StagedChunk],
        digests: &Digests,
    ) -> Result<Option<(FrameTable, FramedPlan)>, PccheckError> {
        // Cross-checkpoint dedup answers from the generation the job's
        // head installed, hit by hit: a home is referenced only while the
        // frame that links to it stays within the depth bound, and a chunk
        // homed at the bound is materialized again. A chain of depth d pins
        // d + 1 slots and the next checkpoint needs one more, so the lease's
        // slot budget bounds the depth too: a committed chain always leaves
        // a slot free.
        const MAX_CHAIN: u32 = 7;
        let ns = lease.namespace();
        let max_depth = MAX_CHAIN.min(ns.desc().slot_count.saturating_sub(2));

        let mut records: Vec<FrameRecord> = Vec::with_capacity(staged.len());
        let mut self_seen: HashMap<u64, usize> = HashMap::new();
        let mut materialized: Vec<usize> = Vec::new();
        let mut homes: Vec<(u64, DedupHome)> = Vec::new();
        {
            // The head is read under the index's lock, which a codec
            // commit holds from before its head advance until its
            // generation is installed: head and generation are one
            // observation, never a new head beside the old generation.
            let dedup = self.codec.dedup.lock();
            let head = self.io.store.latest_committed(ns).map(|h| h.counter);
            let addresses = digests.addresses();
            for (i, (piece, &digest)) in staged.iter().zip(&addresses).enumerate() {
                let n = piece.len as u64;
                let record = |kind, aux, a, b| FrameRecord {
                    kind,
                    aux,
                    logical_len: n,
                    a,
                    b,
                    digest,
                };
                if let Some(&j) = self_seen.get(&digest) {
                    if staged[j].as_ref() == piece.as_ref() {
                        records.push(record(ChunkEncoding::DedupSelf, j as u32, 0, 0));
                        continue;
                    }
                }
                let hit = head
                    .and_then(|h| dedup.lookup(lease.job(), h, digest, n))
                    .filter(|home| home.depth < max_depth);
                if let Some(home) = hit {
                    let base = ChunkEncoding::DedupBase;
                    records.push(record(base, home.slot, home.counter, home.logical_off));
                    homes.push((digest, home));
                    continue;
                }
                self_seen.entry(digest).or_insert(i);
                materialized.push(i);
                // Placeholder; phys offset/len assigned after compression.
                records.push(record(ChunkEncoding::Raw, 0, 0, 0));
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
        let logical: u64 = staged.iter().map(|piece| piece.len as u64).sum();
        if phys >= logical {
            return Ok(None);
        }

        // Persist the packed chunks through the writer pool; the table
        // follows, last. A chunk the frame stores as a reference or as LZ
        // bytes needs its DRAM no longer.
        let table_len = FrameTable::encoded_len_for(records.len());
        let batch = Batch::open(&self.io, ctx, lease);
        for &i in &materialized {
            let dst = table_len + records[i].a;
            match compressed.remove(&i) {
                Some(lz) => batch.write(&self.workers, dst, lz, None),
                None => batch.write(&self.workers, dst, staged[i].clone(), None),
            }
        }
        batch.wait()?;

        let dedup_chunks = (records.len() - materialized.len()) as u64;
        let saved_bytes = logical - phys;
        ctx.telemetry.add_codec_bytes_saved(saved_bytes);
        ctx.telemetry.add_dedup_chunks(dedup_chunks);
        ctx.telemetry
            .gauge_compression_ratio((table_len + phys) * 1000 / logical.max(1));

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
        for r in &records {
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
        let table = FrameTable {
            counter: lease.counter,
            logical_len: logical,
            full_digest: digests.fold().0,
            records,
        };
        let plan = FramedPlan {
            payload_digest: 0,
            link,
            saved_bytes,
            dedup_chunks,
            homes,
        };
        Ok(Some((table, plan)))
    }

    /// One-call checkpoint in `ns`: [`copy`](Self::copy) under `mode`,
    /// leasing a slot of `ns` when its first write needs one → `seal` →
    /// commit. `src` is the copy's, so passing a guard by value hands the
    /// weights back once the snapshot is staged; pass `&guard` to keep
    /// it. Returns what the copy left in the slot besides the commit's
    /// outcome.
    ///
    /// # Errors
    ///
    /// Those of [`copy`](Self::copy), then device errors of the seal and
    /// commit; a failed checkpoint's lease gives its slot back.
    pub fn checkpoint_framed<S: SnapshotSource>(
        &self,
        ctx: PipelineCtx<'_>,
        ns: &Arc<Namespace>,
        src: S,
        iteration: u64,
        mode: CopyMode,
    ) -> Result<(CommitOutcome, Copied), PccheckError> {
        let total = src.size();
        let mut slot = DeferredLease::new(ns.job(), || self.lease(ctx, ns));
        let copied = self.copy(ctx, src, &mut slot, iteration, total, mode)?;
        let lease = slot.into_lease().expect("a copy that returned has leased");
        self.seal(ctx, &lease, iteration, &copied)?;
        let out = self.commit(ctx, lease, iteration, &copied)?;
        Ok((out, copied))
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
            ctx.telemetry
                .actor_span_split(ctx.span, "fence", fence_start, total.as_u64(), media);
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
    /// for what [`copy`](Self::copy) left in the slot, and closes the `Commit`
    /// phase. The commit record carries the checksum of the frame's table
    /// (which binds the state digest and every chunk); a codec frame that
    /// commits installs its homes as the job's next dedup generation —
    /// under the codec index's lock, the one lock on this path, which a
    /// frame with no homes to install never takes. Concurrent callers
    /// otherwise never serialize here; losers of the head race surface as
    /// [`CommitOutcome::SupersededBy`].
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
        let (job, counter, frame) = (lease.job(), lease.counter, &copied.frame);
        // A codec frame's commit and the install of its generation are one
        // step to the classifier of the next frame (see `pack`): it waits
        // here rather than meet the new head without its homes and
        // materialize every chunk.
        let install = (!frame.homes.is_empty()).then(|| self.codec.dedup.lock());
        let outcome = self.io.store.commit_with_delta(
            lease,
            iteration,
            copied.payload_len,
            frame.payload_digest,
            frame.link,
        )?;
        if let (CommitOutcome::Committed, Some(mut dedup)) = (outcome, install) {
            dedup.install(job, counter, frame.homes.iter().copied());
        }
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

    /// A single-tenant store whose slots hold a `state`-byte frame of
    /// records down to 64 bytes.
    fn ssd_store(state: ByteSize, slots: u32) -> Arc<CheckpointStore> {
        let slot = FrameTable::slot_size_for(state, ByteSize::from_bytes(64));
        let cap = CheckpointStore::required_capacity(slot, slots) + ByteSize::from_kb(1);
        let device: Arc<dyn PersistentDevice> =
            Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        Arc::new(CheckpointStore::format(device, StoreGeometry::single(slot, slots)).unwrap())
    }

    /// The raw copy mode: streamed (pipelined) or staged whole.
    fn raw(streamed: bool) -> CopyMode {
        if streamed {
            CopyMode::Streamed
        } else {
            CopyMode::Staged
        }
    }

    #[test]
    fn staged_and_streamed_paths_agree() {
        for streamed in [false, true] {
            let g = gpu(900, 13);
            g.update();
            let pool = HostBufferPool::new(ByteSize::from_bytes(128), 8);
            let pipeline = PersistPipeline::new(ssd_store(g.state_size(), 3), pool).with_writers(2);
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
                .copy(ctx, &guard, &lease, 1, total, raw(streamed))
                .unwrap();
            drop(guard);
            pipeline.seal(ctx, &lease, 1, &copied).unwrap();
            let outcome = pipeline.commit(ctx, lease, 1, &copied).unwrap();
            assert_eq!(outcome, CommitOutcome::Committed, "streamed={streamed}");
            let snap = telemetry.snapshot().unwrap();
            // 900 bytes in 128-byte chunks: 8 chunks through both stages,
            // then the frame's table.
            let table = FrameTable::encoded_len_for(8);
            assert_eq!(copied.payload_len, table + 900);
            assert_eq!(snap.gpu_copy_bytes, 900);
            assert_eq!(snap.persist_chunk_bytes, table + 900);
            assert_eq!(snap.write_stage.count, 9);
            assert_eq!(snap.persist_stage.count, 9);
        }
    }

    #[test]
    fn chunk_copy_paths_emit_writer_actor_spans() {
        for streamed in [false, true] {
            let g = gpu(900, 47);
            g.update();
            let pool = HostBufferPool::new(ByteSize::from_bytes(128), 8);
            let pipeline = PersistPipeline::new(ssd_store(g.state_size(), 3), pool).with_writers(2);
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
                .copy(ctx, &guard, &lease, 1, total, raw(streamed))
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
        let pipeline = PersistPipeline::new(ssd_store(g.state_size(), 2), pool)
            .with_writers(2)
            .with_fence(FenceMode::Deferred);
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
            .copy(ctx, &guard, &lease, 1, total, CopyMode::Staged)
            .unwrap();
        drop(guard);
        pipeline.seal(ctx, &lease, 1, &copied).unwrap();
        pipeline.commit(ctx, lease, 1, &copied).unwrap();
        let snap = telemetry.snapshot().unwrap();
        // 4 chunk writes and the table, but exactly one (deferred) fence.
        assert_eq!(snap.write_stage.count, 5);
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
        let slot = FrameTable::slot_size_for(g.state_size(), ByteSize::from_kb(4));
        let store =
            Arc::new(CheckpointStore::format(striped, StoreGeometry::single(slot, 2)).unwrap());
        let pipeline = PersistPipeline::new(store, HostBufferPool::new(ByteSize::from_kb(4), 1));
        let telemetry = Telemetry::enabled();
        let span = telemetry.span_requested("test", 1, 600);
        let ctx = PipelineCtx {
            telemetry: &telemetry,
            span,
        };
        let guard = g.lock_weights_shared_owned();
        let ns = default_ns(&pipeline);
        pipeline
            .checkpoint_framed(ctx, &ns, guard, 1, CopyMode::Staged)
            .unwrap();
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
            ..StoreGeometry::single(
                FrameTable::slot_size_for(state, ByteSize::from_bytes(128)),
                8,
            )
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
        let pipeline = PersistPipeline::new(store, pool)
            .with_writers(2)
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
                .copy(ctx, &guard, &lease, iter, total, CopyMode::Streamed)
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
        // ...and every chunk write, the table's too, was metered by the
        // arbiter.
        let shares = qos.shares();
        let frame = FrameTable::encoded_len_for(8) + 900;
        assert_eq!(shares.iter().find(|s| s.0 == 1).unwrap().1, frame);
        assert_eq!(shares.iter().find(|s| s.0 == 2).unwrap().1, frame);
    }

    /// GPM's shape: a streamed copy through a pool of one chunk writes a
    /// snapshot many times that chunk, holding no more DRAM than it.
    #[test]
    fn a_one_chunk_pool_streams_a_snapshot_larger_than_itself() {
        let g = gpu(900, 23);
        g.update();
        let pool = HostBufferPool::new(ByteSize::from_bytes(128), 1);
        let pipeline = PersistPipeline::new(ssd_store(g.state_size(), 2), pool);
        let telemetry = Telemetry::disabled();
        let guard = g.lock_weights_shared();
        let ns = default_ns(&pipeline);
        let (out, copied) = pipeline
            .checkpoint_framed(test_ctx(&telemetry), &ns, &guard, 1, CopyMode::Streamed)
            .unwrap();
        drop(guard);
        assert_eq!(out, CommitOutcome::Committed);
        assert_eq!(copied.state_digest, g.digest());
        assert_eq!(copied.payload_len, FrameTable::encoded_len_for(8) + 900);
        assert_eq!(pipeline.staging_pool().peak_outstanding(), 1);
        let rec = crate::recovery::recover(Arc::clone(pipeline.store().device())).unwrap();
        assert_eq!(StateDigest::of_payload(&rec.payload, 1), g.digest());
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
        let slot = FrameTable::slot_size_for(state, ByteSize::from_bytes(chunk));
        let cap = CheckpointStore::required_capacity(slot, 4) + ByteSize::from_kb(1);
        let device: Arc<dyn PersistentDevice> =
            Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let store = Arc::new(
            CheckpointStore::format(Arc::clone(&device), StoreGeometry::single(slot, 4)).unwrap(),
        );
        let pipeline = PersistPipeline::new(
            store,
            HostBufferPool::new(ByteSize::from_bytes(chunk), pool_chunks),
        )
        .with_writers(2)
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
            let slot = FrameTable::slot_size_for(state, ByteSize::from_bytes(CHUNK));
            let cap = CheckpointStore::required_capacity(slot, 2) + ByteSize::from_kb(1);
            let device = GatedDevice::new(cap);
            let store = Arc::new(
                CheckpointStore::format(
                    Arc::clone(&device) as Arc<dyn PersistentDevice>,
                    StoreGeometry::single(slot, 2),
                )
                .unwrap(),
            );
            device.gate_payloads(&store);
            if !queued {
                device.open();
            }
            let pipeline =
                PersistPipeline::new(store, HostBufferPool::new(ByteSize::from_bytes(CHUNK), 32))
                    .with_writers(WRITERS)
                    .with_codec(true);
            let pool = pipeline.staging_pool();
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
            let mode = match caller {
                "framed" => CopyMode::Codec,
                _ => raw(caller.starts_with("overlapped")),
            };
            let copy = |lease: &SlotLease| pipeline.copy(ctx, &src, lease, 1, state, mode);
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

    /// A pipeline built `p` writers wide runs its chunks on `p` resident
    /// writers, which its clones share, and every chunk is written.
    #[test]
    fn pipelines_built_at_each_width_run_that_many_writers_and_drop_no_chunk() {
        for width in 1..=4 {
            let g = gpu(900, 53);
            let pool = HostBufferPool::new(ByteSize::from_bytes(128), 8);
            let pipeline =
                PersistPipeline::new(ssd_store(g.state_size(), 3), pool).with_writers(width);
            assert_eq!(pipeline.workers.threads(), 0, "no chunk yet, no thread yet");
            let clone = pipeline.clone();
            assert_eq!(clone.writers(), width, "clones share the pool");
            let telemetry = Telemetry::enabled();
            let mut checkpoints = 0;
            for through in [&pipeline, &clone, &pipeline] {
                g.update();
                checkpoints += 1;
                let span = telemetry.span_requested("test", checkpoints, 900);
                let ctx = PipelineCtx {
                    telemetry: &telemetry,
                    span,
                };
                let lease = through.lease(ctx, &default_ns(through));
                let guard = g.lock_weights_shared_owned();
                let copied = through
                    .copy(
                        ctx,
                        guard,
                        &lease,
                        checkpoints,
                        g.state_size(),
                        CopyMode::Streamed,
                    )
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
                checkpoints * (FrameTable::encoded_len_for(8) + 900),
                "width {width}: no chunk dropped"
            );
        }
    }

    /// The writers belong to the clones collectively: dropping one clone
    /// leaves them running, dropping the last joins them.
    #[test]
    fn dropping_the_last_clone_joins_the_writers() {
        let g = gpu(900, 59);
        g.update();
        let pipeline = PersistPipeline::new(
            ssd_store(g.state_size(), 3),
            HostBufferPool::new(ByteSize::from_bytes(128), 8),
        )
        .with_writers(2);
        let telemetry = Telemetry::disabled();
        let ctx = test_ctx(&telemetry);
        let checkpoint = |through: &PersistPipeline, iter: u64| {
            let lease = through.lease(ctx, &default_ns(through));
            let copied = through
                .copy(
                    ctx,
                    g.lock_weights_shared_owned(),
                    &lease,
                    iter,
                    g.state_size(),
                    CopyMode::Streamed,
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
            ..StoreGeometry::single(
                FrameTable::slot_size_for(state, ByteSize::from_bytes(256)),
                8,
            )
        };
        let cap = geometry.required_capacity() + ByteSize::from_kb(1);
        let device: Arc<dyn PersistentDevice> =
            Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let store = Arc::new(CheckpointStore::format(device, geometry).unwrap());
        let tenants = [
            store.allocate_namespace(1, 4).unwrap(),
            store.allocate_namespace(2, 4).unwrap(),
        ];
        let pipeline =
            PersistPipeline::new(store, HostBufferPool::new(ByteSize::from_bytes(256), 16))
                .with_writers(2)
                .with_codec(true);
        let telemetry = Telemetry::disabled();
        let ctx = test_ctx(&telemetry);
        let commit = |job: usize, iter: u64, data: &[u8]| {
            let src = VecSource {
                data: data.to_vec(),
                step: iter,
            };
            let lease = pipeline.lease(ctx, &tenants[job - 1]);
            let codec = CopyMode::Codec;
            let copied = pipeline
                .copy(ctx, &src, &lease, iter, state, codec)
                .unwrap();
            pipeline.seal(ctx, &lease, iter, &copied).unwrap();
            pipeline.commit(ctx, lease, iter, &copied).unwrap();
            assert!(copied.frame.saved_bytes > 0, "self-redundant payload packs");
            copied.frame
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
        assert!(foreign.link.is_none(), "job 2 has no base in its namespace");
        assert!(foreign
            .homes
            .iter()
            .all(|(_, home)| home.counter != 1 && home.counter != 2));
        let head = pipeline.store().latest_committed(&tenants[1]).unwrap();
        assert!(!head.is_delta());
    }

    #[test]
    fn chain_depth_cap_rematerializes_chunks_homed_at_the_cap() {
        // Four copies of a 1 KiB block (so every checkpoint frames, linked
        // or not); iteration k dirties chunk k and leaves it alone after.
        // Four slots bound the depth at 2, so a chunk dirtied at iteration
        // 3 or later is homed at depth 2: no frame may reference it, so it
        // is written again each time, while the chunks homed at depths 0
        // and 1 stay references to the same two homes. The chain pins three
        // slots and one stays free.
        let (device, pipeline) = framed_rig(4096, 256, 16);
        let telemetry = Telemetry::disabled();
        let ctx = test_ctx(&telemetry);
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
            let (out, copied) = pipeline
                .checkpoint_framed(ctx, &default_ns(&pipeline), &src, iter, CopyMode::Codec)
                .unwrap();
            assert_eq!(out, CommitOutcome::Committed);
            assert!(copied.frame.saved_bytes > 0, "{:?}", copied.frame);
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
        let (commit, copied) = pipeline
            .checkpoint_framed(ctx, &default_ns(&pipeline), &src, 1, CopyMode::Codec)
            .unwrap();
        assert_eq!(commit, CommitOutcome::Committed);
        let (payload_len, saved_bytes) = (copied.payload_len, copied.frame.saved_bytes);
        assert!(payload_len < 4096, "physical {payload_len} < logical");
        let table = FrameTable::encoded_len_for(16);
        assert_eq!(saved_bytes, 4096 + table - payload_len);
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
        let (_, copied) = pipeline
            .checkpoint_framed(ctx, &default_ns(&pipeline), &src, 1, CopyMode::Codec)
            .unwrap();
        let (dedup_chunks, payload_len) = (copied.frame.dedup_chunks, copied.payload_len);
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
            .checkpoint_framed(ctx, &default_ns(&pipeline), &src1, 1, CopyMode::Codec)
            .unwrap();
        // Incompressible and nothing to dedup against: the first
        // checkpoint is the all-Raw frame, and installs no generation.
        assert_eq!(o1.frame.saved_bytes, 0);
        assert!(o1.frame.homes.is_empty());

        // Second checkpoint: mutate one chunk; with a raw base there is no
        // installed generation, still raw.
        data[300] ^= 0xA5;
        let src2 = VecSource {
            data: data.clone(),
            step: 2,
        };
        let (_, o2) = pipeline
            .checkpoint_framed(ctx, &default_ns(&pipeline), &src2, 2, CopyMode::Codec)
            .unwrap();
        assert_eq!(o2.frame.saved_bytes, 0, "no generation installed yet");

        // Seed a framed generation: make the payload self-redundant once.
        let half: Vec<u8> = data[..2048].to_vec();
        let mut doubled = half.clone();
        doubled.extend_from_slice(&half);
        let src3 = VecSource {
            data: doubled.clone(),
            step: 3,
        };
        let (_, o3) = pipeline
            .checkpoint_framed(ctx, &default_ns(&pipeline), &src3, 3, CopyMode::Codec)
            .unwrap();
        assert!(
            o3.frame.saved_bytes > 0,
            "self-redundant payload packs: {o3:?}"
        );

        // Fourth: nearly identical to the third → base dedup kicks in.
        let mut data4 = doubled.clone();
        data4[100] ^= 0x5A;
        let src4 = VecSource {
            data: data4.clone(),
            step: 4,
        };
        let (commit, o4) = pipeline
            .checkpoint_framed(ctx, &default_ns(&pipeline), &src4, 4, CopyMode::Codec)
            .unwrap();
        assert_eq!(commit, CommitOutcome::Committed);
        let (dedup_chunks, payload_len) = (o4.frame.dedup_chunks, o4.payload_len);
        assert!(
            dedup_chunks >= 14,
            "most chunks deduplicate: {dedup_chunks}"
        );
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
        let (commit, copied) = pipeline
            .checkpoint_framed(ctx, &default_ns(&pipeline), &src, 1, CopyMode::Codec)
            .unwrap();
        assert_eq!(commit, CommitOutcome::Committed);
        assert_eq!(copied.frame.saved_bytes, 0, "dense payloads go out all-Raw");
        let meta = pipeline
            .store()
            .latest_committed(&default_ns(&pipeline))
            .unwrap();
        let table = FrameTable::encoded_len_for(16);
        assert_eq!(meta.payload_len, table + 4096, "the all-Raw frame's shape");
        let payload = pipeline.store().read_checkpoint(&meta).unwrap();
        let records = FrameTable::decode(&payload).unwrap().records;
        assert!(records.iter().all(|r| r.kind == ChunkEncoding::Raw));
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
        let (commit, copied) = pipeline
            .checkpoint_framed(ctx, &default_ns(&pipeline), &src, 1, CopyMode::Codec)
            .unwrap();
        assert_eq!(commit, CommitOutcome::Committed);
        assert_eq!(copied.frame.saved_bytes, 0, "streamed all-Raw");
        assert_eq!(copied.payload_len, FrameTable::encoded_len_for(16) + 4096);
    }

    /// A three-tensor compressible GPU: a sparse step dirties the tail of
    /// each tensor, three chunks of a 4 KiB state in 256-byte chunks.
    fn sparse_gpu(seed: u64) -> Gpu {
        let state = TrainingState::compressible(ByteSize::from_bytes(4096), seed, 32);
        Gpu::new(GpuConfig::fast_for_tests(), state)
    }

    /// Leases, copies `src` under `mode`, seals and commits it.
    fn commit_copy(
        pipeline: &PersistPipeline,
        ctx: PipelineCtx<'_>,
        src: impl SnapshotSource,
        mode: CopyMode,
    ) -> Copied {
        let (total, iteration) = (src.size(), src.step_count());
        let lease = pipeline.lease(ctx, &default_ns(pipeline));
        let copied = pipeline
            .copy(ctx, src, &lease, iteration, total, mode)
            .unwrap();
        pipeline.seal(ctx, &lease, iteration, &copied).unwrap();
        let out = pipeline.commit(ctx, lease, iteration, &copied).unwrap();
        assert_eq!(out, CommitOutcome::Committed);
        copied
    }

    /// The head frame's bytes.
    fn head_frame(pipeline: &PersistPipeline) -> Vec<u8> {
        let store = pipeline.store();
        let head = store.latest_committed(&default_ns(pipeline)).unwrap();
        store.read_checkpoint(&head).unwrap()
    }

    #[test]
    fn a_whole_copy_carries_clean_chunks_and_lands_the_frame_a_full_copy_would() {
        // One pipeline copies GPU guards and carries every chunk its mirror
        // still holds; the other copies the same bytes from a source with
        // no history, all of them. The frames on the two devices are the
        // same bytes, and the first copies only the dirtied chunks.
        for mode in [CopyMode::Staged, CopyMode::Codec] {
            let ((_, carrying), (_, full)) = (framed_rig(4096, 256, 32), framed_rig(4096, 256, 32));
            let gpu = sparse_gpu(61);
            let telemetry = Telemetry::enabled();
            for step in 1..=6u64 {
                let span = telemetry.span_requested("test", step, 4096);
                let ctx = PipelineCtx {
                    telemetry: &telemetry,
                    span,
                };
                gpu.update_sparse(0.05);
                let guard = gpu.lock_weights_shared_owned();
                let mut data = vec![0u8; 4096];
                guard.copy_range_to_host(0, &mut data);
                let staged = || telemetry.snapshot().unwrap().gpu_copy_bytes;
                let before = staged();
                let copied = commit_copy(&carrying, ctx, guard, mode);
                let staged = staged() - before;
                let dirty = if step == 1 { 4096 } else { 3 * 256 };
                assert_eq!(staged, dirty, "{mode:?} step {step}");
                assert_eq!(copied.state_digest, gpu.digest());
                commit_copy(&full, ctx, VecSource { data, step }, mode);
                let frames = (head_frame(&carrying), head_frame(&full));
                assert_eq!(frames.0, frames.1, "{mode:?} step {step}");
            }
        }
    }

    /// A dirty tracker that loses every write to `lost` (a test-only
    /// mutant of the GPU's dirty log).
    struct LosesWrites<S> {
        src: S,
        lost: std::ops::Range<u64>,
    }

    impl<S: SnapshotSource> SnapshotSource for LosesWrites<S> {
        fn size(&self) -> ByteSize {
            self.src.size()
        }
        fn step_count(&self) -> u64 {
            self.src.step_count()
        }
        fn copy_range_to_host(&self, offset: u64, dst: &mut [u8]) {
            self.src.copy_range_to_host(offset, dst)
        }
        fn version(&self) -> Option<Version> {
            self.src.version()
        }
        fn dirty_since(&self, seq: u64) -> Option<Vec<(u64, u64)>> {
            let lost = &self.lost;
            let kept = |&(off, len): &(u64, u64)| off + len <= lost.start || off >= lost.end;
            let ranges = self.src.dirty_since(seq)?;
            Some(ranges.into_iter().filter(kept).collect())
        }
    }

    #[test]
    fn the_rotating_sample_catches_a_tracker_that_loses_a_range() {
        // Every sparse step dirties chunks 5, 10 and 15 of sixteen; the
        // tracker never reports chunk 10's range, so the mirror's stale
        // copy of it is carried. One carried chunk per checkpoint is
        // compared with the GPU, rotating: within sixteen checkpoints the
        // sample reaches chunk 10, and that checkpoint copies every chunk,
        // raises an anomaly and commits the GPU's bytes.
        let (device, pipeline) = framed_rig(4096, 256, 32);
        let gpu = sparse_gpu(67);
        let telemetry = Telemetry::enabled();
        let ctx = test_ctx(&telemetry);
        let anomalies = || {
            let events = telemetry.events();
            let anomaly = |e: &&pccheck_telemetry::Event| {
                matches!(e.kind, pccheck_telemetry::EventKind::Anomaly { .. })
            };
            events.iter().filter(anomaly).count()
        };
        let mut caught = None;
        for step in 1..=17u64 {
            gpu.update_sparse(0.05);
            let src = LosesWrites {
                src: gpu.lock_weights_shared_owned(),
                lost: 10 * 256..11 * 256,
            };
            let mode = CopyMode::Codec;
            let copied = commit_copy(&pipeline, ctx, src, mode);
            let exact = copied.state_digest == gpu.digest();
            assert_eq!(exact, step == 1 || anomalies() == 1, "step {step}");
            if step > 1 && exact {
                caught = Some(step);
                break;
            }
        }
        let caught = caught.expect("the sample never reached the lost chunk");
        assert!(caught <= 1 + 16, "caught at {caught}");
        let rec = crate::recovery::recover(device).unwrap();
        assert_eq!(rec.iteration, caught);
        let layout = gpu.with_weights(|s| s.layout());
        let restored = TrainingState::restore(&layout, &rec.payload, caught).digest();
        assert_eq!(restored, gpu.digest(), "the catching checkpoint is exact");
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
            .checkpoint_framed(ctx, &default_ns(&pipeline), &src, 1, CopyMode::Codec)
            .unwrap();
        assert!(o.frame.saved_bytes > 0);
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
