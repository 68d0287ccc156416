//! The shared persist pipeline: chunk → write → fence → commit.
//!
//! Every strategy in this repository — PCcheck and the traditional,
//! CheckFreq, GPM and Gemini baselines, each a row of
//! [`STRATEGIES`](crate::STRATEGIES) that builds a `PcCheckEngine` —
//! moves checkpoint bytes through the same four mechanical stages: slice
//! the snapshot into chunks, write each chunk into a leased slot, fence it
//! durable, and run the store's lock-free commit (meta publish → durable
//! `Committed` state word → `fetch_max` head advance — never a mutex
//! across device I/O). What *differs* between strategies is pure
//! scheduling policy: when the training thread stalls, how many
//! concurrency tickets exist, how the copy stages the snapshot, and
//! whether fences are issued per writer (PMEM) or deferred into one
//! `msync` (SSD).
//!
//! [`PersistPipeline`] owns the mechanism so the strategies reduce to
//! policy. A caller drives four verbs — [`lease`](PersistPipeline::lease)
//! a slot, [`copy`](PersistPipeline::copy) the snapshot into it,
//! [`seal`](PersistPipeline::seal) it durable,
//! [`commit`](PersistPipeline::commit) it — or the last three in one call,
//! [`checkpoint_framed`](PersistPipeline::checkpoint_framed); a strategy
//! differs from the others only in whether its copy stages the whole
//! snapshot before the first write, its staging pool and what the trainer
//! waits for. It also owns the pipeline's telemetry: per-chunk
//! write/persist stage latencies ([`Telemetry::stage_write`] /
//! [`Telemetry::stage_persist`]). The device's submission queues are the
//! device's to count: an exposition reads them from the device itself.
//!
//! # One payload format
//!
//! Every checkpoint is a frame ([`crate::codec`]): its table, written last
//! and bound by the commit's checksum, in front of the records
//! [`copy`](PersistPipeline::copy) packed — deduplicated, and compressed
//! where it may try LZ. A frame that packs nothing is every chunk verbatim
//! under an all-`Raw` table.
//!
//! # Who waits for what
//!
//! *The weights are held for the memcpy of the chunks a copy needs — not
//! for the digest, not for the persist, not for a slot.* The copy verb
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
//! copy pipelined with its persist (Figure 7) leases at once if a slot is
//! free, and otherwise once the source is dropped — its chunks ready to be
//! written wait in DRAM meanwhile — or before it waits for DRAM (rule 2); a
//! copy that stages the whole snapshot first (Figure 6) leases once the
//! source is dropped. Jobs queued before the lease queue behind every
//! leased checkpoint of their tenant, and move to the checkpoint's counter
//! once it has one.
//!
//! *A copy plans from the last snapshot, not from a copy of it*: each
//! frame's records follow the dirty runs since the job's carry, served
//! from the head's homes where they can be (`plan.rs`, whose function
//! decides what a frame serves, samples and hands on).
//!
//! *A frame streams*: producer → digest job → one in-order classifier
//! (self-dedup, byte-exact against the first occurrence's bytes, held or
//! read back from the slot; the planned home, the home of an earlier
//! copied record of the same address, or the generation's home of the
//! record's range if it is that whole record; materialize)
//! → compress, when the copy may try LZ → write, each buffer freed when its
//! write returns. Packed offsets follow logical order and the table is
//! written last, so the frame depends on neither the pool's size nor the
//! order the jobs ran in.
//!
//! *The digests are taken out of order, on that pool.* The state digest is
//! a fold over per-block values ([`pccheck_util::fnv`]) and a record's
//! content address a fold over the values of its own blocks, so each
//! chunk's pool job makes one pass over its chunk: it files the values of
//! the blocks the chunk wholly covers into the checkpoint's block table,
//! takes the chunk's address from them, and then goes on to what it was
//! queued for. The coordinator folds the block table once its batch has
//! drained. A block cut by a chunk boundary is whole in no job; the staging
//! producer, which sees the bytes in order, carries the head of the one
//! open block (at most a block of bytes) and files it when a later chunk
//! closes it — the restore executor's cut-block rule (DESIGN §9) from the
//! producer's side.
//!
//! Three rules keep that free of deadlock:
//!
//! 1. *A pool worker never waits on another job.* Digests, classification,
//!    compressions and writes are the only pool jobs and none blocks on the
//!    pool; the thread that fans a checkpoint out and waits for it (the
//!    caller of the copy verb) is never a pool worker.
//! 2. *A copy that waits for DRAM holds nothing idle.* A copy staged
//!    whole takes every buffer it will copy into in one step. A pipelined
//!    copy takes its lease before it waits, so every chunk it holds is on
//!    its way to the device. Copies of one engine stage in ticket order
//!    (`engine.rs`), so a newer one never sits on its chunks waiting for
//!    the lease of an older one still waiting for chunks.
//! 3. *A failed checkpoint cleans up before it reports.* The first error
//!    cancels the checkpoint's queued jobs (their buffers go back
//!    unwritten), the producer stops and releases the weights, and the
//!    verb returns only once every job it queued has run or been
//!    cancelled — so no job outlives the lease it writes under, and the
//!    pool is as usable afterwards as before.

use std::any::Any;
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use pccheck_util::sync::{Condvar, Mutex};

use pccheck_device::{HostBuffer, HostBufferPool};
use pccheck_gpu::{SnapshotSource, StateDigest};
use pccheck_telemetry::{FlightEventKind, Phase, SpanId, Telemetry};
use pccheck_util::fnv::{
    chunk_digest, file_blocks, fold_blocks, record_digest, whole_blocks, DIGEST_BLOCK,
};
use pccheck_util::ByteSize;

use crate::codec::{
    block_range, compress_gated, lz_decompress, ChunkEncoding, DedupHome, DedupIndex, FrameRecord,
    FrameTable, Hit, Homes,
};
use crate::error::PccheckError;
use crate::meta::{checksum, DeltaLink};
use crate::plan::{plan, Carries, Observation, Plan, Unit};
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

/// Telemetry context for one checkpoint's trip through the pipeline.
#[derive(Clone, Copy)]
pub struct PipelineCtx<'a> {
    /// The recording handle (may be disabled: every hook no-ops).
    pub telemetry: &'a Telemetry,
    /// The checkpoint's span.
    pub span: SpanId,
}

/// One staged chunk: a pooled DRAM buffer and how much of it is payload.
/// Dropped, it hands the buffer back to the pool; a frame keeps a
/// `Weak` of it to compare a later duplicate against.
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
/// block values by block index, filed by whoever had the bytes in hand —
/// or carried from the last snapshot — and folded by the coordinator once
/// the checkpoint's batch has drained (module docs, "Who waits for what").
/// A record's content address is a fold of its blocks' values, taken from
/// them when it is needed. Same definitions as [`pccheck_util::fnv`]'s
/// in-order forms, without their order.
pub(crate) struct Digests {
    /// The iteration the checkpoint's commit records, which the state
    /// digest folds in.
    iteration: u64,
    pub(crate) len: u64,
    /// The staging chunk size: chunk `i` starts at `i × chunk`.
    pub(crate) chunk: u64,
    /// Relaxed: every job hands the batch's mutex to [`Batch::wait`], which
    /// orders the stores before the fold's loads, and a later snapshot
    /// reads a block's value only after `filed` says it is in — or, for a
    /// block its plan served, after taking the carry, which the plan hands
    /// on through the carries' mutex once it has carried those values.
    /// Shared with the generation a frame of this snapshot installs.
    pub(crate) blocks: Arc<[AtomicU64]>,
    /// By block: its value is filed (release, after it).
    pub(crate) filed: Vec<AtomicBool>,
}

impl std::fmt::Debug for Digests {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Digests")
            .field("iteration", &self.iteration)
            .field("len", &self.len)
            .field("chunk", &self.chunk)
            .finish_non_exhaustive()
    }
}

impl Digests {
    pub(crate) fn of(iteration: u64, total: ByteSize, chunk: u64) -> Arc<Self> {
        let n_blocks = total.as_u64().div_ceil(DIGEST_BLOCK as u64);
        Arc::new(Digests {
            iteration,
            len: total.as_u64(),
            chunk,
            blocks: (0..n_blocks).map(|_| AtomicU64::new(0)).collect(),
            filed: (0..n_blocks).map(|_| AtomicBool::new(false)).collect(),
        })
    }

    pub(crate) fn n_chunks(&self) -> usize {
        self.len.div_ceil(self.chunk) as usize
    }

    /// Chunk `i`'s offset and length.
    pub(crate) fn extent(&self, i: usize) -> (u64, usize) {
        let off = i as u64 * self.chunk;
        (off, self.chunk.min(self.len - off) as usize)
    }

    /// Whether chunk `i` is a run of whole digest blocks: one that shares
    /// no block with another chunk.
    pub(crate) fn uncut(&self, i: usize) -> bool {
        let (off, len) = self.extent(i);
        whole_blocks(off, len, self.len) == (0, len)
    }

    fn set(&self, b: usize, value: u64) {
        self.blocks[b].store(value, Ordering::Relaxed);
        self.filed[b].store(true, Ordering::Release);
    }

    /// The content address of `[off, off + len)`, a run of whole blocks,
    /// from their values, once every one is filed: no byte is read.
    pub(crate) fn address(&self, off: u64, len: u64) -> Option<u64> {
        let blocks = block_range(off, len);
        let filed = blocks
            .clone()
            .all(|b| self.filed[b].load(Ordering::Acquire));
        filed.then(|| record_digest(len, blocks.map(|b| self.blocks[b].load(Ordering::Relaxed))))
    }

    /// Files the record `[off, off + len)`, a run of whole blocks, from
    /// `from`: a snapshot of the same geometry that has filed its blocks —
    /// or carried them, if its plan served them — and held the same bytes
    /// there.
    pub(crate) fn carry(&self, from: &Digests, off: u64, len: u64) {
        for b in block_range(off, len) {
            self.set(b, from.blocks[b].load(Ordering::Relaxed));
        }
    }

    /// A record's pool job: one pass over `piece`, staged from offset
    /// `off`, files the values of the blocks it wholly covers and returns
    /// its content address.
    pub(crate) fn file(&self, off: u64, piece: &[u8]) -> u64 {
        file_blocks(off, piece, self.len, |b, value| self.set(b, value))
    }

    /// The producer's share, as `chunk` goes by: the blocks a chunk
    /// boundary cuts, which no job sees whole. `open` carries the head of
    /// the one such block that is open between two chunks — never more
    /// than a block of bytes, and none at all on an aligned geometry.
    pub(crate) fn file_cut(&self, open: &mut Vec<u8>, off: u64, chunk: &[u8]) {
        let (head, whole) = whole_blocks(off, chunk.len(), self.len);
        open.extend_from_slice(&chunk[..head]);
        if open.len() == DIGEST_BLOCK || (head > 0 && off + head as u64 == self.len) {
            self.set((off / DIGEST_BLOCK as u64) as usize, chunk_digest(open));
            open.clear();
        }
        open.extend_from_slice(&chunk[head + whole..]);
    }

    /// The state digest, once every block has been filed.
    pub(crate) fn fold(&self) -> StateDigest {
        let values = self.blocks.iter().map(|cell| cell.load(Ordering::Relaxed));
        StateDigest(fold_blocks(self.iteration, self.len, values))
    }
}

/// Where [`PersistPipeline::copy`] gets the slot it writes into: a lease
/// the caller already holds (`&SlotLease`), or a `DeferredLease` the copy
/// takes when its first write needs a slot.
pub trait LeaseSlot {
    /// The namespace the slot comes from.
    fn namespace(&self) -> &Arc<Namespace>;

    /// The lease, taken now if it has not been yet: waiting for a slot if
    /// `wait` is set, `None` when it is not and no slot is free.
    fn lease(&mut self, wait: bool) -> Option<&SlotLease>;

    /// The lease, waiting for a slot if need be.
    fn leased(&mut self) -> &SlotLease {
        self.lease(true).expect("a lease that may wait is taken")
    }
}

impl LeaseSlot for &SlotLease {
    fn namespace(&self) -> &Arc<Namespace> {
        SlotLease::namespace(self)
    }

    fn lease(&mut self, _: bool) -> Option<&SlotLease> {
        Some(self)
    }
}

/// A slot leased by a closure the first time [`PersistPipeline::copy`]
/// needs one — for a caller whose leases must follow an order of its own
/// (the engine's tickets) without making the trainer wait for it.
pub(crate) struct DeferredLease<'a> {
    ns: Arc<Namespace>,
    /// Called with whether it may wait; `None` only when it may not.
    take: Box<dyn FnMut(bool) -> Option<SlotLease> + 'a>,
    lease: Option<SlotLease>,
}

impl<'a> DeferredLease<'a> {
    /// A slot of `ns`'s, leased by `take(wait)` ([`LeaseSlot::lease`]).
    pub(crate) fn new(
        ns: &Arc<Namespace>,
        take: impl FnMut(bool) -> Option<SlotLease> + 'a,
    ) -> Self {
        DeferredLease {
            ns: Arc::clone(ns),
            take: Box::new(take),
            lease: None,
        }
    }

    /// The lease, once taken: after a copy that returned `Ok`, always.
    pub(crate) fn into_lease(self) -> Option<SlotLease> {
        self.lease
    }
}

impl LeaseSlot for &mut DeferredLease<'_> {
    fn namespace(&self) -> &Arc<Namespace> {
        &self.ns
    }

    fn lease(&mut self, wait: bool) -> Option<&SlotLease> {
        if self.lease.is_none() {
            self.lease = (self.take)(wait);
        }
        self.lease.as_ref()
    }
}

/// The part of a lease a chunk write needs. `Copy`, so a queued job can
/// own it while the lease itself stays with the coordinator that will
/// commit it.
#[derive(Debug, Clone, Copy)]
struct SlotRef {
    slot: u32,
    tenant: JobId,
}

impl SlotRef {
    fn of(lease: &SlotLease) -> Self {
        SlotRef {
            slot: lease.slot,
            tenant: lease.job(),
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
    /// Runs one device call on a slot's payload — a write or a fence —
    /// feeding its stage's histogram. Returns the nanoseconds spent in it
    /// (media time, for the writer's queue-wait split).
    fn timed(
        &self,
        ctx: PipelineCtx<'_>,
        stage: fn(&Telemetry, u64),
        call: impl FnOnce(&CheckpointStore) -> Result<(), PccheckError>,
    ) -> Result<u64, PccheckError> {
        let start = ctx.telemetry.now_nanos();
        call(&self.store)?;
        let mut media = 0;
        if ctx.telemetry.is_enabled() {
            media = ctx.telemetry.now_nanos().saturating_sub(start);
            stage(ctx.telemetry, media);
        }
        Ok(media)
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
        let (slot, len) = (at.slot, data.len() as u64);
        let mut media = self.timed(ctx, Telemetry::stage_write, |store| {
            store.write_slot(slot, offset, data)
        })?;
        if self.fence == FenceMode::PerWriter {
            media += self.timed(ctx, Telemetry::stage_persist, |store| {
                store.persist_slot(slot, offset, len)
            })?;
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
    /// at an unleased place behind every leased checkpoint of the tenant
    /// before ([`Batch::leased`] moves them).
    order: Mutex<Order>,
    opened_nanos: u64,
    /// Set by the first failure: queued jobs are cancelled, and the
    /// producer polls it to stop copying.
    abort: AtomicBool,
    state: Mutex<BatchState>,
    drained: Condvar,
}

impl Batch {
    /// A batch of `job`'s jobs, queued at the checkpoint's counter once it
    /// holds `lease`, behind every leased checkpoint of the tenant before.
    fn open(
        io: &ChunkIo,
        ctx: PipelineCtx<'_>,
        job: JobId,
        lease: Option<&SlotLease>,
    ) -> Arc<Batch> {
        Arc::new(Batch {
            io: io.clone(),
            telemetry: ctx.telemetry.clone(),
            span: ctx.span,
            order: Mutex::new(match lease {
                Some(lease) => Order {
                    tenant: job,
                    counter: lease.counter,
                },
                None => Order::unleased(job),
            }),
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
        let order = *self.order.lock();
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

    /// Moves the batch to `counter`, its checkpoint's, once it is leased:
    /// the jobs it has queued and every one it queues from now on.
    fn leased(&self, workers: &WorkerPool, counter: u64) {
        let mut order = self.order.lock();
        workers.reorder(*order, counter);
        order.counter = counter;
    }

    /// Runs `compute`, timing it for the leg's busy figure (0 with
    /// telemetry off, like every other timestamp).
    fn busy<T>(&self, compute: impl FnOnce() -> T) -> (T, u64) {
        let start = self.telemetry.now_nanos();
        let out = compute();
        (out, self.telemetry.now_nanos().saturating_sub(start))
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

/// A copy's frame on its way through the writer pool (module docs, "A frame
/// streams"): records arrive in any order — copied ones from
/// their digest jobs, served ones from the producer — one classifier takes
/// them in logical order, and each materialized record is placed at its
/// packed offset, in logical order, once it is compressed, then written.
struct Frame {
    /// Filed by the copied records' digest jobs, or carried for the served
    /// ones.
    digests: Arc<Digests>,
    observed: Observation,
    /// The planned records, and the served one that is copied all the same.
    plan: Plan,
    /// Where the packed records start: the table's room.
    table_len: u64,
    /// Whether the entropy gate may try LZ on a materialized record.
    lz: bool,
    state: Mutex<FrameState>,
}

/// A materialized chunk, compressed: its LZ bytes when they are smaller,
/// and its staged bytes either way — held until its write returns, so that
/// while they are alive the chunk is not yet on the device.
struct Packed {
    staged: StagedChunk,
    lz: Option<Vec<u8>>,
}

impl AsRef<[u8]> for Packed {
    fn as_ref(&self) -> &[u8] {
        match &self.lz {
            Some(lz) => lz,
            None => self.staged.as_ref(),
        }
    }
}

/// The classifier's and the placer's progress through one frame.
#[derive(Default)]
struct FrameState {
    /// Copied records by index, with their addresses, from their digest
    /// job until classified.
    arrived: HashMap<usize, (StagedChunk, u64)>,
    /// The records of the chunks classified so far, in logical order; a
    /// materialized one's encoding and packed extent are settled when it
    /// is placed.
    records: Vec<FrameRecord>,
    /// The first record of each content address the frame copied: its
    /// materialized bytes, or the home it was served from.
    firsts: HashMap<u64, First>,
    /// The next generation's homes: each base hit's as it is taken; the
    /// materialized and `DedupSelf` records' once the frame finishes.
    next: Homes,
    /// The youngest home a base hit named: the frame links to it.
    youngest: Option<DedupHome>,
    /// Materialized chunks compressed and not yet placed.
    packed: HashMap<usize, Packed>,
    /// Chunks `..placed` are placed.
    placed: usize,
    /// Packed bytes placed so far.
    phys: u64,
    /// The slot, once leased: nothing is placed before.
    at: Option<SlotRef>,
}

/// The first record of a content address in a frame.
#[derive(Clone)]
enum First {
    /// Materialized as record `.0`, whose staged bytes are `.1` while a
    /// job still holds them.
    Copied(usize, Weak<HostBuffer>),
    /// Served from a home.
    Served(Hit),
}

/// Placed chunks to write: their slot, payload offset and bytes.
type Placed = Vec<(SlotRef, u64, Packed)>;

impl Frame {
    fn new(
        digests: &Arc<Digests>,
        observed: Observation,
        plan: Plan,
        lz: bool,
        at: Option<SlotRef>,
    ) -> Arc<Frame> {
        Arc::new(Frame {
            digests: Arc::clone(digests),
            observed,
            table_len: FrameTable::encoded_len_for(plan.units.len()),
            lz,
            state: Mutex::new(FrameState {
                arrived: HashMap::with_capacity(plan.units.len()),
                next: Homes::new(&digests.blocks),
                at,
                ..FrameState::default()
            }),
            plan,
        })
    }

    /// Hands the frame its slot: `batch` moves to the lease's counter, and
    /// the chunks compressed while there was none are placed and queued on
    /// it.
    fn lease(&self, batch: &Arc<Batch>, workers: &WorkerPool, lease: &SlotLease) {
        batch.leased(workers, lease.counter);
        let placed = {
            let mut s = self.state.lock();
            s.at = Some(SlotRef::of(lease));
            self.place(&mut s)
        };
        for placed in placed {
            batch.submit(workers, move |batch| Self::write(batch, vec![placed]));
        }
    }

    /// A job's share of the frame, after `arrival` (copied record `i`, its
    /// digests filed, and its address) or none: classifies every record it
    /// completes the logical order up to, compresses those it materialized
    /// if the frame may try LZ, and writes what that lets it place. Returns the job's `(bytes
    /// written, busy nanos)`.
    fn advance(
        &self,
        batch: &Batch,
        arrival: Option<(usize, StagedChunk, u64)>,
    ) -> Result<(u64, u64), PccheckError> {
        let (fresh, placed) = {
            let mut s = self.state.lock();
            if let Some((i, piece, address)) = arrival {
                s.arrived.insert(i, (piece, address));
            }
            let fresh = self.classify(&mut s, batch)?;
            (fresh, self.place(&mut s))
        };
        let (mut bytes, mut busy) = Self::write(batch, placed)?;
        for (i, staged) in fresh {
            if batch.aborted() {
                break;
            }
            let (lz, compressing) = match self.lz {
                true => batch.busy(|| compress_gated(staged.as_ref())),
                false => (None, 0),
            };
            let placed = {
                let mut s = self.state.lock();
                s.packed.insert(i, Packed { staged, lz });
                self.place(&mut s)
            };
            let (written, media) = Self::write(batch, placed)?;
            bytes += written;
            busy += compressing + media;
        }
        Ok((bytes, busy))
    }

    /// Classifies the records that are served or have arrived, in logical
    /// order from the first unclassified one: self-dedup (byte-exact), then
    /// the planned home if the record's address is the carried one, then
    /// the home an earlier copied record of its address was served from,
    /// then the observation's home of the record's range if it is all of
    /// that home's record and has its address, then materialize. Returns
    /// the records it materialized, for the caller to compress.
    fn classify(
        &self,
        s: &mut FrameState,
        batch: &Batch,
    ) -> Result<Vec<(usize, StagedChunk)>, PccheckError> {
        let mut fresh = Vec::new();
        while let Some(&unit) = self.plan.units.get(s.records.len()) {
            let i = s.records.len();
            let (piece, digest) = match s.arrived.remove(&i) {
                Some((piece, address)) => (Some(piece), address),
                None if self.plan.copies(i) => break,
                None => (None, unit.served.expect("not copied, so served").address),
            };
            let record = |kind, aux, a, b| FrameRecord {
                kind,
                aux,
                logical_len: unit.len,
                a,
                b,
                digest,
            };
            // A served record is no self-dedup: an earlier record of its
            // address and length would have been served too.
            let first = piece.as_ref().and(s.firsts.get(&digest).cloned());
            if let (Some(First::Copied(j, held)), Some(piece)) = (&first, &piece) {
                if self.same_bytes(s, batch, *j, held, piece)? {
                    s.records
                        .push(record(ChunkEncoding::DedupSelf, *j as u32, 0, 0));
                    continue;
                }
            }
            let planned = unit.served.filter(|served| served.address == digest);
            let repeated = match first {
                Some(First::Served(hit)) => Some(hit),
                _ => None,
            };
            let at_home = || {
                let hit = (self.observed).hit(unit.off..unit.off + unit.len, false, None)?;
                (hit.address() == Some(digest)).then_some(hit)
            };
            let hit = (planned.map(|served| served.hit))
                .or(repeated)
                .or_else(at_home);
            let classified = match (hit.filter(|hit| hit.len == unit.len), piece) {
                (Some(hit), piece) => {
                    let home = hit.home;
                    s.youngest = s
                        .youngest
                        .filter(|y| y.counter >= home.counter)
                        .or(Some(home));
                    s.next.home(unit.off, hit);
                    if piece.is_some() {
                        s.firsts.entry(digest).or_insert(First::Served(hit));
                    }
                    record(ChunkEncoding::DedupBase, home.slot, home.counter, hit.at)
                }
                (None, piece) => {
                    let piece = piece.expect("a served record has a home");
                    let held = Arc::downgrade(&piece.buf);
                    s.firsts.entry(digest).or_insert(First::Copied(i, held));
                    fresh.push((i, piece));
                    // Placeholder; the encoding and packed extent are
                    // settled when it is placed.
                    record(ChunkEncoding::Raw, 0, 0, 0)
                }
            };
            s.records.push(classified);
        }
        Ok(fresh)
    }

    /// Whether materialized chunk `j`, the first of `piece`'s address, holds
    /// `piece`'s bytes: compared with its staged bytes while a job holds
    /// them, read back from the slot once it is written (its staged bytes
    /// go back to the pool when its write returns). A chunk dropped
    /// unwritten — its batch failed — compares unequal.
    fn same_bytes(
        &self,
        s: &FrameState,
        batch: &Batch,
        j: usize,
        held: &Weak<HostBuffer>,
        piece: &StagedChunk,
    ) -> Result<bool, PccheckError> {
        let record = &s.records[j];
        if record.logical_len != piece.len as u64 {
            return Ok(false);
        }
        if let Some(buf) = held.upgrade() {
            return Ok(&buf.as_slice()[..piece.len] == piece.as_ref());
        }
        let Some(at) = s.at.filter(|_| j < s.placed) else {
            return Ok(false);
        };
        let mut packed = vec![0u8; record.b as usize];
        (batch.io.store).read_written(at.slot, self.table_len + record.a, &mut packed)?;
        let bytes = match record.kind {
            ChunkEncoding::Lz => lz_decompress(&packed, piece.len),
            _ => Some(packed),
        };
        Ok(bytes.as_deref() == Some(piece.as_ref()))
    }

    /// Once the slot is leased, places every chunk whose turn has come, in
    /// logical order: a reference as soon as it is classified, a
    /// materialized chunk once it is compressed, at the packed offset the
    /// chunks before it leave. Returns the placed chunks to write.
    fn place(&self, s: &mut FrameState) -> Placed {
        let mut placed = Vec::new();
        let Some(at) = s.at else {
            return placed;
        };
        while s.placed < s.records.len() {
            let i = s.placed;
            let record = &mut s.records[i];
            if record.kind.is_materialized() {
                let Some(mut packed) = s.packed.remove(&i) else {
                    break;
                };
                let n = record.logical_len;
                match packed.lz.as_ref().map(|lz| lz.len() as u64) {
                    Some(len) if len < n => (record.kind, record.b) = (ChunkEncoding::Lz, len),
                    _ => (packed.lz, record.b) = (None, n),
                }
                record.a = s.phys;
                s.phys += record.b;
                placed.push((at, self.table_len + record.a, packed));
            }
            s.placed += 1;
        }
        placed
    }

    /// Writes placed chunks on this job, up to the batch's first failure;
    /// each buffer goes back as its write returns.
    fn write(batch: &Batch, placed: Placed) -> Result<(u64, u64), PccheckError> {
        let mut moved = (0, 0);
        for (at, dst, packed) in placed {
            if batch.aborted() {
                break;
            }
            let data = packed.as_ref();
            let media = batch.io.write_and_fence_chunk(batch.ctx(), at, dst, data)?;
            moved = (moved.0 + data.len() as u64, moved.1 + media);
        }
        Ok(moved)
    }

    /// The frame's table and what its commit binds besides its checksum,
    /// once every record is placed. A frame that packed nothing installs
    /// its homes too: each of its `Raw` records is homed at itself, so the
    /// next frame serves their clean runs whatever their entropy.
    fn finish(&self, ctx: PipelineCtx<'_>, lease: &SlotLease) -> (FrameTable, FramedPlan) {
        let mut s = self.state.lock();
        let records = std::mem::take(&mut s.records);
        let n = self.plan.units.len();
        assert_eq!((records.len(), s.placed), (n, n), "every record is placed");
        let (logical, phys) = (self.digests.len, s.phys);
        let table = FrameTable {
            counter: lease.counter,
            logical_len: logical,
            full_digest: self.digests.fold().0,
            records,
        };
        assert_eq!(
            table.encoded_len(),
            self.table_len,
            "the table fills its room"
        );
        let materialized = table.records.iter().filter(|r| r.kind.is_materialized());
        let dedup_chunks = (table.records.len() - materialized.count()) as u64;
        let saved_bytes = logical - phys;
        ctx.telemetry.add_codec_bytes_saved(saved_bytes);
        ctx.telemetry.add_dedup_chunks(dedup_chunks);
        ctx.telemetry
            .gauge_compression_ratio((self.table_len + phys) * 1000 / logical.max(1));

        // Link to the youngest home referenced: the older ones lie on its
        // chain, so pinning that chain pins them all.
        let link = s.youngest.map(|home| DeltaLink {
            base_counter: home.counter,
            base_slot: home.slot,
            chain_depth: home.depth + 1,
        });
        let depth = link.map_or(0, |l| l.chain_depth);
        // A materialized record is homed at itself, a `DedupSelf` at the
        // record it names; base hits were homed as they were taken.
        let mut next = std::mem::take(&mut s.next);
        for (i, (r, unit)) in table.records.iter().zip(&self.plan.units).enumerate() {
            let j = match r.kind {
                ChunkEncoding::Raw | ChunkEncoding::Lz => i,
                ChunkEncoding::DedupSelf => r.aux as usize,
                ChunkEncoding::DedupBase => continue,
            };
            let (held, holder) = (table.records[j], self.plan.units[j]);
            let home = DedupHome {
                counter: lease.counter,
                slot: lease.slot,
                logical_off: holder.off,
                len: holder.len,
                digest: held.digest,
                lz: held.kind == ChunkEncoding::Lz,
                depth,
            };
            next.home(unit.off, Hit::whole(home));
        }
        let plan = FramedPlan {
            payload_digest: 0,
            link,
            saved_bytes,
            dedup_chunks,
            next: next.installable(),
        };
        (table, plan)
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
    /// The index of the homes of each job's latest commit, shared across
    /// clones: it survives across checkpoints.
    dedup: Arc<Mutex<DedupIndex>>,
    /// Each job's carry and the count of failed samples, shared across
    /// clones.
    carries: Arc<Mutex<Carries>>,
}

/// What [`copy`](PersistPipeline::copy) left in the leased slot: the
/// argument of [`seal`](PersistPipeline::seal) and
/// [`commit`](PersistPipeline::commit).
#[derive(Debug, Clone)]
pub struct Copied {
    /// Persist-phase start timestamp `seal` closes the phase against: the
    /// copy's start when it leased before staging, the end of staging
    /// otherwise.
    pub persist_start: u64,
    /// Physical bytes in the slot: the frame's table and packed chunks.
    pub payload_len: u64,
    /// End-to-end digest of the logical state, folded on the writer pool
    /// from the bytes the copy staged and the values it carried: exactly
    /// [`pccheck_gpu::Gpu::digest`] of the snapshot. The frame's table
    /// carries it.
    pub state_digest: StateDigest,
    /// What the commit binds of the frame the copy wrote.
    pub frame: FramedPlan,
}

/// The frame half of what a copy persisted, for
/// [`PersistPipeline::commit`] to bind to the commit record. A frame that
/// packed nothing links nothing and saved nothing, and still installs the
/// homes of its records.
#[derive(Debug, Clone)]
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
    /// The next dedup generation: where each range of the state lies — the
    /// frame's materialized records at themselves, each `DedupSelf` at the
    /// record it names, each base hit at the home it took, carried forward
    /// unchanged. Commit installs it.
    pub(crate) next: Arc<Homes>,
}

impl PersistPipeline {
    /// A single-writer, per-writer-fence pipeline over `store` that stages
    /// every copy through `pool`: a copy staged whole needs it to hold the
    /// whole snapshot, a pipelined copy a chunk.
    pub fn new(store: Arc<CheckpointStore>, pool: HostBufferPool) -> Self {
        PersistPipeline {
            io: ChunkIo {
                store,
                fence: FenceMode::PerWriter,
                qos: None,
            },
            pool,
            workers: Arc::new(WorkerPool::new("pccheck-writer", 1)),
            dedup: Arc::default(),
            carries: Arc::default(),
        }
    }

    /// Sets the number of parallel writer threads (`p` in the paper).
    /// Call it while building, before any clone shares the pool.
    pub fn with_writers(mut self, writers: usize) -> Self {
        self.workers = Arc::new(WorkerPool::new("pccheck-writer", writers));
        self
    }

    /// Sets the fence mode.
    pub(crate) fn with_fence(mut self, fence: FenceMode) -> Self {
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

    /// The underlying store.
    pub fn store(&self) -> &Arc<CheckpointStore> {
        &self.io.store
    }

    /// The DRAM staging pool.
    // api: a test oracle, listed in DESIGN §4 ("Test oracles").
    pub fn staging_pool(&self) -> &HostBufferPool {
        &self.pool
    }

    /// Leases a free slot from `ns` and refreshes the queue-depth gauge
    /// with that namespace's free-slot count.
    pub fn lease(&self, ctx: PipelineCtx<'_>, ns: &Arc<Namespace>) -> SlotLease {
        let lease = self.try_lease(ctx, ns, true);
        lease.expect("a lease that may wait is taken")
    }

    /// [`lease`](Self::lease) when `wait` is set; otherwise a slot of `ns`
    /// only if one is free now, and `None` — no counter taken — if not.
    pub(crate) fn try_lease(
        &self,
        ctx: PipelineCtx<'_>,
        ns: &Arc<Namespace>,
        wait: bool,
    ) -> Option<SlotLease> {
        let lease = match wait {
            true => self.io.store.begin_checkpoint(ns),
            false => self.io.store.try_begin_checkpoint(ns)?,
        };
        ctx.telemetry
            .gauge_queue_depth(self.io.store.free_slot_count(ns) as u64);
        Some(lease)
    }

    /// The one copy verb: plans the frame from the job's last snapshot,
    /// copies what the plan does not serve GPU→DRAM into pooled chunks —
    /// the calling thread copies, the writer pool digests, classifies,
    /// compresses and persists — and writes the frame into its slot, its
    /// table last so a torn frame is never mistaken for a complete one.
    ///
    /// `whole` stages every chunk the plan copies before the first write:
    /// the producer takes their buffers in one step, and the slot once it
    /// has dropped the source (Figure 6, the engine's `pipelined: false`).
    /// Otherwise the copy is pipelined with its persist (Figure 7). `lz`
    /// lets the entropy gate try LZ on each materialized record (the
    /// engine's `codec`); planning, dedup and cuts run either way.
    ///
    /// `src` is consumed: it is dropped — handing the weights back to
    /// training — as soon as the last chunk is in DRAM, while digests,
    /// classification, compression and writes may still be under way. Pass
    /// `&guard` to keep a guard.
    ///
    /// `iteration` is the one the commit will record: the state digest the
    /// frame carries is folded with it, not with the source's step count.
    /// Restore verifies against the committed iteration and sets the GPU's
    /// step to it, so the frame verifies and the restored GPU's digest is
    /// the one this copy returns.
    ///
    /// `slot` is leased when the first write needs it (module docs, "Who
    /// waits for what").
    ///
    /// The frame links to the youngest home it references (`codec` module
    /// docs, "Dedup index lifetime"); one whose observed head is displaced,
    /// and its homes released, before it commits is withdrawn by
    /// [`CheckpointStore::commit_with_delta`].
    ///
    /// The returned [`Copied::persist_start`] lets the caller close the
    /// phase after [`seal`](Self::seal): the copy's start when it leased
    /// before staging (the phases overlap), the end of staging otherwise.
    ///
    /// # Errors
    ///
    /// [`PccheckError::InvalidConfig`] when a copy staged `whole` has a
    /// pool that cannot hold the snapshot, or a write falls past a slot too
    /// small for the snapshot's all-`Raw` frame; otherwise the first device
    /// error any writer hit — in either case after the checkpoint's
    /// remaining queued jobs were cancelled.
    pub fn copy<S: SnapshotSource>(
        &self,
        ctx: PipelineCtx<'_>,
        src: S,
        mut slot: impl LeaseSlot,
        iteration: u64,
        whole: bool,
        lz: bool,
    ) -> Result<Copied, PccheckError> {
        let (total, pool) = (src.size(), &self.pool);
        let digests = Digests::of(iteration, total, pool.chunk_size().as_u64());
        if whole && pool.total_chunks() < digests.n_chunks() {
            return Err(PccheckError::InvalidConfig(format!(
                "staging a whole {total} snapshot needs {} chunks, the pool has {}",
                digests.n_chunks(),
                pool.total_chunks()
            )));
        }
        let (persist_start, frame, batch) =
            self.stream_frame(ctx, src, &mut slot, &digests, whole, lz);
        if batch.aborted() {
            // Failed before it needed a slot: it takes none.
            batch.wait()?;
        }
        let lease = slot.leased();
        let (counter, at, len) = (lease.counter, lease.slot, total.as_u64());
        // Recorded before a copy that leased late places its first write,
        // so a copy staged whole is `copied` on the device before any chunk
        // of it is: a crash at a given persist leaves the same record.
        let flight = self.io.store.flight();
        flight.record(FlightEventKind::CopyDone, counter, at, 0, len, 0);
        if frame.state.lock().at.is_none() {
            frame.lease(&batch, &self.workers, lease);
        }
        batch.wait()?;
        // Served records after the last copied one are classified here;
        // they write nothing.
        frame.advance(&batch, None)?;
        let (table, plan) = frame.finish(ctx, lease);
        let table_bytes = table.encode();
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

    /// The producer (module docs, "A frame streams"): plans (`plan.rs`)
    /// and files each served record's carried values before it hands its
    /// carry on, then copies the sample and, in order, every record not
    /// served into pooled buffers whose digest jobs feed the frame (the
    /// sample's also checks it against its carried address). Staged
    /// `whole`, it takes every buffer in one step and leaves the lease to
    /// its caller; pipelined, it leases at once if a slot can be had
    /// without waiting, and before it waits for DRAM otherwise. Drops
    /// `src`, closes the `GpuCopy` phase and returns when the `Persist`
    /// phase opens; the frame may still be classifying, compressing and
    /// writing on the writer pool.
    fn stream_frame(
        &self,
        ctx: PipelineCtx<'_>,
        src: impl SnapshotSource,
        slot: &mut impl LeaseSlot,
        digests: &Arc<Digests>,
        whole: bool,
        lz: bool,
    ) -> (u64, Arc<Frame>, Arc<Batch>) {
        let ns = Arc::clone(slot.namespace());
        let job = ns.job();
        let observed = {
            // A commit holds the index's lock from before its head advance
            // until its generation is installed: never a new head beside
            // the old generation.
            let dedup = self.dedup.lock();
            let head = self.io.store.head_counter(&ns);
            Observation::of(&dedup, job, head, ns.desc().slot_count)
        };
        let (last, retired) = self.carries.lock().last(job);
        let dirty = (last.as_ref()).and_then(|last| src.dirty_since(last.version.seq));
        // Staged whole, every buffer comes from the pool at once.
        let staging = if whole {
            self.pool.total_chunks()
        } else {
            usize::MAX
        };
        let plan = plan(
            &observed,
            last.as_ref(),
            dirty.as_deref(),
            src.version(),
            digests,
            retired,
            staging,
        );
        let mut carries = self.carries.lock();
        for step in plan.hand_off() {
            carries.take(job, &plan, step);
        }
        drop(carries);
        // The dirty-ratio gauge: how much of the state changed since the
        // job's last snapshot.
        let permille = plan.dirty * 1000 / digests.len.max(1);
        ctx.telemetry.gauge_dirty_ratio(permille);
        let staged = plan.copied().count() + usize::from(plan.sample.is_some());
        let mut reserved = match whole {
            true => self.pool.acquire_many(staged),
            false => Vec::new(),
        }
        .into_iter();
        let lease = if whole { None } else { slot.lease(false) };
        let batch = Batch::open(&self.io, ctx, job, lease);
        let early = lease.is_some();
        let mut leased = early;
        let sample = plan.sample;
        let frame = Frame::new(digests, observed, plan, lz, lease.map(SlotRef::of));
        let mut open = Vec::new();
        let mut copy = |i: usize| {
            let Unit { off, len, served } = frame.plan.units[i];
            let mut buf = match reserved.next() {
                Some(buf) => buf,
                None => match self.pool.try_acquire_many(1) {
                    Some(mut one) => one.remove(0),
                    None => {
                        // Rule 2: every chunk this copy holds must be on its
                        // way to the device before it waits for another.
                        if !std::mem::replace(&mut leased, true) {
                            frame.lease(&batch, &self.workers, slot.leased());
                        }
                        self.pool.acquire()
                    }
                },
            };
            // The one GPU→DRAM memcpy, then the blocks a chunk boundary cuts.
            src.copy_range_to_host(off, &mut buf.as_mut_slice()[..len as usize]);
            ctx.telemetry.chunk(ctx.span, Phase::GpuCopy, off, len);
            let (buf, len) = (Arc::new(buf), len as usize);
            let piece = StagedChunk { buf, len };
            digests.file_cut(&mut open, off, piece.as_ref());
            let (frame, carries) = (Arc::clone(&frame), Arc::clone(&self.carries));
            // Only the sample is both copied and served.
            let carried = served.map(|served| served.address);
            batch.submit(&self.workers, move |batch| {
                let (address, digesting) = batch.busy(|| frame.digests.file(off, piece.as_ref()));
                if carried.is_some_and(|carried| carried != address) {
                    // The source's tracker missed a write: this record is the
                    // GPU's, and no carry planned before now serves again.
                    carries.lock().retire();
                    let iteration = frame.digests.iteration;
                    (batch.telemetry).anomaly(iteration, 1.0, 0.0, f64::INFINITY);
                }
                let (bytes, busy) = frame.advance(batch, Some((i, piece, address)))?;
                Ok((bytes, digesting + busy))
            });
        };
        // The sample is copied first and, like the plan, outside the
        // `GpuCopy` phase: it checks the carry (its bytes land in the frame
        // all the same).
        sample.into_iter().for_each(&mut copy);
        let start = ctx.telemetry.now_nanos();
        for i in frame.plan.copied().take_while(|_| !batch.aborted()) {
            copy(i);
        }
        drop(src);
        ctx.telemetry.phase_done(ctx.span, Phase::GpuCopy, start);
        let persist_start = if early {
            start
        } else {
            ctx.telemetry.now_nanos()
        };
        (persist_start, frame, batch)
    }

    /// One-call checkpoint in `ns`: [`copy`](Self::copy), pipelined and
    /// trying LZ if `lz` is set, leasing a slot of `ns` when its first
    /// write needs one → `seal` → commit. `src` is the copy's, so passing a guard by value hands the
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
        lz: bool,
    ) -> Result<(CommitOutcome, Copied), PccheckError> {
        let mut slot = DeferredLease::new(ns, |wait| self.try_lease(ctx, ns, wait));
        let copied = self.copy(ctx, src, &mut slot, iteration, false, lz)?;
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
            let media = self.io.timed(ctx, Telemetry::stage_persist, |store| {
                store.persist_slot(lease.slot, 0, total.as_u64())
            })?;
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
    /// (which binds the state digest and every chunk); a frame that
    /// commits installs its homes as the job's next dedup generation —
    /// under the codec index's lock, the one lock on this path. Concurrent
    /// callers otherwise never serialize here; losers of the head race
    /// surface as [`CommitOutcome::SupersededBy`].
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
        // A frame's commit and the install of its generation are one
        // step to the plan of the next frame (`stream_frame`): it waits here
        // rather than meet the new head without its homes and copy every
        // chunk.
        let outcome = {
            let mut dedup = self.dedup.lock();
            let outcome = self.io.store.commit_with_delta(
                lease,
                iteration,
                copied.payload_len,
                frame.payload_digest,
                frame.link,
            )?;
            if outcome == CommitOutcome::Committed {
                dedup.install(job, counter, &frame.next);
            }
            outcome
        };
        ctx.telemetry
            .phase_done(ctx.span, Phase::Commit, commit_start);
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pccheck_device::{DeviceConfig, PersistentDevice, SsdDevice};
    use pccheck_gpu::{Gpu, GpuConfig, TrainingState, Version};
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
            let lease = pipeline.lease(ctx, &default_ns(&pipeline));
            let copied = pipeline
                .copy(ctx, &guard, &lease, 1, !streamed, false)
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
            let lease = pipeline.lease(ctx, &default_ns(&pipeline));
            let copied = pipeline
                .copy(ctx, &guard, &lease, 1, !streamed, false)
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
        let lease = pipeline.lease(ctx, &default_ns(&pipeline));
        let copied = pipeline.copy(ctx, &guard, &lease, 1, true, false).unwrap();
        drop(guard);
        pipeline.seal(ctx, &lease, 1, &copied).unwrap();
        pipeline.commit(ctx, lease, 1, &copied).unwrap();
        let snap = telemetry.snapshot().unwrap();
        // 4 chunk writes and the table, but exactly one (deferred) fence.
        assert_eq!(snap.write_stage.count, 5);
        assert_eq!(snap.persist_stage.count, 1);
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
            let lease = pipeline.lease(ctx, ns);
            assert_eq!(lease.job(), ns.job());
            let copied = pipeline
                .copy(ctx, &guard, &lease, iter, false, false)
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
            .checkpoint_framed(test_ctx(&telemetry), &ns, &guard, 1, false)
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
        .with_writers(2);
        (device, pipeline)
    }

    fn test_ctx(telemetry: &Telemetry) -> PipelineCtx<'_> {
        PipelineCtx {
            telemetry,
            span: pccheck_telemetry::SpanId::NONE,
        }
    }

    /// One behaviour, three copies: whether it stages the whole snapshot
    /// first or pipelines it, and whether it tries LZ, the first device
    /// error comes back, the writers stop issuing I/O (at most the chunks
    /// already in other writers' hands land after the fault), every staging
    /// buffer is back in the pool when the verb returns, and the same
    /// pipeline then persists a checkpoint cleanly. The "queued" callers
    /// take the fault with both writers held at the gate and the other
    /// chunks' jobs still in the queue, all of which the failure must
    /// cancel.
    #[test]
    fn every_copy_path_aborts_after_the_first_writer_error() {
        const TOTAL: u64 = 4096;
        const CHUNK: u64 = 128;
        const WRITERS: usize = 2;
        // Compressible and chunk-wise distinct, so every caller
        // materializes (and writes) all 32 chunks.
        let data: Vec<u8> = (0..TOTAL as u32).map(|i| (i / 48) as u8).collect();
        for caller in [
            "staged",
            "pipelined",
            "lz",
            "staged queued",
            "pipelined queued",
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
                    .with_writers(WRITERS);
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
            let (whole, lz) = (caller.starts_with("staged"), caller == "lz");
            let copy = |lease: &SlotLease| pipeline.copy(ctx, &src, lease, 1, whole, lz);
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
                        // Every queued job is cancelled while the other
                        // writer is still at the gate.
                        while !pipeline.workers.queued().is_empty() {
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
            assert_eq!(clone.workers.width(), width, "clones share the pool");
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
                    .copy(ctx, guard, &lease, checkpoints, false, false)
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
                    false,
                    false,
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
                .with_writers(2);
        let telemetry = Telemetry::disabled();
        let ctx = test_ctx(&telemetry);
        let commit = |job: usize, iter: u64, data: &[u8]| {
            let src = VecSource {
                data: data.to_vec(),
                step: iter,
            };
            let lease = pipeline.lease(ctx, &tenants[job - 1]);
            let copied = pipeline.copy(ctx, &src, &lease, iter, false, true).unwrap();
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
            second
                .link
                .expect("near-duplicate references its base")
                .base_counter,
            1
        );
        assert_eq!(base.delta.unwrap().chain_depth, 1);

        let foreign = commit(2, 1, &next);
        assert!(foreign.link.is_none(), "job 2 has no base in its namespace");
        assert!(foreign
            .next
            .records()
            .all(|home| home.counter != 1 && home.counter != 2));
        let head = pipeline.store().latest_committed(&tenants[1]).unwrap();
        assert!(head.delta.is_none());
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
                .checkpoint_framed(ctx, &default_ns(&pipeline), &src, iter, true)
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
            .checkpoint_framed(ctx, &default_ns(&pipeline), &src, 1, true)
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
        assert_eq!(
            rec.payload, data,
            "restore decodes the frame bit-identically"
        );
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
            .checkpoint_framed(ctx, &default_ns(&pipeline), &src, 1, true)
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
            .checkpoint_framed(ctx, &default_ns(&pipeline), &src1, 1, true)
            .unwrap();
        // Incompressible and nothing to dedup against: the first
        // checkpoint packs nothing, and still installs its generation — its
        // sixteen `Raw` chunks, each homed at itself.
        assert_eq!(o1.frame.saved_bytes, 0);
        assert_eq!(
            o1.frame.next.records().filter(|h| h.counter == 1).count(),
            16
        );

        // Second checkpoint: mutate one chunk; the other fifteen are
        // references to the first checkpoint's homes.
        data[300] ^= 0xA5;
        let src2 = VecSource {
            data: data.clone(),
            step: 2,
        };
        let (_, o2) = pipeline
            .checkpoint_framed(ctx, &default_ns(&pipeline), &src2, 2, true)
            .unwrap();
        assert_eq!(o2.frame.dedup_chunks, 15, "one chunk changed");

        // Third: a self-redundant payload, whose first half is the first
        // two checkpoints' homes and whose second half is its first.
        let half: Vec<u8> = data[..2048].to_vec();
        let mut doubled = half.clone();
        doubled.extend_from_slice(&half);
        let src3 = VecSource {
            data: doubled.clone(),
            step: 3,
        };
        let (_, o3) = pipeline
            .checkpoint_framed(ctx, &default_ns(&pipeline), &src3, 3, true)
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
            .checkpoint_framed(ctx, &default_ns(&pipeline), &src4, 4, true)
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
        assert!(
            meta.delta.is_some(),
            "base references pin the base via a link"
        );
        // The youngest home it names: the chunk the second checkpoint
        // materialized.
        assert_eq!(meta.delta.unwrap().base_counter, 2);

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
            .checkpoint_framed(ctx, &default_ns(&pipeline), &src, 1, true)
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
    fn a_frame_streams_through_a_pool_smaller_than_the_snapshot() {
        // Sixteen chunks: a random one and a compressible one repeated, and
        // distinct compressible ones. Through one staging chunk every chunk
        // is written before the next is staged, so each repeat is compared
        // with its first occurrence read back from the slot (decompressed
        // when it was packed as LZ); through four, some are still in DRAM.
        // Every pool lands the frame the whole-snapshot pool lands.
        let mut random = vec![0u8; 256];
        pccheck_util::rng::fill_deterministic(&mut random, 5);
        let tiled: Vec<u8> = (0..256u32).map(|i| (i / 32) as u8).collect();
        let mut data = Vec::new();
        for i in 0..16u8 {
            match i % 4 {
                0 => data.extend_from_slice(&random),
                1 => data.extend_from_slice(&tiled),
                _ => data.extend((0..256u32).map(|b| (b / 16) as u8 ^ i)),
            }
        }
        let frame_through = |pool_chunks: usize| {
            let (device, pipeline) = framed_rig(4096, 256, pool_chunks);
            let src = VecSource {
                data: data.clone(),
                step: 1,
            };
            let telemetry = Telemetry::disabled();
            let ctx = test_ctx(&telemetry);
            let (commit, copied) = pipeline
                .checkpoint_framed(ctx, &default_ns(&pipeline), &src, 1, true)
                .unwrap();
            assert_eq!(commit, CommitOutcome::Committed);
            assert_eq!(copied.frame.dedup_chunks, 6, "pool {pool_chunks}");
            assert!(copied.frame.saved_bytes > 4096 / 2, "pool {pool_chunks}");
            let peak = pipeline.staging_pool().peak_outstanding();
            assert!(peak <= pool_chunks, "pool {pool_chunks}: {peak}");
            let rec = crate::recovery::recover(device).unwrap();
            assert_eq!(rec.payload, data, "pool {pool_chunks}");
            head_frame(&pipeline)
        };
        let whole = frame_through(16);
        for pool_chunks in [1, 4] {
            assert_eq!(frame_through(pool_chunks), whole, "pool {pool_chunks}");
        }
    }

    #[test]
    fn a_frame_leased_late_is_written_before_a_newer_checkpoints_chunks() {
        // One writer, held busy. Frame A queues its chunks' jobs while it has
        // no slot and leases once its source is dropped; checkpoint B leases
        // at once, after A. A is the older checkpoint, so once the writer is
        // free every chunk of A's is written before any of B's.
        let (_device, pipeline) = framed_rig(4096, 256, 32);
        let pipeline = pipeline.with_writers(1);
        let (release, held) = std::sync::mpsc::channel::<()>();
        let (started_tx, started) = std::sync::mpsc::channel();
        let busy = Box::new(move |_| {
            started_tx.send(()).unwrap();
            let _ = held.recv();
        });
        let order = Order {
            tenant: DEFAULT_JOB,
            counter: 0,
        };
        pipeline.workers.submit(order, busy);
        started.recv().unwrap();
        let ns = default_ns(&pipeline);
        let telemetry = Telemetry::enabled();
        let spans = [1, 2].map(|step| telemetry.span_requested("test", step, 4096));
        let source = |step| {
            let mut data = vec![0u8; 4096];
            pccheck_util::rng::fill_deterministic(&mut data, step);
            VecSource { data, step }
        };
        let queued = |what: &str, done: &dyn Fn(&[Order]) -> bool| {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
            while !done(&pipeline.workers.queued()) {
                assert!(std::time::Instant::now() < deadline, "never queued: {what}");
                std::thread::yield_now();
            }
        };
        let counters = std::thread::scope(|s| {
            // Dropped on the way out, a failed assertion included.
            let _release = release;
            let a = s.spawn(|| {
                let ctx = PipelineCtx {
                    telemetry: &telemetry,
                    span: spans[0],
                };
                let take = |wait: bool| wait.then(|| pipeline.lease(ctx, &ns));
                let mut slot = DeferredLease::new(&ns, take);
                let src = source(1);
                (pipeline.copy(ctx, src, &mut slot, 1, false, true)).unwrap();
                slot.into_lease().unwrap().counter
            });
            let leased = |q: &[Order]| q.len() == 16 && q.iter().all(|o| o.counter < 1 << 63);
            queued("A's sixteen chunk jobs, at its counter", &leased);
            let b = s.spawn(|| {
                let ctx = PipelineCtx {
                    telemetry: &telemetry,
                    span: spans[1],
                };
                let lease = pipeline.lease(ctx, &ns);
                let src = source(2);
                (pipeline.copy(ctx, src, &lease, 2, false, false)).unwrap();
                lease.counter
            });
            queued("B's sixteen writes", &|q| q.len() == 32);
            drop(_release);
            (a.join().unwrap(), b.join().unwrap())
        });
        assert!(counters.0 < counters.1, "{counters:?}");
        // The chunks' writes, in the order they ran (tables sit at 0).
        let written: Vec<SpanId> = (telemetry.events().iter())
            .filter_map(|e| match e.kind {
                pccheck_telemetry::EventKind::Chunk {
                    phase: Phase::Persist,
                    offset,
                    ..
                } if offset > 0 => Some(e.span),
                _ => None,
            })
            .collect();
        assert_eq!(written.len(), 32);
        assert!(written[..16].iter().all(|&s| s == spans[0]), "{written:?}");
    }

    /// A three-tensor compressible GPU: a sparse step dirties the tail of
    /// each tensor, three chunks of a 64 KiB state in 4 KiB chunks.
    fn sparse_gpu(size: u64, seed: u64) -> Gpu {
        let state = TrainingState::compressible(ByteSize::from_bytes(size), seed, 32);
        Gpu::new(GpuConfig::fast_for_tests(), state)
    }

    /// Leases, copies `src` trying LZ, seals and commits it.
    fn commit_copy(
        pipeline: &PersistPipeline,
        ctx: PipelineCtx<'_>,
        src: impl SnapshotSource,
    ) -> Copied {
        let iteration = src.step_count();
        let lease = pipeline.lease(ctx, &default_ns(pipeline));
        let copied = pipeline
            .copy(ctx, src, &lease, iteration, false, true)
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
    fn a_codec_copy_serves_clean_chunks_and_lands_the_frame_a_full_copy_would() {
        // One pipeline copies GPU guards and serves every clean chunk the
        // head's generation has a home for; the other copies the same bytes
        // from a source with no history, all of them. The frames on the two
        // devices are the same bytes, and the first copies only the three
        // dirtied chunks and the one it samples (chunks of whole digest
        // blocks: 4 KiB of a 64 KiB state).
        const STATE: u64 = 64 * 1024;
        let rig = || framed_rig(STATE, 4096, 32);
        let ((_, carrying), (_, full)) = (rig(), rig());
        let gpu = sparse_gpu(STATE, 61);
        let telemetry = Telemetry::enabled();
        for step in 1..=6u64 {
            let span = telemetry.span_requested("test", step, STATE);
            let ctx = PipelineCtx {
                telemetry: &telemetry,
                span,
            };
            gpu.update_sparse(0.05);
            let guard = gpu.lock_weights_shared_owned();
            let mut data = vec![0u8; STATE as usize];
            guard.copy_range_to_host(0, &mut data);
            let staged = || telemetry.snapshot().unwrap().gpu_copy_bytes;
            let before = staged();
            let copied = commit_copy(&carrying, ctx, guard);
            let staged = staged() - before;
            let dirty = if step == 1 { STATE } else { (3 + 1) * 4096 };
            assert_eq!(staged, dirty, "step {step}");
            assert_eq!(copied.state_digest, gpu.digest());
            commit_copy(&full, ctx, VecSource { data, step });
            let frames = (head_frame(&carrying), head_frame(&full));
            assert_eq!(frames.0, frames.1, "step {step}");
        }
    }

    #[test]
    fn two_copies_of_one_unchanged_snapshot_at_once_both_recover() {
        // Copy A of an unchanged snapshot has planned, and so handed its
        // carry on, and waits for its slot; copy B of the same snapshot
        // plans from that carry meanwhile, serving each clean chunk from the
        // home A serves it from and taking the block values A carried. B
        // commits, then A. Each commits the GPU's digest and recovers
        // bit-exact (chunks of whole digest blocks: 4 KiB of a 64 KiB
        // state).
        const STATE: u64 = 64 * 1024;
        let (device, pipeline) = framed_rig(STATE, 4096, 32);
        let gpu = sparse_gpu(STATE, 71);
        let telemetry = Telemetry::enabled();
        let ctx = test_ctx(&telemetry);
        for _ in 0..2 {
            gpu.update_sparse(0.05);
            commit_copy(&pipeline, ctx, gpu.lock_weights_shared_owned());
        }
        let ns = default_ns(&pipeline);
        let layout = gpu.with_weights(|s| s.layout());
        let recovers = |copy: &str, copied: &Copied| {
            assert_eq!(copied.state_digest, gpu.digest(), "{copy}");
            let rec = crate::recovery::recover(Arc::clone(&device)).unwrap();
            let restored = TrainingState::restore(&layout, &rec.payload, rec.iteration);
            assert_eq!(restored.digest(), gpu.digest(), "{copy}");
        };
        let (planned, go) = (std::sync::Barrier::new(2), std::sync::Barrier::new(2));
        std::thread::scope(|s| {
            let a = s.spawn(|| {
                let src = gpu.lock_weights_shared_owned();
                let iteration = src.step_count();
                let mut slot = DeferredLease::new(&ns, |_| {
                    planned.wait();
                    go.wait();
                    Some(pipeline.lease(ctx, &ns))
                });
                let copied = pipeline.copy(ctx, src, &mut slot, iteration, false, true);
                let (copied, lease) = (copied.unwrap(), slot.into_lease().unwrap());
                pipeline.seal(ctx, &lease, iteration, &copied).unwrap();
                let out = pipeline.commit(ctx, lease, iteration, &copied).unwrap();
                assert_eq!(out, CommitOutcome::Committed);
                copied
            });
            planned.wait();
            // A waits for B either way, so a failing B fails the test.
            let b = catch_unwind(AssertUnwindSafe(|| {
                let b = commit_copy(&pipeline, ctx, gpu.lock_weights_shared_owned());
                recovers("B", &b);
            }));
            go.wait();
            let a = a.join();
            b.unwrap_or_else(|panic| resume_unwind(panic));
            recovers("A", &a.unwrap());
        });
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
        // tracker never reports chunk 10's range, so its stale content
        // address is carried and served (chunks of whole digest blocks: 4
        // KiB of a 64 KiB state). One served chunk per checkpoint is
        // copied and checked, rotating: within sixteen checkpoints the
        // sample reaches chunk 10, and that checkpoint copies it, raises an
        // anomaly and commits the GPU's bytes.
        let (state, chunk) = (64 * 1024, 4096);
        let (device, pipeline) = framed_rig(state, chunk, 32);
        let gpu = sparse_gpu(state, 67);
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
                lost: 10 * chunk..11 * chunk,
            };
            let copied = commit_copy(&pipeline, ctx, src);
            let exact = copied.state_digest == gpu.digest();
            assert_eq!(exact, step == 1 || anomalies() == 1, "step {step}");
            if step > 1 && exact {
                caught = Some(step);
                break;
            }
        }
        let caught = caught.expect("the sample never reached the lost chunk");
        assert!((3..=1 + 16).contains(&caught), "caught at {caught}");
        let rec = crate::recovery::recover(device).unwrap();
        assert_eq!(rec.iteration, caught);
        let layout = gpu.with_weights(|s| s.layout());
        let restored = TrainingState::restore(&layout, &rec.payload, caught).digest();
        assert_eq!(restored, gpu.digest(), "the catching checkpoint is exact");
    }
}
