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
//! [`PersistentDevice::queue_depths`]: pccheck_device::PersistentDevice::queue_depths

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::Arc;

use pccheck_util::sync::Mutex;

use pccheck_device::{HostBuffer, HostBufferPool};
use pccheck_gpu::{SnapshotSource, StateDigest};
use pccheck_telemetry::{FlightEventKind, Phase, SpanId, Telemetry};
use pccheck_util::fnv::{chunk_digest, StateFold};
use pccheck_util::ByteSize;

use crate::codec::{compress_gated, ChunkEncoding, DedupHome, DedupIndex, FrameRecord, FrameTable};
use crate::error::PccheckError;
use crate::meta::DeltaLink;
use crate::qos::QosArbiter;
use crate::store::{CheckpointStore, CommitOutcome, Namespace, SlotLease};

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
    /// streamed raw.
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
struct StagedChunk {
    buf: HostBuffer,
    len: usize,
}

impl AsRef<[u8]> for StagedChunk {
    fn as_ref(&self) -> &[u8] {
        &self.buf.as_slice()[..self.len]
    }
}

/// The shared chunk-scheduled I/O layer over a [`CheckpointStore`].
///
/// Cloning is cheap: clones share the store and the DRAM staging pool, so
/// a strategy may hand a clone to a background persist thread.
#[derive(Debug, Clone)]
pub struct PersistPipeline {
    store: Arc<CheckpointStore>,
    pool: Option<HostBufferPool>,
    /// Writer-pool width (`p` in the paper). Atomic and shared across
    /// clones so the online controller can retune it between checkpoints
    /// without rebuilding the pipeline.
    writers: Arc<AtomicUsize>,
    fence: FenceMode,
    /// Bandwidth arbiter gating writer-pool leases when several jobs
    /// multiplex this pipeline (service mode). `None` = no arbitration.
    qos: Option<Arc<QosArbiter>>,
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
    /// End-to-end digest of the logical state, folded in the copy loop
    /// while each chunk was hot: exactly [`pccheck_gpu::Gpu::digest`] of
    /// the snapshot. A raw commit records it; a frame's table carries it.
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
            store,
            pool: None,
            writers: Arc::new(AtomicUsize::new(1)),
            fence: FenceMode::PerWriter,
            qos: None,
            codec: Arc::new(CodecState::default()),
        }
    }

    /// Sets the number of parallel writer threads (`p` in the paper).
    pub fn with_writers(self, writers: usize) -> Self {
        self.set_writers(writers);
        self
    }

    /// Retunes the writer-pool width online; takes effect on the next
    /// copy call (in-flight checkpoints keep the width they started with).
    pub fn set_writers(&self, writers: usize) {
        self.writers.store(writers.max(1), Ordering::Release);
    }

    /// The current writer-pool width.
    pub fn writers(&self) -> usize {
        self.writers.load(Ordering::Acquire)
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
        self.fence = fence;
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
        self.qos = Some(qos);
        self
    }

    /// The attached QoS arbiter, when one is installed.
    pub fn qos(&self) -> Option<&Arc<QosArbiter>> {
        self.qos.as_ref()
    }

    /// The underlying store.
    pub fn store(&self) -> &Arc<CheckpointStore> {
        &self.store
    }

    /// The fence mode this pipeline issues.
    pub fn fence(&self) -> FenceMode {
        self.fence
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
        let lease = self.store.begin_checkpoint(ns);
        ctx.telemetry
            .gauge_queue_depth(self.store.free_slot_count(ns) as u64);
        self.sample_device_queues(ctx);
        lease
    }

    /// Writes one payload chunk, feeding the write-stage histogram and the
    /// per-device submission-queue gauges. Returns the nanoseconds spent in
    /// the device call (media time, for the writer's queue-wait split).
    fn write_chunk(
        &self,
        ctx: PipelineCtx<'_>,
        lease: &SlotLease,
        offset: u64,
        data: &[u8],
    ) -> Result<u64, PccheckError> {
        let start = ctx.telemetry.now_nanos();
        self.store.write_payload(lease, offset, data)?;
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
        lease: &SlotLease,
        offset: u64,
        len: u64,
    ) -> Result<u64, PccheckError> {
        let start = ctx.telemetry.now_nanos();
        self.store.persist_payload(lease, offset, len)?;
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
    /// fence follows in [`seal`](Self::seal)).
    fn write_and_fence_chunk(
        &self,
        ctx: PipelineCtx<'_>,
        lease: &SlotLease,
        offset: u64,
        data: &[u8],
    ) -> Result<u64, PccheckError> {
        // Held across write + fence: the grant is the writer-pool lease
        // the WDRR arbiter schedules.
        let _grant = self
            .qos
            .as_ref()
            .map(|q| q.acquire(lease.job(), data.len() as u64));
        let mut media = self.write_chunk(ctx, lease, offset, data)?;
        if self.fence == FenceMode::PerWriter {
            media += self.persist_chunk(ctx, lease, offset, data.len() as u64)?;
        }
        ctx.telemetry
            .chunk(ctx.span, Phase::Persist, offset, data.len() as u64);
        Ok(media)
    }

    /// The one chunk executor: `p` writer threads pull `(slot offset,
    /// bytes)` jobs off a bounded hand-off queue of depth `queue` and
    /// write-and-fence each under the lease's QoS grant, while `feed` runs
    /// on the calling thread and pushes jobs through the `send` callback
    /// it is handed. A job's bytes are dropped the moment its write
    /// returns, so pooled staging buffers go back to a producer that is
    /// still copying later chunks.
    ///
    /// The first device error aborts the run: writers stop issuing I/O
    /// (they keep draining the queue so a producer blocked on a full pool
    /// never deadlocks) and `send` starts returning `false`, telling the
    /// producer to stop. Each writer that moved bytes reports one
    /// `writer-{w}` actor span.
    ///
    /// # Errors
    ///
    /// The first device error any writer hit.
    fn write_chunks<D: AsRef<[u8]> + Send>(
        &self,
        ctx: PipelineCtx<'_>,
        lease: &SlotLease,
        queue: usize,
        feed: impl FnOnce(&mut dyn FnMut(u64, D) -> bool),
    ) -> Result<(), PccheckError> {
        // One producer, many writers: the writers take turns at the one
        // receiver. A writer holds the turn only while it waits for a
        // message, never while it writes one. The receiver belongs to the
        // writers, so if all of them died `send` would fail, not block.
        let (tx, rx) = sync_channel::<(u64, D)>(queue.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let first_error: Mutex<Option<PccheckError>> = Mutex::new(None);
        let abort = AtomicBool::new(false);
        std::thread::scope(|s| {
            for w in 0..self.writers() {
                let rx = Arc::clone(&rx);
                let first_error = &first_error;
                let abort = &abort;
                s.spawn(move || {
                    let actor_start = ctx.telemetry.now_nanos();
                    let mut actor_bytes = 0u64;
                    let mut media_nanos = 0u64;
                    loop {
                        let next = rx.lock().recv();
                        let Ok((off, data)) = next else { break };
                        if abort.load(Ordering::Acquire) {
                            continue;
                        }
                        let bytes = data.as_ref();
                        match self.write_and_fence_chunk(ctx, lease, off, bytes) {
                            Ok(media) => {
                                actor_bytes += bytes.len() as u64;
                                media_nanos += media;
                            }
                            Err(e) => {
                                abort.store(true, Ordering::Release);
                                first_error.lock().get_or_insert(e);
                            }
                        }
                    }
                    if actor_bytes > 0 && ctx.telemetry.is_enabled() {
                        ctx.telemetry.actor_span_split(
                            ctx.span,
                            &format!("writer-{w}"),
                            actor_start,
                            actor_bytes,
                            media_nanos,
                        );
                    }
                });
            }
            drop(rx);
            feed(&mut |off, data| {
                if abort.load(Ordering::Acquire) {
                    return false;
                }
                tx.send((off, data)).expect("writers outlive the producer");
                true
            });
            drop(tx); // writers drain and exit
        });
        first_error.into_inner().map_or(Ok(()), Err)
    }

    /// Chunk-scheduled raw copy: a producer copies the snapshot from the
    /// GPU into pooled DRAM chunks and `p` writer threads persist them.
    /// With `pipelined` (Figure 7) the two overlap — writers persist
    /// already-copied chunks while the producer copies the next, and each
    /// DRAM buffer returns to the pool the moment its chunk is written.
    /// Without it (Figure 6) the producer stages the entire snapshot
    /// before the first write, so the pool must hold the whole snapshot.
    ///
    /// The returned [`Copied::persist_start`] lets the caller close the
    /// phase after [`seal`](Self::seal): the copy start when pipelined
    /// (the phases overlap), the end of staging otherwise.
    ///
    /// # Errors
    ///
    /// Propagates the first device error any writer hit.
    pub fn copy_chunks(
        &self,
        ctx: PipelineCtx<'_>,
        src: &dyn SnapshotSource,
        lease: &SlotLease,
        total: ByteSize,
        pipelined: bool,
    ) -> Result<Copied, PccheckError> {
        let pool = self.pool();
        let chunk = pool.chunk_size();
        let copy_start = ctx.telemetry.now_nanos();
        let mut fold = StateFold::new(src.step_count(), total.as_u64());
        // Producer: GPU→DRAM chunk copies (blocking on the pool when DRAM
        // is scarce). The state digest folds in here, where the bytes are
        // already hot in cache. Stops when `sink` refuses a chunk.
        let mut produce = |sink: &mut dyn FnMut(u64, StagedChunk) -> bool| {
            let mut off = 0u64;
            let mut accepted = true;
            while accepted && off < total.as_u64() {
                let len = chunk.as_u64().min(total.as_u64() - off) as usize;
                let mut buf = pool.acquire();
                src.copy_range_to_host(off, &mut buf.as_mut_slice()[..len]);
                fold.feed(&buf.as_slice()[..len]);
                ctx.telemetry
                    .chunk(ctx.span, Phase::GpuCopy, off, len as u64);
                accepted = sink(off, StagedChunk { buf, len });
                off += len as u64;
            }
            ctx.telemetry
                .phase_done(ctx.span, Phase::GpuCopy, copy_start);
            if accepted {
                self.store.flight().record(
                    FlightEventKind::CopyDone,
                    lease.counter,
                    lease.slot,
                    0,
                    total.as_u64(),
                    0,
                );
            }
        };
        let persist_start = if pipelined {
            self.write_chunks(ctx, lease, pool.total_chunks(), produce)?;
            copy_start
        } else {
            let mut staged = Vec::new();
            produce(&mut |off, chunk| {
                staged.push((off, chunk));
                true
            });
            let persist_start = ctx.telemetry.now_nanos();
            self.write_chunks(ctx, lease, staged.len(), |send| {
                for (off, chunk) in staged {
                    if !send(off, chunk) {
                        break;
                    }
                }
            })?;
            persist_start
        };
        Ok(Copied {
            persist_start,
            payload_len: total.as_u64(),
            state_digest: StateDigest(fold.finish()),
            frame: None,
        })
    }

    /// Codec copy: stages the snapshot, content-addresses every chunk,
    /// deduplicates byte-identical chunks (within this frame and against
    /// the homes the job's head installed), entropy-gate-compresses the
    /// rest, and persists `[frame table][packed chunks]` into the leased
    /// slot. The table is written *last* so a torn frame is never mistaken
    /// for a complete one.
    ///
    /// A base hit is taken iff `home.depth + 1` fits `policy.max_chain`
    /// and the lease's slot budget minus two; the frame links to the
    /// youngest home it references (see the `codec` module docs, "Dedup
    /// index lifetime").
    ///
    /// Returns `Ok(None)` — persisting nothing — when the codec path is
    /// inapplicable or unprofitable: the staging pool cannot hold the
    /// whole snapshot at once, the physical payload would not be smaller
    /// than the raw one, or it would overflow the slot. The caller then
    /// falls back to a raw copy path; the slot is untouched.
    ///
    /// The state digest folds in the staging loop beside the content
    /// addresses and lands in the table as `full_digest`; restore verifies
    /// the reconstructed payload against it end to end.
    ///
    /// # Errors
    ///
    /// Propagates the first device error any writer hit.
    pub fn copy_framed(
        &self,
        ctx: PipelineCtx<'_>,
        src: &dyn SnapshotSource,
        lease: &SlotLease,
        total: ByteSize,
        policy: DeltaPolicy,
    ) -> Result<Option<Copied>, PccheckError> {
        // The controller's chain-length signal: how much of the state
        // changed since the previous snapshot.
        let dirty_bytes: u64 = src.dirty_ranges().iter().map(|&(_, len)| len).sum();
        ctx.telemetry
            .gauge_dirty_ratio(dirty_bytes * 1000 / total.as_u64().max(1));

        let pool = self.pool();
        let chunk = pool.chunk_size();
        let n_chunks = total.as_u64().div_ceil(chunk.as_u64()) as usize;
        // The codec stages the whole snapshot (dedup needs every chunk's
        // content address before any byte is packed); a pool smaller than
        // the snapshot would deadlock on `acquire`.
        if n_chunks == 0 || pool.total_chunks() < n_chunks {
            return Ok(None);
        }

        // Stage all chunks, folding each content address and the state
        // digest while the bytes are hot in cache.
        let copy_start = ctx.telemetry.now_nanos();
        let mut fold = StateFold::new(src.step_count(), total.as_u64());
        let mut staged: Vec<(u64, usize, HostBuffer, u64)> = Vec::with_capacity(n_chunks);
        let mut off = 0u64;
        while off < total.as_u64() {
            let n = chunk.as_u64().min(total.as_u64() - off) as usize;
            let mut buf = pool.acquire();
            src.copy_range_to_host(off, &mut buf.as_mut_slice()[..n]);
            let digest = chunk_digest(&buf.as_slice()[..n]);
            fold.feed(&buf.as_slice()[..n]);
            ctx.telemetry.chunk(ctx.span, Phase::GpuCopy, off, n as u64);
            staged.push((off, n, buf, digest));
            off += n as u64;
        }
        ctx.telemetry
            .phase_done(ctx.span, Phase::GpuCopy, copy_start);
        self.store.flight().record(
            FlightEventKind::CopyDone,
            lease.counter,
            lease.slot,
            0,
            total.as_u64(),
            0,
        );

        // Cross-checkpoint dedup answers from the generation the job's
        // head installed, hit by hit: a home is referenced only while the
        // frame that links to it stays within the depth bound. A chain of
        // depth d pins d + 1 slots and the next checkpoint needs one more,
        // so the lease's slot budget bounds the depth too.
        let ns = lease.namespace();
        let head = self.store.latest_committed(ns).map(|h| h.counter);
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
            let dedup = self.codec.dedup.lock();
            for (i, (_, n, buf, digest)) in staged.iter().enumerate() {
                if let Some(&j) = self_seen.get(digest) {
                    let (_, jn, jbuf, _) = &staged[j];
                    if jn == n && jbuf.as_slice()[..*jn] == buf.as_slice()[..*n] {
                        records.push(FrameRecord {
                            kind: ChunkEncoding::DedupSelf,
                            aux: j as u32,
                            logical_len: *n as u64,
                            a: 0,
                            b: 0,
                            digest: *digest,
                        });
                        continue;
                    }
                }
                let hit = head
                    .and_then(|h| dedup.lookup(lease.job(), h, *digest, *n as u64))
                    .filter(|home| home.depth < max_depth);
                if let Some(home) = hit {
                    records.push(FrameRecord {
                        kind: ChunkEncoding::DedupBase,
                        aux: home.slot,
                        logical_len: *n as u64,
                        a: home.counter,
                        b: home.logical_off,
                        digest: *digest,
                    });
                    homes.push((*digest, home));
                    continue;
                }
                self_seen.entry(*digest).or_insert(i);
                materialized.push(i);
                // Placeholder; phys offset/len assigned after compression.
                records.push(FrameRecord {
                    kind: ChunkEncoding::Raw,
                    aux: 0,
                    logical_len: *n as u64,
                    a: 0,
                    b: 0,
                    digest: *digest,
                });
            }
        }

        // Compress materialized chunks with the writer pool's parallelism
        // (compression is the CPU-bound stage; the entropy gate keeps
        // dense payloads cheap).
        let p = self.writers();
        let compressed: Mutex<HashMap<usize, Vec<u8>>> = Mutex::new(HashMap::new());
        std::thread::scope(|s| {
            for w in 0..p {
                let materialized = &materialized;
                let staged = &staged;
                let compressed = &compressed;
                s.spawn(move || {
                    for &i in materialized.iter().skip(w).step_by(p) {
                        let (_, n, buf, _) = &staged[i];
                        if let Some(c) = compress_gated(&buf.as_slice()[..*n]) {
                            compressed.lock().insert(i, c);
                        }
                    }
                });
            }
        });
        let mut compressed = compressed.into_inner();

        // Pack materialized chunks back to back after the table.
        let mut phys = 0u64;
        for &i in &materialized {
            let n = staged[i].1;
            let (kind, len) = match compressed.get(&i) {
                Some(c) if c.len() < n => (ChunkEncoding::Lz, c.len() as u64),
                _ => {
                    compressed.remove(&i);
                    (ChunkEncoding::Raw, n as u64)
                }
            };
            records[i].kind = kind;
            records[i].a = phys;
            records[i].b = len;
            phys += len;
        }

        let table_len = FrameTable::encoded_len_for(records.len());
        let physical = table_len + phys;
        if physical >= total.as_u64() || physical > self.store.slot_size().as_u64() {
            // Nothing written yet: the caller streams the payload raw.
            return Ok(None);
        }

        // Persist the packed chunks through the writer pool — then the
        // table, last.
        let jobs = materialized
            .iter()
            .filter(|&&i| records[i].kind.is_materialized())
            .map(|&i| {
                let data: &[u8] = match compressed.get(&i) {
                    Some(c) => c,
                    None => &staged[i].2.as_slice()[..staged[i].1],
                };
                debug_assert_eq!(data.len() as u64, records[i].b);
                (table_len + records[i].a, data)
            });
        self.write_chunks(ctx, lease, materialized.len(), |send| {
            for (dst, data) in jobs {
                if !send(dst, data) {
                    break;
                }
            }
        })?;
        drop(staged); // chunks return to the pool

        let state_digest = StateDigest(fold.finish());
        let table = FrameTable {
            counter: lease.counter,
            logical_len: total.as_u64(),
            full_digest: state_digest.0,
            records,
        };
        let table_bytes = table.encode();
        debug_assert_eq!(table_bytes.len() as u64, table_len);
        self.write_and_fence_chunk(ctx, lease, 0, &table_bytes)?;

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
        Ok(Some(Copied {
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
        }))
    }

    /// One-call codec checkpoint in `ns`: lease →
    /// [`copy_framed`](Self::copy_framed) → `seal` → commit, falling back
    /// to the raw streamed path when the codec declines.
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
        let copied = match self.copy_framed(ctx, src, &lease, total, policy)? {
            Some(framed) => framed,
            None => self.copy_chunks(ctx, src, &lease, total, true)?,
        };
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
        self.write_chunk(ctx, &lease, 0, payload)?;
        self.persist_chunk(ctx, &lease, 0, total)?;
        ctx.telemetry.chunk(ctx.span, Phase::Persist, 0, total);
        ctx.telemetry
            .phase_done(ctx.span, Phase::Persist, persist_start);
        self.store.flight().record(
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
            self.write_chunk(ctx, lease, off, &tile[..n])?;
            ctx.telemetry.chunk(ctx.span, Phase::Persist, off, n as u64);
            off += n as u64;
        }
        ctx.telemetry
            .phase_done(ctx.span, Phase::GpuCopy, phase_start);
        // cudaDeviceSynchronize + msync/fence: one persist over the payload
        // issued by this same (training) thread — correct on both SSD and
        // PMEM because the same thread performed every store.
        self.persist_chunk(ctx, lease, 0, total.as_u64())?;
        ctx.telemetry
            .phase_done(ctx.span, Phase::Persist, phase_start);
        self.store.flight().record(
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
        if self.fence == FenceMode::Deferred {
            // §4.1 SSD path: one msync covering the whole payload. The
            // drain shows up as a `fence` actor leg so the ledger can tell
            // "media still flushing" from "device idle" inside Persist.
            let fence_start = ctx.telemetry.now_nanos();
            let media = self.persist_chunk(ctx, lease, 0, total.as_u64())?;
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
        self.store.flight().record(
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
    /// installs its homes as the job's next dedup generation. Concurrent
    /// callers never serialize on a lock here; losers of the head race
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
        let (job, counter) = (lease.job(), lease.counter);
        let (digest, link) = match &copied.frame {
            Some(frame) => (frame.payload_digest, frame.link),
            None => (copied.state_digest.0, None),
        };
        let outcome =
            self.store
                .commit_with_delta(lease, iteration, copied.payload_len, digest, link)?;
        if let (CommitOutcome::Committed, Some(frame)) = (outcome, &copied.frame) {
            self.codec
                .dedup
                .lock()
                .install(job, counter, frame.homes.iter().copied());
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

    /// An SSD whose `n`-th payload write from arming fails once; every
    /// other operation passes through, so writes issued *after* the fault
    /// still land and are counted.
    #[derive(Debug)]
    struct FaultyDevice {
        inner: SsdDevice,
        /// Writes left until the fault; negative = disarmed or fired.
        countdown: std::sync::atomic::AtomicI64,
        /// `(offset of the failed write, bytes written when it failed)`.
        fault: Mutex<Option<(u64, u64)>>,
    }

    impl PersistentDevice for FaultyDevice {
        fn capacity(&self) -> ByteSize {
            self.inner.capacity()
        }
        fn bandwidth(&self) -> pccheck_util::Bandwidth {
            self.inner.bandwidth()
        }
        fn write_at(&self, offset: u64, data: &[u8]) -> pccheck_device::Result<()> {
            if self.countdown.fetch_sub(1, Ordering::AcqRel) == 1 {
                let written = self.inner.stats().bytes_written().as_u64();
                *self.fault.lock() = Some((offset, written));
                return Err(pccheck_device::DeviceError::ReadFault { offset });
            }
            self.inner.write_at(offset, data)
        }
        fn persist(&self, offset: u64, len: u64) -> pccheck_device::Result<()> {
            self.inner.persist(offset, len)
        }
        fn read_at(&self, offset: u64, buf: &mut [u8]) -> pccheck_device::Result<()> {
            self.inner.read_at(offset, buf)
        }
        fn read_durable_at(&self, offset: u64, buf: &mut [u8]) -> pccheck_device::Result<()> {
            self.inner.read_durable_at(offset, buf)
        }
        fn crash_now(&self) {
            self.inner.crash_now();
        }
        fn recover(&self) {
            self.inner.recover();
        }
        fn stats(&self) -> &pccheck_device::DeviceStats {
            self.inner.stats()
        }
    }

    /// One behaviour, three callers: whichever copy verb drives the chunk
    /// executor, the first device error comes back and the writers stop
    /// issuing I/O (at most the chunks already in other writers' hands
    /// land after the fault).
    #[test]
    fn every_copy_path_aborts_after_the_first_writer_error() {
        const TOTAL: u64 = 4096;
        const CHUNK: u64 = 128;
        const WRITERS: usize = 2;
        // Compressible and chunk-wise distinct, so the framed caller
        // materializes (and writes) all 32 chunks instead of declining.
        let data: Vec<u8> = (0..TOTAL as u32).map(|i| (i / 48) as u8).collect();
        for caller in ["staged", "overlapped", "framed"] {
            let state = ByteSize::from_bytes(TOTAL);
            let cap = CheckpointStore::required_capacity(state, 2) + ByteSize::from_kb(1);
            let device = Arc::new(FaultyDevice {
                inner: SsdDevice::new(DeviceConfig::fast_for_tests(cap)),
                countdown: std::sync::atomic::AtomicI64::new(-1),
                fault: Mutex::new(None),
            });
            let store = Arc::new(
                CheckpointStore::format(
                    Arc::clone(&device) as Arc<dyn PersistentDevice>,
                    StoreGeometry::single(state, 2),
                )
                .unwrap(),
            );
            let pipeline = PersistPipeline::new(store)
                .with_writers(WRITERS)
                .with_staging(HostBufferPool::new(ByteSize::from_bytes(CHUNK), 32))
                .with_codec(true);
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
            let lease = pipeline.lease(ctx, &default_ns(&pipeline));
            device.countdown.store(3, Ordering::Release);
            let err = match caller {
                "staged" => pipeline.copy_chunks(ctx, &src, &lease, state, false).err(),
                "overlapped" => pipeline.copy_chunks(ctx, &src, &lease, state, true).err(),
                _ => pipeline
                    .copy_framed(ctx, &src, &lease, state, DeltaPolicy::default())
                    .err(),
            };
            let (fault_offset, written_at_fault) =
                device.fault.lock().expect("the armed write was reached");
            match err {
                Some(PccheckError::Device(pccheck_device::DeviceError::ReadFault { offset })) => {
                    assert_eq!(offset, fault_offset, "{caller}: the first error propagates");
                }
                other => panic!("{caller}: expected the injected fault, got {other:?}"),
            }
            let after = device.inner.stats().bytes_written().as_u64() - written_at_fault;
            assert!(
                after <= (WRITERS as u64 - 1) * CHUNK,
                "{caller}: writers kept issuing I/O after the fault ({after} bytes)"
            );
        }
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
                .unwrap()
                .expect("self-redundant payload frames");
            pipeline.seal(ctx, &lease, iter, &copied).unwrap();
            pipeline.commit(ctx, lease, iter, &copied).unwrap();
            copied.frame.expect("copy_framed returns a frame")
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
