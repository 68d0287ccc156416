//! The PCcheck engine: orchestrator + persistent manager.
//!
//! This is the concrete (real-thread) implementation of the system in
//! Figure 5. On each checkpoint request the engine:
//!
//! 1. takes one of `N` concurrency tickets (if all are taken, the request
//!    blocks — the only stall PCcheck admits beyond the `U`-phase weight
//!    lock),
//! 2. snapshots the GPU state chunk by chunk into pinned DRAM buffers from
//!    the staging pool, holding the weights shared-lock only for the copy:
//!    the copy verb consumes the guard and drops it when the last chunk is
//!    staged, so `update()` never waits on a device write (a copy copies
//!    only the chunks its last snapshot and its head's dedup homes cannot
//!    serve, and leases its slot after the guard is gone unless one is
//!    free at once, so `update()` waits for a slot only when DRAM runs
//!    out),
//! 3. hands chunks to the pipeline's `p` resident writers, which write them
//!    to the device at the leased slot's offsets, oldest checkpoint first
//!    (pipelined mode overlaps 2 and 3; non-pipelined mode stages every
//!    chunk it copies first, and leases after),
//! 4. persists the payload (per-writer fences on PMEM, or one deferred
//!    `msync` on SSD when `single_sync` is set),
//! 5. runs the store's lock-free commit protocol — atomic meta publish,
//!    durable `Committed` state-word write, `fetch_max` head advance — and
//!    recycles the displaced slot through the lock-free slot queue. No
//!    mutex is held anywhere on this path, so `N` checkpointers commit
//!    concurrently without serializing on metadata.
//!
//! All of this happens on `N` resident coordinator threads (one per
//! ticket, started with the first checkpoints and joined when the engine
//! drops); the training loop's `checkpoint()` call returns as soon as the
//! ticket and the weights lock are handed over, exactly like Figure 6's
//! overlap of `C`/`P` with `T` — unless the engine runs a baseline's
//! [`StrategyRow`](crate::StrategyRow) that waits for the commit
//! ([`crate::strategy`]). A coordinator copies, fans the writes out to the
//! pipeline's writer pool and waits for them; it is never itself a writer,
//! so no writer ever waits on another job.
//!
//! The chunk → write → fence → commit mechanics live in the shared
//! [`PersistPipeline`]; this module is the *scheduling policy* around it:
//! `N` concurrency tickets, the coordinators, and whether the copy stages
//! the whole snapshot before it persists.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

use pccheck_util::sync::{Condvar, Mutex, MutexGuard};

use pccheck_device::{HostBufferPool, PersistentDevice};
use pccheck_gpu::{
    CheckpointOutcome, Checkpointer, Gpu, OwnedWeightsGuard, SnapshotSource, StateDigest, Version,
};
use pccheck_telemetry::{CheckpointCounters, FlightEventKind, Phase, Telemetry};
use pccheck_util::ByteSize;

use crate::codec::{read_table, FrameTable};
use crate::config::PcCheckConfig;
use crate::error::PccheckError;
use crate::layout::StoreGeometry;
use crate::pipeline::{DeferredLease, FenceMode, PersistPipeline, PipelineCtx};
use crate::pool::{Order, WorkerPool};
use crate::store::{CheckpointStore, CommitOutcome, JobId, Namespace, DEFAULT_JOB};
use crate::strategy::{Waits, STRATEGIES};

/// The `N` concurrency tickets, numbered in the order `checkpoint()`
/// handed them out — which is also the order they stage in, lease a slot
/// in, commit in and retire in.
///
/// Staging in ticket order means a newer checkpoint never holds staging
/// DRAM while it waits for the lease of an older one that is still waiting
/// for DRAM (a copy staged whole leases after it has staged, a pipelined
/// copy may).
/// Leasing in ticket order makes the store's counters follow request order.
/// Committing in ticket order makes "the older checkpoint commits first"
/// hold always, not just usually: the writer pool already drains the older
/// checkpoint's chunks first, so the wait is the older one's last write and
/// commit, and what it buys is that a newer checkpoint can never slip its
/// commit in while the older coordinator waits to be scheduled, superseding
/// a payload that was already paid for. No wait can deadlock: a ticket only
/// ever waits for older ones, and an older one never needs anything a newer
/// one holds — it staged first, it took its slot first, and a newer one
/// waiting for its turn to commit has written everything and given its
/// staging buffers back.
#[derive(Debug, Default)]
struct InFlight {
    tickets: Mutex<Tickets>,
    cond: Condvar,
}

/// Tickets `..retired` are done, `..leased` hold (or held) a slot,
/// `..staged` handed their weights back, `..issued` exist.
#[derive(Debug, Default)]
struct Tickets {
    issued: u64,
    staged: u64,
    leased: u64,
    retired: u64,
}

impl InFlight {
    /// Blocks while `limit` tickets are out, then issues the next one.
    fn acquire(&self, limit: usize) -> u64 {
        let mut t = self.tickets.lock();
        while t.issued - t.retired >= limit as u64 {
            t = self.cond.wait(t);
        }
        t.issued += 1;
        t.issued - 1
    }

    /// Blocks until every older ticket has staged its snapshot.
    fn stage_in_turn(&self, ticket: u64) {
        let mut t = self.tickets.lock();
        while t.staged < ticket {
            t = self.cond.wait(t);
        }
    }

    /// Marks `ticket` staged: the next one's turn to stage.
    fn staged(&self, ticket: u64) {
        let mut t = self.tickets.lock();
        t.staged = t.staged.max(ticket + 1);
        drop(t);
        self.cond.notify_all();
    }

    /// Runs `lease` once every older ticket has leased: waiting for them
    /// when `wait` is set, `None` at once when it is not and they have not.
    /// A `lease` that returns `None` leaves the turn where it was.
    fn lease_in_turn<T>(
        &self,
        ticket: u64,
        wait: bool,
        lease: impl FnOnce() -> Option<T>,
    ) -> Option<T> {
        let mut t = self.tickets.lock();
        while t.leased < ticket {
            if !wait {
                return None;
            }
            t = self.cond.wait(t);
        }
        drop(t);
        let leased = lease()?;
        self.tickets.lock().leased = ticket + 1;
        self.cond.notify_all();
        Some(leased)
    }

    /// Blocks until every older ticket has retired.
    fn wait_turn(&self, ticket: u64) -> MutexGuard<'_, Tickets> {
        let mut t = self.tickets.lock();
        while t.retired < ticket {
            t = self.cond.wait(t);
        }
        t
    }

    /// Retires `ticket`, in its turn.
    fn release(&self, ticket: u64) {
        let mut t = self.wait_turn(ticket);
        t.retired = ticket + 1;
        // A ticket that never reached its lease must not hold up the next.
        t.staged = t.staged.max(ticket + 1);
        t.leased = t.leased.max(ticket + 1);
        drop(t);
        // Acquirers, turn-waiters and `wait_zero` drainers share this
        // condvar. A `notify_one` could hand the sole wakeup to a drainer
        // (which re-checks and exits without re-notifying) while an
        // acquirer sleeps forever — the classic lost wakeup.
        self.cond.notify_all();
    }

    fn wait_zero(&self) {
        let mut t = self.tickets.lock();
        while t.issued > t.retired {
            t = self.cond.wait(t);
        }
    }
}

/// A ticket's weights, as its copy's source: the copy drops them when the
/// snapshot is staged, which is the next ticket's turn to stage.
struct InTurn<'a> {
    guard: OwnedWeightsGuard,
    in_flight: &'a InFlight,
    ticket: u64,
}

impl Drop for InTurn<'_> {
    fn drop(&mut self) {
        self.in_flight.staged(self.ticket);
    }
}

impl SnapshotSource for InTurn<'_> {
    fn size(&self) -> ByteSize {
        self.guard.size()
    }

    fn step_count(&self) -> u64 {
        self.guard.step_count()
    }

    fn copy_range_to_host(&self, offset: u64, dst: &mut [u8]) {
        self.guard.copy_range_to_host(offset, dst)
    }

    fn version(&self) -> Option<Version> {
        self.guard.version()
    }

    fn dirty_since(&self, seq: u64) -> Option<Vec<(u64, u64)>> {
        self.guard.dirty_since(seq)
    }
}

/// The PCcheck checkpointing engine.
///
/// See the [crate-level documentation](crate) for a usage example.
#[derive(Debug)]
pub struct PcCheckEngine {
    config: PcCheckConfig,
    pipeline: Arc<PersistPipeline>,
    store: Arc<CheckpointStore>,
    /// The tenant this engine checkpoints for, resolved once: leases come
    /// from this namespace and commits move its commit pointer.
    ns: Arc<Namespace>,
    in_flight: Arc<InFlight>,
    stats: Arc<CheckpointCounters>,
    telemetry: Telemetry,
    first_error: Arc<Mutex<Option<PccheckError>>>,
    last_committed: Arc<Mutex<Option<CheckpointOutcome>>>,
    /// The `N` resident threads checkpoints run on, first in, first out.
    coordinators: WorkerPool,
    /// What a checkpoint that unwound was carrying, re-raised by
    /// [`try_drain`](Self::try_drain).
    panicked: Arc<Mutex<Option<Box<dyn Any + Send>>>>,
    /// The name of the strategy row this engine runs.
    pub(crate) name: &'static str,
    /// What its `checkpoint()` waits for.
    pub(crate) waits: Waits,
}

impl PcCheckEngine {
    /// Creates an engine over `device` for checkpoints of `checkpoint_size`
    /// bytes, formatting a fresh single-tenant store with `N+1` slots, each
    /// sized for the checkpoint's frame in `chunk_size` records.
    ///
    /// # Errors
    ///
    /// Returns [`PccheckError::InvalidConfig`] if the configuration is
    /// inconsistent or the device is too small for `N+1` slots.
    pub fn new(
        config: PcCheckConfig,
        device: Arc<dyn PersistentDevice>,
        checkpoint_size: ByteSize,
    ) -> Result<Self, PccheckError> {
        config.validate()?;
        if !config.pipelined && config.dram_bytes() < checkpoint_size {
            // The staged (Figure 6) path holds every chunk of a checkpoint
            // in DRAM before persisting it.
            return Err(PccheckError::InvalidConfig(format!(
                "non-pipelined mode needs DRAM >= checkpoint size: pool {} < {}",
                config.dram_bytes(),
                checkpoint_size
            )));
        }
        let slot = FrameTable::slot_size_for(checkpoint_size, config.chunk_size);
        let geometry = StoreGeometry {
            flight_records: config.flight_records,
            ..StoreGeometry::single(slot, (config.max_concurrent + 1) as u32)
        };
        let store = CheckpointStore::format(device, geometry)?;
        Self::with_store(config, Arc::new(store))
    }

    /// Creates an engine for [`DEFAULT_JOB`] over an existing (e.g.,
    /// recovered) store, with a pipeline of its own. A checkpoint whose
    /// frame in `chunk_size` records does not fit the store's slots fails
    /// (see [`FrameTable::slot_size_for`]).
    ///
    /// # Errors
    ///
    /// Returns [`PccheckError::InvalidConfig`] if the configuration is
    /// invalid, the store has no default namespace, or that namespace has
    /// fewer than `N+1` slots.
    // api: a test oracle, listed in DESIGN §4 ("Test oracles").
    pub fn with_store(
        config: PcCheckConfig,
        store: Arc<CheckpointStore>,
    ) -> Result<Self, PccheckError> {
        config.validate()?;
        let fence = if config.single_sync {
            FenceMode::Deferred
        } else {
            FenceMode::PerWriter
        };
        let pipeline = PersistPipeline::new(
            store,
            HostBufferPool::new(config.chunk_size, config.dram_chunks),
        )
        .with_writers(config.writer_threads)
        .with_fence(fence);
        Self::over(config, Arc::new(pipeline), DEFAULT_JOB)
    }

    /// Creates a per-job facade over a *shared* pipeline: the store,
    /// staging pool, writer pool, and QoS arbiter all belong to the
    /// daemon; this engine only schedules `job`'s checkpoints over them.
    /// `config.codec` opts this tenant's checkpoints into the codec.
    ///
    /// # Errors
    ///
    /// Returns [`PccheckError::InvalidConfig`] if the configuration is
    /// invalid, `job` has no namespace, or the namespace has fewer than
    /// `N+1` slots.
    pub fn with_shared(
        config: PcCheckConfig,
        pipeline: Arc<PersistPipeline>,
        job: JobId,
    ) -> Result<Self, PccheckError> {
        config.validate()?;
        Self::over(config, pipeline, job)
    }

    /// The one constructor: resolves `job`'s namespace in the pipeline's
    /// store, so every later lease is infallible, and starts
    /// `last_committed` from that namespace's recovered head — the state
    /// digest its frame table carries.
    fn over(
        config: PcCheckConfig,
        pipeline: Arc<PersistPipeline>,
        job: JobId,
    ) -> Result<Self, PccheckError> {
        let store = Arc::clone(pipeline.store());
        let ns = store.namespace(job)?;
        if (ns.desc().slot_count as usize) < config.max_concurrent + 1 {
            return Err(PccheckError::InvalidConfig(format!(
                "job {job}'s namespace has {} slots but N={} needs {}",
                ns.desc().slot_count,
                config.max_concurrent,
                config.max_concurrent + 1
            )));
        }
        let last = store.latest_committed(&ns).and_then(|m| {
            let table = read_table(&m, &|slot, at, buf| store.read_slot(slot, at, buf))?;
            Some(CheckpointOutcome {
                iteration: m.iteration,
                digest: StateDigest(table.full_digest),
            })
        });
        let coordinators = WorkerPool::new("pccheck-ckpt", config.max_concurrent);
        Ok(PcCheckEngine {
            config,
            pipeline,
            store,
            ns,
            in_flight: Arc::new(InFlight::default()),
            stats: Arc::new(CheckpointCounters::new()),
            telemetry: Telemetry::disabled(),
            first_error: Arc::new(Mutex::new(None)),
            last_committed: Arc::new(Mutex::new(last)),
            coordinators,
            panicked: Arc::new(Mutex::new(None)),
            name: STRATEGIES[0].name(),
            waits: Waits::Copy,
        })
    }

    /// The job this engine checkpoints for.
    pub fn job(&self) -> JobId {
        self.ns.job()
    }

    /// That job's namespace in the store.
    pub fn namespace(&self) -> &Arc<Namespace> {
        &self.ns
    }

    /// The underlying store.
    pub fn store(&self) -> &Arc<CheckpointStore> {
        &self.store
    }

    /// Engine statistics: the same counter block the telemetry layer
    /// uses, kept engine-local so it counts with telemetry disabled.
    /// [`snapshot`](CheckpointCounters::snapshot) reads them all as one
    /// consistent view.
    pub fn stats(&self) -> &CheckpointCounters {
        &self.stats
    }

    /// Attaches a telemetry handle; every subsequent checkpoint records
    /// its full lifecycle. With the default
    /// [`Telemetry::disabled`] handle every hook is a no-op.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The attached telemetry handle (disabled unless set).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Waits for all in-flight checkpoints, then surfaces the first error
    /// any background checkpoint hit since the last call (the error slot
    /// is cleared once returned). The trait-level
    /// [`drain`](Checkpointer::drain) keeps its infallible signature;
    /// failures it observes stay visible through
    /// [`stats().failed()`](CheckpointCounters::failed), the telemetry `fail`
    /// event, and the next `try_drain` call.
    ///
    /// # Errors
    ///
    /// Returns the first [`PccheckError`] recorded by a background
    /// checkpoint.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of a background checkpoint that unwound.
    pub fn try_drain(&self) -> Result<(), PccheckError> {
        self.in_flight.wait_zero();
        if let Some(payload) = self.panicked.lock().take() {
            resume_unwind(payload);
        }
        match self.first_error.lock().take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// The shared persist pipeline this engine schedules over.
    pub fn pipeline(&self) -> &Arc<PersistPipeline> {
        &self.pipeline
    }

    /// Body of one checkpoint, run on a coordinator thread. Returns
    /// the commit outcome and the state digest the copy verb folded.
    fn run_checkpoint(
        pipeline: &PersistPipeline,
        config: &PcCheckConfig,
        ctx: PipelineCtx<'_>,
        guard: OwnedWeightsGuard,
        ns: &Arc<Namespace>,
        iteration: u64,
        (in_flight, ticket): (&InFlight, u64),
    ) -> Result<(CommitOutcome, StateDigest), PccheckError> {
        in_flight.stage_in_turn(ticket);
        let src = InTurn {
            guard,
            in_flight,
            ticket,
        };
        let leased = Cell::new(None);
        let slot = DeferredLease::new(ns, |wait| {
            let lease =
                in_flight.lease_in_turn(ticket, wait, || pipeline.try_lease(ctx, ns, wait))?;
            leased.set(Some((lease.counter, lease.slot)));
            Some(lease)
        });
        let result = Self::run_leased(pipeline, config, ctx, src, slot, iteration, || {
            drop(in_flight.wait_turn(ticket))
        });
        if let (Err(_), Some((counter, slot))) = (&result, leased.get()) {
            // A failed checkpoint leaves its Begin record unterminated on
            // the flight ring without this — record the failure so the
            // forensic auditor can tell "died mid-flight at the crash"
            // from "failed and the run continued".
            pipeline.store().flight().record(
                FlightEventKind::Failed,
                counter,
                slot,
                iteration,
                0,
                0,
            );
        }
        result
    }

    /// The body of [`run_checkpoint`](Self::run_checkpoint): copy, persist,
    /// and commit — all through the shared pipeline, which leases the slot
    /// when the copy first needs it; whether the copy stages the whole
    /// snapshot first is this engine's scheduling policy.
    fn run_leased(
        pipeline: &PersistPipeline,
        config: &PcCheckConfig,
        ctx: PipelineCtx<'_>,
        src: InTurn<'_>,
        mut slot: DeferredLease<'_>,
        iteration: u64,
        turn: impl FnOnce(),
    ) -> Result<(CommitOutcome, StateDigest), PccheckError> {
        // The copy consumes the guard and drops it when the snapshot is
        // staged in DRAM: the weights are held for the copy, never for the
        // persist, and — unless a pipelined copy runs out of DRAM — not for
        // the lease either.
        let whole = !config.pipelined;
        let copied = pipeline.copy(ctx, src, &mut slot, iteration, whole, config.codec)?;
        let lease = slot.into_lease().expect("a copy that returned has leased");
        pipeline.seal(ctx, &lease, iteration, &copied)?;
        // Durable; commit once every older checkpoint of this engine has.
        turn();
        let outcome = pipeline.commit(ctx, lease, iteration, &copied)?;
        Ok((outcome, copied.state_digest))
    }
}

impl Checkpointer for PcCheckEngine {
    /// Accepts a checkpoint of the current GPU state. Blocks while all `N`
    /// concurrency tickets are taken; the copy/persist/commit runs on one
    /// of the `N` resident coordinators, and a strategy that waits for
    /// the commit blocks until it is done.
    fn checkpoint(&self, gpu: &Gpu, iteration: u64) {
        let stall_start = self.telemetry.now_nanos();
        let span = self
            .telemetry
            .span_requested(self.name(), iteration, gpu.state_size().as_u64());
        let ticket = self.in_flight.acquire(self.config.max_concurrent);
        self.stats.incr_requested();
        let guard = gpu.lock_weights_shared_owned();
        // The ticket + weights-lock wait is the only stall this call
        // imposes on the training thread, unless it waits for the commit.
        self.telemetry
            .phase_done(span, Phase::TicketWait, stall_start);
        let stall = || {
            self.telemetry
                .stall(span, self.telemetry.now_nanos().saturating_sub(stall_start))
        };
        let waits_for_commit = self.waits == Waits::Commit;
        if !waits_for_commit {
            stall();
        }
        self.telemetry.span_queued(span);

        let pipeline = Arc::clone(&self.pipeline);
        let config = self.config.clone();
        let in_flight = Arc::clone(&self.in_flight);
        let stats = Arc::clone(&self.stats);
        let telemetry = self.telemetry.clone();
        let first_error = Arc::clone(&self.first_error);
        let last = Arc::clone(&self.last_committed);
        let panicked = Arc::clone(&self.panicked);
        let total_bytes = guard.size().as_u64();
        let ns = Arc::clone(&self.ns);
        let order = Order {
            tenant: ns.job(),
            counter: 0,
        };
        let task = move |_| {
            let ctx = PipelineCtx {
                telemetry: &telemetry,
                span,
            };
            // A resident coordinator must outlive a checkpoint that
            // unwinds (the ticket still has to go back): catch here,
            // re-raise in `try_drain`.
            let result = catch_unwind(AssertUnwindSafe(|| {
                Self::run_checkpoint(
                    &pipeline,
                    &config,
                    ctx,
                    guard,
                    &ns,
                    iteration,
                    (&in_flight, ticket),
                )
            }));
            match result {
                Ok(Ok((CommitOutcome::Committed, digest))) => {
                    stats.incr_committed(total_bytes);
                    telemetry.committed(span, iteration, total_bytes);
                    let mut l = last.lock();
                    if l.is_none_or(|o| o.iteration < iteration) {
                        *l = Some(CheckpointOutcome { iteration, digest });
                    }
                }
                Ok(Ok((CommitOutcome::SupersededBy { counter }, _))) => {
                    stats.incr_superseded();
                    telemetry.superseded(span, counter);
                }
                Ok(Err(e)) => {
                    // Device failed mid-checkpoint (e.g., crash injection).
                    // The previous committed checkpoint remains valid; the
                    // failure stays visible through the `failed` counter,
                    // the telemetry `fail` event, and `try_drain`.
                    stats.incr_failed();
                    telemetry.failed(span, &e);
                    let mut slot = first_error.lock();
                    if slot.is_none() {
                        *slot = Some(e);
                    }
                }
                Err(payload) => {
                    stats.incr_failed();
                    telemetry.failed(span, "checkpoint panicked");
                    panicked.lock().get_or_insert(payload);
                }
            }
            in_flight.release(ticket);
        };
        self.coordinators.submit(order, Box::new(task));
        if waits_for_commit {
            // The whole call, through the commit, is training-thread stall.
            drop(self.in_flight.wait_turn(ticket + 1));
            stall();
        }
    }

    fn drain(&self) {
        // Infallible by signature; background errors remain visible via
        // `stats().failed()`, telemetry, and `PcCheckEngine::try_drain`.
        let _ = self.try_drain();
    }

    fn last_committed(&self) -> Option<CheckpointOutcome> {
        *self.last_committed.lock()
    }

    fn name(&self) -> &str {
        self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::SlotState;
    use crate::testutil::GatedDevice;
    use pccheck_device::{DeviceConfig, PmemDevice, SsdDevice};
    use pccheck_gpu::{GpuConfig, TrainingState};
    use pccheck_util::sync::must_not_hang;

    fn tiny_gpu(size: u64, seed: u64) -> Gpu {
        Gpu::new(
            GpuConfig::fast_for_tests(),
            TrainingState::synthetic(ByteSize::from_bytes(size), seed),
        )
    }

    /// A device for `slots` slots that hold `gpu`'s snapshot as a frame of
    /// `chunk`-byte records, with a little room to spare.
    fn capacity(gpu: &Gpu, chunk: u64, slots: u32) -> ByteSize {
        let slot = FrameTable::slot_size_for(gpu.state_size(), ByteSize::from_bytes(chunk));
        CheckpointStore::required_capacity(slot, slots) + ByteSize::from_kb(1)
    }

    /// The state behind the table of the all-`Raw` frame committed as
    /// `meta`, unverified, and the state digest its table carries.
    fn raw_state(store: &CheckpointStore, meta: &crate::CheckMeta) -> (Vec<u8>, u64) {
        let payload = store.read_checkpoint(meta).unwrap();
        let table = crate::codec::bind_frame_table(&payload, meta).unwrap();
        (
            payload[table.encoded_len() as usize..].to_vec(),
            table.full_digest,
        )
    }

    fn ssd_engine(state: u64, n: usize, p: usize, pipelined: bool) -> (PcCheckEngine, Gpu) {
        let gpu = tiny_gpu(state, 7);
        let cap = capacity(&gpu, 64, (n + 1) as u32);
        let device: Arc<dyn PersistentDevice> =
            Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let config = PcCheckConfig::builder()
            .max_concurrent(n)
            .writer_threads(p)
            .chunk_size(ByteSize::from_bytes(64))
            .dram_chunks(8)
            .pipelined(pipelined)
            .build()
            .unwrap();
        let engine = PcCheckEngine::new(config, device, gpu.state_size()).unwrap();
        (engine, gpu)
    }

    #[test]
    fn checkpoint_and_commit_round_trip() {
        let (engine, gpu) = ssd_engine(300, 2, 2, true);
        gpu.update();
        let expected = gpu.digest();
        engine.checkpoint(&gpu, 1);
        engine.drain();
        let out = engine.last_committed().unwrap();
        assert_eq!(out.iteration, 1);
        assert_eq!(out.digest, expected);
        assert_eq!(engine.stats().committed(), 1);
        assert_eq!(engine.stats().requested(), 1);
    }

    #[test]
    fn many_checkpoints_latest_wins() {
        let (engine, gpu) = ssd_engine(300, 3, 2, true);
        for iter in 1..=10 {
            gpu.update();
            engine.checkpoint(&gpu, iter);
        }
        engine.drain();
        let out = engine.last_committed().unwrap();
        assert_eq!(out.iteration, 10);
        let total = engine.stats().committed() + engine.stats().superseded();
        assert_eq!(total, 10);
        // Recovered metadata agrees.
        let meta = engine.store().latest_committed(engine.namespace()).unwrap();
        assert_eq!(meta.iteration, 10);
    }

    #[test]
    fn non_pipelined_mode_works() {
        let (engine, gpu) = ssd_engine(500, 2, 3, false);
        for iter in 1..=5 {
            gpu.update();
            engine.checkpoint(&gpu, iter);
        }
        engine.drain();
        assert_eq!(engine.last_committed().unwrap().iteration, 5);
    }

    #[test]
    fn recovered_payload_matches_gpu_state() {
        let (engine, gpu) = ssd_engine(300, 2, 2, true);
        for iter in 1..=4 {
            gpu.update();
            engine.checkpoint(&gpu, iter);
            engine.drain();
        }
        let meta = engine.store().latest_committed(engine.namespace()).unwrap();
        let (payload, digest) = raw_state(engine.store(), &meta);
        // Reconstruct and compare digests.
        let restored = restored_digest(&gpu, &payload, meta.iteration);
        assert_eq!(restored.0, digest);
        assert_eq!(restored, gpu.digest());
    }

    #[test]
    fn single_sync_mode_is_correct_on_ssd() {
        let gpu = tiny_gpu(300, 3);
        let cap = capacity(&gpu, 64, 3);
        let ssd = Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let device: Arc<dyn PersistentDevice> = ssd.clone();
        let config = PcCheckConfig::builder()
            .max_concurrent(2)
            .writer_threads(2)
            .chunk_size(ByteSize::from_bytes(64))
            .dram_chunks(8)
            .single_sync(true)
            .build()
            .unwrap();
        let engine = PcCheckEngine::new(config, device, gpu.state_size()).unwrap();
        gpu.update();
        engine.checkpoint(&gpu, 1);
        engine.drain();
        // Crash: the committed checkpoint must survive the msync-deferred path.
        ssd.crash_now();
        ssd.recover();
        let store = CheckpointStore::open(ssd).unwrap();
        let meta = store
            .latest_committed(&store.namespace(DEFAULT_JOB).unwrap())
            .unwrap();
        assert_eq!(meta.iteration, 1);
        let (payload, digest) = raw_state(&store, &meta);
        let restored = restored_digest(&gpu, &payload, meta.iteration);
        assert_eq!(restored.0, digest, "payload survived msync");
    }

    #[test]
    fn per_thread_fences_required_on_pmem() {
        // On PMEM, writer threads fence their own stores (single_sync=false)
        // and the data survives a crash.
        let gpu = tiny_gpu(300, 4);
        let cap = capacity(&gpu, 64, 3);
        let pmem = Arc::new(PmemDevice::new(DeviceConfig::fast_for_tests(cap)));
        let device: Arc<dyn PersistentDevice> = pmem.clone();
        let config = PcCheckConfig::builder()
            .max_concurrent(2)
            .writer_threads(3)
            .chunk_size(ByteSize::from_bytes(64))
            .dram_chunks(8)
            .single_sync(false)
            .build()
            .unwrap();
        let engine = PcCheckEngine::new(config, device, gpu.state_size()).unwrap();
        gpu.update();
        engine.checkpoint(&gpu, 1);
        engine.drain();
        pmem.crash_now();
        pmem.recover();
        let store = CheckpointStore::open(pmem).unwrap();
        let meta = store
            .latest_committed(&store.namespace(DEFAULT_JOB).unwrap())
            .unwrap();
        let (payload, digest) = raw_state(&store, &meta);
        assert_eq!(restored_digest(&gpu, &payload, meta.iteration).0, digest);
    }

    #[test]
    fn single_sync_on_pmem_loses_data_as_the_paper_warns() {
        // §4.1: the main thread's fence cannot cover worker stores on PMEM.
        // Configuring single_sync on PMEM is a bug our substrate catches:
        // after a crash, the payload does not verify.
        let gpu = tiny_gpu(300, 5);
        let cap = capacity(&gpu, 64, 3);
        let pmem = Arc::new(PmemDevice::new(DeviceConfig::fast_for_tests(cap)));
        let device: Arc<dyn PersistentDevice> = pmem.clone();
        let config = PcCheckConfig::builder()
            .max_concurrent(1)
            .writer_threads(2)
            .chunk_size(ByteSize::from_bytes(64))
            .dram_chunks(8)
            .single_sync(true) // WRONG on PMEM
            .build()
            .unwrap();
        let engine = PcCheckEngine::new(config, device, gpu.state_size()).unwrap();
        gpu.update();
        engine.checkpoint(&gpu, 1);
        engine.drain();
        pmem.crash_now();
        pmem.recover();
        let store = CheckpointStore::open(pmem).unwrap();
        // The commit record and the frame's table may exist (the
        // committer fenced its own writes), but the chunks written by
        // *other* threads were never fenced, so verification must fail.
        if let Some(meta) = store.latest_committed(&store.namespace(DEFAULT_JOB).unwrap()) {
            let (payload, digest) = raw_state(&store, &meta);
            assert_ne!(
                restored_digest(&gpu, &payload, meta.iteration).0,
                digest,
                "unfenced worker stores must not survive the crash"
            );
        }
    }

    #[test]
    fn concurrency_is_limited_to_n() {
        let (engine, gpu) = ssd_engine(300, 2, 1, true);
        for iter in 1..=6 {
            gpu.update();
            engine.checkpoint(&gpu, iter);
        }
        engine.drain();
        assert_eq!(engine.stats().requested(), 6);
        // DRAM pool never exceeded its chunk budget.
        assert!(engine.pipeline().staging_pool().peak_outstanding() <= 8);
    }

    /// 64-byte chunks in one snapshot of `gpu`.
    fn chunks_of(gpu: &Gpu) -> usize {
        gpu.state_size().as_u64().div_ceil(64) as usize
    }

    /// An engine over a [`GatedDevice`] with its payload gate closed, a GPU
    /// one update in, and a staging pool of exactly two snapshots (in
    /// 64-byte chunks).
    fn gated_engine(
        codec: bool,
        pipelined: bool,
        single_sync: bool,
    ) -> (Arc<GatedDevice>, Arc<PcCheckEngine>, Gpu) {
        let gpu = if codec {
            compressible_gpu(512, 31)
        } else {
            tiny_gpu(512, 31)
        };
        let cap = capacity(&gpu, 64, 3);
        let device = GatedDevice::new(cap);
        let config = PcCheckConfig::builder()
            .max_concurrent(2)
            .writer_threads(2)
            .chunk_size(ByteSize::from_bytes(64))
            .dram_chunks(2 * chunks_of(&gpu))
            .pipelined(pipelined)
            .single_sync(single_sync)
            .codec(codec)
            .build()
            .unwrap();
        let engine = PcCheckEngine::new(
            config,
            Arc::clone(&device) as Arc<dyn PersistentDevice>,
            gpu.state_size(),
        )
        .unwrap();
        device.gate_payloads(engine.store());
        gpu.update();
        (device, Arc::new(engine), gpu)
    }

    /// The digest of `payload` restored into `gpu`'s layout at `step`.
    fn restored_digest(gpu: &Gpu, payload: &[u8], step: u64) -> StateDigest {
        let layout = gpu.with_weights(|s| s.layout());
        TrainingState::restore(&layout, payload, step).digest()
    }

    #[test]
    fn update_proceeds_while_checkpoint_persists() {
        // The weights are held for the copy, never for the persist: with
        // not one payload byte admitted to the device, the next update
        // returns — in every copy mode, under both fence modes.
        for (codec, pipelined) in [(false, true), (false, false), (true, true)] {
            for single_sync in [false, true] {
                let mode = format!("codec={codec} pipelined={pipelined} single_sync={single_sync}");
                let (device, engine, gpu) = gated_engine(codec, pipelined, single_sync);
                let snapshot = gpu.digest();
                engine.checkpoint(&gpu, 1);
                let trainer = gpu.clone();
                must_not_hang(
                    &format!("update() waited for the persist ({mode})"),
                    move || trainer.update(),
                );
                assert_eq!(gpu.step_count(), 2, "{mode}");
                assert_eq!(device.payload_bytes(), 0, "{mode}: nothing persisted yet");
                assert_eq!(engine.stats().snapshot().terminated(), 0, "{mode}");
                device.open();
                engine.try_drain().unwrap();
                let out = engine
                    .last_committed()
                    .expect("committed once the gate opened");
                assert_eq!((out.iteration, out.digest), (1, snapshot), "{mode}");
                let rec = crate::recovery::recover(device as Arc<dyn PersistentDevice>).unwrap();
                assert_eq!(restored_digest(&gpu, &rec.payload, 1), snapshot, "{mode}");
            }
        }
    }

    #[test]
    fn the_fold_waits_in_the_pool_while_training_goes_on() {
        // The weights are held for the memcpy only. One writer, stuck at
        // the gate inside the first chunk's write: every later chunk's job
        // — its share of the state digest included — is still queued when
        // `update()` returns and rewrites the weights. The digest they
        // then fold is the snapshot's, because it is folded from the
        // staged bytes.
        const BLOCK: u64 = pccheck_util::fnv::DIGEST_BLOCK as u64;
        let gpu = tiny_gpu(5 * BLOCK + 13, 37);
        let cap = capacity(&gpu, BLOCK, 3);
        let device = GatedDevice::new(cap);
        let config = PcCheckConfig::builder()
            .max_concurrent(1)
            .writer_threads(1)
            .chunk_size(ByteSize::from_bytes(BLOCK))
            .dram_chunks(6)
            .build()
            .unwrap();
        let engine = PcCheckEngine::new(
            config,
            Arc::clone(&device) as Arc<dyn PersistentDevice>,
            gpu.state_size(),
        )
        .unwrap();
        device.gate_payloads(engine.store());
        gpu.update();
        let snapshot = gpu.digest();
        engine.checkpoint(&gpu, 1);
        let trainer = gpu.clone();
        must_not_hang("update() waited for the fold", move || trainer.update());
        device.wait_until_blocked(1);
        assert_eq!(device.payload_bytes(), 0, "the one writer is at the gate");
        assert_eq!(
            engine.pipeline().staging_pool().available(),
            0,
            "six chunks, six jobs"
        );
        assert_ne!(gpu.digest(), snapshot, "the weights moved on");
        device.open();
        engine.try_drain().unwrap();
        let out = engine.last_committed().expect("committed");
        assert_eq!((out.iteration, out.digest), (1, snapshot));
        let rec = crate::recovery::recover(device as Arc<dyn PersistentDevice>).unwrap();
        assert_eq!(restored_digest(&gpu, &rec.payload, 1), snapshot);
    }

    #[test]
    fn two_checkpoints_in_flight_drain_oldest_first() {
        let (device, engine, gpu) = gated_engine(false, true, false);
        let chunks = chunks_of(&gpu);
        let first = gpu.digest();
        engine.checkpoint(&gpu, 1);
        // update() returning means checkpoint 1 is staged; likewise 2.
        let second = must_not_hang("staging two snapshots behind a closed gate", {
            let (engine, gpu) = (Arc::clone(&engine), gpu.clone());
            move || {
                gpu.update();
                let second = gpu.digest();
                engine.checkpoint(&gpu, 2);
                gpu.update();
                second
            }
        });
        assert_eq!(device.payload_bytes(), 0);
        assert_eq!(
            engine.pipeline().staging_pool().peak_outstanding(),
            2 * chunks,
            "both snapshots sit in DRAM at once, not one snapshot's {chunks} chunks"
        );

        // Admit the older checkpoint's slot, the one claimed by the lower
        // counter. The pool serves its chunks before the newer one's, so it
        // commits alone; a pool that served the newer checkpoint first
        // would leave both writers waiting at the gate with it unwritten.
        let store = engine.store();
        let older = (0..store.num_slots())
            .filter_map(|slot| match store.slot_commit_state(slot) {
                SlotState::Claimed { counter } => Some((counter, slot)),
                _ => None,
            })
            .min()
            .expect("checkpoint 1 holds a slot")
            .1;
        device.allow_slot(store, older);
        must_not_hang("the older checkpoint commits on its own", {
            let (engine, device) = (Arc::clone(&engine), Arc::clone(&device));
            move || {
                while engine.stats().committed() < 1 {
                    std::thread::yield_now();
                }
                // Both writers now hold chunks of checkpoint 2.
                device.wait_until_blocked(2);
            }
        });
        let head = engine.store().latest_committed(engine.namespace()).unwrap();
        assert_eq!(head.iteration, 1, "the older one committed first");
        assert_eq!(head.slot, older);
        let slot = engine.store().slot_payload_offset(head.slot);
        let admitted = device.admitted();
        assert_eq!(admitted.len(), chunks);
        let slot_size = engine.store().slot_size().as_u64();
        assert!(
            admitted
                .iter()
                .all(|off| (slot..slot + slot_size).contains(off)),
            "every admitted write went to checkpoint 1's slot: {admitted:?} vs {slot}"
        );
        let rec =
            crate::recovery::recover(Arc::clone(&device) as Arc<dyn PersistentDevice>).unwrap();
        assert_eq!(rec.iteration, 1);
        assert_eq!(restored_digest(&gpu, &rec.payload, 1), first);

        device.open();
        engine.try_drain().unwrap();
        assert_eq!(engine.stats().committed(), 2);
        assert_eq!(engine.stats().superseded(), 0);
        let rec = crate::recovery::recover(device as Arc<dyn PersistentDevice>).unwrap();
        assert_eq!(rec.iteration, 2);
        assert_eq!(restored_digest(&gpu, &rec.payload, 2), second);
    }

    #[test]
    fn overlapping_framed_checkpoints_share_a_pool_of_one_and_a_half_snapshots() {
        // Two framed checkpoints stage at the same moment (no update in
        // between) on a pool that holds 1.5 snapshots. A copy that runs out
        // of DRAM takes its slot first, so every chunk it holds drains to
        // the device and neither can sit on half a pool forever.
        let gpu = compressible_gpu(2048, 33);
        let cap = capacity(&gpu, 256, 3);
        let device: Arc<dyn PersistentDevice> =
            Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let config = PcCheckConfig::builder()
            .max_concurrent(2)
            .writer_threads(2)
            .chunk_size(ByteSize::from_bytes(256))
            .dram_chunks(12)
            .codec(true)
            .build()
            .unwrap();
        let engine = PcCheckEngine::new(config, Arc::clone(&device), gpu.state_size()).unwrap();
        must_not_hang(
            "framed checkpoints deadlocked on the staging pool",
            move || {
                for step in 1..=50u64 {
                    gpu.update();
                    engine.checkpoint(&gpu, step);
                    engine.checkpoint(&gpu, step);
                }
                engine.try_drain().unwrap();
                assert_eq!(engine.stats().snapshot().terminated(), 100);
                assert_eq!(engine.stats().failed(), 0);
                assert!(engine.pipeline().staging_pool().peak_outstanding() <= 12);
                let rec = crate::recovery::recover(device).unwrap();
                assert_eq!(
                    restored_digest(&gpu, &rec.payload, rec.iteration),
                    gpu.digest()
                );
            },
        );
    }

    #[test]
    fn non_pipelined_requires_dram_for_a_full_checkpoint() {
        let gpu = tiny_gpu(4096, 9);
        let cap = capacity(&gpu, 64, 3);
        let device: Arc<dyn PersistentDevice> =
            Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let config = PcCheckConfig::builder()
            .max_concurrent(2)
            .writer_threads(2)
            .chunk_size(ByteSize::from_bytes(64))
            .dram_chunks(2) // 128 bytes of DRAM for a 4 KB checkpoint
            .pipelined(false)
            .build()
            .unwrap();
        assert!(matches!(
            PcCheckEngine::new(config, device, gpu.state_size()),
            Err(PccheckError::InvalidConfig(_))
        ));
    }

    #[test]
    fn telemetry_records_full_lifecycle() {
        use pccheck_telemetry::EventKind;

        let (engine, gpu) = ssd_engine(300, 2, 2, true);
        let telemetry = Telemetry::enabled();
        let engine = engine.with_telemetry(telemetry.clone());
        for iter in 1..=4 {
            gpu.update();
            engine.checkpoint(&gpu, iter);
        }
        engine.drain();

        let snap = telemetry.snapshot().unwrap();
        assert_eq!(snap.counters.requested, 4);
        assert_eq!(snap.counters.terminated(), 4);
        assert_eq!(snap.counters.failed, 0);
        assert_eq!(snap.in_flight, 0);
        assert_eq!(snap.phase(Phase::TicketWait).count, 4);
        assert_eq!(snap.phase(Phase::GpuCopy).count, 4);
        assert_eq!(snap.phase(Phase::Persist).count, 4);
        assert_eq!(snap.phase(Phase::Commit).count, 4);
        assert_eq!(snap.stall.count, 4);
        // Every byte of every checkpoint passed through both phases.
        assert_eq!(snap.gpu_copy_bytes, 4 * 300);
        let table = FrameTable::encoded_len_for(300usize.div_ceil(64));
        assert_eq!(snap.persist_chunk_bytes, 4 * (table + 300));

        // Engine stats and the telemetry counters tell the same story.
        let stats = engine.stats().snapshot();
        assert_eq!(stats.requested, snap.counters.requested);
        assert_eq!(stats.committed, snap.counters.committed);
        assert_eq!(stats.superseded, snap.counters.superseded);
        assert_eq!(stats.bytes_persisted, snap.counters.committed * 300);

        // Every span terminates exactly once.
        let events = telemetry.events();
        for e in &events {
            if matches!(e.kind, EventKind::Requested { .. }) {
                let terminals = events
                    .iter()
                    .filter(|t| {
                        t.span == e.span
                            && matches!(
                                t.kind,
                                EventKind::Committed { .. }
                                    | EventKind::Superseded { .. }
                                    | EventKind::Failed { .. }
                            )
                    })
                    .count();
                assert_eq!(terminals, 1, "{} must terminate once", e.span);
            }
        }
    }

    #[test]
    fn disabled_telemetry_records_nothing() {
        let (engine, gpu) = ssd_engine(300, 2, 2, true);
        assert!(!engine.telemetry().is_enabled());
        gpu.update();
        engine.checkpoint(&gpu, 1);
        engine.drain();
        assert!(engine.telemetry().events().is_empty());
        assert!(engine.telemetry().snapshot().is_none());
        // Engine-local stats still work without telemetry.
        assert_eq!(engine.stats().snapshot().committed, 1);
    }

    #[test]
    fn background_errors_propagate_through_try_drain() {
        let gpu = tiny_gpu(300, 6);
        let geometry = StoreGeometry {
            flight_records: 64,
            ..StoreGeometry::single(
                FrameTable::slot_size_for(gpu.state_size(), ByteSize::from_bytes(64)),
                3,
            )
        };
        let device = GatedDevice::new(geometry.required_capacity() + ByteSize::from_kb(1));
        let config = PcCheckConfig::builder()
            .max_concurrent(2)
            .writer_threads(2)
            .chunk_size(ByteSize::from_bytes(64))
            .dram_chunks(8)
            .flight_records(64)
            .build()
            .unwrap();
        let telemetry = Telemetry::enabled();
        let engine = PcCheckEngine::new(
            config,
            Arc::clone(&device) as Arc<dyn PersistentDevice>,
            gpu.state_size(),
        )
        .unwrap()
        .with_telemetry(telemetry.clone());
        device.gate_payloads(engine.store());
        device.open();
        gpu.update();
        device.fail_write(2);
        engine.checkpoint(&gpu, 1);
        // The weights went back although the checkpoint died.
        let trainer = gpu.clone();
        must_not_hang("a failed checkpoint kept the weights", move || {
            trainer.update()
        });
        let err = engine.try_drain().unwrap_err();
        assert!(matches!(err, PccheckError::Device(_)), "{err}");
        assert_eq!(engine.stats().failed(), 1);
        assert_eq!(engine.stats().snapshot().terminated(), 1);
        // The failure is also a terminal event in the trace...
        assert_eq!(telemetry.snapshot().unwrap().counters.failed, 1);
        assert!(telemetry
            .events()
            .iter()
            .any(|e| matches!(e.kind, pccheck_telemetry::EventKind::Failed { .. })));
        // ...and on the flight ring, closing the checkpoint's Begin.
        let ring = engine.store().flight().ring().unwrap().read_all().unwrap();
        let of = |kind| ring.records.iter().filter(|r| r.kind == kind).count();
        assert_eq!(
            (of(FlightEventKind::Begin), of(FlightEventKind::Failed)),
            (1, 1)
        );
        // The error slot is one-shot: a second drain is clean.
        assert!(engine.try_drain().is_ok());
        // Its cancelled writes gave their buffers back, and the writer pool
        // and the coordinators carry the next checkpoint as if nothing
        // had happened.
        assert_eq!(engine.pipeline().staging_pool().available(), 8);
        engine.checkpoint(&gpu, 2);
        engine.try_drain().unwrap();
        assert_eq!(engine.stats().committed(), 1);
        let out = engine.last_committed().unwrap();
        assert_eq!((out.iteration, out.digest), (2, gpu.digest()));
        let rec = crate::recovery::recover(device as Arc<dyn PersistentDevice>).unwrap();
        assert_eq!(rec.iteration, 2);
        assert_eq!(restored_digest(&gpu, &rec.payload, 2), gpu.digest());
    }

    #[test]
    fn failed_checkpoints_give_their_slots_back() {
        // N=2 on three slots, one of them pinned by a commit: two failed
        // checkpoints that kept their slots would leave none, and every
        // later `begin_checkpoint` would wait forever.
        let gpu = tiny_gpu(300, 6);
        let geometry = StoreGeometry {
            flight_records: 64,
            ..StoreGeometry::single(
                FrameTable::slot_size_for(gpu.state_size(), ByteSize::from_bytes(64)),
                3,
            )
        };
        let device = GatedDevice::new(geometry.required_capacity() + ByteSize::from_kb(1));
        let config = PcCheckConfig::builder()
            .max_concurrent(2)
            .writer_threads(2)
            .chunk_size(ByteSize::from_bytes(64))
            .dram_chunks(8)
            .flight_records(64)
            .build()
            .unwrap();
        let engine = PcCheckEngine::new(
            config,
            Arc::clone(&device) as Arc<dyn PersistentDevice>,
            gpu.state_size(),
        )
        .unwrap();
        device.gate_payloads(engine.store());
        device.open();
        gpu.update();
        engine.checkpoint(&gpu, 1);
        engine.try_drain().unwrap();
        for iteration in 2..4 {
            gpu.update();
            device.fail_write(2);
            engine.checkpoint(&gpu, iteration);
            let err = engine.try_drain().unwrap_err();
            assert!(matches!(err, PccheckError::Device(_)), "{err}");
        }
        assert_eq!(engine.stats().failed(), 2);
        let (engine, gpu) = must_not_hang("a failed checkpoint kept its slot", move || {
            gpu.update();
            engine.checkpoint(&gpu, 4);
            engine.try_drain().unwrap();
            (engine, gpu)
        });
        assert_eq!(engine.stats().committed(), 2);
        let out = engine.last_committed().unwrap();
        assert_eq!((out.iteration, out.digest), (4, gpu.digest()));
        // The failures stay on the flight ring.
        let ring = engine.store().flight().ring().unwrap().read_all().unwrap();
        let failed = ring
            .records
            .iter()
            .filter(|r| r.kind == FlightEventKind::Failed);
        assert_eq!(failed.count(), 2);
        let rec = crate::recovery::recover(device as Arc<dyn PersistentDevice>).unwrap();
        assert_eq!(rec.iteration, 4);
        assert_eq!(restored_digest(&gpu, &rec.payload, 4), gpu.digest());
    }

    #[test]
    fn release_wakes_drainers_and_queued_acquirers() {
        // Regression: `release` used `notify_one` on the condvar shared by
        // `acquire` waiters and `wait_zero` drainers. With a drainer and an
        // acquirer both queued, the single wakeup could go to the drainer —
        // which exits without re-notifying — leaving the acquirer asleep
        // forever. The drill deadlocks under the old code, so it runs under
        // the hang watchdog.
        must_not_hang("lost wakeup: an acquirer or drainer never woke", || {
            let gate = Arc::new(InFlight::default());
            let held = gate.acquire(1); // hold the only ticket so everyone queues
            let mut threads = Vec::new();
            for _ in 0..3 {
                let gate = Arc::clone(&gate);
                threads.push(std::thread::spawn(move || {
                    let ticket = gate.acquire(1);
                    gate.release(ticket);
                }));
            }
            let drainer = {
                let gate = Arc::clone(&gate);
                std::thread::spawn(move || gate.wait_zero())
            };
            // Let the acquirers and the drainer all block on the condvar.
            std::thread::sleep(std::time::Duration::from_millis(100));
            gate.release(held);
            for t in threads {
                t.join().unwrap();
            }
            drainer.join().unwrap();
        });
    }

    #[test]
    fn shared_facades_checkpoint_independent_jobs() {
        use crate::qos::{QosArbiter, QosConfig};

        let state = ByteSize::from_bytes(600);
        let geometry = StoreGeometry {
            slot_size: FrameTable::slot_size_for(state, ByteSize::from_bytes(64)),
            slots: 8,
            flight_records: 64,
            max_namespaces: 4,
        };
        let cap = geometry.required_capacity() + ByteSize::from_kb(1);
        let device: Arc<dyn PersistentDevice> =
            Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let store = Arc::new(CheckpointStore::format(device, geometry).unwrap());
        let tenants = [
            store.allocate_namespace(1, 4).unwrap(),
            store.allocate_namespace(2, 4).unwrap(),
        ];
        let qos = Arc::new(QosArbiter::new(QosConfig::default()));
        qos.register_job(1, 1);
        qos.register_job(2, 1);
        let pool = HostBufferPool::new(ByteSize::from_bytes(64), 16);
        let pipeline = Arc::new(
            PersistPipeline::new(Arc::clone(&store), pool)
                .with_writers(2)
                .with_qos(Arc::clone(&qos)),
        );
        let config = PcCheckConfig::builder()
            .max_concurrent(2)
            .writer_threads(2)
            .chunk_size(ByteSize::from_bytes(64))
            .dram_chunks(16)
            .build()
            .unwrap();
        let e1 = PcCheckEngine::with_shared(config.clone(), Arc::clone(&pipeline), 1).unwrap();
        let e2 = PcCheckEngine::with_shared(config.clone(), Arc::clone(&pipeline), 2).unwrap();
        assert_eq!(e1.job(), 1);

        let g1 = tiny_gpu(600, 21);
        let g2 = tiny_gpu(600, 22);
        for iter in 1..=6u64 {
            g1.update();
            g2.update();
            e1.checkpoint(&g1, iter);
            e2.checkpoint(&g2, 100 + iter);
        }
        e1.drain();
        e2.drain();
        assert_eq!(e1.last_committed().unwrap().iteration, 6);
        assert_eq!(e2.last_committed().unwrap().iteration, 106);
        // The store's per-namespace heads agree with the facades.
        assert_eq!(store.latest_committed(&tenants[0]).unwrap().iteration, 6);
        assert_eq!(store.latest_committed(&tenants[1]).unwrap().iteration, 106);
        // Both jobs' chunk writes were metered by the shared arbiter.
        let shares = qos.shares();
        assert!(shares.iter().find(|s| s.0 == 1).unwrap().1 >= 600);
        assert!(shares.iter().find(|s| s.0 == 2).unwrap().1 >= 600);

        // A new facade over the same pipeline resumes from the namespace
        // head, exactly like a restarted tenant reattaching to the daemon.
        let e1b = PcCheckEngine::with_shared(config.clone(), Arc::clone(&pipeline), 1).unwrap();
        assert_eq!(e1b.last_committed().unwrap().iteration, 6);

        // Unknown job and missing namespaces are rejected at build time.
        assert!(matches!(
            PcCheckEngine::with_shared(config, Arc::clone(&pipeline), 99),
            Err(PccheckError::InvalidConfig(_))
        ));
    }

    /// A GPU whose state is a 32-byte block tiled to `size`: highly
    /// compressible and self-redundant, and it stays that way across
    /// updates (the step transform is position-independent).
    fn compressible_gpu(size: u64, seed: u64) -> Gpu {
        Gpu::new(
            GpuConfig::fast_for_tests(),
            TrainingState::compressible(ByteSize::from_bytes(size), seed, 32),
        )
    }

    #[test]
    fn codec_engine_commits_framed_and_recovers_bit_identical() {
        // End to end through the engine: compressible weights, codec on.
        let gpu = compressible_gpu(4096, 11);
        let cap = capacity(&gpu, 256, 4);
        let device: Arc<dyn PersistentDevice> =
            Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let config = PcCheckConfig::builder()
            .max_concurrent(2)
            .writer_threads(2)
            .chunk_size(ByteSize::from_bytes(256))
            .dram_chunks(16)
            .codec(true)
            .build()
            .unwrap();
        let telemetry = Telemetry::enabled();
        let engine = PcCheckEngine::new(config, device, gpu.state_size())
            .unwrap()
            .with_telemetry(telemetry.clone());
        for iter in 1..=4 {
            gpu.update();
            engine.checkpoint(&gpu, iter);
            engine.drain();
        }
        assert_eq!(engine.last_committed().unwrap().iteration, 4);
        // Recovery reproduces the live GPU state exactly.
        let recovered = crate::recovery::recover(Arc::clone(engine.store().device())).unwrap();
        assert_eq!(recovered.iteration, 4);
        let layout = gpu.with_weights(|s| s.layout());
        let restored = TrainingState::restore(&layout, &recovered.payload, recovered.iteration);
        assert_eq!(restored.digest(), gpu.digest());
        // Synthetic weights are quantized ramps — highly compressible, so
        // the codec must have saved bytes by the fourth checkpoint.
        let snap = telemetry.snapshot().unwrap();
        assert!(
            snap.codec_bytes_saved > 0 || snap.dedup_chunks > 0,
            "codec earned nothing on compressible synthetic state"
        );
    }

    #[test]
    fn an_engine_reopened_over_a_codec_store_resumes_from_its_state_digest() {
        // The head's commit record carries the checksum of its frame's
        // table; the state digest is in the table. A reopened engine
        // reports the latter.
        let gpu = compressible_gpu(4096, 41);
        let device: Arc<dyn PersistentDevice> = Arc::new(SsdDevice::new(
            DeviceConfig::fast_for_tests(capacity(&gpu, 256, 3)),
        ));
        let config = PcCheckConfig::builder()
            .max_concurrent(2)
            .writer_threads(2)
            .chunk_size(ByteSize::from_bytes(256))
            .dram_chunks(16)
            .codec(true)
            .build()
            .unwrap();
        let engine = PcCheckEngine::new(config.clone(), device, gpu.state_size()).unwrap();
        gpu.update();
        engine.checkpoint(&gpu, 1);
        engine.try_drain().unwrap();
        let store = Arc::clone(engine.store());
        drop(engine);
        let head = store.latest_committed(&store.namespace(DEFAULT_JOB).unwrap());
        let payload = store.read_checkpoint(&head.unwrap()).unwrap();
        let table = FrameTable::decode(&payload).unwrap();
        assert!(
            table
                .records
                .iter()
                .any(|r| r.kind != crate::ChunkEncoding::Raw),
            "the codec packed the head"
        );
        let reopened = PcCheckEngine::with_store(config, store).unwrap();
        let out = reopened.last_committed().expect("resumed");
        assert_eq!((out.iteration, out.digest), (1, gpu.digest()));
    }

    #[test]
    fn a_checkpoint_whose_iteration_is_not_the_step_count_recovers() {
        // One update (step 1), acknowledged as iteration 100: the frame's
        // state digest is folded with the iteration its commit records,
        // which is what restore verifies — streamed, staged and codec.
        for (pipelined, codec) in [(true, false), (false, false), (true, true)] {
            let gpu = compressible_gpu(4096, 61);
            let cap = capacity(&gpu, 256, 3);
            let ssd = Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
            let config = PcCheckConfig::builder()
                .max_concurrent(2)
                .writer_threads(2)
                .chunk_size(ByteSize::from_bytes(256))
                .dram_chunks(16)
                .pipelined(pipelined)
                .codec(codec)
                .build()
                .unwrap();
            let device: Arc<dyn PersistentDevice> = ssd.clone();
            let engine = PcCheckEngine::new(config, device, gpu.state_size()).unwrap();
            gpu.update();
            engine.checkpoint(&gpu, 100);
            engine.try_drain().unwrap();
            let acked = engine.last_committed().unwrap();
            ssd.crash_now();
            ssd.recover();
            let rec = crate::recovery::recover(ssd).unwrap();
            let fresh = compressible_gpu(4096, 0);
            rec.restore_into(&fresh);
            let case = format!("pipelined={pipelined} codec={codec}");
            assert_eq!(
                (rec.iteration, fresh.digest()),
                (100, acked.digest),
                "{case}"
            );
            assert_eq!(acked.iteration, 100, "{case}");
        }
    }

    #[test]
    fn codec_engine_survives_crash_and_recovery() {
        let gpu = compressible_gpu(2048, 12);
        let cap = capacity(&gpu, 256, 4);
        let ssd = Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let device: Arc<dyn PersistentDevice> = ssd.clone();
        let config = PcCheckConfig::builder()
            .max_concurrent(2)
            .writer_threads(2)
            .chunk_size(ByteSize::from_bytes(256))
            .dram_chunks(16)
            .codec(true)
            .build()
            .unwrap();
        let engine = PcCheckEngine::new(config, device, gpu.state_size()).unwrap();
        for iter in 1..=3 {
            gpu.update();
            engine.checkpoint(&gpu, iter);
            engine.drain();
        }
        ssd.crash_now();
        ssd.recover();
        let recovered = crate::recovery::recover(ssd).unwrap();
        assert_eq!(recovered.iteration, 3);
        let layout = gpu.with_weights(|s| s.layout());
        let restored = TrainingState::restore(&layout, &recovered.payload, recovered.iteration);
        assert_eq!(
            restored.digest(),
            gpu.digest(),
            "framed payload survived crash"
        );
    }

    #[test]
    fn a_staging_pool_holds_only_what_its_checkpoints_had_in_flight() {
        // `dram_chunks` is a cap, not a reservation: a sparse codec engine
        // and a dense streamed one each end with their high-water of
        // chunks resident, short of a 64-chunk budget. A codec frame streams
        // and copies only what its head cannot serve, so a sparse codec
        // engine also packs its frames through half a snapshot of DRAM (8
        // of 16 chunks).
        let legs = [
            (compressible_gpu(4096, 21), true, 64),
            (compressible_gpu(4096, 21), true, 8),
            (tiny_gpu(4096, 22), false, 64),
        ];
        for (gpu, codec, budget) in legs {
            let cap = capacity(&gpu, 256, 3);
            let device: Arc<dyn PersistentDevice> =
                Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
            let config = PcCheckConfig::builder()
                .max_concurrent(2)
                .writer_threads(2)
                .chunk_size(ByteSize::from_bytes(256))
                .dram_chunks(budget)
                .codec(codec)
                .pipelined(true)
                .build()
                .unwrap();
            let telemetry = Telemetry::enabled();
            let engine = PcCheckEngine::new(config, Arc::clone(&device), gpu.state_size())
                .unwrap()
                .with_telemetry(telemetry.clone());
            for iter in 1..=8 {
                if codec {
                    gpu.update_sparse(0.05);
                } else {
                    gpu.update();
                }
                engine.checkpoint(&gpu, iter);
            }
            engine.drain();
            assert_eq!(engine.stats().failed(), 0);
            let pool = engine.pipeline().staging_pool();
            let resident = pool.resident_chunks();
            assert_eq!(resident, pool.peak_outstanding(), "codec {codec}");
            let leg = format!("codec {codec}, budget {budget}");
            assert!(resident > 0 && resident < 64, "{leg}: {resident}");
            assert!(resident <= budget, "{leg}: {resident}");
            let saved = telemetry.snapshot().unwrap().codec_bytes_saved;
            assert_eq!(saved > 0, codec, "{leg}: {saved} bytes saved");
            let rec = crate::recovery::recover(device).unwrap();
            assert_eq!(
                restored_digest(&gpu, &rec.payload, rec.iteration),
                gpu.digest()
            );
        }
    }

    #[test]
    fn a_codec_engine_over_a_one_chunk_pool_commits_packed_sparse_frames() {
        // One staging chunk for a sixteen-chunk state: every copy waits for
        // DRAM, so it leases first and each chunk is written before the
        // next is staged; the frames still deduplicate and compress.
        let gpu = compressible_gpu(4096, 23);
        let cap = capacity(&gpu, 256, 3);
        let device: Arc<dyn PersistentDevice> =
            Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let config = PcCheckConfig::builder()
            .max_concurrent(2)
            .writer_threads(2)
            .chunk_size(ByteSize::from_bytes(256))
            .dram_chunks(1)
            .codec(true)
            .build()
            .unwrap();
        let telemetry = Telemetry::enabled();
        let engine = PcCheckEngine::new(config, Arc::clone(&device), gpu.state_size())
            .unwrap()
            .with_telemetry(telemetry.clone());
        let engine = Arc::new(engine);
        for iter in 1..=6 {
            gpu.update_sparse(0.05);
            let (engine, gpu) = (Arc::clone(&engine), gpu.clone());
            must_not_hang(&format!("checkpoint {iter}"), move || {
                engine.checkpoint(&gpu, iter);
                engine.try_drain().unwrap();
            });
        }
        let stats = engine.stats();
        assert_eq!((stats.committed(), stats.superseded()), (6, 0));
        let snap = telemetry.snapshot().unwrap();
        assert!(
            snap.codec_bytes_saved > 0 && snap.dedup_chunks > 0,
            "{snap:?}"
        );
        assert_eq!(engine.pipeline().staging_pool().resident_chunks(), 1);
        let rec = crate::recovery::recover(device).unwrap();
        assert_eq!(rec.iteration, 6);
        assert_eq!(restored_digest(&gpu, &rec.payload, 6), gpu.digest());
    }

    #[test]
    fn sparse_updates_report_their_dirty_ratio() {
        let gpu = Gpu::new(
            GpuConfig::fast_for_tests(),
            TrainingState::compressible(ByteSize::from_bytes(4096), 15, 32),
        );
        let cap = capacity(&gpu, 256, 4);
        let device: Arc<dyn PersistentDevice> =
            Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let config = PcCheckConfig::builder()
            .max_concurrent(2)
            .writer_threads(2)
            .chunk_size(ByteSize::from_bytes(256))
            .dram_chunks(16)
            .codec(true)
            .build()
            .unwrap();
        let telemetry = Telemetry::enabled();
        let engine = PcCheckEngine::new(config, device, gpu.state_size())
            .unwrap()
            .with_telemetry(telemetry.clone());
        for iter in 1..=4 {
            gpu.update_sparse(0.05);
            engine.checkpoint(&gpu, iter);
            engine.drain();
        }
        let ratio = telemetry.snapshot().unwrap().dirty_ratio_permille;
        assert!(
            ratio > 0 && ratio < 150,
            "the framed path reports the snapshot's dirty ratio, got {ratio}"
        );
    }

    #[test]
    fn with_store_rejects_too_few_slots() {
        let gpu = tiny_gpu(300, 8);
        let cap = CheckpointStore::required_capacity(gpu.state_size(), 2) + ByteSize::from_kb(1);
        let device: Arc<dyn PersistentDevice> =
            Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let store = Arc::new(
            CheckpointStore::format(device, StoreGeometry::single(gpu.state_size(), 2)).unwrap(),
        );
        let config = PcCheckConfig::builder().max_concurrent(3).build().unwrap();
        assert!(matches!(
            PcCheckEngine::with_store(config, store),
            Err(PccheckError::InvalidConfig(_))
        ));
    }

    /// A codec engine (N=2, three slots, 64-byte chunks, a staging pool of
    /// two snapshots) over an open [`GatedDevice`], for a compressible GPU.
    fn codec_engine(gpu: &Gpu) -> (Arc<GatedDevice>, Arc<PcCheckEngine>) {
        codec_engine_in(gpu, 64)
    }

    /// [`codec_engine`] in `chunk`-byte chunks.
    fn codec_engine_in(gpu: &Gpu, chunk: u64) -> (Arc<GatedDevice>, Arc<PcCheckEngine>) {
        let device = GatedDevice::new(capacity(gpu, chunk, 3));
        let config = PcCheckConfig::builder()
            .max_concurrent(2)
            .writer_threads(2)
            .chunk_size(ByteSize::from_bytes(chunk))
            .dram_chunks(2 * gpu.state_size().as_u64().div_ceil(chunk) as usize)
            .codec(true)
            .build()
            .unwrap();
        let engine = PcCheckEngine::new(
            config,
            Arc::clone(&device) as Arc<dyn PersistentDevice>,
            gpu.state_size(),
        )
        .unwrap();
        (device, Arc::new(engine))
    }

    /// Drains `engine` and builds a new one over its store with the codec
    /// `on` or off: how a deployment changes the codec.
    fn reopened(engine: &PcCheckEngine, on: bool) -> Arc<PcCheckEngine> {
        engine.try_drain().unwrap();
        let config = PcCheckConfig {
            codec: on,
            ..engine.config.clone()
        };
        Arc::new(PcCheckEngine::with_store(config, Arc::clone(engine.store())).unwrap())
    }

    /// Recovers `device`'s default job and checks it holds `gpu`'s state,
    /// checkpointed as its step count (recovery verifies a state digest
    /// folded with the iteration it was committed as).
    fn recovers(device: &Arc<GatedDevice>, gpu: &Gpu) {
        let device = Arc::clone(device) as Arc<dyn PersistentDevice>;
        let rec = crate::recovery::recover(device).unwrap();
        assert_eq!(rec.iteration, gpu.step_count());
        let restored = restored_digest(gpu, &rec.payload, rec.iteration);
        assert_eq!(restored, gpu.digest(), "checkpoint {}", rec.iteration);
    }

    #[test]
    fn the_lease_waits_for_a_write_not_for_the_weights() {
        // Three slots, two of them pinned by a depth-1 chain (a root and a
        // head referencing it); checkpoint 3 takes the third and its writes
        // wait at the gate, so checkpoint 4 has no slot until 3 commits. A
        // copy that cannot lease without waiting keeps its chunks in DRAM
        // and leases after it has handed the weights back, whether it may
        // try LZ or not: the next update returns after one copy with the
        // gate still shut.
        for codec in [true, false] {
            let gpu = compressible_gpu(512, 43);
            let (device, engine) = codec_engine(&gpu);
            for iteration in 1..=2 {
                gpu.update_sparse(0.05);
                engine.checkpoint(&gpu, iteration);
                engine.try_drain().unwrap();
            }
            let engine = if codec {
                engine
            } else {
                reopened(&engine, false)
            };
            let (store, ns) = (engine.store(), engine.namespace());
            let head = store.latest_committed(ns).unwrap();
            assert_eq!(head.delta.map(|link| link.chain_depth), Some(1));
            assert_eq!(store.free_slot_count(ns), 1, "a root and a head pinned");
            let terminated = engine.stats().snapshot().terminated();
            device.gate_payloads(store);
            gpu.update_sparse(0.05);
            engine.checkpoint(&gpu, 3);
            gpu.update_sparse(0.05);
            let fourth = gpu.digest();
            engine.checkpoint(&gpu, 4);
            let updated = std::thread::spawn({
                let (gpu, device) = (gpu.clone(), Arc::clone(&device));
                move || {
                    gpu.update_sparse(0.05);
                    device.payload_bytes()
                }
            });
            let admitted = must_not_hang("update() waited for a slot", move || {
                updated.join().unwrap()
            });
            assert_eq!(admitted, 0, "codec={codec}");
            assert_eq!(
                engine.stats().snapshot().terminated(),
                terminated,
                "codec={codec}: checkpoint 3 is held at the gate"
            );
            device.open();
            let (engine, device) = must_not_hang("the gated checkpoints never drained", {
                let (engine, device) = (Arc::clone(&engine), Arc::clone(&device));
                move || {
                    engine.try_drain().unwrap();
                    (engine, device)
                }
            });
            // A reopened engine counts from its own start, checkpoint 3.
            let stats = engine.stats();
            let committed = if codec { 4 } else { 2 };
            assert_eq!(
                (stats.committed(), stats.superseded()),
                (committed, 0),
                "in order"
            );
            assert_eq!(engine.last_committed().unwrap().digest, fourth);
            let rec = crate::recovery::recover(device as Arc<dyn PersistentDevice>).unwrap();
            assert_eq!(rec.iteration, 4);
            assert_eq!(restored_digest(&gpu, &rec.payload, 4), fourth);
        }
    }

    #[test]
    fn a_foreign_guard_between_sparse_steps_changes_neither_the_gauge_nor_the_carry() {
        // Every weights guard used to drain the GPU's dirty set, so a guard
        // taken by anyone else (a baseline, a probe, a test) between two
        // sparse steps hid the first step from the next checkpoint. Chunks
        // of one digest block each, so the clean ones can be served.
        const STATE: u64 = 1 << 20;
        let run = |foreign: bool| {
            let gpu = compressible_gpu(STATE, 17);
            let (device, engine) = codec_engine_in(&gpu, 4096);
            let telemetry = Telemetry::enabled();
            let engine = Arc::try_unwrap(engine)
                .unwrap()
                .with_telemetry(telemetry.clone());
            gpu.update_sparse(0.05);
            engine.checkpoint(&gpu, 1);
            engine.try_drain().unwrap();
            gpu.update_sparse(0.3);
            if foreign {
                drop(gpu.lock_weights_shared());
            }
            gpu.update_sparse(0.05);
            let before = telemetry.snapshot().unwrap().gpu_copy_bytes;
            engine.checkpoint(&gpu, gpu.step_count());
            engine.try_drain().unwrap();
            assert_eq!(engine.last_committed().unwrap().digest, gpu.digest());
            recovers(&device, &gpu);
            let snap = telemetry.snapshot().unwrap();
            (snap.dirty_ratio_permille, snap.gpu_copy_bytes - before)
        };
        let alone = run(false);
        assert_eq!(run(true), alone);
        let (permille, copied) = alone;
        assert_eq!(permille, 300, "both steps: the trailing 30% of each tensor");
        assert!(copied < STATE * 4 / 10, "clean chunks are served: {copied}");
    }

    #[test]
    fn two_codec_jobs_stream_through_a_pool_smaller_than_a_snapshot() {
        // Two jobs' codec frames share six staging chunks, less than one
        // eight-chunk snapshot: a copy that runs out of DRAM leases first,
        // so the chunks it holds drain to the device, however the two
        // interleave.
        let slot = FrameTable::slot_size_for(ByteSize::from_bytes(2048), ByteSize::from_bytes(256));
        let geometry = StoreGeometry {
            max_namespaces: 4,
            ..StoreGeometry::single(slot, 6)
        };
        let device: Arc<dyn PersistentDevice> = Arc::new(SsdDevice::new(
            DeviceConfig::fast_for_tests(geometry.required_capacity() + ByteSize::from_kb(1)),
        ));
        let store = Arc::new(CheckpointStore::format(Arc::clone(&device), geometry).unwrap());
        for job in [1, 2] {
            store.allocate_namespace(job, 3).unwrap();
        }
        let pipeline = Arc::new(
            PersistPipeline::new(store, HostBufferPool::new(ByteSize::from_bytes(256), 6))
                .with_writers(2),
        );
        let config = PcCheckConfig::builder()
            .max_concurrent(2)
            .writer_threads(2)
            .chunk_size(ByteSize::from_bytes(256))
            .dram_chunks(6)
            .codec(true)
            .build()
            .unwrap();
        let jobs: Vec<(Arc<PcCheckEngine>, Gpu)> = [1, 2]
            .into_iter()
            .map(|job| {
                let engine = PcCheckEngine::with_shared(config.clone(), Arc::clone(&pipeline), job);
                (Arc::new(engine.unwrap()), compressible_gpu(2048, 50 + job))
            })
            .collect();
        for turn in 0..20 {
            let (engine, gpu) = &jobs[turn % 2];
            let (engine, gpu) = (Arc::clone(engine), gpu.clone());
            must_not_hang(&format!("checkpoint {turn}"), move || {
                gpu.update_sparse(0.05);
                engine.checkpoint(&gpu, gpu.step_count());
            });
        }
        for (engine, gpu) in &jobs {
            let drained = Arc::clone(engine);
            must_not_hang("drain", move || drained.try_drain().unwrap());
            let out = engine.last_committed().unwrap();
            assert_eq!(out.digest, gpu.digest(), "job {}", engine.job());
            let options = crate::RestoreOptions {
                readers: 2,
                job: Some(engine.job()),
            };
            let telemetry = Telemetry::disabled();
            let (rec, _) =
                crate::recover_instrumented_with(Arc::clone(&device), &telemetry, options).unwrap();
            assert_eq!(rec.iteration, out.iteration);
            let restored = restored_digest(gpu, &rec.payload, gpu.step_count());
            assert_eq!(restored, gpu.digest(), "job {}", engine.job());
        }
    }

    #[test]
    fn a_frame_planned_against_a_displaced_head_is_withdrawn() {
        // N=2, codec on, three slots. Checkpoint 1 (GPU a) is an unlinked
        // head with homes. Checkpoint 2 (GPU b, other bytes) is held at the
        // gate; checkpoint 3 (GPU a again) observes head 1 while it copies,
        // so its clean chunks reference checkpoint 1's homes. When the gate
        // opens, 2 commits unlinked and releases 1's slot; 3 must then be
        // withdrawn — `SupersededBy` 2, its meta scrubbed — not committed
        // over references that dangle. Recovery returns an acknowledged
        // commit at every step.
        let (a, b) = (compressible_gpu(512, 71), compressible_gpu(512, 72));
        let (device, engine) = codec_engine(&a);
        a.update_sparse(0.05);
        engine.checkpoint(&a, a.step_count());
        engine.try_drain().unwrap();
        recovers(&device, &a);

        device.gate_payloads(engine.store());
        for _ in 0..2 {
            b.update();
        }
        engine.checkpoint(&b, b.step_count());
        for _ in 0..2 {
            a.update_sparse(0.05);
        }
        engine.checkpoint(&a, a.step_count());
        let trainer = a.clone();
        // Returns once checkpoint 3 has copied and handed the weights back.
        must_not_hang("update() waited for the gate", move || {
            trainer.update_sparse(0.05)
        });
        assert_eq!(device.payload_bytes(), 0, "nothing written yet");
        device.open();
        let engine = must_not_hang("the gated checkpoints never drained", {
            let engine = Arc::clone(&engine);
            move || {
                engine.try_drain().unwrap();
                engine
            }
        });
        let stats = engine.stats();
        assert_eq!((stats.committed(), stats.superseded()), (2, 1));
        assert_eq!(engine.last_committed().unwrap().digest, b.digest());
        recovers(&device, &b);
        let (store, ns) = (engine.store(), engine.namespace());
        let iterations: Vec<u64> = store
            .history(ns)
            .unwrap()
            .iter()
            .map(|m| m.iteration)
            .collect();
        assert!(
            !iterations.contains(&3),
            "the withdrawn frame's meta stands: {iterations:?}"
        );

        a.update_sparse(0.05);
        engine.checkpoint(&a, a.step_count());
        engine.try_drain().unwrap();
        recovers(&device, &a);
    }

    /// The carry over random histories: dense and sparse steps, guards
    /// taken by others, restores, a second GPU of the same layout through
    /// the same engine, a round on an engine reopened with the codec off
    /// (then reopened with it on), failed writes.
    /// After every drain the engine acknowledges the GPU's state and
    /// recovery returns it bit-exact. Each history runs twice: in chunks
    /// smaller than a digest block, which are always copied, and in chunks
    /// of one block, which the carry serves when they are clean.
    #[test]
    fn prop_carried_checkpoints_commit_the_gpu_state() {
        pccheck_util::rng::check(64, |rng| {
            let seed = rng.next_u64();
            must_not_hang(&format!("carry case {seed}"), move || {
                carry_case(seed, 512, 64);
                carry_case(seed, 64 << 10, 4096);
            });
        });
    }

    fn carry_case(seed: u64, size: u64, chunk: u64) {
        let mut rng = pccheck_util::rng::Rng::seeded(seed);
        let gpus = [compressible_gpu(size, seed), compressible_gpu(size, !seed)];
        let (device, mut engine) = codec_engine_in(&gpus[0], chunk);
        let mut on = 0;
        for _ in 0..16 {
            let codec_off = match rng.range(0..8) {
                0 => {
                    gpus[on].update();
                    false
                }
                1 | 2 => {
                    gpus[on].update_sparse(rng.range_f64(0.01..0.5));
                    false
                }
                3 => {
                    gpus[on].update_sparse(rng.range_f64(0.01..0.5));
                    drop(gpus[on].lock_weights_shared());
                    gpus[on].update_sparse(rng.range_f64(0.01..0.5));
                    false
                }
                4 => {
                    let from = Arc::clone(&device) as Arc<dyn PersistentDevice>;
                    if let Ok(rec) = crate::recovery::recover(from) {
                        gpus[on].restore(&rec.payload, rec.iteration);
                    }
                    false
                }
                5 => {
                    on = 1 - on;
                    false
                }
                6 => true,
                _ => {
                    device.fail_write(rng.range(1..3));
                    false
                }
            };
            if codec_off {
                engine = reopened(&engine, false);
            }
            // Checkpoints are named by step count, and the engine
            // acknowledges only newer ones: a GPU that was switched to or
            // restored trains until it is ahead.
            let gpu = &gpus[on];
            let last = engine.last_committed().map_or(0, |out| out.iteration);
            while gpu.step_count() <= last {
                gpu.update_sparse(0.05);
            }
            for _ in 0..rng.range(1..3) {
                engine.checkpoint(gpu, gpu.step_count());
            }
            while engine.try_drain().is_err() {
                engine.checkpoint(gpu, gpu.step_count());
            }
            if codec_off {
                engine = reopened(&engine, true);
            }
            let out = engine.last_committed().unwrap();
            let acknowledged = (out.iteration, out.digest);
            assert_eq!(acknowledged, (gpu.step_count(), gpu.digest()));
            recovers(&device, gpu);
        }
    }
}
