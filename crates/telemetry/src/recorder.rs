//! The event recorder and the cheap cloneable [`Telemetry`] handle.
//!
//! [`Telemetry`] is what every instrumented component holds. It is either
//! *disabled* — every call is a branch on a `None` and compiles to nearly
//! nothing, so the Fig. 8 hot paths are unchanged — or enabled, in which
//! case it shares one [`MemoryRecorder`] with every other clone. An
//! enabled recorder comes at one of two levels: [`Telemetry::enabled`]
//! keeps every histogram, counter and gauge *and* the event timeline a
//! finite run replays afterwards (accounting, ledgers, traces);
//! [`Telemetry::metrics`] keeps the same metrics and no timeline, so a
//! service that never ends holds a fixed amount of memory however long it
//! runs. A run keeps its timeline; a service keeps its metrics.
//!
//! The recorder is lock-light by construction:
//!
//! * counters, gauges and histograms are single atomic adds;
//! * events append to one of a fixed set of sharded buffers, taken in
//!   rotation, so concurrent checkpoint workers almost never contend on
//!   the same mutex and the buffers grow evenly however few threads
//!   record;
//! * timestamps come from one shared monotonic epoch so events from all
//!   threads interleave into a single coherent timeline.

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use pccheck_util::sync::Mutex;

use crate::counters::{CheckpointCounters, CountersSnapshot};
use crate::event::{Event, EventKind, Phase, SpanId};
use crate::histogram::{HistogramSummary, LatencyHistogram};

const SHARDS: usize = 8;

/// Events per block of a shard. A shard grows by whole blocks and never
/// reallocates one, so recording copies no event twice and the buffers'
/// high-water mark is their live size, not the 1.5× of a doubling `Vec`
/// caught mid-growth.
const BLOCK_EVENTS: usize = 4096;

/// How many devices the per-device queue-depth gauges can track. Composite
/// devices report the controller at index 0 and members after it; indices
/// beyond this limit are silently dropped. Sized for a 4-way stripe plus
/// its controller with headroom, so restore fan-out across a wide stripe
/// stays observable per member.
pub(crate) const MAX_TRACKED_DEVICES: usize = 8;

/// Monotonic gauge pair: current value plus high-water mark.
#[derive(Debug, Default)]
struct Gauge {
    current: AtomicU64,
    peak: AtomicU64,
}

impl Gauge {
    fn incr(&self) -> u64 {
        let now = self.current.fetch_add(1, Ordering::AcqRel) + 1;
        self.peak.fetch_max(now, Ordering::AcqRel);
        now
    }

    fn decr(&self) {
        self.current.fetch_sub(1, Ordering::AcqRel);
    }

    fn set(&self, value: u64) {
        self.current.store(value, Ordering::Release);
        self.peak.fetch_max(value, Ordering::AcqRel);
    }

    fn current(&self) -> u64 {
        self.current.load(Ordering::Acquire)
    }

    fn peak(&self) -> u64 {
        self.peak.load(Ordering::Acquire)
    }
}

/// In-memory recorder shared by all [`Telemetry`] clones of one run or
/// one service.
#[derive(Debug)]
pub struct MemoryRecorder {
    epoch: Instant,
    /// Whether events are kept. Without a timeline, every event-building
    /// call returns before it formats or allocates anything.
    timeline: bool,
    next_span: AtomicU64,
    /// Which shard the next event goes to. Rotating per event rather than
    /// pinning each thread to a shard keeps the eight buffers the same
    /// size when two resident writers do most of the recording:
    /// pinned, those two would each double one large buffer where eight
    /// small ones do — same live bytes, a far higher allocation peak.
    next_shard: AtomicUsize,
    shards: [Mutex<Vec<Vec<Event>>>; SHARDS],
    phase_hist: [LatencyHistogram; Phase::ALL.len()],
    stall_hist: LatencyHistogram,
    write_stage_hist: LatencyHistogram,
    persist_stage_hist: LatencyHistogram,
    read_stage_hist: LatencyHistogram,
    counters: CheckpointCounters,
    in_flight: Gauge,
    queue_depth: Gauge,
    device_queues: [Gauge; MAX_TRACKED_DEVICES],
    gpu_copy_bytes: AtomicU64,
    persist_chunk_bytes: AtomicU64,
    restore_chunk_bytes: AtomicU64,
    dirty_ratio_permille: Gauge,
    codec_bytes_saved: AtomicU64,
    dedup_chunks: AtomicU64,
    compression_ratio_permille: Gauge,
}

impl Default for MemoryRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl MemoryRecorder {
    /// Creates an empty recorder, timeline included, whose clock starts
    /// now.
    pub fn new() -> Self {
        Self::with_timeline(true)
    }

    fn with_timeline(timeline: bool) -> Self {
        MemoryRecorder {
            epoch: Instant::now(),
            timeline,
            next_span: AtomicU64::new(1),
            next_shard: AtomicUsize::new(0),
            shards: std::array::from_fn(|_| Mutex::new(Vec::new())),
            phase_hist: std::array::from_fn(|_| LatencyHistogram::new()),
            stall_hist: LatencyHistogram::new(),
            write_stage_hist: LatencyHistogram::new(),
            persist_stage_hist: LatencyHistogram::new(),
            read_stage_hist: LatencyHistogram::new(),
            counters: CheckpointCounters::new(),
            in_flight: Gauge::default(),
            queue_depth: Gauge::default(),
            device_queues: std::array::from_fn(|_| Gauge::default()),
            gpu_copy_bytes: AtomicU64::new(0),
            persist_chunk_bytes: AtomicU64::new(0),
            restore_chunk_bytes: AtomicU64::new(0),
            dirty_ratio_permille: Gauge::default(),
            codec_bytes_saved: AtomicU64::new(0),
            dedup_chunks: AtomicU64::new(0),
            compression_ratio_permille: Gauge::default(),
        }
    }

    fn now_nanos(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Appends the event `build` makes. A recorder without a timeline
    /// never calls `build`.
    fn push(&self, build: impl FnOnce() -> Event) {
        if !self.timeline {
            return;
        }
        let event = build();
        // A statistic, publishing nothing: Relaxed.
        let shard = self.next_shard.fetch_add(1, Ordering::Relaxed) % SHARDS;
        let mut blocks = self.shards[shard].lock();
        match blocks.last_mut() {
            Some(block) if block.len() < BLOCK_EVENTS => block.push(event),
            _ => {
                let mut block = Vec::with_capacity(BLOCK_EVENTS);
                block.push(event);
                blocks.push(block);
            }
        }
    }

    /// The latency histogram behind `phase`'s summary, for exposition
    /// layers (the metrics registry, the SLO watchdog) that need raw
    /// bucket counts rather than a [`HistogramSummary`].
    pub(crate) fn phase_hist(&self, phase: Phase) -> &LatencyHistogram {
        &self.phase_hist[phase.index()]
    }

    /// The training-thread stall histogram (raw buckets).
    pub(crate) fn stall_hist(&self) -> &LatencyHistogram {
        &self.stall_hist
    }

    /// The per-chunk device-write-stage histogram (raw buckets).
    pub(crate) fn write_stage_hist(&self) -> &LatencyHistogram {
        &self.write_stage_hist
    }

    /// The per-chunk device-persist-stage histogram (raw buckets).
    pub(crate) fn persist_stage_hist(&self) -> &LatencyHistogram {
        &self.persist_stage_hist
    }

    /// The per-chunk device-read-stage histogram (raw buckets).
    pub(crate) fn read_stage_hist(&self) -> &LatencyHistogram {
        &self.read_stage_hist
    }

    /// All recorded events merged into one timeline ordered by timestamp.
    pub fn events(&self) -> Vec<Event> {
        let mut all = Vec::new();
        for shard in &self.shards {
            for block in shard.lock().iter() {
                all.extend_from_slice(block);
            }
        }
        all.sort_by_key(|e| (e.at_nanos, e.span));
        all
    }

    /// Point-in-time rollup of every histogram, counter and gauge.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            counters: self.counters.snapshot(),
            phases: std::array::from_fn(|i| self.phase_hist[i].summary()),
            stall: self.stall_hist.summary(),
            write_stage: self.write_stage_hist.summary(),
            persist_stage: self.persist_stage_hist.summary(),
            read_stage: self.read_stage_hist.summary(),
            device_queue_depth: std::array::from_fn(|i| self.device_queues[i].current()),
            device_queue_peak: std::array::from_fn(|i| self.device_queues[i].peak()),
            in_flight: self.in_flight.current(),
            in_flight_peak: self.in_flight.peak(),
            queue_depth: self.queue_depth.current(),
            queue_depth_peak: self.queue_depth.peak(),
            gpu_copy_bytes: self.gpu_copy_bytes.load(Ordering::Acquire),
            persist_chunk_bytes: self.persist_chunk_bytes.load(Ordering::Acquire),
            restore_chunk_bytes: self.restore_chunk_bytes.load(Ordering::Acquire),
            dirty_ratio_permille: self.dirty_ratio_permille.current(),
            dirty_ratio_permille_peak: self.dirty_ratio_permille.peak(),
            codec_bytes_saved: self.codec_bytes_saved.load(Ordering::Acquire),
            dedup_chunks: self.dedup_chunks.load(Ordering::Acquire),
            compression_ratio_permille: self.compression_ratio_permille.current(),
            window_nanos: self.now_nanos(),
        }
    }
}

/// Rolled-up metrics at one instant; plain data for reports and assertions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetrySnapshot {
    /// Lifecycle counters, mutually consistent.
    pub counters: CountersSnapshot,
    /// Per-phase latency summaries, indexed like [`Phase::ALL`].
    pub phases: [HistogramSummary; Phase::ALL.len()],
    /// Training-thread stall-time summary (one sample per `checkpoint()`).
    pub stall: HistogramSummary,
    /// Per-chunk device-write latency (the `write_at` leg of the pipeline).
    pub write_stage: HistogramSummary,
    /// Per-chunk device-persist latency (the fence leg of the pipeline).
    pub persist_stage: HistogramSummary,
    /// Per-chunk device-read latency (the `read_durable_at` leg of the
    /// restore pipeline).
    pub(crate) read_stage: HistogramSummary,
    /// Last observed submission-queue depth per tracked device.
    pub device_queue_depth: [u64; MAX_TRACKED_DEVICES],
    /// High-water mark of the submission-queue depth per tracked device.
    pub(crate) device_queue_peak: [u64; MAX_TRACKED_DEVICES],
    /// Checkpoints currently between request and terminal event.
    pub in_flight: u64,
    /// High-water mark of concurrent in-flight checkpoints.
    pub in_flight_peak: u64,
    /// Last observed free-slot queue depth.
    pub queue_depth: u64,
    /// High-water mark of the queue depth.
    pub queue_depth_peak: u64,
    /// Bytes moved by the GPU→DRAM copy phase.
    pub gpu_copy_bytes: u64,
    /// Bytes moved by the DRAM→device persist phase.
    pub persist_chunk_bytes: u64,
    /// Bytes moved by the device→DRAM restore-read phase.
    pub restore_chunk_bytes: u64,
    /// Last observed dirty-byte ratio of a framed checkpoint's snapshot,
    /// in permille (dirty bytes / full state bytes × 1000).
    pub dirty_ratio_permille: u64,
    /// High-water mark of the dirty-ratio gauge.
    pub(crate) dirty_ratio_permille_peak: u64,
    /// Total payload bytes the chunk codec (compression + dedup) avoided
    /// persisting versus raw payloads of the same checkpoints.
    pub codec_bytes_saved: u64,
    /// Chunks persisted as dedup references (within or across
    /// checkpoints) instead of materialized bytes.
    pub dedup_chunks: u64,
    /// Last framed commit's physical/logical payload ratio in permille
    /// (1000 = stored at full size, lower = smaller).
    pub compression_ratio_permille: u64,
    /// Nanoseconds since the recorder's epoch.
    pub(crate) window_nanos: u64,
}

impl TelemetrySnapshot {
    /// The latency summary for `phase`.
    pub fn phase(&self, phase: Phase) -> &HistogramSummary {
        &self.phases[phase.index()]
    }

    /// Fraction of the window the training thread spent stalled in
    /// `checkpoint()` (the Fig. 8 overhead, online).
    pub fn stall_fraction(&self) -> f64 {
        if self.window_nanos == 0 {
            return 0.0;
        }
        (self.stall.sum_nanos as f64 / self.window_nanos as f64).min(1.0)
    }
}

/// Cheap cloneable handle to a shared recorder; `Telemetry::disabled()`
/// (also `Default`) makes every recording call a no-op.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<MemoryRecorder>>,
}

impl Telemetry {
    /// A handle that records into a fresh shared [`MemoryRecorder`]:
    /// metrics and the event timeline. For finite runs that read their
    /// timeline back ([`Telemetry::events`]).
    pub fn enabled() -> Self {
        Telemetry {
            inner: Some(Arc::new(MemoryRecorder::new())),
        }
    }

    /// A handle that keeps every histogram, counter and gauge
    /// [`Telemetry::enabled`] keeps, and no event timeline: its
    /// [`Telemetry::events`] stays empty and its memory stays flat however
    /// long it records. For services read through snapshots only.
    pub fn metrics() -> Self {
        Telemetry {
            inner: Some(Arc::new(MemoryRecorder::with_timeline(false))),
        }
    }

    /// A no-op handle: every call returns immediately.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The shared recorder, when enabled.
    pub fn recorder(&self) -> Option<&Arc<MemoryRecorder>> {
        self.inner.as_ref()
    }

    /// Nanoseconds on the recorder clock (0 when disabled). Pair with
    /// [`Telemetry::phase_done`] to time a phase.
    pub fn now_nanos(&self) -> u64 {
        match &self.inner {
            Some(r) => r.now_nanos(),
            None => 0,
        }
    }

    /// Opens a span: records `Requested`, bumps the request counter and the
    /// in-flight gauge. Returns [`SpanId::NONE`] when disabled.
    pub fn span_requested(&self, strategy: &str, iteration: u64, bytes: u64) -> SpanId {
        let Some(r) = &self.inner else {
            return SpanId::NONE;
        };
        let span = SpanId(r.next_span.fetch_add(1, Ordering::Relaxed));
        r.counters.incr_requested();
        r.in_flight.incr();
        r.push(|| Event {
            span,
            at_nanos: r.now_nanos(),
            kind: EventKind::Requested {
                strategy: strategy.to_string(),
                iteration,
                bytes,
            },
        });
        span
    }

    /// Records that `span` was handed to a background worker.
    pub fn span_queued(&self, span: SpanId) {
        if let Some(r) = &self.inner {
            if span.is_some() {
                r.push(|| Event {
                    span,
                    at_nanos: r.now_nanos(),
                    kind: EventKind::Queued,
                });
            }
        }
    }

    /// Records a completed phase that started at `start_nanos` (from
    /// [`Telemetry::now_nanos`]) and feeds the phase histogram.
    pub fn phase_done(&self, span: SpanId, phase: Phase, start_nanos: u64) {
        let Some(r) = &self.inner else { return };
        if !span.is_some() {
            return;
        }
        let now = r.now_nanos();
        let dur = now.saturating_sub(start_nanos);
        r.phase_hist[phase.index()].record(dur);
        r.push(|| Event {
            span,
            at_nanos: now,
            kind: EventKind::PhaseDone {
                phase,
                start_nanos,
                dur_nanos: dur,
            },
        });
    }

    /// Records one payload chunk moving through `phase` and feeds the
    /// bandwidth gauges.
    pub fn chunk(&self, span: SpanId, phase: Phase, offset: u64, len: u64) {
        let Some(r) = &self.inner else { return };
        if !span.is_some() {
            return;
        }
        match phase {
            Phase::GpuCopy => {
                r.gpu_copy_bytes.fetch_add(len, Ordering::Release);
            }
            Phase::Persist => {
                r.persist_chunk_bytes.fetch_add(len, Ordering::Release);
            }
            Phase::RestoreRead => {
                r.restore_chunk_bytes.fetch_add(len, Ordering::Release);
            }
            _ => {}
        }
        r.push(|| Event {
            span,
            at_nanos: r.now_nanos(),
            kind: EventKind::Chunk { phase, offset, len },
        });
    }

    /// Records `nanos` of training-thread blocking that ended now (the
    /// Fig. 8 stall) and feeds the stall histogram.
    pub fn stall(&self, span: SpanId, nanos: u64) {
        let Some(r) = &self.inner else { return };
        r.stall_hist.record(nanos);
        r.push(|| Event {
            span,
            at_nanos: r.now_nanos(),
            kind: EventKind::Stall { nanos },
        });
    }

    /// Terminal: `span` committed `bytes` at `iteration`.
    pub fn committed(&self, span: SpanId, iteration: u64, bytes: u64) {
        let Some(r) = &self.inner else { return };
        if !span.is_some() {
            return;
        }
        r.counters.incr_committed(bytes);
        r.in_flight.decr();
        r.push(|| Event {
            span,
            at_nanos: r.now_nanos(),
            kind: EventKind::Committed { iteration, bytes },
        });
    }

    /// Terminal: `span` lost the commit race to counter `by_counter`.
    pub fn superseded(&self, span: SpanId, by_counter: u64) {
        let Some(r) = &self.inner else { return };
        if !span.is_some() {
            return;
        }
        r.counters.incr_superseded();
        r.in_flight.decr();
        r.push(|| Event {
            span,
            at_nanos: r.now_nanos(),
            kind: EventKind::Superseded { by_counter },
        });
    }

    /// Terminal: `span` failed with `error`.
    pub fn failed(&self, span: SpanId, error: impl fmt::Display) {
        let Some(r) = &self.inner else { return };
        if !span.is_some() {
            return;
        }
        r.counters.incr_failed();
        r.in_flight.decr();
        r.push(|| Event {
            span,
            at_nanos: r.now_nanos(),
            kind: EventKind::Failed {
                error: error.to_string(),
            },
        });
    }

    /// Merges a monitoring anomaly into the timeline (run-level event).
    pub fn anomaly(&self, iteration: u64, magnitude: f64, expected: f64, ratio: f64) {
        let Some(r) = &self.inner else { return };
        r.push(|| Event {
            span: SpanId::NONE,
            at_nanos: r.now_nanos(),
            kind: EventKind::Anomaly {
                iteration,
                magnitude,
                expected,
                ratio,
            },
        });
    }

    /// Records one pipeline actor's completed child span under `parent`:
    /// a writer's chunk run, a restore reader's fetch leg, or a
    /// composite-device member's I/O. `start_nanos` comes from
    /// [`Telemetry::now_nanos`] when the actor began; the duration is
    /// measured to now. Unlike phase events this also records against
    /// [`SpanId::NONE`] parents, because device-member actors outlive any
    /// single checkpoint span. The actor's time is split: `media_nanos` is
    /// the portion it was busy — inside device I/O calls and, for a
    /// persist writer, computing on the chunk in its hands (digest fold,
    /// content address, LZ); the rest of the measured duration is queue
    /// wait (waiting for staged chunks, buffer-pool pressure, scheduling).
    /// `media_nanos` is clamped to the measured duration, so `u64::MAX`
    /// attributes everything to media.
    pub fn actor_span_split(
        &self,
        parent: SpanId,
        actor: impl fmt::Display,
        start_nanos: u64,
        bytes: u64,
        media_nanos: u64,
    ) {
        let Some(r) = &self.inner else { return };
        r.push(|| {
            let now = r.now_nanos();
            let dur = now.saturating_sub(start_nanos);
            Event {
                span: parent,
                at_nanos: now,
                kind: EventKind::ActorSpan {
                    actor: actor.to_string(),
                    start_nanos,
                    dur_nanos: dur,
                    media_nanos: media_nanos.min(dur),
                    bytes,
                },
            }
        });
    }

    /// Records completion of training `iteration` (run-level event; feeds
    /// goodput/rollback accounting).
    pub fn iteration_end(&self, iteration: u64) {
        let Some(r) = &self.inner else { return };
        r.push(|| Event {
            span: SpanId::NONE,
            at_nanos: r.now_nanos(),
            kind: EventKind::IterationEnd { iteration },
        });
    }

    /// Updates the free-slot queue-depth gauge.
    pub fn gauge_queue_depth(&self, depth: u64) {
        if let Some(r) = &self.inner {
            r.queue_depth.set(depth);
        }
    }

    /// Updates the submission-queue-depth gauge for tracked device `index`.
    /// Indices at or beyond `MAX_TRACKED_DEVICES` are ignored.
    pub fn gauge_device_queue(&self, index: usize, depth: u64) {
        if let Some(r) = &self.inner {
            if index < MAX_TRACKED_DEVICES {
                r.device_queues[index].set(depth);
            }
        }
    }

    /// Feeds one per-chunk device-write latency sample into the pipeline's
    /// write-stage histogram.
    pub fn stage_write(&self, nanos: u64) {
        if let Some(r) = &self.inner {
            r.write_stage_hist.record(nanos);
        }
    }

    /// Feeds one per-chunk device-persist (fence) latency sample into the
    /// pipeline's persist-stage histogram.
    pub fn stage_persist(&self, nanos: u64) {
        if let Some(r) = &self.inner {
            r.persist_stage_hist.record(nanos);
        }
    }

    /// Feeds one per-chunk device-read latency sample into the restore
    /// pipeline's read-stage histogram.
    pub fn stage_read(&self, nanos: u64) {
        if let Some(r) = &self.inner {
            r.read_stage_hist.record(nanos);
        }
    }

    /// Updates the snapshot dirty-ratio gauge (dirty bytes / full state
    /// bytes, in permille).
    pub fn gauge_dirty_ratio(&self, permille: u64) {
        if let Some(r) = &self.inner {
            r.dirty_ratio_permille.set(permille);
        }
    }

    /// Adds `bytes` to the running total of payload bytes the chunk codec
    /// (compression + dedup) avoided persisting.
    pub fn add_codec_bytes_saved(&self, bytes: u64) {
        if let Some(r) = &self.inner {
            r.codec_bytes_saved.fetch_add(bytes, Ordering::Release);
        }
    }

    /// Adds `chunks` chunks persisted as dedup references instead of
    /// materialized bytes.
    pub fn add_dedup_chunks(&self, chunks: u64) {
        if let Some(r) = &self.inner {
            r.dedup_chunks.fetch_add(chunks, Ordering::Release);
        }
    }

    /// Updates the framed-commit compression-ratio gauge
    /// (physical payload bytes / logical bytes, in permille).
    pub fn gauge_compression_ratio(&self, permille: u64) {
        if let Some(r) = &self.inner {
            r.compression_ratio_permille.set(permille);
        }
    }

    /// All events merged into one timestamp-ordered timeline (empty when
    /// disabled).
    pub fn events(&self) -> Vec<Event> {
        match &self.inner {
            Some(r) => r.events(),
            None => Vec::new(),
        }
    }

    /// Point-in-time metrics rollup (`None` when disabled).
    pub fn snapshot(&self) -> Option<TelemetrySnapshot> {
        self.inner.as_ref().map(|r| r.snapshot())
    }
}

/// Bridges composite-device member I/O into the telemetry stream.
///
/// Register on a [`StripedDevice`](pccheck_device::StripedDevice) or
/// [`TieredDevice`](pccheck_device::TieredDevice) via `set_io_observer`:
/// every member-level write/persist/read then lands in the timeline as an
/// [`EventKind::ActorSpan`] under [`SpanId::NONE`] (device members outlive
/// any single checkpoint span), so the Chrome-trace exporter renders one
/// lane per member (`stripe-0`, `tier`, `spill`, …).
#[derive(Debug, Clone)]
pub struct TelemetryIoObserver {
    telemetry: Telemetry,
}

impl TelemetryIoObserver {
    /// Wraps a telemetry handle; disabled handles make the observer inert.
    pub fn new(telemetry: Telemetry) -> Self {
        TelemetryIoObserver { telemetry }
    }
}

impl pccheck_device::IoObserver for TelemetryIoObserver {
    fn member_io(&self, member: &str, _op: pccheck_device::MemberIoOp, bytes: u64, dur_nanos: u64) {
        let Some(r) = &self.telemetry.inner else {
            return;
        };
        r.push(|| {
            let now = r.now_nanos();
            Event {
                span: SpanId::NONE,
                at_nanos: now,
                kind: EventKind::ActorSpan {
                    actor: member.to_string(),
                    start_nanos: now.saturating_sub(dur_nanos),
                    dur_nanos,
                    // A member-device leg is pure media time by definition.
                    media_nanos: dur_nanos,
                    bytes,
                },
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        assert_eq!(t.span_requested("pccheck", 1, 64), SpanId::NONE);
        t.span_queued(SpanId::NONE);
        t.phase_done(SpanId::NONE, Phase::GpuCopy, 0);
        t.stall(SpanId::NONE, 5);
        t.committed(SpanId::NONE, 1, 64);
        t.iteration_end(1);
        assert!(t.events().is_empty());
        assert!(t.snapshot().is_none());
        assert_eq!(t.now_nanos(), 0);
    }

    #[test]
    fn full_lifecycle_is_recorded_in_order() {
        let t = Telemetry::enabled();
        let span = t.span_requested("pccheck", 7, 1024);
        assert!(span.is_some());
        t.span_queued(span);
        let s = t.now_nanos();
        t.chunk(span, Phase::GpuCopy, 0, 512);
        t.chunk(span, Phase::GpuCopy, 512, 512);
        t.phase_done(span, Phase::GpuCopy, s);
        let s = t.now_nanos();
        t.chunk(span, Phase::Persist, 0, 1024);
        t.phase_done(span, Phase::Persist, s);
        t.committed(span, 7, 1024);
        t.stall(span, 300);

        let events = t.events();
        assert!(events.windows(2).all(|w| w[0].at_nanos <= w[1].at_nanos));
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.span == span)
            .map(|e| e.kind.name())
            .collect();
        assert_eq!(
            names,
            [
                "requested",
                "queued",
                "chunk",
                "chunk",
                "phase",
                "chunk",
                "phase",
                "committed",
                "stall",
            ]
        );

        let snap = t.snapshot().unwrap();
        assert_eq!(snap.counters.requested, 1);
        assert_eq!(snap.counters.committed, 1);
        assert_eq!(snap.counters.bytes_persisted, 1024);
        assert_eq!(snap.in_flight, 0);
        assert_eq!(snap.in_flight_peak, 1);
        assert_eq!(snap.gpu_copy_bytes, 1024);
        assert_eq!(snap.persist_chunk_bytes, 1024);
        assert_eq!(snap.phase(Phase::GpuCopy).count, 1);
        assert_eq!(snap.phase(Phase::Persist).count, 1);
        assert_eq!(snap.stall.count, 1);
        assert_eq!(snap.stall.sum_nanos, 300);
    }

    #[test]
    fn metrics_handle_keeps_every_metric_and_no_timeline() {
        use pccheck_device::IoObserver as _;
        let drive = |t: &Telemetry| {
            let span = t.span_requested("pccheck", 3, 4096);
            t.span_queued(span);
            t.chunk(span, Phase::GpuCopy, 0, 4096);
            t.chunk(span, Phase::Persist, 0, 4096);
            t.chunk(span, Phase::RestoreRead, 0, 512);
            // A start in the future clamps to a zero duration, so both
            // handles feed the phase histograms the same sample.
            for phase in [Phase::TicketWait, Phase::GpuCopy, Phase::Commit] {
                t.phase_done(span, phase, u64::MAX);
            }
            t.stall(span, 700);
            t.actor_span_split(span, "writer-0", 0, 4096, u64::MAX);
            t.actor_span_split(span, format_args!("reader-{}", 1), 0, 512, 10);
            TelemetryIoObserver::new(t.clone()).member_io(
                "stripe-0",
                pccheck_device::MemberIoOp::Write,
                4096,
                50,
            );
            t.committed(span, 3, 4096);
            let lost = t.span_requested("pccheck", 4, 4096);
            t.superseded(lost, 5);
            let failed = t.span_requested("pccheck", 6, 4096);
            t.failed(failed, format_args!("device error {}", 7));
            t.anomaly(6, 2.0, 1.0, 2.0);
            t.iteration_end(6);
            t.gauge_queue_depth(2);
            t.gauge_device_queue(1, 4);
            t.gauge_dirty_ratio(125);
            t.gauge_compression_ratio(400);
            t.add_codec_bytes_saved(2048);
            t.add_dedup_chunks(3);
            t.stage_write(100);
            t.stage_persist(200);
            t.stage_read(300);
        };
        let metrics = Telemetry::metrics();
        let traced = Telemetry::enabled();
        drive(&metrics);
        drive(&traced);

        // Only the clock differs between the two recorders.
        let rollup = |t: &Telemetry| TelemetrySnapshot {
            window_nanos: 0,
            ..t.snapshot().expect("enabled")
        };
        assert_eq!(rollup(&metrics), rollup(&traced));
        assert_eq!(rollup(&metrics).counters.committed, 1);
        assert_eq!(rollup(&metrics).phase(Phase::Commit).count, 1);
        assert!(metrics.is_enabled());
        assert!(metrics.events().is_empty());
        assert!(!traced.events().is_empty());
    }

    #[test]
    fn clones_share_one_recorder() {
        let t = Telemetry::enabled();
        let u = t.clone();
        let span = t.span_requested("pccheck", 1, 8);
        u.committed(span, 1, 8);
        assert_eq!(t.events().len(), 2);
        assert_eq!(u.snapshot().unwrap().counters.committed, 1);
    }

    #[test]
    fn gauges_track_peaks() {
        let t = Telemetry::enabled();
        let a = t.span_requested("pccheck", 1, 8);
        let b = t.span_requested("pccheck", 2, 8);
        let snap = t.snapshot().unwrap();
        assert_eq!(snap.in_flight, 2);
        assert_eq!(snap.in_flight_peak, 2);
        t.superseded(a, 2);
        t.committed(b, 2, 8);
        let snap = t.snapshot().unwrap();
        assert_eq!(snap.in_flight, 0);
        assert_eq!(snap.in_flight_peak, 2);
        t.gauge_queue_depth(3);
        t.gauge_queue_depth(1);
        let snap = t.snapshot().unwrap();
        assert_eq!(snap.queue_depth, 1);
        assert_eq!(snap.queue_depth_peak, 3);
    }

    #[test]
    fn pipeline_stage_metrics_roll_up() {
        let t = Telemetry::enabled();
        t.stage_write(100);
        t.stage_write(300);
        t.stage_persist(50);
        t.stage_read(25);
        t.stage_read(75);
        t.gauge_device_queue(0, 3);
        t.gauge_device_queue(0, 1);
        t.gauge_device_queue(2, 7);
        t.gauge_device_queue(MAX_TRACKED_DEVICES, 99); // out of range: dropped
        let snap = t.snapshot().unwrap();
        assert_eq!(snap.write_stage.count, 2);
        assert_eq!(snap.write_stage.sum_nanos, 400);
        assert_eq!(snap.persist_stage.count, 1);
        assert_eq!(snap.read_stage.count, 2);
        assert_eq!(snap.read_stage.sum_nanos, 100);
        assert_eq!(snap.device_queue_depth, [1, 0, 7, 0, 0, 0, 0, 0]);
        assert_eq!(snap.device_queue_peak, [3, 0, 7, 0, 0, 0, 0, 0]);

        // Disabled handles stay inert.
        let d = Telemetry::disabled();
        d.stage_write(1);
        d.stage_persist(1);
        d.stage_read(1);
        d.gauge_device_queue(0, 1);
        assert!(d.snapshot().is_none());
    }

    #[test]
    fn dirty_ratio_gauge_rolls_up() {
        let t = Telemetry::enabled();
        t.gauge_dirty_ratio(100);
        t.gauge_dirty_ratio(40);
        let snap = t.snapshot().unwrap();
        assert_eq!(snap.dirty_ratio_permille, 40);
        assert_eq!(snap.dirty_ratio_permille_peak, 100);

        let d = Telemetry::disabled();
        d.gauge_dirty_ratio(1);
        assert!(d.snapshot().is_none());
    }

    #[test]
    fn io_observer_bridges_member_io_into_actor_spans() {
        use pccheck_device::IoObserver as _;
        let t = Telemetry::enabled();
        let obs = TelemetryIoObserver::new(t.clone());
        // `start_nanos = now - dur` saturates at the recorder epoch; spin
        // past it so a fast scheduler can't clamp the reconstructed span.
        while t.now_nanos() < 1000 {
            std::hint::spin_loop();
        }
        obs.member_io("stripe-0", pccheck_device::MemberIoOp::Write, 4096, 1000);
        let events = t.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].span, SpanId::NONE);
        match &events[0].kind {
            EventKind::ActorSpan {
                actor,
                start_nanos,
                dur_nanos,
                bytes,
                media_nanos,
            } => {
                assert_eq!(actor, "stripe-0");
                assert_eq!(*dur_nanos, 1000);
                assert_eq!(*media_nanos, 1000);
                assert_eq!(*bytes, 4096);
                assert_eq!(events[0].at_nanos, start_nanos + dur_nanos);
            }
            other => panic!("unexpected event kind {other:?}"),
        }

        // A disabled handle keeps the observer inert.
        let inert = TelemetryIoObserver::new(Telemetry::disabled());
        inert.member_io("tier", pccheck_device::MemberIoOp::Read, 1, 1);
    }

    #[test]
    fn actor_span_split_clamps_media_to_duration() {
        let t = Telemetry::enabled();
        let span = t.span_requested("pccheck", 1, 64);
        let s = t.now_nanos();
        // A claimed media time far beyond the measured duration is clamped.
        t.actor_span_split(span, "writer-0", s, 64, u64::MAX);
        t.committed(span, 1, 64);
        let media = t
            .events()
            .iter()
            .find_map(|e| match &e.kind {
                EventKind::ActorSpan {
                    dur_nanos,
                    media_nanos,
                    ..
                } => Some((*dur_nanos, *media_nanos)),
                _ => None,
            })
            .expect("actor span recorded");
        assert!(media.1 <= media.0, "media {} > dur {}", media.1, media.0);

        // Disabled handles stay inert.
        let d = Telemetry::disabled();
        d.actor_span_split(SpanId::NONE, "writer-0", 0, 1, 1);
        assert!(d.events().is_empty());
    }

    #[test]
    fn concurrent_spans_from_many_threads() {
        let t = Telemetry::enabled();
        let mut handles = Vec::new();
        for w in 0..4u64 {
            let t = t.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..50u64 {
                    let span = t.span_requested("pccheck", w * 100 + i, 64);
                    let s = t.now_nanos();
                    t.phase_done(span, Phase::Persist, s);
                    if i % 3 == 0 {
                        t.superseded(span, i);
                    } else {
                        t.committed(span, w * 100 + i, 64);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = t.snapshot().unwrap();
        assert_eq!(snap.counters.requested, 200);
        assert_eq!(snap.counters.terminated(), 200);
        assert_eq!(snap.in_flight, 0);
        let events = t.events();
        // 200 spans x (requested + phase + terminal).
        assert_eq!(events.len(), 600);
        assert!(events.windows(2).all(|w| w[0].at_nanos <= w[1].at_nanos));
        // Span ids are unique.
        let mut spans: Vec<u64> = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Requested { .. }))
            .map(|e| e.span.0)
            .collect();
        spans.sort_unstable();
        spans.dedup();
        assert_eq!(spans.len(), 200);
    }
}
