//! # Checkpoint-lifecycle telemetry
//!
//! Observability for the PCcheck reproduction: every checkpoint opens a
//! *span* that is traced through `requested → queued → gpu_copy →
//! persist(chunk…) → commit/supersede/fail`, with monotonic timestamps so
//! events from concurrent workers interleave into one timeline. On top of
//! the raw stream sit per-phase latency histograms (p50/p95/p99/max),
//! gauges (in-flight concurrency, free-slot queue depth, device-bandwidth
//! utilization), and a stall/goodput accountant that reproduces the
//! paper's Fig. 8/9 metrics online.
//!
//! The paper's entire evaluation is an observability exercise — checkpoint
//! stall (Fig. 8), goodput under preemption (Fig. 9), the persist
//! breakdown (Fig. 11) — and this crate makes those numbers fall out of
//! any instrumented run instead of being re-derived ad hoc per binary.
//!
//! ## Design
//!
//! * [`Telemetry`] is a cheap cloneable handle. [`Telemetry::disabled`]
//!   (also `Default`) turns every hook into a branch on `None` — zero
//!   allocation, no atomics — so instrumented hot paths cost nothing when
//!   telemetry is off. An enabled handle shares one
//!   [`MemoryRecorder`](recorder::MemoryRecorder) among all clones, at one
//!   of two levels. A run keeps its timeline; a service keeps its
//!   metrics. [`Telemetry::enabled`] records every
//!   metric and the event stream that accounting, ledgers and traces
//!   replay once a finite run ends. [`Telemetry::metrics`] records the
//!   same histograms, counters and gauges and no events, so a service
//!   that never ends (the `pccheckd` daemon) holds a fixed amount of
//!   memory however long it runs.
//! * The recorder is *lock-light*: counters/histograms/gauges are single
//!   atomic operations; events append to per-thread-sharded buffers.
//! * The crate is nearly dependency-free; exporters emit JSON by hand. The
//!   one exception is the device crate, through which the persistent
//!   [`flight`] recorder appends its crash-safe event ring.
//! * The in-memory recorder vanishes at a crash — which is exactly the
//!   moment the paper's recovery protocol (§4.2) cares about. The
//!   [`flight`] module therefore persists 64-byte checksummed lifecycle
//!   records to a reserved ring on the *same* device that holds the
//!   checkpoints, so a post-crash auditor can replay what the commit
//!   protocol was doing when the process died.
//!
//! ## Modules
//!
//! * [`event`] — [`SpanId`], [`Phase`], [`EventKind`], [`Event`].
//! * [`flight`] — [`FlightRing`], [`FlightRecorder`], [`FlightRecord`]:
//!   the persistent crash-safe event ring.
//! * [`recorder`] — [`MemoryRecorder`](recorder::MemoryRecorder),
//!   [`Telemetry`], [`TelemetrySnapshot`].
//! * [`histogram`] — lock-free 64-bucket log2 latency histograms and their
//!   [`HistogramSummary`](histogram::HistogramSummary).
//! * [`counters`] — [`CheckpointCounters`] with a consistent
//!   [`snapshot`](CheckpointCounters::snapshot).
//! * [`accounting`] — [`RunAccounting`]: stall fraction, slowdown,
//!   rollback depth, goodput.
//! * [`export`] — [`render_summary`], [`json_lines`], [`chrome_trace`]
//!   (Perfetto-loadable).
//! * [`profile`] — [`CommitLedger`](profile::CommitLedger), [`RunProfile`],
//!   [`ProfileArchive`], [`diff_profiles`]: per-commit critical-path ledgers and cross-run
//!   regression analytics.
//! * [`registry`] — [`MetricsRegistry`], [`MetricsServer`]: live
//!   Prometheus/JSON exposition over the shared recorder.
//! * [`watchdog`] — [`SloWatchdog`]: rolling-window SLO evaluation with
//!   black-box capture on violation.
//!
//! ## Quickstart
//!
//! ```
//! use pccheck_telemetry::{Phase, RunAccounting, Telemetry};
//!
//! let telemetry = Telemetry::enabled();
//! let span = telemetry.span_requested("pccheck", 1, 4096);
//! let start = telemetry.now_nanos();
//! // ... GPU→DRAM copy happens here ...
//! telemetry.phase_done(span, Phase::GpuCopy, start);
//! telemetry.committed(span, 1, 4096);
//! telemetry.iteration_end(1);
//!
//! let snapshot = telemetry.snapshot().unwrap();
//! assert_eq!(snapshot.counters.committed, 1);
//! let accounting = RunAccounting::from_events(&telemetry.events());
//! assert_eq!(accounting.iterations, 1);
//! println!("{}", pccheck_telemetry::render_summary(&snapshot, &accounting));
//! ```

pub mod accounting;
pub mod counters;
pub mod event;
pub mod export;
pub mod flight;
pub mod histogram;
pub mod profile;
pub mod recorder;
pub mod registry;
pub mod watchdog;

pub use accounting::RunAccounting;
pub use counters::{CheckpointCounters, CountersSnapshot};
pub use event::{Event, EventKind, Phase, SpanId};
pub use export::{chrome_trace, json_lines, render_summary};
pub use flight::{
    FlightEventKind, FlightRecord, FlightRecorder, FlightRing, FLIGHT_HEADER_SIZE,
    FLIGHT_RECORD_SIZE,
};
pub use profile::{
    build_ledgers, chrome_trace_annotated, diff_profiles, render_diff, render_profile, DiffMode,
    DiffThresholds, NodeKind, ProfileArchive, RunProfile,
};
pub use recorder::{Telemetry, TelemetryIoObserver, TelemetrySnapshot};
pub use registry::{
    http_get, validate_prometheus_text, HttpListener, HttpResponse, HttpRoute, MetricsRegistry,
    MetricsServer,
};
pub use watchdog::{SloConfig, SloRule, SloViolation, SloWatchdog};
