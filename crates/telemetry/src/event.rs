//! The checkpoint-lifecycle event model.
//!
//! Every checkpoint request opens a *span*: a stable [`SpanId`] that all
//! subsequent events of that checkpoint carry, from `Requested` through the
//! copy and persist phases to exactly one terminal event
//! (`Committed` / `Superseded` / `Failed`). Timestamps are nanoseconds on
//! the recorder's monotonic clock, so events from concurrent background
//! threads interleave into one totally ordered timeline.

use std::fmt;

/// Identifier of one checkpoint's lifecycle span.
///
/// `SpanId(0)` is the null span handed out by a disabled recorder; events
/// are never recorded against it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The null span (telemetry disabled).
    pub const NONE: SpanId = SpanId(0);

    /// Whether this is a real (recording) span.
    pub fn is_some(self) -> bool {
        self.0 != 0
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "span{}", self.0)
    }
}

/// A timed phase of the checkpoint lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Waiting for one of the `N` concurrency tickets plus the shared
    /// weights lock — the only training-thread stall PCcheck admits.
    TicketWait,
    /// GPU→DRAM snapshot copy (the `C` phase).
    GpuCopy,
    /// DRAM→device write + persist (the `P` phase).
    Persist,
    /// The commit protocol: slot meta barrier + `CHECK_ADDR` CAS.
    Commit,
    /// Recovery: store header read + `CHECK_ADDR`/slot-meta scan
    /// (`CheckpointStore::open` after a crash, §4.2).
    RecoveryScan,
    /// Recovery: reading a candidate checkpoint payload back from the
    /// device.
    RecoveryLoad,
    /// Recovery: digest verification of a candidate payload.
    RecoveryVerify,
    /// Parallel restore: one reader's device→DRAM chunk fetch leg.
    RestoreRead,
    /// Parallel restore: per-block digesting overlapped with the reads,
    /// closed by the end-to-end fold.
    RestoreVerify,
    /// Parallel restore: streaming verified chunks into GPU memory.
    RestoreUpload,
}

impl Phase {
    /// All phases, in lifecycle order (checkpoint phases first, then the
    /// post-crash recovery-path phases, then the parallel-restore phases).
    pub const ALL: [Phase; 10] = [
        Phase::TicketWait,
        Phase::GpuCopy,
        Phase::Persist,
        Phase::Commit,
        Phase::RecoveryScan,
        Phase::RecoveryLoad,
        Phase::RecoveryVerify,
        Phase::RestoreRead,
        Phase::RestoreVerify,
        Phase::RestoreUpload,
    ];

    /// Stable lowercase name used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            Phase::TicketWait => "ticket_wait",
            Phase::GpuCopy => "gpu_copy",
            Phase::Persist => "persist",
            Phase::Commit => "commit",
            Phase::RecoveryScan => "recovery_scan",
            Phase::RecoveryLoad => "recovery_load",
            Phase::RecoveryVerify => "recovery_verify",
            Phase::RestoreRead => "restore_read",
            Phase::RestoreVerify => "restore_verify",
            Phase::RestoreUpload => "restore_upload",
        }
    }

    /// Index into per-phase arrays.
    pub(crate) fn index(self) -> usize {
        match self {
            Phase::TicketWait => 0,
            Phase::GpuCopy => 1,
            Phase::Persist => 2,
            Phase::Commit => 3,
            Phase::RecoveryScan => 4,
            Phase::RecoveryLoad => 5,
            Phase::RecoveryVerify => 6,
            Phase::RestoreRead => 7,
            Phase::RestoreVerify => 8,
            Phase::RestoreUpload => 9,
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What happened.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A checkpoint was requested by the training loop.
    Requested {
        /// Strategy name (`pccheck`, `checkfreq`, ...), so one recorder can
        /// hold several strategies' spans with identical instrumentation.
        strategy: String,
        /// Training iteration being captured.
        iteration: u64,
        /// Checkpoint size in bytes.
        bytes: u64,
    },
    /// The checkpoint was handed to a background worker.
    Queued,
    /// A completed lifecycle phase (start + duration on the monotonic
    /// clock). Phases of one span may overlap (pipelined copy/persist).
    PhaseDone {
        /// Which phase.
        phase: Phase,
        /// Phase start, nanoseconds on the recorder clock.
        start_nanos: u64,
        /// Phase duration in nanoseconds.
        dur_nanos: u64,
    },
    /// One chunk of payload passed through `phase` (offset/len within the
    /// checkpoint payload).
    Chunk {
        /// The phase that moved the chunk (GpuCopy or Persist).
        phase: Phase,
        /// Byte offset within the checkpoint payload.
        offset: u64,
        /// Chunk length in bytes.
        len: u64,
    },
    /// The training thread was blocked inside `checkpoint()` for this long
    /// (the Figure 8 stall). Recorded when the call returns; the stall
    /// interval is `[at_nanos - nanos, at_nanos]`.
    Stall {
        /// Blocked time in nanoseconds.
        nanos: u64,
    },
    /// Terminal: this checkpoint became the latest committed state.
    Committed {
        /// The iteration that is now durable.
        iteration: u64,
        /// Payload bytes made durable.
        bytes: u64,
    },
    /// Terminal: a newer checkpoint won the commit race.
    Superseded {
        /// Counter of the winning checkpoint.
        by_counter: u64,
    },
    /// Terminal: the checkpoint failed (device error, crash injection).
    Failed {
        /// Rendered error.
        error: String,
    },
    /// An anomaly flagged by the monitoring layer, merged into the same
    /// timeline as checkpoint events (span is `SpanId::NONE`).
    Anomaly {
        /// Iteration of the checkpoint that triggered the flag.
        iteration: u64,
        /// Observed normalized update magnitude.
        magnitude: f64,
        /// Trailing-window expectation.
        expected: f64,
        /// `magnitude / expected`.
        ratio: f64,
    },
    /// The training loop finished an iteration (span is `SpanId::NONE`);
    /// feeds goodput/rollback-depth accounting.
    IterationEnd {
        /// The 1-based iteration just completed.
        iteration: u64,
    },
    /// One pipeline actor's completed child span: a writer's chunk run, a
    /// restore reader's fetch/verify leg, or a composite-device member's
    /// I/O. The event's `span` field is the *parent* checkpoint/restore
    /// span (`SpanId::NONE` for device-level actors that outlive any one
    /// span); the Chrome exporter renders each distinct `actor` as its own
    /// timeline lane under the parent.
    ActorSpan {
        /// Stable lane label (`writer-0`, `reader-2`, `stripe-1`, ...).
        actor: String,
        /// Span start, nanoseconds on the recorder clock.
        start_nanos: u64,
        /// Span duration in nanoseconds.
        dur_nanos: u64,
        /// Payload bytes the actor moved during the span (0 if unknown).
        bytes: u64,
        /// Nanoseconds of `dur_nanos` spent in device I/O calls (write /
        /// fence / read). The remainder is queue wait: blocking on staged
        /// chunks, buffer-pool pressure, or scheduling. Actors that cannot
        /// split their time report `media_nanos == dur_nanos`, so the
        /// queue-wait estimate is conservative (never over-reported).
        media_nanos: u64,
    },
}

impl EventKind {
    /// Stable lowercase name used by the exporters.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Requested { .. } => "requested",
            EventKind::Queued => "queued",
            EventKind::PhaseDone { .. } => "phase",
            EventKind::Chunk { .. } => "chunk",
            EventKind::Stall { .. } => "stall",
            EventKind::Committed { .. } => "committed",
            EventKind::Superseded { .. } => "superseded",
            EventKind::Failed { .. } => "failed",
            EventKind::Anomaly { .. } => "anomaly",
            EventKind::IterationEnd { .. } => "iteration_end",
            EventKind::ActorSpan { .. } => "actor_span",
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// The span this event belongs to (`SpanId::NONE` for run-level events
    /// like `IterationEnd` and `Anomaly`).
    pub span: SpanId,
    /// Nanoseconds since the recorder's epoch, monotonic.
    pub at_nanos: u64,
    /// What happened.
    pub kind: EventKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_span_is_none() {
        assert!(!SpanId::NONE.is_some());
        assert!(SpanId(3).is_some());
        assert_eq!(SpanId(3).to_string(), "span3");
    }

    #[test]
    fn phase_names_are_stable() {
        let names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            [
                "ticket_wait",
                "gpu_copy",
                "persist",
                "commit",
                "recovery_scan",
                "recovery_load",
                "recovery_verify",
                "restore_read",
                "restore_verify",
                "restore_upload",
            ]
        );
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }
}
