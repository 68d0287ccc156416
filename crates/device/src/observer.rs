//! Per-member I/O observation for the striped device.
//!
//! A [`StripedDevice`](crate::StripedDevice) fans one logical operation out
//! to several member devices, and the interesting question for observability
//! is *which member* did the work and *how long its leg took* — the
//! controller-level [`DeviceStats`](crate::DeviceStats) only sees the
//! aggregate. An [`IoObserver`] registered on the array receives one
//! callback per member-level operation, timed around the member call
//! itself (queue-gate wait excluded — backpressure is already visible
//! through the queue-depth gauges).
//!
//! The device crate sits at the bottom of the dependency graph, so the
//! trait lives here and the telemetry crate implements it
//! (`TelemetryIoObserver`) to turn member I/O into per-device actor lanes
//! in the trace timeline.

use std::fmt::Debug;

/// Which member-level operation completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberIoOp {
    /// A `write_at` leg landed on the member's volatile view.
    Write,
    /// A `persist` leg made member bytes durable.
    Persist,
    /// A `read_durable_at` leg fetched durable member bytes.
    Read,
}

/// Receives one callback per member-level I/O on a striped device.
///
/// `member` is the array's stable label for the member (`"stripe-0"`,
/// `"stripe-1"`, … — the same names
/// [`stats_report`](crate::PersistentDevice::stats_report) uses), `bytes`
/// the length of the leg, and `dur_nanos` the wall time the member call
/// took. Callbacks run on the I/O thread inside the member's submission
/// gate, so implementations must be cheap and non-blocking.
pub trait IoObserver: Send + Sync + Debug {
    /// Called after each successful member-level operation.
    fn member_io(&self, member: &str, op: MemberIoOp, bytes: u64, dur_nanos: u64);
}
