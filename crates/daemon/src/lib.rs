//! `pccheckd` — the multi-tenant checkpoint service.
//!
//! Everything below PR 8 ran one training job against one private store.
//! This crate turns the stack into a *service*: one long-running daemon
//! owns the shared striped device, one
//! [`CheckpointStore`](pccheck::CheckpointStore) carved into per-job slot
//! namespaces, one writer pool, one staging pool, and one
//! [`QosArbiter`](pccheck::QosArbiter) — and every training job gets a
//! thin [`PcCheckEngine`](pccheck::PcCheckEngine) facade over those
//! shared resources.
//!
//! The three layers:
//!
//! * [`admission`] — §3.4 storage math per tenant: a job whose budget
//!   cannot hold two checkpoints (`N ≤ S/m − 1` with `N ≥ 1`) is
//!   **rejected**; a job that fits the store eventually but not *now*
//!   (slot range or namespace directory exhausted) is **queued**.
//! * [`service`] — [`Daemon`]: submit/drain/list jobs, drive sim-backed
//!   training workers, expose one [`MetricsRegistry`] with a `job` label
//!   per tenant, and audit the shared store on shutdown.
//! * [`control`] — a hand-rolled HTTP control endpoint (`GET /jobs`,
//!   `GET /submit?...`, `GET /drain?...`) so `pccheckctl job` can drive a
//!   running daemon remotely, mirroring the metrics endpoint's style.
//!
//! [`MetricsRegistry`]: pccheck_telemetry::MetricsRegistry

pub mod admission;
pub mod control;
pub mod service;

pub use admission::{Admission, SystemParams};
pub use control::ControlServer;
pub use service::{Daemon, DaemonConfig, JobSpec, JobState, JobStatus, SubmitOutcome};
