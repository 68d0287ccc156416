//! Checkpoint inspection and training-dynamics monitoring.
//!
//! §2.1 of the PCcheck paper motivates *frequent* checkpoints not only for
//! fault tolerance but for monitoring and debugging: tools like SageMaker
//! Debugger, Cockpit, and Pythia capture model state throughout training
//! to catch accuracy "derailing" — data outliers, exploding/vanishing
//! gradients, silent hardware corruption. PCcheck's cheap per-10-iteration
//! checkpoints make the capture side practical; this crate provides the
//! analysis side:
//!
//! * [`CheckpointInspector`] — enumerate the store's checkpoint history
//!   (PCcheck's `N+1` slots double as a short history), load payloads, and
//!   reconstruct training states.
//! * [`diff`](mod@diff) — byte/tensor-level deltas between checkpoints: how much of
//!   the state changed between two captured iterations.
//! * [`detector`] — an update-magnitude anomaly detector: flags checkpoint
//!   intervals whose per-iteration change rate deviates from the trailing
//!   window, the signature of a silent corruption or divergence event.
//! * [`forensics`] — the post-crash auditor: replays the store's
//!   persistent flight ring against the on-device slot metadata,
//!   classifies every checkpoint (committed / in-flight / superseded /
//!   failed / torn), and verifies the commit protocol's invariants.
//! * [`watchdog`] — arms a telemetry [`SloWatchdog`] with the forensic
//!   auditor as its flight-dump provider, so black-box bundles captured
//!   on SLO violations include the ring replay.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use pccheck::{PcCheckConfig, PcCheckEngine};
//! use pccheck_device::{DeviceConfig, PersistentDevice, SsdDevice};
//! use pccheck_gpu::{Checkpointer, Gpu, GpuConfig, TrainingState};
//! use pccheck_monitor::CheckpointInspector;
//! use pccheck_util::ByteSize;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let gpu = Gpu::new(
//!     GpuConfig::fast_for_tests(),
//!     TrainingState::synthetic(ByteSize::from_kb(16), 1),
//! );
//! let cap = pccheck::CheckpointStore::required_capacity(gpu.state_size(), 4)
//!     + ByteSize::from_kb(4);
//! let device: Arc<dyn PersistentDevice> =
//!     Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
//! let engine = PcCheckEngine::new(
//!     PcCheckConfig::builder().max_concurrent(3).build()?,
//!     device,
//!     gpu.state_size(),
//! )?;
//! for iter in 1..=3 {
//!     gpu.update();
//!     engine.checkpoint(&gpu, iter);
//!     engine.drain();
//! }
//! let inspector =
//!     CheckpointInspector::new(Arc::clone(engine.store()), Arc::clone(engine.namespace()));
//! let history = inspector.history()?;
//! assert_eq!(history.last().unwrap().iteration, 3);
//! # Ok(())
//! # }
//! ```

pub mod detector;
pub mod diff;
pub mod forensics;
pub mod inspect;
pub mod watchdog;

pub use detector::UpdateMagnitudeDetector;
pub use diff::diff;
pub use forensics::{audit, CheckpointVerdict, ForensicReport, InFlightPhase};
pub use inspect::CheckpointInspector;
pub use watchdog::armed_watchdog;

// Re-export the watchdog family so monitor users can configure and drive
// an armed watchdog without a separate telemetry import.
pub use pccheck_telemetry::{SloConfig, SloRule, SloViolation, SloWatchdog};
