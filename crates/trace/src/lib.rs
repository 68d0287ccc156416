//! Spot-VM preemption traces and goodput accounting.
//!
//! The paper's goodput experiments (Figures 2 and 9) replay a resource
//! preemption trace collected by André et al. on a 64-A100 spot cluster in
//! Google Cloud: ~26 preemptions over 3.5 hours, extended to a 16-hour
//! window, with *bulky* preemptions (several VMs at once) common. The raw
//! trace is not published, so [`PreemptionTrace::synthetic_gcp_a100`]
//! generates a seeded trace matching the published summary statistics; any
//! custom trace can also be built from explicit event times.
//!
//! [`GoodputReplay`] implements §5.2.3's accounting: replaying the trace
//! against a simulated training run, every preemption rolls the job back to
//! its last durable checkpoint; goodput is useful batches per second over
//! the whole window.

pub mod goodput;
pub mod jit;
pub mod preemption;

pub use goodput::GoodputReplay;
pub use jit::JitReplay;
pub use preemption::PreemptionTrace;
