//! # pccheck-repro — umbrella crate for the PCcheck reproduction
//!
//! Re-exports the workspace's member crates under one roof so the
//! integration tests (`tests/`), runnable examples (`examples/`), and the
//! `pccheckctl` CLI can use a single dependency. See the member crates for
//! the substance:
//!
//! * [`pccheck`] — the paper's contribution (concurrent checkpoint engine,
//!   commit protocol, tuner, recovery, distributed coordination) and the
//!   strategy table whose rows are the baselines: traditional, CheckFreq,
//!   GPM and Gemini.
//! * [`pccheck_device`] — simulated SSD/PMEM/DRAM/network substrates plus
//!   a real file-backed device.
//! * [`pccheck_gpu`] — the training substrate (model zoo, verifiable
//!   states, copy engine, training loop).
//! * [`pccheck_sim`] — the discrete-event simulator.
//! * [`pccheck_trace`] — preemption traces, goodput and JIT replays.
//! * [`pccheck_monitor`] — checkpoint inspection and anomaly detection.
//! * [`pccheck_harness`] — the experiment table (one row per figure,
//!   table and extension) and the scenario drivers.
//! * [`pccheck_telemetry`] — checkpoint-lifecycle tracing, latency
//!   histograms, stall/goodput accounting, and trace exporters.

pub use pccheck;
pub use pccheck_device;
pub use pccheck_gpu;
pub use pccheck_harness;
pub use pccheck_monitor;
pub use pccheck_sim;
pub use pccheck_telemetry;
pub use pccheck_trace;
pub use pccheck_util;
