//! Discrete-event simulator for the PCcheck reproduction.
//!
//! The paper's headline experiments train models with 16–108 GB checkpoint
//! states for thousands of iterations — hours of wall-clock time on real
//! hardware, impossible to replicate byte-for-byte here. This crate runs
//! the *same scheduling policies* as the concrete engines in virtual time:
//!
//! * training is an actor alternating compute (`T`) and update (`U`) phases,
//! * the PCIe link and the storage device (or network link, for Gemini)
//!   are *fluid resources*: in-flight transfers share bandwidth equally,
//!   optionally capped per job to model single-writer-thread limits,
//! * every checkpointing strategy — ideal, traditional, CheckFreq, GPM,
//!   Gemini, PCcheck — is a state machine over those resources with exactly
//!   the admission/stall rules of its concrete implementation: CheckFreq
//!   admits one checkpoint at a time, GPM stalls training, PCcheck takes
//!   one of `N` tickets, stages chunks through a bounded DRAM pool, and
//!   fans out over `p` writer slots.
//!
//! The output is a [`SimReport`]: elapsed virtual time, throughput,
//! per-checkpoint write times, and the commit log that the goodput replay
//! (crate `pccheck-trace`) rolls back against.
//!
//! # Examples
//!
//! ```
//! use pccheck_sim::{SimConfig, StrategyCfg};
//! use pccheck_gpu::ModelZoo;
//!
//! let model = ModelZoo::vgg16();
//! let base = SimConfig::ssd_a100(&model, 10, 500);
//! let ideal = base.clone().with_strategy(StrategyCfg::Ideal).run();
//! let pc = base.with_strategy(StrategyCfg::pccheck(2, 3)).run();
//! let slowdown = pc.slowdown_vs(&ideal);
//! assert!(slowdown >= 1.0);
//! ```

pub mod config;
pub mod fluid;
pub mod report;
pub mod world;

pub use config::{MediaKind, SimConfig, StrategyCfg};
pub use report::SimReport;
