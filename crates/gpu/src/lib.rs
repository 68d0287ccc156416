//! Simulated GPU training substrate for the PCcheck reproduction.
//!
//! The paper evaluates checkpointing during DNN training on NVIDIA GPUs.
//! A checkpointing framework interacts with training through a narrow
//! surface, all of which this crate models without real hardware:
//!
//! * **A mutating training state of size `m`** — [`TrainingState`] holds the
//!   model's parameter and optimizer tensors as real bytes that change
//!   deterministically every update step, so checkpoint/restore round-trips
//!   can be verified bit-for-bit (see [`TrainingState::digest`]).
//! * **An iteration cadence `t`** — [`models`] catalogs the paper's Table 3
//!   workloads with calibrated iteration times and checkpoint sizes.
//! * **The GPU→DRAM copy path** — [`CopyEngine`] models DMA copy engines
//!   over PCIe with pinned-memory bandwidth (§3.3's preferred path).
//! * **The update/snapshot race** — [`Gpu`] guards the weights with a
//!   readers–writer discipline: checkpoint copies hold read access while
//!   the next update needs exclusive access, reproducing the `T→U` stall in
//!   Figure 6 of the paper.
//!
//! Checkpointing strategies (PCcheck and the baselines, each a row of
//! `pccheck`'s strategy table) implement the [`Checkpointer`] trait and get
//! driven by [`TrainingLoop`].
//!
//! # Examples
//!
//! ```
//! use pccheck_gpu::{Gpu, GpuConfig, TrainingState};
//! use pccheck_util::ByteSize;
//!
//! let state = TrainingState::synthetic(ByteSize::from_kb(64), 42);
//! let gpu = Gpu::new(GpuConfig::fast_for_tests(), state);
//! let d0 = gpu.with_weights(|w| w.digest());
//! gpu.update(); // one optimizer step: every tensor mutates
//! let d1 = gpu.with_weights(|w| w.digest());
//! assert_ne!(d0, d1);
//! ```

pub mod checkpoint;
pub mod copy;
pub mod gpu;
pub mod models;
pub mod tensor;
pub mod training;

pub use checkpoint::{CheckpointOutcome, Checkpointer, NullCheckpointer};
pub use copy::{CopyEngine, CopyEngineConfig};
pub use gpu::{Gpu, GpuConfig, OwnedWeightsGuard, RestoreTarget, SnapshotSource, Version};
pub use models::{GpuKind, ModelSpec, ModelZoo};
pub use tensor::{StateDigest, Tensor, TrainingState};
pub use training::{TrainingLoop, TrainingReport};
