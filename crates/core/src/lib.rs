//! # PCcheck: persistent concurrent checkpointing for ML training
//!
//! A from-scratch Rust reproduction of *PCcheck: Persistent Concurrent
//! Checkpointing for ML* (Strati, Friedman, Klimovic — ASPLOS 2025).
//!
//! Prior DNN checkpointing systems (CheckFreq, GPM, Gemini) allow one
//! checkpoint in flight at a time: a new checkpoint stalls training until
//! the previous one is durable. PCcheck instead orchestrates up to `N`
//! *concurrent* checkpoints, pipelines GPU→DRAM snapshotting with
//! DRAM→storage persisting, and parallelizes each checkpoint across `p`
//! writer threads — making per-10-iteration checkpointing feasible at ~3%
//! overhead.
//!
//! ## Crate layout
//!
//! * [`queue`] — the bounded lock-free MPMC free-slot queue of Listing 1.
//! * [`meta`] — checkpoint metadata records and the packed `CHECK_ADDR`.
//! * [`layout`] — the superblock and every on-device region offset.
//! * [`store`] — per-job namespaces and the CAS commit protocol.
//! * [`pipeline`] — [`PersistPipeline`]: the shared chunk-scheduled
//!   chunk → write → fence → commit I/O layer every storage-backed
//!   strategy schedules over.
//! * [`engine`] — [`PcCheckEngine`]: the orchestrator + persistent manager
//!   implementing [`pccheck_gpu::Checkpointer`].
//! * [`strategy`] — [`STRATEGIES`]: PCcheck and the baselines it is
//!   compared with (traditional, CheckFreq, GPM, Gemini), each a row that
//!   builds a [`PcCheckEngine`].
//! * [`recovery`] — post-crash recovery and the §4.2 recovery-time models.
//! * [`restore`] — [`RestorePipeline`]: the multi-reader restore path that
//!   mirrors the persist pipeline, overlapping chunk reads with
//!   verification and streaming verified bytes back to the GPU.
//! * [`tuner`] — the §3.4 configuration tool (equations (1)–(3)).
//! * [`footprint`] — Table 1's memory/storage footprint formulas.
//! * [`distributed`] — multi-node checkpoint-ID agreement (§3.1/§4.1).
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use pccheck::{PcCheckConfig, PcCheckEngine};
//! use pccheck_device::{DeviceConfig, PersistentDevice, SsdDevice};
//! use pccheck_gpu::{Checkpointer, Gpu, GpuConfig, TrainingState};
//! use pccheck_util::ByteSize;
//!
//! # fn main() -> Result<(), pccheck::PccheckError> {
//! let state = TrainingState::synthetic(ByteSize::from_kb(64), 1);
//! let gpu = Gpu::new(GpuConfig::fast_for_tests(), state);
//!
//! let device: Arc<dyn PersistentDevice> = Arc::new(SsdDevice::new(
//!     DeviceConfig::fast_for_tests(ByteSize::from_mb_u64(1)),
//! ));
//! let config = PcCheckConfig::builder()
//!     .max_concurrent(2)
//!     .writer_threads(2)
//!     .chunk_size(ByteSize::from_kb(16))
//!     .dram_chunks(8)
//!     .build()?;
//! let engine = PcCheckEngine::new(config, device, gpu.state_size())?;
//!
//! // Train a few iterations, checkpointing after each update:
//! for iter in 1..=3 {
//!     gpu.update();
//!     engine.checkpoint(&gpu, iter);
//! }
//! engine.drain();
//! assert_eq!(engine.last_committed().unwrap().iteration, 3);
//! # Ok(())
//! # }
//! ```

pub mod codec;
pub mod config;
pub mod distributed;
pub mod engine;
pub mod error;
pub mod footprint;
pub mod layout;
pub mod meta;
pub mod pipeline;
mod plan;
mod pool;
pub mod qos;
pub mod queue;
pub mod recovery;
pub mod restore;
pub mod store;
pub mod strategy;
#[cfg(test)]
mod testutil;
pub mod tuner;

pub use codec::{
    bind_frame_table, compress_gated, lz_decompress, raw_frame, read_table, ChunkEncoding,
    FrameRecord, FrameTable,
};
pub use config::PcCheckConfig;
pub use engine::PcCheckEngine;
pub use error::PccheckError;
pub use layout::{StoreGeometry, StoreLayout};
pub use meta::{CheckMeta, DeltaLink, SlotState};
pub use pipeline::{Copied, PersistPipeline, PipelineCtx};
pub use qos::{QosArbiter, QosConfig};
pub use recovery::{
    recover, recover_instrumented, RecoveredCheckpoint, RecoveryModel, RecoveryTrace, Strategy,
};
pub use restore::{
    decode_frame, recover_instrumented_with, recover_into_gpu, RestoreOptions, RestorePipeline,
};
pub use store::{
    CheckpointStore, CommitOutcome, JobId, Namespace, RawStoreView, SlotOutcome, DEFAULT_JOB,
};
pub use strategy::{StrategyRow, STRATEGIES};
pub use tuner::{Tuner, TunerInputs};
