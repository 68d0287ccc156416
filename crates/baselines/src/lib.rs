//! Baseline checkpointing strategies the PCcheck paper compares against.
//!
//! All four baselines implement [`pccheck_gpu::Checkpointer`], so the same
//! training loop, recovery path, and experiment harness drive them
//! interchangeably with PCcheck:
//!
//! * [`TraditionalCheckpointer`] — the PyTorch/TensorFlow default
//!   (Figure 3): training stalls through snapshot *and* persist.
//! * [`CheckFreqCheckpointer`] — CheckFreq (Figure 4): the snapshot and
//!   persist run in the background, but only one checkpoint may be in
//!   flight; the next request stalls until the previous one is durable.
//! * [`GpmCheckpointer`] — GPM: copy kernels write straight from GPU memory
//!   to the mapped persistent device, stalling training for the whole
//!   checkpoint (no DRAM staging, Table 1's `DRAM = 0`).
//! * [`GeminiCheckpointer`] — Gemini: checkpoints go to a peer machine's
//!   DRAM over the network instead of persistent storage; one at a time.
//!
//! The storage-backed baselines reuse PCcheck's [`pccheck::CheckpointStore`]
//! with two slots (their `2·m` footprint in Table 1), which gives them the
//! same crash-consistent commit record and recovery path, and PCcheck's one
//! copy verb: each is a call to [`PersistPipeline::checkpoint_framed`]
//! (copy → seal → commit) that differs from PCcheck's only in its
//! [`CopyMode`], its staging pool and the thread that makes it. The
//! comparison is then purely about *scheduling*: who stalls, when, and for
//! how long.

use std::sync::Arc;

use pccheck::store::{CheckpointStore, Namespace, DEFAULT_JOB};
use pccheck::{
    CommitOutcome, CopyMode, FrameTable, PccheckError, PersistPipeline, PipelineCtx, StoreGeometry,
};
use pccheck_device::{HostBufferPool, PersistentDevice};
use pccheck_gpu::{CheckpointOutcome, SnapshotSource};
use pccheck_util::sync::Mutex;
use pccheck_util::ByteSize;

pub mod checkfreq;
pub mod gemini;
pub mod gpm;
pub mod traditional;

pub use checkfreq::CheckFreqCheckpointer;
pub use gemini::GeminiCheckpointer;
pub use gpm::GpmCheckpointer;
pub use traditional::TraditionalCheckpointer;

/// Tile size of GPM's copy kernels (kernel grids move data in bounded
/// tiles), and the record size of every storage baseline's frame:
/// Traditional and CheckFreq stage the snapshot in chunks of it, GPM
/// bounces each tile through one.
pub(crate) const KERNEL_COPY_CHUNK: usize = 4 * 1024 * 1024;

/// A storage baseline's persist path: a pipeline over a two-slot store, the
/// store's one tenant, and the mode it copies in. Clones share the first two.
#[derive(Debug, Clone)]
struct TwoSlots {
    pipeline: PersistPipeline,
    ns: Arc<Namespace>,
    mode: CopyMode,
}

impl TwoSlots {
    /// Formats a two-slot store on `device` for a `checkpoint_size` state
    /// framed in [`KERNEL_COPY_CHUNK`] records, under a pipeline that copies
    /// in `mode` and whose staging pool holds one chunk of that size when
    /// streamed, the whole snapshot otherwise.
    fn format(
        device: Arc<dyn PersistentDevice>,
        checkpoint_size: ByteSize,
        mode: CopyMode,
    ) -> Result<Self, PccheckError> {
        let chunk = ByteSize::from_bytes(KERNEL_COPY_CHUNK as u64);
        let slot = FrameTable::slot_size_for(checkpoint_size, chunk);
        let store = CheckpointStore::format(device, StoreGeometry::single(slot, 2))?;
        let chunks = match mode {
            CopyMode::Streamed => 1,
            _ => checkpoint_size.as_u64().div_ceil(chunk.as_u64()).max(1) as usize,
        };
        Ok(TwoSlots {
            ns: store.namespace(DEFAULT_JOB)?,
            pipeline: PersistPipeline::new(Arc::new(store), HostBufferPool::new(chunk, chunks)),
            mode,
        })
    }

    /// Checkpoints `src` at `iteration` and reports it: a commit becomes
    /// `last`; a failure is a `failed` event that leaves `last` as it was,
    /// and the failed checkpoint's lease gives its slot back for the next
    /// one.
    fn checkpoint(
        &self,
        ctx: PipelineCtx<'_>,
        src: impl SnapshotSource,
        iteration: u64,
        last: &Mutex<Option<CheckpointOutcome>>,
    ) {
        let total = src.size().as_u64();
        match self
            .pipeline
            .checkpoint_framed(ctx, &self.ns, src, iteration, self.mode)
        {
            Ok((CommitOutcome::Committed, copied)) => {
                ctx.telemetry.committed(ctx.span, iteration, total);
                let digest = copied.state_digest;
                *last.lock() = Some(CheckpointOutcome { iteration, digest });
            }
            Ok((CommitOutcome::SupersededBy { counter }, _)) => {
                ctx.telemetry.superseded(ctx.span, counter)
            }
            Err(e) => ctx.telemetry.failed(ctx.span, &e),
        }
    }
}
