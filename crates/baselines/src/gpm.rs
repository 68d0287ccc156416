//! GPM-style checkpointing: GPU kernels write straight to mapped
//! persistent memory.
//!
//! GPM extends unified virtual memory to cover a PMEM region and copies
//! checkpoint data with GPU *kernels* instead of DMA copy engines. Two
//! consequences the experiments depend on:
//!
//! * no DRAM staging (Table 1: `DRAM = 0`) — the bytes go GPU → device;
//!   here each tile passes through one `KERNEL_COPY_CHUNK` bounce
//!   chunk, which stands in for the kernel's register/shared-memory tile,
//! * training stalls for the whole checkpoint, since the copy kernels
//!   occupy the SMs and every tile is fenced before training resumes
//!   (§2.2: "it stalls training while persisting state").
//!
//! The SSD adaptation (the one the paper evaluates alongside PMEM) keeps
//! kernel copies into an mmapped, `cudaHostRegister`ed file and persists
//! with `cudaDeviceSynchronize` + `msync`. Here the writer that stores a
//! tile fences it, as PMEM's per-thread fences require, and the training
//! thread writes and fences the frame's table last.

use std::sync::Arc;

use pccheck_util::sync::Mutex;

use pccheck::store::CheckpointStore;
use pccheck::{CopyMode, PccheckError, PipelineCtx};
use pccheck_device::PersistentDevice;
use pccheck_gpu::{CheckpointOutcome, Checkpointer, Gpu};
use pccheck_telemetry::Telemetry;
use pccheck_util::ByteSize;

use crate::TwoSlots;

/// The stall-and-persist baseline.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use pccheck_baselines::GpmCheckpointer;
/// use pccheck_device::{DeviceConfig, PersistentDevice, PmemDevice};
/// use pccheck_gpu::{Checkpointer, Gpu, GpuConfig, TrainingState};
/// use pccheck_util::ByteSize;
///
/// # fn main() -> Result<(), pccheck::PccheckError> {
/// let gpu = Gpu::new(
///     GpuConfig::fast_for_tests(),
///     TrainingState::synthetic(ByteSize::from_kb(4), 1),
/// );
/// let device: Arc<dyn PersistentDevice> =
///     Arc::new(PmemDevice::new(DeviceConfig::fast_for_tests(ByteSize::from_kb(64))));
/// let ckpt = GpmCheckpointer::new(device, gpu.state_size())?;
/// gpu.update();
/// ckpt.checkpoint(&gpu, 1); // stalls until durable
/// assert_eq!(ckpt.last_committed().unwrap().iteration, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct GpmCheckpointer {
    storage: TwoSlots,
    last: Mutex<Option<CheckpointOutcome>>,
    telemetry: Telemetry,
}

impl GpmCheckpointer {
    /// Creates the checkpointer with a two-slot store on `device`; its
    /// staging pool is one tile.
    ///
    /// # Errors
    ///
    /// Returns [`PccheckError::InvalidConfig`] if the device cannot hold two
    /// checkpoints.
    pub fn new(
        device: Arc<dyn PersistentDevice>,
        checkpoint_size: ByteSize,
    ) -> Result<Self, PccheckError> {
        Ok(GpmCheckpointer {
            storage: TwoSlots::format(device, checkpoint_size, CopyMode::Streamed)?,
            last: Mutex::new(None),
            telemetry: Telemetry::disabled(),
        })
    }

    /// Attaches a telemetry handle so runs are traced with the same
    /// instrumentation as [`pccheck::PcCheckEngine`].
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The underlying store.
    pub fn store(&self) -> &Arc<CheckpointStore> {
        self.storage.pipeline.store()
    }
}

impl Checkpointer for GpmCheckpointer {
    fn checkpoint(&self, gpu: &Gpu, iteration: u64) {
        let stall_start = self.telemetry.now_nanos();
        let span = self
            .telemetry
            .span_requested(self.name(), iteration, gpu.state_size().as_u64());
        let ctx = PipelineCtx {
            telemetry: &self.telemetry,
            span,
        };
        // Inline on the training thread, with the guard held through the
        // commit: the copy kernels occupy the GPU, so training stalls for
        // the duration by construction. Streamed, the copy leases the slot
        // the kernels target before the first tile, and each tile goes
        // GPU → the one bounce chunk → device, written and fenced by a
        // writer before the chunk takes the next tile.
        let guard = gpu.lock_weights_shared();
        self.storage.checkpoint(ctx, &guard, iteration, &self.last);
        drop(guard);
        // Whole call ran on the training thread with the SMs occupied.
        self.telemetry
            .stall(span, self.telemetry.now_nanos().saturating_sub(stall_start));
    }

    fn drain(&self) {
        // Synchronous: nothing outstanding.
    }

    fn last_committed(&self) -> Option<CheckpointOutcome> {
        *self.last.lock()
    }

    fn name(&self) -> &str {
        "gpm"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pccheck::recovery::{recover, verify_against_state};
    use pccheck_device::{DeviceConfig, PmemDevice, SsdDevice};
    use pccheck_gpu::{GpuConfig, TrainingState};

    fn gpu(state: u64) -> Gpu {
        Gpu::new(
            GpuConfig::fast_for_tests(),
            TrainingState::synthetic(ByteSize::from_bytes(state), 9),
        )
    }

    #[test]
    fn works_on_pmem_with_per_thread_fence() {
        let g = gpu(300);
        let cap = CheckpointStore::required_capacity(g.state_size(), 2) + ByteSize::from_kb(1);
        let pmem = Arc::new(PmemDevice::new(DeviceConfig::fast_for_tests(cap)));
        let dev: Arc<dyn PersistentDevice> = pmem.clone();
        let ckpt = GpmCheckpointer::new(dev, g.state_size()).unwrap();
        g.update();
        ckpt.checkpoint(&g, 1);
        pmem.crash_now();
        pmem.recover();
        let rec = recover(pmem).unwrap();
        assert_eq!(rec.iteration, 1);
        let layout = g.with_weights(|s| s.layout());
        verify_against_state(&rec, &layout).unwrap();
    }

    #[test]
    fn works_on_ssd_adaptation() {
        let g = gpu(500);
        let cap = CheckpointStore::required_capacity(g.state_size(), 2) + ByteSize::from_kb(1);
        let ssd = Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let dev: Arc<dyn PersistentDevice> = ssd.clone();
        let ckpt = GpmCheckpointer::new(dev, g.state_size()).unwrap();
        for iter in 1..=3 {
            g.update();
            ckpt.checkpoint(&g, iter);
        }
        assert_eq!(ckpt.last_committed().unwrap().iteration, 3);
        assert_eq!(ckpt.name(), "gpm");
        ssd.crash_now();
        ssd.recover();
        assert_eq!(recover(ssd).unwrap().iteration, 3);
    }

    #[test]
    fn checkpoint_is_synchronous_no_drain_needed() {
        let g = gpu(200);
        let cap = CheckpointStore::required_capacity(g.state_size(), 2) + ByteSize::from_kb(1);
        let dev: Arc<dyn PersistentDevice> =
            Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let ckpt = GpmCheckpointer::new(dev, g.state_size()).unwrap();
        g.update();
        ckpt.checkpoint(&g, 1);
        ckpt.drain();
        assert_eq!(
            ckpt.store()
                .latest_committed(&ckpt.storage.ns)
                .unwrap()
                .iteration,
            1
        );
    }
}
