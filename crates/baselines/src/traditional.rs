//! Traditional synchronous checkpointing (Figure 3).
//!
//! The default in PyTorch/TensorFlow/MXNet: at a checkpoint boundary the
//! training thread copies the weights to DRAM (`C`), writes them to
//! persistent storage, and syncs (`P`) — all inline, so the GPU idles for
//! the entire duration. The storage layout is the shared two-slot
//! [`CheckpointStore`], so crashes at any point leave the previous
//! checkpoint recoverable.

use std::sync::Arc;

use pccheck_util::sync::Mutex;

use pccheck::store::{CheckpointStore, Namespace, DEFAULT_JOB};
use pccheck::{PccheckError, PersistPipeline, PipelineCtx, StoreGeometry};
use pccheck_device::PersistentDevice;
use pccheck_gpu::{CheckpointOutcome, Checkpointer, Gpu};
use pccheck_telemetry::Telemetry;
use pccheck_util::ByteSize;

/// The fully synchronous baseline.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use pccheck_baselines::TraditionalCheckpointer;
/// use pccheck_device::{DeviceConfig, PersistentDevice, SsdDevice};
/// use pccheck_gpu::{Checkpointer, Gpu, GpuConfig, TrainingState};
/// use pccheck_util::ByteSize;
///
/// # fn main() -> Result<(), pccheck::PccheckError> {
/// let gpu = Gpu::new(
///     GpuConfig::fast_for_tests(),
///     TrainingState::synthetic(ByteSize::from_kb(4), 1),
/// );
/// let device: Arc<dyn PersistentDevice> = Arc::new(SsdDevice::new(
///     DeviceConfig::fast_for_tests(ByteSize::from_kb(64)),
/// ));
/// let ckpt = TraditionalCheckpointer::new(device, gpu.state_size())?;
/// gpu.update();
/// ckpt.checkpoint(&gpu, 1); // blocks until durable
/// assert_eq!(ckpt.last_committed().unwrap().iteration, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TraditionalCheckpointer {
    pipeline: PersistPipeline,
    /// The two-slot store's one tenant.
    ns: Arc<Namespace>,
    last: Mutex<Option<CheckpointOutcome>>,
    telemetry: Telemetry,
}

impl TraditionalCheckpointer {
    /// Creates the checkpointer, formatting a two-slot store on `device`.
    ///
    /// # Errors
    ///
    /// Returns [`PccheckError::InvalidConfig`] if the device cannot hold two
    /// checkpoints.
    pub fn new(
        device: Arc<dyn PersistentDevice>,
        checkpoint_size: ByteSize,
    ) -> Result<Self, PccheckError> {
        let record = ByteSize::from_bytes(pccheck::KERNEL_COPY_CHUNK as u64);
        let slot = pccheck::FrameTable::slot_size_for(checkpoint_size, record);
        let store = CheckpointStore::format(device, StoreGeometry::single(slot, 2))?;
        Ok(TraditionalCheckpointer {
            ns: store.namespace(DEFAULT_JOB)?,
            pipeline: PersistPipeline::new(Arc::new(store)),
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

    /// The underlying store (for recovery in tests/benches).
    pub fn store(&self) -> &Arc<CheckpointStore> {
        self.pipeline.store()
    }
}

impl Checkpointer for TraditionalCheckpointer {
    fn checkpoint(&self, gpu: &Gpu, iteration: u64) {
        let stall_start = self.telemetry.now_nanos();
        let span = self
            .telemetry
            .span_requested(self.name(), iteration, gpu.state_size().as_u64());
        let ctx = PipelineCtx {
            telemetry: &self.telemetry,
            span,
        };
        // C: copy weights to DRAM — inline, training thread blocked.
        let guard = gpu.lock_weights_shared();
        let total = guard.size();
        let (host, digest) = self
            .pipeline
            .snapshot_whole(ctx, &guard, iteration, stall_start);
        drop(guard);
        // P: write + sync to storage — still inline, slot leased after the
        // copy (the lease straddles only the persist, as before).
        let (lease, copied) = self
            .pipeline
            .persist_whole(ctx, &self.ns, &host, digest, iteration)
            .expect("whole-payload persist on healthy device");
        let outcome = self
            .pipeline
            .commit(ctx, lease, iteration, &copied)
            .expect("commit I/O on healthy device");
        match outcome {
            pccheck::CommitOutcome::Committed => {
                self.telemetry.committed(span, iteration, total.as_u64());
                *self.last.lock() = Some(CheckpointOutcome { iteration, digest });
            }
            pccheck::CommitOutcome::SupersededBy { counter } => {
                self.telemetry.superseded(span, counter);
            }
        }
        // The entire call ran inline: all of it is training-thread stall.
        self.telemetry
            .stall(span, self.telemetry.now_nanos().saturating_sub(stall_start));
    }

    fn drain(&self) {
        // Everything is synchronous; nothing outstanding.
    }

    fn last_committed(&self) -> Option<CheckpointOutcome> {
        *self.last.lock()
    }

    fn name(&self) -> &str {
        "traditional"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pccheck::recovery::{recover, verify_against_state};
    use pccheck_device::{DeviceConfig, SsdDevice};
    use pccheck_gpu::{GpuConfig, TrainingState};

    fn setup(state: u64) -> (TraditionalCheckpointer, Gpu, Arc<SsdDevice>) {
        let gpu = Gpu::new(
            GpuConfig::fast_for_tests(),
            TrainingState::synthetic(ByteSize::from_bytes(state), 3),
        );
        let cap = CheckpointStore::required_capacity(gpu.state_size(), 2) + ByteSize::from_kb(1);
        let ssd = Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let dev: Arc<dyn PersistentDevice> = ssd.clone();
        let ckpt = TraditionalCheckpointer::new(dev, gpu.state_size()).unwrap();
        (ckpt, gpu, ssd)
    }

    #[test]
    fn checkpoint_is_immediately_durable() {
        let (ckpt, gpu, ssd) = setup(300);
        gpu.update();
        ckpt.checkpoint(&gpu, 1);
        // No drain needed: crash right away and recover.
        ssd.crash_now();
        ssd.recover();
        let rec = recover(ssd).unwrap();
        assert_eq!(rec.iteration, 1);
        let layout = gpu.with_weights(|s| s.layout());
        verify_against_state(&rec, &layout).unwrap();
    }

    #[test]
    fn alternating_slots_keep_previous_valid() {
        let (ckpt, gpu, _ssd) = setup(200);
        for iter in 1..=6 {
            gpu.update();
            ckpt.checkpoint(&gpu, iter);
            assert_eq!(ckpt.last_committed().unwrap().iteration, iter);
        }
        assert_eq!(
            ckpt.store().latest_committed(&ckpt.ns).unwrap().iteration,
            6
        );
        assert_eq!(ckpt.store().free_slot_count(&ckpt.ns), 1);
    }

    #[test]
    fn telemetry_traces_inline_lifecycle() {
        use pccheck_telemetry::{EventKind, Phase};

        let (ckpt, gpu, _ssd) = setup(300);
        let telemetry = Telemetry::enabled();
        let ckpt = ckpt.with_telemetry(telemetry.clone());
        for iter in 1..=3 {
            gpu.update();
            ckpt.checkpoint(&gpu, iter);
        }
        let snap = telemetry.snapshot().expect("telemetry enabled");
        assert_eq!(snap.counters.requested, 3);
        assert_eq!(snap.counters.committed, 3);
        for phase in [Phase::GpuCopy, Phase::Persist, Phase::Commit] {
            assert_eq!(snap.phase(phase).count, 3, "{}", phase.name());
        }
        // Fully synchronous: every span emits a stall covering the call.
        let stalls = telemetry
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Stall { .. }))
            .count();
        assert_eq!(stalls, 3);
        assert_eq!(snap.stall.count, 3);
    }

    #[test]
    fn name_and_drain_are_trivial() {
        let (ckpt, _gpu, _ssd) = setup(100);
        assert_eq!(ckpt.name(), "traditional");
        ckpt.drain();
        assert!(ckpt.last_committed().is_none());
    }
}
