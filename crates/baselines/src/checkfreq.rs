//! CheckFreq-style pipelined checkpointing (Figure 4).
//!
//! CheckFreq splits a checkpoint into a *snapshot* phase (copy weights to
//! DRAM) and a *persist* phase (flush to storage), and overlaps both with
//! training. Its limitation — the one PCcheck removes — is that only one
//! checkpoint may be in flight: if the next boundary arrives while the
//! previous persist is still running, the training thread stalls inside
//! `checkpoint()` until it completes.

use std::sync::Arc;
use std::thread::JoinHandle;

use pccheck_util::sync::Mutex;

use pccheck::store::CheckpointStore;
use pccheck::{CopyMode, PccheckError, PipelineCtx};
use pccheck_device::PersistentDevice;
use pccheck_gpu::{CheckpointOutcome, Checkpointer, Gpu};
use pccheck_telemetry::{Phase, Telemetry};
use pccheck_util::ByteSize;

use crate::TwoSlots;

/// The one-checkpoint-at-a-time asynchronous baseline.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use pccheck_baselines::CheckFreqCheckpointer;
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
/// let ckpt = CheckFreqCheckpointer::new(device, gpu.state_size())?;
/// gpu.update();
/// ckpt.checkpoint(&gpu, 1); // returns once the snapshot is in DRAM
/// ckpt.drain();             // waits for the persist
/// assert_eq!(ckpt.last_committed().unwrap().iteration, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CheckFreqCheckpointer {
    storage: TwoSlots,
    /// The single in-flight persist, if any. Next checkpoint joins it.
    in_flight: Mutex<Option<JoinHandle<()>>>,
    last: Arc<Mutex<Option<CheckpointOutcome>>>,
    telemetry: Telemetry,
}

impl CheckFreqCheckpointer {
    /// Creates the checkpointer with a two-slot store on `device`; its
    /// staging pool holds one snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`PccheckError::InvalidConfig`] if the device cannot hold two
    /// checkpoints.
    pub fn new(
        device: Arc<dyn PersistentDevice>,
        checkpoint_size: ByteSize,
    ) -> Result<Self, PccheckError> {
        Ok(CheckFreqCheckpointer {
            storage: TwoSlots::format(device, checkpoint_size, CopyMode::Staged)?,
            in_flight: Mutex::new(None),
            last: Arc::new(Mutex::new(None)),
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

impl Checkpointer for CheckFreqCheckpointer {
    fn checkpoint(&self, gpu: &Gpu, iteration: u64) {
        let stall_start = self.telemetry.now_nanos();
        let span = self
            .telemetry
            .span_requested(self.name(), iteration, gpu.state_size().as_u64());
        // THE CheckFreq bottleneck: wait for the previous checkpoint's
        // persist phase before starting the next snapshot.
        let mut slot = self.in_flight.lock();
        if let Some(prev) = slot.take() {
            prev.join().expect("persist thread panicked");
        }
        self.telemetry
            .phase_done(span, Phase::TicketWait, stall_start);
        self.telemetry
            .stall(span, self.telemetry.now_nanos().saturating_sub(stall_start));
        self.telemetry.span_queued(span);

        // Snapshot, then persist, on the one background thread: CheckFreq
        // overlaps both with the *next iteration's compute*, which the
        // owned guard provides — training's T phase proceeds, U waits until
        // the copy has staged the snapshot and hands the guard back.
        let guard = gpu.lock_weights_shared_owned();
        let (storage, last) = (self.storage.clone(), Arc::clone(&self.last));
        let telemetry = self.telemetry.clone();
        let handle = std::thread::spawn(move || {
            let ctx = PipelineCtx {
                telemetry: &telemetry,
                span,
            };
            storage.checkpoint(ctx, guard, iteration, &last);
        });
        *slot = Some(handle);
    }

    fn drain(&self) {
        if let Some(prev) = self.in_flight.lock().take() {
            prev.join().expect("persist thread panicked");
        }
    }

    fn last_committed(&self) -> Option<CheckpointOutcome> {
        *self.last.lock()
    }

    fn name(&self) -> &str {
        "checkfreq"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pccheck::recovery::{recover, verify_against_state};
    use pccheck_device::{DeviceConfig, SsdDevice};
    use pccheck_gpu::{GpuConfig, TrainingState};
    use pccheck_util::Bandwidth;

    fn setup(
        state: u64,
        throttled_mbps: Option<f64>,
    ) -> (CheckFreqCheckpointer, Gpu, Arc<SsdDevice>) {
        let gpu = Gpu::new(
            GpuConfig::fast_for_tests(),
            TrainingState::synthetic(ByteSize::from_bytes(state), 5),
        );
        let cap = CheckpointStore::required_capacity(gpu.state_size(), 2) + ByteSize::from_kb(1);
        let cfg = match throttled_mbps {
            Some(mbps) => DeviceConfig {
                capacity: cap,
                write_bandwidth: Bandwidth::from_mb_per_sec(mbps),
                throttled: true,
            },
            None => DeviceConfig::fast_for_tests(cap),
        };
        let ssd = Arc::new(SsdDevice::new(cfg));
        let dev: Arc<dyn PersistentDevice> = ssd.clone();
        let ckpt = CheckFreqCheckpointer::new(dev, gpu.state_size()).unwrap();
        (ckpt, gpu, ssd)
    }

    #[test]
    fn checkpoint_then_drain_commits() {
        let (ckpt, gpu, _ssd) = setup(300, None);
        for iter in 1..=5 {
            gpu.update();
            ckpt.checkpoint(&gpu, iter);
        }
        ckpt.drain();
        assert_eq!(ckpt.last_committed().unwrap().iteration, 5);
    }

    #[test]
    fn recovery_after_crash_returns_latest_drained() {
        let (ckpt, gpu, ssd) = setup(300, None);
        gpu.update();
        ckpt.checkpoint(&gpu, 1);
        gpu.update();
        ckpt.checkpoint(&gpu, 2);
        ckpt.drain();
        ssd.crash_now();
        ssd.recover();
        let rec = recover(ssd).unwrap();
        assert_eq!(rec.iteration, 2);
        let layout = gpu.with_weights(|s| s.layout());
        verify_against_state(&rec, &layout).unwrap();
    }

    #[test]
    fn next_checkpoint_stalls_behind_previous_persist() {
        // Slow device: a ~1 MB persist at 10 MB/s takes ~0.1 s. Order, not
        // time: checkpoint(2) returns only once persist #1 has committed,
        // where a strategy that did not wait would find nothing committed.
        let (ckpt, gpu, _ssd) = setup(1_000_000, Some(10.0));
        gpu.update();
        ckpt.checkpoint(&gpu, 1); // returns fast (snapshot only)
        gpu.update();
        ckpt.checkpoint(&gpu, 2); // must wait for persist #1
        let committed = ckpt.last_committed().map(|o| o.iteration);
        assert_eq!(committed, Some(1), "checkpoint(2) did not wait");
        ckpt.drain();
        assert_eq!(ckpt.last_committed().unwrap().iteration, 2);
    }

    #[test]
    fn snapshot_blocks_only_the_update_not_the_call() {
        let (ckpt, gpu, _ssd) = setup(300, None);
        gpu.update();
        ckpt.checkpoint(&gpu, 1);
        // With a fast device this completes promptly; updating immediately
        // after is safe (guard ordering is respected by the RwLock).
        gpu.update();
        ckpt.drain();
        assert_eq!(gpu.step_count(), 2);
    }
}
