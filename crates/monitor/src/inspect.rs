//! Enumerating and loading checkpoints from a store.

use std::sync::Arc;

use pccheck::{decode_frame, CheckMeta, CheckpointStore, Namespace, PccheckError};
use pccheck_gpu::tensor::StateLayout;
use pccheck_gpu::TrainingState;

/// Read-only access to one tenant's checkpoint history.
#[derive(Debug, Clone)]
pub struct CheckpointInspector {
    store: Arc<CheckpointStore>,
    ns: Arc<Namespace>,
}

impl CheckpointInspector {
    /// Creates an inspector over `ns`, a namespace of `store`.
    pub fn new(store: Arc<CheckpointStore>, ns: Arc<Namespace>) -> Self {
        CheckpointInspector { store, ns }
    }

    /// All complete checkpoints currently in the namespace, oldest first.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn history(&self) -> Result<Vec<CheckMeta>, PccheckError> {
        self.store.history(&self.ns)
    }

    /// The latest committed checkpoint.
    pub fn latest(&self) -> Option<CheckMeta> {
        self.store.latest_committed(&self.ns)
    }

    /// Loads a checkpoint's serialized state: its frame materialized and
    /// verified the way recovery does it, dedup references resolved
    /// against the rest of the history.
    ///
    /// # Errors
    ///
    /// Returns [`PccheckError::CorruptCheckpoint`] if the frame does not
    /// verify — a slot recycled since `meta` was listed, say; propagates
    /// device errors from the history listing.
    pub fn load_payload(&self, meta: &CheckMeta) -> Result<Vec<u8>, PccheckError> {
        let homes = self.history()?;
        let read = |slot, at, buf: &mut [u8]| {
            let off = self.store.slot_payload_offset(slot) + at;
            self.store.device().read_durable_at(off, buf).is_ok()
        };
        decode_frame(meta, &homes, &read, 1)
            .map(|(state, _)| state)
            .ok_or(PccheckError::CorruptCheckpoint {
                counter: meta.counter,
            })
    }

    /// Loads and reconstructs a checkpoint as a verified
    /// [`TrainingState`].
    ///
    /// # Errors
    ///
    /// As for [`load_payload`](Self::load_payload).
    pub fn load_state(
        &self,
        meta: &CheckMeta,
        layout: &StateLayout,
    ) -> Result<TrainingState, PccheckError> {
        let payload = self.load_payload(meta)?;
        Ok(TrainingState::restore(layout, &payload, meta.iteration))
    }

    /// Loads the most recent `n` checkpoints (newest last), skipping any
    /// whose slot was recycled between listing and reading.
    ///
    /// # Errors
    ///
    /// Propagates device errors from the history listing.
    pub fn recent_payloads(&self, n: usize) -> Result<Vec<(CheckMeta, Vec<u8>)>, PccheckError> {
        let history = self.history()?;
        let mut out = Vec::new();
        for meta in history.into_iter().rev().take(n) {
            match self.load_payload(&meta) {
                Ok(payload) => out.push((meta, payload)),
                Err(PccheckError::CorruptCheckpoint { .. }) => continue, // recycled
                Err(e) => return Err(e),
            }
        }
        out.reverse();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pccheck::{PcCheckConfig, PcCheckEngine};
    use pccheck_device::{DeviceConfig, PersistentDevice, SsdDevice};
    use pccheck_gpu::{Checkpointer, Gpu, GpuConfig};
    use pccheck_util::ByteSize;

    fn training_run(n_slots: u32, checkpoints: u64) -> (CheckpointInspector, Gpu) {
        let gpu = Gpu::new(
            GpuConfig::fast_for_tests(),
            TrainingState::synthetic(ByteSize::from_bytes(600), 5),
        );
        let cap =
            CheckpointStore::required_capacity(gpu.state_size(), n_slots) + ByteSize::from_kb(1);
        let device: Arc<dyn PersistentDevice> =
            Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let engine = PcCheckEngine::new(
            PcCheckConfig::builder()
                .max_concurrent(n_slots as usize - 1)
                .writer_threads(2)
                .chunk_size(ByteSize::from_bytes(128))
                .dram_chunks(8)
                .build()
                .expect("valid"),
            device,
            gpu.state_size(),
        )
        .expect("engine");
        for iter in 1..=checkpoints {
            gpu.update();
            engine.checkpoint(&gpu, iter);
            engine.drain();
        }
        let inspector =
            CheckpointInspector::new(Arc::clone(engine.store()), Arc::clone(engine.namespace()));
        (inspector, gpu)
    }

    #[test]
    fn history_reflects_recent_checkpoints() {
        let (inspector, _gpu) = training_run(4, 3);
        let hist = inspector.history().unwrap();
        assert_eq!(hist.len(), 3);
        assert_eq!(inspector.latest().unwrap().iteration, 3);
    }

    #[test]
    fn load_state_verifies_digest() {
        let (inspector, gpu) = training_run(4, 3);
        let layout = gpu.with_weights(|s| s.layout());
        let latest = inspector.latest().unwrap();
        let state = inspector.load_state(&latest, &layout).unwrap();
        assert_eq!(state.digest(), gpu.digest());
        assert_eq!(state.step_count(), 3);
    }

    #[test]
    fn recent_payloads_returns_newest_last() {
        let (inspector, _gpu) = training_run(4, 3);
        let recent = inspector.recent_payloads(2).unwrap();
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[0].0.iteration, 2);
        assert_eq!(recent[1].0.iteration, 3);
    }

    #[test]
    fn history_is_bounded_by_slot_count() {
        // A 3-slot store (N=2) can hold at most 3 complete checkpoints.
        let (inspector, _gpu) = training_run(3, 10);
        let hist = inspector.history().unwrap();
        assert!(hist.len() <= 3, "got {}", hist.len());
        assert_eq!(hist.last().unwrap().iteration, 10);
    }
}
