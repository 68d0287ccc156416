//! Recovery: loading the latest committed checkpoint after a failure, and
//! the analytical recovery-time models of §4.2.
//!
//! The recovery path itself is instrumented ([`recover_instrumented`]):
//! the store-open/slot-scan, payload-load, and digest-verify steps each
//! land as [`Phase`](pccheck_telemetry::Phase) spans on the telemetry timeline and as a
//! [`RecoveryTrace`] of measured nanoseconds, so recovery time is a
//! measured first-class figure rather than only a model.

use std::sync::Arc;

use pccheck_device::PersistentDevice;
use pccheck_gpu::Gpu;
use pccheck_telemetry::Telemetry;
use pccheck_util::SimDuration;

use crate::error::PccheckError;
use crate::restore::RestoreOptions;

/// A checkpoint loaded back from persistent storage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredCheckpoint {
    /// The iteration the checkpoint captured.
    pub iteration: u64,
    /// The checkpoint's global counter.
    pub counter: u64,
    /// The serialized training state its frame materialized.
    pub payload: Vec<u8>,
    /// The state digest its frame carries, which `payload` verified
    /// against.
    pub digest: u64,
}

impl RecoveredCheckpoint {
    /// Restores a GPU's training state from this checkpoint.
    ///
    /// # Panics
    ///
    /// Panics if the payload size does not match the GPU's state layout.
    pub fn restore_into(&self, gpu: &Gpu) {
        gpu.restore(&self.payload, self.iteration);
    }
}

/// Timing of one recovery. `scan_nanos` and `load_nanos` are disjoint
/// wall-clock windows inside `total_nanos`; `verify_nanos` is *compute*
/// time spent inside the load windows — verification overlaps the reads,
/// and with `r` readers digesting at once it may exceed the wall-clock it
/// ran in.
///
/// Produced by [`recover_instrumented`]; the scan and load windows are
/// also recorded as `RecoveryScan` / `RecoveryLoad` / `RecoveryVerify`
/// [`Phase`](pccheck_telemetry::Phase) spans when telemetry is enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryTrace {
    /// Store open + `CHECK_ADDR`/slot-meta scan time, nanoseconds.
    pub scan_nanos: u64,
    /// Payload fetch time (read, decode, verify) across all candidates
    /// tried, nanoseconds.
    pub load_nanos: u64,
    /// Digest compute time across all candidates tried, summed over the
    /// reader threads, nanoseconds.
    pub verify_nanos: u64,
    /// Total recovery time, nanoseconds.
    pub total_nanos: u64,
    /// Committed candidates considered (newest first).
    pub candidates_scanned: u64,
    /// Candidates rejected before one verified (0 = the newest committed
    /// checkpoint verified on the first try).
    pub fallbacks: u64,
    /// Base links followed to reconstruct the recovered state: 1 when the
    /// recovered frame's `DedupBase` records resolved out of its pinned
    /// base, 0 when the checkpoint was self-contained.
    pub chain_links: u64,
    /// The recovered checkpoint's global counter.
    pub counter: u64,
    /// The recovered checkpoint's iteration.
    pub iteration: u64,
}

/// Loads and verifies the latest committed checkpoint of the default
/// tenant from `device` — the tenant of a single-tenant store. Another
/// tenant of a shared store recovers through
/// [`crate::restore::recover_instrumented_with`] with
/// [`RestoreOptions::job`] set, and only its own namespace's slots are
/// candidates: a torn newest checkpoint falls back within that job's own
/// history and never onto another tenant's state.
///
/// The persistent iterator of §4.2, rebuilt on the parallel restore
/// executor ([`crate::restore`]): candidates are verified newest-first,
/// each one's frame compiles to a plan of independent jobs that fan out
/// across [`RestoreOptions::default`]'s readers, and verification overlaps
/// the reads (every reader digests the blocks it landed; the candidate is
/// accepted on the final fold). A codec frame's `DedupBase` references
/// resolve to ranges of the pinned homes in one hop, and every chunk's
/// content address is re-verified on the bytes that land. If the newest committed slot fails verification — digest
/// mismatch, missing base, *or a device read fault* — older intact
/// committed slots are tried newest-first: the paper keeps `N+1` slots
/// precisely so a torn newest checkpoint degrades to the previous one
/// instead of to data loss.
///
/// # Errors
///
/// * [`PccheckError::NoCheckpoint`] if the device holds no committed
///   checkpoint.
/// * [`PccheckError::CorruptCheckpoint`] if **no** slot verifies.
/// * [`PccheckError::InvalidConfig`] if the device holds no PCcheck store,
///   or a store without a default namespace.
pub fn recover(device: Arc<dyn PersistentDevice>) -> Result<RecoveredCheckpoint, PccheckError> {
    recover_instrumented(device, &Telemetry::disabled()).map(|(r, _)| r)
}

/// [`recover`] with recovery-path instrumentation: phase spans on
/// `telemetry` (scan / load / verify plus the restore pipeline's
/// read/verify/upload stages), a [`RecoveryTrace`] of measured
/// nanoseconds, and `RecoveryStart`/`RecoveryDone` records on the store's
/// persistent flight ring when one is present.
///
/// Reader parallelism comes from [`RestoreOptions::default`]; use
/// [`crate::restore::recover_instrumented_with`] to choose it explicitly.
///
/// # Errors
///
/// Same as [`recover`].
pub fn recover_instrumented(
    device: Arc<dyn PersistentDevice>,
    telemetry: &Telemetry,
) -> Result<(RecoveredCheckpoint, RecoveryTrace), PccheckError> {
    crate::restore::recover_instrumented_with(device, telemetry, RestoreOptions::default())
}

/// Verifies a recovered payload against a digest computed by
/// [`pccheck_gpu::TrainingState::digest`] over the reconstructed state.
///
/// # Errors
///
/// Returns [`PccheckError::CorruptCheckpoint`] on mismatch.
pub fn verify_against_state(
    recovered: &RecoveredCheckpoint,
    layout: &pccheck_gpu::tensor::StateLayout,
) -> Result<(), PccheckError> {
    let restored =
        pccheck_gpu::TrainingState::restore(layout, &recovered.payload, recovered.iteration);
    if restored.digest().0 != recovered.digest {
        return Err(PccheckError::CorruptCheckpoint {
            counter: recovered.counter,
        });
    }
    Ok(())
}

/// The checkpointing strategies whose recovery behavior §4.2 models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// PCcheck with `N` concurrent checkpoints.
    PcCheck {
        /// Number of concurrent checkpoints.
        n: usize,
    },
    /// CheckFreq: one asynchronous checkpoint at a time.
    CheckFreq,
    /// Gemini: one asynchronous (remote-DRAM) checkpoint at a time.
    Gemini,
    /// GPM: training stalls while each checkpoint persists.
    Gpm,
}

/// Analytical recovery-time model (§4.2, equation (4) and the baselines'
/// bounds).
///
/// Inputs: iteration time `t`, checkpoint interval `f`, checkpoint write
/// time `Tw`, and checkpoint load time `l`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryModel {
    /// Per-iteration training time `t`.
    pub iter_time: SimDuration,
    /// Checkpoint interval in iterations `f`.
    pub interval: u64,
    /// Time to write one checkpoint end-to-end, `Tw`.
    pub write_time: SimDuration,
    /// Time to load a checkpoint back to the GPU, `l`.
    pub load_time: SimDuration,
}

impl RecoveryModel {
    /// Worst-case recovery time for `strategy`.
    ///
    /// * PCcheck: `l + f·t + t·min(N·f, Tw/t)` (eq. 4),
    /// * CheckFreq / Gemini: `l + 2·f·t`,
    /// * GPM: `l + f·t`.
    pub fn worst_case(&self, strategy: Strategy) -> SimDuration {
        let ft = self.iter_time * self.interval;
        match strategy {
            Strategy::PcCheck { n } => {
                let nf_iters = (n as u64) * self.interval;
                let tw_iters = self.write_time.as_secs_f64() / self.iter_time.as_secs_f64();
                let lost_iters = (nf_iters as f64).min(tw_iters);
                self.load_time + ft + self.iter_time.mul_f64(lost_iters)
            }
            Strategy::CheckFreq | Strategy::Gemini => self.load_time + ft * 2,
            Strategy::Gpm => self.load_time + ft,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pccheck_device::{DeviceConfig, SsdDevice};
    use pccheck_gpu::{GpuConfig, StateDigest, TrainingState};
    use pccheck_telemetry::Phase;
    use pccheck_util::ByteSize;

    use crate::codec::{raw_frame, FrameTable};
    use crate::config::PcCheckConfig;
    use crate::engine::PcCheckEngine;
    use crate::layout::StoreGeometry;
    use crate::restore::recover_instrumented_with;
    use crate::store::{CheckpointStore, JobId, Namespace, DEFAULT_JOB};
    use pccheck_gpu::Checkpointer;

    /// Slots that hold a `state`-byte checkpoint as one all-Raw record.
    fn slot_for(state: u64) -> ByteSize {
        let state = ByteSize::from_bytes(state);
        FrameTable::slot_size_for(state, state)
    }

    fn single(dev: Arc<dyn PersistentDevice>, state: u64, slots: u32) -> CheckpointStore {
        CheckpointStore::format(dev, StoreGeometry::single(slot_for(state), slots)).unwrap()
    }

    /// Commits `payload` as iteration `iter` of `ns`, below the pipeline:
    /// its all-Raw frame, written, persisted and committed.
    fn commit_raw(st: &CheckpointStore, ns: &Arc<Namespace>, iter: u64, payload: &[u8]) {
        let lease = st.begin_checkpoint(ns);
        let full_digest = StateDigest::of_payload(payload, iter).0;
        let (frame, digest) = raw_frame(lease.counter, full_digest, payload, payload.len());
        st.write_payload(&lease, 0, &frame).unwrap();
        st.persist_payload(&lease, 0, frame.len() as u64).unwrap();
        st.commit(lease, iter, frame.len() as u64, digest).unwrap();
    }

    fn recover_as(
        dev: Arc<dyn PersistentDevice>,
        job: JobId,
    ) -> Result<RecoveredCheckpoint, PccheckError> {
        let options = RestoreOptions {
            job: Some(job),
            ..RestoreOptions::default()
        };
        recover_instrumented_with(dev, &Telemetry::disabled(), options).map(|(r, _)| r)
    }

    #[test]
    fn end_to_end_checkpoint_recover_resume() {
        let state = TrainingState::synthetic(ByteSize::from_bytes(300), 11);
        let gpu = Gpu::new(GpuConfig::fast_for_tests(), state);
        let cap = CheckpointStore::required_capacity(gpu.state_size(), 3) + ByteSize::from_kb(1);
        let ssd = Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let device: Arc<dyn PersistentDevice> = ssd.clone();
        let engine = PcCheckEngine::new(
            PcCheckConfig::builder()
                .max_concurrent(2)
                .writer_threads(2)
                .chunk_size(ByteSize::from_bytes(64))
                .dram_chunks(6)
                .build()
                .unwrap(),
            device,
            gpu.state_size(),
        )
        .unwrap();

        for iter in 1..=5 {
            gpu.update();
            engine.checkpoint(&gpu, iter);
        }
        engine.drain();
        let digest_at_5 = gpu.digest();

        // Failure: GPU state lost, device crashes and is re-attached.
        ssd.crash_now();
        ssd.recover();
        let recovered = recover(ssd).unwrap();
        assert_eq!(recovered.iteration, 5);
        let layout = gpu.with_weights(|s| s.layout());
        verify_against_state(&recovered, &layout).unwrap();

        // Resume on a fresh GPU.
        let fresh = Gpu::new(
            GpuConfig::fast_for_tests(),
            TrainingState::synthetic(ByteSize::from_bytes(300), 999),
        );
        recovered.restore_into(&fresh);
        assert_eq!(fresh.digest(), digest_at_5);
        assert_eq!(fresh.step_count(), 5);
    }

    #[test]
    fn recover_without_any_commit_errors() {
        let cap = CheckpointStore::required_capacity(slot_for(64), 2);
        let dev: Arc<dyn PersistentDevice> =
            Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        single(Arc::clone(&dev), 64, 2);
        assert_eq!(recover(dev), Err(PccheckError::NoCheckpoint));
    }

    /// Commits `n` checkpoints of distinct payloads and returns the store.
    fn committed_store(dev: Arc<dyn PersistentDevice>, n: u64) -> CheckpointStore {
        let st = single(dev, 64, 3);
        let ns = st.namespace(DEFAULT_JOB).unwrap();
        for i in 1..=n {
            commit_raw(&st, &ns, i, format!("payload-{i}").as_bytes());
        }
        st
    }

    #[test]
    fn corrupt_newest_slot_falls_back_to_older_committed_slot() {
        let cap =
            CheckpointStore::required_capacity(ByteSize::from_bytes(64), 3) + ByteSize::from_kb(1);
        let dev: Arc<dyn PersistentDevice> =
            Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let st = committed_store(Arc::clone(&dev), 2);
        // Corrupt the newest checkpoint's *payload* (its meta record stays
        // valid), as a misdirected write or media error would.
        let newest = st
            .latest_committed(&st.namespace(DEFAULT_JOB).unwrap())
            .unwrap();
        assert_eq!(newest.iteration, 2);
        let off = st.slot_payload_offset(newest.slot);
        dev.write_at(off, b"XX").unwrap();
        dev.persist(off, 2).unwrap();
        drop(st);
        dev.crash_now();
        dev.recover();

        let telemetry = Telemetry::enabled();
        let (rec, trace) = recover_instrumented(Arc::clone(&dev), &telemetry).unwrap();
        assert_eq!(rec.iteration, 1, "fell back to the intact older slot");
        assert_eq!(rec.payload, b"payload-1");
        assert_eq!(trace.fallbacks, 1);
        assert_eq!(trace.candidates_scanned, 2);
        assert_eq!(trace.counter, rec.counter);
        // Scan and load are disjoint wall-clock windows; verification is
        // compute inside load, for the rejected candidate too.
        assert!(trace.total_nanos >= trace.scan_nanos + trace.load_nanos);
        assert!(trace.verify_nanos > 0);
        // The recovery phases landed on the telemetry timeline.
        let snap = telemetry.snapshot().unwrap();
        assert!(snap.phase(Phase::RecoveryScan).count >= 1);
        assert!(snap.phase(Phase::RecoveryLoad).count >= 2);
        assert!(snap.phase(Phase::RecoveryVerify).count >= 2);
    }

    #[test]
    fn recovery_never_crosses_namespaces() {
        // Two tenants in one shared store. Job 1 commits iters 1..=2,
        // job 2 commits iter 7 (globally newest). Then job 1's newest
        // payload is torn.
        let geometry = StoreGeometry {
            max_namespaces: 4,
            ..StoreGeometry::single(slot_for(64), 6)
        };
        let cap = geometry.required_capacity() + ByteSize::from_kb(1);
        let dev: Arc<dyn PersistentDevice> =
            Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let st = CheckpointStore::format(Arc::clone(&dev), geometry).unwrap();
        let tenants = [
            st.allocate_namespace(1, 3).unwrap(),
            st.allocate_namespace(2, 3).unwrap(),
        ];
        let commit = |job: usize, iter: u64| {
            let payload = format!("job{job}-iter{iter}");
            commit_raw(&st, &tenants[job - 1], iter, payload.as_bytes());
        };
        commit(1, 1);
        commit(1, 2);
        commit(2, 7);
        let newest_job1 = st.latest_committed(&tenants[0]).unwrap();
        let off = st.slot_payload_offset(newest_job1.slot);
        dev.write_at(off, b"XX").unwrap();
        dev.persist(off, 2).unwrap();
        drop(st);

        // Job 1 falls back to its own iter 1 — not to job 2's newer
        // checkpoint, which is a different tenant's state.
        let rec = recover_as(Arc::clone(&dev), 1).unwrap();
        assert_eq!(rec.iteration, 1);
        assert_eq!(rec.payload, b"job1-iter1");
        // Job 2 recovers its own head untouched by job 1's corruption.
        let rec = recover_as(Arc::clone(&dev), 2).unwrap();
        assert_eq!(rec.iteration, 7);
        assert_eq!(rec.payload, b"job2-iter7");
        // Asking for nobody in particular does not hand out whoever
        // committed last: this store has no default tenant, and the error
        // says who it does have. The same goes for a job it never had.
        for asked in [recover(Arc::clone(&dev)), recover_as(dev, 99)] {
            match asked {
                Err(PccheckError::InvalidConfig(why)) => {
                    assert!(why.contains("[1, 2]"), "{why}")
                }
                other => panic!("expected the jobs present, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_single_tenant_store_has_only_the_default_job() {
        let cap =
            CheckpointStore::required_capacity(ByteSize::from_bytes(64), 3) + ByteSize::from_kb(1);
        let dev: Arc<dyn PersistentDevice> =
            Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        committed_store(Arc::clone(&dev), 1);
        assert_eq!(
            recover_as(Arc::clone(&dev), DEFAULT_JOB).unwrap().iteration,
            1
        );
        assert!(matches!(
            recover_as(dev, 1),
            Err(PccheckError::InvalidConfig(_))
        ));
    }

    #[test]
    fn all_slots_corrupt_errors_with_newest_counter() {
        let cap =
            CheckpointStore::required_capacity(ByteSize::from_bytes(64), 3) + ByteSize::from_kb(1);
        let dev: Arc<dyn PersistentDevice> =
            Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let st = committed_store(Arc::clone(&dev), 2);
        for meta in st.history(&st.namespace(DEFAULT_JOB).unwrap()).unwrap() {
            let off = st.slot_payload_offset(meta.slot);
            dev.write_at(off, b"XX").unwrap();
            dev.persist(off, 2).unwrap();
        }
        drop(st);
        assert!(matches!(
            recover(dev),
            Err(PccheckError::CorruptCheckpoint { counter: 2 })
        ));
    }

    #[test]
    fn instrumented_recovery_reports_zero_fallbacks_on_clean_store() {
        let cap =
            CheckpointStore::required_capacity(ByteSize::from_bytes(64), 3) + ByteSize::from_kb(1);
        let dev: Arc<dyn PersistentDevice> =
            Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        committed_store(Arc::clone(&dev), 3);
        let (rec, trace) = recover_instrumented(dev, &Telemetry::disabled()).unwrap();
        assert_eq!(rec.iteration, 3);
        assert_eq!(trace.fallbacks, 0);
        assert_eq!(trace.candidates_scanned, 1);
        assert_eq!(trace.iteration, 3);
    }

    /// Drives `iters` checkpoints of a compressible state through the
    /// framed pipeline (first dense, the rest 10%-sparse, so their clean
    /// chunks reference the base) and returns the device, the store, and
    /// the GPU at its final state.
    fn framed_chain_setup(iters: u64) -> (Arc<SsdDevice>, Arc<CheckpointStore>, Gpu) {
        use crate::pipeline::{CopyMode, PersistPipeline, PipelineCtx};
        use pccheck_device::HostBufferPool;

        let state = TrainingState::compressible(ByteSize::from_bytes(2048), 7, 32);
        let gpu = Gpu::new(GpuConfig::fast_for_tests(), state);
        gpu.update();
        let slot = FrameTable::slot_size_for(gpu.state_size(), ByteSize::from_bytes(256));
        let cap = CheckpointStore::required_capacity(slot, 4) + ByteSize::from_kb(1);
        let ssd = Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let store = Arc::new(
            CheckpointStore::format(
                Arc::clone(&ssd) as Arc<dyn PersistentDevice>,
                StoreGeometry::single(slot, 4),
            )
            .unwrap(),
        );
        let ns = store.namespace(DEFAULT_JOB).unwrap();
        let pipeline = PersistPipeline::new(
            Arc::clone(&store),
            HostBufferPool::new(ByteSize::from_bytes(256), 8),
        )
        .with_writers(2)
        .with_codec(true);
        let telemetry = Telemetry::disabled();
        let ctx = PipelineCtx {
            telemetry: &telemetry,
            span: pccheck_telemetry::SpanId::NONE,
        };
        for iter in 1..=iters {
            if iter > 1 {
                gpu.update_sparse(0.1);
            }
            let guard = gpu.lock_weights_shared_owned();
            pipeline
                .checkpoint_framed(ctx, &ns, &guard, iter, CopyMode::Codec)
                .unwrap();
        }
        (ssd, store, gpu)
    }

    #[test]
    fn recovery_resolves_a_framed_dedup_chain() {
        let (ssd, store, gpu) = framed_chain_setup(2);
        let head = store
            .latest_committed(&store.namespace(DEFAULT_JOB).unwrap())
            .unwrap();
        assert_eq!(head.delta.unwrap().chain_depth, 1);
        let digest_final = gpu.digest();
        drop(store);
        ssd.crash_now();
        ssd.recover();

        let telemetry = Telemetry::enabled();
        let (rec, trace) =
            recover_instrumented(Arc::clone(&ssd) as Arc<dyn PersistentDevice>, &telemetry)
                .unwrap();
        assert_eq!(rec.iteration, 2);
        assert_eq!(trace.chain_links, 1);
        assert_eq!(trace.fallbacks, 0);
        assert!(
            trace.verify_nanos > 0,
            "framed candidates report verify time"
        );
        let fresh = Gpu::new(
            GpuConfig::fast_for_tests(),
            TrainingState::synthetic(ByteSize::from_bytes(2048), 999),
        );
        rec.restore_into(&fresh);
        assert_eq!(fresh.digest(), digest_final, "bit-identical reconstruction");
        assert_eq!(fresh.step_count(), 2);
        let snap = telemetry.snapshot().unwrap();
        assert_eq!(snap.phase(Phase::RecoveryLoad).count, 1);
    }

    #[test]
    fn torn_framed_payload_falls_back_to_its_base() {
        let (ssd, store, _gpu) = framed_chain_setup(2);
        let head = store
            .latest_committed(&store.namespace(DEFAULT_JOB).unwrap())
            .unwrap();
        assert!(head.is_delta());
        // Corrupt the last packed chunk byte of the framed payload; the
        // frame table itself stays intact.
        let off = store.slot_payload_offset(head.slot) + head.payload_len - 1;
        let mut b = [0u8; 1];
        ssd.read_durable_at(off, &mut b).unwrap();
        b[0] ^= 0xFF;
        ssd.write_at(off, &b).unwrap();
        ssd.persist(off, 1).unwrap();
        drop(store);
        ssd.crash_now();
        ssd.recover();

        let (rec, trace) = recover_instrumented(
            Arc::clone(&ssd) as Arc<dyn PersistentDevice>,
            &Telemetry::disabled(),
        )
        .unwrap();
        assert_eq!(rec.iteration, 1, "fell back to the base checkpoint");
        assert_eq!(trace.fallbacks, 1);
        assert_eq!(trace.chain_links, 0);
    }

    fn model() -> RecoveryModel {
        RecoveryModel {
            iter_time: SimDuration::from_secs(2), // OPT-1.3B
            interval: 10,
            write_time: SimDuration::from_secs(37), // 16.2 GB on pd-ssd
            load_time: SimDuration::from_secs(10),
        }
    }

    #[test]
    fn recovery_bounds_match_section_4_2() {
        let m = model();
        // GPM: l + f·t = 10 + 20 = 30.
        assert_eq!(m.worst_case(Strategy::Gpm), SimDuration::from_secs(30));
        // CheckFreq/Gemini: l + 2·f·t = 10 + 40 = 50.
        assert_eq!(
            m.worst_case(Strategy::CheckFreq),
            SimDuration::from_secs(50)
        );
        assert_eq!(m.worst_case(Strategy::Gemini), SimDuration::from_secs(50));
        // PCcheck N=2: min(N·f, Tw/t) = min(20, 18.5) = 18.5 iterations.
        let pc = m.worst_case(Strategy::PcCheck { n: 2 });
        assert!((pc.as_secs_f64() - (10.0 + 20.0 + 37.0)).abs() < 1e-6);
    }

    #[test]
    fn pccheck_lost_work_is_bounded_by_tw_when_small() {
        // When Tw < N·f·t, lost iterations are bounded by Tw/t, not N·f.
        let m = RecoveryModel {
            iter_time: SimDuration::from_secs(1),
            interval: 100,
            write_time: SimDuration::from_secs(5),
            load_time: SimDuration::ZERO,
        };
        // With a zero load time and 1 s iterations, seconds are iterations.
        let lost = m.worst_case(Strategy::PcCheck { n: 4 }).as_secs_f64();
        assert!((lost - 105.0).abs() < 1e-9, "f + Tw/t = 100 + 5");
    }

    #[test]
    fn more_frequent_checkpoints_recover_faster() {
        let mut m = model();
        let slow = m.worst_case(Strategy::PcCheck { n: 2 });
        m.interval = 2;
        let fast = m.worst_case(Strategy::PcCheck { n: 2 });
        assert!(fast < slow);
    }
}
