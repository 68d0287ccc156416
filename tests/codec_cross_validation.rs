//! Cross-validation of the chunk-codec persist path against the codec-off
//! one: a compressed + deduped store must recover **bit-identical** to
//! an all-`Raw` store driven through the same update sequence. The
//! codec changes the physical byte layout only — never the logical
//! state — so every arm pair here ends in an exact payload comparison
//! after cold recovery.

use std::sync::Arc;

use pccheck::{
    recover, CheckpointStore, CopyMode, DeltaPolicy, FrameTable, PcCheckConfig, PcCheckEngine,
    PersistPipeline, PipelineCtx, StoreGeometry, DEFAULT_JOB,
};
use pccheck_device::{DeviceConfig, HostBufferPool, PersistentDevice, SsdDevice};
use pccheck_gpu::{Checkpointer, Gpu, GpuConfig, SnapshotSource, TrainingState};
use pccheck_harness::forensics_run::{commit_checkpoint, sparse_payload};
use pccheck_telemetry::{SpanId, Telemetry};
use pccheck_util::ByteSize;

const STATE: u64 = 64 * 1024;
const CHUNK: u64 = 4 * 1024;
const CHECKPOINTS: u64 = 6;

/// The codec decides per chunk; the chain cap bounds base pinning.
const POLICY: DeltaPolicy = DeltaPolicy { max_chain: 8 };

/// A host-resident payload standing in for GPU weights.
struct HostPayload {
    data: Vec<u8>,
    step: u64,
}

impl SnapshotSource for HostPayload {
    fn size(&self) -> ByteSize {
        ByteSize::from_bytes(self.data.len() as u64)
    }

    fn step_count(&self) -> u64 {
        self.step
    }

    fn copy_range_to_host(&self, offset: u64, dst: &mut [u8]) {
        let o = offset as usize;
        dst.copy_from_slice(&self.data[o..o + dst.len()]);
    }
}

/// The deterministic logical-state sequence both arms replay: a tiled
/// (compressible, self-similar) baseline with a sparse mutation per step.
fn logical_states() -> Vec<Vec<u8>> {
    let tile: Vec<u8> = (0..32u32).map(|i| (i as u8).wrapping_mul(37)).collect();
    let base: Vec<u8> = (0..STATE as usize).map(|i| tile[i % tile.len()]).collect();
    let mut states = vec![base];
    for step in 1..CHECKPOINTS {
        let prev = states.last().expect("nonempty");
        states.push(sparse_payload(
            prev,
            step,
            &[(step * 1024 % (STATE / 2), STATE / 16)],
        ));
    }
    states
}

fn fresh_store(slots: u32) -> (Arc<dyn PersistentDevice>, Arc<CheckpointStore>) {
    let slot = FrameTable::slot_size_for(ByteSize::from_bytes(STATE), ByteSize::from_bytes(CHUNK));
    let cap = CheckpointStore::required_capacity(slot, slots) + ByteSize::from_kb(4);
    let device: Arc<dyn PersistentDevice> =
        Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
    let store = Arc::new(
        CheckpointStore::format(Arc::clone(&device), StoreGeometry::single(slot, slots))
            .expect("format store"),
    );
    (device, store)
}

/// Replays `states` through one arm; the codec arm packs every commit
/// through the pipeline, the raw arm commits all-`Raw` frames through the
/// store. Returns (device, packed checkpoints, physical payload bytes
/// persisted).
fn replay(states: &[Vec<u8>], codec: bool) -> (Arc<dyn PersistentDevice>, u64, u64) {
    let (device, store) = fresh_store(4);
    let ns = store.namespace(DEFAULT_JOB).expect("single-tenant store");
    let mut framed = 0u64;
    let mut physical = 0u64;
    if codec {
        let pipeline = PersistPipeline::new(
            store,
            HostBufferPool::new(ByteSize::from_bytes(CHUNK), (STATE / CHUNK) as usize),
        )
        .with_writers(2);
        let telemetry = Telemetry::disabled();
        let ctx = PipelineCtx {
            telemetry: &telemetry,
            span: SpanId::NONE,
        };
        for (i, data) in states.iter().enumerate() {
            let iteration = i as u64 + 1;
            let src = HostPayload {
                data: data.clone(),
                step: iteration,
            };
            let (_, copied) = pipeline
                .checkpoint_framed(ctx, &ns, &src, iteration, CopyMode::Codec(POLICY))
                .expect("checkpoint commits");
            framed += u64::from(copied.frame.saved_bytes > 0);
            physical += copied.payload_len;
        }
    } else {
        for (i, data) in states.iter().enumerate() {
            commit_checkpoint(&store, DEFAULT_JOB, i as u64 + 1, data)
                .expect("raw checkpoint commits");
            physical += store.latest_committed(&ns).expect("head").payload_len;
        }
    }
    (device, framed, physical)
}

/// The codec arm and the raw arm replay the identical logical sequence;
/// cold recovery must land on the same iteration with byte-identical
/// payloads, while the codec arm actually framed and persisted less.
#[test]
fn framed_store_recovers_bit_identical_to_raw_store() {
    let states = logical_states();
    let (framed_dev, framed, framed_physical) = replay(&states, true);
    let (raw_dev, raw_framed, raw_physical) = replay(&states, false);

    assert_eq!(framed, CHECKPOINTS, "codec arm must pack every commit");
    assert_eq!(raw_framed, 0, "raw arm must never pack");
    assert!(
        framed_physical < raw_physical,
        "codec must persist fewer physical bytes ({framed_physical} vs {raw_physical})"
    );

    let a = recover(framed_dev).expect("framed store recovers");
    let b = recover(raw_dev).expect("raw store recovers");
    assert_eq!(a.iteration, b.iteration);
    assert_eq!(a.iteration, CHECKPOINTS);
    assert_eq!(
        a.payload,
        b.payload,
        "framed recovery must be bit-identical to raw recovery"
    );
    assert_eq!(a.payload, *states.last().expect("nonempty"));
}

/// End-to-end engine arms: a codec-enabled engine and a raw engine
/// drive identically-seeded deterministic training runs; cold recovery
/// must agree bit for bit, and the codec arm must have engaged (nonzero
/// bytes saved in its telemetry).
#[test]
fn codec_engine_recovers_bit_identical_to_raw_engine() {
    let run = |codec: bool| {
        let telemetry = Telemetry::enabled();
        let state = ByteSize::from_kb(64);
        let cap = CheckpointStore::required_capacity(state, 3) + ByteSize::from_kb(4);
        let device: Arc<dyn PersistentDevice> =
            Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let gpu = Gpu::new(
            GpuConfig::fast_for_tests(),
            TrainingState::compressible(state, 11, 32),
        );
        let engine = PcCheckEngine::new(
            PcCheckConfig::builder()
                .max_concurrent(2)
                .writer_threads(1)
                .chunk_size(ByteSize::from_kb(16))
                .dram_chunks(4)
                .codec(codec)
                .build()
                .expect("valid config"),
            Arc::clone(&device),
            gpu.state_size(),
        )
        .expect("engine constructs")
        .with_telemetry(telemetry.clone());
        for iter in 1..=8u64 {
            gpu.update();
            if iter % 2 == 0 {
                engine.checkpoint(&gpu, iter);
            }
        }
        engine.drain();
        drop(engine);
        let saved = telemetry.snapshot().map_or(0, |s| s.codec_bytes_saved);
        (recover(device).expect("engine store recovers"), saved)
    };

    let (with_codec, saved_on) = run(true);
    let (raw, saved_off) = run(false);
    assert!(saved_on > 0, "codec engine must actually save bytes");
    assert_eq!(saved_off, 0, "raw engine must not touch the codec");
    assert_eq!(with_codec.iteration, raw.iteration);
    assert_eq!(
        with_codec.payload, raw.payload,
        "codec and raw engines must recover the same logical state"
    );
}
