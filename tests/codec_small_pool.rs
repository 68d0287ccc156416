//! The compressed-vs-raw bit-identity cross-validation of
//! `codec_cross_validation.rs`, over staging pools smaller than one
//! snapshot. A codec frame streams — each chunk is classified, packed and
//! written while the next is staged — so the pool's size changes neither
//! the frames nor what recovers from them.

use std::sync::Arc;

use pccheck::{
    recover, CheckpointStore, FrameTable, PcCheckConfig, PcCheckEngine, PersistPipeline,
    PipelineCtx, RecoveredCheckpoint, StoreGeometry, DEFAULT_JOB,
};
use pccheck_device::{DeviceConfig, HostBufferPool, PersistentDevice, SsdDevice};
use pccheck_gpu::{Checkpointer, Gpu, GpuConfig, SnapshotSource, TrainingState};
use pccheck_harness::forensics_run::{commit_checkpoint, sparse_payload};
use pccheck_telemetry::{SpanId, Telemetry};
use pccheck_util::ByteSize;

const STATE: u64 = 64 * 1024;
const CHUNK: u64 = 4 * 1024;
const CHECKPOINTS: u64 = 6;

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

/// A tiled baseline with a sparse mutation per step.
fn logical_states() -> Vec<Vec<u8>> {
    let tile: Vec<u8> = (0..32u32).map(|i| (i as u8).wrapping_mul(37)).collect();
    let base: Vec<u8> = (0..STATE as usize).map(|i| tile[i % tile.len()]).collect();
    let mut states = vec![base];
    for step in 1..CHECKPOINTS {
        let prev = states.last().expect("nonempty");
        let dirty = [(step * 1024 % (STATE / 2), STATE / 16)];
        states.push(sparse_payload(prev, step, &dirty));
    }
    states
}

fn fresh_store() -> (Arc<dyn PersistentDevice>, Arc<CheckpointStore>) {
    let slot = FrameTable::slot_size_for(ByteSize::from_bytes(STATE), ByteSize::from_bytes(CHUNK));
    let cap = CheckpointStore::required_capacity(slot, 4) + ByteSize::from_kb(4);
    let device: Arc<dyn PersistentDevice> =
        Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
    let geometry = StoreGeometry::single(slot, 4);
    let store = Arc::new(CheckpointStore::format(Arc::clone(&device), geometry).expect("format"));
    (device, store)
}

/// Replays `states` as codec frames staged through `pool_chunks` chunks,
/// or, with `None`, as all-`Raw` commits. Returns the device, the packed
/// checkpoints and every head frame's bytes.
fn replay(
    states: &[Vec<u8>],
    pool_chunks: Option<usize>,
) -> (Arc<dyn PersistentDevice>, u64, Vec<Vec<u8>>) {
    let (device, store) = fresh_store();
    let ns = store.namespace(DEFAULT_JOB).expect("single-tenant store");
    let (mut framed, mut frames) = (0, Vec::new());
    let pipeline = pool_chunks.map(|chunks| {
        let pool = HostBufferPool::new(ByteSize::from_bytes(CHUNK), chunks);
        PersistPipeline::new(Arc::clone(&store), pool).with_writers(2)
    });
    let telemetry = Telemetry::disabled();
    let ctx = PipelineCtx {
        telemetry: &telemetry,
        span: SpanId::NONE,
    };
    for (i, data) in states.iter().enumerate() {
        let iteration = i as u64 + 1;
        match &pipeline {
            Some(pipeline) => {
                let src = HostPayload {
                    data: data.clone(),
                    step: iteration,
                };
                let (_, copied) = pipeline
                    .checkpoint_framed(ctx, &ns, &src, iteration, true)
                    .expect("checkpoint commits");
                framed += u64::from(copied.frame.saved_bytes > 0);
            }
            None => {
                commit_checkpoint(&store, DEFAULT_JOB, iteration, data).expect("commits");
            }
        }
        let head = store.latest_committed(&ns).expect("head");
        frames.push(store.read_checkpoint(&head).expect("head frame"));
    }
    (device, framed, frames)
}

#[test]
fn framed_stores_on_pools_smaller_than_a_snapshot_recover_bit_identical_to_raw() {
    let states = logical_states();
    let (raw_dev, raw_framed, _) = replay(&states, None);
    assert_eq!(raw_framed, 0);
    let raw = recover(raw_dev).expect("raw store recovers");
    let whole = (STATE / CHUNK) as usize;
    let (_, _, whole_frames) = replay(&states, Some(whole));
    for pool_chunks in [1, 3, whole / 2] {
        let (device, framed, frames) = replay(&states, Some(pool_chunks));
        assert_eq!(
            framed, CHECKPOINTS,
            "pool {pool_chunks}: every commit packs"
        );
        assert_eq!(
            frames, whole_frames,
            "pool {pool_chunks}: the frames a whole pool writes"
        );
        let rec = recover(device).expect("framed store recovers");
        assert_eq!((rec.iteration, &rec.payload), (raw.iteration, &raw.payload));
        assert_eq!(rec.payload, *states.last().expect("nonempty"));
    }
}

/// The engine runs' raw twin: the same training run, each checkpoint
/// committed as its all-`Raw` frame through the store's own calls, with no
/// pipeline.
fn raw_twin() -> RecoveredCheckpoint {
    let gpu = Gpu::new(
        GpuConfig::fast_for_tests(),
        TrainingState::compressible(ByteSize::from_bytes(STATE), 11, 32),
    );
    let (device, store) = fresh_store();
    for iter in 1..=8u64 {
        gpu.update();
        if iter % 2 == 0 {
            let mut data = vec![0; STATE as usize];
            gpu.lock_weights_shared().copy_range_to_host(0, &mut data);
            commit_checkpoint(&store, DEFAULT_JOB, iter, &data).expect("commits");
        }
    }
    recover(device).expect("raw store recovers")
}

#[test]
fn codec_engines_on_pools_smaller_than_a_snapshot_recover_bit_identical_to_raw() {
    let run = |dram_chunks: usize| {
        let telemetry = Telemetry::enabled();
        let state = ByteSize::from_kb(64);
        let cap = CheckpointStore::required_capacity(state, 3) + ByteSize::from_kb(4);
        let device: Arc<dyn PersistentDevice> =
            Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let gpu = Gpu::new(
            GpuConfig::fast_for_tests(),
            TrainingState::compressible(state, 11, 32),
        );
        let config = PcCheckConfig::builder()
            .max_concurrent(2)
            .writer_threads(1)
            .chunk_size(ByteSize::from_kb(16))
            .dram_chunks(dram_chunks)
            .codec(true)
            .build()
            .expect("valid config");
        let engine = PcCheckEngine::new(config, Arc::clone(&device), gpu.state_size())
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
    let raw = raw_twin();
    // A 64 KiB state is four 16 KiB chunks.
    for dram_chunks in [1, 3] {
        let (with_codec, saved_on) = run(dram_chunks);
        assert!(saved_on > 0, "{dram_chunks} chunks: the codec saves bytes");
        assert_eq!(with_codec.iteration, raw.iteration);
        assert_eq!(with_codec.payload, raw.payload, "{dram_chunks} chunks");
    }
}
