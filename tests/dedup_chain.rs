//! Cross-validation of the framed dedup path: the same training run
//! checkpointed as chunk-framed commits (sparse updates persisting their
//! clean chunks as `DedupBase` references into a pinned base) on one
//! store and as plain full checkpoints on another must recover to
//! *bit-identical* state, verified both by direct comparison and by
//! `pccheck_monitor::diff` over the tensor layout.

use std::sync::Arc;

use pccheck::{
    recovery, CheckpointStore, CopyMode, DeltaPolicy, FrameTable, PersistPipeline, PipelineCtx,
    StoreGeometry, DEFAULT_JOB,
};
use pccheck_device::{DeviceConfig, HostBufferPool, PersistentDevice, SsdDevice};
use pccheck_gpu::{Gpu, GpuConfig, TrainingState};
use pccheck_telemetry::{SpanId, Telemetry};
use pccheck_util::ByteSize;

const STATE: u64 = 8 * 1024;
const MAX_CHAIN: u32 = 3;
/// Staging chunk, and so record size.
const CHUNK: u64 = 512;

fn store_on(slots: u32) -> (Arc<SsdDevice>, Arc<CheckpointStore>) {
    let size = FrameTable::slot_size_for(ByteSize::from_bytes(STATE), ByteSize::from_bytes(CHUNK));
    let cap = CheckpointStore::required_capacity(size, slots) + ByteSize::from_kb(4);
    let ssd = Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
    let dev: Arc<dyn PersistentDevice> = ssd.clone();
    let store =
        Arc::new(CheckpointStore::format(dev, StoreGeometry::single(size, slots)).expect("format"));
    (ssd, store)
}

fn pipeline_for(store: &Arc<CheckpointStore>) -> PersistPipeline {
    PersistPipeline::new(
        Arc::clone(store),
        HostBufferPool::new(ByteSize::from_bytes(CHUNK), 16),
    )
    .with_writers(2)
    .with_codec(true)
}

#[test]
fn dedup_chain_restore_is_bit_identical_to_full_checkpoints() {
    let gpu = Gpu::new(
        GpuConfig::fast_for_tests(),
        TrainingState::compressible(ByteSize::from_bytes(STATE), 11, 32),
    );
    gpu.update();

    // Store A takes chunk-framed commits chained through dedup bases;
    // store B takes a plain full checkpoint of the very same weights at
    // every iteration.
    let (ssd_a, store_a) = store_on(MAX_CHAIN + 2);
    let (ssd_b, store_b) = store_on(2);
    let ns_a = store_a.namespace(DEFAULT_JOB).expect("single-tenant store");
    let ns_b = store_b.namespace(DEFAULT_JOB).expect("single-tenant store");
    let pipe_a = pipeline_for(&store_a);
    let pipe_b = pipeline_for(&store_b);
    let telemetry = Telemetry::disabled();
    let ctx = PipelineCtx {
        telemetry: &telemetry,
        span: SpanId::NONE,
    };
    let policy = DeltaPolicy {
        max_chain: MAX_CHAIN,
    };

    let mut linked_commits = 0;
    for iter in 1..=4u64 {
        if iter > 1 {
            gpu.update_sparse(0.10);
        }
        let guard = gpu.lock_weights_shared_owned();
        let total = guard.size();

        let (_, copied) = pipe_a
            .checkpoint_framed(ctx, &ns_a, &guard, iter, CopyMode::Codec(policy))
            .expect("framed checkpoint");
        assert!(
            copied.frame.saved_bytes > 0,
            "compressible state must pack, got {copied:?}"
        );
        if store_a.latest_committed(&ns_a).expect("head").is_delta() {
            linked_commits += 1;
        }

        let lease = pipe_b.lease(ctx, &ns_b);
        let copied = pipe_b
            .copy(ctx, &guard, &lease, iter, total, CopyMode::Streamed)
            .expect("full copy");
        drop(guard);
        pipe_b.seal(ctx, &lease, iter, &copied).expect("seal");
        pipe_b.commit(ctx, lease, iter, &copied).expect("commit");
    }
    assert!(
        linked_commits >= 1,
        "the sparse run must commit at least one frame pinned to a dedup base"
    );
    let head = store_a.latest_committed(&ns_a).expect("head");
    let link = head.delta.expect("head of store A references its base");
    assert!(link.chain_depth >= 1);

    drop(pipe_a);
    drop(pipe_b);
    let rec_a = recovery::recover(ssd_a).expect("store A recoverable");
    let rec_b = recovery::recover(ssd_b).expect("store B recoverable");

    assert_eq!(rec_a.iteration, 4);
    assert_eq!(rec_b.iteration, 4);
    assert_eq!(
        rec_a.payload, rec_b.payload,
        "the frame walk must reproduce the full checkpoint byte for byte"
    );

    // The forensic differ over the tensor layout agrees: zero changed bytes
    // in every tensor.
    let layout = gpu.with_weights(|w| w.layout());
    let report = pccheck_monitor::diff(&rec_a.payload, &rec_b.payload, &layout);
    assert_eq!(report.changed_bytes, 0, "diff report: {report:?}");

    // And both restores load back into a GPU that matches the live weights.
    let live = gpu.with_weights(|w| w.digest());
    let restored = Gpu::new(
        GpuConfig::fast_for_tests(),
        TrainingState::synthetic(ByteSize::from_bytes(STATE), 99),
    );
    restored.restore(&rec_a.payload, rec_a.iteration);
    assert_eq!(restored.with_weights(|w| w.digest()), live);
}
