//! Cross-validation of the parallel restore pipeline: recovering the same
//! device with four readers and with one reader must produce bit-identical
//! checkpoints — for plain full checkpoints (the block-digest fetch) and for
//! chunk-framed commits chained through dedup bases (the frame walk).

use std::sync::Arc;

use pccheck::{
    recover_instrumented_with, recovery, CheckpointStore, DeltaPolicy, PersistPipeline,
    PipelineCtx, RestoreOptions,
};
use pccheck_device::{DeviceConfig, HostBufferPool, PersistentDevice, SsdDevice};
use pccheck_gpu::{Gpu, GpuConfig, TrainingState};
use pccheck_telemetry::{SpanId, Telemetry};
use pccheck_util::ByteSize;

const STATE: u64 = 8 * 1024;
const MAX_CHAIN: u32 = 3;

fn store_on(slots: u32) -> (Arc<SsdDevice>, Arc<CheckpointStore>) {
    let size = ByteSize::from_bytes(STATE);
    let cap = CheckpointStore::required_capacity(size, slots) + ByteSize::from_kb(4);
    let ssd = Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
    let dev: Arc<dyn PersistentDevice> = ssd.clone();
    let store = Arc::new(CheckpointStore::format(dev, size, slots).expect("format"));
    (ssd, store)
}

fn pipeline_for(store: &Arc<CheckpointStore>) -> PersistPipeline {
    PersistPipeline::new(Arc::clone(store))
        .with_writers(2)
        .with_staging(HostBufferPool::new(ByteSize::from_bytes(512), 16))
}

fn sequential() -> RestoreOptions {
    RestoreOptions {
        readers: 1,
        job: None,
    }
}

fn parallel() -> RestoreOptions {
    RestoreOptions {
        readers: 4,
        job: None,
    }
}

#[test]
fn parallel_and_sequential_recovery_agree_on_full_checkpoints() {
    let gpu = Gpu::new(
        GpuConfig::fast_for_tests(),
        TrainingState::synthetic(ByteSize::from_bytes(STATE), 17),
    );
    gpu.update();

    let (ssd, store) = store_on(2);
    let pipe = pipeline_for(&store);
    let telemetry = Telemetry::disabled();
    let ctx = PipelineCtx {
        telemetry: &telemetry,
        span: SpanId::NONE,
    };
    for iter in 1..=3u64 {
        if iter > 1 {
            gpu.update();
        }
        let guard = gpu.lock_weights_shared_owned();
        let total = guard.size();
        let lease = pipe.lease(ctx);
        let copied = pipe
            .copy_chunks(ctx, &guard, &lease, total, true)
            .expect("full copy");
        drop(guard);
        pipe.seal(ctx, &lease, iter, &copied).expect("seal");
        pipe.commit(ctx, lease, iter, &copied).expect("commit");
    }
    drop(pipe);

    let dev: Arc<dyn PersistentDevice> = ssd.clone();
    let (par, par_trace) =
        recover_instrumented_with(Arc::clone(&dev), &telemetry, parallel()).expect("parallel");
    let (seq, seq_trace) =
        recover_instrumented_with(dev, &telemetry, sequential()).expect("sequential");

    assert_eq!(par.iteration, 3);
    assert_eq!(par.iteration, seq.iteration);
    assert_eq!(par.counter, seq.counter);
    assert_eq!(par.digest, seq.digest);
    assert_eq!(
        par.payload, seq.payload,
        "reader fan-out must not change a single byte"
    );
    assert_eq!(par_trace.chain_links, 0);
    assert_eq!(par_trace.chain_links, seq_trace.chain_links);

    // The pre-pipeline entry point agrees too.
    let baseline = recovery::recover(ssd).expect("plain recover");
    assert_eq!(baseline.payload, par.payload);
}

#[test]
fn parallel_and_sequential_recovery_agree_on_dedup_chains() {
    let gpu = Gpu::new(
        GpuConfig::fast_for_tests(),
        TrainingState::compressible(ByteSize::from_bytes(STATE), 23, 32),
    );
    gpu.update();

    let (ssd, store) = store_on(MAX_CHAIN + 2);
    let pipe = pipeline_for(&store).with_codec(true);
    let telemetry = Telemetry::disabled();
    let ctx = PipelineCtx {
        telemetry: &telemetry,
        span: SpanId::NONE,
    };
    let policy = DeltaPolicy {
        max_chain: MAX_CHAIN,
    };

    for iter in 1..=4u64 {
        if iter > 1 {
            gpu.update_sparse(0.10);
        }
        let guard = gpu.lock_weights_shared_owned();
        pipe.checkpoint_framed(ctx, &guard, iter, policy)
            .expect("framed checkpoint");
    }
    drop(pipe);

    let dev: Arc<dyn PersistentDevice> = ssd.clone();
    let (par, par_trace) =
        recover_instrumented_with(Arc::clone(&dev), &telemetry, parallel()).expect("parallel");
    let (seq, seq_trace) =
        recover_instrumented_with(dev, &telemetry, sequential()).expect("sequential");

    assert_eq!(par.iteration, 4);
    assert!(par_trace.chain_links >= 1, "head must reference its base");
    assert_eq!(par_trace.chain_links, seq_trace.chain_links);
    assert_eq!(par.counter, seq.counter);
    assert_eq!(
        par.payload, seq.payload,
        "the parallel frame walk must reproduce the sequential bytes"
    );

    // Both land on a GPU identical to the live weights.
    let live = gpu.with_weights(|w| w.digest());
    let restored = Gpu::new(
        GpuConfig::fast_for_tests(),
        TrainingState::synthetic(ByteSize::from_bytes(STATE), 99),
    );
    restored.restore(&par.payload, par.iteration);
    assert_eq!(restored.with_weights(|w| w.digest()), live);
}
