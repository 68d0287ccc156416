//! All five checkpointing strategies behind the same `Checkpointer` trait:
//! every one produces recoverable, bit-exact checkpoints; their *scheduling*
//! differences (who stalls) are what the experiments measure.

use std::sync::Arc;

use pccheck::{
    bind_frame_table, recovery, CheckpointStore, FrameTable, PcCheckConfig, PcCheckEngine,
    PersistPipeline, PipelineCtx, StoreGeometry, StrategyRow, DEFAULT_JOB,
};
use pccheck_device::{
    DeviceConfig, HostBufferPool, NetworkConfig, NetworkLink, PersistentDevice, PmemDevice,
    SsdDevice,
};
use pccheck_gpu::{Checkpointer, Gpu, GpuConfig, StateDigest, TrainingLoop, TrainingState};
use pccheck_telemetry::{SpanId, Telemetry};
use pccheck_util::{ByteSize, SimDuration};

const SIZE: u64 = 96 * 1024;

fn fresh_gpu(seed: u64) -> Gpu {
    Gpu::new(
        GpuConfig::fast_for_tests(),
        TrainingState::synthetic(ByteSize::from_bytes(SIZE), seed),
    )
}

fn fresh_ssd(slots: u32) -> Arc<SsdDevice> {
    let cap = CheckpointStore::required_capacity(ByteSize::from_bytes(SIZE), slots)
        + ByteSize::from_kb(4);
    Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)))
}

fn fresh_pmem(slots: u32) -> Arc<PmemDevice> {
    let cap = CheckpointStore::required_capacity(ByteSize::from_bytes(SIZE), slots)
        + ByteSize::from_kb(4);
    let config = DeviceConfig::fast_for_tests(cap);
    Arc::new(PmemDevice::new(config))
}

/// The baseline row called `name`, built over `device`.
fn baseline(name: &str, device: Arc<dyn PersistentDevice>, size: ByteSize) -> PcCheckEngine {
    StrategyRow::named(name)
        .expect("a strategy row")
        .build(1, device, size)
        .expect("constructs")
}

/// The storage baseline called `name`, over `device`, recording to
/// `telemetry`.
fn storage_baseline(
    name: &str,
    device: Arc<dyn PersistentDevice>,
    size: ByteSize,
    telemetry: Telemetry,
) -> Box<dyn Checkpointer> {
    Box::new(baseline(name, device, size).with_telemetry(telemetry))
}

/// A link to a peer's DRAM with room for the Gemini row's store.
fn fresh_link(size: ByteSize) -> Arc<NetworkLink> {
    let gemini = StrategyRow::named("gemini").expect("a strategy row");
    Arc::new(NetworkLink::new(
        NetworkConfig::fast_for_tests(),
        gemini.required_capacity(1, size),
    ))
}

fn run_training(gpu: &Gpu, ckpt: &dyn Checkpointer) {
    let lp = TrainingLoop::new(gpu.clone(), SimDuration::ZERO).with_interval(3);
    let report = lp.run(9, ckpt);
    assert_eq!(report.checkpoints_requested, 3);
}

#[test]
fn storage_backed_strategies_all_recover_identically() {
    // Run the same deterministic workload under each strategy; all must
    // recover iteration 9 with the same digest.
    let reference = {
        let gpu = fresh_gpu(11);
        for _ in 0..9 {
            gpu.update();
        }
        gpu.digest()
    };

    // Traditional.
    {
        let gpu = fresh_gpu(11);
        let ssd = fresh_ssd(2);
        let ckpt = baseline("traditional", ssd.clone(), gpu.state_size());
        run_training(&gpu, &ckpt);
        ssd.crash_now();
        ssd.recover();
        let rec = recovery::recover(ssd).expect("recoverable");
        assert_eq!(rec.iteration, 9);
        let fresh = fresh_gpu(0);
        rec.restore_into(&fresh);
        assert_eq!(fresh.digest(), reference, "traditional");
    }

    // CheckFreq.
    {
        let gpu = fresh_gpu(11);
        let ssd = fresh_ssd(2);
        let ckpt = baseline("checkfreq", ssd.clone(), gpu.state_size());
        run_training(&gpu, &ckpt);
        ssd.crash_now();
        ssd.recover();
        let rec = recovery::recover(ssd).expect("recoverable");
        assert_eq!(rec.iteration, 9);
        let fresh = fresh_gpu(0);
        rec.restore_into(&fresh);
        assert_eq!(fresh.digest(), reference, "checkfreq");
    }

    // GPM.
    {
        let gpu = fresh_gpu(11);
        let ssd = fresh_ssd(2);
        let ckpt = baseline("gpm", ssd.clone(), gpu.state_size());
        run_training(&gpu, &ckpt);
        ssd.crash_now();
        ssd.recover();
        let rec = recovery::recover(ssd).expect("recoverable");
        assert_eq!(rec.iteration, 9);
        let fresh = fresh_gpu(0);
        rec.restore_into(&fresh);
        assert_eq!(fresh.digest(), reference, "gpm");
    }

    // PCcheck.
    {
        let gpu = fresh_gpu(11);
        let ssd = fresh_ssd(3);
        let engine = PcCheckEngine::new(
            PcCheckConfig::builder()
                .max_concurrent(2)
                .writer_threads(2)
                .chunk_size(ByteSize::from_kb(16))
                .dram_chunks(8)
                .build()
                .expect("valid"),
            ssd.clone() as Arc<dyn PersistentDevice>,
            gpu.state_size(),
        )
        .expect("engine");
        run_training(&gpu, &engine);
        ssd.crash_now();
        ssd.recover();
        let rec = recovery::recover(ssd).expect("recoverable");
        assert_eq!(rec.iteration, 9);
        let fresh = fresh_gpu(0);
        rec.restore_into(&fresh);
        assert_eq!(fresh.digest(), reference, "pccheck");
    }

    // Gemini (remote DRAM instead of storage).
    {
        let gpu = fresh_gpu(11);
        let link = fresh_link(gpu.state_size());
        let ckpt = baseline("gemini", link.clone(), gpu.state_size());
        run_training(&gpu, &ckpt);
        let rec = recovery::recover(link).expect("recoverable");
        assert_eq!(rec.iteration, 9);
        let fresh = fresh_gpu(0);
        rec.restore_into(&fresh);
        assert_eq!(fresh.digest(), reference, "gemini");
    }
}

#[test]
fn every_baseline_recovers_a_checkpoint_acknowledged_at_another_iteration() {
    // One update (step 1), acknowledged as iteration 100: each baseline's
    // copy folds the state digest with the iteration its commit records,
    // so recovery verifies the checkpoint and the restored GPU's digest is
    // the acknowledged one. On PMEM a fence makes durable only the calling
    // thread's stores, so a crash right after the acknowledgement also
    // checks that whoever wrote each piece of the frame fenced it.
    let gpu = fresh_gpu(17);
    gpu.update();
    let size = gpu.state_size();
    let restored = |name: &str, ckpt: &dyn Checkpointer, rec: pccheck::RecoveredCheckpoint| {
        let acked = ckpt.last_committed().expect("acknowledged");
        let fresh = fresh_gpu(0);
        rec.restore_into(&fresh);
        assert_eq!(
            (rec.iteration, fresh.digest()),
            (100, acked.digest),
            "{name}"
        );
    };
    for name in ["traditional", "checkfreq", "gpm"] {
        let media: [(&str, Arc<dyn PersistentDevice>); 2] =
            [("ssd", fresh_ssd(2)), ("pmem", fresh_pmem(2))];
        for (medium, device) in media {
            let ckpt = storage_baseline(name, Arc::clone(&device), size, Telemetry::disabled());
            let name = format!("{name} on {medium}");
            ckpt.checkpoint(&gpu, 100);
            ckpt.drain();
            device.crash_now();
            device.recover();
            let rec = recovery::recover(device).unwrap_or_else(|e| panic!("{name}: {e}"));
            restored(&name, ckpt.as_ref(), rec);
        }
    }
    let link = fresh_link(size);
    let gemini = baseline("gemini", link.clone(), size);
    gemini.checkpoint(&gpu, 100);
    gemini.drain();
    let rec = recovery::recover(link).expect("remote");
    restored("gemini", &gemini, rec);
}

/// A device error fails one checkpoint, not the baseline: checkpoint 1
/// commits, the device crashes, checkpoint 2 fails (a `failed` event, no
/// panic, the acknowledgement still at 1), and once the device is back
/// checkpoint 3 commits — the failed one's slot is free again — and is what
/// recovery finds.
#[test]
fn every_baseline_reports_a_failed_checkpoint_and_checkpoints_again() {
    for name in ["traditional", "checkfreq", "gpm"] {
        let gpu = fresh_gpu(19);
        let ssd = fresh_ssd(2);
        let telemetry = Telemetry::enabled();
        let ckpt = storage_baseline(name, ssd.clone(), gpu.state_size(), telemetry.clone());
        let step = |iteration: u64| {
            gpu.update();
            ckpt.checkpoint(&gpu, iteration);
            ckpt.drain();
        };
        step(1);
        ssd.crash_now();
        step(2);
        let counters = telemetry.snapshot().expect("enabled").counters;
        assert_eq!((counters.committed, counters.failed), (1, 1), "{name}");
        let acked = || ckpt.last_committed().expect("acknowledged");
        assert_eq!(acked().iteration, 1, "{name}");
        ssd.recover();
        step(3);
        assert_eq!(
            (acked().iteration, acked().digest),
            (3, gpu.digest()),
            "{name}"
        );
        ssd.crash_now();
        ssd.recover();
        let rec = recovery::recover(ssd).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(rec.iteration, 3, "{name}");
        let fresh = fresh_gpu(0);
        rec.restore_into(&fresh);
        assert_eq!(fresh.digest(), gpu.digest(), "{name}");
    }
}

/// A staging chunk that is no multiple of the digest block, so every copy
/// loop feeds the state digest in splits that straddle blocks.
const ODD_CHUNK: u64 = 5000;

/// [`copy_verb_with`] on [`ODD_CHUNK`]s and a pool that holds the snapshot.
fn copy_verb(gpu: &Gpu, verb: &str) -> StateDigest {
    copy_verb_with(gpu, verb, ODD_CHUNK, (SIZE / ODD_CHUNK + 1) as usize)
}

/// Drives the copy verb in one mode over `gpu`'s current state on a fresh
/// store, staging through `pool_chunks` chunks of `chunk` bytes, commits
/// what it returned, and hands back the digest it folded.
fn copy_verb_with(gpu: &Gpu, verb: &str, chunk: u64, pool_chunks: usize) -> StateDigest {
    let slot = FrameTable::slot_size_for(gpu.state_size(), ByteSize::from_bytes(chunk));
    let store = Arc::new(
        CheckpointStore::format(
            fresh_ssd(2) as Arc<dyn PersistentDevice>,
            StoreGeometry::single(slot, 2),
        )
        .expect("format"),
    );
    let ns = store.namespace(DEFAULT_JOB).expect("single-tenant store");
    let pipeline = PersistPipeline::new(
        Arc::clone(&store),
        HostBufferPool::new(ByteSize::from_bytes(chunk), pool_chunks),
    )
    .with_writers(2);
    let telemetry = Telemetry::disabled();
    let ctx = PipelineCtx {
        telemetry: &telemetry,
        span: SpanId::NONE,
    };
    let iteration = gpu.step_count();
    let guard = gpu.lock_weights_shared_owned();
    // The codec packs the tiled state and declines the dense one after
    // staging it — the guard is its to release by then, so the all-Raw
    // frame is of what it already holds in DRAM.
    let lease = pipeline.lease(ctx, &ns);
    let (whole, lz) = match verb {
        "copy staged" => (true, false),
        "copy streamed" => (false, false),
        _ => (false, true),
    };
    let copied = pipeline
        .copy(ctx, &guard, &lease, iteration, whole, lz)
        .expect("copy");
    if lz && verb != "copy codec if it pays" {
        let packed = copied.frame.saved_bytes > 0;
        assert_eq!(packed, verb == "copy codec", "{verb}");
    }
    pipeline
        .seal(ctx, &lease, iteration, &copied)
        .expect("seal");
    drop(guard);
    pipeline
        .commit(ctx, lease, iteration, &copied)
        .expect("commit");
    // Every commit binds the checksum of a table that carries the digest.
    let meta = store.latest_committed(&ns).expect("committed");
    assert_eq!(meta.digest, copied.frame.payload_digest, "{verb}");
    let payload = store.read_checkpoint(&meta).expect("head payload");
    let table = bind_frame_table(&payload, &meta).expect("the table binds");
    assert_eq!(table.full_digest, copied.state_digest.0, "{verb}");
    copied.state_digest
}

/// Checkpoints `gpu`'s current state through a strategy and hands back
/// the digest it acknowledged.
fn acknowledged(gpu: &Gpu, ckpt: &dyn Checkpointer) -> StateDigest {
    ckpt.checkpoint(gpu, gpu.step_count());
    ckpt.drain();
    let outcome = ckpt.last_committed().expect("acknowledged");
    assert_eq!(outcome.iteration, gpu.step_count(), "{}", ckpt.name());
    outcome.digest
}

/// One definition, no second opinion: whatever moved the bytes — the copy
/// verb in any mode, the engine in any mode, any baseline — reports exactly
/// what `Gpu::digest` computes for the same state.
#[test]
fn every_copy_verb_and_every_strategy_acknowledges_the_gpu_digest() {
    let dense = fresh_gpu(21);
    let tiled = Gpu::new(
        GpuConfig::fast_for_tests(),
        TrainingState::compressible(ByteSize::from_bytes(SIZE), 21, 64),
    );
    for gpu in [&dense, &tiled] {
        gpu.update();
        gpu.update();
    }
    let size = dense.state_size();
    let engine = |codec: bool, pipelined: bool| {
        PcCheckEngine::new(
            PcCheckConfig::builder()
                .max_concurrent(1)
                .writer_threads(2)
                .chunk_size(ByteSize::from_bytes(ODD_CHUNK))
                .dram_chunks((SIZE / ODD_CHUNK + 1) as usize)
                .pipelined(pipelined)
                .codec(codec)
                .build()
                .expect("valid"),
            fresh_ssd(2) as Arc<dyn PersistentDevice>,
            size,
        )
        .expect("engine")
    };
    let link = fresh_link(size);
    // (what moved the bytes, the state it moved, the digest it reported)
    let table: Vec<(&str, &Gpu, StateDigest)> = vec![
        ("copy staged", &dense, copy_verb(&dense, "copy staged")),
        ("copy streamed", &dense, copy_verb(&dense, "copy streamed")),
        ("copy codec", &tiled, copy_verb(&tiled, "copy codec")),
        (
            "copy codec declined",
            &dense,
            copy_verb(&dense, "copy codec declined"),
        ),
        (
            "engine raw staged",
            &dense,
            acknowledged(&dense, &engine(false, false)),
        ),
        (
            "engine raw pipelined",
            &dense,
            acknowledged(&dense, &engine(false, true)),
        ),
        (
            "engine codec staged",
            &tiled,
            acknowledged(&tiled, &engine(true, false)),
        ),
        (
            "engine codec pipelined",
            &tiled,
            acknowledged(&tiled, &engine(true, true)),
        ),
        (
            "traditional",
            &dense,
            acknowledged(&dense, &baseline("traditional", fresh_ssd(2), size)),
        ),
        (
            "checkfreq",
            &dense,
            acknowledged(&dense, &baseline("checkfreq", fresh_ssd(2), size)),
        ),
        (
            "gpm",
            &dense,
            acknowledged(&dense, &baseline("gpm", fresh_ssd(2), size)),
        ),
        (
            "gemini",
            &dense,
            acknowledged(&dense, &baseline("gemini", link, size)),
        ),
    ];
    for (mover, gpu, reported) in table {
        assert_eq!(reported, gpu.digest(), "{mover}");
    }

    // Geometry: the block values are filed by whoever holds a block whole —
    // a chunk's pool job, or the producer for a block a chunk boundary cuts
    // — so every way chunks can lie across blocks must fold to the same
    // digest: chunks smaller than, equal to, straddling and far larger than
    // a block, over states that end inside the first block, on a block
    // boundary and 13 bytes past one; streamed through two chunks of DRAM
    // and staged whole; codec off and on.
    const BLOCK: u64 = pccheck_util::fnv::DIGEST_BLOCK as u64;
    for len in [1000, 3 * BLOCK, 3 * BLOCK + 13] {
        let total = ByteSize::from_bytes(len);
        let dense = Gpu::new(
            GpuConfig::fast_for_tests(),
            TrainingState::synthetic(total, 23),
        );
        let tiled = Gpu::new(
            GpuConfig::fast_for_tests(),
            TrainingState::compressible(total, 23, 64),
        );
        dense.update();
        tiled.update();
        for chunk in [256, BLOCK, ODD_CHUNK, 1024 * 1024] {
            let whole = len.div_ceil(chunk) as usize;
            for (verb, gpu, pool_chunks) in [
                ("copy streamed", &dense, 2),
                ("copy streamed", &dense, whole),
                ("copy staged", &dense, whole),
                ("copy codec if it pays", &tiled, 2),
                ("copy codec if it pays", &tiled, whole),
            ] {
                assert_eq!(
                    copy_verb_with(gpu, verb, chunk, pool_chunks),
                    gpu.digest(),
                    "{verb}: {len} bytes in {chunk}-byte chunks, pool of {pool_chunks}"
                );
            }
        }
    }
}

#[test]
fn strategy_names_are_distinct() {
    let gpu = fresh_gpu(1);
    let ssd = fresh_ssd(3);
    let names: Vec<String> = vec![
        baseline("traditional", fresh_ssd(2), gpu.state_size())
            .name()
            .into(),
        baseline("checkfreq", fresh_ssd(2), gpu.state_size())
            .name()
            .into(),
        baseline("gpm", fresh_ssd(2), gpu.state_size())
            .name()
            .into(),
        PcCheckEngine::new(
            PcCheckConfig::default(),
            ssd as Arc<dyn PersistentDevice>,
            gpu.state_size(),
        )
        .expect("pccheck")
        .name()
        .into(),
    ];
    let unique: std::collections::HashSet<_> = names.iter().collect();
    assert_eq!(unique.len(), names.len());
}
