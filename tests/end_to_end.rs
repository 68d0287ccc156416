//! Cross-crate integration: the full train → checkpoint → crash → recover
//! → resume cycle with the concrete engines on throttled devices.

use std::sync::Arc;

use pccheck::{recovery, CheckpointStore, PcCheckConfig, PcCheckEngine};
use pccheck_device::{DeviceConfig, PersistentDevice, PmemDevice, SsdDevice};
use pccheck_gpu::{Checkpointer, Gpu, GpuConfig, TrainingLoop, TrainingState};
use pccheck_util::{Bandwidth, ByteSize, SimDuration};

fn gpu_with_state(size: ByteSize, seed: u64) -> Gpu {
    Gpu::new(
        GpuConfig::fast_for_tests(),
        TrainingState::synthetic(size, seed),
    )
}

fn pccheck_engine(device: Arc<dyn PersistentDevice>, size: ByteSize, n: usize) -> PcCheckEngine {
    PcCheckEngine::new(
        PcCheckConfig::builder()
            .max_concurrent(n)
            .writer_threads(2)
            .chunk_size(ByteSize::from_kb(64))
            .dram_chunks(8)
            .build()
            .expect("valid config"),
        device,
        size,
    )
    .expect("engine constructs")
}

#[test]
fn training_loop_with_pccheck_commits_and_recovers() {
    let size = ByteSize::from_kb(256);
    let gpu = gpu_with_state(size, 1);
    let cap = CheckpointStore::required_capacity(size, 3) + ByteSize::from_kb(4);
    let ssd = Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
    let engine = pccheck_engine(ssd.clone(), size, 2);

    let lp = TrainingLoop::new(gpu.clone(), SimDuration::from_millis(1)).with_interval(4);
    let report = lp.run(16, &engine);
    assert_eq!(report.checkpoints_requested, 4);
    assert_eq!(engine.last_committed().expect("committed").iteration, 16);

    let digest_at_16 = gpu.digest();
    ssd.crash_now();
    ssd.recover();
    let rec = recovery::recover(ssd).expect("recoverable");
    assert_eq!(rec.iteration, 16);
    let fresh = gpu_with_state(size, 999);
    rec.restore_into(&fresh);
    assert_eq!(fresh.digest(), digest_at_16);

    // Resume and diverge identically from the original.
    fresh.update();
    gpu.update();
    assert_eq!(fresh.digest(), gpu.digest());
}

#[test]
fn throttled_device_still_yields_correct_checkpoints() {
    // Small bandwidth so persists genuinely overlap training.
    let size = ByteSize::from_mb_u64(1);
    let gpu = gpu_with_state(size, 2);
    let cap = CheckpointStore::required_capacity(size, 4) + ByteSize::from_kb(4);
    let cfg = DeviceConfig {
        capacity: cap,
        write_bandwidth: Bandwidth::from_mb_per_sec(50.0),
        throttled: true,
    };
    let ssd = Arc::new(SsdDevice::new(cfg));
    let engine = pccheck_engine(ssd.clone(), size, 3);

    let lp = TrainingLoop::new(gpu.clone(), SimDuration::from_millis(5)).with_interval(2);
    lp.run(10, &engine);
    let out = engine.last_committed().expect("committed");
    assert_eq!(out.iteration, 10);

    ssd.crash_now();
    ssd.recover();
    let rec = recovery::recover(ssd).expect("recoverable");
    let layout = gpu.with_weights(|s| s.layout());
    recovery::verify_against_state(&rec, &layout).expect("payload verifies");
    assert_eq!(rec.iteration, 10);
}

#[test]
fn mid_training_crash_recovers_to_a_recent_boundary() {
    let size = ByteSize::from_kb(64);
    let gpu = gpu_with_state(size, 3);
    let cap = CheckpointStore::required_capacity(size, 3) + ByteSize::from_kb(4);
    let ssd = Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
    let engine = pccheck_engine(ssd.clone(), size, 2);

    // Checkpoint at 3, 6; crash before 9's checkpoint drains.
    for iter in 1..=8u64 {
        gpu.update();
        if iter % 3 == 0 {
            engine.checkpoint(&gpu, iter);
        }
    }
    engine.drain();
    ssd.crash_now();
    ssd.recover();
    let rec = recovery::recover(ssd).expect("recoverable");
    assert_eq!(rec.iteration, 6, "latest drained boundary");
    // Replay the lost iterations and land at the pre-crash state.
    let fresh = gpu_with_state(size, 4);
    rec.restore_into(&fresh);
    fresh.update();
    fresh.update();
    assert_eq!(fresh.digest(), gpu.digest());
    assert_eq!(fresh.step_count(), 8);
}

#[test]
fn pmem_end_to_end_with_training_loop() {
    let size = ByteSize::from_kb(128);
    let gpu = gpu_with_state(size, 5);
    let cap = CheckpointStore::required_capacity(size, 3) + ByteSize::from_kb(4);
    let pmem = Arc::new(PmemDevice::new(DeviceConfig::fast_for_tests(cap)));
    let engine = pccheck_engine(pmem.clone(), size, 2);
    let lp = TrainingLoop::new(gpu.clone(), SimDuration::ZERO).with_interval(5);
    lp.run(15, &engine);
    pmem.crash_now();
    pmem.recover();
    let rec = recovery::recover(pmem).expect("recoverable");
    assert_eq!(rec.iteration, 15);
    let layout = gpu.with_weights(|s| s.layout());
    recovery::verify_against_state(&rec, &layout).expect("verified");
}

#[test]
fn engine_reopen_continues_counter_sequence() {
    // Recover the store, attach a new engine, keep checkpointing.
    let size = ByteSize::from_kb(32);
    let gpu = gpu_with_state(size, 6);
    let cap = CheckpointStore::required_capacity(size, 3) + ByteSize::from_kb(4);
    let ssd = Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
    {
        let engine = pccheck_engine(ssd.clone(), size, 2);
        gpu.update();
        engine.checkpoint(&gpu, 1);
        engine.drain();
    }
    ssd.crash_now();
    ssd.recover();
    let store = Arc::new(CheckpointStore::open(ssd.clone()).expect("opens"));
    // The slots hold the frame of the first engine's 64 KiB records; a
    // reopening engine writes no finer ones.
    let engine = PcCheckEngine::with_store(
        PcCheckConfig::builder()
            .max_concurrent(2)
            .writer_threads(2)
            .chunk_size(ByteSize::from_kb(64))
            .dram_chunks(8)
            .build()
            .expect("valid"),
        store,
    )
    .expect("engine over recovered store");
    assert_eq!(engine.last_committed().expect("carried over").iteration, 1);
    gpu.update();
    engine.checkpoint(&gpu, 2);
    engine.drain();
    assert_eq!(engine.last_committed().expect("new commit").iteration, 2);
    ssd.crash_now();
    ssd.recover();
    assert_eq!(recovery::recover(ssd).expect("recoverable").iteration, 2);
}
