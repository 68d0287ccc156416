//! Cross-"process" persistence: stores on [`FileDevice`] survive closing
//! every handle and reopening from the path — the property a production
//! user relies on across real restarts.

use std::path::PathBuf;
use std::sync::Arc;

use pccheck::{recovery, CheckpointStore, PcCheckConfig, PcCheckEngine};
use pccheck_device::{DeviceConfig, FileDevice, PersistentDevice};
use pccheck_gpu::{Checkpointer, Gpu, GpuConfig, TrainingState};
use pccheck_util::ByteSize;

const STATE: u64 = 64 * 1024;
const SLOTS: u32 = 3;

fn tmpfile(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("pccheck-file-persistence");
    std::fs::create_dir_all(&dir).expect("mk tmpdir");
    dir.join(name)
}

fn device_config() -> DeviceConfig {
    let cap = CheckpointStore::required_capacity(ByteSize::from_bytes(STATE), SLOTS)
        + ByteSize::from_kb(4);
    DeviceConfig::fast_for_tests(cap)
}

fn engine_over(device: Arc<dyn PersistentDevice>, fresh: bool) -> PcCheckEngine {
    let config = PcCheckConfig::builder()
        .max_concurrent((SLOTS - 1) as usize)
        .writer_threads(2)
        .chunk_size(ByteSize::from_kb(8))
        .dram_chunks(8)
        .build()
        .expect("valid");
    if fresh {
        PcCheckEngine::new(config, device, ByteSize::from_bytes(STATE)).expect("engine")
    } else {
        let store = CheckpointStore::open(device).expect("reopen");
        PcCheckEngine::with_store(config, Arc::new(store)).expect("engine")
    }
}

#[test]
fn checkpoints_survive_full_reopen_cycles() {
    let path = tmpfile("reopen-cycles.img");
    let gpu = Gpu::new(
        GpuConfig::fast_for_tests(),
        TrainingState::synthetic(ByteSize::from_bytes(STATE), 42),
    );
    let mut iter = 0u64;
    for generation in 0..3 {
        // Open (or create) the store fresh, like a new process would.
        let device: Arc<dyn PersistentDevice> = Arc::new(if generation == 0 {
            FileDevice::create(&path, device_config()).expect("create")
        } else {
            FileDevice::open(&path, device_config()).expect("open")
        });
        let engine = engine_over(device, generation == 0);
        if generation > 0 {
            // The engine carries the previous generation's last commit.
            assert_eq!(
                engine.last_committed().expect("carried").iteration,
                iter,
                "generation {generation}"
            );
        }
        for _ in 0..4 {
            iter += 1;
            gpu.update();
            engine.checkpoint(&gpu, iter);
        }
        engine.drain();
        // Engine and device handles drop here: the "process" exits.
    }

    // Final recovery from nothing but the file path.
    let device: Arc<dyn PersistentDevice> =
        Arc::new(FileDevice::open(&path, device_config()).expect("open"));
    let rec = recovery::recover(device).expect("recoverable");
    assert_eq!(rec.iteration, 12);
    let layout = gpu.with_weights(|s| s.layout());
    recovery::verify_against_state(&rec, &layout).expect("digest verifies");
    let fresh = Gpu::new(
        GpuConfig::fast_for_tests(),
        TrainingState::synthetic(ByteSize::from_bytes(STATE), 0),
    );
    rec.restore_into(&fresh);
    assert_eq!(fresh.digest(), gpu.digest());
    std::fs::remove_file(&path).ok();
}

#[test]
fn crash_between_generations_keeps_last_synced_state() {
    let path = tmpfile("crash-gen.img");
    let gpu = Gpu::new(
        GpuConfig::fast_for_tests(),
        TrainingState::synthetic(ByteSize::from_bytes(STATE), 7),
    );
    {
        let dev = Arc::new(FileDevice::create(&path, device_config()).expect("create"));
        let device: Arc<dyn PersistentDevice> = dev.clone();
        let engine = engine_over(device, true);
        for iter in 1..=3 {
            gpu.update();
            engine.checkpoint(&gpu, iter);
        }
        engine.drain();
        // Power failure: the page-cache overlay is gone; the file survives.
        dev.crash_now();
    }
    let device: Arc<dyn PersistentDevice> =
        Arc::new(FileDevice::open(&path, device_config()).expect("open"));
    let rec = recovery::recover(device).expect("recoverable");
    assert_eq!(rec.iteration, 3);
    let layout = gpu.with_weights(|s| s.layout());
    recovery::verify_against_state(&rec, &layout).expect("verified");
    std::fs::remove_file(&path).ok();
}

#[test]
fn history_is_readable_from_a_cold_open() {
    let path = tmpfile("history.img");
    {
        let device: Arc<dyn PersistentDevice> =
            Arc::new(FileDevice::create(&path, device_config()).expect("create"));
        let engine = engine_over(device, true);
        let gpu = Gpu::new(
            GpuConfig::fast_for_tests(),
            TrainingState::synthetic(ByteSize::from_bytes(STATE), 9),
        );
        for iter in 1..=3 {
            gpu.update();
            engine.checkpoint(&gpu, iter);
            engine.drain();
        }
    }
    let device: Arc<dyn PersistentDevice> =
        Arc::new(FileDevice::open(&path, device_config()).expect("open"));
    let store = CheckpointStore::open(device).expect("open store");
    let ns = store
        .namespace(pccheck::DEFAULT_JOB)
        .expect("single-tenant store");
    let history = store.history(&ns).expect("history");
    assert_eq!(history.len(), 3);
    assert_eq!(history.last().expect("non-empty").iteration, 3);
    std::fs::remove_file(&path).ok();
}
