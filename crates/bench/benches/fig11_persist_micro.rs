//! Figure 11's concrete counterpart: the engines persisting a real
//! (scaled-down) checkpoint, and one modeled full-scale point. The
//! figure's rows are printed by the `pccheck-harness` `fig11` binary.
use std::sync::Arc;

use pccheck::{CheckpointStore, PcCheckConfig, PcCheckEngine};
use pccheck_baselines::{CheckFreqCheckpointer, GpmCheckpointer};
use pccheck_bench::stats::{time, time_with_setup};
use pccheck_device::{DeviceConfig, PersistentDevice, SsdDevice};
use pccheck_gpu::{Checkpointer, Gpu, GpuConfig, TrainingState};
use pccheck_harness::fig11_persist_micro as fig11;
use pccheck_util::ByteSize;

/// Scaled-down concrete microbenchmark: 4 MB checkpoint, unthrottled
/// devices — measures the engines' real copy/commit paths (CAS protocol,
/// chunk staging, writer threads) without modeled bandwidth.
fn concrete_persist() {
    let size = ByteSize::from_mb_u64(4);
    // A stepped GPU and an unthrottled device sized for `slots` checkpoints.
    let fixture = |slots: u32| {
        let gpu = Gpu::new(
            GpuConfig::fast_for_tests(),
            TrainingState::synthetic(size, 1),
        );
        let cap = CheckpointStore::required_capacity(size, slots) + ByteSize::from_kb(4);
        let dev: Arc<dyn PersistentDevice> =
            Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        gpu.update();
        (gpu, dev)
    };

    time_with_setup(
        "fig11/concrete_persist_4mb/pccheck",
        10,
        || {
            let (gpu, dev) = fixture(3);
            let config = PcCheckConfig::builder()
                .max_concurrent(2)
                .writer_threads(3)
                .chunk_size(ByteSize::from_kb(256))
                .dram_chunks(16)
                .build()
                .expect("valid config");
            (PcCheckEngine::new(config, dev, size).expect("engine"), gpu)
        },
        |(engine, gpu)| {
            engine.checkpoint(&gpu, 1);
            engine.drain();
        },
    );
    time_with_setup(
        "fig11/concrete_persist_4mb/checkfreq",
        10,
        || {
            let (gpu, dev) = fixture(2);
            (
                CheckFreqCheckpointer::new(dev, size).expect("checkpointer"),
                gpu,
            )
        },
        |(ckpt, gpu)| {
            ckpt.checkpoint(&gpu, 1);
            ckpt.drain();
        },
    );
    time_with_setup(
        "fig11/concrete_persist_4mb/gpm",
        10,
        || {
            let (gpu, dev) = fixture(2);
            (GpmCheckpointer::new(dev, size).expect("checkpointer"), gpu)
        },
        |(ckpt, gpu)| ckpt.checkpoint(&gpu, 1),
    );
}

fn main() {
    println!("[Figure 11] time to persist one checkpoint");
    time("fig11/modeled_16gb_pccheck", 10, || {
        fig11::measure(
            pccheck_sim::StrategyCfg::pccheck(1, 3),
            ByteSize::from_gb(16.2),
        )
    });
    concrete_persist();
}
