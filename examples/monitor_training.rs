//! Training monitoring via frequent checkpoints (§2.1's use case):
//! inspect the checkpoint history, diff consecutive states, and catch a
//! simulated silent-corruption event with the update-magnitude detector.
//!
//! Run with: `cargo run --example monitor_training`

use std::sync::Arc;

use pccheck::{PcCheckConfig, PcCheckEngine};
use pccheck_device::{DeviceConfig, PersistentDevice, SsdDevice};
use pccheck_gpu::{Checkpointer, Gpu, GpuConfig, TrainingState};
use pccheck_monitor::{CheckpointInspector, UpdateMagnitudeDetector};
use pccheck_util::ByteSize;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let gpu = Gpu::new(
        GpuConfig::fast_for_tests(),
        TrainingState::synthetic(ByteSize::from_mb_u64(2), 7),
    );
    // A roomy store: N=3 concurrent means 4 slots of history to inspect.
    let cap =
        pccheck::CheckpointStore::required_capacity(gpu.state_size(), 4) + ByteSize::from_kb(4);
    let device: Arc<dyn PersistentDevice> =
        Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
    let engine = PcCheckEngine::new(
        PcCheckConfig::builder()
            .max_concurrent(3)
            .writer_threads(2)
            .chunk_size(ByteSize::from_kb(256))
            .dram_chunks(8)
            .build()?,
        device,
        gpu.state_size(),
    )?;

    let inspector =
        CheckpointInspector::new(Arc::clone(engine.store()), Arc::clone(engine.namespace()));
    let mut detector = UpdateMagnitudeDetector::new(4, 3.0);

    println!("training 40 iterations, checkpointing every 2...\n");
    let mut previous: Option<(u64, Vec<u8>)> = None;
    for iter in 1..=40u64 {
        gpu.update();
        // Simulate a silent corruption event at iteration 30: a rogue
        // restore from a stale checkpoint (e.g., flaky hardware reloading
        // old weights) — the weights go back, the step count does not.
        if iter == 30 {
            let stale = inspector.latest().expect("history exists");
            let payload = inspector.load_payload(&stale)?;
            gpu.restore(&payload, iter);
            println!("!! injected fault at iteration {iter}: state silently reverted");
        }
        if iter % 2 == 0 {
            engine.checkpoint(&gpu, iter);
            engine.drain();
            let latest = inspector.latest().expect("committed");
            let payload = inspector.load_payload(&latest)?;
            if let Some((prev_iter, prev_payload)) = &previous {
                let changed = changed_fraction(prev_payload, &payload);
                let flagged = detector.observe(latest.iteration, changed);
                let marker = if flagged.is_some() {
                    "  <-- ANOMALY"
                } else {
                    ""
                };
                println!(
                    "ckpt@{:>3}: {:>5.1}% changed since @{prev_iter}{marker}",
                    latest.iteration,
                    changed * 100.0
                );
                if let Some(a) = flagged {
                    println!(
                        "          magnitude {:.4}/iter vs expected {:.4}/iter (x{:.1})",
                        a.magnitude, a.expected, a.ratio
                    );
                }
            }
            previous = Some((latest.iteration, payload));
        }
    }

    println!("\ncheckpoint history currently in the store:");
    for meta in inspector.history()? {
        println!(
            "  counter {:>3} iteration {:>3} ({} bytes, digest {:016x})",
            meta.counter, meta.iteration, meta.payload_len, meta.digest
        );
    }
    Ok(())
}

/// The fraction of bytes that differ between two equally sized payloads.
fn changed_fraction(a: &[u8], b: &[u8]) -> f64 {
    let changed = a.iter().zip(b).filter(|(x, y)| x != y).count();
    changed as f64 / a.len().max(1) as f64
}
