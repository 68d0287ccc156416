//! Cross-validation: the discrete-event simulator and the concrete
//! (real-thread, real-byte) engines implement the same policies, so on a
//! configuration small enough to run concretely their predicted throughputs
//! must structurally agree.
//!
//! The comparison is necessarily loose: the concrete run executes on a
//! shared CPU with real thread scheduling, its `TrainingReport` includes
//! the final drain, and the DES's single-writer bandwidth cap models a
//! syscall-overhead effect the concrete token bucket does not have (we
//! therefore run the DES with the uncapped network-style media). What the
//! test guards against is *structural* disagreement — a missing stall or a
//! phantom one shows up as a >2–3x gap.
//!
//! Scaled workload: 2 MB checkpoints, 40 MB/s "SSD", 400 MB/s "PCIe",
//! 20 ms iterations — the same bandwidth hierarchy as the paper's testbed
//! at roughly 1/1000 scale.

use std::sync::Arc;

use pccheck::{CheckpointStore, PcCheckConfig, PcCheckEngine, StrategyRow};
use pccheck_device::{DeviceConfig, PersistentDevice, SsdDevice};
use pccheck_gpu::CopyEngineConfig;
use pccheck_gpu::{Checkpointer, Gpu, GpuConfig, TrainingLoop, TrainingState};
use pccheck_sim::{MediaKind, SimConfig, StrategyCfg};
use pccheck_telemetry::{EventKind, Phase, Telemetry};
use pccheck_util::{Bandwidth, ByteSize, SimDuration};

const CKPT: u64 = 2 * 1024 * 1024; // 2 MB
const ITER_MS: u64 = 20;
const SSD_MBPS: f64 = 40.0;
const PCIE_MBPS: f64 = 400.0;
/// Sustainable interval: 2 MB / (4 × 20 ms) = 25 MB/s < 40 MB/s.
const INTERVAL: u64 = 4;
const ITERS: u64 = 100;

fn scaled_gpu(seed: u64) -> Gpu {
    let copy = CopyEngineConfig {
        pcie_bandwidth: Bandwidth::from_mb_per_sec(PCIE_MBPS),
        throttled: true,
    };
    let config = GpuConfig {
        memory: ByteSize::from_gb(1.0),
        copy,
    };
    Gpu::new(
        config,
        TrainingState::synthetic(ByteSize::from_bytes(CKPT), seed),
    )
}

fn scaled_ssd(slots: u32) -> Arc<SsdDevice> {
    let cap = CheckpointStore::required_capacity(ByteSize::from_bytes(CKPT), slots)
        + ByteSize::from_kb(4);
    Arc::new(SsdDevice::new(DeviceConfig {
        capacity: cap,
        write_bandwidth: Bandwidth::from_mb_per_sec(SSD_MBPS),
        throttled: true,
    }))
}

fn sim_config(strategy: StrategyCfg) -> SimConfig {
    SimConfig {
        label: "scaled".into(),
        iter_time: SimDuration::from_millis(ITER_MS),
        checkpoint_size: ByteSize::from_bytes(CKPT),
        interval: INTERVAL,
        iterations: ITERS,
        strategy,
        pcie_bandwidth: Bandwidth::from_mb_per_sec(PCIE_MBPS),
        storage_bandwidth: Bandwidth::from_mb_per_sec(SSD_MBPS),
        // Network media = no per-writer cap, matching the concrete token
        // bucket's behavior (see module docs).
        media: MediaKind::Network,
        chunk_size: ByteSize::from_bytes(CKPT / 8),
        dram_chunks: 16,
        stripe_ways: 1,
    }
}

fn concrete_throughput(ckpt: &dyn Checkpointer, gpu: &Gpu) -> f64 {
    let lp =
        TrainingLoop::new(gpu.clone(), SimDuration::from_millis(ITER_MS)).with_interval(INTERVAL);
    lp.run(ITERS, ckpt).throughput
}

fn pccheck_engine(gpu: &Gpu, dram_chunks: usize) -> PcCheckEngine {
    PcCheckEngine::new(
        PcCheckConfig::builder()
            .max_concurrent(3)
            .writer_threads(2)
            .chunk_size(ByteSize::from_bytes(CKPT / 8))
            .dram_chunks(dram_chunks)
            .build()
            .expect("valid"),
        scaled_ssd(4) as Arc<dyn PersistentDevice>,
        gpu.state_size(),
    )
    .expect("engine")
}

/// The CheckFreq row over `ssd`.
fn checkfreq(ssd: Arc<SsdDevice>, gpu: &Gpu) -> PcCheckEngine {
    StrategyRow::named("checkfreq")
        .expect("a strategy row")
        .build(1, ssd, gpu.state_size())
        .expect("constructs")
}

/// Structural-agreement band: concrete/simulated throughput ratio. Inside
/// it, both models tell the same story; a missing admission stall or
/// weights-lock would push the ratio past 2–3x.
fn assert_structural_agreement(name: &str, concrete: f64, simulated: f64) {
    let ratio = concrete / simulated;
    assert!(
        (0.5..=2.0).contains(&ratio),
        "{name}: concrete {concrete:.3} it/s vs simulated {simulated:.3} it/s (ratio {ratio:.2})"
    );
}

#[test]
fn pccheck_concrete_matches_simulator() {
    let gpu = scaled_gpu(1);
    let engine = pccheck_engine(&gpu, 16);
    let concrete = concrete_throughput(&engine, &gpu);
    let simulated = sim_config(StrategyCfg::pccheck(3, 2)).run().throughput;
    assert_structural_agreement("pccheck", concrete, simulated);
}

#[test]
fn checkfreq_concrete_matches_simulator() {
    let gpu = scaled_gpu(2);
    let ssd = scaled_ssd(2);
    let ckpt = checkfreq(ssd, &gpu);
    let concrete = concrete_throughput(&ckpt, &gpu);
    let simulated = sim_config(StrategyCfg::CheckFreq).run().throughput;
    assert_structural_agreement("checkfreq", concrete, simulated);
}

#[test]
fn ordering_agrees_between_models() {
    // Where PCcheck's concurrency matters — interval 1, where CheckFreq's
    // one-at-a-time rule serializes every checkpoint — both models must
    // rank PCcheck ahead. (At sustainable intervals the two are
    // equivalent up to single-core scheduling noise, which on a shared
    // host can exceed the real difference; interval 1 is the structural
    // comparison.)
    let sim_pc = sim_config(StrategyCfg::pccheck(3, 2))
        .with_interval(1)
        .run()
        .throughput;
    let sim_cf = sim_config(StrategyCfg::CheckFreq)
        .with_interval(1)
        .run()
        .throughput;
    assert!(sim_pc > sim_cf, "sim: {sim_pc} vs {sim_cf}");

    // The concrete throughputs cannot be ranked: at interval 1 both
    // engines are pinned to the device (2 MB per 50 ms) — PCcheck hands
    // the weights back once the snapshot is staged, but with a checkpoint
    // every iteration its tickets fill and it waits on the device all the
    // same — and the 5 ms copy-then-persist serialization CheckFreq pays
    // per cycle is refunded by the token bucket's 10 ms burst credit, so
    // their difference is scheduler noise.
    // The mechanism the simulator's ranking rests on is visible in event
    // order alone: PCcheck persists a checkpoint's first chunks while it is
    // still copying its last ones, CheckFreq copies everything first. With
    // fewer DRAM chunks (4) than the state has (8) the overlap is forced:
    // the fifth copy needs a buffer only a finished persist returns.
    let copy_overlaps_persist = |telemetry: &Telemetry| {
        let events = telemetry.events();
        let at = |phase: Phase| {
            events.iter().filter_map(move |e| match e.kind {
                EventKind::Chunk { phase: p, .. } if p == phase && e.span.0 == 1 => {
                    Some(e.at_nanos)
                }
                _ => None,
            })
        };
        let first_persist = at(Phase::Persist).min().expect("span 1 persisted");
        let last_copy = at(Phase::GpuCopy).max().expect("span 1 copied");
        first_persist <= last_copy
    };
    let run_concrete_at_1 = |ckpt: &dyn Checkpointer, gpu: &Gpu| {
        TrainingLoop::new(gpu.clone(), SimDuration::from_millis(ITER_MS))
            .with_interval(1)
            .run(2, ckpt);
    };
    let gpu_pc = scaled_gpu(3);
    let pc_events = Telemetry::enabled();
    let engine = pccheck_engine(&gpu_pc, 4).with_telemetry(pc_events.clone());
    run_concrete_at_1(&engine, &gpu_pc);

    let gpu_cf = scaled_gpu(3);
    let cf_events = Telemetry::enabled();
    let cf = checkfreq(scaled_ssd(2), &gpu_cf).with_telemetry(cf_events.clone());
    run_concrete_at_1(&cf, &gpu_cf);

    assert!(
        copy_overlaps_persist(&pc_events),
        "pccheck pipelines copy with persist"
    );
    assert!(
        !copy_overlaps_persist(&cf_events),
        "checkfreq snapshots, then persists"
    );
}

#[test]
fn both_models_agree_checkpointing_costs_something_at_interval_one() {
    // Oversubscribed regime: 2 MB per 20 ms (100 MB/s demand vs 40 MB/s
    // device). Both models must show a substantial slowdown vs ideal.
    let sim = sim_config(StrategyCfg::pccheck(3, 2))
        .with_interval(1)
        .run();
    let sim_ideal = sim_config(StrategyCfg::Ideal).with_interval(1).run();
    let sim_slowdown = sim.slowdown_vs(&sim_ideal);
    assert!(sim_slowdown > 1.5, "sim slowdown {sim_slowdown}");

    let gpu = scaled_gpu(4);
    let engine = pccheck_engine(&gpu, 16);
    let lp = TrainingLoop::new(gpu.clone(), SimDuration::from_millis(ITER_MS)).with_interval(1);
    let report = lp.run(40, &engine);
    let ideal = 1000.0 / ITER_MS as f64;
    let concrete_slowdown = ideal / report.throughput;
    assert!(
        concrete_slowdown > 1.3,
        "concrete slowdown {concrete_slowdown}"
    );
}
