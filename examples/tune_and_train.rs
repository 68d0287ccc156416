//! The §3.4 workflow: give the tuner your workload and constraints, get
//! `N*` and the minimum safe checkpoint interval `f*`, then train with the
//! recommended configuration and verify the overhead stays within budget.
//!
//! Run with: `cargo run --release --example tune_and_train`

use pccheck::{Tuner, TunerInputs};
use pccheck_gpu::{GpuKind, ModelZoo};
use pccheck_sim::{SimConfig, StrategyCfg};
use pccheck_util::{Bandwidth, ByteSize};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = ModelZoo::opt_1_3b();
    let inputs = TunerInputs {
        checkpoint_size: model.checkpoint_size,
        iter_time: model.iter_time(GpuKind::A100),
        storage_bandwidth: Bandwidth::from_gb_per_sec(1.5), // raw pd-ssd rate
        storage_budget: ByteSize::from_gb(100.0),           // ~6 slots of 16.2 GB
        max_slowdown: 1.05,                                 // accept 5% overhead
    };
    let tuner = Tuner::new(inputs)?;
    println!(
        "storage budget allows N <= {} concurrent checkpoints",
        tuner.max_concurrent()
    );

    // Profiling round: measure Tw(N) with the simulator instead of the
    // analytic model (the tool's empirical step). §3.4 defines Tw at worst
    // case — all N checkpoints ongoing — so profile at interval 1, where
    // contention is maximal.
    let rec = tuner.recommend_with(|n| {
        let report = SimConfig::ssd_a100(&model, 1_000_000, 150)
            .with_strategy(StrategyCfg::pccheck(n, 3))
            .with_interval(1)
            .run();
        report.mean_write_time
    });
    println!(
        "recommendation: N* = {}, f* = {} iterations (Tw = {})",
        rec.concurrent, rec.interval, rec.write_time
    );

    // Validate: run at f* and compare against the no-checkpoint run.
    let iters = (rec.interval * 20).clamp(200, 2000);
    let ideal = SimConfig::ssd_a100(&model, rec.interval, iters)
        .with_strategy(StrategyCfg::Ideal)
        .run();
    let tuned = SimConfig::ssd_a100(&model, rec.interval, iters)
        .with_strategy(StrategyCfg::pccheck(rec.concurrent, 3))
        .run();
    let slowdown = tuned.slowdown_vs(&ideal);
    println!(
        "measured slowdown at f*: {slowdown:.4} (budget was {:.2})",
        1.05
    );
    assert!(
        slowdown <= 1.05 * 1.02,
        "tuner must keep overhead within ~budget, got {slowdown}"
    );

    // And for contrast: checkpointing 5x more often than recommended.
    let aggressive_f = (rec.interval / 5).max(1);
    let aggressive = SimConfig::ssd_a100(&model, aggressive_f, 400)
        .with_strategy(StrategyCfg::pccheck(rec.concurrent, 3))
        .run();
    let ideal_a = SimConfig::ssd_a100(&model, aggressive_f, 400)
        .with_strategy(StrategyCfg::Ideal)
        .run();
    println!(
        "checkpointing every {aggressive_f} iterations instead: slowdown {:.3}",
        aggressive.slowdown_vs(&ideal_a)
    );
    Ok(())
}
