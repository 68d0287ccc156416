//! Training on spot VMs: replay a synthetic GCP A100 preemption trace
//! against full-scale simulated BLOOM-7B training and compare the goodput
//! of PCcheck vs CheckFreq vs Gemini vs the ideal system — the scenario
//! behind Figures 2 and 9 of the paper.
//!
//! Run with: `cargo run --release --example spot_training`

use pccheck_device::CrashPolicy;
use pccheck_gpu::ModelZoo;
use pccheck_harness::forensics_run::{run_to_crash, ForensicsRunConfig};
use pccheck_monitor::{CheckpointVerdict, InFlightPhase};
use pccheck_sim::{SimConfig, StrategyCfg};
use pccheck_trace::{GoodputReplay, PreemptionTrace};

fn main() {
    let model = ModelZoo::bloom_7b();
    let trace = PreemptionTrace::synthetic_gcp_a100(2024);
    println!(
        "spot trace: {} preemptions over {:.1} h (GCP A100 statistics)",
        trace.len(),
        trace.window().as_secs_f64() / 3600.0
    );

    // Checkpoint load time: reading an 18 GB shard back from the pd-ssd.
    let base = SimConfig::ssd_a100(&model, 10, 10);
    let load = base.storage_bandwidth.transfer_time(base.checkpoint_size);
    let replay = GoodputReplay::new(load);

    println!(
        "\n{:<14} {:>9} {:>12} {:>11} {:>12}",
        "strategy", "interval", "goodput", "rollbacks", "lost iters"
    );
    for interval in [1u64, 10, 25, 50, 100] {
        let iters = (interval * 20).clamp(200, 2000);
        let ideal = replay.ideal(base.iter_time, interval, &trace);
        println!(
            "{:<14} {:>9} {:>12.5} {:>11} {:>12.1}",
            "ideal", interval, ideal.goodput, ideal.rollbacks, ideal.avg_lost_iterations
        );
        for strategy in [
            StrategyCfg::CheckFreq,
            StrategyCfg::Gemini,
            StrategyCfg::pccheck(2, 3),
        ] {
            let report = SimConfig::ssd_a100(&model, interval, iters)
                .with_strategy(strategy)
                .run();
            let g = replay.replay(&report, &trace);
            println!(
                "{:<14} {:>9} {:>12.5} {:>11} {:>12.1}",
                report.strategy, interval, g.goodput, g.rollbacks, g.avg_lost_iterations
            );
        }
        println!();
    }
    println!("Higher goodput at small intervals is PCcheck's concurrent-checkpoint win;");
    println!("at large intervals everyone converges but loses more work per preemption.");

    // Each preemption above pays the recovery protocol (scan the slots,
    // load the newest committed payload, verify its digest) before the
    // shard reload + recompute terms. Measure it on a concrete crashed
    // store rather than modeling it: crash on the first persist that finds
    // a checkpoint's payload durable but not yet committed, with an older
    // one committed to fall back on.
    let cfg = ForensicsRunConfig::default();
    let run = (0..)
        .map_while(|k| {
            run_to_crash(&cfg, pccheck::DEFAULT_JOB, k, CrashPolicy::DropUnpersisted)
                .expect("crash scenario")
        })
        .find(|run| {
            let last = run
                .counters
                .last()
                .and_then(|c| run.report.checkpoints.get(c));
            let persisted = matches!(
                last,
                Some(CheckpointVerdict::InFlight {
                    phase: InFlightPhase::Persisted,
                    ..
                })
            );
            persisted && run.recovered.is_some()
        })
        .expect("some persist lands between payload persist and commit");
    let (_, trace) = run.recovered.as_ref().expect("found with a recovery");
    println!(
        "\nmeasured recovery protocol after a mid-checkpoint preemption: \
         {:.1} us (scan {:.1} us, load {:.1} us, verify {:.1} us), \
         forensic audit {}",
        trace.total_nanos as f64 / 1e3,
        trace.scan_nanos as f64 / 1e3,
        trace.load_nanos as f64 / 1e3,
        trace.verify_nanos as f64 / 1e3,
        if run.report.is_clean() {
            "clean"
        } else {
            "VIOLATED"
        },
    );
}
