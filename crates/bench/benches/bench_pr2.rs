//! Flight-recorder era benchmark: one instrumented concrete run per
//! strategy plus measured crash→audit→recovery scenarios, emitted as
//! `BENCH_pr2.json` at the repository root.
//!
//! Unlike the figure benches (which regenerate the paper's plots through
//! the DES), this target reports *measured* numbers from the wall-clock
//! substrate: throughput/goodput, training-thread stall percentiles,
//! commit-phase latency percentiles, and the recovery-protocol phase
//! breakdown captured by [`pccheck::RecoveryTrace`] at every injected
//! crash point. CI runs it as a smoke test and archives the JSON.

use std::fmt::Write as _;

use pccheck::RestoreOptions;
use pccheck_harness::forensics_run::{run_crash_scenario, CrashPoint, ForensicsRunConfig};
use pccheck_harness::telemetry_run::{run_instrumented, InstrumentedRunConfig, STRATEGIES};
use pccheck_telemetry::{EventKind, Phase};

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn main() {
    let cfg = InstrumentedRunConfig {
        state_bytes: 256 * 1024,
        iterations: 40,
        interval: 5,
        ..InstrumentedRunConfig::default()
    };

    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"bench_pr2\",\n");
    let _ = writeln!(
        json,
        "  \"config\": {{\"state_bytes\": {}, \"iterations\": {}, \"interval\": {}}},",
        cfg.state_bytes, cfg.iterations, cfg.interval
    );

    println!(
        "[bench_pr2] instrumented runs ({} iterations)",
        cfg.iterations
    );
    json.push_str("  \"strategies\": [\n");
    for (i, strategy) in STRATEGIES.iter().enumerate() {
        let run = run_instrumented(strategy, &cfg).expect("strategy runs");
        let mut stalls: Vec<u64> = run
            .telemetry
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Stall { nanos } => Some(nanos),
                _ => None,
            })
            .collect();
        stalls.sort_unstable();
        let commit = run.snapshot.phase(Phase::Commit);
        // One failure, load time excluded: the runs last milliseconds, so
        // a fixed load constant would swamp the window — the rollback
        // recompute term is the comparable cross-strategy signal.
        let goodput = run
            .accounting
            .goodput(1, 0.0)
            .map(|g| g.goodput)
            .unwrap_or(0.0);
        println!(
            "  {:<12} throughput={:.1}/s goodput={:.1}/s stall={:.2}% commit_p99={}ns",
            strategy,
            run.accounting.throughput(),
            goodput,
            run.accounting.stall_fraction() * 100.0,
            commit.p99_nanos,
        );
        let _ = write!(
            json,
            "    {{\"strategy\": \"{}\", \"throughput_iters_per_sec\": {:.3}, \
             \"goodput_iters_per_sec\": {:.3}, \"stall_fraction\": {:.6}, \
             \"slowdown\": {:.4}, \"stall_p50_nanos\": {}, \"stall_p95_nanos\": {}, \
             \"stall_p99_nanos\": {}, \"commit_count\": {}, \"commit_p50_nanos\": {}, \
             \"commit_p95_nanos\": {}, \"commit_p99_nanos\": {}, \"committed\": {}, \
             \"failed\": {}}}",
            strategy,
            run.accounting.throughput(),
            goodput,
            run.accounting.stall_fraction(),
            run.accounting.slowdown(),
            percentile(&stalls, 0.50),
            percentile(&stalls, 0.95),
            percentile(&stalls, 0.99),
            commit.count,
            commit.p50_nanos,
            commit.p95_nanos,
            commit.p99_nanos,
            run.snapshot.counters.committed,
            run.snapshot.counters.failed,
        );
        json.push_str(if i + 1 < STRATEGIES.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("  ],\n");

    println!("[bench_pr2] crash → audit → recovery scenarios");
    json.push_str("  \"recovery\": [\n");
    let fcfg = ForensicsRunConfig::default();
    for (i, point) in CrashPoint::ALL.iter().enumerate() {
        let run =
            run_crash_scenario(*point, &fcfg, RestoreOptions::default()).expect("scenario runs");
        println!(
            "  {:<28} recovered=#{} (iter {}) total={}ns audit_clean={}",
            run.crash_point.name(),
            run.recovered.counter,
            run.recovered.iteration,
            run.trace.total_nanos,
            run.report.is_clean(),
        );
        let _ = write!(
            json,
            "    {{\"crash_point\": \"{}\", \"recovered_counter\": {}, \
             \"recovered_iteration\": {}, \"scan_nanos\": {}, \"load_nanos\": {}, \
             \"verify_nanos\": {}, \"total_nanos\": {}, \"fallbacks\": {}, \
             \"audit_clean\": {}}}",
            run.crash_point.name(),
            run.recovered.counter,
            run.recovered.iteration,
            run.trace.scan_nanos,
            run.trace.load_nanos,
            run.trace.verify_nanos,
            run.trace.total_nanos,
            run.trace.fallbacks,
            run.report.is_clean(),
        );
        json.push_str(if i + 1 < CrashPoint::ALL.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("  ]\n}\n");

    let root = std::env::var("CARGO_MANIFEST_DIR")
        .map(|d| format!("{d}/../.."))
        .unwrap_or_else(|_| ".".into());
    let path = format!("{root}/BENCH_pr2.json");
    std::fs::write(&path, &json).expect("write BENCH_pr2.json");
    println!("[bench_pr2] wrote {path}");
}
