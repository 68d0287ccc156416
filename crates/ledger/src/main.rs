//! `pccheck-ledger`: one end-to-end + per-layer performance ledger for the
//! checkpoint path. See `crates/ledger/README.md`.
//!
//! ```text
//! pccheck-ledger run --workload W [--seed S] [--seconds T] [--trace 0|1]
//!                    [--declared BENCHMARK.json] [--dump-spans FILE] [--inject-bitrot]
//! pccheck-ledger ledger [--seed S] [--seconds T] [--out FILE] [--env KEY=VALUE]...
//! pccheck-ledger selfcheck [--seed S] [--seconds T] [--env KEY=VALUE]...
//! pccheck-ledger diff A.json B.json
//! ```

mod api;
mod diff;
mod doc;
mod metrics;
mod probes;
mod single;
mod stats;
mod tenants;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use api::JsonValue;
use doc::{Check, LedgerDoc, RunDoc, Value, WorkloadDoc};
use metrics::Report;
use single::RunOptions;
use workload::{
    Plan, SingleSpec, REF_SECONDS, SATURATE_DENSE, SINGLES, SUB_WINDOWS, TENANTS, WORKLOAD_NAMES,
};

/// Arguments shared by the subcommands, parsed by hand.
#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
    declared: Option<PathBuf>,
    env: Vec<(String, String)>,
    files: Vec<PathBuf>,
    dump_spans: Option<PathBuf>,
    inject_bitrot: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        seconds: REF_SECONDS,
        ..Args::default()
    };
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => args.out = Some(value("a path")?.into()),
            "--declared" => args.declared = Some(value("a path")?.into()),
            "--dump-spans" => args.dump_spans = Some(value("a path")?.into()),
            "--inject-bitrot" => args.inject_bitrot = true,
            "--env" => {
                let kv = value("KEY=VALUE")?;
                let (k, v) = kv.split_once('=').ok_or("--env takes KEY=VALUE")?;
                args.env.push((k.to_string(), v.to_string()));
            }
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            _ => args.files.push(flag.into()),
        }
    }
    Ok(args)
}

/// `VmHWM` of this process, in MB (10^6 bytes).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024.0 / metrics::MB)
}

/// Runs one workload in this process.
fn run_workload(
    name: &str,
    seed: u64,
    plan_for: impl Fn(u64, u64) -> Plan,
    state_scale: u64,
    opts: &RunOptions,
) -> Result<Report, String> {
    // `shape` is the state the GPU probes are run on: the workload's own
    // for a single-tenant one, a dense state of a tenant's size otherwise.
    let (mut report, shape, state, plan) =
        if let Some(spec) = SINGLES.iter().find(|s| s.name == name) {
            let plan = plan_for(spec.ref_iters, spec.interval * SUB_WINDOWS as u64);
            let state = spec.state_bytes / state_scale;
            let report = single::run(spec, &plan, state, seed, opts).map_err(|e| e.to_string())?;
            (report, *spec, state, plan)
        } else if name == TENANTS.name {
            let plan = plan_for(TENANTS.ref_iters, TENANTS.interval);
            let state = TENANTS.state_bytes / state_scale;
            let report = tenants::run(&TENANTS, &plan, state, opts).map_err(|e| e.to_string())?;
            let shape = SingleSpec {
                chunk_bytes: TENANTS.chunk_bytes,
                ..SATURATE_DENSE
            };
            (report, shape, state, plan)
        } else {
            return Err(format!(
                "unknown workload {name:?}; known: {}",
                WORKLOAD_NAMES.join(", ")
            ));
        };
    if opts.traced() {
        probes::run_all(&mut report, &shape, state, seed, plan.probe_scale)
            .map_err(|e| e.to_string())?;
    }
    if !opts.traced() {
        let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
        report.put("failed_frac", failed_frac, "ratio");
        if let Some(rss) = peak_rss_mb() {
            report.put("peak_rss_mb", rss, "MB");
        }
    }
    Ok(report)
}

/// Names `BENCHMARK.json` declares for this kind of run.
fn declared_names(path: &Path, traced: bool) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v = JsonValue::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let key = if traced { "per_layer" } else { "end_to_end" };
    v.get(key)
        .and_then(JsonValue::as_array)
        .ok_or(format!("{} has no `{key}` list", path.display()))?
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or(format!("a `{key}` entry has no name"))
        })
        .collect()
}

fn print_metrics(run: &RunDoc) {
    for (name, v) in &run.metrics {
        println!("{name:<44} {:>16.4} {}", v.value, v.unit);
    }
    for p in &run.problems {
        println!("PROBLEM: {p}");
    }
}

fn cmd_run(args: &Args) -> Result<ExitCode, String> {
    let name = args.workload.as_deref().ok_or("run needs --workload")?;
    let (seconds, trace) = (args.seconds, args.trace);
    let opts = RunOptions {
        tracer: trace.then(trace::Tracer::new),
        inject_bitrot: args.inject_bitrot,
    };
    let report = run_workload(
        name,
        args.seed,
        |iters, group| Plan::new(iters, group, seconds, trace),
        1,
        &opts,
    )?;
    if let (Some(path), Some(tracer)) = (&args.dump_spans, &opts.tracer) {
        let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        trace::dump_spans(&tracer.spans(), std::io::BufWriter::new(file))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let mut run = RunDoc::from_report(&report);
    if let Some(path) = &args.declared {
        // The driver's view: exactly the metrics BENCHMARK.json declares.
        let names = declared_names(path, trace)?;
        let mut kept = Vec::with_capacity(names.len());
        for n in names {
            let v = run
                .get(&n)
                .cloned()
                .ok_or(format!("{name} produced no `{n}` metric"))?;
            kept.push((n, v));
        }
        run.metrics = kept;
    }
    print_metrics(&run);
    println!(
        "{}",
        if args.declared.is_some() {
            run.result_line()
        } else {
            run.to_json()
        }
    );
    Ok(if run.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs one workload in a child process (so `peak_rss_mb` is its own)
/// and parses the last line it prints.
fn child_run(name: &str, seed: u64, seconds: u64, traced: bool) -> Result<RunDoc, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args([
            "run",
            "--workload",
            name,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or(format!("{name} printed nothing (status {})", out.status))?;
    let v = JsonValue::parse(last)
        .map_err(|e| format!("{name}: last line is not JSON ({e}): {last}"))?;
    RunDoc::from_json(&v)
}

/// Median run of `runs` untraced runs, with `(max − min) ÷ median` as
/// each metric's spread; failures and problems accumulate.
fn median_of_runs(runs: Vec<RunDoc>) -> RunDoc {
    let mut out = runs[0].clone();
    for (name, v) in &mut out.metrics {
        let xs: Vec<f64> = runs
            .iter()
            .filter_map(|r| r.get(name))
            .map(|v| v.value)
            .collect();
        let xs = api::Summary::from_samples(&xs);
        v.value = xs.median();
        if runs.len() > 1 && v.value != 0.0 {
            v.spread = Some((xs.max() - xs.min()) / v.value.abs());
        }
    }
    out.correct = runs.iter().all(|r| r.correct);
    out.attempted = runs.iter().map(|r| r.attempted).sum();
    out.failed = runs.iter().map(|r| r.failed).sum();
    out.problems = runs
        .iter()
        .flat_map(|r| r.problems.iter().cloned())
        .collect();
    out
}

/// Runs every workload in child processes: `runs` untraced runs each
/// (seeds `seed`, `seed + 1`, …), and one traced run when `traced`.
fn build_ledger(args: &Args, seed: u64, runs: u64, traced: bool) -> Result<LedgerDoc, String> {
    let mut workloads = Vec::new();
    for name in WORKLOAD_NAMES {
        let mut docs = Vec::new();
        for r in 0..runs {
            eprintln!("== {name}: untraced run {} of {runs}", r + 1);
            docs.push(child_run(name, seed + r, args.seconds, false)?);
        }
        let untraced = median_of_runs(docs);
        let mut traced_run = None;
        if traced {
            eprintln!("== {name}: traced run");
            let mut t = child_run(name, seed, args.seconds, true)?;
            // Cost of watching: how much slower the traced sustained
            // loop ran than the untraced one. The daemon's telemetry is
            // always on, so the comparison only means something for the
            // single-tenant workloads.
            let single = SINGLES.iter().any(|s| s.name == name);
            if let (true, Some(with), Some(without)) = (
                single,
                t.get("core.engine.traced_iter_per_s"),
                untraced.get("train_iter_per_s"),
            ) {
                let overhead = 1.0 - with.value / without.value;
                t.metrics.push((
                    "telemetry.overhead_frac".into(),
                    Value {
                        value: overhead,
                        unit: "ratio".into(),
                        spread: None,
                    },
                ));
            }
            traced_run = Some(t);
        }
        workloads.push(WorkloadDoc {
            name: name.to_string(),
            why: workload::why(name).unwrap_or_default().to_string(),
            untraced,
            traced: traced_run,
        });
    }
    let mut doc = LedgerDoc {
        env: args.env.clone(),
        seed,
        seconds: args.seconds,
        runs,
        workloads,
        checks: Vec::new(),
    };
    doc.checks = cross_checks(&doc);
    Ok(doc)
}

/// Checks that need more than one run: write amplification per workload
/// and the span accounting on `saturate_dense`.
fn cross_checks(doc: &LedgerDoc) -> Vec<Check> {
    let mut checks = Vec::new();
    for w in &doc.workloads {
        checks.push(Check {
            name: format!("{}.verified", w.name),
            ok: w.untraced.correct && w.traced.iter().all(|t| t.correct),
            detail: format!(
                "{} of {} checked operations failed",
                w.untraced.failed, w.untraced.attempted
            ),
        });
        if let Some(amp) = w.untraced.get("write_amp") {
            let codec = SINGLES.iter().any(|s| s.name == w.name && s.codec);
            let ok = if codec {
                amp.value < 0.5
            } else {
                (amp.value - 1.0).abs() <= 0.02
            };
            checks.push(Check {
                name: format!("{}.write_amp", w.name),
                ok,
                detail: format!(
                    "{:.4} ({})",
                    amp.value,
                    if codec {
                        "codec on: must be < 0.5"
                    } else {
                        "codec off: must be 1.00 ± 0.02"
                    }
                ),
            });
        }
    }
    if let Some(w) = doc.workload(SATURATE_DENSE.name) {
        if let (Some(t), Some(persist)) = (&w.traced, w.untraced.get("persist_ms_p50")) {
            if let (Some(own), Some(union)) = (
                t.get("core.engine.persist_self_ms_p50"),
                t.get("device.span_union_ms_p50"),
            ) {
                let off = (own.value + union.value) / persist.value - 1.0;
                checks.push(Check {
                    name: "saturate_dense.span_accounting".into(),
                    ok: off.abs() <= 0.10,
                    detail: format!(
                        "traced self {:.2} ms + device union {:.2} ms vs untraced persist_ms_p50 {:.2} ms: {:+.1}%",
                        own.value, union.value, persist.value, off * 100.0
                    ),
                });
            }
        }
    }
    checks
}

fn print_ledger(doc: &LedgerDoc) {
    for w in &doc.workloads {
        println!("--- {} (untraced, end to end) ---", w.name);
        print_metrics(&w.untraced);
        if let Some(t) = &w.traced {
            println!("--- {} (traced, per layer) ---", w.name);
            print_metrics(t);
        }
    }
    println!("--- checks ---");
    for c in &doc.checks {
        println!(
            "{:<36} {}  {}",
            c.name,
            if c.ok { "ok  " } else { "FAIL" },
            c.detail
        );
    }
}

fn cmd_ledger(args: &Args) -> Result<ExitCode, String> {
    let doc = build_ledger(args, args.seed, 1, true)?;
    print_ledger(&doc);
    if let Some(path) = &args.out {
        std::fs::write(path, doc.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    let ok = doc.checks.iter().all(|c| c.ok);
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Two sets of three untraced runs of this same binary, diffed: every
/// end-to-end metric must come out `same` (or `better`) under its own
/// bound, or the bound is too tight for this machine.
fn cmd_selfcheck(args: &Args) -> Result<ExitCode, String> {
    let a = build_ledger(args, args.seed, 3, false)?;
    let b = build_ledger(args, args.seed + 100, 3, false)?;
    let rows = diff::diff(&a, &b)?;
    print!("{}", diff::render(&rows));
    if let Some(path) = &args.out {
        std::fs::write(path, b.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    // The sets agree when no median moved by more than its bound, in
    // either direction. A row the differ calls `unresolved` had a noisy
    // set; it is reported, and fails only if its medians disagree too.
    let disagree: Vec<_> = rows
        .iter()
        .filter(|r| {
            let spec = metrics::end_to_end(r.metric).expect("rows come from declared metrics");
            diff::judge(spec, r.a, r.b, 0.0).1 != diff::Verdict::Same
        })
        .collect();
    let noisy = rows
        .iter()
        .filter(|r| r.verdict == diff::Verdict::Unresolved)
        .count();
    let verified = a.checks.iter().chain(&b.checks).all(|c| c.ok);
    println!(
        "selfcheck: {} rows, {} set medians disagree beyond their bound, {noisy} rows had a set noisier than the bound, verification {}",
        rows.len(),
        disagree.len(),
        if verified { "ok" } else { "FAILED" }
    );
    Ok(if disagree.is_empty() && verified {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_diff(args: &Args) -> Result<ExitCode, String> {
    let [a, b] = args.files.as_slice() else {
        return Err("diff takes exactly two documents".into());
    };
    let load = |p: &PathBuf| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        LedgerDoc::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let rows = diff::diff(&load(a)?, &load(b)?)?;
    print!("{}", diff::render(&rows));
    let worse = rows.iter().any(|r| r.verdict == diff::Verdict::Worse);
    Ok(if worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_default();
    let outcome = parse_args(argv).and_then(|args| match command.as_str() {
        "run" => cmd_run(&args),
        "ledger" => cmd_ledger(&args),
        "selfcheck" => cmd_selfcheck(&args),
        "diff" => cmd_diff(&args),
        other => Err(format!(
            "unknown command {other:?}: use run, ledger, selfcheck or diff"
        )),
    });
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("pccheck-ledger: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_agrees_with_the_declarations() {
        let path = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        let v = JsonValue::parse(&text).unwrap();
        assert_eq!(
            v.get("run_seconds").and_then(JsonValue::as_u64),
            Some(REF_SECONDS)
        );
        let names: Vec<&str> = v
            .get("workloads")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(JsonValue::as_str).unwrap())
            .collect();
        assert_eq!(names, WORKLOAD_NAMES);
        for m in v.get("end_to_end").and_then(JsonValue::as_array).unwrap() {
            let name = m.get("name").and_then(JsonValue::as_str).unwrap();
            let spec =
                metrics::end_to_end(name).unwrap_or_else(|| panic!("{name} is not declared"));
            assert_eq!(
                m.get("unit").and_then(JsonValue::as_str),
                Some(spec.unit),
                "{name}"
            );
            assert_eq!(
                m.get("better").and_then(JsonValue::as_str),
                Some(spec.better.name()),
                "{name}"
            );
            assert_eq!(
                m.get("bound").and_then(JsonValue::as_f64),
                Some(spec.bound),
                "{name}"
            );
        }
        assert_eq!(metrics::END_TO_END.len(), 10);
    }

    /// Every workload, small: 1 MiB of state (the tenants get 128 KiB),
    /// five sustained iterations, every phase and every verification.
    #[test]
    fn smoke_every_workload_reports_every_declared_metric_and_no_failure() {
        let declared = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json"));
        for name in WORKLOAD_NAMES {
            for traced in [false, true] {
                let opts = RunOptions {
                    tracer: traced.then(trace::Tracer::new),
                    inject_bitrot: false,
                };
                let report =
                    run_workload(name, 7, |_, group| Plan::smoke(group), 32, &opts).unwrap();
                assert!(
                    report.correct(),
                    "{name} traced={traced}: {:?}",
                    report.problems
                );
                assert!(report.attempted > 0);
                for want in declared_names(&declared, traced).unwrap() {
                    assert!(
                        report.get(&want).is_some(),
                        "{name} traced={traced} lacks {want}"
                    );
                }
                if !traced {
                    assert_eq!(report.get("failed_frac"), Some(0.0), "{name}");
                }
            }
        }
    }

    #[test]
    fn bit_rot_in_the_newest_slot_fails_the_run() {
        let opts = RunOptions {
            tracer: None,
            inject_bitrot: true,
        };
        let report = run_workload(
            SATURATE_DENSE.name,
            7,
            |_, group| Plan::smoke(group),
            32,
            &opts,
        )
        .unwrap();
        assert!(!report.correct());
        assert!(
            report.problems.iter().any(|p| p.contains("recovery 0")),
            "{:?}",
            report.problems
        );
    }
}
