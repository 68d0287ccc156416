//! `pccheckd` — run the multi-tenant checkpoint service.
//!
//! ```bash
//! pccheckd smoke [jobs]                        # CI self-test, default 4 jobs
//! pccheckd serve <metrics-addr> <ctl-addr> [jobs]
//! ```
//!
//! `serve` stands up the shared store (a 4-way simulated stripe), seeds
//! `[jobs]` sim-backed tenants, and serves two endpoints until every job
//! drains: the metrics registry (`GET /metrics`, `GET /metrics.json`,
//! every family with per-`job` labelled series) on `<metrics-addr>` and
//! the control plane (`GET /jobs`, `/submit`, `/drain` — the surface
//! `pccheckctl job` talks to) on `<ctl-addr>`. On shutdown it audits the
//! shared store's commit-protocol invariants and exits nonzero if any
//! tenant's namespace is inconsistent.
//!
//! `smoke` is the same lifecycle against ephemeral ports, self-scraping
//! and asserting everything a CI gate needs: per-job counters present
//! and nonzero, `/metrics.json` agreeing with them on every job's
//! commits, QoS shares accounted, forensics clean.

use std::process::ExitCode;
use std::sync::Arc;

use pccheck_daemon::{ControlServer, Daemon, DaemonConfig};
use pccheck_telemetry::{http_get, validate_prometheus_text, MetricsServer};
use pccheck_util::json::JsonValue;

fn usage() -> ExitCode {
    eprintln!("usage: pccheckd smoke [jobs]");
    eprintln!("       pccheckd serve <metrics-addr> <ctl-addr> [jobs]");
    eprintln!("  smoke  run the full service lifecycle against ephemeral ports:");
    eprintln!("         submit sim jobs over the control endpoint, scrape and");
    eprintln!("         validate per-job metrics, drain, audit; nonzero on any");
    eprintln!("         failed assertion (the CI daemon-smoke gate)");
    eprintln!("  serve  run the service on fixed addresses until the seeded");
    eprintln!("         jobs (default 4) drain; scrape /metrics meanwhile and");
    eprintln!("         drive it with `pccheckctl job <cmd> <ctl-addr> ...`");
    ExitCode::from(2)
}

/// Extracts the value of the exposition line starting with `needle `.
fn sample_value(prom: &str, needle: &str) -> Option<f64> {
    prom.lines()
        .find(|l| l.starts_with(needle) && l.as_bytes().get(needle.len()) == Some(&b' '))
        .and_then(|l| l.rsplit_once(' '))
        .and_then(|(_, v)| v.parse().ok())
}

fn run_service(
    metrics_addr: &str,
    ctl_addr: &str,
    jobs: usize,
    verbose: bool,
) -> Result<(), Box<dyn std::error::Error>> {
    let daemon = Arc::new(Daemon::new(DaemonConfig::sim_default())?);
    let metrics = MetricsServer::bind(metrics_addr, daemon.registry().clone())?;
    let control = ControlServer::bind(ctl_addr, Arc::clone(&daemon))?;
    println!("metrics  http://{}", metrics.addr());
    println!("control  http://{}", control.addr());

    // Seed the tenants through the real control plane, unequal weights so
    // the QoS arbiter has something to arbitrate.
    for i in 0..jobs {
        let body = http_get(
            control.addr(),
            &format!(
                "/submit?name=smoke-{i}&iters=20&interval=2&weight={}",
                i + 1
            ),
        )?;
        if !body.contains("\"state\":\"running\"") {
            return Err(format!("job smoke-{i} did not start: {body}").into());
        }
        if verbose {
            println!("submitted smoke-{i}: {}", body.trim());
        }
    }
    if verbose {
        // Stay up for remote `pccheckctl job` interaction until asked to
        // leave (`pccheckctl job shutdown <ctl-addr>`), then run the
        // shutdown gates below.
        println!("serving until GET /shutdown on the control endpoint");
        while !daemon.quit_requested() {
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
    }
    daemon.join_all()?;

    // Gate 1: the exposition parses and carries nonzero per-job counters,
    // the JSON document agrees with it on every job's commits, the
    // unlabelled commits total the jobs', and the shared device's own
    // queue peak is nonzero.
    let prom = http_get(metrics.addr(), "/metrics")?;
    let samples = validate_prometheus_text(&prom)?;
    let doc = JsonValue::parse(&http_get(metrics.addr(), "/metrics.json")?)?;
    let mut total = 0.0;
    for i in 0..jobs {
        let needle = format!("pccheck_checkpoints_committed_total{{job=\"smoke-{i}\"}}");
        let committed = match sample_value(&prom, &needle) {
            Some(v) if v >= 1.0 => v,
            other => return Err(format!("{needle}: expected >= 1 commit, got {other:?}").into()),
        };
        let json = doc
            .get("jobs")
            .and_then(|jobs| jobs.get(&format!("smoke-{i}")))
            .and_then(|job| job.get("committed"))
            .and_then(JsonValue::as_f64);
        if json != Some(committed) {
            return Err(format!(
                "/metrics.json smoke-{i} committed {json:?}, {needle} {committed}"
            )
            .into());
        }
        let bytes = format!("pccheck_bytes_persisted_total{{job=\"smoke-{i}\"}}");
        match sample_value(&prom, &bytes) {
            Some(v) if v > 0.0 => {}
            other => return Err(format!("{bytes}: expected > 0, got {other:?}").into()),
        }
        total += committed;
    }
    let unlabelled = sample_value(&prom, "pccheck_checkpoints_committed_total");
    if unlabelled != Some(total) {
        return Err(format!(
            "pccheck_checkpoints_committed_total {unlabelled:?}, the jobs' sum {total}"
        )
        .into());
    }
    let peaks: Vec<u64> = doc
        .get("device_queue_peak")
        .and_then(JsonValue::as_array)
        .map_or(Vec::new(), |peaks| {
            peaks.iter().filter_map(JsonValue::as_u64).collect()
        });
    if !peaks.iter().any(|&p| p > 0) {
        return Err(format!("/metrics.json device_queue_peak all zero: {peaks:?}").into());
    }
    println!(
        "metrics: {samples} samples, per-job counters present and equal in JSON for {jobs} job(s), unlabelled commits {total}, device queue peaks {peaks:?}"
    );

    // Gate 2: the control plane agrees and QoS shares are accounted.
    let list = http_get(control.addr(), "/jobs")?;
    for i in 0..jobs {
        if !list.contains(&format!("\"name\":\"smoke-{i}\"")) {
            return Err(format!("/jobs is missing smoke-{i}: {list}").into());
        }
    }
    let shares = daemon.qos().shares();
    if jobs > 1 && shares.iter().filter(|(_, b)| *b > 0).count() < jobs {
        return Err(format!("QoS served-byte shares incomplete: {shares:?}").into());
    }
    for i in 0..jobs {
        http_get(control.addr(), &format!("/drain?name=smoke-{i}"))?;
    }

    // Gate 3: forensics-clean shutdown of the shared store.
    let report = daemon.shutdown()?;
    if !report.is_clean() {
        eprint!("{}", report.render());
        return Err(format!("{} invariant violation(s)", report.violations.len()).into());
    }
    println!(
        "forensics clean: {} namespace(s) audited, concurrency bound {}",
        report.namespace_recovery.len(),
        report.concurrency_limit
    );
    metrics.shutdown();
    control.shutdown();
    Ok(())
}

/// The `[jobs]` positional at `args[at]`, clamped to 1..=16: 4 when absent,
/// and a usage error naming it when it does not parse.
fn jobs_arg(args: &[String], at: usize) -> Result<usize, String> {
    let Some(s) = args.get(at) else {
        return Ok(4);
    };
    let jobs = s.parse::<usize>();
    let jobs = jobs.map_err(|_| format!("<jobs> {s:?} does not parse"))?;
    Ok(jobs.clamp(1, 16))
}

/// Parses the command line into `(metrics addr, control addr, jobs,
/// verbose)`. A usage error (an unknown command, or an argument that is
/// missing, does not parse, or is one the command does not take) is `Err`,
/// and no daemon has started.
fn parse(args: &[String]) -> Result<(&str, &str, usize, bool), String> {
    let (takes, service) = match args.get(1).map(String::as_str) {
        Some("smoke") => (1, ("127.0.0.1:0", "127.0.0.1:0", false)),
        Some("serve") => match (args.get(2), args.get(3)) {
            (Some(m), Some(c)) => (3, (m.as_str(), c.as_str(), true)),
            _ => return Err("serve needs <metrics-addr> <ctl-addr>".into()),
        },
        Some(other) => return Err(format!("unknown command {other:?}")),
        None => return Err("missing command".into()),
    };
    if let Some(extra) = args.get(2 + takes) {
        return Err(format!("unexpected argument {extra:?}"));
    }
    let (metrics, control, verbose) = service;
    Ok((metrics, control, jobs_arg(args, 1 + takes)?, verbose))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let (metrics, control, jobs, verbose) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("pccheckd: {e}");
            return usage();
        }
    };
    match run_service(metrics, control, jobs, verbose) {
        Ok(()) => {
            println!("pccheckd: all gates passed");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("pccheckd: {e}");
            ExitCode::FAILURE
        }
    }
}
