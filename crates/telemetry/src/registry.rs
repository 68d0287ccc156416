//! The live metrics registry: on-demand exposition of every counter,
//! gauge, and histogram a [`Telemetry`] recorder holds.
//!
//! PRs 1–5 made the recorder rich but *post-hoc*: the numbers were only
//! reachable by draining the run and rendering a summary. The registry
//! closes that gap for live consumers (the multi-tenant daemon,
//! peer-health watchdogs, `pccheckctl serve`): [`MetricsRegistry`]
//! snapshots the shared recorder on demand into a stable schema and
//! renders it as Prometheus text exposition ([`prometheus_text`]) or a
//! single JSON object ([`json`]); [`MetricsServer`] serves both over a
//! minimal hand-rolled HTTP listener (`GET /metrics`, `GET
//! /metrics.json`) so `pccheckctl serve` and `examples/metrics_server.rs`
//! stay dependency-free.
//!
//! Metric names are part of the schema: `pccheck_` prefix, `_total`
//! suffix on monotonic counters, nanosecond histograms with power-of-two
//! `le` bounds matching `LatencyHistogram`'s buckets.
//!
//! [`prometheus_text`]: MetricsRegistry::prometheus_text
//! [`json`]: MetricsRegistry::json

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pccheck_util::sync::Mutex;

use crate::event::Phase;
use crate::histogram::LatencyHistogram;
use crate::recorder::{Telemetry, TelemetrySnapshot};

/// Schema identifier stamped into the JSON exposition so downstream
/// scrapers can detect format changes.
pub(crate) const METRICS_SCHEMA: &str = "pccheck.metrics.v1";

/// On-demand exposition over a shared [`Telemetry`] recorder.
///
/// Cloning is cheap (the handle inside is an `Arc` clone); a registry
/// built over a disabled handle renders empty-but-valid documents.
///
/// A multi-tenant service additionally registers one recorder per job
/// ([`register_job`]): every counter/gauge family then also carries
/// `job="<name>"`-labelled series, the JSON document gains a `"jobs"`
/// object, and [`console_view`] renders one row per job. The job list is
/// shared across clones, so a [`MetricsServer`] sees jobs submitted
/// after it was bound.
///
/// [`register_job`]: MetricsRegistry::register_job
/// [`console_view`]: MetricsRegistry::console_view
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    telemetry: Telemetry,
    jobs: Arc<Mutex<Vec<(String, Telemetry)>>>,
}

/// Escapes a label value for Prometheus text exposition (`\`, `"`, and
/// newlines; the only characters the format requires escaping).
fn prom_label_escape(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Emits one Prometheus histogram from raw bucket counts: cumulative
/// `_bucket{le=...}` series (only buckets that move the count, plus
/// `+Inf`), then `_sum` and `_count`.
fn prom_histogram(out: &mut String, name: &str, labels: &str, hist: &LatencyHistogram) {
    let counts = hist.bucket_counts();
    let total: u64 = counts.iter().sum();
    let sep = if labels.is_empty() { "" } else { "," };
    let mut cum = 0u64;
    for (i, c) in counts.iter().enumerate() {
        if *c == 0 {
            continue;
        }
        cum += c;
        let _ = writeln!(
            out,
            "{name}_bucket{{{labels}{sep}le=\"{}\"}} {cum}",
            LatencyHistogram::bucket_bound(i)
        );
    }
    let _ = writeln!(out, "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {total}");
    if labels.is_empty() {
        let _ = writeln!(out, "{name}_sum {}", hist.sum_nanos());
        let _ = writeln!(out, "{name}_count {total}");
    } else {
        let _ = writeln!(out, "{name}_sum{{{labels}}} {}", hist.sum_nanos());
        let _ = writeln!(out, "{name}_count{{{labels}}} {total}");
    }
}

fn prom_metric(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Serializes one histogram summary as a JSON object (no surrounding key).
fn json_summary(s: &crate::histogram::HistogramSummary) -> String {
    format!(
        "{{\"count\":{},\"sum_nanos\":{},\"min_nanos\":{},\"max_nanos\":{},\
         \"p50_nanos\":{},\"p95_nanos\":{},\"p99_nanos\":{}}}",
        s.count, s.sum_nanos, s.min_nanos, s.max_nanos, s.p50_nanos, s.p95_nanos, s.p99_nanos
    )
}

impl MetricsRegistry {
    /// A registry exposing `telemetry`'s shared recorder.
    pub fn new(telemetry: Telemetry) -> Self {
        MetricsRegistry {
            telemetry,
            jobs: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// The handle this registry snapshots.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Registers (or replaces) a per-job recorder under `name`. Every
    /// exposition then carries `job="<name>"`-labelled series alongside
    /// the aggregate. Shared across clones of this registry.
    pub fn register_job(&self, name: impl Into<String>, telemetry: Telemetry) {
        let name = name.into();
        let mut jobs = self.jobs.lock();
        if let Some(slot) = jobs.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = telemetry;
        } else {
            jobs.push((name, telemetry));
        }
    }

    /// One consistent per-job rollup: registered jobs whose handles are
    /// enabled, each with a fresh snapshot.
    fn jobs_snapshot(&self) -> Vec<(String, TelemetrySnapshot)> {
        self.jobs
            .lock()
            .iter()
            .filter_map(|(name, t)| t.snapshot().map(|s| (name.clone(), s)))
            .collect()
    }

    /// One consistent rollup of everything the recorder holds (`None`
    /// when the handle is disabled).
    pub fn snapshot(&self) -> Option<TelemetrySnapshot> {
        self.telemetry.snapshot()
    }

    /// Prometheus text exposition (format version 0.0.4) of the current
    /// recorder state. Stable names: `pccheck_*`, `_total` counters,
    /// nanosecond histograms with power-of-two `le` bounds.
    // api: a test oracle, listed in DESIGN §4 ("Test oracles").
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        let Some(snap) = self.telemetry.snapshot() else {
            let _ = writeln!(out, "# pccheck telemetry disabled: no metrics");
            return out;
        };
        let jobs = self.jobs_snapshot();
        // Family-major: HELP/TYPE once, then the aggregate series, then
        // one `job`-labelled series per registered tenant.
        type Sel = fn(&TelemetrySnapshot) -> u64;
        let counters: [(&str, &str, Sel); 10] = [
            (
                "pccheck_checkpoints_requested_total",
                "Checkpoint requests accepted.",
                |s: &TelemetrySnapshot| s.counters.requested,
            ),
            (
                "pccheck_checkpoints_committed_total",
                "Checkpoints that became the latest committed state.",
                |s| s.counters.committed,
            ),
            (
                "pccheck_checkpoints_superseded_total",
                "Checkpoints that lost the commit race.",
                |s| s.counters.superseded,
            ),
            (
                "pccheck_checkpoints_failed_total",
                "Checkpoints that failed.",
                |s| s.counters.failed,
            ),
            (
                "pccheck_bytes_persisted_total",
                "Payload bytes of committed checkpoints.",
                |s| s.counters.bytes_persisted,
            ),
            (
                "pccheck_gpu_copy_bytes_total",
                "Bytes moved by the GPU-to-DRAM copy phase.",
                |s| s.gpu_copy_bytes,
            ),
            (
                "pccheck_persist_chunk_bytes_total",
                "Bytes moved by the DRAM-to-device persist phase.",
                |s| s.persist_chunk_bytes,
            ),
            (
                "pccheck_restore_chunk_bytes_total",
                "Bytes moved by the device-to-DRAM restore-read phase.",
                |s| s.restore_chunk_bytes,
            ),
            (
                "pccheck_codec_bytes_saved_total",
                "Payload bytes the chunk codec avoided persisting.",
                |s| s.codec_bytes_saved,
            ),
            (
                "pccheck_dedup_chunks_total",
                "Chunks stored as dedup references instead of bytes.",
                |s| s.dedup_chunks,
            ),
        ];
        for (name, help, sel) in counters {
            prom_metric(&mut out, name, "counter", help);
            let _ = writeln!(out, "{name} {}", sel(&snap));
            for (job, js) in &jobs {
                let _ = writeln!(
                    out,
                    "{name}{{job=\"{}\"}} {}",
                    prom_label_escape(job),
                    sel(js)
                );
            }
        }
        let gauges: [(&str, &str, Sel); 7] = [
            (
                "pccheck_in_flight",
                "Checkpoints between request and terminal event.",
                |s: &TelemetrySnapshot| s.in_flight,
            ),
            (
                "pccheck_in_flight_peak",
                "High-water mark of concurrent in-flight checkpoints.",
                |s| s.in_flight_peak,
            ),
            (
                "pccheck_queue_depth",
                "Last observed free-slot queue depth.",
                |s| s.queue_depth,
            ),
            (
                "pccheck_queue_depth_peak",
                "High-water mark of the free-slot queue depth.",
                |s| s.queue_depth_peak,
            ),
            (
                "pccheck_dirty_ratio_permille",
                "Last observed snapshot dirty ratio (framed path), permille.",
                |s| s.dirty_ratio_permille,
            ),
            (
                "pccheck_compression_ratio_permille",
                "Last observed framed physical/logical size ratio, permille.",
                |s| s.compression_ratio_permille,
            ),
            (
                "pccheck_window_nanos",
                "Nanoseconds since the recorder epoch.",
                |s| s.window_nanos,
            ),
        ];
        for (name, help, sel) in gauges {
            prom_metric(&mut out, name, "gauge", help);
            let _ = writeln!(out, "{name} {}", sel(&snap));
            for (job, js) in &jobs {
                let _ = writeln!(
                    out,
                    "{name}{{job=\"{}\"}} {}",
                    prom_label_escape(job),
                    sel(js)
                );
            }
        }
        prom_metric(
            &mut out,
            "pccheck_stall_fraction",
            "gauge",
            "Fraction of the window the training thread spent stalled.",
        );
        let _ = writeln!(out, "pccheck_stall_fraction {}", snap.stall_fraction());
        for (job, js) in &jobs {
            let _ = writeln!(
                out,
                "pccheck_stall_fraction{{job=\"{}\"}} {}",
                prom_label_escape(job),
                js.stall_fraction()
            );
        }
        prom_metric(
            &mut out,
            "pccheck_device_queue_depth",
            "gauge",
            "Last observed submission-queue depth per tracked device.",
        );
        for (i, depth) in snap.device_queue_depth.iter().enumerate() {
            let _ = writeln!(out, "pccheck_device_queue_depth{{device=\"{i}\"}} {depth}");
        }
        prom_metric(
            &mut out,
            "pccheck_device_queue_peak",
            "gauge",
            "High-water submission-queue depth per tracked device.",
        );
        for (i, peak) in snap.device_queue_peak.iter().enumerate() {
            let _ = writeln!(out, "pccheck_device_queue_peak{{device=\"{i}\"}} {peak}");
        }
        if let Some(r) = self.telemetry.recorder() {
            prom_metric(
                &mut out,
                "pccheck_phase_latency_nanos",
                "histogram",
                "Checkpoint/recovery lifecycle phase latency.",
            );
            for phase in Phase::ALL {
                let hist = r.phase_hist(phase);
                if hist.count() == 0 {
                    continue;
                }
                prom_histogram(
                    &mut out,
                    "pccheck_phase_latency_nanos",
                    &format!("phase=\"{}\"", phase.name()),
                    hist,
                );
            }
            for (job, t) in self.jobs.lock().iter() {
                let Some(jr) = t.recorder() else { continue };
                for phase in Phase::ALL {
                    let hist = jr.phase_hist(phase);
                    if hist.count() == 0 {
                        continue;
                    }
                    prom_histogram(
                        &mut out,
                        "pccheck_phase_latency_nanos",
                        &format!(
                            "phase=\"{}\",job=\"{}\"",
                            phase.name(),
                            prom_label_escape(job)
                        ),
                        hist,
                    );
                }
            }
            for (name, help, hist) in [
                (
                    "pccheck_stall_nanos",
                    "Training-thread stall time per checkpoint() call.",
                    r.stall_hist(),
                ),
                (
                    "pccheck_dev_write_nanos",
                    "Per-chunk device write latency.",
                    r.write_stage_hist(),
                ),
                (
                    "pccheck_dev_persist_nanos",
                    "Per-chunk device persist (fence) latency.",
                    r.persist_stage_hist(),
                ),
                (
                    "pccheck_dev_read_nanos",
                    "Per-chunk device read latency (restore path).",
                    r.read_stage_hist(),
                ),
            ] {
                if hist.count() == 0 {
                    continue;
                }
                prom_metric(&mut out, name, "histogram", help);
                prom_histogram(&mut out, name, "", hist);
            }
        }
        out
    }

    /// The whole snapshot as one JSON object with a stable
    /// `METRICS_SCHEMA` tag (hand-rolled, like every exporter in this
    /// crate).
    pub fn json(&self) -> String {
        let Some(snap) = self.telemetry.snapshot() else {
            return format!("{{\"schema\":\"{METRICS_SCHEMA}\",\"enabled\":false}}\n");
        };
        let c = &snap.counters;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"schema\":\"{METRICS_SCHEMA}\",\"enabled\":true,\
             \"window_nanos\":{},\"counters\":{{\
             \"requested\":{},\"committed\":{},\"superseded\":{},\
             \"failed\":{},\"bytes_persisted\":{},\"gpu_copy_bytes\":{},\
             \"persist_chunk_bytes\":{},\"restore_chunk_bytes\":{},\
             \"codec_bytes_saved\":{},\
             \"dedup_chunks\":{}}},\"gauges\":{{\
             \"in_flight\":{},\"in_flight_peak\":{},\"queue_depth\":{},\
             \"queue_depth_peak\":{},\"dirty_ratio_permille\":{},\
             \"compression_ratio_permille\":{},\
             \"stall_fraction\":{}}}",
            snap.window_nanos,
            c.requested,
            c.committed,
            c.superseded,
            c.failed,
            c.bytes_persisted,
            snap.gpu_copy_bytes,
            snap.persist_chunk_bytes,
            snap.restore_chunk_bytes,
            snap.codec_bytes_saved,
            snap.dedup_chunks,
            snap.in_flight,
            snap.in_flight_peak,
            snap.queue_depth,
            snap.queue_depth_peak,
            snap.dirty_ratio_permille,
            snap.compression_ratio_permille,
            snap.stall_fraction(),
        );
        let depths: Vec<String> = snap.device_queue_depth.iter().map(u64::to_string).collect();
        let peaks: Vec<String> = snap.device_queue_peak.iter().map(u64::to_string).collect();
        let _ = write!(
            out,
            ",\"device_queue_depth\":[{}],\"device_queue_peak\":[{}],\"histograms\":{{",
            depths.join(","),
            peaks.join(",")
        );
        let mut first = true;
        for phase in Phase::ALL {
            let s = snap.phase(phase);
            if s.count == 0 {
                continue;
            }
            let _ = write!(
                out,
                "{}\"phase_{}\":{}",
                if first { "" } else { "," },
                phase.name(),
                json_summary(s)
            );
            first = false;
        }
        for (name, s) in [
            ("stall", &snap.stall),
            ("dev_write", &snap.write_stage),
            ("dev_persist", &snap.persist_stage),
            ("dev_read", &snap.read_stage),
        ] {
            if s.count == 0 {
                continue;
            }
            let _ = write!(
                out,
                "{}\"{}\":{}",
                if first { "" } else { "," },
                name,
                json_summary(s)
            );
            first = false;
        }
        let _ = write!(out, "}}");
        let jobs = self.jobs_snapshot();
        if !jobs.is_empty() {
            let total: u64 = jobs.iter().map(|(_, s)| s.counters.bytes_persisted).sum();
            let _ = write!(out, ",\"jobs\":{{");
            for (i, (name, s)) in jobs.iter().enumerate() {
                let share = if total > 0 {
                    s.counters.bytes_persisted as f64 / total as f64
                } else {
                    0.0
                };
                let _ = write!(
                    out,
                    "{}\"{}\":{{\"requested\":{},\"committed\":{},\
                     \"superseded\":{},\"failed\":{},\"bytes_persisted\":{},\
                     \"stall_fraction\":{},\"commit_p99_nanos\":{},\"share\":{}}}",
                    if i == 0 { "" } else { "," },
                    prom_label_escape(name),
                    s.counters.requested,
                    s.counters.committed,
                    s.counters.superseded,
                    s.counters.failed,
                    s.counters.bytes_persisted,
                    s.stall_fraction(),
                    s.phase(Phase::Commit).p99_nanos,
                    share,
                );
            }
            let _ = write!(out, "}}");
        }
        let _ = writeln!(out, "}}");
        out
    }

    /// A compact one-screen console view (the `pccheckctl top` refresh
    /// body): lifecycle counts, stall fraction, hot-phase latencies, and
    /// queue pressure.
    pub fn console_view(&self) -> String {
        let mut out = String::new();
        let Some(snap) = self.telemetry.snapshot() else {
            let _ = writeln!(out, "telemetry disabled");
            return out;
        };
        let c = &snap.counters;
        let _ = writeln!(
            out,
            "ckpt req {} ok {} lost {} fail {} | in-flight {}/{} | stall {:.2}%",
            c.requested,
            c.committed,
            c.superseded,
            c.failed,
            snap.in_flight,
            snap.in_flight_peak,
            snap.stall_fraction() * 100.0
        );
        for phase in [
            Phase::TicketWait,
            Phase::GpuCopy,
            Phase::Persist,
            Phase::Commit,
        ] {
            let s = snap.phase(phase);
            if s.count == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "  {:<11} n={:<6} p50 {:>9}ns p99 {:>9}ns max {:>9}ns",
                phase.name(),
                s.count,
                s.p50_nanos,
                s.p99_nanos,
                s.max_nanos
            );
        }
        let peaks: Vec<String> = snap
            .device_queue_peak
            .iter()
            .enumerate()
            .filter(|&(_, &p)| p > 0)
            .map(|(i, p)| format!("dev{i}={}/{p}", snap.device_queue_depth[i]))
            .collect();
        if !peaks.is_empty() {
            let _ = writeln!(out, "  queues: {}", peaks.join(" "));
        }
        if snap.codec_bytes_saved > 0 || snap.dedup_chunks > 0 {
            let _ = writeln!(
                out,
                "  codec: saved {} B, {} dedup chunks, ratio {}‰",
                snap.codec_bytes_saved, snap.dedup_chunks, snap.compression_ratio_permille
            );
        }
        let jobs = self.jobs_snapshot();
        if !jobs.is_empty() {
            // Share = this job's fraction of all committed payload bytes —
            // the realized QoS bandwidth split across tenants.
            let total: u64 = jobs.iter().map(|(_, s)| s.counters.bytes_persisted).sum();
            let _ = writeln!(
                out,
                "  {:<12} {:>6} {:>12} {:>8} {:>14} {:>6}",
                "job", "ok", "commit-p99", "stall", "bytes", "share"
            );
            for (name, s) in &jobs {
                let share = if total > 0 {
                    100.0 * s.counters.bytes_persisted as f64 / total as f64
                } else {
                    0.0
                };
                let _ = writeln!(
                    out,
                    "  {:<12} {:>6} {:>10}ns {:>7.2}% {:>14} {:>5.1}%",
                    name,
                    s.counters.committed,
                    s.phase(Phase::Commit).p99_nanos,
                    s.stall_fraction() * 100.0,
                    s.counters.bytes_persisted,
                    share
                );
            }
        }
        out
    }
}

/// Longest request head (request line and headers) an [`HttpListener`]
/// reads; a longer one is answered 431 and the connection closed. It also
/// bounds what the listener reads after answering.
const MAX_REQUEST_HEAD: u64 = 8 * 1024;

/// One answer from an [`HttpRoute`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code and reason, e.g. `"200 OK"`.
    pub status: &'static str,
    /// The `Content-Type` header value.
    pub content_type: &'static str,
    /// The response body.
    pub body: String,
}

/// What an [`HttpListener`] serves: the answer to one `GET` of `target`
/// (the request's path and query).
pub trait HttpRoute {
    /// Answers `GET target`.
    fn get(&self, target: &str) -> HttpResponse;
}

impl<R: HttpRoute + ?Sized> HttpRoute for Arc<R> {
    fn get(&self, target: &str) -> HttpResponse {
        (**self).get(target)
    }
}

/// Reads one request head from `reader` and renders the response to it:
/// `route`'s answer to a `GET`, 405 for another method, 400 for a request
/// line that does not parse, 431 for a head over [`MAX_REQUEST_HEAD`].
/// `None` when the peer sent nothing.
fn respond(reader: &mut impl BufRead, route: &impl HttpRoute) -> Option<String> {
    let mut head = reader.take(MAX_REQUEST_HEAD);
    let mut request_line = Vec::new();
    // A read error (the 500 ms timeout) ends the head like EOF does.
    let _ = head.read_until(b'\n', &mut request_line);
    if request_line.is_empty() {
        return None;
    }
    // Drain headers so well-behaved clients see a clean close.
    let mut line = Vec::new();
    loop {
        line.clear();
        match head.read_until(b'\n', &mut line) {
            Ok(n) if n > 0 && line != b"\r\n" && line != b"\n" => {}
            _ => break,
        }
    }
    let response = if head.limit() == 0 {
        HttpResponse {
            status: "431 Request Header Fields Too Large",
            content_type: "text/plain",
            body: format!("request head over {MAX_REQUEST_HEAD} bytes\n"),
        }
    } else {
        let request_line = String::from_utf8_lossy(&request_line);
        let mut parts = request_line.split_whitespace();
        match (parts.next(), parts.next()) {
            (Some("GET"), Some(target)) => route.get(target),
            (Some(_), Some(_)) => HttpResponse {
                status: "405 Method Not Allowed",
                content_type: "text/plain",
                body: "GET only\n".into(),
            },
            _ => HttpResponse {
                status: "400 Bad Request",
                content_type: "text/plain",
                body: "malformed request line\n".into(),
            },
        }
    };
    Some(format!(
        "HTTP/1.1 {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{}",
        response.status,
        response.content_type,
        response.body.len(),
        response.body
    ))
}

fn serve_one(stream: TcpStream, route: &impl HttpRoute) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let mut reader = BufReader::new(stream);
    let response = respond(&mut reader, route);
    let mut stream = reader.into_inner();
    if let Some(response) = response {
        let _ = stream.write_all(response.as_bytes());
        let _ = stream.flush();
    }
    // Half-close and wait (bounded by the read timeout and the head
    // limit) for the client's EOF so the *client* closes first and
    // TIME_WAIT lands on its side. Otherwise a daemon restart can hit
    // EADDRINUSE: the kernel refuses to rebind a listening port while a
    // server-side TIME_WAIT socket from the previous incarnation still
    // holds it.
    let _ = stream.shutdown(Shutdown::Write);
    let _ = std::io::copy(&mut stream.take(MAX_REQUEST_HEAD), &mut std::io::sink());
}

/// A minimal HTTP endpoint over [`std::net::TcpListener`]: one blocking
/// accept loop on a background thread, one request per connection,
/// answered by an [`HttpRoute`] — deliberately tiny, for scrapes, `curl`
/// and `pccheckctl`, not for load. Joined on drop, so a restarted service
/// can rebind its port.
#[derive(Debug)]
pub struct HttpListener {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// The metrics endpoint: an [`HttpListener`] over a [`MetricsRegistry`].
pub type MetricsServer = HttpListener;

impl HttpListener {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// serves `route` on a background thread.
    ///
    /// # Errors
    ///
    /// Returns the bind/listen error as a string.
    pub fn bind(addr: &str, route: impl HttpRoute + Send + 'static) -> Result<Self, String> {
        let listener = TcpListener::bind(addr).map_err(|e| e.to_string())?;
        let local = listener.local_addr().map_err(|e| e.to_string())?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            for stream in listener.incoming() {
                match stream {
                    Ok(stream) => serve_one(stream, &route),
                    Err(_) => break,
                }
                // `shutdown` raises the flag, then connects once to wake
                // the accept above.
                if stop_flag.load(Ordering::Acquire) {
                    break;
                }
            }
        });
        Ok(HttpListener {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the thread, as dropping does.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for HttpListener {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        // Fails only if the loop already ended; it then joins at once.
        drop(TcpStream::connect(wake));
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// `GET /metrics` (Prometheus text) and `GET /metrics.json` (the
/// registry's JSON document); everything else is 404.
impl HttpRoute for MetricsRegistry {
    fn get(&self, target: &str) -> HttpResponse {
        let (status, content_type, body) = match target {
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4",
                self.prometheus_text(),
            ),
            "/metrics.json" => ("200 OK", "application/json", self.json()),
            _ => ("404 Not Found", "text/plain", "try /metrics\n".into()),
        };
        HttpResponse {
            status,
            content_type,
            body,
        }
    }
}

/// Fetches `path` from a running [`MetricsServer`] over a plain TCP GET —
/// the client half of the endpoint, used by `pccheckctl top` in remote
/// mode and the smoke tests.
///
/// # Errors
///
/// Returns connect/read errors as strings; the response must be an HTTP
/// 200 or the status line is returned as the error.
pub fn http_get(addr: SocketAddr, path: &str) -> Result<String, String> {
    let mut stream =
        TcpStream::connect_timeout(&addr, Duration::from_secs(2)).map_err(|e| e.to_string())?;
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: pccheck\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .map_err(|e| e.to_string())?;
    // Read headers line-by-line, then exactly `Content-Length` body bytes,
    // and close promptly — the server half-closes after responding and
    // waits for our FIN, so the client must not linger until timeout.
    let mut reader = BufReader::new(stream);
    let mut head = String::new();
    loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line).map_err(|e| e.to_string())?;
        if n == 0 || line == "\r\n" || line == "\n" {
            break;
        }
        head.push_str(&line);
    }
    let status = head.lines().next().unwrap_or("").to_string();
    if !status.contains("200") {
        return Err(format!("unexpected status: {status}"));
    }
    let content_length = head.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        k.eq_ignore_ascii_case("content-length")
            .then(|| v.trim().parse::<usize>().ok())?
    });
    let body = match content_length {
        Some(len) => {
            let mut buf = vec![0u8; len];
            reader.read_exact(&mut buf).map_err(|e| e.to_string())?;
            String::from_utf8(buf).map_err(|e| e.to_string())?
        }
        None => {
            let mut rest = String::new();
            reader
                .read_to_string(&mut rest)
                .map_err(|e| e.to_string())?;
            rest
        }
    };
    Ok(body)
}

/// Validates one `{...}` label body: comma-separated `name="value"`
/// pairs, label names matching `[a-zA-Z_][a-zA-Z0-9_]*`, values quoted
/// with `\\`/`\"`/`\n` escapes.
fn validate_labels(body: &str) -> Result<(), String> {
    let mut chars = body.chars();
    loop {
        let mut key = String::new();
        let mut next = chars.next();
        while let Some(c) = next {
            if c == '=' {
                break;
            }
            key.push(c);
            next = chars.next();
        }
        if next.is_none() {
            return Err(format!("label {key:?} has no value"));
        }
        if key.is_empty()
            || key.chars().next().is_some_and(|c| c.is_ascii_digit())
            || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
        {
            return Err(format!("bad label name {key:?}"));
        }
        if chars.next() != Some('"') {
            return Err(format!("label {key} value is not quoted"));
        }
        loop {
            match chars.next() {
                Some('\\') => {
                    chars.next();
                }
                Some('"') => break,
                Some(_) => {}
                None => return Err(format!("label {key} value is unterminated")),
            }
        }
        match chars.next() {
            None => return Ok(()),
            Some(',') => continue,
            Some(c) => return Err(format!("unexpected {c:?} after label {key}")),
        }
    }
}

/// Validates Prometheus text exposition shape: every non-comment line is
/// `name[{labels}] value` with well-formed labels (quoted values, legal
/// label names), histogram `_bucket` series are cumulative and end with
/// `+Inf`. Returns the number of samples on success.
///
/// # Errors
///
/// Returns a description of the first malformed line.
pub fn validate_prometheus_text(text: &str) -> Result<usize, String> {
    let mut samples = 0usize;
    let mut last_bucket: Option<(String, u64)> = None;
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name_part, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("no value on line: {line}"))?;
        value
            .parse::<f64>()
            .map_err(|_| format!("bad value {value:?} on line: {line}"))?;
        let name = name_part.split('{').next().unwrap_or(name_part);
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(format!("bad metric name on line: {line}"));
        }
        if let Some((_, rest)) = name_part.split_once('{') {
            let body = rest
                .strip_suffix('}')
                .ok_or_else(|| format!("unterminated labels on line: {line}"))?;
            validate_labels(body).map_err(|e| format!("{e} on line: {line}"))?;
        }
        if name.ends_with("_bucket") {
            // Cumulative within one series: the count must not decrease.
            let series = name_part
                .split("le=")
                .next()
                .unwrap_or(name_part)
                .to_string();
            let count = value.parse::<f64>().map_err(|e| e.to_string())? as u64;
            if let Some((prev_series, prev_count)) = &last_bucket {
                if *prev_series == series && count < *prev_count {
                    return Err(format!("non-cumulative buckets at: {line}"));
                }
            }
            last_bucket = Some((series, count));
        }
        samples += 1;
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SpanId;

    fn active_registry() -> MetricsRegistry {
        let t = Telemetry::enabled();
        let span = t.span_requested("pccheck", 1, 4096);
        let s = t.now_nanos();
        t.chunk(span, Phase::Persist, 0, 4096);
        t.phase_done(span, Phase::GpuCopy, s);
        t.phase_done(span, Phase::Persist, s);
        t.phase_done(span, Phase::Commit, s);
        t.stall(span, 1500);
        t.stage_write(800);
        t.gauge_device_queue(0, 2);
        t.add_codec_bytes_saved(1024);
        t.add_dedup_chunks(3);
        t.gauge_compression_ratio(750);
        t.committed(span, 1, 4096);
        t.actor_span_split(span, "writer-0", s, 4096, u64::MAX);
        MetricsRegistry::new(t)
    }

    #[test]
    fn prometheus_text_has_stable_names_and_parses() {
        let reg = active_registry();
        let text = reg.prometheus_text();
        assert!(text.contains("pccheck_checkpoints_requested_total 1"));
        assert!(text.contains("pccheck_checkpoints_committed_total 1"));
        assert!(text.contains("pccheck_bytes_persisted_total 4096"));
        assert!(text.contains("pccheck_persist_chunk_bytes_total 4096"));
        assert!(text.contains("pccheck_in_flight 0"));
        assert!(text.contains("pccheck_codec_bytes_saved_total 1024"));
        assert!(text.contains("pccheck_dedup_chunks_total 3"));
        assert!(text.contains("pccheck_compression_ratio_permille 750"));
        assert!(text.contains("pccheck_phase_latency_nanos_bucket{phase=\"persist\""));
        assert!(text.contains("pccheck_phase_latency_nanos_count{phase=\"commit\"} 1"));
        assert!(text.contains("pccheck_stall_nanos_sum 1500"));
        assert!(text.contains("pccheck_dev_write_nanos_count 1"));
        assert!(text.contains("le=\"+Inf\""));
        let samples = validate_prometheus_text(&text).expect("exposition parses");
        assert!(samples > 20, "expected a rich exposition, got {samples}");
    }

    #[test]
    fn disabled_registry_renders_valid_documents() {
        let reg = MetricsRegistry::new(Telemetry::disabled());
        let text = reg.prometheus_text();
        assert!(text.starts_with('#'));
        assert_eq!(validate_prometheus_text(&text), Ok(0));
        let json = reg.json();
        assert!(json.contains("\"enabled\":false"));
        assert!(reg.snapshot().is_none());
        assert!(reg.console_view().contains("disabled"));
    }

    #[test]
    fn json_document_is_balanced_and_tagged() {
        let reg = active_registry();
        let json = reg.json();
        assert!(json.contains(METRICS_SCHEMA));
        assert!(json.contains("\"requested\":1"));
        assert!(json.contains("\"codec_bytes_saved\":1024"));
        assert!(json.contains("\"dedup_chunks\":3"));
        assert!(json.contains("\"compression_ratio_permille\":750"));
        assert!(json.contains("\"phase_persist\":{"));
        assert!(json.contains("\"stall\":{"));
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(json.matches(open).count(), json.matches(close).count());
        }
    }

    #[test]
    fn console_view_shows_lifecycle_and_phases() {
        let reg = active_registry();
        let view = reg.console_view();
        assert!(view.contains("ckpt req 1 ok 1"));
        assert!(view.contains("persist"));
        assert!(view.contains("dev0="));
        assert!(view.contains("codec: saved 1024 B"), "{view}");
    }

    #[test]
    fn server_serves_both_routes() {
        let reg = active_registry();
        let server = MetricsServer::bind("127.0.0.1:0", reg).expect("bind");
        let addr = server.addr();
        let prom = http_get(addr, "/metrics").expect("prom route");
        assert!(prom.contains("pccheck_checkpoints_requested_total"));
        assert!(validate_prometheus_text(&prom).is_ok());
        let json = http_get(addr, "/metrics.json").expect("json route");
        assert!(json.contains(METRICS_SCHEMA));
        assert!(http_get(addr, "/nope").is_err());
        server.shutdown();
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(validate_prometheus_text("pccheck_x{broken 1").is_err());
        assert!(validate_prometheus_text("bad name 1").is_err());
        assert!(validate_prometheus_text("pccheck_x nope").is_err());
        assert_eq!(validate_prometheus_text("# only comments\n"), Ok(0));
        let _ = SpanId::NONE;
    }

    /// Byte flips, truncations and inserted lines over a real exposition:
    /// the validator answers every document and panics on none.
    #[test]
    fn mutated_expositions_never_panic_the_validator() {
        use pccheck_util::rng::{check, DEFAULT_CASES};
        const LINES: [&str; 5] = [
            "pccheck_x 1",
            "pccheck_x_bucket{le=\"+Inf\"} 0",
            "pccheck_x{job=\"a\\\"",
            "# HELP pccheck_x",
            "{} 1e999",
        ];
        let text = active_registry().prometheus_text();
        let samples = text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty());
        assert_eq!(validate_prometheus_text(&text), Ok(samples.count()));
        check(DEFAULT_CASES, |r| {
            let mut doc = text.as_bytes().to_vec();
            for _ in 0..r.range(1..4) {
                let at = r.range(0..doc.len() as u64 + 1) as usize;
                match r.range(0..3) {
                    0 if at < doc.len() => doc[at] ^= 1 << r.range(0..8),
                    1 => doc.truncate(at),
                    _ => {
                        // A whole line, at the start of the line `at` is in.
                        let start = doc[..at].iter().rposition(|&b| b == b'\n');
                        let start = start.map_or(0, |newline| newline + 1);
                        let line = LINES[r.range(0..LINES.len() as u64) as usize];
                        doc.splice(start..start, format!("{line}\n").into_bytes());
                    }
                }
            }
            let _ = validate_prometheus_text(&String::from_utf8_lossy(&doc));
        });
    }

    #[test]
    fn validator_checks_label_well_formedness() {
        assert_eq!(validate_prometheus_text("pccheck_x{job=\"a\"} 1"), Ok(1));
        assert_eq!(
            validate_prometheus_text("pccheck_x{phase=\"commit\",job=\"a b\"} 1"),
            Ok(1)
        );
        // Escaped quote inside a value is legal.
        assert_eq!(
            validate_prometheus_text("pccheck_x{job=\"a\\\"b\"} 1"),
            Ok(1)
        );
        // Unquoted value, bad label name, missing value, trailing junk.
        assert!(validate_prometheus_text("pccheck_x{job=a} 1").is_err());
        assert!(validate_prometheus_text("pccheck_x{1job=\"a\"} 1").is_err());
        assert!(validate_prometheus_text("pccheck_x{job-id=\"a\"} 1").is_err());
        assert!(validate_prometheus_text("pccheck_x{job} 1").is_err());
        assert!(validate_prometheus_text("pccheck_x{job=\"a\"extra} 1").is_err());
        assert!(validate_prometheus_text("pccheck_x{job=\"a} 1").is_err());
    }

    fn job_registry() -> MetricsRegistry {
        let reg = active_registry();
        for (name, iters) in [("alpha", 2u64), ("beta", 3u64)] {
            let t = Telemetry::enabled();
            for i in 1..=iters {
                let span = t.span_requested(name, i, 1024);
                let s = t.now_nanos();
                t.phase_done(span, Phase::Commit, s);
                t.stall(span, 100);
                t.committed(span, i, 1024);
            }
            reg.register_job(name, t);
        }
        reg
    }

    #[test]
    fn job_labels_appear_in_prometheus_and_json() {
        let reg = job_registry();
        let text = reg.prometheus_text();
        assert!(text.contains("pccheck_checkpoints_committed_total{job=\"alpha\"} 2"));
        assert!(text.contains("pccheck_checkpoints_committed_total{job=\"beta\"} 3"));
        assert!(text.contains("pccheck_bytes_persisted_total{job=\"beta\"} 3072"));
        assert!(text.contains("pccheck_stall_fraction{job=\"alpha\"}"));
        assert!(text.contains("phase=\"commit\",job=\"alpha\""));
        validate_prometheus_text(&text).expect("job-labelled exposition parses");
        let json = reg.json();
        assert!(json.contains("\"jobs\":{\"alpha\":{"));
        assert!(json.contains("\"beta\":{\"requested\":3"));
        assert!(json.contains("\"share\":0.6"));
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(json.matches(open).count(), json.matches(close).count());
        }
    }

    #[test]
    fn console_view_renders_per_job_rows() {
        let reg = job_registry();
        let view = reg.console_view();
        assert!(view.contains("job"), "{view}");
        assert!(view.contains("alpha"));
        assert!(view.contains("beta"));
        assert!(view.contains("share"));
    }

    #[test]
    fn jobs_registered_after_clone_are_visible_to_the_clone() {
        let reg = active_registry();
        let clone = reg.clone();
        reg.register_job("late", Telemetry::enabled());
        assert_eq!(
            clone.jobs.lock().len(),
            1,
            "job list is shared across clones"
        );
        assert!(clone.prometheus_text().contains("{job=\"late\"}"));
    }

    #[test]
    fn shutdown_releases_port_for_immediate_rebind() {
        let reg = active_registry();
        let server = MetricsServer::bind("127.0.0.1:0", reg.clone()).expect("bind");
        let addr = server.addr();
        let _ = http_get(addr, "/metrics").expect("scrape");
        server.shutdown();
        // Without the client-closes-first handshake in `serve_one`, the
        // scraped connection leaves a server-side TIME_WAIT socket and
        // this immediate rebind of the same port fails with EADDRINUSE.
        let server2 = MetricsServer::bind(&addr.to_string(), reg)
            .expect("immediate rebind of the same port after shutdown");
        assert_eq!(server2.addr(), addr);
        let body = http_get(addr, "/metrics.json").expect("scrape after rebind");
        assert!(body.contains(METRICS_SCHEMA));
        server2.shutdown();
    }
}
