//! The live metrics registry: on-demand exposition of every counter,
//! gauge, and histogram a [`Telemetry`] recorder holds.
//!
//! Every exposed metric is declared once, in one of two tables: a row of
//! `SCALARS` names a counter or gauge (Prometheus name and help, JSON
//! place and key, whether each job's JSON object carries it, and its
//! reader over a [`TelemetrySnapshot`]); an entry of `HISTOGRAMS` names a
//! histogram family (Prometheus name and help, JSON key, the recorder
//! histogram and the snapshot summary). Every exposition walks the
//! tables: [`prometheus_text`] (text exposition), [`json`] (one
//! schema-tagged object), and the human views that `pccheckctl top`
//! ([`console_view`]) and the run summary
//! ([`render_summary`](crate::render_summary)) share. Adding a counter is
//! its recorder atomic, setter, snapshot field, its line in
//! `MemoryRecorder::fold` and one row, plus its row in README's metrics
//! table, which a test holds to these tables.
//! [`MetricsServer`] serves the two documents over a minimal hand-rolled
//! HTTP listener (`GET /metrics`, `GET /metrics.json`).
//!
//! Metric names are part of the schema: `pccheck_` prefix, `_total`
//! suffix on monotonic counters (and only on them), nanosecond
//! histograms with power-of-two `le` bounds matching
//! `LatencyHistogram`'s buckets.
//!
//! [`prometheus_text`]: MetricsRegistry::prometheus_text
//! [`json`]: MetricsRegistry::json
//! [`console_view`]: MetricsRegistry::console_view

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pccheck_device::PersistentDevice;
use pccheck_util::json::escape_json;
use pccheck_util::sync::Mutex;

use crate::event::Phase;
use crate::export::{human_bytes, human_nanos, json_f64};
use crate::histogram::{HistogramSummary, LatencyHistogram};
use crate::recorder::{MemoryRecorder, Telemetry, TelemetrySnapshot, MAX_TRACKED_DEVICES};

/// Schema identifier stamped into the JSON exposition so downstream
/// scrapers can detect format changes.
pub(crate) const METRICS_SCHEMA: &str = "pccheck.metrics.v1";

/// A scalar's value in one snapshot.
#[derive(Debug, Clone, Copy)]
enum Value {
    Int(u64),
    Float(f64),
    /// One value per tracked device: `device="<i>"` series and a JSON
    /// array. A per-device family has no `job` series.
    PerDevice([u64; MAX_TRACKED_DEVICES]),
}

/// Where a scalar sits in the JSON document, in document order.
#[derive(Debug, Clone, Copy, PartialEq)]
enum JsonAt {
    /// At the root, before the `counters` object.
    Head,
    Counters,
    Gauges,
    /// At the root, after the `gauges` object.
    Tail,
}

/// One scalar family, declared once: every exposition derives from its
/// row. A family whose name ends in `_total` is a counter, any other a
/// gauge; each registered job adds a `job="<name>"` series.
struct Scalar {
    /// Prometheus family name.
    prom: &'static str,
    /// Prometheus `# HELP` text.
    help: &'static str,
    /// Place and key in the JSON document. The human views name the value
    /// by this key and print it in the unit the key ends in (see
    /// [`human`]).
    json: (JsonAt, &'static str),
    /// Whether each job's object under the JSON `jobs` member carries it
    /// too, under the same key.
    job_json: bool,
    read: fn(&TelemetrySnapshot) -> Value,
}

impl Scalar {
    fn kind(&self) -> &'static str {
        if self.prom.ends_with("_total") {
            "counter"
        } else {
            "gauge"
        }
    }
}

/// Every scalar the registry exposes, in exposition order.
const SCALARS: [Scalar; 20] = [
    Scalar {
        prom: "pccheck_checkpoints_requested_total",
        help: "Checkpoint requests accepted.",
        json: (JsonAt::Counters, "requested"),
        job_json: true,
        read: |s| Value::Int(s.counters.requested),
    },
    Scalar {
        prom: "pccheck_checkpoints_committed_total",
        help: "Checkpoints that became the latest committed state.",
        json: (JsonAt::Counters, "committed"),
        job_json: true,
        read: |s| Value::Int(s.counters.committed),
    },
    Scalar {
        prom: "pccheck_checkpoints_superseded_total",
        help: "Checkpoints that lost the commit race.",
        json: (JsonAt::Counters, "superseded"),
        job_json: true,
        read: |s| Value::Int(s.counters.superseded),
    },
    Scalar {
        prom: "pccheck_checkpoints_failed_total",
        help: "Checkpoints that failed.",
        json: (JsonAt::Counters, "failed"),
        job_json: true,
        read: |s| Value::Int(s.counters.failed),
    },
    Scalar {
        prom: "pccheck_bytes_persisted_total",
        help: "Payload bytes of committed checkpoints.",
        json: (JsonAt::Counters, "bytes_persisted"),
        job_json: true,
        read: |s| Value::Int(s.counters.bytes_persisted),
    },
    Scalar {
        prom: "pccheck_gpu_copy_bytes_total",
        help: "Bytes moved by the GPU-to-DRAM copy phase.",
        json: (JsonAt::Counters, "gpu_copy_bytes"),
        job_json: false,
        read: |s| Value::Int(s.gpu_copy_bytes),
    },
    Scalar {
        prom: "pccheck_persist_chunk_bytes_total",
        help: "Bytes moved by the DRAM-to-device persist phase.",
        json: (JsonAt::Counters, "persist_chunk_bytes"),
        job_json: false,
        read: |s| Value::Int(s.persist_chunk_bytes),
    },
    Scalar {
        prom: "pccheck_restore_chunk_bytes_total",
        help: "Bytes moved by the device-to-DRAM restore-read phase.",
        json: (JsonAt::Counters, "restore_chunk_bytes"),
        job_json: false,
        read: |s| Value::Int(s.restore_chunk_bytes),
    },
    Scalar {
        prom: "pccheck_codec_bytes_saved_total",
        help: "Payload bytes the chunk codec avoided persisting.",
        json: (JsonAt::Counters, "codec_bytes_saved"),
        job_json: false,
        read: |s| Value::Int(s.codec_bytes_saved),
    },
    Scalar {
        prom: "pccheck_dedup_chunks_total",
        help: "Chunks stored as dedup references instead of bytes.",
        json: (JsonAt::Counters, "dedup_chunks"),
        job_json: false,
        read: |s| Value::Int(s.dedup_chunks),
    },
    Scalar {
        prom: "pccheck_in_flight",
        help: "Checkpoints between request and terminal event.",
        json: (JsonAt::Gauges, "in_flight"),
        job_json: false,
        read: |s| Value::Int(s.in_flight),
    },
    Scalar {
        prom: "pccheck_in_flight_peak",
        help: "High-water mark of concurrent in-flight checkpoints.",
        json: (JsonAt::Gauges, "in_flight_peak"),
        job_json: false,
        read: |s| Value::Int(s.in_flight_peak),
    },
    Scalar {
        prom: "pccheck_queue_depth",
        help: "Last observed free-slot queue depth.",
        json: (JsonAt::Gauges, "queue_depth"),
        job_json: false,
        read: |s| Value::Int(s.queue_depth),
    },
    Scalar {
        prom: "pccheck_queue_depth_peak",
        help: "High-water mark of the free-slot queue depth.",
        json: (JsonAt::Gauges, "queue_depth_peak"),
        job_json: false,
        read: |s| Value::Int(s.queue_depth_peak),
    },
    Scalar {
        prom: "pccheck_dirty_ratio_permille",
        help: "Last observed snapshot dirty ratio (framed path), permille.",
        json: (JsonAt::Gauges, "dirty_ratio_permille"),
        job_json: false,
        read: |s| Value::Int(s.dirty_ratio_permille),
    },
    Scalar {
        prom: "pccheck_compression_ratio_permille",
        help: "Last observed framed physical/logical size ratio, permille.",
        json: (JsonAt::Gauges, "compression_ratio_permille"),
        job_json: false,
        read: |s| Value::Int(s.compression_ratio_permille),
    },
    Scalar {
        prom: "pccheck_window_nanos",
        help: "Nanoseconds since the recorder epoch.",
        json: (JsonAt::Head, "window_nanos"),
        job_json: false,
        read: |s| Value::Int(s.window_nanos),
    },
    Scalar {
        prom: "pccheck_stall_fraction",
        help: "Fraction of the window the training thread spent stalled.",
        json: (JsonAt::Gauges, "stall_fraction"),
        job_json: true,
        read: |s| Value::Float(s.stall_fraction()),
    },
    Scalar {
        prom: "pccheck_device_queue_depth",
        help: "Current submission-queue depth per tracked device.",
        json: (JsonAt::Tail, "device_queue_depth"),
        job_json: false,
        read: |s| Value::PerDevice(s.device_queue_depth),
    },
    Scalar {
        prom: "pccheck_device_queue_peak",
        help: "High-water submission-queue depth per tracked device.",
        json: (JsonAt::Tail, "device_queue_peak"),
        job_json: false,
        read: |s| Value::PerDevice(s.device_queue_peak),
    },
];

/// A job's values that are no series of their own, after its rows with
/// `job_json`: JSON key (its suffix the human unit, as in [`Scalar::json`])
/// and a reader over the job's snapshot and every job's snapshot.
type JobExtra = (&'static str, fn(&TelemetrySnapshot, &[View]) -> Value);

const JOB_EXTRAS: [JobExtra; 2] = [
    ("commit_p99_nanos", |s, _| {
        Value::Int(s.phase(Phase::Commit).p99_nanos)
    }),
    // The job's fraction of all jobs' committed payload bytes: the
    // realized QoS bandwidth split across tenants.
    ("share", |s, jobs| {
        let total: u64 = jobs.iter().map(|j| j.snap.counters.bytes_persisted).sum();
        Value::Float(if total > 0 {
            s.counters.bytes_persisted as f64 / total as f64
        } else {
            0.0
        })
    }),
];

/// One histogram family, declared once.
struct Histogram {
    /// Prometheus family name.
    prom: &'static str,
    /// Prometheus `# HELP` text.
    help: &'static str,
    /// Key in the JSON `histograms` object; for a phased family, the
    /// prefix of `<prefix><phase name>`.
    json: &'static str,
    /// One `phase="<name>"` series per [`Phase`], and those again for
    /// each registered job, instead of one aggregate series.
    phased: bool,
    /// The recorder histogram behind a series (an unphased family's
    /// ignores the phase).
    hist: fn(&MemoryRecorder, Phase) -> &LatencyHistogram,
    /// The snapshot summary of the same series.
    summary: fn(&TelemetrySnapshot, Phase) -> &HistogramSummary,
}

impl Histogram {
    /// The family's series: its phase argument and its `phase` label.
    fn series(&self) -> impl Iterator<Item = (Phase, Option<&'static str>)> {
        let phased = self.phased;
        let n = if phased { Phase::ALL.len() } else { 1 };
        Phase::ALL[..n]
            .iter()
            .map(move |&p| (p, phased.then(|| p.name())))
    }
}

/// Every histogram family the registry exposes, in exposition order.
const HISTOGRAMS: [Histogram; 5] = [
    Histogram {
        prom: "pccheck_phase_latency_nanos",
        help: "Checkpoint/recovery lifecycle phase latency.",
        json: "phase_",
        phased: true,
        hist: |r, p| r.phase_hist(p),
        summary: |s, p| s.phase(p),
    },
    Histogram {
        prom: "pccheck_stall_nanos",
        help: "Training-thread stall time per checkpoint() call.",
        json: "stall",
        phased: false,
        hist: |r, _| &r.stall_hist,
        summary: |s, _| &s.stall,
    },
    Histogram {
        prom: "pccheck_dev_write_nanos",
        help: "Per-chunk device write latency.",
        json: "dev_write",
        phased: false,
        hist: |r, _| &r.write_stage_hist,
        summary: |s, _| &s.write_stage,
    },
    Histogram {
        prom: "pccheck_dev_persist_nanos",
        help: "Per-chunk device persist (fence) latency.",
        json: "dev_persist",
        phased: false,
        hist: |r, _| &r.persist_stage_hist,
        summary: |s, _| &s.persist_stage,
    },
    Histogram {
        prom: "pccheck_dev_read_nanos",
        help: "Per-chunk device read latency (restore path).",
        json: "dev_read",
        phased: false,
        hist: |r, _| &r.read_stage_hist,
        summary: |s, _| &s.read_stage,
    },
];

/// One recorder at one instant: the aggregate, or a registered job.
struct View {
    /// The job's name; `None` for the aggregate.
    job: Option<String>,
    recorder: Arc<MemoryRecorder>,
    snap: TelemetrySnapshot,
}

impl View {
    fn new(job: Option<String>, recorder: &Arc<MemoryRecorder>) -> Self {
        View {
            job,
            snap: recorder.snapshot(),
            recorder: Arc::clone(recorder),
        }
    }

    /// The view's Prometheus labels: none, or `job="<name>"`.
    fn labels(&self) -> Option<String> {
        let job = self.job.as_deref()?;
        Some(format!("job=\"{}\"", prom_label_escape(job)))
    }

    /// Its JSON-object columns under the document's `jobs` member: the
    /// rows with `job_json`, then [`JOB_EXTRAS`].
    fn job_columns(&self, jobs: &[View]) -> Vec<(&'static str, Value)> {
        let rows = SCALARS.iter().filter(|row| row.job_json);
        rows.map(|row| (row.json.1, (row.read)(&self.snap)))
            .chain(
                JOB_EXTRAS
                    .iter()
                    .map(|(key, read)| (*key, read(&self.snap, jobs))),
            )
            .collect()
    }
}

/// On-demand exposition over a shared [`Telemetry`] recorder.
///
/// Cloning is cheap (the handle inside is an `Arc` clone); a registry
/// built over a disabled handle renders empty-but-valid documents.
///
/// A multi-tenant service additionally registers one recorder per job
/// ([`register_job`]): every counter/gauge family then also carries
/// `job="<name>"`-labelled series, the unlabelled series total this
/// registry's recorder and every job's, the JSON document gains a
/// `"jobs"` object, and [`console_view`] renders one row per job. The job
/// list is shared across clones, so a [`MetricsServer`] sees jobs
/// submitted after it was bound. The per-device queue gauges are read
/// from the device the registry names ([`with_device`]) at every render;
/// a registry that names none renders them as zeros.
///
/// [`register_job`]: MetricsRegistry::register_job
/// [`console_view`]: MetricsRegistry::console_view
/// [`with_device`]: MetricsRegistry::with_device
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    telemetry: Telemetry,
    jobs: Arc<Mutex<Vec<(String, Telemetry)>>>,
    /// The device a service's jobs share, read at render time.
    device: Option<Arc<dyn PersistentDevice>>,
}

/// Escapes a label value for Prometheus text exposition (`\`, `"`, and
/// newlines; the only characters the format requires escaping).
fn prom_label_escape(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// `name`, followed by `labels` (comma-separated pairs) in braces unless
/// there are none.
fn prom_series(name: &str, labels: &str) -> String {
    if labels.is_empty() {
        name.to_string()
    } else {
        format!("{name}{{{labels}}}")
    }
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
    let sum = prom_series(&format!("{name}_sum"), labels);
    let count = prom_series(&format!("{name}_count"), labels);
    let _ = writeln!(out, "{sum} {}\n{count} {total}", hist.sum_nanos());
}

fn prom_metric(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// A value as JSON.
fn json_value(value: Value) -> String {
    match value {
        Value::Int(n) => n.to_string(),
        Value::Float(f) => json_f64(f),
        Value::PerDevice(values) => {
            let values: Vec<String> = values.iter().map(u64::to_string).collect();
            format!("[{}]", values.join(","))
        }
    }
}

/// Serializes one histogram summary as a JSON object (no surrounding key).
fn json_summary(s: &HistogramSummary) -> String {
    format!(
        "{{\"count\":{},\"sum_nanos\":{},\"min_nanos\":{},\"max_nanos\":{},\
         \"p50_nanos\":{},\"p95_nanos\":{},\"p99_nanos\":{}}}",
        s.count, s.sum_nanos, s.min_nanos, s.max_nanos, s.p50_nanos, s.p95_nanos, s.p99_nanos
    )
}

/// A value for the human views, in the unit its JSON `key` ends in:
/// bytes, nanoseconds or permille; a fraction as a percentage; a
/// per-device value as its JSON array.
fn human(key: &str, value: Value) -> String {
    match value {
        Value::Float(f) => format!("{:.2}%", f * 100.0),
        Value::Int(n) if key.contains("bytes") => human_bytes(n),
        Value::Int(n) if key.ends_with("_nanos") => human_nanos(n),
        Value::Int(n) if key.ends_with("_permille") => format!("{n}\u{2030}"),
        value => json_value(value),
    }
}

/// The human views' shared body (`pccheckctl top` and the run summary):
/// every [`SCALARS`] value, four to a line, then a latency row per
/// nonempty [`HISTOGRAMS`] series.
pub(crate) fn render_human(snap: &TelemetrySnapshot) -> String {
    let mut out = String::from("== checkpoint lifecycle ==\n");
    let cells: Vec<String> = SCALARS
        .iter()
        .map(|row| format!("{} {}", row.json.1, human(row.json.1, (row.read)(snap))))
        .collect();
    for line in cells.chunks(4) {
        let _ = writeln!(out, "  {}", line.join("  "));
    }
    let _ = writeln!(out, "\n== phase latency ==");
    let _ = writeln!(
        out,
        "  {:<15} {:>7} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "series", "count", "mean", "p50", "p95", "p99", "max"
    );
    for family in &HISTOGRAMS {
        for (phase, name) in family.series() {
            let s = (family.summary)(snap, phase);
            if s.count == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "  {:<15} {:>7} {:>10} {:>10} {:>10} {:>10} {:>10}",
                name.unwrap_or(family.json),
                s.count,
                human_nanos(s.mean_nanos()),
                human_nanos(s.p50_nanos),
                human_nanos(s.p95_nanos),
                human_nanos(s.p99_nanos),
                human_nanos(s.max_nanos),
            );
        }
    }
    out
}

impl MetricsRegistry {
    /// A registry exposing `telemetry`'s shared recorder.
    pub fn new(telemetry: Telemetry) -> Self {
        MetricsRegistry {
            telemetry,
            jobs: Arc::new(Mutex::new(Vec::new())),
            device: None,
        }
    }

    /// Reads the device queue gauges of the aggregate from `device`'s own
    /// counts at every render ([`TelemetrySnapshot::observe_device`]).
    pub fn with_device(mut self, device: Arc<dyn PersistentDevice>) -> Self {
        self.device = Some(device);
        self
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

    /// The aggregate, then every registered job whose handle is enabled,
    /// each freshly snapshotted; `None` when this registry's handle is
    /// disabled. The aggregate is this registry's recorder folded with
    /// every job's ([`MemoryRecorder::fold`]), so a service whose jobs
    /// record into their own handles reports their totals unlabelled, and
    /// its snapshot holds its device's queue counts.
    fn views(&self) -> Option<Vec<View>> {
        let own = self.telemetry.recorder()?;
        let jobs: Vec<View> = self
            .jobs
            .lock()
            .iter()
            .filter_map(|(name, t)| Some(View::new(Some(name.clone()), t.recorder()?)))
            .collect();
        let aggregate = if jobs.is_empty() {
            Arc::clone(own)
        } else {
            Arc::new(own.fold(jobs.iter().map(|job| &*job.recorder)))
        };
        let mut total = View::new(None, &aggregate);
        if let Some(device) = &self.device {
            total.snap.observe_device(&**device);
        }
        Some(std::iter::once(total).chain(jobs).collect())
    }

    /// The unlabelled series as one snapshot: this registry's recorder
    /// folded with every job's (`None` when the handle is disabled).
    pub fn snapshot(&self) -> Option<TelemetrySnapshot> {
        self.views().map(|views| views[0].snap)
    }

    /// Prometheus text exposition (format version 0.0.4) of the current
    /// recorder state. Stable names: `pccheck_*`, `_total` counters,
    /// nanosecond histograms with power-of-two `le` bounds.
    // api: a test oracle, listed in DESIGN §4 ("Test oracles").
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        let Some(views) = self.views() else {
            let _ = writeln!(out, "# pccheck telemetry disabled: no metrics");
            return out;
        };
        // Family-major: HELP/TYPE once, then the aggregate series, then
        // one `job`-labelled series per registered tenant.
        for row in &SCALARS {
            prom_metric(&mut out, row.prom, row.kind(), row.help);
            for view in &views {
                let labels = view.labels().unwrap_or_default();
                match (row.read)(&view.snap) {
                    Value::PerDevice(values) if view.job.is_none() => {
                        for (i, v) in values.iter().enumerate() {
                            let _ = writeln!(out, "{}{{device=\"{i}\"}} {v}", row.prom);
                        }
                    }
                    Value::PerDevice(_) => {}
                    value => {
                        let _ = writeln!(
                            out,
                            "{} {}",
                            prom_series(row.prom, &labels),
                            json_value(value)
                        );
                    }
                }
            }
        }
        for family in &HISTOGRAMS {
            prom_metric(&mut out, family.prom, "histogram", family.help);
            let views = if family.phased {
                &views[..]
            } else {
                &views[..1]
            };
            for view in views {
                for (phase, name) in family.series() {
                    let hist = (family.hist)(&view.recorder, phase);
                    if hist.count() == 0 {
                        continue;
                    }
                    let phase = name.map(|name| format!("phase=\"{name}\""));
                    let labels: Vec<String> = phase.into_iter().chain(view.labels()).collect();
                    prom_histogram(&mut out, family.prom, &labels.join(","), hist);
                }
            }
        }
        out
    }

    /// The whole snapshot as one JSON object with a stable
    /// `METRICS_SCHEMA` tag (hand-rolled, like every exporter in this
    /// crate).
    pub fn json(&self) -> String {
        let Some(views) = self.views() else {
            return format!("{{\"schema\":\"{METRICS_SCHEMA}\",\"enabled\":false}}\n");
        };
        let snap = &views[0].snap;
        let mut out = format!("{{\"schema\":\"{METRICS_SCHEMA}\",\"enabled\":true");
        for (at, object) in [
            (JsonAt::Head, None),
            (JsonAt::Counters, Some("counters")),
            (JsonAt::Gauges, Some("gauges")),
            (JsonAt::Tail, None),
        ] {
            let members: Vec<String> = SCALARS
                .iter()
                .filter(|row| row.json.0 == at)
                .map(|row| format!("\"{}\":{}", row.json.1, json_value((row.read)(snap))))
                .collect();
            let members = members.join(",");
            let _ = match object {
                Some(object) => write!(out, ",\"{object}\":{{{members}}}"),
                None if members.is_empty() => Ok(()),
                None => write!(out, ",{members}"),
            };
        }
        let histograms: Vec<String> = HISTOGRAMS
            .iter()
            .flat_map(|family| {
                family.series().filter_map(move |(phase, name)| {
                    let s = (family.summary)(snap, phase);
                    let key = format!("{}{}", family.json, name.unwrap_or(""));
                    (s.count > 0).then(|| format!("\"{key}\":{}", json_summary(s)))
                })
            })
            .collect();
        let _ = write!(out, ",\"histograms\":{{{}}}", histograms.join(","));
        let jobs = &views[1..];
        if !jobs.is_empty() {
            let objects: Vec<String> = jobs
                .iter()
                .map(|view| {
                    let columns: Vec<String> = view
                        .job_columns(jobs)
                        .into_iter()
                        .map(|(key, value)| format!("\"{key}\":{}", json_value(value)))
                        .collect();
                    let name = escape_json(view.job.as_deref().unwrap_or_default());
                    format!("\"{name}\":{{{}}}", columns.join(","))
                })
                .collect();
            let _ = write!(out, ",\"jobs\":{{{}}}", objects.join(","));
        }
        out.push_str("}\n");
        out
    }

    /// A one-screen console view (the `pccheckctl top` refresh body): the
    /// run summary's lifecycle and latency sections, then one row per
    /// registered job.
    pub fn console_view(&self) -> String {
        let Some(views) = self.views() else {
            return "telemetry disabled\n".to_string();
        };
        let mut out = render_human(&views[0].snap);
        let jobs = &views[1..];
        if let Some(first) = jobs.first() {
            let _ = write!(out, "\n== jobs ==\n  {:<12}", "job");
            let keys = first.job_columns(jobs);
            for (key, _) in &keys {
                let _ = write!(out, " {key:>10}");
            }
            for view in jobs {
                let _ = write!(out, "\n  {:<12}", view.job.as_deref().unwrap_or_default());
                for (key, value) in view.job_columns(jobs) {
                    let _ = write!(out, " {:>w$}", human(key, value), w = key.len().max(10));
                }
            }
            out.push('\n');
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
    use std::collections::BTreeSet;

    use crate::event::SpanId;
    use pccheck_device::{DeviceConfig, SsdDevice, StripedDevice};
    use pccheck_util::json::JsonValue;
    use pccheck_util::ByteSize;

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
        assert!(view.contains("requested 1  committed 1"), "{view}");
        assert!(view.contains("persist"));
        assert!(
            view.contains("codec_bytes_saved 1.00 KiB  dedup_chunks 3"),
            "{view}"
        );
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

    /// A registry whose every value is set by an explicit call (no
    /// `phase_done`, whose latency is the clock's) and whose device gauges
    /// are `device`'s, so two runs render the same documents except for
    /// the window and the stall fraction, which divides by it.
    fn golden_registry(device: Arc<dyn PersistentDevice>) -> MetricsRegistry {
        let t = Telemetry::enabled();
        let spans: Vec<SpanId> = (1..=4)
            .map(|i| t.span_requested("pccheck", i, 4096))
            .collect();
        t.chunk(spans[0], Phase::GpuCopy, 0, 4096);
        t.chunk(spans[0], Phase::Persist, 0, 4096);
        t.chunk(spans[0], Phase::RestoreRead, 0, 2048);
        t.committed(spans[0], 1, 4096);
        t.superseded(spans[1], 1);
        t.failed(spans[2], "device gone");
        t.stall(spans[0], 1_500);
        t.stall(spans[1], 40_000);
        t.stage_write(800);
        t.stage_persist(3_000);
        t.stage_read(90_000);
        t.gauge_queue_depth(3);
        t.gauge_queue_depth(1);
        t.gauge_dirty_ratio(250);
        t.add_codec_bytes_saved(1024);
        t.add_dedup_chunks(3);
        t.gauge_compression_ratio(750);
        let r = t.recorder().expect("enabled");
        for (phase, nanos) in [
            (Phase::GpuCopy, 12_000),
            (Phase::Persist, 700_000),
            (Phase::Persist, 1_300_000),
            (Phase::Commit, 5_000),
        ] {
            r.phase_hist(phase).record(nanos);
        }
        let reg = MetricsRegistry::new(t).with_device(device);
        for (name, commits) in [("alpha", 2u64), ("beta", 3)] {
            let j = Telemetry::enabled();
            for i in 1..=commits {
                let span = j.span_requested(name, i, 1024);
                j.stall(span, 100 * i);
                j.committed(span, i, 1024);
            }
            let jr = j.recorder().expect("enabled");
            jr.phase_hist(Phase::Commit).record(2_000 * commits);
            reg.register_job(name, j);
        }
        reg
    }

    /// `text` with the sample values of the clock-dependent families
    /// replaced by `_`.
    fn normalize_prometheus(text: &str) -> String {
        text.lines()
            .map(|line| {
                let clocked = ["pccheck_window_nanos", "pccheck_stall_fraction"]
                    .iter()
                    .any(|name| {
                        line.strip_prefix(name)
                            .is_some_and(|rest| rest.starts_with([' ', '{']))
                    });
                match line.rsplit_once(' ') {
                    Some((series, _)) if clocked => format!("{series} _\n"),
                    _ => format!("{line}\n"),
                }
            })
            .collect()
    }

    /// `value` with every `window_nanos` and `stall_fraction` member,
    /// at any depth, set to `null`.
    fn normalize_json(value: JsonValue) -> JsonValue {
        match value {
            JsonValue::Object(members) => JsonValue::Object(
                members
                    .into_iter()
                    .map(|(k, v)| {
                        let v = match k.as_str() {
                            "window_nanos" | "stall_fraction" => JsonValue::Null,
                            _ => normalize_json(v),
                        };
                        (k, v)
                    })
                    .collect(),
            ),
            other => other,
        }
    }

    /// Every exposition of a fixed registry, byte for byte (Prometheus)
    /// and member for member in order (JSON), against the checked-in
    /// documents.
    #[test]
    fn golden_registry_renders_the_checked_in_expositions() {
        // The device gauges are a 2-way stripe's own queues: two
        // submissions on the controller, one since completed, and five in
        // flight on the second member.
        let members: Vec<Arc<dyn PersistentDevice>> = (0..2)
            .map(|_| {
                let config = DeviceConfig::fast_for_tests(ByteSize::from_kb(64));
                Arc::new(SsdDevice::new(config)) as Arc<dyn PersistentDevice>
            })
            .collect();
        let striped = Arc::new(StripedDevice::new(members.clone(), ByteSize::from_kb(4)));
        let controller = striped.submit();
        drop(striped.submit());
        let member: Vec<_> = (0..5).map(|_| members[1].submit()).collect();
        let reg = golden_registry(striped.clone());
        assert_eq!(
            normalize_prometheus(&reg.prometheus_text()),
            normalize_prometheus(include_str!("../testdata/metrics.golden.prom"))
        );
        let parse = |doc: &str| normalize_json(JsonValue::parse(doc).expect("JSON parses"));
        assert_eq!(
            parse(&reg.json()),
            parse(include_str!("../testdata/metrics.golden.json"))
        );
        drop((controller, member));
    }

    #[test]
    fn job_names_are_json_escaped() {
        let reg = MetricsRegistry::new(Telemetry::enabled());
        reg.register_job("a\tb", Telemetry::enabled());
        let doc = JsonValue::parse(&reg.json()).expect("a control character in a job name");
        assert!(doc.get("jobs").and_then(|jobs| jobs.get("a\tb")).is_some());
    }

    /// README's metrics table, one family per row, is the declared set of
    /// families with their types.
    #[test]
    fn readme_metrics_table_matches_the_declared_families() {
        let readme = include_str!("../../../README.md");
        let table: BTreeSet<(&str, &str)> = readme
            .lines()
            .skip_while(|line| !line.starts_with("| Metric | Type |"))
            .skip(2)
            .take_while(|line| line.starts_with('|'))
            .map(|line| {
                let cells: Vec<&str> = line.split('|').map(str::trim).collect();
                let name = cells[1].trim_matches('`').split('{').next().unwrap_or("");
                (name, cells[2])
            })
            .collect();
        let declared: BTreeSet<(&str, &str)> = SCALARS
            .iter()
            .map(|row| (row.prom, row.kind()))
            .chain(HISTOGRAMS.iter().map(|family| (family.prom, "histogram")))
            .collect();
        assert_eq!(table, declared);
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
