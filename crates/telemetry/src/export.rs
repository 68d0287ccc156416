//! Exporters: human-readable summary, JSON lines, Chrome `trace_event`.
//!
//! All JSON is emitted by hand — the event model is small and flat, and
//! keeping the crate dependency-free matters more than a serializer. The
//! Chrome format follows the Trace Event spec closely enough for
//! `chrome://tracing` and Perfetto: one `"X"` complete event per lifecycle
//! phase (one track per checkpoint span), `"X"` stall slices on the
//! training-thread track, `"i"` instants for terminals and anomalies, and a
//! `"C"` counter series for iteration progress.

use std::fmt::Write as _;

use crate::accounting::RunAccounting;
use crate::event::{Event, EventKind, Phase};
use crate::recorder::TelemetrySnapshot;

/// Escapes `s` as JSON string *contents* (no surrounding quotes).
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats a float as a JSON number (`null` for non-finite values).
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

pub(crate) fn micros(nanos: u64) -> f64 {
    nanos as f64 / 1000.0
}

/// Renders nanoseconds compactly for the human summary (`1.234ms`).
pub(crate) fn human_nanos(nanos: u64) -> String {
    if nanos >= 1_000_000_000 {
        format!("{:.3}s", nanos as f64 / 1e9)
    } else if nanos >= 1_000_000 {
        format!("{:.3}ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        format!("{:.2}us", nanos as f64 / 1e3)
    } else {
        format!("{nanos}ns")
    }
}

pub(crate) fn human_bytes(bytes: u64) -> String {
    const GIB: f64 = 1024.0 * 1024.0 * 1024.0;
    const MIB: f64 = 1024.0 * 1024.0;
    const KIB: f64 = 1024.0;
    let b = bytes as f64;
    if b >= GIB {
        format!("{:.2} GiB", b / GIB)
    } else if b >= MIB {
        format!("{:.2} MiB", b / MIB)
    } else if b >= KIB {
        format!("{:.2} KiB", b / KIB)
    } else {
        format!("{bytes} B")
    }
}

/// Human-readable run report: counters, per-phase latency table,
/// stall/goodput accounting.
pub fn render_summary(snapshot: &TelemetrySnapshot, accounting: &RunAccounting) -> String {
    let mut out = String::new();
    let c = &snapshot.counters;
    let _ = writeln!(out, "== checkpoint lifecycle ==");
    let _ = writeln!(
        out,
        "  requested {}  committed {}  superseded {}  failed {}  in-flight {} (peak {})",
        c.requested,
        c.committed,
        c.superseded,
        c.failed,
        snapshot.in_flight,
        snapshot.in_flight_peak
    );
    let _ = writeln!(
        out,
        "  persisted {}  gpu-copied {}  free-slot queue depth {} (peak {})",
        human_bytes(c.bytes_persisted),
        human_bytes(snapshot.gpu_copy_bytes),
        snapshot.queue_depth,
        snapshot.queue_depth_peak
    );
    if snapshot.restore_chunk_bytes > 0 {
        let _ = writeln!(
            out,
            "  restore-read {} (device\u{2192}DRAM chunk fetches)",
            human_bytes(snapshot.restore_chunk_bytes)
        );
    }
    if snapshot.codec_bytes_saved > 0 || snapshot.dedup_chunks > 0 {
        let _ = writeln!(
            out,
            "  codec saved {} ({} dedup chunks, last frame {}\u{2030} of logical)",
            human_bytes(snapshot.codec_bytes_saved),
            snapshot.dedup_chunks,
            snapshot.compression_ratio_permille
        );
    }
    let _ = writeln!(out, "\n== phase latency ==");
    let _ = writeln!(
        out,
        "  {:<12} {:>7} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "phase", "count", "mean", "p50", "p95", "p99", "max"
    );
    for phase in Phase::ALL {
        let s = snapshot.phase(phase);
        if s.count == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "  {:<12} {:>7} {:>10} {:>10} {:>10} {:>10} {:>10}",
            phase.name(),
            s.count,
            human_nanos(s.mean_nanos()),
            human_nanos(s.p50_nanos),
            human_nanos(s.p95_nanos),
            human_nanos(s.p99_nanos),
            human_nanos(s.max_nanos),
        );
    }
    for (name, s) in [
        ("dev-write", &snapshot.write_stage),
        ("dev-persist", &snapshot.persist_stage),
        ("dev-read", &snapshot.read_stage),
    ] {
        if s.count == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "  {:<12} {:>7} {:>10} {:>10} {:>10} {:>10} {:>10}",
            name,
            s.count,
            human_nanos(s.mean_nanos()),
            human_nanos(s.p50_nanos),
            human_nanos(s.p95_nanos),
            human_nanos(s.p99_nanos),
            human_nanos(s.max_nanos),
        );
    }
    if snapshot.device_queue_peak.iter().any(|&p| p > 0) {
        let peaks: Vec<String> = snapshot
            .device_queue_peak
            .iter()
            .enumerate()
            .filter(|&(_, &p)| p > 0)
            .map(|(i, p)| format!("dev{i}={p}"))
            .collect();
        let _ = writeln!(out, "  submission-queue peaks: {}", peaks.join("  "));
    }
    let _ = writeln!(out, "\n== stall / goodput (Fig. 8/9) ==");
    let _ = writeln!(
        out,
        "  window {}  iterations {}  throughput {:.2} it/s",
        human_nanos(accounting.window_nanos),
        accounting.iterations,
        accounting.throughput()
    );
    let _ = writeln!(
        out,
        "  stall total {} ({:.2}% of window, {:.4}x slowdown)",
        human_nanos(accounting.stall_nanos),
        accounting.stall_fraction() * 100.0,
        accounting.slowdown()
    );
    let _ = writeln!(
        out,
        "  avg rollback depth {:.2} iterations",
        accounting.avg_rollback_depth
    );
    // Scale the illustrative failure scenario to the observed window so the
    // estimate stays informative for short runs (a fixed multi-second reload
    // would clamp any sub-second demo window straight to zero).
    let load_secs = accounting.window_secs() * 0.05;
    if let Some(g) = accounting.goodput(1, load_secs) {
        let _ = writeln!(
            out,
            "  goodput @ 1 rollback, {} load: {:.2} it/s ({:.1}% of failure-free)",
            human_nanos((load_secs * 1e9) as u64),
            g.goodput,
            if g.failure_free_throughput > 0.0 {
                g.goodput / g.failure_free_throughput * 100.0
            } else {
                0.0
            }
        );
    }
    out
}

fn kind_fields(kind: &EventKind) -> String {
    match kind {
        EventKind::Requested {
            strategy,
            iteration,
            bytes,
        } => format!(
            ",\"strategy\":\"{}\",\"iteration\":{iteration},\"bytes\":{bytes}",
            escape_json(strategy)
        ),
        EventKind::Queued => String::new(),
        EventKind::PhaseDone {
            phase,
            start_nanos,
            dur_nanos,
        } => format!(
            ",\"phase\":\"{}\",\"start_nanos\":{start_nanos},\"dur_nanos\":{dur_nanos}",
            phase.name()
        ),
        EventKind::Chunk { phase, offset, len } => {
            format!(
                ",\"phase\":\"{}\",\"offset\":{offset},\"len\":{len}",
                phase.name()
            )
        }
        EventKind::Stall { nanos } => format!(",\"nanos\":{nanos}"),
        EventKind::Committed { iteration, bytes } => {
            format!(",\"iteration\":{iteration},\"bytes\":{bytes}")
        }
        EventKind::Superseded { by_counter } => format!(",\"by_counter\":{by_counter}"),
        EventKind::Failed { error } => format!(",\"error\":\"{}\"", escape_json(error)),
        EventKind::Anomaly {
            iteration,
            magnitude,
            expected,
            ratio,
        } => format!(
            ",\"iteration\":{iteration},\"magnitude\":{},\"expected\":{},\"ratio\":{}",
            json_f64(*magnitude),
            json_f64(*expected),
            json_f64(*ratio)
        ),
        EventKind::IterationEnd { iteration } => format!(",\"iteration\":{iteration}"),
        EventKind::ActorSpan {
            actor,
            start_nanos,
            dur_nanos,
            bytes,
            media_nanos,
        } => format!(
            ",\"actor\":\"{}\",\"start_nanos\":{start_nanos},\"dur_nanos\":{dur_nanos},\"bytes\":{bytes},\"media_nanos\":{media_nanos}",
            escape_json(actor)
        ),
    }
}

/// One JSON object per event, newline-separated (JSONL). Each line carries
/// `at_nanos`, `span`, `event`, and the kind's fields flattened.
pub fn json_lines(events: &[Event]) -> String {
    let mut out = String::new();
    for e in events {
        let _ = writeln!(
            out,
            "{{\"at_nanos\":{},\"span\":{},\"event\":\"{}\"{}}}",
            e.at_nanos,
            e.span.0,
            e.kind.name(),
            kind_fields(&e.kind)
        );
    }
    out
}

/// First actor-lane `tid`; actor lanes sit far above span-id tids so
/// writer/reader/device lanes never collide with a checkpoint span track.
const ACTOR_TID_BASE: u64 = 900_000;

/// Chrome `trace_event` JSON (`{"traceEvents":[...]}`), loadable in
/// `chrome://tracing` and Perfetto. Timestamps are microseconds.
///
/// Checkpoint spans render one track per span id; hierarchical
/// [`EventKind::ActorSpan`] children (writers, restore readers, device
/// members) render on named per-actor lanes starting at thread id
/// 900000, each carrying its parent span id in `args`.
pub fn chrome_trace(events: &[Event]) -> String {
    chrome_trace_with(events, &[])
}

/// [`chrome_trace`] plus caller-supplied extra trace entries (already
/// rendered as JSON objects, no trailing comma). The profiler uses this to
/// annotate critical-path edges on their own lane without the exporter
/// knowing about ledgers.
pub(crate) fn chrome_trace_with(events: &[Event], extra_entries: &[String]) -> String {
    let mut entries: Vec<String> = Vec::with_capacity(events.len() + extra_entries.len() + 1);
    entries.push(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\
         \"args\":{\"name\":\"pccheck\"}}"
            .to_string(),
    );
    // Stable lane per distinct actor, assigned in first-seen order.
    let mut actor_lanes: Vec<&str> = Vec::new();
    for e in events {
        if let EventKind::ActorSpan { actor, .. } = &e.kind {
            if !actor_lanes.contains(&actor.as_str()) {
                actor_lanes.push(actor);
            }
        }
    }
    for (i, actor) in actor_lanes.iter().enumerate() {
        entries.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
             \"args\":{{\"name\":\"{}\"}}}}",
            ACTOR_TID_BASE + i as u64,
            escape_json(actor)
        ));
    }
    for e in events {
        let tid = e.span.0;
        let ts = micros(e.at_nanos);
        match &e.kind {
            EventKind::PhaseDone {
                phase,
                start_nanos,
                dur_nanos,
            } => entries.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"phase\",\"ph\":\"X\",\
                 \"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{tid}}}",
                phase.name(),
                json_f64(micros(*start_nanos)),
                json_f64(micros(*dur_nanos))
            )),
            EventKind::Stall { nanos } => entries.push(format!(
                "{{\"name\":\"stall\",\"cat\":\"train\",\"ph\":\"X\",\
                 \"ts\":{},\"dur\":{},\"pid\":1,\"tid\":0}}",
                json_f64(micros(e.at_nanos.saturating_sub(*nanos))),
                json_f64(micros(*nanos))
            )),
            EventKind::IterationEnd { iteration } => entries.push(format!(
                "{{\"name\":\"iteration\",\"ph\":\"C\",\"ts\":{},\"pid\":1,\
                 \"args\":{{\"iteration\":{iteration}}}}}",
                json_f64(ts)
            )),
            EventKind::Chunk { .. } => {
                // Chunks are too fine-grained for a trace track; the JSONL
                // exporter keeps them for bandwidth analysis.
            }
            EventKind::ActorSpan {
                actor,
                start_nanos,
                dur_nanos,
                bytes,
                media_nanos,
            } => {
                let lane = actor_lanes
                    .iter()
                    .position(|a| *a == actor.as_str())
                    .unwrap_or(0) as u64
                    + ACTOR_TID_BASE;
                entries.push(format!(
                    "{{\"name\":\"{}\",\"cat\":\"actor\",\"ph\":\"X\",\
                     \"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{lane},\
                     \"args\":{{\"parent_span\":{},\"bytes\":{bytes},\
                     \"media_nanos\":{media_nanos},\"queue_wait_nanos\":{}}}}}",
                    escape_json(actor),
                    json_f64(micros(*start_nanos)),
                    json_f64(micros(*dur_nanos)),
                    e.span.0,
                    dur_nanos.saturating_sub(*media_nanos)
                ));
            }
            kind => entries.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"lifecycle\",\"ph\":\"i\",\"s\":\"t\",\
                 \"ts\":{},\"pid\":1,\"tid\":{tid}}}",
                kind.name(),
                json_f64(ts)
            )),
        }
    }
    entries.extend(extra_entries.iter().cloned());
    format!("{{\"traceEvents\":[\n{}\n]}}\n", entries.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SpanId;
    use crate::recorder::Telemetry;

    fn sample_run() -> Telemetry {
        let t = Telemetry::enabled();
        let span = t.span_requested("pccheck", 3, 4096);
        t.span_queued(span);
        let s = t.now_nanos();
        t.chunk(span, Phase::GpuCopy, 0, 4096);
        t.phase_done(span, Phase::GpuCopy, s);
        let s = t.now_nanos();
        t.chunk(span, Phase::Persist, 0, 4096);
        t.phase_done(span, Phase::Persist, s);
        t.committed(span, 3, 4096);
        t.stall(span, 1500);
        t.iteration_end(3);
        t.anomaly(3, 0.9, 0.1, 9.0);
        t
    }

    #[test]
    fn escaping_handles_specials() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(2.5), "2.5");
    }

    #[test]
    fn json_lines_one_object_per_event() {
        let t = sample_run();
        let events = t.events();
        let out = json_lines(&events);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), events.len());
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"at_nanos\":"));
            assert!(line.contains("\"event\":\""));
        }
        assert!(out.contains("\"event\":\"requested\""));
        assert!(out.contains("\"strategy\":\"pccheck\""));
        assert!(out.contains("\"event\":\"anomaly\""));
    }

    #[test]
    fn chrome_trace_is_balanced_and_has_phases() {
        let t = sample_run();
        let out = chrome_trace(&t.events());
        assert!(out.starts_with("{\"traceEvents\":["));
        assert!(out.trim_end().ends_with("]}"));
        // Braces and brackets balance (no string in our output contains
        // them, so plain counting is sound).
        for (open, close) in [('{', '}'), ('[', ']')] {
            let o = out.matches(open).count();
            let c = out.matches(close).count();
            assert_eq!(o, c, "unbalanced {open}{close}");
        }
        assert!(out.contains("\"name\":\"gpu_copy\""));
        assert!(out.contains("\"name\":\"persist\""));
        assert!(out.contains("\"name\":\"stall\""));
        assert!(out.contains("\"ph\":\"C\""));
        // Chunks are deliberately omitted from the trace view.
        assert!(!out.contains("\"name\":\"chunk\""));
    }

    #[test]
    fn actor_spans_get_named_chrome_lanes() {
        let t = Telemetry::enabled();
        let span = t.span_requested("pccheck", 1, 4096);
        let s = t.now_nanos();
        t.actor_span_split(span, "writer-0", s, 2048, u64::MAX);
        t.actor_span_split(span, "writer-1", s, 2048, u64::MAX);
        t.actor_span_split(SpanId::NONE, "stripe-0", s, 1024, u64::MAX);
        t.phase_done(span, Phase::Persist, s);
        t.committed(span, 1, 4096);

        let out = chrome_trace(&t.events());
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(out.matches(open).count(), out.matches(close).count());
        }
        // One thread_name metadata entry per distinct actor, and the
        // complete events land on those lanes with the parent span id.
        assert!(out.contains("\"name\":\"thread_name\""));
        assert!(out.contains("\"name\":\"writer-0\""));
        assert!(out.contains("\"name\":\"writer-1\""));
        assert!(out.contains("\"name\":\"stripe-0\""));
        assert!(out.contains(&format!("\"tid\":{ACTOR_TID_BASE}")));
        assert!(out.contains(&format!("\"tid\":{}", ACTOR_TID_BASE + 2)));
        assert!(out.contains(&format!("\"parent_span\":{}", span.0)));
        assert!(out.contains("\"parent_span\":0"));

        // The JSONL exporter flattens the same fields.
        let lines = json_lines(&t.events());
        assert!(lines.contains("\"event\":\"actor_span\""));
        assert!(lines.contains("\"actor\":\"writer-1\""));
        assert!(lines.contains("\"bytes\":1024"));
    }

    #[test]
    fn summary_reports_restore_bytes() {
        let t = Telemetry::enabled();
        let span = t.span_requested("recovery", 0, 4096);
        let s = t.now_nanos();
        t.chunk(span, Phase::RestoreRead, 0, 4096);
        t.phase_done(span, Phase::RestoreRead, s);
        t.phase_done(span, Phase::RestoreVerify, s);
        t.phase_done(span, Phase::RestoreUpload, s);
        t.committed(span, 0, 4096);
        let snap = t.snapshot().unwrap();
        let acc = RunAccounting::from_events(&t.events());
        let text = render_summary(&snap, &acc);
        assert!(text.contains("restore-read 4.00 KiB"));
        assert!(text.contains("restore_read"));
        assert!(text.contains("restore_verify"));
        assert!(text.contains("restore_upload"));
    }

    #[test]
    fn summary_mentions_all_sections() {
        let t = sample_run();
        let snap = t.snapshot().unwrap();
        let acc = RunAccounting::from_events(&t.events());
        let text = render_summary(&snap, &acc);
        assert!(text.contains("checkpoint lifecycle"));
        assert!(text.contains("phase latency"));
        assert!(text.contains("gpu_copy"));
        assert!(text.contains("persist"));
        assert!(text.contains("stall / goodput"));
        assert!(text.contains("requested 1  committed 1"));
    }

    #[test]
    fn human_units_render() {
        assert_eq!(human_nanos(12), "12ns");
        assert_eq!(human_nanos(1_500), "1.50us");
        assert_eq!(human_nanos(2_500_000), "2.500ms");
        assert_eq!(human_nanos(3_000_000_000), "3.000s");
        assert_eq!(human_bytes(512), "512 B");
        assert_eq!(human_bytes(2048), "2.00 KiB");
        assert_eq!(human_bytes(3 * 1024 * 1024), "3.00 MiB");
    }

    #[test]
    fn empty_stream_exports_cleanly() {
        assert_eq!(json_lines(&[]), "");
        let trace = chrome_trace(&[]);
        assert!(trace.contains("process_name"));
        let _ = SpanId::NONE;
    }
}
