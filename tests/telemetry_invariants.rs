//! Event-stream invariants under concurrent checkpointing.
//!
//! With `max_concurrent > 1` several checkpoint spans are in flight at
//! once, recorded from the training thread, the engine's coordinators,
//! and the pipeline's resident writers. Whatever interleaving occurs,
//! the merged event stream must satisfy the lifecycle contract: every
//! `requested` span terminates exactly once, phase timestamps are
//! monotone, and the aggregate counters agree with the events.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use pccheck::{recover_instrumented, CheckpointStore, PcCheckConfig, PcCheckEngine};
use pccheck_device::{DeviceConfig, PersistentDevice, SsdDevice, StripedDevice};
use pccheck_gpu::{Checkpointer, Gpu, GpuConfig, TrainingState};
use pccheck_telemetry::{
    chrome_trace_annotated, validate_prometheus_text, EventKind, MetricsRegistry, SpanId,
    Telemetry, TelemetryIoObserver,
};
use pccheck_util::json::JsonValue;
use pccheck_util::ByteSize;

fn engine_with_telemetry(size: ByteSize, max_concurrent: usize) -> (PcCheckEngine, Telemetry) {
    let cap =
        CheckpointStore::required_capacity(size, max_concurrent as u32 + 1) + ByteSize::from_kb(4);
    let device: Arc<dyn PersistentDevice> =
        Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
    let telemetry = Telemetry::enabled();
    let engine = PcCheckEngine::new(
        PcCheckConfig::builder()
            .max_concurrent(max_concurrent)
            .writer_threads(2)
            .chunk_size(ByteSize::from_kb(16))
            .dram_chunks(4)
            .build()
            .expect("valid config"),
        device,
        size,
    )
    .expect("engine constructs")
    .with_telemetry(telemetry.clone());
    (engine, telemetry)
}

#[test]
fn concurrent_spans_terminate_exactly_once_with_monotone_phases() {
    let size = ByteSize::from_kb(64);
    let (engine, telemetry) = engine_with_telemetry(size, 3);
    let engine = Arc::new(engine);

    // Two driver threads issue interleaved checkpoints; with N=3 up to
    // three spans overlap, each fanning out to two writer threads.
    let drivers: Vec<_> = (0..2u64)
        .map(|d| {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                let gpu = Gpu::new(
                    GpuConfig::fast_for_tests(),
                    TrainingState::synthetic(ByteSize::from_kb(64), d + 1),
                );
                for i in 0..10u64 {
                    gpu.update();
                    engine.checkpoint(&gpu, d * 1000 + i + 1);
                }
            })
        })
        .collect();
    for d in drivers {
        d.join().expect("driver thread");
    }
    engine.try_drain().expect("no background errors");

    let events = telemetry.events();

    // Requested spans each see exactly one terminal event, and no event
    // references a span that was never requested.
    let mut requested: HashMap<SpanId, u64> = HashMap::new();
    let mut terminals: HashMap<SpanId, u64> = HashMap::new();
    for e in &events {
        match &e.kind {
            EventKind::Requested { .. } => {
                *requested.entry(e.span).or_default() += 1;
            }
            EventKind::Committed { .. }
            | EventKind::Superseded { .. }
            | EventKind::Failed { .. } => {
                *terminals.entry(e.span).or_default() += 1;
            }
            _ => {
                assert!(
                    e.span.is_some(),
                    "span-scoped event without a span: {:?}",
                    e.kind
                );
            }
        }
    }
    assert_eq!(requested.len(), 20, "20 checkpoints requested");
    for (span, count) in &requested {
        assert_eq!(*count, 1, "span {span:?} requested once");
        assert_eq!(
            terminals.get(span),
            Some(&1),
            "span {span:?} must terminate exactly once"
        );
    }
    for span in terminals.keys() {
        assert!(
            requested.contains_key(span),
            "terminal for unknown span {span:?}"
        );
    }

    // Per-span timestamps are monotone in lifecycle order, the first
    // event of every span is its `requested`, and each phase's
    // start/duration is consistent with its completion stamp.
    let mut last_at: HashMap<SpanId, u64> = HashMap::new();
    for e in &events {
        if !e.span.is_some() {
            continue;
        }
        if !last_at.contains_key(&e.span) {
            assert!(
                matches!(e.kind, EventKind::Requested { .. }),
                "span {:?} starts with {:?}, not requested",
                e.span,
                e.kind
            );
        }
        let prev = last_at.entry(e.span).or_insert(0);
        assert!(
            e.at_nanos >= *prev,
            "span {:?} went back in time: {} < {}",
            e.span,
            e.at_nanos,
            prev
        );
        *prev = e.at_nanos;
        if let EventKind::PhaseDone {
            start_nanos,
            dur_nanos,
            ..
        } = e.kind
        {
            assert!(
                start_nanos <= e.at_nanos,
                "phase started after it completed"
            );
            assert!(
                start_nanos + dur_nanos <= e.at_nanos + 1_000_000,
                "phase duration extends past its completion stamp"
            );
        }
    }

    // Aggregates agree with the stream: all spans accounted for, and the
    // engine's own stats match the telemetry counters.
    let snap = telemetry.snapshot().expect("telemetry enabled");
    assert_eq!(snap.counters.requested, 20);
    assert_eq!(snap.counters.terminated(), 20);
    assert_eq!(snap.counters.in_flight(), 0);
    let stats = engine.stats().snapshot();
    assert_eq!(stats.requested, snap.counters.requested);
    assert_eq!(stats.committed, snap.counters.committed);
    assert_eq!(stats.superseded, snap.counters.superseded);
    assert_eq!(stats.failed, 0);
    assert!(snap.counters.committed >= 1, "some checkpoint must commit");
}

/// Racing checkpoint writers and live-store recovery readers on a 2-way
/// stripe, then a registry over that stripe: every pressure gauge
/// settles once the engine drains. The in-flight gauge returns to zero,
/// and the device queue gauges, which the registry reads from the stripe
/// itself, show a high-water mark on the controller and on each member
/// and an empty queue on every one of them.
#[test]
fn striped_device_gauges_return_to_zero_after_drain() {
    let size = ByteSize::from_kb(64);
    let cap = CheckpointStore::required_capacity(size, 4) + ByteSize::from_kb(4);
    let members: Vec<Arc<dyn PersistentDevice>> = (0..2)
        .map(|_| {
            Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap))) as Arc<dyn PersistentDevice>
        })
        .collect();
    let device: Arc<dyn PersistentDevice> =
        Arc::new(StripedDevice::new(members, ByteSize::from_kb(16)));
    let telemetry = Telemetry::enabled();
    let engine = PcCheckEngine::new(
        PcCheckConfig::builder()
            .max_concurrent(3)
            .writer_threads(1)
            .chunk_size(ByteSize::from_kb(16))
            .dram_chunks(4)
            .build()
            .expect("valid config"),
        Arc::clone(&device),
        size,
    )
    .expect("engine constructs")
    .with_telemetry(telemetry.clone());
    let engine = Arc::new(engine);
    let registry = MetricsRegistry::new(telemetry.clone()).with_device(Arc::clone(&device));

    // Seed one committed checkpoint so the racing readers always find a
    // durable candidate.
    let seed_gpu = Gpu::new(
        GpuConfig::fast_for_tests(),
        TrainingState::synthetic(size, 77),
    );
    seed_gpu.update();
    engine.checkpoint(&seed_gpu, 1);
    engine.try_drain().expect("seed checkpoint commits");
    // Controller + two stripe members, each with the seed's writes on it.
    let snap = registry.snapshot().expect("telemetry enabled");
    let peaks = &snap.device_queue_peak[..3];
    assert!(
        peaks.iter().all(|&p| p >= 1),
        "each queue's peak: {peaks:?}"
    );

    let writers: Vec<_> = (0..2u64)
        .map(|d| {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                let gpu = Gpu::new(
                    GpuConfig::fast_for_tests(),
                    TrainingState::synthetic(ByteSize::from_kb(64), d + 1),
                );
                for i in 0..8u64 {
                    gpu.update();
                    engine.checkpoint(&gpu, (d + 1) * 1000 + i + 1);
                }
            })
        })
        .collect();
    let reader = {
        let device = Arc::clone(&device);
        let telemetry = telemetry.clone();
        std::thread::spawn(move || {
            // Live-store reads race the writers: a candidate overwritten
            // mid-read falls back to an older one or fails the attempt —
            // either way the recovery span must still terminate.
            for _ in 0..3 {
                let _ = recover_instrumented(Arc::clone(&device), &telemetry);
            }
        })
    };
    for w in writers {
        w.join().expect("writer thread");
    }
    reader.join().expect("reader thread");
    engine.try_drain().expect("no background errors");

    let snap = registry.snapshot().expect("telemetry enabled");
    // 1 seed + 16 raced + 3 recoveries, all terminated.
    assert_eq!(snap.counters.requested, 20);
    assert_eq!(snap.counters.terminated(), 20);
    assert_eq!(snap.counters.in_flight(), 0);
    assert_eq!(snap.in_flight, 0, "in-flight gauge returns to zero");
    assert!(snap.in_flight_peak >= 1);
    assert!(snap.queue_depth_peak >= 1, "free-slot gauge saw pressure");
    assert_eq!(device.queue_depths().len(), 3);
    assert!(
        snap.device_queue_depth.iter().all(|&d| d == 0),
        "device queues drain to zero: {:?}",
        snap.device_queue_depth
    );
    let peaks = &snap.device_queue_peak[..3];
    assert!(
        peaks.iter().all(|&p| p >= 1),
        "each queue's peak: {peaks:?}"
    );
    // The recorder alone counts no device queue.
    let blind = MetricsRegistry::new(telemetry).snapshot().expect("enabled");
    assert!(blind.device_queue_peak.iter().all(|&p| p == 0));
}

/// The full Chrome-trace exporter output, parsed back with the crate's
/// own JSON reader rather than spot-checked with substring matches: the
/// document must be well-formed, every complete (`ph:"X"`) slice must
/// carry numeric `ts`/`dur`, and every actor-lane slice must be
/// referentially consistent — its `args.parent_span` names a span that
/// was actually requested (or 0 for device-member legs attributed after
/// the fact), its `tid` resolves through a `thread_name` metadata entry
/// to the same actor name, and its media/queue-wait split sums exactly to
/// the slice duration. The annotated critical-path lane must likewise
/// reference only real spans.
#[test]
fn chrome_trace_parses_with_actor_lane_referential_integrity() {
    // A 2-way stripe with the I/O observer attached so all three lane
    // families appear: per-checkpoint writer legs, per-member device
    // legs, and the profiler's critical-path annotation lane.
    let size = ByteSize::from_kb(128);
    let cap = CheckpointStore::required_capacity(size, 3) + ByteSize::from_kb(4);
    let members: Vec<Arc<dyn PersistentDevice>> = (0..2)
        .map(|_| {
            Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap))) as Arc<dyn PersistentDevice>
        })
        .collect();
    let striped = Arc::new(StripedDevice::new(members, ByteSize::from_kb(4)));
    let telemetry = Telemetry::enabled();
    striped.set_io_observer(Arc::new(TelemetryIoObserver::new(telemetry.clone())));
    let engine = PcCheckEngine::new(
        PcCheckConfig::builder()
            .max_concurrent(2)
            .writer_threads(2)
            .chunk_size(ByteSize::from_kb(16))
            .dram_chunks(4)
            .build()
            .expect("valid config"),
        striped,
        size,
    )
    .expect("engine constructs")
    .with_telemetry(telemetry.clone());
    let gpu = Gpu::new(
        GpuConfig::fast_for_tests(),
        TrainingState::synthetic(size, 3),
    );
    for iter in 1..=6u64 {
        gpu.update();
        engine.checkpoint(&gpu, iter);
    }
    engine.try_drain().expect("healthy device");

    let events = telemetry.events();
    let trace = chrome_trace_annotated(&events);
    let doc = JsonValue::parse(&trace).expect("trace is well-formed JSON");
    let entries = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert!(!entries.is_empty());

    // Ground truth from the raw stream.
    let mut spans: HashSet<u64> = HashSet::new();
    let mut actor_events = 0usize;
    for e in &events {
        if matches!(e.kind, EventKind::Requested { .. }) {
            spans.insert(e.span.0);
        }
        if matches!(e.kind, EventKind::ActorSpan { .. }) {
            actor_events += 1;
        }
    }
    assert!(actor_events > 0, "striped run must emit actor legs");

    // Lane registry from the exporter's thread_name metadata.
    let mut lanes: HashMap<u64, String> = HashMap::new();
    for e in entries {
        if e.get("name").and_then(|v| v.as_str()) == Some("thread_name") {
            let tid = e.get("tid").and_then(|v| v.as_u64()).expect("metadata tid");
            let name = e
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(|v| v.as_str())
                .expect("lane name")
                .to_string();
            lanes.insert(tid, name);
        }
    }

    let mut actor_entries = 0usize;
    let mut critical_entries = 0usize;
    for e in entries {
        let name = e
            .get("name")
            .and_then(|v| v.as_str())
            .expect("every entry named");
        let ph = e
            .get("ph")
            .and_then(|v| v.as_str())
            .expect("every entry has a ph");
        if ph == "X" {
            assert!(e.get("ts").and_then(|v| v.as_f64()).is_some(), "X slice ts");
            let dur = e.get("dur").and_then(|v| v.as_f64()).expect("X slice dur");
            assert!(dur >= 0.0, "negative slice duration");
        }
        match e.get("cat").and_then(|v| v.as_str()) {
            Some("actor") => {
                actor_entries += 1;
                let args = e.get("args").expect("actor slice args");
                let parent = args
                    .get("parent_span")
                    .and_then(|v| v.as_u64())
                    .expect("parent_span");
                assert!(
                    parent == 0 || spans.contains(&parent),
                    "actor slice {name:?} references unknown span {parent}"
                );
                let tid = e.get("tid").and_then(|v| v.as_u64()).expect("actor tid");
                assert_eq!(
                    lanes.get(&tid).map(String::as_str),
                    Some(name),
                    "actor slice must ride a lane whose metadata names it"
                );
                let media = args
                    .get("media_nanos")
                    .and_then(|v| v.as_u64())
                    .expect("media_nanos");
                let queue = args
                    .get("queue_wait_nanos")
                    .and_then(|v| v.as_u64())
                    .expect("queue_wait_nanos");
                let dur = e.get("dur").and_then(|v| v.as_f64()).unwrap();
                let sum_us = (media + queue) as f64 / 1e3;
                assert!(
                    (sum_us - dur).abs() < 0.5,
                    "media+queue ({sum_us} us) must equal slice duration ({dur} us)"
                );
            }
            Some("critical") => {
                critical_entries += 1;
                assert!(name.starts_with("crit:"), "critical slice named {name:?}");
                let parent = e
                    .get("args")
                    .and_then(|a| a.get("parent_span"))
                    .and_then(|v| v.as_u64())
                    .expect("critical parent_span");
                assert!(
                    spans.contains(&parent),
                    "critical slice references unknown span {parent}"
                );
            }
            _ => {}
        }
    }
    assert_eq!(
        actor_entries, actor_events,
        "every ActorSpan event renders exactly one lane slice"
    );
    assert!(
        critical_entries > 0,
        "annotated trace must carry the critical-path lane"
    );
    assert!(lanes.values().any(|l| l.starts_with("writer-")));
    assert!(lanes.values().any(|l| l.starts_with("stripe-")));
    assert!(lanes.values().any(|l| l == "critical-path"));
}

/// A codec-enabled engine over a compressible state must surface its
/// savings through the whole exposition path: the raw snapshot
/// counters, the Prometheus text (which must still validate under the
/// crate's own parser), and the JSON document — while a codec-off engine
/// on the same path packs no `Lz` record, its series carrying only what
/// dedup saved.
#[test]
fn codec_counters_flow_through_the_exposition_path() {
    let size = ByteSize::from_kb(64);
    let cap = CheckpointStore::required_capacity(size, 3) + ByteSize::from_kb(4);
    let device: Arc<dyn PersistentDevice> =
        Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
    let telemetry = Telemetry::enabled();
    let engine = PcCheckEngine::new(
        PcCheckConfig::builder()
            .max_concurrent(2)
            .writer_threads(1)
            .chunk_size(ByteSize::from_kb(16))
            .dram_chunks(4)
            .codec(true)
            .build()
            .expect("valid config"),
        device,
        size,
    )
    .expect("engine constructs")
    .with_telemetry(telemetry.clone());
    let gpu = Gpu::new(
        GpuConfig::fast_for_tests(),
        TrainingState::compressible(size, 5, 32),
    );
    for iter in 1..=4u64 {
        gpu.update();
        engine.checkpoint(&gpu, iter);
        engine.try_drain().expect("healthy device");
    }

    let snap = telemetry.snapshot().expect("telemetry enabled");
    assert!(
        snap.codec_bytes_saved > 0,
        "compressible checkpoints must save bytes (saved {})",
        snap.codec_bytes_saved
    );
    assert!(
        snap.compression_ratio_permille > 0 && snap.compression_ratio_permille < 1000,
        "framed physical size must undercut logical: {}\u{2030}",
        snap.compression_ratio_permille
    );

    let registry = MetricsRegistry::new(telemetry);
    let text = registry.prometheus_text();
    let samples = validate_prometheus_text(&text).expect("exposition parses");
    assert!(samples > 0);
    assert!(
        text.contains(&format!(
            "pccheck_codec_bytes_saved_total {}",
            snap.codec_bytes_saved
        )),
        "{text}"
    );
    assert!(
        text.contains(&format!("pccheck_dedup_chunks_total {}", snap.dedup_chunks)),
        "{text}"
    );
    assert!(
        text.contains(&format!(
            "pccheck_compression_ratio_permille {}",
            snap.compression_ratio_permille
        )),
        "{text}"
    );
    let json = registry.json();
    assert!(
        json.contains(&format!("\"codec_bytes_saved\":{}", snap.codec_bytes_saved)),
        "{json}"
    );
    assert!(json.contains("\"dedup_chunks\":"), "{json}");
    assert!(
        json.contains(&format!(
            "\"compression_ratio_permille\":{}",
            snap.compression_ratio_permille
        )),
        "{json}"
    );

    // A codec-off engine over the same exposition path compresses
    // nothing: its frame holds no `Lz` record, and the series carry what
    // its dedup of the tiled state saved.
    let raw_telemetry = Telemetry::enabled();
    let raw_device: Arc<dyn PersistentDevice> =
        Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
    let raw_engine = PcCheckEngine::new(
        PcCheckConfig::builder()
            .max_concurrent(2)
            .writer_threads(1)
            .chunk_size(ByteSize::from_kb(16))
            .dram_chunks(4)
            .build()
            .expect("valid config"),
        raw_device,
        size,
    )
    .expect("engine constructs")
    .with_telemetry(raw_telemetry.clone());
    let raw_gpu = Gpu::new(
        GpuConfig::fast_for_tests(),
        TrainingState::compressible(size, 5, 32),
    );
    raw_gpu.update();
    raw_engine.checkpoint(&raw_gpu, 1);
    raw_engine.try_drain().expect("healthy device");
    let raw_snap = raw_telemetry.snapshot().expect("telemetry enabled");
    let (store, ns) = (raw_engine.store(), raw_engine.namespace());
    let head = store.latest_committed(ns).expect("committed");
    let payload = store.read_checkpoint(&head).expect("head frame");
    let table = pccheck::FrameTable::decode(&payload).expect("a frame");
    assert!(
        table
            .records
            .iter()
            .all(|r| r.kind != pccheck::ChunkEncoding::Lz),
        "{table:?}"
    );
    let raw_text = MetricsRegistry::new(raw_telemetry).prometheus_text();
    validate_prometheus_text(&raw_text).expect("codec-off exposition parses");
    assert!(
        raw_text.contains(&format!(
            "pccheck_codec_bytes_saved_total {}",
            raw_snap.codec_bytes_saved
        )),
        "{raw_text}"
    );
}

#[test]
fn sequential_run_with_drain_commits_every_span() {
    let size = ByteSize::from_kb(32);
    let (engine, telemetry) = engine_with_telemetry(size, 2);
    let gpu = Gpu::new(
        GpuConfig::fast_for_tests(),
        TrainingState::synthetic(size, 11),
    );
    for iter in 1..=5u64 {
        gpu.update();
        engine.checkpoint(&gpu, iter);
        engine.try_drain().expect("healthy device");
    }
    let snap = telemetry.snapshot().expect("telemetry enabled");
    // Draining between checkpoints removes supersession races entirely.
    assert_eq!(snap.counters.committed, 5);
    assert_eq!(snap.counters.superseded, 0);
    assert_eq!(snap.counters.bytes_persisted, 5 * size.as_u64());
}
