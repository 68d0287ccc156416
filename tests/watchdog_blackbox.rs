//! End-to-end SLO watchdog exercise: a deliberately throttled workload
//! must trip the stall-fraction SLO, and the captured black-box bundle
//! must be complete — violation report, both metric expositions, a
//! Chrome trace whose lanes show the hierarchical span attribution
//! (engine phase lane + per-writer + per-stripe-member child lanes), and
//! the monitor crate's forensic audit as the flight dump.
//!
//! The trace-shape criterion is checked against the raw event stream:
//! for a committed checkpoint, the union of its writer child spans
//! (max child end − min child start) must cover the parent `Persist`
//! phase to within 10%, i.e. the children genuinely account for the
//! parent's wall-clock rather than being decorative.

use std::sync::Arc;

use pccheck::{CheckpointStore, PcCheckConfig, PcCheckEngine};
use pccheck_device::{DeviceConfig, PersistentDevice, SsdDevice, StripedDevice};
use pccheck_gpu::{Checkpointer, Gpu, GpuConfig, TrainingState};
use pccheck_monitor::{armed_watchdog, SloConfig};
use pccheck_telemetry::{
    validate_prometheus_text, EventKind, Phase, Telemetry, TelemetryIoObserver,
};
use pccheck_util::{Bandwidth, ByteSize};

#[test]
fn watchdog_fires_on_stall_and_bundle_has_hierarchical_trace() {
    let out_dir = std::env::temp_dir().join(format!("pccheck-blackbox-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out_dir);

    // A 2 MiB state over a throttled 2-way stripe: writer I/O dominates
    // every checkpoint, and checkpointing each iteration with N=1 turns
    // that I/O time into training-thread stall.
    let state = ByteSize::from_mb_u64(2);
    let cap = CheckpointStore::required_capacity(state, 2) + ByteSize::from_kb(4);
    let member_cfg = DeviceConfig {
        capacity: cap,
        write_bandwidth: Bandwidth::from_mb_per_sec(32.0),
        throttled: true,
    };
    let members: Vec<Arc<dyn PersistentDevice>> = (0..2)
        .map(|_| Arc::new(SsdDevice::new(member_cfg.clone())) as Arc<dyn PersistentDevice>)
        .collect();
    let striped = Arc::new(StripedDevice::new(members, ByteSize::from_kb(64)));
    let telemetry = Telemetry::enabled();
    striped.set_io_observer(Arc::new(TelemetryIoObserver::new(telemetry.clone())));
    let device: Arc<dyn PersistentDevice> = striped;

    let gpu = Gpu::new(
        GpuConfig::fast_for_tests(),
        TrainingState::synthetic(state, 5),
    );
    let engine = PcCheckEngine::new(
        PcCheckConfig::builder()
            .max_concurrent(1)
            .writer_threads(2)
            .chunk_size(ByteSize::from_kb(64))
            .dram_chunks(8)
            .build()
            .expect("valid config"),
        Arc::clone(&device),
        gpu.state_size(),
    )
    .expect("engine constructs")
    .with_telemetry(telemetry.clone());

    let wd = armed_watchdog(
        device,
        telemetry.clone(),
        SloConfig {
            max_stall_fraction: Some(0.05),
            ..SloConfig::default()
        },
        &out_dir,
    );

    // Back-to-back checkpoints: with N=1 every call after the first blocks
    // in the ticket wait for the whole throttled persist of its
    // predecessor, which is exactly the training-thread stall the SLO
    // meters. (Interleaving `gpu.update()` would shift the blocking into
    // the weights write-lock instead, which the stall histogram — by
    // design — does not attribute to `checkpoint()`.)
    gpu.update();
    for iter in 1..=3u64 {
        engine.checkpoint(&gpu, iter);
    }
    engine.drain();

    // 1. The injected stall trips the SLO.
    let violations = wd.check_now();
    assert!(
        !violations.is_empty(),
        "throttled workload must violate the stall SLO"
    );

    // 2. The bundle is complete and each artifact is well-formed.
    let bundle = wd.last_bundle().expect("bundle captured");
    for file in [
        "violation.json",
        "metrics.prom",
        "metrics.json",
        "trace.json",
        "flight.txt",
    ] {
        let body = std::fs::read_to_string(bundle.join(file))
            .unwrap_or_else(|e| panic!("missing {file}: {e}"));
        assert!(!body.is_empty(), "{file} is empty");
    }
    let vjson = std::fs::read_to_string(bundle.join("violation.json")).unwrap();
    assert!(vjson.contains("pccheck.blackbox.v1"));
    assert!(vjson.contains("stall_fraction"));
    let prom = std::fs::read_to_string(bundle.join("metrics.prom")).unwrap();
    assert!(
        validate_prometheus_text(&prom).is_ok(),
        "prom exposition parses"
    );
    // The bundle's device gauges are the stripe's own: every checkpoint
    // went through the controller's and each member's queue.
    for device in 0..3 {
        let series = format!("pccheck_device_queue_peak{{device=\"{device}\"}} ");
        let peak = prom.lines().find_map(|line| line.strip_prefix(&series));
        assert!(
            peak.is_some_and(|peak| peak != "0"),
            "{series}{peak:?} in the bundle"
        );
    }
    let flight = std::fs::read_to_string(bundle.join("flight.txt")).unwrap();
    assert!(
        flight.contains("forensic audit"),
        "flight dump is the monitor crate's audit, got: {flight}"
    );

    // 3. The windowed Chrome trace shows the hierarchy: an engine phase
    //    lane plus named child lanes for both writers and both stripe
    //    members (>= 3 lanes total; actor lanes start at tid 900000).
    let trace = std::fs::read_to_string(bundle.join("trace.json")).unwrap();
    assert!(
        trace.contains("\"cat\":\"phase\""),
        "engine span lane present"
    );
    for actor in ["writer-0", "writer-1", "stripe-0", "stripe-1"] {
        assert!(
            trace.contains(&format!("\"name\":\"{actor}\"")),
            "missing child lane {actor}"
        );
    }
    for tid in 900_000u64..900_003 {
        assert!(
            trace.contains(&format!("\"tid\":{tid}")),
            "lane {tid} missing"
        );
    }
    assert!(
        trace.contains("\"parent_span\":"),
        "children carry parent ids"
    );

    // 4. Child spans account for the parent: for every span that has both
    //    a Persist phase and two writer children, the union of the writer
    //    spans covers the Persist duration to within 10%.
    let events = telemetry.events();
    let mut checked = 0usize;
    for e in &events {
        let EventKind::PhaseDone {
            phase: Phase::Persist,
            start_nanos: _,
            dur_nanos,
        } = e.kind
        else {
            continue;
        };
        let writers: Vec<(u64, u64)> = events
            .iter()
            .filter(|w| w.span == e.span)
            .filter_map(|w| match &w.kind {
                EventKind::ActorSpan {
                    actor,
                    start_nanos,
                    dur_nanos,
                    ..
                } if actor.starts_with("writer-") => Some((*start_nanos, *dur_nanos)),
                _ => None,
            })
            .collect();
        if writers.len() < 2 {
            continue;
        }
        let first_start = writers.iter().map(|(s, _)| *s).min().unwrap();
        let last_end = writers.iter().map(|(s, d)| s + d).max().unwrap();
        let union = last_end - first_start;
        let slack = dur_nanos / 10;
        assert!(
            union <= dur_nanos + slack && union + slack >= dur_nanos,
            "writer union {union}ns vs parent Persist {dur_nanos}ns exceeds 10%"
        );
        checked += 1;
    }
    assert!(checked >= 1, "at least one commit must be checked");

    let _ = std::fs::remove_dir_all(&out_dir);
}
