//! Live metrics endpoint: train with telemetry attached while a
//! hand-rolled HTTP server exposes the metrics registry, then scrape it
//! like Prometheus would.
//!
//! Run with: `cargo run --example metrics_server`
//!
//! The server half is [`MetricsServer`] (one `TcpListener`, `GET
//! /metrics` + `GET /metrics.json`, no dependencies); the client half is
//! [`http_get`], the same helper `pccheckctl top` uses in remote mode.
//! While the run is live you can also point a real browser or `curl` at
//! the printed address — the endpoint stays up until the demo exits.

use std::sync::Arc;

use pccheck::{CheckpointStore, PcCheckConfig, PcCheckEngine};
use pccheck_device::{DeviceConfig, PersistentDevice, SsdDevice};
use pccheck_gpu::{Checkpointer, Gpu, GpuConfig, TrainingState};
use pccheck_telemetry::{
    http_get, validate_prometheus_text, MetricsRegistry, MetricsServer, Telemetry,
};
use pccheck_util::ByteSize;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The workload: a checkpointed training run with the shared telemetry
    // handle attached, same shape as the quickstart. The registry reads
    // the device queue gauges from the device itself.
    let state = ByteSize::from_kb(512);
    let cap = CheckpointStore::required_capacity(state, 3) + ByteSize::from_kb(4);
    let device: Arc<dyn PersistentDevice> =
        Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
    let telemetry = Telemetry::enabled();
    let registry = MetricsRegistry::new(telemetry.clone()).with_device(Arc::clone(&device));
    let server = MetricsServer::bind("127.0.0.1:0", registry)?;
    let addr = server.addr();
    println!("metrics live at http://{addr}/metrics (and /metrics.json)");

    let gpu = Gpu::new(
        GpuConfig::fast_for_tests(),
        TrainingState::synthetic(state, 11),
    );
    let engine = PcCheckEngine::new(
        PcCheckConfig::builder()
            .max_concurrent(2)
            .writer_threads(2)
            .chunk_size(ByteSize::from_kb(64))
            .dram_chunks(8)
            .build()?,
        device,
        gpu.state_size(),
    )?
    .with_telemetry(telemetry.clone());

    for iter in 1..=40u64 {
        gpu.update();
        if iter % 5 == 0 {
            engine.checkpoint(&gpu, iter);
        }
        if iter == 20 {
            // Mid-run scrape: counters move while checkpoints are in flight.
            let prom = http_get(addr, "/metrics")?;
            let line = prom
                .lines()
                .find(|l| l.starts_with("pccheck_checkpoints_requested_total"))
                .unwrap_or("pccheck_checkpoints_requested_total <missing>");
            println!("mid-run scrape:   {line}");
        }
    }
    engine.drain();

    // Final scrape: validate the exposition the way a scraper's parser
    // would, then show the lifecycle counters.
    let prom = http_get(addr, "/metrics")?;
    let samples = validate_prometheus_text(&prom)?;
    println!("final scrape:     {samples} samples, exposition parses");
    for line in prom.lines() {
        if line.starts_with("pccheck_checkpoints_")
            || line.starts_with("pccheck_stall_fraction")
            || line.starts_with("pccheck_device_queue_peak{device=\"0\"}")
        {
            println!("  {line}");
        }
    }
    let json = http_get(addr, "/metrics.json")?;
    println!("json exposition:  {} bytes, schema tagged", json.len());
    server.shutdown();
    Ok(())
}
