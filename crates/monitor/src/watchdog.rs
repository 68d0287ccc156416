//! Arm a telemetry [`SloWatchdog`] with this crate's forensic auditor.
//!
//! The telemetry crate's watchdog knows how to evaluate SLO windows and
//! capture black-box bundles, but it sits *below* the store layer and so
//! cannot read the persistent flight ring on its own — callers hand it a
//! flight-dump closure. This module supplies the natural one: run the
//! [`forensics`](crate::forensics) auditor against the live device and
//! render the report, so every `blackbox-N/flight.txt` carries the ring
//! replay (per-checkpoint verdicts, torn/stale cell counts, invariant
//! violations) alongside the metric snapshots and the Chrome trace of
//! the offending window.
//!
//! The auditor only issues durable reads, so it is safe to run against a
//! store that is still being written: it reports the last consistent
//! on-device narrative, exactly what a post-mortem wants.

use std::path::PathBuf;
use std::sync::Arc;

use pccheck_device::PersistentDevice;
use pccheck_telemetry::{SloConfig, SloWatchdog, Telemetry};

use crate::forensics::audit;

/// Build an [`SloWatchdog`] whose black-box bundles include a rendered
/// forensic audit of `device`'s store as `flight.txt`.
///
/// The returned watchdog is driven through
/// [`check_now`](SloWatchdog::check_now). If the
/// audit itself fails (e.g. the device has no store header yet), the
/// bundle simply omits `flight.txt` rather than failing the capture.
pub fn armed_watchdog(
    device: Arc<dyn PersistentDevice>,
    telemetry: Telemetry,
    config: SloConfig,
    out_dir: impl Into<PathBuf>,
) -> Arc<SloWatchdog> {
    Arc::new(
        SloWatchdog::new(telemetry, config, out_dir).with_flight_dump(move || {
            audit(Arc::clone(&device))
                .ok()
                .map(|report| report.render())
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pccheck::{PcCheckConfig, PcCheckEngine};
    use pccheck_device::{DeviceConfig, SsdDevice};
    use pccheck_gpu::{Checkpointer, Gpu, GpuConfig, TrainingState};
    use pccheck_util::ByteSize;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pccheck-armed-watchdog-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn bundle_flight_dump_is_a_forensic_audit() {
        let gpu = Gpu::new(
            GpuConfig::fast_for_tests(),
            TrainingState::synthetic(ByteSize::from_kb(16), 1),
        );
        let cap =
            pccheck::CheckpointStore::required_capacity(gpu.state_size(), 4) + ByteSize::from_kb(4);
        let device: Arc<dyn PersistentDevice> =
            Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let telemetry = Telemetry::enabled();
        let engine = PcCheckEngine::new(
            PcCheckConfig::builder().max_concurrent(3).build().unwrap(),
            Arc::clone(&device),
            gpu.state_size(),
        )
        .unwrap()
        .with_telemetry(telemetry.clone());
        for iter in 1..=3 {
            gpu.update();
            engine.checkpoint(&gpu, iter);
            engine.drain();
        }

        let dir = temp_dir("audit");
        let wd = armed_watchdog(
            device,
            telemetry.clone(),
            SloConfig {
                max_stall_fraction: Some(0.05),
                ..SloConfig::default()
            },
            &dir,
        );

        // A span whose stall dominates the window since the baseline.
        let span = telemetry.span_requested("pccheck", 99, 64);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let stall = telemetry.now_nanos();
        telemetry.stall(span, stall);
        telemetry.committed(span, 99, 64);

        let violations = wd.check_now();
        assert!(!violations.is_empty(), "injected stall should trip the SLO");

        let bundle = wd.last_bundle().expect("bundle captured");
        let flight = std::fs::read_to_string(bundle.join("flight.txt")).unwrap();
        assert!(flight.contains("forensic audit"), "got: {flight}");
        assert!(flight.contains("flight ring:"), "got: {flight}");

        let _ = std::fs::remove_dir_all(&dir);
    }
}
