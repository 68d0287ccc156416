//! Figure 1: BLOOM-7B training-throughput impact of CheckFreq and Gemini
//! at varying checkpoint intervals, plus the recovery time when a failure
//! occurs (the secondary axis' grey line).
//!
//! Recovery time used to be purely modeled ([`RecoveryModel`]); the
//! protocol component (scan slots, load the newest committed payload,
//! verify its digest) is now *measured* from the instrumented recovery
//! path and folded into the reported total. On the simulated device it
//! is microseconds against modeled tens of seconds, so the figure's
//! shape is unchanged — but the column now carries a real measurement.

use std::sync::Arc;

use pccheck::{
    raw_frame, recover_instrumented, CheckpointStore, FrameTable, RecoveryModel, StoreGeometry,
    Strategy, DEFAULT_JOB,
};
use pccheck_device::{DeviceConfig, PersistentDevice, SsdDevice};
use pccheck_gpu::{ModelZoo, StateDigest};
use pccheck_sim::StrategyCfg;
use pccheck_telemetry::Telemetry;
use pccheck_util::{ByteSize, CsvWriter};

use crate::sweep::{self, load_time};
use crate::PAPER_INTERVALS;

/// One Figure 1 row.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Fig1Row {
    /// Checkpoint interval.
    pub(crate) interval: u64,
    /// CheckFreq slowdown vs no checkpointing.
    pub(crate) checkfreq_slowdown: f64,
    /// Gemini slowdown vs no checkpointing.
    pub(crate) gemini_slowdown: f64,
    /// Worst-case recovery time at this interval (seconds): the CheckFreq
    /// model's redo/load terms plus the measured protocol overhead.
    pub(crate) recovery_secs: f64,
    /// Measured recovery-protocol time (seconds): scan + load + verify on
    /// a concrete store, from [`recover_instrumented`]'s trace.
    pub(crate) recovery_protocol_measured_secs: f64,
}

/// Measures the recovery protocol (slot scan, payload load, digest
/// verify) on a small concrete store and returns its wall-clock seconds.
fn measured_protocol_secs() -> f64 {
    let state = ByteSize::from_kb(64);
    let slot = FrameTable::slot_size_for(state, state);
    let cap = CheckpointStore::required_capacity(slot, 3) + ByteSize::from_kb(4);
    let device: Arc<dyn PersistentDevice> =
        Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
    let store = CheckpointStore::format(Arc::clone(&device), StoreGeometry::single(slot, 3))
        .expect("device sized for the store");
    let ns = store.namespace(DEFAULT_JOB).expect("single-tenant store");
    let payload = vec![0x5A; state.as_usize()];
    for iteration in [1u64, 2] {
        let lease = store.begin_checkpoint(&ns);
        let full_digest = StateDigest::of_payload(&payload, iteration).0;
        let (frame, digest) = raw_frame(lease.counter, full_digest, &payload, payload.len());
        store.write_payload(&lease, 0, &frame).expect("write");
        store
            .persist_payload(&lease, 0, frame.len() as u64)
            .expect("persist");
        store
            .commit(lease, iteration, frame.len() as u64, digest)
            .expect("commit");
    }
    drop(store);
    let (_, trace) = recover_instrumented(device, &Telemetry::disabled())
        .expect("store holds committed checkpoints");
    trace.total_nanos as f64 / 1e9
}

/// Runs the experiment.
pub(crate) fn run() -> Vec<Fig1Row> {
    let model = ModelZoo::bloom_7b();
    let iter_time = model.iter_time(pccheck_gpu::GpuKind::A100);
    let load = load_time(&model);
    let protocol_secs = measured_protocol_secs();
    PAPER_INTERVALS
        .iter()
        .map(|&interval| {
            let cf = sweep::run_point(&model, StrategyCfg::CheckFreq, interval);
            let gm = sweep::run_point(&model, StrategyCfg::Gemini, interval);
            let ideal = sweep::run_point(&model, StrategyCfg::Ideal, interval);
            let recovery = RecoveryModel {
                iter_time,
                interval,
                write_time: cf.mean_write_time,
                load_time: load,
            };
            Fig1Row {
                interval,
                checkfreq_slowdown: cf.slowdown_vs(&ideal),
                gemini_slowdown: gm.slowdown_vs(&ideal),
                recovery_secs: recovery.worst_case(Strategy::CheckFreq).as_secs_f64()
                    + protocol_secs,
                recovery_protocol_measured_secs: protocol_secs,
            }
        })
        .collect()
}

/// Writes the rows as CSV.
///
/// # Errors
///
/// Returns any I/O error.
pub(crate) fn write_csv<W: std::io::Write>(rows: &[Fig1Row], out: W) -> std::io::Result<()> {
    let mut w = CsvWriter::new(
        out,
        &[
            "interval",
            "checkfreq_slowdown",
            "gemini_slowdown",
            "recovery_secs",
            "recovery_protocol_measured_secs",
        ],
    );
    for r in rows {
        w.row(&[
            &r.interval,
            &format_args!("{:.4}", r.checkfreq_slowdown),
            &format_args!("{:.4}", r.gemini_slowdown),
            &format_args!("{:.2}", r.recovery_secs),
            &format_args!("{:.6}", r.recovery_protocol_measured_secs),
        ])?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_shapes_hold() {
        let rows = run();
        assert_eq!(rows.len(), 5);
        // Slowdown decreases with larger intervals.
        for pair in rows.windows(2) {
            assert!(
                pair[0].checkfreq_slowdown >= pair[1].checkfreq_slowdown * 0.98,
                "CheckFreq slowdown must be non-increasing: {pair:?}"
            );
        }
        // At interval 1 both baselines are far from ideal...
        assert!(rows[0].checkfreq_slowdown > 2.0);
        assert!(rows[0].gemini_slowdown > 2.0);
        // ...and still clearly off at interval 10 (the paper reports >10%
        // up to interval 50; our modeled Tw for an 18 GB shard is ~43 s, so
        // the CheckFreq stall vanishes between intervals 15 and 50 — see
        // EXPERIMENTS.md for the deviation note).
        let at10 = rows.iter().find(|r| r.interval == 10).unwrap();
        assert!(
            at10.checkfreq_slowdown > 1.15,
            "{}",
            at10.checkfreq_slowdown
        );
        // Recovery time grows with the interval.
        assert!(rows[4].recovery_secs > rows[0].recovery_secs);
        // The measured protocol overhead is real but tiny next to the
        // modeled redo/load terms.
        for r in &rows {
            assert!(r.recovery_protocol_measured_secs > 0.0);
            assert!(r.recovery_protocol_measured_secs < r.recovery_secs / 10.0);
        }
    }

    #[test]
    fn csv_is_well_formed() {
        let rows = run();
        let mut buf = Vec::new();
        write_csv(&rows, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("interval,"));
        assert_eq!(text.lines().count(), rows.len() + 1);
    }
}
