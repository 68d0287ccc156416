//! Extension: chunk-codec compressibility × dedup-hit-rate sweep.
//!
//! Sweeps payload compressibility (the tile period of
//! [`TrainingState::compressible`], with `0` meaning RNG-dense synthetic
//! state, plus one mixed dense-and-tiled layout) against update sparsity (which controls how many chunks survive
//! unchanged between checkpoints and therefore the cross-checkpoint dedup
//! hit rate) through the concrete
//! [`PersistPipeline::checkpoint_framed`] path. Each row reports the
//! physical bytes the framed path persisted against the logical bytes the
//! raw path would have written — the persist-bytes reduction
//! `high_redundancy_sweep_saves_at_least_three_x` asserts — plus how many
//! checkpoints actually framed and how many chunks resolved as dedup
//! references. Every run finishes with a cold recovery and checks the
//! reconstructed payload bit-for-bit against the final device-side state.

use std::sync::Arc;

use pccheck::{
    recover, CheckpointStore, CopyMode, FrameTable, PersistPipeline, PipelineCtx, StoreGeometry,
    DEFAULT_JOB,
};
use pccheck_device::{DeviceConfig, HostBufferPool, PersistentDevice, SsdDevice};
use pccheck_gpu::{Gpu, GpuConfig, Tensor, TrainingState};
use pccheck_telemetry::{SpanId, Telemetry};
use pccheck_util::{ByteSize, CsvWriter};

/// Tile periods swept (`0` = RNG-dense incompressible state).
pub(crate) const PERIODS: [usize; 3] = [0, 16, 64];

/// Update sparsities swept (fraction of each tensor mutated per step).
pub(crate) const SPARSITIES: [f64; 3] = [0.05, 0.50, 1.00];

/// Update sparsity of the mixed-state row.
pub(crate) const MIXED_SPARSITY: f64 = 0.05;

/// Training-state size per run of the period sweep.
pub const STATE_BYTES: u64 = 256 * 1024;

/// Staging/codec chunk size of the period sweep.
pub(crate) const CHUNK_BYTES: u64 = 8 * 1024;

/// Training-state size of the mixed-state row: large enough that the 5%
/// of the dense tensor a step dirties spans several chunks, so that the
/// codec and not chunk rounding sets the persisted share.
pub(crate) const MIXED_STATE_BYTES: u64 = 4 * 1024 * 1024;

/// Staging/codec chunk size of the mixed-state row.
pub(crate) const MIXED_CHUNK_BYTES: u64 = 16 * 1024;

/// Checkpoints per run.
pub const CHECKPOINTS: u64 = 8;

/// What the training state is made of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Payload {
    /// Every tensor tiles one block of this many bytes (`0` = RNG-dense
    /// incompressible state).
    Tiled(usize),
    /// An RNG-dense `params` tensor beside period-4096 and period-64
    /// optimizer tensors (the perf ledger's `saturate_sparse` layout).
    /// Only dedup can save the dense third, so this is the row that sees
    /// a clean incompressible chunk being written again.
    Mixed,
}

impl std::fmt::Display for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Payload::Tiled(period) => period.fmt(f),
            Payload::Mixed => f.pad("mixed"),
        }
    }
}

impl Payload {
    /// Training-state size of this payload's runs.
    fn state_bytes(self) -> u64 {
        match self {
            Payload::Tiled(_) => STATE_BYTES,
            Payload::Mixed => MIXED_STATE_BYTES,
        }
    }

    /// Staging/codec chunk size of this payload's runs.
    fn chunk_bytes(self) -> u64 {
        match self {
            Payload::Tiled(_) => CHUNK_BYTES,
            Payload::Mixed => MIXED_CHUNK_BYTES,
        }
    }

    fn state(self) -> TrainingState {
        let size = ByteSize::from_bytes(self.state_bytes());
        match self {
            Payload::Tiled(0) => TrainingState::synthetic(size, 42),
            Payload::Tiled(period) => TrainingState::compressible(size, 42, period),
            Payload::Mixed => {
                let shares = size.split_even(3);
                TrainingState::from_tensors(vec![
                    Tensor::synthetic("params", shares[0], 42),
                    Tensor::compressible("adam_m", shares[1], 42, 4096),
                    Tensor::compressible("adam_v", shares[2], 42, 64),
                ])
            }
        }
    }
}

/// One sweep row.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtCompressRow {
    /// Composition of the state (`period` column: the tile period, `0` =
    /// incompressible, or `mixed`).
    pub payload: Payload,
    /// Fraction of each tensor mutated per step.
    pub sparsity: f64,
    /// Checkpoints committed.
    pub checkpoints: u64,
    /// Bytes the codec-off path would persist (checkpoints × state size).
    pub logical_bytes: u64,
    /// Bytes the codec path actually persisted, frame tables included.
    pub persisted_bytes: u64,
    /// `logical_bytes / persisted_bytes`.
    pub bytes_saved_ratio: f64,
    /// Checkpoints whose codec frame paid (the rest went out all-`Raw`).
    pub framed: u64,
    /// Chunks stored as dedup references across the run.
    pub dedup_chunks: u64,
    /// Cold recovery reproduced the final state bit-for-bit.
    pub recovered_bit_identical: bool,
}

/// Runs [`CHECKPOINTS`] checkpoints at one (payload, sparsity) point and
/// returns the measured row.
pub fn measure(payload: Payload, sparsity: f64) -> ExtCompressRow {
    let (state_bytes, chunk_bytes) = (payload.state_bytes(), payload.chunk_bytes());
    let gpu = Gpu::new(GpuConfig::fast_for_tests(), payload.state());
    gpu.update();
    // Dedup bases stay pinned until their dependents retire, so leave
    // headroom beyond the double-buffer minimum.
    let slots = 4;
    let slot = FrameTable::slot_size_for(gpu.state_size(), ByteSize::from_bytes(chunk_bytes));
    let cap = CheckpointStore::required_capacity(slot, slots) + ByteSize::from_kb(4);
    let device: Arc<dyn PersistentDevice> =
        Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
    let geometry = StoreGeometry::single(slot, slots);
    let store = Arc::new(CheckpointStore::format(Arc::clone(&device), geometry).unwrap());
    let ns = store.namespace(DEFAULT_JOB).unwrap();
    // The framed copy stages the whole snapshot, so the pool must cover it.
    let pool_chunks = state_bytes.div_ceil(chunk_bytes) as usize;
    let pipeline = PersistPipeline::new(
        store,
        HostBufferPool::new(ByteSize::from_bytes(chunk_bytes), pool_chunks),
    )
    .with_writers(2)
    .with_codec(true);
    let telemetry = Telemetry::disabled();
    let ctx = PipelineCtx {
        telemetry: &telemetry,
        span: SpanId::NONE,
    };
    let mut persisted_bytes = 0u64;
    let mut framed = 0u64;
    let mut dedup_chunks = 0u64;
    let mut final_state = Vec::new();
    for iter in 1..=CHECKPOINTS {
        if iter > 1 {
            gpu.update_sparse(sparsity);
        }
        let guard = gpu.lock_weights_shared_owned();
        let (_, copied) = pipeline
            .checkpoint_framed(ctx, &ns, &guard, iter, CopyMode::Codec)
            .unwrap();
        if iter == CHECKPOINTS {
            final_state = vec![0u8; state_bytes as usize];
            guard.copy_range_to_host(0, &mut final_state);
        }
        drop(guard);
        persisted_bytes += copied.payload_len;
        framed += u64::from(copied.frame.saved_bytes > 0);
        dedup_chunks += copied.frame.dedup_chunks;
    }
    let recovered = recover(device).expect("committed store recovers");
    let recovered_bit_identical =
        recovered.iteration == CHECKPOINTS && recovered.payload == final_state;
    let logical_bytes = CHECKPOINTS * state_bytes;
    ExtCompressRow {
        payload,
        sparsity,
        checkpoints: CHECKPOINTS,
        logical_bytes,
        persisted_bytes,
        bytes_saved_ratio: logical_bytes as f64 / persisted_bytes as f64,
        framed,
        dedup_chunks,
        recovered_bit_identical,
    }
}

/// Runs the full period × sparsity sweep, then the mixed-state row.
pub fn run() -> Vec<ExtCompressRow> {
    let mut rows = Vec::new();
    for &period in &PERIODS {
        for &sparsity in &SPARSITIES {
            rows.push(measure(Payload::Tiled(period), sparsity));
        }
    }
    rows.push(measure(Payload::Mixed, MIXED_SPARSITY));
    rows
}

/// Writes the rows as CSV.
///
/// # Errors
///
/// Returns any I/O error.
pub fn write_csv<W: std::io::Write>(rows: &[ExtCompressRow], out: W) -> std::io::Result<()> {
    let mut w = CsvWriter::new(
        out,
        &[
            "period",
            "sparsity",
            "checkpoints",
            "logical_bytes",
            "persisted_bytes",
            "bytes_saved_ratio",
            "framed",
            "dedup_chunks",
            "recovered_bit_identical",
        ],
    );
    for r in rows {
        w.row(&[
            &r.payload,
            &format_args!("{:.2}", r.sparsity),
            &r.checkpoints,
            &r.logical_bytes,
            &r.persisted_bytes,
            &format_args!("{:.2}", r.bytes_saved_ratio),
            &r.framed,
            &r.dedup_chunks,
            &r.recovered_bit_identical,
        ])?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn high_redundancy_sweep_saves_at_least_three_x() {
        let row = measure(Payload::Tiled(16), 0.05);
        assert_eq!(row.framed, row.checkpoints, "every checkpoint frames");
        assert!(
            row.bytes_saved_ratio >= 3.0,
            "period-16 tiles at 5% sparsity must save >=3x, got {:.2}",
            row.bytes_saved_ratio
        );
        assert!(row.recovered_bit_identical);
    }

    #[test]
    fn dense_incompressible_payloads_fall_back_to_raw() {
        let row = measure(Payload::Tiled(0), 1.00);
        assert_eq!(row.framed, 0, "RNG-dense state must never pack");
        // Nothing but the all-Raw frames' tables on top of the state.
        let records = (STATE_BYTES / CHUNK_BYTES) as usize;
        let tables = row.checkpoints * FrameTable::encoded_len_for(records);
        assert_eq!(row.persisted_bytes, row.logical_bytes + tables);
        assert!(row.bytes_saved_ratio < 1.0 && row.bytes_saved_ratio > 0.99);
        assert!(row.recovered_bit_identical);
    }

    #[test]
    fn tiled_states_dedup_chunks_at_any_sparsity() {
        let sparse = measure(Payload::Tiled(64), 0.05);
        let dense = measure(Payload::Tiled(64), 1.00);
        // Period-64 tiles repeat within every snapshot, so chunk dedup
        // engages regardless of the update pattern; sparsity only shifts
        // which chunks hit (the exact counts differ within noise).
        assert!(sparse.dedup_chunks > 0, "sparse run must dedup chunks");
        assert!(dense.dedup_chunks > 0, "dense run must dedup chunks");
        assert!(
            sparse.bytes_saved_ratio > 3.0 && dense.bytes_saved_ratio > 3.0,
            "tiled payloads must stay well-compressed at any sparsity \
             ({:.2}x sparse, {:.2}x dense)",
            sparse.bytes_saved_ratio,
            dense.bytes_saved_ratio
        );
        assert!(sparse.recovered_bit_identical && dense.recovered_bit_identical);
    }

    #[test]
    fn mixed_state_keeps_clean_dense_chunks_as_references() {
        let row = measure(Payload::Mixed, MIXED_SPARSITY);
        assert_eq!(row.framed, row.checkpoints, "every checkpoint frames");
        let ratio = row.persisted_bytes as f64 / row.logical_bytes as f64;
        assert!(
            ratio <= 0.08,
            "a clean RNG-dense chunk must stay a reference: persisted / logical = {ratio:.4}"
        );
        assert!(row.recovered_bit_identical);
    }

    #[test]
    fn csv_has_one_line_per_row_plus_header() {
        let rows = vec![measure(Payload::Tiled(16), 0.50)];
        let mut buf = Vec::new();
        write_csv(&rows, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.starts_with("period,sparsity,"));
    }
}
