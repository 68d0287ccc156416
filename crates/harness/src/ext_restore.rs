//! Extension: parallel-restore sweep — recovery latency vs reader count
//! and stripe width.
//!
//! §4.2 treats checkpoint load time `l` as a device-bound constant. The
//! [`pccheck::RestorePipeline`] turns it into a tunable: `r` reader
//! threads pull verified chunks concurrently, so on an `N`-way striped
//! store the restore should approach `N×` a single reader's bandwidth —
//! the read-side mirror of the `ext_striping` persist sweep. This sweep
//! measures the wall-clock time to fetch and verify one committed
//! checkpoint across payload size × readers × stripe ways on throttled
//! simulated SSDs, where reader parallelism (not CPU) is the bottleneck.
//!
//! The checkpoint is persisted through [`pccheck::PersistPipeline`] and
//! the restore digests each chunk's blocks independently as it lands —
//! preemption-grade restart latency is `payload / (min(r, ways) ·
//! member_bandwidth)` plus a verification overhang that overlaps the
//! reads.

use std::sync::Arc;
use std::time::Instant;

use pccheck::{
    CheckpointStore, FrameTable, PersistPipeline, PipelineCtx, RestorePipeline, StoreGeometry,
    DEFAULT_JOB,
};
use pccheck_device::{DeviceConfig, HostBufferPool, PersistentDevice, SsdDevice, StripedDevice};
use pccheck_telemetry::{SpanId, Telemetry};
use pccheck_util::{Bandwidth, ByteSize, CsvWriter};

use crate::HostPayload;

/// Reader counts swept.
pub(crate) const READERS: [usize; 3] = [1, 2, 4];

/// Stripe widths swept (1 = a single SSD, no striping).
pub(crate) const WAYS: [u32; 2] = [1, 4];

/// Per-member media bandwidth. Modest on purpose: restore must be
/// device-bound so the sweep measures read fan-out, not memcpy speed.
pub(crate) const MEMBER_MB_PER_SEC: f64 = 200.0;

/// Stripe unit. Must comfortably exceed each member's token-bucket burst
/// bank (~10 ms ≈ 2 MB at 200 MB/s): with small units a *single*
/// sequential reader harvests every idle member's banked refill credit
/// and already restores at aggregate bandwidth, hiding reader fan-out.
/// With 8 MiB units a lone reader pays real throttle time per unit while
/// `r` readers drain `r` members' buckets concurrently.
pub(crate) const STRIPE_UNIT: u64 = 8 * 1024 * 1024;

/// The persist-side staging chunk, and so the committed frame's record
/// size: the restore's read granularity.
pub(crate) const READ_CHUNK: u64 = 128 * 1024;

/// Payload sizes swept by [`run`]. The larger size gives every 4-reader
/// run a whole stripe unit, so reader `k` maps to member `k`.
pub(crate) fn sizes() -> Vec<ByteSize> {
    vec![ByteSize::from_mb_u64(16), ByteSize::from_mb_u64(32)]
}

/// One sweep row.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ExtRestoreRow {
    /// Checkpoint payload size.
    pub(crate) size: ByteSize,
    /// Stripe members backing the store.
    pub(crate) ways: u32,
    /// Parallel restore readers.
    pub(crate) readers: usize,
    /// Wall-clock fetch+verify time (seconds).
    pub(crate) restore_secs: f64,
    /// Speedup over the 1-reader run on the same geometry.
    pub(crate) speedup: f64,
}

/// A formatted store on a (possibly striped) throttled device set with one
/// committed checkpoint of `size`.
fn committed_store(size: ByteSize, ways: u32) -> Arc<CheckpointStore> {
    let slot = FrameTable::slot_size_for(size, ByteSize::from_bytes(READ_CHUNK));
    let cap = CheckpointStore::required_capacity(slot, 2) + ByteSize::from_kb(64);
    let throttled = |capacity| DeviceConfig {
        capacity,
        write_bandwidth: Bandwidth::from_mb_per_sec(MEMBER_MB_PER_SEC),
        throttled: true,
    };
    let device: Arc<dyn PersistentDevice> = if ways <= 1 {
        Arc::new(SsdDevice::new(throttled(cap)))
    } else {
        // Each member holds its 1/ways share plus slack for rounding to
        // whole stripe units.
        let member_cap = ByteSize::from_bytes(cap.as_u64() / u64::from(ways) + 2 * STRIPE_UNIT);
        let members = (0..ways)
            .map(|_| Arc::new(SsdDevice::new(throttled(member_cap))) as Arc<dyn PersistentDevice>)
            .collect();
        Arc::new(StripedDevice::new(
            members,
            ByteSize::from_bytes(STRIPE_UNIT),
        ))
    };
    let store = Arc::new(
        CheckpointStore::format(device, StoreGeometry::single(slot, 2)).expect("format store"),
    );
    let ns = store.namespace(DEFAULT_JOB).expect("single-tenant store");
    // RNG-dense, so no chunk repeats another and every chunk is read back.
    let mut data = vec![0; size.as_u64() as usize];
    pccheck_util::rng::fill_deterministic(&mut data, 7);
    let src = HostPayload { data, step: 1 };
    let persist = PersistPipeline::new(
        Arc::clone(&store),
        HostBufferPool::new(ByteSize::from_bytes(READ_CHUNK), 8),
    )
    .with_writers(4);
    let telemetry = Telemetry::disabled();
    let ctx = PipelineCtx {
        telemetry: &telemetry,
        span: SpanId::NONE,
    };
    let lease = persist.lease(ctx, &ns);
    let copied = persist
        .copy(ctx, &src, &lease, 1, false, false)
        .expect("persist payload");
    persist.seal(ctx, &lease, 1, &copied).expect("seal");
    persist.commit(ctx, lease, 1, &copied).expect("commit");
    store
}

/// Times one verified fetch of the committed checkpoint with `readers`.
///
/// An untimed warmup fetch first drains the members' token buckets'
/// initial burst allowance, so the timed pass is
/// media-rate-bound instead of riding banked idle credit.
fn measure_store(store: &Arc<CheckpointStore>, readers: usize) -> f64 {
    let ns = store.namespace(DEFAULT_JOB).expect("single-tenant store");
    let meta = store.latest_committed(&ns).expect("committed checkpoint");
    let telemetry = Telemetry::disabled();
    let ctx = PipelineCtx {
        telemetry: &telemetry,
        span: SpanId::NONE,
    };
    let pipeline = RestorePipeline::new(Arc::clone(store)).with_readers(readers);
    pipeline
        .fetch_verified(ctx, &meta, &[])
        .expect("warmup restore");
    let t0 = Instant::now();
    let payload = pipeline
        .fetch_verified(ctx, &meta, &[])
        .expect("restore verifies");
    let secs = t0.elapsed().as_secs_f64();
    let table = FrameTable::encoded_len_for(payload.len().div_ceil(READ_CHUNK as usize));
    assert_eq!(payload.len() as u64 + table, meta.payload_len);
    secs
}

/// Runs the sweep over `sizes` × [`WAYS`] × [`READERS`].
pub(crate) fn run_with(sizes: &[ByteSize]) -> Vec<ExtRestoreRow> {
    let mut rows = Vec::new();
    for &size in sizes {
        for &ways in &WAYS {
            let store = committed_store(size, ways);
            let baseline = measure_store(&store, 1);
            for &readers in &READERS {
                let restore_secs = if readers == 1 {
                    baseline
                } else {
                    measure_store(&store, readers)
                };
                rows.push(ExtRestoreRow {
                    size,
                    ways,
                    readers,
                    restore_secs,
                    speedup: baseline / restore_secs,
                });
            }
        }
    }
    rows
}

/// Runs the full sweep.
pub(crate) fn run() -> Vec<ExtRestoreRow> {
    run_with(&sizes())
}

/// Writes the rows as CSV.
///
/// # Errors
///
/// Returns any I/O error.
pub(crate) fn write_csv<W: std::io::Write>(rows: &[ExtRestoreRow], out: W) -> std::io::Result<()> {
    let mut w = CsvWriter::new(
        out,
        &["size_mb", "ways", "readers", "restore_secs", "speedup"],
    );
    for r in rows {
        w.row(&[
            &format_args!("{:.1}", r.size.as_mb()),
            &r.ways,
            &r.readers,
            &format_args!("{:.4}", r.restore_secs),
            &format_args!("{:.2}", r.speedup),
        ])?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// A single-size smoke geometry for CI: one stripe unit per reader at
    /// the widest point, finishing in a couple hundred milliseconds.
    fn smoke_sizes() -> Vec<ByteSize> {
        vec![ByteSize::from_mb_u64(32)]
    }

    /// One shared smoke sweep: the geometry is device-throttled, so the
    /// run costs real wall-clock time — both tests read the same rows.
    fn smoke_rows() -> &'static [ExtRestoreRow] {
        static ROWS: OnceLock<Vec<ExtRestoreRow>> = OnceLock::new();
        ROWS.get_or_init(|| run_with(&smoke_sizes()))
    }

    fn speedup_of(rows: &[ExtRestoreRow], ways: u32, readers: usize) -> f64 {
        rows.iter()
            .find(|r| r.ways == ways && r.readers == readers)
            .map(|r| r.speedup)
            .expect("row present")
    }

    #[test]
    fn four_readers_beat_one_on_a_wide_stripe() {
        let rows = smoke_rows();
        assert!((speedup_of(rows, 4, 1) - 1.0).abs() < 1e-9);
        let four = speedup_of(rows, 4, 4);
        // The acceptance floor: ≥2× at 4 readers on a 4-way stripe.
        assert!(four >= 2.0, "4-way/4-reader speedup {four} < 2.0");
        let two = speedup_of(rows, 4, 2);
        assert!(two >= 1.5, "4-way/2-reader speedup {two} < 1.5");
    }

    #[test]
    fn single_device_restores_stay_device_bound() {
        let rows = smoke_rows();
        // One SSD serves ~one reader's bandwidth no matter how many
        // readers contend for it.
        let four = speedup_of(rows, 1, 4);
        assert!(four < 1.8, "1-way/4-reader speedup {four} should be flat");
    }
}
