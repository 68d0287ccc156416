//! Persist-pipeline era benchmark: measured checkpoint persist bandwidth
//! through [`pccheck::PersistPipeline`] over a single SSD vs 2- and 4-way
//! [`StripedDevice`] arrays, emitted as `BENCH_pr3.json` at the repository
//! root.
//!
//! Every member SSD has its own token bucket (the simulated bandwidth
//! model), so a RAID-0 array's aggregate rate is the sum of its members'
//! — provided the writer threads actually spread chunks across members.
//! The pipeline's round-robin chunk scheduling is what's under test: a
//! 2-way stripe must sustain at least 1.8× the single-SSD persist
//! throughput. CI runs this as a smoke test and archives the JSON.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use pccheck::{
    CheckpointStore, CopyMode, FrameTable, PersistPipeline, PipelineCtx, StoreGeometry, DEFAULT_JOB,
};
use pccheck_device::{DeviceConfig, HostBufferPool, PersistentDevice, SsdDevice, StripedDevice};
use pccheck_gpu::SnapshotSource;
use pccheck_telemetry::Telemetry;
use pccheck_util::{Bandwidth, ByteSize};

/// Checkpoint payload per pass.
const STATE_BYTES: u64 = 4 * 1024 * 1024;
/// Pipeline chunk = stripe unit, so adjacent chunks land on different
/// members.
const CHUNK_BYTES: u64 = 128 * 1024;
/// Simulated write bandwidth of one member SSD.
const MEMBER_MBPS: f64 = 200.0;
/// Writer threads (enough to keep every member of a 4-way array busy).
const WRITERS: usize = 8;
/// Untimed passes to drain the token buckets' initial burst allowance.
const WARMUP_PASSES: u64 = 2;
/// Timed passes per configuration.
const TIMED_PASSES: u64 = 8;

/// A host-resident payload standing in for GPU weights.
struct HostPayload {
    data: Vec<u8>,
    step: u64,
}

impl SnapshotSource for HostPayload {
    fn size(&self) -> ByteSize {
        ByteSize::from_bytes(self.data.len() as u64)
    }

    fn step_count(&self) -> u64 {
        self.step
    }

    fn copy_range_to_host(&self, offset: u64, dst: &mut [u8]) {
        let o = offset as usize;
        dst.copy_from_slice(&self.data[o..o + dst.len()]);
    }
}

fn throttled_ssd(capacity: ByteSize) -> Arc<SsdDevice> {
    Arc::new(SsdDevice::new(DeviceConfig {
        capacity,
        write_bandwidth: Bandwidth::from_mb_per_sec(MEMBER_MBPS),
        throttled: true,
    }))
}

struct WaysResult {
    ways: u32,
    mb_per_sec: f64,
    member_bytes: Vec<u64>,
    peak_queue_depth: u64,
}

/// Runs warmup + timed checkpoint passes on `device`, returning the
/// measured persist bandwidth and per-member byte distribution.
fn measure(ways: u32) -> WaysResult {
    let state = ByteSize::from_bytes(STATE_BYTES);
    let slot = FrameTable::slot_size_for(state, ByteSize::from_bytes(CHUNK_BYTES));
    let member_cap = CheckpointStore::required_capacity(slot, 2) + ByteSize::from_kb(4);
    let (device, striped): (Arc<dyn PersistentDevice>, Option<Arc<StripedDevice>>) = if ways == 1 {
        (throttled_ssd(member_cap), None)
    } else {
        let members: Vec<Arc<dyn PersistentDevice>> = (0..ways)
            .map(|_| throttled_ssd(member_cap) as Arc<dyn PersistentDevice>)
            .collect();
        let array = Arc::new(StripedDevice::new(
            members,
            ByteSize::from_bytes(CHUNK_BYTES),
        ));
        (Arc::clone(&array) as Arc<dyn PersistentDevice>, Some(array))
    };

    let store = Arc::new(
        CheckpointStore::format(Arc::clone(&device), StoreGeometry::single(slot, 2))
            .expect("device fits two slots"),
    );
    let ns = store.namespace(DEFAULT_JOB).expect("single-tenant store");
    let chunks = (STATE_BYTES / CHUNK_BYTES) as usize;
    let pipeline = PersistPipeline::new(Arc::clone(&store))
        .with_writers(WRITERS)
        .with_staging(HostBufferPool::new(
            ByteSize::from_bytes(CHUNK_BYTES),
            chunks,
        ));

    let telemetry = Telemetry::disabled();
    let run_pass = |iteration: u64| {
        let src = HostPayload {
            data: (0..STATE_BYTES)
                .map(|i| (i as u8).wrapping_mul(iteration as u8))
                .collect(),
            step: iteration,
        };
        let span = telemetry.span_requested("bench_pr3", iteration, STATE_BYTES);
        let ctx = PipelineCtx {
            telemetry: &telemetry,
            span,
        };
        let total = src.size();
        let lease = pipeline.lease(ctx, &ns);
        let copied = pipeline
            .copy(ctx, &src, &lease, iteration, total, CopyMode::Staged)
            .expect("staged copy on healthy device");
        pipeline
            .seal(ctx, &lease, iteration, &copied)
            .expect("seal on healthy device");
        pipeline
            .commit(ctx, lease, iteration, &copied)
            .expect("commit on healthy device");
    };

    for i in 0..WARMUP_PASSES {
        run_pass(i + 1);
    }
    let start = Instant::now();
    for i in 0..TIMED_PASSES {
        run_pass(WARMUP_PASSES + i + 1);
    }
    let elapsed = start.elapsed().as_secs_f64();
    let mb = (TIMED_PASSES * STATE_BYTES) as f64 / (1024.0 * 1024.0);

    let (member_bytes, peak_queue_depth) = match &striped {
        Some(array) => {
            let reports = array.stats_report();
            (
                reports[1..].iter().map(|r| r.bytes_written).collect(),
                reports[0].peak_queue_depth,
            )
        }
        None => {
            let report = &device.stats_report()[0];
            (vec![report.bytes_written], report.peak_queue_depth)
        }
    };
    WaysResult {
        ways,
        mb_per_sec: mb / elapsed,
        member_bytes,
        peak_queue_depth,
    }
}

fn main() {
    println!(
        "[bench_pr3] persist bandwidth vs stripe width ({} MiB/pass, {} timed passes, \
         member rate {} MB/s)",
        STATE_BYTES / (1024 * 1024),
        TIMED_PASSES,
        MEMBER_MBPS
    );

    let results: Vec<WaysResult> = [1u32, 2, 4].iter().map(|&w| measure(w)).collect();
    let single = results[0].mb_per_sec;

    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"bench_pr3\",\n");
    let _ = writeln!(
        json,
        "  \"config\": {{\"state_bytes\": {STATE_BYTES}, \"chunk_bytes\": {CHUNK_BYTES}, \
         \"member_mb_per_sec\": {MEMBER_MBPS}, \"writers\": {WRITERS}, \
         \"timed_passes\": {TIMED_PASSES}}},"
    );
    json.push_str("  \"striping\": [\n");
    for (i, r) in results.iter().enumerate() {
        let speedup = r.mb_per_sec / single;
        println!(
            "  ways={} persist={:.1} MB/s speedup={:.2}x peak_qd={} member_bytes={:?}",
            r.ways, r.mb_per_sec, speedup, r.peak_queue_depth, r.member_bytes
        );
        let members = r
            .member_bytes
            .iter()
            .map(|b| b.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        let _ = write!(
            json,
            "    {{\"ways\": {}, \"persist_mb_per_sec\": {:.2}, \
             \"speedup_vs_single\": {:.3}, \"peak_queue_depth\": {}, \
             \"member_bytes_written\": [{}]}}",
            r.ways, r.mb_per_sec, speedup, r.peak_queue_depth, members
        );
        json.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");

    let two_way = results[1].mb_per_sec / single;
    let _ = writeln!(
        json,
        "  \"acceptance\": {{\"two_way_speedup\": {:.3}, \"target\": 1.8, \"pass\": {}}}\n}}",
        two_way,
        two_way >= 1.8
    );

    let root = std::env::var("CARGO_MANIFEST_DIR")
        .map(|d| format!("{d}/../.."))
        .unwrap_or_else(|_| ".".into());
    let path = format!("{root}/BENCH_pr3.json");
    std::fs::write(&path, &json).expect("write BENCH_pr3.json");
    println!("[bench_pr3] wrote {path}");

    assert!(
        two_way >= 1.8,
        "2-way stripe persist speedup {two_way:.2}x below the 1.8x floor"
    );
}
