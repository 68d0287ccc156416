//! Layer probes: each times one public function of one layer on a fixed
//! input, so a traced run says how fast every layer is in isolation.
//!
//! Probe inputs depend only on the seed and the workload's state size.
//! Every probe repeats a few times and reports the median repetition.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use crate::api::{
    chunk_digest, compress_gated, fnv1a, lz_decompress, ByteSize, CheckpointStore, Checkpointer,
    DeviceConfig, Gpu, GpuConfig, HostBufferPool, PcCheckConfig, PcCheckEngine, PccheckError,
    PersistentDevice, Phase, QosArbiter, QosConfig, SlotQueue, SsdDevice, Telemetry, TrainingState,
};
use crate::metrics::{mb_per_s, Report};
use crate::single::build_state;
use crate::stats::median;
use crate::workload::SingleSpec;

const MIB: u64 = 1 << 20;

/// Median wall time (seconds) of `reps` runs of `f`.
fn timed(reps: usize, mut f: impl FnMut()) -> f64 {
    let walls: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&walls)
}

/// Deterministic incompressible bytes (xorshift64*), independent of the
/// product's own RNG helpers.
fn noise(len: usize, seed: u64) -> Vec<u8> {
    let mut x = seed | 1;
    let mut out = vec![0u8; len];
    for w in out.chunks_mut(8) {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        let v = x.wrapping_mul(0x2545_f491_4f6c_dd1d).to_le_bytes();
        w.copy_from_slice(&v[..w.len()]);
    }
    out
}

fn scaled(full: u64, scale: f64) -> u64 {
    ((full as f64 * scale) as u64).max(1)
}

/// Runs every probe. `state` describes the workload's training state
/// (the GPU probes run on a state built the same way); `scale` shrinks
/// sizes and repetition counts for unit tests.
pub fn run_all(
    report: &mut Report,
    state: &SingleSpec,
    state_bytes: u64,
    seed: u64,
    scale: f64,
) -> Result<(), PccheckError> {
    fnv(report, seed, scale);
    gpu(report, state, state_bytes, seed);
    device(report, seed, scale)?;
    queue(report, scale);
    store(report, seed, scale)?;
    codec(report, seed);
    qos(report, scale);
    telemetry(report, scale);
    Ok(())
}

fn fnv(report: &mut Report, seed: u64, scale: f64) {
    let len = scaled(32 * MIB, scale);
    let buf = noise(len as usize, seed);
    let t = timed(3, || {
        black_box(fnv1a(black_box(&buf)));
    });
    report.put("util.fnv.fnv1a_mb_per_s", mb_per_s(len, t), "MB/s");
    let t = timed(5, || {
        black_box(chunk_digest(black_box(&buf)));
    });
    report.put("util.fnv.chunk_digest_mb_per_s", mb_per_s(len, t), "MB/s");
}

fn gpu(report: &mut Report, spec: &SingleSpec, state_bytes: u64, seed: u64) {
    let gpu = Gpu::new(
        GpuConfig::fast_for_tests(),
        build_state(spec, state_bytes, seed ^ 0x9b),
    );
    let t = timed(3, || {
        black_box(gpu.digest());
    });
    report.put("gpu.digest_mb_per_s", mb_per_s(state_bytes, t), "MB/s");

    let chunk = spec.chunk_bytes.min(state_bytes) as usize;
    let mut host = vec![0u8; chunk];
    let t = timed(5, || {
        let guard = gpu.lock_weights_shared();
        let mut off = 0u64;
        while off < state_bytes {
            let n = chunk.min((state_bytes - off) as usize);
            guard.copy_range_to_host(off, &mut host[..n]);
            off += n as u64;
        }
        black_box(&host);
    });
    report.put(
        "gpu.copy_to_host_mb_per_s",
        mb_per_s(state_bytes, t),
        "MB/s",
    );

    let t = timed(5, || gpu.update());
    report.put("gpu.update_mb_per_s", mb_per_s(state_bytes, t), "MB/s");
    let t = timed(5, || gpu.update_sparse(0.05));
    report.put("gpu.update_sparse_ms", t * 1e3, "ms");
}

fn device(report: &mut Report, seed: u64, scale: f64) -> Result<(), PccheckError> {
    let len = scaled(32 * MIB, scale);
    let chunk = MIB.min(len) as usize;
    let data = noise(chunk, seed ^ 0xd0);
    let ssd = SsdDevice::new(DeviceConfig::fast_for_tests(ByteSize::from_bytes(len)));
    let chunks = len / chunk as u64;
    let mut walls = [Vec::new(), Vec::new(), Vec::new()];
    let mut back = vec![0u8; chunk];
    for _ in 0..3 {
        let t = Instant::now();
        for c in 0..chunks {
            ssd.write_at(c * chunk as u64, &data)?;
        }
        walls[0].push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        for c in 0..chunks {
            ssd.persist(c * chunk as u64, chunk as u64)?;
        }
        walls[1].push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        for c in 0..chunks {
            ssd.read_durable_at(c * chunk as u64, &mut back)?;
        }
        walls[2].push(t.elapsed().as_secs_f64());
        assert_eq!(back, data, "device probe read back what it wrote");
    }
    let moved = chunks * chunk as u64;
    report.put(
        "device.ssd_write_mb_per_s",
        mb_per_s(moved, median(&walls[0])),
        "MB/s",
    );
    report.put(
        "device.ssd_persist_mb_per_s",
        mb_per_s(moved, median(&walls[1])),
        "MB/s",
    );
    report.put(
        "device.ssd_read_durable_mb_per_s",
        mb_per_s(moved, median(&walls[2])),
        "MB/s",
    );

    let pool = HostBufferPool::new(ByteSize::from_kb(64), 8);
    let n = scaled(200_000, scale);
    let t = timed(3, || {
        for _ in 0..n {
            black_box(pool.acquire());
        }
    });
    report.put("device.pool_acquire_ns", t * 1e9 / n as f64, "ns");
    Ok(())
}

fn queue(report: &mut Report, scale: f64) {
    let q = SlotQueue::with_capacity(64);
    for v in 0..32 {
        q.enqueue(v).expect("room for the prefill");
    }
    let n = scaled(1_000_000, scale);
    // The blocking forms are what the store's claim/recycle path calls:
    // the plain ones may report a transient empty or full under contention.
    let pairs = |q: &SlotQueue| {
        for _ in 0..n {
            let v = q.dequeue_blocking();
            q.enqueue_blocking(black_box(v));
        }
    };
    let t = timed(3, || pairs(&q));
    report.put("core.queue.pair_ns", t * 1e9 / n as f64, "ns");
    // Two threads, each doing `n` pairs on the same queue: per-pair
    // latency as either thread sees it.
    let t = timed(3, || {
        std::thread::scope(|s| {
            s.spawn(|| pairs(&q));
            pairs(&q);
        });
    });
    report.put("core.queue.pair_ns_2t", t * 1e9 / n as f64, "ns");
}

fn store(report: &mut Report, seed: u64, scale: f64) -> Result<(), PccheckError> {
    let size = ByteSize::from_kb(4);
    let gpu = Gpu::new(
        GpuConfig::fast_for_tests(),
        TrainingState::synthetic(size, seed),
    );
    let capacity = CheckpointStore::required_capacity(size, 3) + ByteSize::from_kb(64);
    let device: Arc<dyn PersistentDevice> =
        Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(capacity)));
    let config = PcCheckConfig::builder()
        .max_concurrent(2)
        .writer_threads(2)
        .chunk_size(size)
        .dram_chunks(4)
        .build()?;
    let engine = PcCheckEngine::new(config, device, size)?;
    let n = scaled(2000, scale);
    let t = Instant::now();
    for _ in 0..n {
        gpu.update();
        engine.checkpoint(&gpu, gpu.step_count());
        engine.try_drain()?;
    }
    let wall = t.elapsed().as_secs_f64();
    assert_eq!(
        engine.stats().committed(),
        n,
        "every tiny checkpoint committed"
    );
    report.put("core.store.commit_per_s", n as f64 / wall, "1/s");
    Ok(())
}

fn codec(report: &mut Report, seed: u64) {
    let len = 256 * 1024;
    let tile = noise(64, seed ^ 0xc0);
    let tiled: Vec<u8> = tile.iter().copied().cycle().take(len).collect();
    let rng = noise(len, seed ^ 0xc1);
    let reps = 9;
    let mut encoded = None;
    let t = timed(reps, || {
        encoded = black_box(compress_gated(black_box(&tiled)))
    });
    let encoded = encoded.expect("a tiled chunk passes the entropy gate");
    report.put(
        "core.codec.lz_encode_mb_per_s",
        mb_per_s(len as u64, t),
        "MB/s",
    );
    let mut decoded = None;
    let t = timed(reps, || {
        decoded = black_box(lz_decompress(black_box(&encoded), len))
    });
    assert_eq!(decoded.as_deref(), Some(&tiled[..]), "LZ round trip");
    report.put(
        "core.codec.lz_decode_mb_per_s",
        mb_per_s(len as u64, t),
        "MB/s",
    );
    let mut rejected = None;
    let t = timed(reps, || {
        rejected = Some(black_box(compress_gated(black_box(&rng))).is_none())
    });
    assert_eq!(rejected, Some(true), "an RNG chunk is declined by the gate");
    report.put(
        "core.codec.gate_reject_mb_per_s",
        mb_per_s(len as u64, t),
        "MB/s",
    );
}

fn qos(report: &mut Report, scale: f64) {
    let arbiter = Arc::new(QosArbiter::new(QosConfig::default()));
    arbiter.register_job(1, 1);
    let n = scaled(200_000, scale);
    let t = timed(3, || {
        for _ in 0..n {
            black_box(arbiter.acquire(1, 4096));
        }
    });
    report.put("core.qos.acquire_ns", t * 1e9 / n as f64, "ns");
}

fn telemetry(report: &mut Report, scale: f64) {
    let n = scaled(200_000, scale);
    let phase = Phase::ALL[0];
    let walls: Vec<f64> = (0..3)
        .map(|_| {
            // A fresh recorder per repetition: the event buffers grow.
            let telemetry = Telemetry::enabled();
            let span = telemetry.span_requested("probe", 0, 0);
            let t = Instant::now();
            for i in 0..n {
                telemetry.chunk(span, phase, i * 4096, 4096);
            }
            t.elapsed().as_secs_f64()
        })
        .collect();
    report.put("telemetry.record_ns", median(&walls) * 1e9 / n as f64, "ns");

    let telemetry = Telemetry::enabled();
    let span = telemetry.span_requested("probe", 0, 0);
    for i in 0..1000 {
        telemetry.chunk(span, phase, i * 4096, 4096);
    }
    let t = timed(51, || {
        black_box(telemetry.snapshot());
    });
    report.put("telemetry.snapshot_us", t * 1e6, "us");
}
