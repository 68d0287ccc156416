//! Parallel-restore era benchmark: verified-fetch latency through
//! [`pccheck::RestorePipeline`] at 1/2/4 readers on a 4-way striped
//! store, plus end-to-end `recover_instrumented_with` restart latency,
//! emitted as `BENCH_pr5.json` at the repository root.
//!
//! The geometry mirrors the `ext_restore` harness sweep: 32 MiB payload
//! on four 200 MB/s members with 8 MiB stripe units, so each of four
//! readers drains one member's token bucket. Acceptance: 4 readers must
//! fetch at least 2× faster than one reader on the same store. CI runs
//! this as a smoke test and archives the JSON.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use pccheck::{recover_instrumented_with, RestoreOptions};
use pccheck_harness::ext_restore::{
    committed_store, measure_store, MEMBER_MB_PER_SEC, STRIPE_UNIT,
};
use pccheck_telemetry::Telemetry;
use pccheck_util::ByteSize;

/// Checkpoint payload size.
const STATE_MB: u64 = 32;
/// Stripe members.
const WAYS: u32 = 4;
/// Reader counts measured.
const READERS: [usize; 3] = [1, 2, 4];
/// Acceptance floor: 4 readers vs 1 on the 4-way stripe.
const SPEEDUP_FLOOR: f64 = 2.0;

/// Times one full `recover_instrumented_with` (open, scan, fetch,
/// verify) on the store's device, after an untimed warmup recovery that
/// drains the members' burst credit.
fn recover_secs(store: &Arc<pccheck::CheckpointStore>, readers: usize) -> f64 {
    let options = RestoreOptions {
        readers,
        ..RestoreOptions::default()
    };
    let device = Arc::clone(store.device());
    let telemetry = Telemetry::disabled();
    recover_instrumented_with(Arc::clone(&device), &telemetry, options).expect("warmup recovery");
    let t0 = Instant::now();
    let (recovered, _trace) =
        recover_instrumented_with(device, &telemetry, options).expect("recovery succeeds");
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(recovered.payload.len() as u64, STATE_MB * 1024 * 1024);
    secs
}

fn main() {
    println!(
        "[bench_pr5] parallel restore: {STATE_MB} MiB payload, {WAYS}-way stripe, \
         {} MiB units, {MEMBER_MB_PER_SEC} MB/s members",
        STRIPE_UNIT / (1024 * 1024)
    );

    let store = committed_store(ByteSize::from_mb_u64(STATE_MB), WAYS);
    let fetch: Vec<(usize, f64)> = READERS
        .iter()
        .map(|&r| (r, measure_store(&store, r)))
        .collect();
    let baseline = fetch[0].1;
    for &(r, secs) in &fetch {
        println!(
            "  fetch: {r} readers -> {:.1} ms ({:.2}x)",
            secs * 1e3,
            baseline / secs
        );
    }
    let four = fetch
        .iter()
        .find(|(r, _)| *r == 4)
        .map(|&(_, s)| s)
        .expect("4-reader row");
    let speedup = baseline / four;

    let restart_1 = recover_secs(&store, 1);
    let restart_4 = recover_secs(&store, 4);
    println!(
        "  restart: 1 reader {:.1} ms, 4 readers {:.1} ms ({:.2}x)",
        restart_1 * 1e3,
        restart_4 * 1e3,
        restart_1 / restart_4
    );

    let pass = speedup >= SPEEDUP_FLOOR;
    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"bench_pr5\",\n");
    let _ = writeln!(
        json,
        "  \"config\": {{\"state_bytes\": {}, \"ways\": {WAYS}, \"stripe_unit\": {STRIPE_UNIT}, \
         \"member_mb_per_sec\": {MEMBER_MB_PER_SEC}}},",
        STATE_MB * 1024 * 1024
    );
    json.push_str("  \"fetch\": [\n");
    for (i, &(r, secs)) in fetch.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"readers\": {r}, \"secs\": {:.4}, \"speedup\": {:.3}}}{}",
            secs,
            baseline / secs,
            if i + 1 < fetch.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"restart\": {{\"one_reader_secs\": {restart_1:.4}, \
         \"four_reader_secs\": {restart_4:.4}}},"
    );
    let _ = writeln!(
        json,
        "  \"acceptance\": {{\"four_reader_speedup\": {speedup:.3}, \
         \"target\": {SPEEDUP_FLOOR}, \"pass\": {pass}}}\n}}"
    );

    let root = std::env::var("CARGO_MANIFEST_DIR")
        .map(|d| format!("{d}/../.."))
        .unwrap_or_else(|_| ".".into());
    let path = format!("{root}/BENCH_pr5.json");
    std::fs::write(&path, &json).expect("write BENCH_pr5.json");
    println!("[bench_pr5] wrote {path}");

    assert!(
        speedup >= SPEEDUP_FLOOR,
        "4-reader restore speedup {speedup:.2}x below the {SPEEDUP_FLOOR}x floor on a \
         {WAYS}-way stripe"
    );
}
