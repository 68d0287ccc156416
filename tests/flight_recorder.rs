//! Flight-recorder durability properties, exercised through a real
//! simulated device rather than the telemetry crate's in-crate tests:
//! however the device dies — clean persist boundary, mid-`msync` fuse, or
//! the adversarial cache-line-granular crash policy — scanning the ring
//! afterwards yields only checksum-valid records forming a prefix of what
//! was appended, never fabricated or half-written events.
//!
//! The seeded `prop_*` tests draw their inputs from `pccheck_util::rng`
//! and delegate to the plain check functions below, which the
//! deterministic grid tests also run.

use std::sync::Arc;

use pccheck_device::{CrashPolicy, DeviceConfig, PersistentDevice, SsdDevice};
use pccheck_telemetry::{
    FlightEventKind, FlightRecord, FlightRing, FLIGHT_HEADER_SIZE, FLIGHT_RECORD_SIZE,
};
use pccheck_util::rng::check;
use pccheck_util::ByteSize;

/// Cases per seeded property.
const CASES: u64 = 64;

fn ring_device(capacity_records: u32, policy: CrashPolicy) -> Arc<SsdDevice> {
    let cap =
        ByteSize::from_bytes(FlightRing::required_capacity(capacity_records) + FLIGHT_RECORD_SIZE);
    Arc::new(SsdDevice::with_crash_policy(
        DeviceConfig::fast_for_tests(cap),
        policy,
    ))
}

/// Appends `total` records, arming the persist fuse so the device dies
/// during the `survivors + 1`-th record's `msync`. The post-crash scan
/// must hold exactly the `survivors` fully persisted records (modulo
/// wrap), in order, with their payloads intact.
fn check_fuse_crash_leaves_valid_prefix(total: u64, survivors: u64, capacity: u32) {
    assert!(survivors < total);
    let ssd = ring_device(capacity, CrashPolicy::DropUnpersisted);
    let device: Arc<dyn PersistentDevice> = ssd.clone();
    let ring = FlightRing::create(Arc::clone(&device), 0, capacity).expect("ring fits");
    // `create` already persisted the header; every append persists once.
    ssd.arm_crash_after_persists(survivors);
    for i in 0..total {
        ring.append(FlightEventKind::Commit, i + 1, (i % 4) as u32, i * 10, i, 0);
    }
    let scan = FlightRing::scan(&*device, 0).expect("header survives");
    let expect = survivors.min(capacity as u64);
    assert_eq!(scan.records.len() as u64, expect, "prefix length");
    assert_eq!(scan.torn_cells, 0, "clean persist boundary tears nothing");
    for rec in &scan.records {
        // Each surviving record is byte-exact, not merely checksum-valid.
        assert_eq!(rec.counter, rec.seq + 1);
        assert_eq!(rec.iteration, rec.seq * 10);
        assert_eq!(rec.bytes, rec.seq);
    }
    let seqs: Vec<u64> = scan.records.iter().map(|r| r.seq).collect();
    let base = survivors.saturating_sub(capacity as u64);
    assert_eq!(seqs, (base..survivors).collect::<Vec<u64>>(), "contiguous");
}

/// Crashes under the adversarial policy (each dirty cache line survives
/// with p=1/2). Whatever the scan returns must still be a subset of the
/// appended records with every field intact — a torn cell may be *lost*
/// (counted) but never decodes to a fabricated event.
fn check_adversarial_crash_never_fabricates(appended: u64, capacity: u32, seed: u64) {
    let ssd = ring_device(capacity, CrashPolicy::RandomPartial { seed });
    let device: Arc<dyn PersistentDevice> = ssd.clone();
    let ring = FlightRing::create(Arc::clone(&device), 0, capacity).expect("ring fits");
    for i in 0..appended {
        ring.append(
            FlightEventKind::Begin,
            i + 1,
            (i % 8) as u32,
            i,
            i * 3,
            i * 7,
        );
    }
    // Leave one more record half-flight: written, never persisted.
    ssd.arm_crash_after_persists(0);
    ring.append(FlightEventKind::Commit, appended + 1, 0, 0, 0, 0);
    assert!(ssd.is_crashed());
    let scan = FlightRing::scan(&*device, 0).expect("header survives");
    assert!(scan.records.len() as u64 <= (appended + 1).min(capacity as u64));
    for rec in &scan.records {
        if rec.seq < appended {
            // A persisted record: byte-exact or absent, never altered.
            assert_eq!(rec.kind, FlightEventKind::Begin);
            assert_eq!(rec.counter, rec.seq + 1);
            assert_eq!(rec.iteration, rec.seq);
            assert_eq!(rec.bytes, rec.seq * 3);
            assert_eq!(rec.aux, rec.seq * 7);
        } else {
            // The in-flight append's single cache line may survive whole
            // (an msync interrupted after the data reached media) — but
            // then it must be the exact record that was being written.
            assert_eq!(rec.seq, appended);
            assert_eq!(rec.kind, FlightEventKind::Commit);
            assert_eq!(rec.counter, appended + 1);
        }
    }
    // Sorted + unique by construction of the scan.
    let seqs: Vec<u64> = scan.records.iter().map(|r| r.seq).collect();
    let mut sorted = seqs.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(seqs, sorted);
}

/// Wrapping past capacity keeps the newest window and reports `wrapped`.
fn check_partial_wrap_keeps_newest(total: u64, capacity: u32) {
    let ssd = ring_device(capacity, CrashPolicy::DropUnpersisted);
    let device: Arc<dyn PersistentDevice> = ssd.clone();
    let ring = FlightRing::create(Arc::clone(&device), 0, capacity).expect("ring fits");
    for i in 0..total {
        ring.append(FlightEventKind::MetaPersisted, i + 1, 0, i, 0, 0);
    }
    let scan = FlightRing::scan(&*device, 0).expect("scan");
    let expect = total.min(capacity as u64);
    assert_eq!(scan.records.len() as u64, expect);
    assert_eq!(scan.wrapped(), total > capacity as u64);
    let first = total - expect;
    for (i, rec) in scan.records.iter().enumerate() {
        assert_eq!(rec.seq, first + i as u64);
    }
}

/// Exactly `laps` full laps: `max_seq + 1` is a capacity multiple, so the
/// lap-window filter's keep range is one whole lap and nothing may be
/// counted stale or torn.
fn check_exact_capacity_multiple_wrap(laps: u64, capacity: u32) {
    let ssd = ring_device(capacity, CrashPolicy::DropUnpersisted);
    let device: Arc<dyn PersistentDevice> = ssd.clone();
    let ring = FlightRing::create(Arc::clone(&device), 0, capacity).expect("ring fits");
    let total = laps * u64::from(capacity);
    for i in 0..total {
        ring.append(FlightEventKind::Commit, i + 1, 0, i, 0, 0);
    }
    let scan = FlightRing::scan(&*device, 0).expect("scan");
    assert_eq!(scan.records.len() as u64, u64::from(capacity));
    assert_eq!(scan.wrapped(), laps > 1);
    assert_eq!(scan.stale_cells, 0, "a full lap has no stale survivors");
    assert_eq!(scan.torn_cells, 0);
    let seqs: Vec<u64> = scan.records.iter().map(|r| r.seq).collect();
    assert_eq!(
        seqs,
        (total - u64::from(capacity)..total).collect::<Vec<u64>>()
    );
}

/// Crash exactly at a lap boundary: `laps` full laps persist, then the
/// overwrite of cell 0 (seq = laps*capacity) dies in its msync. The
/// surviving cell-0 record trails the ring maximum by exactly
/// `capacity - 1` — the boundary case the lap-window filter must keep
/// (it is the oldest in-window record), not reject as stale.
fn check_lap_boundary_crash_keeps_previous_lap(laps: u64, capacity: u32) {
    let ssd = ring_device(capacity, CrashPolicy::DropUnpersisted);
    let device: Arc<dyn PersistentDevice> = ssd.clone();
    let ring = FlightRing::create(Arc::clone(&device), 0, capacity).expect("ring fits");
    let total = laps * u64::from(capacity);
    for i in 0..total {
        ring.append(FlightEventKind::Commit, i + 1, 0, i, 0, 0);
    }
    ssd.arm_crash_after_persists(0);
    ring.append(FlightEventKind::Commit, total + 1, 0, total, 0, 0);
    assert!(ssd.is_crashed());
    let scan = FlightRing::scan(&*device, 0).expect("header survives");
    assert_eq!(scan.records.len() as u64, u64::from(capacity));
    assert_eq!(
        scan.stale_cells, 0,
        "the boundary survivor is in-window, not stale"
    );
    let seqs: Vec<u64> = scan.records.iter().map(|r| r.seq).collect();
    assert_eq!(
        seqs,
        (total - u64::from(capacity)..total).collect::<Vec<u64>>(),
        "the previous lap is the coherent history"
    );
}

/// Plants a checksum-valid record from `lap_gap + 1` laps back (its
/// cell's newer overwrites all lost) next to a fresh one: the scan must
/// reject the resurrected record, count it, and reopening must resume
/// after the true maximum.
fn check_stale_lap_cell_is_rejected(capacity: u32, cell: u32, lap_gap: u64) {
    assert!(capacity >= 2 && cell < capacity && lap_gap >= 1);
    let ssd = ring_device(capacity, CrashPolicy::DropUnpersisted);
    let device: Arc<dyn PersistentDevice> = ssd.clone();
    FlightRing::create(Arc::clone(&device), 0, capacity).expect("ring fits");
    let plant = |seq: u64| {
        let rec = FlightRecord {
            seq,
            kind: FlightEventKind::Commit,
            counter: seq + 1,
            slot: 0,
            iteration: seq,
            bytes: 0,
            aux: 0,
        };
        let off = FLIGHT_HEADER_SIZE + (seq % u64::from(capacity)) * FLIGHT_RECORD_SIZE;
        device.write_at(off, &rec.encode()).expect("plant write");
        device
            .persist(off, FLIGHT_RECORD_SIZE)
            .expect("plant persist");
    };
    let stale_seq = u64::from(cell); // lap 0
    let fresh_cell = (cell + 1) % capacity;
    let fresh_seq = (1 + lap_gap) * u64::from(capacity) + u64::from(fresh_cell);
    plant(stale_seq);
    plant(fresh_seq);
    let scan = FlightRing::scan(&*device, 0).expect("scan");
    let seqs: Vec<u64> = scan.records.iter().map(|r| r.seq).collect();
    assert_eq!(seqs, [fresh_seq], "stale lap must not splice into history");
    assert_eq!(scan.stale_cells, 1);
    assert_eq!(scan.torn_cells, 0);
    // Reopening resumes after the true maximum, not the stale record.
    let ring = FlightRing::open(Arc::clone(&device), 0).expect("reopen");
    ring.append(FlightEventKind::RecoveryStart, 0, u32::MAX, 0, 0, 0);
    assert_eq!(
        ring.read_all()
            .expect("rescan")
            .records
            .last()
            .map(|r| r.seq),
        Some(fresh_seq + 1)
    );
}

#[test]
fn exact_capacity_multiple_grid_keeps_one_whole_lap() {
    for &capacity in &[2u32, 5, 8] {
        for &laps in &[1u64, 2, 3, 7] {
            check_exact_capacity_multiple_wrap(laps, capacity);
            check_lap_boundary_crash_keeps_previous_lap(laps, capacity);
        }
    }
}

#[test]
fn stale_lap_grid_rejects_resurrected_cells() {
    for &capacity in &[2u32, 4, 9] {
        for cell in [0, capacity / 2, capacity - 1] {
            for &lap_gap in &[1u64, 2, 5] {
                check_stale_lap_cell_is_rejected(capacity, cell, lap_gap);
            }
        }
    }
}

#[test]
fn fuse_crash_grid_always_yields_valid_prefix() {
    for &capacity in &[4u32, 7, 16] {
        for &total in &[1u64, 3, 8, 23] {
            for survivors in [0, total / 2, total.saturating_sub(1)] {
                if survivors < total {
                    check_fuse_crash_leaves_valid_prefix(total, survivors, capacity);
                }
            }
        }
    }
}

#[test]
fn adversarial_crash_grid_never_fabricates_records() {
    for &capacity in &[4u32, 9] {
        for &appended in &[2u64, 6, 15] {
            for seed in 0..4u64 {
                check_adversarial_crash_never_fabricates(appended, capacity, seed);
            }
        }
    }
}

#[test]
fn partial_wrap_grid_keeps_newest_window() {
    for &capacity in &[2u32, 5, 8] {
        for &total in &[1u64, 5, 8, 21] {
            check_partial_wrap_keeps_newest(total, capacity);
        }
    }
}

#[test]
fn prop_fuse_crash_leaves_valid_prefix() {
    check(CASES, |r| {
        let (total, survivor_frac, capacity) = (r.range(1..40), r.range(0..100), r.range(2..24));
        let survivors = survivor_frac * (total - 1) / 100;
        check_fuse_crash_leaves_valid_prefix(total, survivors.min(total - 1), capacity as u32);
    });
}

#[test]
fn prop_adversarial_crash_never_fabricates() {
    check(CASES, |r| {
        let (appended, capacity, seed) = (r.range(1..32), r.range(2..16), r.range(0..1_000_000));
        check_adversarial_crash_never_fabricates(appended, capacity as u32, seed);
    });
}

#[test]
fn prop_partial_wrap_keeps_newest() {
    check(CASES, |r| {
        let (total, capacity) = (r.range(1..64), r.range(2..16));
        check_partial_wrap_keeps_newest(total, capacity as u32);
    });
}

#[test]
fn prop_exact_capacity_multiple_keeps_one_lap() {
    check(CASES, |r| {
        let (laps, capacity) = (r.range(1..6), r.range(2..16) as u32);
        check_exact_capacity_multiple_wrap(laps, capacity);
        check_lap_boundary_crash_keeps_previous_lap(laps, capacity);
    });
}

#[test]
fn prop_stale_lap_cell_is_rejected() {
    check(CASES, |r| {
        let (capacity, cell_pick, lap_gap) = (
            r.range(2..16) as u32,
            r.range(0..1000) as u32,
            r.range(1..6),
        );
        check_stale_lap_cell_is_rejected(capacity, cell_pick % capacity, lap_gap);
    });
}
