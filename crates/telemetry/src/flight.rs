//! The persistent flight recorder: a fixed-size, crash-safe event ring.
//!
//! The in-memory recorder ([`crate::recorder::MemoryRecorder`]) vanishes at exactly
//! the moment the paper cares about — when a preemption kills the trainer.
//! The flight recorder closes that gap: checkpoint-lifecycle milestones
//! are appended as 64-byte checksummed records (the same one-cache-line
//! record/CRC discipline as the store's `CheckMeta`) to a reserved region
//! of the **same** [`PersistentDevice`] that holds the checkpoints, so an
//! injected crash preserves the event history alongside the slot data and
//! a post-crash auditor can replay what the protocol was doing when the
//! lights went out.
//!
//! # Crash safety
//!
//! * The ring has **no mutable header cursor**. The header cell is written
//!   once at [`FlightRing::create`] and never touched again; the append
//!   position is derived on [`FlightRing::open`]/[`FlightRing::scan`] by
//!   scanning all cells for the highest sequence number. A crash can
//!   therefore never tear the ring's own bookkeeping.
//! * Appends are serialized by a mutex, and each record is written and
//!   persisted before the in-memory sequence counter advances — so at any
//!   crash point at most the **tail** record is torn, and a torn tail
//!   simply fails its CRC and is skipped by the scan. Decoding always
//!   yields a checksum-valid prefix of the appended history (modulo wrap).
//! * Append failures (e.g., the device already crashed) are swallowed and
//!   counted: the flight recorder is diagnostics, and must never turn a
//!   checkpoint failure into a second failure.

use std::fmt;
use std::sync::Arc;

use pccheck_device::PersistentDevice;
use pccheck_util::sync::Mutex;

/// Serialized size of one flight record: one cache line.
// api: a test oracle, listed in DESIGN §4 ("Test oracles").
pub const FLIGHT_RECORD_SIZE: u64 = 64;

/// Bytes occupied by the ring header cell.
// api: a test oracle, listed in DESIGN §4 ("Test oracles").
pub const FLIGHT_HEADER_SIZE: u64 = 64;

/// Cells a ring scan reads per device op (32 KiB).
const SCAN_READ_CELLS: u32 = 512;

const RECORD_MAGIC: u32 = 0x464C_5431; // "FLT1"
const RING_MAGIC: u64 = 0x5043_464C_5452_4731; // "PCFLTRG1"

/// FNV-1a over `data` — the record checksum, same discipline as the
/// checkpoint metadata records.
fn checksum(data: &[u8]) -> u64 {
    pccheck_util::fnv::fnv1a(data)
}

/// What a flight record witnesses. Discriminants are part of the on-device
/// format; never renumber.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum FlightEventKind {
    /// The store was formatted / a run started.
    RunStart = 1,
    /// `begin_checkpoint`: a counter was taken and a slot leased
    /// (`aux` = the packed `CHECK_ADDR` observed at begin).
    Begin = 2,
    /// The GPU→DRAM snapshot copy finished (`bytes` = payload size).
    CopyDone = 3,
    /// The payload is durable in the slot (`bytes` = payload size).
    PayloadPersisted = 4,
    /// The slot's metadata record is durable — the BARRIER before the
    /// commit CAS (`aux` = state digest).
    MetaPersisted = 5,
    /// The durable `CHECK_ADDR` now points at this checkpoint: it is the
    /// latest committed state.
    Commit = 6,
    /// The checkpoint lost the commit race (`aux` = winning counter).
    Superseded = 7,
    /// The checkpoint failed (device error, crash injection).
    Failed = 8,
    /// Post-crash recovery started.
    RecoveryStart = 9,
    /// Recovery completed (`aux` = number of candidates rejected before
    /// one verified).
    RecoveryDone = 10,
}

impl FlightEventKind {
    /// All kinds, in discriminant order.
    pub const ALL: [FlightEventKind; 10] = [
        FlightEventKind::RunStart,
        FlightEventKind::Begin,
        FlightEventKind::CopyDone,
        FlightEventKind::PayloadPersisted,
        FlightEventKind::MetaPersisted,
        FlightEventKind::Commit,
        FlightEventKind::Superseded,
        FlightEventKind::Failed,
        FlightEventKind::RecoveryStart,
        FlightEventKind::RecoveryDone,
    ];

    /// Decodes a stored discriminant.
    pub(crate) fn from_u8(v: u8) -> Option<FlightEventKind> {
        FlightEventKind::ALL.into_iter().find(|k| *k as u8 == v)
    }

    /// Stable lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            FlightEventKind::RunStart => "run_start",
            FlightEventKind::Begin => "begin",
            FlightEventKind::CopyDone => "copy_done",
            FlightEventKind::PayloadPersisted => "payload_persisted",
            FlightEventKind::MetaPersisted => "meta_persisted",
            FlightEventKind::Commit => "commit",
            FlightEventKind::Superseded => "superseded",
            FlightEventKind::Failed => "failed",
            FlightEventKind::RecoveryStart => "recovery_start",
            FlightEventKind::RecoveryDone => "recovery_done",
        }
    }
}

impl fmt::Display for FlightEventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One 64-byte flight record.
///
/// Layout (little-endian):
///
/// ```text
/// 0..4   magic "FLT1"     4      kind        5..8   reserved
/// 8..16  seq              16..24 counter     24..28 slot
/// 28..32 reserved         32..40 iteration   40..48 bytes
/// 48..56 aux              56..64 FNV-1a over bytes 0..56
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightRecord {
    /// Monotonic append sequence number (never wraps; the cell index is
    /// `seq % capacity`).
    pub seq: u64,
    /// What happened.
    pub kind: FlightEventKind,
    /// The checkpoint's global counter (0 for run-level records).
    pub counter: u64,
    /// The slot involved (`u32::MAX` when not applicable).
    pub slot: u32,
    /// Training iteration, when known (0 otherwise).
    pub iteration: u64,
    /// Payload bytes involved (0 when not applicable).
    pub bytes: u64,
    /// Kind-specific extra word (see [`FlightEventKind`]).
    pub aux: u64,
}

impl FlightRecord {
    /// Serializes to a 64-byte cell with magic and checksum.
    pub fn encode(&self) -> [u8; FLIGHT_RECORD_SIZE as usize] {
        let mut buf = [0u8; FLIGHT_RECORD_SIZE as usize];
        buf[0..4].copy_from_slice(&RECORD_MAGIC.to_le_bytes());
        buf[4] = self.kind as u8;
        buf[8..16].copy_from_slice(&self.seq.to_le_bytes());
        buf[16..24].copy_from_slice(&self.counter.to_le_bytes());
        buf[24..28].copy_from_slice(&self.slot.to_le_bytes());
        buf[32..40].copy_from_slice(&self.iteration.to_le_bytes());
        buf[40..48].copy_from_slice(&self.bytes.to_le_bytes());
        buf[48..56].copy_from_slice(&self.aux.to_le_bytes());
        let crc = checksum(&buf[0..56]);
        buf[56..64].copy_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Decodes a cell, returning `None` on bad magic, unknown kind, or CRC
    /// mismatch (torn write, never-written cell, corruption).
    pub fn decode(buf: &[u8]) -> Option<FlightRecord> {
        if buf.len() < FLIGHT_RECORD_SIZE as usize {
            return None;
        }
        let magic = u32::from_le_bytes(buf[0..4].try_into().ok()?);
        if magic != RECORD_MAGIC {
            return None;
        }
        let stored_crc = u64::from_le_bytes(buf[56..64].try_into().ok()?);
        if checksum(&buf[0..56]) != stored_crc {
            return None;
        }
        Some(FlightRecord {
            kind: FlightEventKind::from_u8(buf[4])?,
            seq: u64::from_le_bytes(buf[8..16].try_into().ok()?),
            counter: u64::from_le_bytes(buf[16..24].try_into().ok()?),
            slot: u32::from_le_bytes(buf[24..28].try_into().ok()?),
            iteration: u64::from_le_bytes(buf[32..40].try_into().ok()?),
            bytes: u64::from_le_bytes(buf[40..48].try_into().ok()?),
            aux: u64::from_le_bytes(buf[48..56].try_into().ok()?),
        })
    }
}

impl fmt::Display for FlightRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#{:<5} {:<17} counter {:<4} slot {:<3} iter {:<6} {} B aux {:#x}",
            self.seq,
            self.kind.name(),
            self.counter,
            if self.slot == u32::MAX {
                "-".to_string()
            } else {
                self.slot.to_string()
            },
            self.iteration,
            self.bytes,
            self.aux
        )
    }
}

#[derive(Debug, Default)]
struct RingState {
    next_seq: u64,
}

/// What a durable scan of the ring found.
#[derive(Debug, Clone)]
pub struct RingScan {
    /// Checksum-valid records, sorted by sequence number ascending. With a
    /// wrapped ring this is the newest `<= capacity` records.
    pub records: Vec<FlightRecord>,
    /// Cells that held data but failed validation (at most the torn tail
    /// under crash-free-append discipline; more under adversarial
    /// cache-line crash policies).
    pub torn_cells: u32,
    /// Checksum-valid cells rejected because they belonged to a *previous
    /// lap* of the ring: an adversarial crash dropped a cell's newest
    /// overwrite while the older record underneath stayed durable. Such a
    /// record passes CRC and lives in its own cell, but its seq trails the
    /// ring maximum by a full capacity or more, so splicing it into the
    /// history would interleave two laps.
    pub stale_cells: u32,
    /// Ring capacity in records.
    pub capacity: u32,
}

impl RingScan {
    /// `true` if the ring wrapped: the oldest surviving record is no longer
    /// seq 0, so the history is a suffix, not the full run.
    pub fn wrapped(&self) -> bool {
        self.records.first().is_some_and(|r| r.seq != 0)
    }

    /// The highest sequence number observed, if any record survived.
    pub(crate) fn max_seq(&self) -> Option<u64> {
        self.records.last().map(|r| r.seq)
    }
}

/// The on-device event ring: one 64-byte header cell plus `capacity`
/// 64-byte record cells, living at a fixed base offset of a
/// [`PersistentDevice`].
#[derive(Debug)]
pub struct FlightRing {
    device: Arc<dyn PersistentDevice>,
    base: u64,
    capacity: u32,
    state: Mutex<RingState>,
}

impl FlightRing {
    /// Bytes of device space a ring of `records` cells occupies.
    pub fn required_capacity(records: u32) -> u64 {
        FLIGHT_HEADER_SIZE + u64::from(records) * FLIGHT_RECORD_SIZE
    }

    /// Formats a fresh ring at `base`: writes the immutable header and
    /// zeroes every record cell so stale bytes can never decode.
    ///
    /// # Errors
    ///
    /// Returns a device error string if the region does not fit or I/O
    /// fails.
    pub fn create(
        device: Arc<dyn PersistentDevice>,
        base: u64,
        records: u32,
    ) -> Result<Self, String> {
        if records == 0 {
            return Err("flight ring needs at least 1 record cell".into());
        }
        let needed = base + Self::required_capacity(records);
        if needed > device.capacity().as_u64() {
            return Err(format!(
                "flight ring needs {needed} bytes but device holds {}",
                device.capacity()
            ));
        }
        let mut header = [0u8; FLIGHT_HEADER_SIZE as usize];
        header[0..8].copy_from_slice(&RING_MAGIC.to_le_bytes());
        header[8..12].copy_from_slice(&records.to_le_bytes());
        let crc = checksum(&header[0..12]);
        header[12..20].copy_from_slice(&crc.to_le_bytes());
        device.write_at(base, &header).map_err(|e| e.to_string())?;
        let zeros = vec![0u8; u64::from(records) as usize * FLIGHT_RECORD_SIZE as usize];
        device
            .write_at(base + FLIGHT_HEADER_SIZE, &zeros)
            .map_err(|e| e.to_string())?;
        device
            .persist(base, Self::required_capacity(records))
            .map_err(|e| e.to_string())?;
        Ok(FlightRing {
            device,
            base,
            capacity: records,
            state: Mutex::new(RingState::default()),
        })
    }

    /// Reopens a ring previously created at `base`, deriving the append
    /// position by scanning for the highest surviving sequence number.
    /// Works on a crashed device (durable reads only).
    ///
    /// # Errors
    ///
    /// Returns an error string if no valid ring header is found at `base`.
    pub fn open(device: Arc<dyn PersistentDevice>, base: u64) -> Result<Self, String> {
        let capacity = Self::read_header(device.as_ref(), base)?;
        let scan = Self::scan_region(device.as_ref(), base, capacity)?;
        Ok(FlightRing {
            device,
            base,
            capacity,
            state: Mutex::new(RingState {
                next_seq: scan.max_seq().map_or(0, |s| s + 1),
            }),
        })
    }

    fn read_header(device: &dyn PersistentDevice, base: u64) -> Result<u32, String> {
        let mut header = [0u8; FLIGHT_HEADER_SIZE as usize];
        device
            .read_durable_at(base, &mut header)
            .map_err(|e| e.to_string())?;
        let magic = u64::from_le_bytes(header[0..8].try_into().expect("slice len"));
        if magic != RING_MAGIC {
            return Err("no flight ring at this offset (bad magic)".into());
        }
        let records = u32::from_le_bytes(header[8..12].try_into().expect("slice len"));
        let stored = u64::from_le_bytes(header[12..20].try_into().expect("slice len"));
        if checksum(&header[0..12]) != stored || records == 0 {
            return Err("flight ring header failed validation".into());
        }
        Ok(records)
    }

    /// Durable scan of a ring at `base` without constructing an appendable
    /// handle — the post-crash auditor's entry point.
    ///
    /// # Errors
    ///
    /// Returns an error string if the header is missing/torn or reads fail.
    pub fn scan(device: &dyn PersistentDevice, base: u64) -> Result<RingScan, String> {
        let capacity = Self::read_header(device, base)?;
        Self::scan_region(device, base, capacity)
    }

    fn scan_region(
        device: &dyn PersistentDevice,
        base: u64,
        capacity: u32,
    ) -> Result<RingScan, String> {
        let mut records = Vec::new();
        let mut torn = 0u32;
        // Bulk reads, cells decoded from memory: a device op per cell made
        // every store open pay `capacity` reads before it looked at a slot.
        // (A read is at most 32 KiB — the daemon's whole 512-record ring —
        // below every ledger workload's chunk size, so the ledger's armed
        // bit-rot flip can never land in the ring.)
        let cell_size = FLIGHT_RECORD_SIZE as usize;
        let mut region = vec![0u8; SCAN_READ_CELLS.min(capacity) as usize * cell_size];
        for first in (0..capacity).step_by(SCAN_READ_CELLS as usize) {
            let cells = SCAN_READ_CELLS.min(capacity - first) as usize;
            let region = &mut region[..cells * cell_size];
            let off = base + FLIGHT_HEADER_SIZE + u64::from(first) * FLIGHT_RECORD_SIZE;
            device
                .read_durable_at(off, region)
                .map_err(|e| e.to_string())?;
            for (i, cell) in (first..).zip(region.chunks_exact(cell_size)) {
                match FlightRecord::decode(cell) {
                    Some(rec) => {
                        // Sanity: a record must live in its own cell, or it
                        // is stale garbage from a mis-based scan.
                        if rec.seq % u64::from(capacity) == u64::from(i) {
                            records.push(rec);
                        } else {
                            torn += 1;
                        }
                    }
                    None => {
                        if cell.iter().any(|b| *b != 0) {
                            torn += 1; // non-empty cell that fails validation
                        }
                    }
                }
            }
        }
        records.sort_by_key(|r| r.seq);
        // Reject stale laps: the only seqs that can coexist in one coherent
        // history are the newest capacity-many, `(max_seq - capacity,
        // max_seq]`. A survivor further back means the cell's newer
        // overwrite was lost to a crash while the old lap's record stayed
        // durable — keeping it would splice two laps together.
        let mut stale = 0u32;
        if let Some(max_seq) = records.last().map(|r| r.seq) {
            let keep_from = max_seq.saturating_sub(u64::from(capacity) - 1);
            let cut = records.partition_point(|r| r.seq < keep_from);
            stale = cut as u32;
            records.drain(..cut);
        }
        Ok(RingScan {
            records,
            torn_cells: torn,
            stale_cells: stale,
            capacity,
        })
    }

    /// Appends one record, assigning the next sequence number. Serialized:
    /// at most the tail cell can be torn by a crash. Device errors are
    /// swallowed — the recorder must never fail the operation it is
    /// witnessing.
    pub fn append(
        &self,
        kind: FlightEventKind,
        counter: u64,
        slot: u32,
        iteration: u64,
        bytes: u64,
        aux: u64,
    ) {
        let mut state = self.state.lock();
        let seq = state.next_seq;
        let rec = FlightRecord {
            seq,
            kind,
            counter,
            slot,
            iteration,
            bytes,
            aux,
        };
        let off =
            self.base + FLIGHT_HEADER_SIZE + (seq % u64::from(self.capacity)) * FLIGHT_RECORD_SIZE;
        let ok = self
            .device
            .write_at(off, &rec.encode())
            .and_then(|()| self.device.persist(off, FLIGHT_RECORD_SIZE))
            .is_ok();
        if ok {
            state.next_seq += 1;
        }
    }

    /// All surviving records, by durable scan (includes wrap/torn info).
    ///
    /// # Errors
    ///
    /// Propagates device read errors as strings.
    // api: a test oracle, listed in DESIGN §4 ("Test oracles").
    pub fn read_all(&self) -> Result<RingScan, String> {
        Self::scan_region(self.device.as_ref(), self.base, self.capacity)
    }
}

/// Cheap cloneable handle to a shared [`FlightRing`];
/// [`FlightRecorder::disabled`] (also `Default`) turns every append into a
/// no-op, mirroring [`crate::Telemetry`].
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    inner: Option<Arc<FlightRing>>,
}

impl FlightRecorder {
    /// A recorder appending to `ring`.
    pub fn new(ring: Arc<FlightRing>) -> Self {
        FlightRecorder { inner: Some(ring) }
    }

    /// A no-op recorder.
    pub fn disabled() -> Self {
        FlightRecorder { inner: None }
    }

    /// Whether appends go anywhere.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The shared ring, when enabled.
    pub fn ring(&self) -> Option<&Arc<FlightRing>> {
        self.inner.as_ref()
    }

    /// Appends one record (no-op when disabled).
    pub fn record(
        &self,
        kind: FlightEventKind,
        counter: u64,
        slot: u32,
        iteration: u64,
        bytes: u64,
        aux: u64,
    ) {
        if let Some(ring) = &self.inner {
            ring.append(kind, counter, slot, iteration, bytes, aux);
        }
    }

    /// Appends a run-level record (no checkpoint counter or slot).
    pub fn record_run(&self, kind: FlightEventKind, aux: u64) {
        self.record(kind, 0, u32::MAX, 0, 0, aux);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pccheck_device::{CrashPolicy, DeviceConfig, SsdDevice};
    use pccheck_util::rng::{check, DEFAULT_CASES};
    use pccheck_util::ByteSize;

    fn device(cap: u64) -> Arc<dyn PersistentDevice> {
        Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(
            ByteSize::from_bytes(cap),
        )))
    }

    fn sample(seq: u64) -> FlightRecord {
        FlightRecord {
            seq,
            kind: FlightEventKind::MetaPersisted,
            counter: 42,
            slot: 3,
            iteration: 1000,
            bytes: 123_456,
            aux: 0xdead_beef,
        }
    }

    #[test]
    fn record_round_trips() {
        let r = sample(7);
        assert_eq!(FlightRecord::decode(&r.encode()), Some(r));
    }

    #[test]
    fn decode_rejects_torn_zeroed_and_unknown_kind() {
        let mut buf = sample(1).encode();
        buf[20] ^= 0x01;
        assert_eq!(FlightRecord::decode(&buf), None, "bit flip");
        assert_eq!(FlightRecord::decode(&[0u8; 64]), None, "zeroed cell");
        assert_eq!(FlightRecord::decode(&[0u8; 10]), None, "short buffer");
        let mut buf = sample(1).encode();
        buf[4] = 99; // unknown kind; fix the CRC so only the kind is wrong
        let crc = checksum(&buf[0..56]);
        buf[56..64].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(FlightRecord::decode(&buf), None, "unknown kind");
    }

    #[test]
    fn kinds_round_trip_discriminants() {
        for k in FlightEventKind::ALL {
            assert_eq!(FlightEventKind::from_u8(k as u8), Some(k));
        }
        assert_eq!(FlightEventKind::from_u8(0), None);
        assert_eq!(FlightEventKind::from_u8(200), None);
    }

    #[test]
    fn create_append_scan_round_trip() {
        let dev = device(4096);
        let ring = FlightRing::create(Arc::clone(&dev), 128, 8).unwrap();
        for i in 0..5u64 {
            ring.append(FlightEventKind::Begin, i + 1, i as u32, 10 * i, 64, 0);
        }
        let scan = ring.read_all().unwrap();
        assert_eq!(scan.records.len(), 5);
        assert!(!scan.wrapped());
        assert_eq!(scan.torn_cells, 0);
        assert_eq!(scan.max_seq(), Some(4));
        for (i, r) in scan.records.iter().enumerate() {
            assert_eq!(r.seq, i as u64);
            assert_eq!(r.counter, i as u64 + 1);
        }
        // A standalone durable scan sees the same history.
        let scan2 = FlightRing::scan(dev.as_ref(), 128).unwrap();
        assert_eq!(scan2.records, scan.records);
    }

    #[test]
    fn wrap_keeps_newest_records() {
        let dev = device(4096);
        let ring = FlightRing::create(Arc::clone(&dev), 0, 4).unwrap();
        for i in 0..11u64 {
            ring.append(FlightEventKind::Commit, i, 0, i, 0, 0);
        }
        let scan = ring.read_all().unwrap();
        assert_eq!(scan.records.len(), 4);
        assert!(scan.wrapped());
        let seqs: Vec<u64> = scan.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, [7, 8, 9, 10], "newest capacity-many records");
    }

    #[test]
    fn scan_reads_the_region_in_a_few_bulk_reads() {
        // Two full reads and a short third; a cell torn in the last one.
        let capacity = 2 * SCAN_READ_CELLS + 76;
        let dev = device(FlightRing::required_capacity(capacity));
        let ring = FlightRing::create(Arc::clone(&dev), 0, capacity).unwrap();
        for i in 0..u64::from(capacity) + 5 {
            ring.append(FlightEventKind::Commit, i, 0, i, 0, 0);
        }
        let torn_cell = u64::from(capacity) - 2;
        let off = FLIGHT_HEADER_SIZE + torn_cell * FLIGHT_RECORD_SIZE + 20;
        dev.write_at(off, &[0xFF]).unwrap();
        dev.persist(off, 1).unwrap();
        let ops = dev.stats().read_ops();
        let scan = FlightRing::scan(dev.as_ref(), 0).unwrap();
        assert_eq!(dev.stats().read_ops() - ops, 1 + 3, "header + three reads");
        assert_eq!(scan.torn_cells, 1);
        let seqs: Vec<u64> = scan.records.iter().map(|r| r.seq).collect();
        let want: Vec<u64> = (5..u64::from(capacity) + 5)
            .filter(|s| s % u64::from(capacity) != torn_cell)
            .collect();
        assert_eq!(seqs, want, "every other cell of the newest lap");
    }

    #[test]
    fn scan_rejects_resurrected_stale_lap() {
        // Adversarial crash shape: a cell's newest overwrite is lost while
        // the previous lap's record underneath stays durable. Both records
        // pass CRC and live in their own cell; only the lap window test
        // can tell them apart.
        let dev = device(4096);
        let ring = FlightRing::create(Arc::clone(&dev), 0, 4).unwrap();
        drop(ring);
        for seq in [1u64, 8u64] {
            // seq 1 → cell 1 (old lap), seq 8 → cell 0 (two laps later).
            let off = FLIGHT_HEADER_SIZE + (seq % 4) * FLIGHT_RECORD_SIZE;
            dev.write_at(off, &sample(seq).encode()).unwrap();
            dev.persist(off, FLIGHT_RECORD_SIZE).unwrap();
        }
        let scan = FlightRing::scan(dev.as_ref(), 0).unwrap();
        let seqs: Vec<u64> = scan.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, [8], "stale lap must not be spliced into history");
        assert_eq!(scan.stale_cells, 1);
        assert_eq!(scan.torn_cells, 0);
        // Reopening resumes after the true maximum, not the stale record.
        let ring = FlightRing::open(Arc::clone(&dev), 0).unwrap();
        ring.append(FlightEventKind::RecoveryStart, 0, u32::MAX, 0, 0, 0);
        assert_eq!(ring.read_all().unwrap().max_seq(), Some(9));
    }

    #[test]
    fn open_resumes_sequence_numbers() {
        let dev = device(4096);
        {
            let ring = FlightRing::create(Arc::clone(&dev), 0, 8).unwrap();
            ring.append(FlightEventKind::Begin, 1, 0, 0, 0, 0);
            ring.append(FlightEventKind::Commit, 1, 0, 0, 0, 0);
        }
        dev.crash_now();
        dev.recover();
        let ring = FlightRing::open(Arc::clone(&dev), 0).unwrap();
        ring.append(FlightEventKind::RecoveryStart, 0, u32::MAX, 0, 0, 0);
        let scan = ring.read_all().unwrap();
        let seqs: Vec<u64> = scan.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, [0, 1, 2], "append resumes after the survivors");
    }

    #[test]
    fn open_rejects_missing_ring() {
        let dev = device(4096);
        assert!(FlightRing::open(dev, 0).is_err());
    }

    #[test]
    fn crash_loses_only_the_unpersisted_tail() {
        let dev = device(4096);
        let ring = FlightRing::create(Arc::clone(&dev), 0, 16).unwrap();
        ring.append(FlightEventKind::Begin, 1, 0, 0, 0, 0);
        ring.append(FlightEventKind::MetaPersisted, 1, 0, 0, 0, 0);
        // Simulate a torn tail: a record written but never persisted.
        let torn = FlightRecord {
            seq: 2,
            kind: FlightEventKind::Commit,
            counter: 1,
            slot: 0,
            iteration: 0,
            bytes: 0,
            aux: 0,
        };
        dev.write_at(FLIGHT_HEADER_SIZE + 2 * 64, &torn.encode())
            .unwrap();
        dev.crash_now();
        let scan = FlightRing::scan(dev.as_ref(), 0).unwrap();
        let seqs: Vec<u64> = scan.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, [0, 1], "unpersisted tail is gone, prefix survives");
    }

    #[test]
    fn appends_after_device_crash_are_dropped_not_fatal() {
        let dev = device(4096);
        let ring = FlightRing::create(Arc::clone(&dev), 0, 8).unwrap();
        ring.append(FlightEventKind::Begin, 1, 0, 0, 0, 0);
        dev.crash_now();
        ring.append(FlightEventKind::Commit, 1, 0, 0, 0, 0);
        dev.recover();
        let scan = ring.read_all().unwrap();
        assert_eq!(scan.records.len(), 1);
    }

    #[test]
    fn create_rejects_oversized_ring() {
        let dev = device(256);
        assert!(FlightRing::create(Arc::clone(&dev), 0, 64).is_err());
        assert!(FlightRing::create(dev, 0, 0).is_err());
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = FlightRecorder::disabled();
        assert!(!rec.is_enabled());
        rec.record(FlightEventKind::Begin, 1, 0, 0, 0, 0);
        rec.record_run(FlightEventKind::RunStart, 0);
        assert!(rec.ring().is_none());
        assert!(!FlightRecorder::default().is_enabled());
    }

    #[test]
    fn concurrent_appends_keep_unique_contiguous_seqs() {
        let dev = device(64 + 64 * 256);
        let ring = Arc::new(FlightRing::create(Arc::clone(&dev), 0, 256).unwrap());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let ring = Arc::clone(&ring);
            handles.push(std::thread::spawn(move || {
                for i in 0..32u64 {
                    ring.append(FlightEventKind::Begin, t * 100 + i, 0, 0, 0, 0);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let scan = ring.read_all().unwrap();
        assert_eq!(scan.records.len(), 128);
        let seqs: Vec<u64> = scan.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, (0..128).collect::<Vec<u64>>());
    }

    /// Property body (shared by the deterministic grid test and the
    /// seeded fuzz below): a record round-trips and any single bit flip
    /// in the covered bytes is detected.
    fn check_roundtrip_and_bitflip(rec: FlightRecord, pos: usize, bit: u8) {
        let buf = rec.encode();
        assert_eq!(FlightRecord::decode(&buf), Some(rec));
        let mut torn = buf;
        torn[pos] ^= 1 << bit;
        if torn != buf {
            assert_eq!(FlightRecord::decode(&torn), None, "flip at {pos}:{bit}");
        }
    }

    /// Property body: after `persisted` proper appends and `total -
    /// persisted` raw unpersisted cell writes (the crash window of an
    /// append, including partial-wrap overwrites), a crash that drops the
    /// unpersisted suffix always leaves a decodable, checksum-valid
    /// prefix — the newest `<= cap` of the persisted records.
    fn check_crash_prefix(total: usize, persisted: usize, cap: u32) {
        let persisted = persisted.min(total);
        let dev: Arc<dyn PersistentDevice> = Arc::new(SsdDevice::with_crash_policy(
            DeviceConfig::fast_for_tests(ByteSize::from_kb(8)),
            CrashPolicy::DropUnpersisted,
        ));
        let ring = FlightRing::create(Arc::clone(&dev), 0, cap).unwrap();
        for i in 0..persisted as u64 {
            ring.append(FlightEventKind::Begin, i, 0, 0, 0, 0);
        }
        for i in persisted as u64..total as u64 {
            let rec = FlightRecord {
                seq: i,
                kind: FlightEventKind::Commit,
                counter: i,
                slot: 0,
                iteration: 0,
                bytes: 0,
                aux: 0,
            };
            let off = FLIGHT_HEADER_SIZE + (i % u64::from(cap)) * FLIGHT_RECORD_SIZE;
            dev.write_at(off, &rec.encode()).unwrap();
        }
        dev.crash_now();
        let scan = FlightRing::scan(dev.as_ref(), 0).unwrap();
        let expect_lo = persisted.saturating_sub(cap as usize) as u64;
        let expect: Vec<u64> = (expect_lo..persisted as u64).collect();
        let seqs: Vec<u64> = scan.records.iter().map(|r| r.seq).collect();
        assert_eq!(
            seqs, expect,
            "total={total} persisted={persisted} cap={cap}"
        );
        for r in &scan.records {
            assert_eq!(r.kind, FlightEventKind::Begin);
        }
    }

    #[test]
    fn deterministic_roundtrip_and_crash_prefix_grid() {
        for (i, pos) in [(0usize, 0usize), (1, 4), (2, 8), (3, 31), (4, 55)] {
            check_roundtrip_and_bitflip(sample(i as u64), pos, (i % 8) as u8);
        }
        for (total, persisted, cap) in [
            (1, 0, 2),
            (3, 3, 4),
            (5, 3, 4),
            (9, 7, 4),
            (20, 13, 5),
            (39, 22, 11),
        ] {
            check_crash_prefix(total, persisted, cap);
        }
    }

    /// Fuzzed version of [`check_roundtrip_and_bitflip`].
    #[test]
    fn any_record_round_trips_and_bitflips_detected() {
        check(DEFAULT_CASES, |r| {
            let rec = FlightRecord {
                seq: r.next_u64(),
                counter: r.next_u64(),
                slot: r.next_u64() as u32,
                iteration: r.next_u64(),
                bytes: r.next_u64(),
                aux: r.next_u64(),
                kind: FlightEventKind::ALL[r.range(0..FlightEventKind::ALL.len() as u64) as usize],
            };
            check_roundtrip_and_bitflip(rec, r.range(0..56) as usize, r.range(0..8) as u8);
        });
    }

    /// Fuzzed version of [`check_crash_prefix`].
    #[test]
    fn crash_mid_append_yields_valid_prefix() {
        check(DEFAULT_CASES, |r| {
            let (total, persisted, cap) = (r.range(1..40), r.range(0..40), r.range(2..12));
            check_crash_prefix(total as usize, persisted as usize, cap as u32);
        });
    }
}
