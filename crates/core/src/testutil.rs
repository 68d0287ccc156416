//! Test-only device: an SSD whose *chunk* writes the test controls.
//!
//! Everything a checkpoint does before and after its chunks — slot claim,
//! flight records, the frame's table (written last, at the head of the
//! slot), fences, meta record, commit — passes straight through,
//! so a test can hold a checkpoint exactly "staged in DRAM, nothing on the
//! device yet" and release it one write at a time, or fail one write,
//! without a wall clock anywhere.

use std::ops::Range;
use std::sync::Arc;

use pccheck_device::{DeviceConfig, DeviceError, DeviceStats, PersistentDevice, Result, SsdDevice};
use pccheck_util::sync::{Condvar, Mutex};
use pccheck_util::{Bandwidth, ByteSize};

use crate::store::CheckpointStore;

#[derive(Debug, Default)]
struct Gate {
    /// Slot payload areas past their first byte: a write that starts
    /// inside one waits at the gate.
    payloads: Vec<Range<u64>>,
    /// Payload writes that have reached the gate; each takes the next
    /// number on arrival and is admitted in that order.
    arrived: u64,
    /// Arrivals `..allowed` are admitted (`u64::MAX`: open).
    allowed: u64,
    /// Payload areas whose writes are admitted whatever their turn.
    open_areas: Vec<Range<u64>>,
    /// Payload writes blocked at the gate right now.
    waiting: usize,
    /// Admitted payload writes until one fails (0: disarmed).
    fail_in: u64,
    /// `(offset, payload bytes admitted before it)` of the failed write.
    failed: Option<(u64, u64)>,
    /// Offsets of admitted payload writes, in admission order.
    admitted: Vec<u64>,
    admitted_bytes: u64,
}

/// See the module docs. Starts open; [`gate_payloads`](Self::gate_payloads)
/// closes it.
#[derive(Debug)]
pub(crate) struct GatedDevice {
    inner: SsdDevice,
    gate: Mutex<Gate>,
    changed: Condvar,
}

impl GatedDevice {
    pub(crate) fn new(capacity: ByteSize) -> Arc<Self> {
        Arc::new(GatedDevice {
            inner: SsdDevice::new(DeviceConfig::fast_for_tests(capacity)),
            gate: Mutex::new(Gate {
                allowed: u64::MAX,
                ..Gate::default()
            }),
            changed: Condvar::new(),
        })
    }

    /// Names the chunk writes into `store`'s slots — every payload write
    /// but the table's, at the slot's first byte — as what the gate
    /// governs, and closes the gate.
    pub(crate) fn gate_payloads(&self, store: &CheckpointStore) {
        let mut gate = self.gate.lock();
        gate.payloads = (0..store.num_slots())
            .map(|slot| {
                let start = store.slot_payload_offset(slot);
                start + 1..start + store.slot_size().as_u64()
            })
            .collect();
        gate.allowed = gate.arrived;
    }

    /// Admits the next `writes` payload writes to reach the gate (those
    /// already waiting first, in the order they arrived).
    pub(crate) fn allow(&self, writes: u64) {
        let mut gate = self.gate.lock();
        gate.allowed = gate.allowed.saturating_add(writes);
        self.changed.notify_all();
    }

    /// Admits every payload write into `store`'s `slot`, whatever its
    /// turn: those waiting now and those still to come.
    pub(crate) fn allow_slot(&self, store: &CheckpointStore, slot: u32) {
        let start = store.slot_payload_offset(slot);
        let mut gate = self.gate.lock();
        gate.open_areas
            .push(start..start + store.slot_size().as_u64());
        self.changed.notify_all();
    }

    /// Admits every payload write from now on.
    pub(crate) fn open(&self) {
        self.allow(u64::MAX);
    }

    /// Makes the `nth` payload write admitted from now fail, once.
    pub(crate) fn fail_write(&self, nth: u64) {
        self.gate.lock().fail_in = nth;
    }

    /// The failed write: its offset and the payload bytes admitted before it.
    pub(crate) fn failed(&self) -> Option<(u64, u64)> {
        self.gate.lock().failed
    }

    /// Blocks until `writes` payload writes are stuck at the gate.
    pub(crate) fn wait_until_blocked(&self, writes: usize) {
        let mut gate = self.gate.lock();
        while gate.waiting < writes {
            gate = self.changed.wait(gate);
        }
    }

    /// Payload bytes admitted so far.
    pub(crate) fn payload_bytes(&self) -> u64 {
        self.gate.lock().admitted_bytes
    }

    /// Offsets of the payload writes admitted so far, in order.
    pub(crate) fn admitted(&self) -> Vec<u64> {
        self.gate.lock().admitted.clone()
    }
}

impl PersistentDevice for GatedDevice {
    fn capacity(&self) -> ByteSize {
        self.inner.capacity()
    }
    fn bandwidth(&self) -> Bandwidth {
        self.inner.bandwidth()
    }
    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        let mut gate = self.gate.lock();
        if gate.payloads.iter().any(|area| area.contains(&offset)) {
            let turn = gate.arrived;
            gate.arrived += 1;
            gate.waiting += 1;
            self.changed.notify_all();
            while turn >= gate.allowed && !gate.open_areas.iter().any(|a| a.contains(&offset)) {
                gate = self.changed.wait(gate);
            }
            gate.waiting -= 1;
            if gate.fail_in > 0 {
                gate.fail_in -= 1;
                if gate.fail_in == 0 {
                    gate.failed = Some((offset, gate.admitted_bytes));
                    return Err(DeviceError::ReadFault { offset });
                }
            }
            gate.admitted.push(offset);
            gate.admitted_bytes += data.len() as u64;
        }
        drop(gate);
        self.inner.write_at(offset, data)
    }
    fn persist(&self, offset: u64, len: u64) -> Result<()> {
        self.inner.persist(offset, len)
    }
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.inner.read_at(offset, buf)
    }
    fn read_durable_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.inner.read_durable_at(offset, buf)
    }
    fn crash_now(&self) {
        self.inner.crash_now();
    }
    fn recover(&self) {
        self.inner.recover();
    }
    fn stats(&self) -> &DeviceStats {
        self.inner.stats()
    }
}
