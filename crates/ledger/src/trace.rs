//! Ledger-side tracing: spans recorded around calls into the product,
//! and a [`TracedDevice`] that wraps the device the engine writes to.
//!
//! Spans live in memory and are only summarised (or dumped) after the
//! measured phases end. The generator is a single thread, so "the span
//! that caused this device operation" is whichever ledger span is open
//! when the operation starts; the isolated-persist and recovery phases
//! keep exactly one such span open at a time.

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use crate::api::{Bandwidth, ByteSize, DeviceResult, DeviceStats, PersistentDevice};

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    /// Id of the span open when this one started; 0 is "none".
    pub parent: u32,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Bytes moved (device operations) or 0.
    pub bytes: u64,
}

/// In-memory span store shared by the generator thread and the device
/// wrapper's callers (the product's writer and reader threads).
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU32,
    open: AtomicU32,
}

impl Tracer {
    pub fn new() -> Arc<Self> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_id: AtomicU32::new(1),
            open: AtomicU32::new(0),
        })
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a generator-side span; device operations started before the
    /// guard drops name it as their parent. Not re-entrant by design.
    pub fn enter(self: &Arc<Self>, name: &'static str) -> OpenSpan {
        // Relaxed: ids and the open marker are read for attribution only
        // and publish no other data.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.open.swap(id, Ordering::Relaxed);
        OpenSpan {
            tracer: Arc::clone(self),
            id,
            parent,
            name,
            start: self.now(),
        }
    }

    fn record_leaf(&self, name: &'static str, start: u64, bytes: u64) {
        let end = self.now();
        let span = Span {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent: self.open.load(Ordering::Relaxed),
            name,
            start,
            end,
            bytes,
        };
        self.push(span);
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(span);
    }

    /// A copy of everything recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

/// Guard of a generator-side span; records it when dropped.
#[derive(Debug)]
pub struct OpenSpan {
    tracer: Arc<Tracer>,
    id: u32,
    parent: u32,
    name: &'static str,
    start: u64,
}

impl Drop for OpenSpan {
    fn drop(&mut self) {
        self.tracer.open.store(self.parent, Ordering::Relaxed);
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start: self.start,
            end: self.tracer.now(),
            bytes: 0,
        };
        self.tracer.push(span);
    }
}

pub const DEV_WRITE: &str = "device.write";
pub const DEV_PERSIST: &str = "device.persist";
pub const DEV_READ: &str = "device.read_durable";

/// A [`PersistentDevice`] that forwards everything to `inner`, recording
/// one span per `write_at` / `persist` / `read_durable_at` when a tracer
/// is attached.
///
/// It doubles as the bit-rot injector the acceptance test needs: once
/// [`arm_bitrot`](Self::arm_bitrot) is called, the next durable read of
/// at least the given length comes back with one byte flipped, which is
/// what recovery sees when a committed slot has rotted on the media.
#[derive(Debug)]
pub struct TracedDevice {
    inner: Arc<dyn PersistentDevice>,
    tracer: Option<Arc<Tracer>>,
    /// Shortest read the armed flip applies to; 0 is disarmed.
    bitrot_min_read: AtomicUsize,
}

impl TracedDevice {
    pub fn new(inner: Arc<dyn PersistentDevice>, tracer: Option<Arc<Tracer>>) -> Self {
        TracedDevice {
            inner,
            tracer,
            bitrot_min_read: AtomicUsize::new(0),
        }
    }

    /// Flip one byte of the next durable read of at least `min_read`
    /// bytes. The caller passes a length only payload reads reach:
    /// metadata records, state words and digest tables are all shorter
    /// than a payload chunk.
    pub fn arm_bitrot(&self, min_read: usize) {
        assert!(min_read > 0, "0 means disarmed");
        self.bitrot_min_read.store(min_read, Ordering::SeqCst);
    }

    fn traced<T>(&self, name: &'static str, bytes: u64, op: impl FnOnce() -> T) -> T {
        match &self.tracer {
            None => op(),
            Some(t) => {
                let start = t.now();
                let out = op();
                t.record_leaf(name, start, bytes);
                out
            }
        }
    }
}

impl PersistentDevice for TracedDevice {
    fn capacity(&self) -> ByteSize {
        self.inner.capacity()
    }

    fn bandwidth(&self) -> Bandwidth {
        self.inner.bandwidth()
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> DeviceResult<()> {
        self.traced(DEV_WRITE, data.len() as u64, || {
            self.inner.write_at(offset, data)
        })
    }

    fn persist(&self, offset: u64, len: u64) -> DeviceResult<()> {
        self.traced(DEV_PERSIST, len, || self.inner.persist(offset, len))
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> DeviceResult<()> {
        self.inner.read_at(offset, buf)
    }

    fn read_durable_at(&self, offset: u64, buf: &mut [u8]) -> DeviceResult<()> {
        let len = buf.len() as u64;
        self.traced(DEV_READ, len, || self.inner.read_durable_at(offset, buf))?;
        let min_read = self.bitrot_min_read.load(Ordering::SeqCst);
        if min_read > 0
            && buf.len() >= min_read
            && self
                .bitrot_min_read
                .compare_exchange(min_read, 0, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
        {
            buf[buf.len() / 2] ^= 0x01;
        }
        Ok(())
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

/// Writes `spans` as JSON lines (one object per span).
pub fn dump_spans(spans: &[Span], mut out: impl std::io::Write) -> std::io::Result<()> {
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"bytes\":{}}}",
            s.id, s.parent, s.name, s.start, s.end, s.bytes
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{DeviceConfig, SsdDevice};

    fn ssd(bytes: u64) -> Arc<dyn PersistentDevice> {
        Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(
            ByteSize::from_bytes(bytes),
        )))
    }

    #[test]
    fn device_spans_name_the_open_generator_span_as_parent() {
        let tracer = Tracer::new();
        let dev = TracedDevice::new(ssd(1 << 16), Some(Arc::clone(&tracer)));
        dev.write_at(0, &[1; 100]).unwrap(); // before any span: parent 0
        {
            let _p = tracer.enter("persist");
            dev.write_at(0, &[2; 8192]).unwrap();
            dev.persist(0, 8192).unwrap();
        }
        let mut buf = vec![0u8; 8192];
        dev.read_durable_at(0, &mut buf).unwrap();
        let spans = tracer.spans();
        let persist = spans.iter().find(|s| s.name == "persist").unwrap();
        let kids: Vec<_> = spans.iter().filter(|s| s.parent == persist.id).collect();
        assert_eq!(kids.len(), 2);
        assert!(kids
            .iter()
            .all(|k| k.start >= persist.start && k.end <= persist.end));
        assert_eq!(spans.iter().filter(|s| s.parent == 0).count(), 3);
        let mut dumped = Vec::new();
        dump_spans(&spans, &mut dumped).unwrap();
        for line in String::from_utf8(dumped).unwrap().lines() {
            crate::api::JsonValue::parse(line).unwrap();
        }
    }

    #[test]
    fn bitrot_flips_one_payload_read_and_disarms() {
        let dev = TracedDevice::new(ssd(1 << 16), None);
        dev.write_at(0, &[7; 8192]).unwrap();
        dev.persist(0, 8192).unwrap();
        dev.arm_bitrot(4096);
        let mut small = [0u8; 64];
        dev.read_durable_at(0, &mut small).unwrap();
        assert_eq!(small, [7; 64], "metadata-sized reads are left alone");
        let mut buf = vec![0u8; 8192];
        dev.read_durable_at(0, &mut buf).unwrap();
        assert_eq!(buf.iter().filter(|&&b| b != 7).count(), 1);
        dev.read_durable_at(0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 7));
    }
}
