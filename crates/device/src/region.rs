//! The core persistence model: a byte region with a volatile and a durable
//! view.
//!
//! All simulated devices are built on [`MemRegion`]. Writes modify the
//! *volatile* view (page cache for SSD, CPU caches / write-combining buffers
//! for PMEM). Only [`MemRegion::persist`] copies a range into the *durable*
//! view. A crash replaces the volatile view with the durable one — except
//! under the adversarial [`CrashPolicy::RandomPartial`], where unpersisted
//! cache lines may or may not have reached the media, modeling the
//! reordering hazard §2.3 describes ("the order in which data is written to
//! the cache may differ from the order in which the content reaches PMEM").

use pccheck_util::rng::Rng;
use pccheck_util::ByteSize;

use crate::error::DeviceError;
use crate::Result;

/// Granularity at which the adversarial crash policy decides survival,
/// matching a CPU cache line.
pub const CACHE_LINE: u64 = 64;

/// What happens to unpersisted bytes when the device crashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPolicy {
    /// Every unpersisted byte is lost (the conservative model).
    DropUnpersisted,
    /// Each dirty cache line independently survives with probability 1/2,
    /// derived deterministically from the seed. This is the adversarial
    /// model: durable state after the crash is a mix of old and new data,
    /// exactly the inconsistency a checkpointing algorithm must tolerate.
    RandomPartial {
        /// Seed for the survival coin flips.
        seed: u64,
    },
}

/// A byte region with separate volatile and durable views.
///
/// Not thread-safe by itself; devices wrap it in their own locking.
///
/// # Examples
///
/// ```
/// use pccheck_device::{CrashPolicy, MemRegion};
/// use pccheck_util::ByteSize;
///
/// # fn main() -> Result<(), pccheck_device::DeviceError> {
/// let mut r = MemRegion::new(ByteSize::from_kb(4));
/// r.write(0, b"hello")?;
/// r.crash(CrashPolicy::DropUnpersisted);
/// let mut buf = [0u8; 5];
/// r.read(0, &mut buf)?;
/// assert_eq!(&buf, b"\0\0\0\0\0"); // write was never persisted
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MemRegion {
    volatile: Vec<u8>,
    durable: Vec<u8>,
    /// Dirty byte ranges not yet persisted, kept coalesced and sorted.
    dirty: Vec<(u64, u64)>, // (start, end) half-open
}

impl MemRegion {
    /// Creates a zero-filled region of the given capacity.
    pub fn new(capacity: ByteSize) -> Self {
        let n = capacity.as_usize();
        MemRegion {
            volatile: vec![0; n],
            durable: vec![0; n],
            dirty: Vec::new(),
        }
    }

    /// Region capacity in bytes.
    pub fn capacity(&self) -> ByteSize {
        ByteSize::from_bytes(self.volatile.len() as u64)
    }

    fn check_bounds(&self, offset: u64, len: u64) -> Result<()> {
        let cap = self.volatile.len() as u64;
        if offset.checked_add(len).map_or(true, |end| end > cap) {
            return Err(DeviceError::OutOfBounds {
                offset,
                len,
                capacity: cap,
            });
        }
        Ok(())
    }

    /// Writes `data` into the volatile view at `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::OutOfBounds`] if the write exceeds capacity.
    pub fn write(&mut self, offset: u64, data: &[u8]) -> Result<()> {
        self.check_bounds(offset, data.len() as u64)?;
        let start = offset as usize;
        self.volatile[start..start + data.len()].copy_from_slice(data);
        if !data.is_empty() {
            self.mark_dirty(offset, offset + data.len() as u64);
        }
        Ok(())
    }

    /// Reads from the volatile view (what a running process observes).
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::OutOfBounds`] if the read exceeds capacity.
    pub fn read(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.check_bounds(offset, buf.len() as u64)?;
        let start = offset as usize;
        buf.copy_from_slice(&self.volatile[start..start + buf.len()]);
        Ok(())
    }

    /// Reads from the durable view (what would survive a crash right now).
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::OutOfBounds`] if the read exceeds capacity.
    pub fn read_durable(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.check_bounds(offset, buf.len() as u64)?;
        let start = offset as usize;
        buf.copy_from_slice(&self.durable[start..start + buf.len()]);
        Ok(())
    }

    /// Persists `[offset, offset+len)`: copies it from the volatile to the
    /// durable view and clears its dirty tracking.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::OutOfBounds`] if the range exceeds capacity.
    pub fn persist(&mut self, offset: u64, len: u64) -> Result<()> {
        self.check_bounds(offset, len)?;
        let (s, e) = (offset as usize, (offset + len) as usize);
        self.durable[s..e].copy_from_slice(&self.volatile[s..e]);
        self.clear_dirty(offset, offset + len);
        Ok(())
    }

    /// Persists everything (e.g., `msync` over the whole mapping).
    pub fn persist_all(&mut self) {
        self.durable.copy_from_slice(&self.volatile);
        self.dirty.clear();
    }

    /// Total number of dirty (unpersisted) bytes.
    pub fn dirty_bytes(&self) -> ByteSize {
        ByteSize::from_bytes(self.dirty.iter().map(|(s, e)| e - s).sum())
    }

    /// Returns `true` if any byte in `[offset, offset+len)` is dirty.
    pub fn is_dirty(&self, offset: u64, len: u64) -> bool {
        let (qs, qe) = (offset, offset + len);
        self.dirty.iter().any(|&(s, e)| s < qe && qs < e)
    }

    /// Simulates a crash: the volatile view is reconstructed from the
    /// durable one according to `policy`.
    pub fn crash(&mut self, policy: CrashPolicy) {
        match policy {
            CrashPolicy::DropUnpersisted => {}
            CrashPolicy::RandomPartial { seed } => {
                // Some dirty cache lines made it to the media before the
                // crash even though no fence covered them.
                let mut coin = Rng::seeded(seed);
                let ranges = self.dirty.clone();
                for (s, e) in ranges {
                    let mut line = s - (s % CACHE_LINE);
                    while line < e {
                        let lo = line.max(s) as usize;
                        let hi = (line + CACHE_LINE).min(e) as usize;
                        if coin.bool() {
                            let (d, v) = (&mut self.durable, &self.volatile);
                            d[lo..hi].copy_from_slice(&v[lo..hi]);
                        }
                        line += CACHE_LINE;
                    }
                }
            }
        }
        self.volatile.copy_from_slice(&self.durable);
        self.dirty.clear();
    }

    fn mark_dirty(&mut self, start: u64, end: u64) {
        // Insert keeping ranges sorted and coalesced.
        let idx = self.dirty.partition_point(|&(s, _)| s < start);
        self.dirty.insert(idx, (start, end));
        self.coalesce();
    }

    fn clear_dirty(&mut self, start: u64, end: u64) {
        let mut next = Vec::with_capacity(self.dirty.len() + 1);
        for &(s, e) in &self.dirty {
            if e <= start || s >= end {
                next.push((s, e));
            } else {
                if s < start {
                    next.push((s, start));
                }
                if e > end {
                    next.push((end, e));
                }
            }
        }
        self.dirty = next;
    }

    fn coalesce(&mut self) {
        if self.dirty.len() < 2 {
            return;
        }
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(self.dirty.len());
        for &(s, e) in &self.dirty {
            match merged.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => merged.push((s, e)),
            }
        }
        self.dirty = merged;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pccheck_util::rng::{check, DEFAULT_CASES};

    fn region(cap: u64) -> MemRegion {
        MemRegion::new(ByteSize::from_bytes(cap))
    }

    #[test]
    fn write_then_read_sees_data() {
        let mut r = region(128);
        r.write(10, b"abc").unwrap();
        let mut buf = [0u8; 3];
        r.read(10, &mut buf).unwrap();
        assert_eq!(&buf, b"abc");
    }

    #[test]
    fn durable_view_lags_until_persist() {
        let mut r = region(128);
        r.write(0, b"xyz").unwrap();
        let mut buf = [0u8; 3];
        r.read_durable(0, &mut buf).unwrap();
        assert_eq!(&buf, &[0, 0, 0]);
        r.persist(0, 3).unwrap();
        r.read_durable(0, &mut buf).unwrap();
        assert_eq!(&buf, b"xyz");
    }

    #[test]
    fn crash_drops_unpersisted() {
        let mut r = region(128);
        r.write(0, b"keep").unwrap();
        r.persist(0, 4).unwrap();
        r.write(64, b"lose").unwrap();
        r.crash(CrashPolicy::DropUnpersisted);
        let mut keep = [0u8; 4];
        r.read(0, &mut keep).unwrap();
        assert_eq!(&keep, b"keep");
        let mut lost = [0u8; 4];
        r.read(64, &mut lost).unwrap();
        assert_eq!(&lost, &[0, 0, 0, 0]);
        assert_eq!(r.dirty_bytes(), ByteSize::ZERO);
    }

    #[test]
    fn random_partial_crash_is_line_granular_and_deterministic() {
        let build = |seed| {
            let mut r = region(512);
            r.write(0, &[0xAA; 512]).unwrap();
            r.crash(CrashPolicy::RandomPartial { seed });
            let mut buf = vec![0u8; 512];
            r.read(0, &mut buf).unwrap();
            buf
        };
        let a = build(3);
        let b = build(3);
        assert_eq!(a, b, "same seed, same surviving lines");
        // Survival decisions are per cache line: each 64-byte line is
        // uniformly 0xAA (survived) or 0x00 (lost).
        let mut survived = 0;
        for line in a.chunks(64) {
            assert!(
                line.iter().all(|&b| b == 0xAA) || line.iter().all(|&b| b == 0),
                "line must be all-or-nothing"
            );
            if line[0] == 0xAA {
                survived += 1;
            }
        }
        assert!(
            survived > 0 && survived < 8,
            "seed 3 gives a mix: {survived}"
        );
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut r = region(16);
        assert!(matches!(
            r.write(10, &[0; 10]),
            Err(DeviceError::OutOfBounds { .. })
        ));
        let mut buf = [0; 4];
        assert!(r.read(15, &mut buf).is_err());
        assert!(r.read_durable(15, &mut buf).is_err());
        assert!(r.persist(8, 9).is_err());
        // Offset overflow must not panic.
        assert!(r.write(u64::MAX, &[1]).is_err());
    }

    #[test]
    fn dirty_tracking_coalesces_adjacent_ranges() {
        let mut r = region(256);
        r.write(0, &[1; 10]).unwrap();
        r.write(10, &[2; 10]).unwrap();
        r.write(50, &[3; 10]).unwrap();
        assert_eq!(r.dirty_bytes().as_u64(), 30);
        assert!(r.is_dirty(5, 1));
        assert!(r.is_dirty(55, 1));
        assert!(!r.is_dirty(30, 5));
        r.persist(0, 20).unwrap();
        assert_eq!(r.dirty_bytes().as_u64(), 10);
        assert!(!r.is_dirty(0, 20));
    }

    #[test]
    fn partial_persist_splits_dirty_range() {
        let mut r = region(256);
        r.write(0, &[9; 100]).unwrap();
        r.persist(40, 20).unwrap();
        assert!(r.is_dirty(0, 40));
        assert!(!r.is_dirty(40, 20));
        assert!(r.is_dirty(60, 40));
        assert_eq!(r.dirty_bytes().as_u64(), 80);
    }

    #[test]
    fn persist_all_clears_everything() {
        let mut r = region(256);
        r.write(3, &[7; 200]).unwrap();
        r.persist_all();
        assert_eq!(r.dirty_bytes(), ByteSize::ZERO);
        let mut buf = [0u8; 1];
        r.read_durable(100, &mut buf).unwrap();
        assert_eq!(buf[0], 7);
    }

    #[test]
    fn zero_length_write_is_noop() {
        let mut r = region(8);
        r.write(8, &[]).unwrap(); // at capacity boundary, zero len: fine
        assert_eq!(r.dirty_bytes(), ByteSize::ZERO);
    }

    /// After persisting arbitrary ranges and crashing with the
    /// conservative policy, the surviving data equals exactly the
    /// persisted prefix of writes — never torn within a persisted range.
    #[test]
    fn persisted_ranges_survive_any_crash() {
        check(DEFAULT_CASES, |rng| {
            let writes: Vec<(usize, Vec<u8>)> = (0..rng.range(1..20))
                .map(|_| {
                    let (off, len) = (rng.range(0..200), rng.range(1..32) as usize);
                    (off.min(256 - len as u64) as usize, rng.bytes(len))
                })
                .collect();
            let persist_upto = rng.range(0..20) as usize;
            let mut r = region(256);
            // Persisting a range persists the *current volatile* content,
            // so the expected durable image replays the same writes.
            let mut volatile = vec![0u8; 256];
            let mut durable = vec![0u8; 256];
            for (i, (off, data)) in writes.iter().enumerate() {
                let end = off + data.len();
                r.write(*off as u64, data).unwrap();
                volatile[*off..end].copy_from_slice(data);
                if i < persist_upto {
                    r.persist(*off as u64, data.len() as u64).unwrap();
                    durable[*off..end].copy_from_slice(&volatile[*off..end]);
                }
            }
            r.crash(CrashPolicy::DropUnpersisted);
            let mut got = vec![0u8; 256];
            r.read(0, &mut got).unwrap();
            assert_eq!(got, durable);
        });
    }

    /// The adversarial crash only ever leaves bytes that were written at
    /// some point (old durable or new volatile), never garbage.
    #[test]
    fn random_partial_crash_never_invents_bytes() {
        check(DEFAULT_CASES, |rng| {
            let mut r = region(256);
            r.write(0, &[0x11; 128]).unwrap();
            r.persist(0, 128).unwrap();
            r.write(64, &[0x22; 128]).unwrap();
            r.crash(CrashPolicy::RandomPartial {
                seed: rng.next_u64(),
            });
            let mut got = vec![0u8; 256];
            r.read(0, &mut got).unwrap();
            for (i, b) in got.iter().enumerate() {
                let valid: &[u8] = match i {
                    0..=63 => &[0x11],
                    64..=127 => &[0x11, 0x22],
                    128..=191 => &[0x00, 0x22],
                    _ => &[0x00],
                };
                assert!(valid.contains(b), "byte {i} = {b:#x} invalid");
            }
        });
    }
}
