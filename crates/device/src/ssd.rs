//! Simulated SSD with mmap/msync semantics.
//!
//! PCcheck's SSD path (§3.3) memory-maps the checkpoint file and calls
//! `msync()` after every checkpointing write; the baselines do the same (GPM
//! via `cudaHostRegister` + `msync`). [`SsdDevice`] models this: `write_at`
//! dirties the page-cache (volatile) view at media bandwidth, and `persist`
//! is the msync that makes a range durable.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use pccheck_util::sync::RwLock;

use pccheck_util::{Bandwidth, ByteSize, TokenBucket};

use crate::device::{DeviceConfig, DeviceStats, PersistentDevice};
use crate::error::DeviceError;
use crate::region::{CrashPolicy, MemRegion};
use crate::Result;

#[derive(Debug)]
struct SsdState {
    region: MemRegion,
    crashed: bool,
}

/// A bandwidth-throttled SSD with msync-style persistence.
///
/// Writes by concurrent checkpoint threads share one token bucket, so the
/// aggregate never exceeds the configured media bandwidth — the mechanism
/// behind the paper's observation that ~4 concurrent checkpoints saturate
/// the SSD (§5.4.1).
///
/// # Examples
///
/// ```
/// use pccheck_device::{DeviceConfig, PersistentDevice, SsdDevice};
/// use pccheck_util::ByteSize;
///
/// # fn main() -> Result<(), pccheck_device::DeviceError> {
/// let ssd = SsdDevice::new(DeviceConfig::fast_for_tests(ByteSize::from_kb(64)));
/// ssd.write_at(0, &[1, 2, 3])?;
/// ssd.persist(0, 3)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SsdDevice {
    config: DeviceConfig,
    state: RwLock<SsdState>,
    bucket: Arc<TokenBucket>,
    /// Reads draw from their own bucket (same media rate), so a parallel
    /// restore competes for read bandwidth without starving writers.
    read_bucket: Arc<TokenBucket>,
    stats: DeviceStats,
    crash_policy: CrashPolicy,
    /// Crash-injection fuse: `-1` is disarmed; `n >= 0` means `n` more
    /// `persist` calls succeed and the one after that crashes the device
    /// *before* taking effect (its range is lost like any unsynced data).
    armed_persists: AtomicI64,
    /// Injected unreadable media range (`offset`, `len`); empty when no
    /// fault is armed. Durable reads overlapping it fail with
    /// [`DeviceError::ReadFault`].
    read_fault: RwLock<Option<(u64, u64)>>,
}

impl SsdDevice {
    /// Creates an SSD with the given configuration and the conservative
    /// crash policy (unsynced page-cache data is lost).
    pub fn new(config: DeviceConfig) -> Self {
        Self::with_crash_policy(config, CrashPolicy::DropUnpersisted)
    }

    /// Creates an SSD with an explicit crash policy (adversarial testing).
    pub fn with_crash_policy(config: DeviceConfig, crash_policy: CrashPolicy) -> Self {
        let bucket = Arc::new(TokenBucket::new(config.write_bandwidth));
        let read_bucket = Arc::new(TokenBucket::new(config.write_bandwidth));
        SsdDevice {
            state: RwLock::new(SsdState {
                region: MemRegion::new(config.capacity),
                crashed: false,
            }),
            bucket,
            read_bucket,
            stats: DeviceStats::default(),
            crash_policy,
            armed_persists: AtomicI64::new(-1),
            read_fault: RwLock::new(None),
            config,
        }
    }

    /// Arms a deterministic crash fuse: the next `n` calls to
    /// [`PersistentDevice::persist`] succeed, and the call after that
    /// crashes the device mid-`msync` — before the range becomes durable.
    /// The fuse disarms itself after firing. This pins crash points to
    /// exact protocol steps (during persist, between persist and commit)
    /// for forensic and crash-consistency tests.
    pub fn arm_crash_after_persists(&self, n: u64) {
        self.armed_persists.store(n as i64, Ordering::Relaxed);
    }

    /// Marks `[offset, offset+len)` as unreadable media: any durable read
    /// overlapping the range fails with [`DeviceError::ReadFault`]. Models
    /// a latent sector error discovered during recovery — the device stays
    /// up, writes still land, only the faulted bytes are lost.
    pub fn arm_read_fault_at(&self, offset: u64, len: u64) {
        *self.read_fault.write() = Some((offset, len));
    }

    fn check_read_fault(&self, offset: u64, len: u64) -> Result<()> {
        if let Some((f_off, f_len)) = *self.read_fault.read() {
            if offset < f_off + f_len && f_off < offset + len {
                return Err(DeviceError::ReadFault { offset: f_off });
            }
        }
        Ok(())
    }

    /// Returns `true` if the device is currently in the crashed state.
    pub fn is_crashed(&self) -> bool {
        self.state.read().crashed
    }

    fn check_alive(crashed: bool) -> Result<()> {
        if crashed {
            Err(DeviceError::Crashed)
        } else {
            Ok(())
        }
    }
}

impl PersistentDevice for SsdDevice {
    fn capacity(&self) -> ByteSize {
        self.config.capacity
    }

    fn bandwidth(&self) -> Bandwidth {
        self.config.write_bandwidth
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        let _ticket = self.submit();
        if self.config.throttled {
            // Block outside the lock so other writers and readers proceed
            // while we wait for bandwidth tokens.
            self.bucket.acquire(ByteSize::from_bytes(data.len() as u64));
        }
        let mut state = self.state.write();
        Self::check_alive(state.crashed)?;
        state.region.write(offset, data)?;
        self.stats.record_write(data.len() as u64);
        Ok(())
    }

    /// The `msync` of `[offset, offset+len)`. Under the state lock it moves
    /// pages, not bytes: a page the range leaves with no dirty byte becomes
    /// the media's page, and only a page still dirty outside the range has
    /// the range copied (`MemRegion::persist`).
    fn persist(&self, offset: u64, len: u64) -> Result<()> {
        let _ticket = self.submit();
        let mut state = self.state.write();
        Self::check_alive(state.crashed)?;
        // The fuse is read and updated under the exclusive state lock, so
        // the atomic only provides interior mutability, not synchronization.
        let fuse = self.armed_persists.load(Ordering::Relaxed);
        if fuse == 0 {
            self.armed_persists.store(-1, Ordering::Relaxed);
            state.crashed = true;
            state.region.crash(self.crash_policy);
            return Err(DeviceError::Crashed);
        } else if fuse > 0 {
            self.armed_persists.store(fuse - 1, Ordering::Relaxed);
        }
        state.region.persist(offset, len)?;
        self.stats.record_persist(len);
        Ok(())
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.check_read_fault(offset, buf.len() as u64)?;
        let state = self.state.read();
        Self::check_alive(state.crashed)?;
        state.region.read(offset, buf)
    }

    fn read_durable_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        let _ticket = self.submit();
        self.check_read_fault(offset, buf.len() as u64)?;
        if self.config.throttled {
            // Block outside the state lock, like writes do.
            self.read_bucket
                .acquire(ByteSize::from_bytes(buf.len() as u64));
        }
        self.state.read().region.read_durable(offset, buf)?;
        self.stats.record_read(buf.len() as u64);
        Ok(())
    }

    fn crash_now(&self) {
        let mut state = self.state.write();
        if !state.crashed {
            state.crashed = true;
            let policy = self.crash_policy;
            state.region.crash(policy);
        }
    }

    fn recover(&self) {
        self.state.write().crashed = false;
    }

    fn stats(&self) -> &DeviceStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn fast(cap: u64) -> SsdDevice {
        SsdDevice::new(DeviceConfig::fast_for_tests(ByteSize::from_bytes(cap)))
    }

    #[test]
    fn write_persist_read_cycle() {
        let ssd = fast(1024);
        ssd.write_at(100, b"model-state").unwrap();
        ssd.persist(100, 11).unwrap();
        let mut buf = [0u8; 11];
        ssd.read_at(100, &mut buf).unwrap();
        assert_eq!(&buf, b"model-state");
        ssd.read_durable_at(100, &mut buf).unwrap();
        assert_eq!(&buf, b"model-state");
    }

    #[test]
    fn crash_rejects_io_until_recover() {
        let ssd = fast(1024);
        ssd.write_at(0, b"a").unwrap();
        ssd.crash_now();
        assert!(ssd.is_crashed());
        assert_eq!(ssd.write_at(0, b"b"), Err(DeviceError::Crashed));
        assert_eq!(ssd.persist(0, 1), Err(DeviceError::Crashed));
        let mut buf = [0u8; 1];
        assert_eq!(ssd.read_at(0, &mut buf), Err(DeviceError::Crashed));
        // Recovery path still works while crashed.
        ssd.read_durable_at(0, &mut buf).unwrap();
        assert_eq!(buf[0], 0, "unsynced write lost");
        ssd.recover();
        assert!(!ssd.is_crashed());
        ssd.write_at(0, b"b").unwrap();
    }

    #[test]
    fn crash_is_idempotent() {
        let ssd = fast(64);
        ssd.crash_now();
        ssd.crash_now();
    }

    #[test]
    fn unsynced_data_lost_synced_data_survives() {
        let ssd = fast(4096);
        ssd.write_at(0, &[0xAB; 100]).unwrap();
        ssd.persist(0, 100).unwrap();
        ssd.write_at(200, &[0xCD; 100]).unwrap(); // never synced
        ssd.crash_now();
        ssd.recover();
        let mut a = [0u8; 100];
        ssd.read_at(0, &mut a).unwrap();
        assert!(a.iter().all(|&b| b == 0xAB));
        let mut b = [0u8; 100];
        ssd.read_at(200, &mut b).unwrap();
        assert!(b.iter().all(|&b| b == 0));
    }

    #[test]
    fn armed_fuse_crashes_the_fatal_persist_before_it_lands() {
        let ssd = fast(4096);
        ssd.arm_crash_after_persists(2);
        ssd.write_at(0, &[0x11; 8]).unwrap();
        ssd.persist(0, 8).unwrap();
        ssd.write_at(8, &[0x22; 8]).unwrap();
        ssd.persist(8, 8).unwrap();
        ssd.write_at(16, &[0x33; 8]).unwrap();
        assert_eq!(ssd.persist(16, 8), Err(DeviceError::Crashed));
        assert!(ssd.is_crashed());
        // The first two persists are durable; the fatal one never landed.
        let mut buf = [0u8; 24];
        ssd.read_durable_at(0, &mut buf).unwrap();
        assert_eq!(&buf[0..8], &[0x11; 8]);
        assert_eq!(&buf[8..16], &[0x22; 8]);
        assert_eq!(&buf[16..24], &[0u8; 8]);
        // Fuse disarmed itself: recovery resumes normal persistence.
        ssd.recover();
        ssd.write_at(16, &[0x44; 8]).unwrap();
        ssd.persist(16, 8).unwrap();
    }

    #[test]
    fn throttling_enforces_bandwidth() {
        let cfg = DeviceConfig {
            capacity: ByteSize::from_mb_u64(8),
            write_bandwidth: Bandwidth::from_mb_per_sec(20.0),
            throttled: true,
        };
        let ssd = SsdDevice::new(cfg);
        let payload = vec![7u8; 4 * 1024 * 1024];
        let start = Instant::now();
        ssd.write_at(0, &payload).unwrap();
        let secs = start.elapsed().as_secs_f64();
        assert!(secs > 0.1, "4MB at 20MB/s must take ~0.2s, took {secs}s");
        assert!(secs < 1.0, "took far too long: {secs}s");
    }

    #[test]
    fn concurrent_writers_share_bucket() {
        let cfg = DeviceConfig {
            capacity: ByteSize::from_mb_u64(8),
            write_bandwidth: Bandwidth::from_mb_per_sec(20.0),
            throttled: true,
        };
        let ssd = Arc::new(SsdDevice::new(cfg));
        let start = Instant::now();
        std::thread::scope(|s| {
            for i in 0..2u64 {
                let ssd = Arc::clone(&ssd);
                s.spawn(move || {
                    let payload = vec![i as u8; 2 * 1024 * 1024];
                    ssd.write_at(i * 2 * 1024 * 1024, &payload).unwrap();
                });
            }
        });
        let secs = start.elapsed().as_secs_f64();
        // 4 MB total at 20 MB/s: ~0.2 s regardless of concurrency.
        assert!(secs > 0.1, "contention not enforced: {secs}s");
    }

    #[test]
    fn stats_track_io() {
        let ssd = fast(1024);
        ssd.write_at(0, &[1; 100]).unwrap();
        ssd.persist(0, 100).unwrap();
        assert_eq!(ssd.stats().bytes_written().as_u64(), 100);
        assert_eq!(ssd.stats().bytes_persisted().as_u64(), 100);
        assert_eq!(ssd.stats().persist_ops(), 1);
    }

    #[test]
    fn submission_queue_tracks_depth_and_peak() {
        let ssd = fast(1024);
        assert_eq!(ssd.stats().queue_depth(), 0);
        {
            let _t1 = ssd.submit();
            assert_eq!(ssd.stats().queue_depth(), 1);
            let _t2 = ssd.submit();
            assert_eq!(ssd.stats().queue_depth(), 2);
        }
        assert_eq!(ssd.stats().queue_depth(), 0, "tickets release on drop");
        assert_eq!(ssd.stats().peak_queue_depth(), 2, "peak is sticky");
        // Every write/persist passes through the queue.
        ssd.write_at(0, &[1; 8]).unwrap();
        ssd.persist(0, 8).unwrap();
        assert_eq!(ssd.stats().queue_depth(), 0);
        assert_eq!(ssd.queue_depths(), vec![0]);
    }

    #[test]
    fn read_fault_hits_overlapping_durable_reads_only() {
        let ssd = fast(1024);
        ssd.write_at(0, &[0x5A; 256]).unwrap();
        ssd.persist(0, 256).unwrap();
        ssd.arm_read_fault_at(100, 50);
        let mut buf = [0u8; 32];
        assert_eq!(
            ssd.read_durable_at(90, &mut buf),
            Err(DeviceError::ReadFault { offset: 100 })
        );
        assert_eq!(
            ssd.read_durable_at(120, &mut buf),
            Err(DeviceError::ReadFault { offset: 100 })
        );
        // Disjoint ranges still read fine, and writes are unaffected.
        ssd.read_durable_at(0, &mut buf).unwrap();
        assert_eq!(buf, [0x5A; 32]);
        ssd.read_durable_at(150, &mut buf).unwrap();
        ssd.write_at(100, &[1; 8]).unwrap();
    }

    #[test]
    fn durable_reads_are_throttled_and_counted() {
        let cfg = DeviceConfig {
            capacity: ByteSize::from_mb_u64(8),
            write_bandwidth: Bandwidth::from_mb_per_sec(20.0),
            throttled: true,
        };
        let ssd = SsdDevice::new(cfg);
        let mut buf = vec![0u8; 4 * 1024 * 1024];
        let start = Instant::now();
        ssd.read_durable_at(0, &mut buf).unwrap();
        let secs = start.elapsed().as_secs_f64();
        assert!(secs > 0.1, "4MB at 20MB/s must take ~0.2s, took {secs}s");
        assert_eq!(ssd.stats().bytes_read().as_u64(), buf.len() as u64);
        assert_eq!(ssd.stats().read_ops(), 1);
    }

    #[test]
    fn out_of_bounds_propagates() {
        let ssd = fast(16);
        assert!(matches!(
            ssd.write_at(10, &[0; 10]),
            Err(DeviceError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn device_is_object_safe_and_shareable() {
        let dev: Arc<dyn PersistentDevice> = Arc::new(fast(64));
        dev.write_at(0, &[1]).unwrap();
        assert_eq!(dev.capacity().as_u64(), 64);
    }
}
