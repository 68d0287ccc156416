//! The [`PersistentDevice`] trait and shared device configuration.

use std::sync::atomic::{AtomicU64, Ordering};

use pccheck_util::{Bandwidth, ByteSize};

use crate::Result;

/// Configuration shared by the simulated storage devices.
///
/// The default bandwidth numbers come straight from the paper:
/// §1 measures ~16 GB / 37 s ≈ 0.44 GB/s for `torch.save`-style sequential
/// writes to the GCP `pd-ssd`; §3.3 measures 4.01 GB/s for non-temporal
/// stores to Optane and 2.46 GB/s for the `clwb` path.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceConfig {
    /// Device capacity.
    pub capacity: ByteSize,
    /// Sustained sequential write bandwidth.
    pub write_bandwidth: Bandwidth,
    /// Whether writes actually block on the token bucket. Disable to run the
    /// concrete engines at memory speed (unit tests of pure logic).
    pub throttled: bool,
}

impl DeviceConfig {
    /// An unthrottled profile for logic tests: infinite-speed media.
    pub fn fast_for_tests(capacity: ByteSize) -> Self {
        DeviceConfig {
            capacity,
            write_bandwidth: Bandwidth::from_gb_per_sec(1000.0),
            throttled: false,
        }
    }

    /// Returns the same config with a different bandwidth.
    pub fn with_bandwidth(mut self, bw: Bandwidth) -> Self {
        self.write_bandwidth = bw;
        self
    }
}

/// Cumulative counters a device maintains, readable without locking the
/// data path.
#[derive(Debug, Default)]
pub struct DeviceStats {
    bytes_written: AtomicU64,
    bytes_persisted: AtomicU64,
    persist_ops: AtomicU64,
    bytes_read: AtomicU64,
    read_ops: AtomicU64,
    queue_depth: AtomicU64,
    peak_queue_depth: AtomicU64,
}

impl DeviceStats {
    pub(crate) fn record_write(&self, n: u64) {
        self.bytes_written.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn record_read(&self, n: u64) {
        self.bytes_read.fetch_add(n, Ordering::Relaxed);
        self.read_ops.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_persist(&self, n: u64) {
        self.bytes_persisted.fetch_add(n, Ordering::Relaxed);
        self.persist_ops.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn submit_begin(&self) {
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak_queue_depth.fetch_max(depth, Ordering::Relaxed);
    }

    pub(crate) fn submit_end(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// Total bytes accepted by `write_at`.
    pub fn bytes_written(&self) -> ByteSize {
        ByteSize::from_bytes(self.bytes_written.load(Ordering::Relaxed))
    }

    /// Total bytes covered by persist operations.
    pub fn bytes_persisted(&self) -> ByteSize {
        ByteSize::from_bytes(self.bytes_persisted.load(Ordering::Relaxed))
    }

    /// Number of persist (msync/fence) operations.
    pub fn persist_ops(&self) -> u64 {
        self.persist_ops.load(Ordering::Relaxed)
    }

    /// Total bytes returned by durable reads (the recovery path).
    pub fn bytes_read(&self) -> ByteSize {
        ByteSize::from_bytes(self.bytes_read.load(Ordering::Relaxed))
    }

    /// Number of durable read operations served.
    pub fn read_ops(&self) -> u64 {
        self.read_ops.load(Ordering::Relaxed)
    }

    /// Submissions currently in flight on the device's queue.
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// High-water mark of the submission queue.
    pub fn peak_queue_depth(&self) -> u64 {
        self.peak_queue_depth.load(Ordering::Relaxed)
    }
}

/// One entry (a device or a composite member) in a
/// [`stats_report`](PersistentDevice::stats_report).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceStatsReport {
    /// Role of this entry: `"device"` for the target itself, or a member
    /// label like `"stripe-0"` / `"pmem-tier"` inside a composite.
    pub name: String,
    /// Total bytes accepted by `write_at`.
    pub bytes_written: u64,
    /// Total bytes covered by persist operations.
    pub bytes_persisted: u64,
    /// Number of persist (msync/fence) operations.
    pub persist_ops: u64,
    /// High-water mark of the submission queue.
    pub peak_queue_depth: u64,
}

impl DeviceStatsReport {
    /// Snapshots `stats` under `name`.
    pub(crate) fn from_stats(name: impl Into<String>, stats: &DeviceStats) -> Self {
        DeviceStatsReport {
            name: name.into(),
            bytes_written: stats.bytes_written().as_u64(),
            bytes_persisted: stats.bytes_persisted().as_u64(),
            persist_ops: stats.persist_ops(),
            peak_queue_depth: stats.peak_queue_depth(),
        }
    }
}

/// RAII handle for one entry on a device's submission queue: the depth
/// gauge is bumped on creation and released on drop (I/O completion).
///
/// Devices take a ticket internally around every `write_at`/`persist`, so
/// [`DeviceStats::queue_depth`] reflects the I/O concurrently in flight and
/// [`DeviceStats::peak_queue_depth`] its high-water mark. Composites use
/// the same mechanism per member to apply queue-depth-aware backpressure.
#[derive(Debug)]
pub struct SubmissionTicket<'a> {
    stats: &'a DeviceStats,
}

impl<'a> SubmissionTicket<'a> {
    /// Enters the submission queue tracked by `stats`.
    pub fn enter(stats: &'a DeviceStats) -> Self {
        stats.submit_begin();
        SubmissionTicket { stats }
    }
}

impl Drop for SubmissionTicket<'_> {
    fn drop(&mut self) {
        self.stats.submit_end();
    }
}

/// A persistent storage device with explicit persistence points and crash
/// injection.
///
/// Implementations are thread-safe: checkpoint writer threads call
/// [`write_at`](Self::write_at) and [`persist`](Self::persist) concurrently.
///
/// The trait is object-safe; engines hold `Arc<dyn PersistentDevice>` so the
/// same checkpointing code runs against SSD and PMEM.
pub trait PersistentDevice: std::fmt::Debug + Send + Sync {
    /// Device capacity in bytes.
    fn capacity(&self) -> ByteSize;

    /// Sustained write bandwidth of the media.
    fn bandwidth(&self) -> Bandwidth;

    /// Writes `data` at `offset` into the volatile view, blocking to respect
    /// the device bandwidth when throttling is enabled.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::OutOfBounds`](crate::DeviceError::OutOfBounds)
    /// for accesses beyond capacity, or
    /// [`DeviceError::Crashed`](crate::DeviceError::Crashed) while crashed.
    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()>;

    /// Makes `[offset, offset+len)` durable (msync for SSD; for PMEM this is
    /// the fence completing earlier stores by the *calling thread*).
    ///
    /// # Errors
    ///
    /// Same conditions as [`write_at`](Self::write_at).
    fn persist(&self, offset: u64, len: u64) -> Result<()>;

    /// Reads the volatile view.
    ///
    /// # Errors
    ///
    /// Same conditions as [`write_at`](Self::write_at).
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()>;

    /// Reads the durable view (what a post-crash recovery would see).
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::OutOfBounds`](crate::DeviceError::OutOfBounds)
    /// for accesses beyond capacity. Unlike the volatile accessors this works
    /// while crashed — it is exactly the recovery path.
    fn read_durable_at(&self, offset: u64, buf: &mut [u8]) -> Result<()>;

    /// Injects a crash with the device's configured
    /// [`CrashPolicy`](crate::CrashPolicy); subsequent I/O fails until
    /// [`recover`](Self::recover).
    fn crash_now(&self);

    /// Clears the crashed state; the volatile view now equals the durable
    /// view (contents re-read from media after the failure).
    fn recover(&self);

    /// Cumulative I/O statistics.
    fn stats(&self) -> &DeviceStats;

    /// Enqueues one submission on the device's queue; the returned ticket
    /// releases the depth slot when dropped. Device implementations call
    /// this at the top of `write_at`/`persist`, so external callers rarely
    /// need it directly.
    fn submit(&self) -> SubmissionTicket<'_> {
        SubmissionTicket::enter(self.stats())
    }

    /// Current submission-queue depth of this device and, for composites,
    /// of each member (element 0 is always the device itself).
    fn queue_depths(&self) -> Vec<u64> {
        vec![self.stats().queue_depth()]
    }

    /// Per-device statistics snapshot; composites append one entry per
    /// member after their own.
    fn stats_report(&self) -> Vec<DeviceStatsReport> {
        vec![DeviceStatsReport::from_stats("device", self.stats())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_bandwidth_overrides() {
        let cfg = DeviceConfig::fast_for_tests(ByteSize::from_mb_u64(1))
            .with_bandwidth(Bandwidth::from_gb_per_sec(2.0));
        assert!((cfg.write_bandwidth.as_gb_per_sec() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn stats_counters_accumulate() {
        let stats = DeviceStats::default();
        stats.record_write(10);
        stats.record_write(5);
        stats.record_persist(15);
        stats.record_read(7);
        stats.record_read(3);
        assert_eq!(stats.bytes_written().as_u64(), 15);
        assert_eq!(stats.bytes_persisted().as_u64(), 15);
        assert_eq!(stats.persist_ops(), 1);
        assert_eq!(stats.bytes_read().as_u64(), 10);
        assert_eq!(stats.read_ops(), 2);
    }
}
