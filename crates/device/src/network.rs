//! Inter-machine network link to a peer's CPU memory.
//!
//! The Gemini baseline replaces persistent storage with remote DRAM: each
//! machine's training state is checkpointed into another machine's CPU
//! memory over the network. §5.2.1 measures 15 Gbps between the paper's GCP
//! VMs, which is what makes Gemini stall at high checkpoint frequencies.
//!
//! [`NetworkLink`] is the peer's DRAM seen through a throttled,
//! latency-modelled pipe, as a [`PersistentDevice`]: a byte is durable once
//! it is sent, so a *local* crash loses nothing already sent, and
//! everything is lost when the peer itself fails
//! ([`fail_peer`](NetworkLink::fail_peer)) — Table 1's `Storage = 0`. A
//! failed peer stays failed: its replacement is a new link, on which a new
//! store is formatted, so nothing written for the old peer's store is ever
//! acknowledged on an empty one.

use std::sync::atomic::{AtomicBool, Ordering};

use pccheck_util::sync::RwLock;

use pccheck_util::{Bandwidth, ByteSize, SimDuration, TokenBucket};

use crate::device::{DeviceStats, PersistentDevice};
use crate::error::DeviceError;
use crate::Result;

/// Network link parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkConfig {
    /// Link bandwidth.
    pub bandwidth: Bandwidth,
    /// One-way latency added to each transfer.
    pub latency: SimDuration,
    /// Whether transfers actually block to model the bandwidth.
    pub throttled: bool,
}

impl NetworkConfig {
    /// An unthrottled profile for logic tests.
    pub fn fast_for_tests() -> Self {
        NetworkConfig {
            bandwidth: Bandwidth::from_gb_per_sec(1000.0),
            latency: SimDuration::ZERO,
            throttled: false,
        }
    }
}

/// The peer's DRAM: plain volatile memory, all of it lost when the peer
/// fails.
#[derive(Debug)]
struct Peer {
    data: Vec<u8>,
    failed: bool,
}

/// A point-to-point link to a peer's memory, which it exposes as a
/// [`PersistentDevice`].
///
/// # Examples
///
/// ```
/// use pccheck_device::{NetworkConfig, NetworkLink, PersistentDevice};
/// use pccheck_util::ByteSize;
///
/// # fn main() -> Result<(), pccheck_device::DeviceError> {
/// let link = NetworkLink::new(NetworkConfig::fast_for_tests(), ByteSize::from_kb(64));
/// link.write_at(0, b"replicated state")?;
/// link.crash_now(); // the local machine fails; the peer keeps what it got
/// let mut buf = [0u8; 16];
/// link.read_durable_at(0, &mut buf)?;
/// assert_eq!(&buf, b"replicated state");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct NetworkLink {
    config: NetworkConfig,
    bucket: TokenBucket,
    capacity: ByteSize,
    peer: RwLock<Peer>,
    stats: DeviceStats,
    /// The local machine is down: it sends and reads nothing until
    /// [`recover`](PersistentDevice::recover). A flag that publishes no
    /// other data, so its accesses are `Relaxed`.
    crashed: AtomicBool,
}

impl NetworkLink {
    /// Creates a link whose peer exposes `remote_capacity` bytes of DRAM.
    pub fn new(config: NetworkConfig, remote_capacity: ByteSize) -> Self {
        NetworkLink {
            bucket: TokenBucket::new(config.bandwidth),
            capacity: remote_capacity,
            peer: RwLock::new(Peer {
                data: vec![0; remote_capacity.as_usize()],
                failed: false,
            }),
            stats: DeviceStats::default(),
            crashed: AtomicBool::new(false),
            config,
        }
    }

    /// Fails the peer: its DRAM contents are gone, and every later access
    /// through this link fails with [`DeviceError::PeerUnavailable`].
    // api: a test oracle, listed in DESIGN §4 ("Test oracles").
    pub fn fail_peer(&self) {
        let mut peer = self.peer.write();
        peer.failed = true;
        peer.data.fill(0);
    }

    /// Fails a local access while the local machine is down.
    fn check_local(&self) -> Result<()> {
        if self.crashed.load(Ordering::Relaxed) {
            return Err(DeviceError::Crashed);
        }
        Ok(())
    }

    /// Fails an access to a failed peer, or beyond its memory.
    fn check(&self, peer: &Peer, offset: u64, len: u64) -> Result<()> {
        if peer.failed {
            return Err(DeviceError::PeerUnavailable);
        }
        if offset
            .checked_add(len)
            .is_none_or(|end| end > self.capacity.as_u64())
        {
            return Err(DeviceError::OutOfBounds {
                offset,
                len,
                capacity: self.capacity.as_u64(),
            });
        }
        Ok(())
    }

    fn read(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        let peer = self.peer.read();
        self.check(&peer, offset, buf.len() as u64)?;
        let start = offset as usize;
        buf.copy_from_slice(&peer.data[start..start + buf.len()]);
        Ok(())
    }
}

impl PersistentDevice for NetworkLink {
    fn capacity(&self) -> ByteSize {
        self.capacity
    }

    fn bandwidth(&self) -> Bandwidth {
        self.config.bandwidth
    }

    /// Sends `data` into the peer's memory at `offset`, blocking for the
    /// modelled latency and bandwidth.
    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        let _ticket = self.submit();
        self.check_local()?;
        if self.config.throttled {
            if !self.config.latency.is_zero() {
                std::thread::sleep(self.config.latency.to_std());
            }
            self.bucket.acquire(ByteSize::from_bytes(data.len() as u64));
        }
        let mut peer = self.peer.write();
        self.check(&peer, offset, data.len() as u64)?;
        let start = offset as usize;
        peer.data[start..start + data.len()].copy_from_slice(data);
        self.stats.record_write(data.len() as u64);
        Ok(())
    }

    /// Nothing to flush: a sent byte is already in the peer's memory. Fails
    /// while either machine is down.
    fn persist(&self, offset: u64, len: u64) -> Result<()> {
        let _ticket = self.submit();
        self.check_local()?;
        self.check(&self.peer.read(), offset, len)?;
        self.stats.record_persist(len);
        Ok(())
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.check_local()?;
        self.read(offset, buf)
    }

    /// Reads the peer's memory, which a local crash does not touch.
    fn read_durable_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        let _ticket = self.submit();
        self.read(offset, buf)?;
        self.stats.record_read(buf.len() as u64);
        Ok(())
    }

    fn crash_now(&self) {
        self.crashed.store(true, Ordering::Relaxed);
    }

    fn recover(&self) {
        self.crashed.store(false, Ordering::Relaxed);
    }

    fn stats(&self) -> &DeviceStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn link(capacity: u64) -> NetworkLink {
        NetworkLink::new(
            NetworkConfig::fast_for_tests(),
            ByteSize::from_bytes(capacity),
        )
    }

    #[test]
    fn a_local_crash_keeps_what_was_sent_and_stops_sending() {
        let link = link(1024);
        link.write_at(10, b"abc").unwrap();
        link.persist(10, 3).unwrap();
        link.crash_now();
        assert_eq!(link.write_at(0, b"x"), Err(DeviceError::Crashed));
        let mut buf = [0u8; 3];
        link.read_durable_at(10, &mut buf).unwrap();
        assert_eq!(&buf, b"abc");
        link.recover();
        link.read_at(10, &mut buf).unwrap();
        assert_eq!(&buf, b"abc");
        assert_eq!(link.stats().bytes_written().as_u64(), 3);
    }

    #[test]
    fn throttled_send_takes_time() {
        let cfg = NetworkConfig {
            bandwidth: Bandwidth::from_mb_per_sec(20.0),
            latency: SimDuration::ZERO,
            throttled: true,
        };
        let link = NetworkLink::new(cfg, ByteSize::from_mb_u64(4));
        let payload = vec![1u8; 2 * 1024 * 1024];
        let start = Instant::now();
        link.write_at(0, &payload).unwrap();
        let secs = start.elapsed().as_secs_f64();
        assert!(secs > 0.05, "2MB at 20MB/s should take ~0.1s: {secs}");
    }

    #[test]
    fn peer_failure_loses_contents() {
        let link = link(1024);
        link.write_at(0, b"precious").unwrap();
        link.fail_peer();
        assert_eq!(link.write_at(0, b"x"), Err(DeviceError::PeerUnavailable));
        assert_eq!(link.persist(0, 8), Err(DeviceError::PeerUnavailable));
        let mut buf = [0u8; 8];
        assert_eq!(
            link.read_durable_at(0, &mut buf),
            Err(DeviceError::PeerUnavailable)
        );
        link.recover();
        assert_eq!(link.read_at(0, &mut buf), Err(DeviceError::PeerUnavailable));
        assert_eq!(link.write_at(0, b"x"), Err(DeviceError::PeerUnavailable));
    }

    #[test]
    fn remote_bounds_checked() {
        let link = link(16);
        assert!(matches!(
            link.write_at(10, &[0; 10]),
            Err(DeviceError::OutOfBounds { .. })
        ));
        assert!(link.write_at(u64::MAX, &[0]).is_err());
        assert_eq!(link.capacity().as_u64(), 16);
    }
}
