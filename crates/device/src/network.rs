//! Inter-machine network link and remote CPU memory.
//!
//! The Gemini baseline replaces persistent storage with remote DRAM: each
//! machine's training state is checkpointed into another machine's CPU
//! memory over the network. §5.2.1 measures 15 Gbps between the paper's GCP
//! VMs, which is what makes Gemini stall at high checkpoint frequencies.
//!
//! [`NetworkLink`] is a throttled, latency-modeled pipe; [`RemoteMemory`] is
//! the peer's DRAM, which survives *local* failures but is lost when the
//! peer itself fails.

use std::sync::Arc;

use pccheck_util::sync::RwLock;

use pccheck_util::{Bandwidth, ByteSize, SimDuration, TokenBucket};

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

/// A point-to-point link to a peer's memory.
///
/// # Examples
///
/// ```
/// use pccheck_device::{NetworkConfig, NetworkLink};
/// use pccheck_util::ByteSize;
///
/// # fn main() -> Result<(), pccheck_device::DeviceError> {
/// let link = NetworkLink::new(NetworkConfig::fast_for_tests(), ByteSize::from_kb(64));
/// link.send(0, b"replicated state")?;
/// let mut buf = [0u8; 16];
/// link.remote().read(0, &mut buf)?;
/// assert_eq!(&buf, b"replicated state");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct NetworkLink {
    config: NetworkConfig,
    bucket: Arc<TokenBucket>,
    remote: RemoteMemory,
}

impl NetworkLink {
    /// Creates a link whose peer exposes `remote_capacity` bytes of DRAM.
    pub fn new(config: NetworkConfig, remote_capacity: ByteSize) -> Self {
        let bucket = Arc::new(TokenBucket::new(config.bandwidth));
        NetworkLink {
            bucket,
            remote: RemoteMemory::new(remote_capacity),
            config,
        }
    }

    /// Transfers `data` into the peer's memory at `offset`, blocking for the
    /// modeled bandwidth and latency.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::PeerUnavailable`] if the peer has failed, or
    /// [`DeviceError::OutOfBounds`] for accesses beyond the remote capacity.
    pub fn send(&self, offset: u64, data: &[u8]) -> Result<()> {
        if self.config.throttled {
            if !self.config.latency.is_zero() {
                std::thread::sleep(self.config.latency.to_std());
            }
            self.bucket.acquire(ByteSize::from_bytes(data.len() as u64));
        }
        self.remote.write(offset, data)
    }

    /// Access to the peer's memory (for recovery reads and failure
    /// injection).
    pub fn remote(&self) -> &RemoteMemory {
        &self.remote
    }
}

#[derive(Debug)]
struct RemoteState {
    data: Vec<u8>,
    failed: bool,
}

/// The peer machine's DRAM.
///
/// Plain volatile memory: writes are immediately visible (no persistence
/// step), but everything is lost if the *peer* fails —
/// the failure mode that distinguishes Gemini's in-memory checkpoints from
/// storage-backed ones.
#[derive(Debug)]
pub struct RemoteMemory {
    state: RwLock<RemoteState>,
    capacity: ByteSize,
}

impl RemoteMemory {
    /// Creates zeroed remote memory of the given capacity.
    pub fn new(capacity: ByteSize) -> Self {
        RemoteMemory {
            state: RwLock::new(RemoteState {
                data: vec![0; capacity.as_usize()],
                failed: false,
            }),
            capacity,
        }
    }

    /// Remote capacity.
    pub fn capacity(&self) -> ByteSize {
        self.capacity
    }

    fn check(&self, offset: u64, len: u64, failed: bool) -> Result<()> {
        if failed {
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

    /// Writes into remote memory.
    ///
    /// # Errors
    ///
    /// [`DeviceError::PeerUnavailable`] after peer failure;
    /// [`DeviceError::OutOfBounds`] beyond capacity.
    pub fn write(&self, offset: u64, data: &[u8]) -> Result<()> {
        let mut state = self.state.write();
        self.check(offset, data.len() as u64, state.failed)?;
        let start = offset as usize;
        state.data[start..start + data.len()].copy_from_slice(data);
        Ok(())
    }

    /// Reads from remote memory.
    ///
    /// # Errors
    ///
    /// Same conditions as [`write`](Self::write).
    pub fn read(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        let state = self.state.read();
        self.check(offset, buf.len() as u64, state.failed)?;
        let start = offset as usize;
        buf.copy_from_slice(&state.data[start..start + buf.len()]);
        Ok(())
    }

    /// Fails the peer: its DRAM contents are gone.
    pub fn fail_peer(&self) {
        let mut state = self.state.write();
        state.failed = true;
        state.data.iter_mut().for_each(|b| *b = 0);
    }

    /// Restores the peer with empty memory (a replacement VM).
    pub fn replace_peer(&self) {
        self.state.write().failed = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn send_lands_in_remote_memory() {
        let link = NetworkLink::new(NetworkConfig::fast_for_tests(), ByteSize::from_kb(1));
        link.send(10, b"abc").unwrap();
        let mut buf = [0u8; 3];
        link.remote().read(10, &mut buf).unwrap();
        assert_eq!(&buf, b"abc");
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
        link.send(0, &payload).unwrap();
        let secs = start.elapsed().as_secs_f64();
        assert!(secs > 0.05, "2MB at 20MB/s should take ~0.1s: {secs}");
    }

    #[test]
    fn peer_failure_loses_contents() {
        let link = NetworkLink::new(NetworkConfig::fast_for_tests(), ByteSize::from_kb(1));
        link.send(0, b"precious").unwrap();
        link.remote().fail_peer();
        assert_eq!(link.send(0, b"x"), Err(DeviceError::PeerUnavailable));
        let mut buf = [0u8; 8];
        assert_eq!(
            link.remote().read(0, &mut buf),
            Err(DeviceError::PeerUnavailable)
        );
        link.remote().replace_peer();
        link.remote().read(0, &mut buf).unwrap();
        assert_eq!(&buf, &[0; 8], "replacement peer starts empty");
    }

    #[test]
    fn remote_bounds_checked() {
        let mem = RemoteMemory::new(ByteSize::from_bytes(16));
        assert!(matches!(
            mem.write(10, &[0; 10]),
            Err(DeviceError::OutOfBounds { .. })
        ));
        assert!(mem.write(u64::MAX, &[0]).is_err());
        assert_eq!(mem.capacity().as_u64(), 16);
    }
}
