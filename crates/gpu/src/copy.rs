//! The GPU→DRAM copy path.
//!
//! §3.3 of the paper compares the ways checkpoint bytes can leave the GPU
//! and picks DMA copy engines into pinned memory with DDIO on: the highest
//! bandwidth, and the copy does not occupy the GPU's compute resources.
//! [`CopyEngine`] models that one path, a throttled memcpy at the PCIe
//! link's bandwidth.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pccheck_util::{Bandwidth, ByteSize, TokenBucket};

/// Copy-engine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CopyEngineConfig {
    /// PCIe link bandwidth for pinned DMA.
    pub pcie_bandwidth: Bandwidth,
    /// Whether copies actually block on the token bucket.
    pub throttled: bool,
}

impl CopyEngineConfig {
    /// Unthrottled configuration for logic tests.
    pub fn fast_for_tests() -> Self {
        CopyEngineConfig {
            pcie_bandwidth: Bandwidth::from_gb_per_sec(1000.0),
            throttled: false,
        }
    }
}

/// A GPU's DMA copy engine, shared by all concurrent checkpoint copies on
/// that GPU.
///
/// # Examples
///
/// ```
/// use pccheck_gpu::{CopyEngine, CopyEngineConfig};
/// use pccheck_util::ByteSize;
///
/// let engine = CopyEngine::new(CopyEngineConfig::fast_for_tests());
/// engine.meter(ByteSize::from_kb(1));
/// assert_eq!(engine.bytes_copied(), 1024);
/// ```
#[derive(Debug)]
pub struct CopyEngine {
    config: CopyEngineConfig,
    bucket: Arc<TokenBucket>,
    copied: AtomicU64,
}

impl CopyEngine {
    /// Creates a copy engine.
    pub fn new(config: CopyEngineConfig) -> Self {
        let bucket = Arc::new(TokenBucket::new(config.pcie_bandwidth));
        CopyEngine {
            config,
            bucket,
            copied: AtomicU64::new(0),
        }
    }

    /// Consumes `size` of PCIe bandwidth without moving bytes. Used when
    /// the payload is materialized elsewhere (e.g., serialized straight out
    /// of tensor storage) but the transfer must still be metered.
    pub fn meter(&self, size: ByteSize) {
        self.copied.fetch_add(size.as_u64(), Ordering::Relaxed);
        if self.config.throttled && !size.is_zero() {
            self.bucket.acquire(size);
        }
    }

    /// Total bytes metered through this engine (all concurrent copies).
    // api: a test oracle, listed in DESIGN §4 ("Test oracles").
    pub fn bytes_copied(&self) -> u64 {
        self.copied.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn metered_bytes_accumulate() {
        let e = CopyEngine::new(CopyEngineConfig::fast_for_tests());
        assert_eq!(e.bytes_copied(), 0);
        e.meter(ByteSize::from_bytes(100));
        e.meter(ByteSize::from_bytes(28));
        assert_eq!(e.bytes_copied(), 128);
    }

    #[test]
    fn throttled_copy_takes_time() {
        let cfg = CopyEngineConfig {
            pcie_bandwidth: Bandwidth::from_mb_per_sec(20.0),
            throttled: true,
        };
        let e = CopyEngine::new(cfg);
        let start = Instant::now();
        e.meter(ByteSize::from_mb_u64(2));
        let secs = start.elapsed().as_secs_f64();
        assert!(secs > 0.05, "2MB at 20MB/s should take ~0.1s: {secs}");
    }
}
