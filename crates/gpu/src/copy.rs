//! GPU→DRAM copy paths.
//!
//! §3.3 of the paper compares the ways checkpoint bytes can leave the GPU:
//! DMA copy engines with pinned memory (+DDIO) give the highest bandwidth
//! and do not occupy the GPU's compute resources, whereas GPM's copy
//! *kernels* run on the SMs, stalling training while they copy.
//! [`CopyEngine`] models both paths: the same throttled memcpy, but the
//! kernel path reports that it holds the compute engine so the training
//! loop can account the stall.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pccheck_util::{Bandwidth, ByteSize, TokenBucket};

use crate::models::GpuKind;

/// Which hardware path moves the bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CopyPath {
    /// DMA copy engines with `cudaHostRegister`-pinned destination memory:
    /// full PCIe bandwidth, compute proceeds concurrently. PCcheck's choice.
    #[default]
    DmaPinned,
    /// DMA copy engines into pageable memory: the driver bounce-buffers,
    /// roughly halving effective bandwidth.
    DmaPageable,
    /// Copy kernels running on the SMs (GPM's UVM approach): compute is
    /// blocked for the duration of the copy.
    Kernel,
}

impl CopyPath {
    /// Bandwidth multiplier relative to the pinned DMA path.
    pub(crate) fn bandwidth_factor(self) -> f64 {
        match self {
            CopyPath::DmaPinned => 1.0,
            CopyPath::DmaPageable => 0.5,
            // Kernel copies reach similar PCIe utilization for large
            // transfers but pay kernel-launch overheads on chunks.
            CopyPath::Kernel => 0.9,
        }
    }
}

/// Copy-engine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CopyEngineConfig {
    /// Raw PCIe link bandwidth for pinned DMA.
    pub pcie_bandwidth: Bandwidth,
    /// The copy path in use.
    pub path: CopyPath,
    /// Whether Direct Data I/O is enabled (inbound I/O lands in LLC). §3.3
    /// finds DDIO-on measurably faster; we model a 10% haircut when off.
    pub ddio: bool,
    /// Whether copies actually block on the token bucket.
    pub throttled: bool,
}

impl CopyEngineConfig {
    /// PCcheck's preferred configuration on a given GPU: pinned DMA, DDIO on.
    pub fn for_gpu(gpu: GpuKind) -> Self {
        CopyEngineConfig {
            pcie_bandwidth: gpu.pcie_bandwidth(),
            path: CopyPath::DmaPinned,
            ddio: true,
            throttled: true,
        }
    }

    /// Unthrottled configuration for logic tests.
    pub fn fast_for_tests() -> Self {
        CopyEngineConfig {
            pcie_bandwidth: Bandwidth::from_gb_per_sec(1000.0),
            path: CopyPath::DmaPinned,
            ddio: true,
            throttled: false,
        }
    }

    /// Returns the same config with a different copy path.
    pub fn with_path(mut self, path: CopyPath) -> Self {
        self.path = path;
        self
    }

    /// Effective bandwidth after path and DDIO effects.
    pub fn effective_bandwidth(&self) -> Bandwidth {
        let ddio_factor = if self.ddio { 1.0 } else { 0.9 };
        self.pcie_bandwidth
            .scaled(self.path.bandwidth_factor() * ddio_factor)
    }
}

/// A GPU's DMA copy engine (or copy-kernel path), shared by all concurrent
/// checkpoint copies on that GPU.
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
        let bucket = Arc::new(TokenBucket::new(config.effective_bandwidth()));
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
    /// Dividing by the run window and
    /// [`effective_bandwidth`](CopyEngineConfig::effective_bandwidth) gives the PCIe
    /// utilization gauge telemetry reports.
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
    fn pinned_dma_is_fastest_path() {
        let base = CopyEngineConfig::for_gpu(GpuKind::A100);
        let pinned = base.clone().effective_bandwidth();
        let pageable = base
            .clone()
            .with_path(CopyPath::DmaPageable)
            .effective_bandwidth();
        let kernel = base.with_path(CopyPath::Kernel).effective_bandwidth();
        assert!(pinned > pageable);
        assert!(pinned > kernel);
    }

    #[test]
    fn ddio_off_costs_bandwidth() {
        let mut cfg = CopyEngineConfig::for_gpu(GpuKind::A100);
        let on = cfg.effective_bandwidth();
        cfg.ddio = false;
        let off = cfg.effective_bandwidth();
        assert!(on > off);
    }

    #[test]
    fn throttled_copy_takes_time() {
        let cfg = CopyEngineConfig {
            pcie_bandwidth: Bandwidth::from_mb_per_sec(20.0),
            path: CopyPath::DmaPinned,
            ddio: true,
            throttled: true,
        };
        let e = CopyEngine::new(cfg);
        let start = Instant::now();
        e.meter(ByteSize::from_mb_u64(2));
        let secs = start.elapsed().as_secs_f64();
        assert!(secs > 0.05, "2MB at 20MB/s should take ~0.1s: {secs}");
    }
}
