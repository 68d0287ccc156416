//! Simulated persistent main memory (Intel Optane AppDirect / future CXL).
//!
//! §3.3 of the paper measures two write paths to PMEM — non-temporal stores
//! (bypassing the cache, 4.01 GB/s on their machine) and `clwb` cache
//! write-back (2.46 GB/s) — each requiring a fence for persistence. The
//! device runs one path, at its configured bandwidth. §4.1 further notes
//! the fence is *internal to each CPU*: the orchestrator thread cannot
//! fence stores issued by its worker threads, so every PMEM writer must
//! fence its own data.
//!
//! [`PmemDevice`] models that: stores are tracked per-thread until that
//! thread fences them; only then do they become durable.
//! The generic [`PersistentDevice::persist`] is the calling thread's
//! fence, so the same engine code drives SSD and PMEM while honoring the
//! different persistence granularity.

use std::collections::HashMap;
use std::sync::Arc;
use std::thread::ThreadId;

use pccheck_util::sync::RwLock;

use pccheck_util::{Bandwidth, ByteSize, TokenBucket};

use crate::device::{DeviceConfig, DeviceStats, PersistentDevice};
use crate::error::DeviceError;
use crate::region::{CrashPolicy, MemRegion};
use crate::Result;

#[derive(Debug)]
struct PmemState {
    region: MemRegion,
    crashed: bool,
    /// Ranges stored but not yet fenced, per issuing thread.
    pending: HashMap<ThreadId, Vec<(u64, u64)>>,
}

/// Byte-addressable persistent memory with per-thread fence semantics.
///
/// # Examples
///
/// ```
/// use pccheck_device::{DeviceConfig, PersistentDevice, PmemDevice};
/// use pccheck_util::ByteSize;
///
/// # fn main() -> Result<(), pccheck_device::DeviceError> {
/// let pmem = PmemDevice::new(DeviceConfig::fast_for_tests(ByteSize::from_kb(4)));
/// pmem.write_at(0, b"header")?; // nt-store
/// pmem.persist(0, 6)?;          // persistence fence for *this* thread
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct PmemDevice {
    config: DeviceConfig,
    state: RwLock<PmemState>,
    bucket: Arc<TokenBucket>,
    stats: DeviceStats,
    crash_policy: CrashPolicy,
}

impl PmemDevice {
    /// Creates a PMEM device with the conservative crash policy.
    pub fn new(config: DeviceConfig) -> Self {
        Self::with_crash_policy(config, CrashPolicy::DropUnpersisted)
    }

    /// Creates a PMEM device with an explicit crash policy.
    pub fn with_crash_policy(config: DeviceConfig, crash_policy: CrashPolicy) -> Self {
        let bucket = Arc::new(TokenBucket::new(config.write_bandwidth));
        PmemDevice {
            state: RwLock::new(PmemState {
                region: MemRegion::new(config.capacity),
                crashed: false,
                pending: HashMap::new(),
            }),
            bucket,
            stats: DeviceStats::default(),
            crash_policy,
            config,
        }
    }

    /// Persistence fence for the calling thread (`sfence` after
    /// nt-stores): all of its earlier stores become durable. Each pending
    /// store range persists through `MemRegion::persist`, which hands each
    /// page the range leaves clean to the media instead of copying it, so
    /// the fence holds the state lock for page moves (and the odd edge-page
    /// copy), not for a memcpy of every fenced byte.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::Crashed`] while crashed.
    fn sfence(&self) -> Result<()> {
        let tid = std::thread::current().id();
        let mut state = self.state.write();
        if state.crashed {
            return Err(DeviceError::Crashed);
        }
        if let Some(ranges) = state.pending.remove(&tid) {
            for (start, end) in ranges {
                state
                    .region
                    .persist(start, end - start)
                    .expect("pending range was bounds-checked at store time");
                self.stats.record_persist(end - start);
            }
        }
        Ok(())
    }

    /// Number of bytes stored by the calling thread but not yet fenced.
    #[cfg(test)]
    fn unfenced_bytes(&self) -> ByteSize {
        let tid = std::thread::current().id();
        let state = self.state.read();
        ByteSize::from_bytes(
            state
                .pending
                .get(&tid)
                .map(|rs| rs.iter().map(|(s, e)| e - s).sum())
                .unwrap_or(0),
        )
    }
}

impl PersistentDevice for PmemDevice {
    fn capacity(&self) -> ByteSize {
        self.config.capacity
    }

    fn bandwidth(&self) -> Bandwidth {
        self.config.write_bandwidth
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        let _ticket = self.submit();
        // Before the bucket: a write that cannot land takes no bandwidth
        // from the writes after `recover()`.
        if self.state.read().crashed {
            return Err(DeviceError::Crashed);
        }
        if self.config.throttled {
            self.bucket.acquire(ByteSize::from_bytes(data.len() as u64));
        }
        let tid = std::thread::current().id();
        let mut state = self.state.write();
        if state.crashed {
            return Err(DeviceError::Crashed);
        }
        state.region.write(offset, data)?;
        if !data.is_empty() {
            state
                .pending
                .entry(tid)
                .or_default()
                .push((offset, offset + data.len() as u64));
        }
        self.stats.record_write(data.len() as u64);
        Ok(())
    }

    /// For PMEM, persisting a range is only legal for the thread that wrote
    /// it; the fence completes *the calling thread's* stores. We implement
    /// the generic `persist` as an `sfence` for the caller — `offset`/`len`
    /// are validated but the fence covers all of the caller's pending
    /// stores, which is the actual hardware behavior.
    fn persist(&self, offset: u64, len: u64) -> Result<()> {
        let _ticket = self.submit();
        // Bounds-validate so misuse is caught symmetrically with SSD.
        {
            let state = self.state.read();
            if offset
                .checked_add(len)
                .is_none_or(|end| end > state.region.capacity().as_u64())
            {
                return Err(DeviceError::OutOfBounds {
                    offset,
                    len,
                    capacity: state.region.capacity().as_u64(),
                });
            }
        }
        self.sfence()
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        let state = self.state.read();
        if state.crashed {
            return Err(DeviceError::Crashed);
        }
        state.region.read(offset, buf)
    }

    fn read_durable_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.state.read().region.read_durable(offset, buf)
    }

    fn crash_now(&self) {
        let mut state = self.state.write();
        if !state.crashed {
            state.crashed = true;
            state.pending.clear();
            let policy = self.crash_policy;
            state.region.crash(policy);
        }
    }

    fn recover(&self) {
        let mut state = self.state.write();
        state.crashed = false;
        state.pending.clear();
    }

    fn stats(&self) -> &DeviceStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast(cap: u64) -> PmemDevice {
        PmemDevice::new(DeviceConfig::fast_for_tests(ByteSize::from_bytes(cap)))
    }

    #[test]
    fn a_crashed_throttled_device_fails_a_write_without_charging_it() {
        // 1 MiB at 1 KB/s would sleep for ~17 minutes in the bucket before
        // finding the device crashed; a guard thread reports a hang.
        let cfg = DeviceConfig {
            capacity: ByteSize::from_mb_u64(2),
            write_bandwidth: Bandwidth::from_bytes_per_sec(1000.0),
            throttled: true,
        };
        let pmem = Arc::new(PmemDevice::new(cfg));
        pmem.crash_now();
        let (done, result) = std::sync::mpsc::channel();
        let writer = Arc::clone(&pmem);
        std::thread::spawn(move || {
            let _ = done.send(writer.write_at(0, &vec![7u8; 1 << 20]));
        });
        let outcome = result.recv_timeout(std::time::Duration::from_secs(120));
        assert!(
            matches!(outcome, Ok(Err(DeviceError::Crashed))),
            "{outcome:?}"
        );
    }

    #[test]
    fn stores_are_not_durable_until_fence() {
        let pmem = fast(4096);
        pmem.write_at(0, &[0x55; 64]).unwrap();
        assert_eq!(pmem.unfenced_bytes().as_u64(), 64);
        let mut buf = [0u8; 64];
        pmem.read_durable_at(0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0), "not durable before fence");
        pmem.sfence().unwrap();
        assert_eq!(pmem.unfenced_bytes().as_u64(), 0);
        pmem.read_durable_at(0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0x55));
    }

    #[test]
    fn fence_only_covers_calling_thread() {
        let pmem = Arc::new(fast(4096));
        // A worker thread stores without fencing...
        {
            let pmem = Arc::clone(&pmem);
            std::thread::spawn(move || {
                pmem.write_at(100, &[0xAA; 32]).unwrap();
            })
            .join()
            .unwrap();
        }
        // ...then the main thread stores and fences its own data.
        pmem.write_at(200, &[0xBB; 32]).unwrap();
        pmem.sfence().unwrap();
        pmem.crash_now();
        let mut worker = [0u8; 32];
        pmem.read_durable_at(100, &mut worker).unwrap();
        assert!(
            worker.iter().all(|&b| b == 0),
            "main thread's fence must not persist the worker's stores (§4.1)"
        );
        let mut main = [0u8; 32];
        pmem.read_durable_at(200, &mut main).unwrap();
        assert!(main.iter().all(|&b| b == 0xBB));
    }

    #[test]
    fn each_thread_fencing_its_own_data_persists_everything() {
        let pmem = Arc::new(fast(4096));
        std::thread::scope(|s| {
            for i in 0..4u64 {
                let pmem = Arc::clone(&pmem);
                s.spawn(move || {
                    pmem.write_at(i * 512, &[i as u8 + 1; 512]).unwrap();
                    pmem.sfence().unwrap();
                });
            }
        });
        pmem.crash_now();
        for i in 0..4u64 {
            let mut buf = [0u8; 512];
            pmem.read_durable_at(i * 512, &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == i as u8 + 1), "shard {i} durable");
        }
    }

    #[test]
    fn generic_persist_acts_as_fence() {
        let pmem = fast(1024);
        pmem.write_at(0, &[1; 10]).unwrap();
        pmem.persist(0, 10).unwrap();
        let mut buf = [0u8; 10];
        pmem.read_durable_at(0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 1));
    }

    #[test]
    fn persist_validates_bounds() {
        let pmem = fast(16);
        assert!(matches!(
            pmem.persist(10, 10),
            Err(DeviceError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn crash_clears_pending_and_rejects_io() {
        let pmem = fast(1024);
        pmem.write_at(0, &[9; 8]).unwrap();
        pmem.crash_now();
        assert_eq!(pmem.write_at(0, &[1]), Err(DeviceError::Crashed));
        assert_eq!(pmem.sfence(), Err(DeviceError::Crashed));
        let mut buf = [0u8; 1];
        assert_eq!(pmem.read_at(0, &mut buf), Err(DeviceError::Crashed));
        pmem.recover();
        assert_eq!(pmem.unfenced_bytes(), ByteSize::ZERO);
        pmem.write_at(0, &[1]).unwrap();
    }

    #[test]
    fn adversarial_crash_may_persist_unfenced_lines() {
        // With RandomPartial, some unfenced lines survive — the recovery
        // algorithm must tolerate that (new data where it did not fence).
        let pmem = PmemDevice::with_crash_policy(
            DeviceConfig::fast_for_tests(ByteSize::from_kb(4)),
            CrashPolicy::RandomPartial { seed: 11 },
        );
        pmem.write_at(0, &[0xEE; 1024]).unwrap();
        pmem.crash_now();
        let mut buf = vec![0u8; 1024];
        pmem.read_durable_at(0, &mut buf).unwrap();
        let survived = buf.chunks(64).filter(|line| line[0] == 0xEE).count();
        assert!(survived > 0, "adversarial crash should leak some lines");
        assert!(survived < 16, "but not all of them (seed 11)");
    }
}
