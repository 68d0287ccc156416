//! Storage substrate for the PCcheck reproduction.
//!
//! The paper's evaluation persists checkpoints to two storage medias — GCP
//! `pd-ssd` volumes (mmap + `msync`) and Intel Optane PMEM (non-temporal
//! stores / `clwb`, each followed by a fence) — staged through pinned DRAM
//! buffers, with the Gemini baseline instead shipping state over the
//! inter-VM network. None of that hardware is available here, so this crate
//! implements simulated devices that preserve the *semantics* the
//! checkpointing algorithms depend on:
//!
//! * **Persistence boundaries.** Writes land in a volatile view first
//!   (page cache for SSD, CPU caches / WC buffers for PMEM) and only survive
//!   a crash once an explicit persist operation ([`PersistentDevice::persist`])
//!   completes — `msync` for SSD, `sfence`/`clwb+sfence` for PMEM. PMEM
//!   fences are *per-thread*, matching §4.1's observation that the spawning
//!   thread cannot fence its workers' stores.
//! * **Bandwidth contention.** Each device meters writes through a shared
//!   token bucket, so concurrent checkpoint writers slow each other down the
//!   way they do on a real disk (§5.4.1: >4 concurrent checkpoints saturate
//!   the SSD).
//! * **Crash injection.** [`PersistentDevice::crash_now`] drops (or, under an
//!   adversarial policy, partially retains) unpersisted bytes, enabling
//!   property tests of the recovery invariant ("there is always at least one
//!   fully persisted checkpoint").
//!
//! # Examples
//!
//! ```
//! use pccheck_device::{DeviceConfig, PersistentDevice, SsdDevice};
//! use pccheck_util::ByteSize;
//!
//! # fn main() -> Result<(), pccheck_device::DeviceError> {
//! let ssd = SsdDevice::new(DeviceConfig::fast_for_tests(ByteSize::from_mb_u64(1)));
//! ssd.write_at(0, b"checkpoint bytes")?;
//! ssd.persist(0, 16)?; // msync
//! ssd.crash_now();
//! ssd.recover();
//! let mut buf = [0u8; 16];
//! ssd.read_at(0, &mut buf)?;
//! assert_eq!(&buf, b"checkpoint bytes");
//! # Ok(())
//! # }
//! ```

pub mod composite;
pub mod device;
pub mod dram;
pub mod error;
pub mod file;
pub mod network;
pub mod observer;
pub mod pmem;
pub mod region;
pub mod ssd;

pub use composite::{StripedDevice, TieredDevice};
pub use device::{DeviceConfig, DeviceStats, PersistentDevice};
pub use dram::{HostBuffer, HostBufferPool};
pub use error::DeviceError;
pub use file::FileDevice;
pub use network::{NetworkConfig, NetworkLink};
pub use observer::{IoObserver, MemberIoOp};
pub use pmem::{PmemDevice, PmemWriteMode};
pub use region::CrashPolicy;
pub use ssd::SsdDevice;

/// Convenience alias for fallible device operations.
pub type Result<T> = std::result::Result<T, DeviceError>;
