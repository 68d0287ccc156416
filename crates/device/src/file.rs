//! A file-backed persistent device.
//!
//! Unlike [`SsdDevice`](crate::SsdDevice), whose "media" is an in-memory
//! durable view, [`FileDevice`] persists to a real file on disk:
//! checkpoint stores built on it survive process restarts, which is what a
//! downstream user of this library actually wants in production.
//!
//! Semantics mirror an mmapped file: writes land in a volatile overlay
//! (the page cache), and [`PersistentDevice::persist`] flushes the covered
//! ranges to the file and `sync_data`s it (the `msync` of §3.3). Injected
//! crashes drop the overlay, exactly like losing the page cache on a power
//! failure; the file contents — everything persisted so far — remain.

use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::Arc;

use pccheck_util::sync::RwLock;

use pccheck_util::{Bandwidth, ByteSize, TokenBucket};

use crate::device::{DeviceConfig, DeviceStats, PersistentDevice};
use crate::error::DeviceError;
use crate::Result;

#[derive(Debug)]
struct FileState {
    /// The page-cache overlay: dirty ranges not yet flushed, coalesced.
    overlay: Vec<(u64, Vec<u8>)>,
    crashed: bool,
}

/// A device persisting to a real file.
///
/// # Examples
///
/// ```
/// use pccheck_device::{DeviceConfig, FileDevice, PersistentDevice};
/// use pccheck_util::ByteSize;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let dir = std::env::temp_dir().join("pccheck-filedevice-doc");
/// std::fs::create_dir_all(&dir)?;
/// let path = dir.join("store.img");
/// {
///     let dev = FileDevice::create(&path, DeviceConfig::fast_for_tests(ByteSize::from_kb(4)))?;
///     dev.write_at(0, b"survives the process")?;
///     dev.persist(0, 20)?;
/// }
/// // A new process (here: a new handle) sees the persisted bytes.
/// let dev = FileDevice::open(&path, DeviceConfig::fast_for_tests(ByteSize::from_kb(4)))?;
/// let mut buf = [0u8; 20];
/// dev.read_at(0, &mut buf)?;
/// assert_eq!(&buf, b"survives the process");
/// # std::fs::remove_dir_all(&dir).ok();
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct FileDevice {
    config: DeviceConfig,
    file: File,
    state: RwLock<FileState>,
    bucket: Arc<TokenBucket>,
    stats: DeviceStats,
}

impl FileDevice {
    /// Creates (or truncates) the backing file at `path`, sized to the
    /// configured capacity.
    ///
    /// # Errors
    ///
    /// Returns the [`std::io::Error`] of a failed filesystem call (creating,
    /// truncating or sizing the file).
    pub fn create<P: AsRef<Path>>(path: P, config: DeviceConfig) -> std::io::Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        file.set_len(config.capacity.as_u64())?;
        Ok(Self::from_file(file, config))
    }

    /// Opens an existing backing file (the recovery path after a restart).
    ///
    /// # Errors
    ///
    /// Returns filesystem errors; fails if the file is smaller than the
    /// configured capacity.
    pub fn open<P: AsRef<Path>>(path: P, config: DeviceConfig) -> std::io::Result<Self> {
        let file = OpenOptions::new().read(true).write(true).open(&path)?;
        let len = file.metadata()?.len();
        if len < config.capacity.as_u64() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("file holds {len} bytes < capacity {}", config.capacity),
            ));
        }
        Ok(Self::from_file(file, config))
    }

    fn from_file(file: File, config: DeviceConfig) -> Self {
        let bucket = Arc::new(TokenBucket::new(config.write_bandwidth));
        FileDevice {
            file,
            state: RwLock::new(FileState {
                overlay: Vec::new(),
                crashed: false,
            }),
            bucket,
            stats: DeviceStats::default(),
            config,
        }
    }

    fn check_bounds(&self, offset: u64, len: u64) -> Result<()> {
        if offset
            .checked_add(len)
            .is_none_or(|end| end > self.config.capacity.as_u64())
        {
            return Err(DeviceError::OutOfBounds {
                offset,
                len,
                capacity: self.config.capacity.as_u64(),
            });
        }
        Ok(())
    }

    /// Applies overlay entries overlapping `[offset, offset+buf.len())` on
    /// top of file contents already read into `buf`.
    fn apply_overlay(overlay: &[(u64, Vec<u8>)], offset: u64, buf: &mut [u8]) {
        let end = offset + buf.len() as u64;
        for (o_start, data) in overlay {
            let o_end = o_start + data.len() as u64;
            let lo = offset.max(*o_start);
            let hi = end.min(o_end);
            if lo < hi {
                let src = &data[(lo - o_start) as usize..(hi - o_start) as usize];
                buf[(lo - offset) as usize..(hi - offset) as usize].copy_from_slice(src);
            }
        }
    }
}

impl PersistentDevice for FileDevice {
    fn capacity(&self) -> ByteSize {
        self.config.capacity
    }

    fn bandwidth(&self) -> Bandwidth {
        self.config.write_bandwidth
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        let _ticket = self.submit();
        self.check_bounds(offset, data.len() as u64)?;
        if self.config.throttled {
            self.bucket.acquire(ByteSize::from_bytes(data.len() as u64));
        }
        let mut state = self.state.write();
        if state.crashed {
            return Err(DeviceError::Crashed);
        }
        state.overlay.push((offset, data.to_vec()));
        self.stats.record_write(data.len() as u64);
        Ok(())
    }

    fn persist(&self, offset: u64, len: u64) -> Result<()> {
        let _ticket = self.submit();
        self.check_bounds(offset, len)?;
        let mut state = self.state.write();
        if state.crashed {
            return Err(DeviceError::Crashed);
        }
        // Flush every overlay entry overlapping the range to the file, in
        // write order, then trim flushed entries. Partially overlapping
        // entries are flushed whole (msync works at page granularity; being
        // more durable than asked is always safe).
        let end = offset + len;
        let mut remaining = Vec::with_capacity(state.overlay.len());
        for (o_start, data) in state.overlay.drain(..) {
            let o_end = o_start + data.len() as u64;
            if o_start < end && offset < o_end {
                self.file
                    .write_all_at(&data, o_start)
                    .expect("backing file write");
            } else {
                remaining.push((o_start, data));
            }
        }
        state.overlay = remaining;
        self.file.sync_data().expect("backing file sync");
        self.stats.record_persist(len);
        Ok(())
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.check_bounds(offset, buf.len() as u64)?;
        let state = self.state.read();
        if state.crashed {
            return Err(DeviceError::Crashed);
        }
        self.file
            .read_exact_at(buf, offset)
            .expect("backing file read");
        Self::apply_overlay(&state.overlay, offset, buf);
        Ok(())
    }

    fn read_durable_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.check_bounds(offset, buf.len() as u64)?;
        self.file
            .read_exact_at(buf, offset)
            .expect("backing file read");
        Ok(())
    }

    fn crash_now(&self) {
        let mut state = self.state.write();
        if !state.crashed {
            state.crashed = true;
            state.overlay.clear(); // the page cache is gone
        }
    }

    fn recover(&self) {
        let mut state = self.state.write();
        state.crashed = false;
        state.overlay.clear();
    }

    fn stats(&self) -> &DeviceStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pccheck-filedev-{name}"));
        std::fs::create_dir_all(&dir).expect("mk tmpdir");
        dir
    }

    fn fast(cap: u64) -> DeviceConfig {
        DeviceConfig::fast_for_tests(ByteSize::from_bytes(cap))
    }

    #[test]
    fn write_persist_read_cycle() {
        let dir = tmpdir("cycle");
        let dev = FileDevice::create(dir.join("d.img"), fast(1024)).expect("create");
        dev.write_at(10, b"hello").expect("write");
        let mut buf = [0u8; 5];
        dev.read_at(10, &mut buf).expect("read");
        assert_eq!(&buf, b"hello", "volatile read sees overlay");
        dev.read_durable_at(10, &mut buf).expect("read durable");
        assert_eq!(&buf, &[0; 5], "not yet durable");
        dev.persist(10, 5).expect("persist");
        dev.read_durable_at(10, &mut buf).expect("read durable");
        assert_eq!(&buf, b"hello");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_drops_overlay_keeps_file() {
        let dir = tmpdir("crash");
        let dev = FileDevice::create(dir.join("d.img"), fast(256)).expect("create");
        dev.write_at(0, b"durable").expect("write");
        dev.persist(0, 7).expect("persist");
        dev.write_at(100, b"volatile").expect("write");
        dev.crash_now();
        assert!(matches!(dev.write_at(0, b"x"), Err(DeviceError::Crashed)));
        dev.recover();
        let mut a = [0u8; 7];
        dev.read_at(0, &mut a).expect("read");
        assert_eq!(&a, b"durable");
        let mut b = [0u8; 8];
        dev.read_at(100, &mut b).expect("read");
        assert_eq!(&b, &[0; 8]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn contents_survive_reopen() {
        let dir = tmpdir("reopen");
        let path = dir.join("d.img");
        {
            let dev = FileDevice::create(&path, fast(128)).expect("create");
            dev.write_at(0, b"generation-1").expect("write");
            dev.persist(0, 12).expect("persist");
        }
        let dev = FileDevice::open(&path, fast(128)).expect("open");
        let mut buf = [0u8; 12];
        dev.read_at(0, &mut buf).expect("read");
        assert_eq!(&buf, b"generation-1");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_rejects_short_file() {
        let dir = tmpdir("short");
        let path = dir.join("d.img");
        FileDevice::create(&path, fast(64)).expect("create");
        assert!(FileDevice::open(&path, fast(128)).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn overlapping_writes_latest_wins() {
        let dir = tmpdir("overlap");
        let dev = FileDevice::create(dir.join("d.img"), fast(64)).expect("create");
        dev.write_at(0, b"aaaa").expect("write");
        dev.write_at(2, b"bb").expect("write");
        let mut buf = [0u8; 4];
        dev.read_at(0, &mut buf).expect("read");
        assert_eq!(&buf, b"aabb");
        dev.persist(0, 4).expect("persist");
        dev.read_durable_at(0, &mut buf).expect("read durable");
        assert_eq!(&buf, b"aabb", "flush preserves write order");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn partial_persist_only_flushes_overlapping_entries() {
        let dir = tmpdir("partial");
        let dev = FileDevice::create(dir.join("d.img"), fast(256)).expect("create");
        dev.write_at(0, b"left").expect("write");
        dev.write_at(200, b"right").expect("write");
        dev.persist(0, 4).expect("persist");
        let mut l = [0u8; 4];
        dev.read_durable_at(0, &mut l).expect("read");
        assert_eq!(&l, b"left");
        let mut r = [0u8; 5];
        dev.read_durable_at(200, &mut r).expect("read");
        assert_eq!(&r, &[0; 5], "unrelated entry not flushed");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn out_of_bounds_rejected() {
        let dir = tmpdir("oob");
        let dev = FileDevice::create(dir.join("d.img"), fast(16)).expect("create");
        assert!(matches!(
            dev.write_at(10, &[0; 10]),
            Err(DeviceError::OutOfBounds { .. })
        ));
        assert!(dev.persist(10, 10).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
