//! Composite persistent devices: RAID-0-style striping and tiering.
//!
//! The paper's testbeds persist to a single pd-ssd volume or a single
//! Optane DIMM, which caps the persist phase at one device's bandwidth.
//! These composites open the multi-device axis while preserving the exact
//! persistence semantics the commit protocol depends on, because every
//! operation is delegated range-by-range to member devices that already
//! model them faithfully:
//!
//! * [`StripedDevice`] interleaves fixed-size stripes across `N` members
//!   (RAID-0). Chunked checkpoint writes fan out over the members' token
//!   buckets, so aggregate write/persist bandwidth scales with `N` — the
//!   `ext_striping` experiment measures exactly this, and `ext_restore`
//!   the same fan-out on the read side.
//! * [`TieredDevice`] places the first `tier.capacity()` bytes on a hot
//!   tier (typically PMEM) and spills the rest to a backing device
//!   (typically SSD). Store headers, `CHECK_ADDR`, and hot slots get
//!   fence-grade latency while bulk payload bytes ride the cheaper media.
//!
//! Both composites apply *queue-depth-aware backpressure*: each member has
//! a bounded submission gate, and an I/O that would push a member's queue
//! past the configured depth blocks until earlier submissions complete.
//! Durable reads ([`PersistentDevice::read_durable_at`]) are delegated even
//! while crashed, so `RawStoreView`, the forensic auditor, and recovery all
//! work unchanged on a striped or tiered store.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use pccheck_util::sync::{Condvar, Mutex, RwLock};

use pccheck_util::{Bandwidth, ByteSize};

use crate::device::{DeviceStats, DeviceStatsReport, PersistentDevice};
use crate::error::DeviceError;
use crate::observer::{IoObserver, MemberIoOp};
use crate::Result;

/// Default per-member submission-queue bound for composites.
pub(crate) const DEFAULT_MEMBER_QUEUE_DEPTH: u64 = 16;

/// A bounded submission gate: at most `limit` in-flight operations per
/// member; excess submitters block until a slot frees.
#[derive(Debug, Default)]
struct MemberGate {
    depth: Mutex<u64>,
    freed: Condvar,
}

impl MemberGate {
    fn enter(&self, limit: u64) {
        let mut depth = self.depth.lock();
        while *depth >= limit {
            depth = self.freed.wait(depth);
        }
        *depth += 1;
    }

    fn exit(&self) {
        let mut depth = self.depth.lock();
        *depth -= 1;
        drop(depth);
        self.freed.notify_all();
    }

    fn run<R>(&self, limit: u64, op: impl FnOnce() -> R) -> R {
        self.enter(limit);
        let result = op();
        self.exit();
        result
    }
}

/// One contiguous piece of a logical range on a single member device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Extent {
    member: usize,
    member_offset: u64,
    /// Offset into the caller's buffer / logical range.
    buf_offset: usize,
    len: u64,
}

/// RAID-0-style striping over `N` member devices.
///
/// Logical stripe `s` (of `stripe_size` bytes) lives on member `s % N` at
/// member-local stripe index `s / N`. Writes and persists that span stripe
/// boundaries fan out to every member they touch, which is what lets `p`
/// checkpoint writer threads drive `N` token buckets concurrently.
///
/// Crash injection is controller-level: [`crash_now`](PersistentDevice::crash_now)
/// (or the persist fuse armed via
/// [`arm_crash_after_persists`](Self::arm_crash_after_persists)) freezes
/// *all* members at once, modeling a power failure of the whole array.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use pccheck_device::{DeviceConfig, PersistentDevice, SsdDevice, StripedDevice};
/// use pccheck_util::ByteSize;
///
/// # fn main() -> Result<(), pccheck_device::DeviceError> {
/// let members: Vec<Arc<dyn PersistentDevice>> = (0..2)
///     .map(|_| {
///         Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(
///             ByteSize::from_kb(64),
///         ))) as Arc<dyn PersistentDevice>
///     })
///     .collect();
/// let array = StripedDevice::new(members, ByteSize::from_kb(4));
/// array.write_at(0, &[7u8; 12288])?; // spans both members
/// array.persist(0, 12288)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct StripedDevice {
    members: Vec<Arc<dyn PersistentDevice>>,
    gates: Vec<MemberGate>,
    stripe: u64,
    /// Usable capacity per member, truncated to whole stripes.
    per_member: u64,
    queue_limit: u64,
    stats: DeviceStats,
    crashed: AtomicBool,
    /// Controller-level persist-crash fuse, mirroring
    /// [`SsdDevice::arm_crash_after_persists`](crate::SsdDevice::arm_crash_after_persists):
    /// `-1` disarmed; `n >= 0` means `n` more persists succeed and the next
    /// one powers the whole array off before its range lands anywhere.
    armed_persists: Mutex<i64>,
    /// Optional per-member I/O observer (telemetry actor lanes).
    observer: RwLock<Option<Arc<dyn IoObserver>>>,
    /// `stripe-{i}` per member: the observer's and the stats report's
    /// names, built once rather than per leg.
    labels: Vec<String>,
}

impl StripedDevice {
    /// Creates a stripe set over `members` with the given stripe size.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty, `stripe` is zero, or any member is
    /// smaller than one stripe.
    pub fn new(members: Vec<Arc<dyn PersistentDevice>>, stripe: ByteSize) -> Self {
        assert!(!members.is_empty(), "stripe set needs at least one member");
        let stripe = stripe.as_u64();
        assert!(stripe > 0, "stripe size must be positive");
        let min_cap = members
            .iter()
            .map(|m| m.capacity().as_u64())
            .min()
            .expect("non-empty");
        let per_member = (min_cap / stripe) * stripe;
        assert!(
            per_member > 0,
            "every member must hold at least one {stripe}-byte stripe"
        );
        let gates = members.iter().map(|_| MemberGate::default()).collect();
        let labels = (0..members.len()).map(|i| format!("stripe-{i}")).collect();
        StripedDevice {
            gates,
            stripe,
            per_member,
            queue_limit: DEFAULT_MEMBER_QUEUE_DEPTH,
            stats: DeviceStats::default(),
            crashed: AtomicBool::new(false),
            armed_persists: Mutex::new(-1),
            observer: RwLock::new(None),
            labels,
            members,
        }
    }

    /// Overrides the per-member submission-queue bound (backpressure).
    ///
    /// # Panics
    ///
    /// Panics if `limit` is zero.
    #[cfg(test)]
    fn with_queue_limit(mut self, limit: u64) -> Self {
        assert!(limit > 0, "queue limit must be positive");
        self.queue_limit = limit;
        self
    }

    /// Arms a controller-level crash fuse: the next `n` persists succeed
    /// and the one after powers off the whole array before its range
    /// becomes durable on any member. The fuse disarms itself after firing.
    pub fn arm_crash_after_persists(&self, n: u64) {
        *self.armed_persists.lock() = n as i64;
    }

    /// Registers an [`IoObserver`] that receives one callback per
    /// member-level operation, labeled `stripe-{i}` to match
    /// [`stats_report`](PersistentDevice::stats_report).
    pub fn set_io_observer(&self, observer: Arc<dyn IoObserver>) {
        *self.observer.write() = Some(observer);
    }

    /// Runs `io` on `ext`'s member through that member's submission gate
    /// and reports the leg to the observer when it succeeds.
    fn member_io(
        &self,
        ext: &Extent,
        op: MemberIoOp,
        io: impl FnOnce(&dyn PersistentDevice) -> Result<()>,
    ) -> Result<()> {
        self.gates[ext.member].run(self.queue_limit, || {
            let begin = Instant::now();
            let result = io(self.members[ext.member].as_ref());
            if result.is_ok() {
                if let Some(obs) = self.observer.read().as_ref() {
                    let dur_nanos = begin.elapsed().as_nanos() as u64;
                    obs.member_io(&self.labels[ext.member], op, ext.len, dur_nanos);
                }
            }
            result
        })
    }

    /// Returns `true` while the array is powered off.
    pub fn is_crashed(&self) -> bool {
        self.crashed.load(Ordering::Relaxed)
    }

    fn check_alive(&self) -> Result<()> {
        if self.is_crashed() {
            Err(DeviceError::Crashed)
        } else {
            Ok(())
        }
    }

    fn check_bounds(&self, offset: u64, len: u64) -> Result<()> {
        let capacity = self.capacity().as_u64();
        if offset.checked_add(len).is_none_or(|end| end > capacity) {
            return Err(DeviceError::OutOfBounds {
                offset,
                len,
                capacity,
            });
        }
        Ok(())
    }

    /// Splits the logical range into per-member extents, in logical order.
    fn extents(&self, offset: u64, len: u64) -> Vec<Extent> {
        let n = self.members.len() as u64;
        let mut out = Vec::new();
        let mut logical = offset;
        let end = offset + len;
        while logical < end {
            let stripe_idx = logical / self.stripe;
            let within = logical % self.stripe;
            let span = (self.stripe - within).min(end - logical);
            out.push(Extent {
                member: (stripe_idx % n) as usize,
                member_offset: (stripe_idx / n) * self.stripe + within,
                buf_offset: (logical - offset) as usize,
                len: span,
            });
            logical += span;
        }
        out
    }

    /// Powers off every member and the controller itself.
    fn power_off(&self) {
        if !self.crashed.swap(true, Ordering::Relaxed) {
            for member in &self.members {
                member.crash_now();
            }
        }
    }
}

impl PersistentDevice for StripedDevice {
    fn capacity(&self) -> ByteSize {
        ByteSize::from_bytes(self.per_member * self.members.len() as u64)
    }

    fn bandwidth(&self) -> Bandwidth {
        let sum = self
            .members
            .iter()
            .map(|m| m.bandwidth().as_bytes_per_sec())
            .sum();
        Bandwidth::from_bytes_per_sec(sum)
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        let _ticket = self.submit();
        self.check_bounds(offset, data.len() as u64)?;
        self.check_alive()?;
        for ext in self.extents(offset, data.len() as u64) {
            let chunk = &data[ext.buf_offset..ext.buf_offset + ext.len as usize];
            self.member_io(&ext, MemberIoOp::Write, |m| {
                m.write_at(ext.member_offset, chunk)
            })?;
        }
        self.stats.record_write(data.len() as u64);
        Ok(())
    }

    fn persist(&self, offset: u64, len: u64) -> Result<()> {
        let _ticket = self.submit();
        self.check_bounds(offset, len)?;
        self.check_alive()?;
        {
            let mut fuse = self.armed_persists.lock();
            if *fuse == 0 {
                *fuse = -1;
                drop(fuse);
                self.power_off();
                return Err(DeviceError::Crashed);
            } else if *fuse > 0 {
                *fuse -= 1;
            }
        }
        for ext in self.extents(offset, len) {
            let result = self.member_io(&ext, MemberIoOp::Persist, |m| {
                m.persist(ext.member_offset, ext.len)
            });
            if let Err(e) = result {
                // A member died mid-fan-out (e.g. its own fuse fired):
                // the rest of the array loses power with it.
                self.power_off();
                return Err(e);
            }
        }
        self.stats.record_persist(len);
        Ok(())
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.check_bounds(offset, buf.len() as u64)?;
        self.check_alive()?;
        for ext in self.extents(offset, buf.len() as u64) {
            let chunk = &mut buf[ext.buf_offset..ext.buf_offset + ext.len as usize];
            self.members[ext.member].read_at(ext.member_offset, chunk)?;
        }
        Ok(())
    }

    fn read_durable_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.check_bounds(offset, buf.len() as u64)?;
        // One pass in logical order on the caller's thread. Consecutive
        // stripes sit on different members, so each member's token bucket
        // refills while the others are read, and a read spanning N members
        // still draws on all N members' bandwidth.
        for ext in self.extents(offset, buf.len() as u64) {
            let chunk = &mut buf[ext.buf_offset..ext.buf_offset + ext.len as usize];
            self.member_io(&ext, MemberIoOp::Read, |m| {
                m.read_durable_at(ext.member_offset, chunk)
            })?;
        }
        self.stats.record_read(buf.len() as u64);
        Ok(())
    }

    fn crash_now(&self) {
        self.power_off();
    }

    fn recover(&self) {
        for member in &self.members {
            member.recover();
        }
        self.crashed.store(false, Ordering::Relaxed);
    }

    fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    fn queue_depths(&self) -> Vec<u64> {
        std::iter::once(self.stats.queue_depth())
            .chain(self.members.iter().map(|m| m.stats().queue_depth()))
            .collect()
    }

    fn stats_report(&self) -> Vec<DeviceStatsReport> {
        let mut out = vec![DeviceStatsReport::from_stats("device", &self.stats)];
        for (label, member) in self.labels.iter().zip(&self.members) {
            out.push(DeviceStatsReport::from_stats(
                label.as_str(),
                member.stats(),
            ));
        }
        out
    }
}

/// [`TieredDevice`]'s member names, hot tier first: the observer's and the
/// stats report's labels.
const TIER_LABELS: [&str; 2] = ["tier", "spill"];

/// A hot tier (typically PMEM) backed by a spill device (typically SSD).
///
/// Logical offsets `[0, tier.capacity())` live on the hot tier; everything
/// beyond spills to the backing device at `offset - tier.capacity()`.
/// Because the store places its header, `CHECK_ADDR`, and the first slots
/// at low offsets, the commit protocol's fences hit the fast media while
/// bulk payload bytes overflow to the cheap one.
///
/// Persist calls are split at the boundary and delegated, so a PMEM tier
/// keeps its per-thread fence semantics: only the calling thread's stores
/// are completed by the tier-side fence.
#[derive(Debug)]
pub struct TieredDevice {
    tier: Arc<dyn PersistentDevice>,
    spill: Arc<dyn PersistentDevice>,
    tier_cap: u64,
    gates: [MemberGate; 2],
    queue_limit: u64,
    stats: DeviceStats,
    crashed: AtomicBool,
    /// Optional per-member I/O observer (telemetry actor lanes).
    observer: RwLock<Option<Arc<dyn IoObserver>>>,
}

impl TieredDevice {
    /// Creates a tiered device from a hot tier and a spill device.
    pub fn new(tier: Arc<dyn PersistentDevice>, spill: Arc<dyn PersistentDevice>) -> Self {
        let tier_cap = tier.capacity().as_u64();
        TieredDevice {
            tier,
            spill,
            tier_cap,
            gates: [MemberGate::default(), MemberGate::default()],
            queue_limit: DEFAULT_MEMBER_QUEUE_DEPTH,
            stats: DeviceStats::default(),
            crashed: AtomicBool::new(false),
            observer: RwLock::new(None),
        }
    }

    /// Overrides the per-member submission-queue bound (backpressure).
    ///
    /// # Panics
    ///
    /// Panics if `limit` is zero.
    #[cfg(test)]
    fn with_queue_limit(mut self, limit: u64) -> Self {
        assert!(limit > 0, "queue limit must be positive");
        self.queue_limit = limit;
        self
    }

    /// Registers an [`IoObserver`] that receives one callback per
    /// member-level operation, labeled `tier` / `spill` to match
    /// [`stats_report`](PersistentDevice::stats_report).
    pub fn set_io_observer(&self, observer: Arc<dyn IoObserver>) {
        *self.observer.write() = Some(observer);
    }

    fn observe(&self, member: usize, op: MemberIoOp, bytes: u64, dur_nanos: u64) {
        if let Some(obs) = self.observer.read().as_ref() {
            obs.member_io(TIER_LABELS[member], op, bytes, dur_nanos);
        }
    }

    /// Returns `true` while the device is powered off.
    pub fn is_crashed(&self) -> bool {
        self.crashed.load(Ordering::Relaxed)
    }

    fn check_alive(&self) -> Result<()> {
        if self.is_crashed() {
            Err(DeviceError::Crashed)
        } else {
            Ok(())
        }
    }

    fn check_bounds(&self, offset: u64, len: u64) -> Result<()> {
        let capacity = self.capacity().as_u64();
        if offset.checked_add(len).is_none_or(|end| end > capacity) {
            return Err(DeviceError::OutOfBounds {
                offset,
                len,
                capacity,
            });
        }
        Ok(())
    }

    /// Splits `[offset, offset+len)` at the tier boundary:
    /// `(tier_part, spill_part)`, each `(member_offset, buf_offset, len)`.
    #[allow(clippy::type_complexity)]
    fn split(
        &self,
        offset: u64,
        len: u64,
    ) -> (Option<(u64, usize, u64)>, Option<(u64, usize, u64)>) {
        let end = offset + len;
        let tier_part = if offset < self.tier_cap {
            Some((offset, 0usize, end.min(self.tier_cap) - offset))
        } else {
            None
        };
        let spill_part = if end > self.tier_cap {
            let start = offset.max(self.tier_cap);
            Some((
                start - self.tier_cap,
                (start - offset) as usize,
                end - start,
            ))
        } else {
            None
        };
        (tier_part, spill_part)
    }

    fn power_off(&self) {
        if !self.crashed.swap(true, Ordering::Relaxed) {
            self.tier.crash_now();
            self.spill.crash_now();
        }
    }
}

impl PersistentDevice for TieredDevice {
    fn capacity(&self) -> ByteSize {
        ByteSize::from_bytes(self.tier_cap + self.spill.capacity().as_u64())
    }

    fn bandwidth(&self) -> Bandwidth {
        // The hot tier sets the pace for the latency-critical protocol
        // traffic; report it as the headline figure.
        self.tier.bandwidth()
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        let _ticket = self.submit();
        self.check_bounds(offset, data.len() as u64)?;
        self.check_alive()?;
        let (tier_part, spill_part) = self.split(offset, data.len() as u64);
        if let Some((off, buf_off, len)) = tier_part {
            let chunk = &data[buf_off..buf_off + len as usize];
            self.gates[0].run(self.queue_limit, || {
                let begin = Instant::now();
                let result = self.tier.write_at(off, chunk);
                if result.is_ok() {
                    self.observe(0, MemberIoOp::Write, len, begin.elapsed().as_nanos() as u64);
                }
                result
            })?;
        }
        if let Some((off, buf_off, len)) = spill_part {
            let chunk = &data[buf_off..buf_off + len as usize];
            self.gates[1].run(self.queue_limit, || {
                let begin = Instant::now();
                let result = self.spill.write_at(off, chunk);
                if result.is_ok() {
                    self.observe(1, MemberIoOp::Write, len, begin.elapsed().as_nanos() as u64);
                }
                result
            })?;
        }
        self.stats.record_write(data.len() as u64);
        Ok(())
    }

    fn persist(&self, offset: u64, len: u64) -> Result<()> {
        let _ticket = self.submit();
        self.check_bounds(offset, len)?;
        self.check_alive()?;
        let (tier_part, spill_part) = self.split(offset, len);
        if let Some((off, _, part_len)) = tier_part {
            if let Err(e) = self.gates[0].run(self.queue_limit, || {
                let begin = Instant::now();
                let result = self.tier.persist(off, part_len);
                if result.is_ok() {
                    self.observe(
                        0,
                        MemberIoOp::Persist,
                        part_len,
                        begin.elapsed().as_nanos() as u64,
                    );
                }
                result
            }) {
                self.power_off();
                return Err(e);
            }
        }
        if let Some((off, _, part_len)) = spill_part {
            if let Err(e) = self.gates[1].run(self.queue_limit, || {
                let begin = Instant::now();
                let result = self.spill.persist(off, part_len);
                if result.is_ok() {
                    self.observe(
                        1,
                        MemberIoOp::Persist,
                        part_len,
                        begin.elapsed().as_nanos() as u64,
                    );
                }
                result
            }) {
                self.power_off();
                return Err(e);
            }
        }
        self.stats.record_persist(len);
        Ok(())
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.check_bounds(offset, buf.len() as u64)?;
        self.check_alive()?;
        let (tier_part, spill_part) = self.split(offset, buf.len() as u64);
        if let Some((off, buf_off, len)) = tier_part {
            self.tier
                .read_at(off, &mut buf[buf_off..buf_off + len as usize])?;
        }
        if let Some((off, buf_off, len)) = spill_part {
            self.spill
                .read_at(off, &mut buf[buf_off..buf_off + len as usize])?;
        }
        Ok(())
    }

    fn read_durable_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.check_bounds(offset, buf.len() as u64)?;
        let total = buf.len() as u64;
        let (tier_part, spill_part) = self.split(offset, total);
        match (tier_part, spill_part) {
            // A boundary-straddling read drives both medias concurrently —
            // the tier and the spill device have independent bandwidth.
            (Some((t_off, _, t_len)), Some((s_off, s_buf_off, _))) => {
                let (tier_buf, spill_buf) = buf.split_at_mut(s_buf_off);
                debug_assert_eq!(tier_buf.len() as u64, t_len);
                std::thread::scope(|s| {
                    let spill_read = s.spawn(|| {
                        self.gates[1].run(self.queue_limit, || {
                            let begin = Instant::now();
                            let spill_len = spill_buf.len() as u64;
                            let result = self.spill.read_durable_at(s_off, spill_buf);
                            if result.is_ok() {
                                self.observe(
                                    1,
                                    MemberIoOp::Read,
                                    spill_len,
                                    begin.elapsed().as_nanos() as u64,
                                );
                            }
                            result
                        })
                    });
                    let tier_result = self.gates[0].run(self.queue_limit, || {
                        let begin = Instant::now();
                        let tier_len = tier_buf.len() as u64;
                        let result = self.tier.read_durable_at(t_off, tier_buf);
                        if result.is_ok() {
                            self.observe(
                                0,
                                MemberIoOp::Read,
                                tier_len,
                                begin.elapsed().as_nanos() as u64,
                            );
                        }
                        result
                    });
                    let spill_result = spill_read.join().expect("spill reader panicked");
                    tier_result.and(spill_result)
                })?;
            }
            (Some((off, buf_off, len)), None) => {
                self.gates[0].run(self.queue_limit, || {
                    let begin = Instant::now();
                    let result = self
                        .tier
                        .read_durable_at(off, &mut buf[buf_off..buf_off + len as usize]);
                    if result.is_ok() {
                        self.observe(0, MemberIoOp::Read, len, begin.elapsed().as_nanos() as u64);
                    }
                    result
                })?;
            }
            (None, Some((off, buf_off, len))) => {
                self.gates[1].run(self.queue_limit, || {
                    let begin = Instant::now();
                    let result = self
                        .spill
                        .read_durable_at(off, &mut buf[buf_off..buf_off + len as usize]);
                    if result.is_ok() {
                        self.observe(1, MemberIoOp::Read, len, begin.elapsed().as_nanos() as u64);
                    }
                    result
                })?;
            }
            (None, None) => {}
        }
        self.stats.record_read(total);
        Ok(())
    }

    fn crash_now(&self) {
        self.power_off();
    }

    fn recover(&self) {
        self.tier.recover();
        self.spill.recover();
        self.crashed.store(false, Ordering::Relaxed);
    }

    fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    fn queue_depths(&self) -> Vec<u64> {
        vec![
            self.stats.queue_depth(),
            self.tier.stats().queue_depth(),
            self.spill.stats().queue_depth(),
        ]
    }

    fn stats_report(&self) -> Vec<DeviceStatsReport> {
        vec![
            DeviceStatsReport::from_stats("device", &self.stats),
            DeviceStatsReport::from_stats(TIER_LABELS[0], self.tier.stats()),
            DeviceStatsReport::from_stats(TIER_LABELS[1], self.spill.stats()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceConfig;
    use crate::pmem::{PmemDevice, PmemWriteMode};
    use crate::ssd::SsdDevice;

    fn ssd(cap: u64) -> Arc<SsdDevice> {
        Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(
            ByteSize::from_bytes(cap),
        )))
    }

    fn stripe2(cap_each: u64, stripe: u64) -> (StripedDevice, Arc<SsdDevice>, Arc<SsdDevice>) {
        let a = ssd(cap_each);
        let b = ssd(cap_each);
        let array = StripedDevice::new(
            vec![
                a.clone() as Arc<dyn PersistentDevice>,
                b.clone() as Arc<dyn PersistentDevice>,
            ],
            ByteSize::from_bytes(stripe),
        );
        (array, a, b)
    }

    #[test]
    fn capacity_and_bandwidth_aggregate() {
        let (array, _, _) = stripe2(1000, 64);
        // 1000/64 = 15 whole stripes per member.
        assert_eq!(array.capacity().as_u64(), 2 * 15 * 64);
        let one = ssd(1000).bandwidth().as_bytes_per_sec();
        assert!((array.bandwidth().as_bytes_per_sec() - 2.0 * one).abs() < 1.0);
    }

    #[test]
    fn round_trip_across_stripe_boundaries() {
        let (array, _, _) = stripe2(4096, 64);
        let data: Vec<u8> = (0..300u32).map(|i| (i % 251) as u8).collect();
        array.write_at(10, &data).unwrap();
        let mut buf = vec![0u8; 300];
        array.read_at(10, &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn writes_interleave_over_both_members() {
        let (array, a, b) = stripe2(4096, 64);
        array.write_at(0, &[0xEE; 256]).unwrap(); // 4 stripes: 2 per member
        assert_eq!(a.stats().bytes_written().as_u64(), 128);
        assert_eq!(b.stats().bytes_written().as_u64(), 128);
    }

    #[test]
    fn geometry_maps_stripes_round_robin() {
        let (array, a, b) = stripe2(4096, 64);
        // Stripe 0 -> member 0 @0; stripe 1 -> member 1 @0;
        // stripe 2 -> member 0 @64; stripe 3 -> member 1 @64.
        array.write_at(0, &[1u8; 64]).unwrap();
        array.write_at(64, &[2u8; 64]).unwrap();
        array.write_at(128, &[3u8; 64]).unwrap();
        array.write_at(192, &[4u8; 64]).unwrap();
        let mut buf = [0u8; 64];
        a.read_at(0, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 1));
        b.read_at(0, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 2));
        a.read_at(64, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 3));
        b.read_at(64, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 4));
    }

    #[test]
    fn persist_fans_out_and_survives_crash() {
        let (array, _, _) = stripe2(4096, 64);
        array.write_at(32, &[0xAB; 200]).unwrap();
        array.persist(32, 200).unwrap();
        array.write_at(1000, &[0xCD; 50]).unwrap(); // never persisted
        array.crash_now();
        assert!(array.is_crashed());
        assert_eq!(array.write_at(0, &[1]), Err(DeviceError::Crashed));
        // Durable reads work while crashed (the recovery path).
        let mut buf = [0u8; 200];
        array.read_durable_at(32, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 0xAB));
        array.recover();
        let mut lost = [0u8; 50];
        array.read_at(1000, &mut lost).unwrap();
        assert!(lost.iter().all(|&x| x == 0), "unpersisted bytes are gone");
    }

    #[test]
    fn controller_fuse_crashes_before_the_range_lands() {
        let (array, _, _) = stripe2(4096, 64);
        array.write_at(0, &[0x11; 64]).unwrap();
        array.persist(0, 64).unwrap();
        array.arm_crash_after_persists(0);
        array.write_at(64, &[0x22; 64]).unwrap();
        assert_eq!(array.persist(64, 64), Err(DeviceError::Crashed));
        assert!(array.is_crashed());
        let mut buf = [0u8; 64];
        array.read_durable_at(0, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 0x11), "earlier persist survives");
        array.read_durable_at(64, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 0), "fatal persist never landed");
        // Fuse disarmed itself.
        array.recover();
        array.write_at(64, &[0x22; 64]).unwrap();
        array.persist(64, 64).unwrap();
    }

    #[test]
    fn queue_limit_bounds_member_depth() {
        let (array, a, b) = stripe2(64 * 1024, 64);
        let array = Arc::new(array.with_queue_limit(1));
        std::thread::scope(|s| {
            for w in 0..4u64 {
                let array = Arc::clone(&array);
                s.spawn(move || {
                    for i in 0..16u64 {
                        let off = (w * 16 + i) * 256;
                        array.write_at(off, &[w as u8; 256]).unwrap();
                        array.persist(off, 256).unwrap();
                    }
                });
            }
        });
        // The gate admits one composite-issued op per member at a time,
        // no matter how many writers hit the array concurrently.
        assert!(a.stats().peak_queue_depth() <= 1);
        assert!(b.stats().peak_queue_depth() <= 1);
        assert!(array.stats().peak_queue_depth() >= 1);
    }

    #[test]
    fn queue_depths_reports_members() {
        let (array, _, _) = stripe2(4096, 64);
        assert_eq!(array.queue_depths(), vec![0, 0, 0]);
        let report = array.stats_report();
        assert_eq!(report.len(), 3);
        assert_eq!(report[0].name, "device");
        assert_eq!(report[1].name, "stripe-0");
        assert_eq!(report[2].name, "stripe-1");
    }

    #[test]
    fn durable_reads_fan_out_across_members() {
        use std::time::Instant;
        // Throttled members at 20 MB/s each: a 4 MiB durable read spanning
        // both must run near the 2-way aggregate rate, not sequentially.
        let cfg = DeviceConfig {
            capacity: ByteSize::from_mb_u64(4),
            write_bandwidth: Bandwidth::from_mb_per_sec(20.0),
            throttled: true,
        };
        let a = Arc::new(SsdDevice::new(cfg.clone()));
        let b = Arc::new(SsdDevice::new(cfg));
        let array = StripedDevice::new(
            vec![
                a.clone() as Arc<dyn PersistentDevice>,
                b.clone() as Arc<dyn PersistentDevice>,
            ],
            ByteSize::from_kb(64),
        );
        let mut buf = vec![0u8; 4 * 1024 * 1024];
        let start = Instant::now();
        array.read_durable_at(0, &mut buf).unwrap();
        let secs = start.elapsed().as_secs_f64();
        // Sequential would take ~0.2 s (4 MiB at 20 MB/s per member).
        assert!(secs < 0.16, "2-way read did not overlap members: {secs}s");
        assert_eq!(a.stats().bytes_read().as_u64(), 2 * 1024 * 1024);
        assert_eq!(b.stats().bytes_read().as_u64(), 2 * 1024 * 1024);
        assert_eq!(array.stats().bytes_read().as_u64(), 4 * 1024 * 1024);
    }

    #[test]
    fn parallel_durable_read_matches_written_bytes_and_propagates_faults() {
        let (array, a, _) = stripe2(4096, 64);
        let data: Vec<u8> = (0..1024u32).map(|i| (i % 251) as u8).collect();
        array.write_at(32, &data).unwrap();
        array.persist(32, 1024).unwrap();
        let mut buf = vec![0u8; 1024];
        array.read_durable_at(32, &mut buf).unwrap();
        assert_eq!(buf, data, "fan-out read reassembles the logical range");
        // A media fault on one member surfaces through the composite.
        a.arm_read_fault_at(0, 64);
        assert!(matches!(
            array.read_durable_at(32, &mut buf),
            Err(DeviceError::ReadFault { .. })
        ));
    }

    #[test]
    fn out_of_bounds_uses_composite_capacity() {
        let (array, _, _) = stripe2(1024, 64);
        let cap = array.capacity().as_u64();
        assert!(matches!(
            array.write_at(cap - 4, &[0; 8]),
            Err(DeviceError::OutOfBounds { capacity, .. }) if capacity == cap
        ));
    }

    fn tiered(tier_cap: u64, spill_cap: u64) -> (TieredDevice, Arc<PmemDevice>, Arc<SsdDevice>) {
        let optane = DeviceConfig {
            capacity: ByteSize::from_bytes(tier_cap),
            write_bandwidth: Bandwidth::from_gb_per_sec(4.01),
            throttled: true,
        };
        let pmem = Arc::new(PmemDevice::new(optane, PmemWriteMode::NtStore));
        let spill = ssd(spill_cap);
        let dev = TieredDevice::new(
            pmem.clone() as Arc<dyn PersistentDevice>,
            spill.clone() as Arc<dyn PersistentDevice>,
        );
        (dev, pmem, spill)
    }

    #[test]
    fn tiered_splits_at_the_boundary() {
        let (dev, pmem, spill) = tiered(256, 4096);
        assert_eq!(dev.capacity().as_u64(), 256 + 4096);
        let data: Vec<u8> = (0..200u32).map(|i| i as u8).collect();
        dev.write_at(200, &data).unwrap(); // 56 bytes tier, 144 spill
        dev.persist(200, 200).unwrap();
        assert_eq!(pmem.stats().bytes_written().as_u64(), 56);
        assert_eq!(spill.stats().bytes_written().as_u64(), 144);
        let mut buf = vec![0u8; 200];
        dev.read_at(200, &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn tiered_persist_survives_crash_on_both_medias() {
        let (dev, _, _) = tiered(256, 4096);
        dev.write_at(200, &[0x5A; 200]).unwrap();
        dev.persist(200, 200).unwrap();
        dev.crash_now();
        assert!(dev.is_crashed());
        let mut buf = [0u8; 200];
        dev.read_durable_at(200, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 0x5A));
        dev.recover();
        let mut again = [0u8; 200];
        dev.read_at(200, &mut again).unwrap();
        assert!(again.iter().all(|&x| x == 0x5A));
    }

    #[test]
    fn tiered_stats_report_names_members() {
        let (dev, _, _) = tiered(256, 1024);
        let report = dev.stats_report();
        assert_eq!(report.len(), 3);
        assert_eq!(report[1].name, "tier");
        assert_eq!(report[2].name, "spill");
        assert_eq!(dev.queue_depths().len(), 3);
    }

    #[derive(Debug, Default)]
    struct CountingObserver {
        calls: Mutex<Vec<(String, MemberIoOp, u64)>>,
    }

    impl IoObserver for CountingObserver {
        fn member_io(&self, member: &str, op: MemberIoOp, bytes: u64, _dur_nanos: u64) {
            self.calls.lock().push((member.to_string(), op, bytes));
        }
    }

    #[test]
    fn striped_io_observer_sees_every_member_leg() {
        let (array, _, _) = stripe2(4096, 64);
        let obs = Arc::new(CountingObserver::default());
        array.set_io_observer(obs.clone());
        array.write_at(0, &[0xAA; 128]).unwrap(); // one stripe per member
        array.persist(0, 128).unwrap();
        let mut buf = [0u8; 128];
        array.read_durable_at(0, &mut buf).unwrap();

        let calls = obs.calls.lock();
        let writes: Vec<_> = calls.iter().filter(|c| c.1 == MemberIoOp::Write).collect();
        assert_eq!(writes.len(), 2);
        assert!(writes.iter().any(|c| c.0 == "stripe-0" && c.2 == 64));
        assert!(writes.iter().any(|c| c.0 == "stripe-1" && c.2 == 64));
        assert_eq!(
            calls.iter().filter(|c| c.1 == MemberIoOp::Persist).count(),
            2
        );
        let read_bytes: u64 = calls
            .iter()
            .filter(|c| c.1 == MemberIoOp::Read)
            .map(|c| c.2)
            .sum();
        assert_eq!(read_bytes, 128, "fan-out read reports every member leg");
    }

    #[test]
    fn striped_durable_read_walks_members_in_logical_order() {
        let (array, _, _) = stripe2(4096, 64);
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        array.write_at(40, &data).unwrap();
        array.persist(40, 1000).unwrap();
        let obs = Arc::new(CountingObserver::default());
        array.set_io_observer(obs.clone());
        let mut buf = vec![0u8; 1000];
        array.read_durable_at(40, &mut buf).unwrap();
        assert_eq!(buf, data);

        // [40, 1040) covers stripes 0..=16: a 24-byte head, fifteen whole
        // stripes and a 16-byte tail, alternating members from member 0.
        let calls = obs.calls.lock();
        let legs: Vec<(String, u64)> = calls.iter().map(|c| (c.0.clone(), c.2)).collect();
        let expected: Vec<(String, u64)> = (0..17u64)
            .map(|s| {
                let len = match s {
                    0 => 24,
                    16 => 16,
                    _ => 64,
                };
                (format!("stripe-{}", s % 2), len)
            })
            .collect();
        assert_eq!(legs, expected);
        assert!(calls.iter().all(|c| c.1 == MemberIoOp::Read));
    }

    #[test]
    fn tiered_io_observer_labels_tier_and_spill() {
        let (dev, _, _) = tiered(256, 4096);
        let obs = Arc::new(CountingObserver::default());
        dev.set_io_observer(obs.clone());
        dev.write_at(200, &[1u8; 112]).unwrap(); // 56 bytes tier, 56 spill
        dev.persist(200, 112).unwrap();
        let mut buf = [0u8; 112];
        dev.read_durable_at(200, &mut buf).unwrap();

        let calls = obs.calls.lock();
        assert!(calls
            .iter()
            .any(|c| c.0 == "tier" && c.1 == MemberIoOp::Write && c.2 == 56));
        assert!(calls
            .iter()
            .any(|c| c.0 == "spill" && c.1 == MemberIoOp::Write && c.2 == 56));
        assert!(calls
            .iter()
            .any(|c| c.0 == "tier" && c.1 == MemberIoOp::Persist));
        assert!(calls
            .iter()
            .any(|c| c.0 == "spill" && c.1 == MemberIoOp::Read));
    }

    #[test]
    fn tiered_racing_writers_spill_deterministically() {
        // 4 KiB hot tier, 256-byte aligned writes: the spill boundary sits
        // on a write boundary, so no matter how the 4 writers interleave,
        // exactly the first 16 writes' offsets land on the tier and the
        // other 48 spill — the split depends only on offsets, never timing.
        let (dev, pmem, spill) = tiered(4096, 64 * 1024);
        let dev = Arc::new(dev.with_queue_limit(1));
        std::thread::scope(|s| {
            for w in 0..4u64 {
                let dev = Arc::clone(&dev);
                s.spawn(move || {
                    for i in 0..16u64 {
                        let off = (w * 16 + i) * 256;
                        dev.write_at(off, &[w as u8 + 1; 256]).unwrap();
                        dev.persist(off, 256).unwrap();
                    }
                });
            }
        });

        assert_eq!(pmem.stats().bytes_written().as_u64(), 4096);
        assert_eq!(spill.stats().bytes_written().as_u64(), 12 * 1024);
        // The queue gate admits one composite-issued op per member at a
        // time even with four writers racing.
        assert!(pmem.stats().peak_queue_depth() <= 1);
        assert!(spill.stats().peak_queue_depth() <= 1);

        // The composite's own totals are exactly the sum of its members'.
        let report = dev.stats_report();
        assert_eq!(report[0].name, "device");
        assert_eq!(
            report[0].bytes_written,
            report[1].bytes_written + report[2].bytes_written
        );
        assert_eq!(
            report[0].bytes_persisted,
            report[1].bytes_persisted + report[2].bytes_persisted
        );
        assert_eq!(report[0].bytes_written, 16 * 1024);

        // Every writer's lane reads back intact across the tier boundary.
        for w in 0..4u64 {
            let mut buf = [0u8; 256];
            dev.read_at(w * 16 * 256, &mut buf).unwrap();
            assert!(buf.iter().all(|&x| x == w as u8 + 1));
        }
    }
}
