//! Byte-size and bandwidth newtypes.
//!
//! The paper reasons in GB checkpoints and GB/s device bandwidths; these
//! newtypes keep the arithmetic exact (u64 bytes, f64 only at the edges) and
//! prevent unit confusion between "bytes", "bytes per second" and "seconds".

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use crate::time::SimDuration;

/// An exact byte count.
///
/// # Examples
///
/// ```
/// use pccheck_util::ByteSize;
/// let m = ByteSize::from_gb(1.1); // VGG16 checkpoint (Table 3)
/// assert_eq!(m.as_u64(), 1_181_116_006);
/// assert_eq!(format!("{m}"), "1.10 GB");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ByteSize(u64);

/// Number of bytes in one binary kilobyte.
pub const KIB: u64 = 1024;
/// Number of bytes in one binary megabyte.
pub const MIB: u64 = 1024 * KIB;
/// Number of bytes in one binary gigabyte.
pub const GIB: u64 = 1024 * MIB;

impl ByteSize {
    /// Zero bytes.
    pub const ZERO: ByteSize = ByteSize(0);

    /// Creates a size from an exact number of bytes.
    pub const fn from_bytes(bytes: u64) -> Self {
        ByteSize(bytes)
    }

    /// Creates a size from binary kilobytes.
    pub const fn from_kb(kb: u64) -> Self {
        ByteSize(kb * KIB)
    }

    /// Creates a size from binary megabytes.
    pub const fn from_mb_u64(mb: u64) -> Self {
        ByteSize(mb * MIB)
    }

    /// Creates a size from (possibly fractional) binary gigabytes.
    ///
    /// # Panics
    ///
    /// Panics if `gb` is negative or not finite.
    pub fn from_gb(gb: f64) -> Self {
        assert!(gb.is_finite() && gb >= 0.0, "invalid gigabyte count {gb}");
        ByteSize((gb * GIB as f64).round() as u64)
    }

    /// Returns the exact byte count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the byte count as `usize`.
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit in `usize` (not possible on 64-bit
    /// targets).
    pub fn as_usize(self) -> usize {
        usize::try_from(self.0).expect("byte count exceeds usize")
    }

    /// Returns the size in fractional binary megabytes.
    pub fn as_mb(self) -> f64 {
        self.0 as f64 / MIB as f64
    }

    /// Returns the size in fractional binary gigabytes.
    pub fn as_gb(self) -> f64 {
        self.0 as f64 / GIB as f64
    }

    /// Returns `true` if this is zero bytes.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Splits this size into `n` shards whose sizes differ by at most one
    /// byte and sum exactly to `self`.
    ///
    /// Used to partition a checkpoint across parallel writer threads.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    ///
    /// # Examples
    ///
    /// ```
    /// use pccheck_util::ByteSize;
    /// let shards = ByteSize::from_bytes(10).split_even(3);
    /// assert_eq!(shards.iter().map(|s| s.as_u64()).sum::<u64>(), 10);
    /// assert_eq!(shards.len(), 3);
    /// ```
    pub fn split_even(self, n: usize) -> Vec<ByteSize> {
        assert!(n > 0, "cannot split into zero shards");
        let n64 = n as u64;
        let base = self.0 / n64;
        let rem = (self.0 % n64) as usize;
        (0..n)
            .map(|i| ByteSize(base + u64::from(i < rem)))
            .collect()
    }
}

impl Add for ByteSize {
    type Output = ByteSize;
    fn add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 + rhs.0)
    }
}

impl AddAssign for ByteSize {
    fn add_assign(&mut self, rhs: ByteSize) {
        self.0 += rhs.0;
    }
}

impl Sub for ByteSize {
    type Output = ByteSize;
    fn sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 - rhs.0)
    }
}

impl SubAssign for ByteSize {
    fn sub_assign(&mut self, rhs: ByteSize) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for ByteSize {
    type Output = ByteSize;
    fn mul(self, rhs: u64) -> ByteSize {
        ByteSize(self.0 * rhs)
    }
}

impl Div<u64> for ByteSize {
    type Output = ByteSize;
    fn div(self, rhs: u64) -> ByteSize {
        ByteSize(self.0 / rhs)
    }
}

impl Sum for ByteSize {
    fn sum<I: Iterator<Item = ByteSize>>(iter: I) -> ByteSize {
        iter.fold(ByteSize::ZERO, Add::add)
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        if b >= GIB {
            write!(f, "{:.2} GB", self.as_gb())
        } else if b >= MIB {
            write!(f, "{:.2} MB", self.as_mb())
        } else if b >= KIB {
            write!(f, "{:.2} KB", b as f64 / KIB as f64)
        } else {
            write!(f, "{b} B")
        }
    }
}

/// A data rate in bytes per second.
///
/// # Examples
///
/// ```
/// use pccheck_util::{Bandwidth, ByteSize};
/// // §3.3: non-temporal stores to PMEM reach 4.01 GB/s.
/// let nt = Bandwidth::from_gb_per_sec(4.01);
/// let t = nt.transfer_time(ByteSize::from_gb(4.0));
/// assert!((t.as_secs_f64() - 4.0 / 4.01).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// Creates a bandwidth from bytes per second.
    ///
    /// # Panics
    ///
    /// Panics if `bps` is not finite or not strictly positive.
    pub fn from_bytes_per_sec(bps: f64) -> Self {
        assert!(bps.is_finite() && bps > 0.0, "invalid bandwidth {bps}");
        Bandwidth(bps)
    }

    /// Creates a bandwidth from binary megabytes per second.
    pub fn from_mb_per_sec(mbps: f64) -> Self {
        Self::from_bytes_per_sec(mbps * MIB as f64)
    }

    /// Creates a bandwidth from binary gigabytes per second.
    pub fn from_gb_per_sec(gbps: f64) -> Self {
        Self::from_bytes_per_sec(gbps * GIB as f64)
    }

    /// Creates a bandwidth from gigabits per second (network convention).
    ///
    /// # Examples
    ///
    /// ```
    /// use pccheck_util::Bandwidth;
    /// // §5.2.1: the measured inter-VM network bandwidth was 15 Gbps.
    /// let net = Bandwidth::from_gbit_per_sec(15.0);
    /// assert!((net.as_gb_per_sec() - 15.0 / 8.0 * 1e9 / (1u64 << 30) as f64).abs() < 1e-6);
    /// ```
    pub fn from_gbit_per_sec(gbitps: f64) -> Self {
        Self::from_bytes_per_sec(gbitps * 1e9 / 8.0)
    }

    /// Returns the rate in bytes per second.
    pub const fn as_bytes_per_sec(self) -> f64 {
        self.0
    }

    /// Returns the rate in binary gigabytes per second.
    pub fn as_gb_per_sec(self) -> f64 {
        self.0 / GIB as f64
    }

    /// Time to transfer `size` at this rate.
    pub fn transfer_time(self, size: ByteSize) -> SimDuration {
        SimDuration::from_secs_f64(size.as_u64() as f64 / self.0)
    }

    /// This bandwidth divided evenly among `n` concurrent streams
    /// (processor-sharing model).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn shared_by(self, n: usize) -> Bandwidth {
        assert!(n > 0, "cannot share bandwidth among zero streams");
        Bandwidth(self.0 / n as f64)
    }

    /// Scales this bandwidth by `factor`.
    ///
    /// # Panics
    ///
    /// Panics if the result would be non-positive or non-finite.
    pub fn scaled(self, factor: f64) -> Bandwidth {
        Self::from_bytes_per_sec(self.0 * factor)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} GB/s", self.as_gb_per_sec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_size_constructors_round_trip() {
        assert_eq!(ByteSize::from_kb(2).as_u64(), 2048);
        assert_eq!(ByteSize::from_mb_u64(3).as_u64(), 3 * MIB);
        assert_eq!(ByteSize::from_gb(1.0).as_u64(), GIB);
        assert!((ByteSize::from_gb(108.0).as_gb() - 108.0).abs() < 1e-9);
    }

    #[test]
    fn byte_size_display_picks_unit() {
        assert_eq!(format!("{}", ByteSize::from_bytes(12)), "12 B");
        assert_eq!(format!("{}", ByteSize::from_kb(4)), "4.00 KB");
        assert_eq!(format!("{}", ByteSize::from_mb_u64(100)), "100.00 MB");
        assert_eq!(format!("{}", ByteSize::from_gb(16.2)), "16.20 GB");
    }

    #[test]
    fn byte_size_arithmetic() {
        let a = ByteSize::from_bytes(100);
        let b = ByteSize::from_bytes(40);
        assert_eq!((a + b).as_u64(), 140);
        assert_eq!((a - b).as_u64(), 60);
        assert_eq!((a * 3).as_u64(), 300);
        assert_eq!((a / 3).as_u64(), 33);
        let total: ByteSize = vec![a, b, b].into_iter().sum();
        assert_eq!(total.as_u64(), 180);
    }

    #[test]
    fn split_even_covers_all_bytes() {
        for total in [0u64, 1, 7, 100, 1023, 1024, 1 << 20] {
            for n in 1..=9usize {
                let shards = ByteSize::from_bytes(total).split_even(n);
                assert_eq!(shards.len(), n);
                assert_eq!(shards.iter().map(|s| s.as_u64()).sum::<u64>(), total);
                let max = shards.iter().map(|s| s.as_u64()).max().unwrap();
                let min = shards.iter().map(|s| s.as_u64()).min().unwrap();
                assert!(max - min <= 1, "shards must be balanced");
            }
        }
    }

    #[test]
    fn bandwidth_transfer_time_matches_paper_example() {
        // §1: a 16 GB OPT-1.3B checkpoint takes ~37 s on the pd-ssd.
        let ssd = Bandwidth::from_gb_per_sec(16.0 / 37.0);
        let t = ssd.transfer_time(ByteSize::from_gb(16.0));
        assert!((t.as_secs_f64() - 37.0).abs() < 1e-6);
    }

    #[test]
    fn bandwidth_sharing_and_scaling() {
        let bw = Bandwidth::from_gb_per_sec(4.0);
        assert!((bw.shared_by(4).as_gb_per_sec() - 1.0).abs() < 1e-12);
        assert!((bw.scaled(0.5).as_gb_per_sec() - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "invalid bandwidth")]
    fn zero_bandwidth_rejected() {
        Bandwidth::from_bytes_per_sec(0.0);
    }
}
