//! Virtual time for the discrete-event simulator.
//!
//! [`SimTime`] is an absolute instant on the simulated clock; [`SimDuration`]
//! is a span between instants. Both are nanosecond-resolution `u64`s, which
//! gives ~584 years of simulated range — far beyond the 16-hour preemption
//! traces the experiments replay.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A span of simulated time (nanosecond resolution).
///
/// # Examples
///
/// ```
/// use pccheck_util::SimDuration;
/// let iter_time = SimDuration::from_millis(60); // VGG16 iteration (§5.2.3)
/// assert_eq!((iter_time * 100).as_secs_f64(), 6.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// Largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a duration from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a duration from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Creates a duration from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, NaN, or too large to represent.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid duration {secs}");
        let ns = secs * 1e9;
        assert!(ns <= u64::MAX as f64, "duration overflow: {secs} s");
        SimDuration(ns.round() as u64)
    }

    /// Returns the duration in whole nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the duration in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns the duration in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns `true` if this duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub const fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition.
    pub fn checked_add(self, rhs: SimDuration) -> Option<SimDuration> {
        self.0.checked_add(rhs.0).map(SimDuration)
    }

    /// The minimum of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    /// The maximum of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// Multiplies by a non-negative float factor, rounding to nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "invalid factor {factor}"
        );
        SimDuration((self.0 as f64 * factor).round() as u64)
    }

    /// Converts to a real [`std::time::Duration`] (used when a concrete
    /// engine sleeps to emulate modeled latency).
    pub fn to_std(self) -> std::time::Duration {
        std::time::Duration::from_nanos(self.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3} s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3} ms", self.as_millis_f64())
        } else if ns >= 1_000 {
            write!(f, "{:.3} us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns} ns")
        }
    }
}

/// An absolute instant on the simulated clock.
///
/// `SimTime` only supports operations that keep "instant" and "duration"
/// distinct: instants differ by durations, durations add to instants.
///
/// # Examples
///
/// ```
/// use pccheck_util::{SimDuration, SimTime};
/// let t0 = SimTime::ZERO;
/// let t1 = t0 + SimDuration::from_secs(5);
/// assert_eq!(t1 - t0, SimDuration::from_secs(5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant (used as "never").
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `ns` nanoseconds after the epoch.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates an instant from fractional seconds after the epoch.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, NaN, or too large.
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime(SimDuration::from_secs_f64(secs).as_nanos())
    }

    /// Nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration since an earlier instant, saturating at zero if `earlier` is
    /// actually later.
    pub const fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.as_nanos())
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.as_nanos();
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.as_nanos())
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1000));
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1000));
        assert_eq!(SimDuration::from_micros(1), SimDuration::from_nanos(1000));
        assert_eq!(
            SimDuration::from_secs_f64(1.5),
            SimDuration::from_millis(1500)
        );
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_secs(3);
        let b = SimDuration::from_secs(1);
        assert_eq!(a + b, SimDuration::from_secs(4));
        assert_eq!(a - b, SimDuration::from_secs(2));
        assert_eq!(a * 2, SimDuration::from_secs(6));
        assert_eq!(a / 3, SimDuration::from_secs(1));
        assert_eq!(b.saturating_sub(a), SimDuration::ZERO);
        assert_eq!(a.mul_f64(0.5), SimDuration::from_millis(1500));
        let total: SimDuration = vec![a, b].into_iter().sum();
        assert_eq!(total, SimDuration::from_secs(4));
    }

    #[test]
    fn instant_duration_algebra() {
        let t0 = SimTime::from_nanos(100);
        let t1 = t0 + SimDuration::from_nanos(50);
        assert_eq!(t1.as_nanos(), 150);
        assert_eq!(t1 - t0, SimDuration::from_nanos(50));
        assert_eq!(t1 - SimDuration::from_nanos(150), SimTime::ZERO);
        assert_eq!(t0.saturating_since(t1), SimDuration::ZERO);
    }

    #[test]
    fn display_formats_pick_unit() {
        assert_eq!(format!("{}", SimDuration::from_nanos(5)), "5 ns");
        assert_eq!(format!("{}", SimDuration::from_micros(5)), "5.000 us");
        assert_eq!(format!("{}", SimDuration::from_millis(5)), "5.000 ms");
        assert_eq!(format!("{}", SimDuration::from_secs(5)), "5.000 s");
        assert_eq!(format!("{}", SimTime::from_secs_f64(1.0)), "t+1.000000s");
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn negative_seconds_rejected() {
        SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn ordering_is_total() {
        let mut v = vec![
            SimTime::from_nanos(5),
            SimTime::ZERO,
            SimTime::from_nanos(3),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                SimTime::ZERO,
                SimTime::from_nanos(3),
                SimTime::from_nanos(5)
            ]
        );
    }
}
