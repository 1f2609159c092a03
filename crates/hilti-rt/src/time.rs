//! Timestamp and time-interval types with nanosecond resolution (§3.2).
//!
//! HILTI maintains *multiple independent notions of time* (network time
//! driven by packet timestamps vs. wall clock); [`Time`] is therefore just a
//! point on an abstract nanosecond axis with no tie to the system clock.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::str::FromStr;

use crate::error::RtError;

/// Nanoseconds per second.
pub const NSEC_PER_SEC: u64 = 1_000_000_000;

/// An absolute point in time, nanoseconds since an arbitrary epoch.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Time(u64);

impl Time {
    /// The epoch itself; also the initial value of every timer manager.
    pub const ZERO: Time = Time(0);

    /// Builds a time from raw nanoseconds since the epoch.
    pub const fn from_nanos(ns: u64) -> Self {
        Time(ns)
    }

    /// Builds a time from whole seconds since the epoch.
    pub fn from_secs(s: u64) -> Self {
        Time(s * NSEC_PER_SEC)
    }

    /// Builds a time from a floating-point seconds value (as found in pcap
    /// timestamps); sub-nanosecond precision is truncated.
    pub fn from_secs_f64(s: f64) -> Self {
        Time((s * NSEC_PER_SEC as f64) as u64)
    }

    /// Raw nanoseconds since the epoch.
    pub fn nanos(&self) -> u64 {
        self.0
    }

    /// Seconds since the epoch as a float.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / NSEC_PER_SEC as f64
    }

    /// Saturating difference between two times.
    pub fn since(&self, earlier: Time) -> Interval {
        Interval(self.0.saturating_sub(earlier.0) as i64)
    }
}

impl Add<Interval> for Time {
    type Output = Time;

    fn add(self, rhs: Interval) -> Time {
        Time(self.0.saturating_add_signed(rhs.0))
    }
}

impl AddAssign<Interval> for Time {
    fn add_assign(&mut self, rhs: Interval) {
        *self = *self + rhs;
    }
}

impl Sub<Interval> for Time {
    type Output = Time;

    fn sub(self, rhs: Interval) -> Time {
        Time(self.0.saturating_sub_signed(rhs.0))
    }
}

/// The signed difference, saturated where it leaves `i64`.
impl Sub for Time {
    type Output = Interval;

    fn sub(self, rhs: Time) -> Interval {
        let saturated = if self > rhs { i64::MAX } else { i64::MIN };
        Interval(self.0.checked_signed_diff(rhs.0).unwrap_or(saturated))
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let secs = self.0 / NSEC_PER_SEC;
        let frac = self.0 % NSEC_PER_SEC;
        if frac == 0 {
            write!(f, "{secs}.000000")
        } else {
            // Microsecond display precision, like Bro's log timestamps.
            write!(f, "{secs}.{:06}", frac / 1_000)
        }
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Time({self})")
    }
}

/// A signed time interval with nanosecond resolution.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Interval(i64);

impl Interval {
    pub const ZERO: Interval = Interval(0);

    pub fn from_nanos(ns: i64) -> Self {
        Interval(ns)
    }

    pub fn from_secs(s: i64) -> Self {
        Interval(s * NSEC_PER_SEC as i64)
    }

    pub fn from_millis(ms: i64) -> Self {
        Interval(ms * 1_000_000)
    }

    pub fn from_secs_f64(s: f64) -> Self {
        Interval((s * NSEC_PER_SEC as f64) as i64)
    }

    pub fn nanos(&self) -> i64 {
        self.0
    }

    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / NSEC_PER_SEC as f64
    }

    pub fn is_negative(&self) -> bool {
        self.0 < 0
    }
}

impl Add for Interval {
    type Output = Interval;

    fn add(self, rhs: Interval) -> Interval {
        Interval(self.0.saturating_add(rhs.0))
    }
}

impl Sub for Interval {
    type Output = Interval;

    fn sub(self, rhs: Interval) -> Interval {
        Interval(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sign = if self.0 < 0 { "-" } else { "" };
        let abs = self.0.unsigned_abs();
        write!(
            f,
            "{sign}{}.{:06}",
            abs / NSEC_PER_SEC,
            (abs % NSEC_PER_SEC) / 1_000
        )
    }
}

impl fmt::Debug for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Interval({self})")
    }
}

impl FromStr for Interval {
    type Err = RtError;

    /// Parses `"300"` or `"300.5"` as seconds, matching the paper's
    /// `interval(300)` literals.
    fn from_str(s: &str) -> Result<Self, RtError> {
        s.trim()
            .parse::<f64>()
            .map(Interval::from_secs_f64)
            .map_err(|_| RtError::value(format!("bad interval literal {s:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrips() {
        let t = Time::from_secs(100);
        let i = Interval::from_secs(5);
        assert_eq!(t + i, Time::from_secs(105));
        assert_eq!(Time::from_secs(105) - t, i);
        assert_eq!(t.since(Time::from_secs(90)), Interval::from_secs(10));
    }

    #[test]
    fn negative_interval_addition_saturates_at_zero() {
        let t = Time::from_secs(1);
        assert_eq!(t + Interval::from_secs(-5), Time::ZERO);
    }

    /// Differences exact while they fit, saturated past `i64`, and an
    /// interval of `i64::MIN` subtracted as the positive `2^63` it stands
    /// for: no overflow panics, no wrapped results.
    #[test]
    fn subtraction_saturates_at_the_edges() {
        let (min, max) = (
            Interval::from_nanos(i64::MIN),
            Interval::from_nanos(i64::MAX),
        );
        let (zero, top) = (Time::ZERO, Time::from_nanos(u64::MAX));
        assert_eq!(top - zero, max);
        assert_eq!(zero - top, min);
        let (a, b) = (Time::from_nanos(9 << 60), Time::from_nanos(10 << 60));
        assert_eq!(a - b, Interval::from_nanos(-(1 << 60)));
        assert_eq!(
            Time::from_secs(5) - min,
            Time::from_nanos(5_000_000_000 + (1 << 63))
        );
        assert_eq!(top - min, top);
        assert_eq!(Time::from_secs(5) - Interval::from_secs(7), zero);
        assert_eq!(
            Time::from_secs(5) - Interval::from_secs(-2),
            Time::from_secs(7)
        );
    }

    #[test]
    fn since_saturates() {
        assert_eq!(Time::from_secs(1).since(Time::from_secs(5)), Interval::ZERO);
    }

    #[test]
    fn display_microsecond_precision() {
        let t = Time::from_nanos(1_500_000_000);
        assert_eq!(t.to_string(), "1.500000");
        assert_eq!(Time::from_secs(42).to_string(), "42.000000");
        assert_eq!(Interval::from_millis(-1500).to_string(), "-1.500000");
    }

    #[test]
    fn interval_parse() {
        assert_eq!("300".parse::<Interval>().unwrap(), Interval::from_secs(300));
        assert_eq!(
            "0.5".parse::<Interval>().unwrap(),
            Interval::from_millis(500)
        );
        assert!("abc".parse::<Interval>().is_err());
    }

    #[test]
    fn float_conversions() {
        let t = Time::from_secs_f64(1.25);
        assert_eq!(t.nanos(), 1_250_000_000);
        assert!((t.as_secs_f64() - 1.25).abs() < 1e-9);
    }
}
