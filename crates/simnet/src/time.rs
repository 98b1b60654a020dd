//! Simulated time.
//!
//! All simulation time is kept in integer nanoseconds. Two newtypes keep
//! instants and durations from being mixed up: [`SimTime`] is a point on the
//! simulation clock and [`SimDur`] is a span between two points. Both are
//! `Copy` and totally ordered, and arithmetic between them is defined the
//! same way as for `std::time` types (instant ± duration = instant,
//! instant − instant = duration, duration ± duration = duration).

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulation clock, in nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDur(pub u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// The instant `n` nanoseconds after the epoch (inverse of
    /// [`SimTime::as_nanos`]).
    #[inline]
    pub const fn from_nanos(n: u64) -> SimTime {
        SimTime(n)
    }

    /// Returns the raw nanosecond count.
    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns this instant expressed in (fractional) microseconds.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns this instant expressed in (fractional) seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Duration elapsed since `earlier`, saturating to zero if `earlier` is
    /// in the future.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDur {
        SimDur(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl SimDur {
    /// The zero-length span.
    pub const ZERO: SimDur = SimDur(0);

    /// A span of `n` nanoseconds.
    #[inline]
    pub const fn nanos(n: u64) -> SimDur {
        SimDur(n)
    }

    /// A span of `n` microseconds.
    #[inline]
    pub const fn micros(n: u64) -> SimDur {
        SimDur(n * 1_000)
    }

    /// A span of `n` milliseconds.
    #[inline]
    pub const fn millis(n: u64) -> SimDur {
        SimDur(n * 1_000_000)
    }

    /// A span of `n` seconds.
    #[inline]
    pub const fn secs(n: u64) -> SimDur {
        SimDur(n * 1_000_000_000)
    }

    /// Returns the raw nanosecond count.
    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns this span expressed in (fractional) microseconds.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns this span expressed in (fractional) seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Saturating subtraction of two spans.
    #[inline]
    pub fn saturating_sub(self, rhs: SimDur) -> SimDur {
        SimDur(self.0.saturating_sub(rhs.0))
    }
}

impl Add<SimDur> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDur) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDur> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDur) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDur> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDur) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDur;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDur {
        SimDur(self.0 - rhs.0)
    }
}

impl Add for SimDur {
    type Output = SimDur;
    #[inline]
    fn add(self, rhs: SimDur) -> SimDur {
        SimDur(self.0 + rhs.0)
    }
}

impl AddAssign for SimDur {
    #[inline]
    fn add_assign(&mut self, rhs: SimDur) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDur {
    type Output = SimDur;
    #[inline]
    fn sub(self, rhs: SimDur) -> SimDur {
        SimDur(self.0 - rhs.0)
    }
}

impl SubAssign for SimDur {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDur) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDur {
    type Output = SimDur;
    #[inline]
    fn mul(self, rhs: u64) -> SimDur {
        SimDur(self.0 * rhs)
    }
}

impl Div<u64> for SimDur {
    type Output = SimDur;
    #[inline]
    fn div(self, rhs: u64) -> SimDur {
        SimDur(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}ns", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

impl fmt::Debug for SimDur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl fmt::Display for SimDur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_scale_correctly() {
        assert_eq!(SimDur::nanos(7).as_nanos(), 7);
        assert_eq!(SimDur::micros(3).as_nanos(), 3_000);
        assert_eq!(SimDur::millis(2).as_nanos(), 2_000_000);
        assert_eq!(SimDur::secs(1).as_nanos(), 1_000_000_000);
    }

    #[test]
    fn instant_duration_arithmetic() {
        let t0 = SimTime::ZERO;
        let t1 = t0 + SimDur::micros(10);
        assert_eq!(t1.as_nanos(), 10_000);
        assert_eq!(t1 - t0, SimDur::micros(10));
        assert_eq!((t1 - SimDur::micros(4)).as_nanos(), 6_000);
        assert_eq!(t1.since(t0), SimDur::micros(10));
        // `since` saturates rather than underflowing.
        assert_eq!(t0.since(t1), SimDur::ZERO);
    }

    #[test]
    fn ordering_and_max() {
        let a = SimTime(5);
        let b = SimTime(9);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(b.max(a), b);
    }

    #[test]
    fn float_conversions() {
        let t = SimTime(1_500_000_000);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
        assert!((SimDur::micros(2).as_micros_f64() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn duration_scalar_ops() {
        assert_eq!(SimDur::micros(2) * 3, SimDur::micros(6));
        assert_eq!(SimDur::micros(6) / 3, SimDur::micros(2));
        assert_eq!(
            SimDur::micros(5).saturating_sub(SimDur::micros(9)),
            SimDur::ZERO
        );
    }
}
