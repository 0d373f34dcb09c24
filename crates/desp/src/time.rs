//! Simulation time.
//!
//! VOODB expresses every timing parameter of the paper (disk search /
//! latency / transfer, lock acquisition, network transfer) in
//! **milliseconds**, so the kernel adopts the same convention: one unit of
//! [`SimTime`] is one millisecond of simulated time.
//!
//! `SimTime` is a thin newtype over `f64`. It deliberately implements `Ord`
//! through [`f64::total_cmp`] so it can key the event heap; constructing a
//! `SimTime` from a NaN is a programming error and is rejected in debug
//! builds.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point (or span) of simulated time, in milliseconds.
#[derive(Clone, Copy, PartialEq, Default)]
pub struct SimTime(f64);

impl SimTime {
    /// Time zero — the instant every simulation starts at.
    pub const ZERO: SimTime = SimTime(0.0);

    /// A time later than any event a model can schedule.
    pub const INFINITY: SimTime = SimTime(f64::INFINITY);

    /// Creates a time from raw milliseconds.
    ///
    /// # Panics
    /// Panics in debug builds if `ms` is NaN.
    #[inline]
    pub fn from_ms(ms: f64) -> Self {
        debug_assert!(!ms.is_nan(), "SimTime must not be NaN");
        SimTime(ms)
    }

    /// The raw value in milliseconds.
    #[inline]
    pub fn as_ms(self) -> f64 {
        self.0
    }

    /// Saturating difference: `self - earlier`, clamped at zero.
    ///
    /// Useful when computing waiting times where clock noise could otherwise
    /// produce a tiny negative span.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimTime {
        SimTime((self.0 - earlier.0).max(0.0))
    }
}

impl Eq for SimTime {}

impl PartialOrd for SimTime {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SimTime {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Add<f64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: f64) -> SimTime {
        debug_assert!(!rhs.is_nan());
        SimTime(self.0 + rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}ms", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} ms", self.0)
    }
}

impl From<f64> for SimTime {
    #[inline]
    fn from(ms: f64) -> Self {
        SimTime::from_ms(ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_default() {
        assert_eq!(SimTime::default(), SimTime::ZERO);
        assert_eq!(SimTime::ZERO.as_ms(), 0.0);
    }

    #[test]
    fn arithmetic_behaves_like_f64() {
        let a = SimTime::from_ms(10.0);
        let b = SimTime::from_ms(2.5);
        assert_eq!((a + b).as_ms(), 12.5);
        assert_eq!((a - b).as_ms(), 7.5);
        assert_eq!((a + 0.5).as_ms(), 10.5);
        let mut c = a;
        c += b;
        assert_eq!(c.as_ms(), 12.5);
    }

    #[test]
    fn ordering_is_total() {
        let mut v = [
            SimTime::from_ms(3.0),
            SimTime::ZERO,
            SimTime::INFINITY,
            SimTime::from_ms(1.0),
        ];
        v.sort();
        assert_eq!(v[0], SimTime::ZERO);
        assert_eq!(v[1], SimTime::from_ms(1.0));
        assert_eq!(v[2], SimTime::from_ms(3.0));
        assert_eq!(v[3], SimTime::INFINITY);
    }

    #[test]
    fn saturating_since_clamps_at_zero() {
        let a = SimTime::from_ms(1.0);
        let b = SimTime::from_ms(4.0);
        assert_eq!(b.saturating_since(a).as_ms(), 3.0);
        assert_eq!(a.saturating_since(b).as_ms(), 0.0);
    }

    #[test]
    fn infinity_is_not_finite() {
        assert!(!SimTime::INFINITY.as_ms().is_finite());
        assert!(SimTime::ZERO.as_ms().is_finite());
    }
}
