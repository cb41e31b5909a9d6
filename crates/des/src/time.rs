//! Virtual time for the simulation: [`Time`] (an instant) and [`Duration`]
//! (a span), both counted in integer microseconds.
//!
//! Integer ticks keep instants totally ordered without floating-point
//! drift, which is what makes simulation runs reproducible.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// An instant in virtual time, counted in microseconds since the start of the
/// simulation.
///
/// `Time` is totally ordered and overflow-checked in debug builds. Construct
/// instants either from [`Time::from_micros`] or by adding a [`Duration`] to
/// [`Time::ZERO`].
///
/// # Example
///
/// ```
/// use paragon_des::{Duration, Time};
///
/// let t = Time::ZERO + Duration::from_millis(3);
/// assert_eq!(t.as_micros(), 3_000);
/// assert!(t > Time::ZERO);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Time(u64);

/// A span of virtual time, counted in integer microseconds.
///
/// # Example
///
/// ```
/// use paragon_des::Duration;
///
/// let d = Duration::from_millis(1) + Duration::from_micros(500);
/// assert_eq!(d.as_micros(), 1_500);
/// assert_eq!(d * 2, Duration::from_micros(3_000));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Duration(u64);

impl Time {
    /// The start of simulated time.
    pub const ZERO: Time = Time(0);
    /// The largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: Time = Time(u64::MAX);

    /// Creates an instant `micros` microseconds after the simulation start.
    #[must_use]
    pub const fn from_micros(micros: u64) -> Self {
        Time(micros)
    }

    /// Creates an instant `millis` milliseconds after the simulation start.
    ///
    /// # Panics
    ///
    /// Panics on overflow (more than ~584 thousand years of virtual time).
    #[must_use]
    pub const fn from_millis(millis: u64) -> Self {
        match millis.checked_mul(1_000) {
            Some(us) => Time(us),
            None => panic!("Time::from_millis overflow"),
        }
    }

    /// Returns the number of microseconds since the simulation start.
    #[must_use]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns this instant expressed in (possibly fractional) milliseconds.
    #[must_use]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns the span from `earlier` to `self`, or [`Duration::ZERO`] if
    /// `earlier` is actually later than `self`.
    ///
    /// This is the saturating counterpart of `self - earlier`, convenient for
    /// slack computations where negative spans mean "none left".
    #[must_use]
    pub fn saturating_since(self, earlier: Time) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// Returns the later of two instants.
    #[must_use]
    pub fn max(self, other: Time) -> Time {
        Time(self.0.max(other.0))
    }

    /// Returns the earlier of two instants.
    #[must_use]
    pub fn min(self, other: Time) -> Time {
        Time(self.0.min(other.0))
    }
}

impl Duration {
    /// The empty span.
    pub const ZERO: Duration = Duration(0);
    /// The largest representable span; used as an "unbounded" sentinel.
    pub const MAX: Duration = Duration(u64::MAX);

    /// Creates a span of `micros` microseconds.
    #[must_use]
    pub const fn from_micros(micros: u64) -> Self {
        Duration(micros)
    }

    /// Creates a span of `millis` milliseconds.
    ///
    /// # Panics
    ///
    /// Panics on overflow.
    #[must_use]
    pub const fn from_millis(millis: u64) -> Self {
        match millis.checked_mul(1_000) {
            Some(us) => Duration(us),
            None => panic!("Duration::from_millis overflow"),
        }
    }

    /// Creates a span of `secs` seconds.
    ///
    /// # Panics
    ///
    /// Panics on overflow.
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        match secs.checked_mul(1_000_000) {
            Some(us) => Duration(us),
            None => panic!("Duration::from_secs overflow"),
        }
    }

    /// Returns the span in microseconds.
    #[must_use]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the span expressed in (possibly fractional) milliseconds.
    #[must_use]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns `true` if the span is empty.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Returns `self - other`, clamping at zero instead of underflowing.
    #[must_use]
    pub fn saturating_sub(self, other: Duration) -> Duration {
        Duration(self.0.saturating_sub(other.0))
    }

    /// Multiplies the span by a (non-negative) floating-point factor, rounding
    /// to the nearest microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    #[must_use]
    pub fn mul_f64(self, factor: f64) -> Duration {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "Duration::mul_f64 requires a finite non-negative factor, got {factor}"
        );
        Duration((self.0 as f64 * factor).round() as u64)
    }

    /// Returns the larger of two spans.
    #[must_use]
    pub fn max(self, other: Duration) -> Duration {
        Duration(self.0.max(other.0))
    }

    /// Returns the smaller of two spans.
    #[must_use]
    pub fn min(self, other: Duration) -> Duration {
        Duration(self.0.min(other.0))
    }
}

impl Add<Duration> for Time {
    type Output = Time;

    fn add(self, rhs: Duration) -> Time {
        Time(
            self.0
                .checked_add(rhs.0)
                .expect("virtual time overflow: Time + Duration"),
        )
    }
}

impl AddAssign<Duration> for Time {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<Duration> for Time {
    type Output = Time;

    fn sub(self, rhs: Duration) -> Time {
        Time(
            self.0
                .checked_sub(rhs.0)
                .expect("virtual time underflow: Time - Duration"),
        )
    }
}

impl Sub<Time> for Time {
    type Output = Duration;

    fn sub(self, rhs: Time) -> Duration {
        Duration(
            self.0
                .checked_sub(rhs.0)
                .expect("virtual time underflow: later - earlier required"),
        )
    }
}

impl Add for Duration {
    type Output = Duration;

    fn add(self, rhs: Duration) -> Duration {
        Duration(
            self.0
                .checked_add(rhs.0)
                .expect("virtual duration overflow"),
        )
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub for Duration {
    type Output = Duration;

    fn sub(self, rhs: Duration) -> Duration {
        Duration(
            self.0
                .checked_sub(rhs.0)
                .expect("virtual duration underflow"),
        )
    }
}

impl SubAssign for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;

    fn mul(self, rhs: u64) -> Duration {
        Duration(
            self.0
                .checked_mul(rhs)
                .expect("virtual duration overflow in multiplication"),
        )
    }
}

impl Div<u64> for Duration {
    type Output = Duration;

    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, Add::add)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}us", self.0)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 && self.0.is_multiple_of(1_000) {
            write!(f, "{}ms", self.0 / 1_000)
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

impl From<Duration> for Time {
    fn from(d: Duration) -> Time {
        Time(d.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_construction_and_accessors() {
        assert_eq!(Time::from_micros(42).as_micros(), 42);
        assert_eq!(Time::from_millis(3).as_micros(), 3_000);
        assert_eq!(Time::ZERO.as_micros(), 0);
        assert_eq!(Time::from_millis(1).as_millis_f64(), 1.0);
    }

    #[test]
    fn duration_construction_and_accessors() {
        assert_eq!(Duration::from_micros(7).as_micros(), 7);
        assert_eq!(Duration::from_millis(2).as_micros(), 2_000);
        assert_eq!(Duration::from_secs(1).as_micros(), 1_000_000);
        assert!(Duration::ZERO.is_zero());
        assert!(!Duration::from_micros(1).is_zero());
    }

    #[test]
    fn time_plus_duration() {
        let t = Time::from_micros(10) + Duration::from_micros(5);
        assert_eq!(t, Time::from_micros(15));
        let mut t2 = Time::ZERO;
        t2 += Duration::from_millis(1);
        assert_eq!(t2, Time::from_micros(1_000));
    }

    #[test]
    fn time_difference_is_duration() {
        let a = Time::from_micros(100);
        let b = Time::from_micros(40);
        assert_eq!(a - b, Duration::from_micros(60));
        assert_eq!(a.saturating_since(b), Duration::from_micros(60));
        assert_eq!(b.saturating_since(a), Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn time_difference_panics_on_negative() {
        let _ = Time::from_micros(1) - Time::from_micros(2);
    }

    #[test]
    fn duration_arithmetic() {
        let d = Duration::from_micros(10);
        assert_eq!(d + Duration::from_micros(5), Duration::from_micros(15));
        assert_eq!(d - Duration::from_micros(4), Duration::from_micros(6));
        assert_eq!(d * 3, Duration::from_micros(30));
        assert_eq!(d / 2, Duration::from_micros(5));
        assert_eq!(d.saturating_sub(Duration::from_micros(20)), Duration::ZERO);
        assert_eq!(d.max(Duration::from_micros(12)), Duration::from_micros(12));
        assert_eq!(d.min(Duration::from_micros(12)), d);
    }

    #[test]
    fn duration_mul_f64_rounds() {
        assert_eq!(
            Duration::from_micros(10).mul_f64(1.26),
            Duration::from_micros(13)
        );
        assert_eq!(Duration::from_micros(10).mul_f64(0.0), Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn duration_mul_f64_rejects_negative() {
        let _ = Duration::from_micros(1).mul_f64(-1.0);
    }

    #[test]
    fn duration_sum() {
        let total: Duration = (1..=4).map(Duration::from_micros).sum();
        assert_eq!(total, Duration::from_micros(10));
    }

    #[test]
    fn ordering_is_total() {
        let mut v = vec![
            Time::from_micros(3),
            Time::ZERO,
            Time::from_micros(7),
            Time::from_micros(3),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                Time::ZERO,
                Time::from_micros(3),
                Time::from_micros(3),
                Time::from_micros(7)
            ]
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(Time::from_micros(12).to_string(), "t=12us");
        assert_eq!(Duration::from_micros(900).to_string(), "900us");
        assert_eq!(Duration::from_secs(2).to_string(), "2000ms");
    }

    #[test]
    fn min_max_helpers() {
        let a = Time::from_micros(1);
        let b = Time::from_micros(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }
}
