//! Virtual time for the discrete-event simulation.
//!
//! All device constants in this workspace (flash `tPROG`, PCIe serialization
//! cost, NTB hop latency, CPU work per transaction) are expressed in
//! [`SimTime`] / [`SimDuration`] units. The base unit is the **nanosecond**:
//! fine enough to express a single PCIe TLP on a Gen2 link (~tens of ns) and
//! coarse enough that a `u64` lasts ~584 years of simulated time.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant on the simulation clock, in nanoseconds since the
/// start of the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The instant the simulation starts at.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct an instant from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct an instant from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Construct an instant from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Construct an instant from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// The earlier of two optional instants, `None` meaning "nothing
    /// pending" — how a component folds its calendars into one frontier.
    #[inline]
    pub fn earliest(a: Option<SimTime>, b: Option<SimTime>) -> Option<SimTime> {
        match (a, b) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Raw nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Value in microseconds as a float (for reporting).
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Value in seconds as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// The span from `earlier` to `self`, saturating to zero if `earlier`
    /// is actually later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// Largest representable span; used as an "infinite" sentinel.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct a span from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct a span from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct a span from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct a span from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Construct a span from fractional seconds, rounding to nanoseconds.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s >= 0.0 && s.is_finite(), "duration must be finite and non-negative");
        SimDuration((s * 1e9).round() as u64)
    }

    /// Construct a span from fractional microseconds, rounding to nanoseconds.
    pub const fn from_micros_f64(us: f64) -> Self {
        assert!(us >= 0.0 && us.is_finite(), "duration must be finite and non-negative");
        SimDuration((us * 1e3).round() as u64)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Value in microseconds as a float.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Value in seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// True if the span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiply by an integer factor, saturating at `SimDuration::MAX`.
    pub fn saturating_mul(self, factor: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(factor))
    }

    /// The larger of two spans.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// The smaller of two spans.
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Panics in debug builds if `rhs` is later than `self`.
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self >= rhs, "negative duration: {self} - {rhs}");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        debug_assert!(self >= rhs, "negative duration: {self} - {rhs}");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", format_nanos(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&format_nanos(self.0))
    }
}

/// Human-readable rendering of a nanosecond quantity, scaled to ns/µs/ms/s.
fn format_nanos(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.3}s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_micros(3).as_nanos(), 3_000);
        assert_eq!(SimTime::from_millis(2).as_nanos(), 2_000_000);
        assert_eq!(SimTime::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(SimDuration::from_micros(7).as_nanos(), 7_000);
        assert_eq!(SimDuration::from_secs(1).as_secs_f64(), 1.0);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_nanos(100);
        let d = SimDuration::from_nanos(40);
        assert_eq!((t + d).as_nanos(), 140);
        assert_eq!((t - d).as_nanos(), 60);
        assert_eq!(((t + d) - t).as_nanos(), 40);
        assert_eq!((d + d).as_nanos(), 80);
        assert_eq!((d * 3).as_nanos(), 120);
        assert_eq!((d / 2).as_nanos(), 20);
    }

    #[test]
    fn saturation_behaviour() {
        assert_eq!(SimTime::MAX + SimDuration::from_nanos(1), SimTime::MAX);
        assert_eq!(SimTime::ZERO - SimDuration::from_nanos(1), SimTime::ZERO);
        let later = SimTime::from_nanos(5);
        let earlier = SimTime::from_nanos(9);
        assert_eq!(later.saturating_since(earlier), SimDuration::ZERO);
        assert_eq!(earlier.saturating_since(later).as_nanos(), 4);
    }

    #[test]
    fn fractional_construction_rounds() {
        assert_eq!(SimDuration::from_secs_f64(1.5e-9).as_nanos(), 2);
        assert_eq!(SimDuration::from_micros_f64(0.4).as_nanos(), 400);
        assert_eq!(SimDuration::from_secs_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(SimDuration::from_nanos(17).to_string(), "17ns");
        assert_eq!(SimDuration::from_nanos(1_700).to_string(), "1.70us");
        assert_eq!(SimDuration::from_millis(3).to_string(), "3.00ms");
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.000s");
        assert_eq!(SimTime::from_nanos(5).to_string(), "t=5ns");
    }

    #[test]
    fn min_max_helpers() {
        let a = SimTime::from_nanos(3);
        let b = SimTime::from_nanos(9);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let x = SimDuration::from_nanos(3);
        let y = SimDuration::from_nanos(9);
        assert_eq!(x.max(y), y);
        assert_eq!(x.min(y), x);
    }

    #[test]
    fn duration_sum() {
        let total: SimDuration = (1..=4).map(SimDuration::from_nanos).sum();
        assert_eq!(total.as_nanos(), 10);
    }
}
