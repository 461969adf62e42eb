//! Picosecond-resolution simulated time.
//!
//! Two newtypes keep instants and durations statically distinct
//! (API-guidelines `C-NEWTYPE`): [`SimTime`] is a point on the simulated
//! clock, [`Span`] is a length of simulated time. Arithmetic is defined only
//! where it is meaningful (`SimTime + Span`, `SimTime - SimTime`, ...).

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// Picoseconds per nanosecond.
const PS_PER_NS: u64 = 1_000;
/// Picoseconds per microsecond.
const PS_PER_US: u64 = 1_000_000;
/// Picoseconds per millisecond.
const PS_PER_MS: u64 = 1_000_000_000;
/// Picoseconds per second.
const PS_PER_S: u64 = 1_000_000_000_000;

/// `x.round() as u64`, bit for bit, without the libm call `f64::round`
/// compiles to on baseline x86-64.
///
/// Truncate, then round the remainder half away from zero. Below 2^52 the
/// remainder `x - trunc(x)` is exact; from 2^52 up every `x` is an integer,
/// so the remainder is zero; from 2^64 up (and at +inf) the cast saturates
/// to `u64::MAX`, as `round() as u64` does. Negative and NaN inputs cast to
/// 0 on both sides.
#[inline]
fn round_to_u64(x: f64) -> u64 {
    let t = x as u64;
    if x - t as f64 >= 0.5 {
        t.saturating_add(1)
    } else {
        t
    }
}

/// An instant on the simulated clock, in picoseconds since simulation start.
///
/// ```
/// use rambda_des::{SimTime, Span};
/// let t = SimTime::ZERO + Span::from_us(3);
/// assert_eq!(t.as_ns_f64(), 3_000.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimTime(u64);

/// A span (duration) of simulated time, in picoseconds.
///
/// ```
/// use rambda_des::Span;
/// assert_eq!(Span::from_ns(2) * 3, Span::from_ns(6));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Span(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant (used as an "infinity" sentinel).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Creates an instant `ns` nanoseconds after the epoch.
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * PS_PER_NS)
    }

    /// Creates an instant `us` microseconds after the epoch.
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * PS_PER_US)
    }

    /// Raw picoseconds since the epoch.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Nanoseconds since the epoch as a float.
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }

    /// Microseconds since the epoch as a float.
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// Seconds since the epoch as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }

    /// The span since `earlier`, or [`Span::ZERO`] if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> Span {
        Span(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Span {
    /// The empty span.
    pub const ZERO: Span = Span(0);
    /// The largest representable span.
    pub const MAX: Span = Span(u64::MAX);

    /// Creates a span from raw picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        Span(ps)
    }

    /// Creates a span of `ns` nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        Span(ns * PS_PER_NS)
    }

    /// Creates a span of `us` microseconds.
    pub const fn from_us(us: u64) -> Self {
        Span(us * PS_PER_US)
    }

    /// Creates a span of `ms` milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        Span(ms * PS_PER_MS)
    }

    /// Creates a span of `s` seconds.
    pub const fn from_secs(s: u64) -> Self {
        Span(s * PS_PER_S)
    }

    /// Creates a span from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid span seconds: {secs}");
        Span(round_to_u64(secs * PS_PER_S as f64))
    }

    /// Creates a span from fractional nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `ns` is negative or not finite.
    pub fn from_ns_f64(ns: f64) -> Self {
        assert!(ns.is_finite() && ns >= 0.0, "invalid span nanoseconds: {ns}");
        Span(round_to_u64(ns * PS_PER_NS as f64))
    }

    /// Raw picoseconds.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Nanoseconds as a float.
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }

    /// Microseconds as a float.
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// Seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }

    /// Whether the span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The larger of two spans.
    pub fn max(self, other: Span) -> Span {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The smaller of two spans.
    pub fn min(self, other: Span) -> Span {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: Span) -> Span {
        Span(self.0.saturating_sub(other.0))
    }

    /// Multiplies the span by a float factor (rounding to the nearest ps).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn mul_f64(self, factor: f64) -> Span {
        assert!(factor.is_finite() && factor >= 0.0, "invalid factor: {factor}");
        Span(round_to_u64(self.0 as f64 * factor))
    }
}

impl Add<Span> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Span) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<Span> for SimTime {
    fn add_assign(&mut self, rhs: Span) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Span;
    fn sub(self, rhs: SimTime) -> Span {
        assert!(self >= rhs, "SimTime subtraction underflow: {self:?} - {rhs:?}");
        Span(self.0 - rhs.0)
    }
}

impl Sub<Span> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: Span) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Span {
    type Output = Span;
    fn add(self, rhs: Span) -> Span {
        Span(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Span {
    fn add_assign(&mut self, rhs: Span) {
        *self = *self + rhs;
    }
}

impl Sub for Span {
    type Output = Span;
    fn sub(self, rhs: Span) -> Span {
        assert!(self >= rhs, "Span subtraction underflow: {self:?} - {rhs:?}");
        Span(self.0 - rhs.0)
    }
}

impl SubAssign for Span {
    fn sub_assign(&mut self, rhs: Span) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Span {
    type Output = Span;
    fn mul(self, rhs: u64) -> Span {
        Span(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for Span {
    type Output = Span;
    fn div(self, rhs: u64) -> Span {
        Span(self.0 / rhs)
    }
}

impl Sum for Span {
    fn sum<I: Iterator<Item = Span>>(iter: I) -> Span {
        iter.fold(Span::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us_f64())
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= PS_PER_MS {
            write!(f, "{:.3}ms", self.0 as f64 / PS_PER_MS as f64)
        } else if self.0 >= PS_PER_US {
            write!(f, "{:.3}us", self.as_us_f64())
        } else {
            write!(f, "{:.1}ns", self.as_ns_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_round_trip() {
        assert_eq!(Span::from_ns(1).as_ps(), 1_000);
        assert_eq!(Span::from_us(1), Span::from_ns(1_000));
        assert_eq!(Span::from_ms(1), Span::from_us(1_000));
        assert_eq!(Span::from_secs(1), Span::from_ms(1_000));
        assert_eq!(SimTime::from_us(2).as_ns_f64(), 2_000.0);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_ns(100);
        let s = Span::from_ns(30);
        assert_eq!(t + s, SimTime::from_ns(130));
        assert_eq!((t + s) - t, s);
        assert_eq!(s * 3, Span::from_ns(90));
        assert_eq!(Span::from_ns(90) / 3, s);
        assert_eq!(s.mul_f64(0.5), Span::from_ns(15));
    }

    #[test]
    fn saturating_behaviour() {
        assert_eq!(SimTime::from_ns(5).saturating_since(SimTime::from_ns(9)), Span::ZERO);
        assert_eq!(Span::from_ns(5).saturating_sub(Span::from_ns(9)), Span::ZERO);
        assert_eq!(SimTime::MAX + Span::from_ns(1), SimTime::MAX);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn strict_sub_panics() {
        let _ = SimTime::from_ns(1) - SimTime::from_ns(2);
    }

    #[test]
    fn from_secs_f64_rounds() {
        assert_eq!(Span::from_secs_f64(1e-9), Span::from_ns(1));
        assert_eq!(Span::from_ns_f64(0.25).as_ps(), 250);
    }

    #[test]
    fn ordering_and_minmax() {
        let a = SimTime::from_ns(1);
        let b = SimTime::from_ns(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(Span::from_ns(3).max(Span::from_ns(4)), Span::from_ns(4));
        assert_eq!(Span::from_ns(3).min(Span::from_ns(4)), Span::from_ns(3));
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", SimTime::ZERO).is_empty());
        assert!(!format!("{}", Span::from_ns(5)).is_empty());
        assert!(format!("{}", Span::from_ms(2)).contains("ms"));
        assert!(format!("{}", Span::from_us(2)).contains("us"));
    }

    #[test]
    fn sum_of_spans() {
        let total: Span = [Span::from_ns(1), Span::from_ns(2), Span::from_ns(3)].into_iter().sum();
        assert_eq!(total, Span::from_ns(6));
    }

    /// The libm rounding the float constructors used before
    /// [`round_to_u64`]: the reference it must equal.
    fn reference_round(x: f64) -> u64 {
        x.round() as u64
    }

    const TWO_52: f64 = 4_503_599_627_370_496.0;

    #[test]
    fn round_to_u64_matches_libm_on_edge_cases() {
        let mut cases = vec![
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            0.49999999999999994,
            0.5,
            0.5000000000000001,
            1.5,
            2.5,
            1e12 + 0.5,
            TWO_52 - 1.5,
            TWO_52 - 0.5,
            TWO_52 - 0.25,
            TWO_52,
            TWO_52 + 1.0,
            2.0 * TWO_52 + 2.0,
            18_446_744_073_709_549_568.0, // largest f64 below 2^64
            18_446_744_073_709_551_616.0, // 2^64
            18_446_744_073_709_555_712.0, // next f64 above 2^64
            f64::MAX,
            f64::INFINITY,
            f64::MAX * 2.0, // overflow to inf
            f64::NEG_INFINITY,
            -0.5,
            -1.5,
            f64::NAN,
        ];
        for k in [0u64, 1, 2, 3, 1_000, 123_456_789, (1 << 51) - 1] {
            let k = k as f64;
            cases.extend([k, k + 0.25, k + 0.5, k + 0.75]);
        }
        for x in cases {
            assert_eq!(round_to_u64(x), reference_round(x), "x = {x:e} ({:#x})", x.to_bits());
        }
    }

    proptest::proptest! {
        /// Any bit pattern, NaNs and negatives included, and the 4096
        /// floats above it.
        #[test]
        fn round_to_u64_matches_libm_on_any_bits(bits in proptest::prelude::any::<u64>()) {
            for d in 0..4096 {
                let x = f64::from_bits(bits.wrapping_add(d));
                proptest::prop_assert_eq!(round_to_u64(x), reference_round(x), "bits {:#x}", x.to_bits());
            }
        }

        /// The fractional range, where the remainder decides, and the
        /// integral range just above 2^52.
        #[test]
        fn round_to_u64_matches_libm_by_range(
            small in 0.0f64..4.0,
            mid in 0.0f64..1.0e15,
            top in 0.0f64..4.0e15,
            above in 0.0f64..1.0e19,
        ) {
            for start in [small, mid, top, TWO_52 + top, above] {
                for d in 0..1024 {
                    let x = f64::from_bits(start.to_bits() + d);
                    proptest::prop_assert_eq!(round_to_u64(x), reference_round(x), "x = {x:e}");
                }
            }
        }

        /// The three constructors agree with their libm-rounded originals.
        #[test]
        fn float_constructors_match_reference(secs in 0.0f64..1.0e3, ns in 0.0f64..1.0e9, ps in 0u64..1_000_000_000_000, f in 0.0f64..64.0) {
            proptest::prop_assert_eq!(Span::from_secs_f64(secs).as_ps(), reference_round(secs * PS_PER_S as f64));
            proptest::prop_assert_eq!(Span::from_ns_f64(ns).as_ps(), reference_round(ns * PS_PER_NS as f64));
            proptest::prop_assert_eq!(Span::from_ps(ps).mul_f64(f).as_ps(), reference_round(ps as f64 * f));
        }
    }
}
