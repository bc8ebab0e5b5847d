//! Simulation time, durations and frequencies.
//!
//! All simulation time is kept in **integer picoseconds** (`u64`). This
//! makes the kernel fully deterministic (no floating-point drift across
//! platforms) while leaving ~213 days of representable range — orders of
//! magnitude beyond any experiment in the DAC'17 evaluation, whose
//! longest run is a few simulated seconds.
//!
//! Frequencies are stored in **millihertz** so that values such as the
//! prototype's 120 MHz ring-oscillator output or sub-hertz event rates
//! are both exactly representable.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// Picoseconds per second, the conversion backbone of this module.
pub const PS_PER_SEC: u64 = 1_000_000_000_000;

/// An absolute instant on the simulation timeline, in picoseconds since
/// simulation start.
///
/// `SimTime` is an absolute quantity; the difference of two instants is a
/// [`SimDuration`]. Mixing the two up is a unit error the type system
/// rules out (C-NEWTYPE).
///
/// # Examples
///
/// ```
/// use aetr_sim::time::{SimTime, SimDuration};
///
/// let t0 = SimTime::ZERO;
/// let t1 = t0 + SimDuration::from_ns(100);
/// assert_eq!(t1 - t0, SimDuration::from_ns(100));
/// assert_eq!(t1.as_ps(), 100_000);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulation time, in picoseconds.
///
/// # Examples
///
/// ```
/// use aetr_sim::time::SimDuration;
///
/// let d = SimDuration::from_us(2) + SimDuration::from_ns(500);
/// assert_eq!(d.as_ns(), 2_500);
/// assert_eq!(d * 2, SimDuration::from_us(5));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

/// A frequency, stored in integer millihertz.
///
/// # Examples
///
/// ```
/// use aetr_sim::time::{Frequency, SimDuration};
///
/// let f = Frequency::from_mhz(120);
/// assert_eq!(f.period(), SimDuration::from_ps(8_333));
/// assert_eq!(f.halved(), Frequency::from_mhz(60));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Frequency(u64);

impl SimTime {
    /// The start of simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "never" sentinel by
    /// schedulers.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `ps` picoseconds after simulation start.
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Creates an instant `ns` nanoseconds after simulation start.
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * 1_000)
    }

    /// Creates an instant `us` microseconds after simulation start.
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000_000)
    }

    /// Creates an instant `ms` milliseconds after simulation start.
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000_000)
    }

    /// Creates an instant `s` seconds after simulation start.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * PS_PER_SEC)
    }

    /// Picoseconds since simulation start.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_SEC as f64
    }

    /// The duration elapsed since `earlier`.
    ///
    /// Returns [`SimDuration::ZERO`] if `earlier` is actually later,
    /// mirroring `std::time::Instant::saturating_duration_since`.
    pub fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Adds a duration, saturating at [`SimTime::MAX`] instead of
    /// overflowing.
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }

    /// Checked addition; `None` on overflow.
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration; used as an "infinite" timeout.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration of `ps` picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        SimDuration(ps)
    }

    /// Creates a duration of `ns` nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimDuration(ns * 1_000)
    }

    /// Creates a duration of `us` microseconds.
    pub const fn from_us(us: u64) -> Self {
        SimDuration(us * 1_000_000)
    }

    /// Creates a duration of `ms` milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        SimDuration(ms * 1_000_000_000)
    }

    /// Creates a duration of `s` seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * PS_PER_SEC)
    }

    /// Creates a duration from (possibly fractional) seconds, rounding to
    /// the nearest picosecond.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, not finite, or too large to
    /// represent.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "duration seconds must be finite and non-negative, got {secs}"
        );
        let ps = secs * PS_PER_SEC as f64;
        assert!(ps <= u64::MAX as f64, "duration overflows u64 picoseconds");
        SimDuration(ps.round() as u64)
    }

    /// Duration in picoseconds.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Duration in whole nanoseconds (truncating).
    pub const fn as_ns(self) -> u64 {
        self.0 / 1_000
    }

    /// Duration in whole microseconds (truncating).
    pub const fn as_us(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Duration in seconds as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_SEC as f64
    }

    /// `true` if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating multiplication by an integer factor.
    pub fn saturating_mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }

    /// Saturating addition: `MAX` on overflow.
    pub fn saturating_add(self, d: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(d.0))
    }

    /// Saturating subtraction: zero when `d` is longer.
    pub fn saturating_sub(self, d: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(d.0))
    }

    /// The frequency whose period is this duration.
    ///
    /// # Panics
    ///
    /// Panics if the duration is zero.
    pub fn to_frequency(self) -> Frequency {
        assert!(!self.is_zero(), "zero period has no frequency");
        // f_mHz = 1e15 / period_ps, computed in u128 to avoid overflow.
        let mhz = 1_000u128 * PS_PER_SEC as u128 / self.0 as u128;
        Frequency(mhz.min(u64::MAX as u128) as u64)
    }
}

impl Frequency {
    /// Zero frequency — a stopped clock.
    pub const ZERO: Frequency = Frequency(0);

    /// Creates a frequency of `mhz_thousandths` millihertz.
    pub const fn from_millihertz(millihertz: u64) -> Self {
        Frequency(millihertz)
    }

    /// Creates a frequency of `hz` hertz.
    pub const fn from_hz(hz: u64) -> Self {
        Frequency(hz * 1_000)
    }

    /// Creates a frequency of `khz` kilohertz.
    pub const fn from_khz(khz: u64) -> Self {
        Frequency(khz * 1_000_000)
    }

    /// Creates a frequency of `mhz` megahertz.
    pub const fn from_mhz(mhz: u64) -> Self {
        Frequency(mhz * 1_000_000_000)
    }

    /// Frequency in millihertz.
    pub const fn as_millihertz(self) -> u64 {
        self.0
    }

    /// Frequency in hertz as a float (for reporting only).
    pub fn as_hz_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// `true` for a stopped clock.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The clock period (truncated to a whole picosecond).
    ///
    /// # Panics
    ///
    /// Panics on a zero frequency: a stopped clock has no period.
    pub fn period(self) -> SimDuration {
        assert!(!self.is_zero(), "zero frequency has no period");
        let ps = 1_000u128 * PS_PER_SEC as u128 / self.0 as u128;
        SimDuration(ps.min(u64::MAX as u128) as u64)
    }

    /// This frequency divided by two — one recursive division step.
    pub const fn halved(self) -> Frequency {
        Frequency(self.0 / 2)
    }

    /// This frequency divided by `2^k`.
    pub const fn divided_pow2(self, k: u32) -> Frequency {
        Frequency(self.0 >> k)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
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

impl Div for SimDuration {
    /// How many times `rhs` fits in `self` (integer division).
    type Output = u64;
    fn div(self, rhs: SimDuration) -> u64 {
        self.0 / rhs.0
    }
}

impl Rem for SimDuration {
    type Output = SimDuration;
    fn rem(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 % rhs.0)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_ps(self.0, f)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_ps(self.0, f)
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mhz = self.0;
        if mhz == 0 {
            write!(f, "0 Hz")
        } else if mhz >= 1_000_000_000_000 {
            write!(f, "{:.3} GHz", mhz as f64 / 1e12)
        } else if mhz >= 1_000_000_000 {
            write!(f, "{:.3} MHz", mhz as f64 / 1e9)
        } else if mhz >= 1_000_000 {
            write!(f, "{:.3} kHz", mhz as f64 / 1e6)
        } else {
            write!(f, "{:.3} Hz", mhz as f64 / 1e3)
        }
    }
}

/// Human-readable rendering of a picosecond count with an SI prefix.
fn fmt_ps(ps: u64, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if ps == 0 {
        write!(f, "0 s")
    } else if ps >= PS_PER_SEC {
        write!(f, "{:.6} s", ps as f64 / PS_PER_SEC as f64)
    } else if ps >= 1_000_000_000 {
        write!(f, "{:.3} ms", ps as f64 / 1e9)
    } else if ps >= 1_000_000 {
        write!(f, "{:.3} us", ps as f64 / 1e6)
    } else if ps >= 1_000 {
        write!(f, "{:.3} ns", ps as f64 / 1e3)
    } else {
        write!(f, "{ps} ps")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_unit_constructors_agree() {
        assert_eq!(SimTime::from_ns(1), SimTime::from_ps(1_000));
        assert_eq!(SimTime::from_us(1), SimTime::from_ns(1_000));
        assert_eq!(SimTime::from_ms(1), SimTime::from_us(1_000));
        assert_eq!(SimTime::from_secs(1), SimTime::from_ms(1_000));
    }

    #[test]
    fn duration_unit_constructors_agree() {
        assert_eq!(SimDuration::from_ns(1), SimDuration::from_ps(1_000));
        assert_eq!(SimDuration::from_secs(1).as_ps(), PS_PER_SEC);
        assert_eq!(SimDuration::from_secs_f64(0.5), SimDuration::from_ms(500));
    }

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::from_us(5);
        let d = SimDuration::from_ns(250);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn saturating_ops_clamp() {
        assert_eq!(SimTime::ZERO.saturating_duration_since(SimTime::from_ns(5)), SimDuration::ZERO);
        assert_eq!(SimTime::MAX.saturating_add(SimDuration::from_ns(1)), SimTime::MAX);
    }

    #[test]
    fn frequency_period_roundtrip_120mhz() {
        // The prototype's ring oscillator: 120 MHz -> 8333 ps (truncated
        // from 8333.33); the reverse conversion lands within 1 mHz scale
        // truncation error.
        let f = Frequency::from_mhz(120);
        assert_eq!(f.period().as_ps(), 8_333);
        let back = f.period().to_frequency();
        assert!(back >= Frequency::from_mhz(120));
        assert!(back < Frequency::from_mhz(121));
    }

    #[test]
    fn frequency_halving_chain() {
        // 30 MHz reference divided down as in Fig. 2.
        let mut f = Frequency::from_mhz(30);
        let mut periods = Vec::new();
        for _ in 0..4 {
            periods.push(f.period().as_ps());
            f = f.halved();
        }
        assert_eq!(periods, vec![33_333, 66_666, 133_333, 266_666]);
    }

    #[test]
    fn divided_pow2_matches_repeated_halving() {
        let f = Frequency::from_mhz(120);
        assert_eq!(f.divided_pow2(3), f.halved().halved().halved());
    }

    #[test]
    fn duration_division_counts_cycles() {
        let span = SimDuration::from_us(1);
        let period = SimDuration::from_ns(100);
        assert_eq!(span / period, 10);
        assert_eq!(span % period, SimDuration::ZERO);
    }

    #[test]
    fn display_uses_si_prefixes() {
        assert_eq!(SimDuration::from_ps(12).to_string(), "12 ps");
        assert_eq!(SimDuration::from_ns(130).to_string(), "130.000 ns");
        assert_eq!(SimDuration::from_us(700).to_string(), "700.000 us");
        assert_eq!(Frequency::from_mhz(30).to_string(), "30.000 MHz");
        assert_eq!(Frequency::ZERO.to_string(), "0 Hz");
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration =
            [SimDuration::from_ns(1), SimDuration::from_ns(2)].into_iter().sum();
        assert_eq!(total, SimDuration::from_ns(3));
    }

    #[test]
    #[should_panic(expected = "zero frequency has no period")]
    fn zero_frequency_period_panics() {
        let _ = Frequency::ZERO.period();
    }
}
