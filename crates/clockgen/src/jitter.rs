//! Ring-oscillator jitter model.
//!
//! A free-running ring oscillator is a noisy clock source: each period
//! deviates from nominal by a random amount (white period jitter) and
//! the deviations accumulate between resets (the random-walk phase
//! error that makes long RO-timed intervals less precise than short
//! ones). The paper's accuracy analysis assumes "a perfect clock with
//! constant frequency" (§5.1); this model quantifies what real jitter
//! would add — a robustness analysis the paper leaves implicit.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use aetr_sim::time::SimDuration;

/// Jitter parameters of the oscillator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JitterConfig {
    /// RMS period jitter as a fraction of the nominal period
    /// (typical FPGA-fabric ring oscillators: 0.5–2 %).
    pub period_rms: f64,
}

impl JitterConfig {
    /// A realistic IGLOO-nano fabric oscillator: 1 % RMS period jitter.
    pub fn igloo_nano() -> JitterConfig {
        JitterConfig { period_rms: 0.01 }
    }

    /// A perfect clock (the paper's §5.1 assumption).
    pub fn ideal() -> JitterConfig {
        JitterConfig { period_rms: 0.0 }
    }
}

impl Default for JitterConfig {
    fn default() -> Self {
        Self::igloo_nano()
    }
}

/// A jittered clock: produces successive periods around the nominal,
/// with independent Gaussian deviations per cycle (accumulating into
/// random-walk phase error, as in a real free-running oscillator).
///
/// # Examples
///
/// ```
/// use aetr_clockgen::jitter::{JitterConfig, JitteredClock};
/// use aetr_sim::time::SimDuration;
///
/// let mut clock = JitteredClock::new(SimDuration::from_ns(33), JitterConfig::igloo_nano(), 1);
/// let p = clock.next_period();
/// let rel = (p.as_ps() as f64 - 33_000.0).abs() / 33_000.0;
/// assert!(rel < 0.1, "one period stays near nominal");
/// ```
#[derive(Debug, Clone)]
pub struct JitteredClock {
    nominal: SimDuration,
    config: JitterConfig,
    rng: StdRng,
}

impl JitteredClock {
    /// Creates a jittered clock with the given nominal period.
    ///
    /// # Panics
    ///
    /// Panics on a zero nominal period or a negative/non-finite RMS.
    pub fn new(nominal: SimDuration, config: JitterConfig, seed: u64) -> JitteredClock {
        assert!(!nominal.is_zero(), "nominal period must be non-zero");
        assert!(
            config.period_rms.is_finite() && config.period_rms >= 0.0,
            "period_rms must be non-negative and finite"
        );
        JitteredClock { nominal, config, rng: StdRng::seed_from_u64(seed) }
    }

    /// Standard Gaussian sample (Box–Muller; two uniforms per call,
    /// one output used — simple and dependency-free).
    fn gaussian(&mut self) -> f64 {
        let u1: f64 = 1.0 - self.rng.gen::<f64>(); // (0, 1]
        let u2: f64 = self.rng.gen();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// The next clock period: nominal plus Gaussian deviation, clamped
    /// at half the nominal so a tail sample cannot produce a
    /// non-physical (near-zero) period.
    pub fn next_period(&mut self) -> SimDuration {
        if self.config.period_rms == 0.0 {
            return self.nominal;
        }
        let sigma_ps = self.nominal.as_ps() as f64 * self.config.period_rms;
        let dev = (self.gaussian() * sigma_ps)
            .clamp(-(self.nominal.as_ps() as f64) / 2.0, self.nominal.as_ps() as f64 / 2.0);
        SimDuration::from_ps((self.nominal.as_ps() as i64 + dev.round() as i64) as u64)
    }

    /// The nominal period.
    pub fn nominal(&self) -> SimDuration {
        self.nominal
    }
}

/// Measures the additional timestamp error jitter introduces for an
/// interval of `n_ticks` nominal periods: returns the RMS of the
/// relative interval error over `trials` (for a random-walk clock the
/// expected value is `period_rms / sqrt(n_ticks)` — long intervals
/// average the noise down, which is why the paper can ignore it).
pub fn interval_error_rms(
    nominal: SimDuration,
    config: JitterConfig,
    n_ticks: u64,
    trials: u32,
    seed: u64,
) -> f64 {
    assert!(n_ticks > 0, "need at least one tick");
    assert!(trials > 0, "need at least one trial");
    let expected = nominal.as_ps() as f64 * n_ticks as f64;
    let mut sum_sq = 0.0;
    for t in 0..trials {
        let mut clock = JitteredClock::new(nominal, config, seed.wrapping_add(t as u64));
        let total: u64 = (0..n_ticks).map(|_| clock.next_period().as_ps()).sum();
        let rel = (total as f64 - expected) / expected;
        sum_sq += rel * rel;
    }
    (sum_sq / trials as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nominal() -> SimDuration {
        SimDuration::from_ns(66)
    }

    #[test]
    fn ideal_config_is_exact() {
        let mut clock = JitteredClock::new(nominal(), JitterConfig::ideal(), 0);
        for _ in 0..100 {
            assert_eq!(clock.next_period(), nominal());
        }
    }

    #[test]
    fn period_rms_matches_configuration() {
        let cfg = JitterConfig { period_rms: 0.02 };
        let mut clock = JitteredClock::new(nominal(), cfg, 7);
        let n = 20_000;
        let periods: Vec<f64> = (0..n).map(|_| clock.next_period().as_ps() as f64).collect();
        let mean = periods.iter().sum::<f64>() / n as f64;
        let var = periods.iter().map(|p| (p - mean).powi(2)).sum::<f64>() / n as f64;
        let measured_rms = var.sqrt() / nominal().as_ps() as f64;
        assert!(
            (measured_rms - 0.02).abs() < 0.002,
            "measured RMS {measured_rms} vs configured 0.02"
        );
        // Mean stays at nominal.
        assert!((mean - nominal().as_ps() as f64).abs() / mean < 0.001);
    }

    #[test]
    fn interval_error_averages_down_with_length() {
        let cfg = JitterConfig::igloo_nano();
        let short = interval_error_rms(nominal(), cfg, 4, 300, 1);
        let long = interval_error_rms(nominal(), cfg, 400, 300, 1);
        // Random walk: relative error ~ rms/sqrt(n).
        assert!(long < short / 5.0, "short {short}, long {long}");
        let predicted = 0.01 / (400f64).sqrt();
        assert!((long - predicted).abs() / predicted < 0.35, "long {long} vs {predicted}");
    }

    #[test]
    fn jitter_is_negligible_next_to_quantization() {
        // The design insight the paper relies on: at θ=64, quantization
        // error is ~1/(2θ) ≈ 0.8%, while 1% period jitter over even 16
        // ticks is 0.25% — and shrinking. Jitter never dominates.
        let cfg = JitterConfig::igloo_nano();
        let quantization_floor = 1.0 / (2.0 * 64.0);
        for n_ticks in [16u64, 64, 256] {
            let jitter_err = interval_error_rms(nominal(), cfg, n_ticks, 200, 3);
            assert!(
                jitter_err < quantization_floor,
                "jitter {jitter_err} exceeds quantization floor at {n_ticks} ticks"
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = JitteredClock::new(nominal(), JitterConfig::igloo_nano(), 9);
        let mut b = JitteredClock::new(nominal(), JitterConfig::igloo_nano(), 9);
        for _ in 0..100 {
            assert_eq!(a.next_period(), b.next_period());
        }
    }

    #[test]
    fn periods_are_always_physical() {
        let cfg = JitterConfig { period_rms: 0.4 }; // absurdly noisy
        let mut clock = JitteredClock::new(nominal(), cfg, 11);
        for _ in 0..10_000 {
            let p = clock.next_period();
            assert!(p >= nominal() / 2 && p <= nominal() + nominal() / 2);
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_nominal_panics() {
        let _ = JitteredClock::new(SimDuration::ZERO, JitterConfig::ideal(), 0);
    }
}
