//! Pausable ring-oscillator model (paper Fig. 5).
//!
//! The prototype's clock source is a closed loop of an odd number of
//! minimum-delay inverters, with the input inverter replaced by a NOR
//! gate so the loop can be broken (`SLEEP`). Because stopping the clock
//! freezes every register — including the one driving `SLEEP` — the
//! sleep request is converted into a *pulse* by an inverter chain whose
//! length must exceed a clock semi-period; restart is asynchronous
//! (the AER `REQ` feeds the NOR) and costs roughly 100 ns.
//!
//! The oscillator is modelled by its static [`RingOscillatorConfig`]:
//! its period sets the reference clock, and its wake latency is the
//! restart delay the interface's wake path and the behavioural
//! [engine](crate::engine) apply. Its running time and wakes are the
//! clock activity both narrate to a power meter.

use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};

use aetr_sim::time::{Frequency, SimDuration};

/// Static description of a ring oscillator.
///
/// # Examples
///
/// ```
/// use aetr_clockgen::ring::RingOscillatorConfig;
/// use aetr_sim::time::SimDuration;
///
/// let ring = RingOscillatorConfig::igloo_nano();
/// assert!(ring.validate().is_ok());
/// assert_eq!(ring.period(), SimDuration::from_ps(8_320)); // ≈120 MHz
/// assert_eq!(ring.wake_latency, SimDuration::from_ns(100));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RingOscillatorConfig {
    /// Number of inverting stages in the loop; must be odd and ≥ 3.
    pub stages: u32,
    /// Propagation delay of one stage.
    pub stage_delay: SimDuration,
    /// Time from `REQ`-driven restart to the first output edge
    /// (paper §5.2: "in the order of 100 ns").
    pub wake_latency: SimDuration,
    /// Number of inverters in the sleep-pulse shaping chain.
    pub sleep_pulse_stages: u32,
}

impl RingOscillatorConfig {
    /// The prototype configuration: 13 stages × 320 ps ≈ 120 MHz output,
    /// 100 ns wake latency.
    pub fn igloo_nano() -> RingOscillatorConfig {
        RingOscillatorConfig {
            stages: 13,
            stage_delay: SimDuration::from_ps(320),
            wake_latency: SimDuration::from_ns(100),
            sleep_pulse_stages: 30,
        }
    }

    /// Oscillation period: one full traversal of the loop twice
    /// (`2 · stages · stage_delay`).
    pub fn period(&self) -> SimDuration {
        self.stage_delay * (2 * self.stages as u64)
    }

    /// Output frequency.
    pub fn frequency(&self) -> Frequency {
        self.period().to_frequency()
    }

    /// Width of the sleep pulse produced by the shaping chain.
    pub fn sleep_pulse_width(&self) -> SimDuration {
        self.stage_delay * self.sleep_pulse_stages as u64
    }

    /// Validates the electrical constraints of Fig. 5.
    ///
    /// # Errors
    ///
    /// * even or too-short inverter chains cannot oscillate;
    /// * a zero stage delay is non-physical;
    /// * the sleep pulse must outlast a clock semi-period, otherwise the
    ///   oscillator may re-latch and deadlock (paper: "the pulse must be
    ///   longer than a clock semiperiod").
    pub fn validate(&self) -> Result<(), RingOscillatorError> {
        if self.stages < 3 || self.stages.is_multiple_of(2) {
            return Err(RingOscillatorError::InvalidStageCount { stages: self.stages });
        }
        if self.stage_delay.is_zero() {
            return Err(RingOscillatorError::ZeroStageDelay);
        }
        let semi_period = self.period() / 2;
        if self.sleep_pulse_width() <= semi_period {
            return Err(RingOscillatorError::SleepPulseTooShort {
                pulse: self.sleep_pulse_width(),
                semi_period,
            });
        }
        Ok(())
    }
}

impl Default for RingOscillatorConfig {
    fn default() -> Self {
        Self::igloo_nano()
    }
}

/// Configuration errors for the ring oscillator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingOscillatorError {
    /// The inverter count cannot oscillate (even or < 3).
    InvalidStageCount {
        /// Offending stage count.
        stages: u32,
    },
    /// A zero per-stage delay is non-physical.
    ZeroStageDelay,
    /// The sleep pulse would not survive a clock semi-period, risking a
    /// restart deadlock.
    SleepPulseTooShort {
        /// Configured pulse width.
        pulse: SimDuration,
        /// Required minimum (exclusive).
        semi_period: SimDuration,
    },
}

impl fmt::Display for RingOscillatorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RingOscillatorError::InvalidStageCount { stages } => {
                write!(f, "ring oscillator needs an odd stage count >= 3, got {stages}")
            }
            RingOscillatorError::ZeroStageDelay => write!(f, "stage delay must be non-zero"),
            RingOscillatorError::SleepPulseTooShort { pulse, semi_period } => {
                write!(f, "sleep pulse {pulse} must exceed the clock semi-period {semi_period}")
            }
        }
    }
}

impl Error for RingOscillatorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn igloo_nano_hits_120mhz() {
        let cfg = RingOscillatorConfig::igloo_nano();
        cfg.validate().unwrap();
        // 2 * 13 * 320 ps = 8320 ps -> 120.19 MHz
        assert_eq!(cfg.period(), SimDuration::from_ps(8_320));
        let f = cfg.frequency().as_hz_f64();
        assert!((f - 120e6).abs() / 120e6 < 0.01, "frequency {f}");
    }

    #[test]
    fn validation_rejects_even_stages() {
        let cfg = RingOscillatorConfig { stages: 12, ..RingOscillatorConfig::igloo_nano() };
        assert_eq!(cfg.validate(), Err(RingOscillatorError::InvalidStageCount { stages: 12 }));
    }

    #[test]
    fn validation_rejects_short_sleep_pulse() {
        let cfg =
            RingOscillatorConfig { sleep_pulse_stages: 2, ..RingOscillatorConfig::igloo_nano() };
        let err = cfg.validate().unwrap_err();
        assert!(matches!(err, RingOscillatorError::SleepPulseTooShort { .. }));
        assert!(err.to_string().contains("semi-period"));
    }

    #[test]
    fn validation_rejects_zero_delay() {
        let cfg = RingOscillatorConfig {
            stage_delay: SimDuration::ZERO,
            ..RingOscillatorConfig::igloo_nano()
        };
        assert_eq!(cfg.validate(), Err(RingOscillatorError::ZeroStageDelay));
    }

    #[test]
    fn wake_latency_is_about_one_max_freq_period() {
        // Paper: recovery "is in the order of 100 ns; comparable with a
        // single clock period at the max freq" — here the max sampling
        // period is 30 MHz/2 = 66.7 ns, same order as 100 ns.
        let cfg = RingOscillatorConfig::igloo_nano();
        let sampling_period = cfg.period() * 8; // /4 prescale, /2 sampling
        assert!(cfg.wake_latency < sampling_period * 2);
    }
}
