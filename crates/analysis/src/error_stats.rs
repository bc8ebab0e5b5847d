//! Summary statistics and region classification for timestamp-error
//! sweeps (the analysis layer of Fig. 6).

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::histogram::percentile;

/// Summary of a set of relative-error samples at one operating point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ErrorSummary {
    /// Number of samples.
    pub count: usize,
    /// Mean relative error.
    pub mean: f64,
    /// Median relative error.
    pub median: f64,
    /// 95th-percentile relative error.
    pub p95: f64,
    /// Maximum relative error.
    pub max: f64,
    /// Fraction of saturated timestamps.
    pub saturation_ratio: f64,
}

impl ErrorSummary {
    /// Summarises `(relative_error, saturated)` samples. `None` for an
    /// empty set.
    pub fn of(samples: &[(f64, bool)]) -> Option<ErrorSummary> {
        if samples.is_empty() {
            return None;
        }
        let errors: Vec<f64> = samples.iter().map(|&(e, _)| e).collect();
        let count = errors.len();
        let mean = errors.iter().sum::<f64>() / count as f64;
        let max = errors.iter().cloned().fold(0.0f64, f64::max);
        let saturated = samples.iter().filter(|&&(_, s)| s).count();
        Some(ErrorSummary {
            count,
            mean,
            median: percentile(&errors, 50.0).expect("non-empty"),
            p95: percentile(&errors, 95.0).expect("non-empty"),
            max,
            saturation_ratio: saturated as f64 / count as f64,
        })
    }

    /// The paper's accuracy figure: `1 − mean`.
    pub fn accuracy(&self) -> f64 {
        1.0 - self.mean
    }
}

/// The three operating regions the paper identifies on the Fig. 6
/// error-vs-rate curve (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Region {
    /// Event rate so low the clock is mostly off: timestamps saturate,
    /// events are treated as uncorrelated.
    Inactive,
    /// The design target: the divided-clock methodology is in play and
    /// the error stays below the analytic bound.
    Active,
    /// Inter-spike times approach the undivided sampling period: the
    /// Nyquist limit of the chosen `T_min`, not of the division scheme.
    HighActivity,
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Region::Inactive => "inactive",
            Region::Active => "active",
            Region::HighActivity => "high-activity",
        };
        f.write_str(s)
    }
}

/// Classifies an operating point by its error signature: mostly
/// saturated timestamps mean the clock was off (inactive); a mean
/// inter-spike interval under `high_activity_threshold` (events per
/// second above it) means the clock never gets to divide.
///
/// `max_measurable_secs` is the interface's saturation interval
/// (`SegmentTable::max_measurable`); `t_min_secs` the fastest sampling
/// period.
pub fn classify_region(
    rate_hz: f64,
    saturation_ratio: f64,
    max_measurable_secs: f64,
    theta_div: u32,
    t_min_secs: f64,
) -> Region {
    // Mostly-saturated points are inactive by definition.
    if saturation_ratio > 0.5 {
        return Region::Inactive;
    }
    // Above ~1/(θ·T_min) the first division never happens: the clock is
    // effectively constant-frequency (high-activity).
    let first_division_rate = 1.0 / (theta_div as f64 * t_min_secs);
    if rate_hz >= first_division_rate {
        return Region::HighActivity;
    }
    // With a mean inter-spike interval beyond twice the measurable
    // range, most intervals saturate: inactive even if this particular
    // sample was lucky.
    if rate_hz * max_measurable_secs < 0.5 {
        Region::Inactive
    } else {
        Region::Active
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic_stats() {
        let samples: Vec<(f64, bool)> =
            vec![(0.01, false), (0.02, false), (0.03, false), (1.0, true)];
        let s = ErrorSummary::of(&samples).unwrap();
        assert_eq!(s.count, 4);
        assert!((s.mean - 0.265).abs() < 1e-12);
        assert!((s.median - 0.025).abs() < 1e-12);
        assert_eq!(s.max, 1.0);
        assert!((s.saturation_ratio - 0.25).abs() < 1e-12);
        assert!((s.accuracy() - 0.735).abs() < 1e-12);
    }

    #[test]
    fn empty_summary_is_none() {
        assert_eq!(ErrorSummary::of(&[]), None);
    }

    #[test]
    fn region_classification_prototype_boundaries() {
        // Prototype: T_min ≈ 66.6 ns, θ=64, max measurable ≈ 64 µs.
        let t_min = 66.6e-9;
        let max_meas = 63.9e-6;
        // 100 evt/s, all saturated: inactive.
        assert_eq!(classify_region(100.0, 0.98, max_meas, 64, t_min), Region::Inactive);
        // 100 kevt/s, little saturation: active.
        assert_eq!(classify_region(100_000.0, 0.01, max_meas, 64, t_min), Region::Active);
        // 600 kevt/s: above 1/(64·66.6ns) ≈ 234 kevt/s -> high-activity.
        assert_eq!(classify_region(600_000.0, 0.0, max_meas, 64, t_min), Region::HighActivity);
        // 10 kevt/s: mean ISI 100 µs, past the 64 µs range but under
        // 2x — still mostly measurable, so active.
        assert_eq!(classify_region(10_000.0, 0.3, max_meas, 64, t_min), Region::Active);
        // 5 kevt/s: mean ISI 200 µs, >2x the range: inactive.
        assert_eq!(classify_region(5_000.0, 0.4, max_meas, 64, t_min), Region::Inactive);
        assert_eq!(classify_region(1_000.0, 0.6, max_meas, 64, t_min), Region::Inactive);
    }

    #[test]
    fn region_display() {
        assert_eq!(Region::Active.to_string(), "active");
        assert_eq!(Region::HighActivity.to_string(), "high-activity");
    }
}
