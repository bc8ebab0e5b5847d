//! Sweep grids and the rate-swept workloads.
//!
//! Both evaluation figures sweep the event rate on a log axis (100
//! evt/s – 2 Mevt/s for Fig. 6, 10 evt/s – 800 kevt/s for Fig. 8),
//! with one curve per `θ_div`. This module generates the sweep grids
//! and the seeded stimulus for one point of such a sweep: a Poisson
//! train like Fig. 6's or an LFSR train like Fig. 8's, long enough to
//! hold a requested number of events.

use aetr_aer::generator::{LfsrGenerator, PoissonGenerator, SpikeSource};
use aetr_aer::spike::SpikeTrain;
use aetr_sim::time::{SimDuration, SimTime};

/// `n` log-spaced points over `[lo, hi]`, inclusive of both ends.
///
/// # Panics
///
/// Panics unless `0 < lo < hi` and `n >= 2`.
///
/// # Examples
///
/// ```
/// use aetr_analysis::sweep::log_space;
///
/// let rates = log_space(100.0, 1e6, 5);
/// assert_eq!(rates.len(), 5);
/// assert!((rates[0] - 100.0).abs() < 1e-9);
/// assert!((rates[4] - 1e6).abs() / 1e6 < 1e-9);
/// // Equal ratios between consecutive points.
/// assert!(((rates[1] / rates[0]) - (rates[2] / rates[1])).abs() < 1e-9);
/// ```
pub fn log_space(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(0.0 < lo && lo < hi, "log_space needs 0 < lo < hi, got [{lo}, {hi}]");
    assert!(n >= 2, "log_space needs at least 2 points");
    (0..n)
        .map(|i| {
            let t = i as f64 / (n - 1) as f64;
            lo * (hi / lo).powf(t)
        })
        .collect()
}

/// The workload duration that yields at least `min_events` at
/// `rate_hz`, with a floor so even fast workloads exercise several
/// division/shutdown cycles.
pub fn duration_for_rate(rate_hz: f64, min_events: u64) -> SimTime {
    let secs = (min_events as f64 / rate_hz).max(0.1);
    SimTime::ZERO + SimDuration::from_secs_f64(secs)
}

/// A Poisson workload like the paper's Fig. 6 stimulus, seeded per
/// rate so sweeps are reproducible point by point.
pub fn poisson_workload(rate_hz: f64, seed: u64, min_events: u64) -> (SpikeTrain, SimTime) {
    let horizon = duration_for_rate(rate_hz, min_events);
    let train = PoissonGenerator::new(rate_hz, 64, seed).generate(horizon);
    (train, horizon)
}

/// An LFSR fixed-rate workload like the paper's Fig. 8 power stimulus.
pub fn lfsr_workload(rate_hz: f64, seed: u32, min_events: u64) -> (SpikeTrain, SimTime) {
    let horizon = duration_for_rate(rate_hz, min_events);
    let train = LfsrGenerator::new(rate_hz, seed).generate(horizon);
    (train, horizon)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_space_covers_fig6_range() {
        let rates = log_space(100.0, 2e6, 25);
        assert_eq!(rates.len(), 25);
        assert!(rates.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    #[should_panic(expected = "0 < lo < hi")]
    fn log_space_rejects_zero_lo() {
        let _ = log_space(0.0, 1.0, 3);
    }

    #[test]
    fn duration_scales_inversely_with_rate() {
        let slow = duration_for_rate(10.0, 500);
        let fast = duration_for_rate(1e6, 500);
        assert!(slow > fast);
        assert_eq!(slow, SimTime::from_secs(50));
        assert_eq!(fast, SimTime::from_ms(100), "floor applies");
    }

    #[test]
    fn workloads_hit_requested_event_counts() {
        let (train, _) = poisson_workload(10_000.0, 1, 500);
        assert!(train.len() >= 350, "poisson events {}", train.len());
        let (train, _) = lfsr_workload(10_000.0, 1, 500);
        assert!(train.len() >= 450, "lfsr events {}", train.len());
    }
}
