//! Online (single-pass) statistics.
//!
//! Long simulations produce streams too large to buffer just to
//! compute a mean; [`OnlineStats`] accumulates count/mean/variance/
//! extrema in O(1) memory using Welford's algorithm, numerically
//! stable over billions of samples.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Welford-style running statistics.
///
/// # Examples
///
/// ```
/// use aetr_sim::stats::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.add(x);
/// }
/// assert_eq!(s.count(), 8);
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.population_std_dev() - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> OnlineStats {
        OnlineStats { count: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Adds one sample.
    ///
    /// # Panics
    ///
    /// Panics on NaN (statistics over NaN are meaningless and would
    /// silently poison every later query).
    pub fn add(&mut self, x: f64) {
        assert!(!x.is_nan(), "cannot accumulate NaN");
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Adds many samples.
    pub fn extend(&mut self, values: impl IntoIterator<Item = f64>) {
        for v in values {
            self.add(v);
        }
    }

    /// Samples seen.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Running mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (0 when empty).
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn population_std_dev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Smallest sample (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another accumulator (parallel Welford combine).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.mean += delta * other.count as f64 / total as f64;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl FromIterator<f64> for OnlineStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> OnlineStats {
        let mut s = OnlineStats::new();
        s.extend(iter);
        s
    }
}

impl fmt::Display for OnlineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.count == 0 {
            return write!(f, "n=0");
        }
        write!(
            f,
            "n={}, mean {:.6}, std {:.6}, min {:.6}, max {:.6}",
            self.count,
            self.mean,
            self.population_std_dev(),
            self.min,
            self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_well_defined() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.population_variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.to_string(), "n=0");
    }

    #[test]
    fn matches_two_pass_computation() {
        let data: Vec<f64> = (0..1_000).map(|i| ((i * 37) % 101) as f64 / 7.0).collect();
        let s: OnlineStats = data.iter().copied().collect();
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / data.len() as f64;
        assert!((s.mean() - mean).abs() < 1e-9);
        assert!((s.population_variance() - var).abs() < 1e-9);
        assert_eq!(s.min(), data.iter().cloned().reduce(f64::min));
        assert_eq!(s.max(), data.iter().cloned().reduce(f64::max));
    }

    #[test]
    fn merge_equals_concatenation() {
        let a_data: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let b_data: Vec<f64> = (0..50).map(|i| (i * 3) as f64 - 20.0).collect();
        let mut a: OnlineStats = a_data.iter().copied().collect();
        let b: OnlineStats = b_data.iter().copied().collect();
        a.merge(&b);
        let all: OnlineStats = a_data.iter().chain(&b_data).copied().collect();
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.population_variance() - all.population_variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a: OnlineStats = [1.0, 2.0].into_iter().collect();
        let before = a;
        a.merge(&OnlineStats::new());
        assert_eq!(a, before);
        let mut e = OnlineStats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn population_variance_divides_by_count() {
        let s: OnlineStats = [1.0, 3.0].into_iter().collect();
        assert!((s.population_variance() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_panics() {
        OnlineStats::new().add(f64::NAN);
    }
}

#[cfg(test)]
mod merge_properties {
    use proptest::prelude::*;

    use super::*;

    /// Tolerant equality for accumulator states: counts and extrema
    /// exact, mean/variance within floating-point reassociation noise.
    fn assert_close(a: &OnlineStats, b: &OnlineStats) {
        assert_eq!(a.count(), b.count());
        assert_eq!(a.min(), b.min());
        assert_eq!(a.max(), b.max());
        let scale = 1.0 + a.mean().abs().max(b.mean().abs());
        assert!((a.mean() - b.mean()).abs() <= 1e-9 * scale, "mean {} vs {}", a.mean(), b.mean());
        let vscale = 1.0 + a.population_variance().abs().max(b.population_variance().abs());
        assert!(
            (a.population_variance() - b.population_variance()).abs() <= 1e-6 * vscale,
            "variance {} vs {}",
            a.population_variance(),
            b.population_variance()
        );
    }

    fn samples() -> impl Strategy<Value = Vec<f64>> {
        proptest::collection::vec(-1e6..1e6f64, 0..40)
    }

    proptest! {
        #[test]
        fn merge_is_commutative(xs in samples(), ys in samples()) {
            let a: OnlineStats = xs.iter().copied().collect();
            let b: OnlineStats = ys.iter().copied().collect();
            let mut ab = a;
            ab.merge(&b);
            let mut ba = b;
            ba.merge(&a);
            assert_close(&ab, &ba);
        }

        #[test]
        fn merge_is_associative(xs in samples(), ys in samples(), zs in samples()) {
            let a: OnlineStats = xs.iter().copied().collect();
            let b: OnlineStats = ys.iter().copied().collect();
            let c: OnlineStats = zs.iter().copied().collect();
            // (a ∪ b) ∪ c
            let mut left = a;
            left.merge(&b);
            left.merge(&c);
            // a ∪ (b ∪ c)
            let mut bc = b;
            bc.merge(&c);
            let mut right = a;
            right.merge(&bc);
            assert_close(&left, &right);
        }

        #[test]
        fn merge_equals_sequential_accumulation(xs in samples(), ys in samples()) {
            let mut merged: OnlineStats = xs.iter().copied().collect();
            merged.merge(&ys.iter().copied().collect());
            let sequential: OnlineStats = xs.iter().chain(&ys).copied().collect();
            assert_close(&merged, &sequential);
        }
    }
}
