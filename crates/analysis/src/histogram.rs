//! Histograms with linear or logarithmic binning.
//!
//! Fig. 7b is a probability histogram of timestamp errors; Fig. 6/8
//! sweep log-spaced event rates. Both binning schemes live here.

use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};

/// Binning scheme.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Binning {
    /// `bins` equal-width bins over `[lo, hi)`.
    Linear {
        /// Lower edge.
        lo: f64,
        /// Upper edge.
        hi: f64,
        /// Bin count.
        bins: usize,
    },
    /// `bins` equal-ratio bins over `[lo, hi)`; requires `lo > 0`.
    Logarithmic {
        /// Lower edge (> 0).
        lo: f64,
        /// Upper edge.
        hi: f64,
        /// Bin count.
        bins: usize,
    },
}

/// Invalid binning specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InvalidBinningError {
    /// The rejected specification.
    pub binning: Binning,
}

impl fmt::Display for InvalidBinningError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid binning {:?}: need lo < hi, bins > 0, and lo > 0 for log", self.binning)
    }
}

impl Error for InvalidBinningError {}

/// A populated histogram.
///
/// # Examples
///
/// ```
/// use aetr_analysis::histogram::{Binning, Histogram};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut h = Histogram::new(Binning::Linear { lo: 0.0, hi: 1.0, bins: 10 })?;
/// h.extend([0.05, 0.05, 0.95]);
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.bin_counts()[0], 2);
/// assert!((h.probabilities()[0] - 2.0 / 3.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    binning: Binning,
    counts: Vec<u64>,
    /// Samples below the first bin.
    pub underflow: u64,
    /// Samples at or above the last bin edge.
    pub overflow: u64,
    total: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidBinningError`] for empty ranges, zero bins, or
    /// non-positive log lower edges.
    pub fn new(binning: Binning) -> Result<Histogram, InvalidBinningError> {
        let ok = match binning {
            Binning::Linear { lo, hi, bins } => lo < hi && bins > 0,
            Binning::Logarithmic { lo, hi, bins } => 0.0 < lo && lo < hi && bins > 0,
        };
        if !ok {
            return Err(InvalidBinningError { binning });
        }
        let bins = match binning {
            Binning::Linear { bins, .. } | Binning::Logarithmic { bins, .. } => bins,
        };
        Ok(Histogram { binning, counts: vec![0; bins], underflow: 0, overflow: 0, total: 0 })
    }

    /// Adds one sample.
    pub fn add(&mut self, value: f64) {
        self.total += 1;
        match self.bin_of(value) {
            BinIndex::Under => self.underflow += 1,
            BinIndex::Over => self.overflow += 1,
            BinIndex::In(i) => self.counts[i] += 1,
        }
    }

    /// Adds many samples.
    pub fn extend(&mut self, values: impl IntoIterator<Item = f64>) {
        for v in values {
            self.add(v);
        }
    }

    fn bin_of(&self, value: f64) -> BinIndex {
        match self.binning {
            Binning::Linear { lo, hi, bins } => {
                if value < lo {
                    BinIndex::Under
                } else if value >= hi {
                    BinIndex::Over
                } else {
                    BinIndex::In(((value - lo) / (hi - lo) * bins as f64) as usize)
                }
            }
            Binning::Logarithmic { lo, hi, bins } => {
                if value < lo {
                    BinIndex::Under
                } else if value >= hi {
                    BinIndex::Over
                } else {
                    let t = (value / lo).ln() / (hi / lo).ln();
                    BinIndex::In(((t * bins as f64) as usize).min(bins - 1))
                }
            }
        }
    }

    /// Total samples offered (including under/overflow).
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Raw in-range bin counts.
    pub fn bin_counts(&self) -> &[u64] {
        &self.counts
    }

    /// In-range bin probabilities (each count over the total sample
    /// count; zeros if empty).
    pub fn probabilities(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts.iter().map(|&c| c as f64 / self.total as f64).collect()
    }

    /// `(lower_edge, upper_edge)` of a bin.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bin_edges(&self, i: usize) -> (f64, f64) {
        assert!(i < self.counts.len(), "bin {i} out of range");
        match self.binning {
            Binning::Linear { lo, hi, bins } => {
                let w = (hi - lo) / bins as f64;
                (lo + w * i as f64, lo + w * (i + 1) as f64)
            }
            Binning::Logarithmic { lo, hi, bins } => {
                let r = (hi / lo).powf(1.0 / bins as f64);
                (lo * r.powi(i as i32), lo * r.powi(i as i32 + 1))
            }
        }
    }
}

enum BinIndex {
    Under,
    In(usize),
    Over,
}

/// The `p`-th percentile (0–100) of a sample set, by linear
/// interpolation on the sorted data. `None` for an empty set.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]` or any sample is NaN.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!((0.0..=100.0).contains(&p), "percentile must be 0..=100, got {p}");
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_binning_places_samples() {
        let mut h = Histogram::new(Binning::Linear { lo: 0.0, hi: 10.0, bins: 10 }).unwrap();
        h.extend([0.0, 0.5, 5.5, 9.99]);
        assert_eq!(h.bin_counts()[0], 2);
        assert_eq!(h.bin_counts()[5], 1);
        assert_eq!(h.bin_counts()[9], 1);
    }

    #[test]
    fn under_and_overflow_tracked() {
        let mut h = Histogram::new(Binning::Linear { lo: 0.0, hi: 1.0, bins: 2 }).unwrap();
        h.extend([-0.1, 0.5, 1.0, 2.0]);
        assert_eq!(h.underflow, 1);
        assert_eq!(h.overflow, 2);
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn log_binning_equal_ratios() {
        let h = Histogram::new(Binning::Logarithmic { lo: 100.0, hi: 1e6, bins: 4 }).unwrap();
        let (a0, b0) = h.bin_edges(0);
        let (a1, b1) = h.bin_edges(1);
        assert!((b0 / a0 - b1 / a1).abs() < 1e-9, "equal ratio bins");
        assert!((a0 - 100.0).abs() < 1e-9);
        let (_, btop) = h.bin_edges(3);
        assert!((btop - 1e6).abs() / 1e6 < 1e-9);
    }

    #[test]
    fn log_binning_classifies_decades() {
        let mut h = Histogram::new(Binning::Logarithmic { lo: 1.0, hi: 1000.0, bins: 3 }).unwrap();
        h.extend([2.0, 20.0, 200.0]);
        assert_eq!(h.bin_counts(), &[1, 1, 1]);
    }

    #[test]
    fn probabilities_sum_to_in_range_fraction() {
        let mut h = Histogram::new(Binning::Linear { lo: 0.0, hi: 1.0, bins: 4 }).unwrap();
        h.extend([0.1, 0.2, 0.3, 5.0]);
        let sum: f64 = h.probabilities().iter().sum();
        assert!((sum - 0.75).abs() < 1e-12);
    }

    #[test]
    fn invalid_binnings_rejected() {
        assert!(Histogram::new(Binning::Linear { lo: 1.0, hi: 1.0, bins: 4 }).is_err());
        assert!(Histogram::new(Binning::Linear { lo: 0.0, hi: 1.0, bins: 0 }).is_err());
        assert!(Histogram::new(Binning::Logarithmic { lo: 0.0, hi: 1.0, bins: 4 }).is_err());
    }

    #[test]
    fn percentiles_interpolate() {
        let data = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&data, 0.0), Some(1.0));
        assert_eq!(percentile(&data, 100.0), Some(4.0));
        assert_eq!(percentile(&data, 50.0), Some(2.5));
        assert_eq!(percentile(&[], 50.0), None);
    }
}
