//! Least-squares line fitting.
//!
//! The Fig. 8 analysis fits the ideal energy-proportional line
//! `P(r) = E_spike·r + P_static`; this module provides the ordinary
//! least-squares machinery to do such fits on measured sweep data and
//! judge their quality (R²).

use serde::{Deserialize, Serialize};

/// An ordinary least-squares line fit `y = slope·x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinearFit {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination in `[0, 1]` (1 = perfect line).
    pub r_squared: f64,
    /// Points used.
    pub n: usize,
}

impl LinearFit {
    /// Fits `(x, y)` points. Returns `None` for fewer than two points
    /// or a degenerate (zero-variance) x.
    ///
    /// # Examples
    ///
    /// ```
    /// use aetr_analysis::fit::LinearFit;
    ///
    /// let points: Vec<(f64, f64)> = (0..10).map(|i| {
    ///     let x = i as f64;
    ///     (x, 3.0 * x + 1.0)
    /// }).collect();
    /// let fit = LinearFit::of(&points).expect("well-posed");
    /// assert!((fit.slope - 3.0).abs() < 1e-9);
    /// assert!((fit.intercept - 1.0).abs() < 1e-9);
    /// assert!(fit.r_squared > 0.999);
    /// ```
    pub fn of(points: &[(f64, f64)]) -> Option<LinearFit> {
        let n = points.len();
        if n < 2 {
            return None;
        }
        let nf = n as f64;
        let mean_x = points.iter().map(|&(x, _)| x).sum::<f64>() / nf;
        let mean_y = points.iter().map(|&(_, y)| y).sum::<f64>() / nf;
        let sxx: f64 = points.iter().map(|&(x, _)| (x - mean_x).powi(2)).sum();
        if sxx == 0.0 {
            return None;
        }
        let sxy: f64 = points.iter().map(|&(x, y)| (x - mean_x) * (y - mean_y)).sum();
        let slope = sxy / sxx;
        let intercept = mean_y - slope * mean_x;
        let ss_tot: f64 = points.iter().map(|&(_, y)| (y - mean_y).powi(2)).sum();
        let ss_res: f64 = points.iter().map(|&(x, y)| (y - (slope * x + intercept)).powi(2)).sum();
        let r_squared = if ss_tot == 0.0 { 1.0 } else { (1.0 - ss_res / ss_tot).max(0.0) };
        Some(LinearFit { slope, intercept, r_squared, n })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_is_recovered() {
        let pts: Vec<(f64, f64)> = (0..50).map(|i| (i as f64, -2.0 * i as f64 + 7.0)).collect();
        let fit = LinearFit::of(&pts).unwrap();
        assert!((fit.slope + 2.0).abs() < 1e-12);
        assert!((fit.intercept - 7.0).abs() < 1e-10);
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
    }

    #[test]
    fn noise_lowers_r_squared_but_not_much() {
        // Deterministic pseudo-noise around a line.
        let pts: Vec<(f64, f64)> = (0..100)
            .map(|i| {
                let x = i as f64;
                let noise = ((i * 2654435761u64 % 1000) as f64 / 1000.0 - 0.5) * 4.0;
                (x, 0.5 * x + 10.0 + noise)
            })
            .collect();
        let fit = LinearFit::of(&pts).unwrap();
        assert!((fit.slope - 0.5).abs() < 0.02, "slope {}", fit.slope);
        assert!(fit.r_squared > 0.97, "r2 {}", fit.r_squared);
    }

    #[test]
    fn degenerate_inputs_are_none() {
        assert!(LinearFit::of(&[]).is_none());
        assert!(LinearFit::of(&[(1.0, 2.0)]).is_none());
        assert!(LinearFit::of(&[(3.0, 1.0), (3.0, 5.0)]).is_none(), "vertical line");
    }

    #[test]
    fn flat_data_fits_zero_slope() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 4.5)).collect();
        let fit = LinearFit::of(&pts).unwrap();
        assert_eq!(fit.slope, 0.0);
        assert_eq!(fit.intercept, 4.5);
        assert_eq!(fit.r_squared, 1.0);
    }
}
