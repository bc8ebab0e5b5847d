//! # aetr-analysis — experiment analysis toolkit
//!
//! Support code for regenerating the paper's evaluation:
//! [histograms](histogram) (Fig. 7b), [error summaries and region
//! classification](error_stats) (Fig. 6), [sweep grids and
//! workloads](sweep) (Figs. 6 & 8), and [table]/[plot] emitters used
//! by every figure harness.
//!
//! # Examples
//!
//! ```
//! use aetr_analysis::error_stats::ErrorSummary;
//! use aetr_analysis::sweep::log_space;
//!
//! let rates = log_space(100.0, 2e6, 9); // the Fig. 6 x axis
//! assert_eq!(rates.len(), 9);
//!
//! let summary = ErrorSummary::of(&[(0.01, false), (0.02, false)]).expect("non-empty");
//! assert!(summary.accuracy() > 0.97);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error_stats;
pub mod fit;
pub mod histogram;
pub mod plot;
pub mod sweep;
pub mod table;

pub use error_stats::{ErrorSummary, Region};
pub use fit::LinearFit;
pub use histogram::{Binning, Histogram};
pub use sweep::log_space;
pub use table::Table;

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use crate::histogram::{percentile, Binning, Histogram};
    use crate::sweep::log_space;

    proptest! {
        /// Every sample lands somewhere: in a bin, underflow or
        /// overflow — conservation of counts.
        #[test]
        fn histogram_conserves_samples(
            values in proptest::collection::vec(-10.0f64..10.0, 0..200),
            bins in 1usize..30,
        ) {
            let mut h = Histogram::new(Binning::Linear { lo: -1.0, hi: 1.0, bins }).unwrap();
            h.extend(values.iter().copied());
            let binned: u64 = h.bin_counts().iter().sum();
            prop_assert_eq!(binned + h.underflow + h.overflow, values.len() as u64);
        }

        /// Log bins have equal ratios and tile the range exactly.
        #[test]
        fn log_bins_tile_range(bins in 1usize..20, lo in 0.001f64..1.0, span in 1.5f64..1e6) {
            let hi = lo * span;
            let h = Histogram::new(Binning::Logarithmic { lo, hi, bins }).unwrap();
            let (first, _) = h.bin_edges(0);
            let (_, last) = h.bin_edges(bins - 1);
            prop_assert!((first - lo).abs() / lo < 1e-9);
            prop_assert!((last - hi).abs() / hi < 1e-6);
            for i in 1..bins {
                prop_assert!((h.bin_edges(i).0 - h.bin_edges(i - 1).1).abs()
                    / h.bin_edges(i).0 < 1e-9);
            }
        }

        /// Percentiles are monotone in p and bounded by the extremes.
        #[test]
        fn percentiles_monotone(
            mut values in proptest::collection::vec(-100.0f64..100.0, 1..100),
            p1 in 0.0f64..100.0,
            p2 in 0.0f64..100.0,
        ) {
            values.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let (lo_p, hi_p) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
            let a = percentile(&values, lo_p).unwrap();
            let b = percentile(&values, hi_p).unwrap();
            prop_assert!(a <= b + 1e-9);
            prop_assert!(*values.first().unwrap() <= a + 1e-9);
            prop_assert!(b <= values.last().unwrap() + 1e-9);
        }

        /// log_space is sorted, bounded and strictly increasing.
        #[test]
        fn log_space_well_formed(lo in 0.001f64..10.0, ratio in 1.1f64..1e5, n in 2usize..50) {
            let hi = lo * ratio;
            let xs = log_space(lo, hi, n);
            prop_assert_eq!(xs.len(), n);
            prop_assert!(xs.windows(2).all(|w| w[1] > w[0]));
            prop_assert!((xs[0] - lo).abs() / lo < 1e-9);
            prop_assert!((xs[n - 1] - hi).abs() / hi < 1e-9);
        }
    }
}
