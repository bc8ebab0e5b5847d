//! Order statistics over timing samples.

/// Median of `samples` (mean of the two middle values for an even
/// count); `0.0` for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Zero-based nearest-rank index of percentile `pct` in `n` sorted
/// samples.
fn rank(n: usize, pct: f64) -> usize {
    ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Samples strictly beyond the nearest-rank `pct` percentile of `n`.
fn beyond(n: usize, pct: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, pct)
    }
}

/// A tail-latency reading: the percentile used, its value, and how many
/// samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile, e.g. `99.9`.
    pub pct: f64,
    /// Sample value at that percentile.
    pub value: f64,
    /// Samples strictly beyond it.
    pub beyond: usize,
    /// Total samples.
    pub samples: usize,
}

/// Percentile ladder a tail is read from, highest last.
const LADDER: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// The tail at `design_pct` (the highest ladder rung a workload's
/// full-length run keeps at least ten samples beyond), falling back
/// down the ladder when a shorter run has too few samples.
///
/// The percentile is fixed per workload rather than re-chosen from each
/// run's sample count, so a faster program never reads a higher (and
/// slower) percentile than its parent did.
pub fn tail(samples: &[f64], design_pct: f64) -> Tail {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let pct = LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| p <= design_pct && beyond(n, p) >= 10)
        .unwrap_or(LADDER[0]);
    let value = if n == 0 { 0.0 } else { sorted[rank(n, pct)] };
    Tail { pct, value, beyond: beyond(n, pct), samples: n }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&samples, 99.9);
        assert_eq!((t.pct, t.value, t.beyond), (99.0, 990.0, 10));
        let t = tail(&samples, 90.0);
        assert_eq!((t.pct, t.value, t.beyond), (90.0, 900.0, 100));
        let t = tail(&samples[..15], 99.9);
        assert_eq!(t.pct, 50.0, "too few samples for any higher rung");
    }
}
