#![warn(missing_docs)]
//! Measurement infrastructure for the *Fast Procedure Calls* reproduction.
//!
//! Every experiment in the paper reduces to counting things — memory
//! references, instruction bytes, transfer events, frame words — and
//! summarising them as rates, histograms and small tables. This crate
//! provides those primitives so that the simulator crates stay free of
//! formatting concerns.
//!
//! # Example
//!
//! ```
//! use fpc_stats::Histogram;
//!
//! let mut sizes = Histogram::new();
//! for s in [12u64, 20, 20, 44, 300] {
//!     sizes.record(s);
//! }
//! assert_eq!(sizes.count(), 5);
//! assert!(sizes.fraction_below(80) >= 0.8);
//! ```

mod counter;
mod histogram;
mod table;

pub use counter::Counter;
pub use histogram::{merged_quantiles, Histogram};
pub use table::{Align, Table};

/// A ratio of two event counts, rendered as a percentage.
///
/// Guards against division by zero: an empty denominator yields `0.0`.
///
/// ```
/// assert_eq!(fpc_stats::percentage(1, 4), 25.0);
/// assert_eq!(fpc_stats::percentage(3, 0), 0.0);
/// ```
pub fn percentage(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        100.0 * numerator as f64 / denominator as f64
    }
}

/// Arithmetic mean of a slice, `0.0` when empty.
///
/// ```
/// assert_eq!(fpc_stats::mean(&[2.0, 4.0]), 3.0);
/// assert_eq!(fpc_stats::mean(&[]), 0.0);
/// ```
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Geometric mean of a slice of positive values, `0.0` when empty.
///
/// Used when averaging ratios across workloads (cycles-per-call relative
/// to a jump, space expansion factors), where the arithmetic mean would
/// over-weight outliers.
///
/// ```
/// let g = fpc_stats::geomean(&[1.0, 4.0]);
/// assert!((g - 2.0).abs() < 1e-12);
/// ```
///
/// # Panics
///
/// Panics if any value is not strictly positive.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geomean requires positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentage_basic() {
        assert_eq!(percentage(0, 10), 0.0);
        assert_eq!(percentage(10, 10), 100.0);
        assert!((percentage(1, 3) - 33.333).abs() < 0.01);
    }

    #[test]
    fn percentage_zero_denominator_is_zero() {
        assert_eq!(percentage(42, 0), 0.0);
    }

    #[test]
    fn mean_handles_empty_and_single() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[7.5]), 7.5);
    }

    #[test]
    fn geomean_of_identical_values_is_that_value() {
        let g = geomean(&[3.0, 3.0, 3.0]);
        assert!((g - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        let _ = geomean(&[1.0, 0.0]);
    }
}
