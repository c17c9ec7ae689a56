//! # imp-testutil — shared tolerance assertions
//!
//! Every integration test that compares chip output against an f64 golden
//! reference needs the same three comparisons: element-wise absolute
//! tolerance, the worst absolute divergence, and divergence expressed in
//! ULPs of the kernel's fixed-point format. This crate holds the single
//! copy, so tests and benches agree on semantics (and on failure-message
//! shape) instead of each reimplementing the loop.
//!
//! All helpers take `&[f64]` slices — pass `tensor.data()`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use imp_rram::QFormat;

/// Largest element-wise `|got − want|` between two equal-length slices.
///
/// # Panics
/// Panics when the lengths differ — a length mismatch is a structural
/// bug, not a tolerance question.
pub fn max_abs_diff(got: &[f64], want: &[f64]) -> f64 {
    assert_eq!(
        got.len(),
        want.len(),
        "length mismatch: got {} vs want {}",
        got.len(),
        want.len()
    );
    got.iter()
        .zip(want)
        .fold(0.0f64, |worst, (a, b)| worst.max((a - b).abs()))
}

/// Largest element-wise divergence in ULPs of `format` (one ULP =
/// [`QFormat::epsilon`]).
///
/// # Panics
/// Panics when the lengths differ.
pub fn max_ulps(got: &[f64], want: &[f64], format: QFormat) -> f64 {
    max_abs_diff(got, want) / format.epsilon()
}

/// Asserts every element of `got` is within `tolerance` (absolute) of the
/// corresponding element of `want`.
///
/// # Panics
/// Panics on length mismatch or on the first out-of-tolerance element,
/// naming `label`, the index and both values.
#[track_caller]
pub fn assert_all_close(got: &[f64], want: &[f64], tolerance: f64, label: &str) {
    assert_eq!(
        got.len(),
        want.len(),
        "{label}: length mismatch: got {} vs want {}",
        got.len(),
        want.len()
    );
    for (i, (&a, &b)) in got.iter().zip(want).enumerate() {
        assert!(
            (a - b).abs() <= tolerance,
            "{label}[{i}]: chip {a} vs reference {b} (|diff| {} > tolerance {tolerance})",
            (a - b).abs()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_abs_diff_finds_the_worst_element() {
        assert_eq!(max_abs_diff(&[1.0, 2.0, 3.0], &[1.0, 2.5, 2.9]), 0.5);
        assert_eq!(max_abs_diff(&[], &[]), 0.0);
    }

    #[test]
    fn ulps_scale_with_the_format() {
        // 2⁻¹⁶ absolute is exactly one Q16.16 ULP.
        let eps = QFormat::Q16_16.epsilon();
        assert!((max_ulps(&[1.0 + eps], &[1.0], QFormat::Q16_16) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn close_slices_pass() {
        assert_all_close(&[1.0, 2.0], &[1.0004, 1.9996], 1e-3, "demo");
    }

    #[test]
    #[should_panic(expected = "demo[1]")]
    fn divergent_element_is_named() {
        assert_all_close(&[1.0, 2.0], &[1.0, 2.1], 1e-3, "demo");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_is_structural() {
        max_abs_diff(&[1.0], &[1.0, 2.0]);
    }
}
