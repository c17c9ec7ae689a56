//! Summary statistics over job samples.

/// Percentile rungs a tail is read at, highest first. Higher rungs read
/// host hiccups rather than the program, and a fixed top rung keeps the
/// reported percentile the same from run to run.
pub const TAIL_RUNGS: [f64; 2] = [90.0, 50.0];

/// Samples that must lie strictly beyond a tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A latency tail: the value at `percentile`, with the sample counts that
/// make it trustworthy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub samples: usize,
    pub beyond: usize,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of an ascending slice: the value at rank
/// `ceil(p / 100 * n)` (1-based), plus how many samples lie beyond it.
/// The rank is computed in tenths of a percent with integers, so 99% of
/// 1,000 is exactly rank 990.
fn nearest_rank(sorted: &[f64], p: f64) -> (f64, usize) {
    let n = sorted.len();
    let tenths = (p * 10.0).round() as usize;
    let rank = (tenths * n).div_ceil(1000).clamp(1, n);
    (sorted[rank - 1], n - rank)
}

/// Nearest-rank percentile `p` (0–100); `NaN` when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return f64::NAN;
    }
    nearest_rank(&v, p).0
}

/// Median (mean of the middle pair for even counts); `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; `NaN` when empty.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Geometric mean of positive values; `NaN` when empty or when any value
/// is not positive.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || v.is_nan()) {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// The highest rung of [`TAIL_RUNGS`] that has at least
/// [`TAIL_MIN_BEYOND`] samples beyond it. `None` when even the median
/// lacks them.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let v = sorted(values);
    if v.is_empty() {
        return None;
    }
    TAIL_RUNGS.iter().find_map(|&p| {
        let (value, beyond) = nearest_rank(&v, p);
        (beyond >= TAIL_MIN_BEYOND).then_some(Tail {
            percentile: p,
            value,
            samples: v.len(),
            beyond,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_by_nearest_rank() {
        let v: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 10.0), 2.0);
        assert_eq!(percentile(&v, 100.0), 20.0);
        assert_eq!(percentile(&[4.0, 9.0], 10.0), 4.0);
        assert!(percentile(&[], 10.0).is_nan());
    }

    #[test]
    fn mean_of_three() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn geomean_of_powers_of_two() {
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[7.5]) - 7.5).abs() < 1e-12);
    }

    #[test]
    fn geomean_rejects_empty_and_non_positive() {
        assert!(geomean(&[]).is_nan());
        assert!(geomean(&[1.0, 0.0]).is_nan());
        assert!(geomean(&[1.0, -2.0]).is_nan());
    }

    #[test]
    fn geomean_is_not_drowned_by_one_fast_row() {
        // One row 100x faster than the rest moves the arithmetic mean a
        // lot more than the geometric one.
        let rows = [1.0, 1.0, 1.0, 100.0];
        assert!(geomean(&rows) < 4.0);
        assert!(mean(&rows) > 25.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1..=100: p90 is 90 with exactly 10 samples beyond.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v).expect("p90 qualifies");
        assert_eq!(
            (t.percentile, t.value, t.beyond, t.samples),
            (90.0, 90.0, 10, 100)
        );
        // 99 samples leave only 9 beyond p90: fall back to the median.
        let t = tail(&v[..99]).expect("p50 qualifies");
        assert_eq!((t.percentile, t.value, t.beyond), (50.0, 50.0, 49));
    }

    #[test]
    fn tail_stays_at_p90_for_large_counts() {
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        let t = tail(&v).expect("p90 qualifies");
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 9000.0, 1000));
    }

    #[test]
    fn tail_is_order_independent() {
        let mut v: Vec<f64> = (1..=200).map(f64::from).collect();
        v.reverse();
        assert_eq!(tail(&v).expect("p90").value, 180.0);
    }

    #[test]
    fn tail_needs_ten_beyond_the_median() {
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&v), None);
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        let t = tail(&v).expect("p50 qualifies");
        assert_eq!((t.percentile, t.beyond), (50.0, 10));
        assert_eq!(tail(&[]), None);
    }
}
