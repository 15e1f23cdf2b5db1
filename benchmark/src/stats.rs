//! Order statistics the benchmark reports: medians, quartiles and the
//! highest percentile a sample can support.

/// Fewest samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    v
}

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The smallest of `values`: the time of the repetition the host's other
/// tenants disturbed least.
pub fn fastest(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "fastest of no samples");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the "exclusive" method), so that spreads computed here match
/// the ones the driver computes. Needs at least two samples.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= 2, "quartiles need two samples");
    let at = |k: usize| {
        // position k*(n+1)/4, 1-based, clamped into the sample
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Distance between the quartiles as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// The `p`-th percentile by nearest rank, and how many samples lie beyond
/// it.
pub fn nearest_rank(values: &[f64], p: f64) -> (f64, usize) {
    assert!((0.0..100.0).contains(&p), "percentile out of range");
    let v = sorted(values);
    assert!(!v.is_empty(), "percentile of no samples");
    let rank = (((p / 100.0) * v.len() as f64).ceil() as usize).max(1);
    (v[rank - 1], v.len() - rank)
}

/// The `p`-th percentile (nearest rank), or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it: a tail read off a handful of
/// samples is noise, and the caller must report a lower percentile.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let (v, beyond) = nearest_rank(values, p);
    (beyond >= MIN_BEYOND).then_some(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), 1.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        // p95 of 200 samples has exactly 10 beyond it
        assert_eq!(percentile(&v, 95.0), Some(190.0));
        assert_eq!(percentile(&v, 50.0), Some(100.0));
        // p99 would leave only 2 beyond it
        assert_eq!(percentile(&v, 99.0), None);
        assert_eq!(percentile(&v[..199], 95.0), None);
        assert_eq!(percentile(&[1.0; 10], 0.0), None);
        assert_eq!(percentile(&[1.0; 11], 0.0), Some(1.0));
    }
}
