//! Percentiles, medians of rounds and the quartile spread.

/// The `p`-th percentile (0–100) of `sorted`, by linear interpolation
/// between the two nearest ranks.  Empty input has no percentile.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let rank = (p / 100.0).clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// (the exclusive method) gives them — the rule the driver applies to the
/// ten-seed spread, so the spread printed here is the one it will see.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let data = sorted(values);
    let n = data.len();
    if n < 2 {
        let only = data.first().copied().unwrap_or(f64::NAN);
        return (only, only);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Inter-quartile distance as a share of the median; 0 when the median is 0.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let mid = median(values);
    if mid == 0.0 || !mid.is_finite() {
        0.0
    } else {
        (q3 - q1).abs() / mid.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 5.5);
        assert!((percentile(&v, 90.0) - 9.1).abs() < 1e-12);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn median_of_rounds_ignores_one_bad_round() {
        // Four quiet rounds and one that ran in a noisy window: the median
        // of the per-round statistic is a quiet round's value.
        assert_eq!(median(&[10.1, 45.0, 9.9, 10.0, 10.2]), 10.1);
        assert_eq!(median(&[4.0, 2.0]), 3.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2, 10, 4], n=4) == [1.5, 3.0, 7.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 10.0, 4.0]), (1.5, 7.0));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }
}
