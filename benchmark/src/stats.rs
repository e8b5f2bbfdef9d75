//! Order statistics the harness reports: nearest-rank percentiles for
//! latency samples, the conventional median and the better-side quartile
//! for repetition values, and the exclusive-method quartiles Python's `statistics.quantiles(v, n=4)`
//! returns (the acceptance procedure computes its spreads with those, so
//! `compare` must print the same numbers).

/// Nearest-rank percentile of an ascending slice: the smallest element
/// with at least `p` percent of the sample at or below it.
///
/// # Panics
/// Panics on an empty slice or `p` outside `(0, 100]`.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of range");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (mean of the two middle elements for an even
/// count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(q1, q3)` as `statistics.quantiles(values, n=4)` computes them
/// (exclusive method); `None` below two samples, where Python raises.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// The quartile of `values` on the better side: the first where lower is
/// better, the third where higher is. A single value is its own quartile.
///
/// # Panics
/// Panics on an empty slice.
pub fn fast_quartile(values: &[f64], higher_is_better: bool) -> f64 {
    match quartiles(values) {
        Some((_, q3)) if higher_is_better => q3,
        Some((q1, _)) => q1,
        None => values[0],
    }
}

/// Interquartile range as a share of the median — the spread the
/// acceptance procedure bounds. 0 below two samples.
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, q3)) => (q3 - q1) / median(values).abs().max(f64::MIN_POSITIVE),
        None => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile_matches_the_textbook_example() {
        let v = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 5.0), 15.0);
        assert_eq!(percentile(&v, 30.0), 20.0);
        assert_eq!(percentile(&v, 40.0), 20.0);
        assert_eq!(percentile(&v, 50.0), 35.0);
        assert_eq!(percentile(&v, 99.0), 50.0);
        assert_eq!(percentile(&v, 100.0), 50.0);
        assert_eq!(percentile(&[7u64], 99.0), 7);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[9.0]), 9.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), Some((1.5, 12.0)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some((7.5, 22.5)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(fast_quartile(&v, false), 2.75);
        assert_eq!(fast_quartile(&v, true), 8.25);
        assert_eq!(fast_quartile(&[3.0], true), 3.0);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
