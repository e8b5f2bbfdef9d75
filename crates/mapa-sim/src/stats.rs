//! Distribution statistics for result tables (Table 3, Fig. 13/18
//! box plots).

/// Five-number summary of a sample (the box-plot statistics the paper
/// reports: MIN / 25th / 50th / 75th / MAX).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Smallest sample.
    pub min: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// 75th percentile.
    pub p75: f64,
    /// Largest sample.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample count.
    pub count: usize,
}

/// Linear-interpolated percentile of a sorted slice, `p` in `[0, 100]`.
///
/// # Panics
/// Panics on an empty slice or `p` outside `[0, 100]`.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty sample");
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "input must be sorted"
    );
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Computes the five-number summary (plus mean) of `values`.
///
/// # Panics
/// Panics on empty input.
#[must_use]
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "summary of empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Summary {
        min: sorted[0],
        p25: percentile(&sorted, 25.0),
        p50: percentile(&sorted, 50.0),
        p75: percentile(&sorted, 75.0),
        max: *sorted.last().expect("non-empty"),
        mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
        count: sorted.len(),
    }
}

/// Scheduling-overhead report: the §5.4 per-job decision-latency
/// distribution together with the allocation-cache counters of the run.
/// This is the one reporting path shared by the Fig. 19 benchmark, the
/// simulator log file, and [`crate::SimReport::scheduling_stats`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulingStats {
    /// Five-number summary (plus mean) of per-job scheduling latency, ms.
    pub latency_ms: Summary,
    /// Cache hit/miss counters; `None` when the run was uncached.
    pub cache: Option<mapa_core::CacheStats>,
}

impl SchedulingStats {
    /// Cache hit rate of the run, 0 when uncached or no lookups happened.
    #[must_use]
    pub fn cache_hit_rate(&self) -> f64 {
        self.cache.map_or(0.0, |c| c.hit_rate())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 25.0), 2.0);
        // Interpolated between ranks.
        let w = [0.0, 10.0];
        assert_eq!(percentile(&w, 75.0), 7.5);
    }

    #[test]
    fn summary_of_known_sample() {
        let s = summarize(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.p50, 3.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.count, 5);
    }

    #[test]
    fn single_sample() {
        let s = summarize(&[7.0]);
        assert_eq!(s.min, 7.0);
        assert_eq!(s.p25, 7.0);
        assert_eq!(s.p75, 7.0);
        assert_eq!(s.max, 7.0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_summary_panics() {
        let _ = summarize(&[]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_percentile_panics() {
        let _ = percentile(&[1.0], 101.0);
    }

    #[test]
    fn percentiles_are_monotone_in_p() {
        let v = [2.0, 9.0, 4.0, 7.0, 7.0, 1.0, 5.0];
        let mut sorted = v.to_vec();
        sorted.sort_by(f64::total_cmp);
        let mut prev = f64::NEG_INFINITY;
        for p in 0..=20 {
            let q = percentile(&sorted, p as f64 * 5.0);
            assert!(q >= prev);
            prev = q;
        }
    }
}
