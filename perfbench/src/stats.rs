//! Order statistics used by the benchmark's metrics.
//!
//! Percentiles use the nearest-rank rule (the same rule as
//! `aria_sim::stats::percentile`) with the quantile given in per-mille,
//! so the rank is exact integer arithmetic: p99 over 1000 samples is
//! rank 990, with exactly 10 samples beyond it.

/// A reported tail percentile must have at least this many samples
/// strictly beyond it; otherwise it is an extrapolation, not a
/// measurement.
pub const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of quantile `per_mille / 1000` among `n`
/// samples (`n >= 1`).
pub fn rank(n: usize, per_mille: u32) -> usize {
    assert!(per_mille <= 1000, "quantile above 1000 per mille");
    let scaled = n * per_mille as usize;
    scaled.div_ceil(1000).clamp(1, n.max(1))
}

/// How many of `n` samples lie beyond the `per_mille` nearest-rank
/// percentile.
pub fn samples_beyond(n: usize, per_mille: u32) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, per_mille)
    }
}

/// Whether `n` samples support reporting the `per_mille` percentile
/// under the [`MIN_BEYOND`] rule.
pub fn supports(n: usize, per_mille: u32) -> bool {
    samples_beyond(n, per_mille) >= MIN_BEYOND
}

/// Nearest-rank percentile of an ascending-sorted slice (0 when empty).
pub fn percentile(sorted: &[f64], per_mille: u32) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "percentile input must be sorted"
    );
    sorted[rank(sorted.len(), per_mille) - 1]
}

/// Median of `values` (mean of the middle pair for even counts; 0 when
/// empty). Reorders `values`.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Whether another measured unit of work fits in a run of `seconds`
/// after `units` units took `elapsed` seconds: the first always runs,
/// and another starts only if, at the pace so far, it ends in time.
pub fn another_fits(elapsed: f64, units: usize, seconds: f64) -> bool {
    units == 0 || elapsed + elapsed / units as f64 <= seconds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units_run_only_while_they_fit() {
        assert!(another_fits(0.0, 0, 0.0));
        assert!(another_fits(100.0, 0, 15.0));
        assert!(!another_fits(14.6, 1, 15.0));
        assert!(another_fits(7.0, 1, 15.0));
        assert!(another_fits(14.0, 50, 15.0));
        assert!(!another_fits(14.9, 50, 15.0));
    }

    #[test]
    fn p99_of_a_thousand_leaves_exactly_ten_beyond() {
        assert_eq!(rank(1000, 990), 990);
        assert_eq!(samples_beyond(1000, 990), 10);
        assert!(supports(1000, 990));
        assert!(!supports(999, 990));
        assert!(supports(2000, 990));
    }

    #[test]
    fn ranks_are_clamped_and_exact() {
        assert_eq!(rank(1, 500), 1);
        assert_eq!(rank(1, 0), 1);
        assert_eq!(rank(10, 1000), 10);
        assert_eq!(rank(3, 500), 2);
        assert_eq!(samples_beyond(0, 990), 0);
        assert!(!supports(0, 500));
        // The median of 20 samples has 10 beyond it; of 19, only 9.
        assert!(supports(20, 500));
        assert!(!supports(19, 500));
    }

    #[test]
    fn percentile_matches_the_simulator_rule() {
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 990), 990.0);
        assert_eq!(percentile(&sorted, 500), 500.0);
        assert_eq!(
            percentile(&sorted, 990),
            aria_sim::stats::percentile(&sorted, 0.99)
        );
        assert_eq!(percentile(&[], 500), 0.0);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }
}
