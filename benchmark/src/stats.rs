//! Order statistics for the benchmark's samples.

/// Median of `values` (mean of the two middle values for an even
/// count, like Python's `statistics.median`).
///
/// # Panics
/// Panics on an empty slice: every caller has taken at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail percentile the choosing-metrics guide asks for: p90 when
/// there are at least ten samples beyond it, else the highest
/// percentile that still has ten samples beyond it. With fewer than 21
/// samples that percentile would lie below the median and say nothing
/// about the tail, so the maximum is returned instead. Returns
/// `(percentile, value)`; selection is nearest-rank on the sorted
/// samples.
pub fn tail_percentile(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    // index of the sample with exactly `beyond` samples above it
    let idx_p90 = ((0.90 * n as f64).ceil() as usize).clamp(1, n) - 1;
    let idx = if n > 20 { idx_p90.min(n - 11) } else { n - 1 };
    ((idx + 1) as f64 / n as f64, v[idx])
}

/// First and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Inter-quartile distance as a share of the median — the run-to-run
/// spread the acceptance rule compares with a metric's bound.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // 200 samples 1..=200: p90 is the 180th, 20 samples beyond it
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), (0.90, 180.0));
        // 40 samples: p90 would leave only 4 beyond; fall back to the
        // 30th of 40 (p75), which has exactly ten beyond
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), (0.75, 30.0));
        // too few samples for a tail above the median: the maximum
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), (1.0, 20.0));
        let v: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(tail_percentile(&v).1, 11.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15, 40, 120]
        assert_eq!(quartiles(&[160.0, 10.0, 40.0, 20.0, 80.0]), (15.0, 120.0));
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
    }
}
