//! Order statistics for repeated host measurements and exact latency
//! samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default *exclusive* method), so a spread computed here equals the one an
//! outside checker computes from the same values.

/// Sort a copy of `values` ascending (NaN is a bug in the caller).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a measurement series"));
    v
}

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice: a metric with no measurement is a runner bug.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `(q1, q2, q3)` by the exclusive method; `None` below two values, where
/// no quartile is defined.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Median and quartiles of one metric over the repetitions of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Every kept repetition's value, in run order.
    pub values: Vec<f64>,
    /// Median of `values`.
    pub median: f64,
    /// First quartile (the median itself when only one value exists).
    pub q1: f64,
    /// Third quartile (the median itself when only one value exists).
    pub q3: f64,
}

impl Summary {
    /// Summarise `values` (at least one).
    pub fn of(values: Vec<f64>) -> Self {
        let median = median(&values);
        let (q1, q3) = quartiles(&values).map_or((median, median), |(a, _, b)| (a, b));
        Summary { values, median, q1, q3 }
    }

    /// Inter-quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        spread(self.median, self.q1, self.q3)
    }
}

/// Inter-quartile distance as a share of the median (0 for a zero median,
/// which only exact counters produce).
pub fn spread(median: f64, q1: f64, q3: f64) -> f64 {
    if median == 0.0 {
        0.0
    } else {
        (q3 - q1) / median.abs()
    }
}

/// The 1-based nearest rank of the `p`-th percentile among `n >= 1` samples:
/// `ceil(p/100 · n)`, at least 1. The product is nudged down by a part in
/// 10⁹ so that binary rounding (99.9 % of 10 000 is 9990.000000000002 in
/// `f64`) cannot push an exact rank up by one.
fn nearest_rank(n: usize, p: f64) -> usize {
    assert!((0.0..=100.0).contains(&p), "percentile {p} outside [0, 100]");
    let exact = p * n as f64 / 100.0;
    ((exact * (1.0 - 1e-9)).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending sample: the smallest sample with
/// at least `p` percent of the samples at or below it. No interpolation, so
/// the value is one that was actually observed.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// How many of `n` samples lie strictly beyond the nearest-rank `p`-th
/// percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - nearest_rank(n, p)
}

/// A percentile is reportable when at least ten samples lie beyond it.
pub fn percentile_supported(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= 10
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[30.0, 10.0, 20.0]), Some((10.0, 20.0, 30.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        // statistics.quantiles([2, 4, 4, 5, 9], n=4) == [3.0, 4.0, 7.0]
        assert_eq!(quartiles(&[2.0, 4.0, 4.0, 5.0, 9.0]), Some((3.0, 4.0, 7.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn summary_spread_is_iqr_over_median() {
        let s = Summary::of((1..=10).map(f64::from).collect());
        assert_eq!(s.median, 5.5);
        assert!((s.spread() - 1.0).abs() < 1e-12);
        let one = Summary::of(vec![4.0]);
        assert_eq!((one.q1, one.q3, one.spread()), (4.0, 4.0, 0.0));
    }

    #[test]
    fn nearest_rank_percentiles_are_observed_values() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 500.0);
        assert_eq!(percentile_sorted(&v, 99.0), 990.0);
        assert_eq!(percentile_sorted(&v, 99.9), 999.0);
        assert_eq!(percentile_sorted(&v, 100.0), 1000.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[5.0], 99.9), 5.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p99.9 of 10 000 samples leaves exactly ten beyond; 9 999 leaves nine.
        assert_eq!(samples_beyond(10_000, 99.9), 10);
        assert!(percentile_supported(10_000, 99.9));
        assert!(!percentile_supported(9_999, 99.9));
        // p99 needs a thousand samples, the median twenty.
        assert!(percentile_supported(1_000, 99.0));
        assert!(!percentile_supported(999, 99.0));
        assert!(percentile_supported(20, 50.0));
        assert!(!percentile_supported(19, 50.0));
        assert_eq!(samples_beyond(0, 50.0), 0);
    }
}
