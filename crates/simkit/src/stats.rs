//! Measurement collection for experiments.
//!
//! The paper reports means, log-scale latency curves, and candlestick
//! (min/quartile/max) summaries (Fig. 13). Experiments here are
//! small enough that we keep exact samples and compute summaries directly —
//! no sketches, no reservoir sampling, fully reproducible.

use crate::time::SimDuration;

/// Five-number summary used for candlestick plots (paper Fig. 13).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candlestick {
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
}

/// An exact sample collection with percentile queries.
#[derive(Debug, Clone, Default)]
pub struct SampleSeries {
    samples: Vec<f64>,
    sorted: bool,
}

impl SampleSeries {
    /// Empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    pub fn record(&mut self, x: f64) {
        self.samples.push(x);
        self.sorted = false;
    }

    /// Record a duration sample in microseconds (the unit the paper plots).
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_micros_f64());
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Percentile in `[0, 100]` by linear interpolation between the two
    /// closest ranks. Returns 0 for an empty series.
    pub fn percentile(&mut self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile must be in [0,100]");
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let rank = p / 100.0 * (self.samples.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        if lo == hi {
            self.samples[lo]
        } else {
            let frac = rank - lo as f64;
            self.samples[lo] * (1.0 - frac) + self.samples[hi] * frac
        }
    }

    /// [`SampleSeries::percentile`] for a series queried once: the same
    /// value bit for bit, found by selection (`O(n)`, no scratch buffer)
    /// instead of a full sort. The samples are left partitioned, not
    /// ascending; callers that read [`SampleSeries::samples`] afterwards or
    /// query repeatedly want `percentile`.
    pub fn percentile_once(&mut self, p: f64) -> f64 {
        if self.sorted || self.samples.is_empty() {
            return self.percentile(p);
        }
        assert!((0.0..=100.0).contains(&p), "percentile must be in [0,100]");
        let rank = p / 100.0 * (self.samples.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let (_, at_lo, above) =
            self.samples.select_nth_unstable_by(lo, |a, b| a.partial_cmp(b).expect("NaN sample"));
        let at_lo = *at_lo;
        if lo == hi {
            at_lo
        } else {
            // Rank `lo + 1` is the smallest sample of the upper partition.
            let at_hi = above.iter().copied().fold(f64::INFINITY, f64::min);
            let frac = rank - lo as f64;
            at_lo * (1.0 - frac) + at_hi * frac
        }
    }

    /// Five-number candlestick summary.
    pub fn candlestick(&mut self) -> Candlestick {
        Candlestick {
            min: self.percentile(0.0),
            p25: self.percentile(25.0),
            p50: self.percentile(50.0),
            p75: self.percentile(75.0),
            max: self.percentile(100.0),
        }
    }

    /// Borrow the raw samples (unsorted insertion order is not preserved
    /// after a percentile query).
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
            self.sorted = true;
        }
    }
}

/// A power-of-two-bucketed histogram for latency-class quantities: bucket
/// `i` counts samples in `[2^i, 2^(i+1))` of the base unit. Cheap to
/// record, compact to print, adequate when the exact-sample
/// [`SampleSeries`] would grow too large.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram covering `[1, 2^48)` of the base unit.
    pub fn new() -> Self {
        Histogram { buckets: vec![0; 48], count: 0, sum: 0.0 }
    }

    fn bucket_of(x: f64) -> usize {
        if x < 1.0 {
            0
        } else {
            (x.log2() as usize).min(47)
        }
    }

    /// Record one observation (non-negative).
    pub fn record(&mut self, x: f64) {
        debug_assert!(x >= 0.0);
        self.buckets[Self::bucket_of(x)] += 1;
        self.count += 1;
        self.sum += x;
    }

    /// Record a duration in microseconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_micros_f64());
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Approximate percentile: the lower bound of the bucket where the
    /// p-quantile falls (a guaranteed under-estimate within 2x).
    pub fn percentile_lower_bound(&self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p));
        if self.count == 0 {
            return 0.0;
        }
        let target = (p / 100.0 * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return if i == 0 { 0.0 } else { (1u64 << i) as f64 };
            }
        }
        (1u64 << 47) as f64
    }

    /// Non-empty buckets as `(lower_bound, count)` pairs, ascending.
    pub fn non_empty(&self) -> Vec<(f64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| (if i == 0 { 0.0 } else { (1u64 << i) as f64 }, *c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let mut s = SampleSeries::new();
        for x in 1..=100 {
            s.record(x as f64);
        }
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(100.0), 100.0);
        assert!((s.percentile(50.0) - 50.5).abs() < 1e-9);
        let c = s.candlestick();
        assert!(c.min <= c.p25 && c.p25 <= c.p50 && c.p50 <= c.p75 && c.p75 <= c.max);
    }

    #[test]
    fn percentile_once_equals_percentile_bit_for_bit() {
        let mut rng = crate::DetRng::new(0x5E1EC7);
        let lens = [0usize, 1, 2, 3, 4, 7, 100, 101, 1_000, 4_097];
        for &len in &lens {
            for round in 0..6 {
                // Few distinct values on even rounds: duplicates at the rank.
                let distinct = if round % 2 == 0 { 5 } else { 1 << 30 };
                let mut sorted = SampleSeries::new();
                for _ in 0..len {
                    sorted.record(rng.uniform(0, distinct) as f64 * 0.37 + 1.0);
                }
                for p in [0.0, 50.0, 99.0, 99.9, 100.0] {
                    let mut once = SampleSeries { samples: sorted.samples.clone(), sorted: false };
                    let want = sorted.clone().percentile(p);
                    assert_eq!(
                        once.percentile_once(p).to_bits(),
                        want.to_bits(),
                        "len {len}, p {p}"
                    );
                    assert_eq!(once.len(), len);
                }
            }
        }
        // Already sorted: answered from the sorted samples, which stay so.
        let mut s = SampleSeries::new();
        for x in [3.0, 1.0, 2.0] {
            s.record(x);
        }
        assert_eq!(s.percentile(50.0), 2.0);
        assert_eq!(s.percentile_once(100.0), 3.0);
        assert_eq!(s.samples(), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn percentile_of_empty_is_zero() {
        let mut s = SampleSeries::new();
        assert_eq!(s.percentile(50.0), 0.0);
    }

    #[test]
    fn single_sample_candle_is_flat() {
        let mut s = SampleSeries::new();
        s.record(3.5);
        let c = s.candlestick();
        assert_eq!(c.min, 3.5);
        assert_eq!(c.max, 3.5);
        assert_eq!(c.p50, 3.5);
    }

    #[test]
    fn record_duration_uses_micros() {
        let mut s = SampleSeries::new();
        s.record_duration(SimDuration::from_micros(5));
        assert_eq!(s.samples()[0], 5.0);
    }

    #[test]
    fn histogram_buckets_and_percentiles() {
        let mut h = Histogram::new();
        for x in [0.5, 1.0, 3.0, 3.9, 8.0, 9.0, 100.0] {
            h.record(x);
        }
        assert_eq!(h.count(), 7);
        assert!((h.mean() - 125.4 / 7.0).abs() < 1e-9);
        let buckets = h.non_empty();
        // 0.5 -> [0,2); 1.0 -> [1,2); 3.0,3.9 -> [2,4); 8,9 -> [8,16); 100 -> [64,128)
        assert_eq!(buckets.iter().map(|(_, c)| *c).sum::<u64>(), 7);
        // Median falls in the [2,4) bucket -> lower bound 2.
        assert_eq!(h.percentile_lower_bound(50.0), 2.0);
        assert_eq!(h.percentile_lower_bound(100.0), 64.0);
        assert_eq!(Histogram::new().percentile_lower_bound(50.0), 0.0);
    }

    #[test]
    fn histogram_duration_recording() {
        let mut h = Histogram::new();
        h.record_duration(SimDuration::from_micros(33));
        assert_eq!(h.count(), 1);
        assert_eq!(h.percentile_lower_bound(50.0), 32.0);
    }
}
