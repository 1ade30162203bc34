//! Measurement collection for experiments.
//!
//! The paper reports means, log-scale latency curves, and candlestick
//! (min/quartile/max) summaries (Fig. 13). Experiments here are
//! small enough that we keep exact samples and compute summaries directly —
//! no sketches, no reservoir sampling, fully reproducible. The telemetry
//! `Latency` kind publishes a [`Summary`] of the same samples.

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

/// What telemetry publishes of a distribution: how many samples, their
/// mean, and the median and 99th percentile by the interpolated ranks of
/// [`SampleSeries::percentile`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: u64,
    /// Arithmetic mean (0 if empty).
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Summary {
    /// Summary of `count` samples with mean `mean` whose `k`-th smallest
    /// (from 0) is `at(k)` — for a collector that holds its samples in some
    /// other form than a [`SampleSeries`] (a count per value, say).
    pub fn of_ranked(count: usize, mean: f64, at: impl Fn(usize) -> f64) -> Self {
        Summary {
            count: count as u64,
            mean,
            p50: interpolate(count, 50.0, &at),
            p99: interpolate(count, 99.0, &at),
        }
    }
}

/// Percentile `p` of `n` samples whose `k`-th smallest is `at(k)`, by linear
/// interpolation between the two closest ranks; 0 when `n` is 0.
fn interpolate(n: usize, p: f64, at: impl Fn(usize) -> f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0,100]");
    if n == 0 {
        return 0.0;
    }
    let rank = p / 100.0 * (n - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        at(lo)
    } else {
        let frac = rank - lo as f64;
        at(lo) * (1.0 - frac) + at(hi) * frac
    }
}

fn sort(samples: &mut [f64]) {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
}

/// An exact sample collection with percentile queries.
#[derive(Debug, Clone, Default)]
pub struct SampleSeries {
    samples: Vec<f64>,
    /// Summed as recorded, so the mean does not depend on whether a
    /// percentile query has sorted the samples since.
    sum: f64,
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
        self.sum += x;
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
            self.sum / self.samples.len() as f64
        }
    }

    /// Percentile in `[0, 100]` by linear interpolation between the two
    /// closest ranks. Returns 0 for an empty series.
    pub fn percentile(&mut self, p: f64) -> f64 {
        self.ensure_sorted();
        interpolate(self.samples.len(), p, |k| self.samples[k])
    }

    /// Count, mean, p50 and p99 — the same values [`SampleSeries::mean`] and
    /// [`SampleSeries::percentile`] give — without touching the series: a
    /// sorted series is read in place, an unsorted one stays in recording
    /// order and a scratch copy is sorted instead.
    pub fn summary(&self) -> Summary {
        let mut scratch = Vec::new();
        let sorted = if self.sorted {
            &self.samples
        } else {
            scratch.clone_from(&self.samples);
            sort(&mut scratch);
            &scratch
        };
        Summary::of_ranked(sorted.len(), self.mean(), |k| sorted[k])
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
            sort(&mut self.samples);
            self.sorted = true;
        }
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
                    let mut once = SampleSeries { sorted: false, ..sorted.clone() };
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
    fn summary_is_mean_and_percentile_bit_for_bit() {
        let mut rng = crate::DetRng::new(0x5077ED);
        for len in [0usize, 1, 2, 3, 4, 7, 100, 101, 1_000] {
            for round in 0..4 {
                // Few distinct values on even rounds: duplicates at the rank.
                let distinct = if round % 2 == 0 { 5 } else { 1 << 30 };
                let mut s = SampleSeries::new();
                for _ in 0..len {
                    s.record(rng.uniform(0, distinct) as f64 * 0.37 + 1.0);
                }
                let recorded = s.samples().to_vec();
                let mean = s.mean();
                let unsorted = s.summary();
                assert_eq!(s.samples(), recorded, "summary reordered an unsorted series");
                let (p50, p99) = (s.percentile(50.0), s.percentile(99.0));
                assert_eq!(s.mean().to_bits(), mean.to_bits(), "len {len}: sorting moved the mean");
                for got in [unsorted, s.summary()] {
                    assert_eq!(got.count, len as u64);
                    assert_eq!(got.mean.to_bits(), mean.to_bits(), "len {len}");
                    assert_eq!(got.p50.to_bits(), p50.to_bits(), "len {len}");
                    assert_eq!(got.p99.to_bits(), p99.to_bits(), "len {len}");
                }
            }
        }
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
}
