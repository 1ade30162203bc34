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

/// Ascending, in place and without a scratch buffer. Samples that compare
/// equal have equal bits (no `-0.0` is recorded), so this is the stable
/// sort's output bit for bit.
fn sort(samples: &mut [f64]) {
    samples.sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
}

/// Percentile `p` of `samples` — the value [`SampleSeries::percentile`]
/// gives for them, bit for bit — found by selection (`O(n)` expected, no
/// scratch buffer) instead of a sort. The samples are left partitioned
/// around the rank, not ascending. Every exchange of two samples is also
/// reported to `follow(i, j)`, so data kept index for index beside them (a
/// tag per sample) moves with them. 0 when `samples` is empty.
pub fn percentile_once(samples: &mut [f64], p: f64, mut follow: impl FnMut(usize, usize)) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0,100]");
    let Some(last) = samples.len().checked_sub(1) else { return 0.0 };
    let rank = p / 100.0 * last as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    select(samples, lo, &mut follow);
    let at_lo = samples[lo];
    if lo == hi {
        at_lo
    } else {
        // Rank `lo + 1` is the smallest sample above the selected one.
        let at_hi = samples[lo + 1..].iter().copied().fold(f64::INFINITY, f64::min);
        let frac = rank - lo as f64;
        at_lo * (1.0 - frac) + at_hi * frac
    }
}

/// Move the `k`-th smallest of `v` (from 0) to `v[k]`, nothing larger
/// before it and nothing smaller after it, reporting every exchange to
/// `follow`. Quickselect with three-way partitions, so a run of equal
/// samples costs one pass; pivots come from a fixed xorshift stream, so the
/// order left behind is a function of the input alone.
fn select(v: &mut [f64], k: usize, follow: &mut impl FnMut(usize, usize)) {
    let mut swap = |v: &mut [f64], i: usize, j: usize| {
        v.swap(i, j);
        follow(i, j);
    };
    let (mut lo, mut hi) = (0, v.len());
    let mut draw = 0x9E37_79B9_7F4A_7C15u64;
    while hi - lo > 1 {
        draw ^= draw << 13;
        draw ^= draw >> 7;
        draw ^= draw << 17;
        let pivot = v[lo + (draw % (hi - lo) as u64) as usize];
        // [lo, lt) < pivot, [lt, i) == pivot, [gt, hi) > pivot.
        let (mut lt, mut i, mut gt) = (lo, lo, hi);
        while i < gt {
            if v[i] < pivot {
                if lt != i {
                    swap(v, lt, i);
                }
                lt += 1;
                i += 1;
            } else if v[i] > pivot {
                gt -= 1;
                swap(v, i, gt);
            } else {
                assert!(v[i] == pivot, "NaN sample");
                i += 1;
            }
        }
        if k < lt {
            hi = lt;
        } else if k >= gt {
            lo = gt;
        } else {
            return;
        }
    }
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

    /// The series of `samples`, which a collector stored itself, and `sum`,
    /// their sum in recording order: the mean is `sum / len`, so a sum
    /// taken in another order could move its last bits.
    pub fn from_recorded(samples: Vec<f64>, sum: f64) -> Self {
        debug_assert!(samples.iter().all(|x| x.to_bits() != (-0.0f64).to_bits()), "a -0.0 sample");
        SampleSeries { samples, sum, sorted: false }
    }

    /// Record one sample.
    pub fn record(&mut self, x: f64) {
        // The one value whose order between equal samples shows in the
        // bits: `-0.0 == 0.0`, so an unstable sort may swap the two.
        debug_assert!(x.to_bits() != (-0.0f64).to_bits(), "a -0.0 sample");
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
                let mut series = SampleSeries::new();
                for _ in 0..len {
                    series.record(rng.uniform(0, distinct) as f64 * 0.37 + 1.0);
                }
                for p in [0.0, 50.0, 99.0, 99.9, 100.0] {
                    let want = series.clone().percentile(p);
                    // A tag per sample (its recording index) follows every
                    // exchange, so each tag still names its own sample.
                    let mut once = series.samples().to_vec();
                    let mut tags: Vec<usize> = (0..len).collect();
                    let got = percentile_once(&mut once, p, |i, j| tags.swap(i, j));
                    assert_eq!(got.to_bits(), want.to_bits(), "len {len}, p {p}");
                    for (x, &tag) in once.iter().zip(&tags) {
                        assert_eq!(x.to_bits(), series.samples()[tag].to_bits(), "len {len}");
                    }
                }
            }
        }
        // Already ascending: the selection needs no exchange to answer.
        let mut ascending = [1.0, 2.0, 3.0];
        assert_eq!(percentile_once(&mut ascending, 100.0, |_, _| {}), 3.0);
        assert_eq!(percentile_once(&mut [], 50.0, |_, _| {}), 0.0);
    }

    #[test]
    fn the_unstable_sort_gives_the_stable_sorts_bits() {
        let mut rng = crate::DetRng::new(0x50E7);
        for len in [0usize, 1, 2, 31, 1_000, 20_000] {
            for distinct in [1u64, 3, 17, 1 << 30] {
                let recorded: Vec<f64> =
                    (0..len).map(|_| rng.uniform(0, distinct) as f64 * 0.37).collect();
                let mut stable = recorded.clone();
                stable.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
                let mut unstable = recorded;
                sort(&mut unstable);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&unstable), bits(&stable), "len {len}, {distinct} distinct");
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "a -0.0 sample")]
    fn a_negative_zero_sample_is_refused() {
        SampleSeries::new().record(-0.0);
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
    fn a_series_from_recorded_samples_keeps_the_recording_order_mean() {
        // Summed in recording order each 1.0 is lost against 1e16; summed
        // in reverse they are not.
        let recorded = [1e16, 1.0, 1.0, 1.0, 1.0];
        let mut series = SampleSeries::new();
        recorded.iter().for_each(|&x| series.record(x));
        let mut regrouped = recorded.to_vec();
        regrouped.reverse();
        let resummed: f64 = regrouped.iter().sum();
        assert_ne!((resummed / 5.0).to_bits(), series.mean().to_bits());
        let mut rebuilt = SampleSeries::from_recorded(regrouped, series.samples().iter().sum());
        assert_eq!(rebuilt.mean().to_bits(), series.mean().to_bits());
        assert_eq!(rebuilt.summary(), series.summary());
        assert_eq!(rebuilt.percentile(99.0).to_bits(), series.percentile(99.0).to_bits());
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
