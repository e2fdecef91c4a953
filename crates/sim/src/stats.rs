//! Statistics helpers for the evaluation: running summaries (Welford),
//! percentile summaries, and bucketed time series (the per-second
//! throughput curves in Figs. 4, 7, 10). The decayed directory "heat" of
//! Fig. 1 lives with the directories, in `mantle_namespace::FragHeat`.

use crate::time::SimTime;
use std::borrow::Cow;

/// Numerically stable running mean/variance (Welford's algorithm).
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population standard deviation (0 when fewer than 2 samples).
    pub fn stddev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / self.n as f64).sqrt()
        }
    }

    /// Smallest observation (NaN when empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest observation (NaN when empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Merge another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A finished summary of a sample set, including percentiles.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub stddev: f64,
    /// Minimum.
    pub min: f64,
    /// Median (p50).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarize a sample set. Returns an all-zero summary for empty input.
    ///
    /// The percentiles are selected in place, so an owned `Vec` is the
    /// one buffer the summary works in; a borrowed slice is copied once.
    pub fn of<'a>(samples: impl Into<Cow<'a, [f64]>>) -> Summary {
        let mut samples = samples.into().into_owned();
        if samples.is_empty() {
            return Summary {
                count: 0,
                mean: 0.0,
                stddev: 0.0,
                min: 0.0,
                p50: 0.0,
                p95: 0.0,
                p99: 0.0,
                max: 0.0,
            };
        }
        // The moments in sample order, before selection reorders them.
        let mut acc = OnlineStats::new();
        for &s in &samples {
            acc.push(s);
        }
        // Select just the ranks the fields read, in ascending order, each
        // selection partitioning only what lies above the rank before it.
        let n = samples.len();
        let qs = QUANTILES.iter().flat_map(|&q| quantile_ranks(n, q).0);
        let mut from = 0;
        let cmp = |a: &f64, b: &f64| a.partial_cmp(b).expect("NaN in samples");
        for r in std::iter::once(0).chain(qs).chain([n - 1]) {
            if r >= from {
                samples[from..].select_nth_unstable_by(r - from, cmp);
                from = r + 1;
            }
        }
        let [p50, p95, p99] = QUANTILES.map(|q| percentile_sorted(&samples, q));
        Summary {
            count: n,
            mean: acc.mean(),
            stddev: acc.stddev(),
            min: samples[0],
            p50,
            p95,
            p99,
            max: samples[n - 1],
        }
    }
}

/// The quantiles a [`Summary`] reports, ascending.
const QUANTILES: [f64; 3] = [0.50, 0.95, 0.99];

/// The ranks among `n` ascending samples that quantile `q` falls between,
/// and how far from the first to the second.
fn quantile_ranks(n: usize, q: f64) -> ([usize; 2], f64) {
    let pos = q * (n - 1) as f64;
    (
        [pos.floor() as usize, pos.ceil() as usize],
        pos - pos.floor(),
    )
}

/// Linear-interpolated percentile of an ascending-sorted slice. It reads
/// only the [`quantile_ranks`] of `q`, so a slice with just those ranks in
/// place serves as well.
fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    assert!((0.0..=1.0).contains(&q), "quantile out of range");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let ([lo, hi], frac) = quantile_ranks(sorted.len(), q);
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Counts bucketed by fixed-width windows of virtual time. Used for the
/// per-second/per-minute throughput curves in the figures.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    bucket_ms: u64,
    buckets: Vec<f64>,
}

impl TimeSeries {
    /// New series with the given bucket width.
    pub fn new(bucket: SimTime) -> Self {
        assert!(bucket.as_millis() > 0, "bucket width must be positive");
        TimeSeries {
            bucket_ms: bucket.as_millis(),
            buckets: Vec::new(),
        }
    }

    /// Add `amount` at time `t`.
    pub fn add(&mut self, t: SimTime, amount: f64) {
        let idx = (t.as_millis() / self.bucket_ms) as usize;
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0.0);
        }
        self.buckets[idx] += amount;
    }

    /// Record one occurrence at time `t`.
    pub fn incr(&mut self, t: SimTime) {
        self.add(t, 1.0);
    }

    /// The raw bucket values.
    pub fn values(&self) -> &[f64] {
        &self.buckets
    }

    /// Iterate `(bucket start time, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .map(move |(i, &v)| (SimTime::from_millis(i as u64 * self.bucket_ms), v))
    }

    /// Sum over all buckets.
    pub fn total(&self) -> f64 {
        self.buckets.iter().sum()
    }

    /// Number of buckets.
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Re-bucket into a coarser series whose width is a multiple of this one.
    pub fn coarsen(&self, factor: usize) -> TimeSeries {
        assert!(factor >= 1);
        let mut out = TimeSeries::new(SimTime::from_millis(self.bucket_ms * factor as u64));
        for (i, &v) in self.buckets.iter().enumerate() {
            let t = SimTime::from_millis(i as u64 * self.bucket_ms);
            out.add(t, v);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_matches_direct_computation() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.push(x);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.stddev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert_eq!(s.count(), 8);
    }

    #[test]
    fn online_stats_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.stddev() - whole.stddev()).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.stddev(), 0.0);
        assert!(s.min().is_nan());
    }

    #[test]
    fn summary_percentiles() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = Summary::of(&xs);
        assert_eq!(s.count, 100);
        assert!((s.p50 - 50.5).abs() < 1e-9);
        assert!((s.p95 - 95.05).abs() < 1e-9);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
    }

    #[test]
    fn summary_of_empty() {
        let s = Summary::of(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn timeseries_buckets() {
        let mut ts = TimeSeries::new(SimTime::from_secs(1));
        ts.incr(SimTime::from_millis(100));
        ts.incr(SimTime::from_millis(900));
        ts.incr(SimTime::from_millis(1_000));
        ts.add(SimTime::from_millis(2_500), 3.0);
        assert_eq!(ts.values(), &[2.0, 1.0, 3.0]);
        assert_eq!(ts.total(), 6.0);
    }

    #[test]
    fn timeseries_coarsen() {
        let mut ts = TimeSeries::new(SimTime::from_secs(1));
        for s in 0..6 {
            ts.add(SimTime::from_secs(s), 1.0);
        }
        let mut coarse = ts.coarsen(3);
        assert_eq!(coarse.values(), &[3.0, 3.0]);
        // The buckets are 3 s wide: 5 s lands in the second.
        coarse.add(SimTime::from_secs(5), 1.0);
        assert_eq!(coarse.values(), &[3.0, 4.0]);
    }

    /// `Summary::of` as a full sort computes it: the oracle for selection.
    fn summary_by_sort(xs: &[f64]) -> Summary {
        let mut sorted = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        let mut acc = OnlineStats::new();
        xs.iter().for_each(|&x| acc.push(x));
        Summary {
            count: xs.len(),
            mean: acc.mean(),
            stddev: acc.stddev(),
            min: sorted[0],
            p50: percentile_sorted(&sorted, 0.50),
            p95: percentile_sorted(&sorted, 0.95),
            p99: percentile_sorted(&sorted, 0.99),
            max: sorted[sorted.len() - 1],
        }
    }

    #[test]
    fn summary_by_selection_matches_sort_bit_for_bit() {
        let bits = |s: &Summary| {
            let f = [s.mean, s.stddev, s.min, s.p50, s.p95, s.p99, s.max];
            (s.count, f.map(f64::to_bits))
        };
        let mut rng = crate::SimRng::new(7).stream("summary");
        for case in 0..300 {
            let n = match case {
                0..=2 => case + 1,
                _ => rng.range_inclusive(1, 2_000) as usize,
            };
            // A small pool of values forces duplicates; some cases draw
            // from the whole range instead.
            let pool = [4, 50, 1 << 30][case % 3];
            let xs: Vec<f64> = (0..n)
                .map(|_| rng.below(pool) as f64 * 0.37 - 3.0)
                .collect();
            assert_eq!(
                bits(&Summary::of(&xs)),
                bits(&summary_by_sort(&xs)),
                "case {case}"
            );
        }
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((percentile_sorted(&xs, 0.5) - 2.5).abs() < 1e-12);
        assert_eq!(percentile_sorted(&xs, 0.0), 1.0);
        assert_eq!(percentile_sorted(&xs, 1.0), 4.0);
    }
}
