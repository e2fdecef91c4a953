//! Statistics helpers for the evaluation: running summaries (Welford),
//! percentile summaries, bucketed time series (the per-second throughput
//! curves in Figs. 4, 7, 10), and the exponentially decayed counters CephFS
//! uses for directory "heat" (Fig. 1).

use crate::time::SimTime;

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
    pub fn of(samples: &[f64]) -> Summary {
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
        let mut sorted: Vec<f64> = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in samples"));
        let mut acc = OnlineStats::new();
        for &s in samples {
            acc.push(s);
        }
        Summary {
            count: samples.len(),
            mean: acc.mean(),
            stddev: acc.stddev(),
            min: sorted[0],
            p50: percentile_sorted(&sorted, 0.50),
            p95: percentile_sorted(&sorted, 0.95),
            p99: percentile_sorted(&sorted, 0.99),
            max: sorted[sorted.len() - 1],
        }
    }
}

/// Linear-interpolated percentile of an ascending-sorted slice.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    assert!((0.0..=1.0).contains(&q), "quantile out of range");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
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

    /// Bucket width.
    pub fn bucket(&self) -> SimTime {
        SimTime::from_millis(self.bucket_ms)
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

    /// Per-second rates (value / bucket width in seconds).
    pub fn rates_per_sec(&self) -> Vec<f64> {
        let secs = self.bucket_ms as f64 / 1_000.0;
        self.buckets.iter().map(|v| v / secs).collect()
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

/// Exponentially decayed counter — the "heat" CephFS stores per directory.
///
/// The counter loses half its value every `half_life`; hits add 1. Decay is
/// applied lazily when the counter is touched or read, so idle directories
/// cost nothing — and so does decaying a counter that holds zero, or one
/// touched less than a millisecond ago (elapsed time is taken in whole
/// milliseconds, so its factor is `0.5⁰ = 1`): neither reaches `powf`.
#[derive(Debug, Clone)]
pub struct DecayCounter {
    value: f64,
    last: SimTime,
    half_life_ms: f64,
}

/// The decay factor last computed for a group of [`DecayCounter`]s **of one
/// half life** that are read or hit together, and the elapsed time it is
/// for. A counter as many milliseconds behind `now` as the one decayed
/// before it through the same `SharedDecay` reuses the factor instead of
/// computing its own ([`DecayCounter::get_sharing`],
/// [`DecayCounter::hit_sharing`]). Starts out knowing the one factor that
/// needs no computing: nothing elapsed, nothing lost.
#[derive(Debug, Clone, Copy)]
pub struct SharedDecay {
    dt_ms: u64,
    factor: f64,
}

impl Default for SharedDecay {
    fn default() -> Self {
        SharedDecay {
            dt_ms: 0,
            factor: 1.0,
        }
    }
}

impl DecayCounter {
    /// New counter at zero with the given half life.
    pub fn new(half_life: SimTime) -> Self {
        assert!(half_life.as_millis() > 0, "half life must be positive");
        DecayCounter {
            value: 0.0,
            last: SimTime::ZERO,
            half_life_ms: half_life.as_millis() as f64,
        }
    }

    /// Whole milliseconds from the last touch to `now`, when `now` is later.
    #[inline]
    fn elapsed_ms(&self, now: SimTime) -> Option<u64> {
        (now > self.last).then(|| (now - self.last).as_millis())
    }

    /// Whether decaying over `dt_ms` can change the value at all. It cannot
    /// when no whole millisecond passed (the factor is exactly 1) or when
    /// the value is zero (either zero times a factor in `[0, 1]` is itself),
    /// so skipping the multiplication there is exact, not approximate.
    #[inline]
    fn decays_over(&self, dt_ms: u64) -> bool {
        dt_ms != 0 && self.value != 0.0
    }

    fn factor(&self, dt_ms: u64) -> f64 {
        0.5_f64.powf(dt_ms as f64 / self.half_life_ms)
    }

    /// Decay to `now`, sharing decay factors with the other counters **of
    /// the same half life** decayed through the same `shared`: a counter as
    /// many milliseconds behind `now` as the one before it reuses that one's
    /// factor instead of computing its own. The five counters of a dirfrag
    /// are touched together more often than not.
    #[inline]
    fn decay_sharing(&mut self, now: SimTime, shared: &mut SharedDecay) {
        if let Some(dt_ms) = self.elapsed_ms(now) {
            if self.decays_over(dt_ms) {
                if shared.dt_ms != dt_ms {
                    *shared = SharedDecay {
                        dt_ms,
                        factor: self.factor(dt_ms),
                    };
                }
                self.value *= shared.factor;
            }
            self.last = now;
        }
    }

    /// Add `amount` at time `now` (after decaying to `now`).
    pub fn hit(&mut self, now: SimTime, amount: f64) {
        self.hit_sharing(now, amount, &mut SharedDecay::default());
    }

    /// [`DecayCounter::hit`], sharing decay factors through `shared` with
    /// the other counters of a group (see [`SharedDecay`]).
    #[inline]
    pub fn hit_sharing(&mut self, now: SimTime, amount: f64, shared: &mut SharedDecay) {
        self.decay_sharing(now, shared);
        self.value += amount;
    }

    /// Decayed value as of `now`.
    pub fn get(&mut self, now: SimTime) -> f64 {
        self.get_sharing(now, &mut SharedDecay::default())
    }

    /// [`DecayCounter::get`], sharing decay factors through `shared` with
    /// the other counters of a group (see [`SharedDecay`]).
    #[inline]
    pub fn get_sharing(&mut self, now: SimTime, shared: &mut SharedDecay) -> f64 {
        self.decay_sharing(now, shared);
        self.value
    }

    /// Value without applying further decay (as of the last touch).
    pub fn peek(&self) -> f64 {
        self.value
    }

    /// Decayed value as of `now`, computed without mutating the counter
    /// (for consistency oracles that must not perturb the decay state).
    pub fn peek_at(&self, now: SimTime) -> f64 {
        match self.elapsed_ms(now) {
            Some(dt_ms) if self.decays_over(dt_ms) => self.value * self.factor(dt_ms),
            _ => self.value,
        }
    }

    /// Reset to zero.
    pub fn reset(&mut self, now: SimTime) {
        self.value = 0.0;
        self.last = now;
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
        assert_eq!(ts.rates_per_sec(), vec![2.0, 1.0, 3.0]);
    }

    #[test]
    fn timeseries_coarsen() {
        let mut ts = TimeSeries::new(SimTime::from_secs(1));
        for s in 0..6 {
            ts.add(SimTime::from_secs(s), 1.0);
        }
        let coarse = ts.coarsen(3);
        assert_eq!(coarse.values(), &[3.0, 3.0]);
        assert_eq!(coarse.bucket(), SimTime::from_secs(3));
    }

    #[test]
    fn decay_counter_halves_at_half_life() {
        let mut c = DecayCounter::new(SimTime::from_secs(10));
        c.hit(SimTime::ZERO, 8.0);
        assert!((c.get(SimTime::from_secs(10)) - 4.0).abs() < 1e-9);
        assert!((c.get(SimTime::from_secs(30)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn decay_counter_accumulates() {
        let mut c = DecayCounter::new(SimTime::from_secs(10));
        c.hit(SimTime::ZERO, 1.0);
        c.hit(SimTime::from_secs(10), 1.0);
        // First hit decayed to 0.5, plus the new 1.0.
        assert!((c.peek() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn decay_counter_reset() {
        let mut c = DecayCounter::new(SimTime::from_secs(1));
        c.hit(SimTime::ZERO, 5.0);
        c.reset(SimTime::from_secs(2));
        assert_eq!(c.get(SimTime::from_secs(3)), 0.0);
    }

    /// The counter as first written: every decay multiplies, whatever the
    /// value and however little time passed.
    #[derive(Clone)]
    struct PlainCounter {
        value: f64,
        last: SimTime,
        half_life_ms: f64,
    }

    impl PlainCounter {
        fn peek_at(&self, now: SimTime) -> f64 {
            if now > self.last {
                let dt = (now - self.last).as_millis() as f64;
                self.value * 0.5_f64.powf(dt / self.half_life_ms)
            } else {
                self.value
            }
        }
        fn decay_to(&mut self, now: SimTime) {
            self.value = self.peek_at(now);
            self.last = self.last.max(now);
        }
    }

    #[test]
    fn decay_fast_paths_are_bit_identical_to_the_plain_formula() {
        use crate::rng::SimRng;
        let mut rng = SimRng::new(0xdeca7);
        let half_life = SimTime::from_secs(10);
        let plain = PlainCounter {
            value: 0.0,
            last: SimTime::ZERO,
            half_life_ms: half_life.as_millis() as f64,
        };
        let mut fast: [DecayCounter; 5] = std::array::from_fn(|_| DecayCounter::new(half_life));
        let mut slow: [PlainCounter; 5] = std::array::from_fn(|_| plain.clone());
        let mut now = SimTime::ZERO;
        let mut multiplied = 0;
        for step in 0..30_000 {
            // Time stands still, creeps by microseconds (no whole
            // millisecond: factor 1), jumps, or is asked about the past.
            now = match rng.below(8) {
                0 | 1 => now,
                2 | 3 => now + SimTime::from_micros(rng.below(900)),
                4 => now.saturating_sub(SimTime::from_millis(rng.below(5))),
                5 => now + SimTime::from_secs(rng.below(400)),
                _ => now + SimTime::from_millis(rng.below(3_000)),
            };
            let amount = match rng.below(6) {
                0 => 0.0,
                1 => -0.0,
                2 => -rng.f64() * 3.0,
                _ => rng.f64() * 10.0,
            };
            let i = rng.below(5) as usize;
            match rng.below(6) {
                0 | 1 => {
                    fast[i].hit(now, amount);
                    slow[i].decay_to(now);
                    slow[i].value += amount;
                }
                2 => {
                    let got = fast[i].get(now);
                    slow[i].decay_to(now);
                    assert_eq!(got.to_bits(), slow[i].value.to_bits(), "step {step}");
                }
                3 => {
                    // Cancel a counter to an exact (signed) zero.
                    let v = fast[i].get(now);
                    fast[i].hit(now, -v);
                    slow[i].decay_to(now);
                    slow[i].value += -v;
                }
                4 => {
                    let mut shared = SharedDecay::default();
                    for (f, s) in fast.iter_mut().zip(&mut slow) {
                        s.decay_to(now);
                        let got = f.get_sharing(now, &mut shared);
                        assert_eq!(got.to_bits(), s.value.to_bits(), "step {step}");
                    }
                }
                _ => {}
            }
            for (f, s) in fast.iter().zip(&slow) {
                assert_eq!(f.peek().to_bits(), s.value.to_bits(), "step {step}");
                assert_eq!(f.last, s.last, "step {step}");
                let at = now + SimTime::from_micros(rng.below(2_000_000));
                assert_eq!(
                    f.peek_at(at).to_bits(),
                    s.peek_at(at).to_bits(),
                    "step {step}"
                );
                multiplied += u64::from(s.value != 0.0);
            }
        }
        assert!(multiplied > 50_000, "the walk kept counters warm");
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((percentile_sorted(&xs, 0.5) - 2.5).abs() < 1e-12);
        assert_eq!(percentile_sorted(&xs, 0.0), 1.0);
        assert_eq!(percentile_sorted(&xs, 1.0), 4.0);
    }
}
