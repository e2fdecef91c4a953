//! Order statistics for the benchmark's own samples.
//!
//! Timings are reported as a median plus the highest percentile the
//! sample supports: a percentile is only as good as the number of
//! samples beyond it, so a tail is reported only with at least
//! [`MIN_BEYOND`] samples above it, always together with `n`.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The tail percentiles the benchmark names, lowest first, each given as
/// "one sample in `k` lies beyond it" (p90, p99, p99.9, p99.99) so the
/// support rule is integer arithmetic.
const P90: usize = 10;
/// p99: one sample in a hundred beyond.
pub const P99: usize = 100;
/// p99.9: one sample in a thousand beyond.
pub const P99_9: usize = 1_000;
const TAILS: [usize; 4] = [P90, P99, P99_9, 10_000];

/// Sort ascending; benchmark samples are never NaN.
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("benchmark samples are never NaN"));
    xs
}

/// Nearest-rank percentile of an ascending slice (`q` in `0..=1`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample; 0 for an empty one.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs.to_vec());
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Whether `n` samples support the tail with one sample in `one_in`
/// beyond it: at least [`MIN_BEYOND`] of them lie beyond.
pub fn supports(n: usize, one_in: usize) -> bool {
    n / one_in >= MIN_BEYOND
}

/// Nearest-rank value of the tail with one sample in `one_in` beyond it.
fn tail_value(sorted: &[f64], one_in: usize) -> f64 {
    sorted[sorted.len() - sorted.len() / one_in - 1]
}

/// A reported tail: which percentile, its value, and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// One sample in this many lies beyond the value (100 = p99).
    pub one_in: usize,
    /// Its nearest-rank value.
    pub value: f64,
    /// Samples it was taken over.
    pub n: usize,
}

/// The highest named tail an ascending sample supports, or `None` when
/// even p90 has fewer than [`MIN_BEYOND`] samples beyond it.
pub fn highest_tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    TAILS
        .iter()
        .rev()
        .find(|&&k| supports(n, k))
        .map(|&one_in| Tail {
            one_in,
            value: tail_value(sorted, one_in),
            n,
        })
}

/// The named tail of an ascending sample if the sample supports it, else
/// 0 (a metric's name fixes its percentile, so an unsupported one reads
/// as absent rather than being silently downgraded).
pub fn tail_if_supported(sorted: &[f64], one_in: usize) -> f64 {
    if supports(sorted.len(), one_in) {
        tail_value(sorted, one_in)
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_quantile_with_ten_samples_beyond_it() {
        let xs = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 99 samples: 10% beyond p90 is 9.9 -> not even p90.
        assert_eq!(highest_tail(&xs(99)), None);
        // 100 samples: exactly 10 beyond p90; p99 would have 1.
        let t = highest_tail(&xs(100)).expect("p90 is supported");
        assert_eq!((t.one_in, t.value, t.n), (P90, 90.0, 100));
        // 1 000 samples: p99 has 10 beyond it; 999 do not reach it.
        assert_eq!(highest_tail(&xs(999)).map(|t| t.one_in), Some(P90));
        let t = highest_tail(&xs(1_000)).expect("p99 is supported");
        assert_eq!((t.one_in, t.value, t.n), (P99, 990.0, 1_000));
        // 15 000 samples reach p99.9 but not p99.99.
        assert_eq!(highest_tail(&xs(15_000)).map(|t| t.one_in), Some(P99_9));
        assert_eq!(tail_if_supported(&xs(999), P99), 0.0);
        assert_eq!(tail_if_supported(&xs(1_000), P99), 990.0);
    }

    #[test]
    fn median_and_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let s = sorted(vec![5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(percentile(&s, 0.5), 3.0);
        assert_eq!(percentile(&s, 1.0), 5.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
    }
}
