//! Log-bucketed latency histograms.
//!
//! Task latencies span six orders of magnitude (a `Barrier` is tens of
//! nanoseconds; a large-gradient `Encode` is milliseconds), so the
//! buckets are powers of two: bucket 0 holds exactly `0 ns`, bucket
//! `k ≥ 1` holds `[2^(k-1), 2^k)`. Quantiles interpolate linearly
//! within the containing bucket and are clamped to the exact observed
//! `[min, max]`, which [`hipress_util::stats::OnlineStats`] tracks on
//! the side (so `p0`/`p100` are always exact, and a single-valued
//! distribution reports every quantile exactly).

use hipress_util::stats::OnlineStats;
use std::fmt;

/// Number of buckets: one zero bucket plus one per bit of `u64`.
///
/// Public because `hipress-metrics` builds its lock-free histogram on
/// the same bucket geometry, keeping trace-derived and live-recorded
/// distributions directly comparable.
pub const BUCKETS: usize = 65;

/// A mergeable latency distribution over `u64` nanoseconds.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    stats: OnlineStats,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// The bucket index holding `ns`: 0 for `0 ns`, otherwise one plus
/// the position of the highest set bit (shared with `hipress-metrics`).
pub fn bucket_of(ns: u64) -> usize {
    (u64::BITS - ns.leading_zeros()) as usize
}

/// The half-open range `[lo, hi)` of bucket `b` (shared with
/// `hipress-metrics`).
pub fn bucket_bounds(b: usize) -> (u64, u64) {
    if b == 0 {
        (0, 1)
    } else {
        (
            1u64 << (b - 1),
            1u64.checked_shl(b as u32).unwrap_or(u64::MAX),
        )
    }
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `count` observations spread over
/// `buckets` (`(bucket index, count)` pairs in ascending index order),
/// whose exact extremes are `min` and `max`; `None` if `count` is 0.
///
/// The fractional rank `q·(n-1)` is located in the cumulative bucket
/// counts; the value interpolates linearly within the containing
/// bucket's `[lo, hi)` range and is clamped to `[min, max]`. Shared
/// by [`LatencyHistogram`] and `hipress-metrics`' snapshots, so a
/// live-recorded and a trace-derived distribution read alike.
pub fn quantile(
    buckets: impl IntoIterator<Item = (usize, u64)>,
    count: u64,
    min: u64,
    max: u64,
    q: f64,
) -> Option<u64> {
    if count == 0 {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    // The extremes are tracked exactly on the side; return them
    // directly rather than interpolating within their buckets.
    if q == 0.0 {
        return Some(min);
    }
    if q == 1.0 {
        return Some(max);
    }
    // 1-indexed fractional rank in [1, n].
    let target = q * (count - 1) as f64 + 1.0;
    let mut cum = 0u64;
    for (b, c) in buckets.into_iter().filter(|&(_, c)| c > 0) {
        if (cum + c) as f64 >= target {
            let (lo, hi) = bucket_bounds(b);
            let frac = (target - cum as f64) / c as f64; // in (0, 1]
            let v = lo as f64 + frac * (hi - lo) as f64;
            return Some((v.round() as u64).clamp(min, max));
        }
        cum += c;
    }
    Some(max)
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            stats: OnlineStats::new(),
        }
    }

    /// Records one latency observation.
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.stats.push(ns as f64);
    }

    /// Merges another histogram into this one. Bucket counts add and
    /// the side statistics merge, so merging is associative and
    /// order-independent for every quantity this type reports.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.stats.merge(&other.stats);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.stats.count()
    }

    /// Exact largest observation (0 if empty).
    pub fn max_ns(&self) -> u64 {
        if self.count() == 0 {
            0
        } else {
            self.stats.max() as u64
        }
    }

    /// Exact smallest observation (0 if empty).
    pub fn min_ns(&self) -> u64 {
        if self.count() == 0 {
            0
        } else {
            self.stats.min() as u64
        }
    }

    /// Exact mean (0.0 if empty).
    pub fn mean_ns(&self) -> f64 {
        self.stats.mean()
    }

    /// Sum of all observations, in nanoseconds.
    pub fn total_ns(&self) -> u64 {
        (self.stats.mean() * self.stats.count() as f64).round() as u64
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`), or `None` if empty: the free
    /// [`quantile`] over this histogram's buckets and exact extremes.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let buckets = self.counts.iter().copied().enumerate();
        quantile(buckets, self.count(), self.min_ns(), self.max_ns(), q)
    }

    /// Convenience: p50 (0 if empty).
    pub fn p50(&self) -> u64 {
        self.quantile(0.5).unwrap_or(0)
    }

    /// Convenience: p90 (0 if empty).
    pub fn p90(&self) -> u64 {
        self.quantile(0.9).unwrap_or(0)
    }

    /// Convenience: p99 (0 if empty).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99).unwrap_or(0)
    }

    /// Non-empty buckets as `(lo_ns, hi_ns, count)` triples.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(b, &c)| {
                let (lo, hi) = bucket_bounds(b);
                (lo, hi, c)
            })
    }
}

impl fmt::Display for LatencyHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use hipress_util::units::fmt_duration_ns as d;
        write!(
            f,
            "n={} p50={} p90={} p99={} max={}",
            self.count(),
            d(self.p50()),
            d(self.p90()),
            d(self.p99()),
            d(self.max_ns())
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_geometry() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_bounds(0), (0, 1));
        assert_eq!(bucket_bounds(1), (1, 2));
        assert_eq!(bucket_bounds(3), (4, 8));
        assert_eq!(bucket_bounds(64), (1 << 63, u64::MAX));
    }

    #[test]
    fn single_valued_distribution_is_exact_everywhere() {
        let mut h = LatencyHistogram::new();
        for _ in 0..1000 {
            h.record(777);
        }
        // min==max clamping makes every quantile exact despite the
        // log bucket being [512, 1024).
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(777), "q={q}");
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.total_ns(), 777_000);
    }

    #[test]
    fn known_two_bucket_distribution() {
        // 3 observations of 2 (bucket [2,4)) and 1 of 100 (bucket
        // [64,128)). n=4: rank(q) = 3q + 1.
        let mut h = LatencyHistogram::new();
        for _ in 0..3 {
            h.record(2);
        }
        h.record(100);
        // The extremes are exact (tracked on the side).
        assert_eq!(h.quantile(0.0), Some(2));
        assert_eq!(h.quantile(1.0), Some(100));
        // q=0.5 -> rank 2.5 -> first bucket (cum 3 >= 2.5),
        // frac 2.5/3 -> 2 + (2.5/3)*2 = 3.67 -> rounds to 4... but
        // clamped only to [2,100]; exact per the documented formula.
        assert_eq!(h.quantile(0.5), Some(4));
        // q=0.9 -> rank 3.7 -> second bucket, frac 0.7 ->
        // 64 + 0.7*64 = 108.8 -> 109, clamped to max=100.
        assert_eq!(h.quantile(0.9), Some(100));
        assert_eq!(h.min_ns(), 2);
        assert_eq!(h.max_ns(), 100);
    }

    #[test]
    fn quantiles_are_monotone_and_bounded() {
        let mut h = LatencyHistogram::new();
        let mut x = 1u64;
        for i in 0..500u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i) % 1_000_000;
            h.record(x);
        }
        let mut prev = 0u64;
        for i in 0..=100 {
            let q = h.quantile(i as f64 / 100.0).unwrap();
            assert!(q >= prev, "quantiles must be monotone");
            assert!(q >= h.min_ns() && q <= h.max_ns());
            prev = q;
        }
    }

    #[test]
    fn merge_is_associative() {
        let datasets: [&[u64]; 3] = [&[1, 5, 9, 200], &[0, 0, 3_000_000], &[42; 10]];
        let build = |idx: &[usize]| {
            let mut h = LatencyHistogram::new();
            for &i in idx {
                let mut part = LatencyHistogram::new();
                for &v in datasets[i] {
                    part.record(v);
                }
                h.merge(&part);
            }
            h
        };
        let abc = build(&[0, 1, 2]);
        let bca = build(&[1, 2, 0]);
        let cab = build(&[2, 0, 1]);
        for h in [&bca, &cab] {
            assert_eq!(h.count(), abc.count());
            assert_eq!(h.min_ns(), abc.min_ns());
            assert_eq!(h.max_ns(), abc.max_ns());
            for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
                assert_eq!(h.quantile(q), abc.quantile(q), "q={q}");
            }
        }
        // ((a+b)+c) == (a+(b+c)) by construction of bucket addition.
        let mut left = build(&[0]);
        left.merge(&build(&[1]));
        left.merge(&build(&[2]));
        let mut bc = build(&[1]);
        bc.merge(&build(&[2]));
        let mut right = build(&[0]);
        right.merge(&bc);
        assert_eq!(left.count(), right.count());
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(left.quantile(q), right.quantile(q));
        }
    }

    #[test]
    fn empty_histogram_is_quiet() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.max_ns(), 0);
        assert_eq!(h.count(), 0);
        assert_eq!(h.buckets().count(), 0);
    }
}
