//! The metric primitives: [`Counter`], [`Gauge`], and the power-of-two
//! bucketed [`Histogram`].
//!
//! All three are lock-free: every mutation is a single atomic RMW (plus a
//! bounded CAS loop for histogram min/max), so hot paths — candidate
//! inspection, page access, per-query phase timing — can record without
//! serializing. Reads (snapshots) are relaxed and may observe a torn
//! *cross-metric* state, which is the usual and acceptable trade for
//! monitoring counters.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Duration;

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        // ORDERING: counter — standalone monotone counter, ordered with nothing else
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        // ORDERING: counter — advisory read of an independent counter
        self.value.load(Ordering::Relaxed)
    }
}

/// A value that can go up and down (pool residency, live documents).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the value.
    pub fn set(&self, v: i64) {
        // ORDERING: gauge — last-writer-wins level, ordered with nothing else
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        // ORDERING: gauge — standalone delta, ordered with nothing else
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        // ORDERING: gauge — advisory read of an independent level
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: one for zero plus one per power of two of
/// the `u64` range.
pub const BUCKETS: usize = 65;

/// Index of the bucket holding `v`: 0 for 0, otherwise `⌊log₂ v⌋ + 1`.
/// Bucket `b > 0` covers `[2^(b-1), 2^b - 1]`.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive value bounds `(lo, hi)` of bucket `b`.
pub fn bucket_bounds(b: usize) -> (u64, u64) {
    if b == 0 {
        (0, 0)
    } else {
        (
            1u64 << (b - 1),
            (1u64 << (b - 1)).wrapping_mul(2).wrapping_sub(1),
        )
    }
}

/// A power-of-two-bucketed histogram of `u64` samples (typically
/// nanoseconds), with count/sum/min/max and quantile estimation.
///
/// Recording is one `fetch_add` per bucket/count/sum plus two bounded CAS
/// loops; there is no locking and no allocation.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [(); BUCKETS].map(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    #[expect(clippy::indexing_slicing, reason = "bucket_of returns at most 64 < BUCKETS")]
    pub fn record(&self, v: u64) {
        // ORDERING: counter — each statistic is an independent counter;
        // snapshots are documented as approximate under concurrent recording.
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        // ORDERING: counter — as above, independent statistics.
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds.
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        // ORDERING: counter — advisory read of an independent counter
        self.count.load(Ordering::Relaxed)
    }

    /// An owned, immutable copy of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (dst, src) in buckets.iter_mut().zip(&self.buckets) {
            // ORDERING: counter — approximate snapshot of independent counters
            *dst = src.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            // ORDERING: counter — approximate snapshot of independent counters
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An immutable copy of a [`Histogram`]'s state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`bucket_bounds`]).
    pub buckets: [u64; BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (`u64::MAX` when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// Mean sample value, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// The bucket that holds the `q`-quantile sample (by the nearest-rank
    /// definition), as inclusive value bounds `(lo, hi)`.
    ///
    /// The true quantile of the recorded sample multiset is guaranteed to
    /// lie within the returned bounds — the property the telemetry tests
    /// verify.
    pub fn quantile_bounds(&self, q: f64) -> Option<(u64, u64)> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // nearest-rank: the k-th smallest sample, k in [1, count]
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lo, hi) = bucket_bounds(b);
                // tighten with the global extremes
                return Some((lo.max(self.min.min(hi)), hi.min(self.max.max(lo))));
            }
        }
        None // unreachable when count > 0
    }

    /// Point estimate of quantile `q`: the midpoint of the containing
    /// bucket, clamped to the observed min/max.
    #[expect(clippy::integer_division_remainder_used, reason = "the divisor is the literal 2")]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let (lo, hi) = self.quantile_bounds(q)?;
        Some(lo + (hi - lo) / 2)
    }

    /// Median estimate.
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> Option<u64> {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// The histogram delta `self - earlier` (per-bucket, count and sum).
    ///
    /// `min`/`max` cannot be un-merged, so the delta keeps `self`'s values;
    /// they remain correct as *bounds* on the interval's samples.
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets = self.buckets;
        for (dst, was) in buckets.iter_mut().zip(&earlier.buckets) {
            *dst = dst.saturating_sub(*was);
        }
        HistogramSnapshot {
            buckets,
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            min: self.min,
            max: self.max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        for b in 0..BUCKETS {
            let (lo, hi) = bucket_bounds(b);
            assert_eq!(bucket_of(lo), b, "lo of bucket {b}");
            assert_eq!(bucket_of(hi), b, "hi of bucket {b}");
        }
    }

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        let g = Gauge::new();
        g.set(7);
        g.add(-10);
        assert_eq!(g.get(), -3);
    }

    #[test]
    fn histogram_accounting() {
        let h = Histogram::new();
        for v in [0u64, 1, 1, 5, 100, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1107);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1000);
        assert_eq!(s.mean(), Some(1107.0 / 6.0));
    }

    #[test]
    fn quantiles_of_empty_histogram_are_none() {
        let h = Histogram::new();
        assert_eq!(h.snapshot().quantile(0.5), None);
        assert_eq!(h.snapshot().quantile_bounds(0.99), None);
    }

    #[test]
    fn exact_quantiles_on_single_value() {
        let h = Histogram::new();
        for _ in 0..100 {
            h.record(64);
        }
        // one bucket, min == max == 64, so the bounds collapse
        let s = h.snapshot();
        assert_eq!(s.quantile_bounds(0.5), Some((64, 64)));
        assert_eq!(s.p50(), Some(64));
        assert_eq!(s.p99(), Some(64));
    }
}
