//! Order statistics over the benchmark's own samples (exact, no buckets).

/// Median of the values; the mean of the middle two for an even count, and
/// NaN for none (a phase that could not run reports no number).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// (max − min) ÷ median of the values, the spread printed beside a median.
pub fn spread(values: &[f64]) -> f64 {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (hi - lo) / median(values)
}

/// Sorted copy of latency samples.
pub fn sorted(samples: &[u64]) -> Vec<u64> {
    let mut v = samples.to_vec();
    v.sort_unstable();
    v
}

/// The `p`-quantile (nearest rank) of already sorted samples; 0 for none.
pub fn quantile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail percentile a sample supports: p99 when at least ten samples lie
/// beyond it, otherwise the highest percentile that still has ten beyond it
/// (never below the median).
pub fn tail_p(n: usize) -> f64 {
    (1.0 - 10.0 / n as f64).clamp(0.5, 0.99)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&s, 0.5), 50);
        assert_eq!(quantile(&s, 0.99), 99);
        assert_eq!(tail_p(5000), 0.99);
        assert_eq!(tail_p(100), 0.9);
        assert_eq!(tail_p(10), 0.5);
    }

    #[test]
    fn nothing_sampled_is_not_a_panic() {
        assert!(median(&[]).is_nan());
        assert_eq!(quantile(&[], 0.5), 0);
    }
}
