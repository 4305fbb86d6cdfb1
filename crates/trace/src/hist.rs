//! The log₂-bucket latency histogram shared by the service stats and the
//! trace summary. Lives here (the bottom of the crate stack) so both
//! `gts-core` and the tracing layer can reuse one implementation;
//! `gts_core::stats` re-exports it unchanged.

/// A fixed-size log₂ histogram of `u64` samples (latencies in cycles or
/// microseconds), used by the online query service to record per-request
/// queue waits and per-batch simulated spans without unbounded memory.
///
/// Bucket `b` covers values whose bit length is `b` — i.e. `[2^(b−1), 2^b)`
/// for `b ≥ 1`, with bucket 0 holding exact zeros.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    max: u64,
    /// Smallest sample seen; `u64::MAX` sentinel while empty so `record`
    /// stays a plain `min` without an emptiness branch.
    min: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            max: 0,
            min: u64::MAX,
        }
    }
}

impl LatencyHistogram {
    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[(64 - v.leading_zeros()) as usize] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
        self.min = self.min.min(v);
    }

    /// Add every sample of `other`, bucket by bucket: the result equals one
    /// histogram that recorded both sample sets.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
        self.min = self.min.min(other.min);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample seen (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Smallest sample seen (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Mean sample value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimate of the `q`-quantile (`0 ≤ q ≤ 1`) by linear interpolation
    /// within the log₂ bucket holding the quantile rank: the rank's bucket
    /// `[2^(b−1), 2^b)` is assumed uniformly filled by its `n_b` samples, so
    /// the estimate is `2^(b−1) + 2^(b−1) · p / n_b` where `p` is the rank's
    /// position inside the bucket. Exact for samples that fill their bucket
    /// uniformly; never off by more than the bucket width (a factor of two)
    /// otherwise. Clamped to the observed maximum so outliers don't inflate
    /// the top bucket. The boundaries are exact, not interpolated:
    /// `q = 0.0` returns the observed minimum and `q = 1.0` the observed
    /// maximum. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        if q <= 0.0 {
            return self.min;
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                if b == 0 {
                    return 0;
                }
                // Position of the rank inside this bucket, 1-based.
                let p = rank - seen;
                let lo = 1u128 << (b - 1);
                let est = lo + (lo * u128::from(p)) / u128::from(n);
                return (est.min(u128::from(self.max)) as u64).max(self.min);
            }
            seen += n;
        }
        self.max
    }

    /// The raw log₂ bucket counts. Bucket `b` holds samples of bit length
    /// `b`, i.e. values in `[2^(b−1), 2^b)` for `b ≥ 1` and exact zeros
    /// for `b = 0` — so every sample in buckets `0..=b` is `≤ 2^b − 1`,
    /// which is exactly the cumulative `le` series a Prometheus histogram
    /// exposition needs.
    pub fn buckets(&self) -> &[u64; 65] {
        &self.buckets
    }

    /// Inclusive upper bound of bucket `b` (`2^b − 1`, saturating at
    /// `u64::MAX` for the top bucket): the largest value whose bit length
    /// is at most `b`.
    pub fn bucket_upper(b: usize) -> u64 {
        if b >= 64 {
            u64::MAX
        } else {
            (1u64 << b) - 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_records_and_quantiles() {
        let mut h = LatencyHistogram::default();
        assert_eq!(h.quantile(0.5), 0);
        for v in [0u64, 1, 2, 3, 900, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1906);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 1906.0 / 6.0).abs() < 1e-9);
        assert_eq!(h.quantile(0.0), 0, "lowest sample is an exact zero");
        // p99 rank lands on the last sample; the top-bucket interpolation is
        // clamped to the observed max.
        assert_eq!(h.quantile(0.99), 1000);
        // The interpolated median stays inside the middle samples' range.
        assert!(h.quantile(0.5) >= 2 && h.quantile(0.5) < 900);
    }

    #[test]
    fn interpolated_quantiles_track_exact_on_uniform_samples() {
        // 1..=1023 fills every log₂ bucket uniformly, which is exactly the
        // regime where within-bucket interpolation recovers the true
        // quantile: the estimate must land within ±2 of the exact order
        // statistic (rounding inside the bucket), far tighter than the
        // factor-of-two bucket bound. The k-th order statistic here is k.
        let mut h = LatencyHistogram::default();
        for v in 1..=1023u64 {
            h.record(v);
        }
        for q in [0.10f64, 0.25, 0.50, 0.75, 0.95, 0.999] {
            let exact = ((q * 1023.0).ceil() as u64).max(1);
            let est = h.quantile(q);
            assert!(
                est.abs_diff(exact) <= 2,
                "q={q}: interpolated {est} vs exact {exact}"
            );
        }
        assert_eq!(h.quantile(1.0), 1023, "p100 is the max");
    }

    #[test]
    fn quantile_interpolates_within_a_single_bucket() {
        // All samples in one bucket [64, 128): interpolation walks the
        // bucket linearly instead of reporting the upper bound for every q.
        let mut h = LatencyHistogram::default();
        for v in [64u64, 80, 96, 112] {
            h.record(v);
        }
        let q25 = h.quantile(0.25);
        let q75 = h.quantile(0.75);
        assert!(q25 < q75, "quantiles are monotone inside a bucket");
        assert_eq!(q25, 64 + 64 / 4, "rank 1 of 4: lo + width·1/4");
        assert_eq!(q75, 64 + 64 * 3 / 4, "rank 3 of 4: lo + width·3/4");
        assert_eq!(h.quantile(1.0), 112, "clamped to the observed max");
    }

    #[test]
    fn empty_histogram_quantiles_and_min_are_zero() {
        let h = LatencyHistogram::default();
        for q in [-1.0f64, 0.0, 0.5, 1.0, 2.0] {
            assert_eq!(h.quantile(q), 0, "q={q} on an empty histogram");
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn quantile_boundaries_are_exact_order_statistics() {
        let mut h = LatencyHistogram::default();
        for v in [7u64, 100, 3_000, 9_999] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 7, "q=0 is the observed minimum");
        assert_eq!(h.quantile(1.0), 9_999, "q=1 is the observed maximum");
        // Out-of-range inputs clamp to the boundaries.
        assert_eq!(h.quantile(-0.5), 7);
        assert_eq!(h.quantile(1.5), 9_999);
        assert_eq!(h.min(), 7);
        // Interior quantiles never escape the observed [min, max] range.
        for q in [0.01f64, 0.25, 0.5, 0.75, 0.99] {
            let est = h.quantile(q);
            assert!((7..=9_999).contains(&est), "q={q}: {est}");
        }
    }
}
