//! Fixed-bucket latency histograms.
//!
//! Concurrent checkpoint workers record nanosecond durations with one
//! atomic increment — no locks, no allocation — into power-of-two buckets
//! (bucket `i` covers `[2^i, 2^(i+1))` ns). Quantile queries walk the 64
//! buckets and interpolate linearly inside the winning bucket, so the
//! relative error is bounded by the bucket width (< 2×) and in practice far
//! less; exact min/max/sum/count are tracked separately.

use std::sync::atomic::{AtomicU64, Ordering};

const BUCKETS: usize = 64;

/// A lock-free histogram of nanosecond latencies.
#[derive(Debug)]
pub(crate) struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Point-in-time summary of one histogram (plain data for reports).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HistogramSummary {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples, nanoseconds.
    pub(crate) sum_nanos: u64,
    /// Exact minimum sample (0 when empty).
    pub(crate) min_nanos: u64,
    /// Exact maximum sample (0 when empty).
    pub(crate) max_nanos: u64,
    /// Estimated median.
    pub p50_nanos: u64,
    /// Estimated 95th percentile.
    pub p95_nanos: u64,
    /// Estimated 99th percentile.
    pub(crate) p99_nanos: u64,
}

impl HistogramSummary {
    /// Arithmetic mean in nanoseconds (0 when empty).
    pub(crate) fn mean_nanos(&self) -> u64 {
        self.sum_nanos.checked_div(self.count).unwrap_or(0)
    }
}

fn bucket_of(nanos: u64) -> usize {
    // 0 and 1 land in bucket 0; otherwise floor(log2).
    (63 - nanos.max(1).leading_zeros()) as usize
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub(crate) fn new() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample of `nanos`.
    pub(crate) fn record(&self, nanos: u64) {
        self.buckets[bucket_of(nanos)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(nanos, Ordering::Relaxed);
        self.min.fetch_min(nanos, Ordering::Relaxed);
        self.max.fetch_max(nanos, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub(crate) fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples in nanoseconds.
    pub(crate) fn sum_nanos(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Exact smallest sample (0 when empty).
    pub(crate) fn min_nanos(&self) -> u64 {
        let m = self.min.load(Ordering::Relaxed);
        if m == u64::MAX {
            0
        } else {
            m
        }
    }

    /// Exact largest sample (0 when empty).
    pub(crate) fn max_nanos(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Estimated quantile `q` in `[0, 1]`, clamped to the exact min/max.
    ///
    /// Returns 0 for an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub(crate) fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        let total = self.count();
        if total == 0 {
            return 0;
        }
        // Rank of the sample we want, 1-based. The extreme ranks are the
        // exact tracked min/max.
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        if rank == 1 {
            return self.min_nanos();
        }
        if rank == total {
            return self.max_nanos();
        }
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                // Interpolate within bucket [2^i, 2^(i+1)), bounded by what
                // the bucket can actually contain: the floor is the exact
                // min (binds in the min's own bucket), the ceiling is the
                // bucket's largest representable value — or the exact max,
                // whichever is smaller. With few samples the tail rank used
                // to interpolate up to the *next* bucket's lower edge
                // (frac == 1 → est == hi); clamping to the attainable top
                // keeps small-n p95/p99 from reporting past the data.
                let lo = (1u64 << i).max(self.min_nanos());
                let hi = if i + 1 >= 64 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
                let top = hi.min(self.max_nanos()).max(lo);
                let frac = (rank - seen) as f64 / c as f64;
                let est = lo as f64 + frac * (top - lo) as f64;
                return (est as u64).clamp(self.min_nanos(), self.max_nanos());
            }
            seen += c;
        }
        self.max_nanos()
    }

    /// Per-bucket sample counts (bucket `i` covers `[2^i, 2^(i+1))` ns).
    ///
    /// This is the raw shape behind [`quantile`](Self::quantile); the
    /// metrics registry exposes it as Prometheus `le` buckets, and the SLO
    /// watchdog diffs successive snapshots of it to compute quantiles over
    /// a rolling window.
    pub(crate) fn bucket_counts(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Inclusive upper bound of bucket `i` (`2^(i+1) - 1`, saturating to
    /// `u64::MAX` for the last bucket).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 64`.
    pub(crate) const fn bucket_bound(i: usize) -> u64 {
        assert!(i < BUCKETS);
        if i + 1 >= 64 {
            u64::MAX
        } else {
            (1u64 << (i + 1)) - 1
        }
    }

    /// A point-in-time summary (count, min/max, p50/p95/p99).
    pub(crate) fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            sum_nanos: self.sum_nanos(),
            min_nanos: self.min_nanos(),
            max_nanos: self.max_nanos(),
            p50_nanos: self.quantile(0.50),
            p95_nanos: self.quantile(0.95),
            p99_nanos: self.quantile(0.99),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_zeroes() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min_nanos(), 0);
        assert_eq!(h.max_nanos(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.summary(), HistogramSummary::default());
    }

    #[test]
    fn bucket_indexing() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(1023), 9);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), 63);
    }

    #[test]
    fn exact_stats_are_exact() {
        let h = LatencyHistogram::new();
        for ns in [5u64, 17, 1000, 250, 42] {
            h.record(ns);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum_nanos(), 5 + 17 + 1000 + 250 + 42);
        assert_eq!(h.min_nanos(), 5);
        assert_eq!(h.max_nanos(), 1000);
        assert_eq!(h.summary().mean_nanos(), (5 + 17 + 1000 + 250 + 42) / 5);
    }

    #[test]
    fn percentiles_with_known_inputs() {
        // 100 samples: 1..=100 microseconds.
        let h = LatencyHistogram::new();
        for us in 1..=100u64 {
            h.record(us * 1000);
        }
        let p50 = h.quantile(0.50);
        let p95 = h.quantile(0.95);
        let p99 = h.quantile(0.99);
        // True values: 50us, 95us, 99us. Log2 buckets guarantee < 2x error.
        assert!((25_000..=100_000).contains(&p50), "p50 = {p50}");
        assert!((47_500..=190_000).contains(&p95), "p95 = {p95}");
        assert!((49_500..=198_000).contains(&p99), "p99 = {p99}");
        // Ordering and clamping hold.
        assert!(p50 <= p95 && p95 <= p99);
        assert!(p99 <= h.max_nanos());
        assert_eq!(h.quantile(1.0), 100_000, "q=1.0 clamps to exact max");
        assert_eq!(h.quantile(0.0), 1000, "q=0 clamps to exact min");
    }

    #[test]
    fn identical_samples_give_exact_percentiles() {
        let h = LatencyHistogram::new();
        for _ in 0..10 {
            h.record(4096);
        }
        // All in one bucket, clamped to exact min=max=4096.
        assert_eq!(h.quantile(0.5), 4096);
        assert_eq!(h.quantile(0.99), 4096);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn quantile_out_of_range_panics() {
        LatencyHistogram::new().quantile(1.5);
    }

    #[test]
    fn small_sample_tail_quantiles_clamp_to_observed_max() {
        // Regression: whenever the nearest-rank tail rank ceil(q*n) equals
        // the count — true for every n <= 19 at p95 and n <= 99 at p99 —
        // the quantile must be the *exact* max, not an interpolation.
        for n in [1u64, 3, 10, 19] {
            let h = LatencyHistogram::new();
            for i in 0..n {
                h.record(600 + i);
            }
            assert_eq!(h.quantile(0.95), h.max_nanos(), "p95 with n={n}");
            assert_eq!(h.quantile(0.99), h.max_nanos(), "p99 with n={n}");
        }
        for n in [50u64, 99] {
            let h = LatencyHistogram::new();
            for i in 0..n {
                h.record(1_000 + i * 7);
            }
            assert_eq!(h.quantile(0.99), h.max_nanos(), "p99 with n={n}");
        }
    }

    #[test]
    fn interpolation_stays_inside_the_winning_bucket() {
        // 24 samples at 600ns (bucket [512, 1024)) and one outlier. The
        // p95 rank (24) is the last sample of the 600ns bucket: the old
        // full-bucket interpolation returned 1024 — the *next* bucket's
        // lower edge. The estimate must stay within the winning bucket.
        let h = LatencyHistogram::new();
        for _ in 0..24 {
            h.record(600);
        }
        h.record(40_000);
        let p95 = h.quantile(0.95);
        assert!((600..=1023).contains(&p95), "p95 = {p95}");
        // The outlier itself is still reported exactly at the extreme rank.
        assert_eq!(h.quantile(0.99), 40_000);
        assert_eq!(h.quantile(1.0), 40_000);
    }

    #[test]
    fn quantiles_never_exceed_observed_max() {
        // Mini property sweep: whatever the shape, no quantile escapes the
        // observed [min, max] envelope.
        let mut x = 0x9e3779b97f4a7c15u64;
        let h = LatencyHistogram::new();
        for _ in 0..37 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            h.record(x % 1_000_000 + 1);
        }
        for q in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            let v = h.quantile(q);
            assert!(v >= h.min_nanos() && v <= h.max_nanos(), "q={q} v={v}");
        }
    }

    #[test]
    fn bucket_counts_expose_raw_shape() {
        let h = LatencyHistogram::new();
        h.record(1);
        h.record(3);
        h.record(600);
        h.record(600);
        let counts = h.bucket_counts();
        assert_eq!(counts[0], 1);
        assert_eq!(counts[1], 1);
        assert_eq!(counts[9], 2);
        assert_eq!(counts.iter().sum::<u64>(), h.count());
        assert_eq!(LatencyHistogram::bucket_bound(0), 1);
        assert_eq!(LatencyHistogram::bucket_bound(9), 1023);
        assert_eq!(LatencyHistogram::bucket_bound(63), u64::MAX);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(LatencyHistogram::new());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let h = std::sync::Arc::clone(&h);
            handles.push(std::thread::spawn(move || {
                for i in 0..1000u64 {
                    h.record(t * 1_000_000 + i + 1);
                }
            }));
        }
        for hnd in handles {
            hnd.join().unwrap();
        }
        assert_eq!(h.count(), 4000);
        assert_eq!(h.min_nanos(), 1);
        assert_eq!(h.max_nanos(), 3 * 1_000_000 + 1000);
    }
}
