//! Token-bucket bandwidth throttling for the concrete (real-thread) engines.
//!
//! The simulated SSD/PMEM/PCIe devices in `pccheck-device` share a
//! [`TokenBucket`] per physical resource. Each writer thread acquires tokens
//! (bytes) before its write proceeds; when the bucket is dry the thread
//! blocks, which reproduces bandwidth contention between concurrent
//! checkpoints on real hardware.

use std::time::{Duration, Instant};

use crate::sync::{Condvar, Mutex};

use crate::units::{Bandwidth, ByteSize};

#[derive(Debug)]
struct BucketState {
    /// Tokens (bytes) currently available.
    available: f64,
    /// Last refill timestamp.
    last_refill: Instant,
}

/// A thread-safe token bucket metering bytes at a configured bandwidth.
///
/// Capacity is bounded (one "burst" worth of tokens) so long idle periods do
/// not bank unbounded credit.
///
/// # Examples
///
/// ```
/// use pccheck_util::{Bandwidth, ByteSize, TokenBucket};
/// // A fast bucket: 1 GB/s, so 1 MB acquires essentially instantly.
/// let bucket = TokenBucket::new(Bandwidth::from_gb_per_sec(1.0));
/// bucket.acquire(ByteSize::from_mb_u64(1));
/// ```
#[derive(Debug)]
pub struct TokenBucket {
    rate: Bandwidth,
    burst: f64,
    state: Mutex<BucketState>,
    cond: Condvar,
}

impl TokenBucket {
    /// Default burst window: the bucket can hold this many seconds of tokens.
    const BURST_WINDOW_SECS: f64 = 0.010;

    /// Creates a bucket refilling at `rate`, with a 10 ms burst capacity.
    pub fn new(rate: Bandwidth) -> Self {
        Self::with_burst_window(rate, Self::BURST_WINDOW_SECS)
    }

    /// Creates a bucket with an explicit burst window in seconds.
    ///
    /// # Panics
    ///
    /// Panics if `window_secs` is not strictly positive and finite.
    pub fn with_burst_window(rate: Bandwidth, window_secs: f64) -> Self {
        assert!(
            window_secs.is_finite() && window_secs > 0.0,
            "invalid burst window {window_secs}"
        );
        let burst = rate.as_bytes_per_sec() * window_secs;
        TokenBucket {
            rate,
            burst: burst.max(1.0),
            state: Mutex::new(BucketState {
                available: burst.max(1.0),
                last_refill: Instant::now(),
            }),
            cond: Condvar::new(),
        }
    }

    /// The configured refill rate.
    pub fn rate(&self) -> Bandwidth {
        self.rate
    }

    /// Blocks until `size` bytes of tokens have been consumed.
    ///
    /// Requests larger than the burst capacity are consumed in slices, so a
    /// huge write cannot monopolize the bucket: other threads interleave at
    /// burst granularity, giving processor-sharing-like fairness.
    pub fn acquire(&self, size: ByteSize) {
        let mut remaining = size.as_u64() as f64;
        while remaining > 0.0 {
            let want = remaining.min(self.burst);
            self.acquire_slice(want);
            remaining -= want;
        }
    }

    fn acquire_slice(&self, want: f64) {
        let mut state = self.state.lock();
        loop {
            self.refill(&mut state);
            if state.available >= want {
                state.available -= want;
                // Wake another waiter: tokens may remain for smaller requests.
                self.cond.notify_one();
                return;
            }
            let deficit = want - state.available;
            let wait_secs = deficit / self.rate.as_bytes_per_sec();
            let timeout = Duration::from_secs_f64(wait_secs.clamp(1e-6, 0.050));
            state = self.cond.wait_timeout(state, timeout);
        }
    }

    fn refill(&self, state: &mut BucketState) {
        let now = Instant::now();
        let elapsed = now.duration_since(state.last_refill).as_secs_f64();
        if elapsed > 0.0 {
            state.available =
                (state.available + elapsed * self.rate.as_bytes_per_sec()).min(self.burst);
            state.last_refill = now;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn acquire_blocks_to_enforce_rate() {
        // 10 MB/s bucket; acquiring 2 MB beyond the burst should take ~0.2 s.
        let bucket = TokenBucket::new(Bandwidth::from_mb_per_sec(10.0));
        let start = Instant::now();
        bucket.acquire(ByteSize::from_mb_u64(2));
        let elapsed = start.elapsed().as_secs_f64();
        assert!(elapsed > 0.1, "finished too fast: {elapsed}s");
        assert!(elapsed < 1.0, "took far too long: {elapsed}s");
    }

    #[test]
    fn small_acquires_within_burst_are_fast() {
        let bucket = TokenBucket::new(Bandwidth::from_gb_per_sec(1.0));
        let start = Instant::now();
        bucket.acquire(ByteSize::from_kb(64));
        assert!(start.elapsed().as_secs_f64() < 0.05);
    }

    #[test]
    fn concurrent_acquirers_share_bandwidth() {
        // Two threads each pulling 1 MB from a 10 MB/s bucket: total 2 MB
        // must take ~0.2 s, no matter the interleaving.
        let bucket = Arc::new(TokenBucket::new(Bandwidth::from_mb_per_sec(10.0)));
        let start = Instant::now();
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let b = Arc::clone(&bucket);
                std::thread::spawn(move || b.acquire(ByteSize::from_mb_u64(1)))
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let elapsed = start.elapsed().as_secs_f64();
        assert!(elapsed > 0.1, "contention not enforced: {elapsed}s");
        assert!(elapsed < 1.5, "deadlock-ish slowness: {elapsed}s");
    }

    #[test]
    fn zero_byte_acquire_is_noop() {
        let bucket = TokenBucket::new(Bandwidth::from_mb_per_sec(1.0));
        bucket.acquire(ByteSize::ZERO);
    }

    #[test]
    fn rate_accessor_round_trips() {
        let bucket = TokenBucket::new(Bandwidth::from_mb_per_sec(5.0));
        assert!((bucket.rate().as_gb_per_sec() - 5.0 / 1024.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "invalid burst window")]
    fn invalid_burst_window_rejected() {
        TokenBucket::with_burst_window(Bandwidth::from_mb_per_sec(1.0), 0.0);
    }
}
