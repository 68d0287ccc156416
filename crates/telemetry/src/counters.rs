//! Lifecycle counters with a consistent snapshot.
//!
//! The engine's first statistics block exposed three independent `Relaxed`
//! loads; a caller summing them mid-flight could observe a committed
//! checkpoint whose request was not yet counted. [`CheckpointCounters`]
//! keeps the one-atomic-add hot path but adds
//! [`snapshot`](CheckpointCounters::snapshot): a double-read stabilization loop that
//! returns one mutually consistent view of all five counters.

use std::sync::atomic::{AtomicU64, Ordering};

/// Cumulative checkpoint-lifecycle counters.
#[derive(Debug, Default)]
pub struct CheckpointCounters {
    requested: AtomicU64,
    committed: AtomicU64,
    superseded: AtomicU64,
    failed: AtomicU64,
    bytes_persisted: AtomicU64,
}

/// One consistent view of [`CheckpointCounters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CountersSnapshot {
    /// Checkpoint requests accepted.
    pub requested: u64,
    /// Checkpoints that became the latest committed state.
    pub committed: u64,
    /// Checkpoints that lost the commit race to a newer one.
    pub superseded: u64,
    /// Checkpoints that failed (device error, crash injection).
    pub failed: u64,
    /// Payload bytes of committed checkpoints.
    pub bytes_persisted: u64,
}

impl CountersSnapshot {
    /// Spans that reached a terminal state.
    pub fn terminated(&self) -> u64 {
        self.committed + self.superseded + self.failed
    }

    /// Spans still in flight at snapshot time.
    pub fn in_flight(&self) -> u64 {
        self.requested.saturating_sub(self.terminated())
    }
}

impl CheckpointCounters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts an accepted request.
    pub fn incr_requested(&self) {
        self.requested.fetch_add(1, Ordering::Release);
    }

    /// Counts a committed checkpoint of `bytes` payload bytes.
    pub fn incr_committed(&self, bytes: u64) {
        self.bytes_persisted.fetch_add(bytes, Ordering::Release);
        self.committed.fetch_add(1, Ordering::Release);
    }

    /// Counts a superseded checkpoint.
    pub fn incr_superseded(&self) {
        self.superseded.fetch_add(1, Ordering::Release);
    }

    /// Counts a failed checkpoint.
    pub fn incr_failed(&self) {
        self.failed.fetch_add(1, Ordering::Release);
    }

    /// Checkpoint requests accepted.
    pub fn requested(&self) -> u64 {
        self.requested.load(Ordering::Acquire)
    }

    /// Checkpoints that became the latest committed state.
    pub fn committed(&self) -> u64 {
        self.committed.load(Ordering::Acquire)
    }

    /// Checkpoints that lost the commit race.
    pub fn superseded(&self) -> u64 {
        self.superseded.load(Ordering::Acquire)
    }

    /// Checkpoints that failed.
    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Acquire)
    }

    /// Payload bytes of committed checkpoints.
    pub fn bytes_persisted(&self) -> u64 {
        self.bytes_persisted.load(Ordering::Acquire)
    }

    /// Adds every count of `other`: the metrics registry's fold of a
    /// service's recorders.
    pub(crate) fn add(&self, other: &CountersSnapshot) {
        self.requested.fetch_add(other.requested, Ordering::Release);
        self.bytes_persisted
            .fetch_add(other.bytes_persisted, Ordering::Release);
        self.committed.fetch_add(other.committed, Ordering::Release);
        self.superseded
            .fetch_add(other.superseded, Ordering::Release);
        self.failed.fetch_add(other.failed, Ordering::Release);
    }

    fn read_all(&self) -> CountersSnapshot {
        // Read order is load-bearing: terminals before bytes before
        // requested. Writers bump `requested` first and `bytes_persisted`
        // before `committed`, so even an unstabilized sweep satisfies
        // `terminated() <= requested` and `bytes_persisted >= committed
        // payloads`.
        let committed = self.committed.load(Ordering::Acquire);
        let superseded = self.superseded.load(Ordering::Acquire);
        let failed = self.failed.load(Ordering::Acquire);
        let bytes_persisted = self.bytes_persisted.load(Ordering::Acquire);
        let requested = self.requested.load(Ordering::Acquire);
        CountersSnapshot {
            requested,
            committed,
            superseded,
            failed,
            bytes_persisted,
        }
    }

    /// One mutually consistent view of all counters: reads until two
    /// consecutive sweeps agree (bounded; concurrent updates during a
    /// quiescent moment converge in one retry).
    pub fn snapshot(&self) -> CountersSnapshot {
        let mut prev = self.read_all();
        for _ in 0..64 {
            let next = self.read_all();
            if next == prev {
                return next;
            }
            prev = next;
            std::hint::spin_loop();
        }
        // Under sustained contention return the freshest sweep; each field
        // is individually exact and `terminated() <= requested` still holds
        // because requests are counted before terminals.
        prev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counters_accumulate() {
        let c = CheckpointCounters::new();
        c.incr_requested();
        c.incr_requested();
        c.incr_committed(100);
        c.incr_superseded();
        let s = c.snapshot();
        assert_eq!(s.requested, 2);
        assert_eq!(s.committed, 1);
        assert_eq!(s.superseded, 1);
        assert_eq!(s.failed, 0);
        assert_eq!(s.bytes_persisted, 100);
        assert_eq!(s.terminated(), 2);
        assert_eq!(s.in_flight(), 0);
    }

    #[test]
    fn snapshot_is_internally_consistent_under_concurrency() {
        let c = Arc::new(CheckpointCounters::new());
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writer = {
            let c = Arc::clone(&c);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    c.incr_requested();
                    c.incr_committed(8);
                    n += 1;
                }
                n
            })
        };
        for _ in 0..1000 {
            let s = c.snapshot();
            // The request is counted before the terminal, so a consistent
            // snapshot can never show more terminations than requests.
            assert!(
                s.terminated() <= s.requested,
                "terminated {} > requested {}",
                s.terminated(),
                s.requested
            );
            assert!(
                s.bytes_persisted >= s.committed * 8,
                "bytes {} < committed {} * 8",
                s.bytes_persisted,
                s.committed
            );
        }
        stop.store(true, Ordering::Relaxed);
        let total = writer.join().unwrap();
        let s = c.snapshot();
        assert_eq!(s.requested, total);
        assert_eq!(s.committed, total);
    }
}
