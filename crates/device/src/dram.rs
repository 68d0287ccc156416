//! Pinned host (DRAM) buffer pool.
//!
//! PCcheck stages GPU→storage transfers through pinned DRAM buffers managed
//! in fixed-size chunks (§3.1/§3.2). The pool is the throughput–memory
//! tradeoff knob: when every chunk is occupied (copied from GPU but not yet
//! persisted), the next checkpoint's copy must wait for a chunk to free up.
//!
//! [`HostBufferPool`] provides blocking `acquire` / RAII release with a peak
//! usage counter, so experiments can verify Table 1's DRAM footprint (m to
//! 2·m for PCcheck).

use std::sync::Arc;

use pccheck_util::sync::{Condvar, Mutex};

use pccheck_util::ByteSize;

use crate::error::DeviceError;
use crate::Result;

#[derive(Debug)]
struct PoolState {
    free: Vec<Box<[u8]>>,
    outstanding: usize,
    peak_outstanding: usize,
}

#[derive(Debug)]
struct PoolShared {
    chunk_size: ByteSize,
    total_chunks: usize,
    state: Mutex<PoolState>,
    cond: Condvar,
}

/// A pool of equally sized pinned DRAM chunks.
///
/// # Examples
///
/// ```
/// use pccheck_device::HostBufferPool;
/// use pccheck_util::ByteSize;
///
/// let pool = HostBufferPool::new(ByteSize::from_kb(4), 2);
/// let a = pool.acquire();
/// let b = pool.acquire();
/// assert_eq!(pool.available(), 0);
/// drop(a);
/// assert_eq!(pool.available(), 1);
/// # drop(b);
/// ```
#[derive(Debug, Clone)]
pub struct HostBufferPool {
    shared: Arc<PoolShared>,
}

impl HostBufferPool {
    /// Creates a pool of `chunks` buffers, each `chunk_size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `chunks == 0` or `chunk_size` is zero.
    pub fn new(chunk_size: ByteSize, chunks: usize) -> Self {
        assert!(chunks > 0, "pool needs at least one chunk");
        assert!(!chunk_size.is_zero(), "chunk size must be nonzero");
        let free = (0..chunks)
            .map(|_| vec![0u8; chunk_size.as_usize()].into_boxed_slice())
            .collect();
        HostBufferPool {
            shared: Arc::new(PoolShared {
                chunk_size,
                total_chunks: chunks,
                state: Mutex::new(PoolState {
                    free,
                    outstanding: 0,
                    peak_outstanding: 0,
                }),
                cond: Condvar::new(),
            }),
        }
    }

    /// Size of each chunk.
    pub fn chunk_size(&self) -> ByteSize {
        self.shared.chunk_size
    }

    /// Total number of chunks in the pool.
    pub fn total_chunks(&self) -> usize {
        self.shared.total_chunks
    }

    /// Total DRAM this pool represents.
    pub fn total_bytes(&self) -> ByteSize {
        self.shared.chunk_size * self.shared.total_chunks as u64
    }

    /// Chunks currently free.
    pub fn available(&self) -> usize {
        self.shared.state.lock().free.len()
    }

    /// High-water mark of simultaneously outstanding chunks — used to verify
    /// the Table 1 memory-footprint bounds.
    pub fn peak_outstanding(&self) -> usize {
        self.shared.state.lock().peak_outstanding
    }

    /// Blocks until a chunk is free and returns it.
    ///
    /// This is exactly the stall §3.2 describes: "when all CPU memory chunks
    /// are occupied, upcoming checkpoints need to wait for free chunks".
    pub fn acquire(&self) -> HostBuffer {
        let mut state = self.shared.state.lock();
        while state.free.is_empty() {
            state = self.shared.cond.wait(state);
        }
        let data = state.free.pop().expect("non-empty");
        state.outstanding += 1;
        state.peak_outstanding = state.peak_outstanding.max(state.outstanding);
        HostBuffer {
            data: Some(data),
            pool: Arc::clone(&self.shared),
        }
    }

    /// Blocks until `chunks` buffers are free at once and takes them all in
    /// one step — for a copier that must hold a *whole* snapshot before it
    /// can let any of it go. Two such copiers can never each sit on half a
    /// pool waiting for the other's half: a reservation holds nothing
    /// while it waits.
    ///
    /// # Panics
    ///
    /// Panics if `chunks` exceeds the pool: the wait could never end.
    pub fn acquire_many(&self, chunks: usize) -> Vec<HostBuffer> {
        assert!(
            chunks <= self.shared.total_chunks,
            "reservation of {chunks} chunks exceeds the pool's {}",
            self.shared.total_chunks
        );
        let mut state = self.shared.state.lock();
        while state.free.len() < chunks {
            state = self.shared.cond.wait(state);
        }
        self.take(&mut state, chunks)
    }

    /// Takes `chunks` buffers in one step if that many are free right now,
    /// and none otherwise.
    pub fn try_acquire_many(&self, chunks: usize) -> Option<Vec<HostBuffer>> {
        let mut state = self.shared.state.lock();
        (state.free.len() >= chunks).then(|| self.take(&mut state, chunks))
    }

    fn take(&self, state: &mut PoolState, chunks: usize) -> Vec<HostBuffer> {
        let at = state.free.len() - chunks;
        let taken = state.free.split_off(at);
        state.outstanding += chunks;
        state.peak_outstanding = state.peak_outstanding.max(state.outstanding);
        taken
            .into_iter()
            .map(|data| HostBuffer {
                data: Some(data),
                pool: Arc::clone(&self.shared),
            })
            .collect()
    }

    /// Tries to acquire a chunk without blocking.
    pub fn try_acquire(&self) -> Option<HostBuffer> {
        let mut state = self.shared.state.lock();
        let data = state.free.pop()?;
        state.outstanding += 1;
        state.peak_outstanding = state.peak_outstanding.max(state.outstanding);
        Some(HostBuffer {
            data: Some(data),
            pool: Arc::clone(&self.shared),
        })
    }

    /// Validates that `len` bytes fit into one chunk.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::BufferTooLarge`] if `len` exceeds the chunk
    /// size.
    pub fn check_fits(&self, len: ByteSize) -> Result<()> {
        if len > self.shared.chunk_size {
            return Err(DeviceError::BufferTooLarge {
                requested: len.as_u64(),
                chunk: self.shared.chunk_size.as_u64(),
            });
        }
        Ok(())
    }
}

/// A DRAM chunk checked out of a [`HostBufferPool`]; returns to the pool on
/// drop.
#[derive(Debug)]
pub struct HostBuffer {
    data: Option<Box<[u8]>>,
    pool: Arc<PoolShared>,
}

impl HostBuffer {
    /// The chunk's bytes.
    pub fn as_slice(&self) -> &[u8] {
        self.data.as_deref().expect("present until drop")
    }

    /// The chunk's bytes, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        self.data.as_deref_mut().expect("present until drop")
    }

    /// Chunk capacity in bytes.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Always false — chunks are never zero-sized.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }
}

impl Drop for HostBuffer {
    fn drop(&mut self) {
        if let Some(data) = self.data.take() {
            let mut state = self.pool.state.lock();
            state.free.push(data);
            state.outstanding -= 1;
            drop(state);
            // Every waiter re-checks: a one-chunk `acquire` and a
            // many-chunk reservation share this condvar, and a single
            // wakeup handed to a reservation still short of its count
            // would strand the one-chunk waiter beside it.
            self.pool.cond.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn pool_geometry() {
        let pool = HostBufferPool::new(ByteSize::from_kb(4), 3);
        assert_eq!(pool.chunk_size(), ByteSize::from_kb(4));
        assert_eq!(pool.total_chunks(), 3);
        assert_eq!(pool.total_bytes(), ByteSize::from_kb(12));
        assert_eq!(pool.available(), 3);
    }

    #[test]
    fn acquire_and_release_cycle() {
        let pool = HostBufferPool::new(ByteSize::from_bytes(16), 2);
        let mut a = pool.acquire();
        a.as_mut_slice()[0] = 42;
        assert_eq!(a.len(), 16);
        assert!(!a.is_empty());
        assert_eq!(pool.available(), 1);
        drop(a);
        assert_eq!(pool.available(), 2);
    }

    #[test]
    fn try_acquire_returns_none_when_exhausted() {
        let pool = HostBufferPool::new(ByteSize::from_bytes(8), 1);
        let held = pool.try_acquire().unwrap();
        assert!(pool.try_acquire().is_none());
        drop(held);
        assert!(pool.try_acquire().is_some());
    }

    #[test]
    fn acquire_blocks_until_chunk_freed() {
        let pool = HostBufferPool::new(ByteSize::from_bytes(8), 1);
        let held = pool.acquire();
        let pool2 = pool.clone();
        let start = Instant::now();
        let handle = std::thread::spawn(move || {
            let _b = pool2.acquire();
            start.elapsed()
        });
        std::thread::sleep(Duration::from_millis(100));
        drop(held);
        let waited = handle.join().unwrap();
        assert!(
            waited >= Duration::from_millis(80),
            "acquirer must have blocked: {waited:?}"
        );
    }

    #[test]
    fn reservations_take_their_chunks_in_one_step() {
        // Two whole-snapshot holders on a pool of 1.5 snapshots: the
        // second waits holding nothing, so the first can always finish.
        use std::sync::mpsc;

        let pool = HostBufferPool::new(ByteSize::from_bytes(8), 3);
        let first = pool.acquire_many(2);
        assert_eq!(pool.available(), 1);
        let (tx, rx) = mpsc::channel();
        let pool2 = pool.clone();
        let second = std::thread::spawn(move || {
            let held = pool2.acquire_many(2);
            tx.send(held.len()).unwrap();
        });
        // The waiter took nothing while it waits: a one-chunk acquire
        // still succeeds.
        let one = pool.try_acquire().expect("the odd chunk is free");
        assert!(rx.try_recv().is_err(), "2 chunks are not free yet");
        assert!(pool.try_acquire_many(1).is_none(), "none left to try for");
        drop(one);
        assert_eq!(pool.try_acquire_many(1).map(|taken| taken.len()), Some(1));
        drop(first);
        assert_eq!(rx.recv().unwrap(), 2);
        second.join().unwrap();
        assert_eq!(pool.available(), 3);
        assert_eq!(pool.peak_outstanding(), 3);
    }

    #[test]
    fn peak_outstanding_tracks_high_water_mark() {
        let pool = HostBufferPool::new(ByteSize::from_bytes(8), 4);
        let a = pool.acquire();
        let b = pool.acquire();
        let c = pool.acquire();
        drop(b);
        let d = pool.acquire();
        assert_eq!(pool.peak_outstanding(), 3);
        drop((a, c, d));
        assert_eq!(pool.peak_outstanding(), 3, "peak is sticky");
        assert_eq!(pool.available(), 4);
    }

    #[test]
    fn check_fits_validates_against_chunk_size() {
        let pool = HostBufferPool::new(ByteSize::from_bytes(100), 1);
        assert!(pool.check_fits(ByteSize::from_bytes(100)).is_ok());
        assert!(matches!(
            pool.check_fits(ByteSize::from_bytes(101)),
            Err(DeviceError::BufferTooLarge { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "at least one chunk")]
    fn zero_chunks_rejected() {
        HostBufferPool::new(ByteSize::from_bytes(8), 0);
    }

    #[test]
    fn clone_shares_the_same_pool() {
        let pool = HostBufferPool::new(ByteSize::from_bytes(8), 2);
        let clone = pool.clone();
        let _a = pool.acquire();
        assert_eq!(clone.available(), 1);
    }

    #[test]
    fn exhausted_pool_blocks_acquirers_until_buffers_recycle() {
        // More concurrent consumers than staging buffers: every acquire
        // must block (never panic, never hand out a duplicate) and make
        // progress as soon as a buffer recycles.
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        let pool = HostBufferPool::new(ByteSize::from_bytes(64), 2);
        let holders = Arc::new(AtomicUsize::new(0));
        let completed = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for w in 0..6u8 {
                let pool = pool.clone();
                let holders = Arc::clone(&holders);
                let completed = Arc::clone(&completed);
                s.spawn(move || {
                    for i in 0..20 {
                        let mut buf = pool.acquire();
                        let live = holders.fetch_add(1, Ordering::SeqCst) + 1;
                        assert!(live <= 2, "more buffers live than the pool owns");
                        buf.as_mut_slice()[0] = w.wrapping_mul(31).wrapping_add(i);
                        std::thread::yield_now();
                        holders.fetch_sub(1, Ordering::SeqCst);
                        drop(buf); // recycle: unblocks a waiting acquirer
                        completed.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert_eq!(completed.load(Ordering::SeqCst), 6 * 20);
        assert_eq!(pool.available(), 2);
        assert_eq!(pool.peak_outstanding(), 2, "never exceeded the pool size");
    }

    #[test]
    fn trickled_releases_wake_every_blocked_waiter() {
        // The lost-wakeup shape: k waiters blocked on an exhausted pool,
        // then k one-at-a-time releases. Each drop notifies exactly one
        // waiter; if any notification were consumed without a handoff
        // (or fired before the waiter queued), some waiter would sleep
        // forever and the join below would hang the test.
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::{Arc, Barrier};

        let pool = HostBufferPool::new(ByteSize::from_bytes(32), 4);
        let held: Vec<_> = (0..4).map(|_| pool.acquire()).collect();
        let blocked = Arc::new(Barrier::new(5));
        let woken = Arc::new(AtomicUsize::new(0));
        let waiters: Vec<_> = (0..4)
            .map(|_| {
                let pool = pool.clone();
                let blocked = Arc::clone(&blocked);
                let woken = Arc::clone(&woken);
                std::thread::spawn(move || {
                    blocked.wait();
                    let buf = pool.acquire();
                    woken.fetch_add(1, Ordering::SeqCst);
                    drop(buf);
                })
            })
            .collect();
        blocked.wait();
        // Give the waiters a beat to actually park on the condvar, then
        // trickle the buffers back one by one.
        std::thread::sleep(std::time::Duration::from_millis(20));
        for buf in held {
            drop(buf);
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        for w in waiters {
            w.join().unwrap();
        }
        assert_eq!(woken.load(Ordering::SeqCst), 4);
        assert_eq!(pool.available(), 4);
    }

    #[test]
    fn four_jobs_racing_for_one_chunk_all_finish_their_quota() {
        // Fair-wakeup check in the form that matters for the daemon:
        // four "jobs" (engine facades) share one chunk of staging DRAM.
        // Completion of every quota proves no waiter is starved by the
        // wakeup order; the holders gauge proves exclusivity.
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        let pool = HostBufferPool::new(ByteSize::from_bytes(64), 1);
        let holders = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for job in 0..4u8 {
                let pool = pool.clone();
                let holders = Arc::clone(&holders);
                s.spawn(move || {
                    for i in 0..50 {
                        let mut buf = pool.acquire();
                        assert_eq!(holders.fetch_add(1, Ordering::SeqCst), 0);
                        buf.as_mut_slice()[0] = job.wrapping_mul(67).wrapping_add(i);
                        holders.fetch_sub(1, Ordering::SeqCst);
                        drop(buf);
                    }
                });
            }
        });
        assert_eq!(pool.available(), 1);
        assert_eq!(pool.peak_outstanding(), 1);
    }
}
