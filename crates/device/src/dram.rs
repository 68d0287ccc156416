//! Pinned host (DRAM) buffer pool.
//!
//! PCcheck stages GPU→storage transfers through pinned DRAM buffers managed
//! in fixed-size chunks (§3.1/§3.2). The chunk count is a cap: the pool
//! starts empty and keeps what checkouts made it allocate, so its resident
//! DRAM is the high-water of chunks out at once. At the cap, with every
//! chunk occupied (copied from GPU but not yet persisted), the next
//! checkpoint's copy waits for one to free.
//!
//! [`HostBufferPool`] provides blocking `acquire` / RAII release with a peak
//! usage counter, so experiments can verify Table 1's DRAM footprint (m to
//! 2·m for PCcheck).

use std::sync::Arc;

use pccheck_util::sync::{Condvar, Mutex, MutexGuard};

use pccheck_util::ByteSize;

#[derive(Debug)]
struct PoolState {
    free: Vec<Box<[u8]>>,
    /// Chunks allocated, or reserved to be allocated outside the lock.
    resident: usize,
    outstanding: usize,
    peak_outstanding: usize,
    /// Acquirers blocked on the condvar: a release wakes them only if any.
    waiting: usize,
}

#[derive(Debug)]
struct PoolShared {
    chunk_size: ByteSize,
    total_chunks: usize,
    state: Mutex<PoolState>,
    cond: Condvar,
}

impl PoolShared {
    /// Free chunks plus the budget not yet allocated.
    fn available(&self, state: &PoolState) -> usize {
        state.free.len() + self.total_chunks - state.resident
    }
}

/// A pool of at most `chunks` equally sized pinned DRAM chunks.
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
/// assert_eq!(pool.resident_chunks(), 2);
/// # drop(b);
/// ```
#[derive(Debug, Clone)]
pub struct HostBufferPool {
    shared: Arc<PoolShared>,
}

impl HostBufferPool {
    /// Creates an empty pool that grows to at most `chunks` buffers, each
    /// `chunk_size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `chunks == 0` or `chunk_size` is zero.
    pub fn new(chunk_size: ByteSize, chunks: usize) -> Self {
        assert!(chunks > 0, "pool needs at least one chunk");
        assert!(!chunk_size.is_zero(), "chunk size must be nonzero");
        HostBufferPool {
            shared: Arc::new(PoolShared {
                chunk_size,
                total_chunks: chunks,
                state: Mutex::new(PoolState {
                    free: Vec::new(),
                    resident: 0,
                    outstanding: 0,
                    peak_outstanding: 0,
                    waiting: 0,
                }),
                cond: Condvar::new(),
            }),
        }
    }

    /// Size of each chunk.
    pub fn chunk_size(&self) -> ByteSize {
        self.shared.chunk_size
    }

    /// The pool's budget: the most chunks it ever holds.
    pub fn total_chunks(&self) -> usize {
        self.shared.total_chunks
    }

    /// Chunks to be had without waiting: free ones plus unallocated budget.
    pub fn available(&self) -> usize {
        self.shared.available(&self.shared.state.lock())
    }

    /// Chunks the pool has allocated — its resident DRAM in chunks. It
    /// never shrinks, and it equals [`peak_outstanding`](Self::peak_outstanding).
    pub fn resident_chunks(&self) -> usize {
        self.shared.state.lock().resident
    }

    /// High-water mark of simultaneously outstanding chunks — used to verify
    /// the Table 1 memory-footprint bounds.
    pub fn peak_outstanding(&self) -> usize {
        self.shared.state.lock().peak_outstanding
    }

    /// Blocks until a chunk is free, or the budget has room for one, and
    /// returns it.
    ///
    /// This is exactly the stall §3.2 describes: "when all CPU memory chunks
    /// are occupied, upcoming checkpoints need to wait for free chunks".
    pub fn acquire(&self) -> HostBuffer {
        let mut state = self.wait_for(1);
        let data = state.free.pop();
        Self::check_out(state, usize::from(data.is_none()), 1);
        self.buffer(data)
    }

    /// Blocks until `chunks` buffers can be had at once and takes them all
    /// in one step — for a copier that must hold a *whole* snapshot before
    /// it can let any of it go. Two such copiers can never each sit on half
    /// a pool waiting for the other's half: a reservation holds nothing
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
        self.take(self.wait_for(chunks), chunks)
    }

    /// Takes `chunks` buffers in one step if that many can be had right
    /// now, and none otherwise.
    pub fn try_acquire_many(&self, chunks: usize) -> Option<Vec<HostBuffer>> {
        let state = self.shared.state.lock();
        let fits = self.shared.available(&state) >= chunks;
        fits.then(|| self.take(state, chunks))
    }

    /// The pool's lock, once `chunks` can be had.
    fn wait_for(&self, chunks: usize) -> MutexGuard<'_, PoolState> {
        let mut state = self.shared.state.lock();
        state.waiting += 1;
        while self.shared.available(&state) < chunks {
            state = self.shared.cond.wait(state);
        }
        state.waiting -= 1;
        state
    }

    /// Takes what is free and allocates the shortfall once the lock is
    /// released, so a growing reservation never holds up a release.
    fn take(&self, mut state: MutexGuard<'_, PoolState>, chunks: usize) -> Vec<HostBuffer> {
        let at = state.free.len().saturating_sub(chunks);
        let taken = state.free.split_off(at);
        let grow = chunks - taken.len();
        Self::check_out(state, grow, chunks);
        let grown = (0..grow).map(|_| None);
        taken
            .into_iter()
            .map(Some)
            .chain(grown)
            .map(|data| self.buffer(data))
            .collect()
    }

    fn check_out(mut state: MutexGuard<'_, PoolState>, grow: usize, chunks: usize) {
        state.resident += grow;
        state.outstanding += chunks;
        state.peak_outstanding = state.peak_outstanding.max(state.outstanding);
    }

    /// Wraps a checked-out chunk, allocating it if the pool grew for it.
    fn buffer(&self, data: Option<Box<[u8]>>) -> HostBuffer {
        let chunk = self.shared.chunk_size.as_usize();
        HostBuffer {
            data: Some(data.unwrap_or_else(|| vec![0u8; chunk].into_boxed_slice())),
            pool: Arc::clone(&self.shared),
        }
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
}

impl Drop for HostBuffer {
    fn drop(&mut self) {
        if let Some(data) = self.data.take() {
            let mut state = self.pool.state.lock();
            state.free.push(data);
            state.outstanding -= 1;
            if state.waiting > 0 {
                drop(state);
                // Every waiter re-checks: a one-chunk `acquire` and a
                // many-chunk reservation share this condvar, and a single
                // wakeup handed to a reservation still short of its count
                // would strand the one-chunk waiter beside it.
                self.pool.cond.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Spins until exactly `n` acquirers are parked on the pool's condvar.
    fn until_waiting(pool: &HostBufferPool, n: usize) {
        while pool.shared.state.lock().waiting != n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn pool_geometry() {
        let pool = HostBufferPool::new(ByteSize::from_kb(4), 3);
        assert_eq!(pool.chunk_size(), ByteSize::from_kb(4));
        assert_eq!(pool.total_chunks(), 3);
        assert_eq!(pool.available(), 3);
        assert_eq!(pool.resident_chunks(), 0, "a pool starts empty");
    }

    #[test]
    fn acquire_and_release_cycle() {
        let pool = HostBufferPool::new(ByteSize::from_bytes(16), 2);
        let mut a = pool.acquire();
        a.as_mut_slice()[0] = 42;
        assert_eq!(a.as_slice().len(), 16);
        assert_eq!(pool.available(), 1);
        drop(a);
        assert_eq!(pool.available(), 2);
    }

    #[test]
    fn a_pool_allocates_only_what_is_out_at_once() {
        let pool = HostBufferPool::new(ByteSize::from_bytes(8), 64);
        for _ in 0..100 {
            let held: Vec<_> = (0..3).map(|_| pool.acquire()).collect();
            assert_eq!(pool.resident_chunks(), 3);
            drop(held);
        }
        assert_eq!(pool.resident_chunks(), 3, "released chunks are kept");
        assert_eq!(pool.peak_outstanding(), 3);
        assert_eq!(pool.available(), 64);
    }

    #[test]
    fn acquire_many_allocates_only_its_shortfall() {
        let pool = HostBufferPool::new(ByteSize::from_bytes(8), 8);
        drop(pool.acquire_many(3));
        assert_eq!(pool.resident_chunks(), 3);
        let held = pool.acquire_many(5);
        assert_eq!(held.len(), 5);
        assert_eq!(pool.resident_chunks(), 5, "three reused, two allocated");
        drop(held);
        assert_eq!(pool.try_acquire_many(4).map(|taken| taken.len()), Some(4));
        assert_eq!(pool.resident_chunks(), 5, "four free chunks cover four");
        assert_eq!(pool.available(), 8);
    }

    #[test]
    fn the_budget_still_blocks_at_its_cap() {
        use std::sync::mpsc;

        let pool = HostBufferPool::new(ByteSize::from_bytes(8), 2);
        let held = pool.acquire_many(2);
        let (tx, rx) = mpsc::channel();
        let pool2 = pool.clone();
        let waiter = std::thread::spawn(move || {
            let buf = pool2.acquire();
            tx.send(()).unwrap();
            drop(buf);
        });
        until_waiting(&pool, 1);
        assert!(pool.try_acquire_many(1).is_none(), "the cap is reached");
        assert!(rx.try_recv().is_err(), "the waiter is still parked");
        assert_eq!(pool.resident_chunks(), 2);
        drop(held);
        rx.recv().unwrap();
        waiter.join().unwrap();
        assert_eq!(
            pool.resident_chunks(),
            2,
            "the waiter took a released chunk"
        );
        assert_eq!(pool.peak_outstanding(), 2);
    }

    #[test]
    fn available_counts_unallocated_chunks() {
        let pool = HostBufferPool::new(ByteSize::from_bytes(8), 5);
        assert_eq!((pool.available(), pool.resident_chunks()), (5, 0));
        let a = pool.acquire();
        assert_eq!((pool.available(), pool.resident_chunks()), (4, 1));
        drop(a);
        assert_eq!((pool.available(), pool.resident_chunks()), (5, 1));
    }

    #[test]
    fn try_acquire_returns_none_when_exhausted() {
        let pool = HostBufferPool::new(ByteSize::from_bytes(8), 1);
        let held = pool.try_acquire_many(1).unwrap();
        assert!(pool.try_acquire_many(1).is_none());
        drop(held);
        assert!(pool.try_acquire_many(1).is_some());
    }

    #[test]
    fn acquire_blocks_until_chunk_freed() {
        use std::sync::mpsc;

        let pool = HostBufferPool::new(ByteSize::from_bytes(8), 1);
        let held = pool.acquire();
        let (tx, rx) = mpsc::channel();
        let pool2 = pool.clone();
        let handle = std::thread::spawn(move || {
            let _b = pool2.acquire();
            tx.send(()).unwrap();
        });
        until_waiting(&pool, 1);
        assert!(
            rx.try_recv().is_err(),
            "acquirer must block while the chunk is held"
        );
        drop(held);
        rx.recv().unwrap();
        handle.join().unwrap();
        assert_eq!(pool.available(), 1);
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
        until_waiting(&pool, 1);
        // The waiter took nothing while it waits: a one-chunk checkout
        // still succeeds.
        let one = pool.try_acquire_many(1).expect("the odd chunk is free");
        assert!(rx.try_recv().is_err(), "2 chunks are not free yet");
        assert!(pool.try_acquire_many(1).is_none(), "none left to try for");
        drop(one);
        assert_eq!(pool.try_acquire_many(1).map(|taken| taken.len()), Some(1));
        drop(first);
        assert_eq!(rx.recv().unwrap(), 2);
        second.join().unwrap();
        assert_eq!(pool.available(), 3);
        assert_eq!(pool.peak_outstanding(), 3);
        assert_eq!(pool.resident_chunks(), 3);
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
        assert_eq!(pool.resident_chunks(), 3);
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
        // The lost-wakeup shape: k waiters parked on an exhausted pool,
        // then k one-at-a-time releases. The waiters keep what they get,
        // so each release can be taken by exactly one of them; if any
        // notification were consumed without a handoff (or fired before
        // the waiter queued), the count of parked waiters would stop
        // falling and the test would hang.
        let pool = HostBufferPool::new(ByteSize::from_bytes(32), 4);
        let held: Vec<_> = (0..4).map(|_| pool.acquire()).collect();
        let waiters: Vec<_> = (0..4)
            .map(|_| {
                let pool = pool.clone();
                std::thread::spawn(move || pool.acquire())
            })
            .collect();
        until_waiting(&pool, 4);
        for (released, buf) in held.into_iter().enumerate() {
            drop(buf);
            until_waiting(&pool, 3 - released);
        }
        let woken: Vec<_> = waiters.into_iter().map(|w| w.join().unwrap()).collect();
        assert_eq!(woken.len(), 4);
        assert_eq!(pool.available(), 0);
        drop(woken);
        assert_eq!(pool.available(), 4);
        assert_eq!(pool.resident_chunks(), 4);
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
