//! A bounded lock-free MPMC queue of checkpoint-slot indices.
//!
//! Listing 1 of the paper relies on a lock-free queue (Morrison & Afek's
//! LCRQ in the original) holding the free storage slots: a committing
//! checkpoint dequeues a slot to write into and enqueues the slot it
//! displaced. The population is bounded by the number of slots (N+1), so a
//! bounded array-based MPMC queue — each cell carrying a sequence number
//! that turns the ring into a wait-free-per-cell exchange — is a faithful,
//! compact stand-in.
//!
//! This implementation follows Vyukov's bounded MPMC design: `enqueue`
//! claims a cell whose sequence equals the tail position, writes the value,
//! then publishes by bumping the cell sequence; `dequeue` symmetrically
//! claims cells whose sequence equals head+1. Both are lock-free: a stalled
//! thread cannot block others from operating on other cells.
//!
//! The `*_blocking` forms wait for the other side. A checkpoint waits for
//! a slot ([`dequeue_blocking`](SlotQueue::dequeue_blocking)) while it
//! holds the training weights, and what it waits for — an older
//! checkpoint's commit — needs the CPU the wait would burn; so after a
//! short bounded spin the waiter parks on a condvar, and the lock-free
//! `enqueue` pays one fence and one load of the parked-thread count to
//! wake it. A full queue is only ever transiently full (another thread is
//! mid-dequeue on the cell), so `enqueue_blocking` yields instead.

use std::cell::UnsafeCell;
use std::sync::atomic::{fence, AtomicUsize, Ordering};

use pccheck_util::sync::{Condvar, Mutex};

/// Failed attempts a blocking call spins through before it parks: long
/// enough to ride out another thread mid-operation on the contended cell,
/// short next to a context switch.
const SPINS_BEFORE_PARK: usize = 64;

/// A bounded, lock-free, multi-producer multi-consumer queue of `u32`
/// values (slot indices).
///
/// # Examples
///
/// ```
/// use pccheck::queue::SlotQueue;
///
/// let q = SlotQueue::with_capacity(4);
/// q.enqueue(7).unwrap();
/// q.enqueue(9).unwrap();
/// assert_eq!(q.dequeue(), Some(7));
/// assert_eq!(q.dequeue(), Some(9));
/// assert_eq!(q.dequeue(), None);
/// ```
#[derive(Debug)]
pub struct SlotQueue {
    cells: Box<[Cell]>,
    mask: usize,
    /// Next enqueue position (monotonically increasing).
    tail: AtomicUsize,
    /// Next dequeue position (monotonically increasing).
    head: AtomicUsize,
    /// Threads parked (or about to park) in `dequeue_blocking`.
    parked: AtomicUsize,
    /// What parked threads sleep on; every successful enqueue that finds
    /// `parked` nonzero notifies under `park_lock`.
    park_lock: Mutex<()>,
    wake: Condvar,
}

#[derive(Debug)]
struct Cell {
    /// Sequence number encoding the cell's state relative to head/tail.
    seq: AtomicUsize,
    value: UnsafeCell<u32>,
}

// SAFETY: access to `value` is serialized by the sequence-number protocol —
// a cell's value is written only by the unique producer that won the tail
// CAS for that position, and read only by the unique consumer that won the
// head CAS, with the release/acquire pair on `seq` ordering the accesses.
unsafe impl Send for SlotQueue {}
unsafe impl Sync for SlotQueue {}

impl SlotQueue {
    /// Creates an empty queue able to hold at least `capacity` values.
    ///
    /// Capacity is rounded up to the next power of two (minimum 2).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        let cap = capacity.next_power_of_two().max(2);
        let cells = (0..cap)
            .map(|i| Cell {
                seq: AtomicUsize::new(i),
                value: UnsafeCell::new(0),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        SlotQueue {
            cells,
            mask: cap - 1,
            tail: AtomicUsize::new(0),
            head: AtomicUsize::new(0),
            parked: AtomicUsize::new(0),
            park_lock: Mutex::new(()),
            wake: Condvar::new(),
        }
    }

    /// The queue's capacity (after rounding).
    pub fn capacity(&self) -> usize {
        self.cells.len()
    }

    /// Number of queued values (approximate under concurrency).
    pub fn len(&self) -> usize {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Relaxed);
        tail.saturating_sub(head)
    }

    /// Returns `true` if the queue is (momentarily) empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues `value`.
    ///
    /// # Errors
    ///
    /// Returns `Err(value)` if the queue is full — including *transiently*
    /// full: a concurrent dequeuer that has claimed a cell but not yet
    /// recycled its sequence number makes the cell look occupied to an
    /// enqueuer that has wrapped around to it. Even with the population
    /// strictly below capacity this race is possible, so callers whose
    /// population is bounded (like the checkpoint slot pool) should use
    /// [`enqueue_blocking`](Self::enqueue_blocking), which spins the
    /// handful of cycles until the dequeuer's store lands.
    pub fn enqueue(&self, value: u32) -> Result<(), u32> {
        let mut pos = self.tail.load(Ordering::Relaxed);
        loop {
            let cell = &self.cells[pos & self.mask];
            let seq = cell.seq.load(Ordering::Acquire);
            // seq == pos: cell ready for this enqueue position.
            match seq as isize - pos as isize {
                0 => {
                    match self.tail.compare_exchange_weak(
                        pos,
                        pos + 1,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => {
                            // SAFETY: winning the tail CAS for `pos` makes
                            // this thread the unique writer of this cell
                            // until it publishes via `seq`.
                            unsafe { *cell.value.get() = value };
                            cell.seq.store(pos + 1, Ordering::Release);
                            self.wake_parked();
                            return Ok(());
                        }
                        Err(actual) => pos = actual,
                    }
                }
                d if d < 0 => return Err(value), // full: cell still holds an unconsumed value
                _ => pos = self.tail.load(Ordering::Relaxed), // another producer advanced; retry
            }
        }
    }

    /// Dequeues a value, or returns `None` if the queue is empty
    /// (Listing 1 spins on this until a slot frees up).
    pub fn dequeue(&self) -> Option<u32> {
        let mut pos = self.head.load(Ordering::Relaxed);
        loop {
            let cell = &self.cells[pos & self.mask];
            let seq = cell.seq.load(Ordering::Acquire);
            // seq == pos + 1: cell holds a value for this dequeue position.
            match seq as isize - (pos + 1) as isize {
                0 => {
                    match self.head.compare_exchange_weak(
                        pos,
                        pos + 1,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => {
                            // SAFETY: winning the head CAS for `pos` makes
                            // this thread the unique reader of this cell
                            // until it recycles it via `seq`.
                            let value = unsafe { *cell.value.get() };
                            cell.seq.store(pos + self.mask + 1, Ordering::Release);
                            return Some(value);
                        }
                        Err(actual) => pos = actual,
                    }
                }
                d if d < 0 => return None, // empty
                _ => pos = self.head.load(Ordering::Relaxed),
            }
        }
    }

    /// Wakes parked dequeuers after a successful enqueue.
    ///
    /// Pairs with the fence in [`dequeue_blocking`](Self::dequeue_blocking):
    /// either this load sees the parker's registration, or the parker's
    /// re-check, made after it registered, sees the cell this thread just
    /// published.
    fn wake_parked(&self) {
        fence(Ordering::SeqCst);
        if self.parked.load(Ordering::Relaxed) != 0 {
            // Taking the lock orders this notify after the parker's
            // re-check-then-wait, which it makes under the same lock.
            drop(self.park_lock.lock());
            self.wake.notify_all();
        }
    }

    /// Enqueues, yielding through transient fulls (see
    /// [`enqueue`](Self::enqueue)). Only correct when the true population
    /// is bounded below the capacity, as in the checkpoint slot pool.
    pub fn enqueue_blocking(&self, value: u32) {
        let mut v = value;
        loop {
            match self.enqueue(v) {
                Ok(()) => return,
                Err(back) => v = back,
            }
            std::hint::spin_loop();
            std::thread::yield_now();
        }
    }

    /// Dequeues, waiting until a value is available — Listing 1's
    /// lines 8–11 ("while(true) { data_location = free_space.deq(); ... }")
    /// — a bounded spin, then parked until an enqueue.
    pub fn dequeue_blocking(&self) -> u32 {
        for _ in 0..SPINS_BEFORE_PARK {
            if let Some(v) = self.dequeue() {
                return v;
            }
            std::hint::spin_loop();
        }
        let mut guard = self.park_lock.lock();
        self.parked.fetch_add(1, Ordering::SeqCst);
        let v = loop {
            fence(Ordering::SeqCst);
            if let Some(v) = self.dequeue() {
                break v;
            }
            guard = self.wake.wait(guard);
        };
        self.parked.fetch_sub(1, Ordering::SeqCst);
        v
    }
}

impl std::iter::FromIterator<u32> for SlotQueue {
    /// Builds a queue pre-populated with the given slots, sized to hold all
    /// of them.
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        let items: Vec<u32> = iter.into_iter().collect();
        let q = SlotQueue::with_capacity(items.len().max(1));
        for item in items {
            q.enqueue(item).expect("capacity covers all items");
        }
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pccheck_util::rng::{check, DEFAULT_CASES};
    use pccheck_util::sync::Mutex;
    use std::collections::HashSet;
    use std::sync::Arc;

    #[test]
    fn fifo_order_single_threaded() {
        let q = SlotQueue::with_capacity(8);
        for i in 0..8 {
            q.enqueue(i).unwrap();
        }
        for i in 0..8 {
            assert_eq!(q.dequeue(), Some(i));
        }
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        assert_eq!(SlotQueue::with_capacity(1).capacity(), 2);
        assert_eq!(SlotQueue::with_capacity(3).capacity(), 4);
        assert_eq!(SlotQueue::with_capacity(4).capacity(), 4);
        assert_eq!(SlotQueue::with_capacity(5).capacity(), 8);
    }

    #[test]
    fn enqueue_fails_when_full() {
        let q = SlotQueue::with_capacity(2);
        q.enqueue(1).unwrap();
        q.enqueue(2).unwrap();
        assert_eq!(q.enqueue(3), Err(3));
        assert_eq!(q.dequeue(), Some(1));
        q.enqueue(3).unwrap();
        assert_eq!(q.dequeue(), Some(2));
        assert_eq!(q.dequeue(), Some(3));
    }

    #[test]
    fn len_tracks_population() {
        let q = SlotQueue::with_capacity(4);
        assert!(q.is_empty());
        q.enqueue(1).unwrap();
        q.enqueue(2).unwrap();
        assert_eq!(q.len(), 2);
        q.dequeue();
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn wraparound_many_times() {
        let q = SlotQueue::with_capacity(4);
        for round in 0..100u32 {
            q.enqueue(round).unwrap();
            assert_eq!(q.dequeue(), Some(round));
        }
    }

    #[test]
    fn from_iterator_prepopulates() {
        let q: SlotQueue = (0..5u32).collect();
        assert_eq!(q.len(), 5);
        assert!(q.capacity() >= 5);
        let drained: Vec<u32> = std::iter::from_fn(|| q.dequeue()).collect();
        assert_eq!(drained, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        SlotQueue::with_capacity(0);
    }

    #[test]
    fn concurrent_producers_and_consumers_preserve_values() {
        // 4 producers push 1000 distinct values each; 4 consumers drain.
        // Every value must come out exactly once.
        let q = Arc::new(SlotQueue::with_capacity(8192));
        let consumed = Arc::new(Mutex::new(Vec::new()));
        std::thread::scope(|s| {
            for p in 0..4u32 {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    for i in 0..1000u32 {
                        let v = p * 1000 + i;
                        while q.enqueue(v).is_err() {
                            std::thread::yield_now();
                        }
                    }
                });
            }
            for _ in 0..4 {
                let q = Arc::clone(&q);
                let consumed = Arc::clone(&consumed);
                s.spawn(move || {
                    let mut local = Vec::new();
                    while local.len() < 1000 {
                        if let Some(v) = q.dequeue() {
                            local.push(v);
                        } else {
                            std::thread::yield_now();
                        }
                    }
                    consumed.lock().extend(local);
                });
            }
        });
        let got = consumed.lock();
        assert_eq!(got.len(), 4000);
        let unique: HashSet<u32> = got.iter().copied().collect();
        assert_eq!(unique.len(), 4000, "no duplicates, no losses");
        assert_eq!(unique.iter().copied().max(), Some(3999));
    }

    #[test]
    fn slot_recycling_pattern_like_pccheck() {
        // Model the engine's usage: N+1 slots circulate forever between
        // "free" and "committed"; the population never exceeds N+1.
        let slots = 4u32; // N=3 concurrent + 1 guaranteed
        let q: SlotQueue = (0..slots).collect();
        let mut committed = None;
        for _round in 0..1000 {
            let fresh = q.dequeue_blocking();
            if let Some(old) = committed.replace(fresh) {
                q.enqueue(old).unwrap();
            }
        }
        // One slot is held as the committed checkpoint; the rest are free.
        assert_eq!(q.len() as u32, slots - 1);
    }

    #[test]
    fn dequeue_blocking_waits_for_producer() {
        let q = Arc::new(SlotQueue::with_capacity(2));
        let q2 = Arc::clone(&q);
        let handle = std::thread::spawn(move || q2.dequeue_blocking());
        std::thread::sleep(std::time::Duration::from_millis(50));
        q.enqueue(42).unwrap();
        assert_eq!(handle.join().unwrap(), 42);
    }

    #[test]
    fn mixed_blocking_and_nonblocking_mpmc_across_wraparound() {
        // The lock-free commit path recycles slots through this queue from
        // both the blocking (`release_slot`) and non-blocking entry points
        // while other checkpointers dequeue concurrently. A tiny ring and
        // many rounds force the sequence counters through hundreds of laps;
        // the slot population must come through intact — no loss, no
        // duplication, no deadlock in the transient-full window.
        const THREADS: u32 = 4;
        const ROUNDS: usize = 500;
        let q: Arc<SlotQueue> = Arc::new((0..THREADS).collect());
        assert_eq!(q.capacity(), 4, "4 slots on a 4-cell ring: max pressure");
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    for round in 0..ROUNDS {
                        let v = if round % 3 == 0 {
                            // Non-blocking dequeue, spun by hand.
                            loop {
                                if let Some(v) = q.dequeue() {
                                    break v;
                                }
                                std::thread::yield_now();
                            }
                        } else {
                            q.dequeue_blocking()
                        };
                        if (round + t as usize).is_multiple_of(2) {
                            q.enqueue_blocking(v);
                        } else {
                            // Non-blocking enqueue, spun by hand (transient
                            // fulls are expected at full population).
                            let mut v = v;
                            while let Err(back) = q.enqueue(v) {
                                v = back;
                                std::thread::yield_now();
                            }
                        }
                    }
                });
            }
        });
        // Exactly the original population survives, each slot once.
        let mut drained: Vec<u32> = std::iter::from_fn(|| q.dequeue()).collect();
        drained.sort_unstable();
        assert_eq!(drained, vec![0, 1, 2, 3]);
        // The ring actually wrapped: every thread pushed ROUNDS positions.
        assert!(q.head.load(Ordering::Relaxed) >= THREADS as usize * ROUNDS);
    }

    /// Single-threaded linearization against a VecDeque model: any
    /// enqueue/dequeue interleaving at any capacity behaves as bounded
    /// FIFO, including across many sequence-counter wraparounds (ops
    /// count far exceeds the ring size).
    #[test]
    fn any_op_sequence_matches_fifo_model() {
        check(DEFAULT_CASES, |r| {
            let q = SlotQueue::with_capacity(r.range(1..6) as usize);
            let mut model = std::collections::VecDeque::new();
            for _ in 0..r.range(1..300) {
                let (is_enq, v) = (r.bool(), r.range(0..1000) as u32);
                if is_enq {
                    let res = q.enqueue(v);
                    if model.len() < q.capacity() {
                        assert_eq!(res, Ok(()), "queue not full");
                        model.push_back(v);
                    } else {
                        assert_eq!(res, Err(v), "queue full");
                    }
                } else {
                    assert_eq!(q.dequeue(), model.pop_front());
                }
                assert_eq!(q.len(), model.len());
            }
            // Drain and compare the tails.
            let drained: Vec<u32> = std::iter::from_fn(|| q.dequeue()).collect();
            let expected: Vec<u32> = model.into_iter().collect();
            assert_eq!(drained, expected);
        });
    }
}
