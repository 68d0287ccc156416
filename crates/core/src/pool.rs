//! Resident worker threads draining one ordered job queue.
//!
//! The persist path used to create threads per checkpoint: a coordinator
//! spawned in `Checkpointer::checkpoint`, and `p` scoped writers (plus `p`
//! scoped compressors) inside every copy call. With several checkpoints in
//! flight those per-checkpoint writers raced each other on the device and
//! the newer checkpoint could overtake the older. A [`WorkerPool`] is the
//! replacement for both: threads that live as long as their owner and
//! serve whatever is queued, in an order the queue decides.
//!
//! # Order
//!
//! Every job carries an [`Order`]: the tenant it works for and the
//! checkpoint counter it belongs to. A worker gives the turn to the tenant
//! whose job has waited longest and spends that turn on the tenant's
//! *oldest* checkpoint (lowest counter; submission order within it). One
//! tenant's checkpoints therefore reach the device oldest first — the
//! older one commits first and is never superseded by its successor —
//! while tenants take turns in arrival order. Jobs that all carry the same
//! `Order` are served first in, first out. A checkpoint that queues jobs
//! before it has a counter queues them at an [`Order::unleased`] one,
//! behind every counter a checkpoint can have, and moves them to its own
//! with [`WorkerPool::reorder`] once it has it.
//!
//! # Threads
//!
//! This module is the only place the persist path creates a thread.
//! Workers are spawned on the first [`submit`](WorkerPool::submit) that
//! finds fewer than `width` of them, so a pool nobody submits to costs
//! nothing. The width is fixed when the pool is built. Dropping the pool
//! lets the workers drain the queue, then joins them all, so it must not
//! happen in one of the pool's own jobs.
//!
//! A job must not unwind: the two users (`pipeline::Batch`, the engine's
//! checkpoint task) run their work under `catch_unwind` and re-raise on the
//! thread that waits for the result.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use pccheck_util::sync::{Condvar, Mutex};

use crate::store::JobId;

/// Where a job stands in the queue: see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Order {
    /// The tenant the job works for.
    pub tenant: JobId,
    /// The checkpoint the job belongs to (the store's global counter).
    pub counter: u64,
}

impl Order {
    /// A place for `tenant`'s jobs of a checkpoint that has no counter yet:
    /// behind every checkpoint that has one, and behind every such place
    /// handed out before.
    pub(crate) fn unleased(tenant: JobId) -> Order {
        static NEXT: AtomicU64 = AtomicU64::new(1 << 63);
        let counter = NEXT.fetch_add(1, Ordering::Relaxed);
        Order { tenant, counter }
    }
}

/// A unit of work; the argument is the index of the worker running it.
pub(crate) type Job = Box<dyn FnOnce(usize) + Send>;

struct State {
    /// Whose turn it is: one entry per queued job, in submission order.
    turns: VecDeque<JobId>,
    queue: VecDeque<(Order, Job)>,
    /// `handles[w]` is worker `w`.
    handles: Vec<JoinHandle<()>>,
    shutdown: bool,
}

impl State {
    /// The next job under the module's order rule.
    fn pop(&mut self) -> Option<Job> {
        let tenant = self.turns.pop_front()?;
        // `min_by_key` keeps the first of equal minima: submission order
        // within one checkpoint.
        let (at, _) = self
            .queue
            .iter()
            .enumerate()
            .filter(|(_, (order, _))| order.tenant == tenant)
            .min_by_key(|(_, (order, _))| order.counter)?;
        self.queue.remove(at).map(|(_, job)| job)
    }
}

struct Shared {
    name: &'static str,
    /// How many workers the pool runs.
    width: usize,
    state: Mutex<State>,
    work: Condvar,
}

impl Shared {
    fn run(&self, w: usize) {
        let mut state = self.state.lock();
        loop {
            if let Some(job) = state.pop() {
                drop(state);
                job(w);
                state = self.state.lock();
                continue;
            }
            if state.shutdown {
                return;
            }
            state = self.work.wait(state);
        }
    }
}

/// A fixed-name, fixed-width set of resident workers over one ordered queue.
pub(crate) struct WorkerPool {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.shared.state.lock();
        f.debug_struct("WorkerPool")
            .field("name", &self.shared.name)
            .field("width", &self.shared.width)
            .field("threads", &state.handles.len())
            .field("queued", &state.queue.len())
            .finish()
    }
}

impl WorkerPool {
    /// A pool of up to `width` workers named `{name}-{w}`. No thread
    /// exists until the first job is submitted.
    pub(crate) fn new(name: &'static str, width: usize) -> Self {
        WorkerPool {
            shared: Arc::new(Shared {
                name,
                width: width.max(1),
                state: Mutex::new(State {
                    turns: VecDeque::new(),
                    queue: VecDeque::new(),
                    handles: Vec::new(),
                    shutdown: false,
                }),
                work: Condvar::new(),
            }),
        }
    }

    /// The number of workers the pool runs jobs on.
    #[cfg(test)]
    pub(crate) fn width(&self) -> usize {
        self.shared.width
    }

    /// Worker threads alive right now (at most `width`; fewer until enough
    /// jobs have been submitted to start them).
    #[cfg(test)]
    pub(crate) fn threads(&self) -> usize {
        self.shared.state.lock().handles.len()
    }

    /// A handle that counts what keeps the workers' shared state alive:
    /// zero strong references once the pool is dropped and its threads
    /// have been joined.
    #[cfg(test)]
    pub(crate) fn liveness(&self) -> std::sync::Weak<impl Sized> {
        Arc::downgrade(&self.shared)
    }

    /// The orders of the jobs queued right now, in queue order.
    #[cfg(test)]
    pub(crate) fn queued(&self) -> Vec<Order> {
        let state = self.shared.state.lock();
        state.queue.iter().map(|(order, _)| *order).collect()
    }

    /// Queues `job` at `order` and makes sure `width` workers exist.
    pub(crate) fn submit(&self, order: Order, job: Job) {
        let mut state = self.shared.state.lock();
        state.turns.push_back(order.tenant);
        state.queue.push_back((order, job));
        while state.handles.len() < self.shared.width {
            let w = state.handles.len();
            let shared = Arc::clone(&self.shared);
            let handle = std::thread::Builder::new()
                .name(format!("{}-{w}", self.shared.name))
                .spawn(move || shared.run(w))
                .expect("spawn a pool worker");
            state.handles.push(handle);
        }
        drop(state);
        self.shared.work.notify_one();
    }
}

impl WorkerPool {
    /// Moves every job queued at `from` to its tenant's checkpoint
    /// `counter`, each keeping its place in the queue.
    pub(crate) fn reorder(&self, from: Order, counter: u64) {
        let mut state = self.shared.state.lock();
        for (order, _) in state.queue.iter_mut().filter(|(order, _)| *order == from) {
            order.counter = counter;
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        let handles = {
            let mut state = self.shared.state.lock();
            state.shutdown = true;
            std::mem::take(&mut state.handles)
        };
        self.shared.work.notify_all();
        for handle in handles {
            // A worker that unwound has already reported through its job's
            // owner; `Drop` must not panic on top of it.
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn order(tenant: JobId, counter: u64) -> Order {
        Order { tenant, counter }
    }

    /// Occupies the pool's single worker until the returned sender is
    /// dropped, so jobs submitted meanwhile queue up behind it.
    fn plug(pool: &WorkerPool) -> mpsc::Sender<()> {
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        pool.submit(
            order(0, 0),
            Box::new(move |_| {
                started_tx.send(()).unwrap();
                let _ = release_rx.recv();
            }),
        );
        started_rx.recv().unwrap();
        release_tx
    }

    #[test]
    fn a_tenants_oldest_checkpoint_is_served_first_and_tenants_take_turns() {
        let pool = WorkerPool::new("test", 1);
        let release = plug(&pool);
        let (tx, rx) = mpsc::channel();
        // Tenant 1 queues its newer checkpoint first; tenant 2 arrives in
        // between.
        for (tenant, counter, tag) in [
            (1, 9, "1/9a"),
            (2, 5, "2/5"),
            (1, 7, "1/7a"),
            (1, 9, "1/9b"),
            (1, 7, "1/7b"),
        ] {
            let tx = tx.clone();
            pool.submit(
                order(tenant, counter),
                Box::new(move |_| tx.send(tag).unwrap()),
            );
        }
        drop(release);
        let served: Vec<_> = (0..5).map(|_| rx.recv().unwrap()).collect();
        // Turn 1 is tenant 1's (its job waited longest) and goes to its
        // counter 7; turn 2 is tenant 2's; the rest are tenant 1's, oldest
        // counter first, submission order within a counter.
        assert_eq!(served, ["1/7a", "2/5", "1/7b", "1/9a", "1/9b"]);
    }

    #[test]
    fn a_checkpoint_leased_late_moves_its_queued_jobs_ahead_of_a_newer_one() {
        let pool = WorkerPool::new("test", 1);
        let release = plug(&pool);
        let (tx, rx) = mpsc::channel();
        let submit = |order: Order, tag: &'static str| {
            let tx = tx.clone();
            pool.submit(order, Box::new(move |_| tx.send(tag).unwrap()));
        };
        // Two checkpoints of tenant 1 queue before they have counters; the
        // first is then leased at 8, after a newer one leased at once at 9.
        let (late, later) = (Order::unleased(1), Order::unleased(1));
        assert!(late.counter < later.counter && late.counter > u64::MAX / 2);
        submit(later, "later");
        submit(late, "8a");
        submit(order(1, 9), "9");
        pool.reorder(late, 8);
        submit(order(1, 8), "8b");
        drop(release);
        let served: Vec<_> = (0..4).map(|_| rx.recv().unwrap()).collect();
        assert_eq!(served, ["8a", "8b", "9", "later"]);
    }

    #[test]
    fn equal_orders_are_first_in_first_out() {
        let pool = WorkerPool::new("test", 1);
        let release = plug(&pool);
        let (tx, rx) = mpsc::channel();
        for i in 0..16 {
            let tx = tx.clone();
            pool.submit(order(3, 0), Box::new(move |_| tx.send(i).unwrap()));
        }
        drop(release);
        let served: Vec<_> = (0..16).map(|_| rx.recv().unwrap()).collect();
        assert_eq!(served, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn threads_start_on_demand_follow_the_width_and_join_on_drop() {
        let pool = WorkerPool::new("test", 3);
        assert_eq!(pool.threads(), 0, "no job yet, no thread yet");
        let (tx, rx) = mpsc::channel();
        let seen = |pool: &WorkerPool, jobs: usize| {
            for _ in 0..jobs {
                let tx = tx.clone();
                pool.submit(order(0, 0), Box::new(move |w| tx.send(w).unwrap()));
            }
            (0..jobs).map(|_| rx.recv().unwrap()).max().unwrap()
        };
        assert!(seen(&pool, 32) < 3);
        assert_eq!((pool.width(), pool.threads()), (3, 3));
        // Dropping the pool runs what is queued, then joins: the job's
        // side effect is visible as soon as `drop` returns.
        let release = plug(&pool);
        let (done_tx, done_rx) = mpsc::channel();
        pool.submit(order(0, 0), Box::new(move |_| done_tx.send(()).unwrap()));
        drop(release);
        drop(pool);
        assert!(done_rx.try_recv().is_ok(), "drop joined the workers");
    }
}
