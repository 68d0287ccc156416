//! Loom model checks for the engine's hand-rolled synchronization
//! protocols: the `InFlight` ticket gate (Mutex + Condvar with a shared
//! wait queue), the store's free-slot recycle queue (Vyukov bounded
//! MPMC cells), the QoS lease arbiter's cap + deficit protocol
//! (`qos::QosArbiter`), and the lock-free persistent commit protocol's
//! claim → publish → recycle lattice (`store::CheckpointStore`,
//! DESIGN §13).
//!
//! These run only under `--cfg loom`, with the `loom` dev-dependency
//! enabled in `crates/core/Cargo.toml` (it is commented out there because
//! it is the one crate the workspace would need a registry for):
//!
//! ```sh
//! RUSTFLAGS="--cfg loom" cargo test -p pccheck --test loom_models --release
//! ```
//!
//! Loom cannot instrument `std` locks or atomics, so the models
//! re-state the algorithms verbatim over `loom::sync` types. Keeping them
//! line-for-line parallel to `engine::InFlight` and `queue::SlotQueue` is
//! the point: a change to either protocol should be mirrored here and
//! re-checked across all interleavings.
#![cfg(loom)]

use loom::sync::atomic::{AtomicUsize, Ordering};
use loom::sync::{Arc, Condvar, Mutex};
use loom::thread;

/// Mirror of `engine::InFlight`: a counting gate whose condvar is shared
/// by `acquire` waiters and `wait_zero` drainers.
struct InFlightModel {
    count: Mutex<usize>,
    cond: Condvar,
}

impl InFlightModel {
    fn new() -> Self {
        InFlightModel {
            count: Mutex::new(0),
            cond: Condvar::new(),
        }
    }

    fn acquire(&self, limit: usize) {
        let mut count = self.count.lock().unwrap();
        while *count >= limit {
            count = self.cond.wait(count).unwrap();
        }
        *count += 1;
    }

    fn release(&self) {
        let mut count = self.count.lock().unwrap();
        *count -= 1;
        drop(count);
        // The fix under test: `notify_one` here loses wakeups when a
        // drainer and an acquirer are both queued (the drainer consumes
        // the sole notification and exits without re-notifying).
        self.cond.notify_all();
    }

    fn wait_zero(&self) {
        let mut count = self.count.lock().unwrap();
        while *count > 0 {
            count = self.cond.wait(count).unwrap();
        }
    }
}

/// The lost-wakeup scenario: one ticket, a holder, a queued acquirer, and
/// a drainer. Every interleaving must terminate — with `notify_one` in
/// `release`, loom finds the schedule where the drainer swallows the
/// wakeup and the acquirer sleeps forever.
#[test]
fn ticket_gate_release_wakes_acquirers_and_drainers() {
    loom::model(|| {
        let gate = Arc::new(InFlightModel::new());
        gate.acquire(1);

        let acquirer = {
            let gate = Arc::clone(&gate);
            thread::spawn(move || {
                gate.acquire(1);
                gate.release();
            })
        };
        let drainer = {
            let gate = Arc::clone(&gate);
            thread::spawn(move || gate.wait_zero())
        };

        gate.release();
        acquirer.join().unwrap();
        drainer.join().unwrap();
        assert_eq!(*gate.count.lock().unwrap(), 0);
    });
}

/// Two concurrent acquirers against a limit of 2 never exceed the limit.
#[test]
fn ticket_gate_respects_the_limit() {
    loom::model(|| {
        let gate = Arc::new(InFlightModel::new());
        let peak = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..2)
            .map(|_| {
                let gate = Arc::clone(&gate);
                let peak = Arc::clone(&peak);
                thread::spawn(move || {
                    gate.acquire(2);
                    let now = *gate.count.lock().unwrap();
                    // fetch_max over a CAS loop: loom's AtomicUsize
                    // supports fetch_max directly.
                    peak.fetch_max(now, Ordering::SeqCst);
                    gate.release();
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!(peak.load(Ordering::SeqCst) <= 2);
        assert_eq!(*gate.count.lock().unwrap(), 0);
    });
}

/// Mirror of `queue::SlotQueue` at capacity 2: Vyukov's bounded MPMC
/// cells, sequence numbers gating each cell's ownership handoff.
struct SlotQueueModel {
    seqs: [AtomicUsize; 2],
    values: [AtomicUsize; 2],
    tail: AtomicUsize,
    head: AtomicUsize,
}

impl SlotQueueModel {
    const MASK: usize = 1;

    fn new() -> Self {
        SlotQueueModel {
            seqs: [AtomicUsize::new(0), AtomicUsize::new(1)],
            // The real queue's cell payload is an UnsafeCell<u32> whose
            // accesses the seq protocol serializes; an atomic store/load
            // pair models the same handoff without unsafe.
            values: [AtomicUsize::new(0), AtomicUsize::new(0)],
            tail: AtomicUsize::new(0),
            head: AtomicUsize::new(0),
        }
    }

    fn enqueue(&self, value: usize) -> Result<(), usize> {
        let mut pos = self.tail.load(Ordering::Relaxed);
        loop {
            let cell = pos & Self::MASK;
            let seq = self.seqs[cell].load(Ordering::Acquire);
            match seq as isize - pos as isize {
                0 => {
                    match self.tail.compare_exchange_weak(
                        pos,
                        pos + 1,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => {
                            self.values[cell].store(value, Ordering::Relaxed);
                            self.seqs[cell].store(pos + 1, Ordering::Release);
                            return Ok(());
                        }
                        Err(actual) => pos = actual,
                    }
                }
                d if d < 0 => return Err(value),
                _ => pos = self.tail.load(Ordering::Relaxed),
            }
        }
    }

    fn dequeue(&self) -> Option<usize> {
        let mut pos = self.head.load(Ordering::Relaxed);
        loop {
            let cell = pos & Self::MASK;
            let seq = self.seqs[cell].load(Ordering::Acquire);
            match seq as isize - (pos + 1) as isize {
                0 => {
                    match self.head.compare_exchange_weak(
                        pos,
                        pos + 1,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => {
                            let value = self.values[cell].load(Ordering::Relaxed);
                            self.seqs[cell].store(pos + Self::MASK + 1, Ordering::Release);
                            return Some(value);
                        }
                        Err(actual) => pos = actual,
                    }
                }
                d if d < 0 => return None,
                _ => pos = self.head.load(Ordering::Relaxed),
            }
        }
    }
}

/// Two concurrent dequeuers racing for two free slots must each get a
/// distinct slot — the commit protocol's "unique writer per leased slot"
/// invariant rests on this.
#[test]
fn free_slot_dequeue_grants_unique_ownership() {
    loom::model(|| {
        let q = Arc::new(SlotQueueModel::new());
        q.enqueue(10).unwrap();
        q.enqueue(20).unwrap();
        let threads: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || q.dequeue())
            })
            .collect();
        let mut got: Vec<usize> = threads
            .into_iter()
            .map(|t| t.join().unwrap().expect("two values for two dequeuers"))
            .collect();
        got.sort_unstable();
        assert_eq!(got, vec![10, 20], "each dequeuer owns a distinct slot");
        assert_eq!(q.dequeue(), None);
    });
}

/// Mirror of `qos::QosArbiter`'s blocking core: WDRR deficit accounts
/// and an outstanding-lease cap whose waiters sleep on a condvar and
/// are woken by grant release. The deficit top-up loop runs entirely
/// under the mutex (it never sleeps), so the model keeps it verbatim;
/// the schedules loom must cover are the cap handoffs.
struct QosModel {
    state: Mutex<QosModelState>,
    cond: Condvar,
    quantum: u64,
    cap: usize,
}

struct QosModelState {
    /// `(deficit, weight)` per job, ring order.
    jobs: Vec<(u64, u64)>,
    ring_cursor: usize,
    outstanding: usize,
}

impl QosModel {
    fn new(weights: &[u64], quantum: u64, cap: usize) -> Self {
        QosModel {
            state: Mutex::new(QosModelState {
                jobs: weights.iter().map(|&w| (0, w)).collect(),
                ring_cursor: 0,
                outstanding: 0,
            }),
            cond: Condvar::new(),
            quantum,
            cap,
        }
    }

    fn acquire(&self, job: usize, bytes: u64) {
        let mut s = self.state.lock().unwrap();
        loop {
            if s.outstanding < self.cap {
                if s.jobs[job].0 >= bytes {
                    s.jobs[job].0 -= bytes;
                    s.outstanding += 1;
                    return;
                }
                // Deficit top-up: credit the next ring job and re-check
                // without sleeping, exactly as the real arbiter does.
                let n = s.jobs.len();
                let cur = s.ring_cursor % n;
                s.ring_cursor = (cur + 1) % n;
                let (deficit, weight) = s.jobs[cur];
                let credit = weight * self.quantum;
                s.jobs[cur].0 = (deficit + credit).min((2 * credit).max(bytes));
                continue;
            }
            s = self.cond.wait(s).unwrap();
        }
    }

    fn release(&self) {
        let mut s = self.state.lock().unwrap();
        s.outstanding -= 1;
        drop(s);
        // The property under test: `notify_all`, not `notify_one` — with
        // several cap-blocked jobs, a single notification can land on a
        // waiter whose deficit the ring has not credited yet; it would
        // re-check, top up a *different* job, and everyone else sleeps.
        self.cond.notify_all();
    }
}

/// Cap handoff under contention: one lease outstanding, two more jobs
/// blocked on the cap. Every interleaving of the release and the two
/// waiters must terminate with all three grants served and the cap
/// never exceeded.
#[test]
fn qos_cap_release_wakes_blocked_lease_waiters() {
    loom::model(|| {
        let arb = Arc::new(QosModel::new(&[1, 1, 1], 1024, 1));
        arb.acquire(0, 1024);

        let waiters: Vec<_> = [1usize, 2]
            .into_iter()
            .map(|job| {
                let arb = Arc::clone(&arb);
                thread::spawn(move || {
                    arb.acquire(job, 1024);
                    arb.release();
                })
            })
            .collect();

        arb.release();
        for w in waiters {
            w.join().unwrap();
        }
        let s = arb.state.lock().unwrap();
        assert_eq!(s.outstanding, 0, "every grant released");
    });
}

/// Deficit ring progress under concurrency: two jobs whose first chunk
/// exceeds one quantum race through the arbiter. The top-up loop runs
/// under the lock, so loom checks that no interleaving of the lock
/// handoffs can strand a requester with an uncredited account.
#[test]
fn qos_deficit_topup_serves_concurrent_jobs() {
    loom::model(|| {
        let arb = Arc::new(QosModel::new(&[1, 2], 512, 2));
        let threads: Vec<_> = [(0usize, 1024u64), (1, 2048)]
            .into_iter()
            .map(|(job, bytes)| {
                let arb = Arc::clone(&arb);
                thread::spawn(move || {
                    arb.acquire(job, bytes);
                    arb.release();
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = arb.state.lock().unwrap();
        assert_eq!(s.outstanding, 0);
    });
}

/// The recycle loop: a dequeuer re-enqueues the slot it displaced while
/// another thread dequeues concurrently. No slot is lost or duplicated
/// across the wraparound — the transient-full window (claimed cell, seq
/// not yet recycled) must resolve, never deadlock or corrupt.
#[test]
fn free_slot_recycle_survives_wraparound_races() {
    loom::model(|| {
        let q = Arc::new(SlotQueueModel::new());
        q.enqueue(1).unwrap();
        q.enqueue(2).unwrap();

        let recycler = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let freed = q.dequeue().expect("queue starts with two slots");
                // Commit displaced the slot: recycle it. A concurrent
                // dequeuer may make the cell look transiently full, so
                // spin as `enqueue_blocking` does (bounded: the claim
                // always resolves within the model).
                let mut v = freed;
                while let Err(back) = q.enqueue(v) {
                    v = back;
                    loom::thread::yield_now();
                }
            })
        };
        let taker = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.dequeue())
        };

        recycler.join().unwrap();
        let taken = taker.join().unwrap();
        // Drain: exactly the un-taken population remains, values intact.
        let mut remaining = Vec::new();
        while let Some(v) = q.dequeue() {
            remaining.push(v);
        }
        let mut all: Vec<usize> = taken.into_iter().chain(remaining).collect();
        all.sort_unstable();
        assert_eq!(all, vec![1, 2], "recycling neither loses nor duplicates");
    });
}

/// Mirror of the lock-free persistent commit protocol for one slot
/// (`store::claim_slot` / `commit`'s publish path / `release_slot`):
///
/// * `state` is the packed per-slot word, `counter << 2 | tag` — exactly
///   `meta::SlotState::pack`.
/// * `meta` models the slot's durable meta record: the stored counter, or
///   0 for "no valid record" (a CRC failure and an absent record decide
///   identically, so one cell captures both).
/// * `head` is the CHECK_ADDR watermark, advanced by `fetch_max` — never
///   a lock, never a CAS loop that can be displaced backwards.
///
/// The ordering under test is the protocol's one fence requirement: the
/// meta record is published (Release) *before* the state word's Committed
/// store (Release), so any auditor that reads the word with Acquire and
/// sees Committed{c} must also see meta == c. That is what makes the
/// `Torn` lattice point unreachable — and every crash decidable.
struct CommitSlotModel {
    state: AtomicUsize,
    meta: AtomicUsize,
    head: AtomicUsize,
}

const TAG_FREE: usize = 0;
const TAG_CLAIMED: usize = 1;
const TAG_COMMITTED: usize = 2;

fn pack(tag: usize, counter: usize) -> usize {
    (counter << 2) | tag
}

/// The auditor's decision procedure over one slot — the loom twin of
/// `RawStoreView::slot_outcome`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotDecision {
    Empty,
    Historical(usize),
    InFlight(usize),
    Persisted(usize),
    Committed(usize),
    Torn { state: usize, meta: usize },
}

fn decide(state: usize, meta: usize) -> SlotDecision {
    let (tag, c) = (state & 3, state >> 2);
    match tag {
        TAG_FREE if meta == 0 => SlotDecision::Empty,
        TAG_FREE => SlotDecision::Historical(meta),
        TAG_CLAIMED if meta == c => SlotDecision::Persisted(c),
        TAG_CLAIMED => SlotDecision::InFlight(c),
        TAG_COMMITTED if meta == c => SlotDecision::Committed(c),
        _ => SlotDecision::Torn { state: c, meta },
    }
}

impl CommitSlotModel {
    fn new() -> Self {
        CommitSlotModel {
            state: AtomicUsize::new(pack(TAG_FREE, 0)),
            meta: AtomicUsize::new(0),
            head: AtomicUsize::new(0),
        }
    }

    /// `store::claim_slot`'s CAS: Free → Claimed{counter}. Returns whether
    /// this checkpointer won the slot.
    fn try_claim(&self, counter: usize) -> bool {
        self.state
            .compare_exchange(
                pack(TAG_FREE, 0),
                pack(TAG_CLAIMED, counter),
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
    }

    /// The commit win path: meta publish (Release) → Committed word
    /// (Release) → head advance (`fetch_max`).
    fn commit(&self, counter: usize) {
        self.meta.store(counter, Ordering::Release);
        self.state
            .store(pack(TAG_COMMITTED, counter), Ordering::Release);
        self.head.fetch_max(counter, Ordering::AcqRel);
    }

    /// `store::release_slot`: the in-memory word returns to Free before
    /// the slot re-enters the queue (the durable high-water record keeps
    /// the last value — this model's `meta` plays that role for audits).
    fn release(&self) {
        self.state.store(pack(TAG_FREE, 0), Ordering::Release);
    }

    fn audit(&self) -> SlotDecision {
        let state = self.state.load(Ordering::Acquire);
        let meta = self.meta.load(Ordering::Acquire);
        decide(state, meta)
    }
}

/// Two checkpointers race one free slot. Exactly one claim CAS wins, and
/// a concurrent auditor — sampling at every interleaving point loom can
/// construct — never reads the unreachable Torn lattice point.
#[test]
fn commit_claim_race_has_one_winner_and_no_torn_audit() {
    loom::model(|| {
        let slot = Arc::new(CommitSlotModel::new());
        let winners = Arc::new(AtomicUsize::new(0));

        let checkpointers: Vec<_> = [1usize, 2]
            .into_iter()
            .map(|counter| {
                let slot = Arc::clone(&slot);
                let winners = Arc::clone(&winners);
                thread::spawn(move || {
                    if slot.try_claim(counter) {
                        winners.fetch_add(1, Ordering::SeqCst);
                        slot.commit(counter);
                    }
                })
            })
            .collect();
        let auditor = {
            let slot = Arc::clone(&slot);
            thread::spawn(move || {
                let decision = slot.audit();
                assert!(
                    !matches!(decision, SlotDecision::Torn { .. }),
                    "auditor read the unreachable lattice point: {decision:?}"
                );
            })
        };

        for t in checkpointers {
            t.join().unwrap();
        }
        auditor.join().unwrap();
        assert_eq!(winners.load(Ordering::SeqCst), 1, "one claim CAS wins");
        let final_decision = slot.audit();
        let head = slot.head.load(Ordering::Acquire);
        assert!(
            matches!(final_decision, SlotDecision::Committed(c) if c == head),
            "winner committed at the head the watermark records: {final_decision:?} vs {head}"
        );
    });
}

/// A crash between the claim CAS and the meta publish: the checkpointer
/// simply stops after claiming. In every interleaving the auditor decides
/// the slot — Empty before the CAS lands, InFlight{c} after — and never
/// mistakes the claim for a commit.
#[test]
fn crash_between_claim_cas_and_meta_publish_is_decidable() {
    loom::model(|| {
        let slot = Arc::new(CommitSlotModel::new());
        let crasher = {
            let slot = Arc::clone(&slot);
            thread::spawn(move || {
                assert!(slot.try_claim(1), "uncontended claim always wins");
                // Crash: no meta publish, no Committed word, nothing.
            })
        };
        let decision = slot.audit();
        assert!(
            matches!(decision, SlotDecision::Empty | SlotDecision::InFlight(1)),
            "mid-claim audit must decide Empty or InFlight: {decision:?}"
        );
        crasher.join().unwrap();
        assert_eq!(
            slot.audit(),
            SlotDecision::InFlight(1),
            "post-crash audit decides the claim from the state word alone"
        );
        assert_eq!(slot.head.load(Ordering::Acquire), 0, "head never advanced");
    });
}

/// The full claim → commit → recycle → re-claim cycle: checkpointer 1
/// commits and releases the slot; checkpointer 2 re-claims it while an
/// auditor samples concurrently. The second claim only succeeds after the
/// release's Free store, ownership is never shared, and the head
/// watermark is monotone across the recycle.
#[test]
fn commit_recycle_handoff_stays_decidable_and_monotone() {
    loom::model(|| {
        let slot = Arc::new(CommitSlotModel::new());
        assert!(slot.try_claim(1), "first claim is uncontended at start");
        let second = {
            let slot = Arc::clone(&slot);
            thread::spawn(move || {
                // Spin-claim as `begin_checkpoint` does via the queue: the
                // slot becomes claimable only after the release.
                let mut claimed = slot.try_claim(2);
                while !claimed {
                    loom::thread::yield_now();
                    claimed = slot.try_claim(2);
                }
                slot.commit(2);
            })
        };
        let auditor = {
            let slot = Arc::clone(&slot);
            thread::spawn(move || {
                let decision = slot.audit();
                assert!(
                    !matches!(decision, SlotDecision::Torn { .. }),
                    "recycle window leaked a torn read: {decision:?}"
                );
            })
        };

        slot.commit(1);
        slot.release();

        second.join().unwrap();
        auditor.join().unwrap();
        assert_eq!(slot.audit(), SlotDecision::Committed(2));
        assert_eq!(
            slot.head.load(Ordering::Acquire),
            2,
            "fetch_max is monotone"
        );
    });
}
