//! Bandwidth QoS arbitration for shared persist pipelines.
//!
//! When several jobs checkpoint through one [`PersistPipeline`] onto one
//! striped device, the writer pool is a shared resource: an elephant job
//! streaming 4 MiB chunks can starve a mouse job's 64 KiB commits, and
//! per-job p99 commit latency collapses. [`QosArbiter`] schedules
//! writer-pool leases with **weighted deficit round-robin** (WDRR) over
//! bytes:
//!
//! * Every job carries a byte *deficit* account. Serving a chunk of `b`
//!   bytes requires `deficit >= b`; the deficit is then debited.
//! * When a requester is blocked on deficit alone, it performs top-up
//!   passes: each pass credits the next job in ring order with
//!   `weight * quantum` bytes. Ring order means a job waiting for `b`
//!   bytes is served after at most `ceil(b / (weight * quantum))` full
//!   passes — the **starvation bound**, asserted at serve time.
//! * An outstanding-lease cap (`max_outstanding` grants) bounds how far
//!   ahead any mix of jobs can run; requesters over the cap sleep on a
//!   condvar and are woken by grant release.
//!
//! A single registered job bypasses arbitration entirely (deficit math,
//! cap, and condvar are all skipped), so the single-tenant fast path
//! costs one mutex acquire per chunk — multiplexing must not regress
//! solo latency.
//!
//! [`PersistPipeline`]: crate::pipeline::PersistPipeline

use std::sync::Arc;

use pccheck_util::sync::{Condvar, Mutex};

use crate::store::JobId;

/// Default deficit quantum: the byte credit one ring pass grants a
/// weight-1 job. Half a typical pipeline chunk keeps alternation fine
/// enough that two equal jobs interleave chunk-by-chunk.
pub(crate) const DEFAULT_QUANTUM: u64 = 256 * 1024;

/// Tuning knobs for [`QosArbiter`].
#[derive(Debug, Clone)]
pub struct QosConfig {
    /// Byte credit per ring pass per unit of weight.
    pub quantum: u64,
    /// Maximum concurrently outstanding grants across all jobs.
    pub(crate) max_outstanding: usize,
}

impl Default for QosConfig {
    fn default() -> Self {
        QosConfig {
            quantum: DEFAULT_QUANTUM,
            max_outstanding: 8,
        }
    }
}

#[derive(Debug)]
struct JobState {
    job: JobId,
    weight: u64,
    deficit: u64,
    /// Largest byte request currently waiting (lets the deficit cap grow
    /// past `2 * weight * quantum` when a single chunk is bigger).
    wanted: u64,
    /// Top-ups since this job was last served that found it waiting with
    /// a deficit still short of its request — the measured starvation
    /// exposure checked against the WDRR bound.
    topups_while_waiting: u64,
    served_bytes: u64,
    served_grants: u64,
}

#[derive(Debug)]
struct QosState {
    jobs: Vec<JobState>,
    ring_cursor: usize,
    outstanding: usize,
    peak_outstanding: usize,
}

impl QosState {
    fn job_index(&mut self, job: JobId, weight: u64) -> usize {
        if let Some(i) = self.jobs.iter().position(|j| j.job == job) {
            return i;
        }
        self.jobs.push(JobState {
            job,
            weight: weight.max(1),
            deficit: 0,
            wanted: 0,
            topups_while_waiting: 0,
            served_bytes: 0,
            served_grants: 0,
        });
        self.jobs.len() - 1
    }
}

/// Weighted deficit round-robin bandwidth arbiter shared by every engine
/// facade multiplexed over one persist pipeline. See the module docs for
/// the protocol.
#[derive(Debug)]
pub struct QosArbiter {
    cfg: QosConfig,
    state: Mutex<QosState>,
    cv: Condvar,
}

impl QosArbiter {
    pub fn new(cfg: QosConfig) -> Self {
        QosArbiter {
            cfg,
            state: Mutex::new(QosState {
                jobs: Vec::new(),
                ring_cursor: 0,
                outstanding: 0,
                peak_outstanding: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// Registers `job` with a scheduling weight (service share is
    /// proportional to weight under backlog). Idempotent; re-registering
    /// updates the weight.
    pub fn register_job(&self, job: JobId, weight: u64) {
        let mut s = self.state.lock();
        let i = s.job_index(job, weight);
        s.jobs[i].weight = weight.max(1);
    }

    /// Acquires a byte-metered lease to push `bytes` through the shared
    /// writer pool on behalf of `job`. Blocks until WDRR grants the
    /// deficit and the outstanding cap admits the lease. The returned
    /// grant releases on drop.
    ///
    /// # Panics
    ///
    /// Panics if a waiting job's measured top-up count ever exceeds the
    /// WDRR starvation bound — that would mean the ring is skipping a
    /// waiter, and unfairness should fail loudly in every test that
    /// exercises the arbiter.
    pub fn acquire(self: &Arc<Self>, job: JobId, bytes: u64) -> QosGrant {
        let mut s = self.state.lock();
        let idx = s.job_index(job, 1);

        // Single-tenant fast path: no deficit math, no cap, no condvar.
        if s.jobs.len() == 1 {
            s.jobs[idx].served_bytes += bytes;
            s.jobs[idx].served_grants += 1;
            s.outstanding += 1;
            s.peak_outstanding = s.peak_outstanding.max(s.outstanding);
            return QosGrant {
                arb: Arc::clone(self),
            };
        }

        s.jobs[idx].wanted = s.jobs[idx].wanted.max(bytes);
        let limit = self.cfg.max_outstanding.max(1);
        loop {
            if s.outstanding < limit {
                if s.jobs[idx].deficit >= bytes {
                    // Serve: debit and assert the starvation bound. Each
                    // full ring pass credits us weight*quantum, so a
                    // waiter is served within ceil(bytes / (w*q)) top-ups
                    // (+1 slack for a pass that began mid-ring).
                    let j = &mut s.jobs[idx];
                    let bound = bytes.div_ceil(j.weight * self.cfg.quantum) + 1;
                    assert!(
                        j.topups_while_waiting <= bound,
                        "QoS starvation bound violated: job {} waited {} top-ups \
                         for {} bytes (bound {})",
                        j.job,
                        j.topups_while_waiting,
                        bytes,
                        bound
                    );
                    j.deficit -= bytes;
                    j.wanted = 0;
                    j.topups_while_waiting = 0;
                    j.served_bytes += bytes;
                    j.served_grants += 1;
                    s.outstanding += 1;
                    s.peak_outstanding = s.peak_outstanding.max(s.outstanding);
                    return QosGrant {
                        arb: Arc::clone(self),
                    };
                }
                // Blocked on deficit only: run one top-up step — credit
                // the next ring job — and re-check without sleeping.
                // Ring order guarantees our own turn within jobs.len()
                // steps, so this loop terminates.
                let n = s.jobs.len();
                let cur = s.ring_cursor % n;
                s.ring_cursor = (cur + 1) % n;
                let quantum = self.cfg.quantum;
                let j = &mut s.jobs[cur];
                // Only a top-up that finds the waiter still short counts
                // against its bound. One whose deficit already covers its
                // request is waiting for the cap or for its thread to run,
                // and every pass other jobs make meanwhile is the
                // scheduler's doing, not the ring's.
                if j.deficit < j.wanted {
                    j.topups_while_waiting += 1;
                }
                let cap = (2 * j.weight * quantum).max(j.wanted);
                j.deficit = (j.deficit + j.weight * quantum).min(cap);
                continue;
            }
            // Blocked on the outstanding cap: sleep until a release.
            s = self.cv.wait(s);
        }
    }

    fn release(&self) {
        let mut s = self.state.lock();
        s.outstanding -= 1;
        self.cv.notify_all();
    }

    /// Per-job cumulative served bytes, in registration order — the
    /// measured bandwidth shares the fairness oracle compares against.
    pub fn shares(&self) -> Vec<(JobId, u64)> {
        self.state
            .lock()
            .jobs
            .iter()
            .map(|j| (j.job, j.served_bytes))
            .collect()
    }

    /// Highest number of simultaneously outstanding grants observed.
    pub fn peak_outstanding(&self) -> usize {
        self.state.lock().peak_outstanding
    }
}

/// RAII lease from [`QosArbiter::acquire`]; releases its outstanding
/// slot (and wakes cap-blocked waiters) on drop.
#[derive(Debug)]
pub struct QosGrant {
    arb: Arc<QosArbiter>,
}

impl Drop for QosGrant {
    fn drop(&mut self) {
        self.arb.release();
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, Ordering};

    use super::*;

    fn arbiter(cap: usize) -> Arc<QosArbiter> {
        Arc::new(QosArbiter::new(QosConfig {
            quantum: 1024,
            max_outstanding: cap,
        }))
    }

    #[test]
    fn single_job_fast_path_never_blocks() {
        let arb = arbiter(1);
        // Far more grants than the cap without ever releasing: the solo
        // fast path must not enforce the cap.
        let grants: Vec<_> = (0..8).map(|_| arb.acquire(1, 4096)).collect();
        assert_eq!(arb.shares(), vec![(1, 8 * 4096)]);
        drop(grants);
    }

    #[test]
    fn equal_weights_serve_equal_bytes() {
        let arb = arbiter(1);
        arb.register_job(1, 1);
        arb.register_job(2, 1);
        let mut handles = Vec::new();
        for job in [1u64, 2] {
            let arb = Arc::clone(&arb);
            handles.push(std::thread::spawn(move || {
                for _ in 0..64 {
                    let g = arb.acquire(job, 4096);
                    drop(g);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let shares = arb.shares();
        assert_eq!(shares[0].1, 64 * 4096);
        assert_eq!(shares[1].1, 64 * 4096);
        assert!(arb.peak_outstanding() <= 1, "cap 1 exceeded");
    }

    #[test]
    fn elephant_chunks_do_not_starve_mice() {
        // Job 1 pushes 1 MiB chunks (4x the deficit cap growth per pass);
        // job 2 pushes 4 KiB chunks. Both must complete, and the
        // starvation assert inside acquire() checks the WDRR bound held
        // throughout.
        let arb = arbiter(2);
        arb.register_job(1, 1);
        arb.register_job(2, 1);
        let mut handles = Vec::new();
        for (job, bytes, reps) in [(1u64, 1 << 20, 16usize), (2u64, 4096, 256)] {
            let arb = Arc::clone(&arb);
            handles.push(std::thread::spawn(move || {
                for _ in 0..reps {
                    drop(arb.acquire(job, bytes as u64));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let shares = arb.shares();
        assert_eq!(shares.iter().find(|s| s.0 == 1).unwrap().1, 16 << 20);
        assert_eq!(shares.iter().find(|s| s.0 == 2).unwrap().1, 256 * 4096);
    }

    #[test]
    fn weights_bias_deficit_growth() {
        // Weight 3 accumulates deficit 3x faster, so serving the same
        // chunk size requires fewer passes. Verify weighted registration
        // plumbs through (the byte shares weights yield under backlog are
        // `backlogged_jobs_share_bytes_by_weight`'s to check).
        let arb = arbiter(1);
        arb.register_job(7, 3);
        arb.register_job(8, 1);
        drop(arb.acquire(7, 3 * 1024));
        drop(arb.acquire(8, 1024));
        let shares = arb.shares();
        assert_eq!(shares, vec![(7, 3 * 1024), (8, 1024)]);
    }

    /// The request `job` is waiting on inside `acquire`, 0 when none.
    fn wanted(arb: &QosArbiter, job: JobId) -> u64 {
        let s = arb.state.lock();
        s.jobs.iter().find(|j| j.job == job).map_or(0, |j| j.wanted)
    }

    #[test]
    fn cap_blocks_until_release() {
        let arb = arbiter(1);
        arb.register_job(1, 1);
        arb.register_job(2, 1);
        let g = arb.acquire(1, 512);
        let released = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                let g2 = arb.acquire(2, 512);
                assert!(released.load(Ordering::SeqCst), "waiter served past cap 1");
                drop(g2);
            });
            // The waiter records its request under the lock it gives up
            // only in the condvar wait: once it is seen, the waiter is
            // blocked on the cap.
            while wanted(&arb, 2) == 0 {
                std::thread::yield_now();
            }
            released.store(true, Ordering::SeqCst);
            drop(g);
            waiter.join().unwrap();
        });
        assert!(arb.peak_outstanding() <= 1);
    }

    #[test]
    fn backlogged_jobs_share_bytes_by_weight() {
        // Four always-backlogged jobs, weights 1/1/2/4, cap 1: every job
        // has a chunk waiting at every grant. `acquire` serves whichever
        // waiter takes the lock once the cap frees, topping up its deficit
        // if short, so with threads the split would follow the scheduler.
        // The test plays the waiters in a fixed order instead: the next
        // grant goes to the first job in ring order whose banked deficit
        // covers its chunk, and when none does, to the next job in turn,
        // whose top-ups credit every job weight x quantum per ring pass.
        // The arbiter's accounting alone then decides the split.
        const CHUNK: u64 = 1024; // one quantum
        const JOBS: [(JobId, u64); 4] = [(1, 1), (2, 1), (3, 2), (4, 4)];
        let arb = arbiter(1);
        for (job, weight) in JOBS {
            arb.register_job(job, weight);
        }
        let banked = |k: usize| arb.state.lock().jobs[k].deficit;
        let mut turn = 0;
        let mut grant = || {
            let k = (turn..turn + JOBS.len())
                .map(|k| k % JOBS.len())
                .find(|&k| banked(k) >= CHUNK)
                .unwrap_or(turn % JOBS.len());
            drop(arb.acquire(JOBS[k].0, CHUNK));
            turn = k + 1;
        };
        let served = |arb: &QosArbiter| arb.shares().iter().map(|&(_, b)| b).collect::<Vec<_>>();
        // The window opens once every job has been served (each waited its
        // turn) and closes on total served bytes, a cut that does not
        // condition on how they were split.
        while served(&arb).contains(&0) {
            grant();
        }
        let opened = served(&arb);
        let window = |arb: &QosArbiter| {
            let now = served(arb);
            now.iter()
                .zip(&opened)
                .map(|(n, o)| n - o)
                .collect::<Vec<_>>()
        };
        while window(&arb).iter().sum::<u64>() < 256 * CHUNK {
            grant();
        }

        let shares = window(&arb);
        let total: u64 = shares.iter().sum();
        let weights: u64 = JOBS.iter().map(|&(_, w)| w).sum();
        for (&bytes, &(job, weight)) in shares.iter().zip(&JOBS) {
            let (share, fair) = (bytes as f64 / total as f64, weight as f64 / weights as f64);
            assert!(
                (share - fair).abs() <= 0.15 * fair,
                "job {job}: share {share:.3} against weight share {fair:.3} ({shares:?})"
            );
        }
        let (a, b) = (shares[0].max(shares[1]), shares[0].min(shares[1]));
        assert!(a as f64 <= 1.3 * b as f64, "equal weights, max/min {a}/{b}");
    }
}
