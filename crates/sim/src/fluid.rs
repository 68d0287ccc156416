//! Fluid (processor-sharing) resources.
//!
//! A storage device or PCIe link serves several in-flight transfers at
//! once; to first order each active transfer receives an equal share of
//! the bandwidth. That is the mechanism behind the paper's saturation
//! observations (§5.4.1: more than ~4 concurrent checkpoints just split
//! the same SSD bandwidth). `FluidResource` implements this model with an
//! optional *per-job rate cap* expressing that a single writer thread
//! cannot saturate the device by itself — the reason PCcheck uses `p`
//! parallel writers per checkpoint (§5.4.2).

use pccheck_util::{Bandwidth, SimDuration, SimTime};

/// Identifier of a fluid job, assigned by the caller.
pub type JobId = u64;

#[derive(Debug, Clone, Copy)]
struct FluidJob {
    id: JobId,
    remaining: f64, // bytes
}

/// A bandwidth resource shared equally among in-flight jobs.
#[derive(Debug, Clone)]
pub(crate) struct FluidResource {
    rate: f64,
    per_job_cap: Option<f64>,
    jobs: Vec<FluidJob>,
    last_update: SimTime,
}

impl FluidResource {
    /// Creates a resource with aggregate bandwidth `rate` and an optional
    /// per-job cap (a single job can never exceed the cap even when alone).
    pub(crate) fn new(rate: Bandwidth, per_job_cap: Option<Bandwidth>) -> Self {
        FluidResource {
            rate: rate.as_bytes_per_sec(),
            per_job_cap: per_job_cap.map(Bandwidth::as_bytes_per_sec),
            jobs: Vec::new(),
            last_update: SimTime::ZERO,
        }
    }

    /// Bytes/sec each in-flight job currently receives.
    pub(crate) fn rate_per_job(&self) -> f64 {
        if self.jobs.is_empty() {
            return 0.0;
        }
        let share = self.rate / self.jobs.len() as f64;
        match self.per_job_cap {
            Some(cap) => share.min(cap),
            None => share,
        }
    }

    /// Adds a job of `size` bytes at time `now` (advancing internal
    /// bookkeeping first).
    ///
    /// # Panics
    ///
    /// Panics if `id` is already in flight.
    pub(crate) fn add_job(&mut self, id: JobId, size: pccheck_util::ByteSize, now: SimTime) {
        self.advance_to(now);
        assert!(
            self.jobs.iter().all(|j| j.id != id),
            "job {id} already in flight"
        );
        self.jobs.push(FluidJob {
            id,
            remaining: size.as_u64() as f64,
        });
    }

    /// Advances all jobs to time `now`.
    pub(crate) fn advance_to(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last_update).as_secs_f64();
        if dt > 0.0 {
            let r = self.rate_per_job();
            for j in &mut self.jobs {
                j.remaining = (j.remaining - r * dt).max(0.0);
            }
        }
        self.last_update = self.last_update.max(now);
    }

    /// Bytes below which a job counts as finished: sub-byte dust plus
    /// whatever the resource moves in ~2 ns. Without this slack, rounding
    /// completion times to nanoseconds can leave a residue that never
    /// drains (a zero-length timestep → simulation livelock).
    fn epsilon_bytes(&self) -> f64 {
        self.rate_per_job() * 2e-9 + 0.5
    }

    /// The earliest time any in-flight job completes, assuming the job set
    /// does not change before then. Guaranteed to be strictly after `now`
    /// unless a job is already reapable at `now`.
    pub(crate) fn next_completion(&self, now: SimTime) -> Option<SimTime> {
        if self.jobs.is_empty() {
            return None;
        }
        let already = now.saturating_since(self.last_update).as_secs_f64();
        let r = self.rate_per_job();
        let min_remaining = self
            .jobs
            .iter()
            .map(|j| j.remaining)
            .fold(f64::INFINITY, f64::min);
        if min_remaining <= self.epsilon_bytes() {
            return Some(now);
        }
        let secs = ((min_remaining / r) - already).max(0.0);
        let t = now + SimDuration::from_secs_f64(secs);
        Some(if t <= now {
            now + SimDuration::from_nanos(1)
        } else {
            t
        })
    }

    /// Removes and returns the ids of jobs that have finished by `now`.
    pub(crate) fn take_completed(&mut self, now: SimTime) -> Vec<JobId> {
        self.advance_to(now);
        let eps = self.epsilon_bytes();
        let mut done = Vec::new();
        self.jobs.retain(|j| {
            if j.remaining <= eps {
                done.push(j.id);
                false
            } else {
                true
            }
        });
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pccheck_util::ByteSize;

    fn bw(b: f64) -> Bandwidth {
        Bandwidth::from_bytes_per_sec(b)
    }

    #[test]
    fn single_job_runs_at_full_rate() {
        let mut r = FluidResource::new(bw(100.0), None);
        r.add_job(1, ByteSize::from_bytes(200), SimTime::ZERO);
        let t = r.next_completion(SimTime::ZERO).unwrap();
        assert_eq!(t, SimTime::from_secs_f64(2.0));
        assert_eq!(r.take_completed(t), vec![1]);
        assert!(r.next_completion(t).is_none());
    }

    #[test]
    fn sharing_halves_the_rate() {
        let mut r = FluidResource::new(bw(100.0), None);
        r.add_job(1, ByteSize::from_bytes(100), SimTime::ZERO);
        r.add_job(2, ByteSize::from_bytes(300), SimTime::ZERO);
        // Job 1 finishes at t=2 (50 B/s each)...
        let t1 = r.next_completion(SimTime::ZERO).unwrap();
        assert_eq!(t1, SimTime::from_secs_f64(2.0));
        assert_eq!(r.take_completed(t1), vec![1]);
        // ...then job 2 gets full rate: 200 bytes left / 100 B/s = 2 s more.
        let t2 = r.next_completion(t1).unwrap();
        assert_eq!(t2, SimTime::from_secs_f64(4.0));
        assert_eq!(r.take_completed(t2), vec![2]);
    }

    #[test]
    fn per_job_cap_limits_single_writer() {
        let mut r = FluidResource::new(bw(100.0), Some(bw(40.0)));
        r.add_job(1, ByteSize::from_bytes(80), SimTime::ZERO);
        // Alone but capped at 40 B/s: 2 s.
        assert_eq!(
            r.next_completion(SimTime::ZERO).unwrap(),
            SimTime::from_secs_f64(2.0)
        );
        // Three jobs: share = 33.3 < cap → sharing dominates.
        r.add_job(2, ByteSize::from_bytes(80), SimTime::ZERO);
        r.add_job(3, ByteSize::from_bytes(80), SimTime::ZERO);
        assert!((r.rate_per_job() - 100.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn late_arrival_slows_existing_job() {
        let mut r = FluidResource::new(bw(100.0), None);
        r.add_job(1, ByteSize::from_bytes(200), SimTime::ZERO);
        // At t=1, job 1 has 100 bytes left; job 2 arrives.
        let t_mid = SimTime::from_secs_f64(1.0);
        r.add_job(2, ByteSize::from_bytes(100), t_mid);
        // Both now at 50 B/s; both finish at t=3.
        let t = r.next_completion(t_mid).unwrap();
        assert_eq!(t, SimTime::from_secs_f64(3.0));
        let mut done = r.take_completed(t);
        done.sort_unstable();
        assert_eq!(done, vec![1, 2]);
    }

    #[test]
    fn zero_size_job_completes_immediately() {
        let mut r = FluidResource::new(bw(10.0), None);
        r.add_job(1, ByteSize::ZERO, SimTime::ZERO);
        assert_eq!(r.next_completion(SimTime::ZERO), Some(SimTime::ZERO));
        assert_eq!(r.take_completed(SimTime::ZERO), vec![1]);
    }

    #[test]
    #[should_panic(expected = "already in flight")]
    fn duplicate_job_id_panics() {
        let mut r = FluidResource::new(bw(10.0), None);
        r.add_job(1, ByteSize::from_bytes(10), SimTime::ZERO);
        r.add_job(1, ByteSize::from_bytes(10), SimTime::ZERO);
    }

    #[test]
    fn aggregate_throughput_is_conserved() {
        // 4 equal jobs on an uncapped resource finish exactly when one job
        // of 4x the size would.
        let mut shared = FluidResource::new(bw(100.0), None);
        for id in 0..4 {
            shared.add_job(id, ByteSize::from_bytes(250), SimTime::ZERO);
        }
        let t = shared.next_completion(SimTime::ZERO).unwrap();
        assert_eq!(t, SimTime::from_secs_f64(10.0));
        assert_eq!(shared.take_completed(t).len(), 4);
    }
}
