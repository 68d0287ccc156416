//! Multi-node checkpoint coordination (§3.1, §4.1).
//!
//! In pipeline-parallel training every node checkpoints its own model
//! partition. Because each node may have several checkpoints in flight, the
//! nodes must agree on which checkpoint id is the latest *globally
//! consistent* one — a model partition from iteration 40 on one node is
//! useless next to a partition from iteration 50 on another.
//!
//! The paper's mechanism: after a node's successful commit CAS, it sends
//! its checkpoint id to rank 0 and waits; once rank 0 has ids from all
//! peers, it notifies them, and each updates its `peer_check` — the last
//! globally consistent checkpoint. [`CoordinatorHub`] implements exactly
//! this rendezvous for in-process "nodes" (threads), which is how the
//! distributed experiments are simulated.

use pccheck_util::sync::{Condvar, Mutex};

use crate::error::PccheckError;

#[derive(Debug)]
struct Round {
    /// Checkpoint ids reported this round, indexed by rank.
    reported: Vec<Option<u64>>,
    /// The agreed id of the last completed round.
    agreed: Option<u64>,
    /// Sequence number of completed rounds.
    completed_rounds: u64,
    /// Set when any rank reports an inconsistent id for the current round.
    conflict: Option<String>,
}

/// Rendezvous point for `n` ranks agreeing on globally consistent
/// checkpoint ids.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use pccheck::distributed::CoordinatorHub;
///
/// let hub = Arc::new(CoordinatorHub::new(2));
/// let h = {
///     let hub = Arc::clone(&hub);
///     std::thread::spawn(move || hub.report_and_wait(1, 7).unwrap())
/// };
/// let agreed = hub.report_and_wait(0, 7).unwrap();
/// assert_eq!(agreed, 7);
/// assert_eq!(h.join().unwrap(), 7);
/// ```
#[derive(Debug)]
pub struct CoordinatorHub {
    ranks: usize,
    round: Mutex<Round>,
    cond: Condvar,
}

impl CoordinatorHub {
    /// Creates a hub for `ranks` participants.
    ///
    /// # Panics
    ///
    /// Panics if `ranks == 0`.
    pub fn new(ranks: usize) -> Self {
        assert!(ranks > 0, "need at least one rank");
        CoordinatorHub {
            ranks,
            round: Mutex::new(Round {
                reported: vec![None; ranks],
                agreed: None,
                completed_rounds: 0,
                conflict: None,
            }),
            cond: Condvar::new(),
        }
    }

    /// The last globally consistent checkpoint id (each node's
    /// `peer_check`).
    #[cfg(test)]
    fn peer_check(&self) -> Option<u64> {
        self.round.lock().agreed
    }

    /// Rounds completed so far.
    // api: a test oracle, listed in DESIGN §4 ("Test oracles").
    pub fn completed_rounds(&self) -> u64 {
        self.round.lock().completed_rounds
    }

    /// Reports `checkpoint_id` for `rank`'s latest commit and blocks until
    /// every rank has reported this round; returns the agreed id.
    ///
    /// # Errors
    ///
    /// Returns [`PccheckError::CoordinationConflict`] if ranks report
    /// different ids in the same round (the orderings diverged — the paper
    /// notes all peers had identical orderings in their runs, and flags
    /// robustness here as future work; we surface the conflict instead of
    /// silently committing an inconsistent set).
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range or reports twice in one round.
    pub fn report_and_wait(&self, rank: usize, checkpoint_id: u64) -> Result<u64, PccheckError> {
        assert!(rank < self.ranks, "rank {rank} out of range");
        let mut round = self.round.lock();
        assert!(
            round.reported[rank].is_none(),
            "rank {rank} reported twice in one round"
        );
        // Detect divergence against ids already reported this round.
        if let Some(other) = round.reported.iter().flatten().next() {
            if *other != checkpoint_id {
                let msg = format!(
                    "rank {rank} reported id {checkpoint_id}, but this round already has id {other}"
                );
                round.conflict = Some(msg.clone());
                self.cond.notify_all();
                return Err(PccheckError::CoordinationConflict(msg));
            }
        }
        round.reported[rank] = Some(checkpoint_id);
        let my_round = round.completed_rounds;

        if round.reported.iter().all(Option::is_some) {
            // Rank-0-equivalent: everyone reported; complete the round.
            round.agreed = Some(checkpoint_id);
            round.completed_rounds += 1;
            round.reported.iter_mut().for_each(|r| *r = None);
            round.conflict = None;
            self.cond.notify_all();
            return Ok(checkpoint_id);
        }
        // Wait for the round to complete (or a conflict to surface).
        while round.completed_rounds == my_round {
            if let Some(msg) = &round.conflict {
                return Err(PccheckError::CoordinationConflict(msg.clone()));
            }
            round = self.cond.wait(round);
        }
        Ok(round.agreed.expect("completed round has an agreed id"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn single_rank_agrees_immediately() {
        let hub = CoordinatorHub::new(1);
        assert_eq!(hub.report_and_wait(0, 5).unwrap(), 5);
        assert_eq!(hub.peer_check(), Some(5));
        assert_eq!(hub.completed_rounds(), 1);
    }

    #[test]
    fn all_ranks_block_until_agreement() {
        let hub = Arc::new(CoordinatorHub::new(3));
        let handles: Vec<_> = (0..3usize)
            .map(|rank| {
                let hub = Arc::clone(&hub);
                std::thread::spawn(move || hub.report_and_wait(rank, 42).unwrap())
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 42);
        }
        assert_eq!(hub.peer_check(), Some(42));
    }

    #[test]
    fn multiple_rounds_advance_peer_check() {
        let hub = Arc::new(CoordinatorHub::new(2));
        for id in [10u64, 20, 30] {
            let hub2 = Arc::clone(&hub);
            let h = std::thread::spawn(move || hub2.report_and_wait(1, id).unwrap());
            assert_eq!(hub.report_and_wait(0, id).unwrap(), id);
            h.join().unwrap();
            assert_eq!(hub.peer_check(), Some(id));
        }
        assert_eq!(hub.completed_rounds(), 3);
    }

    #[test]
    fn conflicting_ids_error_out() {
        let hub = Arc::new(CoordinatorHub::new(2));
        let hub2 = Arc::clone(&hub);
        let h = std::thread::spawn(move || hub2.report_and_wait(1, 7));
        // Let rank 1 report first.
        while hub.round.lock().reported[1].is_none() {
            std::thread::yield_now();
        }
        let err = hub.report_and_wait(0, 8).unwrap_err();
        assert!(matches!(err, PccheckError::CoordinationConflict(_)));
        let err1 = h.join().unwrap().unwrap_err();
        assert!(matches!(err1, PccheckError::CoordinationConflict(_)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rank_panics() {
        CoordinatorHub::new(2).report_and_wait(5, 1).ok();
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        CoordinatorHub::new(0);
    }
}
