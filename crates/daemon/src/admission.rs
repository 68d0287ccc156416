//! Admission control: the §3.4 storage math applied per tenant.
//!
//! A tenant with storage budget `S` and checkpoint size `m` can run at
//! most `N ≤ S/m − 1` concurrent checkpoints (the `+1` slot is the one
//! being recycled) — the bound `pccheck::Tuner::max_concurrent` computes
//! for a single job. Admission applies it per tenant and layers the
//! *shared-store* constraints on top: the slot range and namespace
//! directory are finite, so a job that fits its own budget may still have
//! to wait for capacity.

use pccheck_util::ByteSize;

use crate::service::JobSpec;

/// The largest QoS weight a job may ask for. The arbiter credits a job
/// `weight * quantum` bytes a ring pass and caps its deficit at twice
/// that, so a weight near `u64::MAX / quantum` wraps the credit (2^46 at
/// the default 256 KiB quantum wraps it to 0, and `acquire` never
/// returns); at 2^16 the cap is 2^35 bytes at that quantum.
pub(crate) const MAX_WEIGHT: u64 = 1 << 16;

/// The admission decision for one submitted job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Admission {
    /// The job runs now with `concurrent` checkpoints over `slots`
    /// namespace slots (`concurrent + 1`).
    Admitted {
        /// Granted concurrency `N` (the requested value clamped to the
        /// tenant's §3.4 bound).
        concurrent: usize,
        /// Slots the namespace needs: `N + 1`.
        slots: u32,
    },
    /// The job fits its own budget but the shared store has no room for
    /// it right now; it waits in FIFO order.
    Queued(String),
    /// The job can never run under this configuration.
    Rejected(String),
}

/// Decides admission for `spec` against a store with `slot_size`-sized
/// slots, `free_slots` unallocated slots, and `free_namespaces` unused
/// directory entries.
pub fn decide(
    spec: &JobSpec,
    slot_size: ByteSize,
    free_slots: u32,
    free_namespaces: u32,
) -> Admission {
    if spec.state.is_zero() {
        return Admission::Rejected("checkpoint size must be nonzero".into());
    }
    if spec.state > slot_size {
        return Admission::Rejected(format!(
            "checkpoint size {} exceeds the store's slot size {}",
            spec.state, slot_size
        ));
    }
    if spec.max_concurrent == 0 {
        return Admission::Rejected("max_concurrent must be >= 1".into());
    }
    if spec.weight > MAX_WEIGHT {
        return Admission::Rejected(format!(
            "QoS weight {} exceeds the maximum {MAX_WEIGHT}",
            spec.weight
        ));
    }
    // §3.4: N ≤ S/m − 1; a budget under two checkpoints leaves N = 0.
    let fit = spec.storage_budget.as_u64() / spec.state.as_u64();
    let cap = usize::try_from(fit).unwrap_or(usize::MAX).saturating_sub(1);
    if cap == 0 {
        return Admission::Rejected(format!(
            "storage budget {} holds fewer than 2 checkpoints of {}",
            spec.storage_budget, spec.state
        ));
    }
    let concurrent = spec.max_concurrent.min(cap);
    // Slot indices are `u32`: a concurrency whose `N + 1` slots do not fit
    // one can never run, whatever the store frees.
    let Some(slots) = u32::try_from(concurrent)
        .ok()
        .and_then(|n| n.checked_add(1))
    else {
        return Admission::Rejected(format!(
            "{concurrent} concurrent checkpoints need more slots than a store can hold"
        ));
    };
    if free_namespaces == 0 {
        return Admission::Queued(format!(
            "namespace directory full; job needs 1 entry and {slots} slots"
        ));
    }
    if slots > free_slots {
        return Admission::Queued(format!(
            "slot budget exhausted: job needs {slots} slots, {free_slots} remain"
        ));
    }
    Admission::Admitted { concurrent, slots }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(state_kb: u64, n: usize, budget_kb: u64) -> JobSpec {
        JobSpec {
            name: "t".into(),
            state: ByteSize::from_kb(state_kb),
            max_concurrent: n,
            storage_budget: ByteSize::from_kb(budget_kb),
            ..JobSpec::sim("t")
        }
    }

    #[test]
    fn budget_clamps_concurrency_to_the_section_3_4_bound() {
        // S/m = 4 → N ≤ 3 even though the job asked for 8.
        let d = decide(&spec(64, 8, 256), ByteSize::from_kb(64), 32, 4);
        assert_eq!(
            d,
            Admission::Admitted {
                concurrent: 3,
                slots: 4
            }
        );
    }

    #[test]
    fn budget_below_two_checkpoints_is_rejected() {
        let d = decide(&spec(64, 2, 100), ByteSize::from_kb(64), 32, 4);
        assert!(matches!(d, Admission::Rejected(_)), "{d:?}");
    }

    #[test]
    fn oversized_state_is_rejected_not_queued() {
        let d = decide(&spec(128, 1, 1024), ByteSize::from_kb(64), 32, 4);
        assert!(matches!(d, Admission::Rejected(_)), "{d:?}");
    }

    #[test]
    fn exhausted_store_queues_a_job_that_fits_its_own_budget() {
        let d = decide(&spec(64, 2, 1024), ByteSize::from_kb(64), 2, 4);
        assert!(matches!(d, Admission::Queued(_)), "{d:?}");
        let d = decide(&spec(64, 2, 1024), ByteSize::from_kb(64), 8, 0);
        assert!(matches!(d, Admission::Queued(_)), "{d:?}");
        let d = decide(&spec(64, 2, 1024), ByteSize::from_kb(64), 3, 1);
        assert_eq!(
            d,
            Admission::Admitted {
                concurrent: 2,
                slots: 3
            }
        );
    }

    #[test]
    fn a_concurrency_whose_slots_overflow_u32_is_rejected() {
        // A budget of 2^40 KiB holds 2^40 one-KiB checkpoints, so the
        // §3.4 bound does not clamp N = 2^32, and N + 1 slots overflow.
        let d = decide(&spec(1, 1 << 32, 1 << 40), ByteSize::from_kb(64), 32, 4);
        assert!(matches!(d, Admission::Rejected(_)), "{d:?}");
        let d = decide(
            &spec(1, u32::MAX as usize, 1 << 40),
            ByteSize::from_kb(64),
            32,
            4,
        );
        assert!(matches!(d, Admission::Rejected(_)), "{d:?}");
    }

    #[test]
    fn a_weight_past_the_maximum_is_rejected_naming_it() {
        let heavy = |weight| JobSpec {
            weight,
            ..spec(64, 2, 1024)
        };
        let decide_for = |weight| decide(&heavy(weight), ByteSize::from_kb(64), 32, 4);
        for weight in [MAX_WEIGHT + 1, 1 << 46, u64::MAX] {
            let d = decide_for(weight);
            assert!(
                matches!(&d, Admission::Rejected(why) if why.contains(&MAX_WEIGHT.to_string())),
                "weight {weight}: {d:?}"
            );
        }
        assert!(matches!(decide_for(MAX_WEIGHT), Admission::Admitted { .. }));
    }
}
