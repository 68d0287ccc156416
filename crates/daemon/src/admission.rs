//! Admission control: the §3.4 storage math applied per tenant.
//!
//! The single-job tuner already knows the constraint that matters here:
//! a tenant with storage budget `S` and checkpoint size `m` can run at
//! most `N ≤ S/m − 1` concurrent checkpoints (the `+1` slot is the one
//! being recycled). The daemon reuses [`Tuner`] verbatim for that bound
//! and layers the *shared-store* constraints on top: the slot range and
//! namespace directory are finite, so a job that fits its own budget may
//! still have to wait for capacity.

use pccheck::{Tuner, TunerInputs};
use pccheck_util::{Bandwidth, ByteSize, SimDuration};

use crate::service::JobSpec;

/// System-wide model parameters fed to each tenant's [`Tuner`] (the
/// "System Parameters" column of Table 2; the per-tenant "User
/// Constraints" come from the [`JobSpec`]).
#[derive(Debug, Clone)]
pub struct SystemParams {
    /// Modeled iteration time `t` for admission math.
    pub iter_time: SimDuration,
    /// Aggregate storage write bandwidth `T_S` of the shared stripe.
    pub storage_bandwidth: Bandwidth,
    /// GPU→CPU PCIe bandwidth `T_G`.
    pub pcie_bandwidth: Bandwidth,
    /// Acceptable slowdown `q ≥ 1`.
    pub max_slowdown: f64,
    /// Whether tenants may opt into the chunk codec at all. Operators
    /// turn this off fleet-wide (e.g., CPU-starved hosts) and every
    /// admission downgrades the request to a raw persist path.
    pub(crate) allow_codec: bool,
}

impl Default for SystemParams {
    fn default() -> Self {
        SystemParams {
            iter_time: SimDuration::from_millis(100),
            storage_bandwidth: Bandwidth::from_mb_per_sec(2000.0),
            pcie_bandwidth: Bandwidth::from_mb_per_sec(12000.0),
            max_slowdown: 1.05,
            allow_codec: true,
        }
    }
}

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
        /// Whether the chunk codec was granted (requested by the spec
        /// AND allowed system-wide).
        codec: bool,
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
    system: &SystemParams,
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
    let tuner = match Tuner::new(TunerInputs {
        checkpoint_size: spec.state,
        iter_time: system.iter_time,
        storage_bandwidth: system.storage_bandwidth,
        pcie_bandwidth: system.pcie_bandwidth,
        storage_budget: spec.storage_budget,
        max_slowdown: system.max_slowdown,
    }) {
        Ok(t) => t,
        // The tuner's own validation is the rejection: a budget that
        // cannot hold two checkpoints means N would be 0.
        Err(e) => return Admission::Rejected(format!("tuner admission: {e}")),
    };
    let cap = tuner.max_concurrent();
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
    Admission::Admitted {
        concurrent,
        slots,
        codec: spec.codec && system.allow_codec,
    }
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
        let d = decide(
            &spec(64, 8, 256),
            ByteSize::from_kb(64),
            32,
            4,
            &SystemParams::default(),
        );
        assert_eq!(
            d,
            Admission::Admitted {
                concurrent: 3,
                slots: 4,
                codec: false
            }
        );
    }

    #[test]
    fn budget_below_two_checkpoints_is_rejected() {
        let d = decide(
            &spec(64, 2, 100),
            ByteSize::from_kb(64),
            32,
            4,
            &SystemParams::default(),
        );
        assert!(matches!(d, Admission::Rejected(_)), "{d:?}");
    }

    #[test]
    fn oversized_state_is_rejected_not_queued() {
        let d = decide(
            &spec(128, 1, 1024),
            ByteSize::from_kb(64),
            32,
            4,
            &SystemParams::default(),
        );
        assert!(matches!(d, Admission::Rejected(_)), "{d:?}");
    }

    #[test]
    fn exhausted_store_queues_a_job_that_fits_its_own_budget() {
        let sys = SystemParams::default();
        let d = decide(&spec(64, 2, 1024), ByteSize::from_kb(64), 2, 4, &sys);
        assert!(matches!(d, Admission::Queued(_)), "{d:?}");
        let d = decide(&spec(64, 2, 1024), ByteSize::from_kb(64), 8, 0, &sys);
        assert!(matches!(d, Admission::Queued(_)), "{d:?}");
        let d = decide(&spec(64, 2, 1024), ByteSize::from_kb(64), 3, 1, &sys);
        assert_eq!(
            d,
            Admission::Admitted {
                concurrent: 2,
                slots: 3,
                codec: false
            }
        );
    }

    #[test]
    fn a_concurrency_whose_slots_overflow_u32_is_rejected() {
        // A budget of 2^40 KiB holds 2^40 one-KiB checkpoints, so the
        // §3.4 bound does not clamp N = 2^32, and N + 1 slots overflow.
        let d = decide(
            &spec(1, 1 << 32, 1 << 40),
            ByteSize::from_kb(64),
            32,
            4,
            &SystemParams::default(),
        );
        assert!(matches!(d, Admission::Rejected(_)), "{d:?}");
        let d = decide(
            &spec(1, u32::MAX as usize, 1 << 40),
            ByteSize::from_kb(64),
            32,
            4,
            &SystemParams::default(),
        );
        assert!(matches!(d, Admission::Rejected(_)), "{d:?}");
    }

    #[test]
    fn codec_grant_requires_both_the_tenant_and_the_operator() {
        let sys = SystemParams::default();
        let mut s = spec(64, 2, 1024);
        s.codec = true;
        let d = decide(&s, ByteSize::from_kb(64), 32, 4, &sys);
        assert!(
            matches!(d, Admission::Admitted { codec: true, .. }),
            "{d:?}"
        );
        let strict = SystemParams {
            allow_codec: false,
            ..SystemParams::default()
        };
        let d = decide(&s, ByteSize::from_kb(64), 32, 4, &strict);
        assert!(
            matches!(d, Admission::Admitted { codec: false, .. }),
            "{d:?}"
        );
    }
}
