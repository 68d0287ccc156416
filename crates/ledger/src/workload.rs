//! The four workloads: what each feeds the system and how much of it.
//!
//! All loops are closed (one generator thread; the next iteration starts
//! when the previous call returns) and do a fixed amount of work derived
//! from `--seconds`, so sample and byte counts repeat exactly on every
//! commit. `--seed` only seeds the `TrainingState` contents.

use std::time::Duration;

/// Seconds of sustained work the iteration counts below are sized for on
/// the 2-core reference sandbox; `--seconds` scales them linearly.
pub const REF_SECONDS: u64 = 20;

/// Sub-windows the sustained loop's rate is the median of.
pub const SUB_WINDOWS: usize = 5;

/// A single-tenant workload: one `PcCheckEngine` (N=2, p=2, staging pool
/// twice the state) over one simulated SSD.
#[derive(Debug, Clone, Copy)]
pub struct SingleSpec {
    pub name: &'static str,
    pub why: &'static str,
    pub state_bytes: u64,
    pub chunk_bytes: u64,
    pub codec: bool,
    /// Mixed-compressibility state updated sparsely (5% per step)
    /// instead of RNG-dense state updated densely.
    pub sparse: bool,
    /// Device write bandwidth in MB/s; `None` runs at memory speed.
    pub throttle_mb_per_s: Option<f64>,
    /// Simulated compute per iteration (slept, never timed as stall).
    pub pace: Duration,
    /// Checkpoint every this many iterations.
    pub interval: u64,
    /// Sustained iterations at [`REF_SECONDS`].
    pub ref_iters: u64,
    /// Iterations of the no-checkpoint baseline run in set-up (0 = none).
    pub baseline_iters: u64,
}

const MIB: u64 = 1 << 20;

pub const SATURATE_DENSE: SingleSpec = SingleSpec {
    name: "saturate_dense",
    why: "32 MiB RNG-dense state, checkpoint every iteration to a memory-speed device: digest, GPU copy, writers, fence and commit are the whole cost",
    state_bytes: 32 * MIB,
    chunk_bytes: MIB,
    codec: false,
    sparse: false,
    throttle_mb_per_s: None,
    pace: Duration::ZERO,
    interval: 1,
    ref_iters: 250,
    baseline_iters: 0,
};

pub const SATURATE_SPARSE: SingleSpec = SingleSpec {
    name: "saturate_sparse",
    why: "32 MiB mixed-compressibility state, 5% sparse updates, codec on: planner, entropy gate, LZ and dedup do the work and few bytes reach the device",
    state_bytes: 32 * MIB,
    chunk_bytes: 256 * 1024,
    codec: true,
    sparse: true,
    throttle_mb_per_s: None,
    pace: Duration::ZERO,
    interval: 1,
    ref_iters: 250,
    baseline_iters: 0,
};

pub const PACED_THROTTLED: SingleSpec = SingleSpec {
    name: "paced_throttled",
    why: "16 MiB state, 15 ms compute, checkpoint every 3 iterations to a 250 MB/s device: persist outlasts the interval, so N=2 concurrency and the weights-guard hold decide the stall",
    state_bytes: 16 * MIB,
    chunk_bytes: MIB,
    codec: false,
    sparse: false,
    throttle_mb_per_s: Some(250.0),
    pace: Duration::from_millis(15),
    interval: 3,
    ref_iters: 450,
    baseline_iters: 30,
};

pub const SINGLES: [SingleSpec; 3] = [SATURATE_DENSE, SATURATE_SPARSE, PACED_THROTTLED];

/// The multi-tenant workload: four paced jobs through one `Daemon`.
#[derive(Debug, Clone, Copy)]
pub struct TenantsSpec {
    pub name: &'static str,
    pub why: &'static str,
    pub jobs: usize,
    pub state_bytes: u64,
    pub interval: u64,
    pub pacing: Duration,
    pub ref_iters: u64,
    pub total_slots: u32,
    pub stripe_ways: usize,
    pub writers: usize,
    pub chunk_bytes: u64,
    pub dram_chunks: usize,
}

pub const TENANTS: TenantsSpec = TenantsSpec {
    name: "tenants",
    why: "four paced 4 MiB jobs through one daemon: namespaces, QoS arbiter, shared pipeline and always-on telemetry; payload-size changes should not move it, queue/commit/QoS/recorder costs should",
    jobs: 4,
    state_bytes: 4 * MIB,
    interval: 2,
    pacing: Duration::from_millis(10),
    ref_iters: 1500,
    total_slots: 12,
    stripe_ways: 2,
    writers: 2,
    chunk_bytes: 256 * 1024,
    dram_chunks: 64,
};

pub const WORKLOAD_NAMES: [&str; 4] = [
    SATURATE_DENSE.name,
    SATURATE_SPARSE.name,
    PACED_THROTTLED.name,
    TENANTS.name,
];

pub fn why(name: &str) -> Option<&'static str> {
    SINGLES
        .iter()
        .find(|s| s.name == name)
        .map(|s| s.why)
        .or((name == TENANTS.name).then_some(TENANTS.why))
}

/// How much of each phase one run does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan {
    /// Set-ups performed; `setup_s` is their median and the last one's
    /// objects are the ones measured.
    pub setups: usize,
    pub warmups: u64,
    pub calib_steps: usize,
    pub sustained_iters: u64,
    pub isolated: usize,
    pub recoveries: usize,
    /// Crash→recover cycles per tenant after the daemon's shutdown. A
    /// tenant's recovery takes ~5 ms, a fraction of a single-tenant one,
    /// so it takes this many from each of the four to sample a second.
    pub tenant_recoveries: usize,
    /// Size multiplier for the layer probes (1.0 = full size).
    pub probe_scale: f64,
}

/// Sustained iterations of a traced run: the spans and phase histograms
/// need tens of samples, not hundreds, and the traced run is the first
/// thing to shorten when the time cap is tight.
pub const TRACED_SUSTAINED_ITERS: u64 = 60;

impl Plan {
    /// The plan for `seconds` of sustained work. `group` is the number
    /// of iterations that must stay together (checkpoint interval ×
    /// sub-windows), so every sub-window holds whole intervals.
    pub fn new(ref_iters: u64, group: u64, seconds: u64, traced: bool) -> Plan {
        let scaled = ref_iters * seconds / REF_SECONDS;
        let wanted = if traced {
            scaled.min(TRACED_SUSTAINED_ITERS)
        } else {
            scaled
        };
        Plan {
            setups: 3,
            warmups: 3,
            calib_steps: 9,
            sustained_iters: (wanted / group).max(1) * group,
            isolated: 30,
            recoveries: 40,
            tenant_recoveries: 60,
            probe_scale: 1.0,
        }
    }

    /// A seconds-long plan for unit tests.
    #[cfg(test)]
    pub fn smoke(group: u64) -> Plan {
        Plan {
            setups: 1,
            warmups: 1,
            calib_steps: 3,
            sustained_iters: group * 5u64.div_ceil(group),
            isolated: 3,
            recoveries: 2,
            tenant_recoveries: 2,
            probe_scale: 1.0 / 64.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_keep_whole_intervals_per_sub_window() {
        let p = Plan::new(PACED_THROTTLED.ref_iters, 15, REF_SECONDS, false);
        assert_eq!(p.sustained_iters, 450);
        assert_eq!(Plan::new(450, 15, 10, false).sustained_iters, 225);
        assert_eq!(Plan::new(450, 15, 1, false).sustained_iters, 15);
        assert_eq!(Plan::new(450, 15, 20, true).sustained_iters, 60);
        assert_eq!(Plan::new(250, 5, 20, false).sustained_iters, 250);
        assert_eq!(Plan::new(250, 5, 60, false).sustained_iters, 750);
    }
}
