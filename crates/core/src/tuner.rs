//! The §3.4 configuration tool: pick `N*` and the minimum checkpoint
//! interval `f*` that keeps checkpointing overhead under a budget `q`.
//!
//! The analysis models training runtime with checkpoints every `f`
//! iterations and `N` concurrent checkpoints:
//!
//! ```text
//! runtime_2 = f·t + max(Tw, N·f·t) · (A/(f·N) − 1) + Tw
//! ```
//!
//! In the stalling regime (`Tw > N·f·t`), bounding `runtime_2 ≤ q·runtime_0`
//! (with `runtime_0 = A·t`) and dropping the negligible `f·t` term yields
//! equation (2): `f ≥ Tw / (N·q·t)`, and the recommended interval is
//! equation (3): `f* = ceil(Tw / (N*·q·t))`.
//!
//! `N*` is found empirically: the tool measures (or accepts a model of)
//! `Tw(N)` — the per-checkpoint write time under `N`-way contention — and
//! picks the `N` minimizing `Tw(N)/N`, subject to `N ≤ S/m − 1`.

use pccheck_util::{Bandwidth, ByteSize, SimDuration};

use crate::error::PccheckError;

/// Inputs to the tuner: the "System/Model Parameters" and "User
/// Constraints" columns of Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct TunerInputs {
    /// Checkpoint size `m`.
    pub checkpoint_size: ByteSize,
    /// Iteration time `t`.
    pub iter_time: SimDuration,
    /// Storage write bandwidth `T_S`.
    pub storage_bandwidth: Bandwidth,
    /// Total storage budget `S` for checkpoints.
    pub storage_budget: ByteSize,
    /// Acceptable slowdown `q ≥ 1` (e.g., 1.03 for 3% overhead).
    pub max_slowdown: f64,
}

/// The tuner's recommendation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TunerRecommendation {
    /// Chosen number of concurrent checkpoints `N*`.
    pub concurrent: usize,
    /// Minimum checkpoint interval `f*` (iterations).
    pub interval: u64,
    /// The per-checkpoint write time `Tw(N*)`.
    pub write_time: SimDuration,
}

/// The §3.4 configuration tool.
#[derive(Debug, Clone, PartialEq)]
pub struct Tuner {
    inputs: TunerInputs,
}

impl Tuner {
    /// Creates a tuner.
    ///
    /// # Errors
    ///
    /// Returns [`PccheckError::InvalidConfig`] if `q < 1`, the checkpoint
    /// is empty, or the storage budget cannot hold two checkpoints.
    pub fn new(inputs: TunerInputs) -> Result<Self, PccheckError> {
        if inputs.max_slowdown < 1.0 || !inputs.max_slowdown.is_finite() {
            return Err(PccheckError::InvalidConfig(format!(
                "slowdown budget q must be >= 1, got {}",
                inputs.max_slowdown
            )));
        }
        if inputs.checkpoint_size.is_zero() {
            return Err(PccheckError::InvalidConfig(
                "checkpoint size must be nonzero".into(),
            ));
        }
        if inputs.storage_budget < inputs.checkpoint_size * 2 {
            return Err(PccheckError::InvalidConfig(
                "storage budget must hold at least 2 checkpoints (N=1)".into(),
            ));
        }
        if inputs.iter_time.is_zero() {
            return Err(PccheckError::InvalidConfig(
                "iteration time must be nonzero".into(),
            ));
        }
        Ok(Tuner { inputs })
    }

    /// Maximum `N` the storage budget allows: `N ≤ S/m − 1`.
    pub fn max_concurrent(&self) -> usize {
        let slots = self.inputs.storage_budget.as_u64() / self.inputs.checkpoint_size.as_u64();
        (slots.saturating_sub(1)) as usize
    }

    /// Recommends `N*` and `f*` given a measured `Tw(N)` (the empirical
    /// profiling round of §3.4).
    ///
    /// Picks the `N` in `[1, S/m − 1]` minimizing `Tw(N)/N`, then applies
    /// equation (3).
    pub fn recommend_with(
        &self,
        mut write_time: impl FnMut(usize) -> SimDuration,
    ) -> TunerRecommendation {
        let max_n = self.max_concurrent().max(1);
        let mut best_n = 1;
        let mut best_tw = write_time(1);
        let mut best_ratio = best_tw.as_secs_f64();
        for n in 2..=max_n {
            let tw = write_time(n);
            let ratio = tw.as_secs_f64() / n as f64;
            if ratio < best_ratio {
                best_ratio = ratio;
                best_n = n;
                best_tw = tw;
            }
        }
        TunerRecommendation {
            concurrent: best_n,
            interval: self.min_interval(best_n, best_tw),
            write_time: best_tw,
        }
    }

    /// Equation (3): `f* = ceil(Tw / (N·q·t))`, at least 1 — combined with
    /// the sustainability floor `f ≥ m / (t·T_S)`: no matter how many
    /// checkpoints run concurrently, the device must absorb `m` bytes per
    /// interval, so demand beyond the storage bandwidth stalls training
    /// regardless of `N`. (The paper's equation (2) presumes Tw was
    /// measured at the final steady state; making the floor explicit keeps
    /// the recommendation safe even with a noisy Tw estimate.)
    pub(crate) fn min_interval(&self, n: usize, write_time: SimDuration) -> u64 {
        let q = self.inputs.max_slowdown;
        let t = self.inputs.iter_time.as_secs_f64();
        let f = write_time.as_secs_f64() / (n as f64 * q * t);
        let sustain = self.inputs.checkpoint_size.as_u64() as f64
            / (t * self.inputs.storage_bandwidth.as_bytes_per_sec() * q);
        (f.max(sustain).ceil() as u64).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// OPT-1.3B on the GCP SSD testbed.
    fn opt13b_inputs() -> TunerInputs {
        TunerInputs {
            checkpoint_size: ByteSize::from_gb(16.2),
            iter_time: SimDuration::from_secs(2),
            storage_bandwidth: Bandwidth::from_gb_per_sec(16.0 / 37.0),
            storage_budget: ByteSize::from_gb(100.0),
            max_slowdown: 1.05,
        }
    }

    /// `Tw(N)` when `N` checkpoints share the storage bandwidth equally.
    fn shared_write_time(inputs: &TunerInputs, n: usize) -> SimDuration {
        let share = inputs.storage_bandwidth.as_bytes_per_sec() / n as f64;
        Bandwidth::from_bytes_per_sec(share).transfer_time(inputs.checkpoint_size)
    }

    #[test]
    fn max_concurrent_respects_storage_budget() {
        let t = Tuner::new(opt13b_inputs()).unwrap();
        // floor(100/16.2) - 1 = 6 - 1 = 5.
        assert_eq!(t.max_concurrent(), 5);
    }

    #[test]
    fn equation_3_interval() {
        let t = Tuner::new(opt13b_inputs()).unwrap();
        // f* = ceil(Tw / (N q t)); N=2, Tw(2) ≈ 75 s, q=1.05, t=2:
        // 75 / (2*1.05*2) ≈ 17.8 → 18.
        let f = t.min_interval(2, shared_write_time(&opt13b_inputs(), 2));
        assert!((17..=19).contains(&f), "f*={f}");
    }

    #[test]
    fn measured_tw_overrides_model() {
        let t = Tuner::new(opt13b_inputs()).unwrap();
        // Pretend measurements show Tw flat in N (infinitely parallel
        // device): then the largest N wins.
        let rec = t.recommend_with(|_| SimDuration::from_secs(10));
        assert_eq!(rec.concurrent, t.max_concurrent());
        // And with Tw growing superlinearly, N=1 wins.
        let rec = t.recommend_with(|n| SimDuration::from_secs(10 * (n as u64).pow(2)));
        assert_eq!(rec.concurrent, 1);
    }

    #[test]
    fn tighter_budget_means_larger_interval() {
        let mut inputs = opt13b_inputs();
        inputs.max_slowdown = 1.01;
        let tw = |n| shared_write_time(&opt13b_inputs(), n);
        let strict = Tuner::new(inputs).unwrap().recommend_with(tw);
        let loose = Tuner::new(opt13b_inputs()).unwrap().recommend_with(tw);
        assert!(strict.interval >= loose.interval);
    }

    #[test]
    fn invalid_inputs_rejected() {
        let mut i = opt13b_inputs();
        i.max_slowdown = 0.9;
        assert!(Tuner::new(i).is_err());
        let mut i = opt13b_inputs();
        i.checkpoint_size = ByteSize::ZERO;
        assert!(Tuner::new(i).is_err());
        let mut i = opt13b_inputs();
        i.storage_budget = ByteSize::from_gb(20.0); // < 2m
        assert!(Tuner::new(i).is_err());
        let mut i = opt13b_inputs();
        i.iter_time = SimDuration::ZERO;
        assert!(Tuner::new(i).is_err());
    }

    #[test]
    fn paper_guidance_modest_n_for_vgg16() {
        // §5.2.3 / §5.4.1: PCcheck picks a modest N (2–4) because storage
        // saturates. Model Tw with a contention penalty and check the pick.
        let inputs = TunerInputs {
            checkpoint_size: ByteSize::from_gb(1.1),
            iter_time: SimDuration::from_millis(60),
            storage_bandwidth: Bandwidth::from_gb_per_sec(16.0 / 37.0),
            storage_budget: ByteSize::from_gb(50.0),
            max_slowdown: 1.05,
        };
        let t = Tuner::new(inputs.clone()).unwrap();
        // Measured-style Tw: linear sharing plus 15% per-extra-checkpoint
        // interference → diminishing returns beyond a few.
        let rec = t.recommend_with(|n| {
            let base = shared_write_time(&inputs, n).as_secs_f64();
            SimDuration::from_secs_f64(base * (1.0 + 0.15 * (n as f64 - 1.0)))
        });
        assert!(
            (1..=8).contains(&rec.concurrent),
            "modest N expected, got {}",
            rec.concurrent
        );
    }
}
