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
//!
//! Beyond the static tool, this module hosts the online controller,
//! [`PersistController`], which closes the loop over the *persist path
//! itself* — writer count, chunk codec, delta policy, chunk sizing, and
//! tier placement — from live telemetry snapshots.

use pccheck_telemetry::TelemetrySnapshot;
use pccheck_util::{Bandwidth, ByteSize, SimDuration};

use crate::error::PccheckError;
use crate::pipeline::{DeltaPolicy, PersistPipeline};

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
    /// GPU→CPU PCIe bandwidth `T_G`.
    pub pcie_bandwidth: Bandwidth,
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
    /// The modeled per-checkpoint write time at `N*`.
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

    /// The inputs.
    pub fn inputs(&self) -> &TunerInputs {
        &self.inputs
    }

    /// Maximum `N` the storage budget allows: `N ≤ S/m − 1`.
    pub fn max_concurrent(&self) -> usize {
        let slots = self.inputs.storage_budget.as_u64() / self.inputs.checkpoint_size.as_u64();
        (slots.saturating_sub(1)) as usize
    }

    /// Models the end-to-end write time of one checkpoint when `n`
    /// checkpoints contend: the GPU→DRAM copy at full PCIe bandwidth plus
    /// the DRAM→storage phase at `T_S / n` (processor sharing). This is the
    /// analytic stand-in for the tool's empirical profiling round; the
    /// concrete engine's measured times can be substituted via
    /// [`recommend_with`](Self::recommend_with).
    pub fn modeled_write_time(&self, n: usize) -> SimDuration {
        let m = self.inputs.checkpoint_size;
        let copy = self.inputs.pcie_bandwidth.transfer_time(m);
        let persist = self.inputs.storage_bandwidth.shared_by(n).transfer_time(m);
        // Pipelining overlaps copy and persist; the slower phase dominates,
        // plus one chunk's worth of lead-in which we fold into the max.
        copy.max(persist)
    }

    /// Recommends `N*` and `f*` using the analytic `Tw(N)` model.
    pub fn recommend(&self) -> TunerRecommendation {
        self.recommend_with(|n| self.modeled_write_time(n))
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
    pub fn min_interval(&self, n: usize, write_time: SimDuration) -> u64 {
        let q = self.inputs.max_slowdown;
        let t = self.inputs.iter_time.as_secs_f64();
        let f = write_time.as_secs_f64() / (n as f64 * q * t);
        let sustain = self.inputs.checkpoint_size.as_u64() as f64
            / (t * self.inputs.storage_bandwidth.as_bytes_per_sec() * q);
        (f.max(sustain).ceil() as u64).max(1)
    }

    /// The runtime model: `runtime_2` for `A` iterations with interval `f`
    /// and `N` concurrent checkpoints (the pre-simplification formula).
    pub fn modeled_runtime(
        &self,
        iterations: u64,
        interval: u64,
        n: usize,
        write_time: SimDuration,
    ) -> SimDuration {
        let t = self.inputs.iter_time;
        let ft = t * interval;
        let nft = ft * n as u64;
        let rounds = (iterations as f64 / (interval as f64 * n as f64) - 1.0).max(0.0);
        ft + write_time.max(nft).mul_f64(rounds) + write_time
    }

    /// Overhead of the modeled runtime vs no checkpointing.
    pub fn modeled_overhead(
        &self,
        iterations: u64,
        interval: u64,
        n: usize,
        write_time: SimDuration,
    ) -> f64 {
        let with = self.modeled_runtime(iterations, interval, n, write_time);
        let without = self.inputs.iter_time * iterations;
        with.as_secs_f64() / without.as_secs_f64()
    }
}

/// Knob bounds and hysteresis thresholds for [`PersistController`].
///
/// Every decision is *evidence-gated* (a signal must point the same way
/// for [`evidence`](ControllerConfig::evidence) consecutive intervals),
/// *step-bounded* (writer count moves by ±1, chain bounds by ±1), and
/// *cooled down* ([`cooldown`](ControllerConfig::cooldown) intervals must
/// pass before the same knob moves again). The three gates together bound
/// the controller's worst-case oscillation: a knob can flip at most once
/// per `evidence + cooldown` intervals, and each flip moves one step, so
/// a decision that turns out wrong is undone at the same bounded rate it
/// was made.
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerConfig {
    /// Lower bound on the writer-thread count.
    pub min_writers: usize,
    /// Upper bound on the writer-thread count.
    pub max_writers: usize,
    /// Consecutive intervals a signal must persist before the controller
    /// acts on it.
    pub evidence: u32,
    /// Intervals a knob rests after moving before it may move again.
    pub cooldown: u32,
    /// Mean per-checkpoint training stall (nanoseconds) above which the
    /// persist path is too slow: scale writers up (if the device queue
    /// has headroom) or spill tiers (if it does not).
    pub stall_hi_nanos: u64,
    /// Mean stall below which the persist path has slack: scale writers
    /// down to return cores to training.
    pub stall_lo_nanos: u64,
    /// Device submission-queue depth at or above which the device — not
    /// writer parallelism — is the bottleneck.
    pub device_queue_saturated: u64,
    /// Physical/logical ratio (permille) at or above which the codec is
    /// not earning its CPU: candidates for disabling. 1000 = stored at
    /// full size.
    pub codec_off_permille: u64,
    /// Ratio below which a probe interval confirms the codec should stay
    /// enabled. Kept strictly below `codec_off_permille` so the two
    /// thresholds form a hysteresis band.
    pub codec_on_permille: u64,
    /// Intervals to wait with the codec off before probing it again
    /// (payload compressibility changes across training phases).
    pub codec_probe_interval: u32,
    /// Dirty-ratio (permille) below which sparse updates justify longer
    /// dedup-base chains.
    pub delta_dirty_lo_permille: u64,
    /// Dirty-ratio above which chains shorten (dense updates leave few
    /// clean chunks to reference, and long chains pin more slots).
    pub delta_dirty_hi_permille: u64,
    /// Bounds on [`DeltaPolicy::max_chain`].
    pub min_chain: u32,
    /// See [`min_chain`](ControllerConfig::min_chain).
    pub max_chain: u32,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            min_writers: 1,
            max_writers: 8,
            evidence: 2,
            cooldown: 2,
            stall_hi_nanos: 2_000_000,
            stall_lo_nanos: 200_000,
            device_queue_saturated: 16,
            codec_off_permille: 980,
            codec_on_permille: 900,
            codec_probe_interval: 8,
            delta_dirty_lo_permille: 150,
            delta_dirty_hi_permille: 600,
            min_chain: 1,
            max_chain: 15,
        }
    }
}

/// One interval's worth of persist-path signals, distilled from a
/// [`TelemetrySnapshot`]. Counter fields are *cumulative* — the
/// controller differences consecutive snapshots itself, so callers just
/// pass whatever the registry currently reads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControllerSignals {
    /// Cumulative training-stall nanoseconds (one sample per checkpoint).
    pub stall_sum_nanos: u64,
    /// Cumulative stall sample count (= checkpoints requested).
    pub stall_count: u64,
    /// Cumulative per-chunk device-write nanoseconds.
    pub write_sum_nanos: u64,
    /// Cumulative chunk-write count.
    pub write_count: u64,
    /// Current device submission-queue depth (max across tracked devices).
    pub device_queue_depth: u64,
    /// Current free-slot queue depth.
    pub queue_depth: u64,
    /// Cumulative bytes moved by the DRAM→device persist phase.
    pub persist_chunk_bytes: u64,
    /// Cumulative bytes the chunk codec avoided persisting.
    pub codec_bytes_saved: u64,
    /// Cumulative chunks persisted as dedup references.
    pub dedup_chunks: u64,
    /// Last framed commit's physical/logical ratio, permille (0 = no
    /// framed commit observed yet).
    pub compression_ratio_permille: u64,
    /// Last framed snapshot's dirty ratio, permille (0 = none observed).
    pub dirty_ratio_permille: u64,
}

impl ControllerSignals {
    /// Distills controller inputs from a full telemetry snapshot.
    pub fn from_snapshot(s: &TelemetrySnapshot) -> Self {
        ControllerSignals {
            stall_sum_nanos: s.stall.sum_nanos,
            stall_count: s.stall.count,
            write_sum_nanos: s.write_stage.sum_nanos,
            write_count: s.write_stage.count,
            device_queue_depth: s.device_queue_depth.iter().copied().max().unwrap_or(0),
            queue_depth: s.queue_depth,
            persist_chunk_bytes: s.persist_chunk_bytes,
            codec_bytes_saved: s.codec_bytes_saved,
            dedup_chunks: s.dedup_chunks,
            compression_ratio_permille: s.compression_ratio_permille,
            dirty_ratio_permille: s.dirty_ratio_permille,
        }
    }
}

/// Where checkpoint payloads should land.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierHint {
    /// Keep payloads on the fast tier (the default).
    Fast,
    /// The fast tier is saturated even at the writer ceiling: spill new
    /// checkpoints to the capacity tier.
    Capacity,
}

/// A knob movement the controller made on one tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControllerAction {
    /// Writer count raised to the contained value.
    WritersUp(usize),
    /// Writer count lowered to the contained value.
    WritersDown(usize),
    /// Chunk codec disabled (not earning its CPU).
    CodecOff,
    /// Chunk codec re-enabled for a probe window.
    CodecProbe,
    /// Delta chain bound raised to the contained value.
    ChainLengthen(u32),
    /// Delta chain bound lowered to the contained value.
    ChainShorten(u32),
    /// Tier hint flipped to [`TierHint::Capacity`].
    TierSpill,
    /// Tier hint restored to [`TierHint::Fast`].
    TierRestore,
}

/// The settings in force after a [`PersistController::tick`], plus the
/// actions that tick took.
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerDecision {
    /// Writer threads the pipeline should run.
    pub writers: usize,
    /// Whether the chunk codec should be enabled.
    pub codec_enabled: bool,
    /// Delta policy in force.
    pub delta_policy: DeltaPolicy,
    /// Advisory chunk size for the *next* engine restart (staging pools
    /// cannot be resized live): `Some` when the interval was IOPS-bound
    /// by many small chunks on a saturated device.
    pub chunk_size_hint: Option<ByteSize>,
    /// Advisory tier placement.
    pub tier_hint: TierHint,
    /// Knobs this tick moved (empty = steady state).
    pub actions: Vec<ControllerAction>,
}

/// The adaptive persist-path controller: a feedback loop that retunes
/// writer count, codec enablement, delta policy, and (advisorily) chunk
/// size and tier placement from live [`TelemetrySnapshot`] deltas.
///
/// Where [`Tuner`] answers *when* to checkpoint (equation (3)), this
/// controller answers *how*: each interval it differences the
/// cumulative telemetry counters, extracts per-interval means, and nudges
/// one step per knob at most — see [`ControllerConfig`] for the
/// hysteresis argument. All decisions are deterministic functions of the
/// observed signal sequence, so a run can be replayed from its telemetry
/// log.
///
/// Call [`tick`](Self::tick) with distilled signals (pure, for tests and
/// simulation) or [`steer`](Self::steer) with a snapshot and a pipeline
/// to also apply the writer/codec settings.
#[derive(Debug, Clone)]
pub struct PersistController {
    cfg: ControllerConfig,
    writers: usize,
    codec: bool,
    delta: DeltaPolicy,
    tier: TierHint,
    last: Option<ControllerSignals>,
    up_evidence: u32,
    down_evidence: u32,
    codec_off_evidence: u32,
    spill_evidence: u32,
    writer_cooldown: u32,
    codec_cooldown: u32,
    delta_cooldown: u32,
    probe_countdown: u32,
    ticks: u64,
    actions_taken: u64,
}

impl PersistController {
    /// Chunks-per-interval above which (on a saturated device) the
    /// controller recommends a larger chunk size.
    const IOPS_BOUND_CHUNKS: u64 = 64;

    /// Creates a controller starting from `writers` threads and the given
    /// codec state.
    ///
    /// # Panics
    ///
    /// Panics if the config bounds are inverted or `writers` lies outside
    /// them.
    pub fn new(cfg: ControllerConfig, writers: usize, codec: bool) -> Self {
        assert!(
            cfg.min_writers >= 1 && cfg.min_writers <= cfg.max_writers,
            "writer bounds must satisfy 1 <= min <= max"
        );
        assert!(
            (cfg.min_writers..=cfg.max_writers).contains(&writers),
            "initial writers {writers} outside [{}, {}]",
            cfg.min_writers,
            cfg.max_writers
        );
        assert!(
            cfg.min_chain >= 1 && cfg.min_chain <= cfg.max_chain,
            "chain bounds must satisfy 1 <= min <= max"
        );
        assert!(
            cfg.codec_on_permille < cfg.codec_off_permille,
            "codec thresholds must form a hysteresis band"
        );
        let delta = DeltaPolicy {
            max_chain: DeltaPolicy::default()
                .max_chain
                .clamp(cfg.min_chain, cfg.max_chain),
        };
        PersistController {
            cfg,
            writers,
            codec,
            delta,
            tier: TierHint::Fast,
            last: None,
            up_evidence: 0,
            down_evidence: 0,
            codec_off_evidence: 0,
            spill_evidence: 0,
            writer_cooldown: 0,
            codec_cooldown: 0,
            delta_cooldown: 0,
            probe_countdown: 0,
            ticks: 0,
            actions_taken: 0,
        }
    }

    /// The writer count currently in force.
    pub fn writers(&self) -> usize {
        self.writers
    }

    /// Whether the codec is currently enabled.
    pub fn codec_enabled(&self) -> bool {
        self.codec
    }

    /// The delta policy currently in force.
    pub fn delta_policy(&self) -> DeltaPolicy {
        self.delta
    }

    /// The tier hint currently in force.
    pub fn tier_hint(&self) -> TierHint {
        self.tier
    }

    /// Intervals observed so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Total knob movements across all ticks.
    pub fn actions_taken(&self) -> u64 {
        self.actions_taken
    }

    /// Observes one interval's signals and returns the settings now in
    /// force. The first tick only baselines the cumulative counters.
    pub fn tick(&mut self, signals: ControllerSignals) -> ControllerDecision {
        self.ticks += 1;
        let mut actions = Vec::new();
        let Some(last) = self.last.replace(signals) else {
            return self.decision(actions, None);
        };

        // Per-interval deltas of the cumulative counters. `saturating_sub`
        // tolerates a recorder reset mid-run (the interval reads as empty).
        let stall_sum = signals.stall_sum_nanos.saturating_sub(last.stall_sum_nanos);
        let checkpoints = signals.stall_count.saturating_sub(last.stall_count);
        let chunks = signals.write_count.saturating_sub(last.write_count);
        let chunk_bytes = signals
            .persist_chunk_bytes
            .saturating_sub(last.persist_chunk_bytes);
        let saved = signals
            .codec_bytes_saved
            .saturating_sub(last.codec_bytes_saved);

        self.writer_cooldown = self.writer_cooldown.saturating_sub(1);
        self.codec_cooldown = self.codec_cooldown.saturating_sub(1);
        self.delta_cooldown = self.delta_cooldown.saturating_sub(1);

        let stall_mean = stall_sum.checked_div(checkpoints).unwrap_or(0);
        let saturated = signals.device_queue_depth >= self.cfg.device_queue_saturated;

        // --- Writer count: more writers shorten Tw only while the device
        // queue has headroom; past saturation they just contend.
        if checkpoints > 0 {
            if stall_mean > self.cfg.stall_hi_nanos && !saturated {
                self.up_evidence += 1;
                self.down_evidence = 0;
            } else if stall_mean < self.cfg.stall_lo_nanos {
                self.down_evidence += 1;
                self.up_evidence = 0;
            } else {
                self.up_evidence = 0;
                self.down_evidence = 0;
            }
            if self.writer_cooldown == 0 {
                if self.up_evidence >= self.cfg.evidence && self.writers < self.cfg.max_writers {
                    self.writers += 1;
                    self.up_evidence = 0;
                    self.writer_cooldown = self.cfg.cooldown;
                    actions.push(ControllerAction::WritersUp(self.writers));
                } else if self.down_evidence >= self.cfg.evidence
                    && self.writers > self.cfg.min_writers
                {
                    self.writers -= 1;
                    self.down_evidence = 0;
                    self.writer_cooldown = self.cfg.cooldown;
                    actions.push(ControllerAction::WritersDown(self.writers));
                }
            }
        }

        // --- Codec: disable when framed commits stopped paying (ratio at
        // or above the off threshold, or checkpoints flowed with zero
        // savings); probe periodically while off. The on/off thresholds
        // form a band, so a ratio wandering between them never flaps.
        if self.codec {
            let ratio = signals.compression_ratio_permille;
            let earning = saved > 0 && (ratio == 0 || ratio < self.cfg.codec_off_permille);
            if checkpoints > 0 && !earning {
                self.codec_off_evidence += 1;
            } else if saved > 0 && (ratio == 0 || ratio < self.cfg.codec_on_permille) {
                self.codec_off_evidence = 0;
            }
            if self.codec_cooldown == 0 && self.codec_off_evidence >= self.cfg.evidence {
                self.codec = false;
                self.codec_off_evidence = 0;
                self.codec_cooldown = self.cfg.cooldown;
                self.probe_countdown = self.cfg.codec_probe_interval;
                actions.push(ControllerAction::CodecOff);
            }
        } else if self.probe_countdown > 0 {
            self.probe_countdown -= 1;
            if self.probe_countdown == 0 {
                // Probe: one evidence window with the codec back on. If it
                // still fails to earn its keep the off-evidence path above
                // disables it again (and schedules the next probe).
                self.codec = true;
                self.codec_off_evidence = 0;
                self.codec_cooldown = 0;
                actions.push(ControllerAction::CodecProbe);
            }
        }

        // --- Chain policy: sparse updates amortize the chain's pinned
        // slots over more saved bytes, dense updates don't.
        if self.delta_cooldown == 0 && signals.dirty_ratio_permille > 0 && checkpoints > 0 {
            if signals.dirty_ratio_permille < self.cfg.delta_dirty_lo_permille
                && self.delta.max_chain < self.cfg.max_chain
            {
                self.delta.max_chain += 1;
                self.delta_cooldown = self.cfg.cooldown;
                actions.push(ControllerAction::ChainLengthen(self.delta.max_chain));
            } else if signals.dirty_ratio_permille > self.cfg.delta_dirty_hi_permille
                && self.delta.max_chain > self.cfg.min_chain
            {
                self.delta.max_chain -= 1;
                self.delta_cooldown = self.cfg.cooldown;
                actions.push(ControllerAction::ChainShorten(self.delta.max_chain));
            }
        }

        // --- Tier placement: stalls at the writer ceiling with a
        // saturated device mean the fast tier itself is the bottleneck.
        if checkpoints > 0 {
            if stall_mean > self.cfg.stall_hi_nanos
                && saturated
                && self.writers >= self.cfg.max_writers
            {
                self.spill_evidence += 1;
            } else {
                self.spill_evidence = 0;
                if self.tier == TierHint::Capacity
                    && signals.device_queue_depth < self.cfg.device_queue_saturated / 2
                {
                    self.tier = TierHint::Fast;
                    actions.push(ControllerAction::TierRestore);
                }
            }
            if self.tier == TierHint::Fast && self.spill_evidence >= self.cfg.evidence {
                self.tier = TierHint::Capacity;
                self.spill_evidence = 0;
                actions.push(ControllerAction::TierSpill);
            }
        }

        // --- Chunk-size hint: many tiny chunks on a saturated device are
        // IOPS-bound; doubling the chunk amortizes per-I/O overhead.
        let chunk_hint = if saturated && chunks > Self::IOPS_BOUND_CHUNKS && chunk_bytes > 0 {
            Some(ByteSize::from_bytes((chunk_bytes / chunks).max(1) * 2))
        } else {
            None
        };

        self.actions_taken += actions.len() as u64;
        self.decision(actions, chunk_hint)
    }

    /// Distills `snapshot`, runs [`tick`](Self::tick), and applies the
    /// writer count and codec enablement to `pipeline`. The delta policy
    /// and hints are returned for the caller to thread into its next
    /// checkpoint calls.
    pub fn steer(
        &mut self,
        snapshot: &TelemetrySnapshot,
        pipeline: &PersistPipeline,
    ) -> ControllerDecision {
        let decision = self.tick(ControllerSignals::from_snapshot(snapshot));
        pipeline.set_writers(decision.writers);
        pipeline.set_codec_enabled(decision.codec_enabled);
        decision
    }

    fn decision(
        &self,
        actions: Vec<ControllerAction>,
        chunk_size_hint: Option<ByteSize>,
    ) -> ControllerDecision {
        ControllerDecision {
            writers: self.writers,
            codec_enabled: self.codec,
            delta_policy: self.delta,
            chunk_size_hint,
            tier_hint: self.tier,
            actions,
        }
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
            pcie_bandwidth: Bandwidth::from_gb_per_sec(12.0),
            storage_budget: ByteSize::from_gb(100.0),
            max_slowdown: 1.05,
        }
    }

    #[test]
    fn max_concurrent_respects_storage_budget() {
        let t = Tuner::new(opt13b_inputs()).unwrap();
        // floor(100/16.2) - 1 = 6 - 1 = 5.
        assert_eq!(t.max_concurrent(), 5);
    }

    #[test]
    fn write_time_grows_with_contention() {
        let t = Tuner::new(opt13b_inputs()).unwrap();
        let tw1 = t.modeled_write_time(1);
        let tw4 = t.modeled_write_time(4);
        assert!(tw4 > tw1, "shared storage bandwidth lengthens Tw");
        // Single checkpoint: 16.2 GB at 0.4324 GB/s ≈ 37.5 s.
        assert!((tw1.as_secs_f64() - 37.46).abs() < 0.5);
    }

    #[test]
    fn equation_3_interval() {
        let t = Tuner::new(opt13b_inputs()).unwrap();
        // f* = ceil(Tw / (N q t)); N=2, Tw(2) ≈ 75 s, q=1.05, t=2:
        // 75 / (2*1.05*2) ≈ 17.8 → 18.
        let tw2 = t.modeled_write_time(2);
        let f = t.min_interval(2, tw2);
        assert!((17..=19).contains(&f), "f*={f}");
    }

    #[test]
    fn recommendation_is_consistent() {
        let t = Tuner::new(opt13b_inputs()).unwrap();
        let rec = t.recommend();
        assert!(rec.concurrent >= 1 && rec.concurrent <= t.max_concurrent());
        assert!(rec.interval >= 1);
        // At the recommended configuration, the modeled overhead over a
        // long run stays within ~q (the dropped f·t term allows slack).
        let over = t.modeled_overhead(100_000, rec.interval, rec.concurrent, rec.write_time);
        assert!(
            over <= 1.05 + 0.01,
            "overhead {over} exceeds budget at f*={}, N*={}",
            rec.interval,
            rec.concurrent
        );
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
        let strict = Tuner::new(inputs).unwrap().recommend();
        let loose = Tuner::new(opt13b_inputs()).unwrap().recommend();
        assert!(strict.interval >= loose.interval);
    }

    #[test]
    fn runtime_model_reduces_to_ideal_without_stalls() {
        let t = Tuner::new(opt13b_inputs()).unwrap();
        // Tiny write time: runtime ≈ A·t plus edge terms.
        let rt = t.modeled_runtime(1000, 10, 2, SimDuration::from_millis(1));
        let ideal = (SimDuration::from_secs(2) * 1000).as_secs_f64();
        assert!(rt.as_secs_f64() <= ideal * 1.01 + 25.0);
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

    /// Signals for an interval of `checkpoints` checkpoints at a mean
    /// stall of `stall_nanos` each, with the cumulative counters advanced
    /// from `prev`.
    fn advance(
        prev: &ControllerSignals,
        checkpoints: u64,
        stall_nanos: u64,
        queue: u64,
    ) -> ControllerSignals {
        ControllerSignals {
            stall_sum_nanos: prev.stall_sum_nanos + checkpoints * stall_nanos,
            stall_count: prev.stall_count + checkpoints,
            write_sum_nanos: prev.write_sum_nanos + checkpoints * 1000,
            write_count: prev.write_count + checkpoints * 4,
            device_queue_depth: queue,
            queue_depth: 1,
            persist_chunk_bytes: prev.persist_chunk_bytes + checkpoints * 4096,
            codec_bytes_saved: prev.codec_bytes_saved,
            dedup_chunks: prev.dedup_chunks,
            compression_ratio_permille: prev.compression_ratio_permille,
            dirty_ratio_permille: prev.dirty_ratio_permille,
        }
    }

    #[test]
    fn controller_scales_writers_up_under_stall_with_queue_headroom() {
        let mut c = PersistController::new(ControllerConfig::default(), 2, false);
        let mut s = ControllerSignals::default();
        c.tick(s); // baseline
        let mut ups = 0;
        for _ in 0..12 {
            s = advance(&s, 4, 10_000_000, 2); // 10 ms stalls, shallow queue
            for a in c.tick(s).actions {
                if matches!(a, ControllerAction::WritersUp(_)) {
                    ups += 1;
                }
            }
        }
        assert!(c.writers() > 2, "sustained stall must add writers");
        assert!(ups >= 2);
        // Step-bounded: 12 intervals with evidence=2, cooldown=2 allow at
        // most one move per 2 intervals.
        assert!(c.writers() <= 2 + 6, "writers {} moved too fast", c.writers());
        assert!(c.writers() <= 8, "bounded by max_writers");
    }

    #[test]
    fn controller_does_not_add_writers_into_a_saturated_device() {
        let mut c = PersistController::new(ControllerConfig::default(), 2, false);
        let mut s = ControllerSignals::default();
        c.tick(s);
        for _ in 0..10 {
            s = advance(&s, 4, 10_000_000, 32); // stalled AND saturated
            c.tick(s);
        }
        assert_eq!(c.writers(), 2, "queue saturation means writers won't help");
    }

    #[test]
    fn controller_returns_cores_when_stall_is_negligible() {
        let mut c = PersistController::new(ControllerConfig::default(), 4, false);
        let mut s = ControllerSignals::default();
        c.tick(s);
        for _ in 0..12 {
            s = advance(&s, 4, 10_000, 1); // 10 µs stalls
            c.tick(s);
        }
        assert!(c.writers() < 4, "idle persist path must shed writers");
        assert!(c.writers() >= 1, "bounded by min_writers");
    }

    #[test]
    fn controller_jitter_does_not_flap_writers() {
        // Stalls alternating either side of the band's interior never
        // accumulate the consecutive evidence an action needs.
        let mut c = PersistController::new(ControllerConfig::default(), 3, false);
        let mut s = ControllerSignals::default();
        c.tick(s);
        for i in 0..20 {
            let stall = if i % 2 == 0 { 3_000_000 } else { 500_000 };
            s = advance(&s, 4, stall, 1);
            c.tick(s);
        }
        assert_eq!(c.writers(), 3, "jitter must not move the knob");
        assert_eq!(c.actions_taken(), 0);
    }

    #[test]
    fn controller_disables_unearning_codec_and_probes_later() {
        let cfg = ControllerConfig {
            codec_probe_interval: 3,
            ..ControllerConfig::default()
        };
        let mut c = PersistController::new(cfg, 2, true);
        let mut s = ControllerSignals {
            compression_ratio_permille: 995, // storing at ~full size
            ..ControllerSignals::default()
        };
        c.tick(s);
        let mut off_at = None;
        for i in 0..3 {
            s = advance(&s, 4, 500_000, 1);
            let d = c.tick(s);
            if d.actions.contains(&ControllerAction::CodecOff) {
                off_at = Some(i);
            }
        }
        assert!(off_at.is_some(), "incompressible payloads must disable codec");
        assert!(!c.codec_enabled());
        // After the probe interval it re-arms for one evidence window; the
        // payloads are still incompressible, so the probe fails and the
        // codec goes back off (scheduling the next probe).
        let mut probed = 0;
        let mut re_off = 0;
        for _ in 0..16 {
            s = advance(&s, 4, 500_000, 1);
            for a in c.tick(s).actions {
                match a {
                    ControllerAction::CodecProbe => {
                        probed += 1;
                        assert!(c.codec_enabled(), "probe re-enables the codec");
                    }
                    ControllerAction::CodecOff => re_off += 1,
                    _ => {}
                }
            }
        }
        assert!(probed >= 2, "codec must keep probing after backoffs, got {probed}");
        assert!(re_off >= 2, "failed probes must disable again, got {re_off}");
    }

    #[test]
    fn controller_keeps_earning_codec_enabled() {
        let mut c = PersistController::new(ControllerConfig::default(), 2, true);
        let mut s = ControllerSignals {
            compression_ratio_permille: 400, // 2.5x reduction
            ..ControllerSignals::default()
        };
        c.tick(s);
        for _ in 0..10 {
            s = advance(&s, 4, 500_000, 1);
            s.codec_bytes_saved += 4 * 2400; // framed commits keep saving
            c.tick(s);
        }
        assert!(c.codec_enabled(), "an earning codec must stay on");
    }

    #[test]
    fn controller_adapts_delta_chain_to_dirty_ratio() {
        let mut c = PersistController::new(ControllerConfig::default(), 2, false);
        let base = c.delta_policy().max_chain;
        let mut s = ControllerSignals {
            dirty_ratio_permille: 50, // very sparse updates
            ..ControllerSignals::default()
        };
        c.tick(s);
        for _ in 0..8 {
            s = advance(&s, 4, 500_000, 1);
            c.tick(s);
        }
        assert!(c.delta_policy().max_chain > base, "sparse updates lengthen chains");
        // Now the workload densifies: chains shorten again.
        s.dirty_ratio_permille = 900;
        for _ in 0..20 {
            s = advance(&s, 4, 500_000, 1);
            c.tick(s);
        }
        assert!(
            c.delta_policy().max_chain < ControllerConfig::default().max_chain,
            "dense updates shorten chains"
        );
        assert!(c.delta_policy().max_chain >= 1);
    }

    #[test]
    fn controller_spills_tier_only_at_the_writer_ceiling() {
        let cfg = ControllerConfig {
            max_writers: 2,
            ..ControllerConfig::default()
        };
        let mut c = PersistController::new(cfg, 2, false);
        let mut s = ControllerSignals::default();
        c.tick(s);
        assert_eq!(c.tier_hint(), TierHint::Fast);
        for _ in 0..4 {
            s = advance(&s, 4, 10_000_000, 32); // stalled, saturated, at max p
            c.tick(s);
        }
        assert_eq!(c.tier_hint(), TierHint::Capacity, "must spill");
        // Pressure clears: the hint returns to the fast tier.
        for _ in 0..4 {
            s = advance(&s, 4, 100_000, 2);
            c.tick(s);
        }
        assert_eq!(c.tier_hint(), TierHint::Fast);
    }

    #[test]
    fn controller_recommends_larger_chunks_when_iops_bound() {
        let mut c = PersistController::new(ControllerConfig::default(), 2, false);
        let mut s = ControllerSignals::default();
        c.tick(s);
        // 256 chunks of 64 B in one interval on a saturated device.
        s.write_count += 256;
        s.write_sum_nanos += 256_000;
        s.persist_chunk_bytes += 256 * 64;
        s.stall_count += 4;
        s.stall_sum_nanos += 4 * 500_000;
        s.device_queue_depth = 32;
        let d = c.tick(s);
        assert_eq!(d.chunk_size_hint, Some(ByteSize::from_bytes(128)));
        // A quiet device yields no hint.
        s = advance(&s, 4, 500_000, 1);
        assert_eq!(c.tick(s).chunk_size_hint, None);
    }

    #[test]
    fn controller_steers_a_real_pipeline() {
        use crate::store::CheckpointStore;
        use pccheck_device::{DeviceConfig, HostBufferPool, PersistentDevice, SsdDevice};
        use std::sync::Arc;

        let device: Arc<dyn PersistentDevice> = Arc::new(SsdDevice::new(
            DeviceConfig::fast_for_tests(ByteSize::from_kb(64)),
        ));
        let store = CheckpointStore::format(
            device,
            crate::StoreGeometry::single(ByteSize::from_kb(4), 3),
        )
        .unwrap();
        let pipeline = crate::pipeline::PersistPipeline::new(
            Arc::new(store),
            HostBufferPool::new(ByteSize::from_bytes(256), 16),
        )
        .with_writers(2)
        .with_codec(true);
        let telemetry = pccheck_telemetry::Telemetry::enabled();
        let mut c = PersistController::new(ControllerConfig::default(), 2, true);
        let d = c.steer(&telemetry.snapshot().unwrap(), &pipeline);
        assert_eq!(pipeline.writers(), d.writers);
        assert_eq!(pipeline.codec_enabled(), d.codec_enabled);
        assert_eq!(d.writers, 2);
        assert!(d.codec_enabled);
    }

    #[test]
    #[should_panic(expected = "hysteresis band")]
    fn controller_rejects_inverted_codec_thresholds() {
        let cfg = ControllerConfig {
            codec_on_permille: 990,
            codec_off_permille: 980,
            ..ControllerConfig::default()
        };
        PersistController::new(cfg, 2, false);
    }

    #[test]
    fn paper_guidance_modest_n_for_vgg16() {
        // §5.2.3 / §5.4.1: PCcheck picks a modest N (2–4) because storage
        // saturates. Model Tw with a contention penalty and check the pick.
        let inputs = TunerInputs {
            checkpoint_size: ByteSize::from_gb(1.1),
            iter_time: SimDuration::from_millis(60),
            storage_bandwidth: Bandwidth::from_gb_per_sec(16.0 / 37.0),
            pcie_bandwidth: Bandwidth::from_gb_per_sec(12.0),
            storage_budget: ByteSize::from_gb(50.0),
            max_slowdown: 1.05,
        };
        let t = Tuner::new(inputs).unwrap();
        // Measured-style Tw: linear sharing plus 15% per-extra-checkpoint
        // interference → diminishing returns beyond a few.
        let rec = t.recommend_with(|n| {
            let base = t.modeled_write_time(n).as_secs_f64();
            SimDuration::from_secs_f64(base * (1.0 + 0.15 * (n as f64 - 1.0)))
        });
        assert!(
            (1..=8).contains(&rec.concurrent),
            "modest N expected, got {}",
            rec.concurrent
        );
    }
}
