//! The training loop driving a checkpointing strategy.
//!
//! Reproduces Figure 3's phases: each iteration runs compute (`T`, modeled
//! as a calibrated delay), the weight update (`U`, which mutates the state
//! and synchronizes with in-flight snapshot copies), and at checkpoint
//! boundaries hands control to the [`Checkpointer`]. The loop measures
//! wall-clock throughput, which concrete experiments compare against the
//! no-checkpoint baseline to obtain the slowdowns of Figures 8, 10, 12–14.

use std::time::Instant;

use pccheck_telemetry::Telemetry;
use pccheck_util::SimDuration;

use crate::checkpoint::Checkpointer;
use crate::gpu::Gpu;

/// Configuration and driver for a concrete (real-time) training run.
#[derive(Debug)]
pub struct TrainingLoop {
    gpu: Gpu,
    /// Modeled compute time per iteration (the `T` phase). The update `U`
    /// is the actual state mutation and synchronization.
    iter_compute: SimDuration,
    /// Checkpoint every `interval` iterations; `None` disables.
    interval: Option<u64>,
    /// Emits `iteration_end` events for goodput/rollback accounting.
    telemetry: Telemetry,
}

/// Results of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingReport {
    /// Iterations executed.
    pub iterations: u64,
    /// Wall-clock duration of the run.
    pub elapsed: SimDuration,
    /// Iterations per second.
    pub throughput: f64,
    /// Number of checkpoint calls issued.
    pub checkpoints_requested: u64,
}

impl TrainingLoop {
    /// Creates a loop over `gpu` with the given modeled compute time.
    pub fn new(gpu: Gpu, iter_compute: SimDuration) -> Self {
        TrainingLoop {
            gpu,
            iter_compute,
            interval: None,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Checkpoint every `interval` iterations (the paper's `f`).
    ///
    /// # Panics
    ///
    /// Panics if `interval == 0`.
    pub fn with_interval(mut self, interval: u64) -> Self {
        assert!(interval > 0, "checkpoint interval must be >= 1");
        self.interval = Some(interval);
        self
    }

    /// Records an `iteration_end` event per iteration into `telemetry`,
    /// feeding the stall/goodput accountant. Use the same handle the
    /// checkpointer records into so both land on one timeline.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Runs `iterations` iterations, invoking `ckpt` at boundaries, and
    /// drains outstanding checkpoints before reporting.
    ///
    /// The checkpoint fires after the update of iterations
    /// `interval-1, 2*interval-1, ...` — i.e., every `interval` iterations,
    /// starting once `interval` iterations of progress exist.
    pub fn run(&self, iterations: u64, ckpt: &dyn Checkpointer) -> TrainingReport {
        let start = Instant::now();
        let mut requested = 0u64;
        for iter in 0..iterations {
            // T: forward/backward compute.
            if !self.iter_compute.is_zero() {
                std::thread::sleep(self.iter_compute.to_std());
            }
            // U: weight update (blocks on in-flight snapshot copies).
            self.gpu.update();
            self.telemetry.iteration_end(iter + 1);
            // C/P: checkpoint boundary.
            if let Some(f) = self.interval {
                if (iter + 1) % f == 0 {
                    ckpt.checkpoint(&self.gpu, iter + 1);
                    requested += 1;
                }
            }
        }
        ckpt.drain();
        let elapsed = SimDuration::from_secs_f64(start.elapsed().as_secs_f64().max(1e-9));
        TrainingReport {
            iterations,
            elapsed,
            throughput: iterations as f64 / elapsed.as_secs_f64(),
            checkpoints_requested: requested,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::NullCheckpointer;
    use crate::gpu::GpuConfig;
    use crate::tensor::TrainingState;
    use pccheck_util::ByteSize;

    fn tiny_gpu(seed: u64) -> Gpu {
        Gpu::new(
            GpuConfig::fast_for_tests(),
            TrainingState::synthetic(ByteSize::from_bytes(120), seed),
        )
    }

    #[test]
    fn run_advances_state_by_iteration_count() {
        let gpu = tiny_gpu(1);
        let lp = TrainingLoop::new(gpu.clone(), SimDuration::ZERO);
        let report = lp.run(10, &NullCheckpointer::new());
        assert_eq!(report.iterations, 10);
        assert_eq!(gpu.step_count(), 10);
        assert_eq!(report.checkpoints_requested, 0);
        assert!(report.throughput > 0.0);
    }

    #[test]
    fn interval_counts_checkpoints() {
        let lp = TrainingLoop::new(tiny_gpu(2), SimDuration::ZERO).with_interval(3);
        let report = lp.run(10, &NullCheckpointer::new());
        // Iterations 3, 6, 9 fire.
        assert_eq!(report.checkpoints_requested, 3);
    }

    #[test]
    fn interval_equal_to_run_fires_once() {
        let lp = TrainingLoop::new(tiny_gpu(3), SimDuration::ZERO).with_interval(5);
        let report = lp.run(5, &NullCheckpointer::new());
        assert_eq!(report.checkpoints_requested, 1);
    }

    #[test]
    fn compute_time_bounds_throughput() {
        let lp = TrainingLoop::new(tiny_gpu(4), SimDuration::from_millis(20));
        let report = lp.run(5, &NullCheckpointer::new());
        assert!(
            report.throughput <= 50.5,
            "20ms/iter caps throughput at 50/s, got {}",
            report.throughput
        );
        assert!(report.elapsed.as_secs_f64() >= 0.099);
    }

    #[test]
    #[should_panic(expected = "interval must be >= 1")]
    fn zero_interval_rejected() {
        TrainingLoop::new(tiny_gpu(5), SimDuration::ZERO).with_interval(0);
    }

    #[test]
    fn telemetry_sees_every_iteration() {
        use pccheck_telemetry::{EventKind, RunAccounting, Telemetry};

        let telemetry = Telemetry::enabled();
        let lp =
            TrainingLoop::new(tiny_gpu(7), SimDuration::ZERO).with_telemetry(telemetry.clone());
        lp.run(6, &NullCheckpointer::new());
        let events = telemetry.events();
        let iters: Vec<u64> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::IterationEnd { iteration } => Some(iteration),
                _ => None,
            })
            .collect();
        assert_eq!(iters, vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(RunAccounting::from_events(&events).iterations, 6);
    }

    #[test]
    fn checkpointer_sees_correct_iteration_numbers() {
        use pccheck_util::sync::Mutex;

        #[derive(Default)]
        struct Recorder(Mutex<Vec<u64>>);
        impl Checkpointer for Recorder {
            fn checkpoint(&self, _gpu: &Gpu, iteration: u64) {
                self.0.lock().push(iteration);
            }
            fn drain(&self) {}
            fn last_committed(&self) -> Option<crate::checkpoint::CheckpointOutcome> {
                None
            }
            fn name(&self) -> &str {
                "recorder"
            }
        }

        let rec = Recorder::default();
        let lp = TrainingLoop::new(tiny_gpu(6), SimDuration::ZERO).with_interval(2);
        lp.run(7, &rec);
        assert_eq!(*rec.0.lock(), vec![2, 4, 6]);
    }
}
