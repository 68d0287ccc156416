//! The paper's model zoo (Table 3) with calibrated timing parameters.
//!
//! Checkpoint sizes and batch sizes come straight from Table 3. Iteration
//! times are calibrated against the evaluation's own anchors:
//!
//! * §5.2.3 states VGG16's iteration time is 60 ms — which makes VGG16 the
//!   workload where even PCcheck cannot checkpoint every 10 iterations
//!   cheaply (demand `m/(f·t)` ≈ 1.8 GB/s exceeds the disk), exactly as
//!   Figure 9a reports.
//! * §5.2.3 gives OPT-1.3B throughputs of 0.5 it/s (PCcheck) and
//!   0.256 it/s (CheckFreq) at interval 10: t = 2 s, with the device's raw
//!   write bandwidth just covering the 16.2 GB / 20 s demand while the
//!   single-threaded CheckFreq path (16 GB / 37 s per §1) halves
//!   throughput — both reproduced by these numbers.
//! * The remaining models' times are set so the sustainability boundary
//!   (`m/(f·t)` vs the device bandwidth) lands where Figures 8b–8f put it:
//!   BERT/TransformerXL/OPT-2.7B/BLOOM-7B all checkpoint every 10
//!   iterations with small overhead.
//!
//! Absolute values shift curves; the reproduced *shapes* depend on the
//! ratios `Tw/(N·f·t)` and `m/(f·t·T_S)`, which these figures match.

use pccheck_util::{ByteSize, SimDuration};

/// The accelerator a workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GpuKind {
    /// NVIDIA A100-40GB on a GCP `a2-highgpu-1g` VM (the SSD testbed).
    A100,
    /// NVIDIA Titan RTX-24GB in the PMEM machine (§5.1).
    TitanRtx,
    /// NVIDIA H100 on an Azure `NC40ads_H100_v5` VM (§5.2.1: iteration time
    /// halved, disk bandwidth doubled).
    H100,
}

impl GpuKind {
    /// Compute speed multiplier relative to the A100 baseline: iteration
    /// times are divided by this factor.
    pub(crate) fn compute_factor(self) -> f64 {
        match self {
            GpuKind::A100 => 1.0,
            // The RTX runs BERT visibly slower (§5.2.4); ~2x is consistent
            // with the figure's lower absolute throughput.
            GpuKind::TitanRtx => 0.5,
            GpuKind::H100 => 2.0,
        }
    }

    /// PCIe host-link bandwidth for pinned-memory DMA copies.
    pub fn pcie_bandwidth(self) -> pccheck_util::Bandwidth {
        use pccheck_util::Bandwidth;
        match self {
            // PCIe3 x16 ≈ 12 GB/s effective for pinned transfers.
            GpuKind::A100 => Bandwidth::from_gb_per_sec(12.0),
            // PCIe3 x8 (§5.1): half the lanes.
            GpuKind::TitanRtx => Bandwidth::from_gb_per_sec(6.0),
            // PCIe5 x16.
            GpuKind::H100 => Bandwidth::from_gb_per_sec(48.0),
        }
    }
}

/// One row of Table 3 plus calibrated timing.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpec {
    /// Model name as the paper spells it.
    pub name: &'static str,
    /// Training dataset (Table 3).
    pub dataset: &'static str,
    /// Parameter count.
    pub params: u64,
    /// Checkpoint size `m` — model plus optimizer state (Table 3).
    pub checkpoint_size: ByteSize,
    /// Micro-batch size on the A100 machine (Table 3).
    pub batch_a100: u32,
    /// Micro-batch size on the RTX machine, if the model fits.
    pub batch_rtx: Option<u32>,
    /// Number of pipeline-parallel nodes in the paper's setup (1 for
    /// single-GPU workloads; 2 for OPT-2.7B; 6 for BLOOM-7B).
    pub nodes: u32,
    /// Calibrated per-iteration time on an A100 (forward+backward+update).
    pub(crate) iter_time_a100: SimDuration,
}

impl ModelSpec {
    /// Iteration time on the given GPU kind.
    pub fn iter_time(&self, gpu: GpuKind) -> SimDuration {
        self.iter_time_a100.mul_f64(1.0 / gpu.compute_factor())
    }

    /// Checkpoint size per node: pipeline parallelism splits the model, so
    /// each node checkpoints its own partition (§3.1).
    pub fn shard_size(&self) -> ByteSize {
        self.checkpoint_size / u64::from(self.nodes)
    }

    /// Whether the paper evaluates this model in a distributed setting.
    pub fn is_distributed(&self) -> bool {
        self.nodes > 1
    }
}

/// The catalog of evaluated models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ModelZoo;

impl ModelZoo {
    /// VGG16 on ImageNet: 138 M params, 1.1 GB checkpoint, 60 ms iterations.
    pub fn vgg16() -> ModelSpec {
        ModelSpec {
            name: "VGG16",
            dataset: "ImageNet",
            params: 138_000_000,
            checkpoint_size: ByteSize::from_gb(1.1),
            batch_a100: 32,
            batch_rtx: Some(32),
            nodes: 1,
            iter_time_a100: SimDuration::from_millis(60),
        }
    }

    /// BERT on SQuAD: 345 M params, 4 GB checkpoint.
    pub fn bert() -> ModelSpec {
        ModelSpec {
            name: "BERT",
            dataset: "SQuAD",
            params: 345_000_000,
            checkpoint_size: ByteSize::from_gb(4.0),
            batch_a100: 3,
            batch_rtx: Some(3),
            nodes: 1,
            iter_time_a100: SimDuration::from_millis(500),
        }
    }

    /// Transformer-XL on WikiText: 192 M params, 2.7 GB checkpoint.
    pub(crate) fn transformer_xl() -> ModelSpec {
        ModelSpec {
            name: "TransformerXL",
            dataset: "WikiText",
            params: 192_000_000,
            checkpoint_size: ByteSize::from_gb(2.7),
            batch_a100: 64,
            batch_rtx: Some(32),
            nodes: 1,
            iter_time_a100: SimDuration::from_millis(400),
        }
    }

    /// OPT-350M on WikiText (used in the Figure 13 sensitivity study).
    pub fn opt_350m() -> ModelSpec {
        ModelSpec {
            name: "OPT-350M",
            dataset: "WikiText",
            params: 350_000_000,
            checkpoint_size: ByteSize::from_gb(4.2),
            batch_a100: 4,
            batch_rtx: None,
            nodes: 1,
            iter_time_a100: SimDuration::from_millis(500),
        }
    }

    /// OPT-1.3B on WikiText: 16.2 GB checkpoint, ~0.5 iters/s.
    pub fn opt_1_3b() -> ModelSpec {
        ModelSpec {
            name: "OPT-1.3B",
            dataset: "WikiText",
            params: 1_300_000_000,
            checkpoint_size: ByteSize::from_gb(16.2),
            batch_a100: 1,
            batch_rtx: None,
            nodes: 1,
            iter_time_a100: SimDuration::from_secs(2),
        }
    }

    /// OPT-2.7B on WikiText: 45 GB checkpoint over 2 pipeline nodes.
    pub(crate) fn opt_2_7b() -> ModelSpec {
        ModelSpec {
            name: "OPT-2.7B",
            dataset: "WikiText",
            params: 2_700_000_000,
            checkpoint_size: ByteSize::from_gb(45.0),
            batch_a100: 1,
            batch_rtx: None,
            nodes: 2,
            iter_time_a100: SimDuration::from_millis(2500),
        }
    }

    /// BLOOM-7B on WikiText: 108 GB checkpoint over 6 pipeline nodes.
    pub fn bloom_7b() -> ModelSpec {
        ModelSpec {
            name: "BLOOM-7B",
            dataset: "WikiText",
            params: 7_000_000_000,
            checkpoint_size: ByteSize::from_gb(108.0),
            batch_a100: 1,
            batch_rtx: None,
            nodes: 6,
            iter_time_a100: SimDuration::from_millis(1500),
        }
    }

    /// All models of Table 3 plus OPT-350M, in the paper's order.
    pub fn all() -> Vec<ModelSpec> {
        vec![
            Self::vgg16(),
            Self::bert(),
            Self::transformer_xl(),
            Self::opt_350m(),
            Self::opt_1_3b(),
            Self::opt_2_7b(),
            Self::bloom_7b(),
        ]
    }

    /// The six models Figure 8/9 sweep.
    pub fn figure8_models() -> Vec<ModelSpec> {
        vec![
            Self::vgg16(),
            Self::bert(),
            Self::transformer_xl(),
            Self::opt_1_3b(),
            Self::opt_2_7b(),
            Self::bloom_7b(),
        ]
    }

    /// Looks a model up by (case-insensitive) name.
    pub fn by_name(name: &str) -> Option<ModelSpec> {
        Self::all()
            .into_iter()
            .find(|m| m.name.eq_ignore_ascii_case(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_checkpoint_sizes() {
        assert!((ModelZoo::vgg16().checkpoint_size.as_gb() - 1.1).abs() < 1e-9);
        assert!((ModelZoo::bert().checkpoint_size.as_gb() - 4.0).abs() < 1e-9);
        assert!((ModelZoo::transformer_xl().checkpoint_size.as_gb() - 2.7).abs() < 1e-9);
        assert!((ModelZoo::opt_1_3b().checkpoint_size.as_gb() - 16.2).abs() < 1e-9);
        assert!((ModelZoo::opt_2_7b().checkpoint_size.as_gb() - 45.0).abs() < 1e-9);
        assert!((ModelZoo::bloom_7b().checkpoint_size.as_gb() - 108.0).abs() < 1e-9);
    }

    #[test]
    fn table3_batch_sizes() {
        assert_eq!(ModelZoo::vgg16().batch_a100, 32);
        assert_eq!(ModelZoo::bert().batch_a100, 3);
        assert_eq!(ModelZoo::transformer_xl().batch_a100, 64);
        assert_eq!(ModelZoo::transformer_xl().batch_rtx, Some(32));
        assert_eq!(ModelZoo::opt_1_3b().batch_a100, 1);
        assert_eq!(ModelZoo::opt_1_3b().batch_rtx, None);
    }

    #[test]
    fn distributed_models_shard_their_checkpoints() {
        let bloom = ModelZoo::bloom_7b();
        assert!(bloom.is_distributed());
        assert_eq!(bloom.nodes, 6);
        assert!((bloom.shard_size().as_gb() - 18.0).abs() < 1e-9);
        let opt = ModelZoo::opt_2_7b();
        assert_eq!(opt.nodes, 2);
        assert!((opt.shard_size().as_gb() - 22.5).abs() < 1e-9);
        assert!(!ModelZoo::vgg16().is_distributed());
        assert_eq!(
            ModelZoo::vgg16().shard_size(),
            ModelZoo::vgg16().checkpoint_size
        );
    }

    #[test]
    fn iteration_times_match_calibration_anchors() {
        // §5.2.3: VGG16 iteration time is 60 ms.
        assert_eq!(
            ModelZoo::vgg16().iter_time_a100,
            SimDuration::from_millis(60)
        );
        // Fig 8d: OPT-1.3B runs at ~0.5 iters/s without checkpointing.
        assert_eq!(
            ModelZoo::opt_1_3b().iter_time_a100,
            SimDuration::from_secs(2)
        );
    }

    #[test]
    fn gpu_kinds_scale_iteration_time() {
        let bert = ModelZoo::bert();
        let a100 = bert.iter_time(GpuKind::A100);
        let rtx = bert.iter_time(GpuKind::TitanRtx);
        let h100 = bert.iter_time(GpuKind::H100);
        assert!(rtx > a100, "RTX is slower than A100");
        assert!(h100 < a100, "H100 halves the iteration time (§5.2.1)");
        assert_eq!(h100, a100 / 2);
    }

    #[test]
    fn pcie_hierarchy_is_sane() {
        assert!(GpuKind::TitanRtx.pcie_bandwidth() < GpuKind::A100.pcie_bandwidth());
        assert!(GpuKind::A100.pcie_bandwidth() < GpuKind::H100.pcie_bandwidth());
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(ModelZoo::by_name("bloom-7b").unwrap().name, "BLOOM-7B");
        assert_eq!(ModelZoo::by_name("VGG16").unwrap().name, "VGG16");
        assert!(ModelZoo::by_name("GPT-5").is_none());
    }

    #[test]
    fn figure8_covers_six_models() {
        let models = ModelZoo::figure8_models();
        assert_eq!(models.len(), 6);
        assert_eq!(models[0].name, "VGG16");
        assert_eq!(models[5].name, "BLOOM-7B");
    }

    #[test]
    fn checkpoint_sizes_grow_with_params_within_family() {
        let all = ModelZoo::all();
        let opt: Vec<_> = all.iter().filter(|m| m.name.starts_with("OPT")).collect();
        for pair in opt.windows(2) {
            assert!(pair[0].params < pair[1].params);
            assert!(pair[0].checkpoint_size < pair[1].checkpoint_size);
        }
    }
}
