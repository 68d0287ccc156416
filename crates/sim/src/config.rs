//! Simulation configuration: hardware profiles and strategy parameters.

use pccheck_gpu::{GpuKind, ModelSpec};
use pccheck_util::{Bandwidth, ByteSize, SimDuration};

use crate::report::SimReport;
use crate::world::World;

/// Raw pd-ssd write bandwidth (GB/s). Calibrated so that (a) the
/// single-threaded torch.save path reproduces §1's 16 GB / 37 s
/// measurement via [`SINGLE_WRITER_FRACTION`], and (b) BLOOM-7B's 18 GB
/// shards sustain interval-10 checkpointing with N=2 concurrent
/// checkpoints at <2% overhead, as Figure 8f reports.
pub(crate) const SSD_RAW_GBPS: f64 = 1.5;

/// Fraction of device bandwidth one writer thread can sustain by itself:
/// 0.4324/1.5, anchoring the single-writer rate to §1's measured
/// 16 GB / 37 s. mmap-write syscall and serialization overheads keep a
/// single writer far from saturating the media; §5.4.2 shows 2–4 writers
/// are needed.
pub(crate) const SINGLE_WRITER_FRACTION: f64 = (16.0 / 37.0) / SSD_RAW_GBPS;

/// GPM's effective SSD efficiency: UVM kernel copies into an mmapped file
/// are very slow. Calibrated from §5.2.1's anchor — GPM at 1.9× slowdown
/// for OPT-1.3B at interval 50 implies ~0.18 GB/s effective (16.2 GB
/// stalling ~90 s per 100 s of compute).
pub(crate) const GPM_SSD_EFFICIENCY: f64 = 0.12;

/// GPM on PMEM: much closer to native (it was designed for this media;
/// Figure 10 shows it competitive at low frequencies).
pub(crate) const GPM_PMEM_EFFICIENCY: f64 = 0.5;

/// Fraction of the NIC available to Gemini's checkpoint transfers: the
/// checkpoint traffic interleaves with activation/gradient exchange
/// (§2.2), so only part of the measured 15 Gbps serves checkpoints.
/// Calibrated from §5.2.1's 1.65× slowdown for BLOOM-7B at interval 10.
pub(crate) const GEMINI_NETWORK_SHARE: f64 = 0.4;

/// The checkpointing strategy a simulation runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StrategyCfg {
    /// Checkpoints cost nothing (the horizontal line in Figures 8–10).
    Ideal,
    /// Synchronous snapshot + persist on the training thread (Figure 3).
    Traditional,
    /// One asynchronous checkpoint at a time (Figure 4).
    CheckFreq,
    /// Stall-and-persist straight from GPU memory.
    Gpm,
    /// One asynchronous checkpoint at a time to remote DRAM.
    Gemini,
    /// PCcheck: `n` concurrent checkpoints, `p` writers each.
    PcCheck {
        /// Concurrent checkpoints (the paper's `N`).
        n: usize,
        /// Writer threads per checkpoint (the paper's `p`).
        p: usize,
        /// Pipelined chunk copy/persist (Figure 7) vs staged (Figure 6).
        pipelined: bool,
    },
}

impl StrategyCfg {
    /// PCcheck with pipelining on — the configuration the paper evaluates.
    pub fn pccheck(n: usize, p: usize) -> StrategyCfg {
        StrategyCfg::PcCheck {
            n,
            p,
            pipelined: true,
        }
    }

    /// Short name used in CSV output.
    pub fn name(&self) -> String {
        match self {
            StrategyCfg::Ideal => "ideal".into(),
            StrategyCfg::Traditional => "traditional".into(),
            StrategyCfg::CheckFreq => "checkfreq".into(),
            StrategyCfg::Gpm => "gpm".into(),
            StrategyCfg::Gemini => "gemini".into(),
            StrategyCfg::PcCheck { n, p, pipelined } => {
                if *pipelined {
                    format!("pccheck-{n}-{p}")
                } else {
                    format!("pccheck-{n}-{p}-nopipe")
                }
            }
        }
    }
}

/// The storage media a simulation persists to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MediaKind {
    /// GCP `pd-ssd` (or any mmap+msync disk).
    Ssd,
    /// Intel Optane PMEM, nt-store path.
    Pmem,
    /// Remote DRAM over the network (Gemini's media).
    Network,
}

/// Full configuration of one simulated training run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Human-readable workload label.
    pub label: String,
    /// Iteration time `t`.
    pub iter_time: SimDuration,
    /// Per-node checkpoint size `m` (the shard, for distributed models).
    pub checkpoint_size: ByteSize,
    /// Checkpoint every `interval` iterations.
    pub interval: u64,
    /// Iterations to simulate.
    pub iterations: u64,
    /// Strategy under test.
    pub strategy: StrategyCfg,
    /// PCIe bandwidth (GPU→DRAM copies).
    pub pcie_bandwidth: Bandwidth,
    /// Storage (or network) bandwidth.
    pub storage_bandwidth: Bandwidth,
    /// The media kind (selects per-writer caps and GPM efficiency).
    pub media: MediaKind,
    /// PCcheck DRAM chunk size `b`.
    pub chunk_size: ByteSize,
    /// PCcheck DRAM pool size in chunks `c`.
    pub dram_chunks: usize,
    /// Device topology: number of RAID-0 stripe members. 1 = a single
    /// device; N > 1 aggregates N devices of `storage_bandwidth` each
    /// (the concrete counterpart is `pccheck_device::StripedDevice`).
    pub stripe_ways: u32,
}

impl SimConfig {
    /// The paper's SSD/A100 testbed for `model`, checkpointing every
    /// `interval` iterations for `iterations` iterations. PCcheck knobs
    /// default to §3.4's guidance (b scaled to the checkpoint: ~1/20th,
    /// DRAM pool 2·m).
    pub fn ssd_a100(model: &ModelSpec, interval: u64, iterations: u64) -> Self {
        let shard = model.shard_size();
        let chunk = ByteSize::from_bytes((shard.as_u64() / 20).clamp(1, 500 * 1024 * 1024));
        SimConfig {
            label: model.name.to_string(),
            iter_time: model.iter_time(GpuKind::A100),
            checkpoint_size: shard,
            interval,
            iterations,
            strategy: StrategyCfg::pccheck(2, 3),
            pcie_bandwidth: GpuKind::A100.pcie_bandwidth(),
            storage_bandwidth: Bandwidth::from_gb_per_sec(SSD_RAW_GBPS),
            media: MediaKind::Ssd,
            chunk_size: chunk,
            dram_chunks: 40, // 2·m worth of chunks at m/20 per chunk
            stripe_ways: 1,
        }
    }

    /// The Azure H100/NVMe variant of SS5.2.1 ("the iteration time was
    /// halved, and the disk bandwidth doubled"): same workload, faster
    /// everything, same qualitative patterns.
    pub fn nvme_h100(model: &ModelSpec, interval: u64, iterations: u64) -> Self {
        let mut cfg = Self::ssd_a100(model, interval, iterations);
        cfg.iter_time = model.iter_time(GpuKind::H100);
        cfg.pcie_bandwidth = GpuKind::H100.pcie_bandwidth();
        cfg.storage_bandwidth = Bandwidth::from_gb_per_sec(2.0 * SSD_RAW_GBPS);
        cfg
    }

    /// The PMEM/TitanRTX testbed (Figure 10).
    pub fn pmem_rtx(model: &ModelSpec, interval: u64, iterations: u64) -> Self {
        let mut cfg = Self::ssd_a100(model, interval, iterations);
        cfg.iter_time = model.iter_time(GpuKind::TitanRtx);
        cfg.pcie_bandwidth = GpuKind::TitanRtx.pcie_bandwidth();
        cfg.storage_bandwidth = Bandwidth::from_gb_per_sec(4.01);
        cfg.media = MediaKind::Pmem;
        cfg
    }

    /// Replaces the strategy (Gemini automatically switches the media to
    /// the network profile).
    pub fn with_strategy(mut self, strategy: StrategyCfg) -> Self {
        self.strategy = strategy;
        if matches!(strategy, StrategyCfg::Gemini) {
            self.storage_bandwidth =
                Bandwidth::from_gbit_per_sec(15.0).scaled(GEMINI_NETWORK_SHARE);
            self.media = MediaKind::Network;
        }
        self
    }

    /// Replaces the checkpoint interval.
    pub fn with_interval(mut self, interval: u64) -> Self {
        self.interval = interval;
        self
    }

    /// Stripes the storage across `ways` identical devices (RAID-0).
    pub fn with_stripe_ways(mut self, ways: u32) -> Self {
        self.stripe_ways = ways.max(1);
        self
    }

    /// Aggregate media bandwidth across all stripe members.
    /// `storage_bandwidth` stays per-member so hardware profiles keep
    /// their calibrated single-device numbers.
    pub(crate) fn effective_storage_bandwidth(&self) -> Bandwidth {
        self.storage_bandwidth
            .scaled(self.stripe_ways.max(1) as f64)
    }

    /// The per-writer-thread bandwidth cap for this media (none for the
    /// network: one TCP stream saturates the NIC).
    pub(crate) fn per_writer_cap(&self) -> Option<Bandwidth> {
        match self.media {
            MediaKind::Ssd | MediaKind::Pmem => {
                Some(self.storage_bandwidth.scaled(SINGLE_WRITER_FRACTION))
            }
            MediaKind::Network => None,
        }
    }

    /// GPM's effective copy efficiency on this media.
    pub(crate) fn gpm_efficiency(&self) -> f64 {
        match self.media {
            MediaKind::Ssd => GPM_SSD_EFFICIENCY,
            MediaKind::Pmem => GPM_PMEM_EFFICIENCY,
            MediaKind::Network => 1.0,
        }
    }

    /// Runs the simulation to completion.
    pub fn run(self) -> SimReport {
        World::new(self).run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pccheck_gpu::ModelZoo;

    /// Binary gigabytes, the unit the assertions below state rates in.
    const GIB: f64 = pccheck_util::units::GIB as f64;

    #[test]
    fn ssd_profile_matches_testbed() {
        let cfg = SimConfig::ssd_a100(&ModelZoo::opt_1_3b(), 10, 100);
        assert_eq!(cfg.iter_time, SimDuration::from_secs(2));
        // Raw device rate; the per-writer cap reproduces the paper's
        // measured single-threaded 16 GB / 37 s.
        assert!((cfg.storage_bandwidth.as_bytes_per_sec() / GIB - 1.5).abs() < 1e-9);
        assert!((cfg.per_writer_cap().unwrap().as_bytes_per_sec() / GIB - 0.4324).abs() < 1e-3);
        assert_eq!(cfg.media, MediaKind::Ssd);
        assert!((cfg.checkpoint_size.as_gb() - 16.2).abs() < 1e-9);
    }

    #[test]
    fn distributed_models_use_shards() {
        let cfg = SimConfig::ssd_a100(&ModelZoo::bloom_7b(), 10, 100);
        assert!((cfg.checkpoint_size.as_gb() - 18.0).abs() < 1e-9);
    }

    #[test]
    fn pmem_profile_is_faster_storage_slower_gpu() {
        let ssd = SimConfig::ssd_a100(&ModelZoo::bert(), 10, 100);
        let pmem = SimConfig::pmem_rtx(&ModelZoo::bert(), 10, 100);
        assert!(pmem.storage_bandwidth > ssd.storage_bandwidth);
        assert!(pmem.iter_time > ssd.iter_time);
        assert_eq!(pmem.media, MediaKind::Pmem);
    }

    #[test]
    fn gemini_switches_media() {
        let cfg =
            SimConfig::ssd_a100(&ModelZoo::bloom_7b(), 10, 100).with_strategy(StrategyCfg::Gemini);
        assert_eq!(cfg.media, MediaKind::Network);
        assert!(cfg.per_writer_cap().is_none());
        // 40% of 15 Gbps.
        assert!((cfg.storage_bandwidth.as_bytes_per_sec() - 0.4 * 1.875e9).abs() < 1e3);
    }

    #[test]
    fn per_writer_cap_is_half_the_device() {
        let cfg = SimConfig::ssd_a100(&ModelZoo::vgg16(), 10, 100);
        let cap = cfg.per_writer_cap().unwrap();
        assert!(
            (cap.as_bytes_per_sec()
                - cfg.storage_bandwidth.as_bytes_per_sec() * SINGLE_WRITER_FRACTION)
                .abs()
                < 1.0
        );
    }

    #[test]
    fn strategy_names_for_csv() {
        assert_eq!(StrategyCfg::Ideal.name(), "ideal");
        assert_eq!(StrategyCfg::pccheck(2, 3).name(), "pccheck-2-3");
        assert_eq!(
            StrategyCfg::PcCheck {
                n: 1,
                p: 1,
                pipelined: false
            }
            .name(),
            "pccheck-1-1-nopipe"
        );
    }

    #[test]
    fn stripe_ways_scales_aggregate_not_per_member() {
        let cfg = SimConfig::ssd_a100(&ModelZoo::opt_1_3b(), 10, 100);
        assert_eq!(cfg.stripe_ways, 1);
        assert!(
            (cfg.effective_storage_bandwidth().as_bytes_per_sec() / GIB
                - cfg.storage_bandwidth.as_bytes_per_sec() / GIB)
                .abs()
                < 1e-12
        );
        let striped = cfg.clone().with_stripe_ways(4);
        // Per-member profile number untouched; aggregate ×4.
        assert!((striped.storage_bandwidth.as_bytes_per_sec() / GIB - 1.5).abs() < 1e-9);
        assert!(
            (striped.effective_storage_bandwidth().as_bytes_per_sec() / GIB - 6.0).abs() < 1e-9
        );
        // Per-writer cap derives from the member, not the aggregate.
        assert_eq!(striped.per_writer_cap(), cfg.per_writer_cap());
        // Zero clamps to a single device rather than dividing by zero.
        assert_eq!(cfg.with_stripe_ways(0).stripe_ways, 1);
    }

    #[test]
    fn gpm_efficiency_by_media() {
        let ssd = SimConfig::ssd_a100(&ModelZoo::bert(), 10, 100);
        let pmem = SimConfig::pmem_rtx(&ModelZoo::bert(), 10, 100);
        assert!(ssd.gpm_efficiency() < pmem.gpm_efficiency());
    }
}
