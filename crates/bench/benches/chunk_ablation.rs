//! Ablation: DRAM chunk size `b` and DDIO, the two data-path knobs §3.3
//! discusses but the paper does not sweep in a figure.
//!
//! * Chunk size trades pipelining granularity against per-chunk overheads:
//!   tiny chunks overlap copy/persist tightly but multiply bookkeeping;
//!   whole-checkpoint chunks degenerate to CheckFreq's copy-then-persist.
//! * DDIO places inbound DMA in the LLC; §3.3 found copy engines + pinned
//!   memory + DDIO fastest. The effective-bandwidth model captures the
//!   ~10% haircut of disabling it.

use pccheck_bench::stats::time;
use pccheck_gpu::{CopyEngineConfig, CopyPath, GpuKind, ModelZoo};
use pccheck_sim::{SimConfig, StrategyCfg};
use pccheck_util::ByteSize;

fn chunk_size_sweep() {
    let model = ModelZoo::opt_1_3b();
    println!("\n[Ablation] OPT-1.3B @ interval 10: throughput vs chunk count (m/b)");
    for chunks_per_ckpt in [1u64, 4, 20, 100] {
        let mut cfg = SimConfig::ssd_a100(&model, 10, 300);
        cfg.chunk_size =
            ByteSize::from_bytes(cfg.checkpoint_size.as_u64().div_ceil(chunks_per_ckpt));
        cfg.dram_chunks = (2 * chunks_per_ckpt as usize).max(2);
        cfg.strategy = StrategyCfg::pccheck(2, 3);
        let report = cfg.run();
        println!(
            "  m/{chunks_per_ckpt:<4} chunks: {:.4} it/s (Tw {:.2} s)",
            report.throughput,
            report.mean_write_time.as_secs_f64()
        );
    }
    for chunks_per_ckpt in [4u64, 20] {
        time(
            &format!("ablation/chunk_size/m_over_{chunks_per_ckpt}"),
            10,
            || {
                let mut cfg = SimConfig::ssd_a100(&ModelZoo::opt_1_3b(), 10, 200);
                cfg.chunk_size =
                    ByteSize::from_bytes(cfg.checkpoint_size.as_u64().div_ceil(chunks_per_ckpt));
                cfg.dram_chunks = (2 * chunks_per_ckpt as usize).max(2);
                cfg.run()
            },
        );
    }
}

fn ddio_ablation() {
    println!("\n[Ablation] effective PCIe bandwidth: pinned DMA with/without DDIO, kernel copies");
    let base = CopyEngineConfig::for_gpu(GpuKind::A100);
    let mut no_ddio = base.clone();
    no_ddio.ddio = false;
    let kernel = base.clone().with_path(CopyPath::Kernel);
    for (name, cfg) in [
        ("pinned+ddio", &base),
        ("pinned-no-ddio", &no_ddio),
        ("kernel", &kernel),
    ] {
        println!(
            "  {name:<16} {:.2} GB/s",
            cfg.effective_bandwidth().as_gb_per_sec()
        );
    }
}

fn main() {
    chunk_size_sweep();
    ddio_ablation();
}
