//! Experiment drivers for the PCcheck reproduction.
//!
//! One module per paper figure/table. Every experiment returns plain row
//! structs *and* can emit the CSV the original artifact's scripts produce,
//! so `cargo run -p pccheck-harness --bin figN` regenerates the paper's
//! plots' data. The `pccheck-bench` crate wraps the same entry points as
//! `cargo bench` targets.

pub mod ext_compress;
pub mod ext_h100;
pub mod ext_jit;
pub mod ext_restore;
pub mod ext_striping;
pub mod fig10_pmem;
pub mod fig11_persist_micro;
pub mod fig12_concurrency;
pub mod fig13_threads;
pub mod fig14_dram;
pub mod fig1_motivation;
pub mod fig2_goodput_motivation;
pub mod fig8_throughput;
pub mod fig9_goodput;
pub mod forensics_run;
pub mod profile_run;
pub mod sweep;
pub mod tables;
pub mod telemetry_run;

/// The checkpoint intervals the paper sweeps in most figures.
pub(crate) const PAPER_INTERVALS: [u64; 5] = [1, 10, 25, 50, 100];

/// Default output directory for CSVs.
pub(crate) const RESULTS_DIR: &str = "results";

/// A host-resident payload standing in for GPU weights.
pub(crate) struct HostPayload {
    pub data: Vec<u8>,
    pub step: u64,
}

impl pccheck_gpu::SnapshotSource for HostPayload {
    fn size(&self) -> pccheck_util::ByteSize {
        pccheck_util::ByteSize::from_bytes(self.data.len() as u64)
    }

    fn step_count(&self) -> u64 {
        self.step
    }

    fn copy_range_to_host(&self, offset: u64, dst: &mut [u8]) {
        let o = offset as usize;
        dst.copy_from_slice(&self.data[o..o + dst.len()]);
    }
}

/// Ensures the results directory exists and returns the path for `name`.
///
/// # Panics
///
/// Panics if the directory cannot be created.
pub fn result_path(name: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new(RESULTS_DIR);
    std::fs::create_dir_all(dir).expect("create results dir");
    dir.join(name)
}
