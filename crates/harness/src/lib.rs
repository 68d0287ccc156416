//! Experiment drivers for the PCcheck reproduction.
//!
//! Every paper figure and table, and every extension experiment, is one
//! row of [`EXPERIMENTS`]: its name, the CSV it writes under `results/`,
//! the function that writes it, and whether its bytes are a function of
//! the code alone. The `all_experiments` binary runs every row, or the
//! rows it is given by name (`cargo run --release -p pccheck-harness --bin
//! all_experiments <name>…`), and the workspace's `tests/results.rs`
//! holds every seeded row's output to its checked-in CSV byte for byte.
//!
//! Beside the experiments, the crate holds the scenario drivers the
//! binaries and tests share: [`forensics_run`] (crash a run at a chosen
//! persist and audit the image), [`profile_run`] and [`telemetry_run`].

use std::io::{self, Write};

use pccheck_util::ByteSize;

mod ext_compress;
mod ext_h100;
mod ext_jit;
mod ext_restore;
mod ext_striping;
mod fig10_pmem;
mod fig11_persist_micro;
mod fig12_concurrency;
mod fig13_threads;
mod fig14_dram;
mod fig1_motivation;
mod fig2_goodput_motivation;
mod fig8_throughput;
mod fig9_goodput;
pub mod forensics_run;
pub mod profile_run;
mod sweep;
mod tables;
pub mod telemetry_run;

/// One experiment: a paper figure or table, or an extension.
pub struct Experiment {
    /// The runner argument that selects it.
    pub name: &'static str,
    /// Its CSV's file name under `results/`.
    pub csv: &'static str,
    /// Whether the CSV's bytes are a function of the code alone (a
    /// discrete-event simulation, a seeded trace, a byte count). A row
    /// that measures wall time is not.
    pub seeded: bool,
    /// Runs the experiment and writes its CSV to the writer.
    pub write: fn(&mut dyn Write) -> io::Result<()>,
}

/// The seed of every experiment that replays a synthetic preemption trace.
const TRACE_SEED: u64 = 42;

/// Every experiment, in the order the runner writes them.
pub const EXPERIMENTS: [Experiment; 16] = [
    Experiment {
        name: "table1",
        csv: "table1_footprint.csv",
        seeded: true,
        write: |out| tables::write_table1_csv(&tables::table1(ByteSize::from_gb(4.0), 3), out),
    },
    Experiment {
        name: "table3",
        csv: "table3_models.csv",
        seeded: true,
        write: |out| tables::write_table3_csv(out),
    },
    Experiment {
        name: "fig1",
        csv: "fig1_motivation.csv",
        // Its last column times the recovery protocol on the host.
        seeded: false,
        write: |out| fig1_motivation::write_csv(&fig1_motivation::run(), out),
    },
    Experiment {
        name: "fig2",
        csv: "fig2_goodput_motivation.csv",
        seeded: true,
        write: |out| {
            fig2_goodput_motivation::write_csv(&fig2_goodput_motivation::run(TRACE_SEED), out)
        },
    },
    Experiment {
        name: "fig8",
        csv: "fig8_throughput.csv",
        seeded: true,
        write: |out| fig8_throughput::write_csv(&fig8_throughput::run(), out),
    },
    Experiment {
        name: "fig9",
        csv: "fig9_goodput.csv",
        seeded: true,
        write: |out| fig9_goodput::write_csv(&fig9_goodput::run(TRACE_SEED), out),
    },
    Experiment {
        name: "fig10",
        csv: "fig10_pmem.csv",
        seeded: true,
        write: |out| fig10_pmem::write_csv(&fig10_pmem::run(), out),
    },
    Experiment {
        name: "fig11",
        csv: "fig11_persist_micro.csv",
        seeded: true,
        write: |out| fig11_persist_micro::write_csv(&fig11_persist_micro::run(), out),
    },
    Experiment {
        name: "fig12",
        csv: "fig12_concurrency.csv",
        seeded: true,
        write: |out| fig12_concurrency::write_csv(&fig12_concurrency::run(), out),
    },
    Experiment {
        name: "fig13",
        csv: "fig13_threads.csv",
        seeded: true,
        write: |out| fig13_threads::write_csv(&fig13_threads::run(), out),
    },
    Experiment {
        name: "fig14",
        csv: "fig14_dram.csv",
        seeded: true,
        write: |out| fig14_dram::write_csv(&fig14_dram::run(), out),
    },
    Experiment {
        name: "ext_h100",
        csv: "ext_h100.csv",
        seeded: true,
        write: |out| ext_h100::write_csv(&ext_h100::run(), out),
    },
    Experiment {
        name: "ext_jit",
        csv: "ext_jit.csv",
        seeded: true,
        write: |out| ext_jit::write_csv(&ext_jit::run(TRACE_SEED), out),
    },
    Experiment {
        name: "ext_striping",
        csv: "ext_striping.csv",
        seeded: true,
        write: |out| ext_striping::write_csv(&ext_striping::run(), out),
    },
    Experiment {
        name: "ext_restore",
        csv: "ext_restore.csv",
        // It times restores from throttled devices on the host.
        seeded: false,
        write: |out| ext_restore::write_csv(&ext_restore::run(), out),
    },
    Experiment {
        name: "ext_compress",
        csv: "ext_compress.csv",
        seeded: true,
        write: |out| ext_compress::write_csv(&ext_compress::run(), out),
    },
];

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
