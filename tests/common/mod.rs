//! The crash sweep, shared by `tests/crash_consistency.rs` (single-tenant
//! rows of the crash matrix) and `tests/multi_tenant_crash.rs` (shared-store
//! rows). Both run one driver, `forensics_run::run_to_crash`, over every
//! persist of the product's pipeline.

use std::collections::BTreeSet;
use std::sync::Arc;

use pccheck::{recovery, CheckpointStore, FrameTable, PccheckError, DEFAULT_JOB};
use pccheck_device::CrashPolicy;
use pccheck_harness::forensics_run::{
    run_to_crash, Baselines, DeviceTopology, ForensicsRun, ForensicsRunConfig,
};
use pccheck_monitor::CheckpointVerdict;

/// State size of a codec row: eight chunks of two digest blocks each.
const CODEC_STATE_BYTES: u64 = 64 * 1024;

/// The one table both tenancies' crash tests run: a flat and a striped
/// device, each as a single-tenant store and as one shared by jobs 1..=3,
/// each over RNG-dense checkpoints copied without LZ and over
/// codec-packed ones — 2 × 2 × 2 = 8 pipelined rows — and the two-slot
/// store every N = 1 strategy row formats, flat, single-tenant, RNG-dense
/// and staged whole, as those rows copy. The sweep drives every tenant of a
/// row through every `k` of `run_to_crash`.
pub(crate) fn crash_matrix() -> Vec<ForensicsRunConfig> {
    let mut rows = Vec::new();
    for topology in [DeviceTopology::Single, DeviceTopology::Striped { ways: 2 }] {
        for tenants in [vec![DEFAULT_JOB], vec![1, 2, 3]] {
            for baselines in [Baselines::Raw, Baselines::Codec] {
                let tenants = tenants.clone();
                // A codec row's chunks span two digest blocks, so its third
                // mutation cuts one at the block between them.
                let state_bytes = match baselines {
                    Baselines::Raw => ForensicsRunConfig::default().state_bytes,
                    Baselines::Codec => CODEC_STATE_BYTES,
                };
                rows.push(ForensicsRunConfig {
                    topology,
                    tenants,
                    baselines,
                    state_bytes,
                    ..ForensicsRunConfig::default()
                });
            }
        }
    }
    rows.push(ForensicsRunConfig {
        slots: 2,
        whole: true,
        ..ForensicsRunConfig::default()
    });
    rows
}

/// Sweeps every `crash_matrix()` row that `pick` selects, each on a thread
/// of its own. A row keeps its matrix index, so a repro names the same row
/// whichever test ran it.
pub(crate) fn sweep_crash_matrix(pick: impl Fn(&ForensicsRunConfig) -> bool) {
    std::thread::scope(|s| {
        for (row, cfg) in crash_matrix().into_iter().enumerate() {
            if pick(&cfg) {
                s.spawn(move || sweep_row(row, &cfg));
            }
        }
    });
}

/// Prints a failing run's one-line repro when the sweep panics while it is
/// alive, whatever panicked: a check, an error, or the progress check's
/// hang guard.
struct Repro(String);

impl Drop for Repro {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("{}", self.0);
        }
    }
}

/// One row of the crash sweep. Every driven tenant's run takes the same
/// baselines first, so a crash inside them leaves the same image whichever
/// tenant is driven: after the first tenant, the sweep starts at the first
/// `k` that crashed the first tenant's own mutations.
fn sweep_row(row: usize, cfg: &ForensicsRunConfig) {
    let mut seen = BTreeSet::new();
    let mut linked = false;
    let mut cut = false;
    let mut replayed = 0;
    for (i, &job) in cfg.tenants.iter().enumerate() {
        for k in replayed.. {
            let seed = (row as u64) << 40 | job << 32 | k;
            let policies = [
                CrashPolicy::DropUnpersisted,
                CrashPolicy::RandomPartial { seed },
            ];
            let mut fired = 0;
            for policy in policies {
                let _repro = Repro(format!(
                    "repro: row {row} ({:?}, {:?}), tenant {job}, k {k}, {policy:?}",
                    cfg.topology, cfg.baselines
                ));
                let run = run_to_crash(cfg, job, k, policy).unwrap_or_else(|e| panic!("{e}"));
                let Some(run) = run else {
                    continue;
                };
                fired += 1;
                cut = cut || recovered_a_cut_frame(&run);
                if let Err(why) = run.verify() {
                    panic!("{why}");
                }
                // The first tenant's baseline is its first lease; a second
                // one is a mutation.
                if i == 0 && run.counters.len() < 2 {
                    replayed = k + 1;
                }
                for counter in &run.counters {
                    match run.report.checkpoints.get(counter) {
                        Some(CheckpointVerdict::InFlight { phase, .. }) => {
                            seen.insert(phase.name());
                        }
                        Some(CheckpointVerdict::Committed { .. }) => {
                            seen.insert("committed");
                        }
                        _ => {}
                    }
                }
                linked |= run
                    .report
                    .expected_recovery(job)
                    .is_some_and(|m| m.delta.is_some());
                if cfg.tenants != [DEFAULT_JOB] {
                    assert!(
                        matches!(
                            recovery::recover(run.device),
                            Err(PccheckError::InvalidConfig(_))
                        ),
                        "a shared store has no default tenant to recover"
                    );
                }
            }
            match fired {
                0 => break,
                2 => {}
                _ => panic!("row {row}, tenant {job}, k {k}: the fuse fired under one policy only"),
            }
        }
    }
    let phases = [
        "begun",
        "copied",
        "persisted",
        "meta_persisted",
        "committed",
    ];
    assert!(
        phases.iter().all(|p| seen.contains(p)),
        "row {row} ({:?}, {:?}): the driven tenants were seen only {seen:?}",
        cfg.topology,
        cfg.baselines
    );
    assert!(
        linked || cfg.baselines == Baselines::Raw,
        "row {row} ({:?}): no crash recovered a linked frame",
        cfg.topology
    );
    assert!(
        cut || cfg.baselines == Baselines::Raw,
        "row {row} ({:?}): no crash recovered a frame cut at a dirty run",
        cfg.topology
    );
}

/// Whether the checkpoint `run` recovered is a frame of more records than
/// the scenario's eight chunks: one a mutation cut at its dirty run. Read
/// before `verify`, whose progress check commits over the crashed image.
fn recovered_a_cut_frame(run: &ForensicsRun) -> bool {
    let Some(meta) = run.report.expected_recovery(run.job) else {
        return false;
    };
    let store = CheckpointStore::open(Arc::clone(&run.device)).expect("the crashed store opens");
    let payload = store
        .read_checkpoint(&meta)
        .expect("the recovered checkpoint reads");
    FrameTable::decode(&payload).is_some_and(|table| table.records.len() > 8)
}
