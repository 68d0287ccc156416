//! Extension experiment: just-in-time checkpointing vs PCcheck under
//! varying bulk-preemption rates.
//!
//! §2.2 argues that JIT checkpointing's assumption — some replica always
//! survives to persist state within the grace period — "might not be true
//! when training over preemptible resources, where *bulky* VM preemptions
//! are very common". This experiment quantifies the argument: goodput of
//! JIT and of PCcheck's periodic checkpointing as the fraction of bulk
//! revocations sweeps from 0 to 80%.

use pccheck_gpu::{GpuKind, ModelZoo};
use pccheck_sim::StrategyCfg;
use pccheck_trace::{GoodputReplay, JitReplay, PreemptionTrace};
use pccheck_util::{Bandwidth, CsvWriter, SimDuration};

use crate::sweep::{load_time, run_point};

/// Burst probabilities swept.
pub(crate) const BURST_PROBS: [f64; 5] = [0.0, 0.2, 0.4, 0.6, 0.8];

/// One row: goodput of both schemes at one bulk-preemption rate.
#[derive(Debug, Clone, PartialEq)]
pub struct JitRow {
    /// Probability that a preemption arrives as a bulk revocation.
    pub burst_prob: f64,
    /// JIT goodput (iterations/second).
    pub jit_goodput: f64,
    /// PCcheck periodic goodput at interval 10.
    pub pccheck_goodput: f64,
}

/// Runs the sweep on OPT-1.3B with the GCP preemption rate.
pub fn run(seed: u64) -> Vec<JitRow> {
    let model = ModelZoo::opt_1_3b();
    let iter_time = model.iter_time(GpuKind::A100);
    let load = load_time(&model);
    // PCcheck's failure-free behavior does not depend on the trace; run it
    // once at interval 10.
    let pccheck_report = run_point(&model, StrategyCfg::pccheck(2, 3), 10);
    let replay = GoodputReplay::new(load);
    let jit = JitReplay {
        shard_size: model.shard_size(),
        save_bandwidth: Bandwidth::from_gb_per_sec(1.5),
        grace: JitReplay::GCP_GRACE,
        load_time: load,
        iter_time,
    };
    BURST_PROBS
        .iter()
        .map(|&burst_prob| {
            let trace = PreemptionTrace::synthetic(
                seed,
                SimDuration::from_secs(16 * 3600),
                pccheck_trace::preemption::GCP_A100_PREEMPTIONS_PER_HOUR,
                burst_prob,
            );
            JitRow {
                burst_prob,
                jit_goodput: jit.replay(&trace).goodput,
                pccheck_goodput: replay.replay(&pccheck_report, &trace).goodput,
            }
        })
        .collect()
}

/// Writes the rows as CSV.
///
/// # Errors
///
/// Returns any I/O error.
pub fn write_csv<W: std::io::Write>(rows: &[JitRow], out: W) -> std::io::Result<()> {
    let mut w = CsvWriter::new(out, &["burst_prob", "jit_goodput", "pccheck_goodput"]);
    for r in rows {
        w.row(&[
            &format_args!("{:.1}", r.burst_prob),
            &format_args!("{:.5}", r.jit_goodput),
            &format_args!("{:.5}", r.pccheck_goodput),
        ])?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jit_degrades_with_bulk_preemptions_pccheck_does_not() {
        let rows = run(11);
        assert_eq!(rows.len(), 5);
        // JIT goodput falls monotonically-ish with burst probability...
        let first = rows.first().expect("rows");
        let last = rows.last().expect("rows");
        assert!(
            last.jit_goodput < first.jit_goodput * 0.9,
            "jit: {} -> {}",
            first.jit_goodput,
            last.jit_goodput
        );
        // ...while PCcheck's stays roughly flat (rollbacks cost a bounded
        // interval regardless of bulkiness).
        let pc_drop = (first.pccheck_goodput - last.pccheck_goodput) / first.pccheck_goodput;
        assert!(pc_drop < 0.12, "pccheck drop {pc_drop}");
        // At GCP preemption rates even "no-burst" traces have chance
        // clusters within the re-replication window, so JIT never clearly
        // beats periodic checkpointing here — the paper's §2.2 position.
        // Under heavy bursts the gap is decisive.
        assert!(
            last.pccheck_goodput > last.jit_goodput * 1.1,
            "heavy bursts: pccheck {} vs jit {}",
            last.pccheck_goodput,
            last.jit_goodput
        );
    }
}
