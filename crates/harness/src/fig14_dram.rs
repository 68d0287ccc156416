//! Figure 14: sensitivity to the DRAM staging budget and chunked
//! pipelining — OPT-1.3B throughput at a fixed interval of 15, varying the
//! DRAM pool from `m` to `2m` and comparing the non-pipelined engine with
//! pipelined variants at different chunk counts.

use pccheck_gpu::ModelZoo;
use pccheck_sim::{SimConfig, StrategyCfg};
use pccheck_util::{ByteSize, CsvWriter};

use crate::sweep::iterations_for;

/// Fixed checkpoint interval (the paper uses 15).
pub(crate) const INTERVAL: u64 = 15;
/// DRAM budgets as multiples of the checkpoint size `m`.
pub(crate) const DRAM_FACTORS: [f64; 3] = [1.0, 1.5, 2.0];
/// Pipelined variants: chunks per checkpoint (the paper's `p_2`, `p_4`).
pub(crate) const PIPELINE_CHUNKS: [u64; 2] = [2, 4];

/// One Figure 14 row.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Fig14Row {
    /// DRAM budget as a multiple of `m`.
    pub(crate) dram_factor: f64,
    /// Variant label: `nopipe`, `p2`, `p4`.
    pub(crate) variant: String,
    /// Throughput (iterations/second).
    pub(crate) throughput: f64,
}

fn configure(dram_factor: f64, chunks_per_ckpt: Option<u64>) -> SimConfig {
    let model = ModelZoo::opt_1_3b();
    let mut cfg = SimConfig::ssd_a100(&model, INTERVAL, iterations_for(INTERVAL));
    let m = cfg.checkpoint_size.as_u64();
    match chunks_per_ckpt {
        Some(k) => {
            // Pipelined with k chunks per checkpoint.
            cfg.chunk_size = ByteSize::from_bytes(m.div_ceil(k));
            cfg.dram_chunks = ((dram_factor * k as f64).round() as usize).max(1);
            cfg.strategy = StrategyCfg::pccheck(2, 3);
        }
        None => {
            // Non-pipelined: the whole checkpoint stages in DRAM; needs
            // dram >= m, so the pool holds `factor` checkpoint-sized chunks.
            cfg.chunk_size = ByteSize::from_bytes(m);
            cfg.dram_chunks = (dram_factor.floor() as usize).max(1);
            cfg.strategy = StrategyCfg::PcCheck {
                n: 2,
                p: 3,
                pipelined: false,
            };
        }
    }
    cfg
}

/// Runs the sweep.
pub(crate) fn run() -> Vec<Fig14Row> {
    let mut rows = Vec::new();
    for &factor in &DRAM_FACTORS {
        let nopipe = configure(factor, None).run();
        rows.push(Fig14Row {
            dram_factor: factor,
            variant: "nopipe".into(),
            throughput: nopipe.throughput,
        });
        for &k in &PIPELINE_CHUNKS {
            let report = configure(factor, Some(k)).run();
            rows.push(Fig14Row {
                dram_factor: factor,
                variant: format!("p{k}"),
                throughput: report.throughput,
            });
        }
    }
    rows
}

/// Writes the rows as CSV.
///
/// # Errors
///
/// Returns any I/O error.
pub(crate) fn write_csv<W: std::io::Write>(rows: &[Fig14Row], out: W) -> std::io::Result<()> {
    let mut w = CsvWriter::new(out, &["dram_factor", "variant", "throughput"]);
    for r in rows {
        w.row(&[
            &format_args!("{:.1}", r.dram_factor),
            &r.variant,
            &format_args!("{:.5}", r.throughput),
        ])?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn throughput(rows: &[Fig14Row], factor: f64, variant: &str) -> f64 {
        rows.iter()
            .find(|r| (r.dram_factor - factor).abs() < 1e-9 && r.variant == variant)
            .map(|r| r.throughput)
            .expect("row present")
    }

    #[test]
    fn pipelining_is_at_least_as_good() {
        // §5.4.3: "pipelining leads to slightly higher throughput compared
        // to the non-pipelined case, although the differences are small".
        let rows = run();
        for &factor in &DRAM_FACTORS {
            let np = throughput(&rows, factor, "nopipe");
            let p4 = throughput(&rows, factor, "p4");
            assert!(
                p4 >= np * 0.99,
                "factor {factor}: p4 ({p4}) vs nopipe ({np})"
            );
        }
    }

    #[test]
    fn shrinking_dram_to_m_costs_little() {
        // §5.4.3: DRAM of m adds at most ~7% over 2m.
        let rows = run();
        let at_m = throughput(&rows, 1.0, "p4");
        let at_2m = throughput(&rows, 2.0, "p4");
        let overhead = at_2m / at_m;
        assert!(overhead < 1.12, "m vs 2m should cost <~10%, got {overhead}");
        assert!(overhead >= 0.99, "more DRAM should not hurt: {overhead}");
    }

    #[test]
    fn grid_is_complete() {
        assert_eq!(run().len(), 9);
    }
}
