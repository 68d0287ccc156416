//! Tables 1 and 3 as printable, testable artifacts.

use pccheck::footprint::{self, Footprint};
use pccheck_gpu::{ModelSpec, ModelZoo};
use pccheck_util::{ByteSize, CsvWriter};

/// One Table 1 row.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Table1Row {
    /// Algorithm name.
    pub(crate) algorithm: String,
    /// The footprint for a checkpoint of size `m`.
    pub(crate) footprint: Footprint,
}

/// Builds Table 1 for checkpoint size `m` and PCcheck concurrency `n`.
pub(crate) fn table1(m: ByteSize, n: usize) -> Vec<Table1Row> {
    vec![
        Table1Row {
            algorithm: "CheckFreq".into(),
            footprint: footprint::checkfreq(m),
        },
        Table1Row {
            algorithm: "GPM".into(),
            footprint: footprint::gpm(m),
        },
        Table1Row {
            algorithm: "Gemini".into(),
            footprint: footprint::gemini(m),
        },
        Table1Row {
            algorithm: "PCcheck".into(),
            footprint: footprint::pccheck(m, n),
        },
    ]
}

/// Writes Table 1 as CSV.
///
/// # Errors
///
/// Returns any I/O error.
pub(crate) fn write_table1_csv<W: std::io::Write>(
    rows: &[Table1Row],
    out: W,
) -> std::io::Result<()> {
    let mut w = CsvWriter::new(
        out,
        &["algorithm", "gpu_mem", "dram_min", "dram_max", "storage"],
    );
    for r in rows {
        w.row(&[
            &r.algorithm,
            &r.footprint.gpu,
            &r.footprint.dram_min,
            &r.footprint.dram_max,
            &r.footprint.storage,
        ])?;
    }
    w.flush()
}

/// Writes Table 3 (the model catalog) as CSV.
///
/// # Errors
///
/// Returns any I/O error.
pub(crate) fn write_table3_csv<W: std::io::Write>(out: W) -> std::io::Result<()> {
    let mut w = CsvWriter::new(
        out,
        &[
            "model",
            "dataset",
            "batch_a100",
            "batch_rtx",
            "checkpoint_gb",
            "nodes",
        ],
    );
    for m in table3() {
        let rtx = m
            .batch_rtx
            .map(|b| b.to_string())
            .unwrap_or_else(|| "-".into());
        w.row(&[
            &m.name,
            &m.dataset,
            &m.batch_a100,
            &rtx,
            &format_args!("{:.1}", m.checkpoint_size.as_gb()),
            &m.nodes,
        ])?;
    }
    w.flush()
}

/// Table 3's rows (the six evaluated models).
pub(crate) fn table3() -> Vec<ModelSpec> {
    ModelZoo::figure8_models()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper() {
        let m = ByteSize::from_gb(4.0);
        let rows = table1(m, 3);
        assert_eq!(rows.len(), 4);
        let by = |name: &str| {
            rows.iter()
                .find(|r| r.algorithm == name)
                .expect("algorithm present")
        };
        assert_eq!(by("CheckFreq").footprint.storage, m * 2);
        assert_eq!(by("GPM").footprint.dram_max, ByteSize::ZERO);
        assert_eq!(by("Gemini").footprint.storage, ByteSize::ZERO);
        assert_eq!(by("PCcheck").footprint.storage, m * 4); // (N+1)m, N=3
    }

    #[test]
    fn table3_csv_contains_all_models() {
        let mut buf = Vec::new();
        write_table3_csv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        for name in [
            "VGG16",
            "BERT",
            "TransformerXL",
            "OPT-1.3B",
            "OPT-2.7B",
            "BLOOM-7B",
        ] {
            assert!(text.contains(name), "missing {name}");
        }
        assert!(text.contains("108.0"), "BLOOM checkpoint size present");
    }

    #[test]
    fn table1_csv_is_well_formed() {
        let rows = table1(ByteSize::from_gb(1.0), 2);
        let mut buf = Vec::new();
        write_table1_csv(&rows, &mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap().lines().count(), 5);
    }
}
