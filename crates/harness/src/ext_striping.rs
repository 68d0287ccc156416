//! Extension: RAID-0 striping sweep for the Figure-11 persist micro-benchmark.
//!
//! Figure 11 measures the end-to-end time to persist one solo checkpoint.
//! This extension re-runs that microbenchmark with the storage striped
//! across 1, 2, and 4 identical devices ([`SimConfig::with_stripe_ways`];
//! the concrete counterpart is `pccheck_device::StripedDevice`). Writer
//! threads are provisioned generously so the per-writer syscall cap never
//! hides the wider array: the persist time should then scale with the
//! aggregate media bandwidth, i.e. near-linearly in the stripe width.

use pccheck_gpu::ModelZoo;
use pccheck_sim::{SimConfig, StrategyCfg};
use pccheck_util::{ByteSize, CsvWriter};

/// Stripe widths swept.
pub(crate) const WAYS: [u32; 3] = [1, 2, 4];

/// Writer threads per checkpoint — enough that `p` per-writer caps exceed
/// the 4-way aggregate bandwidth, so the device array is the bottleneck.
pub const WRITERS: usize = 16;

/// Checkpoint sizes swept (the small and large ends of Table 3).
pub fn sizes() -> Vec<ByteSize> {
    vec![ByteSize::from_gb(1.1), ByteSize::from_gb(16.2)]
}

/// One sweep row.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtStripingRow {
    /// Checkpoint size.
    pub size: ByteSize,
    /// Stripe members.
    pub ways: u32,
    /// End-to-end solo persist time (seconds).
    pub persist_secs: f64,
    /// Speedup over the 1-way run of the same size.
    pub speedup: f64,
}

/// Measures the solo per-checkpoint write time at one stripe width.
pub fn measure(size: ByteSize, ways: u32) -> f64 {
    let mut cfg = SimConfig::ssd_a100(&ModelZoo::vgg16(), 2000, 2500)
        .with_strategy(StrategyCfg::pccheck(1, WRITERS))
        .with_stripe_ways(ways);
    cfg.checkpoint_size = size;
    // Finer chunks than Figure 11's m/20: the final chunk drains at the
    // per-writer cap regardless of stripe width, so a coarse tail would
    // mask the bandwidth scaling this sweep is after.
    cfg.chunk_size = ByteSize::from_bytes((size.as_u64() / 64).max(1));
    cfg.dram_chunks = 128;
    cfg.label = format!("stripe-{ways}-{size}");
    cfg.run().mean_write_time.as_secs_f64()
}

/// Runs the sweep.
pub fn run() -> Vec<ExtStripingRow> {
    let mut rows = Vec::new();
    for size in sizes() {
        let baseline = measure(size, 1);
        for ways in WAYS {
            let persist_secs = if ways == 1 {
                baseline
            } else {
                measure(size, ways)
            };
            rows.push(ExtStripingRow {
                size,
                ways,
                persist_secs,
                speedup: baseline / persist_secs,
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
pub fn write_csv<W: std::io::Write>(rows: &[ExtStripingRow], out: W) -> std::io::Result<()> {
    let mut w = CsvWriter::new(out, &["size_gb", "ways", "persist_secs", "speedup"]);
    for r in rows {
        w.row(&[
            &format_args!("{:.1}", r.size.as_gb()),
            &r.ways,
            &format_args!("{:.3}", r.persist_secs),
            &format_args!("{:.2}", r.speedup),
        ])?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn speedup_of(rows: &[ExtStripingRow], gb: f64, ways: u32) -> f64 {
        rows.iter()
            .find(|r| r.ways == ways && (r.size.as_gb() - gb).abs() < 0.01)
            .map(|r| r.speedup)
            .expect("row present")
    }

    #[test]
    fn striping_scales_persist_bandwidth() {
        let rows = run();
        for gb in [1.1, 16.2] {
            let two = speedup_of(&rows, gb, 2);
            let four = speedup_of(&rows, gb, 4);
            assert!((speedup_of(&rows, gb, 1) - 1.0).abs() < 1e-9);
            assert!(two >= 1.8, "{gb} GB: 2-way speedup {two} < 1.8");
            assert!(four > two, "{gb} GB: 4-way {four} <= 2-way {two}");
            assert!(four >= 3.0, "{gb} GB: 4-way speedup {four} < 3.0");
        }
    }

    #[test]
    fn persist_time_is_monotone_in_width() {
        let rows = run();
        for gb in [1.1, 16.2] {
            let mut times: Vec<f64> = WAYS
                .iter()
                .map(|&w| {
                    rows.iter()
                        .find(|r| r.ways == w && (r.size.as_gb() - gb).abs() < 0.01)
                        .unwrap()
                        .persist_secs
                })
                .collect();
            let sorted = {
                let mut s = times.clone();
                s.sort_by(|a, b| b.partial_cmp(a).unwrap());
                s
            };
            assert_eq!(times, sorted, "{gb} GB: wider stripe must not be slower");
            times.dedup();
            assert_eq!(times.len(), WAYS.len(), "{gb} GB: widths must differ");
        }
    }
}
