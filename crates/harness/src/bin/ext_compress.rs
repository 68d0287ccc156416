//! Extension: chunk-codec compressibility × dedup-hit-rate sweep.
use pccheck_harness::{ext_compress, result_path};

fn main() -> std::io::Result<()> {
    let rows = ext_compress::run();
    println!("Extension — chunk codec: persist bytes vs compressibility and update sparsity");
    println!(
        "{:>7} {:>9} {:>12} {:>13} {:>15} {:>12} {:>7} {:>12} {:>10}",
        "period",
        "sparsity",
        "checkpoints",
        "logical_bytes",
        "persisted_bytes",
        "saved_ratio",
        "framed",
        "dedup_chunks",
        "recovered"
    );
    for r in &rows {
        println!(
            "{:>7} {:>9.2} {:>12} {:>13} {:>15} {:>12.2} {:>7} {:>12} {:>10}",
            r.payload,
            r.sparsity,
            r.checkpoints,
            r.logical_bytes,
            r.persisted_bytes,
            r.bytes_saved_ratio,
            r.framed,
            r.dedup_chunks,
            r.recovered_bit_identical
        );
    }
    let path = result_path("ext_compress.csv");
    ext_compress::write_csv(&rows, std::fs::File::create(&path)?)?;
    println!("wrote {}", path.display());
    Ok(())
}
