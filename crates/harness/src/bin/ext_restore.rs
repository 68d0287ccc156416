//! Extension: parallel-restore sweep — recovery latency vs readers × stripe width.
use pccheck_harness::{ext_restore, result_path};

fn main() -> std::io::Result<()> {
    let rows = ext_restore::run();
    println!("Extension — restore time vs reader count and stripe width");
    println!(
        "{:>8} {:>5} {:>8} {:>13} {:>8}",
        "size_mb", "ways", "readers", "restore_secs", "speedup"
    );
    for r in &rows {
        println!(
            "{:>8.1} {:>5} {:>8} {:>13.4} {:>8.2}",
            r.size.as_mb(),
            r.ways,
            r.readers,
            r.restore_secs,
            r.speedup
        );
    }
    let path = result_path("ext_restore.csv");
    ext_restore::write_csv(&rows, std::fs::File::create(&path)?)?;
    println!("wrote {}", path.display());
    Ok(())
}
