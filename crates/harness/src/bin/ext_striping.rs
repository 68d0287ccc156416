//! Extension: striped-device sweep of the Figure-11 persist micro-benchmark.
use pccheck_harness::{ext_striping, result_path};

fn main() -> std::io::Result<()> {
    let rows = ext_striping::run();
    println!("Extension — persist time vs RAID-0 stripe width (Figure 11 microbenchmark)");
    println!(
        "{:>8} {:>5} {:>13} {:>8}",
        "size_gb", "ways", "persist_secs", "speedup"
    );
    for r in &rows {
        println!(
            "{:>8.1} {:>5} {:>13.3} {:>8.2}",
            r.size.as_gb(),
            r.ways,
            r.persist_secs,
            r.speedup
        );
    }
    let path = result_path("ext_striping.csv");
    ext_striping::write_csv(&rows, std::fs::File::create(&path)?)?;
    println!("wrote {}", path.display());
    Ok(())
}
