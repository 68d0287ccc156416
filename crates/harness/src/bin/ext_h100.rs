//! Extension: OPT-1.3B on the Azure H100/NVMe testbed vs A100/pd-ssd.
use pccheck_harness::{ext_h100, result_path};

fn main() -> std::io::Result<()> {
    let rows = ext_h100::run();
    println!("Extension — H100/NVMe variant (SS5.2.1): same patterns, double the speed");
    println!(
        "{:>20} {:>14} {:>9} {:>12} {:>10}",
        "testbed", "strategy", "interval", "throughput", "slowdown"
    );
    for r in &rows {
        println!(
            "{:>20} {:>14} {:>9} {:>12.4} {:>10.3}",
            r.model, r.strategy, r.interval, r.throughput, r.slowdown
        );
    }
    let path = result_path("ext_h100.csv");
    ext_h100::write_csv(&rows, std::fs::File::create(&path)?)?;
    println!("wrote {}", path.display());
    Ok(())
}
