//! Extension: just-in-time checkpointing vs PCcheck under bulk preemptions.
use pccheck_harness::{ext_jit, result_path};

fn main() -> std::io::Result<()> {
    let rows = ext_jit::run(42);
    println!("Extension — JIT checkpointing vs PCcheck (SS2.2's bulky-preemption argument)");
    println!(
        "{:>11} {:>13} {:>17}",
        "burst_prob", "jit_goodput", "pccheck_goodput"
    );
    for r in &rows {
        println!(
            "{:>11.1} {:>13.5} {:>17.5}",
            r.burst_prob, r.jit_goodput, r.pccheck_goodput
        );
    }
    let path = result_path("ext_jit.csv");
    ext_jit::write_csv(&rows, std::fs::File::create(&path)?)?;
    println!("wrote {}", path.display());
    Ok(())
}
