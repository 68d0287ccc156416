//! Runs the experiments of `pccheck_harness::EXPERIMENTS` and writes each
//! one's CSV under `results/`: every experiment, or those named.
//!
//! ```text
//! all_experiments            # all of them
//! all_experiments <name>...  # only these
//! ```
//!
//! An unknown name exits 2 before anything runs and lists the valid ones.

use std::io::Write;
use std::process::ExitCode;

use pccheck_harness::{result_path, Experiment, EXPERIMENTS};

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = names
        .iter()
        .find(|name| !EXPERIMENTS.iter().any(|e| e.name == name.as_str()))
    {
        let valid: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        eprintln!(
            "all_experiments: unknown experiment `{unknown}`; valid names: {}",
            valid.join(" ")
        );
        return ExitCode::from(2);
    }
    let picked = EXPERIMENTS
        .iter()
        .filter(|e| names.is_empty() || names.iter().any(|name| name == e.name));
    for experiment in picked {
        if let Err(err) = write(experiment) {
            eprintln!("all_experiments: {}: {err}", experiment.name);
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Runs one experiment into its file under `results/`.
fn write(experiment: &Experiment) -> std::io::Result<()> {
    let path = result_path(experiment.csv);
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    (experiment.write)(&mut out)?;
    out.flush()?;
    println!("wrote {}", path.display());
    Ok(())
}
