//! The checked-in `results/` are what the experiments write.
//!
//! Every seeded experiment of `pccheck_harness::EXPERIMENTS` runs
//! in-process and its CSV must equal the checked-in file byte for byte, so
//! a change to what a simulation, a trace replay or the codec computes
//! shows up here before it shows up in a regenerated file. Regenerate one
//! with `cargo run --release -p pccheck-harness --bin all_experiments
//! <name>`.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use pccheck_harness::EXPERIMENTS;

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// The first line where `ran` and `pinned` differ, 1-based, with both
/// sides.
fn first_difference(ran: &str, pinned: &str) -> String {
    let mut ran_lines = ran.lines();
    let mut pinned_lines = pinned.lines();
    for line in 1.. {
        match (ran_lines.next(), pinned_lines.next()) {
            (Some(a), Some(b)) if a == b => continue,
            (None, None) => break,
            (a, b) => return format!("line {line}: wrote {a:?}, checked in {b:?}"),
        }
    }
    "the line endings differ".to_string()
}

#[test]
fn every_seeded_experiment_writes_its_checked_in_csv_byte_for_byte() {
    let mut stale = Vec::new();
    for experiment in EXPERIMENTS.iter().filter(|e| e.seeded) {
        let mut ran = Vec::new();
        (experiment.write)(&mut ran).expect("writing to memory");
        let ran = String::from_utf8(ran).expect("CSV is UTF-8");
        let path = results_dir().join(experiment.csv);
        let pinned = std::fs::read_to_string(&path)
            .unwrap_or_else(|err| panic!("{}: {err}", path.display()));
        if ran != pinned {
            stale.push(format!(
                "{} ({}): {}",
                experiment.name,
                experiment.csv,
                first_difference(&ran, &pinned)
            ));
        }
    }
    assert!(
        stale.is_empty(),
        "checked-in results differ from what the code writes:\n{}",
        stale.join("\n")
    );
}

#[test]
fn every_results_csv_is_written_by_exactly_one_experiment() {
    let names: BTreeSet<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    assert_eq!(names.len(), EXPERIMENTS.len(), "an experiment name repeats");
    let written: BTreeSet<String> = EXPERIMENTS.iter().map(|e| e.csv.to_string()).collect();
    assert_eq!(
        written.len(),
        EXPERIMENTS.len(),
        "two experiments write one file"
    );
    let checked_in: BTreeSet<String> = std::fs::read_dir(results_dir())
        .expect("results/ is checked in")
        .map(|entry| entry.expect("directory entry").file_name())
        .filter_map(|name| name.into_string().ok())
        .filter(|name| name.ends_with(".csv"))
        .collect();
    assert_eq!(
        checked_in, written,
        "every CSV under results/ is one experiment's, and every experiment's is checked in"
    );
}
