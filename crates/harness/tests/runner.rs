//! The `all_experiments` runner: names select rows of `EXPERIMENTS`, and
//! anything else is refused before an experiment runs.

use std::path::PathBuf;
use std::process::Command;

use pccheck_harness::EXPERIMENTS;

fn runner() -> Command {
    Command::new(env!("CARGO_BIN_EXE_all_experiments"))
}

/// A fresh, empty working directory for one run of the runner.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pccheck-runner-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn an_unknown_name_exits_nonzero_listing_every_valid_name() {
    let dir = scratch_dir("unknown");
    let out = runner()
        .args(["fig9", "fig99"])
        .current_dir(&dir)
        .output()
        .expect("run all_experiments");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("`fig99`"), "{stderr}");
    for experiment in &EXPERIMENTS {
        assert!(stderr.contains(experiment.name), "{stderr}");
    }
    assert!(
        !dir.join("results").exists(),
        "nothing runs when one name is unknown"
    );
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}

#[test]
fn a_named_experiment_writes_only_its_own_csv() {
    let dir = scratch_dir("fig9");
    let out = runner()
        .arg("fig9")
        .current_dir(&dir)
        .output()
        .expect("run all_experiments");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let written: Vec<String> = std::fs::read_dir(dir.join("results"))
        .expect("results/ written")
        .map(|entry| {
            entry
                .expect("entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    assert_eq!(written, ["fig9_goodput.csv"]);
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}
