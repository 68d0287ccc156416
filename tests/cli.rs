//! `pccheckctl`'s argument handling, run as the built binary: an argument
//! that does not parse, or one a command does not take, is a usage error
//! (exit 2, naming the argument) caught before the command does anything.

use std::path::PathBuf;
use std::process::Command;

/// A store path under the temp dir that no earlier run left behind.
fn fresh_store(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("pccheck-cli-{tag}-{}.pcc", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn malformed_or_extra_arguments_exit_2_naming_the_argument_before_any_work() {
    for (tag, command, tail, named) in [
        ("demo", "demo", &["1O"][..], "<iterations> \"1O\""),
        ("recover", "recover", &["four"][..], "<readers> \"four\""),
        ("info", "info", &["extra", "junk"][..], "\"extra\""),
    ] {
        let store = fresh_store(tag);
        let out = Command::new(env!("CARGO_BIN_EXE_pccheckctl"))
            .arg(command)
            .arg(&store)
            .args(tail)
            .output()
            .expect("pccheckctl runs");
        let (stdout, stderr) = (
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr),
        );
        assert_eq!(out.status.code(), Some(2), "{command} {tail:?}: {stderr}");
        assert!(stderr.contains(named), "{command} {tail:?}: {stderr}");
        // Rejected before anything ran: no training, no store file.
        assert!(stdout.is_empty(), "{command} {tail:?} printed {stdout}");
        assert!(!store.exists(), "{command} {tail:?} created {store:?}");
    }
}
