//! `pccheckctl` and `pccheckd`, run as the built binaries: an argument that
//! does not parse, or one a command does not take, is a usage error (exit
//! 2, naming the argument) caught before the command does anything; a
//! reader that closes `pccheckctl`'s output early ends it quietly;
//! `info` shows the head frame's record mix; and `telemetry` runs every
//! strategy by name.

use std::path::PathBuf;
use std::process::{Command, Stdio};

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

#[test]
fn pccheckd_rejects_a_malformed_or_extra_argument_before_any_daemon_starts() {
    for (args, named) in [
        (&["smoke", "4x"][..], "<jobs> \"4x\""),
        (
            &["serve", "127.0.0.1:0", "127.0.0.1:0", "4x"][..],
            "<jobs> \"4x\"",
        ),
        (&["smoke", "4", "extra"][..], "\"extra\""),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_pccheckd"))
            .args(args)
            .output()
            .expect("pccheckd runs");
        let (stdout, stderr) = (
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr),
        );
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(named), "{args:?}: {stderr}");
        // No daemon: it would have printed its endpoints first.
        assert!(stdout.is_empty(), "{args:?} printed {stdout}");
    }
}

/// Runs `pccheckctl <args>` with its standard output piped, reads one line
/// of it and closes the pipe: what `| head -1` does.
fn first_line_then_close(args: &[&std::ffi::OsStr]) -> (String, std::process::Output) {
    use std::io::BufRead;
    let mut child = Command::new(env!("CARGO_BIN_EXE_pccheckctl"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("pccheckctl runs");
    let mut line = String::new();
    let stdout = child.stdout.take().expect("piped");
    std::io::BufReader::new(stdout)
        .read_line(&mut line)
        .expect("one line");
    // The reader is dropped here: the pipe is closed.
    (line, child.wait_with_output().expect("pccheckctl exits"))
}

#[test]
fn a_reader_that_stops_reading_ends_the_command_quietly() {
    let store = fresh_store("pipe");
    let demo = Command::new(env!("CARGO_BIN_EXE_pccheckctl"))
        .arg("demo")
        .arg(&store)
        .arg("10")
        .output()
        .expect("pccheckctl demo runs");
    assert!(demo.status.success(), "{demo:?}");
    for command in ["info", "recover"] {
        let (line, out) = first_line_then_close(&[command.as_ref(), store.as_os_str()]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!line.is_empty(), "{command}: no first line");
        assert!(!stderr.contains("panicked"), "{command}: {stderr}");
        assert_ne!(out.status.code(), Some(101), "{command}: {stderr}");
    }
    let _ = std::fs::remove_file(&store);
}

#[test]
fn info_prints_the_head_frames_record_mix() {
    let store = fresh_store("mix");
    let image = Command::new(env!("CARGO_BIN_EXE_pccheckctl"))
        .arg("crashdemo")
        .arg(&store)
        .arg("46")
        .output()
        .expect("pccheckctl crashdemo runs");
    assert!(image.status.success(), "{image:?}");
    let out = Command::new(env!("CARGO_BIN_EXE_pccheckctl"))
        .arg("info")
        .arg(&store)
        .output()
        .expect("pccheckctl info runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    // The crash demo's last mutation writes the second half of chunk 1 of
    // eight: the head frame is cut there, nine records.
    let mix = stdout
        .lines()
        .find(|l| l.trim_start().starts_with("head frame:"))
        .unwrap_or_else(|| panic!("no record mix in {stdout}"));
    assert!(mix.contains("9 records"), "{mix}");
    for encoding in ["Raw", "Lz", "DedupSelf", "DedupBase"] {
        assert!(mix.contains(encoding), "{encoding} missing from {mix}");
    }
    let _ = std::fs::remove_file(&store);
}

#[test]
fn telemetry_runs_every_strategy_and_names_them_for_an_unknown_one() {
    const NAMES: [&str; 5] = ["pccheck", "traditional", "checkfreq", "gpm", "gemini"];
    for name in NAMES {
        let dir = std::env::temp_dir().join(format!(
            "pccheck-cli-telemetry-{name}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let out = Command::new(env!("CARGO_BIN_EXE_pccheckctl"))
            .arg("telemetry")
            .arg(&dir)
            .arg(name)
            .output()
            .expect("pccheckctl runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{name}: {stderr}");
        for file in ["summary.txt", "events.jsonl", "trace.json"] {
            let len = std::fs::metadata(dir.join(file)).map_or(0, |m| m.len());
            assert!(len > 0, "{name}: {file} is missing or empty");
        }
        let events = std::fs::read_to_string(dir.join("events.jsonl")).expect("events");
        assert!(events.contains("committed"), "{name}: no commit traced");
        std::fs::remove_dir_all(&dir).expect("the run's directory");
    }
    let dir = std::env::temp_dir().join(format!(
        "pccheck-cli-telemetry-unknown-{}",
        std::process::id()
    ));
    let out = Command::new(env!("CARGO_BIN_EXE_pccheckctl"))
        .arg("telemetry")
        .arg(&dir)
        .arg("dynamo")
        .output()
        .expect("pccheckctl runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("<strategy> \"dynamo\""), "{stderr}");
    for name in NAMES {
        assert!(stderr.contains(name), "{stderr} does not name {name}");
    }
    // Rejected before anything ran: no training, no output directory.
    assert!(out.stdout.is_empty(), "an unknown strategy printed");
    assert!(!dir.exists(), "a rejected strategy wrote {dir:?}");
}
