//! End-to-end critical-path profiler: a real checkpointed run through the
//! canonical profiled workload must yield a ledger whose writer legs
//! account for the Persist span, the differ must flag a throttled run with
//! the right blame, and the checked-in CI baseline must both parse and
//! accept a healthy run in shares mode — the exact sequence the
//! `profile-regression` CI job executes through `pccheckctl`.

use pccheck_harness::profile_run::{archive, run_profiled, ProfileRunConfig};
use pccheck_telemetry::{
    diff_profiles, render_diff, render_profile, DiffMode, DiffThresholds, RunProfile,
};

/// Coverage floor for the e2e check: 0.9 (writer legs within 10% of the
/// Persist span) less a small cushion, since one rep is not a median.
const COVERAGE_FLOOR: f64 = 0.85;

#[test]
fn profiled_run_attributes_persist_time_to_writer_legs() {
    // What the writer and member legs leave uncovered is a fixed cost per
    // commit (spawning and joining the writers, tens of microseconds), so
    // coverage only says something when the persist window dwarfs it: the
    // deep throttle makes each persist ~16 ms, where the CI-gate geometry's
    // ~0.25 ms window measured the host's thread-spawn latency instead.
    let cfg = ProfileRunConfig {
        member_mb_per_sec: Some(4.0),
        ..ProfileRunConfig::default()
    };
    let run = run_profiled("e2e_coverage", &cfg).expect("profiled run");
    assert!(run.profile.commits >= 3, "{:?}", run.profile);
    let coverage = run
        .profile
        .persist_coverage_median
        .expect("striped run reports persist coverage");
    assert!(
        coverage >= COVERAGE_FLOOR,
        "writer-leg union covers {coverage:.3} of the Persist span (floor {COVERAGE_FLOOR})"
    );
    assert!(
        run.profile.writer_imbalance_median.is_some(),
        "multi-writer run reports imbalance"
    );
    assert!(
        run.profile.critical_share("persist") > 0.0,
        "persist must appear on the critical path"
    );
    // The console view names the run and its heaviest actors.
    let text = render_profile(&run.profile);
    assert!(text.contains("e2e_coverage"));
    assert!(text.contains("persist"));
}

#[test]
fn differ_flags_throttled_run_and_passes_self_diff() {
    let fast = run_profiled("e2e_fast", &ProfileRunConfig::default()).expect("fast run");
    let slow = run_profiled(
        "e2e_slow",
        &ProfileRunConfig {
            // Deep throttle: ~16 ms persist per commit, so the contrast
            // against the fast arm dwarfs scheduler noise even when the
            // suite's tests time-share a single core.
            member_mb_per_sec: Some(4.0),
            ..ProfileRunConfig::default()
        },
    )
    .expect("throttled run");
    let th = DiffThresholds::default();

    let flagged = diff_profiles(&fast.profile, &slow.profile, DiffMode::Absolute, &th);
    assert!(flagged.regressed, "throttled run must flag");
    assert_eq!(
        flagged.blamed_phase.as_deref(),
        Some("persist"),
        "blame lands on the persist phase"
    );
    let actor = flagged
        .blamed_actor
        .clone()
        .expect("persist blame names the heaviest device/writer lane");
    assert!(
        actor.starts_with("writer-") || actor.starts_with("stripe-"),
        "blamed actor {actor:?} is a persist-side lane"
    );
    assert!(render_diff(&flagged).contains("REGRESSION"));

    let clean = diff_profiles(&fast.profile, &fast.profile, DiffMode::Absolute, &th);
    assert!(!clean.regressed, "self-diff must be clean");
    assert!(render_diff(&clean).contains("PASS"));
}

#[test]
fn archive_roundtrips_profiles_through_disk() {
    let run = run_profiled("e2e_archive", &ProfileRunConfig::default()).expect("profiled run");
    let archive = archive().expect("open archive");
    let path = archive.store(&run.profile).expect("store profile");
    assert!(path.ends_with("e2e_archive.profile.json"));
    // The stored document parses standalone, exactly as `pccheckctl
    // profile <file>` loads it.
    let text = std::fs::read_to_string(&path).expect("read stored profile");
    let parsed = RunProfile::from_json(&text).expect("stored profile parses");
    assert_eq!(parsed.run, "e2e_archive");
    assert_eq!(parsed.commits, run.profile.commits);
    assert_eq!(parsed.phases.len(), run.profile.phases.len());
    let _ = std::fs::remove_file(path);
}

#[test]
fn ci_baseline_parses_and_accepts_a_healthy_run_in_shares_mode() {
    // Under cargo the manifest dir is the repo root; a bare `rustc --test`
    // build (offline verification) runs from the repo root instead.
    let root = option_env!("CARGO_MANIFEST_DIR").unwrap_or(".");
    let text = std::fs::read_to_string(format!("{root}/results/profiles/baseline.profile.json"))
        .expect("checked-in baseline exists");
    let baseline = RunProfile::from_json(&text).expect("baseline parses");
    assert_eq!(baseline.run, "baseline");
    // The envelope is deliberately generous: persist's allowed share is
    // high enough that the dominant phase can never false-positive.
    assert!(baseline.critical_share("persist") >= 0.8);

    let healthy = run_profiled("e2e_ci_gate", &ProfileRunConfig::ci_gate()).expect("gate run");
    let d = diff_profiles(
        &baseline,
        &healthy.profile,
        DiffMode::Shares,
        &DiffThresholds::default(),
    );
    assert!(
        !d.regressed,
        "healthy gate run must pass the shares envelope: {}",
        render_diff(&d)
    );
}
