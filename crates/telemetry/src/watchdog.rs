//! The SLO watchdog: rolling-window evaluation of live telemetry against
//! configurable objectives, with black-box capture on violation.
//!
//! PCcheck's pitch is checkpointing that stays out of training's way; the
//! watchdog is the component that notices when it stops being true. An
//! [`SloWatchdog`] holds a [`Telemetry`] handle and an [`SloConfig`] of
//! thresholds — p99 commit latency, training-stall fraction, device
//! queue-depth saturation, restore-read p99 — and evaluates them over the
//! window since the previous check by diffing raw histogram buckets
//! (cumulative histograms cannot regress, so a bucket diff *is* the
//! window's sample set). On violation it:
//!
//! 1. emits an anomaly event on the existing telemetry stream, so the
//!    violation lands in the same timeline as the spans that caused it;
//! 2. captures a **black-box bundle** — `violation.json`, the full
//!    Prometheus and JSON metric expositions, a Chrome trace of the
//!    offending window, and (when wired) a flight-ring dump — into a
//!    numbered `blackbox-N/` directory under the configured results dir.
//!
//! Checks run synchronously via [`SloWatchdog::check_now`], which the tests
//! and `pccheckctl watchdog` drive.

use std::fmt;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pccheck_util::sync::Mutex;

use crate::event::Phase;
use crate::export::chrome_trace;
use crate::histogram::LatencyHistogram;
use crate::recorder::Telemetry;
use crate::registry::MetricsRegistry;

/// Schema identifier stamped into `violation.json`.
pub const BLACKBOX_SCHEMA: &str = "pccheck.blackbox.v1";

const HIST_BUCKETS: usize = 64;

/// Which service-level objective a violation tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SloRule {
    /// Window p99 of the `Commit` phase exceeded the threshold.
    CommitP99,
    /// Training-thread stall time over the window exceeded the allowed
    /// fraction.
    StallFraction,
    /// A tracked device's current submission-queue depth reached the
    /// saturation threshold.
    QueueSaturation,
    /// Window p99 of the `RestoreRead` phase exceeded the threshold.
    RestoreReadP99,
}

impl SloRule {
    /// Stable lowercase name used in `violation.json`.
    pub fn name(self) -> &'static str {
        match self {
            SloRule::CommitP99 => "commit_p99",
            SloRule::StallFraction => "stall_fraction",
            SloRule::QueueSaturation => "queue_saturation",
            SloRule::RestoreReadP99 => "restore_read_p99",
        }
    }
}

impl fmt::Display for SloRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One tripped objective: what was observed against what was allowed.
#[derive(Debug, Clone, PartialEq)]
pub struct SloViolation {
    /// The rule that tripped.
    pub rule: SloRule,
    /// Observed value (nanoseconds for latency rules, a fraction for
    /// stall, a depth for queue saturation).
    pub observed: f64,
    /// The configured threshold the observation exceeded.
    pub threshold: f64,
}

impl SloViolation {
    /// `observed / threshold`, the severity multiplier.
    pub fn ratio(&self) -> f64 {
        if self.threshold > 0.0 {
            self.observed / self.threshold
        } else {
            f64::INFINITY
        }
    }
}

/// Thresholds the watchdog evaluates each window; `None` disables a rule.
#[derive(Debug, Clone, Copy, Default)]
pub struct SloConfig {
    /// Maximum window p99 of the `Commit` phase, nanoseconds.
    pub p99_commit_nanos: Option<u64>,
    /// Maximum fraction of the window the training thread may stall.
    pub max_stall_fraction: Option<f64>,
    /// Saturation threshold on any tracked device's current
    /// submission-queue depth.
    pub max_device_queue_depth: Option<u64>,
    /// Maximum window p99 of the `RestoreRead` phase, nanoseconds.
    pub p99_restore_read_nanos: Option<u64>,
    /// Minimum samples a latency rule needs in the window before it
    /// evaluates (guards the p99 rules against noise from 1–2 samples;
    /// 0 behaves as 1).
    pub min_window_samples: u64,
}

/// Raw state captured at the end of the previous window.
struct Baseline {
    at_nanos: u64,
    commit_buckets: [u64; HIST_BUCKETS],
    restore_buckets: [u64; HIST_BUCKETS],
    stall_sum_nanos: u64,
}

/// Provider of a flight-ring dump for the black-box bundle (wired by the
/// monitor layer from the store's persistent ring; `None` entries mean
/// the ring was unreadable at capture time).
pub(crate) type FlightDumpFn = Arc<dyn Fn() -> Option<String> + Send + Sync>;

/// Rolling-window SLO evaluator with black-box capture.
pub struct SloWatchdog {
    telemetry: Telemetry,
    registry: MetricsRegistry,
    config: SloConfig,
    out_dir: PathBuf,
    baseline: Mutex<Baseline>,
    captures: AtomicU64,
    last_bundle: Mutex<Option<PathBuf>>,
    flight_dump: Option<FlightDumpFn>,
}

impl fmt::Debug for SloWatchdog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SloWatchdog")
            .field("config", &self.config)
            .field("out_dir", &self.out_dir)
            .field("captures", &self.captures.load(Ordering::Acquire))
            .field("flight_dump", &self.flight_dump.is_some())
            .finish()
    }
}

/// p-th quantile of a window's bucket diff, reported as the winning
/// bucket's inclusive upper bound (conservative: never under-reports).
fn window_quantile(diff: &[u64; HIST_BUCKETS], q: f64) -> Option<u64> {
    let total: u64 = diff.iter().sum();
    if total == 0 {
        return None;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (i, c) in diff.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return Some(LatencyHistogram::bucket_bound(i));
        }
    }
    None
}

fn bucket_diff(now: &[u64; HIST_BUCKETS], then: &[u64; HIST_BUCKETS]) -> [u64; HIST_BUCKETS] {
    std::array::from_fn(|i| now[i].saturating_sub(then[i]))
}

impl SloWatchdog {
    /// A watchdog over `telemetry`, writing black-box bundles under
    /// `out_dir` (created lazily at first capture). The first window
    /// starts now.
    pub fn new(telemetry: Telemetry, config: SloConfig, out_dir: impl Into<PathBuf>) -> Self {
        let baseline = Self::observe(&telemetry);
        SloWatchdog {
            registry: MetricsRegistry::new(telemetry.clone()),
            telemetry,
            config,
            out_dir: out_dir.into(),
            baseline: Mutex::new(baseline),
            captures: AtomicU64::new(0),
            last_bundle: Mutex::new(None),
            flight_dump: None,
        }
    }

    /// Attaches a flight-ring dump provider whose output is written to
    /// `flight.txt` inside each black-box bundle.
    #[must_use]
    pub fn with_flight_dump(
        mut self,
        dump: impl Fn() -> Option<String> + Send + Sync + 'static,
    ) -> Self {
        self.flight_dump = Some(Arc::new(dump));
        self
    }

    /// How many black-box bundles this watchdog has captured.
    pub fn captures(&self) -> u64 {
        self.captures.load(Ordering::Acquire)
    }

    /// Path of the most recently captured bundle, if any.
    pub fn last_bundle(&self) -> Option<PathBuf> {
        self.last_bundle.lock().clone()
    }

    fn observe(telemetry: &Telemetry) -> Baseline {
        match telemetry.recorder() {
            Some(r) => Baseline {
                at_nanos: telemetry.now_nanos(),
                commit_buckets: r.phase_hist(Phase::Commit).bucket_counts(),
                restore_buckets: r.phase_hist(Phase::RestoreRead).bucket_counts(),
                stall_sum_nanos: r.stall_hist().sum_nanos(),
            },
            None => Baseline {
                at_nanos: 0,
                commit_buckets: [0; HIST_BUCKETS],
                restore_buckets: [0; HIST_BUCKETS],
                stall_sum_nanos: 0,
            },
        }
    }

    /// Evaluates every configured rule over the window since the previous
    /// check, advances the window, and on violation emits an anomaly
    /// event and captures a black-box bundle. Returns the violations
    /// (empty when everything held, or telemetry is disabled).
    pub fn check_now(&self) -> Vec<SloViolation> {
        let Some(recorder) = self.telemetry.recorder() else {
            return Vec::new();
        };
        let now = Self::observe(&self.telemetry);
        let snap = recorder.snapshot();
        let mut violations = Vec::new();
        let window_start;
        {
            let mut base = self.baseline.lock();
            window_start = base.at_nanos;
            let window_nanos = now.at_nanos.saturating_sub(base.at_nanos);
            let min_samples = self.config.min_window_samples.max(1);

            if let Some(limit) = self.config.p99_commit_nanos {
                let diff = bucket_diff(&now.commit_buckets, &base.commit_buckets);
                if diff.iter().sum::<u64>() >= min_samples {
                    if let Some(p99) = window_quantile(&diff, 0.99) {
                        if p99 > limit {
                            violations.push(SloViolation {
                                rule: SloRule::CommitP99,
                                observed: p99 as f64,
                                threshold: limit as f64,
                            });
                        }
                    }
                }
            }
            if let Some(limit) = self.config.max_stall_fraction {
                if window_nanos > 0 {
                    let stall = now.stall_sum_nanos.saturating_sub(base.stall_sum_nanos);
                    let fraction = stall as f64 / window_nanos as f64;
                    if fraction > limit {
                        violations.push(SloViolation {
                            rule: SloRule::StallFraction,
                            observed: fraction,
                            threshold: limit,
                        });
                    }
                }
            }
            if let Some(limit) = self.config.max_device_queue_depth {
                let depth = snap
                    .device_queue_depth
                    .iter()
                    .copied()
                    .max()
                    .unwrap_or(0)
                    .max(snap.queue_depth);
                if depth >= limit {
                    violations.push(SloViolation {
                        rule: SloRule::QueueSaturation,
                        observed: depth as f64,
                        threshold: limit as f64,
                    });
                }
            }
            if let Some(limit) = self.config.p99_restore_read_nanos {
                let diff = bucket_diff(&now.restore_buckets, &base.restore_buckets);
                if diff.iter().sum::<u64>() >= min_samples {
                    if let Some(p99) = window_quantile(&diff, 0.99) {
                        if p99 > limit {
                            violations.push(SloViolation {
                                rule: SloRule::RestoreReadP99,
                                observed: p99 as f64,
                                threshold: limit as f64,
                            });
                        }
                    }
                }
            }
            *base = now;
        }
        if !violations.is_empty() {
            let worst = violations
                .iter()
                .max_by(|a, b| a.ratio().total_cmp(&b.ratio()))
                .expect("non-empty");
            self.telemetry
                .anomaly(0, worst.observed, worst.threshold, worst.ratio());
            if let Err(e) = self.capture(&violations, window_start) {
                // Capture failures must not take down the workload the
                // watchdog observes; the count/last-bundle state simply
                // doesn't advance.
                eprintln!("pccheck watchdog: black-box capture failed: {e}");
            }
        }
        violations
    }

    /// Writes one black-box bundle and returns its directory.
    fn capture(&self, violations: &[SloViolation], window_start: u64) -> Result<PathBuf, String> {
        let seq = self.captures.fetch_add(1, Ordering::AcqRel);
        let dir = self.out_dir.join(format!("blackbox-{seq}"));
        fs::create_dir_all(&dir).map_err(|e| e.to_string())?;

        let window_end = self.telemetry.now_nanos();
        let mut vjson = format!(
            "{{\"schema\":\"{BLACKBOX_SCHEMA}\",\"window_start_nanos\":{window_start},\
             \"window_end_nanos\":{window_end},\"violations\":["
        );
        for (i, v) in violations.iter().enumerate() {
            if i > 0 {
                vjson.push(',');
            }
            vjson.push_str(&format!(
                "{{\"rule\":\"{}\",\"observed\":{},\"threshold\":{}}}",
                v.rule.name(),
                v.observed,
                v.threshold
            ));
        }
        vjson.push_str("]}\n");
        fs::write(dir.join("violation.json"), vjson).map_err(|e| e.to_string())?;

        fs::write(dir.join("metrics.prom"), self.registry.prometheus_text())
            .map_err(|e| e.to_string())?;
        fs::write(dir.join("metrics.json"), self.registry.json()).map_err(|e| e.to_string())?;

        // Chrome trace of the offending window only.
        let window: Vec<_> = self
            .telemetry
            .events()
            .into_iter()
            .filter(|e| e.at_nanos >= window_start)
            .collect();
        fs::write(dir.join("trace.json"), chrome_trace(&window)).map_err(|e| e.to_string())?;

        if let Some(dump) = &self.flight_dump {
            if let Some(text) = dump() {
                fs::write(dir.join("flight.txt"), text).map_err(|e| e.to_string())?;
            }
        }

        *self.last_bundle.lock() = Some(dir.clone());
        Ok(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, SpanId};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pccheck-watchdog-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn quiet_run_trips_nothing() {
        let t = Telemetry::enabled();
        let wd = SloWatchdog::new(
            t.clone(),
            SloConfig {
                p99_commit_nanos: Some(u64::MAX),
                max_stall_fraction: Some(1.0),
                max_device_queue_depth: Some(u64::MAX),
                p99_restore_read_nanos: Some(u64::MAX),
                min_window_samples: 1,
            },
            temp_dir("quiet"),
        );
        let span = t.span_requested("pccheck", 1, 64);
        let s = t.now_nanos();
        t.phase_done(span, Phase::Commit, s);
        t.committed(span, 1, 64);
        assert!(wd.check_now().is_empty());
        assert_eq!(wd.captures(), 0);
        assert!(wd.last_bundle().is_none());
    }

    #[test]
    fn disabled_telemetry_never_fires() {
        let wd = SloWatchdog::new(
            Telemetry::disabled(),
            SloConfig {
                max_stall_fraction: Some(0.0),
                ..SloConfig::default()
            },
            temp_dir("disabled"),
        );
        assert!(wd.check_now().is_empty());
    }

    #[test]
    fn stall_violation_captures_complete_bundle() {
        let t = Telemetry::enabled();
        let dir = temp_dir("stall");
        let wd = SloWatchdog::new(
            t.clone(),
            SloConfig {
                max_stall_fraction: Some(0.05),
                ..SloConfig::default()
            },
            &dir,
        )
        .with_flight_dump(|| Some("#0 begin\n#1 commit\n".to_string()));

        // A span whose stall dominates the window.
        let span = t.span_requested("pccheck", 1, 64);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let stall = t.now_nanos(); // ~the whole window so far
        t.stall(span, stall);
        t.committed(span, 1, 64);

        let violations = wd.check_now();
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].rule, SloRule::StallFraction);
        assert!(violations[0].observed > 0.05);
        assert!(violations[0].ratio() > 1.0);

        let bundle = wd.last_bundle().expect("bundle captured");
        assert_eq!(wd.captures(), 1);
        for file in [
            "violation.json",
            "metrics.prom",
            "metrics.json",
            "trace.json",
            "flight.txt",
        ] {
            let path = bundle.join(file);
            let body = fs::read_to_string(&path).unwrap_or_else(|e| {
                panic!("missing {}: {e}", path.display());
            });
            assert!(!body.is_empty(), "{file} is empty");
        }
        let vjson = fs::read_to_string(bundle.join("violation.json")).unwrap();
        assert!(vjson.contains(BLACKBOX_SCHEMA));
        assert!(vjson.contains("\"rule\":\"stall_fraction\""));
        let prom = fs::read_to_string(bundle.join("metrics.prom")).unwrap();
        assert!(crate::registry::validate_prometheus_text(&prom).is_ok());

        // The violation was merged into the event stream as an anomaly.
        assert!(t
            .events()
            .iter()
            .any(|e| matches!(e.kind, EventKind::Anomaly { .. })));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn commit_p99_rule_uses_only_the_window() {
        let t = Telemetry::enabled();
        let dir = temp_dir("p99");
        let wd = SloWatchdog::new(
            t.clone(),
            SloConfig {
                p99_commit_nanos: Some(1_000_000), // 1 ms
                min_window_samples: 3,
                ..SloConfig::default()
            },
            &dir,
        );
        let r = t.recorder().expect("enabled");
        // Three slow commits in this window.
        for _ in 0..3 {
            r.phase_hist(Phase::Commit).record(50_000_000);
        }
        let violations = wd.check_now();
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].rule, SloRule::CommitP99);

        // Next window has only fast commits: the old slow samples must not
        // leak in through the cumulative histogram.
        for _ in 0..5 {
            r.phase_hist(Phase::Commit).record(1_000);
        }
        assert!(wd.check_now().is_empty(), "old window leaked");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn queue_saturation_trips_on_current_depth() {
        let t = Telemetry::enabled();
        let dir = temp_dir("queue");
        let wd = SloWatchdog::new(
            t.clone(),
            SloConfig {
                max_device_queue_depth: Some(4),
                ..SloConfig::default()
            },
            &dir,
        );
        t.gauge_device_queue(1, 3);
        assert!(wd.check_now().is_empty());
        t.gauge_device_queue(1, 6);
        let violations = wd.check_now();
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].rule, SloRule::QueueSaturation);
        assert_eq!(violations[0].observed, 6.0);
        // Depth falling back below the limit clears the condition.
        t.gauge_device_queue(1, 0);
        assert!(wd.check_now().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn window_quantile_walks_buckets() {
        let mut diff = [0u64; HIST_BUCKETS];
        assert_eq!(window_quantile(&diff, 0.99), None);
        diff[9] = 99; // [512, 1024)
        diff[20] = 1; // one outlier
        assert_eq!(window_quantile(&diff, 0.5), Some(1023));
        assert_eq!(
            window_quantile(&diff, 1.0),
            Some(LatencyHistogram::bucket_bound(20))
        );
        let _ = SpanId::NONE;
    }
}
