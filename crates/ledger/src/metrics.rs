//! Metric declarations: every end-to-end metric with its unit, direction
//! and regression bound, and the shape of a measured result.
//!
//! `BENCHMARK.json` at the repository root lists the subset the driver
//! bounds (the metrics every workload can define); a unit test keeps the
//! two in step.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: what a user of the checkpoint path feels.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the reference value by which the metric may worsen
    /// before `diff` calls it `worse`.
    pub bound: f64,
    /// A change smaller than this (in the metric's unit) is never a
    /// regression, whatever its share — keeps millisecond-sized set-ups
    /// from tripping a relative bound.
    pub abs_floor: f64,
}

/// The ledger's end-to-end metrics.
///
/// Every timing carries 25%, the most the benchmark driver accepts: on
/// the shared 2-core sandbox ten identical runs spread (IQR ÷ median) by
/// 3–9% in a quiet hour and 15–24% in a busy one, and a bound is only
/// useful at about three times the spread. Counts that repeat exactly
/// keep tight bounds. The README records the spreads next to each bound.
pub const END_TO_END: [EndToEnd; 10] = [
    metric("setup_s", "s", Better::Lower, 0.25, 0.25),
    metric("train_iter_per_s", "1/s", Better::Higher, 0.25, 0.0),
    metric("stall_ms_p50", "ms", Better::Lower, 0.25, 0.0),
    metric("stall_frac", "ratio", Better::Lower, 0.25, 0.0),
    metric("persist_ms_p50", "ms", Better::Lower, 0.25, 0.0),
    metric("goodput_mb_per_s", "MB/s", Better::Higher, 0.25, 0.0),
    metric("write_amp", "ratio", Better::Lower, 0.02, 0.0),
    metric("recover_ms_p10", "ms", Better::Lower, 0.25, 0.0),
    metric("peak_rss_mb", "MB", Better::Lower, 0.20, 0.0),
    // Any increase is a regression: the bound is zero.
    metric("failed_frac", "ratio", Better::Lower, 0.0, 0.0),
];

const fn metric(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    abs_floor: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        abs_floor,
    }
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Accumulates one run's metrics and verification verdicts.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Operations whose outcome was checked: checkpoints requested,
    /// recoveries, digest comparisons.
    pub attempted: u64,
    /// Of those, how many failed. The in-flight crash's own deliberately
    /// killed checkpoint is not counted.
    pub failed: u64,
    /// One line per failed verification.
    pub problems: Vec<String>,
}

impl Report {
    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

pub const MB: f64 = 1e6;

/// `bytes` moved in `secs`, as MB/s (10^6 bytes per second).
pub fn mb_per_s(bytes: u64, secs: f64) -> f64 {
    bytes as f64 / MB / secs
}
