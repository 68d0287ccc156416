//! `pccheck-ledger diff A.json B.json`: B measured against A, one row per
//! workload × end-to-end metric, each judged by the metric's own
//! direction and bound.

use crate::doc::LedgerDoc;
use crate::metrics::{Better, EndToEnd, END_TO_END};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// One side's own run-to-run spread exceeds the bound, so a change
    /// of that size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub unit: &'static str,
    pub a: f64,
    pub b: f64,
    /// Signed so that positive is worse: the share of `a` by which `b`
    /// moved in the bad direction.
    pub worsening: f64,
    pub spread: f64,
    pub verdict: Verdict,
}

/// `b` judged against `a`: the share of `a` by which `b` is worse
/// (negative when better) and the verdict under `spec`'s bound.
pub fn judge(spec: &EndToEnd, a: f64, b: f64, spread: f64) -> (f64, Verdict) {
    let bad = match spec.better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    // From a reference of zero any move is an infinite share.
    let worsening = if bad == 0.0 { 0.0 } else { bad / a.abs() };
    let verdict = if bad.abs() <= spec.abs_floor {
        Verdict::Same
    } else if spread > spec.bound && spec.bound > 0.0 {
        Verdict::Unresolved
    } else if worsening > spec.bound {
        Verdict::Worse
    } else if worsening < -spec.bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (worsening, verdict)
}

/// Rows for every workload and end-to-end metric both documents hold.
///
/// # Errors
///
/// Refuses to compare documents built or run differently: numbers from a
/// registry build and from the offline stubs, or taken under different
/// allocator settings, are not comparable.
pub fn diff(a: &LedgerDoc, b: &LedgerDoc) -> Result<Vec<Row>, String> {
    for key in ["build_mode", "nproc", "malloc"] {
        if a.env(key) != b.env(key) {
            return Err(format!(
                "{key} differs ({:?} vs {:?}): results compare only within one {key}",
                a.env(key),
                b.env(key)
            ));
        }
    }
    let mut rows = Vec::new();
    for wa in &a.workloads {
        let Some(wb) = b.workload(&wa.name) else {
            continue;
        };
        for spec in &END_TO_END {
            let (Some(va), Some(vb)) = (wa.untraced.get(spec.name), wb.untraced.get(spec.name))
            else {
                continue;
            };
            let spread = va.spread.unwrap_or(0.0).max(vb.spread.unwrap_or(0.0));
            let (worsening, verdict) = judge(spec, va.value, vb.value, spread);
            rows.push(Row {
                workload: wa.name.clone(),
                metric: spec.name,
                unit: spec.unit,
                a: va.value,
                b: vb.value,
                worsening,
                spread,
                verdict,
            });
        }
    }
    Ok(rows)
}

pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<16} {:<18} {:>12} {:>12} {:>9} {:>8}  verdict\n",
        "workload", "metric", "A", "B", "worse by", "spread"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<16} {:<18} {:>12.4} {:>12.4} {:>8.1}% {:>7.1}%  {} ({})\n",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worsening * 100.0,
            r.spread * 100.0,
            r.verdict.name(),
            r.unit
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc::tests::{ledger, run_doc};

    fn verdicts(a: &LedgerDoc, b: &LedgerDoc) -> Vec<(&'static str, Verdict)> {
        diff(a, b)
            .unwrap()
            .into_iter()
            .map(|r| (r.metric, r.verdict))
            .collect()
    }

    #[test]
    fn direction_bound_floor_and_spread_decide_a_verdict() {
        let spec = |better, bound, abs_floor| EndToEnd {
            name: "m",
            unit: "u",
            better,
            bound,
            abs_floor,
        };
        let lower = spec(Better::Lower, 0.10, 0.0);
        let higher = spec(Better::Higher, 0.10, 0.0);
        assert_eq!(judge(&lower, 70.0, 50.0, 0.0).1, Verdict::Better);
        assert_eq!(judge(&lower, 70.0, 80.0, 0.0).1, Verdict::Worse);
        assert_eq!(judge(&lower, 70.0, 75.0, 0.0).1, Verdict::Same);
        assert_eq!(judge(&higher, 100.0, 85.0, 0.0).1, Verdict::Worse);
        assert_eq!(judge(&higher, 100.0, 120.0, 0.0).1, Verdict::Better);
        // Either side's own spread above the bound: cannot tell.
        assert_eq!(judge(&lower, 60.0, 90.0, 0.3).1, Verdict::Unresolved);
        // +40% but only 0.2 s: under a 0.25 s floor it is not a change.
        assert_eq!(
            judge(&spec(Better::Lower, 0.25, 0.25), 0.5, 0.7, 0.0).1,
            Verdict::Same
        );
        // A zero bound means any increase is a regression, from zero too.
        let any = spec(Better::Lower, 0.0, 0.0);
        assert_eq!(judge(&any, 0.0, 0.0, 0.0), (0.0, Verdict::Same));
        assert_eq!(
            judge(&any, 0.0, 0.001, 0.0),
            (f64::INFINITY, Verdict::Worse)
        );
        assert_eq!(judge(&any, 0.001, 0.0, 0.5).1, Verdict::Better);
    }

    #[test]
    fn documents_diff_row_by_row_under_the_declared_bounds() {
        let a = ledger(vec![(
            "w",
            run_doc(&[
                ("train_iter_per_s", 100.0, "1/s", None),
                ("persist_ms_p50", 70.0, "ms", None),
                ("write_amp", 1.0, "ratio", None),
                ("recover_ms_p10", 60.0, "ms", Some(0.4)),
                ("failed_frac", 0.0, "ratio", None),
            ]),
        )]);
        let b = ledger(vec![(
            "w",
            run_doc(&[
                ("train_iter_per_s", 60.0, "1/s", None),
                ("persist_ms_p50", 40.0, "ms", None),
                ("write_amp", 1.01, "ratio", None),
                ("recover_ms_p10", 90.0, "ms", None),
                ("failed_frac", 0.001, "ratio", None),
            ]),
        )]);
        assert_eq!(
            verdicts(&a, &b),
            [
                ("train_iter_per_s", Verdict::Worse),
                ("persist_ms_p50", Verdict::Better),
                ("write_amp", Verdict::Same),
                ("recover_ms_p10", Verdict::Unresolved),
                ("failed_frac", Verdict::Worse),
            ]
        );
        assert!(verdicts(&a, &a)
            .iter()
            .all(|(_, v)| matches!(v, Verdict::Same | Verdict::Unresolved)));
        assert!(render(&diff(&a, &b).unwrap()).contains("unresolved"));
    }

    #[test]
    fn metrics_missing_on_either_side_make_no_row_and_build_modes_must_match() {
        let a = ledger(vec![(
            "tenants",
            run_doc(&[("train_iter_per_s", 300.0, "1/s", None)]),
        )]);
        let mut b = ledger(vec![
            (
                "tenants",
                run_doc(&[
                    ("train_iter_per_s", 300.0, "1/s", None),
                    ("stall_frac", 0.1, "ratio", None),
                ]),
            ),
            ("extra", run_doc(&[("train_iter_per_s", 1.0, "1/s", None)])),
        ]);
        assert_eq!(verdicts(&a, &b), [("train_iter_per_s", Verdict::Same)]);
        b.env[0].1 = "registry".into();
        assert!(diff(&a, &b).unwrap_err().contains("build_mode"));
    }
}
