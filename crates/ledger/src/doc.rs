//! The `pccheck.ledger.v1` document and the one-line run result, written
//! by hand and read back through `pccheck_util::json`.

use std::fmt::Write as _;

use crate::api::JsonValue;
use crate::metrics::Report;

pub const SCHEMA: &str = "pccheck.ledger.v1";

/// One metric as stored in a document.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    pub value: f64,
    pub unit: String,
    /// `(max − min) ÷ median` over the runs this value is the median of;
    /// absent for a single run.
    pub spread: Option<f64>,
}

/// The outcome of one run of one workload (traced or not).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunDoc {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, Value)>,
    pub problems: Vec<String>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadDoc {
    pub name: String,
    pub why: String,
    pub untraced: RunDoc,
    pub traced: Option<RunDoc>,
}

/// A cross-run consistency check the ledger command performed.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

#[derive(Debug, Clone, PartialEq)]
pub struct LedgerDoc {
    /// `build_mode`, `nproc`, `rustc`, `git_commit`, `malloc`, in that order.
    pub env: Vec<(String, String)>,
    pub seed: u64,
    pub seconds: u64,
    /// Runs each untraced value is the median of.
    pub runs: u64,
    pub workloads: Vec<WorkloadDoc>,
    pub checks: Vec<Check>,
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("string write"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Shortest representation that reads back to the same `f64`.
fn number(v: f64) -> String {
    assert!(v.is_finite(), "JSON has no representation for {v}");
    format!("{v}")
}

impl RunDoc {
    pub fn from_report(report: &Report) -> RunDoc {
        RunDoc {
            correct: report.correct(),
            attempted: report.attempted,
            failed: report.failed,
            metrics: report
                .metrics
                .iter()
                .map(|m| {
                    (
                        m.name.clone(),
                        Value {
                            value: m.value,
                            unit: m.unit.to_string(),
                            spread: None,
                        },
                    )
                })
                .collect(),
            problems: report.problems.clone(),
        }
    }

    pub fn get(&self, name: &str) -> Option<&Value> {
        self.metrics.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    fn metrics_json(&self) -> String {
        let items: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v)| {
                let spread = v
                    .spread
                    .map(|s| format!(",\"spread\":{}", number(s)))
                    .unwrap_or_default();
                format!(
                    "{}:{{\"value\":{},\"unit\":{}{spread}}}",
                    quote(name),
                    number(v.value),
                    quote(&v.unit)
                )
            })
            .collect();
        format!("{{{}}}", items.join(","))
    }

    /// The single line a run prints last: exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            self.metrics_json()
        )
    }

    /// The full run on one line: the contract keys plus `problems`.
    pub fn to_json(&self) -> String {
        let problems: Vec<String> = self.problems.iter().map(|p| quote(p)).collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"problems\":[{}],\"metrics\":{}}}",
            self.correct,
            self.attempted,
            self.failed,
            problems.join(","),
            self.metrics_json()
        )
    }

    pub fn from_json(v: &JsonValue) -> Result<RunDoc, String> {
        let metrics = v
            .get("metrics")
            .and_then(JsonValue::as_object)
            .ok_or("run has no `metrics` object")?
            .iter()
            .map(|(name, m)| {
                Ok((
                    name.clone(),
                    Value {
                        value: m
                            .get("value")
                            .and_then(JsonValue::as_f64)
                            .ok_or_else(|| format!("metric {name} has no numeric `value`"))?,
                        unit: m
                            .get("unit")
                            .and_then(JsonValue::as_str)
                            .ok_or_else(|| format!("metric {name} has no `unit`"))?
                            .to_string(),
                        spread: m.get("spread").and_then(JsonValue::as_f64),
                    },
                ))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(RunDoc {
            correct: v
                .get("correct")
                .and_then(JsonValue::as_bool)
                .ok_or("run has no `correct`")?,
            attempted: v
                .get("attempted")
                .and_then(JsonValue::as_u64)
                .ok_or("run has no `attempted`")?,
            failed: v
                .get("failed")
                .and_then(JsonValue::as_u64)
                .ok_or("run has no `failed`")?,
            metrics,
            problems: v
                .get("problems")
                .and_then(JsonValue::as_array)
                .map(|a| {
                    a.iter()
                        .filter_map(JsonValue::as_str)
                        .map(str::to_string)
                        .collect()
                })
                .unwrap_or_default(),
        })
    }
}

impl LedgerDoc {
    pub fn env(&self, key: &str) -> Option<&str> {
        self.env
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    pub fn workload(&self, name: &str) -> Option<&WorkloadDoc> {
        self.workloads.iter().find(|w| w.name == name)
    }

    pub fn to_json(&self) -> String {
        let env: Vec<String> = self
            .env
            .iter()
            .map(|(k, v)| format!("{}:{}", quote(k), quote(v)))
            .collect();
        let workloads: Vec<String> = self
            .workloads
            .iter()
            .map(|w| {
                let traced = w
                    .traced
                    .as_ref()
                    .map(|t| format!(",\n   \"traced\":{}", t.to_json()))
                    .unwrap_or_default();
                format!(
                    "  {{\"name\":{},\"why\":{},\n   \"untraced\":{}{traced}}}",
                    quote(&w.name),
                    quote(&w.why),
                    w.untraced.to_json()
                )
            })
            .collect();
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|c| {
                format!(
                    "  {{\"name\":{},\"ok\":{},\"detail\":{}}}",
                    quote(&c.name),
                    c.ok,
                    quote(&c.detail)
                )
            })
            .collect();
        format!(
            "{{\"schema\":{},\n \"env\":{{{}}},\n \"seed\":{},\"seconds\":{},\"runs\":{},\n \"workloads\":[\n{}\n ],\n \"checks\":[\n{}\n ]}}\n",
            quote(SCHEMA),
            env.join(","),
            self.seed,
            self.seconds,
            self.runs,
            workloads.join(",\n"),
            checks.join(",\n")
        )
    }

    pub fn parse(text: &str) -> Result<LedgerDoc, String> {
        let v = JsonValue::parse(text).map_err(|e| e.to_string())?;
        let schema = v.get("schema").and_then(JsonValue::as_str);
        if schema != Some(SCHEMA) {
            return Err(format!("not a {SCHEMA} document (schema is {schema:?})"));
        }
        let u64_of = |key: &str| {
            v.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("document has no `{key}`"))
        };
        let workloads = v
            .get("workloads")
            .and_then(JsonValue::as_array)
            .ok_or("document has no `workloads`")?
            .iter()
            .map(|w| {
                Ok(WorkloadDoc {
                    name: w
                        .get("name")
                        .and_then(JsonValue::as_str)
                        .ok_or("workload has no `name`")?
                        .to_string(),
                    why: w
                        .get("why")
                        .and_then(JsonValue::as_str)
                        .unwrap_or_default()
                        .to_string(),
                    untraced: RunDoc::from_json(
                        w.get("untraced").ok_or("workload has no `untraced` run")?,
                    )?,
                    traced: w.get("traced").map(RunDoc::from_json).transpose()?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(LedgerDoc {
            env: v
                .get("env")
                .and_then(JsonValue::as_object)
                .ok_or("document has no `env`")?
                .iter()
                .map(|(k, v)| (k.clone(), v.as_str().unwrap_or_default().to_string()))
                .collect(),
            seed: u64_of("seed")?,
            seconds: u64_of("seconds")?,
            runs: u64_of("runs")?,
            workloads,
            checks: v
                .get("checks")
                .and_then(JsonValue::as_array)
                .unwrap_or_default()
                .iter()
                .map(|c| Check {
                    name: c
                        .get("name")
                        .and_then(JsonValue::as_str)
                        .unwrap_or_default()
                        .to_string(),
                    ok: c.get("ok").and_then(JsonValue::as_bool).unwrap_or(false),
                    detail: c
                        .get("detail")
                        .and_then(JsonValue::as_str)
                        .unwrap_or_default()
                        .to_string(),
                })
                .collect(),
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn run_doc(metrics: &[(&str, f64, &str, Option<f64>)]) -> RunDoc {
        RunDoc {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: metrics
                .iter()
                .map(|(n, v, u, s)| {
                    (
                        n.to_string(),
                        Value {
                            value: *v,
                            unit: u.to_string(),
                            spread: *s,
                        },
                    )
                })
                .collect(),
            problems: vec![],
        }
    }

    pub(crate) fn ledger(workloads: Vec<(&str, RunDoc)>) -> LedgerDoc {
        LedgerDoc {
            env: vec![
                ("build_mode".into(), "offline-stubs".into()),
                ("nproc".into(), "2".into()),
            ],
            seed: 1,
            seconds: 12,
            runs: 1,
            workloads: workloads
                .into_iter()
                .map(|(name, untraced)| WorkloadDoc {
                    name: name.into(),
                    why: "because \"quotes\" and\nnewlines survive".into(),
                    untraced,
                    traced: None,
                })
                .collect(),
            checks: vec![Check {
                name: "accounting".into(),
                ok: true,
                detail: "within 3.2%".into(),
            }],
        }
    }

    #[test]
    fn document_round_trips_through_the_workspace_parser() {
        let mut doc = ledger(vec![(
            "saturate_dense",
            run_doc(&[
                ("persist_ms_p50", 70.123456789012, "ms", Some(0.031)),
                ("write_amp", 1.0001220703125, "ratio", None),
                ("tiny", 1e-9, "s", None),
            ]),
        )]);
        doc.workloads[0].traced =
            Some(run_doc(&[("util.fnv.fnv1a_mb_per_s", 693.5, "MB/s", None)]));
        doc.workloads[0].untraced.problems.push("tab\there".into());
        let text = doc.to_json();
        assert_eq!(LedgerDoc::parse(&text).unwrap(), doc);
        assert!(LedgerDoc::parse("{\"schema\":\"other\"}").is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = run_doc(&[("setup_s", 0.8127, "s", Some(0.5))]).result_line();
        let v = JsonValue::parse(&line).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let back = RunDoc::from_json(&v).unwrap();
        assert_eq!(back.get("setup_s").unwrap().value, 0.8127);
        assert!(!line.contains('\n'));
    }
}
