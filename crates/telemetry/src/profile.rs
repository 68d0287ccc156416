//! Per-checkpoint causal ledger, critical-path extraction, and cross-run
//! regression analytics.
//!
//! The raw event stream says *what happened*; this module says *why a
//! commit took as long as it did*. For every checkpoint span it
//! reconstructs a [`CommitLedger`] — a small DAG of timed nodes (lifecycle
//! phases, writer/reader actor legs, composite-device member legs) — then
//! extracts the **critical path**: the chain of non-overlapping phase
//! intervals that ends at the terminal event and walks backwards through
//! the latest phase finishing before each link starts. Time on the
//! critical path is time that directly bounded the commit; everything else
//! was hidden by pipelining.
//!
//! On top of the ledgers sits [`RunProfile`], one summary per run:
//! per-phase medians and critical-path shares, per-actor media/queue-wait
//! splits, writer imbalance, and persist coverage (how much of the Persist
//! window the writers actually kept the device busy). Profiles serialize
//! as schema-tagged JSON (`PROFILE_SCHEMA`) so they can be archived in
//! [`ProfileArchive`] and compared across runs by [`diff_profiles`] — a
//! noise-aware differ with a minimum-effect floor (absolute mode, same
//! machine) and a scale-invariant critical-share mode (CI gates against a
//! checked-in baseline from different hardware).

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use pccheck_util::json::{escape_json, JsonValue};

use crate::event::{Event, EventKind, Phase, SpanId};
use crate::export::{human_bytes, human_nanos, json_f64, micros};

/// Schema tag carried by every emitted profile document.
pub(crate) const PROFILE_SCHEMA: &str = "pccheck.profile.v1";

/// What kind of ledger node an interval is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// A lifecycle phase (critical-path candidate).
    Phase(Phase),
    /// A persist-pipeline writer leg (`writer-N`).
    Writer,
    /// A restore-pipeline reader leg (`reader-N`).
    Reader,
    /// A composite-device member leg (`stripe-N`, `tier`, ...), attributed
    /// to this span by overlap with its Persist window.
    Device,
}

/// One timed interval in a commit's causal ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerNode {
    /// Phase name or actor lane label.
    pub label: String,
    /// Node kind; only [`NodeKind::Phase`] nodes are critical-path
    /// candidates.
    pub kind: NodeKind,
    /// Interval start, nanoseconds on the recorder clock.
    pub start_nanos: u64,
    /// Interval duration in nanoseconds.
    pub dur_nanos: u64,
    /// Bytes moved during the interval (0 where unknown).
    pub bytes: u64,
    /// Nanoseconds spent in device I/O calls (actor legs; phases report
    /// their full duration).
    pub media_nanos: u64,
    /// Whether the node is on the span's critical path.
    pub critical: bool,
}

impl LedgerNode {
    fn end_nanos(&self) -> u64 {
        self.start_nanos + self.dur_nanos
    }
}

/// The reconstructed causal ledger of one checkpoint (or restore) span.
#[derive(Debug, Clone, PartialEq)]
pub struct CommitLedger {
    /// The span this ledger reconstructs.
    pub span: SpanId,
    /// Strategy name from the `Requested` event.
    pub strategy: String,
    /// Training iteration captured.
    pub iteration: u64,
    /// Checkpoint size in bytes.
    pub bytes: u64,
    /// Terminal outcome: `committed`, `superseded`, `failed`, or `open`
    /// (no terminal event recorded).
    pub outcome: String,
    /// Span open (Requested) timestamp.
    pub(crate) open_nanos: u64,
    /// Span close (terminal event) timestamp; equals the latest event
    /// timestamp for still-open spans.
    pub(crate) close_nanos: u64,
    /// Training-thread blocked time attributed to this span.
    pub(crate) stall_nanos: u64,
    /// All timed nodes, in event order.
    pub nodes: Vec<LedgerNode>,
    /// Indices into `nodes` of the critical path, in chronological order.
    pub(crate) critical_path: Vec<usize>,
    /// Sum of critical-path node durations.
    pub(crate) critical_nanos: u64,
    /// Wall time not covered by the critical path (overlap slack — work
    /// hidden by pipelining plus scheduling gaps between phases).
    pub(crate) gap_nanos: u64,
}

impl CommitLedger {
    /// Span wall time (open to terminal).
    pub(crate) fn wall_nanos(&self) -> u64 {
        self.close_nanos.saturating_sub(self.open_nanos)
    }

    /// Fraction of the Persist window covered by the union of persist-side
    /// actor intervals — writer legs plus composite-device member legs
    /// (the coordinator's table and fence writes surface as member I/O,
    /// not as writer legs) — `None` when the ledger has no Persist phase
    /// or no such legs. Low coverage means the device sat idle inside the
    /// Persist window (queue starvation), not that the media was slow.
    pub(crate) fn persist_coverage(&self) -> Option<f64> {
        let persist = self
            .nodes
            .iter()
            .find(|n| n.kind == NodeKind::Phase(Phase::Persist))?;
        if persist.dur_nanos == 0 {
            return None;
        }
        let (lo, hi) = (persist.start_nanos, persist.end_nanos());
        let mut ivals: Vec<(u64, u64)> = self
            .nodes
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Writer | NodeKind::Device))
            .map(|n| (n.start_nanos.max(lo), n.end_nanos().min(hi)))
            .filter(|(s, e)| e > s)
            .collect();
        if ivals.is_empty() {
            return None;
        }
        ivals.sort_unstable();
        let mut covered = 0u64;
        let (mut cs, mut ce) = ivals[0];
        for (s, e) in ivals.into_iter().skip(1) {
            if s > ce {
                covered += ce - cs;
                cs = s;
                ce = e;
            } else {
                ce = ce.max(e);
            }
        }
        covered += ce - cs;
        Some(covered as f64 / persist.dur_nanos as f64)
    }

    /// Max writer-leg duration over the mean — 1.0 means perfectly
    /// balanced writers; `None` without at least two writer legs.
    pub(crate) fn writer_imbalance(&self) -> Option<f64> {
        let durs: Vec<u64> = self
            .nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Writer)
            .map(|n| n.dur_nanos)
            .collect();
        if durs.len() < 2 {
            return None;
        }
        let max = *durs.iter().max().unwrap() as f64;
        let mean = durs.iter().sum::<u64>() as f64 / durs.len() as f64;
        (mean > 0.0).then_some(max / mean)
    }
}

/// Reconstructs one ledger per span from a raw event stream.
///
/// Composite-device member legs ride [`SpanId::NONE`] (members outlive any
/// one span); each is attributed to the ledger whose Persist window it
/// overlaps the most.
pub fn build_ledgers(events: &[Event]) -> Vec<CommitLedger> {
    let mut ledgers: Vec<CommitLedger> = Vec::new();
    for e in events {
        if !e.span.is_some() {
            continue;
        }
        match &e.kind {
            EventKind::Requested {
                strategy,
                iteration,
                bytes,
            } => ledgers.push(CommitLedger {
                span: e.span,
                strategy: strategy.clone(),
                iteration: *iteration,
                bytes: *bytes,
                outcome: "open".to_string(),
                open_nanos: e.at_nanos,
                close_nanos: e.at_nanos,
                stall_nanos: 0,
                nodes: Vec::new(),
                critical_path: Vec::new(),
                critical_nanos: 0,
                gap_nanos: 0,
            }),
            _ => {
                let Some(l) = ledgers.iter_mut().rev().find(|l| l.span == e.span) else {
                    continue;
                };
                l.close_nanos = l.close_nanos.max(e.at_nanos);
                match &e.kind {
                    EventKind::PhaseDone {
                        phase,
                        start_nanos,
                        dur_nanos,
                    } => l.nodes.push(LedgerNode {
                        label: phase.name().to_string(),
                        kind: NodeKind::Phase(*phase),
                        start_nanos: *start_nanos,
                        dur_nanos: *dur_nanos,
                        bytes: 0,
                        media_nanos: *dur_nanos,
                        critical: false,
                    }),
                    EventKind::ActorSpan {
                        actor,
                        start_nanos,
                        dur_nanos,
                        bytes,
                        media_nanos,
                    } => l.nodes.push(LedgerNode {
                        label: actor.clone(),
                        kind: actor_kind(actor),
                        start_nanos: *start_nanos,
                        dur_nanos: *dur_nanos,
                        bytes: *bytes,
                        media_nanos: *media_nanos,
                        critical: false,
                    }),
                    EventKind::Stall { nanos } => l.stall_nanos += nanos,
                    EventKind::Committed { .. } => l.outcome = "committed".to_string(),
                    EventKind::Superseded { .. } => l.outcome = "superseded".to_string(),
                    EventKind::Failed { .. } => l.outcome = "failed".to_string(),
                    _ => {}
                }
            }
        }
    }

    // Attribute device-member legs (SpanId::NONE) to the ledger whose
    // Persist window they overlap the most.
    for e in events {
        if e.span.is_some() {
            continue;
        }
        let EventKind::ActorSpan {
            actor,
            start_nanos,
            dur_nanos,
            bytes,
            media_nanos,
        } = &e.kind
        else {
            continue;
        };
        let (leg_s, leg_e) = (*start_nanos, start_nanos + dur_nanos);
        let mut best: Option<(usize, u64)> = None;
        for (i, l) in ledgers.iter().enumerate() {
            let Some(p) = l
                .nodes
                .iter()
                .find(|n| n.kind == NodeKind::Phase(Phase::Persist))
            else {
                continue;
            };
            let ov = p
                .end_nanos()
                .min(leg_e)
                .saturating_sub(p.start_nanos.max(leg_s));
            if ov > 0 && best.map(|(_, b)| ov > b).unwrap_or(true) {
                best = Some((i, ov));
            }
        }
        if let Some((i, _)) = best {
            ledgers[i].nodes.push(LedgerNode {
                label: actor.clone(),
                kind: NodeKind::Device,
                start_nanos: *start_nanos,
                dur_nanos: *dur_nanos,
                bytes: *bytes,
                media_nanos: *media_nanos,
                critical: false,
            });
        }
    }

    for l in &mut ledgers {
        extract_critical_path(l);
    }
    ledgers
}

fn actor_kind(actor: &str) -> NodeKind {
    if actor.starts_with("writer-") {
        NodeKind::Writer
    } else if actor.starts_with("reader-") {
        NodeKind::Reader
    } else {
        NodeKind::Device
    }
}

/// Backward interval walk over phase nodes: starting from the span close,
/// repeatedly pick the phase with the latest end not after the current
/// bound, then move the bound to that phase's start. Phases fully hidden
/// under a longer phase (the pipelined GpuCopy under a streamed Persist)
/// never get picked, so the path is exactly the chain that bounded the
/// terminal event.
fn extract_critical_path(l: &mut CommitLedger) {
    let mut picked: Vec<usize> = Vec::new();
    let mut bound = l.close_nanos;
    loop {
        let mut best: Option<usize> = None;
        for (i, n) in l.nodes.iter().enumerate() {
            if !matches!(n.kind, NodeKind::Phase(_)) || picked.contains(&i) {
                continue;
            }
            if n.end_nanos() <= bound
                && best
                    .map(|b| n.end_nanos() > l.nodes[b].end_nanos())
                    .unwrap_or(true)
            {
                best = Some(i);
            }
        }
        let Some(i) = best else { break };
        picked.push(i);
        if l.nodes[i].start_nanos <= l.open_nanos {
            break;
        }
        bound = l.nodes[i].start_nanos;
    }
    picked.reverse();
    l.critical_nanos = picked.iter().map(|&i| l.nodes[i].dur_nanos).sum();
    l.gap_nanos = l.wall_nanos().saturating_sub(l.critical_nanos);
    for &i in &picked {
        l.nodes[i].critical = true;
    }
    l.critical_path = picked;
}

/// Per-phase aggregate across a run's ledgers.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseProfile {
    /// Stable phase name (`persist`, `gpu_copy`, ...).
    pub phase: String,
    /// Number of ledger nodes of this phase.
    pub count: u64,
    /// Median node duration.
    pub(crate) median_nanos: u64,
    /// 95th-percentile node duration.
    pub p95_nanos: u64,
    /// Sum of node durations.
    pub total_nanos: u64,
    /// Sum of durations of nodes on their span's critical path.
    pub(crate) critical_nanos: u64,
    /// `critical_nanos` over the run's total critical time — how much of
    /// the run's commit-bounding time this phase is responsible for.
    pub critical_share: f64,
}

/// Per-actor-lane aggregate across a run's ledgers.
#[derive(Debug, Clone, PartialEq)]
pub struct ActorProfile {
    /// Lane label (`writer-0`, `reader-2`, `stripe-1`, ...).
    pub actor: String,
    /// Number of legs.
    pub legs: u64,
    /// Sum of leg durations.
    pub total_nanos: u64,
    /// Device I/O time within the legs.
    pub media_nanos: u64,
    /// Queue-wait time (`total - media`).
    pub(crate) queue_nanos: u64,
    /// Bytes moved.
    pub bytes: u64,
    /// Longest single leg.
    pub(crate) max_leg_nanos: u64,
}

/// One run's profile summary: the archived, diffable artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct RunProfile {
    /// Run name (archive key, e.g. `ext_restore` or `ci_gate`).
    pub run: String,
    /// Strategy of the profiled spans (first seen).
    pub strategy: String,
    /// Ledgers that reached `committed`.
    pub commits: u64,
    /// All ledgers (including superseded/failed/open).
    pub spans: u64,
    /// Median committed-span wall time.
    pub(crate) wall_nanos_median: u64,
    /// Median committed-span critical-path time.
    pub critical_nanos_median: u64,
    /// Median committed-span overlap slack.
    pub(crate) gap_nanos_median: u64,
    /// Median committed-span training-thread stall.
    pub(crate) stall_nanos_median: u64,
    /// Median persist coverage over committed spans that report it.
    pub persist_coverage_median: Option<f64>,
    /// Median writer imbalance over committed spans that report it.
    pub writer_imbalance_median: Option<f64>,
    /// Per-phase aggregates, lifecycle order, phases with nodes only.
    pub phases: Vec<PhaseProfile>,
    /// Per-actor aggregates, sorted by total duration descending.
    pub actors: Vec<ActorProfile>,
}

fn median_u64(xs: &mut [u64]) -> u64 {
    if xs.is_empty() {
        return 0;
    }
    xs.sort_unstable();
    xs[xs.len() / 2]
}

fn percentile_u64(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn median_f64(xs: &mut [f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    Some(xs[xs.len() / 2])
}

impl RunProfile {
    /// Builds a profile from already-reconstructed ledgers.
    pub fn from_ledgers(run: &str, ledgers: &[CommitLedger]) -> RunProfile {
        let committed: Vec<&CommitLedger> = ledgers
            .iter()
            .filter(|l| l.outcome == "committed")
            .collect();
        let mut walls: Vec<u64> = committed.iter().map(|l| l.wall_nanos()).collect();
        let mut crits: Vec<u64> = committed.iter().map(|l| l.critical_nanos).collect();
        let mut gaps: Vec<u64> = committed.iter().map(|l| l.gap_nanos).collect();
        let mut stalls: Vec<u64> = committed.iter().map(|l| l.stall_nanos).collect();
        let mut covs: Vec<f64> = committed
            .iter()
            .filter_map(|l| l.persist_coverage())
            .collect();
        let mut imbs: Vec<f64> = committed
            .iter()
            .filter_map(|l| l.writer_imbalance())
            .collect();

        let total_critical: u64 = ledgers.iter().map(|l| l.critical_nanos).sum();
        let mut phases = Vec::new();
        for phase in Phase::ALL {
            let mut durs: Vec<u64> = Vec::new();
            let mut critical = 0u64;
            for l in ledgers {
                for n in &l.nodes {
                    if n.kind == NodeKind::Phase(phase) {
                        durs.push(n.dur_nanos);
                        if n.critical {
                            critical += n.dur_nanos;
                        }
                    }
                }
            }
            if durs.is_empty() {
                continue;
            }
            durs.sort_unstable();
            let total: u64 = durs.iter().sum();
            phases.push(PhaseProfile {
                phase: phase.name().to_string(),
                count: durs.len() as u64,
                median_nanos: durs[durs.len() / 2],
                p95_nanos: percentile_u64(&durs, 0.95),
                total_nanos: total,
                critical_nanos: critical,
                critical_share: if total_critical > 0 {
                    critical as f64 / total_critical as f64
                } else {
                    0.0
                },
            });
        }

        let mut actors: Vec<ActorProfile> = Vec::new();
        for l in ledgers {
            for n in &l.nodes {
                if matches!(n.kind, NodeKind::Phase(_)) {
                    continue;
                }
                let a = match actors.iter_mut().find(|a| a.actor == n.label) {
                    Some(a) => a,
                    None => {
                        actors.push(ActorProfile {
                            actor: n.label.clone(),
                            legs: 0,
                            total_nanos: 0,
                            media_nanos: 0,
                            queue_nanos: 0,
                            bytes: 0,
                            max_leg_nanos: 0,
                        });
                        actors.last_mut().unwrap()
                    }
                };
                a.legs += 1;
                a.total_nanos += n.dur_nanos;
                a.media_nanos += n.media_nanos;
                a.queue_nanos += n.dur_nanos.saturating_sub(n.media_nanos);
                a.bytes += n.bytes;
                a.max_leg_nanos = a.max_leg_nanos.max(n.dur_nanos);
            }
        }
        actors.sort_by(|a, b| {
            b.total_nanos
                .cmp(&a.total_nanos)
                .then(a.actor.cmp(&b.actor))
        });

        RunProfile {
            run: run.to_string(),
            strategy: ledgers
                .first()
                .map(|l| l.strategy.clone())
                .unwrap_or_default(),
            commits: committed.len() as u64,
            spans: ledgers.len() as u64,
            wall_nanos_median: median_u64(&mut walls),
            critical_nanos_median: median_u64(&mut crits),
            gap_nanos_median: median_u64(&mut gaps),
            stall_nanos_median: median_u64(&mut stalls),
            persist_coverage_median: median_f64(&mut covs),
            writer_imbalance_median: median_f64(&mut imbs),
            phases,
            actors,
        }
    }

    /// Builds a profile straight from an event stream.
    pub fn from_events(run: &str, events: &[Event]) -> RunProfile {
        RunProfile::from_ledgers(run, &build_ledgers(events))
    }

    /// Critical-path share of a phase by name (0.0 when absent).
    // api: a test oracle, listed in DESIGN §4 ("Test oracles").
    pub fn critical_share(&self, phase: &str) -> f64 {
        self.phases
            .iter()
            .find(|p| p.phase == phase)
            .map(|p| p.critical_share)
            .unwrap_or(0.0)
    }

    /// Serializes as schema-tagged `PROFILE_SCHEMA` JSON.
    pub fn to_json(&self) -> String {
        let opt = |v: Option<f64>| v.map(json_f64).unwrap_or_else(|| "null".to_string());
        let phases: Vec<String> = self
            .phases
            .iter()
            .map(|p| {
                format!(
                    "{{\"phase\":\"{}\",\"count\":{},\"median_nanos\":{},\"p95_nanos\":{},\
                     \"total_nanos\":{},\"critical_nanos\":{},\"critical_share\":{}}}",
                    escape_json(&p.phase),
                    p.count,
                    p.median_nanos,
                    p.p95_nanos,
                    p.total_nanos,
                    p.critical_nanos,
                    json_f64(p.critical_share)
                )
            })
            .collect();
        let actors: Vec<String> = self
            .actors
            .iter()
            .map(|a| {
                format!(
                    "{{\"actor\":\"{}\",\"legs\":{},\"total_nanos\":{},\"media_nanos\":{},\
                     \"queue_nanos\":{},\"bytes\":{},\"max_leg_nanos\":{}}}",
                    escape_json(&a.actor),
                    a.legs,
                    a.total_nanos,
                    a.media_nanos,
                    a.queue_nanos,
                    a.bytes,
                    a.max_leg_nanos
                )
            })
            .collect();
        format!(
            "{{\"schema\":\"{}\",\"run\":\"{}\",\"strategy\":\"{}\",\"commits\":{},\"spans\":{},\
             \"wall_nanos_median\":{},\"critical_nanos_median\":{},\"gap_nanos_median\":{},\
             \"stall_nanos_median\":{},\"persist_coverage_median\":{},\
             \"writer_imbalance_median\":{},\"phases\":[{}],\"actors\":[{}]}}\n",
            PROFILE_SCHEMA,
            escape_json(&self.run),
            escape_json(&self.strategy),
            self.commits,
            self.spans,
            self.wall_nanos_median,
            self.critical_nanos_median,
            self.gap_nanos_median,
            self.stall_nanos_median,
            opt(self.persist_coverage_median),
            opt(self.writer_imbalance_median),
            phases.join(","),
            actors.join(",")
        )
    }

    /// Parses a `PROFILE_SCHEMA` document (rejects other schemas).
    pub fn from_json(text: &str) -> Result<RunProfile, String> {
        let v = JsonValue::parse(text).map_err(|e| e.to_string())?;
        let schema = v.get("schema").and_then(|s| s.as_str()).unwrap_or("");
        if schema != PROFILE_SCHEMA {
            return Err(format!(
                "unsupported profile schema {schema:?} (want {PROFILE_SCHEMA:?})"
            ));
        }
        let s = |k: &str| {
            v.get(k)
                .and_then(|x| x.as_str())
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field {k:?}"))
        };
        let n = |k: &str| {
            v.get(k)
                .and_then(|x| x.as_u64())
                .ok_or_else(|| format!("missing numeric field {k:?}"))
        };
        let optf = |k: &str| v.get(k).and_then(|x| x.as_f64());
        let mut phases = Vec::new();
        if let Some(arr) = v.get("phases").and_then(|x| x.as_array()) {
            for p in arr {
                phases.push(PhaseProfile {
                    phase: p
                        .get("phase")
                        .and_then(|x| x.as_str())
                        .ok_or("phase entry missing name")?
                        .to_string(),
                    count: p.get("count").and_then(|x| x.as_u64()).unwrap_or(0),
                    median_nanos: p.get("median_nanos").and_then(|x| x.as_u64()).unwrap_or(0),
                    p95_nanos: p.get("p95_nanos").and_then(|x| x.as_u64()).unwrap_or(0),
                    total_nanos: p.get("total_nanos").and_then(|x| x.as_u64()).unwrap_or(0),
                    critical_nanos: p
                        .get("critical_nanos")
                        .and_then(|x| x.as_u64())
                        .unwrap_or(0),
                    critical_share: p
                        .get("critical_share")
                        .and_then(|x| x.as_f64())
                        .unwrap_or(0.0),
                });
            }
        }
        let mut actors = Vec::new();
        if let Some(arr) = v.get("actors").and_then(|x| x.as_array()) {
            for a in arr {
                actors.push(ActorProfile {
                    actor: a
                        .get("actor")
                        .and_then(|x| x.as_str())
                        .ok_or("actor entry missing name")?
                        .to_string(),
                    legs: a.get("legs").and_then(|x| x.as_u64()).unwrap_or(0),
                    total_nanos: a.get("total_nanos").and_then(|x| x.as_u64()).unwrap_or(0),
                    media_nanos: a.get("media_nanos").and_then(|x| x.as_u64()).unwrap_or(0),
                    queue_nanos: a.get("queue_nanos").and_then(|x| x.as_u64()).unwrap_or(0),
                    bytes: a.get("bytes").and_then(|x| x.as_u64()).unwrap_or(0),
                    max_leg_nanos: a.get("max_leg_nanos").and_then(|x| x.as_u64()).unwrap_or(0),
                });
            }
        }
        Ok(RunProfile {
            run: s("run")?,
            strategy: s("strategy")?,
            commits: n("commits")?,
            spans: n("spans")?,
            wall_nanos_median: n("wall_nanos_median")?,
            critical_nanos_median: n("critical_nanos_median")?,
            gap_nanos_median: n("gap_nanos_median")?,
            stall_nanos_median: n("stall_nanos_median")?,
            persist_coverage_median: optf("persist_coverage_median"),
            writer_imbalance_median: optf("writer_imbalance_median"),
            phases,
            actors,
        })
    }
}

/// Renders a profile as the console "top offenders" view.
pub fn render_profile(p: &RunProfile) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== profile: {} ({}, {} commits / {} spans) ==",
        p.run, p.strategy, p.commits, p.spans
    );
    let _ = writeln!(
        out,
        "  wall {}  critical {}  overlap-slack {}  stall {}",
        human_nanos(p.wall_nanos_median),
        human_nanos(p.critical_nanos_median),
        human_nanos(p.gap_nanos_median),
        human_nanos(p.stall_nanos_median)
    );
    if let Some(c) = p.persist_coverage_median {
        let _ = writeln!(out, "  persist coverage {:.1}%", c * 100.0);
    }
    if let Some(i) = p.writer_imbalance_median {
        let _ = writeln!(out, "  writer imbalance {i:.2}x (max leg / mean leg)");
    }
    let _ = writeln!(out, "\n== critical path by phase ==");
    let _ = writeln!(
        out,
        "  {:<14} {:>6} {:>10} {:>10} {:>10} {:>7}",
        "phase", "count", "median", "p95", "critical", "share"
    );
    let mut by_share: Vec<&PhaseProfile> = p.phases.iter().collect();
    by_share.sort_by(|a, b| b.critical_share.partial_cmp(&a.critical_share).unwrap());
    for ph in by_share {
        let _ = writeln!(
            out,
            "  {:<14} {:>6} {:>10} {:>10} {:>10} {:>6.1}%",
            ph.phase,
            ph.count,
            human_nanos(ph.median_nanos),
            human_nanos(ph.p95_nanos),
            human_nanos(ph.critical_nanos),
            ph.critical_share * 100.0
        );
    }
    if !p.actors.is_empty() {
        let _ = writeln!(out, "\n== actor lanes (top offenders) ==");
        let _ = writeln!(
            out,
            "  {:<12} {:>5} {:>10} {:>10} {:>10} {:>10}",
            "actor", "legs", "total", "media", "queue", "moved"
        );
        for a in p.actors.iter().take(12) {
            let _ = writeln!(
                out,
                "  {:<12} {:>5} {:>10} {:>10} {:>10} {:>10}",
                a.actor,
                a.legs,
                human_nanos(a.total_nanos),
                human_nanos(a.media_nanos),
                human_nanos(a.queue_nanos),
                human_bytes(a.bytes)
            );
        }
    }
    out
}

/// Chrome-trace entries marking critical-path edges: one `"X"` slice per
/// critical node on a dedicated `critical-path` lane, carrying the parent
/// span and phase in `args`. Feed to
/// [`chrome_trace_with`](crate::export::chrome_trace_with).
pub(crate) fn critical_trace_entries(ledgers: &[CommitLedger]) -> Vec<String> {
    /// One below the actor-lane base, so the lane sorts right above them.
    const CRITICAL_TID: u64 = 899_999;
    let mut entries = vec![format!(
        "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{CRITICAL_TID},\
         \"args\":{{\"name\":\"critical-path\"}}}}"
    )];
    for l in ledgers {
        for &i in &l.critical_path {
            let n = &l.nodes[i];
            entries.push(format!(
                "{{\"name\":\"crit:{}\",\"cat\":\"critical\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":1,\"tid\":{CRITICAL_TID},\"args\":{{\"parent_span\":{},\"phase\":\"{}\"}}}}",
                escape_json(&n.label),
                json_f64(micros(n.start_nanos)),
                json_f64(micros(n.dur_nanos)),
                l.span.0,
                escape_json(&n.label)
            ));
        }
    }
    entries
}

/// [`chrome_trace`](crate::export::chrome_trace) with the critical path of
/// every span annotated on its own lane.
pub fn chrome_trace_annotated(events: &[Event]) -> String {
    let ledgers = build_ledgers(events);
    crate::export::chrome_trace_with(events, &critical_trace_entries(&ledgers))
}

/// On-disk archive of run profiles: one `<run>.profile.json` per run,
/// written via a `.tmp` + rename so readers never see a torn file.
#[derive(Debug, Clone)]
pub struct ProfileArchive {
    dir: PathBuf,
}

impl ProfileArchive {
    /// Opens (creating if needed) an archive rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<ProfileArchive> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(ProfileArchive { dir })
    }

    /// The archive directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path a run's profile lives at.
    pub(crate) fn path_for(&self, run: &str) -> PathBuf {
        self.dir.join(format!("{run}.profile.json"))
    }

    /// Persists `profile` under its run name; returns the final path.
    pub fn store(&self, profile: &RunProfile) -> std::io::Result<PathBuf> {
        let path = self.path_for(&profile.run);
        let tmp = self.dir.join(format!("{}.profile.json.tmp", profile.run));
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(profile.to_json().as_bytes())?;
            f.sync_all()?;
        }
        fs::rename(&tmp, &path)?;
        Ok(path)
    }

    /// Loads a run's profile by name.
    pub fn load(&self, run: &str) -> Result<RunProfile, String> {
        let path = self.path_for(run);
        let text =
            fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        RunProfile::from_json(&text)
    }
}

/// Which statistic [`diff_profiles`] compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffMode {
    /// Median phase nanoseconds — same-machine comparisons.
    Absolute,
    /// Critical-path shares — scale-invariant, for gating against a
    /// baseline recorded on different hardware (CI).
    Shares,
}

/// Noise thresholds for [`diff_profiles`]. A phase only flags when it
/// clears *both* a relative ratio and an absolute floor, so jitter on
/// microsecond-scale phases can't fail a gate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffThresholds {
    /// Minimum relative growth (0.20 = +20%) before a phase can flag.
    pub(crate) min_ratio: f64,
    /// Minimum absolute growth in nanoseconds (absolute mode).
    pub(crate) min_effect_nanos: u64,
    /// Minimum absolute critical-share growth (shares mode).
    pub(crate) min_share_delta: f64,
}

impl Default for DiffThresholds {
    fn default() -> Self {
        DiffThresholds {
            min_ratio: 0.20,
            min_effect_nanos: 500_000,
            min_share_delta: 0.10,
        }
    }
}

/// One phase's comparison between two runs.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseDiff {
    /// Phase name.
    pub phase: String,
    /// Baseline median nanoseconds.
    pub(crate) base_nanos: u64,
    /// Candidate median nanoseconds.
    pub(crate) cand_nanos: u64,
    /// Baseline critical share.
    pub(crate) base_share: f64,
    /// Candidate critical share.
    pub(crate) cand_share: f64,
    /// Whether this phase flags as a regression under the chosen mode.
    pub regressed: bool,
}

/// The outcome of comparing a candidate run against a baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileDiff {
    /// Baseline run name.
    pub(crate) base_run: String,
    /// Candidate run name.
    pub(crate) cand_run: String,
    /// Statistic compared.
    pub mode: DiffMode,
    /// Per-phase comparisons (union of both runs' phases).
    pub phases: Vec<PhaseDiff>,
    /// Whether any phase flagged.
    pub regressed: bool,
    /// The worst flagged phase.
    pub blamed_phase: Option<String>,
    /// The candidate actor lane most responsible for the blamed phase,
    /// with a `media-bound` / `queue-bound` qualifier.
    pub blamed_actor: Option<String>,
}

/// Actor-lane prefixes that serve a given phase, for blame attribution.
fn phase_actor_prefixes(phase: &str) -> &'static [&'static str] {
    match phase {
        "persist" | "commit" => &["writer-", "stripe-", "fence", "tier", "spill"],
        "restore_read" | "restore_verify" | "restore_upload" | "recovery_load"
        | "recovery_verify" => &["reader-"],
        _ => &[],
    }
}

/// Compares `cand` against `base` phase by phase.
///
/// A phase flags only when it clears both the relative and the absolute
/// threshold for the chosen mode ([`DiffThresholds`]); the worst flagged
/// phase becomes [`ProfileDiff::blamed_phase`], and the candidate's
/// heaviest matching actor lane becomes [`ProfileDiff::blamed_actor`].
pub fn diff_profiles(
    base: &RunProfile,
    cand: &RunProfile,
    mode: DiffMode,
    th: &DiffThresholds,
) -> ProfileDiff {
    let mut names: Vec<String> = base.phases.iter().map(|p| p.phase.clone()).collect();
    for p in &cand.phases {
        if !names.contains(&p.phase) {
            names.push(p.phase.clone());
        }
    }
    let lookup = |prof: &RunProfile, name: &str| -> (u64, f64) {
        prof.phases
            .iter()
            .find(|p| p.phase == name)
            .map(|p| (p.median_nanos, p.critical_share))
            .unwrap_or((0, 0.0))
    };
    let mut phases = Vec::new();
    for name in &names {
        let (bn, bs) = lookup(base, name);
        let (cn, cs) = lookup(cand, name);
        let regressed = match mode {
            DiffMode::Absolute => {
                cn as f64 >= bn as f64 * (1.0 + th.min_ratio)
                    && cn.saturating_sub(bn) >= th.min_effect_nanos
            }
            DiffMode::Shares => cs >= bs * (1.0 + th.min_ratio) && cs - bs >= th.min_share_delta,
        };
        phases.push(PhaseDiff {
            phase: name.clone(),
            base_nanos: bn,
            cand_nanos: cn,
            base_share: bs,
            cand_share: cs,
            regressed,
        });
    }
    let blamed_phase = phases
        .iter()
        .filter(|p| p.regressed)
        .max_by(|a, b| {
            let ka = severity(a, mode);
            let kb = severity(b, mode);
            ka.partial_cmp(&kb).unwrap()
        })
        .map(|p| p.phase.clone());
    let blamed_actor = blamed_phase.as_deref().and_then(|phase| {
        let prefixes = phase_actor_prefixes(phase);
        cand.actors
            .iter()
            .filter(|a| prefixes.iter().any(|p| a.actor.starts_with(p)))
            .max_by_key(|a| a.total_nanos)
            .map(|a| {
                let bound = if a.media_nanos * 10 >= a.total_nanos * 7 {
                    "media-bound"
                } else {
                    "queue-bound"
                };
                format!("{} ({bound})", a.actor)
            })
    });
    ProfileDiff {
        base_run: base.run.clone(),
        cand_run: cand.run.clone(),
        mode,
        regressed: blamed_phase.is_some(),
        phases,
        blamed_phase,
        blamed_actor,
    }
}

fn severity(p: &PhaseDiff, mode: DiffMode) -> f64 {
    match mode {
        DiffMode::Absolute => p.cand_nanos.saturating_sub(p.base_nanos) as f64,
        DiffMode::Shares => p.cand_share - p.base_share,
    }
}

/// Renders a diff as a console table with a PASS/REGRESSION verdict.
pub fn render_diff(d: &ProfileDiff) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mode = match d.mode {
        DiffMode::Absolute => "absolute medians",
        DiffMode::Shares => "critical-path shares",
    };
    let _ = writeln!(
        out,
        "== profile diff: {} -> {} ({mode}) ==",
        d.base_run, d.cand_run
    );
    let _ = writeln!(
        out,
        "  {:<14} {:>10} {:>10} {:>8} {:>8}  verdict",
        "phase", "base", "cand", "share", "share'"
    );
    for p in &d.phases {
        let _ = writeln!(
            out,
            "  {:<14} {:>10} {:>10} {:>7.1}% {:>7.1}%  {}",
            p.phase,
            human_nanos(p.base_nanos),
            human_nanos(p.cand_nanos),
            p.base_share * 100.0,
            p.cand_share * 100.0,
            if p.regressed { "REGRESSED" } else { "ok" }
        );
    }
    match (&d.blamed_phase, &d.blamed_actor) {
        (Some(phase), Some(actor)) => {
            let _ = writeln!(out, "\nREGRESSION: {phase} — blame {actor}");
        }
        (Some(phase), None) => {
            let _ = writeln!(out, "\nREGRESSION: {phase}");
        }
        _ => {
            let _ = writeln!(out, "\nPASS: no critical-path regression");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(span: u64, at: u64, kind: EventKind) -> Event {
        Event {
            span: SpanId(span),
            at_nanos: at,
            kind,
        }
    }

    fn phase_done(span: u64, phase: Phase, start: u64, dur: u64) -> Event {
        ev(
            span,
            start + dur,
            EventKind::PhaseDone {
                phase,
                start_nanos: start,
                dur_nanos: dur,
            },
        )
    }

    fn actor(span: u64, actor: &str, start: u64, dur: u64, bytes: u64, media: u64) -> Event {
        ev(
            span,
            start + dur,
            EventKind::ActorSpan {
                actor: actor.to_string(),
                start_nanos: start,
                dur_nanos: dur,
                bytes,
                media_nanos: media,
            },
        )
    }

    /// One committed span: TicketWait [0,10), GpuCopy [10,30), Persist
    /// [20,60) (overlapping the copy), Commit [60,70), two writer legs.
    fn sample_events() -> Vec<Event> {
        vec![
            ev(
                1,
                0,
                EventKind::Requested {
                    strategy: "pccheck".to_string(),
                    iteration: 7,
                    bytes: 4096,
                },
            ),
            ev(1, 1, EventKind::Queued),
            phase_done(1, Phase::TicketWait, 0, 10),
            phase_done(1, Phase::GpuCopy, 10, 20),
            actor(1, "writer-0", 20, 20, 2048, 15),
            actor(1, "writer-1", 30, 30, 2048, 30),
            phase_done(1, Phase::Persist, 20, 40),
            phase_done(1, Phase::Commit, 60, 10),
            ev(
                1,
                70,
                EventKind::Committed {
                    iteration: 7,
                    bytes: 4096,
                },
            ),
        ]
    }

    #[test]
    fn critical_path_skips_overlapped_copy() {
        let ledgers = build_ledgers(&sample_events());
        assert_eq!(ledgers.len(), 1);
        let l = &ledgers[0];
        assert_eq!(l.outcome, "committed");
        assert_eq!(l.wall_nanos(), 70);
        let path: Vec<&str> = l
            .critical_path
            .iter()
            .map(|&i| l.nodes[i].label.as_str())
            .collect();
        assert_eq!(path, ["ticket_wait", "persist", "commit"]);
        assert_eq!(l.critical_nanos, 10 + 40 + 10);
        assert_eq!(l.gap_nanos, 10); // the copy tail hidden under persist
        for &i in &l.critical_path {
            assert!(l.nodes[i].critical);
        }
    }

    #[test]
    fn persist_coverage_and_imbalance() {
        let ledgers = build_ledgers(&sample_events());
        let l = &ledgers[0];
        // Writers cover [20,40) ∪ [30,60) = 40 of the 40ns persist window.
        assert_eq!(l.persist_coverage(), Some(1.0));
        // Legs 20 and 30: max 30 over mean 25.
        let imb = l.writer_imbalance().unwrap();
        assert!((imb - 1.2).abs() < 1e-9, "imbalance {imb}");
    }

    #[test]
    fn device_legs_attach_by_persist_overlap() {
        let mut events = sample_events();
        events.push(actor(0, "stripe-0", 25, 10, 1024, 10));
        events.push(actor(0, "stripe-1", 200, 10, 1024, 10)); // outside any window
        let ledgers = build_ledgers(&events);
        let devices: Vec<&str> = ledgers[0]
            .nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Device)
            .map(|n| n.label.as_str())
            .collect();
        assert_eq!(devices, ["stripe-0"]);
    }

    #[test]
    fn profile_json_roundtrip() {
        let p = RunProfile::from_events("unit", &sample_events());
        assert_eq!(p.commits, 1);
        assert_eq!(p.spans, 1);
        assert_eq!(p.strategy, "pccheck");
        let text = p.to_json();
        assert!(text.contains(PROFILE_SCHEMA));
        let back = RunProfile::from_json(&text).unwrap();
        assert_eq!(back, p);
        // Shares over the one span: persist 40 of 60 critical nanos.
        assert!((p.critical_share("persist") - 40.0 / 60.0).abs() < 1e-9);
        // Queue wait splits survive the roundtrip.
        let w1 = back.actors.iter().find(|a| a.actor == "writer-1").unwrap();
        assert_eq!(w1.queue_nanos, 0);
        let w0 = back.actors.iter().find(|a| a.actor == "writer-0").unwrap();
        assert_eq!(w0.queue_nanos, 5);
    }

    #[test]
    fn from_json_rejects_wrong_schema() {
        let err = RunProfile::from_json("{\"schema\":\"pccheck.metrics.v1\"}").unwrap_err();
        assert!(err.contains("unsupported profile schema"), "{err}");
    }

    #[test]
    fn archive_store_load_list() {
        let dir = std::env::temp_dir().join(format!(
            "pccheck-profile-archive-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let archive = ProfileArchive::open(&dir).unwrap();
        let p = RunProfile::from_events("unit_run", &sample_events());
        let path = archive.store(&p).unwrap();
        assert!(path.ends_with("unit_run.profile.json"));
        assert_eq!(archive.load("unit_run").unwrap(), p);
        // No .tmp left behind.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    fn profile_with_phase(run: &str, phase: &str, median: u64, share: f64) -> RunProfile {
        RunProfile {
            run: run.to_string(),
            strategy: "pccheck".to_string(),
            commits: 5,
            spans: 5,
            wall_nanos_median: median * 2,
            critical_nanos_median: median,
            gap_nanos_median: 0,
            stall_nanos_median: 0,
            persist_coverage_median: Some(0.95),
            writer_imbalance_median: Some(1.1),
            phases: vec![
                PhaseProfile {
                    phase: phase.to_string(),
                    count: 5,
                    median_nanos: median,
                    p95_nanos: median,
                    total_nanos: median * 5,
                    critical_nanos: (median as f64 * 5.0 * share) as u64,
                    critical_share: share,
                },
                PhaseProfile {
                    phase: "commit".to_string(),
                    count: 5,
                    median_nanos: 1_000,
                    p95_nanos: 1_200,
                    total_nanos: 5_000,
                    critical_nanos: 5_000,
                    critical_share: 1.0 - share,
                },
            ],
            actors: vec![ActorProfile {
                actor: "writer-0".to_string(),
                legs: 5,
                total_nanos: median * 4,
                media_nanos: median * 4,
                queue_nanos: 0,
                bytes: 1 << 20,
                max_leg_nanos: median,
            }],
        }
    }

    #[test]
    fn diff_flags_absolute_regression_with_blame() {
        let base = profile_with_phase("base", "persist", 10_000_000, 0.8);
        let cand = profile_with_phase("cand", "persist", 20_000_000, 0.9);
        let d = diff_profiles(&base, &cand, DiffMode::Absolute, &DiffThresholds::default());
        assert!(d.regressed);
        assert_eq!(d.blamed_phase.as_deref(), Some("persist"));
        let actor = d.blamed_actor.clone().unwrap();
        assert!(actor.starts_with("writer-0"), "{actor}");
        assert!(actor.contains("media-bound"), "{actor}");
        assert!(render_diff(&d).contains("REGRESSION: persist"));
    }

    #[test]
    fn diff_ignores_noise_below_floors() {
        let base = profile_with_phase("base", "persist", 100_000, 0.8);
        // +50% but only 50us absolute — under the 500us effect floor.
        let cand = profile_with_phase("cand", "persist", 150_000, 0.82);
        let d = diff_profiles(&base, &cand, DiffMode::Absolute, &DiffThresholds::default());
        assert!(!d.regressed, "{:?}", d.phases);
        // Shares mode: +0.02 share is under the 0.10 delta floor.
        let d = diff_profiles(&base, &cand, DiffMode::Shares, &DiffThresholds::default());
        assert!(!d.regressed);
        assert!(render_diff(&d).contains("PASS"));
    }

    #[test]
    fn diff_shares_mode_is_scale_invariant() {
        // Candidate machine is 10x slower overall, but shares moved from
        // balanced to persist-dominated: only the share shift flags.
        let base = profile_with_phase("base", "persist", 1_000_000, 0.5);
        let cand = profile_with_phase("cand", "persist", 10_000_000, 0.85);
        let d = diff_profiles(&base, &cand, DiffMode::Shares, &DiffThresholds::default());
        assert!(d.regressed);
        assert_eq!(d.blamed_phase.as_deref(), Some("persist"));
    }

    #[test]
    fn critical_annotations_ride_their_own_lane() {
        let events = sample_events();
        let trace = chrome_trace_annotated(&events);
        assert!(trace.contains("\"critical-path\""));
        assert!(trace.contains("crit:persist"));
        assert!(trace.contains("crit:commit"));
        // The overlapped copy is not on the path.
        assert!(!trace.contains("crit:gpu_copy"));
        let parsed = JsonValue::parse(&trace).expect("annotated trace parses");
        assert!(parsed
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .is_some());
    }

    #[test]
    fn render_profile_lists_top_offenders() {
        let p = RunProfile::from_events("unit", &sample_events());
        let text = render_profile(&p);
        assert!(text.contains("critical path by phase"));
        assert!(text.contains("persist"));
        assert!(text.contains("writer-1"));
    }
}
