//! Post-crash forensic auditor: replay the flight ring against the
//! on-device checkpoint metadata and reconstruct the commit state machine.
//!
//! After a crash the durable bytes hold two independent narratives of the
//! same run: the slot/`CHECK_ADDR` metadata (what the store *is*) and the
//! flight ring (what the protocol was *doing*). [`audit`] cross-examines
//! them. Per checkpoint counter it assigns a [`CheckpointVerdict`] —
//! committed, in flight at some phase, superseded, failed — and it checks
//! the invariants the commit protocol of Listing 1 promises:
//!
//! 1. **Commit counters effectively monotone** — the durable `CHECK_ADDR`
//!    only ever advances (`fetch_max`). Each namespace has its own
//!    `CHECK_ADDR`, so monotonicity is judged *per namespace*: jobs draw
//!    counters from one global sequence but commit independently, so
//!    cross-job commit order legitimately interleaves. Within a namespace
//!    the lock-free publish path can log
//!    two racing winners' `Commit` records slightly out of counter order
//!    (each thread records its own watermark advance after the
//!    `fetch_max`), so an inversion is only a violation when the stale
//!    record's checkpoint has no open window in the ring — a closed or
//!    absent window means the record was fabricated, not raced.
//! 2. **Bounded concurrency** — per namespace, never more than
//!    `slot_count − 1` checkpoints between `Begin` and a terminal event
//!    (one of its slots always holds its latest committed state). A
//!    `Begin` on a slot also closes any window still open on that slot:
//!    a commit whose `CHECK_ADDR` publish a newer winner overtook leaves
//!    no `Commit` record of its own, and its slot being leased again is
//!    the ring's evidence that it ended.
//! 3. **Commit preceded by persist** — a `Commit` record requires the
//!    checkpoint's `MetaPersisted` barrier earlier in the ring.
//! 4. **Recovery restores the newest commit** — the checkpoint the store
//!    would recover has a counter ≥ every `Commit` the ring witnessed
//!    (`CHECK_ADDR` persists *before* the ring's `Commit` record, so the
//!    ring can never be ahead of the durable pointer).
//! 5. **Committed slots are intact** — the payload of every slot holding
//!    a complete checkpoint opens with a frame table that binds to its
//!    commit record (the recorded digest is the table's checksum, and the
//!    table names the commit's counter).
//! 6. **Dedup bases stay pinned** — when the recovery target carries a
//!    base link, every base pointer down the chain lands on a slot still
//!    holding that base (superseded bases stay pinned until their
//!    dependents retire) and every base committed per the ring. And every
//!    recovery target, linked or not, materializes through the
//!    same plan and executor recovery uses (`pccheck::decode_frame`:
//!    decompressing LZ chunks and resolving self/base dedup references
//!    with re-verified content addresses) to a state matching its
//!    end-to-end digest.
//!
//! A report that violates any invariant means either real corruption or a
//! bug in the checkpointing protocol — `pccheckctl forensics` exits
//! nonzero on it, and CI runs it on a crash-injected store.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use pccheck::{
    decode_frame, read_table, CheckMeta, JobId, PccheckError, RawStoreView, RestoreOptions,
    SlotOutcome,
};
use pccheck_device::PersistentDevice;
use pccheck_telemetry::{FlightEventKind, FlightRecord, FlightRing};

/// How far an in-flight (never terminated) checkpoint got before the
/// crash, per the flight ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum InFlightPhase {
    /// `Begin` only: slot leased, payload not yet copied off the GPU.
    Begun,
    /// GPU→DRAM copy finished, payload not yet durable.
    Copied,
    /// Payload durable, metadata barrier not yet taken.
    Persisted,
    /// Metadata barrier durable — one CAS away from commitment.
    MetaPersisted,
}

impl InFlightPhase {
    /// Stable lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            InFlightPhase::Begun => "begun",
            InFlightPhase::Copied => "copied",
            InFlightPhase::Persisted => "persisted",
            InFlightPhase::MetaPersisted => "meta_persisted",
        }
    }
}

/// The auditor's classification of one checkpoint counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointVerdict {
    /// The checkpoint became the durably published state at some point.
    Committed {
        /// Training iteration it captured.
        iteration: u64,
        /// Slot it occupied.
        slot: u32,
        /// Whether its slot still holds this checkpoint with a payload
        /// that verifies (older commits are legitimately recycled —
        /// `payload_valid: false` alone is not a violation unless this is
        /// the expected recovery target).
        payload_valid: bool,
    },
    /// The crash caught this checkpoint mid-protocol.
    InFlight {
        /// The furthest phase the ring witnessed.
        phase: InFlightPhase,
        /// Slot it was writing into.
        slot: u32,
    },
    /// A newer checkpoint won the commit race.
    Superseded {
        /// Counter of the winner.
        by: u64,
    },
    /// The checkpoint failed (device error / crash injection) and the run
    /// knew it.
    Failed,
}

/// An invariant broken by the reconstructed history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvariantViolation {
    /// Commit records were not strictly increasing in counter.
    CommitNotMonotone {
        /// The earlier committed counter.
        prev: u64,
        /// The offending later commit.
        next: u64,
    },
    /// More concurrent in-protocol checkpoints in one namespace than its
    /// slots allow.
    ConcurrencyExceeded {
        /// Peak concurrent checkpoints observed in the namespace.
        observed: usize,
        /// Allowed maximum (the namespace's `slot_count − 1`).
        limit: usize,
    },
    /// A `Commit` record with no earlier `MetaPersisted` barrier for the
    /// same counter (only flagged when the ring still holds the
    /// checkpoint's `Begin`, i.e. the window wasn't lost to wrap).
    CommitWithoutPersist {
        /// The offending counter.
        counter: u64,
    },
    /// The checkpoint recovery would restore is older than a commit the
    /// ring witnessed as durable.
    RecoveredNotNewest {
        /// Counter recovery would restore (0 = nothing recoverable).
        recovered: u64,
        /// Newest committed counter per the ring.
        newest: u64,
    },
    /// The expected recovery target's frame does not materialize to a
    /// state matching the full digest its table records.
    TornCommittedSlot {
        /// Slot of the torn checkpoint.
        slot: u32,
        /// Its counter.
        counter: u64,
    },
    /// A linked checkpoint in the recovery target's chain points at a base
    /// whose slot no longer holds that base — the chain has a gap, so the
    /// pinning rule (bases survive until every dependent retires) broke.
    DeltaChainGap {
        /// The linked checkpoint whose base pointer dangles.
        counter: u64,
        /// The base counter it expected.
        base_counter: u64,
        /// The slot that should hold the base.
        base_slot: u32,
    },
    /// A base in the recovery target's chain never committed per the
    /// flight ring (the chain depends on a checkpoint the protocol knows
    /// was in flight or failed).
    DeltaBaseNotCommitted {
        /// The linked checkpoint depending on the dubious base.
        counter: u64,
        /// The base that never committed.
        base_counter: u64,
    },
    /// A slot's durable state word says `Committed{c}` but its meta record
    /// does not carry counter `c`. The commit protocol persists the meta
    /// record *before* the Committed word, so this point of the lattice is
    /// unreachable — seeing it means lost writes or a protocol bug (see
    /// DESIGN §13).
    StateLatticeViolation {
        /// The torn slot.
        slot: u32,
        /// Counter in the durable state word.
        state_counter: u64,
        /// Counter in the slot's meta record (`None` = no valid record).
        meta_counter: Option<u64>,
    },
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvariantViolation::CommitNotMonotone { prev, next } => {
                write!(
                    f,
                    "commit counters not monotone: {next} committed after {prev}"
                )
            }
            InvariantViolation::ConcurrencyExceeded { observed, limit } => {
                write!(
                    f,
                    "{observed} concurrent checkpoints exceed the limit of {limit}"
                )
            }
            InvariantViolation::CommitWithoutPersist { counter } => {
                write!(
                    f,
                    "checkpoint {counter} committed without a persisted metadata barrier"
                )
            }
            InvariantViolation::RecoveredNotNewest { recovered, newest } => {
                write!(
                    f,
                    "recovery restores counter {recovered} but the ring saw counter {newest} commit"
                )
            }
            InvariantViolation::TornCommittedSlot { slot, counter } => {
                write!(
                    f,
                    "committed checkpoint {counter} in slot {slot} fails digest verification"
                )
            }
            InvariantViolation::DeltaChainGap {
                counter,
                base_counter,
                base_slot,
            } => {
                write!(
                    f,
                    "checkpoint {counter} points at base {base_counter} \
                     but slot {base_slot} no longer holds it"
                )
            }
            InvariantViolation::DeltaBaseNotCommitted {
                counter,
                base_counter,
            } => {
                write!(
                    f,
                    "checkpoint {counter} chains onto base {base_counter} that never committed"
                )
            }
            InvariantViolation::StateLatticeViolation {
                slot,
                state_counter,
                meta_counter,
            } => {
                write!(
                    f,
                    "slot {slot} state word says committed#{state_counter} but its meta record {}",
                    match meta_counter {
                        Some(c) => format!("carries counter {c}"),
                        None => "does not decode".to_string(),
                    }
                )
            }
        }
    }
}

/// The auditor's full report.
#[derive(Debug, Clone)]
pub struct ForensicReport {
    /// Verdict per checkpoint counter the ring still holds evidence for.
    pub checkpoints: BTreeMap<u64, CheckpointVerdict>,
    /// Invariant violations (empty = the crash is clean).
    pub violations: Vec<InvariantViolation>,
    /// Flight records replayed (seq-ordered survivors).
    pub ring_records: usize,
    /// Ring cells that held data but failed checksum validation (at most
    /// the torn tail under normal operation).
    pub(crate) torn_ring_cells: u32,
    /// Valid cells from an older lap that the scan rejected (a resurrected
    /// stale record would otherwise forge history).
    pub(crate) stale_ring_cells: u32,
    /// Whether the ring wrapped (history is a suffix of the run).
    pub(crate) ring_wrapped: bool,
    /// Peak concurrent in-protocol checkpoints observed in the ring.
    pub(crate) peak_concurrency: usize,
    /// The store's concurrency bound: `slot_count − 1` summed over its
    /// namespaces (each pins its own committed slot; the invariant itself
    /// is judged per namespace).
    pub concurrency_limit: usize,
    /// The checkpoint recovery would restore for each allocated namespace,
    /// from the durable metadata: `(job, head)` in directory order.
    pub namespace_recovery: Vec<(JobId, Option<pccheck::CheckMeta>)>,
    /// Each slot's post-crash classification, decided from its durable
    /// state word + meta CRC alone (the detectable-recovery lattice).
    pub slot_outcomes: Vec<SlotOutcome>,
}

impl ForensicReport {
    /// The checkpoint recovery would restore for `job`; `None` when the
    /// job has no namespace or nothing committed.
    pub fn expected_recovery(&self, job: JobId) -> Option<pccheck::CheckMeta> {
        let (_, head) = self.namespace_recovery.iter().find(|(j, _)| *j == job)?;
        *head
    }

    /// `true` when no invariant is violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Counters the crash caught mid-protocol.
    pub fn in_flight(&self) -> Vec<u64> {
        self.checkpoints
            .iter()
            .filter(|(_, v)| matches!(v, CheckpointVerdict::InFlight { .. }))
            .map(|(c, _)| *c)
            .collect()
    }

    /// Human-readable rendering (the `pccheckctl forensics` output).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "forensic audit");
        let _ = writeln!(
            out,
            "  flight ring: {} records ({} torn cell(s), {} stale cell(s){})",
            self.ring_records,
            self.torn_ring_cells,
            self.stale_ring_cells,
            if self.ring_wrapped { ", wrapped" } else { "" }
        );
        let _ = writeln!(out, "  expected recovery:");
        for (job, head) in &self.namespace_recovery {
            match head {
                Some(m) => {
                    let _ = writeln!(
                        out,
                        "    job {job}: counter {} (iteration {}, slot {}, {} B)",
                        m.counter, m.iteration, m.slot, m.payload_len
                    );
                }
                None => {
                    let _ = writeln!(out, "    job {job}: no committed checkpoint");
                }
            }
        }
        let _ = writeln!(
            out,
            "  peak concurrency: {} (limit {})",
            self.peak_concurrency, self.concurrency_limit
        );
        if !self.slot_outcomes.is_empty() {
            let _ = writeln!(out, "  slot lattice:");
            for (slot, outcome) in self.slot_outcomes.iter().enumerate() {
                let _ = writeln!(out, "    slot {slot:<3} {outcome}");
            }
        }
        let _ = writeln!(out, "  checkpoints:");
        for (counter, verdict) in &self.checkpoints {
            let line = match verdict {
                CheckpointVerdict::Committed {
                    iteration,
                    slot,
                    payload_valid,
                } => format!(
                    "committed   iter {iteration:<6} slot {slot} payload {}",
                    if *payload_valid {
                        "valid"
                    } else {
                        "recycled/torn"
                    }
                ),
                CheckpointVerdict::InFlight { phase, slot } => {
                    format!("IN-FLIGHT   phase {:<14} slot {slot}", phase.name())
                }
                CheckpointVerdict::Superseded { by } => format!("superseded  by counter {by}"),
                CheckpointVerdict::Failed => "failed".to_string(),
            };
            let _ = writeln!(out, "    #{counter:<5} {line}");
        }
        if self.violations.is_empty() {
            let _ = writeln!(out, "  verdict: CLEAN — all invariants hold");
        } else {
            let _ = writeln!(out, "  verdict: {} VIOLATION(S)", self.violations.len());
            for v in &self.violations {
                let _ = writeln!(out, "    ! {v}");
            }
        }
        out
    }
}

/// Audits a crashed (or live) store on `device`: loads the durable
/// metadata view, scans the flight ring (when the store has one), and
/// cross-checks the two. Works while the device is crashed — only durable
/// reads are issued, nothing is mutated.
///
/// Stores formatted without a flight ring still get the metadata-only
/// checks (payload digest verification of the recovery target).
///
/// # Errors
///
/// Returns [`PccheckError::InvalidConfig`] if the device holds no PCcheck
/// store; propagates device read errors.
pub fn audit(device: Arc<dyn PersistentDevice>) -> Result<ForensicReport, PccheckError> {
    let view = RawStoreView::load(device.as_ref())?;
    let geometry = *view.layout.geometry();
    let namespace_recovery: Vec<(JobId, Option<CheckMeta>)> = view
        .namespaces
        .iter()
        .map(|ns| (ns.desc.job, view.expected_recovery(ns.desc.job)))
        .collect();
    // One slot of a namespace always holds its committed state, so at
    // most slot_count−1 of its checkpoints are in protocol.
    let ns_limit = |ns: &pccheck::store::RawNamespace| ns.desc.slot_count as usize - 1;
    let concurrency_limit = view.namespaces.iter().map(ns_limit).sum();

    let (records, torn, stale, wrapped) = if geometry.flight_records > 0 {
        match FlightRing::scan(device.as_ref(), view.layout.flight()) {
            Ok(scan) => {
                let wrapped = scan.wrapped();
                (scan.records, scan.torn_cells, scan.stale_cells, wrapped)
            }
            // A torn ring header: report it as one torn cell and fall back
            // to metadata-only auditing rather than failing the audit.
            Err(_) => (Vec::new(), 1, 0, false),
        }
    } else {
        (Vec::new(), 0, 0, false)
    };

    let mut checkpoints: BTreeMap<u64, CheckpointVerdict> = BTreeMap::new();
    let mut violations: Vec<InvariantViolation> = Vec::new();

    // --- Replay the ring in sequence order. ---------------------------
    // Track per-counter progress and the set of checkpoints currently
    // between Begin and a terminal event. The commit-order and
    // concurrency invariants are partitioned by namespace (key = owning
    // job; `None` = a slot outside any namespace).
    let mut last_commit: BTreeMap<Option<JobId>, u64> = BTreeMap::new();
    let mut newest_ring_commit: BTreeMap<Option<JobId>, u64> = BTreeMap::new();
    let mut active: BTreeMap<u64, (InFlightPhase, u32)> = BTreeMap::new();
    let mut peak = 0usize;
    let mut peak_of: BTreeMap<Option<JobId>, usize> = BTreeMap::new();
    let mut meta_persisted: Vec<u64> = Vec::new();

    for rec in &records {
        match rec.kind {
            FlightEventKind::RunStart
            | FlightEventKind::RecoveryStart
            | FlightEventKind::RecoveryDone => {}
            FlightEventKind::Begin => {
                // The slot being leased again ends whatever window was
                // still open on it.
                active.retain(|_, (_, slot)| *slot != rec.slot);
                active.insert(rec.counter, (InFlightPhase::Begun, rec.slot));
                peak = peak.max(active.len());
                let ns = view.namespace_of_slot(rec.slot);
                let in_ns = active
                    .values()
                    .filter(|(_, s)| view.namespace_of_slot(*s) == ns)
                    .count();
                let peak_in_ns = peak_of.entry(ns).or_insert(0);
                *peak_in_ns = (*peak_in_ns).max(in_ns);
            }
            FlightEventKind::CopyDone => {
                bump_phase(&mut active, rec, InFlightPhase::Copied);
            }
            FlightEventKind::PayloadPersisted => {
                bump_phase(&mut active, rec, InFlightPhase::Persisted);
            }
            FlightEventKind::MetaPersisted => {
                bump_phase(&mut active, rec, InFlightPhase::MetaPersisted);
                meta_persisted.push(rec.counter);
            }
            FlightEventKind::Commit => {
                let ns = view.namespace_of_slot(rec.slot);
                if let Some(&prev) = last_commit.get(&ns) {
                    // The lock-free publish path lets two racing winners
                    // log their Commit records out of counter order (each
                    // records its own `fetch_max` advance); that benign
                    // inversion always has the stale counter's window
                    // still open. An inversion for a closed (or absent)
                    // window can only be a fabricated or replayed record.
                    if rec.counter <= prev && !active.contains_key(&rec.counter) {
                        violations.push(InvariantViolation::CommitNotMonotone {
                            prev,
                            next: rec.counter,
                        });
                    }
                }
                let watermark = last_commit.entry(ns).or_insert(0);
                *watermark = (*watermark).max(rec.counter);
                let newest = newest_ring_commit.entry(ns).or_insert(0);
                *newest = (*newest).max(rec.counter);
                // Invariant 3: the barrier must precede the commit. Only
                // judgeable when the ring still holds the checkpoint's
                // window (its Begin wasn't lost to wrap).
                let window_complete = active.contains_key(&rec.counter);
                if window_complete && !meta_persisted.contains(&rec.counter) {
                    violations.push(InvariantViolation::CommitWithoutPersist {
                        counter: rec.counter,
                    });
                }
                let slot = active
                    .remove(&rec.counter)
                    .map(|(_, s)| s)
                    .unwrap_or(rec.slot);
                checkpoints.insert(
                    rec.counter,
                    CheckpointVerdict::Committed {
                        iteration: rec.iteration,
                        slot,
                        payload_valid: false, // filled in below
                    },
                );
            }
            FlightEventKind::Superseded => {
                active.remove(&rec.counter);
                checkpoints.insert(rec.counter, CheckpointVerdict::Superseded { by: rec.aux });
            }
            FlightEventKind::Failed => {
                active.remove(&rec.counter);
                checkpoints.insert(rec.counter, CheckpointVerdict::Failed);
            }
        }
    }

    // Whatever is still active was in flight at the crash.
    for (counter, (phase, slot)) in &active {
        checkpoints.insert(
            *counter,
            CheckpointVerdict::InFlight {
                phase: *phase,
                slot: *slot,
            },
        );
    }

    for ns in &view.namespaces {
        let observed = peak_of.get(&Some(ns.desc.job)).copied().unwrap_or(0);
        if observed > ns_limit(ns) {
            violations.push(InvariantViolation::ConcurrencyExceeded {
                observed,
                limit: ns_limit(ns),
            });
        }
    }

    // --- Cross-check the ring against the durable metadata. -----------
    // Invariant 4: CHECK_ADDR persists before the ring's Commit record,
    // so recovery can never restore something older than a ring commit.
    // Judged per namespace: each tenant's durable pointer must cover its
    // own ring commits.
    for (&ns, &newest) in &newest_ring_commit {
        if newest == 0 {
            continue;
        }
        let recovered = ns
            .and_then(|job| view.expected_recovery(job))
            .map_or(0, |m| m.counter);
        if recovered < newest {
            violations.push(InvariantViolation::RecoveredNotNewest { recovered, newest });
        }
    }

    // Invariant 5 + payload_valid: every slot's frame table must bind to
    // its commit record. Only the table is read: a fault in a slot's
    // packed region matters only in a recovery target, which invariant 6
    // materializes whole. Every namespace's recovery head is a target —
    // one tenant's torn head is a violation even when another tenant
    // holds the globally newest commit.
    let read = |slot, at, buf: &mut [u8]| {
        device
            .read_durable_at(view.layout.slot_payload(slot) + at, buf)
            .is_ok()
    };
    let recovery_targets: Vec<CheckMeta> =
        namespace_recovery.iter().filter_map(|(_, m)| *m).collect();
    for slot in 0..geometry.slots {
        let Some(meta) = view.slot_meta[slot as usize] else {
            continue;
        };
        let valid = read_table(&meta, &read).is_some();
        if let Some(CheckpointVerdict::Committed { payload_valid, .. }) =
            checkpoints.get_mut(&meta.counter)
        {
            *payload_valid = valid;
        } else if !checkpoints.contains_key(&meta.counter) && geometry.flight_records == 0 {
            // Ring-less store: synthesize verdicts from metadata alone.
            checkpoints.insert(
                meta.counter,
                CheckpointVerdict::Committed {
                    iteration: meta.iteration,
                    slot,
                    payload_valid: valid,
                },
            );
        }
        if !valid && recovery_targets.iter().any(|m| m.counter == meta.counter) {
            violations.push(InvariantViolation::TornCommittedSlot {
                slot,
                counter: meta.counter,
            });
        }
    }

    // Invariant 7: the per-slot commit-state lattice. Every slot's durable
    // state word + meta CRC must decide to a reachable lattice point; the
    // Torn point (Committed word over a mismatched meta) is unreachable
    // because the protocol persists the meta record before the Committed
    // word. Claimed words whose checkpoints the ring no longer witnesses
    // (wrapped, or a ring-less store) are synthesized as in-flight — the
    // state word alone is enough to decide them (detectable recovery).
    let slot_outcomes = view.slot_outcomes();
    for (slot, outcome) in slot_outcomes.iter().enumerate() {
        match *outcome {
            SlotOutcome::Torn {
                state_counter,
                meta_counter,
            } => {
                violations.push(InvariantViolation::StateLatticeViolation {
                    slot: slot as u32,
                    state_counter,
                    meta_counter,
                });
            }
            SlotOutcome::InFlight { counter } | SlotOutcome::Persisted { counter } => {
                checkpoints
                    .entry(counter)
                    .or_insert(CheckpointVerdict::InFlight {
                        phase: if matches!(outcome, SlotOutcome::Persisted { .. }) {
                            InFlightPhase::MetaPersisted
                        } else {
                            InFlightPhase::Begun
                        },
                        slot: slot as u32,
                    });
            }
            SlotOutcome::Empty | SlotOutcome::Historical { .. } | SlotOutcome::Committed { .. } => {
            }
        }
    }

    // Invariant 6: a linked recovery target's base chain must be pinned in
    // place and built on committed bases, and every target — linked or
    // not — must materialize exactly the way recovery does (its restore
    // plan, run by the one executor), each base reference read by range
    // out of the slot the record names, provided that slot still holds
    // that checkpoint: invariant 5's table check alone would miss a torn
    // packed region or a vanished dedup base. Every tenant's head is
    // audited.
    let commits: Vec<CheckMeta> = view.slot_meta.iter().flatten().copied().collect();
    let readers = RestoreOptions::default().readers;
    for target in &recovery_targets {
        audit_base_pins(&view, target, &checkpoints, &mut violations);
        if decode_frame(target, &commits, &read, readers).is_none() {
            violations.push(InvariantViolation::TornCommittedSlot {
                slot: target.slot,
                counter: target.counter,
            });
        }
    }

    Ok(ForensicReport {
        checkpoints,
        violations,
        ring_records: records.len(),
        torn_ring_cells: torn,
        stale_ring_cells: stale,
        ring_wrapped: wrapped,
        peak_concurrency: peak,
        concurrency_limit,
        namespace_recovery,
        slot_outcomes,
    })
}

/// Advances a counter's in-flight phase monotonically (records can only
/// move a checkpoint forward).
fn bump_phase(
    active: &mut BTreeMap<u64, (InFlightPhase, u32)>,
    rec: &FlightRecord,
    to: InFlightPhase,
) {
    if let Some((phase, _)) = active.get_mut(&rec.counter) {
        if to > *phase {
            *phase = to;
        }
    }
}

/// Walks the recovery target's base links, pushing a violation for each
/// broken pin: a dangling base pointer
/// ([`InvariantViolation::DeltaChainGap`]) or a base the ring says never
/// committed ([`InvariantViolation::DeltaBaseNotCommitted`]).
fn audit_base_pins(
    view: &RawStoreView,
    target: &CheckMeta,
    checkpoints: &BTreeMap<u64, CheckpointVerdict>,
    violations: &mut Vec<InvariantViolation>,
) {
    let mut head = *target;
    // Cycle guard: a chain is never longer than the store has slots.
    for _ in 0..view.layout.geometry().slots {
        let Some(link) = head.delta else { return };
        let base = view
            .slot_meta
            .get(link.base_slot as usize)
            .copied()
            .flatten()
            .filter(|m| m.counter == link.base_counter && m.slot == link.base_slot);
        let Some(base) = base else {
            violations.push(InvariantViolation::DeltaChainGap {
                counter: head.counter,
                base_counter: link.base_counter,
                base_slot: link.base_slot,
            });
            return;
        };
        if matches!(
            checkpoints.get(&base.counter),
            Some(CheckpointVerdict::InFlight { .. }) | Some(CheckpointVerdict::Failed)
        ) {
            violations.push(InvariantViolation::DeltaBaseNotCommitted {
                counter: head.counter,
                base_counter: base.counter,
            });
        }
        head = base;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pccheck::{
        bind_frame_table, raw_frame, CheckpointStore, ChunkEncoding, CommitOutcome, FrameTable,
        Namespace, StoreGeometry, DEFAULT_JOB,
    };
    use pccheck_gpu::StateDigest;

    /// The tenant of a single-tenant store.
    fn ns(st: &CheckpointStore) -> Arc<Namespace> {
        st.namespace(DEFAULT_JOB).unwrap()
    }

    /// Durable reads of slot payload bytes, as the audit makes them.
    fn durable_reads<'a>(
        dev: &'a dyn PersistentDevice,
        view: &'a RawStoreView,
    ) -> impl Fn(u32, u64, &mut [u8]) -> bool + Sync + 'a {
        move |slot, at, buf| {
            dev.read_durable_at(view.layout.slot_payload(slot) + at, buf)
                .is_ok()
        }
    }
    use pccheck_device::{DeviceConfig, SsdDevice};
    use pccheck_telemetry::FlightEventKind as K;
    use pccheck_util::ByteSize;

    /// Slot size of the test stores: room for the frame of a few dozen
    /// bytes of state.
    const SLOT: ByteSize = ByteSize::from_bytes(256);

    fn flight_store(slots: u32, ring: u32) -> (Arc<dyn PersistentDevice>, CheckpointStore) {
        let geometry = StoreGeometry {
            flight_records: ring,
            ..StoreGeometry::single(SLOT, slots)
        };
        let dev: Arc<dyn PersistentDevice> = Arc::new(SsdDevice::new(
            DeviceConfig::fast_for_tests(geometry.required_capacity()),
        ));
        let st = CheckpointStore::format(Arc::clone(&dev), geometry).unwrap();
        (dev, st)
    }

    fn commit_one(st: &CheckpointStore, iter: u64, payload: &[u8]) {
        commit_job(st, DEFAULT_JOB, iter, payload);
    }

    /// Commits a hand-assembled frame over the latest committed
    /// (all-`Raw`, one-record) checkpoint: one `Raw` chunk of `fresh` bytes
    /// followed by one `DedupBase` chunk naming the base's whole state,
    /// pinned through a link to that base.
    fn commit_frame_over_base(st: &CheckpointStore, iter: u64, fresh: &[u8]) {
        use pccheck::{DeltaLink, FrameRecord};
        use pccheck_util::fnv::content_address;

        let base = st.latest_committed(&ns(st)).unwrap();
        let base_payload = st.read_checkpoint(&base).unwrap();
        let base_table = bind_frame_table(&base_payload, &base).unwrap();
        let base_bytes = &base_payload[base_table.encoded_len() as usize..];
        let logical = [fresh, base_bytes].concat();
        let lease = st.begin_checkpoint(&ns(st));
        let table = FrameTable {
            counter: lease.counter,
            logical_len: logical.len() as u64,
            full_digest: StateDigest::of_payload(&logical, iter).0,
            records: vec![
                FrameRecord {
                    kind: ChunkEncoding::Raw,
                    aux: 0,
                    logical_len: fresh.len() as u64,
                    a: 0,
                    b: fresh.len() as u64,
                    digest: content_address(fresh),
                },
                FrameRecord {
                    kind: ChunkEncoding::DedupBase,
                    aux: base.slot,
                    logical_len: base_bytes.len() as u64,
                    a: base.counter,
                    b: 0,
                    digest: content_address(base_bytes),
                },
            ],
        };
        let table_bytes = table.encode();
        let payload = [&table_bytes[..], fresh].concat();
        st.write_payload(&lease, 0, &payload).unwrap();
        st.persist_payload(&lease, 0, payload.len() as u64).unwrap();
        let link = DeltaLink {
            base_counter: base.counter,
            base_slot: base.slot,
            chain_depth: base.delta.map_or(0, |l| l.chain_depth) + 1,
        };
        assert_eq!(
            st.commit_with_delta(
                lease,
                iter,
                payload.len() as u64,
                pccheck_util::fnv::fnv1a(&table_bytes),
                Some(link),
            )
            .unwrap(),
            CommitOutcome::Committed
        );
    }

    #[test]
    fn linked_frame_audits_clean() {
        let (dev, st) = flight_store(4, 64);
        commit_one(&st, 1, &[7u8; 64]);
        commit_frame_over_base(&st, 2, &[1u8; 8]);
        dev.crash_now();
        let report = audit(Arc::clone(&dev)).unwrap();
        assert!(report.is_clean(), "{:?}", report.violations);
        let target = report.expected_recovery(DEFAULT_JOB).unwrap();
        assert_eq!(target.iteration, 2);
        assert_eq!(target.delta.unwrap().chain_depth, 1);
        assert!(matches!(
            report.checkpoints[&2],
            CheckpointVerdict::Committed {
                payload_valid: true,
                ..
            }
        ));
    }

    #[test]
    fn dangling_base_link_is_flagged() {
        let (dev, st) = flight_store(4, 64);
        commit_one(&st, 1, &[9u8; 64]);
        commit_frame_over_base(&st, 2, &[2u8; 8]);
        // The store withdraws a frame whose link target it does not pin,
        // so forge one behind its back: right counter, wrong slot — the
        // pin protects nothing.
        let mut head = st.latest_committed(&ns(&st)).unwrap();
        let link = head.delta.as_mut().unwrap();
        link.base_slot = (link.base_slot + 1) % 4;
        let (off, rec) = (st.layout().slot_meta(head.slot), head.encode());
        dev.write_at(off, &rec).unwrap();
        dev.persist(off, rec.len() as u64).unwrap();
        dev.crash_now();
        let report = audit(Arc::clone(&dev)).unwrap();
        assert!(report.violations.iter().any(|v| matches!(
            v,
            InvariantViolation::DeltaChainGap {
                counter: 2,
                base_counter: 1,
                ..
            }
        )));
    }

    #[test]
    fn base_that_never_committed_is_flagged() {
        let (dev, st) = flight_store(4, 64);
        commit_one(&st, 1, &[3u8; 64]);
        // Fabricate a ring record claiming checkpoint 1 failed: the frame
        // now depends on a base the protocol disowned.
        st.flight().record(K::Failed, 1, 0, 1, 64, 0);
        commit_frame_over_base(&st, 2, &[5u8; 4]);
        dev.crash_now();
        let report = audit(Arc::clone(&dev)).unwrap();
        assert!(report.violations.iter().any(|v| matches!(
            v,
            InvariantViolation::DeltaBaseNotCommitted {
                counter: 2,
                base_counter: 1,
            }
        )));
    }

    #[test]
    fn recycled_dedup_base_is_flagged() {
        let (dev, st) = flight_store(4, 64);
        commit_one(&st, 1, &[11u8; 64]);
        let base = st.latest_committed(&ns(&st)).unwrap();
        commit_frame_over_base(&st, 2, &[13u8; 8]);
        // Flip one byte of the base's state behind the store's back: the
        // frame's own slot is intact, so only resolving the reference
        // catches it.
        let off = st.slot_payload_offset(base.slot) + FrameTable::encoded_len_for(1) + 10;
        dev.write_at(off, &[0xEE]).unwrap();
        dev.persist(off, 1).unwrap();
        dev.crash_now();
        let report = audit(Arc::clone(&dev)).unwrap();
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, InvariantViolation::TornCommittedSlot { counter: 2, .. })));
    }

    #[test]
    fn clean_run_audits_clean() {
        let (dev, st) = flight_store(3, 64);
        for i in 1..=4 {
            commit_one(&st, i, format!("p{i}").as_bytes());
        }
        dev.crash_now();
        let report = audit(Arc::clone(&dev)).unwrap();
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.expected_recovery(DEFAULT_JOB).unwrap().iteration, 4);
        assert!(report.in_flight().is_empty());
        assert_eq!(report.checkpoints.len(), 4);
        assert!(matches!(
            report.checkpoints[&4],
            CheckpointVerdict::Committed {
                payload_valid: true,
                ..
            }
        ));
        assert!(report.render().contains("CLEAN"));
    }

    #[test]
    fn in_flight_checkpoint_classified_by_phase() {
        let (dev, st) = flight_store(3, 64);
        commit_one(&st, 1, b"one");
        // Crash between persist and commit: payload + flight records up to
        // PayloadPersisted, no metadata barrier.
        let lease = st.begin_checkpoint(&ns(&st));
        st.write_payload(&lease, 0, b"two").unwrap();
        st.persist_payload(&lease, 0, 3).unwrap();
        st.flight()
            .record(K::CopyDone, lease.counter, lease.slot, 0, 3, 0);
        st.flight()
            .record(K::PayloadPersisted, lease.counter, lease.slot, 2, 3, 0);
        let counter = lease.counter;
        dev.crash_now();
        let report = audit(Arc::clone(&dev)).unwrap();
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.in_flight(), vec![counter]);
        assert_eq!(
            report.checkpoints[&counter],
            CheckpointVerdict::InFlight {
                phase: InFlightPhase::Persisted,
                slot: 1,
            }
        );
        // Recovery still lands on checkpoint 1.
        assert_eq!(report.expected_recovery(DEFAULT_JOB).unwrap().iteration, 1);
    }

    #[test]
    fn fabricated_commit_without_barrier_is_flagged() {
        let (dev, st) = flight_store(3, 64);
        commit_one(&st, 1, b"one");
        // Fabricate a protocol bug: a Commit record for a checkpoint that
        // never took the metadata barrier.
        let lease = st.begin_checkpoint(&ns(&st));
        st.flight()
            .record(K::Commit, lease.counter, lease.slot, 9, 3, 0);
        dev.crash_now();
        let report = audit(Arc::clone(&dev)).unwrap();
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, InvariantViolation::CommitWithoutPersist { .. })));
        // And the durable CHECK_ADDR never advanced to it:
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, InvariantViolation::RecoveredNotNewest { .. })));
        assert!(!report.is_clean());
    }

    #[test]
    fn torn_recovery_target_is_flagged() {
        let (dev, st) = flight_store(3, 64);
        commit_one(&st, 1, b"one");
        // Corrupt the committed payload behind the store's back.
        let meta = st.latest_committed(&ns(&st)).unwrap();
        let off = st.slot_payload_offset(meta.slot);
        dev.write_at(off, b"WRONG").unwrap();
        dev.persist(off, 5).unwrap();
        dev.crash_now();
        let report = audit(Arc::clone(&dev)).unwrap();
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, InvariantViolation::TornCommittedSlot { counter: 1, .. })));
    }

    #[test]
    fn ringless_store_still_audits_metadata() {
        let cap = CheckpointStore::required_capacity(SLOT, 3);
        let dev: Arc<dyn PersistentDevice> =
            Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let st = CheckpointStore::format(Arc::clone(&dev), StoreGeometry::single(SLOT, 3)).unwrap();
        commit_one(&st, 1, b"one");
        dev.crash_now();
        let report = audit(Arc::clone(&dev)).unwrap();
        assert!(report.is_clean());
        assert_eq!(report.ring_records, 0);
        assert_eq!(report.checkpoints.len(), 1);
        assert!(matches!(
            report.checkpoints[&1],
            CheckpointVerdict::Committed {
                payload_valid: true,
                ..
            }
        ));
    }

    #[test]
    fn non_monotone_commits_flagged() {
        let (dev, st) = flight_store(4, 64);
        commit_one(&st, 1, b"a");
        commit_one(&st, 2, b"b");
        // Fabricate an out-of-order Commit record for a checkpoint whose
        // window already closed: the fetch_max watermark records exactly
        // one Commit per counter, so a second record for counter 1 cannot
        // be a benign race — its window is gone from `active`.
        st.flight().record(K::MetaPersisted, 1, 0, 1, 1, 0);
        st.flight().record(K::Commit, 1, 0, 1, 1, 0);
        dev.crash_now();
        let report = audit(Arc::clone(&dev)).unwrap();
        assert!(report.violations.iter().any(|v| matches!(
            v,
            InvariantViolation::CommitNotMonotone { prev: 2, next: 1 }
        )));
    }

    #[test]
    fn racing_winner_commit_inversion_is_tolerated() {
        // Two checkpointers win the watermark in counter order but log
        // their Commit records inverted (the lock-free publish path allows
        // this: each thread records its own fetch_max advance). Both
        // windows are open when the stale record lands, so the auditor
        // must not flag a false CommitNotMonotone.
        let (dev, st) = flight_store(4, 64);
        let lease_a = st.begin_checkpoint(&ns(&st));
        let lease_b = st.begin_checkpoint(&ns(&st));
        let (ca, sa) = (lease_a.counter, lease_a.slot);
        let (cb, sb) = (lease_b.counter, lease_b.slot);
        // Replay what the device would hold: both frames and metas
        // persisted, then the Commit records land newer-first.
        for (lease, iter, state) in [(lease_a, 1u64, b"aa"), (lease_b, 2u64, b"bb")] {
            let (frame, digest) = frame_of(lease.counter, iter, state);
            st.write_payload(&lease, 0, &frame).unwrap();
            st.persist_payload(&lease, 0, frame.len() as u64).unwrap();
            let meta = pccheck::CheckMeta {
                counter: lease.counter,
                slot: lease.slot,
                iteration: iter,
                payload_len: frame.len() as u64,
                digest,
                delta: None,
            };
            let off = st.layout().slot_meta(lease.slot);
            let record = meta.encode();
            dev.write_at(off, &record).unwrap();
            dev.persist(off, record.len() as u64).unwrap();
            std::mem::forget(lease);
        }
        // (No durable CHECK_ADDR write needed: the max-counter slot scan
        // already resolves recovery to the newer winner.)
        st.flight().record(K::MetaPersisted, ca, sa, 1, 2, 0);
        st.flight().record(K::MetaPersisted, cb, sb, 2, 2, 0);
        st.flight().record(K::Commit, cb, sb, 2, 2, 0);
        st.flight().record(K::Commit, ca, sa, 1, 2, 0);
        dev.crash_now();
        let report = audit(Arc::clone(&dev)).unwrap();
        assert!(
            !report
                .violations
                .iter()
                .any(|v| matches!(v, InvariantViolation::CommitNotMonotone { .. })),
            "benign inversion flagged: {:?}",
            report.violations
        );
        assert!(matches!(
            report.checkpoints[&cb],
            CheckpointVerdict::Committed { .. }
        ));
    }

    #[test]
    fn torn_state_word_is_a_lattice_violation() {
        let (dev, st) = flight_store(3, 64);
        commit_one(&st, 1, b"one");
        let head = st.latest_committed(&ns(&st)).unwrap();
        // Forge the unreachable lattice point: a Committed state word over
        // a meta record carrying a different counter.
        let forged = pccheck::SlotState::Committed {
            counter: head.counter + 10,
        };
        let (off, word) = (st.layout().slot_state(head.slot), forged.encode());
        dev.write_at(off, &word).unwrap();
        dev.persist(off, word.len() as u64).unwrap();
        dev.crash_now();
        let report = audit(Arc::clone(&dev)).unwrap();
        assert!(!report.is_clean());
        assert!(report.violations.iter().any(|v| matches!(
            v,
            InvariantViolation::StateLatticeViolation {
                state_counter,
                meta_counter: Some(mc),
                ..
            } if *state_counter == head.counter + 10 && *mc == head.counter
        )));
        assert!(report.render().contains("state word"));
    }

    #[test]
    fn claimed_slot_on_ringless_store_is_synthesized_in_flight() {
        // No flight ring: the state word alone must make the in-flight
        // claim decidable (the detectable half of the protocol).
        let cap = CheckpointStore::required_capacity(SLOT, 3);
        let dev: Arc<dyn PersistentDevice> =
            Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let st = CheckpointStore::format(Arc::clone(&dev), StoreGeometry::single(SLOT, 3)).unwrap();
        commit_one(&st, 1, b"one");
        let lease = st.begin_checkpoint(&ns(&st));
        let (counter, slot) = (lease.counter, lease.slot);
        std::mem::forget(lease);
        dev.crash_now();
        let report = audit(Arc::clone(&dev)).unwrap();
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.in_flight(), vec![counter]);
        assert_eq!(
            report.checkpoints[&counter],
            CheckpointVerdict::InFlight {
                phase: InFlightPhase::Begun,
                slot,
            }
        );
        assert_eq!(
            report.slot_outcomes[slot as usize],
            SlotOutcome::InFlight { counter }
        );
        assert!(report.render().contains("slot lattice"));
    }

    fn shared_flight_store(
        slots: u32,
        ring: u32,
        max_ns: u32,
    ) -> (Arc<dyn PersistentDevice>, CheckpointStore) {
        let geometry = StoreGeometry {
            slot_size: SLOT,
            slots,
            flight_records: ring,
            max_namespaces: max_ns,
        };
        let dev: Arc<dyn PersistentDevice> = Arc::new(SsdDevice::new(
            DeviceConfig::fast_for_tests(geometry.required_capacity()),
        ));
        let st = CheckpointStore::format(Arc::clone(&dev), geometry).unwrap();
        (dev, st)
    }

    /// `state`, captured at `iter`, as checkpoint `counter`'s one-record
    /// all-`Raw` frame, and the digest its commit records.
    fn frame_of(counter: u64, iter: u64, state: &[u8]) -> (Vec<u8>, u64) {
        let full_digest = StateDigest::of_payload(state, iter).0;
        raw_frame(counter, full_digest, state, state.len())
    }

    fn commit_job(st: &CheckpointStore, job: u64, iter: u64, state: &[u8]) {
        let lease = st.begin_checkpoint(&st.namespace(job).unwrap());
        let (frame, digest) = frame_of(lease.counter, iter, state);
        st.write_payload(&lease, 0, &frame).unwrap();
        st.persist_payload(&lease, 0, frame.len() as u64).unwrap();
        assert_eq!(
            st.commit(lease, iter, frame.len() as u64, digest).unwrap(),
            CommitOutcome::Committed
        );
    }

    /// The audit reads each slot's frame table, not its payload: a fault
    /// in the packed bytes of a slot that is no recovery target is never
    /// read, so the audit completes and finds the slot's table valid.
    #[test]
    fn a_read_fault_in_a_stale_slots_packed_region_does_not_fail_the_audit() {
        let geometry = StoreGeometry::single(SLOT, 3);
        let ssd = Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(
            geometry.required_capacity(),
        )));
        let dev: Arc<dyn PersistentDevice> = ssd.clone();
        let st = CheckpointStore::format(Arc::clone(&dev), geometry).unwrap();
        commit_one(&st, 1, b"the stale state");
        commit_one(&st, 2, b"the head state");
        let view = RawStoreView::load(dev.as_ref()).unwrap();
        let stale = view.slot_meta.iter().flatten().min_by_key(|m| m.counter);
        let stale = *stale.unwrap();
        let table = read_table(&stale, &durable_reads(dev.as_ref(), &view)).unwrap();
        let packed = view.layout.slot_payload(stale.slot) + table.encoded_len();
        ssd.arm_read_fault_at(packed, 1);
        dev.crash_now();
        let report = audit(Arc::clone(&dev)).expect("the packed bytes are not read");
        assert!(report.is_clean(), "{:?}", report.violations);
        assert!(matches!(
            report.checkpoints.get(&stale.counter),
            Some(CheckpointVerdict::Committed {
                payload_valid: true,
                ..
            })
        ));
    }

    #[test]
    fn interleaved_tenant_commits_audit_clean() {
        // Jobs lease counters from one global sequence but commit out of
        // global order; under the single-tenant monotonicity rule this
        // interleaving would be a false CommitNotMonotone. The namespace-
        // partitioned auditor must accept it.
        let (dev, st) = shared_flight_store(6, 64, 4);
        st.allocate_namespace(1, 3).unwrap();
        st.allocate_namespace(2, 3).unwrap();
        // Lease job 1 first (lower counter), commit it after job 2.
        let lease1 = st.begin_checkpoint(&st.namespace(1).unwrap());
        commit_job(&st, 2, 7, b"job2-a");
        let (frame, digest) = frame_of(lease1.counter, 3, b"job1-a");
        st.write_payload(&lease1, 0, &frame).unwrap();
        st.persist_payload(&lease1, 0, frame.len() as u64).unwrap();
        st.commit(lease1, 3, frame.len() as u64, digest).unwrap();
        commit_job(&st, 2, 8, b"job2-b");
        commit_job(&st, 1, 4, b"job1-b");
        dev.crash_now();
        let report = audit(Arc::clone(&dev)).unwrap();
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.concurrency_limit, 4, "slot_count - 1 per namespace");
        let heads: BTreeMap<u64, u64> = report
            .namespace_recovery
            .iter()
            .filter_map(|(job, m)| m.map(|m| (*job, m.iteration)))
            .collect();
        assert_eq!(heads[&1], 4);
        assert_eq!(heads[&2], 8);
        assert!(report.render().contains("job 1"));
    }

    #[test]
    fn torn_tenant_head_is_flagged_even_when_not_globally_newest() {
        let (dev, st) = shared_flight_store(6, 64, 4);
        st.allocate_namespace(1, 3).unwrap();
        st.allocate_namespace(2, 3).unwrap();
        commit_job(&st, 1, 1, b"job1-a");
        commit_job(&st, 2, 9, b"job2-a"); // globally newest commit
                                          // Tear job 1's head payload: the global expected recovery is job
                                          // 2's intact head, but job 1's tenant-visible recovery is torn.
        let head = st.latest_committed(&st.namespace(1).unwrap()).unwrap();
        let off = st.slot_payload_offset(head.slot);
        dev.write_at(off, b"WRONG").unwrap();
        dev.persist(off, 5).unwrap();
        dev.crash_now();
        let report = audit(Arc::clone(&dev)).unwrap();
        assert!(report.violations.iter().any(
            |v| matches!(v, InvariantViolation::TornCommittedSlot { counter, .. } if *counter == head.counter)
        ), "{:?}", report.violations);
    }

    #[test]
    fn tenant_check_addr_behind_ring_commit_is_flagged() {
        let (dev, st) = shared_flight_store(6, 64, 4);
        st.allocate_namespace(1, 3).unwrap();
        commit_job(&st, 1, 1, b"one");
        // Fabricate a ring Commit for a counter job 1's durable pointer
        // never reached: per-namespace invariant 4 must trip.
        let lease = st.begin_checkpoint(&st.namespace(1).unwrap());
        st.flight()
            .record(K::MetaPersisted, lease.counter, lease.slot, 2, 3, 0);
        st.flight()
            .record(K::Commit, lease.counter, lease.slot, 2, 3, 0);
        dev.crash_now();
        let report = audit(Arc::clone(&dev)).unwrap();
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, InvariantViolation::RecoveredNotNewest { .. })));
    }

    #[test]
    fn framed_codec_store_audits_clean() {
        use pccheck::{PcCheckConfig, PcCheckEngine};
        use pccheck_gpu::{Checkpointer, Gpu, GpuConfig, TrainingState};
        let gpu = Gpu::new(
            GpuConfig::fast_for_tests(),
            TrainingState::compressible(ByteSize::from_kb(4), 7, 32),
        );
        let dev: Arc<dyn PersistentDevice> = Arc::new(SsdDevice::new(
            DeviceConfig::fast_for_tests(ByteSize::from_mb_u64(1)),
        ));
        let config = PcCheckConfig::builder()
            .max_concurrent(2)
            .writer_threads(2)
            .chunk_size(ByteSize::from_bytes(256))
            .dram_chunks(16)
            .flight_records(128)
            .codec(true)
            .build()
            .unwrap();
        let engine = PcCheckEngine::new(config, Arc::clone(&dev), gpu.state_size()).unwrap();
        for iter in 1..=6 {
            gpu.update();
            engine.checkpoint(&gpu, iter);
            engine.drain();
        }
        // The audit only proves something if the codec actually packed.
        let view = RawStoreView::load(dev.as_ref()).unwrap();
        let packed = view.slot_meta.iter().flatten().filter(|meta| {
            let table = read_table(meta, &durable_reads(dev.as_ref(), &view)).unwrap();
            table.records.iter().any(|r| r.kind != ChunkEncoding::Raw)
        });
        assert!(packed.count() > 0, "no codec frame — codec never engaged");
        let report = audit(Arc::clone(&dev)).unwrap();
        assert!(report.is_clean(), "{:?}", report.violations);
    }

    #[test]
    fn torn_framed_recovery_head_is_flagged() {
        use pccheck::{PcCheckConfig, PcCheckEngine};
        use pccheck_gpu::{Checkpointer, Gpu, GpuConfig, TrainingState};
        let gpu = Gpu::new(
            GpuConfig::fast_for_tests(),
            TrainingState::compressible(ByteSize::from_kb(4), 11, 32),
        );
        let dev: Arc<dyn PersistentDevice> = Arc::new(SsdDevice::new(
            DeviceConfig::fast_for_tests(ByteSize::from_mb_u64(1)),
        ));
        let config = PcCheckConfig::builder()
            .max_concurrent(2)
            .writer_threads(2)
            .chunk_size(ByteSize::from_bytes(256))
            .dram_chunks(16)
            .codec(true)
            .build()
            .unwrap();
        let engine = PcCheckEngine::new(config, Arc::clone(&dev), gpu.state_size()).unwrap();
        for iter in 1..=4 {
            gpu.update();
            engine.checkpoint(&gpu, iter);
            engine.drain();
        }
        let view = RawStoreView::load(dev.as_ref()).unwrap();
        let head = view
            .slot_meta
            .iter()
            .flatten()
            .max_by_key(|m| m.counter)
            .copied()
            .unwrap();
        // Corrupt one byte of the packed chunk region (past the table, so
        // the shallow table check still passes): only the deep frame
        // replay catches it.
        let table = read_table(&head, &durable_reads(dev.as_ref(), &view)).unwrap();
        let corrupt_at = table.encoded_len();
        let slot_off = view.layout.slot_payload(head.slot) + corrupt_at;
        let mut byte = [0u8; 1];
        dev.read_durable_at(slot_off, &mut byte).unwrap();
        byte[0] ^= 0xFF;
        dev.write_at(slot_off, &byte).unwrap();
        dev.persist(slot_off, 1).unwrap();
        dev.crash_now();
        let report = audit(Arc::clone(&dev)).unwrap();
        assert!(
            report.violations.iter().any(|v| matches!(
                v,
                InvariantViolation::TornCommittedSlot { counter, .. } if *counter == head.counter
            )),
            "{:?}",
            report.violations
        );
    }

    /// A codec-off checkpoint whose state happens to open with the frame
    /// magic is just a state: it recovers bit-exact onto a GPU and audits
    /// clean. (While payloads were told apart by their first eight bytes,
    /// its table failed to bind and the candidate was rejected.)
    #[test]
    fn a_state_that_opens_with_the_frame_magic_recovers_and_audits_clean() {
        use pccheck::{recover_into_gpu, PcCheckConfig, PcCheckEngine};
        use pccheck_gpu::{Checkpointer, Gpu, GpuConfig, TrainingState};
        use pccheck_telemetry::Telemetry;
        let state = ByteSize::from_kb(4);
        let gpu = Gpu::new(
            GpuConfig::fast_for_tests(),
            TrainingState::synthetic(state, 17),
        );
        let mut bytes = vec![0u8; state.as_usize()];
        gpu.with_weights(|s| s.serialize_into(&mut bytes));
        bytes[..8].copy_from_slice(b"PCFRAME1");
        gpu.restore(&bytes, 1);
        let dev: Arc<dyn PersistentDevice> = Arc::new(SsdDevice::new(
            DeviceConfig::fast_for_tests(ByteSize::from_mb_u64(1)),
        ));
        let config = PcCheckConfig::builder()
            .chunk_size(ByteSize::from_bytes(1024))
            .flight_records(64)
            .build()
            .unwrap();
        let engine = PcCheckEngine::new(config, Arc::clone(&dev), state).unwrap();
        engine.checkpoint(&gpu, 1);
        engine.try_drain().unwrap();
        drop(engine);
        dev.crash_now();
        dev.recover();

        let fresh = Gpu::new(
            GpuConfig::fast_for_tests(),
            TrainingState::synthetic(state, 99),
        );
        let options = RestoreOptions::default();
        let trace = recover_into_gpu(Arc::clone(&dev), &fresh, &Telemetry::disabled(), options)
            .expect("the state is recoverable");
        assert_eq!(trace.iteration, 1);
        assert_eq!(fresh.digest(), gpu.digest(), "bit-exact");
        let report = audit(dev).unwrap();
        assert!(report.is_clean(), "{:?}", report.violations);
    }

    #[test]
    fn audit_rejects_unformatted_device() {
        let dev: Arc<dyn PersistentDevice> = Arc::new(SsdDevice::new(
            DeviceConfig::fast_for_tests(ByteSize::from_kb(4)),
        ));
        assert!(audit(dev).is_err());
    }

    #[test]
    fn striped_store_audits_clean_through_the_durable_view() {
        use pccheck_device::StripedDevice;
        // A small stripe forces the superblock, slot metadata, flight ring
        // and directory to interleave across both members, so
        // RawStoreView's durable reads must reassemble every structure
        // from extents.
        let geometry = StoreGeometry {
            flight_records: 64,
            ..StoreGeometry::single(SLOT, 3)
        };
        let cap = geometry.required_capacity();
        let members: Vec<Arc<dyn PersistentDevice>> = (0..2)
            .map(|_| {
                Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)))
                    as Arc<dyn PersistentDevice>
            })
            .collect();
        let dev: Arc<dyn PersistentDevice> =
            Arc::new(StripedDevice::new(members, ByteSize::from_bytes(256)));
        let st = CheckpointStore::format(Arc::clone(&dev), geometry).unwrap();
        for i in 1..=3 {
            commit_one(&st, i, format!("s{i}").as_bytes());
        }
        dev.crash_now();
        let report = audit(Arc::clone(&dev)).unwrap();
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.expected_recovery(DEFAULT_JOB).unwrap().iteration, 3);
        assert_eq!(report.checkpoints.len(), 3);
        assert!(matches!(
            report.checkpoints[&3],
            CheckpointVerdict::Committed {
                payload_valid: true,
                ..
            }
        ));
    }
}
