//! The persistent checkpoint store: namespaces, the concurrent commit
//! protocol of Listing 1, and the read-only post-crash view.
//!
//! # Device layout
//!
//! [`crate::layout`] owns the bytes and the offsets; in region order:
//!
//! ```text
//! superblock | reserved | slots (meta + payload each) | flight ring
//!            | namespace directory | slot state words
//! ```
//!
//! Every region is always present. The flight ring is sized by the
//! geometry's `flight_records` (0 = an empty region, no recorder); the
//! directory has `max_namespaces` rows; every slot has a durable state
//! word.
//!
//! # Namespaces
//!
//! The slot array is carved into contiguous per-job **namespaces**, one
//! directory row each. A namespace owns a private free-slot queue and a
//! private `CHECK_ADDR` (in memory, and on the device in its directory
//! row), so the full Listing 1 protocol runs independently per tenant:
//! jobs never race each other's CAS, never lease each other's slots, and
//! recover independently. The counter stays store-wide, keeping every
//! checkpoint's counter unique across tenants (forensics and the flight
//! ring rely on that).
//!
//! A single-tenant store is the one-row case:
//! [`StoreGeometry::single`] yields a one-row directory, which
//! [`CheckpointStore::format`] allocates to [`DEFAULT_JOB`] over every
//! slot. With `N` allowed concurrent checkpoints a namespace holds `N+1`
//! slots — the `(N+1)·m` storage footprint of Table 1 — guaranteeing one
//! fully persisted checkpoint exists at all times once the first commit
//! lands. A caller resolves its [`Namespace`] once
//! ([`CheckpointStore::namespace`]) and leases through that handle.
//!
//! # Commit protocol (Listing 1, lock-free)
//!
//! 1. read the namespace's current `CHECK_ADDR` (`last_check`),
//! 2. `atomic_add` the global counter → `curr_counter`,
//! 3. dequeue a free slot from the namespace's lock-free queue (spinning
//!    if none), CAS its in-memory state word Free → Claimed{counter}, and
//!    publish the durable claim word (best-effort),
//! 4. write + persist the payload (the engine does this with `p` writer
//!    threads),
//! 5. write + persist the slot's meta record (`BARRIER(cur_check)`),
//! 6. CAS the in-memory `CHECK_ADDR` from `last_check` to
//!    `(curr_counter, slot)`:
//!    * success → publish the durable Committed{counter} state word,
//!      publish `CHECK_ADDR` (lock-free: device write + `fetch_max`
//!      watermark), store Free into each displaced slot's in-memory
//!      word, and enqueue the displaced slot(s),
//!    * failure with a newer counter installed → publish `CHECK_ADDR`
//!      (helping), store Free + enqueue *our own* slot (our checkpoint
//!      is obsolete),
//!    * failure with an older counter → reload and retry the CAS.
//!
//! No step ever holds a mutex — and in particular no mutex is held
//! across device I/O. The durable `CHECK_ADDR` write is made idempotent
//! by a `fetch_max` watermark over the last-persisted counter (the
//! namespace's commit pointer); a racing publisher can at worst
//! re-persist a *stale* record, which recovery tolerates because the slot
//! scan takes the max valid counter and a newer commit's slot record is
//! always durable before its `CHECK_ADDR` publish (see DESIGN §13).
//!
//! The invariant maintained: the slot referenced by a namespace's durable
//! `CHECK_ADDR` is never in its free queue, so no concurrent checkpoint
//! can overwrite the latest committed state.
//!
//! # The per-slot commit-state lattice
//!
//! Every slot carries one durable [`SlotState`] word. The claim step
//! publishes Claimed{counter}; the commit winner publishes
//! Committed{counter}; recycling deliberately leaves the durable word
//! alone (counters rank claims). After a crash every slot's outcome is
//! decidable from its state word plus the meta record's CRC —
//! [`RawStoreView::slot_outcome`] is the decision procedure — which is
//! what makes the lock-free commit *detectable* in the memento sense. A
//! torn state word decodes to nothing and the slot is classified from its
//! meta CRC alone.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pccheck_util::sync::RwLock;

use pccheck_device::PersistentDevice;
use pccheck_telemetry::{FlightEventKind, FlightRecorder, FlightRing};
use pccheck_util::ByteSize;

use crate::error::PccheckError;
use crate::layout::{StoreGeometry, StoreLayout, NS_ENTRY_SIZE};
use crate::meta::{
    CheckMeta, DeltaLink, NamespaceDesc, PackedCheckAddr, SlotState, CHECK_ADDR_NONE,
    META_RECORD_SIZE, NS_DESC_SIZE, SLOT_STATE_SIZE,
};
use crate::queue::SlotQueue;

/// Identifier of a tenant job (matches the sim's fluid-model job ids so
/// fairness oracles line up).
pub type JobId = u64;

/// The tenant of a [`StoreGeometry::single`] store, and the job QoS
/// charges its leases to. The daemon numbers its jobs from 1.
pub const DEFAULT_JOB: JobId = 0;

/// Outcome of a commit attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitOutcome {
    /// This checkpoint became the latest committed one.
    Committed,
    /// A newer checkpoint won the race; this one was discarded (its slot
    /// returned to the free queue). Still a success: a *newer* state is
    /// durable.
    SupersededBy {
        /// Counter of the newer committed checkpoint.
        counter: u64,
    },
}

/// A checkpoint slot leased from the store for writing.
///
/// Obtained from [`CheckpointStore::begin_checkpoint`]; the holder writes
/// the payload with [`CheckpointStore::write_payload`] and then calls
/// [`CheckpointStore::commit`]. A lease dropped without a commit — its
/// checkpoint failed — gives its slot back to the free queue.
#[derive(Debug)]
pub struct SlotLease {
    /// The global counter assigned to this checkpoint.
    pub counter: u64,
    /// The slot index leased.
    pub slot: u32,
    /// The `CHECK_ADDR` observed before the counter was taken (Listing 1
    /// line 3) — the CAS baseline.
    last_check: PackedCheckAddr,
    /// The namespace the lease was drawn from: commit routes its CAS,
    /// durable CHECK_ADDR write, and slot recycling through its state.
    ns: Arc<Namespace>,
    /// The store's in-memory slot-state words, for the release on drop.
    states: Arc<[AtomicU64]>,
}

impl Drop for SlotLease {
    /// Releases the slot if it is still `Claimed` by this lease's counter:
    /// a commit that succeeded left it `Committed`, and one that lost or
    /// was withdrawn already released it (it may be claimed again since).
    /// The durable word keeps the claim, as on every release path.
    fn drop(&mut self) {
        let claimed = SlotState::Claimed {
            counter: self.counter,
        };
        let ours = self.states[self.slot as usize].compare_exchange(
            claimed.pack(),
            SlotState::Free.pack(),
            Ordering::AcqRel,
            Ordering::Acquire,
        );
        if ours.is_ok() {
            self.ns.free_slots.enqueue_blocking(self.slot);
        }
    }
}

impl SlotLease {
    /// The tenant this lease belongs to.
    pub fn job(&self) -> JobId {
        self.ns.desc.job
    }

    /// The namespace this lease was drawn from.
    pub fn namespace(&self) -> &Arc<Namespace> {
        &self.ns
    }
}

/// The pair of atomics behind one `CHECK_ADDR`: the in-memory pointer
/// the commit CAS swings, and the `fetch_max` watermark of the highest
/// counter whose durable record has been persisted. The watermark is
/// what lets concurrent committers publish the durable record without a
/// lock: a publish is skipped when an equal-or-newer record is already
/// durable, and racing publishes are resolved by `fetch_max` — the
/// flight-ring Commit witness is recorded only by the publisher that
/// actually advanced the watermark.
#[derive(Debug)]
struct CommitPointer {
    /// In-memory CHECK_ADDR (packed counter+slot).
    addr: AtomicU64,
    /// Highest counter whose CHECK_ADDR record is known durable.
    persisted: AtomicU64,
}

/// One tenant's slice of the store: a contiguous slot range with its own
/// free queue and commit pointer. Resolved once with
/// [`CheckpointStore::namespace`] and valid for that store only.
#[derive(Debug)]
pub struct Namespace {
    desc: NamespaceDesc,
    /// This namespace's CHECK_ADDR pointer + durable-publish watermark.
    commit: CommitPointer,
    free_slots: SlotQueue,
    /// Device offset of this namespace's durable CHECK_ADDR record.
    check_rec: u64,
}

impl Namespace {
    fn new(layout: &StoreLayout, index: u32, desc: NamespaceDesc, head: Option<CheckMeta>) -> Self {
        let addr = head.map_or(CHECK_ADDR_NONE, |m| {
            PackedCheckAddr::pack(m.counter, m.slot)
        });
        Namespace {
            desc,
            commit: CommitPointer {
                addr: AtomicU64::new(addr.0),
                persisted: AtomicU64::new(addr.counter()),
            },
            free_slots: SlotQueue::with_capacity(desc.slot_count as usize),
            check_rec: layout.ns_entry(index) + NS_DESC_SIZE,
        }
    }

    /// The tenant this namespace belongs to.
    pub fn job(&self) -> JobId {
        self.desc.job
    }

    /// The namespace's descriptor: its job and slot range (`slot_count`
    /// is how many slots its checkpoints rotate through; a committed
    /// chain may pin at most that minus one).
    pub fn desc(&self) -> NamespaceDesc {
        self.desc
    }
}

/// The persistent checkpoint store.
///
/// Thread-safe: any number of checkpoints proceed concurrently; the
/// whole commit protocol — slot claim, meta publish, head advance, slot
/// recycle — is lock-free, and no mutex is ever held across device I/O.
#[derive(Debug)]
pub struct CheckpointStore {
    device: Arc<dyn PersistentDevice>,
    layout: StoreLayout,
    global_counter: AtomicU64,
    /// In-memory per-slot commit-state words (packed [`SlotState`]), the
    /// volatile half of the lattice. A dequeued slot is CASed
    /// Free → Claimed{counter}; every release path stores Free *before*
    /// enqueueing, so the claim CAS can never lose. Shared with every
    /// lease, whose drop releases a slot its checkpoint never committed.
    slot_states: Arc<[AtomicU64]>,
    /// Persistent flight recorder appending lifecycle milestones to the
    /// ring after the slots (disabled when the store was formatted with
    /// `flight_records = 0`).
    flight: FlightRecorder,
    /// Allocated namespaces, in directory order. Appended under the write
    /// lock by [`allocate_namespace`](Self::allocate_namespace); the hot
    /// commit path never takes this lock (the lease carries its `Arc`).
    namespaces: RwLock<Vec<Arc<Namespace>>>,
}

/// `slot`'s durable meta record, if the store has that slot and the
/// record decodes, names its own slot and fits it.
fn read_slot_meta(
    device: &dyn PersistentDevice,
    layout: &StoreLayout,
    slot: u32,
) -> Result<Option<CheckMeta>, PccheckError> {
    if slot >= layout.geometry().slots {
        return Ok(None); // a base link read off a damaged image
    }
    let mut rec = [0u8; META_RECORD_SIZE as usize];
    device.read_durable_at(layout.slot_meta(slot), &mut rec)?;
    let slot_size = layout.geometry().slot_size;
    Ok(CheckMeta::decode(&rec)
        .filter(|m| m.slot == slot && ByteSize::from_bytes(m.payload_len) <= slot_size))
}

/// [`read_slot_meta`] for every slot, in order.
fn read_slot_metas(
    device: &dyn PersistentDevice,
    layout: &StoreLayout,
) -> Result<Vec<Option<CheckMeta>>, PccheckError> {
    (0..layout.geometry().slots)
        .map(|s| read_slot_meta(device, layout, s))
        .collect()
}

/// The allocated rows of the namespace directory as `(row, descriptor,
/// check record)`, from one device read. A row that does not decode or
/// names slots the store does not have reads as unallocated (a crash
/// mid-allocate leaves no data behind it yet).
///
/// One read of `max_namespaces · 128` bytes — 2 KiB at the daemon's
/// default `max_jobs` — stays far below every ledger workload's chunk
/// size, so the ledger's bit-rot hook (armed for reads of at least a
/// chunk) cannot land on it.
fn read_directory(
    device: &dyn PersistentDevice,
    layout: &StoreLayout,
) -> Result<Vec<(u32, NamespaceDesc, Option<CheckMeta>)>, PccheckError> {
    let geometry = layout.geometry();
    let mut dir = vec![0u8; (NS_ENTRY_SIZE * u64::from(geometry.max_namespaces)) as usize];
    device.read_durable_at(layout.ns_entry(0), &mut dir)?;
    let rows = dir.chunks_exact(NS_ENTRY_SIZE as usize).zip(0u32..);
    Ok(rows
        .filter_map(|(entry, row)| {
            let (desc, check_rec) = entry.split_at(NS_DESC_SIZE as usize);
            let desc = NamespaceDesc::decode(desc)?;
            let end = desc.slot_start.checked_add(desc.slot_count)?;
            (desc.slot_count > 0 && end <= geometry.slots)
                .then(|| (row, desc, CheckMeta::decode(check_rec)))
        })
        .collect())
}

/// The checkpoint recovery restores within `range`: the max-counter one
/// among a `check_rec` its slot record agrees with and the valid slot
/// records. The slots are scanned too because the durable CHECK_ADDR may
/// lag a fully persisted checkpoint whose commit raced the crash. A valid
/// slot record implies its payload persisted first (the engine orders
/// payload persist before the meta barrier), and a *recycled* slot
/// mid-overwrite always carries a counter below the durable CHECK_ADDR
/// (commit persists CHECK_ADDR before freeing the displaced slot), so
/// taking the max counter is safe.
fn recovery_target(
    check_rec: Option<&CheckMeta>,
    slot_meta: &[Option<CheckMeta>],
    range: Range<u32>,
) -> Option<CheckMeta> {
    let at = |s: u32| slot_meta.get(s as usize).copied().flatten();
    let trusted = check_rec.filter(|ca| range.contains(&ca.slot) && at(ca.slot) == Some(**ca));
    range
        .filter_map(at)
        .chain(trusted.copied())
        .max_by_key(|m| m.counter)
}

/// The checkpoints a checkpoint depends on, as `(slot, counter)`: its
/// own, plus — when it is linked — every checkpoint on the base chain
/// down to the unlinked root. Walks the slot records `meta_of` yields,
/// stopping (leniently) at the first one that is missing or disagrees
/// with the expected counter, and guards against pointer cycles; the head
/// is always included.
fn chain_of(
    meta_of: impl Fn(u32) -> Option<CheckMeta>,
    slots: u32,
    head_slot: u32,
    head_counter: u64,
) -> Vec<(u32, u64)> {
    let mut chain = vec![(head_slot, head_counter)];
    loop {
        let (s, c) = *chain.last().expect("chain starts with its head");
        let Some(link) = meta_of(s).filter(|m| m.counter == c).and_then(|m| m.delta) else {
            break;
        };
        if chain.iter().any(|&(slot, _)| slot == link.base_slot) || chain.len() as u32 >= slots {
            break;
        }
        chain.push((link.base_slot, link.base_counter));
    }
    chain
}

impl CheckpointStore {
    /// Bytes of device space a [`StoreGeometry::single`] store of `slots`
    /// slots of `slot_size` each needs (shared stores:
    /// [`StoreGeometry::required_capacity`]).
    pub fn required_capacity(slot_size: ByteSize, slots: u32) -> ByteSize {
        StoreGeometry::single(slot_size, slots).required_capacity()
    }

    /// Formats a store of `geometry` on `device`: superblock, an empty
    /// directory, a Free state word per slot and, when
    /// `geometry.flight_records > 0`, the flight ring. No slot is usable
    /// until a namespace claims it
    /// ([`allocate_namespace`](Self::allocate_namespace)); a one-row
    /// directory has one possible tenant, so `format` allocates it —
    /// [`DEFAULT_JOB`] over every slot.
    ///
    /// # Errors
    ///
    /// Returns [`PccheckError::InvalidConfig`] if the geometry is invalid
    /// or the device is too small, or a device error if formatting I/O
    /// fails.
    pub fn format(
        device: Arc<dyn PersistentDevice>,
        geometry: StoreGeometry,
    ) -> Result<Self, PccheckError> {
        let layout = StoreLayout::write(geometry, device.as_ref())?;
        // Zero the directory: every row reads as unallocated.
        let dir = vec![0u8; (NS_ENTRY_SIZE * u64::from(geometry.max_namespaces)) as usize];
        device.write_at(layout.ns_entry(0), &dir)?;
        device.persist(layout.ns_entry(0), dir.len() as u64)?;
        // Every slot starts with a valid durable Free state word.
        let state_region = SlotState::Free.encode().repeat(geometry.slots as usize);
        device.write_at(layout.slot_state(0), &state_region)?;
        device.persist(layout.slot_state(0), state_region.len() as u64)?;

        let flight = if geometry.flight_records > 0 {
            let ring = FlightRing::create(
                Arc::clone(&device),
                layout.flight(),
                geometry.flight_records,
            )
            .map_err(PccheckError::InvalidConfig)?;
            FlightRecorder::new(Arc::new(ring))
        } else {
            FlightRecorder::disabled()
        };
        flight.record_run(FlightEventKind::RunStart, 0);

        let store = CheckpointStore {
            device,
            layout,
            global_counter: AtomicU64::new(1),
            slot_states: (0..geometry.slots)
                .map(|_| AtomicU64::new(SlotState::Free.pack()))
                .collect(),
            flight,
            namespaces: RwLock::new(Vec::new()),
        };
        if geometry.max_namespaces == 1 {
            store.allocate_namespace(DEFAULT_JOB, geometry.slots)?;
        }
        Ok(store)
    }

    /// Reopens a store previously formatted on `device` (the recovery
    /// path). Rebuilds each namespace independently: its committed
    /// checkpoint — and, when that one is linked, every slot on its chain
    /// down to the unlinked root — stays leased (recycling any of them
    /// would make the committed state unrecoverable); its other slots go
    /// back to its free queue. The global counter resumes above the
    /// highest counter found.
    ///
    /// # Errors
    ///
    /// Returns [`PccheckError::InvalidConfig`] if no valid superblock is
    /// found, or a device error if reads fail.
    pub fn open(device: Arc<dyn PersistentDevice>) -> Result<Self, PccheckError> {
        let layout = StoreLayout::read(device.as_ref())?;
        let geometry = *layout.geometry();

        // Reattach the flight ring, resuming sequence numbers past the
        // crash survivors. A torn ring header downgrades to a disabled
        // recorder rather than failing recovery: forensics are
        // best-effort, the checkpoints are not.
        let flight = if geometry.flight_records > 0 {
            match FlightRing::open(Arc::clone(&device), layout.flight()) {
                Ok(ring) => FlightRecorder::new(Arc::new(ring)),
                Err(_) => FlightRecorder::disabled(),
            }
        } else {
            FlightRecorder::disabled()
        };

        let slot_meta = read_slot_metas(device.as_ref(), &layout)?;
        // Every slot that goes back to a free queue starts Free
        // (regardless of its durable word, which is a high-water record
        // of past claims); every pinned chain slot starts Committed at
        // its own durable meta counter.
        let mut slot_states = vec![SlotState::Free; geometry.slots as usize];
        let mut namespaces = Vec::new();
        let mut max_counter = 0;
        for (row, desc, check_rec) in read_directory(device.as_ref(), &layout)? {
            let head = recovery_target(check_rec.as_ref(), &slot_meta, desc.slot_range());
            let ns = Namespace::new(&layout, row, desc, head);
            let pinned = head.map_or(Vec::new(), |m| {
                let meta_of = |s: u32| slot_meta.get(s as usize).copied().flatten();
                chain_of(meta_of, geometry.slots, m.slot, m.counter)
            });
            for s in desc.slot_range() {
                if !pinned.iter().any(|&(slot, _)| slot == s) {
                    ns.free_slots.enqueue_blocking(s);
                } else if let Some(m) = slot_meta[s as usize] {
                    slot_states[s as usize] = SlotState::Committed { counter: m.counter };
                }
            }
            max_counter = max_counter.max(head.map_or(0, |m| m.counter));
            namespaces.push(Arc::new(ns));
        }
        Ok(CheckpointStore {
            device,
            layout,
            global_counter: AtomicU64::new(max_counter + 1),
            slot_states: slot_states
                .into_iter()
                .map(|s| AtomicU64::new(s.pack()))
                .collect(),
            flight,
            namespaces: RwLock::new(namespaces),
        })
    }

    /// `slot`'s meta record as the device holds it now.
    fn slot_meta(&self, slot: u32) -> Option<CheckMeta> {
        read_slot_meta(self.device.as_ref(), &self.layout, slot)
            .ok()
            .flatten()
    }

    /// The `(slot, counter)` chain `head` pins; empty when there is no
    /// head.
    fn chain(&self, head: PackedCheckAddr) -> Vec<(u32, u64)> {
        if head.is_none() {
            return Vec::new();
        }
        chain_of(
            |s| self.slot_meta(s),
            self.num_slots(),
            head.slot(),
            head.counter(),
        )
    }

    /// The underlying device.
    pub fn device(&self) -> &Arc<dyn PersistentDevice> {
        &self.device
    }

    /// The persistent flight recorder (disabled when the store was
    /// formatted without a ring). The engine and harnesses use this handle
    /// to append lifecycle milestones the store itself cannot see (GPU
    /// copy completion, payload persist, failures).
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// The store's on-device layout.
    pub fn layout(&self) -> &StoreLayout {
        &self.layout
    }

    /// Per-slot payload capacity.
    pub fn slot_size(&self) -> ByteSize {
        self.layout.geometry().slot_size
    }

    /// Number of slots, over all namespaces.
    pub fn num_slots(&self) -> u32 {
        self.layout.geometry().slots
    }

    /// Device offset of `slot`'s meta record.
    pub fn slot_meta_offset(&self, slot: u32) -> u64 {
        self.layout.slot_meta(slot)
    }

    /// Device offset of `slot`'s payload.
    pub fn slot_payload_offset(&self, slot: u32) -> u64 {
        self.layout.slot_payload(slot)
    }

    /// The in-memory view of the latest committed checkpoint in `ns`.
    /// This is also what dedup planning must use as its base: another
    /// job's newer commit is not a valid base for this job.
    pub fn latest_committed(&self, ns: &Namespace) -> Option<CheckMeta> {
        let packed = PackedCheckAddr(ns.commit.addr.load(Ordering::Acquire));
        if packed.is_none() {
            return None;
        }
        // The slot's meta record is authoritative; it was persisted before
        // CHECK_ADDR swung to it.
        self.slot_meta(packed.slot())
            .filter(|m| m.counter == packed.counter())
    }

    /// The current in-memory commit-state word of `slot` (diagnostics;
    /// the durable word may lag — it records high-water claims, not the
    /// recycle step).
    #[cfg(test)]
    fn slot_commit_state(&self, slot: u32) -> SlotState {
        SlotState::unpack(self.slot_states[slot as usize].load(Ordering::Acquire))
    }

    /// The lattice claim step: CAS the dequeued slot's in-memory word
    /// Free → Claimed{counter}, then publish the durable claim word.
    ///
    /// The dequeue grants exclusive ownership and every release path
    /// stores Free *before* enqueueing, so the CAS cannot lose — its
    /// strictness is a protocol assertion, not a spin. The durable
    /// publish is best-effort: `begin_checkpoint` stays infallible, and a
    /// lost claim word only downgrades the slot's post-crash
    /// classification from Claimed to meta-CRC-only (still decidable; a
    /// device sick enough to fail here fails the very next payload write
    /// anyway).
    fn claim_slot(&self, slot: u32, counter: u64) {
        let claimed = SlotState::Claimed { counter };
        let won = self.slot_states[slot as usize]
            .compare_exchange(
                SlotState::Free.pack(),
                claimed.pack(),
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok();
        debug_assert!(won, "dequeued slot {slot} was not Free");
        if !won {
            // Defensive: ownership is ours either way; converge the word.
            self.slot_states[slot as usize].store(claimed.pack(), Ordering::Release);
        }
        let off = self.layout.slot_state(slot);
        let _ = self
            .device
            .write_at(off, &claimed.encode())
            .and_then(|()| self.device.persist(off, SLOT_STATE_SIZE));
    }

    /// Publishes the durable Committed word for a commit winner. Failure
    /// is surfaced (the commit's durability story is already complete —
    /// the meta record persisted — but a dying device should not report
    /// a clean commit).
    fn publish_slot_state(&self, slot: u32, state: SlotState) -> Result<(), PccheckError> {
        self.slot_states[slot as usize].store(state.pack(), Ordering::Release);
        let off = self.layout.slot_state(slot);
        self.device.write_at(off, &state.encode())?;
        self.device.persist(off, SLOT_STATE_SIZE)?;
        Ok(())
    }

    /// The lattice recycle step: store Free into the in-memory word, then
    /// enqueue. Order matters — the next claimant's CAS must find Free.
    /// The durable word is deliberately left alone (history; counters
    /// rank claims across a slot's lives).
    fn release_slot(&self, ns: &Namespace, slot: u32) {
        self.slot_states[slot as usize].store(SlotState::Free.pack(), Ordering::Release);
        // Spin through transient fulls: a concurrent dequeuer may be
        // mid-recycle on the target cell.
        ns.free_slots.enqueue_blocking(slot);
    }

    /// Begins a checkpoint in `ns`: samples its `CHECK_ADDR`, takes a
    /// counter, and dequeues one of its free slots (Listing 1, lines
    /// 3–11). Spins while all its slots are occupied by in-flight
    /// checkpoints. Jobs contend only on the global counter, which stays
    /// globally unique and monotone, so cross-job interleavings remain
    /// totally ordered in the flight ring.
    pub fn begin_checkpoint(&self, ns: &Arc<Namespace>) -> SlotLease {
        // Line 3: sample the last committed checkpoint *before* taking the
        // counter — this makes our eventual CAS legal (§4.1).
        let last_check = PackedCheckAddr(ns.commit.addr.load(Ordering::Acquire));
        // Line 5: order ourselves among all checkpoints.
        let counter = self.global_counter.fetch_add(1, Ordering::AcqRel);
        // Lines 8-11: find space, then take the lattice claim step.
        let slot = ns.free_slots.dequeue_blocking();
        self.claim_slot(slot, counter);
        self.flight
            .record(FlightEventKind::Begin, counter, slot, 0, 0, last_check.0);
        SlotLease {
            counter,
            slot,
            last_check,
            ns: Arc::clone(ns),
            states: Arc::clone(&self.slot_states),
        }
    }

    /// Looks up `job`'s namespace handle.
    ///
    /// # Errors
    ///
    /// Returns [`PccheckError::InvalidConfig`], naming the jobs present,
    /// when `job` has no namespace in this store.
    pub fn namespace(&self, job: JobId) -> Result<Arc<Namespace>, PccheckError> {
        let namespaces = self.namespaces.read();
        namespaces
            .iter()
            .find(|ns| ns.desc.job == job)
            .cloned()
            .ok_or_else(|| {
                let present: Vec<JobId> = namespaces.iter().map(|ns| ns.desc.job).collect();
                PccheckError::InvalidConfig(format!(
                    "job {job} has no namespace in this store (jobs present: {present:?})"
                ))
            })
    }

    /// Carves a fresh slot namespace for `job` out of the store's
    /// unallocated slot budget and persists its directory entry. Slots are
    /// handed out contiguously in allocation order; a namespace lives for
    /// the store's lifetime (no reclamation — the daemon's admission
    /// control sizes the budget up front).
    ///
    /// # Errors
    ///
    /// Returns [`PccheckError::InvalidConfig`] when `slot_count < 2` (N+1
    /// needs at least 1+1), `job` already owns a namespace, the directory
    /// is full, or the slot budget is exhausted; propagates device errors.
    pub fn allocate_namespace(
        &self,
        job: JobId,
        slot_count: u32,
    ) -> Result<Arc<Namespace>, PccheckError> {
        if slot_count < 2 {
            return Err(PccheckError::InvalidConfig(format!(
                "namespace needs at least 2 slots (N+1 with N >= 1), got {slot_count}"
            )));
        }
        let mut namespaces = self.namespaces.write();
        if namespaces.iter().any(|ns| ns.desc.job == job) {
            return Err(PccheckError::InvalidConfig(format!(
                "job {job} already owns a namespace"
            )));
        }
        let max_namespaces = self.max_namespaces();
        if namespaces.len() as u32 >= max_namespaces {
            return Err(PccheckError::InvalidConfig(format!(
                "namespace directory full ({} of {max_namespaces})",
                namespaces.len(),
            )));
        }
        let remaining = Self::unallocated(&namespaces, self.num_slots());
        if slot_count > remaining {
            return Err(PccheckError::InvalidConfig(format!(
                "slot budget exhausted: {slot_count} requested, {remaining} of {} remain",
                self.num_slots()
            )));
        }
        let desc = NamespaceDesc {
            job,
            slot_start: self.num_slots() - remaining,
            slot_count,
        };
        // Persist descriptor + a zeroed CHECK_ADDR record before exposing
        // the namespace: a crash mid-allocate leaves either no entry
        // (decode fails on the torn descriptor) or a complete, empty
        // namespace — never a half-initialized one.
        let row = namespaces.len() as u32;
        let mut entry = [0u8; NS_ENTRY_SIZE as usize];
        entry[..NS_DESC_SIZE as usize].copy_from_slice(&desc.encode());
        self.device.write_at(self.layout.ns_entry(row), &entry)?;
        self.device
            .persist(self.layout.ns_entry(row), NS_ENTRY_SIZE)?;
        let ns = Arc::new(Namespace::new(&self.layout, row, desc, None));
        for slot in desc.slot_range() {
            ns.free_slots.enqueue_blocking(slot);
        }
        namespaces.push(Arc::clone(&ns));
        Ok(ns)
    }

    /// Writes a payload chunk into the leased slot at `chunk_offset` within
    /// the payload area. Does **not** persist — the caller persists via the
    /// device (per writer thread on PMEM, or one `msync` on SSD).
    ///
    /// # Errors
    ///
    /// Propagates device errors; rejects writes beyond the slot capacity.
    pub fn write_payload(
        &self,
        lease: &SlotLease,
        chunk_offset: u64,
        data: &[u8],
    ) -> Result<(), PccheckError> {
        self.write_slot(lease.slot, chunk_offset, data)
    }

    /// [`write_payload`](Self::write_payload) by slot index, for a queued
    /// pipeline job: the job outlives no lease (its checkpoint waits for
    /// it before committing), it just cannot borrow one.
    pub(crate) fn write_slot(
        &self,
        slot: u32,
        chunk_offset: u64,
        data: &[u8],
    ) -> Result<(), PccheckError> {
        if chunk_offset + data.len() as u64 > self.slot_size().as_u64() {
            return Err(PccheckError::InvalidConfig(format!(
                "payload write at {chunk_offset}+{} exceeds slot size {}",
                data.len(),
                self.slot_size()
            )));
        }
        let base = self.slot_payload_offset(slot);
        self.device.write_at(base + chunk_offset, data)?;
        Ok(())
    }

    /// This store as a [`SlotRead`](crate::codec::SlotRead) of durable bytes.
    pub(crate) fn read_slot(&self, slot: u32, at: u64, buf: &mut [u8]) -> bool {
        self.device
            .read_durable_at(self.slot_payload_offset(slot) + at, buf)
            .is_ok()
    }

    /// Persists a payload range of the leased slot (msync/fence granularity
    /// chosen by the engine).
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn persist_payload(
        &self,
        lease: &SlotLease,
        chunk_offset: u64,
        len: u64,
    ) -> Result<(), PccheckError> {
        self.persist_slot(lease.slot, chunk_offset, len)
    }

    /// [`persist_payload`](Self::persist_payload) by slot index (see
    /// [`write_slot`](Self::write_slot)).
    pub(crate) fn persist_slot(
        &self,
        slot: u32,
        chunk_offset: u64,
        len: u64,
    ) -> Result<(), PccheckError> {
        let base = self.slot_payload_offset(slot);
        self.device.persist(base + chunk_offset, len)?;
        Ok(())
    }

    /// Completes the checkpoint: persists the slot's meta record and runs
    /// the CAS commit loop (Listing 1, lines 16–34). Consumes the lease.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn commit(
        &self,
        lease: SlotLease,
        iteration: u64,
        payload_len: u64,
        digest: u64,
    ) -> Result<CommitOutcome, PccheckError> {
        self.commit_with_delta(lease, iteration, payload_len, digest, None)
    }

    /// Commits a checkpoint whose payload references earlier checkpoints
    /// (a codec frame with `DedupBase` records; see the pipeline's
    /// `copy`), all of them on the chain `delta` starts. Identical
    /// to [`commit`](Self::commit) except that, on success, every slot on
    /// that chain stays pinned out of the free queue — the committed state
    /// is only recoverable with its homes in place. Pinned slots the next
    /// head's chain does not include are released when it commits.
    ///
    /// The link target must itself be pinned when this checkpoint becomes
    /// the head: each CAS attempt first requires `(base_counter,
    /// base_slot)` to be on the chain of the head it would displace. With
    /// several checkpoints in flight a frame planned against head *k−1*
    /// can reach this point after an unlinked *k* displaced it and sent
    /// its slot back to the free queue; such a frame is withdrawn — meta
    /// record scrubbed, slot released, `SupersededBy` the head that stands
    /// — instead of committed over references that dangle.
    ///
    /// # Errors
    ///
    /// Returns [`PccheckError::InvalidConfig`] for a `delta` link with
    /// `base_counter == 0` (reserved to mean "full"); propagates device
    /// errors.
    pub fn commit_with_delta(
        &self,
        lease: SlotLease,
        iteration: u64,
        payload_len: u64,
        digest: u64,
        delta: Option<DeltaLink>,
    ) -> Result<CommitOutcome, PccheckError> {
        if delta.is_some_and(|l| l.base_counter == 0) {
            return Err(PccheckError::InvalidConfig(
                "delta link base_counter 0 is reserved for full checkpoints".into(),
            ));
        }
        let meta = CheckMeta {
            counter: lease.counter,
            slot: lease.slot,
            iteration,
            payload_len,
            digest,
            delta,
        };
        // Lines 16-18: persist the checkpoint's own record before
        // publishing it (BARRIER(cur_check)).
        let rec = meta.encode();
        let meta_off = self.slot_meta_offset(lease.slot);
        self.device.write_at(meta_off, &rec)?;
        self.device.persist(meta_off, META_RECORD_SIZE)?;
        self.flight.record(
            FlightEventKind::MetaPersisted,
            lease.counter,
            lease.slot,
            iteration,
            payload_len,
            digest,
        );

        // The lease CASes its namespace's CHECK_ADDR and recycles into its
        // namespace's free queue.
        let ns = lease.ns.as_ref();
        let check_addr = &ns.commit.addr;

        // Losing the commit: help publish CHECK_ADDR, then recycle our own
        // slot — our data is obsolete. The durable state word stays
        // Claimed{ours}.
        let superseded = |by: PackedCheckAddr| -> Result<CommitOutcome, PccheckError> {
            self.publish_check_addr(ns)?;
            self.flight.record(
                FlightEventKind::Superseded,
                lease.counter,
                lease.slot,
                iteration,
                payload_len,
                by.counter(),
            );
            self.release_slot(ns, lease.slot);
            Ok(CommitOutcome::SupersededBy {
                counter: by.counter(),
            })
        };

        let ours = PackedCheckAddr::pack(lease.counter, lease.slot);
        let mut last = lease.last_check;
        // Lines 19-34: the CAS loop.
        loop {
            // The chain this attempt would displace, and how much of its
            // head end goes back to the free queue: all of it under an
            // unlinked commit, everything younger than the link target
            // under a linked one — from the target down it is our own
            // chain. `None`: the target is not on it.
            let displaced = self.chain(last);
            let released = match delta {
                None => Some(displaced.len()),
                Some(l) => displaced
                    .iter()
                    .position(|&pinned| pinned == (l.base_slot, l.base_counter)),
            };
            let attempt = if released.is_some() {
                check_addr.compare_exchange(last.0, ours.0, Ordering::AcqRel, Ordering::Acquire)
            } else {
                // Only a verdict against the head that actually stands
                // counts; a stale `last` just retries against the real one.
                let current = check_addr.load(Ordering::Acquire);
                if current == last.0 {
                    // Our meta record is durable and carries the highest
                    // counter, so a crash now would let recovery adopt a
                    // frame whose homes are up for recycling: scrub it
                    // before giving the slot back.
                    self.device
                        .write_at(meta_off, &[0u8; META_RECORD_SIZE as usize])?;
                    self.device.persist(meta_off, META_RECORD_SIZE)?;
                    return superseded(last);
                }
                Err(current)
            };
            match attempt {
                Ok(_) => {
                    // Success: publish the Committed state word (the meta
                    // record is already durable, so the lattice ordering
                    // Claimed → meta persist → Committed holds), publish
                    // CHECK_ADDR, then free every slot of the displaced
                    // chain the new checkpoint does not itself depend on.
                    self.publish_slot_state(
                        lease.slot,
                        SlotState::Committed {
                            counter: lease.counter,
                        },
                    )?;
                    self.publish_check_addr(ns)?;
                    let released = released.expect("the CAS ran only with the link target pinned");
                    for &(slot, _) in &displaced[..released] {
                        self.release_slot(ns, slot);
                    }
                    return Ok(CommitOutcome::Committed);
                }
                Err(current) => {
                    let current = PackedCheckAddr(current);
                    if current.counter() < lease.counter {
                        // An older checkpoint is installed: retry against it.
                        last = current;
                        continue;
                    }
                    // A newer checkpoint won. With our meta durable but a
                    // newer counter committed, the decision procedure
                    // classifies the slot Persisted — adoptable only if it
                    // were the max, which it is not.
                    return superseded(current);
                }
            }
        }
    }

    /// Write-back of `ns`'s `CHECK_ADDR` location (the BARRIER on
    /// CHECK_ADDR), lock-free: persists the *current* value of the
    /// pointer, skipping the device round-trip entirely when the
    /// `fetch_max` watermark shows an equal-or-newer record is already
    /// durable.
    ///
    /// Racing publishers may interleave so that an older record lands
    /// *after* a newer one — harmless, because (a) the newer commit's
    /// slot record was durable before its publish began, (b) recovery's
    /// slot scan takes the max valid counter, and (c) a displaced slot is
    /// only recycled after the newer record persisted, so the stale
    /// record's slot still validates. The flight-ring Commit witness is
    /// recorded only by the publisher whose `fetch_max` actually advanced
    /// the watermark — exactly one witness per counter, though a late
    /// witness may appear after a newer one (the auditor tolerates the
    /// inversion while the checkpoint's window is still open).
    fn publish_check_addr(&self, ns: &Namespace) -> Result<(), PccheckError> {
        let commit = &ns.commit;
        loop {
            let current = PackedCheckAddr(commit.addr.load(Ordering::Acquire));
            if current.counter() <= commit.persisted.load(Ordering::Acquire) {
                return Ok(()); // an equal-or-newer record is already durable
            }
            // Re-encode the full meta record for the committed checkpoint
            // from its slot record (authoritative, already durable).
            let mut rec = [0u8; META_RECORD_SIZE as usize];
            self.device
                .read_durable_at(self.slot_meta_offset(current.slot()), &mut rec)?;
            self.device.write_at(ns.check_rec, &rec)?;
            self.device.persist(ns.check_rec, META_RECORD_SIZE)?;
            let prev = commit
                .persisted
                .fetch_max(current.counter(), Ordering::AcqRel);
            if prev < current.counter() {
                let (iteration, payload_len) = CheckMeta::decode(&rec)
                    .map(|m| (m.iteration, m.payload_len))
                    .unwrap_or((0, 0));
                self.flight.record(
                    FlightEventKind::Commit,
                    current.counter(),
                    current.slot(),
                    iteration,
                    payload_len,
                    0,
                );
            }
            // Loop: if the pointer advanced past what we just persisted,
            // help publish the newer value; otherwise the watermark check
            // exits on the next pass.
        }
    }

    /// Number of slots currently in `ns`'s free queue (diagnostics).
    pub fn free_slot_count(&self, ns: &Namespace) -> usize {
        ns.free_slots.len()
    }

    /// Namespace directory capacity.
    pub fn max_namespaces(&self) -> u32 {
        self.layout.geometry().max_namespaces
    }

    /// Snapshot of the allocated namespace descriptors, in allocation
    /// order.
    pub fn namespaces(&self) -> Vec<NamespaceDesc> {
        self.namespaces.read().iter().map(|ns| ns.desc).collect()
    }

    /// The job whose namespace owns `slot`, or `None` for an unallocated
    /// slot.
    pub fn namespace_of_slot(&self, slot: u32) -> Option<JobId> {
        self.namespaces
            .read()
            .iter()
            .find(|ns| ns.desc.slot_range().contains(&slot))
            .map(|ns| ns.desc.job)
    }

    /// Slots not yet carved into any namespace (the admission budget
    /// remaining).
    #[cfg(test)]
    fn unallocated_slots(&self) -> u32 {
        Self::unallocated(&self.namespaces.read(), self.num_slots())
    }

    /// Slots past the last allocated range (ranges are handed out in
    /// order, so that is all of them).
    fn unallocated(namespaces: &[Arc<Namespace>], slots: u32) -> u32 {
        let end = namespaces.iter().map(|ns| ns.desc.slot_range().end).max();
        slots - end.unwrap_or(0)
    }

    /// Every slot of `ns` currently holding a *complete* checkpoint (valid
    /// durable meta record), sorted by counter ascending — only that
    /// namespace's slot records are read. Beyond the latest committed
    /// checkpoint this may include superseded-but-intact older ones — the
    /// N+1 slots double as a short checkpoint history, which the
    /// monitoring tooling (§2.1 of the paper) exploits.
    ///
    /// # Errors
    ///
    /// Propagates device read errors.
    pub fn history(&self, ns: &Namespace) -> Result<Vec<CheckMeta>, PccheckError> {
        let mut found = Vec::new();
        for slot in ns.desc.slot_range() {
            found.extend(read_slot_meta(self.device.as_ref(), &self.layout, slot)?);
        }
        found.sort_by_key(|m| m.counter);
        Ok(found)
    }

    /// Reads the payload of a historical checkpoint identified by `meta`
    /// (as returned by [`history`](Self::history)), verifying the meta
    /// record still matches (the slot may have been recycled since).
    ///
    /// # Errors
    ///
    /// Returns [`PccheckError::CorruptCheckpoint`] if the slot has been
    /// recycled or torn since `meta` was read; propagates device errors.
    pub fn read_checkpoint(&self, meta: &CheckMeta) -> Result<Vec<u8>, PccheckError> {
        let check = || match read_slot_meta(self.device.as_ref(), &self.layout, meta.slot)? {
            Some(m) if m == *meta => Ok(()),
            _ => Err(PccheckError::CorruptCheckpoint {
                counter: meta.counter,
            }),
        };
        check()?;
        let mut payload = vec![0u8; meta.payload_len as usize];
        self.device
            .read_durable_at(self.slot_payload_offset(meta.slot), &mut payload)?;
        // Re-validate after the read: the payload is only trustworthy if
        // the meta record is unchanged (recycling writes payload first).
        check()?;
        Ok(payload)
    }
}

/// A read-only, durable-bytes-only view of a store's on-device state,
/// loadable **while the device is still crashed** (it never touches the
/// volatile overlay and never mutates anything). This is what the
/// post-crash forensic auditor replays the flight ring against.
#[derive(Debug, Clone)]
pub struct RawStoreView {
    /// The store's validated layout.
    pub layout: StoreLayout,
    /// Each slot's durable meta record, if it decodes and names its own
    /// slot (`slot_meta[s]` is `None` for empty/torn/mis-slotted records).
    pub slot_meta: Vec<Option<CheckMeta>>,
    /// Each slot's durable commit-state word, if the record decodes
    /// (`None` = torn → the decision procedure falls back to the meta CRC
    /// alone).
    pub slot_state: Vec<Option<SlotState>>,
    /// Allocated namespaces, in directory order.
    pub namespaces: Vec<RawNamespace>,
}

/// The post-crash classification of one slot, decided from its durable
/// state word plus its meta record's CRC alone (the *detectable* half of
/// the lock-free commit protocol; see DESIGN §13).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotOutcome {
    /// No claim on record and no valid meta: the slot never held data
    /// (or only unpersisted garbage).
    Empty,
    /// Claimed{counter}, and the meta record does not (yet) describe that
    /// claim: the checkpoint died before its meta barrier. Not
    /// recoverable, by design.
    InFlight {
        /// Counter of the interrupted claim.
        counter: u64,
    },
    /// Claimed{counter} with a valid meta record for exactly that
    /// counter: the meta barrier completed but the Committed word did not
    /// land. Recovery may adopt it if it is the max counter — the durable
    /// meta, not the head publish, is what commits a checkpoint.
    Persisted {
        /// Counter of the fully persisted checkpoint.
        counter: u64,
    },
    /// Committed{counter} with a matching valid meta record.
    Committed {
        /// Counter of the committed checkpoint.
        counter: u64,
    },
    /// A valid meta record with no live claim on the word (Free or torn):
    /// an intact checkpoint from a past slot life.
    Historical {
        /// Counter from the slot's meta record.
        counter: u64,
    },
    /// Committed{counter} whose meta record is missing or names a
    /// different counter — unreachable under the protocol's ordering
    /// (meta persists before the Committed word) and therefore an
    /// invariant violation.
    Torn {
        /// Counter from the durable Committed word.
        state_counter: u64,
        /// Counter of the valid-but-mismatched meta record, if any.
        meta_counter: Option<u64>,
    },
}

impl std::fmt::Display for SlotOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SlotOutcome::Empty => f.write_str("empty"),
            SlotOutcome::InFlight { counter } => write!(f, "in-flight#{counter}"),
            SlotOutcome::Persisted { counter } => write!(f, "persisted#{counter}"),
            SlotOutcome::Committed { counter } => write!(f, "committed#{counter}"),
            SlotOutcome::Historical { counter } => write!(f, "historical#{counter}"),
            SlotOutcome::Torn {
                state_counter,
                meta_counter,
            } => write!(f, "TORN#{state_counter}/meta:{meta_counter:?}"),
        }
    }
}

/// One namespace's durable directory state, as seen by the forensic
/// auditor.
#[derive(Debug, Clone)]
pub struct RawNamespace {
    /// The namespace descriptor (job, slot range).
    pub desc: NamespaceDesc,
    /// The namespace's durable check record, if it decodes.
    pub(crate) check_addr: Option<CheckMeta>,
}

impl RawStoreView {
    /// Loads the view from durable bytes.
    ///
    /// # Errors
    ///
    /// Returns [`PccheckError::InvalidConfig`] if no valid superblock is
    /// found; propagates device read errors.
    pub fn load(device: &dyn PersistentDevice) -> Result<RawStoreView, PccheckError> {
        let layout = StoreLayout::read(device)?;
        let slots = layout.geometry().slots;
        let mut states = vec![0u8; (SLOT_STATE_SIZE * u64::from(slots)) as usize];
        device.read_durable_at(layout.slot_state(0), &mut states)?;
        Ok(RawStoreView {
            layout,
            slot_meta: read_slot_metas(device, &layout)?,
            slot_state: states
                .chunks_exact(SLOT_STATE_SIZE as usize)
                .map(SlotState::decode)
                .collect(),
            namespaces: read_directory(device, &layout)?
                .into_iter()
                .map(|(_, desc, check_addr)| RawNamespace { desc, check_addr })
                .collect(),
        })
    }

    /// The decision procedure over the commit-state lattice: classifies
    /// one slot's post-crash outcome from its durable state word plus its
    /// meta record's CRC — nothing else. Total: every (word, meta)
    /// combination maps to exactly one [`SlotOutcome`], and only
    /// [`SlotOutcome::Torn`] is unreachable under the protocol's
    /// ordering (the auditor flags it as an invariant violation).
    pub fn slot_outcome(&self, slot: u32) -> SlotOutcome {
        let meta = self.slot_meta.get(slot as usize).copied().flatten();
        let state = self.slot_state.get(slot as usize).copied().flatten();
        match (state, meta) {
            (None | Some(SlotState::Free), None) => SlotOutcome::Empty,
            (None | Some(SlotState::Free), Some(m)) => {
                SlotOutcome::Historical { counter: m.counter }
            }
            (Some(SlotState::Claimed { counter }), Some(m)) if m.counter == counter => {
                SlotOutcome::Persisted { counter }
            }
            (Some(SlotState::Claimed { counter }), _) => SlotOutcome::InFlight { counter },
            (Some(SlotState::Committed { counter }), Some(m)) if m.counter == counter => {
                SlotOutcome::Committed { counter }
            }
            (Some(SlotState::Committed { counter }), meta) => SlotOutcome::Torn {
                state_counter: counter,
                meta_counter: meta.map(|m| m.counter),
            },
        }
    }

    /// [`slot_outcome`](Self::slot_outcome) for every slot, in order.
    pub fn slot_outcomes(&self) -> Vec<SlotOutcome> {
        (0..self.layout.geometry().slots)
            .map(|s| self.slot_outcome(s))
            .collect()
    }

    /// The checkpoint recovery would restore for `job`'s namespace: the
    /// same scan `CheckpointStore::open` runs, over the same durable
    /// bytes. `None` when the job has no namespace or nothing committed.
    pub fn expected_recovery(&self, job: JobId) -> Option<CheckMeta> {
        let ns = self.namespaces.iter().find(|ns| ns.desc.job == job)?;
        recovery_target(
            ns.check_addr.as_ref(),
            &self.slot_meta,
            ns.desc.slot_range(),
        )
    }

    /// The job whose namespace owns `slot`, or `None` for an unallocated
    /// slot.
    pub fn namespace_of_slot(&self, slot: u32) -> Option<JobId> {
        self.namespaces
            .iter()
            .find(|ns| ns.desc.slot_range().contains(&slot))
            .map(|ns| ns.desc.job)
    }

    /// Reads a slot's durable payload bytes, sized by its meta record.
    ///
    /// # Errors
    ///
    /// Propagates device read errors; errors if the slot has no valid meta.
    pub fn read_slot_payload(
        &self,
        device: &dyn PersistentDevice,
        slot: u32,
    ) -> Result<Vec<u8>, PccheckError> {
        let meta = self
            .slot_meta
            .get(slot as usize)
            .copied()
            .flatten()
            .ok_or(PccheckError::CorruptCheckpoint { counter: 0 })?;
        let mut payload = vec![0u8; meta.payload_len as usize];
        device.read_durable_at(self.layout.slot_payload(slot), &mut payload)?;
        Ok(payload)
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use pccheck_device::{DeviceConfig, SsdDevice};
    use pccheck_gpu::StateDigest;

    fn geometry(slot_size: u64, slots: u32, flight_records: u32, max_ns: u32) -> StoreGeometry {
        StoreGeometry {
            slot_size: ByteSize::from_bytes(slot_size),
            slots,
            flight_records,
            max_namespaces: max_ns,
        }
    }

    /// An exactly-sized device for `geometry`.
    fn device(geometry: StoreGeometry) -> Arc<dyn PersistentDevice> {
        let cap = geometry.required_capacity();
        Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)))
    }

    fn store(slot_size: u64, slots: u32) -> CheckpointStore {
        let geometry = geometry(slot_size, slots, 0, 1);
        CheckpointStore::format(device(geometry), geometry).unwrap()
    }

    /// The tenant of a single-tenant store.
    fn ns(st: &CheckpointStore) -> Arc<Namespace> {
        st.namespace(DEFAULT_JOB).unwrap()
    }

    fn full_checkpoint(st: &CheckpointStore, iter: u64, payload: &[u8]) -> CommitOutcome {
        job_checkpoint(st, DEFAULT_JOB, iter, payload)
    }

    fn job_checkpoint(
        st: &CheckpointStore,
        job: JobId,
        iter: u64,
        payload: &[u8],
    ) -> CommitOutcome {
        let lease = st.begin_checkpoint(&st.namespace(job).unwrap());
        st.write_payload(&lease, 0, payload).unwrap();
        st.persist_payload(&lease, 0, payload.len() as u64).unwrap();
        let digest = StateDigest::of_payload(payload, iter).0;
        st.commit(lease, iter, payload.len() as u64, digest)
            .unwrap()
    }

    #[test]
    fn format_then_no_committed_checkpoint() {
        let st = store(256, 3);
        assert_eq!(st.latest_committed(&ns(&st)), None);
        assert_eq!(st.free_slot_count(&ns(&st)), 3);
        assert_eq!(st.num_slots(), 3);
        assert_eq!(st.slot_size().as_u64(), 256);
        // A single-tenant store is the one-row case: the default job owns
        // every slot and the directory has no room for another.
        assert_eq!(ns(&st).desc().slot_range(), 0..3);
        assert_eq!(st.unallocated_slots(), 0);
        assert!(st.allocate_namespace(1, 2).is_err());
    }

    #[test]
    fn commit_installs_latest() {
        let st = store(256, 3);
        let out = full_checkpoint(&st, 10, b"payload-at-iter-10");
        assert_eq!(out, CommitOutcome::Committed);
        let meta = st.latest_committed(&ns(&st)).unwrap();
        assert_eq!(meta.iteration, 10);
        assert_eq!(meta.payload_len, 18);
        // Committed slot is held out of the queue.
        assert_eq!(st.free_slot_count(&ns(&st)), 2);
    }

    #[test]
    fn successive_commits_recycle_slots() {
        let st = store(64, 2); // N=1
        for i in 1..=20u64 {
            let out = full_checkpoint(&st, i, format!("it{i}").as_bytes());
            assert_eq!(out, CommitOutcome::Committed);
            assert_eq!(st.latest_committed(&ns(&st)).unwrap().iteration, i);
            assert_eq!(st.free_slot_count(&ns(&st)), 1);
        }
    }

    #[test]
    fn out_of_order_commit_is_superseded() {
        let st = store(64, 3);
        let lease_old = st.begin_checkpoint(&ns(&st)); // counter 1
        let lease_new = st.begin_checkpoint(&ns(&st)); // counter 2
        st.write_payload(&lease_new, 0, b"new").unwrap();
        st.persist_payload(&lease_new, 0, 3).unwrap();
        assert_eq!(
            st.commit(lease_new, 2, 3, 0).unwrap(),
            CommitOutcome::Committed
        );
        st.write_payload(&lease_old, 0, b"old").unwrap();
        st.persist_payload(&lease_old, 0, 3).unwrap();
        let out = st.commit(lease_old, 1, 3, 0).unwrap();
        assert_eq!(out, CommitOutcome::SupersededBy { counter: 2 });
        // The newer checkpoint remains installed.
        assert_eq!(st.latest_committed(&ns(&st)).unwrap().iteration, 2);
        // Both non-committed slots are free again.
        assert_eq!(st.free_slot_count(&ns(&st)), 2);
    }

    #[test]
    fn oversized_payload_rejected() {
        let st = store(8, 2);
        let lease = st.begin_checkpoint(&ns(&st));
        assert!(st.write_payload(&lease, 4, &[0u8; 8]).is_err());
        st.write_payload(&lease, 0, &[0u8; 8]).unwrap();
        // Return the lease through a commit to avoid leaking the slot.
        st.commit(lease, 1, 8, 0).unwrap();
    }

    #[test]
    fn open_recovers_committed_checkpoint() {
        let payload = b"durable-state".to_vec();
        let cap = CheckpointStore::required_capacity(ByteSize::from_bytes(64), 3);
        let dev: Arc<dyn PersistentDevice> =
            Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        {
            let st = CheckpointStore::format(Arc::clone(&dev), geometry(64, 3, 0, 1)).unwrap();
            full_checkpoint(&st, 7, &payload);
        }
        dev.crash_now();
        dev.recover();
        let st = CheckpointStore::open(Arc::clone(&dev)).unwrap();
        let meta = st.latest_committed(&ns(&st)).unwrap();
        assert_eq!(meta.iteration, 7);
        assert_eq!(meta.payload_len, payload.len() as u64);
        // Counter resumes above the recovered one.
        let lease = st.begin_checkpoint(&ns(&st));
        assert!(lease.counter > meta.counter);
        assert_ne!(lease.slot, meta.slot, "committed slot is not leased out");
    }

    #[test]
    fn open_rejects_unformatted_device() {
        let dev: Arc<dyn PersistentDevice> = Arc::new(SsdDevice::new(
            DeviceConfig::fast_for_tests(ByteSize::from_kb(4)),
        ));
        assert!(matches!(
            CheckpointStore::open(dev),
            Err(PccheckError::InvalidConfig(_))
        ));
    }

    #[test]
    fn format_rejects_bad_geometry() {
        let dev: Arc<dyn PersistentDevice> = Arc::new(SsdDevice::new(
            DeviceConfig::fast_for_tests(ByteSize::from_kb(4)),
        ));
        assert!(CheckpointStore::format(Arc::clone(&dev), geometry(64, 1, 0, 1)).is_err());
        assert!(CheckpointStore::format(Arc::clone(&dev), geometry(0, 2, 0, 1)).is_err());
        assert!(CheckpointStore::format(Arc::clone(&dev), geometry(64, 2, 0, 0)).is_err());
        assert!(
            CheckpointStore::format(dev, geometry(1 << 30, 2, 0, 1)).is_err(),
            "device too small"
        );
    }

    #[test]
    fn crash_before_commit_preserves_previous() {
        let cap = CheckpointStore::required_capacity(ByteSize::from_bytes(64), 2);
        let dev_concrete = Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let dev: Arc<dyn PersistentDevice> = dev_concrete.clone();
        let st = CheckpointStore::format(Arc::clone(&dev), geometry(64, 2, 0, 1)).unwrap();
        full_checkpoint(&st, 1, b"first");
        // Second checkpoint: payload written + persisted, meta written but
        // CRASH before the meta record persists / CAS runs.
        let lease = st.begin_checkpoint(&ns(&st));
        st.write_payload(&lease, 0, b"second").unwrap();
        st.persist_payload(&lease, 0, 6).unwrap();
        dev.crash_now();
        dev.recover();
        let st2 = CheckpointStore::open(dev).unwrap();
        let meta = st2.latest_committed(&ns(&st2)).unwrap();
        assert_eq!(meta.iteration, 1, "first checkpoint survives the crash");
    }

    #[test]
    fn fallback_scan_recovers_newer_fully_persisted_slot() {
        // Commit #1 normally. For #2, persist payload + slot meta, then
        // crash before CHECK_ADDR persists. The fallback scan must find #2.
        let cap = CheckpointStore::required_capacity(ByteSize::from_bytes(64), 3);
        let dev: Arc<dyn PersistentDevice> =
            Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let st = CheckpointStore::format(Arc::clone(&dev), geometry(64, 3, 0, 1)).unwrap();
        full_checkpoint(&st, 1, b"one");
        let lease = st.begin_checkpoint(&ns(&st));
        st.write_payload(&lease, 0, b"two").unwrap();
        st.persist_payload(&lease, 0, 3).unwrap();
        // Persist the slot meta record manually (as commit() would), then
        // crash before the CHECK_ADDR update.
        let meta = CheckMeta {
            counter: lease.counter,
            slot: lease.slot,
            iteration: 2,
            payload_len: 3,
            digest: 0,
            delta: None,
        };
        let off = st.slot_meta_offset(lease.slot);
        dev.write_at(off, &meta.encode()).unwrap();
        dev.persist(off, META_RECORD_SIZE).unwrap();
        dev.crash_now();
        dev.recover();
        let st2 = CheckpointStore::open(dev).unwrap();
        assert_eq!(st2.latest_committed(&ns(&st2)).unwrap().iteration, 2);
    }

    #[test]
    fn history_lists_complete_checkpoints_in_counter_order() {
        let st = store(64, 4); // N=3: up to 3 historical + 1 latest
        for i in 1..=3u64 {
            full_checkpoint(&st, i, format!("payload-{i}").as_bytes());
        }
        let hist = st.history(&ns(&st)).unwrap();
        assert_eq!(hist.len(), 3);
        assert!(hist.windows(2).all(|w| w[0].counter < w[1].counter));
        assert_eq!(hist.last().unwrap().iteration, 3);
        // Payloads read back intact.
        for meta in &hist {
            let payload = st.read_checkpoint(meta).unwrap();
            assert_eq!(payload, format!("payload-{}", meta.iteration).into_bytes());
        }
    }

    #[test]
    fn read_checkpoint_detects_recycled_slot() {
        let st = store(64, 2); // tight store: slots recycle fast
        full_checkpoint(&st, 1, b"one");
        let old = st.history(&ns(&st)).unwrap()[0];
        full_checkpoint(&st, 2, b"two");
        full_checkpoint(&st, 3, b"three");
        // Slot of checkpoint 1 has been recycled by now.
        assert!(matches!(
            st.read_checkpoint(&old),
            Err(PccheckError::CorruptCheckpoint { .. })
        ));
    }

    #[test]
    fn flight_ring_witnesses_lifecycle_and_survives_crash() {
        use pccheck_telemetry::FlightEventKind as K;
        let cap = geometry(64, 3, 32, 1).required_capacity();
        let dev: Arc<dyn PersistentDevice> =
            Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let st = CheckpointStore::format(Arc::clone(&dev), geometry(64, 3, 32, 1)).unwrap();
        assert!(st.flight().is_enabled());
        full_checkpoint(&st, 5, b"five");
        full_checkpoint(&st, 6, b"six");
        dev.crash_now();
        // The ring is readable from durable bytes while crashed.
        let scan = FlightRing::scan(dev.as_ref(), st.layout().flight()).unwrap();
        let kinds: Vec<K> = scan.records.iter().map(|r| r.kind).collect();
        assert_eq!(
            kinds,
            [
                K::RunStart,
                K::Begin,
                K::MetaPersisted,
                K::Commit,
                K::Begin,
                K::MetaPersisted,
                K::Commit,
            ]
        );
        // Commit counters are strictly monotone and match the metadata.
        let commits: Vec<u64> = scan
            .records
            .iter()
            .filter(|r| r.kind == K::Commit)
            .map(|r| r.counter)
            .collect();
        assert_eq!(commits, [1, 2]);
        // Reopening resumes the ring.
        dev.recover();
        let st2 = CheckpointStore::open(Arc::clone(&dev)).unwrap();
        assert!(st2.flight().is_enabled());
        full_checkpoint(&st2, 7, b"seven");
        let scan2 = st2.flight().ring().unwrap().read_all().unwrap();
        assert_eq!(scan2.records.len(), scan.records.len() + 3);
    }

    /// `CheckpointStore::open` and `RawStoreView::load` share one scan, so
    /// after a crash at each of the harness's six crash points — on a
    /// one-namespace and a three-namespace image — they name the same
    /// recovery target for every namespace.
    #[test]
    fn raw_view_and_open_agree_on_every_namespace_after_every_crash_point() {
        const POINTS: [&str; 6] = [
            "claim-publish",
            "during-copy",
            "during-persist",
            "between-persist-and-commit",
            "after-commit",
            "dedup-chain",
        ];
        for jobs in [vec![DEFAULT_JOB], vec![1, 2, 3]] {
            let cases = jobs
                .iter()
                .flat_map(|victim| POINTS.iter().map(move |point| (point, victim)));
            for (point, victim) in cases {
                let geometry = geometry(64, 3 * jobs.len() as u32, 16, jobs.len() as u32);
                let ssd = Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(
                    geometry.required_capacity(),
                )));
                let dev: Arc<dyn PersistentDevice> = ssd.clone();
                let st = CheckpointStore::format(Arc::clone(&dev), geometry).unwrap();
                for &job in jobs.iter().filter(|&&job| job != DEFAULT_JOB) {
                    st.allocate_namespace(job, 3).unwrap();
                }
                for &job in &jobs {
                    job_checkpoint(&st, job, 10 + job, b"baseline");
                }
                let ns = st.namespace(*victim).unwrap();
                if *point == "dedup-chain" {
                    let base = st.latest_committed(&ns).unwrap();
                    let lease = st.begin_checkpoint(&ns);
                    st.write_payload(&lease, 0, b"frame").unwrap();
                    st.persist_payload(&lease, 0, 5).unwrap();
                    let link = DeltaLink {
                        base_counter: base.counter,
                        base_slot: base.slot,
                        chain_depth: 1,
                    };
                    st.commit_with_delta(lease, 20, 5, 0, Some(link)).unwrap();
                }
                let lease = st.begin_checkpoint(&ns);
                match *point {
                    "claim-publish" => {}
                    "during-copy" => st.write_payload(&lease, 0, b"ha").unwrap(),
                    "during-persist" => {
                        st.write_payload(&lease, 0, b"half").unwrap();
                        ssd.arm_crash_after_persists(0);
                        assert!(st.persist_payload(&lease, 0, 4).is_err());
                    }
                    // Payload durable: stranded before its meta record
                    // (also dedup-chain's second frame), or committed.
                    _ => {
                        st.write_payload(&lease, 0, b"full").unwrap();
                        st.persist_payload(&lease, 0, 4).unwrap();
                    }
                }
                if *point == "after-commit" {
                    let digest = StateDigest::of_payload(b"full", 30).0;
                    st.commit(lease, 30, 4, digest).unwrap();
                }
                dev.crash_now();
                let view = RawStoreView::load(dev.as_ref()).unwrap();
                assert_eq!(*view.layout.geometry(), geometry);
                dev.recover();
                let reopened = CheckpointStore::open(Arc::clone(&dev)).unwrap();
                for &job in &jobs {
                    let target = view.expected_recovery(job);
                    assert!(target.is_some(), "{point}: job {job} keeps a head");
                    assert_eq!(
                        reopened.latest_committed(&reopened.namespace(job).unwrap()),
                        target,
                        "{point}: job {job} of {jobs:?}"
                    );
                }
            }
        }
    }

    fn delta_checkpoint(st: &CheckpointStore, iter: u64, payload: &[u8]) -> CommitOutcome {
        let ns = ns(st);
        let base = st
            .latest_committed(&ns)
            .expect("delta needs a committed base");
        let depth = base.delta.map_or(0, |l| l.chain_depth);
        let lease = st.begin_checkpoint(&ns);
        st.write_payload(&lease, 0, payload).unwrap();
        st.persist_payload(&lease, 0, payload.len() as u64).unwrap();
        let digest = StateDigest::of_payload(payload, iter).0;
        st.commit_with_delta(
            lease,
            iter,
            payload.len() as u64,
            digest,
            Some(DeltaLink {
                base_counter: base.counter,
                base_slot: base.slot,
                chain_depth: depth + 1,
            }),
        )
        .unwrap()
    }

    #[test]
    fn delta_commit_pins_the_chain_until_a_full_checkpoint() {
        let st = store(64, 4);
        full_checkpoint(&st, 1, b"base");
        assert_eq!(st.free_slot_count(&ns(&st)), 3);
        assert_eq!(delta_checkpoint(&st, 2, b"d1"), CommitOutcome::Committed);
        // Base + delta both pinned.
        assert_eq!(st.free_slot_count(&ns(&st)), 2);
        assert_eq!(delta_checkpoint(&st, 3, b"d2"), CommitOutcome::Committed);
        assert_eq!(st.free_slot_count(&ns(&st)), 1);
        let head = st.latest_committed(&ns(&st)).unwrap();
        assert_eq!(head.iteration, 3);
        assert_eq!(head.delta.unwrap().chain_depth, 2);
        // A full checkpoint releases the whole displaced chain.
        full_checkpoint(&st, 4, b"full");
        assert_eq!(st.free_slot_count(&ns(&st)), 3);
        assert!(!st.latest_committed(&ns(&st)).unwrap().is_delta());
    }

    #[test]
    fn delta_commit_rejects_reserved_base_counter() {
        let st = store(64, 3);
        full_checkpoint(&st, 1, b"base");
        let lease = st.begin_checkpoint(&ns(&st));
        st.write_payload(&lease, 0, b"d").unwrap();
        st.persist_payload(&lease, 0, 1).unwrap();
        let err = st.commit_with_delta(
            lease,
            2,
            1,
            0,
            Some(DeltaLink {
                base_counter: 0,
                base_slot: 0,
                chain_depth: 1,
            }),
        );
        assert!(matches!(err, Err(PccheckError::InvalidConfig(_))));
    }

    #[test]
    fn open_pins_the_committed_delta_chain() {
        let cap = CheckpointStore::required_capacity(ByteSize::from_bytes(64), 4);
        let dev: Arc<dyn PersistentDevice> =
            Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        {
            let st = CheckpointStore::format(Arc::clone(&dev), geometry(64, 4, 0, 1)).unwrap();
            full_checkpoint(&st, 1, b"base");
            delta_checkpoint(&st, 2, b"d1");
            delta_checkpoint(&st, 3, b"d2");
        }
        dev.crash_now();
        dev.recover();
        let st = CheckpointStore::open(dev).unwrap();
        let head = st.latest_committed(&ns(&st)).unwrap();
        assert_eq!(head.iteration, 3);
        assert_eq!(head.delta.unwrap().chain_depth, 2);
        // Only the one slot outside the 3-slot chain is free.
        assert_eq!(st.free_slot_count(&ns(&st)), 1);
        let lease = st.begin_checkpoint(&ns(&st));
        let chain: Vec<u32> = {
            let mut c = vec![head.slot];
            let mut link = head.delta;
            while let Some(l) = link {
                c.push(l.base_slot);
                let hist = st.history(&ns(&st)).unwrap();
                link = hist
                    .iter()
                    .find(|m| m.counter == l.base_counter)
                    .and_then(|m| m.delta);
            }
            c
        };
        assert!(
            !chain.contains(&lease.slot),
            "no chain slot is ever leased out"
        );
    }

    #[test]
    fn an_image_with_the_previous_magic_is_rejected_not_recovered() {
        let cap = CheckpointStore::required_capacity(ByteSize::from_bytes(64), 3);
        let dev: Arc<dyn PersistentDevice> =
            Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        {
            let st = CheckpointStore::format(Arc::clone(&dev), geometry(64, 3, 0, 1)).unwrap();
            full_checkpoint(&st, 4, b"committed");
        }
        // "PCcheCk2" images kept a store-wide CHECK_ADDR at bytes 64..128
        // and an unchecksummed header with other field offsets.
        dev.write_at(0, &0x5043_6368_6543_6B32u64.to_le_bytes())
            .unwrap();
        dev.persist(0, 8).unwrap();
        for err in [
            CheckpointStore::open(Arc::clone(&dev)).err(),
            RawStoreView::load(dev.as_ref()).err(),
            crate::recovery::recover(dev).err(),
        ] {
            assert!(
                matches!(err, Some(PccheckError::InvalidConfig(_))),
                "{err:?}"
            );
        }
    }

    /// `open` and `RawStoreView::load` on a damaged image report; they
    /// never index or allocate by what a damaged superblock says.
    #[test]
    fn a_hostile_superblock_is_rejected_or_read_as_the_original() {
        let geometry = geometry(64, 3, 16, 1);
        let dev = device(geometry);
        {
            let st = CheckpointStore::format(Arc::clone(&dev), geometry).unwrap();
            full_checkpoint(&st, 4, b"committed");
        }
        let mut pristine = [0u8; 128];
        dev.read_durable_at(0, &mut pristine).unwrap();
        let judge = |prefix: &[u8; 128], what: &str| {
            dev.write_at(0, prefix).unwrap();
            dev.persist(0, 128).unwrap();
            let opened = CheckpointStore::open(Arc::clone(&dev)).map(|st| *st.layout().geometry());
            let loaded = RawStoreView::load(dev.as_ref()).map(|view| *view.layout.geometry());
            for seen in [opened, loaded] {
                match seen {
                    Ok(seen) => assert_eq!(seen, geometry, "{what}"),
                    Err(e) => assert!(matches!(e, PccheckError::InvalidConfig(_)), "{what}: {e}"),
                }
            }
        };
        // Every single-bit flip: of the superblock (rejected by its
        // checksum) and of the reserved bytes after it (ignored).
        for bit in 0..128 * 8 {
            let mut flipped = pristine;
            flipped[bit / 8] ^= 1 << (bit % 8);
            judge(&flipped, &format!("bit {bit}"));
        }
        // Random prefixes, with and without the right magic in place.
        pccheck_util::rng::check(256, |r| {
            let mut prefix = [0u8; 128];
            r.fill(&mut prefix);
            if r.bool() {
                prefix[..12].copy_from_slice(&pristine[..12]);
            }
            judge(&prefix, &format!("{prefix:?}"));
        });
        judge(&pristine, "pristine");
        assert!(CheckpointStore::open(dev).is_ok());
    }

    #[test]
    fn concurrent_commits_maintain_invariants() {
        let st = Arc::new(store(64, 4)); // N=3
        std::thread::scope(|s| {
            for t in 0..3u64 {
                let st = Arc::clone(&st);
                s.spawn(move || {
                    for i in 0..50u64 {
                        let iter = t * 1000 + i;
                        let payload = iter.to_le_bytes();
                        let lease = st.begin_checkpoint(&ns(&st));
                        st.write_payload(&lease, 0, &payload).unwrap();
                        st.persist_payload(&lease, 0, 8).unwrap();
                        st.commit(lease, iter, 8, 0).unwrap();
                    }
                });
            }
        });
        // After the dust settles: one committed checkpoint, 3 free slots.
        let meta = st.latest_committed(&ns(&st)).expect("something committed");
        assert!(meta.counter >= 1);
        assert_eq!(st.free_slot_count(&ns(&st)), 3);
        // The committed payload matches what that iteration wrote.
        let mut buf = [0u8; 8];
        st.device()
            .read_durable_at(st.slot_payload_offset(meta.slot), &mut buf)
            .unwrap();
        assert_eq!(u64::from_le_bytes(buf), meta.iteration);
    }

    // ------------------------------------------------- shared stores

    fn shared_store(slot_size: u64, slots: u32, max_ns: u32) -> CheckpointStore {
        let geometry = geometry(slot_size, slots, 0, max_ns);
        CheckpointStore::format(device(geometry), geometry).unwrap()
    }

    fn head(st: &CheckpointStore, job: JobId) -> CheckMeta {
        st.latest_committed(&st.namespace(job).unwrap()).unwrap()
    }

    fn free(st: &CheckpointStore, job: JobId) -> usize {
        st.free_slot_count(&st.namespace(job).unwrap())
    }

    #[test]
    fn namespaces_allocate_and_isolate_jobs() {
        let st = shared_store(128, 8, 4);
        assert_eq!(st.unallocated_slots(), 8);
        let a = st.allocate_namespace(1, 3).unwrap().desc();
        let b = st.allocate_namespace(2, 3).unwrap().desc();
        assert_eq!((a.slot_start, a.slot_count), (0, 3));
        assert_eq!((b.slot_start, b.slot_count), (3, 3));
        assert_eq!(st.unallocated_slots(), 2);
        assert_eq!(st.namespace_of_slot(1), Some(1));
        assert_eq!(st.namespace_of_slot(4), Some(2));
        assert_eq!(st.namespace_of_slot(7), None);

        // Commits in one namespace are invisible to the other.
        assert_eq!(
            job_checkpoint(&st, 1, 5, b"job1-a"),
            CommitOutcome::Committed
        );
        assert_eq!(
            job_checkpoint(&st, 2, 9, b"job2-a"),
            CommitOutcome::Committed
        );
        assert_eq!(
            job_checkpoint(&st, 1, 6, b"job1-b"),
            CommitOutcome::Committed
        );
        let (m1, m2) = (head(&st, 1), head(&st, 2));
        assert_eq!(m1.iteration, 6);
        assert_eq!(m2.iteration, 9);
        assert!(a.slot_range().contains(&m1.slot));
        assert!(b.slot_range().contains(&m2.slot));
        // Global counters are unique across jobs.
        assert_ne!(m1.counter, m2.counter);
        // Per-job free accounting: one slot pinned per job.
        assert_eq!(free(&st, 1), 2);
        assert_eq!(free(&st, 2), 2);
    }

    #[test]
    fn namespace_admission_rejections() {
        let st = shared_store(128, 6, 2);
        st.allocate_namespace(7, 4).unwrap();
        // Duplicate job.
        assert!(st.allocate_namespace(7, 2).is_err());
        // Over the slot budget (only 2 remain).
        assert!(st.allocate_namespace(8, 3).is_err());
        // Too few slots.
        assert!(st.allocate_namespace(8, 1).is_err());
        // Fits exactly.
        st.allocate_namespace(8, 2).unwrap();
        // Directory full.
        assert!(st.allocate_namespace(9, 2).is_err());
        // An unknown job has no handle to begin through.
        assert!(st.namespace(99).is_err());
    }

    #[test]
    fn reopen_recovers_every_namespace() {
        let geometry = geometry(128, 8, 0, 4);
        let dev = device(geometry);
        let st = CheckpointStore::format(Arc::clone(&dev), geometry).unwrap();
        st.allocate_namespace(1, 3).unwrap();
        st.allocate_namespace(2, 3).unwrap();
        job_checkpoint(&st, 1, 10, b"one-10");
        job_checkpoint(&st, 2, 20, b"two-20");
        job_checkpoint(&st, 1, 11, b"one-11");
        let c1 = head(&st, 1).counter;
        drop(st);

        let st2 = CheckpointStore::open(dev).unwrap();
        assert_eq!(st2.namespaces().len(), 2);
        let (m1, m2) = (head(&st2, 1), head(&st2, 2));
        assert_eq!(m1.iteration, 11);
        assert_eq!(m2.iteration, 20);
        // Payloads reload intact through the namespaced metadata.
        assert_eq!(st2.read_checkpoint(&m1).unwrap(), b"one-11");
        assert_eq!(st2.read_checkpoint(&m2).unwrap(), b"two-20");
        // The resumed global counter is past every namespace's commits.
        let lease = st2.begin_checkpoint(&st2.namespace(2).unwrap());
        assert!(lease.counter > c1);
        assert!(lease.counter > m2.counter);
        // Committed slots stayed pinned; the rest of each range is free.
        assert_eq!(free(&st2, 1), 2);
        assert_eq!(free(&st2, 2), 1); // one leased now
    }

    #[test]
    fn crash_mid_commit_keeps_namespaces_independent() {
        let geometry = geometry(128, 6, 0, 2);
        let dev = device(geometry);
        let st = CheckpointStore::format(Arc::clone(&dev), geometry).unwrap();
        st.allocate_namespace(1, 3).unwrap();
        st.allocate_namespace(2, 3).unwrap();
        job_checkpoint(&st, 1, 10, b"one-10");
        job_checkpoint(&st, 2, 20, b"two-20");
        // Job 1 writes but crashes before its meta persists: the volatile
        // overlay (unpersisted writes) is torn away.
        let lease = st.begin_checkpoint(&st.namespace(1).unwrap());
        st.write_payload(&lease, 0, b"one-11-torn").unwrap();
        dev.crash_now();
        dev.recover();
        drop(st);

        let st2 = CheckpointStore::open(dev).unwrap();
        // Job 1 recovers its previous commit; job 2 is untouched.
        assert_eq!(head(&st2, 1).iteration, 10);
        assert_eq!(head(&st2, 2).iteration, 20);
        // The torn slot returned to job 1's free queue.
        assert_eq!(free(&st2, 1), 2);
    }

    #[test]
    fn raw_view_expected_recovery_per_job() {
        let st = shared_store(128, 8, 4);
        st.allocate_namespace(5, 4).unwrap();
        st.allocate_namespace(6, 4).unwrap();
        job_checkpoint(&st, 5, 100, b"five");
        job_checkpoint(&st, 6, 200, b"six");
        job_checkpoint(&st, 5, 101, b"five2");
        let view = RawStoreView::load(st.device().as_ref()).unwrap();
        assert_eq!(view.layout.geometry().max_namespaces, 4);
        assert_eq!(view.namespaces.len(), 2);
        assert_eq!(view.expected_recovery(5).unwrap().iteration, 101);
        assert_eq!(view.expected_recovery(6).unwrap().iteration, 200);
        assert!(view.expected_recovery(7).is_none());
        assert_eq!(view.namespace_of_slot(0), Some(5));
        assert_eq!(view.namespace_of_slot(4), Some(6));
    }

    #[test]
    fn durable_state_word_tracks_the_commit_lattice() {
        let st = store(64, 3);
        for s in 0..3 {
            assert_eq!(st.slot_commit_state(s), SlotState::Free);
        }
        let view = RawStoreView::load(st.device().as_ref()).unwrap();
        assert!(view.slot_state.iter().all(|s| *s == Some(SlotState::Free)));

        // Claim: Free -> Claimed{counter}, in memory and on the device.
        let lease = st.begin_checkpoint(&ns(&st));
        let claimed = SlotState::Claimed {
            counter: lease.counter,
        };
        assert_eq!(st.slot_commit_state(lease.slot), claimed);
        let view = RawStoreView::load(st.device().as_ref()).unwrap();
        assert_eq!(view.slot_state[lease.slot as usize], Some(claimed));
        assert_eq!(
            view.slot_outcome(lease.slot),
            SlotOutcome::InFlight {
                counter: lease.counter
            }
        );

        // Commit: Claimed -> Committed{counter}, durably.
        let (c1_slot, c1) = (lease.slot, lease.counter);
        st.write_payload(&lease, 0, b"one").unwrap();
        st.persist_payload(&lease, 0, 3).unwrap();
        st.commit(lease, 1, 3, StateDigest::of_payload(b"one", 1).0)
            .unwrap();
        let committed = SlotState::Committed { counter: c1 };
        assert_eq!(st.slot_commit_state(c1_slot), committed);
        let view = RawStoreView::load(st.device().as_ref()).unwrap();
        assert_eq!(view.slot_state[c1_slot as usize], Some(committed));
        assert_eq!(
            view.slot_outcome(c1_slot),
            SlotOutcome::Committed { counter: c1 }
        );

        // Displacement recycles the slot in memory but never rewrites the
        // durable word: the high-water record keeps the slot decidable as
        // a (stale but valid) committed checkpoint until it is re-claimed.
        let out2 = full_checkpoint(&st, 2, b"two");
        assert_eq!(out2, CommitOutcome::Committed);
        assert_eq!(st.slot_commit_state(c1_slot), SlotState::Free);
        let view = RawStoreView::load(st.device().as_ref()).unwrap();
        assert_eq!(view.slot_state[c1_slot as usize], Some(committed));
        assert_eq!(
            view.slot_outcome(c1_slot),
            SlotOutcome::Committed { counter: c1 }
        );

        // Re-claiming the displaced slot overwrites the durable word; the
        // stale meta no longer matches, so the slot reads as in-flight.
        let mut lease3 = st.begin_checkpoint(&ns(&st));
        if lease3.slot != c1_slot {
            // Two free slots: keep drawing until the displaced one comes up.
            let other = lease3;
            lease3 = st.begin_checkpoint(&ns(&st));
            st.commit(other, 3, 0, StateDigest::of_payload(b"", 3).0)
                .unwrap();
        }
        assert_eq!(lease3.slot, c1_slot, "displaced slot recycles via queue");
        let view = RawStoreView::load(st.device().as_ref()).unwrap();
        assert_eq!(
            view.slot_outcome(c1_slot),
            SlotOutcome::InFlight {
                counter: lease3.counter
            }
        );
        st.commit(lease3, 4, 0, StateDigest::of_payload(b"", 4).0)
            .unwrap();
    }

    #[test]
    fn crash_between_claim_and_meta_publish_is_decidable() {
        let cap = CheckpointStore::required_capacity(ByteSize::from_bytes(64), 3);
        let dev: Arc<dyn PersistentDevice> =
            Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let (committed_slot, committed_ctr, leased_slot, leased_ctr);
        {
            let st = CheckpointStore::format(Arc::clone(&dev), geometry(64, 3, 0, 1)).unwrap();
            full_checkpoint(&st, 1, b"one");
            let prev = st.latest_committed(&ns(&st)).unwrap();
            (committed_slot, committed_ctr) = (prev.slot, prev.counter);
            // Claim a slot (state word goes durable) and crash before any
            // meta is written for it.
            let lease = st.begin_checkpoint(&ns(&st));
            (leased_slot, leased_ctr) = (lease.slot, lease.counter);
            std::mem::forget(lease);
        }
        dev.crash_now();
        dev.recover();
        let view = RawStoreView::load(dev.as_ref()).unwrap();
        assert_eq!(
            view.slot_outcome(leased_slot),
            SlotOutcome::InFlight {
                counter: leased_ctr
            },
            "claimed-but-unpublished slot is decidably in-flight"
        );
        assert_eq!(
            view.slot_outcome(committed_slot),
            SlotOutcome::Committed {
                counter: committed_ctr
            }
        );
        // Recovery discards the in-flight claim and reopens the slot.
        let st = CheckpointStore::open(dev).unwrap();
        assert_eq!(st.latest_committed(&ns(&st)).unwrap().iteration, 1);
        assert_eq!(st.free_slot_count(&ns(&st)), 2);
        assert_eq!(st.slot_commit_state(leased_slot), SlotState::Free);
    }

    #[test]
    fn crash_between_meta_persist_and_committed_word_is_adoptable() {
        // The window between the meta record persisting and the state
        // word's Committed CAS: the slot reads as Persisted{c} and the
        // max-counter recovery scan adopts it.
        let cap = CheckpointStore::required_capacity(ByteSize::from_bytes(64), 3);
        let dev: Arc<dyn PersistentDevice> =
            Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let st = CheckpointStore::format(Arc::clone(&dev), geometry(64, 3, 0, 1)).unwrap();
        full_checkpoint(&st, 1, b"one");
        let lease = st.begin_checkpoint(&ns(&st));
        st.write_payload(&lease, 0, b"two").unwrap();
        st.persist_payload(&lease, 0, 3).unwrap();
        let meta = CheckMeta {
            counter: lease.counter,
            slot: lease.slot,
            iteration: 2,
            payload_len: 3,
            digest: StateDigest::of_payload(b"two", 2).0,
            delta: None,
        };
        let off = st.slot_meta_offset(lease.slot);
        dev.write_at(off, &meta.encode()).unwrap();
        dev.persist(off, META_RECORD_SIZE).unwrap();
        let (slot, counter) = (lease.slot, lease.counter);
        std::mem::forget(lease);
        dev.crash_now();
        dev.recover();
        let view = RawStoreView::load(dev.as_ref()).unwrap();
        assert_eq!(
            view.slot_outcome(slot),
            SlotOutcome::Persisted { counter },
            "meta persisted before the Committed word: adoptable"
        );
        let st2 = CheckpointStore::open(dev).unwrap();
        assert_eq!(st2.latest_committed(&ns(&st2)).unwrap().iteration, 2);
    }

    #[test]
    fn racing_commits_never_produce_torn_outcomes() {
        let st = Arc::new(store(64, 6)); // N=5
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let st = Arc::clone(&st);
                s.spawn(move || {
                    for i in 0..30u64 {
                        let iter = t * 1000 + i;
                        let payload = iter.to_le_bytes();
                        let lease = st.begin_checkpoint(&ns(&st));
                        st.write_payload(&lease, 0, &payload).unwrap();
                        st.persist_payload(&lease, 0, 8).unwrap();
                        st.commit(lease, iter, 8, 0).unwrap();
                    }
                });
            }
        });
        // Every slot's durable record decides to a lattice point; the Torn
        // verdict is unreachable while the protocol's ordering holds.
        let view = RawStoreView::load(st.device().as_ref()).unwrap();
        for (s, outcome) in view.slot_outcomes().into_iter().enumerate() {
            assert!(
                !matches!(outcome, SlotOutcome::Torn { .. }),
                "slot {s} reads torn: {outcome:?}"
            );
        }
        // The winner is decidably committed, at the head the store reports.
        let head = st.latest_committed(&ns(&st)).unwrap();
        assert_eq!(
            view.slot_outcome(head.slot),
            SlotOutcome::Committed {
                counter: head.counter
            }
        );
        assert_eq!(st.free_slot_count(&ns(&st)), 5);
    }
}
