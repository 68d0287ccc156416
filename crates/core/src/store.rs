//! The persistent checkpoint store: device layout and the concurrent
//! commit protocol of Listing 1.
//!
//! # Device layout
//!
//! ```text
//! +--------------------+  offset 0
//! | store header (64B) |  magic, slot count, slot size
//! +--------------------+  offset 64
//! | CHECK_ADDR record  |  CheckMeta of the latest committed checkpoint
//! |        (64B)       |  (one cache line: atomically persistable)
//! +--------------------+  offset 128
//! | slot 0 meta (64B)  |
//! | slot 0 payload     |
//! +--------------------+
//! | slot 1 meta ...    |
//! +--------------------+  offset 128 + slots·(64 + slot_size)
//! | flight ring        |  optional crash-safe telemetry ring
//! | (header + records) |  (`flight_records` > 0)
//! +--------------------+
//! | namespace directory|  optional multi-tenant directory
//! | (max_ns · 128B)    |  (`max_namespaces` > 0; descriptor + per-job
//! +--------------------+   CHECK_ADDR record per entry)
//! | slot state words   |  optional per-slot commit-state records
//! | (slots · 64B)      |  (header flag at bytes 32..36; the lattice
//! +--------------------+   Free → Claimed{c} → Committed{c})
//! ```
//!
//! With `N` allowed concurrent checkpoints the store holds `N+1` slots —
//! the `(N+1)·m` storage footprint of Table 1 — guaranteeing one fully
//! persisted checkpoint exists at all times once the first commit lands.
//!
//! # Commit protocol (Listing 1, lock-free)
//!
//! 1. read the current `CHECK_ADDR` (`last_check`),
//! 2. `atomic_add` the global counter → `curr_counter`,
//! 3. dequeue a free slot from the lock-free queue (spinning if none),
//!    CAS its in-memory state word Free → Claimed{counter}, and publish
//!    the durable claim word (best-effort),
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
//! by a `fetch_max` watermark over the last-persisted counter
//! ([`CommitPointer`]); a racing publisher can at worst re-persist a
//! *stale* record, which recovery tolerates because the slot scan takes
//! the max valid counter and a newer commit's slot record is always
//! durable before its `CHECK_ADDR` publish (see DESIGN §13).
//!
//! The invariant maintained: the slot referenced by the durable
//! `CHECK_ADDR` is never in the free queue, so no concurrent checkpoint
//! can overwrite the latest committed state.
//!
//! # The per-slot commit-state lattice
//!
//! Stores formatted by this version additionally carry one durable
//! [`SlotState`] word per slot (header flag at bytes 32..36). The claim
//! step publishes Claimed{counter}; the commit winner publishes
//! Committed{counter}; recycling deliberately leaves the durable word
//! alone (counters rank claims). After a crash every slot's outcome is
//! decidable from its state word plus the meta record's CRC —
//! [`RawStoreView::slot_outcome`] is the decision procedure — which is
//! what makes the lock-free commit *detectable* in the memento sense.
//! Legacy stores read the flag as zero and classify from meta CRCs
//! alone, exactly as before.
//!
//! # Multi-tenant namespaces
//!
//! A *service-mode* store (formatted via
//! [`CheckpointStore::format_service`]) additionally carves its slot array
//! into contiguous per-job **namespaces**. Each namespace owns a private
//! free-slot queue and a private `CHECK_ADDR` (in memory and on device, in
//! the directory at the tail of the layout), so the full Listing 1 commit
//! protocol runs independently per tenant: jobs never race each other's
//! CAS, never lease each other's slots, and recover independently. The
//! global counter stays store-wide, keeping every checkpoint's counter
//! unique across tenants (forensics and the flight ring rely on that).
//! Legacy stores carry `max_namespaces == 0` in the header and behave
//! exactly as before.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use pccheck_util::sync::RwLock;

use pccheck_device::PersistentDevice;
use pccheck_telemetry::{FlightEventKind, FlightRecorder, FlightRing};
use pccheck_util::ByteSize;

use crate::error::PccheckError;
use crate::meta::{
    CheckMeta, DeltaLink, NamespaceDesc, PackedCheckAddr, SlotState, META_RECORD_SIZE,
    NS_DESC_SIZE, SLOT_STATE_SIZE,
};
use crate::queue::SlotQueue;

/// Identifier of a tenant job in a multi-tenant store (matches the sim's
/// fluid-model job ids so fairness oracles line up).
pub type JobId = u64;

const STORE_MAGIC: u64 = 0x5043_6368_6543_6B32; // "PCcheCk2"
const HEADER_SIZE: u64 = 64;
const CHECK_ADDR_OFFSET: u64 = HEADER_SIZE;
const SLOTS_OFFSET: u64 = HEADER_SIZE + META_RECORD_SIZE;

/// Stride of one namespace-directory entry: the 64-byte descriptor
/// followed by that namespace's own 64-byte CHECK_ADDR record.
const NS_ENTRY_SIZE: u64 = NS_DESC_SIZE + META_RECORD_SIZE;

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
/// the payload at [`payload_offset`](SlotLease::payload_offset) and then
/// calls [`CheckpointStore::commit`].
#[derive(Debug)]
pub struct SlotLease {
    /// The global counter assigned to this checkpoint.
    pub counter: u64,
    /// The slot index leased.
    pub slot: u32,
    /// The `CHECK_ADDR` observed before the counter was taken (Listing 1
    /// line 3) — the CAS baseline.
    last_check: PackedCheckAddr,
    /// The namespace the lease was drawn from (`None` on a legacy
    /// single-tenant store): commit routes its CAS, durable CHECK_ADDR
    /// write, and slot recycling through this namespace's private state.
    ns: Option<Arc<Namespace>>,
}

impl SlotLease {
    /// The tenant this lease belongs to, or `None` on a legacy store.
    pub fn job(&self) -> Option<JobId> {
        self.ns.as_ref().map(|n| n.desc.job)
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

impl CommitPointer {
    fn new(addr: PackedCheckAddr, persisted_counter: u64) -> Self {
        CommitPointer {
            addr: AtomicU64::new(addr.0),
            persisted: AtomicU64::new(persisted_counter),
        }
    }
}

/// One tenant's slice of a service-mode store: a contiguous slot range
/// with its own free queue and commit pointer.
#[derive(Debug)]
pub(crate) struct Namespace {
    desc: NamespaceDesc,
    /// This namespace's CHECK_ADDR pointer + durable-publish watermark.
    commit: CommitPointer,
    free_slots: SlotQueue,
    /// Device offset of this namespace's directory entry (descriptor at
    /// +0, CHECK_ADDR record at +[`NS_DESC_SIZE`]).
    dir_offset: u64,
}

impl Namespace {
    fn check_rec_offset(&self) -> u64 {
        self.dir_offset + NS_DESC_SIZE
    }

    fn slot_range(&self) -> std::ops::Range<u32> {
        self.desc.slot_start..self.desc.slot_start + self.desc.slot_count
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
    slot_size: ByteSize,
    num_slots: u32,
    global_counter: AtomicU64,
    /// The store-wide CHECK_ADDR pointer + durable-publish watermark.
    commit: CommitPointer,
    free_slots: SlotQueue,
    /// In-memory per-slot commit-state words (packed [`SlotState`]), the
    /// volatile half of the lattice. A dequeued slot is CASed
    /// Free → Claimed{counter}; every release path stores Free *before*
    /// enqueueing, so the claim CAS can never lose.
    slot_states: Vec<AtomicU64>,
    /// Whether the device carries the durable per-slot state region
    /// (header flag; false on stores formatted before the lattice).
    state_words: bool,
    /// Persistent flight recorder appending lifecycle milestones to the
    /// ring after the slots (disabled when the store was formatted with
    /// `flight_records = 0`).
    flight: FlightRecorder,
    /// Flight-ring capacity in records (0 = no ring); part of the geometry
    /// because the namespace directory starts after the ring.
    flight_records: u32,
    /// Directory capacity in namespaces (0 = legacy single-tenant store).
    max_namespaces: u32,
    /// Allocated namespaces, in directory order. Appended under the write
    /// lock by [`allocate_namespace`](Self::allocate_namespace); the hot
    /// commit path never takes this lock (the lease carries its `Arc`).
    namespaces: RwLock<Vec<Arc<Namespace>>>,
    /// Next unallocated slot (service mode's bump allocator).
    next_free_slot: AtomicU32,
}

impl CheckpointStore {
    /// Bytes of device space needed for `slots` slots of `slot_size` each
    /// (no flight-recorder ring).
    pub fn required_capacity(slot_size: ByteSize, slots: u32) -> ByteSize {
        Self::required_capacity_with_flight(slot_size, slots, 0)
    }

    /// Bytes of device space needed for `slots` slots of `slot_size` each
    /// plus a flight-recorder ring of `flight_records` records (0 = none).
    pub fn required_capacity_with_flight(
        slot_size: ByteSize,
        slots: u32,
        flight_records: u32,
    ) -> ByteSize {
        ByteSize::from_bytes(
            Self::ns_dir_base_static(slot_size, slots, flight_records)
                + SLOT_STATE_SIZE * u64::from(slots),
        )
    }

    /// Bytes of device space a multi-tenant store needs: the legacy layout
    /// plus a namespace directory of `max_namespaces` 128-byte entries.
    pub fn required_capacity_service(
        slot_size: ByteSize,
        slots: u32,
        flight_records: u32,
        max_namespaces: u32,
    ) -> ByteSize {
        Self::required_capacity_with_flight(slot_size, slots, flight_records)
            + ByteSize::from_bytes(NS_ENTRY_SIZE * u64::from(max_namespaces))
    }

    /// Device offset where the namespace directory starts for this
    /// geometry — after the flight ring (or after the slots when there is
    /// no ring), so both older regions keep their offsets.
    fn ns_dir_base_static(slot_size: ByteSize, slots: u32, flight_records: u32) -> u64 {
        Self::flight_base_static(slot_size, slots)
            + if flight_records == 0 {
                0
            } else {
                FlightRing::required_capacity(flight_records)
            }
    }

    fn ns_dir_base(&self) -> u64 {
        Self::ns_dir_base_static(self.slot_size, self.num_slots, self.flight_records)
    }

    /// Device offset where the per-slot commit-state region starts for
    /// this geometry — at the very tail, after the namespace directory,
    /// so every older region keeps its offset.
    fn slot_state_base_static(
        slot_size: ByteSize,
        slots: u32,
        flight_records: u32,
        max_namespaces: u32,
    ) -> u64 {
        Self::ns_dir_base_static(slot_size, slots, flight_records)
            + NS_ENTRY_SIZE * u64::from(max_namespaces)
    }

    /// Device offset of `slot`'s durable commit-state word, or `None`
    /// when the store was formatted before the lattice existed.
    pub fn slot_state_offset(&self, slot: u32) -> Option<u64> {
        self.state_words.then(|| {
            Self::slot_state_base_static(
                self.slot_size,
                self.num_slots,
                self.flight_records,
                self.max_namespaces,
            ) + u64::from(slot) * SLOT_STATE_SIZE
        })
    }

    /// Device offset where the flight ring starts for this geometry — right
    /// after the last slot, so slot offsets are identical with and without
    /// a ring.
    fn flight_base_static(slot_size: ByteSize, slots: u32) -> u64 {
        SLOTS_OFFSET + u64::from(slots) * (META_RECORD_SIZE + slot_size.as_u64())
    }

    /// Formats a store on `device` with `slots` slots of `slot_size` bytes
    /// (use `N+1` slots for `N` concurrent checkpoints), without a flight
    /// recorder.
    ///
    /// # Errors
    ///
    /// Returns [`PccheckError::InvalidConfig`] if geometry is invalid or the
    /// device is too small, or a device error if formatting I/O fails.
    pub fn format(
        device: Arc<dyn PersistentDevice>,
        slot_size: ByteSize,
        slots: u32,
    ) -> Result<Self, PccheckError> {
        Self::format_with_flight(device, slot_size, slots, 0)
    }

    /// Formats a store on `device` with `slots` slots of `slot_size` bytes
    /// and, when `flight_records > 0`, a persistent flight-recorder ring of
    /// that many 64-byte records after the slots.
    ///
    /// # Errors
    ///
    /// Returns [`PccheckError::InvalidConfig`] if geometry is invalid or the
    /// device is too small, or a device error if formatting I/O fails.
    pub fn format_with_flight(
        device: Arc<dyn PersistentDevice>,
        slot_size: ByteSize,
        slots: u32,
        flight_records: u32,
    ) -> Result<Self, PccheckError> {
        Self::format_inner(device, slot_size, slots, flight_records, 0)
    }

    /// Formats a *multi-tenant* store: `slots` slots shared by up to
    /// `max_namespaces` per-job namespaces (allocated later via
    /// [`allocate_namespace`](Self::allocate_namespace)). No slot is
    /// usable until a namespace claims it — service-mode stores have no
    /// store-wide free queue.
    ///
    /// # Errors
    ///
    /// Returns [`PccheckError::InvalidConfig`] if geometry is invalid,
    /// `max_namespaces == 0`, or the device is too small; propagates
    /// device errors.
    pub fn format_service(
        device: Arc<dyn PersistentDevice>,
        slot_size: ByteSize,
        slots: u32,
        flight_records: u32,
        max_namespaces: u32,
    ) -> Result<Self, PccheckError> {
        if max_namespaces == 0 {
            return Err(PccheckError::InvalidConfig(
                "service store needs max_namespaces >= 1 (use format for single-tenant)".into(),
            ));
        }
        Self::format_inner(device, slot_size, slots, flight_records, max_namespaces)
    }

    fn format_inner(
        device: Arc<dyn PersistentDevice>,
        slot_size: ByteSize,
        slots: u32,
        flight_records: u32,
        max_namespaces: u32,
    ) -> Result<Self, PccheckError> {
        if slots < 2 {
            return Err(PccheckError::InvalidConfig(
                "store needs at least 2 slots (N>=1 concurrent + 1 committed)".into(),
            ));
        }
        if slot_size.is_zero() {
            return Err(PccheckError::InvalidConfig(
                "slot size must be nonzero".into(),
            ));
        }
        let needed =
            Self::required_capacity_service(slot_size, slots, flight_records, max_namespaces);
        if needed > device.capacity() {
            return Err(PccheckError::InvalidConfig(format!(
                "device capacity {} < required {}",
                device.capacity(),
                needed
            )));
        }
        // Write the store header.
        let mut header = [0u8; HEADER_SIZE as usize];
        header[0..8].copy_from_slice(&STORE_MAGIC.to_le_bytes());
        header[8..12].copy_from_slice(&slots.to_le_bytes());
        header[12..20].copy_from_slice(&slot_size.as_u64().to_le_bytes());
        header[20..24].copy_from_slice(&flight_records.to_le_bytes());
        // Bytes 24..28 are reserved.
        header[28..32].copy_from_slice(&max_namespaces.to_le_bytes());
        // Bytes 32..36: the per-slot commit-state region exists (stores
        // formatted before the lattice carry zeros here — feature off).
        header[32..36].copy_from_slice(&1u32.to_le_bytes());
        device.write_at(0, &header)?;
        // Zero the CHECK_ADDR record (no committed checkpoint).
        device.write_at(CHECK_ADDR_OFFSET, &[0u8; META_RECORD_SIZE as usize])?;
        device.persist(0, SLOTS_OFFSET)?;
        if max_namespaces > 0 {
            // Zero the directory: every entry reads as unallocated.
            let base = Self::ns_dir_base_static(slot_size, slots, flight_records);
            let zeros = vec![0u8; (NS_ENTRY_SIZE * u64::from(max_namespaces)) as usize];
            device.write_at(base, &zeros)?;
            device.persist(base, zeros.len() as u64)?;
        }
        // Every slot starts with a valid durable Free state word.
        let state_base =
            Self::slot_state_base_static(slot_size, slots, flight_records, max_namespaces);
        let free_rec = SlotState::Free.encode();
        let mut state_region = vec![0u8; (SLOT_STATE_SIZE * u64::from(slots)) as usize];
        for s in 0..slots as usize {
            state_region[s * SLOT_STATE_SIZE as usize..(s + 1) * SLOT_STATE_SIZE as usize]
                .copy_from_slice(&free_rec);
        }
        device.write_at(state_base, &state_region)?;
        device.persist(state_base, state_region.len() as u64)?;

        let flight = if flight_records > 0 {
            let base = Self::flight_base_static(slot_size, slots);
            let ring = FlightRing::create(Arc::clone(&device), base, flight_records)
                .map_err(PccheckError::InvalidConfig)?;
            FlightRecorder::new(Arc::new(ring))
        } else {
            FlightRecorder::disabled()
        };
        flight.record_run(FlightEventKind::RunStart, 0);

        let service = max_namespaces > 0;
        Ok(CheckpointStore {
            device,
            slot_size,
            num_slots: slots,
            global_counter: AtomicU64::new(1),
            commit: CommitPointer::new(crate::meta::CHECK_ADDR_NONE, 0),
            // Service mode: no store-wide pool — slots belong to
            // namespaces. The queue stays empty forever.
            free_slots: if service {
                SlotQueue::with_capacity(1)
            } else {
                (0..slots).collect()
            },
            slot_states: (0..slots)
                .map(|_| AtomicU64::new(SlotState::Free.pack()))
                .collect(),
            state_words: true,
            flight,
            flight_records,
            max_namespaces,
            namespaces: RwLock::new(Vec::new()),
            next_free_slot: AtomicU32::new(if service { 0 } else { slots }),
        })
    }

    /// Reopens a store previously formatted on `device` (the recovery
    /// path). Rebuilds the in-memory state: the committed checkpoint stays
    /// leased; all other slots go back to the free queue; the global
    /// counter resumes above the highest counter found.
    ///
    /// # Errors
    ///
    /// Returns [`PccheckError::InvalidConfig`] if no valid store header is
    /// found, or a device error if reads fail.
    pub fn open(device: Arc<dyn PersistentDevice>) -> Result<Self, PccheckError> {
        let mut header = [0u8; HEADER_SIZE as usize];
        device.read_durable_at(0, &mut header)?;
        let magic = u64::from_le_bytes(header[0..8].try_into().expect("slice len"));
        if magic != STORE_MAGIC {
            return Err(PccheckError::InvalidConfig(
                "device holds no PCcheck store (bad magic)".into(),
            ));
        }
        let slots = u32::from_le_bytes(header[8..12].try_into().expect("slice len"));
        let slot_size =
            ByteSize::from_bytes(u64::from_le_bytes(header[12..20].try_into().expect("len")));
        let flight_records = u32::from_le_bytes(header[20..24].try_into().expect("slice len"));
        // Stores formatted before multi-tenancy existed carry zeros here:
        // the feature reads as "off" and nothing else changes.
        let max_namespaces = u32::from_le_bytes(header[28..32].try_into().expect("slice len"));
        // ... and for stores formatted before the commit-state lattice.
        let state_words =
            u32::from_le_bytes(header[32..36].try_into().expect("slice len")) != 0;

        // Reattach the flight ring, resuming sequence numbers past the
        // crash survivors. A torn ring header downgrades to a disabled
        // recorder rather than failing recovery: forensics are
        // best-effort, the checkpoints are not.
        let flight = if flight_records > 0 {
            let base = Self::flight_base_static(slot_size, slots);
            match FlightRing::open(Arc::clone(&device), base) {
                Ok(ring) => FlightRecorder::new(Arc::new(ring)),
                Err(_) => FlightRecorder::disabled(),
            }
        } else {
            FlightRecorder::disabled()
        };

        if max_namespaces > 0 {
            // Service mode: rebuild each namespace independently — its own
            // committed checkpoint, pinned chain, and free range.
            let dir_base = Self::ns_dir_base_static(slot_size, slots, flight_records);
            let mut namespaces: Vec<Arc<Namespace>> = Vec::new();
            let mut max_counter = 0u64;
            let mut next_free_slot = 0u32;
            let mut pinned_all: Vec<u32> = Vec::new();
            let mut desc_buf = [0u8; NS_DESC_SIZE as usize];
            for i in 0..max_namespaces {
                let dir_offset = dir_base + u64::from(i) * NS_ENTRY_SIZE;
                device.read_durable_at(dir_offset, &mut desc_buf)?;
                let Some(desc) = NamespaceDesc::decode(&desc_buf) else {
                    continue; // unallocated (or torn mid-allocate: no data yet)
                };
                if desc.slot_start + desc.slot_count > slots || desc.slot_count == 0 {
                    continue; // corrupt descriptor: treat as unallocated
                }
                let range = desc.slot_start..desc.slot_start + desc.slot_count;
                let committed = Self::find_committed_range(
                    device.as_ref(),
                    slot_size,
                    range.clone(),
                    dir_offset + NS_DESC_SIZE,
                )?;
                let pinned: Vec<u32> = committed
                    .as_ref()
                    .map(|m| {
                        Self::chain_slots_static(
                            device.as_ref(),
                            slots,
                            slot_size,
                            m.slot,
                            m.counter,
                        )
                    })
                    .unwrap_or_default();
                let free: Vec<u32> = range.clone().filter(|s| !pinned.contains(s)).collect();
                let ns_counter = committed.as_ref().map_or(0, |m| m.counter);
                max_counter = max_counter.max(ns_counter);
                next_free_slot = next_free_slot.max(desc.slot_start + desc.slot_count);
                let check_addr = committed
                    .as_ref()
                    .map(|m| PackedCheckAddr::pack(m.counter, m.slot))
                    .unwrap_or(crate::meta::CHECK_ADDR_NONE);
                pinned_all.extend_from_slice(&pinned);
                namespaces.push(Arc::new(Namespace {
                    desc,
                    commit: CommitPointer::new(check_addr, ns_counter),
                    free_slots: free.into_iter().collect(),
                    dir_offset,
                }));
            }
            let slot_states =
                Self::initial_slot_states(device.as_ref(), slots, slot_size, &pinned_all)?;
            return Ok(CheckpointStore {
                device,
                slot_size,
                num_slots: slots,
                global_counter: AtomicU64::new(max_counter + 1),
                commit: CommitPointer::new(crate::meta::CHECK_ADDR_NONE, 0),
                free_slots: SlotQueue::with_capacity(1),
                slot_states,
                state_words,
                flight,
                flight_records,
                max_namespaces,
                namespaces: RwLock::new(namespaces),
                next_free_slot: AtomicU32::new(next_free_slot),
            });
        }

        // Find the committed checkpoint: trust CHECK_ADDR, fall back to a
        // slot scan if the record is torn or its payload fails validation.
        let committed =
            Self::find_committed_range(device.as_ref(), slot_size, 0..slots, CHECK_ADDR_OFFSET)?;

        // The committed checkpoint's slot stays leased — and if it is a
        // delta, so does every slot on its chain down to the full root:
        // recycling any of them would make the committed state
        // unrecoverable.
        let pinned: Vec<u32> = committed
            .as_ref()
            .map(|m| Self::chain_slots_static(device.as_ref(), slots, slot_size, m.slot, m.counter))
            .unwrap_or_default();
        let mut max_counter = 0;
        let mut free: Vec<u32> = Vec::new();
        for s in 0..slots {
            if !pinned.contains(&s) {
                free.push(s);
            }
        }
        if let Some(m) = &committed {
            max_counter = m.counter;
        }

        let check_addr = committed
            .as_ref()
            .map(|m| PackedCheckAddr::pack(m.counter, m.slot))
            .unwrap_or(crate::meta::CHECK_ADDR_NONE);

        let slot_states = Self::initial_slot_states(device.as_ref(), slots, slot_size, &pinned)?;
        Ok(CheckpointStore {
            device,
            slot_size,
            num_slots: slots,
            global_counter: AtomicU64::new(max_counter + 1),
            commit: CommitPointer::new(check_addr, max_counter),
            free_slots: free.into_iter().collect(),
            slot_states,
            state_words,
            flight,
            flight_records,
            max_namespaces: 0,
            namespaces: RwLock::new(Vec::new()),
            next_free_slot: AtomicU32::new(slots),
        })
    }

    /// Finds the committed checkpoint within a slot range: trusts the
    /// CHECK_ADDR record at `check_rec_offset`, falls back to scanning the
    /// range's slots if the record is torn or fails validation.
    fn find_committed_range(
        device: &dyn PersistentDevice,
        slot_size: ByteSize,
        range: std::ops::Range<u32>,
        check_rec_offset: u64,
    ) -> Result<Option<CheckMeta>, PccheckError> {
        let mut rec = [0u8; META_RECORD_SIZE as usize];
        device.read_durable_at(check_rec_offset, &mut rec)?;
        let mut best: Option<CheckMeta> = None;
        if let Some(meta) = CheckMeta::decode(&rec) {
            if Self::validate_slot(device, &meta, range.clone(), slot_size)? {
                best = Some(meta);
            }
        }
        // Scan the slots too: the durable CHECK_ADDR may lag a fully
        // persisted checkpoint whose commit raced the crash. A valid slot
        // record implies its payload persisted first (the engine orders
        // payload persist before the meta barrier), and a *recycled* slot
        // mid-overwrite always carries a counter below the durable
        // CHECK_ADDR (commit persists CHECK_ADDR before freeing the
        // displaced slot), so taking the max counter is safe.
        for s in range.clone() {
            let off = Self::slot_meta_offset_static(s, slot_size);
            device.read_durable_at(off, &mut rec)?;
            if let Some(meta) = CheckMeta::decode(&rec) {
                if meta.slot == s
                    && Self::validate_slot(device, &meta, range.clone(), slot_size)?
                    && best.map_or(true, |b| meta.counter > b.counter)
                {
                    best = Some(meta);
                }
            }
        }
        Ok(best)
    }

    fn validate_slot(
        device: &dyn PersistentDevice,
        meta: &CheckMeta,
        range: std::ops::Range<u32>,
        slot_size: ByteSize,
    ) -> Result<bool, PccheckError> {
        if !range.contains(&meta.slot) || ByteSize::from_bytes(meta.payload_len) > slot_size {
            return Ok(false);
        }
        // Check the slot's own meta record matches the commit record.
        let mut rec = [0u8; META_RECORD_SIZE as usize];
        device.read_durable_at(
            Self::slot_meta_offset_static(meta.slot, slot_size),
            &mut rec,
        )?;
        Ok(CheckMeta::decode(&rec).as_ref() == Some(meta))
    }

    fn slot_meta_offset_static(slot: u32, slot_size: ByteSize) -> u64 {
        SLOTS_OFFSET + u64::from(slot) * (META_RECORD_SIZE + slot_size.as_u64())
    }

    /// The checkpoints a checkpoint depends on, as `(slot, counter)`: its
    /// own, plus — when it is linked — every checkpoint on the base chain
    /// down to the unlinked root. Walks the durable slot records, stopping
    /// (leniently) at the first record that fails to decode or disagrees
    /// with the expected (slot, counter), and guards against pointer
    /// cycles; the head is always included.
    fn chain_static(
        device: &dyn PersistentDevice,
        slots: u32,
        slot_size: ByteSize,
        head_slot: u32,
        head_counter: u64,
    ) -> Vec<(u32, u64)> {
        let mut chain = vec![(head_slot, head_counter)];
        let mut rec = [0u8; META_RECORD_SIZE as usize];
        loop {
            let (s, c) = *chain.last().expect("chain starts with its head");
            if device
                .read_durable_at(Self::slot_meta_offset_static(s, slot_size), &mut rec)
                .is_err()
            {
                break;
            }
            let Some(meta) = CheckMeta::decode(&rec) else {
                break;
            };
            if meta.slot != s || meta.counter != c {
                break;
            }
            let Some(link) = meta.delta else {
                break;
            };
            if chain.iter().any(|&(slot, _)| slot == link.base_slot)
                || chain.len() as u32 >= slots
            {
                break;
            }
            chain.push((link.base_slot, link.base_counter));
        }
        chain
    }

    /// The slots of [`chain_static`](Self::chain_static): what a committed
    /// checkpoint keeps out of the free queue.
    fn chain_slots_static(
        device: &dyn PersistentDevice,
        slots: u32,
        slot_size: ByteSize,
        head_slot: u32,
        head_counter: u64,
    ) -> Vec<u32> {
        Self::chain_static(device, slots, slot_size, head_slot, head_counter)
            .into_iter()
            .map(|(slot, _)| slot)
            .collect()
    }

    /// Rebuilds the in-memory slot-state words on reopen: every slot that
    /// goes back to a free queue starts Free (regardless of its durable
    /// word, which is a high-water record of past claims); every pinned
    /// chain slot starts Committed at its own durable meta counter.
    fn initial_slot_states(
        device: &dyn PersistentDevice,
        slots: u32,
        slot_size: ByteSize,
        pinned: &[u32],
    ) -> Result<Vec<AtomicU64>, PccheckError> {
        let mut states = Vec::with_capacity(slots as usize);
        let mut rec = [0u8; META_RECORD_SIZE as usize];
        for s in 0..slots {
            let state = if pinned.contains(&s) {
                device.read_durable_at(Self::slot_meta_offset_static(s, slot_size), &mut rec)?;
                CheckMeta::decode(&rec)
                    .filter(|m| m.slot == s)
                    .map_or(SlotState::Free, |m| SlotState::Committed {
                        counter: m.counter,
                    })
            } else {
                SlotState::Free
            };
            states.push(AtomicU64::new(state.pack()));
        }
        Ok(states)
    }

    /// The `(slot, counter)` chain `head` pins; empty when there is no
    /// head.
    fn chain(&self, head: PackedCheckAddr) -> Vec<(u32, u64)> {
        if head.is_none() {
            return Vec::new();
        }
        Self::chain_static(
            self.device.as_ref(),
            self.num_slots,
            self.slot_size,
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

    /// Per-slot payload capacity.
    pub fn slot_size(&self) -> ByteSize {
        self.slot_size
    }

    /// Number of slots (`N+1`).
    pub fn num_slots(&self) -> u32 {
        self.num_slots
    }

    /// Device offset of `slot`'s meta record.
    pub fn slot_meta_offset(&self, slot: u32) -> u64 {
        Self::slot_meta_offset_static(slot, self.slot_size)
    }

    /// Device offset of `slot`'s payload.
    pub fn slot_payload_offset(&self, slot: u32) -> u64 {
        self.slot_meta_offset(slot) + META_RECORD_SIZE
    }

    /// The in-memory view of the latest committed checkpoint. On a
    /// multi-tenant store this is the newest commit across *all*
    /// namespaces (diagnostics; per-job code wants
    /// [`latest_committed_job`](Self::latest_committed_job)).
    pub fn latest_committed(&self) -> Option<CheckMeta> {
        if self.max_namespaces > 0 {
            return self
                .namespaces
                .read()
                .iter()
                .filter_map(|ns| self.resolve_check_addr(&ns.commit.addr))
                .max_by_key(|m| m.counter);
        }
        self.resolve_check_addr(&self.commit.addr)
    }

    /// The latest committed checkpoint in `job`'s namespace.
    ///
    /// # Errors
    ///
    /// Returns [`PccheckError::InvalidConfig`] when the store is not
    /// multi-tenant or `job` has no namespace.
    pub fn latest_committed_job(&self, job: JobId) -> Result<Option<CheckMeta>, PccheckError> {
        let ns = self.namespace_for(job)?;
        Ok(self.resolve_check_addr(&ns.commit.addr))
    }

    /// The latest committed checkpoint visible to `lease` — the lease's
    /// namespace on a multi-tenant store, the global pointer otherwise.
    /// This is what delta planning must use as its base: another job's
    /// newer commit is not a valid delta base for this job.
    pub fn latest_committed_for(&self, lease: &SlotLease) -> Option<CheckMeta> {
        match lease.ns.as_deref() {
            Some(ns) => self.resolve_check_addr(&ns.commit.addr),
            None => self.resolve_check_addr(&self.commit.addr),
        }
    }

    /// How many slots `lease`'s checkpoints rotate through: its
    /// namespace's `slot_count` on a multi-tenant store, every slot
    /// otherwise. A committed chain may pin at most this minus one.
    pub fn slot_budget_for(&self, lease: &SlotLease) -> u32 {
        lease
            .ns
            .as_deref()
            .map_or(self.num_slots, |ns| ns.desc.slot_count)
    }

    /// The current in-memory commit-state word of `slot` (diagnostics;
    /// the durable word may lag — it records high-water claims, not the
    /// recycle step).
    pub fn slot_commit_state(&self, slot: u32) -> SlotState {
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
        if let Some(off) = self.slot_state_offset(slot) {
            let _ = self
                .device
                .write_at(off, &claimed.encode())
                .and_then(|()| self.device.persist(off, SLOT_STATE_SIZE));
        }
    }

    /// Publishes the durable Committed word for a commit winner. Failure
    /// is surfaced (the commit's durability story is already complete —
    /// the meta record persisted — but a dying device should not report
    /// a clean commit).
    fn publish_slot_state(&self, slot: u32, state: SlotState) -> Result<(), PccheckError> {
        self.slot_states[slot as usize].store(state.pack(), Ordering::Release);
        if let Some(off) = self.slot_state_offset(slot) {
            self.device.write_at(off, &state.encode())?;
            self.device.persist(off, SLOT_STATE_SIZE)?;
        }
        Ok(())
    }

    /// The lattice recycle step: store Free into the in-memory word, then
    /// enqueue. Order matters — the next claimant's CAS must find Free.
    /// The durable word is deliberately left alone (history; counters
    /// rank claims across a slot's lives).
    fn release_slot(&self, free_slots: &SlotQueue, slot: u32) {
        self.slot_states[slot as usize].store(SlotState::Free.pack(), Ordering::Release);
        // Spin through transient fulls: a concurrent dequeuer may be
        // mid-recycle on the target cell.
        free_slots.enqueue_blocking(slot);
    }

    fn resolve_check_addr(&self, check_addr: &AtomicU64) -> Option<CheckMeta> {
        let packed = PackedCheckAddr(check_addr.load(Ordering::Acquire));
        if packed.is_none() {
            return None;
        }
        // The slot's meta record is authoritative; it was persisted before
        // CHECK_ADDR swung to it.
        let mut rec = [0u8; META_RECORD_SIZE as usize];
        self.device
            .read_durable_at(self.slot_meta_offset(packed.slot()), &mut rec)
            .ok()?;
        CheckMeta::decode(&rec).filter(|m| m.counter == packed.counter())
    }

    /// Begins a checkpoint: samples `CHECK_ADDR`, takes a counter, and
    /// dequeues a free slot (Listing 1, lines 3–11). Spins while all slots
    /// are occupied by in-flight checkpoints.
    ///
    /// # Panics
    ///
    /// Panics on a multi-tenant (service-mode) store: every checkpoint
    /// there belongs to a job — use
    /// [`begin_checkpoint_job`](Self::begin_checkpoint_job).
    pub fn begin_checkpoint(&self) -> SlotLease {
        assert!(
            self.max_namespaces == 0,
            "begin_checkpoint on a multi-tenant store: use begin_checkpoint_job(job)"
        );
        // Line 3: sample the last committed checkpoint *before* taking the
        // counter — this makes our eventual CAS legal (§4.1).
        let last_check = PackedCheckAddr(self.commit.addr.load(Ordering::Acquire));
        // Line 5: order ourselves among all checkpoints.
        let counter = self.global_counter.fetch_add(1, Ordering::AcqRel);
        // Lines 8-11: find space, then take the lattice claim step.
        let slot = self.free_slots.dequeue_blocking();
        self.claim_slot(slot, counter);
        self.flight
            .record(FlightEventKind::Begin, counter, slot, 0, 0, last_check.0);
        SlotLease {
            counter,
            slot,
            last_check,
            ns: None,
        }
    }

    /// Begins a checkpoint in `job`'s namespace. The commit protocol is
    /// Listing 1 verbatim, except that `CHECK_ADDR` and the free-slot
    /// queue are the *namespace's* — jobs contend only on the global
    /// counter (which stays globally unique and monotone, so cross-job
    /// interleavings remain totally ordered in the flight ring).
    ///
    /// # Errors
    ///
    /// Returns [`PccheckError::InvalidConfig`] when the store is not
    /// multi-tenant or `job` has no namespace.
    pub fn begin_checkpoint_job(&self, job: JobId) -> Result<SlotLease, PccheckError> {
        let ns = self.namespace_for(job)?;
        let last_check = PackedCheckAddr(ns.commit.addr.load(Ordering::Acquire));
        let counter = self.global_counter.fetch_add(1, Ordering::AcqRel);
        let slot = ns.free_slots.dequeue_blocking();
        self.claim_slot(slot, counter);
        self.flight
            .record(FlightEventKind::Begin, counter, slot, 0, 0, last_check.0);
        Ok(SlotLease {
            counter,
            slot,
            last_check,
            ns: Some(ns),
        })
    }

    /// Looks up `job`'s namespace handle.
    fn namespace_for(&self, job: JobId) -> Result<Arc<Namespace>, PccheckError> {
        if self.max_namespaces == 0 {
            return Err(PccheckError::InvalidConfig(
                "store is not multi-tenant (formatted without namespaces)".into(),
            ));
        }
        self.namespaces
            .read()
            .iter()
            .find(|ns| ns.desc.job == job)
            .cloned()
            .ok_or_else(|| {
                PccheckError::InvalidConfig(format!("job {job} has no namespace in this store"))
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
    /// Returns [`PccheckError::InvalidConfig`] when the store is not
    /// multi-tenant, `slot_count < 2` (N+1 needs at least 1+1),
    /// `job` already owns a namespace, the directory is full, or the slot
    /// budget is exhausted; propagates device errors.
    pub fn allocate_namespace(
        &self,
        job: JobId,
        slot_count: u32,
    ) -> Result<NamespaceDesc, PccheckError> {
        if self.max_namespaces == 0 {
            return Err(PccheckError::InvalidConfig(
                "store is not multi-tenant (formatted without namespaces)".into(),
            ));
        }
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
        if namespaces.len() as u32 >= self.max_namespaces {
            return Err(PccheckError::InvalidConfig(format!(
                "namespace directory full ({} of {})",
                namespaces.len(),
                self.max_namespaces
            )));
        }
        let slot_start = self.next_free_slot.load(Ordering::Acquire);
        if slot_start + slot_count > self.num_slots {
            return Err(PccheckError::InvalidConfig(format!(
                "slot budget exhausted: {slot_count} requested, {} of {} remain",
                self.num_slots - slot_start,
                self.num_slots
            )));
        }
        let desc = NamespaceDesc {
            job,
            slot_start,
            slot_count,
        };
        // Persist descriptor + a zeroed per-namespace CHECK_ADDR record
        // before exposing the namespace: a crash mid-allocate leaves either
        // no entry (decode fails on the torn descriptor) or a complete,
        // empty namespace — never a half-initialized one.
        let dir_offset = self.ns_dir_base() + namespaces.len() as u64 * NS_ENTRY_SIZE;
        let mut entry = [0u8; NS_ENTRY_SIZE as usize];
        entry[..NS_DESC_SIZE as usize].copy_from_slice(&desc.encode());
        self.device.write_at(dir_offset, &entry)?;
        self.device.persist(dir_offset, NS_ENTRY_SIZE)?;
        self.next_free_slot
            .store(slot_start + slot_count, Ordering::Release);
        namespaces.push(Arc::new(Namespace {
            desc,
            commit: CommitPointer::new(crate::meta::CHECK_ADDR_NONE, 0),
            free_slots: (slot_start..slot_start + slot_count).collect(),
            dir_offset,
        }));
        Ok(desc)
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
        if chunk_offset + data.len() as u64 > self.slot_size.as_u64() {
            return Err(PccheckError::InvalidConfig(format!(
                "payload write at {chunk_offset}+{} exceeds slot size {}",
                data.len(),
                self.slot_size
            )));
        }
        let base = self.slot_payload_offset(lease.slot);
        self.device.write_at(base + chunk_offset, data)?;
        Ok(())
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
        let base = self.slot_payload_offset(lease.slot);
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
    /// (a framed payload with `DedupBase` records; see the pipeline's
    /// `copy_framed`), all of them on the chain `delta` starts. Identical
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

        // Namespace routing: a job lease CASes its namespace's CHECK_ADDR
        // and recycles into its namespace's free queue; the protocol itself
        // is unchanged.
        let ns = lease.ns.as_deref();
        let check_addr = ns.map_or(&self.commit.addr, |n| &n.commit.addr);
        let free_slots = ns.map_or(&self.free_slots, |n| &n.free_slots);

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
            self.release_slot(free_slots, lease.slot);
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
                        self.release_slot(free_slots, slot);
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

    /// Write-back of the shared `CHECK_ADDR` location (the BARRIER on
    /// CHECK_ADDR), lock-free: persists the *current* value of the
    /// pointer, skipping the device round-trip entirely when the
    /// `fetch_max` watermark shows an equal-or-newer record is already
    /// durable. With a namespace, the pointer, watermark, and record
    /// offset are all the namespace's own.
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
    fn publish_check_addr(&self, ns: Option<&Namespace>) -> Result<(), PccheckError> {
        let (commit, rec_offset) = match ns {
            Some(n) => (&n.commit, n.check_rec_offset()),
            None => (&self.commit, CHECK_ADDR_OFFSET),
        };
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
            self.device.write_at(rec_offset, &rec)?;
            self.device.persist(rec_offset, META_RECORD_SIZE)?;
            let prev = commit.persisted.fetch_max(current.counter(), Ordering::AcqRel);
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

    /// Number of slots currently in the free queue (diagnostics). On a
    /// multi-tenant store, the sum across namespaces (unallocated slots
    /// are not counted — they belong to no queue yet).
    pub fn free_slot_count(&self) -> usize {
        if self.max_namespaces > 0 {
            return self
                .namespaces
                .read()
                .iter()
                .map(|ns| ns.free_slots.len())
                .sum();
        }
        self.free_slots.len()
    }

    /// Number of free slots in `job`'s namespace.
    ///
    /// # Errors
    ///
    /// Returns [`PccheckError::InvalidConfig`] when the store is not
    /// multi-tenant or `job` has no namespace.
    pub fn free_slot_count_job(&self, job: JobId) -> Result<usize, PccheckError> {
        Ok(self.namespace_for(job)?.free_slots.len())
    }

    /// Whether this store was formatted for multi-tenant (service-mode)
    /// operation.
    pub fn is_multi_tenant(&self) -> bool {
        self.max_namespaces > 0
    }

    /// Namespace directory capacity (0 on a single-tenant store).
    pub fn max_namespaces(&self) -> u32 {
        self.max_namespaces
    }

    /// Snapshot of the allocated namespace descriptors, in allocation
    /// order.
    pub fn namespaces(&self) -> Vec<NamespaceDesc> {
        self.namespaces.read().iter().map(|ns| ns.desc).collect()
    }

    /// The job whose namespace owns `slot`, or `None` for unallocated
    /// slots / single-tenant stores.
    pub fn namespace_of_slot(&self, slot: u32) -> Option<JobId> {
        self.namespaces
            .read()
            .iter()
            .find(|ns| ns.slot_range().contains(&slot))
            .map(|ns| ns.desc.job)
    }

    /// Slots not yet carved into any namespace (the admission budget
    /// remaining). Equals `num_slots` minus allocated ranges; 0 on a
    /// single-tenant store.
    pub fn unallocated_slots(&self) -> u32 {
        if self.max_namespaces == 0 {
            return 0;
        }
        self.num_slots - self.next_free_slot.load(Ordering::Acquire)
    }

    /// Every slot currently holding a *complete* checkpoint (valid durable
    /// meta record), sorted by counter ascending. Beyond the latest
    /// committed checkpoint this may include superseded-but-intact older
    /// ones — PCcheck's N+1 slots double as a short checkpoint history,
    /// which the monitoring tooling (§2.1 of the paper) exploits.
    ///
    /// # Errors
    ///
    /// Propagates device read errors.
    pub fn history(&self) -> Result<Vec<CheckMeta>, PccheckError> {
        let mut found = Vec::new();
        let mut rec = [0u8; META_RECORD_SIZE as usize];
        for slot in 0..self.num_slots {
            self.device
                .read_durable_at(self.slot_meta_offset(slot), &mut rec)?;
            if let Some(meta) = CheckMeta::decode(&rec) {
                if meta.slot == slot {
                    found.push(meta);
                }
            }
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
        let mut rec = [0u8; META_RECORD_SIZE as usize];
        self.device
            .read_durable_at(self.slot_meta_offset(meta.slot), &mut rec)?;
        if CheckMeta::decode(&rec).as_ref() != Some(meta) {
            return Err(PccheckError::CorruptCheckpoint {
                counter: meta.counter,
            });
        }
        let mut payload = vec![0u8; meta.payload_len as usize];
        self.device
            .read_durable_at(self.slot_payload_offset(meta.slot), &mut payload)?;
        // Re-validate after the read: the payload is only trustworthy if
        // the meta record is unchanged (recycling writes payload first).
        self.device
            .read_durable_at(self.slot_meta_offset(meta.slot), &mut rec)?;
        if CheckMeta::decode(&rec).as_ref() != Some(meta) {
            return Err(PccheckError::CorruptCheckpoint {
                counter: meta.counter,
            });
        }
        Ok(payload)
    }
}

/// A read-only, durable-bytes-only view of a store's on-device state,
/// loadable **while the device is still crashed** (it never touches the
/// volatile overlay and never mutates anything). This is what the
/// post-crash forensic auditor replays the flight ring against.
#[derive(Debug, Clone)]
pub struct RawStoreView {
    /// Number of slots in the store.
    pub slots: u32,
    /// Per-slot payload capacity.
    pub slot_size: ByteSize,
    /// Flight-ring capacity in records (0 = no ring).
    pub flight_records: u32,
    /// Namespace directory capacity (0 = single-tenant store).
    pub max_namespaces: u32,
    /// The durable `CHECK_ADDR` record, if it decodes.
    pub check_addr: Option<CheckMeta>,
    /// Each slot's durable meta record, if it decodes and names its own
    /// slot (`slot_meta[s]` is `None` for empty/torn/mis-slotted records).
    pub slot_meta: Vec<Option<CheckMeta>>,
    /// Whether the store carries the durable per-slot state region
    /// (header flag; `false` on stores formatted before the lattice).
    pub state_words: bool,
    /// Each slot's durable commit-state word, if the region exists and
    /// the record decodes (`None` = torn/absent → the decision procedure
    /// falls back to the meta CRC alone).
    pub slot_state: Vec<Option<SlotState>>,
    /// Allocated namespaces, in directory order (empty on single-tenant
    /// stores).
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
    /// A valid meta record with no live claim on the word (Free, torn, or
    /// pre-lattice store): an intact checkpoint from a past slot life.
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
    /// The namespace's durable check record, if it decodes and names a
    /// slot inside the namespace's own range.
    pub check_addr: Option<CheckMeta>,
}

impl RawStoreView {
    /// Loads the view from durable bytes.
    ///
    /// # Errors
    ///
    /// Returns [`PccheckError::InvalidConfig`] if no valid store header is
    /// found; propagates device read errors.
    pub fn load(device: &dyn PersistentDevice) -> Result<RawStoreView, PccheckError> {
        let mut header = [0u8; HEADER_SIZE as usize];
        device.read_durable_at(0, &mut header)?;
        let magic = u64::from_le_bytes(header[0..8].try_into().expect("slice len"));
        if magic != STORE_MAGIC {
            return Err(PccheckError::InvalidConfig(
                "device holds no PCcheck store (bad magic)".into(),
            ));
        }
        let slots = u32::from_le_bytes(header[8..12].try_into().expect("slice len"));
        let slot_size =
            ByteSize::from_bytes(u64::from_le_bytes(header[12..20].try_into().expect("len")));
        let flight_records = u32::from_le_bytes(header[20..24].try_into().expect("slice len"));
        let max_namespaces = u32::from_le_bytes(header[28..32].try_into().expect("slice len"));
        let state_words = u32::from_le_bytes(header[32..36].try_into().expect("slice len")) != 0;

        let mut rec = [0u8; META_RECORD_SIZE as usize];
        device.read_durable_at(CHECK_ADDR_OFFSET, &mut rec)?;
        let check_addr = CheckMeta::decode(&rec).filter(|m| m.slot < slots);

        let mut slot_meta = Vec::with_capacity(slots as usize);
        for s in 0..slots {
            device.read_durable_at(
                CheckpointStore::slot_meta_offset_static(s, slot_size),
                &mut rec,
            )?;
            slot_meta.push(
                CheckMeta::decode(&rec)
                    .filter(|m| m.slot == s && ByteSize::from_bytes(m.payload_len) <= slot_size),
            );
        }

        let mut slot_state = vec![None; slots as usize];
        if state_words {
            let state_base = CheckpointStore::slot_state_base_static(
                slot_size,
                slots,
                flight_records,
                max_namespaces,
            );
            let mut state_rec = [0u8; SLOT_STATE_SIZE as usize];
            for (s, cell) in slot_state.iter_mut().enumerate() {
                device
                    .read_durable_at(state_base + s as u64 * SLOT_STATE_SIZE, &mut state_rec)?;
                *cell = SlotState::decode(&state_rec);
            }
        }

        let mut namespaces = Vec::new();
        if max_namespaces > 0 {
            let dir_base = CheckpointStore::ns_dir_base_static(slot_size, slots, flight_records);
            let mut desc_buf = [0u8; NS_DESC_SIZE as usize];
            for i in 0..max_namespaces {
                let entry_off = dir_base + u64::from(i) * NS_ENTRY_SIZE;
                device.read_durable_at(entry_off, &mut desc_buf)?;
                let Some(desc) = NamespaceDesc::decode(&desc_buf) else {
                    continue;
                };
                if desc.slot_start + desc.slot_count > slots || desc.slot_count == 0 {
                    continue;
                }
                device.read_durable_at(entry_off + NS_DESC_SIZE, &mut rec)?;
                let range = desc.slot_start..desc.slot_start + desc.slot_count;
                let check_addr = CheckMeta::decode(&rec).filter(|m| range.contains(&m.slot));
                namespaces.push(RawNamespace { desc, check_addr });
            }
        }

        Ok(RawStoreView {
            slots,
            slot_size,
            flight_records,
            max_namespaces,
            check_addr,
            slot_meta,
            state_words,
            slot_state,
            namespaces,
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
        (0..self.slots).map(|s| self.slot_outcome(s)).collect()
    }

    /// Device offset of `slot`'s payload.
    pub fn slot_payload_offset(&self, slot: u32) -> u64 {
        CheckpointStore::slot_meta_offset_static(slot, self.slot_size) + META_RECORD_SIZE
    }

    /// Device offset of the flight ring header (meaningful only when
    /// [`flight_records`](Self::flight_records) > 0).
    pub fn flight_base(&self) -> u64 {
        CheckpointStore::flight_base_static(self.slot_size, self.slots)
    }

    /// The checkpoint recovery would restore, replicating
    /// `CheckpointStore::open`'s scan over durable bytes: the max-counter
    /// checkpoint among a slot-consistent `CHECK_ADDR` and the valid slot
    /// records.
    pub fn expected_recovery(&self) -> Option<CheckMeta> {
        if self.max_namespaces > 0 {
            // Service mode: recovery is per-namespace; the global answer is
            // the newest across them (diagnostics only).
            return self
                .namespaces
                .iter()
                .filter_map(|ns| self.expected_recovery_for(ns.desc.job))
                .max_by_key(|m| m.counter);
        }
        Self::best_of(self.check_addr.as_ref(), &self.slot_meta, 0..self.slots)
    }

    /// The checkpoint recovery would restore for `job`'s namespace — the
    /// same max-counter scan as [`expected_recovery`](Self::expected_recovery)
    /// but confined to the namespace's slot range and its own check record.
    /// `None` when the job has no namespace or nothing committed.
    pub fn expected_recovery_for(&self, job: u64) -> Option<CheckMeta> {
        let ns = self.namespaces.iter().find(|ns| ns.desc.job == job)?;
        let range = ns.desc.slot_start..ns.desc.slot_start + ns.desc.slot_count;
        Self::best_of(ns.check_addr.as_ref(), &self.slot_meta, range)
    }

    /// The job whose namespace owns `slot`, or `None` for unallocated
    /// slots / single-tenant stores.
    pub fn namespace_of_slot(&self, slot: u32) -> Option<u64> {
        self.namespaces
            .iter()
            .find(|ns| {
                (ns.desc.slot_start..ns.desc.slot_start + ns.desc.slot_count).contains(&slot)
            })
            .map(|ns| ns.desc.job)
    }

    fn best_of(
        check_addr: Option<&CheckMeta>,
        slot_meta: &[Option<CheckMeta>],
        range: std::ops::Range<u32>,
    ) -> Option<CheckMeta> {
        let mut best: Option<CheckMeta> = None;
        if let Some(ca) = check_addr {
            if range.contains(&ca.slot) && slot_meta.get(ca.slot as usize) == Some(&Some(*ca)) {
                best = Some(*ca);
            }
        }
        for s in range {
            if let Some(meta) = slot_meta.get(s as usize).copied().flatten() {
                if best.map_or(true, |b| meta.counter > b.counter) {
                    best = Some(meta);
                }
            }
        }
        best
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
        device.read_durable_at(self.slot_payload_offset(slot), &mut payload)?;
        Ok(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pccheck_device::{DeviceConfig, SsdDevice};
    use pccheck_gpu::StateDigest;

    fn store(slot_size: u64, slots: u32) -> CheckpointStore {
        let cap = CheckpointStore::required_capacity(ByteSize::from_bytes(slot_size), slots);
        let dev: Arc<dyn PersistentDevice> =
            Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        CheckpointStore::format(dev, ByteSize::from_bytes(slot_size), slots).unwrap()
    }

    fn full_checkpoint(st: &CheckpointStore, iter: u64, payload: &[u8]) -> CommitOutcome {
        let lease = st.begin_checkpoint();
        st.write_payload(&lease, 0, payload).unwrap();
        st.persist_payload(&lease, 0, payload.len() as u64).unwrap();
        let digest = StateDigest::of_payload(payload, iter).0;
        st.commit(lease, iter, payload.len() as u64, digest)
            .unwrap()
    }

    #[test]
    fn format_then_no_committed_checkpoint() {
        let st = store(256, 3);
        assert_eq!(st.latest_committed(), None);
        assert_eq!(st.free_slot_count(), 3);
        assert_eq!(st.num_slots(), 3);
        assert_eq!(st.slot_size().as_u64(), 256);
    }

    #[test]
    fn commit_installs_latest() {
        let st = store(256, 3);
        let out = full_checkpoint(&st, 10, b"payload-at-iter-10");
        assert_eq!(out, CommitOutcome::Committed);
        let meta = st.latest_committed().unwrap();
        assert_eq!(meta.iteration, 10);
        assert_eq!(meta.payload_len, 18);
        // Committed slot is held out of the queue.
        assert_eq!(st.free_slot_count(), 2);
    }

    #[test]
    fn successive_commits_recycle_slots() {
        let st = store(64, 2); // N=1
        for i in 1..=20u64 {
            let out = full_checkpoint(&st, i, format!("it{i}").as_bytes());
            assert_eq!(out, CommitOutcome::Committed);
            assert_eq!(st.latest_committed().unwrap().iteration, i);
            assert_eq!(st.free_slot_count(), 1);
        }
    }

    #[test]
    fn out_of_order_commit_is_superseded() {
        let st = store(64, 3);
        let lease_old = st.begin_checkpoint(); // counter 1
        let lease_new = st.begin_checkpoint(); // counter 2
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
        assert_eq!(st.latest_committed().unwrap().iteration, 2);
        // Both non-committed slots are free again.
        assert_eq!(st.free_slot_count(), 2);
    }

    #[test]
    fn oversized_payload_rejected() {
        let st = store(8, 2);
        let lease = st.begin_checkpoint();
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
            let st =
                CheckpointStore::format(Arc::clone(&dev), ByteSize::from_bytes(64), 3).unwrap();
            full_checkpoint(&st, 7, &payload);
        }
        dev.crash_now();
        dev.recover();
        let st = CheckpointStore::open(Arc::clone(&dev)).unwrap();
        let meta = st.latest_committed().unwrap();
        assert_eq!(meta.iteration, 7);
        assert_eq!(meta.payload_len, payload.len() as u64);
        // Counter resumes above the recovered one.
        let lease = st.begin_checkpoint();
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
        assert!(CheckpointStore::format(Arc::clone(&dev), ByteSize::from_bytes(64), 1).is_err());
        assert!(CheckpointStore::format(Arc::clone(&dev), ByteSize::ZERO, 2).is_err());
        assert!(
            CheckpointStore::format(dev, ByteSize::from_gb(1.0), 2).is_err(),
            "device too small"
        );
    }

    #[test]
    fn crash_before_commit_preserves_previous() {
        let cap = CheckpointStore::required_capacity(ByteSize::from_bytes(64), 2);
        let dev_concrete = Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let dev: Arc<dyn PersistentDevice> = dev_concrete.clone();
        let st = CheckpointStore::format(Arc::clone(&dev), ByteSize::from_bytes(64), 2).unwrap();
        full_checkpoint(&st, 1, b"first");
        // Second checkpoint: payload written + persisted, meta written but
        // CRASH before the meta record persists / CAS runs.
        let lease = st.begin_checkpoint();
        st.write_payload(&lease, 0, b"second").unwrap();
        st.persist_payload(&lease, 0, 6).unwrap();
        dev.crash_now();
        dev.recover();
        let st2 = CheckpointStore::open(dev).unwrap();
        let meta = st2.latest_committed().unwrap();
        assert_eq!(meta.iteration, 1, "first checkpoint survives the crash");
    }

    #[test]
    fn fallback_scan_recovers_newer_fully_persisted_slot() {
        // Commit #1 normally. For #2, persist payload + slot meta, then
        // crash before CHECK_ADDR persists. The fallback scan must find #2.
        let cap = CheckpointStore::required_capacity(ByteSize::from_bytes(64), 3);
        let dev: Arc<dyn PersistentDevice> =
            Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let st = CheckpointStore::format(Arc::clone(&dev), ByteSize::from_bytes(64), 3).unwrap();
        full_checkpoint(&st, 1, b"one");
        let lease = st.begin_checkpoint();
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
        assert_eq!(st2.latest_committed().unwrap().iteration, 2);
    }

    #[test]
    fn history_lists_complete_checkpoints_in_counter_order() {
        let st = store(64, 4); // N=3: up to 3 historical + 1 latest
        for i in 1..=3u64 {
            full_checkpoint(&st, i, format!("payload-{i}").as_bytes());
        }
        let hist = st.history().unwrap();
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
        let old = st.history().unwrap()[0];
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
        let cap = CheckpointStore::required_capacity_with_flight(ByteSize::from_bytes(64), 3, 32);
        let dev: Arc<dyn PersistentDevice> =
            Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let st =
            CheckpointStore::format_with_flight(Arc::clone(&dev), ByteSize::from_bytes(64), 3, 32)
                .unwrap();
        assert!(st.flight().is_enabled());
        full_checkpoint(&st, 5, b"five");
        full_checkpoint(&st, 6, b"six");
        dev.crash_now();
        // The ring is readable from durable bytes while crashed.
        let base = CheckpointStore::flight_base_static(ByteSize::from_bytes(64), 3);
        let scan = FlightRing::scan(dev.as_ref(), base).unwrap();
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

    #[test]
    fn format_without_flight_is_backward_compatible() {
        let st = store(256, 3);
        assert!(!st.flight().is_enabled());
        full_checkpoint(&st, 1, b"x");
        // Geometry identical to the pre-flight layout.
        assert_eq!(
            CheckpointStore::required_capacity_with_flight(ByteSize::from_bytes(256), 3, 0),
            CheckpointStore::required_capacity(ByteSize::from_bytes(256), 3)
        );
    }

    #[test]
    fn raw_view_matches_store_state_while_crashed() {
        let cap = CheckpointStore::required_capacity_with_flight(ByteSize::from_bytes(64), 3, 16);
        let dev: Arc<dyn PersistentDevice> =
            Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let st =
            CheckpointStore::format_with_flight(Arc::clone(&dev), ByteSize::from_bytes(64), 3, 16)
                .unwrap();
        full_checkpoint(&st, 3, b"abc");
        let committed = st.latest_committed().unwrap();
        dev.crash_now();
        let view = RawStoreView::load(dev.as_ref()).unwrap();
        assert_eq!(view.slots, 3);
        assert_eq!(view.slot_size.as_u64(), 64);
        assert_eq!(view.flight_records, 16);
        assert_eq!(view.check_addr, Some(committed));
        assert_eq!(view.expected_recovery(), Some(committed));
        assert_eq!(
            view.read_slot_payload(dev.as_ref(), committed.slot)
                .unwrap(),
            b"abc"
        );
        assert_eq!(view.flight_base(), st.slot_meta_offset(2) + 64 + 64);
    }

    fn delta_checkpoint(st: &CheckpointStore, iter: u64, payload: &[u8]) -> CommitOutcome {
        let base = st.latest_committed().expect("delta needs a committed base");
        let depth = base.delta.map_or(0, |l| l.chain_depth);
        let lease = st.begin_checkpoint();
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
        assert_eq!(st.free_slot_count(), 3);
        assert_eq!(delta_checkpoint(&st, 2, b"d1"), CommitOutcome::Committed);
        // Base + delta both pinned.
        assert_eq!(st.free_slot_count(), 2);
        assert_eq!(delta_checkpoint(&st, 3, b"d2"), CommitOutcome::Committed);
        assert_eq!(st.free_slot_count(), 1);
        let head = st.latest_committed().unwrap();
        assert_eq!(head.iteration, 3);
        assert_eq!(head.delta.unwrap().chain_depth, 2);
        // A full checkpoint releases the whole displaced chain.
        full_checkpoint(&st, 4, b"full");
        assert_eq!(st.free_slot_count(), 3);
        assert!(!st.latest_committed().unwrap().is_delta());
    }

    #[test]
    fn delta_commit_rejects_reserved_base_counter() {
        let st = store(64, 3);
        full_checkpoint(&st, 1, b"base");
        let lease = st.begin_checkpoint();
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
            let st =
                CheckpointStore::format(Arc::clone(&dev), ByteSize::from_bytes(64), 4).unwrap();
            full_checkpoint(&st, 1, b"base");
            delta_checkpoint(&st, 2, b"d1");
            delta_checkpoint(&st, 3, b"d2");
        }
        dev.crash_now();
        dev.recover();
        let st = CheckpointStore::open(dev).unwrap();
        let head = st.latest_committed().unwrap();
        assert_eq!(head.iteration, 3);
        assert_eq!(head.delta.unwrap().chain_depth, 2);
        // Only the one slot outside the 3-slot chain is free.
        assert_eq!(st.free_slot_count(), 1);
        let lease = st.begin_checkpoint();
        let chain: Vec<u32> = {
            let mut c = vec![head.slot];
            let mut link = head.delta;
            while let Some(l) = link {
                c.push(l.base_slot);
                let hist = st.history().unwrap();
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
            let st =
                CheckpointStore::format(Arc::clone(&dev), ByteSize::from_bytes(64), 3).unwrap();
            full_checkpoint(&st, 4, b"committed");
        }
        // "PCcheCk1" images laid a digest region out between the flight
        // ring and the namespace directory: every later offset differs.
        dev.write_at(0, &0x5043_6368_6543_6B31u64.to_le_bytes())
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
                        let lease = st.begin_checkpoint();
                        st.write_payload(&lease, 0, &payload).unwrap();
                        st.persist_payload(&lease, 0, 8).unwrap();
                        st.commit(lease, iter, 8, 0).unwrap();
                    }
                });
            }
        });
        // After the dust settles: one committed checkpoint, 3 free slots.
        let meta = st.latest_committed().expect("something committed");
        assert!(meta.counter >= 1);
        assert_eq!(st.free_slot_count(), 3);
        // The committed payload matches what that iteration wrote.
        let mut buf = [0u8; 8];
        st.device()
            .read_durable_at(st.slot_payload_offset(meta.slot), &mut buf)
            .unwrap();
        assert_eq!(u64::from_le_bytes(buf), meta.iteration);
    }

    // ------------------------------------------------- service mode

    fn service_store(slot_size: u64, slots: u32, max_ns: u32) -> CheckpointStore {
        let cap = CheckpointStore::required_capacity_service(
            ByteSize::from_bytes(slot_size),
            slots,
            0,
            max_ns,
        );
        let dev: Arc<dyn PersistentDevice> =
            Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        CheckpointStore::format_service(dev, ByteSize::from_bytes(slot_size), slots, 0, max_ns)
            .unwrap()
    }

    fn job_checkpoint(
        st: &CheckpointStore,
        job: JobId,
        iter: u64,
        payload: &[u8],
    ) -> CommitOutcome {
        let lease = st.begin_checkpoint_job(job).unwrap();
        st.write_payload(&lease, 0, payload).unwrap();
        st.persist_payload(&lease, 0, payload.len() as u64).unwrap();
        let digest = StateDigest::of_payload(payload, iter).0;
        st.commit(lease, iter, payload.len() as u64, digest)
            .unwrap()
    }

    #[test]
    fn service_format_allocate_and_isolate_jobs() {
        let st = service_store(128, 8, 4);
        assert!(st.is_multi_tenant());
        assert_eq!(st.unallocated_slots(), 8);
        let a = st.allocate_namespace(1, 3).unwrap();
        let b = st.allocate_namespace(2, 3).unwrap();
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
        let m1 = st.latest_committed_job(1).unwrap().unwrap();
        let m2 = st.latest_committed_job(2).unwrap().unwrap();
        assert_eq!(m1.iteration, 6);
        assert_eq!(m2.iteration, 9);
        assert!(a.slot_range().contains(&m1.slot));
        assert!(b.slot_range().contains(&m2.slot));
        // Global counters are unique across jobs.
        assert_ne!(m1.counter, m2.counter);
        // Per-job free accounting: one slot pinned per job.
        assert_eq!(st.free_slot_count_job(1).unwrap(), 2);
        assert_eq!(st.free_slot_count_job(2).unwrap(), 2);
    }

    #[test]
    fn service_admission_rejections() {
        let st = service_store(128, 6, 2);
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
        // Unknown job cannot begin.
        assert!(st.begin_checkpoint_job(99).is_err());
    }

    #[test]
    #[should_panic(expected = "multi-tenant")]
    fn service_rejects_legacy_begin() {
        let st = service_store(128, 4, 2);
        st.allocate_namespace(1, 2).unwrap();
        let _ = st.begin_checkpoint();
    }

    #[test]
    fn service_reopen_recovers_every_namespace() {
        let slot_size = 128u64;
        let cap =
            CheckpointStore::required_capacity_service(ByteSize::from_bytes(slot_size), 8, 0, 4);
        let ssd = Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let dev: Arc<dyn PersistentDevice> = ssd.clone();
        let st = CheckpointStore::format_service(
            Arc::clone(&dev),
            ByteSize::from_bytes(slot_size),
            8,
            0,
            4,
        )
        .unwrap();
        st.allocate_namespace(1, 3).unwrap();
        st.allocate_namespace(2, 3).unwrap();
        job_checkpoint(&st, 1, 10, b"one-10");
        job_checkpoint(&st, 2, 20, b"two-20");
        job_checkpoint(&st, 1, 11, b"one-11");
        let c1 = st.latest_committed_job(1).unwrap().unwrap().counter;
        drop(st);

        let st2 = CheckpointStore::open(dev).unwrap();
        assert!(st2.is_multi_tenant());
        assert_eq!(st2.namespaces().len(), 2);
        let m1 = st2.latest_committed_job(1).unwrap().unwrap();
        let m2 = st2.latest_committed_job(2).unwrap().unwrap();
        assert_eq!(m1.iteration, 11);
        assert_eq!(m2.iteration, 20);
        // Payloads reload intact through the namespaced metadata.
        assert_eq!(st2.read_checkpoint(&m1).unwrap(), b"one-11");
        assert_eq!(st2.read_checkpoint(&m2).unwrap(), b"two-20");
        // The resumed global counter is past every namespace's commits.
        let lease = st2.begin_checkpoint_job(2).unwrap();
        assert!(lease.counter > c1);
        assert!(lease.counter > m2.counter);
        // Committed slots stayed pinned; the rest of each range is free.
        assert_eq!(st2.free_slot_count_job(1).unwrap(), 2);
        assert_eq!(st2.free_slot_count_job(2).unwrap(), 1); // one leased now
    }

    #[test]
    fn service_crash_mid_commit_keeps_namespaces_independent() {
        let slot_size = 128u64;
        let cap =
            CheckpointStore::required_capacity_service(ByteSize::from_bytes(slot_size), 6, 0, 2);
        let ssd = Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let dev: Arc<dyn PersistentDevice> = ssd.clone();
        let st = CheckpointStore::format_service(
            Arc::clone(&dev),
            ByteSize::from_bytes(slot_size),
            6,
            0,
            2,
        )
        .unwrap();
        st.allocate_namespace(1, 3).unwrap();
        st.allocate_namespace(2, 3).unwrap();
        job_checkpoint(&st, 1, 10, b"one-10");
        job_checkpoint(&st, 2, 20, b"two-20");
        // Job 1 writes but crashes before its meta persists: the volatile
        // overlay (unpersisted writes) is torn away.
        let lease = st.begin_checkpoint_job(1).unwrap();
        st.write_payload(&lease, 0, b"one-11-torn").unwrap();
        ssd.crash_now();
        ssd.recover();
        drop(st);

        let st2 = CheckpointStore::open(dev).unwrap();
        // Job 1 recovers its previous commit; job 2 is untouched.
        assert_eq!(st2.latest_committed_job(1).unwrap().unwrap().iteration, 10);
        assert_eq!(st2.latest_committed_job(2).unwrap().unwrap().iteration, 20);
        // The torn slot returned to job 1's free queue.
        assert_eq!(st2.free_slot_count_job(1).unwrap(), 2);
    }

    #[test]
    fn service_raw_view_expected_recovery_per_job() {
        let st = service_store(128, 8, 4);
        st.allocate_namespace(5, 4).unwrap();
        st.allocate_namespace(6, 4).unwrap();
        job_checkpoint(&st, 5, 100, b"five");
        job_checkpoint(&st, 6, 200, b"six");
        job_checkpoint(&st, 5, 101, b"five2");
        let view = RawStoreView::load(st.device().as_ref()).unwrap();
        assert_eq!(view.max_namespaces, 4);
        assert_eq!(view.namespaces.len(), 2);
        assert_eq!(view.expected_recovery_for(5).unwrap().iteration, 101);
        assert_eq!(view.expected_recovery_for(6).unwrap().iteration, 200);
        assert!(view.expected_recovery_for(7).is_none());
        assert_eq!(view.namespace_of_slot(0), Some(5));
        assert_eq!(view.namespace_of_slot(4), Some(6));
        // The global diagnostic view picks the newest across namespaces.
        assert_eq!(view.expected_recovery().unwrap().iteration, 101);
    }

    #[test]
    fn legacy_header_reads_as_single_tenant() {
        let st = store(256, 3);
        full_checkpoint(&st, 4, b"legacy");
        let view = RawStoreView::load(st.device().as_ref()).unwrap();
        assert_eq!(view.max_namespaces, 0);
        assert!(view.namespaces.is_empty());
        assert!(!st.is_multi_tenant());
        assert_eq!(st.unallocated_slots(), 0);
        assert!(st.allocate_namespace(1, 2).is_err());
        assert!(st.begin_checkpoint_job(1).is_err());
        assert!(st.latest_committed_job(1).is_err());
    }

    #[test]
    fn state_words_track_the_commit_lattice() {
        let st = store(64, 3);
        for s in 0..3 {
            assert_eq!(st.slot_commit_state(s), SlotState::Free);
            assert!(st.slot_state_offset(s).is_some());
        }
        let view = RawStoreView::load(st.device().as_ref()).unwrap();
        assert!(view.state_words);
        assert!(view.slot_state.iter().all(|s| *s == Some(SlotState::Free)));

        // Claim: Free -> Claimed{counter}, in memory and on the device.
        let lease = st.begin_checkpoint();
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
        let mut lease3 = st.begin_checkpoint();
        if lease3.slot != c1_slot {
            // Two free slots: keep drawing until the displaced one comes up.
            let other = lease3;
            lease3 = st.begin_checkpoint();
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
    fn legacy_header_without_state_region_reads_as_feature_off() {
        let cap = CheckpointStore::required_capacity(ByteSize::from_bytes(64), 3);
        let dev: Arc<dyn PersistentDevice> =
            Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        {
            let st =
                CheckpointStore::format(Arc::clone(&dev), ByteSize::from_bytes(64), 3).unwrap();
            full_checkpoint(&st, 4, b"legacy");
        }
        // Rewrite the header the way a pre-lattice format would have:
        // bytes 32..36 zeroed.
        dev.write_at(32, &[0u8; 4]).unwrap();
        dev.persist(32, 4).unwrap();
        let st = CheckpointStore::open(Arc::clone(&dev)).unwrap();
        assert!(st.slot_state_offset(0).is_none());
        let meta = st.latest_committed().unwrap();
        assert_eq!(meta.iteration, 4);
        // Commits still work; the in-memory lattice runs without the
        // durable mirror.
        full_checkpoint(&st, 5, b"newer");
        assert_eq!(st.latest_committed().unwrap().iteration, 5);
        // The decision procedure degrades to meta-CRC-only verdicts.
        let view = RawStoreView::load(dev.as_ref()).unwrap();
        assert!(!view.state_words);
        assert!(view.slot_state.iter().all(Option::is_none));
        let outcomes = view.slot_outcomes();
        assert!(outcomes
            .iter()
            .all(|o| matches!(o, SlotOutcome::Empty | SlotOutcome::Historical { .. })));
        assert!(outcomes
            .iter()
            .any(|o| matches!(o, SlotOutcome::Historical { .. })));
    }

    #[test]
    fn crash_between_claim_and_meta_publish_is_decidable() {
        let cap = CheckpointStore::required_capacity(ByteSize::from_bytes(64), 3);
        let dev: Arc<dyn PersistentDevice> =
            Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let (committed_slot, committed_ctr, leased_slot, leased_ctr);
        {
            let st =
                CheckpointStore::format(Arc::clone(&dev), ByteSize::from_bytes(64), 3).unwrap();
            full_checkpoint(&st, 1, b"one");
            let prev = st.latest_committed().unwrap();
            (committed_slot, committed_ctr) = (prev.slot, prev.counter);
            // Claim a slot (state word goes durable) and crash before any
            // meta is written for it.
            let lease = st.begin_checkpoint();
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
        assert_eq!(st.latest_committed().unwrap().iteration, 1);
        assert_eq!(st.free_slot_count(), 2);
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
        let st = CheckpointStore::format(Arc::clone(&dev), ByteSize::from_bytes(64), 3).unwrap();
        full_checkpoint(&st, 1, b"one");
        let lease = st.begin_checkpoint();
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
        assert_eq!(st2.latest_committed().unwrap().iteration, 2);
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
                        let lease = st.begin_checkpoint();
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
        let head = st.latest_committed().unwrap();
        assert_eq!(
            view.slot_outcome(head.slot),
            SlotOutcome::Committed {
                counter: head.counter
            }
        );
        assert_eq!(st.free_slot_count(), 5);
    }
}
