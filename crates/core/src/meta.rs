//! Checkpoint metadata records (`Check_meta` in Listing 1).
//!
//! A [`CheckMeta`] describes one checkpoint: its global counter (the total
//! order among checkpoints), the slot holding its payload, the training
//! iteration it captured, the payload length and digest. Records serialize
//! to a fixed 64-byte cell — one cache line — with an internal checksum so
//! recovery can detect torn or stale records after a crash.

/// Serialized size of a metadata record: one cache line.
pub(crate) const META_RECORD_SIZE: u64 = 64;

const META_MAGIC: u32 = 0x5043_4B31; // "PCK1"

/// Back-pointer from a checkpoint to the youngest earlier checkpoint it
/// references.
///
/// A codec frame stores a chunk an earlier checkpoint already holds as
/// a `DedupBase` reference to that checkpoint (the chunk's home) instead
/// of bytes. A frame may name several homes; they all lie on one link
/// chain, so the link names the youngest and the store keeps every slot on
/// the chain it starts pinned while the referencing checkpoint is live.
/// `base_counter` is never 0 (the global counter starts at 1), which is
/// how the serialized record distinguishes linked metas from unlinked
/// ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaLink {
    /// Counter of the linked checkpoint.
    pub base_counter: u64,
    /// Slot holding the linked checkpoint's payload.
    pub base_slot: u32,
    /// Links between this checkpoint and the chain's unlinked root (the
    /// root has depth 0, the first linked checkpoint 1, and so on).
    pub chain_depth: u32,
}

/// Metadata of a single checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckMeta {
    /// Global order among checkpoints (Listing 1's `curr_counter`).
    pub counter: u64,
    /// Index of the storage slot holding the payload
    /// (Listing 1's `data_location`).
    pub slot: u32,
    /// Training iteration the checkpoint captured.
    pub iteration: u64,
    /// Payload length in bytes.
    pub payload_len: u64,
    /// Checksum of the serialized frame table at the head of the payload,
    /// which carries the state digest and binds every chunk.
    pub digest: u64,
    /// `Some` when the payload references an earlier checkpoint's chunks.
    pub delta: Option<DeltaLink>,
}

impl CheckMeta {
    /// Serializes to a 64-byte record with magic and checksum.
    pub fn encode(&self) -> [u8; META_RECORD_SIZE as usize] {
        let mut buf = [0u8; META_RECORD_SIZE as usize];
        buf[0..4].copy_from_slice(&META_MAGIC.to_le_bytes());
        buf[4..8].copy_from_slice(&self.slot.to_le_bytes());
        buf[8..16].copy_from_slice(&self.counter.to_le_bytes());
        buf[16..24].copy_from_slice(&self.iteration.to_le_bytes());
        buf[24..32].copy_from_slice(&self.payload_len.to_le_bytes());
        buf[32..40].copy_from_slice(&self.digest.to_le_bytes());
        if let Some(link) = self.delta {
            buf[48..56].copy_from_slice(&link.base_counter.to_le_bytes());
            buf[56..60].copy_from_slice(&link.base_slot.to_le_bytes());
            buf[60..64].copy_from_slice(&link.chain_depth.to_le_bytes());
        }
        let crc = checksum_fold(checksum(&buf[0..40]), &buf[48..64]);
        buf[40..48].copy_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Decodes a record, returning `None` if the magic or checksum is wrong
    /// (torn write, never-written cell, or corruption).
    pub fn decode(buf: &[u8]) -> Option<CheckMeta> {
        if buf.len() < META_RECORD_SIZE as usize {
            return None;
        }
        let magic = u32::from_le_bytes(buf[0..4].try_into().ok()?);
        if magic != META_MAGIC {
            return None;
        }
        let stored_crc = u64::from_le_bytes(buf[40..48].try_into().ok()?);
        if checksum_fold(checksum(&buf[0..40]), &buf[48..64]) != stored_crc {
            return None;
        }
        let base_counter = u64::from_le_bytes(buf[48..56].try_into().ok()?);
        let delta = (base_counter != 0).then(|| DeltaLink {
            base_counter,
            base_slot: u32::from_le_bytes(buf[56..60].try_into().unwrap()),
            chain_depth: u32::from_le_bytes(buf[60..64].try_into().unwrap()),
        });
        Some(CheckMeta {
            slot: u32::from_le_bytes(buf[4..8].try_into().ok()?),
            counter: u64::from_le_bytes(buf[8..16].try_into().ok()?),
            iteration: u64::from_le_bytes(buf[16..24].try_into().ok()?),
            payload_len: u64::from_le_bytes(buf[24..32].try_into().ok()?),
            digest: u64::from_le_bytes(buf[32..40].try_into().ok()?),
            delta,
        })
    }
}

/// Serialized size of a namespace descriptor: one cache line.
pub(crate) const NS_DESC_SIZE: u64 = 64;

const NS_MAGIC: u32 = 0x5043_4E53; // "PCNS"

/// Descriptor of one per-job slot namespace in a multi-tenant store.
///
/// A service-mode store carves its slot array into contiguous per-job
/// ranges; each range is described by one of these 64-byte records in the
/// namespace directory at the tail of the device. Like [`CheckMeta`], the
/// record carries a checksum so a torn directory write is detected and the
/// entry treated as unallocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NamespaceDesc {
    /// The tenant this namespace belongs to.
    pub job: u64,
    /// First slot of the contiguous range.
    pub(crate) slot_start: u32,
    /// Number of slots in the range (`N+1` for `N` concurrent checkpoints).
    pub slot_count: u32,
}

impl NamespaceDesc {
    /// The half-open slot range this namespace owns.
    pub fn slot_range(&self) -> std::ops::Range<u32> {
        self.slot_start..self.slot_start + self.slot_count
    }

    /// Serializes to a 64-byte record with magic and checksum.
    pub fn encode(&self) -> [u8; NS_DESC_SIZE as usize] {
        let mut buf = [0u8; NS_DESC_SIZE as usize];
        buf[0..4].copy_from_slice(&NS_MAGIC.to_le_bytes());
        buf[4..8].copy_from_slice(&self.slot_start.to_le_bytes());
        buf[8..12].copy_from_slice(&self.slot_count.to_le_bytes());
        buf[16..24].copy_from_slice(&self.job.to_le_bytes());
        let crc = checksum(&buf[0..24]);
        buf[24..32].copy_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Decodes a record, returning `None` if the magic or checksum is wrong
    /// (free directory entry, torn write, or corruption).
    pub fn decode(buf: &[u8]) -> Option<NamespaceDesc> {
        if buf.len() < NS_DESC_SIZE as usize {
            return None;
        }
        let magic = u32::from_le_bytes(buf[0..4].try_into().ok()?);
        if magic != NS_MAGIC {
            return None;
        }
        let stored_crc = u64::from_le_bytes(buf[24..32].try_into().ok()?);
        if checksum(&buf[0..24]) != stored_crc {
            return None;
        }
        Some(NamespaceDesc {
            slot_start: u32::from_le_bytes(buf[4..8].try_into().ok()?),
            slot_count: u32::from_le_bytes(buf[8..12].try_into().ok()?),
            job: u64::from_le_bytes(buf[16..24].try_into().ok()?),
        })
    }
}

/// Serialized size of a per-slot commit-state record: one cache line.
pub(crate) const SLOT_STATE_SIZE: u64 = 64;

const STATE_MAGIC: u32 = 0x5043_5331; // "PCS1"

const STATE_TAG_FREE: u32 = 0;
const STATE_TAG_CLAIMED: u32 = 1;
const STATE_TAG_COMMITTED: u32 = 2;

/// One rung of the per-slot commit-state lattice.
///
/// Every slot carries a persistent state word that a checkpointer advances
/// with single atomic publishes — never under a lock:
///
/// ```text
/// Free ──CAS──▶ Claimed{counter} ──meta persist──▶ Committed{counter}
///   ▲                                                      │
///   └───────────────── recycle (in-memory only) ◀──────────┘
/// ```
///
/// The word is what makes the lock-free commit *detectable* (in the
/// memento sense): after a crash, a slot's outcome is decidable from its
/// state word plus the meta record's CRC alone. Recycling deliberately
/// never writes the durable word — the on-device state is a high-water
/// mark, and counters rank which claim is current.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotState {
    /// Never claimed since format (or only ever recycled in memory).
    Free,
    /// A checkpointer owns the slot for checkpoint `counter`; the payload
    /// and meta record may be anywhere between untouched and durable.
    Claimed {
        /// Global counter of the claiming checkpoint.
        counter: u64,
    },
    /// Checkpoint `counter`'s meta record was durable when this state was
    /// published; the slot has been (or is about to be) the recovery head.
    Committed {
        /// Global counter of the committed checkpoint.
        counter: u64,
    },
}

impl SlotState {
    /// The claim/commit counter, `None` for [`SlotState::Free`].
    pub fn counter(self) -> Option<u64> {
        match self {
            SlotState::Free => None,
            SlotState::Claimed { counter } | SlotState::Committed { counter } => Some(counter),
        }
    }

    fn tag(self) -> u32 {
        match self {
            SlotState::Free => STATE_TAG_FREE,
            SlotState::Claimed { .. } => STATE_TAG_CLAIMED,
            SlotState::Committed { .. } => STATE_TAG_COMMITTED,
        }
    }

    /// Packs into the in-memory `AtomicU64` word: counter in the high 62
    /// bits, tag in the low 2. The counter is capped at 48 bits by
    /// `PackedCheckAddr::pack` long before this limit matters.
    pub(crate) fn pack(self) -> u64 {
        let (tag, counter) = match self {
            SlotState::Free => (STATE_TAG_FREE, 0),
            SlotState::Claimed { counter } => (STATE_TAG_CLAIMED, counter),
            SlotState::Committed { counter } => (STATE_TAG_COMMITTED, counter),
        };
        debug_assert!(counter < (1 << 62), "slot-state counter overflow");
        (counter << 2) | u64::from(tag)
    }

    /// Unpacks an in-memory word produced by [`SlotState::pack`].
    #[cfg(test)]
    pub(crate) fn unpack(word: u64) -> SlotState {
        let counter = word >> 2;
        match (word & 0b11) as u32 {
            STATE_TAG_CLAIMED => SlotState::Claimed { counter },
            STATE_TAG_COMMITTED => SlotState::Committed { counter },
            _ => SlotState::Free,
        }
    }

    /// Serializes to a 64-byte record with magic and checksum, sized so
    /// one state publish is one single-cache-line persist.
    pub fn encode(self) -> [u8; SLOT_STATE_SIZE as usize] {
        let mut buf = [0u8; SLOT_STATE_SIZE as usize];
        buf[0..4].copy_from_slice(&STATE_MAGIC.to_le_bytes());
        buf[4..8].copy_from_slice(&self.tag().to_le_bytes());
        buf[8..16].copy_from_slice(&self.counter().unwrap_or(0).to_le_bytes());
        let crc = checksum(&buf[0..16]);
        buf[16..24].copy_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Decodes a record, returning `None` if the magic, tag, or checksum
    /// is wrong (torn write, pre-lattice store, or corruption). A torn
    /// state word therefore degrades to "no word", and the decision
    /// procedure falls back to classifying the slot from its meta CRC —
    /// the outcome stays decidable.
    pub fn decode(buf: &[u8]) -> Option<SlotState> {
        if buf.len() < SLOT_STATE_SIZE as usize {
            return None;
        }
        let magic = u32::from_le_bytes(buf[0..4].try_into().ok()?);
        if magic != STATE_MAGIC {
            return None;
        }
        let stored_crc = u64::from_le_bytes(buf[16..24].try_into().ok()?);
        if checksum(&buf[0..16]) != stored_crc {
            return None;
        }
        let counter = u64::from_le_bytes(buf[8..16].try_into().ok()?);
        match u32::from_le_bytes(buf[4..8].try_into().ok()?) {
            STATE_TAG_FREE if counter == 0 => Some(SlotState::Free),
            STATE_TAG_CLAIMED if counter != 0 => Some(SlotState::Claimed { counter }),
            STATE_TAG_COMMITTED if counter != 0 => Some(SlotState::Committed { counter }),
            _ => None,
        }
    }
}

impl std::fmt::Display for SlotState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SlotState::Free => f.write_str("free"),
            SlotState::Claimed { counter } => write!(f, "claimed#{counter}"),
            SlotState::Committed { counter } => write!(f, "committed#{counter}"),
        }
    }
}

/// The in-memory `CHECK_ADDR` word: (counter, slot) packed into a `u64` so a
/// single CAS can swing the "latest committed checkpoint" pointer
/// (Listing 1, line 20).
///
/// Counter occupies the high 48 bits, slot the low 16. The packing keeps
/// the total order: comparing packed words compares counters first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct PackedCheckAddr(pub u64);

/// Sentinel for "no checkpoint committed yet" (counter 0 is never issued —
/// the global counter starts at 1).
pub(crate) const CHECK_ADDR_NONE: PackedCheckAddr = PackedCheckAddr(0);

impl PackedCheckAddr {
    /// Packs a counter and slot.
    ///
    /// # Panics
    ///
    /// Panics if the counter exceeds 48 bits or the slot exceeds 16 bits.
    pub(crate) fn pack(counter: u64, slot: u32) -> Self {
        assert!(counter < (1 << 48), "checkpoint counter overflow");
        assert!(slot < (1 << 16), "slot index overflow");
        PackedCheckAddr((counter << 16) | u64::from(slot))
    }

    /// The checkpoint counter.
    pub(crate) fn counter(self) -> u64 {
        self.0 >> 16
    }

    /// The slot index.
    pub(crate) fn slot(self) -> u32 {
        (self.0 & 0xFFFF) as u32
    }

    /// Whether this is the "no checkpoint yet" sentinel.
    pub(crate) fn is_none(self) -> bool {
        self.0 == 0
    }
}

/// FNV-1a over `data` (the record checksum).
pub(crate) fn checksum(data: &[u8]) -> u64 {
    pccheck_util::fnv::fnv1a(data)
}

/// Continues an FNV-1a checksum from hash state `h` over `data`, so a
/// record checksum can skip over its own CRC field.
pub(crate) fn checksum_fold(h: u64, data: &[u8]) -> u64 {
    pccheck_util::fnv::fnv1a_fold(h, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pccheck_util::rng::{check, DEFAULT_CASES};

    fn sample() -> CheckMeta {
        CheckMeta {
            counter: 42,
            slot: 3,
            iteration: 1000,
            payload_len: 123_456,
            digest: 0xdead_beef_cafe_f00d,
            delta: None,
        }
    }

    fn sample_delta() -> CheckMeta {
        CheckMeta {
            delta: Some(DeltaLink {
                base_counter: 41,
                base_slot: 2,
                chain_depth: 1,
            }),
            counter: 43,
            ..sample()
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let m = sample();
        let buf = m.encode();
        assert_eq!(CheckMeta::decode(&buf), Some(m));
        assert!(m.delta.is_none());
    }

    #[test]
    fn delta_meta_round_trips() {
        let m = sample_delta();
        let decoded = CheckMeta::decode(&m.encode()).expect("delta record decodes");
        assert_eq!(decoded, m);
        assert!(decoded.delta.is_some());
        let link = decoded.delta.unwrap();
        assert_eq!(link.base_counter, 41);
        assert_eq!(link.base_slot, 2);
        assert_eq!(link.chain_depth, 1);
    }

    #[test]
    fn decode_rejects_bad_magic() {
        let mut buf = sample().encode();
        buf[0] ^= 0xFF;
        assert_eq!(CheckMeta::decode(&buf), None);
    }

    #[test]
    fn decode_rejects_torn_record() {
        let mut buf = sample().encode();
        buf[20] ^= 0x01; // flip a bit inside the payload fields
        assert_eq!(CheckMeta::decode(&buf), None);
    }

    #[test]
    fn decode_rejects_zeroed_cell() {
        assert_eq!(CheckMeta::decode(&[0u8; 64]), None);
    }

    #[test]
    fn decode_rejects_short_buffer() {
        assert_eq!(CheckMeta::decode(&[0u8; 10]), None);
    }

    #[test]
    fn namespace_desc_round_trips_and_rejects_corruption() {
        let d = NamespaceDesc {
            job: 7,
            slot_start: 12,
            slot_count: 4,
        };
        let buf = d.encode();
        assert_eq!(NamespaceDesc::decode(&buf), Some(d));
        assert_eq!(NamespaceDesc::decode(&[0u8; 64]), None, "free entry");
        let mut torn = buf;
        torn[5] ^= 1;
        assert_eq!(NamespaceDesc::decode(&torn), None);
        assert_eq!(NamespaceDesc::decode(&buf[..32]), None, "short buffer");
    }

    #[test]
    fn packed_addr_round_trip() {
        let p = PackedCheckAddr::pack(99, 7);
        assert_eq!(p.counter(), 99);
        assert_eq!(p.slot(), 7);
        assert!(!p.is_none());
        assert!(CHECK_ADDR_NONE.is_none());
    }

    #[test]
    fn packed_addr_orders_by_counter() {
        let older = PackedCheckAddr::pack(5, 9);
        let newer = PackedCheckAddr::pack(6, 0);
        assert!(newer > older, "counter dominates slot in the ordering");
    }

    #[test]
    #[should_panic(expected = "counter overflow")]
    fn counter_overflow_panics() {
        PackedCheckAddr::pack(1 << 48, 0);
    }

    #[test]
    #[should_panic(expected = "slot index overflow")]
    fn slot_overflow_panics() {
        PackedCheckAddr::pack(0, 1 << 16);
    }

    #[test]
    fn slot_state_round_trips_on_device_and_in_memory() {
        for s in [
            SlotState::Free,
            SlotState::Claimed { counter: 7 },
            SlotState::Committed { counter: 7 },
        ] {
            assert_eq!(SlotState::decode(&s.encode()), Some(s));
            assert_eq!(SlotState::unpack(s.pack()), s);
        }
        assert_eq!(SlotState::Free.counter(), None);
        assert_eq!(SlotState::Claimed { counter: 3 }.counter(), Some(3));
    }

    #[test]
    fn slot_state_decode_rejects_garbage() {
        assert_eq!(SlotState::decode(&[0u8; 64]), None, "pre-lattice cell");
        assert_eq!(SlotState::decode(&[0u8; 8]), None, "short buffer");
        let mut torn = SlotState::Claimed { counter: 9 }.encode();
        torn[9] ^= 1;
        assert_eq!(SlotState::decode(&torn), None, "torn counter");
        let mut bad_tag = SlotState::Free.encode();
        bad_tag[4] = 7; // valid CRC is recomputed below to isolate the tag check
        let crc = checksum(&bad_tag[0..16]);
        bad_tag[16..24].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(SlotState::decode(&bad_tag), None, "unknown tag");
    }

    #[test]
    fn slot_state_display_matches_lattice_names() {
        assert_eq!(SlotState::Free.to_string(), "free");
        assert_eq!(SlotState::Claimed { counter: 4 }.to_string(), "claimed#4");
        assert_eq!(
            SlotState::Committed { counter: 4 }.to_string(),
            "committed#4"
        );
    }

    #[test]
    fn any_slot_state_round_trips() {
        check(DEFAULT_CASES, |r| {
            let counter = r.range(1..1 << 48);
            let s = match r.range(0..3) {
                0 => SlotState::Free,
                1 => SlotState::Claimed { counter },
                _ => SlotState::Committed { counter },
            };
            assert_eq!(SlotState::decode(&s.encode()), Some(s));
            assert_eq!(SlotState::unpack(s.pack()), s);
        });
    }

    #[test]
    fn slot_state_bitflip_is_detected() {
        check(DEFAULT_CASES, |r| {
            let mut buf = SlotState::Committed { counter: 42 }.encode();
            buf[r.range(0..24) as usize] ^= 1 << r.range(0..8);
            assert_eq!(SlotState::decode(&buf), None);
        });
    }

    #[test]
    fn any_meta_round_trips() {
        check(DEFAULT_CASES, |r| {
            let (counter, slot) = (r.range(0..1 << 48), r.range(0..1 << 16) as u32);
            // With and without a delta link.
            let delta = r.bool().then(|| DeltaLink {
                base_counter: r.range(1..u64::MAX),
                base_slot: r.next_u64() as u32,
                chain_depth: r.next_u64() as u32,
            });
            let m = CheckMeta {
                counter,
                slot,
                iteration: r.next_u64(),
                payload_len: r.next_u64(),
                digest: r.next_u64(),
                delta,
            };
            assert_eq!(CheckMeta::decode(&m.encode()), Some(m));
            let p = PackedCheckAddr::pack(counter, slot);
            assert_eq!(p.counter(), counter);
            assert_eq!(p.slot(), slot);
        });
    }

    #[test]
    fn single_bitflip_is_detected() {
        check(DEFAULT_CASES, |r| {
            let mut buf = sample_delta().encode();
            buf[r.range(0..64) as usize] ^= 1 << r.range(0..8);
            assert_eq!(CheckMeta::decode(&buf), None);
        });
    }
}
