//! The store's on-device layout: the superblock bytes and every region
//! offset, in one place.
//!
//! ```text
//! +--------------------+  offset 0
//! | superblock (64B)   |  magic, version, geometry, checksum
//! +--------------------+  offset 64
//! | reserved (64B)     |  zero
//! +--------------------+  offset 128
//! | slot 0 meta (64B)  |
//! | slot 0 payload     |
//! +--------------------+
//! | slot 1 meta ...    |
//! +--------------------+  offset 128 + slots·(64 + slot_size)
//! | flight ring        |  crash-safe telemetry ring (header + records;
//! |                    |  empty when `flight_records == 0`)
//! +--------------------+
//! | namespace directory|  `max_namespaces` entries of 128B: a tenant's
//! |                    |  descriptor, then its CHECK_ADDR record
//! +--------------------+
//! | slot state words   |  `slots` commit-state records of 64B (the
//! |                    |  lattice Free → Claimed{c} → Committed{c})
//! +--------------------+  total()
//! ```
//!
//! The superblock is written once by `format` and never again, so it has
//! one copy: a second would have no writer to keep it current.
//! [`StoreLayout::decode`] is the only reader of those bytes and treats
//! them as outside input — checksum first, then checked arithmetic, then
//! the implied size against the device — so a damaged image is reported,
//! never indexed by.

use pccheck_device::PersistentDevice;
use pccheck_telemetry::FlightRing;
use pccheck_util::fnv::fnv1a;
use pccheck_util::ByteSize;

use crate::error::PccheckError;
use crate::meta::{META_RECORD_SIZE, NS_DESC_SIZE, SLOT_STATE_SIZE};

const STORE_MAGIC: u64 = 0x5043_6368_6543_6B33; // "PCcheCk3"
const LAYOUT_VERSION: u32 = 1;

/// Serialized size of the superblock.
pub(crate) const SUPERBLOCK_SIZE: u64 = 64;
/// Where slot 0's meta record starts: after the superblock and 64 reserved
/// bytes, which keeps every payload at `192 + s·(64 + slot_size)`.
const SLOTS_OFFSET: u64 = 128;
/// Stride of one namespace-directory entry: the 64-byte descriptor
/// followed by that namespace's own 64-byte CHECK_ADDR record.
pub(crate) const NS_ENTRY_SIZE: u64 = NS_DESC_SIZE + META_RECORD_SIZE;

/// What `format` is told and the superblock records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreGeometry {
    /// Per-slot payload capacity.
    pub slot_size: ByteSize,
    /// Number of slots: `N+1` per tenant for `N` concurrent checkpoints.
    pub slots: u32,
    /// Flight-ring capacity in 64-byte records (0 = empty region).
    pub flight_records: u32,
    /// Rows in the namespace directory (at least 1).
    pub max_namespaces: u32,
}

impl StoreGeometry {
    /// A single-tenant store: a one-row directory, which `format`
    /// allocates to the default job over every slot, and no flight ring.
    pub fn single(slot_size: ByteSize, slots: u32) -> Self {
        StoreGeometry {
            slot_size,
            slots,
            flight_records: 0,
            max_namespaces: 1,
        }
    }

    /// Bytes of device space this geometry occupies.
    ///
    /// # Panics
    ///
    /// Panics if the size does not fit in a `u64`.
    pub fn required_capacity(&self) -> ByteSize {
        let (.., total) = self.regions().expect("store geometry overflows u64");
        ByteSize::from_bytes(total)
    }

    /// `(flight, ns_dir, slot_state, total)` offsets, or `None` on
    /// overflow.
    fn regions(&self) -> Option<(u64, u64, u64, u64)> {
        let stride = META_RECORD_SIZE.checked_add(self.slot_size.as_u64())?;
        let flight = SLOTS_OFFSET.checked_add(u64::from(self.slots).checked_mul(stride)?)?;
        let ring = match self.flight_records {
            0 => 0,
            n => FlightRing::required_capacity(n),
        };
        let ns_dir = flight.checked_add(ring)?;
        let slot_state = ns_dir.checked_add(NS_ENTRY_SIZE * u64::from(self.max_namespaces))?;
        let total = slot_state.checked_add(SLOT_STATE_SIZE * u64::from(self.slots))?;
        Some((flight, ns_dir, slot_state, total))
    }
}

/// A validated [`StoreGeometry`] with its region offsets: the only code
/// that turns a slot or directory index into a device offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreLayout {
    geometry: StoreGeometry,
    flight: u64,
    ns_dir: u64,
    slot_state: u64,
    total: u64,
}

impl StoreLayout {
    /// Validates `geometry` and computes its regions.
    ///
    /// # Errors
    ///
    /// Returns [`PccheckError::InvalidConfig`] for fewer than 2 slots, a
    /// zero slot size, an empty directory, or a size beyond `u64`.
    pub fn new(geometry: StoreGeometry) -> Result<Self, PccheckError> {
        let invalid = |why: &str| Err(PccheckError::InvalidConfig(why.into()));
        if geometry.slots < 2 {
            return invalid("store needs at least 2 slots (N>=1 concurrent + 1 committed)");
        }
        if geometry.slot_size.is_zero() {
            return invalid("slot size must be nonzero");
        }
        if geometry.max_namespaces == 0 {
            return invalid("store needs at least 1 namespace directory row");
        }
        let Some((flight, ns_dir, slot_state, total)) = geometry.regions() else {
            return invalid("store geometry overflows u64");
        };
        Ok(StoreLayout {
            geometry,
            flight,
            ns_dir,
            slot_state,
            total,
        })
    }

    /// Like [`new`](Self::new), additionally requiring the layout to fit
    /// in `capacity` bytes.
    fn fitting(geometry: StoreGeometry, capacity: ByteSize) -> Result<Self, PccheckError> {
        let layout = Self::new(geometry)?;
        if layout.total > capacity.as_u64() {
            return Err(PccheckError::InvalidConfig(format!(
                "device capacity {capacity} < required {}",
                ByteSize::from_bytes(layout.total)
            )));
        }
        Ok(layout)
    }

    /// Serializes the superblock.
    pub fn encode(&self) -> [u8; SUPERBLOCK_SIZE as usize] {
        let g = &self.geometry;
        let mut sb = [0u8; SUPERBLOCK_SIZE as usize];
        sb[0..8].copy_from_slice(&STORE_MAGIC.to_le_bytes());
        sb[8..12].copy_from_slice(&LAYOUT_VERSION.to_le_bytes());
        sb[12..16].copy_from_slice(&g.slots.to_le_bytes());
        sb[16..24].copy_from_slice(&g.slot_size.as_u64().to_le_bytes());
        sb[24..28].copy_from_slice(&g.flight_records.to_le_bytes());
        sb[28..32].copy_from_slice(&g.max_namespaces.to_le_bytes());
        // Bytes 32..56 are reserved (zero) and covered by the checksum.
        let crc = fnv1a(&sb[..56]);
        sb[56..64].copy_from_slice(&crc.to_le_bytes());
        sb
    }

    /// Decodes and validates a superblock read from a device of
    /// `capacity` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`PccheckError::InvalidConfig`] when the bytes are not a
    /// superblock of this version (an image with an older magic is
    /// rejected, not migrated), the checksum does not match, or the
    /// geometry is invalid or larger than the device.
    pub fn decode(
        sb: &[u8; SUPERBLOCK_SIZE as usize],
        capacity: ByteSize,
    ) -> Result<Self, PccheckError> {
        let u32_at = |at: usize| u32::from_le_bytes(sb[at..at + 4].try_into().expect("4 bytes"));
        let u64_at = |at: usize| u64::from_le_bytes(sb[at..at + 8].try_into().expect("8 bytes"));
        let invalid = |why: &str| Err(PccheckError::InvalidConfig(why.into()));
        if u64_at(0) != STORE_MAGIC {
            return invalid("device holds no PCcheck store (bad magic)");
        }
        if u32_at(8) != LAYOUT_VERSION {
            return invalid("store superblock has an unknown layout version");
        }
        if u64_at(56) != fnv1a(&sb[..56]) {
            return invalid("store superblock fails its checksum");
        }
        Self::fitting(
            StoreGeometry {
                slots: u32_at(12),
                slot_size: ByteSize::from_bytes(u64_at(16)),
                flight_records: u32_at(24),
                max_namespaces: u32_at(28),
            },
            capacity,
        )
    }

    /// Validates `geometry` against `device` and persists its superblock
    /// (with the reserved bytes after it zeroed).
    ///
    /// # Errors
    ///
    /// As [`new`](Self::new), plus a device too small for the layout;
    /// propagates device errors.
    pub fn write(
        geometry: StoreGeometry,
        device: &dyn PersistentDevice,
    ) -> Result<Self, PccheckError> {
        let layout = Self::fitting(geometry, device.capacity())?;
        let mut head = [0u8; SLOTS_OFFSET as usize];
        head[..SUPERBLOCK_SIZE as usize].copy_from_slice(&layout.encode());
        device.write_at(0, &head)?;
        device.persist(0, SLOTS_OFFSET)?;
        Ok(layout)
    }

    /// Reads and validates the superblock of the store on `device`
    /// (durable bytes only, so it works on a crashed device).
    ///
    /// # Errors
    ///
    /// As [`decode`](Self::decode); propagates device read errors.
    pub fn read(device: &dyn PersistentDevice) -> Result<Self, PccheckError> {
        let mut sb = [0u8; SUPERBLOCK_SIZE as usize];
        device.read_durable_at(0, &mut sb)?;
        Self::decode(&sb, device.capacity())
    }

    /// The geometry this layout was computed from.
    pub fn geometry(&self) -> &StoreGeometry {
        &self.geometry
    }

    /// Device offset of `slot`'s meta record.
    pub fn slot_meta(&self, slot: u32) -> u64 {
        SLOTS_OFFSET + u64::from(slot) * (META_RECORD_SIZE + self.geometry.slot_size.as_u64())
    }

    /// Device offset of `slot`'s payload.
    pub fn slot_payload(&self, slot: u32) -> u64 {
        self.slot_meta(slot) + META_RECORD_SIZE
    }

    /// Device offset of the flight ring (meaningful only when
    /// `flight_records > 0`).
    pub fn flight(&self) -> u64 {
        self.flight
    }

    /// Device offset of directory entry `index`: the descriptor, with the
    /// namespace's CHECK_ADDR record [`NS_DESC_SIZE`] bytes after it.
    pub(crate) fn ns_entry(&self, index: u32) -> u64 {
        self.ns_dir + u64::from(index) * NS_ENTRY_SIZE
    }

    /// Device offset of `slot`'s durable commit-state word.
    pub fn slot_state(&self, slot: u32) -> u64 {
        self.slot_state + u64::from(slot) * SLOT_STATE_SIZE
    }

    /// Bytes of device space the store occupies.
    pub fn total(&self) -> u64 {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pccheck_util::rng::{check, Rng};

    fn geometry(
        slot_size: u64,
        slots: u32,
        flight_records: u32,
        max_namespaces: u32,
    ) -> StoreGeometry {
        StoreGeometry {
            slot_size: ByteSize::from_bytes(slot_size),
            slots,
            flight_records,
            max_namespaces,
        }
    }

    fn random_geometry(r: &mut Rng) -> StoreGeometry {
        // Slot sizes of every alignment: tiny, odd, and up to 1 MiB.
        let slot_size = match r.range(0..3) {
            0 => r.range(1..65),
            1 => r.range(1..1 << 20) | 1,
            _ => r.range(1..(1 << 20) + 1),
        };
        let ring = [0, 1, 512][r.range(0..3) as usize];
        geometry(slot_size, r.range(2..65) as u32, ring, r.range(1..9) as u32)
    }

    #[test]
    fn regions_tile_the_device_in_the_documented_order() {
        check(256, |r| {
            let g = random_geometry(r);
            let layout = StoreLayout::new(g).unwrap();
            // (start, len) of every region, in the order the module docs
            // draw them; each must start where the one before it ended.
            let mut regions = vec![(0, SUPERBLOCK_SIZE), (SUPERBLOCK_SIZE, 64)];
            for s in 0..g.slots {
                regions.push((layout.slot_meta(s), META_RECORD_SIZE));
                regions.push((layout.slot_payload(s), g.slot_size.as_u64()));
            }
            if g.flight_records > 0 {
                let ring = FlightRing::required_capacity(g.flight_records);
                regions.push((layout.flight(), ring));
            }
            regions.extend((0..g.max_namespaces).map(|i| (layout.ns_entry(i), NS_ENTRY_SIZE)));
            regions.extend((0..g.slots).map(|s| (layout.slot_state(s), SLOT_STATE_SIZE)));
            let mut end = 0;
            for (start, len) in regions {
                assert_eq!(start, end, "{g:?}: a region overlaps or leaves a gap");
                end = start + len;
            }
            assert_eq!(end, layout.total(), "{g:?}");
            assert_eq!(g.required_capacity().as_u64(), layout.total());

            let capacity = ByteSize::from_bytes(layout.total());
            assert_eq!(StoreLayout::decode(&layout.encode(), capacity), Ok(layout));
        });
    }

    /// Pinned from the parent commit (`slot_payload_offset` of a plain
    /// store, one with a flight ring and one with a namespace directory):
    /// no payload moved, so no payload write changed stripe or page.
    #[test]
    fn payload_offsets_equal_the_previous_layouts() {
        let golden: [(StoreGeometry, &[u64]); 3] = [
            (geometry(4096, 3, 0, 1), &[192, 4352, 8512]),
            (geometry(100, 5, 16, 1), &[192, 356, 520, 684, 848]),
            (
                geometry(1_048_613, 12, 512, 4),
                &[
                    192, 1048869, 2097546, 3146223, 4194900, 5243577, 6292254, 7340931, 8389608,
                    9438285, 10486962, 11535639,
                ],
            ),
        ];
        for (g, want) in golden {
            let layout = StoreLayout::new(g).unwrap();
            let got: Vec<u64> = (0..g.slots).map(|s| layout.slot_payload(s)).collect();
            assert_eq!(got, want, "{g:?}");
        }
        // A store that already had a directory kept every other region
        // where it was, too.
        let shared = StoreLayout::new(golden[2].0).unwrap();
        assert_eq!(shared.flight(), 12_584_252);
        assert_eq!(shared.slot_state(0), 12_617_596);
        assert_eq!(shared.total(), 12_618_364);
    }

    #[test]
    fn invalid_geometries_are_rejected() {
        for g in [
            geometry(64, 1, 0, 1),
            geometry(0, 2, 0, 1),
            geometry(64, 2, 0, 0),
            geometry(u64::MAX - 8, 2, 0, 1),
            geometry(u64::MAX / 2, u32::MAX, u32::MAX, u32::MAX),
        ] {
            assert!(
                matches!(StoreLayout::new(g), Err(PccheckError::InvalidConfig(_))),
                "{g:?}"
            );
        }
    }

    /// A superblock whose checksum is *right* over hostile counts: the
    /// arithmetic and the capacity comparison are what stand between the
    /// counts and an allocation.
    #[test]
    fn checksummed_but_impossible_geometries_are_rejected() {
        let capacity = ByteSize::from_mb_u64(1);
        check(256, |r| {
            let g = geometry(
                r.next_u64() >> r.range(0..64),
                (r.next_u64() >> r.range(32..64)) as u32,
                (r.next_u64() >> r.range(32..64)) as u32,
                (r.next_u64() >> r.range(32..64)) as u32,
            );
            let forged = StoreLayout {
                geometry: g,
                flight: 0,
                ns_dir: 0,
                slot_state: 0,
                total: 0,
            };
            match StoreLayout::decode(&forged.encode(), capacity) {
                Ok(layout) => {
                    assert_eq!(*layout.geometry(), g);
                    assert!(layout.total() <= capacity.as_u64());
                    assert!(g.slots >= 2 && !g.slot_size.is_zero() && g.max_namespaces >= 1);
                }
                Err(e) => assert!(matches!(e, PccheckError::InvalidConfig(_)), "{g:?}: {e}"),
            }
        });
    }
}
