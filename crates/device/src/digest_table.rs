//! Per-chunk digest tables: parallel-verifiable checkpoint integrity.
//!
//! The legacy digest disciplines (the iteration-seeded state digest and
//! the raw FNV checksum) are sequential folds over the whole payload, so
//! a restore that reads chunks with `r` parallel readers still verifies
//! them one after another on a single fold. A [`ChunkDigestTable`] breaks
//! that dependency: the persist pipeline records one FNV-1a digest per
//! fixed-size chunk as the chunks stream to the device, and recovery can
//! then verify chunk *i* the moment it lands — concurrently with the read
//! of chunk *i+1* and with every other chunk's verification.
//!
//! Tables are *optional and advisory*: they live in a dedicated region of
//! the store (never inside the slot payload), are bound to one commit by
//! the checkpoint counter and the committed payload digest, and are
//! themselves CRC-protected. A missing, stale, or torn table simply
//! drops recovery back to the legacy whole-payload verification — it can
//! cause extra work, never wrong acceptance.

use crate::error::DeviceError;
use pccheck_util::fnv::{chunk_digest, fnv1a};
use crate::Result;

/// Table magic: ASCII `CDT1` (little-endian `u32`).
pub const DIGEST_TABLE_MAGIC: u32 = u32::from_le_bytes(*b"CDT1");

/// Encoded table header size: magic, count, `chunk_len`, `payload_len`,
/// `counter`, `payload_digest`.
pub const DIGEST_TABLE_HEADER: usize = 40;

/// Encoded size of one chunk digest.
pub const DIGEST_RECORD_SIZE: usize = 8;

/// A table of per-chunk FNV-1a digests for one committed checkpoint slot.
///
/// The payload is cut into `chunk_len`-byte chunks (the last one may be
/// shorter); `digests[i]` is [`chunk_digest`] of chunk `i`'s bytes. `counter` and
/// `payload_digest` tie the table to exactly one commit: a reader must
/// ignore the table unless both match the slot's committed metadata,
/// which is what makes concurrent slot recycling safe without ordering
/// the table write into the commit barrier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkDigestTable {
    /// Bytes per chunk (the last chunk may be shorter). Zero only for an
    /// empty table.
    pub chunk_len: u64,
    /// Length of the payload the table covers.
    pub payload_len: u64,
    /// The checkpoint counter this table belongs to.
    pub counter: u64,
    /// The committed `meta.digest` of the payload (binding, like
    /// `counter`).
    pub payload_digest: u64,
    /// One FNV-1a digest per chunk, in payload order.
    pub digests: Vec<u64>,
}

/// Number of chunks a `payload_len`-byte payload cuts into.
pub fn chunk_count(payload_len: u64, chunk_len: u64) -> usize {
    if payload_len == 0 || chunk_len == 0 {
        0
    } else {
        payload_len.div_ceil(chunk_len) as usize
    }
}

impl ChunkDigestTable {
    /// Encoded size of a table holding `count` chunk digests.
    pub fn encoded_len_for(count: usize) -> u64 {
        (DIGEST_TABLE_HEADER + count * DIGEST_RECORD_SIZE + 8) as u64
    }

    /// Encoded size of this table.
    pub fn encoded_len(&self) -> u64 {
        Self::encoded_len_for(self.digests.len())
    }

    /// Builds a table over `payload` cut into `chunk_len`-byte chunks.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len` is zero while the payload is not empty.
    pub fn build(payload: &[u8], chunk_len: u64, counter: u64, payload_digest: u64) -> Self {
        assert!(
            chunk_len > 0 || payload.is_empty(),
            "chunk_len must be positive for a non-empty payload"
        );
        let digests = payload
            .chunks(chunk_len.max(1) as usize)
            .map(chunk_digest)
            .collect();
        ChunkDigestTable {
            chunk_len,
            payload_len: payload.len() as u64,
            counter,
            payload_digest,
            digests,
        }
    }

    /// The `(offset, len)` of chunk `i` within the payload.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn chunk_range(&self, i: usize) -> (u64, u64) {
        assert!(i < self.digests.len(), "chunk index out of range");
        let offset = i as u64 * self.chunk_len;
        (offset, self.chunk_len.min(self.payload_len - offset))
    }

    /// Verifies chunk `i`'s bytes against its recorded digest.
    pub fn verify_chunk(&self, i: usize, bytes: &[u8]) -> bool {
        self.chunk_range(i).1 == bytes.len() as u64 && chunk_digest(bytes) == self.digests[i]
    }

    /// Serializes the table: header, digests, trailing FNV-1a checksum.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len() as usize);
        out.extend_from_slice(&DIGEST_TABLE_MAGIC.to_le_bytes());
        out.extend_from_slice(&(self.digests.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.chunk_len.to_le_bytes());
        out.extend_from_slice(&self.payload_len.to_le_bytes());
        out.extend_from_slice(&self.counter.to_le_bytes());
        out.extend_from_slice(&self.payload_digest.to_le_bytes());
        for d in &self.digests {
            out.extend_from_slice(&d.to_le_bytes());
        }
        let crc = fnv1a(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Decodes a table from the head of `buf` (trailing bytes ignored).
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::CorruptDigestTable`] on a bad magic, a
    /// geometry that does not add up (count inconsistent with
    /// `payload_len`/`chunk_len`), or a checksum mismatch (torn write).
    pub fn decode(buf: &[u8]) -> Result<ChunkDigestTable> {
        if buf.len() < DIGEST_TABLE_HEADER + 8 {
            return Err(DeviceError::CorruptDigestTable);
        }
        let magic = u32::from_le_bytes(buf[0..4].try_into().expect("4 bytes"));
        if magic != DIGEST_TABLE_MAGIC {
            return Err(DeviceError::CorruptDigestTable);
        }
        let count = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes")) as usize;
        let table_len = Self::encoded_len_for(count) as usize;
        if table_len > buf.len() {
            return Err(DeviceError::CorruptDigestTable);
        }
        let crc_off = table_len - 8;
        let stored = u64::from_le_bytes(buf[crc_off..table_len].try_into().expect("8 bytes"));
        if fnv1a(&buf[..crc_off]) != stored {
            return Err(DeviceError::CorruptDigestTable);
        }
        let chunk_len = u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes"));
        let payload_len = u64::from_le_bytes(buf[16..24].try_into().expect("8 bytes"));
        if count != chunk_count(payload_len, chunk_len) {
            return Err(DeviceError::CorruptDigestTable);
        }
        let counter = u64::from_le_bytes(buf[24..32].try_into().expect("8 bytes"));
        let payload_digest = u64::from_le_bytes(buf[32..40].try_into().expect("8 bytes"));
        let mut digests = Vec::with_capacity(count);
        let mut off = DIGEST_TABLE_HEADER;
        for _ in 0..count {
            digests.push(u64::from_le_bytes(
                buf[off..off + 8].try_into().expect("8 bytes"),
            ));
            off += DIGEST_RECORD_SIZE;
        }
        Ok(ChunkDigestTable {
            chunk_len,
            payload_len,
            counter,
            payload_digest,
            digests,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ChunkDigestTable {
        let payload: Vec<u8> = (0..300u32).map(|i| (i % 251) as u8).collect();
        ChunkDigestTable::build(&payload, 128, 42, 0xdead_beef)
    }

    #[test]
    fn build_covers_every_byte_with_a_short_tail() {
        let t = sample();
        assert_eq!(t.digests.len(), 3);
        assert_eq!(t.chunk_range(0), (0, 128));
        assert_eq!(t.chunk_range(1), (128, 128));
        assert_eq!(t.chunk_range(2), (256, 44));
        assert_eq!(chunk_count(300, 128), 3);
        assert_eq!(chunk_count(256, 128), 2);
        assert_eq!(chunk_count(0, 128), 0);
    }

    #[test]
    fn verify_chunk_accepts_the_right_bytes_only() {
        let payload: Vec<u8> = (0..300u32).map(|i| (i % 251) as u8).collect();
        let t = ChunkDigestTable::build(&payload, 128, 1, 2);
        assert!(t.verify_chunk(0, &payload[0..128]));
        assert!(t.verify_chunk(2, &payload[256..300]));
        assert!(!t.verify_chunk(0, &payload[128..256]), "wrong bytes");
        assert!(!t.verify_chunk(2, &payload[256..299]), "wrong length");
        let mut torn = payload[0..128].to_vec();
        torn[7] ^= 1;
        assert!(!t.verify_chunk(0, &torn));
    }

    #[test]
    fn encode_decode_round_trip() {
        let t = sample();
        let buf = t.encode();
        assert_eq!(buf.len() as u64, t.encoded_len());
        assert_eq!(ChunkDigestTable::decode(&buf).unwrap(), t);
    }

    #[test]
    fn decode_ignores_trailing_bytes() {
        let t = sample();
        let mut buf = t.encode();
        buf.extend_from_slice(&[0xEE; 64]);
        assert_eq!(ChunkDigestTable::decode(&buf).unwrap(), t);
    }

    #[test]
    fn empty_table_round_trips() {
        let t = ChunkDigestTable::build(&[], 0, 7, 0);
        assert_eq!(t.digests.len(), 0);
        assert_eq!(ChunkDigestTable::decode(&t.encode()).unwrap(), t);
    }

    #[test]
    fn decode_rejects_bad_magic() {
        let mut buf = sample().encode();
        buf[0] ^= 0xFF;
        assert_eq!(
            ChunkDigestTable::decode(&buf),
            Err(DeviceError::CorruptDigestTable)
        );
    }

    #[test]
    fn decode_rejects_any_single_bitflip() {
        let good = sample().encode();
        for pos in 0..good.len() {
            let mut buf = good.clone();
            buf[pos] ^= 0x10;
            assert!(
                ChunkDigestTable::decode(&buf).is_err(),
                "bitflip at {pos} not detected"
            );
        }
    }

    #[test]
    fn decode_rejects_inconsistent_geometry() {
        // A valid CRC over a header whose count disagrees with
        // payload_len/chunk_len must still be rejected.
        let mut t = sample();
        t.digests.pop();
        let mut buf = Vec::new();
        buf.extend_from_slice(&DIGEST_TABLE_MAGIC.to_le_bytes());
        buf.extend_from_slice(&(t.digests.len() as u32).to_le_bytes());
        buf.extend_from_slice(&t.chunk_len.to_le_bytes());
        buf.extend_from_slice(&t.payload_len.to_le_bytes());
        buf.extend_from_slice(&t.counter.to_le_bytes());
        buf.extend_from_slice(&t.payload_digest.to_le_bytes());
        for d in &t.digests {
            buf.extend_from_slice(&d.to_le_bytes());
        }
        let crc = fnv1a(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(
            ChunkDigestTable::decode(&buf),
            Err(DeviceError::CorruptDigestTable)
        );
    }

    #[test]
    fn decode_rejects_short_buffer() {
        assert_eq!(
            ChunkDigestTable::decode(&[0u8; 16]),
            Err(DeviceError::CorruptDigestTable)
        );
    }
}
