//! Persist-path chunk codec: entropy-gated LZ compression, content-defined
//! dedup, and the chunk-framing slot format that carries both.
//!
//! # Frame layout
//!
//! Every checkpoint's payload is a frame, `[frame table][packed physical
//! chunks]`; there is no other payload format. A checkpoint the codec did
//! not touch — codec off, a staging pool too small to hold the snapshot, a
//! frame that would not pay — is the *all-`Raw` frame*
//! ([`raw_frame`]): one `Raw` record per chunk, each packed at its
//! own logical offset behind the table. The table header binds the frame to
//! its commit (checkpoint counter, and the commit record's digest is the
//! checksum of the serialized table), names the logical (uncompressed)
//! payload length and the end-to-end digest of the reconstructed state, and
//! is sealed by a folded FNV-1a CRC over header + records so a torn table
//! write is detected before any chunk is trusted. Only
//! [`FrameTable::decode`] reads `FRAME_MAGIC`: nothing classifies a
//! payload by its head, so no state's first bytes can make it unrecoverable.
//!
//! Each [`FrameRecord`] describes one logical range of the state, in
//! logical order: a staging chunk, or — where the update dirtied a chunk
//! only in part — its dirty run or the clean head or tail beside it, cut
//! on [`DIGEST_BLOCK`] boundaries. Records follow the dirty runs, so a
//! sparse update persists the blocks it changed, not the chunks they fall
//! in:
//!
//! - [`ChunkEncoding::Raw`] — stored verbatim at `phys_off..+phys_len` in
//!   the packed region (`phys_len == logical_len`).
//! - [`ChunkEncoding::Lz`] — stored LZ-compressed (`phys_len <
//!   logical_len`); see the block format below.
//! - [`ChunkEncoding::DedupSelf`] — byte-identical to an *earlier*
//!   materialized record of this same frame; stores only its index.
//! - [`ChunkEncoding::DedupBase`] — byte-identical to the logical range
//!   `[b, b + logical_len)` of an earlier checkpoint, the range's *home*,
//!   which the record names by `(counter, slot)`. The range lies inside one
//!   record the home materialized — any part of a `Raw` one, or the whole
//!   of an `Lz` one — at the record's own logical offset or at another (a
//!   chunk that repeats another). One frame may name several homes; all of
//!   them lie on the link chain the commit's [`DeltaLink`] starts, which pins
//!   their slots, so the referenced bytes cannot be recycled while this
//!   checkpoint is live.
//!
//! Every record carries the content address of its logical bytes
//! ([`content_address`]: a fold of the digests of the record's own
//! [`DIGEST_BLOCK`]s, the blocks the state digest is made of), so restore
//! verifies each chunk as it materializes and a stale or torn reference is
//! detected (and the candidate discarded) — never silently accepted. On a
//! block-aligned geometry a record's blocks are the state's, and the one
//! digest pass that files a job's block values also yields its address.
//!
//! `RestorePlan` is the one reader of this layout: it compiles a bound
//! table into independent jobs — one per record, each naming the one
//! physical range (of this slot or of a home's) or the earlier job its
//! bytes come from — which the restore executor ([`crate::restore`]) lands,
//! verifies and folds on its readers. Recovery and the forensics auditor
//! both materialize a frame that way, each with its own `SlotRead`.
//!
//! [`DIGEST_BLOCK`]: pccheck_util::fnv::DIGEST_BLOCK
//!
//! [`DeltaLink`]: crate::meta::DeltaLink
//!
//! # LZ block format
//!
//! A dependency-free LZ77 byte stream in the LZ4 style: each sequence is
//! `token | literal-run | literals | offset(2B LE) | match-run`, where the
//! token's high nibble is the literal count and the low nibble the match
//! length minus `MIN_MATCH`, both extended by 255-continuation bytes
//! when they saturate at 15. The final sequence is literals-only. Matches
//! reference a 64 KiB window.
//!
//! The encoder is built for persist-path throughput, not ratio. It is
//! greedy over a hash table of 4-byte words: a position whose word equals
//! the word at the position last filed under the same hash, within the
//! window, starts a match, and the match extends forward eight bytes at a
//! time (the first differing byte falls out of the XOR of two words), byte
//! by byte only over the input's last `< 8`. The bytes it emits are the
//! ones a byte-at-a-time extension emits — same sequences, same cut-off at
//! the same `limit` — so changing how fast it runs never changes what
//! reaches the media; a test-only byte-wise oracle and pinned stream
//! digests hold it to that.
//!
//! # Entropy gate
//!
//! Compressing dense fp16/fp32 noise wastes CPU for zero gain, so
//! [`compress_gated`] first estimates Shannon entropy over a sampled 4 KiB
//! byte histogram and skips the compressor entirely above
//! `ENTROPY_SKIP_BITS` bits/byte. A compressed chunk is kept only when
//! it actually saves ≥ 1/16 of the logical bytes; otherwise the chunk
//! stays raw and restore never pays a decompress.
//!
//! # Dedup index lifetime
//!
//! The `DedupIndex` holds one *generation* per job: by logical position,
//! the **home** of each range of the job's committed state — the record
//! ([`DedupHome`]) of the checkpoint that physically holds those bytes,
//! with that checkpoint's chain depth — and where in that record the range
//! lies, which may be at another logical offset; and, per digest block,
//! the committed state's value there. A committed frame installs the next
//! generation wholesale: its `Raw` and `Lz` records are homed at
//! themselves, a `DedupSelf` at the record it names, and a `DedupBase` at
//! the home range it names, carried forward unchanged — a range keeps its
//! home while it stays clean. A clean range therefore stays a one-hop
//! reference to the same home for as long as it stays clean; it is never a
//! reference to a reference, and the read side never follows more than one
//! hop. A generation answers only while the commit that installed it is
//! still the job's head, because that head's link chain is what pins every
//! home in it.
//!
//! The persist path bounds each hit, not each checkpoint: a hit is taken
//! iff `home.depth + 1` fits both the planner's chain cap (7) and the
//! lease's slot budget minus two (a chain of depth `d` pins `d + 1` slots,
//! and one slot must stay free for the next checkpoint to land in), and the
//! frame links to the *youngest* home it references with `chain_depth =
//! home.depth + 1`. Every home a generation holds lies on its installer's
//! link chain, which is linear, so the older homes of a frame lie on the
//! youngest one's chain and the store's chain pinning covers them all;
//! heads the new frame does not reference are released at its commit.
//! Records whose home sits at the bound are materialized again.
//!
//! One lookup serves a range: one home record holds all of it contiguously
//! — any part of a `Raw` record, the whole of an `Lz` one — and the bytes
//! to serve are the ones the generation's state holds there. The plan asks
//! it for each chunk's longest clean head and tail, whose carried block
//! values must be the generation's — unless the last plan served all of a
//! clean chunk from the home it names now, whose bytes those are. The
//! classifier asks it for a record it copied, which must be its whole home
//! record and have that record's content address. A copied record that
//! repeats an earlier copied one the frame served is served from the same
//! home.
//!
//! `DedupSelf` references are byte-compared before they are emitted. Base
//! hits are not: the staged bytes of the home are long gone, so a hit
//! rests on the 64-bit values of its blocks — compared one by one, or
//! folded into a record's [`content_address`] — at persist time, and on
//! restore-side verification: every record re-checks its content address
//! and the frame its end-to-end digest. A collision of block values is as
//! undetectable as a collision of the state digest itself.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use pccheck_util::fnv::{content_address, fnv1a, DIGEST_BLOCK};
use pccheck_util::ByteSize;

use crate::meta::{checksum, CheckMeta};
use crate::store::JobId;

/// Frame table magic: ASCII `PCFRAME1` (little-endian `u64`).
pub(crate) const FRAME_MAGIC: u64 = u64::from_le_bytes(*b"PCFRAME1");

/// Encoded frame header size: magic, count, version, counter,
/// `logical_len`, `full_digest`.
pub(crate) const FRAME_HEADER: usize = 40;

/// Encoded size of one [`FrameRecord`].
pub(crate) const FRAME_RECORD_SIZE: usize = 40;

/// Frame format version. Version 3 defines a record's `digest` as its
/// [`content_address`] (a fold of its own block digests) and `full_digest`
/// as the blocked state digest of [`pccheck_util::fnv`]; no earlier version
/// is read.
pub(crate) const FRAME_VERSION: u32 = 3;

/// Shortest match the LZ coder emits.
pub(crate) const MIN_MATCH: usize = 4;

/// LZ match window (2-byte offsets).
const MAX_OFFSET: usize = 65_535;

/// Sampled-entropy threshold (bits/byte) above which compression is
/// skipped outright: dense random bytes sit at ~8.0, text and sparse
/// tensors well below 7.
pub(crate) const ENTROPY_SKIP_BITS: f64 = 7.2;

/// A kept compressed chunk must save at least `logical/16` bytes.
const MIN_GAIN_SHIFT: u32 = 4;

/// How one record's logical range is stored in the frame's packed region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkEncoding {
    /// Verbatim bytes at `phys_off..+phys_len`.
    Raw,
    /// LZ-compressed bytes at `phys_off..+phys_len`.
    Lz,
    /// Byte-identical to an earlier materialized record of this frame.
    DedupSelf,
    /// Byte-identical to a logical range of the earlier checkpoint the
    /// record names (the range's home), which one record of the home
    /// materialized, pinned through the commit's `DeltaLink` chain.
    DedupBase,
}

impl ChunkEncoding {
    fn to_u32(self) -> u32 {
        match self {
            ChunkEncoding::Raw => 0,
            ChunkEncoding::Lz => 1,
            ChunkEncoding::DedupSelf => 2,
            ChunkEncoding::DedupBase => 3,
        }
    }

    fn from_u32(v: u32) -> Option<ChunkEncoding> {
        match v {
            0 => Some(ChunkEncoding::Raw),
            1 => Some(ChunkEncoding::Lz),
            2 => Some(ChunkEncoding::DedupSelf),
            3 => Some(ChunkEncoding::DedupBase),
            _ => None,
        }
    }

    /// Whether the chunk's bytes are physically present in this frame.
    pub(crate) fn is_materialized(self) -> bool {
        matches!(self, ChunkEncoding::Raw | ChunkEncoding::Lz)
    }
}

/// One logical range's entry in a [`FrameTable`]: a chunk, or the dirty
/// run or clean head or tail of one (module docs, "Frame layout").
///
/// Field meaning depends on `kind`:
///
/// | kind       | `aux`             | `a`            | `b`                  |
/// |------------|-------------------|----------------|----------------------|
/// | Raw / Lz   | 0                 | phys offset    | phys len             |
/// | DedupSelf  | referenced index  | 0              | 0                    |
/// | DedupBase  | home slot         | home counter   | home logical offset  |
///
/// Physical offsets are relative to the start of the packed region (the
/// byte right after the encoded table). A `DedupBase` names the home's
/// logical range `[b, b + logical_len)`, which one materialized record of
/// the home holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameRecord {
    /// Storage class of this chunk.
    pub kind: ChunkEncoding,
    /// Kind-dependent 32-bit field (see table above).
    pub aux: u32,
    /// Length of the chunk's logical (uncompressed) bytes.
    pub logical_len: u64,
    /// Kind-dependent field (see table above).
    pub a: u64,
    /// Kind-dependent field (see table above).
    pub b: u64,
    /// [`content_address`] of the logical bytes.
    pub digest: u64,
}

/// The frame table at the head of a framed slot's payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameTable {
    /// Checkpoint counter this frame belongs to (binds table to commit).
    pub counter: u64,
    /// Total logical payload length the records reconstruct.
    pub logical_len: u64,
    /// End-to-end state digest of the reconstructed logical payload,
    /// seeded with the commit's iteration.
    pub full_digest: u64,
    /// Per-chunk records in logical order.
    pub records: Vec<FrameRecord>,
}

impl FrameTable {
    /// Encoded size of a table holding `count` records.
    pub fn encoded_len_for(count: usize) -> u64 {
        (FRAME_HEADER + count * FRAME_RECORD_SIZE + 8) as u64
    }

    /// The slot size that holds a `state`-byte checkpoint written in
    /// `record`-byte records: the state plus the table of its all-`Raw`
    /// frame — the largest payload any writer persists for it, since a
    /// codec frame is written only when it is smaller.
    pub fn slot_size_for(state: ByteSize, record: ByteSize) -> ByteSize {
        let records = state.as_u64().div_ceil(record.as_u64().max(1));
        state + ByteSize::from_bytes(Self::encoded_len_for(records as usize))
    }

    /// Encoded size of this table.
    // api: a test oracle, listed in DESIGN §4 ("Test oracles").
    pub fn encoded_len(&self) -> u64 {
        Self::encoded_len_for(self.records.len())
    }

    /// Bytes of packed physical chunk data the records reference.
    pub(crate) fn packed_len(&self) -> u64 {
        self.records
            .iter()
            .filter(|r| r.kind.is_materialized())
            .map(|r| r.a + r.b)
            .max()
            .unwrap_or(0)
    }

    /// Total slot payload footprint: table + packed region.
    pub(crate) fn physical_len(&self) -> u64 {
        self.encoded_len() + self.packed_len()
    }

    /// Serializes the table: header, records, trailing FNV-1a CRC.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len() as usize);
        out.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
        out.extend_from_slice(&(self.records.len() as u32).to_le_bytes());
        out.extend_from_slice(&FRAME_VERSION.to_le_bytes());
        out.extend_from_slice(&self.counter.to_le_bytes());
        out.extend_from_slice(&self.logical_len.to_le_bytes());
        out.extend_from_slice(&self.full_digest.to_le_bytes());
        for r in &self.records {
            out.extend_from_slice(&r.kind.to_u32().to_le_bytes());
            out.extend_from_slice(&r.aux.to_le_bytes());
            out.extend_from_slice(&r.logical_len.to_le_bytes());
            out.extend_from_slice(&r.a.to_le_bytes());
            out.extend_from_slice(&r.b.to_le_bytes());
            out.extend_from_slice(&r.digest.to_le_bytes());
        }
        let crc = fnv1a(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Decodes a table from the head of `buf` (trailing packed bytes are
    /// ignored). `None` on bad magic, impossible count, CRC mismatch, an
    /// unknown record kind, a self-reference that is not a backward
    /// pointer at a materialized chunk, or records whose logical lengths
    /// do not sum to `logical_len` — the advisory-table discipline:
    /// callers fall back rather than trust a damaged frame.
    pub fn decode(buf: &[u8]) -> Option<FrameTable> {
        if buf.len() < FRAME_HEADER + 8 {
            return None;
        }
        if u64::from_le_bytes(buf[0..8].try_into().expect("8 bytes")) != FRAME_MAGIC {
            return None;
        }
        let count = u32::from_le_bytes(buf[8..12].try_into().expect("4 bytes")) as usize;
        if u32::from_le_bytes(buf[12..16].try_into().expect("4 bytes")) != FRAME_VERSION {
            return None;
        }
        let table_len = Self::encoded_len_for(count) as usize;
        if table_len > buf.len() {
            return None;
        }
        let crc_off = table_len - 8;
        let stored = u64::from_le_bytes(buf[crc_off..table_len].try_into().expect("8 bytes"));
        if fnv1a(&buf[..crc_off]) != stored {
            return None;
        }
        let counter = u64::from_le_bytes(buf[16..24].try_into().expect("8 bytes"));
        let logical_len = u64::from_le_bytes(buf[24..32].try_into().expect("8 bytes"));
        let full_digest = u64::from_le_bytes(buf[32..40].try_into().expect("8 bytes"));
        let mut records = Vec::with_capacity(count);
        let mut off = FRAME_HEADER;
        let mut logical_sum = 0u64;
        for i in 0..count {
            let kind = ChunkEncoding::from_u32(u32::from_le_bytes(
                buf[off..off + 4].try_into().expect("4 bytes"),
            ))?;
            let aux = u32::from_le_bytes(buf[off + 4..off + 8].try_into().expect("4 bytes"));
            let r = FrameRecord {
                kind,
                aux,
                logical_len: u64::from_le_bytes(buf[off + 8..off + 16].try_into().expect("8")),
                a: u64::from_le_bytes(buf[off + 16..off + 24].try_into().expect("8")),
                b: u64::from_le_bytes(buf[off + 24..off + 32].try_into().expect("8")),
                digest: u64::from_le_bytes(buf[off + 32..off + 40].try_into().expect("8")),
            };
            if kind == ChunkEncoding::DedupSelf {
                let target = aux as usize;
                if target >= i {
                    return None;
                }
                let t: &FrameRecord = &records[target];
                if !t.kind.is_materialized() || t.logical_len != r.logical_len {
                    return None;
                }
            }
            logical_sum = logical_sum.checked_add(r.logical_len)?;
            records.push(r);
            off += FRAME_RECORD_SIZE;
        }
        if logical_sum != logical_len {
            return None;
        }
        Some(FrameTable {
            counter,
            logical_len,
            full_digest,
            records,
        })
    }
}

/// `payload`, a state whose state digest is `full_digest`, as checkpoint
/// `counter`'s all-`Raw` frame of `record`-byte records, and the digest its
/// commit records: for whoever holds a whole state in memory.
/// Each record is packed at its own logical offset, so the packed region is
/// the state verbatim.
pub fn raw_frame(counter: u64, full_digest: u64, payload: &[u8], record: usize) -> (Vec<u8>, u64) {
    let raw = |(k, r): (usize, &[u8])| {
        let (kind, aux, logical_len) = (ChunkEncoding::Raw, 0, r.len() as u64);
        let (a, b, digest) = ((k * record.max(1)) as u64, logical_len, content_address(r));
        FrameRecord {
            kind,
            aux,
            logical_len,
            a,
            b,
            digest,
        }
    };
    let records = payload.chunks(record.max(1)).enumerate().map(raw).collect();
    let logical_len = payload.len() as u64;
    let table = FrameTable {
        counter,
        logical_len,
        full_digest,
        records,
    };
    let mut frame = table.encode();
    let digest = checksum(&frame);
    frame.extend_from_slice(payload);
    (frame, digest)
}

/// Decodes the frame table at the head of `payload` and binds it to its
/// commit record: a commit's digest is the checksum of the serialized
/// table, and the table names the commit's counter. `None` on a torn
/// table or one that belongs to a different commit.
pub fn bind_frame_table(payload: &[u8], meta: &CheckMeta) -> Option<FrameTable> {
    let table = FrameTable::decode(payload)?;
    let table_len = usize::try_from(table.encoded_len()).ok()?;
    (table.counter == meta.counter && checksum(payload.get(..table_len)?) == meta.digest)
        .then_some(table)
}

/// Reads `buf.len()` durable bytes at payload offset `at` of slot `slot`;
/// `false` on a fault. All a plan, and its executor, ask of a device.
pub(crate) type SlotRead<'a> = dyn Fn(u32, u64, &mut [u8]) -> bool + Sync + 'a;

/// Where one [`Job`]'s bytes come from; `at` is a payload offset of `slot`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JobSource {
    /// The job's bytes, verbatim: a `Raw` record of the head or of a home.
    Verbatim { slot: u32, at: u64 },
    /// An LZ block of `phys_len` bytes.
    Lz { slot: u32, at: u64, phys_len: u64 },
    /// The bytes job `of` landed — always an earlier `Verbatim` or `Lz`
    /// job of equal length and address: `DedupSelf` records and repeated
    /// base content resolve to the one job that reads the content.
    Copy { of: usize },
}

/// One independent unit of a [`RestorePlan`]: the logical range
/// `[off, off + len)`, the one source that fills it, and the
/// [`content_address`] the landed bytes must have (its record's).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Job {
    pub off: u64,
    pub len: u64,
    pub source: JobSource,
    pub digest: u64,
}

/// A recovery candidate compiled for the restore executor: jobs that tile
/// `[0, len)` in logical order, and the state digest — seeded with
/// `iteration` and `len` — the landed bytes must fold to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RestorePlan {
    pub len: u64,
    pub iteration: u64,
    pub digest: u64,
    pub jobs: Vec<Job>,
}

impl RestorePlan {
    /// Compiles the checkpoint committed as `meta`, reading frame tables
    /// only: one job per record. `Raw` and `Lz` records read their packed
    /// range; `DedupSelf` copies the job of the record it names;
    /// `DedupBase` reads the logical range `[b, b + logical_len)` of its
    /// home — found among `commits` by `(counter, slot)`, its table read and
    /// bound once — from the one record of the home that holds it, each
    /// distinct `(digest, len)` once: repeats copy the job that read it.
    ///
    /// `None` on an unreadable head, a torn table or one bound to another
    /// commit, a missing home, a home range that leaves the home's payload,
    /// straddles two of its records or cuts into an `Lz` one, a record
    /// whose physical range leaves the payload that should hold it, or a
    /// `DedupSelf` whose content address is not the one of the record it
    /// names: the caller falls back, as on any other verification failure.
    pub(crate) fn compile(
        meta: &CheckMeta,
        commits: &[CheckMeta],
        read: &SlotRead<'_>,
    ) -> Option<RestorePlan> {
        let table = read_table(meta, read)?;
        let mut homes: HashMap<(u64, u32), Option<Home>> = HashMap::new();
        // The job that reads each distinct base chunk.
        let mut resolved: HashMap<(u64, u64), usize> = HashMap::new();
        let mut jobs: Vec<Job> = Vec::with_capacity(table.records.len());
        let mut off = 0u64;
        for (i, r) in table.records.iter().enumerate() {
            let source = match r.kind {
                ChunkEncoding::Raw | ChunkEncoding::Lz => physical(meta, table.encoded_len(), r)?,
                // `FrameTable::decode` validated `aux` as a backward
                // materialized reference of equal logical length.
                ChunkEncoding::DedupSelf => JobSource::Copy { of: r.aux as usize },
                ChunkEncoding::DedupBase => match resolved.entry((r.digest, r.logical_len)) {
                    Entry::Occupied(first) => JobSource::Copy { of: *first.get() },
                    Entry::Vacant(first) => {
                        first.insert(i);
                        let home = homes
                            .entry((r.a, r.aux))
                            .or_insert_with(|| Home::bind(commits, read, r.a, r.aux));
                        home.as_ref()?.source(r)?
                    }
                },
            };
            // A copy lands its source's bytes, so it has its source's
            // address or the table lies: the executor takes a copy's block
            // values from its source and digests nothing of it.
            if let JobSource::Copy { of } = source {
                if jobs[of].digest != r.digest {
                    return None;
                }
            }
            jobs.push(Job {
                off,
                len: r.logical_len,
                source,
                digest: r.digest,
            });
            off += r.logical_len; // `decode` summed these without overflow
        }
        // A GPU's restore staging holds an older state's bytes, not zeros:
        // a byte no job lands would train as that state's.
        assert!(
            tiles(&jobs, table.logical_len),
            "a restore plan's jobs must tile its payload exactly once"
        );
        Some(RestorePlan {
            len: table.logical_len,
            iteration: meta.iteration,
            digest: table.full_digest,
            jobs,
        })
    }
}

/// Whether `jobs` tile `[0, len)` exactly once, in order: each starts where
/// the one before it ended, and the last ends at `len`.
fn tiles(jobs: &[Job], len: u64) -> bool {
    let end = jobs.iter().try_fold(0u64, |end, job| {
        (job.off == end).then(|| end.checked_add(job.len)).flatten()
    });
    end == Some(len)
}

/// The frame table at the head of `meta`'s slot payload, bound to `meta`
/// by [`bind_frame_table`], read without the packed region behind it: the
/// header names the record count, and the table length that implies is
/// bounded by the commit's `payload_len` before a byte is allocated.
/// `None` on an unreadable head, or a table that is torn, too long for its
/// payload, or another commit's.
pub fn read_table(meta: &CheckMeta, read: &SlotRead<'_>) -> Option<FrameTable> {
    if meta.payload_len < FrameTable::encoded_len_for(0) {
        return None;
    }
    let mut head = [0u8; FRAME_HEADER];
    if !read(meta.slot, 0, &mut head) {
        return None;
    }
    let count = u32::from_le_bytes(head[8..12].try_into().expect("4 bytes")) as usize;
    let len = FrameTable::encoded_len_for(count);
    if len > meta.payload_len {
        return None;
    }
    let mut bytes = vec![0u8; usize::try_from(len).ok()?];
    bytes[..FRAME_HEADER].copy_from_slice(&head);
    read(meta.slot, FRAME_HEADER as u64, &mut bytes[FRAME_HEADER..])
        .then(|| bind_frame_table(&bytes, meta))?
}

/// Where the bytes of `r`, a materialized record of the frame committed as
/// `meta`, lie — its packed region starting at payload offset `packed`.
/// `None` when the range leaves the payload or a `Raw` record is not
/// exactly its logical length.
fn physical(meta: &CheckMeta, packed: u64, r: &FrameRecord) -> Option<JobSource> {
    let (slot, at, phys_len) = (meta.slot, packed.checked_add(r.a)?, r.b);
    if at.checked_add(phys_len)? > meta.payload_len {
        return None;
    }
    match r.kind {
        ChunkEncoding::Raw if phys_len == r.logical_len => Some(JobSource::Verbatim { slot, at }),
        ChunkEncoding::Lz => Some(JobSource::Lz { slot, at, phys_len }),
        _ => None,
    }
}

/// A dedup home as a plan holds it: its commit record, where its packed
/// region starts, and its records with the logical offset each starts at,
/// in logical order. None of its packed bytes are read here.
struct Home {
    meta: CheckMeta,
    packed: u64,
    records: Vec<(u64, FrameRecord)>,
}

impl Home {
    /// Finds checkpoint `counter` in `slot` among `commits` and binds its
    /// table to that record, once per home, so resolving a frame of
    /// references stays linear.
    fn bind(commits: &[CheckMeta], read: &SlotRead<'_>, counter: u64, slot: u32) -> Option<Home> {
        let meta = *commits
            .iter()
            .find(|c| c.counter == counter && c.slot == slot)?;
        let table = read_table(&meta, read)?;
        let mut off = 0u64;
        let records = table.records.iter().map(|r| {
            off += r.logical_len; // `decode` summed these without overflow
            (off - r.logical_len, *r)
        });
        Some(Home {
            meta,
            packed: table.encoded_len(),
            records: records.collect(),
        })
    }

    /// The range holding the bytes a [`ChunkEncoding::DedupBase`] record
    /// names: the home's logical range `[b, b + logical_len)`, which must
    /// lie inside one record the home materialized — any part of a `Raw`
    /// one, the whole of an `Lz` one. A reference always names the home
    /// that holds the bytes, so one hop always suffices.
    fn source(&self, r: &FrameRecord) -> Option<JobSource> {
        let k = (self.records).partition_point(|(off, held)| off + held.logical_len <= r.b);
        let &(off, held) = self.records.get(k)?;
        let end = r.b.checked_add(r.logical_len)?;
        if r.b < off || end > off + held.logical_len {
            return None;
        }
        match held.kind {
            ChunkEncoding::Raw if held.b == held.logical_len => {
                let part = FrameRecord {
                    logical_len: r.logical_len,
                    a: held.a.checked_add(r.b - off)?,
                    b: r.logical_len,
                    ..held
                };
                physical(&self.meta, self.packed, &part)
            }
            ChunkEncoding::Lz if (r.b, r.logical_len) == (off, held.logical_len) => {
                physical(&self.meta, self.packed, &held)
            }
            _ => None,
        }
    }
}

/// Estimates Shannon entropy (bits/byte) from an evenly strided sample of
/// at most 4 KiB.
pub(crate) fn entropy_estimate(data: &[u8]) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let stride = (data.len() / 4096).max(1);
    let mut hist = [0u32; 256];
    let mut n = 0u32;
    let mut i = 0;
    while i < data.len() {
        hist[data[i] as usize] += 1;
        n += 1;
        i += stride;
    }
    let n = f64::from(n);
    let mut bits = 0.0;
    for &c in &hist {
        if c > 0 {
            let p = f64::from(c) / n;
            bits -= p * p.log2();
        }
    }
    bits
}

/// Compresses `src`, or `None` when the result would not be worth keeping.
///
/// `None` means "store raw": the sampled entropy exceeded
/// `ENTROPY_SKIP_BITS`, the input was shorter than a match, or the
/// compressed form failed the minimum-gain bar (≥ 1/16 smaller).
pub fn compress_gated(src: &[u8]) -> Option<Vec<u8>> {
    if src.len() < MIN_MATCH * 2 || entropy_estimate(src) > ENTROPY_SKIP_BITS {
        return None;
    }
    let limit = src.len() - (src.len() >> MIN_GAIN_SHIFT);
    lz_compress_limit(src, limit)
}

/// Greedy LZ compression of `src`; `None` when the output would reach
/// `limit` bytes (not worth keeping).
fn lz_compress_limit(src: &[u8], limit: usize) -> Option<Vec<u8>> {
    const HASH_BITS: u32 = 13;
    let mut table = [0usize; 1 << HASH_BITS]; // position + 1; 0 = empty
    let hash = |w: u32| -> usize { (w.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize };
    let word_at =
        |i: usize| -> u32 { u32::from_le_bytes(src[i..i + 4].try_into().expect("4-byte window")) };

    let mut out = Vec::with_capacity(limit.min(src.len()));
    let mut lit_start = 0usize;
    let mut i = 0usize;
    // Leave a 4-byte tail so `word_at` never reads past the end.
    let search_end = src.len().saturating_sub(MIN_MATCH);
    while i < search_end {
        let w = word_at(i);
        let h = hash(w);
        let cand = table[h];
        table[h] = i + 1;
        let matched = cand > 0 && {
            let c = cand - 1;
            i - c <= MAX_OFFSET && word_at(c) == w
        };
        if !matched {
            i += 1;
            continue;
        }
        let c = cand - 1;
        let mlen = MIN_MATCH + common_prefix(&src[c + MIN_MATCH..], &src[i + MIN_MATCH..]);
        emit_sequence(&mut out, &src[lit_start..i], (i - c) as u16, mlen);
        if out.len() >= limit {
            return None;
        }
        i += mlen;
        lit_start = i;
    }
    emit_literals_only(&mut out, &src[lit_start..]);
    (out.len() < limit).then_some(out)
}

/// How many leading bytes `a` and `b` share, up to the shorter one: a
/// match's extension, compared eight bytes at a time — the first differing
/// word's lowest set bit names the first differing byte — and byte by byte
/// over the last `< 8`.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let word = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("an 8-byte chunk"));
    let mut k = 0;
    for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let diff = word(x) ^ word(y);
        if diff != 0 {
            return k + (diff.trailing_zeros() / 8) as usize;
        }
        k += 8;
    }
    k + a[k..]
        .iter()
        .zip(&b[k..])
        .take_while(|(x, y)| x == y)
        .count()
}

fn write_run(out: &mut Vec<u8>, mut run: usize) {
    while run >= 255 {
        out.push(255);
        run -= 255;
    }
    out.push(run as u8);
}

fn emit_sequence(out: &mut Vec<u8>, literals: &[u8], offset: u16, match_len: usize) {
    let lit_nib = literals.len().min(15) as u8;
    let m = match_len - MIN_MATCH;
    let m_nib = m.min(15) as u8;
    out.push((lit_nib << 4) | m_nib);
    if lit_nib == 15 {
        write_run(out, literals.len() - 15);
    }
    out.extend_from_slice(literals);
    out.extend_from_slice(&offset.to_le_bytes());
    if m_nib == 15 {
        write_run(out, m - 15);
    }
}

fn emit_literals_only(out: &mut Vec<u8>, literals: &[u8]) {
    let lit_nib = literals.len().min(15) as u8;
    out.push(lit_nib << 4); // match nibble 0 + no offset = terminal
    if lit_nib == 15 {
        write_run(out, literals.len() - 15);
    }
    out.extend_from_slice(literals);
}

/// Decompresses an LZ block produced by this module into exactly
/// `logical_len` bytes. `None` on any malformed input (truncated stream,
/// out-of-window offset, wrong output length) — restore treats that as a
/// corrupt chunk and fails the candidate.
pub fn lz_decompress(src: &[u8], logical_len: usize) -> Option<Vec<u8>> {
    let mut out = vec![0u8; logical_len];
    lz_decompress_into(src, &mut out).then_some(out)
}

/// [`lz_decompress`] into memory the caller owns: decodes `src` over `dst`
/// and says whether it was a well-formed block of exactly `dst.len()`
/// bytes. On `false`, `dst` holds garbage.
pub(crate) fn lz_decompress_into(src: &[u8], dst: &mut [u8]) -> bool {
    // One run length: a nibble, extended by 255-continuation bytes.
    let run = |i: &mut usize, nibble: u8| {
        let (mut run, mut more) = (usize::from(nibble), nibble == 15);
        while more {
            let b = *src.get(*i)?;
            (*i, run, more) = (*i + 1, run + usize::from(b), b == 255);
        }
        Some(run)
    };
    let (mut i, mut o) = (0usize, 0usize);
    let mut decode = || loop {
        let token = *src.get(i)?;
        i += 1;
        let lit = run(&mut i, token >> 4)?;
        let literals = src.get(i..i.checked_add(lit)?)?;
        dst.get_mut(o..o + lit)?.copy_from_slice(literals);
        i += lit;
        o += lit;
        if i == src.len() {
            // Terminal literals-only sequence (match nibble must be 0).
            return (token & 0x0F == 0 && o == dst.len()).then_some(());
        }
        let offset = usize::from(u16::from_le_bytes(
            src.get(i..i + 2)?.try_into().expect("2 bytes"),
        ));
        i += 2;
        let mlen = run(&mut i, token & 0x0F)? + MIN_MATCH;
        if offset == 0 || offset > o || mlen > dst.len() - o {
            return None;
        }
        // A match may overlap its own output (offset < mlen is the
        // run-length case): copy what is already there, which doubles with
        // every pass — `[start, o + done)` is periodic in `offset`, and
        // `done` stays a multiple of it until the last pass.
        let (start, mut done) = (o - offset, 0);
        while done < mlen {
            let n = (mlen - done).min(offset + done);
            dst.copy_within(start..start + n, o + done);
            done += n;
        }
        o += mlen;
    };
    decode().is_some()
}

/// A home: a record of a committed checkpoint, which physically holds bytes
/// a later frame may name instead of writing them again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DedupHome {
    /// Counter of the checkpoint that materialized the record.
    pub counter: u64,
    /// Slot holding that checkpoint.
    pub slot: u32,
    /// Logical byte offset of the record within that checkpoint's payload.
    pub logical_off: u64,
    /// The record's logical length.
    pub len: u64,
    /// The record's [`content_address`].
    pub digest: u64,
    /// Whether the record is `Lz`, which is served only whole.
    pub lz: bool,
    /// Chain depth of the home checkpoint (0 = unlinked). A frame that
    /// references this home commits at depth `depth + 1` or deeper.
    pub depth: u32,
}

/// Bytes a home serves: `len` bytes of its record, from the home
/// checkpoint's logical offset `at` on — a `DedupBase` record's `b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Hit {
    pub(crate) home: DedupHome,
    pub(crate) at: u64,
    pub(crate) len: u64,
}

impl Hit {
    /// All of `home`'s record.
    pub(crate) fn whole(home: DedupHome) -> Hit {
        Hit {
            home,
            at: home.logical_off,
            len: home.len,
        }
    }

    /// The served bytes' content address, when they are the whole record,
    /// whose address the home carries.
    pub(crate) fn address(&self) -> Option<u64> {
        (*self == Hit::whole(self.home)).then_some(self.home.digest)
    }
}

/// The digest blocks of `[off, off + len)`: those it shares a byte with.
pub(crate) fn block_range(off: u64, len: u64) -> Range<usize> {
    let block = DIGEST_BLOCK as u64;
    (off / block) as usize..(off + len).div_ceil(block) as usize
}

/// One job's homes as of one framed commit. Immutable once installed: a
/// copy that observes it keeps it for its whole frame, whatever is
/// installed after.
#[derive(Debug, Default)]
pub(crate) struct Generation {
    /// Counter of the commit that installed this generation; its link
    /// chain pins every home below.
    head: u64,
    /// Where each range of the installer's state lies.
    index: Arc<Homes>,
}

impl Generation {
    /// The one lookup (module docs, "Dedup index lifetime"): the hit that
    /// serves the longest head of `range` — its longest tail, if `back` —
    /// that one home record holds contiguously and, if the caller names
    /// the values it `carried` for the bytes it would serve, whose every
    /// block has a filed carried value that is the installer's. `None` when
    /// not even one block of it is held so, or when the record is `Lz` and
    /// the run is not all of it.
    pub(crate) fn reach(
        &self,
        range: Range<u64>,
        back: bool,
        carried: Option<Carried<'_>>,
    ) -> Option<Hit> {
        if range.is_empty() {
            return None;
        }
        let homes = &self.index;
        let probe = if back { range.end - 1 } else { range.start };
        let k = (homes.runs).partition_point(|(off, hit)| off + hit.len <= probe);
        let &(off, hit) = homes.runs.get(k).filter(|(off, _)| *off <= probe)?;
        let (mut lo, mut hi) = (range.start.max(off), range.end.min(off + hit.len));
        // The first block whose carried value is unfiled or not the
        // installer's ends the run.
        if let Some((values, filed)) = carried {
            let blocks = block_range(lo, hi - lo);
            let held = homes.values.get(blocks.clone())?.iter();
            let carried = values
                .get(blocks.clone())?
                .iter()
                .zip(filed.get(blocks.clone())?);
            let mut same = held.zip(carried).map(|(held, (value, filed))| {
                let (value, held) = (value.load(Ordering::Relaxed), held.load(Ordering::Relaxed));
                filed.load(Ordering::Acquire) && value == held
            });
            let at = |k: usize| ((blocks.start + k) as u64 * DIGEST_BLOCK as u64).clamp(lo, hi);
            match back {
                true => lo = same.rposition(|same| !same).map_or(lo, |k| at(k + 1)),
                false => hi = same.position(|same| !same).map_or(hi, at),
            }
        }
        let hit = Hit {
            home: hit.home,
            at: hit.at + (lo - off),
            len: hi - lo,
        };
        (hi > lo && (!hit.home.lz || hit.address().is_some())).then_some(hit)
    }
}

/// Block values a caller carried, and whether each is filed yet.
pub(crate) type Carried<'a> = (&'a [AtomicU64], &'a [AtomicBool]);

/// Where each range of a committed state lies: by logical position, the
/// home record that holds it — a record of the committing frame, or the
/// home a reference of that frame named — and where in that record; and
/// each digest block's value, so a later plan can tell whether the bytes
/// it would serve are that block's.
#[derive(Debug, Default)]
pub(crate) struct Homes {
    /// Disjoint, by logical offset once installed: the state's bytes at
    /// `off..off + hit.len` are the home's at `hit.at..`.
    runs: Vec<(u64, Hit)>,
    /// By block: the committed state's value, shared with the digests the
    /// frame folded, which nothing writes once the frame has drained.
    values: Arc<[AtomicU64]>,
}

impl Homes {
    /// No home yet for any range of the state whose block values are
    /// `values`.
    pub(crate) fn new(values: &Arc<[AtomicU64]>) -> Homes {
        Homes {
            runs: Vec::new(),
            values: Arc::clone(values),
        }
    }

    /// Homes the state's bytes from logical offset `off` on at `hit`, in
    /// any order: [`installable`](Self::installable) sorts.
    pub(crate) fn home(&mut self, off: u64, hit: Hit) {
        self.runs.push((off, hit));
    }

    /// These homes, in logical order, for a generation to install.
    pub(crate) fn installable(mut self) -> Arc<Homes> {
        self.runs.sort_unstable_by_key(|&(off, _)| off);
        Arc::new(self)
    }
}

/// Index from each range of a job's latest framed commit to the home that
/// holds it.
///
/// One generation per job: installing a new commit's homes evicts the
/// prior generation wholesale, and a generation answers only while its
/// installer is the job's head — the lifetime over which that head's link
/// chain pins every home it names. Jobs are keyed by their id, so tenants
/// of one store never dedup across namespaces.
#[derive(Debug, Default)]
pub(crate) struct DedupIndex {
    generations: HashMap<JobId, Arc<Generation>>,
}

impl DedupIndex {
    /// Replaces `job`'s generation with the homes of the just-committed
    /// checkpoint `head`. A late install from a commit an
    /// already-installed newer one displaced is dropped.
    pub(crate) fn install(&mut self, job: JobId, head: u64, index: &Arc<Homes>) {
        if self.generations.get(&job).is_some_and(|g| g.head > head) {
            return;
        }
        let index = Arc::clone(index);
        self.generations
            .insert(job, Arc::new(Generation { head, index }));
    }

    /// `job`'s generation, only when checkpoint `head` installed it — any
    /// other generation names homes the current head's chain may not pin.
    pub(crate) fn observe(&self, job: JobId, head: u64) -> Option<Arc<Generation>> {
        let g = self.generations.get(&job)?;
        (g.head == head).then(|| Arc::clone(g))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pccheck_util::fnv::state_digest;
    use pccheck_util::rng::{check, DEFAULT_CASES};

    impl Homes {
        /// The home records, by logical offset.
        pub(crate) fn records(&self) -> impl Iterator<Item = DedupHome> + '_ {
            self.runs.iter().map(|(_, hit)| hit.home)
        }
    }

    impl DedupIndex {
        /// The hit that serves all of `[off, off + len)` in the generation
        /// checkpoint `head` installed.
        pub(crate) fn lookup(&self, job: JobId, head: u64, off: u64, len: u64) -> Option<Hit> {
            let generation = self.observe(job, head)?;
            let hit = generation.reach(off..off + len, false, None)?;
            (hit.len == len).then_some(hit)
        }

        /// The checkpoint counter of `job`'s current generation, if any.
        pub(crate) fn generation_counter(&self, job: JobId) -> Option<u64> {
            self.generations.get(&job).map(|g| g.head)
        }
    }

    fn sample_table() -> FrameTable {
        FrameTable {
            counter: 42,
            logical_len: 300,
            full_digest: 0xfeed_face_dead_beef,
            records: vec![
                FrameRecord {
                    kind: ChunkEncoding::Raw,
                    aux: 0,
                    logical_len: 100,
                    a: 0,
                    b: 100,
                    digest: 11,
                },
                FrameRecord {
                    kind: ChunkEncoding::Lz,
                    aux: 0,
                    logical_len: 100,
                    a: 100,
                    b: 40,
                    digest: 22,
                },
                FrameRecord {
                    kind: ChunkEncoding::DedupSelf,
                    aux: 0,
                    logical_len: 100,
                    a: 0,
                    b: 0,
                    digest: 11,
                },
            ],
        }
    }

    #[test]
    fn frame_encode_decode_round_trip() {
        let t = sample_table();
        let buf = t.encode();
        assert_eq!(buf.len() as u64, t.encoded_len());
        assert_eq!(FrameTable::decode(&buf).unwrap(), t);
        assert_eq!(t.packed_len(), 140);
        assert_eq!(t.physical_len(), t.encoded_len() + 140);
    }

    #[test]
    fn frame_decode_ignores_trailing_packed_bytes() {
        let t = sample_table();
        let mut buf = t.encode();
        buf.extend_from_slice(&[0x5A; 140]);
        assert_eq!(FrameTable::decode(&buf).unwrap(), t);
    }

    #[test]
    fn frame_decode_rejects_any_single_bitflip() {
        let good = sample_table().encode();
        for pos in 0..good.len() {
            let mut buf = good.clone();
            buf[pos] ^= 0x08;
            assert!(
                FrameTable::decode(&buf).is_none(),
                "bitflip at {pos} not detected"
            );
        }
    }

    #[test]
    fn frame_decode_rejects_forward_self_reference() {
        let mut t = sample_table();
        t.records[2].aux = 2; // self-reference (not a backward pointer)
        assert!(FrameTable::decode(&t.encode()).is_none());
        t.records[2].aux = 5; // forward/out-of-range
        assert!(FrameTable::decode(&t.encode()).is_none());
    }

    #[test]
    fn frame_decode_rejects_logical_len_mismatch() {
        let mut t = sample_table();
        t.logical_len = 299;
        assert!(FrameTable::decode(&t.encode()).is_none());
    }

    #[test]
    fn frame_decode_rejects_impossible_count() {
        let mut buf = sample_table().encode();
        buf[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(FrameTable::decode(&buf).is_none());
    }

    #[test]
    fn lz_round_trips_compressible_data() {
        let mut src = Vec::new();
        for i in 0..4096u32 {
            src.push((i % 7) as u8);
        }
        let comp = compress_gated(&src).expect("repetitive data compresses");
        assert!(comp.len() < src.len() / 2);
        assert_eq!(lz_decompress(&comp, src.len()).unwrap(), src);
    }

    #[test]
    fn lz_skips_incompressible_data() {
        let mut src = vec![0u8; 4096];
        pccheck_util::rng::fill_deterministic(&mut src, 99);
        assert!(compress_gated(&src).is_none());
    }

    #[test]
    fn entropy_gate_orders_payload_classes() {
        let zeros = vec![0u8; 4096];
        let mut noise = vec![0u8; 4096];
        pccheck_util::rng::fill_deterministic(&mut noise, 3);
        assert!(entropy_estimate(&zeros) < 0.1);
        assert!(entropy_estimate(&noise) > ENTROPY_SKIP_BITS);
    }

    #[test]
    fn lz_decompress_rejects_truncation_and_bad_offsets() {
        let src = vec![7u8; 600];
        let comp = compress_gated(&src).unwrap();
        for cut in 1..comp.len() {
            // Any strict prefix either fails outright or yields the wrong
            // length; never a silent wrong answer.
            if let Some(out) = lz_decompress(&comp[..cut], src.len()) {
                assert_eq!(out, src);
            }
        }
        // A match before any literals (offset into an empty window).
        assert!(lz_decompress(&[0x01, 0x01, 0x00], 5).is_none());
    }

    fn home(counter: u64, slot: u32, logical_off: u64, len: u64, depth: u32) -> DedupHome {
        DedupHome {
            counter,
            slot,
            logical_off,
            len,
            digest: counter << 32 | logical_off,
            lz: false,
            depth,
        }
    }

    /// Homes over a state of `blocks` digest blocks, whose values
    /// are `0, 1, 2, …`, from `runs` of `(logical offset, hit)`.
    fn homes_over(blocks: u64, runs: &[(u64, Hit)]) -> Arc<Homes> {
        let values: Arc<[AtomicU64]> = (0..blocks).map(AtomicU64::new).collect();
        let mut homes = Homes::new(&values);
        for &(off, hit) in runs.iter().rev() {
            homes.home(off, hit);
        }
        homes.installable()
    }

    /// Homes of a one-block state that `home` holds all of.
    fn whole_state(home: DedupHome) -> Arc<Homes> {
        homes_over(1, &[(0, Hit::whole(home))])
    }

    #[test]
    fn dedup_index_answers_only_for_its_installer() {
        let mut idx = DedupIndex::default();
        // Checkpoint 7 materialized `[0, 64)` and carried `[64, 128)` from
        // checkpoint 5, which holds those bytes at its own `[0, 64)`.
        let carried = Hit {
            home: home(5, 0, 0, 64, 0),
            at: 0,
            len: 64,
        };
        let own = Hit::whole(home(7, 2, 0, 64, 1));
        idx.install(0, 7, &homes_over(1, &[(0, own), (64, carried)]));
        assert_eq!(idx.lookup(0, 7, 0, 64), Some(own));
        assert_eq!(
            idx.lookup(0, 7, 64, 64),
            Some(carried),
            "a carried hit keeps its original home, at its offset there"
        );
        assert_eq!(own.address(), Some(own.home.digest));
        // Another head: its chain may not pin these homes.
        assert!(idx.lookup(0, 6, 0, 64).is_none());
        // No one record holds a range that spans two homes.
        assert!(idx.lookup(0, 7, 0, 128).is_none());
        // Installing the next generation evicts the old one.
        idx.install(0, 8, &whole_state(home(8, 0, 0, 128, 0)));
        let part = idx.lookup(0, 8, 64, 64).expect("any part of a Raw record");
        assert_eq!((part.home.counter, part.at, part.address()), (8, 64, None));
        assert_eq!(idx.generation_counter(0), Some(8));
        // A displaced commit installing late does not roll it back.
        idx.install(0, 7, &homes_over(1, &[(0, own)]));
        assert_eq!(idx.generation_counter(0), Some(8));
    }

    #[test]
    fn dedup_index_is_per_job() {
        let mut idx = DedupIndex::default();
        idx.install(1, 5, &whole_state(home(5, 0, 0, 128, 0)));
        idx.install(2, 9, &whole_state(home(9, 1, 0, 128, 0)));
        assert_eq!(idx.lookup(1, 5, 0, 128).unwrap().home.counter, 5);
        assert_eq!(idx.lookup(2, 9, 0, 128).unwrap().home.counter, 9);
        assert!(idx.lookup(3, 5, 0, 128).is_none());
    }

    #[test]
    fn a_generation_serves_a_run_one_record_holds_with_the_installers_values() {
        const B: u64 = DIGEST_BLOCK as u64;
        // Blocks 0..4 lie in one `Raw` record of checkpoint 3 at another
        // offset; blocks 4..6 are all of an `Lz` record of it.
        let raw = home(3, 1, 8 * B, 4 * B, 0);
        let lz = DedupHome {
            lz: true,
            ..home(3, 1, 16 * B, 2 * B, 0)
        };
        let generation = Generation {
            head: 3,
            index: homes_over(6, &[(0, Hit::whole(raw)), (4 * B, Hit::whole(lz))]),
        };
        // The carried values: the installer's but at block `stale`.
        let reach = |range: Range<u64>, back, stale: u64| {
            let values: Vec<_> = (0..6)
                .map(|b| AtomicU64::new(b + 10 * u64::from(b == stale)))
                .collect();
            let filed: Vec<_> = (0..6).map(|_| AtomicBool::new(true)).collect();
            let hit = generation.reach(range, back, Some((&values, &filed)));
            hit.map(|hit| (hit.at / B, hit.len / B))
        };
        // A head stops at the record's end, or at the first block whose
        // bytes are not the installer's; a tail, back from its end.
        assert_eq!(reach(0..6 * B, false, 9), Some((8, 4)));
        assert_eq!(reach(0..4 * B, false, 2), Some((8, 2)));
        assert_eq!(reach(B..4 * B, true, 1), Some((10, 2)));
        assert_eq!(reach(0..4 * B, false, 0), None);
        // An `Lz` record serves all of itself or nothing.
        assert_eq!(reach(0..6 * B, true, 9), Some((16, 2)));
        assert_eq!(reach(4 * B..5 * B, false, 9), None);
        assert_eq!(reach(4 * B..6 * B, true, 5), None);
        assert_eq!(reach(6 * B..7 * B, false, 9), None, "nothing homes it");
        // Without carried values, the run is all the record holds of it.
        assert_eq!(
            generation.reach(B..5 * B, false, None).map(|hit| hit.at),
            Some(9 * B)
        );
    }

    /// A hand-assembled frame exercising every record kind, its commit
    /// record, the all-`Raw` base checkpoint it references, and the logical
    /// payload it must reconstruct.
    struct FrameFixture {
        payload: Vec<u8>,
        meta: CheckMeta,
        table: FrameTable,
        base_meta: CheckMeta,
        base_payload: Vec<u8>,
        logical: Vec<u8>,
    }

    /// The fixture frame's commit record over (possibly re-encoded)
    /// `table_bytes`.
    fn meta_for(table_bytes: &[u8], payload_len: u64) -> CheckMeta {
        CheckMeta {
            counter: 9,
            slot: 0,
            iteration: 3,
            payload_len,
            digest: checksum(table_bytes),
            delta: None,
        }
    }

    fn frame_fixture() -> FrameFixture {
        let mut raw = vec![0u8; 64];
        pccheck_util::rng::fill_deterministic(&mut raw, 5);
        let text: Vec<u8> = (0..256u32).map(|i| (i % 5) as u8).collect();
        let lz = compress_gated(&text).expect("periodic bytes compress");
        let mut base_state = vec![0u8; 128];
        pccheck_util::rng::fill_deterministic(&mut base_state, 6);
        let from_base = base_state[64..128].to_vec();
        let (base_payload, base_digest) =
            raw_frame(5, state_digest(2, &base_state), &base_state, 64);
        let base_meta = CheckMeta {
            counter: 5,
            slot: 1,
            iteration: 2,
            payload_len: base_payload.len() as u64,
            digest: base_digest,
            delta: None,
        };

        let logical = [&raw[..], &text, &raw, &from_base].concat();
        let record = |kind, aux, a, b, bytes: &[u8]| FrameRecord {
            kind,
            aux,
            logical_len: bytes.len() as u64,
            a,
            b,
            digest: content_address(bytes),
        };
        let table = FrameTable {
            counter: 9,
            logical_len: logical.len() as u64,
            full_digest: state_digest(3, &logical),
            records: vec![
                record(ChunkEncoding::Raw, 0, 0, 64, &raw),
                record(ChunkEncoding::Lz, 0, 64, lz.len() as u64, &text),
                record(ChunkEncoding::DedupSelf, 0, 0, 0, &raw),
                record(ChunkEncoding::DedupBase, 1, 5, 64, &from_base),
            ],
        };
        let table_bytes = table.encode();
        let payload = [&table_bytes[..], &raw, &lz].concat();
        let meta = meta_for(&table_bytes, payload.len() as u64);
        FrameFixture {
            payload,
            meta,
            table,
            base_meta,
            base_payload,
            logical,
        }
    }

    /// In-memory slots, `(commit record, payload bytes)` each: every
    /// record is a commit the frame may name as a home, and a read past a
    /// slot's bytes (or of a slot not listed) is a read fault.
    type Slots<'a> = [(CheckMeta, &'a [u8])];

    fn read_slots(slots: &Slots<'_>, slot: u32, at: u64, buf: &mut [u8]) -> bool {
        let src = slots
            .iter()
            .find(|(m, _)| m.slot == slot)
            .and_then(|(_, bytes)| bytes.get(usize::try_from(at).ok()?..)?.get(..buf.len()));
        src.map(|src| buf.copy_from_slice(src)).is_some()
    }

    /// Runs the plan of the frame committed as `meta` through the restore
    /// executor, at one reader and at four: the verdicts must agree.
    fn walk_slots(slots: &Slots<'_>, meta: &CheckMeta) -> Option<(Vec<u8>, u64)> {
        let commits: Vec<CheckMeta> = slots.iter().map(|(m, _)| *m).collect();
        let read = |slot, at, buf: &mut [u8]| read_slots(slots, slot, at, buf);
        let [one, four] =
            [1, 4].map(|readers| crate::restore::decode_frame(meta, &commits, &read, readers));
        assert_eq!(one, four, "reader count changed the verdict");
        one
    }

    #[test]
    fn frame_walk_resolves_every_record_kind() {
        let f = frame_fixture();
        let slots = [(f.meta, &f.payload[..]), (f.base_meta, &f.base_payload[..])];
        let reads = std::sync::Mutex::new(Vec::new());
        let read = |slot, at, buf: &mut [u8]| {
            reads.lock().unwrap().push((slot, at, buf.len()));
            read_slots(&slots, slot, at, buf)
        };
        let got = crate::restore::decode_frame(&f.meta, &[f.meta, f.base_meta], &read, 1);
        assert_eq!(got, Some((f.logical.clone(), f.table.full_digest)));
        let base_reads: Vec<_> = reads.into_inner().unwrap();
        let base_reads: Vec<_> = base_reads.iter().filter(|r| r.0 == 1).collect();
        let packed = FrameTable::encoded_len_for(2);
        assert_eq!(
            base_reads,
            [
                &(1, 0, FRAME_HEADER),
                &(1, FRAME_HEADER as u64, packed as usize - FRAME_HEADER),
                &(1, packed + 64, 64)
            ],
            "an all-Raw home: its table, then the referenced record"
        );
    }

    /// A copy takes its source's block values only where both sit on the
    /// block grid, and only for blocks it wholly covers; every other block
    /// of it — off the grid, or the state's short last block, which its
    /// source cuts — is digested after the join, and the fold still holds.
    #[test]
    fn copies_on_and_off_the_block_grid_fold_to_the_state() {
        const B: usize = pccheck_util::fnv::DIGEST_BLOCK;
        let bytes = |len, seed| {
            let mut v = vec![0u8; len];
            pccheck_util::rng::fill_deterministic(&mut v, seed);
            v
        };
        let (x, y, w) = (bytes(2 * B + 100, 11), bytes(B - 100, 12), bytes(2 * B, 13));
        // Each record lands raw (`None`) or copies record `i` (`Some(i)`).
        let cases: [&[(&[u8], Option<u32>)]; 4] = [
            &[(&x, None), (&x, Some(0))],
            &[(&y, None), (&x, None), (&x, Some(1))],
            &[(&x, None), (&y, None), (&x, Some(0))],
            &[(&w, None), (&w, Some(0))],
        ];
        for (case, records) in cases.into_iter().enumerate() {
            let logical: Vec<u8> = records.iter().flat_map(|(b, _)| b.to_vec()).collect();
            let mut packed = Vec::new();
            let mut record = |&(bytes, copy_of): &(&[u8], Option<u32>)| {
                let len = bytes.len() as u64;
                let (kind, aux, a, b) = match copy_of {
                    Some(i) => (ChunkEncoding::DedupSelf, i, 0, 0),
                    None => {
                        packed.extend_from_slice(bytes);
                        (ChunkEncoding::Raw, 0, packed.len() as u64 - len, len)
                    }
                };
                let digest = content_address(bytes);
                FrameRecord {
                    kind,
                    aux,
                    logical_len: len,
                    a,
                    b,
                    digest,
                }
            };
            let table = FrameTable {
                counter: 9,
                logical_len: logical.len() as u64,
                full_digest: state_digest(3, &logical),
                records: records.iter().map(&mut record).collect(),
            };
            let table_bytes = table.encode();
            let payload = [&table_bytes[..], &packed].concat();
            let meta = meta_for(&table_bytes, payload.len() as u64);
            assert_eq!(
                walk_slots(&[(meta, &payload[..])], &meta),
                Some((logical, table.full_digest)),
                "case {case}"
            );
        }
    }

    /// The bug the head-sniffing format had: a state that happens to open
    /// with the frame magic is still just a state.
    #[test]
    fn a_state_that_opens_with_the_frame_magic_walks_like_any_other() {
        let mut state = b"PCFRAME1".to_vec();
        state.extend_from_slice(&sample_table().encode());
        state.resize(300, 0x5A);
        let (payload, digest) = raw_frame(4, state_digest(7, &state), &state, 128);
        let meta = CheckMeta {
            counter: 4,
            slot: 0,
            iteration: 7,
            payload_len: payload.len() as u64,
            digest,
            delta: None,
        };
        let got = walk_slots(&[(meta, &payload[..])], &meta);
        assert_eq!(got, Some((state.clone(), state_digest(7, &state))));
    }

    #[test]
    fn frame_walk_resolves_repeats_once_across_a_codec_and_an_all_raw_home() {
        let text: Vec<u8> = (0..256u32).map(|i| (i % 5) as u8).collect();
        let lz = compress_gated(&text).expect("periodic bytes compress");
        let mut noise = vec![0u8; 64];
        pccheck_util::rng::fill_deterministic(&mut noise, 8);
        let record = |kind, aux, a, b, bytes: &[u8]| FrameRecord {
            kind,
            aux,
            logical_len: bytes.len() as u64,
            a,
            b,
            digest: content_address(bytes),
        };
        let commit = |counter, slot, table_bytes: &[u8], payload_len| CheckMeta {
            counter,
            slot,
            iteration: 1,
            payload_len,
            digest: checksum(table_bytes),
            delta: None,
        };

        // Home 5 (slot 1) is a codec frame: one Lz chunk, one Raw chunk.
        let framed_logical = [&text[..], &noise].concat();
        let framed_table = FrameTable {
            counter: 5,
            logical_len: framed_logical.len() as u64,
            full_digest: state_digest(1, &framed_logical),
            records: vec![
                record(ChunkEncoding::Lz, 0, 0, lz.len() as u64, &text),
                record(ChunkEncoding::Raw, 0, lz.len() as u64, 64, &noise),
            ],
        };
        let framed_bytes = framed_table.encode();
        let framed_payload = [&framed_bytes[..], &lz, &noise].concat();
        let framed_meta = commit(5, 1, &framed_bytes, framed_payload.len() as u64);

        // Home 3 (slot 2) is an all-Raw frame of 64-byte records.
        let mut raw_state = vec![0u8; 128];
        pccheck_util::rng::fill_deterministic(&mut raw_state, 6);
        let (raw_payload, raw_digest) = raw_frame(3, state_digest(1, &raw_state), &raw_state, 64);
        let raw_meta = CheckMeta {
            digest: raw_digest,
            ..commit(3, 2, &[], raw_payload.len() as u64)
        };
        let from_raw = raw_state[64..128].to_vec();

        // Every record of frame 9 is a reference; the Lz chunk twice.
        let logical = [&text[..], &from_raw, &text, &noise].concat();
        let table = FrameTable {
            counter: 9,
            logical_len: logical.len() as u64,
            full_digest: state_digest(1, &logical),
            records: vec![
                record(ChunkEncoding::DedupBase, 1, 5, 0, &text),
                record(ChunkEncoding::DedupBase, 2, 3, 64, &from_raw),
                record(ChunkEncoding::DedupBase, 1, 5, 0, &text),
                record(ChunkEncoding::DedupBase, 1, 5, 256, &noise),
            ],
        };
        let payload = table.encode();
        let meta = commit(9, 0, &payload, payload.len() as u64);

        let slots = [
            (meta, &payload[..]),
            (framed_meta, &framed_payload[..]),
            (raw_meta, &raw_payload[..]),
        ];
        let reads = std::sync::Mutex::new(Vec::new());
        let read = |slot, at, buf: &mut [u8]| {
            reads.lock().unwrap().push((slot, at, buf.len()));
            read_slots(&slots, slot, at, buf)
        };
        let commits = [meta, framed_meta, raw_meta];
        let got = crate::restore::decode_frame(&meta, &commits, &read, 1);
        assert_eq!(got, Some((logical, table.full_digest)));
        let (packed, raw_packed) = (framed_table.encoded_len(), FrameTable::encoded_len_for(2));
        let rest_of_table = framed_bytes.len() - FRAME_HEADER;
        assert_eq!(
            reads.into_inner().unwrap()[2..],
            [
                // Planning reads each home's table once, and only that...
                (1, 0, FRAME_HEADER),
                (1, FRAME_HEADER as u64, rest_of_table),
                (2, 0, FRAME_HEADER),
                (2, FRAME_HEADER as u64, raw_packed as usize - FRAME_HEADER),
                // ...and each distinct content is read once, by range.
                (1, packed, lz.len()),
                (2, raw_packed + 64, 64),
                (1, packed + lz.len() as u64, 64),
            ],
            "homes are read by range, repeats copy"
        );

        // A reference to content its (framed) home never materialized.
        let mut lying = table.clone();
        lying.records[2].digest ^= 1;
        let lying_payload = lying.encode();
        let lying_meta = commit(9, 0, &lying_payload, lying_payload.len() as u64);
        let slots = [
            (lying_meta, &lying_payload[..]),
            (framed_meta, &framed_payload[..]),
            (raw_meta, &raw_payload[..]),
        ];
        assert!(walk_slots(&slots, &lying_meta).is_none());
    }

    #[test]
    fn frame_walk_rejects_every_hostile_frame() {
        let f = frame_fixture();
        let table_len = f.table.encoded_len() as usize;
        let base = (f.base_meta, &f.base_payload[..]);
        let walk = |payload: &[u8], meta: &CheckMeta| walk_slots(&[(f.meta, payload), base], meta);
        assert!(walk(&f.payload, &f.meta).is_some(), "the fixture itself");

        // Re-seals a tampered table so that only the tampered field can
        // be what fails the walk.
        let resealed = |table: &FrameTable| {
            let bytes = table.encode();
            let payload = [&bytes[..], &f.payload[table_len..]].concat();
            let meta = meta_for(&bytes, payload.len() as u64);
            (payload, meta)
        };

        assert!(
            walk(&f.payload[..table_len - 1], &f.meta).is_none(),
            "truncated table"
        );

        // Version 2 — the format whose records were addressed by one
        // `chunk_digest` over their bytes — with CRC and commit binding
        // redone so the version alone is what is wrong: rejected, not
        // misread.
        assert_eq!(FRAME_VERSION, 3);
        let mut old_version = f.payload.clone();
        old_version[12..16].copy_from_slice(&2u32.to_le_bytes());
        let crc = fnv1a(&old_version[..table_len - 8]);
        old_version[table_len - 8..table_len].copy_from_slice(&crc.to_le_bytes());
        let old_version_meta = meta_for(&old_version[..table_len], old_version.len() as u64);
        assert!(FrameTable::decode(&old_version).is_none());
        assert!(
            walk(&old_version, &old_version_meta).is_none(),
            "previous frame version"
        );

        let mut bad_crc = f.payload.clone();
        bad_crc[table_len - 1] ^= 0x01;
        let bad_crc_meta = meta_for(&bad_crc[..table_len], bad_crc.len() as u64);
        assert!(walk(&bad_crc, &bad_crc_meta).is_none(), "bad table CRC");

        let other_commit = CheckMeta {
            counter: 10,
            ..f.meta
        };
        assert!(
            walk(&f.payload, &other_commit).is_none(),
            "table counter differs from the commit's"
        );

        let unbound = CheckMeta {
            digest: f.meta.digest ^ 1,
            ..f.meta
        };
        assert!(
            walk(&f.payload, &unbound).is_none(),
            "commit digest does not cover this table"
        );

        for (a, b) in [(64, 10_000), (u64::MAX, 2), (10_000, 8)] {
            let mut table = f.table.clone();
            table.records[1].a = a;
            table.records[1].b = b;
            let (payload, meta) = resealed(&table);
            assert!(
                walk(&payload, &meta).is_none(),
                "packed range {a}+{b} past the payload"
            );
        }

        let mut short_raw = f.table.clone();
        short_raw.records[0].b = 63;
        let (payload, meta) = resealed(&short_raw);
        assert!(
            walk(&payload, &meta).is_none(),
            "raw record shorter than its logical length"
        );

        // The bytes a `DedupSelf` lands are its source's, which verify; the
        // record's own address must still be what vouches for them.
        let mut self_unlike_its_source = f.table.clone();
        self_unlike_its_source.records[2].digest ^= 1;
        let (payload, meta) = resealed(&self_unlike_its_source);
        assert!(
            walk(&payload, &meta).is_none(),
            "DedupSelf addressed unlike the record it copies"
        );

        let head = (f.meta, &f.payload[..]);
        assert!(walk_slots(&[head], &f.meta).is_none(), "dedup base missing");

        // The named slot was recycled: its commit record names another
        // checkpoint now — or, recycled after the scan that found the
        // record, whatever lives there is not the referenced content and
        // the per-chunk content address says so.
        let base_len = f.base_payload.len();
        let mut recycled = f.base_payload.clone();
        recycled[base_len - 20] ^= 0x40;
        let recycled_meta = CheckMeta {
            counter: 12,
            ..f.base_meta
        };
        for stale_or_not in [recycled_meta, f.base_meta] {
            assert!(
                walk_slots(&[head, (stale_or_not, &recycled[..])], &f.meta).is_none(),
                "dedup base recycled"
            );
        }
        assert!(
            walk_slots(
                &[head, (f.base_meta, &f.base_payload[..base_len - 1])],
                &f.meta
            )
            .is_none(),
            "dedup base shorter than the referenced range"
        );
        let shrunk = CheckMeta {
            payload_len: base_len as u64 - 1,
            ..f.base_meta
        };
        assert!(
            walk_slots(&[head, (shrunk, &f.base_payload[..])], &f.meta).is_none(),
            "referenced range past the dedup base's committed length"
        );

        // A home range must lie inside one record the home materialized:
        // the all-`Raw` base holds two 64-byte records.
        for (b, why) in [
            (100, "a home range that leaves its home's payload"),
            (32, "a home range that straddles two home records"),
        ] {
            let mut table = f.table.clone();
            table.records[3].b = b;
            let (payload, meta) = resealed(&table);
            assert!(walk(&payload, &meta).is_none(), "{why}");
        }

        // A frame of one reference to `[b, b + bytes.len())` of `home`,
        // walked with `home` as the only other commit.
        let naming = |home: (CheckMeta, &[u8]), b: u64, bytes: &[u8]| {
            let table = FrameTable {
                counter: 10,
                logical_len: bytes.len() as u64,
                full_digest: state_digest(3, bytes),
                records: vec![FrameRecord {
                    kind: ChunkEncoding::DedupBase,
                    aux: home.0.slot,
                    logical_len: bytes.len() as u64,
                    a: home.0.counter,
                    b,
                    digest: content_address(bytes),
                }],
            };
            let payload = table.encode();
            let meta = CheckMeta {
                counter: 10,
                slot: 2,
                ..meta_for(&payload, payload.len() as u64)
            };
            walk_slots(&[(meta, &payload[..]), home], &meta)
        };

        // The fixture frame as a home: its `Lz` record may be named whole,
        // never in part; part of a `Raw` record of the base may.
        let text = &f.logical[64..320];
        let whole = Some((text.to_vec(), state_digest(3, text)));
        assert_eq!(naming(head, 64, text), whole, "a whole Lz home record");
        assert!(
            naming(head, 128, &text[64..128]).is_none(),
            "a home range that cuts into an Lz home record"
        );
        let part = &f.base_payload[FrameTable::encoded_len_for(2) as usize + 96..][..32];
        let want = Some((part.to_vec(), state_digest(3, part)));
        assert_eq!(naming(base, 96, part), want, "part of a Raw home record");

        // A home whose `Raw` record claims a packed offset at the end of the
        // address space: the part a reference takes must not wrap.
        let mut wraps = FrameTable::decode(&f.base_payload).expect("the base is framed");
        wraps.records[1].a = u64::MAX - 8;
        let wraps = wraps.encode();
        let wraps_meta = CheckMeta {
            digest: checksum(&wraps),
            ..f.base_meta
        };
        let wraps = [&wraps[..], &f.base_payload[wraps.len()..]].concat();
        assert!(
            naming((wraps_meta, &wraps[..]), 96, part).is_none(),
            "a home record whose packed range wraps"
        );

        for pos in table_len..f.payload.len() {
            let mut flipped = f.payload.clone();
            flipped[pos] ^= 0x10;
            assert!(
                walk(&flipped, &f.meta).is_none(),
                "flipped payload byte {pos}"
            );
        }

        let mut wrong_total = f.table.clone();
        wrong_total.full_digest ^= 1;
        let (payload, meta) = resealed(&wrong_total);
        assert!(
            walk(&payload, &meta).is_none(),
            "end-to-end digest mismatch"
        );
    }

    #[test]
    fn lz_round_trips_arbitrary_bytes() {
        check(DEFAULT_CASES, |r| {
            let len = r.range(0..2048) as usize;
            let src = r.bytes(len);
            // Bypass the gates: force a compression attempt with no limit,
            // and require exact reconstruction whenever one is produced.
            if let Some(comp) = lz_compress_limit(&src, usize::MAX) {
                assert_eq!(lz_decompress(&comp, src.len()).unwrap(), src);
            }
        });
    }

    #[test]
    fn lz_round_trips_low_entropy_bytes() {
        check(DEFAULT_CASES, |r| {
            let src: Vec<u8> = (0..r.range(64..2048))
                .map(|_| r.range(0..4) as u8)
                .collect();
            if let Some(comp) = compress_gated(&src) {
                assert!(comp.len() < src.len());
                assert_eq!(lz_decompress(&comp, src.len()).unwrap(), src);
            }
        });
    }

    /// A reference encoder that extends each match one byte per step, with
    /// the same hash, candidate check, window and cut-off: the oracle the
    /// word-wise encoder must equal byte for byte.
    fn lz_compress_bytewise(src: &[u8], limit: usize) -> Option<Vec<u8>> {
        const HASH_BITS: u32 = 13;
        let mut table = [0usize; 1 << HASH_BITS];
        let hash = |w: u32| -> usize { (w.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize };
        let word_at = |i: usize| -> u32 { u32::from_le_bytes(src[i..i + 4].try_into().unwrap()) };
        let mut out = Vec::new();
        let (mut lit_start, mut i) = (0usize, 0usize);
        while i < src.len().saturating_sub(MIN_MATCH) {
            let w = word_at(i);
            let h = hash(w);
            let cand = table[h];
            table[h] = i + 1;
            if cand == 0 || i - (cand - 1) > MAX_OFFSET || word_at(cand - 1) != w {
                i += 1;
                continue;
            }
            let c = cand - 1;
            let mut mlen = MIN_MATCH;
            while i + mlen < src.len() && src[c + mlen] == src[i + mlen] {
                mlen += 1;
            }
            emit_sequence(&mut out, &src[lit_start..i], (i - c) as u16, mlen);
            if out.len() >= limit {
                return None;
            }
            i += mlen;
            lit_start = i;
        }
        emit_literals_only(&mut out, &src[lit_start..]);
        (out.len() < limit).then_some(out)
    }

    /// `period` pseudo-random bytes from `seed`, tiled to `len`.
    fn tiled(period: usize, len: usize, seed: u64) -> Vec<u8> {
        let mut tile = vec![0u8; period];
        pccheck_util::rng::fill_deterministic(&mut tile, seed);
        tile.iter().copied().cycle().take(len).collect()
    }

    /// A sparse update's dirty chunk: `tile` tiled across `len`, with the
    /// bytes from `start` on re-stepped the way an optimizer step maps
    /// them (position-independent, so the suffix stays tiled).
    fn restepped(tile: usize, len: usize, start: usize, step: u8, seed: u64) -> Vec<u8> {
        let mut src = tiled(tile, len, seed);
        let delta = step.wrapping_mul(2).wrapping_add(1);
        for b in &mut src[start.min(len)..] {
            *b = b.wrapping_add(delta).rotate_left(1);
        }
        src
    }

    /// Both encoders agree on `src` at every limit that matters: none, the
    /// stream's exact length and one past it (the `None` boundary), and
    /// `extra`.
    fn assert_encoders_agree(src: &[u8], extra: usize) {
        let full = lz_compress_bytewise(src, usize::MAX).expect("no limit");
        for limit in [usize::MAX, full.len(), full.len() + 1, extra] {
            assert_eq!(
                lz_compress_limit(src, limit),
                lz_compress_bytewise(src, limit),
                "len {} limit {limit}",
                src.len()
            );
        }
        assert_eq!(lz_decompress(&full, src.len()).as_deref(), Some(src));
    }

    #[test]
    fn prop_word_wise_encoder_emits_the_bytewise_stream() {
        check(DEFAULT_CASES, |r| {
            let src = match r.range(0..6) {
                0 => {
                    let len = r.range(0..4096) as usize;
                    r.bytes(len)
                }
                1 => {
                    let period = match r.range(0..4) {
                        0 => 64,
                        1 => 4096,
                        _ => r.range(1..4097) as usize,
                    };
                    let len = r.range(0..3 * period as u64 + 64) as usize;
                    tiled(period, len, r.next_u64())
                }
                2 => {
                    let tile = [64, 4096][r.range(0..2) as usize];
                    let len = r.range(1..16_384) as usize;
                    let start = r.range(0..len as u64) as usize;
                    restepped(tile, len, start, r.range(1..256) as u8, r.next_u64())
                }
                3 => {
                    // A match ending `d` bytes before the end of the input:
                    // the repeat stops at a byte that breaks it.
                    let len = r.range(8..200) as usize;
                    let head = r.bytes(len);
                    let repeat = r.range(4..len as u64) as usize;
                    let mut src = head.clone();
                    src.extend_from_slice(&head[..repeat]);
                    let d = r.range(0..17) as usize;
                    if d > 0 {
                        src.push(head[repeat] ^ 0xFF);
                        src.extend(r.bytes(d - 1));
                    }
                    src
                }
                4 => {
                    // A candidate exactly at the window's edge (or one past
                    // it): zeros in between are one long match, so nothing
                    // displaces the first word from the hash table.
                    let gap = MAX_OFFSET + r.range(0..2) as usize;
                    let word = r.bytes(8);
                    let mut src = word.clone();
                    src.resize(gap, 0);
                    src.extend_from_slice(&word);
                    let tail = r.range(0..16) as usize;
                    src.extend(r.bytes(tail));
                    src
                }
                _ => {
                    // Fewer than 8 bytes past a match, or no room for one.
                    let (n, fill, tail) = (r.range(0..24), r.range(0..3), r.range(0..8));
                    let mut src = vec![fill as u8; n as usize];
                    src.extend(r.bytes(tail as usize));
                    src
                }
            };
            let extra = r.range(0..src.len() as u64 + 2) as usize;
            assert_encoders_agree(&src, extra);
        });
    }

    #[test]
    fn the_window_edge_is_a_match_and_one_past_it_is_not() {
        let stream = |gap: usize| {
            let word = *b"\x11\x22\x33\x44\x55\x66\x77\x88";
            let mut src = word.to_vec();
            src.resize(gap, 0);
            src.extend_from_slice(&word);
            assert_encoders_agree(&src, 0);
            lz_compress_limit(&src, usize::MAX).unwrap()
        };
        // Within the window the repeated word is one 8-byte match, the
        // 2-byte offset of 65 535 just before the terminal token; past it,
        // literals.
        let edge = stream(MAX_OFFSET);
        let offset = u16::try_from(MAX_OFFSET).unwrap().to_le_bytes();
        assert_eq!(&edge[edge.len() - 3..edge.len() - 1], &offset);
        assert!(stream(MAX_OFFSET + 1).len() > edge.len());
    }

    /// The LZ stream's bytes for three inputs, pinned: a change that alters
    /// what reaches the media (and with it `write_amp`) fails here by name.
    #[test]
    fn lz_streams_are_pinned() {
        const LEN: usize = 256 * 1024;
        let golden = [
            (
                "64-byte tile",
                tiled(64, LEN, 0xc0),
                (1097, 0xe852_1fef_eaad_6568),
            ),
            (
                "4096-byte tile",
                tiled(4096, LEN, 0xc1),
                (5129, 0x5ec2_4285_a416_e69a),
            ),
            (
                "re-stepped suffix",
                restepped(64, LEN, LEN / 2 + 7, 3, 0xc2),
                (1165, 0x54f9_96bd_82e5_a8db),
            ),
        ];
        for (name, src, want) in golden {
            let stream = lz_compress_limit(&src, usize::MAX).unwrap();
            assert_eq!(
                (stream.len(), fnv1a(&stream)),
                want,
                "{name}: the encoder's output moved"
            );
        }
    }

    #[test]
    fn frame_round_trips_arbitrary_raw_geometry() {
        check(DEFAULT_CASES, |r| {
            let lens: Vec<u64> = (0..r.range(1..40)).map(|_| r.range(1..10_000)).collect();
            let counter = r.range(1..1_000_000);
            let mut records = Vec::new();
            let mut phys = 0u64;
            for (i, &len) in lens.iter().enumerate() {
                records.push(FrameRecord {
                    kind: ChunkEncoding::Raw,
                    aux: 0,
                    logical_len: len,
                    a: phys,
                    b: len,
                    digest: (i as u64) * 31 + 7,
                });
                phys += len;
            }
            let t = FrameTable {
                counter,
                logical_len: lens.iter().sum(),
                full_digest: counter ^ 0xABCD,
                records,
            };
            assert_eq!(FrameTable::decode(&t.encode()).unwrap(), t);
        });
    }

    #[test]
    fn tiling_admits_exact_covers_only() {
        let job = |off, len| Job {
            off,
            len,
            source: JobSource::Copy { of: 0 },
            digest: 0,
        };
        let cases: [(&[Job], u64, bool); 7] = [
            (&[job(0, 4), job(4, 0), job(4, 6)], 10, true),
            (&[], 0, true),
            (&[job(0, 4), job(5, 5)], 10, false), // a gap
            (&[job(0, 4), job(3, 7)], 10, false), // an overlap
            (&[job(0, 4), job(4, 5)], 10, false), // ends short
            (&[job(0, 4), job(4, 7)], 10, false), // runs past
            (&[job(0, 4), job(4, u64::MAX)], 3, false),
        ];
        for (jobs, len, want) in cases {
            assert_eq!(tiles(jobs, len), want, "{jobs:?} over {len}");
        }
    }
}
