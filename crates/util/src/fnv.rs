//! Canonical FNV-1a digests shared across the workspace.
//!
//! One seed, one prime, and one definition per job:
//!
//! - [`fnv1a`] / [`fnv1a_fold`]: byte-serial FNV-1a, for fixed-size
//!   records — checkpoint metadata CRCs, slot state words, flight-record
//!   framing and the frame-table checksum. Never handed a checkpoint
//!   payload: at a few hundred MB/s it would cost more than the device
//!   write it protects.
//! - [`chunk_digest`]: word-folding FNV-style mix, ~8× faster than the
//!   byte-serial form. The block primitive of the state digest and of a
//!   frame record's content address.
//! - [`StateFold`] / [`state_digest`] / [`fold_blocks`]: the end-to-end
//!   digest of a serialized training state — a fold, seeded with the step
//!   and the length, over the [`chunk_digest`]s of its
//!   [`DIGEST_BLOCK`]-sized blocks. Every producer (the GPU's ground
//!   truth, the persist pipeline's copy loops) and every verifier (restore
//!   readers, the frame walk, the forensics auditor) computes it through
//!   these three forms of the one definition, so a digest folded while a
//!   chunk is hot on the persist path verifies out of order on the
//!   recovery path. All three get their block values from
//!   [`block_digests`], which walks four blocks at a time;
//!   [`whole_blocks`] says which blocks a piece of the state can hand it.
//! - `record_digest` / [`content_address`]: a frame record's content
//!   address, a fold of the same block values over the record's own bytes.
//!   [`file_blocks`] takes both digests of a piece in one pass, which is
//!   every pass on a block-aligned geometry.

/// FNV-1a seed, shared with the checkpoint metadata checksum.
pub(crate) const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a prime.
pub(crate) const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// Folds `data` into a running FNV-1a state (start from `FNV_SEED`).
pub fn fnv1a_fold(mut h: u64, data: &[u8]) -> u64 {
    for b in data {
        h ^= u64::from(*b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a of `data` from the standard seed.
pub fn fnv1a(data: &[u8]) -> u64 {
    fnv1a_fold(FNV_SEED, data)
}

/// Fast per-chunk digest: FNV-style mix folding eight bytes per multiply
/// instead of one.
///
/// Digest throughput bounds how much verification can overlap I/O on both
/// the persist and the restore path — byte-serial FNV-1a (~hundreds of
/// MB/s) would make either CPU-bound on small hosts. This variant is ~8×
/// faster and only ever compared against digests produced by the same
/// function (state-digest and record-address blocks), so it
/// needs no compatibility with the byte-serial form. The length is mixed
/// into the seed so a chunk and its zero-padded extension digest
/// differently.
pub fn chunk_digest(data: &[u8]) -> u64 {
    let mut h = FNV_SEED ^ (data.len() as u64);
    let words = data.len() / 8;
    for w in data[..words * 8].chunks_exact(8) {
        h ^= u64::from_le_bytes(w.try_into().expect("8-byte window"));
        h = h.wrapping_mul(FNV_PRIME);
    }
    fnv1a_fold(h, &data[words * 8..])
}

/// Block size of the state digest. A format constant — not the staging
/// pool's chunk size and not an option: it decides which bytes each block
/// value covers, so persist and restore may chunk however they like and
/// still agree.
pub const DIGEST_BLOCK: usize = 4096;

/// One step of the state digest's outer fold.
fn mix(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(FNV_PRIME)
}

/// The state digest, streaming form: feed the serialized state in order,
/// split however the caller's copy loop happens to split it (pool chunks,
/// kernel tiles, tensor boundaries) — every split gives the value
/// [`state_digest`] gives for the concatenation.
#[derive(Debug, Clone)]
pub struct StateFold {
    h: u64,
    /// Bytes of the declared length not fed yet.
    left: u64,
    /// Head of the open block, when a feed ended inside one.
    partial: Vec<u8>,
}

impl StateFold {
    /// Starts the digest of a `len`-byte state captured at `step`.
    pub fn new(step: u64, len: u64) -> StateFold {
        StateFold {
            h: fold_blocks(step, len, []),
            left: len,
            partial: Vec::new(),
        }
    }

    /// Folds the next `data.len()` bytes of the state.
    ///
    /// # Panics
    ///
    /// Panics when fed past the declared length.
    pub fn feed(&mut self, mut data: &[u8]) {
        assert!(data.len() as u64 <= self.left, "fed past the state length");
        self.left -= data.len() as u64;
        if !self.partial.is_empty() {
            let take = (DIGEST_BLOCK - self.partial.len()).min(data.len());
            self.partial.extend_from_slice(&data[..take]);
            data = &data[take..];
            if self.partial.len() < DIGEST_BLOCK {
                return;
            }
            self.h = mix(self.h, chunk_digest(&self.partial));
            self.partial.clear();
        }
        let whole = data.len() / DIGEST_BLOCK * DIGEST_BLOCK;
        self.h = block_digests(&data[..whole]).fold(self.h, mix);
        self.partial.extend_from_slice(&data[whole..]);
    }

    /// Closes the short last block, if any, and returns the digest.
    ///
    /// # Panics
    ///
    /// Panics when fewer bytes were fed than declared.
    pub fn finish(self) -> u64 {
        assert_eq!(self.left, 0, "state digest finished short");
        if self.partial.is_empty() {
            self.h
        } else {
            mix(self.h, chunk_digest(&self.partial))
        }
    }
}

/// The state digest of a whole serialized state captured at `step`.
pub fn state_digest(step: u64, state: &[u8]) -> u64 {
    fold_blocks(step, state.len() as u64, block_digests(state))
}

/// Blocks [`block_digests`] digests side by side.
const LANES: usize = 4;

// A whole block is words only: the lanes never owe a byte-serial tail.
const _: () = assert!(DIGEST_BLOCK.is_multiple_of(8));

/// Per-block values of `range`, a piece of a serialized state that starts
/// on a [`DIGEST_BLOCK`] boundary and ends on one or at the state's end.
///
/// Each value is the block's [`chunk_digest`]. A block's chain is serial —
/// every multiply waits for the one before it — but blocks are independent,
/// so whole groups of four blocks are walked together, one accumulator
/// each, and the multiplier always has a chain ready. Only the short last
/// group goes block by block.
pub fn block_digests(range: &[u8]) -> impl Iterator<Item = u64> + '_ {
    let groups = range.chunks_exact(LANES * DIGEST_BLOCK);
    let rest = groups.remainder().chunks(DIGEST_BLOCK).map(chunk_digest);
    groups.flat_map(group_digests).chain(rest)
}

/// The [`chunk_digest`]s of the [`LANES`] whole blocks of `group`.
fn group_digests(group: &[u8]) -> [u64; LANES] {
    let word = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("8-byte window"));
    let (a, rest) = group.split_at(DIGEST_BLOCK);
    let (b, rest) = rest.split_at(DIGEST_BLOCK);
    let (c, d) = rest.split_at(DIGEST_BLOCK);
    assert_eq!(d.len(), DIGEST_BLOCK, "a group is {LANES} whole blocks");
    let mut h = [FNV_SEED ^ DIGEST_BLOCK as u64; LANES];
    let words = a.chunks_exact(8).zip(b.chunks_exact(8));
    let words = words.zip(c.chunks_exact(8).zip(d.chunks_exact(8)));
    for ((a, b), (c, d)) in words {
        h = [
            mix(h[0], word(a)),
            mix(h[1], word(b)),
            mix(h[2], word(c)),
            mix(h[3], word(d)),
        ];
    }
    h
}

/// How the blocks of a `total`-byte state divide the `len`-byte piece at
/// `off`, as `(head, whole)`: `head` bytes that belong to a block an
/// earlier piece opened, then `whole` bytes of blocks the piece wholly
/// covers — what [`block_digests`] takes; the state's short last block
/// counts as one. The bytes after those open a block a later piece closes.
/// A piece that starts and ends on block boundaries is all `whole`.
pub fn whole_blocks(off: u64, len: usize, total: u64) -> (usize, usize) {
    let block = DIGEST_BLOCK as u64;
    let head = ((block - off % block) % block).min(len as u64) as usize;
    let rest = len - head;
    if off + len as u64 == total {
        (head, rest)
    } else {
        (head, rest - rest % DIGEST_BLOCK)
    }
}

/// The state digest, out-of-order form: `blocks` are the
/// [`block_digests`] of every block of a `len`-byte state captured at
/// `step`, computed independently in any order and handed over by index.
pub fn fold_blocks(step: u64, len: u64, blocks: impl IntoIterator<Item = u64>) -> u64 {
    [step, len].into_iter().chain(blocks).fold(FNV_SEED, mix)
}

/// A frame record's content address: a fold, seeded with the record's
/// length, of the [`block_digests`] of its own bytes — blocks counted from
/// the record's first byte, the last one short.
pub(crate) fn record_digest(len: u64, blocks: impl IntoIterator<Item = u64>) -> u64 {
    [len].into_iter().chain(blocks).fold(FNV_SEED, mix)
}

/// `record_digest` of `record`'s bytes.
pub fn content_address(record: &[u8]) -> u64 {
    record_digest(record.len() as u64, block_digests(record))
}

/// One digest pass over `piece`, the bytes at `off` of a `total`-byte
/// state, for both of its uses: hands `file` the value of every block of
/// the state the piece wholly covers, by index ([`whole_blocks`]), and
/// returns the piece's [`content_address`]. A piece that starts on a block
/// boundary has the state's blocks for its own, so only its short tail, if
/// any, is digested apart; any other piece is digested again from its own
/// first byte.
pub fn file_blocks(off: u64, piece: &[u8], total: u64, mut file: impl FnMut(usize, u64)) -> u64 {
    let (head, whole) = whole_blocks(off, piece.len(), total);
    let first = ((off + head as u64) / DIGEST_BLOCK as u64) as usize;
    let filed = block_digests(&piece[head..head + whole])
        .enumerate()
        .map(|(i, value)| {
            file(first + i, value);
            value
        });
    if head > 0 {
        filed.for_each(drop);
        return content_address(piece);
    }
    let tail = Some(&piece[whole..]).filter(|tail| !tail.is_empty());
    record_digest(piece.len() as u64, filed.chain(tail.map(chunk_digest)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_composes() {
        assert_eq!(fnv1a(&[]), FNV_SEED);
        assert_eq!(fnv1a_fold(fnv1a(b"ab"), b"cd"), fnv1a(b"abcd"));
    }

    #[test]
    fn chunk_digest_mixes_length() {
        // A chunk and its zero-padded extension must not collide.
        let a = [7u8; 16];
        let b = [7u8; 24];
        assert_ne!(chunk_digest(&a[..16]), chunk_digest(&b[..24]));
        assert_ne!(chunk_digest(b""), chunk_digest(&[0u8]));
    }

    #[test]
    fn chunk_digest_covers_tail_bytes() {
        // Lengths that are not multiples of 8 still fold the tail.
        let mut a = [3u8; 13];
        let d0 = chunk_digest(&a);
        a[12] ^= 1;
        assert_ne!(chunk_digest(&a), d0);
    }

    #[test]
    fn known_vector_stability() {
        // Pinned vector: the byte-serial form is baked into every
        // fixed-size on-device record (meta CRCs, state words, flight
        // cells, frame-table checksums), so the constant must never drift.
        assert_eq!(fnv1a(b"a"), 0xaf74_d84c_8601_ec8c);
    }

    /// `len` bytes of the crate's deterministic fill.
    fn state(seed: u64, len: usize) -> Vec<u8> {
        let mut data = vec![0u8; len];
        crate::rng::fill_deterministic(&mut data, seed);
        data
    }

    #[test]
    fn state_digest_golden_vectors() {
        // The block size and the fold are a format: a committed digest
        // must verify after any rebuild. Step = seed, for two seeds.
        const B: usize = DIGEST_BLOCK;
        let golden: [(u64, usize, u64); 10] = [
            (1, 0, 0x3b88_4a07_b4e8_8cc4),
            (1, 1, 0xc72f_f5c7_846b_d82c),
            (1, B - 1, 0x407d_f4e6_8939_111d),
            (1, B, 0x9db8_607f_9047_bb0f),
            (1, 2 * B + 13, 0xeb39_7368_0f17_63d6),
            (7, 0, 0x3b1b_8a07_b4e2_c672),
            (7, 1, 0x2e2d_75c7_7385_d00d),
            (7, B - 1, 0xbec8_5fc2_64b0_a205),
            (7, B, 0xb679_8ab4_8ae6_cda7),
            (7, 2 * B + 13, 0xb735_aad0_c0b2_6537),
        ];
        for (seed, len, want) in golden {
            let got = state_digest(seed, &state(seed, len));
            assert_eq!(got, want, "seed {seed} len {len}: {got:#018x}");
        }
    }

    #[test]
    fn state_digest_forms_agree() {
        let data = state(3, 2 * DIGEST_BLOCK + 13);
        let want = state_digest(9, &data);
        // Streaming: splits inside a block, on a boundary, empty feeds.
        for cuts in [
            vec![],
            vec![1],
            vec![DIGEST_BLOCK],
            vec![5, 5, DIGEST_BLOCK + 7],
        ] {
            let mut fold = StateFold::new(9, data.len() as u64);
            let mut from = 0;
            for cut in cuts.iter().copied().chain([data.len()]) {
                fold.feed(&data[from..cut.max(from)]);
                from = cut.max(from);
            }
            assert_eq!(fold.finish(), want, "cuts {cuts:?}");
        }
        // Out of order: the tail's blocks first, then the head's.
        let (head, tail) = data.split_at(DIGEST_BLOCK);
        let mut blocks: Vec<u64> = block_digests(tail).collect();
        blocks.splice(0..0, block_digests(head));
        assert_eq!(fold_blocks(9, data.len() as u64, blocks), want);
    }

    /// The definition the lanes must reproduce: one serial chain per block.
    fn per_block(range: &[u8]) -> Vec<u64> {
        range.chunks(DIGEST_BLOCK).map(chunk_digest).collect()
    }

    #[test]
    fn block_digests_equal_per_block_chunk_digests_at_every_length() {
        // Every group shape — no whole group, one, one plus every short
        // last group — at every byte length, from slices that start at
        // every address modulo the word size.
        let data = state(5, 5 * DIGEST_BLOCK + 7 + 8);
        for len in 0..=5 * DIGEST_BLOCK + 7 {
            let range = &data[len % 8..][..len];
            let lanes: Vec<u64> = block_digests(range).collect();
            assert_eq!(lanes, per_block(range), "len {len}");
        }
    }

    #[test]
    fn lanes_and_random_feed_splits_agree_with_the_serial_definition() {
        crate::rng::check(crate::rng::DEFAULT_CASES, |rng| {
            let len = rng.range(0..5 * DIGEST_BLOCK as u64 + 8) as usize;
            let start = rng.range(0..64) as usize;
            let data = rng.bytes(start + len);
            let range = &data[start..];
            let want = per_block(range);
            assert_eq!(block_digests(range).collect::<Vec<_>>(), want);
            let step = rng.next_u64();
            let digest = fold_blocks(step, len as u64, want);
            assert_eq!(state_digest(step, range), digest);
            let mut fold = StateFold::new(step, len as u64);
            let mut rest = range;
            while !rest.is_empty() {
                // Mostly a few blocks at a time, sometimes a few bytes.
                let most = if rng.chance(0.3) {
                    16
                } else {
                    3 * DIGEST_BLOCK
                };
                let (feed, tail) =
                    rest.split_at(rng.range(0..most as u64 + 1).min(rest.len() as u64) as usize);
                fold.feed(feed);
                rest = tail;
            }
            assert_eq!(fold.finish(), digest);
        });
    }

    #[test]
    fn whole_blocks_tile_the_state_under_random_cuts() {
        // Filing `whole` by index from every piece, and each cut block from
        // the `head`s and tails that make it up, files every block once.
        crate::rng::check(crate::rng::DEFAULT_CASES, |rng| {
            let len = rng.range(1..3 * DIGEST_BLOCK as u64 + 14) as usize;
            let data = rng.bytes(len);
            let total = data.len() as u64;
            let mut filed = vec![None; data.len().div_ceil(DIGEST_BLOCK)];
            let (mut off, mut open) = (0usize, Vec::new());
            while off < data.len() {
                let most = if rng.bool() { 300 } else { 2 * DIGEST_BLOCK };
                let len = (rng.range(1..most as u64 + 1) as usize).min(data.len() - off);
                let piece = &data[off..off + len];
                let (head, whole) = whole_blocks(off as u64, len, total);
                open.extend_from_slice(&piece[..head]);
                if open.len() == DIGEST_BLOCK || (head > 0 && off + head == data.len()) {
                    assert!(filed[off / DIGEST_BLOCK]
                        .replace(chunk_digest(&open))
                        .is_none());
                    open.clear();
                }
                let first = (off + head) / DIGEST_BLOCK;
                for (i, v) in block_digests(&piece[head..head + whole]).enumerate() {
                    assert!(filed[first + i].replace(v).is_none());
                }
                open.extend_from_slice(&piece[head + whole..]);
                off += len;
            }
            let filed: Vec<u64> = filed.into_iter().map(|v| v.expect("filed")).collect();
            assert_eq!(filed, per_block(&data));
        });
    }

    #[test]
    fn record_address_golden_vectors() {
        // A record's content address is a format — version 3 frames carry
        // it — so it must verify after any rebuild: an empty record, one
        // under a block, whole blocks, whole blocks and a short last one.
        // Wherever the record sits in a state, on a block boundary or
        // off one, the one pass over it yields the same address.
        const B: usize = DIGEST_BLOCK;
        let golden: [(usize, u64); 5] = [
            (0, 0xaf72_e84c_8601_b7df),
            (1, 0xc585_8000_0464_54f7),
            (B - 1, 0xa430_3ea1_5ed6_ee0f),
            (2 * B, 0x4c3b_a88f_4593_654c),
            (2 * B + 13, 0x70b6_0c9d_0558_abbc),
        ];
        for (len, want) in golden {
            let record = state(11, len);
            let got = content_address(&record);
            assert_eq!(got, want, "len {len}: {got:#018x}");
            for off in [0, B, 13] {
                let total = (off + len + 7) as u64;
                let address = file_blocks(off as u64, &record, total, |_, _| {});
                assert_eq!(address, want, "len {len} at {off}");
            }
        }
    }

    #[test]
    fn a_record_address_is_the_fold_of_the_blocks_its_pass_files() {
        // Records cut a state on block boundaries mostly, anywhere
        // sometimes. Each record's pass files the state's blocks it wholly
        // covers and returns its address; a record that starts on a block
        // boundary has those blocks for its own, so its address is their
        // fold with its short tail digested apart — what the persist jobs
        // and the restore readers rely on to digest each byte once.
        crate::rng::check(crate::rng::DEFAULT_CASES, |rng| {
            const B: u64 = DIGEST_BLOCK as u64;
            let total = rng.range(1..4 * B + 100);
            let data = rng.bytes(total as usize);
            let mut off = 0u64;
            while off < total {
                let len = if rng.chance(0.7) {
                    B * rng.range(1..3)
                } else {
                    rng.range(1..2 * B)
                };
                let piece = &data[off as usize..(off + len).min(total) as usize];
                let mut filed = Vec::new();
                let address = file_blocks(off, piece, total, |i, v| filed.push((i, v)));
                assert_eq!(address, content_address(piece), "record at {off}");
                for &(i, value) in &filed {
                    let block = &data[i * DIGEST_BLOCK..((i + 1) * DIGEST_BLOCK).min(data.len())];
                    assert_eq!(value, chunk_digest(block), "block {i}");
                }
                if off.is_multiple_of(B) {
                    let whole = filed.len() * DIGEST_BLOCK;
                    let tail = &piece[whole.min(piece.len())..];
                    let tail = (!tail.is_empty()).then(|| chunk_digest(tail));
                    let values = filed.iter().map(|&(_, v)| v).chain(tail);
                    assert_eq!(record_digest(piece.len() as u64, values), address);
                }
                off += piece.len() as u64;
            }
        });
    }

    #[test]
    #[should_panic(expected = "finished short")]
    fn state_fold_refuses_to_finish_short() {
        let mut fold = StateFold::new(1, 10);
        fold.feed(&[0u8; 9]);
        fold.finish();
    }
}
