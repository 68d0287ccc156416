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
//!   byte-serial form. The persist-path codec's content address, and the
//!   block primitive of the state digest.
//! - [`StateFold`] / [`state_digest`] / [`fold_blocks`]: the end-to-end
//!   digest of a serialized training state — a fold, seeded with the step
//!   and the length, over the [`chunk_digest`]s of its
//!   [`DIGEST_BLOCK`]-sized blocks. Every producer (the GPU's ground
//!   truth, the persist pipeline's copy loops) and every verifier (restore
//!   readers, the frame walk, the forensics auditor) computes it through
//!   these three forms of the one definition, so a digest folded while a
//!   chunk is hot on the persist path verifies out of order on the
//!   recovery path.

/// FNV-1a seed, shared with the checkpoint metadata checksum.
pub const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a prime.
pub const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// Folds `data` into a running FNV-1a state (start from [`FNV_SEED`]).
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
/// function (chunk-frame content addresses, state-digest blocks), so it
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
        let mut blocks = data.chunks_exact(DIGEST_BLOCK);
        for block in &mut blocks {
            self.h = mix(self.h, chunk_digest(block));
        }
        self.partial.extend_from_slice(blocks.remainder());
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

/// Per-block values of `range`, a piece of a serialized state that starts
/// on a [`DIGEST_BLOCK`] boundary and ends on one or at the state's end.
pub fn block_digests(range: &[u8]) -> impl Iterator<Item = u64> + '_ {
    range.chunks(DIGEST_BLOCK).map(chunk_digest)
}

/// The state digest, out-of-order form: `blocks` are the
/// [`block_digests`] of every block of a `len`-byte state captured at
/// `step`, computed independently in any order and handed over by index.
pub fn fold_blocks(step: u64, len: u64, blocks: impl IntoIterator<Item = u64>) -> u64 {
    [step, len].into_iter().chain(blocks).fold(FNV_SEED, mix)
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

    #[test]
    #[should_panic(expected = "finished short")]
    fn state_fold_refuses_to_finish_short() {
        let mut fold = StateFold::new(1, 10);
        fold.feed(&[0u8; 9]);
        fold.finish();
    }
}
