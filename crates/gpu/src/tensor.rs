//! Training state with real, verifiable bytes.
//!
//! Checkpointing correctness needs a source of truth: if we restore from a
//! checkpoint taken at iteration *k*, we must get exactly the bytes the
//! model held at iteration *k*. [`TrainingState`] therefore stores its
//! tensors as actual byte buffers that evolve deterministically per update
//! step, and exposes a [`StateDigest`] so tests and recovery paths can
//! verify round-trips without keeping reference copies.

use std::fmt;

use pccheck_util::fnv::StateFold;
use pccheck_util::rng;
use pccheck_util::ByteSize;

/// A 64-bit digest of the full training state: the step counter, the
/// size and all tensor bytes, by the one definition in
/// [`pccheck_util::fnv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StateDigest(pub u64);

impl StateDigest {
    /// The digest of a serialized checkpoint payload captured at `step`,
    /// without needing the tensor layout: [`TrainingState::digest`]
    /// streams the tensors' bytes in order through the same fold, which is
    /// exactly the byte stream [`TrainingState::serialize_into`] produces.
    pub fn of_payload(payload: &[u8], step: u64) -> StateDigest {
        StateDigest(pccheck_util::fnv::state_digest(step, payload))
    }
}

impl fmt::Display for StateDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// One named tensor (parameters, Adam first/second moments, ...).
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    name: String,
    data: Vec<u8>,
}

impl Tensor {
    /// Creates a tensor with deterministic pseudo-random initial contents.
    pub fn synthetic(name: impl Into<String>, size: ByteSize, seed: u64) -> Self {
        let name = name.into();
        let mut data = vec![0u8; size.as_usize()];
        rng::fill_deterministic(&mut data, rng::derive_seed(seed, &name));
        Tensor { name, data }
    }

    /// The tensor's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The tensor's bytes.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Size in bytes.
    pub fn size(&self) -> ByteSize {
        ByteSize::from_bytes(self.data.len() as u64)
    }

    /// Creates a tensor whose contents are one pseudo-random `period`-byte
    /// block tiled across the whole tensor — redundant (chunk dedup
    /// collapses aligned repeats) and LZ-compressible (every block after
    /// the first is a back-reference), with the redundancy knob being the
    /// period: `period == size` degenerates to [`synthetic`]'s
    /// incompressible noise. The [`step`] transform maps each byte
    /// independently of its position, so the tiling — and with it the
    /// compressibility — survives optimizer updates.
    ///
    /// [`synthetic`]: Tensor::synthetic
    /// [`step`]: Tensor::step
    ///
    /// # Panics
    ///
    /// Panics if `period == 0`.
    pub fn compressible(
        name: impl Into<String>,
        size: ByteSize,
        seed: u64,
        period: usize,
    ) -> Self {
        assert!(period > 0, "period must be positive");
        let name = name.into();
        let mut data = vec![0u8; size.as_usize()];
        let p = period.min(data.len().max(1));
        let mut block = vec![0u8; p];
        rng::fill_deterministic(&mut block, rng::derive_seed(seed, &name));
        for (i, b) in data.iter_mut().enumerate() {
            *b = block[i % p];
        }
        Tensor { name, data }
    }

    /// Applies one deterministic "optimizer step" to this tensor: every byte
    /// changes as a function of the step counter, so distinct steps yield
    /// distinct contents (a torn or stale checkpoint cannot masquerade as a
    /// fresh one).
    pub fn step(&mut self, step: u64) {
        self.step_suffix(step, 0);
    }

    /// Applies the optimizer-step transform only to `data[start..]` — the
    /// sparse-update path: the leading `start` bytes act as a frozen prefix
    /// (frozen layers / untouched embedding rows) and keep their contents.
    ///
    /// # Panics
    ///
    /// Panics if `start` exceeds the tensor size.
    pub(crate) fn step_suffix(&mut self, step: u64, start: usize) {
        let delta = (step as u8).wrapping_mul(2).wrapping_add(1); // odd => bijective
        for b in &mut self.data[start..] {
            *b = b.wrapping_add(delta).rotate_left(1);
        }
    }
}

/// The full model + optimizer state living in (simulated) GPU memory.
///
/// # Examples
///
/// ```
/// use pccheck_gpu::TrainingState;
/// use pccheck_util::ByteSize;
///
/// let mut s = TrainingState::synthetic(ByteSize::from_kb(16), 7);
/// let d0 = s.digest();
/// s.step();
/// assert_ne!(s.digest(), d0);
///
/// // Serialize / restore round-trip:
/// let mut buf = vec![0u8; s.size().as_usize()];
/// s.serialize_into(&mut buf);
/// let restored = TrainingState::restore(&s.layout(), &buf, s.step_count());
/// assert_eq!(restored.digest(), s.digest());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingState {
    tensors: Vec<Tensor>,
    pub(crate) step: u64,
}

/// The (name, size) layout of a state's tensors, needed to reinterpret a
/// flat checkpoint payload.
pub type StateLayout = Vec<(String, ByteSize)>;

impl TrainingState {
    /// Builds a synthetic state of roughly `total` bytes, split into the
    /// parameter/momentum/variance triple an Adam-style optimizer keeps
    /// (matching the paper's "model and optimizer state" checkpoints).
    ///
    /// # Panics
    ///
    /// Panics if `total` is zero.
    pub fn synthetic(total: ByteSize, seed: u64) -> Self {
        assert!(!total.is_zero(), "state must be non-empty");
        let shares = total.split_even(3);
        let tensors = vec![
            Tensor::synthetic("params", shares[0], seed),
            Tensor::synthetic("adam_m", shares[1], seed),
            Tensor::synthetic("adam_v", shares[2], seed),
        ];
        TrainingState { tensors, step: 0 }
    }

    /// Builds a synthetic state like [`synthetic`](TrainingState::synthetic)
    /// but with [`Tensor::compressible`] contents: each of the three
    /// optimizer tensors is a `period`-byte block tiled to size. Used by
    /// the codec benchmarks and the `ext_compress` harness to sweep
    /// payload compressibility at the engine level.
    ///
    /// # Panics
    ///
    /// Panics if `total` is zero or `period == 0`.
    pub fn compressible(total: ByteSize, seed: u64, period: usize) -> Self {
        assert!(!total.is_zero(), "state must be non-empty");
        let shares = total.split_even(3);
        let tensors = vec![
            Tensor::compressible("params", shares[0], seed, period),
            Tensor::compressible("adam_m", shares[1], seed, period),
            Tensor::compressible("adam_v", shares[2], seed, period),
        ];
        TrainingState { tensors, step: 0 }
    }

    /// Builds a state from explicit tensors.
    ///
    /// # Panics
    ///
    /// Panics if `tensors` is empty.
    pub fn from_tensors(tensors: Vec<Tensor>) -> Self {
        assert!(!tensors.is_empty(), "state must have at least one tensor");
        TrainingState { tensors, step: 0 }
    }

    /// The tensors.
    pub fn tensors(&self) -> &[Tensor] {
        &self.tensors
    }

    /// Total state size — the checkpoint size `m`.
    pub fn size(&self) -> ByteSize {
        self.tensors.iter().map(Tensor::size).sum()
    }

    /// Number of update steps applied so far.
    pub fn step_count(&self) -> u64 {
        self.step
    }

    /// The tensor layout needed by [`TrainingState::restore`].
    pub fn layout(&self) -> StateLayout {
        self.tensors
            .iter()
            .map(|t| (t.name().to_string(), t.size()))
            .collect()
    }

    /// Applies one update step: every tensor mutates deterministically.
    pub fn step(&mut self) {
        self.step += 1;
        let step = self.step;
        for t in &mut self.tensors {
            t.step(step);
        }
    }

    /// Applies one *sparse* update step: each tensor mutates only its
    /// trailing `update_fraction` of bytes (a frozen-prefix workload —
    /// frozen backbone layers, LoRA adapters, hot embedding rows), and the
    /// mutated ranges are returned in serialized-payload coordinates so a
    /// dirty-extent tracker can record exactly what changed.
    ///
    /// `update_fraction` is clamped to `[0, 1]`; at `1.0` this is
    /// byte-for-byte identical to [`step`](Self::step). The step counter
    /// advances regardless, so digests still distinguish iterations.
    pub(crate) fn step_sparse(&mut self, update_fraction: f64) -> Vec<(u64, u64)> {
        let f = update_fraction.clamp(0.0, 1.0);
        self.step += 1;
        let step = self.step;
        let mut ranges = Vec::with_capacity(self.tensors.len());
        let mut t_start = 0u64;
        for t in &mut self.tensors {
            let len = t.data.len();
            let dirty = (((len as f64) * f).ceil() as usize).min(len);
            if dirty > 0 {
                let start = len - dirty;
                t.step_suffix(step, start);
                ranges.push((t_start + start as u64, dirty as u64));
            }
            t_start += len as u64;
        }
        ranges
    }

    /// Digest over the step counter, the size and all tensor bytes.
    pub fn digest(&self) -> StateDigest {
        let mut fold = StateFold::new(self.step, self.size().as_u64());
        for t in &self.tensors {
            fold.feed(&t.data);
        }
        StateDigest(fold.finish())
    }

    /// Serializes all tensors into `buf` (concatenated in order).
    ///
    /// # Panics
    ///
    /// Panics if `buf` is not exactly [`size`](Self::size) bytes.
    pub fn serialize_into(&self, buf: &mut [u8]) {
        assert_eq!(
            buf.len() as u64,
            self.size().as_u64(),
            "payload buffer must match state size"
        );
        let mut off = 0usize;
        for t in &self.tensors {
            buf[off..off + t.data().len()].copy_from_slice(t.data());
            off += t.data().len();
        }
    }

    /// Copies the serialized byte range `[offset, offset+out.len())` of the
    /// state into `out` without materializing the whole payload — this is
    /// what chunked GPU→DRAM copies read.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the state size.
    pub(crate) fn serialize_range(&self, offset: u64, out: &mut [u8]) {
        let end = offset + out.len() as u64;
        assert!(end <= self.size().as_u64(), "range exceeds state size");
        let mut t_start = 0u64;
        for t in &self.tensors {
            let t_end = t_start + t.size().as_u64();
            // Overlap of [offset, end) with [t_start, t_end):
            let lo = offset.max(t_start);
            let hi = end.min(t_end);
            if lo < hi {
                let src = &t.data()[(lo - t_start) as usize..(hi - t_start) as usize];
                let dst_off = (lo - offset) as usize;
                out[dst_off..dst_off + src.len()].copy_from_slice(src);
            }
            t_start = t_end;
        }
    }

    /// A zero-filled state of `layout` at step 0: the staging image a
    /// restore fills through `pieces_mut` and then
    /// installs whole, so the bytes that landed are the bytes that train.
    pub fn zeroed(layout: &StateLayout) -> Self {
        let zeroed = |(name, size): &(String, ByteSize)| Tensor {
            name: name.clone(),
            data: vec![0u8; size.as_usize()],
        };
        TrainingState {
            tensors: layout.iter().map(zeroed).collect(),
            step: 0,
        }
    }

    /// The tensors' storage as disjoint pieces, in serialized order — the
    /// serialized byte at offset `o` is byte `o` of their concatenation.
    pub(crate) fn pieces_mut(&mut self) -> Vec<&mut [u8]> {
        self.tensors
            .iter_mut()
            .map(|t| t.data.as_mut_slice())
            .collect()
    }

    /// Reconstructs a state from a flat payload and the step counter it was
    /// taken at — the recovery path.
    ///
    /// # Panics
    ///
    /// Panics if `payload` does not match the layout's total size.
    pub fn restore(layout: &StateLayout, payload: &[u8], step: u64) -> Self {
        let total: u64 = layout.iter().map(|(_, s)| s.as_u64()).sum();
        assert_eq!(payload.len() as u64, total, "payload size mismatch");
        let mut tensors = Vec::with_capacity(layout.len());
        let mut off = 0usize;
        for (name, size) in layout {
            let n = size.as_usize();
            tensors.push(Tensor {
                name: name.clone(),
                data: payload[off..off + n].to_vec(),
            });
            off += n;
        }
        TrainingState { tensors, step }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pccheck_util::rng::{check, DEFAULT_CASES};

    fn small_state(seed: u64) -> TrainingState {
        TrainingState::synthetic(ByteSize::from_bytes(300), seed)
    }

    #[test]
    fn synthetic_state_has_adam_triple() {
        let s = small_state(1);
        let names: Vec<_> = s.tensors().iter().map(Tensor::name).collect();
        assert_eq!(names, vec!["params", "adam_m", "adam_v"]);
        assert_eq!(s.size().as_u64(), 300);
        assert_eq!(s.step_count(), 0);
    }

    #[test]
    fn steps_change_digest_and_are_deterministic() {
        let mut a = small_state(9);
        let mut b = small_state(9);
        let d0 = a.digest();
        a.step();
        b.step();
        assert_ne!(a.digest(), d0);
        assert_eq!(a.digest(), b.digest(), "same seed+steps => same bytes");
        a.step();
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(small_state(1).digest(), small_state(2).digest());
    }

    #[test]
    fn serialize_restore_round_trip() {
        let mut s = small_state(3);
        for _ in 0..5 {
            s.step();
        }
        let mut buf = vec![0u8; s.size().as_usize()];
        s.serialize_into(&mut buf);
        let r = TrainingState::restore(&s.layout(), &buf, s.step_count());
        assert_eq!(r.digest(), s.digest());
        assert_eq!(r.step_count(), 5);
        assert_eq!(r, s);
    }

    #[test]
    fn of_payload_agrees_with_the_state_digest_in_every_form() {
        use pccheck_util::fnv::{block_digests, fold_blocks, DIGEST_BLOCK};
        check(DEFAULT_CASES, |r| {
            // Empty tensors, and tensors straddling block boundaries.
            let tensors = (0..r.range(1..6))
                .map(|i| {
                    let size = if r.chance(0.2) {
                        0
                    } else {
                        r.range(1..3 * DIGEST_BLOCK as u64)
                    };
                    Tensor::synthetic(format!("t{i}"), ByteSize::from_bytes(size), r.next_u64())
                })
                .collect();
            let mut s = TrainingState::from_tensors(tensors);
            for _ in 0..r.range(0..4) {
                s.step();
            }
            let step = s.step_count();
            let mut buf = vec![0u8; s.size().as_usize()];
            s.serialize_into(&mut buf);
            let want = s.digest();
            assert_eq!(StateDigest::of_payload(&buf, step), want);
            // Streaming form, fed in random splits.
            let mut fold = StateFold::new(step, buf.len() as u64);
            let mut rest = &buf[..];
            while !rest.is_empty() {
                let (feed, tail) = rest.split_at(r.range(0..rest.len() as u64 + 1) as usize);
                fold.feed(feed);
                rest = tail;
            }
            assert_eq!(fold.finish(), want.0);
            // Out-of-order form: block values computed back to front.
            let mut blocks: Vec<u64> = buf
                .chunks(DIGEST_BLOCK)
                .rev()
                .flat_map(block_digests)
                .collect();
            blocks.reverse();
            assert_eq!(fold_blocks(step, buf.len() as u64, blocks), want.0);
            // A different step, a zero-extended payload and a one-bit flip
            // anywhere must not verify.
            assert_ne!(StateDigest::of_payload(&buf, step + 1), want);
            buf.push(0);
            assert_ne!(StateDigest::of_payload(&buf, step), want);
            buf.pop();
            if !buf.is_empty() {
                let bit = r.range(0..buf.len() as u64 * 8) as usize;
                buf[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(StateDigest::of_payload(&buf, step), want);
            }
        });
    }

    #[test]
    fn restored_state_evolves_identically() {
        let mut s = small_state(4);
        s.step();
        let mut buf = vec![0u8; s.size().as_usize()];
        s.serialize_into(&mut buf);
        let mut r = TrainingState::restore(&s.layout(), &buf, s.step_count());
        s.step();
        r.step();
        assert_eq!(r.digest(), s.digest(), "recovery must resume identically");
    }

    #[test]
    fn serialize_range_matches_full_serialization() {
        let s = small_state(5);
        let mut full = vec![0u8; s.size().as_usize()];
        s.serialize_into(&mut full);
        // Read in awkward chunk sizes crossing tensor boundaries.
        for chunk in [1usize, 7, 64, 99, 300] {
            let mut collected = Vec::new();
            let mut off = 0u64;
            while off < s.size().as_u64() {
                let n = chunk.min((s.size().as_u64() - off) as usize);
                let mut piece = vec![0u8; n];
                s.serialize_range(off, &mut piece);
                collected.extend_from_slice(&piece);
                off += n as u64;
            }
            assert_eq!(collected, full, "chunk={chunk}");
        }
    }

    #[test]
    #[should_panic(expected = "range exceeds state size")]
    fn serialize_range_out_of_bounds_panics() {
        let s = small_state(6);
        let mut buf = [0u8; 16];
        s.serialize_range(s.size().as_u64() - 8, &mut buf);
    }

    #[test]
    #[should_panic(expected = "payload buffer must match")]
    fn serialize_into_wrong_size_panics() {
        let s = small_state(7);
        let mut buf = vec![0u8; 10];
        s.serialize_into(&mut buf);
    }

    #[test]
    fn sparse_step_at_full_fraction_matches_dense_step() {
        let mut dense = small_state(11);
        let mut sparse = small_state(11);
        dense.step();
        let ranges = sparse.step_sparse(1.0);
        assert_eq!(sparse.digest(), dense.digest());
        // One whole-tensor range per tensor.
        assert_eq!(ranges.len(), 3);
        assert_eq!(ranges.iter().map(|(_, l)| l).sum::<u64>(), 300);
    }

    #[test]
    fn sparse_step_mutates_exactly_the_reported_ranges() {
        let mut s = small_state(12);
        let mut before = vec![0u8; s.size().as_usize()];
        s.serialize_into(&mut before);
        let ranges = s.step_sparse(0.1);
        let mut after = vec![0u8; s.size().as_usize()];
        s.serialize_into(&mut after);
        let dirty: u64 = ranges.iter().map(|(_, l)| l).sum();
        assert!((30..40).contains(&dirty), "~10% of 300 bytes, got {dirty}");
        for (i, (b, a)) in before.iter().zip(&after).enumerate() {
            let in_range = ranges
                .iter()
                .any(|&(off, len)| (i as u64) >= off && (i as u64) < off + len);
            if !in_range {
                assert_eq!(b, a, "byte {i} outside dirty ranges changed");
            } else {
                // The odd-delta transform never maps a byte to itself.
                assert_ne!(b, a, "byte {i} inside dirty ranges unchanged");
            }
        }
        assert_eq!(s.step_count(), 1);
    }

    #[test]
    fn sparse_step_at_zero_fraction_touches_nothing_but_the_counter() {
        let mut s = small_state(13);
        let mut before = vec![0u8; 300];
        s.serialize_into(&mut before);
        let ranges = s.step_sparse(0.0);
        assert!(ranges.is_empty());
        let mut after = vec![0u8; 300];
        s.serialize_into(&mut after);
        assert_eq!(before, after);
        assert_eq!(s.step_count(), 1);
    }

    #[test]
    fn step_is_not_identity_even_at_wraparound_steps() {
        // delta = step*2+1 is always odd, so the per-byte map is never the
        // identity; check a few steps including u8 wrap candidates.
        let mut s = small_state(8);
        let mut prev = s.digest();
        for _ in 0..300 {
            s.step();
            let d = s.digest();
            assert_ne!(d, prev);
            prev = d;
        }
    }

    #[test]
    fn round_trip_any_size() {
        check(DEFAULT_CASES, |r| {
            let (total, seed, steps) = (r.range(3..2048), r.next_u64(), r.range(0..20));
            let mut s = TrainingState::synthetic(ByteSize::from_bytes(total), seed);
            for _ in 0..steps {
                s.step();
            }
            let mut buf = vec![0u8; s.size().as_usize()];
            s.serialize_into(&mut buf);
            let restored = TrainingState::restore(&s.layout(), &buf, s.step_count());
            assert_eq!(restored.digest(), s.digest());
        });
    }

    #[test]
    fn serialize_range_is_consistent() {
        check(DEFAULT_CASES, |r| {
            let (total, off, len) = (r.range(10..512), r.range(0..500), r.range(1..64));
            let s = TrainingState::synthetic(ByteSize::from_bytes(total), 1);
            let off = off.min(total - 1);
            let len = len.min(total - off) as usize;
            let mut full = vec![0u8; total as usize];
            s.serialize_into(&mut full);
            let mut piece = vec![0u8; len];
            s.serialize_range(off, &mut piece);
            assert_eq!(&piece[..], &full[off as usize..off as usize + len]);
        });
    }
}
