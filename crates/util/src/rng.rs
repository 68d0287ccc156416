//! Deterministic seeded generator.
//!
//! Every stochastic component (synthetic preemption traces, workload
//! payloads, property tests' cases) draws from an [`Rng`] built from an
//! explicit seed, so any experiment can be replayed exactly. The stream is
//! a format: tensor bytes, and through them the ledger's `write_amp`, are
//! functions of it, and the golden-vector tests below pin it.

use std::ops::Range;

/// xoshiro256** (Blackman & Vigna), seeded through splitmix64.
///
/// # Examples
///
/// ```
/// use pccheck_util::rng::Rng;
/// let (mut a, mut b) = (Rng::seeded(42), Rng::seeded(42));
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates the generator for `seed`.
    pub fn seeded(seed: u64) -> Self {
        let mut z = seed;
        Rng {
            s: std::array::from_fn(|_| {
                z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
                splitmix_finish(z)
            }),
        }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)`, from the top 53 bits of one word.
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A fair coin: the top bit of one word.
    pub fn bool(&mut self) -> bool {
        self.next_u64() >> 63 == 1
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p out of range");
        self.next_f64() < p
    }

    /// An integer in `range` (one word, reduced modulo the span).
    pub fn range(&mut self, range: Range<u64>) -> u64 {
        assert!(range.start < range.end, "empty range");
        range.start + self.next_u64() % (range.end - range.start)
    }

    /// A float in `range`.
    pub fn range_f64(&mut self, range: Range<f64>) -> f64 {
        assert!(range.start < range.end, "empty range");
        range.start + (range.end - range.start) * self.next_f64()
    }

    /// Fills `buf` from successive words, little-endian; a tail shorter
    /// than eight bytes takes the low bytes of one more word.
    pub fn fill(&mut self, buf: &mut [u8]) {
        let mut words = buf.chunks_exact_mut(8);
        for word in &mut words {
            word.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let tail = words.into_remainder();
        if !tail.is_empty() {
            tail.copy_from_slice(&self.next_u64().to_le_bytes()[..tail.len()]);
        }
    }

    /// `len` random bytes.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        self.fill(&mut buf);
        buf
    }
}

fn splitmix_finish(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives a child seed from a parent seed and a stream label.
///
/// Components that need independent streams (e.g., each node in a distributed
/// run) use the same parent seed with distinct labels, keeping the whole
/// experiment reproducible from one number.
///
/// # Examples
///
/// ```
/// let a = pccheck_util::rng::derive_seed(1, "node-0");
/// let b = pccheck_util::rng::derive_seed(1, "node-1");
/// assert_ne!(a, b);
/// assert_eq!(a, pccheck_util::rng::derive_seed(1, "node-0"));
/// ```
pub fn derive_seed(parent: u64, label: &str) -> u64 {
    splitmix_finish(parent ^ crate::fnv::fnv1a(label.as_bytes()))
}

/// Fills `buf` with deterministic pseudo-random bytes from `seed`.
///
/// Used to give checkpoint tensors verifiable content without storing a
/// reference copy.
pub fn fill_deterministic(buf: &mut [u8], seed: u64) {
    Rng::seeded(seed).fill(buf);
}

/// Runs a property on `cases` generators, seeds `0..cases`.
///
/// The property draws its inputs from the generator and asserts with the
/// ordinary macros. When a case panics its seed is printed, and
/// `property(&mut Rng::seeded(seed))` replays exactly that case.
pub fn check(cases: u64, property: impl Fn(&mut Rng)) {
    struct Case(u64);
    impl Drop for Case {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!("property failed; replay with Rng::seeded({})", self.0);
            }
        }
    }
    for seed in 0..cases {
        let _case = Case(seed);
        property(&mut Rng::seeded(seed));
    }
}

/// Case count of a property test that has no reason to pick its own.
pub const DEFAULT_CASES: u64 = 256;

#[cfg(test)]
mod tests {
    use super::*;

    /// First words, a 13-byte `fill`, then one draw of each derivation.
    fn draws(seed: u64) -> ([u64; 4], [u8; 13], f64, f64, bool, bool, u64) {
        let mut r = Rng::seeded(seed);
        let words = std::array::from_fn(|_| r.next_u64());
        let mut tail = [0u8; 13];
        r.fill(&mut tail);
        let (unit, ranged) = (r.next_f64(), r.range_f64(1.0..60.0));
        (
            words,
            tail,
            unit,
            ranged,
            r.bool(),
            r.chance(0.2),
            r.range(3..9),
        )
    }

    /// The stream every checked-in ledger number was fed.
    #[test]
    fn golden_vectors_pin_the_stream() {
        assert_eq!(
            draws(0),
            (
                [
                    0x99ec_5f36_cb75_f2b4,
                    0xbf6e_1f78_4956_452a,
                    0x1a5f_849d_4933_e6e0,
                    0x6aa5_94f1_262d_2d2c,
                ],
                [89, 46, 132, 31, 74, 173, 165, 187, 202, 202, 235, 217, 117],
                0.42221152382531557,
                32.60363710977431,
                true,
                false,
                7,
            )
        );
        assert_eq!(
            draws(42),
            (
                [
                    0x1578_0b2e_0c2e_c716,
                    0x6104_d986_6d11_3a7e,
                    0xae17_5332_39e4_99a1,
                    0xecb8_ad47_03b3_60a1,
                ],
                [100, 94, 236, 226, 127, 220, 230, 253, 56, 82, 121, 1, 49],
                0.7192585778779156,
                51.15049819074739,
                true,
                false,
                4,
            )
        );
        assert_eq!(derive_seed(1, "node-0"), 0x5974_9d5a_525a_2c85);
        assert_eq!(derive_seed(7, "preemption-trace"), 0xcc21_bf58_030f_b84b);
    }

    #[test]
    fn fill_deterministic_fills_short_tails() {
        // Every length 1..=23 ends in a tail that is not a whole word; the
        // tail must be written, and be the prefix of the longer fill.
        let mut long = [0u8; 24];
        fill_deterministic(&mut long, 5);
        for len in 1..24 {
            let mut buf = vec![0u8; len];
            fill_deterministic(&mut buf, 5);
            assert_eq!(buf, long[..len], "len {len}");
        }
        assert!(long[16..].iter().any(|&b| b != 0));
    }

    #[test]
    fn different_seeds_differ() {
        let (mut a, mut b) = (Rng::seeded(1), Rng::seeded(2));
        let xs: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        let s1 = derive_seed(99, "trace");
        let s3 = derive_seed(99, "workload");
        let s4 = derive_seed(100, "trace");
        assert_ne!(s1, s3);
        assert_ne!(s1, s4);
    }

    #[test]
    fn derivations_stay_in_range() {
        check(DEFAULT_CASES, |r| {
            assert!((0.0..1.0).contains(&r.next_f64()));
            assert!((3..9).contains(&r.range(3..9)));
            assert!((1.0..60.0).contains(&r.range_f64(1.0..60.0)));
            assert!(!r.chance(0.0));
            assert!(r.chance(1.0));
        });
    }
}
