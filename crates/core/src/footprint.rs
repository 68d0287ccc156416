//! Table 1: memory and storage footprint per checkpointing algorithm.
//!
//! | Algorithm | GPU Mem     | DRAM      | Storage   |
//! |-----------|-------------|-----------|-----------|
//! | CheckFreq | m           | m         | 2·m       |
//! | GPM       | m           | 0         | 2·m       |
//! | Gemini    | m + buffer  | m         | 0         |
//! | PCcheck   | m           | m..2·m    | (N+1)·m   |
//!
//! The functions here are the executable form of that table; the Table 1
//! bench (`table1_footprint`) prints it, and engine tests assert the
//! concrete engines never exceed these bounds.

use pccheck_util::ByteSize;

/// Gemini's staging buffer on the GPU (§3.2: 32 MB).
pub(crate) const GEMINI_GPU_BUFFER: ByteSize = ByteSize::from_mb_u64(32);

/// Footprint of one algorithm for checkpoint size `m`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Footprint {
    /// GPU memory consumed beyond the training state itself plus the state.
    pub gpu: ByteSize,
    /// Host DRAM for checkpoint staging (min and max when a range applies).
    pub dram_min: ByteSize,
    /// Maximum host DRAM.
    pub dram_max: ByteSize,
    /// Persistent storage.
    pub storage: ByteSize,
}

/// CheckFreq: snapshot in DRAM (m), double-buffered storage (2m).
pub fn checkfreq(m: ByteSize) -> Footprint {
    Footprint {
        gpu: m,
        dram_min: m,
        dram_max: m,
        storage: m * 2,
    }
}

/// GPM: GPU writes straight to mapped persistent memory — no DRAM staging.
pub fn gpm(m: ByteSize) -> Footprint {
    Footprint {
        gpu: m,
        dram_min: ByteSize::ZERO,
        dram_max: ByteSize::ZERO,
        storage: m * 2,
    }
}

/// Gemini: remote-DRAM checkpoints — no persistent storage, a small GPU
/// staging buffer, and m of (remote) DRAM.
pub fn gemini(m: ByteSize) -> Footprint {
    Footprint {
        gpu: m + GEMINI_GPU_BUFFER,
        dram_min: m,
        dram_max: m,
        storage: ByteSize::ZERO,
    }
}

/// PCcheck with `n` concurrent checkpoints: m–2m of DRAM staging and
/// (N+1)·m of storage.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn pccheck(m: ByteSize, n: usize) -> Footprint {
    assert!(n > 0, "PCcheck needs N >= 1");
    Footprint {
        gpu: m,
        dram_min: m,
        dram_max: m * 2,
        storage: m * (n as u64 + 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const M: ByteSize = ByteSize::from_mb_u64(1024); // 1 GiB checkpoint

    #[test]
    fn table1_checkfreq() {
        let f = checkfreq(M);
        assert_eq!(f.dram_min, M);
        assert_eq!(f.dram_max, M);
        assert_eq!(f.storage, M * 2);
        assert_eq!(f.gpu, M);
    }

    #[test]
    fn table1_gpm_uses_no_dram() {
        let f = gpm(M);
        assert_eq!(f.dram_min, ByteSize::ZERO);
        assert_eq!(f.dram_max, ByteSize::ZERO);
        assert_eq!(f.storage, M * 2);
    }

    #[test]
    fn table1_gemini_uses_no_storage() {
        let f = gemini(M);
        assert_eq!(f.storage, ByteSize::ZERO);
        assert_eq!(f.gpu, M + ByteSize::from_mb_u64(32));
        assert_eq!(f.dram_max, M);
    }

    #[test]
    fn table1_pccheck_scales_with_n() {
        for n in 1..=4 {
            let f = pccheck(M, n);
            assert_eq!(f.storage, M * (n as u64 + 1));
            assert_eq!(f.dram_min, M);
            assert_eq!(f.dram_max, M * 2);
            assert_eq!(f.gpu, M);
        }
        // N=1 PCcheck matches the baselines' 2m storage.
        assert_eq!(pccheck(M, 1).storage, checkfreq(M).storage);
    }

    #[test]
    #[should_panic(expected = "N >= 1")]
    fn pccheck_rejects_zero_n() {
        pccheck(M, 0);
    }
}
