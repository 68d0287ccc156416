//! PCcheck configuration (the "Configuration Parameters" column of
//! Table 2).

use pccheck_util::ByteSize;

use crate::error::PccheckError;

/// Tunable parameters of a PCcheck engine.
///
/// Defaults follow §3.4's empirical guidance: 2–4 concurrent checkpoints,
/// 2–4 writer threads, 100–500 MB DRAM chunks, pipelining on.
///
/// # Examples
///
/// ```
/// use pccheck::PcCheckConfig;
/// use pccheck_util::ByteSize;
///
/// let cfg = PcCheckConfig::builder()
///     .max_concurrent(2)
///     .writer_threads(3)
///     .chunk_size(ByteSize::from_mb_u64(100))
///     .dram_chunks(8)
///     .build()
///     .unwrap();
/// assert_eq!(cfg.max_concurrent, 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PcCheckConfig {
    /// Maximum number of concurrent checkpoints in flight (the paper's `N`).
    pub max_concurrent: usize,
    /// Parallel writer threads (the paper's `p`): the width of the
    /// pipeline's resident writer pool, which every checkpoint in flight
    /// shares, oldest first.
    pub writer_threads: usize,
    /// DRAM buffer (chunk) size (the paper's `b`).
    pub chunk_size: ByteSize,
    /// Number of DRAM chunks in the staging pool (the paper's `c = M/b`).
    pub dram_chunks: usize,
    /// Whether GPU→DRAM copying is pipelined with DRAM→storage persisting
    /// (Figure 7) or each checkpoint is fully staged before persisting
    /// (Figure 6).
    pub pipelined: bool,
    /// SSD optimization from §4.1: writers only write; the coordinating
    /// thread issues one `msync` covering the whole checkpoint. Must be
    /// `false` on PMEM, where fences are per-thread.
    pub(crate) single_sync: bool,
    /// Capacity (in 64-byte records) of the persistent flight-recorder
    /// ring reserved on the checkpoint device after the slots. `0`
    /// (the default) disables the flight recorder entirely and reserves
    /// no space, so existing capacity-sized stores are unaffected.
    pub flight_records: u32,
    /// Whether the entropy gate may try LZ on each record a checkpoint
    /// materializes. Every checkpoint is planned from the last one and
    /// deduplicated either way; off (the default), no record is `Lz`.
    /// Fixed for the engine's life; to change it, drain and build a new
    /// engine over the same store.
    pub codec: bool,
}

impl PcCheckConfig {
    /// Starts building a configuration from the defaults.
    pub fn builder() -> PcCheckConfigBuilder {
        PcCheckConfigBuilder::default()
    }

    /// Total DRAM the staging pool occupies (the paper's `M`).
    pub(crate) fn dram_bytes(&self) -> ByteSize {
        self.chunk_size * self.dram_chunks as u64
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`PccheckError::InvalidConfig`] when any parameter is zero.
    pub fn validate(&self) -> Result<(), PccheckError> {
        if self.max_concurrent == 0 {
            return Err(PccheckError::InvalidConfig(
                "max_concurrent (N) must be >= 1".into(),
            ));
        }
        if self.writer_threads == 0 {
            return Err(PccheckError::InvalidConfig(
                "writer_threads (p) must be >= 1".into(),
            ));
        }
        if self.chunk_size.is_zero() {
            return Err(PccheckError::InvalidConfig(
                "chunk_size (b) must be nonzero".into(),
            ));
        }
        if self.dram_chunks == 0 {
            return Err(PccheckError::InvalidConfig(
                "dram_chunks (c) must be >= 1".into(),
            ));
        }
        Ok(())
    }
}

impl Default for PcCheckConfig {
    fn default() -> Self {
        PcCheckConfig {
            max_concurrent: 2,
            writer_threads: 3,
            chunk_size: ByteSize::from_mb_u64(100),
            dram_chunks: 8,
            pipelined: true,
            single_sync: false,
            flight_records: 0,
            codec: false,
        }
    }
}

/// Builder for [`PcCheckConfig`].
#[derive(Debug, Clone, Default)]
pub struct PcCheckConfigBuilder {
    config: PcCheckConfig,
}

impl PcCheckConfigBuilder {
    /// Sets the maximum number of concurrent checkpoints (`N`).
    pub fn max_concurrent(mut self, n: usize) -> Self {
        self.config.max_concurrent = n;
        self
    }

    /// Sets the number of writer threads (`p`).
    pub fn writer_threads(mut self, p: usize) -> Self {
        self.config.writer_threads = p;
        self
    }

    /// Sets the DRAM chunk size (`b`).
    pub fn chunk_size(mut self, b: ByteSize) -> Self {
        self.config.chunk_size = b;
        self
    }

    /// Sets the number of DRAM chunks (`c`).
    pub fn dram_chunks(mut self, c: usize) -> Self {
        self.config.dram_chunks = c;
        self
    }

    /// Enables or disables copy/persist pipelining.
    pub fn pipelined(mut self, on: bool) -> Self {
        self.config.pipelined = on;
        self
    }

    /// Enables the single-`msync` SSD optimization.
    // api: sets `PcCheckConfig::single_sync`, which DESIGN §7's table names.
    pub fn single_sync(mut self, on: bool) -> Self {
        self.config.single_sync = on;
        self
    }

    /// Sets the persistent flight-recorder ring capacity in records
    /// (`0` disables the flight recorder).
    pub fn flight_records(mut self, records: u32) -> Self {
        self.config.flight_records = records;
        self
    }

    /// Lets the entropy gate try LZ on each materialized record.
    pub fn codec(mut self, on: bool) -> Self {
        self.config.codec = on;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`PccheckError::InvalidConfig`] when any parameter is zero.
    pub fn build(self) -> Result<PcCheckConfig, PccheckError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_matches_paper_guidance() {
        let cfg = PcCheckConfig::default();
        cfg.validate().unwrap();
        assert!((2..=4).contains(&cfg.max_concurrent));
        assert!((2..=4).contains(&cfg.writer_threads));
        let mb = cfg.chunk_size.as_mb();
        assert!((100.0..=500.0).contains(&mb));
        assert!(cfg.pipelined);
    }

    #[test]
    fn builder_sets_all_fields() {
        let cfg = PcCheckConfig::builder()
            .max_concurrent(4)
            .writer_threads(2)
            .chunk_size(ByteSize::from_mb_u64(250))
            .dram_chunks(4)
            .pipelined(false)
            .single_sync(true)
            .flight_records(256)
            .codec(true)
            .build()
            .unwrap();
        assert_eq!(cfg.max_concurrent, 4);
        assert_eq!(cfg.writer_threads, 2);
        assert_eq!(cfg.chunk_size, ByteSize::from_mb_u64(250));
        assert_eq!(cfg.dram_chunks, 4);
        assert!(!cfg.pipelined);
        assert!(cfg.single_sync);
        assert_eq!(cfg.flight_records, 256);
        assert!(cfg.codec);
        assert_eq!(cfg.dram_bytes(), ByteSize::from_mb_u64(1000));
    }

    #[test]
    fn zero_parameters_rejected() {
        assert!(PcCheckConfig::builder().max_concurrent(0).build().is_err());
        assert!(PcCheckConfig::builder().writer_threads(0).build().is_err());
        assert!(PcCheckConfig::builder()
            .chunk_size(ByteSize::ZERO)
            .build()
            .is_err());
        assert!(PcCheckConfig::builder().dram_chunks(0).build().is_err());
    }
}
