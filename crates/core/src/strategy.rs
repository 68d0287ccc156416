//! The checkpointing strategies the paper compares, as rows of one table.
//!
//! The paper (§2, Figures 3–4, Table 1) tells its baselines from PCcheck
//! along a few axes: how many checkpoints may be in flight, whether the
//! trainer waits for the copy or for the commit, whether DRAM stages the
//! snapshot, and where the bytes go. Each axis is a column of
//! [`STRATEGIES`], and every row builds the one [`PcCheckEngine`] over the
//! device it is given, so every strategy writes the same frames and
//! recovers through [`recover`](crate::recovery::recover) /
//! [`recover_into_gpu`](crate::recover_into_gpu) on its device:
//!
//! | row | N | copy | trainer waits for | device |
//! |---|---|---|---|---|
//! | `pccheck` | the caller's | pipelined through the configured pool | the copy | storage |
//! | `traditional` (Fig. 3) | 1 | staged whole, 4 MiB chunks | the commit | storage |
//! | `checkfreq` (Fig. 4) | 1 | staged whole, 4 MiB chunks | the copy | storage |
//! | `gpm` | 1 | streamed through one 4 MiB chunk | the commit | storage |
//! | `gemini` | 1 | staged whole, 32 MiB pieces | the copy | a peer's DRAM |
//!
//! With N = 1 the one ticket makes the next request wait in `checkpoint()`
//! until the previous checkpoint has committed — CheckFreq's and Gemini's
//! stall — and the engine's resident coordinator runs each checkpoint, so
//! no strategy spawns a thread per checkpoint. A baseline persists on one
//! writer.

use std::sync::Arc;

use pccheck_device::PersistentDevice;
use pccheck_util::ByteSize;

use crate::codec::FrameTable;
use crate::config::PcCheckConfig;
use crate::engine::PcCheckEngine;
use crate::error::PccheckError;
use crate::store::CheckpointStore;

/// Tile size of GPM's copy kernels, and the chunk Traditional and
/// CheckFreq stage the snapshot in.
const KERNEL_COPY_CHUNK: u64 = 4 * 1024 * 1024;

/// Gemini's GPU staging buffer (§3.2): the state ships in pieces of it.
const GEMINI_PIECE: u64 = 32 * 1024 * 1024;

/// What `checkpoint()` holds the training thread for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Waits {
    /// A ticket and the weights lock: the copy runs behind the call, and
    /// the next `update()` waits for it to stage.
    Copy,
    /// The checkpoint's commit: the whole call is stall.
    Commit,
}

/// How a strategy's copy stages the snapshot in DRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Staging {
    /// The caller's PCcheck configuration: a chunk pool pipelined with the
    /// persist (Figure 7).
    Pipelined,
    /// The whole snapshot, in chunks of this many bytes, before any of it
    /// persists.
    Whole(u64),
    /// Through one chunk of this many bytes, GPU → chunk → device: no
    /// DRAM copy of the state (Table 1's `DRAM = 0`).
    Streamed(u64),
}

/// Where a strategy's checkpoints go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Medium {
    /// Persistent storage: an SSD or PMEM.
    Storage,
    /// A peer machine's DRAM over the network
    /// ([`NetworkLink`](pccheck_device::NetworkLink)): it survives a local
    /// crash and is lost with its peer.
    PeerDram,
}

/// One checkpointing strategy: a row of [`STRATEGIES`]. Its columns are
/// private, so the table's rows are the only engines
/// [`build`](Self::build) makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrategyRow {
    /// The name its telemetry spans and `Checkpointer::name` report.
    name: &'static str,
    /// Checkpoints in flight (`N`); `None` takes the caller's.
    in_flight: Option<usize>,
    /// How the copy stages the snapshot.
    staging: Staging,
    /// What the trainer waits for.
    waits: Waits,
    /// Where the bytes go: the device `build` is given.
    medium: Medium,
}

/// Every strategy the paper compares; row 0, PCcheck, is what an engine
/// not built from a row runs.
pub const STRATEGIES: [StrategyRow; 5] = [
    StrategyRow {
        name: "pccheck",
        in_flight: None,
        staging: Staging::Pipelined,
        waits: Waits::Copy,
        medium: Medium::Storage,
    },
    StrategyRow {
        name: "traditional",
        in_flight: Some(1),
        staging: Staging::Whole(KERNEL_COPY_CHUNK),
        waits: Waits::Commit,
        medium: Medium::Storage,
    },
    StrategyRow {
        name: "checkfreq",
        in_flight: Some(1),
        staging: Staging::Whole(KERNEL_COPY_CHUNK),
        waits: Waits::Copy,
        medium: Medium::Storage,
    },
    StrategyRow {
        name: "gpm",
        in_flight: Some(1),
        staging: Staging::Streamed(KERNEL_COPY_CHUNK),
        waits: Waits::Commit,
        medium: Medium::Storage,
    },
    StrategyRow {
        name: "gemini",
        in_flight: Some(1),
        staging: Staging::Whole(GEMINI_PIECE),
        waits: Waits::Copy,
        medium: Medium::PeerDram,
    },
];

impl StrategyRow {
    /// The row called `name`.
    pub fn named(name: &str) -> Option<StrategyRow> {
        STRATEGIES.into_iter().find(|row| row.name == name)
    }

    /// The name its telemetry spans and `Checkpointer::name` report.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Where its checkpoints go: the medium of the device
    /// [`build`](Self::build) is given.
    pub fn medium(&self) -> Medium {
        self.medium
    }

    /// The engine configuration of this row for `state`-byte checkpoints;
    /// `n` is the caller's N.
    fn config(&self, n: usize, state: ByteSize) -> PcCheckConfig {
        let base = PcCheckConfig {
            max_concurrent: self.in_flight.unwrap_or(n),
            ..PcCheckConfig::default()
        };
        match self.staging {
            Staging::Pipelined => base,
            Staging::Whole(chunk) => PcCheckConfig {
                writer_threads: 1,
                chunk_size: ByteSize::from_bytes(chunk),
                dram_chunks: state.as_u64().div_ceil(chunk).max(1) as usize,
                pipelined: false,
                ..base
            },
            Staging::Streamed(chunk) => PcCheckConfig {
                writer_threads: 1,
                chunk_size: ByteSize::from_bytes(chunk),
                dram_chunks: 1,
                ..base
            },
        }
    }

    /// Device bytes [`build`](Self::build) formats for `state`-byte
    /// checkpoints: N + 1 slots, each holding the state's frame. `n` is N
    /// for the `pccheck` row; every baseline runs N = 1 whatever it is.
    pub fn required_capacity(&self, n: usize, state: ByteSize) -> ByteSize {
        let config = self.config(n, state);
        let slot = FrameTable::slot_size_for(state, config.chunk_size);
        CheckpointStore::required_capacity(slot, config.max_concurrent as u32 + 1)
    }

    /// Formats a store for `state`-byte checkpoints on `device` and builds
    /// this row's engine over it; `n` is N for the `pccheck` row, and every
    /// baseline ignores it (N = 1).
    ///
    /// # Errors
    ///
    /// Returns [`PccheckError::InvalidConfig`] if the device is smaller
    /// than [`required_capacity`](Self::required_capacity), or, for the
    /// `pccheck` row only, if `n` is zero.
    pub fn build(
        &self,
        n: usize,
        device: Arc<dyn PersistentDevice>,
        state: ByteSize,
    ) -> Result<PcCheckEngine, PccheckError> {
        let mut engine = PcCheckEngine::new(self.config(n, state), device, state)?;
        engine.name = self.name;
        engine.waits = self.waits;
        Ok(engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pccheck_device::{DeviceConfig, NetworkConfig, NetworkLink, SsdDevice};
    use pccheck_gpu::{Checkpointer, Gpu, GpuConfig, TrainingState};
    use pccheck_telemetry::{EventKind, Phase, Telemetry};
    use pccheck_util::{Bandwidth, SimDuration};

    use crate::recovery::recover;

    fn gpu(size: u64, seed: u64) -> Gpu {
        Gpu::new(
            GpuConfig::fast_for_tests(),
            TrainingState::synthetic(ByteSize::from_bytes(size), seed),
        )
    }

    fn row(name: &str) -> StrategyRow {
        StrategyRow::named(name).expect("a strategy row")
    }

    /// A device of `row`'s medium with `capacity` bytes, writing at `mbps`
    /// MB/s when given and at memory speed otherwise.
    fn device(
        row: StrategyRow,
        capacity: ByteSize,
        mbps: Option<f64>,
    ) -> Arc<dyn PersistentDevice> {
        let bandwidth = Bandwidth::from_mb_per_sec(mbps.unwrap_or(1e6));
        match row.medium {
            Medium::Storage => Arc::new(SsdDevice::new(DeviceConfig {
                capacity,
                write_bandwidth: bandwidth,
                throttled: mbps.is_some(),
            })),
            Medium::PeerDram => Arc::new(NetworkLink::new(
                NetworkConfig {
                    bandwidth,
                    latency: SimDuration::ZERO,
                    throttled: mbps.is_some(),
                },
                capacity,
            )),
        }
    }

    #[test]
    fn every_row_builds_its_engine_on_exactly_its_capacity_and_recovers() {
        let names: Vec<&str> = STRATEGIES.iter().map(|r| r.name()).collect();
        assert_eq!(
            names,
            ["pccheck", "traditional", "checkfreq", "gpm", "gemini"]
        );
        assert_eq!(StrategyRow::named("dynamo"), None);
        for row in STRATEGIES {
            let gpu = gpu(300, 1);
            let state = gpu.state_size();
            let cap = row.required_capacity(2, state);
            let short = device(row, cap - ByteSize::from_bytes(1), None);
            assert!(
                matches!(
                    row.build(2, short, state),
                    Err(PccheckError::InvalidConfig(_))
                ),
                "{}",
                row.name
            );
            let dev = device(row, cap, None);
            let engine = row.build(2, Arc::clone(&dev), state).unwrap();
            assert_eq!(engine.name(), row.name);
            let slots = engine.namespace().desc().slot_count as usize;
            assert_eq!(slots, row.in_flight.unwrap_or(2) + 1, "{}", row.name);
            for iteration in 1..=2 {
                gpu.update();
                engine.checkpoint(&gpu, iteration);
                engine.drain();
            }
            // An RNG-dense update leaves nothing to serve: the frame is all
            // `Raw`, one record per chunk.
            let store = engine.store();
            let head = store.latest_committed(engine.namespace()).unwrap();
            let table = FrameTable::decode(&store.read_checkpoint(&head).unwrap()).unwrap();
            let chunk = engine.pipeline().staging_pool().chunk_size().as_u64();
            let chunks = state.as_u64().div_ceil(chunk) as usize;
            assert_eq!(table.records.len(), chunks, "{}", row.name);
            let raw = |r: &crate::codec::FrameRecord| r.kind == crate::ChunkEncoding::Raw;
            assert!(table.records.iter().all(raw), "{}: {table:?}", row.name);
            dev.crash_now();
            dev.recover();
            let rec = recover(dev).unwrap();
            let fresh = self::gpu(300, 2);
            rec.restore_into(&fresh);
            assert_eq!((rec.iteration, fresh.digest()), (2, gpu.digest()));
        }
    }

    /// Traditional and GPM: the trainer waits for the commit, so every call
    /// returns with its checkpoint durable, and emits one stall that covers
    /// it — the persist included, ~50 ms at 5 MB/s.
    #[test]
    fn telemetry_traces_inline_lifecycle() {
        for row in [row("traditional"), row("gpm")] {
            let gpu = gpu(256 * 1024, 3);
            let cap = row.required_capacity(1, gpu.state_size());
            let dev = device(row, cap, Some(5.0));
            let telemetry = Telemetry::enabled();
            let engine = row
                .build(1, Arc::clone(&dev), gpu.state_size())
                .unwrap()
                .with_telemetry(telemetry.clone());
            for iter in 1..=3 {
                gpu.update();
                engine.checkpoint(&gpu, iter);
                let committed = engine.last_committed().map(|o| o.iteration);
                assert_eq!(committed, Some(iter), "{}", row.name);
            }
            let snap = telemetry.snapshot().expect("telemetry enabled");
            assert_eq!(snap.counters.requested, 3);
            assert_eq!(snap.counters.committed, 3);
            for phase in [Phase::GpuCopy, Phase::Persist, Phase::Commit] {
                assert_eq!(snap.phase(phase).count, 3, "{}", phase.name());
            }
            let stalls: Vec<u64> = telemetry
                .events()
                .iter()
                .filter_map(|e| match e.kind {
                    EventKind::Stall { nanos } => Some(nanos),
                    _ => None,
                })
                .collect();
            assert_eq!(stalls.len(), 3, "{}", row.name);
            assert_eq!(snap.stall.count, 3);
            assert!(
                stalls.iter().all(|&nanos| nanos > 20_000_000),
                "{}: {stalls:?}",
                row.name
            );
            // Durable without a drain: a crash now recovers the last call.
            dev.crash_now();
            dev.recover();
            assert_eq!(recover(dev).unwrap().iteration, 3, "{}", row.name);
        }
    }

    /// CheckFreq and Gemini: one checkpoint in flight. The call returns
    /// once the copy holds the weights, and the next one waits for the
    /// previous commit (a ~0.1 s persist at 10 MB/s): order, not time.
    #[test]
    fn a_one_in_flight_row_stalls_the_next_request_behind_the_previous_commit() {
        for row in [row("checkfreq"), row("gemini")] {
            let gpu = gpu(1_000_000, 5);
            let cap = row.required_capacity(1, gpu.state_size());
            let engine = row
                .build(1, device(row, cap, Some(10.0)), gpu.state_size())
                .unwrap();
            gpu.update();
            engine.checkpoint(&gpu, 1);
            gpu.update();
            engine.checkpoint(&gpu, 2);
            let committed = engine.last_committed().map(|o| o.iteration);
            assert_eq!(
                committed,
                Some(1),
                "{}: checkpoint(2) did not wait",
                row.name
            );
            engine.drain();
            assert_eq!(engine.last_committed().unwrap().iteration, 2);
        }
    }

    /// Gemini's device is the peer's DRAM: a local crash loses nothing
    /// already sent, and a failed peer loses every checkpoint and fails
    /// every later one. Its replacement is a new link, which holds no store
    /// until the row formats one on it.
    #[test]
    fn gemini_keeps_its_checkpoints_through_a_local_crash_and_loses_them_with_its_peer() {
        let gemini = row("gemini");
        let gpu = gpu(300, 13);
        let state = gpu.state_size();
        let cap = gemini.required_capacity(1, state);
        let link = Arc::new(NetworkLink::new(NetworkConfig::fast_for_tests(), cap));
        let telemetry = Telemetry::enabled();
        let engine = gemini
            .build(1, link.clone(), state)
            .unwrap()
            .with_telemetry(telemetry.clone());
        gpu.update();
        engine.checkpoint(&gpu, 1);
        engine.drain();
        link.crash_now();
        link.recover();
        let rec = recover(link.clone()).unwrap();
        assert_eq!((rec.iteration, rec.digest), (1, gpu.digest().0));

        link.fail_peer();
        for iter in 2..=3 {
            gpu.update();
            engine.checkpoint(&gpu, iter);
            engine.drain();
        }
        let counters = telemetry.snapshot().expect("enabled").counters;
        assert_eq!((counters.committed, counters.failed), (1, 2));
        assert_eq!(engine.last_committed().unwrap().iteration, 1);
        let peer_gone = Err(PccheckError::Device(
            pccheck_device::DeviceError::PeerUnavailable,
        ));
        assert_eq!(recover(link.clone()), peer_gone);

        // The replacement peer: no store until the row formats one, then no
        // checkpoint until the next one commits.
        let replacement = Arc::new(NetworkLink::new(NetworkConfig::fast_for_tests(), cap));
        assert!(matches!(
            recover(replacement.clone()),
            Err(PccheckError::InvalidConfig(_))
        ));
        let engine = gemini.build(1, replacement.clone(), state).unwrap();
        assert_eq!(
            recover(replacement.clone()),
            Err(PccheckError::NoCheckpoint)
        );
        gpu.update();
        engine.checkpoint(&gpu, 4);
        engine.drain();
        let rec = recover(replacement).unwrap();
        assert_eq!((rec.iteration, rec.digest), (4, gpu.digest().0));
        assert_eq!(recover(link), peer_gone);
    }

    /// A local crash while a Gemini checkpoint is on the wire (~0.2 s for
    /// 1 MB at 5 MB/s): that checkpoint fails, and the peer still holds the
    /// previous one, bit-exact.
    #[test]
    fn a_local_crash_mid_transfer_recovers_the_previous_gemini_checkpoint() {
        let gemini = row("gemini");
        let gpu = gpu(1_000_000, 17);
        let cap = gemini.required_capacity(1, gpu.state_size());
        let link = device(gemini, cap, Some(5.0));
        let telemetry = Telemetry::enabled();
        let engine = gemini
            .build(1, Arc::clone(&link), gpu.state_size())
            .unwrap()
            .with_telemetry(telemetry.clone());
        gpu.update();
        engine.checkpoint(&gpu, 1);
        engine.drain();
        let first = gpu.digest();
        gpu.update();
        engine.checkpoint(&gpu, 2);
        std::thread::sleep(std::time::Duration::from_millis(20));
        link.crash_now();
        engine.drain();
        let counters = telemetry.snapshot().expect("enabled").counters;
        assert_eq!((counters.committed, counters.failed), (1, 1));
        link.recover();
        let rec = recover(link).unwrap();
        let fresh = self::gpu(1_000_000, 18);
        rec.restore_into(&fresh);
        assert_eq!((rec.iteration, fresh.digest()), (1, first));
    }
}
