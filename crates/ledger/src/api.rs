//! Every symbol the ledger takes from the product, imported once.
//!
//! The benchmark is frozen against this surface: a refactor that keeps
//! these names (listed with their reasons in `API.md`) cannot break it,
//! and a reviewer can see at a glance what "measured from outside" means.
//! No `copy_*` / `commit*` / `fetch_*` / `format_*` verb appears here.

pub use pccheck::queue::SlotQueue;
pub use pccheck::{
    compress_gated, lz_decompress, recover_into_gpu, CheckpointStore, PcCheckConfig, PcCheckEngine,
    PccheckError, QosArbiter, QosConfig, RestoreOptions,
};
pub use pccheck_daemon::{Daemon, DaemonConfig, JobSpec, SubmitOutcome};
pub use pccheck_device::{
    DeviceConfig, DeviceStats, HostBufferPool, PersistentDevice, Result as DeviceResult, SsdDevice,
};
pub use pccheck_gpu::{Checkpointer, Gpu, GpuConfig, NullCheckpointer, Tensor, TrainingState};
pub use pccheck_telemetry::{Phase, Telemetry, TelemetrySnapshot};
pub use pccheck_util::fnv::{chunk_digest, fnv1a};
pub use pccheck_util::json::JsonValue;
pub use pccheck_util::{Bandwidth, ByteSize, Summary};
