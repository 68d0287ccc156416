//! Microbenchmarks of the persistence substrate: nt-store vs clwb PMEM
//! write paths (§3.3) and the commit protocol's fixed costs.
use std::sync::Arc;

use pccheck::{CheckpointStore, StoreGeometry, DEFAULT_JOB};
use pccheck_bench::stats::time;
use pccheck_device::{DeviceConfig, PersistentDevice, PmemDevice, PmemWriteMode, SsdDevice};
use pccheck_util::ByteSize;

fn pmem_write_paths() {
    let size = ByteSize::from_mb_u64(1);
    let payload = vec![0xA5u8; size.as_usize()];
    println!("[device] PMEM write + sfence of 1 MB");
    for mode in [PmemWriteMode::NtStore, PmemWriteMode::ClwbWriteBack] {
        let dev = PmemDevice::new(DeviceConfig::fast_for_tests(ByteSize::from_mb_u64(2)), mode);
        let secs = time(&format!("device/pmem_write_1mb/{mode:?}"), 20, || {
            dev.write_at(0, &payload).expect("write");
            dev.sfence().expect("fence");
        });
        println!("    = {:.0} MB/s", size.as_u64() as f64 / 1e6 / secs);
    }
}

fn commit_protocol() {
    /// Commits per timed rep: one is too short for the clock.
    const COMMITS: u64 = 1_000;
    let cap = CheckpointStore::required_capacity(ByteSize::from_bytes(64), 3);
    let dev: Arc<dyn PersistentDevice> =
        Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
    let geometry = StoreGeometry::single(ByteSize::from_bytes(64), 3);
    let store = CheckpointStore::format(dev, geometry).expect("format");
    let ns = store.namespace(DEFAULT_JOB).expect("single-tenant store");
    let mut iter = 0u64;
    println!("[store] begin + write + persist + commit of 64 B, x{COMMITS}");
    time("store/commit_protocol/begin_write_commit_64b", 20, || {
        for _ in 0..COMMITS {
            iter += 1;
            let lease = store.begin_checkpoint(&ns);
            store.write_payload(&lease, 0, &[1u8; 64]).expect("write");
            store.persist_payload(&lease, 0, 64).expect("persist");
            store.commit(lease, iter, 64, 0).expect("commit");
        }
    });
}

fn main() {
    pmem_write_paths();
    commit_protocol();
}
