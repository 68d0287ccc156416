//! Microbenchmarks of the persistence substrate: nt-store vs clwb PMEM
//! write paths (§3.3), the commit protocol's fixed costs, and the state
//! digest's block kernel.
use std::sync::Arc;

use pccheck::{CheckpointStore, StoreGeometry, DEFAULT_JOB};
use pccheck_bench::stats::time;
use pccheck_device::{DeviceConfig, PersistentDevice, PmemDevice, PmemWriteMode, SsdDevice};
use pccheck_util::fnv::{block_digests, chunk_digest, fold_blocks, DIGEST_BLOCK};
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

fn state_digest_fold() {
    let size = ByteSize::from_mb_u64(32);
    let mut state = vec![0u8; size.as_usize()];
    pccheck_util::rng::fill_deterministic(&mut state, 1);
    println!("[fnv] state digest of 32 MiB: one chain per block vs four blocks at a time");
    let per_block =
        |s: &[u8]| fold_blocks(1, s.len() as u64, s.chunks(DIGEST_BLOCK).map(chunk_digest));
    let lanes = |s: &[u8]| fold_blocks(1, s.len() as u64, block_digests(s));
    assert_eq!(per_block(&state), lanes(&state));
    for (name, fold) in [
        (
            "fnv/state_digest_32mib/per_block_chunk_digest",
            &per_block as &dyn Fn(&[u8]) -> u64,
        ),
        ("fnv/state_digest_32mib/multi_lane_block_digests", &lanes),
    ] {
        let secs = time(name, 20, || fold(&state));
        println!("    = {:.0} MB/s", size.as_u64() as f64 / 1e6 / secs);
    }
}

fn main() {
    pmem_write_paths();
    commit_protocol();
    state_digest_fold();
}
