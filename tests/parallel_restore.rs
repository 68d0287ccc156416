//! Cross-validation of the parallel restore pipeline: recovering the same
//! device with four readers and with one reader must produce bit-identical
//! checkpoints — for plain full checkpoints and for chunk-framed commits
//! chained through dedup bases, over stores the persist pipeline wrote and
//! over hand-assembled ones that cut the restore plan every awkward way —
//! and a candidate with anything wrong in it, or in a home it names, must
//! be rejected whole.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use pccheck::store::SlotLease;
use pccheck::{
    compress_gated, raw_frame, recover_instrumented_with, recover_into_gpu, recovery, CheckMeta,
    CheckpointStore, ChunkEncoding, CopyMode, DeltaLink, DeltaPolicy, FrameRecord, FrameTable,
    Namespace, PersistPipeline, PipelineCtx, RestoreOptions, StoreGeometry, DEFAULT_JOB,
};
use pccheck_device::{
    DeviceConfig, DeviceStats, HostBufferPool, PersistentDevice, Result as DeviceResult, SsdDevice,
};
use pccheck_gpu::{Gpu, GpuConfig, StateDigest, Tensor, TrainingState};
use pccheck_telemetry::{SpanId, Telemetry};
use pccheck_util::fnv::{chunk_digest, content_address, fnv1a, state_digest};
use pccheck_util::rng::{self, Rng};
use pccheck_util::{Bandwidth, ByteSize};

const STATE: u64 = 8 * 1024;
const MAX_CHAIN: u32 = 3;

/// Staging chunk of [`pipeline_for`], and so the record size of its frames.
const CHUNK: u64 = 512;

fn store_on(slots: u32) -> (Arc<SsdDevice>, Arc<CheckpointStore>) {
    let size = FrameTable::slot_size_for(ByteSize::from_bytes(STATE), ByteSize::from_bytes(CHUNK));
    let cap = CheckpointStore::required_capacity(size, slots) + ByteSize::from_kb(4);
    let ssd = Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
    let dev: Arc<dyn PersistentDevice> = ssd.clone();
    let store =
        Arc::new(CheckpointStore::format(dev, StoreGeometry::single(size, slots)).expect("format"));
    (ssd, store)
}

/// The tenant of a single-tenant store.
fn ns(store: &CheckpointStore) -> Arc<Namespace> {
    store.namespace(DEFAULT_JOB).expect("single-tenant store")
}

fn pipeline_for(store: &Arc<CheckpointStore>) -> PersistPipeline {
    PersistPipeline::new(
        Arc::clone(store),
        HostBufferPool::new(ByteSize::from_bytes(CHUNK), 16),
    )
    .with_writers(2)
}

fn sequential() -> RestoreOptions {
    RestoreOptions {
        readers: 1,
        job: None,
    }
}

fn parallel() -> RestoreOptions {
    RestoreOptions {
        readers: 4,
        job: None,
    }
}

#[test]
fn parallel_and_sequential_recovery_agree_on_full_checkpoints() {
    let gpu = Gpu::new(
        GpuConfig::fast_for_tests(),
        TrainingState::synthetic(ByteSize::from_bytes(STATE), 17),
    );
    gpu.update();

    let (ssd, store) = store_on(2);
    let pipe = pipeline_for(&store);
    let telemetry = Telemetry::disabled();
    let ctx = PipelineCtx {
        telemetry: &telemetry,
        span: SpanId::NONE,
    };
    for iter in 1..=3u64 {
        if iter > 1 {
            gpu.update();
        }
        let guard = gpu.lock_weights_shared_owned();
        let total = guard.size();
        let lease = pipe.lease(ctx, &ns(&store));
        let copied = pipe
            .copy(ctx, &guard, &lease, iter, total, CopyMode::Streamed)
            .expect("full copy");
        drop(guard);
        pipe.seal(ctx, &lease, iter, &copied).expect("seal");
        pipe.commit(ctx, lease, iter, &copied).expect("commit");
    }
    drop(pipe);

    let dev: Arc<dyn PersistentDevice> = ssd.clone();
    let (par, par_trace) =
        recover_instrumented_with(Arc::clone(&dev), &telemetry, parallel()).expect("parallel");
    let (seq, seq_trace) =
        recover_instrumented_with(dev, &telemetry, sequential()).expect("sequential");

    assert_eq!(par.iteration, 3);
    assert_eq!(par.iteration, seq.iteration);
    assert_eq!(par.counter, seq.counter);
    assert_eq!(par.digest, seq.digest);
    assert_eq!(
        par.payload, seq.payload,
        "reader fan-out must not change a single byte"
    );
    assert_eq!(par_trace.chain_links, 0);
    assert_eq!(par_trace.chain_links, seq_trace.chain_links);

    // The pre-pipeline entry point agrees too.
    let baseline = recovery::recover(ssd).expect("plain recover");
    assert_eq!(baseline.payload, par.payload);
}

#[test]
fn parallel_and_sequential_recovery_agree_on_dedup_chains() {
    let gpu = Gpu::new(
        GpuConfig::fast_for_tests(),
        TrainingState::compressible(ByteSize::from_bytes(STATE), 23, 32),
    );
    gpu.update();

    let (ssd, store) = store_on(MAX_CHAIN + 2);
    let pipe = pipeline_for(&store).with_codec(true);
    let telemetry = Telemetry::disabled();
    let ctx = PipelineCtx {
        telemetry: &telemetry,
        span: SpanId::NONE,
    };
    let policy = DeltaPolicy {
        max_chain: MAX_CHAIN,
    };

    for iter in 1..=4u64 {
        if iter > 1 {
            gpu.update_sparse(0.10);
        }
        let guard = gpu.lock_weights_shared_owned();
        pipe.checkpoint_framed(ctx, &ns(&store), &guard, iter, CopyMode::Codec(policy))
            .expect("framed checkpoint");
    }
    drop(pipe);

    let dev: Arc<dyn PersistentDevice> = ssd.clone();
    let (par, par_trace) =
        recover_instrumented_with(Arc::clone(&dev), &telemetry, parallel()).expect("parallel");
    let (seq, seq_trace) =
        recover_instrumented_with(dev, &telemetry, sequential()).expect("sequential");

    assert_eq!(par.iteration, 4);
    assert!(par_trace.chain_links >= 1, "head must reference its base");
    assert_eq!(par_trace.chain_links, seq_trace.chain_links);
    assert_eq!(par.counter, seq.counter);
    assert_eq!(
        par.payload, seq.payload,
        "the parallel frame walk must reproduce the sequential bytes"
    );

    // Both land on a GPU identical to the live weights.
    let live = gpu.with_weights(|w| w.digest());
    let restored = Gpu::new(
        GpuConfig::fast_for_tests(),
        TrainingState::synthetic(ByteSize::from_bytes(STATE), 99),
    );
    restored.restore(&par.payload, par.iteration);
    assert_eq!(restored.with_weights(|w| w.digest()), live);
}

// ---------------------------------------------------------------------
// Hand-assembled stores: every geometry the restore plan has to cut.
// ---------------------------------------------------------------------

/// Where each distinct chunk content already sits in a committed frame
/// that materialized it: `(digest, len)` → `(counter, slot, logical off)`.
type FramedHomes = HashMap<(u64, u64), (u64, u32, u64)>;

/// What the encoder below did, summed over a run, so the property can
/// say its generator reached every shape it claims to cover.
#[derive(Default)]
struct Shapes {
    two_homes: Cell<u32>,
    all_raw_and_codec_home: Cell<u32>,
    self_ref_to_lz: Cell<u32>,
    straddles_a_tensor: Cell<u32>,
    empty_tensor: Cell<u32>,
    under_one_block: Cell<u32>,
    all_raw_head: Cell<u32>,
}

fn bump(cell: &Cell<u32>) {
    cell.set(cell.get() + 1);
}

/// A store the test wrote commit by commit, below the persist pipeline.
struct Built {
    ssd: Arc<SsdDevice>,
    store: Arc<CheckpointStore>,
    /// `(commit record, logical payload)` in commit order; the last is
    /// the head.
    commits: Vec<(CheckMeta, Vec<u8>)>,
    /// Index of the first all-`Raw` commit: the all-`Raw` home frames may
    /// name.
    raw_home: Option<usize>,
    homes: FramedHomes,
}

impl Built {
    fn new(slot_bytes: u64, slots: u32) -> Built {
        let size = ByteSize::from_bytes(slot_bytes);
        let cap = CheckpointStore::required_capacity(size, slots) + ByteSize::from_kb(4);
        let ssd = Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
        let dev: Arc<dyn PersistentDevice> = ssd.clone();
        let store = Arc::new(
            CheckpointStore::format(dev, StoreGeometry::single(size, slots)).expect("format"),
        );
        Built {
            ssd,
            store,
            commits: Vec::new(),
            raw_home: None,
            homes: FramedHomes::new(),
        }
    }

    fn device(&self) -> Arc<dyn PersistentDevice> {
        self.ssd.clone()
    }

    fn head(&self) -> &(CheckMeta, Vec<u8>) {
        self.commits.last().expect("a commit")
    }

    /// Writes `slot_payload` into the leased slot and commits it, linked
    /// to the previous commit so that every home stays pinned.
    fn seal(
        &mut self,
        lease: SlotLease,
        iteration: u64,
        logical: &[u8],
        slot_payload: &[u8],
        digest: u64,
    ) {
        let delta = self.commits.last().map(|(m, _)| DeltaLink {
            base_counter: m.counter,
            base_slot: m.slot,
            chain_depth: self.commits.len() as u32,
        });
        let meta = CheckMeta {
            counter: lease.counter,
            slot: lease.slot,
            iteration,
            payload_len: slot_payload.len() as u64,
            digest,
            delta,
        };
        self.store.write_payload(&lease, 0, slot_payload).unwrap();
        self.store
            .persist_payload(&lease, 0, meta.payload_len)
            .unwrap();
        self.store
            .commit_with_delta(lease, iteration, meta.payload_len, digest, delta)
            .unwrap();
        self.commits.push((meta, logical.to_vec()));
    }

    /// Commits `logical` as the all-`Raw` frame of `chunk`-byte records
    /// the product builds; the first such commit becomes the all-`Raw`
    /// home later frames on the same record grid may reference.
    fn commit_raw(&mut self, iteration: u64, logical: &[u8], chunk: usize) {
        let lease = self.store.begin_checkpoint(&ns(&self.store));
        let full_digest = state_digest(iteration, logical);
        let (frame, digest) = raw_frame(lease.counter, full_digest, logical, chunk);
        self.seal(lease, iteration, logical, &frame, digest);
        self.raw_home.get_or_insert(self.commits.len() - 1);
    }

    /// Commits `logical` as a frame of `chunk`-byte records: a chunk some
    /// earlier frame materialized, or that the all-`Raw` home holds at the
    /// same offset, becomes a `DedupBase` reference (unless `r` says
    /// otherwise); a repeat within the frame a `DedupSelf`; everything
    /// else is LZ-compressed when it gains and stored raw when not.
    fn commit_framed(
        &mut self,
        r: &mut Rng,
        iteration: u64,
        logical: &[u8],
        chunk: usize,
        shapes: &Shapes,
    ) {
        // The table names its own commit, so the lease comes first.
        let lease = self.store.begin_checkpoint(&ns(&self.store));
        let (counter, slot) = (lease.counter, lease.slot);
        let raw_home = self.raw_home.map(|i| self.commits[i].clone());

        let mut records = Vec::new();
        let mut packed = Vec::new();
        let mut mine: HashMap<(u64, u64), usize> = HashMap::new();
        let mut materialized = FramedHomes::new();
        let mut homes_named = Vec::new();
        for (k, bytes) in logical.chunks(chunk).enumerate() {
            let off = k * chunk;
            let key = (content_address(bytes), bytes.len() as u64);
            let record = |kind, aux, a, b| FrameRecord {
                kind,
                aux,
                logical_len: key.1,
                a,
                b,
                digest: key.0,
            };
            let in_raw_home = raw_home.as_ref().filter(|(_, payload)| {
                payload.get(off..off + bytes.len()) == Some(bytes) && r.chance(0.9)
            });
            let in_framed_home = self.homes.get(&key).filter(|_| r.chance(0.9));
            if let Some(&(home, home_slot, home_off)) = in_framed_home {
                homes_named.push((home, false));
                records.push(record(ChunkEncoding::DedupBase, home_slot, home, home_off));
            } else if let Some((home, _)) = in_raw_home {
                homes_named.push((home.counter, true));
                records.push(record(
                    ChunkEncoding::DedupBase,
                    home.slot,
                    home.counter,
                    off as u64,
                ));
            } else if let Some(&first) = mine.get(&key) {
                if records[first].kind == ChunkEncoding::Lz {
                    bump(&shapes.self_ref_to_lz);
                }
                records.push(record(ChunkEncoding::DedupSelf, first as u32, 0, 0));
            } else {
                mine.insert(key, k);
                materialized.insert(key, (counter, slot, off as u64));
                let at = packed.len() as u64;
                match compress_gated(bytes) {
                    Some(lz) => {
                        records.push(record(ChunkEncoding::Lz, 0, at, lz.len() as u64));
                        packed.extend_from_slice(&lz);
                    }
                    None => {
                        records.push(record(ChunkEncoding::Raw, 0, at, key.1));
                        packed.extend_from_slice(bytes);
                    }
                }
            }
        }
        homes_named.sort_unstable();
        homes_named.dedup();
        if homes_named.len() >= 2 {
            bump(&shapes.two_homes);
            if homes_named.iter().any(|h| h.1) && homes_named.iter().any(|h| !h.1) {
                bump(&shapes.all_raw_and_codec_home);
            }
        }

        let table = FrameTable {
            counter,
            logical_len: logical.len() as u64,
            full_digest: state_digest(iteration, logical),
            records,
        };
        let table_bytes = table.encode();
        let slot_payload = [&table_bytes[..], &packed].concat();
        self.seal(
            lease,
            iteration,
            logical,
            &slot_payload,
            fnv1a(&table_bytes),
        );
        self.homes.extend(materialized);
    }
}

/// Transforms a few random ranges of `payload` byte by byte (a bijection
/// that ignores position, so tiled content stays tiled).
fn mutate(r: &mut Rng, payload: &mut [u8]) {
    for _ in 0..r.range(1..4) {
        let len = r.range(1..payload.len() as u64 / 3 + 2) as usize;
        let at = r.range(0..payload.len() as u64) as usize;
        for b in payload.iter_mut().skip(at).take(len) {
            *b = b.wrapping_mul(3).wrapping_add(7);
        }
    }
}

/// A random geometry: a tensor layout (empty tensors, a state under one
/// digest block), a chunk size that need not divide anything, and four
/// commits — an all-`Raw` one, two codec frames, and a head of either
/// kind — each a mutation of the one before, so later frames reference
/// earlier ones.
fn random_store(r: &mut Rng, shapes: &Shapes) -> (Built, Vec<u64>) {
    let tiny = r.chance(0.15);
    let mut sizes: Vec<u64> = (0..r.range(1..6))
        .map(|_| match (r.chance(0.2), tiny) {
            (true, _) => 0,
            (false, true) => r.range(1..700),
            (false, false) => r.range(1..3 * 4096 + 500),
        })
        .collect();
    if sizes.iter().sum::<u64>() == 0 {
        sizes[0] = r.range(1..4096);
    }
    let total: u64 = sizes.iter().sum();
    let tensors = sizes
        .iter()
        .enumerate()
        .map(|(i, &size)| {
            let (name, size, seed) = (format!("t{i}"), ByteSize::from_bytes(size), r.next_u64());
            match r.range(0..3) {
                0 => Tensor::synthetic(name, size, seed),
                1 => Tensor::compressible(name, size, seed, 32),
                _ => Tensor::compressible(name, size, seed, 1000),
            }
        })
        .collect();
    let mut payload = vec![0u8; total as usize];
    TrainingState::from_tensors(tensors).serialize_into(&mut payload);
    let chunk = [256, 5000, 4096, 1000][r.range(0..4) as usize];

    if sizes.contains(&0) {
        bump(&shapes.empty_tensor);
    }
    if total < 4096 {
        bump(&shapes.under_one_block);
    }
    let mut edge = 0;
    if sizes.iter().any(|s| {
        edge += s;
        edge < total && edge % chunk as u64 != 0
    }) {
        bump(&shapes.straddles_a_tensor);
    }

    // A frame of 256-byte records is a sixth table; leave room.
    let mut built = Built::new(2 * total + 4096, 6);
    built.commit_raw(1, &payload, chunk);
    for iteration in 2..=3 {
        mutate(r, &mut payload);
        built.commit_framed(r, iteration, &payload, chunk, shapes);
    }
    mutate(r, &mut payload);
    if r.chance(0.25) {
        bump(&shapes.all_raw_head);
        built.commit_raw(4, &payload, chunk);
    } else {
        built.commit_framed(r, 4, &payload, chunk, shapes);
    }
    (built, sizes)
}

fn fresh_gpu(sizes: &[u64]) -> Gpu {
    let tensors = sizes
        .iter()
        .enumerate()
        .map(|(i, &s)| Tensor::synthetic(format!("t{i}"), ByteSize::from_bytes(s), 999))
        .collect();
    Gpu::new(
        GpuConfig::fast_for_tests(),
        TrainingState::from_tensors(tensors),
    )
}

/// Recovers `built`'s head at 1, 2 and 4 readers, in memory and into a
/// GPU of layout `sizes`, and checks every answer against the bytes the
/// test committed. Returns what recovery returned, as
/// `(chunk_digest(payload), digest)`.
fn recover_every_way(built: &Built, sizes: &[u64]) -> (u64, u64) {
    let (head, logical) = built.head();
    let want = state_digest(head.iteration, logical);
    let telemetry = Telemetry::disabled();
    let mut recovered = (0, 0);
    for readers in [1, 2, 4] {
        let options = RestoreOptions { readers, job: None };
        let (rec, trace) =
            recover_instrumented_with(built.device(), &telemetry, options).expect("recovers");
        assert_eq!(trace.fallbacks, 0, "{readers} readers");
        assert_eq!(rec.counter, head.counter);
        assert_eq!(rec.iteration, head.iteration);
        assert_eq!(rec.digest, want, "{readers} readers");
        assert!(
            rec.payload == *logical,
            "{readers} readers: payload differs"
        );
        recovered = (chunk_digest(&rec.payload), rec.digest);

        let gpu = fresh_gpu(sizes);
        let metered = gpu.copy_engine().bytes_copied();
        let trace = recover_into_gpu(built.device(), &gpu, &telemetry, options).expect("recovers");
        assert_eq!(trace.iteration, head.iteration);
        assert_eq!(gpu.digest(), StateDigest(want), "{readers} readers");
        assert_eq!(gpu.step_count(), head.iteration);
        assert_eq!(
            gpu.copy_engine().bytes_copied() - metered,
            logical.len() as u64,
            "every landed byte crosses the copy engine exactly once"
        );
    }
    recovered
}

/// What the serial frame walk this executor retired recovered for the
/// stores of a few generator seeds, pinned from the commit before it:
/// `(seed, (chunk_digest(payload), full digest))`. Seeds 14, 19 and 25
/// are codec heads naming the all-`Raw` home and both codec ones, with
/// `Lz` and `DedupSelf` records among the rest (19 and 25 over five
/// tensors, one of 19's empty); 17 is an all-`Raw` head; 42 is under one
/// digest block, its records straddling its tensors. The record format
/// changed under them (version 3); the states they recover did not.
const GOLDEN: [(u64, (u64, u64)); 5] = [
    (14, (0x5c91_68ed_adc9_cbab, 0x81d8_de51_2929_2371)),
    (17, (0x9ca4_76d5_f924_d8cc, 0x9d29_6718_18b2_c929)),
    (19, (0x9e64_3305_4930_c2f4, 0x67d3_dfb9_7664_f67a)),
    (25, (0xc11a_6ac4_99a4_12d8, 0xd42c_6e55_ced0_83be)),
    (42, (0x6de6_6d50_3f55_ee10, 0xd74b_29c2_5e51_ddfc)),
];

#[test]
fn every_reader_count_recovers_random_geometries_bit_identically() {
    let shapes = Shapes::default();
    rng::check(96, |r| {
        let (built, sizes) = random_store(r, &shapes);
        recover_every_way(&built, &sizes);
    });
    // The generator reached what it is here to reach.
    for (what, seen) in [
        ("a frame naming two homes", &shapes.two_homes),
        (
            "an all-Raw home and a codec home",
            &shapes.all_raw_and_codec_home,
        ),
        ("a DedupSelf of an Lz record", &shapes.self_ref_to_lz),
        ("a record straddling tensors", &shapes.straddles_a_tensor),
        ("an empty tensor", &shapes.empty_tensor),
        ("a payload under one block", &shapes.under_one_block),
        ("an all-Raw head", &shapes.all_raw_head),
    ] {
        assert!(seen.get() >= 3, "only {} cases had {what}", seen.get());
    }

    for (seed, golden) in GOLDEN {
        let (built, sizes) = random_store(&mut Rng::seeded(seed), &shapes);
        assert_eq!(recover_every_way(&built, &sizes), golden, "seed {seed}");
    }
}

// ---------------------------------------------------------------------
// Rejection: whatever is wrong, in the head or in a home it names, the
// head is rejected whole and recovery lands on an older commit.
// ---------------------------------------------------------------------

const LAYOUT: [u64; 4] = [3000, 0, 5000, 4100];

/// Three commits of a [`LAYOUT`] state in 1000-byte records: an all-`Raw`
/// one, a codec frame, and a head — a codec frame naming both as homes,
/// or all-`Raw`.
fn chained_store(framed_head: bool) -> Built {
    let shapes = Shapes::default();
    let mut r = Rng::seeded(5);
    let tensors = vec![
        Tensor::synthetic("t0", ByteSize::from_bytes(LAYOUT[0]), 1),
        Tensor::synthetic("t1", ByteSize::from_bytes(LAYOUT[1]), 2),
        Tensor::compressible("t2", ByteSize::from_bytes(LAYOUT[2]), 3, 32),
        Tensor::synthetic("t3", ByteSize::from_bytes(LAYOUT[3]), 4),
    ];
    let total: u64 = LAYOUT.iter().sum();
    let mut payload = vec![0u8; total as usize];
    TrainingState::from_tensors(tensors).serialize_into(&mut payload);
    let mut built = Built::new(2 * total, 4);
    built.commit_raw(1, &payload, 1000);
    payload[2500..4500].iter_mut().for_each(|b| *b ^= 0x5A);
    built.commit_framed(&mut r, 2, &payload, 1000, &shapes);
    payload[9000..9700].iter_mut().for_each(|b| *b ^= 0x3C);
    if framed_head {
        built.commit_framed(&mut r, 3, &payload, 1000, &shapes);
        assert_eq!(shapes.all_raw_and_codec_home.get(), 1, "head names both");
    } else {
        built.commit_raw(3, &payload, 1000);
    }
    built
}

/// A device range recovery of `built`'s head must read: for a codec
/// head, the physical range in the codec home (commit 2) that the first
/// head record naming that home resolves to; for an all-`Raw` head, a
/// range of its own state.
fn a_range_the_head_needs(built: &Built) -> (u64, u64) {
    let (head, _) = built.head();
    let payload = built.store.read_checkpoint(head).expect("head payload");
    let head_table = FrameTable::decode(&payload).expect("head table");
    let home = built.commits[1].0;
    let named = head_table
        .records
        .iter()
        .find(|r| r.kind == ChunkEncoding::DedupBase && r.a == home.counter);
    let Some(named) = named else {
        let packed = built.store.slot_payload_offset(head.slot) + head_table.encoded_len();
        return (packed + 7000, 64);
    };
    let home_table = FrameTable::decode(&built.store.read_checkpoint(&home).expect("home"))
        .expect("commit 2's table");
    let held = home_table
        .records
        .iter()
        .find(|r| {
            r.kind.is_materialized()
                && (r.digest, r.logical_len) == (named.digest, named.logical_len)
        })
        .expect("the home materialized what the head names");
    let packed = built.store.slot_payload_offset(home.slot) + home_table.encoded_len();
    (packed + held.a, held.b)
}

fn overwrite(ssd: &SsdDevice, at: u64, bytes: &[u8]) {
    ssd.write_at(at, bytes).unwrap();
    ssd.persist(at, bytes.len() as u64).unwrap();
}

/// A device on which a slot is recycled under the reader: the first
/// durable read that touches `range` finds other bytes there already.
#[derive(Debug)]
struct RecycledUnderRead {
    inner: Arc<SsdDevice>,
    range: (u64, u64),
    armed: AtomicBool,
}

impl PersistentDevice for RecycledUnderRead {
    fn capacity(&self) -> ByteSize {
        self.inner.capacity()
    }
    fn bandwidth(&self) -> Bandwidth {
        self.inner.bandwidth()
    }
    fn write_at(&self, offset: u64, data: &[u8]) -> DeviceResult<()> {
        self.inner.write_at(offset, data)
    }
    fn persist(&self, offset: u64, len: u64) -> DeviceResult<()> {
        self.inner.persist(offset, len)
    }
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> DeviceResult<()> {
        self.inner.read_at(offset, buf)
    }
    fn read_durable_at(&self, offset: u64, buf: &mut [u8]) -> DeviceResult<()> {
        let (at, len) = self.range;
        let touches = offset < at + len && at < offset + buf.len() as u64;
        if touches && self.armed.swap(false, Ordering::SeqCst) {
            overwrite(&self.inner, at, &vec![0xA5; len as usize]);
        }
        self.inner.read_durable_at(offset, buf)
    }
    fn crash_now(&self) {
        self.inner.crash_now();
    }
    fn recover(&self) {
        self.inner.recover();
    }
    fn stats(&self) -> &DeviceStats {
        self.inner.stats()
    }
}

#[test]
fn a_fault_in_the_head_or_in_a_home_rejects_the_head_and_falls_back() {
    type Fault = fn(&Built) -> Arc<dyn PersistentDevice>;
    let flipped_byte: Fault = |built| {
        let (at, len) = a_range_the_head_needs(built);
        let mut byte = [0u8];
        built.ssd.read_durable_at(at + len / 2, &mut byte).unwrap();
        overwrite(&built.ssd, at + len / 2, &[byte[0] ^ 0x10]);
        built.device()
    };
    let read_fault: Fault = |built| {
        let (at, len) = a_range_the_head_needs(built);
        built.ssd.arm_read_fault_at(at + len / 2, 1);
        built.device()
    };
    let recycled_under_the_reader: Fault = |built| {
        Arc::new(RecycledUnderRead {
            inner: built.ssd.clone(),
            range: a_range_the_head_needs(built),
            armed: AtomicBool::new(true),
        })
    };
    // The home's table claims more records than its payload could hold.
    let table_longer_than_its_payload: Fault = |built| {
        let home = built.commits[1].0;
        let count_field = built.store.slot_payload_offset(home.slot) + 8;
        overwrite(&built.ssd, count_field, &u32::MAX.to_le_bytes());
        built.device()
    };
    // A fault in the codec home fails that home as a candidate too, so
    // the codec head falls back to commit 1; the all-Raw head's own fault
    // leaves commit 2 intact.
    let cases: [(&str, bool, Fault, u64); 6] = [
        ("byte flipped in a home range", true, flipped_byte, 1),
        ("read fault on a home range", true, read_fault, 1),
        (
            "home recycled after the plan",
            true,
            recycled_under_the_reader,
            1,
        ),
        (
            "home table past its payload",
            true,
            table_longer_than_its_payload,
            1,
        ),
        ("byte flipped in an all-Raw head", false, flipped_byte, 2),
        ("read fault on an all-Raw head", false, read_fault, 2),
    ];
    let telemetry = Telemetry::disabled();
    for (what, framed_head, fault, survivor) in cases {
        for readers in [1, 4] {
            let options = RestoreOptions { readers, job: None };
            let built = chained_store(framed_head);
            let (_, logical) = &built.commits[survivor as usize - 1];
            let device = fault(&built);
            let gpu = fresh_gpu(&LAYOUT);
            let trace = recover_into_gpu(Arc::clone(&device), &gpu, &telemetry, options)
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!(trace.iteration, survivor, "{what}, {readers} readers");
            assert_eq!(trace.fallbacks, 3 - survivor, "{what}, {readers} readers");
            assert_eq!(
                gpu.digest(),
                StateDigest(state_digest(survivor, logical)),
                "{what}, {readers} readers: the GPU holds exactly the older commit"
            );
            let (rec, _) = recover_instrumented_with(device, &telemetry, options)
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            assert!(rec.payload == *logical, "{what}, {readers} readers");
        }
    }
}

// ---------------------------------------------------------------------
// Counts: what a recovery reads is bounded by what it needs.
// ---------------------------------------------------------------------

#[test]
fn a_head_naming_one_chunk_in_each_of_two_homes_reads_less_than_one_home() {
    const MIB: usize = 1 << 20;
    const CHUNK: usize = 64 * 1024;
    let shapes = Shapes::default();
    let mut r = Rng::seeded(1);
    let mut built = Built::new(2 * MIB as u64, 4);
    // Two homes of incompressible bytes: every chunk materializes.
    let (a, b) = (r.bytes(MIB), r.bytes(MIB));
    built.commit_framed(&mut r, 1, &a, CHUNK, &shapes);
    built.commit_framed(&mut r, 2, &b, CHUNK, &shapes);
    let head = [&a[3 * CHUNK..4 * CHUNK], &b[9 * CHUNK..10 * CHUNK]].concat();
    built.commit_framed(&mut r, 3, &head, CHUNK, &shapes);
    assert_eq!(shapes.two_homes.get(), 1, "one reference into each home");
    assert!(built.head().0.payload_len < 200, "the head is its table");

    let before = built.ssd.stats().bytes_read().as_u64();
    let options = RestoreOptions {
        readers: 2,
        job: None,
    };
    let (rec, _) = recover_instrumented_with(built.device(), &Telemetry::disabled(), options)
        .expect("recovers");
    assert!(rec.payload == head);
    let read = built.ssd.stats().bytes_read().as_u64() - before;
    assert!(
        read >= head.len() as u64 && read < built.commits[0].0.payload_len,
        "read {read} bytes to rebuild {} from two {MIB}-byte homes",
        head.len()
    );
}

#[test]
fn job_scoped_recovery_on_a_service_store_issues_under_100_reads() {
    const STATE: u64 = 512 * 1024;
    const RECORD: usize = 64 * 1024;
    let state = ByteSize::from_bytes(STATE);
    let geometry = StoreGeometry {
        slot_size: FrameTable::slot_size_for(state, ByteSize::from_bytes(RECORD as u64)),
        slots: 12,
        flight_records: 512,
        max_namespaces: 4,
    };
    let cap = geometry.required_capacity() + ByteSize::from_kb(4);
    let ssd = Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
    let store = CheckpointStore::format(ssd.clone(), geometry).expect("format");
    let mut payloads = Vec::new();
    for job in 1..=4u64 {
        let ns = store.allocate_namespace(job, 3).expect("namespace");
        for iteration in 1..=2u64 {
            let payload = Rng::seeded(10 * job + iteration).bytes(STATE as usize);
            let lease = store.begin_checkpoint(&ns);
            let full_digest = state_digest(iteration, &payload);
            let (frame, digest) = raw_frame(lease.counter, full_digest, &payload, RECORD);
            let len = frame.len() as u64;
            store.write_payload(&lease, 0, &frame).unwrap();
            store.persist_payload(&lease, 0, len).unwrap();
            store.commit(lease, iteration, len, digest).unwrap();
            payloads.push(payload);
        }
    }
    drop(store);

    let before = ssd.stats().read_ops();
    let options = RestoreOptions {
        readers: 2,
        job: Some(3),
    };
    let (rec, _) =
        recover_instrumented_with(ssd.clone(), &Telemetry::disabled(), options).expect("recovers");
    assert_eq!(rec.iteration, 2);
    assert!(rec.payload == payloads[5], "job 3's second checkpoint");
    let reads = ssd.stats().read_ops() - before;
    assert!(
        reads < 100,
        "{reads} device reads to recover one tenant: the 512-record ring is one of them"
    );
}
