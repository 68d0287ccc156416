//! Home-addressed dedup generations, end to end: a clean chunk stays a
//! one-hop `DedupBase` reference to the checkpoint that physically holds
//! it; the depth bound applies to each hit and is clamped by the lease's
//! slot budget, so a committed chain never pins the last free slot; a
//! frame whose link target was displaced before it could commit is
//! withdrawn; and a frame naming several homes audits clean and fails
//! closed when any home rots.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use pccheck::{
    compress_gated, recover_instrumented_with, recover_into_gpu, recovery, CheckMeta,
    CheckpointStore, ChunkEncoding, CommitOutcome, FrameRecord, FrameTable, Namespace,
    PcCheckConfig, PcCheckEngine, PccheckError, PersistPipeline, PipelineCtx, RestoreOptions,
    StoreGeometry, DEFAULT_JOB,
};
use pccheck_device::{DeviceConfig, HostBufferPool, PersistentDevice, SsdDevice};
use pccheck_gpu::{Checkpointer, Gpu, GpuConfig, Tensor, TrainingState};
use pccheck_telemetry::{SpanId, Telemetry};
use pccheck_util::ByteSize;

/// The ledger's `saturate_sparse` layout: an RNG-dense `params` tensor
/// (incompressible, so only dedup can save its bytes) beside two tiled
/// optimizer tensors.
fn mixed_state(total: u64, seed: u64) -> TrainingState {
    let shares = ByteSize::from_bytes(total).split_even(3);
    TrainingState::from_tensors(vec![
        Tensor::synthetic("params", shares[0], seed),
        Tensor::compressible("adam_m", shares[1], seed, 4096),
        Tensor::compressible("adam_v", shares[2], seed, 64),
    ])
}

fn mixed_gpu(total: u64, seed: u64) -> Gpu {
    Gpu::new(GpuConfig::fast_for_tests(), mixed_state(total, seed))
}

fn serialized(gpu: &Gpu) -> Vec<u8> {
    gpu.with_weights(|w| {
        let mut buf = vec![0u8; w.size().as_usize()];
        w.serialize_into(&mut buf);
        buf
    })
}

/// Slots that hold a `state`-byte checkpoint's frame of `chunk`-byte
/// records.
fn slot_for(state: u64, chunk: u64) -> ByteSize {
    FrameTable::slot_size_for(ByteSize::from_bytes(state), ByteSize::from_bytes(chunk))
}

fn ssd_store(
    state: u64,
    chunk: u64,
    slots: u32,
    flight: u32,
) -> (Arc<SsdDevice>, Arc<CheckpointStore>) {
    let geometry = StoreGeometry {
        flight_records: flight,
        ..StoreGeometry::single(slot_for(state, chunk), slots)
    };
    let cap = geometry.required_capacity() + ByteSize::from_kb(4);
    let ssd = Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
    let dev: Arc<dyn PersistentDevice> = ssd.clone();
    let store = Arc::new(CheckpointStore::format(dev, geometry).expect("format"));
    (ssd, store)
}

/// The tenant of a single-tenant store.
fn ns(store: &CheckpointStore) -> Arc<Namespace> {
    store.namespace(DEFAULT_JOB).expect("single-tenant store")
}

fn framed_pipeline(store: &Arc<CheckpointStore>, state: u64, chunk: u64) -> PersistPipeline {
    PersistPipeline::new(
        Arc::clone(store),
        HostBufferPool::new(
            ByteSize::from_bytes(chunk),
            (2 * state).div_ceil(chunk) as usize,
        ),
    )
    .with_writers(2)
}

fn ctx(telemetry: &Telemetry) -> PipelineCtx<'_> {
    PipelineCtx {
        telemetry,
        span: SpanId::NONE,
    }
}

/// The head's frame table and the distinct `(counter, slot)` homes its
/// `DedupBase` records name.
fn head_frame(store: &CheckpointStore, head: &CheckMeta) -> (FrameTable, Vec<(u64, u32)>) {
    let table = FrameTable::decode(&store.read_checkpoint(head).expect("head payload"))
        .expect("head is framed");
    let mut homes: Vec<(u64, u32)> = table
        .records
        .iter()
        .filter(|r| r.kind == ChunkEncoding::DedupBase)
        .map(|r| (r.a, r.aux))
        .collect();
    homes.sort_unstable();
    homes.dedup();
    (table, homes)
}

/// The record of `table` that starts at logical offset `off`.
fn record_at(table: &FrameTable, off: u64) -> Option<FrameRecord> {
    let mut at = 0;
    let mut records = table.records.iter().map(|r| {
        at += r.logical_len;
        (at - r.logical_len, *r)
    });
    records.find(|&(at, _)| at == off).map(|(_, r)| r)
}

/// Drives `engine` through six checkpoints whose dirty set moves, on a
/// watchdog: a chain that pins every slot of the budget makes the fourth
/// `begin_checkpoint` spin forever, which must fail the test, not hang it.
fn run_moving_dirty_set(engine: PcCheckEngine, gpu: Gpu, what: &'static str) {
    let (done, finished) = mpsc::channel();
    let driver = std::thread::spawn(move || {
        for iter in 1..=6u64 {
            // Checkpoint 2 re-homes the trailing half, checkpoint 3 keeps
            // most of it clean: the shape that used to commit at depth 2.
            gpu.update_sparse(if iter % 2 == 0 { 0.5 } else { 0.05 });
            engine.checkpoint(&gpu, iter);
            engine.try_drain().expect("checkpoint persists");
            done.send(iter).expect("test still listening");
        }
        engine.last_committed().expect("committed").iteration
    });
    for iter in 1..=6u64 {
        match finished.recv_timeout(Duration::from_secs(60)) {
            Ok(reached) => assert_eq!(reached, iter),
            // The driver is left spinning in `dequeue_blocking`; it cannot
            // be joined.
            Err(_) => panic!(
                "{what}: engine stopped making progress after checkpoint {}",
                iter - 1
            ),
        }
    }
    assert_eq!(driver.join().expect("driver panicked"), 6);
}

fn engine_config(state: u64, chunk: u64) -> PcCheckConfig {
    PcCheckConfig::builder()
        .max_concurrent(2)
        .writer_threads(2)
        .chunk_size(ByteSize::from_bytes(chunk))
        .dram_chunks((2 * state).div_ceil(chunk) as usize)
        .codec(true)
        .build()
        .expect("valid config")
}

const ENGINE_STATE: u64 = 1024 * 1024;
const ENGINE_CHUNK: u64 = 16 * 1024;

#[test]
fn moving_dirty_set_never_pins_the_last_slot_of_an_engine_store() {
    // `PcCheckEngine::new` formats N + 1 = 3 slots.
    let size = ByteSize::from_bytes(ENGINE_STATE);
    let geometry = StoreGeometry {
        flight_records: 64,
        ..StoreGeometry::single(slot_for(ENGINE_STATE, ENGINE_CHUNK), 3)
    };
    let cap = geometry.required_capacity() + ByteSize::from_kb(4);
    let ssd = Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
    let engine = PcCheckEngine::new(
        engine_config(ENGINE_STATE, ENGINE_CHUNK),
        ssd.clone() as Arc<dyn PersistentDevice>,
        size,
    )
    .expect("engine");
    assert_eq!(engine.store().num_slots(), 3);
    let gpu = mixed_gpu(ENGINE_STATE, 5);
    let live = gpu.clone();
    run_moving_dirty_set(engine, gpu, "3-slot store");

    let rec = recovery::recover(ssd).expect("recoverable");
    assert_eq!(rec.iteration, 6);
    assert_eq!(rec.payload, serialized(&live));
}

#[test]
fn moving_dirty_set_never_pins_the_last_slot_of_a_namespace() {
    // The budget is the namespace's three slots, not the store's eight:
    // a bound derived from the store would let the chain reach depth 2
    // and pin the whole namespace.
    let geometry = StoreGeometry {
        slot_size: slot_for(ENGINE_STATE, ENGINE_CHUNK),
        slots: 8,
        flight_records: 64,
        max_namespaces: 4,
    };
    let cap = geometry.required_capacity() + ByteSize::from_kb(4);
    let ssd = Arc::new(SsdDevice::new(DeviceConfig::fast_for_tests(cap)));
    let store = Arc::new(
        CheckpointStore::format(ssd.clone() as Arc<dyn PersistentDevice>, geometry)
            .expect("format"),
    );
    store.allocate_namespace(7, 3).expect("namespace");
    let pipeline = Arc::new(framed_pipeline(&store, ENGINE_STATE, ENGINE_CHUNK));
    let engine = PcCheckEngine::with_shared(engine_config(ENGINE_STATE, ENGINE_CHUNK), pipeline, 7)
        .expect("engine");
    let gpu = mixed_gpu(ENGINE_STATE, 6);
    let live = gpu.clone();
    run_moving_dirty_set(engine, gpu, "3-slot namespace");

    let options = RestoreOptions {
        job: Some(7),
        ..RestoreOptions::default()
    };
    let (rec, _) =
        recover_instrumented_with(ssd, &Telemetry::disabled(), options).expect("recoverable");
    assert_eq!(rec.iteration, 6);
    assert_eq!(rec.payload, serialized(&live));
}

#[test]
fn clean_chunks_keep_one_home_across_eight_commits_on_three_slots() {
    const STATE: u64 = 4 * 1024 * 1024;
    const CHUNK: u64 = 64 * 1024;
    let (ssd, store) = ssd_store(STATE, CHUNK, 3, 0);
    let pipeline = framed_pipeline(&store, STATE, CHUNK);
    let telemetry = Telemetry::disabled();
    let gpu = mixed_gpu(STATE, 1);
    gpu.update();
    // Each optimizer tensor's whole chunks repeat one tile-aligned chunk.
    // The root frame materializes the tensor's first whole chunk `Lz` and
    // names it from the rest; `update_sparse(0.05)` dirties each tensor's
    // last 5%. So each clean whole chunk after the first is served from
    // that one `Lz` record, at another logical offset: the tensor's first.
    let mut repeats = Vec::new();
    let mut start = 0;
    for (k, share) in ByteSize::from_bytes(STATE).split_even(3).iter().enumerate() {
        let len = share.as_u64();
        let clean_end = start + len - (len as f64 * 0.05).ceil() as u64;
        let first = start.div_ceil(CHUNK) * CHUNK;
        let later = (first + CHUNK..clean_end - CHUNK + 1).step_by(CHUNK as usize);
        if k > 0 {
            repeats.extend(later.map(|off| (off, first)));
        }
        start += len;
    }
    assert_eq!(
        repeats.len(),
        18 + 18,
        "adam_m's and adam_v's later clean chunks"
    );

    let mut first_chunk_home = None;
    let mut named = std::collections::HashMap::new();
    for iter in 1..=8u64 {
        if iter > 1 {
            gpu.update_sparse(0.05);
        }
        let guard = gpu.lock_weights_shared_owned();
        let (out, copied) = pipeline
            .checkpoint_framed(ctx(&telemetry), &ns(&store), &guard, iter, true)
            .expect("framed checkpoint");
        drop(guard);
        assert_eq!(out, CommitOutcome::Committed);
        let (payload_len, saved) = (copied.payload_len, copied.frame.saved_bytes);
        assert!(saved > 0, "iteration {iter}: the mixed state packs");
        let head = store.latest_committed(&ns(&store)).expect("head");
        if iter > 1 {
            assert_eq!(
                head.delta.map(|l| l.chain_depth),
                Some(1),
                "iteration {iter}: three slots allow depth 1 and no more"
            );
            let (table, _) = head_frame(&store, &head);
            let params = table.records[0];
            assert_eq!(params.kind, ChunkEncoding::DedupBase, "iteration {iter}");
            let home = (params.a, params.aux);
            assert_eq!(
                *first_chunk_home.get_or_insert(home),
                home,
                "iteration {iter}: a clean chunk never changes homes"
            );
            let history = store.history(&ns(&store)).expect("history");
            for &(off, first) in &repeats {
                let r = record_at(&table, off).expect("a record starts at every chunk");
                assert_eq!((r.kind, r.logical_len), (ChunkEncoding::DedupBase, CHUNK));
                assert_eq!(
                    r.b, first,
                    "iteration {iter}: {off} names its tensor's first chunk"
                );
                let home = (history.iter())
                    .find(|m| (m.counter, m.slot) == (r.a, r.aux))
                    .expect("the home is committed");
                let (home_table, _) = head_frame(&store, home);
                let held = record_at(&home_table, first).expect("the home has a record there");
                assert_eq!((held.kind, held.logical_len), (ChunkEncoding::Lz, CHUNK));
                let name = (r.a, r.aux, r.b);
                assert_eq!(
                    *named.entry(off).or_insert(name),
                    name,
                    "iteration {iter}: {off} keeps its home"
                );
            }
            let ratio = payload_len as f64 / STATE as f64;
            assert!(
                ratio <= 0.06,
                "iteration {iter}: physical / logical = {ratio:.4}"
            );
        }

        ssd.crash_now();
        ssd.recover();
        let rec = recovery::recover(ssd.clone()).expect("recoverable");
        assert_eq!(rec.iteration, iter);
        assert_eq!(rec.payload, serialized(&gpu), "iteration {iter}");
    }
}

/// Three RNG-dense tensors over eight 16 KiB chunks (four digest blocks
/// each), sized so that a quarter-tail update cuts chunks on the block grid
/// and off it — `on`'s dirty tail starts on a block boundary inside chunk
/// 2; `off`'s starts mid-block inside chunk 5 and ends mid-block inside
/// chunk 6; `tail`'s starts mid-block inside chunk 7 — and a tiled ninth
/// chunk, which compresses, so the first frame pays and homes the rest.
fn cut_state(seed: u64) -> TrainingState {
    TrainingState::from_tensors(vec![
        Tensor::synthetic("on", ByteSize::from_bytes(49_152), seed),
        Tensor::synthetic("off", ByteSize::from_bytes(50_000), seed),
        Tensor::synthetic("tail", ByteSize::from_bytes(31_920), seed),
        Tensor::compressible("opt", ByteSize::from_bytes(16_384), seed, 64),
    ])
}

#[test]
fn a_sparse_update_writes_the_blocks_it_changed_not_the_chunks_they_fall_in() {
    const STATE: u64 = 144 * 1024;
    const CHUNK: u64 = 16 * 1024;
    const BLOCK: u64 = 4096;
    use ChunkEncoding::{DedupBase as Base, Lz, Raw};
    let (ssd, store) = ssd_store(STATE, CHUNK, 3, 0);
    let pipeline = framed_pipeline(&store, STATE, CHUNK);
    let telemetry = Telemetry::disabled();
    let gpu = Gpu::new(GpuConfig::fast_for_tests(), cut_state(1));
    assert_eq!(gpu.state_size().as_u64(), STATE);

    let mut root = None;
    for iter in 1..=3u64 {
        if iter > 1 {
            // Dirty: [36 KiB, 48 KiB), [86 652, 99 152), [123 092, 128 KiB)
            // and [140 KiB, 144 KiB).
            gpu.update_sparse(0.25);
        }
        let guard = gpu.lock_weights_shared_owned();
        let (out, copied) = pipeline
            .checkpoint_framed(ctx(&telemetry), &ns(&store), &guard, iter, true)
            .expect("framed checkpoint");
        drop(guard);
        assert_eq!(out, CommitOutcome::Committed);
        let head = store.latest_committed(&ns(&store)).expect("head");
        let (table, homes) = head_frame(&store, &head);
        let root = *root.get_or_insert((head.counter, head.slot));
        if iter > 1 {
            // Each chunk the update cut is its dirty run plus the clean
            // head or tail beside it, served from the root, which holds
            // those blocks `Raw` at the same offsets.
            let k = |blocks: u64| blocks * BLOCK;
            let want = [
                (Base, 0, k(4)),
                (Base, k(4), k(4)),
                (Base, k(8), k(1)),
                (Raw, k(9), k(3)),
                (Base, k(12), k(4)),
                (Base, k(16), k(4)),
                (Base, k(20), k(1)),
                (Raw, k(21), k(3)),
                (Raw, k(24), k(1)),
                (Base, k(25), k(3)),
                (Base, k(28), k(2)),
                (Raw, k(30), k(2)),
                // The root holds the tiled chunk `Lz`: no block of it is
                // verbatim there, so it is copied whole.
                (Lz, k(32), k(4)),
            ];
            let mut off = 0;
            let got: Vec<_> = (table.records.iter())
                .map(|r| {
                    off += r.logical_len;
                    (r.kind, off - r.logical_len, r.logical_len)
                })
                .collect();
            assert_eq!(got, want, "iteration {iter}");
            for r in table.records.iter().filter(|r| r.kind == Base) {
                assert_eq!((r.a, r.aux), root, "iteration {iter}: served from the root");
            }
            for (r, &(_, at, _)) in table.records.iter().zip(&want) {
                if r.kind == Base {
                    assert_eq!(r.b, at, "a clean run names its own offset in its home");
                }
            }
            assert_eq!(homes, [root]);
            assert_eq!(head.delta.map(|l| l.chain_depth), Some(1));
            // The table of thirteen records, the dirty runs' 36 KiB and
            // the tiled chunk's LZ bytes — where every cut chunk written
            // whole took the table of nine and 64 KiB.
            let lz = compress_gated(&serialized(&gpu)[k(32) as usize..]).expect("tiles compress");
            let lz = lz.len() as u64;
            let written = FrameTable::encoded_len_for(13) + k(9) + lz;
            assert_eq!((copied.payload_len, written), (37_432 + lz, 37_432 + lz));
            assert_eq!(copied.frame.dedup_chunks, 8);
        }

        let live = serialized(&gpu);
        ssd.crash_now();
        ssd.recover();
        for readers in [1, 4] {
            let options = RestoreOptions { readers, job: None };
            let device = ssd.clone() as Arc<dyn PersistentDevice>;
            let (rec, _) = recover_instrumented_with(Arc::clone(&device), &telemetry, options)
                .expect("recoverable");
            assert_eq!(
                (rec.iteration, rec.payload == live),
                (iter, true),
                "{readers} readers"
            );
            let target = Gpu::new(GpuConfig::fast_for_tests(), cut_state(9));
            recover_into_gpu(device, &target, &telemetry, options).expect("recovers into a GPU");
            assert_eq!(serialized(&target), live, "{readers} readers into a GPU");
        }
    }
}

/// An RNG-dense state packs nothing, so its first frame is all `Raw`; that
/// frame still homes its blocks, so each later sparse checkpoint writes
/// only the 4 KiB blocks its update dirtied (plus its table) and serves the
/// rest from the blocks the earlier frames hold — whether the pipeline
/// tries LZ or a codec-off engine copies.
#[test]
fn a_dense_state_that_packs_nothing_still_writes_only_its_dirty_blocks() {
    const STATE: u64 = 128 * 1024;
    const CHUNK: u64 = 16 * 1024;
    const BLOCK: usize = 4096;
    for codec_off_engine in [false, true] {
        let (ssd, store) = ssd_store(STATE, CHUNK, 3, 0);
        let pipeline = framed_pipeline(&store, STATE, CHUNK);
        let engine = codec_off_engine.then(|| {
            let config = PcCheckConfig::builder()
                .max_concurrent(2)
                .writer_threads(2)
                .chunk_size(ByteSize::from_bytes(CHUNK))
                .dram_chunks((2 * STATE / CHUNK) as usize)
                .build()
                .expect("valid config");
            PcCheckEngine::with_store(config, Arc::clone(&store)).expect("engine")
        });
        let telemetry = Telemetry::disabled();
        let gpu = Gpu::new(
            GpuConfig::fast_for_tests(),
            TrainingState::synthetic(ByteSize::from_bytes(STATE), 11),
        );
        let mut before = serialized(&gpu);
        for iter in 1..=4u64 {
            let leg = format!("codec-off engine {codec_off_engine}, iteration {iter}");
            if iter > 1 {
                gpu.update_sparse(0.05);
            }
            let live = serialized(&gpu);
            let dirty_blocks = (live.chunks(BLOCK).zip(before.chunks(BLOCK)))
                .filter(|(now, was)| now != was)
                .count() as u64;
            before = live.clone();
            match &engine {
                Some(engine) => {
                    engine.checkpoint(&gpu, iter);
                    engine.try_drain().expect("committed");
                }
                None => {
                    let guard = gpu.lock_weights_shared_owned();
                    let (out, _) = pipeline
                        .checkpoint_framed(ctx(&telemetry), &ns(&store), &guard, iter, true)
                        .expect("framed checkpoint");
                    assert_eq!(out, CommitOutcome::Committed);
                }
            }
            let head = store.latest_committed(&ns(&store)).expect("head");
            assert_eq!(head.iteration, iter, "{leg}");
            if iter > 1 {
                let (table, _) = head_frame(&store, &head);
                let bound = table.encoded_len() + dirty_blocks * BLOCK as u64;
                assert!(
                    head.payload_len <= bound,
                    "{leg}: wrote {} bytes, {dirty_blocks} dirty blocks allow {bound}",
                    head.payload_len
                );
            }

            ssd.crash_now();
            ssd.recover();
            for readers in [1, 4] {
                let options = RestoreOptions { readers, job: None };
                let device = ssd.clone() as Arc<dyn PersistentDevice>;
                let (rec, _) = recover_instrumented_with(Arc::clone(&device), &telemetry, options)
                    .expect("recoverable");
                assert_eq!(
                    (rec.iteration, rec.payload == live),
                    (iter, true),
                    "{leg}, {readers} readers"
                );
                let target = Gpu::new(
                    GpuConfig::fast_for_tests(),
                    TrainingState::synthetic(ByteSize::from_bytes(STATE), 12),
                );
                recover_into_gpu(device, &target, &telemetry, options)
                    .expect("recovers into a GPU");
                assert_eq!(
                    serialized(&target),
                    live,
                    "{leg}, {readers} readers into a GPU"
                );
            }
        }
    }
}

#[test]
fn a_frame_whose_base_was_displaced_is_withdrawn_not_committed() {
    const STATE: u64 = 64 * 1024;
    const CHUNK: u64 = 4096;
    let (ssd, store) = ssd_store(STATE, CHUNK, 4, 64);
    let pipeline = framed_pipeline(&store, STATE, CHUNK);
    let telemetry = Telemetry::disabled();
    let ctx = ctx(&telemetry);
    let gpu = mixed_gpu(STATE, 3);

    // A: a framed, unlinked head whose generation B will plan against.
    gpu.update();
    let guard = gpu.lock_weights_shared_owned();
    let (out, copied_a) = pipeline
        .checkpoint_framed(ctx, &ns(&store), &guard, 1, true)
        .expect("A");
    drop(guard);
    assert_eq!(out, CommitOutcome::Committed);
    assert!(copied_a.frame.saved_bytes > 0, "{copied_a:?}");
    let a = store.latest_committed(&ns(&store)).expect("A is head");

    // C leases first (the older counter) and streams a frame that
    // references nothing, through a pipeline with no history to plan or
    // deduplicate from, but does not commit yet.
    gpu.update_sparse(0.1);
    let state_c = serialized(&gpu);
    let fresh = framed_pipeline(&store, STATE, CHUNK);
    let guard = gpu.lock_weights_shared_owned();
    let lease_c = fresh.lease(ctx, &ns(&store));
    let copied_c = fresh
        .copy(ctx, &guard, &lease_c, 2, false, false)
        .expect("C copies");
    drop(guard);
    assert!(copied_c.frame.link.is_none(), "{copied_c:?}");
    fresh.seal(ctx, &lease_c, 2, &copied_c).expect("C seals");

    // B plans against head A and references its chunks.
    gpu.update_sparse(0.1);
    let guard = gpu.lock_weights_shared_owned();
    let lease_b = pipeline.lease(ctx, &ns(&store));
    let copied_b = pipeline
        .copy(ctx, &guard, &lease_b, 3, false, true)
        .expect("B copies");
    drop(guard);
    let link = copied_b.frame.link.expect("B references A");
    assert_eq!((link.base_counter, link.base_slot), (a.counter, a.slot));
    pipeline.seal(ctx, &lease_b, 3, &copied_b).expect("B seals");

    // C commits unlinked: A is displaced and its slot goes back to the
    // free queue, where the next lease may overwrite it.
    let c_counter = lease_c.counter;
    assert!(c_counter < lease_b.counter);
    assert_eq!(
        fresh.commit(ctx, lease_c, 2, &copied_c).expect("C commits"),
        CommitOutcome::Committed
    );
    assert_eq!(
        store.free_slot_count(&ns(&store)),
        2,
        "A's slot was released"
    );

    // B's link target is no longer pinned by the head it would displace.
    let out = pipeline
        .commit(ctx, lease_b, 3, &copied_b)
        .expect("B's commit call succeeds");
    assert_eq!(out, CommitOutcome::SupersededBy { counter: c_counter });
    assert_eq!(
        store.latest_committed(&ns(&store)).expect("head").counter,
        c_counter
    );
    assert_eq!(
        store.free_slot_count(&ns(&store)),
        3,
        "B's slot was released too"
    );

    ssd.crash_now();
    let report = pccheck_monitor::audit(ssd.clone() as Arc<dyn PersistentDevice>).expect("audit");
    assert!(report.is_clean(), "{}", report.render());
    assert_eq!(
        report.expected_recovery(DEFAULT_JOB).map(|m| m.counter),
        Some(c_counter)
    );
    ssd.recover();
    let rec = recovery::recover(ssd.clone()).expect("recoverable");
    assert_eq!((rec.counter, rec.iteration), (c_counter, 2));
    assert_eq!(rec.payload, state_c);

    // The pipeline carries on: A's stale generation answers nothing, and
    // the next checkpoint commits and recovers.
    gpu.update_sparse(0.1);
    let guard = gpu.lock_weights_shared_owned();
    let (out, _) = pipeline
        .checkpoint_framed(ctx, &ns(&store), &guard, 4, true)
        .expect("D");
    drop(guard);
    assert_eq!(out, CommitOutcome::Committed);
    let rec = recovery::recover(ssd).expect("recoverable");
    assert_eq!(rec.iteration, 4);
    assert_eq!(rec.payload, serialized(&gpu));
}

/// Three framed commits on a four-slot store whose dirty set shrinks
/// (everything, then the trailing half, then the trailing twentieth), so
/// the third frame references chunks homed at the first *and* the second.
struct TwoHomes {
    ssd: Arc<SsdDevice>,
    store: Arc<CheckpointStore>,
    /// Serialized state at iterations 1, 2, 3.
    states: [Vec<u8>; 3],
}

fn two_homes() -> TwoHomes {
    const STATE: u64 = 256 * 1024;
    const CHUNK: u64 = 4096;
    let (ssd, store) = ssd_store(STATE, CHUNK, 4, 64);
    let pipeline = framed_pipeline(&store, STATE, CHUNK);
    let telemetry = Telemetry::disabled();
    let gpu = mixed_gpu(STATE, 9);
    let mut states = Vec::new();
    for (iter, fraction) in [(1u64, 1.0), (2, 0.5), (3, 0.05)] {
        gpu.update_sparse(fraction);
        let guard = gpu.lock_weights_shared_owned();
        let (out, copied) = pipeline
            .checkpoint_framed(ctx(&telemetry), &ns(&store), &guard, iter, true)
            .expect("framed checkpoint");
        drop(guard);
        assert_eq!(out, CommitOutcome::Committed);
        assert!(copied.frame.saved_bytes > 0, "{copied:?}");
        states.push(serialized(&gpu));
    }
    TwoHomes {
        ssd,
        store,
        states: states.try_into().expect("three states"),
    }
}

#[test]
fn a_frame_naming_two_homes_audits_clean_and_recovers() {
    let t = two_homes();
    let head = t.store.latest_committed(&ns(&t.store)).expect("head");
    let (_, homes) = head_frame(&t.store, &head);
    assert_eq!(homes.len(), 2, "two distinct homes: {homes:?}");
    let link = head.delta.expect("linked");
    assert_eq!(
        (link.base_counter, link.base_slot, link.chain_depth),
        (homes[1].0, homes[1].1, 2),
        "linked to the youngest home"
    );
    assert_eq!(
        t.store.free_slot_count(&ns(&t.store)),
        1,
        "head + two homes pinned"
    );

    t.ssd.crash_now();
    let report = pccheck_monitor::audit(t.ssd.clone() as Arc<dyn PersistentDevice>).expect("audit");
    assert!(report.is_clean(), "{}", report.render());
    assert_eq!(
        report.expected_recovery(DEFAULT_JOB).map(|m| m.counter),
        Some(head.counter)
    );
    t.ssd.recover();
    let rec = recovery::recover(t.ssd.clone()).expect("recoverable");
    assert_eq!(rec.iteration, 3);
    assert_eq!(rec.payload, t.states[2]);
}

#[test]
fn a_flipped_byte_in_either_home_makes_recovery_fall_back() {
    for which in 0..2 {
        let t = two_homes();
        let head = t.store.latest_committed(&ns(&t.store)).expect("head");
        let (table, homes) = head_frame(&t.store, &head);
        let (home_counter, home_slot) = homes[which];
        let home = t
            .store
            .history(&ns(&t.store))
            .expect("history")
            .into_iter()
            .find(|m| m.counter == home_counter && m.slot == home_slot)
            .expect("home is a complete checkpoint");
        // The first byte of a physical chunk the head references there.
        let (home_table, _) = head_frame(&t.store, &home);
        let referenced = table
            .records
            .iter()
            .find(|r| {
                r.kind == ChunkEncoding::DedupBase && (r.a, r.aux) == (home_counter, home_slot)
            })
            .expect("head references this home");
        let physical = home_table
            .records
            .iter()
            .find(|r| {
                matches!(r.kind, ChunkEncoding::Raw | ChunkEncoding::Lz)
                    && r.digest == referenced.digest
            })
            .expect("the home materializes the chunk");
        let off = t.store.slot_payload_offset(home_slot) + home_table.encoded_len() + physical.a;
        let mut byte = [0u8; 1];
        t.ssd.read_at(off, &mut byte).expect("read");
        byte[0] ^= 0x20;
        t.ssd.write_at(off, &byte).expect("write");
        t.ssd.persist(off, 1).expect("persist");
        t.ssd.crash_now();
        t.ssd.recover();

        // Whatever comes back is a state some checkpoint captured, whole.
        match recovery::recover(t.ssd.clone()) {
            Ok(rec) => {
                assert!(rec.iteration < 3, "home {which}: the head cannot verify");
                assert_eq!(
                    rec.payload,
                    t.states[rec.iteration as usize - 1],
                    "home {which}: fell back to iteration {}",
                    rec.iteration
                );
            }
            Err(PccheckError::CorruptCheckpoint { .. }) => {}
            Err(e) => panic!("home {which}: {e}"),
        }
    }
}
