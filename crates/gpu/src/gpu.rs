//! The simulated accelerator: device memory holding the training state,
//! a copy engine, and the update/snapshot synchronization.
//!
//! Figure 6 of the paper shows the residual stall PCcheck accepts: the next
//! iteration's *update* phase (`U`) must wait until the in-flight GPU→DRAM
//! copy (`C`) of the previous checkpoint finishes, because both touch the
//! model weights. (Keeping a second weight copy on the GPU would remove the
//! stall but costs scarce GPU memory — §3.1 decides against it.)
//!
//! [`Gpu`] reproduces this with a readers–writer discipline: checkpoint
//! copies hold read access ([`Gpu::lock_weights_shared`]) while
//! [`Gpu::update`] takes exclusive access.
//!
//! Every mutation also appends to a bounded *dirty log*: the state's
//! [`Version`] advances by one and the byte ranges the mutation touched are
//! remembered for the last `DIRTY_LOG_LEN` mutations. A guard reads the
//! log without consuming it ([`SnapshotSource::dirty_since`]), so a copier
//! that kept an earlier snapshot knows which of its bytes are still
//! current, however many other guards were taken in between.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pccheck_util::sync::{Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard};
use pccheck_util::ByteSize;

use crate::copy::{CopyEngine, CopyEngineConfig};
use crate::tensor::{StateDigest, TrainingState};

/// GPU configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Device memory capacity (A100-40GB etc.). Informational; the
    /// simulation does not enforce it beyond the state fitting at all.
    pub memory: ByteSize,
    /// Copy-engine configuration.
    pub copy: CopyEngineConfig,
}

impl GpuConfig {
    /// An unthrottled profile for logic tests.
    pub fn fast_for_tests() -> Self {
        GpuConfig {
            memory: ByteSize::from_gb(40.0),
            copy: CopyEngineConfig::fast_for_tests(),
        }
    }
}

/// How many mutations the dirty log remembers: a snapshot can say what
/// changed since any version at most this many mutations old.
pub(crate) const DIRTY_LOG_LEN: usize = 64;

/// Where a snapshot sits in its GPU's history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Version {
    /// The GPU the state lives on: distinct for every [`Gpu::new`] in the
    /// process, shared by the clones of one handle.
    pub source: u64,
    /// Mutations (updates, restores) the state has seen.
    pub seq: u64,
}

/// Identities handed to GPUs as they are created.
static SOURCES: AtomicU64 = AtomicU64::new(0);

/// The byte ranges (serialized-payload coordinates) each recent mutation
/// touched, newest last. Appended to under the state write lock, read
/// under a read lock or an owned hold, so a guard's view of it is fixed
/// for as long as the guard lives.
#[derive(Debug, Default)]
struct DirtyLog {
    seq: u64,
    /// `(seq, ranges)` of the last [`DIRTY_LOG_LEN`] mutations.
    entries: VecDeque<(u64, Vec<(u64, u64)>)>,
    /// The oldest version the log still answers for: the mutation after
    /// it is the oldest entry left.
    floor: u64,
}

impl DirtyLog {
    fn record(&mut self, ranges: Vec<(u64, u64)>) {
        self.seq += 1;
        if self.entries.len() == DIRTY_LOG_LEN {
            let (oldest, _) = self.entries.pop_front().expect("a full log");
            self.floor = oldest;
        }
        self.entries.push_back((self.seq, ranges));
    }

    /// The state was replaced wholesale: no earlier version is answered.
    fn forget(&mut self) {
        self.seq += 1;
        self.entries.clear();
        self.floor = self.seq;
    }

    fn since(&self, seq: u64) -> Option<Vec<(u64, u64)>> {
        if seq < self.floor || seq > self.seq {
            return None;
        }
        let newer = self.entries.iter().filter(|(at, _)| *at > seq);
        let ranges = newer.flat_map(|(_, ranges)| ranges.iter().copied());
        Some(merge_ranges(ranges.collect()))
    }
}

/// A simulated GPU owning a [`TrainingState`].
///
/// Cloning the handle shares the same device (`Arc` semantics).
///
/// # Examples
///
/// ```
/// use pccheck_gpu::{Gpu, GpuConfig, TrainingState};
/// use pccheck_util::ByteSize;
///
/// let gpu = Gpu::new(
///     GpuConfig::fast_for_tests(),
///     TrainingState::synthetic(ByteSize::from_kb(4), 1),
/// );
/// // Snapshot while training would continue:
/// let guard = gpu.lock_weights_shared();
/// let mut host = vec![0u8; guard.size().as_usize()];
/// guard.copy_range_to_host(0, &mut host);
/// drop(guard);
/// gpu.update();
/// ```
#[derive(Debug, Clone)]
pub struct Gpu {
    inner: Arc<GpuInner>,
}

#[derive(Debug)]
struct GpuInner {
    state: RwLock<TrainingState>,
    /// Owned read holds out on `state`; see [`OwnedHolds`].
    holds: OwnedHolds,
    engine: CopyEngine,
    /// This GPU's [`Version::source`].
    source: u64,
    dirty: Mutex<DirtyLog>,
    /// The state the last restore displaced, or the staging of one that
    /// was abandoned: the next restore's staging (see
    /// [`Gpu::begin_restore`]).
    spare: Mutex<Option<TrainingState>>,
}

impl GpuInner {
    fn version(&self) -> Version {
        Version {
            source: self.source,
            seq: self.dirty.lock().seq,
        }
    }

    fn dirty_since(&self, seq: u64) -> Option<Vec<(u64, u64)>> {
        self.dirty.lock().since(seq)
    }
}

impl Gpu {
    /// Creates a GPU holding `state`.
    ///
    /// # Panics
    ///
    /// Panics if the state does not fit in device memory.
    pub fn new(config: GpuConfig, state: TrainingState) -> Self {
        assert!(
            state.size() <= config.memory,
            "training state {} exceeds GPU memory {}",
            state.size(),
            config.memory
        );
        let engine = CopyEngine::new(config.copy);
        Gpu {
            inner: Arc::new(GpuInner {
                state: RwLock::new(state),
                holds: OwnedHolds::default(),
                engine,
                source: SOURCES.fetch_add(1, Ordering::Relaxed),
                dirty: Mutex::new(DirtyLog::default()),
                spare: Mutex::new(None),
            }),
        }
    }

    /// The copy engine (shared by concurrent checkpoint copies).
    pub fn copy_engine(&self) -> &CopyEngine {
        &self.inner.engine
    }

    /// Size of the training state — the checkpoint size `m`.
    pub fn state_size(&self) -> ByteSize {
        self.inner.state.read().size()
    }

    /// Applies one update step (the `U` phase). Blocks while any snapshot
    /// copy holds the weights, reproducing the Figure 6 stall.
    pub fn update(&self) {
        let _turn = self.inner.holds.write_turn();
        let mut state = self.inner.state.write();
        state.step();
        let size = state.size().as_u64();
        self.inner.dirty.lock().record(vec![(0, size)]);
    }

    /// Applies one *sparse* update step: only the trailing
    /// `update_fraction` of each tensor mutates (see
    /// `TrainingState::step_sparse`), and the mutated ranges go into the
    /// dirty log.
    pub fn update_sparse(&self, update_fraction: f64) {
        let _turn = self.inner.holds.write_turn();
        let mut state = self.inner.state.write();
        let ranges = state.step_sparse(update_fraction);
        self.inner.dirty.lock().record(ranges);
    }

    /// Runs `f` with read access to the weights.
    pub fn with_weights<R>(&self, f: impl FnOnce(&TrainingState) -> R) -> R {
        f(&self.inner.state.read())
    }

    /// Acquires shared (read) access to the weights for a checkpoint copy.
    /// While any [`WeightsGuard`] is alive, [`update`](Self::update) blocks.
    pub fn lock_weights_shared(&self) -> WeightsGuard<'_> {
        WeightsGuard {
            state: self.inner.state.read(),
            inner: &self.inner,
        }
    }

    /// Like [`lock_weights_shared`](Self::lock_weights_shared), but the
    /// returned guard owns its reference and is `Send`: a background
    /// snapshot-copy thread can hold the weights while the training thread
    /// proceeds with the next iteration's compute phase — exactly PCcheck's
    /// overlap of `C` with `T` (Figure 6).
    pub fn lock_weights_shared_owned(&self) -> OwnedWeightsGuard {
        self.inner.holds.acquire();
        OwnedWeightsGuard { gpu: self.clone() }
    }

    /// Restores the training state from a recovered checkpoint payload:
    /// one upload through the copy engine into the same staging
    /// [`begin_restore`](Self::begin_restore) lends, swapped in like any
    /// other restore.
    ///
    /// # Panics
    ///
    /// Panics if the payload size does not match the current layout.
    pub fn restore(&self, payload: &[u8], step: u64) {
        let total = ByteSize::from_bytes(payload.len() as u64);
        let mut target = self.begin_restore(total);
        let mut rest = payload;
        for piece in target.pieces() {
            let (bytes, tail) = rest.split_at(piece.len());
            piece.copy_from_slice(bytes);
            rest = tail;
        }
        self.copy_engine().meter(total);
        target.finish(step);
    }

    /// Begins a restore of `total` serialized bytes.
    ///
    /// The returned [`RestoreTarget`] stages the incoming state in
    /// tensor-shaped buffers, lends them out to be filled in any order
    /// (concurrently, by several readers) and swaps the filled state in
    /// atomically on [`finish`](RestoreTarget::finish). Until then the
    /// live state is untouched, so a restore that is abandoned midway
    /// (verification failed, fell back to an older candidate) leaves the
    /// GPU exactly as it was — just drop the target.
    ///
    /// The staging is the state the GPU's last restore displaced (or the
    /// staging of one abandoned since), when its layout is the live one:
    /// only a GPU's first restore allocates and zero-fills a state. The
    /// staged bytes are therefore *not* zero — they are an older state's —
    /// and the filler must land every byte before finishing; recovery's
    /// plans tile the payload exactly once, and its digest fold reads every
    /// block of the destination.
    ///
    /// # Panics
    ///
    /// Panics if `total` does not match the current layout's size.
    pub fn begin_restore(&self, total: ByteSize) -> RestoreTarget {
        let layout = self.inner.state.read().layout();
        assert_eq!(
            total,
            layout.iter().map(|(_, size)| *size).sum::<ByteSize>(),
            "restore payload size must match the training-state layout"
        );
        let spare = self.inner.spare.lock().take();
        let staged = spare
            .filter(|spare| spare.layout() == layout)
            .unwrap_or_else(|| TrainingState::zeroed(&layout));
        RestoreTarget {
            gpu: self.clone(),
            staged: Some(staged),
        }
    }

    /// Digest of the current state (for verification).
    pub fn digest(&self) -> StateDigest {
        self.inner.state.read().digest()
    }

    /// Current update-step counter.
    pub fn step_count(&self) -> u64 {
        self.inner.state.read().step_count()
    }
}

/// Owned read holds on the weights, counted rather than guarded: a `std`
/// read guard cannot leave the thread that took it, and an
/// [`OwnedWeightsGuard`] must.
///
/// An update takes its turn by locking the count at zero and keeping it
/// locked while it writes, so holds and updates exclude each other. Inside
/// a hold every access takes `state.read()`, which no update can be
/// contending for.
#[derive(Debug, Default)]
struct OwnedHolds {
    count: Mutex<usize>,
    released: Condvar,
}

impl OwnedHolds {
    fn acquire(&self) {
        *self.count.lock() += 1;
    }

    fn release(&self) {
        let mut count = self.count.lock();
        *count -= 1;
        if *count == 0 {
            self.released.notify_all();
        }
    }

    fn write_turn(&self) -> MutexGuard<'_, usize> {
        let mut count = self.count.lock();
        while *count > 0 {
            count = self.released.wait(count);
        }
        count
    }
}

/// Merges a set of `(offset, len)` byte ranges: sorts by offset and
/// coalesces overlapping or adjacent ranges into a minimal sorted set.
/// Zero-length ranges are dropped.
pub(crate) fn merge_ranges(mut ranges: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    ranges.retain(|&(_, len)| len > 0);
    ranges.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(ranges.len());
    for (off, len) in ranges {
        match out.last_mut() {
            Some((last_off, last_len)) if off <= *last_off + *last_len => {
                let end = (off + len).max(*last_off + *last_len);
                *last_len = end - *last_off;
            }
            _ => out.push((off, len)),
        }
    }
    out
}

/// An in-progress restore (see [`Gpu::begin_restore`]).
///
/// The incoming state is staged as the tensors it will become:
/// [`pieces`](Self::pieces) lends their storage to whoever fills it, and
/// [`finish`](Self::finish) moves the filled tensors in as the live
/// state — no byte is copied after it landed. The filler meters what it
/// lands through the GPU's [`CopyEngine`], so restore uploads contend for
/// the same PCIe bandwidth as snapshot copies.
///
/// Dropping the target hands tensors back to the GPU as its next restore's
/// staging: the state `finish` displaced, or the unfinished staging of a
/// rejected candidate.
#[derive(Debug)]
pub struct RestoreTarget {
    gpu: Gpu,
    /// The staging; after `finish`, the state it displaced. Taken only by
    /// `drop`.
    staged: Option<TrainingState>,
}

impl RestoreTarget {
    /// The staging image as disjoint pieces, one per tensor in serialized
    /// order (a piece may be empty): serialized byte `o` is byte `o` of
    /// their concatenation. Disjoint borrows, so any number of threads
    /// may fill them at once. Their bytes start out as an older state's,
    /// not zero.
    pub fn pieces(&mut self) -> Vec<&mut [u8]> {
        let staged = self.staged.as_mut().expect("staged until dropped");
        staged.pieces_mut()
    }

    /// Completes the restore: the staged tensors become the live training
    /// state at `step`, swapped in under the weights' write lock, and the
    /// state they displace becomes the GPU's next restore staging.
    ///
    /// The caller is responsible for having filled and verified every
    /// byte — the target itself performs no digest checks.
    pub fn finish(mut self, step: u64) {
        let inner = &self.gpu.inner;
        let staged = self.staged.as_mut().expect("staged until dropped");
        staged.step = step;
        let _turn = inner.holds.write_turn();
        let mut state = inner.state.write();
        std::mem::swap(&mut *state, staged);
        // Every byte may have changed: no earlier snapshot carries over.
        inner.dirty.lock().forget();
    }
}

impl Drop for RestoreTarget {
    fn drop(&mut self) {
        *self.gpu.inner.spare.lock() = self.staged.take();
    }
}

/// Shared access to the GPU weights for the duration of a snapshot copy.
#[derive(Debug)]
pub struct WeightsGuard<'a> {
    state: RwLockReadGuard<'a, TrainingState>,
    inner: &'a GpuInner,
}

impl WeightsGuard<'_> {
    /// Size of the guarded state.
    pub fn size(&self) -> ByteSize {
        self.state.size()
    }

    /// The step counter of the guarded state.
    pub fn step_count(&self) -> u64 {
        self.state.step_count()
    }

    /// Digest of the guarded state.
    pub fn digest(&self) -> StateDigest {
        self.state.digest()
    }

    /// Copies the serialized byte range `[offset, offset+dst.len())` of the
    /// state into host memory through the GPU's copy engine (throttled at
    /// PCIe bandwidth).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the state size.
    pub fn copy_range_to_host(&self, offset: u64, dst: &mut [u8]) {
        self.state.serialize_range(offset, dst);
        self.inner
            .engine
            .meter(ByteSize::from_bytes(dst.len() as u64));
    }
}

/// Owned, `Send` variant of [`WeightsGuard`] for background copier threads.
///
/// Training updates block until the guard drops, so it is held for the
/// GPU→DRAM copy and never for the persist: hand it *by value* to a copy
/// verb, which drops it the moment the last chunk is staged in DRAM.
#[derive(Debug)]
pub struct OwnedWeightsGuard {
    gpu: Gpu,
}

impl Drop for OwnedWeightsGuard {
    fn drop(&mut self) {
        self.gpu.inner.holds.release();
    }
}

impl OwnedWeightsGuard {
    fn state(&self) -> RwLockReadGuard<'_, TrainingState> {
        self.gpu.inner.state.read()
    }

    /// Size of the guarded state.
    pub fn size(&self) -> ByteSize {
        self.state().size()
    }

    /// The step counter of the guarded state.
    pub fn step_count(&self) -> u64 {
        self.state().step_count()
    }

    /// Digest of the guarded state.
    pub fn digest(&self) -> StateDigest {
        self.state().digest()
    }

    /// Copies the serialized byte range `[offset, offset+dst.len())` into
    /// host memory through the GPU's copy engine (PCIe-throttled).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the state size.
    pub fn copy_range_to_host(&self, offset: u64, dst: &mut [u8]) {
        self.state().serialize_range(offset, dst);
        self.gpu
            .copy_engine()
            .meter(ByteSize::from_bytes(dst.len() as u64));
    }
}

/// A read-locked snapshot of GPU state that a persist pipeline can drain in
/// chunks, agnostic to whether the copier runs inline (borrowed
/// [`WeightsGuard`]) or on a background thread (owned
/// [`OwnedWeightsGuard`]).
///
/// `Sync` is required so chunk-scheduled copiers may share one source across
/// worker threads.
///
/// A copy verb takes its source by value and drops it when the snapshot is
/// staged; that drop is what hands the weights back to training. A caller
/// that wants to keep its guard passes `&guard` — a reference is a source
/// too, and dropping it releases nothing.
pub trait SnapshotSource: Sync {
    /// Size of the serialized snapshot.
    fn size(&self) -> ByteSize;

    /// The step counter captured by the snapshot.
    fn step_count(&self) -> u64;

    /// Copies the serialized byte range `[offset, offset+dst.len())` into
    /// host memory through the GPU's copy engine (PCIe-throttled).
    fn copy_range_to_host(&self, offset: u64, dst: &mut [u8]);

    /// Where the snapshot sits in its source's history. `None`, the
    /// default: the source keeps no history, and no earlier snapshot of
    /// it may stand in for any of its bytes.
    fn version(&self) -> Option<Version> {
        None
    }

    /// The byte ranges mutated since version `seq` of this source, merged
    /// and sorted by offset; `None` — every byte may have changed — when
    /// the source no longer remembers that far back (or never did).
    fn dirty_since(&self, seq: u64) -> Option<Vec<(u64, u64)>> {
        let _ = seq;
        None
    }
}

impl<S: SnapshotSource + ?Sized> SnapshotSource for &S {
    fn size(&self) -> ByteSize {
        (**self).size()
    }

    fn step_count(&self) -> u64 {
        (**self).step_count()
    }

    fn copy_range_to_host(&self, offset: u64, dst: &mut [u8]) {
        (**self).copy_range_to_host(offset, dst)
    }

    fn version(&self) -> Option<Version> {
        (**self).version()
    }

    fn dirty_since(&self, seq: u64) -> Option<Vec<(u64, u64)>> {
        (**self).dirty_since(seq)
    }
}

impl SnapshotSource for WeightsGuard<'_> {
    fn size(&self) -> ByteSize {
        WeightsGuard::size(self)
    }

    fn step_count(&self) -> u64 {
        WeightsGuard::step_count(self)
    }

    fn copy_range_to_host(&self, offset: u64, dst: &mut [u8]) {
        WeightsGuard::copy_range_to_host(self, offset, dst)
    }

    fn version(&self) -> Option<Version> {
        Some(self.inner.version())
    }

    fn dirty_since(&self, seq: u64) -> Option<Vec<(u64, u64)>> {
        self.inner.dirty_since(seq)
    }
}

impl SnapshotSource for OwnedWeightsGuard {
    fn size(&self) -> ByteSize {
        OwnedWeightsGuard::size(self)
    }

    fn step_count(&self) -> u64 {
        OwnedWeightsGuard::step_count(self)
    }

    fn copy_range_to_host(&self, offset: u64, dst: &mut [u8]) {
        OwnedWeightsGuard::copy_range_to_host(self, offset, dst)
    }

    fn version(&self) -> Option<Version> {
        Some(self.gpu.inner.version())
    }

    fn dirty_since(&self, seq: u64) -> Option<Vec<(u64, u64)>> {
        self.gpu.inner.dirty_since(seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    fn gpu(size: u64, seed: u64) -> Gpu {
        Gpu::new(
            GpuConfig::fast_for_tests(),
            TrainingState::synthetic(ByteSize::from_bytes(size), seed),
        )
    }

    #[test]
    fn update_advances_state() {
        let g = gpu(300, 1);
        assert_eq!(g.step_count(), 0);
        let d0 = g.digest();
        g.update();
        assert_eq!(g.step_count(), 1);
        assert_ne!(g.digest(), d0);
    }

    #[test]
    fn snapshot_copy_matches_serialization() {
        let g = gpu(300, 2);
        g.update();
        let guard = g.lock_weights_shared();
        let mut host = vec![0u8; 300];
        guard.copy_range_to_host(0, &mut host);
        let expected = g.with_weights(|s| {
            let mut buf = vec![0u8; 300];
            s.serialize_into(&mut buf);
            buf
        });
        assert_eq!(host, expected);
    }

    #[test]
    fn update_blocks_while_snapshot_guard_held() {
        let g = gpu(300, 3);
        let guard = g.lock_weights_shared();
        let released = AtomicBool::new(false);
        let (starting, started) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| {
                starting.send(()).unwrap();
                g.update();
                assert!(
                    released.load(Ordering::SeqCst),
                    "update must stall behind the snapshot copy (Figure 6)"
                );
            });
            started.recv().unwrap();
            released.store(true, Ordering::SeqCst);
            drop(guard);
        });
        assert_eq!(g.step_count(), 1);
    }

    #[test]
    fn owned_guard_holds_off_updates_until_dropped_on_another_thread() {
        let g = gpu(300, 6);
        let guard = g.lock_weights_shared_owned();
        let before = guard.digest();
        let updated = AtomicBool::new(false);
        let (starting, started) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| {
                starting.send(()).unwrap();
                g.update();
                updated.store(true, Ordering::SeqCst);
            });
            // The copier: owns the hold on a thread that did not take it.
            let updated = &updated;
            s.spawn(move || {
                started.recv().unwrap();
                assert_eq!(guard.digest(), before, "state moved under a hold");
                assert!(!updated.load(Ordering::SeqCst), "update ran under a hold");
                drop(guard);
            });
        });
        assert!(updated.load(Ordering::SeqCst));
        assert_ne!(g.digest(), before);
    }

    #[test]
    fn concurrent_snapshots_share_read_access() {
        let g = gpu(300, 4);
        let g1 = g.lock_weights_shared();
        let g2 = g.lock_weights_shared();
        assert_eq!(g1.digest(), g2.digest());
        assert_eq!(g1.step_count(), 0);
        assert_eq!(g1.size().as_u64(), 300);
    }

    #[test]
    fn restore_round_trip_through_gpu() {
        let g = gpu(300, 5);
        for _ in 0..4 {
            g.update();
        }
        let digest = g.digest();
        let payload = {
            let guard = g.lock_weights_shared();
            let mut buf = vec![0u8; 300];
            guard.copy_range_to_host(0, &mut buf);
            buf
        };
        let step = g.step_count();
        // Training continues, state diverges...
        g.update();
        g.update();
        assert_ne!(g.digest(), digest);
        // ...then a failure: restore from the checkpoint payload.
        g.restore(&payload, step);
        assert_eq!(g.digest(), digest);
        assert_eq!(g.step_count(), 4);
    }

    #[test]
    #[should_panic(expected = "exceeds GPU memory")]
    fn oversized_state_rejected() {
        let cfg = GpuConfig {
            memory: ByteSize::from_bytes(100),
            copy: CopyEngineConfig::fast_for_tests(),
        };
        Gpu::new(cfg, TrainingState::synthetic(ByteSize::from_bytes(200), 1));
    }

    #[test]
    fn merge_ranges_coalesces_overlaps_and_adjacency() {
        assert_eq!(merge_ranges(vec![]), vec![]);
        assert_eq!(merge_ranges(vec![(5, 0), (3, 0)]), vec![]);
        assert_eq!(
            merge_ranges(vec![(10, 5), (0, 4), (14, 2), (4, 2)]),
            vec![(0, 6), (10, 6)]
        );
        // Containment and duplicates.
        assert_eq!(
            merge_ranges(vec![(0, 100), (10, 5), (0, 100)]),
            vec![(0, 100)]
        );
    }

    /// The version a fresh guard on `g` reports.
    fn version(g: &Gpu) -> Version {
        g.lock_weights_shared()
            .version()
            .expect("a GPU keeps history")
    }

    fn dirty_bytes(ranges: &[(u64, u64)]) -> u64 {
        ranges.iter().map(|(_, len)| len).sum()
    }

    #[test]
    fn versions_name_the_gpu_and_count_its_mutations() {
        let g = gpu(300, 20);
        let v0 = version(&g);
        assert_eq!(v0.seq, 0);
        assert_eq!(version(&g.clone()), v0, "clones are one GPU");
        assert_ne!(version(&gpu(300, 20)).source, v0.source, "another GPU");
        g.update();
        g.update_sparse(0.1);
        let owned = g.lock_weights_shared_owned();
        assert_eq!(owned.version(), Some(Version { seq: 2, ..v0 }));
        assert_eq!(owned.dirty_since(2), Some(vec![]), "nothing since now");
        assert_eq!(owned.dirty_since(3), None, "a version yet to come");
    }

    #[test]
    fn dirty_since_reports_what_changed_after_a_version() {
        let g = gpu(300, 21);
        let v0 = version(&g);
        g.update_sparse(0.1);
        let dirty = g.lock_weights_shared().dirty_since(v0.seq).unwrap();
        let total = dirty_bytes(&dirty);
        assert!((30..40).contains(&total), "~10% of 300, got {total}");
        let v1 = version(&g);
        assert_eq!(g.lock_weights_shared().dirty_since(v1.seq), Some(vec![]));
    }

    #[test]
    fn guards_read_the_log_without_consuming_it() {
        // A guard taken between two sparse steps — a baseline's, a probe's
        // — changes nothing any later guard reports.
        let g = gpu(300, 26);
        let v0 = version(&g);
        g.update_sparse(0.3);
        drop(g.lock_weights_shared());
        drop(g.lock_weights_shared_owned());
        g.update_sparse(0.05);
        let first = g.lock_weights_shared().dirty_since(v0.seq).unwrap();
        let again = g.lock_weights_shared_owned().dirty_since(v0.seq).unwrap();
        assert_eq!(first, again);
        let total = dirty_bytes(&first);
        assert!((90..100).contains(&total), "both steps' union, got {total}");
    }

    #[test]
    fn dense_update_marks_everything_dirty_again() {
        let g = gpu(300, 22);
        let v0 = version(&g);
        g.update_sparse(0.01);
        g.update();
        let guard = g.lock_weights_shared();
        assert_eq!(guard.dirty_since(v0.seq), Some(vec![(0, 300)]));
    }

    #[test]
    fn restore_forgets_every_earlier_version() {
        let g = gpu(300, 24);
        g.update();
        let before = version(&g);
        let payload = {
            let guard = g.lock_weights_shared();
            let mut buf = vec![0u8; 300];
            guard.copy_range_to_host(0, &mut buf);
            buf
        };
        g.restore(&payload, 1);
        let guard = g.lock_weights_shared_owned();
        assert_eq!(guard.dirty_since(before.seq), None, "all dirty");
        let now = guard.version().unwrap();
        assert_eq!(now.seq, before.seq + 1);
        assert_eq!(guard.dirty_since(now.seq), Some(vec![]));
    }

    #[test]
    fn the_log_answers_for_its_last_len_mutations_only() {
        let g = gpu(300, 27);
        let v0 = version(&g);
        for _ in 0..DIRTY_LOG_LEN {
            g.update_sparse(0.01);
        }
        assert!(g.lock_weights_shared().dirty_since(v0.seq).is_some());
        g.update_sparse(0.01);
        let guard = g.lock_weights_shared();
        assert_eq!(guard.dirty_since(v0.seq), None, "forgotten");
        let tail = guard.dirty_since(v0.seq + 1).expect("still remembered");
        assert!(dirty_bytes(&tail) > 0);
    }

    #[test]
    fn sparse_update_ranges_cover_the_changed_bytes() {
        let g = gpu(999, 25);
        let mut before = vec![0u8; 999];
        g.lock_weights_shared().copy_range_to_host(0, &mut before);
        let v0 = version(&g);
        g.update_sparse(0.25);
        let guard = g.lock_weights_shared_owned();
        let mut after = vec![0u8; 999];
        guard.copy_range_to_host(0, &mut after);
        let dirty = guard.dirty_since(v0.seq).unwrap();
        for (i, (b, a)) in before.iter().zip(&after).enumerate() {
            if b != a {
                assert!(
                    dirty
                        .iter()
                        .any(|&(off, len)| (i as u64) >= off && (i as u64) < off + len),
                    "changed byte {i} not covered by dirty ranges"
                );
            }
        }
    }

    #[test]
    fn staged_restore_matches_direct_restore() {
        let g = gpu(1000, 30);
        for _ in 0..3 {
            g.update();
        }
        let digest = g.digest();
        let payload = {
            let guard = g.lock_weights_shared();
            let mut buf = vec![0u8; 1000];
            guard.copy_range_to_host(0, &mut buf);
            buf
        };
        g.update();
        assert_ne!(g.digest(), digest);
        let before = version(&g);

        // Fill the lent pieces out of order, one thread per tensor.
        let mut target = g.begin_restore(ByteSize::from_bytes(1000));
        std::thread::scope(|s| {
            let mut off = 1000;
            for piece in target.pieces().into_iter().rev() {
                off -= piece.len();
                let src = &payload[off..off + piece.len()];
                s.spawn(move || piece.copy_from_slice(src));
            }
        });
        // Live state untouched until finish.
        assert_eq!(g.step_count(), 4);
        target.finish(3);
        assert_eq!(g.digest(), digest);
        assert_eq!(g.step_count(), 3);
        assert_eq!(g.lock_weights_shared().dirty_since(before.seq), None);
    }

    #[test]
    fn abandoned_restore_leaves_state_alone() {
        let g = gpu(300, 31);
        g.update();
        let digest = g.digest();
        let mut target = g.begin_restore(ByteSize::from_bytes(300));
        target.pieces()[0].fill(0xAB);
        drop(target); // verification failed elsewhere; abandon
        assert_eq!(g.digest(), digest);
        assert_eq!(g.step_count(), 1);
    }

    /// The serialized bytes of `g`'s live state.
    fn payload_of(g: &Gpu) -> Vec<u8> {
        let guard = g.lock_weights_shared();
        let mut buf = vec![0u8; guard.size().as_usize()];
        guard.copy_range_to_host(0, &mut buf);
        buf
    }

    fn fill(target: &mut RestoreTarget, payload: &[u8]) {
        let mut rest = payload;
        for piece in target.pieces() {
            let (bytes, tail) = rest.split_at(piece.len());
            piece.copy_from_slice(bytes);
            rest = tail;
        }
    }

    fn buffers(pieces: Vec<&mut [u8]>) -> Vec<*const u8> {
        pieces.iter().map(|p| p.as_ptr()).collect()
    }

    #[test]
    fn a_restore_lands_in_the_state_the_last_one_displaced() {
        let g = gpu(1000, 34);
        g.update();
        let (payload, digest) = (payload_of(&g), g.digest());
        let live = g.with_weights(|s| {
            let data = s.tensors().iter().map(|t| t.data().as_ptr());
            data.collect::<Vec<_>>()
        });
        let mut first = g.begin_restore(ByteSize::from_bytes(1000));
        let staged = buffers(first.pieces());
        fill(&mut first, &payload);
        first.finish(1);

        // The displaced tensors are the next staging, bytes and all.
        let mut next = g.begin_restore(ByteSize::from_bytes(1000));
        assert_eq!(buffers(next.pieces()), live, "the displaced tensors");
        next.pieces().into_iter().for_each(|p| p.fill(0xAB));
        drop(next); // rejected: its staging goes back unfinished

        let mut again = g.begin_restore(ByteSize::from_bytes(1000));
        assert_eq!(buffers(again.pieces()), live, "the abandoned staging");
        assert!(again.pieces().iter().all(|p| p.iter().all(|&b| b == 0xAB)));
        // Filled correctly, the stale bytes are gone and the state verifies.
        g.update();
        fill(&mut again, &payload);
        again.finish(1);
        assert_eq!(g.digest(), digest);
        let now = g.with_weights(|s| s.tensors()[0].data().as_ptr());
        assert_eq!(now, live[0], "the reused staging is the live state");

        // `restore` lands in the same staging: the tensors the first
        // restore staged, which the second one displaced.
        g.update();
        g.restore(&payload, 1);
        assert_eq!(g.digest(), digest);
        let now = g.with_weights(|s| s.tensors()[0].data().as_ptr());
        assert_eq!(now, staged[0]);
    }

    #[test]
    fn a_restore_of_another_layout_stages_afresh() {
        let g = gpu(300, 35);
        let payload = payload_of(&g);
        g.restore(&payload, 2);
        // A spare whose layout is not the live one is never lent.
        let other = TrainingState::synthetic(ByteSize::from_bytes(300), 36);
        *g.inner.spare.lock() = Some(TrainingState::from_tensors(vec![
            other.tensors()[0].clone(),
            other.tensors()[2].clone(),
            other.tensors()[1].clone(),
        ]));
        let mut target = g.begin_restore(ByteSize::from_bytes(300));
        assert!(target.pieces().iter().all(|p| p.iter().all(|&b| b == 0)));
    }

    #[test]
    fn restore_is_metered_through_the_copy_engine() {
        let g = gpu(300, 32);
        let before = g.copy_engine().bytes_copied();
        g.restore(&[7u8; 300], 9);
        assert_eq!(g.copy_engine().bytes_copied() - before, 300);
        assert_eq!(g.step_count(), 9);
    }

    #[test]
    #[should_panic(expected = "must match the training-state layout")]
    fn mis_sized_restore_rejected_up_front() {
        let g = gpu(300, 33);
        let _ = g.begin_restore(ByteSize::from_bytes(299));
    }

    #[test]
    fn chunked_copies_reassemble_correctly() {
        let g = gpu(1000, 6);
        g.update();
        let guard = g.lock_weights_shared();
        let mut chunks = Vec::new();
        let mut off = 0u64;
        while off < 1000 {
            let n = 128.min(1000 - off) as usize;
            let mut piece = vec![0u8; n];
            guard.copy_range_to_host(off, &mut piece);
            chunks.extend_from_slice(&piece);
            off += n as u64;
        }
        let expected = g.with_weights(|s| {
            let mut buf = vec![0u8; 1000];
            s.serialize_into(&mut buf);
            buf
        });
        assert_eq!(chunks, expected);
    }
}
