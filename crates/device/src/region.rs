//! The core persistence model: a byte region with a volatile and a durable
//! view.
//!
//! All simulated devices are built on [`MemRegion`]. Writes modify the
//! *volatile* view (page cache for SSD, CPU caches / write-combining buffers
//! for PMEM). Only [`MemRegion::persist`] makes a range part of the
//! *durable* view. A crash replaces the volatile view with the durable one —
//! except under the adversarial [`CrashPolicy::RandomPartial`], where
//! unpersisted cache lines may or may not have reached the media, modeling
//! the reordering hazard §2.3 describes ("the order in which data is written
//! to the cache may differ from the order in which the content reaches
//! PMEM").
//!
//! The two views share one page table of [`PAGE_SIZE`] pages, the
//! granularity at which `msync` writes back. A page's media copy is
//! allocated when the page is first persisted (an absent one reads as
//! zeros); a page's shadow — its page-cache copy — exists while some byte of
//! the page is dirty. Persisting a page whose dirty bytes the range covers
//! makes its shadow the media copy by moving a pointer, so a fence costs the
//! host no second copy of the data; only a page that keeps dirty bytes
//! outside the range has the range copied. Pages leave the views through a
//! spare list that every new page is drawn from first, so a region written
//! and persisted over the same ranges allocates nothing in steady state.

use std::fmt;
use std::ops::Range;

use pccheck_util::rng::Rng;
use pccheck_util::ByteSize;

use crate::error::DeviceError;
use crate::Result;

/// Granularity at which the adversarial crash policy decides survival,
/// matching a CPU cache line.
pub const CACHE_LINE: u64 = 64;

/// Granularity at which a region holds memory and moves persisted bytes,
/// matching an OS page (`msync`'s unit).
pub const PAGE_SIZE: u64 = 4096;

/// What happens to unpersisted bytes when the device crashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPolicy {
    /// Every unpersisted byte is lost (the conservative model).
    DropUnpersisted,
    /// Each dirty cache line independently survives with probability 1/2,
    /// derived deterministically from the seed. This is the adversarial
    /// model: durable state after the crash is a mix of old and new data,
    /// exactly the inconsistency a checkpointing algorithm must tolerate.
    RandomPartial {
        /// Seed for the survival coin flips.
        seed: u64,
    },
}

type Page = Box<[u8]>;

/// Every page a region has allocated that no view holds right now.
#[derive(Debug, Clone, Default)]
struct PagePool {
    spare: Vec<Page>,
    /// Pages allocated over the region's life (none is ever freed).
    held: usize,
}

impl PagePool {
    /// A page with unspecified contents.
    fn take(&mut self) -> Page {
        self.spare.pop().unwrap_or_else(|| {
            self.held += 1;
            vec![0; PAGE_SIZE as usize].into_boxed_slice()
        })
    }

    /// A page holding `src`'s bytes, or zeros without one.
    fn copy_of(&mut self, src: Option<&Page>) -> Page {
        let mut page = self.take();
        match src {
            Some(src) => page.copy_from_slice(src),
            None => page.fill(0),
        }
        page
    }

    fn give(&mut self, page: Page) {
        self.spare.push(page);
    }
}

/// The pages `[start, end)` touches, each as `(page, the range within
/// it, the range's offset from start)`.
fn spans(start: u64, end: u64) -> impl Iterator<Item = (usize, Range<usize>, usize)> {
    let mut at = start;
    std::iter::from_fn(move || {
        (at < end).then(|| {
            let page = at / PAGE_SIZE;
            let base = page * PAGE_SIZE;
            let hi = (end - base).min(PAGE_SIZE);
            let span = (
                page as usize,
                (at - base) as usize..hi as usize,
                (at - start) as usize,
            );
            at = base + hi;
            span
        })
    })
}

/// Copies `span` of `page` into `dst`; an absent page reads as zeros.
fn copy_out(dst: &mut [u8], page: Option<&Page>, span: Range<usize>) {
    match page {
        Some(page) => dst.copy_from_slice(&page[span]),
        None => dst.fill(0),
    }
}

/// A byte region with separate volatile and durable views.
///
/// Not thread-safe by itself; devices wrap it in their own locking.
///
/// # Examples
///
/// ```
/// use pccheck_device::{CrashPolicy, MemRegion};
/// use pccheck_util::ByteSize;
///
/// # fn main() -> Result<(), pccheck_device::DeviceError> {
/// let mut r = MemRegion::new(ByteSize::from_kb(4));
/// r.write(0, b"hello")?;
/// r.crash(CrashPolicy::DropUnpersisted);
/// let mut buf = [0u8; 5];
/// r.read(0, &mut buf)?;
/// assert_eq!(&buf, b"\0\0\0\0\0"); // write was never persisted
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct MemRegion {
    capacity: u64,
    /// Per page, its media copy: allocated when first persisted.
    durable: Vec<Option<Page>>,
    /// Per page, its page-cache copy: present exactly while some byte of
    /// the page is dirty. Outside the dirty bytes it equals the media copy.
    shadow: Vec<Option<Page>>,
    pool: PagePool,
    /// Dirty byte ranges not yet persisted, kept coalesced and sorted.
    dirty: Vec<(u64, u64)>, // (start, end) half-open
}

impl fmt::Debug for MemRegion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemRegion")
            .field("capacity", &self.capacity)
            .field("pages", &self.pages())
            .field("spare", &self.pool.spare.len())
            .field("dirty", &self.dirty)
            .finish()
    }
}

impl MemRegion {
    /// Creates a zero-filled region of the given capacity. It holds no
    /// page until one is written.
    pub fn new(capacity: ByteSize) -> Self {
        let pages = capacity.as_u64().div_ceil(PAGE_SIZE) as usize;
        MemRegion {
            capacity: capacity.as_u64(),
            durable: vec![None; pages],
            shadow: vec![None; pages],
            pool: PagePool::default(),
            dirty: Vec::new(),
        }
    }

    /// Region capacity in bytes.
    pub fn capacity(&self) -> ByteSize {
        ByteSize::from_bytes(self.capacity)
    }

    /// Pages of memory the region holds, in either view or spare.
    pub(crate) fn pages(&self) -> usize {
        self.pool.held
    }

    fn check_bounds(&self, offset: u64, len: u64) -> Result<()> {
        let cap = self.capacity;
        if offset.checked_add(len).is_none_or(|end| end > cap) {
            return Err(DeviceError::OutOfBounds {
                offset,
                len,
                capacity: cap,
            });
        }
        Ok(())
    }

    /// Writes `data` into the volatile view at `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::OutOfBounds`] if the write exceeds capacity.
    pub fn write(&mut self, offset: u64, data: &[u8]) -> Result<()> {
        self.check_bounds(offset, data.len() as u64)?;
        let end = offset + data.len() as u64;
        for (p, span, at) in spans(offset, end) {
            // All of the page that lies inside the region.
            let whole = span.len() as u64 == (self.capacity - p as u64 * PAGE_SIZE).min(PAGE_SIZE);
            let shadow = match &mut self.shadow[p] {
                Some(shadow) => shadow,
                // A page the write leaves partly untouched starts from
                // its media copy; a wholly overwritten one needs no fill.
                empty if whole => empty.insert(self.pool.take()),
                empty => empty.insert(self.pool.copy_of(self.durable[p].as_ref())),
            };
            shadow[span.clone()].copy_from_slice(&data[at..at + span.len()]);
        }
        if !data.is_empty() {
            self.mark_dirty(offset, end);
        }
        Ok(())
    }

    /// Reads from the volatile view (what a running process observes).
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::OutOfBounds`] if the read exceeds capacity.
    pub fn read(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.check_bounds(offset, buf.len() as u64)?;
        for (p, span, at) in spans(offset, offset + buf.len() as u64) {
            let page = self.shadow[p].as_ref().or(self.durable[p].as_ref());
            copy_out(&mut buf[at..at + span.len()], page, span);
        }
        Ok(())
    }

    /// Reads from the durable view (what would survive a crash right now).
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::OutOfBounds`] if the read exceeds capacity.
    pub fn read_durable(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.check_bounds(offset, buf.len() as u64)?;
        for (p, span, at) in spans(offset, offset + buf.len() as u64) {
            copy_out(
                &mut buf[at..at + span.len()],
                self.durable[p].as_ref(),
                span,
            );
        }
        Ok(())
    }

    /// Persists `[offset, offset+len)` and clears its dirty tracking. A
    /// page left with no dirty byte has its shadow become its media copy
    /// (the old one goes spare); a page that keeps dirty bytes outside the
    /// range has the range copied into its media copy.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::OutOfBounds`] if the range exceeds capacity.
    pub fn persist(&mut self, offset: u64, len: u64) -> Result<()> {
        self.check_bounds(offset, len)?;
        self.clear_dirty(offset, offset + len);
        for (p, span, _) in spans(offset, offset + len) {
            if self.is_dirty(p as u64 * PAGE_SIZE, PAGE_SIZE) {
                self.copy_to_media(p, span);
            } else {
                self.install(p);
            }
        }
        Ok(())
    }

    /// Persists everything (e.g., `msync` over the whole mapping).
    pub fn persist_all(&mut self) {
        for (s, e) in std::mem::take(&mut self.dirty) {
            for (p, _, _) in spans(s, e) {
                self.install(p);
            }
        }
    }

    /// Makes page `p`'s shadow, if it has one, its media copy.
    fn install(&mut self, p: usize) {
        if let Some(shadow) = self.shadow[p].take() {
            if let Some(old) = self.durable[p].replace(shadow) {
                self.pool.give(old);
            }
        }
    }

    /// Copies `span` of dirty page `p`'s shadow into its media copy.
    fn copy_to_media(&mut self, p: usize, span: Range<usize>) {
        let shadow = self.shadow[p].as_ref().expect("a dirty page has a shadow");
        let media = self.durable[p].get_or_insert_with(|| self.pool.copy_of(None));
        media[span.clone()].copy_from_slice(&shadow[span]);
    }

    /// Total number of dirty (unpersisted) bytes.
    pub fn dirty_bytes(&self) -> ByteSize {
        ByteSize::from_bytes(self.dirty.iter().map(|(s, e)| e - s).sum())
    }

    /// Returns `true` if any byte in `[offset, offset+len)` is dirty.
    pub fn is_dirty(&self, offset: u64, len: u64) -> bool {
        let (qs, qe) = (offset, offset + len);
        // Sorted and disjoint, so the ends are sorted too.
        let first = self.dirty.partition_point(|&(_, e)| e <= qs);
        self.dirty.get(first).is_some_and(|&(s, _)| s < qe)
    }

    /// Simulates a crash: the volatile view is reconstructed from the
    /// durable one according to `policy`. Costs the dirty bytes, not the
    /// capacity: every shadow goes spare.
    pub fn crash(&mut self, policy: CrashPolicy) {
        let dirty = std::mem::take(&mut self.dirty);
        match policy {
            CrashPolicy::DropUnpersisted => {}
            CrashPolicy::RandomPartial { seed } => {
                // Some dirty cache lines made it to the media before the
                // crash even though no fence covered them.
                let mut coin = Rng::seeded(seed);
                for &(s, e) in &dirty {
                    let mut line = s - (s % CACHE_LINE);
                    while line < e {
                        if coin.bool() {
                            // One span: a line never straddles a page.
                            for (p, span, _) in spans(line.max(s), (line + CACHE_LINE).min(e)) {
                                self.copy_to_media(p, span);
                            }
                        }
                        line += CACHE_LINE;
                    }
                }
            }
        }
        for (s, e) in dirty {
            for (p, _, _) in spans(s, e) {
                if let Some(shadow) = self.shadow[p].take() {
                    self.pool.give(shadow);
                }
            }
        }
    }

    fn mark_dirty(&mut self, start: u64, end: u64) {
        // Insert keeping ranges sorted and coalesced.
        let idx = self.dirty.partition_point(|&(s, _)| s < start);
        self.dirty.insert(idx, (start, end));
        self.coalesce();
    }

    fn clear_dirty(&mut self, start: u64, end: u64) {
        let mut next = Vec::with_capacity(self.dirty.len() + 1);
        for &(s, e) in &self.dirty {
            if e <= start || s >= end {
                next.push((s, e));
            } else {
                if s < start {
                    next.push((s, start));
                }
                if e > end {
                    next.push((end, e));
                }
            }
        }
        self.dirty = next;
    }

    fn coalesce(&mut self) {
        if self.dirty.len() < 2 {
            return;
        }
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(self.dirty.len());
        for &(s, e) in &self.dirty {
            match merged.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => merged.push((s, e)),
            }
        }
        self.dirty = merged;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pccheck_util::rng::{check, DEFAULT_CASES};

    fn region(cap: u64) -> MemRegion {
        MemRegion::new(ByteSize::from_bytes(cap))
    }

    /// The reference model: two flat full-capacity images, the durable
    /// one updated by copying every persisted byte.
    struct Flat {
        volatile: Vec<u8>,
        durable: Vec<u8>,
        dirty: Vec<(u64, u64)>,
    }

    impl Flat {
        fn new(cap: u64) -> Self {
            Flat {
                volatile: vec![0; cap as usize],
                durable: vec![0; cap as usize],
                dirty: Vec::new(),
            }
        }

        fn write(&mut self, offset: u64, data: &[u8]) {
            let s = offset as usize;
            self.volatile[s..s + data.len()].copy_from_slice(data);
            if !data.is_empty() {
                let end = offset + data.len() as u64;
                let idx = self.dirty.partition_point(|&(s, _)| s < offset);
                self.dirty.insert(idx, (offset, end));
                let mut merged: Vec<(u64, u64)> = Vec::new();
                for &(s, e) in &self.dirty {
                    match merged.last_mut() {
                        Some(last) if s <= last.1 => last.1 = last.1.max(e),
                        _ => merged.push((s, e)),
                    }
                }
                self.dirty = merged;
            }
        }

        fn persist(&mut self, offset: u64, len: u64) {
            let (s, e) = (offset as usize, (offset + len) as usize);
            self.durable[s..e].copy_from_slice(&self.volatile[s..e]);
            let end = offset + len;
            let mut next = Vec::new();
            for &(s, e) in &self.dirty {
                if e <= offset || s >= end {
                    next.push((s, e));
                } else {
                    if s < offset {
                        next.push((s, offset));
                    }
                    if e > end {
                        next.push((end, e));
                    }
                }
            }
            self.dirty = next;
        }

        fn persist_all(&mut self) {
            self.durable.copy_from_slice(&self.volatile);
            self.dirty.clear();
        }

        fn crash(&mut self, policy: CrashPolicy) {
            if let CrashPolicy::RandomPartial { seed } = policy {
                let mut coin = Rng::seeded(seed);
                for &(s, e) in &self.dirty {
                    let mut line = s - (s % CACHE_LINE);
                    while line < e {
                        let lo = line.max(s) as usize;
                        let hi = (line + CACHE_LINE).min(e) as usize;
                        if coin.bool() {
                            self.durable[lo..hi].copy_from_slice(&self.volatile[lo..hi]);
                        }
                        line += CACHE_LINE;
                    }
                }
            }
            self.volatile.copy_from_slice(&self.durable);
            self.dirty.clear();
        }

        fn dirty_bytes(&self) -> u64 {
            self.dirty.iter().map(|(s, e)| e - s).sum()
        }
    }

    fn assert_matches(r: &MemRegion, model: &Flat, step: &str) {
        let mut got = vec![0u8; model.volatile.len()];
        r.read(0, &mut got).unwrap();
        assert!(got == model.volatile, "volatile view diverged after {step}");
        r.read_durable(0, &mut got).unwrap();
        assert!(got == model.durable, "durable view diverged after {step}");
        assert_eq!(
            r.dirty_bytes().as_u64(),
            model.dirty_bytes(),
            "after {step}"
        );
    }

    /// Random operation sequences leave both views byte-identical to the
    /// flat model, under both crash policies, on capacities that are and
    /// are not a whole number of pages.
    #[test]
    fn page_table_matches_the_flat_model() {
        check(DEFAULT_CASES, |rng| {
            let cap = match rng.range(0..3) {
                0 => 3 * PAGE_SIZE,
                1 => 2 * PAGE_SIZE + 1 + rng.range(0..PAGE_SIZE - 1),
                _ => rng.range(1..PAGE_SIZE),
            };
            let mut r = region(cap);
            let mut model = Flat::new(cap);
            // A range inside the region, often straddling a page boundary,
            // sometimes empty.
            let range = |rng: &mut Rng| {
                let off = if rng.bool() {
                    let boundary = rng.range(0..cap.div_ceil(PAGE_SIZE) + 1) * PAGE_SIZE;
                    boundary.saturating_sub(rng.range(0..200)).min(cap)
                } else {
                    rng.range(0..cap + 1)
                };
                let len = match rng.range(0..8) {
                    0 => 0,
                    _ => rng.range(0..(cap - off).min(2 * PAGE_SIZE + 300) + 1),
                };
                (off, len)
            };
            for _ in 0..rng.range(1..40) {
                let step = match rng.range(0..12) {
                    0..=4 => {
                        let (off, len) = range(rng);
                        let data = rng.bytes(len as usize);
                        r.write(off, &data).unwrap();
                        model.write(off, &data);
                        format!("write({off}, {len})")
                    }
                    5..=7 => {
                        let (off, len) = range(rng);
                        r.persist(off, len).unwrap();
                        model.persist(off, len);
                        format!("persist({off}, {len})")
                    }
                    8 => {
                        r.persist_all();
                        model.persist_all();
                        "persist_all".to_string()
                    }
                    9 => {
                        r.crash(CrashPolicy::DropUnpersisted);
                        model.crash(CrashPolicy::DropUnpersisted);
                        "crash(DropUnpersisted)".to_string()
                    }
                    _ => {
                        let policy = CrashPolicy::RandomPartial {
                            seed: rng.next_u64(),
                        };
                        r.crash(policy);
                        model.crash(policy);
                        format!("crash({policy:?})")
                    }
                };
                assert_matches(&r, &model, &step);
                // A sub-range read, and the dirty query, over another range.
                let (off, len) = range(rng);
                let at = off as usize..(off + len) as usize;
                let mut got = vec![0u8; len as usize];
                r.read(off, &mut got).unwrap();
                assert_eq!(got, model.volatile[at.clone()], "read({off}, {len})");
                r.read_durable(off, &mut got).unwrap();
                assert_eq!(got, model.durable[at], "read_durable({off}, {len})");
                let dirty = model.dirty.iter().any(|&(s, e)| s < off + len && off < e);
                assert_eq!(r.is_dirty(off, len), dirty, "is_dirty({off}, {len})");
            }
        });
    }

    /// A shadow that went spare in a crash still holds the crashed write's
    /// bytes; a partial write that draws it must start from the media copy
    /// (or zeros), never from those bytes.
    #[test]
    fn recycled_shadow_never_leaks_stale_bytes() {
        let page = PAGE_SIZE as usize;
        let mut r = region(2 * PAGE_SIZE);
        r.write(0, &vec![0x11; page]).unwrap();
        r.persist(0, PAGE_SIZE).unwrap();
        r.write(0, &vec![0xEE; page]).unwrap();
        r.crash(CrashPolicy::DropUnpersisted);
        r.write(10, &[0x22; 4]).unwrap();
        let mut got = vec![0u8; page];
        r.read(0, &mut got).unwrap();
        let mut want = vec![0x11; page];
        want[10..14].fill(0x22);
        assert_eq!(got, want, "partial write over a media page");

        r.write(0, &vec![0xEE; page]).unwrap();
        r.crash(CrashPolicy::DropUnpersisted);
        r.write(PAGE_SIZE + 5, &[0x33; 3]).unwrap();
        r.read(PAGE_SIZE, &mut got).unwrap();
        let mut want = vec![0; page];
        want[5..8].fill(0x33);
        assert_eq!(got, want, "partial write over a never-persisted page");
        r.persist(PAGE_SIZE, PAGE_SIZE).unwrap();
        r.read_durable(PAGE_SIZE, &mut got).unwrap();
        assert_eq!(got, want);
    }

    /// Memory follows what was written, not the capacity, and a
    /// checkpoint-shaped loop over one slot range recycles its pages.
    #[test]
    fn page_residency_is_bounded() {
        let mib = 1 << 20;
        let mut r = region(8 * mib);
        assert_eq!(r.pages(), 0, "a never-written region holds no pages");
        let mut buf = [0u8; 64];
        r.read(5 * mib, &mut buf).unwrap();
        r.persist(0, 8 * mib).unwrap();
        r.crash(CrashPolicy::RandomPartial { seed: 1 });
        assert_eq!(
            r.pages(),
            0,
            "reads, empty persists and crashes allocate nothing"
        );

        let base = 3 * PAGE_SIZE + 100;
        let mut held = Vec::new();
        for cycle in 0..50u8 {
            let data = vec![cycle; mib as usize];
            for c in 0..4 {
                r.write(base + c * mib, &data).unwrap();
            }
            for c in 0..4 {
                r.persist(base + c * mib, mib).unwrap();
            }
            held.push(r.pages());
        }
        // The first cycle allocates the media copies; the first overwrite
        // a shadow per page, whose displaced media copies then feed every
        // later cycle.
        let span = (4 * mib).div_ceil(PAGE_SIZE) as usize + 1;
        assert!(held[0] <= span + 4, "{held:?}");
        assert!(held[1..].iter().all(|&n| n == held[1]), "{held:?}");
        assert!(held[1] <= 2 * span + 4, "{held:?}");
        let mut back = vec![0u8; mib as usize];
        r.read_durable(base + 3 * mib, &mut back).unwrap();
        assert!(back.iter().all(|&b| b == 49));
    }

    #[test]
    fn write_then_read_sees_data() {
        let mut r = region(128);
        r.write(10, b"abc").unwrap();
        let mut buf = [0u8; 3];
        r.read(10, &mut buf).unwrap();
        assert_eq!(&buf, b"abc");
    }

    #[test]
    fn durable_view_lags_until_persist() {
        let mut r = region(128);
        r.write(0, b"xyz").unwrap();
        let mut buf = [0u8; 3];
        r.read_durable(0, &mut buf).unwrap();
        assert_eq!(&buf, &[0, 0, 0]);
        r.persist(0, 3).unwrap();
        r.read_durable(0, &mut buf).unwrap();
        assert_eq!(&buf, b"xyz");
    }

    #[test]
    fn crash_drops_unpersisted() {
        let mut r = region(128);
        r.write(0, b"keep").unwrap();
        r.persist(0, 4).unwrap();
        r.write(64, b"lose").unwrap();
        r.crash(CrashPolicy::DropUnpersisted);
        let mut keep = [0u8; 4];
        r.read(0, &mut keep).unwrap();
        assert_eq!(&keep, b"keep");
        let mut lost = [0u8; 4];
        r.read(64, &mut lost).unwrap();
        assert_eq!(&lost, &[0, 0, 0, 0]);
        assert_eq!(r.dirty_bytes(), ByteSize::ZERO);
    }

    #[test]
    fn random_partial_crash_is_line_granular_and_deterministic() {
        let build = |seed| {
            let mut r = region(512);
            r.write(0, &[0xAA; 512]).unwrap();
            r.crash(CrashPolicy::RandomPartial { seed });
            let mut buf = vec![0u8; 512];
            r.read(0, &mut buf).unwrap();
            buf
        };
        let a = build(3);
        let b = build(3);
        assert_eq!(a, b, "same seed, same surviving lines");
        // Survival decisions are per cache line: each 64-byte line is
        // uniformly 0xAA (survived) or 0x00 (lost).
        let mut survived = 0;
        for line in a.chunks(64) {
            assert!(
                line.iter().all(|&b| b == 0xAA) || line.iter().all(|&b| b == 0),
                "line must be all-or-nothing"
            );
            if line[0] == 0xAA {
                survived += 1;
            }
        }
        assert!(
            survived > 0 && survived < 8,
            "seed 3 gives a mix: {survived}"
        );
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut r = region(16);
        assert!(matches!(
            r.write(10, &[0; 10]),
            Err(DeviceError::OutOfBounds { .. })
        ));
        let mut buf = [0; 4];
        assert!(r.read(15, &mut buf).is_err());
        assert!(r.read_durable(15, &mut buf).is_err());
        assert!(r.persist(8, 9).is_err());
        // Offset overflow must not panic.
        assert!(r.write(u64::MAX, &[1]).is_err());
    }

    #[test]
    fn dirty_tracking_coalesces_adjacent_ranges() {
        let mut r = region(256);
        r.write(0, &[1; 10]).unwrap();
        r.write(10, &[2; 10]).unwrap();
        r.write(50, &[3; 10]).unwrap();
        assert_eq!(r.dirty_bytes().as_u64(), 30);
        assert!(r.is_dirty(5, 1));
        assert!(r.is_dirty(55, 1));
        assert!(!r.is_dirty(30, 5));
        r.persist(0, 20).unwrap();
        assert_eq!(r.dirty_bytes().as_u64(), 10);
        assert!(!r.is_dirty(0, 20));
    }

    #[test]
    fn partial_persist_splits_dirty_range() {
        let mut r = region(256);
        r.write(0, &[9; 100]).unwrap();
        r.persist(40, 20).unwrap();
        assert!(r.is_dirty(0, 40));
        assert!(!r.is_dirty(40, 20));
        assert!(r.is_dirty(60, 40));
        assert_eq!(r.dirty_bytes().as_u64(), 80);
    }

    #[test]
    fn persist_all_clears_everything() {
        let mut r = region(256);
        r.write(3, &[7; 200]).unwrap();
        r.persist_all();
        assert_eq!(r.dirty_bytes(), ByteSize::ZERO);
        let mut buf = [0u8; 1];
        r.read_durable(100, &mut buf).unwrap();
        assert_eq!(buf[0], 7);
    }

    #[test]
    fn zero_length_write_is_noop() {
        let mut r = region(8);
        r.write(8, &[]).unwrap(); // at capacity boundary, zero len: fine
        assert_eq!(r.dirty_bytes(), ByteSize::ZERO);
        assert_eq!(r.pages(), 0);
    }

    /// After persisting arbitrary ranges and crashing with the
    /// conservative policy, the surviving data equals exactly the
    /// persisted prefix of writes — never torn within a persisted range.
    #[test]
    fn persisted_ranges_survive_any_crash() {
        check(DEFAULT_CASES, |rng| {
            let writes: Vec<(usize, Vec<u8>)> = (0..rng.range(1..20))
                .map(|_| {
                    let (off, len) = (rng.range(0..200), rng.range(1..32) as usize);
                    (off.min(256 - len as u64) as usize, rng.bytes(len))
                })
                .collect();
            let persist_upto = rng.range(0..20) as usize;
            let mut r = region(256);
            // Persisting a range persists the *current volatile* content,
            // so the expected durable image replays the same writes.
            let mut volatile = vec![0u8; 256];
            let mut durable = vec![0u8; 256];
            for (i, (off, data)) in writes.iter().enumerate() {
                let end = off + data.len();
                r.write(*off as u64, data).unwrap();
                volatile[*off..end].copy_from_slice(data);
                if i < persist_upto {
                    r.persist(*off as u64, data.len() as u64).unwrap();
                    durable[*off..end].copy_from_slice(&volatile[*off..end]);
                }
            }
            r.crash(CrashPolicy::DropUnpersisted);
            let mut got = vec![0u8; 256];
            r.read(0, &mut got).unwrap();
            assert_eq!(got, durable);
        });
    }

    /// The adversarial crash only ever leaves bytes that were written at
    /// some point (old durable or new volatile), never garbage.
    #[test]
    fn random_partial_crash_never_invents_bytes() {
        check(DEFAULT_CASES, |rng| {
            let mut r = region(256);
            r.write(0, &[0x11; 128]).unwrap();
            r.persist(0, 128).unwrap();
            r.write(64, &[0x22; 128]).unwrap();
            r.crash(CrashPolicy::RandomPartial {
                seed: rng.next_u64(),
            });
            let mut got = vec![0u8; 256];
            r.read(0, &mut got).unwrap();
            for (i, b) in got.iter().enumerate() {
                let valid: &[u8] = match i {
                    0..=63 => &[0x11],
                    64..=127 => &[0x11, 0x22],
                    128..=191 => &[0x00, 0x22],
                    _ => &[0x00],
                };
                assert!(valid.contains(b), "byte {i} = {b:#x} invalid");
            }
        });
    }
}
