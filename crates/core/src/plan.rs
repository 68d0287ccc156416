//! A copy's plan: what each record of its frame serves, which served record
//! it samples, and which carry it hands to the next plan — a function of
//! its inputs, which takes no lock and writes nothing.
//!
//! *A copy plans from the last snapshot, not from a copy of it.* Per job
//! the pipeline keeps the last snapshot's digests and source [`Version`] (a
//! [`Carry`], no bytes). The next copy asks the source what changed since
//! ([`SnapshotSource::dirty_since`]) and observes the dedup generation of
//! the job's head once, under the codec index's lock with the weights held.
//! Records follow the dirty runs on digest-block boundaries: it *serves*
//! each chunk of whole digest blocks whose clean head and tail one home
//! record below the depth bound holds — at their own offsets or at another,
//! any part of a `Raw` record or all of an `Lz` one — with the carried
//! block values (by position, the generation keeps the home of each range
//! and each block's value), and copies the run between them: all of a
//! clean chunk one record holds is served, a chunk the update dirtied in
//! part is cut. A served record is that `DedupBase`, naming its home
//! range, its values the carried ones, filed before the plan hands its
//! own carry on; a cut adds a 40-byte
//! record for at least one served 4 KiB block, and the table's room is the
//! plan's record count, so no frame outgrows its slot. It copies the rest,
//! plus one record it could have served, rotating: that record's digest job
//! checks its address against the carried one, and a mismatch (the tracker
//! missed a write) raises an `anomaly` event and retires every carry
//! planned before it. A dense update leaves nothing clean, so its frame
//! copies every chunk and, unless a chunk repeats an earlier one or
//! compresses, is all `Raw`, one record per chunk.
//!
//! *The plan is a pure function* ([`plan`]) of the head's [`Observation`],
//! the job's last carry, the dirty ranges since it, the new snapshot's
//! geometry, the count of failed samples and the copy's staging budget. A
//! carry of another source or geometry, older than the log reaches or
//! planned before a sample failed leaves every chunk copied whole and
//! nothing sampled. The caller reads the carry and the count in one
//! critical section of the [`Carries`]' lock and takes the plan's hand-off
//! ([`Plan::hand_off`]) in another.
//!
//! [`Version`]: pccheck_gpu::Version
//! [`SnapshotSource::dirty_since`]: pccheck_gpu::SnapshotSource::dirty_since

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use pccheck_gpu::Version;
use pccheck_util::fnv::DIGEST_BLOCK;

use crate::codec::{block_range, Carried, DedupIndex, Generation, Hit, FRAME_RECORD_SIZE};
use crate::pipeline::Digests;
use crate::store::JobId;

/// The last snapshot a job's copy planned from (module docs).
#[derive(Debug)]
pub(crate) struct Carry {
    pub(crate) version: Version,
    digests: Arc<Digests>,
    /// The logical offset where the next validation sample starts looking
    /// for a served record.
    cursor: u64,
    /// [`Carries::retired`] when it was planned: a sample that fails
    /// after that retires it.
    retired: u64,
    /// By chunk: the hit the plan served all of it from, if it did.
    served: Vec<Option<Hit>>,
}

/// Each job's carry and the count of failed samples: what the pipeline
/// keeps under one lock for its copies' plans.
#[derive(Debug, Default)]
pub(crate) struct Carries {
    by_job: HashMap<JobId, Arc<Carry>>,
    /// Validation samples that failed so far.
    retired: u64,
}

impl Carries {
    /// A plan's inputs from the lock: `job`'s carry, and the count of
    /// failed samples.
    pub(crate) fn last(&self, job: JobId) -> (Option<Arc<Carry>>, u64) {
        (self.by_job.get(&job).cloned(), self.retired)
    }

    /// A sample failed: no carry planned before now serves again.
    pub(crate) fn retire(&mut self) {
        self.retired += 1;
    }

    /// Takes `step` of `job`'s `plan`.
    pub(crate) fn take(&mut self, job: JobId, plan: &Plan, step: Step) {
        let (Some(next), last) = (&plan.next, &plan.last) else {
            unreachable!("a plan of a source without history has no hand-off")
        };
        match step {
            Step::File(i) => {
                let Unit { off, len, .. } = plan.units[i];
                let last = last.as_ref().expect("a served record has a carry");
                next.digests.carry(&last.digests, off, len);
            }
            Step::Publish => _ = self.by_job.insert(job, Arc::clone(next)),
        }
    }
}

/// One record of a frame as planned: the logical range it covers
/// and, if the observation serves it, from where.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Unit {
    pub(crate) off: u64,
    pub(crate) len: u64,
    pub(crate) served: Option<Served>,
}

/// A record served without being copied: where its home holds its bytes,
/// and its address, carried from the last snapshot.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Served {
    pub(crate) hit: Hit,
    pub(crate) address: u64,
}

/// What a copy decided while it held the weights.
#[derive(Debug)]
pub(crate) struct Plan {
    /// The frame's records, in logical order: one per chunk, but a chunk
    /// the observation serves only in part is cut into its served runs and
    /// the run between them.
    pub(crate) units: Vec<Unit>,
    /// The served record copied to validate the carry.
    pub(crate) sample: Option<usize>,
    /// Bytes changed since the carried snapshot: the whole state when
    /// there was none to plan from.
    pub(crate) dirty: u64,
    /// The carry it planned from, whose values its served records take.
    last: Option<Arc<Carry>>,
    /// The carry it hands on: `None` when the source keeps no history.
    next: Option<Arc<Carry>>,
}

/// A step of a plan's hand-off, in the order [`Plan::hand_off`] lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// Served record `i`'s carried values are filed into the new digests.
    File(usize),
    /// The next carry becomes the job's.
    Publish,
}

impl Plan {
    /// Whether record `i` is copied: it is not served, or it is the sample.
    pub(crate) fn copies(&self, i: usize) -> bool {
        self.units[i].served.is_none() || self.sample == Some(i)
    }

    /// The records copied besides the sample, in logical order.
    pub(crate) fn copied(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.units.len()).filter(|&i| self.units[i].served.is_none())
    }

    /// The hand-off's steps, in the order they take effect: every served
    /// record's carried values — the sample's too, until its digest job
    /// files what it read over them — and only then the next carry. A plan
    /// that takes that carry at once serves the same blocks and takes their
    /// values from it, so in this order no step needs the others hidden
    /// from a plan: the pipeline takes them under the carries' lock, the
    /// model test with other copies' effects between.
    pub(crate) fn hand_off(&self) -> impl Iterator<Item = Step> + '_ {
        let served = (0..self.units.len()).filter(|&i| self.units[i].served.is_some());
        served
            .map(Step::File)
            .chain(self.next.is_some().then_some(Step::Publish))
    }
}

/// What one look at the codec index saw: the generation the job's head
/// installed, if any, and how deep a home may sit to be referenced.
pub(crate) struct Observation {
    generation: Option<Arc<Generation>>,
    max_depth: u32,
}

impl Observation {
    /// The generation `head` installed for `job`, if it is the one `dedup`
    /// holds, seen from a namespace of `slots` slots.
    pub(crate) fn of(dedup: &DedupIndex, job: JobId, head: Option<u64>, slots: u32) -> Self {
        // A chain of depth d pins d + 1 slots and the next checkpoint needs
        // one more, so the lease's slot budget bounds the depth a hit may
        // add: a committed chain always leaves a slot free.
        const MAX_CHAIN: u32 = 7;
        Observation {
            generation: head.and_then(|head| dedup.observe(job, head)),
            max_depth: MAX_CHAIN.min(slots.saturating_sub(2)),
        }
    }

    /// The generation's one lookup ([`Generation::reach`]), below the depth
    /// bound.
    pub(crate) fn hit(
        &self,
        range: Range<u64>,
        back: bool,
        carried: Option<Carried<'_>>,
    ) -> Option<Hit> {
        let hit = self.generation.as_ref()?.reach(range, back, carried)?;
        (hit.home.depth < self.max_depth).then_some(hit)
    }

    /// Chunk `i`'s records, planned from `carry` with `dirty` its digest
    /// blocks from the first written since to the last: its longest head
    /// and longest tail of clean blocks that one home record holds with
    /// the carried values — all of a clean chunk, when one does — each
    /// served from that record, around the run that is copied. A chunk
    /// that shares a block with another, or one planned without a carry,
    /// is copied whole. Returns the hit that serves all of the chunk, if
    /// one does.
    fn chunk_units(
        &self,
        digests: &Digests,
        carry: Option<&Carry>,
        dirty: Option<Range<usize>>,
        i: usize,
        units: &mut Vec<Unit>,
    ) -> Option<Hit> {
        let (off, len) = digests.extent(i);
        let end = off + len as u64;
        let Some(carry) = carry.filter(|_| digests.uncut(i)) else {
            let (len, served) = (len as u64, None);
            units.push(Unit { off, len, served });
            return None;
        };
        let at = |b: usize| (b as u64 * DIGEST_BLOCK as u64).min(digests.len);
        // The dirty run `[lo, hi)`; a clean chunk's is empty, at its end.
        let (lo, hi) = dirty.map_or((end, end), |run| (at(run.start), at(run.end)));
        let last = &carry.digests;
        let carried = Some((&*last.blocks, &*last.filed));
        // A whole home record carries its address; a part of one folds its
        // carried values.
        let served = |off: u64, hit: Hit| {
            let address = (hit.address())
                .unwrap_or_else(|| last.address(off, hit.len).expect("a served block is filed"));
            let (len, served) = (hit.len, Some(Served { hit, address }));
            Unit { off, len, served }
        };
        // A clean chunk the carry served all of holds that home's bytes: if
        // the observation names the same home for it, no value is compared.
        let kept = carry.served[i]
            .filter(|&hit| lo == end && self.hit(off..end, false, None) == Some(hit));
        let head = kept.or_else(|| self.hit(off..lo, false, carried));
        let head_end = off + head.map_or(0, |hit| hit.len);
        units.extend(head.map(|hit| served(off, hit)));
        if head_end == end {
            return head;
        }
        let tail = self.hit(head_end.max(hi)..end, true, carried);
        let tail_start = end - tail.map_or(0, |hit| hit.len);
        if head_end < tail_start {
            let (off, len, served) = (head_end, tail_start - head_end, None);
            units.push(Unit { off, len, served });
        }
        units.extend(tail.map(|hit| served(tail_start, hit)));
        None
    }
}

/// The plan of a copy of the snapshot at `version` whose digests will be
/// `digests` (module docs), made from `observed`, the job's `last` carry,
/// the ranges the source reports `dirty` since it, the count of samples
/// `retired` so far and the copy's `staging` budget in buffers
/// (`usize::MAX` when the copy is pipelined). Cuts each chunk into the
/// records the observation serves and the run it does not
/// ([`Observation::chunk_units`]), and samples the first served record at
/// or after the carry's cursor that the frame's slot and the staging
/// budget can afford to copy.
pub(crate) fn plan(
    observed: &Observation,
    last: Option<&Arc<Carry>>,
    dirty: Option<&[(u64, u64)]>,
    version: Option<Version>,
    digests: &Arc<Digests>,
    retired: u64,
    staging: usize,
) -> Plan {
    let (chunk, total, n) = (digests.chunk, digests.len, digests.n_chunks());
    let usable = |last: &&Arc<Carry>| {
        let same = version.is_some_and(|v| v.source == last.version.source);
        same && last.retired == retired && (last.digests.len, last.digests.chunk) == (total, chunk)
    };
    let (last, ranges) = match (last.filter(usable), dirty) {
        (Some(last), Some(ranges)) => (Some(last), ranges),
        _ => (None, &[][..]),
    };
    // By chunk: its digest blocks from the first written to the last.
    let mut runs: Vec<Option<Range<usize>>> = vec![None; n];
    for &(off, len) in ranges.iter().filter(|&&(off, len)| len > 0 && off < total) {
        let end = (off + len).min(total);
        let block = DIGEST_BLOCK as u64;
        let written = (off / block) as usize..end.div_ceil(block) as usize;
        let chunks = (off / chunk) as usize..=((end - 1) / chunk) as usize;
        for (i, run) in chunks.clone().zip(&mut runs[chunks]) {
            let (at, len) = digests.extent(i);
            let own = block_range(at, len as u64);
            let (lo, hi) = (written.start.max(own.start), written.end.min(own.end));
            let run = run.get_or_insert(lo..hi);
            *run = run.start.min(lo)..run.end.max(hi);
        }
    }
    let mut units = Vec::with_capacity(n);
    let served: Vec<_> = (runs.into_iter().enumerate())
        .map(|(i, run)| observed.chunk_units(digests, last.map(|l| &**l), run, i, &mut units))
        .collect();
    // Each record a cut adds is paid for by a served run of whole blocks;
    // the sample must leave enough served that the frame fits its slot
    // should it materialize, and fit the staging beside every copied one.
    let added = ((units.len() - n) * FRAME_RECORD_SIZE) as u64;
    let serving: u64 = (units.iter().filter_map(|u| u.served.map(|_| u.len))).sum();
    let copied = units.iter().filter(|u| u.served.is_none()).count();
    let from = units.partition_point(|u| u.off < last.map_or(0, |l| l.cursor));
    let sample = (0..units.len())
        .map(|j| (from + j) % units.len())
        .filter(|_| copied < staging)
        .find(|&j| units[j].served.is_some() && serving - units[j].len >= added);
    let cursor = sample.map_or(0, |j| (units[j].off + units[j].len) % total);
    let digests = Arc::clone(digests);
    let next = version.map(|version| {
        let carry = Carry {
            version,
            digests,
            cursor,
            retired,
            served,
        };
        Arc::new(carry)
    });
    let dirty = ranges.iter().map(|&(_, len)| len).sum::<u64>();
    let (dirty, last) = (last.map_or(total, |_| dirty.min(total)), last.cloned());
    Plan {
        units,
        sample,
        dirty,
        last,
        next,
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::collections::VecDeque;

    use pccheck_util::fnv::{content_address, state_digest};
    use pccheck_util::rng::{check, Rng, DEFAULT_CASES};
    use pccheck_util::ByteSize;

    use super::*;
    use crate::codec::{DedupHome, Homes};
    use crate::store::DEFAULT_JOB as JOB;

    const BLOCK: u64 = DIGEST_BLOCK as u64;

    /// A source whose dirty log is honest and keeps its last four
    /// mutations.
    struct Source {
        id: u64,
        bytes: Vec<u8>,
        seq: u64,
        floor: u64,
        log: VecDeque<(u64, Vec<(u64, u64)>)>,
    }

    impl Source {
        fn new(id: u64, len: u64, rng: &mut Rng) -> Self {
            let mut bytes = vec![0; len as usize];
            rng.fill(&mut bytes);
            let (seq, floor, log) = (0, 0, VecDeque::new());
            Source {
                id,
                bytes,
                seq,
                floor,
                log,
            }
        }

        fn write(&mut self, ranges: Vec<(u64, u64)>, rng: &mut Rng) {
            for &(off, len) in &ranges {
                rng.fill(&mut self.bytes[off as usize..(off + len) as usize]);
            }
            self.seq += 1;
            self.log.push_back((self.seq, ranges));
            if self.log.len() > 4 {
                self.floor = self.log.pop_front().expect("a full log").0;
            }
        }

        fn restore(&mut self, bytes: &[u8]) {
            self.bytes.copy_from_slice(bytes);
            self.seq += 1;
            self.log.clear();
            self.floor = self.seq;
        }

        fn dirty_since(&self, seq: u64) -> Option<Vec<(u64, u64)>> {
            let newer = self.log.iter().filter(|(at, _)| *at > seq);
            let ranges = newer.flat_map(|(_, ranges)| ranges.iter().copied());
            (self.floor..=self.seq)
                .contains(&seq)
                .then(|| ranges.collect())
        }

        fn version(&self) -> Version {
            let (source, seq) = (self.id, self.seq);
            Version { source, seq }
        }
    }

    /// A copy between its plan and its commit: the hand-off steps it has
    /// not taken and the records whose digest jobs have not run.
    struct Copy {
        plan: Plan,
        digests: Arc<Digests>,
        counter: u64,
        bytes: Vec<u8>,
        steps: VecDeque<Step>,
        jobs: Vec<usize>,
        addresses: HashMap<usize, u64>,
    }

    /// What the copies of one job see and leave: the carries, the codec
    /// index and its head, and the media as the records each committed
    /// frame materialized, by counter and logical offset.
    struct Model {
        sources: [Source; 2],
        chunk: u64,
        slots: u32,
        carries: Carries,
        dedup: DedupIndex,
        head: Option<u64>,
        counter: u64,
        media: HashMap<(u64, u64), Vec<u8>>,
        committed: Vec<Vec<u8>>,
        copies: Vec<Copy>,
    }

    /// How often the histories reached the cases the properties are about.
    #[derive(Default)]
    struct Seen {
        served: Cell<u64>,
        same_version: Cell<u64>,
        budget_bound: Cell<u64>,
        retired: Cell<u64>,
        restored: Cell<u64>,
    }

    fn bump(cell: &Cell<u64>) {
        cell.set(cell.get() + 1);
    }

    impl Model {
        fn total(&self) -> u64 {
            self.sources[0].bytes.len() as u64
        }

        /// A copy of source `s` plans, staged whole or pipelined, and
        /// stages what it copies; its effects wait.
        fn plan(&mut self, s: usize, whole: bool, rng: &mut Rng, seen: &Seen) {
            self.counter += 1;
            let (total, counter) = (self.total(), self.counter);
            let src = &self.sources[s];
            let digests = Digests::of(counter, ByteSize::from_bytes(total), self.chunk);
            let observed = Observation::of(&self.dedup, JOB, self.head, self.slots);
            let (last, retired) = self.carries.last(JOB);
            let dirty = last.as_ref().and_then(|l| src.dirty_since(l.version.seq));
            let staging = if whole {
                digests.n_chunks()
            } else {
                usize::MAX
            };
            let version = Some(src.version());
            let plan = plan(
                &observed,
                last.as_ref(),
                dirty.as_deref(),
                version,
                &digests,
                retired,
                staging,
            );
            // The units tile the state.
            let mut at = 0;
            for unit in &plan.units {
                assert!(unit.off == at && unit.len > 0, "{:?}", plan.units);
                at += unit.len;
            }
            assert_eq!(at, total);
            // The copied records and the sample fit the staging.
            let staged = plan.copied().count() + usize::from(plan.sample.is_some());
            assert!(staged <= staging, "{staged} > {staging}");
            if whole && plan.copied().count() == staging && plan.dirty < total {
                bump(&seen.budget_bound);
            }
            // A retired carry serves nothing.
            let served = plan.units.iter().filter_map(|u| u.served.map(|s| (u, s)));
            if last.as_ref().is_some_and(|l| l.retired != retired) {
                assert_eq!(served.clone().count(), 0, "a retired carry served");
            }
            // Every served record's home holds the source's bytes now, and
            // its address is theirs.
            for (unit, served) in served.clone() {
                let bytes = &src.bytes[unit.off as usize..(unit.off + unit.len) as usize];
                let home = served.hit.home;
                let record = (self.media.get(&(home.counter, home.logical_off)))
                    .expect("a served record's home is a record on the media");
                assert_eq!(record.len() as u64, home.len);
                let at = (served.hit.at - home.logical_off) as usize;
                assert!(
                    record[at..at + bytes.len()] == *bytes,
                    "unit {unit:?} serves stale bytes"
                );
                assert_eq!(served.address, content_address(bytes), "unit {unit:?}");
            }
            if served.count() > 0 {
                bump(&seen.served);
                if last.as_ref().is_some_and(|l| l.version == src.version()) {
                    bump(&seen.same_version);
                }
            }
            // The producer stages the sample, then the rest in order, and
            // files the blocks a chunk boundary cuts as they go by.
            let staged: Vec<usize> = plan.sample.into_iter().chain(plan.copied()).collect();
            let mut open = Vec::new();
            for &i in &staged {
                let unit = plan.units[i];
                let bytes = &src.bytes[unit.off as usize..(unit.off + unit.len) as usize];
                digests.file_cut(&mut open, unit.off, bytes);
            }
            let mut jobs = staged;
            jobs.sort_unstable_by_key(|_| rng.next_u64());
            self.copies.push(Copy {
                steps: plan.hand_off().collect(),
                plan,
                digests,
                counter,
                bytes: src.bytes.clone(),
                jobs,
                addresses: HashMap::new(),
            });
        }

        /// One effect of copy `c`, picked at random among those it may
        /// take now: its next hand-off step, one of its digest jobs (the
        /// sample's also gives its verdict), or, once those are done, its
        /// commit — or its failure, which cancels its digest jobs.
        fn effect(&mut self, c: usize, rng: &mut Rng, seen: &Seen) {
            let copy = &mut self.copies[c];
            let steps_done = copy.steps.is_empty();
            if !steps_done && (copy.jobs.is_empty() || rng.bool()) {
                let step = copy.steps.pop_front().expect("a step");
                self.carries.take(JOB, &copy.plan, step);
            } else if let Some(i) = copy.jobs.pop() {
                let unit = copy.plan.units[i];
                let bytes = &copy.bytes[unit.off as usize..(unit.off + unit.len) as usize];
                let address = copy.digests.file(unit.off, bytes);
                copy.addresses.insert(i, address);
                if let Some(served) = unit.served {
                    assert_eq!(address, served.address, "an honest log's sample fails");
                    if rng.chance(0.15) {
                        // A sample that fails, as a lost write would make it.
                        self.carries.retire();
                        bump(&seen.retired);
                    }
                }
            } else if rng.chance(0.9) {
                let copy = self.copies.swap_remove(c);
                self.commit(copy, rng);
            } else {
                self.copies.swap_remove(c);
            }
        }

        /// Commits `copy`, whose every value is filed: installs its homes if
        /// it is newer than the head, and puts its materialized records on
        /// the media.
        fn commit(&mut self, copy: Copy, rng: &mut Rng) {
            let Copy {
                plan,
                digests,
                counter,
                bytes,
                addresses,
                ..
            } = copy;
            let digest = state_digest(counter, &bytes);
            assert_eq!(
                digests.fold().0,
                digest,
                "the filed values fold to the state"
            );
            if self.head.is_some_and(|head| head > counter) {
                return;
            }
            self.head = Some(counter);
            let served = plan.units.iter().filter_map(|u| u.served);
            let depth = served.map(|s| s.hit.home.depth + 1).max().unwrap_or(0);
            let mut homes = Homes::new(&digests.blocks);
            // A copied record repeating an earlier one is homed at it.
            let mut firsts: HashMap<&[u8], DedupHome> = HashMap::new();
            for (i, unit) in plan.units.iter().enumerate() {
                let (off, len) = (unit.off, unit.len);
                let hit = match unit.served {
                    Some(served) => served.hit,
                    None => Hit::whole(
                        *firsts
                            .entry(&bytes[off as usize..][..len as usize])
                            .or_insert_with_key(|record| {
                                self.media.insert((counter, off), record.to_vec());
                                let (digest, lz) = (addresses[&i], rng.chance(0.25));
                                let (slot, logical_off) = (0, off);
                                DedupHome {
                                    counter,
                                    slot,
                                    logical_off,
                                    len,
                                    digest,
                                    lz,
                                    depth,
                                }
                            }),
                    ),
                };
                homes.home(off, hit);
            }
            self.dedup.install(JOB, counter, &homes.installable());
            self.committed.push(bytes);
        }
    }

    /// One history: updates dense, sparse, in every chunk's middle and
    /// repeating a chunk; copies of the job's GPU, several of one version,
    /// staged whole or pipelined, and of a foreign one; restores; and each
    /// copy's effects taken in a seeded order.
    fn history(rng: &mut Rng, seen: &Seen) {
        let blocks = rng.range(1..5);
        let chunk = if rng.chance(0.1) {
            6144
        } else {
            blocks * BLOCK
        };
        let n = rng.range(3..10);
        let total = n * chunk
            - if rng.chance(0.3) {
                rng.range(1..BLOCK)
            } else {
                0
            };
        let sources = [Source::new(1, total, rng), Source::new(2, total, rng)];
        let slots = [3, 4, 9][rng.range(0..3) as usize];
        let mut model = Model {
            sources,
            chunk,
            slots,
            carries: Carries::default(),
            dedup: DedupIndex::default(),
            head: None,
            counter: 0,
            media: HashMap::new(),
            committed: Vec::new(),
            copies: Vec::new(),
        };
        for _ in 0..100 {
            let gpu = &mut model.sources[0];
            match rng.range(0..40) {
                0 => gpu.write(vec![(0, total)], rng),
                1..=3 => {
                    let ranges = (0..rng.range(1..4)).map(|_| {
                        let off = rng.range(0..total);
                        (off, rng.range(1..2 * BLOCK).min(total - off))
                    });
                    gpu.write(ranges.collect(), rng);
                }
                4 => {
                    let middles = (0..total / chunk).map(|i| (i * chunk + chunk / 2, 1));
                    gpu.write(middles.collect(), rng);
                }
                5 if n > 2 => {
                    let (from, to) = (rng.range(0..n - 1), rng.range(0..n - 1));
                    let (from, to) = ((from * chunk) as usize, to * chunk);
                    let record = gpu.bytes[from..from + chunk as usize].to_vec();
                    gpu.bytes[to as usize..(to + chunk) as usize].copy_from_slice(&record);
                    gpu.write(vec![(to, 0)], rng);
                    gpu.log.back_mut().expect("just logged").1 = vec![(to, chunk)];
                }
                6 if !model.committed.is_empty() => {
                    let k = rng.range(0..model.committed.len() as u64) as usize;
                    gpu.restore(&model.committed[k]);
                    bump(&seen.restored);
                }
                7 => model.plan(1, rng.bool(), rng, seen),
                8..=15 => model.plan(0, rng.bool(), rng, seen),
                _ if !model.copies.is_empty() => {
                    let c = rng.range(0..model.copies.len() as u64) as usize;
                    model.effect(c, rng, seen);
                }
                _ => {}
            }
        }
        while !model.copies.is_empty() {
            let c = rng.range(0..model.copies.len() as u64) as usize;
            model.effect(c, rng, seen);
        }
    }

    #[test]
    fn prop_every_plan_serves_the_sources_bytes_and_folds_to_its_state() {
        let seen = Seen::default();
        check(DEFAULT_CASES, |rng| history(rng, &seen));
        let counts = [
            &seen.served,
            &seen.same_version,
            &seen.budget_bound,
            &seen.retired,
            &seen.restored,
        ];
        let counts = counts.map(Cell::get);
        assert!(counts.iter().all(|&n| n > 0), "unreached cases: {counts:?}");
    }
}
