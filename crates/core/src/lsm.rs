//! Live ingest: an LSM-shaped mutable engine over the frozen-dataset
//! machinery.
//!
//! Every other backend in this workspace is prepared once from an
//! immutable [`Dataset`] — ideal for benchmark replay, useless for a
//! service that must accept writes. [`LiveEngine`] composes the two
//! results this repository already established into a mutable engine:
//!
//! * the paper's own headline — *flat scans are fast on small sets* —
//!   makes an unsorted append-only **memtable** the natural write
//!   buffer ([`simsearch_scan::flat_search_where`], a V1-style scan
//!   that masks tombstoned slots);
//! * the V7 sorted-prefix scan is the best frozen-set reader, so
//!   flushed records live in immutable **segments**, each a prepared
//!   [`SortedView`] searched by [`simsearch_scan::v7_search_view`];
//! * reads union memtable-first results across segments with the
//!   sharded executor's k-way [`merge_match_sets`] over disjoint,
//!   strictly-increasing global-id tables ([`remap_to_global`]).
//!
//! # Id space and tombstones
//!
//! Every insert is assigned the next global [`RecordId`], monotonically
//! and never reused; at any instant each live id is physically present
//! in exactly one place (the memtable or one segment), which is what
//! makes the k-way merge's disjointness invariant hold. Deletes are
//! tombstones: the id goes into a set that masks memtable slots before
//! the kernel runs and filters segment results after remapping.
//! Tombstones always refer to physically present records — compaction
//! is the only thing that makes a record vanish, and it removes the
//! tombstones it elides in the same atomic swap.
//!
//! # Snapshot semantics
//!
//! All mutable state sits behind one `RwLock`. A read holds the read
//! lock across the whole memtable-scan + segment-fan-out + merge, so
//! every query sees one consistent `(memtable, segments, tombstones)`
//! snapshot — never a partial union, never an id in two places.
//! Writes (insert/delete) are short write-lock critical sections.
//!
//! # Compaction
//!
//! [`LiveEngine::maybe_compact`] runs one step: **memtable → segment**
//! when the memtable reaches [`LsmConfig::memtable_cap`], otherwise the
//! first two segments sharing a size tier (⌊log₂ len⌋) merge
//! **segment × segment**. Both elide tombstoned records. The expensive
//! part — sorting a new [`SortedView`] — happens *outside* the lock on
//! cloned data; the installed swap is a write-lock critical section, so
//! concurrent readers see either the old or the new segment set,
//! atomically. A `Mutex` serialises compactors, which is what makes the
//! plan→build→swap sequence sound: writers may append to the memtable
//! or add tombstones while a compaction builds, but nothing else can
//! remove the frozen prefix or restructure the segment list under it.

use crate::backend::{Backend, BackendDiag};
use crate::sharded::{merge_match_sets, remap_to_global};
use simsearch_data::{Dataset, MatchSet, RecordId, SortedView};
use simsearch_scan::{flat_search_where, v7_search_view, v8_search_view};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// The mutation seam: what a serving layer (or a sharded composite)
/// needs from an engine that accepts writes, over and above [`Backend`].
///
/// [`LiveEngine`] is the primitive implementation; a
/// [`crate::sharded::ShardedBackend`] built with live shards implements
/// it too, routing each mutation to the owning shard. Consumers hold an
/// `Arc<dyn MutableBackend>` and stay agnostic of the shard count.
pub trait MutableBackend: Backend {
    /// Appends one record and returns its global id. Ids are assigned
    /// from one dense, monotone, never-reused space — across every
    /// shard when the implementation is a composite.
    fn insert(&self, record: &[u8]) -> RecordId;

    /// Tombstones `id`. Returns `true` when the id named a live record,
    /// `false` when it was absent or already deleted.
    fn delete(&self, id: RecordId) -> bool;

    /// Runs one compaction step somewhere if one is due; returns
    /// whether any work happened. Composites try each shard in turn —
    /// shards compact independently, there is no global compaction
    /// lock.
    fn maybe_compact(&self) -> bool;

    /// Runs [`MutableBackend::maybe_compact`] until no step is due
    /// anywhere; returns the number of steps taken.
    fn compact_to_quiescence(&self) -> u64 {
        let mut steps = 0;
        while MutableBackend::maybe_compact(self) {
            steps += 1;
        }
        steps
    }

    /// Aggregate LSM statistics (summed across shards for composites).
    fn live_stats(&self) -> LiveStats;

    /// Per-shard LSM statistics, in shard order; `None` for unsharded
    /// engines. When `Some`, the entries sum field-wise to
    /// [`MutableBackend::live_stats`].
    fn live_shard_stats(&self) -> Option<Vec<LiveStats>> {
        None
    }
}

/// Tuning for [`LiveEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LsmConfig {
    /// Memtable flush threshold: [`LiveEngine::maybe_compact`] freezes
    /// the memtable into a segment once it holds this many slots
    /// (live or tombstoned).
    pub memtable_cap: usize,
}

impl Default for LsmConfig {
    fn default() -> Self {
        Self { memtable_cap: 1024 }
    }
}

/// The kernel a live engine's segments answer with. Both arms read the
/// same prepared [`SortedView`] and return byte-identical results (the
/// `v8_oracle` gate), so switching is a pure performance decision —
/// which is what lets [`LiveEngine::replan`] re-pick the arm from the
/// engine's own gauges while queries are in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentArm {
    /// V7 LCP-resumable row-stack DP — the default; its banded
    /// early-abort wins short strings and low thresholds.
    Sorted,
    /// V8 Myers bit-parallel sweep — per-word cost independent of `k`;
    /// wins once segments dominate and records are long.
    BitParallel,
}

impl SegmentArm {
    /// Stable short name (`STATS`, `explain`).
    pub fn name(self) -> &'static str {
        match self {
            SegmentArm::Sorted => "scan-sorted",
            SegmentArm::BitParallel => "scan-bitparallel",
        }
    }

    fn from_u8(v: u8) -> Self {
        if v == 1 {
            SegmentArm::BitParallel
        } else {
            SegmentArm::Sorted
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            SegmentArm::Sorted => 0,
            SegmentArm::BitParallel => 1,
        }
    }
}

/// One immutable sorted segment: a prepared V7 [`SortedView`] plus the
/// strictly-increasing table mapping its local ids to global ids.
struct Segment {
    /// The segment's records, local ids `0..n` in ascending global-id
    /// order (so `globals` is strictly increasing and remapping a local
    /// result preserves id order — the merge invariant).
    data: Dataset,
    /// The prepared sorted view over `data`.
    view: SortedView,
    /// Local id `i` ↔ global id `globals[i]`.
    globals: Vec<RecordId>,
}

impl Segment {
    /// Builds a segment from records already in ascending global-id
    /// order. Returns `None` for the empty set (no empty segments are
    /// ever installed).
    fn build(data: Dataset, globals: Vec<RecordId>) -> Option<Arc<Self>> {
        debug_assert_eq!(data.len(), globals.len());
        debug_assert!(globals.windows(2).all(|w| w[0] < w[1]));
        if globals.is_empty() {
            return None;
        }
        let view = SortedView::build(&data);
        Some(Arc::new(Self {
            data,
            view,
            globals,
        }))
    }

    /// Size tier for segment×segment compaction: ⌊log₂ len⌋.
    fn tier(&self) -> u32 {
        usize::BITS - 1 - self.globals.len().leading_zeros()
    }

    /// Search with the engine's current arm, remapped to global ids
    /// (tombstones are the caller's concern — they filter *after*
    /// remapping).
    fn search(&self, arm: SegmentArm, query: &[u8], k: u32) -> (MatchSet, u64) {
        let (local, cells) = match arm {
            SegmentArm::Sorted => v7_search_view(&self.view, query, k),
            SegmentArm::BitParallel => v8_search_view(&self.view, query, k),
        };
        (remap_to_global(&local, &self.globals), cells)
    }
}

/// The mutable state, swapped atomically under one `RwLock`.
struct LiveInner {
    /// Append-only memtable arena, insertion order.
    mem: Dataset,
    /// Global id of each memtable slot (strictly increasing: slots are
    /// appended with fresh ids and only compaction removes a prefix).
    mem_ids: Vec<RecordId>,
    /// Deleted ids still physically present in the memtable or a
    /// segment. Invariant: every member is present somewhere.
    tombstones: HashSet<RecordId>,
    /// Immutable segments, each over a disjoint slice of the id space.
    segments: Vec<Arc<Segment>>,
    /// Next global id to assign.
    next_id: RecordId,
}

/// A point-in-time summary of the engine, for `STATS` and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LiveStats {
    /// Memtable slots (live + tombstoned-but-unflushed).
    pub memtable_len: usize,
    /// Number of immutable segments.
    pub segments: usize,
    /// Records physically held by segments (including tombstoned ones
    /// not yet elided by compaction).
    pub segment_records: usize,
    /// Tombstones not yet elided.
    pub tombstones: usize,
    /// Logically live records (visible to queries).
    pub live_records: usize,
    /// Total inserts accepted.
    pub inserts: u64,
    /// Total deletes that hit a live record.
    pub deletes: u64,
    /// Compaction steps completed (flushes + merges).
    pub compactions: u64,
}

impl LiveStats {
    /// Field-wise accumulation, for summing per-shard stats into a
    /// composite aggregate.
    pub fn accumulate(&mut self, other: &LiveStats) {
        self.memtable_len += other.memtable_len;
        self.segments += other.segments;
        self.segment_records += other.segment_records;
        self.tombstones += other.tombstones;
        self.live_records += other.live_records;
        self.inserts += other.inserts;
        self.deletes += other.deletes;
        self.compactions += other.compactions;
    }
}

/// The live-ingest engine: memtable + tombstones in front of immutable
/// sorted segments. Implements [`Backend`], so it slots into the same
/// serving/search seam as every frozen engine; the mutation surface
/// ([`LiveEngine::insert`], [`LiveEngine::delete`],
/// [`LiveEngine::maybe_compact`]) is its own.
pub struct LiveEngine {
    inner: RwLock<LiveInner>,
    cfg: LsmConfig,
    /// Serialises compaction's plan→build→swap sequence.
    compact_gate: Mutex<()>,
    /// The segment kernel ([`SegmentArm`] as a byte), swapped by
    /// [`LiveEngine::replan`]; reads are one relaxed load per query.
    plan: AtomicU8,
    /// Arm swaps since build.
    plan_epoch: AtomicU64,
    compactions: AtomicU64,
    inserts: AtomicU64,
    deletes: AtomicU64,
}

impl LiveEngine {
    /// An empty engine.
    pub fn new(cfg: LsmConfig) -> Self {
        Self {
            inner: RwLock::new(LiveInner {
                mem: Dataset::new(),
                mem_ids: Vec::new(),
                tombstones: HashSet::new(),
                segments: Vec::new(),
                next_id: 0,
            }),
            cfg,
            compact_gate: Mutex::new(()),
            plan: AtomicU8::new(SegmentArm::Sorted.as_u8()),
            plan_epoch: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            deletes: AtomicU64::new(0),
        }
    }

    /// Seeds an engine from a frozen dataset: record `i` gets global id
    /// `i`, and the whole load is flushed into one prepared segment so
    /// serving starts on the V7 path rather than a giant memtable.
    pub fn from_dataset(dataset: &Dataset, cfg: LsmConfig) -> Self {
        let globals: Vec<RecordId> = (0..dataset.len() as u32).collect();
        let next_id = dataset.len() as u32;
        Self::seeded(dataset.clone(), globals, next_id, cfg)
    }

    /// Seeds an engine holding an arbitrary slice of a larger id space:
    /// `data` record `i` gets global id `globals[i]` (strictly
    /// increasing), and fresh inserts continue from `next_id`. This is
    /// how a sharded composite loads each shard with its partition of
    /// the seed dataset while keeping one global id space.
    pub fn seeded(
        data: Dataset,
        globals: Vec<RecordId>,
        next_id: RecordId,
        cfg: LsmConfig,
    ) -> Self {
        assert_eq!(data.len(), globals.len(), "one global id per record");
        assert!(
            globals.windows(2).all(|w| w[0] < w[1]),
            "seed globals must be strictly increasing"
        );
        assert!(
            globals.last().is_none_or(|&g| g < next_id),
            "next_id must be past every seeded id"
        );
        let seeded = globals.len() as u64;
        let engine = Self::new(cfg);
        {
            let mut inner = engine.inner.write().expect("lsm lock");
            inner.next_id = next_id;
            if let Some(segment) = Segment::build(data, globals) {
                inner.segments.push(segment);
            }
        }
        engine.inserts.store(seeded, Ordering::Relaxed);
        engine
    }

    /// The engine's configuration.
    pub fn config(&self) -> LsmConfig {
        self.cfg
    }

    /// Appends one record to the memtable and returns its global id.
    /// Ids are assigned monotonically and never reused.
    pub fn insert(&self, record: &[u8]) -> RecordId {
        let mut inner = self.inner.write().expect("lsm lock");
        let id = inner.next_id;
        Self::append_locked(&mut inner, &self.inserts, record, id);
        id
    }

    /// Appends one record under an externally assigned global id, for
    /// composites that allocate ids centrally and route records to
    /// shards. `id` must be at least this engine's next id (gaps are
    /// fine — they belong to other shards); the memtable id table stays
    /// strictly increasing, so every read-path invariant is preserved.
    pub fn insert_with_id(&self, record: &[u8], id: RecordId) {
        let mut inner = self.inner.write().expect("lsm lock");
        assert!(
            id >= inner.next_id,
            "externally assigned id {id} reuses this shard's id space (next={})",
            inner.next_id
        );
        Self::append_locked(&mut inner, &self.inserts, record, id);
    }

    fn append_locked(inner: &mut LiveInner, inserts: &AtomicU64, record: &[u8], id: RecordId) {
        assert!(id < u32::MAX, "global id space exhausted");
        inner.next_id = id + 1;
        inner.mem.push(record);
        inner.mem_ids.push(id);
        inserts.fetch_add(1, Ordering::Relaxed);
    }

    /// Tombstones `id`. Returns `true` when the id named a live record,
    /// `false` when it was absent or already deleted.
    pub fn delete(&self, id: RecordId) -> bool {
        let mut inner = self.inner.write().expect("lsm lock");
        if inner.tombstones.contains(&id) {
            return false;
        }
        let present = inner.mem_ids.binary_search(&id).is_ok()
            || inner
                .segments
                .iter()
                .any(|s| s.globals.binary_search(&id).is_ok());
        if !present {
            return false;
        }
        inner.tombstones.insert(id);
        self.deletes.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// One consistent threshold search across the memtable and every
    /// segment: flat scan over live memtable slots, V7 over each
    /// segment, tombstone filtering, then the k-way merge. The read
    /// lock is held across the whole union, so the result reflects one
    /// atomic `(memtable, segments, tombstones)` snapshot.
    fn search_snapshot(&self, query: &[u8], k: u32) -> (MatchSet, u64) {
        let arm = self.segment_arm();
        let inner = self.inner.read().expect("lsm lock");
        let mut parts = Vec::with_capacity(inner.segments.len() + 1);
        // Memtable first: tombstones mask slots before the kernel runs.
        let mem_local = flat_search_where(&inner.mem, query, k, |slot| {
            !inner.tombstones.contains(&inner.mem_ids[slot as usize])
        });
        parts.push(remap_to_global(&mem_local, &inner.mem_ids));
        let mut cells = 0u64;
        for segment in &inner.segments {
            let (remapped, segment_cells) = segment.search(arm, query, k);
            cells += segment_cells;
            // Segments hold tombstoned records until compaction elides
            // them; filter after remapping to global ids.
            parts.push(MatchSet::from_unsorted(
                remapped
                    .iter()
                    .filter(|m| !inner.tombstones.contains(&m.id))
                    .copied()
                    .collect(),
            ));
        }
        (merge_match_sets(&parts), cells)
    }

    /// A point-in-time summary (one read-lock acquisition).
    pub fn stats(&self) -> LiveStats {
        let inner = self.inner.read().expect("lsm lock");
        let segment_records: usize = inner.segments.iter().map(|s| s.globals.len()).sum();
        LiveStats {
            memtable_len: inner.mem_ids.len(),
            segments: inner.segments.len(),
            segment_records,
            tombstones: inner.tombstones.len(),
            // Tombstones only ever name present records, so live =
            // physically present − tombstoned.
            live_records: inner.mem_ids.len() + segment_records - inner.tombstones.len(),
            inserts: self.inserts.load(Ordering::Relaxed),
            deletes: self.deletes.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
        }
    }

    /// Runs one compaction step if one is due; returns whether any work
    /// happened. Flush has priority (a full memtable is the latency
    /// hazard); otherwise the first two segments sharing a size tier
    /// merge. Call in a loop to compact to quiescence.
    ///
    /// The heavy work — sorting the new segment — runs without holding
    /// the engine lock; only the final swap takes the write lock, so
    /// concurrent readers always see either the old or the new segment
    /// set in full.
    pub fn maybe_compact(&self) -> bool {
        let _gate = self.compact_gate.lock().expect("compaction gate");

        // Plan: snapshot what to compact under a read lock.
        enum Plan {
            Flush {
                frozen: Dataset,
                ids: Vec<RecordId>,
                tombs: HashSet<RecordId>,
            },
            Merge {
                a: Arc<Segment>,
                b: Arc<Segment>,
                tombs: HashSet<RecordId>,
            },
        }
        let plan = {
            let inner = self.inner.read().expect("lsm lock");
            if !inner.mem_ids.is_empty() && inner.mem_ids.len() >= self.cfg.memtable_cap {
                Plan::Flush {
                    frozen: inner.mem.clone(),
                    ids: inner.mem_ids.clone(),
                    tombs: inner.tombstones.clone(),
                }
            } else {
                let mut pair = None;
                'outer: for i in 0..inner.segments.len() {
                    for j in i + 1..inner.segments.len() {
                        if inner.segments[i].tier() == inner.segments[j].tier() {
                            pair = Some((i, j));
                            break 'outer;
                        }
                    }
                }
                match pair {
                    Some((i, j)) => Plan::Merge {
                        a: Arc::clone(&inner.segments[i]),
                        b: Arc::clone(&inner.segments[j]),
                        tombs: inner.tombstones.clone(),
                    },
                    None => return false,
                }
            }
        };

        // Build the replacement segment lock-free, then swap.
        match plan {
            Plan::Flush {
                frozen,
                ids,
                tombs,
            } => {
                let frozen_len = ids.len();
                let mut data = Dataset::with_capacity(frozen.len(), frozen.arena_len());
                let mut globals = Vec::with_capacity(frozen.len());
                let mut elided: Vec<RecordId> = Vec::new();
                // Memtable slots are already in ascending global-id
                // order; tombstoned slots are elided here and their
                // tombstones dropped at swap time.
                for (slot, id) in ids.iter().enumerate() {
                    if tombs.contains(id) {
                        elided.push(*id);
                    } else {
                        data.push(frozen.get(slot as u32));
                        globals.push(*id);
                    }
                }
                let segment = Segment::build(data, globals);

                let mut inner = self.inner.write().expect("lsm lock");
                // The compaction gate guarantees the frozen prefix is
                // still the memtable's prefix: writers only append.
                debug_assert!(inner.mem_ids.len() >= frozen_len);
                debug_assert_eq!(&inner.mem_ids[..frozen_len], &ids[..]);
                let rest: Dataset = (frozen_len..inner.mem_ids.len())
                    .map(|slot| inner.mem.get(slot as u32).to_vec())
                    .collect();
                inner.mem = rest;
                inner.mem_ids.drain(..frozen_len);
                if let Some(segment) = segment {
                    inner.segments.push(segment);
                }
                for id in &elided {
                    inner.tombstones.remove(id);
                }
                self.compactions.fetch_add(1, Ordering::Relaxed);
                true
            }
            Plan::Merge { a, b, tombs } => {
                // Two-pointer merge of two strictly-increasing id
                // tables (disjoint by the one-place-per-id invariant),
                // eliding tombstoned records.
                let mut data =
                    Dataset::with_capacity(a.data.len() + b.data.len(), a.data.arena_len() + b.data.arena_len());
                let mut globals = Vec::with_capacity(a.globals.len() + b.globals.len());
                let mut elided: Vec<RecordId> = Vec::new();
                let (mut i, mut j) = (0usize, 0usize);
                loop {
                    let take_a = match (a.globals.get(i), b.globals.get(j)) {
                        (Some(x), Some(y)) => x < y,
                        (Some(_), None) => true,
                        (None, Some(_)) => false,
                        (None, None) => break,
                    };
                    let (seg, pos) = if take_a { (&*a, i) } else { (&*b, j) };
                    let id = seg.globals[pos];
                    if tombs.contains(&id) {
                        elided.push(id);
                    } else {
                        data.push(seg.data.get(pos as u32));
                        globals.push(id);
                    }
                    if take_a {
                        i += 1;
                    } else {
                        j += 1;
                    }
                }
                let merged = Segment::build(data, globals);

                let mut inner = self.inner.write().expect("lsm lock");
                // Only compaction restructures the segment list, and
                // the gate serialises compactions — both inputs must
                // still be installed.
                let pos_a = inner
                    .segments
                    .iter()
                    .position(|s| Arc::ptr_eq(s, &a))
                    .expect("merge input a vanished");
                inner.segments.remove(pos_a);
                let pos_b = inner
                    .segments
                    .iter()
                    .position(|s| Arc::ptr_eq(s, &b))
                    .expect("merge input b vanished");
                inner.segments.remove(pos_b);
                if let Some(merged) = merged {
                    inner.segments.push(merged);
                }
                for id in &elided {
                    inner.tombstones.remove(id);
                }
                self.compactions.fetch_add(1, Ordering::Relaxed);
                true
            }
        }
    }

    /// Runs [`LiveEngine::maybe_compact`] until no step is due.
    pub fn compact_to_quiescence(&self) -> u64 {
        let mut steps = 0;
        while self.maybe_compact() {
            steps += 1;
        }
        steps
    }

    /// The kernel segments currently answer with.
    pub fn segment_arm(&self) -> SegmentArm {
        SegmentArm::from_u8(self.plan.load(Ordering::Relaxed))
    }

    /// Arm swaps since build (0 until the first effective replan).
    pub fn plan_epoch(&self) -> u64 {
        self.plan_epoch.load(Ordering::Relaxed)
    }

    /// One self-tuning tick against this engine's *own* gauges: re-picks
    /// the segment kernel from the current memtable/segment shape and
    /// swaps it atomically (a relaxed byte store — in-flight queries
    /// finish on the arm they loaded). Returns whether the arm changed.
    ///
    /// The rule mirrors the planner's V7-vs-V8 crossover, scoped to one
    /// shard's gauges: the bit-parallel sweep is preferred only when
    /// the segments dominate the read path (a freshly-flushed or
    /// compacted shard) *and* the per-word sweep undercuts the banded
    /// DP at the shard's own mean record length — a memtable-heavy
    /// neighbour keeps V7 under its flat-scan-dominated mix. Deletes
    /// shift `live_records` and compactions shift the segment/memtable
    /// split, so the decision genuinely drifts with churn.
    pub fn replan(&self) -> bool {
        let (memtable_len, segment_records, segment_bytes) = {
            let inner = self.inner.read().expect("lsm lock");
            let records: usize = inner.segments.iter().map(|s| s.globals.len()).sum();
            let bytes: usize = inner.segments.iter().map(|s| s.data.arena_len()).sum();
            (inner.mem_ids.len(), records, bytes)
        };
        let next = Self::preferred_arm(memtable_len, segment_records, segment_bytes);
        let previous = self.plan.swap(next.as_u8(), Ordering::Relaxed);
        let changed = previous != next.as_u8();
        if changed {
            self.plan_epoch.fetch_add(1, Ordering::Relaxed);
        }
        changed
    }

    /// The deterministic arm rule behind [`LiveEngine::replan`] —
    /// a pure function of the gauges, so tests can pin the crossover.
    fn preferred_arm(
        memtable_len: usize,
        segment_records: usize,
        segment_bytes: usize,
    ) -> SegmentArm {
        // Segments must dominate the read path before a segment-kernel
        // switch can pay for itself (hysteresis against flapping on a
        // half-filled memtable).
        if segment_records == 0 || segment_records < 4 * memtable_len {
            return SegmentArm::Sorted;
        }
        // The Myers sweep advances 64-cell words; it amortises its
        // block setup only once a typical record spans at least one
        // full word — exactly the long-string regime where the banded
        // DP's row count grows with `k` (the V8 figures: 4.3× on
        // 104-char DNA reads, a wash on 10-char city names).
        let mean = segment_bytes / segment_records;
        if mean >= 64 {
            SegmentArm::BitParallel
        } else {
            SegmentArm::Sorted
        }
    }
}

impl Backend for LiveEngine {
    fn name(&self) -> String {
        format!("live[lsm/cap={}]", self.cfg.memtable_cap)
    }

    fn search(&self, query: &[u8], k: u32) -> MatchSet {
        self.search_snapshot(query, k).0
    }

    fn search_counting(&self, query: &[u8], k: u32) -> (MatchSet, u64) {
        self.search_snapshot(query, k)
    }

    fn diag(&self) -> BackendDiag {
        let stats = self.stats();
        let inner = self.inner.read().expect("lsm lock");
        let bytes: usize = inner.mem.arena_len()
            + inner
                .segments
                .iter()
                .map(|s| s.data.arena_len() * 2 + s.globals.len() * 4)
                .sum::<usize>();
        BackendDiag {
            name: self.name(),
            structure: Some((stats.segments, bytes)),
            filters: vec!["length", "tombstone"],
            plan: None,
        }
    }

    fn replan_tick(&self) -> Option<u64> {
        Some(u64::from(self.replan()))
    }

    fn plan_epoch_total(&self) -> Option<u64> {
        Some(self.plan_epoch())
    }

    fn as_mutable(&self) -> Option<&dyn MutableBackend> {
        Some(self)
    }
}

impl MutableBackend for LiveEngine {
    fn insert(&self, record: &[u8]) -> RecordId {
        LiveEngine::insert(self, record)
    }

    fn delete(&self, id: RecordId) -> bool {
        LiveEngine::delete(self, id)
    }

    fn maybe_compact(&self) -> bool {
        LiveEngine::maybe_compact(self)
    }

    fn compact_to_quiescence(&self) -> u64 {
        LiveEngine::compact_to_quiescence(self)
    }

    fn live_stats(&self) -> LiveStats {
        self.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{build_backend, EngineKind};
    use simsearch_data::Match;
    use simsearch_scan::SeqVariant;

    /// The oracle: a fresh V1 engine over the surviving records, its
    /// local ids remapped back through the survivor table.
    fn oracle(survivors: &[(RecordId, Vec<u8>)], query: &[u8], k: u32) -> MatchSet {
        let data = Dataset::from_records(survivors.iter().map(|(_, r)| r.as_slice()));
        let globals: Vec<RecordId> = survivors.iter().map(|(id, _)| *id).collect();
        let v1 = build_backend(&data, EngineKind::Scan(SeqVariant::V1Base));
        remap_to_global(&v1.search(query, k), &globals)
    }

    #[test]
    fn empty_engine_answers_empty() {
        let engine = LiveEngine::new(LsmConfig::default());
        assert_eq!(engine.search(b"anything", 3), MatchSet::default());
        assert!(!engine.maybe_compact());
        assert_eq!(engine.stats().live_records, 0);
    }

    #[test]
    fn inserts_become_visible_and_ids_are_monotone() {
        let engine = LiveEngine::new(LsmConfig::default());
        let a = engine.insert(b"Berlin");
        let b = engine.insert(b"Bern");
        assert_eq!((a, b), (0, 1));
        let got = engine.search(b"Berlin", 2);
        assert_eq!(got.ids(), vec![0, 1]);
    }

    #[test]
    fn deletes_mask_memtable_and_segment_records() {
        let engine = LiveEngine::new(LsmConfig { memtable_cap: 2 });
        engine.insert(b"Berlin");
        engine.insert(b"Bern");
        assert!(engine.maybe_compact(), "flush at cap");
        engine.insert(b"Bonn");
        assert!(engine.delete(0), "segment record");
        assert!(engine.delete(2), "memtable record");
        assert!(!engine.delete(0), "double delete");
        assert!(!engine.delete(99), "absent id");
        let got = engine.search(b"Bern", 2);
        assert_eq!(got.ids(), vec![1]);
    }

    #[test]
    fn seeded_engine_matches_its_source_dataset() {
        let data = Dataset::from_records(["Berlin", "Bern", "", "Ulm", "Bonn"]);
        let engine = LiveEngine::from_dataset(&data, LsmConfig::default());
        let v1 = build_backend(&data, EngineKind::Scan(SeqVariant::V1Base));
        for q in ["Bern", "", "Urm"] {
            for k in 0..4 {
                assert_eq!(
                    engine.search(q.as_bytes(), k),
                    v1.search(q.as_bytes(), k),
                    "q={q} k={k}"
                );
            }
        }
        assert_eq!(engine.stats().segments, 1);
        assert_eq!(engine.stats().memtable_len, 0);
    }

    #[test]
    fn churn_with_compaction_matches_the_v1_rebuild_oracle() {
        let engine = LiveEngine::new(LsmConfig { memtable_cap: 3 });
        let mut survivors: Vec<(RecordId, Vec<u8>)> = Vec::new();
        let words: &[&[u8]] = &[
            b"Berlin", b"Bern", b"Bonn", b"Ulm", b"", b"Berlingen", b"B", b"Ulmen", b"Bermen",
        ];
        for (round, w) in words.iter().enumerate() {
            let id = engine.insert(w);
            survivors.push((id, w.to_vec()));
            if round % 3 == 2 {
                let victim = survivors.remove(round % survivors.len()).0;
                assert!(engine.delete(victim));
            }
            engine.maybe_compact();
            for q in ["Bern", "Ulm", ""] {
                for k in 0..3 {
                    assert_eq!(
                        engine.search(q.as_bytes(), k),
                        oracle(&survivors, q.as_bytes(), k),
                        "round {round} q={q} k={k}"
                    );
                }
            }
        }
        engine.compact_to_quiescence();
        let stats = engine.stats();
        assert!(stats.compactions > 0);
        assert_eq!(stats.live_records, survivors.len());
        for q in ["Bern", "Ulm", ""] {
            assert_eq!(engine.search(q.as_bytes(), 2), oracle(&survivors, q.as_bytes(), 2));
        }
    }

    #[test]
    fn tombstones_are_elided_by_both_compaction_kinds() {
        let engine = LiveEngine::new(LsmConfig { memtable_cap: 2 });
        engine.insert(b"aa");
        engine.insert(b"ab");
        assert!(engine.delete(1));
        assert!(engine.maybe_compact(), "flush elides the memtable tombstone");
        assert_eq!(engine.stats().tombstones, 0);
        assert_eq!(engine.stats().segment_records, 1);

        engine.insert(b"ba");
        engine.insert(b"bb");
        assert!(engine.delete(2));
        assert!(engine.maybe_compact(), "second flush");
        assert_eq!(engine.stats().segments, 2, "two same-tier segments");
        assert!(engine.delete(0), "tombstone a segment record");
        assert!(engine.maybe_compact(), "tiered merge elides it");
        let stats = engine.stats();
        assert_eq!(stats.segments, 1);
        assert_eq!(stats.tombstones, 0);
        assert_eq!(stats.segment_records, 1);
        assert_eq!(engine.search(b"bb", 1).ids(), vec![3]);
    }

    #[test]
    fn replan_prefers_bitparallel_only_when_segments_dominate_long_records() {
        // Long DNA-like records, all flushed: segments dominate and the
        // per-word sweep undercuts the banded DP — the arm flips once
        // (epoch 1) and answers stay oracle-identical.
        let long: Vec<Vec<u8>> = (0..6)
            .map(|i| {
                (0..200u32)
                    .map(|j| b"ACGT"[((i * 7 + j) % 4) as usize])
                    .collect()
            })
            .collect();
        let engine = LiveEngine::new(LsmConfig { memtable_cap: 6 });
        let mut survivors = Vec::new();
        for r in &long {
            let id = engine.insert(r);
            survivors.push((id, r.clone()));
        }
        assert!(engine.maybe_compact(), "flush all six");
        assert_eq!(engine.segment_arm(), SegmentArm::Sorted, "default arm");
        assert!(engine.replan(), "flushed long records flip to V8");
        assert_eq!(engine.segment_arm(), SegmentArm::BitParallel);
        assert_eq!(engine.plan_epoch(), 1);
        assert!(!engine.replan(), "stable gauges, no second flip");
        let q = &long[0][..150];
        for k in [0, 4, 16] {
            assert_eq!(engine.search(q, k), oracle(&survivors, q, k), "k={k}");
        }

        // A memtable-heavy engine with the same records stays on V7.
        let heavy = LiveEngine::new(LsmConfig { memtable_cap: 1024 });
        for r in &long {
            heavy.insert(r);
        }
        assert!(!heavy.replan(), "memtable-heavy shard keeps the flat mix");
        assert_eq!(heavy.segment_arm(), SegmentArm::Sorted);

        // Short city-like records never flip even when fully flushed.
        let city = LiveEngine::new(LsmConfig { memtable_cap: 4 });
        for w in [&b"Berlin"[..], b"Bern", b"Bonn", b"Ulm"] {
            city.insert(w);
        }
        assert!(city.maybe_compact());
        assert!(!city.replan(), "short records stay on the banded DP");
        assert_eq!(city.plan_epoch(), 0);
    }

    #[test]
    fn topk_agrees_with_a_v1_rebuild() {
        let engine = LiveEngine::new(LsmConfig { memtable_cap: 2 });
        let mut survivors = Vec::new();
        for w in [&b"Berlin"[..], b"Bern", b"Bonn", b"Ulm", b"Ber"] {
            let id = engine.insert(w);
            survivors.push((id, w.to_vec()));
            engine.maybe_compact();
        }
        assert!(engine.delete(2));
        survivors.retain(|(id, _)| *id != 2);
        let data = Dataset::from_records(survivors.iter().map(|(_, r)| r.as_slice()));
        let globals: Vec<RecordId> = survivors.iter().map(|(id, _)| *id).collect();
        let v1 = build_backend(&data, EngineKind::Scan(SeqVariant::V1Base));
        for k in [1usize, 3, 10] {
            let (want_local, _) = v1.search_top_k_with(b"Bern", k, 16);
            let want: Vec<Match> = want_local
                .iter()
                .map(|m| Match::new(globals[m.id as usize], m.distance))
                .collect();
            let (got, _) = engine.search_top_k_with(b"Bern", k, 16);
            assert_eq!(got, want, "k={k}");
        }
    }
}
