//! Sharded execution: partition the dataset, search every shard, merge.
//!
//! The paper's scan-vs-index crossover (§3–§4) is a property of *one*
//! arena; production datasets outgrow one arena. This module partitions
//! a dataset into `S` shards ([`ShardBy::Len`] length bands or
//! [`ShardBy::Hash`] content hashing). Each frozen shard is the same
//! routing core that drives [`crate::AutoBackend`], over the shard's
//! own materialized records and calibrated against that shard's own
//! [`StatsSnapshot`](simsearch_data::StatsSnapshot); each live shard
//! is a [`LiveEngine`]. Queries fan out across shards via
//! `simsearch_parallel`, and the per-shard
//! [`MatchSet`]s are unioned with a k-way merge ([`merge_match_sets`])
//! after remapping shard-local ids back to global ids
//! ([`remap_to_global`]).
//!
//! Per-shard planners are the point: a shard of short city names and a
//! shard of long DNA reads route differently, which a single global
//! decision table cannot express. The partition invariant that makes
//! the merge cheap: every shard's global-id table is strictly
//! increasing, so a remapped shard-local result is already a sorted run
//! and the union is a classic k-way merge of disjoint sorted lists.

use crate::backend::{AutoBackend, Backend, BackendDiag, RoutingCore};
use crate::lsm::{LiveEngine, LiveStats, LsmConfig, MutableBackend};
use crate::planner::BackendChoice;
use simsearch_data::{Dataset, Match, MatchSet, RecordId, Workload};
use simsearch_parallel::{auto_strategy, run_queries, Strategy};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// How records are assigned to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShardBy {
    /// Contiguous length bands: records sorted by `(length, id)` and cut
    /// into `S` equal chunks, so each shard holds a narrow length range
    /// and its planner sees a genuinely different
    /// [`StatsSnapshot`](simsearch_data::StatsSnapshot).
    Len,
    /// FNV-1a content hash modulo `S`: statistically uniform shards with
    /// near-identical snapshots (the load-balancing choice).
    Hash,
}

impl ShardBy {
    /// The CLI spelling (`--shard-by len|hash`).
    pub fn name(self) -> &'static str {
        match self {
            ShardBy::Len => "len",
            ShardBy::Hash => "hash",
        }
    }

    /// Parses the CLI spelling.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "len" => Some(ShardBy::Len),
            "hash" => Some(ShardBy::Hash),
            _ => None,
        }
    }
}

/// FNV-1a, the workspace's deterministic content hash for partitioning.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The mutation router's shard assignment: a pure function of the
/// record bytes and the shard count (FNV-1a hash modulo `shards`), so
/// routing is stable across restarts and identical for the seed load
/// and every later insert. This is the routing contract the testkit
/// property suite pins down.
pub fn route_record(record: &[u8], shards: usize) -> usize {
    (fnv1a(record) % shards.max(1) as u64) as usize
}

/// Assigns every record of `dataset` to exactly one of `shards` shards.
///
/// Returns one id list per shard (possibly empty when `shards >
/// dataset.len()`). Invariants the merge relies on, property-tested in
/// `crates/testkit`: the lists are disjoint, cover every id, and each
/// is strictly increasing — so remapping a shard-local result through
/// its list preserves id order.
pub fn partition_ids(dataset: &Dataset, shards: usize, by: ShardBy) -> Vec<Vec<RecordId>> {
    let s = shards.max(1);
    let n = dataset.len();
    let mut out: Vec<Vec<RecordId>> = vec![Vec::new(); s];
    match by {
        ShardBy::Len => {
            let mut ids: Vec<RecordId> = (0..n as u32).collect();
            ids.sort_by_key(|&id| (dataset.record_len(id), id));
            for (i, bucket) in out.iter_mut().enumerate() {
                let mut chunk = ids[i * n / s..(i + 1) * n / s].to_vec();
                chunk.sort_unstable();
                *bucket = chunk;
            }
        }
        ShardBy::Hash => {
            for id in 0..n as u32 {
                out[(fnv1a(dataset.get(id)) % s as u64) as usize].push(id);
            }
        }
    }
    out
}

/// Copies the records named by `ids` (in order) into an owned sub-dataset
/// with local ids `0..ids.len()`.
pub fn materialize(dataset: &Dataset, ids: &[RecordId]) -> Dataset {
    let total: usize = ids.iter().map(|&id| dataset.record_len(id)).sum();
    let mut out = Dataset::with_capacity(ids.len(), total);
    for &id in ids {
        out.push(dataset.get(id));
    }
    out
}

/// Remaps a shard-local match set to global ids through the shard's id
/// table (`local id i` ↔ `globals[i]`, a bijection onto the shard's
/// slice of the global id space).
pub fn remap_to_global(local: &MatchSet, globals: &[RecordId]) -> MatchSet {
    MatchSet::from_unsorted(
        local
            .iter()
            .map(|m| Match::new(globals[m.id as usize], m.distance))
            .collect(),
    )
}

/// K-way merge of per-shard match sets already remapped to global ids.
///
/// Each input is sorted by id (a [`MatchSet`] invariant); the output is
/// their sorted, deduplicated union — equal to
/// [`MatchSet::from_unsorted`] of the concatenation when the inputs are
/// disjoint, and keeping the *minimum* distance per id when partitions
/// overlap (the heap yields the smaller distance first).
pub fn merge_match_sets(parts: &[MatchSet]) -> MatchSet {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut heap: BinaryHeap<Reverse<(Match, usize)>> = BinaryHeap::new();
    let mut cursors = vec![0usize; parts.len()];
    for (i, p) in parts.iter().enumerate() {
        if let Some(&m) = p.matches().first() {
            heap.push(Reverse((m, i)));
            cursors[i] = 1;
        }
    }
    let mut out: Vec<Match> = Vec::new();
    while let Some(Reverse((m, i))) = heap.pop() {
        if out.last().map(|last| last.id) != Some(m.id) {
            out.push(m);
        }
        if let Some(&next) = parts[i].matches().get(cursors[i]) {
            heap.push(Reverse((next, i)));
            cursors[i] += 1;
        }
    }
    MatchSet::from_unsorted(out)
}

/// One shard's engine.
enum ShardEngine {
    /// A frozen partition: the routing core over the shard's owned
    /// records, whose local id `i` is global id `globals[i]` (the
    /// strictly increasing table [`partition_ids`] produced). The core
    /// is boxed: its arm slots dwarf a live shard's handle.
    Frozen {
        dataset: Dataset,
        core: Box<RoutingCore>,
        globals: Vec<RecordId>,
    },
    /// A live partition, seeded with this shard's slice of the global
    /// id space; every insert carries a centrally allocated id, so it
    /// already answers in global ids.
    Live(LiveEngine),
}

/// One shard: its engine plus lifetime counters for serving metrics.
struct Shard {
    engine: ShardEngine,
    queries: AtomicU64,
    matches: AtomicU64,
}

impl Shard {
    fn new(engine: ShardEngine) -> Self {
        Self {
            engine,
            queries: AtomicU64::new(0),
            matches: AtomicU64::new(0),
        }
    }

    /// One query against this shard, in global ids (sorted by id either
    /// way: frozen tables are strictly increasing, and live shards
    /// answer in global ids already), plus DP cells.
    fn search(&self, query: &[u8], k: u32) -> (MatchSet, u64) {
        let (global, cells) = match &self.engine {
            ShardEngine::Frozen {
                dataset,
                core,
                globals,
            } => {
                let (local, cells) = core.search_counting(dataset, query, k);
                (remap_to_global(&local, globals), cells)
            }
            ShardEngine::Live(engine) => engine.search_counting(query, k),
        };
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.matches.fetch_add(global.len() as u64, Ordering::Relaxed);
        (global, cells)
    }

    fn core(&self) -> Option<&RoutingCore> {
        match &self.engine {
            ShardEngine::Frozen { core, .. } => Some(core),
            ShardEngine::Live(_) => None,
        }
    }

    fn live(&self) -> Option<&LiveEngine> {
        match &self.engine {
            ShardEngine::Frozen { .. } => None,
            ShardEngine::Live(engine) => Some(engine),
        }
    }

    /// Records this shard currently holds (live count for live shards).
    fn records(&self) -> usize {
        match &self.engine {
            ShardEngine::Frozen { globals, .. } => globals.len(),
            ShardEngine::Live(engine) => engine.stats().live_records,
        }
    }

    fn diag(&self) -> BackendDiag {
        match &self.engine {
            ShardEngine::Frozen { core, .. } => {
                let planner = core.planner();
                let name = if let [only] = planner.candidates() {
                    format!("shard[{}]", only.name())
                } else if planner.is_calibrated() {
                    "shard-auto[calibrated]".into()
                } else {
                    "shard-auto[static]".into()
                };
                core.diag(name)
            }
            ShardEngine::Live(engine) => engine.diag(),
        }
    }
}

/// Sums per-arm counters across shards, keyed by arm name, in order of
/// first appearance.
fn sum_by_name(
    parts: impl Iterator<Item = Vec<(&'static str, u64)>>,
) -> Vec<(&'static str, u64)> {
    let mut agg: Vec<(&'static str, u64)> = Vec::new();
    for (name, c) in parts.flatten() {
        match agg.iter_mut().find(|(n, _)| *n == name) {
            Some(entry) => entry.1 += c,
            None => agg.push((name, c)),
        }
    }
    agg
}

/// Per-shard lifetime statistics, surfaced through
/// [`Backend::shard_stats`] into the serving layer's `STATS` JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStats {
    /// Records this shard holds (the live count for live shards).
    pub records: usize,
    /// Queries fanned to this shard so far.
    pub queries: u64,
    /// Total matches this shard has returned so far.
    pub matches: u64,
    /// `(arm name, queries routed)` for planner-driven shard backends.
    pub plan_counts: Option<Vec<(&'static str, u64)>>,
    /// LSM gauges when the shard is a live engine; `None` when frozen.
    pub live: Option<LiveStats>,
}

/// Central id allocation and delete routing for a live composite.
///
/// Inserts take this lock to (a) draw the next id from the one global,
/// dense, never-reused space and (b) record the owning shard, and they
/// hold it across the shard append so each shard's memtable stays in
/// global-id order. Reads and compaction never touch this lock — shard
/// engines compact behind their own per-shard gates, so there is no
/// global compaction lock.
struct MutationRouter {
    cfg: LsmConfig,
    state: Mutex<RouterState>,
}

struct RouterState {
    /// Next global id to assign (seed records took `0..next_id` first).
    next_id: RecordId,
    /// `owner[id]` = index of the shard physically holding `id`.
    /// Dense — ids are never reused, so this only grows.
    owner: Vec<u8>,
}

/// The sharded composite backend: `S` shards, each the routing core of
/// [`AutoBackend`] over its own records, fan-out per query, k-way union
/// of the results. Built with [`ShardedBackend::live`], the shards are
/// [`LiveEngine`]s and the composite additionally implements
/// [`MutableBackend`], routing each insert by content hash and each
/// delete to the owning shard.
pub struct ShardedBackend {
    shards: Vec<Shard>,
    by: ShardBy,
    threads: usize,
    /// Present only for live composites.
    router: Option<MutationRouter>,
}

impl ShardedBackend {
    /// Partitions `dataset` and gives every shard a statically planned
    /// routing core over [`AutoBackend::DEFAULT_CANDIDATES`]
    /// (deterministic; what [`crate::engine::build_backend`] uses).
    pub fn build(dataset: &Dataset, shards: usize, by: ShardBy, threads: usize) -> Self {
        Self::assemble(dataset, shards, by, threads, |sub| {
            RoutingCore::new(sub, &AutoBackend::DEFAULT_CANDIDATES)
        })
    }

    /// Like [`ShardedBackend::build`], but each shard calibrates its
    /// own planner against a probe drawn from that shard's records
    /// ([`AutoBackend::default_probe`]), so routing reflects per-shard
    /// measured costs (the serving daemon's choice).
    pub fn calibrated(dataset: &Dataset, shards: usize, by: ShardBy, threads: usize) -> Self {
        Self::assemble(dataset, shards, by, threads, |sub| {
            RoutingCore::calibrated(sub, &AutoBackend::default_probe(sub))
        })
    }

    /// Like [`ShardedBackend::calibrated`], but every shard calibrates
    /// against the *same* caller-supplied probe workload — the choice
    /// when the real workload is in hand (the CLI and the benches),
    /// mirroring [`crate::SearchEngine::build_auto`] with a probe. A
    /// synthetic per-shard probe measures each arm on queries drawn
    /// from the shard's own records; real queries can have a different
    /// length × threshold mix, and the per-class winner differs with
    /// them.
    pub fn calibrated_with(
        dataset: &Dataset,
        shards: usize,
        by: ShardBy,
        threads: usize,
        probe: &Workload,
    ) -> Self {
        Self::assemble(dataset, shards, by, threads, |sub| {
            RoutingCore::calibrated(sub, probe)
        })
    }

    /// Pins every shard to one fixed arm (`choice`): each shard's
    /// planner has that single candidate.
    pub fn with_fixed_arm(
        dataset: &Dataset,
        shards: usize,
        by: ShardBy,
        threads: usize,
        choice: BackendChoice,
    ) -> Self {
        Self::assemble(dataset, shards, by, threads, |sub| RoutingCore::new(sub, &[choice]))
    }

    fn assemble(
        dataset: &Dataset,
        shards: usize,
        by: ShardBy,
        threads: usize,
        make: impl Fn(&Dataset) -> RoutingCore,
    ) -> Self {
        let shards = partition_ids(dataset, shards, by)
            .into_iter()
            .map(|globals| {
                let dataset = materialize(dataset, &globals);
                let core = Box::new(make(&dataset));
                Shard::new(ShardEngine::Frozen {
                    dataset,
                    core,
                    globals,
                })
            })
            .collect();
        Self {
            shards,
            by,
            threads,
            router: None,
        }
    }

    /// Builds a *live* composite: every shard is a [`LiveEngine`]
    /// seeded with its hash-routed slice of `dataset`, and the returned
    /// backend implements [`MutableBackend`] — inserts draw ids from
    /// one global dense space and route by content hash
    /// ([`route_record`]), deletes route to the recorded owning shard.
    ///
    /// Fails fast (instead of degrading deep in the engine) when:
    /// * `cfg.memtable_cap` is 0 — that would flush on every insert;
    /// * `by` is [`ShardBy::Len`] with ≥ 2 shards — length bands shift
    ///   as the dataset grows, so band routing cannot be a stable pure
    ///   function of the record; use `hash` partitioning with live
    ///   shards (a single shard accepts either spelling: routing is
    ///   trivial).
    pub fn live(
        dataset: &Dataset,
        shards: usize,
        by: ShardBy,
        threads: usize,
        cfg: LsmConfig,
    ) -> Result<Self, String> {
        if cfg.memtable_cap == 0 {
            return Err(
                "--memtable-cap needs a positive integer (0 would flush on every insert)".into(),
            );
        }
        let s = shards.max(1);
        if by == ShardBy::Len && s >= 2 {
            return Err(
                "--shard-by len cannot route live inserts: length bands shift as the \
                 dataset grows, so a record's band is not a stable function of its bytes; \
                 use --shard-by hash with --live"
                    .into(),
            );
        }
        if s > 256 {
            return Err(format!(
                "--live supports at most 256 shards (got {s}): the delete router's \
                 owner map stores one byte per record"
            ));
        }
        // Seed partition: the same pure routing function every later
        // insert uses, so a restart re-routes identically.
        let mut parts: Vec<(Dataset, Vec<RecordId>)> =
            (0..s).map(|_| (Dataset::new(), Vec::new())).collect();
        let mut owner = Vec::with_capacity(dataset.len());
        for id in 0..dataset.len() as u32 {
            let record = dataset.get(id);
            let target = route_record(record, s);
            owner.push(target as u8);
            parts[target].0.push(record);
            parts[target].1.push(id);
        }
        let next_id = dataset.len() as u32;
        let shards = parts
            .into_iter()
            .map(|(data, globals)| {
                Shard::new(ShardEngine::Live(LiveEngine::seeded(
                    data, globals, next_id, cfg,
                )))
            })
            .collect();
        Ok(Self {
            shards,
            by,
            threads,
            router: Some(MutationRouter {
                cfg,
                state: Mutex::new(RouterState { next_id, owner }),
            }),
        })
    }

    /// Whether this composite was built with live shards (and therefore
    /// honours the [`MutableBackend`] surface).
    pub fn is_live(&self) -> bool {
        self.router.is_some()
    }

    /// The shard physically holding `id`, when this is a live composite
    /// and the id has been assigned. Diagnostic — the delete path uses
    /// the same map.
    pub fn owner_of(&self, id: RecordId) -> Option<usize> {
        let router = self.router.as_ref()?;
        let state = router.state.lock().expect("router lock");
        state.owner.get(id as usize).map(|&s| s as usize)
    }

    fn router(&self) -> &MutationRouter {
        self.router
            .as_ref()
            .expect("mutation on a frozen ShardedBackend (build it with ShardedBackend::live)")
    }

    fn live_shard(&self, index: usize) -> &LiveEngine {
        self.shards[index]
            .live()
            .expect("live composites hold only live shards")
    }

    /// One compaction step on one shard, for per-shard compactor
    /// threads: each shard flushes and merges under its own gate, so N
    /// compactors on N shards never serialise against each other (and
    /// never block readers — swaps are atomic under the shard's lock).
    /// Returns whether a step ran. Panics on a frozen composite.
    pub fn compact_shard(&self, index: usize) -> bool {
        self.router();
        self.live_shard(index).maybe_compact()
    }

    /// One self-tuning tick across every shard, each against its own
    /// evidence: frozen shards re-derive their planner from their own
    /// [`crate::ObservationGrid`], live shards re-read their own
    /// `LiveStats` gauges and re-pick their segment arm — so a
    /// freshly-flushed shard can prefer its V7/V8 segments while a
    /// memtable-heavy neighbour stays on the flat scan. Returns how
    /// many shards actually changed plan this tick.
    pub fn replan(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| {
                usize::from(match &shard.engine {
                    ShardEngine::Frozen { core, .. } => core.replan(),
                    ShardEngine::Live(engine) => engine.replan(),
                })
            })
            .sum()
    }

    /// Total decision-table swaps across all shards since build.
    pub fn plan_epoch(&self) -> u64 {
        self.shards
            .iter()
            .map(|shard| match &shard.engine {
                ShardEngine::Frozen { core, .. } => core.plan_epoch(),
                ShardEngine::Live(engine) => engine.plan_epoch(),
            })
            .sum()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The partitioner this composite was built with.
    pub fn shard_by(&self) -> ShardBy {
        self.by
    }

    /// Every shard backend's self-description, in shard order (the
    /// CLI's `explain` renders per-shard snapshots and decision tables
    /// from these).
    pub fn shard_diags(&self) -> Vec<BackendDiag> {
        self.shards.iter().map(Shard::diag).collect()
    }

    /// One query against every shard under `strategy`, returning the
    /// merged global result and total DP cells.
    fn fan_out(&self, query: &[u8], k: u32, strategy: Strategy) -> (MatchSet, u64) {
        let parts = run_queries(strategy, self.shards.len(), |i| {
            self.shards[i].search(query, k)
        });
        let cells = parts.iter().map(|(_, c)| c).sum();
        let sets: Vec<MatchSet> = parts.into_iter().map(|(s, _)| s).collect();
        (merge_match_sets(&sets), cells)
    }
}

impl Backend for ShardedBackend {
    fn name(&self) -> String {
        match &self.router {
            Some(router) => format!(
                "sharded-live[s={}/{}/cap={}]",
                self.shards.len(),
                self.by.name(),
                router.cfg.memtable_cap
            ),
            None => format!("sharded[s={}/{}]", self.shards.len(), self.by.name()),
        }
    }

    fn prepare(&self) {
        for shard in &self.shards {
            if let ShardEngine::Frozen { dataset, core, .. } = &shard.engine {
                core.prepare(dataset);
            }
        }
    }

    fn search(&self, query: &[u8], k: u32) -> MatchSet {
        self.search_counting(query, k).0
    }

    fn search_counting(&self, query: &[u8], k: u32) -> (MatchSet, u64) {
        // A lone query may parallelize across shards; workload paths
        // override `run_with_strategy` below to parallelize across
        // queries instead (never both — no nested spawns).
        self.fan_out(query, k, auto_strategy(self.shards.len(), self.threads))
    }

    fn diag(&self) -> BackendDiag {
        BackendDiag {
            name: self.name(),
            structure: Some((self.shards.len(), 0)),
            filters: vec!["length", "frequency"],
            plan: None,
        }
    }

    fn plan_counts(&self) -> Option<Vec<(&'static str, u64)>> {
        // Cross-shard aggregate per arm name; per-shard breakdowns come
        // from `shard_stats`. Live shards route by segment arm, not by
        // planner, so a live composite has no counters.
        (!self.is_live()).then(|| {
            sum_by_name(self.shards.iter().filter_map(Shard::core).map(RoutingCore::plan_counts))
        })
    }

    fn replan_tick(&self) -> Option<u64> {
        Some(self.replan() as u64)
    }

    fn plan_epoch_total(&self) -> Option<u64> {
        Some(self.plan_epoch())
    }

    fn arm_nanos(&self) -> Option<Vec<(&'static str, u64)>> {
        (!self.is_live()).then(|| {
            sum_by_name(self.shards.iter().filter_map(Shard::core).map(RoutingCore::arm_nanos))
        })
    }

    fn as_mutable(&self) -> Option<&dyn MutableBackend> {
        if self.is_live() {
            Some(self)
        } else {
            None
        }
    }

    fn shard_stats(&self) -> Option<Vec<ShardStats>> {
        Some(
            self.shards
                .iter()
                .map(|s| ShardStats {
                    records: s.records(),
                    queries: s.queries.load(Ordering::Relaxed),
                    matches: s.matches.load(Ordering::Relaxed),
                    plan_counts: s.core().map(RoutingCore::plan_counts),
                    live: s.live().map(LiveEngine::stats),
                })
                .collect(),
        )
    }

    fn preferred_strategy(&self) -> Strategy {
        if self.threads > 1 {
            Strategy::FixedPool {
                threads: self.threads,
            }
        } else {
            Strategy::Sequential
        }
    }

    fn run_with_strategy(&self, workload: &Workload, strategy: Strategy) -> Vec<MatchSet> {
        let (nq, s) = (workload.len(), self.shards.len());
        let pool = match strategy {
            Strategy::FixedPool { threads }
            | Strategy::WorkQueue { threads }
            | Strategy::Adaptive {
                max_threads: threads,
            } => threads,
            Strategy::Sequential | Strategy::ThreadPerQuery => 0,
        };
        // Scarce-query regime (micro-batches, small benchmark
        // workloads): too few queries for a pool to balance when one of
        // them is expensive, so flatten the shard × query product into
        // the executor — shard-major, so one query's S probes land in S
        // different chunks of a static partition — and merge per query
        // afterwards. Still a single level of parallelism: the probes
        // themselves stay sequential.
        if s > 1 && pool > 1 && nq < pool * 4 {
            let mut parts = run_queries(strategy, nq * s, |i| {
                let q = &workload.queries[i % nq];
                self.shards[i / nq].search(&q.text, q.threshold).0
            });
            return (0..nq)
                .map(|qi| {
                    let sets: Vec<MatchSet> = (0..s)
                        .map(|si| std::mem::take(&mut parts[si * nq + qi]))
                        .collect();
                    merge_match_sets(&sets)
                })
                .collect();
        }
        // Plenty of queries: parallelize across them and keep the inner
        // shard loop sequential, so no executor ever nests thread
        // spawns and the merge happens inside the parallel region.
        run_queries(strategy, nq, |i| {
            let q = &workload.queries[i];
            self.fan_out(&q.text, q.threshold, Strategy::Sequential).0
        })
    }
}

/// The mutation surface of a live composite. Every method panics on a
/// frozen composite (one not built via [`ShardedBackend::live`]) — the
/// serving layer only reaches for this handle on `--live` engines.
impl MutableBackend for ShardedBackend {
    fn insert(&self, record: &[u8]) -> RecordId {
        let router = self.router();
        let target = route_record(record, self.shards.len());
        let mut state = router.state.lock().expect("router lock");
        let id = state.next_id;
        assert!(id < u32::MAX, "global id space exhausted");
        state.next_id = id + 1;
        state.owner.push(target as u8);
        // The shard append happens inside the router's critical section
        // so ids arrive at each shard in increasing order — the shard
        // memtable's strictly-increasing invariant depends on it.
        self.live_shard(target).insert_with_id(record, id);
        id
    }

    fn delete(&self, id: RecordId) -> bool {
        let target = {
            let state = self.router().state.lock().expect("router lock");
            match state.owner.get(id as usize) {
                Some(&shard) => shard as usize,
                // Never-assigned id: no shard can hold it.
                None => return false,
            }
        };
        // The owner map is append-only and ids are never reused, so the
        // routing stays valid after the lock drops; the shard itself
        // decides live-vs-already-deleted under its own lock.
        self.live_shard(target).delete(id)
    }

    fn maybe_compact(&self) -> bool {
        // One independent step per shard — each behind its own
        // compaction gate, never a composite-wide lock.
        let mut any = false;
        for (i, _) in self.shards.iter().enumerate() {
            any |= self.live_shard(i).maybe_compact();
        }
        any
    }

    fn live_stats(&self) -> LiveStats {
        let mut total = LiveStats::default();
        for (i, _) in self.shards.iter().enumerate() {
            total.accumulate(&self.live_shard(i).stats());
        }
        total
    }

    fn live_shard_stats(&self) -> Option<Vec<LiveStats>> {
        self.router.as_ref()?;
        Some(
            (0..self.shards.len())
                .map(|i| self.live_shard(i).stats())
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simsearch_data::QueryRecord;
    use simsearch_scan::{SeqVariant, SequentialScan};

    fn dataset() -> Dataset {
        Dataset::from_records([
            "Berlin", "Bern", "Bonn", "Ulm", "Bärlin", "Berlingen", "B", "", "Ber", "Ulmen",
        ])
    }

    fn workload() -> Workload {
        Workload {
            queries: vec![
                QueryRecord::new("Berlin", 2),
                QueryRecord::new("Ulm", 1),
                QueryRecord::new("", 0),
                QueryRecord::new("Bxr", 3),
            ],
        }
    }

    fn oracle(ds: &Dataset, w: &Workload) -> Vec<MatchSet> {
        SequentialScan::new(ds).run(SeqVariant::V1Base, w)
    }

    #[test]
    fn partitions_are_disjoint_covering_and_increasing() {
        let ds = dataset();
        for by in [ShardBy::Len, ShardBy::Hash] {
            for s in [1, 2, 3, 8, 32] {
                let parts = partition_ids(&ds, s, by);
                assert_eq!(parts.len(), s);
                let mut all: Vec<RecordId> = parts.iter().flatten().copied().collect();
                for p in &parts {
                    assert!(p.windows(2).all(|w| w[0] < w[1]), "{by:?} s={s}");
                }
                all.sort_unstable();
                assert_eq!(all, (0..ds.len() as u32).collect::<Vec<_>>(), "{by:?} s={s}");
            }
        }
    }

    #[test]
    fn sharded_agrees_with_the_oracle_for_every_configuration() {
        let ds = dataset();
        let w = workload();
        let expected = oracle(&ds, &w);
        for by in [ShardBy::Len, ShardBy::Hash] {
            for s in [1, 2, 3, 8, 32] {
                let backend = ShardedBackend::build(&ds, s, by, 2);
                backend.prepare();
                assert_eq!(backend.run_workload(&w), expected, "{by:?} s={s}");
                for strategy in [
                    Strategy::Sequential,
                    Strategy::FixedPool { threads: 2 },
                    Strategy::WorkQueue { threads: 3 },
                ] {
                    assert_eq!(
                        backend.run_with_strategy(&w, strategy),
                        expected,
                        "{by:?} s={s} {}",
                        strategy.name()
                    );
                }
            }
        }
    }

    #[test]
    fn calibrated_and_fixed_arm_shards_agree_with_the_oracle() {
        let ds = dataset();
        let w = workload();
        let expected = oracle(&ds, &w);
        let calibrated = ShardedBackend::calibrated(&ds, 3, ShardBy::Len, 1);
        assert_eq!(calibrated.run_workload(&w), expected);
        for choice in BackendChoice::ALL {
            let fixed = ShardedBackend::with_fixed_arm(&ds, 3, ShardBy::Hash, 1, choice);
            assert_eq!(fixed.run_workload(&w), expected, "{}", choice.name());
        }
    }

    #[test]
    fn shard_stats_count_queries_and_matches() {
        let ds = dataset();
        let w = workload();
        let backend = ShardedBackend::build(&ds, 3, ShardBy::Len, 1);
        let _ = backend.run_workload(&w);
        let stats = Backend::shard_stats(&backend).expect("sharded reports shard stats");
        assert_eq!(stats.len(), 3);
        assert_eq!(stats.iter().map(|s| s.records).sum::<usize>(), ds.len());
        for (i, s) in stats.iter().enumerate() {
            assert_eq!(s.queries, w.len() as u64, "shard {i}");
            let routed: u64 = s
                .plan_counts
                .as_ref()
                .expect("shard backends are planner-driven")
                .iter()
                .map(|(_, c)| c)
                .sum();
            assert_eq!(routed, w.len() as u64, "shard {i}");
        }
        let total_matches: u64 = stats.iter().map(|s| s.matches).sum();
        let expected_matches: usize = oracle(&ds, &w).iter().map(MatchSet::len).sum();
        assert_eq!(total_matches, expected_matches as u64);
    }

    #[test]
    fn arm_nanos_sum_the_shard_grids_per_arm() {
        let ds = dataset();
        let w = workload();
        let backend = ShardedBackend::build(&ds, 3, ShardBy::Hash, 1);
        let _ = backend.run_workload(&w);
        let summed = Backend::arm_nanos(&backend).expect("frozen composites time their arms");
        for (name, nanos) in &summed {
            let per_shard: u64 = backend
                .shards
                .iter()
                .filter_map(Shard::core)
                .flat_map(RoutingCore::arm_nanos)
                .filter(|(n, _)| n == name)
                .map(|(_, v)| v)
                .sum();
            assert_eq!(*nanos, per_shard, "{name}");
        }
        assert!(summed.iter().any(|(_, n)| *n > 0));
        let live = ShardedBackend::live(&ds, 2, ShardBy::Hash, 1, LsmConfig::default()).unwrap();
        assert!(Backend::arm_nanos(&live).is_none(), "live shards keep no grid");
    }

    #[test]
    fn merge_keeps_minimum_distance_on_overlap() {
        let a = MatchSet::from_unsorted(vec![Match::new(1, 3), Match::new(5, 0)]);
        let b = MatchSet::from_unsorted(vec![Match::new(1, 1), Match::new(2, 2)]);
        let merged = merge_match_sets(&[a, b]);
        assert_eq!(
            merged.matches(),
            &[Match::new(1, 1), Match::new(2, 2), Match::new(5, 0)]
        );
    }

    #[test]
    fn merge_handles_empty_inputs() {
        assert_eq!(merge_match_sets(&[]), MatchSet::default());
        let a = MatchSet::from_unsorted(vec![Match::new(0, 0)]);
        let merged = merge_match_sets(&[MatchSet::default(), a.clone(), MatchSet::default()]);
        assert_eq!(merged, a);
    }

    #[test]
    fn topk_matches_unsharded_deepening() {
        let ds = dataset();
        let sharded = ShardedBackend::build(&ds, 3, ShardBy::Len, 1);
        let flat = crate::backend::ScanBackend::new(SequentialScan::new(&ds), SeqVariant::V4Flat);
        for count in [1, 3, 20] {
            let (a, _) = sharded.search_top_k_with(b"Berlim", count, 8);
            let (b, _) = flat.search_top_k_with(b"Berlim", count, 8);
            assert_eq!(a, b, "count {count}");
        }
    }
}
