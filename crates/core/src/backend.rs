//! The unified `Backend` trait: one execution seam over every solution.
//!
//! Before this module, scan and index code paths were parallel
//! universes — `SequentialScan` had one API, each index structure
//! another, and every consumer (`SearchEngine`, the serving layer, the
//! CLI, the benches) hard-wired its choice. [`Backend`] is the shared
//! abstraction they all speak now: *prepare once, then answer
//! threshold queries* — with provided methods for DP-cell counting,
//! top-k deepening, workload execution under any executor,
//! self-description for diagnostics, and capability methods
//! (replanning, calibration persistence, mutation) that default to "no
//! planner, not mutable".
//!
//! `RoutingCore` is the one planner-driven router: a planner slot,
//! lazily built owned arms, routing counters and an [`ObservationGrid`],
//! with the dataset passed in on every call. [`AutoBackend`] is that
//! core over a borrowed dataset; each frozen shard of a
//! [`crate::sharded::ShardedBackend`] is the same core over an owned
//! sub-dataset.

use crate::lsm::MutableBackend;
use crate::planner::{
    static_cost, BackendChoice, CellSample, Observation, PlanDecision, Planner, QueryClass,
    MAX_K_CLASS, MIN_CELL_OBSERVATIONS, NUM_LEN_CLASSES,
};
use crate::topk;
use simsearch_data::alphabet::{DNA_SYMBOLS, VOWEL_SYMBOLS};
use simsearch_data::{Alphabet, Dataset, Match, MatchSet, SortedView, StatsSnapshot, Workload};
use simsearch_distance::KernelKind;
use simsearch_filters::{FilterChain, FrequencyFilter, LengthFilter};
use simsearch_index::{QgramIndex, RadixTrie, Trie};
use simsearch_parallel::{auto_strategy, run_queries, Strategy};
use simsearch_scan::{v7_search_view, v8_search_view, SeqVariant, SequentialScan};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

/// What a backend reports about itself.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendDiag {
    /// Human-readable name.
    pub name: String,
    /// `(node or posting count, approximate bytes)` when the backend
    /// owns an index structure.
    pub structure: Option<(usize, usize)>,
    /// Names of the candidate filters feeding its verification stage.
    pub filters: Vec<&'static str>,
    /// Planner state, present only for the auto backend.
    pub plan: Option<PlanReport>,
}

/// The auto backend's recorded planner state: the decision table and
/// how many queries each arm has answered so far.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanReport {
    /// The snapshot the planner was built from.
    pub snapshot: StatsSnapshot,
    /// Every per-class decision, in table order.
    pub decisions: Vec<PlanDecision>,
    /// `(backend name, queries routed to it)` per candidate.
    pub counts: Vec<(&'static str, u64)>,
    /// Whether a micro-calibration probe scaled the hints.
    pub calibrated: bool,
}

/// One execution backend: prepare once, then answer threshold queries.
///
/// Required methods are the per-query kernel ([`Backend::search`]) and
/// self-description ([`Backend::diag`]). Everything else — cell
/// counting, top-k deepening, workload execution — has defaults
/// expressed in terms of those, which concrete backends override only
/// when they can do better (the sorted scan counts DP cells; the scan
/// rungs keep their paper-mandated scheduling).
pub trait Backend: Send + Sync {
    /// Human-readable name.
    fn name(&self) -> String;

    /// Eagerly builds auxiliary state so the cost lands at build time,
    /// not inside the first timed query. Idempotent; default no-op.
    fn prepare(&self) {}

    /// Answers one threshold query.
    fn search(&self, query: &[u8], k: u32) -> MatchSet;

    /// Answers one query and reports DP cells computed, when the
    /// backend counts them (0 otherwise).
    fn search_counting(&self, query: &[u8], k: u32) -> (MatchSet, u64) {
        (self.search(query, k), 0)
    }

    /// The `count` nearest records by iterative deepening (radius 0,
    /// then doubling, capped at `max_radius`), plus DP cells computed
    /// across all probes.
    fn search_top_k_with(
        &self,
        query: &[u8],
        count: usize,
        max_radius: u32,
    ) -> (Vec<Match>, u64) {
        let mut cells = 0u64;
        let matches = topk::search_top_k_with(
            |radius| {
                let (m, c) = self.search_counting(query, radius);
                cells += c;
                m
            },
            count,
            max_radius,
        );
        (matches, cells)
    }

    /// Self-description for diagnostics and metrics.
    fn diag(&self) -> BackendDiag;

    /// `(backend name, queries routed)` counters for planner-driven
    /// backends; `None` for fixed backends. Cheap (no decision-table
    /// clone), so per-batch metrics publishing can call it freely.
    fn plan_counts(&self) -> Option<Vec<(&'static str, u64)>> {
        None
    }

    /// Per-shard lifetime statistics for sharded composites
    /// ([`crate::sharded::ShardedBackend`]); `None` for single-arena
    /// backends. Cheap (atomic loads), so per-batch metrics publishing
    /// can call it freely.
    fn shard_stats(&self) -> Option<Vec<crate::sharded::ShardStats>> {
        None
    }

    /// Planner capability: one self-tuning tick over the backend's own
    /// observations. `Some(swaps)` — decision tables swapped in this
    /// tick, 0 while the grids are too thin or nothing changed — for
    /// planner-driven backends; `None` for fixed ones.
    fn replan_tick(&self) -> Option<u64> {
        None
    }

    /// Planner capability: accepted decision-table swaps since build
    /// (summed over shards); `None` for fixed backends.
    fn plan_epoch_total(&self) -> Option<u64> {
        None
    }

    /// Pooled observed nanoseconds per arm name from the backend's
    /// observation grids (summed over shards) — the `STATS` `arm_nanos`
    /// registry; `None` when the backend times no routed arm.
    fn arm_nanos(&self) -> Option<Vec<(&'static str, u64)>> {
        None
    }

    /// Calibration-persistence capability: the planner whose measured
    /// table is worth saving across restarts; `None` when the backend
    /// has no persistable calibration.
    fn calibration(&self) -> Option<Arc<Planner>> {
        None
    }

    /// Installs a restored calibrated planner (the counterpart of
    /// [`Backend::calibration`]); `false` when refused or unsupported.
    fn restore_calibration(&self, _planner: Planner) -> bool {
        false
    }

    /// Mutation capability: the `INSERT`/`DELETE`/compaction surface
    /// when the backend accepts writes; `None` when it is frozen.
    fn as_mutable(&self) -> Option<&dyn MutableBackend> {
        None
    }

    /// The executor [`Backend::run_workload`] uses by default.
    fn preferred_strategy(&self) -> Strategy {
        Strategy::Sequential
    }

    /// Executes a whole workload (the quantity the paper times).
    fn run_workload(&self, workload: &Workload) -> Vec<MatchSet> {
        self.run_with_strategy(workload, self.preferred_strategy())
    }

    /// Executes a workload under an explicit executor, overriding the
    /// backend's own scheduling. Results are identical to
    /// [`Backend::run_workload`] for every strategy.
    fn run_with_strategy(&self, workload: &Workload, strategy: Strategy) -> Vec<MatchSet> {
        run_queries(strategy, workload.len(), |i| {
            let q = &workload.queries[i];
            self.search(&q.text, q.threshold)
        })
    }
}

/// Shared handles are backends too: an `Arc<T>` forwards every method
/// (including the provided ones, so `T`'s overrides are never shadowed
/// by the trait defaults) — capabilities included, so a shared engine
/// handle keeps its planner and mutation surface.
impl<T: Backend + ?Sized> Backend for Arc<T> {
    fn name(&self) -> String {
        (**self).name()
    }

    fn prepare(&self) {
        (**self).prepare()
    }

    fn search(&self, query: &[u8], k: u32) -> MatchSet {
        (**self).search(query, k)
    }

    fn search_counting(&self, query: &[u8], k: u32) -> (MatchSet, u64) {
        (**self).search_counting(query, k)
    }

    fn search_top_k_with(
        &self,
        query: &[u8],
        count: usize,
        max_radius: u32,
    ) -> (Vec<Match>, u64) {
        (**self).search_top_k_with(query, count, max_radius)
    }

    fn diag(&self) -> BackendDiag {
        (**self).diag()
    }

    fn plan_counts(&self) -> Option<Vec<(&'static str, u64)>> {
        (**self).plan_counts()
    }

    fn shard_stats(&self) -> Option<Vec<crate::sharded::ShardStats>> {
        (**self).shard_stats()
    }

    fn replan_tick(&self) -> Option<u64> {
        (**self).replan_tick()
    }

    fn plan_epoch_total(&self) -> Option<u64> {
        (**self).plan_epoch_total()
    }

    fn arm_nanos(&self) -> Option<Vec<(&'static str, u64)>> {
        (**self).arm_nanos()
    }

    fn calibration(&self) -> Option<Arc<Planner>> {
        (**self).calibration()
    }

    fn restore_calibration(&self, planner: Planner) -> bool {
        (**self).restore_calibration(planner)
    }

    fn as_mutable(&self) -> Option<&dyn MutableBackend> {
        (**self).as_mutable()
    }

    fn preferred_strategy(&self) -> Strategy {
        (**self).preferred_strategy()
    }

    fn run_workload(&self, workload: &Workload) -> Vec<MatchSet> {
        (**self).run_workload(workload)
    }

    fn run_with_strategy(&self, workload: &Workload, strategy: Strategy) -> Vec<MatchSet> {
        (**self).run_with_strategy(workload, strategy)
    }
}

/// A rung of the paper's sequential-scan ladder behind the trait.
pub struct ScanBackend<'a> {
    scan: SequentialScan<'a>,
    variant: SeqVariant,
}

impl<'a> ScanBackend<'a> {
    /// Wraps a scan (possibly already prepared) at one rung.
    pub fn new(scan: SequentialScan<'a>, variant: SeqVariant) -> Self {
        Self { scan, variant }
    }
}

impl Backend for ScanBackend<'_> {
    fn name(&self) -> String {
        format!("scan[{}]", self.variant.label())
    }

    fn prepare(&self) {
        self.scan.prepare(self.variant);
    }

    fn search(&self, query: &[u8], k: u32) -> MatchSet {
        self.scan.search_one(self.variant, query, k)
    }

    fn search_counting(&self, query: &[u8], k: u32) -> (MatchSet, u64) {
        match self.variant {
            SeqVariant::V7SortedPrefix => self.scan.v7_search(query, k),
            SeqVariant::V8BitParallel => self.scan.v8_search(query, k),
            _ => (self.search(query, k), 0),
        }
    }

    fn diag(&self) -> BackendDiag {
        let filters = match self.variant {
            SeqVariant::V1Base => vec![],
            _ => vec!["length"],
        };
        BackendDiag {
            name: self.name(),
            structure: None,
            filters,
            plan: None,
        }
    }

    fn preferred_strategy(&self) -> Strategy {
        match self.variant {
            SeqVariant::V5ThreadPerQuery => Strategy::ThreadPerQuery,
            SeqVariant::V6Pool { threads } => Strategy::FixedPool { threads },
            _ => Strategy::Sequential,
        }
    }

    fn run_workload(&self, workload: &Workload) -> Vec<MatchSet> {
        // Delegate so each rung keeps exactly the scheduling the paper
        // prescribes for it.
        self.scan.run(self.variant, workload)
    }
}

/// A flat scan with an explicit kernel/executor pair (ablations).
pub struct KernelScanBackend<'a> {
    scan: SequentialScan<'a>,
    kernel: KernelKind,
    strategy: Strategy,
}

impl<'a> KernelScanBackend<'a> {
    /// Wraps a scan with the given kernel and executor.
    pub fn new(scan: SequentialScan<'a>, kernel: KernelKind, strategy: Strategy) -> Self {
        Self {
            scan,
            kernel,
            strategy,
        }
    }
}

impl Backend for KernelScanBackend<'_> {
    fn name(&self) -> String {
        format!("scan[{}/{}]", self.kernel.name(), self.strategy.name())
    }

    fn search(&self, query: &[u8], k: u32) -> MatchSet {
        let w = Workload {
            queries: vec![simsearch_data::QueryRecord::new(query.to_vec(), k)],
        };
        self.scan
            .run_with(self.kernel, Strategy::Sequential, &w)
            .pop()
            .expect("one query in, one result out")
    }

    fn diag(&self) -> BackendDiag {
        BackendDiag {
            name: self.name(),
            structure: None,
            filters: vec!["length"],
            plan: None,
        }
    }

    fn preferred_strategy(&self) -> Strategy {
        self.strategy
    }

    fn run_with_strategy(&self, workload: &Workload, strategy: Strategy) -> Vec<MatchSet> {
        self.scan.run_with(self.kernel, strategy, workload)
    }
}

/// A flat scan whose candidates come from a [`FilterChain`] — the
/// planner's scan arm, running the unified filter→verify pipeline
/// (length filter always; frequency vectors when the corpus has a
/// tracked alphabet).
pub struct FilteredScanBackend<'a> {
    scan: SequentialScan<'a>,
    chain: FilterChain,
    strategy: Strategy,
}

impl<'a> FilteredScanBackend<'a> {
    /// Builds the standard chain for `dataset`: the length filter plus
    /// frequency vectors over DNA symbols (DNA corpora) or vowels (the
    /// paper's city-name choice).
    pub fn new(dataset: &'a Dataset, strategy: Strategy) -> Self {
        Self {
            scan: SequentialScan::new(dataset),
            chain: standard_chain(dataset),
            strategy,
        }
    }
}

/// The symbols frequency vectors track for `dataset`: DNA symbols when
/// every record is DNA, vowels otherwise (the paper's city-name choice).
fn tracked_symbols(dataset: &Dataset) -> [u8; 5] {
    let dna = Alphabet::dna();
    if dataset.records().all(|r| dna.covers(r)) {
        DNA_SYMBOLS
    } else {
        VOWEL_SYMBOLS
    }
}

/// The planner's flat-scan filter chain: the length filter plus
/// frequency vectors over [`tracked_symbols`].
fn standard_chain(dataset: &Dataset) -> FilterChain {
    FilterChain::new()
        .push(LengthFilter::build(dataset))
        .push(FrequencyFilter::build(dataset, tracked_symbols(dataset)))
}

impl Backend for FilteredScanBackend<'_> {
    fn name(&self) -> String {
        format!("scan[filtered/{}]", self.strategy.name())
    }

    fn search(&self, query: &[u8], k: u32) -> MatchSet {
        self.scan.search_filtered(&self.chain, query, k)
    }

    fn diag(&self) -> BackendDiag {
        BackendDiag {
            name: self.name(),
            structure: None,
            filters: self.chain.names(),
            plan: None,
        }
    }

    fn preferred_strategy(&self) -> Strategy {
        self.strategy
    }

    fn run_with_strategy(&self, workload: &Workload, strategy: Strategy) -> Vec<MatchSet> {
        self.scan.run_filtered(&self.chain, strategy, workload)
    }
}

/// The V7 sorted-prefix scan behind the trait, with DP-cell counting.
pub struct SortedScanBackend<'a> {
    scan: SequentialScan<'a>,
}

impl<'a> SortedScanBackend<'a> {
    /// Wraps a scan; the sorted view is built by [`Backend::prepare`].
    pub fn new(scan: SequentialScan<'a>) -> Self {
        Self { scan }
    }
}

impl Backend for SortedScanBackend<'_> {
    fn name(&self) -> String {
        "scan[sorted-prefix]".into()
    }

    fn prepare(&self) {
        self.scan.prepare(SeqVariant::V7SortedPrefix);
    }

    fn search(&self, query: &[u8], k: u32) -> MatchSet {
        self.scan.v7_search(query, k).0
    }

    fn search_counting(&self, query: &[u8], k: u32) -> (MatchSet, u64) {
        self.scan.v7_search(query, k)
    }

    fn diag(&self) -> BackendDiag {
        BackendDiag {
            name: self.name(),
            structure: None,
            filters: vec!["length"],
            plan: None,
        }
    }
}

/// The V8 bit-parallel sweep behind the trait: the sorted arena of V7,
/// but with the DP column packed into Myers words and checkpointed at
/// 64-cell block granularity, so resuming from the running LCP floor
/// reuses whole words instead of scalar rows. DP-cell counts flow
/// through [`Backend::search_counting`] in the same row-equivalent
/// units V7 reports, keeping diagnostics comparable across rungs.
pub struct BitParallelScanBackend<'a> {
    scan: SequentialScan<'a>,
}

impl<'a> BitParallelScanBackend<'a> {
    /// Wraps a scan; the sorted view is built by [`Backend::prepare`].
    pub fn new(scan: SequentialScan<'a>) -> Self {
        Self { scan }
    }
}

impl Backend for BitParallelScanBackend<'_> {
    fn name(&self) -> String {
        "scan[bit-parallel]".into()
    }

    fn prepare(&self) {
        self.scan.prepare(SeqVariant::V8BitParallel);
    }

    fn search(&self, query: &[u8], k: u32) -> MatchSet {
        self.scan.v8_search(query, k).0
    }

    fn search_counting(&self, query: &[u8], k: u32) -> (MatchSet, u64) {
        self.scan.v8_search(query, k)
    }

    fn diag(&self) -> BackendDiag {
        BackendDiag {
            name: self.name(),
            structure: None,
            filters: vec!["length"],
            plan: None,
        }
    }
}

/// The uncompressed prefix tree behind the trait.
pub struct TrieBackend {
    trie: Trie,
    paper: bool,
}

impl TrieBackend {
    /// Builds the trie; `paper` selects the paper's §4.1 pruning over
    /// the modern banded descent.
    pub fn build(dataset: &Dataset, paper: bool) -> Self {
        Self {
            trie: simsearch_index::trie::build(dataset),
            paper,
        }
    }
}

impl Backend for TrieBackend {
    fn name(&self) -> String {
        format!(
            "trie[{}]",
            if self.paper { "paper" } else { "modern" }
        )
    }

    fn search(&self, query: &[u8], k: u32) -> MatchSet {
        if self.paper {
            self.trie.search_paper(query, k)
        } else {
            self.trie.search(query, k)
        }
    }

    fn diag(&self) -> BackendDiag {
        BackendDiag {
            name: self.name(),
            structure: Some((self.trie.node_count(), self.trie.memory_bytes())),
            filters: vec!["length"],
            plan: None,
        }
    }
}

/// The compressed (radix) tree behind the trait, optionally with
/// frequency-vector annotations.
pub struct RadixBackend {
    radix: RadixTrie,
    paper: bool,
    strategy: Strategy,
    freq: bool,
}

impl RadixBackend {
    /// Builds the radix tree.
    pub fn build(dataset: &Dataset, paper: bool, strategy: Strategy) -> Self {
        Self {
            radix: simsearch_index::radix::build(dataset),
            paper,
            strategy,
            freq: false,
        }
    }

    /// Builds the radix tree with frequency vectors over the alphabet
    /// that fits the data (§6 future work).
    pub fn build_with_freq(dataset: &Dataset, strategy: Strategy) -> Self {
        Self {
            radix: simsearch_index::radix::build_with_freq(dataset, tracked_symbols(dataset)),
            paper: false,
            strategy,
            freq: true,
        }
    }
}

impl Backend for RadixBackend {
    fn name(&self) -> String {
        let mode = if self.paper {
            "paper"
        } else if self.freq {
            "freq"
        } else {
            "modern"
        };
        format!("radix[{mode}/{}]", self.strategy.name())
    }

    fn search(&self, query: &[u8], k: u32) -> MatchSet {
        if self.paper {
            self.radix.search_paper(query, k)
        } else {
            self.radix.search(query, k)
        }
    }

    fn diag(&self) -> BackendDiag {
        let mut filters = vec!["length"];
        if self.freq {
            filters.push("frequency");
        }
        BackendDiag {
            name: self.name(),
            structure: Some((self.radix.node_count(), self.radix.memory_bytes())),
            filters,
            plan: None,
        }
    }

    fn preferred_strategy(&self) -> Strategy {
        self.strategy
    }
}

/// The inverted q-gram index behind the trait.
pub struct QgramBackend<'a> {
    dataset: &'a Dataset,
    idx: QgramIndex,
    q: usize,
    strategy: Strategy,
}

impl<'a> QgramBackend<'a> {
    /// Builds the index with gram size `q`.
    pub fn build(dataset: &'a Dataset, q: usize, strategy: Strategy) -> Self {
        Self {
            dataset,
            idx: QgramIndex::build(dataset, q),
            q,
            strategy,
        }
    }
}

impl Backend for QgramBackend<'_> {
    fn name(&self) -> String {
        format!("qgram[q={}/{}]", self.q, self.strategy.name())
    }

    fn search(&self, query: &[u8], k: u32) -> MatchSet {
        self.idx.search(self.dataset, query, k)
    }

    fn diag(&self) -> BackendDiag {
        BackendDiag {
            name: self.name(),
            structure: Some((self.idx.distinct_grams(), self.idx.memory_bytes())),
            filters: vec!["qgram-count", "length"],
            plan: None,
        }
    }

    fn preferred_strategy(&self) -> Strategy {
        self.strategy
    }
}

/// One lock-free accumulation cell: three relaxed atomics that a
/// replan tick snapshots into a [`CellSample`].
#[derive(Default)]
struct AtomicCell {
    nanos: AtomicU64,
    predicted: AtomicU64,
    count: AtomicU64,
}

impl AtomicCell {
    fn record(&self, nanos: u64, predicted: f64) {
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
        // Each query contributes ≥ 1 predicted unit, which bounds the
        // derived multiplier by the cell's total nanoseconds.
        self.predicted
            .fetch_add(predicted.max(1.0) as u64, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> CellSample {
        CellSample {
            nanos: self.nanos.load(Ordering::Relaxed),
            predicted: self.predicted.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
        }
    }
}

/// The live latency registry the self-tuning loop closes over: one
/// accumulation cell per `(query class, arm)` plus one pooled top-k
/// cell per arm. Routed backends record `(measured nanos, statically
/// predicted units)` here on every query; a replan tick snapshots the
/// grid and hands it to [`Planner::with_class_samples`] to re-derive
/// the multipliers from serving traffic instead of the one-shot
/// build-time probe. All counters are relaxed atomics — recording
/// never blocks the query path, and a tick racing live queries only
/// folds a query into this tick or the next.
pub struct ObservationGrid {
    cells: Vec<[AtomicCell; BackendChoice::COUNT]>,
    topk: [AtomicCell; BackendChoice::COUNT],
}

impl Default for ObservationGrid {
    fn default() -> Self {
        Self::new()
    }
}

impl ObservationGrid {
    /// An empty grid covering every query class.
    pub fn new() -> Self {
        let rows = NUM_LEN_CLASSES * (MAX_K_CLASS as usize + 1);
        Self {
            cells: (0..rows)
                .map(|_| std::array::from_fn(|_| AtomicCell::default()))
                .collect(),
            topk: std::array::from_fn(|_| AtomicCell::default()),
        }
    }

    /// Records one answered threshold query.
    pub fn record(
        &self,
        class: QueryClass,
        choice: BackendChoice,
        nanos: u64,
        predicted: f64,
    ) {
        self.cells[class.table_index()][choice.index()].record(nanos, predicted);
    }

    /// Records one full top-k deepening run.
    pub fn record_topk(&self, choice: BackendChoice, nanos: u64, predicted: f64) {
        self.topk[choice.index()].record(nanos, predicted);
    }

    /// Snapshot of every class cell, in table order — the shape
    /// [`Planner::with_class_samples`] consumes.
    pub fn class_samples(&self) -> Vec<[CellSample; BackendChoice::COUNT]> {
        self.cells
            .iter()
            .map(|row| std::array::from_fn(|i| row[i].snapshot()))
            .collect()
    }

    /// Snapshot of the per-arm top-k cells.
    pub fn topk_samples(&self) -> [CellSample; BackendChoice::COUNT] {
        std::array::from_fn(|i| self.topk[i].snapshot())
    }

    /// Total queries recorded (threshold + top-k).
    pub fn total(&self) -> u64 {
        let classes: u64 = self
            .cells
            .iter()
            .flat_map(|row| row.iter())
            .map(|c| c.count.load(Ordering::Relaxed))
            .sum();
        let topk: u64 = self.topk.iter().map(|c| c.count.load(Ordering::Relaxed)).sum();
        classes + topk
    }

    /// Pooled observed nanoseconds per arm (threshold + top-k), in
    /// [`BackendChoice::ALL`] order — what the serving layer mirrors
    /// into `STATS` as the per-arm latency registry.
    pub fn arm_nanos(&self) -> [u64; BackendChoice::COUNT] {
        std::array::from_fn(|i| {
            let classes: u64 = self
                .cells
                .iter()
                .map(|row| row[i].nanos.load(Ordering::Relaxed))
                .sum();
            classes + self.topk[i].nanos.load(Ordering::Relaxed)
        })
    }
}

/// One candidate execution arm of a [`RoutingCore`], owning its built
/// structure. Arms that read record bytes take the dataset as a call
/// argument, so one arm type serves a borrowed dataset
/// ([`AutoBackend`]) and a shard's owned one alike. The V7 and V8 arms
/// carry nothing: both read the core's one shared [`SortedView`].
enum Arm {
    /// Flat scan through the unified filter chain.
    ScanFlat(FilterChain),
    /// V7 sorted-prefix scan over the shared sorted view.
    ScanSorted,
    /// V8 bit-parallel sweep over the shared sorted view.
    ScanBitParallel,
    /// Compressed (radix) tree (modern pruning).
    Radix(RadixTrie),
    /// Inverted q-gram index (q = 2).
    Qgram(QgramIndex),
}

impl Arm {
    fn build(dataset: &Dataset, choice: BackendChoice) -> Self {
        match choice {
            BackendChoice::ScanFlat => Arm::ScanFlat(standard_chain(dataset)),
            BackendChoice::ScanSorted => Arm::ScanSorted,
            BackendChoice::ScanBitParallel => Arm::ScanBitParallel,
            BackendChoice::Radix => Arm::Radix(simsearch_index::radix::build(dataset)),
            BackendChoice::Qgram => Arm::Qgram(QgramIndex::build(dataset, 2)),
        }
    }
}

/// The planner-driven routing core: the one implementation of
/// per-query arm selection, shared by [`AutoBackend`] (the core plus a
/// borrowed dataset) and every frozen shard of a
/// [`crate::sharded::ShardedBackend`] (the core plus an owned
/// sub-dataset). Every method that touches records takes that dataset
/// as an argument; callers must pass the same one every time.
///
/// Arms are built lazily (a candidate the decision table never picks
/// costs nothing); [`RoutingCore::prepare`] forces every *chosen* arm
/// so no build lands inside a timed query. All arms return
/// byte-identical results (the workspace's cross-variant oracles), so
/// routing is a pure performance decision.
///
/// The planner is held behind an `RwLock<Arc<..>>` so a replan tick can
/// atomically swap in a freshly derived decision table while queries
/// are in flight: the hot path copies the decision out under a read
/// lock and never holds it across an arm call. Every routed query is
/// timed into the core's own [`ObservationGrid`], so each shard
/// accumulates its own evidence and replans to its own table.
pub(crate) struct RoutingCore {
    planner: RwLock<Arc<Planner>>,
    plan_epoch: AtomicU64,
    grid: ObservationGrid,
    sorted: OnceLock<SortedView>,
    arms: [OnceLock<Arm>; BackendChoice::COUNT],
    counters: [AtomicU64; BackendChoice::COUNT],
}

impl RoutingCore {
    /// A core with purely static (deterministic) planning over
    /// `candidates`.
    pub(crate) fn new(dataset: &Dataset, candidates: &[BackendChoice]) -> Self {
        Self {
            planner: RwLock::new(Arc::new(Planner::new(
                StatsSnapshot::compute(dataset),
                candidates,
            ))),
            plan_epoch: AtomicU64::new(0),
            grid: ObservationGrid::new(),
            sorted: OnceLock::new(),
            arms: std::array::from_fn(|_| OnceLock::new()),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// A core over [`AutoBackend::DEFAULT_CANDIDATES`] calibrated with
    /// a micro-probe: every candidate arm is built, one untimed pass
    /// warms it, then two timed per-query passes measure steady-state
    /// cost. The planner groups the timings by query class, so the
    /// static model's shape error is corrected class by class. The
    /// probe is paid at build time, and the calibrated table is the
    /// epoch-0 baseline, not a replan. An empty probe yields static
    /// planning.
    pub(crate) fn calibrated(dataset: &Dataset, probe: &Workload) -> Self {
        let core = Self::new(dataset, &AutoBackend::DEFAULT_CANDIDATES);
        if probe.queries.is_empty() {
            return core;
        }
        let mut observations = Vec::new();
        for &choice in &AutoBackend::DEFAULT_CANDIDATES {
            for q in &probe.queries {
                let _ = core.run_arm(dataset, choice, &q.text, q.threshold);
            }
            for _ in 0..2 {
                for q in &probe.queries {
                    let started = Instant::now();
                    let _ = core.run_arm(dataset, choice, &q.text, q.threshold);
                    observations.push(Observation {
                        choice,
                        query_len: q.text.len(),
                        k: q.threshold,
                        nanos: started.elapsed().as_nanos() as f64,
                    });
                }
            }
        }
        let snapshot = core.planner().snapshot().clone();
        *core.planner.write().expect("planner lock") = Arc::new(Planner::with_observations(
            snapshot,
            &AutoBackend::DEFAULT_CANDIDATES,
            &observations,
        ));
        core
    }

    /// The current planner — a cheap shared handle; a replan swaps the
    /// slot, never mutates the table behind an existing handle.
    pub(crate) fn planner(&self) -> Arc<Planner> {
        self.planner.read().expect("planner lock").clone()
    }

    /// Decision-table swaps since build (0 until the first
    /// [`RoutingCore::set_planner`] / [`RoutingCore::replan`]).
    pub(crate) fn plan_epoch(&self) -> u64 {
        self.plan_epoch.load(Ordering::Relaxed)
    }

    /// Atomically installs a replacement planner and bumps the plan
    /// epoch. Refuses (returns `false`) when the candidate set differs
    /// from the current one: counters, metrics label sets, and the
    /// lazily built arms are all keyed by the candidate list fixed at
    /// build time.
    pub(crate) fn set_planner(&self, planner: Planner) -> bool {
        let mut slot = self.planner.write().expect("planner lock");
        if planner.candidates() != slot.candidates() {
            return false;
        }
        *slot = Arc::new(planner);
        drop(slot);
        self.plan_epoch.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// One self-tuning tick: re-derives per-(arm, class) multipliers
    /// from the grid's live observations and swaps the fresh table in.
    /// Returns `false` without swapping when no cell has reached
    /// [`MIN_CELL_OBSERVATIONS`] yet — a thin grid must not overwrite a
    /// calibrated baseline with an all-1.0 table.
    pub(crate) fn replan(&self) -> bool {
        let current = self.planner();
        let next = Planner::with_class_samples(
            current.snapshot().clone(),
            current.candidates(),
            &self.grid.class_samples(),
            &self.grid.topk_samples(),
            MIN_CELL_OBSERVATIONS,
        );
        next.is_calibrated() && self.set_planner(next)
    }

    /// `(arm name, queries routed)` per candidate, in candidate order.
    pub(crate) fn plan_counts(&self) -> Vec<(&'static str, u64)> {
        self.per_candidate(|c| self.counters[c.index()].load(Ordering::Relaxed))
    }

    /// Pooled observed nanoseconds per candidate, in candidate order.
    pub(crate) fn arm_nanos(&self) -> Vec<(&'static str, u64)> {
        let nanos = self.grid.arm_nanos();
        self.per_candidate(|c| nanos[c.index()])
    }

    fn per_candidate(&self, value: impl Fn(BackendChoice) -> u64) -> Vec<(&'static str, u64)> {
        self.planner()
            .candidates()
            .iter()
            .map(|&c| (c.name(), value(c)))
            .collect()
    }

    /// Forces every arm the decision table can actually pick.
    pub(crate) fn prepare(&self, dataset: &Dataset) {
        let mut chosen: Vec<BackendChoice> =
            self.planner().decisions().iter().map(|d| d.chosen).collect();
        chosen.sort_by_key(|c| c.index());
        chosen.dedup();
        for choice in chosen {
            self.arm(dataset, choice);
        }
    }

    fn arm(&self, dataset: &Dataset, choice: BackendChoice) -> &Arm {
        self.arms[choice.index()].get_or_init(|| {
            if matches!(
                choice,
                BackendChoice::ScanSorted | BackendChoice::ScanBitParallel
            ) {
                self.sorted_view(dataset);
            }
            Arm::build(dataset, choice)
        })
    }

    fn sorted_view(&self, dataset: &Dataset) -> &SortedView {
        self.sorted.get_or_init(|| SortedView::build(dataset))
    }

    /// Answers one query on one arm, unrouted and untimed.
    fn run_arm(
        &self,
        dataset: &Dataset,
        choice: BackendChoice,
        query: &[u8],
        k: u32,
    ) -> (MatchSet, u64) {
        match self.arm(dataset, choice) {
            // `SequentialScan::new` allocates nothing (lazy internals),
            // and `search_filtered` touches only the borrowed dataset.
            Arm::ScanFlat(chain) => (
                SequentialScan::new(dataset).search_filtered(chain, query, k),
                0,
            ),
            Arm::ScanSorted => v7_search_view(self.sorted_view(dataset), query, k),
            Arm::ScanBitParallel => v8_search_view(self.sorted_view(dataset), query, k),
            Arm::Radix(r) => (r.search(query, k), 0),
            Arm::Qgram(q) => (q.search(dataset, query, k), 0),
        }
    }

    /// Routes one threshold query to the planner's arm, counts the
    /// decision, and times the arm into the observation grid.
    pub(crate) fn search_counting(
        &self,
        dataset: &Dataset,
        query: &[u8],
        k: u32,
    ) -> (MatchSet, u64) {
        // Copy the decision out under the read lock; never hold the
        // lock across the arm call, or a replan tick would stall behind
        // the slowest in-flight query.
        let (chosen, class, predicted, pruned) = {
            let planner = self.planner.read().expect("planner lock");
            let chosen = planner.decide(query.len(), k).chosen;
            let snapshot = planner.snapshot();
            // Length prune: ed(q, x) ≥ ||q| − |x||, so when the whole
            // length band lies outside |q| ± k no record can match and
            // the arm is skipped. Under `ShardBy::Len` shard bands are
            // narrow, which turns most of a fan-out into near-misses;
            // over a whole arena it fires only for hopeless queries.
            let (ql, kk) = (query.len() as u64, u64::from(k));
            let pruned = snapshot.records == 0
                || ql + kk < u64::from(snapshot.min_len)
                || ql.saturating_sub(kk) > u64::from(snapshot.max_len);
            (
                chosen,
                QueryClass::of(snapshot, query.len(), k),
                static_cost(snapshot, chosen, query.len(), k),
                pruned,
            )
        };
        // The planner decided even when the length bound answers.
        self.counters[chosen.index()].fetch_add(1, Ordering::Relaxed);
        if pruned {
            // The arm never ran, so nothing is recorded: a ~0 ns sample
            // would drag the arm's multipliers toward zero.
            return (MatchSet::default(), 0);
        }
        let started = Instant::now();
        let answer = self.run_arm(dataset, chosen, query, k);
        self.grid
            .record(class, chosen, started.elapsed().as_nanos() as u64, predicted);
        answer
    }

    /// Top-k routes on its own curve: the whole deepening run goes to
    /// the arm whose *summed* schedule cost is smallest, instead of
    /// re-deciding per radius on the threshold table (whose multipliers
    /// describe single probes, not re-entrant series).
    pub(crate) fn search_top_k_with(
        &self,
        dataset: &Dataset,
        query: &[u8],
        count: usize,
        max_radius: u32,
    ) -> (Vec<Match>, u64) {
        let (chosen, predicted) = {
            let planner = self.planner.read().expect("planner lock");
            let chosen = planner.decide_topk(query.len(), count, max_radius).chosen;
            (
                chosen,
                planner.topk_static_units(chosen, query.len(), count, max_radius),
            )
        };
        self.counters[chosen.index()].fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        let mut cells = 0u64;
        let matches = topk::search_top_k_with(
            |radius| {
                let (m, c) = self.run_arm(dataset, chosen, query, radius);
                cells += c;
                m
            },
            count,
            max_radius,
        );
        self.grid
            .record_topk(chosen, started.elapsed().as_nanos() as u64, predicted);
        (matches, cells)
    }

    /// Self-description under `name`, with the full plan report.
    pub(crate) fn diag(&self, name: String) -> BackendDiag {
        let planner = self.planner();
        BackendDiag {
            name,
            structure: None,
            filters: vec!["length", "frequency"],
            plan: Some(PlanReport {
                snapshot: planner.snapshot().clone(),
                decisions: planner.decisions().to_vec(),
                counts: self.plan_counts(),
                calibrated: planner.is_calibrated(),
            }),
        }
    }
}

/// The planner-driven backend: the routing core over a borrowed
/// dataset. It consults a [`Planner`] per query, routes to the
/// cheapest arm, counts every decision, and times every routed query
/// into an [`ObservationGrid`]; [`AutoBackend::replan`] closes the
/// self-tuning loop.
pub struct AutoBackend<'a> {
    dataset: &'a Dataset,
    threads: usize,
    core: RoutingCore,
}

impl<'a> AutoBackend<'a> {
    /// The default candidate set: every arm the planner knows.
    pub const DEFAULT_CANDIDATES: [BackendChoice; 5] = BackendChoice::ALL;

    /// Builds an auto backend with purely static (deterministic)
    /// planning over the default candidates.
    pub fn new(dataset: &'a Dataset, threads: usize) -> Self {
        Self {
            dataset,
            threads,
            core: RoutingCore::new(dataset, &Self::DEFAULT_CANDIDATES),
        }
    }

    /// Builds an auto backend and calibrates the planner with a
    /// micro-probe: every candidate arm is built, one untimed pass warms
    /// it, and two timed passes scale its cost hints per query class.
    /// Like index construction, the probe is paid at build time and
    /// excluded from query timing; the result is the epoch-0 baseline.
    /// An empty probe yields static planning.
    pub fn calibrated(dataset: &'a Dataset, threads: usize, probe: &Workload) -> Self {
        Self {
            dataset,
            threads,
            core: RoutingCore::calibrated(dataset, probe),
        }
    }

    /// The current planner (for `explain` and tests) — a cheap shared
    /// handle; a concurrent replan swaps the slot, never mutates the
    /// table behind an existing handle.
    pub fn planner(&self) -> Arc<Planner> {
        self.core.planner()
    }

    /// How many times the decision table has been swapped since build:
    /// 0 until the first [`AutoBackend::set_planner`] /
    /// [`AutoBackend::replan`], whether or not the build-time probe
    /// calibrated the baseline.
    pub fn plan_epoch(&self) -> u64 {
        self.core.plan_epoch()
    }

    /// The live latency registry this backend records into.
    pub fn observations(&self) -> &ObservationGrid {
        &self.core.grid
    }

    /// Pooled observed nanoseconds per candidate, in candidate order —
    /// the serving layer's `STATS` view of the latency registry.
    pub fn observed_arm_nanos(&self) -> Vec<(&'static str, u64)> {
        self.core.arm_nanos()
    }

    /// Atomically installs a replacement planner and bumps the plan
    /// epoch; refuses (returns `false`) a different candidate set. This
    /// is how a restarted daemon installs persisted calibration — which
    /// is why the epoch starts above 0 after a successful restore.
    pub fn set_planner(&self, planner: Planner) -> bool {
        self.core.set_planner(planner)
    }

    /// One self-tuning tick: re-derives per-(arm, class) multipliers
    /// from the observation grid and swaps the fresh table in. `false`
    /// without swapping while no cell has reached
    /// [`MIN_CELL_OBSERVATIONS`].
    pub fn replan(&self) -> bool {
        self.core.replan()
    }

    /// A small deterministic probe workload drawn from the dataset
    /// itself: up to 16 evenly spaced records, each queried at a
    /// threshold scaled to the mean length (≈10%, clamped to 1..=8) —
    /// the shape of the paper's §5 protocol, which queries with
    /// (mutated) records. Long-lived consumers with no workload in
    /// hand (the serving daemon) calibrate with this.
    pub fn default_probe(dataset: &Dataset) -> Workload {
        let n = dataset.len();
        let mut queries = Vec::new();
        if n > 0 {
            let count = n.min(16);
            let mean = dataset.arena_len() / n;
            let k = (mean / 10).clamp(1, 8) as u32;
            for i in 0..count {
                let id = (i * n / count) as u32;
                queries.push(simsearch_data::QueryRecord::new(
                    dataset.get(id).to_vec(),
                    k,
                ));
            }
        }
        Workload { queries }
    }

    /// `(backend name, queries routed)` per candidate, in candidate
    /// order. Counts accumulate over the backend's lifetime.
    pub fn plan_counts(&self) -> Vec<(&'static str, u64)> {
        self.core.plan_counts()
    }
}

impl Backend for AutoBackend<'_> {
    fn name(&self) -> String {
        format!(
            "auto[{}]",
            if self.planner().is_calibrated() {
                "calibrated"
            } else {
                "static"
            }
        )
    }

    fn prepare(&self) {
        self.core.prepare(self.dataset);
    }

    fn search(&self, query: &[u8], k: u32) -> MatchSet {
        self.search_counting(query, k).0
    }

    fn search_counting(&self, query: &[u8], k: u32) -> (MatchSet, u64) {
        self.core.search_counting(self.dataset, query, k)
    }

    fn search_top_k_with(
        &self,
        query: &[u8],
        count: usize,
        max_radius: u32,
    ) -> (Vec<Match>, u64) {
        self.core
            .search_top_k_with(self.dataset, query, count, max_radius)
    }

    fn diag(&self) -> BackendDiag {
        self.core.diag(self.name())
    }

    fn plan_counts(&self) -> Option<Vec<(&'static str, u64)>> {
        Some(self.core.plan_counts())
    }

    fn replan_tick(&self) -> Option<u64> {
        Some(u64::from(self.replan()))
    }

    fn plan_epoch_total(&self) -> Option<u64> {
        Some(self.plan_epoch())
    }

    fn arm_nanos(&self) -> Option<Vec<(&'static str, u64)>> {
        Some(self.core.arm_nanos())
    }

    fn calibration(&self) -> Option<Arc<Planner>> {
        Some(self.planner())
    }

    fn restore_calibration(&self, planner: Planner) -> bool {
        self.set_planner(planner)
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

    fn run_workload(&self, workload: &Workload) -> Vec<MatchSet> {
        self.run_with_strategy(workload, auto_strategy(workload.len(), self.threads))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simsearch_data::QueryRecord;

    fn dataset() -> Dataset {
        Dataset::from_records([
            "Berlin", "Bern", "Bonn", "Ulm", "Bärlin", "Berlingen", "B", "", "Ber",
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
        let scan = SequentialScan::new(ds);
        scan.run(SeqVariant::V1Base, w)
    }

    #[test]
    fn every_trait_backend_agrees_with_the_oracle() {
        let ds = dataset();
        let w = workload();
        let expected = oracle(&ds, &w);
        let backends: Vec<Box<dyn Backend + '_>> = vec![
            Box::new(ScanBackend::new(SequentialScan::new(&ds), SeqVariant::V4Flat)),
            Box::new(FilteredScanBackend::new(&ds, Strategy::Sequential)),
            Box::new(SortedScanBackend::new(SequentialScan::new(&ds))),
            Box::new(BitParallelScanBackend::new(SequentialScan::new(&ds))),
            Box::new(TrieBackend::build(&ds, true)),
            Box::new(TrieBackend::build(&ds, false)),
            Box::new(RadixBackend::build(&ds, false, Strategy::Sequential)),
            Box::new(RadixBackend::build_with_freq(&ds, Strategy::Sequential)),
            Box::new(QgramBackend::build(&ds, 2, Strategy::Sequential)),
            Box::new(AutoBackend::new(&ds, 1)),
            Box::new(AutoBackend::calibrated(&ds, 2, &w)),
        ];
        for b in &backends {
            b.prepare();
            assert_eq!(b.run_workload(&w), expected, "backend {}", b.name());
            for strategy in [
                Strategy::Sequential,
                Strategy::FixedPool { threads: 2 },
                Strategy::WorkQueue { threads: 3 },
            ] {
                assert_eq!(
                    b.run_with_strategy(&w, strategy),
                    expected,
                    "backend {} strategy {}",
                    b.name(),
                    strategy.name()
                );
            }
        }
    }

    #[test]
    fn auto_counts_every_routed_query() {
        let ds = dataset();
        let w = workload();
        let auto = AutoBackend::new(&ds, 1);
        let _ = auto.run_workload(&w);
        let total: u64 = auto.plan_counts().iter().map(|(_, c)| c).sum();
        assert_eq!(total, w.len() as u64);
        let diag = auto.diag();
        let plan = diag.plan.expect("auto reports its plan");
        assert_eq!(plan.counts, auto.plan_counts());
        assert!(!plan.decisions.is_empty());
    }

    #[test]
    fn auto_topk_matches_a_fixed_backend() {
        let ds = dataset();
        let auto = AutoBackend::new(&ds, 1);
        let scan = ScanBackend::new(SequentialScan::new(&ds), SeqVariant::V4Flat);
        let (a, _) = auto.search_top_k_with(b"Berlim", 3, 8);
        let (b, _) = scan.search_top_k_with(b"Berlim", 3, 8);
        assert_eq!(a, b);
        assert_eq!(a[0].id, 0);
    }

    #[test]
    fn replan_needs_a_minimum_of_observations_then_swaps() {
        let ds = dataset();
        let w = workload();
        let expected = oracle(&ds, &w);
        let auto = AutoBackend::new(&ds, 1);
        assert!(!auto.replan(), "an empty grid must not swap the table");
        assert_eq!(auto.plan_epoch(), 0);
        // Fill the routed cells past the gate, then close the loop.
        for _ in 0..MIN_CELL_OBSERVATIONS {
            assert_eq!(auto.run_workload(&w), expected);
        }
        assert!(auto.replan(), "a filled grid replans");
        assert_eq!(auto.plan_epoch(), 1);
        assert!(auto.planner().is_calibrated());
        assert_eq!(auto.run_workload(&w), expected, "replanned routing stays exact");
        let nanos: u64 = auto.observed_arm_nanos().iter().map(|(_, n)| n).sum();
        assert!(nanos > 0, "routed queries are timed into the grid");
    }

    #[test]
    fn set_planner_refuses_a_different_candidate_set() {
        let ds = dataset();
        let auto = AutoBackend::new(&ds, 1);
        let snap = auto.planner().snapshot().clone();
        let foreign = Planner::new(
            snap.clone(),
            &[BackendChoice::ScanFlat, BackendChoice::Radix],
        );
        assert!(!auto.set_planner(foreign), "candidate sets are fixed at build");
        assert_eq!(auto.plan_epoch(), 0);
        let same = Planner::new(snap, &AutoBackend::DEFAULT_CANDIDATES);
        assert!(auto.set_planner(same));
        assert_eq!(auto.plan_epoch(), 1);
    }

    #[test]
    fn auto_topk_records_into_the_topk_cells() {
        let ds = dataset();
        let auto = AutoBackend::new(&ds, 1);
        let (top, _) = auto.search_top_k_with(b"Berlim", 3, 8);
        assert_eq!(top[0].id, 0);
        let samples = auto.observations().topk_samples();
        let total: u64 = samples.iter().map(|c| c.count).sum();
        assert_eq!(total, 1, "one deepening run = one top-k observation");
    }

    #[test]
    fn sorted_scan_counts_cells() {
        let ds = dataset();
        let sorted = SortedScanBackend::new(SequentialScan::new(&ds));
        sorted.prepare();
        let (_, cells) = sorted.search_counting(b"Berlin", 2);
        assert!(cells > 0);
    }

    #[test]
    fn diag_reports_structures_and_filters() {
        let ds = dataset();
        let radix = RadixBackend::build(&ds, false, Strategy::Sequential);
        let d = radix.diag();
        assert!(d.structure.unwrap().0 > 1);
        assert_eq!(d.filters, vec!["length"]);
        assert!(d.plan.is_none());
        let filtered = FilteredScanBackend::new(&ds, Strategy::Sequential);
        assert_eq!(filtered.diag().filters, vec!["length", "frequency"]);
    }
}
