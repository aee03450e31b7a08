//! The unified search engine: every solution of the paper (and every
//! extension) behind one build/search interface.
//!
//! Since the planner refactor the engine is a thin veneer over the
//! [`Backend`] trait: `build` maps an [`EngineKind`] to one trait
//! object, and every engine method delegates. Scan and index code
//! paths are no longer parallel universes — the serving layer, the CLI,
//! and the benches all run the same `Backend` methods the engine does.

use crate::backend::{
    AutoBackend, Backend, BackendDiag, KernelScanBackend, QgramBackend, RadixBackend,
    ScanBackend, TrieBackend,
};
use crate::sharded::{ShardBy, ShardedBackend};
use simsearch_data::{Dataset, MatchSet, Workload};
use simsearch_distance::KernelKind;
use simsearch_parallel::Strategy;
use simsearch_scan::{SeqVariant, SequentialScan};

/// The rungs of the paper's *index* ladder (§4, Tables V/IX).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IdxVariant {
    /// Rung 1 (§4.1): uncompressed prefix tree with min/max-length
    /// pruning, single-threaded.
    I1BaseTrie,
    /// Rung 2 (§4.2): compressed (radix) tree, single-threaded.
    I2Compressed,
    /// Rung 3 (§4.3): compressed tree under a fixed thread pool.
    I3Pool {
        /// Number of pool threads.
        threads: usize,
    },
}

impl IdxVariant {
    /// The ladder exactly as evaluated in Tables V/IX.
    pub fn ladder(pool_threads: usize) -> [IdxVariant; 3] {
        [
            IdxVariant::I1BaseTrie,
            IdxVariant::I2Compressed,
            IdxVariant::I3Pool {
                threads: pool_threads,
            },
        ]
    }

    /// The paper's row label for this rung.
    pub fn label(self) -> String {
        match self {
            IdxVariant::I1BaseTrie => "1) Base implementation".into(),
            IdxVariant::I2Compressed => "2) Compression".into(),
            IdxVariant::I3Pool { threads } => {
                format!("3) Management of parallelism ({threads} threads)")
            }
        }
    }
}

/// Which solution an engine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// A rung of the sequential-scan ladder (§3).
    Scan(SeqVariant),
    /// A flat scan with an explicit kernel/executor pair (ablations).
    ScanCustom {
        /// Bounded-distance kernel.
        kernel: KernelKind,
        /// Workload executor.
        strategy: Strategy,
    },
    /// A rung of the index ladder (§4), with the paper's own pruning
    /// (full-width rows + prefix condition (9)/(10)).
    Index(IdxVariant),
    /// A rung of the index ladder with *modern* pruning (banded rows,
    /// row-minimum lemma, mid-edge abandonment) — an extension whose
    /// effect the `ablation_pruning` benchmark measures.
    IndexModern(IdxVariant),
    /// Radix tree with frequency-vector annotations (§6 future work).
    /// Tracks DNA symbols when the dataset is DNA, vowels otherwise.
    RadixFreq {
        /// Workload executor.
        strategy: Strategy,
    },
    /// Inverted q-gram index baseline.
    Qgram {
        /// Gram size.
        q: usize,
        /// Workload executor.
        strategy: Strategy,
    },
    /// Planner-driven backend selection: a
    /// [`Planner`](crate::planner::Planner) built from the dataset's
    /// statistics routes each query to the cheapest candidate backend.
    /// This variant plans statically (deterministically); use
    /// [`SearchEngine::build_auto`] to add a calibration probe.
    Auto {
        /// Worker threads for workload execution (1 = sequential).
        threads: usize,
    },
    /// Partitioned execution: the dataset is split into shards, each
    /// with its own planner-driven backend over its own statistics;
    /// queries fan out and per-shard results are k-way merged. This
    /// variant plans each shard statically (deterministically); the
    /// serving layer uses [`ShardedBackend::calibrated`] for measured
    /// per-shard routing.
    Sharded {
        /// Number of shards (clamped to ≥ 1).
        shards: usize,
        /// How records are assigned to shards.
        by: ShardBy,
        /// Worker threads for fan-out and workload execution.
        threads: usize,
    },
    /// Live ingest: an LSM-shaped [`LiveEngine`](crate::lsm::LiveEngine)
    /// (append-only memtable + tombstones in front of immutable V7
    /// segments) seeded from the dataset. Mutable — the serving
    /// layer's `--live` mode.
    Live {
        /// Memtable flush threshold (records).
        memtable_cap: usize,
    },
    /// Sharded live ingest: [`ShardedBackend::live`] — every shard a
    /// [`LiveEngine`](crate::lsm::LiveEngine), inserts routed by
    /// content hash from one global id space, deletes routed to the
    /// owning shard. The serving layer's `--live --shards N` mode.
    /// Validate with [`EngineKind::validate`] before building: the
    /// `len` partitioner with ≥ 2 shards and a zero memtable cap are
    /// both rejected.
    ShardedLive {
        /// Number of shards (clamped to ≥ 1).
        shards: usize,
        /// How records are assigned to shards (`hash` required at ≥ 2
        /// shards).
        by: ShardBy,
        /// Worker threads for fan-out and workload execution.
        threads: usize,
        /// Per-shard memtable flush threshold (records).
        memtable_cap: usize,
    },
}

impl EngineKind {
    /// Checks constraints that [`build_backend`] would otherwise panic
    /// on — currently only [`EngineKind::ShardedLive`] has any (the
    /// `len` partitioner with ≥ 2 shards, a zero memtable cap, > 256
    /// shards). Callers that build from untrusted input (the CLI, the
    /// serving layer's `spawn`) surface the message as a usage error.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            EngineKind::ShardedLive {
                shards,
                by,
                threads,
                memtable_cap,
            } => {
                // Probe-build on an empty dataset: `ShardedBackend::live`
                // owns the real rules; this just runs them early.
                crate::sharded::ShardedBackend::live(
                    &Dataset::new(),
                    shards,
                    by,
                    threads,
                    crate::lsm::LsmConfig { memtable_cap },
                )
                .map(|_| ())
            }
            _ => Ok(()),
        }
    }

    /// Human-readable name for reports.
    pub fn name(&self) -> String {
        match self {
            EngineKind::Scan(v) => format!("scan[{}]", v.label()),
            EngineKind::ScanCustom { kernel, strategy } => {
                format!("scan[{}/{}]", kernel.name(), strategy.name())
            }
            EngineKind::Index(v) => format!("index[{}]", v.label()),
            EngineKind::IndexModern(v) => format!("index-modern[{}]", v.label()),
            EngineKind::RadixFreq { strategy } => format!("index[freq/{}]", strategy.name()),
            EngineKind::Qgram { q, strategy } => format!("qgram[q={q}/{}]", strategy.name()),
            EngineKind::Auto { threads } => format!("auto[threads={threads}]"),
            EngineKind::Sharded {
                shards,
                by,
                threads,
            } => format!("sharded[s={shards}/{}/threads={threads}]", by.name()),
            EngineKind::Live { memtable_cap } => format!("live[lsm/cap={memtable_cap}]"),
            EngineKind::ShardedLive {
                shards,
                by,
                threads,
                memtable_cap,
            } => format!(
                "sharded-live[s={shards}/{}/cap={memtable_cap}/threads={threads}]",
                by.name()
            ),
        }
    }
}

/// Maps an [`EngineKind`] to its trait-object backend (the single
/// factory every consumer goes through).
pub fn build_backend<'a>(dataset: &'a Dataset, kind: EngineKind) -> Box<dyn Backend + 'a> {
    match kind {
        EngineKind::Scan(v) => Box::new(ScanBackend::new(SequentialScan::new(dataset), v)),
        EngineKind::ScanCustom { kernel, strategy } => Box::new(KernelScanBackend::new(
            SequentialScan::new(dataset),
            kernel,
            strategy,
        )),
        EngineKind::Index(v) | EngineKind::IndexModern(v) => {
            let paper = matches!(kind, EngineKind::Index(_));
            match v {
                IdxVariant::I1BaseTrie => Box::new(TrieBackend::build(dataset, paper)),
                IdxVariant::I2Compressed => {
                    Box::new(RadixBackend::build(dataset, paper, Strategy::Sequential))
                }
                IdxVariant::I3Pool { threads } => Box::new(RadixBackend::build(
                    dataset,
                    paper,
                    Strategy::FixedPool { threads },
                )),
            }
        }
        EngineKind::RadixFreq { strategy } => {
            Box::new(RadixBackend::build_with_freq(dataset, strategy))
        }
        EngineKind::Qgram { q, strategy } => Box::new(QgramBackend::build(dataset, q, strategy)),
        EngineKind::Auto { threads } => Box::new(AutoBackend::new(dataset, threads)),
        EngineKind::Sharded {
            shards,
            by,
            threads,
        } => Box::new(ShardedBackend::build(dataset, shards, by, threads)),
        EngineKind::Live { memtable_cap } => Box::new(crate::lsm::LiveEngine::from_dataset(
            dataset,
            crate::lsm::LsmConfig { memtable_cap },
        )),
        EngineKind::ShardedLive {
            shards,
            by,
            threads,
            memtable_cap,
        } => Box::new(
            // Panics on an invalid combination; run `EngineKind::validate`
            // first when the kind comes from untrusted input.
            ShardedBackend::live(
                dataset,
                shards,
                by,
                threads,
                crate::lsm::LsmConfig { memtable_cap },
            )
            .expect("invalid ShardedLive configuration (EngineKind::validate catches this)"),
        ),
    }
}

/// A built search engine over one dataset.
pub struct SearchEngine<'a> {
    dataset: &'a Dataset,
    kind: EngineKind,
    backend: Box<dyn Backend + 'a>,
}

impl<'a> SearchEngine<'a> {
    /// Builds the engine (index construction happens here; the paper
    /// excludes build time from its query-time measurements, and so do
    /// the benchmarks — [`Backend::prepare`] runs now, so no auxiliary
    /// structure is built inside the first timed query).
    pub fn build(dataset: &'a Dataset, kind: EngineKind) -> Self {
        let backend = build_backend(dataset, kind);
        backend.prepare();
        Self {
            dataset,
            kind,
            backend,
        }
    }

    /// Builds a planner-driven engine, optionally calibrating the
    /// planner with a micro-probe workload (run through every
    /// candidate backend at build time — like index construction, the
    /// cost is excluded from query timing). Without a probe this is
    /// `build(dataset, EngineKind::Auto { threads })`.
    pub fn build_auto(
        dataset: &'a Dataset,
        threads: usize,
        probe: Option<&Workload>,
    ) -> Self {
        let backend: Box<dyn Backend + 'a> = match probe {
            Some(p) => Box::new(AutoBackend::calibrated(dataset, threads, p)),
            None => Box::new(AutoBackend::new(dataset, threads)),
        };
        backend.prepare();
        Self {
            dataset,
            kind: EngineKind::Auto { threads },
            backend,
        }
    }

    /// Wraps a pre-built [`SequentialScan`] as a scan engine without
    /// rebuilding its auxiliary structures — the serving layer's entry
    /// point: the daemon calls [`SequentialScan::prepare`] once at
    /// startup and every subsequent request reuses the prepared state
    /// (owned copies, sorted view) across its whole lifetime.
    ///
    /// `prepare(variant)` is still invoked here (it is idempotent), so a
    /// caller that forgot to prepare pays the cost now rather than in
    /// the first query.
    pub fn from_scan(scan: SequentialScan<'a>, variant: SeqVariant) -> Self {
        scan.prepare(variant);
        let dataset = scan.dataset();
        Self {
            dataset,
            kind: EngineKind::Scan(variant),
            backend: Box::new(ScanBackend::new(scan, variant)),
        }
    }

    /// The engine's kind.
    pub fn kind(&self) -> EngineKind {
        self.kind
    }

    /// Human-readable name.
    pub fn name(&self) -> String {
        self.kind.name()
    }

    /// The dataset this engine searches.
    pub fn dataset(&self) -> &Dataset {
        self.dataset
    }

    /// The backend behind the engine (the serving layer and `explain`
    /// reach trait-level methods — cell counting, top-k, diagnostics —
    /// through this).
    pub fn backend(&self) -> &dyn Backend {
        self.backend.as_ref()
    }

    /// Answers one query.
    pub fn search(&self, query: &[u8], k: u32) -> MatchSet {
        self.backend.search(query, k)
    }

    /// Executes a whole workload (this is the quantity the paper times).
    pub fn run(&self, workload: &Workload) -> Vec<MatchSet> {
        self.backend.run_workload(workload)
    }

    /// Executes a workload under an explicit executor, overriding
    /// whatever scheduling the engine kind implies. The serving layer's
    /// micro-batches go through here: the batch scheduler picks the
    /// strategy per batch (sequential for tiny batches, pooled for
    /// large ones) regardless of which rung answers the queries.
    ///
    /// Results are identical to [`SearchEngine::run`] for every kind.
    pub fn run_with_strategy(&self, workload: &Workload, strategy: Strategy) -> Vec<MatchSet> {
        self.backend.run_with_strategy(workload, strategy)
    }

    /// The backend's self-description (name, structure statistics,
    /// filter names, and — for auto engines — the recorded plan).
    pub fn diag(&self) -> BackendDiag {
        self.backend.diag()
    }

    /// Index-structure statistics, when the backend has a structure
    /// (`(node or posting count, approximate bytes)`).
    pub fn index_stats(&self) -> Option<(usize, usize)> {
        self.backend.diag().structure
    }

    /// `(backend name, queries routed)` counters, when the engine is
    /// planner-driven.
    pub fn plan_counts(&self) -> Option<Vec<(&'static str, u64)>> {
        self.backend.plan_counts()
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

    fn all_kinds() -> Vec<EngineKind> {
        vec![
            EngineKind::Scan(SeqVariant::V1Base),
            EngineKind::Scan(SeqVariant::V4Flat),
            EngineKind::Scan(SeqVariant::V6Pool { threads: 2 }),
            EngineKind::Scan(SeqVariant::V7SortedPrefix),
            EngineKind::Scan(SeqVariant::V8BitParallel),
            EngineKind::ScanCustom {
                kernel: KernelKind::Banded,
                strategy: Strategy::WorkQueue { threads: 2 },
            },
            EngineKind::Index(IdxVariant::I1BaseTrie),
            EngineKind::Index(IdxVariant::I2Compressed),
            EngineKind::Index(IdxVariant::I3Pool { threads: 2 }),
            EngineKind::IndexModern(IdxVariant::I1BaseTrie),
            EngineKind::IndexModern(IdxVariant::I2Compressed),
            EngineKind::IndexModern(IdxVariant::I3Pool { threads: 2 }),
            EngineKind::RadixFreq {
                strategy: Strategy::Sequential,
            },
            EngineKind::Qgram {
                q: 2,
                strategy: Strategy::Sequential,
            },
            EngineKind::Auto { threads: 1 },
            EngineKind::Auto { threads: 2 },
            EngineKind::Sharded {
                shards: 1,
                by: crate::sharded::ShardBy::Len,
                threads: 1,
            },
            EngineKind::Sharded {
                shards: 3,
                by: crate::sharded::ShardBy::Len,
                threads: 2,
            },
            EngineKind::Sharded {
                shards: 3,
                by: crate::sharded::ShardBy::Hash,
                threads: 1,
            },
            EngineKind::Sharded {
                shards: 16,
                by: crate::sharded::ShardBy::Hash,
                threads: 2,
            },
            EngineKind::Live { memtable_cap: 4 },
            EngineKind::ShardedLive {
                shards: 1,
                by: crate::sharded::ShardBy::Len,
                threads: 1,
                memtable_cap: 4,
            },
            EngineKind::ShardedLive {
                shards: 4,
                by: crate::sharded::ShardBy::Hash,
                threads: 2,
                memtable_cap: 4,
            },
        ]
    }

    #[test]
    fn every_engine_agrees_on_single_queries() {
        let ds = dataset();
        let engines: Vec<SearchEngine> = all_kinds()
            .into_iter()
            .map(|k| SearchEngine::build(&ds, k))
            .collect();
        for q in ["Berlin", "Urm", "", "Xyz"] {
            for k in 0..4 {
                let expected = engines[0].search(q.as_bytes(), k);
                for e in &engines[1..] {
                    assert_eq!(
                        e.search(q.as_bytes(), k),
                        expected,
                        "engine {} q={q} k={k}",
                        e.name()
                    );
                }
            }
        }
    }

    #[test]
    fn every_engine_agrees_on_workloads() {
        let ds = dataset();
        let workload = Workload {
            queries: vec![
                QueryRecord::new("Berlin", 2),
                QueryRecord::new("Ulm", 1),
                QueryRecord::new("", 0),
            ],
        };
        let engines: Vec<SearchEngine> = all_kinds()
            .into_iter()
            .map(|k| SearchEngine::build(&ds, k))
            .collect();
        let expected = engines[0].run(&workload);
        for e in &engines[1..] {
            assert_eq!(e.run(&workload), expected, "engine {}", e.name());
        }
    }

    #[test]
    fn from_scan_reuses_prepared_state_and_agrees() {
        let ds = dataset();
        let workload = Workload {
            queries: vec![
                QueryRecord::new("Berlin", 2),
                QueryRecord::new("Ulm", 1),
                QueryRecord::new("", 0),
            ],
        };
        let reference = SearchEngine::build(&ds, EngineKind::Scan(SeqVariant::V1Base));
        let expected = reference.run(&workload);
        for v in [
            SeqVariant::V4Flat,
            SeqVariant::V7SortedPrefix,
            SeqVariant::V1Base,
        ] {
            let scan = simsearch_scan::SequentialScan::new(&ds);
            scan.prepare(v);
            let engine = SearchEngine::from_scan(scan, v);
            assert_eq!(engine.kind(), EngineKind::Scan(v));
            assert_eq!(engine.run(&workload), expected, "variant {v:?}");
            assert_eq!(engine.dataset().len(), ds.len());
        }
    }

    #[test]
    fn run_with_strategy_matches_run_for_every_engine() {
        let ds = dataset();
        let workload = Workload {
            queries: vec![
                QueryRecord::new("Berlin", 2),
                QueryRecord::new("Bonn", 1),
                QueryRecord::new("zzz", 3),
                QueryRecord::new("", 1),
            ],
        };
        for kind in all_kinds() {
            let engine = SearchEngine::build(&ds, kind);
            let expected = engine.run(&workload);
            for strategy in [
                Strategy::Sequential,
                Strategy::FixedPool { threads: 2 },
                Strategy::WorkQueue { threads: 3 },
            ] {
                assert_eq!(
                    engine.run_with_strategy(&workload, strategy),
                    expected,
                    "engine {} strategy {}",
                    engine.name(),
                    strategy.name()
                );
            }
        }
    }

    #[test]
    fn index_stats_present_only_for_structures() {
        let ds = dataset();
        let scan = SearchEngine::build(&ds, EngineKind::Scan(SeqVariant::V4Flat));
        assert!(scan.index_stats().is_none());
        let trie = SearchEngine::build(&ds, EngineKind::Index(IdxVariant::I1BaseTrie));
        let (nodes, bytes) = trie.index_stats().unwrap();
        assert!(nodes > 1);
        assert!(bytes > 0);
    }

    #[test]
    fn build_auto_agrees_with_the_oracle_with_and_without_probe() {
        let ds = dataset();
        let workload = Workload {
            queries: vec![
                QueryRecord::new("Berlin", 2),
                QueryRecord::new("Ulm", 1),
                QueryRecord::new("", 0),
            ],
        };
        let reference = SearchEngine::build(&ds, EngineKind::Scan(SeqVariant::V1Base));
        let expected = reference.run(&workload);
        for probe in [None, Some(&workload)] {
            let auto = SearchEngine::build_auto(&ds, 2, probe);
            assert_eq!(auto.kind(), EngineKind::Auto { threads: 2 });
            assert_eq!(auto.run(&workload), expected, "probe {:?}", probe.is_some());
        }
    }

    #[test]
    fn plan_counts_present_only_for_auto() {
        let ds = dataset();
        let workload = Workload {
            queries: vec![QueryRecord::new("Berlin", 2), QueryRecord::new("Ulm", 1)],
        };
        let scan = SearchEngine::build(&ds, EngineKind::Scan(SeqVariant::V4Flat));
        assert!(scan.plan_counts().is_none());
        let auto = SearchEngine::build(&ds, EngineKind::Auto { threads: 1 });
        let _ = auto.run(&workload);
        let counts = auto.plan_counts().expect("auto engines count decisions");
        assert_eq!(
            counts.iter().map(|(_, c)| c).sum::<u64>(),
            workload.len() as u64
        );
        assert!(auto.diag().plan.is_some());
    }

    #[test]
    fn sharded_live_validation_fails_fast_on_bad_configurations() {
        let bad_len = EngineKind::ShardedLive {
            shards: 2,
            by: crate::sharded::ShardBy::Len,
            threads: 1,
            memtable_cap: 4,
        };
        let err = bad_len.validate().unwrap_err();
        assert!(err.contains("--shard-by hash"), "actionable: {err}");
        let bad_cap = EngineKind::ShardedLive {
            shards: 2,
            by: crate::sharded::ShardBy::Hash,
            threads: 1,
            memtable_cap: 0,
        };
        assert!(bad_cap.validate().unwrap_err().contains("--memtable-cap"));
        let good = EngineKind::ShardedLive {
            shards: 4,
            by: crate::sharded::ShardBy::Hash,
            threads: 2,
            memtable_cap: 64,
        };
        assert!(good.validate().is_ok());
        // A single live shard routes trivially, so `len` is accepted.
        let single = EngineKind::ShardedLive {
            shards: 1,
            by: crate::sharded::ShardBy::Len,
            threads: 1,
            memtable_cap: 64,
        };
        assert!(single.validate().is_ok());
    }

    #[test]
    fn names_are_informative() {
        assert!(EngineKind::Index(IdxVariant::I2Compressed)
            .name()
            .contains("Compression"));
        assert!(EngineKind::Qgram {
            q: 3,
            strategy: Strategy::Sequential
        }
        .name()
        .contains("q=3"));
    }
}
