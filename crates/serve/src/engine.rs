//! The daemon-side engine wrapper: one prepared backend, shared by
//! every request for the server's whole lifetime.
//!
//! This is a thin shell over the [`Backend`] trait: `build` maps the
//! configured [`EngineKind`] to one trait object (calibrating the
//! planners when the kind is `Auto` or `Sharded`), prepares it once at
//! startup, and every request reuses the prepared state. Everything
//! beyond reads — the replan tick, the plan epoch, calibration
//! save/restore, `arm_nanos`, and `INSERT`/`DELETE`/compaction — goes
//! through the trait's capability methods, so the daemon holds one
//! engine handle whatever the kind.

use crate::metrics::Metrics;
use crate::protocol::JoinAlgo;
use simsearch_core::{
    build_backend, calibration, min_join_with_stats, pass_join_with_stats, AutoBackend, Backend,
    EngineKind, JoinPair, JoinStats, MinJoinConfig, ShardedBackend, Strategy,
};
use simsearch_data::{Dataset, Match, MatchSet};
use std::path::Path;

/// The engine a running `simsearchd` answers with.
pub(crate) struct ServedEngine<'a> {
    backend: Box<dyn Backend + 'a>,
    /// The frozen seed dataset — `JOIN` runs over this. Live engines
    /// refuse `JOIN` (the dataset shifts under the join), so the field
    /// staying at the seed is never observable there.
    dataset: &'a Dataset,
    name: String,
    records: usize,
}

impl<'a> ServedEngine<'a> {
    /// Builds (and prepares) the backend once, at server startup.
    /// Planner-driven kinds calibrate with a micro-probe drawn from the
    /// data ([`AutoBackend::default_probe`] — per shard for `Sharded`):
    /// build cost, like index construction, lands here and not in the
    /// first request.
    pub fn build(dataset: &'a Dataset, kind: EngineKind) -> Self {
        let backend: Box<dyn Backend + 'a> = match kind {
            EngineKind::Auto { threads } => Box::new(AutoBackend::calibrated(
                dataset,
                threads,
                &AutoBackend::default_probe(dataset),
            )),
            EngineKind::Sharded {
                shards,
                by,
                threads,
            } => Box::new(ShardedBackend::calibrated(dataset, shards, by, threads)),
            other => build_backend(dataset, other),
        };
        backend.prepare();
        Self {
            backend,
            dataset,
            name: kind.name(),
            records: dataset.len(),
        }
    }

    /// Whether this engine accepts `INSERT`/`DELETE`.
    pub fn is_live(&self) -> bool {
        self.backend.as_mutable().is_some()
    }

    /// Appends a record on a live engine; `None` on read-only engines.
    pub fn insert(&self, record: &[u8]) -> Option<u32> {
        self.backend.as_mutable().map(|l| l.insert(record))
    }

    /// Tombstones a record on a live engine; `None` on read-only
    /// engines, `Some(existed)` otherwise.
    pub fn delete(&self, id: u32) -> Option<bool> {
        self.backend.as_mutable().map(|l| l.delete(id))
    }

    /// Self-joins the frozen dataset within distance `k`; `None` on
    /// live engines, whose dataset can shift mid-join. Runs
    /// sequentially — like the search kernels, a served join draws its
    /// concurrency from the batch workers rather than nesting a pool
    /// per request.
    pub fn join(&self, k: u32, algo: JoinAlgo) -> Option<(Vec<JoinPair>, JoinStats)> {
        if self.is_live() {
            return None;
        }
        Some(match algo {
            JoinAlgo::Pass => pass_join_with_stats(self.dataset, k, Strategy::Sequential),
            JoinAlgo::MinJoin => min_join_with_stats(
                self.dataset,
                k,
                Strategy::Sequential,
                MinJoinConfig::default(),
            ),
        })
    }

    /// Runs one compaction step on a live engine when one is due.
    /// Called by the batch workers between chunks — compaction rides
    /// the worker threads, no dedicated compaction thread needed.
    pub fn maybe_compact(&self) -> bool {
        self.backend
            .as_mutable()
            .is_some_and(|l| l.maybe_compact())
    }

    /// Publishes the live engine's structural state into the metrics
    /// registry (no-op for frozen engines). Called beside
    /// [`ServedEngine::publish_plan`] after every executed chunk. The
    /// aggregate gauges are sums over shards (for sharded-live engines),
    /// so the per-shard `live_shards` entries sum to them by
    /// construction.
    pub fn publish_live(&self, metrics: &Metrics) {
        if let Some(live) = self.backend.as_mutable() {
            let stats = live.live_stats();
            metrics.memtable_len.set(stats.memtable_len);
            metrics.segments.set(stats.segments);
            metrics.tombstones.set(stats.tombstones);
            metrics.compactions.set(stats.compactions);
            metrics.inserts.set(stats.inserts);
            metrics.deletes.set(stats.deletes);
            if let Some(per_shard) = live.live_shard_stats() {
                let labelled: Vec<(String, u64)> = per_shard
                    .iter()
                    .enumerate()
                    .flat_map(|(i, s)| {
                        [
                            (format!("s{i}.memtable_len"), s.memtable_len as u64),
                            (format!("s{i}.segments"), s.segments as u64),
                            (format!("s{i}.tombstones"), s.tombstones as u64),
                        ]
                    })
                    .collect();
                let refs: Vec<(&str, u64)> =
                    labelled.iter().map(|(n, c)| (n.as_str(), *c)).collect();
                metrics.live_shards.publish(&refs);
            }
        }
    }

    /// Engine label for `STATS`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Dataset size for `STATS`.
    pub fn records(&self) -> usize {
        self.records
    }

    /// Threshold search: all records within `k`, plus the DP cells the
    /// kernel reports (0 for kernels without cell counting).
    pub fn search(&self, query: &[u8], k: u32) -> (MatchSet, u64) {
        self.backend.search_counting(query, k)
    }

    /// Top-k search by iterative deepening, accumulating DP cells over
    /// the deepening probes.
    pub fn topk(&self, query: &[u8], count: usize, max_radius: u32) -> (Vec<Match>, u64) {
        self.backend.search_top_k_with(query, count, max_radius)
    }

    /// `(backend name, queries routed)` counters when the engine is
    /// planner-driven (`None` otherwise). The batch workers publish
    /// these into the metrics registry after every chunk.
    pub fn plan_counts(&self) -> Option<Vec<(&'static str, u64)>> {
        self.backend.plan_counts()
    }

    /// One self-tuning tick: re-derives the decision tables from the
    /// live observation grids and swaps them in atomically. Returns the
    /// number of accepted swaps — 0 when the engine has no tunable
    /// planner, when the grids are still too thin
    /// ([`simsearch_core::MIN_CELL_OBSERVATIONS`]), or when nothing
    /// changed (a live engine's segment arm only counts when it flips).
    /// Sharded engines tick every shard, so a freshly flushed shard can
    /// move to its V7/V8 segments while a memtable-heavy neighbour
    /// keeps the flat scan.
    pub fn replan(&self) -> u64 {
        self.backend.replan_tick().unwrap_or(0)
    }

    /// The engine's plan epoch: 0 until the first accepted swap, then
    /// +1 per swap (summed over shards for sharded engines). A restart
    /// that installs persisted calibration starts above 0.
    pub fn plan_epoch(&self) -> u64 {
        self.backend.plan_epoch_total().unwrap_or(0)
    }

    /// Restores persisted calibration into the planner and swaps it in,
    /// bumping the plan epoch above 0. Returns `false` — leaving the
    /// static table in place — when the engine has no persistable
    /// calibration (only unsharded `auto` has), the file is missing or
    /// unreadable, or the persisted snapshot mismatches the dataset
    /// being served (stale calibration must not route today's data).
    pub fn install_calibration(&self, path: &Path) -> bool {
        let Some(current) = self.backend.calibration() else {
            return false;
        };
        calibration::load_calibration(path, current.snapshot(), current.candidates())
            .is_some_and(|restored| self.backend.restore_calibration(restored))
    }

    /// Persists the current calibrated planner next to a freshly built
    /// radix index. `Ok(false)` when the engine has nothing to persist.
    ///
    /// # Errors
    /// Any underlying I/O error from writing the dump.
    pub fn save_calibration(&self, path: &Path) -> std::io::Result<bool> {
        let Some(planner) = self.backend.calibration() else {
            return Ok(false);
        };
        calibration::save_calibration(path, self.dataset, &planner)?;
        Ok(true)
    }

    /// Mirrors the replanning state into the metrics registry: the
    /// current plan epoch and the pooled per-arm observed nanoseconds
    /// the next replan will derive its multipliers from (summed over
    /// shards for sharded engines).
    pub fn publish_replan(&self, metrics: &Metrics) {
        metrics.plan_epoch.set(self.plan_epoch());
        if let Some(nanos) = self.backend.arm_nanos() {
            metrics.arm_nanos.publish(&nanos);
        }
    }

    /// Publishes the engine's routing state into the metrics registry:
    /// `plan_decisions` gets the cross-shard aggregate per arm plus one
    /// `s{i}.{arm}` entry per shard and arm (sharded engines), and
    /// `shard_matches` gets per-shard cumulative match counts. Called
    /// by the batch workers after every executed chunk.
    pub fn publish_plan(&self, metrics: &Metrics) {
        let shards = self.backend.shard_stats();
        if let Some(counts) = self.plan_counts() {
            match &shards {
                Some(stats) => {
                    let mut labelled: Vec<(String, u64)> =
                        counts.iter().map(|&(n, c)| (n.to_string(), c)).collect();
                    for (i, s) in stats.iter().enumerate() {
                        for (n, c) in s.plan_counts.iter().flatten() {
                            labelled.push((format!("s{i}.{n}"), *c));
                        }
                    }
                    let refs: Vec<(&str, u64)> =
                        labelled.iter().map(|(n, c)| (n.as_str(), *c)).collect();
                    metrics.plan_decisions.publish(&refs);
                }
                None => metrics.plan_decisions.publish(&counts),
            }
        }
        if let Some(stats) = shards {
            let labelled: Vec<(String, u64)> = stats
                .iter()
                .enumerate()
                .map(|(i, s)| (format!("s{i}"), s.matches))
                .collect();
            let refs: Vec<(&str, u64)> = labelled.iter().map(|(n, c)| (n.as_str(), *c)).collect();
            metrics.shard_matches.publish(&refs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simsearch_core::{IdxVariant, SeqVariant};

    fn dataset() -> Dataset {
        Dataset::from_records(["Berlin", "Bern", "Bonn", "Ulm", "Berlingen", ""])
    }

    #[test]
    fn served_engines_agree_with_the_reference() {
        let ds = dataset();
        let reference = ServedEngine::build(&ds, EngineKind::Scan(SeqVariant::V1Base));
        let kinds = [
            EngineKind::Scan(SeqVariant::V4Flat),
            EngineKind::Scan(SeqVariant::V7SortedPrefix),
            EngineKind::Scan(SeqVariant::V8BitParallel),
            EngineKind::Index(IdxVariant::I2Compressed),
            EngineKind::Auto { threads: 1 },
        ];
        for kind in kinds {
            let engine = ServedEngine::build(&ds, kind);
            for q in ["Berlin", "Urm", ""] {
                for k in 0..3 {
                    let (want, _) = reference.search(q.as_bytes(), k);
                    let (got, _) = engine.search(q.as_bytes(), k);
                    assert_eq!(got, want, "{} q={q} k={k}", engine.name());
                }
                let (want_top, _) = reference.topk(q.as_bytes(), 3, 16);
                let (got_top, _) = engine.topk(q.as_bytes(), 3, 16);
                assert_eq!(got_top, want_top, "{} topk q={q}", engine.name());
            }
        }
    }

    #[test]
    fn v7_reports_dp_cells() {
        let ds = dataset();
        let engine = ServedEngine::build(&ds, EngineKind::Scan(SeqVariant::V7SortedPrefix));
        let (_, cells) = engine.search(b"Berlin", 2);
        assert!(cells > 0, "the V7 kernel counts its DP cells");
        let (_, v8_cells) = ServedEngine::build(&ds, EngineKind::Scan(SeqVariant::V8BitParallel))
            .search(b"Berlin", 2);
        assert!(v8_cells > 0, "the V8 kernel counts its DP cells too");
        let (_, flat_cells) =
            ServedEngine::build(&ds, EngineKind::Scan(SeqVariant::V4Flat)).search(b"Berlin", 2);
        assert_eq!(flat_cells, 0, "uncounted kernels report zero");
    }

    #[test]
    fn auto_engines_count_plan_decisions() {
        let ds = dataset();
        let fixed = ServedEngine::build(&ds, EngineKind::Scan(SeqVariant::V4Flat));
        assert!(fixed.plan_counts().is_none());
        let auto = ServedEngine::build(&ds, EngineKind::Auto { threads: 1 });
        let before: u64 = auto
            .plan_counts()
            .expect("auto engines expose counters")
            .iter()
            .map(|(_, c)| c)
            .sum();
        let _ = auto.search(b"Berlin", 2);
        let _ = auto.search(b"Ulm", 1);
        let after: u64 = auto
            .plan_counts()
            .unwrap()
            .iter()
            .map(|(_, c)| c)
            .sum();
        assert_eq!(after, before + 2);
    }

    #[test]
    fn replan_swaps_after_enough_observations_and_fixed_engines_ignore() {
        let ds = dataset();
        let fixed = ServedEngine::build(&ds, EngineKind::Scan(SeqVariant::V4Flat));
        assert_eq!(fixed.replan(), 0, "fixed engines have no planner");
        assert_eq!(fixed.plan_epoch(), 0);

        let auto = ServedEngine::build(&ds, EngineKind::Auto { threads: 1 });
        assert_eq!(auto.plan_epoch(), 0, "build-time calibration is epoch 0");
        assert_eq!(auto.replan(), 0, "no observations yet: swap refused");
        for _ in 0..simsearch_core::MIN_CELL_OBSERVATIONS {
            let _ = auto.search(b"Berlin", 1);
            let _ = auto.topk(b"Bern", 2, 8);
        }
        assert_eq!(auto.replan(), 1, "grid filled: the swap is accepted");
        assert_eq!(auto.plan_epoch(), 1);
        // Replanned routing still answers exactly like the oracle.
        let reference = ServedEngine::build(&ds, EngineKind::Scan(SeqVariant::V1Base));
        for q in ["Berlin", "Urm", ""] {
            for k in 0..3 {
                let (want, _) = reference.search(q.as_bytes(), k);
                let (got, _) = auto.search(q.as_bytes(), k);
                assert_eq!(got, want, "q={q} k={k}");
            }
        }
        let metrics = Metrics::new();
        auto.publish_replan(&metrics);
        assert_eq!(metrics.plan_epoch.get(), 1);
        let nanos = metrics.arm_nanos.snapshot();
        assert!(!nanos.is_empty(), "auto engines expose arm nanos");
        assert!(
            nanos.iter().any(|(_, n)| *n > 0),
            "observed latencies are nonzero: {nanos:?}"
        );
    }

    #[test]
    fn calibration_persists_across_an_engine_rebuild() {
        let ds = dataset();
        let path = std::env::temp_dir().join(format!(
            "simsearch-served-calib-{}",
            std::process::id()
        ));
        {
            let auto = ServedEngine::build(&ds, EngineKind::Auto { threads: 1 });
            for _ in 0..simsearch_core::MIN_CELL_OBSERVATIONS {
                let _ = auto.search(b"Berlin", 1);
            }
            assert_eq!(auto.replan(), 1);
            assert!(auto.save_calibration(&path).unwrap());
        }
        // The "restarted daemon": a fresh engine over the same dataset
        // installs yesterday's calibration, starting above epoch 0.
        let restarted = ServedEngine::build(&ds, EngineKind::Auto { threads: 1 });
        assert!(restarted.install_calibration(&path));
        assert!(restarted.plan_epoch() > 0, "restored swap counts as an epoch");
        // A daemon serving *different* data refuses the stale file.
        let other = Dataset::from_records(["ACGT", "ACGA", "TTTT"]);
        let mismatched = ServedEngine::build(&other, EngineKind::Auto { threads: 1 });
        assert!(!mismatched.install_calibration(&path));
        assert_eq!(mismatched.plan_epoch(), 0, "fallback keeps the static table");
        std::fs::remove_file(&path).unwrap();
        // Frozen engines have nothing to persist.
        let fixed = ServedEngine::build(&ds, EngineKind::Scan(SeqVariant::V4Flat));
        assert!(!fixed.save_calibration(&path).unwrap());
        assert!(!path.exists());
    }

    #[test]
    fn capabilities_follow_the_engine_kind() {
        use simsearch_core::{KernelKind, ShardBy};
        let ds = dataset();
        let path = std::env::temp_dir().join(format!(
            "simsearch-served-capabilities-{}",
            std::process::id()
        ));
        let (hash, seq) = (ShardBy::Hash, Strategy::Sequential);
        // (kind, mutable, planner, persisted calibration)
        #[rustfmt::skip]
        let table = [
            (EngineKind::Scan(SeqVariant::V4Flat), false, false, false),
            (EngineKind::ScanCustom { kernel: KernelKind::Myers, strategy: seq }, false, false, false),
            (EngineKind::Index(IdxVariant::I1BaseTrie), false, false, false),
            (EngineKind::IndexModern(IdxVariant::I2Compressed), false, false, false),
            (EngineKind::RadixFreq { strategy: seq }, false, false, false),
            (EngineKind::Qgram { q: 2, strategy: seq }, false, false, false),
            (EngineKind::Auto { threads: 1 }, false, true, true),
            (EngineKind::Sharded { shards: 2, by: hash, threads: 1 }, false, true, false),
            (EngineKind::Live { memtable_cap: 2 }, true, true, false),
            (EngineKind::ShardedLive { shards: 2, by: hash, threads: 1, memtable_cap: 2 }, true, true, false),
        ];
        for (kind, mutable, planner, persisted) in table {
            let engine = ServedEngine::build(&ds, kind);
            let name = engine.name().to_string();
            assert_eq!(engine.backend.as_mutable().is_some(), mutable, "{name}");
            assert_eq!(engine.is_live(), mutable, "{name}");
            assert_eq!(engine.backend.replan_tick().is_some(), planner, "{name}");
            assert_eq!(engine.backend.plan_epoch_total().is_some(), planner, "{name}");
            assert_eq!(engine.backend.calibration().is_some(), persisted, "{name}");
            assert_eq!(engine.save_calibration(&path).unwrap(), persisted, "{name}");
            assert_eq!(path.exists(), persisted, "{name}");
            let _ = std::fs::remove_file(&path);
            assert_eq!(engine.insert(b"Ulmen").is_some(), mutable, "{name}");
            assert_eq!(engine.join(1, JoinAlgo::Pass).is_none(), mutable, "{name}");
        }
    }

    #[test]
    fn sharded_engines_publish_arm_nanos_summed_over_shards() {
        let ds = dataset();
        let sharded = ServedEngine::build(
            &ds,
            EngineKind::Sharded {
                shards: 2,
                by: simsearch_core::ShardBy::Hash,
                threads: 1,
            },
        );
        for _ in 0..4 {
            let _ = sharded.search(b"Berlin", 1);
            let _ = sharded.search(b"Ulm", 1);
        }
        let metrics = Metrics::new();
        sharded.publish_replan(&metrics);
        let nanos = metrics.arm_nanos.snapshot();
        let names: Vec<&str> = nanos.iter().map(|(n, _)| n.as_str()).collect();
        let candidates: Vec<&str> = AutoBackend::DEFAULT_CANDIDATES
            .iter()
            .map(|c| c.name())
            .collect();
        assert_eq!(names, candidates, "one entry per arm, not per shard");
        assert!(
            nanos.iter().any(|(_, n)| *n > 0),
            "routed shard queries are timed: {nanos:?}"
        );
    }

    #[test]
    fn sharded_and_live_engines_replan_per_shard() {
        let ds = dataset();
        let sharded = ServedEngine::build(
            &ds,
            EngineKind::Sharded {
                shards: 2,
                by: simsearch_core::ShardBy::Len,
                threads: 1,
            },
        );
        assert_eq!(sharded.replan(), 0, "thin grids refuse the swap");
        for _ in 0..simsearch_core::MIN_CELL_OBSERVATIONS * 4 {
            let _ = sharded.search(b"Berlin", 1);
            let _ = sharded.search(b"Ulm", 1);
        }
        let swapped = sharded.replan();
        assert!(swapped > 0, "observed shards accept the swap");
        assert_eq!(sharded.plan_epoch(), swapped);

        // An unsharded live engine replans its segment arm; with the
        // whole seed still in one fresh flush of short city strings the
        // preferred arm stays the sorted scan — no epoch bump.
        let live = ServedEngine::build(&ds, EngineKind::Live { memtable_cap: 2 });
        let _ = live.replan();
        assert_eq!(live.plan_epoch(), 0, "short records keep the V7 arm");
    }

    #[test]
    fn live_engine_accepts_mutations_and_frozen_engines_refuse() {
        let ds = dataset();
        let frozen = ServedEngine::build(&ds, EngineKind::Scan(SeqVariant::V4Flat));
        assert!(!frozen.is_live());
        assert!(frozen.insert(b"x").is_none());
        assert!(frozen.delete(0).is_none());
        assert!(!frozen.maybe_compact());

        let live = ServedEngine::build(&ds, EngineKind::Live { memtable_cap: 2 });
        assert!(live.is_live());
        // Seeded reads agree with the reference engine.
        let reference = ServedEngine::build(&ds, EngineKind::Scan(SeqVariant::V1Base));
        for q in ["Berlin", "Urm", ""] {
            for k in 0..3 {
                let (want, _) = reference.search(q.as_bytes(), k);
                let (got, _) = live.search(q.as_bytes(), k);
                assert_eq!(got, want, "q={q} k={k}");
            }
        }
        let id = live.insert("Bärlin".as_bytes()).unwrap();
        assert_eq!(id as usize, ds.len(), "ids continue after the seed");
        assert_eq!(live.delete(id), Some(true));
        assert_eq!(live.delete(id), Some(false));

        let metrics = Metrics::new();
        live.publish_live(&metrics);
        assert_eq!(metrics.segments.get(), 1, "seed flushed to one segment");
        assert_eq!(metrics.inserts.get(), ds.len() as u64 + 1);
        assert_eq!(metrics.deletes.get(), 1);
        // Frozen engines leave the live gauges untouched.
        let frozen_metrics = Metrics::new();
        frozen.publish_live(&frozen_metrics);
        assert_eq!(frozen_metrics.segments.get(), 0);
    }

    #[test]
    fn frozen_engines_join_and_live_engines_refuse() {
        let ds = dataset();
        let frozen = ServedEngine::build(&ds, EngineKind::Scan(SeqVariant::V1Base));
        let reference = simsearch_core::join::nested_loop_join(&ds, 2);
        for algo in [JoinAlgo::Pass, JoinAlgo::MinJoin] {
            let (pairs, stats) = frozen.join(2, algo).expect("frozen engines join");
            assert_eq!(pairs, reference, "{algo:?}");
            assert_eq!(stats.pairs_emitted, pairs.len() as u64);
        }
        let live = ServedEngine::build(&ds, EngineKind::Live { memtable_cap: 4 });
        assert!(live.join(1, JoinAlgo::Pass).is_none());
    }

    #[test]
    fn sharded_engine_agrees_and_publishes_per_shard_metrics() {
        let ds = dataset();
        let reference = ServedEngine::build(&ds, EngineKind::Scan(SeqVariant::V1Base));
        let sharded = ServedEngine::build(
            &ds,
            EngineKind::Sharded {
                shards: 3,
                by: simsearch_core::ShardBy::Len,
                threads: 1,
            },
        );
        for q in ["Berlin", "Urm", ""] {
            for k in 0..3 {
                let (want, _) = reference.search(q.as_bytes(), k);
                let (got, _) = sharded.search(q.as_bytes(), k);
                assert_eq!(got, want, "q={q} k={k}");
            }
        }
        let metrics = Metrics::new();
        sharded.publish_plan(&metrics);
        let decisions = metrics.plan_decisions.snapshot();
        assert!(
            decisions.iter().any(|(n, _)| n.starts_with("s0.")),
            "per-shard plan_decisions published: {decisions:?}"
        );
        let matches = metrics.shard_matches.snapshot();
        assert_eq!(matches.len(), 3);
        assert!(matches.iter().all(|(n, _)| n.starts_with('s')));
    }

    #[test]
    fn sharded_live_engine_mutates_and_publishes_per_shard_gauges() {
        let ds = dataset();
        let engine = ServedEngine::build(
            &ds,
            EngineKind::ShardedLive {
                shards: 4,
                by: simsearch_core::ShardBy::Hash,
                threads: 1,
                memtable_cap: 2,
            },
        );
        assert!(engine.is_live());
        assert!(engine.join(1, JoinAlgo::Pass).is_none(), "live refuses JOIN");
        // Seeded reads agree with the reference engine.
        let reference = ServedEngine::build(&ds, EngineKind::Scan(SeqVariant::V1Base));
        for q in ["Berlin", "Urm", ""] {
            for k in 0..3 {
                let (want, _) = reference.search(q.as_bytes(), k);
                let (got, _) = engine.search(q.as_bytes(), k);
                assert_eq!(got, want, "q={q} k={k}");
            }
        }
        // Mutations route across shards from one global id space.
        let id = engine.insert("Bärlin".as_bytes()).unwrap();
        assert_eq!(id as usize, ds.len(), "ids continue after the seed");
        let id2 = engine.insert(b"Ulmen").unwrap();
        assert_eq!(id2, id + 1);
        assert_eq!(engine.delete(id), Some(true));
        assert_eq!(engine.delete(id), Some(false));
        let (got, _) = engine.search(b"Ulmen", 0);
        assert_eq!(got.ids(), vec![id2]);

        let metrics = Metrics::new();
        engine.publish_live(&metrics);
        assert_eq!(metrics.inserts.get(), ds.len() as u64 + 2);
        assert_eq!(metrics.deletes.get(), 1);
        let per_shard = metrics.live_shards.snapshot();
        assert_eq!(per_shard.len(), 4 * 3, "three gauges per shard");
        // Per-shard gauges sum to the aggregates.
        let sum = |suffix: &str| -> u64 {
            per_shard
                .iter()
                .filter(|(n, _)| n.ends_with(suffix))
                .map(|(_, c)| c)
                .sum()
        };
        assert_eq!(sum(".memtable_len"), metrics.memtable_len.get() as u64);
        assert_eq!(sum(".segments"), metrics.segments.get() as u64);
        assert_eq!(sum(".tombstones"), metrics.tombstones.get() as u64);
    }
}
