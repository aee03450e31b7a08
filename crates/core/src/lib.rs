//! # simsearch-core
//!
//! The engine layer of the `simsearch` workspace: one interface over
//! every solution the paper evaluates, plus the measurement and
//! verification machinery its methodology prescribes.
//!
//! * [`backend`] — the unified [`backend::Backend`] trait: one
//!   execution seam over every scan rung and index structure, plus the
//!   planner-driven [`backend::AutoBackend`] (its routing core also
//!   drives every frozen shard of [`sharded::ShardedBackend`]);
//! * [`planner`] — the adaptive [`planner::Planner`]: cost hints from
//!   dataset statistics, one explainable [`planner::PlanDecision`] per
//!   query class;
//! * [`calibration`] — persistence bridge for measured cost models:
//!   a calibrated [`planner::Planner`] round-trips through the index
//!   dump's calibration section, invalidated on dataset drift;
//! * [`engine`] — [`engine::SearchEngine`] builds and runs any solution:
//!   each scan rung (§3), each index rung (§4), and the extension
//!   engines (frequency-annotated radix tree, q-gram index);
//! * [`verify`] — cross-validation of engines against a reference
//!   (§3.7 / §4.4 correctness methodology);
//! * [`experiment`] — wall-clock measurement of 100/500/1,000-query
//!   workload prefixes (§5.2 protocol);
//! * [`report`] — table rendering in the shape of the paper's appendix;
//! * [`presets`] — the standard synthetic datasets and workloads;
//! * [`join`] — the similarity self-join (the venue's other competition
//!   track), scan- and index-based;
//! * [`passjoin`] — the sub-quadratic join tier: exact PASS-JOIN over
//!   an inverted segment index, plus MinJoin's content-defined
//!   partitioning for long records;
//! * [`topk`] — nearest-neighbour search by iterative deepening;
//! * [`lsm`] — live ingest: [`lsm::LiveEngine`] puts an append-only
//!   memtable and tombstone set in front of immutable V7 segments, so
//!   the frozen-dataset machinery serves a mutable workload.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod calibration;
pub mod engine;
pub mod experiment;
pub mod join;
pub mod lsm;
pub mod passjoin;
pub mod planner;
pub mod presets;
pub mod report;
pub mod sharded;
pub mod topk;
pub mod verify;

pub use backend::{
    AutoBackend, Backend, BackendDiag, FilteredScanBackend, ObservationGrid, PlanReport,
    QgramBackend, RadixBackend, SortedScanBackend,
};
pub use calibration::{
    load_calibration, planner_from_record, planner_to_record, save_calibration,
};
pub use engine::{build_backend, EngineKind, IdxVariant, SearchEngine};
pub use lsm::{LiveEngine, LiveStats, LsmConfig, MutableBackend, SegmentArm};
pub use sharded::{
    merge_match_sets, partition_ids, remap_to_global, route_record, ShardBy,
    ShardStats, ShardedBackend,
};
pub use planner::{
    BackendChoice, CellSample, CostEstimate, Observation, PlanDecision, Planner, QueryClass,
    TopkDecision, MIN_CELL_OBSERVATIONS,
};
pub use join::{CrossPair, JoinPair};
pub use passjoin::{
    even_partitions, min_join, min_join_partitions, min_join_with_stats, parallel_min_join,
    parallel_pass_join, pass_join, pass_join_with_stats, JoinStats, MinJoinConfig,
};
pub use topk::{search_top_k, search_top_k_with};
pub use experiment::{
    measure_extrapolated, measure_per_threshold, measure_prefixes, Measurement, QUERY_COUNTS,
};
pub use report::Table;
pub use verify::{compare_results, cross_validate, Mismatch};

// Re-export the vocabulary types so `simsearch_core` is self-sufficient
// for most users.
pub use simsearch_data::{
    Dataset, Match, MatchSet, QueryRecord, RecordId, StatsSnapshot, Workload,
};
pub use simsearch_distance::KernelKind;
pub use simsearch_parallel::Strategy;
pub use simsearch_scan::SeqVariant;
