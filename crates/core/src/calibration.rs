//! Persisted planner calibration: convert a measured [`Planner`] to and
//! from the on-disk [`CalibrationRecord`] of the index dump format.
//!
//! The self-tuning serve loop (§16) learns per-(arm, class) cost
//! multipliers from live latency histograms. Those multipliers are
//! worth keeping across restarts — the first minutes of a freshly
//! started daemon otherwise route with the static analytical model
//! until the observation grid refills. This module persists the
//! calibrated decision state *next to the index* via the version-3
//! radix dump format and restores it with a strict validity check: the
//! record carries the [`StatsSnapshot`] it was measured against, and a
//! loader that computes a different snapshot over its live dataset
//! discards the record and falls back to the static table. A stale or
//! foreign calibration is silently ignored, never an error — routing
//! quality degrades gracefully to the analytical model, it does not
//! take the daemon down.
//!
//! Arm identity crosses the disk boundary by *name* (the stable
//! [`BackendChoice::name`] strings), not by enum discriminant, so a
//! record written by a build with a different arm roster is rejected
//! instead of silently mapping multipliers onto the wrong arms. A file
//! written by the earlier 8-arm build (which also listed `trie`,
//! `buckets` and `bktree`) is such a record: it loads as `None`, and
//! the daemon routes with the static table until it replans.

use crate::planner::{BackendChoice, Planner};
use simsearch_data::{Dataset, StatsSnapshot};
use simsearch_index::persist::{load_radix_full, save_radix_with_calibration, CalibrationRecord};
use simsearch_index::radix;
use std::io;
use std::path::Path;

/// Extracts the persistable calibration state of a planner: its full
/// decision-table multipliers (threshold classes and the separate top-k
/// curve) keyed by arm name, stamped with the snapshot it models.
pub fn planner_to_record(planner: &Planner) -> CalibrationRecord {
    CalibrationRecord {
        snapshot: planner.snapshot().clone(),
        arms: BackendChoice::ALL.iter().map(|c| c.name().to_string()).collect(),
        class_multipliers: planner
            .class_multipliers()
            .iter()
            .map(|row| row.to_vec())
            .collect(),
        topk_multipliers: planner.topk_multipliers().to_vec(),
    }
}

/// Rebuilds a calibrated planner from a restored record, or `None` when
/// the record does not apply to the dataset being served:
///
/// * the embedded snapshot differs from `fresh` (the data changed —
///   yesterday's latencies were measured on a different distribution);
/// * the arm roster differs in count, name, or order from this build's
///   [`BackendChoice::ALL`];
/// * the multiplier table has the wrong shape or invalid values
///   (checked again by [`Planner::from_calibrated_rows`]).
///
/// `None` means "route with the static table", never a hard failure.
pub fn planner_from_record(
    record: &CalibrationRecord,
    fresh: &StatsSnapshot,
    candidates: &[BackendChoice],
) -> Option<Planner> {
    if &record.snapshot != fresh {
        return None;
    }
    if record.arms.len() != BackendChoice::COUNT
        || !record
            .arms
            .iter()
            .zip(BackendChoice::ALL.iter())
            .all(|(name, choice)| name == choice.name())
    {
        return None;
    }
    let class_multipliers = record
        .class_multipliers
        .iter()
        .map(|row| <[f64; BackendChoice::COUNT]>::try_from(row.as_slice()).ok())
        .collect::<Option<Vec<_>>>()?;
    let topk_multipliers =
        <[f64; BackendChoice::COUNT]>::try_from(record.topk_multipliers.as_slice()).ok()?;
    Planner::from_calibrated_rows(fresh.clone(), candidates, class_multipliers, topk_multipliers)
}

/// Persists a calibrated planner next to a freshly built radix index
/// for `dataset` (the v3 dump: tree + stats snapshot + calibration).
///
/// # Errors
/// Any underlying I/O error, or `InvalidData` if the planner's
/// multipliers are outside the format's structural bounds (which a
/// planner built by this crate never produces).
pub fn save_calibration(path: &Path, dataset: &Dataset, planner: &Planner) -> io::Result<()> {
    let trie = radix::build(dataset);
    save_radix_with_calibration(
        path,
        &trie,
        Some(planner.snapshot()),
        Some(&planner_to_record(planner)),
    )
}

/// Loads persisted calibration and rebuilds the planner it describes,
/// or `None` when the file is missing, unreadable, an older format, has
/// no calibration section, or fails [`planner_from_record`]'s checks.
/// Every failure mode is a clean fallback to static routing.
pub fn load_calibration(
    path: &Path,
    fresh: &StatsSnapshot,
    candidates: &[BackendChoice],
) -> Option<Planner> {
    let (_, _, record) = load_radix_full(path).ok()?;
    planner_from_record(&record?, fresh, candidates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::AutoBackend;
    use crate::planner::{CellSample, MAX_K_CLASS, NUM_LEN_CLASSES};
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("simsearch-calib-{}-{name}", std::process::id()))
    }

    /// A planner whose multipliers are all measured (not 1.0): every
    /// cell gets a synthetic sample skewed per arm.
    fn measured_planner(dataset: &Dataset) -> Planner {
        let snapshot = StatsSnapshot::compute(dataset);
        let rows = NUM_LEN_CLASSES * (MAX_K_CLASS as usize + 1);
        let mut cells = Vec::with_capacity(rows);
        for row in 0..rows {
            let mut arms = [CellSample::default(); BackendChoice::COUNT];
            for (i, cell) in arms.iter_mut().enumerate() {
                cell.nanos = 1_000 * (row as u64 + 1) * (i as u64 + 2);
                cell.predicted = 500 * (row as u64 + 1);
                cell.count = 64;
            }
            cells.push(arms);
        }
        let mut topk = [CellSample::default(); BackendChoice::COUNT];
        for (i, cell) in topk.iter_mut().enumerate() {
            cell.nanos = 7_000 + 311 * i as u64;
            cell.predicted = 900;
            cell.count = 64;
        }
        Planner::with_class_samples(
            snapshot,
            &AutoBackend::DEFAULT_CANDIDATES,
            &cells,
            &topk,
            1,
        )
    }

    #[test]
    fn record_round_trip_reproduces_the_decision_table_bit_for_bit() {
        let ds = Dataset::from_records(["Berlin", "Bern", "Ulm", "Pforzheim", ""]);
        let planner = measured_planner(&ds);
        assert!(planner.is_calibrated());
        let record = planner_to_record(&planner);
        let restored = planner_from_record(
            &record,
            planner.snapshot(),
            &AutoBackend::DEFAULT_CANDIDATES,
        )
        .expect("matching snapshot restores");
        assert!(restored.is_calibrated());
        for (a, b) in planner
            .class_multipliers()
            .iter()
            .flatten()
            .chain(planner.topk_multipliers().iter())
            .zip(
                restored
                    .class_multipliers()
                    .iter()
                    .flatten()
                    .chain(restored.topk_multipliers().iter()),
            )
        {
            assert_eq!(a.to_bits(), b.to_bits(), "multiplier survives exactly");
        }
        // Identical multipliers must mean identical routing decisions.
        for (len, k) in [(4usize, 0u32), (6, 1), (9, 3), (30, 8), (200, 16)] {
            assert_eq!(
                planner.decide(len, k).chosen,
                restored.decide(len, k).chosen,
                "len={len} k={k}"
            );
        }
    }

    #[test]
    fn snapshot_mismatch_and_foreign_arms_fall_back_to_none() {
        let ds = Dataset::from_records(["Berlin", "Bern", "Ulm"]);
        let planner = measured_planner(&ds);
        let record = planner_to_record(&planner);
        // The dataset changed under the calibration: clean None.
        let other = StatsSnapshot::compute(&Dataset::from_records(["AAAACCCCGGGGTTTT"]));
        assert!(planner_from_record(&record, &other, &AutoBackend::DEFAULT_CANDIDATES).is_none());
        // A renamed arm means a different roster: clean None.
        let mut renamed = record.clone();
        renamed.arms[0] = "scan-vectorized".into();
        assert!(planner_from_record(
            &renamed,
            planner.snapshot(),
            &AutoBackend::DEFAULT_CANDIDATES
        )
        .is_none());
        // A reordered roster must not map multipliers by position.
        let mut reordered = record.clone();
        reordered.arms.swap(0, 1);
        assert!(planner_from_record(
            &reordered,
            planner.snapshot(),
            &AutoBackend::DEFAULT_CANDIDATES
        )
        .is_none());
        // A record from the 8-arm build, rows widened to match its
        // roster: still a foreign roster, so static routing.
        let old_roster = [
            "scan-flat",
            "scan-sorted",
            "scan-bitparallel",
            "trie",
            "radix",
            "qgram",
            "buckets",
            "bktree",
        ];
        let mut eight_arm = record.clone();
        eight_arm.arms = old_roster.iter().map(|n| n.to_string()).collect();
        let widen = |row: &[f64]| {
            let mut wide = vec![1.0; old_roster.len()];
            for (name, &m) in record.arms.iter().zip(row) {
                let at = old_roster.iter().position(|n| n == name).unwrap();
                wide[at] = m;
            }
            wide
        };
        eight_arm.class_multipliers = record.class_multipliers.iter().map(|r| widen(r)).collect();
        eight_arm.topk_multipliers = widen(&record.topk_multipliers);
        assert!(planner_from_record(
            &eight_arm,
            planner.snapshot(),
            &AutoBackend::DEFAULT_CANDIDATES
        )
        .is_none());
    }

    #[test]
    fn file_round_trip_restores_a_calibrated_planner() {
        let ds = Dataset::from_records(["Berlin", "Bern", "Ulm", "Augsburg"]);
        let planner = measured_planner(&ds);
        let path = tmp("file");
        save_calibration(&path, &ds, &planner).unwrap();
        let fresh = StatsSnapshot::compute(&ds);
        let restored = load_calibration(&path, &fresh, &AutoBackend::DEFAULT_CANDIDATES)
            .expect("fresh snapshot matches");
        assert!(restored.is_calibrated());
        assert_eq!(
            planner.class_multipliers(),
            restored.class_multipliers(),
            "table survives the disk trip"
        );
        // Same file against a shifted dataset: silent static fallback.
        let shifted = StatsSnapshot::compute(&Dataset::from_records(["Berlin", "Bern"]));
        assert!(load_calibration(&path, &shifted, &AutoBackend::DEFAULT_CANDIDATES).is_none());
        std::fs::remove_file(&path).unwrap();
        // Missing file: silent static fallback, not an error.
        assert!(load_calibration(&path, &fresh, &AutoBackend::DEFAULT_CANDIDATES).is_none());
    }
}
