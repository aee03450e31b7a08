//! Partition-based similarity self-join: PASS-JOIN and a MinJoin-style
//! content-defined variant.
//!
//! [`join`](crate::join) covers the quadratic contenders; this module is
//! the sub-quadratic tier:
//!
//! * [`pass_join`] — exact PASS-JOIN (Li et al.): every record is split
//!   into `k + 1` even segments, an inverted index maps
//!   `(record length, segment position, segment bytes)` to record ids,
//!   and each record probes the index with the substrings selected by
//!   the position/length filters. By pigeonhole, `k` edits can corrupt
//!   at most `k` of `k + 1` segments, so one segment of the shorter
//!   string always survives verbatim inside the longer — candidate
//!   generation is lossless and the banded kernel keeps it exact.
//! * [`min_join`] — MinJoin-flavoured content-defined partitioning
//!   (Zhang & Zhang): segment boundaries sit at local minima of a
//!   seeded q-gram hash, so matching substrings of *different* records
//!   partition identically regardless of position. Records too short to
//!   carry enough segments for the pigeonhole argument fall back to the
//!   length-window scan, which keeps the variant exact end to end.
//!
//! Both return the same normalized `Vec<JoinPair>` as the quadratic
//! joins and are gated pair-for-pair against [`nested_loop_join`]
//! (`tests/join_oracle.rs`).
//!
//! [`nested_loop_join`]: crate::join::nested_loop_join

use std::collections::HashMap;

use simsearch_data::{Dataset, RecordId};
use simsearch_distance::ed_within_banded_with;
use simsearch_parallel::{chunk_ranges, run_queries, Strategy};

use crate::join::{length_order, normalize, JoinPair};

/// Counters describing one partition-join execution, surfaced through
/// the daemon's `STATS` JSON.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JoinStats {
    /// Result pairs emitted (after normalization).
    pub pairs_emitted: u64,
    /// Candidate pairs handed to the verification kernel (after
    /// candidate dedup).
    pub candidates_verified: u64,
    /// Distinct keys in the inverted segment index.
    pub seg_buckets: u64,
    /// Postings in the inverted segment index (one per record per
    /// segment).
    pub seg_postings: u64,
    /// Records joined by the length-window fallback instead of the
    /// partition index (MinJoin's short-string pool; always 0 for
    /// PASS-JOIN).
    pub fallback_records: u64,
}

/// The even-partition scheme of PASS-JOIN: a string of length `len`
/// split into exactly `k + 1` contiguous segments whose lengths differ
/// by at most one. The first segments take the floor length and the
/// last `len mod (k + 1)` take the ceiling, so the split is a pure
/// function of `(len, k)` — both sides of a join derive identical
/// segment positions without coordination. Zero-length segments are
/// legal (they appear when `len ≤ k`). Returns `(start, len)` per
/// segment.
pub fn even_partitions(len: usize, k: u32) -> Vec<(usize, usize)> {
    let parts = k as usize + 1;
    let base = len / parts;
    let longer = len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let seg = if i < parts - longer { base } else { base + 1 };
        out.push((start, seg));
        start += seg;
    }
    out
}

/// Inverted segment index: `(record length, segment position, segment
/// bytes)` → ids of the records that carry that segment there. Borrowed
/// straight from the dataset arena — building it copies nothing.
struct SegmentIndex<'a> {
    buckets: HashMap<(u32, u32, &'a [u8]), Vec<RecordId>>,
    postings: u64,
}

fn build_segment_index(dataset: &Dataset, k: u32) -> SegmentIndex<'_> {
    let mut buckets: HashMap<(u32, u32, &[u8]), Vec<RecordId>> = HashMap::new();
    let mut postings = 0u64;
    for (id, record) in dataset.iter() {
        for (seg, &(start, len)) in even_partitions(record.len(), k).iter().enumerate() {
            buckets
                .entry((record.len() as u32, seg as u32, &record[start..start + len]))
                .or_default()
                .push(id);
            postings += 1;
        }
    }
    SegmentIndex { buckets, postings }
}

/// Probes the index with one record, appending verified pairs to `out`.
/// Returns the number of candidates verified.
///
/// Each unordered pair is generated exactly once: the longer record
/// probes for the shorter's segments (`l ≤ lr`), and at equal length
/// only candidates with a smaller id are accepted.
fn probe_record(
    dataset: &Dataset,
    index: &SegmentIndex<'_>,
    i: RecordId,
    k: u32,
    rows: &mut Vec<u32>,
    cand: &mut Vec<RecordId>,
    out: &mut Vec<JoinPair>,
) -> u64 {
    let r = dataset.get(i);
    let lr = r.len();
    cand.clear();
    for l in lr.saturating_sub(k as usize)..=lr {
        let delta = (lr - l) as isize;
        for (seg, (p, li)) in even_partitions(l, k).iter().copied().enumerate() {
            // Substring selection (the multi-match-aware position
            // filter): if ed ≤ k, some error-free segment `seg` of the
            // shorter string has at most `seg` edits before it and at
            // most `k − seg` after, so its copy inside `r` starts
            // within both windows below.
            let p = p as isize;
            let seg_i = seg as isize;
            let slack = k as isize - seg_i;
            let lo = (p - seg_i).max(p + delta - slack).max(0);
            let hi = (p + seg_i).min(p + delta + slack).min((lr - li) as isize);
            let mut pos = lo;
            while pos <= hi {
                let sub = &r[pos as usize..pos as usize + li];
                if let Some(ids) = index.buckets.get(&(l as u32, seg as u32, sub)) {
                    if l < lr {
                        cand.extend_from_slice(ids);
                    } else {
                        // Same length: ids are in ascending order, keep
                        // the prefix below the probe so each pair is
                        // counted by its larger id only.
                        let cut = ids.partition_point(|&j| j < i);
                        cand.extend_from_slice(&ids[..cut]);
                    }
                }
                pos += 1;
            }
        }
    }
    cand.sort_unstable();
    cand.dedup();
    for &j in cand.iter() {
        if let Some(d) = ed_within_banded_with(rows, dataset.get(j), r, k) {
            out.push(JoinPair {
                left: i.min(j),
                right: i.max(j),
                distance: d,
            });
        }
    }
    cand.len() as u64
}

/// How many contiguous probe/verify chunks to fan a join out into: a
/// few chunks per worker so the dynamic executors can balance, one for
/// the sequential path.
fn job_count(strategy: Strategy, n: usize) -> usize {
    let threads = match strategy {
        Strategy::Sequential => 1,
        Strategy::ThreadPerQuery => 8,
        Strategy::FixedPool { threads } | Strategy::WorkQueue { threads } => threads,
        Strategy::Adaptive { max_threads } => max_threads,
    };
    (threads * 4).clamp(1, n.max(1))
}

/// Exact PASS-JOIN under the given executor strategy, with its
/// [`JoinStats`].
pub fn pass_join_with_stats(
    dataset: &Dataset,
    k: u32,
    strategy: Strategy,
) -> (Vec<JoinPair>, JoinStats) {
    let index = build_segment_index(dataset, k);
    let n = dataset.len();
    // Fan the probe side out in contiguous id ranges (§11's data-chunk
    // scheduling — one level of parallelism, no nested pools); each
    // range keeps its DP rows and candidate scratch across records.
    let jobs = chunk_ranges(n, job_count(strategy, n));
    let jobs = &jobs;
    let index = &index;
    let chunks: Vec<(Vec<JoinPair>, u64)> = run_queries(strategy, jobs.len(), |c| {
        let mut rows = Vec::new();
        let mut cand = Vec::new();
        let mut out = Vec::new();
        let mut verified = 0u64;
        for i in jobs[c].clone() {
            verified += probe_record(dataset, index, i as RecordId, k, &mut rows, &mut cand, &mut out);
        }
        (out, verified)
    });
    let mut pairs = Vec::new();
    let mut verified = 0u64;
    for (chunk, v) in chunks {
        pairs.extend(chunk);
        verified += v;
    }
    let pairs = normalize(pairs);
    let stats = JoinStats {
        pairs_emitted: pairs.len() as u64,
        candidates_verified: verified,
        seg_buckets: index.buckets.len() as u64,
        seg_postings: index.postings,
        fallback_records: 0,
    };
    (pairs, stats)
}

/// Exact PASS-JOIN, sequential.
///
/// # Examples
///
/// ```
/// use simsearch_core::passjoin::pass_join;
/// use simsearch_data::Dataset;
///
/// let ds = Dataset::from_records(["Bonn", "Born", "Ulm"]);
/// let pairs = pass_join(&ds, 1);
/// assert_eq!(pairs.len(), 1);
/// assert_eq!((pairs[0].left, pairs[0].right, pairs[0].distance), (0, 1, 1));
/// ```
pub fn pass_join(dataset: &Dataset, k: u32) -> Vec<JoinPair> {
    pass_join_with_stats(dataset, k, Strategy::Sequential).0
}

/// [`pass_join`] under an executor strategy.
pub fn parallel_pass_join(dataset: &Dataset, k: u32, strategy: Strategy) -> Vec<JoinPair> {
    pass_join_with_stats(dataset, k, strategy).0
}

/// Tuning for the MinJoin-style content-defined partitioner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MinJoinConfig {
    /// Width of the q-grams hashed at every position.
    pub q: usize,
    /// Local-minimum window radius: a position anchors a boundary iff
    /// its q-gram hash is strictly smaller than every other hash within
    /// `w` positions, so consecutive anchors are more than `w` apart.
    pub w: usize,
    /// Hash seed. Partitions are a deterministic function of
    /// `(bytes, q, w, seed)`.
    pub seed: u64,
}

impl Default for MinJoinConfig {
    fn default() -> Self {
        Self {
            q: 3,
            w: 8,
            seed: 0x4D49_4E4A, // "MINJ"
        }
    }
}

/// Mixes one q-gram with the seed (splitmix64-style finalizer steps).
fn gram_hash(gram: &[u8], seed: u64) -> u64 {
    let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
    for &b in gram {
        h ^= u64::from(b);
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 27;
    }
    h ^= h >> 31;
    h
}

/// Content-defined partition of one record under MinJoin's local-minima
/// rule. Boundaries sit at positions whose q-gram hash is a strict
/// local minimum over a `±w` window of positions that all carry a full
/// q-gram — the decision looks only at `record[p−w .. p+w+q]`, so a
/// substring shared by two records (deep enough inside both) anchors
/// identical boundaries in each. Returns `(start, len)` per segment;
/// every record has at least one segment and the segments tile the
/// record.
pub fn min_join_partitions(record: &[u8], cfg: MinJoinConfig) -> Vec<(usize, usize)> {
    let len = record.len();
    let mut boundaries = vec![0usize];
    if len >= 2 * cfg.w + cfg.q {
        let hashes: Vec<u64> = (0..=len - cfg.q)
            .map(|p| gram_hash(&record[p..p + cfg.q], cfg.seed))
            .collect();
        for p in cfg.w..=len - cfg.w - cfg.q {
            let h = hashes[p];
            let window = &hashes[p - cfg.w..=p + cfg.w];
            if window
                .iter()
                .enumerate()
                .all(|(off, &other)| off == cfg.w || h < other)
            {
                boundaries.push(p);
            }
        }
    }
    boundaries.push(len);
    boundaries
        .windows(2)
        .map(|b| (b[0], b[1] - b[0]))
        .collect()
}

/// Segments a partitioning must carry before the pigeonhole argument
/// holds for `k` edits: one edit at position `x` can only disturb
/// segments whose anchors look at bytes near `x` — anchors are more
/// than `w` apart, so at most `2(w+q)/(w+1) + 2` segments per edit
/// (+1 here for safety margin). Records below the bound join through
/// the exact length-window fallback instead.
fn min_segments_for(k: u32, cfg: MinJoinConfig) -> usize {
    let per_edit = 2 * (cfg.w + cfg.q) / (cfg.w + 1) + 3;
    per_edit * k as usize + 1
}

/// MinJoin-style self-join under the given executor strategy and
/// config, with its [`JoinStats`].
///
/// Exactness: a record whose partitioning carries at least
/// `min_segments_for` segments keeps one segment fully intact —
/// content *and* both anchors — under any `k` edits, and that segment
/// reappears in the partner record at a start position shifted by at
/// most `k`; such pairs are caught by the shared-segment buckets.
/// Records with fewer segments go to a fallback pool joined by the
/// length-window scan against **all** records, which covers every pair
/// with at least one short side. The union is exactly the join result,
/// verified pair-by-pair with the banded kernel.
pub fn min_join_with_stats(
    dataset: &Dataset,
    k: u32,
    strategy: Strategy,
    cfg: MinJoinConfig,
) -> (Vec<JoinPair>, JoinStats) {
    let n = dataset.len();
    let min_segments = min_segments_for(k, cfg);
    // Bucket every sufficiently-segmented record by segment content
    // (with its start position); the rest pool up for the fallback.
    let mut buckets: HashMap<&[u8], Vec<(RecordId, u32)>> = HashMap::new();
    let mut postings = 0u64;
    let mut in_pool = vec![false; n];
    let mut pool = Vec::new();
    for (id, record) in dataset.iter() {
        let parts = min_join_partitions(record, cfg);
        if parts.len() < min_segments {
            in_pool[id as usize] = true;
            pool.push(id);
            continue;
        }
        for (start, len) in parts {
            buckets
                .entry(&record[start..start + len])
                .or_default()
                .push((id, start as u32));
            postings += 1;
        }
    }
    let mut cand: Vec<(RecordId, RecordId)> = Vec::new();
    // Indexed × indexed: any two records sharing a segment's bytes
    // within the position and length filters.
    for entries in buckets.values() {
        for (ai, &(a, pa)) in entries.iter().enumerate() {
            let la = dataset.record_len(a);
            for &(b, pb) in &entries[ai + 1..] {
                if a == b {
                    continue; // a record can repeat a segment's bytes
                }
                if la.abs_diff(dataset.record_len(b)) > k as usize
                    || pa.abs_diff(pb) > k
                {
                    continue;
                }
                cand.push((a.min(b), a.max(b)));
            }
        }
    }
    // Pool × everyone: the sorted length window covers every pair with
    // a short side, exactly like `sorted_join` restricted to the pool.
    let order = length_order(dataset);
    for &p in &pool {
        let lp = dataset.record_len(p);
        let from = order.partition_point(|&j| {
            dataset.record_len(j) < lp.saturating_sub(k as usize)
        });
        for &j in &order[from..] {
            if dataset.record_len(j) > lp + k as usize {
                break;
            }
            // Pool–pool pairs would be generated from both ends; keep
            // the one seen from the smaller id.
            if j == p || (in_pool[j as usize] && j < p) {
                continue;
            }
            cand.push((p.min(j), p.max(j)));
        }
    }
    cand.sort_unstable();
    cand.dedup();
    // Verify in parallel over contiguous candidate chunks.
    let jobs = chunk_ranges(cand.len(), job_count(strategy, cand.len()));
    let jobs = &jobs;
    let cand = &cand;
    let chunks: Vec<Vec<JoinPair>> = run_queries(strategy, jobs.len(), |c| {
        let mut rows = Vec::new();
        let mut out = Vec::new();
        for idx in jobs[c].clone() {
            let (i, j) = cand[idx];
            let (a, b) = (dataset.get(i), dataset.get(j));
            let (x, y) = if a.len() <= b.len() { (a, b) } else { (b, a) };
            if let Some(d) = ed_within_banded_with(&mut rows, x, y, k) {
                out.push(JoinPair {
                    left: i,
                    right: j,
                    distance: d,
                });
            }
        }
        out
    });
    let pairs = normalize(chunks.into_iter().flatten().collect());
    let stats = JoinStats {
        pairs_emitted: pairs.len() as u64,
        candidates_verified: cand.len() as u64,
        seg_buckets: buckets.len() as u64,
        seg_postings: postings,
        fallback_records: pool.len() as u64,
    };
    (pairs, stats)
}

/// MinJoin-style self-join, sequential, default config.
pub fn min_join(dataset: &Dataset, k: u32) -> Vec<JoinPair> {
    min_join_with_stats(dataset, k, Strategy::Sequential, MinJoinConfig::default()).0
}

/// [`min_join`] under an executor strategy.
pub fn parallel_min_join(dataset: &Dataset, k: u32, strategy: Strategy) -> Vec<JoinPair> {
    min_join_with_stats(dataset, k, strategy, MinJoinConfig::default()).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::nested_loop_join;

    fn sample() -> Dataset {
        Dataset::from_records([
            "Berlin", "Bern", "Bonn", "Born", "Ulm", "Ulmen", "Köln", "Bern",
        ])
    }

    #[test]
    fn even_partitions_tile_the_string() {
        for len in 0..40 {
            for k in 0..6 {
                let parts = even_partitions(len, k);
                assert_eq!(parts.len(), k as usize + 1);
                let mut cursor = 0;
                for (start, seg) in &parts {
                    assert_eq!(*start, cursor);
                    cursor += seg;
                }
                assert_eq!(cursor, len);
                let floor = len / (k as usize + 1);
                assert!(parts.iter().all(|&(_, s)| s == floor || s == floor + 1));
            }
        }
    }

    #[test]
    fn partition_joins_agree_with_nested_loop_on_sample() {
        let ds = sample();
        for k in 0..4 {
            let reference = nested_loop_join(&ds, k);
            assert_eq!(pass_join(&ds, k), reference, "pass, k={k}");
            assert_eq!(min_join(&ds, k), reference, "min, k={k}");
            assert_eq!(
                parallel_pass_join(&ds, k, Strategy::FixedPool { threads: 3 }),
                reference,
                "parallel pass, k={k}"
            );
            assert_eq!(
                parallel_min_join(&ds, k, Strategy::WorkQueue { threads: 2 }),
                reference,
                "parallel min, k={k}"
            );
        }
    }

    /// Exhaustive cross-check on a dense space of tiny strings, where
    /// every edge of the substring-selection windows gets exercised:
    /// all strings over {a, b} up to length 5, k up to 3.
    #[test]
    fn pass_join_is_exact_on_the_dense_binary_cube() {
        let mut records: Vec<String> = vec![String::new()];
        let mut frontier = vec![String::new()];
        for _ in 0..5 {
            let mut next = Vec::new();
            for s in &frontier {
                for c in ['a', 'b'] {
                    let mut t = s.clone();
                    t.push(c);
                    next.push(t);
                }
            }
            records.extend(next.iter().cloned());
            frontier = next;
        }
        let ds = Dataset::from_records(records.iter().map(|s| s.as_str()));
        for k in 0..4 {
            let reference = nested_loop_join(&ds, k);
            assert_eq!(pass_join(&ds, k), reference, "pass, k={k}");
            assert_eq!(min_join(&ds, k), reference, "min, k={k}");
        }
    }

    #[test]
    fn stats_account_for_the_run() {
        let ds = sample();
        let (pairs, stats) = pass_join_with_stats(&ds, 1, Strategy::Sequential);
        assert_eq!(stats.pairs_emitted, pairs.len() as u64);
        assert!(stats.candidates_verified >= stats.pairs_emitted);
        // 8 records × 2 segments each.
        assert_eq!(stats.seg_postings, 16);
        assert!(stats.seg_buckets > 0 && stats.seg_buckets <= 16);
        assert_eq!(stats.fallback_records, 0);

        let (pairs, stats) =
            min_join_with_stats(&ds, 1, Strategy::Sequential, MinJoinConfig::default());
        assert_eq!(stats.pairs_emitted, pairs.len() as u64);
        // City-length strings are all shorter than the segment floor:
        // the whole sample joins through the fallback pool.
        assert_eq!(stats.fallback_records, 8);
    }

    #[test]
    fn min_join_partitions_are_deterministic_and_tile() {
        let cfg = MinJoinConfig::default();
        let record = b"the quick brown fox jumps over the lazy dog again and again";
        let a = min_join_partitions(record, cfg);
        let b = min_join_partitions(record, cfg);
        assert_eq!(a, b);
        assert!(a.len() > 1, "a 60-byte record should anchor somewhere");
        let mut cursor = 0;
        for (start, len) in &a {
            assert_eq!(*start, cursor);
            cursor += len;
        }
        assert_eq!(cursor, record.len());
        // A different seed moves the anchors.
        let other = min_join_partitions(
            record,
            MinJoinConfig {
                seed: 1,
                ..MinJoinConfig::default()
            },
        );
        assert_ne!(a, other);
    }

    #[test]
    fn degenerate_inputs() {
        assert!(pass_join(&Dataset::new(), 2).is_empty());
        assert!(min_join(&Dataset::new(), 2).is_empty());
        let one = Dataset::from_records(["solo"]);
        assert!(pass_join(&one, 2).is_empty());
        assert!(min_join(&one, 2).is_empty());
        // k beyond every length: all pairs match.
        let tiny = Dataset::from_records(["a", "bc", ""]);
        let reference = nested_loop_join(&tiny, 9);
        assert_eq!(reference.len(), 3);
        assert_eq!(pass_join(&tiny, 9), reference);
        assert_eq!(min_join(&tiny, 9), reference);
    }
}
