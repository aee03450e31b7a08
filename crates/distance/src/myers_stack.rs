//! Resumable blocked bit-parallel edit distance for sorted-prefix
//! scans — [`crate::row_stack::RowStackKernel`]'s discipline applied to
//! Myers words instead of scalar rows.
//!
//! The row stack resumes a scalar DP at the LCP between adjacent sorted
//! candidates, recomputing only suffix *rows*. [`MyersStackKernel`] does
//! the same at 64-cell block granularity: the query's `Peq` match masks
//! are compiled once, and for every text position the kernel checkpoints
//! all ⌈m/64⌉ block states (`pv`/`mv`) plus the running score at the
//! last pattern row. Resuming at `shared_prefix` truncates the
//! checkpoint stack and re-advances only the candidate's unshared
//! suffix — one `myers_block::advance_block` call per block per
//! byte, i.e. 64 DP cells per word operation, on top of the LCP reuse
//! that already skips the shared prefix entirely.
//!
//! Soundness of the resume is the same range-minimum argument as the
//! scalar stack: the checkpoint at depth `d` is a pure function of the
//! candidate's first `d` bytes, so any candidate sharing those bytes may
//! adopt it verbatim. Early aborts (score out of reach of `k`) leave a
//! shorter but still valid stack — future resumes are clamped to the
//! surviving depth, which only shrinks the reuse, never corrupts it.
//!
//! Like the scalar kernel, the words advanced and cells represented are
//! counted so diagnostics can compare word-level and cell-level work
//! across scan variants.

use crate::myers_block::{advance_block, score_is_dead, BlockState};

const W: usize = 64;

/// A resumable blocked bit-parallel DP for one `(query, k)` pair,
/// applied to a stream of candidates arriving with their shared-prefix
/// lengths (a lexicographically sorted arena's LCP array).
///
/// # Examples
///
/// ```
/// use simsearch_distance::MyersStackKernel;
///
/// let mut dp = MyersStackKernel::new(b"Berlin", 2);
/// // Sorted candidates: "Berlin", "Berlingen", "Bern" (lcp 6, then 3).
/// assert_eq!(dp.resume(b"Berlin", 0), Some(0));
/// assert_eq!(dp.resume(b"Berlingen", 6), None); // distance 3 > k
/// assert_eq!(dp.resume(b"Bern", 3), Some(2));
/// assert!(dp.words_reused() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct MyersStackKernel {
    /// `peq[c * blocks + b]`: match mask of block `b` for byte `c`,
    /// compiled once per query. Transposed relative to
    /// [`crate::myers_block::MyersBlock`]: the per-byte block loop reads
    /// one contiguous `blocks`-word row instead of striding 2 KiB apart.
    peq: Vec<u64>,
    /// Number of 64-bit blocks (0 only for the empty query).
    blocks: usize,
    /// Query length.
    m: usize,
    /// Mask of the last pattern position within the last block.
    last: u64,
    k: u32,
    /// Checkpoint stack: `states[d * blocks + b]` is block `b`'s
    /// vertical state after `d` candidate bytes; depth 0 (the empty
    /// prefix, `pv = !0`, `mv = 0`) occupies the first `blocks` slots.
    states: Vec<BlockState>,
    /// `scores[d]`: the DP score at the last pattern row after `d`
    /// candidate bytes; `scores[0] = m`.
    scores: Vec<i64>,
    /// One column of scratch state for the unstacked tail of a bounded
    /// resume ([`MyersStackKernel::resume_bounded`]).
    scratch: Vec<BlockState>,
    words: u64,
    cells: u64,
    reused: u64,
}

impl MyersStackKernel {
    /// Creates the kernel for `query` at threshold `k`, with the empty
    /// candidate prefix checkpointed.
    pub fn new(query: &[u8], k: u32) -> Self {
        let mut dp = Self {
            peq: Vec::new(),
            blocks: 0,
            m: 0,
            last: 0,
            k: 0,
            states: Vec::new(),
            scores: Vec::new(),
            scratch: Vec::new(),
            words: 0,
            cells: 0,
            reused: 0,
        };
        dp.reset(query, k);
        dp
    }

    /// Re-targets the kernel at a new `(query, k)` pair, reusing
    /// allocations; counters restart at zero.
    pub fn reset(&mut self, query: &[u8], k: u32) {
        self.m = query.len();
        self.k = k;
        self.blocks = query.len().div_ceil(W);
        self.peq.clear();
        self.peq.resize(self.blocks * 256, 0);
        for (i, &c) in query.iter().enumerate() {
            self.peq[c as usize * self.blocks + i / W] |= 1 << (i % W);
        }
        self.last = if self.m == 0 { 0 } else { 1 << ((self.m - 1) % W) };
        self.states.clear();
        self.states
            .resize(self.blocks, BlockState { pv: !0u64, mv: 0 });
        self.scores.clear();
        self.scores.push(self.m as i64);
        self.words = 0;
        self.cells = 0;
        self.reused = 0;
    }

    /// The compiled threshold.
    pub fn threshold(&self) -> u32 {
        self.k
    }

    /// The compiled query length.
    pub fn pattern_len(&self) -> usize {
        self.m
    }

    /// Number of 64-bit blocks per DP column (0 for the empty query).
    pub fn blocks(&self) -> usize {
        self.blocks
    }

    /// Current stack depth (number of candidate bytes whose block
    /// states are checkpointed).
    pub fn depth(&self) -> usize {
        self.scores.len() - 1
    }

    /// 64-bit words advanced since the last [`MyersStackKernel::reset`]
    /// (`blocks` per candidate byte actually processed).
    pub fn words_advanced(&self) -> u64 {
        self.words
    }

    /// DP cells represented by the advanced words (`m` per candidate
    /// byte) — the scalar-kernel-comparable work figure.
    pub fn cells_computed(&self) -> u64 {
        self.cells
    }

    /// Words adopted from the checkpoint stack instead of being
    /// re-advanced (`blocks` per shared-prefix byte reused).
    pub fn words_reused(&self) -> u64 {
        self.reused
    }

    /// Decides `ed(query, candidate) ≤ k`, adopting the checkpointed
    /// block states for the candidate's first `shared_prefix` bytes.
    ///
    /// `shared_prefix` must not exceed the true common prefix between
    /// `candidate` and the previous candidate this kernel processed
    /// (pass `0` to restart from scratch, e.g. at a chunk boundary).
    /// Aborts as soon as the score can no longer descend back to `k`
    /// within the remaining bytes; the surviving (shorter) stack stays
    /// valid for the next resume.
    pub fn resume(&mut self, candidate: &[u8], shared_prefix: usize) -> Option<u32> {
        self.resume_bounded(candidate, shared_prefix, usize::MAX)
    }

    /// [`MyersStackKernel::resume`] with a cap on how deep the new
    /// checkpoint stack needs to reach.
    ///
    /// A sorted-arena sweep knows the *next* candidate's LCP before it
    /// processes the current one, and no later resume can ever reuse
    /// more than that many bytes (the running LCP minimum only shrinks).
    /// Passing that lookahead as `keep_limit` lets the kernel checkpoint
    /// only the reusable prefix and advance the candidate's tail in a
    /// single scratch column — register-resident, no per-byte stores —
    /// which collapses the stack-maintenance cost on low-LCP data (DNA
    /// reads share a handful of bytes out of ~100). Correctness is
    /// unaffected: the surviving stack is a prefix of the full one, and
    /// the next resume clamps its shared prefix to the surviving depth.
    pub fn resume_bounded(
        &mut self,
        candidate: &[u8],
        shared_prefix: usize,
        keep_limit: usize,
    ) -> Option<u32> {
        if self.m == 0 {
            // No bit-parallel form: the distance is trivially |candidate|.
            let d = candidate.len() as u32;
            return (d <= self.k).then_some(d);
        }
        let keep = shared_prefix.min(self.depth()).min(candidate.len());
        self.truncate(keep);
        self.reused += (keep * self.blocks) as u64;
        let n = candidate.len();
        let mut score = self.scores[keep];
        // The checkpointed score alone may already put k out of reach of
        // the remaining bytes — the stack analog of a dead prefix.
        if score_is_dead(score, self.k, n - keep) {
            return None;
        }
        // Checkpointed phase: columns the next resume may adopt.
        let ckpt_end = keep_limit.min(n);
        let mut pos = keep;
        let mut alive = true;
        if pos < ckpt_end {
            self.states.reserve((ckpt_end - pos) * self.blocks);
            self.scores.reserve(ckpt_end - pos);
            while pos < ckpt_end {
                score = self.push(candidate[pos], score);
                pos += 1;
                if score_is_dead(score, self.k, n - pos) {
                    alive = false;
                    break;
                }
            }
        }
        let mut advanced = (pos - keep) as u64;
        // Unstacked tail: nothing past `keep_limit` is ever resumed, so
        // the remaining bytes advance one scratch column in place.
        if alive && pos < n {
            let base = self.states.len() - self.blocks;
            self.scratch.clear();
            self.scratch.extend_from_slice(&self.states[base..]);
            for (j, &c) in candidate[pos..].iter().enumerate() {
                score = self.advance_scratch(c, score);
                advanced += 1;
                if score_is_dead(score, self.k, n - pos - j - 1) {
                    alive = false;
                    break;
                }
            }
        }
        // One batched counter update per candidate, not per byte.
        self.words += advanced * self.blocks as u64;
        self.cells += advanced * self.m as u64;
        (alive && score <= self.k as i64).then_some(score as u32)
    }

    /// Backtracks to stack depth `depth` (a no-op when already there).
    fn truncate(&mut self, depth: usize) {
        debug_assert!(depth <= self.depth());
        self.scores.truncate(depth + 1);
        self.states.truncate((depth + 1) * self.blocks);
    }

    /// Advances every block by candidate byte `c`, checkpointing the new
    /// column; takes the caller's running score (kept in a register
    /// across the candidate instead of re-read from the stack) and
    /// returns the new score at the last pattern row.
    ///
    /// The last block is peeled out of the carry-chain loop so the score
    /// update runs once per byte, branch-free.
    #[inline]
    fn push(&mut self, c: u8, score: i64) -> i64 {
        let blocks = self.blocks;
        debug_assert!(blocks > 0, "push requires a non-empty query");
        let base = self.states.len() - blocks;
        let pbase = c as usize * blocks;
        // Horizontal input into block 0 is +1: D[0][j] = j.
        let mut hin: i32 = 1;
        for b in 0..blocks - 1 {
            let st = self.states[base + b];
            let adv = advance_block(st.pv, st.mv, self.peq[pbase + b], hin);
            self.states.push(BlockState {
                pv: adv.pv,
                mv: adv.mv,
            });
            hin = adv.hout;
        }
        let st = self.states[base + blocks - 1];
        let adv = advance_block(st.pv, st.mv, self.peq[pbase + blocks - 1], hin);
        self.states.push(BlockState {
            pv: adv.pv,
            mv: adv.mv,
        });
        let score = score + i64::from(adv.ph_pre & self.last != 0)
            - i64::from(adv.mh_pre & self.last != 0);
        self.scores.push(score);
        score
    }

    /// Advances the scratch column by candidate byte `c` in place (the
    /// unstacked tail of a bounded resume); returns the new score at the
    /// last pattern row.
    #[inline]
    fn advance_scratch(&mut self, c: u8, score: i64) -> i64 {
        let blocks = self.blocks;
        let pbase = c as usize * blocks;
        let mut hin: i32 = 1;
        for b in 0..blocks - 1 {
            let st = self.scratch[b];
            let adv = advance_block(st.pv, st.mv, self.peq[pbase + b], hin);
            self.scratch[b] = BlockState {
                pv: adv.pv,
                mv: adv.mv,
            };
            hin = adv.hout;
        }
        let st = self.scratch[blocks - 1];
        let adv = advance_block(st.pv, st.mv, self.peq[pbase + blocks - 1], hin);
        self.scratch[blocks - 1] = BlockState {
            pv: adv.pv,
            mv: adv.mv,
        };
        score + i64::from(adv.ph_pre & self.last != 0) - i64::from(adv.mh_pre & self.last != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::full::levenshtein;
    use crate::myers_block::MyersBlock;

    fn common_prefix(a: &[u8], b: &[u8]) -> usize {
        a.iter().zip(b).take_while(|(x, y)| x == y).count()
    }

    /// Feeding a sorted candidate list with true LCPs must reproduce the
    /// within-k oracle on every candidate.
    fn check_stream(query: &[u8], candidates: &[&[u8]], k: u32) {
        let mut sorted: Vec<&[u8]> = candidates.to_vec();
        sorted.sort();
        let mut dp = MyersStackKernel::new(query, k);
        for (i, &c) in sorted.iter().enumerate() {
            let lcp = if i == 0 {
                0
            } else {
                common_prefix(sorted[i - 1], c)
            };
            let truth = levenshtein(query, c);
            assert_eq!(
                dp.resume(c, lcp),
                (truth <= k).then_some(truth),
                "query {query:?} candidate {c:?} k {k}"
            );
        }
    }

    #[test]
    fn matches_oracle_on_sorted_word_streams() {
        let words: &[&[u8]] = &[
            b"",
            b"Berlin",
            b"Bern",
            b"Berlingen",
            b"Bayern",
            b"B",
            b"Ulm",
            b"Ulmen",
            b"AGGCGT",
            b"AGAGT",
            b"AGAGT",
        ];
        for &q in words {
            for k in 0..5 {
                check_stream(q, words, k);
            }
        }
    }

    #[test]
    fn matches_oracle_across_block_boundaries() {
        // Queries straddling the one-word limit force the multi-block
        // carry chain through truncate/push cycles.
        for qlen in [63usize, 64, 65, 100, 129] {
            let q: Vec<u8> = (0..qlen).map(|i| b"ACGT"[i % 4]).collect();
            let mut cands: Vec<Vec<u8>> = Vec::new();
            for edit in 0..6 {
                let mut c = q.clone();
                for e in 0..edit {
                    c[(e * 17) % qlen] = b'N';
                }
                cands.push(c);
            }
            cands.push(q[..qlen / 2].to_vec());
            cands.push(vec![b'T'; qlen]);
            let cand_refs: Vec<&[u8]> = cands.iter().map(Vec::as_slice).collect();
            for k in [0, 4, 8, 16] {
                check_stream(&q, &cand_refs, k);
            }
        }
    }

    #[test]
    fn zero_shared_prefix_restarts_cleanly() {
        let words: &[&[u8]] = &[b"Ulm", b"Berlin", b"Ulm", b"Bern"];
        let mut dp = MyersStackKernel::new(b"Bern", 2);
        for &c in words {
            let truth = levenshtein(b"Bern", c);
            assert_eq!(dp.resume(c, 0), (truth <= 2).then_some(truth), "{c:?}");
        }
        assert_eq!(dp.words_reused(), 0);
    }

    #[test]
    fn candidate_shorter_than_stack_depth() {
        // "Berlingen" then its own prefix "Berlin": resume must pop to
        // the candidate's full length and read the stacked score.
        let mut dp = MyersStackKernel::new(b"Berlin", 2);
        dp.resume(b"Berlingen", 0);
        let words_before = dp.words_advanced();
        assert_eq!(dp.resume(b"Berlin", 6), Some(0));
        assert_eq!(dp.depth(), 6);
        // The whole candidate came from the stack: no new words.
        assert_eq!(dp.words_advanced(), words_before);
    }

    #[test]
    fn aborted_stack_stays_valid_for_the_next_resume() {
        // The first candidate dies mid-push, leaving a shorter stack;
        // the next resume's shared prefix exceeds the surviving depth
        // and must be clamped, not trusted.
        let q = vec![b'A'; 40];
        let mut dp = MyersStackKernel::new(&q, 1);
        let dead = vec![b'T'; 40];
        assert_eq!(dp.resume(&dead, 0), None);
        assert!(dp.depth() < 40, "abort must have fired early");
        let mut near = vec![b'T'; 40];
        near[39] = b'A';
        let truth = levenshtein(&q, &near);
        assert_eq!(dp.resume(&near, 39), (truth <= 1).then_some(truth));
    }

    #[test]
    fn dead_prefix_skips_without_advancing_words() {
        let q = vec![b'A'; 8];
        let mut dp = MyersStackKernel::new(&q, 1);
        assert_eq!(dp.resume(b"TTTTTTTT", 0), None);
        let words_after_first = dp.words_advanced();
        // Shares the surviving dead prefix; same length, so the
        // checkpointed score is already out of reach.
        let depth = dp.depth();
        assert_eq!(dp.resume(&vec![b'T'; depth], depth), None);
        assert_eq!(dp.words_advanced(), words_after_first);
    }

    #[test]
    fn empty_query_and_empty_candidates() {
        let mut dp = MyersStackKernel::new(b"", 1);
        assert_eq!(dp.resume(b"", 0), Some(0));
        assert_eq!(dp.resume(b"a", 0), Some(1));
        assert_eq!(dp.resume(b"ab", 1), None);
        let mut dp = MyersStackKernel::new(b"ab", 2);
        assert_eq!(dp.resume(b"", 0), Some(2));
    }

    #[test]
    fn reset_clears_stack_and_counters() {
        let mut dp = MyersStackKernel::new(b"Berlin", 2);
        dp.resume(b"Bern", 0);
        assert!(dp.words_advanced() > 0);
        dp.reset(b"Ulm", 1);
        assert_eq!(dp.depth(), 0);
        assert_eq!(dp.words_advanced(), 0);
        assert_eq!(dp.words_reused(), 0);
        assert_eq!(dp.threshold(), 1);
        assert_eq!(dp.resume(b"Ulm", 0), Some(0));
    }

    #[test]
    fn resumed_equals_fresh_blocked_within() {
        // The kernel resumed at a true shared prefix must agree with a
        // fresh MyersBlock::within on every candidate.
        let q: Vec<u8> = (0..100).map(|i| b"ACGT"[(i * 7) % 4]).collect();
        let fresh = MyersBlock::new(&q).unwrap();
        let mut cands: Vec<Vec<u8>> = (0..20)
            .map(|s| {
                let mut c = q.clone();
                c[(s * 13) % 100] = b'N';
                c[(s * 31) % 100] = b'G';
                c
            })
            .collect();
        cands.sort();
        for k in [2, 8, 16] {
            let mut dp = MyersStackKernel::new(&q, k);
            for (i, c) in cands.iter().enumerate() {
                let lcp = if i == 0 {
                    0
                } else {
                    common_prefix(&cands[i - 1], c)
                };
                assert_eq!(dp.resume(c, lcp), fresh.within(c, k), "k={k} i={i}");
            }
        }
    }

    #[test]
    fn bounded_checkpointing_matches_the_oracle_and_caps_depth() {
        // A sorted stream fed with true next-record LCP bounds must be
        // byte-identical to the unbounded kernel, while never stacking
        // deeper than the bound it was given.
        let mut cands: Vec<Vec<u8>> = (0..30u8)
            .map(|s| {
                let mut c: Vec<u8> = (0..80).map(|i| b"ACGT"[(i * 11 + 3) % 4]).collect();
                c[(s as usize * 7) % 80] = b"ACGTN"[s as usize % 5];
                c[(s as usize * 23) % 80] = b'N';
                c
            })
            .collect();
        cands.sort();
        cands.dedup();
        let q: Vec<u8> = (0..80).map(|i| b"ACGT"[(i * 11 + 3) % 4]).collect();
        for k in [1, 4, 8] {
            let mut bounded = MyersStackKernel::new(&q, k);
            let mut full = MyersStackKernel::new(&q, k);
            for (i, c) in cands.iter().enumerate() {
                let lcp = if i == 0 {
                    0
                } else {
                    common_prefix(&cands[i - 1], c)
                };
                let limit = if i + 1 < cands.len() {
                    common_prefix(c, &cands[i + 1])
                } else {
                    0
                };
                assert_eq!(
                    bounded.resume_bounded(c, lcp, limit),
                    full.resume(c, lcp),
                    "k={k} i={i}"
                );
                // The stack never grows past the bound, but may stay
                // deeper when the *incoming* shared prefix already was
                // (those checkpoints remain valid — only growth is
                // capped).
                assert!(bounded.depth() <= limit.max(lcp), "k={k} i={i}");
            }
            // The tail runs unstacked but is still counted as work.
            assert_eq!(bounded.words_advanced(), full.words_advanced());
            assert!(bounded.words_reused() <= full.words_reused());
        }
    }

    #[test]
    fn reuse_advances_fewer_words_than_restarting() {
        let a = b"Brandenburg an der Havel";
        let b = b"Brandenburg an der Spree";
        let q = b"Brandenburg an der Hafel";
        let mut reuse = MyersStackKernel::new(q, 4);
        reuse.resume(a, 0);
        reuse.resume(b, common_prefix(a, b));
        let mut restart = MyersStackKernel::new(q, 4);
        restart.resume(a, 0);
        restart.resume(b, 0);
        assert!(
            reuse.words_advanced() < restart.words_advanced(),
            "{} vs {}",
            reuse.words_advanced(),
            restart.words_advanced()
        );
        assert_eq!(reuse.words_reused(), common_prefix(a, b) as u64);
    }
}
