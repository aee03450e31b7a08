//! Reply checking. Every reply is classified (ok / refused / wrong /
//! unanswered). On frozen data every QUERY reply must equal the first
//! reply to the same text, and a deterministic sample of texts is
//! re-answered in process by the V1 scan — the repository's definition
//! of correct. On live data the sample is re-answered over exactly the
//! records the daemon acknowledged.

use crate::loadgen::Sent;
use crate::spec::{Op, TOPK_COUNT};
use simsearch_data::{Dataset, Match, MatchSet, RecordId, Workload};
use simsearch_scan::{SeqVariant, SequentialScan};
use simsearch_serve::protocol::{parse_response, Response};

/// Per-outcome counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Answered with the expected reply shape (and, where checked, the
    /// right answer).
    pub ok: u64,
    /// `BUSY` replies.
    pub busy: u64,
    /// `TIMEOUT` replies.
    pub timeout: u64,
    /// `ERR` replies.
    pub err: u64,
    /// Replies that contradict another reply or the oracle.
    pub wrong: u64,
    /// Requests with no reply at all.
    pub unanswered: u64,
}

impl Tally {
    /// Everything that is not `ok`.
    pub fn failed(&self) -> u64 {
        self.busy + self.timeout + self.err + self.wrong + self.unanswered
    }

    /// Requests counted.
    pub fn attempted(&self) -> u64 {
        self.ok + self.failed()
    }

    /// Field-wise sum.
    pub fn add(&mut self, o: &Tally) {
        self.ok += o.ok;
        self.busy += o.busy;
        self.timeout += o.timeout;
        self.err += o.err;
        self.wrong += o.wrong;
        self.unanswered += o.unanswered;
    }
}

/// Classifies replies and remembers what the oracle must confirm.
pub struct Checker {
    /// Whether every reply to the same QUERY text must agree (frozen
    /// data only: on a live engine writes change the answers).
    consistent_queries: bool,
    query: Vec<Option<Vec<Match>>>,
    topk: Vec<Option<Vec<Match>>>,
    /// Acknowledged inserts: (assigned id, record).
    pub inserted: Vec<(RecordId, Vec<u8>)>,
    /// Acknowledged deletes.
    pub deleted: Vec<RecordId>,
    /// Running totals over every request classified so far.
    pub total: Tally,
}

impl Checker {
    /// A checker for a run whose QUERY texts come from a pool of `pool`.
    pub fn new(pool: usize, consistent_queries: bool) -> Self {
        Self {
            consistent_queries,
            query: vec![None; pool],
            topk: vec![None; pool],
            inserted: Vec::new(),
            deleted: Vec::new(),
            total: Tally::default(),
        }
    }

    /// Classifies one phase's replies; returns that phase's tally (also
    /// added to [`Checker::total`]).
    pub fn observe(&mut self, ops: &[Op], sent: &[Sent]) -> Tally {
        let mut t = Tally::default();
        for (op, s) in ops.iter().zip(sent) {
            if s.received.is_none() {
                t.unanswered += 1;
                continue;
            }
            match (op, parse_response(&s.reply)) {
                (_, Ok(Response::Busy)) => t.busy += 1,
                (_, Ok(Response::Timeout)) => t.timeout += 1,
                (_, Ok(Response::Error(_))) => t.err += 1,
                (Op::Query { q }, Ok(Response::Matches(m))) => {
                    if !self.consistent_queries || consistent(&mut self.query[*q], m, |a, b| a == b)
                    {
                        t.ok += 1;
                    } else {
                        t.wrong += 1;
                    }
                }
                (Op::TopK { q }, Ok(Response::Matches(m))) => {
                    // Ties at the k-th distance may legitimately resolve
                    // to different ids; the distance profile may not.
                    if m.len() <= TOPK_COUNT as usize
                        && consistent(&mut self.topk[*q], m, |a, b| distances(a) == distances(b))
                    {
                        t.ok += 1;
                    } else {
                        t.wrong += 1;
                    }
                }
                (Op::Insert { text }, Ok(Response::Inserted(id))) => {
                    self.inserted.push((id, text.clone()));
                    t.ok += 1;
                }
                (Op::Delete { id }, Ok(Response::Deleted { existed: true })) => {
                    self.deleted.push(*id);
                    t.ok += 1;
                }
                _ => t.wrong += 1,
            }
        }
        self.total.add(&t);
        t
    }

    /// Re-answers pool entries `0..sample` with the V1 scan over the
    /// frozen dataset and compares them with the daemon's replies (QUERY
    /// at the entry's threshold, and TOPK where one was sent). Returns
    /// the number of disagreements (each also counted as wrong).
    pub fn verify_frozen(&mut self, dataset: &Dataset, pool: &Workload, sample: usize) -> u64 {
        let scan = SequentialScan::new(dataset);
        let mut wrong = 0;
        for (q, rec) in pool.queries.iter().enumerate().take(sample) {
            if let Some(reply) = &self.query[q] {
                let expected = scan.search_one(SeqVariant::V1Base, &rec.text, rec.threshold);
                if reply.as_slice() != expected.matches() {
                    wrong += 1;
                }
            }
            if let Some(reply) = &self.topk[q] {
                if !topk_agrees(&scan, &rec.text, reply, dataset.len()) {
                    wrong += 1;
                }
            }
        }
        self.total.wrong += wrong;
        wrong
    }

    /// The records a live daemon must hold after the run: the seed,
    /// plus acknowledged inserts, minus acknowledged deletes — as a
    /// dataset plus its table of global ids (ascending).
    pub fn survivors(&self, seed: &Dataset) -> (Dataset, Vec<RecordId>) {
        let deleted: std::collections::HashSet<RecordId> = self.deleted.iter().copied().collect();
        let mut records: Vec<(RecordId, &[u8])> = (0..seed.len() as RecordId)
            .filter(|id| !deleted.contains(id))
            .map(|id| (id, seed.get(id)))
            .collect();
        records.extend(self.inserted.iter().map(|(id, t)| (*id, t.as_slice())));
        records.sort_by_key(|&(id, _)| id);
        let mut data = Dataset::new();
        let globals = records
            .into_iter()
            .map(|(id, text)| {
                data.push(text);
                id
            })
            .collect();
        (data, globals)
    }
}

/// Records the first reply for a key; later replies must agree with it.
fn consistent(
    slot: &mut Option<Vec<Match>>,
    reply: Vec<Match>,
    same: impl Fn(&[Match], &[Match]) -> bool,
) -> bool {
    match slot {
        Some(first) => same(first, &reply),
        None => {
            *slot = Some(reply);
            true
        }
    }
}

fn distances(m: &[Match]) -> Vec<u32> {
    let mut d: Vec<u32> = m.iter().map(|m| m.distance).collect();
    d.sort_unstable();
    d
}

/// A TOPK reply is right when every (id, distance) it names is a true
/// match and its distances are the smallest `count` the V1 scan finds.
fn topk_agrees(scan: &SequentialScan<'_>, query: &[u8], reply: &[Match], records: usize) -> bool {
    let want = (TOPK_COUNT as usize).min(records);
    let Some(radius) = reply.iter().map(|m| m.distance).max() else {
        return want == 0;
    };
    let within: MatchSet = scan.search_one(SeqVariant::V1Base, query, radius);
    let mut true_d = distances(within.matches());
    true_d.truncate(want);
    reply.len() == want
        && distances(reply) == true_d
        && reply
            .iter()
            .all(|m| within.matches().binary_search(m).is_ok())
}

/// V1 answer over `data` (local ids) remapped through `globals`.
pub fn v1_global(data: &Dataset, globals: &[RecordId], query: &[u8], k: u32) -> Vec<Match> {
    SequentialScan::new(data)
        .search_one(SeqVariant::V1Base, query, k)
        .matches()
        .iter()
        .map(|m| Match::new(globals[m.id as usize], m.distance))
        .collect()
}
