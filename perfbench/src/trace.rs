//! The traced run: the loopback run's warm-up and reference requests
//! replayed in process, through the public function of each layer,
//! with an in-memory span around every call.
//!
//! A span has a name, start, end, parent and request id (plus a small
//! tag — the shard index for per-shard spans). Self time is a span's
//! duration minus its children's. Spans are written out as TSV when the
//! replay ends.

use crate::spec::{Kind, Op, Spec, LIVE_SHARDS};
use simsearch_core::backend::BitParallelScanBackend;
use simsearch_core::{
    merge_match_sets, partition_ids, route_record, sharded::materialize, AutoBackend, Backend,
    BackendChoice, FilteredScanBackend, LiveEngine, LsmConfig, Planner, QgramBackend, RadixBackend,
    ShardBy, SortedScanBackend, Strategy,
};
use simsearch_data::{io, Dataset, MatchSet, RecordId, StatsSnapshot, Workload};
use simsearch_scan::SequentialScan;
use simsearch_serve::protocol::{
    encode_response, matches_response, parse_request, Request, Response,
};
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name (`protocol.parse`, `backend.routed`, …).
    pub name: &'static str,
    /// Request id (index in the replayed stream; 0 for set-up spans).
    pub req: u64,
    /// Free tag: the shard index for per-shard spans, else 0.
    pub tag: u32,
    /// Enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration, nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder.
pub struct Tracer {
    origin: Instant,
    /// Every span, in start order.
    pub spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span; spans opened by `f` become its children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        req: u64,
        tag: u32,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let idx = self.spans.len();
        let parent = self.stack.last().copied();
        self.spans.push(Span {
            name,
            req,
            tag,
            parent,
            start_ns: 0,
            end_ns: 0,
        });
        self.stack.push(idx);
        self.spans[idx].start_ns = self.now_ns();
        let out = f(self);
        self.spans[idx].end_ns = self.now_ns();
        self.stack.pop();
        out
    }

    /// Self time of every span (duration minus direct children).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Duration of the most recently opened span, nanoseconds.
    pub fn last_ns(&self) -> u64 {
        self.spans.last().map_or(0, Span::dur_ns)
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Writes every span as one TSV line.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let own = self.self_ns();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "span\treq\tname\ttag\tparent\tstart_ns\tend_ns\tself_ns"
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}\t{}\t{}",
                s.req, s.name, s.tag, s.start_ns, s.end_ns, own[i]
            )?;
        }
        out.flush()
    }
}

/// Per-layer figures of one replay, by metric name.
pub type Figures = Vec<(String, f64)>;

/// The candidate arms the served planner routes between, with the span
/// name each one's pinned calls are recorded under.
const ARMS: [(BackendChoice, &str); 5] = [
    (BackendChoice::ScanFlat, "backend.scan-flat"),
    (BackendChoice::ScanSorted, "backend.scan-sorted"),
    (BackendChoice::ScanBitParallel, "backend.scan-bitparallel"),
    (BackendChoice::Radix, "backend.radix"),
    (BackendChoice::Qgram, "backend.qgram"),
];

/// Every candidate arm, built and prepared exactly as the
/// planner-driven engine builds it, in the planner's candidate order.
pub fn build_arms(ds: &Dataset) -> Vec<Box<dyn Backend + '_>> {
    ARMS.iter()
        .map(|&(choice, _)| {
            let arm = build_arm(ds, choice);
            arm.prepare();
            arm
        })
        .collect()
}

fn build_arm(ds: &Dataset, choice: BackendChoice) -> Box<dyn Backend + '_> {
    match choice {
        BackendChoice::ScanFlat => Box::new(FilteredScanBackend::new(ds, Strategy::Sequential)),
        BackendChoice::ScanSorted => Box::new(SortedScanBackend::new(SequentialScan::new(ds))),
        BackendChoice::ScanBitParallel => {
            Box::new(BitParallelScanBackend::new(SequentialScan::new(ds)))
        }
        BackendChoice::Radix => Box::new(RadixBackend::build(ds, false, Strategy::Sequential)),
        BackendChoice::Qgram => Box::new(QgramBackend::build(ds, 2, Strategy::Sequential)),
        other => unreachable!("{other:?} is not a default candidate"),
    }
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Nearest-rank quantile of `v` (0 when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// What the deterministic part of a frozen replay counted: pinned-arm
/// DP cells per query class and static-table routing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counts {
    /// `(threshold, V7 cells, V8 cells, queries)` per query class.
    pub cells_by_k: Vec<(u32, u64, u64, u64)>,
    /// `(arm, queries)` the static (uncalibrated) decision table routes
    /// the query pool to.
    pub static_routes: Vec<(&'static str, u64)>,
}

/// Deterministic counts for a frozen dataset: V7/V8 cells of the first
/// `pinned` pool entries (by threshold) and static routing of the whole
/// pool. `arms` are the candidates in [`build_arms`] order. Wall-clock
/// free, so it repeats exactly for a seed.
pub fn counts(
    arms: &[Box<dyn Backend + '_>],
    ds: &Dataset,
    pool: &Workload,
    pinned: usize,
) -> Counts {
    let (v7, v8) = (&arms[1], &arms[2]);
    let mut by_k: Vec<(u32, u64, u64, u64)> = Vec::new();
    for q in pool.queries.iter().take(pinned) {
        let (_, c7) = v7.search_counting(&q.text, q.threshold);
        let (_, c8) = v8.search_counting(&q.text, q.threshold);
        match by_k.iter_mut().find(|e| e.0 == q.threshold) {
            Some(e) => {
                e.1 += c7;
                e.2 += c8;
                e.3 += 1;
            }
            None => by_k.push((q.threshold, c7, c8, 1)),
        }
    }
    by_k.sort_unstable();
    Counts {
        cells_by_k: by_k,
        static_routes: static_routes(ds, pool),
    }
}

fn static_routes(ds: &Dataset, pool: &Workload) -> Vec<(&'static str, u64)> {
    let planner = Planner::new(StatsSnapshot::compute(ds), &AutoBackend::DEFAULT_CANDIDATES);
    ARMS.iter()
        .map(|&(choice, _)| {
            let n = pool
                .queries
                .iter()
                .filter(|q| planner.decide(q.text.len(), q.threshold).chosen == choice)
                .count();
            (choice.name(), n as u64)
        })
        .collect()
}

/// Replays `ops` against the served engine kind of `spec`, built in
/// process from the dataset file, and returns per-layer figures. Any
/// disagreement between arms, shards or the replay and itself is
/// returned as an error.
pub fn replay(
    spec: &Spec,
    data: &Path,
    pool: &Workload,
    ops: &[Op],
    tracer: &mut Tracer,
) -> Result<Figures, String> {
    let ds = tracer
        .span("setup.load", 0, 0, |_| io::read_dataset(data))
        .map_err(|e| format!("reading {data:?}: {e}"))?;
    let mut figs: Figures = vec![("setup.load_s".into(), tracer.last_ns() as f64 / 1e9)];
    match spec.kind {
        Kind::CityRead | Kind::DnaRead => replay_frozen(spec, &ds, pool, ops, tracer, &mut figs)?,
        Kind::CityLive => replay_live(spec, &ds, pool, ops, tracer, &mut figs)?,
    }
    Ok(figs)
}

fn replay_frozen(
    spec: &Spec,
    ds: &Dataset,
    pool: &Workload,
    ops: &[Op],
    tracer: &mut Tracer,
    figs: &mut Figures,
) -> Result<(), String> {
    // Every candidate arm, built and prepared on its own: the build
    // cost, and the pinned-arm traces below.
    let arms: Vec<Box<dyn Backend + '_>> = ARMS
        .iter()
        .map(|&(choice, _)| {
            tracer.span("setup.build", 0, choice.index() as u32, |_| {
                let arm = build_arm(ds, choice);
                arm.prepare();
                arm
            })
        })
        .collect();
    let build_ns: u64 = tracer
        .spans
        .iter()
        .filter(|s| s.name == "setup.build")
        .map(Span::dur_ns)
        .sum();
    // The served engine: the calibrated constructor rebuilds every arm
    // and runs the probe; its time beyond the arm builds is the probe.
    let auto = tracer.span("setup.calibrate", 0, 0, |_| {
        let auto = AutoBackend::calibrated(ds, 1, &AutoBackend::default_probe(ds));
        auto.prepare();
        auto
    });
    let calibrate_ns = tracer.last_ns().saturating_sub(build_ns);
    figs.push(("setup.build_s".into(), build_ns as f64 / 1e9));
    figs.push(("setup.calibrate_s".into(), calibrate_ns as f64 / 1e9));

    // The request stream, with the daemon's 1 s replan tick between
    // requests.
    let mut reply_bytes = Vec::new();
    let mut next_tick = Instant::now() + Duration::from_secs(1);
    for (i, op) in ops.iter().enumerate() {
        if Instant::now() >= next_tick {
            auto.replan();
            next_tick = Instant::now() + Duration::from_secs(1);
        }
        let frame = op.frame(pool);
        let bytes = tracer.span("request", i as u64, 0, |t| -> Result<usize, String> {
            let req = t.span("protocol.parse", i as u64, 0, |_| parse_request(&frame));
            let reply = match req {
                Ok(Request::Query { k, text }) => {
                    let planner = auto.planner();
                    t.span("planner.decide", i as u64, 0, |_| {
                        planner.decide(text.len(), k).chosen
                    });
                    let (m, _) = t.span("backend.routed", i as u64, 0, |_| {
                        auto.search_counting(&text, k)
                    });
                    t.span("protocol.encode", i as u64, 0, |_| {
                        encode_response(&matches_response(&m))
                    })
                }
                Ok(Request::TopK { count, text }) => {
                    let (m, _) = t.span("topk", i as u64, 0, |_| {
                        auto.search_top_k_with(&text, count as usize, 64)
                    });
                    t.span("protocol.encode", i as u64, 0, |_| {
                        encode_response(&Response::Matches(m))
                    })
                }
                other => return Err(format!("replay cannot serve {other:?}")),
            };
            Ok(reply.len())
        })?;
        reply_bytes.push(bytes as f64);
    }
    push_request_figures(tracer, figs, &reply_bytes);
    figs.push((
        "planner.decide_ns".into(),
        median(&tracer.durations("planner.decide")),
    ));
    let routed = tracer.durations("backend.routed");
    figs.push(("backend.routed_p50_us".into(), median(&routed) / 1e3));
    figs.push((
        "backend.routed_p99_us".into(),
        quantile(&routed, 0.99) / 1e3,
    ));
    figs.push((
        "topk.p50_us".into(),
        median(&tracer.durations("topk")) / 1e3,
    ));

    // Pinned arms over the deterministic sample: per-arm latency, the
    // arm that was fastest per query, and cross-arm agreement.
    let sample: Vec<_> = pool.queries.iter().take(spec.pinned_sample).collect();
    let mut best: Vec<(u64, BackendChoice)> =
        vec![(u64::MAX, BackendChoice::ScanFlat); sample.len()];
    let mut v8_cells = 0u64;
    let mut reference: Vec<MatchSet> = Vec::with_capacity(sample.len());
    for (a, (arm, &(choice, name))) in arms.iter().zip(&ARMS).enumerate() {
        for (q, rec) in sample.iter().enumerate() {
            let before = tracer.spans.len();
            let (m, cells) = tracer.span(name, q as u64, 0, |_| {
                arm.search_counting(&rec.text, rec.threshold)
            });
            let ns = tracer.spans[before].dur_ns();
            if ns < best[q].0 {
                best[q] = (ns, choice);
            }
            if choice == BackendChoice::ScanBitParallel {
                v8_cells += cells;
            }
            if a == 0 {
                reference.push(m);
            } else if m != reference[q] {
                return Err(format!(
                    "arm {name} disagrees with {} on pool entry {q}",
                    ARMS[0].1
                ));
            }
        }
        figs.push((
            format!("{name}.p50_us"),
            median(&tracer.durations(name)) / 1e3,
        ));
    }
    let v8_ns: f64 = tracer.durations("backend.scan-bitparallel").iter().sum();
    figs.push((
        "scan.v8_cells_per_us".into(),
        if v8_ns > 0.0 {
            v8_cells as f64 / (v8_ns / 1e3)
        } else {
            0.0
        },
    ));
    let planner = auto.planner();
    let agree = sample
        .iter()
        .zip(&best)
        .filter(|(rec, b)| planner.decide(rec.text.len(), rec.threshold).chosen == b.1)
        .count();
    figs.push((
        "planner.best_arm_frac".into(),
        agree as f64 / sample.len().max(1) as f64,
    ));

    let c = counts(&arms, ds, pool, spec.pinned_sample);
    let queries: u64 = c.cells_by_k.iter().map(|e| e.3).sum::<u64>().max(1);
    figs.push((
        "scan.v7_cells_per_query".into(),
        c.cells_by_k.iter().map(|e| e.1).sum::<u64>() as f64 / queries as f64,
    ));
    figs.push((
        "scan.v8_cells_per_query".into(),
        c.cells_by_k.iter().map(|e| e.2).sum::<u64>() as f64 / queries as f64,
    ));
    for (arm, n) in c.static_routes {
        figs.push((format!("planner.static.{arm}"), n as f64));
    }
    Ok(())
}

fn push_request_figures(tracer: &Tracer, figs: &mut Figures, reply_bytes: &[f64]) {
    figs.push((
        "protocol.parse_ns".into(),
        median(&tracer.durations("protocol.parse")),
    ));
    figs.push((
        "protocol.encode_ns".into(),
        median(&tracer.durations("protocol.encode")),
    ));
    figs.push(("protocol.reply_bytes".into(), mean(reply_bytes)));
}

fn replay_live(
    spec: &Spec,
    ds: &Dataset,
    pool: &Workload,
    ops: &[Op],
    tracer: &mut Tracer,
    figs: &mut Figures,
) -> Result<(), String> {
    let cfg = LsmConfig {
        memtable_cap: spec.memtable_cap,
    };
    let seed_len = ds.len() as RecordId;
    let shards: Vec<LiveEngine> = tracer.span("setup.build", 0, 0, |_| {
        partition_ids(ds, LIVE_SHARDS, ShardBy::Hash)
            .into_iter()
            .map(|globals| LiveEngine::seeded(materialize(ds, &globals), globals, seed_len, cfg))
            .collect()
    });
    figs.push(("setup.build_s".into(), tracer.last_ns() as f64 / 1e9));
    figs.push(("setup.calibrate_s".into(), 0.0));

    let mut next_id = seed_len;
    let mut owner: HashMap<RecordId, usize> = HashMap::new();
    let (mut mem_max, mut seg_max, mut v7_cells, mut queries) = (0usize, 0usize, 0u64, 0u64);
    let mut straggler = Vec::new();
    let mut reply_bytes = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let frame = op.frame(pool);
        let r = i as u64;
        let bytes = tracer.span("request", r, 0, |t| -> Result<usize, String> {
            let reply = match t.span("protocol.parse", r, 0, |_| parse_request(&frame)) {
                Ok(Request::Query { k, text }) => {
                    let mut parts = Vec::with_capacity(shards.len());
                    let mut times = Vec::with_capacity(shards.len());
                    for (s, shard) in shards.iter().enumerate() {
                        let before = t.spans.len();
                        let (m, cells) = t.span("sharded.shard", r, s as u32, |_| {
                            shard.search_counting(&text, k)
                        });
                        times.push(t.spans[before].dur_ns() as f64);
                        v7_cells += cells;
                        parts.push(m);
                    }
                    queries += 1;
                    straggler
                        .push(times.iter().cloned().fold(0.0, f64::max) / mean(&times).max(1.0));
                    let merged = t.span("sharded.merge", r, 0, |_| merge_match_sets(&parts));
                    t.span("protocol.encode", r, 0, |_| {
                        encode_response(&matches_response(&merged))
                    })
                }
                Ok(Request::Insert { text }) => {
                    let id = next_id;
                    next_id += 1;
                    let s = route_record(&text, shards.len());
                    t.span("lsm.insert", r, s as u32, |_| {
                        shards[s].insert_with_id(&text, id)
                    });
                    owner.insert(id, s);
                    t.span("protocol.encode", r, 0, |_| {
                        encode_response(&Response::Inserted(id))
                    })
                }
                Ok(Request::Delete { id }) => {
                    let s = owner
                        .get(&id)
                        .copied()
                        .unwrap_or_else(|| route_record(ds.get(id), shards.len()));
                    let existed = t.span("lsm.delete", r, s as u32, |_| shards[s].delete(id));
                    if !existed {
                        return Err(format!("replayed DELETE {id} found no live record"));
                    }
                    t.span("protocol.encode", r, 0, |_| {
                        encode_response(&Response::Deleted { existed })
                    })
                }
                other => return Err(format!("replay cannot serve {other:?}")),
            };
            Ok(reply.len())
        })?;
        reply_bytes.push(bytes as f64);
        // Compaction rides the request path's threads between requests,
        // as it does on the daemon's batch workers.
        for (s, shard) in shards.iter().enumerate() {
            loop {
                let before = tracer.spans.len();
                let ran = tracer.span("lsm.compact", r, s as u32, |_| shard.maybe_compact());
                if !ran {
                    tracer.spans.truncate(before);
                    break;
                }
            }
            let st = shard.stats();
            mem_max = mem_max.max(st.memtable_len);
            seg_max = seg_max.max(st.segments);
        }
    }
    push_request_figures(tracer, figs, &reply_bytes);
    figs.push((
        "sharded.merge_us".into(),
        median(&tracer.durations("sharded.merge")) / 1e3,
    ));
    figs.push(("sharded.straggler_ratio".into(), mean(&straggler)));
    figs.push((
        "scan.v7_cells_per_query".into(),
        v7_cells as f64 / queries.max(1) as f64,
    ));
    figs.push((
        "lsm.insert_us".into(),
        median(&tracer.durations("lsm.insert")) / 1e3,
    ));
    figs.push((
        "lsm.delete_us".into(),
        median(&tracer.durations("lsm.delete")) / 1e3,
    ));
    let compact = tracer.durations("lsm.compact");
    figs.push((
        "lsm.compact_ms_total".into(),
        compact.iter().sum::<f64>() / 1e6,
    ));
    figs.push((
        "lsm.compact_ms_max".into(),
        compact.iter().cloned().fold(0.0, f64::max) / 1e6,
    ));
    figs.push(("lsm.memtable_len_max".into(), mem_max as f64));
    figs.push(("lsm.segments_max".into(), seg_max as f64));
    figs.push((
        "lsm.tombstones_end".into(),
        shards.iter().map(|s| s.stats().tombstones).sum::<usize>() as f64,
    ));
    Ok(())
}

/// Mean wall time of the replayed requests, milliseconds — what the
/// in-process spans account for of the client-observed latency.
pub fn mean_request_ms(tracer: &Tracer) -> f64 {
    mean(&tracer.durations("request")) / 1e6
}
