//! `perfbench`: one benchmark run of one workload.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           --daemon PATH/TO/simsearch --work DIR
//! ```
//!
//! Prints one line per load phase, then — as the last line of stdout —
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the
//! per-layer ones (after an extra in-process traced replay). Exits
//! non-zero, without a result line, when the run cannot complete or any
//! reply is wrong.

use simsearch_data::{io, Dataset, Workload, Xoshiro256};
use simsearch_perfbench::check::{v1_global, Checker, Tally};
use simsearch_perfbench::daemon::{connect, Daemon};
use simsearch_perfbench::json::{quote, Json};
use simsearch_perfbench::loadgen::{run_phase, Sent};
use simsearch_perfbench::spec::{
    self, poisson_arrivals, Kind, Op, OpClass, OpStream, Spec, TOPK_PROBES,
};
use simsearch_perfbench::trace::{self, median, quantile, Tracer};
use simsearch_serve::protocol::{parse_response, Response};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// End-to-end metrics (`--trace 0`), in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("cpu_ms_per_req", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`). A layer a workload does not
/// exercise reports 0.
const PER_LAYER: [(&str, &str); 60] = [
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("max_qps_at_slo", "1/s"),
    ("topk_p50_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("write_p99_ms", "ms"),
    ("failed_frac", "frac"),
    ("query_samples", "count"),
    ("serve.server_p50_ms", "ms"),
    ("serve.server_p99_ms", "ms"),
    ("serve.outside_p50_ms", "ms"),
    ("serve.batch_size_mean", "count"),
    ("serve.busy", "count"),
    ("serve.timeout", "count"),
    ("protocol.parse_ns", "ns"),
    ("protocol.encode_ns", "ns"),
    ("protocol.reply_bytes", "bytes"),
    ("planner.decide_ns", "ns"),
    ("planner.route.scan-flat", "frac"),
    ("planner.route.scan-sorted", "frac"),
    ("planner.route.scan-bitparallel", "frac"),
    ("planner.route.radix", "frac"),
    ("planner.route.qgram", "frac"),
    ("planner.static.scan-flat", "count"),
    ("planner.static.scan-sorted", "count"),
    ("planner.static.scan-bitparallel", "count"),
    ("planner.static.radix", "count"),
    ("planner.static.qgram", "count"),
    ("planner.plan_epoch", "count"),
    ("planner.best_arm_frac", "frac"),
    ("backend.scan-flat.p50_us", "us"),
    ("backend.scan-sorted.p50_us", "us"),
    ("backend.scan-bitparallel.p50_us", "us"),
    ("backend.radix.p50_us", "us"),
    ("backend.qgram.p50_us", "us"),
    ("backend.routed_p50_us", "us"),
    ("backend.routed_p99_us", "us"),
    ("scan.v7_cells_per_query", "count"),
    ("scan.v8_cells_per_query", "count"),
    ("scan.v8_cells_per_us", "1/us"),
    ("topk.p50_us", "us"),
    ("sharded.merge_us", "us"),
    ("sharded.straggler_ratio", "ratio"),
    ("lsm.insert_us", "us"),
    ("lsm.delete_us", "us"),
    ("lsm.compactions", "count"),
    ("lsm.compact_ms_total", "ms"),
    ("lsm.compact_ms_max", "ms"),
    ("lsm.memtable_len_max", "count"),
    ("lsm.segments_max", "count"),
    ("lsm.tombstones_end", "count"),
    ("setup.load_s", "s"),
    ("setup.build_s", "s"),
    ("setup.calibrate_s", "s"),
    ("gen.late_p99_ms", "ms"),
    ("gen.sent", "count"),
    ("gen.ok", "count"),
    ("gen.failed", "count"),
    ("gen.connections", "count"),
    ("trace.unattributed_frac", "frac"),
];

/// Share of each daemon's time spent warming up, at the reference rate,
/// and searching for the highest rate that meets the latency limit.
/// Routing settles only after several of the daemon's 1 s replan ticks
/// (the city QUERY median halves over the first ~5 s), so the warm-up
/// is long.
const WARMUP_SHARE: f64 = 0.45;
const REFERENCE_SHARE: f64 = 0.4;
/// Rate-search steps; fixed, so every run is the same length.
const SEARCH_STEPS: usize = 3;
/// First search step offers this multiple of the reference rate; later
/// steps move by `SEARCH_FACTOR` until bracketed, then bisect.
const SEARCH_START: f64 = 2.0;
const SEARCH_FACTOR: f64 = 1.4;
/// A phase's replies must all arrive within this long after its last
/// scheduled send.
const DRAIN: Duration = Duration::from_secs(60);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    daemon: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut daemon, mut work) =
        (None, None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => trace = Some(value == "1"),
            "--daemon" => daemon = Some(PathBuf::from(value)),
            "--work" => work = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.unwrap_or(20.0);
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
        daemon: daemon.ok_or("--daemon is required")?,
        work: work.ok_or("--work is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// One load phase's outcome.
struct Phase {
    name: String,
    rate: f64,
    ops: Vec<Op>,
    sent: Vec<Sent>,
    tally: Tally,
}

impl Phase {
    fn latencies(&self, class: Option<OpClass>) -> Vec<f64> {
        self.ops
            .iter()
            .zip(&self.sent)
            .filter(|(op, _)| class.is_none_or(|c| op.class() == c))
            .filter_map(|(_, s)| s.latency_ms())
            .collect()
    }

    fn report(&self) {
        let all = self.latencies(None);
        let late: Vec<f64> = self.sent.iter().map(Sent::late_ms).collect();
        println!(
            "phase {:<10} rate={:>8.2}/s sent={:>5} ok={:>5} failed={} late_p99_ms={:.3} p50_ms={:.3} p99_ms={:.3}",
            self.name,
            self.rate,
            self.sent.len(),
            self.tally.ok,
            self.tally.failed(),
            quantile(&late, 0.99),
            median(&all),
            quantile(&all, 0.99),
        );
    }
}

/// The load side of a run: connections to the current daemon, the
/// seeded streams (continued across daemons), the checker.
struct Load<'a> {
    conns: Vec<TcpStream>,
    arrivals: Xoshiro256,
    stream: OpStream,
    pool: &'a Workload,
    checker: Checker,
    phases: Vec<Phase>,
}

impl Load<'_> {
    fn phase(&mut self, name: &str, rate: f64, seconds: f64) -> Result<&Phase, String> {
        let times = poisson_arrivals(&mut self.arrivals, rate, seconds);
        let ops: Vec<Op> = times.iter().map(|_| self.stream.next_op()).collect();
        let frames: Vec<Vec<u8>> = ops.iter().map(|op| op.frame(self.pool)).collect();
        let sent = run_phase(&mut self.conns, &frames, &times, DRAIN)?;
        let tally = self.checker.observe(&ops, &sent);
        let phase = Phase {
            name: name.to_string(),
            rate,
            ops,
            sent,
            tally,
        };
        phase.report();
        self.phases.push(phase);
        Ok(self.phases.last().expect("a phase was just pushed"))
    }
}

/// Whether a search step met the latency limit with no backlog: no
/// failures, p99 over all operations within the limit, and the last
/// tenth of the step not queueing past the limit either.
fn step_passes(phase: &Phase, slo_ms: f64) -> (bool, f64) {
    let all = phase.latencies(None);
    let p99 = quantile(&all, 0.99);
    let tail = &all[all.len() - all.len() / 10..];
    let ok =
        phase.tally.failed() == 0 && !all.is_empty() && p99 <= slo_ms && median(tail) <= slo_ms;
    (ok, p99)
}

/// Fixed-step search for the highest rate meeting the limit. Between
/// the best passing and the worst failing step the estimate is
/// interpolated in log-p99, so the result is not quantised to the
/// ladder.
fn search_rate(load: &mut Load<'_>, spec: &Spec, step_seconds: f64) -> Result<f64, String> {
    let mut pass: Option<(f64, f64)> = None;
    let mut fail: Option<(f64, f64)> = None;
    let mut rate = spec.ref_qps * SEARCH_START;
    for step in 0..SEARCH_STEPS {
        let phase = load.phase(&format!("search{step}"), rate, step_seconds)?;
        let (ok, p99) = step_passes(phase, spec.slo_ms);
        if ok {
            pass = Some(pass.map_or((rate, p99), |p| if rate > p.0 { (rate, p99) } else { p }));
        } else {
            fail = Some(fail.map_or((rate, p99), |f| if rate < f.0 { (rate, p99) } else { f }));
        }
        rate = match (pass, fail) {
            (Some(p), None) => p.0 * SEARCH_FACTOR,
            (None, Some(f)) => f.0 / SEARCH_FACTOR,
            (Some(p), Some(f)) => (p.0 * f.0).sqrt(),
            (None, None) => unreachable!(),
        };
    }
    Ok(match (pass, fail) {
        (Some(p), Some(f)) if f.0 > p.0 && f.1 > p.1 => {
            let share = ((spec.slo_ms.ln() - p.1.max(1e-3).ln()) / (f.1.ln() - p.1.max(1e-3).ln()))
                .clamp(0.0, 1.0);
            p.0 + (f.0 - p.0) * share
        }
        (Some(p), _) => p.0,
        // Nothing passed: scale the lowest failing rate by how far its
        // p99 overshot the limit.
        (None, Some(f)) => f.0 * (spec.slo_ms / f.1).min(1.0),
        (None, None) => unreachable!(),
    })
}

/// The workload's dataset and the file the daemon loads it from. The
/// file is generated once per work directory (the preset seeds are
/// fixed) and read back on later runs.
fn dataset_file(spec: &Spec, work: &Path) -> Result<(Dataset, PathBuf), String> {
    std::fs::create_dir_all(work).map_err(|e| format!("creating {work:?}: {e}"))?;
    let stem = match spec.kind {
        Kind::DnaRead => "dna",
        Kind::CityRead | Kind::CityLive => "city",
    };
    let path = work.join(format!("{stem}-{}.data", spec.records));
    if path.exists() {
        let dataset = io::read_dataset(&path).map_err(|e| format!("reading {path:?}: {e}"))?;
        if dataset.len() == spec.records {
            return Ok((dataset, path));
        }
    }
    let dataset = spec.dataset();
    let tmp = work.join(format!(
        "{stem}-{}.data.tmp{}",
        spec.records,
        std::process::id()
    ));
    io::write_dataset(&tmp, &dataset).map_err(|e| format!("writing {tmp:?}: {e}"))?;
    std::fs::rename(&tmp, &path).map_err(|e| format!("renaming {tmp:?}: {e}"))?;
    Ok((dataset, path))
}

fn counter(stats: &Json, name: &str) -> f64 {
    stats
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::num)
        .unwrap_or(0.0)
}

/// `(samples, mean, median, p99)` of a `STATS` histogram.
fn histogram(stats: &Json, name: &str) -> (f64, f64, f64, f64) {
    let h = stats
        .get("results")
        .map(|r| r.items())
        .unwrap_or(&[])
        .iter()
        .find(|h| h.get("name") == Some(&Json::Str(name.into())));
    let field = |f: &str| h.and_then(|h| h.get(f)).and_then(Json::num).unwrap_or(0.0);
    (
        field("samples"),
        field("mean_ns"),
        field("median_ns"),
        field("p99_ns"),
    )
}

/// One daemon's share of a run: its set-up time, end-to-end figures and
/// loopback-side per-layer figures.
struct Slice {
    setup_s: f64,
    query_p50_ms: f64,
    query_p99_ms: f64,
    max_qps_at_slo: f64,
    peak_rss_mb: f64,
    cpu_ms_per_req: f64,
    layers: Vec<(String, f64)>,
}

/// Starts one daemon, drives warm-up, reference and rate-search phases
/// against it for `seconds`, checks what only this daemon can answer,
/// and shuts it down.
fn slice(
    args: &Args,
    spec: &Spec,
    data: &Path,
    dataset: &Dataset,
    load: &mut Load<'_>,
    seconds: f64,
    probes: &[Op],
) -> Result<Slice, String> {
    let mut daemon = Daemon::start(&args.daemon, data, &spec.serve_flags())?;
    let nconn = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    load.conns = (0..nconn)
        .map(|_| connect(daemon.addr()))
        .collect::<Result<Vec<_>, _>>()?;
    let first = load.phases.len();
    let stats_start = daemon.stats()?;
    load.phase("warmup", spec.ref_qps, seconds * WARMUP_SHARE)?;
    let stats_before = daemon.stats()?;
    let cpu_before = daemon.cpu_s()?;
    load.phase("reference", spec.ref_qps, seconds * REFERENCE_SHARE)?;
    let cpu_after = daemon.cpu_s()?;
    let stats_after = daemon.stats()?;
    let step_seconds = seconds * (1.0 - WARMUP_SHARE - REFERENCE_SHARE) / SEARCH_STEPS as f64;
    let max_qps = search_rate(load, spec, step_seconds)?;
    let stats_end = daemon.stats()?;
    let peak_rss_mb = daemon.peak_rss_mb()?;

    // Served TOPK, one request at a time on the otherwise idle daemon: a
    // city TOPK runs for hundreds of milliseconds and, pipelined, would
    // stall every QUERY queued behind it on its connection.
    let mut probe_replies = Vec::new();
    for op in probes {
        let started = Instant::now();
        let reply = daemon.request(&op.frame(load.pool))?;
        probe_replies.push(Sent {
            intended: 0.0,
            sent: 0.0,
            received: Some(started.elapsed().as_secs_f64()),
            reply,
        });
    }
    load.checker.observe(probes, &probe_replies);

    // A live daemon's state is its own: check a query sample against
    // the V1 scan over exactly the records it acknowledged.
    if spec.kind == Kind::CityLive {
        let (survivors, globals) = load.checker.survivors(dataset);
        let mut wrong = 0;
        for (q, rec) in load
            .pool
            .queries
            .iter()
            .enumerate()
            .take(spec.oracle_sample)
        {
            let reply = parse_response(&daemon.request(&Op::Query { q }.frame(load.pool))?)
                .map_err(|e| e.to_string())?;
            let expected = v1_global(&survivors, &globals, &rec.text, rec.threshold);
            if !matches!(&reply, Response::Matches(m) if *m == expected) {
                wrong += 1;
            }
        }
        load.checker.total.wrong += wrong;
        load.checker.total.ok += spec.oracle_sample as u64 - wrong;
        load.checker.inserted.clear();
        load.checker.deleted.clear();
    }
    let setup_s = daemon.setup_s;
    daemon.shutdown()?;

    let phases = &load.phases[first..];
    let reference = &phases[1];
    let queries = reference.latencies(Some(OpClass::Query));
    let query_p50 = median(&queries);
    let cpu_ms_per_req = (cpu_after - cpu_before) * 1e3 / reference.sent.len().max(1) as f64;
    let mut layers: Vec<(String, f64)> = Vec::new();
    let writes = reference.latencies(Some(OpClass::Write));
    let topk: Vec<f64> = probe_replies.iter().filter_map(Sent::latency_ms).collect();
    if !topk.is_empty() {
        layers.push(("topk_p50_ms".into(), median(&topk)));
    }
    layers.push(("write_p50_ms".into(), median(&writes)));
    layers.push(("write_p99_ms".into(), quantile(&writes, 0.99)));
    layers.push(("query_samples".into(), queries.len() as f64));
    // Server-side figures from STATS around the reference phase.
    // Histogram quantiles are cumulative since start-up; means and
    // counters are exact deltas.
    let (_, _, med, p99) = histogram(&stats_after, "request_latency");
    layers.push(("serve.server_p50_ms".into(), med / 1e6));
    layers.push(("serve.server_p99_ms".into(), p99 / 1e6));
    layers.push(("serve.outside_p50_ms".into(), query_p50 - med / 1e6));
    let (n0, m0, _, _) = histogram(&stats_before, "batch_size");
    let (n1, m1, _, _) = histogram(&stats_after, "batch_size");
    layers.push((
        "serve.batch_size_mean".into(),
        (n1 * m1 - n0 * m0) / (n1 - n0).max(1.0),
    ));
    let delta = |name: &str| counter(&stats_after, name) - counter(&stats_before, name);
    layers.push(("serve.busy".into(), delta("rejected_busy")));
    layers.push(("serve.timeout".into(), delta("dropped_timeout")));
    let before = routes(&stats_before);
    let routed: Vec<(String, f64)> = routes(&stats_after)
        .into_iter()
        .map(|(arm, n)| {
            let b = before.iter().find(|(a, _)| *a == arm).map_or(0.0, |x| x.1);
            (arm, n - b)
        })
        .collect();
    let routed_total: f64 = routed.iter().map(|r| r.1).sum();
    for (arm, n) in &routed {
        layers.push((format!("planner.route.{arm}"), n / routed_total.max(1.0)));
    }
    layers.push((
        "planner.plan_epoch".into(),
        counter(&stats_after, "plan_epoch"),
    ));
    layers.push((
        "lsm.compactions".into(),
        counter(&stats_end, "compactions") - counter(&stats_start, "compactions"),
    ));
    let late: Vec<f64> = phases
        .iter()
        .flat_map(|p| p.sent.iter().map(Sent::late_ms))
        .collect();
    layers.push(("gen.late_p99_ms".into(), quantile(&late, 0.99)));
    layers.push(("gen.connections".into(), nconn as f64));
    let all = reference.latencies(None);
    layers.push((
        "client_mean_ms".into(),
        all.iter().sum::<f64>() / all.len().max(1) as f64,
    ));
    Ok(Slice {
        setup_s,
        query_p50_ms: query_p50,
        query_p99_ms: quantile(&queries, 0.99),
        max_qps_at_slo: max_qps,
        peak_rss_mb,
        cpu_ms_per_req,
        layers,
    })
}

fn routes(stats: &Json) -> Vec<(String, f64)> {
    stats
        .get("counters")
        .and_then(|c| c.get("plan_decisions"))
        .map(|d| {
            d.members()
                .iter()
                .map(|(k, v)| (k.clone(), v.num().unwrap_or(0.0)))
                .collect()
        })
        .unwrap_or_default()
}

fn run(args: &Args) -> Result<String, String> {
    let spec = spec::by_name(&args.workload)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    if !args.daemon.is_file() {
        return Err(format!("daemon binary {:?} not found", args.daemon));
    }
    let (dataset, data) = dataset_file(spec, &args.work)?;
    let pool = spec.query_pool(&dataset, args.seed);
    let mut load = Load {
        conns: Vec::new(),
        arrivals: Xoshiro256::seed_from_u64(args.seed ^ 0xA221_7A15),
        stream: spec.ops(dataset.len(), args.seed),
        pool: &pool,
        checker: Checker::new(spec.pool, spec.kind != Kind::CityLive),
        phases: Vec::new(),
    };
    let probes: Vec<Op> = if args.trace && spec.kind == Kind::CityRead {
        (0..TOPK_PROBES).map(|q| Op::TopK { q }).collect()
    } else {
        Vec::new()
    };

    // Several daemons per run, each calibrating on its own at start-up;
    // every figure is the median over them, so one start-up's routing
    // luck does not decide the run. The stream continues across them.
    let mut slices = Vec::new();
    for i in 0..spec.setups {
        let last = i + 1 == spec.setups;
        let s = slice(
            args,
            spec,
            &data,
            &dataset,
            &mut load,
            args.seconds / spec.setups as f64,
            if last { &probes } else { &[] },
        )?;
        println!(
            "daemon {i}: setup_s={:.3} query_p50_ms={:.3} query_p99_ms={:.3} max_qps_at_slo={:.2} peak_rss_mb={:.1} cpu_ms_per_req={:.4}",
            s.setup_s, s.query_p50_ms, s.query_p99_ms, s.max_qps_at_slo, s.peak_rss_mb, s.cpu_ms_per_req
        );
        slices.push(s);
    }
    let oracle_wrong = match spec.kind {
        Kind::CityRead | Kind::DnaRead => {
            load.checker
                .verify_frozen(&dataset, &pool, spec.oracle_sample)
        }
        Kind::CityLive => 0,
    };
    let total = load.checker.total;
    println!(
        "checked: attempted={} ok={} busy={} timeout={} err={} wrong={} (oracle {oracle_wrong}) unanswered={}",
        total.attempted(),
        total.ok,
        total.busy,
        total.timeout,
        total.err,
        total.wrong,
        total.unanswered
    );
    if total.wrong + total.err + total.unanswered > 0 {
        return Err(format!(
            "{} wrong, {} ERR and {} unanswered replies",
            total.wrong, total.err, total.unanswered
        ));
    }

    let across = |f: &dyn Fn(&Slice) -> f64| median(&slices.iter().map(f).collect::<Vec<_>>());
    let metrics: Vec<(String, f64, &str)> = if !args.trace {
        let values = [
            across(&|s| s.setup_s),
            across(&|s| s.cpu_ms_per_req),
            across(&|s| s.peak_rss_mb),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n.to_string(), v, u))
            .collect()
    } else {
        let mut figs: Vec<(String, f64)> = Vec::new();
        // Median over the daemons that measured the figure (the TOPK
        // probes run on the last daemon only).
        for name in slices.iter().flat_map(|s| s.layers.iter().map(|l| &l.0)) {
            let values: Vec<f64> = slices
                .iter()
                .filter_map(|s| s.layers.iter().find(|l| l.0 == *name).map(|l| l.1))
                .collect();
            if !figs.iter().any(|f| f.0 == *name) {
                figs.push((name.clone(), median(&values)));
            }
        }
        figs.push(("query_p50_ms".into(), across(&|s| s.query_p50_ms)));
        figs.push(("query_p99_ms".into(), across(&|s| s.query_p99_ms)));
        figs.push(("max_qps_at_slo".into(), across(&|s| s.max_qps_at_slo)));
        figs.push((
            "failed_frac".into(),
            total.failed() as f64 / total.attempted().max(1) as f64,
        ));
        figs.push((
            "gen.sent".into(),
            load.phases.iter().map(|p| p.sent.len()).sum::<usize>() as f64,
        ));
        figs.push(("gen.ok".into(), total.ok as f64));
        figs.push(("gen.failed".into(), total.failed() as f64));

        // The traced in-process replay of the first daemon's warm-up and
        // reference requests (and the TOPK probes).
        let replayed: Vec<Op> = load.phases[..2]
            .iter()
            .flat_map(|p| p.ops.iter().cloned())
            .chain(probes.iter().cloned())
            .collect();
        let mut tracer = Tracer::new();
        figs.extend(trace::replay(spec, &data, &pool, &replayed, &mut tracer)?);
        let spans = args
            .work
            .join(format!("trace-{}-{}.tsv", spec.name, args.seed));
        tracer
            .write_tsv(&spans)
            .map_err(|e| format!("writing {spans:?}: {e}"))?;
        println!(
            "spans: {} written to {}",
            tracer.spans.len(),
            spans.display()
        );
        let client_mean = slices[0]
            .layers
            .iter()
            .find(|l| l.0 == "client_mean_ms")
            .map_or(0.0, |l| l.1);
        figs.push((
            "trace.unattributed_frac".into(),
            1.0 - trace::mean_request_ms(&tracer) / client_mean,
        ));
        PER_LAYER
            .iter()
            .map(|&(n, u)| {
                let v = figs.iter().rev().find(|(f, _)| f == n).map_or(0.0, |x| x.1);
                (n.to_string(), v, u)
            })
            .collect()
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(n),
                finite(*v),
                quote(u)
            )
        })
        .collect();
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        total.attempted(),
        total.failed(),
        body.join(", ")
    ))
}

/// JSON has no NaN/inf; report those as 0.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}
