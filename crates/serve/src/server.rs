//! `simsearchd`: the TCP server — accept loop, connection handlers,
//! admission control, and graceful drain-on-shutdown.
//!
//! Thread architecture (everything is joined before `run` returns —
//! no detached threads):
//!
//! ```text
//! spawn() thread ─ run() ─ thread::scope
//!   ├── engine workers (scoped; borrow the prepared ServedEngine)
//!   ├── scheduler      (scoped; coalesces micro-batches)
//!   ├── accept loop    (the run() thread itself; non-blocking + poll)
//!   └── WorkerPool     (connection handlers; all state Arc-shared)
//! ```
//!
//! The engine borrows the dataset, so its workers are *scoped* threads;
//! connection handlers only touch `'static` shared state (streams,
//! queues, metrics) and therefore run on the reusable
//! [`WorkerPool`] from the parallel crate.
//!
//! Shutdown ordering is the load-bearing part: a `SHUTDOWN` frame (or
//! [`ServerHandle::request_shutdown`]) sets the flag; the accept loop
//! stops; connection handlers notice the flag at their next read
//! timeout and return; the connection pool joins; only then is the
//! admission queue closed, so the scheduler drains every admitted
//! request, the exec queue closes after it, and the engine workers
//! drain the remaining chunks. Every admitted request is answered.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use simsearch_core::EngineKind;
use simsearch_data::Dataset;
use simsearch_parallel::{PushError, SubmissionQueue, WorkerPool};

use crate::batch::{scheduler_loop, worker_loop, BatchConfig, Chunk, Pending, Work};
use crate::engine::ServedEngine;
use crate::metrics::Metrics;
use crate::protocol::{encode_response, parse_request, ProtocolError, Request, Response, MAX_LINE_BYTES};

/// Server tuning beyond the batch pipeline.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Port to bind on loopback; 0 asks the OS for an ephemeral port —
    /// read the real one from [`ServerHandle::port`].
    pub port: u16,
    /// Label for the dataset in `STATS` output.
    pub dataset_label: String,
    /// Connection-handler threads. Each persistent connection occupies
    /// one handler, so this bounds concurrent clients.
    pub conn_threads: usize,
    /// Socket read timeout; doubles as the shutdown-poll interval for
    /// idle connections.
    pub read_timeout: Duration,
    /// Self-tuning cadence: every interval a background tick re-derives
    /// the per-(arm, class) cost multipliers from the live latency
    /// grids and swaps a fresh decision table into the engine (see
    /// DESIGN §16). `None` disables the tick; engines without a
    /// tunable planner ignore it.
    pub replan_interval: Option<Duration>,
    /// Persisted-calibration path (a v3 radix dump). Restored at
    /// startup — ignored when the embedded snapshot mismatches the
    /// served dataset — and rewritten with the final calibrated state
    /// at shutdown. `None` disables persistence.
    pub calibration_path: Option<PathBuf>,
    /// The batch scheduler and engine-worker tuning.
    pub batch: BatchConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            port: 0,
            dataset_label: "unnamed".into(),
            conn_threads: 16,
            read_timeout: Duration::from_millis(50),
            replan_interval: None,
            calibration_path: None,
            batch: BatchConfig::default(),
        }
    }
}

/// A running server. Dropping the handle requests shutdown and joins.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    metrics: Arc<Metrics>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The actually-bound address (resolves `port: 0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The actually-bound port.
    pub fn port(&self) -> u16 {
        self.addr.port()
    }

    /// The live metrics registry (shared with the server).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Asks the server to drain and exit, without waiting. Equivalent to
    /// a client sending `SHUTDOWN`.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
    }

    /// Blocks until the server has fully drained and every thread has
    /// been joined.
    pub fn join(mut self) {
        self.join_inner();
    }

    fn join_inner(&mut self) {
        if let Some(thread) = self.thread.take() {
            thread.join().expect("server thread panicked");
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.request_shutdown();
        self.join_inner();
    }
}

/// Binds a loopback listener and runs the server on a background
/// thread. The dataset is moved in; the engine is built and prepared
/// once before the first connection is accepted.
pub fn spawn(dataset: Dataset, kind: EngineKind, config: ServerConfig) -> std::io::Result<ServerHandle> {
    // Fail before the thread spawns (and before the listener binds):
    // an invalid kind — e.g. sharded-live with the `len` partitioner —
    // would otherwise panic on the server thread.
    kind.validate()
        .map_err(|msg| std::io::Error::new(std::io::ErrorKind::InvalidInput, msg))?;
    let listener = TcpListener::bind(("127.0.0.1", config.port))?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let metrics = Arc::new(Metrics::new());
    let thread = {
        let shutdown = Arc::clone(&shutdown);
        let metrics = Arc::clone(&metrics);
        std::thread::Builder::new()
            .name("simsearchd".into())
            .spawn(move || run(listener, &dataset, kind, &config, &metrics, &shutdown))?
    };
    Ok(ServerHandle {
        addr,
        shutdown,
        metrics,
        thread: Some(thread),
    })
}

/// Shared per-server state every connection handler needs; `'static`
/// so handlers can run on the [`WorkerPool`].
struct Shared {
    admission: SubmissionQueue<Pending>,
    metrics: Arc<Metrics>,
    shutdown: Arc<AtomicBool>,
    engine_name: String,
    dataset_label: String,
    records: usize,
    started: Instant,
    read_timeout: Duration,
    /// Worst-case wait for a reply after admission; generous so a
    /// handler never abandons a request the workers will still answer.
    reply_timeout: Duration,
}

fn run(
    listener: TcpListener,
    dataset: &Dataset,
    kind: EngineKind,
    config: &ServerConfig,
    metrics: &Arc<Metrics>,
    shutdown: &Arc<AtomicBool>,
) {
    let engine = ServedEngine::build(dataset, kind);
    // Restore yesterday's measured routing before the first request:
    // the install swaps the persisted table in (epoch > 0), or falls
    // back silently to the static one when the file is missing, stale,
    // or foreign. Either way STATS shows the truth from frame one.
    if let Some(path) = &config.calibration_path {
        if engine.install_calibration(path) {
            metrics.replans.inc();
        }
    }
    engine.publish_replan(metrics);
    let exec: SubmissionQueue<Chunk> = SubmissionQueue::bounded(config.batch.threads.max(1) * 2);
    let shared = Arc::new(Shared {
        admission: SubmissionQueue::bounded(config.batch.queue_capacity),
        metrics: Arc::clone(metrics),
        shutdown: Arc::clone(shutdown),
        engine_name: engine.name().to_string(),
        dataset_label: config.dataset_label.clone(),
        records: engine.records(),
        started: Instant::now(),
        read_timeout: config.read_timeout,
        reply_timeout: config.batch.deadline.saturating_mul(2) + Duration::from_secs(30),
    });
    listener
        .set_nonblocking(true)
        .expect("nonblocking accept is required for shutdown polling");

    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..config.batch.threads.max(1))
            .map(|_| scope.spawn(|| worker_loop(&exec, &engine, &config.batch, metrics)))
            .collect();
        let scheduler = {
            let shared = Arc::clone(&shared);
            let exec = &exec;
            let batch = &config.batch;
            scope.spawn(move || scheduler_loop(&shared.admission, exec, batch, &shared.metrics))
        };
        // The self-tuning tick: scoped like the workers (it borrows the
        // engine), polling the shutdown flag between short sleeps so a
        // long interval never delays the drain.
        let replanner = config
            .replan_interval
            .map(|interval| {
                let engine = &engine;
                scope.spawn(move || replan_loop(engine, interval, metrics, shutdown))
            });

        let mut conn_pool = WorkerPool::new(config.conn_threads, config.conn_threads * 4);
        while !shutdown.load(Ordering::Acquire) {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    metrics.connections.inc();
                    let shared = Arc::clone(&shared);
                    let admitted = conn_pool.submit(move || handle_connection(stream, &shared));
                    if admitted.is_err() {
                        // Handler pool saturated: the stream drops with
                        // the rejected closure, which the client sees as
                        // EOF — a refusal, never a hang. Count it.
                        metrics.rejected_busy.inc();
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(_) => break,
            }
        }

        // Drain in dependency order; see the module docs.
        conn_pool.shutdown();
        shared.admission.close();
        scheduler.join().expect("scheduler panicked");
        exec.close();
        for worker in workers {
            worker.join().expect("engine worker panicked");
        }
        if let Some(replanner) = replanner {
            replanner.join().expect("replan tick panicked");
        }
    });

    // Persist the final calibrated state so the next daemon starts from
    // today's measured costs. Best-effort: a full disk must not turn a
    // clean drain into a crash.
    if let Some(path) = &config.calibration_path {
        let _ = engine.save_calibration(path);
    }
}

/// The background self-tuning loop: every `interval`, re-derive the
/// decision tables from the live observation grids and swap them in
/// ([`ServedEngine::replan`]), then mirror `plan_epoch` and the pooled
/// per-arm latencies into the metrics registry. Sleeps in short slices
/// so shutdown is never blocked behind a long interval.
fn replan_loop(
    engine: &ServedEngine<'_>,
    interval: Duration,
    metrics: &Metrics,
    shutdown: &AtomicBool,
) {
    let slice = Duration::from_millis(10).min(interval);
    let mut next = Instant::now() + interval;
    while !shutdown.load(Ordering::Acquire) {
        if Instant::now() < next {
            std::thread::sleep(slice);
            continue;
        }
        next = Instant::now() + interval;
        let swapped = engine.replan();
        if swapped > 0 {
            metrics.replans.add(swapped);
        }
        engine.publish_replan(metrics);
    }
}

/// One frame read from a connection.
enum FrameRead {
    /// A complete line (terminator stripped) is in the buffer.
    Frame,
    /// Clean end of stream with no partial line.
    Eof,
    /// The line exceeded [`MAX_LINE_BYTES`]; framing is lost.
    TooLong,
    /// Shutdown was requested or the socket errored; stop serving.
    Closed,
}

/// Accumulates one LF-terminated line into `line`, surviving read
/// timeouts (they are the shutdown-poll mechanism) and bounding memory
/// at [`MAX_LINE_BYTES`] even for hostile streams.
fn read_frame(reader: &mut BufReader<TcpStream>, line: &mut Vec<u8>, shutdown: &AtomicBool) -> FrameRead {
    loop {
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                if shutdown.load(Ordering::Acquire) {
                    return FrameRead::Closed;
                }
                continue;
            }
            Err(_) => return FrameRead::Closed,
        };
        if buf.is_empty() {
            // EOF; a partial unterminated line is still a frame.
            return if line.is_empty() { FrameRead::Eof } else { FrameRead::Frame };
        }
        if let Some(at) = buf.iter().position(|&b| b == b'\n') {
            line.extend_from_slice(&buf[..at]);
            reader.consume(at + 1);
            if line.last() == Some(&b'\r') {
                line.pop(); // tolerate CRLF clients
            }
            return if line.len() > MAX_LINE_BYTES {
                FrameRead::TooLong
            } else {
                FrameRead::Frame
            };
        }
        let taken = buf.len();
        line.extend_from_slice(buf);
        reader.consume(taken);
        if line.len() > MAX_LINE_BYTES {
            return FrameRead::TooLong;
        }
    }
}

/// Discards input up to and including the next LF (or EOF / a 4 MiB
/// cap, whichever first) without storing it.
fn drain_line(reader: &mut BufReader<TcpStream>, shutdown: &AtomicBool) {
    let mut discarded = 0usize;
    loop {
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                if shutdown.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
            Err(_) => return,
        };
        if buf.is_empty() {
            return; // EOF
        }
        let newline = buf.iter().position(|&b| b == b'\n');
        let take = newline.map_or(buf.len(), |at| at + 1);
        reader.consume(take);
        discarded += take;
        if newline.is_some() || discarded > 64 * MAX_LINE_BYTES {
            return;
        }
    }
}

fn write_frame(writer: &mut BufWriter<TcpStream>, response: &Response) -> std::io::Result<()> {
    writer.write_all(&encode_response(response))?;
    writer.write_all(b"\n")?;
    writer.flush()
}

fn handle_connection(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(shared.read_timeout));
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    let mut line: Vec<u8> = Vec::new();
    loop {
        line.clear();
        match read_frame(&mut reader, &mut line, &shared.shutdown) {
            FrameRead::Frame => {}
            FrameRead::Eof | FrameRead::Closed => return,
            FrameRead::TooLong => {
                shared.metrics.replied_error.inc();
                let _ = write_frame(
                    &mut writer,
                    &Response::Error(ProtocolError::TooLong.to_string()),
                );
                // Consume the rest of the oversized line before closing:
                // a close with unread bytes resets the socket, which can
                // destroy the ERR reply still in flight to the client.
                drain_line(&mut reader, &shared.shutdown);
                return; // framing lost: close
            }
        }
        let response = match parse_request(&line) {
            Err(e) => {
                shared.metrics.replied_error.inc();
                Response::Error(e.to_string())
            }
            Ok(Request::Health) => Response::Healthy,
            Ok(Request::Stats) => Response::Stats(shared.metrics.stats_json(
                &shared.engine_name,
                &shared.dataset_label,
                shared.records,
                shared.started,
            )),
            Ok(Request::Shutdown) => {
                let _ = write_frame(&mut writer, &Response::Bye);
                shared.shutdown.store(true, Ordering::Release);
                return;
            }
            Ok(Request::Query { k, text }) => enqueue_and_wait(shared, Work::Query { k }, text),
            Ok(Request::TopK { count, text }) => {
                enqueue_and_wait(shared, Work::TopK { count }, text)
            }
            // Mutations ride the same admission/batch/worker pipeline as
            // queries: they are ordered with the queries around them,
            // inherit admission control (BUSY) and deadlines (TIMEOUT),
            // and a read-only engine answers ERR from the worker.
            Ok(Request::Insert { text }) => enqueue_and_wait(shared, Work::Insert, text),
            Ok(Request::Delete { id }) => {
                enqueue_and_wait(shared, Work::Delete { id }, Vec::new())
            }
            // JOIN replies span several frames; stream them as they
            // arrive instead of collecting one Response.
            Ok(Request::Join { k, algo }) => {
                if enqueue_join_and_stream(shared, k, algo, &mut writer).is_err() {
                    return; // client hung up
                }
                continue;
            }
        };
        if write_frame(&mut writer, &response).is_err() {
            return; // client hung up
        }
    }
}

/// Admission control: non-blocking push (full queue ⇒ immediate `BUSY`),
/// then wait for the worker's reply on a private channel.
fn enqueue_and_wait(shared: &Shared, work: Work, text: Vec<u8>) -> Response {
    let (reply, receiver) = mpsc::channel();
    let pending = Pending {
        work,
        text,
        admitted: Instant::now(),
        reply,
    };
    match shared.admission.push(pending) {
        Ok(()) => {
            shared.metrics.requests_admitted.inc();
            match receiver.recv_timeout(shared.reply_timeout) {
                Ok(response) => response,
                Err(_) => Response::Error("reply channel broken".into()),
            }
        }
        Err(PushError::Full(_)) => {
            shared.metrics.rejected_busy.inc();
            Response::Busy
        }
        Err(PushError::Closed(_)) => Response::Error("server shutting down".into()),
    }
}

/// `JOIN` through the same admission queue, but the reply is a stream:
/// the worker sends `OK join <total>` followed by `OK pairs` chunks
/// over the pending's channel, and this forwards each frame to the
/// socket as it lands. Any non-header first frame (`BUSY`, `TIMEOUT`,
/// `ERR`) is terminal, exactly like a single-frame reply.
fn enqueue_join_and_stream(
    shared: &Shared,
    k: u32,
    algo: crate::protocol::JoinAlgo,
    writer: &mut BufWriter<TcpStream>,
) -> std::io::Result<()> {
    let (reply, receiver) = mpsc::channel();
    let pending = Pending {
        work: Work::Join { k, algo },
        text: Vec::new(),
        admitted: Instant::now(),
        reply,
    };
    match shared.admission.push(pending) {
        Ok(()) => {
            shared.metrics.requests_admitted.inc();
            let mut expected: Option<u64> = None;
            let mut streamed = 0u64;
            loop {
                let frame = match receiver.recv_timeout(shared.reply_timeout) {
                    Ok(frame) => frame,
                    Err(_) => {
                        return write_frame(writer, &Response::Error("reply channel broken".into()))
                    }
                };
                let done = match &frame {
                    Response::JoinHeader { total } => {
                        expected = Some(*total);
                        *total == 0
                    }
                    Response::JoinPairs(pairs) => {
                        streamed += pairs.len() as u64;
                        expected.is_some_and(|total| streamed >= total)
                    }
                    // BUSY / TIMEOUT / ERR: single-frame refusal.
                    _ => true,
                };
                write_frame(writer, &frame)?;
                if done {
                    return Ok(());
                }
            }
        }
        Err(PushError::Full(_)) => {
            shared.metrics.rejected_busy.inc();
            write_frame(writer, &Response::Busy)
        }
        Err(PushError::Closed(_)) => {
            write_frame(writer, &Response::Error("server shutting down".into()))
        }
    }
}
