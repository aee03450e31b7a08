//! The open-loop generator: requests leave at their scheduled (Poisson)
//! times whether or not earlier replies have arrived, pipelined on at
//! most `nproc` persistent connections, one thread per connection.
//!
//! Latency is measured from each request's *intended* send time, so a
//! generator that falls behind, or a daemon that queues, shows up as
//! latency instead of silently lowering the offered rate. How late each
//! request actually left is recorded separately (`gen.late_p99_ms`).

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// While replies are outstanding, the socket is polled this often.
const POLL: Duration = Duration::from_micros(100);
/// Longest idle nap when nothing is outstanding.
const IDLE_NAP: Duration = Duration::from_millis(20);
/// Socket read timeouts round up to the kernel tick (4 ms at 250 Hz);
/// a blocking wait ends this long before the next scheduled send.
const TICK_SLACK: Duration = Duration::from_millis(5);
/// Blocking waits are used only when the next send is further off.
const BLOCKING_MIN: Duration = Duration::from_millis(6);

/// What happened to one request (times in seconds from phase start).
#[derive(Debug, Clone)]
pub struct Sent {
    /// Scheduled send time.
    pub intended: f64,
    /// Actual time the frame was handed to the socket.
    pub sent: f64,
    /// Reply arrival time; `None` if the request was never answered.
    pub received: Option<f64>,
    /// The reply frame (terminator stripped).
    pub reply: Vec<u8>,
}

impl Sent {
    /// Intended-send → reply latency, milliseconds.
    pub fn latency_ms(&self) -> Option<f64> {
        self.received.map(|r| (r - self.intended) * 1e3)
    }

    /// How late the frame left, milliseconds.
    pub fn late_ms(&self) -> f64 {
        ((self.sent - self.intended) * 1e3).max(0.0)
    }
}

/// Sends `frames[i]` at `intended[i]` seconds after the phase starts,
/// spreading requests round-robin over `conns`, and waits up to `drain`
/// after the last scheduled send for the remaining replies. Results are
/// in request order.
pub fn run_phase(
    conns: &mut [TcpStream],
    frames: &[Vec<u8>],
    intended: &[f64],
    drain: Duration,
) -> Result<Vec<Sent>, String> {
    assert_eq!(frames.len(), intended.len());
    let n = conns.len().max(1);
    let start = Instant::now();
    let per_conn: Vec<Vec<usize>> = (0..n)
        .map(|c| (c..frames.len()).step_by(n).collect())
        .collect();
    let outcomes: Vec<Result<Vec<Sent>, String>> = std::thread::scope(|scope| {
        let (first, rest) = conns.split_first_mut().expect("at least one connection");
        let handles: Vec<_> = rest
            .iter_mut()
            .zip(&per_conn[1..])
            .map(|(stream, jobs)| {
                scope.spawn(move || drive(stream, jobs, frames, intended, start, drain))
            })
            .collect();
        // The calling thread drives the first connection, so the
        // generator uses exactly one thread per connection.
        let mut out = vec![drive(first, &per_conn[0], frames, intended, start, drain)];
        out.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("generator thread panicked")),
        );
        out
    });
    let mut merged: Vec<Option<Sent>> = vec![None; frames.len()];
    for (jobs, outcome) in per_conn.iter().zip(outcomes) {
        for (&i, sent) in jobs.iter().zip(outcome?) {
            merged[i] = Some(sent);
        }
    }
    Ok(merged
        .into_iter()
        .map(|s| s.expect("every request recorded"))
        .collect())
}

/// One connection's send/receive loop. Replies on a connection arrive
/// in request order (the daemon answers each connection's frames in
/// turn), so the k-th reply line belongs to the k-th request sent.
fn drive(
    stream: &mut TcpStream,
    jobs: &[usize],
    frames: &[Vec<u8>],
    intended: &[f64],
    start: Instant,
    drain: Duration,
) -> Result<Vec<Sent>, String> {
    let mut results: Vec<Sent> = jobs
        .iter()
        .map(|&i| Sent {
            intended: intended[i],
            sent: f64::NAN,
            received: None,
            reply: Vec::new(),
        })
        .collect();
    let last = results.last().map_or(0.0, |s| s.intended);
    let hard_stop = last + drain.as_secs_f64();
    stream.set_nonblocking(true).map_err(|e| e.to_string())?;
    let mut out: Vec<u8> = Vec::new();
    let mut written = 0usize;
    let mut inbuf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut chunk = vec![0u8; 1 << 16];
    let mut pending: Vec<u8> = Vec::new();
    let (mut next, mut answered) = (0usize, 0usize);
    let result = loop {
        let now = start.elapsed().as_secs_f64();
        while next < jobs.len() && results[next].intended <= now {
            out.extend_from_slice(&frames[jobs[next]]);
            out.push(b'\n');
            results[next].sent = now;
            next += 1;
        }
        while written < out.len() {
            match stream.write(&out[written..]) {
                Ok(0) => break,
                Ok(k) => written += k,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("send: {e}")),
            }
        }
        if written == out.len() {
            out.clear();
            written = 0;
        }
        let mut got = !pending.is_empty();
        inbuf.append(&mut pending);
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => return Err("daemon closed a load connection".into()),
                Ok(k) => {
                    inbuf.extend_from_slice(&chunk[..k]);
                    got = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("receive: {e}")),
            }
        }
        if got {
            let now = start.elapsed().as_secs_f64();
            let mut consumed = 0;
            while let Some(at) = inbuf[consumed..].iter().position(|&b| b == b'\n') {
                if answered >= next {
                    return Err("reply without a request".into());
                }
                results[answered].received = Some(now);
                results[answered].reply = inbuf[consumed..consumed + at].to_vec();
                answered += 1;
                consumed += at + 1;
            }
            inbuf.drain(..consumed);
        }
        if answered == jobs.len() {
            break Ok(());
        }
        let now = start.elapsed().as_secs_f64();
        if next == jobs.len() && now > hard_stop {
            break Err(format!(
                "{} replies still outstanding after the drain",
                jobs.len() - answered
            ));
        }
        if !got {
            let gap = results
                .get(next)
                .map_or(f64::INFINITY, |s| s.intended - now);
            if answered < next && gap > BLOCKING_MIN.as_secs_f64() {
                // Replies outstanding and the next send far off: block
                // in the kernel until data arrives (woken at once) or
                // shortly before the send is due. Socket timeouts are
                // tick-granular, so the last stretch is polled instead.
                let wait = Duration::from_secs_f64(gap.min(0.25)) - TICK_SLACK;
                stream.set_nonblocking(false).map_err(|e| e.to_string())?;
                stream
                    .set_read_timeout(Some(wait))
                    .map_err(|e| e.to_string())?;
                let read = stream.read(&mut chunk);
                stream.set_nonblocking(true).map_err(|e| e.to_string())?;
                match read {
                    Ok(0) => return Err("daemon closed a load connection".into()),
                    Ok(k) => pending.extend_from_slice(&chunk[..k]),
                    Err(e)
                        if matches!(
                            e.kind(),
                            ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                        ) => {}
                    Err(e) => return Err(format!("receive: {e}")),
                }
                continue;
            }
            let cap = if answered < next { POLL } else { IDLE_NAP };
            let nap = Duration::from_secs_f64(gap.clamp(0.0, cap.as_secs_f64()));
            if !nap.is_zero() {
                std::thread::sleep(nap);
            }
        }
    };
    stream.set_nonblocking(false).map_err(|e| e.to_string())?;
    result.map(|()| results)
}
