//! One `simsearch serve` child process: spawn, time to first healthy
//! reply, synchronous control requests (`STATS`, checks), peak RSS, and
//! a shutdown that always reaps the child.

use crate::json::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// `USER_HZ`, the unit of `/proc/<pid>/stat` CPU times (100 on every
/// Linux architecture this runs on).
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// A running daemon. Dropping it kills and reaps the child.
pub struct Daemon {
    child: Option<Child>,
    addr: SocketAddr,
    control: BufReader<TcpStream>,
    /// Held open (never read past the first line) so the daemon's
    /// stdout never sees a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// Spawn → first `OK healthy`, seconds.
    pub setup_s: f64,
}

impl Daemon {
    /// Spawns `binary serve --data <data> <flags>` and waits for its
    /// first `OK healthy` (which the daemon answers only once the engine
    /// is built, prepared and calibrated).
    pub fn start(binary: &Path, data: &Path, flags: &[String]) -> Result<Daemon, String> {
        let started = Instant::now();
        let mut child = Command::new(binary)
            .arg("serve")
            .arg("--data")
            .arg(data)
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", binary.display()))?;
        let (addr, stdout) = match listening_addr(&mut child) {
            Ok(found) => found,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        let control = match connect(addr) {
            Ok(stream) => stream,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        let mut daemon = Daemon {
            child: Some(child),
            addr,
            control: BufReader::new(control),
            _stdout: stdout,
            setup_s: 0.0,
        };
        // The accept loop starts after the engine build, so this reply
        // marks the end of set-up.
        let reply = daemon.request(b"HEALTH")?;
        if reply != b"OK healthy" {
            return Err(format!(
                "unexpected HEALTH reply {:?}",
                String::from_utf8_lossy(&reply)
            ));
        }
        daemon.setup_s = started.elapsed().as_secs_f64();
        Ok(daemon)
    }

    /// The daemon's loopback address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// One synchronous request on the control connection.
    pub fn request(&mut self, frame: &[u8]) -> Result<Vec<u8>, String> {
        let stream = self.control.get_mut();
        stream
            .write_all(&[frame, b"\n"].concat())
            .map_err(|e| format!("control write: {e}"))?;
        let mut line = Vec::new();
        self.control
            .read_until(b'\n', &mut line)
            .map_err(|e| format!("control read: {e}"))?;
        if line.pop() != Some(b'\n') {
            return Err("daemon closed the control connection".into());
        }
        Ok(line)
    }

    /// A parsed `STATS` snapshot.
    pub fn stats(&mut self) -> Result<Json, String> {
        let reply = self.request(b"STATS")?;
        let text = String::from_utf8(reply).map_err(|e| e.to_string())?;
        let json = text
            .strip_prefix("OK ")
            .ok_or_else(|| format!("STATS refused: {text}"))?;
        Json::parse(json).map_err(|e| format!("STATS is not valid JSON: {e}"))
    }

    /// The child's `VmHWM` (peak resident set), megabytes.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let pid = self
            .child
            .as_ref()
            .map(|c| c.id())
            .ok_or("daemon already stopped")?;
        let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
            .map_err(|e| format!("reading /proc/{pid}/status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM line".into())
    }

    /// CPU time the daemon has used so far (user + system, every
    /// thread), seconds. Time the host steals from the VM is not in it.
    pub fn cpu_s(&self) -> Result<f64, String> {
        let pid = self
            .child
            .as_ref()
            .map(|c| c.id())
            .ok_or("daemon already stopped")?;
        let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
            .map_err(|e| format!("reading /proc/{pid}/stat: {e}"))?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line, in clock ticks.
        let rest = stat
            .rsplit_once(')')
            .map(|(_, r)| r)
            .ok_or("malformed /proc stat")?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| {
            fields
                .get(i)
                .and_then(|f| f.parse::<f64>().ok())
                .ok_or("malformed /proc stat")
        };
        Ok((ticks(11)? + ticks(12)?) / CLOCK_TICKS_PER_S)
    }

    /// Sends `SHUTDOWN` and waits for the child to drain and exit
    /// (killing it if it has not after 30 s).
    pub fn shutdown(mut self) -> Result<(), String> {
        let said_bye = self
            .request(b"SHUTDOWN")
            .map(|r| r == b"OK bye")
            .unwrap_or(false);
        let mut child = self.child.take().expect("child present until shutdown");
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() && said_bye => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("daemon did not exit after SHUTDOWN".into());
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Opens a loopback connection with Nagle off.
pub fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    Ok(stream)
}

/// Reads the `simsearchd listening on ADDR` line the daemon prints right
/// after binding.
fn listening_addr(child: &mut Child) -> Result<(SocketAddr, BufReader<ChildStdout>), String> {
    let stdout = child.stdout.take().ok_or("no daemon stdout")?;
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("reading daemon stdout: {e}"))?;
    let addr = line
        .trim()
        .rsplit(' ')
        .next()
        .and_then(|a| a.parse().ok())
        .ok_or_else(|| format!("daemon did not report its address (got {:?})", line.trim()))?;
    Ok((addr, reader))
}
