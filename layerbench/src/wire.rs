//! The wire side: a real `joinopt serve` child on a unix socket and
//! closed-loop newline-JSON clients.

use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use joinopt_core::Algorithm;
use joinopt_telemetry::json::{JsonObject, JsonValue};

use crate::mix::{Query, Stream};

/// How long a client waits for one response before declaring the
/// server hung.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(60);
/// How long the server may take to bind, and to exit after `shutdown`.
const PROCESS_TIMEOUT: Duration = Duration::from_secs(30);

/// One answered (or failed) optimize request.
#[derive(Debug)]
pub struct Sample {
    /// The query sent.
    pub query: Arc<Query>,
    /// The stream round it belongs to (`u64::MAX` for warm-up).
    pub round: u64,
    /// Send-to-parsed-response time.
    pub latency_ns: u64,
    /// The response, when it was `status: ok` and echoed the request id.
    pub answer: Option<Answer>,
}

/// The fields of an OK response the output check reads.
#[derive(Debug, Clone, Copy)]
pub struct Answer {
    /// Plan cost as the server printed it.
    pub cost: f64,
    /// The algorithm the server resolved `Auto` to.
    pub algorithm: Algorithm,
    /// Whether the plan came from the cache.
    pub cache_hit: bool,
}

/// The client's own count of what it saw, reconciled against the
/// server's `stats` verb.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// `status: ok` optimize responses.
    pub ok: u64,
    /// Of those, `cache_hit: true`.
    pub hits: u64,
    /// Every other optimize response (error, rejection, bad echo).
    pub not_ok: u64,
}

impl Tally {
    fn add(&mut self, samples: &[Sample]) {
        for s in samples {
            match s.answer {
                Some(a) => {
                    self.ok += 1;
                    self.hits += u64::from(a.cache_hit);
                }
                None => self.not_ok += 1,
            }
        }
    }
}

/// A running `joinopt serve` child. Dropping it kills and reaps the
/// process; [`Server::finish`] is the clean path.
pub struct Server {
    child: Child,
    stdout: Option<ChildStdout>,
    socket: PathBuf,
    tally: Tally,
}

impl Server {
    /// Spawns the server on `socket` with its shipped defaults and waits
    /// until the `ready` verb answers `true`.
    pub fn spawn(binary: &Path, socket: &Path) -> Result<Server, String> {
        let _ = std::fs::remove_file(socket);
        let child = Command::new(binary)
            .arg("serve")
            .arg("--unix")
            .arg(socket)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", binary.display()))?;
        let mut server = Server {
            child,
            stdout: None,
            socket: socket.to_path_buf(),
            tally: Tally::default(),
        };
        server.stdout = server.child.stdout.take();
        let started = Instant::now();
        let mut conn = loop {
            match server.connect() {
                Ok(c) => break c,
                Err(_) if started.elapsed() < PROCESS_TIMEOUT => {
                    if let Ok(Some(status)) = server.child.try_wait() {
                        return Err(format!("server exited before binding: {status}"));
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
                Err(e) => return Err(format!("server never bound {}: {e}", socket.display())),
            }
        };
        let ready = conn.call("{\"verb\":\"ready\"}")?;
        if ready.get("ready").and_then(JsonValue::as_bool) != Some(true) {
            return Err(format!("server not ready: {ready:?}"));
        }
        Ok(server)
    }

    /// Opens a client connection.
    pub fn connect(&self) -> Result<Conn, String> {
        let stream = UnixStream::connect(&self.socket).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_read_timeout(Some(RESPONSE_TIMEOUT))
            .map_err(|e| format!("socket timeout: {e}"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("socket clone: {e}"))?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
            line: String::new(),
        })
    }

    /// Counts responses the client received, for the reconciliation in
    /// [`Server::finish`].
    pub fn record(&mut self, samples: &[Sample]) {
        self.tally.add(samples);
    }

    /// The server's `/proc` status file.
    fn status_path(&self) -> String {
        format!("/proc/{}/status", self.child.id())
    }

    /// Reconciles the server's counters with the client's tally, sends
    /// `shutdown`, and requires exit status 0 after a completed drain.
    pub fn finish(mut self) -> Result<(), String> {
        let mut conn = self.connect()?;
        let stats = conn.call("{\"verb\":\"stats\"}")?;
        let field = |k: &str| {
            stats
                .get(k)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("stats lacks {k:?}: {stats:?}"))
        };
        let (accepted, completed, failed, hits) = (
            field("accepted")?,
            field("completed")?,
            field("failed")?,
            field("cache_hits")?,
        );
        let t = self.tally;
        if accepted != completed + failed || completed != t.ok || hits != t.hits {
            return Err(format!(
                "counters do not reconcile: server accepted {accepted} completed {completed} \
                 failed {failed} cache_hits {hits}; client ok {} hits {} not-ok {}",
                t.ok, t.hits, t.not_ok
            ));
        }
        let bye = conn.call("{\"verb\":\"shutdown\"}")?;
        if bye.get("status").and_then(JsonValue::as_str) != Some("ok") {
            return Err(format!("shutdown refused: {bye:?}"));
        }
        drop(conn);
        let deadline = Instant::now() + PROCESS_TIMEOUT;
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1))
                }
                Ok(None) => return Err("server did not exit after shutdown".into()),
                Err(e) => return Err(format!("wait: {e}")),
            }
        };
        let mut out = String::new();
        if let Some(mut stdout) = self.stdout.take() {
            let _ = stdout.read_to_string(&mut out);
        }
        if !status.success() || !out.contains("drained: true") {
            return Err(format!("unclean server exit ({status}): {out}"));
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MiB.
pub fn vm_hwm_mb(status_path: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(status_path).map_err(|e| format!("{status_path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in {status_path}"))
}

/// One client connection.
pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    line: String,
}

impl Conn {
    /// Sends one request line and parses the response line.
    pub fn call(&mut self, request: &str) -> Result<JsonValue, String> {
        self.writer
            .write_all(request.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .map_err(|e| format!("send: {e}"))?;
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => return Err("server closed the connection".into()),
            Ok(_) => {}
            Err(e) => return Err(format!("receive: {e}")),
        }
        JsonValue::parse(self.line.trim()).map_err(|e| format!("bad response {e:?}: {}", self.line))
    }

    /// Sends `query` as an optimize request with correlation id `id` and
    /// times it from send to parsed response.
    pub fn optimize(&mut self, id: &str, round: u64, query: &Arc<Query>) -> Result<Sample, String> {
        let line = request_line(id, &query.text);
        let t0 = Instant::now();
        let response = self.call(&line)?;
        let latency_ns = t0.elapsed().as_nanos() as u64;
        let ok = response.get("status").and_then(JsonValue::as_str) == Some("ok")
            && response.get("id").and_then(JsonValue::as_str) == Some(id);
        let answer = ok
            .then(|| {
                Some(Answer {
                    cost: response.get("cost")?.as_f64()?,
                    algorithm: Algorithm::parse(response.get("algorithm")?.as_str()?)?,
                    cache_hit: response.get("cache_hit")?.as_bool()?,
                })
            })
            .flatten();
        Ok(Sample {
            query: Arc::clone(query),
            round,
            latency_ns,
            answer,
        })
    }
}

/// The newline-JSON optimize request for `text`.
pub fn request_line(id: &str, text: &str) -> String {
    JsonObject::new()
        .str("verb", "optimize")
        .str("id", id)
        .str("query", text)
        .finish()
}

/// Sends the stream's warm-up set on one connection.
pub fn warm_up(server: &mut Server, stream: &Stream) -> Result<Vec<Sample>, String> {
    let mut conn = server.connect()?;
    let samples = stream
        .warmup()
        .iter()
        .enumerate()
        .map(|(i, q)| conn.optimize(&format!("w{i}"), u64::MAX, q))
        .collect::<Result<Vec<_>, _>>()?;
    server.record(&samples);
    Ok(samples)
}

/// The timed closed loop: `conns` clients, each sending its next request
/// only after the previous answer arrived. Client `c` runs rounds
/// `c, c + conns, …` and stops after the first whole round that ends
/// past `budget`. Returns the samples, the wall time of the phase, and
/// the server's peak RSS in MiB once client 0 had completed the
/// workload's [`rss_rounds`](crate::mix::Workload::rss_rounds) (or at
/// the end, if it never did).
pub fn closed_loop(
    server: &mut Server,
    stream: &Stream,
    conns: usize,
    budget: Duration,
) -> Result<(Vec<Sample>, Duration, f64), String> {
    let clients = (0..conns)
        .map(|_| server.connect())
        .collect::<Result<Vec<_>, _>>()?;
    let status = server.status_path();
    let rss_after = stream.workload().rss_rounds();
    let start = Instant::now();
    let per_client = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, mut conn)| {
                let status = &status;
                scope.spawn(move || -> Result<(Vec<Sample>, Option<f64>), String> {
                    let mut samples = Vec::new();
                    let mut rss = None;
                    let mut r = c as u64;
                    loop {
                        for (i, q) in stream.round(r).iter().enumerate() {
                            samples.push(conn.optimize(&format!("{r}.{i}"), r, q)?);
                        }
                        r += conns as u64;
                        if c == 0 && r / conns as u64 == rss_after {
                            rss = Some(vm_hwm_mb(status)?);
                        }
                        if start.elapsed() >= budget {
                            return Ok((samples, rss));
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect::<Result<Vec<_>, _>>()
    })?;
    let wall = start.elapsed();
    let rss = match per_client[0].1 {
        Some(mb) => mb,
        None => vm_hwm_mb(&status)?,
    };
    let samples: Vec<Sample> = per_client.into_iter().flat_map(|(s, _)| s).collect();
    server.record(&samples);
    Ok((samples, wall, rss))
}
