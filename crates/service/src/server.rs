//! `joinopt serve`: a dependency-free long-running server over the
//! [`Gateway`].
//!
//! The server listens on a TCP address or a unix socket and speaks
//! **newline-delimited JSON**: one request object per line, one
//! response object per line, in order, per connection. Each connection
//! gets its own thread and its own pooled optimizer [`Session`]; every
//! optimize request runs the gateway's full hardened lifecycle
//! (shedding → breaker → deadline propagation → retries; see
//! [`crate::gateway`]).
//!
//! ## Protocol verbs
//!
//! | verb       | request fields                                        | response |
//! |------------|-------------------------------------------------------|----------|
//! | `health`   | —                                                     | `status: ok` (liveness) |
//! | `ready`    | —                                                     | `ready: true` unless draining |
//! | `stats`    | —                                                     | gateway + cache counters |
//! | `optimize` | `query` (DSL/SQL text), `id?`, `trace_id?`, `tenant?`, `priority?`, `algorithm?`, `cost_model?`, `deadline_ms?`, `time_budget_ms?`, `cost_budget?`, `memory_budget?`, `degrade?` | plan summary, or a typed rejection/error |
//! | `metrics`  | `format?` (`"json"` default, `"prometheus"`)          | windowed per-(tenant, verb, stage) p50/p99/rate snapshot |
//! | `trace`    | `trace_id`                                            | the retained [`RequestTrace`] for that id, or `not-found` |
//! | `slow`     | —                                                     | the worst-K slowest retained traces, worst first |
//! | `shutdown` | —                                                     | `status: ok`, then graceful drain |
//!
//! Responses carry `status`: `"ok"`, `"rejected"` (gateway refusal
//! with `error_type` ∈ {`shed`, `breaker-open`, `draining`} and a
//! `retry_after_ms` hint) or `"error"` (`error_type` ∈ {`timeout`,
//! `memory`, `panic`, `parse`, `invalid`, …} with a message).
//! `deadline_ms` above [`MAX_DEADLINE_MS`] is rejected as `invalid`
//! before any work happens.
//!
//! ## Correlation ids
//!
//! Every response echoes the client's `id` when one was parseable —
//! including rejections, unknown verbs, and lines that failed JSON
//! parsing outright (a best-effort salvage scan recovers `id`/
//! `trace_id` from malformed lines). Optimize requests additionally
//! carry a `trace_id`: accepted verbatim from the client or minted from
//! a seeded per-server counter, echoed in the response, and usable with
//! the `trace` verb to fetch the request's full stage-span timeline
//! (accept → shed-check → breaker → cache-lookup/optimize per attempt →
//! retry-backoff → respond). Tracing is on by default
//! ([`ServerConfig::tracing`]); disabling it restores the untraced fast
//! path with zero extra clock reads (pinned by `tests/trace_overhead.rs`).
//!
//! ## Shutdown
//!
//! On the `shutdown` verb (or [`ShutdownHandle::shutdown`]) the server
//! stops accepting connections, the gateway begins draining (new
//! requests get typed `draining` rejections), every in-flight request
//! runs to completion, connection threads exit, and the final metrics
//! snapshot — including the `joinopt_serve_*_total` series — is
//! flushed to the configured Prometheus path and returned in the
//! [`ServeSummary`].
//!
//! The `serve-accept` failpoint site fires per accepted connection
//! (when armed the connection is dropped before any read — clients see
//! a reset, the accept loop survives). See `docs/robustness.md`.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use joinopt_core::{Algorithm, Session};
use joinopt_telemetry::json::{write_escaped, JsonObject, JsonValue};
use joinopt_telemetry::{
    Fanout, MetricsRegistry, NoopObserver, Observer, RegistryObserver, RequestTrace, TraceIdMinter,
    TraceLog, TraceSink, WindowConfig, WindowedMetrics,
};

use crate::gateway::{Gateway, GatewayConfig, GatewayError, GatewayStats};
use crate::service::{CostModelId, OptimizerService, Priority, ServiceConfig, ServiceRequest};
use crate::spec::QuerySpec;

/// Largest accepted `deadline_ms` (one hour). Anything larger is a
/// protocol error — an oversized deadline is always a client bug, and
/// admitting it would pin queue slots for an absurd window.
pub const MAX_DEADLINE_MS: u64 = 3_600_000;

/// How often blocked reads and the accept loop re-check the shutdown
/// flag.
const POLL: Duration = Duration::from_millis(10);

/// Where the server listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Listen {
    /// A TCP address like `127.0.0.1:7878` (port 0 picks a free port).
    Tcp(String),
    /// A unix-domain socket path (a stale file is replaced).
    Unix(PathBuf),
}

/// The rolling per-(tenant, verb, stage) latency windows behind the
/// `metrics` verb and `joinopt top`: 60 one-second buckets.
const TRACE_WINDOW: WindowConfig = WindowConfig {
    bucket_width_ns: 1_000_000_000,
    buckets: 60,
};

/// How many finished traces the `trace` verb can look up by id.
const RECENT_TRACES: usize = 256;

/// Worst-K bound of the `slow` verb's slowest-request ring.
const SLOW_TRACES: usize = 16;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address.
    pub listen: Listen,
    /// Sizing of the underlying [`OptimizerService`] (cache, limits).
    pub service: ServiceConfig,
    /// Gateway hardening (shedding, retries, breaker).
    pub gateway: GatewayConfig,
    /// Request tracing and windowed metrics (on by default). Off, the
    /// request path performs zero extra clock reads and produces
    /// bit-identical plans (pinned in `tests/trace_overhead.rs`); the
    /// `metrics`/`trace`/`slow` verbs then answer from empty stores.
    pub tracing: bool,
    /// How long the final drain may wait for in-flight requests.
    pub drain_timeout: Duration,
    /// When set, the final metrics snapshot is written here in
    /// Prometheus exposition format.
    pub prom_path: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            listen: Listen::Tcp("127.0.0.1:0".into()),
            service: ServiceConfig::default(),
            gateway: GatewayConfig::default(),
            tracing: true,
            drain_timeout: Duration::from_secs(30),
            prom_path: None,
        }
    }
}

/// The server's shared observability state: the trace-id minter, the
/// rolling windows and the bounded trace log, all behind locks so every
/// connection thread can feed them.
struct ServeTelemetry {
    enabled: bool,
    minter: TraceIdMinter,
    windows: std::sync::Mutex<WindowedMetrics>,
    traces: std::sync::Mutex<TraceLog>,
}

impl ServeTelemetry {
    fn new(enabled: bool, seed: u64) -> ServeTelemetry {
        ServeTelemetry {
            enabled,
            minter: TraceIdMinter::new(seed),
            windows: std::sync::Mutex::new(WindowedMetrics::new(TRACE_WINDOW)),
            traces: std::sync::Mutex::new(TraceLog::new(RECENT_TRACES, SLOW_TRACES)),
        }
    }

    fn lock_windows(&self) -> std::sync::MutexGuard<'_, WindowedMetrics> {
        self.windows
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn lock_traces(&self) -> std::sync::MutexGuard<'_, TraceLog> {
        self.traces
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Files a finished trace: every stage span (plus a synthetic
    /// `total`) lands in the rolling windows, the trace itself in the
    /// recent/slow log.
    fn record(&self, trace: RequestTrace) {
        {
            let mut windows = self.lock_windows();
            for span in trace.spans() {
                windows.record(
                    &trace.tenant,
                    trace.verb,
                    span.stage,
                    span.end_ns,
                    span.duration_ns(),
                );
            }
            windows.record(
                &trace.tenant,
                trace.verb,
                "total",
                trace.finished_ns,
                trace.total_ns(),
            );
        }
        self.lock_traces().record(trace);
    }
}

/// What a completed serve run looked like.
#[derive(Debug)]
pub struct ServeSummary {
    /// Final gateway counters.
    pub stats: GatewayStats,
    /// Whether the drain completed within the timeout.
    pub drained: bool,
    /// In-flight requests that completed during the drain.
    pub drained_in_flight: usize,
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Connections dropped by the `serve-accept` failpoint.
    pub accept_faults: u64,
    /// The final metrics flush in Prometheus exposition format.
    pub prometheus: String,
}

/// Requests the accept loop to stop; usable from any thread.
#[derive(Debug, Clone)]
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
}

impl ShutdownHandle {
    /// Signals the server to drain and exit.
    pub fn shutdown(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    fn set_read_timeout(&self, d: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(d),
            Stream::Unix(s) => s.set_read_timeout(d),
        }
    }

    fn try_clone(&self) -> std::io::Result<Stream> {
        Ok(match self {
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
        })
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// The bound-but-not-yet-running server.
pub struct Server {
    config: ServerConfig,
    listener: Listener,
    local_addr: Option<SocketAddr>,
    gateway: Gateway,
    telemetry: ServeTelemetry,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Binds the configured listener (without accepting yet).
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        let listener = match &config.listen {
            Listen::Tcp(addr) => Listener::Tcp(TcpListener::bind(addr)?),
            Listen::Unix(path) => {
                // A stale socket file from a dead process would make
                // bind fail with AddrInUse; replace it.
                let _ = std::fs::remove_file(path);
                Listener::Unix(UnixListener::bind(path)?)
            }
        };
        let local_addr = match &listener {
            Listener::Tcp(l) => l.local_addr().ok(),
            Listener::Unix(_) => None,
        };
        let gateway = Gateway::new(
            OptimizerService::new(config.service.clone()),
            config.gateway.clone(),
        );
        let telemetry = ServeTelemetry::new(config.tracing, config.gateway.seed);
        Ok(Server {
            config,
            listener,
            local_addr,
            gateway,
            telemetry,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound TCP address (`None` for unix sockets) — lets callers
    /// bind port 0 and discover the real port.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.local_addr
    }

    /// A handle that stops the server from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            flag: Arc::clone(&self.shutdown),
        }
    }

    /// Runs until a `shutdown` verb or [`ShutdownHandle::shutdown`],
    /// then drains gracefully and returns the summary.
    pub fn run(self) -> std::io::Result<ServeSummary> {
        let registry = MetricsRegistry::new();
        let obs = RegistryObserver::new(&registry);
        let gateway = &self.gateway;
        let telemetry = &self.telemetry;
        let shutdown = &self.shutdown;
        let mut connections = 0u64;
        let mut accept_faults = 0u64;

        match &self.listener {
            Listener::Tcp(l) => l.set_nonblocking(true)?,
            Listener::Unix(l) => l.set_nonblocking(true)?,
        }

        std::thread::scope(|scope| -> std::io::Result<()> {
            while !shutdown.load(Ordering::SeqCst) {
                let accepted = match &self.listener {
                    Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
                    Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
                };
                match accepted {
                    Ok(stream) => {
                        if joinopt_core::failpoint::check("serve-accept").is_err() {
                            // Injected accept failure: the connection is
                            // dropped before any read, the loop lives on.
                            accept_faults += 1;
                            continue;
                        }
                        connections += 1;
                        let obs = &obs;
                        scope.spawn(move || {
                            let _ = serve_connection(gateway, telemetry, shutdown, stream, obs);
                        });
                    }
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        std::thread::sleep(POLL);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => {
                        // A fatal accept error (e.g. EMFILE) ends the
                        // listen loop; raise the shutdown flag first so
                        // connection threads wind down and the scope's
                        // implicit join cannot hang on a live client.
                        shutdown.store(true, Ordering::SeqCst);
                        return Err(e);
                    }
                }
            }
            // The accept loop is done; the scope now joins every
            // connection thread, each of which finishes its in-flight
            // request (admitted pre-drain) before exiting.
            Ok(())
        })?;

        // Belt and braces: a ShutdownHandle stop skips the verb path.
        if !gateway.is_draining() {
            gateway.begin_drain();
        }
        let drained = gateway.await_drained(self.config.drain_timeout, &obs);
        let mut prometheus = registry.snapshot().to_prometheus();
        if telemetry.enabled {
            // The final flush carries the windowed per-stage series too,
            // so a scrape of the shutdown snapshot sees recent latency.
            let now = gateway.clock().now_ns();
            prometheus.push_str(&telemetry.lock_windows().snapshot(now).to_prometheus());
        }
        if let Some(path) = &self.config.prom_path {
            std::fs::write(path, &prometheus)?;
        }
        if let Listen::Unix(path) = &self.config.listen {
            let _ = std::fs::remove_file(path);
        }
        Ok(ServeSummary {
            stats: gateway.stats(),
            drained: drained.is_ok(),
            drained_in_flight: drained.unwrap_or(0),
            connections,
            accept_faults,
            prometheus,
        })
    }
}

/// One connection's read → dispatch → respond loop.
///
/// Lines are read as bytes: a read that times out mid-line keeps what
/// it has (even half of a multi-byte character) and the next poll
/// completes it, and a line that is not UTF-8 gets a typed `parse`
/// error while the connection stays open for the lines behind it.
fn serve_connection(
    gateway: &Gateway,
    telemetry: &ServeTelemetry,
    shutdown: &AtomicBool,
    stream: Stream,
    obs: &dyn Observer,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(POLL))?;
    let mut writer = BufWriter::new(stream.try_clone()?);
    let mut reader = BufReader::new(stream);
    let mut session: Option<Session> = None;
    let mut line: Vec<u8> = Vec::new();
    loop {
        // Close idle connections once draining; a partially read
        // request (non-empty buffer) is always completed and answered.
        if shutdown.load(Ordering::SeqCst) && line.is_empty() {
            return Ok(());
        }
        match reader.read_until(b'\n', &mut line) {
            Ok(0) => return Ok(()), // client closed
            Ok(_) => {
                let reply = match std::str::from_utf8(&line) {
                    Ok(text) if text.trim().is_empty() => None,
                    Ok(text) => Some(dispatch(
                        gateway,
                        telemetry,
                        shutdown,
                        text.trim(),
                        &mut session,
                        obs,
                    )),
                    Err(e) => Some((not_utf8_response(&line, &e), false)),
                };
                line.clear();
                let Some((response, is_shutdown)) = reply else {
                    continue;
                };
                writer.write_all(response.as_bytes())?;
                writer.write_all(b"\n")?;
                writer.flush()?;
                if is_shutdown {
                    return Ok(());
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return Ok(()), // connection torn down
        }
    }
}

/// The typed `parse` error for a request line that is not UTF-8,
/// echoing whatever `id`/`trace_id` survive a lossy decode.
fn not_utf8_response(line: &[u8], e: &std::str::Utf8Error) -> String {
    let text = String::from_utf8_lossy(line);
    // A field the lossy decode had to patch is not the client's value.
    let salvage =
        |key| salvage_str_field(&text, key).filter(|v| !v.contains(char::REPLACEMENT_CHARACTER));
    let id = salvage("id");
    let trace_id = salvage("trace_id");
    let echo = Echo {
        id: id.as_deref(),
        trace_id: trace_id.as_deref(),
    };
    error_response(
        "?",
        echo,
        "parse",
        &format!("request line is not valid UTF-8 (byte {})", e.valid_up_to()),
    )
}

/// The correlation fields every response echoes back: the client's
/// request `id` (when one was parseable) and the request's `trace_id`
/// (client-supplied or server-minted).
#[derive(Debug, Clone, Copy, Default)]
struct Echo<'a> {
    id: Option<&'a str>,
    trace_id: Option<&'a str>,
}

impl Echo<'_> {
    fn apply(self, o: JsonObject) -> JsonObject {
        o.opt_str("id", self.id).opt_str("trace_id", self.trace_id)
    }
}

/// Parses one request line and produces the response line. The second
/// component is `true` when the verb was `shutdown`.
fn dispatch(
    gateway: &Gateway,
    telemetry: &ServeTelemetry,
    shutdown: &AtomicBool,
    text: &str,
    session: &mut Option<Session>,
    obs: &dyn Observer,
) -> (String, bool) {
    let parsed = match JsonValue::parse(text) {
        Ok(v) => v,
        Err(e) => {
            // The line is not JSON, but correlation ids are often still
            // recognizable in it; salvage them so even this error path
            // echoes `id`/`trace_id`.
            let id = salvage_str_field(text, "id");
            let trace_id = salvage_str_field(text, "trace_id");
            let echo = Echo {
                id: id.as_deref(),
                trace_id: trace_id.as_deref(),
            };
            return (
                error_response("?", echo, "invalid", &format!("bad request JSON: {e:?}")),
                false,
            );
        }
    };
    let id = parsed
        .get("id")
        .and_then(|v| v.as_str())
        .map(str::to_string);
    let client_trace = parsed
        .get("trace_id")
        .and_then(|v| v.as_str())
        .map(str::to_string);
    let echo = Echo {
        id: id.as_deref(),
        trace_id: client_trace.as_deref(),
    };
    let verb = parsed.get("verb").and_then(|v| v.as_str()).unwrap_or("");
    match verb {
        "health" => (simple_ok("health", echo), false),
        "ready" => (
            JsonObject::new()
                .str("verb", "ready")
                .str("status", "ok")
                .bool("ready", !gateway.is_draining())
                .finish_with(echo),
            false,
        ),
        "stats" => (stats_response(gateway, echo), false),
        "metrics" => (metrics_response(gateway, telemetry, &parsed, echo), false),
        "trace" => (trace_response(telemetry, &parsed, echo), false),
        "slow" => (slow_response(telemetry, echo), false),
        "shutdown" => {
            // Respond first (the flush happens before the flag is
            // visible to this connection's loop), then drain.
            gateway.begin_drain();
            shutdown.store(true, Ordering::SeqCst);
            (simple_ok("shutdown", echo), true)
        }
        "optimize" => (
            optimize_response(
                gateway,
                telemetry,
                &parsed,
                id.as_deref(),
                client_trace,
                session,
                obs,
            ),
            false,
        ),
        other => (
            error_response("?", echo, "invalid", &format!("unknown verb {other:?}")),
            false,
        ),
    }
}

/// Best-effort extraction of a string field from a line that failed
/// JSON parsing: finds `"key"`, expects `:` and a JSON string, and
/// decodes it with the real parser (escapes included). `None` when the
/// field is absent or hopeless.
fn salvage_str_field(text: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\"");
    let start = text.find(&needle)? + needle.len();
    let rest = text[start..].trim_start().strip_prefix(':')?.trim_start();
    let bytes = rest.as_bytes();
    if bytes.first() != Some(&b'"') {
        return None;
    }
    let mut i = 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => {
                return JsonValue::parse(&rest[..=i])
                    .ok()
                    .and_then(|v| v.as_str().map(str::to_string));
            }
            _ => i += 1,
        }
    }
    None
}

trait FinishWith {
    fn finish_with(self, echo: Echo<'_>) -> String;
}

impl FinishWith for JsonObject {
    /// Appends the echoed correlation fields and closes the object —
    /// the one funnel every response line leaves through, so no path
    /// can forget to echo `id`.
    fn finish_with(self, echo: Echo<'_>) -> String {
        echo.apply(self).finish()
    }
}

fn simple_ok(verb: &str, echo: Echo<'_>) -> String {
    JsonObject::new()
        .str("verb", verb)
        .str("status", "ok")
        .finish_with(echo)
}

fn error_response(verb: &str, echo: Echo<'_>, error_type: &str, message: &str) -> String {
    JsonObject::new()
        .str("verb", verb)
        .str("status", "error")
        .str("error_type", error_type)
        .str("message", message)
        .finish_with(echo)
}

fn stats_response(gateway: &Gateway, echo: Echo<'_>) -> String {
    let st = gateway.stats();
    let mut o = JsonObject::new()
        .str("verb", "stats")
        .str("status", "ok")
        .u64("accepted", st.accepted)
        .u64("completed", st.completed)
        .u64("failed", st.failed)
        .u64("shed", st.shed)
        .u64("breaker_rejected", st.breaker_rejected)
        .u64("retried", st.retried)
        .u64("breaker_opens", st.breaker_opens)
        .u64("in_flight", st.in_flight as u64);
    if let Some(cache) = gateway.service().cache() {
        let cs = cache.stats();
        o = o
            .u64("cache_hits", cs.hits)
            .u64("cache_misses", cs.misses)
            .u64("cache_bytes", cache.bytes() as u64);
    }
    o.finish_with(echo)
}

/// The `metrics` verb: the windowed per-(tenant, verb, stage) snapshot,
/// as JSON (default) or Prometheus text (`"format": "prometheus"`).
fn metrics_response(
    gateway: &Gateway,
    telemetry: &ServeTelemetry,
    parsed: &JsonValue,
    echo: Echo<'_>,
) -> String {
    let now = if telemetry.enabled {
        gateway.clock().now_ns()
    } else {
        0
    };
    let snap = telemetry.lock_windows().snapshot(now);
    let o = JsonObject::new()
        .str("verb", "metrics")
        .str("status", "ok")
        .bool("tracing", telemetry.enabled);
    match parsed.get("format").and_then(|v| v.as_str()) {
        Some("prometheus") => o.str("prometheus", &snap.to_prometheus()).finish_with(echo),
        _ => o.raw("window", &snap.to_json()).finish_with(echo),
    }
}

/// The `trace` verb: looks one finished request up by `trace_id`.
fn trace_response(telemetry: &ServeTelemetry, parsed: &JsonValue, echo: Echo<'_>) -> String {
    let Some(wanted) = parsed.get("trace_id").and_then(|v| v.as_str()) else {
        return error_response("trace", echo, "invalid", "missing \"trace_id\" field");
    };
    match telemetry.lock_traces().find(wanted) {
        Some(trace) => JsonObject::new()
            .str("verb", "trace")
            .str("status", "ok")
            .raw("trace", &trace.to_json())
            .finish_with(echo),
        None => error_response(
            "trace",
            echo,
            "not-found",
            &format!("no retained trace with id {wanted:?}"),
        ),
    }
}

/// The `slow` verb: the worst-K slowest requests, worst first.
fn slow_response(telemetry: &ServeTelemetry, echo: Echo<'_>) -> String {
    let traces = telemetry.lock_traces();
    let mut slowest = String::from("[");
    for (i, t) in traces.slowest().iter().enumerate() {
        if i > 0 {
            slowest.push(',');
        }
        slowest.push_str(&t.to_json());
    }
    slowest.push(']');
    JsonObject::new()
        .str("verb", "slow")
        .str("status", "ok")
        .u64("count", traces.slowest().len() as u64)
        .raw("slowest", &slowest)
        .finish_with(echo)
}

/// Builds and runs one optimize request through the gateway, recording
/// a [`RequestTrace`] (accept → lifecycle stages → respond) when
/// tracing is enabled: a [`TraceSink`] teed with `obs` folds the
/// gateway's stage events.
fn optimize_response(
    gateway: &Gateway,
    telemetry: &ServeTelemetry,
    parsed: &JsonValue,
    id: Option<&str>,
    client_trace: Option<String>,
    session: &mut Option<Session>,
    obs: &dyn Observer,
) -> String {
    // Accept the client's trace_id or mint one; with tracing disabled
    // nothing is minted and only a client-supplied id is echoed.
    let trace_id = match client_trace {
        Some(t) => Some(t),
        None if telemetry.enabled => Some(telemetry.minter.mint()),
        None => None,
    };
    let echo = Echo {
        id,
        trace_id: trace_id.as_deref(),
    };

    let accept_start = telemetry.enabled.then(|| gateway.clock().now_ns());
    let (req, deadline) = match build_request(parsed) {
        Ok(pair) => pair,
        Err((error_type, message)) => {
            return error_response("optimize", echo, error_type, &message)
        }
    };
    let sink = match (accept_start, &trace_id) {
        (Some(t0), Some(tid)) => {
            let mut tr = RequestTrace::new(tid.clone(), &req.tenant, "optimize", t0);
            tr.span("accept", t0, gateway.clock().now_ns());
            Some(TraceSink::new(tr))
        }
        _ => None,
    };

    let trace_sink = sink.as_ref().map_or(&NoopObserver as &dyn Observer, |s| s);
    let result = gateway.handle(&req, deadline, session, &Fanout::new(&[obs, trace_sink]));
    let mut trace = sink.map(TraceSink::into_trace);
    let respond_start = trace.as_ref().map(|_| gateway.clock().now_ns());
    if let (Some(tr), Err(err)) = (trace.as_mut(), &result) {
        tr.error_kind = Some(err.kind());
    }

    let (status, response) = match result {
        Ok(outcome) => {
            if let Some(tr) = trace.as_mut() {
                tr.algorithm = Some(outcome.algorithm.wire_name());
                tr.cache_hit = Some(outcome.cache_hit);
                tr.degraded = outcome.degradation.as_ref().map(|d| d.rung.as_str());
            }
            let mut o = JsonObject::new()
                .str("verb", "optimize")
                .str("status", "ok")
                .f64("cost", outcome.result.cost)
                .f64("cardinality", outcome.result.cardinality)
                .u64("relations", outcome.result.tree.num_relations() as u64)
                .str("algorithm", outcome.algorithm.wire_name())
                .bool("cache_hit", outcome.cache_hit);
            if let Some(d) = &outcome.degradation {
                o = o.str("degraded", d.rung.as_str());
            }
            let elapsed_us = outcome.elapsed.as_micros().min(u128::from(u64::MAX)) as u64;
            ("ok", o.u64("elapsed_us", elapsed_us).finish_with(echo))
        }
        Err(GatewayError::Rejected(r)) => (
            "rejected",
            JsonObject::new()
                .str("verb", "optimize")
                .str("status", "rejected")
                .str("error_type", r.kind())
                .u64(
                    "retry_after_ms",
                    r.retry_after().as_millis().max(1).min(u128::from(u64::MAX)) as u64,
                )
                .finish_with(echo),
        ),
        Err(GatewayError::Failed(e)) => (
            "error",
            error_response(
                "optimize",
                echo,
                crate::gateway::error_kind(&e),
                &e.to_string(),
            ),
        ),
    };

    if let (Some(mut tr), Some(t_resp)) = (trace, respond_start) {
        let now = gateway.clock().now_ns();
        tr.span("respond", t_resp, now);
        tr.finish(status, now);
        telemetry.record(tr);
    }
    response
}

/// Extracts a [`ServiceRequest`] + lifecycle deadline from the JSON
/// request, or a typed (`error_type`, message) pair.
#[allow(clippy::type_complexity)]
fn build_request(
    parsed: &JsonValue,
) -> Result<(ServiceRequest, Option<Duration>), (&'static str, String)> {
    let query = parsed
        .get("query")
        .and_then(|v| v.as_str())
        .ok_or_else(|| ("invalid", "missing \"query\" field".to_string()))?;
    let spec = parse_query_text(query).map_err(|m| ("parse", m))?;
    let mut req = ServiceRequest::new(spec);
    if let Some(t) = parsed.get("tenant").and_then(|v| v.as_str()) {
        req = req.with_tenant(t);
    }
    if let Some(p) = parsed.get("priority").and_then(|v| v.as_str()) {
        let p = Priority::parse(p).ok_or_else(|| ("invalid", format!("unknown priority {p:?}")))?;
        req = req.with_priority(p);
    }
    if let Some(a) = parsed.get("algorithm").and_then(|v| v.as_str()) {
        let a =
            Algorithm::parse(a).ok_or_else(|| ("invalid", format!("unknown algorithm {a:?}")))?;
        req = req.with_algorithm(a);
    }
    if let Some(m) = parsed.get("cost_model").and_then(|v| v.as_str()) {
        let m = CostModelId::parse(m)
            .ok_or_else(|| ("invalid", format!("unknown cost model {m:?}")))?;
        req = req.with_cost_model(m);
    }
    let deadline = match parsed.get("deadline_ms").and_then(|v| v.as_u64()) {
        Some(ms) if ms > MAX_DEADLINE_MS => {
            return Err((
                "invalid",
                format!("oversized deadline: {ms} ms exceeds the {MAX_DEADLINE_MS} ms maximum"),
            ))
        }
        Some(ms) => Some(Duration::from_millis(ms)),
        None => None,
    };
    if let Some(ms) = parsed.get("time_budget_ms").and_then(|v| v.as_u64()) {
        req = req.with_time_budget(Duration::from_millis(ms));
    }
    if let Some(c) = parsed.get("cost_budget").and_then(|v| v.as_f64()) {
        req = req.with_cost_budget(c);
    }
    if let Some(b) = parsed.get("memory_budget").and_then(|v| v.as_u64()) {
        req = req.with_memory_budget(usize::try_from(b).unwrap_or(usize::MAX));
    }
    if parsed.get("degrade").and_then(|v| v.as_bool()) == Some(true) {
        req = req.with_degradation();
    }
    Ok((req, deadline))
}

/// Parses inline query text — conjunctive SQL or the native DSL, the
/// same content sniffing as the CLI file loader — into a [`QuerySpec`].
pub fn parse_query_text(text: &str) -> Result<QuerySpec, String> {
    let parsed = if joinopt_query::looks_like_sql(text) {
        joinopt_query::parse_sql(text).map_err(|e| e.to_string())?
    } else {
        joinopt_query::parse(text).map_err(|e| e.to_string())?
    };
    let graph = parsed
        .graph()
        .ok_or_else(|| "query has hyperedges; serve supports simple graphs only".to_string())?;
    QuerySpec::capture(graph, &parsed.catalog).map_err(|e| e.to_string())
}

/// The wire name of an algorithm: [`Algorithm::wire_name`].
pub fn algorithm_name(a: Algorithm) -> &'static str {
    a.wire_name()
}

/// A scripted client for tests and the `--smoke` self-check: connects,
/// sends one line, reads one line.
pub struct LineClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl LineClient {
    /// Connects to a TCP server.
    pub fn connect(addr: SocketAddr) -> std::io::Result<LineClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let writer = stream.try_clone()?;
        Ok(LineClient {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one request line, returns the parsed response.
    pub fn call(&mut self, request: &str) -> std::io::Result<JsonValue> {
        self.writer.write_all(request.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        JsonValue::parse(line.trim()).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("bad response JSON: {e:?} in {line:?}"),
            )
        })
    }
}

/// Convenience for smoke assertions: a string field of a response.
fn field_str(v: &JsonValue, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(|f| f.as_str())
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field {key:?} in {v:?}"))
}

/// Convenience for smoke assertions: a bool field of a response.
fn field_bool(v: &JsonValue, key: &str) -> Result<bool, String> {
    v.get(key)
        .and_then(|f| f.as_bool())
        .ok_or_else(|| format!("missing bool field {key:?} in {v:?}"))
}

/// A fresh chain query whose relation names embed `tag`, so each tag
/// fingerprints (and caches) independently.
fn smoke_chain(tag: u32) -> String {
    let names: Vec<String> = (0..4).map(|i| format!("s{tag}_{i}")).collect();
    let mut q = String::new();
    for (i, n) in names.iter().enumerate() {
        // Cardinalities vary with the tag: canonicalization ignores
        // relation names, so identical statistics would make every tag
        // the same cached query.
        q.push_str(&format!(
            "relation {n} {}\n",
            (100 + 17 * tag as usize) * (i + 1)
        ));
    }
    for w in names.windows(2) {
        q.push_str(&format!("join {} {} 0.1\n", w[0], w[1]));
    }
    q
}

fn smoke_optimize(tag: u32, extra: &str) -> String {
    let mut req = String::from("{\"verb\":\"optimize\"");
    req.push_str(extra);
    req.push_str(",\"query\":");
    write_escaped(&mut req, &smoke_chain(tag));
    req.push('}');
    req
}

/// The `joinopt serve --smoke` self-check: starts a real TCP server in
/// this process, scripts a client through the whole protocol surface —
/// health/ready, cold + warm optimize, typed `parse`/`invalid`/
/// `timeout` errors (including an oversized `deadline_ms`), and, in
/// `--cfg failpoints` builds, an injected worker panic (typed `panic`
/// error, accept loop survives) and the `serve-cache-poison` proof
/// (poisoned fingerprints can only *miss*: the full-encoding check
/// rejects the collision and the recomputed plan costs the same) — then
/// shuts down and verifies the drain completed and the final
/// Prometheus flush is non-empty.
///
/// Returns the transcript of checks performed, or the first failure.
pub fn smoke(prom_path: Option<&std::path::Path>) -> Result<Vec<String>, String> {
    let mut log: Vec<String> = Vec::new();
    let server = Server::bind(ServerConfig {
        prom_path: prom_path.map(std::path::Path::to_path_buf),
        ..ServerConfig::default()
    })
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server
        .local_addr()
        .ok_or_else(|| "no local addr".to_string())?;
    let handle = std::thread::spawn(move || server.run());
    let mut client = LineClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut call = |req: &str| -> Result<JsonValue, String> {
        client.call(req).map_err(|e| format!("call {req:?}: {e}"))
    };

    let health = call("{\"verb\":\"health\"}")?;
    if field_str(&health, "status")? != "ok" {
        return Err(format!("health not ok: {health:?}"));
    }
    log.push("health: ok".into());
    let ready = call("{\"verb\":\"ready\"}")?;
    if !field_bool(&ready, "ready")? {
        return Err(format!("server not ready: {ready:?}"));
    }
    log.push("ready: true".into());

    let cold = call(&smoke_optimize(0, ""))?;
    if field_str(&cold, "status")? != "ok" || field_bool(&cold, "cache_hit")? {
        return Err(format!("cold optimize wrong: {cold:?}"));
    }
    let warm = call(&smoke_optimize(0, ""))?;
    if !field_bool(&warm, "cache_hit")? {
        return Err(format!("warm optimize missed the cache: {warm:?}"));
    }
    if warm.get("cost").and_then(|c| c.as_f64()) != cold.get("cost").and_then(|c| c.as_f64()) {
        return Err(format!("warm cost diverged: {cold:?} vs {warm:?}"));
    }
    log.push(format!(
        "optimize: cold miss + warm hit agree (algorithm {})",
        field_str(&warm, "algorithm")?
    ));

    let parse_err = call("{\"verb\":\"optimize\",\"query\":\"gibberish\"}")?;
    if field_str(&parse_err, "error_type")? != "parse" {
        return Err(format!("parse error not typed: {parse_err:?}"));
    }
    log.push("typed rejection: parse".into());

    let oversized = call(&smoke_optimize(0, ",\"deadline_ms\":86400000"))?;
    if field_str(&oversized, "error_type")? != "invalid"
        || !field_str(&oversized, "message")?.contains("oversized deadline")
    {
        return Err(format!("oversized deadline not rejected: {oversized:?}"));
    }
    log.push("typed rejection: invalid (oversized deadline)".into());

    let expired = call(&smoke_optimize(0, ",\"deadline_ms\":0"))?;
    if field_str(&expired, "error_type")? != "timeout" {
        return Err(format!("expired deadline not a timeout: {expired:?}"));
    }
    log.push("typed rejection: timeout (expired deadline)".into());

    #[cfg(failpoints)]
    {
        use joinopt_core::failpoint;

        // One injected worker panic per attempt: the request exhausts
        // its retries, surfaces as a typed `panic` error, and the
        // server (catch_unwind isolation) keeps serving.
        failpoint::configure_times(
            "serve-worker-panic",
            joinopt_core::failpoint::FailAction::Panic,
            16,
        );
        let panicked = call(&smoke_optimize(1, ""))?;
        failpoint::clear("serve-worker-panic");
        if field_str(&panicked, "error_type")? != "panic" {
            return Err(format!("injected panic not typed: {panicked:?}"));
        }
        let after = call(&smoke_optimize(1, ""))?;
        if field_str(&after, "status")? != "ok" {
            return Err(format!("server unhealthy after panic: {after:?}"));
        }
        log.push("failpoint serve-worker-panic: typed panic error, server survives".into());

        // Cache-poison proof: while every fingerprint is forced to the
        // same value, colliding entries can only *miss* — the cache's
        // full-encoding verification rejects them — never serve a wrong
        // plan. The repeat recomputes and matches the original cost.
        failpoint::configure(
            "serve-cache-poison",
            joinopt_core::failpoint::FailAction::Error,
        );
        let first = call(&smoke_optimize(2, ""))?;
        let second = call(&smoke_optimize(3, ""))?;
        let repeat = call(&smoke_optimize(2, ""))?;
        failpoint::clear("serve-cache-poison");
        for (name, r) in [("first", &first), ("second", &second), ("repeat", &repeat)] {
            if field_str(r, "status")? != "ok" {
                return Err(format!("poisoned {name} failed: {r:?}"));
            }
        }
        if field_bool(&repeat, "cache_hit")? {
            return Err(format!(
                "poisoned repeat must miss (encoding verification): {repeat:?}"
            ));
        }
        if repeat.get("cost").and_then(|c| c.as_f64()) != first.get("cost").and_then(|c| c.as_f64())
        {
            return Err(format!(
                "poisoned repeat cost diverged: {first:?} vs {repeat:?}"
            ));
        }
        log.push(
            "failpoint serve-cache-poison: collisions only miss, recomputed cost identical".into(),
        );
    }

    let stats = call("{\"verb\":\"stats\"}")?;
    let accepted = stats
        .get("accepted")
        .and_then(|v| v.as_u64())
        .ok_or_else(|| format!("stats missing accepted: {stats:?}"))?;
    if accepted == 0 {
        return Err(format!("stats accepted nothing: {stats:?}"));
    }
    log.push(format!("stats: accepted {accepted}"));

    // Tracing surface: a client-supplied trace_id is echoed, its full
    // span timeline is retrievable, the windowed metrics carry stage
    // series, and the slow list is populated.
    let traced = call(&smoke_optimize(0, ",\"trace_id\":\"smoke-trace-1\""))?;
    if field_str(&traced, "trace_id")? != "smoke-trace-1" {
        return Err(format!("client trace_id not echoed: {traced:?}"));
    }
    let fetched = call("{\"verb\":\"trace\",\"trace_id\":\"smoke-trace-1\"}")?;
    if field_str(&fetched, "status")? != "ok" || fetched.get("trace").is_none() {
        return Err(format!("trace verb did not return the trace: {fetched:?}"));
    }
    let metrics = call("{\"verb\":\"metrics\"}")?;
    let window = metrics
        .get("window")
        .ok_or_else(|| format!("metrics missing window: {metrics:?}"))?;
    let stage_count = window
        .get("stages")
        .and_then(|s| s.as_array().map(<[JsonValue]>::len))
        .unwrap_or(0);
    if stage_count == 0 {
        return Err(format!(
            "windowed metrics have no stage series: {metrics:?}"
        ));
    }
    let slow = call("{\"verb\":\"slow\"}")?;
    if slow.get("count").and_then(|v| v.as_u64()).unwrap_or(0) == 0 {
        return Err(format!("slow list empty after traffic: {slow:?}"));
    }
    log.push(format!(
        "tracing: trace_id echoed + fetched, {stage_count} windowed stage series, slow list live"
    ));

    let bye = call("{\"verb\":\"shutdown\"}")?;
    if field_str(&bye, "status")? != "ok" {
        return Err(format!("shutdown not acknowledged: {bye:?}"));
    }
    let summary = handle
        .join()
        .map_err(|_| "server thread panicked".to_string())?
        .map_err(|e| format!("server run: {e}"))?;
    if !summary.drained {
        return Err("drain did not complete".to_string());
    }
    if !summary.prometheus.contains("joinopt_serve_accepted_total") {
        return Err("final Prometheus flush missing serve series".to_string());
    }
    if !summary.prometheus.contains("joinopt_serve_stage_") {
        return Err("final Prometheus flush missing windowed stage series".to_string());
    }
    if summary.connections < 1 {
        return Err("no connections recorded".to_string());
    }
    log.push(format!(
        "shutdown: drained cleanly, {} connection(s), Prometheus flush {} bytes",
        summary.connections,
        summary.prometheus.len()
    ));
    Ok(log)
}

/// Produces the byte-deterministic span-timeline document `ci.sh` diffs
/// against `tests/goldens/serve-span-timeline.json`.
///
/// A manual-clock gateway and a seeded trace-id minter drive
/// `dispatch` directly (no sockets, no threads), so every span
/// boundary is an exact virtual-clock reading:
///
/// 1. a **cold** optimize with a server-minted trace id,
/// 2. a **warm** repeat (cache hit) with a client-supplied id,
/// 3. in `--cfg failpoints` builds only — which is what the committed
///    golden is generated from — a request whose first attempt is an
///    injected worker panic, exercising the `retry-backoff` span with
///    the seeded jitter stream while the `serve-slow-request` stall
///    advances the virtual clock per attempt.
///
/// The document ends with the windowed-metrics snapshot aggregated from
/// those traces, pinning the whole trace → window pipeline in one diff.
pub fn span_timeline_demo() -> String {
    let config = ServerConfig::default();
    let service = OptimizerService::new(config.service.clone());
    let gateway = Gateway::with_clock(
        service,
        config.gateway.clone(),
        crate::clock::Clock::manual(),
    );
    let telemetry = ServeTelemetry::new(config.tracing, 42);
    let shutdown = AtomicBool::new(false);
    let obs = joinopt_telemetry::NoopObserver;
    let mut session: Option<Session> = None;
    let mut run = |req: &str| {
        let (response, _) = dispatch(&gateway, &telemetry, &shutdown, req, &mut session, &obs);
        response
    };

    // Spread the requests across virtual time so their span timestamps
    // are visibly distinct in the golden.
    run(&smoke_optimize(0, ""));
    gateway.clock().advance(Duration::from_millis(5));
    run(&smoke_optimize(0, ",\"trace_id\":\"demo-warm\""));
    gateway.clock().advance(Duration::from_millis(5));

    #[cfg(failpoints)]
    {
        use joinopt_core::failpoint;
        failpoint::configure_times(
            "serve-worker-panic",
            joinopt_core::failpoint::FailAction::Panic,
            1,
        );
        failpoint::configure(
            "serve-slow-request",
            joinopt_core::failpoint::FailAction::Error,
        );
        run(&smoke_optimize(1, ",\"trace_id\":\"demo-retry\""));
        failpoint::clear("serve-slow-request");
        failpoint::clear("serve-worker-panic");
    }

    let mut doc = String::from("{\"schema\":\"joinopt-span-timeline-v1\",\n\"traces\":[\n");
    let traces = telemetry.lock_traces();
    let mut ids: Vec<&str> = traces.recent_ids();
    ids.sort_unstable();
    for (i, id) in ids.iter().enumerate() {
        if i > 0 {
            doc.push_str(",\n");
        }
        if let Some(t) = traces.find(id) {
            doc.push_str(&t.to_json());
        }
    }
    doc.push_str("\n],\n\"window\":");
    doc.push_str(
        &telemetry
            .lock_windows()
            .snapshot(gateway.clock().now_ns())
            .to_json(),
    );
    doc.push_str("}\n");
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    const CHAIN4: &str = "relation a 100\\nrelation b 200\\nrelation c 300\\nrelation d 50\\n\
                          join a b 0.1\\njoin b c 0.05\\njoin c d 0.2";

    fn chain4_text() -> String {
        CHAIN4.replace("\\n", "\n")
    }

    fn start_default() -> (
        std::thread::JoinHandle<std::io::Result<ServeSummary>>,
        SocketAddr,
    ) {
        let server = Server::bind(ServerConfig::default()).unwrap();
        let addr = server.local_addr().unwrap();
        (std::thread::spawn(move || server.run()), addr)
    }

    #[test]
    fn end_to_end_optimize_health_stats_shutdown() {
        let (handle, addr) = start_default();
        let mut client = LineClient::connect(addr).unwrap();

        let health = client.call("{\"verb\":\"health\"}").unwrap();
        assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));
        let ready = client.call("{\"verb\":\"ready\"}").unwrap();
        assert_eq!(ready.get("ready").unwrap().as_bool(), Some(true));

        let mut req = String::from("{\"verb\":\"optimize\",\"id\":\"q1\",\"query\":");
        write_escaped(&mut req, &chain4_text());
        req.push('}');
        let cold = client.call(&req).unwrap();
        assert_eq!(cold.get("status").unwrap().as_str(), Some("ok"), "{cold:?}");
        assert_eq!(cold.get("cache_hit").unwrap().as_bool(), Some(false));
        assert_eq!(cold.get("relations").unwrap().as_u64(), Some(4));
        assert_eq!(cold.get("id").unwrap().as_str(), Some("q1"));
        let warm = client.call(&req).unwrap();
        assert_eq!(warm.get("cache_hit").unwrap().as_bool(), Some(true));
        assert_eq!(
            warm.get("cost").unwrap().as_f64(),
            cold.get("cost").unwrap().as_f64()
        );

        let stats = client.call("{\"verb\":\"stats\"}").unwrap();
        assert_eq!(stats.get("completed").unwrap().as_u64(), Some(2));
        assert_eq!(stats.get("cache_hits").unwrap().as_u64(), Some(1));

        let bye = client.call("{\"verb\":\"shutdown\"}").unwrap();
        assert_eq!(bye.get("status").unwrap().as_str(), Some("ok"));
        let summary = handle.join().unwrap().unwrap();
        assert!(summary.drained);
        assert_eq!(summary.stats.completed, 2);
        assert_eq!(summary.connections, 1);
        assert!(summary.prometheus.contains("joinopt_serve_accepted_total"));
    }

    #[test]
    fn protocol_rejects_bad_requests_typed() {
        let (handle, addr) = start_default();
        let mut client = LineClient::connect(addr).unwrap();

        let bad_json = client.call("this is not json").unwrap();
        assert_eq!(bad_json.get("status").unwrap().as_str(), Some("error"));
        assert_eq!(
            bad_json.get("error_type").unwrap().as_str(),
            Some("invalid")
        );

        let bad_verb = client.call("{\"verb\":\"frobnicate\"}").unwrap();
        assert_eq!(
            bad_verb.get("error_type").unwrap().as_str(),
            Some("invalid")
        );

        let no_query = client.call("{\"verb\":\"optimize\"}").unwrap();
        assert_eq!(
            no_query.get("error_type").unwrap().as_str(),
            Some("invalid")
        );

        let bad_query = client
            .call("{\"verb\":\"optimize\",\"query\":\"rel rel rel nonsense\"}")
            .unwrap();
        assert_eq!(bad_query.get("status").unwrap().as_str(), Some("error"));
        assert_eq!(bad_query.get("error_type").unwrap().as_str(), Some("parse"));

        let mut oversized =
            String::from("{\"verb\":\"optimize\",\"deadline_ms\":999999999,\"query\":");
        write_escaped(&mut oversized, &chain4_text());
        oversized.push('}');
        let oversized = client.call(&oversized).unwrap();
        assert_eq!(
            oversized.get("error_type").unwrap().as_str(),
            Some("invalid")
        );
        assert!(oversized
            .get("message")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("oversized deadline"));

        // An already-expired deadline is a typed timeout, not a hang.
        let mut expired = String::from("{\"verb\":\"optimize\",\"deadline_ms\":0,\"query\":");
        write_escaped(&mut expired, &chain4_text());
        expired.push('}');
        let expired = client.call(&expired).unwrap();
        assert_eq!(expired.get("status").unwrap().as_str(), Some("error"));
        assert_eq!(expired.get("error_type").unwrap().as_str(), Some("timeout"));

        client.call("{\"verb\":\"shutdown\"}").unwrap();
        let summary = handle.join().unwrap().unwrap();
        assert!(summary.drained);
        assert_eq!(
            summary.stats.failed, 1,
            "only the expired deadline ran and failed"
        );
    }

    #[test]
    fn sql_queries_are_accepted_inline() {
        let (handle, addr) = start_default();
        let mut client = LineClient::connect(addr).unwrap();
        let sql = "SELECT * FROM a, b WHERE a.x = b.x";
        // The SQL frontend defaults unknown statistics; just assert the
        // request parses and optimizes.
        let mut req = String::from("{\"verb\":\"optimize\",\"query\":");
        write_escaped(&mut req, sql);
        req.push('}');
        let resp = client.call(&req).unwrap();
        assert_eq!(resp.get("status").unwrap().as_str(), Some("ok"), "{resp:?}");
        assert_eq!(resp.get("relations").unwrap().as_u64(), Some(2));
        client.call("{\"verb\":\"shutdown\"}").unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn unix_socket_round_trip() {
        let dir = std::env::temp_dir().join(format!("joinopt-serve-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sock = dir.join("serve.sock");
        let server = Server::bind(ServerConfig {
            listen: Listen::Unix(sock.clone()),
            ..ServerConfig::default()
        })
        .unwrap();
        let shutdown = server.shutdown_handle();
        let handle = std::thread::spawn(move || server.run());
        let stream = UnixStream::connect(&sock).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        writer.write_all(b"{\"verb\":\"health\"}\n").unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"ok\""));
        drop(writer);
        drop(reader);
        shutdown.shutdown();
        let summary = handle.join().unwrap().unwrap();
        assert!(summary.drained);
        assert!(!sock.exists(), "socket file cleaned up");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Sends `chunks` over one raw TCP connection, pausing longer than
    /// the server's read poll between them, and returns the first
    /// `responses` lines the server writes back.
    fn send_raw(addr: SocketAddr, chunks: &[&[u8]], responses: usize) -> Vec<JsonValue> {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        for (i, chunk) in chunks.iter().enumerate() {
            if i > 0 {
                std::thread::sleep(POLL * 5);
            }
            writer.write_all(chunk).unwrap();
            writer.flush().unwrap();
        }
        let mut reader = BufReader::new(stream);
        (0..responses)
            .map(|_| {
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                JsonValue::parse(line.trim()).unwrap()
            })
            .collect()
    }

    #[test]
    fn a_line_that_is_not_utf8_gets_a_typed_error_and_the_rest_are_answered() {
        let (handle, addr) = start_default();
        let lines: &[u8] = b"{\"verb\":\"health\",\"id\":\"a\"}\n\
                             {\"verb\":\"health\",\"id\":\"b\",\"x\":\"\xFF\"}\n\
                             {\"verb\":\"health\",\"id\":\"c\"}\n";
        let got = send_raw(addr, &[lines], 3);
        let field = |r: &JsonValue, k: &str| r.get(k).and_then(|v| v.as_str()).map(str::to_string);
        assert_eq!(field(&got[0], "status").as_deref(), Some("ok"));
        assert_eq!(field(&got[0], "id").as_deref(), Some("a"));
        assert_eq!(field(&got[1], "status").as_deref(), Some("error"));
        assert_eq!(field(&got[1], "error_type").as_deref(), Some("parse"));
        assert_eq!(field(&got[1], "id").as_deref(), Some("b"));
        assert_eq!(field(&got[2], "status").as_deref(), Some("ok"));
        assert_eq!(field(&got[2], "id").as_deref(), Some("c"));
        LineClient::connect(addr)
            .unwrap()
            .call("{\"verb\":\"shutdown\"}")
            .unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn a_character_split_across_reads_survives_the_poll_timeout() {
        let (handle, addr) = start_default();
        let mut req = String::from("{\"verb\":\"optimize\",\"id\":\"caf\u{e9}\",\"query\":");
        write_escaped(&mut req, &chain4_text());
        req.push_str("}\n");
        let bytes = req.as_bytes();
        // Split between the two bytes of `é` (0xC3 0xA9).
        let split = req.find('\u{e9}').unwrap() + 1;
        let got = send_raw(addr, &[&bytes[..split], &bytes[split..]], 1);
        assert_eq!(
            got[0].get("status").unwrap().as_str(),
            Some("ok"),
            "{:?}",
            got[0]
        );
        assert_eq!(got[0].get("id").unwrap().as_str(), Some("caf\u{e9}"));
        assert_eq!(got[0].get("relations").unwrap().as_u64(), Some(4));
        LineClient::connect(addr)
            .unwrap()
            .call("{\"verb\":\"shutdown\"}")
            .unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn parse_query_text_dispatches_and_validates() {
        assert!(parse_query_text(&chain4_text()).is_ok());
        assert!(parse_query_text("SELECT * FROM a, b WHERE a.x = b.x").is_ok());
        assert!(parse_query_text("gibberish").is_err());
        // Byte 6 falls inside the two-byte `é`: the SQL sniff must use
        // a boundary-safe prefix check, not panic on the slice.
        assert!(parse_query_text("aaaaaé = 1").is_err());
        assert!(parse_query_text("sélect * from a").is_err());
        assert_eq!(algorithm_name(Algorithm::DpCcp), "dpccp");
    }

    /// A socket-less harness: a manual-clock gateway + telemetry pair
    /// driven straight through [`dispatch`].
    fn dispatch_harness(tracing: bool) -> (Gateway, ServeTelemetry) {
        let config = ServerConfig::default();
        let service = OptimizerService::new(config.service.clone());
        let gateway = Gateway::with_clock(
            service,
            config.gateway.clone(),
            crate::clock::Clock::manual(),
        );
        let telemetry = ServeTelemetry::new(tracing, 7);
        (gateway, telemetry)
    }

    fn call_dispatch(gateway: &Gateway, telemetry: &ServeTelemetry, req: &str) -> JsonValue {
        let shutdown = AtomicBool::new(false);
        let mut session = None;
        let (response, _) = dispatch(
            gateway,
            telemetry,
            &shutdown,
            req,
            &mut session,
            &joinopt_telemetry::NoopObserver,
        );
        JsonValue::parse(&response).unwrap_or_else(|e| panic!("bad response {response:?}: {e:?}"))
    }

    fn optimize_req(extra: &str) -> String {
        let mut req = String::from("{\"verb\":\"optimize\",\"query\":");
        write_escaped(&mut req, &chain4_text());
        req.push_str(extra);
        req.push('}');
        req
    }

    #[test]
    fn every_error_path_echoes_id() {
        let (gateway, telemetry) = dispatch_harness(true);
        let expect_id = |resp: &JsonValue, who: &str| {
            assert_eq!(
                resp.get("id").and_then(|v| v.as_str()),
                Some("req-9"),
                "{who} lost the id: {resp:?}"
            );
        };

        // Unknown verb.
        let r = call_dispatch(
            &gateway,
            &telemetry,
            "{\"verb\":\"frobnicate\",\"id\":\"req-9\"}",
        );
        assert_eq!(
            r.get("error_type").and_then(|v| v.as_str()),
            Some("invalid")
        );
        expect_id(&r, "unknown verb");

        // Missing query.
        let r = call_dispatch(
            &gateway,
            &telemetry,
            "{\"verb\":\"optimize\",\"id\":\"req-9\"}",
        );
        assert_eq!(
            r.get("error_type").and_then(|v| v.as_str()),
            Some("invalid")
        );
        expect_id(&r, "missing query");

        // Oversized deadline.
        let r = call_dispatch(
            &gateway,
            &telemetry,
            &optimize_req(",\"id\":\"req-9\",\"deadline_ms\":999999999"),
        );
        assert_eq!(
            r.get("error_type").and_then(|v| v.as_str()),
            Some("invalid")
        );
        expect_id(&r, "oversized deadline");

        // Parse failure inside the query text.
        let r = call_dispatch(
            &gateway,
            &telemetry,
            "{\"verb\":\"optimize\",\"id\":\"req-9\",\"query\":\"gibberish\"}",
        );
        assert_eq!(r.get("error_type").and_then(|v| v.as_str()), Some("parse"));
        expect_id(&r, "parse failure");

        // Gateway rejection (draining).
        gateway.begin_drain();
        let r = call_dispatch(&gateway, &telemetry, &optimize_req(",\"id\":\"req-9\""));
        assert_eq!(r.get("status").and_then(|v| v.as_str()), Some("rejected"));
        assert_eq!(
            r.get("error_type").and_then(|v| v.as_str()),
            Some("draining")
        );
        expect_id(&r, "draining rejection");
        let trace_id = r.get("trace_id").and_then(|v| v.as_str());
        assert!(
            trace_id.is_some(),
            "rejections still carry a trace_id: {r:?}"
        );
        // The retained trace records the gateway's error kind.
        let fetched = call_dispatch(
            &gateway,
            &telemetry,
            &format!(
                "{{\"verb\":\"trace\",\"trace_id\":\"{}\"}}",
                trace_id.unwrap()
            ),
        );
        let trace = fetched.get("trace").expect("rejections are traced");
        assert_eq!(trace.get("error_type"), r.get("error_type"));
    }

    #[test]
    fn unparseable_lines_salvage_id_and_trace_id() {
        let (gateway, telemetry) = dispatch_harness(true);
        // Truncated JSON — unclosed object — still echoes both ids.
        let r = call_dispatch(
            &gateway,
            &telemetry,
            "{\"verb\":\"optimize\",\"id\":\"sal-1\",\"trace_id\":\"tr-1\",\"query\":\"unterminated",
        );
        assert_eq!(r.get("status").and_then(|v| v.as_str()), Some("error"));
        assert_eq!(
            r.get("error_type").and_then(|v| v.as_str()),
            Some("invalid")
        );
        assert_eq!(r.get("id").and_then(|v| v.as_str()), Some("sal-1"));
        assert_eq!(r.get("trace_id").and_then(|v| v.as_str()), Some("tr-1"));

        // Salvage decodes escapes with the real parser.
        assert_eq!(
            salvage_str_field("{\"id\": \"a\\\"b\\\\c\", oops", "id").as_deref(),
            Some("a\"b\\c")
        );
        // Absent, non-string, or unterminated fields salvage nothing.
        assert_eq!(salvage_str_field("{\"other\":\"x\"}", "id"), None);
        assert_eq!(salvage_str_field("{\"id\": 42}", "id"), None);
        assert_eq!(salvage_str_field("{\"id\": \"never-closed", "id"), None);
    }

    #[test]
    fn trace_ids_are_minted_fetched_and_windowed() {
        let (gateway, telemetry) = dispatch_harness(true);
        let cold = call_dispatch(&gateway, &telemetry, &optimize_req(",\"id\":\"c1\""));
        assert_eq!(cold.get("status").and_then(|v| v.as_str()), Some("ok"));
        let minted = cold
            .get("trace_id")
            .and_then(|v| v.as_str())
            .expect("server mints a trace_id")
            .to_string();

        // The trace verb returns the full span timeline for that id.
        let fetched = call_dispatch(
            &gateway,
            &telemetry,
            &format!("{{\"verb\":\"trace\",\"trace_id\":\"{minted}\"}}"),
        );
        assert_eq!(fetched.get("status").and_then(|v| v.as_str()), Some("ok"));
        let trace = fetched.get("trace").expect("trace body");
        assert_eq!(
            trace.get("trace_id").and_then(|v| v.as_str()),
            Some(minted.as_str())
        );
        let spans = trace
            .get("spans")
            .and_then(|s| s.as_array().map(<[JsonValue]>::to_vec))
            .expect("spans array");
        let stages: Vec<_> = spans
            .iter()
            .filter_map(|s| s.get("stage").and_then(|v| v.as_str()))
            .collect();
        for stage in [
            "accept",
            "shed-check",
            "breaker",
            "cache-lookup",
            "optimize",
            "respond",
        ] {
            assert!(stages.contains(&stage), "missing stage {stage}: {stages:?}");
        }

        // A warm repeat records cache-lookup but no optimize span.
        let warm = call_dispatch(
            &gateway,
            &telemetry,
            &optimize_req(",\"trace_id\":\"warm-1\""),
        );
        assert_eq!(warm.get("cache_hit").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(
            warm.get("trace_id").and_then(|v| v.as_str()),
            Some("warm-1")
        );
        let warm_trace = call_dispatch(
            &gateway,
            &telemetry,
            "{\"verb\":\"trace\",\"trace_id\":\"warm-1\"}",
        );
        let body = warm_trace.get("trace").expect("trace body");
        assert_eq!(body.get("cache_hit").and_then(|v| v.as_bool()), Some(true));
        let warm_stages: Vec<_> = body
            .get("spans")
            .and_then(|s| s.as_array().map(<[JsonValue]>::to_vec))
            .unwrap()
            .iter()
            .filter_map(|s| s.get("stage").and_then(|v| v.as_str()).map(str::to_string))
            .collect();
        assert!(warm_stages.iter().any(|s| s == "cache-lookup"));
        assert!(!warm_stages.iter().any(|s| s == "optimize"));

        // Unknown ids are typed not-found.
        let missing = call_dispatch(
            &gateway,
            &telemetry,
            "{\"verb\":\"trace\",\"trace_id\":\"nope\",\"id\":\"t9\"}",
        );
        assert_eq!(
            missing.get("error_type").and_then(|v| v.as_str()),
            Some("not-found")
        );
        assert_eq!(missing.get("id").and_then(|v| v.as_str()), Some("t9"));

        // The windowed metrics carry per-stage series for the traffic.
        let metrics = call_dispatch(&gateway, &telemetry, "{\"verb\":\"metrics\"}");
        assert_eq!(metrics.get("tracing").and_then(|v| v.as_bool()), Some(true));
        let stages = metrics
            .get("window")
            .and_then(|w| w.get("stages"))
            .and_then(|s| s.as_array().map(<[JsonValue]>::to_vec))
            .expect("windowed stages");
        assert!(!stages.is_empty());
        let prom = call_dispatch(
            &gateway,
            &telemetry,
            "{\"verb\":\"metrics\",\"format\":\"prometheus\"}",
        );
        assert!(prom
            .get("prometheus")
            .and_then(|v| v.as_str())
            .unwrap()
            .contains("joinopt_serve_stage_window_count"));

        // And the slow list knows about the requests.
        let slow = call_dispatch(&gateway, &telemetry, "{\"verb\":\"slow\"}");
        assert_eq!(slow.get("count").and_then(|v| v.as_u64()), Some(2));
    }

    #[test]
    fn disabled_tracing_mints_nothing_but_echoes_client_ids() {
        let (gateway, telemetry) = dispatch_harness(false);
        let r = call_dispatch(&gateway, &telemetry, &optimize_req(""));
        assert_eq!(r.get("status").and_then(|v| v.as_str()), Some("ok"));
        assert!(
            r.get("trace_id").is_none(),
            "disabled tracing must not mint ids: {r:?}"
        );
        // A client-supplied trace_id is still echoed (pure string work).
        let r = call_dispatch(
            &gateway,
            &telemetry,
            &optimize_req(",\"trace_id\":\"cli-1\""),
        );
        assert_eq!(r.get("trace_id").and_then(|v| v.as_str()), Some("cli-1"));
        // But nothing is recorded behind it.
        let fetched = call_dispatch(
            &gateway,
            &telemetry,
            "{\"verb\":\"trace\",\"trace_id\":\"cli-1\"}",
        );
        assert_eq!(
            fetched.get("error_type").and_then(|v| v.as_str()),
            Some("not-found")
        );
        let metrics = call_dispatch(&gateway, &telemetry, "{\"verb\":\"metrics\"}");
        assert_eq!(
            metrics.get("tracing").and_then(|v| v.as_bool()),
            Some(false)
        );
        let stages = metrics
            .get("window")
            .and_then(|w| w.get("stages"))
            .and_then(|s| s.as_array().map(<[JsonValue]>::len));
        assert_eq!(stages, Some(0));
    }

    #[test]
    fn responses_round_trip_hostile_ids() {
        let (gateway, telemetry) = dispatch_harness(true);
        let hostile = "he said \"quote\"\\\n\ttab\u{1}";
        let mut req = String::from("{\"verb\":\"optimize\",\"id\":");
        write_escaped(&mut req, hostile);
        req.push_str(",\"trace_id\":");
        write_escaped(&mut req, hostile);
        req.push_str(",\"query\":");
        write_escaped(&mut req, &chain4_text());
        req.push('}');
        // call_dispatch parse-proves the response is valid JSON even
        // with the hostile id spliced in; the fields round-trip exactly.
        let r = call_dispatch(&gateway, &telemetry, &req);
        assert_eq!(r.get("id").and_then(|v| v.as_str()), Some(hostile));
        assert_eq!(r.get("trace_id").and_then(|v| v.as_str()), Some(hostile));
    }

    #[test]
    fn span_timeline_demo_is_byte_deterministic() {
        let a = span_timeline_demo();
        let b = span_timeline_demo();
        assert_eq!(a, b, "span timeline must be run-to-run identical");
        let doc = JsonValue::parse(&a).expect("timeline is one JSON document");
        assert_eq!(
            doc.get("schema").and_then(|v| v.as_str()),
            Some("joinopt-span-timeline-v1")
        );
        let traces = doc
            .get("traces")
            .and_then(|t| t.as_array().map(<[JsonValue]>::to_vec))
            .expect("traces array");
        assert!(traces.len() >= 2, "cold + warm at minimum");
        assert!(doc.get("window").and_then(|w| w.get("stages")).is_some());
    }
}
