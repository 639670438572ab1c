//! The sustained-load harness behind `joinopt load`.
//!
//! Replays a mixed chain/star/clique workload through one
//! [`OptimizerService`]: a seeded request stream where each request is,
//! with probability `repeat_rate`, an exact repeat of an earlier query
//! (the warm path the plan cache exists for) and otherwise a fresh
//! query. The run reports throughput (requests/sec), latency quantiles
//! (p50/p99 from the workspace's log-linear
//! [`Histogram`](joinopt_telemetry::Histogram)) and the cache hit rate,
//! and serializes to the same JSON conventions as the perf baseline
//! (schema `joinopt-load-v3`, `cost_bits`-style exactness is not needed
//! here — latency is noise, hit counts are deterministic at one worker).
//!
//! The CI smoke gate runs a small single-worker stream and fails when
//! the hit rate drops below a floor (`joinopt load --min-hit-rate`): a
//! cold cache, a broken fingerprint or a lookup that stopped matching
//! all surface as a hit rate of zero.
//!
//! `joinopt load --chaos` replays the same seeded mix through the
//! server's [`Gateway`] with a fault burst injected mid-run (the
//! `serve-worker-panic` failpoint, so it needs a `--cfg failpoints`
//! build): a warmup third must run error-free, the burst third panics
//! every attempt until the breaker opens, and the recovery third —
//! after the faults clear and the breaker recloses — must return to a
//! healthy hit rate and p99. A seeded sample of answered requests is
//! differentially re-checked against a fresh sequential cold run:
//! chaos may slow requests down or fail them, but it must never change
//! a plan.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use joinopt_cost::workload::family_workload;
use joinopt_qgraph::GraphKind;
use joinopt_relset::XorShift64;
use joinopt_service::{
    BreakerConfig, BreakerState, CacheConfig, Gateway, GatewayConfig, GatewayStats,
    OptimizerService, Priority, QuerySpec, ServiceConfig, ServiceRequest, ShedConfig,
};
use joinopt_telemetry::json::{write_escaped, write_f64, JsonValue};
use joinopt_telemetry::{Fanout, Histogram, NoopObserver, Observer, RequestTrace, TraceSink};

/// The families the load mix draws from (the paper's structural
/// extremes, same as the perf matrix).
pub const LOAD_FAMILIES: [GraphKind; 3] = [GraphKind::Chain, GraphKind::Star, GraphKind::Clique];

/// Report schema identifier.
pub const SCHEMA: &str = "joinopt-load-v3";

/// Configuration of one load run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadConfig {
    /// Requests in the stream.
    pub requests: usize,
    /// Service worker threads (1 keeps hit accounting deterministic:
    /// every repeat of an already-answered query hits).
    pub threads: usize,
    /// Stream seed; the whole request mix is a pure function of it.
    pub seed: u64,
    /// Probability in `[0, 1]` that a request repeats an earlier query.
    pub repeat_rate: f64,
    /// Largest relation count in the mix (inclusive; fresh queries
    /// cycle n through `4..=max_n`).
    pub max_n: usize,
    /// Plan-cache byte budget.
    pub cache_bytes: usize,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            requests: 200,
            threads: 1,
            seed: 2006,
            repeat_rate: 0.5,
            max_n: 9,
            cache_bytes: 8 << 20,
        }
    }
}

/// Per-type error counts of a run: the same reporting labels the serve
/// protocol uses for `error_type`, rolled up per request stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ErrorBreakdown {
    /// Deadline/time-budget blowouts.
    pub timeout: usize,
    /// Memory-budget blowouts.
    pub memory: usize,
    /// Shed at a load watermark (or refused while draining).
    pub shed: usize,
    /// Worker panics (isolated by `catch_unwind`).
    pub panic: usize,
    /// Rejected by an open circuit breaker.
    pub breaker_open: usize,
    /// Everything else (parse, admission, internal).
    pub other: usize,
}

impl ErrorBreakdown {
    /// Books one error under its reporting label (a
    /// [`Rejection::kind`](joinopt_service::Rejection::kind) or
    /// [`error_kind`](joinopt_service::gateway::error_kind) string).
    pub fn record(&mut self, kind: &str) {
        match kind {
            "timeout" => self.timeout += 1,
            "memory" => self.memory += 1,
            "shed" | "draining" => self.shed += 1,
            "panic" => self.panic += 1,
            "breaker-open" => self.breaker_open += 1,
            _ => self.other += 1,
        }
    }

    /// Total errors across all types.
    pub fn total(&self) -> usize {
        self.timeout + self.memory + self.shed + self.panic + self.breaker_open + self.other
    }

    /// Errors that mean work was admitted and *died* — excludes the
    /// gateway's typed refusals (shed, breaker-open), which a client
    /// simply retries elsewhere.
    pub fn hard(&self) -> usize {
        self.timeout + self.memory + self.panic + self.other
    }

    fn to_json_object(self) -> String {
        format!(
            "{{\"timeout\": {}, \"memory\": {}, \"shed\": {}, \"panic\": {}, \
             \"breaker_open\": {}, \"other\": {}}}",
            self.timeout, self.memory, self.shed, self.panic, self.breaker_open, self.other
        )
    }

    fn from_json(v: Option<&JsonValue>) -> ErrorBreakdown {
        let field = |k: &str| {
            v.and_then(|o| o.get(k))
                .and_then(|f| f.as_u64())
                .and_then(|n| usize::try_from(n).ok())
                .unwrap_or(0)
        };
        ErrorBreakdown {
            timeout: field("timeout"),
            memory: field("memory"),
            shed: field("shed"),
            panic: field("panic"),
            breaker_open: field("breaker_open"),
            other: field("other"),
        }
    }
}

/// Latency quantiles of one request-lifecycle stage across a run —
/// the load report's slice of the serve path's stage spans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageLatency {
    /// Stage name (`shed-check`, `breaker`, `cache-lookup`, `optimize`,
    /// `retry-backoff`).
    pub stage: String,
    /// Samples recorded for the stage.
    pub count: u64,
    /// Median stage latency, nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile stage latency, nanoseconds.
    pub p99_ns: u64,
}

/// Results of one load run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// The configuration that produced the run.
    pub config: LoadConfig,
    /// Requests answered successfully.
    pub completed: usize,
    /// Requests that came back as errors (0 in a healthy run).
    pub errors: usize,
    /// The same errors broken down by reporting label.
    pub errors_by_type: ErrorBreakdown,
    /// Requests answered from the plan cache.
    pub hits: usize,
    /// Cache hit rate over completed requests (0 when none completed).
    pub hit_rate: f64,
    /// Total wall time of the batch, nanoseconds.
    pub wall_ns: u64,
    /// Throughput over the whole stream, requests per second.
    pub rps: f64,
    /// Median per-request latency, nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile per-request latency, nanoseconds.
    pub p99_ns: u64,
    /// Per-stage latency breakdown of the gateway lifecycle, sorted by
    /// stage name.
    pub stages: Vec<StageLatency>,
}

/// Builds the seeded request mix for `config`: fresh queries cycle
/// through family × size, repeats re-issue a uniformly chosen earlier
/// spec. Exposed so the CLI can print the mix and tests can pin it.
pub fn build_stream(config: &LoadConfig) -> Vec<ServiceRequest> {
    let mut rng = XorShift64::seed_from_u64(config.seed ^ 0x4c6f_6164_4d69_7821); // "LoadMix!"
    let sizes = 4..=config.max_n.max(4);
    let mut fresh = 0u64;
    let mut specs: Vec<QuerySpec> = Vec::new();
    let mut stream = Vec::with_capacity(config.requests);
    for _ in 0..config.requests {
        let repeat = !specs.is_empty() && rng.next_f64() < config.repeat_rate;
        let spec = if repeat {
            specs[rng.gen_range(0..specs.len())].clone()
        } else {
            let kind = LOAD_FAMILIES[fresh as usize % LOAD_FAMILIES.len()];
            let n = sizes.clone().nth(fresh as usize % sizes.clone().count());
            let w = family_workload(kind, n.unwrap_or(4), config.seed.wrapping_add(fresh));
            fresh += 1;
            let spec =
                QuerySpec::capture(&w.graph, &w.catalog).expect("family workloads capture cleanly");
            specs.push(spec.clone());
            spec
        };
        stream.push(ServiceRequest::new(spec).with_tenant("load"));
    }
    stream
}

/// Runs the configured load stream and returns the report. Every
/// optimizer run and cache event of the stream reports to `obs` (e.g. a
/// [`RegistryObserver`](joinopt_telemetry::RegistryObserver), so the
/// `joinopt_cache_*` series cover the whole run).
///
/// The stream runs through the server's [`Gateway`] (one driver thread
/// per `config.threads`, watermarks opened wide enough that nothing
/// sheds), each request recording a [`RequestTrace`] through a
/// [`TraceSink`] paired with `obs` — so the report carries the same
/// per-stage latency breakdown the serve path's `metrics` verb exposes.
/// At one driver, requests execute in arrival order and every repeat is
/// a guaranteed cache hit.
pub fn run_load(config: &LoadConfig, obs: &(dyn Observer + Sync)) -> LoadReport {
    let stream = build_stream(config);
    // Watermarks above the driver count: the load harness measures the
    // optimizer, so the gateway must never shed its own stream.
    let drivers = config.threads.max(1);
    let gateway = Gateway::new(
        stream_service(config, stream.len()),
        GatewayConfig {
            shed: ShedConfig {
                low_watermark: drivers + stream.len(),
                high_watermark: drivers + stream.len(),
                max_in_flight: drivers + stream.len(),
                ..ShedConfig::default()
            },
            seed: config.seed,
            ..GatewayConfig::default()
        },
    );

    let start = Instant::now();
    let (phase, _, stages) = run_phase(&gateway, &stream, 0, drivers, obs);
    let wall_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    LoadReport {
        config: config.clone(),
        completed: phase.completed,
        errors: phase.errors.total(),
        errors_by_type: phase.errors,
        hits: phase.hits,
        hit_rate: phase.hit_rate,
        wall_ns,
        rps: if wall_ns == 0 {
            0.0
        } else {
            phase.completed as f64 / (wall_ns as f64 / 1e9)
        },
        p50_ns: phase.p50_ns,
        p99_ns: phase.p99_ns,
        stages,
    }
}

impl LoadReport {
    /// Serializes the report in the perf-baseline JSON conventions.
    pub fn to_json(&self) -> String {
        let c = &self.config;
        let mut s = String::from("{\n  \"schema\": ");
        write_escaped(&mut s, SCHEMA);
        s.push_str(&format!(
            ",\n  \"config\": {{\"requests\": {}, \"threads\": {}, \"seed\": {}, \
             \"max_n\": {}, \"cache_bytes\": {}, \"repeat_rate\": ",
            c.requests, c.threads, c.seed, c.max_n, c.cache_bytes
        ));
        write_f64(&mut s, c.repeat_rate);
        s.push_str(&format!(
            "}},\n  \"completed\": {}, \"errors\": {}, \"hits\": {}, \"hit_rate\": ",
            self.completed, self.errors, self.hits
        ));
        write_f64(&mut s, self.hit_rate);
        s.push_str(&format!(
            ",\n  \"errors_by_type\": {},\n  \"wall_ns\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \"rps\": ",
            self.errors_by_type.to_json_object(),
            self.wall_ns,
            self.p50_ns,
            self.p99_ns
        ));
        write_f64(&mut s, self.rps);
        s.push_str(",\n  \"stages\": [");
        for (i, st) in self.stages.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str("{\"stage\": ");
            write_escaped(&mut s, &st.stage);
            s.push_str(&format!(
                ", \"count\": {}, \"p50_ns\": {}, \"p99_ns\": {}}}",
                st.count, st.p50_ns, st.p99_ns
            ));
        }
        s.push_str("]\n}\n");
        s
    }

    /// A rendered summary for human consumption: the headline table
    /// plus the per-type error breakdown.
    pub fn render(&self) -> String {
        let mut t = crate::Table::new(vec![
            "requests",
            "threads",
            "completed",
            "errors",
            "hits",
            "hit_rate",
            "rps",
            "p50",
            "p99",
        ]);
        t.row(vec![
            self.config.requests.to_string(),
            self.config.threads.to_string(),
            self.completed.to_string(),
            self.errors.to_string(),
            self.hits.to_string(),
            format!("{:.3}", self.hit_rate),
            format!("{:.0}", self.rps),
            crate::format_seconds(self.p50_ns as f64 / 1e9),
            crate::format_seconds(self.p99_ns as f64 / 1e9),
        ]);
        let mut out = t.render();
        out.push_str(&render_breakdown(&self.errors_by_type));
        if !self.stages.is_empty() {
            let mut st = crate::Table::new(vec!["stage", "count", "p50", "p99"]);
            for s in &self.stages {
                st.row(vec![
                    s.stage.clone(),
                    s.count.to_string(),
                    crate::format_seconds(s.p50_ns as f64 / 1e9),
                    crate::format_seconds(s.p99_ns as f64 / 1e9),
                ]);
            }
            out.push_str(&st.render());
        }
        out
    }

    /// Reads a report back from its [`LoadReport::to_json`] form; any
    /// schema other than [`SCHEMA`] is rejected.
    pub fn parse(text: &str) -> Result<LoadReport, String> {
        let v = JsonValue::parse(text).map_err(|e| format!("bad load report JSON: {e:?}"))?;
        let schema = v
            .get("schema")
            .and_then(|s| s.as_str())
            .ok_or("load report missing schema")?;
        if schema != SCHEMA {
            return Err(format!(
                "unknown load report schema {schema:?} (expected {SCHEMA:?})"
            ));
        }
        let uint = |obj: Option<&JsonValue>, k: &str| -> Result<u64, String> {
            obj.and_then(|o| o.get(k))
                .and_then(|f| f.as_u64())
                .ok_or_else(|| format!("load report missing {k:?}"))
        };
        let float = |obj: Option<&JsonValue>, k: &str| -> Result<f64, String> {
            obj.and_then(|o| o.get(k))
                .and_then(|f| f.as_f64())
                .ok_or_else(|| format!("load report missing {k:?}"))
        };
        let cfg = v.get("config");
        let config = LoadConfig {
            requests: uint(cfg, "requests")? as usize,
            threads: uint(cfg, "threads")? as usize,
            seed: uint(cfg, "seed")?,
            repeat_rate: float(cfg, "repeat_rate")?,
            max_n: uint(cfg, "max_n")? as usize,
            cache_bytes: uint(cfg, "cache_bytes")? as usize,
        };
        let stages = v
            .get("stages")
            .and_then(JsonValue::as_array)
            .map(|entries| {
                entries
                    .iter()
                    .filter_map(|e| {
                        Some(StageLatency {
                            stage: e.get("stage")?.as_str()?.to_string(),
                            count: e.get("count")?.as_u64()?,
                            p50_ns: e.get("p50_ns")?.as_u64()?,
                            p99_ns: e.get("p99_ns")?.as_u64()?,
                        })
                    })
                    .collect()
            })
            .ok_or("load report missing \"stages\"")?;
        let top = Some(&v);
        Ok(LoadReport {
            config,
            completed: uint(top, "completed")? as usize,
            errors: uint(top, "errors")? as usize,
            errors_by_type: ErrorBreakdown::from_json(v.get("errors_by_type")),
            hits: uint(top, "hits")? as usize,
            hit_rate: float(top, "hit_rate")?,
            wall_ns: uint(top, "wall_ns")?,
            rps: float(top, "rps")?,
            p50_ns: uint(top, "p50_ns")?,
            p99_ns: uint(top, "p99_ns")?,
            stages,
        })
    }
}

/// Renders the per-type error table shared by the plain and chaos
/// reports.
fn render_breakdown(b: &ErrorBreakdown) -> String {
    let mut t = crate::Table::new(vec![
        "errors",
        "timeout",
        "memory",
        "shed",
        "panic",
        "breaker-open",
        "other",
    ]);
    t.row(vec![
        b.total().to_string(),
        b.timeout.to_string(),
        b.memory.to_string(),
        b.shed.to_string(),
        b.panic.to_string(),
        b.breaker_open.to_string(),
        b.other.to_string(),
    ]);
    t.render()
}

// ---------------------------------------------------------------------------
// Chaos mode
// ---------------------------------------------------------------------------

/// Configuration of a `load --chaos` run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// The underlying stream mix (requests, seed, repeat rate, sizes).
    pub load: LoadConfig,
    /// Concurrent client driver threads.
    pub drivers: usize,
    /// `serve-worker-panic` triggers armed at the start of the burst
    /// third (each failing request consumes one per attempt).
    pub burst_faults: usize,
    /// Answered requests to differentially re-check against a fresh
    /// sequential cold run.
    pub recheck_samples: usize,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            load: LoadConfig::default(),
            drivers: 4,
            burst_faults: 30,
            recheck_samples: 16,
        }
    }
}

/// Outcome counters of one chaos phase (warmup / burst / recovery).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseStats {
    /// Requests issued in the phase.
    pub requests: usize,
    /// Requests answered with a plan.
    pub completed: usize,
    /// Completed requests served from the plan cache.
    pub hits: usize,
    /// Hit rate over completed requests.
    pub hit_rate: f64,
    /// Per-type error counts (typed refusals included).
    pub errors: ErrorBreakdown,
    /// Median latency of completed requests, nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile latency of completed requests, nanoseconds.
    pub p99_ns: u64,
}

/// Results of one chaos run; [`ChaosReport::verify`] applies the gates.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    /// The configuration that produced the run.
    pub config: ChaosConfig,
    /// The fault-free first third.
    pub warmup: PhaseStats,
    /// The middle third, run with the panic burst armed.
    pub burst: PhaseStats,
    /// The final third, after faults cleared and the breaker reclosed.
    pub recovery: PhaseStats,
    /// Breaker open transitions observed by the gateway.
    pub breaker_opens: u64,
    /// Whether the tenant's breaker was closed again before recovery.
    pub breaker_reclosed: bool,
    /// Sampled answers that diverged from the sequential cold re-run
    /// (must be 0: chaos may fail requests, never change plans).
    pub wrong_plans: usize,
    /// Sampled answers re-checked.
    pub rechecked: usize,
    /// Whether the final drain completed with nothing in flight.
    pub drained: bool,
    /// Final gateway counters.
    pub gateway: GatewayStats,
}

fn arm_panic_burst(times: usize) {
    #[cfg(failpoints)]
    joinopt_core::failpoint::configure_times(
        "serve-worker-panic",
        joinopt_core::failpoint::FailAction::Panic,
        times,
    );
    #[cfg(not(failpoints))]
    let _ = times;
}

fn clear_faults() {
    #[cfg(failpoints)]
    joinopt_core::failpoint::clear("serve-worker-panic");
}

/// Runs the chaos scenario. Requires a `--cfg failpoints` build (the
/// burst has nothing to inject otherwise, so the run refuses to
/// pretend).
pub fn run_chaos(config: &ChaosConfig, obs: &(dyn Observer + Sync)) -> Result<ChaosReport, String> {
    if !cfg!(failpoints) {
        return Err(
            "chaos mode needs fault injection: rebuild with RUSTFLAGS=\"--cfg failpoints\""
                .to_string(),
        );
    }
    // Mixed priorities over the seeded stream: ~10% low (sheds first
    // under the tightened watermark below), ~10% high.
    let mut stream = build_stream(&config.load);
    let mut rng = XorShift64::seed_from_u64(config.load.seed ^ 0x4368_616f_7321); // "Chaos!"
    for req in &mut stream {
        let r = rng.next_f64();
        let priority = if r < 0.1 {
            Priority::Low
        } else if r > 0.9 {
            Priority::High
        } else {
            Priority::Normal
        };
        *req = req.clone().with_priority(priority);
    }

    let gateway = Gateway::new(
        stream_service(&config.load, stream.len()),
        GatewayConfig {
            shed: ShedConfig {
                low_watermark: 3,
                ..ShedConfig::default()
            },
            breaker: BreakerConfig {
                failure_threshold: 3,
                cooldown: Duration::from_millis(100),
                success_threshold: 1,
            },
            seed: config.load.seed,
            ..GatewayConfig::default()
        },
    );

    let third = stream.len() / 3;
    let (warm_reqs, rest) = stream.split_at(third);
    let (burst_reqs, recovery_reqs) = rest.split_at(third);

    let warmup = run_phase(&gateway, warm_reqs, 0, config.drivers, obs);
    arm_panic_burst(config.burst_faults);
    let burst = run_phase(&gateway, burst_reqs, third, config.drivers, obs);
    clear_faults();

    // Let the tenant's breaker reclose before judging recovery: probe
    // with the (cached) first query until the half-open probe succeeds.
    let mut breaker_reclosed = gateway.breaker_state("load") == BreakerState::Closed;
    if !breaker_reclosed {
        let probe = stream[0].clone();
        let mut session = None;
        for _ in 0..200 {
            std::thread::sleep(Duration::from_millis(10));
            let _ = gateway.handle(&probe, None, &mut session, obs);
            if gateway.breaker_state("load") == BreakerState::Closed {
                breaker_reclosed = true;
                break;
            }
        }
    }

    let recovery = run_phase(&gateway, recovery_reqs, 2 * third, config.drivers, obs);

    let (rechecked, wrong_plans) = recheck(
        &stream,
        &[&warmup.1[..], &burst.1[..], &recovery.1[..]].concat(),
        config.recheck_samples,
        config.load.seed,
    );

    gateway.begin_drain();
    let drained = gateway.await_drained(Duration::from_secs(10), obs).is_ok();
    let stats = gateway.stats();
    Ok(ChaosReport {
        config: config.clone(),
        warmup: warmup.0,
        burst: burst.0,
        recovery: recovery.0,
        breaker_opens: stats.breaker_opens,
        breaker_reclosed,
        wrong_plans,
        rechecked,
        drained,
        gateway: stats,
    })
}

/// The single-worker, cache-backed service a load or chaos stream of
/// `requests` runs against.
fn stream_service(config: &LoadConfig, requests: usize) -> OptimizerService {
    OptimizerService::new(ServiceConfig {
        worker_threads: 1,
        queue_capacity: requests.max(1),
        tenant_limit: requests.max(1),
        cache: Some(CacheConfig {
            byte_budget: config.cache_bytes,
            ..CacheConfig::default()
        }),
    })
}

/// Drives a slice of the stream through the gateway with `drivers`
/// concurrent client threads, each request recording its stage spans
/// through a [`TraceSink`] paired with `obs`. Returns the counters, the
/// `(stream_index, cost_bits)` of every answered request (the chaos
/// re-check pool) and the per-stage latencies, sorted by stage name.
fn run_phase(
    gateway: &Gateway,
    reqs: &[ServiceRequest],
    base_index: usize,
    drivers: usize,
    obs: &(dyn Observer + Sync),
) -> (PhaseStats, Vec<(usize, u64)>, Vec<StageLatency>) {
    type Stages = BTreeMap<&'static str, Histogram>;
    // (request index, outcome): cost bits + cache-hit flag + latency ns
    // on success, the typed error kind on failure.
    type DriverOutcome = (usize, Result<(u64, bool, u64), &'static str>);
    let next = AtomicUsize::new(0);
    let shared: Mutex<(Vec<DriverOutcome>, Stages)> = Mutex::default();
    std::thread::scope(|scope| {
        for _ in 0..drivers.max(1) {
            scope.spawn(|| {
                let mut session = None;
                let (mut outcomes, mut stages) = (Vec::new(), Stages::new());
                loop {
                    let k = next.fetch_add(1, Ordering::SeqCst);
                    let Some(req) = reqs.get(k) else { break };
                    // Only the stage spans are kept, so the trace needs
                    // no id or start time.
                    let sink = TraceSink::new(RequestTrace::new(String::new(), "", "optimize", 0));
                    let sinks: [&dyn Observer; 2] = [obs, &sink];
                    let r = gateway.handle(req, None, &mut session, &Fanout::new(&sinks));
                    for span in sink.into_trace().spans() {
                        stages
                            .entry(span.stage)
                            .or_default()
                            .record(span.duration_ns());
                    }
                    let r = r.map_err(|e| e.kind()).map(|o| {
                        let ns = u64::try_from(o.elapsed.as_nanos()).unwrap_or(u64::MAX);
                        (o.result.cost.to_bits(), o.cache_hit, ns)
                    });
                    outcomes.push((base_index + k, r));
                }
                let mut guard = shared
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                guard.0.extend(outcomes);
                for (stage, hist) in stages {
                    guard.1.entry(stage).or_default().merge(&hist);
                }
            });
        }
    });
    let (outcomes, stages) = shared
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);

    let mut stats = PhaseStats {
        requests: reqs.len(),
        ..PhaseStats::default()
    };
    let mut latencies = Histogram::default();
    let mut answered = Vec::new();
    for (idx, r) in outcomes {
        match r {
            Ok((cost_bits, hit, elapsed_ns)) => {
                stats.completed += 1;
                stats.hits += usize::from(hit);
                latencies.record(elapsed_ns);
                answered.push((idx, cost_bits));
            }
            Err(kind) => stats.errors.record(kind),
        }
    }
    stats.hit_rate = if stats.completed == 0 {
        0.0
    } else {
        stats.hits as f64 / stats.completed as f64
    };
    stats.p50_ns = latencies.quantile(0.5);
    stats.p99_ns = latencies.quantile(0.99);
    let stages = stages
        .into_iter()
        .map(|(stage, hist)| StageLatency {
            stage: stage.to_string(),
            count: hist.count(),
            p50_ns: hist.quantile(0.5),
            p99_ns: hist.quantile(0.99),
        })
        .collect();
    (stats, answered, stages)
}

/// Differential exactness check: re-runs a seeded sample of answered
/// requests on a fresh, cache-less, sequential service and compares
/// cost bits. Returns `(rechecked, wrong)`.
fn recheck(
    stream: &[ServiceRequest],
    answered: &[(usize, u64)],
    samples: usize,
    seed: u64,
) -> (usize, usize) {
    if answered.is_empty() {
        return (0, 0);
    }
    let fresh = OptimizerService::new(ServiceConfig {
        worker_threads: 1,
        queue_capacity: 1,
        tenant_limit: samples.max(1),
        cache: None,
    });
    let mut rng = XorShift64::seed_from_u64(seed ^ 0x5265_6368_6563_6b21); // "Recheck!"
    let mut session = None;
    let mut wrong = 0usize;
    let count = samples.min(answered.len());
    for _ in 0..count {
        let (idx, bits) = answered[rng.gen_range(0..answered.len())];
        let req = ServiceRequest::new(stream[idx].spec.clone());
        match fresh.submit_one(&req, &mut session, &NoopObserver) {
            Ok(o) if o.result.cost.to_bits() == bits => {}
            // A diverging cost — or a cold run that cannot even
            // complete — is a wrong plan for the gate's purposes.
            _ => wrong += 1,
        }
    }
    (count, wrong)
}

impl ChaosReport {
    /// The chaos gates: bounded errors, zero wrong plans, breaker
    /// opened and reclosed, post-burst hit-rate and p99 recovery, clean
    /// drain. Returns every violation, not just the first.
    pub fn verify(&self) -> Result<(), String> {
        let mut problems = Vec::new();
        if self.warmup.errors.hard() > 0 {
            problems.push(format!(
                "warmup must be error-free, saw {} hard errors",
                self.warmup.errors.hard()
            ));
        }
        if self.burst.errors.total() > self.burst.requests {
            problems.push(format!(
                "burst errors ({}) exceed burst requests ({})",
                self.burst.errors.total(),
                self.burst.requests
            ));
        }
        if self.breaker_opens == 0 {
            problems.push("fault burst never opened the breaker".to_string());
        }
        if !self.breaker_reclosed {
            problems.push("breaker did not reclose after the faults cleared".to_string());
        }
        if self.recovery.errors.hard() > 0 {
            problems.push(format!(
                "recovery must be error-free, saw {} hard errors",
                self.recovery.errors.hard()
            ));
        }
        if self.recovery.hit_rate < 0.2 {
            problems.push(format!(
                "recovery hit rate {:.3} below the 0.2 floor",
                self.recovery.hit_rate
            ));
        }
        let p99_ceiling = (8 * self.warmup.p99_ns).max(20_000_000);
        if self.recovery.p99_ns > p99_ceiling {
            problems.push(format!(
                "recovery p99 {}ns above ceiling {}ns",
                self.recovery.p99_ns, p99_ceiling
            ));
        }
        if self.rechecked == 0 {
            problems.push("differential re-check sampled nothing".to_string());
        }
        if self.wrong_plans > 0 {
            problems.push(format!(
                "{} of {} re-checked answers diverged from the sequential cold run",
                self.wrong_plans, self.rechecked
            ));
        }
        if !self.drained {
            problems.push("drain did not complete".to_string());
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems.join("; "))
        }
    }

    /// Serializes the chaos report (rides the [`SCHEMA`] tag with
    /// `"mode": "chaos"` and a `"chaos"` section).
    pub fn to_json(&self) -> String {
        let phase = |p: &PhaseStats| {
            let mut s = format!(
                "{{\"requests\": {}, \"completed\": {}, \"hits\": {}, \"p99_ns\": {}, \
                 \"errors\": {}, \"hit_rate\": ",
                p.requests,
                p.completed,
                p.hits,
                p.p99_ns,
                p.errors.to_json_object()
            );
            write_f64(&mut s, p.hit_rate);
            s.push('}');
            s
        };
        let mut s = String::from("{\n  \"schema\": ");
        write_escaped(&mut s, SCHEMA);
        s.push_str(",\n  \"mode\": \"chaos\"");
        s.push_str(&format!(
            ",\n  \"config\": {{\"requests\": {}, \"drivers\": {}, \"seed\": {}, \
             \"burst_faults\": {}, \"recheck_samples\": {}}}",
            self.config.load.requests,
            self.config.drivers,
            self.config.load.seed,
            self.config.burst_faults,
            self.config.recheck_samples
        ));
        s.push_str(&format!(
            ",\n  \"chaos\": {{\n    \"warmup\": {},\n    \"burst\": {},\n    \"recovery\": {},\n    \
             \"breaker_opens\": {}, \"breaker_reclosed\": {}, \"wrong_plans\": {}, \
             \"rechecked\": {}, \"drained\": {}\n  }}",
            phase(&self.warmup),
            phase(&self.burst),
            phase(&self.recovery),
            self.breaker_opens,
            self.breaker_reclosed,
            self.wrong_plans,
            self.rechecked,
            self.drained
        ));
        s.push_str(&format!(
            ",\n  \"gateway\": {{\"accepted\": {}, \"shed\": {}, \"breaker_rejected\": {}, \
             \"retried\": {}, \"completed\": {}, \"failed\": {}}}\n}}\n",
            self.gateway.accepted,
            self.gateway.shed,
            self.gateway.breaker_rejected,
            self.gateway.retried,
            self.gateway.completed,
            self.gateway.failed
        ));
        s
    }

    /// A rendered per-phase summary for human consumption.
    pub fn render(&self) -> String {
        let mut t = crate::Table::new(vec![
            "phase",
            "requests",
            "completed",
            "errors",
            "shed",
            "panics",
            "breaker-open",
            "hit_rate",
            "p99",
        ]);
        for (name, p) in [
            ("warmup", &self.warmup),
            ("burst", &self.burst),
            ("recovery", &self.recovery),
        ] {
            t.row(vec![
                name.to_string(),
                p.requests.to_string(),
                p.completed.to_string(),
                p.errors.total().to_string(),
                p.errors.shed.to_string(),
                p.errors.panic.to_string(),
                p.errors.breaker_open.to_string(),
                format!("{:.3}", p.hit_rate),
                crate::format_seconds(p.p99_ns as f64 / 1e9),
            ]);
        }
        let mut out = t.render();
        out.push_str(&format!(
            "breaker: opened {}x, reclosed: {}; re-checked {} answers, {} wrong; retried {}; drained: {}\n",
            self.breaker_opens,
            self.breaker_reclosed,
            self.rechecked,
            self.wrong_plans,
            self.gateway.retried,
            self.drained
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> LoadConfig {
        LoadConfig {
            requests: 40,
            threads: 1,
            seed: 7,
            repeat_rate: 0.5,
            max_n: 6,
            cache_bytes: 8 << 20,
        }
    }

    #[test]
    fn stream_is_deterministic_and_mixed() {
        let config = small_config();
        let a = build_stream(&config);
        let b = build_stream(&config);
        assert_eq!(a.len(), 40);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.spec, y.spec);
        }
        // Some (but not all) requests repeat an earlier spec.
        let repeats = a
            .iter()
            .enumerate()
            .filter(|(i, r)| a[..*i].iter().any(|p| p.spec == r.spec))
            .count();
        assert!(repeats > 0 && repeats < a.len(), "repeats={repeats}");
    }

    #[test]
    fn single_worker_run_hits_on_every_repeat() {
        let config = small_config();
        let report = run_load(&config, &NoopObserver);
        assert_eq!(report.completed, 40);
        assert_eq!(report.errors, 0);
        // At one worker, requests execute in arrival order, so every
        // repeated spec is already cached when its repeat arrives.
        let stream = build_stream(&config);
        let repeats = stream
            .iter()
            .enumerate()
            .filter(|(i, r)| stream[..*i].iter().any(|p| p.spec == r.spec))
            .count();
        assert_eq!(report.hits, repeats);
        assert!(report.hit_rate > 0.0);
    }

    #[test]
    fn multi_worker_run_completes_cleanly() {
        let config = LoadConfig {
            threads: 4,
            ..small_config()
        };
        let report = run_load(&config, &NoopObserver);
        assert_eq!(report.completed, 40);
        assert_eq!(report.errors, 0);
    }

    #[test]
    fn report_json_parses_and_carries_the_headline_numbers() {
        let report = run_load(&small_config(), &NoopObserver);
        let v = JsonValue::parse(&report.to_json()).unwrap();
        assert_eq!(v.get("schema").unwrap().as_str(), Some(SCHEMA));
        assert_eq!(v.get("completed").unwrap().as_u64(), Some(40));
        assert_eq!(v.get("hits").unwrap().as_u64(), Some(report.hits as u64));
        assert!(v.get("rps").unwrap().as_f64().unwrap() > 0.0);
        assert!(v.get("p99_ns").unwrap().as_u64().is_some());
        let breakdown = v.get("errors_by_type").unwrap();
        assert_eq!(breakdown.get("timeout").unwrap().as_u64(), Some(0));
        assert_eq!(breakdown.get("panic").unwrap().as_u64(), Some(0));
        let rendered = report.render();
        assert!(rendered.contains("hit_rate"));
        assert!(rendered.contains("breaker-open"));
    }

    #[test]
    fn report_round_trips_through_parse() {
        let report = run_load(&small_config(), &NoopObserver);
        let json = report.to_json();
        let back = LoadReport::parse(&json).unwrap();
        assert_eq!(back, report);
        // Retired and unknown schemas are refused by name, even when
        // the body is otherwise a complete report.
        for schema in ["joinopt-load-v99", "joinopt-load-v1", "joinopt-load-v2"] {
            let err = LoadReport::parse(&json.replace(SCHEMA, schema)).unwrap_err();
            assert!(
                err.contains("unknown load report schema"),
                "{schema}: {err}"
            );
        }
    }

    #[test]
    fn report_carries_the_stage_breakdown() {
        let report = run_load(&small_config(), &NoopObserver);
        let names: Vec<&str> = report.stages.iter().map(|s| s.stage.as_str()).collect();
        for stage in ["shed-check", "breaker", "cache-lookup", "optimize"] {
            assert!(names.contains(&stage), "missing stage {stage}: {names:?}");
        }
        assert!(
            names.windows(2).all(|w| w[0] < w[1]),
            "stages sorted by name: {names:?}"
        );
        let lookup = report
            .stages
            .iter()
            .find(|s| s.stage == "cache-lookup")
            .unwrap();
        assert_eq!(lookup.count, 40, "every request probes the cache");
        let optimize = report
            .stages
            .iter()
            .find(|s| s.stage == "optimize")
            .unwrap();
        assert_eq!(
            optimize.count as usize,
            40 - report.hits,
            "only misses pay for an optimize span"
        );
        // The stage table reaches both serializations.
        assert!(report.render().contains("cache-lookup"));
        let v = JsonValue::parse(&report.to_json()).unwrap();
        let stages = v.get("stages").and_then(JsonValue::as_array).unwrap();
        assert_eq!(stages.len(), report.stages.len());
    }

    #[test]
    fn error_breakdown_records_by_label() {
        let mut b = ErrorBreakdown::default();
        for kind in [
            "timeout",
            "memory",
            "shed",
            "draining",
            "panic",
            "breaker-open",
            "parse",
        ] {
            b.record(kind);
        }
        assert_eq!(b.timeout, 1);
        assert_eq!(b.memory, 1);
        assert_eq!(b.shed, 2, "draining folds into shed");
        assert_eq!(b.panic, 1);
        assert_eq!(b.breaker_open, 1);
        assert_eq!(b.other, 1);
        assert_eq!(b.total(), 7);
        assert_eq!(b.hard(), 4);
    }

    // The end-to-end chaos gate test lives in `tests/chaos.rs`: it arms
    // process-global failpoints, so it needs its own test process.
}
