//! The traced replay: the seeded request stream again, in-process,
//! through each layer's public function in pipeline order, with a span
//! around every call. Spans stay in memory and are written once at the
//! end; the wire run that produced the end-to-end numbers carries no
//! benchmark-side tracing.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use joinopt_conformance::oracle::COST_TOLERANCE;
use joinopt_core::{Algorithm, OptimizeRequest, Session};
use joinopt_cost::{Catalog, HashJoin};
use joinopt_qgraph::formulas::ccp_distinct;
use joinopt_qgraph::QueryGraph;
use joinopt_service::server::{algorithm_name, parse_query_text};
use joinopt_service::{
    canonicalize, fingerprints_computed, CacheConfig, Gateway, GatewayConfig, OptimizerService,
    PlanCache, QuerySpec, ServiceConfig, ServiceRequest,
};
use joinopt_telemetry::json::{JsonObject, JsonValue};
use joinopt_telemetry::NoopObserver;

use crate::mix::{Query, Stream};
use crate::wire::request_line;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Replayed request the span belongs to (shared by all its spans).
    pub request: u32,
    /// Layer name; `request` is the root span of a request.
    pub layer: &'static str,
    /// Start, from the beginning of the replay.
    pub start_ns: u64,
    /// Duration.
    pub dur_ns: u64,
}

/// What the replay measured, summed over the replayed requests.
#[derive(Debug, Default)]
pub struct Replay {
    /// Every span, in recording order.
    pub spans: Vec<Span>,
    /// Replayed requests (warm-up excluded).
    pub requests: u64,
    json_ns: u64,
    query_ns: u64,
    query_bytes: u64,
    canon_ns: u64,
    lookup_ns: u64,
    lookups: u64,
    hits: u64,
    insert_ns: u64,
    inserts: u64,
    evictions: u64,
    cache_bytes: u64,
    engine_ns: u64,
    engine_runs: u64,
    /// Total `InnerCounter` over the replay's engine runs.
    pub steps: u64,
    gateway_ns: u64,
    fingerprints: u64,
    /// Per engine: (wall ns, inner steps).
    per_engine: BTreeMap<&'static str, (u64, u64)>,
    /// DPsub at one thread over DPsub at `nproc` threads (batch only).
    speedup: Option<f64>,
    /// Runs whose `InnerCounter` was checked against a closed form.
    pub formula_checks: u64,
}

struct Recorder {
    origin: Instant,
    record: bool,
    request: u32,
}

impl Recorder {
    /// Runs `f`, returning its value and duration, and records a span
    /// when past the warm-up.
    fn time<T>(
        &self,
        spans: &mut Vec<Span>,
        layer: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let t0 = Instant::now();
        let value = f();
        let dur_ns = t0.elapsed().as_nanos() as u64;
        if self.record {
            spans.push(Span {
                request: self.request,
                layer,
                start_ns: t0.duration_since(self.origin).as_nanos() as u64,
                dur_ns,
            });
        }
        (value, dur_ns)
    }
}

/// Checks an engine run's `InnerCounter` against the paper's closed
/// forms (Figure 3): `#ccp` for DPccp, the DPsub formula for DPsub.
/// Returns whether a formula applied.
fn check_counts(query: &Query, algorithm: Algorithm, inner: u64) -> Result<bool, String> {
    let Some(kind) = query.kind else {
        return Ok(false);
    };
    let n = query.relations as u64;
    let expected = match algorithm {
        Algorithm::DpCcp => ccp_distinct(kind, n),
        Algorithm::DpSub => joinopt_core::formulas::dpsub_inner(kind, n),
        _ => return Ok(false),
    };
    if u128::from(inner) != expected {
        return Err(format!(
            "{} on {kind} n={n}: InnerCounter {inner}, closed form {expected}",
            algorithm_name(algorithm)
        ));
    }
    Ok(true)
}

/// Equal within the conformance oracle's relative tolerance.
pub fn same_cost(a: f64, b: f64) -> bool {
    (a - b).abs() <= COST_TOLERANCE * a.abs().max(b.abs()).max(1.0)
}

/// Replays a serve workload: warm-up (untimed, to fill the caches as
/// the server's were), then `rounds` rounds through JSON parse → query
/// parse → canonicalize → cache lookup → (engine → cache insert on a
/// miss), and the same request through the in-process
/// [`Gateway::handle`] the server calls. The engine span covers graph
/// instantiation and `OptimizeRequest::run_in`, like the service's own
/// `optimize` stage.
pub fn replay_serve(stream: &Stream, rounds: u64) -> Result<Replay, String> {
    let cache = PlanCache::new(CacheConfig::default());
    let gateway = Gateway::new(
        OptimizerService::new(ServiceConfig::default()),
        GatewayConfig::default(),
    );
    let mut session = Session::new();
    let mut probe_session = Session::new();
    let mut gateway_session: Option<Session> = None;
    let mut out = Replay::default();
    let mut rec = Recorder {
        origin: Instant::now(),
        record: false,
        request: 0,
    };
    let mut base = cache.stats();
    let warmup = stream.warmup().iter().map(|q| (false, q.clone()));
    let timed = (0..rounds).flat_map(|r| stream.round(r).into_iter().map(|q| (true, q)));
    for (i, (record, query)) in warmup.chain(timed).enumerate() {
        if record && !rec.record {
            base = cache.stats();
            out = Replay::default();
        }
        rec.record = record;
        rec.request = i as u32;
        let line = request_line(&format!("{i}"), &query.text);
        // The gateway's input, parsed untimed; its own parse is timed
        // below as the query layer.
        let req = ServiceRequest::new(parse_query_text(&query.text)?);
        let t_request = Instant::now();
        // Alternate which path runs first, so the second one's warm CPU
        // caches favour neither side of `gateway.overhead_ns`.
        let gateway_first = i % 2 == 1;
        let early = match gateway_first {
            true => Some(through_gateway(
                &gateway,
                &req,
                &mut gateway_session,
                &rec,
                &mut out.spans,
            )?),
            false => None,
        };

        let (parsed, json_ns) = rec.time(&mut out.spans, "json", || JsonValue::parse(&line));
        let parsed = parsed.map_err(|e| format!("request JSON: {e:?}"))?;
        let text = parsed
            .get("query")
            .and_then(JsonValue::as_str)
            .ok_or("request has no query")?;
        let (spec, query_ns) = rec.time(&mut out.spans, "query", || parse_query_text(text));
        let spec = spec?;
        let (canon, canon_ns) = rec.time(&mut out.spans, "fingerprint", || canonicalize(&spec));

        // The cache key needs the algorithm; the serve path resolves
        // `Auto` with the core policy at one intra-query thread.
        let shape = QueryGraph::from_edges(spec.num_relations(), spec.edges().iter().copied())
            .map_err(|e| e.to_string())?;
        let algorithm = Algorithm::select_auto_with_parallelism(&shape, 1);
        let model = req.cost_model;
        let (hit, lookup_ns) = rec.time(&mut out.spans, "cache.lookup", || {
            cache.lookup(
                canon.fingerprint,
                algorithm,
                model.name(),
                &canon.encoding,
                &canon.order,
            )
        });
        let cost = match hit {
            Some(plan) => plan.cost,
            None => {
                let (run, engine_ns) = rec.time(&mut out.spans, "engine", || {
                    let (graph, catalog) = spec.instantiate()?;
                    OptimizeRequest::new(&graph, &catalog)
                        .with_algorithm(algorithm)
                        .with_cost_model(model.model())
                        .with_threads(1)
                        .run_in(&mut session)
                });
                let run = run.map_err(|e| format!("engine: {e}"))?;
                let inner = run.result.counters.inner;
                out.formula_checks += u64::from(check_counts(&query, run.algorithm, inner)?);
                let ((), insert_ns) = rec.time(&mut out.spans, "cache.insert", || {
                    cache.insert(
                        canon.fingerprint,
                        algorithm,
                        model.name(),
                        &canon.encoding,
                        &canon.order,
                        &run.result.tree,
                        run.result.cost,
                        run.result.cardinality,
                    )
                });
                out.engine_ns += engine_ns;
                out.engine_runs += 1;
                out.steps += inner;
                let e = out
                    .per_engine
                    .entry(algorithm_name(run.algorithm))
                    .or_default();
                *e = (e.0 + engine_ns, e.1 + inner);
                out.insert_ns += insert_ns;
                out.inserts += 1;
                if record {
                    probe_library_engine(
                        &query,
                        &spec,
                        run.result.cost,
                        &mut probe_session,
                        &mut out,
                    )?;
                }
                run.result.cost
            }
        };

        let (gateway_cost, gateway_ns, fingerprints) = match early {
            Some(done) => done,
            None => through_gateway(&gateway, &req, &mut gateway_session, &rec, &mut out.spans)?,
        };
        if !same_cost(gateway_cost, cost) {
            return Err(format!(
                "gateway cost {gateway_cost} differs from the layer pipeline's {cost}"
            ));
        }
        if record {
            let total = t_request.elapsed().as_nanos() as u64;
            out.spans.push(Span {
                request: rec.request,
                layer: "request",
                start_ns: t_request.duration_since(rec.origin).as_nanos() as u64,
                dur_ns: total,
            });
            out.requests += 1;
            out.json_ns += json_ns;
            out.query_ns += query_ns;
            out.query_bytes += text.len() as u64;
            out.canon_ns += canon_ns;
            out.lookup_ns += lookup_ns;
            out.lookups += 1;
            out.gateway_ns += gateway_ns;
            out.fingerprints += fingerprints;
        }
    }
    let end = cache.stats();
    out.hits = end.hits - base.hits;
    out.evictions = end.evictions - base.evictions;
    out.cache_bytes = cache.bytes() as u64;
    Ok(out)
}

/// One request through the in-process [`Gateway::handle`]: the plan's
/// cost, the call's duration and the fingerprints it computed.
fn through_gateway(
    gateway: &Gateway,
    req: &ServiceRequest,
    session: &mut Option<Session>,
    rec: &Recorder,
    spans: &mut Vec<Span>,
) -> Result<(f64, u64, u64), String> {
    let before = fingerprints_computed();
    let (answer, ns) = rec.time(spans, "gateway", || {
        gateway.handle(req, None, session, &NoopObserver)
    });
    let fingerprints = fingerprints_computed() - before;
    let answer = answer.map_err(|e| format!("gateway: {e:?}"))?;
    Ok((answer.result.cost, ns, fingerprints))
}

/// Where the library's own `Auto` (C_out, one thread) picks another
/// engine than the serve path did — DPconv on dense queries of 12 or
/// more relations — times that engine on the same query too, and checks
/// it finds a plan of the same cost. Recorded per engine only; it is not
/// part of any request's pipeline.
fn probe_library_engine(
    query: &Query,
    spec: &QuerySpec,
    cost: f64,
    session: &mut Session,
    out: &mut Replay,
) -> Result<(), String> {
    let (graph, catalog) = spec.instantiate().map_err(|e| e.to_string())?;
    let model = joinopt_service::CostModelId::Cout.model();
    let library = Algorithm::select_auto_with_model(&graph, 1, model);
    if library == Algorithm::select_auto_with_parallelism(&graph, 1) {
        return Ok(());
    }
    let t0 = Instant::now();
    let run = OptimizeRequest::new(&graph, &catalog)
        .with_algorithm(library)
        .with_threads(1)
        .run_in(session)
        .map_err(|e| format!("{}: {e}", algorithm_name(library)))?;
    let ns = t0.elapsed().as_nanos() as u64;
    if !same_cost(run.result.cost, cost) {
        return Err(format!(
            "{} cost {} differs from {cost} on {} relations",
            algorithm_name(library),
            run.result.cost,
            query.relations
        ));
    }
    let e = out.per_engine.entry(algorithm_name(library)).or_default();
    *e = (e.0 + ns, e.1 + run.result.counters.inner);
    Ok(())
}

/// A `batch-dense` query, parsed and instantiated for the library call.
pub struct Input {
    /// The generated query.
    pub query: Arc<Query>,
    /// Its graph.
    pub graph: QueryGraph,
    /// Its statistics.
    pub catalog: Catalog,
}

/// Parses and instantiates `queries` (outside any timed call).
pub fn prepare(queries: Vec<Arc<Query>>) -> Result<Vec<Input>, String> {
    queries
        .into_iter()
        .map(|query| {
            let spec = parse_query_text(&query.text)?;
            let (graph, catalog) = spec.instantiate().map_err(|e| e.to_string())?;
            Ok(Input {
                query,
                graph,
                catalog,
            })
        })
        .collect()
}

/// Passes per thread count behind `parallel.speedup`.
const SPEEDUP_PASSES: usize = 3;

/// Replays `batch-dense`: one round through `OptimizeRequest::run_in`
/// exactly as the timed phase calls it, then the same round with DPsub
/// forced at one thread and at `threads`, for the speed-up ratio
/// (within one run, so it holds on any hardware).
pub fn replay_batch(stream: &Stream, threads: usize) -> Result<Replay, String> {
    let inputs = prepare(stream.round(0))?;
    let mut session = Session::new();
    let mut out = Replay::default();
    let rec_origin = Instant::now();
    for (i, input) in inputs.iter().enumerate() {
        let rec = Recorder {
            origin: rec_origin,
            record: true,
            request: i as u32,
        };
        let (run, ns) = rec.time(&mut out.spans, "engine", || {
            OptimizeRequest::new(&input.graph, &input.catalog)
                .with_cost_model(&HashJoin)
                .with_threads(threads)
                .run_in(&mut session)
        });
        let run = run.map_err(|e| format!("engine: {e}"))?;
        let inner = run.result.counters.inner;
        out.formula_checks += u64::from(check_counts(&input.query, run.algorithm, inner)?);
        out.requests += 1;
        out.engine_ns += ns;
        out.engine_runs += 1;
        out.steps += inner;
        let e = out
            .per_engine
            .entry(algorithm_name(run.algorithm))
            .or_default();
        *e = (e.0 + ns, e.1 + inner);
    }
    let mut pass = |t: usize| -> Result<u64, String> {
        let t0 = Instant::now();
        for input in &inputs {
            OptimizeRequest::new(&input.graph, &input.catalog)
                .with_algorithm(Algorithm::DpSub)
                .with_cost_model(&HashJoin)
                .with_threads(t)
                .run_in(&mut session)
                .map_err(|e| format!("dpsub at {t} threads: {e}"))?;
        }
        Ok(t0.elapsed().as_nanos() as u64)
    };
    // Alternating passes, ratio of the medians: the machine's speed
    // drifts over seconds, and one pass each would compare two moments.
    let (mut one, mut many) = (Vec::new(), Vec::new());
    for _ in 0..SPEEDUP_PASSES {
        one.push(pass(1)?);
        many.push(pass(threads)?);
    }
    one.sort_unstable();
    many.sort_unstable();
    out.speedup = Some(one[SPEEDUP_PASSES / 2] as f64 / many[SPEEDUP_PASSES / 2] as f64);
    Ok(out)
}

impl Replay {
    fn per_request(&self, ns: u64) -> f64 {
        ns as f64 / self.requests.max(1) as f64
    }

    /// The per-layer metrics, as (name, value, unit). `e2e_mean_ns` is
    /// the mean request time of the wire (or library) run; `serve`
    /// says whether the pipeline had the JSON/query/gateway layers.
    pub fn metrics(&self, e2e_mean_ns: f64, serve: bool) -> Vec<(String, f64, &'static str)> {
        let json = self.per_request(self.json_ns);
        let query = self.per_request(self.query_ns);
        let canon = self.per_request(self.canon_ns);
        let lookup = self.per_request(self.lookup_ns);
        let insert = self.per_request(self.insert_ns);
        let engine = self.per_request(self.engine_ns);
        let gateway = self.per_request(self.gateway_ns);
        let overhead = if serve {
            gateway - (canon + lookup + engine + insert)
        } else {
            0.0
        };
        // Top-level layers of one request: JSON, query, gateway on the
        // serve path; the engine call alone in the library loop.
        let attributed = if serve {
            json + query + gateway
        } else {
            engine
        };
        let unattributed = e2e_mean_ns - attributed;
        let mean_over = |ns: u64, count: u64| ns as f64 / count.max(1) as f64;
        let ns_per_step = |alg: &str| {
            self.per_engine
                .get(alg)
                .map_or(0.0, |&(ns, steps)| ns as f64 / steps.max(1) as f64)
        };
        let share = |x: f64| x / e2e_mean_ns;
        let mut m: Vec<(String, f64, &'static str)> = vec![
            ("json.parse_ns".into(), json, "ns"),
            ("query.parse_ns".into(), query, "ns"),
            (
                "query.bytes".into(),
                mean_over(self.query_bytes, self.requests),
                "bytes",
            ),
            ("fingerprint.canonicalize_ns".into(), canon, "ns"),
            (
                "fingerprint.per_request".into(),
                mean_over(self.fingerprints, self.requests),
                "count",
            ),
            (
                "cache.lookup_ns".into(),
                mean_over(self.lookup_ns, self.lookups),
                "ns",
            ),
            (
                "cache.hit_ratio".into(),
                mean_over(self.hits, self.lookups),
                "ratio",
            ),
            (
                "cache.insert_ns".into(),
                mean_over(self.insert_ns, self.inserts),
                "ns",
            ),
            ("cache.evictions".into(), self.evictions as f64, "count"),
            ("cache.bytes".into(), self.cache_bytes as f64, "bytes"),
            (
                "engine.run_ns".into(),
                mean_over(self.engine_ns, self.engine_runs),
                "ns",
            ),
            ("engine.steps".into(), self.steps as f64, "count"),
            (
                "engine.dpccp.ns_per_step".into(),
                ns_per_step("dpccp"),
                "ns",
            ),
            (
                "engine.dpsub.ns_per_step".into(),
                ns_per_step("dpsub"),
                "ns",
            ),
            (
                "engine.dpconv.ns_per_step".into(),
                ns_per_step("dpconv"),
                "ns",
            ),
            (
                "parallel.speedup".into(),
                self.speedup.unwrap_or(0.0),
                "ratio",
            ),
            (
                "gateway.handle_ns".into(),
                if serve { gateway } else { 0.0 },
                "ns",
            ),
            ("gateway.overhead_ns".into(), overhead, "ns"),
            ("wire.unattributed_us".into(), unattributed / 1e3, "us"),
        ];
        for (layer, ns) in [
            ("json", json),
            ("query", query),
            ("fingerprint", canon),
            ("cache", lookup + insert),
            ("engine", engine),
            ("gateway", overhead),
            ("wire", unattributed),
        ] {
            m.push((format!("share.{layer}"), share(ns), "ratio"));
        }
        m
    }

    /// Writes the spans as JSON lines, one per span; a request's layer
    /// spans name the `request` span as their parent.
    pub fn write_spans(&self, path: &Path) -> Result<(), String> {
        let mut text = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let parent = (s.layer != "request").then_some("request");
            text.push_str(
                &JsonObject::new()
                    .u64("request", u64::from(s.request))
                    .str("layer", s.layer)
                    .opt_str("parent", parent)
                    .u64("start_ns", s.start_ns)
                    .u64("dur_ns", s.dur_ns)
                    .finish(),
            );
            text.push('\n');
        }
        let mut file =
            std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        file.write_all(text.as_bytes())
            .and_then(|()| file.flush())
            .map_err(|e| format!("{}: {e}", path.display()))
    }
}
