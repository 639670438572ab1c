//! [`ServiceRequest`] and the batch executor.
//!
//! The service is the one blessed entry point for *owned* work: a
//! [`ServiceRequest`] carries its [`QuerySpec`], a tenant label, a
//! priority and per-request budgets, so it can sit in a queue or be
//! answered straight from the plan cache. Execution rides the core
//! crate end to end: each worker pools a [`Session`] across the queries
//! it claims, budget trips walk the exact → IDP → GOO degradation
//! ladder when the request opted in, and panics are isolated per
//! request.
//!
//! ## Scheduling
//!
//! A submitted batch executes highest [`Priority`] first (stable within
//! a priority class), spread across the worker pool; every slot gets an
//! answer or its own typed error. Admission control — load shedding and
//! the per-tenant circuit breaker — lives in one place, the
//! [`crate::Gateway`] in front of [`OptimizerService::submit_one`].
//!
//! ## Caching
//!
//! With a cache configured, each request canonicalizes its spec
//! ([`crate::fingerprint`]), probes the cache under
//! (fingerprint, resolved algorithm, cost-model id) and, on a miss
//! whose run completes exactly (no degradation), stores the resulting
//! plan. Hits return bit-identical cost bits and plan shape to the cold
//! run of the same spec. Without a cache the fingerprint path is
//! skipped entirely — see [`crate::fingerprint::fingerprints_computed`].

use std::time::{Duration, Instant};

use joinopt_core::{
    Algorithm, BudgetAction, DegradationInfo, DpResult, OptimizeError, OptimizeRequest, Session,
};
use joinopt_cost::{CostModel, Cout, HashJoin, MinOverPhysical, NestedLoopJoin, SortMergeJoin};
use joinopt_telemetry::Observer;

use crate::cache::{CacheConfig, PlanCache};
use crate::clock::{Clock, StageClock};
use crate::fingerprint::canonicalize;
use crate::spec::QuerySpec;

/// The cost models the service can name — a closed, hashable id so the
/// cache key stays `Copy` and model identity is never a dangling
/// pointer comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CostModelId {
    /// `C_out` (the paper's model; the default).
    #[default]
    Cout,
    /// Nested-loop join cost.
    NestedLoopJoin,
    /// Hash join cost.
    HashJoin,
    /// Sort-merge join cost.
    SortMergeJoin,
    /// Minimum over the physical operators.
    MinOverPhysical,
}

impl CostModelId {
    /// The CLI-facing id (`cout`, `nlj`, `hash`, `smj`, `min`).
    pub fn name(self) -> &'static str {
        match self {
            CostModelId::Cout => "cout",
            CostModelId::NestedLoopJoin => "nlj",
            CostModelId::HashJoin => "hash",
            CostModelId::SortMergeJoin => "smj",
            CostModelId::MinOverPhysical => "min",
        }
    }

    /// Parses a CLI-facing id.
    pub fn parse(s: &str) -> Option<CostModelId> {
        match s.to_ascii_lowercase().as_str() {
            "cout" => Some(CostModelId::Cout),
            "nlj" => Some(CostModelId::NestedLoopJoin),
            "hash" => Some(CostModelId::HashJoin),
            "smj" => Some(CostModelId::SortMergeJoin),
            "min" => Some(CostModelId::MinOverPhysical),
            _ => None,
        }
    }

    /// The model itself (all five are stateless unit structs).
    pub fn model(self) -> &'static dyn CostModel {
        match self {
            CostModelId::Cout => &Cout,
            CostModelId::NestedLoopJoin => &NestedLoopJoin,
            CostModelId::HashJoin => &HashJoin,
            CostModelId::SortMergeJoin => &SortMergeJoin,
            CostModelId::MinOverPhysical => &MinOverPhysical,
        }
    }
}

/// Request priority: higher executes earlier within a batch, and the
/// server's load shedding drops lower priorities first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Background work; runs after everything else.
    Low,
    /// The default.
    #[default]
    Normal,
    /// Latency-sensitive; runs first.
    High,
}

impl Priority {
    /// The wire name (`low`, `normal`, `high`) used by the serve
    /// protocol and the `joinopt_serve_*` metric labels.
    pub fn name(self) -> &'static str {
        match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
        }
    }

    /// Parses a wire name.
    pub fn parse(s: &str) -> Option<Priority> {
        match s.to_ascii_lowercase().as_str() {
            "low" => Some(Priority::Low),
            "normal" => Some(Priority::Normal),
            "high" => Some(Priority::High),
            _ => None,
        }
    }
}

/// An owned, queueable optimization request.
#[derive(Debug, Clone)]
pub struct ServiceRequest {
    /// The owned query.
    pub spec: QuerySpec,
    /// Tenant label (the gateway keeps one breaker and retry budget per
    /// tenant).
    pub tenant: String,
    /// Scheduling priority within a batch.
    pub priority: Priority,
    /// Algorithm (possibly `Auto`, resolved per query).
    pub algorithm: Algorithm,
    /// Cost model id (part of the cache key).
    pub cost_model: CostModelId,
    /// Optional wall-clock budget for the run.
    pub time_budget: Option<Duration>,
    /// Optional ceiling on the optimal plan's cost.
    pub cost_budget: Option<f64>,
    /// Optional ceiling on DP table + arena bytes.
    pub memory_budget: Option<usize>,
    /// Whether a tripped budget degrades down the ladder
    /// (exact → IDP → GOO) instead of erroring.
    pub degrade: bool,
}

impl ServiceRequest {
    /// A request for `spec` with default tenant (`""`), normal priority,
    /// `Auto` algorithm, `C_out` and no budgets.
    pub fn new(spec: QuerySpec) -> ServiceRequest {
        ServiceRequest {
            spec,
            tenant: String::new(),
            priority: Priority::Normal,
            algorithm: Algorithm::Auto,
            cost_model: CostModelId::Cout,
            time_budget: None,
            cost_budget: None,
            memory_budget: None,
            degrade: false,
        }
    }

    /// Sets the tenant label.
    #[must_use]
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = tenant.into();
        self
    }

    /// Sets the priority.
    #[must_use]
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Chooses a specific algorithm.
    #[must_use]
    pub fn with_algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Chooses a cost model.
    #[must_use]
    pub fn with_cost_model(mut self, model: CostModelId) -> Self {
        self.cost_model = model;
        self
    }

    /// Sets a wall-clock budget.
    #[must_use]
    pub fn with_time_budget(mut self, budget: Duration) -> Self {
        self.time_budget = Some(budget);
        self
    }

    /// Sets a plan-cost ceiling.
    #[must_use]
    pub fn with_cost_budget(mut self, budget: f64) -> Self {
        self.cost_budget = Some(budget);
        self
    }

    /// Sets a memory ceiling in bytes.
    #[must_use]
    pub fn with_memory_budget(mut self, bytes: usize) -> Self {
        self.memory_budget = Some(bytes);
        self
    }

    /// Lets tripped budgets fall down the degradation ladder instead of
    /// erroring.
    #[must_use]
    pub fn with_degradation(mut self) -> Self {
        self.degrade = true;
        self
    }
}

/// Service sizing and policy.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads for batch execution. `0` = the machine's
    /// available parallelism.
    pub worker_threads: usize,
    /// Plan-cache sizing; `None` disables caching entirely (and with it
    /// the whole fingerprint path).
    pub cache: Option<CacheConfig>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            worker_threads: 0,
            cache: Some(CacheConfig::default()),
        }
    }
}

/// One answered request.
#[derive(Debug)]
pub struct ServiceOutcome {
    /// Plan, cost, counters and statistics. On a cache hit the counters
    /// are zero — no enumeration ran.
    pub result: DpResult,
    /// The concrete algorithm (`Auto` resolved) that produced — or, on
    /// a hit, whose cache slot served — the plan.
    pub algorithm: Algorithm,
    /// Whether the plan came from the cache.
    pub cache_hit: bool,
    /// `Some` when a budget tripped and a ladder rung produced the plan.
    pub degradation: Option<DegradationInfo>,
    /// Wall-clock time spent answering this request (lookup or run).
    pub elapsed: Duration,
}

/// The optimizer service: a plan cache plus a batch executor. Methods
/// take `&self`; one service is shared across submitting threads.
pub struct OptimizerService {
    config: ServiceConfig,
    cache: Option<PlanCache>,
    /// Stamps the `cache-lookup`/`optimize` stage events; a
    /// [`crate::Gateway`] installs its own clock here.
    pub(crate) clock: Clock,
}

impl Default for OptimizerService {
    fn default() -> Self {
        OptimizerService::new(ServiceConfig::default())
    }
}

impl OptimizerService {
    /// A service with the given sizing.
    pub fn new(config: ServiceConfig) -> OptimizerService {
        let cache = config.cache.map(PlanCache::new);
        OptimizerService {
            config,
            cache,
            clock: Clock::system(),
        }
    }

    /// The plan cache, when one is configured.
    pub fn cache(&self) -> Option<&PlanCache> {
        self.cache.as_ref()
    }

    /// Submits a batch — the library's one batch worker pool. Results
    /// come back in input order, one per request.
    ///
    /// Each worker pools a [`Session`] across the requests it claims and
    /// runs every query with one intra-query thread (query-level
    /// parallelism dominates for a full batch). A request that panics is
    /// isolated like in [`OptimizerService::submit_one`]: its slot holds
    /// [`OptimizeError::Internal`] and the worker continues on a fresh
    /// session. Every run and every cache lookup/store/evict reports to
    /// `obs` (pass [`joinopt_telemetry::NoopObserver`] for none); it must
    /// be `Sync` because workers emit concurrently, each event tagged
    /// with its worker's thread id.
    pub fn submit_batch(
        &self,
        requests: &[ServiceRequest],
        obs: &(dyn Observer + Sync),
    ) -> Vec<Result<ServiceOutcome, OptimizeError>> {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::mpsc;

        let mut results: Vec<Option<Result<ServiceOutcome, OptimizeError>>> =
            (0..requests.len()).map(|_| None).collect();

        // Highest priority first; stable, so arrival order breaks ties.
        let mut order: Vec<usize> = (0..requests.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(requests[i].priority));

        let workers = if self.config.worker_threads == 0 {
            std::thread::available_parallelism().map_or(1, |p| p.get())
        } else {
            self.config.worker_threads
        }
        .min(order.len())
        .max(1);

        let run_one = |session: &mut Option<Session>, req: &ServiceRequest| {
            self.submit_one(req, session, obs)
        };

        if workers == 1 {
            let mut session = None;
            for &i in &order {
                results[i] = Some(run_one(&mut session, &requests[i]));
            }
        } else {
            let next = AtomicUsize::new(0);
            let (tx, rx) = mpsc::channel();
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    let tx = tx.clone();
                    let next = &next;
                    let run_one = &run_one;
                    let order = &order;
                    scope.spawn(move || {
                        let mut session = None;
                        loop {
                            let k = next.fetch_add(1, Ordering::Relaxed);
                            let Some(&i) = order.get(k) else { break };
                            if tx.send((i, run_one(&mut session, &requests[i]))).is_err() {
                                break;
                            }
                        }
                    });
                }
                drop(tx);
                for (i, r) in rx {
                    results[i] = Some(r);
                }
            });
        }
        results
            .into_iter()
            .map(|r| {
                r.unwrap_or_else(|| {
                    Err(OptimizeError::Internal(
                        "request was never claimed by a service worker".into(),
                    ))
                })
            })
            .collect()
    }

    /// Answers one request outside a batch — the `joinopt serve` path
    /// (the server gateway does its shedding and breaker checks before
    /// calling this). Shares the plan cache, isolates panics exactly
    /// like a batch worker, and reuses the caller's pooled session
    /// across calls. When `obs` wants spans
    /// ([`Observer::wants_spans`]), the cache probe and the engine run
    /// are reported as `cache-lookup` / `optimize` stage events;
    /// otherwise this path reads no clock at all (the zero-overhead
    /// contract pinned in `tests/trace_overhead.rs`).
    pub fn submit_one(
        &self,
        req: &ServiceRequest,
        session: &mut Option<Session>,
        obs: &dyn Observer,
    ) -> Result<ServiceOutcome, OptimizeError> {
        self.submit_with_budget(req, req.time_budget, session, obs)
    }

    /// [`OptimizerService::submit_one`] with `time_budget` in place of
    /// the request's own — the gateway's per-attempt deadline cap,
    /// passed down without copying the request.
    pub(crate) fn submit_with_budget(
        &self,
        req: &ServiceRequest,
        time_budget: Option<Duration>,
        session: &mut Option<Session>,
        obs: &dyn Observer,
    ) -> Result<ServiceOutcome, OptimizeError> {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.answer(session, req, time_budget, obs)
        }));
        match outcome {
            Ok(r) => r,
            Err(payload) => {
                *session = None; // discard the half-mutated session
                Err(OptimizeError::Internal(panic_message(payload.as_ref())))
            }
        }
    }

    /// Answers one request: cache probe, then (on a miss) a full
    /// optimization under `time_budget`, then (when exact) a cache
    /// store.
    ///
    /// Two service-level failpoint sites live here (cfg-gated, see
    /// `docs/robustness.md`): `serve-worker-panic` fires before any
    /// work — its panics are swallowed by the caller's `catch_unwind`
    /// like a real worker bug — and `serve-cache-poison` replaces the
    /// canonical fingerprint with a constant, forcing every distinct
    /// query into one cache slot to prove the full-encoding
    /// verification turns collisions into misses, never wrong plans.
    fn answer(
        &self,
        session: &mut Option<Session>,
        req: &ServiceRequest,
        time_budget: Option<Duration>,
        obs: &dyn Observer,
    ) -> Result<ServiceOutcome, OptimizeError> {
        joinopt_core::failpoint::check("serve-worker-panic")?;
        let stages = StageClock::new(&self.clock, obs);
        let started = Instant::now();
        let model = req.cost_model.model();
        let model_id = req.cost_model.name();

        // Resolve `Auto` from the spec's edge list with the core policy
        // at one intra-query thread, so the cache key is concrete and a
        // hit never instantiates the graph.
        let algorithm = if req.algorithm == Algorithm::Auto {
            Algorithm::select_auto_from_edges(
                req.spec.num_relations(),
                req.spec.edges().iter().copied(),
                1,
                Some(model),
            )
        } else {
            req.algorithm
        };

        // Probe the cache (fingerprinting is skipped entirely when no
        // cache is configured). The canonicalization is billed to the
        // cache-lookup span: it exists only to produce the cache key.
        stages.begin("cache-lookup");
        let mut canon = self.cache.as_ref().map(|_| canonicalize(&req.spec));
        if let Some(c) = canon.as_mut() {
            if joinopt_core::failpoint::flag("serve-cache-poison") {
                // Simulate the worst-case fingerprint collision: every
                // query maps to the same slot. Correctness must now rest
                // entirely on the cache's word-for-word encoding check.
                c.fingerprint = crate::Fingerprint {
                    hi: 0xdead_beef_dead_beef,
                    lo: 0xfeed_face_feed_face,
                };
            }
        }
        if let (Some(cache), Some(canon)) = (&self.cache, &canon) {
            if let Some(hit) = cache.lookup_observed(
                canon.fingerprint,
                algorithm,
                model_id,
                &canon.encoding,
                &canon.order,
                obs,
            ) {
                stages.end();
                return Ok(ServiceOutcome {
                    result: DpResult {
                        tree: hit.tree,
                        cost: hit.cost,
                        cardinality: hit.cardinality,
                        counters: Default::default(),
                        table_size: 0,
                        plans_built: 0,
                    },
                    algorithm,
                    cache_hit: true,
                    degradation: None,
                    elapsed: started.elapsed(),
                });
            }
        }

        // Miss (or no cache): the optimize span covers graph
        // instantiation, the engine run and the post-run cache store.
        stages.end_then_begin("optimize");
        let (graph, catalog) = req.spec.instantiate()?;
        let mut s = session.take().unwrap_or_default();
        let mut request = OptimizeRequest::new(&graph, &catalog)
            .with_algorithm(algorithm)
            .with_cost_model(model)
            .with_threads(1)
            .with_observer(obs);
        if let Some(budget) = time_budget {
            request = request.with_time_budget(budget);
        }
        if let Some(budget) = req.cost_budget {
            request = request.with_cost_budget(budget);
        }
        if let Some(bytes) = req.memory_budget {
            request = request.with_memory_budget(bytes);
        }
        if req.degrade {
            request = request.on_budget_exceeded(BudgetAction::Degrade);
        }
        let outcome = request.run_in(&mut s);
        *session = Some(s);
        let outcome = outcome?;

        // Only exact plans are worth remembering: a degraded plan is an
        // artifact of this request's budgets, not of the query.
        if let (Some(cache), Some(canon)) = (&self.cache, &canon) {
            if outcome.degradation.is_none() {
                cache.insert_observed(
                    canon.fingerprint,
                    algorithm,
                    model_id,
                    &canon.encoding,
                    &canon.order,
                    &outcome.result.tree,
                    outcome.result.cost,
                    outcome.result.cardinality,
                    obs,
                );
            }
        }
        stages.end();
        Ok(ServiceOutcome {
            result: outcome.result,
            algorithm: outcome.algorithm,
            cache_hit: false,
            degradation: outcome.degradation,
            elapsed: started.elapsed(),
        })
    }
}

/// Renders a caught panic payload for [`OptimizeError::Internal`].
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("request panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("request panicked: {s}")
    } else {
        "request panicked".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use joinopt_cost::workload;
    use joinopt_qgraph::GraphKind;
    use joinopt_telemetry::NoopObserver;

    fn spec(kind: GraphKind, n: usize, seed: u64) -> QuerySpec {
        let w = workload::family_workload(kind, n, seed);
        QuerySpec::capture(&w.graph, &w.catalog).unwrap()
    }

    #[test]
    fn cost_model_ids_round_trip() {
        for id in [
            CostModelId::Cout,
            CostModelId::NestedLoopJoin,
            CostModelId::HashJoin,
            CostModelId::SortMergeJoin,
            CostModelId::MinOverPhysical,
        ] {
            assert_eq!(CostModelId::parse(id.name()), Some(id));
        }
        assert_eq!(CostModelId::parse("bogus"), None);
    }

    #[test]
    fn warm_hit_is_bit_identical_to_the_cold_run() {
        let service = OptimizerService::default();
        let req = ServiceRequest::new(spec(GraphKind::Chain, 7, 11));
        let cold = &service.submit_batch(std::slice::from_ref(&req), &NoopObserver)[0];
        let cold = cold.as_ref().unwrap();
        assert!(!cold.cache_hit);
        let warm = &service.submit_batch(std::slice::from_ref(&req), &NoopObserver)[0];
        let warm = warm.as_ref().unwrap();
        assert!(warm.cache_hit);
        assert_eq!(warm.result.cost.to_bits(), cold.result.cost.to_bits());
        assert_eq!(warm.result.tree, cold.result.tree);
        let stats = service.cache().unwrap().stats();
        assert_eq!((stats.hits, stats.misses, stats.stores), (1, 1, 1));
    }

    #[test]
    fn a_default_batch_answers_every_slot() {
        // No per-batch admission cap: a large single-tenant batch gets a
        // plan in every slot, in input order.
        let service = OptimizerService::default();
        let reqs: Vec<_> = (0..300u64)
            .map(|i| ServiceRequest::new(spec(GraphKind::Chain, 3 + i as usize % 3, i)))
            .collect();
        let results = service.submit_batch(&reqs, &NoopObserver);
        assert_eq!(results.len(), 300);
        for (i, r) in results.iter().enumerate() {
            let r = r.as_ref().unwrap_or_else(|e| panic!("slot {i}: {e}"));
            assert_eq!(r.result.tree.num_relations(), 3 + i % 3, "slot {i}");
        }
    }

    #[test]
    fn batch_matches_individual_requests_and_preserves_errors() {
        let service = OptimizerService::new(ServiceConfig {
            cache: None,
            worker_threads: 3,
        });
        let mut reqs: Vec<_> = (0..5u64)
            .map(|i| {
                ServiceRequest::new(spec(GraphKind::ALL[i as usize % 4], 5 + i as usize % 3, i))
            })
            .collect();
        // A disconnected spec and an empty one mid-batch must each fail
        // alone.
        let invalid = [2, 4];
        for (slot, n) in invalid.into_iter().zip([3, 0]) {
            let graph = joinopt_qgraph::QueryGraph::new(n).unwrap();
            let catalog = joinopt_cost::Catalog::new(&graph);
            reqs.insert(
                slot,
                ServiceRequest::new(QuerySpec::capture(&graph, &catalog).unwrap()),
            );
        }
        // Twice on the same service: isolation must hold on a fresh pool
        // and on a reused one alike.
        for _ in 0..2 {
            let results = service.submit_batch(&reqs, &NoopObserver);
            assert_eq!(results.len(), 7);
            for (i, req) in reqs.iter().enumerate() {
                if invalid.contains(&i) {
                    assert!(results[i].is_err(), "invalid request {i} fails in place");
                    continue;
                }
                let batch = results[i].as_ref().unwrap();
                let single = &service.submit_batch(std::slice::from_ref(req), &NoopObserver)[0];
                let single = single.as_ref().unwrap();
                assert_eq!(batch.result.cost.to_bits(), single.result.cost.to_bits());
                assert_eq!(batch.result.tree, single.result.tree);
            }
        }
        assert!(service.submit_batch(&[], &NoopObserver).is_empty());
    }

    #[test]
    fn large_cout_stars_are_served_by_ikkbz_and_cached() {
        // The conformance oracle's cross-family cost tolerance.
        const COST_TOLERANCE: f64 = 1e-9;
        let service = OptimizerService::default();
        let mut session = None;
        let mut submit = |req: &ServiceRequest| {
            service
                .submit_one(req, &mut session, &NoopObserver)
                .unwrap()
        };
        let w = workload::family_workload(GraphKind::Star, 14, 5);
        let star = QuerySpec::capture(&w.graph, &w.catalog).unwrap();
        let served = submit(&ServiceRequest::new(star.clone()));
        assert_eq!(served.algorithm, Algorithm::IkkBz);
        assert!(!served.cache_hit);
        let dpccp = submit(&ServiceRequest::new(star.clone()).with_algorithm(Algorithm::DpCcp));
        assert_eq!(dpccp.algorithm, Algorithm::DpCcp);
        let (a, b) = (served.result.cost, dpccp.result.cost);
        assert!(
            (a - b).abs() <= COST_TOLERANCE * a.abs().max(b.abs()).max(1.0),
            "IKKBZ {a} vs DPccp {b}"
        );

        // A relabeled copy (hub moved to the end, satellites reversed)
        // hits the IKKBZ entry.
        let order: Vec<usize> = (0..14).rev().collect();
        let graph = joinopt_qgraph::bfs::renumber(&w.graph, &order);
        let mut catalog = joinopt_cost::Catalog::with_shape(14, graph.num_edges());
        for (new, &old) in order.iter().enumerate() {
            catalog
                .set_cardinality(new, w.catalog.cardinality(old))
                .unwrap();
        }
        for e in 0..graph.num_edges() {
            catalog
                .set_selectivity(e, w.catalog.selectivity(e))
                .unwrap();
        }
        let relabeled = QuerySpec::capture(&graph, &catalog).unwrap();
        assert_ne!(relabeled, star);
        let hit = submit(&ServiceRequest::new(relabeled));
        assert!(hit.cache_hit);
        assert_eq!(hit.algorithm, Algorithm::IkkBz);
        assert!((hit.result.cost - a).abs() <= COST_TOLERANCE * a.abs().max(1.0));

        // Other models and smaller stars keep DPccp.
        let hash = submit(&ServiceRequest::new(star).with_cost_model(CostModelId::HashJoin));
        assert_eq!(hash.algorithm, Algorithm::DpCcp);
        let small = submit(&ServiceRequest::new(spec(
            GraphKind::Star,
            Algorithm::IKKBZ_STAR_MIN_RELATIONS - 1,
            5,
        )));
        assert_eq!(small.algorithm, Algorithm::DpCcp);
    }

    #[test]
    fn auto_resolves_like_the_library_at_one_thread() {
        // The serve path resolves `Auto` from the spec's edge list; it must
        // land on the algorithm a one-thread `OptimizeRequest` picks for
        // the instantiated graph under the same cost model.
        let mut rng = joinopt_relset::XorShift64::seed_from_u64(13);
        let mut workloads = Vec::new();
        for n in 2..=13 {
            for kind in GraphKind::ALL {
                workloads.push(workload::family_workload(kind, n, n as u64));
            }
            let graph = joinopt_qgraph::generators::random_tree(n, &mut rng).unwrap();
            let catalog =
                workload::random_catalog(&graph, workload::StatsRanges::default(), &mut rng);
            workloads.push(workload::Workload { graph, catalog });
        }
        let service = OptimizerService::new(ServiceConfig {
            cache: None,
            worker_threads: 1,
        });
        let models = [
            CostModelId::Cout,
            CostModelId::NestedLoopJoin,
            CostModelId::HashJoin,
            CostModelId::SortMergeJoin,
            CostModelId::MinOverPhysical,
        ];
        let mut pinned = 0;
        for model in models {
            let reqs: Vec<_> = workloads
                .iter()
                .map(|w| {
                    ServiceRequest::new(QuerySpec::capture(&w.graph, &w.catalog).unwrap())
                        .with_cost_model(model)
                })
                .collect();
            let served = service.submit_batch(&reqs, &NoopObserver);
            for (w, served) in workloads.iter().zip(served) {
                let served = served.unwrap().algorithm;
                let library = OptimizeRequest::new(&w.graph, &w.catalog)
                    .with_cost_model(model.model())
                    .with_threads(1)
                    .run()
                    .unwrap()
                    .algorithm;
                let (n, edges) = (w.graph.num_relations(), w.graph.num_edges());
                assert_eq!(served, library, "{model:?} n={n} edges={edges}");
                // The 12-clique: DPconv under C_out, DPsub where the
                // model guard keeps DPconv out.
                let want = match (model, n, edges) {
                    (CostModelId::Cout, 12, 66) => Algorithm::DpConv,
                    (CostModelId::HashJoin, 12, 66) => Algorithm::DpSub,
                    _ => continue,
                };
                assert_eq!(served, want, "{model:?} 12-clique");
                pinned += 1;
            }
        }
        assert_eq!(pinned, 2);
    }

    #[test]
    fn batch_traces_tag_every_run_with_a_thread_id() {
        use joinopt_telemetry::json::JsonValue;
        use joinopt_telemetry::TraceWriter;
        let service = OptimizerService::new(ServiceConfig {
            cache: None,
            ..ServiceConfig::default()
        });
        let reqs: Vec<_> = [(6, 0), (7, 1), (8, 2), (6, 3)]
            .into_iter()
            .map(|(n, seed)| ServiceRequest::new(spec(GraphKind::Chain, n, seed)))
            .collect();
        let trace = TraceWriter::new(Vec::new());
        let results = service.submit_batch(&reqs, &trace);
        assert_eq!(results.len(), 4);
        assert!(results.iter().all(Result::is_ok));
        let text = String::from_utf8(trace.finish().unwrap()).unwrap();

        let mut starts = 0usize;
        let mut tids = Vec::new();
        for line in text.lines() {
            let v = JsonValue::parse(line).unwrap_or_else(|e| panic!("bad line {line:?}: {e}"));
            let tid = v
                .get("thread_id")
                .and_then(|t| t.as_u64())
                .expect("thread_id on every event");
            tids.push(tid);
            if v.get("event").and_then(|e| e.as_str()) == Some("run_start") {
                starts += 1;
            }
        }
        // One run per request, and the events came from the pooled batch
        // workers, not the coordinating thread alone.
        assert_eq!(starts, 4, "{text}");
        tids.sort_unstable();
        tids.dedup();
        assert!(!tids.is_empty());
    }

    #[test]
    fn priorities_only_reorder_execution_not_results() {
        let service = OptimizerService::default();
        let reqs = vec![
            ServiceRequest::new(spec(GraphKind::Chain, 5, 0)).with_priority(Priority::Low),
            ServiceRequest::new(spec(GraphKind::Star, 5, 1)).with_priority(Priority::High),
        ];
        let results = service.submit_batch(&reqs, &NoopObserver);
        assert_eq!(results.len(), 2);
        assert!(results.iter().all(Result::is_ok));
        // Slot 0 is still the chain (5 relations, 4 edges).
        assert_eq!(results[0].as_ref().unwrap().result.tree.num_relations(), 5);
    }

    #[test]
    fn degraded_plans_are_not_cached() {
        let service = OptimizerService::default();
        // A cost budget of 0 always trips; with degradation the GOO rung
        // answers, and nothing must be stored.
        let req = ServiceRequest::new(spec(GraphKind::Clique, 7, 3))
            .with_cost_budget(0.0)
            .with_degradation();
        let r = &service.submit_batch(std::slice::from_ref(&req), &NoopObserver)[0];
        let r = r.as_ref().unwrap();
        assert!(r.degradation.is_some());
        assert_eq!(service.cache().unwrap().stats().stores, 0);
    }
}
