//! Pinned behavior: under an observer that wants no stage spans, the
//! gateway's request path reads the clock a **fixed, minimal** number
//! of times and produces bit-identical plans — the zero-overhead
//! promise of the serve-path tracing, mirroring the core engine's
//! `engine_clock_reads()` contract for the service layer. It holds for
//! the disabled [`NoopObserver`] and for the enabled
//! [`RegistryObserver`] that `joinopt serve --no-trace` runs under.
//!
//! This lives in its own integration-test binary on purpose: it is the
//! sole user of the process-global [`clock_reads`] counter, so no
//! concurrently running test can pollute the deltas. Everything runs
//! under a manual clock; no wall time is read outside the counter.

use std::time::Duration;

use joinopt_cost::workload;
use joinopt_qgraph::GraphKind;
use joinopt_service::{
    clock_reads, Clock, Gateway, GatewayConfig, OptimizerService, QuerySpec, ServiceConfig,
    ServiceOutcome, ServiceRequest,
};
use joinopt_telemetry::{
    Fanout, MetricsRegistry, NoopObserver, Observer, RegistryObserver, RequestTrace, TraceSink,
};

fn request(seed: u64) -> ServiceRequest {
    let w = workload::family_workload(GraphKind::Chain, 6, seed);
    let spec = QuerySpec::capture(&w.graph, &w.catalog).expect("chain captures");
    ServiceRequest::new(spec)
}

fn manual_gateway() -> Gateway {
    Gateway::with_clock(
        OptimizerService::new(ServiceConfig::default()),
        GatewayConfig::default(),
        Clock::manual(),
    )
}

/// Runs a cold, a warm and a deadlined request under `obs` on a fresh
/// gateway, pins each to its minimal clock-read count, and returns the
/// cold outcome.
fn assert_spanless_reads(obs: &dyn Observer, label: &str) -> ServiceOutcome {
    let gateway = manual_gateway();
    let mut session = None;
    let req = request(0);

    // No deadline: admission stamp + breaker admission — two reads,
    // cold or warm. Any third read is span tracing leaking into the
    // fast path.
    let before = clock_reads();
    let cold = gateway
        .handle(&req, None, &mut session, obs)
        .expect("cold optimize");
    assert!(!cold.cache_hit);
    assert_eq!(
        clock_reads() - before,
        2,
        "{label}: cold request must cost exactly two clock reads"
    );

    let before = clock_reads();
    let warm = gateway
        .handle(&req, None, &mut session, obs)
        .expect("warm optimize");
    assert!(warm.cache_hit);
    assert_eq!(
        clock_reads() - before,
        2,
        "{label}: warm request must cost exactly two clock reads"
    );

    // A lifecycle deadline adds exactly one read per attempt (the
    // remaining-allowance computation), nothing more.
    let before = clock_reads();
    gateway
        .handle(&req, Some(Duration::from_secs(10)), &mut session, obs)
        .expect("deadlined optimize");
    assert_eq!(
        clock_reads() - before,
        3,
        "{label}: a deadline costs exactly one extra read per attempt"
    );
    cold
}

/// One test function on purpose: the counter is global, so the checks
/// must run sequentially even under the default parallel test runner.
#[test]
fn untraced_serve_path_is_zero_overhead() {
    let cold = assert_spanless_reads(&NoopObserver, "NoopObserver");

    // Enabled, but wanting no spans: the registry receives the serve
    // events yet costs the request path no extra clock read.
    let registry = MetricsRegistry::new();
    let registry_obs = RegistryObserver::new(&registry);
    let registry_cold = assert_spanless_reads(&registry_obs, "RegistryObserver");
    assert_eq!(
        registry
            .snapshot()
            .counter("joinopt_serve_accepted_total", &[("priority", "normal")]),
        Some(3),
        "the registry saw every admitted request"
    );
    assert_eq!(
        registry_cold.result.cost.to_bits(),
        cold.result.cost.to_bits()
    );

    // Traced — the registry teed with a span sink, as the server runs —
    // the same request pays for its span boundaries, strictly more
    // reads, while the plan's cost bits stay identical: tracing
    // observes the computation, never steers it.
    let traced_gateway = manual_gateway();
    let mut traced_session = None;
    let req = request(0);
    let sink = TraceSink::new(RequestTrace::new(
        "t-overhead".to_string(),
        &req.tenant,
        "optimize",
        traced_gateway.clock().now_ns(),
    ));
    let sinks: [&dyn Observer; 2] = [&registry_obs, &sink];
    let before = clock_reads();
    let traced = traced_gateway
        .handle(&req, None, &mut traced_session, &Fanout::new(&sinks))
        .expect("traced optimize");
    let traced_reads = clock_reads() - before;
    assert!(
        traced_reads > 2,
        "tracing must actually record span boundaries ({traced_reads} reads)"
    );
    let trace = sink.into_trace();
    assert_eq!(trace.open_count(), 0, "all spans closed on success");
    assert!(
        trace.spans().iter().any(|s| s.stage == "optimize"),
        "cold traced request records an optimize span"
    );
    assert_eq!(
        traced.result.cost.to_bits(),
        cold.result.cost.to_bits(),
        "traced and untraced plans must be bit-identical"
    );
    assert_eq!(
        traced.result.cardinality.to_bits(),
        cold.result.cardinality.to_bits()
    );
}
