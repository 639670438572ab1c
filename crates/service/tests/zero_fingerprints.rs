//! Pinned behavior: with the cache disabled, the service never
//! canonicalizes a query — the zero-overhead promise of
//! `ServiceConfig { cache: None, .. }`.
//!
//! This lives in its own integration-test binary on purpose: it is the
//! sole user of the process-global [`fingerprints_computed`] counter,
//! so no concurrently running test can pollute the delta.

use joinopt_cost::workload;
use joinopt_qgraph::GraphKind;
use joinopt_service::{
    fingerprints_computed, OptimizerService, QuerySpec, ServiceConfig, ServiceRequest,
};
use joinopt_telemetry::NoopObserver;

#[test]
fn disabled_cache_computes_zero_fingerprints() {
    let service = OptimizerService::new(ServiceConfig {
        cache: None,
        ..ServiceConfig::default()
    });
    assert!(service.cache().is_none());

    let before = fingerprints_computed();
    let requests: Vec<ServiceRequest> = (0..6)
        .map(|seed| {
            let w = workload::family_workload(GraphKind::Cycle, 6, seed);
            let spec = QuerySpec::capture(&w.graph, &w.catalog).expect("cycle captures");
            ServiceRequest::new(spec)
        })
        .collect();
    let results = service.submit_batch(&requests, &NoopObserver);

    for r in &results {
        let outcome = r.as_ref().expect("cycles optimize");
        assert!(!outcome.cache_hit, "no cache, so no hits");
    }
    assert_eq!(
        fingerprints_computed(),
        before,
        "a cache-less service must not canonicalize anything"
    );
}
