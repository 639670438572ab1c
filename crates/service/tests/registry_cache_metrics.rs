//! Pinned behavior: cache observer events fold into the
//! [`MetricsRegistry`] as the `joinopt_cache_*` series, and the folded
//! numbers agree with the cache's own [`CacheStats`].

use joinopt_cost::workload;
use joinopt_qgraph::GraphKind;
use joinopt_service::{OptimizerService, QuerySpec, ServiceConfig, ServiceRequest};
use joinopt_telemetry::{MetricsRegistry, RegistryObserver};

fn spec(kind: GraphKind, n: usize, seed: u64) -> QuerySpec {
    let w = workload::family_workload(kind, n, seed);
    QuerySpec::capture(&w.graph, &w.catalog).expect("family workloads capture")
}

#[test]
fn hit_and_miss_counters_fold_into_the_registry_snapshot() {
    // One worker so the identical specs execute in order: the first
    // submission misses and stores, the remaining two hit.
    let service = OptimizerService::new(ServiceConfig {
        worker_threads: 1,
        ..ServiceConfig::default()
    });
    let chain = spec(GraphKind::Chain, 6, 9);
    let requests = [
        ServiceRequest::new(chain.clone()),
        ServiceRequest::new(spec(GraphKind::Star, 6, 9)),
        ServiceRequest::new(chain.clone()),
        ServiceRequest::new(chain),
    ];

    let registry = MetricsRegistry::new();
    let observer = RegistryObserver::new(&registry);
    let results = service.submit_batch(&requests, &observer);
    assert!(results.iter().all(|r| r.is_ok()));

    let snapshot = registry.snapshot();
    assert_eq!(snapshot.counter("joinopt_cache_hits_total", &[]), Some(2));
    assert_eq!(snapshot.counter("joinopt_cache_misses_total", &[]), Some(2));
    assert_eq!(snapshot.counter("joinopt_cache_stores_total", &[]), Some(2));
    let bytes = snapshot
        .gauge("joinopt_cache_bytes", &[])
        .expect("stores set the bytes gauge");
    assert!(bytes > 0, "two stored plans occupy bytes, got {bytes}");

    // The folded series agrees with the cache's own accounting.
    let stats = service.cache().expect("cache on by default").stats();
    assert_eq!(stats.hits, 2);
    assert_eq!(stats.misses, 2);
    assert_eq!(stats.stores, 2);
    assert_eq!(stats.bytes as i64, bytes);

    // And the exporter carries them through.
    let prom = snapshot.to_prometheus();
    assert!(prom.contains("joinopt_cache_hits_total 2"), "{prom}");
    assert!(prom.contains("joinopt_cache_misses_total 2"), "{prom}");
}
