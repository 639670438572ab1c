//! The optimizer service, end to end:
//!
//! 1. capture borrowed graphs + catalogs into owned, hashable
//!    [`QuerySpec`]s and submit them as a prioritized, multi-tenant
//!    batch;
//! 2. watch the plan cache work — the same logical query relabeled and
//!    resubmitted is answered from the cache, bit-identical to its cold
//!    run, because cache keys are *canonical fingerprints*, not raw
//!    specs.
//!
//! Run with: `cargo run --release --example optimizer_service`

use joinopt::prelude::*;
use joinopt_cost::workload;
use joinopt_qgraph::bfs;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. A mixed, multi-tenant batch. ------------------------------
    let service = OptimizerService::default();
    let workloads: Vec<_> = (0..4)
        .map(|i| workload::family_workload(GraphKind::ALL[i % 4], 7 + i % 2, i as u64))
        .collect();
    let requests: Vec<ServiceRequest> = workloads
        .iter()
        .enumerate()
        .map(|(i, w)| {
            Ok(
                ServiceRequest::new(QuerySpec::capture(&w.graph, &w.catalog)?)
                    .with_tenant(if i % 2 == 0 { "alice" } else { "bob" })
                    .with_priority(if i == 3 {
                        Priority::High
                    } else {
                        Priority::Normal
                    }),
            )
        })
        .collect::<Result<_, OptimizeError>>()?;
    let results = service.submit_batch(&requests, &NoopObserver);
    println!("batch of {} requests across two tenants:", results.len());
    for (i, r) in results.iter().enumerate() {
        let r = r.as_ref().expect("every family workload optimizes");
        println!(
            "  #{i}  tenant={}  algorithm={:?}  cost={:.6e}",
            requests[i].tenant, r.algorithm, r.result.cost
        );
    }

    // --- 2. The cache sees through relabeling. ------------------------
    let w = workload::family_workload(GraphKind::Star, 7, 42);
    let spec = QuerySpec::capture(&w.graph, &w.catalog)?;
    let cold = &service.submit_batch(&[ServiceRequest::new(spec.clone())], &NoopObserver)[0];
    let cold = cold.as_ref().expect("star optimizes");

    // The same query with its relations renumbered: a different spec,
    // the same canonical fingerprint.
    let order: Vec<usize> = (0..7).rev().collect();
    let renumbered = bfs::renumber(&w.graph, &order);
    let mut catalog = Catalog::with_shape(7, w.graph.num_edges());
    for (new, &old) in order.iter().enumerate() {
        catalog.set_cardinality(new, w.catalog.cardinality(old))?;
    }
    for e in 0..w.graph.num_edges() {
        catalog.set_selectivity(e, w.catalog.selectivity(e))?;
    }
    let relabeled = QuerySpec::capture(&renumbered, &catalog)?;
    assert_ne!(spec, relabeled, "different specs…");
    let warm = &service.submit_batch(&[ServiceRequest::new(relabeled)], &NoopObserver)[0];
    let warm = warm.as_ref().expect("relabeled star optimizes");
    assert!(warm.cache_hit, "…but the same canonical query");
    println!(
        "\nrelabeled resubmission: cache_hit={} cost={:.6e} (cold {:.6e})",
        warm.cache_hit, warm.result.cost, cold.result.cost
    );
    let stats = service.cache().expect("cache configured").stats();
    println!(
        "cache: {} hits / {} misses / {} stores, {} bytes in {} entries",
        stats.hits, stats.misses, stats.stores, stats.bytes, stats.entries
    );
    Ok(())
}
