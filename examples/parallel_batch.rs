//! The parallel engine and the batch API, end to end:
//!
//! 1. one query at several thread counts — bit-identical plans, because
//!    the level-synchronous engine merges worker results in a
//!    deterministic order at every level barrier;
//! 2. a pooled [`Session`] amortizing DP-table and plan-arena
//!    allocations across repeated runs;
//! 3. [`OptimizerService::submit_batch`] spreading a mixed workload
//!    across its worker pool, one query per thread.
//!
//! Run with: `cargo run --release --example parallel_batch`

use joinopt::prelude::*;
use joinopt_cost::workload;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. One clique query, every thread count, one answer. --------
    let w = workload::family_workload(GraphKind::Clique, 12, 9);
    println!("clique n=12, DPsub on the level-synchronous engine:\n");
    let mut reference: Option<DpResult> = None;
    for threads in [1, 2, 4, 8] {
        let outcome = OptimizeRequest::new(&w.graph, &w.catalog)
            .with_algorithm(Algorithm::DpSub)
            .with_threads(threads)
            .run()?;
        println!(
            "  threads={threads}  time={:>10}  cost={:.6e}",
            format!("{:.2?}", outcome.elapsed),
            outcome.result.cost,
        );
        let result = outcome.into_result();
        if let Some(r) = &reference {
            assert_eq!(r.cost.to_bits(), result.cost.to_bits());
            assert_eq!(r.tree, result.tree);
            assert_eq!(r.counters, result.counters);
        }
        reference = Some(result);
    }
    println!("  → identical plan, cost and counters at every thread count ✓\n");

    // --- 2. Session pooling across repeated optimizations. -----------
    let mut session = Session::new();
    for kind in GraphKind::ALL {
        let w = workload::family_workload(kind, 11, 3);
        OptimizeRequest::new(&w.graph, &w.catalog)
            .with_algorithm(Algorithm::DpSub)
            .run_in(&mut session)?;
    }
    println!(
        "session pooled {} runs holding {} bytes of reusable buffers\n",
        session.runs(),
        session.pooled_bytes(),
    );

    // --- 3. A batch of queries, one worker thread each. ---------------
    let specs = (0..6)
        .map(|i| {
            let w = workload::family_workload(GraphKind::ALL[i % 4], 8 + i % 3, i as u64);
            QuerySpec::capture(&w.graph, &w.catalog)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let requests: Vec<_> = specs.into_iter().map(ServiceRequest::new).collect();
    let service = OptimizerService::new(ServiceConfig {
        cache: None,
        ..ServiceConfig::default()
    });
    let results = service.submit_batch(&requests, &NoopObserver);
    println!("batch of {} queries:", results.len());
    for (i, r) in results.iter().enumerate() {
        let r = &r.as_ref().expect("connected workloads optimize").result;
        println!("  #{i}  cost={:.6e}  {}", r.cost, r.tree);
    }
    Ok(())
}
