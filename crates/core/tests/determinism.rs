//! Thread-count determinism matrix for the parallel DPsub engine.
//!
//! Contract under test: for every algorithm with a parallel path
//! (the DPsub family), an [`OptimizeRequest`] must produce **the same
//! plan, bit for bit** — cost, cardinality, serialized tree shape,
//! counters and table size — at every thread count, and that plan must
//! be identical to the sequential [`JoinOrderer`] implementation's.
//! `plans_built` is deliberately excluded: the engine materializes one
//! node per DP entry, the sequential driver one per improvement (see
//! `joinopt_core::parallel`).
//!
//! DPccp inside a [`Session`] keeps `BestPlan` in the pooled
//! direct-addressed table the engine also uses; there the contract is
//! stricter — everything, `plans_built` included, equals the sparse
//! one-shot [`DpCcp`] run, whatever the session held before.

use std::cell::Cell;
use std::time::Duration;

use joinopt_core::table::DenseDpTable;
use joinopt_core::{
    Algorithm, CancelFlag, DpCcp, DpResult, JoinOrderer, OptimizeError, OptimizeRequest, Session,
};
use joinopt_cost::{workload, CostModel, Cout, HashJoin};
use joinopt_plan::JoinTree;
use joinopt_qgraph::{GraphKind, QueryGraph};
use joinopt_telemetry::{Event, Observer};

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// The algorithms that gained a parallel path in the request API.
const PARALLEL: [Algorithm; 3] = [
    Algorithm::DpSub,
    Algorithm::DpSubUnfiltered,
    Algorithm::DpSubCrossProducts,
];

/// Serializes a join tree to a canonical string so shape differences
/// (operand order, bushiness) cannot hide behind equal costs.
fn shape(t: &JoinTree) -> String {
    match t {
        JoinTree::Scan { relation, .. } => format!("R{relation}"),
        JoinTree::Join { left, right, .. } => format!("({} {})", shape(left), shape(right)),
    }
}

#[test]
fn parallel_paths_are_bit_identical_across_thread_counts() {
    for kind in GraphKind::ALL {
        for n in [6, 9, 10] {
            let w = workload::family_workload(kind, n, n as u64);
            for alg in PARALLEL {
                let seq = alg
                    .orderer(&w.graph)
                    .optimize(&w.graph, &w.catalog, &Cout)
                    .unwrap();
                for threads in THREADS {
                    let ctx = format!("{kind} n={n} {alg:?} t={threads}");
                    let par = OptimizeRequest::new(&w.graph, &w.catalog)
                        .with_algorithm(alg)
                        .with_threads(threads)
                        .run()
                        .unwrap()
                        .result;
                    assert_eq!(seq.cost.to_bits(), par.cost.to_bits(), "cost {ctx}");
                    assert_eq!(
                        seq.cardinality.to_bits(),
                        par.cardinality.to_bits(),
                        "cardinality {ctx}"
                    );
                    assert_eq!(shape(&seq.tree), shape(&par.tree), "tree shape {ctx}");
                    assert_eq!(seq.tree, par.tree, "tree {ctx}");
                    assert_eq!(seq.counters, par.counters, "counters {ctx}");
                    assert_eq!(seq.table_size, par.table_size, "table size {ctx}");
                }
            }
        }
    }
}

#[test]
fn determinism_holds_under_asymmetric_cost_models() {
    // HashJoin breaks cost-tie symmetry between operand orders, which is
    // exactly where a nondeterministic merge would betray itself.
    for kind in [GraphKind::Star, GraphKind::Clique] {
        let w = workload::family_workload(kind, 10, 77);
        let baseline = OptimizeRequest::new(&w.graph, &w.catalog)
            .with_algorithm(Algorithm::DpSub)
            .with_cost_model(&HashJoin)
            .with_threads(1)
            .run()
            .unwrap()
            .result;
        for threads in THREADS {
            let par = OptimizeRequest::new(&w.graph, &w.catalog)
                .with_algorithm(Algorithm::DpSub)
                .with_cost_model(&HashJoin)
                .with_threads(threads)
                .run()
                .unwrap()
                .result;
            assert_eq!(baseline.cost.to_bits(), par.cost.to_bits(), "{kind}");
            assert_eq!(shape(&baseline.tree), shape(&par.tree), "{kind}");
        }
    }
}

#[test]
fn pooled_sessions_do_not_leak_state_between_queries() {
    // Interleave different graphs through one session at varying thread
    // counts; every answer must match a fresh one-shot run.
    let mut session = Session::new();
    for round in 0..3 {
        for kind in GraphKind::ALL {
            let n = 5 + round;
            let w = workload::family_workload(kind, n, round as u64);
            for threads in [2, 1, 4] {
                let pooled = OptimizeRequest::new(&w.graph, &w.catalog)
                    .with_algorithm(Algorithm::DpSub)
                    .with_threads(threads)
                    .run_in(&mut session)
                    .unwrap()
                    .result;
                let fresh = OptimizeRequest::new(&w.graph, &w.catalog)
                    .with_algorithm(Algorithm::DpSub)
                    .with_threads(threads)
                    .run()
                    .unwrap()
                    .result;
                assert_eq!(pooled.cost.to_bits(), fresh.cost.to_bits());
                assert_eq!(pooled.tree, fresh.tree);
                assert_eq!(pooled.counters, fresh.counters);
            }
        }
    }
}

#[test]
fn cross_products_handle_disconnected_graphs_at_any_thread_count() {
    // Only the Vance/Maier variant accepts disconnected graphs; its
    // parallel path must too, identically.
    // Two components: the 0-1-2-3 chain and the 4-5-6-7 chain.
    let mut g = QueryGraph::new(8).unwrap();
    for (a, b) in [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)] {
        g.add_edge(a, b).unwrap();
    }
    let cat = joinopt_cost::Catalog::new(&g);
    let seq = Algorithm::DpSubCrossProducts
        .orderer(&g)
        .optimize(&g, &cat, &Cout)
        .unwrap();
    for threads in THREADS {
        let par = OptimizeRequest::new(&g, &cat)
            .with_algorithm(Algorithm::DpSubCrossProducts)
            .with_threads(threads)
            .run()
            .unwrap()
            .result;
        assert_eq!(seq.cost.to_bits(), par.cost.to_bits(), "t={threads}");
        assert_eq!(seq.tree, par.tree, "t={threads}");
        assert_eq!(seq.table_size, par.table_size, "t={threads}");
    }
    // The connectivity-requiring variants still reject it, at any
    // thread count.
    for threads in [1, 4] {
        assert!(OptimizeRequest::new(&g, &cat)
            .with_algorithm(Algorithm::DpSub)
            .with_threads(threads)
            .run()
            .is_err());
    }
}

#[test]
fn boundary_sizes_are_bit_identical_at_full_thread_fanout() {
    // n = 1 (no joins at all) and n = 2 (a single join) leave most
    // worker threads with empty chunks; the merge must still reproduce
    // the sequential answer bit for bit.
    for n in [1usize, 2] {
        let mut g = QueryGraph::new(n).unwrap();
        if n == 2 {
            g.add_edge(0, 1).unwrap();
        }
        let cat = joinopt_cost::Catalog::new(&g);
        for alg in PARALLEL {
            let ctx = format!("n={n} {alg:?}");
            let seq = alg.orderer(&g).optimize(&g, &cat, &Cout).unwrap();
            let par = OptimizeRequest::new(&g, &cat)
                .with_algorithm(alg)
                .with_threads(8)
                .run()
                .unwrap()
                .result;
            assert_eq!(seq.cost.to_bits(), par.cost.to_bits(), "cost {ctx}");
            assert_eq!(seq.tree, par.tree, "tree {ctx}");
            assert_eq!(seq.counters, par.counters, "counters {ctx}");
            assert_eq!(seq.table_size, par.table_size, "table size {ctx}");
        }
    }
}

#[test]
fn oversubscribed_thread_counts_stay_bit_identical() {
    // Requesting far more threads than the machine has cores must not
    // change the result — chunking is by requested thread count, so
    // this exercises many tiny chunks and heavy scheduler interleaving.
    let requested = std::thread::available_parallelism()
        .map(|p| p.get() * 4)
        .unwrap_or(64)
        .max(32);
    for kind in GraphKind::ALL {
        let w = workload::family_workload(kind, 9, 13);
        let seq = Algorithm::DpSub
            .orderer(&w.graph)
            .optimize(&w.graph, &w.catalog, &Cout)
            .unwrap();
        let par = OptimizeRequest::new(&w.graph, &w.catalog)
            .with_algorithm(Algorithm::DpSub)
            .with_threads(requested)
            .run()
            .unwrap()
            .result;
        let ctx = format!("{kind} t={requested}");
        assert_eq!(seq.cost.to_bits(), par.cost.to_bits(), "cost {ctx}");
        assert_eq!(seq.tree, par.tree, "tree {ctx}");
        assert_eq!(seq.counters, par.counters, "counters {ctx}");
        assert_eq!(seq.table_size, par.table_size, "table size {ctx}");
    }
}

/// Sets `flag` once the run has evaluated `after` candidate joins, so a
/// run stops mid-enumeration at a deterministic point.
struct CancelAfter {
    flag: CancelFlag,
    after: u64,
    seen: Cell<u64>,
}

impl Observer for CancelAfter {
    fn wants_provenance(&self) -> bool {
        true
    }

    fn on_event(&self, event: Event) {
        if let Event::PlanCandidate { .. } = event {
            self.seen.set(self.seen.get() + 1);
            if self.seen.get() == self.after {
                self.flag.cancel();
            }
        }
    }
}

/// `got` equals the sparse one-shot DPccp run in every field.
fn assert_matches_sparse(got: &DpResult, w: &workload::Workload, model: &dyn CostModel, ctx: &str) {
    let want = DpCcp.optimize(&w.graph, &w.catalog, model).unwrap();
    assert_eq!(got.cost.to_bits(), want.cost.to_bits(), "cost {ctx}");
    assert_eq!(
        got.cardinality.to_bits(),
        want.cardinality.to_bits(),
        "cardinality {ctx}"
    );
    assert_eq!(got.tree, want.tree, "tree {ctx}");
    assert_eq!(got.counters, want.counters, "counters {ctx}");
    assert_eq!(got.table_size, want.table_size, "table size {ctx}");
    assert_eq!(got.plans_built, want.plans_built, "plans built {ctx}");
}

fn pooled_dpccp<'a>(w: &'a workload::Workload, model: &'a dyn CostModel) -> OptimizeRequest<'a> {
    OptimizeRequest::new(&w.graph, &w.catalog)
        .with_algorithm(Algorithm::DpCcp)
        .with_cost_model(model)
}

/// One DPccp query through `session`, which must serve it on the pooled
/// table and match the sparse run.
fn check_pooled(session: &mut Session, model: &dyn CostModel, kind: GraphKind, n: usize) {
    let w = workload::family_workload(kind, n, n as u64);
    let runs = session.runs();
    let got = pooled_dpccp(&w, model).run_in(session).unwrap().result;
    let ctx = format!("{} {kind} n={n}", model.name());
    assert_eq!(session.runs(), runs + 1, "{ctx} ran on the pooled table");
    assert_matches_sparse(&got, &w, model, &ctx);
}

#[test]
fn pooled_dpccp_never_sees_stale_state() {
    let sequence = [
        (GraphKind::Star, 16),
        (GraphKind::Chain, 6),
        (GraphKind::Cycle, 12),
        (GraphKind::Star, 14),
    ];
    let models: [&dyn CostModel; 2] = [&Cout, &HashJoin];
    for model in models {
        let mut session = Session::new();
        for (kind, n) in sequence {
            check_pooled(&mut session, model, kind, n);
        }

        // Cancelled mid-enumeration: the table is left half-written.
        let w = workload::family_workload(GraphKind::Star, 16, 4);
        let flag = CancelFlag::new();
        let obs = CancelAfter {
            flag: flag.clone(),
            after: 5_000,
            seen: Cell::new(0),
        };
        let err = pooled_dpccp(&w, model)
            .with_cancel_flag(flag)
            .with_observer(&obs)
            .run_in(&mut session)
            .unwrap_err();
        assert_eq!(err, OptimizeError::Cancelled);
        for (kind, n) in sequence.iter().rev() {
            check_pooled(&mut session, model, *kind, *n);
        }

        // A zero time budget trips before the first pair, a short one
        // (if the machine is slow enough) somewhere inside the run.
        for budget in [Duration::ZERO, Duration::from_millis(1)] {
            let w = workload::family_workload(GraphKind::Star, 16, 6);
            match pooled_dpccp(&w, model)
                .with_time_budget(budget)
                .run_in(&mut session)
            {
                Err(OptimizeError::TimeBudgetExceeded { .. }) => {}
                Ok(outcome) => assert_matches_sparse(&outcome.result, &w, model, "1 ms budget"),
                Err(e) => panic!("unexpected {e}"),
            }
            check_pooled(&mut session, model, GraphKind::Cycle, 12);
        }

        // A memory trip mid-level in the DPsub engine, which shares the
        // pooled table: the budget covers the slots, not every level's
        // plan nodes.
        let w = workload::family_workload(GraphKind::Clique, 12, 8);
        let err = OptimizeRequest::new(&w.graph, &w.catalog)
            .with_algorithm(Algorithm::DpSub)
            .with_cost_model(model)
            .with_threads(1)
            .with_memory_budget(DenseDpTable::bytes_for(12) + 8 * 1024)
            .run_in(&mut session)
            .unwrap_err();
        assert!(
            matches!(err, OptimizeError::MemoryBudgetExceeded { .. }),
            "{err}"
        );
        for (kind, n) in sequence {
            check_pooled(&mut session, model, kind, n);
        }
    }
}
