//! Stars under `C_out`: the `Auto` route to IKKBZ is exact.
//!
//! A connected set of a star with two or more relations holds the hub,
//! so of two disjoint connected sets at most one is larger than a single
//! satellite, and every cross-product-free bushy tree adds one satellite
//! at a time to the set holding the hub; under the symmetric ASI cost
//! function `C_out` that is a left-deep order, and IKKBZ's rank sort
//! finds the best one. This suite pins that argument against bushy
//! DPccp on every star n = 3…16 over 20 seeds, and on a key/foreign-key
//! star schema.

use joinopt_core::{Algorithm, DpResult, OptimizeRequest, Session};
use joinopt_cost::{workload, Catalog};
use joinopt_plan::JoinTree;
use joinopt_qgraph::{generators, GraphKind, QueryGraph};

/// The conformance oracle's cross-family cost tolerance.
const COST_TOLERANCE: f64 = 1e-9;

fn run(
    graph: &QueryGraph,
    catalog: &Catalog,
    algorithm: Algorithm,
    session: &mut Session,
) -> (Algorithm, DpResult) {
    let outcome = OptimizeRequest::new(graph, catalog)
        .with_algorithm(algorithm)
        .with_threads(1)
        .run_in(session)
        .unwrap_or_else(|e| panic!("{algorithm:?}: {e}"));
    (outcome.algorithm, outcome.result)
}

/// Every join of `tree` connects its two inputs by an edge of `g`.
fn cross_product_free(g: &QueryGraph, tree: &JoinTree) -> bool {
    match tree {
        JoinTree::Scan { .. } => true,
        JoinTree::Join { left, right, .. } => {
            g.sets_connected(left.relations(), right.relations())
                && cross_product_free(g, left)
                && cross_product_free(g, right)
        }
    }
}

/// Checks IKKBZ against DPccp on one star and returns the relative gap.
fn check_star(graph: &QueryGraph, catalog: &Catalog, label: &str, session: &mut Session) -> f64 {
    let n = graph.num_relations();
    let (_, dp) = run(graph, catalog, Algorithm::DpCcp, session);
    let (_, ik) = run(graph, catalog, Algorithm::IkkBz, session);
    assert_eq!(ik.tree.relations(), graph.all_relations(), "{label}");
    assert!(cross_product_free(graph, &ik.tree), "{label}");
    assert_eq!(ik.tree.cost().to_bits(), ik.cost.to_bits(), "{label}");
    let gap = (ik.cost - dp.cost).abs() / ik.cost.abs().max(dp.cost.abs()).max(1.0);
    assert!(
        gap <= COST_TOLERANCE,
        "{label}: IKKBZ {} vs DPccp {}",
        ik.cost,
        dp.cost
    );
    // Each engine derives a set's cardinality along its own join order,
    // so the two costs may differ in the last bits either way; beyond
    // that, a left-deep plan cannot beat the bushy optimum.
    assert!(
        ik.cost >= dp.cost * (1.0 - COST_TOLERANCE),
        "{label}: IKKBZ {} below the bushy optimum {}",
        ik.cost,
        dp.cost
    );
    let (auto, auto_run) = run(graph, catalog, Algorithm::Auto, session);
    let want = if n >= Algorithm::IKKBZ_STAR_MIN_RELATIONS {
        Algorithm::IkkBz
    } else {
        Algorithm::DpCcp
    };
    assert_eq!(auto, want, "{label}");
    let expected = if want == Algorithm::IkkBz { &ik } else { &dp };
    assert_eq!(auto_run.cost.to_bits(), expected.cost.to_bits(), "{label}");
    gap
}

#[test]
fn ikkbz_matches_bushy_dpccp_on_every_star() {
    let mut session = Session::new();
    let mut cases = 0;
    let mut worst = 0.0f64;
    for n in 3..=16 {
        for seed in 0..20 {
            let w = workload::family_workload(GraphKind::Star, n, seed);
            let gap = check_star(
                &w.graph,
                &w.catalog,
                &format!("star n={n} seed={seed}"),
                &mut session,
            );
            worst = worst.max(gap);
            cases += 1;
        }
    }
    assert_eq!(cases, 280);
    assert!(worst <= COST_TOLERANCE, "worst relative gap {worst:e}");
}

#[test]
fn key_foreign_key_star_schema_of_fifteen() {
    // A fact table and 14 dimensions of 10 … 5·10⁵ rows, each joined on
    // its key: selectivity 1/|dimension|.
    let n = 15;
    let graph = generators::star(n).unwrap();
    let mut catalog = Catalog::new(&graph);
    catalog.set_cardinality(0, 1e8).unwrap();
    for d in 1..n {
        let card = 10.0 * 4.0_f64.powi(d as i32 - 1).min(500_000.0);
        catalog.set_cardinality(d, card).unwrap();
        catalog.set_selectivity(d - 1, 1.0 / card).unwrap();
    }
    check_star(
        &graph,
        &catalog,
        "key/foreign-key star",
        &mut Session::new(),
    );
}
