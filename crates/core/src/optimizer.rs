//! [`Algorithm`]: the algorithm catalogue and adaptive (`Auto`) selection.

use joinopt_cost::CostModel;
use joinopt_qgraph::{QueryGraph, RelIdx};

use crate::annealing::SimulatedAnnealing;
use crate::dpccp::DpCcp;
use crate::dpconv::DpConv;
use crate::dpsize::{DpSize, DpSizeNaive};
use crate::dpsub::{DpSub, DpSubCrossProducts, DpSubUnfiltered};
use crate::greedy::Goo;
use crate::idp::Idp;
use crate::ikkbz::IkkBz;
use crate::leftdeep::DpSizeLeftDeep;
use crate::result::JoinOrderer;
use crate::topdown::TopDown;

/// Selects which join-ordering algorithm runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Algorithm {
    /// Size-driven DP (optimized variant).
    DpSize,
    /// Literal Fig. 1 pseudocode (ablation).
    DpSizeNaive,
    /// Subset-driven DP with the `*` pre-check.
    DpSub,
    /// Subset-driven DP without the pre-check (ablation).
    DpSubUnfiltered,
    /// Vance/Maier with cross products.
    DpSubCrossProducts,
    /// csg-cmp-pair driven DP (the paper's new algorithm).
    DpCcp,
    /// Subset-convolution DP over the popcount-ranked lattice (DPconv);
    /// exact, but only for `C_out`-shaped cost models.
    DpConv,
    /// Size-driven DP restricted to left-deep trees (Selinger space).
    DpSizeLeftDeep,
    /// Iterative DP (IDP-1, Kossmann & Stocker): near-optimal plans for
    /// queries too large for exact DP.
    Idp,
    /// Seeded simulated annealing over bushy trees (randomized baseline).
    SimulatedAnnealing,
    /// Top-down memoized partitioning with branch-and-bound pruning.
    TopDown,
    /// Greedy Operator Ordering (non-optimal baseline).
    Goo,
    /// IKKBZ rank sort: the optimal left-deep order of an acyclic query
    /// under `C_out`, which on a star is also the bushy optimum (see
    /// [`Algorithm::IKKBZ_STAR_MIN_RELATIONS`]). Refuses cyclic graphs
    /// and non-`C_out` models.
    IkkBz,
    /// Adapt to the query graph (see [`Algorithm::select_auto_from_edges`]).
    #[default]
    Auto,
}

impl Algorithm {
    /// The concrete algorithms that plan every connected graph: all but
    /// `Auto` and [`Algorithm::IkkBz`], which needs a tree.
    pub const CONCRETE: [Algorithm; 12] = [
        Algorithm::DpSize,
        Algorithm::DpSizeNaive,
        Algorithm::DpSub,
        Algorithm::DpSubUnfiltered,
        Algorithm::DpSubCrossProducts,
        Algorithm::DpCcp,
        Algorithm::DpConv,
        Algorithm::TopDown,
        Algorithm::DpSizeLeftDeep,
        Algorithm::Idp,
        Algorithm::SimulatedAnnealing,
        Algorithm::Goo,
    ];

    /// Smallest query size at which `Auto` prefers [`DpConv`] over the
    /// DPsub/DPccp pair on dense `C_out` queries.
    ///
    /// Measured on the `joinopt perf` clique matrix: DPconv and DPsub
    /// relax the same `Θ(3ⁿ)` candidate space on a clique, but DPconv's
    /// per-*set* cardinality term and witness-only table make its inner
    /// loop three array reads and one compare, with no hash-table or
    /// per-split estimator work — it wins at *every* measured clique
    /// size (2–4× from n = 4 up), so this floor is not a performance
    /// crossover. Below it every exact algorithm finishes in tens of
    /// microseconds and `Auto` keeps the longest-validated DPsub; from
    /// 12 relations the absolute gap turns material (milliseconds) and
    /// the lighter loop is worth the engine switch (see
    /// `docs/ALGORITHMS.md` §7 for the measured data).
    pub const DPCONV_MIN_RELATIONS: usize = 12;

    /// Smallest star at which `Auto` sends a `C_out` query to
    /// [`IkkBz`] instead of DPccp.
    ///
    /// On a star every cross-product-free bushy tree adds one satellite
    /// at a time to the set holding the hub, so the bushy optimum is an
    /// order of the satellites, and under the ASI cost function `C_out`
    /// IKKBZ's rank sort finds it exactly. DPccp still pays its
    /// `(n − 1)·2ⁿ⁻²` csg-cmp pairs for the same answer. The measured
    /// crossover is near n = 8; below this floor both finish in under
    /// 0.25 ms, so the smaller stars keep DPccp, its `#ccp` counters and
    /// its DP decision table (see `docs/ALGORITHMS.md` §8 for the
    /// measured times).
    pub const IKKBZ_STAR_MIN_RELATIONS: usize = 12;

    /// Resolves `Auto` for a given graph and `threads` available worker
    /// threads, blind to the cost model: the DPsub/DPccp pair only.
    ///
    /// See [`Algorithm::select_auto_from_edges`] for the policy.
    pub fn select_auto_with_parallelism(g: &QueryGraph, threads: usize) -> Algorithm {
        Algorithm::select_auto_from_edges(
            g.num_relations(),
            g.edges().iter().map(|e| (e.u, e.v)),
            threads,
            None,
        )
    }

    /// Resolves `Auto` for a given graph, thread count *and* cost model
    /// — the resolution [`crate::OptimizeRequest`] uses.
    ///
    /// See [`Algorithm::select_auto_from_edges`] for the policy.
    pub fn select_auto_with_model(
        g: &QueryGraph,
        threads: usize,
        model: &dyn CostModel,
    ) -> Algorithm {
        Algorithm::select_auto_from_edges(
            g.num_relations(),
            g.edges().iter().map(|e| (e.u, e.v)),
            threads,
            Some(model),
        )
    }

    /// The `Auto` policy, over the query's relation count and edge list
    /// so a caller holding only an owned description (the service's
    /// cache path) resolves without instantiating a graph. Every other
    /// resolution in the workspace calls this one. The edge endpoints
    /// are consumed only for a `C_out` query shaped like a large star;
    /// every other query reads just the iterator's length.
    ///
    /// The paper's evaluation shows DPccp is the best or near-best choice
    /// everywhere; its only (bounded, ≤ 30 %) loss is against DPsub on
    /// very dense graphs, where the subset enumeration's trivial inner
    /// loop beats the more complex csg machinery. `Auto` therefore picks
    /// DPsub when the graph is (near-)complete and DPccp otherwise.
    ///
    /// Parallelism shifts the break-even point: DPsub has a parallel
    /// level-synchronous path (see [`crate::parallel`]) while DPccp's
    /// csg-cmp-pair traversal does not, so spare worker threads buy back
    /// DPsub's wasted inner-loop iterations on graphs that are dense but
    /// not complete. The density threshold (fraction of all possible
    /// edges present) is therefore:
    ///
    /// | threads | threshold |
    /// |--------:|----------:|
    /// | 1       | 90 %      |
    /// | 2–3     | 80 %      |
    /// | ≥ 4     | 70 %      |
    ///
    /// Queries too large for DPsub's direct-addressed tables
    /// (`n >` [`crate::table::DenseDpTable::MAX_RELATIONS`]) resolve to
    /// DPccp — at that size DPsub's `Θ(3ⁿ)` enumeration is hopeless no
    /// matter how many threads are available.
    ///
    /// Two choices depend on the cost model, and `model: None` leaves
    /// both out. Where `model` is `C_out`-shaped
    /// ([`CostModel::is_cout_shaped`]):
    ///
    /// * a star of [`Algorithm::IKKBZ_STAR_MIN_RELATIONS`] or more
    ///   relations, at any size, resolves to [`IkkBz`], which is exact
    ///   there;
    /// * a dense graph of [`Algorithm::DPCONV_MIN_RELATIONS`] or more
    ///   relations resolves to the subset-convolution engine [`DpConv`]
    ///   in place of DPsub.
    ///
    /// The guard on the model is load-bearing: both engines refuse
    /// non-`C_out` models with a typed error, so `Auto` must never route
    /// a `HashJoin`-costed query to them.
    pub fn select_auto_from_edges(
        relations: usize,
        edges: impl ExactSizeIterator<Item = (RelIdx, RelIdx)>,
        threads: usize,
        model: Option<&dyn CostModel>,
    ) -> Algorithm {
        let n = relations;
        let m = edges.len();
        if m + 1 == n
            && n >= Algorithm::IKKBZ_STAR_MIN_RELATIONS
            && model.is_some_and(|c| c.is_cout_shaped())
            && has_star_hub(n, edges)
        {
            return Algorithm::IkkBz;
        }
        if !(2..=crate::parallel::MAX_ENGINE_RELATIONS).contains(&n) {
            return Algorithm::DpCcp;
        }
        let threshold_pct = match threads {
            0 | 1 => 90,
            2 | 3 => 80,
            _ => 70,
        };
        if 100 * m < threshold_pct * (n * (n - 1) / 2) {
            return Algorithm::DpCcp;
        }
        if n >= Algorithm::DPCONV_MIN_RELATIONS && model.is_some_and(|c| c.is_cout_shaped()) {
            return Algorithm::DpConv;
        }
        Algorithm::DpSub
    }

    /// The underlying [`JoinOrderer`]. The orderer runs sequentially
    /// under whatever cost model its caller passes, so `Auto` resolves
    /// with the model-blind one-thread rule.
    pub fn orderer(self, g: &QueryGraph) -> &'static dyn JoinOrderer {
        match self {
            Algorithm::DpSize => &DpSize,
            Algorithm::DpSizeNaive => &DpSizeNaive,
            Algorithm::DpSub => &DpSub,
            Algorithm::DpSubUnfiltered => &DpSubUnfiltered,
            Algorithm::DpSubCrossProducts => &DpSubCrossProducts,
            Algorithm::DpCcp => &DpCcp,
            Algorithm::DpConv => &DpConv,
            Algorithm::DpSizeLeftDeep => &DpSizeLeftDeep,
            Algorithm::Idp => {
                const DEFAULT_IDP: Idp = Idp::with_block_size(10);
                &DEFAULT_IDP
            }
            Algorithm::SimulatedAnnealing => {
                const DEFAULT_SA: SimulatedAnnealing = SimulatedAnnealing {
                    iterations: 20_000,
                    initial_temperature: 0.5,
                    cooling: 0.9995,
                    seed: 2006,
                };
                &DEFAULT_SA
            }
            Algorithm::TopDown => {
                const DEFAULT_TD: TopDown = TopDown { pruning: true };
                &DEFAULT_TD
            }
            Algorithm::Goo => &Goo,
            Algorithm::IkkBz => &IkkBz,
            Algorithm::Auto => Algorithm::select_auto_with_parallelism(g, 1).orderer(g),
        }
    }

    /// The lower-case wire name: the id the CLI's `--algorithm` and the
    /// serve protocol accept and echo.
    pub fn wire_name(self) -> &'static str {
        match self {
            Algorithm::DpSize => "dpsize",
            Algorithm::DpSizeNaive => "dpsize-naive",
            Algorithm::DpSub => "dpsub",
            Algorithm::DpSubUnfiltered => "dpsub-nofilter",
            Algorithm::DpSubCrossProducts => "dpsub-cp",
            Algorithm::DpCcp => "dpccp",
            Algorithm::DpConv => "dpconv",
            Algorithm::DpSizeLeftDeep => "dpsize-leftdeep",
            Algorithm::Idp => "idp",
            Algorithm::SimulatedAnnealing => "sa",
            Algorithm::TopDown => "topdown",
            Algorithm::Goo => "goo",
            Algorithm::IkkBz => "ikkbz",
            Algorithm::Auto => "auto",
        }
    }

    /// Parses an algorithm name, case-insensitively: a
    /// [`wire_name`](Algorithm::wire_name), which also covers every
    /// [`JoinOrderer::name`] except simulated annealing's, accepted as
    /// `simulatedannealing`.
    pub fn parse(s: &str) -> Option<Algorithm> {
        if s.eq_ignore_ascii_case("simulatedannealing") {
            return Some(Algorithm::SimulatedAnnealing);
        }
        Algorithm::CONCRETE
            .into_iter()
            .chain([Algorithm::IkkBz, Algorithm::Auto])
            .find(|a| a.wire_name().eq_ignore_ascii_case(s))
    }
}

/// Whether `n − 1` distinct edges over `n` relations form a star: one
/// relation touches all of them. Query graphs hold no duplicate edges or
/// self-loops, so a relation of degree `n − 1` is a hub every edge meets.
fn has_star_hub(n: usize, edges: impl Iterator<Item = (RelIdx, RelIdx)>) -> bool {
    let mut degree = [0u8; 64];
    if n > degree.len() {
        return false;
    }
    for (u, v) in edges {
        for x in [u, v] {
            let Some(d) = degree.get_mut(x) else {
                return false;
            };
            *d += 1;
            if usize::from(*d) == n - 1 {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use joinopt_cost::{workload, Cout, HashJoin};
    use joinopt_qgraph::{generators, GraphKind};

    #[test]
    fn auto_picks_dpsub_on_cliques_and_dpccp_elsewhere() {
        assert_eq!(
            Algorithm::select_auto_with_parallelism(&generators::clique(8).unwrap(), 1),
            Algorithm::DpSub
        );
        for kind in [GraphKind::Chain, GraphKind::Cycle, GraphKind::Star] {
            assert_eq!(
                Algorithm::select_auto_with_parallelism(&generators::generate(kind, 8), 1),
                Algorithm::DpCcp,
                "{kind}"
            );
        }
        // Near-clique (one edge removed) still counts as dense.
        let mut h = QueryGraph::new(6).unwrap();
        for i in 0..6 {
            for j in i + 1..6 {
                if !(i == 0 && j == 5) {
                    h.add_edge(i, j).unwrap();
                }
            }
        }
        assert_eq!(
            Algorithm::select_auto_with_parallelism(&h, 1),
            Algorithm::DpSub
        );
    }

    #[test]
    fn auto_accounts_for_available_parallelism() {
        // n=8 graphs at controlled densities (28 possible edges). Edges
        // are added in lexicographic pair order, so every graph with
        // ≥ 7 edges contains the star around relation 0 and is connected.
        fn graph_with_edges(edges: usize) -> QueryGraph {
            let mut g = QueryGraph::new(8).unwrap();
            let mut added = 0;
            'outer: for i in 0..8 {
                for j in i + 1..8 {
                    if added == edges {
                        break 'outer;
                    }
                    g.add_edge(i, j).unwrap();
                    added += 1;
                }
            }
            assert_eq!(g.num_edges(), edges);
            g
        }
        use Algorithm::{DpCcp as C, DpSub as S};
        // (edges, expected algorithm at 1, 2, 3, 4 and 8 threads) — the
        // documented 90/80/70 % density thresholds.
        let table = [
            (14, [C, C, C, C, C]), // 50 %: sparse at any parallelism
            (20, [C, C, C, S, S]), // 71 %: worth DPsub only with ≥ 4 threads
            (23, [C, S, S, S, S]), // 82 %: 2 threads buy back the waste
            (26, [S, S, S, S, S]), // 93 %: near-clique, DPsub everywhere
        ];
        for (edges, expected) in table {
            let g = graph_with_edges(edges);
            for (threads, want) in [1, 2, 3, 4, 8].into_iter().zip(expected) {
                assert_eq!(
                    Algorithm::select_auto_with_parallelism(&g, threads),
                    want,
                    "edges={edges} threads={threads}"
                );
            }
            // The Auto orderer runs sequentially: it takes the one-thread
            // column on any machine.
            assert_eq!(
                Algorithm::Auto.orderer(&g).name(),
                expected[0].orderer(&g).name(),
                "edges={edges}"
            );
        }
        // Beyond the dense-table cap DPsub has no parallel path: even a
        // clique resolves to DPccp regardless of thread count.
        let huge = generators::clique(crate::parallel::MAX_ENGINE_RELATIONS + 1).unwrap();
        assert_eq!(
            Algorithm::select_auto_with_parallelism(&huge, 64),
            Algorithm::DpCcp
        );
    }

    #[test]
    fn auto_routes_dense_cout_queries_to_dpconv_but_guards_the_model() {
        let big = generators::clique(Algorithm::DPCONV_MIN_RELATIONS).unwrap();
        // C_out-shaped model on a crossover-sized clique: DPconv.
        assert_eq!(
            Algorithm::select_auto_with_model(&big, 1, &Cout),
            Algorithm::DpConv
        );
        // The model guard: DPconv would refuse HashJoin with a typed
        // error, so Auto must fall back to DPsub on the same graph.
        assert_eq!(
            Algorithm::select_auto_with_model(&big, 1, &HashJoin),
            Algorithm::DpSub
        );
        // Below the measured crossover the DPsub choice stands even for
        // C_out, and sparse graphs stay with DPccp at any size.
        let small = generators::clique(Algorithm::DPCONV_MIN_RELATIONS - 1).unwrap();
        assert_eq!(
            Algorithm::select_auto_with_model(&small, 1, &Cout),
            Algorithm::DpSub
        );
        let sparse = generators::chain(Algorithm::DPCONV_MIN_RELATIONS + 2).unwrap();
        assert_eq!(
            Algorithm::select_auto_with_model(&sparse, 1, &Cout),
            Algorithm::DpCcp
        );
        // Past the dense-table cap nothing dense-table-backed is viable.
        let huge = generators::clique(crate::parallel::MAX_ENGINE_RELATIONS + 1).unwrap();
        assert_eq!(
            Algorithm::select_auto_with_model(&huge, 1, &Cout),
            Algorithm::DpCcp
        );
    }

    #[test]
    fn auto_handles_tiny_graphs() {
        assert_eq!(
            Algorithm::select_auto_with_parallelism(&generators::chain(1).unwrap(), 1),
            Algorithm::DpCcp
        );
        // n=2 chain IS the 2-clique.
        assert_eq!(
            Algorithm::select_auto_with_parallelism(&generators::chain(2).unwrap(), 1),
            Algorithm::DpSub
        );
    }

    #[test]
    fn parse_roundtrip() {
        for alg in Algorithm::CONCRETE {
            let g = generators::chain(4).unwrap();
            let name = alg.orderer(&g).name();
            assert_eq!(Algorithm::parse(name), Some(alg), "{name}");
        }
        assert_eq!(Algorithm::parse("AUTO"), Some(Algorithm::Auto));
        assert_eq!(Algorithm::parse("simulated-annealing"), None);
        for alg in Algorithm::CONCRETE
            .into_iter()
            .chain([Algorithm::IkkBz, Algorithm::Auto])
        {
            assert_eq!(Algorithm::parse(alg.wire_name()), Some(alg), "{alg:?}");
        }
        assert_eq!(Algorithm::parse("IKKBZ"), Some(Algorithm::IkkBz));
        assert!(!Algorithm::CONCRETE.contains(&Algorithm::IkkBz));
    }

    #[test]
    fn auto_routes_large_cout_stars_to_ikkbz() {
        let star = |n| generators::star(n).unwrap();
        let floor = Algorithm::IKKBZ_STAR_MIN_RELATIONS;
        // (graph, model, expected): the floor, above the dense-table cap,
        // the model guard, and a tree that is not a star.
        // A 14-relation tree whose widest node misses one relation.
        let not_a_star =
            QueryGraph::from_edges(14, (1..13).map(|s| (0, s)).chain([(12, 13)])).unwrap();
        let table: [(QueryGraph, &dyn CostModel, Algorithm); 6] = [
            (star(floor - 1), &Cout, Algorithm::DpCcp),
            (star(floor), &Cout, Algorithm::IkkBz),
            (star(30), &Cout, Algorithm::IkkBz),
            (star(14), &HashJoin, Algorithm::DpCcp),
            (not_a_star, &Cout, Algorithm::DpCcp),
            (generators::chain(14).unwrap(), &Cout, Algorithm::DpCcp),
        ];
        for (g, model, want) in &table {
            let n = g.num_relations();
            assert_eq!(
                Algorithm::select_auto_with_model(g, 1, *model),
                *want,
                "n={n} {}",
                model.name()
            );
            // The model-blind resolution never picks IKKBZ, and neither
            // does the sequential `Auto` orderer.
            assert_ne!(
                Algorithm::select_auto_with_parallelism(g, 1),
                Algorithm::IkkBz
            );
            assert_ne!(Algorithm::Auto.orderer(g).name(), "IKKBZ");
        }
        // The hub's label does not matter.
        let relabeled = QueryGraph::from_edges(12, (0..11).map(|s| (s, 11))).unwrap();
        assert_eq!(
            Algorithm::select_auto_with_model(&relabeled, 1, &Cout),
            Algorithm::IkkBz
        );
    }

    #[test]
    fn all_concrete_algorithms_agree_on_optimal_cost() {
        // Except GOO (heuristic), every algorithm is exact; cross-product
        // DP can only be ≤.
        let w = workload::random_workload(7, 0.5, 33);
        let reference = DpCcp.optimize(&w.graph, &w.catalog, &Cout).unwrap().cost;
        for alg in [
            Algorithm::DpSize,
            Algorithm::DpSizeNaive,
            Algorithm::DpSub,
            Algorithm::DpSubUnfiltered,
        ] {
            let r = alg
                .orderer(&w.graph)
                .optimize(&w.graph, &w.catalog, &Cout)
                .unwrap();
            assert!(
                (r.cost - reference).abs() <= 1e-9 * reference.max(1.0),
                "{alg:?}: {} vs {}",
                r.cost,
                reference
            );
        }
        let cp = Algorithm::DpSubCrossProducts
            .orderer(&w.graph)
            .optimize(&w.graph, &w.catalog, &Cout)
            .unwrap();
        assert!(cp.cost <= reference + 1e-9);
        let goo = Algorithm::Goo
            .orderer(&w.graph)
            .optimize(&w.graph, &w.catalog, &Cout)
            .unwrap();
        assert!(goo.cost >= reference - 1e-9);
    }
}
