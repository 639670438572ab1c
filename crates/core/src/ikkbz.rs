//! IKKBZ — polynomial-time optimal left-deep join ordering for acyclic
//! query graphs (Ibaraki & Kameda 1984, Krishnamurthy, Boral & Zaniolo
//! 1986).
//!
//! The classical counterpoint to dynamic programming: for *tree* query
//! graphs and a cost function with the adjacent-sequence-interchange
//! (ASI) property — `C_out` over left-deep, cross-product-free trees has
//! it — the optimal left-deep order can be found in `O(n² log n)` by
//! rank-sorting precedence chains, instead of DP's exponential table.
//!
//! For each candidate root, the query tree becomes a *precedence graph*;
//! each non-root relation `v` carries `T(v) = s_v · |v|` (the factor by
//! which joining `v` scales the intermediate result, `s_v` being the
//! selectivity of the edge to its parent). Subtree chains are merged in
//! ascending *rank* `(T − 1)/C`, and adjacent modules that contradict
//! the rank order (parent rank above child rank) are fused so precedence
//! is never violated. The best root wins.
//!
//! The result provably equals the [`DpSizeLeftDeep`](crate::DpSizeLeftDeep)
//! optimum under `C_out` on tree queries — the test suite asserts this,
//! giving a polynomial and an exponential implementation that
//! cross-validate each other.

use joinopt_cost::{CardinalityEstimator, Catalog, CostModel, PlanStats};
use joinopt_plan::PlanArena;
use joinopt_qgraph::{QueryGraph, QueryGraphError};
use joinopt_relset::{RelIdx, RelSet};
use joinopt_telemetry::Observer;

use crate::cancel::CancellationToken;
use crate::counters::Counters;
use crate::driver::Spans;
use crate::error::OptimizeError;
use crate::result::{DpResult, JoinOrderer};

/// The IKKBZ optimizer. Only valid for acyclic (tree) query graphs and
/// `C_out`-shaped cost models (the ASI property the rank sort relies
/// on); it refuses anything else with a typed error.
///
/// On a *star* the left-deep optimum it finds is also the bushy
/// optimum: a connected set of a star with two or more relations holds
/// the hub, so of two disjoint connected sets at most one is larger than
/// a single satellite. Every cross-product-free bushy tree therefore
/// adds one satellite at a time to the set holding the hub, and under
/// the symmetric `C_out` that is a left-deep order. `Auto` relies on this (see
/// [`Algorithm::IKKBZ_STAR_MIN_RELATIONS`](crate::Algorithm::IKKBZ_STAR_MIN_RELATIONS)).
#[derive(Debug, Clone, Copy, Default)]
pub struct IkkBz;

/// A module: a fused sequence of relations with aggregate cost/size
/// factors. `rank = (t − 1) / c` is the ASI sort key.
#[derive(Debug, Clone)]
struct Module {
    rels: Vec<RelIdx>,
    c: f64,
    t: f64,
}

impl Module {
    fn single(rel: RelIdx, t: f64) -> Module {
        Module {
            rels: vec![rel],
            c: t,
            t,
        }
    }

    fn rank(&self) -> f64 {
        (self.t - 1.0) / self.c
    }

    /// Fuses `self` followed by `other` into one module:
    /// `C(uv) = C(u) + T(u)·C(v)`, `T(uv) = T(u)·T(v)`.
    fn fuse(&mut self, other: Module) {
        self.c += self.t * other.c;
        self.t *= other.t;
        self.rels.extend(other.rels);
    }
}

impl JoinOrderer for IkkBz {
    fn name(&self) -> &'static str {
        "IKKBZ"
    }

    /// Computes the optimal left-deep, cross-product-free join order for
    /// an acyclic query graph under a `C_out`-shaped model, polling
    /// `ctl` before the work and once per candidate root.
    ///
    /// # Errors
    ///
    /// * [`OptimizeError::EmptyQuery`] for zero relations;
    /// * [`OptimizeError::UnsupportedCostModel`] for a model that is not
    ///   `C_out`-shaped;
    /// * [`OptimizeError::Graph`] for disconnected **or cyclic** graphs
    ///   (IKKBZ requires a tree);
    /// * the budget and cancellation errors of [`CancellationToken`].
    fn optimize_controlled(
        &self,
        g: &QueryGraph,
        catalog: &Catalog,
        model: &dyn CostModel,
        obs: &dyn Observer,
        ctl: &CancellationToken,
    ) -> Result<DpResult, OptimizeError> {
        let spans = Spans::start(obs, self.name(), g.num_relations());
        spans.begin("init");
        let n = g.num_relations();
        if n == 0 {
            return Err(OptimizeError::EmptyQuery);
        }
        if !model.is_cout_shaped() {
            return Err(OptimizeError::UnsupportedCostModel {
                algorithm: self.name(),
                model: model.name(),
            });
        }
        g.require_connected()?;
        if g.num_edges() != n - 1 {
            // Connected with more than n−1 edges ⇒ cyclic.
            return Err(OptimizeError::Graph(QueryGraphError::InvalidSize {
                n: g.num_edges(),
                what: "IKKBZ precedence tree (query graph must be acyclic)",
            }));
        }
        ctl.check()?;
        let est = CardinalityEstimator::new(g, catalog)?;
        spans.end("init");

        spans.begin("enumerate");
        let mut best_order: Option<(Vec<RelIdx>, f64)> = None;
        let mut counters = Counters::new();
        for root in 0..n {
            ctl.check()?;
            let order = order_for_root(g, catalog, root, &mut counters);
            let cost = left_deep_cost(g, &est, model, &order);
            if best_order.as_ref().is_none_or(|(_, c)| cost < *c) {
                best_order = Some((order, cost));
            }
        }
        let Some((order, _)) = best_order else {
            return Err(OptimizeError::Internal(
                "IKKBZ produced no candidate order for a non-empty tree".into(),
            ));
        };
        spans.end("enumerate");

        // Materialize the plan.
        spans.begin("extract");
        let mut arena = PlanArena::with_capacity(2 * n);
        let mut set = RelSet::single(order[0]);
        let mut plan = arena.add_scan(order[0], est.base_cardinality(order[0]));
        let mut stats = PlanStats::base(est.base_cardinality(order[0]));
        for &rel in &order[1..] {
            let right_stats = PlanStats::base(est.base_cardinality(rel));
            let right = arena.add_scan(rel, right_stats.cardinality);
            let out = est.join_cardinality(
                stats.cardinality,
                right_stats.cardinality,
                set,
                RelSet::single(rel),
            );
            let cost = model.join_cost(&stats, &right_stats, out);
            stats = PlanStats {
                cardinality: out,
                cost,
            };
            plan = arena.add_join(plan, right, stats);
            set.insert(rel);
        }
        ctl.charge(arena.bytes())?;
        let tree = arena.extract(plan);
        spans.end("extract");
        spans.arena_stats(&arena);
        spans.finish(&counters);

        Ok(DpResult {
            tree,
            cost: stats.cost,
            cardinality: stats.cardinality,
            counters,
            table_size: 0,
            plans_built: arena.len(),
        })
    }
}

/// Builds the IKKBZ order for one candidate root.
fn order_for_root(
    g: &QueryGraph,
    catalog: &Catalog,
    root: RelIdx,
    counters: &mut Counters,
) -> Vec<RelIdx> {
    let n = g.num_relations();
    // Parent/children arrays via BFS from the root.
    let mut children: Vec<Vec<RelIdx>> = vec![Vec::new(); n];
    // T(v) = selectivity(edge v–parent) · |v|, cached while the BFS has
    // the parent edge in hand (meaningless for the root, which never
    // heads a module).
    let mut t = vec![0.0f64; n];
    let mut bfs_order = vec![root];
    let mut seen = RelSet::single(root);
    let mut head = 0;
    while head < bfs_order.len() {
        let v = bfs_order[head];
        head += 1;
        for u in g.neighbors(v).iter() {
            if !seen.contains(u) {
                seen.insert(u);
                if let Some(edge) = g.edge_between(v, u) {
                    t[u] = catalog.selectivity(edge) * catalog.cardinality(u);
                }
                children[v].push(u);
                bfs_order.push(u);
            }
        }
    }
    let t_of = |v: RelIdx| -> f64 { t[v] };

    // Post-order: build the normalized chain of each subtree.
    fn chain_for(
        v: RelIdx,
        children: &[Vec<RelIdx>],
        t_of: &dyn Fn(RelIdx) -> f64,
        counters: &mut Counters,
    ) -> Vec<Module> {
        // Each child heads its own chain, followed by its subtree chain.
        let mut child_chains: Vec<Vec<Module>> = Vec::with_capacity(children[v].len());
        for &c in &children[v] {
            let mut chain = vec![Module::single(c, t_of(c))];
            chain.extend(chain_for(c, children, t_of, counters));
            normalize(&mut chain, counters);
            child_chains.push(chain);
        }
        merge_by_rank(child_chains, counters)
    }

    let mut order = vec![root];
    for m in chain_for(root, &children, &t_of, counters) {
        order.extend(m.rels);
    }
    debug_assert_eq!(order.len(), n);
    order
}

/// Fuses adjacent modules whose ranks contradict the precedence order
/// (a predecessor with a larger rank must not float behind its child).
fn normalize(chain: &mut Vec<Module>, counters: &mut Counters) {
    let mut out: Vec<Module> = Vec::with_capacity(chain.len());
    for m in chain.drain(..) {
        out.push(m);
        while out.len() >= 2 {
            counters.inner += 1;
            let last_rank = out[out.len() - 1].rank();
            let prev_rank = out[out.len() - 2].rank();
            if prev_rank > last_rank {
                let Some(tail) = out.pop() else { break };
                let Some(prev) = out.last_mut() else { break };
                prev.fuse(tail);
            } else {
                break;
            }
        }
    }
    *chain = out;
}

/// K-way merge of rank-sorted chains into one rank-sorted chain
/// (cross-chain modules carry no precedence constraints).
fn merge_by_rank(chains: Vec<Vec<Module>>, counters: &mut Counters) -> Vec<Module> {
    let mut iters: Vec<std::vec::IntoIter<Module>> =
        chains.into_iter().map(Vec::into_iter).collect();
    let mut heads: Vec<Option<Module>> = iters.iter_mut().map(Iterator::next).collect();
    let mut out = Vec::new();
    loop {
        let mut best: Option<(usize, f64)> = None;
        for (i, head) in heads.iter().enumerate() {
            if let Some(m) = head {
                counters.inner += 1;
                if best.is_none_or(|(_, r)| m.rank() < r) {
                    best = Some((i, m.rank()));
                }
            }
        }
        let Some((i, _)) = best else {
            return out;
        };
        let Some(head) = heads[i].take() else {
            return out; // unreachable: best indexes a live head
        };
        out.push(head);
        heads[i] = iters[i].next();
    }
}

/// Cost of joining `order` left-deep under `model` (no plan
/// materialization).
fn left_deep_cost(
    g: &QueryGraph,
    est: &CardinalityEstimator,
    model: &dyn CostModel,
    order: &[RelIdx],
) -> f64 {
    let mut set = RelSet::single(order[0]);
    let mut stats = PlanStats::base(est.base_cardinality(order[0]));
    for &rel in &order[1..] {
        debug_assert!(
            g.sets_connected(set, RelSet::single(rel)),
            "IKKBZ order introduced a cross product"
        );
        let right = PlanStats::base(est.base_cardinality(rel));
        let out = est.join_cardinality(
            stats.cardinality,
            right.cardinality,
            set,
            RelSet::single(rel),
        );
        let cost = model.join_cost(&stats, &right, out);
        stats = PlanStats {
            cardinality: out,
            cost,
        };
        set.insert(rel);
    }
    stats.cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Algorithm, CancelFlag, DpSizeLeftDeep, OptimizeRequest};
    use joinopt_cost::{workload, Cout, HashJoin};
    use joinopt_qgraph::{generators, GraphKind};
    use joinopt_relset::XorShift64;

    #[test]
    fn matches_leftdeep_dp_on_chains_and_stars() {
        for kind in [GraphKind::Chain, GraphKind::Star] {
            for n in 2..=10 {
                for seed in 0..3 {
                    let w = workload::family_workload(kind, n, seed);
                    let ik = IkkBz.optimize(&w.graph, &w.catalog, &Cout).unwrap();
                    let dp = DpSizeLeftDeep
                        .optimize(&w.graph, &w.catalog, &Cout)
                        .unwrap();
                    let tol = 1e-9 * dp.cost.abs().max(1.0);
                    assert!(
                        (ik.cost - dp.cost).abs() <= tol,
                        "{kind} n={n} seed={seed}: IKKBZ {} vs DP {}",
                        ik.cost,
                        dp.cost
                    );
                }
            }
        }
    }

    #[test]
    fn matches_leftdeep_dp_on_random_trees() {
        let mut rng = XorShift64::seed_from_u64(9);
        for trial in 0..25 {
            let g = generators::random_tree(9, &mut rng).unwrap();
            let cat = workload::random_catalog(
                &g,
                joinopt_cost::workload::StatsRanges::default(),
                &mut rng,
            );
            let ik = IkkBz.optimize(&g, &cat, &Cout).unwrap();
            let dp = DpSizeLeftDeep.optimize(&g, &cat, &Cout).unwrap();
            let tol = 1e-9 * dp.cost.abs().max(1.0);
            assert!(
                (ik.cost - dp.cost).abs() <= tol,
                "trial {trial}: IKKBZ {} vs DP {}",
                ik.cost,
                dp.cost
            );
        }
    }

    #[test]
    fn produces_valid_left_deep_trees() {
        let mut rng = XorShift64::seed_from_u64(4);
        let g = generators::random_tree(12, &mut rng).unwrap();
        let cat =
            workload::random_catalog(&g, joinopt_cost::workload::StatsRanges::default(), &mut rng);
        let r = IkkBz.optimize(&g, &cat, &Cout).unwrap();
        assert!(r.tree.is_left_deep());
        assert_eq!(r.tree.relations(), g.all_relations());
        assert_eq!(r.tree.cost(), r.cost);
    }

    #[test]
    fn rejects_cyclic_graphs() {
        let g = generators::cycle(5).unwrap();
        let cat = Catalog::new(&g);
        assert!(matches!(
            IkkBz.optimize(&g, &cat, &Cout),
            Err(OptimizeError::Graph(_))
        ));
        let clique = generators::clique(4).unwrap();
        assert!(IkkBz
            .optimize(&clique, &Catalog::new(&clique), &Cout)
            .is_err());
    }

    #[test]
    fn refuses_models_without_the_asi_shape() {
        let w = workload::family_workload(GraphKind::Star, 6, 1);
        assert!(matches!(
            IkkBz.optimize(&w.graph, &w.catalog, &HashJoin),
            Err(OptimizeError::UnsupportedCostModel {
                algorithm: "IKKBZ",
                model: "HashJoin"
            })
        ));
    }

    #[test]
    fn honours_time_budgets_and_cancellation() {
        let w = workload::family_workload(GraphKind::Star, 14, 2);
        let request =
            || OptimizeRequest::new(&w.graph, &w.catalog).with_algorithm(Algorithm::IkkBz);
        assert!(matches!(
            request().with_time_budget(std::time::Duration::ZERO).run(),
            Err(OptimizeError::TimeBudgetExceeded { .. })
        ));
        let flag = CancelFlag::new();
        flag.cancel();
        assert!(matches!(
            request().with_cancel_flag(flag).run(),
            Err(OptimizeError::Cancelled)
        ));
        let outcome = request().run().unwrap();
        assert_eq!(outcome.algorithm, Algorithm::IkkBz);
        assert_eq!(outcome.result.tree.relations(), w.graph.all_relations());
    }

    #[test]
    fn rejects_empty_and_disconnected() {
        let g = QueryGraph::new(0).unwrap();
        assert!(IkkBz.optimize(&g, &Catalog::new(&g), &Cout).is_err());
        let disc = QueryGraph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert!(IkkBz.optimize(&disc, &Catalog::new(&disc), &Cout).is_err());
    }

    #[test]
    fn single_relation_and_single_edge() {
        let w = workload::family_workload(GraphKind::Chain, 1, 0);
        let r = IkkBz.optimize(&w.graph, &w.catalog, &Cout).unwrap();
        assert_eq!(r.tree.num_joins(), 0);
        let w2 = workload::family_workload(GraphKind::Chain, 2, 0);
        let r2 = IkkBz.optimize(&w2.graph, &w2.catalog, &Cout).unwrap();
        assert_eq!(r2.tree.num_joins(), 1);
    }

    #[test]
    fn scales_polynomially() {
        // 60-relation chain: exponential left-deep DP would be hopeless
        // in debug mode; IKKBZ is instant.
        let w = workload::family_workload(GraphKind::Chain, 60, 3);
        let start = std::time::Instant::now();
        let r = IkkBz.optimize(&w.graph, &w.catalog, &Cout).unwrap();
        assert!(start.elapsed().as_millis() < 2000, "{:?}", start.elapsed());
        assert_eq!(r.tree.num_relations(), 60);
    }

    #[test]
    fn module_fusion_algebra() {
        // C(uv) = C(u) + T(u)C(v), T(uv) = T(u)T(v).
        let mut u = Module::single(0, 2.0); // c = t = 2
        let v = Module::single(1, 3.0); // c = t = 3
        u.fuse(v);
        assert_eq!(u.c, 2.0 + 2.0 * 3.0);
        assert_eq!(u.t, 6.0);
        assert_eq!(u.rels, vec![0, 1]);
        // rank of a module with T = 1 is 0 (neutral).
        let neutral = Module::single(2, 1.0);
        assert_eq!(neutral.rank(), 0.0);
    }
}
