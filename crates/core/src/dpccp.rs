//! DPccp: csg-cmp-pair driven enumeration (paper, Fig. 4 / Section 3).

use joinopt_cost::{Catalog, CostModel};
use joinopt_qgraph::{csg, QueryGraph};
use joinopt_telemetry::Observer;

use crate::cancel::CancellationToken;
use crate::driver::Driver;
use crate::error::OptimizeError;
use crate::parallel::Session;
use crate::result::{DpResult, JoinOrderer};
use crate::table::PlanTable;

/// The paper's new algorithm: iterate **exactly** over the csg-cmp-pairs
/// of the query graph — the lower bound for any dynamic-programming join
/// enumerator — using `EnumerateCsg` / `EnumerateCmp`
/// ([`joinopt_qgraph::csg`]), and fill the `BestPlan` table.
///
/// Every unordered pair is produced once, so commutativity is handled
/// explicitly by costing both operand orders (Fig. 4 calls
/// `CreateJoinTree` twice). After termination,
/// `InnerCounter = OnoLohmanCounter = #ccp / 2` by construction — there
/// is no wasted innermost-loop work, which is what makes DPccp adapt to
/// every query-graph shape.
///
/// `BestPlan` lives in one of two places, and nothing else about the
/// run differs: [`JoinOrderer::optimize`] (no session) fills a sparse
/// hash table sized by the sets it reaches, while
/// [`OptimizeRequest::run_in`](crate::OptimizeRequest::run_in) uses the
/// session's pooled direct-addressed table for queries of up to
/// [`DpCcp::POOLED_MAX_RELATIONS`] relations that carry no memory
/// budget.
#[derive(Debug, Clone, Copy, Default)]
pub struct DpCcp;

impl DpCcp {
    /// Largest `n` for which a session run keeps `BestPlan` in the
    /// pooled direct-addressed table (`2ⁿ` slots of 20 bytes: 1.3 MiB
    /// at 16) instead of the sparse hash table.
    ///
    /// Chosen from the pooled-vs-sparse crossover: median ms per
    /// optimization, `C_out`, seed 1, release build, 2-core Intel Xeon
    /// VM. *sparse* is `DpCcp.optimize`; *pooled* reuses one session;
    /// *first* is a session's first run, which pays the `2ⁿ` slots'
    /// allocation and page faults.
    ///
    /// | n  | chain sparse | pooled | first | star sparse | pooled | first |
    /// |----|-------:|-------:|-------:|--------:|--------:|--------:|
    /// | 12 | 0.019  | 0.015  | 0.017  | 0.63    | 0.49    | 0.52    |
    /// | 13 | 0.023  | 0.019  | 0.024  | 1.50    | 1.16    | 1.11    |
    /// | 14 | 0.029  | 0.022  | 0.034  | 3.66    | 2.33    | 2.43    |
    /// | 15 | 0.035  | 0.027  | 0.045  | 7.79    | 5.00    | 5.37    |
    /// | 16 | 0.043  | 0.036  | 0.064  | 16.8    | 11.0    | 11.4    |
    /// | 17 | 0.053  | 0.040  | 0.154  | 49.5    | 23.3    | 24.3    |
    /// | 18 | 0.052  | 0.041  | 0.288  | 135     | 55.6    | 54.1    |
    /// | 19 | 0.065  | 0.053  | 0.554  | 269     | 124     | 130     |
    /// | 20 | 0.086  | 0.064  | 1.088  | 905     | 307     | 306     |
    ///
    /// A reused table wins at every size, stars by 1.3–2.9×. What
    /// grows with `n` is the first run on a sparse graph and the pool
    /// itself: up to 16 a chain's first run costs at most 0.02 ms more
    /// than the hash table and the pool stays at 1.3 MiB per session;
    /// each further relation doubles both (at 20: +1 ms, 20 MiB).
    pub const POOLED_MAX_RELATIONS: usize = 16;

    /// Whether a session run over `n` relations uses the pooled table:
    /// `n` is within [`Self::POOLED_MAX_RELATIONS`] and no memory budget
    /// is set. Under a budget the sparse table, whose charge grows only
    /// with the sets a run reaches, keeps serving: the dense run's `2ⁿ`
    /// slots plus its plan nodes can exceed a budget the sparse run
    /// fits (on chains and cycles), and no request that fits its budget
    /// may start to trip.
    pub(crate) fn pools(n: usize, memory_budget: Option<usize>) -> bool {
        n <= Self::POOLED_MAX_RELATIONS && memory_budget.is_none()
    }
}

impl JoinOrderer for DpCcp {
    fn name(&self) -> &'static str {
        "DPccp"
    }

    fn optimize_controlled(
        &self,
        g: &QueryGraph,
        catalog: &Catalog,
        model: &dyn CostModel,
        obs: &dyn Observer,
        ctl: &CancellationToken,
    ) -> Result<DpResult, OptimizeError> {
        run(Driver::new(g, catalog, model, true, self.name(), obs, ctl)?)
    }
}

/// One DPccp run with `BestPlan` in `session`'s pooled direct-addressed
/// table (the [`crate::OptimizeRequest`] session path for
/// `n ≤` [`DpCcp::POOLED_MAX_RELATIONS`]).
pub(crate) fn run_pooled(
    g: &QueryGraph,
    catalog: &Catalog,
    model: &dyn CostModel,
    obs: &dyn Observer,
    ctl: &CancellationToken,
    session: &mut Session,
) -> Result<DpResult, OptimizeError> {
    let table = session.dense_table(g.num_relations());
    run(Driver::with_table(
        g,
        catalog,
        model,
        true,
        table,
        DpCcp.name(),
        obs,
        ctl,
    )?)
}

/// Fig. 4 over either storage: every csg-cmp-pair, both orders.
fn run<T: PlanTable>(mut d: Driver<'_, T>) -> Result<DpResult, OptimizeError> {
    let g = d.g;
    csg::try_for_each_ccp(g, |s1, s2| {
        d.counters.inner += 1;
        d.counters.ono_lohman += 1;
        d.emit_pair_both_orders(s1, s2).map(|_| ())
    })?;
    d.counters.csg_cmp_pairs = 2 * d.counters.ono_lohman;
    d.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dpsize::DpSize;
    use crate::dpsub::DpSub;
    use joinopt_cost::{workload, Cout, HashJoin, MinOverPhysical};
    use joinopt_qgraph::{formulas, GraphKind};

    #[test]
    fn inner_counter_equals_ono_lohman_bound() {
        for kind in GraphKind::ALL {
            for n in 2..=10 {
                let w = workload::family_workload(kind, n, 1);
                let r = DpCcp.optimize(&w.graph, &w.catalog, &Cout).unwrap();
                assert_eq!(
                    u128::from(r.counters.inner),
                    formulas::ccp_distinct(kind, n as u64),
                    "{kind} n={n}"
                );
                assert_eq!(r.counters.inner, r.counters.ono_lohman);
                assert_eq!(r.counters.csg_cmp_pairs, 2 * r.counters.ono_lohman);
                assert!((r.counters.hit_rate() - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn agrees_with_dpsize_and_dpsub() {
        for kind in GraphKind::ALL {
            for seed in 0..5 {
                let w = workload::family_workload(kind, 8, seed);
                let ccp = DpCcp.optimize(&w.graph, &w.catalog, &Cout).unwrap();
                let size = DpSize.optimize(&w.graph, &w.catalog, &Cout).unwrap();
                let sub = DpSub.optimize(&w.graph, &w.catalog, &Cout).unwrap();
                let tol = 1e-9 * ccp.cost.abs().max(1.0);
                assert!((ccp.cost - size.cost).abs() <= tol, "{kind} seed {seed}");
                assert!((ccp.cost - sub.cost).abs() <= tol, "{kind} seed {seed}");
                assert_eq!(ccp.counters.csg_cmp_pairs, size.counters.csg_cmp_pairs);
                assert_eq!(ccp.counters.csg_cmp_pairs, sub.counters.csg_cmp_pairs);
            }
        }
    }

    #[test]
    fn asymmetric_cost_model_agreement() {
        // Hash join distinguishes build/probe; all three enumerators
        // must still find the same optimum (they all cost both orders,
        // directly or via enumeration symmetry).
        for seed in 0..8 {
            let w = workload::random_workload(7, 0.4, seed);
            let ccp = DpCcp.optimize(&w.graph, &w.catalog, &HashJoin).unwrap();
            let size = DpSize.optimize(&w.graph, &w.catalog, &HashJoin).unwrap();
            let sub = DpSub.optimize(&w.graph, &w.catalog, &HashJoin).unwrap();
            let tol = 1e-9 * ccp.cost.abs().max(1.0);
            assert!((ccp.cost - size.cost).abs() <= tol, "seed {seed}");
            assert!((ccp.cost - sub.cost).abs() <= tol, "seed {seed}");
        }
    }

    #[test]
    fn min_over_physical_agreement() {
        for seed in 0..5 {
            let w = workload::random_workload(7, 0.3, seed + 100);
            let ccp = DpCcp
                .optimize(&w.graph, &w.catalog, &MinOverPhysical)
                .unwrap();
            let sub = DpSub
                .optimize(&w.graph, &w.catalog, &MinOverPhysical)
                .unwrap();
            let tol = 1e-9 * ccp.cost.abs().max(1.0);
            assert!((ccp.cost - sub.cost).abs() <= tol, "seed {seed}");
        }
    }

    #[test]
    fn produces_bushy_plans_when_beneficial() {
        // On a star the optimum is (almost) always left-deep, but on
        // chains with suitable statistics bushy shapes win. Check that at
        // least one of a batch of random chain workloads yields a
        // properly bushy optimal plan — the shape only bushy enumeration
        // can deliver.
        let mut bushy_seen = false;
        for seed in 0..30 {
            let w = workload::family_workload(GraphKind::Chain, 8, seed);
            let r = DpCcp.optimize(&w.graph, &w.catalog, &Cout).unwrap();
            bushy_seen |= r.tree.is_properly_bushy();
        }
        assert!(
            bushy_seen,
            "no bushy optimum in 30 chain workloads — suspicious"
        );
    }

    #[test]
    fn rejects_disconnected_and_empty() {
        let g = QueryGraph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let cat = Catalog::new(&g);
        assert!(DpCcp.optimize(&g, &cat, &Cout).is_err());
        let empty = QueryGraph::new(0).unwrap();
        assert!(DpCcp
            .optimize(&empty, &Catalog::new(&empty), &Cout)
            .is_err());
    }

    #[test]
    fn single_relation() {
        let w = workload::family_workload(GraphKind::Chain, 1, 0);
        let r = DpCcp.optimize(&w.graph, &w.catalog, &Cout).unwrap();
        assert_eq!(r.counters.inner, 0);
        assert_eq!(r.tree.num_relations(), 1);
    }

    #[test]
    fn plan_tree_is_consistent() {
        let w = workload::family_workload(GraphKind::Cycle, 9, 4);
        let r = DpCcp.optimize(&w.graph, &w.catalog, &Cout).unwrap();
        assert_eq!(r.tree.relations(), w.graph.all_relations());
        assert_eq!(r.tree.num_joins(), 8);
        assert_eq!(r.tree.cost(), r.cost);
        assert_eq!(r.tree.cardinality(), r.cardinality);
    }
}
