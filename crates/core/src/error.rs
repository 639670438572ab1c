//! The unified error type for optimizer runs.
//!
//! Every fallible layer of the workspace — relation sets, query graphs,
//! statistics catalogs, the textual and SQL frontends, and the
//! optimization engine itself — converts into [`OptimizeError`] via
//! `From`, so callers (the CLI, the examples, embedding applications)
//! handle one error enum end-to-end instead of matching four.

use core::fmt;
use std::time::Duration;

use joinopt_cost::CostError;
use joinopt_qgraph::QueryGraphError;
use joinopt_query::{ParseError, SqlError};
use joinopt_relset::RelSetError;

/// Errors produced by the join-ordering algorithms and the request API.
#[derive(Debug, Clone, PartialEq)]
pub enum OptimizeError {
    /// The query graph was invalid (disconnected, empty, …).
    Graph(QueryGraphError),
    /// The statistics catalog did not match the graph.
    Cost(CostError),
    /// A relation set could not be constructed (index or universe out
    /// of the 64-relation range).
    RelSet(RelSetError),
    /// A query description in the native DSL did not parse.
    Parse(ParseError),
    /// A SQL query did not parse.
    Sql(SqlError),
    /// A query with zero relations has no join tree.
    EmptyQuery,
    /// No cross-product-free join tree exists: the (hyper)graph is
    /// reachability-connected, but some required sub-plan is not
    /// buildable (e.g. the side of a complex predicate has no internal
    /// predicates). Only produced by hypergraph optimization.
    NoPlanWithoutCrossProducts,
    /// An [`OptimizeRequest`](crate::OptimizeRequest) time budget ran
    /// out before enumeration finished. Enforced at the engine's level
    /// barriers and between batch items (best effort — a sequential
    /// algorithm mid-run is not interrupted).
    TimeBudgetExceeded {
        /// The configured budget.
        budget: Duration,
    },
    /// The optimal plan's cost exceeds the request's cost budget.
    CostBudgetExceeded {
        /// Cost of the best plan found.
        cost: f64,
        /// The configured ceiling.
        budget: f64,
    },
    /// The run's DP table, plan arena and worker buffers grew past the
    /// request's memory budget.
    MemoryBudgetExceeded {
        /// Bytes charged when the budget tripped.
        used: usize,
        /// The configured ceiling in bytes.
        budget: usize,
    },
    /// The run was cancelled through its
    /// [`CancelFlag`](crate::CancelFlag).
    Cancelled,
    /// The requested algorithm cannot optimize under the requested cost
    /// model. Produced by enumerators whose correctness depends on a
    /// structural property of the model — DPconv requires a
    /// `C_out`-shaped cost (a function of the relation set alone) and
    /// refuses anything else instead of silently returning a plan that
    /// is optimal for the wrong objective.
    UnsupportedCostModel {
        /// The refusing algorithm.
        algorithm: &'static str,
        /// The requested cost model's name.
        model: &'static str,
    },
    /// The query exceeds the algorithm's hard size cap (direct-addressed
    /// `2^n` tables). Pick an algorithm without dense tables (DPccp,
    /// IDP, GOO) for larger queries.
    TooManyRelations {
        /// The refusing algorithm.
        algorithm: &'static str,
        /// Relations in the query.
        relations: usize,
        /// The algorithm's cap.
        max: usize,
    },
    /// An internal failure — a panicking worker or an injected fault —
    /// was caught and isolated instead of unwinding into the caller.
    Internal(String),
}

impl fmt::Display for OptimizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptimizeError::Graph(e) => write!(f, "invalid query graph: {e}"),
            OptimizeError::Cost(e) => write!(f, "invalid statistics: {e}"),
            OptimizeError::RelSet(e) => write!(f, "invalid relation set: {e}"),
            OptimizeError::Parse(e) => write!(f, "query parse error: {e}"),
            OptimizeError::Sql(e) => write!(f, "SQL parse error: {e}"),
            OptimizeError::EmptyQuery => write!(f, "cannot optimize a query with no relations"),
            OptimizeError::NoPlanWithoutCrossProducts => {
                write!(
                    f,
                    "no cross-product-free join tree exists for this hypergraph"
                )
            }
            OptimizeError::TimeBudgetExceeded { budget } => {
                write!(f, "optimization exceeded its time budget of {budget:?}")
            }
            OptimizeError::CostBudgetExceeded { cost, budget } => {
                write!(
                    f,
                    "optimal plan cost {cost:.6e} exceeds the cost budget {budget:.6e}"
                )
            }
            OptimizeError::MemoryBudgetExceeded { used, budget } => {
                write!(
                    f,
                    "optimization used {used} bytes, exceeding its memory budget of {budget} bytes"
                )
            }
            OptimizeError::Cancelled => write!(f, "optimization was cancelled"),
            OptimizeError::UnsupportedCostModel { algorithm, model } => {
                write!(
                    f,
                    "{algorithm} cannot optimize under the {model} cost model \
                     (requires a C_out-shaped cost)"
                )
            }
            OptimizeError::TooManyRelations {
                algorithm,
                relations,
                max,
            } => {
                write!(
                    f,
                    "{algorithm} is capped at {max} relations, query has {relations}"
                )
            }
            OptimizeError::Internal(msg) => write!(f, "internal optimizer failure: {msg}"),
        }
    }
}

impl std::error::Error for OptimizeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OptimizeError::Graph(e) => Some(e),
            OptimizeError::Cost(e) => Some(e),
            OptimizeError::RelSet(e) => Some(e),
            OptimizeError::Parse(e) => Some(e),
            OptimizeError::Sql(e) => Some(e),
            OptimizeError::EmptyQuery
            | OptimizeError::NoPlanWithoutCrossProducts
            | OptimizeError::TimeBudgetExceeded { .. }
            | OptimizeError::CostBudgetExceeded { .. }
            | OptimizeError::MemoryBudgetExceeded { .. }
            | OptimizeError::Cancelled
            | OptimizeError::UnsupportedCostModel { .. }
            | OptimizeError::TooManyRelations { .. }
            | OptimizeError::Internal(_) => None,
        }
    }
}

impl From<QueryGraphError> for OptimizeError {
    fn from(e: QueryGraphError) -> Self {
        OptimizeError::Graph(e)
    }
}

impl From<CostError> for OptimizeError {
    fn from(e: CostError) -> Self {
        OptimizeError::Cost(e)
    }
}

impl From<RelSetError> for OptimizeError {
    fn from(e: RelSetError) -> Self {
        OptimizeError::RelSet(e)
    }
}

impl From<ParseError> for OptimizeError {
    fn from(e: ParseError) -> Self {
        OptimizeError::Parse(e)
    }
}

impl From<SqlError> for OptimizeError {
    fn from(e: SqlError) -> Self {
        OptimizeError::Sql(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn display_and_source() {
        let e = OptimizeError::from(QueryGraphError::Disconnected);
        assert!(e.to_string().contains("connected"));
        assert!(e.source().is_some());
        assert!(OptimizeError::EmptyQuery.source().is_none());
        let c = OptimizeError::from(CostError::InvalidCardinality {
            relation: 0,
            value: 0.0,
        });
        assert!(c.to_string().contains("statistics"));
    }

    #[test]
    fn unified_conversions() {
        let r = OptimizeError::from(RelSetError::IndexOutOfRange { index: 99 });
        assert!(r.to_string().contains("99"));
        assert!(r.source().is_some());

        let p = OptimizeError::from(ParseError::EmptyQuery);
        assert!(p.to_string().contains("parse"));
        assert!(p.source().is_some());

        let s = joinopt_query::parse_sql("SELECT").expect_err("incomplete SQL");
        let s = OptimizeError::from(s);
        assert!(s.to_string().contains("SQL"));
        assert!(s.source().is_some());
    }

    #[test]
    fn budget_errors_display_limits() {
        let t = OptimizeError::TimeBudgetExceeded {
            budget: Duration::from_millis(5),
        };
        assert!(t.to_string().contains("budget"));
        assert!(t.source().is_none());
        let c = OptimizeError::CostBudgetExceeded {
            cost: 2.0e6,
            budget: 1.0e6,
        };
        assert!(c.to_string().contains("exceeds"));
        let m = OptimizeError::MemoryBudgetExceeded {
            used: 2048,
            budget: 1024,
        };
        assert!(m.to_string().contains("1024"));
        assert!(m.source().is_none());
        assert!(OptimizeError::Cancelled.to_string().contains("cancelled"));
        let i = OptimizeError::Internal("worker panicked".into());
        assert!(i.to_string().contains("worker panicked"));
        assert!(i.source().is_none());
    }

    #[test]
    fn capability_errors_display_context() {
        let u = OptimizeError::UnsupportedCostModel {
            algorithm: "DPconv",
            model: "HashJoin",
        };
        assert!(u.to_string().contains("DPconv"));
        assert!(u.to_string().contains("HashJoin"));
        assert!(u.to_string().contains("C_out"));
        assert!(u.source().is_none());
        let t = OptimizeError::TooManyRelations {
            algorithm: "DPconv",
            relations: 30,
            max: 22,
        };
        assert!(t.to_string().contains("30"));
        assert!(t.to_string().contains("22"));
        assert!(t.source().is_none());
    }
}
