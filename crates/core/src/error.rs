//! Error types for the range-CQA engine.

use rcqa_data::DataError;
use rcqa_query::{QueryError, Var};
use std::fmt;

/// Errors raised by the range-CQA engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// The query failed validation against the schema.
    Query(QueryError),
    /// A data-layer error.
    Data(DataError),
    /// The attack graph of the query body is cyclic, so the requested bound is
    /// not expressible in AGGR\[FOL\] (Theorem 5.5) and no rewriting exists.
    CyclicAttackGraph,
    /// The aggregate operator lacks the properties required by Theorem 6.1 /
    /// Theorem 7.11, so no rewriting is known for the requested bound.
    UnsupportedAggregate {
        /// Human-readable explanation.
        reason: String,
    },
    /// The instance (or one group's blocks) has too many repairs for the
    /// exact (repair-enumeration) fallback to enumerate.
    FallbackUnavailable(String),
    /// The exact oracle was handed a query with free variables: it answers
    /// closed queries, and `exact_bounds_by_group` answers open ones.
    OpenQuery(Vec<Var>),
    /// The engines handed in as one statement's aggregates are none, or do
    /// not share one body and one set of predicates.
    StatementMismatch(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Query(e) => write!(f, "query error: {e}"),
            CoreError::Data(e) => write!(f, "data error: {e}"),
            CoreError::CyclicAttackGraph => {
                write!(
                    f,
                    "the attack graph is cyclic: not expressible in AGGR[FOL]"
                )
            }
            CoreError::UnsupportedAggregate { reason } => {
                write!(f, "unsupported aggregate for rewriting: {reason}")
            }
            CoreError::FallbackUnavailable(msg) => write!(f, "exact fallback unavailable: {msg}"),
            CoreError::StatementMismatch(msg) => write!(f, "not one statement: {msg}"),
            CoreError::OpenQuery(free) => {
                let free: Vec<&str> = free.iter().map(Var::name).collect();
                write!(
                    f,
                    "open query with free variables ({}): the exact oracle answers closed \
                     queries; use exact_bounds_by_group",
                    free.join(", ")
                )
            }
        }
    }
}

impl std::error::Error for CoreError {}

impl From<QueryError> for CoreError {
    fn from(e: QueryError) -> Self {
        CoreError::Query(e)
    }
}

impl From<DataError> for CoreError {
    fn from(e: DataError) -> Self {
        CoreError::Data(e)
    }
}
