//! Error types for query construction and parsing.

use rcqa_data::DataError;
use std::fmt;

/// Errors raised while building, validating, or parsing queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The query contains two atoms with the same relation name (a self-join),
    /// which is outside the class AGGR\[sjfBCQ\] studied by the paper.
    SelfJoin(String),
    /// An atom refers to a relation that is not in the schema.
    UnknownRelation(String),
    /// An atom has the wrong number of terms.
    ArityMismatch {
        /// Relation name.
        relation: String,
        /// Declared arity.
        expected: usize,
        /// Number of terms in the atom.
        found: usize,
    },
    /// A non-numeric constant appears at a numerical position.
    NonNumericTerm {
        /// Relation name.
        relation: String,
        /// 0-based position.
        position: usize,
    },
    /// The aggregated term is a variable that does not occur in the body.
    AggregatedVariableNotInBody(String),
    /// The aggregated term is a variable that never occurs at a numerical
    /// position, so aggregation over it is not well-typed.
    AggregatedVariableNotNumeric(String),
    /// A GROUP BY / free variable does not occur in the body.
    FreeVariableNotInBody(String),
    /// Generic parse error with a human-readable message.
    Parse(String),
    /// A SQL query referenced an unknown table or column.
    UnknownColumn {
        /// Table (or alias) name.
        table: String,
        /// Column name.
        column: String,
    },
    /// The SQL query used a feature outside the supported fragment.
    Unsupported(String),
    /// A table definition does not lower to a signature (e.g. it declares no
    /// columns).
    InvalidTable {
        /// Table name.
        table: String,
        /// Why the storage layer refuses the signature.
        reason: DataError,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::SelfJoin(r) => {
                write!(
                    f,
                    "relation {r:?} occurs twice: self-joins are not supported"
                )
            }
            QueryError::UnknownRelation(r) => write!(f, "unknown relation {r:?}"),
            QueryError::ArityMismatch {
                relation,
                expected,
                found,
            } => write!(
                f,
                "arity mismatch for {relation}: expected {expected} terms, found {found}"
            ),
            QueryError::NonNumericTerm { relation, position } => write!(
                f,
                "non-numeric constant at numerical position {position} of {relation}"
            ),
            QueryError::AggregatedVariableNotInBody(v) => {
                write!(
                    f,
                    "aggregated variable {v} does not occur in the query body"
                )
            }
            QueryError::AggregatedVariableNotNumeric(v) => {
                write!(
                    f,
                    "aggregated variable {v} never occurs at a numerical position"
                )
            }
            QueryError::FreeVariableNotInBody(v) => {
                write!(f, "free variable {v} does not occur in the query body")
            }
            QueryError::Parse(msg) => write!(f, "parse error: {msg}"),
            QueryError::UnknownColumn { table, column } => {
                write!(f, "unknown column {table}.{column}")
            }
            QueryError::Unsupported(msg) => write!(f, "unsupported SQL feature: {msg}"),
            QueryError::InvalidTable { table, reason } => write!(f, "table {table:?}: {reason}"),
        }
    }
}

impl std::error::Error for QueryError {}
