//! # rcqa-core
//!
//! The primary contribution of the PODS 2024 paper *"Computing Range
//! Consistent Answers to Aggregation Queries via Rewriting"* (Amezian El
//! Khalfioui & Wijsen): deciding whether the greatest-lower-bound /
//! least-upper-bound consistent answers of an aggregation query are
//! expressible in the aggregate logic AGGR\[FOL\], constructing the rewriting
//! when they are, and evaluating range-consistent answers over inconsistent
//! databases.
//!
//! The crate provides:
//!
//! * [`prepared`] — attack-graph analysis and the per-level variable
//!   structure of Section 4;
//! * [`forall`] — embeddings, certainty checking, and ∀embeddings;
//! * [`glb`] — the operational evaluation of Theorem 6.1 (and its MIN/MAX
//!   mirrors) over ∀embeddings, as interned-id rows;
//! * [`rewrite`] — the symbolic AGGR\[FOL\] rewritings (Lemma 4.3,
//!   Theorem 6.1, Theorems 7.10/7.11);
//! * [`mod@classify`] — the separation decision of Theorem 1.1 / Theorem 7.11;
//! * [`exact`] — the ground-truth repair-enumeration baseline;
//! * [`plan`] — the operator of each bound (the strategy table) and the
//!   (parallel) executor of the one pipeline they run in;
//! * [`engine`] — the user-facing [`RangeCqa`] engine with GROUP BY support.
//!
//! ## Quick example
//!
//! ```
//! use rcqa_core::engine::RangeCqa;
//! use rcqa_data::{fact, rat, DatabaseInstance, Schema, Signature};
//! use rcqa_query::parse_agg_query;
//!
//! let schema = Schema::new()
//!     .with_relation("Dealers", Signature::new(2, 1, []).unwrap())
//!     .with_relation("Stock", Signature::new(3, 2, [2]).unwrap());
//! let mut db = DatabaseInstance::new(schema.clone());
//! db.insert_all([
//!     fact!("Dealers", "Smith", "Boston"),
//!     fact!("Dealers", "Smith", "New York"),
//!     fact!("Stock", "Tesla X", "Boston", 35),
//!     fact!("Stock", "Tesla Y", "New York", 95),
//! ]).unwrap();
//!
//! let query = parse_agg_query("SUM(y) <- Dealers('Smith', t), Stock(p, t, y)").unwrap();
//! let engine = RangeCqa::new(&query, &schema).unwrap();
//! let glb = engine.glb(&db).unwrap();
//! assert_eq!(glb[0].1.value, Some(rat(35)));
//! ```

#![warn(missing_docs)]

pub mod classify;
pub mod engine;
pub mod error;
pub mod exact;
pub mod forall;
pub mod glb;
mod ids;
pub mod index;
pub mod interval;
pub mod plan;
pub mod prepared;
pub mod rewrite;

pub use classify::{
    classify, classify_prepared, classify_with_domain, Classification, Expressibility,
};
pub use engine::{BoundAnswer, EngineOptions, GroupRange, Method, RangeCqa};
pub use error::CoreError;
pub use exact::{
    exact_bounds, exact_bounds_by_group, exact_bounds_by_group_filtered, exact_bounds_filtered,
    ExactBounds,
};
pub use forall::{analyse, CompiledLevels, ForallAnalysis, Join, Valuation, VarTable};
pub use glb::Choice;
pub use index::{AccessPath, BlockRestriction, DbIndex, DirtyBlock, DirtyKeys, FactRow};
pub use interval::{certain_topk, having_status, having_status_all, order_rows, HavingStatus};
pub use plan::exec::{RowSupport, SupportAtom, SupportSlot};
pub use plan::{BoundOp, Plan};
pub use prepared::{PreparedAggQuery, PreparedBody};
pub use rewrite::{rewriting_for, BoundKind, Rewriting};
