//! # rcqa-data
//!
//! Data model for range-consistent query answering over inconsistent
//! databases: exact rational arithmetic, constants, relation signatures with
//! primary keys and numerical columns, facts, database instances, blocks,
//! repairs, and aggregate operators with their algebraic properties.
//!
//! This crate is the storage substrate used by the rest of the `rcqa`
//! workspace, which reproduces the PODS 2024 paper *"Computing Range
//! Consistent Answers to Aggregation Queries via Rewriting"* by Amezian El
//! Khalfioui and Wijsen.
//!
//! ## Quick example
//!
//! ```
//! use rcqa_data::prelude::*;
//! use rcqa_data::fact;
//!
//! // The Fig. 1 schema: Dealers(Name, Town), Stock(Product, Town, Qty).
//! let schema = Schema::new()
//!     .with_relation("Dealers", Signature::new(2, 1, []).unwrap())
//!     .with_relation("Stock", Signature::new(3, 2, [2]).unwrap());
//! let mut db = DatabaseInstance::new(schema);
//! db.insert(fact!("Dealers", "Smith", "Boston")).unwrap();
//! db.insert(fact!("Dealers", "Smith", "New York")).unwrap();
//! assert!(!db.is_consistent());
//! assert_eq!(db.repair_count(), Some(2));
//! ```

#![warn(missing_docs)]

pub mod agg;
pub mod chunked;
pub mod codec;
pub mod delta;
pub mod error;
pub mod fact;
pub mod instance;
pub mod interner;
pub mod rational;
pub mod schema;
pub mod value;

/// Convenient re-exports of the most commonly used types.
pub mod prelude {
    pub use crate::agg::{AggFunc, AggOp};
    pub use crate::chunked::ChunkedSeq;
    pub use crate::delta::{DeltaEvent, DeltaOp};
    pub use crate::error::DataError;
    pub use crate::fact::Fact;
    pub use crate::instance::{Block, DatabaseInstance, NumericDomain, RepairIter};
    pub use crate::interner::{ValueInterner, MISSING_ID, UNBOUND_ID};
    pub use crate::rational::{rat, ratio, Rational};
    pub use crate::schema::{RelName, Schema, Signature};
    pub use crate::value::Value;
}

pub use prelude::*;
