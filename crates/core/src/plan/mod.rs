//! What an evaluation decides, and the executor that runs it.
//!
//! The paper leaves no plan space to search. The attack graph's topological
//! sort fixes the join order, and Theorems 6.1 / 7.10 / 7.11 fix, per
//! `(aggregate, bound, numeric domain)`, the one way a bound is computed —
//! the table in [`crate::engine`]'s module docs, which [`BoundOp::choose`]
//! reads off. A [`Plan`] is therefore two operators, one per requested bound,
//! and everything else the executor ([`exec`]) does follows from them: whether
//! the per-group embedding analysis runs, whether it includes the ∀embedding
//! filter, whether embeddings are materialised at all.
//!
//! Every evaluation path — `glb`, `lub`, `range`, and the exact fallback —
//! runs through that one executor with one set of invariants (single index
//! build, shared group partitioning, deterministic merge order), always as
//! the same pipeline, which [`Plan::explain`] renders:
//!
//! ```text
//! RangeMerge                       deterministic merge of worker shards
//! └─ AggregateBound                per group × bound: rewriting / extremum / exact
//!    └─ ForallCheck                per group: certainty + ∀embedding filter
//!       └─ PartitionByGroup        shard embeddings by GROUP BY key
//!          └─ Join                 one level-wise join pass over the body
//!             └─ Scan | Seek       the shared block index, or its restricted view
//! ```
//!
//! ```
//! use rcqa_core::engine::RangeCqa;
//! use rcqa_core::plan::BoundOp;
//! use rcqa_data::{NumericDomain, Schema, Signature};
//! use rcqa_query::parse_agg_query;
//!
//! let schema = Schema::new()
//!     .with_relation("Dealers", Signature::new(2, 1, []).unwrap())
//!     .with_relation("Stock", Signature::new(3, 2, [2]).unwrap());
//! let q = parse_agg_query("(x, SUM(y)) <- Dealers(x, t), Stock(p, t, y)").unwrap();
//! let engine = RangeCqa::new(&q, &schema).unwrap();
//! let plan = engine.plan(NumericDomain::NonNegative, true, true);
//! assert!(matches!(plan.glb, Some(BoundOp::Rewrite { .. })));
//! assert_eq!(plan.lub, Some(BoundOp::ExactEnumeration));
//! println!("{}", plan.explain(engine.prepared(), &[])); // RangeMerge └─ AggregateBound └─ ...
//! ```

pub mod exec;

pub use exec::{execute, ExecContext};

use crate::glb::Choice;
use crate::index::AccessPath;
use crate::prepared::PreparedAggQuery;
use crate::rewrite::BoundKind;
use rcqa_data::{AggFunc, NumericDomain};
use std::fmt;

/// The operator computing one bound of one group.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BoundOp {
    /// Theorem 6.1 / 7.11 recursion over the group's ∀embeddings: `combine`
    /// aggregates independent branches, `choice` resolves alternatives
    /// within a block.
    Rewrite {
        /// The branch-combining aggregate operator `F⊕`.
        combine: AggFunc,
        /// Block-level alternative resolution (MIN for GLB, MAX for LUB).
        choice: Choice,
    },
    /// Theorem 7.10 extremum over the group's embeddings (GLB of MIN, LUB of
    /// MAX).
    Extremum {
        /// Whether the extremum maximises.
        choice: Choice,
    },
    /// Exhaustive repair enumeration of the group-substituted closed query,
    /// over the blocks the group's embeddings touch (the only sound path for
    /// a cell without a rewriting).
    ExactEnumeration,
}

impl BoundOp {
    /// The operator of the engine's strategy table for `bound`, given the
    /// prepared query and the numeric domain of the instance.
    pub fn choose(prepared: &PreparedAggQuery, bound: BoundKind, domain: NumericDomain) -> BoundOp {
        if !prepared.body.is_acyclic() {
            return BoundOp::ExactEnumeration;
        }
        let agg = prepared.normalised.agg;
        // The Theorem 6.1 rewriting for SUM requires monotonicity, which in
        // turn requires numeric columns over Q≥0 (Section 7.3).
        let sum_ok = agg != AggFunc::Sum || domain == NumericDomain::NonNegative;
        match (bound, agg) {
            (BoundKind::Glb, AggFunc::Sum) if sum_ok => BoundOp::Rewrite {
                combine: AggFunc::Sum,
                choice: Choice::Minimise,
            },
            (BoundKind::Glb, AggFunc::Max) => BoundOp::Rewrite {
                combine: AggFunc::Max,
                choice: Choice::Minimise,
            },
            (BoundKind::Glb, AggFunc::Min) => BoundOp::Extremum {
                choice: Choice::Minimise,
            },
            (BoundKind::Lub, AggFunc::Max) => BoundOp::Extremum {
                choice: Choice::Maximise,
            },
            (BoundKind::Lub, AggFunc::Min) => BoundOp::Rewrite {
                combine: AggFunc::Min,
                choice: Choice::Maximise,
            },
            _ => BoundOp::ExactEnumeration,
        }
    }
}

impl fmt::Display for BoundOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoundOp::Rewrite { combine, choice } => write!(f, "Rewrite({combine}, {choice:?})"),
            BoundOp::Extremum { choice } => write!(f, "Extremum({choice:?})"),
            BoundOp::ExactEnumeration => write!(f, "ExactEnumeration"),
        }
    }
}

/// The plan of one engine call: the operator of each requested bound
/// ([`crate::engine::RangeCqa::plan`] makes it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Plan {
    /// Operator for the greatest lower bound, if requested.
    pub glb: Option<BoundOp>,
    /// Operator for the least upper bound, if requested.
    pub lub: Option<BoundOp>,
}

impl Plan {
    fn any(&self, holds: impl Fn(&BoundOp) -> bool) -> bool {
        self.glb.iter().chain(&self.lub).any(holds)
    }

    /// Whether some bound consumes the per-group embedding analysis (the
    /// certainty bit and the group's embeddings) — every operator but the
    /// exact enumeration does.
    pub fn needs_analysis(&self) -> bool {
        self.any(|op| *op != BoundOp::ExactEnumeration)
    }

    /// Whether the analysis includes the ∀embedding filter, which only the
    /// rewriting recursion reads.
    pub fn needs_forall(&self) -> bool {
        self.any(|op| matches!(op, BoundOp::Rewrite { .. }))
    }

    /// Whether the join materialises embeddings: only the analysis reads
    /// them — an exact-only plan needs the candidate group keys alone.
    pub fn keep_embeddings(&self) -> bool {
        self.needs_analysis()
    }

    /// The `EXPLAIN` rendering of the pipeline this plan runs over
    /// `prepared`: one line per stage, the leaf a `Seek` listing `access`
    /// when a restricted view of the index was taken
    /// ([`crate::index::DbIndex::restrict`]) and a `Scan` of the shared index
    /// otherwise.
    pub fn explain(&self, prepared: &PreparedAggQuery, access: &[AccessPath<'_>]) -> String {
        fn join<T: fmt::Display>(items: impl IntoIterator<Item = T>, sep: &str) -> String {
            let items: Vec<String> = items.into_iter().map(|item| item.to_string()).collect();
            items.join(sep)
        }
        let show = |op: Option<BoundOp>| op.map_or("-".to_string(), |op| op.to_string());
        let forall = match (self.needs_analysis(), self.needs_forall()) {
            (false, _) => "skipped",
            (true, false) => "certainty only",
            (true, true) => "certainty + ∀embeddings",
        };
        let group_vars = prepared.normalised.body.free_vars();
        let partition = if group_vars.is_empty() {
            "single group".to_string()
        } else {
            join(group_vars, ", ")
        };
        let levels = prepared.body.len();
        let atoms = prepared.body.atoms_in_order();
        let relations = join(atoms.iter().map(|a| a.relation()), ", ");
        let stages = [
            "RangeMerge [deterministic group order]".to_string(),
            format!(
                "AggregateBound [glb: {}, lub: {}]",
                show(self.glb),
                show(self.lub)
            ),
            format!("ForallCheck [{forall}]"),
            format!("PartitionByGroup [{partition}]"),
            format!(
                "Join [{levels} level{}, {} body{}]",
                if levels == 1 { "" } else { "s" },
                if group_vars.is_empty() {
                    "closed"
                } else {
                    "open"
                },
                if self.keep_embeddings() {
                    ""
                } else {
                    ", keys only"
                }
            ),
            if access.is_empty() {
                format!("Scan [{relations}] (shared block index)")
            } else {
                format!(
                    "Seek [{relations}] (restricted block index: {})",
                    join(access, " · ")
                )
            },
        ];
        let mut out = String::new();
        for (depth, stage) in stages.iter().enumerate() {
            if depth > 0 {
                out.push_str(&"   ".repeat(depth - 1));
                out.push_str("└─ ");
            }
            out.push_str(stage);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RangeCqa;
    use rcqa_data::{Schema, Signature};
    use rcqa_query::parse_agg_query;

    fn plan(text: &str, domain: NumericDomain, want_glb: bool, want_lub: bool) -> Plan {
        let schema = Schema::new()
            .with_relation("R", Signature::new(2, 1, []).unwrap())
            .with_relation("S", Signature::new(3, 2, [2]).unwrap());
        let q = parse_agg_query(text).unwrap();
        RangeCqa::new(&q, &schema)
            .unwrap()
            .plan(domain, want_glb, want_lub)
    }

    #[test]
    fn strategy_table_is_reproduced() {
        let both = |text, domain| plan(text, domain, true, true);
        let p = both("SUM(r) <- R(x, y), S(y, z, r)", NumericDomain::NonNegative);
        assert!(matches!(p.glb, Some(BoundOp::Rewrite { .. })));
        assert_eq!(p.lub, Some(BoundOp::ExactEnumeration));

        // Section 7.3: negatives disable the SUM rewriting.
        let p = both(
            "SUM(r) <- R(x, y), S(y, z, r)",
            NumericDomain::Unconstrained,
        );
        assert_eq!(p.glb, Some(BoundOp::ExactEnumeration));

        let p = both("MIN(r) <- R(x, y), S(y, z, r)", NumericDomain::NonNegative);
        assert!(matches!(p.glb, Some(BoundOp::Extremum { .. })));
        assert!(matches!(p.lub, Some(BoundOp::Rewrite { .. })));

        let p = both("MAX(r) <- R(x, y), S(y, z, r)", NumericDomain::NonNegative);
        assert!(matches!(p.glb, Some(BoundOp::Rewrite { .. })));
        assert!(matches!(p.lub, Some(BoundOp::Extremum { .. })));

        let p = both("AVG(r) <- R(x, y), S(y, z, r)", NumericDomain::NonNegative);
        assert_eq!(p.glb, Some(BoundOp::ExactEnumeration));
        assert_eq!(p.lub, Some(BoundOp::ExactEnumeration));
    }

    #[test]
    fn the_plan_says_what_the_executor_reads() {
        let domain = NumericDomain::NonNegative;
        let p = plan("(x, MAX(r)) <- R(x, y), S(y, z, r)", domain, true, true);
        assert!(matches!(p.glb, Some(BoundOp::Rewrite { .. })));
        assert!(matches!(p.lub, Some(BoundOp::Extremum { .. })));
        assert!(p.needs_analysis());
        assert!(p.needs_forall());
        assert!(p.keep_embeddings());

        // Exact-only plans skip analysis and embedding materialisation.
        let p = plan("(x, AVG(r)) <- R(x, y), S(y, z, r)", domain, true, false);
        assert_eq!(p.glb, Some(BoundOp::ExactEnumeration));
        assert_eq!(p.lub, None);
        assert!(!p.needs_analysis());
        assert!(!p.keep_embeddings());
    }
}
