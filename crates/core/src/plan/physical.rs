//! The physical plan IR: the linear operator pipeline the executor
//! interprets.
//!
//! The pipeline is deliberately shaped like a textbook query plan so that it
//! can be printed (`EXPLAIN`-style via [`fmt::Display`]) and asserted on in
//! tests, while staying faithful to what [`crate::plan::exec`] actually does:
//!
//! ```text
//! RangeMerge                       deterministic merge of worker shards
//! └─ AggregateBound                per group × bound: rewriting / extremum / exact
//!    └─ ForallCheck                per group: certainty + ∀embedding filter
//!       └─ PartitionByGroup        shard embeddings by GROUP BY key
//!          └─ Join                 one level-wise join pass over the body
//!             └─ Scan              the shared block index (one build per call)
//! ```

use crate::glb::Choice;
use crate::plan::logical::BoundStrategy;
use rcqa_data::AggFunc;
use rcqa_query::Var;
use std::fmt;

/// The physical operator computing one bound of one group.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BoundOp {
    /// Theorem 6.1 / 7.11 recursion over the group's ∀embeddings.
    Rewrite {
        /// The branch-combining aggregate operator.
        combine: AggFunc,
        /// Block-level alternative resolution (MIN for GLB, MAX for LUB).
        choice: Choice,
    },
    /// Theorem 7.10 extremum over the group's embeddings.
    Extremum {
        /// Whether the extremum maximises.
        choice: Choice,
    },
    /// Exhaustive repair enumeration of the group-substituted closed query,
    /// over the blocks the group's embeddings touch.
    ExactEnumeration,
}

impl BoundOp {
    /// Lowers a logical strategy to its physical operator.
    pub fn from_strategy(strategy: BoundStrategy) -> BoundOp {
        match strategy {
            BoundStrategy::Rewriting { combine, choice } => BoundOp::Rewrite { combine, choice },
            BoundStrategy::PlainExtremum { choice } => BoundOp::Extremum { choice },
            BoundStrategy::ExactFallback => BoundOp::ExactEnumeration,
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

/// One node of the physical plan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanNode {
    /// Access path: the shared block index over the named relations (built
    /// exactly once per engine call, shared by all executor workers).
    Scan {
        /// Relations scanned, in topological body order.
        relations: Vec<String>,
    },
    /// Access path: a **restricted view** of the shared block index — the
    /// relations carrying comparison predicates on key positions were
    /// narrowed by [`crate::index::DbIndex::restrict`] (ordered binary-
    /// searched range seeks where the stats said so, linear filters
    /// otherwise) before the join pass ran. A leaf, like [`PlanNode::Scan`];
    /// the join reads the view exactly as it would the full index.
    Seek {
        /// Relations read, in topological body order.
        relations: Vec<String>,
        /// One rendered access-path line per restricted relation (relation,
        /// seek/filter predicates, matched/total blocks, stats estimate).
        paths: Vec<String>,
    },
    /// One level-wise join pass over the (open or closed) body.
    Join {
        /// Number of join levels (atoms).
        levels: usize,
        /// Whether the GROUP BY variables are un-frozen for the pass.
        open_body: bool,
        /// Whether embeddings are materialised (false when every bound uses
        /// the exact fallback and only candidate group keys are needed).
        keep_embeddings: bool,
        /// Upstream operator.
        input: Box<PlanNode>,
    },
    /// Partition the join output by GROUP BY key (the block-shard boundary
    /// of the parallel executor).
    PartitionByGroup {
        /// The GROUP BY variables (empty for closed queries).
        group_vars: Vec<Var>,
        /// Upstream operator.
        input: Box<PlanNode>,
    },
    /// Per-group certainty check and (optionally) the ∀embedding filter.
    ForallCheck {
        /// Whether the operator runs at all (skipped when every bound uses
        /// the exact fallback).
        run: bool,
        /// Whether the ∀embedding filter runs (rewriting strategies only).
        compute_forall: bool,
        /// Upstream operator.
        input: Box<PlanNode>,
    },
    /// Per group, compute the requested bounds.
    AggregateBound {
        /// Operator for the greatest lower bound, if requested.
        glb: Option<BoundOp>,
        /// Operator for the least upper bound, if requested.
        lub: Option<BoundOp>,
        /// Upstream operator.
        input: Box<PlanNode>,
    },
    /// Merge the per-shard group answers in deterministic group-key order.
    RangeMerge {
        /// Upstream operator.
        input: Box<PlanNode>,
    },
}

impl PlanNode {
    /// The upstream operator, if any.
    pub fn input(&self) -> Option<&PlanNode> {
        match self {
            PlanNode::Scan { .. } | PlanNode::Seek { .. } => None,
            PlanNode::Join { input, .. }
            | PlanNode::PartitionByGroup { input, .. }
            | PlanNode::ForallCheck { input, .. }
            | PlanNode::AggregateBound { input, .. }
            | PlanNode::RangeMerge { input } => Some(input),
        }
    }
}

/// A complete physical plan (a linear pipeline rooted at [`PlanNode::RangeMerge`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhysicalPlan {
    /// The root operator.
    pub root: PlanNode,
}

/// The flattened execution parameters of a well-formed pipeline, extracted
/// once by the executor instead of re-matching the tree per group.
#[derive(Clone, Debug)]
pub(crate) struct ExecSpec {
    pub glb: Option<BoundOp>,
    pub lub: Option<BoundOp>,
    pub needs_analysis: bool,
    pub needs_forall: bool,
    pub keep_embeddings: bool,
}

impl PhysicalPlan {
    /// Flattens the pipeline into its execution parameters.
    ///
    /// # Panics
    /// Panics if the plan does not have the canonical
    /// `RangeMerge → AggregateBound → ForallCheck → PartitionByGroup → Join →
    /// Scan|Seek` shape produced by [`crate::plan::logical::LogicalPlan::lower`]
    /// (`Seek` when [`crate::plan::logical::LogicalPlan::lower_with_access`]
    /// installed a restricted access path).
    pub(crate) fn spec(&self) -> ExecSpec {
        let PlanNode::RangeMerge { input } = &self.root else {
            panic!("physical plan must be rooted at RangeMerge");
        };
        let PlanNode::AggregateBound { glb, lub, input } = input.as_ref() else {
            panic!("RangeMerge must read from AggregateBound");
        };
        let PlanNode::ForallCheck {
            run,
            compute_forall,
            input,
        } = input.as_ref()
        else {
            panic!("AggregateBound must read from ForallCheck");
        };
        let PlanNode::PartitionByGroup { input, .. } = input.as_ref() else {
            panic!("ForallCheck must read from PartitionByGroup");
        };
        let PlanNode::Join {
            keep_embeddings,
            input,
            ..
        } = input.as_ref()
        else {
            panic!("PartitionByGroup must read from Join");
        };
        let (PlanNode::Scan { .. } | PlanNode::Seek { .. }) = input.as_ref() else {
            panic!("Join must read from Scan or Seek");
        };
        ExecSpec {
            glb: *glb,
            lub: *lub,
            needs_analysis: *run,
            needs_forall: *compute_forall,
            keep_embeddings: *keep_embeddings,
        }
    }
}

impl fmt::Display for PhysicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut node = Some(&self.root);
        let mut depth = 0usize;
        while let Some(n) = node {
            if depth == 0 {
                writeln!(f, "{}", describe(n))?;
            } else {
                writeln!(f, "{}└─ {}", "   ".repeat(depth - 1), describe(n))?;
            }
            node = n.input();
            depth += 1;
        }
        Ok(())
    }
}

fn describe(node: &PlanNode) -> String {
    match node {
        PlanNode::Scan { relations } => {
            format!("Scan [{}] (shared block index)", relations.join(", "))
        }
        PlanNode::Seek { relations, paths } => format!(
            "Seek [{}] (restricted block index: {})",
            relations.join(", "),
            paths.join(" · ")
        ),
        PlanNode::Join {
            levels,
            open_body,
            keep_embeddings,
            ..
        } => format!(
            "Join [{levels} level{}, {} body{}]",
            if *levels == 1 { "" } else { "s" },
            if *open_body { "open" } else { "closed" },
            if *keep_embeddings { "" } else { ", keys only" }
        ),
        PlanNode::PartitionByGroup { group_vars, .. } => {
            if group_vars.is_empty() {
                "PartitionByGroup [single group]".to_string()
            } else {
                format!(
                    "PartitionByGroup [{}]",
                    group_vars
                        .iter()
                        .map(|v| v.to_string())
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            }
        }
        PlanNode::ForallCheck {
            run,
            compute_forall,
            ..
        } => match (run, compute_forall) {
            (false, _) => "ForallCheck [skipped]".to_string(),
            (true, false) => "ForallCheck [certainty only]".to_string(),
            (true, true) => "ForallCheck [certainty + ∀embeddings]".to_string(),
        },
        PlanNode::AggregateBound { glb, lub, .. } => {
            let show = |b: &Option<BoundOp>| {
                b.map(|op| op.to_string())
                    .unwrap_or_else(|| "-".to_string())
            };
            format!("AggregateBound [glb: {}, lub: {}]", show(glb), show(lub))
        }
        PlanNode::RangeMerge { .. } => "RangeMerge [deterministic group order]".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::logical::LogicalPlan;
    use crate::prepared::PreparedAggQuery;
    use rcqa_data::{NumericDomain, Schema, Signature};
    use rcqa_query::parse_agg_query;

    #[test]
    fn spec_round_trips_the_lowered_plan() {
        let schema = Schema::new()
            .with_relation("R", Signature::new(2, 1, []).unwrap())
            .with_relation("S", Signature::new(3, 2, [2]).unwrap());
        let q = parse_agg_query("(x, MAX(r)) <- R(x, y), S(y, z, r)").unwrap();
        let prepared = PreparedAggQuery::new(&q, &schema).unwrap();
        let plan =
            LogicalPlan::new(&prepared, NumericDomain::NonNegative, true, true).lower(&prepared);
        let spec = plan.spec();
        assert!(matches!(spec.glb, Some(BoundOp::Rewrite { .. })));
        assert!(matches!(spec.lub, Some(BoundOp::Extremum { .. })));
        assert!(spec.needs_analysis);
        assert!(spec.needs_forall);
        assert!(spec.keep_embeddings);

        // Exact-only plans skip analysis and embedding materialisation.
        let q = parse_agg_query("(x, AVG(r)) <- R(x, y), S(y, z, r)").unwrap();
        let prepared = PreparedAggQuery::new(&q, &schema).unwrap();
        let plan =
            LogicalPlan::new(&prepared, NumericDomain::NonNegative, true, false).lower(&prepared);
        let spec = plan.spec();
        assert_eq!(spec.glb, Some(BoundOp::ExactEnumeration));
        assert_eq!(spec.lub, None);
        assert!(!spec.needs_analysis);
        assert!(!spec.keep_embeddings);
    }
}
