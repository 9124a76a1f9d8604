//! What an evaluation decides, and the executor that runs it.
//!
//! The paper leaves no plan space to search. The attack graph's topological
//! sort fixes the join order, and Theorems 5.5 / 6.1 / 7.10 / 7.11 with
//! Section 7.3 fix, per `(aggregate, aggregated term, bound, numeric domain,
//! attack graph)`, the one way a bound is computed. [`BoundOp::choose`]
//! **decides** that — the strategy table, written out in its docs — and
//! nothing else does: [`crate::engine::RangeCqa::plan`] (a [`Plan`] is two
//! operators, one per requested bound), [`mod@crate::classify`],
//! [`crate::rewrite::rewriting_for`], [`Method`] and the MaxSAT baseline
//! **read** it. What the executor ([`exec`]) does follows from the two
//! operators: whether the per-group analysis runs at all, and whether it
//! includes the ∀embedding condition.
//!
//! Every evaluation path — `glb`, `lub`, `range`, and the exact fallback —
//! runs through that one executor with one set of invariants (single index
//! build, shared group discovery, deterministic merge order), always as the
//! same logical pipeline, which [`Plan::explain`] renders:
//!
//! ```text
//! RangeMerge                       deterministic merge of worker shards
//! └─ AggregateBound                per group × bound: rewriting / extremum / exact
//!    └─ ForallCheck                per block: certainty gates the ∀embeddings
//!       └─ PartitionByGroup        the GROUP BY keys with an embedding
//!          └─ Join                 level-wise walk of the body, memoised per level
//!             └─ Scan | Seek       the shared block index, or its restricted view
//! ```
//!
//! The stages are logical: the rewriting's `ForallCheck` and
//! `AggregateBound` run as one memoised recursion over the index, and no
//! stage hands the next a list of embeddings ([`exec`] says what each
//! computes).
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

use crate::engine::Method;
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
    /// Exhaustive repair enumeration of the group's embeddings, over the
    /// blocks they touch (the only sound path for a cell without a
    /// rewriting).
    ExactEnumeration,
}

impl BoundOp {
    /// The strategy table: the operator computing `bound` of `prepared` over
    /// an instance whose numeric columns range over `domain`, and the result
    /// of the paper behind the cell — the theorem that constructs the
    /// rewriting or, for [`BoundOp::ExactEnumeration`], what rules a rewriting
    /// out or leaves the cell open.
    ///
    /// Over a body with an acyclic attack graph:
    ///
    /// | aggregate | aggregated term | numeric domain | GLB | LUB |
    /// |-----------|-----------------|----------------|-----|-----|
    /// | `SUM` | variable | `Q≥0` | `Rewrite(SUM, Minimise)` — Theorem 6.1 | `ExactEnumeration` — Theorem 7.8 |
    /// | `SUM` | variable | unconstrained | `ExactEnumeration` — Section 7.3 | `ExactEnumeration` — Theorem 7.8 |
    /// | `SUM` | constant `c ≥ 0` | any | `Rewrite(SUM, Minimise)` — Theorem 6.1 | `ExactEnumeration` — Theorem 7.8 |
    /// | `SUM` | constant `c < 0` | any | `ExactEnumeration` — Section 7.3 | `ExactEnumeration` — Theorem 7.8 |
    /// | `COUNT` | any | any | `Rewrite(SUM, Minimise)` — Theorem 6.1 via COUNT = SUM(1) | `ExactEnumeration` — Theorem 7.8 |
    /// | `MAX` | any | any | `Rewrite(MAX, Minimise)` — Theorem 6.1 | `Extremum(Maximise)` — Theorem 7.11 |
    /// | `MIN` | any | any | `Extremum(Minimise)` — Theorem 7.10 | `Rewrite(MIN, Maximise)` — Theorem 7.11 |
    /// | `AVG`, `PRODUCT`, `COUNT-DISTINCT`, `SUM-DISTINCT` | any | any | `ExactEnumeration` — Section 8 | `ExactEnumeration` — Section 8 |
    ///
    /// Over a cyclic one every cell is `ExactEnumeration` — Theorem 5.5.
    ///
    /// The `SUM` rows are one premise, [`PreparedAggQuery::addend_domain`]:
    /// Theorem 6.1 asks for a monotone and associative operator, and `SUM` is
    /// monotone exactly when its *addends* are non-negative — a variable over
    /// `Q≥0` columns, or a constant `c ≥ 0` whatever the columns hold
    /// (`COUNT` is the constant 1). `MAX` is monotone over every domain.
    /// (`tests::the_doc_table_is_the_function` checks every cell above.)
    pub fn choose(
        prepared: &PreparedAggQuery,
        bound: BoundKind,
        domain: NumericDomain,
    ) -> (BoundOp, &'static str) {
        use {AggFunc::*, BoundKind::*, Choice::*};
        let rewrite = |combine, choice| BoundOp::Rewrite { combine, choice };
        let extremum = |choice| BoundOp::Extremum { choice };
        let exact = BoundOp::ExactEnumeration;
        if !prepared.body.is_acyclic() {
            return (exact, "Theorem 5.5: cyclic attack graph");
        }
        let agg = prepared.normalised.agg;
        let monotone = agg.is_monotone(prepared.addend_domain(domain));
        let theorem_6_1 = match prepared.original.agg {
            Count => "Theorem 6.1 via COUNT = SUM(1)",
            _ => "Theorem 6.1: monotone and associative aggregate, acyclic attack graph",
        };
        let section_7_3 = "Section 7.3: SUM of negative addends is not monotone";
        let theorem_7_8 = "Theorem 7.8: the dual of SUM has a descending chain";
        let theorem_7_10 = "Theorem 7.10: MIN-queries with acyclic attack graphs";
        let theorem_7_11 = "Theorem 7.11: MIN/MAX separation for glb and lub";
        let section_8 = "Section 8: not covered by the paper's results";
        match (bound, agg) {
            (Glb, Sum | Max) if monotone => (rewrite(agg, Minimise), theorem_6_1),
            (Glb, Sum) => (exact, section_7_3),
            (Glb, Min) => (extremum(Minimise), theorem_7_10),
            (Lub, Max) => (extremum(Maximise), theorem_7_11),
            (Lub, Min) => (rewrite(Min, Maximise), theorem_7_11),
            (Lub, Sum) => (exact, theorem_7_8),
            _ => (exact, section_8),
        }
    }
}

/// How an answer says it was obtained: the operator that computed it, without
/// its fields.
impl From<BoundOp> for Method {
    fn from(op: BoundOp) -> Method {
        match op {
            BoundOp::Rewrite { .. } => Method::Rewriting,
            BoundOp::Extremum { .. } => Method::PlainExtremum,
            BoundOp::ExactEnumeration => Method::ExactEnumeration,
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

    /// Whether some bound is evaluated over the index by the memoised
    /// recursion of [`crate::glb`] (certainty included) — every operator but
    /// the exact enumeration is.
    pub fn needs_analysis(&self) -> bool {
        self.any(|op| *op != BoundOp::ExactEnumeration)
    }

    /// Whether the analysis includes the ∀embedding condition, which only
    /// the rewriting recursion reads.
    pub fn needs_forall(&self) -> bool {
        self.any(|op| matches!(op, BoundOp::Rewrite { .. }))
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
                if self.needs_analysis() {
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
    use crate::rewrite::rewriting_for;
    use rcqa_data::{Schema, Signature};
    use rcqa_query::parse_agg_query;

    /// `R(x, y)`, `S(y, z, r)` join acyclically; `C1(x, y)`, `C2(y, x, r)`
    /// attack each other.
    fn engine(text: &str) -> RangeCqa {
        let schema = Schema::new()
            .with_relation("R", Signature::new(2, 1, []).unwrap())
            .with_relation("S", Signature::new(3, 2, [2]).unwrap())
            .with_relation("C1", Signature::new(2, 1, []).unwrap())
            .with_relation("C2", Signature::new(3, 1, [2]).unwrap());
        RangeCqa::new(&parse_agg_query(text).unwrap(), &schema).unwrap()
    }

    fn plan(text: &str, domain: NumericDomain, want_glb: bool, want_lub: bool) -> Plan {
        engine(text).plan(domain, want_glb, want_lub)
    }

    const ACYCLIC: &str = "R(x, y), S(y, z, r)";
    const CYCLIC: &str = "C1(x, y), C2(y, x, r)";
    const DOMAINS: [NumericDomain; 2] = [NumericDomain::NonNegative, NumericDomain::Unconstrained];

    /// Every aggregate over a numeric variable and the constants 1, 0, −1,
    /// on either domain.
    fn heads() -> impl Iterator<Item = (AggFunc, &'static str, NumericDomain)> {
        let terms = ["r", "1", "0", "-1"];
        let per_agg = move |agg| {
            terms
                .into_iter()
                .flat_map(move |t| DOMAINS.map(|d| (agg, t, d)))
        };
        AggFunc::ALL.into_iter().flat_map(per_agg)
    }

    #[test]
    fn strategy_table_is_reproduced() {
        let both = |text: &str, domain| plan(text, domain, true, true);
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

        // A constant term decides by its own sign, whatever the columns hold.
        for domain in DOMAINS {
            for (head, rewrites) in [("SUM(1)", true), ("SUM(0)", true), ("SUM(-1)", false)] {
                let p = both(&format!("{head} <- {ACYCLIC}"), domain);
                let rewrite = matches!(p.glb, Some(BoundOp::Rewrite { .. }));
                assert_eq!(rewrite, rewrites, "{head} over {domain:?}");
                assert_eq!(p.lub, Some(BoundOp::ExactEnumeration), "{head}");
            }
        }
    }

    /// Classification, the plan and the symbolic rewriting read one table:
    /// over every aggregate, term, domain, body shape and bound they agree
    /// on whether a rewriting exists.
    #[test]
    fn the_cells_agree_by_construction() {
        let mut rewritable = 0;
        for ((agg, term, domain), body) in heads().flat_map(|h| [(h, ACYCLIC), (h, CYCLIC)]) {
            let engine = engine(&format!("{agg}({term}) <- {body}"));
            let prepared = engine.prepared();
            assert_eq!(prepared.body.is_acyclic(), body == ACYCLIC);
            let (plan, classified) = (
                engine.plan(domain, true, true),
                engine.classification(domain),
            );
            for (bound, planned, classified) in [
                (BoundKind::Glb, plan.glb, &classified.glb),
                (BoundKind::Lub, plan.lub, &classified.lub),
            ] {
                let cell = format!("{bound:?} of {agg}({term}) <- {body} over {domain:?}");
                let (op, _) = BoundOp::choose(prepared, bound, domain);
                let rewrites = op != BoundOp::ExactEnumeration;
                assert_eq!(planned, Some(op), "{cell}");
                assert_eq!(classified.is_rewritable(), rewrites, "{cell}");
                assert_eq!(
                    rewriting_for(prepared, bound, domain).is_some(),
                    rewrites,
                    "{cell}"
                );
                assert!(rewrites <= (body == ACYCLIC), "{cell}");
                assert!(
                    matches!(
                        (op, Method::from(op)),
                        (BoundOp::Rewrite { .. }, Method::Rewriting)
                            | (BoundOp::Extremum { .. }, Method::PlainExtremum)
                            | (BoundOp::ExactEnumeration, Method::ExactEnumeration)
                    ),
                    "{cell}"
                );
                rewritable += usize::from(rewrites);
            }
        }
        // SUM's GLB on 5 of its 8 (term, domain) pairs, COUNT's on all 8,
        // MIN's and MAX's both bounds on all 8.
        assert_eq!(rewritable, 5 + 8 + 16 + 16);
    }

    /// The table in the docs of [`BoundOp::choose`], read out of this file:
    /// every (aggregate, term, domain) is covered by exactly one row, and
    /// each cell names the operator and the theorem the function returns.
    #[test]
    fn the_doc_table_is_the_function() {
        let source = include_str!("mod.rs");
        let rows: Vec<Vec<&str>> = source
            .lines()
            .filter_map(|line| line.trim().strip_prefix("/// | `"))
            .map(|row| row.split('|').map(str::trim).collect())
            .collect();
        assert_eq!(rows.len(), 8, "the table's rows below its header");
        for (agg, term, domain) in heads() {
            let covers = |row: &&Vec<&str>| {
                let mut names = row[0].split(", ").map(|name| name.trim_matches('`'));
                let term_matches = match row[1] {
                    "variable" => term == "r",
                    "constant `c ≥ 0`" => term == "0" || term == "1",
                    "constant `c < 0`" => term == "-1",
                    other => other == "any",
                };
                let domain_matches = match row[2] {
                    "`Q≥0`" => domain == NumericDomain::NonNegative,
                    "unconstrained" => domain == NumericDomain::Unconstrained,
                    other => other == "any",
                };
                names.any(|name| AggFunc::parse(name) == Some(agg))
                    && term_matches
                    && domain_matches
            };
            let cell = format!("{agg}({term}) over {domain:?}");
            let matching: Vec<_> = rows.iter().filter(covers).collect();
            assert_eq!(matching.len(), 1, "{cell}: rows {matching:?}");
            let engine = engine(&format!("{agg}({term}) <- {ACYCLIC}"));
            for (column, bound) in [(3, BoundKind::Glb), (4, BoundKind::Lub)] {
                let (op, theorem) = BoundOp::choose(engine.prepared(), bound, domain);
                let reference = theorem.split(':').next().unwrap();
                let shown = format!("`{op}` — {reference}");
                assert_eq!(matching[0][column], shown, "{bound:?} of {cell}");
            }
        }
        let sentence = "/// Over a cyclic one every cell is `ExactEnumeration` — Theorem 5.5.";
        assert!(source.lines().any(|line| line.trim() == sentence));
        let cyclic = engine(&format!("MAX(r) <- {CYCLIC}"));
        let (op, theorem) = BoundOp::choose(cyclic.prepared(), BoundKind::Lub, DOMAINS[0]);
        assert_eq!(op, BoundOp::ExactEnumeration);
        assert!(theorem.starts_with("Theorem 5.5"));
    }

    #[test]
    fn the_plan_says_what_the_executor_reads() {
        let domain = NumericDomain::NonNegative;
        let p = plan("(x, MAX(r)) <- R(x, y), S(y, z, r)", domain, true, true);
        assert!(matches!(p.glb, Some(BoundOp::Rewrite { .. })));
        assert!(matches!(p.lub, Some(BoundOp::Extremum { .. })));
        assert!(p.needs_analysis());
        assert!(p.needs_forall());

        // Exact-only plans skip the analysis: their join finds keys only.
        let p = plan("(x, AVG(r)) <- R(x, y), S(y, z, r)", domain, true, false);
        assert_eq!(p.glb, Some(BoundOp::ExactEnumeration));
        assert_eq!(p.lub, None);
        assert!(!p.needs_analysis());
        assert!(!p.needs_forall());
    }
}
