//! The separation decision: is `GLB-CQA(g())` / `LUB-CQA(g())` expressible in
//! AGGR\[FOL\]? (Theorem 1.1, Theorem 5.5, Theorem 6.1, Theorems 7.10/7.11.)
//!
//! The positive half is not decided here: a bound is rewritable exactly when
//! the strategy table ([`BoundOp::choose`]) names an operator other than the
//! exact enumeration, and the table's theorem is the justification. This
//! module reports that, and words the negative half — Theorem 5.5 for a
//! cyclic attack graph, the descending-chain results and Section 8 for the
//! cells the paper leaves open.

use crate::error::CoreError;
use crate::plan::BoundOp;
use crate::prepared::PreparedAggQuery;
use crate::rewrite::BoundKind;
use rcqa_data::{AggFunc, NumericDomain, Schema};
use rcqa_query::{is_caggforest, AggQuery, CertaintyComplexity};
use std::fmt;

/// Whether a bound of the query is expressible in AGGR\[FOL\].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expressibility {
    /// A rewriting exists and can be constructed (the engine will use it).
    Rewritable {
        /// Which theorem of the paper justifies the rewriting.
        justification: String,
    },
    /// No rewriting exists.
    NotRewritable {
        /// Which theorem of the paper rules the rewriting out.
        justification: String,
    },
    /// The paper leaves this case open (Section 8); the engine falls back to
    /// exact methods.
    Open {
        /// Why the case is open.
        justification: String,
    },
}

impl Expressibility {
    /// Returns `true` for the [`Expressibility::Rewritable`] case.
    pub fn is_rewritable(&self) -> bool {
        matches!(self, Expressibility::Rewritable { .. })
    }
}

impl fmt::Display for Expressibility {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expressibility::Rewritable { justification } => {
                write!(f, "rewritable in AGGR[FOL] ({justification})")
            }
            Expressibility::NotRewritable { justification } => {
                write!(f, "not rewritable in AGGR[FOL] ({justification})")
            }
            Expressibility::Open { justification } => write!(f, "open ({justification})"),
        }
    }
}

/// The full classification of an aggregation query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Classification {
    /// Whether the attack graph of the (existentially closed) body is acyclic.
    pub attack_graph_acyclic: bool,
    /// Complexity of `CERTAINTY` for the body (Koutris–Wijsen trichotomy).
    pub certainty: CertaintyComplexity,
    /// Expressibility of `GLB-CQA(g())`.
    pub glb: Expressibility,
    /// Expressibility of `LUB-CQA(g())`.
    pub lub: Expressibility,
    /// Whether the query falls in Fuxman's class Caggforest (ConQuer).
    pub in_caggforest: bool,
    /// Whether the (normalised) aggregate operator is monotone over the
    /// domain of its addends ([`PreparedAggQuery::addend_domain`]) — the
    /// premise of Theorem 6.1 the strategy table tests.
    pub monotone: bool,
    /// Whether the aggregate operator is associative.
    pub associative: bool,
}

/// Classifies a query assuming numeric columns range over `Q≥0` (the paper's
/// default).
pub fn classify(query: &AggQuery, schema: &Schema) -> Result<Classification, CoreError> {
    classify_with_domain(query, schema, NumericDomain::NonNegative)
}

/// Classifies a query for a given numeric domain (Section 7.3 shows that the
/// domain matters: `SUM` stops being monotone as soon as `−1` is allowed).
pub fn classify_with_domain(
    query: &AggQuery,
    schema: &Schema,
    domain: NumericDomain,
) -> Result<Classification, CoreError> {
    let prepared = PreparedAggQuery::new(query, schema)?;
    Ok(classify_prepared(&prepared, schema, domain))
}

/// Like [`classify_with_domain`], but over an already-prepared query — no
/// re-preparation, no attack-graph recomputation (the hot path for callers
/// that hold a [`crate::engine::RangeCqa`]).
pub fn classify_prepared(
    prepared: &PreparedAggQuery,
    schema: &Schema,
    domain: NumericDomain,
) -> Classification {
    let acyclic = prepared.body.is_acyclic();
    // COUNT is analysed as SUM(1) (remark after Theorem 6.1).
    let effective = prepared.normalised.agg;
    let addends = prepared.addend_domain(domain);
    let expressibility = |bound| {
        let (op, theorem) = BoundOp::choose(prepared, bound, domain);
        if op != BoundOp::ExactEnumeration {
            return Expressibility::Rewritable {
                justification: theorem.to_string(),
            };
        }
        if !acyclic {
            return Expressibility::NotRewritable {
                justification: theorem.to_string(),
            };
        }
        let justification = match bound {
            BoundKind::Glb if effective.has_descending_chain(addends) => format!(
                "Section 7.1: {effective} has a descending chain; GLB-CQA is NL/NP-hard for \
                 specific queries (Lemmas 7.2/7.3), the general case is open (Section 8)"
            ),
            BoundKind::Glb => format!(
                "Section 8: {effective} lacks monotonicity or associativity and is not \
                 covered by the paper's results"
            ),
            BoundKind::Lub if effective == AggFunc::Sum => {
                "Theorem 7.8: the dual of SUM has a descending chain; LUB-CQA(SUM) is not \
                 expressible for the Lemma 7.2 query, the general case is open"
                    .to_string()
            }
            BoundKind::Lub => {
                format!("Section 8: the dual of {effective} lacks monotonicity; not covered")
            }
        };
        Expressibility::Open { justification }
    };

    Classification {
        attack_graph_acyclic: acyclic,
        certainty: prepared.body.attack_graph().certainty_complexity(),
        glb: expressibility(BoundKind::Glb),
        lub: expressibility(BoundKind::Lub),
        in_caggforest: is_caggforest(&prepared.original, schema),
        monotone: effective.is_monotone(addends),
        associative: effective.is_associative(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcqa_data::Signature;
    use rcqa_query::parse_agg_query;

    fn schema() -> Schema {
        Schema::new()
            .with_relation("R", Signature::new(2, 1, []).unwrap())
            .with_relation("S", Signature::new(4, 2, [3]).unwrap())
            .with_relation("S1", Signature::new(2, 1, []).unwrap())
            .with_relation("S2", Signature::new(2, 1, []).unwrap())
            .with_relation("T", Signature::new(3, 1, [2]).unwrap())
            .with_relation("B", Signature::new(2, 1, [1]).unwrap())
    }

    #[test]
    fn sum_acyclic_is_rewritable_for_glb_only() {
        let q = parse_agg_query("SUM(r) <- R(x, y), S(y, z, 'd', r)").unwrap();
        let c = classify(&q, &schema()).unwrap();
        assert!(c.attack_graph_acyclic);
        assert!(c.glb.is_rewritable());
        assert!(!c.lub.is_rewritable());
        assert!(c.monotone && c.associative);
        assert_eq!(c.certainty, CertaintyComplexity::FirstOrder);
    }

    #[test]
    fn count_is_rewritable_via_sum_of_one() {
        let q = parse_agg_query("COUNT(*) <- R(x, y), S(y, z, 'd', r)").unwrap();
        let c = classify(&q, &schema()).unwrap();
        assert!(c.glb.is_rewritable());
        // The addend is the constant 1, whatever the numeric columns hold.
        for domain in [NumericDomain::NonNegative, NumericDomain::Unconstrained] {
            let c = classify_with_domain(&q, &schema(), domain).unwrap();
            assert!(c.monotone, "{domain:?}");
            assert_eq!(
                c.glb,
                Expressibility::Rewritable {
                    justification: "Theorem 6.1 via COUNT = SUM(1)".to_string()
                },
                "{domain:?}"
            );
            assert!(!c.lub.is_rewritable(), "{domain:?}");
        }
    }

    #[test]
    fn cyclic_attack_graph_blocks_both_bounds() {
        // R(x, y), S(y, x) form a (weak) attack-graph cycle; Theorem 5.5 rules
        // out AGGR[FOL] rewritings for both bounds.
        let schema = Schema::new()
            .with_relation("R", Signature::new(2, 1, [1]).unwrap())
            .with_relation("S", Signature::new(2, 1, []).unwrap());
        let q = parse_agg_query("SUM(y) <- R(x, y), S(y, x)").unwrap();
        let c = classify(&q, &schema).unwrap();
        assert!(!c.attack_graph_acyclic);
        assert!(!c.glb.is_rewritable());
        assert!(!c.lub.is_rewritable());
        assert_eq!(c.certainty, CertaintyComplexity::PolynomialTime);
    }

    #[test]
    fn lemma_7_2_query_has_acyclic_attack_graph() {
        // The Lemma 7.2 query AGG(r) <- R(x, y, r), S1(y, x), S2(y, x) has an
        // acyclic attack graph; its hardness for AVG/PRODUCT comes from the
        // descending chain of the aggregate, not from the graph.
        let schema = Schema::new()
            .with_relation("B", Signature::new(3, 2, [2]).unwrap())
            .with_relation("S1", Signature::new(2, 1, []).unwrap())
            .with_relation("S2", Signature::new(2, 1, []).unwrap());
        let q = parse_agg_query("AVG(r) <- B(x, y, r), S1(y, x), S2(y, x)").unwrap();
        let c = classify(&q, &schema).unwrap();
        assert!(c.attack_graph_acyclic);
        assert!(matches!(c.glb, Expressibility::Open { .. }));
        let sum = parse_agg_query("SUM(r) <- B(x, y, r), S1(y, x), S2(y, x)").unwrap();
        let c = classify(&sum, &schema).unwrap();
        assert!(c.glb.is_rewritable());
    }

    #[test]
    fn min_max_rewritable_for_both_bounds() {
        let q = parse_agg_query("MIN(r) <- R(x, y), S(y, z, 'd', r)").unwrap();
        let c = classify(&q, &schema()).unwrap();
        assert!(c.glb.is_rewritable());
        assert!(c.lub.is_rewritable());
        let q = parse_agg_query("MAX(r) <- R(x, y), S(y, z, 'd', r)").unwrap();
        let c = classify(&q, &schema()).unwrap();
        assert!(c.glb.is_rewritable());
        assert!(c.lub.is_rewritable());
    }

    #[test]
    fn avg_and_count_distinct_are_open() {
        let q = parse_agg_query("AVG(r) <- R(x, y), S(y, z, 'd', r)").unwrap();
        let c = classify(&q, &schema()).unwrap();
        assert!(matches!(c.glb, Expressibility::Open { .. }));
        let q = parse_agg_query("COUNT-DISTINCT(r) <- B(x, r)").unwrap();
        let c = classify(&q, &schema()).unwrap();
        assert!(matches!(c.glb, Expressibility::Open { .. }));
        assert!(!c.monotone);
    }

    #[test]
    fn sum_over_unconstrained_domain_is_not_rewritable_by_theorem_6_1() {
        // Theorem 7.9 / Section 7.3: once −1 is allowed, SUM loses
        // monotonicity and the Theorem 6.1 justification disappears.
        let q = parse_agg_query("SUM(r) <- S1(x, 'c1'), S2(y, 'c2'), T(x, r, z)").unwrap();
        let schema = Schema::new()
            .with_relation("S1", Signature::new(2, 1, []).unwrap())
            .with_relation("S2", Signature::new(2, 1, []).unwrap())
            .with_relation("T", Signature::new(3, 3, [1]).unwrap());
        let c = classify_with_domain(&q, &schema, NumericDomain::Unconstrained).unwrap();
        assert!(!c.monotone);
        assert!(!c.glb.is_rewritable());
        let c_pos = classify_with_domain(&q, &schema, NumericDomain::NonNegative).unwrap();
        assert!(c_pos.glb.is_rewritable());
    }

    #[test]
    fn display_expressibility() {
        let q = parse_agg_query("SUM(r) <- R(x, y), S(y, z, 'd', r)").unwrap();
        let c = classify(&q, &schema()).unwrap();
        assert!(c.glb.to_string().contains("rewritable"));
        assert!(c.lub.to_string().contains("open"));
    }
}
