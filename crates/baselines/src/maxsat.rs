//! An AggCAvSAT-style baseline: computing `GLB-CQA` for SUM/COUNT queries by
//! reduction to weighted partial MaxSAT (after Dixit & Kolaitis, ICDE 2022,
//! cited as \[17\] in the paper).
//!
//! Encoding for a closed query `SUM(r) ← q(ū)` over an instance `db`:
//!
//! * one Boolean variable per fact that lies in an inconsistent block; hard
//!   *exactly-one* constraints per block encode that a repair picks one fact;
//! * one auxiliary variable per embedding `θ` of the body, with a hard clause
//!   `¬f_1 ∨ ... ∨ ¬f_k ∨ e_θ` (if all facts of the embedding are picked then
//!   the embedding is present);
//! * a soft clause `¬e_θ` with weight `θ(r)`.
//!
//! The optimal MaxSAT cost is then exactly the greatest lower bound. The
//! encoding requires non-negative weights ([`PreparedAggQuery::addend_domain`]).

use rcqa_core::forall::{embeddings, is_certain, Valuation};
use rcqa_core::glb::term_value;
use rcqa_core::index::DbIndex;
use rcqa_core::prepared::PreparedAggQuery;
use rcqa_core::CoreError;
use rcqa_data::{AggFunc, DatabaseInstance, Fact, NumericDomain, Rational};
use rcqa_sat::{Lit, MaxSatInstance, MaxSatResult};
use std::collections::HashMap;

/// Statistics about a MaxSAT-based GLB computation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MaxSatGlb {
    /// The greatest lower bound, or `None` for `⊥`.
    pub glb: Option<Rational>,
    /// Number of Boolean variables in the encoding.
    pub variables: u32,
    /// Number of hard clauses.
    pub hard_clauses: usize,
    /// Number of soft clauses (embeddings).
    pub soft_clauses: usize,
}

/// Computes `GLB-CQA` of a closed SUM or COUNT query by the MaxSAT reduction.
pub fn maxsat_glb(query: &PreparedAggQuery, db: &DatabaseInstance) -> Result<MaxSatGlb, CoreError> {
    let agg = query.normalised.agg;
    if agg != AggFunc::Sum {
        return Err(CoreError::UnsupportedAggregate {
            reason: format!("the MaxSAT baseline supports SUM and COUNT queries, not {agg}"),
        });
    }
    if query.addend_domain(db.numeric_domain()) != NumericDomain::NonNegative {
        return Err(CoreError::UnsupportedAggregate {
            reason: "the MaxSAT baseline requires non-negative weights (addends over Q>=0)".into(),
        });
    }
    if !query.normalised.body.free_vars().is_empty() {
        return Err(CoreError::UnsupportedAggregate {
            reason: "substitute group constants before calling the MaxSAT baseline".into(),
        });
    }

    // ⊥ check: is the query certain? (AggCAvSAT performs a separate CQA check;
    // we reuse the operational one.)
    let index = DbIndex::new(db);
    let certain = if query.body.is_acyclic() {
        is_certain(&query.body, &index)
    } else {
        // The operational check requires a topological sort; for cyclic
        // bodies fall back to checking all repairs, which the caller should
        // avoid for large instances anyway.
        db.repairs().all(|r| {
            let idx = DbIndex::new(&r);
            !embeddings(query.open_levels(), &idx, &Valuation::new()).is_empty()
        })
    };
    if !certain {
        return Ok(MaxSatGlb {
            glb: None,
            variables: 0,
            hard_clauses: 0,
            soft_clauses: 0,
        });
    }

    let mut inst = MaxSatInstance::new();
    // One variable per fact in an inconsistent block.
    let mut fact_var: HashMap<Fact, Lit> = HashMap::new();
    for block in db.blocks() {
        if block.is_inconsistent() {
            let lits: Vec<Lit> = block
                .facts
                .iter()
                .map(|f| {
                    let v = inst.new_var();
                    let lit = Lit::pos(v);
                    fact_var.insert(f.clone(), lit);
                    lit
                })
                .collect();
            inst.add_hard_exactly_one(&lits);
        }
    }

    // Embeddings of the body over the whole (inconsistent) instance.
    // A closed query's open levels: its topological sort, or plain query
    // order when the attack graph is cyclic.
    let levels = query.open_levels();
    let embs = embeddings(levels, &index, &Valuation::new());
    let term = &query.normalised.term;
    for theta in &embs {
        let weight = term_value(term, theta);
        // Facts used by the embedding that live in inconsistent blocks.
        let mut clause: Vec<Lit> = Vec::new();
        for lvl in levels {
            let fact = ground_fact(&lvl.atom, theta);
            if let Some(&lit) = fact_var.get(&fact) {
                clause.push(lit.negated());
            }
        }
        let e = Lit::pos(inst.new_var());
        clause.push(e);
        inst.add_hard(clause);
        inst.add_soft([e.negated()], weight);
    }

    let variables = inst.num_vars();
    let hard_clauses = inst.num_hard();
    let soft_clauses = inst.num_soft();
    match inst.solve() {
        MaxSatResult::Optimal { cost, .. } => Ok(MaxSatGlb {
            glb: Some(cost),
            variables,
            hard_clauses,
            soft_clauses,
        }),
        MaxSatResult::Unsatisfiable => Err(CoreError::FallbackUnavailable(
            "the hard clauses of the MaxSAT encoding are unsatisfiable".into(),
        )),
    }
}

fn ground_fact(atom: &rcqa_query::Atom, theta: &Valuation) -> Fact {
    Fact::new(
        atom.relation(),
        atom.terms().iter().map(|t| match t {
            rcqa_query::Term::Const(c) => c.clone(),
            rcqa_query::Term::Var(v) => theta
                .get(v)
                .cloned()
                .expect("embedding binds every variable"),
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcqa_core::exact::exact_bounds;
    use rcqa_data::{fact, rat, Schema, Signature};
    use rcqa_query::parse_agg_query;

    fn db_stock() -> DatabaseInstance {
        let schema = Schema::new()
            .with_relation("Dealers", Signature::new(2, 1, []).unwrap())
            .with_relation("Stock", Signature::new(3, 2, [2]).unwrap());
        let mut db = DatabaseInstance::new(schema);
        db.insert_all([
            fact!("Dealers", "Smith", "Boston"),
            fact!("Dealers", "Smith", "New York"),
            fact!("Dealers", "James", "Boston"),
            fact!("Stock", "Tesla X", "Boston", 35),
            fact!("Stock", "Tesla X", "Boston", 40),
            fact!("Stock", "Tesla Y", "Boston", 35),
            fact!("Stock", "Tesla Y", "New York", 95),
            fact!("Stock", "Tesla Y", "New York", 96),
        ])
        .unwrap();
        db
    }

    #[test]
    fn agrees_with_exact_on_introduction_example() {
        let db = db_stock();
        let q = PreparedAggQuery::new(
            &parse_agg_query("SUM(y) <- Dealers('Smith', t), Stock(p, t, y)").unwrap(),
            db.schema(),
        )
        .unwrap();
        let result = maxsat_glb(&q, &db).unwrap();
        assert_eq!(result.glb, Some(rat(70)));
        assert!(result.variables > 0);
        assert!(result.soft_clauses > 0);
        let exact = exact_bounds(&q, &db, 1 << 20).unwrap();
        assert_eq!(result.glb, exact.glb);
    }

    #[test]
    fn count_queries_work_via_sum_of_one() {
        let db = db_stock();
        let q = PreparedAggQuery::new(
            &parse_agg_query("COUNT(*) <- Dealers('Smith', t), Stock(p, t, y)").unwrap(),
            db.schema(),
        )
        .unwrap();
        let result = maxsat_glb(&q, &db).unwrap();
        assert_eq!(result.glb, Some(rat(1)));
    }

    #[test]
    fn bottom_detected() {
        let db = db_stock();
        let q = PreparedAggQuery::new(
            &parse_agg_query("SUM(y) <- Dealers('Smith', t), Stock('Tesla X', t, y)").unwrap(),
            db.schema(),
        )
        .unwrap();
        let result = maxsat_glb(&q, &db).unwrap();
        assert_eq!(result.glb, None);
    }

    #[test]
    fn unsupported_aggregates_are_rejected() {
        let db = db_stock();
        // MIN has no encoding; SUM(-1) has negative weights on any instance.
        for head in ["MIN(y)", "SUM(-1)"] {
            let text = format!("{head} <- Dealers('Smith', t), Stock(p, t, y)");
            let q = PreparedAggQuery::new(&parse_agg_query(&text).unwrap(), db.schema()).unwrap();
            assert!(maxsat_glb(&q, &db).is_err(), "{head}");
        }
    }
}
