//! A Fuxman / ConQuer-style lower-bound rewriting for SUM queries in
//! Caggforest, used to reproduce the Section 7.3 refutation.
//!
//! Fuxman's technique computes the lower bound of a SUM by aggregating only
//! join results that are *certainly* present, taking the minimum contribution
//! within each block and dropping blocks whose participation is uncertain.
//! Dropping a contribution is sound when all values are non-negative — a
//! dropped term can only make the reported bound smaller — but becomes
//! unsound as soon as negative values are allowed (Theorem 7.9 of the paper):
//! an uncertain *negative* contribution can push the true greatest lower
//! bound below the reported one.
//!
//! The implementation targets star-shaped Caggforest queries: one *fact atom*
//! containing the aggregated variable, plus *dimension atoms* that join with
//! the fact atom through the fact atom's key (the shape of the Lemma 7.3 /
//! Theorem 7.9 query and of typical ConQuer workloads).

use rcqa_core::forall::{match_fact, Valuation};
use rcqa_core::index::DbIndex;
use rcqa_core::prepared::PreparedAggQuery;
use rcqa_core::CoreError;
use rcqa_data::{AggFunc, DatabaseInstance, Rational, Value};
use rcqa_query::{is_caggforest, AggTerm, Atom, Term};

/// The result of the Fuxman-style SUM lower-bound computation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FuxmanGlb {
    /// The reported lower bound (see module documentation for when this value
    /// is actually sound).
    pub glb: Rational,
    /// Number of fact-table blocks whose contribution was counted.
    pub counted_blocks: usize,
    /// Number of fact-table blocks dropped because their participation in the
    /// join is uncertain.
    pub dropped_blocks: usize,
}

/// Computes the Fuxman-style lower bound of a closed star-shaped Caggforest
/// SUM query.
pub fn fuxman_sum_glb(
    query: &PreparedAggQuery,
    db: &DatabaseInstance,
) -> Result<FuxmanGlb, CoreError> {
    if query.normalised.agg != AggFunc::Sum {
        return Err(CoreError::UnsupportedAggregate {
            reason: "the Fuxman baseline only supports SUM and COUNT queries".into(),
        });
    }
    if !is_caggforest(&query.original, db.schema()) {
        return Err(CoreError::UnsupportedAggregate {
            reason: "the query is not in Caggforest".into(),
        });
    }
    let body = &query.normalised.body;
    // Identify the fact atom: the one containing the aggregated variable (or,
    // for COUNT-style constant terms, the last atom).
    let fact_atom: &Atom = match &query.normalised.term {
        AggTerm::Var(v) => body
            .atoms()
            .iter()
            .find(|a| a.vars().contains(v))
            .ok_or_else(|| CoreError::UnsupportedAggregate {
                reason: "aggregated variable does not occur in the body".into(),
            })?,
        AggTerm::Const(_) => {
            body.atoms()
                .last()
                .ok_or_else(|| CoreError::UnsupportedAggregate {
                    reason: "empty query body".into(),
                })?
        }
    };
    let dimension_atoms: Vec<&Atom> = body
        .atoms()
        .iter()
        .filter(|a| a.relation() != fact_atom.relation())
        .collect();

    let index = DbIndex::new(db);
    if !index.has_relation(fact_atom.relation()) {
        return Err(CoreError::FallbackUnavailable(
            "fact relation missing".into(),
        ));
    }
    let fact_index = index.relation(fact_atom.relation());
    let fact_key_len = db
        .schema()
        .signature(fact_atom.relation())
        .map(|s| s.key_len())
        .unwrap_or(fact_atom.arity());

    let interner = index.interner();
    let mut total = Rational::ZERO;
    let mut counted = 0usize;
    let mut dropped = 0usize;
    'blocks: for block in fact_index.blocks() {
        // Every fact of the block must match the fact atom's pattern; derive
        // the minimum contribution. (The baseline is a reference point, not a
        // hot path: it materialises each columnar row back into a `Fact` and
        // reuses the value-level `match_fact`.)
        let mut min_value: Option<Rational> = None;
        let mut key_binding: Option<Valuation> = None;
        for row in 0..block.cols.rows() {
            let fact = fact_index.materialize_fact(block, row, interner);
            match match_fact(fact_atom, &fact, &Valuation::new()) {
                Some(binding) => {
                    let value = match &query.normalised.term {
                        AggTerm::Const(c) => *c,
                        AggTerm::Var(v) => binding
                            .get(v)
                            .and_then(Value::as_num)
                            .expect("numeric aggregated column"),
                    };
                    min_value = Some(match min_value {
                        None => value,
                        Some(m) => m.min(value),
                    });
                    if key_binding.is_none() {
                        // Restrict to the key variables of the fact atom; they
                        // are shared by all facts of the block.
                        let key_vars: Vec<_> =
                            fact_atom.key_vars(fact_key_len).into_iter().collect();
                        key_binding = Some(
                            binding
                                .iter()
                                .filter(|(v, _)| key_vars.contains(v))
                                .map(|(v, val)| (v.clone(), val.clone()))
                                .collect(),
                        );
                    }
                }
                None => {
                    // Some repair may drop this block from the join.
                    dropped += 1;
                    continue 'blocks;
                }
            }
        }
        let Some(min_value) = min_value else {
            continue;
        };
        let key_binding = key_binding.unwrap_or_default();
        // Every dimension atom must be *certainly* satisfied for this block's
        // key: the dimension block it points to exists and all its facts match
        // the dimension pattern.
        for dim in &dimension_atoms {
            let dim_key_len = db
                .schema()
                .signature(dim.relation())
                .map(|s| s.key_len())
                .unwrap_or(dim.arity());
            // Absent constants / key values resolve to MISSING_ID, which
            // matches no block — exactly the "not certainly satisfied" case.
            let pattern: Vec<Option<u32>> = (0..dim_key_len)
                .map(|p| match dim.term(p) {
                    Term::Const(c) => Some(interner.id_or_missing(c)),
                    Term::Var(v) => key_binding.get(v).map(|val| interner.id_or_missing(val)),
                })
                .collect();
            let dim_index = index.relation(dim.relation());
            let mut any_block = false;
            let mut certain = true;
            for b in dim_index.blocks_matching(&pattern, interner) {
                any_block = true;
                if !(0..b.cols.rows()).all(|row| {
                    let f = dim_index.materialize_fact(b, row, interner);
                    match_fact(dim, &f, &key_binding).is_some()
                }) {
                    certain = false;
                    break;
                }
            }
            if !any_block || !certain {
                dropped += 1;
                continue 'blocks;
            }
        }
        total += min_value;
        counted += 1;
    }
    Ok(FuxmanGlb {
        glb: total,
        counted_blocks: counted,
        dropped_blocks: dropped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcqa_core::exact::exact_bounds;
    use rcqa_data::{fact, rat, Schema, Signature};
    use rcqa_gen::fuxman_counterexample;
    use rcqa_query::parse_agg_query;

    fn star_schema() -> Schema {
        Schema::new()
            .with_relation("S1", Signature::new(2, 1, []).unwrap())
            .with_relation("S2", Signature::new(2, 1, []).unwrap())
            .with_relation("T", Signature::new(3, 2, [2]).unwrap())
    }

    #[test]
    fn sound_on_non_negative_data() {
        // A small star instance with non-negative values: the Fuxman bound is
        // a valid lower bound (it may be smaller than the exact GLB because it
        // drops uncertain contributions).
        let mut db = DatabaseInstance::new(star_schema());
        db.insert_all([
            fact!("S1", "a1", "c1"),
            fact!("S1", "a2", "c1"),
            fact!("S1", "a2", "other"),
            fact!("S2", "b1", "c2"),
            fact!("T", "a1", "b1", 10),
            fact!("T", "a2", "b1", 7),
        ])
        .unwrap();
        let q = PreparedAggQuery::new(
            &parse_agg_query("SUM(r) <- S1(x, 'c1'), S2(y, 'c2'), T(x, y, r)").unwrap(),
            db.schema(),
        )
        .unwrap();
        let fux = fuxman_sum_glb(&q, &db).unwrap();
        let exact = exact_bounds(&q, &db, 1 << 20).unwrap();
        // Exact GLB: repair dropping (a2, c1) yields only the a1 row: 10.
        assert_eq!(exact.glb, Some(rat(10)));
        // Fuxman: counts the certain a1 block, drops the uncertain a2 block.
        assert_eq!(fux.glb, rat(10));
        assert_eq!(fux.counted_blocks, 1);
        assert_eq!(fux.dropped_blocks, 1);
        assert!(fux.glb <= exact.glb.unwrap());
    }

    #[test]
    fn section_7_3_refutation_unsound_with_negative_values() {
        let (db, query) = fuxman_counterexample();
        let q = PreparedAggQuery::new(&query, db.schema()).unwrap();
        let fux = fuxman_sum_glb(&q, &db).unwrap();
        let exact = exact_bounds(&q, &db, 1 << 20).unwrap();
        // The true greatest lower bound is -1 (repair keeping S1(u, c1)).
        assert_eq!(exact.glb, Some(rat(-1)));
        // The Fuxman-style bound drops the uncertain negative contribution and
        // reports 0, which is NOT a lower bound: the claim of [21] fails.
        assert_eq!(fux.glb, rat(0));
        assert!(fux.glb > exact.glb.unwrap());
    }

    #[test]
    fn rejects_non_caggforest_queries() {
        let schema = Schema::new()
            .with_relation("R", Signature::new(2, 1, []).unwrap())
            .with_relation("S", Signature::new(3, 2, [2]).unwrap());
        let db = DatabaseInstance::new(schema.clone());
        // Partial join: not in Cforest.
        let q = PreparedAggQuery::new(
            &parse_agg_query("SUM(r) <- R(x, y), S(y, z, r)").unwrap(),
            &schema,
        )
        .unwrap();
        assert!(fuxman_sum_glb(&q, &db).is_err());
    }
}
