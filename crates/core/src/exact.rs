//! Exact range-consistent answers by exhaustive repair enumeration: the
//! reference.
//!
//! This is the ground-truth baseline: it literally implements the definition
//! of `GLB-CQA` / `LUB-CQA` from Section 1 of the paper by enumerating every
//! repair **of the instance it is handed**, evaluating the aggregation query
//! on each, and taking the minimum and maximum. Its cost is exponential in
//! the number of inconsistent blocks of that instance.
//!
//! One kind of caller: the oracles — the tests, the benchmark's brute-force
//! check, the baseline arm of the paper's experiments — hand it a whole
//! (small) instance, and it indexes every repair afresh. The plan executor's
//! exact fallback ([`crate::plan::BoundOp::ExactEnumeration`]) does not come
//! here: it walks the repairs of each group's blocks in the id space of the
//! one index (see [`crate::plan::exec`]).

use crate::error::CoreError;
use crate::forall::{embeddings, Valuation};
use crate::glb::term_value;
use crate::index::DbIndex;
use crate::prepared::PreparedAggQuery;
use rcqa_data::{DatabaseInstance, Rational};

/// The exact lower and upper range-consistent bounds of a closed aggregation
/// query. `None` encodes the distinguished answer `⊥` (some repair yields the
/// empty multiset).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExactBounds {
    /// The greatest lower bound across repairs, or `None` for `⊥`.
    pub glb: Option<Rational>,
    /// The least upper bound across repairs, or `None` for `⊥`.
    pub lub: Option<Rational>,
    /// Number of repairs enumerated.
    pub repairs: u128,
    /// Whether **some** repair had at least one (predicate-satisfying)
    /// embedding — equivalently, whether the full instance has one, since an
    /// embedding picks at most one fact per block and therefore survives
    /// into some repair. `false` means the group/query is not even a
    /// possible answer under the predicates: callers drop such groups rather
    /// than report a vacuous `⊥` row.
    pub satisfiable: bool,
}

/// Computes the exact bounds of a closed aggregation query by enumerating all
/// repairs of `db`.
///
/// Fails with [`CoreError::FallbackUnavailable`] if the number of repairs
/// exceeds `max_repairs`.
pub fn exact_bounds(
    query: &PreparedAggQuery,
    db: &DatabaseInstance,
    max_repairs: u128,
) -> Result<ExactBounds, CoreError> {
    exact_bounds_filtered(query, db, max_repairs, &[])
}

/// [`exact_bounds`] with comparison predicates applied as **embedding
/// filters**: in each repair, only embeddings whose binding of each
/// predicate's variable satisfies it contribute to the aggregate. A repair
/// whose satisfying embeddings are empty yields `⊥`, exactly as an empty
/// join would.
///
/// This is the ground truth the restricted-index path is checked against,
/// and the only sound route for **residual** predicates (variables at no key
/// position). The query is closed: a query with free (GROUP BY) variables
/// goes to [`exact_bounds_by_group_filtered`], which filters predicates on
/// them at the group level.
///
/// Refused before the first repair: an open query
/// ([`CoreError::OpenQuery`]), and a predicate on a variable the body does
/// not mention (the error [`crate::engine::RangeCqa::with_predicates`]
/// returns for it).
pub fn exact_bounds_filtered(
    query: &PreparedAggQuery,
    db: &DatabaseInstance,
    max_repairs: u128,
    predicates: &[rcqa_query::VarPredicate],
) -> Result<ExactBounds, CoreError> {
    let free = query.normalised.body.free_vars();
    if !free.is_empty() {
        return Err(CoreError::OpenQuery(free.to_vec()));
    }
    query.check_predicates(predicates)?;
    bounds_over_repairs(query, db, max_repairs, predicates, &Valuation::new())
}

/// The repair loop of both oracles, over the embeddings extending `initial`
/// (empty for a closed query, a group key for an open one).
fn bounds_over_repairs(
    query: &PreparedAggQuery,
    db: &DatabaseInstance,
    max_repairs: u128,
    predicates: &[rcqa_query::VarPredicate],
    initial: &Valuation,
) -> Result<ExactBounds, CoreError> {
    let count = db.repair_count().unwrap_or(u128::MAX);
    if count > max_repairs {
        return Err(CoreError::FallbackUnavailable(format!(
            "instance has {count} repairs, more than the configured maximum {max_repairs}"
        )));
    }
    let agg = query.normalised.agg;
    let term = &query.normalised.term;
    // Reuse the level machinery for enumeration inside each repair by building
    // a tiny index per repair (repairs are consistent, blocks are singletons).
    let levels = query.open_levels();
    let mut glb: Option<Rational> = None;
    let mut lub: Option<Rational> = None;
    let mut bottom = false;
    let mut satisfiable = false;
    let mut repairs = 0u128;
    for repair in db.repairs() {
        repairs += 1;
        let index = DbIndex::new(&repair);
        let mut embs = embeddings(levels, &index, initial);
        // Every predicate variable occurs in the body (checked above), so
        // every embedding binds it.
        embs.retain(|b| {
            predicates
                .iter()
                .all(|p| b.get(&p.var).is_some_and(|v| p.holds_value(v)))
        });
        if embs.is_empty() {
            // ⊥ decides both bounds, but satisfiability (does *any* repair
            // have a satisfying embedding?) may still be open — keep
            // scanning until it is settled.
            bottom = true;
            if satisfiable {
                break;
            }
            continue;
        }
        satisfiable = true;
        if bottom {
            break;
        }
        let values: Vec<Rational> = embs.iter().map(|b| term_value(term, b)).collect();
        let value = agg
            .apply(&values)
            .expect("non-empty multiset aggregates to a value");
        glb = Some(glb.map_or(value, |g| g.min(value)));
        lub = Some(lub.map_or(value, |l| l.max(value)));
    }
    if bottom {
        (glb, lub) = (None, None);
    }
    Ok(ExactBounds {
        glb,
        lub,
        repairs,
        satisfiable,
    })
}

/// Exact bounds per group for a query with free variables: every group key
/// appearing in some embedding of the body is reported.
pub fn exact_bounds_by_group(
    query: &PreparedAggQuery,
    db: &DatabaseInstance,
    max_repairs: u128,
) -> Result<Vec<(Vec<rcqa_data::Value>, ExactBounds)>, CoreError> {
    exact_bounds_by_group_filtered(query, db, max_repairs, &[])
}

/// [`exact_bounds_by_group`] with comparison predicates: predicates on free
/// (GROUP BY) variables filter the candidate group keys — a group's key is
/// definite, so this is plain evaluation — and the rest apply as embedding
/// filters inside each group's exhaustive enumeration, which binds the key to
/// the free variables and enumerates every repair of `db`. The brute-force
/// oracle the engine's predicate paths are tested against.
pub fn exact_bounds_by_group_filtered(
    query: &PreparedAggQuery,
    db: &DatabaseInstance,
    max_repairs: u128,
    predicates: &[rcqa_query::VarPredicate],
) -> Result<Vec<(Vec<rcqa_data::Value>, ExactBounds)>, CoreError> {
    query.check_predicates(predicates)?;
    let free = query.normalised.body.free_vars().to_vec();
    let (on_free, on_bound): (Vec<_>, Vec<_>) = predicates
        .iter()
        .cloned()
        .partition(|p| free.contains(&p.var));
    let groups = crate::engine::candidate_groups(query, db);
    let mut out = Vec::new();
    for key in groups {
        let keep = on_free.iter().all(|p| {
            let pos = free
                .iter()
                .position(|v| *v == p.var)
                .expect("free predicate variable is a free variable");
            p.holds_value(&key[pos])
        });
        if !keep {
            continue;
        }
        let bound = free.iter().cloned().zip(key.iter().cloned()).collect();
        let bounds = bounds_over_repairs(query, db, max_repairs, &on_bound, &bound)?;
        // An open-query group with no satisfying embedding anywhere is not
        // even a possible answer under the predicates — it has no row. A
        // closed query always answers with its single row (`[⊥, ⊥]` then).
        if bounds.satisfiable || key.is_empty() {
            out.push((key, bounds));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn introduction_example_bounds() {
        let db = db_stock();
        let q = PreparedAggQuery::new(
            &parse_agg_query("SUM(y) <- Dealers('Smith', t), Stock(p, t, y)").unwrap(),
            db.schema(),
        )
        .unwrap();
        let bounds = exact_bounds(&q, &db, 1 << 20).unwrap();
        assert_eq!(bounds.repairs, 8);
        assert_eq!(bounds.glb, Some(rat(70)));
        // Largest total: Smith in New York with Tesla Y at 96 -> 96; or Boston
        // with 40 + 35 = 75; the maximum over repairs is 96.
        assert_eq!(bounds.lub, Some(rat(96)));
    }

    #[test]
    fn bottom_when_some_repair_falsifies_query() {
        let db = db_stock();
        // James only deals in Boston; ask about New York stock of Tesla X:
        // there is none, so every repair falsifies the query -> ⊥.
        let q = PreparedAggQuery::new(
            &parse_agg_query("SUM(y) <- Dealers('James', t), Stock('Tesla Z', t, y)").unwrap(),
            db.schema(),
        )
        .unwrap();
        let bounds = exact_bounds(&q, &db, 1 << 20).unwrap();
        assert_eq!(bounds.glb, None);
        assert_eq!(bounds.lub, None);
    }

    #[test]
    fn repair_limit_enforced() {
        let db = db_stock();
        let q = PreparedAggQuery::new(
            &parse_agg_query("SUM(y) <- Dealers('Smith', t), Stock(p, t, y)").unwrap(),
            db.schema(),
        )
        .unwrap();
        assert!(matches!(
            exact_bounds(&q, &db, 4),
            Err(CoreError::FallbackUnavailable(_))
        ));
    }

    #[test]
    fn the_oracle_refuses_what_it_cannot_answer() {
        // A predicate on a variable the body never mentions — through both
        // filtered entry points — and an open query are refused by name
        // before the first repair, not panicked on or silently answered.
        use rcqa_data::Value;
        use rcqa_query::{CmpOp, Var, VarPredicate};
        let db = db_stock();
        let prepare = |text: &str| {
            PreparedAggQuery::new(&parse_agg_query(text).unwrap(), db.schema()).unwrap()
        };
        let nope = [VarPredicate {
            var: Var::new("nope"),
            op: CmpOp::Gt,
            value: Value::from(3),
        }];
        let unknown = "query error: unsupported SQL feature: predicate variable nope does not \
                       occur in the query body";
        let closed = prepare("SUM(y) <- Dealers('Smith', t), Stock(p, t, y)");
        let refused = exact_bounds_filtered(&closed, &db, 1 << 20, &nope).unwrap_err();
        assert_eq!(refused.to_string(), unknown);
        let grouped = prepare("(x, SUM(y)) <- Dealers(x, t), Stock(p, t, y)");
        let refused = exact_bounds_by_group_filtered(&grouped, &db, 1 << 20, &nope).unwrap_err();
        assert_eq!(refused.to_string(), unknown);
        assert_eq!(
            exact_bounds(&grouped, &db, 1 << 20)
                .unwrap_err()
                .to_string(),
            "open query with free variables (x): the exact oracle answers closed queries; \
             use exact_bounds_by_group"
        );
    }

    #[test]
    fn count_and_min_max() {
        let db = db_stock();
        let q = PreparedAggQuery::new(
            &parse_agg_query("COUNT(*) <- Dealers('Smith', t), Stock(p, t, y)").unwrap(),
            db.schema(),
        )
        .unwrap();
        let bounds = exact_bounds(&q, &db, 1 << 20).unwrap();
        // Smith in Boston joins 2 products, in New York 1 product.
        assert_eq!(bounds.glb, Some(rat(1)));
        assert_eq!(bounds.lub, Some(rat(2)));

        let q = PreparedAggQuery::new(
            &parse_agg_query("MIN(y) <- Dealers('Smith', t), Stock(p, t, y)").unwrap(),
            db.schema(),
        )
        .unwrap();
        let bounds = exact_bounds(&q, &db, 1 << 20).unwrap();
        assert_eq!(bounds.glb, Some(rat(35)));
        assert_eq!(bounds.lub, Some(rat(96)));
    }
}
