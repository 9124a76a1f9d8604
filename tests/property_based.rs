//! Property-based integration tests: on random small inconsistent databases,
//! the rewriting-based engine must agree with exhaustive repair enumeration
//! for every aggregate and bound it claims to support.

use proptest::prelude::*;
use rcqa::core::engine::{candidate_groups, RangeCqa};
use rcqa::core::exact::exact_bounds;
use rcqa::core::forall::{analyse_with_index, embeddings, Valuation};
use rcqa::core::index::DbIndex;
use rcqa::core::prepared::PreparedAggQuery;
use rcqa::data::{DatabaseInstance, Fact, Schema, Signature, Value};
use rcqa::query::parse_agg_query;
use std::collections::BTreeSet;

/// The Fig. 3 schema: R(x, y) with key x, S(y, z, r) with key (y, z); and
/// T(z, w) with key z, which only [`chain_instance`] fills.
fn schema() -> Schema {
    Schema::new()
        .with_relation("R", Signature::new(2, 1, []).unwrap())
        .with_relation("S", Signature::new(3, 2, [2]).unwrap())
        .with_relation("T", Signature::new(2, 1, []).unwrap())
}

/// Strategy generating small random inconsistent instances over the schema.
fn small_instance() -> impl Strategy<Value = DatabaseInstance> {
    let r_facts = proptest::collection::vec((0u8..4, 0u8..4), 0..8);
    let s_facts = proptest::collection::vec((0u8..4, 0u8..3, 0i64..20), 0..10);
    (r_facts, s_facts).prop_map(|(rs, ss)| {
        let mut db = DatabaseInstance::new(schema());
        for (x, y) in rs {
            let _ = db.insert(Fact::new(
                "R",
                [Value::text(format!("x{x}")), Value::text(format!("y{y}"))],
            ));
        }
        for (y, z, r) in ss {
            let _ = db.insert(Fact::new(
                "S",
                [
                    Value::text(format!("y{y}")),
                    Value::text(format!("z{z}")),
                    Value::int(r),
                ],
            ));
        }
        db
    })
}

/// [`small_instance`] plus a few `T` facts, both of whose values are drawn
/// from `S.z`'s domain: a chain `S ⋈ T` joins, and `T(z, z)` can match.
fn chain_instance() -> impl Strategy<Value = DatabaseInstance> {
    let t_facts = proptest::collection::vec((0u8..3, 0u8..3), 0..5);
    (small_instance(), t_facts).prop_map(|(mut db, ts)| {
        for (z, w) in ts {
            let _ = db.insert(Fact::new(
                "T",
                [Value::text(format!("z{z}")), Value::text(format!("z{w}"))],
            ));
        }
        db
    })
}

fn prepared(text: &str) -> PreparedAggQuery {
    PreparedAggQuery::new(&parse_agg_query(text).unwrap(), &schema()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// GLB and LUB of SUM / COUNT / MIN / MAX computed by the engine agree
    /// with exhaustive repair enumeration.
    #[test]
    fn engine_agrees_with_repair_enumeration(db in small_instance()) {
        prop_assume!(db.repair_count().unwrap_or(u128::MAX) <= 4096);
        for text in [
            "SUM(r) <- R(x, y), S(y, z, r)",
            "COUNT(*) <- R(x, y), S(y, z, r)",
            "MIN(r) <- R(x, y), S(y, z, r)",
            "MAX(r) <- R(x, y), S(y, z, r)",
        ] {
            let query = parse_agg_query(text).unwrap();
            let engine = RangeCqa::new(&query, &schema()).unwrap();
            let prepared = PreparedAggQuery::new(&query, &schema()).unwrap();
            let exact = exact_bounds(&prepared, &db, 1 << 20).unwrap();
            let glb = engine.glb(&db).unwrap()[0].1.value;
            let lub = engine.lub(&db).unwrap()[0].1.value;
            prop_assert_eq!(glb, exact.glb, "glb mismatch for {} on {:?}", text, db);
            prop_assert_eq!(lub, exact.lub, "lub mismatch for {} on {:?}", text, db);
        }
    }

    /// The single-relation query SUM(r) <- S(y, z, r): the glb picks the
    /// minimum value in every block, the lub the maximum.
    #[test]
    fn single_relation_sum_bounds(db in small_instance()) {
        prop_assume!(db.repair_count().unwrap_or(u128::MAX) <= 4096);
        let query = parse_agg_query("SUM(r) <- S(y, z, r)").unwrap();
        let engine = RangeCqa::new(&query, &schema()).unwrap();
        let prepared = PreparedAggQuery::new(&query, &schema()).unwrap();
        let exact = exact_bounds(&prepared, &db, 1 << 20).unwrap();
        let glb = engine.glb(&db).unwrap()[0].1.value;
        prop_assert_eq!(glb, exact.glb);
        // Direct characterisation: sum of per-block minima (or ⊥ when S is
        // empty).
        let blocks = db.blocks_of("S");
        if blocks.is_empty() {
            prop_assert_eq!(glb, None);
        } else {
            let expected = blocks
                .iter()
                .map(|b| {
                    b.facts
                        .iter()
                        .filter_map(|f| f.arg(2).as_num())
                        .min()
                        .unwrap()
                })
                .fold(rcqa::data::Rational::ZERO, |acc, v| acc + v);
            prop_assert_eq!(glb, Some(expected));
        }
    }

    /// Consistent databases have exactly one repair, so glb = lub = the plain
    /// query answer.
    #[test]
    fn consistent_database_collapses_the_range(db in small_instance()) {
        let repaired = db.any_repair();
        prop_assert!(repaired.is_consistent());
        let query = parse_agg_query("SUM(r) <- R(x, y), S(y, z, r)").unwrap();
        let engine = RangeCqa::new(&query, &schema()).unwrap();
        let glb = engine.glb(&repaired).unwrap()[0].1.value;
        let lub = engine.lub(&repaired).unwrap()[0].1.value;
        prop_assert_eq!(glb, lub);
    }

    /// Certainty and existence against repair enumeration, not through a
    /// bound: a closed body is certain exactly when every repair has an
    /// embedding, its ∀embeddings are embeddings and there are none unless
    /// it is certain; and the groups of an open body are the distinct
    /// projections of its embeddings.
    #[test]
    fn certainty_and_existence_agree_with_repair_enumeration(db in chain_instance()) {
        prop_assume!(db.repair_count().unwrap_or(u128::MAX) <= 1024);
        let index = DbIndex::new(&db);
        let repairs: Vec<DbIndex> = db.repairs().map(|repair| DbIndex::new(&repair)).collect();
        for text in [
            // A join, a three-atom chain, a constant, a repeated variable.
            "COUNT(*) <- R(x, y), S(y, z, r)",
            "COUNT(*) <- R(x, y), S(y, z, r), T(z, w)",
            "COUNT(*) <- R(x, 'y1'), S('y1', z, r)",
            "COUNT(*) <- S(y, z, r), T(z, z)",
        ] {
            let q = prepared(text);
            let analysis = analyse_with_index(&q.body, &index);
            let every_repair = repairs.iter().all(|repair| {
                !embeddings(q.open_levels(), repair, &Valuation::new()).is_empty()
            });
            prop_assert_eq!(analysis.certain, every_repair, "{} on {:?}", text, db);
            prop_assert!(
                analysis.forall_embeddings.iter().all(|theta| analysis.embeddings.contains(theta)),
                "a ∀embedding of {} is no embedding on {:?}", text, db
            );
            prop_assert!(
                analysis.certain || analysis.forall_embeddings.is_empty(),
                "{} is not certain but has ∀embeddings on {:?}", text, db
            );
        }
        for text in [
            "(x, COUNT(*)) <- R(x, y), S(y, z, r), T(z, w)",
            "(z, COUNT(*)) <- R(x, y), S(y, z, r), T(z, w)",
        ] {
            let q = prepared(text);
            let free = q.normalised.body.free_vars();
            let projections: BTreeSet<Vec<Value>> =
                embeddings(q.open_levels(), &index, &Valuation::new())
                    .iter()
                    .map(|theta| free.iter().map(|v| theta[v].clone()).collect())
                    .collect();
            prop_assert_eq!(
                candidate_groups(&q, &db),
                projections.into_iter().collect::<Vec<_>>(),
                "{} on {:?}", text, db
            );
        }
    }
}
