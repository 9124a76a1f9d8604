//! Cross-crate integration tests: SQL front-end → classification → rewriting
//! → range-consistent answers, on the paper's examples and on generated data.

use rcqa::core::engine::{Method, RangeCqa};
use rcqa::core::exact::exact_bounds;
use rcqa::core::prepared::PreparedAggQuery;
use rcqa::core::rewrite::BoundKind;
use rcqa::data::{fact, rat, DatabaseInstance, NumericDomain, Value};
use rcqa::gen::JoinWorkload;
use rcqa::logic::Evaluator;
use rcqa::query::{parse_agg_query, parse_sql, Catalog, TableDef};

fn stock_catalog() -> Catalog {
    Catalog::new()
        .with_table(TableDef::new("Dealers").key_column("Name").column("Town"))
        .with_table(
            TableDef::new("Stock")
                .key_column("Product")
                .key_column("Town")
                .numeric_column("Qty"),
        )
}

fn db_stock() -> DatabaseInstance {
    let mut db = DatabaseInstance::new(stock_catalog().schema());
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
fn sql_to_range_answers_on_fig1() {
    let catalog = stock_catalog();
    let db = db_stock();
    let sql = "SELECT SUM(S.Qty) FROM Dealers AS D, Stock AS S \
               WHERE D.Town = S.Town AND D.Name = 'Smith'";
    let translated = parse_sql(sql, &catalog).unwrap();
    let engine = RangeCqa::new(&translated.query, &catalog.schema()).unwrap();
    let glb = engine.glb(&db).unwrap();
    assert_eq!(glb[0].1.value, Some(rat(70)));
    assert_eq!(glb[0].1.method, Method::Rewriting);

    // GROUP BY variant.
    let sql = "SELECT D.Name, SUM(S.Qty) FROM Dealers AS D, Stock AS S \
               WHERE D.Town = S.Town GROUP BY D.Name";
    let translated = parse_sql(sql, &catalog).unwrap();
    let engine = RangeCqa::new(&translated.query, &catalog.schema()).unwrap();
    let ranges = engine.range(&db).unwrap();
    assert_eq!(ranges.len(), 2);
    let smith = ranges
        .iter()
        .find(|r| r.key[0] == Value::text("Smith"))
        .unwrap();
    assert_eq!(smith.glb.unwrap().value, Some(rat(70)));
    assert_eq!(smith.lub.unwrap().value, Some(rat(96)));
    let james = ranges
        .iter()
        .find(|r| r.key[0] == Value::text("James"))
        .unwrap();
    assert_eq!(james.glb.unwrap().value, Some(rat(70)));
    assert_eq!(james.lub.unwrap().value, Some(rat(75)));
}

#[test]
fn classification_and_rewriting_agree_with_engine_on_fig1() {
    let catalog = stock_catalog();
    let db = db_stock();
    let query = parse_agg_query("SUM(y) <- Dealers('Smith', t), Stock(p, t, y)").unwrap();
    let engine = RangeCqa::new(&query, &catalog.schema()).unwrap();
    let classification = engine.classification(NumericDomain::NonNegative);
    assert!(classification.attack_graph_acyclic);
    assert!(classification.glb.is_rewritable());

    // Evaluate the symbolic rewriting with the AGGR[FOL] evaluator and compare
    // with the operational engine.
    let rewriting = engine
        .rewriting(BoundKind::Glb, NumericDomain::NonNegative)
        .unwrap();
    let evaluator = Evaluator::new(&db);
    let rows = evaluator.eval_query(&rewriting.as_numerical_query());
    assert_eq!(rows.len(), 1);
    let operational = engine.glb(&db).unwrap()[0].1.value;
    assert_eq!(rows[0].1, operational);
    assert_eq!(operational, Some(rat(70)));
}

#[test]
fn engine_matches_exact_enumeration_on_generated_workloads() {
    // Several small generated instances with different seeds and ratios: the
    // rewriting-based GLB must always agree with exhaustive enumeration, and
    // COUNT/MAX/MIN bounds must agree too. The half-inconsistent instance is
    // the smaller one: its repair count (which the oracle and the engine's
    // closed SUM/COUNT upper bounds enumerate) doubles per inconsistent block.
    for (seed, ratio, r_blocks) in [(1u64, 0.1, 12), (2, 0.3, 12), (3, 0.5, 8), (4, 0.0, 12)] {
        let cfg = JoinWorkload {
            r_blocks,
            y_domain: 6,
            s_blocks_per_y: 2,
            inconsistency_ratio: ratio,
            block_size: 2,
            max_value: 30,
            seed,
        };
        let db = cfg.generate();
        for text in [
            "SUM(r) <- R(x, y), S(y, z, r)",
            "COUNT(*) <- R(x, y), S(y, z, r)",
            "MAX(r) <- R(x, y), S(y, z, r)",
            "MIN(r) <- R(x, y), S(y, z, r)",
        ] {
            let query = parse_agg_query(text).unwrap();
            let engine = RangeCqa::new(&query, &cfg.schema()).unwrap();
            let prepared = PreparedAggQuery::new(&query, &cfg.schema()).unwrap();
            let exact = exact_bounds(&prepared, &db, 1 << 24).unwrap();
            let glb = engine.glb(&db).unwrap()[0].1.value;
            let lub = engine.lub(&db).unwrap()[0].1.value;
            assert_eq!(
                glb, exact.glb,
                "glb mismatch for {text} (seed {seed}, ratio {ratio})"
            );
            assert_eq!(
                lub, exact.lub,
                "lub mismatch for {text} (seed {seed}, ratio {ratio})"
            );
        }
    }
}

#[test]
fn grouped_answers_match_exact_enumeration() {
    let cfg = JoinWorkload {
        r_blocks: 8,
        y_domain: 4,
        s_blocks_per_y: 2,
        inconsistency_ratio: 0.4,
        block_size: 2,
        max_value: 20,
        seed: 9,
    };
    let db = cfg.generate();
    let query = cfg.grouped_sum_query();
    let engine = RangeCqa::new(&query, &cfg.schema()).unwrap();
    let prepared = PreparedAggQuery::new(&query, &cfg.schema()).unwrap();
    let ours = engine.glb(&db).unwrap();
    let exact = rcqa::core::exact_bounds_by_group(&prepared, &db, 1 << 24).unwrap();
    assert_eq!(ours.len(), exact.len());
    for ((key_a, answer), (key_b, bounds)) in ours.iter().zip(exact.iter()) {
        assert_eq!(key_a, key_b);
        assert_eq!(answer.value, bounds.glb, "group {key_a:?}");
    }
}
