//! Quickstart: range-consistent answers over an inconsistent database.
//!
//! Builds the paper's Fig. 1 instance, runs the introduction query
//! `SUM(y) <- Dealers('Smith', t), Stock(p, t, y)` and prints the
//! classification, the greatest lower bound and the least upper bound.
//!
//! Run with: `cargo run --example quickstart`

use rcqa::core::engine::RangeCqa;
use rcqa::core::rewrite::BoundKind;
use rcqa::data::{fact, DatabaseInstance, Schema, Signature};
use rcqa::query::parse_agg_query;

fn main() {
    // Schema: Dealers(Name, Town) with key Name; Stock(Product, Town, Qty)
    // with key (Product, Town) and numeric Qty.
    let schema = Schema::new()
        .with_relation("Dealers", Signature::new(2, 1, []).unwrap())
        .with_relation("Stock", Signature::new(3, 2, [2]).unwrap());

    // The inconsistent instance of Fig. 1 (Smith's town and two stock levels
    // violate the primary keys).
    let mut db = DatabaseInstance::new(schema.clone());
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
    println!(
        "database: {} facts, {} key-violating blocks, {} repairs",
        db.len(),
        db.inconsistent_block_count(),
        db.repair_count().unwrap()
    );

    // The query from the introduction of the paper.
    let query = parse_agg_query("SUM(y) <- Dealers('Smith', t), Stock(p, t, y)").unwrap();
    println!("query   : {query}");

    let engine = RangeCqa::new(&query, &schema).unwrap();

    // The separation theorem: is GLB-CQA expressible in AGGR[FOL]?
    let domain = db.numeric_domain();
    let classification = engine.classification(domain);
    println!("GLB     : {}", classification.glb);
    println!("LUB     : {}", classification.lub);

    // The symbolic rewriting the engine evaluates.
    if let Some(rewriting) = engine.rewriting(BoundKind::Glb, domain) {
        println!("certainty rewriting (⊥ test): {}", rewriting.certainty);
    }

    // And the actual range-consistent answers.
    let glb = engine.glb(&db).unwrap();
    let lub = engine.lub(&db).unwrap();
    let show = |v: Option<rcqa::data::Rational>| {
        v.map(|r| r.to_string()).unwrap_or_else(|| "⊥".to_string())
    };
    println!(
        "range-consistent answer: [{}, {}]  (glb via {:?}, lub via {:?})",
        show(glb[0].1.value),
        show(lub[0].1.value),
        glb[0].1.method,
        lub[0].1.method
    );
    assert_eq!(glb[0].1.value, Some(rcqa::data::rat(70)));
}
