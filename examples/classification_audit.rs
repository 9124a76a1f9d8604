//! Classification audit: run the separation decision (Theorem 1.1 /
//! Theorem 7.11) on a suite of aggregation queries and report, for each one,
//! whether its greatest-lower-bound and least-upper-bound consistent answers
//! are expressible in AGGR[FOL] and which operator the engine plans for each
//! bound, together with the complexity of the underlying CERTAINTY problem
//! and Caggforest membership.
//!
//! The audit checks itself: the classification, the plan and the symbolic
//! rewriting all read one strategy table (`BoundOp::choose`), so on every row
//! "rewritable", "planned operator is not the enumeration" and "a rewriting
//! is constructed" must coincide — the example exits non-zero otherwise.
//!
//! Run with: `cargo run --example classification_audit`

use rcqa::core::engine::RangeCqa;
use rcqa::core::plan::BoundOp;
use rcqa::core::rewrite::BoundKind;
use rcqa::core::Expressibility;
use rcqa::data::NumericDomain::{self, NonNegative, Unconstrained};
use rcqa::data::{Schema, Signature};
use rcqa::query::parse_agg_query;

fn short(e: &Expressibility) -> &'static str {
    match e {
        Expressibility::Rewritable { .. } => "rewritable",
        Expressibility::NotRewritable { .. } => "no rewriting",
        Expressibility::Open { .. } => "open",
    }
}

fn main() {
    let schema = Schema::new()
        .with_relation("R", Signature::new(2, 1, [1]).unwrap())
        .with_relation("S", Signature::new(4, 2, [3]).unwrap())
        .with_relation("S1", Signature::new(2, 1, []).unwrap())
        .with_relation("S2", Signature::new(2, 1, []).unwrap())
        .with_relation("T", Signature::new(3, 2, [2]).unwrap())
        .with_relation("U", Signature::new(2, 1, [1]).unwrap());

    let suite: [(&str, NumericDomain); 13] = [
        // Theorem 6.1 cases.
        ("SUM(r) <- R(x, r), S(x, z, 'd', r)", NonNegative),
        ("COUNT(*) <- R(x, y), S(x, z, 'd', r)", NonNegative),
        ("MAX(r) <- S(y, z, 'd', r)", NonNegative),
        // Theorem 7.10 / 7.11 cases.
        ("MIN(r) <- R(x, r), S(x, z, 'd', r)", NonNegative),
        // A Caggforest query (ConQuer could also handle it over Q>=0).
        (
            "SUM(r) <- S1(x, 'c1'), S2(y, 'c2'), T(x, y, r)",
            NonNegative,
        ),
        // Section 7.3: the addends decide. Negative numbers in the column
        // cost SUM its rewriting, COUNT (the constant addend 1) keeps it, and
        // a negative constant loses it over any column.
        (
            "SUM(r) <- S1(x, 'c1'), S2(y, 'c2'), T(x, y, r)",
            Unconstrained,
        ),
        ("COUNT(*) <- R(x, y), S(x, z, 'd', r)", Unconstrained),
        ("SUM(-1) <- R(x, y), S(x, z, 'd', r)", NonNegative),
        // Cyclic attack graph: Theorem 5.5 applies.
        ("SUM(y) <- R(x, y), U(y, x)", NonNegative),
        // Aggregates outside the positive results (Section 7 / Section 8).
        ("AVG(r) <- R(x, r), S(x, z, 'd', r)", NonNegative),
        ("PRODUCT(r) <- R(x, r)", NonNegative),
        ("COUNT-DISTINCT(r) <- R(x, r)", NonNegative),
        ("SUM-DISTINCT(r) <- R(x, r)", NonNegative),
    ];

    println!(
        "{:<64} {:>7} {:>16} {:>12} {:>12} {:>10}  GLB / LUB operator",
        "query", "acyclic", "CERTAINTY", "GLB-CQA", "LUB-CQA", "Caggforest"
    );
    println!("{}", "-".repeat(171));
    let mut disagreements = 0;
    for (text, domain) in suite {
        let query = parse_agg_query(text).unwrap();
        let engine = RangeCqa::new(&query, &schema).unwrap();
        let c = engine.classification(domain);
        let plan = engine.plan(domain, true, true);
        let (glb, lub) = (plan.glb.unwrap(), plan.lub.unwrap());
        println!(
            "{:<64} {:>7} {:>16} {:>12} {:>12} {:>10}  {glb} / {lub}",
            format!("{text} over {domain:?}"),
            c.attack_graph_acyclic,
            c.certainty.to_string(),
            short(&c.glb),
            short(&c.lub),
            c.in_caggforest
        );
        for (bound, classified, op) in
            [(BoundKind::Glb, &c.glb, glb), (BoundKind::Lub, &c.lub, lub)]
        {
            let planned = op != BoundOp::ExactEnumeration;
            let constructed = engine.rewriting(bound, domain).is_some();
            if classified.is_rewritable() != planned || planned != constructed {
                disagreements += 1;
                eprintln!(
                    "DISAGREEMENT on {bound:?} of {text} over {domain:?}: classified {}, \
                     planned {op}, rewriting constructed: {constructed}",
                    short(classified)
                );
            }
        }
    }

    println!("\nJustifications for the first query:");
    let (text, domain) = suite[0];
    let engine = RangeCqa::new(&parse_agg_query(text).unwrap(), &schema).unwrap();
    let c = engine.classification(domain);
    println!("  GLB: {}", c.glb);
    println!("  LUB: {}", c.lub);

    if disagreements > 0 {
        eprintln!("{disagreements} bound(s) on which classification, plan and rewriting disagree");
        std::process::exit(1);
    }
}
