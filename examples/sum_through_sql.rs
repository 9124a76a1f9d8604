//! The paper's headline query through SQL at 10⁵ facts: `SUM` grouped over
//! the `R ⋈ S` join of the benchmark's Zipf-skewed instance.
//!
//! GLB-SUM is the Theorem 6.1 rewriting; LUB-SUM has none and enumerates
//! repairs — of the blocks each group's embeddings touch, a handful per
//! group, where the instance as a whole has about 2^9000. The example checks
//! every GLB the session returns against the engine-level rewriting rows and
//! exits non-zero on an error or a mismatch; CI runs it as a smoke test.
//! A closed `SUM` over the whole join is one group touching every block: it
//! must still be refused, at once.
//!
//! Run with: `cargo run --example sum_through_sql --release`

use rcqa::core::engine::{Method, RangeCqa};
use rcqa::data::Value;
use rcqa::gen::ScaleWorkload;
use rcqa::query::{parse_agg_query, Catalog, CmpOp, TableDef, Var, VarPredicate};
use rcqa::session::Session;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let workload = ScaleWorkload {
        target_facts: 100_000,
        inconsistency_ratio: 0.1,
        seed: 5,
        ..ScaleWorkload::default()
    };
    let db = workload.generate();
    println!(
        "instance : {} facts, {} inconsistent blocks (about 2^{} repairs)",
        db.len(),
        db.inconsistent_block_count(),
        db.inconsistent_block_count()
    );
    let catalog = Catalog::new()
        .with_table(TableDef::new("R").key_column("x").column("y"))
        .with_table(
            TableDef::new("S")
                .key_column("y")
                .key_column("z")
                .numeric_column("r"),
        );
    let session = Session::with_instance(catalog, db.clone());

    let sql = "SELECT R.x, SUM(S.r) FROM R, S WHERE R.y = S.y AND R.x >= 'x9' GROUP BY R.x";
    let started = Instant::now();
    let outcome = match session.execute(sql) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("{sql}\n  failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{sql}\n  {} rows in {:.1} ms",
        outcome.rows.len(),
        started.elapsed().as_secs_f64() * 1e3
    );

    // The same query at the engine level, lower bound only: pure rewriting.
    let query = parse_agg_query("(x, SUM(r)) <- R(x, y), S(y, z, r)").expect("query parses");
    let rewriting = RangeCqa::new(&query, db.schema())
        .and_then(|engine| {
            engine.with_predicates(vec![VarPredicate {
                var: Var::new("x"),
                op: CmpOp::Ge,
                value: Value::text("x9"),
            }])
        })
        .and_then(|engine| engine.glb(&db))
        .expect("the Theorem 6.1 rewriting answers GLB-SUM");
    if rewriting.len() != outcome.rows.len() {
        eprintln!(
            "row count mismatch: session {} vs rewriting {}",
            outcome.rows.len(),
            rewriting.len()
        );
        return ExitCode::FAILURE;
    }
    for (row, (key, glb)) in outcome.rows.iter().zip(&rewriting) {
        let got = row.glb.expect("both bounds are answered");
        let lub = row.lub.expect("both bounds are answered");
        if &row.key != key
            || got.value != glb.value
            || glb.method != Method::Rewriting
            || lub.method != Method::ExactEnumeration
        {
            eprintln!("mismatch at {key:?}: session {got:?} vs rewriting {glb:?}");
            return ExitCode::FAILURE;
        }
    }
    println!("  every GLB equals the rewriting's; every LUB came from repair enumeration");

    let closed = "SELECT SUM(S.r) FROM R, S WHERE R.y = S.y";
    let started = Instant::now();
    match session.execute(closed) {
        Err(e) => println!(
            "{closed}\n  refused in {:.1} ms: {e}",
            started.elapsed().as_secs_f64() * 1e3
        ),
        Ok(_) => {
            eprintln!("{closed}\n  answered, although one group touches every block");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
