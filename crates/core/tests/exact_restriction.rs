//! The executor's exact arm against the definition.
//!
//! [`rcqa_core::plan::BoundOp::ExactEnumeration`] enumerates, per group, the
//! repairs of the blocks the group's embeddings draw facts from — not of the
//! instance. Over small random instances, the engine's rows with that arm
//! forced on both bounds (AVG, or a residual predicate) must equal the
//! reference [`exact_bounds_by_group_filtered`], which enumerates the repairs
//! of the **whole** instance for every group: row for row, `⊥` and the
//! groups dropped as unsatisfiable included, at 1 and 4 executor threads.

use proptest::prelude::*;
use rcqa_core::engine::{EngineOptions, GroupRange, Method, RangeCqa};
use rcqa_core::exact::exact_bounds_by_group_filtered;
use rcqa_core::index::DbIndex;
use rcqa_data::{fact, DatabaseInstance, Fact, Schema, Signature, Value};
use rcqa_query::{parse_agg_query, CmpOp, Var, VarPredicate};

/// `R(x | y)`, `S(y, z | r)`, `U(z | y, r)` — `R ⋈ U` on the non-key `y` has a
/// cyclic attack graph — and `T( | a, v)`, whose empty key makes the relation
/// one block.
fn schema() -> Schema {
    Schema::new()
        .with_relation("R", Signature::new(2, 1, []).unwrap())
        .with_relation("S", Signature::new(3, 2, [2]).unwrap())
        .with_relation("U", Signature::new(3, 1, [2]).unwrap())
        .with_relation("T", Signature::new(2, 0, [1]).unwrap())
}

/// One fact from domains small enough that draws collide into inconsistent
/// blocks, and uneven enough that some blocks join nothing: `R` reaches `y4`,
/// which no `S` or `U` fact carries, and `S`/`U` carry `y` values no drawn `R`
/// fact need reach.
fn pool_fact(draw: u64) -> Fact {
    let (relation, draw) = (draw % 4, draw / 4);
    let text = |prefix: &str, n: u64| Value::text(format!("{prefix}{n}"));
    let num = |n: u64| Value::int(n as i64 * 10);
    match relation {
        0 => Fact::new("R", [text("x", draw % 4), text("y", (draw / 4) % 5)]),
        1 => Fact::new(
            "S",
            [
                text("y", draw % 4),
                text("z", (draw / 4) % 2),
                num((draw / 8) % 3),
            ],
        ),
        2 => Fact::new(
            "U",
            [
                text("z", draw % 3),
                text("y", (draw / 3) % 4),
                num((draw / 12) % 3),
            ],
        ),
        _ => Fact::new("T", [text("y", draw % 3), num((draw / 3) % 3)]),
    }
}

fn pred(var: &str, op: CmpOp, value: Value) -> VarPredicate {
    VarPredicate {
        var: Var::new(var),
        op,
        value,
    }
}

/// Query shapes whose every bound is the exact arm: AVG has no rewriting, a
/// residual predicate (on the aggregated column, at no key position) forces
/// the arm for any aggregate.
fn shapes() -> Vec<(&'static str, Vec<VarPredicate>)> {
    let residual = || pred("r", CmpOp::Ge, Value::int(10));
    vec![
        // The join, grouped by the level-0 key and closed.
        ("(x, AVG(r)) <- R(x, y), S(y, z, r)", vec![]),
        ("AVG(r) <- R(x, y), S(y, z, r)", vec![]),
        // Grouped by a non-key column: every group's level-0 span is all of R.
        ("(y, AVG(r)) <- R(x, y), S(y, z, r)", vec![]),
        // Residual predicates: groups none of whose embeddings satisfy them
        // have no row; a closed query keeps its single row.
        ("(x, SUM(r)) <- R(x, y), S(y, z, r)", vec![residual()]),
        ("MAX(r) <- R(x, y), S(y, z, r)", vec![residual()]),
        // A pushed-down predicate on a non-free key variable: the closure is
        // collected over the restricted view.
        (
            "(x, AVG(r)) <- R(x, y), S(y, z, r)",
            vec![pred("z", CmpOp::Ge, Value::text("z1"))],
        ),
        // One table: full key, subset of the key, closed.
        ("(y, z, MIN(r)) <- S(y, z, r)", vec![residual()]),
        ("(y, AVG(r)) <- S(y, z, r)", vec![]),
        ("COUNT(*) <- S(y, z, r)", vec![residual()]),
        // A cyclic attack graph, closed (no level order at all) and grouped
        // (the open body is cyclic, the closed one is not).
        ("AVG(r) <- R(x, y), U(z, y, r)", vec![]),
        ("(x, AVG(r)) <- R(x, y), U(z, y, r)", vec![]),
        // An empty key: alone, grouped by one of its columns, and probed.
        ("AVG(v) <- T(a, v)", vec![]),
        ("(a, AVG(v)) <- T(a, v)", vec![]),
        ("(x, AVG(v)) <- R(x, y), T(y, v)", vec![]),
        // The walk's arithmetic: distinct counting, negative addends, and an
        // aggregated GROUP BY variable, read off each group's key.
        ("(x, COUNT-DISTINCT(r)) <- R(x, y), S(y, z, r)", vec![]),
        ("(x, SUM(-1)) <- R(x, y), S(y, z, r)", vec![]),
        ("(r, AVG(r)) <- S(y, z, r)", vec![]),
    ]
}

/// Engine rows (exact arm on both bounds) against the whole-instance oracle.
fn assert_agrees(db: &DatabaseInstance, text: &str, preds: &[VarPredicate]) {
    let query = parse_agg_query(text).unwrap();
    let engine = |threads| {
        RangeCqa::new(&query, db.schema())
            .unwrap()
            .with_predicates(preds.to_vec())
            .unwrap()
            .with_options(EngineOptions { threads })
    };
    let oracle =
        exact_bounds_by_group_filtered(engine(1).prepared(), db, u128::MAX, preds).unwrap();
    let index = DbIndex::new(db);
    let mut reference: Option<Vec<GroupRange>> = None;
    for threads in [1, 4] {
        let engine = engine(threads);
        let rows = engine.range_with_index(db, &index).unwrap();
        let got: Vec<_> = rows
            .iter()
            .map(|row| {
                let (glb, lub) = (row.glb.unwrap(), row.lub.unwrap());
                assert_eq!(glb.method, Method::ExactEnumeration, "{text}");
                assert_eq!(lub.method, Method::ExactEnumeration, "{text}");
                (row.key.clone(), glb.value, lub.value)
            })
            .collect();
        let want: Vec<_> = oracle
            .iter()
            .map(|(key, bounds)| (key.clone(), bounds.glb, bounds.lub))
            .collect();
        assert_eq!(got, want, "{text} {preds:?} @{threads}T over {db:?}");
        // The listed-groups entry point runs the same pre-pass and arm.
        let keys: Vec<Vec<Value>> = rows.iter().map(|row| row.key.clone()).collect();
        let listed = engine.range_for_groups(db, &index, &keys).unwrap();
        assert_eq!(listed, rows, "{text} listed @{threads}T");
        match &reference {
            None => reference = Some(rows),
            Some(first) => assert_eq!(&rows, first, "{text}: 1 vs 4 threads"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn closure_enumeration_equals_whole_instance_enumeration(
        draws in proptest::collection::vec(0u64..1_000_000, 0..18),
    ) {
        let mut db = DatabaseInstance::new(schema());
        for draw in draws {
            db.insert(pool_fact(draw)).expect("pool facts conform");
        }
        for (text, preds) in shapes() {
            assert_agrees(&db, text, &preds);
        }
    }
}

#[test]
fn a_repair_kills_a_groups_only_embedding_through_a_fact_that_joins_nothing() {
    // Group x0's only embedding is R(x0, y0) ⋈ S(y0, z0, 10). The repair
    // picking R(x0, y4) — a fact that joins nothing — leaves x0 without an
    // embedding: ⊥, which only a closure holding the *whole* R block can see.
    // S(y3, ·) joins no R fact at all and must not disturb anything.
    let mut db = DatabaseInstance::new(schema());
    db.insert_all([
        fact!("R", "x0", "y0"),
        fact!("R", "x0", "y4"),
        fact!("R", "x1", "y0"),
        fact!("S", "y0", "z0", 10),
        fact!("S", "y0", "z0", 20),
        fact!("S", "y3", "z0", 10),
        fact!("S", "y3", "z0", 30),
    ])
    .unwrap();
    assert_agrees(&db, "(x, AVG(r)) <- R(x, y), S(y, z, r)", &[]);
    let engine = RangeCqa::new(
        &parse_agg_query("(x, AVG(r)) <- R(x, y), S(y, z, r)").unwrap(),
        db.schema(),
    )
    .unwrap();
    let rows = engine.range(&db).unwrap();
    let values = |row: &GroupRange| (row.glb.unwrap().value, row.lub.unwrap().value);
    assert_eq!(values(&rows[0]), (None, None), "x0 is ⊥ in some repair");
    assert_eq!(
        values(&rows[1]),
        (Some(10.into()), Some(20.into())),
        "x1 ranges over its S block's two quantities"
    );
}
