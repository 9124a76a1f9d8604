//! The memoised bounds against the oracle.
//!
//! Every rewriting-backed bound is a memoised recursion over the index
//! ([`rcqa_core::glb::BoundEvaluator`]): a sub-aggregate computed for one
//! group is reused by every group that reaches the same projection, and the
//! group keys come from a walk under an existence memo. Over small random
//! instances drawn from domains narrow enough that many groups share each
//! join value — and hence each deep sub-problem — the engine's rows must
//! equal the whole-instance repair enumeration, row for row, at 1 and 4
//! executor threads, through the full and the listed-groups entry points;
//! and the groups must be exactly the free-variable projections of the
//! embeddings. A statement of several aggregates over one body is one walk
//! per group for all of them ([`RangeCqa::range_statement`]), and each of its
//! aggregates must answer exactly what its engine answers alone.

use proptest::prelude::*;
use rcqa_core::engine::{EngineOptions, GroupRange, Method, RangeCqa};
use rcqa_core::error::CoreError;
use rcqa_core::exact::exact_bounds_by_group_filtered;
use rcqa_core::forall::{embeddings, Valuation};
use rcqa_core::index::DbIndex;
use rcqa_core::IdRows;
use rcqa_data::{fact, DatabaseInstance, Fact, Schema, Signature, Value};
use rcqa_query::{parse_agg_query, CmpOp, Var, VarPredicate};
use std::collections::BTreeSet;

/// `R(x | y)`, `S(y, z | r)`, the chain `C(y | z)`, `T(z | r)`, and
/// `U(x | y, r)`, whose aggregated column sits above a level that does not
/// mention it.
fn schema() -> Schema {
    Schema::new()
        .with_relation("R", Signature::new(2, 1, []).unwrap())
        .with_relation("S", Signature::new(3, 2, [2]).unwrap())
        .with_relation("C", Signature::new(2, 1, []).unwrap())
        .with_relation("T", Signature::new(2, 1, [1]).unwrap())
        .with_relation("U", Signature::new(3, 1, [2]).unwrap())
}

/// One fact. Eight `x` over three `y`: hot join values under many groups,
/// and inconsistent blocks everywhere the draws collide.
fn pool_fact(draw: u64) -> Fact {
    let (relation, draw) = (draw % 5, draw / 5);
    let text = |prefix: &str, n: u64| Value::text(format!("{prefix}{n}"));
    let num = |n: u64| Value::int(n as i64 * 10);
    match relation {
        0 => Fact::new("R", [text("x", draw % 8), text("y", (draw / 8) % 3)]),
        1 => Fact::new(
            "S",
            [
                text("y", draw % 3),
                text("z", (draw / 3) % 2),
                num((draw / 6) % 4),
            ],
        ),
        2 => Fact::new("C", [text("y", draw % 3), text("z", (draw / 3) % 2)]),
        3 => Fact::new("T", [text("z", draw % 2), num((draw / 2) % 4)]),
        _ => Fact::new(
            "U",
            [
                text("x", draw % 8),
                text("y", (draw / 8) % 3),
                num((draw / 24) % 4),
            ],
        ),
    }
}

fn pred(var: &str, op: CmpOp, value: Value) -> VarPredicate {
    VarPredicate {
        var: Var::new(var),
        op,
        value,
    }
}

/// Every aggregate with a rewriting-backed cell in the strategy table —
/// `MAX` and `MIN` on both bounds, `SUM` and `COUNT` (as `SUM(1)`) on the
/// GLB — over the shapes whose sub-problems groups share.
fn shapes() -> Vec<(String, Vec<VarPredicate>)> {
    let bodies = [
        // Hot `y` under the two-atom join, grouped by the level-0 key, by a
        // level-1 key, and closed.
        ("(x, {}) <- R(x, y), S(y, z, r)", vec![]),
        ("(z, {}) <- R(x, y), S(y, z, r)", vec![]),
        ("{} <- R(x, y), S(y, z, r)", vec![]),
        // A group key bound at two levels: the `x` of one `y` are distinct
        // groups below it.
        ("(x, z, {}) <- R(x, y), S(y, z, r)", vec![]),
        // A three-level chain: every group below `x` shares `y`, then `z`.
        ("(x, {}) <- R(x, y), C(y, z), T(z, r)", vec![]),
        // The aggregated variable bound at level 0, above a level that does
        // not mention it: a sub-aggregate of `C` is one per `(y, r)`.
        ("(x, {}) <- U(x, y, r), C(y, z)", vec![]),
        ("{} <- U(x, y, r), C(y, z)", vec![]),
        // Constants in the body, at a key position and at a non-key one.
        ("(x, {}) <- R(x, y), S(y, 'z0', r)", vec![]),
        ("(x, {}) <- R(x, y), S(y, z, r), T(z, 10)", vec![]),
        // Pushed-down key predicates: on the group key and below it.
        (
            "(x, {}) <- R(x, y), S(y, z, r)",
            vec![pred("x", CmpOp::Ge, Value::text("x3"))],
        ),
        (
            "(x, {}) <- R(x, y), S(y, z, r)",
            vec![pred("z", CmpOp::Ge, Value::text("z1"))],
        ),
    ];
    let heads = ["MAX(r)", "MIN(r)", "SUM(r)", "COUNT(*)"];
    bodies
        .iter()
        .flat_map(|(body, preds)| {
            heads
                .iter()
                .map(move |head| (body.replace("{}", head), preds.clone()))
        })
        .collect()
}

/// The keys of the rows a query must have: the free-variable projections of
/// the embeddings of its open body (no predicate).
fn projected_keys(engine: &RangeCqa, index: &DbIndex) -> BTreeSet<Vec<Value>> {
    let prepared = engine.prepared();
    let free = prepared.normalised.body.free_vars();
    embeddings(prepared.open_levels(), index, &Valuation::new())
        .iter()
        .map(|theta| free.iter().map(|v| theta[v].clone()).collect())
        .collect()
}

/// Engine rows against the whole-instance oracle, at 1 and 4 threads.
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
    let want: Vec<_> = oracle
        .iter()
        .map(|(key, bounds)| (key.clone(), bounds.glb, bounds.lub))
        .collect();
    let index = DbIndex::new(db);
    let max_or_min = text.contains("MAX") || text.contains("MIN");
    let mut reference: Option<Vec<GroupRange>> = None;
    for threads in [1, 4] {
        let engine = engine(threads);
        let rows = engine.range_with_index(db, &index).unwrap();
        let got: Vec<_> = rows
            .iter()
            .map(|row| {
                let (glb, lub) = (row.glb.unwrap(), row.lub.unwrap());
                assert_ne!(glb.method, Method::ExactEnumeration, "{text}");
                assert_eq!(lub.method != Method::ExactEnumeration, max_or_min, "{text}");
                (row.key.clone(), glb.value, lub.value)
            })
            .collect();
        assert_eq!(got, want, "{text} {preds:?} @{threads}T over {db:?}");
        if preds.is_empty() && !engine.prepared().normalised.body.free_vars().is_empty() {
            let keys: BTreeSet<Vec<Value>> = rows.iter().map(|row| row.key.clone()).collect();
            assert_eq!(keys, projected_keys(&engine, &index), "{text} groups");
        }
        // The listed-groups entry point: every group, and every other one.
        let keys: Vec<Vec<Value>> = rows.iter().map(|row| row.key.clone()).collect();
        let listed = engine.range_for_groups(db, &index, &keys).unwrap();
        assert_eq!(listed, rows, "{text} listed @{threads}T");
        let every_other: Vec<Vec<Value>> = keys.iter().step_by(2).cloned().collect();
        let want_other: Vec<GroupRange> = rows.iter().step_by(2).cloned().collect();
        let listed = engine.range_for_groups(db, &index, &every_other).unwrap();
        assert_eq!(listed, want_other, "{text} every other @{threads}T");
        match &reference {
            None => reference = Some(rows),
            Some(first) => assert_eq!(&rows, first, "{text}: 1 vs 4 threads"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn memoised_bounds_equal_repair_enumeration(
        draws in proptest::collection::vec(0u64..1_000_000, 0..16),
    ) {
        let mut db = DatabaseInstance::new(schema());
        for draw in draws {
            db.insert(pool_fact(draw)).expect("pool facts conform");
        }
        for (text, preds) in shapes() {
            assert_agrees(&db, &text, &preds);
        }
    }
}

#[test]
fn groups_sharing_a_hot_join_value_get_their_own_bounds() {
    // Four groups over one hot `y0`, whose `S` blocks are one certain and
    // one inconsistent; `x3` alone also reaches `y1`, which joins nothing in
    // one of its facts' repairs. Over `U ⋈ C`, `x0` and `x1` reach the one
    // `C` block of `y0` with different `r`.
    let mut db = DatabaseInstance::new(schema());
    db.insert_all([
        fact!("U", "x0", "y0", 10),
        fact!("U", "x1", "y0", 20),
        fact!("C", "y0", "z0"),
        fact!("R", "x0", "y0"),
        fact!("R", "x1", "y0"),
        fact!("R", "x2", "y0"),
        fact!("R", "x3", "y0"),
        fact!("R", "x3", "y1"),
        fact!("S", "y0", "z0", 10),
        fact!("S", "y0", "z1", 20),
        fact!("S", "y0", "z1", 30),
        fact!("S", "y1", "z0", 5),
    ])
    .unwrap();
    for (text, preds) in shapes() {
        assert_agrees(&db, &text, &preds);
    }
}

/// Multi-aggregate statements over one body: `(heads, predicates)`. Between
/// them they put every operator in one walk — MAX with MIN (two rewritings,
/// two extrema, certainty), SUM with COUNT (two rewritings beside two exact
/// LUBs), MAX with SUM (a rewriting, an extremum and an exact walk) — and a
/// residual predicate (`r` sits at no key position) puts every bound of MAX
/// with SUM on the exact walk.
fn statements() -> Vec<(&'static str, [&'static str; 2], Vec<VarPredicate>)> {
    let residual = vec![pred("r", CmpOp::Ge, Value::int(10))];
    let mut out = Vec::new();
    for body in [
        "(x, {}) <- R(x, y), S(y, z, r)",
        "(z, {}) <- R(x, y), S(y, z, r)",
        "{} <- R(x, y), S(y, z, r)",
        "(x, {}) <- R(x, y), C(y, z), T(z, r)",
    ] {
        out.push((body, ["MAX(r)", "MIN(r)"], vec![]));
        out.push((body, ["SUM(r)", "COUNT(*)"], vec![]));
        out.push((body, ["MAX(r)", "SUM(r)"], vec![]));
        out.push((body, ["MAX(r)", "SUM(r)"], residual.clone()));
    }
    out
}

/// Every aggregate of `heads` over `body`, as one statement and alone, at 1
/// and 4 threads, fully and for listed groups, against the oracle.
fn assert_statement_agrees(
    seed: u64,
    db: &DatabaseInstance,
    body: &str,
    heads: &[&str],
    preds: &[VarPredicate],
) {
    let index = DbIndex::new(db);
    let interner = index.interner();
    let case = format!("seed {seed}: {heads:?} over {body} {preds:?}");
    for threads in [1, 4] {
        let engines: Vec<RangeCqa> = heads
            .iter()
            .map(|head| {
                RangeCqa::new(
                    &parse_agg_query(&body.replace("{}", head)).unwrap(),
                    db.schema(),
                )
                .unwrap()
                .with_predicates(preds.to_vec())
                .unwrap()
                .with_options(EngineOptions { threads })
            })
            .collect();
        let full = RangeCqa::range_statement(&engines, &index, None).unwrap();
        assert_eq!(full.aggregates(), heads.len(), "{case}");
        // The listed keys: every other group, one key twice, and a key with
        // an id the interner never assigned.
        let width = full.keys().width();
        let mut listed = IdRows::new(width);
        for (i, key) in full.keys().iter().enumerate() {
            if i % 2 == 0 || i == 1 {
                listed.push(key.iter().copied());
            }
            if i == 1 {
                listed.push(key.iter().copied());
            }
        }
        if width > 0 {
            listed.push(std::iter::repeat_n(interner.len() as u32, width));
        }
        let some = RangeCqa::range_statement(&engines, &index, Some(&listed)).unwrap();
        for (a, engine) in engines.iter().enumerate() {
            let alone = engine.range_with_index(db, &index).unwrap();
            assert_eq!(
                full.to_rows(a, interner),
                alone,
                "{case}: {} @{threads}T",
                heads[a]
            );
            let oracle =
                exact_bounds_by_group_filtered(engine.prepared(), db, u128::MAX, preds).unwrap();
            let want: Vec<_> = (oracle.iter())
                .map(|(key, bounds)| (key.clone(), bounds.glb, bounds.lub))
                .collect();
            let got: Vec<_> = (alone.iter())
                .map(|row| {
                    (
                        row.key.clone(),
                        row.glb.unwrap().value,
                        row.lub.unwrap().value,
                    )
                })
                .collect();
            assert_eq!(got, want, "{case}: {} against the oracle", heads[a]);
            let alone = engine.range_for_group_ids(&index, &listed).unwrap();
            assert_eq!(
                some.to_rows(a, interner),
                alone.to_rows(0, interner),
                "{case}: {} listed @{threads}T",
                heads[a]
            );
        }
    }
}

/// SplitMix64: a seeded stream of draws, so that a failing case is rebuilt
/// from the seed its message prints.
fn draws(seed: u64) -> impl Iterator<Item = u64> {
    let mut state = seed;
    std::iter::from_fn(move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        Some(z ^ (z >> 31))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_aggregate_of_a_statement_answers_as_its_engine_alone(
        seed in 0u64..u64::MAX,
    ) {
        let mut draws = draws(seed);
        let facts = draws.next().unwrap() % 16;
        let mut db = DatabaseInstance::new(schema());
        for draw in draws.take(facts as usize) {
            db.insert(pool_fact(draw % 1_000_000)).expect("pool facts conform");
        }
        for (body, heads, preds) in statements() {
            assert_statement_agrees(seed, &db, body, &heads, &preds);
        }
    }
}

#[test]
fn engines_over_different_bodies_are_not_one_statement() {
    let db = DatabaseInstance::new(schema());
    let engine = |text: &str| RangeCqa::new(&parse_agg_query(text).unwrap(), db.schema()).unwrap();
    let index = DbIndex::new(&db);
    let max = engine("(x, MAX(r)) <- R(x, y), S(y, z, r)");
    for other in [
        engine("(x, MIN(r)) <- U(x, y, r), C(y, z)"),
        engine("(x, MIN(r)) <- R(x, y), S(y, z, r)")
            .with_predicates(vec![pred("x", CmpOp::Ge, Value::text("x3"))])
            .unwrap(),
    ] {
        let statement = [max.clone(), other];
        let got = RangeCqa::range_statement(&statement, &index, None);
        assert!(
            matches!(got, Err(CoreError::StatementMismatch(_))),
            "{got:?}"
        );
    }
    let got = RangeCqa::range_statement(&[], &index, None);
    assert!(
        matches!(got, Err(CoreError::StatementMismatch(_))),
        "{got:?}"
    );
}
