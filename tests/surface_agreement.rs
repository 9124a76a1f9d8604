//! Property-based agreement tests for the widened SQL surface: on random
//! small inconsistent instances, comparison predicates, HAVING trichotomies,
//! and certain top-k selections must agree with exhaustive repair
//! enumeration — identically at every thread count, on both access-path
//! arms, and across warm / cold / crash-recovered sessions.

use proptest::prelude::*;
use rcqa::core::engine::{BoundAnswer, EngineOptions, GroupRange, Method, RangeCqa, MAX_REPAIRS};
use rcqa::core::exact::exact_bounds_by_group_filtered;
use rcqa::core::prepared::PreparedAggQuery;
use rcqa::core::{certain_topk, having_status, HavingStatus};
use rcqa::data::{fact, rat, DatabaseInstance, Fact, Rational, Schema, Signature, Value};
use rcqa::query::{parse_agg_query, Catalog, CmpOp, TableDef, Var, VarPredicate};
use rcqa::session::Session;
use rcqa::session::{SyncPolicy, WalOptions};
use rcqa::wal::MemStorage;

/// The Fig. 3 schema: R(x, y) with key x, S(y, z, r) with key (y, z).
fn schema() -> Schema {
    Schema::new()
        .with_relation("R", Signature::new(2, 1, []).unwrap())
        .with_relation("S", Signature::new(3, 2, [2]).unwrap())
}

/// The same schema as a SQL catalog.
fn catalog() -> Catalog {
    Catalog::new()
        .with_table(TableDef::new("R").key_column("X").column("Y"))
        .with_table(
            TableDef::new("S")
                .key_column("Y")
                .key_column("Z")
                .numeric_column("Qty"),
        )
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

/// A pool of predicates exercising every routing class: free group key
/// (block-pushable), non-free key positions (pushable, including the
/// non-contiguous `Ne`), and the value column at no key position (residual —
/// forces the exact fallback).
fn predicate_pool() -> Vec<VarPredicate> {
    let text = |n: &str, op, v: &str| VarPredicate {
        var: Var::new(n),
        op,
        value: Value::text(v),
    };
    let num = |n: &str, op, v: i64| VarPredicate {
        var: Var::new(n),
        op,
        value: Value::int(v),
    };
    vec![
        text("x", CmpOp::Gt, "x1"),
        text("x", CmpOp::Le, "x2"),
        text("y", CmpOp::Ne, "y1"),
        text("y", CmpOp::Lt, "y2"),
        text("z", CmpOp::Ge, "z1"),
        num("r", CmpOp::Lt, 10),
        num("r", CmpOp::Ge, 5),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every predicate routing class agrees with the filtered repair
    /// enumeration oracle, byte-identically at 1/2/4/8 threads.
    #[test]
    fn predicates_agree_with_repair_enumeration(
        db in small_instance(),
        choice in 0usize..7,
        pair in proptest::bool::ANY,
    ) {
        prop_assume!(db.repair_count().unwrap_or(u128::MAX) <= 2048);
        let pool = predicate_pool();
        let mut preds = vec![pool[choice].clone()];
        if pair {
            // A second predicate from a different routing class.
            preds.push(pool[(choice + 3) % pool.len()].clone());
        }
        for text in ["(x, SUM(r)) <- R(x, y), S(y, z, r)", "(x, MAX(r)) <- R(x, y), S(y, z, r)"] {
            let q = parse_agg_query(text).unwrap();
            let prepared = PreparedAggQuery::new(&q, &schema()).unwrap();
            let oracle =
                exact_bounds_by_group_filtered(&prepared, &db, 1 << 20, &preds).unwrap();
            let mut reference: Option<Vec<GroupRange>> = None;
            for threads in [1usize, 2, 4, 8] {
                let engine = RangeCqa::new(&q, &schema())
                    .unwrap()
                    .with_predicates(preds.clone())
                    .unwrap()
                    .with_options(EngineOptions { threads });
                let rows = engine.range(&db).unwrap();
                prop_assert_eq!(rows.len(), oracle.len(), "{} {:?}", text, preds);
                for (row, (key, bounds)) in rows.iter().zip(oracle.iter()) {
                    prop_assert_eq!(&row.key, key, "{}", text);
                    prop_assert_eq!(
                        row.glb.unwrap().value, bounds.glb,
                        "{} glb of {:?} with {:?} @{}T",
                        text, key, preds, threads
                    );
                    prop_assert_eq!(
                        row.lub.unwrap().value, bounds.lub,
                        "{} lub of {:?} with {:?} @{}T",
                        text, key, preds, threads
                    );
                }
                match &reference {
                    None => reference = Some(rows),
                    Some(first) => prop_assert_eq!(&rows, first, "{}", text),
                }
            }
        }
    }

    /// The session's HAVING trichotomy and certain top-k equal the reference
    /// pipeline applied to the *oracle's* intervals — and the answers are
    /// identical warm, cold, and crash-recovered.
    #[test]
    fn having_and_topk_agree_with_the_oracle(
        db in small_instance(),
        threshold in 0i64..40,
        k in 1usize..4,
    ) {
        prop_assume!(db.repair_count().unwrap_or(u128::MAX) <= 2048);
        let q = parse_agg_query("(x, SUM(r)) <- R(x, y), S(y, z, r)").unwrap();
        let prepared = PreparedAggQuery::new(&q, &schema()).unwrap();
        let oracle = exact_bounds_by_group_filtered(&prepared, &db, 1 << 20, &[]).unwrap();

        // Reference pipeline over oracle intervals: trichotomy, drop
        // violated, certain top-k descending.
        let statuses: Vec<HavingStatus> = oracle
            .iter()
            .map(|(_, b)| having_status(b.glb, b.lub, CmpOp::Ge, rat(threshold)))
            .collect();
        let kept: Vec<usize> = (0..oracle.len())
            .filter(|&i| statuses[i] != HavingStatus::Violated)
            .collect();
        let kept_rows: Vec<GroupRange> = kept
            .iter()
            .map(|&i| {
                let (key, b) = &oracle[i];
                let wrap = |v: Option<Rational>| {
                    Some(BoundAnswer { value: v, method: Method::Rewriting })
                };
                GroupRange { key: key.clone(), glb: wrap(b.glb), lub: wrap(b.lub) }
            })
            .collect();
        let expect: Vec<&GroupRange> = certain_topk(&kept_rows, k, true)
            .into_iter()
            .map(|j| &kept_rows[j])
            .collect();

        let sql = format!(
            "SELECT R.X, SUM(S.Qty) FROM R, S WHERE R.Y = S.Y GROUP BY R.X \
             HAVING SUM(S.Qty) >= {threshold} ORDER BY SUM(S.Qty) DESC LIMIT {k}"
        );
        let mem = MemStorage::new();
        let wal_options = WalOptions {
            sync: SyncPolicy::Never,
            checkpoint_every: 0,
        };
        let warm = Session::open_storage(catalog(), Box::new(mem.handle()), wal_options)
            .unwrap();
        for fact in db.facts() {
            warm.insert(fact.clone()).unwrap();
        }
        let outcome = warm.execute(&sql).unwrap();
        prop_assert_eq!(outcome.rows.len(), expect.len(), "{}", sql);
        for (row, exp) in outcome.rows.iter().zip(expect.iter()) {
            prop_assert_eq!(&row.key, &exp.key, "{}", sql);
            prop_assert_eq!(
                row.glb.unwrap().value, exp.glb.unwrap().value, "{} glb", sql
            );
            prop_assert_eq!(
                row.lub.unwrap().value, exp.lub.unwrap().value, "{} lub", sql
            );
        }
        // Surfaced statuses are exactly the kept rows' trichotomy verdicts,
        // and violated never appears.
        prop_assert_eq!(outcome.having.len(), outcome.rows.len());
        for status in outcome.having.iter() {
            prop_assert!(*status != HavingStatus::Violated);
        }

        // Warm repeat, cold session, and crash-recovered session all give
        // byte-identical answers.
        let again = warm.execute(&sql).unwrap();
        prop_assert_eq!(&again.rows, &outcome.rows);
        prop_assert_eq!(&again.having, &outcome.having);
        let cold = Session::with_instance(catalog(), warm.database());
        let cold_outcome = cold.execute(&sql).unwrap();
        prop_assert_eq!(&cold_outcome.rows, &outcome.rows);
        prop_assert_eq!(&cold_outcome.having, &outcome.having);
        warm.sync().unwrap();
        let recovered =
            Session::open_storage(catalog(), Box::new(mem.handle()), wal_options).unwrap();
        let rec_outcome = recovered.execute(&sql).unwrap();
        prop_assert_eq!(&rec_outcome.rows, &outcome.rows);
        prop_assert_eq!(&rec_outcome.having, &outcome.having);
    }
}

/// `SUM` of a negative constant is antitone in the number of embeddings, so
/// Theorem 6.1 does not apply whatever the instance's columns hold: both
/// bounds are enumerated, and `explain` says so.
#[test]
fn sum_of_a_negative_constant_agrees_with_repair_enumeration() {
    // The repairs differ in their number of embeddings: a2 joins in either
    // town, a3 only in `b` — two or three embeddings.
    let mut db = DatabaseInstance::new(schema());
    let r = [
        ("a", "b"),
        ("a2", "b"),
        ("a2", "zz"),
        ("a3", "b"),
        ("a3", "nope"),
    ];
    db.insert_all(r.map(|(x, y)| fact!("R", x, y))).unwrap();
    db.insert_all(["b", "zz"].map(|y| fact!("S", y, "x", 1)))
        .unwrap();
    let session = Session::with_instance(catalog(), db.clone());
    for (c, glb, lub) in [(-1, -3, -2), (-2, -6, -4)] {
        let q = parse_agg_query(&format!("SUM({c}) <- R(x, y), S(y, z, r)")).unwrap();
        let prepared = PreparedAggQuery::new(&q, &schema()).unwrap();
        let oracle = exact_bounds_by_group_filtered(&prepared, &db, 1 << 20, &[]).unwrap();
        let want = [Some(rat(glb)), Some(rat(lub))];
        assert_eq!([oracle[0].1.glb, oracle[0].1.lub], want, "the oracle");
        let sql = format!("SELECT SUM({c}) FROM R, S WHERE R.Y = S.Y");
        let rows = session.execute(&sql).unwrap().rows;
        assert_eq!(rows.len(), 1, "{sql}");
        for (got, want) in [rows[0].glb.unwrap(), rows[0].lub.unwrap()]
            .iter()
            .zip(want)
        {
            assert_eq!(
                (got.value, got.method),
                (want, Method::ExactEnumeration),
                "{sql}"
            );
        }
        let shown = session.explain(&sql).unwrap();
        let bounds = "└─ AggregateBound [glb: ExactEnumeration, lub: ExactEnumeration]";
        assert_eq!(shown.lines().nth(1), Some(bounds), "{sql}");
    }
}

/// The size whole-instance enumeration cannot reach: 40 `R` blocks and 60 `S`
/// blocks, 66 of them inconsistent — over 2^22 repairs (2^66), a handful of
/// blocks and at most 2^7 repairs per group.
mod beyond_whole_instance_enumeration {
    use super::*;
    use rcqa::data::DeltaEvent;
    use rcqa::session::ShardedSession;

    fn r(x: usize, y: usize) -> Fact {
        Fact::new(
            "R",
            [
                Value::text(format!("x{x:02}")),
                Value::text(format!("y{y:02}")),
            ],
        )
    }

    fn s(y: usize, z: usize, qty: i64) -> Fact {
        Fact::new(
            "S",
            [
                Value::text(format!("y{y:02}")),
                Value::text(format!("z{z}")),
                Value::int(qty),
            ],
        )
    }

    fn instance() -> DatabaseInstance {
        let mut db = DatabaseInstance::new(schema());
        for x in 0..40 {
            db.insert(r(x, x % 20)).unwrap();
            if x % 3 != 0 {
                // 26 inconsistent R blocks: the dealer is in two places.
                db.insert(r(x, (x + 7) % 20)).unwrap();
            }
        }
        for y in 0..20 {
            for z in 0..3 {
                let qty = (7 * y + 13 * z) as i64 % 40;
                db.insert(s(y, z, qty)).unwrap();
                if z < 2 {
                    // 40 inconsistent S blocks.
                    db.insert(s(y, z, qty + 25)).unwrap();
                }
            }
        }
        assert_eq!(db.inconsistent_block_count(), 66);
        assert!(db.repair_count().is_none_or(|n| n > MAX_REPAIRS));
        db
    }

    const JOIN: &str = "FROM R, S WHERE R.Y = S.Y";
    /// Always true (quantities are non-negative) and residual (`Qty` is at no
    /// key position): forces repair enumeration on both bounds.
    const RESIDUAL: &str = "AND S.Qty >= 0";

    #[test]
    fn closure_enumeration_agrees_with_the_rewritings() {
        let session = Session::with_instance(catalog(), instance());
        for (agg, glb, lub) in [
            // GLB of SUM / COUNT: Theorem 6.1; their LUB has no rewriting.
            ("SUM(S.Qty)", Method::Rewriting, Method::ExactEnumeration),
            ("COUNT(*)", Method::Rewriting, Method::ExactEnumeration),
            // MAX / MIN: Theorems 7.10 and 7.11 on both bounds.
            ("MAX(S.Qty)", Method::Rewriting, Method::PlainExtremum),
            ("MIN(S.Qty)", Method::PlainExtremum, Method::Rewriting),
        ] {
            let plain = format!("SELECT R.X, {agg} {JOIN} GROUP BY R.X");
            let forced = format!("SELECT R.X, {agg} {JOIN} {RESIDUAL} GROUP BY R.X");
            let plain = session.execute(&plain).unwrap();
            let forced = session.execute(&forced).unwrap();
            assert_eq!(plain.rows.len(), 40, "{agg}");
            assert_eq!(forced.rows.len(), 40, "{agg}");
            for (plain, forced) in plain.rows.iter().zip(forced.rows.iter()) {
                assert_eq!(plain.key, forced.key, "{agg}");
                let methods = |row: &GroupRange| (row.glb.unwrap().method, row.lub.unwrap().method);
                assert_eq!(methods(plain), (glb, lub), "{agg} {:?}", plain.key);
                assert_eq!(
                    methods(forced),
                    (Method::ExactEnumeration, Method::ExactEnumeration),
                    "{agg} {:?}",
                    forced.key
                );
                let values = |row: &GroupRange| (row.glb.unwrap().value, row.lub.unwrap().value);
                assert_eq!(values(plain), values(forced), "{agg} {:?}", plain.key);
            }
        }
    }

    /// Exact-backed statements of every shape: a join, one table grouped by
    /// its full key (each group's blocks on one shard) and by part of it
    /// (on several), a residual predicate, a closed join over one `R`
    /// block.
    fn statements() -> Vec<String> {
        vec![
            format!("SELECT R.X, SUM(S.Qty) {JOIN} GROUP BY R.X"),
            format!("SELECT R.X, MAX(S.Qty) {JOIN} {RESIDUAL} GROUP BY R.X"),
            "SELECT S.Y, S.Z, SUM(S.Qty) FROM S GROUP BY S.Y, S.Z".to_string(),
            "SELECT S.Y, COUNT(*) FROM S GROUP BY S.Y".to_string(),
            format!("SELECT SUM(S.Qty) {JOIN} AND R.X = 'x05'"),
        ]
    }

    #[test]
    fn sessions_agree_before_and_after_writes_and_stale_reads_patch() {
        let db = instance();
        let session = Session::with_instance(catalog(), db.clone());
        let sharded: Vec<ShardedSession> = [2usize, 4]
            .into_iter()
            .map(|shards| {
                let sharded = ShardedSession::new(catalog(), shards);
                sharded.insert_all(db.facts().cloned()).unwrap();
                sharded
            })
            .collect();
        let agree = |context: &str| {
            let cold = Session::with_instance(catalog(), session.database());
            for sql in statements() {
                let want = cold.execute(&sql).unwrap();
                assert!(!want.rows.is_empty(), "{sql}");
                let got = session.execute(&sql).unwrap();
                assert_eq!(got.rows, want.rows, "{context}, warm: {sql}");
                for sharded in &sharded {
                    let got = sharded.execute(&sql).unwrap();
                    let shards = sharded.shard_count();
                    assert_eq!(got.rows, want.rows, "{context}, {shards} shards: {sql}");
                }
            }
        };
        agree("before the writes");
        // Build-side and probe-side writes: a dealer moves into a second
        // town, a consistent S block gains a conflicting quantity, an
        // inconsistent one loses a fact, a new S block opens under a joined y.
        let batch = [
            DeltaEvent::insert(r(0, 11)),
            DeltaEvent::insert(s(5, 2, 3)),
            DeltaEvent::delete(s(7, 0, 49 % 40 + 25)),
            DeltaEvent::insert(s(12, 3, 31)),
        ];
        assert_eq!(session.apply_batch(&batch).unwrap(), [true; 4]);
        for sharded in &sharded {
            assert_eq!(sharded.apply_batch(&batch).unwrap(), [true; 4]);
        }
        let before = session.stats();
        agree("after the writes");
        // Every stale read above was a patch: none fell back to a full
        // recompute, on the session or on a sharded one.
        let after = session.stats();
        let stale = statements().len() as u64;
        assert_eq!(after.supported_patches - before.supported_patches, stale);
        assert_eq!(after.full_recomputes, before.full_recomputes);
        assert_eq!(session.patch_reasons().total(), 0);
        for sharded in &sharded {
            let stats = sharded.stats().totals;
            assert_eq!(stats.supported_patches, stale);
            assert_eq!(stats.support_misses, 0);
            // Each statement was prepared once, exact-backed or not.
            assert_eq!(stats.statements_prepared, stale);
        }
    }
}
