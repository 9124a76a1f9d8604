//! End-to-end coverage of the widened SQL surface through the session
//! facade: comparison predicates in WHERE, HAVING over aggregate intervals,
//! ORDER BY … LIMIT (certain top-k), multi-aggregate SELECTs, statically
//! contradictory WHERE clauses, and the conservative result-cache
//! invalidation rule for all of these shapes.

use rcqa::core::engine::EngineOptions;
use rcqa::data::{fact, rat, Fact};
use rcqa::query::QueryError;
use rcqa::query::{Catalog, TableDef};
use rcqa::session::{HavingStatus, Session, SessionError};

fn fig1_catalog() -> Catalog {
    Catalog::new()
        .with_table(TableDef::new("Dealers").key_column("Name").column("Town"))
        .with_table(
            TableDef::new("Stock")
                .key_column("Product")
                .key_column("Town")
                .numeric_column("Qty"),
        )
}

fn fig1_facts() -> [Fact; 8] {
    [
        fact!("Dealers", "Smith", "Boston"),
        fact!("Dealers", "Smith", "New York"),
        fact!("Dealers", "James", "Boston"),
        fact!("Stock", "Tesla X", "Boston", 35),
        fact!("Stock", "Tesla X", "Boston", 40),
        fact!("Stock", "Tesla Y", "Boston", 35),
        fact!("Stock", "Tesla Y", "New York", 95),
        fact!("Stock", "Tesla Y", "New York", 96),
    ]
}

fn fig1_session() -> Session {
    let session = Session::new(fig1_catalog());
    session.insert_all(fig1_facts()).unwrap();
    session
}

#[test]
fn where_comparisons_through_the_facade() {
    let session = fig1_session();
    // A residual predicate on the aggregated value column: only stock rows
    // under 95 count. James keeps Boston's [70, 75]; Smith's New York repair
    // has no qualifying stock at all, so Smith's interval collapses to ⊥.
    let outcome = session
        .execute(
            "SELECT D.Name, SUM(S.Qty) FROM Dealers AS D, Stock AS S \
             WHERE D.Town = S.Town AND S.Qty < 95 GROUP BY D.Name",
        )
        .unwrap();
    assert_eq!(outcome.rows.len(), 2);
    let james = &outcome.rows[0];
    assert_eq!(james.key[0].to_string(), "James");
    assert_eq!(james.glb.unwrap().value, Some(rat(70)));
    assert_eq!(james.lub.unwrap().value, Some(rat(75)));
    let smith = &outcome.rows[1];
    assert_eq!(smith.key[0].to_string(), "Smith");
    assert_eq!(smith.glb.unwrap().value, None, "⊥: some repair is empty");
    assert_eq!(smith.lub.unwrap().value, None);

    // A comparison on the GROUP BY key filters whole groups before any
    // engine runs; the surviving group keeps its unrestricted interval.
    let outcome = session
        .execute(
            "SELECT D.Name, SUM(S.Qty) FROM Dealers AS D, Stock AS S \
             WHERE D.Town = S.Town AND D.Name > 'James' GROUP BY D.Name",
        )
        .unwrap();
    assert_eq!(outcome.rows.len(), 1);
    assert_eq!(outcome.rows[0].key[0].to_string(), "Smith");
    assert_eq!(outcome.rows[0].glb.unwrap().value, Some(rat(70)));
    assert_eq!(outcome.rows[0].lub.unwrap().value, Some(rat(96)));
}

#[test]
fn having_reports_the_trichotomy_and_drops_violated_rows() {
    let session = fig1_session();
    // James's SUM interval is [70, 75], Smith's [70, 96].
    let base = "SELECT D.Name, SUM(S.Qty) FROM Dealers AS D, Stock AS S \
                WHERE D.Town = S.Town GROUP BY D.Name";

    // Certain for both: every repair exceeds 60.
    let outcome = session
        .execute(&format!("{base} HAVING SUM(S.Qty) > 60"))
        .unwrap();
    assert_eq!(outcome.rows.len(), 2);
    assert_eq!(outcome.having.as_ref(), &[HavingStatus::Certain; 2]);

    // At 80 James is violated in every repair (lub 75 < 80) and vanishes;
    // Smith straddles the threshold, so the condition is only possible.
    let outcome = session
        .execute(&format!("{base} HAVING SUM(S.Qty) >= 80"))
        .unwrap();
    assert_eq!(outcome.rows.len(), 1);
    assert_eq!(outcome.rows[0].key[0].to_string(), "Smith");
    assert_eq!(outcome.having.as_ref(), &[HavingStatus::Possible]);

    // The trichotomy is a first-class output column in the rendered table.
    let table = outcome.to_table();
    assert!(table.contains("having"), "{table}");
    assert!(table.contains("possible"), "{table}");
}

#[test]
fn certain_topk_returns_only_rows_that_win_in_every_repair() {
    let session = fig1_session();
    // A consistent dealer whose stock dwarfs everyone: certainly the top 1.
    session
        .insert_all([
            fact!("Dealers", "Quinn", "Chicago"),
            fact!("Stock", "Bolt", "Chicago", 200),
        ])
        .unwrap();
    let base = "SELECT D.Name, SUM(S.Qty) FROM Dealers AS D, Stock AS S \
                WHERE D.Town = S.Town GROUP BY D.Name ORDER BY SUM(S.Qty) DESC";

    let top1 = session.execute(&format!("{base} LIMIT 1")).unwrap();
    assert_eq!(top1.rows.len(), 1);
    assert_eq!(top1.rows[0].key[0].to_string(), "Quinn");
    assert_eq!(top1.rows[0].glb.unwrap().value, Some(rat(200)));

    // James [70, 75] and Smith [70, 96] overlap, so neither certainly holds
    // the second slot — the honest top-2 is still just Quinn.
    let top2 = session.execute(&format!("{base} LIMIT 2")).unwrap();
    assert_eq!(
        top2.rows.len(),
        1,
        "overlapping intervals leave slot 2 open"
    );

    // With k covering every possible ordering, all three rows are certain,
    // in deterministic interval order.
    let top3 = session.execute(&format!("{base} LIMIT 3")).unwrap();
    let names: Vec<String> = top3.rows.iter().map(|r| r.key[0].to_string()).collect();
    assert_eq!(names, ["Quinn", "Smith", "James"]);

    // Without LIMIT, ORDER BY is a presentation order over all rows.
    let ordered = session.execute(base).unwrap();
    let names: Vec<String> = ordered.rows.iter().map(|r| r.key[0].to_string()).collect();
    assert_eq!(names, ["Quinn", "Smith", "James"]);
}

#[test]
fn multi_aggregate_select_aligns_rows() {
    let session = fig1_session();
    let outcome = session
        .execute(
            "SELECT D.Name, SUM(S.Qty), COUNT(*) FROM Dealers AS D, Stock AS S \
             WHERE D.Town = S.Town GROUP BY D.Name",
        )
        .unwrap();
    assert_eq!(outcome.columns, ["Name", "SUM", "COUNT"]);
    assert_eq!(outcome.rows.len(), 2);
    assert_eq!(outcome.more_aggregates.len(), 1);
    let counts = &outcome.more_aggregates[0];
    assert_eq!(counts.len(), 2);
    for (row, count) in outcome.rows.iter().zip(counts.iter()) {
        assert_eq!(row.key, count.key, "row-aligned group keys");
    }
    // James always joins 2 Boston products; Smith joins 2 in Boston or 1 in
    // New York.
    assert_eq!(counts[0].glb.unwrap().value, Some(rat(2)));
    assert_eq!(counts[0].lub.unwrap().value, Some(rat(2)));
    assert_eq!(counts[1].glb.unwrap().value, Some(rat(1)));
    assert_eq!(counts[1].lub.unwrap().value, Some(rat(2)));
    // Both aggregates are named in the rendered table.
    let table = outcome.to_table();
    assert!(table.contains("glb(SUM)"), "{table}");
    assert!(table.contains("lub(COUNT)"), "{table}");
}

#[test]
fn contradictory_where_is_answered_statically() {
    let session = fig1_session();
    // Closed query: the single row is [⊥, ⊥] — no repair satisfies the body.
    let outcome = session
        .execute("SELECT SUM(S.Qty) FROM Stock AS S WHERE S.Town = 'b' AND S.Town < 'a'")
        .unwrap();
    assert_eq!(outcome.rows.len(), 1);
    assert_eq!(outcome.rows[0].glb.unwrap().value, None);
    assert_eq!(outcome.rows[0].lub.unwrap().value, None);
    // Grouped query: no group is even a possible answer.
    let outcome = session
        .execute(
            "SELECT S.Product, SUM(S.Qty) FROM Stock AS S \
             WHERE S.Town = 'b' AND S.Town < 'a' GROUP BY S.Product",
        )
        .unwrap();
    assert!(outcome.rows.is_empty());
    let plan = session
        .explain("SELECT SUM(S.Qty) FROM Stock AS S WHERE S.Town = 'b' AND S.Town < 'a'")
        .unwrap();
    assert!(plan.contains("contradictory WHERE clause"), "{plan}");
}

#[test]
fn unexecutable_shapes_fail_with_precise_errors() {
    let session = fig1_session();
    for (sql, needle) in [
        (
            "SELECT S.Town, SUM(S.Qty) FROM Stock AS S GROUP BY S.Town ORDER BY S.Town",
            "ORDER BY column",
        ),
        (
            "SELECT SUM(S.Qty) FROM Stock AS S LIMIT 5",
            "LIMIT without ORDER BY",
        ),
        (
            "SELECT S.Town, SUM(S.Qty) FROM Stock AS S GROUP BY S.Town HAVING S.Town = 'a'",
            "non-aggregate",
        ),
    ] {
        match session.execute(sql) {
            Err(SessionError::Query(QueryError::Unsupported(msg))) => {
                assert!(msg.contains(needle), "{sql}: {msg}")
            }
            other => panic!("{sql}: expected Unsupported, got {other:?}"),
        }
    }
}

#[test]
fn explain_documents_access_path_and_post_processing() {
    let session = fig1_session();
    // A pushable key predicate turns the leaf into a Seek with its block
    // counts; HAVING and certain top-k appear as post-processing steps.
    let plan = session
        .explain(
            "SELECT D.Name, MAX(S.Qty) FROM Dealers AS D, Stock AS S \
             WHERE D.Town = S.Town AND D.Name >= 'Smith' GROUP BY D.Name \
             HAVING MAX(S.Qty) > 50 ORDER BY MAX(S.Qty) DESC LIMIT 2",
        )
        .unwrap();
    assert!(plan.contains("Seek"), "{plan}");
    assert!(plan.contains("(1 of 2 blocks)"), "{plan}");
    assert!(
        plan.contains("post-process: HAVING aggregate #0 >"),
        "{plan}"
    );
    assert!(plan.contains("certain top-2"), "{plan}");
    // Hidden HAVING aggregates are labelled as such.
    let plan = session
        .explain(
            "SELECT D.Name, MAX(S.Qty) FROM Dealers AS D, Stock AS S \
             WHERE D.Town = S.Town GROUP BY D.Name HAVING COUNT(*) >= 1",
        )
        .unwrap();
    assert!(plan.contains("hidden: HAVING/ORDER BY only"), "{plan}");
}

/// The golden `explain` statements over [`fig1_session`]'s instance: a plain
/// join, a two-aggregate statement under a selective key predicate with
/// HAVING and `ORDER BY … LIMIT`, a residual predicate, and a key predicate
/// every block satisfies.
const GOLDEN_EXPLAIN: [(&str, &str); 4] = [
    (
        "SELECT D.Name, SUM(S.Qty) FROM Dealers AS D, Stock AS S \
         WHERE D.Town = S.Town GROUP BY D.Name",
        "\
RangeMerge [deterministic group order]
└─ AggregateBound [glb: Rewrite(SUM, Minimise), lub: ExactEnumeration]
   └─ ForallCheck [certainty + ∀embeddings]
      └─ PartitionByGroup [d_name]
         └─ Join [2 levels, open body]
            └─ Scan [Dealers, Stock] (shared block index)
",
    ),
    (
        "SELECT D.Name, MAX(S.Qty), MIN(S.Qty) FROM Dealers AS D, Stock AS S \
         WHERE D.Town = S.Town AND D.Name >= 'K' GROUP BY D.Name \
         HAVING MIN(S.Qty) >= 30 ORDER BY MAX(S.Qty) DESC LIMIT 1",
        "\
aggregate #0: MAX
RangeMerge [deterministic group order]
└─ AggregateBound [glb: Rewrite(MAX, Minimise), lub: Extremum(Maximise)]
   └─ ForallCheck [certainty + ∀embeddings]
      └─ PartitionByGroup [d_name]
         └─ Join [2 levels, open body]
            └─ Seek [Dealers, Stock] (restricted block index: Dealers: seek key[0] >= K (1 of 2 blocks))
aggregate #1: MIN
RangeMerge [deterministic group order]
└─ AggregateBound [glb: Extremum(Minimise), lub: Rewrite(MIN, Maximise)]
   └─ ForallCheck [certainty + ∀embeddings]
      └─ PartitionByGroup [d_name]
         └─ Join [2 levels, open body]
            └─ Seek [Dealers, Stock] (restricted block index: Dealers: seek key[0] >= K (1 of 2 blocks))
post-process: HAVING aggregate #1 >= 30 -> certain/possible kept, violated dropped
post-process: certain top-1 by aggregate #0 DESC (rows certainly in the top 1 of every repair)
",
    ),
    (
        "SELECT D.Name, SUM(S.Qty) FROM Dealers AS D, Stock AS S \
         WHERE D.Town = S.Town AND S.Qty > 36 GROUP BY D.Name",
        "\
RangeMerge [deterministic group order]
└─ AggregateBound [glb: ExactEnumeration, lub: ExactEnumeration]
   └─ ForallCheck [skipped]
      └─ PartitionByGroup [d_name]
         └─ Join [2 levels, open body, keys only]
            └─ Scan [Dealers, Stock] (shared block index)
residual predicate: s_qty > 36 (no key position; exhaustive repair enumeration)
",
    ),
    (
        "SELECT D.Name, MAX(S.Qty) FROM Dealers AS D, Stock AS S \
         WHERE D.Town = S.Town AND D.Name >= 'A' GROUP BY D.Name",
        "\
RangeMerge [deterministic group order]
└─ AggregateBound [glb: Rewrite(MAX, Minimise), lub: Extremum(Maximise)]
   └─ ForallCheck [certainty + ∀embeddings]
      └─ PartitionByGroup [d_name]
         └─ Join [2 levels, open body]
            └─ Seek [Dealers, Stock] (restricted block index: Dealers: seek key[0] >= A (2 of 2 blocks))
",
    ),
];

#[test]
fn explain_is_pinned_verbatim() {
    let session = fig1_session();
    for (sql, golden) in GOLDEN_EXPLAIN {
        assert_eq!(session.explain(sql).unwrap(), golden, "{sql}");
    }
}

/// `explain` reads the snapshot an `execute` would: straight after a write,
/// with no read in between, the access path's block counts are those of the
/// written instance.
#[test]
fn explain_after_a_write_sees_the_write() {
    let statements = [
        "SELECT D.Name, MAX(S.Qty) FROM Dealers AS D, Stock AS S \
         WHERE D.Town = S.Town AND D.Name >= 'K' GROUP BY D.Name",
        "SELECT S.Product, S.Town, MAX(S.Qty) FROM Stock AS S \
         WHERE S.Product > 'p1' GROUP BY S.Product, S.Town",
    ];
    let session = Session::new(fig1_catalog());
    let writes = [
        [
            fact!("Dealers", "Smith", "Boston"),
            fact!("Dealers", "James", "Boston"),
            fact!("Stock", "p1", "Boston", 35),
            fact!("Stock", "p2", "Dover", 95),
        ],
        [
            fact!("Dealers", "Smith", "Dover"),
            fact!("Dealers", "Adams", "Dover"),
            fact!("Stock", "p1", "Boston", 40),
            fact!("Stock", "p3", "Erie", 5),
        ],
    ];
    // Each write adds one block to each relation.
    for (blocks, facts) in [2, 3].into_iter().zip(writes) {
        session.insert_all(facts).unwrap();
        for sql in statements {
            let plan = session.explain(sql).unwrap();
            assert!(plan.contains(&format!(" of {blocks} blocks")), "{plan}");
        }
    }
}

#[test]
fn rich_statements_invalidate_conservatively_on_writes() {
    // Satellite regression: a post-processed statement (here HAVING over a
    // SUM, whose upper bound comes from repair enumeration) must answer
    // correctly after a mutation — whichever of patch and full recompute
    // serves it — at every worker count.
    for threads in [1usize, 4] {
        let session = fig1_session().with_options(EngineOptions { threads });
        let sql = "SELECT D.Name, SUM(S.Qty) FROM Dealers AS D, Stock AS S \
                   WHERE D.Town = S.Town GROUP BY D.Name HAVING SUM(S.Qty) >= 80";
        let before = session.execute(sql).unwrap();
        assert_eq!(before.rows.len(), 1, "{threads} threads");
        assert_eq!(before.rows[0].key[0].to_string(), "Smith");
        assert_eq!(before.having.as_ref(), &[HavingStatus::Possible]);

        // New consistent Boston stock lifts James past the threshold in
        // every repair and pins Smith's glb to New York's 95.
        session
            .insert(fact!("Stock", "Tesla Z", "Boston", 50))
            .unwrap();
        let after = session.execute(sql).unwrap();
        assert_eq!(after.rows.len(), 2, "{threads} threads");
        assert_eq!(after.rows[0].key[0].to_string(), "James");
        assert_eq!(after.rows[0].glb.unwrap().value, Some(rat(120)));
        assert_eq!(after.rows[0].lub.unwrap().value, Some(rat(125)));
        assert_eq!(
            after.having.as_ref(),
            &[HavingStatus::Certain, HavingStatus::Certain]
        );

        // Byte identity with a cold session over the same final state.
        let cold = fig1_session().with_options(EngineOptions { threads });
        cold.insert(fact!("Stock", "Tesla Z", "Boston", 50))
            .unwrap();
        let cold_outcome = cold.execute(sql).unwrap();
        assert_eq!(cold_outcome.rows, after.rows, "{threads} threads");
        assert_eq!(
            cold_outcome.to_table(),
            after.to_table(),
            "{threads} threads"
        );
    }
}
