//! End-to-end SQL through the session facade: every layer — SQL parser,
//! catalog lowering, classification, strategy table, (parallel) executor —
//! on one path, against the paper's Fig. 1 instance and a generated workload.

use rcqa::core::engine::{EngineOptions, Method};
use rcqa::data::{fact, rat};
use rcqa::gen::JoinWorkload;
use rcqa::query::{Catalog, TableDef};
use rcqa::session::{Session, SessionError};

fn fig1_session() -> Session {
    let catalog = Catalog::new()
        .with_table(TableDef::new("Dealers").key_column("Name").column("Town"))
        .with_table(
            TableDef::new("Stock")
                .key_column("Product")
                .key_column("Town")
                .numeric_column("Qty"),
        );
    let session = Session::new(catalog);
    session
        .insert_all([
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
    session
}

#[test]
fn paper_sql_example_through_the_facade() {
    let session = fig1_session();
    let outcome = session
        .execute(
            "SELECT D.Name, SUM(S.Qty) FROM Dealers AS D, Stock AS S \
             WHERE D.Town = S.Town GROUP BY D.Name",
        )
        .unwrap();
    assert!(outcome.classification.attack_graph_acyclic);
    assert_eq!(outcome.columns, vec!["Name".to_string(), "SUM".to_string()]);
    assert_eq!(outcome.rows.len(), 2);
    let james = &outcome.rows[0];
    assert_eq!(james.key[0].to_string(), "James");
    assert_eq!(james.glb.unwrap().value, Some(rat(70)));
    assert_eq!(james.lub.unwrap().value, Some(rat(75)));
    let smith = &outcome.rows[1];
    assert_eq!(smith.glb.unwrap().value, Some(rat(70)));
    assert_eq!(smith.glb.unwrap().method, Method::Rewriting);
    assert_eq!(smith.lub.unwrap().value, Some(rat(96)));
    assert_eq!(smith.lub.unwrap().method, Method::ExactEnumeration);
}

/// Aggregating a GROUP BY column: each group's key is the aggregated value
/// of every one of its embeddings. Group 35 keeps `(Y, Erie)` in every
/// repair and `(X, Boston, 35)` in half of them; group 40 loses its only
/// fact in the repair that picks 35.
#[test]
fn a_group_by_column_aggregates_as_its_key() {
    let catalog = Catalog::new().with_table(
        TableDef::new("Stock")
            .key_column("Product")
            .key_column("Town")
            .numeric_column("Qty"),
    );
    let session = Session::new(catalog);
    session
        .insert_all([
            fact!("Stock", "X", "Boston", 35),
            fact!("Stock", "X", "Boston", 40),
            fact!("Stock", "Y", "Erie", 35),
        ])
        .unwrap();
    for (agg, glb, lub) in [("SUM", 35, 70), ("AVG", 35, 35)] {
        let sql = format!("SELECT S.Qty, {agg}(S.Qty) FROM Stock AS S GROUP BY S.Qty");
        let outcome = session.execute(&sql).unwrap();
        let rows: Vec<_> = (outcome.rows.iter())
            .map(|row| {
                let key = row.key[0].to_string();
                (key, row.glb.unwrap().value, row.lub.unwrap().value)
            })
            .collect();
        let want = vec![
            ("35".to_string(), Some(rat(glb)), Some(rat(lub))),
            ("40".to_string(), None, None),
        ];
        assert_eq!(rows, want, "{sql}");
    }
}

#[test]
fn explain_matches_the_executed_strategy() {
    let session = fig1_session();
    let plan = session
        .explain(
            "SELECT D.Name, MAX(S.Qty) FROM Dealers AS D, Stock AS S \
             WHERE D.Town = S.Town GROUP BY D.Name",
        )
        .unwrap();
    assert!(plan.contains("Rewrite(MAX, Minimise)"), "{plan}");
    assert!(plan.contains("Extremum(Maximise)"), "{plan}");
    assert!(plan.contains("PartitionByGroup [d_name]"), "{plan}");
}

#[test]
fn session_parallelism_is_transparent() {
    // The same SQL over a generated inconsistent instance answers identically
    // at every worker count.
    let cfg = JoinWorkload {
        r_blocks: 18,
        y_domain: 9,
        s_blocks_per_y: 3,
        inconsistency_ratio: 0.3,
        block_size: 2,
        max_value: 50,
        seed: 33,
    };
    let catalog = Catalog::new()
        .with_table(TableDef::new("R").key_column("X").column("Y"))
        .with_table(
            TableDef::new("S")
                .key_column("Y")
                .key_column("Z")
                .numeric_column("Qty"),
        );
    let db = std::sync::Arc::new(cfg.generate());
    let session = |threads| {
        Session::with_instance(catalog.clone(), db.clone()).with_options(EngineOptions { threads })
    };
    // MAX is rewriting-backed on both bounds, so the whole answer (keys,
    // bounds, methods) must be identical at every worker count — and no
    // repair enumeration runs.
    let sql = "SELECT R.X, MAX(S.Qty) FROM R, S WHERE R.Y = S.Y GROUP BY R.X";
    let baseline = session(1).execute(sql).unwrap();
    assert_eq!(baseline.rows.len(), 18);
    for threads in [2usize, 4, 8] {
        let outcome = session(threads).execute(sql).unwrap();
        assert_eq!(outcome.rows, baseline.rows, "{threads} threads");
    }
}

#[test]
fn insert_invalidates_cached_answers() {
    // Regression for the stale-answer bug: with the session caching its index
    // and results, a query after an insert must see the new fact — at every
    // worker count.
    for threads in [1usize, 4] {
        let session = fig1_session().with_options(EngineOptions { threads });
        let sql = "SELECT D.Name, MAX(S.Qty) FROM Dealers AS D, Stock AS S \
                   WHERE D.Town = S.Town GROUP BY D.Name";
        let before = session.execute(sql).unwrap();
        assert_eq!(before.rows.len(), 2, "{threads} threads");

        session
            .insert(fact!("Dealers", "Lopez", "New York"))
            .unwrap();
        let after = session.execute(sql).unwrap();
        assert_eq!(after.rows.len(), 3, "{threads} threads");
        assert_eq!(after.rows[1].key[0].to_string(), "Lopez");
        assert_eq!(after.rows[1].lub.unwrap().value, Some(rat(96)));

        // A consistent-making delete is seen too.
        assert!(session
            .delete(&fact!("Stock", "Tesla Y", "New York", 95))
            .unwrap());
        let slimmer = session.execute(sql).unwrap();
        assert_eq!(slimmer.rows[1].glb.unwrap().value, Some(rat(96)));
    }
}

#[test]
fn cached_answers_equal_cold_answers_on_generated_instances() {
    // Statement-cache coverage on generator-driven instances: the same SQL
    // answered twice by a warm session must equal a cold session's answer,
    // sequentially and in parallel, across seeds.
    let catalog = || {
        Catalog::new()
            .with_table(TableDef::new("R").key_column("X").column("Y"))
            .with_table(
                TableDef::new("S")
                    .key_column("Y")
                    .key_column("Z")
                    .numeric_column("Qty"),
            )
    };
    let sql = "SELECT R.X, MAX(S.Qty) FROM R, S WHERE R.Y = S.Y GROUP BY R.X";
    for seed in [1u64, 22, 333] {
        let cfg = JoinWorkload {
            r_blocks: 12,
            y_domain: 6,
            s_blocks_per_y: 2,
            inconsistency_ratio: 0.4,
            block_size: 2,
            max_value: 40,
            seed,
        };
        let warm = Session::with_instance(catalog(), cfg.generate());
        let first = warm.execute(sql).unwrap();
        let second = warm.execute(sql).unwrap();
        assert_eq!(first.rows, second.rows, "seed {seed}: warm repeat differs");
        assert_eq!(warm.stats().result_hits, 1, "seed {seed}");
        for threads in [1usize, 4] {
            let cold = Session::with_instance(catalog(), cfg.generate())
                .with_options(EngineOptions { threads });
            assert_eq!(
                cold.execute(sql).unwrap().rows,
                first.rows,
                "seed {seed}: cold@{threads}T differs from warm"
            );
        }
    }
}

#[test]
fn sql_escapes_and_terminators_through_the_facade() {
    let session = fig1_session();
    session
        .insert(fact!("Dealers", "O'Brien", "Boston"))
        .unwrap();
    let outcome = session
        .execute(
            "SELECT SUM(S.Qty) FROM Dealers AS D, Stock AS S \
             WHERE D.Town = S.Town AND D.Name = 'O''Brien';",
        )
        .unwrap();
    assert_eq!(outcome.rows.len(), 1);
    // Boston stock: Tesla X {35,40} + Tesla Y {35} → glb 70.
    assert_eq!(outcome.rows[0].glb.unwrap().value, Some(rat(70)));
    // Mid-statement terminators stay errors end to end.
    assert!(matches!(
        session.execute("SELECT SUM(S.Qty) FROM ; Stock AS S"),
        Err(SessionError::Query(_))
    ));
}

#[test]
fn bad_sql_is_a_session_error() {
    let session = fig1_session();
    assert!(matches!(
        session.execute("SELECT SUM(S.Qty) FROM Missing AS S"),
        Err(SessionError::Query(_))
    ));
}
