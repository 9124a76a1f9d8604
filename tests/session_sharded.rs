//! Sharded-vs-unsharded byte-identity under random write interleavings.
//!
//! The scale-out front-end's whole contract is that sharding is invisible:
//! for every statement shape — fan-out (full-key GROUP BY), global HAVING,
//! top-k re-decided over the merged rows, a residual predicate's fan-out,
//! joins, and closed designated-shard lookups — a [`ShardedSession`] must
//! return answers byte-identical to a single unsharded [`Session`] fed the
//! same operations, at every shard count, at every thread count, and after
//! crash-recovering every shard from its write-ahead log.

use proptest::prelude::*;
use rcqa::core::engine::EngineOptions;
use rcqa::data::{fact, Fact, Value};
use rcqa::query::{Catalog, TableDef};
use rcqa::session::{Session, SessionError, ShardedSession, SyncPolicy, WalOptions};

fn catalog() -> Catalog {
    Catalog::new()
        .with_table(TableDef::new("Dealers").key_column("Name").column("Town"))
        .with_table(
            TableDef::new("Stock")
                .key_column("Product")
                .key_column("Town")
                .numeric_column("Qty"),
        )
}

/// One statement per routing/post-processing shape the merge must get right.
const STATEMENTS: &[&str] = &[
    // Full-key GROUP BY: the fan-out route — each group's blocks live on
    // exactly one shard, so per-shard rows merge by key.
    "SELECT S.Product, S.Town, MAX(S.Qty) FROM Stock AS S \
     GROUP BY S.Product, S.Town",
    // Fan-out + HAVING: the trichotomy is per group, but the surviving row
    // set is re-decided globally after the merge.
    "SELECT S.Product, S.Town, SUM(S.Qty) FROM Stock AS S \
     GROUP BY S.Product, S.Town HAVING SUM(S.Qty) > 40",
    // Fan-out + certain top-k: ORDER BY/LIMIT cannot be decided per shard
    // and must be re-run over the merged rows.
    "SELECT S.Product, S.Town, MAX(S.Qty) FROM Stock AS S \
     GROUP BY S.Product, S.Town ORDER BY MAX(S.Qty) DESC LIMIT 3",
    // Residual comparison predicate: both bounds by repair enumeration —
    // of each group's own block, so it fans out like the plain MAX above.
    "SELECT S.Product, S.Town, MIN(S.Qty) FROM Stock AS S \
     WHERE S.Qty > 10 GROUP BY S.Product, S.Town",
    // Join: grouping does not determine Stock's block key, so the same
    // group draws blocks from several shards — combine route.
    "SELECT D.Name, SUM(S.Qty) FROM Dealers AS D, Stock AS S \
     WHERE D.Town = S.Town GROUP BY D.Name",
    // Subset-of-key GROUP BY: the unconstrained key component scatters a
    // group's blocks across shards — combine route, still byte-identical.
    "SELECT S.Town, MAX(S.Qty) FROM Stock AS S GROUP BY S.Town",
    // Closed query with a fully constant key: routed to the one designated
    // shard that owns the block.
    "SELECT MAX(S.Qty) FROM Stock AS S \
     WHERE S.Product = 'p1' AND S.Town = 'Boston'",
];

/// Small value domains so draws collide: inserts become duplicates, deletes
/// hit present facts, and Stock keys accumulate conflicting Qty values
/// (inconsistent blocks, which is the whole point of the semantics).
fn pool_fact(draw: u64) -> Fact {
    const TOWNS: [&str; 3] = ["Boston", "Dover", "Erie"];
    if draw.is_multiple_of(3) {
        let draw = draw / 3;
        fact!(
            "Dealers",
            format!("n{}", draw % 3),
            TOWNS[(draw / 3) as usize % 3]
        )
    } else {
        let draw = draw / 3;
        Fact::new(
            "Stock",
            [
                Value::text(format!("p{}", draw % 4)),
                Value::text(TOWNS[(draw / 4) as usize % 3]),
                Value::int(5 + 20 * ((draw / 12) % 3) as i64),
            ],
        )
    }
}

fn wal_options() -> WalOptions {
    WalOptions {
        sync: SyncPolicy::Never,
        checkpoint_every: 4,
    }
}

/// Asserts that `sharded` answers every statement byte-identically to the
/// unsharded `reference` session.
fn assert_agrees(sharded: &ShardedSession, reference: &Session, context: &str) {
    for sql in STATEMENTS {
        let got = sharded.execute(sql).expect("sharded execute");
        let want = reference.execute(sql).expect("unsharded execute");
        prop_assert_eq!(&want.columns, &got.columns, "{} columns: {}", context, sql);
        prop_assert_eq!(&want.rows, &got.rows, "{} rows: {}", context, sql);
        prop_assert_eq!(
            &want.more_aggregates,
            &got.more_aggregates,
            "{} extra aggregates: {}",
            context,
            sql
        );
        prop_assert_eq!(&want.having, &got.having, "{} having: {}", context, sql);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn sharded_answers_are_byte_identical_to_unsharded(
        ops in proptest::collection::vec((0u8..3, 0u64..1_000_000), 2..9),
    ) {
        let dir = tempfile::TempDir::new().expect("tempdir");
        for shards in [1usize, 2, 4, 7] {
            for threads in [1usize, 4] {
                let engine = EngineOptions { threads };
                let path = dir.path().join(format!("s{shards}-t{threads}"));
                let sharded =
                    ShardedSession::open_with(catalog(), &path, shards, wal_options())
                        .expect("open sharded")
                        .with_options(engine);
                let reference = Session::new(catalog()).with_options(engine);
                for &(op, draw) in &ops {
                    let f = pool_fact(draw);
                    let (got, want) = match op {
                        0 | 1 => (
                            sharded.insert(f.clone()).expect("sharded insert"),
                            reference.insert(f).expect("unsharded insert"),
                        ),
                        _ => (
                            sharded.delete(&f).expect("sharded delete"),
                            reference.delete(&f).expect("unsharded delete"),
                        ),
                    };
                    prop_assert_eq!(got, want, "effect flags diverge at {} shards", shards);
                    assert_agrees(&sharded, &reference, &format!("s{shards}/t{threads}"));
                }
                prop_assert_eq!(
                    sharded.epoch_frontier().iter().sum::<u64>(),
                    sharded.epoch(),
                    "frontier must sum to the front-end epoch"
                );
                // Crash-recover every shard: drop the live front-end (its
                // logs are on disk), reopen the directory, and demand the
                // same answers again.
                sharded.sync().expect("sync all shards");
                drop(sharded);
                let recovered =
                    ShardedSession::open_with(catalog(), &path, shards, wal_options())
                        .expect("recover all shards")
                        .with_options(engine);
                assert_agrees(
                    &recovered,
                    &reference,
                    &format!("recovered s{shards}/t{threads}"),
                );
                // Reopening with the wrong shard count must be refused, not
                // silently re-routed.
                if shards > 1 {
                    let wrong =
                        ShardedSession::open_with(catalog(), &path, shards - 1, wal_options());
                    prop_assert!(
                        matches!(wrong, Err(SessionError::Wal(_))),
                        "a {}-shard directory must refuse to open as {} shards",
                        shards,
                        shards - 1
                    );
                }
            }
        }
    }
}

/// Writes keep working after recovery: the recovered front-end continues
/// from the recovered frontier and stays byte-identical to an unsharded
/// session fed the same total history.
#[test]
fn recovered_sharded_session_accepts_further_writes() {
    let dir = tempfile::TempDir::new().expect("tempdir");
    let path = dir.path().join("continue");
    let catalog = catalog();
    let reference = Session::new(catalog.clone());
    {
        let sharded =
            ShardedSession::open_with(catalog.clone(), &path, 4, wal_options()).expect("open");
        for draw in 0..10u64 {
            let f = pool_fact(draw * 7 + 1);
            assert_eq!(
                sharded.insert(f.clone()).expect("insert"),
                reference.insert(f).expect("insert")
            );
        }
        sharded.sync().expect("sync");
    }
    let sharded = ShardedSession::open_with(catalog, &path, 4, wal_options()).expect("recover");
    for draw in 10..20u64 {
        let f = pool_fact(draw * 7 + 1);
        assert_eq!(
            sharded.insert(f.clone()).expect("insert after recovery"),
            reference.insert(f).expect("insert")
        );
    }
    for sql in STATEMENTS {
        assert_eq!(
            sharded.execute(sql).expect("sharded").rows,
            reference.execute(sql).expect("unsharded").rows,
            "{sql}"
        );
    }
    // The statement list earns its name: every route was actually taken.
    let stats = sharded.stats();
    assert!(stats.fanout_queries > 0, "no statement fanned out");
    assert!(stats.designated_queries > 0, "no designated lookup");
    assert!(stats.combine_queries > 0, "no cross-shard combine");
}

/// `explain` reads the same consistent cut an `execute` would: straight
/// after a write, with no read in between, the access path's block counts
/// are those of the written instance — the unsharded session's text, below
/// the front-end's `route:` line.
#[test]
fn explain_after_a_write_sees_the_write() {
    let facts = [
        fact!("Dealers", "Smith", "Boston"),
        fact!("Dealers", "Smith", "Dover"),
        fact!("Dealers", "James", "Boston"),
        fact!("Stock", "p1", "Boston", 35),
        fact!("Stock", "p1", "Boston", 40),
        fact!("Stock", "p2", "Dover", 95),
    ];
    let statements = [
        "SELECT D.Name, MAX(S.Qty) FROM Dealers AS D, Stock AS S \
         WHERE D.Town = S.Town AND D.Name >= 'K' GROUP BY D.Name",
        "SELECT S.Product, S.Town, MAX(S.Qty) FROM Stock AS S \
         WHERE S.Product > 'p1' GROUP BY S.Product, S.Town",
    ];
    let reference = Session::new(catalog());
    reference.insert_all(facts.clone()).expect("insert");
    for shards in [2usize, 4] {
        let sharded = ShardedSession::new(catalog(), shards);
        sharded.insert_all(facts.clone()).expect("insert");
        for sql in statements {
            let want = reference.explain(sql).expect("unsharded explain");
            assert!(want.contains(" of 2 blocks"), "{want}");
            let got = sharded.explain(sql).expect("sharded explain");
            let (route, plan) = got.split_once('\n').expect("a route line, then the plan");
            assert!(route.starts_with("route: "), "{got}");
            assert_eq!(plan, want, "{shards} shards: {sql}");
        }
    }
}
