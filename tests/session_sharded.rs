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
use rcqa::data::{fact, DeltaEvent, Fact, Value};
use rcqa::query::{Catalog, TableDef};
use rcqa::session::{Session, SessionError, ShardedSession, SyncPolicy, WalOptions, DIRTY_LOG_CAP};

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

/// One mixed write op of [`fanout_results_patch_across_advanced_shards`]:
/// kind 0 inserts one pool fact, 1 deletes one, 2 commits `batch` as one
/// cross-shard `apply_batch` (an even draw inserts, an odd one deletes).
/// Inserts and deletes are equally likely, so the instance stays near half
/// the pool and the exact fallback's repair counts stay small.
fn apply_op(
    sharded: &ShardedSession,
    reference: &Session,
    (kind, draw, batch): &(u8, u64, Vec<u64>),
) {
    let f = pool_fact(*draw);
    let (got, want) = match kind {
        0 => (
            vec![sharded.insert(f.clone()).expect("sharded insert")],
            vec![reference.insert(f).expect("unsharded insert")],
        ),
        1 => (
            vec![sharded.delete(&f).expect("sharded delete")],
            vec![reference.delete(&f).expect("unsharded delete")],
        ),
        _ => {
            let events: Vec<DeltaEvent> = batch
                .iter()
                .map(|&d| match d % 2 {
                    0 => DeltaEvent::insert(pool_fact(d / 2)),
                    _ => DeltaEvent::delete(pool_fact(d / 2)),
                })
                .collect();
            (
                sharded.apply_batch(&events).expect("sharded batch"),
                reference.apply_batch(&events).expect("unsharded batch"),
            )
        }
    };
    assert_eq!(got, want, "effect flags diverge");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Fan-out answers come from one front-end result patched through the
    /// dirty logs of whichever shards advanced since it was cached — several
    /// at once after a cross-shard batch — and recomputed when one shard's
    /// history no longer reaches back to it. Every answer, of every route,
    /// stays byte-identical to an unsharded session's.
    #[test]
    fn fanout_results_patch_across_advanced_shards(
        rounds in proptest::collection::vec(
            proptest::collection::vec(
                (0u8..3, 0u64..1_000_000, proptest::collection::vec(0u64..1_000_000, 2..7)),
                0..41,
            ),
            1..5,
        ),
        stretch_after in 0usize..4,
    ) {
        let stretch_after = stretch_after.min(rounds.len() - 1);
        for shards in [1usize, 2, 4] {
            for threads in [1usize, 4] {
                let engine = EngineOptions { threads };
                let context = format!("s{shards}/t{threads}");
                let sharded = ShardedSession::new(catalog(), shards).with_options(engine);
                let reference = Session::new(catalog()).with_options(engine);
                for (round, ops) in rounds.iter().enumerate() {
                    for op in ops {
                        apply_op(&sharded, &reference, op);
                    }
                    assert_agrees(&sharded, &reference, &format!("{context} round {round}"));
                    if round != stretch_after {
                        continue;
                    }
                    // More commits on one shard than its dirty log keeps: the
                    // next fan-out reads cannot patch and must recompute.
                    let f = fact!("Stock", "q0", "Boston", 5);
                    for commit in 0..=DIRTY_LOG_CAP {
                        let (got, want) = if commit % 2 == 0 {
                            (
                                sharded.insert(f.clone()).expect("sharded insert"),
                                reference.insert(f.clone()).expect("unsharded insert"),
                            )
                        } else {
                            (
                                sharded.delete(&f).expect("sharded delete"),
                                reference.delete(&f).expect("unsharded delete"),
                            )
                        };
                        prop_assert!(got && want, "every stretch commit is effective");
                    }
                    let missed = sharded.stats().totals.support_misses;
                    assert_agrees(&sharded, &reference, &format!("{context} after the stretch"));
                    prop_assert!(
                        sharded.stats().totals.support_misses > missed,
                        "{}: a fan-out result {} commits behind must miss",
                        context,
                        DIRTY_LOG_CAP + 1
                    );
                }
                let stats = sharded.stats();
                prop_assert!(stats.totals.full_recomputes > 0, "{}: no fan-out read", context);
                prop_assert_eq!(
                    sharded.patch_reasons().total(),
                    stats.totals.support_misses + stats.mirror.support_misses,
                    "{}: every miss has its reason",
                    context
                );
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

/// A fan-out result patches through every shard that advanced, each from
/// its own dirty log against its own index. The shards intern on their own,
/// so one value can carry different ids on two shards: here shard 0 holds a
/// town sorting before `Boston` and shard 1 none, so `Boston`'s id differs,
/// and one cross-shard batch dirties a `Boston` block on each. A patch that
/// read one shard's key ids against another shard's index would answer
/// wrong; the patched answer must be the unsharded session's and a cold
/// session's, byte for byte.
#[test]
fn a_fanout_result_patches_through_shards_that_intern_one_value_apart() {
    let fanout = &STATEMENTS[..2];
    let stock = |p: &str, town: &str, qty: i64| fact!("Stock", p, town, qty);
    for threads in [1usize, 4] {
        let engine = EngineOptions { threads };
        let sharded = ShardedSession::new(catalog(), 2).with_options(engine);
        let reference = Session::new(catalog()).with_options(engine);
        // The first product whose `(product, town)` block routes to `shard`.
        let product_on = |shard: usize, town: &str| {
            (0..)
                .map(|i| format!("p{i}"))
                .find(|p| sharded.shard_for(&stock(p, town, 0)) == shard)
                .expect("some product routes to every shard")
        };
        let (p0, p1) = (product_on(0, "Boston"), product_on(1, "Boston"));
        let early = product_on(0, "Albany");
        let load = [
            stock(&p0, "Boston", 10),
            stock(&p0, "Boston", 20),
            stock(&early, "Albany", 10),
            stock(&p1, "Boston", 10),
            stock(&p1, "Boston", 20),
        ];
        sharded.insert_all(load.clone()).expect("sharded load");
        reference.insert_all(load).expect("unsharded load");
        for sql in fanout {
            sharded.execute(sql).expect("sharded read");
        }
        let batch = [
            DeltaEvent::insert(stock(&p0, "Boston", 45)),
            DeltaEvent::delete(stock(&p0, "Boston", 10)),
            DeltaEvent::insert(stock(&p1, "Boston", 61)),
            DeltaEvent::delete(stock(&p1, "Boston", 20)),
        ];
        let flags = sharded.apply_batch(&batch).expect("sharded batch");
        assert_eq!(
            flags,
            reference.apply_batch(&batch).expect("unsharded batch")
        );
        assert!(flags.iter().all(|&f| f), "every event is effective");
        let patched = sharded.stats().totals.supported_patches;
        let facts = reference.database().as_ref().clone();
        let cold = Session::with_instance(catalog(), facts).with_options(engine);
        for sql in fanout {
            let got = sharded.execute(sql).expect("sharded read").rows;
            assert_eq!(
                got,
                reference.execute(sql).expect("unsharded").rows,
                "{sql}"
            );
            assert_eq!(got, cold.execute(sql).expect("cold").rows, "{sql}");
        }
        assert_eq!(
            sharded.stats().totals.supported_patches - patched,
            fanout.len() as u64,
            "{threads} threads: each fan-out result patched"
        );
    }
}

/// The front-end keeps one statement cache, whatever the route: a designated
/// read and a combine read each prepare their statement exactly once, with
/// every counter of the front-end, its shards and its mirror counted once
/// in `totals` and `mirror`.
#[test]
fn each_statement_is_prepared_once_whatever_its_route() {
    let sharded = ShardedSession::new(catalog(), 4);
    let prepared = || {
        let stats = sharded.stats();
        stats.totals.merge(stats.mirror).statements_prepared
    };
    let designated = STATEMENTS[6];
    let combine = STATEMENTS[4];
    let before = prepared();
    sharded.execute(designated).expect("designated read");
    assert_eq!(sharded.stats().designated_queries, 1);
    assert_eq!(prepared() - before, 1, "{designated}");
    sharded.execute(combine).expect("combine read");
    assert_eq!(sharded.stats().combine_queries, 1);
    assert_eq!(prepared() - before, 2, "{combine}");
}
