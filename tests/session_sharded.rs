//! Sharded-vs-unsharded byte-identity under random write interleavings.
//!
//! The sharded session's whole contract is that sharding is invisible: for
//! every statement shape — a full-key GROUP BY (each group's blocks on one
//! shard), global HAVING, certain top-k, a residual predicate, joins and
//! subset-of-key groupings (a group's blocks on several shards), and closed
//! one-block lookups — a [`ShardedSession`] must return answers
//! byte-identical to a single unsharded [`Session`] fed the same
//! operations, at every shard count and every thread count.

use proptest::prelude::*;
use rcqa::core::engine::EngineOptions;
use rcqa::data::{fact, DeltaEvent, Fact, Value};
use rcqa::query::{Catalog, TableDef};
use rcqa::session::{Session, SessionError, ShardedSession, SyncPolicy, WalOptions, DIRTY_LOG_CAP};
use rcqa::wal::WalError;

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

/// One statement per shape of how its blocks spread over the shards, and
/// per post-processing step.
const STATEMENTS: &[&str] = &[
    // Full-key GROUP BY: each group's blocks live on exactly one shard.
    "SELECT S.Product, S.Town, MAX(S.Qty) FROM Stock AS S \
     GROUP BY S.Product, S.Town",
    // + HAVING: the trichotomy is per group, over every shard's groups.
    "SELECT S.Product, S.Town, SUM(S.Qty) FROM Stock AS S \
     GROUP BY S.Product, S.Town HAVING SUM(S.Qty) > 40",
    // + certain top-k: ORDER BY/LIMIT compares groups of every shard.
    "SELECT S.Product, S.Town, MAX(S.Qty) FROM Stock AS S \
     GROUP BY S.Product, S.Town ORDER BY MAX(S.Qty) DESC LIMIT 3",
    // Residual comparison predicate: both bounds by repair enumeration of
    // each group's own block.
    "SELECT S.Product, S.Town, MIN(S.Qty) FROM Stock AS S \
     WHERE S.Qty > 10 GROUP BY S.Product, S.Town",
    // Join: grouping does not determine Stock's block key, so the same
    // group draws blocks from several shards.
    "SELECT D.Name, SUM(S.Qty) FROM Dealers AS D, Stock AS S \
     WHERE D.Town = S.Town GROUP BY D.Name",
    // Subset-of-key GROUP BY: the unconstrained key component scatters a
    // group's blocks across shards.
    "SELECT S.Town, MAX(S.Qty) FROM Stock AS S GROUP BY S.Town",
    // Closed query with a fully constant key: one block, on one shard.
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
        let got = sharded.execute(sql).expect("execute");
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
        for shards in [1usize, 2, 4, 7] {
            for threads in [1usize, 4] {
                let engine = EngineOptions { threads };
                let sharded = ShardedSession::new(catalog(), shards).with_options(engine);
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

    /// Cached results are patched through the dirty log of every commit
    /// since they were cached — single writes routed to one shard and
    /// batches spanning several — and recomputed when the history no longer
    /// reaches back to them. Every answer, of every statement, stays
    /// byte-identical to an unsharded session's.
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
                    // More commits to one shard than the dirty log keeps: the
                    // next reads cannot patch and must recompute.
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
                        "{}: a result {} commits behind must miss",
                        context,
                        DIRTY_LOG_CAP + 1
                    );
                }
                let stats = sharded.stats().totals;
                prop_assert!(stats.full_recomputes > 0, "{}: no cold read", context);
                // The same reads of the same commits miss the patch path
                // where the unsharded session's miss, for a reason it gives.
                let misses = reference.stats().support_misses;
                prop_assert_eq!(stats.support_misses, misses, "{}: misses", context);
                prop_assert_eq!(
                    reference.patch_reasons().total(),
                    misses,
                    "{}: every miss has its reason",
                    context
                );
            }
        }
    }
}

/// One batch spanning two shards dirties a `Boston` block on each: it is one
/// commit, and each full-key result patches through its one dirty-log
/// entry, which names blocks of both shards in the one index's ids. The
/// patched answer must be the unsharded session's and a cold session's,
/// byte for byte. (When each shard kept an index of its own, `Boston`
/// carried a different id on each — shard 0 also holds a town sorting
/// before it — and a patch had to read each shard's ids against that
/// shard's index; one index has one id per value.)
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

/// The session keeps one statement cache, however a statement's blocks
/// spread over the shards: a one-block lookup and a join each prepare their
/// statement exactly once, every counter counted once in `totals` (and
/// none in `mirror`), and both answer as an unsharded session does.
#[test]
fn each_statement_is_prepared_once_whatever_its_route() {
    let sharded = ShardedSession::new(catalog(), 4);
    let reference = Session::new(catalog());
    let pool: Vec<Fact> = (0..40).map(pool_fact).collect();
    sharded.insert_all(pool.clone()).expect("sharded load");
    reference.insert_all(pool).expect("unsharded load");
    let prepared = || {
        let stats = sharded.stats();
        stats.totals.merge(stats.mirror).statements_prepared
    };
    let lookup = STATEMENTS[6];
    let join = STATEMENTS[4];
    let before = prepared();
    for (sql, count) in [(lookup, 1), (lookup, 1), (join, 2), (join, 2)] {
        assert_eq!(
            sharded.execute(sql).expect("sharded read").rows,
            reference.execute(sql).expect("unsharded read").rows,
            "{sql}"
        );
        assert_eq!(prepared() - before, count, "{sql}");
    }
}

/// A sharded session keeps one index over every shard's blocks: loading the
/// pool and reading every statement builds it once, whatever the shard
/// count, and the instance it holds is an unsharded session's.
#[test]
fn a_sharded_session_builds_one_index() {
    let sharded = ShardedSession::new(catalog(), 4);
    let reference = Session::new(catalog());
    let pool: Vec<Fact> = (0..100).map(pool_fact).collect();
    sharded.insert_all(pool.clone()).expect("sharded load");
    reference.insert_all(pool).expect("unsharded load");
    for sql in STATEMENTS {
        sharded.execute(sql).expect("sharded read");
    }
    let stats = sharded.stats();
    assert_eq!(stats.totals.merge(stats.mirror).index_builds, 1);
    assert_eq!(
        *sharded.database().expect("sharded instance"),
        *reference.database()
    );
}

/// A directory in the per-shard layout earlier sharded sessions wrote — a
/// `SHARDS` manifest and one log per `shard-NNN` directory — is refused by
/// name rather than opened as an empty session over a directory that holds
/// facts.
#[test]
fn a_per_shard_directory_is_refused_by_name() {
    let dir = tempfile::TempDir::new().expect("tempdir");
    let path = dir.path().join("per-shard");
    for shard in 0..2 {
        let log = Session::open_with(
            catalog(),
            path.join(format!("shard-{shard:03}")),
            wal_options(),
        )
        .expect("a shard log");
        log.insert(pool_fact(shard + 1)).expect("insert");
    }
    std::fs::write(path.join("SHARDS"), "2\n").expect("manifest");
    let listing = || {
        let mut names: Vec<_> = std::fs::read_dir(&path)
            .expect("listing")
            .map(|entry| entry.expect("entry").file_name())
            .collect();
        names.sort();
        names
    };
    let before = listing();
    let refusals = [
        Session::open_with(catalog(), &path, wal_options()).map(drop),
        Session::open(catalog(), &path).map(drop),
    ];
    for refusal in refusals {
        match refusal {
            Err(SessionError::Wal(WalError::Corrupt { file, detail, .. })) => {
                assert_eq!(file, "SHARDS");
                assert!(detail.contains("per-shard layout"), "{detail}");
            }
            other => panic!("expected the per-shard layout refused, got {other:?}"),
        }
    }
    assert_eq!(listing(), before, "a refused open writes nothing");
}
