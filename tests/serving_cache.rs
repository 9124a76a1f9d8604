//! Serving-session cache invariants, asserted on each session's own
//! [`rcqa::session::SessionStats::index_builds`] — a per-session count, so
//! the tests of this binary (the proptest block included) run side by side
//! on any number of libtest threads without observing each other's builds.

use rcqa::core::engine::EngineOptions;
use rcqa::data::{fact, Fact, Value};
use rcqa::gen::JoinWorkload;
use rcqa::query::{Catalog, TableDef};
use rcqa::session::Session;

/// The catalog lowering of [`JoinWorkload`]'s schema: `R(X, Y)` with key
/// `X`, `S(Y, Z, Qty)` with key `(Y, Z)` and numeric `Qty`.
fn rs_catalog() -> Catalog {
    Catalog::new()
        .with_table(TableDef::new("R").key_column("X").column("Y"))
        .with_table(
            TableDef::new("S")
                .key_column("Y")
                .key_column("Z")
                .numeric_column("Qty"),
        )
}

fn workload() -> JoinWorkload {
    JoinWorkload {
        r_blocks: 20,
        y_domain: 10,
        s_blocks_per_y: 2,
        inconsistency_ratio: 0.25,
        block_size: 2,
        max_value: 60,
        seed: 7,
    }
}

/// MAX is rewriting-backed on both bounds, so the whole exchange stays on
/// the one-pass pipeline (the exact fallback would enumerate repairs and
/// index each of them by design).
const GROUPED_MAX: &str = "SELECT R.X, MAX(S.Qty) FROM R, S WHERE R.Y = S.Y GROUP BY R.X";

#[test]
fn n_repeated_executes_build_exactly_one_index() {
    for threads in [1usize, 4] {
        let session = Session::with_instance(rs_catalog(), workload().generate())
            .with_options(EngineOptions { threads });
        let first = session.execute(GROUPED_MAX).unwrap();
        assert_eq!(first.rows.len(), 20);
        for _ in 0..9 {
            let again = session.execute(GROUPED_MAX).unwrap();
            assert_eq!(again.rows, first.rows);
        }
        let stats = session.stats();
        assert_eq!(
            stats.index_builds, 1,
            "{threads} threads: 10 executes must build exactly one index"
        );
        assert_eq!(stats.result_hits, 9);
        assert_eq!(stats.statements_prepared, 1);
        assert_eq!(stats.statement_hits, 9);
    }
}

#[test]
fn mutations_maintain_the_index_without_rebuilding() {
    let session = Session::with_instance(rs_catalog(), workload().generate());
    session.execute(GROUPED_MAX).unwrap();
    assert_eq!(session.stats().index_builds, 1);

    // Insert into a fresh group, insert into an existing group's relation,
    // and delete again: every step is served by delta replay, never a
    // rebuild.
    session.insert(fact!("R", "xnew", "y3")).unwrap();
    let grown = session.execute(GROUPED_MAX).unwrap();
    assert_eq!(grown.rows.len(), 21);
    assert!(session.delete(&fact!("R", "xnew", "y3")).unwrap());
    let shrunk = session.execute(GROUPED_MAX).unwrap();
    assert_eq!(shrunk.rows.len(), 20);
    let stats = session.stats();
    assert_eq!(
        stats.index_builds, 1,
        "mutations must be applied as deltas, not rebuilds"
    );
    assert_eq!(stats.partial_recomputes, 2, "R deltas localise to groups");
    assert_eq!(stats.deltas_applied, 2);
}

#[test]
fn concurrent_clients_share_exactly_one_index_build() {
    let session = Session::with_instance(rs_catalog(), workload().generate());
    let expected = session.execute(GROUPED_MAX).unwrap().rows;
    // Evict the result cache's current epoch? No — share a *fresh* session so
    // the very first builds race: 4 clients starting cold must still build
    // exactly one index (the snapshot's OnceLock serialises initialisers).
    let fresh = Session::with_instance(rs_catalog(), workload().generate());
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let fresh = &fresh;
            let expected = &expected;
            scope.spawn(move || {
                for _ in 0..5 {
                    assert_eq!(&fresh.execute(GROUPED_MAX).unwrap().rows, expected);
                }
            });
        }
    });
    let stats = fresh.stats();
    assert_eq!(
        stats.index_builds, 1,
        "4 racing cold clients must share one index build"
    );
    assert_eq!(stats.statements_prepared, 1, "racing preparations dedupe");
}

/// Random insert/delete interleavings against the support-tracked
/// maintenance layer: after EVERY commit, each statement's warm answer must
/// be byte-identical to a cold session over the same instance at 1 and 4
/// executor threads AND to a session crash-recovered from a copy of the
/// write-ahead log. The statement mix covers the three post-processing
/// shapes the old locality certificate refused to patch — HAVING over a
/// non-key group key (retraction-blind under an R write), certain top-k, and
/// a residual comparison predicate (both bounds by repair enumeration, of
/// the blocks each group's embeddings touch — patched like the rest) — plus
/// the plain join and a closed join, whose probe-side writes the delta
/// enumeration localises.
mod random_interleavings {
    use super::*;
    use proptest::prelude::*;
    use rcqa::data::{Fact, Value};
    use rcqa::session::{SyncPolicy, WalOptions};
    use rcqa::wal::{MemStorage, WalStorage};

    const STATEMENTS: &[&str] = &[
        // Non-key GROUP BY key + HAVING: patched via support patterns.
        "SELECT R.Y, MAX(S.Qty) FROM R, S WHERE R.Y = S.Y GROUP BY R.Y \
         HAVING MAX(S.Qty) > 20",
        // Certain top-k: selection reuse when pairwise precedence holds.
        "SELECT R.X, MAX(S.Qty) FROM R, S WHERE R.Y = S.Y GROUP BY R.X \
         ORDER BY MAX(S.Qty) DESC LIMIT 3",
        // Residual predicate (Qty is at no key position and not free):
        // repair enumeration on both bounds, per group.
        "SELECT R.X, MIN(S.Qty) FROM R, S WHERE R.Y = S.Y AND S.Qty > 10 \
         GROUP BY R.X",
        // The plain join: S-side writes reach its groups through the R prefix
        // of the delta enumeration, deletes of whole S blocks included.
        "SELECT R.X, MAX(S.Qty) FROM R, S WHERE R.Y = S.Y GROUP BY R.X",
        // Closed over one R block: restamped unless that block, or an S block
        // it joins, is dirty.
        "SELECT MAX(S.Qty) FROM R, S WHERE R.Y = S.Y AND R.X = 'x1'",
    ];

    /// Small value domains so draws collide: inserts become duplicates,
    /// deletes hit present facts, and S keys accumulate conflicting Qty
    /// values (two per key, keeping exact enumeration's repair count small).
    fn pool_fact(draw: u64) -> Fact {
        if draw.is_multiple_of(2) {
            let draw = draw / 2;
            fact!(
                "R",
                format!("x{}", draw % 4),
                format!("y{}", (draw / 4) % 3)
            )
        } else {
            let draw = draw / 2;
            Fact::new(
                "S",
                [
                    Value::text(format!("y{}", draw % 3)),
                    Value::text(format!("z{}", (draw / 3) % 2)),
                    Value::int(5 + 20 * ((draw / 6) % 2) as i64),
                ],
            )
        }
    }

    /// An isolated deep copy of the log bytes, so recovery cannot disturb
    /// the live session's storage (the in-memory analogue of imaging the
    /// disk before remounting it elsewhere).
    fn image(mem: &MemStorage) -> MemStorage {
        let mut src = mem.handle();
        let copy = MemStorage::new();
        for name in src.list().expect("list in-memory files") {
            copy.set_file(&name, src.file(&name).unwrap_or_default());
        }
        copy
    }

    fn wal_options() -> WalOptions {
        WalOptions {
            sync: SyncPolicy::Never,
            checkpoint_every: 4,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn every_commit_agrees_with_cold_and_crash_recovered_sessions(
            ops in proptest::collection::vec((0u8..3, 0u64..1_000_000), 2..10),
        ) {
            let mem = MemStorage::new();
            let warm =
                Session::open_storage(rs_catalog(), Box::new(mem.handle()), wal_options())
                    .expect("open");
            let mut effective = 0u64;
            for (op, draw) in ops {
                let f = pool_fact(draw);
                let changed = match op {
                    0 | 1 => warm.insert(f).expect("insert conforms"),
                    _ => warm.delete(&f).expect("delete"),
                };
                if changed {
                    effective += 1;
                }
                for sql in STATEMENTS {
                    let got = warm.execute(sql).expect("warm execute");
                    for threads in [1usize, 4] {
                        let cold = Session::with_instance(
                            rs_catalog(),
                            warm.database().clone(),
                        )
                        .with_options(EngineOptions { threads });
                        let want = cold.execute(sql).expect("cold execute");
                        prop_assert_eq!(&want.rows, &got.rows, "cold@{}T: {}", threads, sql);
                        prop_assert_eq!(
                            &want.more_aggregates, &got.more_aggregates,
                            "cold@{}T extra aggregates: {}", threads, sql
                        );
                        prop_assert_eq!(
                            &want.having, &got.having,
                            "cold@{}T having statuses: {}", threads, sql
                        );
                    }
                }
                let recovered = Session::open_storage(
                    rs_catalog(),
                    Box::new(image(&mem)),
                    wal_options(),
                )
                .expect("recover from a clean log image");
                prop_assert_eq!(recovered.epoch(), warm.epoch());
                for sql in STATEMENTS {
                    prop_assert_eq!(
                        &recovered.execute(sql).expect("recovered execute").rows,
                        &warm.execute(sql).expect("warm re-execute").rows,
                        "crash-recovered session differs: {}", sql
                    );
                }
            }
            // Every statement — the residual-predicate one, whose bounds
            // come from repair enumeration, included — is computed in full
            // once, cold, and served by the patch path from then on: read
            // after every commit and under sixteen rows per result, no miss
            // reason can fire.
            let stats = warm.stats();
            prop_assert_eq!(stats.full_recomputes, STATEMENTS.len() as u64);
            prop_assert_eq!(stats.support_misses, 0);
            if effective >= 2 {
                prop_assert!(stats.supported_patches >= STATEMENTS.len() as u64);
            }
        }
    }
}

#[test]
fn warm_answers_equal_cold_sessions_at_every_thread_count() {
    let db = workload().generate();
    let warm = Session::with_instance(rs_catalog(), db);
    // Warm the caches, mutate through the delta path, and query again.
    warm.execute(GROUPED_MAX).unwrap();
    warm.insert(fact!("R", "xnew", "y1")).unwrap();
    warm.insert(fact!("S", "y1", "znew", 999)).unwrap();
    assert!(
        warm.delete(&fact!("R", "x3", "y8")).unwrap()
            || !warm.database().contains(&fact!("R", "x3", "y8"))
    );
    let warm_rows = warm.execute(GROUPED_MAX).unwrap().rows;

    // Cold sessions over the final instance must agree exactly, sequentially
    // and in parallel.
    for threads in [1usize, 2, 4, 8] {
        let cold = Session::with_instance(rs_catalog(), warm.database().clone())
            .with_options(EngineOptions { threads });
        assert_eq!(
            cold.execute(GROUPED_MAX).unwrap().rows,
            warm_rows,
            "cold@{threads}T differs from the warm session"
        );
    }
}

#[test]
fn values_first_interned_by_a_warm_commit_group_as_in_a_cold_session() {
    // The bounds group a group's ∀embeddings by *id* equality. A value first
    // seen by a warm commit gets an overlay id — appended after every
    // cold-built id, whatever its value — so inside one block the id order
    // of the alternatives can disagree with their value order. Grouping by
    // equality does not care; this pins that it never starts to.
    let warm = Session::with_instance(rs_catalog(), workload().generate());
    let statements = [
        GROUPED_MAX,
        "SELECT R.X, MIN(S.Qty) FROM R, S WHERE R.Y = S.Y GROUP BY R.X",
    ];
    for sql in statements {
        warm.execute(sql).unwrap();
    }
    // x0's block gains a join value that sorts before every cold `y…`; that
    // value's S block and an existing one gain quantities below and above
    // every cold one (the workload draws 1..=60).
    let existing = warm
        .database()
        .facts_of("S")
        .next()
        .expect("the workload has S facts")
        .clone();
    let (y, z) = (existing.arg(0).clone(), existing.arg(1).clone());
    warm.insert(fact!("R", "x0", "a-new-y")).unwrap();
    for qty in [70, 0, 65] {
        warm.insert(fact!("S", "a-new-y", "z0", qty)).unwrap();
    }
    for qty in [0, 99] {
        warm.insert(Fact::new("S", [y.clone(), z.clone(), Value::int(qty)]))
            .unwrap();
    }
    for sql in statements {
        let warm_rows = warm.execute(sql).unwrap().rows;
        for threads in [1usize, 4] {
            let cold = Session::with_instance(rs_catalog(), warm.database().clone())
                .with_options(EngineOptions { threads });
            assert_eq!(
                cold.execute(sql).unwrap().rows,
                warm_rows,
                "cold@{threads}T differs from the warm session: {sql}"
            );
        }
    }
    assert_eq!(
        warm.stats().index_builds,
        1,
        "the warm index was maintained"
    );
}
