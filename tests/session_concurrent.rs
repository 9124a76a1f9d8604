//! Concurrent serving under snapshot isolation: one warm [`Session`] shared
//! by 1/2/4 client threads answers byte-identically to cold sessions —
//! including while a writer commits between reads. Every read carries the
//! epoch of its pinned snapshot, so the assertions reconstruct the exact
//! instance each read saw and replay it cold. Readers of one stale statement
//! at one pin patch its cached result once between them.

use rcqa::data::{fact, DatabaseInstance, Fact};
use rcqa::gen::JoinWorkload;
use rcqa::query::{Catalog, TableDef};
use rcqa::session::{QueryOutcome, Session, SessionStats, ShardedSession};
use std::sync::{Arc, Barrier, Mutex};

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
        seed: 11,
    }
}

/// MAX is rewriting-backed on both bounds, so every arm stays on the
/// one-pass pipeline.
const SQL: &str = "SELECT R.X, MAX(S.Qty) FROM R, S WHERE R.Y = S.Y GROUP BY R.X";

fn cold_rows(db: &DatabaseInstance) -> Arc<[rcqa::core::engine::GroupRange]> {
    Session::with_instance(rs_catalog(), db.clone())
        .execute(SQL)
        .expect("cold execute")
        .rows
}

#[test]
fn warm_concurrent_reads_equal_cold_at_every_client_thread_count() {
    let db = workload().generate();
    let expected = cold_rows(&db);
    for client_threads in [1usize, 2, 4] {
        let warm = Session::with_instance(rs_catalog(), db.clone());
        warm.execute(SQL).expect("warm-up");
        std::thread::scope(|scope| {
            for _ in 0..client_threads {
                let warm = &warm;
                let expected = &expected;
                scope.spawn(move || {
                    for _ in 0..8 {
                        let outcome = warm.execute(SQL).expect("warm concurrent execute");
                        assert_eq!(
                            outcome.rows, *expected,
                            "{client_threads} clients: warm read differs from cold"
                        );
                    }
                });
            }
        });
        let stats = warm.stats();
        assert_eq!(
            stats.index_builds, 1,
            "{client_threads} clients: concurrent readers must share one index"
        );
        assert_eq!(stats.statements_prepared, 1);
        assert_eq!(
            stats.result_hits,
            8 * client_threads as u64,
            "{client_threads} clients: every concurrent read is a result hit"
        );
    }
}

#[test]
fn readers_racing_a_writer_match_cold_sessions_at_their_pinned_epoch() {
    let base = workload().generate();
    let writes: Vec<Fact> = (0..10)
        .map(|i| fact!("R", format!("zz{i:02}"), "y0"))
        .collect();
    // Cold reference rows for every prefix of the write sequence: epoch e in
    // the warm session corresponds to the base instance plus the first e
    // writes (each insert is effective and bumps the epoch by exactly one).
    let expected_by_epoch: Vec<Arc<[rcqa::core::engine::GroupRange]>> = {
        let mut staged = base.clone();
        let mut all = vec![cold_rows(&staged)];
        for f in &writes {
            staged.insert(f.clone()).expect("staged insert");
            all.push(cold_rows(&staged));
        }
        all
    };

    for client_threads in [1usize, 2, 4] {
        let session = Session::with_instance(rs_catalog(), base.clone());
        session.execute(SQL).expect("warm-up");
        let observed: Mutex<Vec<(u64, Arc<[rcqa::core::engine::GroupRange]>)>> =
            Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..client_threads {
                let session = &session;
                let observed = &observed;
                scope.spawn(move || {
                    for _ in 0..16 {
                        let outcome = session.execute(SQL).expect("racing read");
                        observed.lock().unwrap().push((outcome.epoch, outcome.rows));
                    }
                });
            }
            let session = &session;
            let writes = &writes;
            scope.spawn(move || {
                for f in writes {
                    assert!(session.insert(f.clone()).expect("concurrent insert"));
                }
            });
        });
        assert_eq!(session.epoch(), writes.len() as u64);
        // Every concurrent read was byte-identical to a cold session over
        // the instance at its pinned epoch — reads are never torn, stale
        // rows are never served for a newer epoch.
        let observed = observed.into_inner().unwrap();
        assert_eq!(observed.len(), 16 * client_threads);
        for (epoch, rows) in &observed {
            assert_eq!(
                rows, &expected_by_epoch[*epoch as usize],
                "{client_threads} clients: read at epoch {epoch} differs from cold"
            );
        }
        // And the settled session agrees with the final prefix.
        assert_eq!(
            session.execute(SQL).expect("final read").rows,
            *expected_by_epoch.last().unwrap()
        );
    }
}

/// Two readers of one stale statement, released together at one pin, each
/// answered by `read`: whichever takes the statement's lock first patches
/// the cached result in place, and the other reads the patched result. So a
/// round costs exactly one patch and no full recompute, and both readers
/// answer alike — whatever the interleaving. `stats` reads the counters of
/// the cache the statement lives in.
fn two_stale_readers_patch_once(
    write: impl Fn(usize),
    read: impl Fn() -> QueryOutcome + Sync,
    stats: impl Fn() -> SessionStats,
) {
    read();
    // A new group, then a changed one (the group set stays), alternately.
    for round in 0..8 {
        write(round);
        let before = stats();
        let barrier = Barrier::new(2);
        let answers: Vec<QueryOutcome> = std::thread::scope(|scope| {
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        read()
                    })
                })
                .collect();
            readers
                .into_iter()
                .map(|reader| reader.join().expect("stale reader"))
                .collect()
        });
        let after = stats();
        assert_eq!(
            after.supported_patches - before.supported_patches,
            1,
            "round {round}"
        );
        assert_eq!(
            after.full_recomputes, before.full_recomputes,
            "round {round}"
        );
        assert_eq!(after.result_hits - before.result_hits, 1, "round {round}");
        assert_eq!(answers[0].epoch, answers[1].epoch);
        assert_eq!(answers[0].rows, answers[1].rows, "round {round}");
    }
}

#[test]
fn concurrent_stale_readers_of_one_statement_patch_it_once() {
    let db = workload().generate();
    let session = Session::with_instance(rs_catalog(), db.clone());
    let block = |round: usize| format!("zz{:02}", round / 2);
    two_stale_readers_patch_once(
        |round| {
            let y = if round % 2 == 0 { "y0" } else { "y1" };
            assert!(session.insert(fact!("R", block(round), y)).expect("insert"));
        },
        || session.execute(SQL).expect("stale read"),
        || session.stats(),
    );
    assert_eq!(
        session.execute(SQL).expect("final read").rows,
        cold_rows(&session.database())
    );

    // The sharded front-end's fan-out results, patched through the shards'
    // dirty logs, follow the same rule.
    let sharded = ShardedSession::new(rs_catalog(), 4);
    sharded.insert_all(db.facts().cloned()).expect("seed");
    let fanout = "SELECT S.Y, S.Z, MAX(S.Qty) FROM S GROUP BY S.Y, S.Z";
    two_stale_readers_patch_once(
        |round| {
            let qty = 100 + round as i64 % 2;
            assert!(sharded
                .insert(fact!("S", "y0", block(round), qty))
                .expect("insert"));
        },
        || sharded.execute(fanout).expect("stale fan-out read"),
        || sharded.stats().totals,
    );
    let reference = Session::with_instance(rs_catalog(), sharded.database().expect("union"));
    assert_eq!(
        sharded.execute(fanout).expect("final read").rows,
        reference.execute(fanout).expect("cold read").rows
    );
}
