//! Sharded serving: route facts to N shards by level-0 block key, keep one
//! index and one write-ahead log over every shard's blocks, and coalesce
//! concurrent writers into group commits — with every answer byte-identical
//! to one unsharded session over the same facts, before and after a reopen
//! at another shard count.
//!
//! The session is durable, in a temporary directory: concurrent inserts are
//! group-committed to its one log, the session is dropped, the directory is
//! reopened at three shards, and the answers are compared with the ones
//! read before. The example exits non-zero on any mismatch.
//!
//! Run with: `cargo run --example sharded_serving`

use rcqa::data::fact;
use rcqa::query::{Catalog, TableDef};
use rcqa::session::{Session, ShardedSession};
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let catalog = Catalog::new().with_table(
        TableDef::new("Stock")
            .key_column("Product")
            .key_column("Town")
            .numeric_column("Qty"),
    );
    let dir = tempfile::TempDir::new().expect("a temporary directory");

    // Four shards behind one front-end. Facts route by a stable hash of
    // their block key (Product, Town), so each block — the unit the paper's
    // repairs choose from — belongs to exactly one shard; every block sits
    // in the session's one index, and every commit in its one log.
    let session =
        Arc::new(ShardedSession::open(catalog.clone(), dir.path(), 4).expect("open the directory"));

    // Concurrent writers: the store coalesces overlapping inserts into one
    // commit, one log record and one fsync (group commit), as it does for
    // any session.
    std::thread::scope(|scope| {
        for w in 0..4 {
            let session = Arc::clone(&session);
            scope.spawn(move || {
                for p in 0..8 {
                    let product = format!("Part-{w}{p}");
                    session
                        .insert(fact!("Stock", product.clone(), "Boston", 10 + w * 8 + p))
                        .expect("insert");
                    if p % 3 == 0 {
                        // A conflicting second quantity makes the block
                        // inconsistent: answers become [glb, lub] intervals.
                        session
                            .insert(fact!("Stock", product, "Boston", 50 + w))
                            .expect("insert");
                    }
                }
            });
        }
    });

    // Three uncontested bestsellers: their blocks are consistent and beat
    // every interval above, so the *certain* top-k below is non-empty. They
    // go in as one batch spanning shards: one commit, one log record.
    session
        .insert_all(
            ["Atlas", "Beacon", "Comet"]
                .iter()
                .enumerate()
                .map(|(i, product)| fact!("Stock", *product, "Boston", 900 + i as i32)),
        )
        .expect("insert_all");

    // A full-key GROUP BY over every shard's blocks, read from the one
    // index; the front-end keeps the result. The certain top-5 keeps only
    // groups in the top 5 of EVERY repair — the three bestsellers qualify;
    // the conflicted blocks' overlapping intervals leave ranks 4 and 5
    // uncertain, so they are (correctly) dropped.
    let top = "SELECT S.Product, S.Town, MAX(S.Qty) FROM Stock AS S \
               GROUP BY S.Product, S.Town ORDER BY MAX(S.Qty) DESC LIMIT 5";
    println!("{}", session.explain(top).expect("explain"));
    let top5 = session.execute(top).expect("top-k query");
    println!("{}", top5.to_table());

    // A subset-of-key GROUP BY draws each group's blocks from several
    // shards: the one index answers it like any other statement.
    let towns = "SELECT S.Town, SUM(S.Qty) FROM Stock AS S GROUP BY S.Town";
    println!(
        "{}",
        session.execute(towns).expect("per-town query").to_table()
    );

    // A write makes both cached answers stale; the next reads patch them
    // through the store's dirty log (SUM's upper bound enumerates repairs,
    // but only of the blocks a town's embeddings touch, so it patches like
    // any other) — or say why they could not.
    session
        .insert(fact!("Stock", "Atlas", "Boston", 905))
        .expect("insert");
    let before: Vec<_> = [top, towns]
        .iter()
        .map(|sql| session.execute(sql).expect("stale read").rows)
        .collect();

    let stats = session.stats();
    let reasons = session.patch_reasons();
    println!(
        "stale reads: patched={} missed={} | miss reasons: history-evicted={} over-half={}",
        stats.totals.supported_patches,
        stats.totals.support_misses,
        reasons.history_evicted,
        reasons.over_half
    );
    println!(
        "shards: {} | epoch frontier: {:?} (sum = {})",
        session.shard_count(),
        stats.epoch_frontier,
        session.epoch()
    );
    println!(
        "log appends: {} | group commits: {} batches / {} events",
        stats.totals.wal_appends, stats.group_commits, stats.group_commit_events
    );

    // Drop the session and reopen its directory at another shard count:
    // the directory is a session directory, whatever shard count wrote it.
    let epoch = session.epoch();
    drop(session);
    let reopened = ShardedSession::open(catalog.clone(), dir.path(), 3).expect("reopen");
    let mut mismatches = 0;
    if reopened.epoch() != epoch {
        eprintln!("reopened at epoch {}, not {epoch}", reopened.epoch());
        mismatches += 1;
    }
    // The sharding is invisible: the reopened session and an unsharded
    // session over the recovered facts answer as the session did before.
    let unsharded = Session::with_instance(catalog, reopened.database().expect("facts"));
    for (sql, rows) in [top, towns].iter().zip(&before) {
        let again = reopened.execute(sql).expect("reopened read").rows;
        let cold = unsharded.execute(sql).expect("unsharded read").rows;
        if again != *rows || cold != *rows {
            eprintln!("answers differ after the reopen: {sql}");
            mismatches += 1;
        }
    }
    println!(
        "reopened at {} shards, epoch {}: {}",
        reopened.shard_count(),
        reopened.epoch(),
        if mismatches == 0 {
            "every answer as before"
        } else {
            "ANSWERS DIFFER"
        }
    );
    if mismatches == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
