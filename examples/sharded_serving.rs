//! Sharded serving: partition a serving session's write path — epochs and
//! write-ahead logs — across N shards by level-0 block key, keep one index
//! over every shard's blocks, and coalesce concurrent writers into group
//! commits — with every answer byte-identical to one unsharded session over
//! the same facts.
//!
//! Run with: `cargo run --example sharded_serving`

use rcqa::data::fact;
use rcqa::query::{Catalog, TableDef};
use rcqa::session::{Session, ShardedSession};
use std::sync::Arc;

fn main() {
    let catalog = Catalog::new().with_table(
        TableDef::new("Stock")
            .key_column("Product")
            .key_column("Town")
            .numeric_column("Qty"),
    );

    // Four shards behind one front-end. Facts route by a stable hash of
    // their block key (Product, Town), so each block — the unit the paper's
    // repairs choose from — belongs to exactly one shard's epoch and log;
    // every block sits in the session's one index.
    let session = Arc::new(ShardedSession::new(catalog.clone(), 4));

    // Concurrent writers: the commit coordinator coalesces overlapping
    // inserts into one commit and, on a durable session, one WAL append per
    // shard touched (group commit).
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
    // every interval above, so the *certain* top-k below is non-empty.
    for (i, product) in ["Atlas", "Beacon", "Comet"].iter().enumerate() {
        session
            .insert(fact!("Stock", *product, "Boston", 900 + i as i32))
            .expect("insert");
    }

    // A full-key GROUP BY over every shard's blocks, read from the one
    // index; the front-end keeps the result. The
    // certain top-5 keeps only groups in the top 5 of EVERY repair — the
    // three bestsellers qualify; the conflicted blocks' overlapping
    // intervals leave ranks 4 and 5 uncertain, so they are (correctly)
    // dropped.
    let top = "SELECT S.Product, S.Town, MAX(S.Qty) FROM Stock AS S \
                  GROUP BY S.Product, S.Town ORDER BY MAX(S.Qty) DESC LIMIT 5";
    println!("{}", session.explain(top).expect("explain"));
    let top5 = session.execute(top).expect("top-k query");
    println!("{}", top5.to_table());

    // A subset-of-key GROUP BY draws each group's blocks from several
    // shards: the one index answers it like any other statement.
    let towns = "SELECT S.Town, SUM(S.Qty) FROM Stock AS S GROUP BY S.Town";
    println!("{}", session.explain(towns).expect("explain"));
    println!(
        "{}",
        session.execute(towns).expect("per-town query").to_table()
    );

    // The sharding is invisible: an unsharded session over the same facts
    // answers identically, row for row.
    let unsharded = Session::with_instance(
        catalog,
        session.database().expect("union instance").as_ref().clone(),
    );
    assert_eq!(
        unsharded.execute(top).expect("unsharded").rows,
        top5.rows,
        "sharded answers must be byte-identical to unsharded"
    );

    // A write makes both cached answers stale; the next reads patch them
    // through the store's dirty log (SUM's upper bound enumerates repairs,
    // but only of the blocks a town's embeddings touch, so it patches like
    // any other) — or say why they could not.
    session
        .insert(fact!("Stock", "Atlas", "Boston", 905))
        .expect("insert");
    session.execute(top).expect("stale top-k read");
    session.execute(towns).expect("stale per-town read");

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
        "index builds: {} | group commits: {} batches / {} events",
        stats.totals.index_builds, stats.group_commits, stats.group_commit_events
    );
}
