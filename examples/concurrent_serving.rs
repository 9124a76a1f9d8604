//! Concurrent serving: one durable session shared by writer threads, whose
//! stale reads patch their cached results, and whose directory reopens with
//! the same answers.
//!
//! The session lives in a temporary directory. Four threads insert
//! concurrently, and the store coalesces writers that overlap into one
//! commit, one log record and one fsync (group commit). Two statements are
//! read, a write makes both stale, and the next reads patch them through the
//! store's dirty log. Then the session is dropped and the directory reopened.
//! The patched answers, a cold session over the same facts and the reopened
//! session must all agree. The example exits non-zero on any mismatch.
//!
//! Run with: `cargo run --example concurrent_serving`

use rcqa::data::fact;
use rcqa::query::{Catalog, TableDef};
use rcqa::session::Session;
use std::process::ExitCode;

fn main() -> ExitCode {
    let catalog = Catalog::new().with_table(
        TableDef::new("Stock")
            .key_column("Product")
            .key_column("Town")
            .numeric_column("Qty"),
    );
    let dir = tempfile::TempDir::new().expect("a temporary directory");
    let session = Session::open(catalog.clone(), dir.path()).expect("open the directory");

    // Concurrent writers share the session by reference.
    std::thread::scope(|scope| {
        for w in 0..4 {
            let session = &session;
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
    // go in as one batch: one commit, one log record.
    session
        .insert_all(
            ["Atlas", "Beacon", "Comet"]
                .iter()
                .enumerate()
                .map(|(i, product)| fact!("Stock", *product, "Boston", 900 + i as i32)),
        )
        .expect("insert_all");

    // The certain top-5 keeps only groups in the top 5 of EVERY repair: the
    // three bestsellers qualify; the conflicted blocks' overlapping intervals
    // leave ranks 4 and 5 uncertain, so they are (correctly) dropped.
    let top = "SELECT S.Product, S.Town, MAX(S.Qty) FROM Stock AS S \
               GROUP BY S.Product, S.Town ORDER BY MAX(S.Qty) DESC LIMIT 5";
    let towns = "SELECT S.Town, SUM(S.Qty) FROM Stock AS S GROUP BY S.Town";
    println!("{}", session.explain(top).expect("explain"));
    for sql in [top, towns] {
        println!("{}", session.execute(sql).expect("read").to_table());
    }

    // A write makes both cached answers stale; the next reads patch them
    // through the store's dirty log (SUM's upper bound enumerates repairs,
    // but only of the blocks a town's embeddings touch, so it patches like
    // any other) — or say why they could not.
    session
        .insert(fact!("Stock", "Atlas", "Boston", 905))
        .expect("insert");
    let stale: Vec<_> = [top, towns]
        .iter()
        .map(|sql| session.execute(sql).expect("stale read").rows)
        .collect();

    let stats = session.stats();
    let reasons = session.patch_reasons();
    println!(
        "stale reads: patched={} missed={} | miss reasons: history-evicted={} over-half={}",
        stats.supported_patches, stats.support_misses, reasons.history_evicted, reasons.over_half
    );
    println!(
        "epoch {} | log appends: {} | group commits: {} ({} events)",
        session.epoch(),
        stats.wal_appends,
        stats.batched_commits,
        stats.batched_events
    );

    let mut mismatches = 0;
    let cold = Session::with_instance(catalog.clone(), session.database());
    for (sql, rows) in [top, towns].iter().zip(&stale) {
        if cold.execute(sql).expect("cold read").rows != *rows {
            eprintln!("a patched answer differs from a cold read: {sql}");
            mismatches += 1;
        }
    }

    // Drop the session and reopen its directory: recovery replays the log.
    let epoch = session.epoch();
    drop(session);
    let reopened = Session::open(catalog, dir.path()).expect("reopen");
    if reopened.epoch() != epoch {
        eprintln!("reopened at epoch {}, not {epoch}", reopened.epoch());
        mismatches += 1;
    }
    for (sql, rows) in [top, towns].iter().zip(&stale) {
        if reopened.execute(sql).expect("reopened read").rows != *rows {
            eprintln!("answers differ after the reopen: {sql}");
            mismatches += 1;
        }
    }
    println!(
        "reopened at epoch {}: {}",
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
