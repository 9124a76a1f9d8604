//! The one-index-build-per-call invariant, asserted via the process-wide
//! [`DbIndex::build_count`] counter.
//!
//! These tests live in their own integration-test binary (one process) so
//! that no *other* test builds indexes concurrently while a counting section
//! runs; within the binary the tests serialise on a local mutex. The counter
//! being process-wide — an `AtomicU64`, not thread-local — is exactly what
//! lets the parallel-executor test below observe "the main thread built one
//! index and the worker threads built none".

use rcqa_core::engine::{EngineOptions, RangeCqa};
use rcqa_core::index::DbIndex;
use rcqa_data::{fact, DatabaseInstance, DeltaEvent, Schema, Signature};
use rcqa_query::parse_agg_query;
use std::sync::{Mutex, MutexGuard};

/// Serialises the counting sections of this binary's tests.
static COUNTER_LOCK: Mutex<()> = Mutex::new(());

/// Takes [`COUNTER_LOCK`]. The lock guards no data, so a test that failed
/// while holding it leaves nothing invalid behind: recover the guard, and one
/// failure stays one failure.
fn counting() -> MutexGuard<'static, ()> {
    COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn db_stock() -> DatabaseInstance {
    let schema = Schema::new()
        .with_relation("Dealers", Signature::new(2, 1, []).unwrap())
        .with_relation("Stock", Signature::new(3, 2, [2]).unwrap());
    let mut db = DatabaseInstance::new(schema);
    db.insert_all([
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
    db
}

#[test]
fn build_counter_increments_per_construction() {
    let _guard = counting();
    let db = db_stock();
    let before = DbIndex::build_count();
    let _a = DbIndex::new(&db);
    let _b = DbIndex::new(&db);
    assert_eq!(DbIndex::build_count() - before, 2);
}

#[test]
fn one_index_build_per_call() {
    let _guard = counting();
    // The invariant of the one-pass pipeline: each of glb, lub,
    // and range constructs exactly one DbIndex, even with GROUP BY. MAX is
    // rewriting-backed for both bounds; AVG (below) is exact-backed for
    // both, and walks each group's repairs over that one index.
    let db = db_stock();
    let q = parse_agg_query("(x, MAX(y)) <- Dealers(x, t), Stock(p, t, y)").unwrap();
    let engine = RangeCqa::new(&q, db.schema()).unwrap();

    let before = DbIndex::build_count();
    let glb = engine.glb(&db).unwrap();
    assert_eq!(
        DbIndex::build_count() - before,
        1,
        "glb must build exactly one index"
    );
    assert_eq!(glb.len(), 2);

    let before = DbIndex::build_count();
    let lub = engine.lub(&db).unwrap();
    assert_eq!(
        DbIndex::build_count() - before,
        1,
        "lub must build exactly one index"
    );
    assert_eq!(lub.len(), 2);

    let before = DbIndex::build_count();
    let ranges = engine.range(&db).unwrap();
    assert_eq!(
        DbIndex::build_count() - before,
        1,
        "range must build exactly one index"
    );
    assert_eq!(ranges.len(), 2);

    // The closed variant holds the invariant too.
    let q = parse_agg_query("SUM(y) <- Dealers('Smith', t), Stock(p, t, y)").unwrap();
    let engine = RangeCqa::new(&q, db.schema()).unwrap();
    let before = DbIndex::build_count();
    engine.glb(&db).unwrap();
    assert_eq!(DbIndex::build_count() - before, 1);

    let q = parse_agg_query("(x, AVG(y)) <- Dealers(x, t), Stock(p, t, y)").unwrap();
    let engine = RangeCqa::new(&q, db.schema()).unwrap();
    let before = DbIndex::build_count();
    let ranges = engine.range(&db).unwrap();
    assert_eq!(
        DbIndex::build_count() - before,
        1,
        "an exact-backed range must build exactly one index"
    );
    assert_eq!(ranges.len(), 2);
}

#[test]
fn apply_delta_is_maintenance_not_a_build() {
    let _guard = counting();
    // Incremental maintenance must not advance the build counter: that is
    // what lets a serving session answer N queries and absorb mutations with
    // exactly one observable construction.
    let mut db = db_stock();
    let mut index = DbIndex::new(&db);
    let before = DbIndex::build_count();
    let events = [
        DeltaEvent::insert(fact!("Dealers", "Lopez", "New York")),
        DeltaEvent::insert(fact!("Stock", "Tesla Z", "Boston", 50)),
        DeltaEvent::delete(fact!("Stock", "Tesla Y", "Boston", 35)),
    ];
    let dirty = index.apply_delta(&events);
    assert_eq!(dirty.len(), 3);
    assert_eq!(
        DbIndex::build_count() - before,
        0,
        "apply_delta must not count as an index build"
    );
    // The maintained index answers exactly like a cold rebuild would.
    for e in events {
        db.apply(e).unwrap();
    }
    let q = parse_agg_query("(x, MAX(y)) <- Dealers(x, t), Stock(p, t, y)").unwrap();
    let engine = RangeCqa::new(&q, db.schema()).unwrap();
    let maintained = engine.range_with_index(&db, &index).unwrap();
    let cold = engine.range_with_index(&db, &DbIndex::new(&db)).unwrap();
    assert_eq!(maintained, cold);
    assert_eq!(maintained.len(), 3);
}

#[test]
fn range_with_index_builds_nothing() {
    let _guard = counting();
    // The serving layer's entry point: evaluation over a caller-owned index
    // performs zero constructions, at every worker count.
    let db = db_stock();
    let index = DbIndex::new(&db);
    let q = parse_agg_query("(x, MAX(y)) <- Dealers(x, t), Stock(p, t, y)").unwrap();
    for threads in [1, 4] {
        let engine = RangeCqa::new(&q, db.schema())
            .unwrap()
            .with_options(EngineOptions { threads });
        let before = DbIndex::build_count();
        for _ in 0..5 {
            let ranges = engine.range_with_index(&db, &index).unwrap();
            assert_eq!(ranges.len(), 2);
        }
        assert_eq!(
            DbIndex::build_count() - before,
            0,
            "range_with_index at {threads} threads must build nothing"
        );
    }
}

#[test]
fn parallel_executor_workers_build_no_indexes() {
    let _guard = counting();
    // With the parallel executor fanned out over worker threads, the single
    // index is built on the calling thread and shared; the process-wide
    // counter must still report exactly one construction per call.
    let db = db_stock();
    let q = parse_agg_query("(x, MAX(y)) <- Dealers(x, t), Stock(p, t, y)").unwrap();
    for threads in [2, 4, 8] {
        let engine = RangeCqa::new(&q, db.schema())
            .unwrap()
            .with_options(EngineOptions { threads });
        let before = DbIndex::build_count();
        let ranges = engine.range(&db).unwrap();
        assert_eq!(
            DbIndex::build_count() - before,
            1,
            "range at {threads} threads must build exactly one index"
        );
        assert_eq!(ranges.len(), 2);
    }
}

#[test]
fn a_refused_exact_call_builds_no_per_repair_index() {
    let _guard = counting();
    // The exact fallback walks repairs over the caller's index and builds
    // none of its own; and it walks none before every requested group is
    // known to be within budget: the pre-pass counts repairs off block
    // sizes and refuses before the first repair of any group is walked.
    // James (2 repairs) precedes Smith — over budget once New York stocks 23
    // two-fact blocks more — in group-key order and is still never walked.
    let within = db_stock();
    let mut over = db_stock();
    for p in 0..23 {
        over.insert_all([
            fact!("Stock", format!("P{p:02}"), "New York", 1),
            fact!("Stock", format!("P{p:02}"), "New York", 2),
        ])
        .unwrap();
    }
    let q = parse_agg_query("(x, AVG(y)) <- Dealers(x, t), Stock(p, t, y)").unwrap();
    for threads in [1, 4] {
        let engine = RangeCqa::new(&q, within.schema())
            .unwrap()
            .with_options(EngineOptions { threads });
        let index = DbIndex::new(&over);
        let before = DbIndex::build_count();
        let refused = engine.range_with_index(&over, &index).unwrap_err();
        assert_eq!(
            refused.to_string(),
            "exact fallback unavailable: group (Smith): 24 blocks its \
             embeddings touch have 8388608 repairs, more than the maximum 4194304"
        );
        assert_eq!(
            DbIndex::build_count() - before,
            0,
            "a refusal at {threads} threads must build nothing"
        );
        // Within budget the same call walks the 2 + 8 repairs of the two
        // groups' closures without building an index.
        let index = DbIndex::new(&within);
        let before = DbIndex::build_count();
        let rows = engine.range_with_index(&within, &index).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(DbIndex::build_count() - before, 0);
    }
}
