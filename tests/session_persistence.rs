//! Structural-sharing persistence invariants of the serving session.
//!
//! PR 4's snapshot chain deep-cloned the whole instance and index per commit;
//! the structurally-shared rewrite derives successors by path-copying. These
//! tests pin down the correctness half of that bargain:
//!
//! * after **every** commit of a random interleaving of `insert`,
//!   `insert_all`, and `delete` batches, the warm snapshot's incrementally
//!   maintained index is *structurally identical* (block order, fact order,
//!   key and posting lookups) to a cold `DbIndex::new` over a reference
//!   `DatabaseInstance` fed the same events — never over the snapshot's own
//!   materialised instance, which is read back out of that very index — the
//!   commit's effectiveness flags equal the reference's
//!   `DatabaseInstance::apply`, and query answers are byte-identical to cold
//!   sessions at 1 and 4 executor threads;
//! * a relation can be emptied completely and repopulated without the warm
//!   index diverging from a cold rebuild (the old
//!   `DatabaseInstance::remove` left an empty relation entry behind);
//! * the same holds over histories long enough to split and merge the
//!   leaves of a two-column-key relation's block list and posting list;
//! * successor snapshots physically share index storage with their base for
//!   everything a batch does not touch — whole relations, and inside the
//!   written relation every leaf but the one the write lands in.

use proptest::prelude::*;
use rcqa::core::engine::EngineOptions;
use rcqa::core::index::DbIndex;
use rcqa::data::chunked::MIN_LEAF;
use rcqa::data::{fact, DatabaseInstance, DeltaEvent, Fact, Value};
use rcqa::query::{Catalog, TableDef};
use rcqa::session::Session;

/// `R(X, Y)` with key `X`; `S(Y, Z, Qty)` with key `(Y, Z)`, numeric `Qty`.
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

const GROUPED_MAX: &str = "SELECT R.X, MAX(S.Qty) FROM R, S WHERE R.Y = S.Y GROUP BY R.X";
/// The same join grouped by R's non-key column and by S's `Z`: a dirty R
/// block binds neither, so an R retraction's group is found only through the
/// retracted fact the dirty log keeps.
const GROUPED_BY_Y: &str = "SELECT R.Y, MAX(S.Qty) FROM R, S WHERE R.Y = S.Y GROUP BY R.Y";
const GROUPED_BY_Z: &str = "SELECT S.Z, MAX(S.Qty) FROM R, S WHERE R.Y = S.Y GROUP BY S.Z";

/// Small value domains so random draws collide: the same block gains several
/// facts, blocks empty out and reappear, and whole relations drain.
fn r_fact(draw: u64) -> Fact {
    let x = draw % 5;
    let y = (draw / 5) % 3;
    fact!("R", format!("x{x}"), format!("y{y}"))
}

fn s_fact(draw: u64) -> Fact {
    let y = draw % 3;
    let z = (draw / 3) % 3;
    let qty = 1 + 4 * ((draw / 9) % 3);
    Fact::new(
        "S",
        [
            Value::text(format!("y{y}")),
            Value::text(format!("z{z}")),
            Value::int(qty as i64),
        ],
    )
}

fn pool_fact(draw: u64) -> Fact {
    if draw.is_multiple_of(2) {
        r_fact(draw / 2)
    } else {
        s_fact(draw / 2)
    }
}

/// The full warm-vs-cold check after one commit: instance contents, index
/// structure against a cold build over the reference `mirror`, and answers
/// at two thread counts — of [`GROUPED_BY_Z`] only at every third epoch, so
/// that its patches span several commits' retractions.
fn assert_matches_cold(session: &Session, mirror: &DatabaseInstance) {
    let snapshot = session.snapshot();
    assert_eq!(
        **snapshot.db(),
        *mirror,
        "session instance diverged from the op-by-op mirror"
    );
    let mut statements = vec![GROUPED_MAX, GROUPED_BY_Y];
    if snapshot.epoch().is_multiple_of(3) {
        statements.push(GROUPED_BY_Z);
    }
    let warm: Vec<_> = statements
        .iter()
        .map(|sql| session.execute(sql).expect("warm execute").rows)
        .collect();
    snapshot
        .index()
        .expect("every snapshot holds an index")
        .assert_structurally_identical(&DbIndex::new(mirror));
    for threads in [1usize, 4] {
        let cold = Session::with_instance(rs_catalog(), snapshot.db().clone())
            .with_options(EngineOptions { threads });
        for (sql, warm) in statements.iter().zip(&warm) {
            assert_eq!(
                &cold.execute(sql).expect("cold execute").rows,
                warm,
                "{sql}: cold@{threads}T differs from the warm session"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random interleavings of single inserts, bulk batches, and deletes:
    /// after every commit the warm snapshot must be indistinguishable —
    /// structurally and answer-wise — from a cold start over the same data.
    #[test]
    fn random_interleavings_stay_identical_to_cold_rebuilds(
        ops in proptest::collection::vec((0u64..6, 0u64..1_000_000), 1..10),
    ) {
        let session = Session::new(rs_catalog());
        let mut mirror = DatabaseInstance::new(rs_catalog().schema());
        // Warm the index early so every subsequent commit exercises the
        // delta-replay path rather than deferring to a cold build.
        session.execute(GROUPED_MAX).expect("initial execute");
        for (op, draw) in ops {
            match op {
                // Single insert (R or S).
                0 | 1 => {
                    let f = pool_fact(draw);
                    let inserted = session.insert(f.clone()).expect("insert conforms");
                    prop_assert_eq!(inserted, mirror.insert(f).expect("mirror insert conforms"));
                }
                // Bulk batch: one atomic commit of 2..=17 facts — the shape
                // that used to trigger the drop-the-index fallback — through
                // the batch path `insert_all` wraps, flag by flag.
                2 | 3 => {
                    let batch: Vec<DeltaEvent> = (0..(2 + draw % 16))
                        .map(|i| DeltaEvent::insert(pool_fact(draw.wrapping_add(i * 37))))
                        .collect();
                    let flags = session.apply_batch(&batch).expect("batch conforms");
                    for (event, flag) in batch.into_iter().zip(flags) {
                        let applied = mirror.apply(event).expect("mirror batch conforms");
                        prop_assert_eq!(flag, applied.is_some());
                    }
                }
                // Single delete (present or not).
                4 => {
                    let f = pool_fact(draw);
                    let removed = session.delete(&f).unwrap();
                    prop_assert_eq!(removed, mirror.remove(&f));
                }
                // Drain one relation completely, one commit per fact: blocks
                // empty out one by one until the relation itself is gone.
                _ => {
                    let name = if draw % 2 == 0 { "R" } else { "S" };
                    let facts: Vec<Fact> = mirror.facts_of(name).cloned().collect();
                    for f in facts {
                        prop_assert!(session.delete(&f).unwrap());
                        prop_assert!(mirror.remove(&f));
                        assert_matches_cold(&session, &mirror);
                    }
                }
            }
            assert_matches_cold(&session, &mirror);
        }
    }
}

/// A fact of `S` from a domain wide enough (40 × 30 block keys) that a long
/// history spreads the block list over several leaves.
fn wide_s_fact(draw: u64) -> Fact {
    let y = draw % 40;
    let z = (draw / 40) % 30;
    let qty = 1 + 4 * ((draw / 1200) % 2);
    Fact::new(
        "S",
        [
            Value::text(format!("y{y:02}")),
            Value::text(format!("z{z:02}")),
            Value::int(qty as i64),
        ],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// At least `4 * MIN_LEAF` effective events on `S`, the relation with a
    /// two-column key: a growth phase that splits the leaves of its block
    /// list and of its posting list, then a shrink phase (deleting what the
    /// growth phase drew) that merges them again — in single commits and
    /// 16-event batches. Every value is first seen by a commit, so all of it
    /// runs on appended interner ids. The warm index (block order, row order,
    /// position-free postings, incrementally kept fact counts) is
    /// compared with a cold `DbIndex::new` every 64 commits, and answers with
    /// cold sessions at the turning point and the end.
    #[test]
    fn long_histories_on_a_two_column_key_stay_identical_to_cold_rebuilds(
        draws in proptest::collection::vec((0u8..8, 0u64..1_000_000), 3000..3400),
    ) {
        let session = Session::new(rs_catalog());
        let mut mirror = DatabaseInstance::new(rs_catalog().schema());
        let r_facts: Vec<Fact> =
            (0..40).map(|i| fact!("R", format!("x{i:02}"), format!("y{i:02}"))).collect();
        session.insert_all(r_facts.clone()).expect("R conforms");
        mirror.insert_all(r_facts).expect("mirror R conforms");
        session.execute(GROUPED_MAX).expect("initial execute");

        let half = draws.len() / 2;
        let leaves = |session: &Session| {
            let snapshot = session.snapshot();
            let index = snapshot.index().expect("warm session keeps its index");
            index.shared_leaves(index, "S").1
        };
        let (mut effective, mut commits, mut most_leaves) = (0usize, 0usize, 0usize);
        let mut i = 0;
        while i < draws.len() {
            let growing = i < half;
            // Growth: 7 in 8 events insert. Shrink: 7 in 8 delete a fact the
            // growth phase inserted.
            let event_at = |j: usize| {
                let (op, draw) = draws[j];
                match (growing, op != 0) {
                    (true, true) | (false, false) => DeltaEvent::insert(wide_s_fact(draw)),
                    (true, false) => DeltaEvent::delete(wide_s_fact(draw)),
                    (false, true) => DeltaEvent::delete(wide_s_fact(draws[j - half].1)),
                }
            };
            // Every fifth commit is a 16-event batch.
            let width = if commits % 5 == 4 { 16.min(draws.len() - i) } else { 1 };
            let batch: Vec<DeltaEvent> = (i..i + width).map(event_at).collect();
            i += width;
            let flags = session.apply_batch(&batch).expect("batch conforms");
            for (event, flag) in batch.into_iter().zip(flags) {
                let applied = mirror.apply(event).expect("mirror conforms").is_some();
                prop_assert_eq!(flag, applied);
                effective += usize::from(applied);
            }
            commits += 1;
            if commits % 64 == 0 {
                most_leaves = most_leaves.max(leaves(&session));
                let snapshot = session.snapshot();
                prop_assert_eq!(&**snapshot.db(), &mirror);
                snapshot
                    .index()
                    .expect("warm session keeps its index")
                    .assert_structurally_identical(&DbIndex::new(&mirror));
            }
            if i >= half && i - width < half {
                assert_matches_cold(&session, &mirror);
            }
        }
        assert_matches_cold(&session, &mirror);
        prop_assert!(effective >= 4 * MIN_LEAF, "only {} effective events", effective);
        prop_assert!(most_leaves >= 3, "the growth phase must split: {}", most_leaves);
        prop_assert!(
            leaves(&session) < most_leaves,
            "the shrink phase must merge: {} leaves, {} at most", leaves(&session), most_leaves
        );
    }
}

/// Appended interner ids: a session warmed over an existing instance holds a
/// sorted id prefix; every later insert of a *fresh* value appends an id at
/// the top, so raw id order no longer matches value order. This interleaving
/// deliberately inserts values that sort before and between the warm-up data
/// ("a…", "m…" against "x…"/"y…"), deletes across both generations, and
/// re-inserts a previously deleted fact (whose ids stay interned) — after
/// every commit the warm index must stay structurally identical to a cold
/// rebuild and answer-identical to cold sessions at 1 and 4 threads.
#[test]
fn appended_ids_from_out_of_order_inserts_stay_identical_to_cold() {
    let mut initial = DatabaseInstance::new(rs_catalog().schema());
    initial
        .insert_all([
            fact!("R", "x0", "y0"),
            fact!("R", "x1", "y1"),
            fact!("S", "y0", "z0", 5),
            fact!("S", "y1", "z1", 9),
        ])
        .unwrap();
    let session = Session::with_instance(rs_catalog(), initial.clone());
    let mut mirror = initial;
    // Warm the index: the interner's sorted prefix now covers exactly the
    // initial values, so everything below is appended-id territory.
    session.execute(GROUPED_MAX).expect("warm-up");

    let steps: Vec<(bool, Fact)> = vec![
        // Fresh R key sorting before every existing x value.
        (true, fact!("R", "a0", "y0")),
        // Fresh S block whose y sorts between nothing and y0's world — new
        // key component and new qty on the numeric column.
        (
            true,
            Fact::new("S", [Value::text("b0"), Value::text("z9"), Value::int(3)]),
        ),
        // Join the two fresh generations: an old key pointing at the new y.
        (true, fact!("R", "m5", "b0")),
        // Delete a warm-up-generation fact...
        (false, fact!("R", "x0", "y0")),
        // ...and an appended-generation one.
        (false, fact!("R", "a0", "y0")),
        // Re-insert it: both ids are already interned, nothing new appends.
        (true, fact!("R", "a0", "y0")),
        // One more fresh value after the delete churn.
        (
            true,
            Fact::new("S", [Value::text("b0"), Value::text("c1"), Value::int(11)]),
        ),
    ];
    for (is_insert, f) in steps {
        if is_insert {
            session.insert(f.clone()).expect("insert conforms");
            mirror.insert(f).expect("mirror insert conforms");
        } else {
            assert!(session.delete(&f).expect("delete runs"));
            assert!(mirror.remove(&f));
        }
        assert_matches_cold(&session, &mirror);
    }
}

/// The emptied-then-repopulated regression: incrementally maintaining an
/// index across "relation drains to zero facts, then refills" must land on
/// exactly the cold-rebuild structure. The old `DatabaseInstance::remove`
/// left an empty `relations` entry behind after the last fact died, so an
/// emptied instance compared unequal to a fresh one.
#[test]
fn emptied_and_repopulated_relation_matches_cold_rebuild() {
    let session = Session::new(rs_catalog());
    // The reference: the same events, applied to an instance.
    let mut reference = DatabaseInstance::new(rs_catalog().schema());
    let loaded = [
        fact!("R", "x0", "y0"),
        fact!("R", "x0", "y1"),
        fact!("R", "x1", "y2"),
        fact!("S", "y0", "z0", 5),
        fact!("S", "y1", "z0", 7),
        fact!("S", "y2", "z1", 9),
    ];
    session.insert_all(loaded.clone()).unwrap();
    reference.insert_all(loaded).unwrap();
    session.execute(GROUPED_MAX).unwrap();

    // Drain R fact by fact (through the delta path), then check structure.
    for f in [
        fact!("R", "x0", "y0"),
        fact!("R", "x0", "y1"),
        fact!("R", "x1", "y2"),
    ] {
        assert!(session.delete(&f).unwrap());
        assert!(reference.remove(&f));
    }
    let emptied = session.snapshot();
    assert_eq!(session.execute(GROUPED_MAX).unwrap().rows.len(), 0);
    emptied
        .index()
        .expect("warm session keeps its maintained index")
        .assert_structurally_identical(&DbIndex::new(&reference));
    // The emptied instance is indistinguishable from a never-populated one
    // holding only the surviving S facts.
    let mut expected = DatabaseInstance::new(rs_catalog().schema());
    expected
        .insert_all([
            fact!("S", "y0", "z0", 5),
            fact!("S", "y1", "z0", 7),
            fact!("S", "y2", "z1", 9),
        ])
        .unwrap();
    assert_eq!(**emptied.db(), expected);
    assert_eq!(reference, expected);

    // Repopulate and verify the maintained index again, plus answers.
    let refill = [fact!("R", "x7", "y0"), fact!("R", "x8", "y2")];
    session.insert_all(refill.clone()).unwrap();
    reference.insert_all(refill).unwrap();
    let refilled = session.snapshot();
    let rows = session.execute(GROUPED_MAX).unwrap().rows;
    assert_eq!(rows.len(), 2);
    refilled
        .index()
        .expect("warm session keeps its maintained index")
        .assert_structurally_identical(&DbIndex::new(&reference));
    assert_eq!(**refilled.db(), reference);
    let cold = Session::with_instance(rs_catalog(), refilled.db().clone());
    assert_eq!(cold.execute(GROUPED_MAX).unwrap().rows, rows);
}

/// Successor snapshots share index storage with their base for everything
/// the write batch does not touch — the cost model the serving layer's write
/// path is built on. (A snapshot keeps no instance to share: `db()` is read
/// back out of the index.)
#[test]
fn snapshots_share_untouched_relations_with_their_base() {
    let session = Session::new(rs_catalog());
    session
        .insert_all([
            fact!("R", "x0", "y0"),
            fact!("S", "y0", "z0", 5),
            fact!("S", "y0", "z1", 7),
        ])
        .unwrap();
    session.execute(GROUPED_MAX).unwrap();
    let base = session.snapshot();

    // A write to R shares S's index with the base snapshot.
    session.insert(fact!("R", "x1", "y0")).unwrap();
    let next = session.snapshot();
    let (base_idx, next_idx) = (base.index().unwrap(), next.index().unwrap());
    assert!(next_idx.shares_relation_storage(base_idx, "S"));
    assert!(!next_idx.shares_relation_storage(base_idx, "R"));

    // And both snapshots keep answering their own version of the data.
    assert_eq!(session.execute(GROUPED_MAX).unwrap().rows.len(), 2);
    let cold_base = Session::with_instance(rs_catalog(), base.db().clone());
    assert_eq!(cold_base.execute(GROUPED_MAX).unwrap().rows.len(), 1);
}

/// Inside the written relation sharing is leaf-granular: a single-fact
/// commit un-shares exactly one leaf of the relation's block list; a no-op
/// write publishes nothing.
#[test]
fn a_single_fact_commit_copies_one_leaf_of_the_written_relation() {
    let session = Session::new(rs_catalog());
    let r_facts: Vec<Fact> = (0..3000)
        .map(|i| fact!("R", format!("x{i:04}"), format!("y{}", i % 7)))
        .collect();
    let s_facts: Vec<Fact> = (0..7)
        .map(|y| {
            Fact::new(
                "S",
                [
                    Value::text(format!("y{y}")),
                    Value::text("z"),
                    Value::int(y),
                ],
            )
        })
        .collect();
    let mut reference = DatabaseInstance::new(rs_catalog().schema());
    session.insert_all(r_facts.clone()).unwrap();
    reference.insert_all(r_facts).unwrap();
    session.insert_all(s_facts.clone()).unwrap();
    reference.insert_all(s_facts).unwrap();
    session.execute(GROUPED_MAX).unwrap();
    let base = session.snapshot();
    let base_idx = base.index().unwrap();
    let (_, idx_leaves) = base_idx.shared_leaves(base_idx, "R");
    assert!(idx_leaves > 10, "{idx_leaves}");

    for event in [
        DeltaEvent::insert(fact!("R", "x1500a", "y0")),
        DeltaEvent::delete(fact!("R", "x0700", "y0")),
    ] {
        let before = session.snapshot();
        assert_eq!(
            session.apply_batch(std::slice::from_ref(&event)).unwrap(),
            [true]
        );
        assert!(reference.apply(event).unwrap().is_some());
        let next = session.snapshot();
        assert_eq!(
            next.index()
                .unwrap()
                .shared_leaves(before.index().unwrap(), "R"),
            (idx_leaves - 1, idx_leaves)
        );
        assert!(next
            .index()
            .unwrap()
            .shares_relation_storage(before.index().unwrap(), "S"));
        next.index()
            .unwrap()
            .assert_structurally_identical(&DbIndex::new(&reference));
    }

    // A no-op write (duplicate insert, absent delete) shares everything: no
    // successor is published at all.
    let before = session.snapshot();
    assert!(!session.insert(fact!("R", "x0001", "y1")).unwrap());
    assert!(!session.delete(&fact!("R", "nope", "y1")).unwrap());
    let after = session.snapshot();
    assert_eq!(after.epoch(), before.epoch());
    assert!(std::sync::Arc::ptr_eq(&after, &before));
    assert_eq!(**after.db(), reference);
}
