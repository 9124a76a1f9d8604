//! A commit's effectiveness flags come from the index alone, and they are
//! the instance's.
//!
//! A snapshot keeps no `DatabaseInstance`: `Session::apply_batch` validates
//! inserts against the schema and the numeric domain, and the index decides
//! which events changed something (`DbIndex::apply_events`) — or, when the
//! snapshot's index is empty, a scratch instance does and the index is built
//! from it by one sort. Random batches go through `Session::apply_batch` and
//! through `DatabaseInstance::apply` on a reference instance, and after every
//! batch the flags, the epoch, the materialised instance and the index's
//! structure must agree with the reference. The batches hold:
//!
//! * a fact twice, and an insert followed by the delete of the same fact;
//! * deletes of absent facts, of never-interned values, of wrong-arity facts
//!   and of an unknown relation;
//! * now and then an ill-typed insert — text in the numeric column, or a
//!   negative quantity on the default domain — which must reject the whole
//!   batch and publish nothing.
//!
//! Three sessions run the same batches: a warm one (opened over facts, so
//! every batch is incremental), one opened empty (its first batch, and any
//! batch after the data drains, is a bulk load), and one over an
//! unconstrained-domain instance, where a negative quantity is well typed.
//! The sharded front-end, which validates a batch before it splits it across
//! shards, runs the non-negative batches as well.

use proptest::prelude::*;
use rcqa::core::index::DbIndex;
use rcqa::data::{fact, DatabaseInstance, DeltaEvent, Fact, Value};
use rcqa::query::{Catalog, TableDef};
use rcqa::session::{Session, SessionError, ShardedSession};

/// `R(X, Y)` with key `X`; `S(Y, Z, Qty)` with key `(Y, Z)`, numeric `Qty`.
fn catalog() -> Catalog {
    Catalog::new()
        .with_table(TableDef::new("R").key_column("X").column("Y"))
        .with_table(
            TableDef::new("S")
                .key_column("Y")
                .key_column("Z")
                .numeric_column("Qty"),
        )
}

/// Small domains, so draws collide: blocks gain facts, drain and return.
fn pool_fact(draw: u64) -> Fact {
    if draw.is_multiple_of(2) {
        let draw = draw / 2;
        fact!(
            "R",
            format!("x{}", draw % 5),
            format!("y{}", (draw / 5) % 3)
        )
    } else {
        let draw = draw / 2;
        Fact::new(
            "S",
            [
                Value::text(format!("y{}", draw % 3)),
                Value::text(format!("z{}", (draw / 3) % 2)),
                Value::int(1 + 4 * (draw / 6 % 3) as i64),
            ],
        )
    }
}

/// One drawn batch, as events.
fn batch(draws: &[(u8, u64)]) -> Vec<DeltaEvent> {
    let mut events = Vec::new();
    for &(kind, draw) in draws {
        let fact = pool_fact(draw);
        match kind {
            0..=3 => events.push(DeltaEvent::insert(fact)),
            4 | 5 => events.push(DeltaEvent::delete(fact)),
            // The same fact twice.
            6 => events.extend([DeltaEvent::insert(fact.clone()), DeltaEvent::insert(fact)]),
            // Insert, then delete, the same fact.
            7 => events.extend([DeltaEvent::insert(fact.clone()), DeltaEvent::delete(fact)]),
            // Deletes that name no stored fact: a never-interned value, the
            // wrong arity, an unknown relation.
            8 => events.extend([
                DeltaEvent::delete(fact!("R", format!("never{draw}"), "y0")),
                DeltaEvent::delete(fact!("R", "x0")),
                DeltaEvent::delete(fact!("S", "y0", "z0", 1, 2)),
                DeltaEvent::delete(fact!("T", "x0", "y0")),
            ]),
            // Text in the numeric column, ill-typed on every domain; or a
            // negative quantity, ill-typed on the default domain only.
            _ if draw.is_multiple_of(2) => {
                events.push(DeltaEvent::insert(fact!("S", "y0", "z0", "many")))
            }
            _ => events.push(DeltaEvent::insert(Fact::new(
                "S",
                [
                    Value::text(format!("y{}", draw % 3)),
                    Value::text("z0"),
                    Value::int(-((draw % 5) as i64) - 1),
                ],
            ))),
        }
    }
    events
}

/// A session's state against the reference after a batch.
fn assert_agrees(session: &Session, reference: &DatabaseInstance, epoch: u64) {
    let snapshot = session.snapshot();
    assert_eq!(snapshot.epoch(), epoch);
    assert_eq!(**snapshot.db(), *reference);
    snapshot
        .index()
        .expect("every snapshot holds an index")
        .assert_structurally_identical(&DbIndex::new(reference));
}

/// Runs `batches` through `session` (and `sharded`, when given) and a
/// reference instance, checking flags and state after every batch.
fn run(
    session: &Session,
    sharded: Option<&ShardedSession>,
    mut reference: DatabaseInstance,
    batches: &[Vec<(u8, u64)>],
) {
    let mut epoch = session.epoch();
    for draws in batches {
        let events = batch(draws);
        let mut next = reference.clone();
        let expected: Result<Vec<bool>, _> = events
            .iter()
            .map(|event| next.apply(event.clone()).map(|applied| applied.is_some()))
            .collect();
        let got = session.apply_batch(&events);
        match (&got, &expected) {
            (Ok(flags), Ok(expected)) => {
                prop_assert_eq!(flags, expected);
                epoch += flags.iter().filter(|&&flag| flag).count() as u64;
                reference = next;
            }
            (Err(SessionError::Data(_)), Err(_)) => {}
            _ => panic!("{events:?}: the session says {got:?}, the instance {expected:?}"),
        }
        assert_agrees(session, &reference, epoch);
        if let Some(sharded) = sharded {
            match (sharded.apply_batch(&events), &got) {
                (Ok(flags), Ok(got)) => prop_assert_eq!(&flags, got),
                (Err(SessionError::Data(_)), Err(_)) => {}
                (other, _) => panic!("{events:?}: the front-end says {other:?}, {got:?}"),
            }
            prop_assert_eq!(&*sharded.database().expect("pins"), &reference);
        }
    }
}

/// The batches of one case: up to five draws each; kind 9, the possibly
/// ill-typed insert, is one draw in ten.
fn batches() -> impl Strategy<Value = Vec<Vec<(u8, u64)>>> {
    proptest::collection::vec(
        proptest::collection::vec((0u8..10, 0u64..1_000), 1..6),
        1..12,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A warm session: opened over facts, so every batch is applied to the
    /// index incrementally.
    #[test]
    fn a_warm_sessions_flags_are_the_instances(batches in batches()) {
        let mut initial = DatabaseInstance::new(catalog().schema());
        initial
            .load((0..40).map(pool_fact).collect())
            .expect("well typed");
        let session = Session::with_instance(catalog(), initial.clone());
        assert_agrees(&session, &initial, 0);
        run(&session, None, initial, &batches);
    }

    /// A session opened empty: its first effective batch is a bulk load, as
    /// is every batch that finds the data drained; the sharded front-end
    /// takes the same batches.
    #[test]
    fn a_bulk_loaded_sessions_flags_are_the_instances(batches in batches()) {
        let session = Session::new(catalog());
        let sharded = ShardedSession::new(catalog(), 2);
        let reference = DatabaseInstance::new(catalog().schema());
        run(&session, Some(&sharded), reference, &batches);
    }

    /// An unconstrained numeric domain: a negative quantity is well typed,
    /// so those inserts commit instead of rejecting their batch.
    #[test]
    fn an_unconstrained_sessions_flags_are_the_instances(batches in batches()) {
        let reference = DatabaseInstance::new_unconstrained(catalog().schema());
        let session = Session::with_instance(catalog(), reference.clone());
        run(&session, None, reference, &batches);
    }
}

/// A negative quantity rejects its batch on the default domain and commits
/// on the unconstrained one.
#[test]
fn negative_quantities_split_the_domains() {
    let negative = DeltaEvent::insert(fact!("S", "y0", "z0", -1));
    let bounded = Session::new(catalog());
    assert!(matches!(
        bounded.apply_batch(&[DeltaEvent::insert(fact!("R", "x0", "y0")), negative.clone()]),
        Err(SessionError::Data(_))
    ));
    assert_eq!(bounded.epoch(), 0);
    let open = Session::with_instance(
        catalog(),
        DatabaseInstance::new_unconstrained(catalog().schema()),
    );
    assert_eq!(open.apply_batch(&[negative]).unwrap(), [true]);
    assert_eq!(open.database().len(), 1);
}
