//! Recovery's two refusals of a checkpoint and log that disagree, by message.
//!
//! A store only checkpoints distinct facts and only logs effective events,
//! so recovery refuses what it could not have written:
//!
//! * a checkpoint holding a fact twice;
//! * a logged event that is a no-op over the checkpoint — here an insert of
//!   a fact the checkpoint already holds.
//!
//! Both are built by hand on [`MemStorage`] with [`Wal::append`] and
//! [`Wal::checkpoint`], and both must refuse as
//! [`WalError::Corrupt`] naming the checkpoint, not open a session.

use rcqa_data::{fact, DeltaEvent, Fact};
use rcqa_query::{Catalog, TableDef};
use rcqa_session::{Session, SessionError, SyncPolicy, WalOptions};
use rcqa_wal::{checkpoint_name, MemStorage, Wal, WalError};

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

fn options() -> WalOptions {
    WalOptions {
        sync: SyncPolicy::Never,
        checkpoint_every: 0,
    }
}

/// Logs `logged` as one batch ending at `checkpoint_at`, checkpoints
/// `checkpointed` there, then logs `tail` as one batch past it, and returns
/// the refusal of reopening the storage as a session: the corrupt file's
/// name and the detail.
fn refusal(
    logged: &[Fact],
    checkpointed: &[Fact],
    tail: &[Fact],
    checkpoint_at: u64,
) -> (String, String) {
    let mem = MemStorage::new();
    let (mut wal, _) = Wal::open(Box::new(mem.handle()), options()).expect("open");
    let inserts = |facts: &[Fact]| -> Vec<DeltaEvent> {
        facts.iter().cloned().map(DeltaEvent::insert).collect()
    };
    wal.append(checkpoint_at, &inserts(logged)).expect("append");
    wal.checkpoint(checkpoint_at, checkpointed.iter())
        .expect("checkpoint");
    if !tail.is_empty() {
        let epoch = checkpoint_at + tail.len() as u64;
        wal.append(epoch, &inserts(tail)).expect("append the tail");
    }
    wal.sync().expect("sync");
    drop(wal);
    match Session::open_storage(catalog(), Box::new(mem.handle()), options()) {
        Err(SessionError::Wal(WalError::Corrupt { file, detail, .. })) => (file, detail),
        Err(other) => panic!("expected Wal(Corrupt), got {other:?}"),
        Ok(_) => panic!("recovery opened a checkpoint and log that disagree"),
    }
}

#[test]
fn a_checkpoint_holding_a_fact_twice_is_refused() {
    let (r, s) = (fact!("R", "x1", "y1"), fact!("S", "y1", "z1", 5));
    let (file, detail) = refusal(&[r.clone(), s.clone()], &[s.clone(), r.clone(), s], &[], 2);
    assert_eq!(file, checkpoint_name(2));
    assert_eq!(detail, "checkpoint contains a duplicate fact");
}

#[test]
fn a_logged_insert_of_a_checkpointed_fact_is_refused() {
    let (r, s) = (fact!("R", "x1", "y1"), fact!("S", "y1", "z1", 5));
    let (file, detail) = refusal(
        &[r.clone(), s.clone()],
        &[r.clone(), s.clone()],
        &[fact!("R", "x2", "y2"), s],
        2,
    );
    assert_eq!(file, checkpoint_name(2));
    assert_eq!(
        detail,
        "replaying the log over the checkpoint: the event at epoch 4 \
         is a no-op, so checkpoint and log disagree"
    );
}
