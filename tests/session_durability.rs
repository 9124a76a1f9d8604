//! Crash-recovery invariants of the durable serving session.
//!
//! The WAL's unit tests pin down record-level parsing; these tests drive the
//! whole stack — `Session::commit` appending to the log, a simulated crash
//! (the storage map is cut at an arbitrary byte offset), and
//! `Session::open_storage` replaying checkpoint + tail — and assert the
//! recovery contract:
//!
//! * the recovered instance is exactly the state after some **prefix of the
//!   committed batches** (a crash can cost an unsynced suffix, never tear a
//!   batch or leave a gap), and its query answers are byte-identical to a
//!   cold in-memory session over that prefix at 1 and 4 executor threads;
//! * *interior* corruption — damage before the tail — refuses recovery with
//!   [`rcqa::wal::WalError::Corrupt`] instead of silently dropping history;
//! * an append failure degrades gracefully: the commit errors (with the
//!   `std::io::Error` chained via `source()`), nothing is published, and
//!   the session keeps serving reads of the last committed snapshot;
//! * checkpoints are published atomically and prune covered segments
//!   without ever stranding a retained checkpoint's replay chain;
//! * a checkpoint, encoded straight from the index's columns, is byte for
//!   byte the encoding of a reference instance fed the same events, and
//!   recovery from a checkpoint plus a log tail builds an index structurally
//!   identical to a cold build over that reference;
//! * a checkpoint is written off the commit path: while its thread is parked
//!   inside `write_atomic`, commits complete and are readable, a second due
//!   checkpoint is skipped, and a crash recovers every acknowledged commit
//!   from the older checkpoint plus the log; `sync` and drop wait for it.

use proptest::prelude::*;
use rcqa::core::engine::EngineOptions;
use rcqa::core::index::DbIndex;
use rcqa::data::{fact, DatabaseInstance, DeltaEvent, Fact, Value};
use rcqa::query::{Catalog, TableDef};
use rcqa::session::{Session, SessionError, SyncPolicy, WalOptions};
use rcqa::wal::record::write_checkpoint;
use rcqa::wal::storage::StreamBytes;
use rcqa::wal::{
    checkpoint_name, segment_name, FailingStorage, MemStorage, Wal, WalError, WalStorage,
};
use std::io;
use std::sync::{Arc, Condvar, Mutex};

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

/// Small value domains so random draws collide: inserts become duplicates,
/// deletes hit present facts, and batches mix effective and no-op events.
fn pool_fact(draw: u64) -> Fact {
    if draw.is_multiple_of(2) {
        let draw = draw / 2;
        let x = draw % 5;
        let y = (draw / 5) % 3;
        fact!("R", format!("x{x}"), format!("y{y}"))
    } else {
        let draw = draw / 2;
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
}

/// In-memory WAL options for crash tests: no fsync gating (MemStorage's
/// "disk" is the map itself) and no checkpoints unless a test wants them.
fn mem_options() -> WalOptions {
    WalOptions {
        sync: SyncPolicy::Never,
        checkpoint_every: 0,
    }
}

/// Asserts the recovered session's answers equal a cold in-memory session
/// over the same instance at 1 and 4 executor threads.
fn assert_answers_match_cold(recovered: &Session, expected: &Arc<DatabaseInstance>) {
    let warm = recovered.execute(GROUPED_MAX).expect("recovered execute");
    for threads in [1usize, 4] {
        let cold = Session::with_instance(rs_catalog(), expected.clone())
            .with_options(EngineOptions { threads });
        assert_eq!(
            cold.execute(GROUPED_MAX).expect("cold execute").rows,
            warm.rows,
            "cold@{threads}T differs from the recovered session"
        );
    }
}

#[test]
fn durable_session_roundtrips_through_a_real_directory() {
    let dir = tempfile::TempDir::new().expect("tempdir");
    let (epoch, rows) = {
        let session = Session::open(rs_catalog(), dir.path()).expect("open");
        assert!(session.is_durable());
        assert_eq!(session.epoch(), 0);
        session
            .insert_all([
                fact!("R", "x1", "y1"),
                fact!("R", "x2", "y2"),
                fact!("S", "y1", "z1", 5),
                fact!("S", "y2", "z1", 9),
            ])
            .expect("insert_all");
        assert!(session.delete(&fact!("R", "x2", "y2")).expect("delete"));
        assert_eq!(session.epoch(), 5);
        assert_eq!(session.durable_epoch(), Some(5), "Always syncs per commit");
        (
            session.epoch(),
            session.execute(GROUPED_MAX).expect("execute").rows,
        )
    };

    let session = Session::open(rs_catalog(), dir.path()).expect("reopen");
    assert_eq!(session.epoch(), epoch, "epoch survives restart");
    assert_eq!(
        session.execute(GROUPED_MAX).expect("execute").rows,
        rows,
        "answers survive restart"
    );
    // And the recovered session keeps committing where it left off.
    session.insert(fact!("R", "x9", "y1")).expect("insert");
    assert_eq!(session.epoch(), epoch + 1);
}

/// Interleaved inserts and deletes across a restart: the pre-crash warm
/// session interned its values in commit order (appended ids on top of the
/// initial sorted prefix), while recovery replays the WAL into a fresh
/// session whose id layout is built from scratch. The two layouts are
/// legitimately different — the contract is that answers are byte-identical
/// anyway, warm vs recovered vs cold, at 1 and 4 executor threads.
#[test]
fn recovery_after_interleaved_out_of_order_writes_matches_warm_answers() {
    let mem = MemStorage::new();
    let warm_rows = {
        let session = Session::open_storage(rs_catalog(), Box::new(mem.handle()), mem_options())
            .expect("open");
        // Warm the index first so the interleaving runs on the delta path.
        session.execute(GROUPED_MAX).expect("warm-up");
        // Inserts arrive in anti-sorted order ("x…" before "a…"), so the
        // warm session's appended ids invert value order; deletes hit both
        // generations, and one deleted fact is re-inserted.
        session.insert(fact!("R", "x5", "y1")).expect("insert");
        session
            .insert_all([
                fact!("S", "y1", "z1", 9),
                fact!("R", "m3", "y1"),
                Fact::new("S", [Value::text("b0"), Value::text("z0"), Value::int(4)]),
            ])
            .expect("batch");
        session.insert(fact!("R", "a0", "b0")).expect("insert");
        assert!(session.delete(&fact!("R", "m3", "y1")).expect("delete"));
        session.insert(fact!("R", "m3", "b0")).expect("insert");
        assert!(session.delete(&fact!("R", "x5", "y1")).expect("delete"));
        session.sync().expect("sync");
        session.execute(GROUPED_MAX).expect("warm execute").rows
    };

    let recovered = Session::open_storage(rs_catalog(), Box::new(mem.handle()), mem_options())
        .expect("recover");
    assert_eq!(
        recovered
            .execute(GROUPED_MAX)
            .expect("recovered execute")
            .rows,
        warm_rows,
        "recovered answers differ from the pre-crash warm session"
    );
    assert_answers_match_cold(&recovered, &recovered.database());

    // The recovered session keeps interleaving — and a second recovery over
    // the longer log still agrees with it.
    recovered.insert(fact!("R", "a1", "y1")).expect("insert");
    assert!(recovered.delete(&fact!("R", "a0", "b0")).expect("delete"));
    let warm_rows = recovered.execute(GROUPED_MAX).expect("execute").rows;
    drop(recovered);
    let again = Session::open_storage(rs_catalog(), Box::new(mem.handle()), mem_options())
        .expect("recover again");
    assert_eq!(again.execute(GROUPED_MAX).expect("execute").rows, warm_rows);
    assert_answers_match_cold(&again, &again.database());
}

#[test]
fn torn_tail_recovers_the_committed_prefix_and_serves_on() {
    let mem = MemStorage::new();
    let session =
        Session::open_storage(rs_catalog(), Box::new(mem.handle()), mem_options()).expect("open");
    session.insert(fact!("R", "x1", "y1")).expect("insert");
    session.insert(fact!("S", "y1", "z1", 5)).expect("insert");
    drop(session);

    // Crash mid-append: cut the segment a few bytes short of the second
    // record's end.
    let name = segment_name(0);
    let bytes = mem.file(&name).expect("segment exists");
    mem.set_file(&name, bytes[..bytes.len() - 3].to_vec());

    let session =
        Session::open_storage(rs_catalog(), Box::new(mem.handle()), mem_options()).expect("reopen");
    assert_eq!(session.epoch(), 1, "only the first commit survives");
    assert!(session.database().contains(&fact!("R", "x1", "y1")));
    assert!(!session.database().contains(&fact!("S", "y1", "z1", 5)));

    // The recovered session accepts new commits, and *they* survive too.
    session.insert(fact!("S", "y1", "z1", 7)).expect("insert");
    drop(session);
    let session =
        Session::open_storage(rs_catalog(), Box::new(mem.handle()), mem_options()).expect("reopen");
    assert_eq!(session.epoch(), 2);
    assert!(session.database().contains(&fact!("S", "y1", "z1", 7)));

    drop(session);

    // A batch of several events — inserts into both relations and a delete
    // of a seeded fact — is one record. Torn at any byte, by a crash or by
    // storage that takes only that many of its bytes, it recovers whole or
    // not at all, and an append the storage refused publishes nothing.
    let reopen = |storage: Box<dyn WalStorage>| {
        Session::open_storage(rs_catalog(), storage, mem_options()).expect("recover")
    };
    let disk = MemStorage::new();
    let session = reopen(Box::new(disk.handle()));
    session
        .insert_all([fact!("R", "x1", "y1"), fact!("S", "y1", "z1", 5)])
        .expect("seed");
    let batch = [
        DeltaEvent::insert(fact!("R", "x2", "y1")),
        DeltaEvent::insert(fact!("S", "y2", "z1", 3)),
        DeltaEvent::insert(fact!("R", "x3", "y2")),
        DeltaEvent::delete(fact!("R", "x1", "y1")),
    ];
    let before = disk.file(&name).expect("the seed is logged");
    let base = session.database();
    assert_eq!(session.apply_batch(&batch).expect("batch"), [true; 4]);
    let after = session.database();
    let full = disk.file(&name).expect("the batch is logged");
    let record = full.len() - before.len();
    drop(session);
    for cut in 0..=record {
        let whole = cut == record;
        let want = if whole { &after } else { &base };
        let crashed = MemStorage::new();
        crashed.set_file(&name, full[..before.len() + cut].to_vec());
        let recovered = reopen(Box::new(crashed.handle()));
        assert_eq!(*recovered.database(), **want, "crash at byte {cut}");
        assert_answers_match_cold(&recovered, want);
        let image = MemStorage::new();
        image.set_file(&name, before.clone());
        let failing = FailingStorage::new(image.handle()).with_byte_budget(cut as u64);
        let live = reopen(Box::new(failing));
        let committed = live.apply_batch(&batch);
        assert_eq!(committed.is_ok(), whole, "budget {cut}");
        if !whole {
            assert!(matches!(committed, Err(SessionError::Io(_))));
            assert_eq!(live.epoch(), 2);
        }
        assert_eq!(*live.database(), **want, "budget {cut}");
        drop(live);
        let recovered = reopen(Box::new(image.handle()));
        assert_eq!(*recovered.database(), **want, "reopen after budget {cut}");
    }
}

#[test]
fn interior_corruption_is_refused_not_truncated() {
    let mem = MemStorage::new();
    let session =
        Session::open_storage(rs_catalog(), Box::new(mem.handle()), mem_options()).expect("open");
    session.insert(fact!("R", "x1", "y1")).expect("insert");
    session.insert(fact!("R", "x2", "y2")).expect("insert");
    drop(session);

    // Flip one byte inside the FIRST record while a valid record follows:
    // that is interior damage, not a crash artefact.
    let name = segment_name(0);
    let mut bytes = mem.file(&name).expect("segment exists");
    bytes[10] ^= 0x40;
    mem.set_file(&name, bytes);

    let err = Session::open_storage(rs_catalog(), Box::new(mem.handle()), mem_options())
        .expect_err("interior corruption must refuse recovery");
    match err {
        SessionError::Wal(WalError::Corrupt { file, .. }) => assert_eq!(file, name),
        other => panic!("expected Wal(Corrupt), got {other:?}"),
    }
}

#[test]
fn append_failure_degrades_writes_but_never_reads() {
    // Seed some committed state.
    let mem = MemStorage::new();
    let session =
        Session::open_storage(rs_catalog(), Box::new(mem.handle()), mem_options()).expect("open");
    session.insert(fact!("R", "x1", "y1")).expect("insert");
    session.insert(fact!("S", "y1", "z1", 5)).expect("insert");
    let rows = session.execute(GROUPED_MAX).expect("execute").rows;
    drop(session);

    // Remount on storage that tears the next write after 4 bytes.
    let failing = FailingStorage::new(mem.handle()).with_byte_budget(4);
    let session =
        Session::open_storage(rs_catalog(), Box::new(failing), mem_options()).expect("recover");
    assert_eq!(session.epoch(), 2);

    let err = session
        .insert(fact!("R", "x7", "y2"))
        .expect_err("append must fail");
    assert!(matches!(err, SessionError::Io(_)), "got {err:?}");
    let source = std::error::Error::source(&err).expect("Io chains its source");
    assert!(source.downcast_ref::<std::io::Error>().is_some());

    // Nothing was published: the failed fact is invisible, answers are
    // unchanged, and reads keep working.
    assert_eq!(session.epoch(), 2);
    assert!(!session.database().contains(&fact!("R", "x7", "y2")));
    assert_eq!(session.execute(GROUPED_MAX).expect("execute").rows, rows);

    // A no-op commit (deleting an absent fact) logs nothing, so it still
    // succeeds even on dead storage.
    assert!(!session.delete(&fact!("R", "nope", "y1")).expect("no-op"));

    // The torn prefix was rolled back: the log still recovers to exactly
    // the acknowledged state.
    let session =
        Session::open_storage(rs_catalog(), Box::new(mem.handle()), mem_options()).expect("reopen");
    assert_eq!(session.epoch(), 2);
    assert_eq!(session.execute(GROUPED_MAX).expect("execute").rows, rows);
}

#[test]
fn checkpoints_prune_the_log_and_recover_atomically() {
    let mem = MemStorage::new();
    let options = WalOptions {
        sync: SyncPolicy::Always,
        checkpoint_every: 3,
    };
    let session =
        Session::open_storage(rs_catalog(), Box::new(mem.handle()), options).expect("open");
    let mut mirror = DatabaseInstance::new(rs_catalog().schema());
    for draw in 0..20u64 {
        let f = pool_fact(draw * 3);
        session.insert(f.clone()).expect("insert");
        mirror.insert(f).expect("mirror insert");
        // Finish the checkpoint the insert may have started, so the next
        // due one is not skipped while it is in flight.
        session.sync().expect("sync");
    }
    let stats = session.stats();
    assert!(stats.checkpoints >= 2, "stats: {stats:?}");
    assert_eq!(stats.checkpoint_failures, 0);
    let epoch = session.epoch();
    drop(session);

    // Early segments were pruned once checkpoints covered them...
    assert!(
        mem.file(&segment_name(0)).is_none(),
        "the initial segment should have been evicted"
    );
    // ...and recovery over checkpoint + tail reproduces the exact state.
    let session =
        Session::open_storage(rs_catalog(), Box::new(mem.handle()), options).expect("reopen");
    assert_eq!(session.epoch(), epoch);
    assert_eq!(**session.snapshot().db(), mirror);
    assert_answers_match_cold(&session, &Arc::new(mirror));
}

/// Recovery indexes the checkpoint's facts and the log tail's, and the facts
/// materialised back out of that index — [`Session::database`] — carry the
/// schema's own relation name, so a materialised fact keeps no name
/// allocation of its own.
#[test]
fn recovered_facts_share_the_schemas_relation_names() {
    let mem = MemStorage::new();
    let options = WalOptions {
        sync: SyncPolicy::Always,
        checkpoint_every: 3,
    };
    let session =
        Session::open_storage(rs_catalog(), Box::new(mem.handle()), options).expect("open");
    let facts = [
        fact!("R", "x1", "y1"),
        fact!("S", "y1", "z1", 5),
        fact!("R", "x2", "y2"),
        // Past the checkpoint at epoch 3: recovered by replaying the log.
        fact!("S", "y2", "z1", 9),
    ];
    for f in &facts {
        assert!(session.insert(f.clone()).expect("insert"));
    }
    assert_eq!(session.stats().checkpoints, 1);
    drop(session);
    let session =
        Session::open_storage(rs_catalog(), Box::new(mem.handle()), options).expect("reopen");
    let db = session.database();
    assert_eq!(db.len(), facts.len());
    for f in db.facts() {
        let name = db.schema().intern(f.relation()).expect("declared");
        assert!(Arc::ptr_eq(f.relation_name(), &name), "{f}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random batches — fresh values among them, so the warm interner
    /// appends ids out of value order — commit to a durable session that
    /// checkpoints every few epochs, and to a reference instance. Every
    /// checkpoint file is the byte-for-byte encoding of the reference's
    /// facts at its epoch. Recovery then replays the newest checkpoint plus
    /// the tail: its one index build is structurally identical to a cold
    /// build over the reference, and so are its materialised facts.
    #[test]
    fn checkpoints_and_recovery_from_the_index_match_a_reference_instance(
        batches in proptest::collection::vec(
            proptest::collection::vec((0u8..4, 0u64..1_000_000), 1..5),
            4..16,
        ),
    ) {
        let mem = MemStorage::new();
        let options = WalOptions {
            sync: SyncPolicy::Never,
            checkpoint_every: 5,
        };
        let mut reference = DatabaseInstance::new(rs_catalog().schema());
        let session =
            Session::open_storage(rs_catalog(), Box::new(mem.handle()), options).expect("open");
        let (mut checked, mut epoch) = (0, 0);
        for draws in &batches {
            let events: Vec<DeltaEvent> = draws
                .iter()
                .map(|&(kind, draw)| match kind {
                    0 => DeltaEvent::delete(pool_fact(draw)),
                    // A value no earlier commit has seen.
                    1 => DeltaEvent::insert(fact!("R", format!("fresh{draw}"), "y0")),
                    _ => DeltaEvent::insert(pool_fact(draw)),
                })
                .collect();
            let flags = session.apply_batch(&events).expect("well typed");
            for (event, flag) in events.into_iter().zip(flags) {
                prop_assert_eq!(flag, reference.apply(event).expect("well typed").is_some());
            }
            let before = std::mem::replace(&mut epoch, session.epoch());
            if epoch == before {
                continue;
            }
            // The checkpoint the commit started is written off the commit
            // path; `sync` waits for it to be published.
            session.sync().expect("sync");
            if let Some(written) = mem.file(&checkpoint_name(epoch)) {
                let mut encoded = std::io::Cursor::new(Vec::new());
                write_checkpoint(epoch, reference.facts(), &mut encoded).expect("in memory");
                prop_assert!(written == encoded.into_inner(), "checkpoint at epoch {}", epoch);
                checked += 1;
            }
        }
        prop_assert_eq!(session.stats().checkpoints, checked);
        drop(session);
        let recovered =
            Session::open_storage(rs_catalog(), Box::new(mem.handle()), options).expect("reopen");
        let snapshot = recovered.snapshot();
        snapshot
            .index()
            .expect("every snapshot holds an index")
            .assert_structurally_identical(&DbIndex::new(&reference));
        prop_assert_eq!(&**snapshot.db(), &reference);
        prop_assert_eq!(recovered.stats().index_builds, u64::from(!reference.is_empty()));
    }

    /// The central crash-recovery property. A random interleaving of
    /// `insert`, `insert_all`, and `delete` commits runs against a durable
    /// session; the WAL is then killed at an **arbitrary byte offset** and
    /// the session reopened. The recovered state must be exactly the state
    /// after a prefix of the committed batches (whole batches, in order),
    /// and its answers byte-identical to a cold in-memory session over that
    /// prefix at 1 and 4 executor threads.
    #[test]
    fn crash_at_any_byte_offset_recovers_a_committed_batch_prefix(
        ops in proptest::collection::vec((0u64..6, 0u64..1_000_000), 1..10),
        cut_frac in 0u64..10_000,
    ) {
        let mem = MemStorage::new();
        let session =
            Session::open_storage(rs_catalog(), Box::new(mem.handle()), mem_options())
                .expect("open");
        // The test's own log mirror: every *effective* event, in commit
        // order, plus the cumulative count at each commit boundary.
        let mut log: Vec<DeltaEvent> = Vec::new();
        let mut boundaries: Vec<usize> = vec![0];
        let mut mirror = DatabaseInstance::new(rs_catalog().schema());
        for (op, draw) in ops {
            match op {
                0 | 1 => {
                    let f = pool_fact(draw);
                    session.insert(f.clone()).expect("insert conforms");
                    if mirror.insert(f.clone()).expect("mirror insert") {
                        log.push(DeltaEvent::insert(f));
                    }
                }
                2 | 3 => {
                    let batch: Vec<Fact> = (0..(2 + draw % 16))
                        .map(|i| pool_fact(draw.wrapping_add(i * 37)))
                        .collect();
                    session.insert_all(batch.clone()).expect("batch conforms");
                    for f in batch {
                        if mirror.insert(f.clone()).expect("mirror insert") {
                            log.push(DeltaEvent::insert(f));
                        }
                    }
                }
                _ => {
                    let f = pool_fact(draw);
                    let removed = session.delete(&f).expect("delete");
                    prop_assert_eq!(removed, mirror.remove(&f));
                    if removed {
                        log.push(DeltaEvent::delete(f));
                    }
                }
            }
            if boundaries.last() != Some(&log.len()) {
                boundaries.push(log.len());
            }
            prop_assert_eq!(session.epoch() as usize, log.len());
        }
        drop(session);

        // Crash: cut the (single) segment at an arbitrary byte offset.
        let name = segment_name(0);
        let bytes = mem.file(&name).unwrap_or_default();
        let cut = (bytes.len() * cut_frac as usize) / 10_000;
        mem.set_file(&name, bytes[..cut].to_vec());

        let recovered =
            Session::open_storage(rs_catalog(), Box::new(mem.handle()), mem_options())
                .expect("a cut tail is a torn tail: recovery must succeed");
        let survived = recovered.epoch() as usize;
        prop_assert!(
            boundaries.contains(&survived),
            "recovered epoch {} is not a commit boundary ({:?})",
            survived,
            boundaries
        );

        // Rebuild the expected instance from the surviving event prefix;
        // every logged event must replay effectively.
        let mut expected = DatabaseInstance::new(rs_catalog().schema());
        for event in &log[..survived] {
            prop_assert!(expected.apply(event.clone()).expect("replay").is_some());
        }
        prop_assert_eq!(&**recovered.snapshot().db(), &expected);
        assert_answers_match_cold(&recovered, &Arc::new(expected));
    }
}

/// Where a [`Gated`] storage's checkpointer stands.
#[derive(Debug, Default)]
struct GateState {
    /// Whether a checkpointer may go on: while closed, one parks inside
    /// `write_atomic`.
    open: bool,
    /// Whether a released checkpointer fails its write instead of
    /// publishing it.
    fail: bool,
    /// Checkpointers that have parked so far.
    parked: usize,
}

#[derive(Debug, Default)]
struct Gate {
    state: Mutex<GateState>,
    changed: Condvar,
}

impl Gate {
    fn update(&self, f: impl FnOnce(&mut GateState)) {
        f(&mut self.state.lock().unwrap());
        self.changed.notify_all();
    }

    /// Blocks until `n` checkpointers have parked in all. The bound only
    /// turns a checkpoint that never starts into a failure, not a hang.
    fn wait_parked(&self, n: usize) {
        let state = self.state.lock().unwrap();
        let bound = std::time::Duration::from_secs(60);
        let (state, _) = self
            .changed
            .wait_timeout_while(state, bound, |s| s.parked < n)
            .unwrap();
        assert!(state.parked >= n, "checkpoint {n} never parked");
    }
}

/// The test's hold on a [`Gate`]: dropped, it opens the gate, so a test that
/// fails while a checkpointer is parked does not hang in the session's drop.
/// (Bound after the session, it is dropped before it.)
struct GateHandle(Arc<Gate>);

impl std::ops::Deref for GateHandle {
    type Target = Gate;
    fn deref(&self) -> &Gate {
        &self.0
    }
}

impl Drop for GateHandle {
    fn drop(&mut self) {
        self.update(|s| s.open = true);
    }
}

/// A [`MemStorage`] whose publish handles park the checkpointer inside
/// `write_atomic` while the [`Gate`] is closed: the file is encoded, half of
/// it lies in the temporary file a real directory would hold, and the target
/// is untouched. Opening the gate publishes it (or fails the write).
#[derive(Debug)]
struct Gated {
    mem: MemStorage,
    gate: Arc<Gate>,
}

impl WalStorage for Gated {
    fn list(&mut self) -> io::Result<Vec<String>> {
        self.mem.list()
    }
    fn read(&mut self, name: &str) -> io::Result<Vec<u8>> {
        self.mem.read(name)
    }
    fn append(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.mem.append(name, bytes)
    }
    fn sync(&mut self, name: &str) -> io::Result<()> {
        self.mem.sync(name)
    }
    fn write_atomic(&mut self, name: &str, write: StreamBytes<'_>) -> io::Result<()> {
        let mut bytes = io::Cursor::new(Vec::new());
        write(&mut bytes)?;
        let bytes = bytes.into_inner();
        let tmp = format!("{name}.tmp");
        self.mem.set_file(&tmp, bytes[..bytes.len() / 2].to_vec());
        let fail = {
            let mut state = self.gate.state.lock().unwrap();
            state.parked += 1;
            self.gate.changed.notify_all();
            let state = self.gate.changed.wait_while(state, |s| !s.open).unwrap();
            state.fail
        };
        self.mem.remove(&tmp)?;
        if fail {
            return Err(io::Error::other("the gate failed the checkpoint"));
        }
        self.mem.set_file(name, bytes);
        Ok(())
    }
    fn truncate(&mut self, name: &str, len: u64) -> io::Result<()> {
        self.mem.truncate(name, len)
    }
    fn remove(&mut self, name: &str) -> io::Result<()> {
        self.mem.remove(name)
    }
    fn publish_handle(&self) -> Box<dyn WalStorage> {
        Box::new(Gated {
            mem: self.mem.handle(),
            gate: self.gate.clone(),
        })
    }
}

/// A durable session over a [`Gated`] storage that checkpoints every 4
/// epochs, with its gate closed, and the storage behind it.
fn gated_session() -> (Session, MemStorage, GateHandle) {
    let (mem, gate) = (MemStorage::new(), Arc::new(Gate::default()));
    let storage = Gated {
        mem: mem.handle(),
        gate: gate.clone(),
    };
    let options = WalOptions {
        sync: SyncPolicy::Never,
        checkpoint_every: 4,
    };
    let session = Session::open_storage(rs_catalog(), Box::new(storage), options).expect("open");
    (session, mem, GateHandle(gate))
}

/// The `i`-th fact of a gated test: distinct for every `i`.
fn nth_fact(i: u64) -> Fact {
    fact!("R", format!("x{i}"), format!("y{}", i % 3))
}

/// A copy of every file `mem` holds now: what a crash at this instant leaves.
fn crash_image(mem: &MemStorage) -> MemStorage {
    let image = MemStorage::new();
    for name in mem.handle().list().expect("in memory") {
        image.set_file(&name, mem.file(&name).expect("listed"));
    }
    image
}

/// Commits while a checkpoint is parked in its write, then lets it go: the
/// commits complete and are readable, a second due checkpoint is skipped,
/// `sync` waits for the first and leaves it published with the segments it
/// covers evicted, the skipped one starts at the next commit, and drop waits
/// for that one.
#[test]
fn a_parked_checkpoint_stalls_no_writer() {
    let (session, mem, gate) = gated_session();
    let mut reference = DatabaseInstance::new(rs_catalog().schema());
    let mut insert = |i: u64| {
        assert!(session.insert(nth_fact(i)).expect("insert"));
        reference.insert(nth_fact(i)).expect("reference insert");
        assert_eq!(session.epoch(), i);
        assert!(session.database().contains(&nth_fact(i)), "fact {i}");
    };
    // Two checkpoints go through: ck-4 and ck-8.
    gate.update(|s| s.open = true);
    for i in 1..=8 {
        insert(i);
        session.sync().expect("sync");
    }
    assert!(mem.file(&checkpoint_name(8)).is_some());
    // The third parks at epoch 12 ...
    gate.update(|s| s.open = false);
    for i in 9..=12 {
        insert(i);
    }
    gate.wait_parked(3);
    // ... and commits go on: the checkpoint falling due at 16 is skipped.
    for i in 13..=20 {
        insert(i);
    }
    assert_eq!(session.stats().checkpoints, 3);
    assert!(mem.file(&checkpoint_name(12)).is_none());
    assert!(mem.file(&checkpoint_name(16)).is_none());
    assert!(mem.file(&segment_name(4)).is_some(), "not evicted yet");

    gate.update(|s| s.open = true);
    session.sync().expect("sync");
    assert!(mem.file(&checkpoint_name(12)).is_some(), "published");
    assert!(mem.file(&checkpoint_name(4)).is_none(), "past retention");
    assert!(mem.file(&segment_name(4)).is_none(), "covered by ck-8");
    assert!(mem.file(&segment_name(8)).is_some(), "ck-8 replays from it");
    assert_eq!(session.stats().checkpoints, 3);
    assert_eq!(session.stats().checkpoint_failures, 0);

    // The skipped checkpoint starts at the next commit, and parks.
    gate.update(|s| s.open = false);
    insert(21);
    assert_eq!(session.stats().checkpoints, 4);
    gate.wait_parked(4);
    gate.update(|s| s.open = true);
    drop(session);
    assert!(
        mem.file(&checkpoint_name(21)).is_some(),
        "drop waited for it"
    );
    assert!(mem.file(&checkpoint_name(8)).is_none(), "drop finished it");
    assert!(mem.file(&segment_name(8)).is_none(), "covered by ck-12");

    let recovered =
        Session::open_storage(rs_catalog(), Box::new(mem.handle()), mem_options()).expect("reopen");
    assert_eq!(recovered.epoch(), 21);
    assert_eq!(**recovered.snapshot().db(), reference);
}

/// The crash matrix while a checkpoint is parked in its write and writers
/// commit: after every commit, the files as they stand — the older
/// checkpoint, the log segments on both sides of the parked one's epoch,
/// half a temporary file — recover exactly the acknowledged commits, from
/// the older checkpoint plus the log; and with the newest segment cut at
/// any byte, a commit boundary at or past the parked checkpoint's epoch.
#[test]
fn a_crash_while_a_checkpoint_is_parked_recovers_every_acknowledged_commit() {
    let (session, mem, gate) = gated_session();
    let mut prefixes = vec![DatabaseInstance::new(rs_catalog().schema())];
    let mut commit = |i: u64| {
        session.insert(nth_fact(i)).expect("insert");
        let mut next = prefixes.last().expect("one per epoch").clone();
        next.insert(nth_fact(i)).expect("reference insert");
        prefixes.push(next);
    };
    gate.update(|s| s.open = true);
    for i in 1..=4 {
        commit(i);
    }
    session.sync().expect("ck-4 published");
    gate.update(|s| s.open = false);
    for i in 5..=8 {
        commit(i);
    }
    gate.wait_parked(2);
    let mut images = Vec::new();
    for i in 9..=14 {
        commit(i);
        images.push((i, crash_image(&mem)));
    }
    assert!(images[0]
        .1
        .file(&format!("{}.tmp", checkpoint_name(8)))
        .is_some());

    for (acked, image) in images {
        let (_, recovery) = Wal::open(Box::new(crash_image(&image)), mem_options()).expect("opens");
        assert_eq!(recovery.checkpoint_epoch, 4, "image at {acked}");
        let recovered =
            Session::open_storage(rs_catalog(), Box::new(crash_image(&image)), mem_options())
                .expect("recover");
        assert_eq!(recovered.epoch(), acked);
        assert_eq!(**recovered.snapshot().db(), prefixes[acked as usize]);

        let newest = segment_name(8);
        let bytes = image.file(&newest).expect("records past the parked epoch");
        for cut in 0..bytes.len() {
            let torn = crash_image(&image);
            torn.set_file(&newest, bytes[..cut].to_vec());
            let recovered = Session::open_storage(rs_catalog(), Box::new(torn), mem_options())
                .expect("a cut tail is a torn tail");
            let epoch = recovered.epoch();
            assert!((8..acked).contains(&epoch), "image at {acked}, cut {cut}");
            assert_eq!(**recovered.snapshot().db(), prefixes[epoch as usize]);
        }
    }
}

/// A checkpoint whose write fails fails no commit: the failure is counted
/// when the thread is joined, the log keeps everything the older checkpoint
/// does not cover, and the checkpoint is due again at the next commit.
#[test]
fn a_failed_background_checkpoint_fails_no_commit_and_is_retried() {
    let (session, mem, gate) = gated_session();
    for i in 1..=4 {
        session.insert(nth_fact(i)).expect("insert");
    }
    gate.wait_parked(1);
    gate.update(|s| {
        s.open = true;
        s.fail = true;
    });
    session
        .sync()
        .expect("a failed checkpoint does not fail the sync");
    let stats = session.stats();
    assert_eq!((stats.checkpoints, stats.checkpoint_failures), (1, 1));
    assert!(mem.file(&checkpoint_name(4)).is_none());
    assert!(mem.file(&format!("{}.tmp", checkpoint_name(4))).is_none());
    assert!(mem.file(&segment_name(0)).is_some(), "nothing covers it");

    gate.update(|s| s.fail = false);
    session.insert(nth_fact(5)).expect("insert");
    session.sync().expect("sync");
    assert_eq!(session.stats().checkpoints, 2);
    assert!(mem.file(&checkpoint_name(5)).is_some());
    assert!(mem.file(&segment_name(0)).is_none(), "covered by ck-5");
    drop(session);
    let recovered =
        Session::open_storage(rs_catalog(), Box::new(mem.handle()), mem_options()).expect("reopen");
    assert_eq!(recovered.epoch(), 5);
}
