//! The store: the data and its write path — the snapshot chain, commits
//! (incremental, bulk load, recovery), the write-ahead log, the dirty log a
//! stale read patches through, and the commit counters.
//!
//! A [`Session`](crate::Session) is one front-end over one store: one
//! snapshot chain, whose facts sit in one index, and, when durable
//! ([`Session::open`](crate::Session::open)), one write-ahead log, appended
//! each commit's effective events as one record. A
//! [`ShardedSession`](crate::ShardedSession) is an in-memory `Session`. A store answers nothing: it knows no statement,
//! caches no result and counts no read.
//!
//! Every write, sharded or not, is one call of [`Store::apply_batch`]
//! (**group commit**), whose leader lock is the writer lock. A writer that
//! finds it free and no batch queued commits its batch as handed in. One
//! that finds it taken queues a copy with a result slot and blocks on it;
//! the next holder drains the queue, validates each batch as a unit (an
//! ill-typed event fails only its own batch) and commits the valid ones,
//! concatenated in queue order, as one successor, log record, publish and
//! dirty-log entry, filling every slot before it releases the lock. The
//! range answer depends only on the committed instance, so a group answers
//! as its batches committed one by one would.
//!
//! A checkpoint is written off the commit path. Under the writer lock, the
//! commit that makes one due only rolls the log's segment at its epoch,
//! counts it, and hands the snapshot it just published — immutable, so
//! consistent without a lock — to a thread spawned for this checkpoint,
//! which encodes the index's rows into the file and publishes it on a
//! storage handle of its own. At most one is in flight; one that falls due
//! meanwhile is skipped, and the first commit after the running one has
//! finished starts it. The next commit, [`Store::sync`] or drop that finds
//! the thread done joins it and runs the log's retention and eviction
//! ([`Wal::finish_checkpoint`]); `sync` and drop wait for it.

use crate::{AtomicStats, Miss, SessionError, SessionStats, Snapshot, DIRTY_LOG_CAP};
use rcqa_core::index::{DbIndex, DirtyKeys};
use rcqa_data::{DataError, DeltaEvent, DeltaOp, Fact, NumericDomain, Schema};
use rcqa_wal::{Wal, WalError, WalOptions, WalStorage};
use std::collections::VecDeque;
use std::io;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock, TryLockError};
use std::thread::JoinHandle;

/// One committed write batch as result patching needs it: the blocks it
/// changed, as [`DbIndex::apply_events`] reported them — per relation, the
/// blocks' key ids as flat rows, in the id space of the index the batch
/// produced — and the facts it retracted (its effective deletes, moved here
/// from the logged events).
#[derive(Debug)]
pub(crate) struct DirtyBatch {
    pub(crate) blocks: Vec<DirtyKeys>,
    pub(crate) retracted: Box<[Fact]>,
}

/// The dirty history writers maintain for result patching: one entry per
/// committed write batch, `(epoch after the batch, the batch)`, oldest
/// first. Results cached at an epoch `< log_floor` predate the retained
/// (gap-free) history and must recompute in full.
///
/// The log is a [`VecDeque`]: eviction past [`DIRTY_LOG_CAP`] pops the
/// oldest entry from the front in `O(1)` (a `Vec::remove(0)` here used to
/// shift the whole capacity on every write of a long-lived session).
///
/// Each batch sits behind an `Arc`: a stale read clones pointers under the
/// lock committers also take, never the blocks or facts (up to cap × batch
/// size of them).
#[derive(Debug, Default)]
struct Maintenance {
    dirty_log: VecDeque<(u64, Arc<DirtyBatch>)>,
    log_floor: u64,
}

/// A contended writer's batch: an owned copy of its events and the slot the
/// leader that commits them fills with their outcome.
type Submission = (Vec<DeltaEvent>, Arc<OnceLock<Outcome>>);

/// One effectiveness flag per event of a batch, or why it failed.
type Outcome = Result<Vec<bool>, SessionError>;

/// The data and its write path: an immutable snapshot chain with one writer
/// at a time, the dirty log of its commits and, when durable, its
/// write-ahead log. Its counters are the commit half of [`SessionStats`].
pub(crate) struct Store {
    /// The swap point: readers share the read lock to clone the `Arc` out
    /// of a short critical section; the writer takes the write lock only
    /// for the final pointer swap.
    current: RwLock<Arc<Snapshot>>,
    /// Serialises writers and holds the write-ahead log when the store was
    /// opened over storage ([`Store::recover`]); none in memory. Never taken
    /// by the read path. It is the group commit's leader lock.
    writer: Mutex<Writer>,
    /// The batches of writers that found the writer lock taken, oldest
    /// first, for its next holder to commit as one group. No lock is taken
    /// while it is held.
    queue: Mutex<Vec<Submission>>,
    /// Dirty-block history for result patching.
    maintenance: Mutex<Maintenance>,
    stats: AtomicStats,
    /// The thread freeing the facts a recovery decoded, joined on drop.
    freeing: Option<JoinHandle<()>>,
}

/// What the writer lock guards: the write-ahead log of a durable store and
/// the thread writing its checkpoint, when one is in flight.
struct Writer {
    wal: Option<Wal>,
    checkpointer: Option<JoinHandle<Result<(), WalError>>>,
}

impl Writer {
    /// Starts a checkpoint of `snapshot`, just published, when one is due
    /// and none is in flight — after finishing one that is done. A
    /// checkpoint that could not start counts as failed.
    fn checkpoint_if_due(&mut self, snapshot: &Arc<Snapshot>, stats: &AtomicStats) {
        self.finish_checkpoint(false, stats);
        let Some(wal) = self.wal.as_mut() else {
            return;
        };
        if self.checkpointer.is_some() || !wal.checkpoint_due() {
            return;
        }
        let write = match wal.begin_checkpoint(snapshot.epoch) {
            Ok(write) => write,
            Err(_) => return AtomicStats::bump(&stats.checkpoint_failures),
        };
        AtomicStats::bump(&stats.checkpoints);
        let snapshot = snapshot.clone();
        let spawned = std::thread::Builder::new()
            .name("rcqa-checkpoint".to_string())
            .spawn(move || write.write(snapshot.index.rows()));
        match spawned {
            Ok(handle) => self.checkpointer = Some(handle),
            Err(e) => {
                let _ = wal.finish_checkpoint(Err(e.into()));
                AtomicStats::bump(&stats.checkpoint_failures);
            }
        }
    }

    /// Joins the checkpoint thread — when it is done, or whatever it takes
    /// when `wait` — and hands its outcome to the log, which retains the
    /// checkpoint and evicts what it covers, or forgets a failed one.
    fn finish_checkpoint(&mut self, wait: bool, stats: &AtomicStats) {
        let Some(handle) = self.checkpointer.take_if(|h| wait || h.is_finished()) else {
            return;
        };
        let written = handle.join().unwrap_or_else(|_| {
            Err(WalError::from(io::Error::other(
                "the checkpoint thread panicked",
            )))
        });
        let wal = self.wal.as_mut().expect("only a durable store checkpoints");
        if wal.finish_checkpoint(written).is_err() {
            AtomicStats::bump(&stats.checkpoint_failures);
        }
    }
}

/// A successor index, each event's effectiveness flag and — for an
/// incremental commit, not a bulk load — the dirty blocks.
type Successor = (DbIndex, Vec<bool>, Option<Vec<DirtyKeys>>);

// Lock poisoning is not propagated anywhere in the store: every piece of
// guarded state is either rebuildable from a snapshot or monotonic
// bookkeeping (stats, dirty log), so a writer that panicked mid-update
// cannot leave it semantically torn.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

impl Store {
    /// A store whose first snapshot is `snapshot`, with `wal` as its log; a
    /// first index over facts counts in [`SessionStats::index_builds`].
    pub(crate) fn new(snapshot: Snapshot, wal: Option<Wal>) -> Store {
        let built = !snapshot.index.is_empty();
        let store = Store {
            current: RwLock::new(Arc::new(snapshot)),
            writer: Mutex::new(Writer {
                wal,
                checkpointer: None,
            }),
            queue: Mutex::new(Vec::new()),
            maintenance: Mutex::new(Maintenance::default()),
            stats: AtomicStats::default(),
            freeing: None,
        };
        if built {
            AtomicStats::bump(&store.stats.index_builds);
        }
        store
    }

    /// A **durable** store over `storage`, recovered as
    /// [`Session::open`](crate::Session::open) describes: the log is opened,
    /// its newest valid checkpoint's facts are validated and indexed by one
    /// sort ([`DbIndex::from_facts`]), and each batch of the log tail is
    /// validated and applied to that index ([`DbIndex::apply_events`]); the
    /// decoded facts are freed on a thread of their own, joined when the
    /// store drops. Interior damage is refused as [`SessionError::Wal`].
    pub(crate) fn recover(
        schema: Schema,
        storage: Box<dyn WalStorage>,
        options: WalOptions,
    ) -> Result<Store, SessionError> {
        let (wal, recovery) = Wal::open(storage, options)?;
        let checkpoint = rcqa_wal::checkpoint_name(recovery.checkpoint_epoch);
        let corrupt = |detail: String| {
            SessionError::Wal(WalError::Corrupt {
                file: checkpoint.clone(),
                offset: 0,
                detail,
            })
        };
        let (facts, domain) = (recovery.checkpoint_facts, NumericDomain::NonNegative);
        // The index shares the decoded texts rather than copying each, as the
        // index over a recovered instance did.
        let mut index = DbIndex::from_facts(Arc::new(schema), domain, &facts, false)?;
        if index.len() != facts.len() {
            return Err(corrupt("checkpoint contains a duplicate fact".to_string()));
        }
        // Every logged event was *effective* when committed (a store only
        // logs effective deltas), so each must be effective on replay too;
        // a no-op means the checkpoint and the log disagree.
        for batch in &recovery.batches {
            for event in &batch.events {
                index.validate(event)?;
            }
            if index.apply_events(&batch.events).0.contains(&false) {
                return Err(corrupt(format!(
                    "replaying the log over the checkpoint: the event at epoch {} \
                     is a no-op, so checkpoint and log disagree",
                    batch.epoch
                )));
            }
        }
        let mut store = Store::new(Snapshot::new(index, recovery.epoch), Some(wal));
        // Freeing the facts took a fifth of a recovery (≈ 45 of ≈ 230 ms at
        // 10⁵ facts on 2 cores); should their thread not start, it is here.
        let freeing = std::thread::Builder::new().name("rcqa-free-recovered".to_string());
        store.freeing = freeing.spawn(move || drop(facts)).ok();
        Ok(store)
    }

    /// Pins the current snapshot: one `Arc` clone inside a short critical
    /// section.
    pub(crate) fn snapshot(&self) -> Arc<Snapshot> {
        self.current
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// The commit counters; every read counter is 0.
    pub(crate) fn stats(&self) -> SessionStats {
        self.stats.snapshot()
    }

    /// Whether the store persists commits to a write-ahead log.
    pub(crate) fn is_durable(&self) -> bool {
        lock(&self.writer).wal.is_some()
    }

    /// The last epoch known durable on storage, or `None` in memory.
    pub(crate) fn durable_epoch(&self) -> Option<u64> {
        lock(&self.writer).wal.as_ref().map(Wal::durable_epoch)
    }

    /// Waits for the checkpoint in flight, if any, and finishes it (a
    /// failed one counts in [`SessionStats::checkpoint_failures`] and does
    /// not fail the sync), then forces an fsync of the write-ahead log; a
    /// no-op in memory.
    pub(crate) fn sync(&self) -> Result<(), SessionError> {
        let mut writer = lock(&self.writer);
        writer.finish_checkpoint(true, &self.stats);
        Ok(writer.wal.as_mut().map_or(Ok(()), Wal::sync)?)
    }

    /// One atomic commit of `events`, alone or grouped with concurrent
    /// writers' batches ([module docs](self)), with one effectiveness flag
    /// per event — [`Session::apply_batch`](crate::Session::apply_batch).
    pub(crate) fn apply_batch(&self, events: &[DeltaEvent]) -> Outcome {
        let (mut writer, slot) = match self.writer.try_lock() {
            Ok(writer) => (writer, None),
            Err(TryLockError::Poisoned(e)) => (e.into_inner(), None),
            Err(TryLockError::WouldBlock) => {
                let slot = Arc::new(OnceLock::new());
                lock(&self.queue).push((events.to_vec(), slot.clone()));
                (lock(&self.writer), Some(slot))
            }
        };
        // A filled slot was committed while this writer waited; an unfilled
        // one is still queued, since a leader fills every slot it drains.
        if let Some(outcome) = slot.as_ref().and_then(|slot| slot.get()) {
            return outcome.clone();
        }
        let mut group = std::mem::take(&mut *lock(&self.queue));
        let slot = match slot {
            Some(slot) => slot,
            None if group.is_empty() => return self.commit(&mut writer, events),
            None => {
                let slot = Arc::default();
                group.push((events.to_vec(), Arc::clone(&slot)));
                slot
            }
        };
        self.commit_group(&mut writer, group);
        slot.get().cloned().expect("a leader fills its own slot")
    }

    /// Commits a drained group as one and fills each submitter's slot with
    /// its share of the flags, or the error. Only a successful commit of
    /// more than one batch counts as batched.
    fn commit_group(&self, writer: &mut Writer, group: Vec<Submission>) {
        let base = self.snapshot();
        let (mut events, mut slots) = (Vec::new(), Vec::with_capacity(group.len()));
        for (batch, slot) in group {
            if let Err(error) = batch
                .iter()
                .try_for_each(|event| base.index.validate(event))
            {
                let _ = slot.set(Err(error.into()));
                continue;
            }
            slots.push((events.len()..events.len() + batch.len(), slot));
            events.extend(batch);
        }
        let outcome = self.commit(writer, &events);
        if outcome.is_ok() && slots.len() > 1 {
            AtomicStats::bump(&self.stats.batched_commits);
            let carried = events.len() as u64;
            self.stats
                .batched_events
                .fetch_add(carried, Ordering::Relaxed);
        }
        for (range, slot) in slots {
            let own = outcome.as_ref().map(|flags| flags[range].to_vec());
            let _ = slot.set(own.map_err(Clone::clone));
        }
    }

    /// The commit under the writer lock. The successor index is derived
    /// first ([`Store::derive`]); only effective events are logged,
    /// as one record, **before** the successor is published, so a refused
    /// append publishes nothing. A due log starts a checkpoint of the
    /// published successor after the publish (see the [module docs](self)).
    fn commit(&self, writer: &mut Writer, events: &[DeltaEvent]) -> Outcome {
        let base = self.snapshot();
        let (index, flags, blocks) = Self::derive(&base, events)?;
        // Only effective events are logged: the batch itself when all are.
        let filtered: Vec<DeltaEvent>;
        let effective = if flags.iter().all(|&flag| flag) {
            events
        } else {
            filtered = events
                .iter()
                .zip(&flags)
                .filter(|&(_, &flag)| flag)
                .map(|(event, _)| event.clone())
                .collect();
            &filtered
        };
        if effective.is_empty() {
            return Ok(flags);
        }
        let epoch = base.epoch + effective.len() as u64;
        if let Some(wal) = writer.wal.as_mut() {
            wal.append(epoch, effective)?;
            AtomicStats::bump(&self.stats.wal_appends);
        }
        {
            let mut maintenance = lock(&self.maintenance);
            match blocks {
                Some(blocks) => {
                    self.stats
                        .deltas_applied
                        .fetch_add(effective.len() as u64, Ordering::Relaxed);
                    let retracted = effective
                        .iter()
                        .filter(|e| e.op == DeltaOp::Delete)
                        .map(|e| e.fact.clone())
                        .collect();
                    let batch = Arc::new(DirtyBatch { blocks, retracted });
                    maintenance.dirty_log.push_back((epoch, batch));
                    if maintenance.dirty_log.len() > DIRTY_LOG_CAP {
                        let dropped = maintenance
                            .dirty_log
                            .pop_front()
                            .expect("len > cap implies non-empty");
                        maintenance.log_floor = dropped.0;
                    }
                }
                None => {
                    // A bulk load: floor the log *before* publishing, so no
                    // reader of the successor patches across it.
                    AtomicStats::bump(&self.stats.index_builds);
                    maintenance.dirty_log.clear();
                    maintenance.log_floor = epoch;
                }
            }
        }
        let snapshot = Arc::new(Snapshot::new(index, epoch));
        *self.current.write().unwrap_or_else(|e| e.into_inner()) = snapshot.clone();
        // Checkpoint *after* publishing: the batch is already durable on the
        // log, so a checkpoint failure cannot fail the commit — it only
        // postpones log truncation (and is retried at the next commit).
        writer.checkpoint_if_due(&snapshot, &self.stats);
        Ok(flags)
    }

    /// The successor index of `base` under `events`, each event's
    /// effectiveness flag and — for an incremental commit — the dirty blocks
    /// the dirty log keeps. Inserts are validated first
    /// ([`DbIndex::validate`]); [`DbIndex::apply_events`] then derives the
    /// successor from the base's shared structure. Into an empty snapshot the
    /// events are **bulk loaded**, so no blocks are reported: a batch of
    /// distinct inserts — a bulk load's usual shape — is indexed by one sort
    /// straight from its facts ([`DbIndex::from_facts`], in a fresh id
    /// space), and any other batch is applied to the empty index.
    fn derive(base: &Snapshot, events: &[DeltaEvent]) -> Result<Successor, DataError> {
        let bulk = base.index.is_empty();
        if bulk && events.iter().all(|event| event.op == DeltaOp::Insert) {
            let (schema, domain) = (base.index.schema().clone(), base.index.numeric_domain());
            let index = DbIndex::from_facts(schema, domain, events.iter().map(|e| &e.fact), true)?;
            if index.len() == events.len() {
                return Ok((index, vec![true; events.len()], None));
            }
        }
        for event in events {
            base.index.validate(event)?;
        }
        // Cheap: the clone shares every relation's index with the base;
        // `apply_events` path-copies the dirty leaves.
        let mut index = (*base.index).clone();
        let (flags, blocks) = index.apply_events(events);
        Ok((index, flags, (!bulk).then_some(blocks)))
    }

    /// The batches committed over `(from, to]` — their dirty block keys,
    /// in the id space of this store's indexes, and retracted facts — oldest
    /// first, or [`Miss::HistoryEvicted`] when the retained history does not
    /// reach back to `from` (the log was floored by a bulk load or evicted
    /// past its cap in between). Only pointers are cloned under the lock;
    /// batches may repeat a block or a fact.
    pub(crate) fn patch_log(&self, from: u64, to: u64) -> Result<Vec<Arc<DirtyBatch>>, Miss> {
        let maintenance = lock(&self.maintenance);
        if from < maintenance.log_floor {
            return Err(Miss::HistoryEvicted);
        }
        let log = maintenance.dirty_log.iter();
        let log = log.filter(|(e, _)| *e > from && *e <= to);
        Ok(log.map(|(_, batch)| batch.clone()).collect())
    }
}

impl Drop for Store {
    /// Waits for the checkpoint in flight, if any, and finishes it, so a
    /// dropped store leaves its log's retention and eviction done; and for
    /// the thread freeing recovered facts, which has nothing to report.
    fn drop(&mut self) {
        let writer = self.writer.get_mut().unwrap_or_else(|e| e.into_inner());
        writer.finish_checkpoint(true, &self.stats);
        if let Some(freeing) = self.freeing.take() {
            let _ = freeing.join();
        }
    }
}

#[cfg(test)]
impl Store {
    /// Runs `submit(0)`, …, `submit(n - 1)` on threads of their own while
    /// this thread holds the writer lock, starting each once the one before
    /// it has queued its batch, then releases the lock: the first submitter
    /// to take it leads and commits all `n` batches, in this order, as one
    /// group. Their results, in order.
    pub(crate) fn one_group<T: Send>(
        &self,
        n: usize,
        submit: impl Fn(usize) -> T + Sync,
    ) -> Vec<T> {
        let queued = || lock(&self.queue).len();
        std::thread::scope(|scope| {
            let held = lock(&self.writer);
            let submit = &submit;
            let handles: Vec<_> = (0..n)
                .map(|i| {
                    let handle = scope.spawn(move || submit(i));
                    while queued() <= i {
                        std::thread::yield_now();
                    }
                    handle
                })
                .collect();
            drop(held);
            let joined = handles.into_iter().map(|handle| handle.join());
            joined
                .map(|result| result.expect("a submitter panicked"))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::{lock, Outcome};
    use crate::{Session, SessionError, SessionStats};
    use rcqa_data::{fact, DeltaEvent};
    use rcqa_query::{Catalog, TableDef};
    use rcqa_wal::{FailingStorage, MemStorage, SyncPolicy, WalOptions};
    use std::sync::{Arc, OnceLock};

    fn catalog() -> Catalog {
        Catalog::new()
            .with_table(TableDef::new("Dealers").key_column("Name").column("Town"))
            .with_table(
                TableDef::new("Stock")
                    .key_column("Product")
                    .key_column("Town")
                    .numeric_column("Qty"),
            )
    }

    const STATEMENTS: [&str; 2] = [
        "SELECT S.Product, S.Town, MAX(S.Qty) FROM Stock AS S GROUP BY S.Product, S.Town",
        "SELECT D.Name, MAX(S.Qty) FROM Dealers AS D, Stock AS S \
         WHERE D.Town = S.Town GROUP BY D.Name",
    ];

    /// Writers queued behind the writer lock commit as one group: one
    /// successor (the epoch moves by the group's effective events), one log
    /// record, one dirty-log entry a cached result patches across. Each
    /// submitter gets its own flags, an ill-typed batch fails alone and
    /// publishes nothing, and the group leaves the instance, the flags and
    /// the answers the same batches committed one by one leave — in memory
    /// and durable. Only a commit of more than one caller's batches counts
    /// as a group commit.
    #[test]
    fn queued_writers_coalesce_into_one_commit() {
        let seed = [
            fact!("Dealers", "Smith", "Boston"),
            fact!("Dealers", "Jones", "Erie"),
            fact!("Stock", "Tesla X", "Boston", 35),
            fact!("Stock", "Tesla Y", "Erie", 95),
        ];
        let batches = [
            vec![DeltaEvent::insert(fact!("Stock", "P1", "Boston", 5))],
            // The same fact again: a no-op for this submitter only.
            vec![DeltaEvent::insert(fact!("Stock", "P1", "Boston", 5))],
            // Ill-typed: fails alone.
            vec![DeltaEvent::insert(fact!("Stock", "P2", "Boston"))],
            // One bad event fails the whole batch, its good one included.
            vec![
                DeltaEvent::insert(fact!("Stock", "P3", "Boston", 7)),
                DeltaEvent::insert(fact!("Nope", "X")),
            ],
            vec![DeltaEvent::delete(fact!("Dealers", "Smith", "Boston"))],
            vec![
                DeltaEvent::insert(fact!("Stock", "P5", "Erie", 3)),
                DeltaEvent::delete(fact!("Stock", "P9", "Erie", 1)),
            ],
        ];
        let want = [
            Some(vec![true]),
            Some(vec![false]),
            None,
            None,
            Some(vec![true]),
            Some(vec![true, false]),
        ];
        let options = WalOptions {
            sync: SyncPolicy::Always,
            checkpoint_every: 0,
        };
        let disk = MemStorage::new();
        let durable = Session::open_storage(catalog(), Box::new(disk.handle()), options);
        for session in [Session::new(catalog()), durable.unwrap()] {
            // One caller's batch is no group, however many events it has.
            session.insert_all(seed.clone()).unwrap();
            let more = [("Tesla Z", "Erie", 12), ("Tesla W", "Boston", 8)];
            let more = more.map(|(p, t, q)| DeltaEvent::insert(fact!("Stock", p, t, q)));
            session.apply_batch(&more).unwrap();
            assert_eq!(session.stats().batched_commits, 0);
            let one_by_one = Session::with_instance(catalog(), session.database());
            for sql in STATEMENTS {
                session.execute(sql).unwrap();
            }
            let (before, epoch) = (session.stats(), session.epoch());
            let alone_epoch = one_by_one.epoch();

            let got = session
                .store
                .one_group(batches.len(), |i| session.apply_batch(&batches[i]));
            for (i, (got, want)) in got.iter().zip(&want).enumerate() {
                let alone = one_by_one.apply_batch(&batches[i]);
                match want {
                    Some(flags) => {
                        assert_eq!(got.as_ref().unwrap(), flags, "batch {i}");
                        assert_eq!(alone.unwrap(), *flags, "batch {i} alone");
                    }
                    None => {
                        assert!(matches!(got, Err(SessionError::Data(_))), "batch {i}");
                        assert!(alone.is_err(), "batch {i} alone");
                    }
                }
            }
            let after = session.stats();
            let grown = |counter: fn(&SessionStats) -> u64| counter(&after) - counter(&before);
            assert_eq!(session.epoch(), epoch + 3);
            assert_eq!(one_by_one.epoch(), alone_epoch + 3);
            assert_eq!(grown(|s| s.deltas_applied), 3);
            let appends = u64::from(session.is_durable());
            assert_eq!(grown(|s| s.wal_appends), appends);
            assert_eq!(grown(|s| s.batched_commits), 1);
            // The four valid batches' five events.
            assert_eq!(grown(|s| s.batched_events), 5);
            let db = session.database();
            assert_eq!(*db, *one_by_one.database());
            assert!(!db.contains(&fact!("Stock", "P3", "Boston", 7)));

            // Each cached result patches across the group to a cold answer.
            let cold = Session::with_instance(catalog(), db.clone());
            for sql in STATEMENTS {
                let patched = session.execute(sql).unwrap();
                assert_eq!(patched.rows, cold.execute(sql).unwrap().rows, "{sql}");
            }
            let after = session.stats();
            let grown = |counter: fn(&SessionStats) -> u64| counter(&after) - counter(&before);
            assert_eq!(grown(|s| s.supported_patches), STATEMENTS.len() as u64);
            assert_eq!(grown(|s| s.full_recomputes), 0);

            // A group of one valid batch is no group commit.
            let lone = [
                vec![DeltaEvent::insert(fact!("Nope", "X"))],
                vec![DeltaEvent::insert(fact!("Stock", "P6", "Erie", 6))],
            ];
            let got = session
                .store
                .one_group(2, |i| session.apply_batch(&lone[i]));
            assert!(got[0].is_err());
            assert_eq!(*got[1].as_ref().unwrap(), [true]);
            assert_eq!(session.stats().batched_commits, after.batched_commits);
            // A writer that finds the lock free but a batch queued — its
            // submitter not yet awake — commits that batch and its own as
            // one group.
            let slot: Arc<OnceLock<Outcome>> = Arc::default();
            let queued = vec![DeltaEvent::insert(fact!("Stock", "P7", "Erie", 7))];
            lock(&session.store.queue).push((queued, slot.clone()));
            let (epoch, appends) = (session.epoch(), session.stats().wal_appends);
            let own = session.insert(fact!("Stock", "P8", "Erie", 8)).unwrap();
            assert!(own);
            assert_eq!(*slot.get().unwrap().as_ref().unwrap(), [true]);
            assert_eq!(session.epoch(), epoch + 2);
            let after = session.stats();
            assert_eq!(after.wal_appends, appends + u64::from(session.is_durable()));
            assert_eq!(after.batched_commits, 2);

            if session.is_durable() {
                let db = session.database();
                drop(session);
                let reopened = Session::open_storage(catalog(), Box::new(disk.handle()), options);
                assert_eq!(*reopened.unwrap().database(), *db);
            }
        }
    }

    /// A log that refuses an append publishes nothing — neither a
    /// multi-event batch nor a group commit — and every submitter of the
    /// refused group gets the error; a reopen recovers what was there before.
    #[test]
    fn a_refused_append_publishes_nothing_and_fails_every_submitter() {
        let options = WalOptions {
            sync: SyncPolicy::Always,
            checkpoint_every: 0,
        };
        let disk = MemStorage::new();
        let seeded = Session::open_storage(catalog(), Box::new(disk.handle()), options).unwrap();
        seeded
            .insert_all([
                fact!("Dealers", "Smith", "Boston"),
                fact!("Stock", "Tesla X", "Boston", 35),
            ])
            .unwrap();
        drop(seeded);
        let batch = [
            DeltaEvent::insert(fact!("Stock", "P1", "Boston", 5)),
            DeltaEvent::insert(fact!("Stock", "P2", "Erie", 6)),
            DeltaEvent::insert(fact!("Dealers", "Jones", "Erie")),
            DeltaEvent::delete(fact!("Stock", "Tesla X", "Boston", 35)),
        ];
        let failing = FailingStorage::new(disk.handle()).with_op_budget(0);
        let session = Session::open_storage(catalog(), Box::new(failing), options).unwrap();
        let (epoch, db) = (session.epoch(), session.database());
        let unchanged = |session: &Session| {
            assert_eq!(session.epoch(), epoch);
            assert_eq!(*session.database(), *db);
        };
        assert!(matches!(
            session.apply_batch(&batch),
            Err(SessionError::Io(_))
        ));
        unchanged(&session);
        let results = session.store.one_group(batch.len(), |i| {
            session.apply_batch(std::slice::from_ref(&batch[i]))
        });
        for result in results {
            assert!(matches!(result, Err(SessionError::Io(_))), "{result:?}");
        }
        unchanged(&session);
        assert_eq!(session.stats().batched_commits, 0);
        assert_eq!(session.stats().wal_appends, 0);
        drop(session);
        let reopened = Session::open_storage(catalog(), Box::new(disk.handle()), options);
        assert_eq!(*reopened.unwrap().database(), *db);
    }
}
