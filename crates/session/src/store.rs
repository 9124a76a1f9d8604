//! The store: the data and its write path — the snapshot chain, commits
//! (incremental, bulk load, recovery), the write-ahead logs, the dirty log a
//! stale read patches through, and the commit counters.
//!
//! A [`Session`](crate::Session) and a
//! [`ShardedSession`](crate::ShardedSession) are each one front-end over one
//! store, and a store's facts sit in one index. What a store partitions is
//! its write path: it has one partition per shard (one for a session), each
//! with its own epoch — the effective events committed to it — and, when
//! durable, its own write-ahead log, appended the effective events that
//! route to the partition ([`partition_of`]) and checkpointing only the
//! partition's facts. A store answers nothing: it knows no statement,
//! caches no result and counts no read.

use crate::{AtomicStats, Miss, SessionError, SessionStats, Snapshot, DIRTY_LOG_CAP};
use rcqa_core::index::{DbIndex, DirtyKeys};
use rcqa_data::codec::{self, FactRef};
use rcqa_data::{DataError, DatabaseInstance, DeltaEvent, DeltaOp, Fact, Schema};
use rcqa_wal::{Wal, WalError, WalOptions, WalStorage};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

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

/// The data and its write path: an immutable snapshot chain with one writer
/// at a time, the dirty log of its commits, the epoch of each partition and,
/// when durable, a write-ahead log per partition. Its counters are the
/// commit half of [`SessionStats`].
pub(crate) struct Store {
    /// The swap point: readers share the read lock to clone the `Arc` out
    /// of a short critical section; the writer takes the write lock only
    /// for the final pointer swap.
    current: RwLock<Arc<Snapshot>>,
    /// Serialises writers; never taken by the read path.
    writer: Mutex<()>,
    /// Dirty-block history for result patching.
    maintenance: Mutex<Maintenance>,
    /// The schema and numeric domain every snapshot shares, which
    /// [`partition_of`] reads key lengths from.
    shape: Arc<DatabaseInstance>,
    /// Each partition's epoch: the effective events committed to it.
    /// Written under [`Store::writer`]; they sum to the current snapshot's
    /// epoch whenever no commit is in flight. Relaxed: a reader takes them
    /// for what they count and reaches no other data through them.
    epochs: Box<[AtomicU64]>,
    /// One write-ahead log per partition when the store was opened over
    /// storage ([`Store::recover`]); none in memory. Only ever locked while
    /// holding [`Store::writer`] (commits) or briefly from observability
    /// accessors — never on the read path.
    wals: Mutex<Vec<Wal>>,
    stats: AtomicStats,
}

/// A successor index, each event's effectiveness flag and — for an
/// incremental commit, not a bulk load — the dirty blocks.
type Successor = (DbIndex, Vec<bool>, Option<Vec<DirtyKeys>>);

/// A commit the store refused, whole or in part: the error, and each
/// event's effectiveness flag when its partition's slice was committed
/// before the refusal (`None` otherwise — for every event when nothing was
/// committed).
#[derive(Debug)]
pub(crate) struct Refused {
    pub(crate) error: SessionError,
    pub(crate) committed: Vec<Option<bool>>,
}

impl From<Refused> for SessionError {
    fn from(refused: Refused) -> SessionError {
        refused.error
    }
}

/// The partition of `partitions` a fact belongs to: a stable FNV-1a hash of
/// its **level-0 block key** — the relation name and the canonical byte
/// encoding ([`codec::encode_value`]) of each key value, with separators so
/// `("AB", ["C"])` and `("A", ["BC"])` cannot collide structurally — modulo
/// `partitions`. Every fact of a block lands in one partition; collisions
/// only skew the distribution. A relation the schema does not know has an
/// empty key.
pub(crate) fn partition_of(schema: &Schema, fact: &impl FactRef, partitions: usize) -> usize {
    if partitions == 1 {
        return 0;
    }
    const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = BASIS;
    let mut eat = |byte: u8| {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(PRIME);
    };
    for byte in fact.relation().bytes() {
        eat(byte);
    }
    eat(0xff);
    let key_len = schema
        .signature(fact.relation())
        .map_or(0, |sig| sig.key_len());
    let mut buf = Vec::new();
    for value in fact.args().take(key_len) {
        buf.clear();
        codec::encode_value(value, &mut buf);
        for &byte in &buf {
            eat(byte);
        }
        eat(0xfe);
    }
    (hash % partitions as u64) as usize
}

// Lock poisoning is not propagated anywhere in the store: every piece of
// guarded state is either rebuildable from a snapshot or monotonic
// bookkeeping (stats, dirty log), so a writer that panicked mid-update
// cannot leave it semantically torn.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

impl Store {
    /// A store whose first snapshot indexes `db`, with one partition per
    /// entry of `epochs` at that epoch (the snapshot's epoch is their sum)
    /// and `wals` as the partitions' logs. An instance someone else still
    /// holds stays as that snapshot's [`Snapshot::db`] — it costs nothing
    /// while they hold it, and it goes when a commit replaces the snapshot;
    /// the only reference is indexed with texts of the index's own and
    /// dropped ([`DbIndex::from_owned`]). A build over facts counts in
    /// [`SessionStats::index_builds`]; indexing an empty instance is not a
    /// build.
    pub(crate) fn new(db: Arc<DatabaseInstance>, epochs: Vec<u64>, wals: Vec<Wal>) -> Store {
        let (shape, built) = (Arc::new(db.empty_like()), !db.is_empty());
        let epoch = epochs.iter().sum();
        let snapshot = match Arc::try_unwrap(db) {
            Ok(db) => Snapshot::new(DbIndex::from_owned(db), shape.clone(), epoch),
            Err(db) => {
                let snapshot = Snapshot::new(DbIndex::new(&db), shape.clone(), epoch);
                let _ = snapshot.db.set(db);
                snapshot
            }
        };
        let store = Store {
            current: RwLock::new(Arc::new(snapshot)),
            writer: Mutex::new(()),
            maintenance: Mutex::new(Maintenance::default()),
            shape,
            epochs: epochs.into_iter().map(AtomicU64::new).collect(),
            wals: Mutex::new(wals),
            stats: AtomicStats::default(),
        };
        if built {
            AtomicStats::bump(&store.stats.index_builds);
        }
        store
    }

    /// An empty in-memory store of `schema` with `partitions` partitions.
    pub(crate) fn empty(schema: Schema, partitions: usize) -> Store {
        let db = Arc::new(DatabaseInstance::new(schema));
        Store::new(db, vec![0; partitions], Vec::new())
    }

    /// A **durable** store with one partition per storage, recovered as
    /// [`Session::open`](crate::Session::open) describes: each partition's
    /// log is opened, the newest valid checkpoint of every partition is
    /// bulk-loaded into one instance and each log tail replayed into it,
    /// which is indexed by one sort at the summed epoch and kept as the
    /// first snapshot's [`Snapshot::db`]. Every checkpointed fact and every
    /// replayed event must route to the partition whose log holds it.
    /// Interior damage is refused as [`SessionError::Wal`].
    pub(crate) fn recover(
        schema: Schema,
        storages: Vec<Box<dyn WalStorage>>,
        options: WalOptions,
    ) -> Result<Store, SessionError> {
        let partitions = storages.len();
        let mut wals = Vec::with_capacity(partitions);
        let mut recoveries = Vec::with_capacity(partitions);
        for storage in storages {
            let (wal, recovery) = Wal::open(storage, options)?;
            wals.push(wal);
            recoveries.push(recovery);
        }
        // Within a partition its log verified itself; this is the
        // cross-partition invariant that makes the union a faithful
        // re-partitioning (a sharded session lays partition `p` out as
        // `shard-p`).
        let home = |p: usize, fact: &Fact| match partition_of(&schema, fact, partitions) {
            routed if routed == p => Ok(()),
            routed => Err(SessionError::Wal(WalError::Corrupt {
                file: format!("shard-{p:03}"),
                offset: 0,
                detail: format!(
                    "recovered fact {fact} routes to shard {routed}, not {p}: the \
                     directory was written under a different routing layout"
                ),
            })),
        };
        // One bulk load of every checkpoint: the facts go straight into
        // exact-capacity leaves instead of through per-fact inserts.
        let mut facts = Vec::new();
        for (p, recovery) in recoveries.iter_mut().enumerate() {
            for fact in &recovery.checkpoint_facts {
                home(p, fact)?;
            }
            facts.append(&mut recovery.checkpoint_facts);
        }
        let checkpointed = facts.len();
        let mut db = DatabaseInstance::new(schema.clone());
        if db.load(facts)? != checkpointed {
            // Partitions hold disjoint facts, so the duplicate sits in one
            // of the checkpoints.
            let files: Vec<String> = recoveries
                .iter()
                .map(|recovery| rcqa_wal::checkpoint_name(recovery.checkpoint_epoch))
                .collect();
            return Err(SessionError::Wal(WalError::Corrupt {
                file: files.join(", "),
                offset: 0,
                detail: "checkpoint contains a duplicate fact".to_string(),
            }));
        }
        // Every logged event was *effective* when committed (a store only
        // logs effective deltas), so each must be effective on replay too;
        // a no-op means the checkpoint and the log disagree.
        for (p, recovery) in recoveries.iter().enumerate() {
            for batch in &recovery.batches {
                for event in &batch.events {
                    home(p, &event.fact)?;
                    if db.apply(event.clone())?.is_none() {
                        return Err(SessionError::Wal(WalError::Corrupt {
                            file: rcqa_wal::checkpoint_name(recovery.checkpoint_epoch),
                            offset: 0,
                            detail: format!(
                                "replaying the log over the checkpoint: the event at \
                                 epoch {} is a no-op, so checkpoint and log disagree",
                                batch.epoch
                            ),
                        }));
                    }
                }
            }
        }
        let epochs = recoveries.iter().map(|recovery| recovery.epoch).collect();
        // Held here while the store opens, the recovered instance stays as
        // the first snapshot's materialised view rather than being freed in
        // the middle of opening.
        let db = Arc::new(db);
        Ok(Store::new(db.clone(), epochs, wals))
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

    /// The number of partitions.
    pub(crate) fn partitions(&self) -> usize {
        self.epochs.len()
    }

    /// The partition `fact` belongs to.
    pub(crate) fn partition_of(&self, fact: &impl FactRef) -> usize {
        partition_of(self.shape.schema(), fact, self.partitions())
    }

    /// Each partition's epoch, in partition order.
    pub(crate) fn epochs(&self) -> Vec<u64> {
        let epochs = self.epochs.iter();
        epochs.map(|epoch| epoch.load(Ordering::Relaxed)).collect()
    }

    /// Whether the store persists commits to write-ahead logs.
    pub(crate) fn is_durable(&self) -> bool {
        !lock(&self.wals).is_empty()
    }

    /// Each partition's last epoch known durable on storage, or `None` in
    /// memory.
    pub(crate) fn durable_epochs(&self) -> Option<Vec<u64>> {
        let wals = lock(&self.wals);
        (!wals.is_empty()).then(|| wals.iter().map(Wal::durable_epoch).collect())
    }

    /// Forces an fsync of every write-ahead log; a no-op in memory.
    pub(crate) fn sync(&self) -> Result<(), SessionError> {
        let mut wals = lock(&self.wals);
        Ok(wals.iter_mut().try_for_each(Wal::sync)?)
    }

    /// One atomic commit of `events`, with one effectiveness flag per
    /// event — [`Session::apply_batch`](crate::Session::apply_batch), whose
    /// docs spell out what a commit copies and costs. The successor index is
    /// derived first ([`Store::derive`]); only effective events are logged,
    /// each partition's slice to its own write-ahead log, in partition
    /// order, **before** the successor is published. When a log refuses its
    /// slice, the slices logged before it are published — re-derived from
    /// the base without the rest — and the commit is [`Refused`]: with one
    /// partition, or at the first slice, nothing is published. The due
    /// logs checkpoint after the publish, their rows routed by block in one
    /// walk of the index.
    pub(crate) fn apply_batch(&self, events: &[DeltaEvent]) -> Result<Vec<bool>, Refused> {
        let refuse = |error: SessionError| Refused {
            error,
            committed: vec![None; events.len()],
        };
        let _writer = lock(&self.writer);
        let base = self.snapshot();
        let (mut index, flags, mut blocks) =
            Self::derive(&base, events).map_err(|e| refuse(e.into()))?;
        // Only effective events are logged: the batch itself when all are.
        let filtered: Vec<DeltaEvent>;
        let mut effective = if flags.iter().all(|&flag| flag) {
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
        let mut wals = lock(&self.wals);
        let mut refused = None;
        // Each partition's slice of the batch: all of it when there is one.
        let mut routed = vec![Vec::new(); self.partitions()];
        let slices: Vec<&[DeltaEvent]> = if self.partitions() == 1 {
            vec![effective]
        } else {
            for event in effective {
                routed[self.partition_of(&event.fact)].push(event.clone());
            }
            routed.iter().map(Vec::as_slice).collect()
        };
        let kept: Vec<DeltaEvent>;
        for (p, slice) in slices.iter().enumerate() {
            if slice.is_empty() {
                continue;
            }
            if let Err(error) = self.log(wals.get_mut(p), p, slice) {
                // Partitions hold disjoint facts, so the logged slices are
                // effective on their own, as they were in the batch.
                kept = slices[..p].concat();
                if kept.is_empty() {
                    return Err(refuse(error));
                }
                (index, _, blocks) = Self::derive(&base, &kept).map_err(|e| refuse(e.into()))?;
                effective = &kept;
                refused = Some((p, error));
                break;
            }
        }
        let epoch = base.epoch + effective.len() as u64;
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
        let snapshot = Arc::new(Snapshot::new(index, base.shape.clone(), epoch));
        *self.current.write().unwrap_or_else(|e| e.into_inner()) = snapshot.clone();
        // Checkpoint *after* publishing: the batch is already durable on the
        // log, so a checkpoint failure cannot fail the commit — it only
        // postpones log truncation (and is retried at the next commit).
        let due: Vec<bool> = wals.iter().map(Wal::checkpoint_due).collect();
        if due.contains(&true) {
            // One walk of the index routes every block, whose rows all share
            // its partition, to the due logs.
            let mut parts = vec![Vec::new(); due.len()];
            if due.len() > 1 {
                for block in snapshot.index.rows_by_block() {
                    let p = block
                        .clone()
                        .next()
                        .map_or(0, |row| self.partition_of(&row));
                    if due[p] {
                        parts[p].push(block);
                    }
                }
            }
            for (p, wal) in wals.iter_mut().enumerate().filter(|&(p, _)| due[p]) {
                let epoch = self.epochs[p].load(Ordering::Relaxed);
                let written = if due.len() == 1 {
                    wal.checkpoint(epoch, snapshot.index.rows())
                } else {
                    wal.checkpoint(epoch, std::mem::take(&mut parts[p]).into_iter().flatten())
                };
                match written {
                    Ok(()) => AtomicStats::bump(&self.stats.checkpoints),
                    Err(_) => AtomicStats::bump(&self.stats.checkpoint_failures),
                }
            }
        }
        if events.len() > 1 {
            AtomicStats::bump(&self.stats.batched_commits);
            self.stats
                .batched_events
                .fetch_add(events.len() as u64, Ordering::Relaxed);
        }
        match refused {
            None => Ok(flags),
            Some((p, error)) => {
                let committed = events.iter().zip(&flags);
                let committed = committed
                    .map(|(event, &flag)| (self.partition_of(&event.fact) < p).then_some(flag));
                Err(Refused {
                    error,
                    committed: committed.collect(),
                })
            }
        }
    }

    /// Logs partition `p`'s effective `slice` of a commit to its
    /// write-ahead log, when there is one, numbered by the partition's
    /// epoch, and advances that epoch.
    fn log(
        &self,
        wal: Option<&mut Wal>,
        p: usize,
        slice: &[DeltaEvent],
    ) -> Result<(), SessionError> {
        let epoch = self.epochs[p].load(Ordering::Relaxed) + slice.len() as u64;
        if let Some(wal) = wal {
            wal.append(epoch, slice)?;
            AtomicStats::bump(&self.stats.wal_appends);
        }
        self.epochs[p].store(epoch, Ordering::Relaxed);
        Ok(())
    }

    /// The successor index of `base` under `events`, each event's
    /// effectiveness flag and — for an incremental commit — the dirty blocks
    /// the dirty log keeps. Inserts are validated first;
    /// [`DbIndex::apply_events`] then derives the successor from the base's
    /// shared structure. Into an empty snapshot the events are **bulk
    /// loaded** instead — indexed by one sort ([`DbIndex::from_owned`]) —
    /// and no blocks are reported, since the load starts a fresh id space.
    fn derive(base: &Snapshot, events: &[DeltaEvent]) -> Result<Successor, DataError> {
        if base.index.is_empty() {
            // The scratch instance validates what it takes in.
            let (db, flags) = Self::bulk_load(&base.shape, events)?;
            return Ok((DbIndex::from_owned(db), flags, None));
        }
        for event in events {
            base.validate(event)?;
        }
        // Cheap: the clone shares every relation's index with the base;
        // `apply_events` path-copies the dirty leaves.
        let mut index = (*base.index).clone();
        let (flags, blocks) = index.apply_events(events);
        Ok((index, flags, Some(blocks)))
    }

    /// The instance `events` make of an empty one shaped like `shape`, and
    /// their effectiveness flags in order. Inserts of distinct facts — a bulk
    /// load's usual shape — are sorted in at once ([`DatabaseInstance::load`]);
    /// any other batch is applied event by event.
    fn bulk_load(
        shape: &DatabaseInstance,
        events: &[DeltaEvent],
    ) -> Result<(DatabaseInstance, Vec<bool>), DataError> {
        let mut db = shape.empty_like();
        if events.iter().all(|event| event.op == DeltaOp::Insert) {
            let facts = events.iter().map(|event| event.fact.clone()).collect();
            if db.load(facts)? == events.len() {
                return Ok((db, vec![true; events.len()]));
            }
            db = shape.empty_like();
        }
        let flags = events
            .iter()
            .map(|event| Ok(db.apply(event.clone())?.is_some()))
            .collect::<Result<_, DataError>>()?;
        Ok((db, flags))
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
