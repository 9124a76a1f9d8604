//! A sharded session: a session whose write path is partitioned by shard,
//! behind one session-shaped API, with group-commit batched writes.
//!
//! ## One front-end over one store
//!
//! A [`ShardedSession`] is a [`Session`] — one front-end (the statement
//! cache, each statement's cached result, the patch and post-processing
//! steps, the read counters) over one store (a snapshot chain with its
//! commit path and dirty log) — whose store has one partition per shard.
//! Its reads are a session's: a read pins one snapshot, its statement is
//! prepared once, and its result is served, patched through the store's
//! dirty log, or evaluated over the store's one index. One index holds
//! every shard's blocks, so every statement — a join, whose blocks hash to
//! every shard, as much as a lookup of one block — is answered by the same
//! code over the same index as on an unsharded session holding the same
//! facts, and the answers are byte-identical by construction.
//! [`ShardedStats`] still counts each read by its shard footprint — which
//! shards its blocks sit in, read off the statement's shape — but no
//! footprint changes how a read runs.
//!
//! ## Partitioning rule
//!
//! The partitioning rule governs the logs and the epochs. Every fact is
//! routed by a stable FNV-1a hash of its **level-0 block key** — the
//! relation name plus the fact's primary-key prefix ([`Fact::key`]) —
//! modulo the shard count ([`ShardedSession::shard_for`]). The block is the
//! unit of repair choice (a repair picks exactly one fact per block), so a
//! shard holds whole blocks. Each shard has its own epoch — the effective
//! events routed to it ([`ShardedSession::epoch_frontier`]) — and, when
//! durable, its own write-ahead log: appended the effective events that
//! route to the shard, numbered by the shard's epoch, and checkpointing only
//! the shard's facts. The session's epoch is the sum of the shard epochs.
//!
//! ## Write path: group commit
//!
//! [`ShardedSession::insert`] / [`ShardedSession::delete`] enqueue the event
//! on the session's commit coordinator and then contend for its leader
//! lock. Whoever wins drains the whole queue, commits it to the store as one
//! batch — one snapshot publish and, on a durable session, at most one log
//! append per shard the batch touches, for every event that piled up while
//! the previous commit was in flight — and distributes per-event results to
//! the waiting submitters. Under [`SyncPolicy::Always`](crate::SyncPolicy::Always),
//! coalescing multiplies directly into fewer fsyncs. Inserts are
//! pre-validated individually (schema and numeric domain are static), so one
//! ill-typed event fails alone without poisoning the batch it happened to
//! share a leader with; only a durability (I/O) failure fails submitters:
//! those whose shard's slice, or an earlier shard's, the log refused.
//!
//! [`ShardedSession::insert_all`] / [`ShardedSession::apply_batch`] commit
//! a batch spanning shards as **one** store commit, validated in full first
//! (a schema violation rejects the whole batch), so readers see all of it or
//! none. Its per-shard slices are appended shard by shard, in shard order.
//! When a shard's log refuses its slice, the slices logged before it are
//! committed and visible, the rest are not, and the error is returned: the
//! live state is the one a reopen recovers. A crash between slices leaves
//! the same torn edge — per-shard logs cannot promise cross-shard atomicity
//! through a crash — which the docs of [`ShardedSession::open`] spell out.
//!
//! ## Durability layout and recovery
//!
//! A durable sharded session lays out `dir/SHARDS` (the shard count,
//! refused on mismatch — re-sharding a directory is not resharding the data)
//! and one WAL directory `dir/shard-NNN` per shard. [`ShardedSession::open`]
//! replays every shard's log, **verifies the routing** — every recovered
//! fact and every replayed event must route to the shard whose log holds it
//! — and bulk-loads the union into the one index, at the summed epoch.

use crate::front::Front;
use crate::store::{lock, Store};
use crate::{
    PatchReasons, PreparedStatement, QueryOutcome, Session, SessionError, SessionStats, Snapshot,
    WalOptions,
};
use rcqa_core::engine::EngineOptions;
use rcqa_core::SupportSlot;
use rcqa_data::{DatabaseInstance, DeltaEvent, Fact};
use rcqa_query::Catalog;
use rcqa_wal::{FsStorage, WalError, WalStorage};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One waiting writer's slot in a group-commit batch.
struct Ticket {
    done: Mutex<Option<Result<bool, SessionError>>>,
}

/// The commit coordinator: submitters enqueue, then race for the leader
/// lock; the winner drains and commits the whole queue. There is no
/// condition variable — followers block on the leader lock itself, and a
/// follower whose ticket was fulfilled by the previous leader returns
/// without committing anything (the previous leader fulfilled every drained
/// ticket *before* releasing the lock the follower just acquired).
#[derive(Default)]
struct Coordinator {
    queue: Mutex<Vec<(DeltaEvent, Arc<Ticket>)>>,
    leader: Mutex<()>,
}

/// Aggregated observability of a [`ShardedSession`]: its counters, the
/// per-shard epoch frontier, each read's shard footprint and the
/// group-commit counters. The mirror fields read 0: no mirror is kept.
#[derive(Clone, Debug)]
pub struct ShardedStats {
    /// The session's counters: the front-end's reads — statements prepared,
    /// statement and result hits, patches, misses, recomputes, top-k
    /// re-selections, evictions — and the store's commits (index builds,
    /// deltas applied, one WAL append per shard slice, checkpoints, batched
    /// commits), each counted once.
    pub totals: SessionStats,
    /// All zero: no mirror store is kept (`totals.merge(mirror)` is
    /// `totals`).
    pub mirror: SessionStats,
    /// Each shard's epoch (effective operations routed to it). The session
    /// epoch is the sum of this vector.
    pub epoch_frontier: Vec<u64>,
    /// Reads whose blocks span the shards one group to a shard: one
    /// relation, each key column grouped or fixed by a constant and at
    /// least one grouped. Footprints are counted by statement shape; every
    /// read is answered over the one index.
    pub fanout_queries: u64,
    /// Reads whose blocks all sit in one shard: one relation with every key
    /// column fixed by a constant, or a `WHERE` that no row satisfies (it
    /// reads no block).
    pub designated_queries: u64,
    /// Reads whose rows combine blocks of several shards: joins, and
    /// one-relation statements with a key column neither grouped nor fixed.
    pub combine_queries: u64,
    /// Leader-drained batches that coalesced more than one concurrent
    /// writer into a single commit.
    pub group_commits: u64,
    /// Events carried by those coalesced batches.
    pub group_commit_events: u64,
    /// 0: no mirror is kept.
    pub mirror_syncs: u64,
    /// 0: no mirror is kept.
    pub mirror_events: u64,
}

/// A session partitioned by shard: one front-end over one store whose write
/// path — epochs and write-ahead logs — is split by the routing hash.
///
/// The API mirrors [`Session`] — insert/delete/insert_all,
/// prepare/execute/execute_many/explain, stats/epoch/sync — and every
/// answer is **byte-identical** to the same statement on one unsharded
/// session holding the same facts (`tests/session_sharded.rs` asserts this
/// across random interleavings, shard counts, thread counts, and crash
/// recovery). See the module docs (`sharded.rs`) for the routing rule, the
/// group-commit write path and recovery.
pub struct ShardedSession {
    /// The front-end and its one store, partitioned by shard.
    session: Session,
    coordinator: Coordinator,
    /// Reads counted by shard footprint, as [`ShardedStats`] reports them:
    /// fan-out, designated, combine.
    footprints: [AtomicU64; 3],
    group_commits: AtomicU64,
    group_commit_events: AtomicU64,
}

impl std::fmt::Debug for ShardedSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSession")
            .field("shards", &self.shard_count())
            .field("epoch", &self.epoch())
            .field("frontier", &self.epoch_frontier())
            .finish()
    }
}

impl ShardedSession {
    /// Opens an in-memory sharded session of `shards` empty shards over the
    /// catalog's schema.
    ///
    /// # Panics
    /// With zero shards (there is nowhere to route anything).
    pub fn new(catalog: Catalog, shards: usize) -> ShardedSession {
        assert!(shards > 0, "a sharded session needs at least one shard");
        let store = Store::empty(catalog.schema(), shards);
        ShardedSession::assemble(catalog, store)
    }

    fn assemble(catalog: Catalog, store: Store) -> ShardedSession {
        ShardedSession {
            session: Session {
                front: Front::new(catalog),
                store,
            },
            coordinator: Coordinator::default(),
            footprints: Default::default(),
            group_commits: AtomicU64::new(0),
            group_commit_events: AtomicU64::new(0),
        }
    }

    /// Opens a **durable** sharded session over `dir` with default
    /// [`WalOptions`]: one write-ahead-log directory per shard
    /// (`dir/shard-NNN`) plus a `SHARDS` manifest pinning the shard count.
    /// Every shard's log is replayed, the routing is verified (each
    /// recovered fact and each replayed event must route to the shard whose
    /// log holds it — anything else means the directory was produced under
    /// a different layout and answers could silently drop it), and the
    /// union is bulk-loaded into the one index. Opening an existing
    /// directory with a different shard count is refused as
    /// [`SessionError::Wal`].
    ///
    /// Durability granularity is per shard: a single-shard commit is atomic
    /// on its WAL, and a crash between the per-shard slices of a
    /// cross-shard [`ShardedSession::insert_all`] can leave a durable
    /// prefix of those slices without the rest. Readers never observe that
    /// torn state live (the batch is one commit); it is only reachable
    /// through crash recovery, and each surviving slice is still a valid
    /// per-shard state.
    ///
    /// # Panics
    /// With zero shards, as [`ShardedSession::new`].
    pub fn open(
        catalog: Catalog,
        dir: impl AsRef<Path>,
        shards: usize,
    ) -> Result<ShardedSession, SessionError> {
        ShardedSession::open_with(catalog, dir, shards, WalOptions::default())
    }

    /// [`ShardedSession::open`] with explicit [`WalOptions`], applied to
    /// every shard's log (fsync policy and checkpoint cadence).
    ///
    /// # Panics
    /// With zero shards, as [`ShardedSession::new`].
    pub fn open_with(
        catalog: Catalog,
        dir: impl AsRef<Path>,
        shards: usize,
        options: WalOptions,
    ) -> Result<ShardedSession, SessionError> {
        assert!(shards > 0, "a sharded session needs at least one shard");
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let manifest = dir.join("SHARDS");
        match std::fs::read_to_string(&manifest) {
            Ok(text) => {
                let recorded: usize = text.trim().parse().map_err(|_| {
                    SessionError::Wal(WalError::Corrupt {
                        file: "SHARDS".to_string(),
                        offset: 0,
                        detail: format!("unreadable shard count {text:?}"),
                    })
                })?;
                if recorded != shards {
                    return Err(SessionError::Wal(WalError::Corrupt {
                        file: "SHARDS".to_string(),
                        offset: 0,
                        detail: format!(
                            "directory is laid out for {recorded} shards, opened with \
                             {shards}; re-sharding requires migrating the data, not \
                             reinterpreting the logs"
                        ),
                    }));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                std::fs::write(&manifest, format!("{shards}\n"))?;
            }
            Err(e) => return Err(e.into()),
        }
        let storages = (0..shards)
            .map(|i| {
                let storage = FsStorage::open(dir.join(format!("shard-{i:03}")))?;
                Ok(Box::new(storage) as Box<dyn WalStorage>)
            })
            .collect::<Result<_, SessionError>>()?;
        ShardedSession::open_storages(catalog, storages, options)
    }

    /// A durable sharded session with one shard per storage, shard `i`'s log
    /// on `storages[i]`.
    fn open_storages(
        catalog: Catalog,
        storages: Vec<Box<dyn WalStorage>>,
        options: WalOptions,
    ) -> Result<ShardedSession, SessionError> {
        let store = Store::recover(catalog.schema(), storages, options)?;
        Ok(ShardedSession::assemble(catalog, store))
    }

    /// Overrides the engine options: the statement cache is cleared, the
    /// store keeps everything.
    pub fn with_options(mut self, options: EngineOptions) -> ShardedSession {
        self.session = self.session.with_options(options);
        self
    }

    /// The number of shards.
    pub fn shard_count(&self) -> usize {
        self.session.store.partitions()
    }

    /// The session's catalog.
    pub fn catalog(&self) -> &Catalog {
        self.session.catalog()
    }

    /// The session epoch: effective operations applied since (or before,
    /// via recovery) it opened. Equals the sum of
    /// [`ShardedSession::epoch_frontier`] whenever no commit is in flight.
    pub fn epoch(&self) -> u64 {
        self.session.epoch()
    }

    /// The per-shard epoch frontier: each shard's effective-operation
    /// count, in shard order.
    pub fn epoch_frontier(&self) -> Vec<u64> {
        self.session.store.epochs()
    }

    /// Whether the shards persist commits to write-ahead logs.
    pub fn is_durable(&self) -> bool {
        self.session.is_durable()
    }

    /// The per-shard durable frontier (each shard's last fsync-covered
    /// epoch), or `None` for an in-memory session.
    pub fn durable_frontier(&self) -> Option<Vec<u64>> {
        self.session.store.durable_epochs()
    }

    /// Forces an fsync of every shard's write-ahead log.
    pub fn sync(&self) -> Result<(), SessionError> {
        self.session.sync()
    }

    /// The session's counters, the epoch frontier and the group-commit
    /// counters.
    pub fn stats(&self) -> ShardedStats {
        ShardedStats {
            totals: self.session.stats(),
            mirror: SessionStats::default(),
            epoch_frontier: self.epoch_frontier(),
            fanout_queries: self.footprints[FANOUT].load(Ordering::Relaxed),
            designated_queries: self.footprints[DESIGNATED].load(Ordering::Relaxed),
            combine_queries: self.footprints[COMBINE].load(Ordering::Relaxed),
            group_commits: self.group_commits.load(Ordering::Relaxed),
            group_commit_events: self.group_commit_events.load(Ordering::Relaxed),
            mirror_syncs: 0,
            mirror_events: 0,
        }
    }

    /// Why stale results missed the patch path (the `totals`
    /// [`SessionStats::support_misses`] of [`ShardedSession::stats`] is its
    /// total).
    pub fn patch_reasons(&self) -> PatchReasons {
        self.session.patch_reasons()
    }

    /// The instance across all shards, at the current snapshot.
    pub fn database(&self) -> Result<Arc<DatabaseInstance>, SessionError> {
        Ok(self.session.database())
    }

    /// The shard a fact routes to.
    pub fn shard_for(&self, fact: &Fact) -> usize {
        self.session.store.partition_of(fact)
    }

    // ------------------------------------------------------------------
    // Write path
    // ------------------------------------------------------------------

    /// Inserts one fact through the group-commit coordinator. Returns
    /// `true` if the fact was new. Concurrent writers coalesce into one
    /// commit (one snapshot publish, one WAL append per shard touched) —
    /// see the module docs.
    pub fn insert(&self, fact: Fact) -> Result<bool, SessionError> {
        self.submit(DeltaEvent::insert(fact))
    }

    /// Deletes one fact through the group-commit coordinator. Returns
    /// `true` if it was present.
    pub fn delete(&self, fact: &Fact) -> Result<bool, SessionError> {
        self.submit(DeltaEvent::delete(fact.clone()))
    }

    /// Inserts many facts as one batch: the whole batch is validated up
    /// front (a schema violation rejects everything, matching
    /// [`Session::insert_all`]), then committed as one commit, so readers
    /// observe all of it or none.
    pub fn insert_all(&self, facts: impl IntoIterator<Item = Fact>) -> Result<(), SessionError> {
        self.session.insert_all(facts)
    }

    /// Applies a batch of change events as one commit, returning one
    /// effectiveness flag per event in order. Validation is all-or-nothing;
    /// a durability failure mid-batch is reported as an error after the
    /// slices of the shards logged before it were committed (per-shard WALs
    /// cannot promise cross-shard atomicity through a crash — see
    /// [`ShardedSession::open`]).
    pub fn apply_batch(&self, events: &[DeltaEvent]) -> Result<Vec<bool>, SessionError> {
        self.session.apply_batch(events)
    }

    /// Enqueues one event on the coordinator and waits for a leader
    /// (possibly this caller) to commit it.
    fn submit(&self, event: DeltaEvent) -> Result<bool, SessionError> {
        let ticket = Arc::new(Ticket {
            done: Mutex::new(None),
        });
        lock(&self.coordinator.queue).push((event, ticket.clone()));
        let _leader = lock(&self.coordinator.leader);
        // Fulfilled while we waited: the previous leader drained our event
        // and filled the ticket before releasing the lock we now hold.
        if let Some(result) = lock(&ticket.done).take() {
            return result;
        }
        // We are the leader; our event is still queued (an unfulfilled
        // ticket cannot have been drained — leaders fulfil every drained
        // ticket before releasing the lock).
        let batch = std::mem::take(&mut *lock(&self.coordinator.queue));
        self.commit_group(batch);
        let result = lock(&ticket.done)
            .take()
            .expect("the leader fulfilled every drained ticket, its own included");
        result
    }

    /// Commits one leader-drained batch (leader lock held by the caller).
    /// Inserts are pre-validated individually so an ill-typed event fails
    /// its own submitter without failing the batch; a durability failure
    /// fails the submitters whose events the store did not commit.
    fn commit_group(&self, batch: Vec<(DeltaEvent, Arc<Ticket>)>) {
        let schema = self.session.snapshot();
        let mut events = Vec::with_capacity(batch.len());
        let mut tickets = Vec::with_capacity(batch.len());
        for (event, ticket) in batch {
            if let Err(error) = schema.validate(&event) {
                *lock(&ticket.done) = Some(Err(SessionError::Data(error)));
                continue;
            }
            events.push(event);
            tickets.push(ticket);
        }
        if events.is_empty() {
            return;
        }
        let outcomes: Vec<Result<bool, SessionError>> =
            match self.session.store.apply_batch(&events) {
                Ok(flags) => {
                    if events.len() > 1 {
                        self.group_commits.fetch_add(1, Ordering::Relaxed);
                        self.group_commit_events
                            .fetch_add(events.len() as u64, Ordering::Relaxed);
                    }
                    flags.into_iter().map(Ok).collect()
                }
                Err(refused) => refused
                    .committed
                    .into_iter()
                    .map(|flag| flag.ok_or_else(|| refused.error.clone()))
                    .collect(),
            };
        for (ticket, outcome) in tickets.iter().zip(outcomes) {
            *lock(&ticket.done) = Some(outcome);
        }
    }

    // ------------------------------------------------------------------
    // Read path
    // ------------------------------------------------------------------

    /// Parses, classifies, and plans a SQL statement into the session's
    /// statement cache.
    pub fn prepare(&self, sql: &str) -> Result<Arc<PreparedStatement>, SessionError> {
        self.session.prepare(sql)
    }

    /// Executes a SQL aggregation query at the current snapshot. The
    /// answer — rows, order, classification, HAVING statuses — is
    /// byte-identical to [`Session::execute`] on one unsharded session
    /// holding the same facts; [`QueryOutcome::shards`] reports the shard
    /// count and [`QueryOutcome::epoch`] the session epoch.
    pub fn execute(&self, sql: &str) -> Result<QueryOutcome, SessionError> {
        self.execute_at(&self.session.snapshot(), sql)
    }

    /// Executes a batch of SQL queries against **one** pinned snapshot:
    /// outcomes are mutually consistent even while writers commit
    /// concurrently.
    pub fn execute_many<S: AsRef<str>>(
        &self,
        sqls: impl IntoIterator<Item = S>,
    ) -> Result<Vec<QueryOutcome>, SessionError> {
        let snapshot = self.session.snapshot();
        sqls.into_iter()
            .map(|sql| self.execute_at(&snapshot, sql.as_ref()))
            .collect()
    }

    /// One read at a pinned snapshot, counted by its shard footprint.
    fn execute_at(&self, snapshot: &Snapshot, sql: &str) -> Result<QueryOutcome, SessionError> {
        let stmt = self.session.front.prepare(snapshot, sql)?;
        self.footprints[footprint(&stmt)].fetch_add(1, Ordering::Relaxed);
        self.session.read_at(snapshot, &stmt)
    }

    /// An `EXPLAIN`-style rendering: an unsharded session's over the same
    /// facts, access-path block counts included.
    pub fn explain(&self, sql: &str) -> Result<String, SessionError> {
        self.session.explain(sql)
    }
}

const FANOUT: usize = 0;
const DESIGNATED: usize = 1;
const COMBINE: usize = 2;

/// The shard footprint of a read of `stmt` — [`FANOUT`], [`DESIGNATED`] or
/// [`COMBINE`] — read off the key slots of its support: the partitioning
/// rule hashes a block's key, so a grouped key column spreads a read's
/// blocks one group to a shard, constants pin them to one shard, and a free
/// key column (or a second relation) lets one row reach several.
fn footprint(stmt: &PreparedStatement) -> usize {
    if stmt.unsatisfiable {
        return DESIGNATED;
    }
    let [atom] = stmt.support().atoms() else {
        return COMBINE;
    };
    let slots = &atom.key;
    if slots.iter().any(|slot| matches!(slot, SupportSlot::Any)) {
        COMBINE
    } else if slots
        .iter()
        .any(|slot| matches!(slot, SupportSlot::Group(_)))
    {
        FANOUT
    } else {
        DESIGNATED
    }
}

// The whole point: one session shared across reader and writer threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ShardedSession>();
    assert_send_sync::<ShardedStats>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use rcqa_core::engine::GroupRange;
    use rcqa_data::fact;
    use rcqa_query::TableDef;
    use rcqa_wal::{FailingStorage, MemStorage, SyncPolicy};

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

    fn facts() -> [Fact; 7] {
        [
            fact!("Dealers", "Smith", "Boston"),
            fact!("Dealers", "Smith", "New York"),
            fact!("Dealers", "Jones", "Chicago"),
            fact!("Stock", "Tesla X", "Boston", 35),
            fact!("Stock", "Tesla X", "Boston", 40),
            fact!("Stock", "Tesla Y", "New York", 95),
            fact!("Stock", "Tesla Z", "Chicago", 12),
        ]
    }

    fn seed(s: &ShardedSession) {
        s.insert_all(facts()).unwrap();
    }

    fn reference() -> Session {
        let session = Session::new(catalog());
        session.insert_all(facts()).unwrap();
        session
    }

    fn assert_same(sharded: &ShardedSession, reference: &Session, sql: &str) {
        let a = sharded.execute(sql).unwrap();
        let b = reference.execute(sql).unwrap();
        assert_eq!(a.rows, b.rows, "{sql}");
        assert_eq!(a.more_aggregates, b.more_aggregates, "{sql}");
        assert_eq!(a.having, b.having, "{sql}");
        assert_eq!(a.columns, b.columns, "{sql}");
        assert_eq!(a.epoch, b.epoch, "{sql}");
    }

    /// Each shard's epoch counts the facts that route to it, and the
    /// epochs sum to the session's.
    #[test]
    fn facts_partition_across_shards_and_epochs_sum() {
        let sharded = ShardedSession::new(catalog(), 4);
        seed(&sharded);
        let db = sharded.database().unwrap();
        assert_eq!(db.len(), 7);
        assert_eq!(sharded.epoch(), 7);
        let mut routed = vec![0; 4];
        for fact in db.facts() {
            routed[sharded.shard_for(fact)] += 1;
        }
        assert_eq!(sharded.epoch_frontier(), routed);
        assert!(routed.iter().filter(|&&n| n > 0).count() > 1);
    }

    /// The one store holds every shard's facts, and statements of every
    /// shape answer as a session over those facts: a full-key grouping, a
    /// one-block lookup, a join, one read of each footprint. No mirror is
    /// kept, so the mirror counters read 0.
    #[test]
    fn shard_and_mirror_agree_on_facts_and_answers() {
        let sharded = ShardedSession::new(catalog(), 4);
        seed(&sharded);
        let db = sharded.database().unwrap();
        assert_eq!(*db, *reference().database());
        let direct = Session::with_instance(catalog(), db);
        for sql in [
            "SELECT S.Product, S.Town, MAX(S.Qty) FROM Stock AS S GROUP BY S.Product, S.Town",
            "SELECT MAX(S.Qty) FROM Stock AS S WHERE S.Product = 'Tesla X' AND S.Town = 'Boston'",
            "SELECT D.Name, MAX(S.Qty) FROM Dealers AS D, Stock AS S \
             WHERE D.Town = S.Town GROUP BY D.Name",
        ] {
            let sharded = sharded.execute(sql).unwrap();
            let direct = direct.execute(sql).unwrap();
            assert_eq!(sharded.rows, direct.rows, "{sql}");
            assert_eq!(sharded.more_aggregates, direct.more_aggregates, "{sql}");
            assert_eq!(sharded.having, direct.having, "{sql}");
        }
        let stats = sharded.stats();
        assert_eq!(
            (
                stats.fanout_queries,
                stats.designated_queries,
                stats.combine_queries,
                stats.mirror_syncs,
                stats.mirror_events,
            ),
            (1, 1, 1, 0, 0)
        );
        assert_eq!(stats.mirror, SessionStats::default());
    }

    /// A grouping by the full block key (a fan-out footprint) and one by
    /// part of it — whose groups draw blocks from several shards, a combine
    /// footprint — both match.
    #[test]
    fn grouped_query_fans_out_and_matches_unsharded() {
        let sharded = ShardedSession::new(catalog(), 4);
        seed(&sharded);
        let reference = reference();
        assert_same(
            &sharded,
            &reference,
            "SELECT S.Product, S.Town, MAX(S.Qty) FROM Stock AS S \
             GROUP BY S.Product, S.Town",
        );
        assert_eq!(sharded.stats().fanout_queries, 1);
        // A free key column: one group's blocks sit in several shards.
        assert_same(
            &sharded,
            &reference,
            "SELECT S.Product, MAX(S.Qty) FROM Stock AS S GROUP BY S.Product",
        );
        assert_eq!(sharded.stats().fanout_queries, 1);
        assert_eq!(sharded.stats().combine_queries, 1);
    }

    #[test]
    fn fanout_reads_serve_the_front_end_result_and_patch_it() {
        let sharded = ShardedSession::new(catalog(), 4);
        seed(&sharded);
        let reference = reference();
        let sql = "SELECT S.Product, S.Town, MAX(S.Qty) FROM Stock AS S \
                   GROUP BY S.Product, S.Town";
        let start = sharded.stats().totals;
        let first = sharded.execute(sql).unwrap();
        let first_rows = first.rows.to_vec();
        assert_eq!(
            sharded.stats().totals.full_recomputes - start.full_recomputes,
            1
        );
        // No write in between: the cached result answers, and nothing is
        // evaluated.
        let again = sharded.execute(sql).unwrap();
        assert!(Arc::ptr_eq(&first.rows, &again.rows));
        let stats = sharded.stats().totals;
        assert_eq!(stats.result_hits - start.result_hits, 1);
        assert_eq!(stats.full_recomputes - start.full_recomputes, 1);
        assert_eq!(stats.partial_recomputes, start.partial_recomputes);
        // A write to the other relation: the dirty log reports no affected
        // group, so the result is restamped, not spliced.
        let dealer = fact!("Dealers", "Lopez", "Boston");
        sharded.insert(dealer.clone()).unwrap();
        reference.insert(dealer).unwrap();
        let restamped = sharded.execute(sql).unwrap();
        assert!(Arc::ptr_eq(&first.rows, &restamped.rows));
        assert_eq!(restamped.rows, reference.execute(sql).unwrap().rows);
        let stats = sharded.stats().totals;
        assert_eq!(stats.supported_patches - start.supported_patches, 1);
        assert_eq!(stats.full_recomputes - start.full_recomputes, 1);
        // A batch spanning shards into the statement's relation: one
        // commit, patched into the rows.
        let stock = [
            fact!("Stock", "Tesla X", "Boston", 50),
            fact!("Stock", "Tesla W", "Dover", 7),
            fact!("Stock", "Tesla Q", "Erie", 3),
        ];
        sharded.insert_all(stock.clone()).unwrap();
        reference.insert_all(stock).unwrap();
        let spliced = sharded.execute(sql).unwrap();
        assert!(!Arc::ptr_eq(&first.rows, &spliced.rows));
        assert_same(&sharded, &reference, sql);
        let stats = sharded.stats().totals;
        assert_eq!(stats.supported_patches - start.supported_patches, 2);
        assert_eq!(stats.full_recomputes - start.full_recomputes, 1);
        assert_eq!(sharded.patch_reasons().total(), 0);
        assert_eq!(spliced.epoch, sharded.epoch());
        // The outcome held across both patches still reads its rows.
        assert_eq!(first.rows.to_vec(), first_rows);

        // Held outcomes never change, whatever the patch: a value change
        // (the group set stays), a new group and a vanished group, each read
        // while every earlier outcome is still held, for a plain, a HAVING
        // and a top-k statement.
        let base = "SELECT S.Product, S.Town, MAX(S.Qty), MIN(S.Qty) FROM Stock AS S \
                    GROUP BY S.Product, S.Town";
        let statements = [
            base.to_string(),
            format!("{base} HAVING MAX(S.Qty) > 36"),
            format!("{base} ORDER BY MAX(S.Qty) DESC LIMIT 2"),
        ];
        let copied = |out: &QueryOutcome| {
            let more: Vec<Vec<GroupRange>> =
                out.more_aggregates.iter().map(|r| r.to_vec()).collect();
            (out.rows.to_vec(), more, out.having.to_vec())
        };
        let mut held = Vec::new();
        let mut read_and_hold = |sharded: &ShardedSession, reference: &Session| {
            for sql in &statements {
                assert_same(sharded, reference, sql);
                let outcome = sharded.execute(sql).unwrap();
                let copy = copied(&outcome);
                held.push((outcome, copy));
            }
            for (outcome, copy) in &held {
                assert_eq!(copied(outcome), *copy);
            }
        };
        let write = |event: DeltaEvent| {
            sharded.apply_batch(std::slice::from_ref(&event)).unwrap();
            reference.apply_batch(&[event]).unwrap();
        };
        let before = sharded.stats().totals;
        read_and_hold(&sharded, &reference);
        write(DeltaEvent::insert(fact!("Stock", "Tesla Z", "Chicago", 37)));
        read_and_hold(&sharded, &reference);
        write(DeltaEvent::insert(fact!("Stock", "Tesla R", "Flint", 4)));
        read_and_hold(&sharded, &reference);
        write(DeltaEvent::delete(fact!(
            "Stock", "Tesla Y", "New York", 95
        )));
        read_and_hold(&sharded, &reference);
        let stats = sharded.stats().totals;
        assert_eq!(stats.full_recomputes - before.full_recomputes, 3);
        assert_eq!(stats.supported_patches - before.supported_patches, 9);
        // Every write changed the plain statement's rows.
        let plain: Vec<_> = held
            .iter()
            .step_by(statements.len())
            .map(|h| &h.1)
            .collect();
        assert!(plain.windows(2).all(|pair| pair[0] != pair[1]));

        // With no outcome held, a value change patches the cached rows where
        // they are.
        drop(held);
        let (rows, more, before) = {
            let out = sharded.execute(base).unwrap();
            (
                out.rows.as_ptr(),
                out.more_aggregates[0].as_ptr(),
                copied(&out),
            )
        };
        write(DeltaEvent::insert(fact!("Stock", "Tesla X", "Boston", 60)));
        assert_same(&sharded, &reference, base);
        let after = sharded.execute(base).unwrap();
        assert_ne!(copied(&after), before);
        assert_eq!(
            sharded.stats().totals.supported_patches,
            stats.supported_patches + 1
        );
        assert_eq!(after.rows.as_ptr(), rows);
        assert_eq!(after.more_aggregates[0].as_ptr(), more);
    }

    /// A join — whose blocks hash to every shard, a combine footprint —
    /// matches.
    #[test]
    fn join_routes_to_combine_and_matches_unsharded() {
        let sharded = ShardedSession::new(catalog(), 4);
        seed(&sharded);
        let reference = reference();
        assert_same(
            &sharded,
            &reference,
            "SELECT D.Name, SUM(S.Qty) FROM Dealers AS D, Stock AS S \
             WHERE D.Town = S.Town GROUP BY D.Name",
        );
        assert_eq!(sharded.stats().combine_queries, 1);
    }

    /// A lookup of one block — a designated footprint — matches, and its
    /// outcome reports the shard count: the one index it was read from holds
    /// every shard.
    #[test]
    fn constant_key_query_routes_to_one_designated_shard() {
        let sharded = ShardedSession::new(catalog(), 4);
        seed(&sharded);
        let reference = reference();
        let sql = "SELECT MAX(S.Qty) FROM Stock AS S \
                   WHERE S.Product = 'Tesla X' AND S.Town = 'Boston'";
        let out = sharded.execute(sql).unwrap();
        let expect = reference.execute(sql).unwrap();
        assert_eq!(out.rows, expect.rows);
        assert_eq!(out.shards, 4);
        assert_eq!(expect.shards, 1);
        assert_eq!(sharded.stats().designated_queries, 1);
    }

    #[test]
    fn group_commit_coalesces_concurrent_writers() {
        let sharded = Arc::new(ShardedSession::new(catalog(), 1));
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let front = sharded.clone();
                std::thread::spawn(move || {
                    front
                        .insert(fact!("Stock", format!("P{i}"), "Boston", i))
                        .unwrap()
                })
            })
            .collect();
        for t in threads {
            assert!(t.join().unwrap());
        }
        assert_eq!(sharded.epoch(), 8);
        let stats = sharded.stats();
        // Coalescing is timing-dependent, but every event must land in a
        // shard commit exactly once.
        assert_eq!(stats.epoch_frontier.iter().sum::<u64>(), 8);
        let out = sharded.execute("SELECT COUNT(*) FROM Stock AS S").unwrap();
        assert_eq!(out.rows.len(), 1);
        assert_eq!(sharded.database().unwrap().len(), 8);
    }

    #[test]
    fn invalid_insert_fails_alone_and_batch_rejects_atomically() {
        let sharded = ShardedSession::new(catalog(), 2);
        // Single op: schema violation errors the caller, nothing commits.
        assert!(sharded.insert(fact!("Stock", "P", "Boston")).is_err());
        assert_eq!(sharded.epoch(), 0);
        // Cross-shard batch: one bad event rejects the whole batch.
        let err = sharded.insert_all([
            fact!("Stock", "P1", "Boston", 5),
            fact!("Nope", "X"),
            fact!("Stock", "P2", "Boston", 6),
        ]);
        assert!(err.is_err());
        assert_eq!(sharded.epoch(), 0);
        assert_eq!(sharded.database().unwrap().len(), 0);
    }

    /// A statically contradictory WHERE clause matches; it reads no block,
    /// a designated footprint.
    #[test]
    fn unsatisfiable_where_designates_shard_zero() {
        let sharded = ShardedSession::new(catalog(), 4);
        seed(&sharded);
        let reference = reference();
        let sql = "SELECT MAX(S.Qty) FROM Stock AS S WHERE S.Qty = 5 AND S.Qty < 3";
        assert_same(&sharded, &reference, sql);
        assert_eq!(sharded.stats().designated_queries, 1);
    }

    /// `explain` prints an unsharded session's plan over the same facts,
    /// block counts included.
    #[test]
    fn explain_shows_the_unsharded_plan() {
        let sharded = ShardedSession::new(catalog(), 4);
        seed(&sharded);
        let reference = reference();
        for sql in [
            "SELECT S.Product, S.Town, MAX(S.Qty) FROM Stock AS S \
             WHERE S.Product > 'Tesla X' GROUP BY S.Product, S.Town",
            "SELECT D.Name, SUM(S.Qty) FROM Dealers AS D, Stock AS S \
             WHERE D.Town = S.Town GROUP BY D.Name",
        ] {
            let plan = sharded.explain(sql).unwrap();
            assert_eq!(plan, reference.explain(sql).unwrap());
        }
    }

    /// Logs due in one commit each checkpoint their own shard's facts: a
    /// reopen — which refuses a checkpointed fact of another shard —
    /// recovers the live state.
    #[test]
    fn due_shard_logs_checkpoint_their_own_facts() {
        let options = WalOptions {
            sync: SyncPolicy::Never,
            checkpoint_every: 2,
        };
        let disks: Vec<MemStorage> = (0..4).map(|_| MemStorage::new()).collect();
        let open = || {
            let storages = disks
                .iter()
                .map(|disk| Box::new(disk.handle()) as Box<dyn WalStorage>);
            ShardedSession::open_storages(catalog(), storages.collect(), options)
                .expect("open over memory")
        };
        let sharded = open();
        let stock = |i: usize| fact!("Stock", format!("P{i}"), "Boston", 5);
        let on = |shard: usize, n: usize| -> Vec<Fact> {
            let facts = (0..).map(stock).filter(|f| sharded.shard_for(f) == shard);
            facts.take(n).collect()
        };
        sharded.insert_all((0..4).flat_map(|s| on(s, 2))).unwrap();
        assert_eq!(sharded.stats().totals.checkpoints, 4);
        sharded.insert_all(on(1, 4).into_iter().skip(2)).unwrap();
        assert_eq!(sharded.stats().totals.checkpoints, 5);
        let live = sharded.database().unwrap();
        drop(sharded);
        let reopened = open();
        assert_eq!(*reopened.database().unwrap(), *live);
        assert_eq!(reopened.epoch_frontier(), [2, 4, 2, 2]);
    }

    /// A shard log that refuses its slice in the middle of a batch: the
    /// slices logged before it are committed and visible, the error is
    /// returned, and a reopen recovers the live state. A single write the
    /// refusing log owns commits nothing, and writes other logs own go on.
    #[test]
    fn a_log_failure_mid_batch_commits_the_slices_logged_before_it() {
        let options = WalOptions {
            sync: SyncPolicy::Always,
            checkpoint_every: 0,
        };
        let disks: Vec<MemStorage> = (0..4).map(|_| MemStorage::new()).collect();
        let (failing, refused) = (2, 3);
        let storages = disks.iter().enumerate().map(|(i, disk)| {
            let storage = FailingStorage::new(disk.handle());
            let budget = if i == failing { 0 } else { u64::MAX };
            Box::new(storage.with_op_budget(budget)) as Box<dyn WalStorage>
        });
        let sharded = ShardedSession::open_storages(catalog(), storages.collect(), options)
            .expect("open over memory");
        // One fact on each shard, in shard order.
        let stock = |i: usize| fact!("Stock", format!("P{i}"), "Boston", 5);
        let on = |shard: usize| {
            (0..)
                .map(stock)
                .find(|f| sharded.shard_for(f) == shard)
                .expect("some fact routes to every shard")
        };
        let batch: Vec<DeltaEvent> = (0..4).rev().map(|s| DeltaEvent::insert(on(s))).collect();
        assert!(matches!(
            sharded.apply_batch(&batch),
            Err(SessionError::Io(_))
        ));
        let db = sharded.database().unwrap();
        for event in &batch {
            let logged = sharded.shard_for(&event.fact) < failing;
            assert_eq!(db.contains(&event.fact), logged, "{}", event.fact);
        }
        assert_eq!(sharded.epoch_frontier(), [1, 1, 0, 0]);
        assert_eq!(sharded.epoch(), 2);
        let sql = "SELECT S.Product, S.Town, MAX(S.Qty) FROM Stock AS S \
                   GROUP BY S.Product, S.Town";
        let cold = Session::with_instance(catalog(), db.clone());
        assert_eq!(
            sharded.execute(sql).unwrap().rows,
            cold.execute(sql).unwrap().rows
        );
        // The refusing log's own write publishes nothing; another log's
        // write commits.
        assert!(sharded.insert(on(failing)).is_err());
        assert_eq!(sharded.epoch(), 2);
        assert!(sharded.insert(on(refused)).unwrap());
        assert_eq!(sharded.epoch_frontier(), [1, 1, 0, 1]);
        let live = sharded.database().unwrap();
        drop(sharded);
        let storages = disks
            .iter()
            .map(|disk| Box::new(disk.handle()) as Box<dyn WalStorage>);
        let reopened =
            ShardedSession::open_storages(catalog(), storages.collect(), options).expect("reopen");
        assert_eq!(*reopened.database().unwrap(), *live);
        assert_eq!(reopened.epoch_frontier(), [1, 1, 0, 1]);
        assert_eq!(
            reopened.execute(sql).unwrap().rows,
            Session::with_instance(catalog(), live)
                .execute(sql)
                .unwrap()
                .rows
        );
    }
}
