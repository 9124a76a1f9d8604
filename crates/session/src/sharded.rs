//! A sharded session: an in-memory session whose writes and reads are
//! counted by shard, behind the session's API.
//!
//! ## One front-end over one store
//!
//! A [`ShardedSession`] is a [`Session`] — one front-end (the statement
//! cache, each statement's cached result, the patch and post-processing
//! steps, the read counters) over one in-memory store (a snapshot chain
//! with its commit path and its dirty log). Its reads are a session's: a
//! read pins one snapshot, its statement is prepared once, and its result is
//! served, patched through the store's dirty log, or evaluated over the
//! store's one index. One index holds every shard's blocks, so every
//! statement — a join, whose blocks hash to every shard, as much as a lookup
//! of one block — is answered by the same code over the same index as on an
//! unsharded session holding the same facts, and the answers are
//! byte-identical by construction.
//!
//! ## Partitioning rule
//!
//! Every fact is routed by a stable FNV-1a hash of its **level-0 block
//! key** — the relation name plus the fact's primary-key prefix
//! ([`Fact::key`]) — modulo the shard count ([`ShardedSession::shard_for`]).
//! The block is the unit of repair choice (a repair picks exactly one fact
//! per block), so a shard holds whole blocks. The rule is observable, not
//! structural: [`ShardedStats`] counts each read by its shard footprint —
//! which shards its blocks sit in, read off the statement's shape — and
//! each shard's effective events since the session opened
//! ([`ShardedSession::epoch_frontier`]); neither changes how a read or a
//! commit runs.
//!
//! ## Writes
//!
//! Every write is a session's: one call of the store's commit, which
//! coalesces concurrent writers into one commit (group commit, see
//! [`Session::apply_batch`]). A batch spanning shards is **one** store
//! commit: readers see all of it or none.
//!
//! A sharded session has no durable form: a durable session is a
//! [`Session::open`], whose directory and recovery know no shards.

use crate::{PreparedStatement, QueryOutcome, Session, SessionError, SessionStats};
use rcqa_core::engine::EngineOptions;
use rcqa_core::SupportSlot;
use rcqa_data::codec;
use rcqa_data::{DatabaseInstance, DeltaEvent, Fact, Schema};
use rcqa_query::Catalog;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Aggregated observability of a [`ShardedSession`]: its counters, the
/// per-shard epoch frontier, each read's shard footprint and the
/// group-commit counters. The mirror fields read 0: no mirror is kept.
#[derive(Clone, Debug)]
pub struct ShardedStats {
    /// The session's counters: the front-end's reads — statements prepared,
    /// statement and result hits, patches, misses, recomputes, top-k
    /// re-selections, evictions — and the store's commits (index builds,
    /// deltas applied, one WAL append per commit, checkpoints, batched
    /// commits), each counted once.
    pub totals: SessionStats,
    /// All zero: no mirror store is kept (`totals.merge(mirror)` is
    /// `totals`).
    pub mirror: SessionStats,
    /// Each shard's effective operations since the session opened, in shard
    /// order: it sums to the session's epoch.
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
    /// Commits that coalesced more than one concurrent writer's batch:
    /// `totals.batched_commits`.
    pub group_commits: u64,
    /// Events carried by those commits: `totals.batched_events`.
    pub group_commit_events: u64,
    /// 0: no mirror is kept.
    pub mirror_syncs: u64,
    /// 0: no mirror is kept.
    pub mirror_events: u64,
}

/// An in-memory session whose facts are routed to shards by block: one
/// front-end over one store, with per-shard counters.
///
/// Its writes and `execute` are [`Session`]'s, and every answer is
/// **byte-identical** to the same statement on one unsharded session holding
/// the same facts (`tests/session_sharded.rs` asserts this across random
/// interleavings, shard counts and thread counts). See the module docs
/// (`sharded.rs`) for the routing rule.
pub struct ShardedSession {
    /// The front-end and its one store.
    session: Session,
    /// What [`partition_of`] reads key lengths from.
    schema: Schema,
    /// Each shard's effective events since the session opened.
    frontier: Box<[AtomicU64]>,
    /// Reads counted by shard footprint, as [`ShardedStats`] reports them:
    /// fan-out, designated, combine.
    footprints: [AtomicU64; 3],
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

/// The shard of `shards` a fact belongs to: a stable FNV-1a hash of its
/// **level-0 block key** — the relation name and the canonical byte
/// encoding ([`codec::encode_value`]) of each key value, with separators so
/// `("AB", ["C"])` and `("A", ["BC"])` cannot collide structurally — modulo
/// `shards`. Every fact of a block lands in one shard; collisions only skew
/// the distribution. A relation the schema does not know has an empty key.
fn partition_of(schema: &Schema, fact: &Fact, shards: usize) -> usize {
    if shards == 1 {
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
    for value in fact.args().iter().take(key_len) {
        buf.clear();
        codec::encode_value(value, &mut buf);
        for &byte in &buf {
            eat(byte);
        }
        eat(0xfe);
    }
    (hash % shards as u64) as usize
}

impl ShardedSession {
    /// Opens an in-memory sharded session of `shards` empty shards over the
    /// catalog's schema.
    ///
    /// # Panics
    /// With zero shards (there is nowhere to route anything).
    pub fn new(catalog: Catalog, shards: usize) -> ShardedSession {
        assert!(shards > 0, "a sharded session needs at least one shard");
        let session = Session::new(catalog);
        ShardedSession {
            schema: session.catalog().schema(),
            session,
            frontier: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            footprints: Default::default(),
        }
    }

    /// Overrides the engine options: the statement cache is cleared, the
    /// store keeps everything.
    pub fn with_options(mut self, options: EngineOptions) -> ShardedSession {
        self.session = self.session.with_options(options);
        self
    }

    /// The number of shards.
    pub fn shard_count(&self) -> usize {
        self.frontier.len()
    }

    /// The session epoch: effective operations applied since it opened.
    pub fn epoch(&self) -> u64 {
        self.session.epoch()
    }

    /// The per-shard epoch frontier: each shard's effective operations
    /// since the session opened, in shard order. Whenever no commit is in
    /// flight it sums to the epoch.
    pub fn epoch_frontier(&self) -> Vec<u64> {
        let load = |epoch: &AtomicU64| epoch.load(Ordering::Relaxed);
        self.frontier.iter().map(load).collect()
    }

    /// The session's counters, the epoch frontier and the group-commit
    /// counters.
    pub fn stats(&self) -> ShardedStats {
        let totals = self.session.stats();
        ShardedStats {
            totals,
            mirror: SessionStats::default(),
            epoch_frontier: self.epoch_frontier(),
            fanout_queries: self.footprints[FANOUT].load(Ordering::Relaxed),
            designated_queries: self.footprints[DESIGNATED].load(Ordering::Relaxed),
            combine_queries: self.footprints[COMBINE].load(Ordering::Relaxed),
            group_commits: totals.batched_commits,
            group_commit_events: totals.batched_events,
            mirror_syncs: 0,
            mirror_events: 0,
        }
    }

    /// The instance across all shards, at the current snapshot.
    pub fn database(&self) -> Result<Arc<DatabaseInstance>, SessionError> {
        Ok(self.session.database())
    }

    /// The shard a fact routes to.
    pub fn shard_for(&self, fact: &Fact) -> usize {
        partition_of(&self.schema, fact, self.shard_count())
    }

    /// Inserts one fact ([`Session::insert`]). Returns `true` if the fact
    /// was new.
    pub fn insert(&self, fact: Fact) -> Result<bool, SessionError> {
        Ok(self.apply_batch(&[DeltaEvent::insert(fact)])?[0])
    }

    /// Deletes one fact ([`Session::delete`]). Returns `true` if it was
    /// present.
    pub fn delete(&self, fact: &Fact) -> Result<bool, SessionError> {
        Ok(self.apply_batch(&[DeltaEvent::delete(fact.clone())])?[0])
    }

    /// Inserts many facts as one batch: the whole batch is validated up
    /// front (a schema violation rejects everything, matching
    /// [`Session::insert_all`]), then committed as one commit, so readers
    /// observe all of it or none.
    pub fn insert_all(&self, facts: impl IntoIterator<Item = Fact>) -> Result<(), SessionError> {
        let events: Vec<DeltaEvent> = facts.into_iter().map(DeltaEvent::insert).collect();
        self.apply_batch(&events).map(drop)
    }

    /// Applies a batch of change events as one commit, returning one
    /// effectiveness flag per event in order ([`Session::apply_batch`]): all
    /// of it is published, or none. Each effective event counts on its
    /// shard's frontier.
    pub fn apply_batch(&self, events: &[DeltaEvent]) -> Result<Vec<bool>, SessionError> {
        let flags = self.session.apply_batch(events)?;
        for (event, _) in events.iter().zip(&flags).filter(|&(_, &flag)| flag) {
            self.frontier[self.shard_for(&event.fact)].fetch_add(1, Ordering::Relaxed);
        }
        Ok(flags)
    }

    /// Executes a SQL aggregation query at the current snapshot, counted by
    /// its shard footprint. The answer — rows, order, classification, HAVING
    /// statuses — is byte-identical to [`Session::execute`] on one unsharded
    /// session holding the same facts, read from the one index that holds
    /// every shard's blocks; [`QueryOutcome::epoch`] reports the session
    /// epoch.
    pub fn execute(&self, sql: &str) -> Result<QueryOutcome, SessionError> {
        let snapshot = self.session.snapshot();
        let stmt = self.session.front.prepare(&snapshot, sql)?;
        self.footprints[footprint(&stmt)].fetch_add(1, Ordering::Relaxed);
        self.session.read_at(&snapshot, &stmt)
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
    use rcqa_wal::{FailingStorage, MemStorage, SyncPolicy, WalOptions, WalStorage};

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
        assert_eq!(stats.support_misses, 0);
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

    /// A lookup of one block — a designated footprint — matches, and is
    /// counted as designated.
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
        assert_eq!(sharded.stats().designated_queries, 1);
    }

    #[test]
    fn invalid_insert_fails_alone_and_batch_rejects_atomically() {
        let sharded = ShardedSession::new(catalog(), 2);
        // Single op: schema violation errors the caller, nothing commits and
        // no shard counts an event.
        assert!(sharded.insert(fact!("Stock", "P", "Boston")).is_err());
        assert_eq!(sharded.epoch(), 0);
        assert_eq!(sharded.epoch_frontier(), [0, 0]);
        // Cross-shard batch: one bad event rejects the whole batch.
        let err = sharded.insert_all([
            fact!("Stock", "P1", "Boston", 5),
            fact!("Nope", "X"),
            fact!("Stock", "P2", "Boston", 6),
        ]);
        assert!(err.is_err());
        assert_eq!(sharded.epoch(), 0);
        assert_eq!(sharded.epoch_frontier(), [0, 0]);
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

    /// A batch with one event on each of four shards — an insert on three,
    /// a delete of a seeded fact on the last — is one commit: the sharded
    /// session moves every shard's frontier at once, and on a durable
    /// [`Session`] the batch is one log record, so a crash at any byte of it
    /// recovers all of the batch or none of it, and a log that refuses the
    /// record after any number of its bytes publishes nothing.
    #[test]
    fn a_cross_shard_batch_is_all_or_nothing_at_every_byte() {
        let sharded = ShardedSession::new(catalog(), 4);
        let stock = |i: usize| fact!("Stock", format!("P{i}"), "Boston", 5);
        let on = |shard: usize| {
            (0..)
                .map(stock)
                .find(|f| sharded.shard_for(f) == shard)
                .expect("some fact routes to every shard")
        };
        let mut seed = facts().to_vec();
        seed.push(on(3));
        let batch = (0..3).map(|s| DeltaEvent::insert(on(s)));
        let batch: Vec<_> = batch.chain([DeltaEvent::delete(on(3))]).collect();
        sharded.insert_all(seed.clone()).unwrap();
        let (base, seeded) = (sharded.database().unwrap(), sharded.epoch_frontier());
        assert_eq!(sharded.apply_batch(&batch).unwrap(), [true; 4]);
        let frontier = seeded.iter().map(|epoch| epoch + 1).collect::<Vec<_>>();
        assert_eq!(sharded.epoch_frontier(), frontier);
        let after = sharded.database().unwrap();

        let options = WalOptions {
            sync: SyncPolicy::Always,
            checkpoint_every: 0,
        };
        let open = |storage: Box<dyn WalStorage>| {
            Session::open_storage(catalog(), storage, options).expect("open")
        };
        // The state a reopen of `disk` recovers, checked against a cold
        // session over its facts on every statement shape.
        let recovered = |disk: &MemStorage| {
            let reopened = open(Box::new(disk.handle()));
            let db = reopened.database();
            let cold = Session::with_instance(catalog(), db.clone());
            for sql in [
                "SELECT S.Product, S.Town, MAX(S.Qty) FROM Stock AS S GROUP BY S.Product, S.Town",
                "SELECT S.Town, SUM(S.Qty) FROM Stock AS S GROUP BY S.Town",
                "SELECT D.Name, MAX(S.Qty) FROM Dealers AS D, Stock AS S \
                 WHERE D.Town = S.Town GROUP BY D.Name",
            ] {
                let (got, want) = (reopened.execute(sql).unwrap(), cold.execute(sql).unwrap());
                assert_eq!(got.rows, want.rows, "{sql}");
            }
            db
        };
        let disk = MemStorage::new();
        let session = open(Box::new(disk.handle()));
        session.insert_all(seed).unwrap();
        let segment = rcqa_wal::segment_name(0);
        let before = disk.file(&segment).expect("the seed is logged");
        assert_eq!(*session.database(), *base);
        session.apply_batch(&batch).unwrap();
        assert_eq!(*session.database(), *after);
        let full = disk.file(&segment).expect("the batch is logged");
        let record = full.len() - before.len();
        drop(session);
        for cut in 0..=record {
            let whole = cut == record;
            let want = if whole { &after } else { &base };
            // A crash `cut` bytes into the record.
            let crashed = MemStorage::new();
            crashed.set_file(&segment, full[..before.len() + cut].to_vec());
            assert_eq!(*recovered(&crashed), **want, "crash at byte {cut}");
            // A log whose storage takes `cut` more bytes.
            let image = MemStorage::new();
            image.set_file(&segment, before.clone());
            let failing = FailingStorage::new(image.handle()).with_byte_budget(cut as u64);
            let live = open(Box::new(failing));
            let committed = live.apply_batch(&batch);
            assert_eq!(committed.is_ok(), whole, "budget {cut}");
            if !whole {
                assert!(matches!(committed, Err(SessionError::Io(_))));
                assert_eq!(live.epoch(), base.len() as u64);
            }
            assert_eq!(*live.database(), **want, "budget {cut}");
            drop(live);
            assert_eq!(*recovered(&image), **want, "reopen after budget {cut}");
        }
    }
}
