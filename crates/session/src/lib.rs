//! # rcqa-session
//!
//! The SQL serving layer of the workspace: a **stateful, thread-safe** session
//! that owns a named-column [`Catalog`], [`EngineOptions`], and — unlike a
//! one-shot evaluation — the derived state a server needs to answer the same
//! queries over a slowly-changing instance without rebuilding the world per
//! call. A [`Session`] is a **front-end over one store**:
//!
//! * the **store** holds the data: an **immutable snapshot chain** — each
//!   [`Snapshot`] one `Arc<DbIndex>` (the interned, block-sorted store the
//!   executor reads), the schema and numeric domain, and an epoch — with
//!   its commit path, its write-ahead log when durable, and the **dirty
//!   log** of its commits. Writers ([`Session::apply_batch`] and the
//!   methods built on it) derive the *successor* snapshot from the base's
//!   **shared structure** ([`rcqa_data::ChunkedSeq`] leaves: a single-fact
//!   commit copies a spine and a leaf, whatever the size of the relation)
//!   and swap it in; in-flight readers keep their pinned snapshot, so reads
//!   are **snapshot-isolated**, never torn;
//! * the **front-end** holds what a reader needs: the **statement cache**
//!   ([`Session::prepare`] parses, classifies and plans once; statements are
//!   keyed by *normalized* SQL, and [`STATEMENT_CACHE_CAP`] of them are kept,
//!   least recently used evicted first), each statement's **one cached
//!   result**, stamped with the epoch it was read at, and the read
//!   counters.
//!
//! A [`ShardedSession`] is an in-memory session that routes its facts to
//! shards by block for its counters. A durable session is a [`Session`]
//! opened over a directory ([`Session::open`]).
//!
//! A read whose pinned epoch equals its statement's cached stamp is a hit.
//! Behind it, the result is patched by **delta-proportional differential
//! maintenance**: the store logs its commits' dirty block keys as the
//! interned ids its index reported ([`DbIndex::apply_events`]) — ids are
//! append-only along the store's snapshot line, and a bulk load, which starts
//! a fresh id space, floors the log — and the retracted facts. From the
//! batches since the stamp (the last [`DIRTY_LOG_CAP`] are kept; an older
//! result recomputes in full) one forward enumeration over the new index
//! ([`RangeCqa::affected_keys`]) finds the groups with an embedding, old or
//! new, through a dirty block; only those are re-derived, DRed-style, and
//! spliced into the cached rows — the keys stay ids from the log to the
//! splice, seated among an id-key column the cached result keeps beside its
//! rows. The cached result is **copy-on-write**: a
//! stale reader patches it in place under the statement's own lock, so a
//! patch costs the rows that changed, and rows an outcome a caller still
//! holds are copied once first ([`Arc::make_mut`]): a returned outcome never
//! changes. HAVING, ORDER BY and certain top-k are then re-derived from the
//! patched rows as a cold read derives them. A statement without HAVING and
//! ORDER BY presents its raw rows unchanged, so the cached basis and the
//! answer handed out share one `Arc<[GroupRange]>`. [`Session::execute_many`]
//! answers a batch against one pinned snapshot.
//!
//! ## Concurrency contract
//!
//! `Session` and `ShardedSession` are `Send + Sync`: share one behind an
//! `Arc` (or plain references inside [`std::thread::scope`]) across any
//! number of client threads. Readers of different statements never block
//! each other on the serving path — the only shared critical sections are
//! the snapshot-pointer clones, the front-end's statement-cache lookup (an
//! `RwLock` read), and counter updates. Readers of one statement take its
//! own lock: a hit holds it for an `Arc` clone, a stale read for the patch —
//! so readers at one pin patch once between them, the others reading the
//! patched result — and a cold read for the evaluation. Writers serialise
//! on the store and build the successor snapshot *outside* the readers'
//! critical section; publishing it is one pointer swap. Concurrent writers
//! coalesce into group commits ([`Session::apply_batch`]).
//!
//! ## Identical-answers guarantee
//!
//! Caching is transparent: every successful `execute` returns rows
//! byte-identical to what a cold session over the reader's **pinned**
//! snapshot (catalog, instance, options) would return, at every executor
//! thread count and under any interleaving with writers. The incrementally
//! maintained index is structurally identical to a cold rebuild
//! (`DbIndex::apply_delta` keeps facts and blocks at their cold-scan sorted
//! positions), and differential patching is sound because a group row's
//! interval is a function of the group's embeddings and of the blocks they
//! touch (a repair keeps an embedding iff it picks the embedding's fact in
//! each of those blocks): a group none of whose embeddings — before or after
//! the commits — touches a dirty block has the same embeddings over the same
//! blocks on both sides, and every other group is found by the delta
//! enumeration, because any embedding through a dirty block has a *first*
//! dirty level, the blocks before it are clean and so identical in the new
//! index, and its prefix is therefore enumerated there and admits the dirty
//! key (the argument is spelled out in [`rcqa_core::forall`], "Delta
//! enumeration").
//! That holds for every plan: the exact fallback (SUM's upper bound, AVG,
//! residual comparison predicates) enumerates the repairs of exactly those
//! blocks and budgets them per group, so its statements patch like any
//! other. What still recomputes in full is counted in
//! [`SessionStats::support_misses`], by reason in
//! [`Session::patch_reasons`]. `tests/serving_cache.rs`,
//! `tests/session_sql.rs`, and `tests/session_concurrent.rs` assert the
//! guarantee, including concurrent readers racing a writer and random
//! insert/delete interleavings checked against cold and crash-recovered
//! sessions after every commit.
//!
//! Every consumer — the experiment harness, the examples, and the
//! integration tests — goes through this one path, so the SQL parser, the
//! strategy table, and the (parallel) plan executor are exercised together
//! end to end:
//!
//! ```text
//! SQL string
//!   └─ normalize → statement cache        rcqa-session
//!      └─ parse_sql (catalog-driven)      rcqa-query      (cold only)
//!         └─ classify_with_domain         rcqa-core::classify
//!         └─ Plan (one BoundOp per bound) rcqa-core::plan
//!            └─ execute (worker pool)     rcqa-core::plan::exec
//!               └─ Vec<GroupRange>        range-consistent answers
//! ```
//!
//! ## Quick example
//!
//! ```
//! use rcqa_data::fact;
//! use rcqa_query::{Catalog, TableDef};
//! use rcqa_session::Session;
//!
//! let catalog = Catalog::new()
//!     .with_table(TableDef::new("Dealers").key_column("Name").column("Town"))
//!     .with_table(
//!         TableDef::new("Stock")
//!             .key_column("Product")
//!             .key_column("Town")
//!             .numeric_column("Qty"),
//!     );
//! let session = Session::new(catalog);
//! session
//!     .insert_all([
//!         fact!("Dealers", "Smith", "Boston"),
//!         fact!("Dealers", "Smith", "New York"),
//!         fact!("Stock", "Tesla X", "Boston", 35),
//!         fact!("Stock", "Tesla Y", "New York", 95),
//!     ])
//!     .unwrap();
//! let sql = "SELECT SUM(S.Qty) FROM Dealers AS D, Stock AS S \
//!            WHERE D.Town = S.Town AND D.Name = 'Smith'";
//! let outcome = session.execute(sql).unwrap();
//! assert_eq!(outcome.rows.len(), 1);
//! assert!(outcome.classification.attack_graph_acyclic);
//! // The repeat is served from the statement + result caches.
//! let again = session.execute(sql).unwrap();
//! assert_eq!(again.rows, outcome.rows);
//! assert_eq!(session.stats().result_hits, 1);
//! ```

#![warn(missing_docs)]

use rcqa_core::classify::Classification;
use rcqa_core::engine::{BoundAnswer, EngineOptions, GroupRange, RangeCqa};
use rcqa_core::index::DbIndex;
pub use rcqa_core::interval::HavingStatus;
use rcqa_core::{CoreError, RowSupport};
use rcqa_data::codec::FactRef;
use rcqa_data::{
    DataError, DatabaseInstance, DeltaEvent, Fact, NumericDomain, Rational, RelName, Schema,
};
use rcqa_query::{AggQuery, Catalog, HavingCond, OrderSpec, QueryError};
use rcqa_wal::{FsStorage, WalError, WalStorage};
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

pub use rcqa_wal::{SyncPolicy, WalOptions};

mod front;
mod sharded;
mod store;
use front::Front;
pub use sharded::{ShardedSession, ShardedStats};
use store::Store;

/// Errors raised by a [`Session`].
#[derive(Debug, Clone)]
pub enum SessionError {
    /// SQL parsing / translation failed.
    Query(QueryError),
    /// The engine rejected or failed to evaluate the query.
    Core(CoreError),
    /// A fact violated the catalog's schema.
    Data(DataError),
    /// An I/O operation on the durability layer failed. The commit that hit
    /// it was **not** published — the session keeps serving the last
    /// successfully committed snapshot. The underlying [`std::io::Error`] is
    /// chained through [`std::error::Error::source`].
    Io(Arc<std::io::Error>),
    /// The write-ahead log or a checkpoint is corrupt (recovery refused to
    /// guess at history it cannot verify).
    Wal(WalError),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Query(e) => write!(f, "SQL error: {e}"),
            SessionError::Core(e) => write!(f, "engine error: {e}"),
            SessionError::Data(e) => write!(f, "data error: {e}"),
            SessionError::Io(e) => write!(f, "durability I/O error: {e}"),
            SessionError::Wal(e) => write!(f, "durability error: {e}"),
        }
    }
}

impl std::error::Error for SessionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SessionError::Query(_) | SessionError::Core(_) | SessionError::Data(_) => None,
            SessionError::Io(e) => Some(&**e),
            SessionError::Wal(e) => Some(e),
        }
    }
}

impl From<QueryError> for SessionError {
    fn from(e: QueryError) -> SessionError {
        SessionError::Query(e)
    }
}

impl From<CoreError> for SessionError {
    fn from(e: CoreError) -> SessionError {
        SessionError::Core(e)
    }
}

impl From<DataError> for SessionError {
    fn from(e: DataError) -> SessionError {
        SessionError::Data(e)
    }
}

impl From<WalError> for SessionError {
    fn from(e: WalError) -> SessionError {
        match e {
            // Plain I/O failures (disk full, permissions, injected faults)
            // surface as `Io` so callers can treat them like any other I/O
            // error; only genuine log damage becomes `Wal`.
            WalError::Io(e) => SessionError::Io(e),
            corrupt => SessionError::Wal(corrupt),
        }
    }
}

impl From<std::io::Error> for SessionError {
    fn from(e: std::io::Error) -> SessionError {
        SessionError::Io(Arc::new(e))
    }
}

/// One immutable version of the session's data: the block index (with its
/// schema and numeric domain) and the epoch — the number of effective
/// mutations between the session's opening and this version.
///
/// The index is the snapshot's **one store** of facts, and every snapshot
/// has one: built by one sort when the session opens, from an instance or
/// from a checkpoint's facts, and when a commit loads an empty snapshot,
/// otherwise derived from the base snapshot's by [`DbIndex::apply_events`].
/// [`Snapshot::db`] materialises the facts as an instance on demand (tests,
/// oracles, comparing states); nothing on the serving path asks for it. A
/// session opened over an instance someone else holds keeps that instance
/// as its first snapshot's.
///
/// Snapshots are shared behind `Arc`s: readers pin one and evaluate against
/// it lock-free; writers derive the successor and swap the session's current
/// pointer. A snapshot is never mutated after publication.
#[derive(Debug)]
pub struct Snapshot {
    index: Arc<DbIndex>,
    /// [`Snapshot::db`]'s instance, once asked for (or handed over shared).
    db: OnceLock<Arc<DatabaseInstance>>,
    epoch: u64,
}

impl Snapshot {
    fn new(index: DbIndex, epoch: u64) -> Snapshot {
        Snapshot {
            index: Arc::new(index),
            db: OnceLock::new(),
            epoch,
        }
    }

    /// The snapshot's facts as a database instance, materialised from the
    /// index on the first call and shared by later ones: one pass over the
    /// index, and an instance's memory (about 150 B/fact, texts shared with
    /// the interner) while the snapshot or the returned `Arc` lives.
    pub fn db(&self) -> &Arc<DatabaseInstance> {
        self.db.get_or_init(|| {
            let schema = Schema::clone(self.index.schema());
            let mut db = DatabaseInstance::with_domain(schema.clone(), self.index.numeric_domain());
            // Rows come relation by relation: one name lookup per relation,
            // and no fact allocates a name of its own — a name allocated
            // per fact and freed by `load` would leave a hole beside every
            // fact, and whatever fills the holes later lands scattered.
            let mut name: Option<RelName> = None;
            let facts = self.index.rows().map(|row| {
                let relation = match &name {
                    Some(name) if **name == *row.relation() => name.clone(),
                    _ => name
                        .insert(schema.intern(row.relation()).expect("an indexed relation"))
                        .clone(),
                };
                Fact::with_name(relation, row.args().cloned())
            });
            db.load(facts.collect())
                .expect("indexed facts conform to the schema");
            Arc::new(db)
        })
    }

    /// The snapshot's epoch: effective mutations since the session opened.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The snapshot's block index. Always `Some`: every snapshot has one.
    pub fn index(&self) -> Option<&Arc<DbIndex>> {
        Some(&self.index)
    }
}

/// The result of executing one SQL query in a session.
#[derive(Clone, Debug)]
pub struct QueryOutcome {
    /// The translated AGGR\[sjfBCQ\] query (shared with the prepared
    /// statement — handing out an outcome on the warm path must not re-clone
    /// the translated AST).
    pub query: Arc<AggQuery>,
    /// The rewriting/complexity classification of the query over the
    /// session's numeric domain (shared with the prepared
    /// statement).
    pub classification: Arc<Classification>,
    /// Output column names: one per GROUP BY column, then the aggregate.
    pub columns: Vec<String>,
    /// One `[glb, lub]` interval per output row for the **first**
    /// SELECT-clause aggregate, after HAVING filtering and ORDER BY / LIMIT
    /// selection (sorted group-key order when neither is present). Shared
    /// with the session's result cache (an `Arc` slice), so serving a cached
    /// answer — and re-serving it to every later hit — never re-clones the
    /// rows.
    pub rows: Arc<[GroupRange]>,
    /// Row-aligned intervals of the second and later SELECT-clause
    /// aggregates (empty for single-aggregate statements). The group key of
    /// `more_aggregates[a][i]` equals `rows[i].key`.
    pub more_aggregates: Vec<Arc<[GroupRange]>>,
    /// Row-aligned HAVING trichotomy: for each output row, whether the
    /// HAVING conjunction holds in every repair (`Certain`), in some
    /// (`Possible`), or — never present here, such rows are dropped — in
    /// none (`Violated`). Empty when the statement has no HAVING clause.
    pub having: Arc<[HavingStatus]>,
    /// The epoch of the snapshot this answer was computed against — the
    /// version of the data the rows are byte-identical to a cold evaluation
    /// of.
    pub epoch: u64,
}

fn fmt_bound(v: Option<Rational>) -> String {
    match v {
        Some(r) => r.to_string(),
        None => "⊥".to_string(),
    }
}

impl QueryOutcome {
    /// Renders the answer as a plain-text table: group key columns, then a
    /// `glb`/`lub` pair per SELECT-clause aggregate (suffixed with the
    /// aggregate's column name when there is more than one), then — when the
    /// statement has a HAVING clause — its trichotomy status per row.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let agg_cols = 1 + self.more_aggregates.len();
        let key_cols = self.columns.len().saturating_sub(agg_cols);
        for c in &self.columns[..key_cols] {
            out.push_str(&format!("{c:<14} "));
        }
        for a in 0..agg_cols {
            if agg_cols == 1 {
                out.push_str(&format!("{:>12} {:>12}", "glb", "lub"));
            } else {
                let name = &self.columns[key_cols + a];
                out.push_str(&format!(
                    "{:>12} {:>12}",
                    format!("glb({name})"),
                    format!("lub({name})")
                ));
            }
            out.push(' ');
        }
        if !self.having.is_empty() {
            out.push_str(&format!("{:>10}", "having"));
        }
        while out.ends_with(' ') {
            out.pop();
        }
        out.push('\n');
        let bound = |b: &Option<BoundAnswer>| {
            b.as_ref()
                .map(|b| fmt_bound(b.value))
                .unwrap_or_else(|| "-".to_string())
        };
        for (i, row) in self.rows.iter().enumerate() {
            let mut line = String::new();
            for value in &row.key {
                line.push_str(&format!("{:<14} ", value.to_string()));
            }
            line.push_str(&format!("{:>12} {:>12} ", bound(&row.glb), bound(&row.lub)));
            for extra in &self.more_aggregates {
                let r = &extra[i];
                line.push_str(&format!("{:>12} {:>12} ", bound(&r.glb), bound(&r.lub)));
            }
            if let Some(status) = self.having.get(i) {
                line.push_str(&format!("{:>10}", status.to_string()));
            }
            while line.ends_with(' ') {
                line.pop();
            }
            out.push_str(&line);
            out.push('\n');
        }
        out
    }
}

/// A SQL statement prepared once and cached by the session: the parsed and
/// translated [`AggQuery`], its output column names, the fully prepared
/// [`RangeCqa`] engine (attack graph, level structure, interned variable
/// slots, routed comparison predicates), the [`Classification`] for the
/// session's numeric domain, and the static [`RowSupport`].
///
/// Statements are keyed by *normalized* SQL ([`Session::normalize_sql`]):
/// whitespace runs outside string literals collapse to one space, text
/// outside literals is case-folded, and a single trailing statement
/// terminator is dropped, so `select  x ;` and `SELECT X` share one cache
/// entry while literals like `'New  York'` stay distinct and case-sensitive.
/// Preparation is immutable after construction; per-statement *results* are
/// cached separately inside the session, versioned by the snapshot epoch.
#[derive(Debug)]
pub struct PreparedStatement {
    sql: String,
    query: Arc<AggQuery>,
    columns: Vec<String>,
    /// One fully prepared engine per aggregate of the statement (the first
    /// [`PreparedStatement::visible_aggregates`] are SELECT items, the rest
    /// are hidden HAVING / ORDER BY aggregates); they share one body and one
    /// predicate set, so their group keys align row for row.
    engines: Vec<RangeCqa>,
    visible_aggregates: usize,
    having: Vec<HavingCond>,
    order_by: Option<OrderSpec>,
    limit: Option<usize>,
    unsatisfiable: bool,
    classification: Arc<Classification>,
    support: RowSupport,
}

impl PreparedStatement {
    /// The normalized SQL text this statement is cached under.
    pub fn sql(&self) -> &str {
        &self.sql
    }

    /// The translated AGGR\[sjfBCQ\] query.
    pub fn query(&self) -> &AggQuery {
        &self.query
    }

    /// Output column names: one per GROUP BY column, then one per
    /// SELECT-clause aggregate.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// The classification of the query over the session's numeric
    /// domain (computed once at preparation).
    pub fn classification(&self) -> &Classification {
        &self.classification
    }

    /// The statement's [`RowSupport`]: per cached row, an over-approximation
    /// of the (relation, block-key) pairs the row's evaluation can touch — the
    /// same patterns whichever operators the plan picks, since they depend on
    /// the body alone. Only the sharded session's footprint counters read
    /// it; a stale read does not: the delta enumeration of
    /// [`RangeCqa::affected_keys`] finds the affected groups.
    pub(crate) fn support(&self) -> &RowSupport {
        &self.support
    }

    /// The primary engine (first SELECT-clause aggregate).
    fn engine(&self) -> &RangeCqa {
        &self.engines[0]
    }
}

/// Serving-layer counters, for tests, benchmarks, and observability.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Statements parsed, classified, and planned (cache misses).
    pub statements_prepared: u64,
    /// Executions that found their statement already prepared.
    pub statement_hits: u64,
    /// Executions answered entirely from a current cached result.
    pub result_hits: u64,
    /// Executions that recomputed only dirty groups and kept the rest.
    pub partial_recomputes: u64,
    /// Executions that ran the full pipeline.
    pub full_recomputes: u64,
    /// Stale cached results served by the patch path: the groups the
    /// commits' dirty blocks can affect were derived from the dirty keys and
    /// only they were re-derived.
    pub supported_patches: u64,
    /// Stale cached results the patch path could **not** serve (dirty
    /// history evicted past the retention cap, or an affected set so large a
    /// full pass is cheaper): these fell back to a full recompute.
    /// [`Session::patch_reasons`] splits the count by reason.
    pub support_misses: u64,
    /// Patched certain top-k results (`ORDER BY … LIMIT`) whose rows
    /// changed: each re-selects its top rows from the patched rows, as a
    /// cold read selects them. The rows themselves were patched, not
    /// recomputed.
    pub topk_fallbacks: u64,
    /// Index builds by one sort over at least one fact: opening over an
    /// instance, recovery, and each bulk load into an empty snapshot (1 for
    /// a serving session).
    pub index_builds: u64,
    /// Delta events replayed into a successor snapshot's index.
    pub deltas_applied: u64,
    /// Write batches appended to the write-ahead log (0 when in-memory).
    pub wal_appends: u64,
    /// Checkpoints a commit started: each on the commit that made it due,
    /// or the first commit after the one in flight finished. The file is
    /// written off the commit path, so a started checkpoint may still be
    /// in flight — or fail later.
    pub checkpoints: u64,
    /// Checkpoints that failed: found failed when their thread was joined
    /// (by a later commit, [`Session::sync`] or drop), or refused before it
    /// started. The commit that started one had already succeeded — its
    /// batch was on the log — so a failure only delays log truncation, and
    /// the checkpoint is due again at the next commit.
    pub checkpoint_failures: u64,
    /// Group commits: commits that coalesced the batches of more than one
    /// concurrent writer ([`Session::apply_batch`]) into one snapshot
    /// publish and at most one WAL append. One caller's batch, however many
    /// events it has, is not one; `batched_events / batched_commits` is the
    /// coalescing ratio.
    pub batched_commits: u64,
    /// Events carried by those group commits.
    pub batched_events: u64,
    /// Prepared statements evicted from the bounded statement cache
    /// (LRU, capacity [`STATEMENT_CACHE_CAP`]). Eviction drops the
    /// statement's cached result too; answers stay correct via
    /// re-preparation and recompute.
    pub statements_evicted: u64,
}

impl SessionStats {
    /// Field-wise sum. A session's counters are its front-end's reads plus
    /// its store's commits, added through this.
    pub fn merge(self, other: SessionStats) -> SessionStats {
        SessionStats {
            statements_prepared: self.statements_prepared + other.statements_prepared,
            statement_hits: self.statement_hits + other.statement_hits,
            result_hits: self.result_hits + other.result_hits,
            partial_recomputes: self.partial_recomputes + other.partial_recomputes,
            full_recomputes: self.full_recomputes + other.full_recomputes,
            supported_patches: self.supported_patches + other.supported_patches,
            support_misses: self.support_misses + other.support_misses,
            topk_fallbacks: self.topk_fallbacks + other.topk_fallbacks,
            index_builds: self.index_builds + other.index_builds,
            deltas_applied: self.deltas_applied + other.deltas_applied,
            wal_appends: self.wal_appends + other.wal_appends,
            checkpoints: self.checkpoints + other.checkpoints,
            checkpoint_failures: self.checkpoint_failures + other.checkpoint_failures,
            batched_commits: self.batched_commits + other.batched_commits,
            batched_events: self.batched_events + other.batched_events,
            statements_evicted: self.statements_evicted + other.statements_evicted,
        }
    }
}

/// The lock-free interior of [`SessionStats`]: relaxed atomic counters, so
/// the warm serving path never takes an exclusive section to account for
/// itself. A front-end bumps the read counters, a store the commit
/// counters.
#[derive(Debug, Default)]
struct AtomicStats {
    statements_prepared: AtomicU64,
    statement_hits: AtomicU64,
    result_hits: AtomicU64,
    partial_recomputes: AtomicU64,
    full_recomputes: AtomicU64,
    supported_patches: AtomicU64,
    support_misses: AtomicU64,
    topk_fallbacks: AtomicU64,
    index_builds: AtomicU64,
    deltas_applied: AtomicU64,
    wal_appends: AtomicU64,
    checkpoints: AtomicU64,
    checkpoint_failures: AtomicU64,
    batched_commits: AtomicU64,
    batched_events: AtomicU64,
    statements_evicted: AtomicU64,
    /// Misses by [`Miss`]; they sum to `support_misses`.
    misses: [AtomicU64; 2],
}

impl AtomicStats {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> SessionStats {
        SessionStats {
            statements_prepared: self.statements_prepared.load(Ordering::Relaxed),
            statement_hits: self.statement_hits.load(Ordering::Relaxed),
            result_hits: self.result_hits.load(Ordering::Relaxed),
            partial_recomputes: self.partial_recomputes.load(Ordering::Relaxed),
            full_recomputes: self.full_recomputes.load(Ordering::Relaxed),
            supported_patches: self.supported_patches.load(Ordering::Relaxed),
            support_misses: self.support_misses.load(Ordering::Relaxed),
            topk_fallbacks: self.topk_fallbacks.load(Ordering::Relaxed),
            index_builds: self.index_builds.load(Ordering::Relaxed),
            deltas_applied: self.deltas_applied.load(Ordering::Relaxed),
            wal_appends: self.wal_appends.load(Ordering::Relaxed),
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
            checkpoint_failures: self.checkpoint_failures.load(Ordering::Relaxed),
            batched_commits: self.batched_commits.load(Ordering::Relaxed),
            batched_events: self.batched_events.load(Ordering::Relaxed),
            statements_evicted: self.statements_evicted.load(Ordering::Relaxed),
        }
    }

    fn patch_reasons(&self) -> PatchReasons {
        let count = |miss: Miss| self.misses[miss as usize].load(Ordering::Relaxed);
        PatchReasons {
            history_evicted: count(Miss::HistoryEvicted),
            over_half: count(Miss::OverHalf),
        }
    }
}

/// Why a stale cached result could not be patched and was recomputed in full:
/// the reasons [`SessionStats::support_misses`] lumps together, one counter
/// each ([`Session::patch_reasons`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PatchReasons {
    /// The dirty history no longer reaches back to the cached epoch: evicted
    /// past [`DIRTY_LOG_CAP`] batches, or floored by a bulk load into an
    /// empty snapshot.
    pub history_evicted: u64,
    /// The delta affects more than half of the cached rows, past which a
    /// patch is the dearer arm on every statement measured (see
    /// `Front::try_patch` for the measurement behind the cut-off).
    pub over_half: u64,
}

impl PatchReasons {
    /// All misses: equals [`SessionStats::support_misses`].
    pub fn total(&self) -> u64 {
        self.history_evicted + self.over_half
    }
}

/// One miss, as `Front::try_patch` reports it; indexes the front-end's
/// per-reason counters.
#[derive(Clone, Copy, Debug)]
enum Miss {
    HistoryEvicted,
    OverHalf,
}

/// How many write batches of dirty-block history a session retains for
/// patching. A result cached before the oldest retained batch falls back to
/// a full recompute — still correct, just not differential — which
/// re-caches it at the reader's epoch. Caching shapes how the session
/// maintains state, never what an answer is.
pub const DIRTY_LOG_CAP: usize = 128;

/// How many prepared statements a session caches, keyed by normalized SQL.
/// Past it the least-recently-used statement is evicted together with its
/// cached result: eviction never changes answers, it only makes the evicted
/// statement re-prepare and recompute when it next runs.
pub const STATEMENT_CACHE_CAP: usize = 256;

/// A stateful, thread-safe SQL serving session: a front-end (catalog,
/// engine options, the statement cache with each statement's cached
/// result, the read counters) over one store (an immutable snapshot chain
/// of block index and epoch, the dirty log, the optional write-ahead log,
/// the commit counters).
///
/// `Session` is `Send + Sync`; see the [crate docs](self) for the
/// concurrency contract and the identical-answers guarantee.
pub struct Session {
    front: Front,
    store: Store,
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let snapshot = self.snapshot();
        f.debug_struct("Session")
            .field("facts", &snapshot.index.len())
            .field("options", &self.front.options())
            .field("epoch", &snapshot.epoch)
            .field("statements", &self.front.read_statements().len())
            .finish()
    }
}

impl Session {
    /// Opens a session over an empty index of the catalog's schema, numeric
    /// columns restricted to `Q≥0`.
    pub fn new(catalog: Catalog) -> Session {
        let index = DbIndex::empty(Arc::new(catalog.schema()), NumericDomain::NonNegative);
        Session {
            front: Front::new(catalog),
            store: Store::new(Snapshot::new(index, 0), None),
        }
    }

    /// Opens a session over an existing instance (whose schema should be the
    /// catalog's lowering), building its index — with the instance's schema
    /// and numeric domain — by one sort before returning. Accepts an owned
    /// instance or an `Arc`. An instance handed over whole is dropped once
    /// indexed ([`DbIndex::from_owned`]). A shared one stays as the first
    /// snapshot's [`Snapshot::db`] until a commit replaces that snapshot.
    pub fn with_instance(catalog: Catalog, db: impl Into<Arc<DatabaseInstance>>) -> Session {
        let snapshot = match Arc::try_unwrap(db.into()) {
            Ok(db) => Snapshot::new(DbIndex::from_owned(db), 0),
            Err(db) => {
                let snapshot = Snapshot::new(DbIndex::new(&db), 0);
                let _ = snapshot.db.set(db);
                snapshot
            }
        };
        Session {
            front: Front::new(catalog),
            store: Store::new(snapshot, None),
        }
    }

    /// Opens a **durable** session over the WAL directory `dir` with default
    /// [`WalOptions`] (fsync on every commit, checkpoint every 1024 epochs),
    /// recovering whatever state a previous process left there: the newest
    /// valid checkpoint's facts are indexed by one sort
    /// ([`DbIndex::from_facts`]) and the log tail is applied to that index
    /// ([`DbIndex::apply_events`]); no instance is built.
    ///
    /// A crash mid-append leaves a torn tail, which recovery truncates; any
    /// *interior* damage (a bad record before the tail, a broken epoch
    /// chain, a checkpoint and a log that disagree) is refused as
    /// [`SessionError::Wal`] rather than guessed around. An empty or missing
    /// directory opens an empty session at epoch 0. A directory in the
    /// per-shard layout of earlier sharded sessions (a `SHARDS` manifest
    /// beside one log per `shard-NNN` directory) is refused as
    /// [`SessionError::Wal`] naming that layout, not opened empty.
    pub fn open(catalog: Catalog, dir: impl AsRef<Path>) -> Result<Session, SessionError> {
        Session::open_with(catalog, dir, WalOptions::default())
    }

    /// [`Session::open`] with explicit [`WalOptions`] (fsync policy and
    /// checkpoint cadence).
    pub fn open_with(
        catalog: Catalog,
        dir: impl AsRef<Path>,
        options: WalOptions,
    ) -> Result<Session, SessionError> {
        let dir = dir.as_ref();
        if dir.join("SHARDS").exists() {
            return Err(SessionError::Wal(WalError::Corrupt {
                file: "SHARDS".to_string(),
                offset: 0,
                detail: "the directory is in the per-shard layout (a SHARDS manifest and \
                         one log per shard-NNN directory), which is no longer read: \
                         its facts must be loaded into a fresh directory"
                    .to_string(),
            }));
        }
        let storage = FsStorage::open(dir)?;
        Session::open_storage(catalog, Box::new(storage), options)
    }

    /// [`Session::open`] over any [`WalStorage`] implementation — the seam
    /// the crash-recovery tests use to run real recoveries against
    /// in-memory and deterministically failing storage.
    pub fn open_storage(
        catalog: Catalog,
        storage: Box<dyn WalStorage>,
        options: WalOptions,
    ) -> Result<Session, SessionError> {
        let store = Store::recover(catalog.schema(), storage, options)?;
        Ok(Session {
            front: Front::new(catalog),
            store,
        })
    }

    /// Overrides the engine options (the executor worker count).
    ///
    /// Cached statements embed the options they were prepared with, so the
    /// statement (and result) caches are cleared; the snapshot chain — and
    /// with it the cached index — is options-independent and survives.
    pub fn with_options(mut self, options: EngineOptions) -> Session {
        self.front = self.front.with_options(options);
        self
    }

    /// The session's catalog.
    pub fn catalog(&self) -> &Catalog {
        self.front.catalog()
    }

    /// The current database instance (the latest snapshot's, materialised
    /// by [`Snapshot::db`] on the first call at that snapshot). The returned
    /// `Arc` stays valid — and immutable — while writers move the session
    /// forward.
    pub fn database(&self) -> Arc<DatabaseInstance> {
        self.snapshot().db().clone()
    }

    /// The session's engine options.
    pub fn options(&self) -> EngineOptions {
        self.front.options()
    }

    /// The serving-layer counters: the front-end's reads and the store's
    /// commits.
    pub fn stats(&self) -> SessionStats {
        self.front.stats().merge(self.store.stats())
    }

    /// [`SessionStats::support_misses`] split by reason: why stale results
    /// went to a full recompute instead of the patch path.
    pub fn patch_reasons(&self) -> PatchReasons {
        self.front.patch_reasons()
    }

    /// The current epoch: effective mutations since the session opened.
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch
    }

    /// Pins the current snapshot: one `Arc` clone inside a short critical
    /// section. Everything evaluated against the returned snapshot is
    /// isolated from concurrent writers.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.store.snapshot()
    }

    /// Whether the session persists commits to a write-ahead log.
    pub fn is_durable(&self) -> bool {
        self.store.is_durable()
    }

    /// The last epoch known durable on storage (covered by an fsync or a
    /// checkpoint), or `None` for an in-memory session. Equals
    /// [`Session::epoch`] whenever the sync policy is
    /// [`SyncPolicy::Always`]; under `Never` it may trail it.
    pub fn durable_epoch(&self) -> Option<u64> {
        self.store.durable_epoch()
    }

    /// Forces an fsync of the write-ahead log, making every committed batch
    /// durable regardless of the sync policy. A no-op on in-memory sessions.
    ///
    /// First it waits for the checkpoint in flight, if any, and finishes
    /// it: once `sync` returns, that checkpoint is published and the log
    /// segments it covers are evicted — or, if its write failed, it counts
    /// in [`SessionStats::checkpoint_failures`], which does not fail the
    /// sync. Dropping a session waits for it the same way.
    pub fn sync(&self) -> Result<(), SessionError> {
        self.store.sync()
    }

    /// Applies a batch of change events as **one atomic commit** — one
    /// successor snapshot, one dirty-log entry, and (on a durable session)
    /// at most one WAL append for the whole batch. Returns one effectiveness
    /// flag per event, in order: `true` when the event changed the instance
    /// (the inserted fact was new / the deleted fact was present). No-op
    /// events cost nothing downstream — only effective events are logged.
    ///
    /// This is the single write path of the session: [`Session::insert`],
    /// [`Session::insert_all`], [`Session::delete`] and a sharded session's
    /// writes all land in this one store commit. If any insert violates the
    /// schema or the numeric domain the whole batch fails and nothing of it
    /// is published.
    ///
    /// The data is written once, into the index. Inserts are validated
    /// against the index's schema and numeric domain ([`Schema::validate`]);
    /// then [`DbIndex::apply_events`] derives the successor index from the
    /// base's **shared structure**, decides which events were effective and
    /// reports the dirty blocks kept for result patching. A base snapshot
    /// with an empty index is **bulk loaded** instead, into a fresh index —
    /// by one sort ([`DbIndex::from_facts`]) when the batch is distinct
    /// inserts — and the dirty log is floored: a result cached over no
    /// facts recomputes.
    /// That is the path of [`Session::new`] + [`Session::insert_all`], sharded
    /// or not.
    ///
    /// Copied per incremental commit: per written relation one spine (a
    /// pointer per node of 8–32 leaves of 128–256 blocks, and the leaf
    /// pointers of each node written), and per touched block one leaf of
    /// each sequence (two where a leaf splits or merges) plus the block's
    /// columns; index statistics are adjusted, not recomputed. A commit that
    /// interns a fresh value copies the interner overlay's spines and one
    /// node and leaf of each, not the overlay. With `n` the size of a
    /// written relation a batch costs `O(n / 1024 + |delta| · (log n + 32 +
    /// 256))` pointer copies, and a single-fact commit allocates what its
    /// index delta does plus the successor snapshot and its dirty-log entry
    /// (`tests/commit_allocations.rs`). Measured with timer-instrumented
    /// builds (10⁵ facts, 2 cores, two 20 s runs each), a commit averaged
    /// 34–35 µs on `serve_read_heavy` (25 µs replaying the index, 7 µs
    /// dropping the replaced snapshot, under 1 µs validating) and 88–103 µs
    /// on `serve_sharded` (74–88 and 10–11 µs). When every snapshot also
    /// kept a `DatabaseInstance` of the same facts it averaged 60–63 µs
    /// (20–21 µs writing the instance, 24–26 replaying, 14 dropping) and
    /// 146–157 µs (42–46, 77–83, 24–25). So a durable commit's floor is its
    /// WAL append and fsync, not this copy.
    /// Nothing here scans or copies a relation but a bulk load. A commit
    /// that makes a checkpoint due does not write it: under the writer lock
    /// it only starts a fresh log segment at its epoch and hands the
    /// snapshot it published to a thread of its own, which encodes every
    /// fact straight from that snapshot's index columns while the next
    /// commits go on ([`SessionStats::checkpoints`]).
    ///
    /// Writers serialise on the store's writer lock. One that finds it taken
    /// queues a copy of its batch, and the next to take it commits every
    /// queued batch as one **group commit** (one successor and WAL append):
    /// each caller gets its own flags as if committed one by one in queue
    /// order, and a batch violating the schema fails alone
    /// ([`SessionStats::batched_commits`]). Readers are never blocked for
    /// longer than the final pointer swap. For a durable session the
    /// effective events are appended to the write-ahead log — and fsynced
    /// per the [`SyncPolicy`] — **before** the successor is published: no
    /// reader can ever observe state the log might not remember. If the
    /// append fails, the commit fails, nothing is published, and the session
    /// keeps serving (and accepting reads of) the last committed snapshot —
    /// durability failures degrade writes, never reads.
    pub fn apply_batch(&self, events: &[DeltaEvent]) -> Result<Vec<bool>, SessionError> {
        self.store.apply_batch(events)
    }

    /// Inserts one fact. Returns `true` if the fact was new.
    pub fn insert(&self, fact: Fact) -> Result<bool, SessionError> {
        let flags = self.apply_batch(&[DeltaEvent::insert(fact)])?;
        Ok(flags[0])
    }

    /// Inserts many facts as **one atomic batch**: either every fact is
    /// applied and a single successor snapshot is published, or — if any
    /// fact violates the schema — nothing changes.
    pub fn insert_all(&self, facts: impl IntoIterator<Item = Fact>) -> Result<(), SessionError> {
        let events: Vec<DeltaEvent> = facts.into_iter().map(DeltaEvent::insert).collect();
        self.apply_batch(&events).map(drop)
    }

    /// Deletes one fact. Returns `true` if it was present.
    ///
    /// A deletion cannot violate the schema, but on a durable session the
    /// commit can still fail at the durability layer — hence the `Result`
    /// (this used to `expect`, which would have turned a full disk into a
    /// panic).
    pub fn delete(&self, fact: &Fact) -> Result<bool, SessionError> {
        let flags = self.apply_batch(&[DeltaEvent::delete(fact.clone())])?;
        Ok(flags[0])
    }

    /// Normalizes SQL text into its statement-cache key: whitespace runs
    /// *outside* string literals collapse to a single space, text outside
    /// literals is case-folded to uppercase (the parser is case-insensitive
    /// there), surrounding whitespace is trimmed, and one trailing statement
    /// terminator (`;`) is dropped. Literal contents — including
    /// doubled-quote escapes — are preserved verbatim.
    ///
    /// Delegates to [`rcqa_query::normalize_sql`], which lives next to the
    /// tokenizer so the cache key and the parser share one definition of
    /// where string literals begin and end.
    pub fn normalize_sql(sql: &str) -> String {
        rcqa_query::normalize_sql(sql)
    }

    /// Parses, classifies, and plans a SQL statement, caching it by
    /// normalized SQL; subsequent [`Session::execute`] / [`Session::explain`]
    /// calls with the same (normalized) text reuse the preparation.
    pub fn prepare(&self, sql: &str) -> Result<Arc<PreparedStatement>, SessionError> {
        self.front.prepare(&self.snapshot(), sql)
    }

    /// One read at a pinned snapshot.
    fn execute_at(&self, snapshot: &Snapshot, sql: &str) -> Result<QueryOutcome, SessionError> {
        let stmt = self.front.prepare(snapshot, sql)?;
        self.read_at(snapshot, &stmt)
    }

    /// One read of a prepared statement at a pinned snapshot: the
    /// front-end's read path over this session's store.
    fn read_at(
        &self,
        snapshot: &Snapshot,
        stmt: &PreparedStatement,
    ) -> Result<QueryOutcome, SessionError> {
        let rows = self.front.read(stmt, &self.store, snapshot)?;
        Ok(Front::outcome(stmt, rows, snapshot.epoch))
    }

    /// Executes a SQL aggregation query: classification plus one
    /// `[glb, lub]` interval per group. The query is evaluated against the
    /// snapshot current at call time, with no session-wide lock held during
    /// plan execution; statement, index, and (when current) result come from
    /// the session caches, and answers are always identical to a cold
    /// session's over the pinned snapshot.
    pub fn execute(&self, sql: &str) -> Result<QueryOutcome, SessionError> {
        let snapshot = self.snapshot();
        self.execute_at(&snapshot, sql)
    }

    /// Executes a batch of SQL queries against **one pinned snapshot**,
    /// returning one outcome per statement in order: the batch is mutually
    /// consistent even while writers commit concurrently. Fails on the first
    /// erroring statement.
    pub fn execute_many<S: AsRef<str>>(
        &self,
        sqls: impl IntoIterator<Item = S>,
    ) -> Result<Vec<QueryOutcome>, SessionError> {
        let snapshot = self.snapshot();
        sqls.into_iter()
            .map(|sql| self.execute_at(&snapshot, sql.as_ref()))
            .collect()
    }

    /// An `EXPLAIN`-style rendering of the pipeline [`Session::execute`]
    /// would run for this SQL query (served from the statement cache). The
    /// per-aggregate plan — including the access path taken, with its
    /// matched and total block counts — is followed by the session-level
    /// post-processing steps (HAVING trichotomy, ORDER BY, certain top-k).
    pub fn explain(&self, sql: &str) -> Result<String, SessionError> {
        let snapshot = self.snapshot();
        let stmt = self.front.prepare(&snapshot, sql)?;
        Ok(Front::explain(&stmt, &snapshot))
    }
}

// The serving contract: one session shared across client threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Session>();
    assert_send_sync::<Snapshot>();
    assert_send_sync::<PreparedStatement>();
    assert_send_sync::<QueryOutcome>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use rcqa_core::engine::Method;
    use rcqa_data::{fact, rat};
    use rcqa_query::TableDef;

    fn stock_session() -> Session {
        let catalog = Catalog::new()
            .with_table(TableDef::new("Dealers").key_column("Name").column("Town"))
            .with_table(
                TableDef::new("Stock")
                    .key_column("Product")
                    .key_column("Town")
                    .numeric_column("Qty"),
            );
        let session = Session::new(catalog);
        session
            .insert_all([
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
        session
    }

    #[test]
    fn grouped_sql_end_to_end() {
        let session = stock_session();
        let outcome = session
            .execute(
                "SELECT D.Name, SUM(S.Qty) FROM Dealers AS D, Stock AS S \
                 WHERE D.Town = S.Town GROUP BY D.Name",
            )
            .unwrap();
        assert_eq!(outcome.columns, vec!["Name".to_string(), "SUM".to_string()]);
        assert!(outcome.classification.attack_graph_acyclic);
        assert_eq!(outcome.rows.len(), 2);
        // Sorted group order: James before Smith.
        assert_eq!(outcome.rows[0].key[0].to_string(), "James");
        assert_eq!(outcome.rows[0].glb.unwrap().value, Some(rat(70)));
        assert_eq!(outcome.rows[0].lub.unwrap().value, Some(rat(75)));
        assert_eq!(outcome.rows[1].key[0].to_string(), "Smith");
        assert_eq!(outcome.rows[1].glb.unwrap().value, Some(rat(70)));
        assert_eq!(outcome.rows[1].lub.unwrap().value, Some(rat(96)));
        assert_eq!(outcome.rows[1].glb.unwrap().method, Method::Rewriting);
        let table = outcome.to_table();
        assert!(table.contains("James"), "{table}");
        assert!(table.contains("96"), "{table}");
    }

    #[test]
    fn session_respects_thread_option() {
        for threads in [1, 2, 8] {
            let session = stock_session().with_options(EngineOptions { threads });
            let outcome = session
                .execute(
                    "SELECT D.Name, MAX(S.Qty) FROM Dealers AS D, Stock AS S \
                     WHERE D.Town = S.Town GROUP BY D.Name",
                )
                .unwrap();
            assert_eq!(outcome.rows.len(), 2);
            assert_eq!(outcome.rows[1].lub.unwrap().value, Some(rat(96)));
        }
    }

    #[test]
    fn explain_shows_the_physical_pipeline() {
        let session = stock_session();
        let plan = session
            .explain(
                "SELECT D.Name, SUM(S.Qty) FROM Dealers AS D, Stock AS S \
                 WHERE D.Town = S.Town GROUP BY D.Name",
            )
            .unwrap();
        for op in [
            "RangeMerge",
            "AggregateBound",
            "ForallCheck",
            "PartitionByGroup",
            "Join",
            "Scan",
        ] {
            assert!(plan.contains(op), "missing {op} in:\n{plan}");
        }
    }

    #[test]
    fn errors_are_reported() {
        let session = stock_session();
        assert!(matches!(
            session.execute("SELECT SUM(S.Qty) FROM Nope AS S"),
            Err(SessionError::Query(_))
        ));
        assert!(matches!(
            session.execute("not even sql"),
            Err(SessionError::Query(_))
        ));
        // Schema-violating fact.
        let session = stock_session();
        assert!(matches!(
            session.insert(fact!("Dealers", "only-one-arg")),
            Err(SessionError::Data(_))
        ));
    }

    #[test]
    fn insert_all_batches_are_atomic() {
        let session = stock_session();
        let epoch = session.epoch();
        let before = session.database().len();
        // The second fact violates the schema: the whole batch must roll
        // back — no new snapshot, no partial insert.
        let result = session.insert_all([
            fact!("Dealers", "Lopez", "Chicago"),
            fact!("Dealers", "bad-arity"),
        ]);
        assert!(matches!(result, Err(SessionError::Data(_))));
        assert_eq!(session.epoch(), epoch);
        assert_eq!(session.database().len(), before);
        assert!(!session
            .database()
            .contains(&fact!("Dealers", "Lopez", "Chicago")));
    }

    #[test]
    fn normalization_collapses_whitespace_and_case_outside_literals() {
        assert_eq!(
            Session::normalize_sql("  select   sum(S.Qty)\n\tFROM Stock AS S ; "),
            "SELECT SUM(S.QTY) FROM STOCK AS S"
        );
        // Literal interiors (and doubled-quote escapes) survive untouched,
        // whitespace and case included.
        assert_eq!(
            Session::normalize_sql("SELECT  X FROM T WHERE A = 'New  York;' AND b = 'O''x  y'"),
            "SELECT X FROM T WHERE A = 'New  York;' AND B = 'O''x  y'"
        );
        // Only ONE trailing terminator is dropped; the parser rejects the
        // rest, so `…;;` normalizes to `…;` and still errors.
        assert_eq!(Session::normalize_sql("SELECT X;;"), "SELECT X;");
    }

    #[test]
    fn statement_cache_hits_by_normalized_sql() {
        let session = stock_session();
        let sql = "SELECT D.Name, MAX(S.Qty) FROM Dealers AS D, Stock AS S \
                   WHERE D.Town = S.Town GROUP BY D.Name";
        let first = session.execute(sql).unwrap();
        // Re-spelled with different whitespace, different keyword and
        // identifier case, and a trailing terminator.
        let respelled = "  select D.name,   max(S.Qty) from Dealers AS D, Stock AS S \
                         WHERE D.Town = S.Town GROUP BY D.Name ; ";
        let second = session.execute(respelled).unwrap();
        assert_eq!(first.rows, second.rows);
        let stats = session.stats();
        assert_eq!(stats.statements_prepared, 1);
        assert_eq!(stats.statement_hits, 1);
        assert_eq!(stats.result_hits, 1);
        assert_eq!(stats.index_builds, 1);
        // prepare() exposes the cached statement; output columns report the
        // catalog's spelling even though the cache key is case-folded.
        let stmt = session.prepare(sql).unwrap();
        assert_eq!(stmt.columns(), ["Name", "MAX"]);
        assert_eq!(stmt.support().atoms().len(), 2);
        assert_eq!(stmt.sql(), Session::normalize_sql(respelled));
    }

    #[test]
    fn mutations_invalidate_results_and_patch_dirty_groups() {
        let session = stock_session();
        let sql = "SELECT D.Name, MAX(S.Qty) FROM Dealers AS D, Stock AS S \
                   WHERE D.Town = S.Town GROUP BY D.Name";
        let before = session.execute(sql).unwrap();
        assert_eq!(before.rows.len(), 2);

        // A third dealer appears: the query must see it immediately.
        session
            .insert(fact!("Dealers", "Lopez", "New York"))
            .unwrap();
        let after = session.execute(sql).unwrap();
        assert_eq!(after.rows.len(), 3);
        assert_eq!(after.rows[1].key[0].to_string(), "Lopez");
        assert_eq!(after.rows[1].lub.unwrap().value, Some(rat(96)));
        // Untouched groups kept their rows; only the new group was computed.
        assert_eq!(after.rows[0], before.rows[0]);
        assert_eq!(after.rows[2], before.rows[1]);
        let stats = session.stats();
        assert_eq!(stats.partial_recomputes, 1);
        assert_eq!(stats.index_builds, 1, "the delta path must not rebuild");

        // Deleting the dealer again restores the original answer — and the
        // whole exchange must agree with a cold session at 1 and 4 threads.
        assert!(session
            .delete(&fact!("Dealers", "Lopez", "New York"))
            .unwrap());
        let restored = session.execute(sql).unwrap();
        assert_eq!(restored.rows, before.rows);
        for threads in [1, 4] {
            let cold = Session::with_instance(session.catalog().clone(), session.database())
                .with_options(EngineOptions { threads });
            assert_eq!(cold.execute(sql).unwrap().rows, restored.rows);
        }
    }

    #[test]
    fn non_key_group_mutations_are_patched_via_support() {
        let plain = "SELECT D.Name, MAX(S.Qty) FROM Dealers AS D, Stock AS S \
                     WHERE D.Town = S.Town GROUP BY D.Name";
        // A post-processed statement rides the same path: the patch
        // re-derives the raw rows and HAVING is re-decided over them (James
        // is violated before the write and certain after it).
        let having = "SELECT D.Name, MAX(S.Qty) FROM Dealers AS D, Stock AS S \
                      WHERE D.Town = S.Town GROUP BY D.Name HAVING MAX(S.Qty) > 50";
        for sql in [plain, having] {
            let session = stock_session();
            session.execute(sql).unwrap();
            // The group key (Name) is not determined by Stock's block key, so
            // the old level-0 locality certificate rejected this statement;
            // the support patterns still localise the dirty Stock block to
            // the groups whose towns it can join with, and both Boston
            // dealers are re-derived — with the correct new answer.
            session
                .insert(fact!("Stock", "Tesla Z", "Boston", 500))
                .unwrap();
            let after = session.execute(sql).unwrap();
            assert_eq!(after.rows[0].key[0].to_string(), "James", "{sql}");
            assert_eq!(after.rows[0].lub.unwrap().value, Some(rat(500)), "{sql}");
            let stats = session.stats();
            assert_eq!(stats.partial_recomputes, 1, "{sql}");
            assert_eq!(stats.supported_patches, 1, "{sql}");
            assert_eq!(stats.support_misses, 0, "{sql}");
            assert_eq!(stats.full_recomputes, 1, "{sql}");
            assert_eq!(stats.index_builds, 1, "{sql}");
            // Every further write-then-read is served by the support path
            // too, never by a full recompute.
            session
                .insert(fact!("Stock", "Tesla Z", "New York", 7))
                .unwrap();
            let again = session.execute(sql).unwrap();
            let stats = session.stats();
            assert_eq!(stats.supported_patches, 2, "{sql}");
            assert_eq!(stats.support_misses, 0, "{sql}");
            assert_eq!(stats.full_recomputes, 1, "{sql}");
            // Byte-identical to a cold session over the same data.
            let cold = Session::with_instance(session.catalog().clone(), session.database())
                .execute(sql)
                .unwrap();
            assert_eq!(cold.rows, again.rows, "{sql}");
            assert_eq!(cold.having, again.having, "{sql}");
        }
    }

    /// 40 dealers, two per town over 20 towns, one `p0` stock block per town
    /// (two alternatives in the even towns): results of 40 and 20 rows, so
    /// the half-the-rows rule is live — which the 4-dealer fixture, under the
    /// rule's 16-row floor, never exercises.
    fn towns_session() -> Session {
        let session = Session::new(stock_session().catalog().clone());
        let mut facts = Vec::new();
        for d in 0..40 {
            facts.push(fact!(
                "Dealers",
                format!("d{d:02}"),
                format!("t{:02}", d % 20)
            ));
        }
        for t in 0..20 {
            facts.push(fact!("Stock", "p0", format!("t{t:02}"), 10 + t));
            if t % 2 == 0 {
                facts.push(fact!("Stock", "p0", format!("t{t:02}"), 60 + t));
            }
        }
        session.insert_all(facts).unwrap();
        session
    }

    fn assert_equals_cold(session: &Session, sql: &str, got: &QueryOutcome) {
        for threads in [1, 4] {
            let cold = Session::with_instance(session.catalog().clone(), session.database())
                .with_options(EngineOptions { threads })
                .execute(sql)
                .unwrap();
            assert_eq!(cold.rows, got.rows, "{sql} @{threads}T");
            assert_eq!(
                cold.more_aggregates, got.more_aggregates,
                "{sql} @{threads}T"
            );
            assert_eq!(cold.having, got.having, "{sql} @{threads}T");
        }
    }

    /// An outcome's rows, copied out: what an outcome held across later
    /// patches must still read.
    type Copied = (Vec<GroupRange>, Vec<Vec<GroupRange>>, Vec<HavingStatus>);

    fn copied(outcome: &QueryOutcome) -> Copied {
        (
            outcome.rows.to_vec(),
            outcome.more_aggregates.iter().map(|r| r.to_vec()).collect(),
            outcome.having.to_vec(),
        )
    }

    #[test]
    fn held_outcomes_never_change_and_unshared_results_patch_in_place() {
        let session = stock_session();
        let base = "SELECT S.Product, S.Town, MAX(S.Qty), MIN(S.Qty) FROM Stock AS S \
                    GROUP BY S.Product, S.Town";
        let statements = [
            base.to_string(),
            format!("{base} HAVING MAX(S.Qty) > 36"),
            format!("{base} ORDER BY MAX(S.Qty) DESC LIMIT 2"),
        ];
        let mut held: Vec<(QueryOutcome, Copied)> = Vec::new();
        let mut read_and_hold = |session: &Session| {
            for sql in &statements {
                let outcome = session.execute(sql).unwrap();
                assert_equals_cold(session, sql, &outcome);
                let copy = copied(&outcome);
                held.push((outcome, copy));
            }
            for (outcome, copy) in &held {
                assert_eq!(copied(outcome), *copy);
            }
        };
        read_and_hold(&session);
        // A value change (the group set stays), a new group, and a vanished
        // group, each read while every earlier outcome is still held.
        session
            .insert(fact!("Stock", "Tesla Y", "Boston", 37))
            .unwrap();
        read_and_hold(&session);
        session
            .insert(fact!("Stock", "Tesla Q", "Erie", 3))
            .unwrap();
        read_and_hold(&session);
        session
            .delete(&fact!("Stock", "Tesla Y", "Boston", 35))
            .unwrap();
        session
            .delete(&fact!("Stock", "Tesla Y", "Boston", 37))
            .unwrap();
        read_and_hold(&session);
        let stats = session.stats();
        assert_eq!(stats.full_recomputes, 3);
        assert_eq!(stats.supported_patches, 9);
        // Every write changed the plain statement's rows.
        let plain: Vec<&Copied> = held
            .iter()
            .step_by(statements.len())
            .map(|h| &h.1)
            .collect();
        assert!(plain.windows(2).all(|pair| pair[0] != pair[1]));
        // With no outcome held, a value change patches the cached rows where
        // they are.
        drop(held);
        let (rows, more, before) = {
            let out = session.execute(base).unwrap();
            (
                out.rows.as_ptr(),
                out.more_aggregates[0].as_ptr(),
                copied(&out),
            )
        };
        session
            .insert(fact!("Stock", "Tesla X", "Boston", 41))
            .unwrap();
        let after = session.execute(base).unwrap();
        assert_equals_cold(&session, base, &after);
        assert_ne!(copied(&after), before);
        assert_eq!(session.stats().supported_patches, 10);
        assert_eq!(after.rows.as_ptr(), rows);
        assert_eq!(after.more_aggregates[0].as_ptr(), more);
    }

    #[test]
    fn probe_side_writes_patch_a_join() {
        const JOIN: &str = "FROM Dealers AS D, Stock AS S WHERE D.Town = S.Town GROUP BY D.Name";
        let statements = [
            format!("SELECT D.Name, MAX(S.Qty) {JOIN}"),
            format!("SELECT D.Name, MAX(S.Qty), MIN(S.Qty) {JOIN}"),
            format!("SELECT D.Name, MAX(S.Qty) {JOIN} HAVING MAX(S.Qty) >= 30"),
            format!("SELECT D.Name, MAX(S.Qty) {JOIN} ORDER BY MAX(S.Qty) DESC LIMIT 3"),
        ];
        type Write = fn(&Session);
        let writes: [(&str, Write); 5] = [
            ("S insert opening a block", |s| {
                assert!(s.insert(fact!("Stock", "p1", "t03", 77)).unwrap());
            }),
            ("S conflicting insert", |s| {
                assert!(s.insert(fact!("Stock", "p0", "t05", 5)).unwrap());
            }),
            ("S fact delete", |s| {
                assert!(s.delete(&fact!("Stock", "p0", "t04", 64)).unwrap());
            }),
            ("delete of two groups' only partner block", |s| {
                assert!(s.delete(&fact!("Stock", "p0", "t19", 29)).unwrap());
            }),
            ("a batch mixing sides", |s| {
                let flags = s
                    .apply_batch(&[
                        DeltaEvent::insert(fact!("Dealers", "d99", "t02")),
                        DeltaEvent::insert(fact!("Stock", "p9", "t19", 3)),
                        DeltaEvent::delete(fact!("Stock", "p0", "t06", 16)),
                        DeltaEvent::delete(fact!("Dealers", "d07", "t07")),
                    ])
                    .unwrap();
                assert_eq!(flags, [true; 4]);
            }),
        ];
        for sql in &statements {
            let session = towns_session();
            assert_eq!(session.execute(sql).unwrap().epoch, session.epoch());
            for (step, (what, write)) in writes.iter().enumerate() {
                write(&session);
                let got = session.execute(sql).unwrap();
                let stats = session.stats();
                // At this size a miss *is* the statement "over half the
                // groups were affected" — which a probe-side pattern of `Any`
                // made true of the first S write.
                assert_eq!(stats.support_misses, 0, "{sql}: {what}");
                assert_eq!(
                    session.patch_reasons(),
                    PatchReasons::default(),
                    "{sql}: {what}"
                );
                assert_eq!(stats.supported_patches, step as u64 + 1, "{sql}: {what}");
                assert_eq!(stats.full_recomputes, 1, "{sql}: {what}");
                assert_eq!(stats.index_builds, 1, "{sql}: {what}");
                assert_equals_cold(&session, sql, &got);
            }
            // The partner-block delete retracted d19 and d39; the batch gave
            // them a partner back, added d99 and removed d07.
            let plain = session.execute(&statements[0]).unwrap();
            assert_eq!(plain.rows.len(), 40);
        }
    }

    #[test]
    fn a_group_bound_past_the_dirty_key_is_patched_from_the_retracted_facts() {
        // Grouping by Town — a non-key column of Dealers — leaves a dirty
        // Dealers block's group unbound by its key, and the town a deleted
        // fact named is not in the new index. The dirty log keeps the deleted
        // fact, and the delta enumeration walks the block with it put back.
        let sql = "SELECT D.Town, MAX(S.Qty) FROM Dealers AS D, Stock AS S \
                   WHERE D.Town = S.Town GROUP BY D.Town";
        let session = stock_session();
        assert_eq!(session.execute(sql).unwrap().rows.len(), 2);
        assert!(session
            .delete(&fact!("Dealers", "Smith", "New York"))
            .unwrap());
        let got = session.execute(sql).unwrap();
        assert_eq!(got.rows.len(), 1, "New York lost its only dealer");
        assert_equals_cold(&session, sql, &got);
        let stats = session.stats();
        assert_eq!((stats.supported_patches, stats.support_misses), (1, 0));
        // A Stock write reaches the same statement through its join prefix.
        session
            .insert(fact!("Stock", "Tesla Z", "Boston", 500))
            .unwrap();
        let got = session.execute(sql).unwrap();
        assert_eq!(got.rows[0].lub.unwrap().value, Some(rat(500)));
        assert_eq!(session.stats().supported_patches, 2);
        // Twenty rows: t19 loses both its dealers over two commits, and one
        // group of the twenty is re-derived.
        let session = towns_session();
        assert_eq!(session.execute(sql).unwrap().rows.len(), 20);
        assert!(session.delete(&fact!("Dealers", "d19", "t19")).unwrap());
        assert!(session.delete(&fact!("Dealers", "d39", "t19")).unwrap());
        let got = session.execute(sql).unwrap();
        assert_eq!(got.rows.len(), 19);
        assert_equals_cold(&session, sql, &got);
        let stats = session.stats();
        assert_eq!((stats.supported_patches, stats.support_misses), (1, 0));
        // One batch retracts a dealer and its town's stock: t04 keeps its
        // other dealer, d24, but no partner block.
        let flags = session
            .apply_batch(&[
                DeltaEvent::delete(fact!("Dealers", "d04", "t04")),
                DeltaEvent::delete(fact!("Stock", "p0", "t04", 14)),
                DeltaEvent::delete(fact!("Stock", "p0", "t04", 64)),
            ])
            .unwrap();
        assert_eq!(flags, [true; 3]);
        let got = session.execute(sql).unwrap();
        assert_eq!(got.rows.len(), 18);
        assert_equals_cold(&session, sql, &got);
        // An S-side write on the same statement patches too.
        session.insert(fact!("Stock", "p1", "t03", 77)).unwrap();
        let got = session.execute(sql).unwrap();
        assert_equals_cold(&session, sql, &got);
        let stats = session.stats();
        assert_eq!(
            (
                stats.supported_patches,
                stats.support_misses,
                stats.full_recomputes
            ),
            (3, 0, 1)
        );
        assert_eq!(session.patch_reasons(), PatchReasons::default());
    }

    #[test]
    fn every_miss_is_counted_under_one_reason() {
        let join = "SELECT D.Name, MAX(S.Qty) FROM Dealers AS D, Stock AS S \
                    WHERE D.Town = S.Town GROUP BY D.Name";
        let session = towns_session();
        // SUM's lub enumerates repairs — of the blocks a town's embeddings
        // touch, so the statement goes through the patch path like the join.
        let sum = "SELECT S.Town, SUM(S.Qty) FROM Stock AS S GROUP BY S.Town";
        session.execute(join).unwrap();
        session.execute(sum).unwrap();
        // One batch touching the stock of 11 of the 20 towns: 22 of the
        // join's 40 groups, 11 of the sum's 20.
        let batch: Vec<DeltaEvent> = (0..11)
            .map(|t| DeltaEvent::insert(fact!("Stock", "p1", format!("t{t:02}"), 1)))
            .collect();
        session.apply_batch(&batch).unwrap();
        for sql in [join, sum] {
            let got = session.execute(sql).unwrap();
            assert_equals_cold(&session, sql, &got);
        }
        assert_eq!(session.patch_reasons().over_half, 2);
        // One commit more than the history retains, each on one town.
        for i in 0..=DIRTY_LOG_CAP {
            session
                .insert(fact!("Stock", format!("q{i}"), "t00", 2))
                .unwrap();
        }
        let got = session.execute(join).unwrap();
        assert_equals_cold(&session, join, &got);
        let reasons = session.patch_reasons();
        assert_eq!(
            reasons,
            PatchReasons {
                history_evicted: 1,
                over_half: 2,
            }
        );
        assert_eq!(reasons.total(), session.stats().support_misses);
        assert_eq!(session.stats().supported_patches, 0);
    }

    #[test]
    fn over_budget_dirty_history_full_recomputes_correctly() {
        let session = stock_session();
        let sql = "SELECT D.Name, MAX(S.Qty) FROM Dealers AS D, Stock AS S \
                   WHERE D.Town = S.Town GROUP BY D.Name";
        let mut dealers = 0;
        let mut commits = |n: usize| {
            for _ in 0..n {
                session
                    .insert(fact!("Dealers", format!("d{dealers:03}"), "Boston"))
                    .unwrap();
                dealers += 1;
            }
        };
        session.execute(sql).unwrap();
        // A result `DIRTY_LOG_CAP` single-fact commits behind still patches:
        // the retained history reaches back exactly to its epoch.
        commits(DIRTY_LOG_CAP);
        let patched = session.execute(sql).unwrap();
        assert_eq!(patched.rows.len(), 2 + DIRTY_LOG_CAP);
        let stats = session.stats();
        assert_eq!((stats.supported_patches, stats.support_misses), (1, 0));
        // One commit more and the first batch's dirty blocks are evicted past
        // the cap: the cached result predates the retained history and must
        // answer via an honest full recompute, still correctly.
        commits(DIRTY_LOG_CAP + 1);
        let after = session.execute(sql).unwrap();
        assert_eq!(after.rows.len(), 3 + 2 * DIRTY_LOG_CAP);
        let stats = session.stats();
        assert_eq!(stats.partial_recomputes, 1);
        assert_eq!(stats.supported_patches, 1);
        assert_eq!(stats.support_misses, 1);
        assert_eq!(stats.full_recomputes, 2);
        assert_eq!(session.patch_reasons().history_evicted, 1);
        let cold = Session::with_instance(session.catalog().clone(), session.database());
        assert_eq!(cold.execute(sql).unwrap().rows, after.rows);
    }

    #[test]
    fn execute_many_amortises_one_snapshot() {
        let session = stock_session();
        let sqls = [
            "SELECT D.Name, MAX(S.Qty) FROM Dealers AS D, Stock AS S \
             WHERE D.Town = S.Town GROUP BY D.Name",
            "SELECT D.Name, MIN(S.Qty) FROM Dealers AS D, Stock AS S \
             WHERE D.Town = S.Town GROUP BY D.Name",
            // Repeat of the first: a result hit inside the batch.
            "SELECT D.Name, MAX(S.Qty) FROM Dealers AS D, Stock AS S \
             WHERE D.Town = S.Town GROUP BY D.Name",
        ];
        let outcomes = session.execute_many(sqls).unwrap();
        assert_eq!(outcomes.len(), 3);
        assert_eq!(outcomes[0].rows, outcomes[2].rows);
        // One pinned snapshot: every outcome carries the same epoch.
        assert!(outcomes.iter().all(|o| o.epoch == outcomes[0].epoch));
        let stats = session.stats();
        assert_eq!(stats.statements_prepared, 2);
        assert_eq!(stats.result_hits, 1);
        assert_eq!(stats.index_builds, 1);
        // An error anywhere surfaces as the batch error.
        assert!(session
            .execute_many(["SELECT SUM(S.Qty) FROM Nope AS S"])
            .is_err());
    }

    #[test]
    fn clone_and_with_options_keep_answers_identical() {
        let session = stock_session();
        let sql = "SELECT D.Name, MAX(S.Qty) FROM Dealers AS D, Stock AS S \
                   WHERE D.Town = S.Town GROUP BY D.Name";
        let warm = session.execute(sql).unwrap();
        // with_options invalidates statements (they embed options) but keeps
        // the snapshot chain and its index.
        let reopt = session.with_options(EngineOptions { threads: 2 });
        assert_eq!(reopt.execute(sql).unwrap().rows, warm.rows);
        let stats = reopt.stats();
        assert_eq!(stats.statements_prepared, 2, "statement cache was cleared");
        assert_eq!(stats.index_builds, 1, "index survives re-option");
    }

    #[test]
    fn snapshots_pin_a_version_while_writers_advance() {
        let session = stock_session();
        let sql = "SELECT D.Name, MAX(S.Qty) FROM Dealers AS D, Stock AS S \
                   WHERE D.Town = S.Town GROUP BY D.Name";
        let before = session.execute(sql).unwrap();
        let pinned = session.snapshot();
        assert_eq!(pinned.epoch(), before.epoch);

        session
            .insert(fact!("Dealers", "Lopez", "New York"))
            .unwrap();
        // The live session sees the write; the pinned snapshot does not.
        assert_eq!(session.execute(sql).unwrap().rows.len(), 3);
        assert_eq!(pinned.db().len(), 8);
        assert_eq!(session.database().len(), 9);
        assert_eq!(session.epoch(), pinned.epoch() + 1);
        // A cold session over the pinned instance reproduces the pinned-era
        // answer exactly.
        let cold = Session::with_instance(session.catalog().clone(), pinned.db().clone());
        assert_eq!(cold.execute(sql).unwrap().rows, before.rows);
    }

    #[test]
    fn concurrent_readers_and_writer_agree_with_cold_sessions() {
        let session = stock_session();
        let sql = "SELECT D.Name, MAX(S.Qty) FROM Dealers AS D, Stock AS S \
                   WHERE D.Town = S.Town GROUP BY D.Name";
        let baseline = session.execute(sql).unwrap();
        let writes = 6u64;
        std::thread::scope(|scope| {
            let session = &session;
            for _ in 0..4 {
                scope.spawn(move || {
                    for _ in 0..12 {
                        let outcome = session.execute(sql).unwrap();
                        // Reads are snapshot-isolated: 2 base rows plus one
                        // per committed write at the pinned epoch.
                        assert_eq!(
                            outcome.rows.len() as u64,
                            2 + outcome.epoch - baseline.epoch
                        );
                    }
                });
            }
            scope.spawn(move || {
                for i in 0..writes {
                    session
                        .insert(fact!("Dealers", format!("w{i}"), "Boston"))
                        .unwrap();
                }
            });
        });
        assert_eq!(session.epoch(), baseline.epoch + writes);
        let final_rows = session.execute(sql).unwrap().rows;
        let cold = Session::with_instance(session.catalog().clone(), session.database());
        assert_eq!(cold.execute(sql).unwrap().rows, final_rows);
    }

    #[test]
    fn statement_cache_evicts_lru_and_eviction_never_changes_answers() {
        // Four statement shapes under distinct predicates: one statement more
        // than the cache holds, and one more again.
        let shapes = [
            ("SELECT MAX(S.Qty) FROM Stock AS S", ""),
            ("SELECT MIN(S.Qty) FROM Stock AS S", ""),
            ("SELECT SUM(S.Qty) FROM Stock AS S", ""),
            (
                "SELECT S.Town, MAX(S.Qty) FROM Stock AS S",
                " GROUP BY S.Town",
            ),
        ];
        let statements: Vec<String> = (0..STATEMENT_CACHE_CAP + 2)
            .map(|i| {
                let (select, group_by) = shapes[i % shapes.len()];
                format!("{select} WHERE S.Product <> 'P{i}'{group_by}")
            })
            .collect();
        let session = stock_session();
        let cached = |sql: &str| {
            session
                .front
                .read_statements()
                .contains_key(&Session::normalize_sql(sql))
        };
        // A full cache evicts nothing …
        for sql in &statements[..STATEMENT_CACHE_CAP] {
            session.execute(sql).unwrap();
        }
        assert_eq!(session.stats().statements_evicted, 0);
        // … and the next statement evicts exactly the least recently used
        // one: the second, once the first has been used again.
        session.execute(&statements[0]).unwrap();
        session.execute(&statements[STATEMENT_CACHE_CAP]).unwrap();
        assert_eq!(session.stats().statements_evicted, 1);
        assert!(cached(&statements[0]) && cached(&statements[STATEMENT_CACHE_CAP]));
        assert!(!cached(&statements[1]));
        // Thrash the cache in an order that evicts every statement, with
        // writes in between so evicted statements lose their cached results
        // too: answers equal a cold session's.
        for round in 0..2u64 {
            let transient = fact!("Stock", format!("P{round}"), "Boston", round as i64);
            session.insert(transient.clone()).unwrap();
            for sql in statements.iter().chain(statements.iter().rev()) {
                session.execute(sql).unwrap();
            }
            session.delete(&transient).unwrap();
        }
        assert_eq!(session.front.read_statements().len(), STATEMENT_CACHE_CAP);
        let cold = stock_session();
        for sql in &statements {
            let out = session.execute(sql).unwrap();
            assert_eq!(out.rows, cold.execute(sql).unwrap().rows, "{sql}");
        }
    }
}
