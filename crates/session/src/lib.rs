//! # rcqa-session
//!
//! The SQL serving layer of the workspace: a **stateful, thread-safe** session
//! that owns a named-column [`Catalog`], [`EngineOptions`], and — unlike a
//! one-shot evaluation — the derived state a server needs to answer the same
//! queries over a slowly-changing instance without rebuilding the world per
//! call:
//!
//! * an **immutable snapshot chain**: the session's data lives in a
//!   [`Snapshot`] — one `Arc<DbIndex>` (the interned, block-sorted store
//!   the executor reads; no instance of the same facts beside it), the
//!   schema and numeric domain, and a monotonically increasing epoch.
//!   [`Session::execute`] clones the current snapshot `Arc` out of a short
//!   critical section and evaluates against it with **no session-wide lock
//!   held**, so concurrent readers feed the parallel plan executor
//!   simultaneously; writers ([`Session::insert`], [`Session::insert_all`],
//!   [`Session::delete`]) build the *successor* snapshot out of the base's
//!   **shared structure**: per-relation indexes are `Arc`-shared, and inside
//!   them blocks sit in chunked copy-on-write sequences
//!   ([`rcqa_data::ChunkedSeq`]), so the successor pointer-bumps every
//!   relation the batch does not touch and, in a written relation, copies
//!   one spine plus one leaf per touched block (`DbIndex::apply_events`) — a
//!   single-fact commit costs a few hundred pointer copies whatever the size
//!   of the relation or the database — then atomically swaps it in.
//!   In-flight readers keep their pinned snapshot: reads are
//!   **snapshot-isolated**, never torn;
//! * a **prepared-statement cache**: [`Session::prepare`] parses,
//!   classifies, and plans a SQL string once; `execute`/`explain` look
//!   statements up by *normalized* SQL (whitespace collapsed and text
//!   case-folded outside string literals, one trailing `;` stripped), so
//!   textual re-submissions of the same query never re-parse, never re-run
//!   attack-graph classification, and never re-plan. The cache holds
//!   [`STATEMENT_CACHE_CAP`] statements and evicts the least recently used;
//! * a **per-statement result cache with delta-proportional differential
//!   maintenance**: answers are cached against the epoch they were computed
//!   at, and nothing else is recorded with them. Each commit logs its dirty
//!   block keys as the interned ids its index reported
//!   ([`DbIndex::apply_events`]), never as values: ids are append-only along
//!   the session's snapshot line, so a later snapshot's index reads them as
//!   they are, and a bulk load — which starts a fresh id space — floors the
//!   log. A reader whose pinned epoch
//!   is ahead of the cached result takes the dirty block keys and the
//!   retracted facts committed in between (the last [`DIRTY_LOG_CAP`] write
//!   batches are retained; an older result recomputes in full) and derives,
//!   **forward from those keys over the new index**, the group keys with an
//!   embedding — old or new — through a dirty block
//!   ([`RangeCqa::affected_keys`]; where a group is bound only past the dirty
//!   key, over the new index with the retracted facts put back): one
//!   enumeration that covers births, value changes and retractions, at
//!   `O(|dirty| · log rows)` plus the join prefix in front of the dirty atom.
//!   It then re-derives **only** that key set —
//!   DRed-style: affected groups are over-deleted and re-derived, so
//!   retracted groups vanish and new groups appear — and splices the
//!   re-derived rows into the cached ones, deciding "nothing changed" from
//!   the re-derived rows alone. The cached result is **copy-on-write**: the
//!   statement's entry is the only long-lived owner of its rows, and a stale
//!   reader patches it in place under the statement's own lock — re-derived
//!   rows overwrite their seats when the group set holds, and otherwise the
//!   kept rows *move* into one exactly-sized slice — so a patch costs the
//!   rows that changed, not a copy of the result. Rows an outcome a caller
//!   still holds shares are copied once first ([`Arc::make_mut`]): a
//!   returned outcome never changes. HAVING trichotomy and certain
//!   top-k are then re-decided from the patched row set; top-k falls back to
//!   a full selection recompute only when pairwise interval precedence
//!   shifted, i.e. membership could change (counted in
//!   [`SessionStats::topk_fallbacks`]). A statement without HAVING and
//!   ORDER BY presents its raw rows unchanged, so the cached basis and the
//!   answer handed out share one `Arc<[GroupRange]>`;
//! * a **batch API**: [`Session::execute_many`] answers a whole batch
//!   against one pinned snapshot, so the batch is mutually consistent even
//!   with concurrent writers.
//!
//! ## Concurrency contract
//!
//! `Session` is `Send + Sync`: share one session behind an `Arc` (or plain
//! references inside [`std::thread::scope`]) across any number of client
//! threads. Readers of different statements never block each other on the
//! serving path — the only shared critical sections are the
//! snapshot-pointer clone, the statement-cache lookup (an `RwLock` read),
//! and counter updates. Readers of one statement take its own lock: a hit
//! holds it for an `Arc` clone, a stale read for the patch — so readers at
//! one pin patch once between them, the others reading the patched result
//! — and a cold read for the evaluation. Writers
//! serialise among themselves and build the successor snapshot *outside* the
//! readers' critical section; publishing it is one pointer swap.
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
use rcqa_core::engine::{BoundAnswer, EngineOptions, GroupRange, Method, RangeCqa};
use rcqa_core::index::{DbIndex, DirtyKeys};
pub use rcqa_core::interval::HavingStatus;
use rcqa_core::interval::{
    certain_topk, having_status, having_status_all, order_rows, topk_selection_preserved,
};
use rcqa_core::{CoreError, RowSupport};
use rcqa_data::codec::FactRef;
use rcqa_data::{DataError, DatabaseInstance, DeltaEvent, DeltaOp, Fact, Rational, RelName, Value};
use rcqa_query::{parse_sql, AggQuery, Catalog, HavingCond, OrderSpec, QueryError};
use rcqa_wal::{FsStorage, Wal, WalError, WalStorage};
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock};

pub use rcqa_wal::{SyncPolicy, WalOptions};

mod sharded;
pub use sharded::{ShardedSession, ShardedStats};

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

/// One immutable version of the session's data: the block index, the
/// schema and numeric domain, and the epoch — the number of effective
/// mutations between the session's opening and this version.
///
/// The index is the snapshot's **one store** of facts, and every snapshot
/// has one: built by one sort when the session opens or recovers and when a
/// commit loads an empty snapshot, otherwise derived from the base
/// snapshot's by [`DbIndex::apply_events`]. [`Snapshot::db`] materialises
/// the facts as an instance on demand (tests, oracles, comparing states);
/// nothing on the serving path asks for it. A session opened over an
/// instance someone else holds, or recovered into one, keeps that instance
/// as its first snapshot's.
///
/// Snapshots are shared behind `Arc`s: readers pin one and evaluate against
/// it lock-free; writers derive the successor and swap the session's current
/// pointer. A snapshot is never mutated after publication.
#[derive(Debug)]
pub struct Snapshot {
    index: Arc<DbIndex>,
    /// The schema and the numeric domain, as an instance without facts that
    /// every snapshot of the session shares.
    shape: Arc<DatabaseInstance>,
    /// [`Snapshot::db`]'s instance, once asked for (or recovered).
    db: OnceLock<Arc<DatabaseInstance>>,
    epoch: u64,
}

impl Snapshot {
    fn new(index: DbIndex, shape: Arc<DatabaseInstance>, epoch: u64) -> Snapshot {
        Snapshot {
            index: Arc::new(index),
            shape,
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
            let mut db = self.shape.empty_like();
            // Rows come relation by relation: one name lookup per relation,
            // and no fact allocates a name of its own — a name allocated
            // per fact and freed by `load` would leave a hole beside every
            // fact, and whatever fills the holes later lands scattered.
            let schema = db.schema().clone();
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

    /// Checks an event as a commit does: an insert's fact must conform to
    /// the schema and the numeric domain; any delete is valid (one naming no
    /// stored fact is a no-op).
    fn validate(&self, event: &DeltaEvent) -> Result<(), DataError> {
        match event.op {
            DeltaOp::Insert => self.shape.validate(&event.fact),
            DeltaOp::Delete => Ok(()),
        }
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
    /// session instance's numeric domain (shared with the prepared
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
    /// How many data partitions the answer was assembled from: always `1`
    /// for a plain [`Session`]; for a [`ShardedSession`] the number of
    /// shards the route consulted (1 for a designated-shard route, the shard
    /// count for a fan-out or cross-shard combine).
    pub shards: usize,
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
/// session instance's numeric domain, and the static [`RowSupport`] — which
/// shard route is sound.
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

    /// The classification of the query over the session instance's numeric
    /// domain (computed once at preparation).
    pub fn classification(&self) -> &Classification {
        &self.classification
    }

    /// The statement's [`RowSupport`]: per cached row, an over-approximation
    /// of the (relation, block-key) pairs the row's evaluation can touch — the
    /// same patterns whichever operators the plan picks, since they depend on
    /// the body alone. A stale read does not consult it (the delta
    /// enumeration of [`RangeCqa::affected_keys`] finds the affected groups);
    /// it is the sharded front-end's routing certificate.
    pub fn support(&self) -> &RowSupport {
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
    /// Patched results whose certain top-k selection had to be recomputed
    /// because some pairwise interval precedence shifted — top-k membership
    /// could change, so reusing the cached selection would be unsound. The
    /// rows themselves were still patched, not recomputed.
    pub topk_fallbacks: u64,
    /// Index builds by one sort over at least one fact: opening over an
    /// instance, recovery, and each bulk load into an empty snapshot (1 for
    /// a serving session).
    pub index_builds: u64,
    /// Delta events replayed into a successor snapshot's index.
    pub deltas_applied: u64,
    /// Write batches appended to the write-ahead log (0 when in-memory).
    pub wal_appends: u64,
    /// Checkpoints written successfully.
    pub checkpoints: u64,
    /// Checkpoint attempts that failed (the commit itself still succeeded —
    /// the batch was already on the log — so these only delay truncation).
    pub checkpoint_failures: u64,
    /// Commits that applied a coalesced multi-event batch through
    /// [`Session::apply_batch`] — one snapshot publish and at most one WAL
    /// append for the whole batch. The sharded front-end's group-commit
    /// coordinator drives this counter; `wal_appends / batched_commits`
    /// against `batched_events` shows the coalescing ratio.
    pub batched_commits: u64,
    /// Events carried by those coalesced batches.
    pub batched_events: u64,
    /// Prepared statements evicted from the bounded statement cache
    /// (LRU, capacity [`STATEMENT_CACHE_CAP`]). Eviction drops the
    /// statement's cached result too; answers stay correct via
    /// re-preparation and recompute.
    pub statements_evicted: u64,
}

impl SessionStats {
    /// Field-wise sum. The sharded front-end reports every shard's counters
    /// and their total through this.
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

/// The complete row block of one statement's answer at one epoch: the
/// primary aggregate's rows, the later visible aggregates' row-aligned
/// intervals, and the row-aligned HAVING statuses.
#[derive(Clone, Debug, Default)]
struct CachedRows {
    rows: Arc<[GroupRange]>,
    more: Vec<Arc<[GroupRange]>>,
    having: Arc<[HavingStatus]>,
}

/// One statement's cached answer at one epoch: the post-processed
/// presentation ([`CachedRows`]) **and** the raw per-aggregate group rows it
/// was derived from — the patch basis differential maintenance re-derives
/// affected rows against (the presentation alone is not patchable: HAVING
/// has dropped rows and top-k has reordered them).
///
/// The result is **copy-on-write**: its statement's entry is the only
/// long-lived owner of its rows, and a read hands out `Arc` clones of the
/// presentation. A stale read patches the result in place under the
/// statement's lock ([`Session::try_patch`], [`Session::splice`]): rows no
/// outcome still holds are overwritten or moved, never copied, and rows an
/// outcome still holds are copied once first, so a held outcome never
/// changes.
#[derive(Debug)]
struct CachedResult {
    epoch: u64,
    /// Raw rows per aggregate engine (SELECT items first, then hidden
    /// HAVING / ORDER BY aggregates), each in sorted group-key order and
    /// key-aligned across aggregates. A statement whose presentation is the
    /// raw rows themselves (no HAVING, no ORDER BY) shares these very slices
    /// with [`CachedRows`] — one copy of the rows, not two.
    raw: Box<[Arc<[GroupRange]>]>,
    rows: CachedRows,
}

/// A statement's cached results, behind the statement's own lock
/// ([`CachedStatement::results`]): a stale reader holds it while it patches,
/// so readers of one statement at one pin patch it once between them, and
/// readers of other statements never wait for it.
#[derive(Debug, Default)]
struct StatementResults {
    result: Option<CachedResult>,
    /// The sharded front-end's merged result of a fan-out statement (never
    /// set on a plain session's statements): the front-end's only copy of
    /// those rows — the shards never see the statement.
    fanout: Option<CachedResult>,
    /// The per-shard epochs `fanout` reflects.
    frontier: Box<[u64]>,
}

/// One cached statement plus its last computed results (if any), versioned
/// by the epoch they were computed at.
#[derive(Debug)]
struct CachedStatement {
    stmt: Arc<PreparedStatement>,
    /// Shared so a reader can take the statement's lock after leaving the
    /// statement map's; an entry evicted meanwhile takes its results along
    /// once that reader is done.
    results: Arc<Mutex<StatementResults>>,
    /// LRU stamp from the session's cache clock, touched on every lookup
    /// hit. An atomic so the warm read path can touch it under the
    /// statement map's shared **read** lock.
    last_used: AtomicU64,
}

/// The lock-free interior of [`SessionStats`]: relaxed atomic counters, so
/// the warm serving path never takes an exclusive section to account for
/// itself.
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

/// One committed write batch as result patching needs it: the blocks it
/// changed, as [`DbIndex::apply_events`] reported them — per relation, the
/// blocks' key ids as flat rows, in the id space of the index the batch
/// produced — and the facts it retracted (its effective deletes, moved here
/// from the logged events).
#[derive(Debug)]
struct DirtyBatch {
    blocks: Vec<DirtyKeys>,
    retracted: Box<[Fact]>,
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

/// One partition a stale result patches through ([`Session::try_patch`]):
/// its pinned snapshot and the batches committed to it since the result was
/// cached.
struct PatchSource<'s> {
    snapshot: &'s Snapshot,
    log: Vec<Arc<DirtyBatch>>,
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
    /// `Session::try_patch` for the measurement behind the cut-off).
    pub over_half: u64,
}

impl PatchReasons {
    /// Field-wise sum (the sharded front-end adds its shards, its fan-out
    /// results and its mirror).
    pub fn merge(self, other: PatchReasons) -> PatchReasons {
        PatchReasons {
            history_evicted: self.history_evicted + other.history_evicted,
            over_half: self.over_half + other.over_half,
        }
    }

    /// All misses: equals [`SessionStats::support_misses`].
    pub fn total(&self) -> u64 {
        self.history_evicted + self.over_half
    }
}

/// One miss, as [`Session::try_patch`] reports it; indexes the session's
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

/// A stateful, thread-safe SQL serving session: catalog + engine options +
/// an immutable snapshot chain (block index, epoch), plus cached derived
/// state (prepared statements, versioned results).
///
/// `Session` is `Send + Sync`; see the [crate docs](self) for the
/// concurrency contract and the identical-answers guarantee.
pub struct Session {
    catalog: Catalog,
    options: EngineOptions,
    /// The swap point: readers share the read lock to clone the `Arc` out
    /// of a short critical section; the writer takes the write lock only
    /// for the final pointer swap.
    current: RwLock<Arc<Snapshot>>,
    /// Serialises writers; never taken by the read path.
    writer: Mutex<()>,
    /// Prepared statements and their versioned results, keyed by normalized
    /// SQL. Readers share the read lock on the serving path.
    statements: RwLock<HashMap<String, CachedStatement>>,
    /// Dirty-block history for result patching.
    maintenance: Mutex<Maintenance>,
    /// Monotonic LRU clock for the bounded statement cache: bumped on every
    /// statement touch, stored into the touched entry's `last_used`.
    cache_clock: AtomicU64,
    /// The durability layer, when the session was opened over storage
    /// ([`Session::open`] and friends); `None` for in-memory sessions. Only
    /// ever locked while holding [`Session::writer`] (commits) or briefly
    /// from observability accessors — never on the read/serving path.
    wal: Mutex<Option<Wal>>,
    stats: AtomicStats,
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let snapshot = self.snapshot();
        f.debug_struct("Session")
            .field("facts", &snapshot.index.len())
            .field("options", &self.options)
            .field("epoch", &snapshot.epoch)
            .field("statements", &self.read_statements().len())
            .finish()
    }
}

impl Session {
    /// Opens a session over an empty instance of the catalog's schema.
    pub fn new(catalog: Catalog) -> Session {
        let db = DatabaseInstance::new(catalog.schema());
        Session::with_instance(catalog, db)
    }

    /// Opens a session over an existing instance (whose schema should be the
    /// catalog's lowering), building its index by one sort before returning.
    /// Accepts an owned instance or an `Arc`. An instance handed over whole
    /// is dropped once indexed ([`DbIndex::from_owned`]): the session keeps
    /// the index, the schema and the numeric domain. A shared one stays as
    /// the first snapshot's [`Snapshot::db`] until a commit replaces that
    /// snapshot.
    pub fn with_instance(catalog: Catalog, db: impl Into<Arc<DatabaseInstance>>) -> Session {
        Session::open_over(catalog, db.into(), 0, None)
    }

    /// A session whose first snapshot indexes `db` at `epoch`. An instance
    /// someone else still holds stays as that snapshot's [`Snapshot::db`]
    /// — it costs nothing while they hold it, and it goes when a commit
    /// replaces the snapshot; the only reference is indexed with texts of
    /// the index's own and dropped ([`DbIndex::from_owned`]). A build over
    /// facts counts in [`SessionStats::index_builds`]; indexing an empty
    /// instance is not a build.
    fn open_over(
        catalog: Catalog,
        db: Arc<DatabaseInstance>,
        epoch: u64,
        wal: Option<Wal>,
    ) -> Session {
        let (shape, built) = (Arc::new(db.empty_like()), !db.is_empty());
        let snapshot = match Arc::try_unwrap(db) {
            Ok(db) => Snapshot::new(DbIndex::from_owned(db), shape, epoch),
            Err(db) => {
                let snapshot = Snapshot::new(DbIndex::new(&db), shape, epoch);
                let _ = snapshot.db.set(db);
                snapshot
            }
        };
        let session = Session {
            catalog,
            options: EngineOptions::default(),
            current: RwLock::new(Arc::new(snapshot)),
            writer: Mutex::new(()),
            statements: RwLock::new(HashMap::new()),
            maintenance: Mutex::new(Maintenance::default()),
            cache_clock: AtomicU64::new(0),
            wal: Mutex::new(wal),
            stats: AtomicStats::default(),
        };
        if built {
            AtomicStats::bump(&session.stats.index_builds);
        }
        session
    }

    /// Opens a **durable** session over the WAL directory `dir` with default
    /// [`WalOptions`] (fsync on every commit, checkpoint every 1024 epochs),
    /// recovering whatever state a previous process left there: the newest
    /// valid checkpoint, bulk-loaded into an instance, plus a replay of the
    /// log tail into that instance, which is then indexed by one sort and
    /// kept as the first snapshot's [`Snapshot::db`] until a commit replaces
    /// that snapshot.
    ///
    /// A crash mid-append leaves a torn tail, which recovery truncates; any
    /// *interior* damage (a bad record before the tail, a broken epoch
    /// chain) is refused as [`SessionError::Wal`] rather than guessed
    /// around. An empty or missing directory opens an empty session at
    /// epoch 0.
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
        let storage = FsStorage::open(dir.as_ref())?;
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
        let (wal, recovery) = Wal::open(storage, options)?;
        let mut db = DatabaseInstance::new(catalog.schema());
        // One bulk load: the checkpoint's facts go straight into
        // exact-capacity leaves instead of through per-fact inserts.
        let checkpointed = recovery.checkpoint_facts.len();
        if db.load(recovery.checkpoint_facts)? != checkpointed {
            return Err(SessionError::Wal(WalError::Corrupt {
                file: rcqa_wal::checkpoint_name(recovery.checkpoint_epoch),
                offset: 0,
                detail: "checkpoint contains a duplicate fact".to_string(),
            }));
        }
        // Every logged event was *effective* when committed (the session
        // only logs effective deltas), so each must be effective on replay
        // too; a no-op means the checkpoint and the log disagree.
        for batch in &recovery.batches {
            for event in &batch.events {
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
        // Held here while the session opens, the recovered instance stays
        // as the first snapshot's materialised view rather than being freed
        // in the middle of opening.
        let db = Arc::new(db);
        Ok(Session::open_over(
            catalog,
            db.clone(),
            recovery.epoch,
            Some(wal),
        ))
    }

    /// Overrides the engine options (the executor worker count).
    ///
    /// Cached statements embed the options they were prepared with, so the
    /// statement (and result) caches are cleared; the snapshot chain — and
    /// with it the cached index — is options-independent and survives.
    pub fn with_options(mut self, options: EngineOptions) -> Session {
        self.options = options;
        self.statements
            .get_mut()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
        self
    }

    /// Bumps the LRU clock and stamps the entry as just-used.
    fn touch(&self, entry: &CachedStatement) {
        let stamp = self.cache_clock.fetch_add(1, Ordering::Relaxed) + 1;
        entry.last_used.store(stamp, Ordering::Relaxed);
    }

    /// The session's catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
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
        self.options
    }

    /// The serving-layer counters.
    pub fn stats(&self) -> SessionStats {
        self.stats.snapshot()
    }

    /// [`SessionStats::support_misses`] split by reason: why stale results
    /// went to a full recompute instead of the patch path.
    pub fn patch_reasons(&self) -> PatchReasons {
        self.stats.patch_reasons()
    }

    /// The current epoch: effective mutations since the session opened.
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch
    }

    /// Pins the current snapshot: one `Arc` clone inside a short critical
    /// section. Everything evaluated against the returned snapshot is
    /// isolated from concurrent writers.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.current
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    // Lock poisoning is not propagated anywhere in the session: every piece
    // of guarded state is either rebuildable from a snapshot (index, caches)
    // or monotonic bookkeeping (stats, dirty log), so a reader that panicked
    // mid-update cannot leave them semantically torn.
    fn read_statements(&self) -> std::sync::RwLockReadGuard<'_, HashMap<String, CachedStatement>> {
        self.statements.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write_statements(
        &self,
    ) -> std::sync::RwLockWriteGuard<'_, HashMap<String, CachedStatement>> {
        self.statements.write().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_maintenance(&self) -> MutexGuard<'_, Maintenance> {
        self.maintenance.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_wal(&self) -> MutexGuard<'_, Option<Wal>> {
        self.wal.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Whether the session persists commits to a write-ahead log.
    pub fn is_durable(&self) -> bool {
        self.lock_wal().is_some()
    }

    /// The last epoch known durable on storage (covered by an fsync or a
    /// checkpoint), or `None` for an in-memory session. Equals
    /// [`Session::epoch`] whenever the sync policy is
    /// [`SyncPolicy::Always`]; under `Never` it may trail it.
    pub fn durable_epoch(&self) -> Option<u64> {
        self.lock_wal().as_ref().map(|w| w.durable_epoch())
    }

    /// Forces an fsync of the write-ahead log, making every committed batch
    /// durable regardless of the sync policy. A no-op on in-memory sessions.
    pub fn sync(&self) -> Result<(), SessionError> {
        match self.lock_wal().as_mut() {
            Some(wal) => Ok(wal.sync()?),
            None => Ok(()),
        }
    }

    /// Applies a batch of change events as **one atomic commit** — one
    /// successor snapshot, one dirty-log entry, and (on a durable session)
    /// at most one WAL append for the whole batch. Returns one effectiveness
    /// flag per event, in order: `true` when the event changed the instance
    /// (the inserted fact was new / the deleted fact was present). No-op
    /// events cost nothing downstream — only effective events are logged.
    ///
    /// This is the single write path of the session: [`Session::insert`],
    /// [`Session::insert_all`], [`Session::delete`] and the sharded
    /// front-end's group commits all land here. If any insert violates the
    /// schema or the numeric domain the whole batch fails and nothing is
    /// published.
    ///
    /// The data is written once, into the index. Inserts are validated
    /// ([`DatabaseInstance::validate`]); then [`DbIndex::apply_events`]
    /// derives the successor index from the base's **shared structure**,
    /// decides which events were effective and reports the dirty blocks
    /// kept for result patching. A base snapshot with an empty index is
    /// **bulk loaded** instead: the events go into a scratch instance that
    /// is indexed by one sort ([`DbIndex::from_owned`]) and dropped, and
    /// the dirty log is floored — a result cached over no facts recomputes.
    /// That is the path of [`Session::new`] + [`Session::insert_all`] and of
    /// the first load of every shard and of the sharded mirror.
    ///
    /// Copied per incremental commit: per written relation one spine (a
    /// pointer per leaf of 128–256 blocks), and per touched block one leaf
    /// of each sequence (two where a leaf splits or merges) plus the block's
    /// columns; index statistics are adjusted, not recomputed. A commit that
    /// interns a fresh value copies the interner overlay's spines and one
    /// leaf of each, not the overlay. With `n` the size of a written
    /// relation a batch costs `O(n / 128 + |delta| · (log n + 256))` pointer
    /// copies, and a single-fact commit allocates what its index delta does
    /// plus the successor snapshot and its dirty-log entry
    /// (`tests/commit_allocations.rs`). Measured with timer-instrumented
    /// builds (10⁵ facts, 2 cores, two 20 s runs each), a commit averaged
    /// 34–35 µs on `serve_read_heavy` (25 µs replaying the index, 7 µs
    /// dropping the replaced snapshot, under 1 µs validating) and 88–103 µs
    /// on `serve_sharded` (74–88 and 10–11 µs). When every snapshot also
    /// kept a `DatabaseInstance` of the same facts it averaged 60–63 µs
    /// (20–21 µs writing the instance, 24–26 replaying, 14 dropping) and
    /// 146–157 µs (42–46, 77–83, 24–25). So a durable commit's floor is its
    /// WAL append and fsync, not this copy.
    /// Nothing here scans or copies a relation; what still does: the
    /// checkpoint a commit may trigger (it encodes every fact, straight from
    /// the index's columns) and a bulk load.
    ///
    /// Writers serialise on the session's writer lock; readers are never blocked
    /// for longer than the final pointer swap. For a durable session the
    /// effective events are appended to the write-ahead log — and fsynced
    /// per the [`SyncPolicy`] — **before** the successor is published: no
    /// reader can ever observe state the log might not remember. If the
    /// append fails, the commit fails, nothing is published, and the session
    /// keeps serving (and accepting reads of) the last committed snapshot —
    /// durability failures degrade writes, never reads.
    pub fn apply_batch(&self, events: &[DeltaEvent]) -> Result<Vec<bool>, SessionError> {
        let _writer = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let base = self.snapshot();
        let (index, flags, blocks) = if base.index.is_empty() {
            // The scratch instance validates what it takes in.
            let (db, flags) = Self::bulk_load(&base.shape, events)?;
            if !db.is_empty() {
                AtomicStats::bump(&self.stats.index_builds);
            }
            (DbIndex::from_owned(db), flags, None)
        } else {
            for event in events {
                base.validate(event)?;
            }
            // Cheap: the clone shares every relation's index with the base;
            // `apply_events` path-copies the dirty leaves.
            let mut index = (*base.index).clone();
            let (flags, blocks) = index.apply_events(events);
            (index, flags, Some(blocks))
        };
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
        {
            let mut wal = self.lock_wal();
            if let Some(wal) = wal.as_mut() {
                wal.append(epoch, effective)?;
                AtomicStats::bump(&self.stats.wal_appends);
            }
        }
        {
            let mut maintenance = self.lock_maintenance();
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
        {
            let mut wal = self.lock_wal();
            if let Some(wal) = wal.as_mut() {
                if wal.checkpoint_due() {
                    match wal.checkpoint(epoch, snapshot.index.rows()) {
                        Ok(()) => AtomicStats::bump(&self.stats.checkpoints),
                        Err(_) => AtomicStats::bump(&self.stats.checkpoint_failures),
                    }
                }
            }
        }
        if events.len() > 1 {
            AtomicStats::bump(&self.stats.batched_commits);
            self.stats
                .batched_events
                .fetch_add(events.len() as u64, Ordering::Relaxed);
        }
        Ok(flags)
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
        let snapshot = self.snapshot();
        self.prepare_at(&snapshot, sql)
    }

    fn prepare_at(
        &self,
        snapshot: &Snapshot,
        sql: &str,
    ) -> Result<Arc<PreparedStatement>, SessionError> {
        let key = Self::normalize_sql(sql);
        if let Some(entry) = self.read_statements().get(&key) {
            let stmt = entry.stmt.clone();
            self.touch(entry);
            AtomicStats::bump(&self.stats.statement_hits);
            return Ok(stmt);
        }
        // Parse, classify, and plan outside every lock: concurrent
        // preparations of the same statement are idempotent and the first
        // one to publish wins.
        let translated = parse_sql(&key, &self.catalog)?;
        let schema = self.catalog.schema();
        let mut engines = Vec::with_capacity(translated.aggregates.len());
        for agg in &translated.aggregates {
            engines.push(
                RangeCqa::new(agg, &schema)?
                    .with_predicates(translated.predicates.clone())?
                    .with_options(self.options),
            );
        }
        let domain = snapshot.shape.numeric_domain();
        let classification = engines[0].classification(domain);
        // One support for the statement: its engines share one body and one
        // predicate set, and a support depends on nothing else.
        let support = engines[0].row_support(domain);
        let stmt = Arc::new(PreparedStatement {
            sql: key.clone(),
            query: Arc::new(translated.query),
            columns: translated.output_columns,
            engines,
            visible_aggregates: translated.visible_aggregates,
            having: translated.having,
            order_by: translated.order_by,
            limit: translated.limit,
            unsatisfiable: translated.unsatisfiable,
            classification: Arc::new(classification),
            support,
        });
        let mut statements = self.write_statements();
        match statements.entry(key) {
            Entry::Occupied(entry) => {
                let racing = entry.get();
                let stmt = racing.stmt.clone();
                self.touch(racing);
                AtomicStats::bump(&self.stats.statement_hits);
                Ok(stmt)
            }
            Entry::Vacant(slot) => {
                let entry = CachedStatement {
                    stmt: stmt.clone(),
                    results: Arc::default(),
                    last_used: AtomicU64::new(0),
                };
                self.touch(&entry);
                slot.insert(entry);
                if statements.len() > STATEMENT_CACHE_CAP {
                    // Evict the least-recently-used statement, with its
                    // cached result.
                    let coldest = statements
                        .iter()
                        .min_by_key(|(_, entry)| entry.last_used.load(Ordering::Relaxed))
                        .map(|(key, _)| key.clone())
                        .expect("a cache over its cap is not empty");
                    statements.remove(&coldest);
                    AtomicStats::bump(&self.stats.statements_evicted);
                }
                AtomicStats::bump(&self.stats.statements_prepared);
                Ok(stmt)
            }
        }
    }

    /// The batches committed over `(from, to]` — their dirty block keys, in
    /// the id space of this session's indexes, and retracted facts — oldest
    /// first, or `None` if the retained history does
    /// not reach back to `from` (the log was floored by a bulk load or
    /// evicted past its cap in between). Only pointers are cloned under the
    /// lock; batches may repeat a block or a fact.
    fn dirty_since(&self, from: u64, to: u64) -> Option<Vec<Arc<DirtyBatch>>> {
        let maintenance = self.lock_maintenance();
        if from < maintenance.log_floor {
            return None;
        }
        Some(
            maintenance
                .dirty_log
                .iter()
                .filter(|(e, _)| *e > from && *e <= to)
                .map(|(_, batch)| batch.clone())
                .collect(),
        )
    }

    /// Where each of `keys` (sorted) sits among `rows` (sorted by key):
    /// `Ok(i)` when row `i` has the key, `Err(i)` when a row with it would be
    /// inserted before row `i`. Each search resumes behind the previous seat,
    /// so the cost is `O(|keys| · log |rows|)` key comparisons.
    fn seats(rows: &[GroupRange], keys: &[Vec<Value>]) -> Vec<Result<usize, usize>> {
        let mut from = 0;
        keys.iter()
            .map(|key| {
                let seat = rows[from..].binary_search_by(|row| row.key.cmp(key));
                let seat = seat.map(|i| i + from).map_err(|i| i + from);
                from = seat.map_or_else(|i| i, |i| i + 1);
                seat
            })
            .collect()
    }

    /// Splices one aggregate's re-derived rows into its cached rows, in
    /// place: the rows seated at one of `keys` are replaced or dropped and
    /// `fresh` (sorted, every key among `keys`) takes their seats and its new
    /// keys' seats. The rows are copy-on-write ([`Arc::make_mut`]): rows an
    /// outcome still holds are copied once first, so the held outcome never
    /// changes, and rows no one else holds are patched where they are.
    ///
    /// When the group set holds — each affected key has a row after the
    /// patch exactly when it had one before — the fresh rows overwrite the
    /// old ones in their seats. Otherwise the kept rows move into one
    /// exactly-sized new slice — each key is taken, not cloned, so a row
    /// costs no allocation and no reference count — and the old slice is
    /// freed holding only the replaced rows' keys.
    fn splice(
        rows: &mut Arc<[GroupRange]>,
        keys: &[Vec<Value>],
        seats: &[Result<usize, usize>],
        fresh: Vec<GroupRange>,
    ) {
        let mut next = 0;
        let same_groups = keys.iter().zip(seats).all(|(key, seat)| {
            let derived = fresh.get(next).is_some_and(|row| row.key == *key);
            next += usize::from(derived);
            derived == seat.is_ok()
        });
        let replaced = seats.iter().filter(|seat| seat.is_ok()).count();
        let len = rows.len() - replaced + fresh.len();
        let old = Arc::make_mut(rows);
        if same_groups {
            for (seat, row) in seats.iter().filter_map(|seat| seat.ok()).zip(fresh) {
                old[seat] = row;
            }
            return;
        }
        // Each re-derived row goes in before the old row at its seat; the old
        // rows seated at an affected key are skipped.
        let mut fresh = fresh.into_iter().peekable();
        let mut inserts = keys
            .iter()
            .zip(seats)
            .filter_map(|(key, seat)| {
                let at = seat.unwrap_or_else(|i| i);
                fresh.next_if(|row| row.key == *key).map(|row| (at, row))
            })
            .peekable();
        let mut dropped = seats.iter().filter_map(|seat| seat.ok()).peekable();
        let mut at = 0;
        // A mapped range has a trusted length: one allocation, exactly sized.
        let spliced = (0..len)
            .map(|_| loop {
                if let Some((_, row)) = inserts.next_if(|&(seat, _)| seat == at) {
                    break row;
                }
                let (seat, row) = (at, &mut old[at]);
                at += 1;
                if dropped.next_if_eq(&seat).is_none() {
                    let key = std::mem::take(&mut row.key);
                    break GroupRange { key, ..*row };
                }
            })
            .collect();
        debug_assert!(
            inserts.next().is_none() && at == old.len() - dropped.count(),
            "the spliced length is counted"
        );
        *rows = spliced;
    }

    fn outcome(stmt: &PreparedStatement, rows: CachedRows, epoch: u64) -> QueryOutcome {
        QueryOutcome {
            query: stmt.query.clone(),
            classification: stmt.classification.clone(),
            columns: stmt.columns.to_vec(),
            rows: rows.rows,
            more_aggregates: rows.more,
            having: rows.having,
            epoch,
            shards: 1,
        }
    }

    /// Evaluates every aggregate engine of one statement over one pinned
    /// snapshot, returning the raw per-aggregate group rows — key-aligned,
    /// in sorted group-key order, before HAVING / ORDER BY post-processing.
    /// These are what the result cache keeps as the patch basis.
    fn raw_rows(
        stmt: &PreparedStatement,
        snapshot: &Snapshot,
    ) -> Result<Box<[Arc<[GroupRange]>]>, SessionError> {
        // A statically contradictory WHERE clause needs no engine run: no
        // repair has a satisfying embedding, so a grouped statement has no
        // possible answer rows, while a closed statement answers its single
        // `[⊥, ⊥]` row. The synthetic rows still flow through the normal
        // HAVING / ORDER BY pipeline below (a comparison against `⊥` is
        // `Possible`; a `⊥` row is never certainly in a top-k).
        let per_agg: Box<[Arc<[GroupRange]>]> = if stmt.unsatisfiable {
            let rows: Arc<[GroupRange]> = if stmt.query.body.free_vars().is_empty() {
                let bottom = Some(BoundAnswer {
                    value: None,
                    method: Method::Rewriting,
                });
                Arc::new([GroupRange {
                    key: Vec::new(),
                    glb: bottom,
                    lub: bottom,
                }])
            } else {
                Arc::new([])
            };
            stmt.engines.iter().map(|_| rows.clone()).collect()
        } else {
            let mut per_agg = Vec::with_capacity(stmt.engines.len());
            for engine in &stmt.engines {
                per_agg.push(
                    engine
                        .range_with_index(&snapshot.shape, &snapshot.index)?
                        .into(),
                );
            }
            per_agg.into()
        };
        let primary = &per_agg[0];
        debug_assert!(
            per_agg.iter().all(|rows| {
                rows.len() == primary.len()
                    && rows.iter().zip(primary.iter()).all(|(a, b)| a.key == b.key)
            }),
            "aggregates share body and predicates, so group keys must align"
        );
        Ok(per_agg)
    }

    /// HAVING trichotomy per raw row (empty when the statement has no HAVING
    /// clause).
    fn having_statuses(
        stmt: &PreparedStatement,
        per_agg: &[Arc<[GroupRange]>],
    ) -> Vec<HavingStatus> {
        if stmt.having.is_empty() {
            return Vec::new();
        }
        (0..per_agg[0].len())
            .map(|i| {
                having_status_all(stmt.having.iter().map(|c| {
                    let row = &per_agg[c.agg_index][i];
                    having_status(
                        row.glb.and_then(|b| b.value),
                        row.lub.and_then(|b| b.value),
                        c.op,
                        c.threshold,
                    )
                }))
            })
            .collect()
    }

    /// Raw-row indices surviving HAVING. `Violated` rows are certainly
    /// absent in every repair and are dropped.
    fn kept_indices(statuses: &[HavingStatus], len: usize) -> Vec<usize> {
        (0..len)
            .filter(|&i| statuses.is_empty() || statuses[i] != HavingStatus::Violated)
            .collect()
    }

    /// The sort-key rows of the HAVING survivors, borrowed in place.
    fn sort_rows<'r>(rows: &'r [GroupRange], kept: &[usize]) -> Vec<&'r GroupRange> {
        kept.iter().map(|&i| &rows[i]).collect()
    }

    /// Projects the selected raw-row indices into the presented row block:
    /// SELECT-clause aggregates, row-aligned HAVING statuses.
    fn present(
        stmt: &PreparedStatement,
        per_agg: &[Arc<[GroupRange]>],
        statuses: &[HavingStatus],
        selected: &[usize],
    ) -> CachedRows {
        let project = |agg: usize| -> Arc<[GroupRange]> {
            selected.iter().map(|&i| per_agg[agg][i].clone()).collect()
        };
        let having: Vec<HavingStatus> = if statuses.is_empty() {
            Vec::new()
        } else {
            selected.iter().map(|&i| statuses[i]).collect()
        };
        CachedRows {
            rows: project(0),
            more: (1..stmt.visible_aggregates).map(project).collect(),
            having: having.into(),
        }
    }

    /// Full post-processing of one statement's raw rows: HAVING trichotomy
    /// (dropping `Violated` rows), then ORDER BY (presentation order) /
    /// LIMIT (certain top-k) over the sort-key aggregate's intervals of the
    /// surviving rows, then SELECT-clause projection. The parser guarantees
    /// LIMIT implies ORDER BY. A statement with neither HAVING nor ORDER BY
    /// presents its raw rows as they are: the presentation **shares** the raw
    /// slices instead of copying them.
    fn post_process(stmt: &PreparedStatement, per_agg: &[Arc<[GroupRange]>]) -> CachedRows {
        if stmt.having.is_empty() && stmt.order_by.is_none() {
            return CachedRows {
                rows: per_agg[0].clone(),
                more: per_agg[1..stmt.visible_aggregates].to_vec(),
                having: Arc::new([]),
            };
        }
        let statuses = Self::having_statuses(stmt, per_agg);
        let kept = Self::kept_indices(&statuses, per_agg[0].len());
        let selected: Vec<usize> = match stmt.order_by {
            Some(spec) => {
                let sort_rows = Self::sort_rows(&per_agg[spec.agg_index], &kept);
                let picked = match stmt.limit {
                    Some(k) => certain_topk(&sort_rows, k, spec.descending),
                    None => order_rows(&sort_rows, spec.descending),
                };
                picked.into_iter().map(|j| kept[j]).collect()
            }
            None => kept,
        };
        Self::present(stmt, per_agg, &statuses, &selected)
    }

    /// The full evaluation pipeline of one statement over one pinned
    /// snapshot, producing both the presentation and the raw patch basis.
    fn compute_result(
        stmt: &PreparedStatement,
        snapshot: &Snapshot,
    ) -> Result<CachedResult, SessionError> {
        let raw = Self::raw_rows(stmt, snapshot)?;
        let rows = Self::post_process(stmt, &raw);
        Ok(CachedResult {
            epoch: snapshot.epoch,
            raw,
            rows,
        })
    }

    /// Attempts to bring a stale cached result up to `epoch` by differential
    /// maintenance, **in place**, at a cost proportional to the delta:
    /// `O(|dirty| · log rows)` to find what it affects, the work of the
    /// affected groups to re-derive them, and — only when some row really
    /// changed — the splice ([`Session::splice`]): an overwrite of the
    /// changed rows in their seats, or, when groups were born or vanished,
    /// one move of the kept rows into a new slice. The caller holds the
    /// statement's lock, and the presentation is dropped before the splice,
    /// so the raw rows are copied only when an outcome a caller still holds
    /// shares them (or, for certain top-k, when the old sort rows are kept
    /// to compare). Nothing is changed before the last fallible step. Returns
    /// the [`Miss`] — fall back to a full recompute — when the dirty history
    /// no longer reaches back to the cached epoch (`sources` is that miss),
    /// or the affected key set covers more than half the rows.
    ///
    /// Half the rows is a **measured cut-off**, not a bound that holds by
    /// construction: re-derivation costs the affected groups' embeddings,
    /// and on a skewed join the affected rows are the hot groups — 45–50 % of
    /// the rows of `R(x|y) ⋈ S(y,z|r)` grouped by `x` under Zipf-hot `y`
    /// writes carry over 70 % of the embeddings. Measured with the in-place
    /// splice on that statement (1 111 rows at 10⁵ facts, mixed-side batches
    /// of 8–1 024 events, two seeds, default options on two cores; medians
    /// per band of affected rows), a patch costs 0.84 of the recompute at
    /// 30–35 %, 0.90 at 35–40 %, 1.11 at 40–45 % and 1.17 at 45–50 % (a
    /// splice that copied every row: 0.94, 1.00, 1.19, 1.23); with a second
    /// aggregate the statement stays at 0.86–0.90 up to half. So the least
    /// favourable statement breaks even near 40 %, and its patches past that
    /// cost up to a fifth more than the recompute they replace. A miss costs
    /// the recompute plus the enumeration that found it (about 1.3 µs per
    /// dirty block).
    ///
    /// The affected key set comes from **one** forward enumeration per
    /// source, [`RangeCqa::affected_keys`]: every group with an embedding,
    /// old or new, through a block dirtied since the cached epoch — births,
    /// value changes and retractions alike, from the dirty keys and the
    /// retracted facts the log keeps, with nothing recorded at evaluation
    /// time. The dirty keys are the ids the source's own commits reported,
    /// read against the source's own pinned index without a lookup: that
    /// index descends from every index that reported them, and ids are
    /// append-only along that line. Affected keys are then over-deleted and re-derived DRed-style
    /// via [`RangeCqa::range_for_groups`] on the source that reported them:
    /// keys whose embeddings vanished stay gone, new keys appear, everything
    /// else keeps its cached row unexamined. Whether anything changed is
    /// decided by comparing the re-derived rows with the rows they replace —
    /// never the whole result.
    ///
    /// A session patches through one source, itself. The sharded front-end
    /// patches a fan-out result through every shard that advanced: a fan-out
    /// group is a function of one shard's blocks, so the sources report
    /// disjoint key sets and each re-derives its own. Shards intern on their
    /// own, so one value may carry different ids on two of them; each
    /// source's keys are only ever read against that source's index.
    fn try_patch(
        stats: &AtomicStats,
        stmt: &PreparedStatement,
        cached: &mut CachedResult,
        sources: Result<Vec<PatchSource<'_>>, Miss>,
        epoch: u64,
    ) -> Result<Result<(), Miss>, SessionError> {
        // A statically contradictory WHERE clause is answered independently
        // of the data: the cached synthetic rows hold at every epoch.
        if stmt.unsatisfiable {
            cached.epoch = epoch;
            return Ok(Ok(()));
        }
        let sources = match sources {
            Ok(sources) => sources,
            Err(miss) => return Ok(Err(miss)),
        };
        let per_source: Vec<Vec<Vec<Value>>> = sources
            .iter()
            .map(|source| {
                stmt.engine().affected_keys(
                    &source.snapshot.index,
                    source.log.iter().flat_map(|batch| batch.blocks.iter()),
                    source.log.iter().flat_map(|batch| batch.retracted.iter()),
                )
            })
            .collect();
        let count: usize = per_source.iter().map(Vec::len).sum();
        if count == 0 {
            // No old or new embedding passes through a dirty block: the
            // result is untouched by the whole delta range.
            cached.epoch = epoch;
            return Ok(Ok(()));
        }
        let cached_rows = cached.raw[0].len();
        // Past half the cached rows a patch no longer undercuts the full
        // recompute on any statement measured (see above).
        if cached_rows >= 16 && count * 2 > cached_rows {
            return Ok(Err(Miss::OverHalf));
        }
        let mut fresh = vec![Vec::new(); stmt.engines.len()];
        for (source, keys) in sources.iter().zip(&per_source) {
            if keys.is_empty() {
                continue;
            }
            for (engine, rows) in stmt.engines.iter().zip(&mut fresh) {
                let snapshot = source.snapshot;
                rows.extend(engine.range_for_groups(&snapshot.shape, &snapshot.index, keys)?);
            }
        }
        let mut affected: Vec<Vec<Value>> = per_source.into_iter().flatten().collect();
        if sources.len() > 1 {
            // Each source's keys and rows come sorted, and the sources' key
            // sets are disjoint: one sort puts them in row order.
            affected.sort_unstable();
            for rows in &mut fresh {
                rows.sort_unstable_by(|a, b| a.key.cmp(&b.key));
            }
        }
        // Aggregates are key-aligned, so one search seats the keys in all.
        let seats = Self::seats(&cached.raw[0], &affected);
        let replaced = || seats.iter().filter_map(|seat| seat.ok());
        let unchanged = cached.raw.iter().zip(&fresh).all(|(old, fresh)| {
            replaced().count() == fresh.len()
                && replaced().zip(fresh).all(|(i, row)| old[i] == *row)
        });
        cached.epoch = epoch;
        if unchanged {
            // Re-derivation confirmed every affected row unchanged, so the
            // cached presentation (HAVING, selection included) is still
            // exact.
            return Ok(Ok(()));
        }
        // Nothing fallible is left: the result is patched from here on. The
        // presentation is taken out first, so that rows it shares with the
        // raw rows are held once and patch in place.
        let presented = std::mem::take(&mut cached.rows);
        // Certain top-k re-decides membership against the old sort rows: it
        // keeps those, so its sort aggregate is copied once by the splice.
        let topk = match (stmt.order_by, stmt.limit) {
            (Some(spec), Some(_)) => {
                let old_statuses = Self::having_statuses(stmt, &cached.raw);
                let old_kept = Self::kept_indices(&old_statuses, cached_rows);
                let old_sort_rows = cached.raw[spec.agg_index].clone();
                Some((spec, old_kept, old_sort_rows, presented))
            }
            _ => {
                drop(presented);
                None
            }
        };
        for (rows, fresh) in cached.raw.iter_mut().zip(fresh) {
            Self::splice(rows, &affected, &seats, fresh);
        }
        let raw = &cached.raw;
        cached.rows = match topk {
            Some((spec, old_kept, old_sort_rows, presented)) => {
                // Certain top-k membership is a function of the pairwise
                // possibly-precedes relation over the HAVING survivors. When
                // the patch provably preserved that relation, the cached
                // selection's keys still name exactly the certain rows —
                // re-presented with their fresh intervals in the fresh
                // deterministic order. Otherwise membership could change:
                // recompute the selection honestly (the rows themselves stay
                // patched — only the selection re-runs).
                let new_statuses = Self::having_statuses(stmt, raw);
                let new_kept = Self::kept_indices(&new_statuses, raw[0].len());
                let old_sort = Self::sort_rows(&old_sort_rows, &old_kept);
                let new_sort = Self::sort_rows(&raw[spec.agg_index], &new_kept);
                if topk_selection_preserved(&old_sort, &new_sort, spec.descending) {
                    let members: BTreeSet<&[Value]> =
                        presented.rows.iter().map(|r| r.key.as_slice()).collect();
                    let selected: Vec<usize> = order_rows(&new_sort, spec.descending)
                        .into_iter()
                        .filter(|&j| members.contains(new_sort[j].key.as_slice()))
                        .map(|j| new_kept[j])
                        .collect();
                    Self::present(stmt, raw, &new_statuses, &selected)
                } else {
                    AtomicStats::bump(&stats.topk_fallbacks);
                    Self::post_process(stmt, raw)
                }
            }
            None => Self::post_process(stmt, raw),
        };
        Ok(Ok(()))
    }

    /// The stale-or-cold step shared by [`Session::fetch_result_at`] and the
    /// sharded front-end's fan-out, run under the statement's lock: patch
    /// the stale result in `slot` (a result behind `epoch`, patched through
    /// the `sources` it yields) in place through [`Session::try_patch`], or —
    /// on a miss, or with nothing cached — replace it with `full`. The path
    /// taken is counted in `stats`.
    fn refresh<'s>(
        stats: &AtomicStats,
        stmt: &PreparedStatement,
        slot: &mut Option<CachedResult>,
        sources: impl FnOnce(&CachedResult) -> Result<Vec<PatchSource<'s>>, Miss>,
        epoch: u64,
        full: impl FnOnce() -> Result<CachedResult, SessionError>,
    ) -> Result<(), SessionError> {
        if let Some(cached) = slot {
            let sources = sources(cached);
            match Self::try_patch(stats, stmt, cached, sources, epoch)? {
                Ok(()) => {
                    AtomicStats::bump(&stats.partial_recomputes);
                    AtomicStats::bump(&stats.supported_patches);
                    return Ok(());
                }
                Err(miss) => {
                    AtomicStats::bump(&stats.support_misses);
                    AtomicStats::bump(&stats.misses[miss as usize]);
                }
            }
        }
        AtomicStats::bump(&stats.full_recomputes);
        // The stale result goes before its replacement is computed.
        *slot = None;
        *slot = Some(full()?);
        Ok(())
    }

    /// This session as the one patch source of a result cached at `from`,
    /// read at `snapshot`: its index and the batches committed since, or
    /// [`Miss::HistoryEvicted`] when the retained history does not reach
    /// back that far.
    fn patch_source<'s>(&self, snapshot: &'s Snapshot, from: u64) -> Result<PatchSource<'s>, Miss> {
        let log = self
            .dirty_since(from, snapshot.epoch)
            .ok_or(Miss::HistoryEvicted)?;
        Ok(PatchSource { snapshot, log })
    }

    /// The cached results of the statement under (normalized) `sql`, or —
    /// when it was evicted since it was prepared — a detached empty set the
    /// reader fills and drops.
    fn results(&self, sql: &str) -> Arc<Mutex<StatementResults>> {
        self.read_statements()
            .get(sql)
            .map(|entry| entry.results.clone())
            .unwrap_or_default()
    }

    /// Locks a statement's results. Unlike the session's other state, they
    /// are patched in place, so a reader that panicked while holding them
    /// may have left them torn: a poisoned lock drops them (the next read
    /// recomputes) rather than serving them.
    fn lock_results(results: &Mutex<StatementResults>) -> MutexGuard<'_, StatementResults> {
        results.lock().unwrap_or_else(|poisoned| {
            results.clear_poison();
            let mut results = poisoned.into_inner();
            *results = StatementResults::default();
            results
        })
    }

    /// The cache-aware execution path shared by [`Session::execute`],
    /// [`Session::execute_many`], and the sharded front-end's designated
    /// route, against one pinned snapshot: statement lookup, then result
    /// hit / patch / full pipeline, in that order, under the statement's
    /// lock. Returns the post-processed presentation. No session-wide lock
    /// is held while the plan executes.
    fn fetch_result_at(
        &self,
        snapshot: &Snapshot,
        sql: &str,
    ) -> Result<(Arc<PreparedStatement>, CachedRows), SessionError> {
        let stmt = self.prepare_at(snapshot, sql)?;
        let epoch = snapshot.epoch;
        let results = self.results(stmt.sql());
        let mut results = Self::lock_results(&results);
        let full = || Self::compute_result(&stmt, snapshot);
        match &results.result {
            // Hot path: a result computed at exactly this snapshot's epoch
            // answers without touching the engine or the index.
            Some(cached) if cached.epoch == epoch => {
                AtomicStats::bump(&self.stats.result_hits);
                let rows = cached.rows.clone();
                return Ok((stmt, rows));
            }
            // A result from an epoch ahead of the pinned snapshot is useless
            // to this reader and stays in place for current ones.
            Some(cached) if cached.epoch > epoch => {
                drop(results);
                AtomicStats::bump(&self.stats.full_recomputes);
                let rows = full()?.rows;
                return Ok((stmt, rows));
            }
            // A stale result (an epoch behind this snapshot) is the patch
            // basis.
            _ => {}
        }
        let sources = |cached: &CachedResult| {
            self.patch_source(snapshot, cached.epoch)
                .map(|source| vec![source])
        };
        Self::refresh(
            &self.stats,
            &stmt,
            &mut results.result,
            sources,
            epoch,
            full,
        )?;
        let rows = results.result.as_ref().expect("refreshed").rows.clone();
        Ok((stmt, rows))
    }

    /// [`Session::fetch_result_at`] reduced to the presented outcome.
    fn execute_at(&self, snapshot: &Snapshot, sql: &str) -> Result<QueryOutcome, SessionError> {
        let (stmt, rows) = self.fetch_result_at(snapshot, sql)?;
        Ok(Self::outcome(&stmt, rows, snapshot.epoch))
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
        self.explain_at(&self.snapshot(), sql)
    }

    /// [`Session::explain`] at a pinned snapshot (the sharded front-end
    /// explains at the mirror snapshot of its consistent cut).
    fn explain_at(&self, snapshot: &Snapshot, sql: &str) -> Result<String, SessionError> {
        let stmt = self.prepare_at(snapshot, sql)?;
        let mut out = String::new();
        if stmt.unsatisfiable {
            out.push_str(
                "contradictory WHERE clause: no repair satisfies it; answered statically\n",
            );
            return Ok(out);
        }
        for (i, engine) in stmt.engines.iter().enumerate() {
            if stmt.engines.len() > 1 {
                out.push_str(&format!(
                    "aggregate #{i}{}: {}\n",
                    if i >= stmt.visible_aggregates {
                        " (hidden: HAVING/ORDER BY only)"
                    } else {
                        ""
                    },
                    engine.prepared().original.agg,
                ));
            }
            out.push_str(&engine.explain_with_index(&snapshot.shape, &snapshot.index));
        }
        for cond in &stmt.having {
            out.push_str(&format!(
                "post-process: HAVING aggregate #{} {} {} -> certain/possible kept, violated dropped\n",
                cond.agg_index, cond.op, cond.threshold,
            ));
        }
        if let Some(spec) = stmt.order_by {
            let dir = if spec.descending { "DESC" } else { "ASC" };
            match stmt.limit {
                Some(k) => out.push_str(&format!(
                    "post-process: certain top-{k} by aggregate #{} {dir} (rows certainly in the top {k} of every repair)\n",
                    spec.agg_index,
                )),
                None => out.push_str(&format!(
                    "post-process: ORDER BY aggregate #{} {dir} (presentation order over intervals)\n",
                    spec.agg_index,
                )),
            }
        }
        Ok(out)
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
        assert_eq!(session.read_statements().len(), STATEMENT_CACHE_CAP);
        let cold = stock_session();
        for sql in &statements {
            let out = session.execute(sql).unwrap();
            assert_eq!(out.rows, cold.execute(sql).unwrap().rows, "{sql}");
        }
    }
}
