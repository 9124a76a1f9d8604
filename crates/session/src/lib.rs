//! # rcqa-session
//!
//! The SQL serving layer of the workspace: a **stateful, thread-safe** session
//! that owns a named-column [`Catalog`], [`EngineOptions`], and — unlike a
//! one-shot evaluation — the derived state a server needs to answer the same
//! queries over a slowly-changing instance without rebuilding the world per
//! call:
//!
//! * an **immutable snapshot chain**: the session's data lives in a
//!   [`Snapshot`] — `Arc<DatabaseInstance>` + lazily built `Arc<DbIndex>` +
//!   a monotonically increasing epoch. [`Session::execute`] clones the
//!   current snapshot `Arc` out of a short critical section and evaluates
//!   against it with **no session-wide lock held**, so concurrent readers
//!   feed the parallel plan executor simultaneously; writers
//!   ([`Session::insert`], [`Session::insert_all`], [`Session::delete`])
//!   build the *successor* snapshot out of the base's **shared structure**:
//!   instance relations and per-relation indexes are `Arc`-shared, and
//!   inside them facts and blocks sit in chunked copy-on-write sequences
//!   ([`rcqa_data::ChunkedSeq`]), so the successor pointer-bumps every
//!   relation the batch does not touch and, in a written relation, copies
//!   one spine plus one leaf per touched block (`DatabaseInstance::apply`,
//!   `DbIndex::apply_delta`) — a single-fact commit costs a few hundred
//!   pointer copies whatever the size of the relation or the database —
//!   then atomically swaps it in. In-flight readers keep their pinned
//!   snapshot: reads are **snapshot-isolated**, never torn;
//! * a **prepared-statement cache**: [`Session::prepare`] parses,
//!   classifies, and plans a SQL string once; `execute`/`explain` look
//!   statements up by *normalized* SQL (whitespace collapsed and text
//!   case-folded outside string literals, one trailing `;` stripped), so
//!   textual re-submissions of the same query never re-parse, never re-run
//!   attack-graph classification, and never re-plan. The cache holds
//!   [`STATEMENT_CACHE_CAP`] statements and evicts the least recently used;
//! * a **per-statement result cache with delta-proportional differential
//!   maintenance**: answers are cached against the epoch they were computed
//!   at, and nothing else is recorded with them. A reader whose pinned epoch
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
//!   re-derived rows into the kept ones in one pass, deciding "nothing
//!   changed" from the re-derived rows alone. HAVING trichotomy and certain
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
//! threads. Readers never block each other on the serving path — the only
//! shared critical sections are the snapshot-pointer clone, the
//! statement-cache lookup (an `RwLock` read), and counter updates. Writers
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
use rcqa_core::index::{DbIndex, DirtyBlock};
pub use rcqa_core::interval::HavingStatus;
use rcqa_core::interval::{
    certain_topk, having_status, having_status_all, order_rows, topk_selection_preserved,
};
use rcqa_core::{CoreError, RowSupport};
use rcqa_data::{DataError, DatabaseInstance, DeltaEvent, DeltaOp, Fact, Rational, Value};
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

/// One immutable version of the session's data: the instance, the (lazily
/// built) block index over it, and the epoch — the number of effective
/// mutations between the session's opening and this version.
///
/// Snapshots are shared behind `Arc`s: readers pin one and evaluate against
/// it lock-free; writers derive the successor and swap the session's current
/// pointer. A snapshot is never mutated after publication — the index cell is
/// a [`OnceLock`] so the first reader to need it builds it exactly once and
/// every later reader of the same snapshot shares the result.
#[derive(Debug)]
pub struct Snapshot {
    db: Arc<DatabaseInstance>,
    index: OnceLock<Arc<DbIndex>>,
    epoch: u64,
}

impl Snapshot {
    /// The snapshot's database instance.
    pub fn db(&self) -> &Arc<DatabaseInstance> {
        &self.db
    }

    /// The snapshot's epoch: effective mutations since the session opened.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The snapshot's block index, if some reader (or the writer that
    /// published it) has materialised it already.
    pub fn index(&self) -> Option<&Arc<DbIndex>> {
        self.index.get()
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
    /// Cold index constructions (should stay at 1 for a serving session).
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
#[derive(Clone, Debug)]
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
#[derive(Clone, Debug)]
struct CachedResult {
    epoch: u64,
    /// Raw rows per aggregate engine (SELECT items first, then hidden
    /// HAVING / ORDER BY aggregates), each in sorted group-key order and
    /// key-aligned across aggregates. A statement whose presentation is the
    /// raw rows themselves (no HAVING, no ORDER BY) shares these very slices
    /// with [`CachedRows`] — one copy of the rows, not two.
    raw: Arc<[Arc<[GroupRange]>]>,
    rows: CachedRows,
}

/// A fan-out statement's merged answer, which the sharded front-end caches
/// in the statement's entry of the session it prepares statements on: the
/// result and the per-shard epochs it reflects. It is the front-end's only
/// copy of those rows — the shards never see the statement.
#[derive(Clone, Debug)]
struct FanoutResult {
    frontier: Arc<[u64]>,
    result: CachedResult,
}

/// One cached statement plus its last computed result (if any), versioned by
/// the epoch the result was computed at.
#[derive(Debug)]
struct CachedStatement {
    stmt: Arc<PreparedStatement>,
    result: Option<CachedResult>,
    /// The sharded front-end's result for a fan-out statement (never set
    /// on a plain session's statements).
    fanout: Option<FanoutResult>,
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
/// changed and the facts it retracted (its effective deletes, moved here
/// from the logged events).
#[derive(Debug)]
struct DirtyBatch {
    blocks: Box<[DirtyBlock]>,
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
/// its pinned snapshot and index, and the batches committed to it since the
/// result was cached.
struct PatchSource<'s> {
    snapshot: &'s Snapshot,
    index: Arc<DbIndex>,
    log: Vec<Arc<DirtyBatch>>,
}

/// Why a stale cached result could not be patched and was recomputed in full:
/// the reasons [`SessionStats::support_misses`] lumps together, one counter
/// each ([`Session::patch_reasons`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PatchReasons {
    /// The dirty history no longer reaches back to the cached epoch: evicted
    /// past [`DIRTY_LOG_CAP`] batches, or floored by a commit that had no
    /// index to replay into.
    pub history_evicted: u64,
    /// The delta affects more than half of the cached rows, where a patch
    /// stops being the cheaper arm (see `Session::try_patch` for the
    /// measurement behind the cut-off).
    pub over_half: u64,
}

impl PatchReasons {
    /// Field-wise sum (the sharded front-end adds its shards and mirror).
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
/// an immutable snapshot chain (instance, block index, epoch), plus cached
/// derived state (prepared statements, versioned results).
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
            .field("facts", &snapshot.db.len())
            .field("options", &self.options)
            .field("epoch", &snapshot.epoch)
            .field("statements", &self.read_statements().len())
            .field("index_cached", &snapshot.index.get().is_some())
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
    /// catalog's lowering). Accepts an owned instance or an `Arc` — sharing
    /// an `Arc` with another session is cheap and safe, since snapshots are
    /// copy-on-write.
    pub fn with_instance(catalog: Catalog, db: impl Into<Arc<DatabaseInstance>>) -> Session {
        Session::assemble(catalog, db.into(), 0, None)
    }

    fn assemble(
        catalog: Catalog,
        db: Arc<DatabaseInstance>,
        epoch: u64,
        wal: Option<Wal>,
    ) -> Session {
        Session {
            catalog,
            options: EngineOptions::default(),
            current: RwLock::new(Arc::new(Snapshot {
                db,
                index: OnceLock::new(),
                epoch,
            })),
            writer: Mutex::new(()),
            statements: RwLock::new(HashMap::new()),
            maintenance: Mutex::new(Maintenance::default()),
            cache_clock: AtomicU64::new(0),
            wal: Mutex::new(wal),
            stats: AtomicStats::default(),
        }
    }

    /// Opens a **durable** session over the WAL directory `dir` with default
    /// [`WalOptions`] (fsync on every commit, checkpoint every 1024 epochs),
    /// recovering whatever state a previous process left there: the newest
    /// valid checkpoint plus a replay of the log tail through the same
    /// delta-application machinery live commits use.
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
        Ok(Session::assemble(
            catalog,
            Arc::new(db),
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

    /// The current database instance (the latest snapshot's). The returned
    /// `Arc` stays valid — and immutable — while writers move the session
    /// forward.
    pub fn database(&self) -> Arc<DatabaseInstance> {
        self.snapshot().db.clone()
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

    /// Commits one write batch: derives the successor instance from the base
    /// snapshot's **shared structure** (untouched relations are pointer
    /// bumps; a written relation copies its spine and the leaves the batch
    /// lands in), replays the delta into a structurally-shared copy of the
    /// base index (when the base snapshot has one), records the dirty blocks
    /// for result patching, and atomically publishes the successor.
    ///
    /// Copied per commit, in the instance and in the index alike: per
    /// written relation one spine (a pointer per leaf of 128–256 entries),
    /// and per touched block one leaf of each sequence (two where a leaf
    /// splits or merges) plus the block's columns; index statistics are
    /// adjusted, not recomputed. With `n` the size of a written relation a
    /// batch costs `O(n / 128 + |delta| · (log n + 256))` — for a
    /// single-fact commit a few microseconds at 10⁵ facts, so a durable
    /// commit's floor is its WAL append and fsync. Nothing here scans or
    /// copies a relation, let alone the database; what still does: the
    /// checkpoint a commit may trigger (it writes every fact) and the cold
    /// index build of a snapshot chain that never had one. There is no batch
    /// size past which replay degrades, so every committed batch (bulk loads
    /// included) publishes with a warm index and a gap-free dirty log.
    ///
    /// Writers serialise on [`Session::writer`]; readers are never blocked
    /// for longer than the final pointer swap. If `mutate` fails, nothing is
    /// published — batches are all-or-nothing.
    ///
    /// For a durable session the batch is appended to the write-ahead log —
    /// and fsynced per the [`SyncPolicy`] — **before** the successor is
    /// published: no reader can ever observe state the log might not
    /// remember. If the append fails, the commit fails, nothing is
    /// published, and the session keeps serving (and accepting reads of)
    /// the last committed snapshot — durability failures degrade writes,
    /// never reads.
    fn commit<T>(
        &self,
        mutate: impl FnOnce(&mut DatabaseInstance) -> Result<(Vec<DeltaEvent>, T), SessionError>,
    ) -> Result<T, SessionError> {
        let _writer = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let base = self.snapshot();
        // Cheap: per-relation Arc bumps. `mutate` copies the spine and the
        // leaves of what it writes.
        let mut db = (*base.db).clone();
        let (events, out) = mutate(&mut db)?;
        if events.is_empty() {
            return Ok(out);
        }
        let epoch = base.epoch + events.len() as u64;
        {
            let mut wal = self.lock_wal();
            if let Some(wal) = wal.as_mut() {
                wal.append(epoch, &events)?;
                AtomicStats::bump(&self.stats.wal_appends);
            }
        }
        let snapshot = Snapshot {
            db: Arc::new(db),
            index: OnceLock::new(),
            epoch,
        };
        match base.index.get() {
            Some(base_index) => {
                // Cheap again: the clone shares every relation's index with
                // the base; `apply_delta` path-copies the dirty leaves.
                let mut index = (**base_index).clone();
                let blocks = index.apply_delta(&events).into();
                snapshot
                    .index
                    .set(Arc::new(index))
                    .expect("freshly created cell is empty");
                self.stats
                    .deltas_applied
                    .fetch_add(events.len() as u64, Ordering::Relaxed);
                let retracted = events
                    .into_iter()
                    .filter(|e| matches!(e.op, DeltaOp::Delete))
                    .map(|e| e.fact)
                    .collect();
                let batch = Arc::new(DirtyBatch { blocks, retracted });
                let mut maintenance = self.lock_maintenance();
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
                // No base index to derive from (never built, or mid-build):
                // floor the log *before* publishing so no reader of the
                // successor can patch across the gap.
                let mut maintenance = self.lock_maintenance();
                maintenance.dirty_log.clear();
                maintenance.log_floor = epoch;
            }
        }
        let snapshot = Arc::new(snapshot);
        *self.current.write().unwrap_or_else(|e| e.into_inner()) = snapshot.clone();
        // Checkpoint *after* publishing: the batch is already durable on the
        // log, so a checkpoint failure cannot fail the commit — it only
        // postpones log truncation (and is retried at the next commit).
        let mut wal = self.lock_wal();
        if let Some(wal) = wal.as_mut() {
            if wal.checkpoint_due() {
                match wal.checkpoint(epoch, snapshot.db.facts()) {
                    Ok(()) => AtomicStats::bump(&self.stats.checkpoints),
                    Err(_) => AtomicStats::bump(&self.stats.checkpoint_failures),
                }
            }
        }
        Ok(out)
    }

    /// Applies a batch of change events as **one atomic commit** — one
    /// successor snapshot, one dirty-log entry, and (on a durable session)
    /// at most one WAL append for the whole batch. Returns one effectiveness
    /// flag per event, in order: `true` when the event changed the instance
    /// (the inserted fact was new / the deleted fact was present). No-op
    /// events cost nothing downstream — only effective events are logged
    /// and replayed into the index.
    ///
    /// This is the single write path of the session: [`Session::insert`],
    /// [`Session::insert_all`], and [`Session::delete`] are thin wrappers,
    /// and the sharded front-end's group-commit coordinator submits its
    /// coalesced batches here — single-node and sharded writers share one
    /// commit implementation. If any event's fact violates the schema the
    /// whole batch fails and nothing is published.
    pub fn apply_batch(&self, events: &[DeltaEvent]) -> Result<Vec<bool>, SessionError> {
        let flags = self.commit(|db| {
            let mut effective = Vec::new();
            let mut flags = Vec::with_capacity(events.len());
            for event in events {
                let applied = db.apply(event.clone())?;
                flags.push(applied.is_some());
                effective.extend(applied);
            }
            Ok((effective, flags))
        })?;
        if events.len() > 1 {
            AtomicStats::bump(&self.stats.batched_commits);
            self.stats
                .batched_events
                .fetch_add(events.len() as u64, Ordering::Relaxed);
        }
        Ok(flags)
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
        let domain = snapshot.db.numeric_domain();
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
                    result: None,
                    fanout: None,
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

    /// The snapshot's index, building it (exactly once per snapshot, across
    /// all racing readers) on first use. Writers pre-populate successor
    /// snapshots by delta replay, so a serving session cold-builds once.
    fn pinned_index(&self, snapshot: &Snapshot) -> Arc<DbIndex> {
        snapshot
            .index
            .get_or_init(|| {
                AtomicStats::bump(&self.stats.index_builds);
                Arc::new(DbIndex::new(&snapshot.db))
            })
            .clone()
    }

    /// The batches committed over `(from, to]` — their dirty blocks and
    /// retracted facts — oldest first, or `None` if the retained history does
    /// not reach back to `from` (the log was floored by a cold rebuild or
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

    /// Splices one aggregate's re-derived rows into its old rows in a single
    /// pass: the old rows seated at one of `keys` are dropped, `fresh` (sorted,
    /// every key among `keys`) takes their places and its new keys' seats,
    /// and the runs in between are copied across whole — straight into the
    /// returned slice, whose length is counted first (a `Vec` turned into an
    /// `Arc<[_]>` would be copied once more, and a patch's transient memory
    /// is a copy of the statement's rows).
    fn splice(
        old: &[GroupRange],
        keys: &[Vec<Value>],
        seats: &[Result<usize, usize>],
        fresh: Vec<GroupRange>,
    ) -> Arc<[GroupRange]> {
        let replaced = seats.iter().filter(|seat| seat.is_ok()).count();
        let len = old.len() - replaced + fresh.len();
        let tail = seats
            .last()
            .map_or(0, |seat| seat.map_or_else(|i| i, |i| i + 1));
        let mut fresh = fresh.into_iter().peekable();
        let mut from = 0;
        let mut rows = keys
            .iter()
            .zip(seats)
            .flat_map(|(key, seat)| {
                let (upto, next) = match *seat {
                    Ok(i) => (i, i + 1),
                    Err(i) => (i, i),
                };
                let kept = &old[from..upto];
                from = next;
                kept.iter()
                    .cloned()
                    .chain(fresh.next_if(|row| row.key == *key))
            })
            .chain(old[tail..].iter().cloned());
        // A mapped range has a trusted length: one allocation, exactly sized.
        let out = (0..len)
            .map(|_| rows.next().expect("re-derived keys are affected keys"))
            .collect();
        debug_assert!(rows.next().is_none(), "the spliced length is counted");
        out
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
        db: &DatabaseInstance,
        index: &DbIndex,
    ) -> Result<Arc<[Arc<[GroupRange]>]>, SessionError> {
        // A statically contradictory WHERE clause needs no engine run: no
        // repair has a satisfying embedding, so a grouped statement has no
        // possible answer rows, while a closed statement answers its single
        // `[⊥, ⊥]` row. The synthetic rows still flow through the normal
        // HAVING / ORDER BY pipeline below (a comparison against `⊥` is
        // `Possible`; a `⊥` row is never certainly in a top-k).
        let per_agg: Arc<[Arc<[GroupRange]>]> = if stmt.unsatisfiable {
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
                per_agg.push(engine.range_with_index(db, index)?.into());
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
        db: &DatabaseInstance,
        index: &DbIndex,
        epoch: u64,
    ) -> Result<CachedResult, SessionError> {
        let raw = Self::raw_rows(stmt, db, index)?;
        let rows = Self::post_process(stmt, &raw);
        Ok(CachedResult { epoch, raw, rows })
    }

    /// Attempts to bring a stale cached result up to `epoch` by differential
    /// maintenance, at a cost proportional to the delta: `O(|dirty| · log
    /// rows)` to find what it affects, the work of the affected groups to
    /// re-derive them, and — only when some row really changed — one pass
    /// over the rows to splice. Returns the [`Miss`] — fall back to a full
    /// recompute — when the dirty history no longer reaches back to the
    /// cached epoch (`sources` is that miss), or the affected key set covers
    /// more than half the rows.
    ///
    /// Half the rows is the **measured break-even of the least favourable
    /// statement**, not a bound that holds by construction: re-derivation
    /// costs the affected groups' embeddings, and on a skewed join the
    /// affected rows are the hot groups — 45–50 % of the rows of
    /// `R(x|y) ⋈ S(y,z|r)` grouped by `x` under Zipf-hot `y` writes carry over
    /// 70 % of the embeddings, and a patch there costs 0.96–1.03 of the
    /// recompute (0.98–0.99 at 40–45 %, 0.85–0.94 at 30–40 %, two workers).
    /// A miss costs the recompute plus the enumeration that found it (about
    /// 1.3 µs per dirty block).
    ///
    /// The affected key set comes from **one** forward enumeration per
    /// source, [`RangeCqa::affected_keys`]: every group with an embedding,
    /// old or new, through a block dirtied since the cached epoch — births,
    /// value changes and retractions alike, from the dirty keys and the
    /// retracted facts the log keeps, with nothing recorded at evaluation
    /// time. Affected keys are then over-deleted and re-derived DRed-style
    /// via [`RangeCqa::range_for_groups`] on the source that reported them:
    /// keys whose embeddings vanished stay gone, new keys appear, everything
    /// else keeps its cached row unexamined. Whether anything changed is
    /// decided by comparing the re-derived rows with the rows they replace —
    /// never the whole result.
    ///
    /// A session patches through one source, itself. The sharded front-end
    /// patches a fan-out result through every shard that advanced: a fan-out
    /// group is a function of one shard's blocks, so the sources report
    /// disjoint key sets and each re-derives its own.
    fn try_patch(
        stats: &AtomicStats,
        stmt: &PreparedStatement,
        cached: &CachedResult,
        sources: Result<Vec<PatchSource<'_>>, Miss>,
        epoch: u64,
    ) -> Result<Result<CachedResult, Miss>, SessionError> {
        let restamped = || {
            Ok(Ok(CachedResult {
                epoch,
                raw: cached.raw.clone(),
                rows: cached.rows.clone(),
            }))
        };
        // A statically contradictory WHERE clause is answered independently
        // of the data: the cached synthetic rows hold at every epoch.
        if stmt.unsatisfiable {
            return restamped();
        }
        let sources = match sources {
            Ok(sources) => sources,
            Err(miss) => return Ok(Err(miss)),
        };
        let per_source: Vec<Vec<Vec<Value>>> = sources
            .iter()
            .map(|source| {
                stmt.engine().affected_keys(
                    &source.index,
                    source.log.iter().flat_map(|batch| batch.blocks.iter()),
                    source.log.iter().flat_map(|batch| batch.retracted.iter()),
                )
            })
            .collect();
        let count: usize = per_source.iter().map(Vec::len).sum();
        if count == 0 {
            // No old or new embedding passes through a dirty block: the
            // result is untouched by the whole delta range.
            return restamped();
        }
        let old = &*cached.raw;
        // Past half the cached rows a patch no longer undercuts the full
        // recompute (measured: see above).
        if old[0].len() >= 16 && count * 2 > old[0].len() {
            return Ok(Err(Miss::OverHalf));
        }
        let mut fresh = vec![Vec::new(); stmt.engines.len()];
        for (source, keys) in sources.iter().zip(&per_source) {
            if keys.is_empty() {
                continue;
            }
            for (engine, rows) in stmt.engines.iter().zip(&mut fresh) {
                rows.extend(engine.range_for_groups(&source.snapshot.db, &source.index, keys)?);
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
        let seats = Self::seats(&old[0], &affected);
        let replaced = || seats.iter().filter_map(|seat| seat.ok());
        let unchanged = old.iter().zip(&fresh).all(|(old, fresh)| {
            replaced().count() == fresh.len()
                && replaced().zip(fresh).all(|(i, row)| old[i] == *row)
        });
        if unchanged {
            // Re-derivation confirmed every affected row unchanged, so the
            // cached presentation (HAVING, selection included) is still
            // exact.
            return restamped();
        }
        let raw: Arc<[Arc<[GroupRange]>]> = old
            .iter()
            .zip(fresh)
            .map(|(old, fresh)| Self::splice(old, &affected, &seats, fresh))
            .collect();
        let rows = match (stmt.order_by, stmt.limit) {
            (Some(spec), Some(_)) => {
                // Certain top-k membership is a function of the pairwise
                // possibly-precedes relation over the HAVING survivors. When
                // the patch provably preserved that relation, the cached
                // selection's keys still name exactly the certain rows —
                // re-presented with their fresh intervals in the fresh
                // deterministic order. Otherwise membership could change:
                // recompute the selection honestly (the rows themselves stay
                // patched — only the selection re-runs).
                let old_statuses = Self::having_statuses(stmt, old);
                let old_kept = Self::kept_indices(&old_statuses, old[0].len());
                let new_statuses = Self::having_statuses(stmt, &raw);
                let new_kept = Self::kept_indices(&new_statuses, raw[0].len());
                let old_sort = Self::sort_rows(&old[spec.agg_index], &old_kept);
                let new_sort = Self::sort_rows(&raw[spec.agg_index], &new_kept);
                if topk_selection_preserved(&old_sort, &new_sort, spec.descending) {
                    let members: BTreeSet<&[Value]> =
                        cached.rows.rows.iter().map(|r| r.key.as_slice()).collect();
                    let selected: Vec<usize> = order_rows(&new_sort, spec.descending)
                        .into_iter()
                        .filter(|&j| members.contains(new_sort[j].key.as_slice()))
                        .map(|j| new_kept[j])
                        .collect();
                    Self::present(stmt, &raw, &new_statuses, &selected)
                } else {
                    AtomicStats::bump(&stats.topk_fallbacks);
                    Self::post_process(stmt, &raw)
                }
            }
            _ => Self::post_process(stmt, &raw),
        };
        Ok(Ok(CachedResult { epoch, raw, rows }))
    }

    /// The stale-or-cold step shared by [`Session::fetch_result_at`] and the
    /// sharded front-end's fan-out: patch `stale` (a result behind `epoch`,
    /// with its patch sources) through [`Session::try_patch`], or — on a
    /// miss, or with nothing to patch — run `full`. The path taken is
    /// counted in `stats`.
    fn refresh(
        stats: &AtomicStats,
        stmt: &PreparedStatement,
        stale: Option<(&CachedResult, Result<Vec<PatchSource<'_>>, Miss>)>,
        epoch: u64,
        full: impl FnOnce() -> Result<CachedResult, SessionError>,
    ) -> Result<CachedResult, SessionError> {
        if let Some((cached, sources)) = stale {
            match Self::try_patch(stats, stmt, cached, sources, epoch)? {
                Ok(result) => {
                    AtomicStats::bump(&stats.partial_recomputes);
                    AtomicStats::bump(&stats.supported_patches);
                    return Ok(result);
                }
                Err(miss) => {
                    AtomicStats::bump(&stats.support_misses);
                    AtomicStats::bump(&stats.misses[miss as usize]);
                }
            }
        }
        AtomicStats::bump(&stats.full_recomputes);
        full()
    }

    /// This session as the one patch source of a result cached at `from`,
    /// read at `snapshot`: its index and the batches committed since, or
    /// [`Miss::HistoryEvicted`] when the retained history does not reach
    /// back that far.
    fn patch_source<'s>(&self, snapshot: &'s Snapshot, from: u64) -> Result<PatchSource<'s>, Miss> {
        let log = self
            .dirty_since(from, snapshot.epoch)
            .ok_or(Miss::HistoryEvicted)?;
        Ok(PatchSource {
            snapshot,
            index: self.pinned_index(snapshot),
            log,
        })
    }

    /// The cache-aware execution path shared by [`Session::execute`],
    /// [`Session::execute_many`], and the sharded front-end's designated
    /// route, against one pinned snapshot: statement lookup, then result
    /// hit / patch / full pipeline, in that order. Returns the full
    /// [`CachedResult`] — the post-processed presentation *and* the raw
    /// per-aggregate rows. No session-wide lock is held while the plan
    /// executes.
    fn fetch_result_at(
        &self,
        snapshot: &Snapshot,
        sql: &str,
    ) -> Result<(Arc<PreparedStatement>, CachedResult), SessionError> {
        let stmt = self.prepare_at(snapshot, sql)?;
        let epoch = snapshot.epoch;

        // Hot path: a result computed at exactly this snapshot's epoch
        // answers without touching the engine or the index.
        {
            let statements = self.read_statements();
            if let Some(entry) = statements.get(stmt.sql()) {
                if let Some(result) = &entry.result {
                    if result.epoch == epoch {
                        let result = result.clone();
                        drop(statements);
                        AtomicStats::bump(&self.stats.result_hits);
                        return Ok((stmt, result));
                    }
                }
            }
        }

        let index = self.pinned_index(snapshot);
        // A stale result (an epoch *behind* this snapshot) is the patch
        // basis; results from epochs ahead of the pinned snapshot are
        // useless to this reader and are left in place for current ones.
        let cached: Option<CachedResult> = self
            .read_statements()
            .get(stmt.sql())
            .and_then(|entry| entry.result.clone())
            .filter(|cached| cached.epoch < epoch);
        let stale = cached.as_ref().map(|cached| {
            let source = self.patch_source(snapshot, cached.epoch);
            (cached, source.map(|source| vec![source]))
        });
        let result = Self::refresh(&self.stats, &stmt, stale, epoch, || {
            Self::compute_result(&stmt, &snapshot.db, &index, epoch)
        })?;
        // Publish the result for this epoch — unless a reader pinned to a
        // newer snapshot stored theirs first (never regress the cache).
        {
            let mut statements = self.write_statements();
            if let Some(entry) = statements.get_mut(stmt.sql()) {
                let newer = matches!(&entry.result, Some(r) if r.epoch > epoch);
                if !newer {
                    entry.result = Some(result.clone());
                }
            }
        }
        Ok((stmt, result))
    }

    /// The sharded front-end's fan-out result cached with the statement
    /// under (normalized) `sql`, if any.
    fn fanout_result(&self, sql: &str) -> Option<FanoutResult> {
        self.read_statements()
            .get(sql)
            .and_then(|entry| entry.fanout.clone())
    }

    /// Caches a fan-out result with its statement — unless the statement was
    /// evicted meanwhile, or a reader pinned at a later frontier stored
    /// theirs first (pins are taken under every shard's commit lock, so any
    /// two frontiers are ordered).
    fn store_fanout_result(&self, sql: &str, fanout: FanoutResult) {
        if let Some(entry) = self.write_statements().get_mut(sql) {
            let newer = matches!(&entry.fanout, Some(cached)
                if cached.frontier.iter().zip(fanout.frontier.iter()).any(|(old, new)| old > new));
            if !newer {
                entry.fanout = Some(fanout);
            }
        }
    }

    /// [`Session::fetch_result_at`] reduced to the presented outcome.
    fn execute_at(&self, snapshot: &Snapshot, sql: &str) -> Result<QueryOutcome, SessionError> {
        let (stmt, result) = self.fetch_result_at(snapshot, sql)?;
        Ok(Self::outcome(&stmt, result.rows, snapshot.epoch))
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
        let index = self.pinned_index(snapshot);
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
            out.push_str(&engine.explain_with_index(&snapshot.db, &index));
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
