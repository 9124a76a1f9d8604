//! The front-end: what a reader needs — the statement cache, each
//! statement's one cached result, the patch and post-processing steps, and
//! the read counters.
//!
//! A front-end reads one [`Store`]: a [`Session`](crate::Session) is a
//! front-end over one, and reads through [`Front::read`] at a snapshot the
//! reader pinned; a [`ShardedSession`](crate::ShardedSession) is a
//! `Session` and reads through the same call. A statement's cached result
//! is stamped with the epoch of the snapshot it was read at.

use crate::store::{DirtyBatch, Store};
use crate::{
    AtomicStats, HavingStatus, Miss, PatchReasons, PreparedStatement, QueryOutcome, SessionError,
    SessionStats, Snapshot, STATEMENT_CACHE_CAP,
};
use rcqa_core::engine::{BoundAnswer, EngineOptions, GroupRange, IdRanges, Method, RangeCqa};
use rcqa_core::interval::{certain_topk, having_status, having_status_all, order_rows};
use rcqa_core::IdRows;
use rcqa_data::ValueInterner;
use rcqa_query::{parse_sql, Catalog};
use std::cmp::Ordering as Order;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// The complete row block of one statement's answer: the primary
/// aggregate's rows, the later visible aggregates' row-aligned intervals,
/// and the row-aligned HAVING statuses.
#[derive(Clone, Debug, Default)]
pub(crate) struct CachedRows {
    rows: Arc<[GroupRange]>,
    more: Vec<Arc<[GroupRange]>>,
    having: Arc<[HavingStatus]>,
}

/// One statement's cached answer: the post-processed presentation
/// ([`CachedRows`]) **and** the raw per-aggregate group rows it was derived
/// from — the patch basis differential maintenance re-derives affected rows
/// against (the presentation alone is not patchable: HAVING has dropped
/// rows and top-k has reordered them) — stamped with the epoch it was read
/// at.
///
/// The result is **copy-on-write**: its statement's entry is the only
/// long-lived owner of its rows, and a read hands out `Arc` clones of the
/// presentation. A stale read patches the result in place under the
/// statement's lock ([`Front::try_patch`], [`Front::splice`]): rows no
/// outcome still holds are overwritten or moved, never copied, and rows an
/// outcome still holds are copied once first, so a held outcome never
/// changes.
#[derive(Debug)]
struct CachedResult {
    /// The epoch of the snapshot the rows are exact for.
    epoch: u64,
    /// Raw rows per aggregate engine (SELECT items first, then hidden
    /// HAVING / ORDER BY aggregates), each in sorted group-key order and
    /// key-aligned across aggregates. A statement whose presentation is the
    /// raw rows themselves (no HAVING, no ORDER BY) shares these very slices
    /// with [`CachedRows`] — one copy of the rows, not two.
    raw: RawRows,
    /// The raw rows' group keys, row-aligned with every slice of `raw`, as
    /// ids of the interner of the index they were read over: what a patch
    /// seats its affected keys among. A patch reads them against a later
    /// snapshot's index, which descends from that one — the store floors its
    /// dirty log whenever it starts an index afresh, and ids are append-only
    /// along a line — so every id still names the same value.
    keys: IdRows,
    rows: CachedRows,
}

/// One statement's raw rows, one slice per aggregate engine.
type RawRows = Box<[Arc<[GroupRange]>]>;

/// One affected key of a patch: where it sits among the cached rows
/// (`Ok(i)`: row `i` has it; `Err(i)`: a row with it would go before row
/// `i`), and the re-derived row that has it, if any.
type Edit = (Result<usize, usize>, Option<usize>);

/// Where a row of a spliced result comes from.
enum Source {
    /// The cached row, unaffected.
    Kept(usize),
    /// The cached row's key with the re-derived row's bounds.
    Replaced(usize, usize),
    /// A re-derived row whose group was born.
    Born(usize),
}

/// The rows of a spliced result in order, walking the cached rows and the
/// edits (ascending, as the affected keys are) in step: a born row goes in
/// before the cached row at its seat, and a cached row seated at an affected
/// key the re-derivation did not answer is dropped.
struct Splice<'a> {
    edits: std::slice::Iter<'a, Edit>,
    at: usize,
    rows: usize,
}

impl<'a> Splice<'a> {
    fn new(rows: usize, edits: &'a [Edit]) -> Splice<'a> {
        Splice {
            edits: edits.iter(),
            at: 0,
            rows,
        }
    }

    /// The length of the spliced result.
    fn len(rows: usize, edits: &[Edit]) -> usize {
        let dropped = edits.iter().filter(|e| matches!(e, (Ok(_), None))).count();
        let born = edits
            .iter()
            .filter(|e| matches!(e, (Err(_), Some(_))))
            .count();
        rows - dropped + born
    }
}

impl Iterator for Splice<'_> {
    type Item = Source;

    fn next(&mut self) -> Option<Source> {
        loop {
            let at = self.at;
            let edit = self.edits.as_slice().first().copied();
            match edit.filter(|(seat, _)| seat.unwrap_or_else(|i| i) == at) {
                Some((seat, derived)) => {
                    self.edits.next();
                    self.at += usize::from(seat.is_ok());
                    match (seat, derived) {
                        (Ok(i), Some(f)) => return Some(Source::Replaced(i, f)),
                        (Err(_), Some(f)) => return Some(Source::Born(f)),
                        (_, None) => {}
                    }
                }
                None if at < self.rows => {
                    self.at += 1;
                    return Some(Source::Kept(at));
                }
                None => return None,
            }
        }
    }
}

/// A statement's cached result, behind the statement's own lock: a stale
/// reader holds it while it patches, so readers of one statement at one pin
/// patch it once between them, and readers of other statements never wait
/// for it.
type Results = Arc<Mutex<Option<CachedResult>>>;

/// One cached statement plus its last computed result (if any).
#[derive(Debug)]
pub(crate) struct CachedStatement {
    stmt: Arc<PreparedStatement>,
    /// Shared so a reader can take the statement's lock after leaving the
    /// statement map's; an entry evicted meanwhile takes its result along
    /// once that reader is done.
    results: Results,
    /// LRU stamp from the front-end's cache clock, touched on every lookup
    /// hit. An atomic so the warm read path can touch it under the
    /// statement map's shared **read** lock.
    last_used: AtomicU64,
}

/// A front-end: the catalog and engine options statements are prepared
/// with, the one statement cache (with each statement's cached result), and
/// the read counters — the read half of [`SessionStats`].
pub(crate) struct Front {
    catalog: Catalog,
    options: EngineOptions,
    /// Prepared statements and their results, keyed by normalized SQL.
    /// Readers share the read lock on the serving path.
    statements: RwLock<HashMap<String, CachedStatement>>,
    /// Monotonic LRU clock for the bounded statement cache: bumped on every
    /// statement touch, stored into the touched entry's `last_used`.
    cache_clock: AtomicU64,
    stats: AtomicStats,
}

impl Front {
    pub(crate) fn new(catalog: Catalog) -> Front {
        Front {
            catalog,
            options: EngineOptions::default(),
            statements: RwLock::new(HashMap::new()),
            cache_clock: AtomicU64::new(0),
            stats: AtomicStats::default(),
        }
    }

    /// Cached statements embed the options they were prepared with, so the
    /// statement (and result) cache is cleared; the store is
    /// options-independent and keeps everything.
    pub(crate) fn with_options(mut self, options: EngineOptions) -> Front {
        self.options = options;
        self.statements
            .get_mut()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
        self
    }

    pub(crate) fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    pub(crate) fn options(&self) -> EngineOptions {
        self.options
    }

    /// The read counters; every commit counter is 0.
    pub(crate) fn stats(&self) -> SessionStats {
        self.stats.snapshot()
    }

    pub(crate) fn patch_reasons(&self) -> PatchReasons {
        self.stats.patch_reasons()
    }

    /// Bumps the LRU clock and stamps the entry as just-used.
    fn touch(&self, entry: &CachedStatement) {
        let stamp = self.cache_clock.fetch_add(1, Ordering::Relaxed) + 1;
        entry.last_used.store(stamp, Ordering::Relaxed);
    }

    // Lock poisoning of the statement map is not propagated: entries are
    // rebuildable, so a reader that panicked mid-update cannot leave them
    // semantically torn.
    pub(crate) fn read_statements(
        &self,
    ) -> std::sync::RwLockReadGuard<'_, HashMap<String, CachedStatement>> {
        self.statements.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Parses, classifies, and plans a SQL statement over the numeric
    /// domain of `snapshot`, caching it by normalized SQL.
    pub(crate) fn prepare(
        &self,
        snapshot: &Snapshot,
        sql: &str,
    ) -> Result<Arc<PreparedStatement>, SessionError> {
        let key = rcqa_query::normalize_sql(sql);
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
        let domain = snapshot.index.numeric_domain();
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
        let mut statements = self.statements.write().unwrap_or_else(|e| e.into_inner());
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
                    results: Results::default(),
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

    /// Where each of the `affected` keys sits among the cached `keys`, and
    /// which of the `derived` keys — the re-derived rows' — is the same key.
    /// All three are sorted by value and hold ids of `interner`, the pinned
    /// index's. A search compares id rows by
    /// [`ValueInterner::cmp_id_tuples`] — a plain integer comparison while
    /// both ids sit in the interner's sorted prefix — and gallops from the
    /// previous seat: the rows 1, 2, 4, … past it, then a binary search of
    /// the last step. A key `g` rows past the previous one costs
    /// `O(log g)` comparisons, so keys packed together cost a few each and
    /// the whole walk at most `O(|affected| · log |keys|)`. Whether a key is
    /// seated, or derived, is id equality.
    fn seats(
        interner: &ValueInterner,
        keys: &IdRows,
        affected: &IdRows,
        derived: &IdRows,
    ) -> Vec<Edit> {
        let (mut from, mut next, rows) = (0, 0, keys.len());
        affected
            .iter()
            .map(|key| {
                let less = |row: &[u32]| interner.cmp_id_tuples(row, key) == Order::Less;
                // Rows `from..from + lo` are less than `key`, and the first
                // row that is not lies below `from + hi` (or is `rows`).
                let (mut lo, mut hi) = (0, 1);
                while from + hi <= rows && less(keys.row(from + hi - 1)) {
                    (lo, hi) = (hi, 2 * hi);
                }
                let end = (from + hi - 1).min(rows);
                let at = keys.partition_point(from + lo..end, less);
                let seat = match at < rows && keys.row(at) == key {
                    true => Ok(at),
                    false => Err(at),
                };
                from = seat.map_or_else(|i| i, |i| i + 1);
                let fresh = (next < derived.len() && derived.row(next) == key).then_some(next);
                next += usize::from(fresh.is_some());
                (seat, fresh)
            })
            .collect()
    }

    /// Splices aggregate `agg`'s re-derived rows (of the statement's `fresh`
    /// ranges) into its cached rows, in place, by the `edits` of
    /// [`Front::seats`]: a row seated at an affected
    /// key takes the bounds of the `fresh` row of the same key, or is dropped
    /// when there is none, and a fresh row of a key without a seat goes in
    /// before the row at its seat. The rows are copy-on-write
    /// ([`Arc::make_mut`]): rows an outcome still holds are copied once
    /// first, so the held outcome never changes, and rows no one else holds
    /// are patched where they are. A key is made a [`rcqa_data::Value`] only
    /// for a born row, through `interner`; a replaced row keeps its key.
    ///
    /// When the group set holds — each affected key has a row after the
    /// patch exactly when it had one before — the fresh bounds overwrite the
    /// old ones in their seats. Otherwise the kept rows move into one
    /// exactly-sized new slice — each key is taken, not cloned, so a row
    /// costs no allocation and no reference count — and the old slice is
    /// freed holding only the dropped rows' keys. [`Front::splice_keys`]
    /// moves the id-key column the same way.
    fn splice(
        rows: &mut Arc<[GroupRange]>,
        edits: &[Edit],
        fresh: &IdRanges,
        agg: usize,
        interner: &ValueInterner,
    ) {
        let old = Arc::make_mut(rows);
        if edits.iter().all(|(seat, f)| seat.is_ok() == f.is_some()) {
            for &(seat, f) in edits {
                if let (Ok(i), Some(f)) = (seat, f) {
                    (old[i].glb, old[i].lub) = fresh.bounds(agg, f);
                }
            }
            return;
        }
        let mut sources = Splice::new(old.len(), edits);
        // A mapped range has a trusted length: one allocation, exactly sized.
        let spliced = (0..Splice::len(old.len(), edits))
            .map(
                |_| match sources.next().expect("the spliced length is counted") {
                    Source::Kept(i) => {
                        let row = &mut old[i];
                        let key = std::mem::take(&mut row.key);
                        GroupRange { key, ..*row }
                    }
                    Source::Replaced(i, f) => {
                        let (glb, lub) = fresh.bounds(agg, f);
                        let key = std::mem::take(&mut old[i].key);
                        GroupRange { key, glb, lub }
                    }
                    Source::Born(f) => fresh.row(agg, f, interner),
                },
            )
            .collect();
        debug_assert!(sources.next().is_none(), "the spliced length is counted");
        *rows = spliced;
    }

    /// The cached id-key column after a splice by `edits` that changes the
    /// group set ([`Front::splice`]): the kept and replaced rows' ids, and
    /// the born rows' from the re-derived keys `fresh`.
    fn splice_keys(keys: &IdRows, edits: &[Edit], fresh: &IdRows) -> IdRows {
        let mut out = IdRows::with_capacity(keys.width(), Splice::len(keys.len(), edits));
        for source in Splice::new(keys.len(), edits) {
            let row = match source {
                Source::Kept(i) | Source::Replaced(i, _) => keys.row(i),
                Source::Born(f) => fresh.row(f),
            };
            out.push(row.iter().copied());
        }
        out
    }

    /// The outcome a reader gets: `rows` stamped with `epoch`.
    pub(crate) fn outcome(stmt: &PreparedStatement, rows: CachedRows, epoch: u64) -> QueryOutcome {
        QueryOutcome {
            query: stmt.query.clone(),
            classification: stmt.classification.clone(),
            columns: stmt.columns.to_vec(),
            rows: rows.rows,
            more_aggregates: rows.more,
            having: rows.having,
            epoch,
        }
    }

    /// Evaluates every aggregate engine of one statement over one pinned
    /// snapshot, in one executor call ([`RangeCqa::range_statement`]: one
    /// discovery and one walk per group for every bound), returning the raw
    /// per-aggregate group rows — key-aligned, in sorted group-key order,
    /// before HAVING / ORDER BY post-processing. These are what the result
    /// cache keeps as the patch basis, with their keys in id space: the
    /// column the evaluation held before it made its keys values.
    fn raw_rows(
        stmt: &PreparedStatement,
        snapshot: &Snapshot,
    ) -> Result<(RawRows, IdRows), SessionError> {
        // A statically contradictory WHERE clause needs no engine run: no
        // repair has a satisfying embedding, so a grouped statement has no
        // possible answer rows, while a closed statement answers its single
        // `[⊥, ⊥]` row. The synthetic rows still flow through the normal
        // HAVING / ORDER BY pipeline below (a comparison against `⊥` is
        // `Possible`; a `⊥` row is never certainly in a top-k).
        let (per_agg, keys): (RawRows, IdRows) = if stmt.unsatisfiable {
            let mut keys = IdRows::new(stmt.query.body.free_vars().len());
            let rows: Arc<[GroupRange]> = if keys.width() == 0 {
                let bottom = Some(BoundAnswer {
                    value: None,
                    method: Method::Rewriting,
                });
                keys.push([]);
                Arc::new([GroupRange {
                    key: Vec::new(),
                    glb: bottom,
                    lub: bottom,
                }])
            } else {
                Arc::new([])
            };
            (stmt.engines.iter().map(|_| rows.clone()).collect(), keys)
        } else {
            let interner = snapshot.index.interner();
            let ranges = RangeCqa::range_statement(&stmt.engines, &snapshot.index, None)?;
            // Collected straight into the slices the cache keeps: a mapped
            // range has a trusted length, so one allocation each.
            let per_agg = (0..ranges.aggregates())
                .map(|a| {
                    (0..ranges.keys().len())
                        .map(|i| ranges.row(a, i, interner))
                        .collect()
                })
                .collect();
            (per_agg, ranges.into_keys())
        };
        let primary = &per_agg[0];
        debug_assert!(
            per_agg.iter().all(|rows| {
                rows.len() == primary.len()
                    && rows.iter().zip(primary.iter()).all(|(a, b)| a.key == b.key)
            }),
            "aggregates share body and predicates, so group keys must align"
        );
        debug_assert_eq!(keys.len(), primary.len(), "one id key per row");
        Ok((per_agg, keys))
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

    /// Full post-processing of one statement's raw rows: HAVING trichotomy
    /// (dropping `Violated` rows — certainly absent in every repair), then
    /// ORDER BY (presentation order) / LIMIT (certain top-k) over the
    /// sort-key aggregate's intervals of the surviving rows, then
    /// SELECT-clause projection with row-aligned HAVING statuses. The parser
    /// guarantees LIMIT implies ORDER BY. A statement with neither HAVING
    /// nor ORDER BY presents its raw rows as they are: the presentation
    /// **shares** the raw slices instead of copying them.
    fn post_process(stmt: &PreparedStatement, per_agg: &[Arc<[GroupRange]>]) -> CachedRows {
        if stmt.having.is_empty() && stmt.order_by.is_none() {
            return CachedRows {
                rows: per_agg[0].clone(),
                more: per_agg[1..stmt.visible_aggregates].to_vec(),
                having: Arc::new([]),
            };
        }
        let statuses = Self::having_statuses(stmt, per_agg);
        // Sized up front: a filtered collect would grow in `log rows` steps.
        let mut kept = Vec::with_capacity(per_agg[0].len());
        kept.extend(
            (0..per_agg[0].len())
                .filter(|&i| statuses.is_empty() || statuses[i] != HavingStatus::Violated),
        );
        let selected: Vec<usize> = match stmt.order_by {
            Some(spec) => {
                let sort_rows: Vec<&GroupRange> =
                    kept.iter().map(|&i| &per_agg[spec.agg_index][i]).collect();
                let picked = match stmt.limit {
                    Some(k) => certain_topk(&sort_rows, k, spec.descending),
                    None => order_rows(&sort_rows, spec.descending),
                };
                picked.into_iter().map(|j| kept[j]).collect()
            }
            None => kept,
        };
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

    /// A cold evaluation of one statement at `snapshot`: its raw rows,
    /// then their post-processing.
    fn evaluate(
        stmt: &PreparedStatement,
        snapshot: &Snapshot,
    ) -> Result<CachedResult, SessionError> {
        let (raw, keys) = Self::raw_rows(stmt, snapshot)?;
        let rows = Self::post_process(stmt, &raw);
        Ok(CachedResult {
            epoch: snapshot.epoch,
            raw,
            keys,
            rows,
        })
    }

    /// Attempts to bring a stale cached result up to the reader's pin by
    /// differential maintenance, **in place**, at a cost proportional to the
    /// delta: `O(|dirty| · log rows)` to find what it affects, the work of
    /// the affected groups to re-derive them, and — only when some row
    /// really changed — the splice ([`Front::splice`]): an overwrite of the
    /// changed rows in their seats, or, when groups were born or vanished,
    /// one move of the kept rows into a new slice. The caller holds the
    /// statement's lock, and the presentation is dropped before the splice,
    /// so the raw rows are copied only when an outcome a caller still holds
    /// shares them. The presentation is then re-derived from the patched
    /// rows by [`Front::post_process`], as a cold read derives it: a
    /// certain top-k re-selects (counted in
    /// [`SessionStats::topk_fallbacks`]). Nothing is changed before the last
    /// fallible step, and the caller restamps the result. Returns the
    /// [`Miss`] — fall back to a full recompute — when the dirty history no
    /// longer reaches back to the cached epoch (`log` is that miss), or the
    /// affected key set covers more than half the rows.
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
    /// Since one walk answers every bound, re-derivation alone was measured
    /// again at the engine, on the same statement and instance with no writes
    /// (the hottest `k` % of its rows by embeddings, listed, against the
    /// statement's recompute; two runs each, before and after): at 30, 40 and
    /// 50 % it costs 0.10–0.16, 0.14–0.24 and 0.20–0.34 of the recompute,
    /// against 0.20–0.35, 0.30–0.50 and 0.45–0.75 when each bound walked
    /// alone; with MIN as a second aggregate 0.14–0.20, 0.19–0.27 and
    /// 0.23–0.39, against 0.20–0.33, 0.32–0.48 and 0.50–0.72. The recompute
    /// itself fell too (1.3–1.6 ms from 2.1–2.2, and 1.4–1.6 from 4.0–4.1
    /// with MIN). The session-level table above — discovery, splice and
    /// post-processing included, over real batches — was not re-measured, so
    /// the cut-off stays at half.
    ///
    /// The affected key set comes from **one** forward enumeration,
    /// [`RangeCqa::affected_keys`]: every group with an embedding, old or
    /// new, through a block dirtied since the cached epoch — births, value
    /// changes and retractions alike, from the dirty keys and the retracted
    /// facts the log keeps, with nothing recorded at evaluation time. The
    /// dirty keys are the ids the store's commits reported, read against the
    /// pinned index without a lookup: that index descends from every index
    /// that reported them, and ids are append-only along that line. Affected
    /// keys are then over-deleted and re-derived DRed-style by one
    /// executor call for the whole statement
    /// ([`RangeCqa::range_statement`] over the one id set, each listed key
    /// evaluated once for every bound of every aggregate): keys whose embeddings vanished stay gone, new keys
    /// appear, everything else keeps its cached row unexamined. The keys
    /// stay ids from the dirty log to the splice — nothing is resolved
    /// through the interner, and [`Front::seats`] finds them among the
    /// cached id-key column — and a [`rcqa_data::Value`] is made only for
    /// the key of a born row. Whether anything changed is decided by
    /// comparing the seated rows' bounds with the re-derived ones, once the
    /// group set is known to hold (id equality) — never the whole result.
    fn try_patch(
        &self,
        stmt: &PreparedStatement,
        cached: &mut CachedResult,
        snapshot: &Snapshot,
        log: Result<Vec<Arc<DirtyBatch>>, Miss>,
    ) -> Result<Result<(), Miss>, SessionError> {
        // A statically contradictory WHERE clause is answered independently
        // of the data: the cached synthetic rows hold at every epoch.
        if stmt.unsatisfiable {
            return Ok(Ok(()));
        }
        let log = match log {
            Ok(log) => log,
            Err(miss) => return Ok(Err(miss)),
        };
        let affected = stmt.engine().affected_keys(
            &snapshot.index,
            log.iter().flat_map(|batch| batch.blocks.iter()),
            log.iter().flat_map(|batch| batch.retracted.iter()),
        );
        if affected.is_empty() {
            // No old or new embedding passes through a dirty block: the
            // result is untouched by the whole delta range.
            return Ok(Ok(()));
        }
        let cached_rows = cached.keys.len();
        // Past half the cached rows a patch no longer undercuts the full
        // recompute on any statement measured (see above).
        if cached_rows >= 16 && affected.len() * 2 > cached_rows {
            return Ok(Err(Miss::OverHalf));
        }
        let fresh = RangeCqa::range_statement(&stmt.engines, &snapshot.index, Some(&affected))?;
        // Aggregates are key-aligned, so one search seats the keys in all.
        let interner = snapshot.index.interner();
        let edits = Self::seats(interner, &cached.keys, &affected, fresh.keys());
        let same_groups = edits.iter().all(|(seat, f)| seat.is_ok() == f.is_some());
        let unchanged = same_groups
            && cached.raw.iter().enumerate().all(|(a, old)| {
                edits.iter().all(|&(seat, f)| match (seat, f) {
                    (Ok(i), Some(f)) => (old[i].glb, old[i].lub) == fresh.bounds(a, f),
                    _ => true,
                })
            });
        if unchanged {
            // Re-derivation confirmed every affected row unchanged, so the
            // cached presentation (HAVING, selection included) is still
            // exact.
            return Ok(Ok(()));
        }
        // Nothing fallible is left: the result is patched from here on. The
        // presentation goes first, so that rows it shares with the raw rows
        // are held once and patch in place.
        cached.rows = CachedRows::default();
        for (a, rows) in cached.raw.iter_mut().enumerate() {
            Self::splice(rows, &edits, &fresh, a, interner);
        }
        if !same_groups {
            cached.keys = Self::splice_keys(&cached.keys, &edits, fresh.keys());
        }
        if stmt.limit.is_some() {
            AtomicStats::bump(&self.stats.topk_fallbacks);
        }
        cached.rows = Self::post_process(stmt, &cached.raw);
        Ok(Ok(()))
    }

    /// The cached result of the statement under (normalized) `sql`, or —
    /// when it was evicted since it was prepared — a detached empty slot the
    /// reader fills and drops.
    fn results(&self, sql: &str) -> Results {
        self.read_statements()
            .get(sql)
            .map(|entry| entry.results.clone())
            .unwrap_or_default()
    }

    /// The one read path of a front-end: `stmt`'s presented answer over
    /// `store` at the `snapshot` of it the reader pinned. Under the
    /// statement's lock, its one cached result is served when it is stamped
    /// with exactly the pinned epoch, patched in place through the batches
    /// committed since ([`Front::try_patch`]), or — on a miss or with
    /// nothing cached — evaluated cold ([`Front::evaluate`]). The path taken
    /// is counted. No front-end-wide lock is held while the plan executes.
    pub(crate) fn read(
        &self,
        stmt: &PreparedStatement,
        store: &Store,
        snapshot: &Snapshot,
    ) -> Result<CachedRows, SessionError> {
        let results = self.results(stmt.sql());
        // Unlike the other state, a result is patched in place, so a reader
        // that panicked while holding it may have left it torn: a poisoned
        // lock drops it (this read recomputes) rather than serving it.
        let mut slot = results.lock().unwrap_or_else(|poisoned| {
            results.clear_poison();
            let mut slot = poisoned.into_inner();
            *slot = None;
            slot
        });
        if let Some(cached) = slot.as_mut() {
            // Hot path: a result computed at exactly the pinned epoch
            // answers without touching the engine or the index.
            if cached.epoch == snapshot.epoch {
                AtomicStats::bump(&self.stats.result_hits);
                return Ok(cached.rows.clone());
            }
            // Pins are ordered: a result ahead of the pin comes from a later
            // pin, is useless to this reader, and stays in place for
            // current ones.
            if cached.epoch > snapshot.epoch {
                drop(slot);
                AtomicStats::bump(&self.stats.full_recomputes);
                return Ok(Self::evaluate(stmt, snapshot)?.rows);
            }
            // A stale result is the patch basis.
            let log = store.patch_log(cached.epoch, snapshot.epoch);
            match self.try_patch(stmt, cached, snapshot, log)? {
                Ok(()) => {
                    cached.epoch = snapshot.epoch;
                    AtomicStats::bump(&self.stats.partial_recomputes);
                    AtomicStats::bump(&self.stats.supported_patches);
                    return Ok(cached.rows.clone());
                }
                Err(miss) => {
                    AtomicStats::bump(&self.stats.support_misses);
                    AtomicStats::bump(&self.stats.misses[miss as usize]);
                }
            }
        }
        AtomicStats::bump(&self.stats.full_recomputes);
        // The stale result goes before its replacement is computed.
        *slot = None;
        Ok(slot.insert(Self::evaluate(stmt, snapshot)?).rows.clone())
    }

    /// An `EXPLAIN`-style rendering of `stmt` over a pinned snapshot: the
    /// per-aggregate plan — including the access path taken, with its
    /// matched and total block counts — then the post-processing steps
    /// (HAVING trichotomy, ORDER BY, certain top-k).
    pub(crate) fn explain(stmt: &PreparedStatement, snapshot: &Snapshot) -> String {
        let mut out = String::new();
        if stmt.unsatisfiable {
            out.push_str(
                "contradictory WHERE clause: no repair satisfies it; answered statically\n",
            );
            return out;
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
            out.push_str(&engine.explain_with_index(&snapshot.index));
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
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcqa_data::{Rational, Value};
    use std::collections::BTreeMap;

    /// The `Value`-keyed seating the id-keyed [`Front::seats`] replaced, kept
    /// as its oracle: where each of `keys` (sorted) sits among `rows` (sorted
    /// by key), each search resuming behind the previous seat.
    fn seats_by_value(rows: &[GroupRange], keys: &[Vec<Value>]) -> Vec<Result<usize, usize>> {
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

    /// SplitMix64: a seeded stream of draws, so every case is reproducible
    /// from its number.
    struct Draws(u64);

    impl Draws {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }

        /// `true` with probability `percent` / 100.
        fn chance(&mut self, percent: u64) -> bool {
            self.below(100) < percent
        }
    }

    /// An interner whose sorted prefix holds `b d f h j` and whose overlay
    /// holds values sorting before, between and after them, interned in the
    /// reverse of their value order — so among overlay ids, and between an
    /// overlay id and a prefix id, id order and value order part — and the
    /// domain of key components, in value order.
    fn interner() -> (ValueInterner, Vec<Value>) {
        let prefix: Vec<Value> = ["b", "d", "f", "h", "j"].map(Value::text).into();
        let mut interner = ValueInterner::from_sorted(prefix.clone());
        let overlay: Vec<Value> = ["k", "i", "g", "e", "c", "a"].map(Value::text).into();
        for v in overlay.iter().chain([&Value::int(7)]) {
            interner.intern(v);
        }
        let mut domain: Vec<Value> = prefix.into_iter().chain(overlay).collect();
        domain.push(Value::int(7));
        domain.sort();
        (interner, domain)
    }

    fn bound(draws: &mut Draws) -> Option<BoundAnswer> {
        Some(BoundAnswer {
            value: Some(Rational::from(draws.below(5) as i64)),
            method: Method::Rewriting,
        })
    }

    fn ids_of(interner: &ValueInterner, keys: &[&Vec<Value>]) -> IdRows {
        let mut rows = IdRows::new(2);
        for key in keys {
            rows.push(key.iter().map(|v| interner.id_of(v).expect("interned")));
        }
        rows
    }

    /// The id-keyed seating and splice against the `Value`-keyed oracle, over
    /// two-column keys drawn from the interner's prefix and overlay: every
    /// seat, the rows after the splice (against a merge of the cached and
    /// re-derived rows), the id-key column after it, and a held outcome's
    /// rows, which never change. The cases cover empty cached rows, every
    /// cached key affected and re-derived, births before the first row and
    /// after the last, and vanishings.
    #[test]
    fn id_keyed_seats_and_splice_match_the_value_keyed_oracle() {
        let (interner, domain) = interner();
        let universe: Vec<Vec<Value>> = domain
            .iter()
            .flat_map(|a| domain.iter().map(move |b| vec![a.clone(), b.clone()]))
            .collect();
        for case in 0..600u64 {
            let mut draws = Draws(case);
            let shape = case % 4;
            let (cached_pct, affected_pct, fresh_pct) = match shape {
                // Empty cached rows: every re-derived row is a birth.
                0 => (0, 20, 60),
                // Every cached key affected and re-derived.
                1 => (30, 0, 100),
                _ => (draws.below(60), draws.below(30), draws.below(100)),
            };
            let mut cached: BTreeMap<Vec<Value>, GroupRange> = BTreeMap::new();
            for key in &universe {
                if draws.chance(cached_pct) {
                    let (glb, lub) = (bound(&mut draws), bound(&mut draws));
                    let row = GroupRange {
                        key: key.clone(),
                        glb,
                        lub,
                    };
                    cached.insert(key.clone(), row);
                }
            }
            // Births at both ends and vanishings at both ends, now and then.
            let (first, last) = (universe.first().unwrap(), universe.last().unwrap());
            let mut affected: Vec<&Vec<Value>> = universe
                .iter()
                .filter(|key| {
                    (shape == 1 && cached.contains_key(*key))
                        || draws.chance(affected_pct)
                        || ((*key == first || *key == last) && draws.chance(50))
                })
                .collect();
            affected.dedup();
            let derived: Vec<&Vec<Value>> = affected
                .iter()
                .copied()
                .filter(|_| draws.chance(fresh_pct))
                .collect();
            let fresh = IdRanges::new(
                ids_of(&interner, &derived),
                1,
                (derived.iter())
                    .map(|_| (bound(&mut draws), bound(&mut draws)))
                    .collect(),
            );
            let rows: Vec<GroupRange> = cached.values().cloned().collect();
            let cached_keys: Vec<&Vec<Value>> = cached.keys().collect();
            let keys = ids_of(&interner, &cached_keys);
            let affected_ids = ids_of(&interner, &affected);

            let edits = Front::seats(&interner, &keys, &affected_ids, fresh.keys());
            let affected_values: Vec<Vec<Value>> = affected.iter().map(|k| (*k).clone()).collect();
            let oracle = seats_by_value(&rows, &affected_values);
            let seats: Vec<_> = edits.iter().map(|&(seat, _)| seat).collect();
            assert_eq!(seats, oracle, "case {case}: seats");
            for (key, &(_, f)) in affected.iter().zip(&edits) {
                assert_eq!(
                    f.map(|f| derived[f]),
                    derived.iter().copied().find(|d| d == key),
                    "case {case}: the re-derived row of {key:?}"
                );
            }

            let mut expected = cached.clone();
            for key in &affected {
                expected.remove(*key);
            }
            for (i, key) in derived.iter().enumerate() {
                expected.insert((*key).clone(), fresh.row(0, i, &interner));
            }
            let expected: Vec<GroupRange> = expected.into_values().collect();
            let mut spliced: Arc<[GroupRange]> = rows.clone().into();
            let held = (case % 3 == 0).then(|| spliced.clone());
            Front::splice(&mut spliced, &edits, &fresh, 0, &interner);
            assert_eq!(&spliced[..], &expected[..], "case {case}: rows");
            if let Some(held) = held {
                assert_eq!(&held[..], &rows[..], "case {case}: a held outcome changed");
            }
            let same_groups = edits.iter().all(|(seat, f)| seat.is_ok() == f.is_some());
            let keys = match same_groups {
                true => keys,
                false => Front::splice_keys(&keys, &edits, fresh.keys()),
            };
            let materialised: Vec<Vec<Value>> =
                keys.iter().map(|key| interner.values_of(key)).collect();
            let expected_keys: Vec<Vec<Value>> = expected.iter().map(|r| r.key.clone()).collect();
            assert_eq!(materialised, expected_keys, "case {case}: id keys");
        }
    }
}
