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
use rcqa_core::engine::{BoundAnswer, EngineOptions, GroupRange, Method, RangeCqa};
use rcqa_core::interval::{certain_topk, having_status, having_status_all, order_rows};
use rcqa_data::Value;
use rcqa_query::{parse_sql, Catalog};
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
    raw: Box<[Arc<[GroupRange]>]>,
    rows: CachedRows,
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
        let raw = Self::raw_rows(stmt, snapshot)?;
        let rows = Self::post_process(stmt, &raw);
        Ok(CachedResult {
            epoch: snapshot.epoch,
            raw,
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
    /// The affected key set comes from **one** forward enumeration,
    /// [`RangeCqa::affected_keys`]: every group with an embedding, old or
    /// new, through a block dirtied since the cached epoch — births, value
    /// changes and retractions alike, from the dirty keys and the retracted
    /// facts the log keeps, with nothing recorded at evaluation time. The
    /// dirty keys are the ids the store's commits reported, read against the
    /// pinned index without a lookup: that index descends from every index
    /// that reported them, and ids are append-only along that line. Affected
    /// keys are then over-deleted and re-derived DRed-style via
    /// [`RangeCqa::range_for_groups`]: keys whose embeddings vanished stay
    /// gone, new keys appear, everything else keeps its cached row
    /// unexamined. Whether anything changed is decided by comparing the
    /// re-derived rows with the rows they replace — never the whole result.
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
        let cached_rows = cached.raw[0].len();
        // Past half the cached rows a patch no longer undercuts the full
        // recompute on any statement measured (see above).
        if cached_rows >= 16 && affected.len() * 2 > cached_rows {
            return Ok(Err(Miss::OverHalf));
        }
        let fresh = stmt
            .engines
            .iter()
            .map(|engine| engine.range_for_groups(&snapshot.shape, &snapshot.index, &affected))
            .collect::<Result<Vec<_>, _>>()?;
        // Aggregates are key-aligned, so one search seats the keys in all.
        let seats = Self::seats(&cached.raw[0], &affected);
        let replaced = || seats.iter().filter_map(|seat| seat.ok());
        let unchanged = cached.raw.iter().zip(&fresh).all(|(old, fresh)| {
            replaced().count() == fresh.len()
                && replaced().zip(fresh).all(|(i, row)| old[i] == *row)
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
        for (rows, fresh) in cached.raw.iter_mut().zip(fresh) {
            Self::splice(rows, &affected, &seats, fresh);
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
        out
    }
}
