//! The top-level range-CQA engine: read a query's bound operators off the
//! strategy table and execute them (in parallel) on a database instance.
//!
//! ## Evaluation strategies
//!
//! Per `(aggregate, aggregated term, bound, numeric domain, attack graph)`
//! the theorems leave one sound path. The table is written once, in the docs
//! of [`crate::plan::BoundOp::choose`] — the function that decides it — with
//! three kinds of cell: a rewriting, a plain extremum, exact enumeration.
//!
//! "Rewriting" evaluates the Theorem 6.1 / 7.11 semantics operationally over
//! ∀embeddings and "plain extremum" takes the extremum over all embeddings —
//! both by the memoised level-by-level recursion of [`crate::glb`], straight
//! over the block index ([`crate::plan::exec`], "Id discipline"). Exact
//! enumeration answers a group from the repairs of the blocks holding a fact
//! of one of its embeddings — all its value in a repair can depend on — and
//! is exponential in the inconsistent blocks among *those*; every requested
//! group is checked against [`MAX_REPAIRS`] before the first repair is built
//! ([`crate::exact`] is the whole-instance reference the tests compare with).
//! The fallback is always on: the cells of the table without a rewriting
//! (AVG, the LUB of SUM, residual predicates) have no other sound path.
//!
//! ## One pipeline
//!
//! Nothing is searched and nothing is lowered: a [`Plan`] is the operator of
//! each requested bound, and `glb`, `lub`, `range` **and the exhaustive-repair
//! fallback** (the operator [`crate::plan::BoundOp::ExactEnumeration`]) all
//! run the same `Scan | Seek → Join → PartitionByGroup → ForallCheck →
//! AggregateBound → RangeMerge` pipeline of [`crate::plan::exec`], whose
//! stages read what they do off the plan. Comparison predicates are routed
//! once, when they are attached (`PredicateRouting`); the plan and the access
//! path taken on an instance are inspectable via [`RangeCqa::plan`] /
//! [`RangeCqa::explain`].
//!
//! ## One index, one discovery, shared memos
//!
//! Each public entry point ([`RangeCqa::glb`], [`RangeCqa::lub`],
//! [`RangeCqa::range`]) builds **one** [`DbIndex`], regardless of the number
//! of GROUP BY groups:
//!
//! 1. the group keys are discovered once over the shared index (`Join` +
//!    `PartitionByGroup`): the open body (GROUP BY variables un-frozen, level
//!    order precomputed at preparation time) is walked under an existence
//!    memo, without listing its embeddings — no per-group re-preparation, no
//!    attack-graph recomputation, no per-group index rebuild;
//! 2. every rewriting-backed bound of each group is a component of one
//!    memoised recursion of [`crate::glb`] over the closed body
//!    (`ForallCheck` + `AggregateBound`), and so is certainty — the same
//!    recursion of a constant, which gates the plain extremum: its memo keys
//!    include the frozen group variables, so a sub-problem — every bound's
//!    value and the certainty verdict at once — computed for one group is
//!    reused by every other group evaluated on the same worker that reaches
//!    it;
//! 3. a statement of several aggregates over one body
//!    ([`RangeCqa::range_statement`]) is one discovery and one such walk per
//!    group for all of them, not one per aggregate.
//!
//! The exact-enumeration fallback builds none either: it walks the repairs of
//! a group's blocks as choices of rows of that one index.
//!
//! ## Threading model
//!
//! The executor ([`crate::plan::exec`]) shards group discovery by level-0
//! block and then fans the sorted groups out over a `std::thread::scope`
//! worker pool. Each worker owns its memo — one evaluator of every bound —
//! over the shared read-only index; `RangeMerge` concatenates the contiguous shards in order, so answers are
//! byte-identical at every thread count. Worker count:
//! [`EngineOptions::threads`] if non-zero, else the `RCQA_THREADS`
//! environment variable, else [`std::thread::available_parallelism`].

use crate::classify::{classify_prepared, Classification};
use crate::error::CoreError;
use crate::forall::{Join, KeyPin};
use crate::ids::{resolve_ids, IdRows, IdTupleSet};
use crate::index::{AccessPath, BlockRestriction, DbIndex, DirtyBlock, DirtyKeys};
use crate::plan::exec::{execute, execute_for_groups, group_keys, ExecContext, RowSupport};
use crate::plan::{BoundOp, Plan};
use crate::prepared::PreparedAggQuery;
use crate::rewrite::{rewriting_for, BoundKind, Rewriting};
use rcqa_data::{
    DatabaseInstance, DeltaEvent, Fact, NumericDomain, Rational, Schema, Value, ValueInterner,
};
use rcqa_query::{AggQuery, VarPredicate};
use std::collections::{BTreeSet, HashMap};
use std::sync::OnceLock;

/// How an answer was obtained.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// Theorem 6.1 / 7.11 rewriting semantics, evaluated operationally over
    /// ∀embeddings.
    Rewriting,
    /// Theorem 7.10 semantics: plain extremum over all embeddings (MIN's glb,
    /// MAX's lub).
    PlainExtremum,
    /// Exhaustive repair enumeration (exact fallback).
    ExactEnumeration,
}

/// One bound of one group.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BoundAnswer {
    /// The bound, or `None` for the distinguished answer `⊥`.
    pub value: Option<Rational>,
    /// How the bound was computed.
    pub method: Method,
}

/// The `[glb, lub]` interval for one group.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GroupRange {
    /// The group key (empty for closed queries).
    pub key: Vec<Value>,
    /// Greatest lower bound, if requested.
    pub glb: Option<BoundAnswer>,
    /// Least upper bound, if requested.
    pub lub: Option<BoundAnswer>,
}

/// Group rows as the executor computes them, before any key is made a
/// [`Value`]: each group's key as a row of ids of the evaluated index's
/// interner, beside its bounds — for each aggregate of a statement
/// ([`RangeCqa::range_statement`]), or for the one aggregate of an engine.
/// The keys are sorted by [`rcqa_data::ValueInterner::cmp_id_tuples`] —
/// group-key value order, as in a [`GroupRange`] list — and
/// [`IdRanges::to_rows`] makes exactly the rows of
/// [`RangeCqa::range_with_index`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IdRanges {
    /// Row `i` is the key of group `i`.
    keys: IdRows,
    /// How many aggregates each group has bounds for.
    aggregates: usize,
    /// Group `i`'s `(glb, lub)` of aggregate `a` at `i * aggregates + a`,
    /// each present iff requested.
    bounds: Vec<(Option<BoundAnswer>, Option<BoundAnswer>)>,
}

impl IdRanges {
    /// Groups of `aggregates` aggregates with the keys `keys`: group `i`'s
    /// bounds of aggregate `a` are `bounds[i * aggregates + a]`.
    ///
    /// # Panics
    /// Panics unless there is one pair of bounds per key and aggregate, and
    /// at least one aggregate.
    pub fn new(
        keys: IdRows,
        aggregates: usize,
        bounds: Vec<(Option<BoundAnswer>, Option<BoundAnswer>)>,
    ) -> IdRanges {
        assert!(aggregates > 0, "an aggregate at least");
        assert_eq!(
            keys.len() * aggregates,
            bounds.len(),
            "one pair of bounds per key and aggregate"
        );
        IdRanges {
            keys,
            aggregates,
            bounds,
        }
    }

    /// How many aggregates each group has bounds for.
    pub fn aggregates(&self) -> usize {
        self.aggregates
    }

    /// The group keys, one row per group.
    pub fn keys(&self) -> &IdRows {
        &self.keys
    }

    /// The group keys, one row per group, taken.
    pub fn into_keys(self) -> IdRows {
        self.keys
    }

    /// Group `i`'s `(glb, lub)` of aggregate `agg`.
    pub fn bounds(&self, agg: usize, i: usize) -> (Option<BoundAnswer>, Option<BoundAnswer>) {
        debug_assert!(
            agg < self.aggregates,
            "aggregate {agg} of {}",
            self.aggregates
        );
        self.bounds[i * self.aggregates + agg]
    }

    /// Group `i` of aggregate `agg` with its key materialised through
    /// `interner` — the evaluated index's, or one descending from it.
    pub fn row(&self, agg: usize, i: usize, interner: &ValueInterner) -> GroupRange {
        let (glb, lub) = self.bounds(agg, i);
        GroupRange {
            key: interner.values_of(self.keys.row(i)),
            glb,
            lub,
        }
    }

    /// Every group of aggregate `agg`, keys materialised through `interner`.
    pub fn to_rows(&self, agg: usize, interner: &ValueInterner) -> Vec<GroupRange> {
        (0..self.keys.len())
            .map(|i| self.row(agg, i, interner))
            .collect()
    }
}

/// The most repairs the exact fallback enumerates for one group: the repairs
/// of the blocks the group's embeddings touch. A group within it may still
/// cost that many evaluations; a statement with a group over it is refused
/// before the first repair is built.
pub const MAX_REPAIRS: u128 = 1 << 22;

/// Engine options: the executor's worker count, the one evaluation setting
/// callers choose (the repair budget is [`MAX_REPAIRS`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineOptions {
    /// Number of executor worker threads for grouped evaluation.
    ///
    /// `0` (the default) resolves at execution time: the `RCQA_THREADS`
    /// environment variable if set to a positive integer, else
    /// [`std::thread::available_parallelism`]. The worker count is always
    /// clamped to the number of groups, so closed queries run inline.
    pub threads: usize,
}

impl EngineOptions {
    /// Resolves the effective executor worker count: an explicit
    /// [`EngineOptions::threads`] wins, then the `RCQA_THREADS` environment
    /// variable (read on every call), then the machine's available
    /// parallelism (asked once per process: the query re-reads the cgroup
    /// quota files, which costs more than a whole point read).
    pub fn resolve_threads(&self) -> usize {
        if self.threads > 0 {
            return self.threads;
        }
        if let Ok(raw) = std::env::var("RCQA_THREADS") {
            if let Ok(n) = raw.trim().parse::<usize>() {
                if n > 0 {
                    return n;
                }
            }
        }
        static MACHINE: OnceLock<usize> = OnceLock::new();
        *MACHINE.get_or_init(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
    }
}

/// How the comparison predicates of one engine are routed through the
/// pipeline — a function of the query, the schema and the predicates, computed
/// once when they are attached. Every predicate takes exactly one of three
/// sound routes:
///
/// * **block restriction** — the variable sits at a key position of some
///   atom, so every embedding binds it from a block key and whole blocks
///   can be kept or dropped before the join ([`DbIndex::restrict`]): every
///   embedding over the restricted view passes, and none needs a check;
/// * **row filter** — the variable is a GROUP BY variable, so its value is
///   the (definite) group key component and rows are filtered after
///   aggregation;
/// * **residual** — a non-free variable at no key position: an embedding
///   filter inside the exact fallback's walk over each group's repairs,
///   which it forces onto every bound ([`RangeCqa::plan`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct PredicateRouting {
    restrictions: Vec<BlockRestriction>,
    /// `(position in free-variable order, predicate)`.
    row_filters: Vec<(usize, VarPredicate)>,
    /// Non-empty forces the exact fallback on every bound.
    residual: Vec<VarPredicate>,
}

impl PredicateRouting {
    /// Routes each predicate to its sound evaluation site.
    fn new(
        prepared: &PreparedAggQuery,
        schema: &Schema,
        predicates: &[VarPredicate],
    ) -> PredicateRouting {
        let mut routing = PredicateRouting::default();
        let body = &prepared.normalised.body;
        for p in predicates {
            // Every key-positioned occurrence of the variable: each one is a
            // sound block filter, and deeper ones narrow multi-column seeks.
            let mut occurrences = Vec::new();
            for atom in body.atoms() {
                let Some(sig) = schema.signature(atom.relation()) else {
                    continue;
                };
                for (pos, term) in atom.terms()[..sig.key_len()].iter().enumerate() {
                    if term.as_var() == Some(&p.var) {
                        occurrences.push(BlockRestriction {
                            relation: atom.relation().to_string(),
                            pos,
                            op: p.op,
                            value: p.value.clone(),
                        });
                    }
                }
            }
            match (
                body.free_vars().iter().position(|v| *v == p.var),
                occurrences.is_empty(),
            ) {
                // Free variable at a key position: push into the block index
                // (the group key is bound from block keys, so restriction is
                // exact).
                (Some(_), false) => routing.restrictions.extend(occurrences),
                // Free variable off every key: the group key is still
                // definite, so a row filter is exact.
                (Some(pos), true) => routing.row_filters.push((pos, p.clone())),
                // Non-free variable at a key position: restrict the index.
                (None, false) => routing.restrictions.extend(occurrences),
                // Residual: only exhaustive enumeration is sound.
                (None, true) => routing.residual.push(p.clone()),
            }
        }
        routing
    }

    /// Whether a residual predicate forces the exact fallback.
    fn forces_exact(&self) -> bool {
        !self.residual.is_empty()
    }

    /// Whether a group key, in `interner`'s id space, passes every row
    /// filter.
    fn admits_row(&self, interner: &ValueInterner, key: &[u32]) -> bool {
        self.row_filters
            .iter()
            .all(|(pos, p)| p.holds_value(interner.value(key[*pos])))
    }

    /// Drops the groups whose key fails a row filter.
    fn filter_rows(&self, interner: &ValueInterner, ranges: &mut IdRanges) {
        if self.row_filters.is_empty() {
            return;
        }
        let aggregates = ranges.aggregates;
        let mut keys = IdRows::new(ranges.keys.width());
        let mut bounds = Vec::new();
        for (key, rows) in ranges.keys.iter().zip(ranges.bounds.chunks(aggregates)) {
            if self.admits_row(interner, key) {
                keys.push(key.iter().copied());
                bounds.extend_from_slice(rows);
            }
        }
        *ranges = IdRanges::new(keys, aggregates, bounds);
    }
}

/// The range-consistent query answering engine for one aggregation query.
#[derive(Clone, Debug)]
pub struct RangeCqa {
    prepared: PreparedAggQuery,
    schema: Schema,
    options: EngineOptions,
    routing: PredicateRouting,
}

impl RangeCqa {
    /// Validates and prepares the query.
    pub fn new(query: &AggQuery, schema: &Schema) -> Result<RangeCqa, CoreError> {
        Ok(RangeCqa {
            prepared: PreparedAggQuery::new(query, schema)?,
            schema: schema.clone(),
            options: EngineOptions::default(),
            routing: PredicateRouting::default(),
        })
    }

    /// Overrides the engine options.
    pub fn with_options(mut self, options: EngineOptions) -> RangeCqa {
        self.options = options;
        self
    }

    /// Attaches comparison predicates (`WHERE v < c` and friends). Each
    /// predicate's variable must occur in the query body. Answers are those
    /// of the predicate-filtered query: embeddings whose binding fails a
    /// predicate do not contribute, and a group none of whose embeddings
    /// satisfy every predicate has no row.
    pub fn with_predicates(mut self, predicates: Vec<VarPredicate>) -> Result<RangeCqa, CoreError> {
        self.prepared.check_predicates(&predicates)?;
        self.routing = PredicateRouting::new(&self.prepared, &self.schema, &predicates);
        Ok(self)
    }

    /// The prepared query.
    pub fn prepared(&self) -> &PreparedAggQuery {
        &self.prepared
    }

    /// Classifies the query for the given numeric domain, reusing the
    /// engine's prepared query (no re-preparation).
    pub fn classification(&self, domain: NumericDomain) -> Classification {
        classify_prepared(&self.prepared, &self.schema, domain)
    }

    /// The symbolic AGGR\[FOL\] rewriting for the requested bound over the
    /// given numeric domain: the formula of the operator [`RangeCqa::plan`]
    /// names, `None` where that is the exact enumeration.
    pub fn rewriting(&self, bound: BoundKind, domain: NumericDomain) -> Option<Rewriting> {
        rewriting_for(&self.prepared, bound, domain)
    }

    /// Computes the greatest lower bound for every group.
    ///
    /// Builds exactly one [`DbIndex`] regardless of the number of groups.
    pub fn glb(&self, db: &DatabaseInstance) -> Result<Vec<(Vec<Value>, BoundAnswer)>, CoreError> {
        let index = DbIndex::new(db);
        let groups = Self::evaluate(std::slice::from_ref(self), &index, None, true, false)?;
        Ok(groups
            .to_rows(0, index.interner())
            .into_iter()
            .map(|g| (g.key, g.glb.expect("glb was requested")))
            .collect())
    }

    /// Computes the least upper bound for every group.
    ///
    /// Builds exactly one [`DbIndex`] regardless of the number of groups.
    pub fn lub(&self, db: &DatabaseInstance) -> Result<Vec<(Vec<Value>, BoundAnswer)>, CoreError> {
        let index = DbIndex::new(db);
        let groups = Self::evaluate(std::slice::from_ref(self), &index, None, false, true)?;
        Ok(groups
            .to_rows(0, index.interner())
            .into_iter()
            .map(|g| (g.key, g.lub.expect("lub was requested")))
            .collect())
    }

    /// Computes both bounds for every group.
    ///
    /// Builds exactly one [`DbIndex`] and derives both bounds from one group
    /// discovery and one level-0 lookup per group.
    pub fn range(&self, db: &DatabaseInstance) -> Result<Vec<GroupRange>, CoreError> {
        self.range_with_index(db, &DbIndex::new(db))
    }

    /// Like [`RangeCqa::range`], but over a caller-supplied [`DbIndex`], so
    /// repeated calls build **zero** further indexes (on rewriting-backed
    /// paths). `DbIndex` is `Send + Sync` (asserted in [`crate::index`]):
    /// the borrow is handed unchanged to the executor's worker threads.
    /// `_db` is not read — the index carries its numeric domain — and stays
    /// only because the benchmark compiles against this signature (ROADMAP
    /// 4(c) tracks folding it away).
    pub fn range_with_index(
        &self,
        _db: &DatabaseInstance,
        index: &DbIndex,
    ) -> Result<Vec<GroupRange>, CoreError> {
        let ranges = Self::evaluate(std::slice::from_ref(self), index, None, true, true)?;
        Ok(ranges.to_rows(0, index.interner()))
    }

    /// Both bounds of every aggregate of one statement, in id space: `engines`
    /// holds one engine per aggregate, all over one body and one set of
    /// predicates — as the SQL translation makes them — and `keys` asks for
    /// every group (`None`) or only the listed ones (as
    /// [`RangeCqa::range_for_group_ids`]), with the keys as ids of `index`'s
    /// interner — a caller that keeps a result to patch keeps them beside
    /// its rows. The groups are found once, and one memoised walk per group
    /// answers every rewriting-backed bound of every aggregate
    /// ([`crate::plan::exec`]); aggregate `a`'s bounds ([`IdRanges::bounds`])
    /// are exactly `engines[a]`'s own. The first engine's options apply.
    ///
    /// # Errors
    /// [`CoreError::StatementMismatch`] when `engines` is empty or its
    /// engines differ in body or predicates; otherwise what an engine's own
    /// evaluation returns.
    pub fn range_statement(
        engines: &[RangeCqa],
        index: &DbIndex,
        keys: Option<&IdRows>,
    ) -> Result<IdRanges, CoreError> {
        let Some(first) = engines.first() else {
            return Err(CoreError::StatementMismatch(
                "a statement has an aggregate".to_string(),
            ));
        };
        for (a, engine) in engines.iter().enumerate().skip(1) {
            if engine.prepared.normalised.body != first.prepared.normalised.body
                || engine.routing != first.routing
            {
                return Err(CoreError::StatementMismatch(format!(
                    "aggregate {a} ({}) does not share the first one's body and predicates",
                    engine.prepared.original.agg
                )));
            }
        }
        Self::evaluate(engines, index, keys, true, true)
    }

    /// The [`RowSupport`] of this engine's result rows: per body atom, the
    /// block-key pattern whose instantiation with a row's group key
    /// over-approximates every block the row's evaluation can consult,
    /// whichever operators the plan picks. A function of the query alone, so
    /// one computation at preparation time stays valid for the engine's
    /// lifetime; the numeric domain is accepted for the callers that pass it
    /// and changes nothing.
    pub fn row_support(&self, _domain: NumericDomain) -> RowSupport {
        RowSupport::for_query(&self.prepared)
    }

    /// [`RangeCqa::affected_keys`] over materialised dirty blocks and without
    /// the retracted facts — blind to the removals of a group bound past the
    /// dirty key — as a set of materialised keys. A thin adapter: each block
    /// is resolved into `index`'s id space first (a block naming a
    /// never-interned value, or with a key of the wrong length, names no
    /// block of the index's line and is skipped), then the id path runs and
    /// its keys are made values. No caller in the workspace: it exists only
    /// because the benchmark's shadow decomposition and probes compile
    /// against it (ROADMAP 4(c) tracks deleting it).
    pub fn dirty_candidate_keys(
        &self,
        index: &DbIndex,
        dirty: &[DirtyBlock],
    ) -> BTreeSet<Vec<Value>> {
        let mut resolved = Vec::new();
        for block in dirty {
            let mut keys = IdRows::new(block.key.len());
            let mut ids = Vec::new();
            if block.key.len() == index.relation(&block.relation).key_len()
                && resolve_ids(index.interner(), &block.key, &mut ids)
            {
                keys.push(ids);
                resolved.push(DirtyKeys {
                    relation: block.relation.as_str().into(),
                    keys,
                });
            }
        }
        let affected = self.affected_keys(index, &resolved, &[]);
        affected
            .iter()
            .map(|key| index.interner().values_of(key))
            .collect()
    }

    /// The delta enumeration of the serving layer: the group keys with an
    /// embedding — **before or after** the commits that dirtied `dirty` and
    /// retracted `retracted` — through a dirty block, from `index` (the index
    /// *after* those commits). Rows of other keys are byte-identical on both
    /// sides. The keys are ids of `index`'s interner — no value is made — in
    /// group-key value order ([`rcqa_data::ValueInterner::cmp_id_tuples`]),
    /// without duplicates (the empty key for a closed query): what
    /// [`RangeCqa::range_for_group_ids`] takes as they are.
    ///
    /// Per level `ℓ` of the body whose relation has dirty keys, the partial
    /// embeddings over the levels before `ℓ` are enumerated over the
    /// (predicate-restricted) new index, and each dirty key the level's
    /// instantiated key pattern admits reports its group key — without
    /// requiring the block to still exist, which is what covers retractions;
    /// [`crate::forall`] ("Delta enumeration") states why the *first* dirty
    /// level of any old or new embedding is always reached this way. A level
    /// whose key leaves a group variable unbound is walked over an
    /// **overlay** — the new index with the retracted facts put back, built
    /// only then and sharing every leaf they do not land in — which holds
    /// every old embedding from its first dirty level on.
    ///
    /// A dirty level 0 costs one instantiation per dirty key; a dirty level
    /// `ℓ > 0` walks the prefixes once, with one binary search of the sorted
    /// dirty keys per prefix. Dirty keys a pushed-down key-position predicate
    /// rejects are dropped up front (their blocks are invisible to the
    /// evaluation), and so are group keys failing a row-filter predicate —
    /// tested on their ids, each against the predicate's constant.
    ///
    /// The dirty blocks are taken in id space, as [`DbIndex::apply_events`]
    /// reports them, and nothing is looked up in the interner to read them:
    /// `index` must descend from the index the blocks were reported against
    /// ([`DbIndex::apply_events`] on a clone, any number of times), because
    /// interned ids are append-only along that line — every id of a dirty
    /// key names the same value in `index`, and every value of a retracted
    /// fact is still interned. A serving layer that floors its dirty log
    /// whenever it starts an index afresh (a bulk load, a rebuild) and reads
    /// each store's log only against that store's indexes upholds this.
    pub fn affected_keys<'d, 'r>(
        &self,
        index: &DbIndex,
        dirty: impl IntoIterator<Item = &'d DirtyKeys>,
        retracted: impl IntoIterator<Item = &'r Fact>,
    ) -> IdRows {
        let free = self.prepared.normalised.body.free_vars();
        let levels = self.prepared.open_levels();
        let routing = &self.routing;
        let (view, _access) = self.restricted_view(index);
        let new = view.as_ref().unwrap_or(index);
        let interner = new.interner();
        // The dirty block keys the evaluation can see — of a body relation,
        // passing the pushed-down restrictions — per relation, in id space.
        let body = self.prepared.normalised.body.atoms();
        let ranks: Vec<Result<u32, u32>> = routing
            .restrictions
            .iter()
            .map(|r| interner.prefix_rank(&r.value))
            .collect();
        let mut pinned: HashMap<&str, IdRows> = HashMap::new();
        for dirty in dirty {
            let relation = dirty.relation();
            if !body.iter().any(|a| a.relation() == relation) {
                continue;
            }
            let restrictions: Vec<_> = routing
                .restrictions
                .iter()
                .zip(&ranks)
                .filter(|(r, _)| r.relation == relation)
                .collect();
            let keys = pinned
                .entry(relation)
                .or_insert_with(|| IdRows::new(new.relation(relation).key_len()));
            for i in 0..dirty.keys.len() {
                let key = dirty.keys.row(i);
                let admitted = restrictions.iter().all(|(r, &rank)| {
                    r.op.holds(interner.cmp_id_to_value(key[r.pos], &r.value, rank))
                });
                if admitted {
                    keys.push(key.iter().copied());
                }
            }
        }
        let compiled = self.prepared.compiled_open_levels();
        let free_slots: Vec<usize> = free
            .iter()
            .map(|v| {
                compiled
                    .table()
                    .slot(v)
                    .expect("free variable occurs in the body")
            })
            .collect();
        let join = Join::new(compiled, new);
        let mut retracted = Some(retracted);
        let mut overlay: Option<DbIndex> = None;
        let mut found = IdTupleSet::new(free.len());
        let mut key = Vec::with_capacity(free.len());
        for (level, lvl) in levels.iter().enumerate() {
            let Some(keys) = pinned
                .get(lvl.atom.relation())
                .filter(|keys| !keys.is_empty())
            else {
                continue;
            };
            if free.is_empty() && found.len() == 1 {
                // A closed query's one key is already reported.
                break;
            }
            // Key value order — the order the index lists blocks in — and no
            // duplicates (`dirty` may concatenate several commits' blocks).
            let keys = keys.sorted_dedup(|a, b| interner.cmp_id_tuples(a, b));
            let stop = compiled.bound_by(level, &free_slots);
            // A group bound past the key: the overlay, built on first need.
            let put_back: Vec<DeltaEvent> = match retracted.take_if(|_| stop > level) {
                Some(facts) => facts.into_iter().cloned().map(DeltaEvent::insert).collect(),
                None => Vec::new(),
            };
            if !put_back.is_empty() {
                let mut with_retracted = index.clone();
                with_retracted.apply_delta(&put_back);
                let (view, _access) = self.restricted_view(&with_retracted);
                overlay = Some(view.unwrap_or(with_retracted));
            }
            let pin = KeyPin {
                level,
                keys: &keys,
                stop,
            };
            let sink = |theta: &[u32]| {
                key.clear();
                key.extend(free_slots.iter().map(|&s| theta[s]));
                found.insert(&key);
            };
            match overlay.as_ref().filter(|_| stop > level) {
                Some(overlay) => Join::new(compiled, overlay).for_each_through(&pin, sink),
                None => join.for_each_through(&pin, sink),
            }
        }
        // The overlay interns nothing new: every value of a retracted fact is
        // still interned, so its ids are `index`'s.
        let mut order: Vec<usize> = (0..found.len())
            .filter(|&k| routing.admits_row(interner, found.tuple(k)))
            .collect();
        order.sort_unstable_by(|&a, &b| interner.cmp_id_tuples(found.tuple(a), found.tuple(b)));
        let mut keys = IdRows::new(free.len());
        for k in order {
            keys.push(found.tuple(k).iter().copied());
        }
        keys
    }

    /// Computes both bounds for **only** the groups whose key is in `keys`,
    /// over a caller-supplied index, in id space: `keys` are ids of `index`'s
    /// interner (an id it never assigned names no value and matches no
    /// group), in any order, duplicates allowed — [`RangeCqa::affected_keys`]'
    /// output as it is — and nothing is resolved or materialised. The groups
    /// returned (sorted by group key; keys with no embedding, or failing a
    /// row filter, are absent, exactly as in a full run) are identical to the
    /// corresponding groups of a full [`RangeCqa::range_statement`] — for
    /// **every** query
    /// shape, including group keys bound at no block-key position (see
    /// [`execute_for_groups`] for the two arms and how one is chosen). A
    /// closed query answers its one group whatever is asked.
    ///
    /// Like [`RangeCqa::range_with_index`], the index is typically a borrow
    /// of a snapshot's shared `Arc<DbIndex>`; the call never mutates it, so
    /// any number of dirty-group patches may run against one snapshot
    /// concurrently.
    pub fn range_for_group_ids(
        &self,
        index: &DbIndex,
        keys: &IdRows,
    ) -> Result<IdRanges, CoreError> {
        Self::evaluate(std::slice::from_ref(self), index, Some(keys), true, true)
    }

    /// [`RangeCqa::range_for_group_ids`] for keys given as values — anything
    /// that lends them out, a `&BTreeSet` or a slice — and with the rows'
    /// keys made values: the rows are byte-identical to the corresponding
    /// rows of [`RangeCqa::range_with_index`]. A thin adapter that resolves
    /// each key into `index`'s id space first (a key naming a never-interned
    /// value, or of the wrong length, matches no group). No serving path
    /// calls it; the tests and the benchmark's probes do. `_db` is not read —
    /// the index carries its numeric domain — and stays only because the
    /// benchmark compiles against this signature (ROADMAP 4(c)).
    pub fn range_for_groups<'k>(
        &self,
        _db: &DatabaseInstance,
        index: &DbIndex,
        keys: impl IntoIterator<Item = &'k Vec<Value>>,
    ) -> Result<Vec<GroupRange>, CoreError> {
        let width = self.prepared.normalised.body.free_vars().len();
        let (mut resolved, mut ids) = (IdRows::new(width), Vec::with_capacity(width));
        for key in keys {
            if key.len() == width && resolve_ids(index.interner(), key, &mut ids) {
                resolved.push(ids.iter().copied());
            }
        }
        let ranges = self.range_for_group_ids(index, &resolved)?;
        Ok(ranges.to_rows(0, index.interner()))
    }

    /// The plan — the operator of each requested bound — for the given
    /// numeric domain: the strategy table's ([`BoundOp::choose`]), unless a
    /// **residual comparison predicate** (on a non-free variable that occurs
    /// at no key position of any atom) puts every bound on the
    /// exhaustive-repair fallback. Such a predicate cannot be pushed into the
    /// block index (a block mixes facts that pass and facts that fail it, so
    /// dropping or keeping whole blocks is wrong in both directions) and the
    /// rewriting theorems say nothing about it; enumerating repairs with the
    /// predicate applied as an embedding filter is the only sound path.
    pub fn plan(&self, domain: NumericDomain, want_glb: bool, want_lub: bool) -> Plan {
        let op = |bound| {
            if self.routing.forces_exact() {
                BoundOp::ExactEnumeration
            } else {
                BoundOp::choose(&self.prepared, bound, domain).0
            }
        };
        Plan {
            glb: want_glb.then(|| op(BoundKind::Glb)),
            lub: want_lub.then(|| op(BoundKind::Lub)),
        }
    }

    /// An `EXPLAIN`-style rendering of the pipeline a [`RangeCqa::range`]
    /// call on `db` would execute, including the access path taken (which
    /// restrictions an ordered seek answered, which a linear filter, and how
    /// many blocks survived) and the predicate routing. Builds an index to
    /// restrict; use [`RangeCqa::explain_with_index`] to reuse a snapshot's.
    pub fn explain(&self, db: &DatabaseInstance) -> String {
        self.explain_with_index(&DbIndex::new(db))
    }

    /// [`RangeCqa::explain`] over a caller-supplied index, planned for the
    /// index's numeric domain.
    pub fn explain_with_index(&self, index: &DbIndex) -> String {
        let routing = &self.routing;
        let (_view, access) = self.restricted_view(index);
        let mut out = self
            .plan(index.numeric_domain(), true, true)
            .explain(&self.prepared, &access);
        if !routing.row_filters.is_empty() {
            let shown: Vec<String> = routing
                .row_filters
                .iter()
                .map(|(_, p)| p.to_string())
                .collect();
            out.push_str(&format!(
                "post-filter: rows where {} (group-key predicate{})\n",
                shown.join(" and "),
                if shown.len() == 1 { "" } else { "s" }
            ));
        }
        let residual: Vec<String> = routing.residual.iter().map(|p| p.to_string()).collect();
        if !residual.is_empty() {
            out.push_str(&format!(
                "residual predicate{}: {} (no key position; exhaustive repair enumeration)\n",
                if residual.len() == 1 { "" } else { "s" },
                residual.join(" and ")
            ));
        }
        out
    }

    /// The restricted view of `index` for the routed block restrictions, and
    /// its access paths. `(None, [])` when there is nothing to restrict.
    fn restricted_view(&self, index: &DbIndex) -> (Option<DbIndex>, Vec<AccessPath<'_>>) {
        let restrictions = &self.routing.restrictions;
        if restrictions.is_empty() {
            return (None, Vec::new());
        }
        let (view, access) = index.restrict(restrictions, false);
        (Some(view), access)
    }

    /// The one evaluation pipeline behind `glb`/`lub`/`range*` and
    /// [`RangeCqa::range_statement`], over engines that share body and
    /// predicates (one engine is a statement of one aggregate): restrict the
    /// index once, plan each aggregate, execute them together for every
    /// group (`keys` `None`) or the listed ones, row-filter. The plan is
    /// for the index's numeric domain.
    fn evaluate(
        engines: &[RangeCqa],
        index: &DbIndex,
        keys: Option<&IdRows>,
        want_glb: bool,
        want_lub: bool,
    ) -> Result<IdRanges, CoreError> {
        let first = &engines[0];
        let routing = &first.routing;
        let (view, _access) = first.restricted_view(index);
        let domain = index.numeric_domain();
        let aggregates: Vec<_> = (engines.iter())
            .map(|engine| (&engine.prepared, engine.plan(domain, want_glb, want_lub)))
            .collect();
        let cx = ExecContext {
            prepared: &first.prepared,
            index: view.as_ref().unwrap_or(index),
            options: &first.options,
            residual: &routing.residual,
        };
        let mut ranges = match keys {
            None => execute(&aggregates, &cx)?,
            Some(keys) => execute_for_groups(&aggregates, &cx, keys)?,
        };
        routing.filter_rows(index.interner(), &mut ranges);
        Ok(ranges)
    }
}

/// Enumerates the candidate group keys of a query with free variables: the
/// distinct projections, onto the GROUP BY variables, of the embeddings of
/// the body in `db` (Section 6.2: range semantics instantiate the free
/// variables with every possible tuple of constants; tuples with no embedding
/// at all have answer `⊥` in every repair and are not reported).
pub fn candidate_groups(prepared: &PreparedAggQuery, db: &DatabaseInstance) -> Vec<Vec<Value>> {
    if prepared.normalised.body.free_vars().is_empty() {
        return vec![Vec::new()];
    }
    group_keys(&ExecContext {
        prepared,
        index: &DbIndex::new(db),
        options: &EngineOptions::default(),
        residual: &[],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_bounds;
    use rcqa_data::{fact, rat, Schema, Signature};
    use rcqa_query::{parse_agg_query, Var};
    use std::collections::BTreeMap;

    fn db_stock() -> DatabaseInstance {
        let schema = Schema::new()
            .with_relation("Dealers", Signature::new(2, 1, []).unwrap())
            .with_relation("Stock", Signature::new(3, 2, [2]).unwrap());
        let mut db = DatabaseInstance::new(schema);
        db.insert_all([
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
        db
    }

    #[test]
    fn closed_sum_query_end_to_end() {
        let db = db_stock();
        let q = parse_agg_query("SUM(y) <- Dealers('Smith', t), Stock(p, t, y)").unwrap();
        let engine = RangeCqa::new(&q, db.schema()).unwrap();
        let glb = engine.glb(&db).unwrap();
        assert_eq!(glb.len(), 1);
        assert_eq!(glb[0].1.value, Some(rat(70)));
        assert_eq!(glb[0].1.method, Method::Rewriting);
        // LUB of SUM has no known rewriting: exact fallback.
        let lub = engine.lub(&db).unwrap();
        assert_eq!(lub[0].1.value, Some(rat(96)));
        assert_eq!(lub[0].1.method, Method::ExactEnumeration);
        // Both bounds agree with exhaustive enumeration.
        let bounds = exact_bounds(engine.prepared(), &db, 1 << 20).unwrap();
        assert_eq!(bounds.glb, glb[0].1.value);
        assert_eq!(bounds.lub, lub[0].1.value);
    }

    #[test]
    fn group_by_query_reports_each_dealer() {
        let db = db_stock();
        let q = parse_agg_query("(x, SUM(y)) <- Dealers(x, t), Stock(p, t, y)").unwrap();
        let engine = RangeCqa::new(&q, db.schema()).unwrap();
        let ranges = engine.range(&db).unwrap();
        assert_eq!(ranges.len(), 2);
        let by_name: BTreeMap<String, &GroupRange> =
            ranges.iter().map(|r| (r.key[0].to_string(), r)).collect();
        // James is certainly in Boston: glb = 35 + 35 = 70, lub = 40 + 35 = 75.
        let james = by_name["James"];
        assert_eq!(james.glb.unwrap().value, Some(rat(70)));
        assert_eq!(james.lub.unwrap().value, Some(rat(75)));
        // Smith: glb = 70 (Boston with minimum quantities), lub = 96 (New York).
        let smith = by_name["Smith"];
        assert_eq!(smith.glb.unwrap().value, Some(rat(70)));
        assert_eq!(smith.lub.unwrap().value, Some(rat(96)));
    }

    #[test]
    fn bottom_answer_for_uncertain_group() {
        let db = db_stock();
        // Tesla Z is never in stock: the closed query is falsified by every
        // repair, so both bounds are ⊥... in fact there is no candidate group,
        // so test the closed variant directly.
        let q = parse_agg_query("SUM(y) <- Dealers('Smith', t), Stock('Tesla Y', t, y)").unwrap();
        let engine = RangeCqa::new(&q, db.schema()).unwrap();
        let glb = engine.glb(&db).unwrap();
        // Tesla Y is stocked in both Boston and New York, so the query is
        // certain.
        assert!(glb[0].1.value.is_some());

        let q = parse_agg_query("SUM(y) <- Dealers('Smith', t), Stock('Tesla X', t, y)").unwrap();
        let engine = RangeCqa::new(&q, db.schema()).unwrap();
        let glb = engine.glb(&db).unwrap();
        // Tesla X is only in Boston; if Smith operates in New York the query
        // fails, hence ⊥.
        assert_eq!(glb[0].1.value, None);
    }

    #[test]
    fn min_max_strategies() {
        let db = db_stock();
        let q = parse_agg_query("MIN(y) <- Dealers('Smith', t), Stock(p, t, y)").unwrap();
        let engine = RangeCqa::new(&q, db.schema()).unwrap();
        let glb = engine.glb(&db).unwrap();
        assert_eq!(glb[0].1.value, Some(rat(35)));
        assert_eq!(glb[0].1.method, Method::PlainExtremum);
        let lub = engine.lub(&db).unwrap();
        // LUB of MIN: Smith in New York with the 96-quantity fact chosen.
        assert_eq!(lub[0].1.value, Some(rat(96)));
        assert_eq!(lub[0].1.method, Method::Rewriting);

        let q = parse_agg_query("MAX(y) <- Dealers('Smith', t), Stock(p, t, y)").unwrap();
        let engine = RangeCqa::new(&q, db.schema()).unwrap();
        let glb = engine.glb(&db).unwrap();
        let lub = engine.lub(&db).unwrap();
        assert_eq!(lub[0].1.method, Method::PlainExtremum);
        // Cross-check against exhaustive enumeration.
        let bounds = exact_bounds(engine.prepared(), &db, 1 << 20).unwrap();
        assert_eq!(glb[0].1.value, bounds.glb);
        assert_eq!(lub[0].1.value, bounds.lub);
    }

    #[test]
    fn avg_uses_exact_fallback_and_can_be_disabled() {
        let db = db_stock();
        let q = parse_agg_query("AVG(y) <- Dealers('Smith', t), Stock(p, t, y)").unwrap();
        let engine = RangeCqa::new(&q, db.schema()).unwrap();
        let glb = engine.glb(&db).unwrap();
        assert_eq!(glb[0].1.method, Method::ExactEnumeration);
        assert_eq!(glb[0].1.value, Some(rat(35)));
    }

    /// [`db_stock`] plus, in each of `towns`, 23 more `Stock` blocks of two
    /// facts each: a group whose embeddings reach one of those towns touches
    /// them all, `2^23` repairs among them — twice [`MAX_REPAIRS`].
    fn db_over_budget(towns: &[&str]) -> DatabaseInstance {
        let mut db = db_stock();
        for town in towns {
            for p in 0..23 {
                let product = format!("P{p:02}");
                db.insert_all([
                    fact!("Stock", product.clone(), *town, 1),
                    fact!("Stock", product, *town, 2),
                ])
                .unwrap();
            }
        }
        db
    }

    #[test]
    fn an_over_budget_group_is_refused_by_name_at_every_thread_count() {
        // James's embeddings touch his Dealers block and two Boston Stock
        // blocks: 1 · 2 · 1 = 2 repairs. Smith's touch his two-town Dealers
        // block and three Stock blocks: 2 · 2 · 1 · 2 = 8 — and, once New
        // York stocks 23 two-fact blocks more, 2^23 · 8. The budget is per
        // group.
        let grouped = "(x, AVG(y)) <- Dealers(x, t), Stock(p, t, y)";
        let key = |name: &str| vec![Value::text(name)];
        let within = db_stock();
        let db = db_over_budget(&["New York"]);
        let index = DbIndex::new(&db);
        for threads in [1, 4] {
            let rows = with_threads(grouped, &within, threads).range(&within);
            assert_eq!(rows.unwrap().len(), 2);
            // Smith is over budget, and says so — for the full run and for
            // any listed-groups call that asks for him — by the blocks that
            // sufficed to prove it.
            let smith = "exact fallback unavailable: group (Smith): 24 blocks its \
                         embeddings touch have 8388608 repairs, more than the maximum 4194304";
            let engine = with_threads(grouped, &db, threads);
            assert_eq!(engine.range(&db).unwrap_err().to_string(), smith);
            for keys in [vec![key("Smith")], vec![key("Smith"), key("James")]] {
                let listed = engine.range_for_groups(&db, &index, &keys);
                assert_eq!(listed.unwrap_err().to_string(), smith);
            }
            let james = engine.range_for_groups(&db, &index, &[key("James")]);
            assert_eq!(james.unwrap().len(), 1);
            // With both over budget the first in group-key order is named.
            let both = db_over_budget(&["Boston", "New York"]);
            assert_eq!(
                with_threads(grouped, &both, threads)
                    .range(&both)
                    .unwrap_err()
                    .to_string(),
                "exact fallback unavailable: group (James): 24 blocks its \
                 embeddings touch have 8388608 repairs, more than the maximum 4194304"
            );
            // A closed query is its one group.
            let closed = with_threads("AVG(y) <- Dealers(x, t), Stock(p, t, y)", &db, threads);
            assert_eq!(
                closed.range(&db).unwrap_err().to_string(),
                "exact fallback unavailable: the closed query: 25 blocks its \
                 embeddings touch have 8388608 repairs, more than the maximum 4194304"
            );
        }
    }

    #[test]
    fn count_queries_use_rewriting() {
        let db = db_stock();
        let q = parse_agg_query("COUNT(*) <- Dealers('Smith', t), Stock(p, t, y)").unwrap();
        let engine = RangeCqa::new(&q, db.schema()).unwrap();
        let glb = engine.glb(&db).unwrap();
        assert_eq!(glb[0].1.value, Some(rat(1)));
        assert_eq!(glb[0].1.method, Method::Rewriting);
    }

    #[test]
    fn negative_numbers_disable_the_sum_rewriting() {
        // Section 7.3: with -1 allowed, the SUM rewriting is no longer sound;
        // the engine must fall back to exact enumeration.
        let schema = Schema::new()
            .with_relation("S1", Signature::new(2, 1, []).unwrap())
            .with_relation("S2", Signature::new(2, 1, []).unwrap())
            .with_relation("T", Signature::new(3, 2, [2]).unwrap());
        let mut db = DatabaseInstance::new_unconstrained(schema);
        db.insert_all([
            fact!("S1", "u", "c1"),
            fact!("S1", "u", "d"),
            fact!("S2", "v", "c2"),
            fact!("T", "u", "v", -1),
            fact!("T", "bot", "bot", 0),
            fact!("S1", "bot", "c1"),
            fact!("S2", "bot", "c2"),
        ])
        .unwrap();
        let q = parse_agg_query("SUM(r) <- S1(x, 'c1'), S2(y, 'c2'), T(x, y, r)").unwrap();
        let engine = RangeCqa::new(&q, db.schema()).unwrap();
        let glb = engine.glb(&db).unwrap();
        assert_eq!(glb[0].1.method, Method::ExactEnumeration);
        // The symbolic rewriting reads the same table: none over this
        // instance's domain.
        let rewriting = |domain| engine.rewriting(BoundKind::Glb, domain);
        assert!(rewriting(NumericDomain::Unconstrained).is_none());
        assert!(rewriting(NumericDomain::NonNegative).is_some());
    }

    // The one-index-build-per-call invariant is asserted in
    // `tests/build_invariant.rs`, the dedicated test binary for the
    // process-wide build counter.

    #[test]
    fn grouped_range_matches_per_bound_calls() {
        // range() shares one analysis between the bounds; it must agree with
        // independent glb()/lub() calls.
        let db = db_stock();
        for text in [
            "(x, SUM(y)) <- Dealers(x, t), Stock(p, t, y)",
            "(x, MIN(y)) <- Dealers(x, t), Stock(p, t, y)",
            "(x, MAX(y)) <- Dealers(x, t), Stock(p, t, y)",
            "(x, AVG(y)) <- Dealers(x, t), Stock(p, t, y)",
        ] {
            let q = parse_agg_query(text).unwrap();
            let engine = RangeCqa::new(&q, db.schema()).unwrap();
            let ranges = engine.range(&db).unwrap();
            let glb = engine.glb(&db).unwrap();
            let lub = engine.lub(&db).unwrap();
            assert_eq!(ranges.len(), glb.len(), "{text}");
            for (range, (gk, g)) in ranges.iter().zip(glb.iter()) {
                assert_eq!(&range.key, gk, "{text}");
                assert_eq!(range.glb.as_ref().unwrap(), g, "{text}");
            }
            for (range, (lk, l)) in ranges.iter().zip(lub.iter()) {
                assert_eq!(&range.key, lk, "{text}");
                assert_eq!(range.lub.as_ref().unwrap(), l, "{text}");
            }
        }
    }

    #[test]
    fn row_support_patterns_and_exhaustiveness() {
        let db = db_stock();
        // MAX uses rewriting + plain extremum on both bounds: pattern support.
        let q = parse_agg_query("(x, MAX(y)) <- Dealers(x, t), Stock(p, t, y)").unwrap();
        let engine = RangeCqa::new(&q, db.schema()).unwrap();
        let support = engine.row_support(db.numeric_domain());
        let smith = [Value::text("Smith")];
        // Dealers(x, t): the group key pins the block key.
        assert!(support.hits(&smith, "Dealers", &[Value::text("Smith")]));
        assert!(!support.hits(&smith, "Dealers", &[Value::text("James")]));
        // Stock(p, t, y): no key position is group-bound — every block hits.
        assert!(support.hits(
            &smith,
            "Stock",
            &[Value::text("Tesla X"), Value::text("Boston")]
        ));
        assert!(!support.hits(&smith, "Unknown", &[Value::text("Smith")]));
        // Grouping by a non-key variable still yields a (looser) pattern
        // support — the shape the old level-0 locality certificate rejected.
        let q = parse_agg_query("(t, MAX(y)) <- Dealers(x, t), Stock(p, t, y)").unwrap();
        let engine = RangeCqa::new(&q, db.schema()).unwrap();
        let support = engine.row_support(db.numeric_domain());
        let boston = [Value::text("Boston")];
        assert!(support.hits(&boston, "Dealers", &[Value::text("Smith")]));
        assert!(support.hits(
            &boston,
            "Stock",
            &[Value::text("Tesla X"), Value::text("Boston")]
        ));
        assert!(!support.hits(
            &boston,
            "Stock",
            &[Value::text("Tesla Y"), Value::text("New York")]
        ));
        // SUM's lub is the exact-enumeration fallback, which enumerates the
        // repairs of the blocks the group's embeddings touch: the same
        // support as the rewriting-backed MAX over the same body.
        let max = RangeCqa::new(
            &parse_agg_query("(x, MAX(y)) <- Dealers(x, t), Stock(p, t, y)").unwrap(),
            db.schema(),
        )
        .unwrap();
        let q = parse_agg_query("(x, SUM(y)) <- Dealers(x, t), Stock(p, t, y)").unwrap();
        let engine = RangeCqa::new(&q, db.schema()).unwrap();
        let support = engine.row_support(db.numeric_domain());
        assert_eq!(
            support.atoms(),
            max.row_support(db.numeric_domain()).atoms()
        );
        assert!(!support.hits(&smith, "Dealers", &[Value::text("James")]));
    }

    #[test]
    fn dirty_candidate_keys_cover_births() {
        let db = db_stock();
        let index = DbIndex::new(&db);
        let q = parse_agg_query("(t, MAX(y)) <- Dealers(x, t), Stock(p, t, y)").unwrap();
        let engine = RangeCqa::new(&q, db.schema()).unwrap();
        let block = |relation: &str, key: &[&str]| DirtyBlock {
            relation: relation.to_string(),
            key: key.iter().map(|v| Value::text(*v)).collect(),
        };
        // A dirty Stock block in New York can only birth the New York group.
        let keys = engine.dirty_candidate_keys(&index, &[block("Stock", &["Tesla Y", "New York"])]);
        assert_eq!(keys, [vec![Value::text("New York")]].into());
        // A dirty Dealers block reaches every town its rows join with.
        let keys = engine.dirty_candidate_keys(&index, &[block("Dealers", &["Smith"])]);
        assert_eq!(
            keys,
            [vec![Value::text("Boston")], vec![Value::text("New York")]].into()
        );
        // A never-interned key names no block of this lineage.
        let keys = engine.dirty_candidate_keys(&index, &[block("Stock", &["Nope", "Nowhere"])]);
        assert!(keys.is_empty());
        // A closed query has one row, keyed by the empty tuple: reported when
        // an embedding can pass through the dirty block, and only then.
        let q = parse_agg_query("SUM(y) <- Dealers('Smith', t), Stock(p, t, y)").unwrap();
        let engine = RangeCqa::new(&q, db.schema()).unwrap();
        let keys = engine.dirty_candidate_keys(&index, &[block("Dealers", &["Smith"])]);
        assert_eq!(keys, [vec![]].into());
        for untouched in [
            block("Dealers", &["James"]),
            // Interned values, but no town Smith operates in.
            block("Stock", &["Tesla Y", "Tesla X"]),
        ] {
            assert!(engine.dirty_candidate_keys(&index, &[untouched]).is_empty());
        }
        // A closed body with a cyclic attack graph (both atoms join on a
        // non-key column) has no topological sort; the delta enumeration runs
        // over its atoms in query order like any other.
        let schema = Schema::new()
            .with_relation("R", Signature::new(2, 1, []).unwrap())
            .with_relation("U", Signature::new(3, 1, [2]).unwrap());
        let mut db = DatabaseInstance::new(schema);
        db.insert_all([fact!("R", "x0", "y0"), fact!("U", "z0", "y0", 5)])
            .unwrap();
        let index = DbIndex::new(&db);
        let q = parse_agg_query("AVG(r) <- R(x, y), U(z, y, r)").unwrap();
        let engine = RangeCqa::new(&q, db.schema()).unwrap();
        assert!(!engine.prepared().body.is_acyclic());
        for relation in ["R", "U"] {
            let keys = engine.dirty_candidate_keys(&index, &[block(relation, &["x0"])]);
            assert_eq!(keys, [vec![]].into());
            let keys = engine.dirty_candidate_keys(&index, &[block(relation, &["nope"])]);
            assert!(keys.is_empty());
        }
    }

    /// `n` dealers over `towns` towns — every seventh dealer in two of them,
    /// an inconsistent block — and per town two `Stock` blocks, one of them
    /// inconsistent: `n` groups by dealer, one level-0 block each; `towns`
    /// groups by town, each fed by level-0 blocks from end to end of
    /// `Dealers`.
    fn db_dealers(n: usize, towns: usize) -> DatabaseInstance {
        let schema = Schema::new()
            .with_relation("Dealers", Signature::new(2, 1, []).unwrap())
            .with_relation("Stock", Signature::new(3, 2, [2]).unwrap());
        let mut db = DatabaseInstance::new(schema);
        let town = |i: usize| format!("t{:03}", i % towns);
        for i in 0..n {
            let dealer = format!("d{i:05}");
            db.insert(fact!("Dealers", dealer.clone(), town(i)))
                .unwrap();
            if i % 7 == 0 {
                db.insert(fact!("Dealers", dealer, town(i + 1))).unwrap();
            }
        }
        for t in 0..towns {
            let qty = 30 + (t % 11) as i64;
            db.insert_all([
                fact!("Stock", "Tesla X", town(t), qty),
                fact!("Stock", "Tesla X", town(t), qty + 5),
                fact!("Stock", "Tesla Y", town(t), qty + 2),
            ])
            .unwrap();
        }
        db
    }

    fn with_threads(text: &str, db: &DatabaseInstance, threads: usize) -> RangeCqa {
        RangeCqa::new(&parse_agg_query(text).unwrap(), db.schema())
            .unwrap()
            .with_options(EngineOptions { threads })
    }

    #[test]
    fn range_for_groups_agrees_beyond_the_per_key_cap() {
        // Listed keys agree with the full run however much of the relation
        // their level-0 spans cover: each group's span is its one `Dealers`
        // block, and every key, every key but one, and two keys are listed.
        let db = db_dealers(20, 3);
        let index = DbIndex::new(&db);
        for threads in [1, 4] {
            let engine = with_threads("(x, MAX(y)) <- Dealers(x, t), Stock(p, t, y)", &db, threads);
            let full = engine.range_with_index(&db, &index).unwrap();
            assert_eq!(full.len(), 20);
            let all: BTreeSet<Vec<Value>> = full.iter().map(|r| r.key.clone()).collect();
            assert_eq!(engine.range_for_groups(&db, &index, &all).unwrap(), full);
            let but_one = engine.range_for_groups(&db, &index, all.iter().skip(1));
            assert_eq!(but_one.unwrap(), full[1..]);
            // Two keys: inline at any thread count.
            let two = [full[3].key.clone(), full[17].key.clone()];
            let got = engine.range_for_groups(&db, &index, &two).unwrap();
            assert_eq!(got, [full[3].clone(), full[17].clone()]);
            // A group key bound at no level-0 key position makes every key's
            // span the whole relation.
            let by_town =
                with_threads("(t, MAX(y)) <- Dealers(x, t), Stock(p, t, y)", &db, threads);
            let full = by_town.range_with_index(&db, &index).unwrap();
            assert_eq!(full.len(), 3);
            let one = [full[1].key.clone()];
            let got = by_town.range_for_groups(&db, &index, &one).unwrap();
            assert_eq!(got, full[1..2]);
        }
    }

    #[test]
    fn listed_groups_above_the_floor_pool_with_equal_answers() {
        // A full evaluation shards at any size; a listed-groups call hands
        // its groups to the workers only once `INLINE_WORK_FLOOR` units of
        // work are done. Here every call gets there (more groups than the
        // floor, asserted, so the comparison cannot go vacuous), on both
        // arms, for both bound operators, with groups whose keys sit in one
        // discovery shard and groups fed by every shard.
        use crate::plan::exec::INLINE_WORK_FLOOR;
        let db = db_dealers(INLINE_WORK_FLOOR + 500, 40);
        let index = DbIndex::new(&db);
        for agg in ["MAX", "MIN"] {
            // Grouped by the level-0 key: one block per key.
            let text = format!("(x, {agg}(y)) <- Dealers(x, t), Stock(p, t, y)");
            let sequential = with_threads(&text, &db, 1);
            let pooled = with_threads(&text, &db, 4);
            let full = sequential.range_with_index(&db, &index).unwrap();
            assert_eq!(pooled.range_with_index(&db, &index).unwrap(), full);
            // Per key: every key is a group and a unit of work, so the
            // calling thread has its floor's worth before the last few
            // hundred groups, and the workers get those.
            let most = &full[..full.len() - 100];
            assert!(most.len() >= INLINE_WORK_FLOOR);
            let keys: Vec<Vec<Value>> = most.iter().map(|r| r.key.clone()).collect();
            for engine in [&sequential, &pooled] {
                assert_eq!(engine.range_for_groups(&db, &index, &keys).unwrap(), most);
            }
            // Every key.
            let keys: Vec<Vec<Value>> = full.iter().map(|r| r.key.clone()).collect();
            for engine in [&sequential, &pooled] {
                assert_eq!(engine.range_for_groups(&db, &index, &keys).unwrap(), full);
            }
            // Grouped by town: every key spans every block of `Dealers` (40
            // groups: inline, well below the floor).
            let text = format!("(t, {agg}(y)) <- Dealers(x, t), Stock(p, t, y)");
            let sequential = with_threads(&text, &db, 1);
            let pooled = with_threads(&text, &db, 4);
            let full = sequential.range_with_index(&db, &index).unwrap();
            assert_eq!(full.len(), 40);
            assert_eq!(pooled.range_with_index(&db, &index).unwrap(), full);
            let keys: Vec<Vec<Value>> = full.iter().map(|r| r.key.clone()).collect();
            for engine in [&sequential, &pooled] {
                assert_eq!(engine.range_for_groups(&db, &index, &keys).unwrap(), full);
            }
        }
    }

    #[test]
    fn range_for_groups_matches_full_range() {
        let db = db_stock();
        let index = DbIndex::new(&db);
        for text in [
            "(x, MAX(y)) <- Dealers(x, t), Stock(p, t, y)",
            "(x, SUM(y)) <- Dealers(x, t), Stock(p, t, y)",
            // No locality: the filtered fallback must still agree.
            "(t, MAX(y)) <- Dealers(x, t), Stock(p, t, y)",
        ] {
            let q = parse_agg_query(text).unwrap();
            for threads in [1, 4] {
                let engine = RangeCqa::new(&q, db.schema())
                    .unwrap()
                    .with_options(EngineOptions { threads });
                let full = engine.range_with_index(&db, &index).unwrap();
                assert!(!full.is_empty(), "{text}");
                // Each single group, a subset, the full set, and a key with
                // no embeddings.
                for row in &full {
                    let keys: BTreeSet<Vec<Value>> = [row.key.clone()].into();
                    let got = engine.range_for_groups(&db, &index, &keys).unwrap();
                    assert_eq!(got, vec![row.clone()], "{text} @{threads}T");
                }
                let all: BTreeSet<Vec<Value>> = full.iter().map(|r| r.key.clone()).collect();
                let got = engine.range_for_groups(&db, &index, &all).unwrap();
                assert_eq!(got, full, "{text} @{threads}T");
                let missing: BTreeSet<Vec<Value>> = [vec![Value::text("Nobody")]].into();
                let got = engine.range_for_groups(&db, &index, &missing).unwrap();
                assert!(got.is_empty(), "{text} @{threads}T");
            }
        }
    }

    /// Soundness of the delta enumeration, against the definition: over
    /// random small `R(x|y) ⋈ S(y,z|r)` instances and random deltas, every
    /// key whose row differs between the full evaluation before and after —
    /// or exists on one side only — is among the derived affected keys.
    mod delta_enumeration {
        use super::*;
        use proptest::prelude::*;
        use rcqa_data::{DeltaEvent, DeltaOp, Fact};
        use rcqa_query::{CmpOp, VarPredicate};

        fn schema() -> Schema {
            Schema::new()
                .with_relation("R", Signature::new(2, 1, []).unwrap())
                .with_relation("S", Signature::new(3, 2, [2]).unwrap())
        }

        fn r_fact(draw: u64, xs: u64, ys: u64) -> Fact {
            fact!(
                "R",
                format!("x{}", draw % xs),
                format!("y{}", (draw / xs) % ys)
            )
        }

        fn s_fact(draw: u64, ys: u64, zs: u64, rs: u64) -> Fact {
            Fact::new(
                "S",
                [
                    Value::text(format!("y{}", draw % ys)),
                    Value::text(format!("z{}", (draw / ys) % zs)),
                    Value::int(((draw / (ys * zs)) % rs) as i64),
                ],
            )
        }

        /// One drawn write against the current instance: inserts that open a
        /// block, conflict with one, or bring a never-seen value (the delta
        /// draws from wider domains than the base instance); deletes of one
        /// fact; deletes of a whole block on either side.
        fn events(db: &DatabaseInstance, kind: u8, draw: u64) -> Vec<DeltaEvent> {
            let pick = |relation: &str| -> Option<Fact> {
                let facts: Vec<&Fact> = db.facts_of(relation).collect();
                (!facts.is_empty()).then(|| facts[draw as usize % facts.len()].clone())
            };
            let block_of = |fact: &Fact, key_len: usize| -> Vec<DeltaEvent> {
                db.facts_of(fact.relation())
                    .filter(|f| f.args()[..key_len] == fact.args()[..key_len])
                    .cloned()
                    .map(DeltaEvent::delete)
                    .collect()
            };
            match kind {
                0 => vec![DeltaEvent::insert(r_fact(draw, 6, 4))],
                1 => vec![DeltaEvent::insert(s_fact(draw, 4, 3, 7))],
                2 => pick("R").map(DeltaEvent::delete).into_iter().collect(),
                3 => pick("S").map(DeltaEvent::delete).into_iter().collect(),
                4 => pick("S").map_or(Vec::new(), |f| block_of(&f, 2)),
                _ => pick("R").map_or(Vec::new(), |f| block_of(&f, 1)),
            }
        }

        fn shapes() -> Vec<RangeCqa> {
            let schema = schema();
            let engine = |text: &str| RangeCqa::new(&parse_agg_query(text).unwrap(), &schema);
            vec![
                // The join, grouped by the level-0 key.
                engine("(x, MAX(r)) <- R(x, y), S(y, z, r)").unwrap(),
                // The same under a pushed-down predicate on the group key.
                engine("(x, MIN(r)) <- R(x, y), S(y, z, r)")
                    .unwrap()
                    .with_predicates(vec![VarPredicate {
                        var: Var::new("x"),
                        op: CmpOp::Ge,
                        value: Value::text("x2"),
                    }])
                    .unwrap(),
                // Grouped by a non-key column of R, and by a column only S
                // binds: under a dirty R key, a group bound past the key.
                engine("(y, MAX(r)) <- R(x, y), S(y, z, r)").unwrap(),
                engine("(z, MAX(r)) <- R(x, y), S(y, z, r)").unwrap(),
                // One atom, full key and subset of the key.
                engine("(y, z, MAX(r)) <- S(y, z, r)").unwrap(),
                engine("(y, MIN(r)) <- S(y, z, r)").unwrap(),
                // Closed, the level-0 key a constant.
                engine("MAX(r) <- R('x1', y), S(y, z, r)").unwrap(),
                // COUNT's glb is the Theorem 6.1 rewriting; its lub enumerates
                // repairs, which the tiny instance affords.
                engine("(x, COUNT(*)) <- R(x, y), S(y, z, r)").unwrap(),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            #[test]
            fn every_changed_row_is_an_affected_key(
                base in proptest::collection::vec((0u8..2, 0u64..1_000_000), 0..14),
                writes in proptest::collection::vec((0u8..6, 0u64..1_000_000), 1..6),
            ) {
                let mut db = DatabaseInstance::new(schema());
                for (side, draw) in base {
                    let fact = if side == 0 { r_fact(draw, 4, 3) } else { s_fact(draw, 3, 2, 4) };
                    db.insert(fact).unwrap();
                }
                let old_db = db.clone();
                let old_index = DbIndex::new(&old_db);
                // One batch: a single event or several, both sides mixed.
                let mut batch = Vec::new();
                for (kind, draw) in writes {
                    for event in events(&db, kind, draw) {
                        if db.apply(event.clone()).unwrap().is_some() {
                            batch.push(event);
                        }
                    }
                }
                let mut index = old_index.clone();
                let (_, dirty) = index.apply_events(&batch);
                let retracted = batch
                    .iter()
                    .filter(|e| matches!(e.op, DeltaOp::Delete))
                    .map(|e| &e.fact);
                for engine in shapes() {
                    let text = engine.prepared().original.to_string();
                    let before = engine.range_with_index(&old_db, &old_index).unwrap();
                    let after = engine.range_with_index(&db, &index).unwrap();
                    let ids = engine.affected_keys(&index, &dirty, retracted.clone());
                    let affected: Vec<Vec<Value>> =
                        ids.iter().map(|key| index.interner().values_of(key)).collect();
                    prop_assert!(affected.windows(2).all(|w| w[0] < w[1]), "{}", text);
                    let covered = |key: &Vec<Value>| affected.binary_search(key).is_ok();
                    for row in &before {
                        let same = after.iter().any(|r| r == row);
                        prop_assert!(
                            same || covered(&row.key),
                            "{}: {:?} changed or vanished unreported; dirty {:?}, affected {:?}",
                            text, row, dirty, affected
                        );
                    }
                    for row in &after {
                        let known = before.iter().any(|r| r.key == row.key);
                        prop_assert!(
                            known || covered(&row.key),
                            "{}: {:?} was born unreported; dirty {:?}, affected {:?}",
                            text, row, dirty, affected
                        );
                    }
                    // Re-deriving the affected keys gives the new rows (a
                    // closed query re-derives its one row whatever is asked).
                    let closed = engine.prepared().normalised.body.free_vars().is_empty();
                    let fresh = engine.range_for_groups(&db, &index, &affected).unwrap();
                    // The id path answers the same rows, with the same keys.
                    let by_ids = engine.range_for_group_ids(&index, &ids).unwrap();
                    prop_assert_eq!(&by_ids.to_rows(0, index.interner()), &fresh, "{}", text);
                    let expected: Vec<GroupRange> = after
                        .iter()
                        .filter(|r| closed || covered(&r.key))
                        .cloned()
                        .collect();
                    prop_assert_eq!(fresh, expected, "{}", text);
                }
            }
        }

        #[test]
        fn retracted_facts_report_groups_bound_past_the_dirty_key() {
            let schema = schema();
            let mut db = DatabaseInstance::new(schema.clone());
            let facts = [fact!("R", "x0", "y0"), fact!("S", "y0", "z0", 1)];
            db.insert_all(facts.clone()).unwrap();
            let mut index = DbIndex::new(&db);
            // One batch deletes both facts: the new index holds nothing.
            let batch: Vec<DeltaEvent> = facts.iter().cloned().map(DeltaEvent::delete).collect();
            let (_, dirty) = index.apply_events(&batch);
            assert_eq!(dirty.len(), 2);
            let affected = |text: &str, retracted: &[Fact]| {
                let keys = RangeCqa::new(&parse_agg_query(text).unwrap(), &schema)
                    .unwrap()
                    .affected_keys(&index, &dirty, retracted);
                keys.iter()
                    .map(|key| index.interner().values_of(key))
                    .collect::<Vec<_>>()
            };
            // `y` is bound by R's non-key position and `z` a level deeper:
            // only the retracted facts name the vanished groups.
            let by_y = "(y, MAX(r)) <- R(x, y), S(y, z, r)";
            let by_z = "(z, MAX(r)) <- R(x, y), S(y, z, r)";
            assert_eq!(affected(by_y, &facts), [vec![Value::text("y0")]]);
            assert_eq!(affected(by_z, &facts), [vec![Value::text("z0")]]);
            assert!(affected(by_y, &[]).is_empty());
            assert!(affected(by_z, &[]).is_empty());
            // A group read off the dirty key needs no retracted fact.
            let by_x = "(x, MAX(r)) <- R(x, y), S(y, z, r)";
            assert_eq!(affected(by_x, &[]), [vec![Value::text("x0")]]);
        }
    }

    /// Every predicate route (free pushable, free row-filter, non-free
    /// pushable, residual) against the exhaustive-repair oracle, at both
    /// thread counts.
    #[test]
    fn predicates_agree_with_the_exact_oracle() {
        use crate::exact::exact_bounds_by_group_filtered;
        use rcqa_query::{CmpOp, VarPredicate};
        let db = db_stock();
        let var = |n: &str| Var::new(n);
        let cases: Vec<(&str, Vec<VarPredicate>)> = vec![
            // x: free, key of Dealers (block-pushable group key).
            (
                "(x, SUM(y)) <- Dealers(x, t), Stock(p, t, y)",
                vec![VarPredicate {
                    var: var("x"),
                    op: CmpOp::Gt,
                    value: Value::text("James"),
                }],
            ),
            // p: non-free, key[0] of Stock (block-pushable).
            (
                "(x, MAX(y)) <- Dealers(x, t), Stock(p, t, y)",
                vec![VarPredicate {
                    var: var("p"),
                    op: CmpOp::Eq,
                    value: Value::text("Tesla Y"),
                }],
            ),
            // t: non-free, key[1] of Stock — Ne is non-contiguous, so the
            // restriction is a linear block filter.
            (
                "(x, MIN(y)) <- Dealers(x, t), Stock(p, t, y)",
                vec![VarPredicate {
                    var: var("t"),
                    op: CmpOp::Ne,
                    value: Value::text("Boston"),
                }],
            ),
            // y: non-free, no key position — residual, forces exact.
            (
                "(x, SUM(y)) <- Dealers(x, t), Stock(p, t, y)",
                vec![VarPredicate {
                    var: var("y"),
                    op: CmpOp::Ge,
                    value: Value::from(40),
                }],
            ),
            // t as group key: free but at no key position of the level-0
            // atom's key — row filter.
            (
                "(t, MAX(y)) <- Dealers(x, t), Stock(p, t, y)",
                vec![VarPredicate {
                    var: var("t"),
                    op: CmpOp::Lt,
                    value: Value::text("New York"),
                }],
            ),
            // Conjunction mixing routes; closed query keeps its single row.
            (
                "SUM(y) <- Dealers('Smith', t), Stock(p, t, y)",
                vec![
                    VarPredicate {
                        var: var("p"),
                        op: CmpOp::Le,
                        value: Value::text("Tesla X"),
                    },
                    VarPredicate {
                        var: var("y"),
                        op: CmpOp::Lt,
                        value: Value::from(100),
                    },
                ],
            ),
        ];
        for (text, preds) in cases {
            let q = parse_agg_query(text).unwrap();
            let prepared = PreparedAggQuery::new(&q, db.schema()).unwrap();
            let oracle = exact_bounds_by_group_filtered(&prepared, &db, 1 << 20, &preds).unwrap();
            let mut reference: Option<Vec<GroupRange>> = None;
            for threads in [1, 4] {
                let engine = RangeCqa::new(&q, db.schema())
                    .unwrap()
                    .with_predicates(preds.clone())
                    .unwrap()
                    .with_options(EngineOptions { threads });
                let rows = engine.range(&db).unwrap();
                assert_eq!(rows.len(), oracle.len(), "{text} @{threads}T");
                for (row, (key, bounds)) in rows.iter().zip(oracle.iter()) {
                    assert_eq!(&row.key, key, "{text}");
                    assert_eq!(
                        row.glb.unwrap().value,
                        bounds.glb,
                        "{text} glb of {key:?} @{threads}T"
                    );
                    assert_eq!(
                        row.lub.unwrap().value,
                        bounds.lub,
                        "{text} lub of {key:?} @{threads}T"
                    );
                }
                // Byte-identical across thread counts.
                match &reference {
                    None => reference = Some(rows),
                    Some(first) => assert_eq!(&rows, first, "{text}"),
                }
            }
        }
    }

    #[test]
    fn residual_predicates_force_the_exact_fallback() {
        use rcqa_query::{CmpOp, VarPredicate};
        let db = db_stock();
        let q = parse_agg_query("(x, SUM(y)) <- Dealers(x, t), Stock(p, t, y)").unwrap();
        let engine = RangeCqa::new(&q, db.schema())
            .unwrap()
            .with_predicates(vec![VarPredicate {
                var: Var::new("y"),
                op: CmpOp::Gt,
                value: Value::from(35),
            }])
            .unwrap();
        let plan = engine.plan(NumericDomain::NonNegative, true, true);
        assert_eq!(
            plan.glb,
            Some(BoundOp::ExactEnumeration),
            "residual predicate must downgrade the rewriting-backed glb"
        );
        let rows = engine.range(&db).unwrap();
        for row in &rows {
            assert_eq!(row.glb.unwrap().method, Method::ExactEnumeration);
        }
        let shown = engine.explain(&db);
        assert!(shown.contains("residual predicate"), "{shown}");
    }

    #[test]
    fn predicate_variables_must_occur_in_the_body() {
        use rcqa_query::{CmpOp, VarPredicate};
        let db = db_stock();
        let q = parse_agg_query("(x, SUM(y)) <- Dealers(x, t), Stock(p, t, y)").unwrap();
        let err = RangeCqa::new(&q, db.schema())
            .unwrap()
            .with_predicates(vec![VarPredicate {
                var: Var::new("zz"),
                op: CmpOp::Eq,
                value: Value::from(1),
            }])
            .unwrap_err();
        assert!(matches!(err, CoreError::Query(_)), "{err}");
    }

    #[test]
    fn explain_documents_the_access_path() {
        use rcqa_query::{CmpOp, VarPredicate};
        let db = db_stock();
        let q = parse_agg_query("(x, MAX(y)) <- Dealers(x, t), Stock(p, t, y)").unwrap();
        let engine = RangeCqa::new(&q, db.schema())
            .unwrap()
            .with_predicates(vec![VarPredicate {
                var: Var::new("p"),
                op: CmpOp::Eq,
                value: Value::text("Tesla Y"),
            }])
            .unwrap();
        let shown = engine.explain(&db);
        assert!(shown.contains("Seek"), "{shown}");
        assert!(shown.contains("Stock: seek key[0] = Tesla Y"), "{shown}");
        // Without predicates the leaf stays a full scan.
        let plain = RangeCqa::new(&q, db.schema()).unwrap().explain(&db);
        assert!(plain.contains("Scan"), "{plain}");
        assert!(!plain.contains("Seek"), "{plain}");
    }

    /// The id path against its `Value` adapter and against the matching rows
    /// of the full run, at 1 and 4 threads: unsorted input with duplicates,
    /// ids of values interned after the build (overlay ids), ids with no
    /// group, an id the interner never assigned, keys a row filter rejects,
    /// and a closed query, which answers its one group whatever is asked.
    #[test]
    fn range_for_group_ids_agrees_with_its_adapter_and_the_full_run() {
        use rcqa_data::DeltaEvent;
        use rcqa_query::{CmpOp, VarPredicate};
        let mut db = db_stock();
        let mut index = DbIndex::new(&db);
        // Overlay values: a dealer and a town with stock (new groups), a
        // dealer in a town without stock (an id with no group), and a dealer
        // of a known town.
        let late = [
            fact!("Dealers", "Adams", "Austin"),
            fact!("Stock", "Tesla Z", "Austin", 50),
            fact!("Dealers", "Nemo", "Nowhere"),
            fact!("Dealers", "Zoe", "Boston"),
        ];
        db.insert_all(late.clone()).unwrap();
        index.apply_delta(&late.map(DeltaEvent::insert));
        let interner = index.interner();
        assert!(
            interner.len() > interner.sorted_len(),
            "the overlay holds ids"
        );
        let after_boston = VarPredicate {
            var: Var::new("t"),
            op: CmpOp::Gt,
            value: Value::text("Boston"),
        };
        let cases = [
            // Per-key probes, and one filtered discovery pass.
            ("(x, MAX(y)) <- Dealers(x, t), Stock(p, t, y)", None),
            ("(t, MAX(y)) <- Dealers(x, t), Stock(p, t, y)", None),
            // `t` at no key position: a row filter, which rejects `Austin`
            // (an overlay id) and `Boston`.
            ("(t, COUNT(*)) <- Dealers(x, t)", Some(after_boston)),
            ("MAX(y) <- Dealers(x, t), Stock(p, t, y)", None),
        ];
        for (text, predicate) in cases {
            for threads in [1, 4] {
                let engine = with_threads(text, &db, threads)
                    .with_predicates(predicate.clone().into_iter().collect())
                    .unwrap();
                let full = engine.range_with_index(&db, &index).unwrap();
                assert_eq!(
                    RangeCqa::range_statement(std::slice::from_ref(&engine), &index, None)
                        .unwrap()
                        .to_rows(0, interner),
                    full
                );
                let width = engine.prepared().normalised.body.free_vars().len();
                // Every id as a one-column key (plus one never assigned),
                // newest first, in three subsets; the even ones twice.
                let ids: Vec<u32> = (0..=interner.len() as u32).rev().collect();
                for pick in [0, 1, 2] {
                    let mut keys = IdRows::new(width);
                    for &id in ids.iter().filter(|&&id| pick == 2 || id % 2 == pick) {
                        for _ in 0..1 + usize::from(id % 2 == 0) {
                            keys.push((width == 1).then_some(id));
                        }
                    }
                    let got = engine.range_for_group_ids(&index, &keys).unwrap();
                    let got = got.to_rows(0, interner);
                    let asked = |key: &Vec<Value>| {
                        key.iter().all(|v| {
                            interner
                                .id_of(v)
                                .is_some_and(|id| keys.iter().any(|k| k == [id]))
                        })
                    };
                    let expected: Vec<GroupRange> = match width {
                        0 => full.clone(),
                        _ => full.iter().filter(|row| asked(&row.key)).cloned().collect(),
                    };
                    assert_eq!(got, expected, "{text} @{threads}T, subset {pick}");
                    let values: Vec<Vec<Value>> = (keys.iter())
                        .filter(|key| key.iter().all(|&id| interner.contains_id(id)))
                        .map(|key| interner.values_of(key))
                        .collect();
                    let adapted = engine.range_for_groups(&db, &index, &values).unwrap();
                    assert_eq!(adapted, got, "{text} @{threads}T, subset {pick}");
                }
                // The inputs reach groups keyed by overlay ids.
                let overlay = |row: &GroupRange| {
                    row.key
                        .iter()
                        .any(|v| interner.id_of(v).unwrap() as usize >= interner.sorted_len())
                };
                assert!(width == 0 || full.iter().any(overlay), "{text}");
            }
        }
    }

    #[test]
    fn range_for_groups_respects_predicates() {
        use rcqa_query::{CmpOp, VarPredicate};
        let db = db_stock();
        let index = DbIndex::new(&db);
        let q = parse_agg_query("(x, MAX(y)) <- Dealers(x, t), Stock(p, t, y)").unwrap();
        let engine = RangeCqa::new(&q, db.schema())
            .unwrap()
            .with_predicates(vec![VarPredicate {
                var: Var::new("p"),
                op: CmpOp::Eq,
                value: Value::text("Tesla X"),
            }])
            .unwrap();
        let full = engine.range_with_index(&db, &index).unwrap();
        assert!(!full.is_empty());
        for row in &full {
            let keys: BTreeSet<Vec<Value>> = [row.key.clone()].into();
            let got = engine.range_for_groups(&db, &index, &keys).unwrap();
            assert_eq!(got, vec![row.clone()]);
        }
    }

    #[test]
    fn candidate_groups_are_sorted_and_complete() {
        let db = db_stock();
        let q = parse_agg_query("(x, SUM(y)) <- Dealers(x, t), Stock(p, t, y)").unwrap();
        let prepared = PreparedAggQuery::new(&q, db.schema()).unwrap();
        let groups = candidate_groups(&prepared, &db);
        assert_eq!(
            groups,
            vec![vec![Value::text("James")], vec![Value::text("Smith")]]
        );
    }
}
