//! The top-level range-CQA engine: plan a query, lower the plan to a physical
//! operator pipeline, and execute it (in parallel) on a database instance.
//!
//! ## Evaluation strategies
//!
//! Per `(aggregate, bound)` pair, the logical planner
//! ([`crate::plan::LogicalPlan`]) picks the cheapest sound path (the query
//! body must in addition have an acyclic attack graph for the first two rows;
//! otherwise every cell falls back to exact enumeration):
//!
//! | aggregate            | GLB path                          | LUB path                          |
//! |----------------------|-----------------------------------|-----------------------------------|
//! | `SUM` over `Q≥0`     | Theorem 6.1 rewriting             | exact enumeration                 |
//! | `SUM` with negatives | exact enumeration (Section 7.3)   | exact enumeration                 |
//! | `COUNT` (= `SUM(1)`) | Theorem 6.1 rewriting             | exact enumeration                 |
//! | `MAX`                | Theorem 7.11 rewriting (minimise) | Theorem 7.10 plain extremum       |
//! | `MIN`                | Theorem 7.10 plain extremum       | Theorem 7.11 rewriting (maximise) |
//! | `AVG`, others        | exact enumeration                 | exact enumeration                 |
//!
//! "Rewriting" evaluates the Theorem 6.1 / 7.11 semantics operationally over
//! ∀embeddings and "plain extremum" takes the extremum over all embeddings —
//! both in [`crate::glb`], over the id rows of the executor's embedding arena
//! ([`crate::plan::exec`], "Id discipline"); exact enumeration walks every
//! repair ([`crate::exact::exact_bounds`]) and is exponential in the number
//! of inconsistent blocks.
//!
//! ## Plan-IR lowering
//!
//! The strategies are not dispatched ad hoc: every engine call builds a
//! [`crate::plan::LogicalPlan`] (one [`crate::plan::BoundStrategy`] per
//! requested bound) and lowers it to the physical plan IR of
//! [`crate::plan::physical`] — a linear
//! `Scan → Join → PartitionByGroup → ForallCheck → AggregateBound →
//! RangeMerge` pipeline. `glb`, `lub`, `range`, **and the exhaustive-repair
//! fallback** all execute through that IR (the fallback is the
//! `AggregateBound` operator [`crate::plan::BoundOp::ExactEnumeration`]);
//! there is no per-call strategy branching left in [`RangeCqa`]. The chosen
//! plan is inspectable via [`RangeCqa::plan`] / [`RangeCqa::explain`].
//!
//! ## One-pass grouped evaluation
//!
//! Each public entry point ([`RangeCqa::glb`], [`RangeCqa::lub`],
//! [`RangeCqa::range`]) builds **one** [`DbIndex`] and performs **one** join
//! pass, regardless of the number of GROUP BY groups:
//!
//! 1. the open body (GROUP BY variables un-frozen, level order precomputed at
//!    preparation time) is enumerated once over the shared index (`Scan` +
//!    `Join`);
//! 2. embeddings are partitioned by group key (`PartitionByGroup`) — no
//!    per-group re-preparation, no attack-graph recomputation, no per-group
//!    index rebuild;
//! 3. a memoised [`crate::forall::CertaintyChecker`] is shared across groups
//!    (`ForallCheck`): its memo keys include the frozen group variables, so
//!    certainty sub-problems proved for one group are reused by other groups
//!    evaluated on the same worker;
//! 4. `range` derives both bounds from the same per-group analysis instead
//!    of running the pipeline twice (`AggregateBound`).
//!
//! The exact-enumeration fallback is the only path that constructs further
//! indexes (one per enumerated repair, by design).
//!
//! ## Threading model
//!
//! The executor ([`crate::plan::exec`]) fans the sorted group partitions out
//! over a `std::thread::scope` worker pool at the `PartitionByGroup`
//! boundary. Each worker owns a per-worker memoised certainty checker over
//! the shared read-only index; `RangeMerge` concatenates the contiguous
//! shards in order, so answers are byte-identical at every thread count.
//! Worker count: [`EngineOptions::threads`] if non-zero, else the
//! `RCQA_THREADS` environment variable, else
//! [`std::thread::available_parallelism`].

use crate::classify::{classify_prepared, Classification};
use crate::error::CoreError;
use crate::forall::{for_each_embedding, CompiledLevels};
use crate::index::{AccessPath, BlockRestriction, DbIndex, DirtyBlock};
use crate::plan::exec::{execute, execute_for_groups, group_keys, ExecContext, RowSupport};
use crate::plan::{LogicalPlan, PhysicalPlan};
use crate::prepared::PreparedAggQuery;
use crate::rewrite::{rewriting_for, BoundKind, Rewriting};
use rcqa_data::{DatabaseInstance, NumericDomain, Rational, Schema, Value};
use rcqa_query::{AggQuery, QueryError, Term, Var, VarPredicate};
use std::collections::{BTreeMap, BTreeSet, HashMap};
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

/// Engine options.
#[derive(Clone, Copy, Debug)]
pub struct EngineOptions {
    /// Allow falling back to exhaustive repair enumeration when no rewriting
    /// is known for the requested bound.
    pub allow_exact_fallback: bool,
    /// Maximum number of repairs the exact fallback may enumerate.
    pub max_repairs: u128,
    /// Number of executor worker threads for grouped evaluation.
    ///
    /// `0` (the default) resolves at execution time: the `RCQA_THREADS`
    /// environment variable if set to a positive integer, else
    /// [`std::thread::available_parallelism`]. The worker count is always
    /// clamped to the number of groups, so closed queries run inline.
    pub threads: usize,
    /// Disable the cost-based range-seek access path: comparison predicates
    /// on GROUP BY variables are applied as post-aggregation row filters
    /// (every group is evaluated), and restrictions on non-free key
    /// variables fall back to a linear block filter instead of ordered
    /// binary-searched seeks. The answers are identical; only the access
    /// path changes. No caller needs this outside tests: it is the oracle
    /// arm the agreement tests (`tests/surface_agreement.rs`, this module's
    /// tests) run beside the seek and compare against brute force.
    pub force_scan: bool,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            allow_exact_fallback: true,
            max_repairs: 1 << 22,
            threads: 0,
            force_scan: false,
        }
    }
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
/// pipeline. Every predicate takes exactly one of three sound routes:
///
/// * **block restriction** — the variable sits at a key position of some
///   atom, so every embedding binds it from a block key and whole blocks
///   can be kept or dropped before the join ([`DbIndex::restrict`]);
/// * **row filter** — the variable is a GROUP BY variable, so its value is
///   the (definite) group key component and rows are filtered after
///   aggregation;
/// * **exact embedding filter** — applied inside the exhaustive-repair
///   fallback ([`crate::exact::exact_bounds_filtered`]). Non-free
///   block-restricted predicates also take this route (the exact path
///   re-enumerates the *full* instance), and **residual** predicates
///   (non-free variable at no key position) take it exclusively, forcing
///   [`LogicalPlan::force_exact`].
#[derive(Clone, Debug, Default)]
struct PredicateRouting {
    restrictions: Vec<BlockRestriction>,
    /// `(position in free-variable order, predicate)`.
    row_filters: Vec<(usize, VarPredicate)>,
    exact: Vec<VarPredicate>,
    /// The residual subset of `exact` (non-free variable at no key
    /// position); non-empty forces the exact fallback on every bound.
    residual: Vec<VarPredicate>,
}

impl PredicateRouting {
    /// Whether a residual predicate forces the exact fallback.
    fn forces_exact(&self) -> bool {
        !self.residual.is_empty()
    }

    /// Drops the rows whose group key fails a row filter.
    fn filter_rows(&self, rows: &mut Vec<GroupRange>) {
        if self.row_filters.is_empty() {
            return;
        }
        rows.retain(|g| {
            self.row_filters
                .iter()
                .all(|(pos, p)| p.holds_value(&g.key[*pos]))
        });
    }
}

/// The range-consistent query answering engine for one aggregation query.
#[derive(Clone, Debug)]
pub struct RangeCqa {
    prepared: PreparedAggQuery,
    schema: Schema,
    options: EngineOptions,
    predicates: Vec<VarPredicate>,
}

impl RangeCqa {
    /// Validates and prepares the query.
    pub fn new(query: &AggQuery, schema: &Schema) -> Result<RangeCqa, CoreError> {
        Ok(RangeCqa {
            prepared: PreparedAggQuery::new(query, schema)?,
            schema: schema.clone(),
            options: EngineOptions::default(),
            predicates: Vec::new(),
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
        for p in &predicates {
            let occurs = self
                .prepared
                .normalised
                .body
                .atoms()
                .iter()
                .any(|a| a.terms().iter().any(|t| t.as_var() == Some(&p.var)));
            if !occurs {
                return Err(CoreError::Query(QueryError::Unsupported(format!(
                    "predicate variable {} does not occur in the query body",
                    p.var
                ))));
            }
        }
        self.predicates = predicates;
        Ok(self)
    }

    /// The attached comparison predicates.
    pub fn predicates(&self) -> &[VarPredicate] {
        &self.predicates
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

    /// The symbolic AGGR\[FOL\] rewriting for the requested bound, if one is
    /// known (Theorems 6.1, 7.10, 7.11).
    pub fn rewriting(&self, bound: BoundKind) -> Option<Rewriting> {
        rewriting_for(&self.prepared, bound)
    }

    /// Computes the greatest lower bound for every group.
    ///
    /// Builds exactly one [`DbIndex`] regardless of the number of groups.
    pub fn glb(&self, db: &DatabaseInstance) -> Result<Vec<(Vec<Value>, BoundAnswer)>, CoreError> {
        let index = DbIndex::new(db);
        let groups = self.evaluate(db, &index, true, false)?;
        Ok(groups
            .into_iter()
            .map(|g| (g.key, g.glb.expect("glb was requested")))
            .collect())
    }

    /// Computes the least upper bound for every group.
    ///
    /// Builds exactly one [`DbIndex`] regardless of the number of groups.
    pub fn lub(&self, db: &DatabaseInstance) -> Result<Vec<(Vec<Value>, BoundAnswer)>, CoreError> {
        let index = DbIndex::new(db);
        let groups = self.evaluate(db, &index, false, true)?;
        Ok(groups
            .into_iter()
            .map(|g| (g.key, g.lub.expect("lub was requested")))
            .collect())
    }

    /// Computes both bounds for every group.
    ///
    /// Builds exactly one [`DbIndex`] and derives both bounds from one shared
    /// per-group analysis (a single join pass, a single certainty memo).
    pub fn range(&self, db: &DatabaseInstance) -> Result<Vec<GroupRange>, CoreError> {
        let index = DbIndex::new(db);
        self.evaluate(db, &index, true, true)
    }

    /// Like [`RangeCqa::range`], but over a caller-supplied [`DbIndex`] for
    /// `db` — the serving layer keeps one immutable index per snapshot
    /// behind an `Arc<DbIndex>` shared by every concurrent reader, and each
    /// call borrows it (`&*arc`), so repeated calls build **zero** further
    /// indexes (on rewriting-backed paths). `DbIndex` is `Send + Sync`
    /// (asserted in [`crate::index`]): the borrow is handed unchanged to the
    /// executor's worker threads.
    pub fn range_with_index(
        &self,
        db: &DatabaseInstance,
        index: &DbIndex,
    ) -> Result<Vec<GroupRange>, CoreError> {
        self.evaluate(db, index, true, true)
    }

    /// The [`RowSupport`] of this engine's result rows for the given numeric
    /// domain: per body atom, the block-key pattern whose instantiation with
    /// a row's group key over-approximates every block the row's evaluation
    /// can consult. Exhaustive — every block supports every row — when the
    /// plan uses the exact-enumeration fallback on either bound (the
    /// fallback's repair budget depends on the whole instance), which also
    /// covers residual predicates ([`LogicalPlan::force_exact`]).
    ///
    /// The support is data-independent (patterns mention only the query and
    /// the group key), so one computation at preparation time stays valid
    /// for the engine's lifetime: the instance's numeric domain is fixed at
    /// construction and a commit can never change it.
    pub fn row_support(&self, domain: NumericDomain) -> RowSupport {
        let plan = self.logical_plan(domain, true, true).lower(&self.prepared);
        RowSupport::for_plan(&plan, &self.prepared)
    }

    /// The group keys a commit's dirty blocks may have **created** rows for:
    /// the keys of every open-body embedding that draws at least one fact
    /// from a dirty block. Each level is pinned in turn to the dirty blocks
    /// of its relation (`forall::for_each_embedding`'s `pin`), so a brand-new
    /// embedding — which must pass through a changed block at some level —
    /// is found at that level. Closed queries return the empty set (their
    /// single row's key is always known).
    ///
    /// Retractions need no lookup here: a destroyed embedding belonged to a
    /// cached row, and the cached row's [`RowSupport`] already intersects
    /// the dirty block that carried it.
    pub fn dirty_candidate_keys(
        &self,
        index: &DbIndex,
        dirty: &[DirtyBlock],
    ) -> BTreeSet<Vec<Value>> {
        let mut out = BTreeSet::new();
        let free = self.prepared.normalised.body.free_vars().to_vec();
        if free.is_empty() || dirty.is_empty() {
            return out;
        }
        let routing = self.route_predicates();
        let (view, _access) = self.restricted_view(index, &routing);
        let index = view.as_ref().unwrap_or(index);
        let interner = index.interner();
        // Dirty block keys per relation, in id space. A key with a value this
        // lineage never interned names a block the current index cannot
        // contain — it cannot carry a new embedding and is skipped.
        let mut pinned: HashMap<&str, Vec<Vec<u32>>> = HashMap::new();
        for block in dirty {
            if let Some(ids) = block
                .key
                .iter()
                .map(|v| interner.id_of(v))
                .collect::<Option<Vec<u32>>>()
            {
                pinned.entry(block.relation.as_str()).or_default().push(ids);
            }
        }
        if pinned.is_empty() {
            return out;
        }
        // Key value order — the order the index lists blocks in — and no
        // duplicates (`dirty` may concatenate several commits' blocks).
        for keys in pinned.values_mut() {
            keys.sort_by(|a, b| interner.cmp_id_tuples(a, b));
            keys.dedup();
        }
        let open = CompiledLevels::new(self.prepared.open_levels());
        let free_slots: Vec<usize> = free
            .iter()
            .map(|v| {
                open.table()
                    .slot(v)
                    .expect("free variable occurs in the open body")
            })
            .collect();
        for (level, lvl) in self.prepared.open_levels().iter().enumerate() {
            let Some(pins) = pinned.get(lvl.atom.relation()) else {
                continue;
            };
            let pin = Some((level, pins.as_slice()));
            for_each_embedding(&open, index, &open.unbound_ids(), pin, |theta| {
                out.insert(
                    free_slots
                        .iter()
                        .map(|&s| interner.value(theta[s]).clone())
                        .collect(),
                );
            });
        }
        out
    }

    /// Computes both bounds for **only** the groups whose key is in `keys`,
    /// over a caller-supplied index. The returned rows (sorted by group key;
    /// keys with no embedding are absent, exactly as in a full run) are
    /// byte-identical to the corresponding rows of
    /// [`RangeCqa::range_with_index`] — for **every** query shape, including
    /// group keys bound at no block-key position (the executor pins the free
    /// variables per key instead of projecting level-0 block keys; see
    /// [`execute_for_groups`]).
    ///
    /// Like [`RangeCqa::range_with_index`], the index is typically a borrow
    /// of a snapshot's shared `Arc<DbIndex>`; the call never mutates it, so
    /// any number of dirty-group patches may run against one snapshot
    /// concurrently.
    pub fn range_for_groups(
        &self,
        db: &DatabaseInstance,
        index: &DbIndex,
        keys: &BTreeSet<Vec<Value>>,
    ) -> Result<Vec<GroupRange>, CoreError> {
        let routing = self.route_predicates();
        let (view, access) = self.restricted_view(index, &routing);
        let index = view.as_ref().unwrap_or(index);
        let plan = self
            .logical_plan(db.numeric_domain(), true, true)
            .lower_with_access(&self.prepared, &access);
        let cx = ExecContext {
            prepared: &self.prepared,
            db,
            index,
            options: &self.options,
            exact_predicates: &routing.exact,
        };
        let mut rows = execute_for_groups(&plan, &cx, keys)?;
        routing.filter_rows(&mut rows);
        Ok(rows)
    }

    /// The logical plan (strategy per requested bound) for the given numeric
    /// domain. A residual comparison predicate downgrades every bound to the
    /// exhaustive-repair fallback ([`LogicalPlan::force_exact`]).
    pub fn logical_plan(
        &self,
        domain: NumericDomain,
        want_glb: bool,
        want_lub: bool,
    ) -> LogicalPlan {
        let plan = LogicalPlan::new(&self.prepared, domain, want_glb, want_lub);
        if self.route_predicates().forces_exact() {
            plan.force_exact()
        } else {
            plan
        }
    }

    /// The physical plan (lowered operator pipeline) for the given numeric
    /// domain — the exact pipeline `glb`/`lub`/`range` execute, except that
    /// without an instance no access path is chosen and the leaf is always a
    /// full `Scan` ([`RangeCqa::explain`] shows the instance-specific
    /// choice).
    pub fn plan(&self, domain: NumericDomain, want_glb: bool, want_lub: bool) -> PhysicalPlan {
        self.logical_plan(domain, want_glb, want_lub)
            .lower(&self.prepared)
    }

    /// An `EXPLAIN`-style rendering of the physical plan a [`RangeCqa::range`]
    /// call on `db` would execute, including the chosen access path (seek vs
    /// scan, with the stats estimate) and predicate routing. Builds an index
    /// to consult the stats; use [`RangeCqa::explain_with_index`] to reuse a
    /// snapshot's.
    pub fn explain(&self, db: &DatabaseInstance) -> String {
        self.explain_with_index(db, &DbIndex::new(db))
    }

    /// [`RangeCqa::explain`] over a caller-supplied index for `db`.
    pub fn explain_with_index(&self, db: &DatabaseInstance, index: &DbIndex) -> String {
        let routing = self.route_predicates();
        let (_view, access) = self.restricted_view(index, &routing);
        let mut out = self
            .logical_plan(db.numeric_domain(), true, true)
            .lower_with_access(&self.prepared, &access)
            .to_string();
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

    /// Routes each attached predicate to its sound evaluation site; see
    /// [`PredicateRouting`].
    fn route_predicates(&self) -> PredicateRouting {
        let mut routing = PredicateRouting::default();
        if self.predicates.is_empty() {
            return routing;
        }
        let free = self.prepared.normalised.body.free_vars();
        for p in &self.predicates {
            // Every key-positioned occurrence of the variable: each one is a
            // sound block filter, and deeper ones narrow multi-column seeks.
            let mut occurrences = Vec::new();
            for atom in self.prepared.normalised.body.atoms() {
                let Some(sig) = self.schema.signature(atom.relation()) else {
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
                free.iter().position(|v| *v == p.var),
                occurrences.is_empty(),
            ) {
                // Free variable at a key position: push into the block index
                // (the group key is bound from block keys, so restriction is
                // exact) — unless the baseline arm asked for a full scan, in
                // which case filter the finished rows instead.
                (Some(pos), false) if self.options.force_scan => {
                    routing.row_filters.push((pos, p.clone()));
                }
                (Some(_), false) => routing.restrictions.extend(occurrences),
                // Free variable off every key: the group key is still
                // definite, so a row filter is exact.
                (Some(pos), true) => routing.row_filters.push((pos, p.clone())),
                // Non-free variable at a key position: restrict the index for
                // the rewriting paths, and filter embeddings on the exact
                // path (which re-enumerates the full instance).
                (None, false) => {
                    routing.restrictions.extend(occurrences);
                    routing.exact.push(p.clone());
                }
                // Residual: only exhaustive enumeration is sound.
                (None, true) => {
                    routing.exact.push(p.clone());
                    routing.residual.push(p.clone());
                }
            }
        }
        routing
    }

    /// The restricted view of `index` for the routed block restrictions, and
    /// its access paths. `(None, [])` when there is nothing to restrict.
    fn restricted_view(
        &self,
        index: &DbIndex,
        routing: &PredicateRouting,
    ) -> (Option<DbIndex>, Vec<AccessPath>) {
        if routing.restrictions.is_empty() {
            return (None, Vec::new());
        }
        let (view, access) = index.restrict(&routing.restrictions, self.options.force_scan);
        (Some(view), access)
    }

    /// The shared evaluation pipeline behind `glb`/`lub`/`range`: route the
    /// predicates, restrict the index, plan, lower, execute, row-filter.
    fn evaluate(
        &self,
        db: &DatabaseInstance,
        index: &DbIndex,
        want_glb: bool,
        want_lub: bool,
    ) -> Result<Vec<GroupRange>, CoreError> {
        let routing = self.route_predicates();
        let (view, access) = self.restricted_view(index, &routing);
        let index = view.as_ref().unwrap_or(index);
        let plan = self
            .logical_plan(db.numeric_domain(), want_glb, want_lub)
            .lower_with_access(&self.prepared, &access);
        let mut rows = execute(
            &plan,
            &ExecContext {
                prepared: &self.prepared,
                db,
                index,
                options: &self.options,
                exact_predicates: &routing.exact,
            },
        )?;
        routing.filter_rows(&mut rows);
        Ok(rows)
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
        db,
        index: &DbIndex::new(db),
        options: &EngineOptions::default(),
        exact_predicates: &[],
    })
}

/// Substitutes a group key for the free variables of a query, producing a
/// closed prepared query (Section 6.2: free variables are treated as
/// constants).
///
/// The one-pass pipeline no longer calls this per group for rewriting-backed
/// strategies; it remains the entry into the exact-enumeration fallback and
/// the repair-enumeration baselines.
pub fn substitute_group(
    prepared: &PreparedAggQuery,
    key: &[Value],
) -> Result<PreparedAggQuery, CoreError> {
    let free = prepared.original.body.free_vars().to_vec();
    assert_eq!(free.len(), key.len(), "group key arity mismatch");
    let subst: BTreeMap<Var, Term> = free
        .iter()
        .cloned()
        .zip(key.iter().cloned().map(Term::Const))
        .collect();
    let new_body = rcqa_query::ConjunctiveQuery::boolean(
        prepared
            .original
            .body
            .atoms()
            .iter()
            .map(|a| a.substitute(&subst)),
    );
    let closed = AggQuery::new(
        prepared.original.agg,
        prepared.original.term.clone(),
        new_body,
    );
    PreparedAggQuery::new(&closed, &prepared.body.schema().clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_bounds;
    use rcqa_data::{fact, rat, Schema, Signature};
    use rcqa_query::parse_agg_query;

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

        let engine = RangeCqa::new(&q, db.schema())
            .unwrap()
            .with_options(EngineOptions {
                allow_exact_fallback: false,
                ..EngineOptions::default()
            });
        assert!(matches!(
            engine.glb(&db),
            Err(CoreError::UnsupportedAggregate { .. })
        ));
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
        assert!(!support.is_exhaustive());
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
        assert!(!support.is_exhaustive());
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
        // SUM's lub is the exact-enumeration fallback, whose repair budget
        // depends on the whole instance: every block supports every row.
        let q = parse_agg_query("(x, SUM(y)) <- Dealers(x, t), Stock(p, t, y)").unwrap();
        let engine = RangeCqa::new(&q, db.schema()).unwrap();
        let support = engine.row_support(db.numeric_domain());
        assert!(support.is_exhaustive());
        assert!(support.hits(&smith, "Dealers", &[Value::text("James")]));
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
        // Closed queries have nothing to look up.
        let q = parse_agg_query("SUM(y) <- Dealers('Smith', t), Stock(p, t, y)").unwrap();
        let engine = RangeCqa::new(&q, db.schema()).unwrap();
        assert!(engine
            .dirty_candidate_keys(&index, &[block("Dealers", &["Smith"])])
            .is_empty());
    }

    #[test]
    fn range_for_groups_agrees_beyond_the_per_key_cap() {
        // More groups than the executor's per-key pinning cap: the filtered
        // full-partition arm must agree with the full run too.
        let schema = Schema::new()
            .with_relation("Dealers", Signature::new(2, 1, []).unwrap())
            .with_relation("Stock", Signature::new(3, 2, [2]).unwrap());
        let mut db = DatabaseInstance::new(schema);
        for i in 0..20 {
            db.insert(fact!("Dealers", format!("d{i:02}"), "Boston"))
                .unwrap();
        }
        db.insert_all([
            fact!("Stock", "Tesla X", "Boston", 35),
            fact!("Stock", "Tesla X", "Boston", 40),
        ])
        .unwrap();
        let index = DbIndex::new(&db);
        let q = parse_agg_query("(x, MAX(y)) <- Dealers(x, t), Stock(p, t, y)").unwrap();
        let engine = RangeCqa::new(&q, db.schema()).unwrap();
        let full = engine.range_with_index(&db, &index).unwrap();
        assert_eq!(full.len(), 20);
        let all: BTreeSet<Vec<Value>> = full.iter().map(|r| r.key.clone()).collect();
        let got = engine.range_for_groups(&db, &index, &all).unwrap();
        assert_eq!(got, full);
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
                    .with_options(EngineOptions {
                        threads,
                        ..EngineOptions::default()
                    });
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

    /// Every predicate route (free pushable, free row-filter, non-free
    /// pushable, residual) against the exhaustive-repair oracle, at both
    /// thread counts and on both access-path arms.
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
            // restriction degrades to a linear block filter.
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
                for force_scan in [false, true] {
                    let engine = RangeCqa::new(&q, db.schema())
                        .unwrap()
                        .with_predicates(preds.clone())
                        .unwrap()
                        .with_options(EngineOptions {
                            threads,
                            force_scan,
                            ..EngineOptions::default()
                        });
                    let rows = engine.range(&db).unwrap();
                    assert_eq!(
                        rows.len(),
                        oracle.len(),
                        "{text} @{threads}T force_scan={force_scan}"
                    );
                    for (row, (key, bounds)) in rows.iter().zip(oracle.iter()) {
                        assert_eq!(&row.key, key, "{text}");
                        assert_eq!(
                            row.glb.unwrap().value,
                            bounds.glb,
                            "{text} glb of {key:?} @{threads}T force_scan={force_scan}"
                        );
                        assert_eq!(
                            row.lub.unwrap().value,
                            bounds.lub,
                            "{text} lub of {key:?} @{threads}T force_scan={force_scan}"
                        );
                    }
                    // Byte-identical across thread counts and both arms.
                    match &reference {
                        None => reference = Some(rows),
                        Some(first) => assert_eq!(&rows, first, "{text}"),
                    }
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
        let plan = engine.logical_plan(NumericDomain::NonNegative, true, true);
        assert_eq!(
            plan.glb,
            Some(crate::plan::BoundStrategy::ExactFallback),
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
        assert!(shown.contains("Stock"), "{shown}");
        assert!(shown.contains("est"), "{shown}");
        // The baseline arm reports the same restriction as a filter.
        let forced = engine
            .clone()
            .with_options(EngineOptions {
                force_scan: true,
                ..EngineOptions::default()
            })
            .explain(&db);
        assert!(forced.contains("filter"), "{forced}");
        // Without predicates the leaf stays a full scan.
        let plain = RangeCqa::new(&q, db.schema()).unwrap().explain(&db);
        assert!(plain.contains("Scan"), "{plain}");
        assert!(!plain.contains("Seek"), "{plain}");
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
