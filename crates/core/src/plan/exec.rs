//! The plan executor: runs a [`Plan`]'s pipeline over a shared [`DbIndex`],
//! sequentially or on a worker pool.
//!
//! ## What each stage computes
//!
//! Nothing between the index and the [`GroupRange`] row lists an embedding.
//! `Join` + `PartitionByGroup` find the **group keys** — the free-variable
//! projections of the open body's embeddings — by [`crate::forall`]'s group
//! discovery: a key is reported once its variables are bound and some
//! extension exists, which the existence instance of the bound recursion
//! decides, and a partial embedding is explored once per projection onto
//! what the deeper levels read. A listed-groups call probes each listed
//! key's existence instead. Then, per group, `ForallCheck` +
//! `AggregateBound` evaluate each bound by the memoised level-by-level
//! recursion of [`crate::glb`] straight over the index: the ∀embedding
//! condition gates whole blocks, and each level's sub-aggregate is computed
//! once per projection onto the variables it reads, shared across every
//! group that reaches it. The exact fallback is
//! the one stage that enumerates embeddings: one pinned join per group, to
//! collect the blocks whose repairs it enumerates.
//!
//! ## Threading model
//!
//! The executor parallelises twice, both times over contiguous shards run on
//! a [`std::thread::scope`] worker pool (no external dependencies — the
//! workspace builds offline). Group discovery is sharded **by level-0 block
//! key**: each worker walks its range of blocks under memos of its own, and
//! the shards' key sets are merged and sorted. Then the sorted groups are
//! sharded again: each worker resolves the body once into a [`Join`] over
//! the shared read-only index and owns one memoised [`BoundEvaluator`] per
//! bound on it (an extremum with its certainty instance) — sub-aggregates
//! and certainty verdicts are reused across the groups of one shard, and no
//! locks are taken on the hot path. The final `RangeMerge` concatenates the
//! shard outputs in shard order. Groups are sorted by key
//! **value** (interned ids are compared through
//! [`rcqa_data::ValueInterner::cmp_id_tuples`], so the order is independent of the id
//! layout), a group's bounds do not depend on which memo entries its worker
//! had already filled, and shards are contiguous: the merged answer is
//! **byte-identical** to the sequential one at every thread count — and to
//! the answer of a cold rebuild whose interner assigned different ids.
//!
//! ## Id discipline
//!
//! From the index to the [`GroupRange`] row everything is interned `u32` ids
//! (see [`crate::index`]): a partial embedding is one slot vector, bound and
//! unbound in place; memo keys are id projections hashed and compared as raw
//! integers (id equality is value equality); a group key is a row of ids.
//! [`Value`]s appear in three places only: the group key of the
//! [`GroupRange`] row, the one [`rcqa_data::Rational`] a bound reads per
//! leaf, and the exact fallback (its group substitution, and the facts of the
//! blocks whose repairs it enumerates). Nothing is allocated per embedding.
//!
//! Worker count comes from
//! [`EngineOptions::threads`](crate::engine::EngineOptions::threads)
//! (explicit value > `RCQA_THREADS` env > available parallelism) and is
//! clamped to the number of shardable items, so a closed query runs inline.
//! A full evaluation ([`execute`]) always shards, whatever its size. The
//! groups a serving patch re-derives ([`execute_for_groups`]) are evaluated
//! on the calling thread.
//!
//! The executor only ever *borrows* the index ([`ExecContext::index`]), so a
//! caller may share one immutable index across any number of concurrent
//! executions: the serving layer (`rcqa-session`) freezes an `Arc<DbIndex>`
//! per snapshot and runs every client's plan — each with its own worker pool
//! — against the same copy. Snapshot indexes are themselves structurally
//! shared (per-relation and per-block-column `Arc`s, see [`crate::index`]),
//! so "the same copy" may physically overlap the indexes of neighbouring
//! snapshots; that sharing is invisible here because published indexes —
//! interior `Arc`s included — are never mutated.

use crate::engine::{substitute_group, BoundAnswer, EngineOptions, GroupRange, MAX_REPAIRS};
use crate::error::CoreError;
use crate::exact::{exact_bounds_filtered, ExactBounds};
use crate::forall::{CompiledLevels, GroupKeys, Join};
use crate::glb::BoundEvaluator;
use crate::ids::{resolve_ids, IdRows, IdTupleSet};
use crate::index::{DbIndex, IndexedBlock, RelationIndex};
use crate::plan::{BoundOp, Plan};
use crate::prepared::PreparedAggQuery;
use crate::rewrite::BoundKind;
use rcqa_data::{DatabaseInstance, Value};
use rcqa_query::{Term, Var, VarPredicate};
use std::collections::HashSet;
use std::sync::Arc;

/// Everything the executor needs besides the plan itself.
#[derive(Clone, Copy)]
pub struct ExecContext<'a> {
    /// The prepared query being answered.
    pub prepared: &'a PreparedAggQuery,
    /// The database instance: the exact fallback reads its schema and numeric
    /// domain; every fact is read through `index`.
    pub db: &'a DatabaseInstance,
    /// The shared block index (built exactly once by the engine entry point).
    pub index: &'a DbIndex,
    /// Engine options (the worker count).
    pub options: &'a EngineOptions,
    /// Comparison predicates the exact fallback applies as embedding filters
    /// inside each enumerated repair (non-free variables only — predicates
    /// on key-position variables are pushed into the restricted index and
    /// predicates on free variables filter whole result rows upstream, so
    /// the rewriting-backed operators never see a predicate here).
    pub exact_predicates: &'a [VarPredicate],
}

/// Executes a plan, returning one [`GroupRange`] per group in sorted
/// group-key order.
pub fn execute(plan: &Plan, cx: &ExecContext<'_>) -> Result<Vec<GroupRange>, CoreError> {
    let free = cx.prepared.normalised.body.free_vars();
    let keys = if free.is_empty() {
        // A closed query has one group, with or without an embedding.
        let mut keys = IdRows::new(0);
        keys.push([]);
        keys
    } else {
        group_ids(cx, free, None)
    };
    eval_groups(plan, cx, free, &keys, 0)
}

/// Executes a plan for **only** the groups whose key is in `keys`.
///
/// A listed key is a group iff it extends to an embedding. Two arms find
/// which do, chosen from the **exact** level-0 span lengths the sorted block
/// sequence gives in `O(log n)` per key (`Join::level0_span`): while the
/// keys' spans together hold fewer blocks than the one walk of full
/// discovery (`per_key_wins`), each key is pinned into the free-variable
/// slots and its existence probed — every level whose atom carries a bound
/// variable at a key position prunes its block walk through
/// [`crate::index::RelationIndex::blocks_matching`], so the cost is the keys'
/// own spans, independent of how many *other* groups exist. Otherwise —
/// nearly every group is requested, or the group key binds no level-0 key
/// position and every key's span is the whole relation — the full discovery
/// runs and its keys are filtered by the list. (Measured on `R(x|y) ⋈
/// S(y,z|r)` grouped by `x` under `x >= 'x9'`, one block per key, 1 111
/// groups at 10⁵ facts, one thread, whole call: per key against discovery
/// 0.14–0.15 / 0.40–0.44 ms at 50 keys, 0.60–0.70 / 0.73–0.83 at 330,
/// 1.04–1.18 / 1.10–1.26 at 600, 1.81–2.28 / 1.65–1.99 at all 1 111 — a
/// probe costs one seek more than its share of the walk.) The groups found
/// are then evaluated on the calling thread until `INLINE_WORK_FLOOR`
/// units of work are done, and on the workers after that.
///
/// The returned rows are byte-identical to the corresponding rows of
/// [`execute`]: a group's bounds are a function of its key, the body and the
/// index, and requested keys are emitted in the same sorted group-key value
/// order as a full run (keys with no embedding are absent, exactly as there).
pub fn execute_for_groups<'k>(
    plan: &Plan,
    cx: &ExecContext<'_>,
    keys: impl IntoIterator<Item = &'k Vec<Value>>,
) -> Result<Vec<GroupRange>, CoreError> {
    let free = cx.prepared.normalised.body.free_vars();
    if free.is_empty() {
        // A closed query has a single (empty-keyed) group; filtering does not
        // apply.
        return execute(plan, cx);
    }
    let interner = cx.index.interner();
    // Resolve the requested keys into id space. A key containing a value the
    // index has never seen can match no group (every group key is assembled
    // from fact values), so it simply drops out of the filter set.
    let mut only = IdTupleSet::new(free.len());
    let mut ids = Vec::with_capacity(free.len());
    for key in keys {
        if resolve_ids(interner, key, &mut ids) {
            only.insert(&ids);
        }
    }
    if only.len() == 0 {
        return Ok(Vec::new());
    }
    let keys = group_ids(cx, free, Some(&only));
    eval_groups(plan, cx, free, &keys, INLINE_WORK_FLOOR)
}

/// The `Join + PartitionByGroup` stages of a grouped query: the group keys —
/// every free-variable projection of an embedding of the open body, or
/// `only` those of the listed keys that have one — as id rows in group-key
/// value order (via [`rcqa_data::ValueInterner::cmp_id_tuples`], which makes
/// the order independent of both discovery order and the interner's id
/// layout).
///
/// Listed keys whose level-0 spans are small against the relation
/// ([`per_key_wins`]) are probed one by one on the calling thread. Otherwise
/// the level-0 blocks are cut into contiguous ranges, one discovery per
/// worker, and the keys found are merged, sorted and deduplicated.
fn group_ids(cx: &ExecContext<'_>, free: &[Var], only: Option<&IdTupleSet>) -> IdRows {
    let open = cx.prepared.compiled_open_levels();
    let free_slots = slots_of(open, free);
    let unbound = open.unbound_ids();
    let join = Join::new(open, cx.index);
    let bind = |initial: &mut [u32], key: &[u32]| {
        for (&slot, &id) in free_slots.iter().zip(key) {
            initial[slot] = id;
        }
    };
    let per_key = only.filter(|only| {
        let mut initial = unbound.clone();
        let spans = (0..only.len()).map(|k| {
            bind(&mut initial, only.tuple(k));
            join.level0_span(&initial)
        });
        per_key_wins(spans, join.level0_span(&unbound))
    });
    let shards = match per_key {
        Some(only) => {
            let mut existence = BoundEvaluator::existence(&join);
            let mut found = IdRows::new(free.len());
            let mut initial = unbound.clone();
            for k in 0..only.len() {
                bind(&mut initial, only.tuple(k));
                if existence.holds(0, &mut initial) {
                    found.push(only.tuple(k).iter().copied());
                }
            }
            vec![found]
        }
        None => {
            let mut blocks = Vec::new();
            join.level0_blocks(&unbound, &mut blocks);
            run_shards(shard(blocks, cx.options.resolve_threads()), |blocks| {
                let mut keys = GroupKeys::new(&join, &free_slots);
                keys.walk_blocks(&unbound, &blocks);
                keys.found
            })
        }
    };
    let mut keys = IdRows::new(free.len());
    for found in &shards {
        for k in 0..found.len() {
            let key = found.row(k);
            if only.is_none_or(|only| only.contains(key)) {
                keys.push(key.iter().copied());
            }
        }
    }
    let interner = cx.index.interner();
    keys.sorted_dedup(|a, b| interner.cmp_id_tuples(a, b))
}

/// Whether keys whose level-0 spans hold `spans` blocks are probed one by one
/// rather than found by one discovery over all `pass_blocks` level-0 blocks:
/// while the spans together hold fewer blocks than the pass walks. Stops
/// summing at the key that loses.
fn per_key_wins(spans: impl IntoIterator<Item = usize>, pass_blocks: usize) -> bool {
    let mut blocks = 0;
    spans.into_iter().all(|span| {
        blocks += span;
        blocks < pass_blocks
    })
}

/// The group keys of a grouped query over `index`, in sorted order: the
/// value-level boundary of `PartitionByGroup` for callers outside the
/// executor (the engine's candidate-group enumeration).
pub(crate) fn group_keys(cx: &ExecContext<'_>) -> Vec<Vec<Value>> {
    let keys = group_ids(cx, cx.prepared.normalised.body.free_vars(), None);
    let interner = cx.index.interner();
    (0..keys.len())
        .map(|g| interner.values_of(keys.row(g)))
        .collect()
}

/// Runs `work` over each shard — inline for a single shard, else one scoped
/// worker thread per shard — and returns the results in shard order. The
/// workspace's one spawn site: the sharded serving front-end fans a read out
/// over its shards through it as well. A worker's panic is raised again on
/// the calling thread with the worker's own payload.
pub fn run_shards<T: Send, R: Send>(shards: Vec<T>, work: impl Fn(T) -> R + Sync) -> Vec<R> {
    if shards.len() <= 1 {
        return shards.into_iter().map(work).collect();
    }
    let work = &work;
    std::thread::scope(|s| {
        let handles: Vec<_> = shards
            .into_iter()
            .map(|shard| s.spawn(move || work(shard)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    })
}

/// Below this much work — groups plus sub-problems evaluated (memo misses
/// below level 0, [`BoundEvaluator::evaluated`]), counted as the evaluation
/// goes, never estimated — the groups of [`execute_for_groups`] are evaluated
/// on the calling thread; what is left once it is reached is shared by the
/// workers. A scope of two workers costs 35–100 µs to spawn and join before
/// either does anything, and the workers share no memo. Measured on the
/// statement of [`execute_for_groups`]' docs, 2 workers, listed keys spread
/// over the 84 697 groups of `R(x|y) ⋈ S(y,z|r)` grouped by `x` at 10⁵ facts
/// (a listed group there is 3–4 units), always inline against always pooled:
/// 2 keys 8 against 51–58 µs, 16 keys 48–50 against 89–92 µs, 64 keys
/// 0.16–0.17 against 0.20–0.25 ms, 256 keys 0.69–0.72 against 0.72–1.01 ms;
/// from 1 024 keys up the pool reads 0–20 % faster (16 384 keys 41–43 against
/// 37–42 ms). The floor marks where the spawns stop costing.
pub(crate) const INLINE_WORK_FLOOR: usize = 4096;

/// The `ForallCheck + AggregateBound + RangeMerge` tail shared by [`execute`]
/// and [`execute_for_groups`]: evaluates the groups `keys` in order on the
/// calling thread until `inline` units of work ([`INLINE_WORK_FLOOR`]'s) are
/// done, then the rest over contiguous shards on the engine's workers,
/// concatenating the outputs in order. A full evaluation passes `0`.
///
/// A plan with a [`BoundOp::ExactEnumeration`] bound first collects every
/// group's block closure and checks it against the repair budget
/// ([`Closures::collect`], in group-key order on the calling thread): an
/// over-budget statement is refused, the same way at every worker count,
/// before the first repair of any group is built.
fn eval_groups(
    plan: &Plan,
    cx: &ExecContext<'_>,
    free: &[Var],
    keys: &IdRows,
    inline: usize,
) -> Result<Vec<GroupRange>, CoreError> {
    let enumerates = [plan.glb, plan.lub].contains(&Some(BoundOp::ExactEnumeration));
    let closures = enumerates
        .then(|| Closures::collect(cx, free, keys))
        .transpose()?;
    let closures = closures.as_ref();
    let groups = keys.len();
    let (mut out, done) = match inline {
        0 => (Vec::with_capacity(groups), 0),
        _ => eval_shard(plan, cx, free, keys, 0..groups, closures, inline)?,
    };
    let rest = shard((done..groups).collect(), cx.options.resolve_threads());
    let shard_results = run_shards(rest, |groups| {
        eval_shard(plan, cx, free, keys, groups, closures, usize::MAX)
    });
    for result in shard_results {
        out.extend(result?.0);
    }
    Ok(out)
}

/// What [`BoundOp::ExactEnumeration`] enumerates the repairs of, per group:
/// the group's **block closure** — every block holding a fact of one of the
/// group's embeddings.
///
/// An embedding that survives in a repair is an embedding of the instance, and
/// a repair keeps an embedding iff it picks the embedding's fact in each block
/// the embedding draws from. A group's value in a repair is therefore a
/// function of the repair's choices in the closure alone, and its bounds over
/// the repairs of the instance equal its bounds over the repairs of the
/// closure — **all** facts of every closure block, so that a repair can still
/// kill an embedding by picking a fact that joins nothing. The embeddings are
/// those of the (predicate-restricted) index the plan runs over: one a
/// pushed-down predicate rejects contributes to no repair's value.
struct Closures<'a> {
    /// Group `g` touches `blocks[starts[g]..starts[g + 1]]`.
    starts: Vec<usize>,
    blocks: Vec<(&'a RelationIndex, &'a IndexedBlock)>,
}

impl<'a> Closures<'a> {
    /// Collects every group's closure, by one enumeration of the open body
    /// pinned to the group's key, and decides the repair budget: a closure
    /// has the product of its block sizes many repairs (counted, no fact
    /// materialised), and the first group in group-key order over
    /// [`MAX_REPAIRS`] is the `Err`.
    fn collect(
        cx: &ExecContext<'a>,
        free: &[Var],
        keys: &IdRows,
    ) -> Result<Closures<'a>, CoreError> {
        let open = cx.prepared.compiled_open_levels();
        let free_slots = slots_of(open, free);
        let mut pinned = open.unbound_ids();
        let join = Join::new(open, cx.index);
        let (mut starts, mut blocks) = (vec![0], Vec::new());
        for g in 0..keys.len() {
            let start = blocks.len();
            let mut seen = HashSet::new();
            let mut repairs = 1u128;
            for (&slot, &id) in free_slots.iter().zip(keys.row(g)) {
                pinned[slot] = id;
            }
            // Once over budget the rest cannot matter: a closed query over a
            // large join is refused after the embeddings that prove it.
            join.for_each(&pinned, |theta| {
                if repairs <= MAX_REPAIRS {
                    join.blocks_of(theta, |rel, block| {
                        if seen.insert(Arc::as_ptr(&block.cols)) {
                            repairs = repairs.saturating_mul(block.cols.rows() as u128);
                            blocks.push((rel, block));
                        }
                    });
                }
            });
            if repairs > MAX_REPAIRS {
                let key = cx.index.interner().values_of(keys.row(g));
                let key: Vec<String> = key.iter().map(Value::to_string).collect();
                return Err(CoreError::FallbackUnavailable(format!(
                    "{}: {} blocks its embeddings touch have {repairs} repairs, more than the \
                     maximum {MAX_REPAIRS}",
                    if key.is_empty() {
                        "the closed query".to_string()
                    } else {
                        format!("group ({})", key.join(", "))
                    },
                    blocks.len() - start,
                )));
            }
            starts.push(blocks.len());
        }
        Ok(Closures { starts, blocks })
    }

    /// The exact bounds of group `g`, keyed `key`: the whole-instance
    /// reference [`exact_bounds_filtered`], run on the group-substituted closed
    /// query over the restriction of the instance to the group's closure (an
    /// instance of its own).
    fn enumerate(
        &self,
        g: usize,
        cx: &ExecContext<'_>,
        key: &[Value],
    ) -> Result<ExactBounds, CoreError> {
        let interner = cx.index.interner();
        let facts = self.blocks[self.starts[g]..self.starts[g + 1]]
            .iter()
            .flat_map(|&(rel, block)| {
                (0..block.cols.rows()).map(move |row| rel.materialize_fact(block, row, interner))
            })
            .collect();
        let mut restriction = cx.db.empty_like();
        restriction.load(facts)?;
        let closed = substitute_group(cx.prepared, key)?;
        exact_bounds_filtered(&closed, &restriction, MAX_REPAIRS, cx.exact_predicates)
    }
}

/// The slots of `vars` in a compiled body naming every one of them.
fn slots_of(compiled: &CompiledLevels, vars: &[Var]) -> Vec<usize> {
    let table = compiled.table();
    vars.iter()
        .map(|v| table.slot(v).expect("variable occurs in the body"))
        .collect()
}

/// Splits `items` into at most `shards` contiguous, size-balanced chunks.
fn shard<T>(items: Vec<T>, shards: usize) -> Vec<Vec<T>> {
    let n = items.len();
    let shards = shards.clamp(1, n.max(1));
    let base = n / shards;
    let extra = n % shards;
    let mut out: Vec<Vec<T>> = Vec::with_capacity(shards);
    let mut items = items.into_iter();
    for i in 0..shards {
        let len = base + usize::from(i < extra);
        out.push(items.by_ref().take(len).collect());
    }
    out
}

/// Runs ForallCheck + AggregateBound for one contiguous shard of groups,
/// sharing one memoised evaluator per bound across the shard — until
/// `floor` units of work (groups plus sub-problems evaluated) are done.
/// Returns the rows and how many of `groups` were evaluated.
fn eval_shard(
    plan: &Plan,
    cx: &ExecContext<'_>,
    free: &[Var],
    keys: &IdRows,
    groups: impl IntoIterator<Item = usize>,
    closures: Option<&Closures<'_>>,
    floor: usize,
) -> Result<(Vec<GroupRange>, usize), CoreError> {
    let interner = cx.index.interner();
    // Analysis implies an acyclic body, whose slot table names every body
    // variable — the free variables (for seeding per-group base bindings)
    // and the aggregated one included.
    let join = plan
        .needs_analysis()
        .then(|| Join::new(cx.prepared.body.compiled_levels(), cx.index));
    let evaluator = |op: Option<BoundOp>| {
        let (join, term) = (join.as_ref()?, &cx.prepared.normalised.term);
        match op? {
            BoundOp::Rewrite { combine, choice } => {
                Some(BoundEvaluator::rewriting(join, term, combine, choice))
            }
            BoundOp::Extremum { choice } => Some(BoundEvaluator::extremum(join, term, choice)),
            BoundOp::ExactEnumeration => None,
        }
    };
    let (mut glb, mut lub) = (evaluator(plan.glb), evaluator(plan.lub));
    let (free_slots, mut base) = match &join {
        Some(join) => (
            slots_of(join.compiled(), free),
            join.compiled().unbound_ids(),
        ),
        None => (Vec::new(), Vec::new()),
    };
    let mut level0 = Vec::new();
    let mut out = Vec::new();
    let mut done = 0;
    for g in groups {
        let work = |e: &Option<BoundEvaluator>| e.as_ref().map_or(0, BoundEvaluator::work);
        if done + work(&glb) + work(&lub) >= floor {
            break;
        }
        done += 1;
        let key_ids = keys.row(g);
        for (&slot, &id) in free_slots.iter().zip(key_ids) {
            base[slot] = id;
        }
        if let Some(join) = &join {
            join.level0_blocks(&base, &mut level0);
        }
        // The result boundary: the group key materialises here, for the
        // GroupRange row and (below) the exact fallback's substitution.
        let key = interner.values_of(key_ids);
        // One enumeration serves both bounds.
        let exact = closures
            .map(|closures| closures.enumerate(g, cx, &key))
            .transpose()?;
        let mut answer = |op, kind, evaluator: Option<&mut BoundEvaluator>| {
            let value = match op {
                BoundOp::ExactEnumeration => {
                    let bounds = exact.expect("the pre-pass collected the group's closure");
                    match kind {
                        BoundKind::Glb => bounds.glb,
                        BoundKind::Lub => bounds.lub,
                    }
                }
                BoundOp::Rewrite { .. } | BoundOp::Extremum { .. } => evaluator
                    .expect("a rewriting-backed operator has its evaluator")
                    .bound_ids(&mut base, &level0),
            };
            BoundAnswer {
                value,
                method: op.into(),
            }
        };
        let glb = plan.glb.map(|op| answer(op, BoundKind::Glb, glb.as_mut()));
        let lub = plan.lub.map(|op| answer(op, BoundKind::Lub, lub.as_mut()));
        // Residual predicates are invisible to group discovery, so the exact
        // enumeration may discover that a candidate group has no satisfying
        // embedding at all — such a group is not a possible answer and has
        // no row. (Closed queries keep their single row: a scalar query
        // honestly answers ⊥.)
        if !key.is_empty() && exact.is_some_and(|b| !b.satisfiable) {
            continue;
        }
        out.push(GroupRange { key, glb, lub });
    }
    Ok((out, done))
}

/// One key position of a [`SupportAtom`]'s block-key pattern.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SupportSlot {
    /// Any block key matches at this position.
    Any,
    /// Only this constant matches (the query pins the position).
    Const(Value),
    /// The `i`-th component (free-variable order) of the group key matches.
    Group(usize),
}

/// The block-key pattern of one body atom, instantiable per group row: which
/// blocks of [`SupportAtom::relation`] the row's evaluation may consult.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SupportAtom {
    /// The atom's relation.
    pub relation: String,
    /// One pattern slot per key position of the relation.
    pub key: Vec<SupportSlot>,
}

/// The **support set** of a statement's result rows, described intensionally:
/// instantiating the atom patterns with a row's group key over-approximates
/// every `(relation, block key)` pair that row's evaluation can touch — for
/// every plan, whichever operator computes its bounds.
///
/// Soundness: the executor probes blocks exclusively through
/// [`crate::index::RelationIndex::blocks_matching`] with patterns built by
/// `key_pattern_ids` — each atom's key positions with constants resolved and
/// bound slots filled in. During a group's evaluation (join, certainty,
/// ∀embedding filter) a free variable is always bound to the group key and
/// every other slot only *refines* the pattern, so each probed pattern is a
/// specialisation of the atom's base pattern with the group key substituted —
/// and matches only blocks the instantiated [`RowSupport`] covers; and
/// [`BoundOp::ExactEnumeration`] enumerates the repairs of the blocks the
/// group's embeddings draw facts from (its repair budget counts those blocks
/// too), each found by such a probe. Block restrictions (pushed-down
/// predicates) shrink the visible block set, which the over-approximation
/// soundly ignores. A row's value is therefore a function of the covered
/// blocks alone: a commit none of whose dirty blocks is covered cannot change
/// the row.
///
/// What the pattern is used for: it is **static** — one join too coarse to
/// localise a write on the probed side (`Any` wherever the group key does
/// not bind the atom's key), and a scan of every cached row to apply. A
/// stale read therefore does not intersect it with the delta; it derives the
/// affected groups from the dirty keys and the retracted facts
/// ([`crate::engine::RangeCqa::affected_keys`]). The pattern is the
/// certificate behind the sharded front-end's routes (which shards a row's
/// blocks can live on).
#[derive(Clone, Debug)]
pub struct RowSupport {
    atoms: Vec<SupportAtom>,
}

impl RowSupport {
    /// The support of the rows any plan produces for `prepared`.
    pub(crate) fn for_query(prepared: &PreparedAggQuery) -> RowSupport {
        let free = prepared.normalised.body.free_vars();
        let pattern = |t: &Term| match t {
            Term::Const(c) => SupportSlot::Const(c.clone()),
            Term::Var(v) => match free.iter().position(|f| f == v) {
                Some(i) => SupportSlot::Group(i),
                None => SupportSlot::Any,
            },
        };
        let atoms = prepared.open_levels().iter().map(|level| SupportAtom {
            relation: level.atom.relation().to_string(),
            key: level.atom.terms()[..level.key_len]
                .iter()
                .map(pattern)
                .collect(),
        });
        RowSupport {
            atoms: atoms.collect(),
        }
    }

    /// The per-atom block-key patterns.
    pub fn atoms(&self) -> &[SupportAtom] {
        &self.atoms
    }

    /// Whether the block `(relation, block_key)` supports the row with group
    /// key `row_key`: some atom pattern, instantiated with the row's key,
    /// matches the block. Kept only because the benchmark calls it.
    pub fn hits(&self, row_key: &[Value], relation: &str, block_key: &[Value]) -> bool {
        self.atoms.iter().any(|a| {
            a.relation == relation
                && a.key.len() == block_key.len()
                && a.key.iter().zip(block_key).all(|(slot, v)| match slot {
                    SupportSlot::Any => true,
                    SupportSlot::Const(c) => c == v,
                    SupportSlot::Group(i) => &row_key[*i] == v,
                })
        })
    }

    /// Merges the supports of several engines over one shared body: the
    /// identity, since a support depends on the body alone. Kept only because
    /// the benchmark calls it.
    pub fn merge(self, other: RowSupport) -> RowSupport {
        debug_assert_eq!(
            self.atoms, other.atoms,
            "supports merged across one statement share the body"
        );
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RangeCqa;
    use rcqa_data::{fact, NumericDomain, Schema, Signature};
    use rcqa_query::parse_agg_query;

    #[test]
    fn sharding_is_contiguous_and_balanced() {
        let items: Vec<usize> = (0..10).collect();
        let shards = shard(items.clone(), 4);
        assert_eq!(shards.len(), 4);
        assert_eq!(shards[0], vec![0, 1, 2]);
        assert_eq!(shards[1], vec![3, 4, 5]);
        assert_eq!(shards[2], vec![6, 7]);
        assert_eq!(shards[3], vec![8, 9]);
        // More shards than items: one item per shard, no empties.
        let shards = shard(vec![1, 2], 8);
        assert_eq!(shards, vec![vec![1], vec![2]]);
        // Empty input stays a single empty shard.
        let shards = shard(Vec::<usize>::new(), 3);
        assert_eq!(shards.len(), 1);
        assert!(shards[0].is_empty());
    }

    #[test]
    fn a_worker_panic_reaches_the_caller_with_its_message() {
        let payload = std::panic::catch_unwind(|| {
            run_shards(vec![0, 1], |i| {
                if i == 1 {
                    panic!("shard {i} failed")
                } else {
                    i
                }
            })
        })
        .unwrap_err();
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("shard 1 failed")
        );
    }

    #[test]
    fn keys_are_joined_one_by_one_while_their_spans_undercut_the_pass() {
        // One block per key: every key set but the whole relation.
        assert!(per_key_wins([1; 2], 20));
        assert!(per_key_wins([1; 19], 20));
        assert!(!per_key_wins([1; 20], 20));
        // A group key bound at no level-0 key position spans the relation:
        // one key is a pass already.
        assert!(!per_key_wins([20], 20));
        // Uneven spans count by their blocks, not by their keys.
        assert!(per_key_wins([12, 7], 20));
        assert!(!per_key_wins([12, 7, 1], 20));
        assert!(!per_key_wins([0], 0));
    }

    #[test]
    fn listed_groups_run_inline_below_the_floor() {
        // Twenty groups `x00 … x19`, group `i` joining `y{i % 5}`: the first
        // five each bring one new level-1 sub-problem per bound, the rest
        // none.
        let schema = Schema::new()
            .with_relation("R", Signature::new(2, 1, []).unwrap())
            .with_relation("S", Signature::new(3, 2, [2]).unwrap());
        let mut db = DatabaseInstance::new(schema);
        for i in 0..20 {
            db.insert(fact!("R", format!("x{i:02}"), format!("y{}", i % 5)))
                .unwrap();
        }
        for y in 0..5 {
            let y = format!("y{y}");
            db.insert_all([fact!("S", y.clone(), "z", 1), fact!("S", y, "z", 2)])
                .unwrap();
        }
        let engine = RangeCqa::new(
            &parse_agg_query("(x, MAX(r)) <- R(x, y), S(y, z, r)").unwrap(),
            db.schema(),
        )
        .unwrap();
        let plan = engine.plan(NumericDomain::NonNegative, true, true);
        let index = DbIndex::new(&db);
        let cx = ExecContext {
            prepared: engine.prepared(),
            db: &db,
            index: &index,
            options: &EngineOptions { threads: 4 },
            exact_predicates: &[],
        };
        let free = cx.prepared.normalised.body.free_vars();
        let keys = group_ids(&cx, free, None);
        assert_eq!(keys.len(), 20);
        let run = |floor| eval_shard(&plan, &cx, free, &keys, 0..20, None, floor).unwrap();
        let (all, done) = run(usize::MAX);
        assert_eq!(done, 20);
        // The work of a group is counted once it is done: group `x00` is one
        // unit plus `y0` under both bounds.
        for (floor, inline) in [(0, 0), (1, 1), (3, 1), (4, 2), (6, 2), (7, 3)] {
            assert_eq!(run(floor).1, inline, "floor {floor}");
        }
        // Wherever the cut falls, the pooled rest completes the same rows.
        for floor in [0, 1, 7, 16, usize::MAX] {
            assert_eq!(eval_groups(&plan, &cx, free, &keys, floor).unwrap(), all);
        }
    }
}
