//! The plan executor: runs a [`Plan`]'s pipeline over a shared [`DbIndex`],
//! sequentially or on a worker pool.
//!
//! ## What each stage computes
//!
//! Nothing between the index and the result row lists an embedding. The
//! executor answers a **statement**: one or more aggregates over one body,
//! one set of predicates and one group-variable list, each with its plan.
//! `Join` + `PartitionByGroup` find the **group keys** — the free-variable
//! projections of the open body's embeddings — once per statement, by
//! [`crate::forall`]'s group discovery: a key is reported once its
//! variables are bound and some extension exists, which the existence
//! component of the bound recursion decides, and a partial embedding is
//! explored once per projection onto what the deeper levels read. A
//! listed-groups call runs no discovery: existence is one more component of
//! each listed key's evaluation. Then, per group, `ForallCheck` +
//! `AggregateBound` evaluate **every** rewriting-backed bound of every
//! aggregate — rewritings, extrema, and the certainty the extrema are read
//! under — in one memoised level-by-level recursion of [`crate::glb`]
//! straight over the index: the ∀embedding condition gates whole blocks for
//! the components that ask for it, and each level's sub-problem is computed
//! once, for every component at once, per projection onto the variables it
//! reads, shared across every group that reaches it. The exact fallback is
//! the one stage that enumerates embeddings: one pinned join per group and
//! aggregate collects the blocks whose repairs it walks and, per embedding,
//! its rows in them and its aggregated value.
//!
//! ## Threading model
//!
//! The executor parallelises twice, both times over contiguous shards run on
//! a [`std::thread::scope`] worker pool (no external dependencies — the
//! workspace builds offline). Group discovery is sharded **by level-0 block
//! key**: each worker walks its range of blocks under memos of its own, and
//! the shards' key sets are merged and sorted. Then the sorted groups are
//! sharded again: each worker resolves the body once into a [`Join`] over
//! the shared read-only index and owns one memoised [`BoundEvaluator`] of
//! every component of the statement — sub-problems are reused across the
//! groups of one shard, and no locks are taken on the hot path. The final
//! `RangeMerge` concatenates the shard outputs in shard order. Groups are
//! sorted by key **value** (interned ids are compared through
//! [`rcqa_data::ValueInterner::cmp_id_tuples`], so the order is independent
//! of the id layout), a group's bounds do not depend on which memo entries
//! its worker had already filled, and shards are contiguous: the merged
//! answer is **byte-identical** to the sequential one at every thread count
//! — and to the answer of a cold rebuild whose interner assigned different
//! ids.
//!
//! ## Id discipline
//!
//! From the index to the result everything is interned `u32` ids (see
//! [`crate::index`]): a partial embedding is one slot vector, bound and
//! unbound in place; memo keys are id projections hashed and compared as raw
//! integers (id equality is value equality); a group key is a row of ids, and
//! the executor's output is [`IdRanges`] — the keys as id rows beside the
//! bounds. The only [`Value`] the executor makes is the one
//! [`rcqa_data::Rational`] a bound reads per leaf (the exact fallback per
//! embedding, whose repairs are choices of rows); a group key becomes values
//! only when a caller asks for [`crate::engine::GroupRange`] rows
//! ([`IdRanges::to_rows`]). A listed-groups call takes its keys as id rows
//! too, so a serving patch goes from the dirty log to its re-derived rows
//! without resolving or materialising a key. Nothing is allocated per
//! embedding.
//!
//! Worker count comes from
//! [`EngineOptions::threads`](crate::engine::EngineOptions::threads)
//! (explicit value > `RCQA_THREADS` env > available parallelism) and is
//! clamped to the number of shardable items, so a closed query runs inline.
//! A full evaluation ([`execute`]) always shards, whatever its size. The
//! groups a serving patch re-derives ([`execute_for_groups`]) are evaluated
//! on the calling thread up to `INLINE_WORK_FLOOR` units of work, and on the
//! workers past it.
//!
//! The executor only ever *borrows* the index ([`ExecContext::index`]), so a
//! caller may share one immutable index across any number of concurrent
//! executions: the serving layer (`rcqa-session`) freezes an `Arc<DbIndex>`
//! per snapshot and runs every client's plan — each with its own worker pool
//! — against the same copy. Snapshot indexes are themselves structurally
//! shared (per-relation and per-leaf `Arc`s, and one per block too large to
//! live in its leaf, see [`crate::index`]), so "the same copy" may
//! physically overlap the indexes of neighbouring snapshots; that sharing is
//! invisible here because published indexes — interior `Arc`s included — are
//! never mutated.

use crate::engine::{BoundAnswer, EngineOptions, IdRanges, MAX_REPAIRS};
use crate::error::CoreError;
use crate::forall::{CompiledLevels, GroupKeys, Join};
use crate::glb::{BoundEvaluator, Component};
use crate::ids::IdRows;
use crate::index::DbIndex;
use crate::plan::{BoundOp, Plan};
use crate::prepared::PreparedAggQuery;
use rcqa_data::{AggFunc, Rational, Value};
use rcqa_query::{AggTerm, Term, Var, VarPredicate};
use std::collections::HashMap;
use std::ops::Range;

/// Everything the executor needs besides the aggregates it answers.
#[derive(Clone, Copy)]
pub struct ExecContext<'a> {
    /// The prepared query whose body and group variables are walked: the
    /// statement's first aggregate's, whose body every aggregate shares.
    pub prepared: &'a PreparedAggQuery,
    /// The shared block index (built exactly once by the engine entry point).
    pub index: &'a DbIndex,
    /// Engine options (the worker count).
    pub options: &'a EngineOptions,
    /// The residual comparison predicates (non-free variables at no key
    /// position): the exact fallback's embedding filters. Every other
    /// predicate acts upstream, on whole blocks or on whole rows.
    pub residual: &'a [VarPredicate],
}

/// One aggregate of a statement as the executor answers it: its prepared
/// query — over the statement's one body — and its plan.
pub type Aggregate<'a> = (&'a PreparedAggQuery, Plan);

/// Executes the plans of a statement's aggregates, returning every group in
/// sorted group-key order, keys in id space, with each aggregate's bounds.
pub fn execute(aggregates: &[Aggregate<'_>], cx: &ExecContext<'_>) -> Result<IdRanges, CoreError> {
    let free = cx.prepared.normalised.body.free_vars();
    let keys = if free.is_empty() {
        // A closed query has one group, with or without an embedding.
        let mut keys = IdRows::new(0);
        keys.push([]);
        keys
    } else {
        group_ids(cx, free)
    };
    eval_groups(aggregates, cx, free, keys, false, 0)
}

/// Executes the plans of a statement's aggregates for **only** the groups
/// whose key is in `keys` — ids of the index's interner, in any order; a row
/// holding an id the interner never assigned matches no group.
///
/// A listed key is a group iff it extends to an embedding, which the walk
/// that evaluates its bounds decides as one more component of the recursion
/// ([`crate::glb::Component::existence`]): each key is pinned into the
/// free-variable slots and evaluated once, every level whose atom carries a
/// bound variable at a key position pruning its block walk through
/// [`crate::index::RelationIndex::blocks_matching`], so the cost is the keys'
/// own spans, independent of how many *other* groups exist, and no discovery
/// runs. The groups are evaluated on the calling thread until
/// `INLINE_WORK_FLOOR` units of work are done, and on the workers after that.
///
/// The returned groups are identical to the corresponding groups of
/// [`execute`]: a group's bounds are a function of its key, the body and the
/// index, and requested keys are emitted in the same sorted group-key value
/// order as a full run (keys with no embedding are absent, exactly as there).
pub fn execute_for_groups(
    aggregates: &[Aggregate<'_>],
    cx: &ExecContext<'_>,
    keys: &IdRows,
) -> Result<IdRanges, CoreError> {
    let free = cx.prepared.normalised.body.free_vars();
    if free.is_empty() {
        // A closed query has a single (empty-keyed) group; filtering does not
        // apply.
        return execute(aggregates, cx);
    }
    debug_assert_eq!(keys.width(), free.len(), "a key per group variable");
    let interner = cx.index.interner();
    let mut listed = IdRows::new(free.len());
    for key in keys.iter() {
        if key.iter().all(|&id| interner.contains_id(id)) {
            listed.push(key.iter().copied());
        }
    }
    let listed = listed.sorted_dedup(|a, b| interner.cmp_id_tuples(a, b));
    eval_groups(aggregates, cx, free, listed, true, INLINE_WORK_FLOOR)
}

/// The `Join + PartitionByGroup` stages of a grouped query: the group keys —
/// every free-variable projection of an embedding of the open body — as id
/// rows in group-key value order (via
/// [`rcqa_data::ValueInterner::cmp_id_tuples`], which makes the order
/// independent of both discovery order and the interner's id layout).
///
/// The level-0 blocks are cut into contiguous ranges, one discovery per
/// worker, and the keys found are merged, sorted and deduplicated.
fn group_ids(cx: &ExecContext<'_>, free: &[Var]) -> IdRows {
    let open = cx.prepared.compiled_open_levels();
    let free_slots = slots_of(open, free);
    let unbound = open.unbound_ids();
    let join = Join::new(open, cx.index);
    let mut blocks = Vec::new();
    join.level0_blocks(&unbound, &mut blocks);
    let shards = run_shards(shard(blocks, cx.options.resolve_threads()), |blocks| {
        let mut keys = GroupKeys::new(&join, &free_slots);
        keys.walk_blocks(&unbound, &blocks);
        keys.found
    });
    let mut keys = IdRows::new(free.len());
    for found in &shards {
        for k in 0..found.len() {
            keys.push(found.row(k).iter().copied());
        }
    }
    let interner = cx.index.interner();
    keys.sorted_dedup(|a, b| interner.cmp_id_tuples(a, b))
}

/// The group keys of a grouped query over `index`, in sorted order: the
/// value-level boundary of `PartitionByGroup` for callers outside the
/// executor (the engine's candidate-group enumeration).
pub(crate) fn group_keys(cx: &ExecContext<'_>) -> Vec<Vec<Value>> {
    let keys = group_ids(cx, cx.prepared.normalised.body.free_vars());
    let interner = cx.index.interner();
    (0..keys.len())
        .map(|g| interner.values_of(keys.row(g)))
        .collect()
}

/// Runs `work` over each shard of a query's work — inline for a single
/// shard, else one scoped worker thread per shard — and returns the results
/// in shard order. The workspace's one spawn site. A worker's panic is
/// raised again on the calling thread with the worker's own payload.
pub(crate) fn run_shards<T: Send, R: Send>(shards: Vec<T>, work: impl Fn(T) -> R + Sync) -> Vec<R> {
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
/// below level 0, [`crate::glb::BoundEvaluator::evaluated`]; one sub-problem
/// computes every bound of the statement), counted as the evaluation goes,
/// never estimated — the groups of [`execute_for_groups`] are evaluated on
/// the calling thread; what is left once it is reached is shared by the
/// workers. A scope of two workers costs 35–100 µs to spawn and join before
/// either does anything, and the workers share no memo. Measured on
/// `(x, MAX(r)) <- R(x, y), S(y, z, r)`, 2 workers, 10⁵ facts (a listed
/// group there is about 2 units: itself and its one level-1 sub-problem,
/// shared by both bounds), always inline against always pooled, medians of
/// 25 calls in each of three runs:
///
/// | listed keys | spread over the 84 697 groups | the x's of the 77 hottest y's |
/// |---|---|---|
/// | 2 | 9–10 against 48–66 µs | 10–18 against 48–67 µs |
/// | 16 | 38–44 against 68–82 µs | 35–48 against 72–91 µs |
/// | 64 | 0.12–0.13 against 0.14–0.17 ms | 0.08–0.09 against 0.12 ms |
/// | 256 | 0.36–0.40 against 0.36–0.38 ms | 0.31 against 0.32–0.38 ms |
/// | 1 024 | 1.68–2.14 against 1.52–1.78 ms | 1.40–1.48 against 1.28–1.48 ms |
/// | 16 384 | 18.0–20.6 against 16.9–18.0 ms | 12.4–13.8 against 11.5–12.8 ms |
///
/// Keys spread over the groups share no sub-problem, and pooling them breaks
/// even near 256 keys; a patch's keys share the hot join values behind them,
/// which each worker evaluates again, and pooling those breaks even near
/// 1 024 keys. The floor keeps a patch inline up to there: 2 048 units.
pub(crate) const INLINE_WORK_FLOOR: usize = 2048;

/// Where one bound of one aggregate comes from.
#[derive(Clone, Copy, Debug)]
enum Source {
    /// A rewriting component's value.
    Rewrite(usize),
    /// An extremum component's value, a bound only of a certain group.
    Extremum(usize),
    /// The group's exact walk ([`Closures::walk`]).
    Exact,
}

/// Every rewriting-backed bound of a statement's aggregates as components
/// of one recursion ([`crate::glb`]): the components in evaluation order,
/// and where each aggregate's `(glb, lub)` reads its value.
struct Components {
    components: Vec<Component>,
    /// Per aggregate, the source of each requested bound.
    sources: Vec<[Option<(BoundOp, Source)>; 2]>,
    /// The component whose value says the group is certain, when some bound
    /// is an extremum.
    certainty: Option<usize>,
    /// The component whose value says the group has an embedding, when the
    /// groups are listed rather than discovered and some bound is evaluated
    /// by the recursion.
    existence: Option<usize>,
}

impl Components {
    fn new(aggregates: &[Aggregate<'_>], listed: bool) -> Components {
        let mut components = Vec::new();
        let mut push = |component| {
            components.push(component);
            components.len() - 1
        };
        let mut sources = Vec::with_capacity(aggregates.len());
        for (prepared, plan) in aggregates {
            let term = &prepared.normalised.term;
            let mut source = |op: Option<BoundOp>| {
                op.map(|op| match op {
                    BoundOp::Rewrite { combine, choice } => (
                        op,
                        Source::Rewrite(push(Component::rewriting(term, combine, choice))),
                    ),
                    BoundOp::Extremum { choice } => (
                        op,
                        Source::Extremum(push(Component::extremum(term, choice))),
                    ),
                    BoundOp::ExactEnumeration => (op, Source::Exact),
                })
            };
            sources.push([source(plan.glb), source(plan.lub)]);
        }
        // A ∀-gated component has a value exactly when the group's body is
        // certain, an ungated one exactly when the group has an embedding
        // (the `glb` module docs): certainty and existence are read off such
        // a component when the statement has one, and are components of
        // their own only when it has none.
        let bounds = || {
            sources
                .iter()
                .flatten()
                .flatten()
                .map(|&(_, source)| source)
        };
        let rewriting = bounds().find_map(|source| match source {
            Source::Rewrite(c) => Some(c),
            _ => None,
        });
        let extremum = bounds().find_map(|source| match source {
            Source::Extremum(c) => Some(c),
            _ => None,
        });
        let recursive = rewriting.or(extremum).is_some();
        let certainty = extremum.map(|_| rewriting.unwrap_or_else(|| push(Component::certainty())));
        let existence =
            (listed && recursive).then(|| extremum.unwrap_or_else(|| push(Component::existence())));
        Components {
            components,
            sources,
            certainty,
            existence,
        }
    }
}

/// The `ForallCheck + AggregateBound + RangeMerge` tail shared by [`execute`]
/// and [`execute_for_groups`]: evaluates the groups `keys` in order on the
/// calling thread until `inline` units of work ([`INLINE_WORK_FLOOR`]'s) are
/// done, then the rest over contiguous shards on the engine's workers,
/// concatenating the outputs in order. A full evaluation passes `0`. Listed
/// groups (`listed`) are kept only where they have an embedding; discovered
/// ones have one. The keys go out as they came in, less the groups that
/// turned out to have no row.
///
/// An aggregate with a [`BoundOp::ExactEnumeration`] bound first collects
/// every group's block closure and embeddings and checks the closure against
/// the repair budget ([`Closures::collect`], in group-key order on the
/// calling thread): an over-budget statement is refused, the same way at
/// every worker count, before the first repair of any group is walked.
fn eval_groups(
    aggregates: &[Aggregate<'_>],
    cx: &ExecContext<'_>,
    free: &[Var],
    keys: IdRows,
    listed: bool,
    inline: usize,
) -> Result<IdRanges, CoreError> {
    let closures = (aggregates.iter())
        .map(|&(prepared, plan)| {
            let enumerates = [plan.glb, plan.lub].contains(&Some(BoundOp::ExactEnumeration));
            (enumerates)
                .then(|| Closures::collect(cx, prepared, free, &keys))
                .transpose()
        })
        .collect::<Result<Vec<_>, _>>()?;
    let components = Components::new(aggregates, listed);
    let run = |groups, floor| {
        let closures = &closures;
        eval_shard(
            aggregates,
            &components,
            cx,
            free,
            &keys,
            groups,
            closures,
            floor,
        )
    };
    let groups = keys.len();
    let (mut out, done) = match inline {
        0 => (Shard::default(), 0),
        _ => run(0..groups, inline),
    };
    let rest = shard((done..groups).collect(), cx.options.resolve_threads());
    let rest = rest.into_iter().map(|groups: Vec<usize>| match groups[..] {
        [first, ..] => first..first + groups.len(),
        [] => 0..0,
    });
    for shard in run_shards(rest.collect(), |groups| run(groups, usize::MAX).0) {
        out.groups.extend(shard.groups);
        out.bounds.extend(shard.bounds);
    }
    let keys = if out.groups.len() == groups {
        keys
    } else {
        let mut kept = IdRows::new(keys.width());
        for &g in &out.groups {
            kept.push(keys.row(g).iter().copied());
        }
        kept
    };
    Ok(IdRanges::new(keys, aggregates.len(), out.bounds))
}

/// What [`BoundOp::ExactEnumeration`] walks the repairs of, per group: the
/// group's **block closure** — every block holding a fact of one of the
/// group's embeddings — and the embeddings that pass the residual predicates.
///
/// An embedding that survives in a repair is an embedding of the instance, and
/// a repair keeps an embedding iff it picks the embedding's fact in each block
/// the embedding draws from. A group's value in a repair is therefore a
/// function of the repair's choices in the closure alone, and its bounds over
/// the repairs of the instance equal its bounds over the choices in the
/// closure — among **all** facts of every closure block, so that a repair can
/// still kill an embedding by picking a fact that joins nothing. The
/// embeddings are those of the (predicate-restricted) index the plan runs
/// over: one a pushed-down predicate rejects contributes to no repair's value.
struct Closures {
    /// Group `g`'s closure blocks hold `sizes[starts[g].0..starts[g + 1].0]`
    /// facts, and its embeddings are `starts[g].1..starts[g + 1].1`.
    starts: Vec<(usize, usize)>,
    sizes: Vec<usize>,
    /// Embedding `e`'s aggregated value, and its fact at each of the `levels`
    /// levels as (block of its group's closure, row):
    /// `facts[e * levels..(e + 1) * levels]`.
    values: Vec<Rational>,
    facts: Vec<(usize, usize)>,
    levels: usize,
}

impl Closures {
    /// Collects every group's closure and embeddings, by one enumeration of
    /// the open body pinned to the group's key, and decides the repair
    /// budget: a closure has the product of its block sizes many repairs
    /// (counted over the blocks of every embedding, no fact materialised),
    /// and the first group in group-key order over [`MAX_REPAIRS`] is the
    /// `Err`.
    fn collect(
        cx: &ExecContext<'_>,
        prepared: &PreparedAggQuery,
        free: &[Var],
        keys: &IdRows,
    ) -> Result<Closures, CoreError> {
        let open = prepared.compiled_open_levels();
        let interner = cx.index.interner();
        let slot = |v: &Var| slots_of(open, std::slice::from_ref(v))[0];
        let (free_slots, mut pinned) = (slots_of(open, free), open.unbound_ids());
        let term = match &prepared.normalised.term {
            AggTerm::Const(c) => Ok(*c),
            AggTerm::Var(v) => Err(slot(v)),
        };
        let residual: Vec<_> = (cx.residual.iter())
            .map(|p| (slot(&p.var), p, interner.prefix_rank(&p.value)))
            .collect();
        let join = Join::new(open, cx.index);
        let mut out = Closures {
            starts: vec![(0, 0)],
            sizes: Vec::new(),
            values: Vec::new(),
            facts: Vec::new(),
            levels: open.len(),
        };
        let mut seen = HashMap::new();
        for g in 0..keys.len() {
            seen.clear();
            let mut repairs = 1u128;
            for (&slot, &id) in free_slots.iter().zip(keys.row(g)) {
                pinned[slot] = id;
            }
            // Once over budget the rest cannot matter: a closed query over a
            // large join is refused after the embeddings that prove it.
            join.for_each(&pinned, |theta| {
                if repairs > MAX_REPAIRS {
                    return;
                }
                let passes = residual.iter().all(|&(slot, p, rank)| {
                    p.op.holds(interner.cmp_id_to_value(theta[slot], &p.value, rank))
                });
                join.blocks_of(theta, |at, block, row| {
                    let next = seen.len();
                    let local = *seen.entry(at).or_insert_with(|| {
                        repairs = repairs.saturating_mul(block.cols.rows() as u128);
                        out.sizes.push(block.cols.rows());
                        next
                    });
                    if passes {
                        out.facts.push((local, row));
                    }
                });
                if passes {
                    out.values.push(term.unwrap_or_else(|slot| {
                        (interner.value(theta[slot]).as_num())
                            .expect("the aggregated variable is bound to a number")
                    }));
                }
            });
            if repairs > MAX_REPAIRS {
                let key = interner.values_of(keys.row(g));
                let key: Vec<String> = key.iter().map(Value::to_string).collect();
                return Err(CoreError::FallbackUnavailable(format!(
                    "{}: {} blocks its embeddings touch have {repairs} repairs, more than the \
                     maximum {MAX_REPAIRS}",
                    if key.is_empty() {
                        "the closed query".to_string()
                    } else {
                        format!("group ({})", key.join(", "))
                    },
                    seen.len(),
                )));
            }
            out.starts.push((out.sizes.len(), out.values.len()));
        }
        Ok(out)
    }

    /// Whether some embedding of group `g` passes the residual predicates.
    fn has_rows(&self, g: usize) -> bool {
        self.starts[g].1 < self.starts[g + 1].1
    }

    /// The exact `(glb, lub)` of group `g` under `agg`, or `None` when no
    /// embedding of it passes the residual predicates: one mixed-radix walk
    /// over the choices of its closure blocks, aggregating in each repair the
    /// embeddings whose facts it picks. The first repair that keeps none makes
    /// both bounds `⊥`. The walk allocates nothing per repair (the DISTINCT
    /// aggregates' `apply` does).
    fn walk(&self, g: usize, agg: AggFunc) -> Option<(Option<Rational>, Option<Rational>)> {
        let ((blocks, start), (blocks_end, end)) = (self.starts[g], self.starts[g + 1]);
        if start == end {
            return None;
        }
        let facts = &self.facts[start * self.levels..end * self.levels];
        let (values, sizes) = (&self.values[start..end], &self.sizes[blocks..blocks_end]);
        let (mut choice, mut kept) = (vec![0; sizes.len()], Vec::with_capacity(values.len()));
        let (mut glb, mut lub) = (None, None);
        loop {
            kept.clear();
            for (e, &value) in values.iter().enumerate() {
                let facts = &facts[e * self.levels..(e + 1) * self.levels];
                if facts.iter().all(|&(block, row)| choice[block] == row) {
                    kept.push(value);
                }
            }
            let Some(value) = agg.apply(&kept) else {
                return Some((None, None));
            };
            glb = Some(glb.map_or(value, |g: Rational| g.min(value)));
            lub = Some(lub.map_or(value, |l: Rational| l.max(value)));
            // The next repair: the lowest block with a choice left takes it,
            // and every block below it starts over.
            let Some(next) = choice.iter().zip(sizes).position(|(&c, &n)| c + 1 < n) else {
                return Some((glb, lub));
            };
            choice[..next].fill(0);
            choice[next] += 1;
        }
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

/// One bound pair of one aggregate of one group.
type Pair = (Option<BoundAnswer>, Option<BoundAnswer>);

/// The rows one shard evaluated: the indices of its groups that have a row,
/// among the executor's keys, and their bounds, one pair per aggregate.
#[derive(Default)]
struct Shard {
    groups: Vec<usize>,
    bounds: Vec<Pair>,
}

/// Runs ForallCheck + AggregateBound for one contiguous shard of groups,
/// sharing one memoised evaluator of every component across the shard —
/// until `floor` units of work (groups plus sub-problems evaluated) are done.
/// Returns the rows and how many of `groups` were evaluated.
#[allow(clippy::too_many_arguments)]
fn eval_shard(
    aggregates: &[Aggregate<'_>],
    components: &Components,
    cx: &ExecContext<'_>,
    free: &[Var],
    keys: &IdRows,
    groups: Range<usize>,
    closures: &[Option<Closures>],
    floor: usize,
) -> (Shard, usize) {
    // Analysis implies an acyclic body, whose slot table names every body
    // variable — the free variables (for seeding per-group base bindings)
    // and the aggregated ones included.
    let join = (!components.components.is_empty())
        .then(|| Join::new(cx.prepared.body.compiled_levels(), cx.index));
    let mut evaluator =
        (join.as_ref()).map(|join| BoundEvaluator::new(join, &components.components));
    let (free_slots, mut base) = match &join {
        Some(join) => (
            slots_of(join.compiled(), free),
            join.compiled().unbound_ids(),
        ),
        None => (Vec::new(), Vec::new()),
    };
    let mut level0 = Vec::new();
    let mut out = Shard::default();
    let mut done = 0;
    for g in groups {
        if done + evaluator.as_ref().map_or(0, BoundEvaluator::work) >= floor {
            break;
        }
        done += 1;
        let key_ids = keys.row(g);
        // Residual predicates are invisible to group discovery, so the exact
        // walk may find that a candidate group has no satisfying embedding at
        // all — such a group is not a possible answer and has no row; nor has
        // a listed key without an embedding. (Closed queries keep their
        // single row: a scalar query honestly answers ⊥.)
        let open = !key_ids.is_empty();
        if open && closures.iter().flatten().any(|c| !c.has_rows(g)) {
            continue;
        }
        let values = match (&join, &mut evaluator) {
            (Some(join), Some(evaluator)) => {
                for (&slot, &id) in free_slots.iter().zip(key_ids) {
                    base[slot] = id;
                }
                join.level0_blocks(&base, &mut level0);
                evaluator.bounds_ids(&mut base, &level0)
            }
            _ => &[],
        };
        if open && components.existence.is_some_and(|e| values[e].is_none()) {
            continue;
        }
        let certain = components.certainty.is_some_and(|c| values[c].is_some());
        for ((prepared, _), (sources, closures)) in aggregates
            .iter()
            .zip(components.sources.iter().zip(closures))
        {
            let exact = closures
                .as_ref()
                .and_then(|closures| closures.walk(g, prepared.normalised.agg))
                .unwrap_or_default();
            let answer = |bound: Option<(BoundOp, Source)>, exact: Option<Rational>| {
                bound.map(|(op, source)| BoundAnswer {
                    value: match source {
                        Source::Rewrite(c) => values[c],
                        Source::Extremum(c) => values[c].filter(|_| certain),
                        Source::Exact => exact,
                    },
                    method: op.into(),
                })
            };
            out.bounds
                .push((answer(sources[0], exact.0), answer(sources[1], exact.1)));
        }
        out.groups.push(g);
    }
    (out, done)
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
/// ([`crate::engine::RangeCqa::affected_keys`]). Its one reader classifies
/// read footprints — whether a row's blocks sit in one shard, one shard per
/// group, or several — for the sharded session's counters; no read is
/// routed by it: every read runs over the one index.
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
    use rcqa_data::{fact, DatabaseInstance, NumericDomain, Schema, Signature};
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
    fn a_closure_records_each_block_once() {
        // Group `x0` has two embeddings, both through the one-row `R` block
        // `x0` and the two-row `S` block `(y0, z0)`: its closure is those two
        // blocks, 1 · 2 = 2 repairs, not one block per embedding and level
        // (4 repairs). Both blocks sit at position 0 of their block lists,
        // so a block is named by its relation as well as its position.
        let schema = Schema::new()
            .with_relation("R", Signature::new(2, 1, []).unwrap())
            .with_relation("S", Signature::new(3, 2, [2]).unwrap());
        let mut db = DatabaseInstance::new(schema);
        db.insert_all([
            fact!("R", "x0", "y0"),
            fact!("S", "y0", "z0", 1),
            fact!("S", "y0", "z0", 2),
        ])
        .unwrap();
        let engine = RangeCqa::new(
            &parse_agg_query("(x, SUM(r)) <- R(x, y), S(y, z, r)").unwrap(),
            db.schema(),
        )
        .unwrap();
        let index = DbIndex::new(&db);
        let cx = ExecContext {
            prepared: engine.prepared(),
            index: &index,
            options: &EngineOptions { threads: 1 },
            residual: &[],
        };
        let free = cx.prepared.normalised.body.free_vars();
        let keys = group_ids(&cx, free);
        assert_eq!(keys.len(), 1);
        let closures = Closures::collect(&cx, cx.prepared, free, &keys).unwrap();
        assert_eq!(closures.sizes, [1, 2]);
        assert_eq!(closures.starts, [(0, 0), (2, 2)]);
        // Each embedding picks the `R` row and its own `S` row.
        assert_eq!(closures.facts, [(0, 0), (1, 0), (0, 0), (1, 1)]);
        let (glb, lub) = closures.walk(0, AggFunc::Sum).unwrap();
        assert_eq!(
            (glb, lub),
            (Some(Rational::from(1)), Some(Rational::from(2)))
        );
    }

    #[test]
    fn listed_groups_run_inline_below_the_floor() {
        // Twenty groups `x00 … x19`, group `i` joining `y{i % 5}`: the first
        // five each bring one new level-1 sub-problem — one for every bound,
        // certainty and existence together — the rest none.
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
        let aggregates = [(
            engine.prepared(),
            engine.plan(NumericDomain::NonNegative, true, true),
        )];
        let index = DbIndex::new(&db);
        let cx = ExecContext {
            prepared: engine.prepared(),
            index: &index,
            options: &EngineOptions { threads: 4 },
            residual: &[],
        };
        let free = cx.prepared.normalised.body.free_vars();
        let keys = group_ids(&cx, free);
        assert_eq!(keys.len(), 20);
        let components = Components::new(&aggregates, true);
        let run = |floor| {
            eval_shard(
                &aggregates,
                &components,
                &cx,
                free,
                &keys,
                0..20,
                &[None],
                floor,
            )
        };
        let (all, done) = run(usize::MAX);
        assert_eq!((done, all.groups.len()), (20, 20));
        // The work of a group is counted once it is done: group `x00` is one
        // unit plus `y0`, once for every bound.
        for (floor, inline) in [(0, 0), (1, 1), (2, 1), (3, 2), (4, 2), (5, 3)] {
            assert_eq!(run(floor).1, inline, "floor {floor}");
        }
        // Wherever the cut falls, the pooled rest completes the same rows.
        let all = IdRanges::new(keys.clone(), 1, all.bounds);
        for floor in [0, 1, 5, 16, usize::MAX] {
            let got = eval_groups(&aggregates, &cx, free, keys.clone(), true, floor).unwrap();
            assert_eq!(got, all);
        }
    }
}
