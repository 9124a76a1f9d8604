//! The plan executor: runs a [`Plan`]'s pipeline over a shared [`DbIndex`],
//! sequentially or on a block-sharded worker pool.
//!
//! ## Threading model
//!
//! The executor parallelises twice, both times over contiguous shards run on
//! a [`std::thread::scope`] worker pool (no external dependencies — the
//! workspace builds offline). The join pass is sharded **by level-0 block
//! key**: each worker joins and buckets its range of blocks, and the shard
//! outputs are merged in shard order. Then, at the `PartitionByGroup`
//! boundary, the sorted groups are sharded again: each worker owns a
//! **per-worker memoised [`CertaintyChecker`]** over the shared read-only
//! index — certainty sub-problems are reused across the groups of one shard,
//! and no locks are taken on the hot path. The final `RangeMerge`
//! concatenates the shard outputs in shard order;
//! because the partition step emits groups in sorted group-key **value**
//! order (interned ids are compared through
//! [`ValueInterner::cmp_id_tuples`], so the order is independent of the id
//! layout), lists each group's embeddings in enumeration order, and shards
//! are contiguous, the merged answer is **byte-identical** to the sequential
//! one at every thread count — and to the answer of a cold rebuild whose
//! interner assigned different ids.
//!
//! ## Id discipline
//!
//! From the join to the [`GroupRange`] row everything is interned `u32` ids
//! (see [`crate::index`]). The join core writes each embedding straight into
//! a flat arena, one fixed-width row over the closed body's slot table; a
//! group is a row of key ids plus a list of arena row indices (`Partition`);
//! group keys are hashed and compared as raw integers (id equality is value
//! equality); the ∀embedding filter maps row indices to row indices; and the
//! bound computations of [`crate::glb`] group those rows by id equality.
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
//! groups a serving patch re-derives ([`execute_for_groups`]) are joined and
//! evaluated on the calling thread until they have proved to be enough work
//! to repay the spawns (`INLINE_WORK_FLOOR`, in groups plus embeddings as
//! counted, not estimated). Which of the two a run took never shows in its
//! answer.
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
use crate::forall::{for_each_embedding, forall_check, CertaintyChecker, CompiledLevels, Join};
use crate::glb::{global_extremum, optimal_aggregate, Choice, Leaves};
use crate::ids::{resolve_ids, IdRows, IdTupleSet};
use crate::index::{DbIndex, IndexedBlock, RelationIndex};
use crate::plan::{BoundOp, Plan};
use crate::prepared::PreparedAggQuery;
use crate::rewrite::BoundKind;
use rcqa_data::{DatabaseInstance, Value, ValueInterner};
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
    // Scan + Join + PartitionByGroup: one compilation of the closed body, one
    // join pass over the shared index (sharded by level-0 block key when
    // parallel), embeddings partitioned by group key.
    let compiled = CompiledLevels::new(cx.prepared.body.levels());
    let free = cx.prepared.normalised.body.free_vars();
    let partition = if free.is_empty() {
        let mut embeddings = IdRows::new(compiled.table().len());
        if plan.needs_analysis() {
            let initial = compiled.unbound_ids();
            for_each_embedding(&compiled, cx.index, &initial, |theta| {
                embeddings.push(theta.iter().copied())
            });
        }
        Partition::single_group(embeddings)
    } else {
        partition_groups(cx, &compiled, free, plan.keep_embeddings(), None)
    };
    let workers = cx.options.resolve_threads();
    eval_groups(plan, cx, &compiled, free, &partition, workers)
}

/// Below this much work — groups plus embeddings, counted as the join
/// produces them, never estimated — [`execute_for_groups`] stays on the
/// calling thread. A scope of two workers costs 35–100 µs to spawn and join
/// before either does anything, the workers share no certainty memo, and a
/// unit of work is a fraction of a microsecond. Measured on the statement of
/// [`execute_for_groups`]' docs, 2 workers, inline below the floor against
/// always pooled: 2 keys (9 units) 51–61 against 240–300 µs, 50 keys (0.7 k)
/// 0.29–0.38 against 0.51–0.69 ms, 255 keys (2.8 k) 1.10–1.23 against 1.46,
/// 330 keys (3.6 k) 1.31–1.49 against 1.48–1.67; from 410 keys (5.0 k units)
/// up the two read alike. The floor marks where the spawns stop costing, not
/// where two workers start to win — that depends on how much certainty work
/// the groups share; above the floor a listed-groups call shards like a full
/// evaluation.
pub(crate) const INLINE_WORK_FLOOR: usize = 4096;

/// Executes a plan for **only** the groups whose key is in `keys`.
///
/// Two arms, chosen from the **exact** level-0 span lengths the sorted block
/// sequence gives in `O(log n)` per key (`Join::level0_span`): the keys are
/// joined one by one while their spans together hold fewer blocks than the
/// one walk of a filtered pass (`per_key_wins`). *Per key*: the open body
/// is enumerated once per key with the free-variable slots
/// pre-bound to that key's ids — every level whose atom carries a bound
/// variable at a key position prunes its block walk through
/// [`crate::index::RelationIndex::blocks_matching`], every other level
/// rejects mismatching rows during the match — so the cost is the keys' own
/// spans and embeddings, independent of how many *other* groups exist. *One
/// filtered pass*: the same sharded join as [`execute`] with the key set as a
/// predicate on each embedding as it is bucketed, so only the requested
/// groups' rows are ever written; it is chosen when the keys' spans cover the
/// level-0 walk anyway — nearly every group is requested, or the group key
/// binds no level-0 key position and every key's span is the whole relation.
/// (Measured on `R(x|y) ⋈ S(y,z|r)` grouped by `x`, one block per key, 1 111
/// groups, inline: per key against pass 0.27 / 0.91 ms at 50 keys, 1.20 / 1.60
/// at 330, 2.17 / 2.49 at 600, 4.02 / 3.83 at all 1 111 — a pinned join costs
/// one seek more than its share of a pass, a pass pays for every group's
/// embeddings.) Terms are resolved and the body compiled once per call,
/// whichever arm runs, and no worker is spawned — for the per-key join or
/// for the group tail — before `INLINE_WORK_FLOOR` units of work exist.
///
/// The returned rows are byte-identical to the corresponding rows of
/// [`execute`]: either way each requested group sees exactly its bucket of
/// the full run — a pinned enumeration explores the full enumeration's
/// recursion tree minus the branches that bind a free variable elsewhere, a
/// filtered one drops the other groups' embeddings on arrival — in the same
/// order, and requested keys are emitted in the same sorted group-key value
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
    let compiled = CompiledLevels::new(cx.prepared.body.levels());
    let partition = partition_groups(cx, &compiled, free, plan.keep_embeddings(), Some(&only));
    let workers = workers_for(cx.options, partition.keys.len() + partition.rows.len());
    eval_groups(plan, cx, &compiled, free, &partition, workers)
}

/// The output of `Scan + Join + PartitionByGroup`, in id space.
struct Partition {
    /// Every kept embedding, one row over the closed body's slot table.
    embeddings: IdRows,
    /// One row of key ids per group, in group-key value order.
    keys: IdRows,
    /// Group `g`'s embeddings are `rows[starts[g]..starts[g + 1]]`: indices
    /// into `embeddings`, in enumeration order.
    starts: Vec<u32>,
    rows: Vec<u32>,
}

impl Partition {
    /// The partition of a closed query: one empty-keyed group holding every
    /// embedding (possibly none — the group exists regardless).
    fn single_group(embeddings: IdRows) -> Partition {
        let n = u32::try_from(embeddings.len()).expect("embedding count fits u32");
        let mut keys = IdRows::new(0);
        keys.push([]);
        Partition {
            embeddings,
            keys,
            starts: vec![0, n],
            rows: (0..n).collect(),
        }
    }

    /// The embeddings of group `g`.
    fn rows_of(&self, g: usize) -> &[u32] {
        &self.rows[self.starts[g] as usize..self.starts[g + 1] as usize]
    }

    /// Merges the per-shard buckets **in shard order** and sorts the groups.
    ///
    /// Shards cover contiguous level-0 block ranges in enumeration order, so
    /// concatenating their arenas numbers the embeddings exactly as a
    /// sequential enumeration would; listing each group's rows in ascending
    /// row order (a stable counting sort by group) then reproduces the
    /// sequential bucket, whatever the shard count. Groups are ordered by
    /// key **value** (via [`ValueInterner::cmp_id_tuples`]), which makes the
    /// output independent of both arrival order and the interner's id layout
    /// — what keeps answers byte-identical across thread counts and across
    /// warm/cold indexes.
    fn merge<'a>(
        shards: impl IntoIterator<Item = Buckets<'a>>,
        interner: &ValueInterner,
    ) -> Partition {
        let mut shards = shards.into_iter();
        let Buckets {
            projection,
            mut keys,
            mut embeddings,
            mut group_of,
            ..
        } = shards.next().expect("at least one shard");
        for shard in shards {
            let global: Vec<u32> = (0..shard.keys.len())
                .map(|g| keys.insert(shard.keys.tuple(g)).0 as u32)
                .collect();
            embeddings.append(shard.embeddings);
            group_of.extend(shard.group_of.iter().map(|&g| global[g as usize]));
        }
        assert!(
            embeddings.len() <= u32::MAX as usize,
            "embedding count fits u32"
        );

        let mut order: Vec<usize> = (0..keys.len()).collect();
        order.sort_unstable_by(|&a, &b| interner.cmp_id_tuples(keys.tuple(a), keys.tuple(b)));
        let mut sorted_keys = IdRows::new(projection.key_slots.len());
        let mut rank = vec![0usize; order.len()];
        for (r, &g) in order.iter().enumerate() {
            sorted_keys.push(keys.tuple(g).iter().copied());
            rank[g] = r;
        }
        let mut starts = vec![0u32; order.len() + 1];
        for &g in &group_of {
            starts[rank[g as usize] + 1] += 1;
        }
        for r in 0..order.len() {
            starts[r + 1] += starts[r];
        }
        let mut next = starts.clone();
        let mut rows = vec![0u32; group_of.len()];
        for (row, &g) in group_of.iter().enumerate() {
            let at = &mut next[rank[g as usize]];
            rows[*at as usize] = row as u32;
            *at += 1;
        }
        Partition {
            embeddings,
            keys: sorted_keys,
            starts,
            rows,
        }
    }
}

/// The open → closed projection of the `PartitionByGroup` operator: where an
/// open-body embedding keeps its group key, and how it is re-expressed over
/// the closed body's slot table (same variable set, possibly a different
/// topological order), so downstream certainty checks need no per-group
/// re-preparation.
struct GroupProjection {
    /// Open slots of the free variables: the group key.
    key_slots: Vec<usize>,
    /// Per closed slot, the open slot of the same variable. Empty for a
    /// cyclic closed body, which has no levels and hence no slots — its
    /// evaluation never consumes the embeddings.
    closed_from_open: Vec<usize>,
}

impl GroupProjection {
    fn new(open: &CompiledLevels, closed: &CompiledLevels, free: &[Var]) -> GroupProjection {
        let open_slot = |v: &Var| {
            open.table()
                .slot(v)
                .expect("every body variable occurs in the open body")
        };
        GroupProjection {
            key_slots: free.iter().map(open_slot).collect(),
            closed_from_open: closed.table().vars().iter().map(open_slot).collect(),
        }
    }
}

/// One shard's share of `PartitionByGroup`, and the sink of its join pass:
/// buckets open-body embeddings by group key as they are enumerated.
///
/// Keys are raw id tuples — exact, since id equality is value equality.
/// Level-0 block order makes runs of one key the common case, so a row is
/// first compared with its predecessor's key and only then looked up.
struct Buckets<'a> {
    projection: &'a GroupProjection,
    keep_embeddings: bool,
    /// When set, only embeddings with one of these keys are kept.
    only: Option<&'a IdTupleSet>,
    /// The distinct keys seen, in arrival order.
    keys: IdTupleSet,
    /// The kept embeddings over the closed slot table, in arrival order …
    embeddings: IdRows,
    /// … and, per kept embedding, the index of its key in `keys`.
    group_of: Vec<u32>,
    /// The previous embedding's key and its group (`None`: filtered out).
    key: Vec<u32>,
    group: Option<u32>,
}

impl<'a> Buckets<'a> {
    fn new(
        projection: &'a GroupProjection,
        keep_embeddings: bool,
        only: Option<&'a IdTupleSet>,
    ) -> Buckets<'a> {
        Buckets {
            projection,
            keep_embeddings,
            only,
            keys: IdTupleSet::new(projection.key_slots.len()),
            embeddings: IdRows::new(projection.closed_from_open.len()),
            group_of: Vec::new(),
            key: Vec::new(),
            group: None,
        }
    }

    /// The groups and embeddings bucketed so far, in [`INLINE_WORK_FLOOR`]'s
    /// unit.
    fn work(&self) -> usize {
        self.keys.len() + self.group_of.len()
    }

    fn push(&mut self, theta: &[u32]) {
        let key_slots = &self.projection.key_slots;
        let same_key = self.key.len() == key_slots.len()
            && key_slots
                .iter()
                .zip(&self.key)
                .all(|(&s, &id)| theta[s] == id);
        if !same_key {
            self.key.clear();
            self.key.extend(key_slots.iter().map(|&s| theta[s]));
            self.group = self
                .only
                .is_none_or(|only| only.contains(&self.key))
                .then(|| self.keys.insert(&self.key).0 as u32);
        }
        let (Some(group), true) = (self.group, self.keep_embeddings) else {
            return;
        };
        self.embeddings
            .push(self.projection.closed_from_open.iter().map(|&o| theta[o]));
        self.group_of.push(group);
    }
}

/// The `Scan + Join + PartitionByGroup` phase of a grouped query: enumerates
/// the open body over the shared index and partitions the embeddings by
/// group key — every group, or `only` the listed ones.
///
/// An `only` set whose keys' level-0 spans are small against the relation
/// ([`per_key_wins`]) is enumerated per key, the free-variable slots pre-bound
/// to the key's ids (keys with no embedding leave no group, exactly as in a
/// full run): on the calling thread until [`INLINE_WORK_FLOOR`] units have
/// come out, the keys then left sharded over the workers. Otherwise the
/// level-0 blocks are cut into contiguous ranges, one join-and-bucket pass
/// per worker.
fn partition_groups(
    cx: &ExecContext<'_>,
    closed: &CompiledLevels,
    free: &[Var],
    keep_embeddings: bool,
    only: Option<&IdTupleSet>,
) -> Partition {
    let index = cx.index;
    let open = CompiledLevels::new(cx.prepared.open_levels());
    let projection = GroupProjection::new(&open, closed, free);
    let join = Join::new(&open, index);
    let unbound = open.unbound_ids();
    let bind = |initial: &mut [u32], key: &[u32]| {
        for (&slot, &id) in projection.key_slots.iter().zip(key) {
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
            let join_key = |buckets: &mut Buckets<'_>, initial: &mut [u32], k: usize| {
                bind(initial, only.tuple(k));
                join.for_each(initial, |theta| buckets.push(theta));
            };
            // What a key's join costs is its embeddings, known only once it
            // is joined: start on the calling thread, and hand the keys still
            // left to the workers once a floor's worth of work has come out.
            let mut head = Buckets::new(&projection, keep_embeddings, None);
            let mut initial = unbound.clone();
            let mut keys = 0..only.len();
            while head.work() < INLINE_WORK_FLOOR {
                let Some(k) = keys.next() else { break };
                join_key(&mut head, &mut initial, k);
            }
            let mut shards = vec![head];
            if !keys.is_empty() {
                let workers = cx.options.resolve_threads();
                shards.extend(run_shards(shard(keys.collect(), workers), |keys| {
                    let mut buckets = Buckets::new(&projection, keep_embeddings, None);
                    let mut initial = unbound.clone();
                    for k in keys {
                        join_key(&mut buckets, &mut initial, k);
                    }
                    buckets
                }));
            }
            shards
        }
        None => {
            let blocks = join.level0_blocks(&unbound);
            run_shards(shard(blocks, cx.options.resolve_threads()), |blocks| {
                let mut buckets = Buckets::new(&projection, keep_embeddings, only);
                join.for_each_from_blocks(&unbound, &blocks, |theta| buckets.push(theta));
                buckets
            })
        }
    };
    Partition::merge(shards, index.interner())
}

/// Whether keys whose level-0 spans hold `spans` blocks are joined one by one
/// rather than by one filtered pass over all `pass_blocks` level-0 blocks:
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
    let closed = CompiledLevels::new(cx.prepared.body.levels());
    let free = cx.prepared.normalised.body.free_vars();
    let partition = partition_groups(cx, &closed, free, false, None);
    let interner = cx.index.interner();
    (0..partition.keys.len())
        .map(|g| interner.values_of(partition.keys.row(g)))
        .collect()
}

/// The worker count for `work` units of a listed-groups call: one — inline on
/// the calling thread — below [`INLINE_WORK_FLOOR`], else the engine's
/// resolved thread count ([`shard`] clamps it to the number of items).
fn workers_for(options: &EngineOptions, work: usize) -> usize {
    if work < INLINE_WORK_FLOOR {
        1
    } else {
        options.resolve_threads()
    }
}

/// Runs `work` over each shard — inline for a single shard, else one scoped
/// worker thread per shard — and returns the results in shard order. The
/// workspace's one spawn site: the sharded serving front-end fans a read out
/// over its shards through it as well.
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
            .map(|h| h.join().expect("plan executor worker panicked"))
            .collect()
    })
}

/// The `ForallCheck + AggregateBound + RangeMerge` tail shared by [`execute`]
/// and [`execute_for_groups`]: evaluates the partitioned groups over
/// contiguous shards on `workers` threads (sequentially for one),
/// concatenating the shard outputs in shard order.
///
/// A plan with a [`BoundOp::ExactEnumeration`] bound first collects every
/// group's block closure and checks it against the repair budget
/// ([`Closures::collect`], in group-key order on the calling thread): an
/// over-budget statement is refused, the same way at every worker count,
/// before the first repair of any group is built.
fn eval_groups(
    plan: &Plan,
    cx: &ExecContext<'_>,
    compiled: &CompiledLevels,
    free: &[Var],
    partition: &Partition,
    workers: usize,
) -> Result<Vec<GroupRange>, CoreError> {
    let groups = partition.keys.len();
    let enumerates = [plan.glb, plan.lub].contains(&Some(BoundOp::ExactEnumeration));
    let closures = enumerates
        .then(|| Closures::collect(plan, cx, compiled, free, partition))
        .transpose()?;
    let closures = closures.as_ref();
    let shard_results = run_shards(shard((0..groups).collect(), workers), |groups| {
        eval_shard(plan, cx, compiled, free, partition, groups, closures)
    });
    let mut out = Vec::with_capacity(groups);
    for result in shard_results {
        out.extend(result?);
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
    /// Group `g` of the partition touches `blocks[starts[g]..starts[g + 1]]`.
    starts: Vec<usize>,
    blocks: Vec<(&'a RelationIndex, &'a IndexedBlock)>,
}

impl<'a> Closures<'a> {
    /// Collects every group's closure — from the embeddings the partition
    /// holds where the plan kept them (rows over the closed slot table), else
    /// by one enumeration of the open body pinned to the group's key — and
    /// decides the repair budget: a closure has the product of its block sizes
    /// many repairs (counted, no fact materialised), and the first group in
    /// group-key order over [`MAX_REPAIRS`] is the `Err`.
    fn collect(
        plan: &Plan,
        cx: &ExecContext<'a>,
        closed: &CompiledLevels,
        free: &[Var],
        partition: &Partition,
    ) -> Result<Closures<'a>, CoreError> {
        let open;
        let keep_embeddings = plan.keep_embeddings();
        let compiled = if keep_embeddings {
            closed
        } else {
            open = CompiledLevels::new(cx.prepared.open_levels());
            &open
        };
        let join = Join::new(compiled, cx.index);
        let free_slots = slots_of(compiled, free);
        let mut pinned = compiled.unbound_ids();
        let (mut starts, mut blocks) = (vec![0], Vec::new());
        for g in 0..partition.keys.len() {
            let start = blocks.len();
            let mut seen = HashSet::new();
            let mut repairs = 1u128;
            // Once over budget the rest cannot matter: a closed query over a
            // large join is refused after the embeddings that prove it.
            let mut touch = |theta: &[u32]| {
                if repairs <= MAX_REPAIRS {
                    join.blocks_of(theta, |rel, block| {
                        if seen.insert(Arc::as_ptr(&block.cols)) {
                            repairs = repairs.saturating_mul(block.cols.rows() as u128);
                            blocks.push((rel, block));
                        }
                    });
                }
            };
            if keep_embeddings {
                for &row in partition.rows_of(g) {
                    touch(partition.embeddings.row(row as usize));
                }
            } else {
                for (&slot, &id) in free_slots.iter().zip(partition.keys.row(g)) {
                    pinned[slot] = id;
                }
                join.for_each(&pinned, touch);
            }
            if repairs > MAX_REPAIRS {
                let key = cx.index.interner().values_of(partition.keys.row(g));
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

/// One group's `ForallCheck` output, in id space: row indices into the
/// partition's embedding arena.
struct GroupAnalysis<'a> {
    /// Reads the aggregated term under an embedding.
    leaves: &'a Leaves<'a>,
    /// Whether the group's closed body holds in every repair.
    certain: bool,
    /// All embeddings of the group.
    rows: &'a [u32],
    /// Its ∀embeddings (empty unless certain and the plan asked for them).
    forall: &'a mut [u32],
}

/// Runs ForallCheck + AggregateBound for one contiguous shard of groups,
/// sharing one memoised certainty checker (and its scratch) across the shard.
fn eval_shard(
    plan: &Plan,
    cx: &ExecContext<'_>,
    compiled: &CompiledLevels,
    free: &[Var],
    partition: &Partition,
    groups: Vec<usize>,
    closures: Option<&Closures<'_>>,
) -> Result<Vec<GroupRange>, CoreError> {
    let interner = cx.index.interner();
    let embeddings = &partition.embeddings;
    // Analysis implies an acyclic body, whose slot table names every body
    // variable — the free variables (for seeding per-group base bindings)
    // and the aggregated one included.
    let needs_forall = plan.needs_forall();
    let analysing = plan.needs_analysis().then(|| {
        (
            CertaintyChecker::with_compiled(compiled.clone(), cx.index),
            Leaves::new(
                embeddings,
                compiled.table(),
                &cx.prepared.normalised.term,
                interner,
            ),
            slots_of(compiled, free),
        )
    });
    let mut base = compiled.unbound_ids();
    let mut forall = Vec::new();
    let mut out = Vec::with_capacity(groups.len());
    for g in groups {
        let key_ids = partition.keys.row(g);
        // The result boundary: the group key materialises here, for the
        // GroupRange row and (below) the exact fallback's substitution.
        let key = interner.values_of(key_ids);
        let mut analysis = match &analysing {
            Some((checker, leaves, free_slots)) => {
                for (&slot, &id) in free_slots.iter().zip(key_ids) {
                    base[slot] = id;
                }
                let rows = partition.rows_of(g);
                let certain =
                    forall_check(checker, &base, embeddings, rows, needs_forall, &mut forall);
                Some(GroupAnalysis {
                    leaves,
                    certain,
                    rows,
                    forall: &mut forall,
                })
            }
            None => None,
        };
        // One enumeration serves both bounds.
        let exact = closures
            .map(|closures| closures.enumerate(g, cx, &key))
            .transpose()?;
        let mut bound = |op: Option<BoundOp>, kind: BoundKind| {
            op.map(|op| bound_answer(op, kind, compiled, analysis.as_mut(), exact))
        };
        let glb = bound(plan.glb, BoundKind::Glb);
        let lub = bound(plan.lub, BoundKind::Lub);
        // Residual predicates are invisible to the partitioner, so the exact
        // enumeration may discover that a candidate group has no satisfying
        // embedding at all — such a group is not a possible answer and has
        // no row. (Closed queries keep their single row: a scalar query
        // honestly answers ⊥.)
        if !key.is_empty() && exact.is_some_and(|b| !b.satisfiable) {
            continue;
        }
        out.push(GroupRange { key, glb, lub });
    }
    Ok(out)
}

/// Computes one bound of one group from the shared analysis (or, for
/// [`BoundOp::ExactEnumeration`], reads it off `exact`, the enumeration of the
/// repairs of the group's closure).
fn bound_answer(
    op: BoundOp,
    bound: BoundKind,
    compiled: &CompiledLevels,
    analysis: Option<&mut GroupAnalysis<'_>>,
    exact: Option<ExactBounds>,
) -> BoundAnswer {
    let value = match op {
        BoundOp::Rewrite { combine, choice } => {
            let analysis = analysis.expect("the Rewrite operator requires the analysis");
            let levels = compiled.levels();
            analysis
                .certain
                .then(|| {
                    optimal_aggregate(analysis.leaves, levels, analysis.forall, combine, choice)
                })
                .flatten()
        }
        BoundOp::Extremum { choice } => {
            let analysis = analysis.expect("the Extremum operator requires the analysis");
            // Theorem 7.10 (GLB of MIN) and its mirror (LUB of MAX).
            let maximise = choice == Choice::Maximise;
            analysis
                .certain
                .then(|| global_extremum(analysis.leaves, analysis.rows, maximise))
                .flatten()
        }
        BoundOp::ExactEnumeration => {
            let bounds = exact.expect("the pre-pass collected the group's closure");
            match bound {
                BoundKind::Glb => bounds.glb,
                BoundKind::Lub => bounds.lub,
            }
        }
    };
    BoundAnswer {
        value,
        method: op.into(),
    }
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
/// bound slots filled in. During a group's evaluation (join, certainty memo,
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
/// affected groups exactly, from the dirty keys
/// ([`crate::engine::RangeCqa::affected_keys`]). The pattern remains the
/// certificate behind the sharded front-end's routes (which shards a row's
/// blocks can live on) and the fallback for a relation the delta enumeration
/// reports retraction-blind, whose dirty blocks — and only those — are tested
/// against the cached rows with [`RowSupport::hits`].
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
    /// matches the block.
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

    /// Merges the supports of several engines over one shared body (the
    /// serving layer prepares one engine per aggregate): the identity, since
    /// a support depends on the body alone.
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
        let four = EngineOptions { threads: 4 };
        // Two keys and their few embeddings: no worker, whatever the option.
        assert_eq!(workers_for(&four, 2), 1);
        assert_eq!(workers_for(&four, INLINE_WORK_FLOOR - 1), 1);
        assert_eq!(workers_for(&four, INLINE_WORK_FLOOR), 4);
        let one = EngineOptions { threads: 1 };
        assert_eq!(workers_for(&one, INLINE_WORK_FLOOR), 1);
    }
}
