//! The executor's cost model, locked as counts, not timings.
//!
//! No embedding is ever listed: a bound is a memoised recursion over the
//! index ([`rcqa_core::glb::BoundEvaluator`]), a partial embedding is one
//! slot vector bound and unbound in place, and every memo is probed through a
//! borrowed projection. Two properties follow, one test each:
//!
//! * **Allocations follow blocks and groups, not embeddings.** On `R(x|y) ⋈
//!   S(y,z|r)`, quadrupling the facts per `S` block at fixed block and group
//!   counts quadruples the embeddings, and the allocation count of one
//!   `range_with_index` must stay well under 1.5× (materialising each
//!   embedding as a slot vector of values made it ≈ 4×).
//! * **Sub-problems follow the join values, not the groups.** The level-1
//!   sub-aggregate of that join is a function of `y` alone, so however many
//!   `R` blocks (groups) join each `y`, the level-1 sub-problems evaluated
//!   are exactly the distinct `y` — for the rewriting and for the extremum.
//!
//! The allocation counter is thread-local and the engine runs with
//! `threads: 1` (inline on the calling thread), so libtest's own threads
//! cannot disturb the count; an integration test is its own binary, so the
//! counting allocator is too.

use rcqa_core::engine::{EngineOptions, RangeCqa};
use rcqa_core::forall::{Join, Valuation};
use rcqa_core::glb::{BoundEvaluator, Choice};
use rcqa_core::index::DbIndex;
use rcqa_core::PreparedAggQuery;
use rcqa_data::{AggFunc, DatabaseInstance, Fact, Schema, Signature, Value};
use rcqa_query::{parse_agg_query, Var};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting this thread's `alloc` and `realloc` calls.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a bump of a
// const-initialised, destructor-free thread-local `Cell`, which neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator, with this
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`; `new_size` is passed through as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const GROUPS: usize = 200;
const Y_VALUES: usize = 50;
const S_BLOCKS_PER_Y: usize = 3;

fn text(prefix: &str, i: usize) -> Value {
    Value::text(format!("{prefix}{i:04}"))
}

/// `groups` two-fact `R` blocks (every group joins two `y`s, so every `R`
/// block is inconsistent) over `Y_VALUES × S_BLOCKS_PER_Y` blocks of `S`,
/// each holding `facts_per_s_block` alternatives for `r`.
fn instance(groups: usize, facts_per_s_block: usize) -> DatabaseInstance {
    let schema = Schema::new()
        .with_relation("R", Signature::new(2, 1, []).unwrap())
        .with_relation("S", Signature::new(3, 2, [2]).unwrap());
    let mut db = DatabaseInstance::new(schema);
    for g in 0..groups {
        for y in [g % Y_VALUES, (g + 1) % Y_VALUES] {
            db.insert(Fact::new("R", [text("x", g), text("y", y)]))
                .unwrap();
        }
    }
    for y in 0..Y_VALUES {
        for z in 0..S_BLOCKS_PER_Y {
            for r in 0..facts_per_s_block {
                let r = Value::int((1 + r + z + y % 5) as i64);
                db.insert(Fact::new("S", [text("y", y), text("z", z), r]))
                    .unwrap();
            }
        }
    }
    db
}

/// (embeddings, allocations of one `range_with_index`) at the given `S`
/// block size.
fn measure(facts_per_s_block: usize) -> (usize, u64) {
    let db = instance(GROUPS, facts_per_s_block);
    let index = DbIndex::new(&db);
    let query = parse_agg_query("(x, MAX(r)) <- R(x, y), S(y, z, r)").unwrap();
    let engine = RangeCqa::new(&query, db.schema())
        .unwrap()
        .with_options(EngineOptions { threads: 1 });
    let before = ALLOCATIONS.with(Cell::get);
    let rows = engine.range_with_index(&db, &index).unwrap();
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(rows.len(), GROUPS);
    // Every group is certain (both of its `y`s reach `S`), so both bounds —
    // the ∀embedding recursion and the plain extremum — ran over its rows.
    assert!(rows
        .iter()
        .all(|g| g.glb.unwrap().value.is_some() && g.lub.unwrap().value.is_some()));
    (GROUPS * 2 * S_BLOCKS_PER_Y * facts_per_s_block, allocations)
}

#[test]
fn allocations_follow_blocks_and_groups_not_embeddings() {
    let (small_embeddings, small) = measure(2);
    let (large_embeddings, large) = measure(8);
    assert_eq!(large_embeddings, 4 * small_embeddings);
    println!(
        "allocations of one range_with_index: {small} at {small_embeddings} embeddings, \
         {large} at {large_embeddings}"
    );
    assert!(
        (large as f64) < 1.5 * small as f64,
        "4× the embeddings at fixed block and group counts took {large} allocations against \
         {small}: something allocates per embedding again"
    );
}

/// The level-1 sub-problems the rewriting and the extremum of `(x, MAX(r))`
/// evaluate over `groups` groups, each evaluator answering every group.
fn level_1_evaluations(groups: usize) -> (usize, usize) {
    let db = instance(groups, 2);
    let index = DbIndex::new(&db);
    let query = parse_agg_query("(x, MAX(r)) <- R(x, y), S(y, z, r)").unwrap();
    let prepared = PreparedAggQuery::new(&query, db.schema()).unwrap();
    let join = Join::new(prepared.body.compiled_levels(), &index);
    let term = &prepared.normalised.term;
    let mut rewriting = BoundEvaluator::rewriting(&join, term, AggFunc::Max, Choice::Minimise);
    let mut extremum = BoundEvaluator::extremum(&join, term, Choice::Maximise);
    for g in 0..groups {
        let base = Valuation::from([(Var::new("x"), text("x", g))]);
        assert!(rewriting.bound(&base).is_some(), "group {g} is certain");
        assert!(extremum.bound(&base).is_some(), "group {g} is certain");
    }
    assert_eq!(
        rewriting.evaluated(0),
        groups,
        "level 0 is the group itself"
    );
    (rewriting.evaluated(1), extremum.evaluated(1))
}

#[test]
fn level_1_sub_problems_follow_the_join_values_not_the_groups() {
    // `GROUPS` groups already reach every `y`; four times as many `R` blocks
    // per `y` leave the level-1 work where it was.
    for groups in [GROUPS, 4 * GROUPS] {
        assert_eq!(
            level_1_evaluations(groups),
            (Y_VALUES, Y_VALUES),
            "{groups} groups over {Y_VALUES} join values"
        );
    }
}
