//! A commit copies pointers, not facts, locked as allocation counts.
//!
//! A single-fact commit copies, per written relation, one spine and the one
//! leaf the fact lands in — in the instance and in the index alike. Those
//! copies are allocation-free per entry: a fact's arguments sit behind one
//! `Arc` and its relation name is the schema's own, and the interner's
//! overlay of values first seen since the cold build sits in chunked
//! copy-on-write leaves, so cloning it copies a spine, not every value
//! appended so far. Three properties are locked, one test each:
//!
//! * **A fact is built in one allocation for its arguments.** `fact!`,
//!   `Fact::new` over an array and the codec's decode (WAL replay,
//!   checkpoint load) allocate the relation name and the argument slice,
//!   nothing else, for a fact of numbers.
//! * **A commit allocates per leaf, not per fact.** One effective
//!   single-fact commit into a relation of 10⁴ facts, with a warm index,
//!   allocates fewer times than a leaf holds entries ([`MIN_LEAF`]). Copying
//!   a leaf of facts that each own an argument vector allocated once per
//!   fact in the leaf.
//! * **A commit writes the data once.** The bytes one effective single-fact
//!   commit into that relation allocates stay within what
//!   `DbIndex::apply_delta` allocates for the same event on a clone of the
//!   snapshot's index, plus [`BOOKKEEPING`] bytes for the snapshot and the
//!   dirty-log entry. A snapshot that also kept a `DatabaseInstance` of the
//!   same facts copied a leaf of at least [`MIN_LEAF`] facts there too.
//! * **Interning a fresh value does not pay for the overlay.** The bytes
//!   allocated by a commit that interns one fresh value are the same, up to
//!   one leaf of each overlay sequence, after 100 and after 5 000 fresh
//!   values. Copying the whole overlay grew them by at least 4 900 ×
//!   `size_of::<Value>()`.
//!
//! The counters are thread-local and the engine runs with `threads: 1`
//! (inline on the calling thread), so libtest's own threads cannot disturb
//! the count; an integration test is its own binary, so the counting
//! allocator is too.

use rcqa_core::engine::EngineOptions;
use rcqa_data::chunked::{MAX_LEAF, MIN_LEAF};
use rcqa_data::codec::{decode_fact, encode_fact, Reader};
use rcqa_data::{fact, DatabaseInstance, DeltaEvent, Fact, Value};
use rcqa_query::{Catalog, TableDef};
use rcqa_session::Session;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting this thread's `alloc` and `realloc` calls
/// and the bytes they ask for.
struct Counting;

fn count(bytes: usize) {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
    BYTES.with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a bump of two
// const-initialised, destructor-free thread-local `Cell`s, which neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator, with this
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as for `dealloc`; `new_size` is passed through as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Facts in the written relation.
const FACTS: usize = 10_000;

fn catalog() -> Catalog {
    Catalog::new().with_table(TableDef::new("R").key_column("K").column("V"))
}

fn r(key: usize, value: impl Into<Value>) -> Fact {
    fact!("R", format!("k{key:05}"), value.into())
}

/// A session over `FACTS` facts `R(k_i, i)` whose current snapshot has a
/// warm index, after one warm-up commit.
fn session() -> Session {
    let mut db = DatabaseInstance::new(catalog().schema());
    db.load((0..FACTS).map(|i| r(i, i as i64)).collect())
        .expect("load");
    let session = Session::with_instance(catalog(), db).with_options(EngineOptions { threads: 1 });
    session
        .execute("SELECT COUNT(*) FROM R AS R")
        .expect("read");
    assert!(session.insert(r(1, 2)).expect("insert"));
    assert_eq!(session.stats().index_builds, 1);
    session
}

/// Allocations and allocated bytes of `f` on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, u64, T) {
    let (calls, bytes) = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    let out = f();
    (
        ALLOCATIONS.with(Cell::get) - calls,
        BYTES.with(Cell::get) - bytes,
        out,
    )
}

#[test]
fn a_fact_is_built_in_one_allocation_for_its_arguments() {
    let (calls, _, built) = allocations(|| fact!("R", 1, 2, 3));
    assert_eq!(calls, 2, "the name and the arguments");
    let (calls, _, from_array) =
        allocations(|| Fact::new("R", [Value::int(1), Value::int(2), Value::int(3)]));
    assert_eq!(calls, 2, "the name and the arguments");
    assert_eq!(from_array, built);
    let mut bytes = Vec::new();
    encode_fact(&built, &mut bytes);
    let (calls, _, decoded) = allocations(|| decode_fact(&mut Reader::new(&bytes)).unwrap());
    assert_eq!(calls, 2, "the name and the arguments");
    assert_eq!(decoded, built);
}

#[test]
fn a_single_fact_commit_allocates_per_leaf_not_per_fact() {
    let session = session();
    // A new fact of known values: a second fact in the block of `k05000`.
    let fact = r(FACTS / 2, 7);
    let (calls, _, inserted) = allocations(|| session.insert(fact).expect("insert"));
    assert!(inserted);
    assert_eq!(session.stats().index_builds, 1, "the index stayed warm");
    assert!(
        calls < MIN_LEAF as u64,
        "one single-fact commit allocated {calls} times; a leaf holds at least {MIN_LEAF} facts"
    );
}

/// What a commit may allocate beyond its index delta: the successor
/// snapshot, the effective events and flags, and the dirty-log entry.
const BOOKKEEPING: u64 = 1024;

#[test]
fn a_single_fact_commit_allocates_its_index_delta_and_bookkeeping_only() {
    let session = session();
    // A new fact of known values: a second fact in the block of `k05000`.
    let fact = r(FACTS / 2, 7);
    let event = DeltaEvent::insert(fact.clone());
    let index = session
        .snapshot()
        .index()
        .expect("the snapshot has an index")
        .clone();
    let (_, delta, dirty) = allocations(|| {
        let mut next = (*index).clone();
        next.apply_delta(std::slice::from_ref(&event))
    });
    assert_eq!(dirty.len(), 1, "the event is effective on the index");
    let (_, commit, inserted) = allocations(|| session.insert(fact).expect("insert"));
    assert!(inserted);
    assert!(
        commit <= delta + BOOKKEEPING,
        "one single-fact commit allocated {commit} bytes; its index delta allocates {delta}, \
         and {BOOKKEEPING} more are allowed for bookkeeping"
    );
}

#[test]
fn interning_a_fresh_value_costs_the_same_after_100_and_5000() {
    let session = session();
    let fresh = |i: usize| r(FACTS / 2, Value::text(format!("fresh{i:05}")));
    // Each fresh value is committed and retracted again: the interner keeps
    // it, the relation and its index return to the same shape.
    let mut interned = 0;
    let mut grow_to = |n: usize| {
        while interned < n {
            assert!(session.insert(fresh(interned)).expect("insert"));
            assert!(session.delete(&fresh(interned)).expect("delete"));
            interned += 1;
        }
        let fact = fresh(n);
        let (_, bytes, inserted) = allocations(|| session.insert(fact).expect("insert"));
        assert!(inserted);
        assert!(session.delete(&fresh(n)).expect("delete"));
        interned += 1;
        bytes
    };
    let after_100 = grow_to(100);
    let after_5000 = grow_to(5_000);
    assert_eq!(session.stats().index_builds, 1, "the index stayed warm");
    // One leaf of each overlay sequence: the last leaf of the arrival-order
    // values and of the value-ordered ids is copied, and its fill varies.
    let one_leaf = (MAX_LEAF * (size_of::<Value>() + size_of::<u32>())) as u64;
    assert!(
        after_5000.abs_diff(after_100) <= one_leaf,
        "a commit interning one fresh value allocated {after_100} bytes after 100 fresh \
         values and {after_5000} after 5 000 (allowed: {one_leaf} either way)"
    );
}
