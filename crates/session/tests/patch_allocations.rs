//! A stale read's cost follows the delta, not the result, locked as an
//! allocation count.
//!
//! A stale read re-derives only the groups the delta touches and patches
//! them into the cached result in place: the statement's entry is the only
//! owner of its rows once the caller has dropped the outcome, so a kept row
//! is neither cloned (one key `Vec` each) nor reference-counted. One stale
//! read that re-derives one group of an `N`-row `GROUP BY` result must
//! therefore allocate exactly as often at `N = 1 000` as at `N = 8 000` —
//! for a changed group, a new group and a vanished one. Copying the cached
//! rows into a new slice on every patch allocated at least `N` times. A
//! certain top-k statement is held to the same rule: a patched result
//! re-selects its top rows from the patched ones, and selecting allocates
//! per selection, not per row.
//!
//! The allocation counter is thread-local and the engine runs with
//! `threads: 1` (inline on the calling thread), so libtest's own threads
//! cannot disturb the count; an integration test is its own binary, so the
//! counting allocator is too.

use rcqa_core::engine::EngineOptions;
use rcqa_data::{fact, DatabaseInstance, Fact};
use rcqa_query::{Catalog, TableDef};
use rcqa_session::Session;
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

const SQL: &str = "SELECT S.Product, S.Town, MAX(S.Qty) FROM Stock AS S GROUP BY S.Product, S.Town";

const TOPK: &str = "SELECT S.Product, S.Town, MAX(S.Qty) FROM Stock AS S \
                    GROUP BY S.Product, S.Town ORDER BY MAX(S.Qty) DESC LIMIT 10";

fn catalog() -> Catalog {
    Catalog::new().with_table(
        TableDef::new("Stock")
            .key_column("Product")
            .key_column("Town")
            .numeric_column("Qty"),
    )
}

fn stock(product: usize, qty: i64) -> Fact {
    fact!("Stock", format!("p{product:05}"), "Boston", qty)
}

/// Allocations of `f` on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// The allocations of the stale read of `sql` after each of three writes to
/// a `groups`-group result, and the rows each read answered: a value change
/// of one group, a new group, and a vanished group.
fn stale_read_allocations(sql: &str, groups: usize) -> ([u64; 3], [usize; 3]) {
    let mut db = DatabaseInstance::new(catalog().schema());
    db.load((0..groups).map(|i| stock(i, i as i64)).collect())
        .expect("load");
    let session = Session::with_instance(catalog(), db).with_options(EngineOptions { threads: 1 });
    let read = || {
        let (count, outcome) = allocations(|| session.execute(sql).expect("read"));
        (count, outcome.rows.len())
    };
    let middle = groups / 2;
    // A warm-up patch, so that no count includes a first-use allocation.
    // Each write below changes the result.
    read();
    session.insert(stock(middle, 1)).expect("insert");
    read();
    session.insert(stock(middle, 1_000_000)).expect("insert");
    let (changed, changed_rows) = read();
    session.insert(stock(groups, 1)).expect("insert");
    let (born, born_rows) = read();
    session.delete(&stock(groups, 1)).expect("delete");
    let (vanished, vanished_rows) = read();
    let stats = session.stats();
    assert_eq!((stats.supported_patches, stats.full_recomputes), (4, 1));
    (
        [changed, born, vanished],
        [changed_rows, born_rows, vanished_rows],
    )
}

#[test]
fn a_stale_read_allocates_for_the_delta_not_the_result() {
    let (small, rows) = stale_read_allocations(SQL, 1_000);
    assert_eq!(rows, [1_000, 1_001, 1_000]);
    let (large, rows) = stale_read_allocations(SQL, 8_000);
    assert_eq!(rows, [8_000, 8_001, 8_000]);
    assert_eq!(
        small, large,
        "allocations of a stale read at 1 000 vs 8 000 rows"
    );
    assert!(small.iter().all(|&count| count < 1_000), "{small:?}");
}

#[test]
fn a_stale_top_k_read_allocates_for_the_delta_not_the_result() {
    let (small, small_rows) = stale_read_allocations(TOPK, 1_000);
    let (large, large_rows) = stale_read_allocations(TOPK, 8_000);
    assert_eq!(small_rows, large_rows);
    assert_eq!(
        small, large,
        "allocations of a stale top-k read at 1 000 vs 8 000 groups"
    );
    assert!(small.iter().all(|&count| count < 1_000), "{small:?}");
}
