//! The benchmark's own counting allocator: live and peak heap bytes of the
//! whole process, so the memory metrics need nothing from the crates under
//! measurement.
//!
//! The counts are sharded by thread. One shared counter was tried first and
//! slowed the parallel executor 2.5× (every allocation of every worker bounced
//! one cache line), which would have made the benchmark measure itself.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};

const SHARDS: usize = 16;
/// A shard re-checks the process-wide peak after growing by this much, so the
/// peak is exact to within `CHECK_EVERY` bytes per running thread.
const CHECK_EVERY: usize = 64 << 10;

/// One thread's share of the count, on a cache line of its own. A shard's
/// `live` alone can be negative: memory allocated on one thread is often freed
/// on another. Only the sum over shards means anything.
#[repr(align(128))]
struct Shard {
    live: AtomicIsize,
    grown: AtomicUsize,
}

static COUNTS: [Shard; SHARDS] = [const {
    Shard {
        live: AtomicIsize::new(0),
        grown: AtomicUsize::new(0),
    }
}; SHARDS];
static PEAK: AtomicUsize = AtomicUsize::new(0);
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialised and without a destructor, so touching it from inside
    // the allocator neither allocates nor outlives the thread's storage.
    static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Forwards to the system allocator and counts bytes. The counters publish no
/// other data, so every access is `Relaxed`.
pub struct Counting;

fn shard() -> &'static Shard {
    let slot = SLOT.with(|s| {
        if s.get() == usize::MAX {
            s.set(NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SHARDS);
        }
        s.get()
    });
    &COUNTS[slot]
}

fn grew(by: usize) {
    let shard = shard();
    shard.live.fetch_add(by as isize, Ordering::Relaxed);
    if shard.grown.fetch_add(by, Ordering::Relaxed) + by >= CHECK_EVERY {
        shard.grown.store(0, Ordering::Relaxed);
        PEAK.fetch_max(live(), Ordering::Relaxed);
    }
}

fn shrank(by: usize) {
    shard().live.fetch_sub(by as isize, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters never influence the returned pointers.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's layout is passed through as is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`, `layout` and `new_size` are the caller's, unchanged.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

/// Heap bytes currently allocated.
pub fn live() -> usize {
    let sum: isize = COUNTS.iter().map(|s| s.live.load(Ordering::Relaxed)).sum();
    sum.max(0) as usize
}

/// The highest `live()` seen since the process started (to within
/// [`CHECK_EVERY`] bytes per thread).
pub fn peak() -> usize {
    PEAK.fetch_max(live(), Ordering::Relaxed).max(live())
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test binary installs `Counting` too (see `main.rs`), so these see
    // real counts; other tests allocate concurrently, hence the slack.
    #[test]
    fn live_follows_allocations_and_peak_remembers_them() {
        const SIZE: usize = 32 << 20;
        let before = live();
        let block = vec![1u8; SIZE];
        let during = live();
        assert!(during >= before + SIZE / 2, "{before} -> {during}");
        assert!(peak() >= during - SIZE / 2);
        drop(std::hint::black_box(block));
        assert!(live() + SIZE / 2 <= during);
        assert!(peak() >= during - SIZE / 2, "the peak outlives the block");
    }
}
