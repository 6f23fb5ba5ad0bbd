//! A counting global allocator for the allocation tests.
//!
//! It sees every allocation in the process, so each test binary that
//! includes it holds a single test: nothing else allocates while it
//! measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Allocations and reallocations made so far (frees are not counted).
static CALLS: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting the calls that take memory.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's; the counter touches no
// memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` was allocated by `System` with `layout` (every
        // allocation here is), and the caller upholds `new_size`'s
        // contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f`, returning its result and the allocator calls it made.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = CALLS.load(Ordering::Relaxed);
    let out = f();
    (out, CALLS.load(Ordering::Relaxed) - before)
}
