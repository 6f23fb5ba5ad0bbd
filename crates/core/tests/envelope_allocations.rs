//! Allocator calls and buffer size of `enrollment_to_bytes` on the
//! `repro fleet` floorplan.
//!
//! The counting allocator below sees every allocation in this process,
//! so this binary holds a single test: nothing else allocates while it
//! measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use rand::rngs::StdRng;
use rand::SeedableRng;
use ropuf_core::persist::enrollment_to_bytes;
use ropuf_core::puf::{ConfigurableRoPuf, EnrollOptions};
use ropuf_silicon::board::BoardId;
use ropuf_silicon::{Environment, SiliconSim};

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

/// The envelope of one 34-pair board (480 units on a 16-wide grid, 7
/// stages, interleaved) is written into one buffer of exactly its
/// length: a provisioning batch holds every board's envelope, so spare
/// capacity is resident memory.
#[test]
fn fleet_envelope_takes_at_most_two_allocator_calls_and_no_spare_capacity() {
    let sim = SiliconSim::default_spartan();
    let mut rng = StdRng::seed_from_u64(7);
    let board = sim.grow_board_with_id(&mut rng, BoardId(0), 480, 16);
    let enrollment = ConfigurableRoPuf::tiled_interleaved(480, 7).enroll_seeded(
        7,
        &board,
        sim.technology(),
        Environment::nominal(),
        &EnrollOptions::default(),
    );
    assert_eq!(enrollment.pairs().len(), 34);

    let before = CALLS.load(Ordering::Relaxed);
    let bytes = enrollment_to_bytes(&enrollment);
    let calls = CALLS.load(Ordering::Relaxed) - before;

    assert!(calls <= 2, "{calls} allocator calls for one envelope");
    assert_eq!(bytes.capacity(), bytes.len(), "spare capacity");
}
