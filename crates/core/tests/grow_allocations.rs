//! Allocator calls of `SiliconSim::grow_board_with_id` on the `repro
//! fleet` grid.
//!
//! The counting allocator sees every allocation in this process, so
//! this binary holds a single test: nothing else allocates while it
//! measures.

mod counting_allocator;

use rand::rngs::StdRng;
use rand::SeedableRng;
use ropuf_silicon::board::BoardId;
use ropuf_silicon::SiliconSim;

/// Growing a 480-unit board on a 16-wide grid takes exactly one
/// allocator call: the board's unit list, sized up front. Provisioning
/// grows every board.
#[test]
fn fleet_board_grows_in_exactly_one_allocator_call() {
    let sim = SiliconSim::default_spartan();
    let mut rng = StdRng::seed_from_u64(7);
    let (board, calls) =
        counting_allocator::counted(|| sim.grow_board_with_id(&mut rng, BoardId(0), 480, 16));
    assert_eq!(calls, 1, "{calls} allocator calls for one board");
    assert_eq!(board.len(), 480);
}
