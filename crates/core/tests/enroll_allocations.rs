//! Allocator calls of one nominal `enroll_seeded_in` on the `repro
//! fleet` floorplan.
//!
//! The counting allocator sees every allocation in this process, so
//! this binary holds a single test: nothing else allocates while it
//! measures.

mod counting_allocator;

use rand::rngs::StdRng;
use rand::SeedableRng;
use ropuf_core::puf::{ConfigurableRoPuf, EnrollOptions};
use ropuf_silicon::board::BoardId;
use ropuf_silicon::{Environment, MeasureArena, SiliconSim};

/// Enrolling one 34-pair board (480 units on a 16-wide grid, 7 stages,
/// interleaved) into a warmed arena takes at most 7 allocator calls,
/// none of them per pair: the two configurations a pair keeps are
/// 7-bit vectors, held in place. Calibrations and the solver's sorted
/// delays and stage sets live in buffers the kernel holds for the
/// whole enrollment, selection holds its corner views on the stack,
/// and the enrolled pair holds its index, not units. Provisioning
/// enrolls every board.
#[test]
fn nominal_fleet_enrollment_takes_at_most_7_allocator_calls() {
    let sim = SiliconSim::default_spartan();
    let puf = ConfigurableRoPuf::tiled_interleaved(480, 7);
    let opts = EnrollOptions::default();
    let env = Environment::nominal();
    let mut arena = MeasureArena::new();
    let mut rng = StdRng::seed_from_u64(7);
    let warm = sim.grow_board_with_id(&mut rng, BoardId(0), 480, 16);
    let board = sim.grow_board_with_id(&mut rng, BoardId(1), 480, 16);
    let _ = puf.enroll_seeded_in(6, &warm, sim.technology(), env, &opts, &mut arena);

    let (enrollment, calls) = counting_allocator::counted(|| {
        puf.enroll_seeded_in(7, &board, sim.technology(), env, &opts, &mut arena)
    });

    assert_eq!(enrollment.pairs().len(), 34);
    assert!(calls <= 7, "{calls} allocator calls for one enrollment");
    // The warmed arena changes nothing but the allocations.
    assert_eq!(
        enrollment,
        puf.enroll_seeded(7, &board, sim.technology(), env, &opts)
    );
}
