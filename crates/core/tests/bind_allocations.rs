//! Allocator calls of `Enrollment::bind` on the `repro fleet` floorplan.
//!
//! The counting allocator sees every allocation in this process, so
//! this binary holds a single test: nothing else allocates while it
//! measures.

mod counting_allocator;

use rand::rngs::StdRng;
use rand::SeedableRng;
use ropuf_core::puf::{ConfigurableRoPuf, EnrollOptions};
use ropuf_silicon::board::BoardId;
use ropuf_silicon::{DelayProbe, Environment, SiliconSim};

/// Binding one 34-pair board (480 units on a 16-wide grid, 7 stages,
/// interleaved) allocates only the list of bound pairs: the rings
/// borrow the enrollment's unit lists. Provisioning binds every board
/// it reads out.
#[test]
fn fleet_enrollment_binds_in_at_most_one_allocator_call() {
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
    assert_eq!(enrollment.bit_count(), 34);

    let (bound, calls) = counting_allocator::counted(|| enrollment.bind(&board));
    assert!(calls <= 1, "{calls} allocator calls for one bind");

    // The bound rings read what the unbound path reads.
    let probe = DelayProbe::noiseless();
    let env = Environment::nominal();
    assert_eq!(
        bound.respond(&mut rng, sim.technology(), env, &probe),
        enrollment.respond(&mut rng, &board, sim.technology(), env, &probe)
    );
}
