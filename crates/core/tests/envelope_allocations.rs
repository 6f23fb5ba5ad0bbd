//! Allocator calls and buffer size of `enrollment_to_bytes` on the
//! `repro fleet` floorplan.
//!
//! The counting allocator sees every allocation in this process, so
//! this binary holds a single test: nothing else allocates while it
//! measures.

mod counting_allocator;

use rand::rngs::StdRng;
use rand::SeedableRng;
use ropuf_core::persist::enrollment_to_bytes;
use ropuf_core::puf::{ConfigurableRoPuf, EnrollOptions};
use ropuf_silicon::board::BoardId;
use ropuf_silicon::{Environment, SiliconSim};

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

    let (bytes, calls) = counting_allocator::counted(|| enrollment_to_bytes(&enrollment));

    assert!(calls <= 2, "{calls} allocator calls for one envelope");
    assert_eq!(bytes.capacity(), bytes.len(), "spare capacity");
}
