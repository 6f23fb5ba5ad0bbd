//! Allocator calls of the store's record validation on the `repro
//! fleet` floorplan: `expected_bits_from_bytes` of an envelope and
//! `KeyCode::from_bytes` of its Key Code, which a verifier runs on every
//! enroll, supersede and replayed record.
//!
//! The counting allocator sees every allocation in this process, so
//! this binary holds a single test: nothing else allocates while it
//! measures.

mod counting_allocator;

use rand::rngs::StdRng;
use rand::SeedableRng;
use ropuf_core::lifecycle::{Device, KeyCode};
use ropuf_core::persist::{enrollment_to_bytes, expected_bits_from_bytes};
use ropuf_core::puf::{ConfigurableRoPuf, EnrollOptions};
use ropuf_silicon::board::BoardId;
use ropuf_silicon::{Environment, SiliconSim};

/// One 34-pair board (480 units on a 16-wide grid, 7 stages,
/// interleaved): validating its envelope and its repetition-3 Key Code
/// allocates nothing, since the 34 expected bits and the 33-bit helper
/// each keeps are held in place.
#[test]
fn validating_a_fleet_record_makes_no_allocator_call() {
    let sim = SiliconSim::default_spartan();
    let mut rng = StdRng::seed_from_u64(7);
    let board = sim.grow_board_with_id(&mut rng, BoardId(0), 480, 16);
    let (tech, env, opts) = (
        sim.technology(),
        Environment::nominal(),
        EnrollOptions::default(),
    );
    let enrollment =
        ConfigurableRoPuf::tiled_interleaved(480, 7).enroll_seeded(7, &board, tech, env, &opts);
    assert_eq!(enrollment.pairs().len(), 34);
    let envelope = enrollment_to_bytes(&enrollment);
    let device = Device::resume(&board, tech, env, opts, enrollment).expect("usable bits");
    let key_code = device
        .issue_key(7, 3)
        .expect("a repetition-3 key")
        .to_bytes();

    let (bits, calls) = counting_allocator::counted(|| expected_bits_from_bytes(&envelope));
    assert_eq!(
        bits.expect("a valid envelope"),
        device.enrollment().expected_bits()
    );
    assert_eq!(calls, 0, "allocator calls for the expected bits");

    let (code, calls) = counting_allocator::counted(|| KeyCode::from_bytes(&key_code));
    assert_eq!(code.expect("a valid Key Code").to_bytes(), key_code);
    assert_eq!(calls, 0, "allocator calls for the Key Code");
}
