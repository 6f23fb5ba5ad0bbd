//! Allocator calls of `Device::resume` on the `repro fleet` floorplan.
//!
//! The counting allocator sees every allocation in this process, so
//! this binary holds a single test: nothing else allocates while it
//! measures.

mod counting_allocator;

use rand::rngs::StdRng;
use rand::SeedableRng;
use ropuf_core::lifecycle::Device;
use ropuf_core::puf::{ConfigurableRoPuf, EnrollOptions};
use ropuf_silicon::board::BoardId;
use ropuf_silicon::{Environment, SiliconSim};

/// Resuming a device from a 34-pair enrollment (480 units on a 16-wide
/// grid, 7 stages, interleaved) makes no allocator call: the device
/// holds the enrollment it is given and no floorplan. Provisioning
/// resumes every board it issues a key for.
#[test]
fn fleet_device_resumes_without_allocating() {
    let sim = SiliconSim::default_spartan();
    let mut rng = StdRng::seed_from_u64(7);
    let board = sim.grow_board_with_id(&mut rng, BoardId(0), 480, 16);
    let opts = EnrollOptions::default();
    let env = Environment::nominal();
    let enrollment = ConfigurableRoPuf::tiled_interleaved(480, 7).enroll_seeded(
        7,
        &board,
        sim.technology(),
        env,
        &opts,
    );
    assert_eq!(enrollment.bit_count(), 34);
    let expected = enrollment.clone();

    let (device, calls) = counting_allocator::counted(|| {
        Device::resume(&board, sim.technology(), env, opts, enrollment)
    });

    assert_eq!(calls, 0, "allocator calls for one resume");
    assert_eq!(device.expect("34 usable bits").enrollment(), &expected);
}
