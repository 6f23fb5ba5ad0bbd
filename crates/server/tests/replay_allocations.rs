//! Allocator calls of a store replay, and the size of a served device.
//!
//! The counting allocator sees every allocation in this process, so
//! this binary holds a single test: nothing else allocates while it
//! measures.

#[path = "../../core/tests/counting_allocator/mod.rs"]
mod counting_allocator;

use rand::rngs::StdRng;
use rand::SeedableRng;
use ropuf_core::lifecycle::Device;
use ropuf_core::persist::enrollment_to_bytes;
use ropuf_core::puf::{ConfigurableRoPuf, EnrollOptions};
use ropuf_core::robust::FaultPlan;
use ropuf_server::store::DeviceState;
use ropuf_server::{FsyncPolicy, Store};
use ropuf_silicon::board::BoardId;
use ropuf_silicon::{Environment, SiliconSim};

/// Replaying records of the `repro fleet` floorplan (480 units on a
/// 16-wide grid, 7 stages, interleaved: 34 expected bits and a
/// repetition-3 Key Code) into one shard allocates per shard, not per
/// record: a record validates into a `DeviceState` that holds its bits
/// and helper in place, so the index's hash table is the only thing
/// that grows, and 2,000 records take a few calls more than 1,000. A
/// served device is one hash slot of its id and at most 152 bytes.
#[test]
fn replay_allocates_per_shard_not_per_record() {
    assert!(
        size_of::<DeviceState>() <= 152,
        "DeviceState takes {} bytes",
        size_of::<DeviceState>()
    );
    let sim = SiliconSim::default_spartan();
    let mut rng = StdRng::seed_from_u64(7);
    let board = sim.grow_board_with_id(&mut rng, BoardId(0), 480, 16);
    let (device, code) = Device::start(
        &board,
        sim.technology(),
        Environment::nominal(),
        ConfigurableRoPuf::tiled_interleaved(480, 7),
        EnrollOptions::default(),
    )
    .generate_key(7, 3, &FaultPlan::scaled(0.0))
    .expect("clean-silicon enrollment succeeds");
    assert_eq!(device.enrollment().bit_count(), 34);
    let (enrollment, key_code) = (enrollment_to_bytes(device.enrollment()), code.to_bytes());

    let replay_calls = |records: u64| {
        let dir = std::env::temp_dir().join(format!(
            "ropuf-replay-allocations-{}-{records}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        {
            let store = Store::open(&dir, 1, FsyncPolicy::Batched).expect("store opens");
            for id in 0..records {
                store.enroll(id, &enrollment, &key_code).expect("enrolls");
            }
        }
        let (store, calls) = counting_allocator::counted(|| {
            Store::open(&dir, 1, FsyncPolicy::Batched).expect("store reopens")
        });
        assert_eq!(store.len() as u64, records);
        drop(store);
        std::fs::remove_dir_all(&dir).expect("cleanup");
        calls
    };
    let (thousand, two_thousand) = (replay_calls(1_000), replay_calls(2_000));
    assert!(
        two_thousand <= thousand + 3,
        "replay took {thousand} allocator calls for 1,000 records and {two_thousand} for 2,000"
    );
}
