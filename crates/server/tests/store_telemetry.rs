//! Exact counts of the store's replay telemetry. This is a test binary
//! of its own: a telemetry scope counts everything the process emits,
//! so no other test may open a store while it runs.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use ropuf_core::lifecycle::Device;
use ropuf_core::persist::enrollment_to_bytes;
use ropuf_core::puf::{ConfigurableRoPuf, EnrollOptions};
use ropuf_core::robust::FaultPlan;
use ropuf_server::{FsyncPolicy, Store};
use ropuf_silicon::board::BoardId;
use ropuf_silicon::{Environment, SiliconSim};
use ropuf_telemetry::{self as telemetry, MemorySink};

#[test]
fn open_reports_one_replay_span_per_shard_and_counts_records_and_bytes() {
    let sim = SiliconSim::default_spartan();
    let mut rng = StdRng::seed_from_u64(4);
    let board = sim.grow_board_with_id(&mut rng, BoardId(4), 80, 12);
    let (device, code) = Device::start(
        &board,
        sim.technology(),
        Environment::nominal(),
        ConfigurableRoPuf::tiled_interleaved(board.len(), 4),
        EnrollOptions::default(),
    )
    .generate_key(4, 3, &FaultPlan::scaled(0.0))
    .expect("clean-silicon enrollment succeeds");
    let (enrollment, key_code) = (enrollment_to_bytes(device.enrollment()), code.to_bytes());

    let dir = std::env::temp_dir().join(format!("ropuf-store-telemetry-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    {
        let store = Store::open(&dir, 3, FsyncPolicy::Batched).expect("store opens");
        for id in 0..4 {
            store.enroll(id, &enrollment, &key_code).expect("enrolls");
        }
        store
            .supersede(1, &enrollment, &key_code)
            .expect("supersedes");
        assert!(store.revoke(2).expect("revokes"));
    }
    let bytes: u64 = (0..3)
        .map(|i| {
            std::fs::metadata(dir.join(format!("shard_{i:03}.log")))
                .expect("shard exists")
                .len()
        })
        .sum();

    let sink = Arc::new(MemorySink::default());
    let store = telemetry::scoped(sink.clone(), || {
        Store::open(&dir, 3, FsyncPolicy::Batched).expect("store reopens")
    });
    assert_eq!(store.len(), 3);
    let spans = sink.spans();
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
    assert_eq!(count("serve.store.open"), 1);
    assert_eq!(count("serve.store.replay"), 3);
    let snapshot = sink.snapshot().expect("flushed at scope end");
    assert_eq!(snapshot.counter("serve.store.records_replayed"), Some(6));
    assert_eq!(snapshot.counter("serve.store.bytes_replayed"), Some(bytes));
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
