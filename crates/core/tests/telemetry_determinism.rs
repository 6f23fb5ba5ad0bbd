//! Telemetry must never perturb fleet determinism.
//!
//! This test asserts an exact counter under [`ropuf_telemetry::scoped`],
//! and telemetry is process-global: an engine run by another test in the
//! same binary, outside any scope, would be counted too. It therefore
//! lives in a test binary of its own.

use ropuf_core::fleet::{FleetConfig, FleetEngine, Layout};
use ropuf_core::puf::EnrollOptions;
use ropuf_silicon::{DelayProbe, Environment, SiliconSim};

fn engine(boards: usize) -> FleetEngine {
    FleetEngine::new(
        SiliconSim::default_spartan(),
        FleetConfig {
            boards,
            units: 80,
            cols: 8,
            stages: 4,
            layout: Layout::Interleaved,
            opts: EnrollOptions::default(),
            corners: vec![Environment::nominal(), Environment::new(1.32, 55.0)],
            response_probe: DelayProbe::new(0.25, 1),
            votes: 1,
            aging: None,
            faults: None,
            threads: None,
        },
    )
    .expect("valid fleet config")
}

/// Telemetry must never perturb determinism: the instrumentation reads
/// clocks, not RNG streams, so the bits are identical with tracing
/// enabled and disabled, parallel and serial alike.
#[test]
fn telemetry_does_not_perturb_determinism() {
    use std::sync::Arc;

    let engine = engine(10);
    // Tracing disabled (no sink installed).
    let serial_off = engine.run_serial(21);
    let parallel_off = engine.run_on(21, 4);
    assert_eq!(parallel_off.records, serial_off.records);
    // Tracing enabled via a scoped memory sink.
    let sink = Arc::new(ropuf_telemetry::MemorySink::default());
    let (serial_on, parallel_on) = ropuf_telemetry::scoped(sink.clone(), || {
        (engine.run_serial(21), engine.run_on(21, 4))
    });
    assert_eq!(serial_on.records, serial_off.records);
    assert_eq!(parallel_on.records, serial_off.records);
    // The sink really was live: both passes reported their boards.
    assert_eq!(
        sink.snapshot().and_then(|s| s.counter("fleet.boards")),
        Some(20)
    );
}
