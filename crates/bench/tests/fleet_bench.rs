//! `repro fleet` end to end on a tiny fleet, including the exact
//! measurement counters of its instrumented pass.
//!
//! The benchmark counts under [`ropuf_telemetry::scoped`], and telemetry
//! is process-global: a fleet run by another test in the same binary,
//! outside any scope, would be counted too. This test therefore lives in
//! a test binary of its own.

use ropuf_bench::experiments::fleet_engine::{run, Config};

#[test]
fn benchmark_runs_and_stays_deterministic() {
    let out = run(&Config {
        boards: 8,
        units: 80,
        stages: 4,
        threads: Some(2),
        ..Config::default()
    });
    assert!(out.deterministic);
    assert_eq!(out.boards, 8);
    assert_eq!(out.bits_per_board, 10);
    assert!(out.boards_per_sec > 0.0);
    assert!(out.uniqueness.expect("comparable boards") > 0.2);
    assert_eq!(out.corners.len(), 3);
    let json = out.to_json();
    assert!(json.contains("\"speedup\""));
    assert!(json.contains("\"deterministic\": true"));
    assert!(json.contains("\"stages\""));
    assert!(out
        .render()
        .contains("deterministic (parallel == serial): yes"));
    // The telemetry scope around the parallel pass must have seen
    // every board; durations may round to 0 µs on a fast machine,
    // but the counters are exact.
    assert_eq!(out.stages.boards, 8);
    // Enrollment is fully batched: (stages + 2) measurements per
    // ring, 2 rings per pair, 10 pairs, 8 boards — and nothing on
    // the fallback path.
    assert_eq!(out.stages.batched_measurements, (4 + 2) * 2 * 10 * 8);
    assert_eq!(out.stages.fallback_measurements, 0);
    assert!(out.calibration.kernel_speedup > 0.0);
    assert!(json.contains("\"calibration\""));
    assert!(json.contains("\"batched_measurements\""));
}
