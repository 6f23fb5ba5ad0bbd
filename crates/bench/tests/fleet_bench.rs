//! `repro fleet` end to end on a tiny fleet. The fleet-level reading
//! count is pinned in `ropuf-core`'s telemetry tests.

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
    assert!(out
        .render()
        .contains("deterministic (parallel == serial): yes"));
}
