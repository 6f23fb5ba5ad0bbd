//! Integration tests for the fleet health observatory: a healthy fleet
//! reads all-ok, aging drift trips an alarm, and monitoring never
//! perturbs the fleet's bits.

use ropuf_core::fleet::{FleetAging, FleetConfig, FleetEngine};
use ropuf_core::monitor::{FleetObservatory, SweepPlan};
use ropuf_silicon::aging::AgingModel;
use ropuf_silicon::SiliconSim;
use ropuf_telemetry::health::{Baseline, Status};

fn fleet() -> FleetConfig {
    FleetConfig {
        boards: 16,
        units: 120,
        cols: 8,
        stages: 5,
        ..FleetConfig::default()
    }
}

/// [`fleet`] observed at the `sweep` corners, optionally aged, on
/// `threads` workers.
fn observed(sweep: SweepPlan, aging: Option<FleetAging>, threads: usize) -> FleetConfig {
    FleetConfig {
        corners: sweep.corners(),
        aging,
        threads: Some(threads),
        ..fleet()
    }
}

/// A pessimistic process corner of the aging model: the default BTI
/// numbers with ~7x the device dispersion. Margins built by Case-2
/// selection absorb the default model for years; monitoring exists for
/// the fleets that did not get that luck.
fn harsh_aging(years: f64) -> FleetAging {
    FleetAging {
        model: AgingModel {
            sigma_drift_rel: 0.02,
            ..AgingModel::default()
        },
        years,
    }
}

#[test]
fn healthy_fleet_reads_all_ok_across_the_full_sweep() {
    let mut obs = FleetObservatory::new(
        SiliconSim::default_spartan(),
        observed(SweepPlan::Full, None, 1),
    )
    .unwrap();
    let health = obs.sample(7, &[]);
    assert_eq!(
        health.report.overall,
        Status::Ok,
        "{}",
        health.report.render()
    );
    assert!(health.report.gauges.len() >= 10);
}

#[test]
fn aging_drift_flips_a_gauge_while_the_fresh_fleet_stays_ok() {
    let mut obs = FleetObservatory::new(
        SiliconSim::default_spartan(),
        observed(SweepPlan::Full, Some(harsh_aging(6.0)), 1),
    )
    .unwrap();
    let health = obs.sample(7, &[]);
    // The fresh-silicon gauges are untouched by the aged pass...
    for gauge in health
        .report
        .gauges
        .iter()
        .filter(|g| !g.name.starts_with("aged_"))
    {
        assert_eq!(
            gauge.status,
            Status::Ok,
            "{} unexpectedly {:?}",
            gauge.name,
            gauge.status
        );
    }
    // ...while ≥5 years of pessimistic-corner drift trips an alarm.
    let tripped: Vec<_> = health
        .report
        .gauges
        .iter()
        .filter(|g| g.name.starts_with("aged_") && g.status >= Status::Warn)
        .map(|g| g.name)
        .collect();
    assert!(!tripped.is_empty(), "{}", health.report.render());
    assert!(health.report.overall >= Status::Warn);
}

#[test]
fn monitoring_does_not_perturb_fleet_outputs() {
    let config = observed(SweepPlan::Voltage, Some(harsh_aging(6.0)), 2);
    let mut obs = FleetObservatory::new(SiliconSim::default_spartan(), config).unwrap();
    // A plain engine over the identical fleet configuration (the
    // observatory's own resolved config, aging stripped).
    let engine = FleetEngine::new(SiliconSim::default_spartan(), obs.config().clone()).unwrap();
    let bare = engine.run_on(99, 2);
    let health = obs.sample(99, &[]);
    assert_eq!(health.fresh.records, bare.records);
    // The aged pass shares the enrollment stream: identical enrolled
    // bits, possibly different response flips.
    let aged = health.aged.expect("aging configured");
    for (fresh, aged) in health.fresh.records.iter().zip(&aged.records) {
        assert_eq!(fresh.expected_bits, aged.expected_bits);
        assert_eq!(fresh.margins_ps, aged.margins_ps);
    }
}

#[test]
fn fabricated_baseline_trips_the_drift_alarm() {
    let build = || {
        FleetObservatory::new(
            SiliconSim::default_spartan(),
            observed(SweepPlan::Nominal, None, 1),
        )
        .unwrap()
    };
    // Level classification alone is happy with this fleet...
    let mut obs = build();
    assert_eq!(obs.sample(5, &[]).report.overall, Status::Ok);
    // ...but against a baseline claiming the fleet used to flip half
    // its bits, the drift watch must scream.
    let mut obs = build();
    obs.set_baseline(Baseline {
        values: vec![("flip_rate_nominal".to_string(), 0.5)],
    });
    let health = obs.sample(5, &[]);
    let nominal = health
        .report
        .gauges
        .iter()
        .find(|g| g.name == "flip_rate_nominal")
        .unwrap();
    assert_eq!(nominal.drift_status, Some(Status::Critical));
    assert_eq!(nominal.level_status, Status::Ok);
    assert_eq!(nominal.status, Status::Critical);
    assert_eq!(health.report.overall, Status::Critical);
}

#[test]
fn enrolled_baseline_round_trips_through_json() {
    let mut obs = FleetObservatory::new(
        SiliconSim::default_spartan(),
        observed(SweepPlan::Nominal, None, 1),
    )
    .unwrap();
    let baseline = obs.enroll_baseline(5, &[]);
    let parsed = Baseline::parse(&baseline.to_json()).unwrap();
    assert_eq!(parsed.values, baseline.values);
    obs.set_baseline(parsed);
    // Same seed: zero drift everywhere, still all-ok.
    let health = obs.sample(5, &[]);
    assert_eq!(health.report.overall, Status::Ok);
    for gauge in &health.report.gauges {
        assert_eq!(gauge.drift, Some(0.0), "{}", gauge.name);
    }
}

#[test]
fn reports_render_in_all_three_formats() {
    let mut obs = FleetObservatory::new(
        SiliconSim::default_spartan(),
        observed(SweepPlan::Nominal, None, 1),
    )
    .unwrap();
    let health = obs.sample(7, &[]);
    let json = health.report.to_json();
    assert!(json.contains("\"version\": 1"));
    assert!(json.contains("\"overall\": \"ok\""));
    assert!(json.contains("\"uniqueness\""));
    let prom = health.report.render_prometheus("ropuf_");
    assert!(prom.contains("# TYPE ropuf_uniqueness gauge"));
    assert!(prom.contains("ropuf_health_overall 0"));
    assert!(prom
        .lines()
        .any(|l| l.starts_with("ropuf_health_status{gauge=\"flip_rate_nominal\"}")));
    let human = health.report.render();
    assert!(human.contains("flip_rate_nominal"));
    assert!(human.contains("ok"));
}
