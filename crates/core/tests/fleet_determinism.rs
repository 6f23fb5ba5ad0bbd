//! Determinism guarantees of the fleet engine: the parallel run must be
//! byte-identical to the serial reference for the same master seed, and
//! the per-board seed split must never collide.

use proptest::prelude::*;
use ropuf_core::fleet::{split_seed, FleetConfig, FleetEngine};
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

#[test]
fn parallel_fleet_matches_serial_reference_bits() {
    let engine = engine(12);
    let serial = engine.run_serial(7);
    for threads in [2, 3, 8] {
        let parallel = engine.run_on(7, threads);
        assert_eq!(
            parallel.expected_bits(),
            serial.expected_bits(),
            "threads = {threads}"
        );
        assert_eq!(parallel.records, serial.records, "threads = {threads}");
    }
    // The auto-sized run (RAYON_NUM_THREADS / available parallelism)
    // agrees too.
    assert_eq!(engine.run(7).records, serial.records);
}

#[test]
fn runs_are_repeatable() {
    let engine = engine(6);
    assert_eq!(engine.run_on(99, 4).records, engine.run_on(99, 4).records);
}

/// The health observatory is an observer: running the fleet under
/// monitoring (scoped sink, gauge sampling, aged side-pass) yields
/// byte-identical records to the bare engine.
#[test]
fn monitoring_does_not_perturb_determinism() {
    use ropuf_core::fleet::FleetAging;
    use ropuf_core::monitor::{FleetObservatory, SweepPlan};

    let engine = engine(10);
    let bare = engine.run_serial(33);
    let mut obs = FleetObservatory::new(
        SiliconSim::default_spartan(),
        FleetConfig {
            corners: SweepPlan::Nominal.corners(),
            aging: Some(FleetAging {
                model: Default::default(),
                years: 5.0,
            }),
            threads: Some(1),
            ..engine.config().clone()
        },
    )
    .expect("valid monitor config");
    // The observatory samples other corners than the bare engine;
    // compare the bits and margins, which only depend on enrollment —
    // enrollment streams are untouched by corners, monitoring, aging.
    let health = obs.sample(33, &[]);
    for (bare, monitored) in bare.records.iter().zip(&health.fresh.records) {
        assert_eq!(bare.board_seed, monitored.board_seed);
        assert_eq!(bare.expected_bits, monitored.expected_bits);
        assert_eq!(bare.margins_ps, monitored.margins_ps);
    }
}

proptest! {
    #[test]
    fn batched_fleet_is_thread_and_fault_invariant(
        master in any::<u64>(),
        fault_scale in proptest::sample::select(vec![0.0f64, 0.25, 1.0]),
        votes in proptest::sample::select(vec![1usize, 3]),
    ) {
        // The batched measurement kernel sits on the fleet hot path; a
        // thread- or fault-plan-dependent divergence there would show up
        // as records differing between the serial reference and any
        // parallel schedule. Quarantine decisions and fault accounting
        // must be schedule-independent too.
        use ropuf_core::robust::FaultPlan;
        let mut config = engine(4).config().clone();
        config.votes = votes;
        config.faults = Some(FaultPlan::scaled(fault_scale));
        let engine = FleetEngine::new(SiliconSim::default_spartan(), config)
            .expect("valid fleet config");
        let serial = engine.run_serial(master);
        for threads in [2usize, 4, 8] {
            let parallel = engine.run_on(master, threads);
            prop_assert_eq!(&parallel.records, &serial.records, "threads = {}", threads);
            prop_assert_eq!(&parallel.quarantined, &serial.quarantined, "threads = {}", threads);
            prop_assert_eq!(parallel.faults, serial.faults, "threads = {}", threads);
        }
    }

    #[test]
    fn adjacent_board_seeds_never_collide(master in any::<u64>(), index in 0u64..u64::MAX - 64) {
        for offset in 1u64..=64 {
            prop_assert_ne!(
                split_seed(master, index),
                split_seed(master, index + offset),
                "master {} index {} offset {}", master, index, offset
            );
        }
    }

    #[test]
    fn seed_split_windows_are_collision_free(master in any::<u64>(), start in 0u64..u64::MAX - 512) {
        let seeds: std::collections::HashSet<u64> =
            (start..start + 512).map(|i| split_seed(master, i)).collect();
        prop_assert_eq!(seeds.len(), 512);
    }

    #[test]
    fn seed_split_separates_masters(master in any::<u64>(), index in any::<u64>()) {
        prop_assert_ne!(
            split_seed(master, index),
            split_seed(master.wrapping_add(1), index)
        );
    }
}
