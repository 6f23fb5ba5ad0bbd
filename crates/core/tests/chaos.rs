//! Chaos-drill integration tests: the fleet engine under injected
//! measurement faults.
//!
//! The contract under test (ISSUE 4 acceptance criteria):
//! 1. with fault injection enabled, `FleetEngine::run` completes with
//!    quarantined boards listed (typed reasons, counted in the
//!    [`FaultSummary`]) instead of panicking;
//! 2. parallel == serial bit-identical at 1/2/4/8 threads *under
//!    faults* — the fault schedule is part of the determinism
//!    guarantee;
//! 3. with all fault rates at zero, the run is identical to one with
//!    no fault layer configured at all.

use ropuf_core::fleet::{FleetConfig, FleetEngine, QuarantineReason};
use ropuf_core::fuzzy::FuzzyExtractor;
use ropuf_core::puf::{ConfigurableRoPuf, EnrollOptions};
use ropuf_core::robust::{enroll_robust, respond_robust_bound, FaultPlan};
use ropuf_num::bits::BitVec;
use ropuf_silicon::faults::FaultModel;
use ropuf_silicon::{DelayProbe, Environment, SiliconSim};

fn engine(boards: usize, faults: Option<FaultPlan>) -> FleetEngine {
    engine_at_threshold(boards, 0.0, faults)
}

fn engine_at_threshold(boards: usize, threshold_ps: f64, faults: Option<FaultPlan>) -> FleetEngine {
    FleetEngine::new(
        SiliconSim::default_spartan(),
        FleetConfig {
            boards,
            units: 60,
            cols: 6,
            stages: 3,
            opts: EnrollOptions {
                threshold_ps,
                ..EnrollOptions::default()
            },
            faults,
            ..FleetConfig::default()
        },
    )
    .expect("valid config")
}

/// A chaos plan hot enough to quarantine boards: the default model at
/// 8× injects read faults on roughly a third of reads and panics about
/// one board in twelve.
fn hot_plan() -> FaultPlan {
    let plan = FaultPlan::scaled(8.0);
    plan.validate().expect("valid plan");
    plan
}

#[test]
fn chaos_run_completes_with_quarantined_boards_and_no_panic() {
    let run = engine(24, Some(hot_plan())).run(7);
    assert!(
        !run.quarantined.is_empty(),
        "hot plan quarantines at least one board"
    );
    assert!(
        !run.records.is_empty(),
        "partial results are a success mode"
    );
    assert_eq!(
        run.records.len() + run.quarantined.len(),
        24,
        "every board is accounted for"
    );
    assert_eq!(
        run.faults.quarantined_boards as usize,
        run.quarantined.len(),
        "summary counts the quarantine set"
    );
    assert!(run.faults.injected_faults() > 0);
    assert!(run.faults.has_activity());
    for q in &run.quarantined {
        match &q.reason {
            QuarantineReason::WorkerPanic { message } => {
                assert!(
                    message.contains("injected fault"),
                    "payload preserved: {message}"
                );
            }
            QuarantineReason::CalibrationFailure {
                unreadable_pairs,
                total_pairs,
            } => {
                assert!(unreadable_pairs <= total_pairs);
            }
        }
    }
    // Board indices stay meaningful: records skip exactly the
    // quarantined indices.
    let mut indices: Vec<usize> = run
        .records
        .iter()
        .map(|r| r.board_index)
        .chain(run.quarantined.iter().map(|q| q.board_index))
        .collect();
    indices.sort_unstable();
    assert_eq!(indices, (0..24).collect::<Vec<_>>());
}

#[test]
fn parallel_equals_serial_bit_identical_under_faults() {
    let engine = engine(16, Some(hot_plan()));
    let serial = engine.run_serial(7);
    assert!(
        !serial.quarantined.is_empty(),
        "the comparison must cover quarantine outcomes"
    );
    for threads in [1, 2, 4, 8] {
        let parallel = engine.run_on(7, threads);
        assert_eq!(parallel.records, serial.records, "{threads} threads");
        assert_eq!(
            parallel.quarantined, serial.quarantined,
            "{threads} threads"
        );
        assert_eq!(parallel.faults, serial.faults, "{threads} threads");
    }
}

#[test]
fn quarantine_set_is_deterministic_across_runs() {
    let a = engine(24, Some(hot_plan())).run(7);
    let b = engine(24, Some(hot_plan())).run(7);
    assert_eq!(a.records, b.records);
    assert_eq!(a.quarantined, b.quarantined);
    assert_eq!(a.faults, b.faults);
}

#[test]
fn zero_rate_plan_is_identical_to_no_plan_at_all() {
    // At a 6 ps threshold this floorplan leaves 3 of the 12 boards with
    // no bits at all; a zero-rate plan must record them, as a plain run
    // does, rather than quarantine them.
    for threshold_ps in [0.0, 6.0] {
        let plain = engine_at_threshold(12, threshold_ps, None).run_on(7, 4);
        let zero = engine_at_threshold(12, threshold_ps, Some(FaultPlan::scaled(0.0))).run_on(7, 4);
        assert_eq!(zero.records, plain.records, "threshold {threshold_ps}");
        assert!(zero.quarantined.is_empty(), "threshold {threshold_ps}");
        assert!(plain.quarantined.is_empty(), "threshold {threshold_ps}");
        assert!(!zero.faults.has_activity());
        assert_eq!(zero.faults, plain.faults, "threshold {threshold_ps}");
        assert_eq!(zero.uniqueness(), plain.uniqueness());
        assert_eq!(zero.corner_flip_rates(), plain.corner_flip_rates());
        let empty = plain
            .records
            .iter()
            .filter(|r| r.expected_bits.is_empty())
            .count();
        assert_eq!(empty, if threshold_ps > 0.0 { 3 } else { 0 });
    }
}

#[test]
fn starved_calibration_quarantines_with_a_typed_reason() {
    // Heavy dropouts: even the full retry budget cannot collect
    // enough in-band samples, pairs become unreadable, and boards cross
    // the failed-pair sanity check.
    let plan = FaultPlan {
        model: FaultModel {
            drop_rate: 0.6,
            stuck_rate: 0.2,
            glitch_rate: 0.0,
            flaky_rate: 0.0,
            panic_rate: 0.0,
            ..FaultModel::default()
        },
    };
    plan.validate().expect("valid plan");
    let run = engine(8, Some(plan)).run(3);
    assert!(!run.quarantined.is_empty());
    assert!(run
        .quarantined
        .iter()
        .all(|q| matches!(q.reason, QuarantineReason::CalibrationFailure { .. })));
    assert!(run.faults.unreadable_pairs > 0);
    // Statistics never panic on whatever survived.
    let _ = run.uniqueness();
    let _ = run.corner_flip_rates();
}

#[test]
fn invalid_fault_plans_are_rejected_at_engine_construction() {
    let bad_model = FaultPlan {
        model: FaultModel {
            drop_rate: 1.5,
            ..FaultModel::default()
        },
    };
    assert!(FleetEngine::new(
        SiliconSim::default_spartan(),
        FleetConfig {
            faults: Some(bad_model),
            ..FleetConfig::default()
        },
    )
    .is_err());
}

/// Satellite: keys derived from enrolled bits survive the default
/// fault-rate chaos sweep — injected faults are repaired (or erased)
/// well inside the repetition-code radius.
#[test]
fn fuzzy_keys_survive_the_default_chaos_sweep() {
    let mut sim = SiliconSim::default_spartan();
    let mut grow_rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
    let board = sim.grow_board(&mut grow_rng, 300, 15);
    let puf = ConfigurableRoPuf::tiled_interleaved(300, 5);
    let opts = EnrollOptions::default();
    let env = Environment::nominal();
    let plan = FaultPlan::scaled(1.0);
    let enrolled = enroll_robust(&puf, 11, &board, sim.technology(), env, &opts, &plan);
    assert_eq!(
        enrolled.unreadable_pairs, 0,
        "default rates never starve a pair"
    );
    let bits = enrolled.enrollment.expected_bits();
    assert_eq!(bits.len(), 30);

    let fx = FuzzyExtractor::new(5);
    let mut gen_rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(17);
    let (key, helper) = fx.generate(&mut gen_rng, &bits);

    let probe = DelayProbe::new(0.25, 1);
    let bound = enrolled.enrollment.bind(&board);
    for seed in [100u64, 200, 300] {
        let (response, summary) =
            respond_robust_bound(&bound, seed, sim.technology(), env, &probe, 1, &plan);
        assert!(summary.injected_faults() > 0, "the sweep actually injected");
        // Erased bits fall back to 0 — the fuzzy extractor's block
        // majority absorbs them like any other error.
        let noisy: BitVec = response.iter().map(|b| b.unwrap_or(false)).collect();
        let reproduced = fx.reproduce(&noisy, &helper).expect("well-formed helper");
        assert_eq!(reproduced, key, "key survives chaos at seed {seed}");
    }
}
