//! End-to-end pipeline tests over simulated silicon: fabricate →
//! calibrate → select → respond, across schemes and environments.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ropuf::core::one_of_eight::OneOfEightPuf;
use ropuf::core::puf::{ConfigurableRoPuf, EnrollOptions, SelectionMode};
use ropuf::core::traditional::TraditionalRoPuf;
use ropuf::core::ParityPolicy;
use ropuf::metrics::reliability::FlipSummary;
use ropuf::num::bits::BitVec;
use ropuf::silicon::{Board, DelayProbe, Environment, SiliconSim, Technology};

const STAGES: usize = 7;
const UNITS: usize = 8 * STAGES * 12; // 12 groups -> 48 pairs / 12 one-of-8 bits

fn grow(seed: u64) -> (Board, Technology) {
    let mut sim = SiliconSim::default_spartan();
    let mut rng = StdRng::seed_from_u64(seed);
    let board = sim.grow_board(&mut rng, UNITS, 32);
    (board, *sim.technology())
}

fn corners() -> Vec<Environment> {
    Environment::voltage_sweep(25.0)
        .into_iter()
        .chain(Environment::temperature_sweep(1.20))
        .filter(|e| *e != Environment::nominal())
        .collect()
}

/// Flip rate of a scheme across every corner, with fresh measurement
/// noise per read.
fn corner_flip_rate(
    baseline: &BitVec,
    mut respond: impl FnMut(&mut StdRng, Environment) -> BitVec,
    rng: &mut StdRng,
) -> f64 {
    let samples: Vec<BitVec> = corners().into_iter().map(|env| respond(rng, env)).collect();
    FlipSummary::against_baseline(baseline, &samples).flip_rate()
}

#[test]
fn reliability_ordering_one_of_eight_configurable_traditional() {
    // The paper's Figure 4 ordering: traditional is the least reliable,
    // the configurable PUF is much better, 1-out-of-8 is flip-free.
    let mut trad_total = 0.0;
    let mut conf_total = 0.0;
    let mut one8_total = 0.0;
    for seed in 0..3 {
        let (board, tech) = grow(seed);
        let mut rng = StdRng::seed_from_u64(1000 + seed);
        let probe = DelayProbe::new(0.25, 1);
        let env0 = Environment::nominal();

        let trad = TraditionalRoPuf::tiled(UNITS, STAGES)
            .enroll(&mut rng, &board, &tech, env0, &probe, 0.0);
        trad_total += corner_flip_rate(
            &trad.expected_bits(),
            |rng, env| trad.respond(rng, &board, &tech, env, &probe),
            &mut rng,
        );

        let conf = ConfigurableRoPuf::tiled(UNITS, STAGES).enroll(
            &mut rng,
            &board,
            &tech,
            env0,
            &EnrollOptions::default(),
        );
        conf_total += corner_flip_rate(
            &conf.expected_bits(),
            |rng, env| conf.respond(rng, &board, &tech, env, &probe),
            &mut rng,
        );

        let one8 =
            OneOfEightPuf::tiled(UNITS, STAGES).enroll(&mut rng, &board, &tech, env0, &probe);
        one8_total += corner_flip_rate(
            &one8.expected_bits(),
            |rng, env| one8.respond(rng, &board, &tech, env, &probe),
            &mut rng,
        );
    }
    assert!(
        one8_total <= conf_total + 1e-12,
        "1-of-8 {one8_total} !<= configurable {conf_total}"
    );
    assert!(
        conf_total < trad_total,
        "configurable {conf_total} !< traditional {trad_total}"
    );
    assert_eq!(one8_total, 0.0, "1-out-of-8 must be flip-free");
}

#[test]
fn enrollment_is_deterministic_per_seed() {
    let (board, tech) = grow(9);
    let puf = ConfigurableRoPuf::tiled(UNITS, STAGES);
    let enroll = |seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        puf.enroll(
            &mut rng,
            &board,
            &tech,
            Environment::nominal(),
            &EnrollOptions::default(),
        )
    };
    assert_eq!(enroll(5), enroll(5));
}

#[test]
fn case2_flips_no_more_than_case1() {
    let mut case1_flips = 0.0;
    let mut case2_flips = 0.0;
    for seed in 0..4 {
        let (board, tech) = grow(100 + seed);
        let probe = DelayProbe::new(0.25, 1);
        for (mode, acc) in [
            (SelectionMode::Case1, &mut case1_flips),
            (SelectionMode::Case2, &mut case2_flips),
        ] {
            let mut rng = StdRng::seed_from_u64(seed);
            let e = ConfigurableRoPuf::tiled(UNITS, 5).enroll(
                &mut rng,
                &board,
                &tech,
                Environment::nominal(),
                &EnrollOptions {
                    mode,
                    parity: ParityPolicy::Ignore,
                    ..EnrollOptions::default()
                },
            );
            *acc += corner_flip_rate(
                &e.expected_bits(),
                |rng, env| e.respond(rng, &board, &tech, env, &probe),
                &mut rng,
            );
        }
    }
    // Case-2's wider margins cannot make reliability worse in aggregate.
    assert!(
        case2_flips <= case1_flips + 0.02,
        "case2 {case2_flips} vs case1 {case1_flips}"
    );
}

#[test]
fn threshold_improves_reliability_and_costs_bits() {
    // §IV.E's tradeoff on live silicon: raising Rth cannot increase the
    // traditional scheme's flip rate, and strictly reduces bit count.
    let (board, tech) = grow(77);
    let mut rng = StdRng::seed_from_u64(7);
    let probe = DelayProbe::new(0.25, 1);
    let env0 = Environment::nominal();
    let puf = TraditionalRoPuf::tiled(UNITS, 5);

    let loose = puf.enroll(&mut rng, &board, &tech, env0, &probe, 0.0);
    let margins = loose.margins_ps();
    let mut sorted = margins.clone();
    sorted.sort_by(f64::total_cmp);
    let rth = sorted[sorted.len() / 2];
    let strict = puf.enroll(&mut rng, &board, &tech, env0, &probe, rth);

    assert!(strict.bit_count() < loose.bit_count());
    let loose_rate = corner_flip_rate(
        &loose.expected_bits(),
        |rng, env| loose.respond(rng, &board, &tech, env, &probe),
        &mut rng,
    );
    let strict_rate = corner_flip_rate(
        &strict.expected_bits(),
        |rng, env| strict.respond(rng, &board, &tech, env, &probe),
        &mut rng,
    );
    assert!(
        strict_rate <= loose_rate + 1e-12,
        "strict {strict_rate} !<= loose {loose_rate}"
    );
}

#[test]
fn configured_rings_oscillate_under_force_odd() {
    let (board, tech) = grow(55);
    let mut rng = StdRng::seed_from_u64(3);
    let enrollment = ConfigurableRoPuf::tiled(UNITS, 5).enroll(
        &mut rng,
        &board,
        &tech,
        Environment::nominal(),
        &EnrollOptions::default(), // ForceOdd
    );
    let counter = ropuf::silicon::FrequencyCounter::ideal();
    for pair in enrollment.pairs().iter().flatten() {
        let bound = enrollment.spec(pair).bind(&board);
        // Both rings must free-run: frequency measurement succeeds.
        bound
            .top()
            .frequency_mhz(
                &mut rng,
                &counter,
                pair.top_config(),
                Environment::nominal(),
                &tech,
            )
            .expect("top ring oscillates");
        bound
            .bottom()
            .frequency_mhz(
                &mut rng,
                &counter,
                pair.bottom_config(),
                Environment::nominal(),
                &tech,
            )
            .expect("bottom ring oscillates");
    }
}

#[test]
fn repeated_nominal_reads_are_stable() {
    let (board, tech) = grow(21);
    let mut rng = StdRng::seed_from_u64(13);
    let enrollment = ConfigurableRoPuf::tiled(UNITS, STAGES).enroll(
        &mut rng,
        &board,
        &tech,
        Environment::nominal(),
        &EnrollOptions::default(),
    );
    let probe = DelayProbe::new(0.25, 1);
    let baseline = enrollment.expected_bits();
    let reads: Vec<BitVec> = (0..50)
        .map(|_| enrollment.respond(&mut rng, &board, &tech, Environment::nominal(), &probe))
        .collect();
    let summary = FlipSummary::against_baseline(&baseline, &reads);
    assert_eq!(
        summary.flipped_position_count(),
        0,
        "nominal re-reads must be noise-immune thanks to margins"
    );
}
