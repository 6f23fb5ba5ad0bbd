//! Security-oriented integration tests: key derivation through the fuzzy
//! extractor, helper-data persistence, and the modeling-attack asymmetry
//! between reconfigurable and configurable deployments.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ropuf::attack::model::LinearDelayAttack;
use ropuf::core::crp::{respond as crp_respond, Challenge};
use ropuf::core::fleet::split_seed;
use ropuf::core::fuzzy::FuzzyExtractor;
use ropuf::core::persist::{enrollment_from_text, enrollment_to_text};
use ropuf::core::puf::{ConfigurableRoPuf, EnrollOptions};
use ropuf::core::ro::RoPair;
use ropuf::core::ParityPolicy;
use ropuf::silicon::board::BoardId;
use ropuf::silicon::{AgingModel, DelayProbe, Environment, SiliconSim};

#[test]
fn end_to_end_key_lifecycle_with_helper_data() {
    // Enroll → derive key via fuzzy extractor → persist enrollment +
    // helper → reload → rederive the same key at a corner, years later.
    let mut sim = SiliconSim::default_spartan();
    let mut rng = StdRng::seed_from_u64(11);
    let board = sim.grow_board(&mut rng, 64 * 2 * 7, 32);
    let puf = ConfigurableRoPuf::tiled_interleaved(board.len(), 7);
    let env0 = Environment::nominal();
    let enrollment = puf.enroll(
        &mut rng,
        &board,
        sim.technology(),
        env0,
        &EnrollOptions::default(),
    );

    let fx = FuzzyExtractor::new(3);
    let probe = DelayProbe::new(0.25, 1);
    let response0 = enrollment.respond(&mut rng, &board, sim.technology(), env0, &probe);
    let (key, helper) = fx.generate(&mut rng, &response0);
    assert!(key.len() >= 16);

    // The verifier stores only text: the enrollment and the helper.
    let stored_enrollment = enrollment_to_text(&enrollment);
    let stored_helper = helper.to_binary_string();

    // Years later, at a corner, on aged silicon.
    let aged = AgingModel::default().age_board(&mut rng, &board, 5.0);
    let reloaded = enrollment_from_text(&stored_enrollment).expect("valid stored enrollment");
    let helper = ropuf::num::bits::BitVec::from_binary_str(&stored_helper).expect("valid helper");
    let corner = Environment::new(1.32, 55.0);
    let response1 = reloaded.respond_majority(&mut rng, &aged, sim.technology(), corner, &probe, 5);
    let rederived = fx
        .reproduce(&response1, &helper)
        .expect("well-formed helper");
    assert_eq!(rederived, key, "key must survive corner + aging");
}

#[test]
fn reconfigurable_crp_interface_is_modelable() {
    let mut sim = SiliconSim::default_spartan();
    let mut rng = StdRng::seed_from_u64(13);
    let n = 9;
    let board = sim.grow_board(&mut rng, 2 * n, n);
    let pair = RoPair::split_range(&board, 0..2 * n);
    let probe = DelayProbe::new(0.25, 1);
    let env = Environment::nominal();

    let crps: Vec<(Challenge, bool)> = (0..400)
        .map(|_| {
            let c = Challenge::random(&mut rng, n, ParityPolicy::Ignore);
            let r = crp_respond(&mut rng, &pair, &c, &probe, env, sim.technology());
            (c, r)
        })
        .collect();
    let (train, test) = crps.split_at(200);
    let (tc, tr): (Vec<_>, Vec<_>) = train.iter().cloned().unzip();
    let model = LinearDelayAttack::train(&tc, &tr).expect("enough CRPs");
    let (xc, xr): (Vec<_>, Vec<_>) = test.iter().cloned().unzip();
    assert!(
        model.accuracy(&xc, &xr) > 0.9,
        "the linear attack must break the CRP interface"
    );
}

#[test]
fn fixed_configuration_remains_stable_for_the_attacker_to_observe() {
    // The configurable deployment's entire observable behaviour is one
    // bit per pair, constant across reads — i.e. nothing beyond the
    // enrolled response ever leaks.
    let mut sim = SiliconSim::default_spartan();
    let mut rng = StdRng::seed_from_u64(17);
    let board = sim.grow_board(&mut rng, 140, 16);
    let puf = ConfigurableRoPuf::tiled(140, 7);
    let env = Environment::nominal();
    let e = puf.enroll(
        &mut rng,
        &board,
        sim.technology(),
        env,
        &EnrollOptions::default(),
    );
    let probe = DelayProbe::new(0.25, 1);
    let first = e.respond(&mut rng, &board, sim.technology(), env, &probe);
    for _ in 0..30 {
        assert_eq!(
            e.respond(&mut rng, &board, sim.technology(), env, &probe),
            first
        );
    }
}

#[test]
fn helper_data_alone_does_not_determine_the_key() {
    // Device B reproducing device A's key from A's helper data gets an
    // unrelated key: the key is bound to the silicon, not the public
    // helper. One pair of 16-bit keys is too few to say so (a fair pair
    // lands at HD <= 4 about 4% of the time), so count the differing
    // bits over 64 device pairs. Fair, independent key bits differ as
    // Binomial(n, 1/2); the count must sit within 4 standard errors of
    // n/2.
    const PAIRS: u32 = 64;
    const UNITS: usize = 2 * 7 * 48;
    let sim = SiliconSim::default_spartan();
    let tech = sim.technology();
    let fx = FuzzyExtractor::new(3);
    let probe = DelayProbe::new(0.25, 1);
    let env = Environment::nominal();
    let puf = ConfigurableRoPuf::tiled_interleaved(UNITS, 7);
    // Device `id` on its own seeded streams: grow, enroll, read once.
    let response = |id: u32| {
        let seed = split_seed(19, id.into());
        let mut rng = StdRng::seed_from_u64(seed);
        let board = sim.grow_board_with_id(&mut rng, BoardId(id), UNITS, 32);
        let e = puf.enroll_seeded(
            split_seed(seed, 1),
            &board,
            tech,
            env,
            &EnrollOptions::default(),
        );
        e.respond(&mut rng, &board, tech, env, &probe)
    };
    let (mut differing, mut bits) = (0, 0);
    for pair in 0..PAIRS {
        let mut rng = StdRng::seed_from_u64(split_seed(20, pair.into()));
        let (key_a, helper) = fx.generate(&mut rng, &response(2 * pair));
        let key_b = fx
            .reproduce(&response(2 * pair + 1), &helper)
            .expect("well-formed helper");
        differing += key_a.hamming_distance(&key_b).unwrap();
        bits += key_a.len();
    }
    let half = bits as f64 / 2.0;
    let standard_error = (bits as f64).sqrt() / 2.0;
    assert!(
        (differing as f64 - half).abs() <= 4.0 * standard_error,
        "keys from one helper differ in {differing} of {bits} bits \
         (fair: {half} ± {standard_error:.1})"
    );
}
