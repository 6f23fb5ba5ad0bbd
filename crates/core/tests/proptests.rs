//! Property-based tests for the selection algorithms, calibration, and
//! distiller.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use ropuf_core::calibrate::{calibrate, calibrate_per_config};
use ropuf_core::config::ParityPolicy;
use ropuf_core::distill::Distiller;
use ropuf_core::ro::ConfigurableRo;
use ropuf_core::select::{
    brute_force_case1, brute_force_case2, case1, case1_with_offset, case2, case2_with_offset,
};
use ropuf_silicon::board::BoardId;
use ropuf_silicon::{DelayProbe, Environment, SiliconSim};

fn delay_vec(n: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(90.0f64..110.0, n..=n)
}

proptest! {
    #[test]
    fn case1_matches_brute_force(
        n in 1usize..9,
        seed in any::<u32>(),
        parity_odd in any::<bool>(),
    ) {
        let mut h = seed as u64 | 1;
        let mut next = move || { h ^= h << 13; h ^= h >> 7; h ^= h << 17; 100.0 + (h % 997) as f64 / 100.0 };
        let a: Vec<f64> = (0..n).map(|_| next()).collect();
        let b: Vec<f64> = (0..n).map(|_| next()).collect();
        let parity = if parity_odd { ParityPolicy::ForceOdd } else { ParityPolicy::Ignore };
        let fast = case1(&a, &b, parity);
        let brute = brute_force_case1(&a, &b, parity);
        prop_assert!((fast.margin() - brute.margin()).abs() < 1e-9);
        prop_assert!(parity.admits(fast.config().selected_count()));
    }

    #[test]
    fn case2_matches_brute_force(
        n in 1usize..7,
        seed in any::<u32>(),
        parity_odd in any::<bool>(),
    ) {
        let mut h = seed as u64 | 1;
        let mut next = move || { h ^= h << 13; h ^= h >> 7; h ^= h << 17; 100.0 + (h % 997) as f64 / 100.0 };
        let a: Vec<f64> = (0..n).map(|_| next()).collect();
        let b: Vec<f64> = (0..n).map(|_| next()).collect();
        let parity = if parity_odd { ParityPolicy::ForceOdd } else { ParityPolicy::Ignore };
        let fast = case2(&a, &b, parity);
        let brute = brute_force_case2(&a, &b, parity);
        prop_assert!((fast.margin() - brute.margin()).abs() < 1e-9,
            "fast {} brute {}", fast.margin(), brute.margin());
        prop_assert_eq!(fast.top().selected_count(), fast.bottom().selected_count());
    }

    #[test]
    fn case2_dominates_case1(a in delay_vec(8), b in delay_vec(8)) {
        let c1 = case1(&a, &b, ParityPolicy::Ignore);
        let c2 = case2(&a, &b, ParityPolicy::Ignore);
        prop_assert!(c2.margin() >= c1.margin() - 1e-9);
    }

    #[test]
    fn case1_margin_equals_config_evaluation(a in delay_vec(10), b in delay_vec(10)) {
        let s = case1(&a, &b, ParityPolicy::Ignore);
        let diff: f64 = s
            .config()
            .selected_indices()
            .iter()
            .map(|&i| a[i] - b[i])
            .sum();
        prop_assert!((s.margin() - diff.abs()).abs() < 1e-9);
        if s.margin() > 1e-9 {
            prop_assert_eq!(s.bit(), diff > 0.0);
        }
    }

    #[test]
    fn case2_margin_equals_config_evaluation(a in delay_vec(10), b in delay_vec(10)) {
        let s = case2(&a, &b, ParityPolicy::Ignore);
        let top: f64 = s.top().selected_indices().iter().map(|&i| a[i]).sum();
        let bottom: f64 = s.bottom().selected_indices().iter().map(|&i| b[i]).sum();
        prop_assert!((s.margin() - (top - bottom).abs()).abs() < 1e-9);
    }

    #[test]
    fn offset_variants_agree_with_shifted_objective(
        a in delay_vec(6),
        b in delay_vec(6),
        offset in -20.0f64..20.0,
    ) {
        // The with-offset margin must dominate every explicit subset we
        // can check against the zero-offset solutions.
        let s1 = case1_with_offset(&a, &b, offset, ParityPolicy::Ignore);
        let base = case1(&a, &b, ParityPolicy::Ignore);
        let base_cfg_diff: f64 = base
            .config()
            .selected_indices()
            .iter()
            .map(|&i| a[i] - b[i])
            .sum();
        prop_assert!(s1.margin() >= (offset + base_cfg_diff).abs() - 1e-9);
        prop_assert!(s1.margin() >= offset.abs() - 1e-9); // empty set reachable

        let s2 = case2_with_offset(&a, &b, offset, ParityPolicy::Ignore);
        prop_assert!(s2.margin() >= s1.margin() - 1e-9);
    }

    #[test]
    fn margins_scale_linearly(a in delay_vec(7), b in delay_vec(7), k in 0.1f64..10.0) {
        // Scaling all delays by k scales the optimal margin by k.
        let s = case1(&a, &b, ParityPolicy::Ignore);
        let ka: Vec<f64> = a.iter().map(|x| x * k).collect();
        let kb: Vec<f64> = b.iter().map(|x| x * k).collect();
        let sk = case1(&ka, &kb, ParityPolicy::Ignore);
        prop_assert!((sk.margin() - k * s.margin()).abs() < 1e-6 * (1.0 + k * s.margin()));
    }

    #[test]
    fn calibration_is_exact_without_noise(seed in any::<u64>(), n in 2usize..12) {
        let sim = SiliconSim::default_spartan();
        let mut rng = StdRng::seed_from_u64(seed);
        let board = sim.grow_board_with_id(&mut rng, BoardId(0), n, n);
        let ro = ConfigurableRo::from_range(&board, 0..n);
        let env = Environment::nominal();
        let cal = calibrate(&mut rng, &ro, &DelayProbe::noiseless(), env, sim.technology());
        let truth = ro.true_ddiffs_ps(env, sim.technology());
        for (e, t) in cal.ddiffs_ps().iter().zip(&truth) {
            prop_assert!((e - t).abs() < 1e-9);
        }
    }

    #[test]
    fn batched_calibration_is_bit_identical_to_per_config(
        seed in any::<u64>(),
        n in 1usize..10, // includes n = 1 and even (non-oscillating) stage counts
        sigma_tenths in 0u32..30,
        repeats in proptest::sample::select(vec![1usize, 2, 4]),
        hot in any::<bool>(),
    ) {
        // The batched SoA kernel must replay the exact noise-draw order
        // and floating-point folds of the per-configuration oracle, for
        // any ring size (the probe works even where a ring would not
        // free-run), any probe noise, and any environment.
        let sim = SiliconSim::default_spartan();
        let mut grow = StdRng::seed_from_u64(seed);
        let board = sim.grow_board_with_id(&mut grow, BoardId(0), n, n);
        let ro = ConfigurableRo::from_range(&board, 0..n);
        let probe = DelayProbe::new(sigma_tenths as f64 / 10.0, repeats);
        let env = if hot { Environment::new(0.98, 65.0) } else { Environment::nominal() };
        let mut rng_batched = StdRng::seed_from_u64(seed ^ 0x5eed);
        let mut rng_oracle = StdRng::seed_from_u64(seed ^ 0x5eed);
        let batched = calibrate(&mut rng_batched, &ro, &probe, env, sim.technology());
        let oracle = calibrate_per_config(&mut rng_oracle, &ro, &probe, env, sim.technology());
        prop_assert_eq!(
            batched.all_selected_ps().to_bits(),
            oracle.all_selected_ps().to_bits()
        );
        prop_assert_eq!(batched.bypass_ps().to_bits(), oracle.bypass_ps().to_bits());
        for (b, o) in batched.ddiffs_ps().iter().zip(oracle.ddiffs_ps()) {
            prop_assert_eq!(b.to_bits(), o.to_bits(), "n = {}", n);
        }
        // Both paths consumed the same number of draws: the streams are
        // still in lockstep afterwards.
        use rand::Rng;
        prop_assert_eq!(rng_batched.gen::<u64>(), rng_oracle.gen::<u64>());
    }

    #[test]
    fn distiller_exactly_removes_its_own_basis(
        coeffs in proptest::collection::vec(-5.0f64..5.0, 6),
    ) {
        // Any degree-2 surface must be annihilated by the degree-2
        // distiller.
        let pts: Vec<(f64, f64)> = (0..36)
            .map(|i| {
                let x = (i % 6) as f64 / 2.5 - 1.0;
                let y = (i / 6) as f64 / 2.5 - 1.0;
                (x, y)
            })
            .collect();
        let values: Vec<f64> = pts
            .iter()
            .map(|&(x, y)| {
                coeffs[0] + coeffs[1] * x + coeffs[2] * y + coeffs[3] * x * x
                    + coeffs[4] * x * y + coeffs[5] * y * y
            })
            .collect();
        let res = Distiller::new(2).residuals(&values, &pts).unwrap();
        for r in res {
            prop_assert!(r.abs() < 1e-8, "residual {r}");
        }
    }

    #[test]
    fn distiller_residuals_are_fit_orthogonal(values in proptest::collection::vec(-3.0f64..3.0, 25)) {
        let pts: Vec<(f64, f64)> = (0..25)
            .map(|i| ((i % 5) as f64 / 2.0 - 1.0, (i / 5) as f64 / 2.0 - 1.0))
            .collect();
        let d = Distiller::new(2);
        let res = d.residuals(&values, &pts).unwrap();
        // Residuals are orthogonal to every basis column — in particular
        // they sum to (numerically) zero.
        let sum: f64 = res.iter().sum();
        prop_assert!(sum.abs() < 1e-7, "sum {sum}");
    }
}

proptest! {
    #[test]
    fn fuzzy_extractor_round_trips_any_response(
        bits in proptest::collection::vec(any::<bool>(), 3..200),
        repetition in proptest::sample::select(vec![1usize, 3, 5, 7]),
        seed in any::<u64>(),
    ) {
        use ropuf_core::fuzzy::FuzzyExtractor;
        use ropuf_num::bits::BitVec;
        let response: BitVec = bits.iter().copied().collect();
        let fx = FuzzyExtractor::new(repetition);
        prop_assume!(fx.key_bits(response.len()) > 0);
        let mut rng = StdRng::seed_from_u64(seed);
        let (key, helper) = fx.generate(&mut rng, &response);
        prop_assert_eq!(fx.reproduce(&response, &helper).unwrap(), key);
    }

    #[test]
    fn fuzzy_extractor_corrects_within_radius(
        key_bits in 1usize..20,
        repetition in proptest::sample::select(vec![3usize, 5, 7]),
        seed in any::<u64>(),
    ) {
        use ropuf_core::fuzzy::FuzzyExtractor;
        use ropuf_num::bits::BitVec;
        let fx = FuzzyExtractor::new(repetition);
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        let response: BitVec = (0..key_bits * repetition).map(|_| rng.gen::<bool>()).collect();
        let (key, helper) = fx.generate(&mut rng, &response);
        // Flip exactly `correctable_errors` bits in every block.
        let t = fx.correctable_errors();
        let mut noisy = response.clone();
        for block in 0..key_bits {
            for j in 0..t {
                let idx = block * repetition + j;
                noisy.set(idx, !noisy.get(idx).unwrap());
            }
        }
        prop_assert_eq!(fx.reproduce(&noisy, &helper).unwrap(), key);
    }

    #[test]
    fn random_challenges_respect_structure(
        n in 1usize..24,
        seed in any::<u64>(),
        odd in any::<bool>(),
    ) {
        use ropuf_core::crp::Challenge;
        let parity = if odd { ParityPolicy::ForceOdd } else { ParityPolicy::Ignore };
        let mut rng = StdRng::seed_from_u64(seed);
        let c = Challenge::random(&mut rng, n, parity);
        prop_assert_eq!(c.top().len(), n);
        prop_assert_eq!(c.top().selected_count(), c.bottom().selected_count());
        if odd {
            prop_assert!(c.top().oscillates());
        }
    }

    #[test]
    fn soa_sweep_is_bit_identical_to_per_config_ring_walks(
        seed in any::<u64>(),
        // Per-ring stage counts: includes n = 1, even (non-oscillating)
        // counts, and rings shorter than the block (zero-padded).
        lens in proptest::collection::vec(1usize..9, 1..6),
        sigma_tenths in 0u32..30, // includes the noiseless probe
        repeats in proptest::sample::select(vec![1usize, 2, 4]),
        corner in 0usize..3,
    ) {
        // The structure-of-arrays sweep folds every configuration of a
        // whole block of rings at once; each ring's view of it must be
        // bit-identical to n + 2 per-configuration whole-ring walks —
        // same left-to-right stage folds, same noise-draw order — at
        // any ring position in the block, any padding, any noise, and
        // any V/T corner.
        use rand::Rng;
        use ropuf_core::ConfigVector;
        use ropuf_silicon::MeasureArena;
        let sim = SiliconSim::default_spartan();
        let mut grow = StdRng::seed_from_u64(seed);
        let units: usize = lens.iter().sum();
        let board = sim.grow_board_with_id(&mut grow, BoardId(0), units, 8);
        let env = match corner {
            0 => Environment::nominal(),
            1 => Environment::new(0.98, 65.0),
            _ => Environment::new(1.32, 0.0),
        };
        let probe = DelayProbe::new(sigma_tenths as f64 / 10.0, repeats);
        let tech = sim.technology();
        let mut start = 0;
        let ros: Vec<ConfigurableRo> = lens
            .iter()
            .map(|&n| {
                start += n;
                ConfigurableRo::from_range(&board, start - n..start)
            })
            .collect();
        let mut arena = MeasureArena::new();
        arena.begin_block(ros.len(), *lens.iter().max().unwrap());
        for (r, ro) in ros.iter().enumerate() {
            ro.stage_delays_into(env, tech, &mut arena, r);
        }
        let sweep = arena.sweep();
        for (r, ro) in ros.iter().enumerate() {
            let n = ro.len();
            let ring = sweep.ring(r, n);
            let swept = [ring.all_selected_ps(), ring.all_bypassed_ps()]
                .into_iter()
                .chain((0..n).map(|k| ring.all_but_ps(k)));
            let configs = [ConfigVector::all_selected(n), ConfigVector::from_flags(&vec![false; n])]
                .into_iter()
                .chain((0..n).map(|k| ConfigVector::all_but(n, k)));
            let mut rng_arena = StdRng::seed_from_u64(seed ^ r as u64);
            let mut rng_walk = StdRng::seed_from_u64(seed ^ r as u64);
            for (true_ps, config) in swept.zip(configs) {
                let walked_ps = ro.ring_delay_ps(&config, env, tech);
                prop_assert_eq!(true_ps.to_bits(), walked_ps.to_bits(), "ring {} of {}", r, ros.len());
                prop_assert_eq!(
                    probe.measure_ps(&mut rng_arena, true_ps).to_bits(),
                    probe.measure_ps(&mut rng_walk, walked_ps).to_bits()
                );
            }
            // Same number of noise draws: the streams stay in lockstep.
            prop_assert_eq!(rng_arena.gen::<u64>(), rng_walk.gen::<u64>());
        }
    }

    #[test]
    fn kernel_matches_per_ring_references_on_mixed_floorplans(
        seed in any::<u64>(),
        stages in proptest::collection::vec(1usize..10, 1..6),
        worst_case in any::<bool>(),
    ) {
        // The kernel lays pairs of every stage count into one block,
        // zero-padded to the longest ring. Through a reused arena it
        // must equal the ring-by-ring reference at any thread count,
        // and the shared-RNG path must equal a pair-major loop over
        // the per-configuration oracle: for each pair, top then bottom
        // at each enrollment corner in turn.
        use rand::Rng;
        use ropuf_core::puf::{ConfigurableRoPuf, EnrollOptions, PairSpec};
        use ropuf_core::select::{case2_multi_corner, case2_with_offset, CornerDelays};
        use ropuf_silicon::{CornerSet, MeasureArena};
        let sim = SiliconSim::default_spartan();
        let tech = sim.technology();
        let mut units = 0;
        let specs = stages
            .iter()
            .map(|&n| {
                units += 2 * n;
                PairSpec::interleaved_at(units - 2 * n, n)
            })
            .collect();
        let puf = ConfigurableRoPuf::new(specs);
        let mut grow = StdRng::seed_from_u64(seed);
        let board = sim.grow_board_with_id(&mut grow, BoardId(0), units, 8);
        let other = sim.grow_board_with_id(&mut grow, BoardId(1), 40, 8);
        let env = Environment::nominal();
        let opts = EnrollOptions {
            corners: if worst_case { CornerSet::worst_case() } else { CornerSet::empty() },
            ..EnrollOptions::default()
        };
        let mut arena = MeasureArena::new();
        let _dirty = ConfigurableRoPuf::tiled(40, 4)
            .enroll_seeded_in(seed ^ 1, &other, tech, env, &opts, &mut arena);
        let kernel = puf.enroll_seeded_in(seed, &board, tech, env, &opts, &mut arena);
        for threads in [1, 4] {
            prop_assert_eq!(&puf.enroll_par(seed, &board, tech, env, &opts, threads), &kernel);
        }

        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let shared = puf.enroll(&mut rng, &board, tech, env, &opts);
        let mut oracle_rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let corners = opts.enrollment_corners(env);
        for (spec, enrolled) in puf.specs().iter().zip(shared.pairs()) {
            let pair = spec.bind(&board);
            let cals: Vec<_> = corners
                .iter()
                .map(|&c| {
                    let top = calibrate_per_config(&mut oracle_rng, pair.top(), &opts.probe, c, tech);
                    let bottom = calibrate_per_config(&mut oracle_rng, pair.bottom(), &opts.probe, c, tech);
                    (top, bottom)
                })
                .collect();
            let delays: Vec<CornerDelays> = cals
                .iter()
                .map(|(t, b)| CornerDelays {
                    alpha: t.ddiffs_ps(),
                    beta: b.ddiffs_ps(),
                    offset_ps: t.bypass_ps() - b.bypass_ps(),
                })
                .collect();
            let s = match delays.as_slice() {
                [one] => case2_with_offset(one.alpha, one.beta, one.offset_ps, opts.parity),
                _ => case2_multi_corner(&delays, opts.parity),
            };
            // Across corners, a pair degenerate at any corner is excluded.
            if delays.len() > 1 && s.is_degenerate() {
                prop_assert!(enrolled.is_none());
                continue;
            }
            let enrolled = enrolled.as_ref().expect("default options keep the pair");
            prop_assert_eq!(enrolled.top_config(), s.top());
            prop_assert_eq!(enrolled.bottom_config(), s.bottom());
            prop_assert_eq!(enrolled.expected_bit(), s.bit());
            prop_assert_eq!(enrolled.margin_ps().to_bits(), s.margin().to_bits());
        }
        // Both drew exactly the same readings: the streams stay in lockstep.
        prop_assert_eq!(rng.gen::<u64>(), oracle_rng.gen::<u64>());
    }

    #[test]
    fn arena_reuse_has_no_cross_board_state(seed in any::<u64>(), stages in 2usize..6) {
        // A fleet worker enrolls board after board into one arena; a
        // block must never leak into the next. Enrolling a board,
        // dirtying the arena with a different board, then enrolling the
        // first again must reproduce its bits exactly — and agree with
        // the fresh-arena public entry point.
        use ropuf_core::puf::{ConfigurableRoPuf, EnrollOptions};
        use ropuf_silicon::MeasureArena;
        let sim = SiliconSim::default_spartan();
        let mut grow = StdRng::seed_from_u64(seed);
        let units = stages * 2 * 4;
        let board_a = sim.grow_board_with_id(&mut grow, BoardId(0), units, 8);
        let board_b = sim.grow_board_with_id(&mut grow, BoardId(1), units, 8);
        let puf = ConfigurableRoPuf::tiled(units, stages);
        let opts = EnrollOptions::default();
        let env = Environment::nominal();
        let tech = sim.technology();
        let mut arena = MeasureArena::new();
        let first = puf.enroll_seeded_in(seed, &board_a, tech, env, &opts, &mut arena);
        let _dirty = puf.enroll_seeded_in(seed ^ 1, &board_b, tech, env, &opts, &mut arena);
        let again = puf.enroll_seeded_in(seed, &board_a, tech, env, &opts, &mut arena);
        prop_assert_eq!(&first, &again);
        let fresh = puf.enroll_seeded(seed, &board_a, tech, env, &opts);
        prop_assert_eq!(&first, &fresh);
    }

    #[test]
    fn robust_arena_enrollment_is_reuse_invariant_under_faults(
        seed in any::<u64>(),
        stages in 2usize..6,
        fault_scale in proptest::sample::select(vec![0.0f64, 0.25, 1.0]),
    ) {
        // Same contract through the fault-tolerant path: a reused
        // (dirty) arena and a fresh one yield identical enrollments,
        // unreadable-pair counts, and fault accounting, with the fault
        // plan active.
        use ropuf_core::puf::{ConfigurableRoPuf, EnrollOptions};
        use ropuf_core::robust::{enroll_robust, enroll_robust_in, FaultPlan};
        use ropuf_silicon::MeasureArena;
        let sim = SiliconSim::default_spartan();
        let mut grow = StdRng::seed_from_u64(seed);
        let units = stages * 2 * 4;
        let board_a = sim.grow_board_with_id(&mut grow, BoardId(0), units, 8);
        let board_b = sim.grow_board_with_id(&mut grow, BoardId(1), units, 8);
        let puf = ConfigurableRoPuf::tiled(units, stages);
        let opts = EnrollOptions::default();
        let env = Environment::nominal();
        let tech = sim.technology();
        let plan = FaultPlan::scaled(fault_scale);
        let mut arena = MeasureArena::new();
        let _dirty = enroll_robust_in(&puf, seed ^ 1, &board_b, tech, env, &opts, &plan, &mut arena);
        let reused = enroll_robust_in(&puf, seed, &board_a, tech, env, &opts, &plan, &mut arena);
        let fresh = enroll_robust(&puf, seed, &board_a, tech, env, &opts, &plan);
        prop_assert_eq!(&reused.enrollment, &fresh.enrollment);
        prop_assert_eq!(reused.unreadable_pairs, fresh.unreadable_pairs);
        prop_assert_eq!(reused.total_pairs, fresh.total_pairs);
        prop_assert_eq!(reused.summary, fresh.summary);
    }

    #[test]
    fn nominal_corner_set_is_bit_identical_to_nominal_only(
        seed in any::<u64>(),
        stages in 1usize..=9,
        fault_scale in proptest::sample::select(vec![0.0f64, 0.25, 1.0]),
    ) {
        // A corner set containing only the enrollment environment
        // deduplicates to nothing extra, which must take the exact
        // legacy code path — through the plain pipeline and through the
        // fault-tolerant one, with and without an active fault plan.
        use ropuf_core::puf::{ConfigurableRoPuf, EnrollOptions};
        use ropuf_core::robust::{enroll_robust, FaultPlan};
        use ropuf_silicon::CornerSet;
        let sim = SiliconSim::default_spartan();
        let mut grow = StdRng::seed_from_u64(seed);
        let units = stages * 2 * 4;
        let board = sim.grow_board_with_id(&mut grow, BoardId(0), units, 8);
        let puf = ConfigurableRoPuf::tiled(units, stages);
        let env = Environment::nominal();
        let tech = sim.technology();
        let nominal_only = EnrollOptions {
            corners: CornerSet::try_from_slice(&[env]).unwrap(),
            ..EnrollOptions::default()
        };
        let legacy = EnrollOptions::default();
        prop_assert_eq!(
            puf.enroll_seeded(seed, &board, tech, env, &nominal_only),
            puf.enroll_seeded(seed, &board, tech, env, &legacy)
        );
        let plan = FaultPlan::scaled(fault_scale);
        let a = enroll_robust(&puf, seed, &board, tech, env, &nominal_only, &plan);
        let b = enroll_robust(&puf, seed, &board, tech, env, &legacy, &plan);
        prop_assert_eq!(a.enrollment, b.enrollment);
        prop_assert_eq!(a.summary, b.summary);
    }

    #[test]
    fn reenroll_on_unaged_board_is_a_no_op(seed in any::<u64>(), stages in 2usize..6) {
        // Unaged silicon shows no drift under noiseless assessment, so
        // re-enrollment must keep the old enrollment and return the
        // typed NotDrifted rejection.
        use ropuf_core::puf::{ConfigurableRoPuf, EnrollOptions};
        use ropuf_core::reenroll::{reenroll, ReenrollOutcome, ReenrollPolicy, ReenrollRejected};
        use ropuf_core::robust::FaultPlan;
        let sim = SiliconSim::default_spartan();
        let mut grow = StdRng::seed_from_u64(seed);
        let units = stages * 2 * 4;
        let board = sim.grow_board_with_id(&mut grow, BoardId(0), units, 8);
        let puf = ConfigurableRoPuf::tiled(units, stages);
        let env = Environment::nominal();
        let tech = sim.technology();
        // The margin threshold keeps near-tie pairs out of the old
        // enrollment, so its bits survive noiseless re-assessment.
        let opts = EnrollOptions { threshold_ps: 5.0, ..EnrollOptions::default() };
        let old = puf.enroll_seeded(seed, &board, tech, env, &opts);
        let outcome = reenroll(
            &puf,
            seed ^ 0x5eed,
            &board,
            tech,
            env,
            &opts,
            &ReenrollPolicy::default(),
            &FaultPlan::scaled(0.0),
            &old,
        );
        prop_assert!(matches!(
            outcome,
            ReenrollOutcome::Rejected(ReenrollRejected::NotDrifted { .. })
        ));
    }

    #[test]
    fn enrollment_text_round_trip(seed in any::<u64>(), stages in 2usize..8) {
        use ropuf_core::persist::{enrollment_from_text, enrollment_to_text};
        use ropuf_core::puf::{ConfigurableRoPuf, EnrollOptions};
        let sim = SiliconSim::default_spartan();
        let mut rng = StdRng::seed_from_u64(seed);
        let units = stages * 2 * 4;
        let board = sim.grow_board_with_id(&mut rng, BoardId(0), units, 8);
        let e = ConfigurableRoPuf::tiled(units, stages).enroll(
            &mut rng,
            &board,
            sim.technology(),
            Environment::nominal(),
            &EnrollOptions::default(),
        );
        let back = enrollment_from_text(&enrollment_to_text(&e)).unwrap();
        prop_assert_eq!(back, e);
    }
}
