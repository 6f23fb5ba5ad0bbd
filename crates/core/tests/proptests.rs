//! Property-based tests for the selection algorithms, calibration, the
//! distiller, and the baseline schemes against the loops they replaced.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use ropuf_core::calibrate::calibrate;
use ropuf_core::config::{ConfigVector, ParityPolicy};
use ropuf_core::distill::Distiller;
use ropuf_core::ro::ConfigurableRo;
use ropuf_core::select::{
    brute_force_case1, brute_force_case2, case1, case1_with_offset, case2, case2_with_offset,
};
use ropuf_silicon::board::BoardId;
use ropuf_silicon::{DelayProbe, Environment, SiliconSim, Technology};

/// A §III.B calibration as the per-configuration oracle computes it.
struct OracleCalibration {
    ddiffs_ps: Vec<f64>,
    all_selected_ps: f64,
    bypass_ps: f64,
}

/// The per-configuration §III.B calibration the batched kernel
/// replaced: `n + 2` independent whole-ring walks, one O(n) delay sum
/// per configuration, read in the kernel's order (all-selected,
/// all-bypassed, then each leave-one-out ring). The oracle the batched
/// kernel is proptested against, bit for bit.
fn calibrate_per_config<R: rand::Rng + ?Sized>(
    rng: &mut R,
    ro: &ConfigurableRo<'_>,
    probe: &DelayProbe,
    env: Environment,
    tech: &Technology,
) -> OracleCalibration {
    let n = ro.len();
    let mut measure =
        |config: &ConfigVector| probe.measure_ps(rng, ro.ring_delay_ps(config, env, tech));
    let all_selected_ps = measure(&ConfigVector::all_selected(n));
    let bypass_ps = measure(&ConfigVector::from_flags(&vec![false; n]));
    let ddiffs_ps = (0..n)
        .map(|i| all_selected_ps - measure(&ConfigVector::all_but(n, i)))
        .collect();
    OracleCalibration {
        ddiffs_ps,
        all_selected_ps,
        bypass_ps,
    }
}

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
            oracle.all_selected_ps.to_bits()
        );
        prop_assert_eq!(batched.bypass_ps().to_bits(), oracle.bypass_ps.to_bits());
        prop_assert_eq!(batched.ddiffs_ps().len(), oracle.ddiffs_ps.len());
        for (b, o) in batched.ddiffs_ps().iter().zip(&oracle.ddiffs_ps) {
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
                    alpha: &t.ddiffs_ps,
                    beta: &b.ddiffs_ps,
                    offset_ps: t.bypass_ps - b.bypass_ps,
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
    fn arena_reuse_has_no_cross_board_state(
        seed in any::<u64>(),
        stages in 2usize..6,
        worst_case in any::<bool>(),
    ) {
        // A fleet worker enrolls board after board into one arena; a
        // block must never leak into the next. Enrolling a board,
        // dirtying the arena with a board of another floorplan (another
        // stage and pair count), then enrolling the first again must
        // reproduce its bits exactly — and agree with the fresh-arena
        // public entry point, nominal-only and at five corners.
        use ropuf_core::puf::{ConfigurableRoPuf, EnrollOptions};
        use ropuf_silicon::{CornerSet, MeasureArena};
        let sim = SiliconSim::default_spartan();
        let mut grow = StdRng::seed_from_u64(seed);
        let units = stages * 2 * 4;
        let board_a = sim.grow_board_with_id(&mut grow, BoardId(0), units, 8);
        let board_b = sim.grow_board_with_id(&mut grow, BoardId(1), 70, 8);
        let puf = ConfigurableRoPuf::tiled(units, stages);
        let other = ConfigurableRoPuf::tiled(70, stages + 3);
        let opts = EnrollOptions {
            corners: if worst_case { CornerSet::worst_case() } else { CornerSet::empty() },
            ..EnrollOptions::default()
        };
        let env = Environment::nominal();
        let tech = sim.technology();
        let mut arena = MeasureArena::new();
        let first = puf.enroll_seeded_in(seed, &board_a, tech, env, &opts, &mut arena);
        let _dirty = other.enroll_seeded_in(seed ^ 1, &board_b, tech, env, &opts, &mut arena);
        let again = puf.enroll_seeded_in(seed, &board_a, tech, env, &opts, &mut arena);
        prop_assert_eq!(&first, &again);
        let fresh = puf.enroll_seeded(seed, &board_a, tech, env, &opts);
        prop_assert_eq!(&first, &fresh);
    }

    #[test]
    fn robust_arena_enrollment_is_reuse_invariant_under_faults(
        seed in any::<u64>(),
        stages in proptest::collection::vec(1usize..8, 1..6),
        fault_scale in proptest::sample::select(vec![0.0f64, 0.25, 1.0]),
        worst_case in any::<bool>(),
    ) {
        // Same contract through the fault-tolerant path: a reused
        // arena, dirtied by another floorplan, and a fresh one yield
        // identical enrollments, unreadable-pair counts, and fault
        // accounting, with the fault plan active, nominal-only and at
        // five corners. Pairs of mixed stage counts follow each other,
        // so a pair that fails part-way through its corners sits
        // before pairs of other lengths.
        use ropuf_core::puf::{ConfigurableRoPuf, EnrollOptions, PairSpec};
        use ropuf_core::robust::{enroll_robust, enroll_robust_in, FaultPlan};
        use ropuf_silicon::{CornerSet, MeasureArena};
        let sim = SiliconSim::default_spartan();
        let mut grow = StdRng::seed_from_u64(seed);
        let mut units = 0;
        let specs = stages
            .iter()
            .map(|&n| {
                units += 2 * n;
                PairSpec::interleaved_at(units - 2 * n, n)
            })
            .collect();
        let puf = ConfigurableRoPuf::new(specs);
        let board_a = sim.grow_board_with_id(&mut grow, BoardId(0), units, 8);
        let board_b = sim.grow_board_with_id(&mut grow, BoardId(1), 70, 8);
        let other = ConfigurableRoPuf::tiled(70, 9);
        let opts = EnrollOptions {
            corners: if worst_case { CornerSet::worst_case() } else { CornerSet::empty() },
            ..EnrollOptions::default()
        };
        let env = Environment::nominal();
        let tech = sim.technology();
        let plan = FaultPlan::scaled(fault_scale);
        let mut arena = MeasureArena::new();
        let _dirty = enroll_robust_in(&other, seed ^ 1, &board_b, tech, env, &opts, &plan, &mut arena);
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
        use ropuf_core::reenroll::{reenroll, ReenrollOutcome, ReenrollRejected};
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

/// The three baselines' enrollment records and their enroll and respond
/// loops as they stood before every scheme enrolled into
/// [`Enrollment`](ropuf_core::puf::Enrollment), verbatim apart from
/// reaching each floorplan through its public accessors.
/// `baselines_match_the_replaced_loops` proptests the baselines against
/// them.
mod oracle {
    use rand::Rng;
    use ropuf_core::config::ConfigVector;
    use ropuf_core::one_of_eight::{OneOfEightPuf, RoGroup};
    use ropuf_core::puf::PairSpec;
    use ropuf_core::ro::ConfigurableRo;
    use ropuf_core::traditional::TraditionalRoPuf;
    use ropuf_num::bits::BitVec;
    use ropuf_silicon::{Board, DelayProbe, Environment, Technology};

    /// Top-ring units, bottom-ring units, expected bit and margin of
    /// every bit-producing pair, in bit order.
    pub type Records = Vec<(Vec<usize>, Vec<usize>, bool, f64)>;

    pub struct TraditionalPair {
        spec: PairSpec,
        expected_bit: bool,
        margin_ps: f64,
    }

    pub struct TraditionalEnrollment {
        pairs: Vec<Option<TraditionalPair>>,
        stages: usize,
    }

    pub fn traditional_enroll<R: Rng + ?Sized>(
        puf: &TraditionalRoPuf,
        rng: &mut R,
        board: &Board,
        tech: &Technology,
        env: Environment,
        probe: &DelayProbe,
        threshold_ps: f64,
    ) -> TraditionalEnrollment {
        let stages = puf.specs()[0].stages();
        let config = ConfigVector::all_selected(stages);
        let pairs = puf
            .specs()
            .iter()
            .map(|spec| {
                let pair = spec.bind(board);
                let d_top = probe.measure_ps(rng, pair.top().ring_delay_ps(&config, env, tech));
                let d_bottom =
                    probe.measure_ps(rng, pair.bottom().ring_delay_ps(&config, env, tech));
                let diff = d_top - d_bottom;
                if diff.abs() < threshold_ps {
                    None
                } else {
                    Some(TraditionalPair {
                        spec: spec.clone(),
                        expected_bit: diff > 0.0,
                        margin_ps: diff.abs(),
                    })
                }
            })
            .collect();
        TraditionalEnrollment { pairs, stages }
    }

    impl TraditionalEnrollment {
        pub fn records(&self) -> Records {
            self.pairs
                .iter()
                .flatten()
                .map(|p| {
                    let (top, bottom) = (p.spec.top().to_vec(), p.spec.bottom().to_vec());
                    (top, bottom, p.expected_bit, p.margin_ps)
                })
                .collect()
        }

        pub fn respond<R: Rng + ?Sized>(
            &self,
            rng: &mut R,
            board: &Board,
            tech: &Technology,
            env: Environment,
            probe: &DelayProbe,
        ) -> BitVec {
            let config = ConfigVector::all_selected(self.stages);
            self.pairs
                .iter()
                .flatten()
                .map(|p| {
                    let pair = p.spec.bind(board);
                    let d_top = probe.measure_ps(rng, pair.top().ring_delay_ps(&config, env, tech));
                    let d_bottom =
                        probe.measure_ps(rng, pair.bottom().ring_delay_ps(&config, env, tech));
                    d_top > d_bottom
                })
                .collect()
        }
    }

    fn ring_delay<R: Rng + ?Sized>(
        group: &RoGroup,
        rng: &mut R,
        board: &Board,
        tech: &Technology,
        env: Environment,
        probe: &DelayProbe,
        i: usize,
    ) -> f64 {
        let config = ConfigVector::all_selected(group.stages());
        let ro = ConfigurableRo::try_new(board, group.ring(i).to_vec())
            .expect("group rings fit the board");
        probe.measure_ps(rng, ro.ring_delay_ps(&config, env, tech))
    }

    pub struct GroupPick {
        group: RoGroup,
        ring_a: usize,
        ring_b: usize,
        expected_bit: bool,
        margin_ps: f64,
    }

    pub struct OneOfEightEnrollment {
        picks: Vec<GroupPick>,
    }

    pub fn one_of_eight_enroll<R: Rng + ?Sized>(
        puf: &OneOfEightPuf,
        rng: &mut R,
        board: &Board,
        tech: &Technology,
        env: Environment,
        probe: &DelayProbe,
    ) -> OneOfEightEnrollment {
        let picks = puf
            .groups()
            .iter()
            .map(|group| {
                let delays: Vec<f64> = (0..8)
                    .map(|i| ring_delay(group, rng, board, tech, env, probe, i))
                    .collect();
                let (fast, _) = delays
                    .iter()
                    .enumerate()
                    .min_by(|a, b| a.1.total_cmp(b.1))
                    .expect("eight rings");
                let (slow, _) = delays
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .expect("eight rings");
                let (a, b) = (fast.min(slow), fast.max(slow));
                GroupPick {
                    group: group.clone(),
                    ring_a: a,
                    ring_b: b,
                    expected_bit: delays[a] > delays[b],
                    margin_ps: (delays[fast] - delays[slow]).abs(),
                }
            })
            .collect();
        OneOfEightEnrollment { picks }
    }

    impl OneOfEightEnrollment {
        pub fn records(&self) -> Records {
            self.picks
                .iter()
                .map(|p| {
                    let (a, b) = (p.group.ring(p.ring_a), p.group.ring(p.ring_b));
                    (a.to_vec(), b.to_vec(), p.expected_bit, p.margin_ps)
                })
                .collect()
        }

        pub fn respond<R: Rng + ?Sized>(
            &self,
            rng: &mut R,
            board: &Board,
            tech: &Technology,
            env: Environment,
            probe: &DelayProbe,
        ) -> BitVec {
            self.picks
                .iter()
                .map(|p| {
                    let da = ring_delay(&p.group, rng, board, tech, env, probe, p.ring_a);
                    let db = ring_delay(&p.group, rng, board, tech, env, probe, p.ring_b);
                    da > db
                })
                .collect()
        }
    }

    pub struct CooperativePair {
        ring_a: Vec<usize>,
        ring_b: Vec<usize>,
        expected_bit: bool,
        worst_margin_ps: f64,
    }

    pub struct CooperativeEnrollment {
        pairs: Vec<CooperativePair>,
        ring_pool: usize,
        stages: usize,
    }

    pub fn cooperative_enroll<R: Rng + ?Sized>(
        rings: &[Vec<usize>],
        rng: &mut R,
        board: &Board,
        tech: &Technology,
        corners: &[Environment],
        probe: &DelayProbe,
        min_margin_ps: f64,
    ) -> CooperativeEnrollment {
        assert!(!corners.is_empty(), "enrollment needs at least one corner");
        assert!(
            min_margin_ps.is_finite() && min_margin_ps >= 0.0,
            "margin must be finite and non-negative"
        );
        let stages = rings[0].len();
        let config = ConfigVector::all_selected(stages);
        // delays[r][c] = ring r's measured delay at corner c.
        let delays: Vec<Vec<f64>> = rings
            .iter()
            .map(|units| {
                let ro = ConfigurableRo::try_new(board, units.clone())
                    .expect("cooperative rings fit the board");
                corners
                    .iter()
                    .map(|&env| probe.measure_ps(rng, ro.ring_delay_ps(&config, env, tech)))
                    .collect()
            })
            .collect();

        // Candidate pairs with corner-consistent ordering; robustness =
        // the worst-corner separation.
        let mut candidates: Vec<(usize, usize, f64, bool)> = Vec::new();
        for a in 0..rings.len() {
            for b in a + 1..rings.len() {
                let diffs: Vec<f64> = delays[a]
                    .iter()
                    .zip(&delays[b])
                    .map(|(da, db)| da - db)
                    .collect();
                let all_pos = diffs.iter().all(|&d| d >= min_margin_ps);
                let all_neg = diffs.iter().all(|&d| d <= -min_margin_ps);
                if all_pos || all_neg {
                    let worst = diffs.iter().map(|d| d.abs()).fold(f64::INFINITY, f64::min);
                    candidates.push((a, b, worst, all_pos));
                }
            }
        }
        candidates.sort_by(|x, y| y.2.total_cmp(&x.2));

        // Greedy disjoint matching, most robust first.
        let mut used = vec![false; rings.len()];
        let mut pairs = Vec::new();
        for (a, b, worst, a_slower) in candidates {
            if !used[a] && !used[b] {
                used[a] = true;
                used[b] = true;
                pairs.push(CooperativePair {
                    ring_a: rings[a].clone(),
                    ring_b: rings[b].clone(),
                    expected_bit: a_slower,
                    worst_margin_ps: worst,
                });
            }
        }
        CooperativeEnrollment {
            pairs,
            ring_pool: rings.len(),
            stages,
        }
    }

    impl CooperativeEnrollment {
        pub fn records(&self) -> Records {
            self.pairs
                .iter()
                .map(|p| {
                    let (a, b) = (p.ring_a.clone(), p.ring_b.clone());
                    (a, b, p.expected_bit, p.worst_margin_ps)
                })
                .collect()
        }

        pub fn utilization(&self) -> f64 {
            2.0 * self.pairs.len() as f64 / self.ring_pool as f64
        }

        pub fn respond<R: Rng + ?Sized>(
            &self,
            rng: &mut R,
            board: &Board,
            tech: &Technology,
            env: Environment,
            probe: &DelayProbe,
        ) -> BitVec {
            let config = ConfigVector::all_selected(self.stages);
            self.pairs
                .iter()
                .map(|p| {
                    let ring = |units: &Vec<usize>| {
                        ConfigurableRo::try_new(board, units.clone())
                            .expect("cooperative rings fit the board")
                    };
                    let da =
                        probe.measure_ps(rng, ring(&p.ring_a).ring_delay_ps(&config, env, tech));
                    let db =
                        probe.measure_ps(rng, ring(&p.ring_b).ring_delay_ps(&config, env, tech));
                    da > db
                })
                .collect()
        }
    }
}

/// Checks a baseline's [`Enrollment`](ropuf_core::puf::Enrollment)
/// against its oracle's records: the same rings in the same order, top
/// ring first, all-selected configurations, the same bits and margins,
/// and a lossless trip through the text format.
fn matches_records(
    e: &ropuf_core::puf::Enrollment,
    want: &oracle::Records,
    enrolled_at: Environment,
) -> Result<(), TestCaseError> {
    use ropuf_core::config::ConfigVector;
    use ropuf_core::persist::{enrollment_from_text, enrollment_to_text};
    use ropuf_num::bits::BitVec;

    let got: oracle::Records = e
        .pairs()
        .iter()
        .flatten()
        .map(|p| {
            let (top, bottom) = (e.spec(p).top().to_vec(), e.spec(p).bottom().to_vec());
            (top, bottom, p.expected_bit(), p.margin_ps())
        })
        .collect();
    prop_assert_eq!(&got, want);
    prop_assert_eq!(e.bit_count(), want.len());
    prop_assert_eq!(
        e.expected_bits(),
        want.iter().map(|r| r.2).collect::<BitVec>()
    );
    prop_assert_eq!(
        e.margins_ps(),
        want.iter().map(|r| r.3).collect::<Vec<f64>>()
    );
    prop_assert_eq!(e.enrolled_at(), enrolled_at);
    for p in e.pairs().iter().flatten() {
        let all = ConfigVector::all_selected(e.spec(p).stages());
        prop_assert!(p.top_config() == &all && p.bottom_config() == &all);
    }
    match enrollment_from_text(&enrollment_to_text(e)) {
        Ok(back) => prop_assert_eq!(&back, e),
        // The text format refuses an enrollment without a single pair
        // record; only a cooperative pool with no corner-consistent
        // pairing enrolls none.
        Err(err) => prop_assert!(
            e.pairs().is_empty() && err.message.contains("no pairs"),
            "round trip failed: {}",
            err
        ),
    }
    Ok(())
}

proptest! {
    /// The guard for the baselines' move onto the one enrollment
    /// record: the traditional, 1-out-of-8 and cooperative schemes pick
    /// the same rings, record the same bits and margins, and read the
    /// same responses as the loops they replaced, leave the caller's RNG
    /// where those loops left it, and survive the text format.
    #[test]
    fn baselines_match_the_replaced_loops(
        seed in any::<u64>(),
        stages in 1usize..=9,
        groups in 1usize..=3,
        extra_units in 0usize..16,
        noisy in any::<bool>(),
        threshold_ps in 0.0f64..3.0,
        voltages in proptest::collection::vec(0.95f64..1.45, 1..=3),
        temperatures in proptest::collection::vec(-25.0f64..100.0, 3),
        min_margin_ps in 0.0f64..2.0,
        respond_voltage in 0.95f64..1.45,
        respond_temperature in -25.0f64..100.0,
    ) {
        use rand::RngCore;
        use ropuf_core::cooperative::CooperativePuf;
        use ropuf_core::one_of_eight::OneOfEightPuf;
        use ropuf_core::traditional::TraditionalRoPuf;

        let sim = SiliconSim::default_spartan();
        let tech = *sim.technology();
        let units = groups * 8 * stages + extra_units;
        let mut grow_rng = StdRng::seed_from_u64(seed);
        let board = sim.grow_board_with_id(&mut grow_rng, BoardId(0), units, 8);
        let probe = if noisy { DelayProbe::new(0.25, 1) } else { DelayProbe::noiseless() };
        let corners: Vec<Environment> = voltages
            .iter()
            .zip(&temperatures)
            .map(|(&v, &t)| Environment::new(v, t))
            .collect();
        let env = corners[0];
        let at = Environment::new(respond_voltage, respond_temperature);
        let mut rng = StdRng::seed_from_u64(seed.rotate_left(17));
        let mut oracle_rng = rng.clone();

        let trad = TraditionalRoPuf::tiled(units, stages);
        let e = trad.enroll(&mut rng, &board, &tech, env, &probe, threshold_ps);
        let want = oracle::traditional_enroll(
            &trad, &mut oracle_rng, &board, &tech, env, &probe, threshold_ps,
        );
        matches_records(&e, &want.records(), env)?;
        prop_assert_eq!(
            e.respond(&mut rng, &board, &tech, at, &probe),
            want.respond(&mut oracle_rng, &board, &tech, at, &probe)
        );

        let one8 = OneOfEightPuf::tiled(units, stages);
        let e = one8.enroll(&mut rng, &board, &tech, env, &probe);
        let want = oracle::one_of_eight_enroll(&one8, &mut oracle_rng, &board, &tech, env, &probe);
        matches_records(&e, &want.records(), env)?;
        prop_assert_eq!(
            e.respond(&mut rng, &board, &tech, at, &probe),
            want.respond(&mut oracle_rng, &board, &tech, at, &probe)
        );

        let rings: Vec<Vec<usize>> = (0..units / stages)
            .map(|r| (r * stages..(r + 1) * stages).collect())
            .collect();
        let coop = CooperativePuf::new(rings.clone());
        let e = coop.enroll(&mut rng, &board, &tech, &corners, &probe, min_margin_ps);
        let want = oracle::cooperative_enroll(
            &rings, &mut oracle_rng, &board, &tech, &corners, &probe, min_margin_ps,
        );
        matches_records(&e, &want.records(), env)?;
        prop_assert_eq!(coop.utilization(&e), want.utilization());
        prop_assert_eq!(
            e.respond(&mut rng, &board, &tech, at, &probe),
            want.respond(&mut oracle_rng, &board, &tech, at, &probe)
        );

        prop_assert_eq!(rng.next_u64(), oracle_rng.next_u64(), "RNG out of lockstep");
    }
}
