//! The delay probe's one-draw reading against the averaging loop it
//! replaced.
//!
//! A probe with `repeats = r` used to draw `r` readings of `N(d, σ²)`
//! and average them; it now draws once from `N(d, σ²/r)`, which is the
//! same distribution. These tests pin both halves of that claim: the
//! two agree in mean and variance, and a one-repeat probe draws exactly
//! what the averaging loop drew, bit for bit and stream position for
//! stream position.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ropuf_silicon::noise::sample_normal;
use ropuf_silicon::DelayProbe;

/// The replaced `DelayProbe::measure_ps`, verbatim: the mean of
/// `repeats` independent readings.
fn averaged_reading<R: Rng + ?Sized>(probe: &DelayProbe, rng: &mut R, true_delay_ps: f64) -> f64 {
    let sum: f64 = (0..probe.repeats)
        .map(|_| sample_normal(rng, true_delay_ps, probe.sigma_ps))
        .sum();
    sum / probe.repeats as f64
}

/// Sample mean and (unbiased) sample variance.
fn mean_and_variance(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
    (mean, var)
}

#[test]
fn one_draw_at_the_effective_sigma_matches_the_mean_of_repeats() {
    const READINGS: usize = 100_000;
    // Bound on every comparison, in standard errors.
    const BOUND: f64 = 4.0;
    let delay = 500.0;
    for (i, repeats) in [2usize, 4, 16].into_iter().enumerate() {
        let probe = DelayProbe::new(0.25, repeats);
        let mut rng = StdRng::seed_from_u64(100 + i as u64);
        let one_draw: Vec<f64> = (0..READINGS)
            .map(|_| probe.measure_ps(&mut rng, delay))
            .collect();
        let mut rng = StdRng::seed_from_u64(200 + i as u64);
        let averaged: Vec<f64> = (0..READINGS)
            .map(|_| averaged_reading(&probe, &mut rng, delay))
            .collect();
        let (m1, v1) = mean_and_variance(&one_draw);
        let (m2, v2) = mean_and_variance(&averaged);

        // Both sides model N(d, σ²/r): a sample mean has standard error
        // σ_eff/√n and a sample variance σ_eff²·√(2/(n−1)).
        let n = READINGS as f64;
        let var = probe.effective_sigma_ps().powi(2);
        let se_mean = (var / n).sqrt();
        let se_var = var * (2.0 / (n - 1.0)).sqrt();
        for (side, m, v) in [("one draw", m1, v1), ("averaged", m2, v2)] {
            assert!(
                (m - delay).abs() <= BOUND * se_mean,
                "r = {repeats}, {side}: mean {m} vs {delay} (se {se_mean:.2e})"
            );
            assert!(
                (v - var).abs() <= BOUND * se_var,
                "r = {repeats}, {side}: variance {v} vs {var} (se {se_var:.2e})"
            );
        }
        // And against each other: independent samples, so the standard
        // error of a difference is √2 times that of one side.
        assert!(
            (m1 - m2).abs() <= BOUND * se_mean * 2f64.sqrt(),
            "r = {repeats}: means {m1} and {m2} differ"
        );
        assert!(
            (v1 - v2).abs() <= BOUND * se_var * 2f64.sqrt(),
            "r = {repeats}: variances {v1} and {v2} differ"
        );
    }
}

proptest! {
    #[test]
    fn one_repeat_reading_matches_the_replaced_average_bit_for_bit(
        seed in any::<u64>(),
        delay in 1e-3f64..1e5,
        sigma in 0.0f64..10.0,
    ) {
        let probe = DelayProbe::new(sigma, 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut oracle_rng = StdRng::seed_from_u64(seed);
        for _ in 0..4 {
            let reading = probe.measure_ps(&mut rng, delay);
            let oracle = averaged_reading(&probe, &mut oracle_rng, delay);
            prop_assert_eq!(reading.to_bits(), oracle.to_bits());
        }
        // Same draws consumed: the streams are still in lockstep.
        prop_assert_eq!(rng.gen::<u64>(), oracle_rng.gen::<u64>());
    }
}
