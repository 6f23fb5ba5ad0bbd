//! §III.B — recovering per-unit delay differences from ring measurements.
//!
//! A single delay unit switches too fast to measure directly, so the
//! paper *computes* each unit's `ddiff_i = d_i + d1_i − d0_i` from a
//! handful of whole-ring path-delay measurements:
//!
//! * [`solve_three_stage`] — the paper's worked 3-stage example: measure
//!   configurations `110`, `101`, `011` (delays X, Y, Z) and solve
//!   `ddiff_1 = (X+Y−Z)/2` etc. As documented there, this folds half the
//!   total bypass delay `B = Σ d0_j` into every estimate; the *bias is
//!   common to all stages* and cancels in the Δd comparisons selection
//!   actually uses.
//! * [`calibrate`] — the generalized, unbiased scheme this crate uses by
//!   default: measure the all-selected ring (`D_all`) and each
//!   leave-one-out ring (`D_i`); then `ddiff_i = D_all − D_i` exactly,
//!   with `n + 2` probe measurements also yielding the bypass total `B`.
//!
//! Measurements go through a [`DelayProbe`] (pulse propagation), which
//! works for any configuration — including even-inverter-count ones that
//! would not free-run as oscillators. See `DESIGN.md` for why this is the
//! faithful model of post-silicon test-mode measurement.

use rand::Rng;
use ropuf_silicon::{DelayProbe, Environment, MeasureArena, RingSweep, Technology};
use ropuf_telemetry as telemetry;

use crate::config::ConfigVector;
use crate::ro::ConfigurableRo;

/// Result of calibrating one ring.
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    ddiff_ps: Vec<f64>,
    all_selected_ps: f64,
    bypass_ps: f64,
}

impl Calibration {
    /// The estimated per-stage delay differences `ddiff_i`, picoseconds.
    pub fn ddiffs_ps(&self) -> &[f64] {
        &self.ddiff_ps
    }

    /// Measured delay of the all-selected ring, picoseconds.
    pub fn all_selected_ps(&self) -> f64 {
        self.all_selected_ps
    }

    /// Measured delay of the all-bypassed ring (`B = Σ d0_i`),
    /// picoseconds.
    pub fn bypass_ps(&self) -> f64 {
        self.bypass_ps
    }

    /// Number of stages calibrated.
    pub fn stages(&self) -> usize {
        self.ddiff_ps.len()
    }

    /// Predicted ring delay under an arbitrary configuration, from the
    /// calibrated model `B + Σ ddiff_i x_i`.
    ///
    /// # Panics
    ///
    /// Panics if `config.len() != self.stages()`.
    pub fn predicted_delay_ps(&self, config: &ConfigVector) -> f64 {
        assert_eq!(config.len(), self.stages(), "configuration length mismatch");
        self.bypass_ps
            + config
                .selected_indices()
                .iter()
                .map(|&i| self.ddiff_ps[i])
                .sum::<f64>()
    }
}

/// Calibrates a ring with the generalized leave-one-out scheme:
/// `n + 2` probe measurements (all-selected, all-bypassed, and each
/// single-stage-bypassed ring), yielding unbiased `ddiff_i = D_all − D_i`
/// estimates and the bypass total.
///
/// The ring is laid into a one-ring [`MeasureArena`] block, so the
/// per-stage delay contributions are scaled once and every
/// configuration's delay comes from one sweep — the same reader the
/// enrollment kernel runs over a whole board's block. The result is
/// bit-identical to `n + 2` independent whole-ring walks — same
/// noise-draw order, same floating-point folds — just cheaper (the
/// per-configuration oracle in `tests/proptests.rs` pins this); each
/// call bumps the `measure.batched` telemetry counter by `n + 2`.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use ropuf_core::calibrate::calibrate;
/// use ropuf_core::ro::ConfigurableRo;
/// use ropuf_silicon::board::BoardId;
/// use ropuf_silicon::{DelayProbe, Environment, SiliconSim};
///
/// let sim = SiliconSim::default_spartan();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let board = sim.grow_board_with_id(&mut rng, BoardId(0), 5, 5);
/// let ro = ConfigurableRo::from_range(&board, 0..5);
/// let cal = calibrate(
///     &mut rng,
///     &ro,
///     &DelayProbe::noiseless(),
///     Environment::nominal(),
///     sim.technology(),
/// );
/// // Noise-free calibration recovers the exact ddiffs.
/// let truth = ro.true_ddiffs_ps(Environment::nominal(), sim.technology());
/// for (est, t) in cal.ddiffs_ps().iter().zip(&truth) {
///     assert!((est - t).abs() < 1e-9);
/// }
/// ```
pub fn calibrate<R: Rng + ?Sized>(
    rng: &mut R,
    ro: &ConfigurableRo<'_>,
    probe: &DelayProbe,
    env: Environment,
    tech: &Technology,
) -> Calibration {
    let mut arena = MeasureArena::new();
    arena.begin_block(1, ro.len());
    ro.stage_delays_into(env, tech, &mut arena, 0);
    let sweep = arena.sweep();
    let mut ddiff_ps = vec![0.0; ro.len()];
    let (all_selected_ps, bypass_ps) = read_ring(sweep.ring(0, ro.len()), &mut ddiff_ps, |d| {
        Some(probe.measure_ps(rng, d))
    })
    .expect("plain probe readings never fail");
    Calibration {
        ddiff_ps,
        all_selected_ps,
        bypass_ps,
    }
}

/// The one §III.B ring reader: takes the `n + 2` readings of `ring` in
/// sweep order (all-selected, all-bypassed, leave-one-out `0..n`), each
/// through `read`, writes `ddiff_i = D_all − D_i` into `ddiff_ps[i]`
/// and returns `(D_all, B)`, the all-selected and all-bypassed
/// readings.
///
/// `read` maps a configuration's true delay to one reading; `None`
/// means the reading failed, which stops the calibration there (the
/// remaining configurations are never read) and returns `None`, with
/// `ddiff_ps` partly written. The `measure.batched` counter counts the
/// readings taken, the failed one included: `n + 2` for a complete
/// calibration.
fn read_ring(
    ring: RingSweep<'_>,
    ddiff_ps: &mut [f64],
    mut read: impl FnMut(f64) -> Option<f64>,
) -> Option<(f64, f64)> {
    let n = ring.stages();
    let (mut all_selected_ps, mut bypass_ps) = (0.0, 0.0);
    for config in 0..n + 2 {
        let true_delay_ps = match config {
            0 => ring.all_selected_ps(),
            1 => ring.all_bypassed_ps(),
            k => ring.all_but_ps(k - 2),
        };
        let Some(reading) = read(true_delay_ps) else {
            telemetry::counter("measure.batched", config as u64 + 1);
            return None;
        };
        match config {
            0 => all_selected_ps = reading,
            1 => bypass_ps = reading,
            k => ddiff_ps[k - 2] = all_selected_ps - reading,
        }
    }
    telemetry::counter("measure.batched", n as u64 + 2);
    Some((all_selected_ps, bypass_ps))
}

/// Calibrates a top/bottom ring pair from their sweep views — the top
/// ring first, then the bottom, every reading through `read` (see
/// [`read_ring`]) — writing the top ring's `ddiff`s and then the
/// bottom's into `ddiff_ps` (`2n` slots) and returning the
/// configuration-independent offset `B_top − B_bottom`. A failed
/// reading returns `None` at once: the rest of the pair is not read.
pub(crate) fn calibrate_pair(
    top: RingSweep<'_>,
    bottom: RingSweep<'_>,
    ddiff_ps: &mut [f64],
    mut read: impl FnMut(f64) -> Option<f64>,
) -> Option<f64> {
    let (top_ps, bottom_ps) = ddiff_ps.split_at_mut(top.stages());
    let (_, top_bypass_ps) = read_ring(top, top_ps, &mut read)?;
    let (_, bottom_bypass_ps) = read_ring(bottom, bottom_ps, &mut read)?;
    Some(top_bypass_ps - bottom_bypass_ps)
}

/// The paper's 3-stage solve: given measured ring delays `x` (config
/// `110`), `y` (`101`), and `z` (`011`), returns
/// `[(x+y−z)/2, (x+z−y)/2, (y+z−x)/2]`.
///
/// Each estimate carries a `+B/2` bias (half the total bypass delay); the
/// bias is identical across stages and across identically structured
/// rings, so it cancels in the `Δd_i = α_i − β_i` differences the
/// selection algorithms consume.
///
/// # Examples
///
/// ```
/// use ropuf_core::calibrate::solve_three_stage;
/// // Idealized zero-bypass ring with per-stage ddiffs 3, 4, 5:
/// // X = 3+4 = 7, Y = 3+5 = 8, Z = 4+5 = 9.
/// let dd = solve_three_stage(7.0, 8.0, 9.0);
/// assert_eq!(dd, [3.0, 4.0, 5.0]);
/// ```
pub fn solve_three_stage(x: f64, y: f64, z: f64) -> [f64; 3] {
    [(x + y - z) / 2.0, (x + z - y) / 2.0, (y + z - x) / 2.0]
}

/// Measures the three two-selected configurations of a 3-stage ring and
/// applies [`solve_three_stage`] — the paper's procedure end-to-end.
///
/// # Panics
///
/// Panics if the ring does not have exactly 3 stages.
pub fn calibrate_three_stage<R: Rng + ?Sized>(
    rng: &mut R,
    ro: &ConfigurableRo<'_>,
    probe: &DelayProbe,
    env: Environment,
    tech: &Technology,
) -> [f64; 3] {
    assert_eq!(
        ro.len(),
        3,
        "three-stage calibration needs exactly 3 stages"
    );
    telemetry::counter("measure.fallback", 3);
    let measure = |rng: &mut R, skip: usize| {
        probe.measure_ps(
            rng,
            ro.ring_delay_ps(&ConfigVector::all_but(3, skip), env, tech),
        )
    };
    let x = measure(rng, 2); // 110
    let y = measure(rng, 1); // 101
    let z = measure(rng, 0); // 011
    solve_three_stage(x, y, z)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ropuf_silicon::board::BoardId;
    use ropuf_silicon::{Board, SiliconSim};

    fn grow(units: usize) -> (Board, Technology) {
        let sim = SiliconSim::default_spartan();
        let mut rng = StdRng::seed_from_u64(7);
        (
            sim.grow_board_with_id(&mut rng, BoardId(0), units, units.min(16)),
            *sim.technology(),
        )
    }

    #[test]
    fn noiseless_calibration_is_exact() {
        let (board, tech) = grow(9);
        let ro = ConfigurableRo::from_range(&board, 0..9);
        let mut rng = StdRng::seed_from_u64(0);
        let env = Environment::nominal();
        let cal = calibrate(&mut rng, &ro, &DelayProbe::noiseless(), env, &tech);
        let truth = ro.true_ddiffs_ps(env, &tech);
        for (e, t) in cal.ddiffs_ps().iter().zip(&truth) {
            assert!((e - t).abs() < 1e-9, "{e} vs {t}");
        }
        assert!((cal.bypass_ps() - ro.bypass_delay_ps(env, &tech)).abs() < 1e-9);
    }

    #[test]
    fn predicted_delay_matches_true_delay_noiselessly() {
        let (board, tech) = grow(7);
        let ro = ConfigurableRo::from_range(&board, 0..7);
        let mut rng = StdRng::seed_from_u64(1);
        let env = Environment::nominal();
        let cal = calibrate(&mut rng, &ro, &DelayProbe::noiseless(), env, &tech);
        let config = ConfigVector::from_selected(7, &[0, 3, 6]);
        let predicted = cal.predicted_delay_ps(&config);
        let truth = ro.ring_delay_ps(&config, env, &tech);
        assert!((predicted - truth).abs() < 1e-9);
    }

    #[test]
    fn noisy_calibration_error_scales_with_probe_noise() {
        let (board, tech) = grow(5);
        let ro = ConfigurableRo::from_range(&board, 0..5);
        let env = Environment::nominal();
        let truth = ro.true_ddiffs_ps(env, &tech);
        let rms = |sigma: f64, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let probe = DelayProbe::new(sigma, 1);
            let mut sq = 0.0;
            let rounds = 200;
            for _ in 0..rounds {
                let cal = calibrate(&mut rng, &ro, &probe, env, &tech);
                for (e, t) in cal.ddiffs_ps().iter().zip(&truth) {
                    sq += (e - t) * (e - t);
                }
            }
            (sq / (rounds * 5) as f64).sqrt()
        };
        let low = rms(0.1, 3);
        let high = rms(1.0, 3);
        // RMS error should scale roughly linearly with probe sigma
        // (each ddiff is a difference of two readings: σ√2).
        assert!(high > 5.0 * low, "low {low} high {high}");
        assert!((low / (0.1 * 2f64.sqrt()) - 1.0).abs() < 0.25, "low {low}");
    }

    #[test]
    fn repeats_sharpen_estimates() {
        let (board, tech) = grow(5);
        let ro = ConfigurableRo::from_range(&board, 0..5);
        let env = Environment::nominal();
        let truth = ro.true_ddiffs_ps(env, &tech);
        let err = |repeats: usize| {
            let mut rng = StdRng::seed_from_u64(5);
            let probe = DelayProbe::new(1.0, repeats);
            let mut sq = 0.0;
            for _ in 0..100 {
                let cal = calibrate(&mut rng, &ro, &probe, env, &tech);
                for (e, t) in cal.ddiffs_ps().iter().zip(&truth) {
                    sq += (e - t) * (e - t);
                }
            }
            sq
        };
        assert!(err(16) < err(1) / 4.0);
    }

    #[test]
    fn three_stage_solver_exact_on_synthetic_numbers() {
        let dd = solve_three_stage(10.0, 12.0, 14.0);
        assert_eq!(dd, [4.0, 6.0, 8.0]);
    }

    #[test]
    fn three_stage_bias_is_half_bypass_and_common() {
        let (board, tech) = grow(3);
        let ro = ConfigurableRo::from_range(&board, 0..3);
        let mut rng = StdRng::seed_from_u64(2);
        let env = Environment::nominal();
        let est = calibrate_three_stage(&mut rng, &ro, &DelayProbe::noiseless(), env, &tech);
        let truth = ro.true_ddiffs_ps(env, &tech);
        let bias = ro.bypass_delay_ps(env, &tech) / 2.0;
        for (e, t) in est.iter().zip(&truth) {
            assert!(
                (e - t - bias).abs() < 1e-9,
                "est {e}, true {t}, bias {bias}"
            );
        }
    }

    #[test]
    fn three_stage_bias_cancels_in_deltas() {
        // The Δd the selection uses: (est_top − est_bottom) should match
        // truth to within the *difference* of the two rings' bypass
        // biases, which is far smaller than the bias itself.
        let (board, tech) = grow(6);
        let top = ConfigurableRo::from_range(&board, 0..3);
        let bottom = ConfigurableRo::from_range(&board, 3..6);
        let mut rng = StdRng::seed_from_u64(3);
        let env = Environment::nominal();
        let probe = DelayProbe::noiseless();
        let est_t = calibrate_three_stage(&mut rng, &top, &probe, env, &tech);
        let est_b = calibrate_three_stage(&mut rng, &bottom, &probe, env, &tech);
        let true_t = top.true_ddiffs_ps(env, &tech);
        let true_b = bottom.true_ddiffs_ps(env, &tech);
        let bias_gap = (top.bypass_delay_ps(env, &tech) - bottom.bypass_delay_ps(env, &tech)) / 2.0;
        for i in 0..3 {
            let est_delta = est_t[i] - est_b[i];
            let true_delta = true_t[i] - true_b[i];
            assert!((est_delta - true_delta - bias_gap).abs() < 1e-9);
        }
        // And the residual bias gap is tiny relative to the bias itself.
        assert!(bias_gap.abs() < top.bypass_delay_ps(env, &tech) / 20.0);
    }

    #[test]
    #[should_panic(expected = "exactly 3 stages")]
    fn three_stage_rejects_other_sizes() {
        let (board, tech) = grow(4);
        let ro = ConfigurableRo::from_range(&board, 0..4);
        let mut rng = StdRng::seed_from_u64(0);
        let _ = calibrate_three_stage(
            &mut rng,
            &ro,
            &DelayProbe::noiseless(),
            Environment::nominal(),
            &tech,
        );
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn predicted_delay_checks_length() {
        let (board, tech) = grow(4);
        let ro = ConfigurableRo::from_range(&board, 0..4);
        let mut rng = StdRng::seed_from_u64(0);
        let cal = calibrate(
            &mut rng,
            &ro,
            &DelayProbe::noiseless(),
            Environment::nominal(),
            &tech,
        );
        let _ = cal.predicted_delay_ps(&ConfigVector::all_selected(3));
    }
}
