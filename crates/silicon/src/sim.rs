//! The fabrication simulator: grows boards with realistic variation.
//!
//! Growing a board draws, in order:
//!
//! 1. one inter-die offset for the whole board,
//! 2. a random degree-2 polynomial *systematic field* over the die,
//! 3. per-device random variation and environmental sensitivities.
//!
//! All draws come from a caller-supplied RNG, so fleets are exactly
//! reproducible from a seed.
//!
//! # Examples
//!
//! ```
//! use rand::SeedableRng;
//! use ropuf_silicon::SiliconSim;
//!
//! let mut sim = SiliconSim::default_spartan();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(3);
//! let a = sim.grow_board(&mut rng, 32, 8);
//! let mut sim2 = SiliconSim::default_spartan();
//! let mut rng2 = rand::rngs::StdRng::seed_from_u64(3);
//! let b = sim2.grow_board(&mut rng2, 32, 8);
//! assert_eq!(a, b); // same seed, same silicon
//! ```

use rand::Rng;

use crate::board::{grid_coordinate, Board, BoardId};
use crate::device::DelayUnit;
use crate::env::Technology;
use crate::noise::sample_normal;
use crate::params::SiliconParams;

/// Fabrication simulator configured with a [`SiliconParams`] set.
#[derive(Debug, Clone, PartialEq)]
pub struct SiliconSim {
    params: SiliconParams,
    next_board: u32,
}

impl SiliconSim {
    /// Creates a simulator after validating the parameter set.
    ///
    /// # Panics
    ///
    /// Panics if `params.validate()` fails; use
    /// [`SiliconParams::validate`] first for a fallible path.
    pub fn new(params: SiliconParams) -> Self {
        if let Err(msg) = params.validate() {
            panic!("invalid silicon parameters: {msg}");
        }
        Self {
            params,
            next_board: 0,
        }
    }

    /// Simulator with the Spartan-3E-class defaults used by the paper's
    /// public-dataset experiments.
    pub fn default_spartan() -> Self {
        Self::new(SiliconParams::spartan3e())
    }

    /// Simulator with the Virtex-5-class parameters used by the paper's
    /// in-house experiments.
    pub fn default_virtex() -> Self {
        Self::new(SiliconParams::virtex5())
    }

    /// The parameter set in force.
    pub fn params(&self) -> &SiliconParams {
        &self.params
    }

    /// The technology model (common-mode environment response).
    pub fn technology(&self) -> &Technology {
        &self.params.technology
    }

    /// Fabricates one board of `units` delay units on a `cols`-wide grid.
    ///
    /// Board ids increment per simulator instance.
    ///
    /// # Panics
    ///
    /// Panics if `units == 0` or `cols == 0`.
    pub fn grow_board<R: Rng + ?Sized>(&mut self, rng: &mut R, units: usize, cols: usize) -> Board
    where
        Self: Sized,
    {
        let id = BoardId(self.next_board);
        self.next_board += 1;
        self.grow_board_with_id(rng, id, units, cols)
    }

    /// Fabricates a board with an explicit id (used by dataset builders
    /// that manage their own numbering).
    ///
    /// # Panics
    ///
    /// Panics if `units == 0` or `cols == 0`.
    pub fn grow_board_with_id<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        id: BoardId,
        units: usize,
        cols: usize,
    ) -> Board {
        assert!(units > 0, "cannot grow a board with zero units");
        assert!(cols > 0, "grid width must be nonzero");
        let var = &self.params.variation;
        let nominal = &self.params.nominal;

        let inter_die = sample_normal(rng, 0.0, var.sigma_inter_die);
        let field = SystematicField::sample(rng, var.sigma_systematic);

        // Row-major placement walked row by row: the coordinates are
        // `grid_position`'s, bit for bit, without dividing per unit.
        let rows = units.div_ceil(cols);
        let mut fabricated = Vec::with_capacity(units);
        for row in 0..rows {
            let y = grid_coordinate(row, rows);
            for col in 0..cols.min(units - row * cols) {
                let x = grid_coordinate(col, cols);
                let shared = 1.0 + inter_die + field.eval(x, y);
                // Component-local random variation: the inverter and the
                // two MUX paths vary independently (the paper explicitly
                // models d1 ≠ d0 from MUX-internal variation).
                let d = nominal.inverter_ps
                    * shared
                    * (1.0 + sample_normal(rng, 0.0, var.sigma_random));
                let d1 = nominal.mux_selected_ps
                    * shared
                    * (1.0 + sample_normal(rng, 0.0, var.sigma_random));
                let d0 = nominal.mux_bypass_ps
                    * shared
                    * (1.0 + sample_normal(rng, 0.0, var.sigma_random));
                let kv = sample_normal(rng, 0.0, var.sigma_voltage_sensitivity);
                let kt = sample_normal(rng, 0.0, var.sigma_temperature_sensitivity);
                fabricated.push(DelayUnit::new(d, d1, d0, kv, kt));
            }
        }
        Board::new(id, fabricated, cols)
    }
}

/// A random degree-2 bivariate polynomial field (zero constant term): the
/// systematic intra-die variation surface.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SystematicField {
    cx: f64,
    cy: f64,
    cxx: f64,
    cxy: f64,
    cyy: f64,
}

impl SystematicField {
    fn sample<R: Rng + ?Sized>(rng: &mut R, sigma: f64) -> Self {
        Self {
            cx: sample_normal(rng, 0.0, sigma),
            cy: sample_normal(rng, 0.0, sigma),
            cxx: sample_normal(rng, 0.0, sigma / 2.0),
            cxy: sample_normal(rng, 0.0, sigma / 2.0),
            cyy: sample_normal(rng, 0.0, sigma / 2.0),
        }
    }

    fn eval(&self, x: f64, y: f64) -> f64 {
        self.cx * x + self.cy * y + self.cxx * x * x + self.cxy * x * y + self.cyy * y * y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::board::grid_position;
    use crate::env::Environment;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// `grow_board_with_id` as it stood before the row walk: the
    /// position of every unit from `grid_position`, kept verbatim as the
    /// reference the walk must match bit for bit.
    fn grow_board_per_unit<R: Rng + ?Sized>(
        sim: &SiliconSim,
        rng: &mut R,
        id: BoardId,
        units: usize,
        cols: usize,
    ) -> Board {
        let var = &sim.params.variation;
        let nominal = &sim.params.nominal;

        let inter_die = sample_normal(rng, 0.0, var.sigma_inter_die);
        let field = SystematicField::sample(rng, var.sigma_systematic);

        let fabricated: Vec<DelayUnit> = (0..units)
            .map(|i| {
                let (x, y) = grid_position(i, units, cols);
                let shared = 1.0 + inter_die + field.eval(x, y);
                let d = nominal.inverter_ps
                    * shared
                    * (1.0 + sample_normal(rng, 0.0, var.sigma_random));
                let d1 = nominal.mux_selected_ps
                    * shared
                    * (1.0 + sample_normal(rng, 0.0, var.sigma_random));
                let d0 = nominal.mux_bypass_ps
                    * shared
                    * (1.0 + sample_normal(rng, 0.0, var.sigma_random));
                let kv = sample_normal(rng, 0.0, var.sigma_voltage_sensitivity);
                let kt = sample_normal(rng, 0.0, var.sigma_temperature_sensitivity);
                DelayUnit::new(d, d1, d0, kv, kt)
            })
            .collect();
        Board::new(id, fabricated, cols)
    }

    #[test]
    fn row_walk_grows_the_per_unit_board_bit_for_bit() {
        // Ragged, wider-than-long, single-column, one-unit and the
        // fleet floorplan's grids.
        let sim = SiliconSim::default_spartan();
        for (units, cols) in [(7, 3), (3, 8), (4, 1), (1, 1), (480, 16)] {
            for seed in [0, 1, 7, 42, 1 << 40] {
                let mut walk = StdRng::seed_from_u64(seed);
                let mut oracle = StdRng::seed_from_u64(seed);
                let id = BoardId(seed as u32);
                assert_eq!(
                    sim.grow_board_with_id(&mut walk, id, units, cols),
                    grow_board_per_unit(&sim, &mut oracle, id, units, cols),
                    "{units} units on {cols} columns, seed {seed}"
                );
                // Both consumed the same draws.
                assert_eq!(walk.next_u64(), oracle.next_u64());
            }
        }
    }

    #[test]
    fn boards_are_reproducible_from_seed() {
        let sim = SiliconSim::default_spartan();
        let mut r1 = StdRng::seed_from_u64(5);
        let mut r2 = StdRng::seed_from_u64(5);
        let a = sim.grow_board_with_id(&mut r1, BoardId(0), 100, 10);
        let b = sim.grow_board_with_id(&mut r2, BoardId(0), 100, 10);
        assert_eq!(a, b);
    }

    #[test]
    fn boards_differ_across_seeds() {
        let sim = SiliconSim::default_spartan();
        let mut r1 = StdRng::seed_from_u64(5);
        let mut r2 = StdRng::seed_from_u64(6);
        let a = sim.grow_board_with_id(&mut r1, BoardId(0), 16, 4);
        let b = sim.grow_board_with_id(&mut r2, BoardId(0), 16, 4);
        assert_ne!(a, b);
    }

    #[test]
    fn board_ids_increment() {
        let mut sim = SiliconSim::default_spartan();
        let mut rng = StdRng::seed_from_u64(1);
        let a = sim.grow_board(&mut rng, 4, 2);
        let b = sim.grow_board(&mut rng, 4, 2);
        assert_eq!(a.id(), BoardId(0));
        assert_eq!(b.id(), BoardId(1));
    }

    #[test]
    fn delays_cluster_around_nominal() {
        let sim = SiliconSim::default_spartan();
        let mut rng = StdRng::seed_from_u64(11);
        let board = sim.grow_board_with_id(&mut rng, BoardId(0), 1000, 32);
        let mean: f64 = board.units().iter().map(|u| u.inverter_ps()).sum::<f64>() / 1000.0;
        // Within ±inter-die + systematic of the 100 ps nominal.
        assert!((mean - 100.0).abs() < 10.0, "mean {mean}");
        for u in board.units() {
            assert!(u.inverter_ps() > 80.0 && u.inverter_ps() < 120.0);
        }
    }

    #[test]
    fn inter_die_variation_shifts_board_means() {
        let sim = SiliconSim::default_spartan();
        let mut rng = StdRng::seed_from_u64(3);
        let means: Vec<f64> = (0..30)
            .map(|i| {
                let b = sim.grow_board_with_id(&mut rng, BoardId(i), 200, 16);
                b.units().iter().map(|u| u.inverter_ps()).sum::<f64>() / 200.0
            })
            .collect();
        let grand = means.iter().sum::<f64>() / means.len() as f64;
        let spread = means
            .iter()
            .map(|m| (m - grand) * (m - grand))
            .sum::<f64>()
            .sqrt()
            / (means.len() as f64).sqrt();
        // Board-mean spread should reflect sigma_inter_die (3 % of 100 ps),
        // well above the per-board standard error from random variation.
        assert!(spread > 1.0, "spread {spread}");
    }

    #[test]
    fn systematic_field_creates_spatial_correlation() {
        // Units adjacent on the grid should be more similar than units far
        // apart, averaged over many boards.
        let sim = SiliconSim::default_spartan();
        let mut rng = StdRng::seed_from_u64(17);
        let mut near = Vec::new();
        let mut far = Vec::new();
        for i in 0..50 {
            let b = sim.grow_board_with_id(&mut rng, BoardId(i), 64, 8);
            let u = b.units();
            near.push((u[0].inverter_ps() - u[1].inverter_ps()).abs());
            far.push((u[0].inverter_ps() - u[63].inverter_ps()).abs());
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&near) < mean(&far),
            "near {} !< far {}",
            mean(&near),
            mean(&far)
        );
    }

    #[test]
    fn environment_sensitivities_are_small_and_centered() {
        let sim = SiliconSim::default_spartan();
        let mut rng = StdRng::seed_from_u64(23);
        let b = sim.grow_board_with_id(&mut rng, BoardId(0), 2000, 64);
        let kvs: Vec<f64> = b
            .units()
            .iter()
            .map(|u| u.voltage_sensitivity_per_v())
            .collect();
        let mean = kvs.iter().sum::<f64>() / kvs.len() as f64;
        assert!(mean.abs() < 5e-4, "kv mean {mean}");
        assert!(kvs.iter().all(|k| k.abs() < 0.05));
    }

    #[test]
    fn grown_units_behave_under_environment() {
        let sim = SiliconSim::default_spartan();
        let mut rng = StdRng::seed_from_u64(29);
        let b = sim.grow_board_with_id(&mut rng, BoardId(0), 8, 4);
        let tech = sim.technology();
        for u in b.units() {
            let nom = u.path_delay(true, Environment::nominal(), tech);
            let slow = u.path_delay(true, Environment::new(0.98, 25.0), tech);
            assert!(slow > nom);
        }
    }

    #[test]
    #[should_panic(expected = "zero units")]
    fn zero_units_panics() {
        let sim = SiliconSim::default_spartan();
        let mut rng = StdRng::seed_from_u64(0);
        let _ = sim.grow_board_with_id(&mut rng, BoardId(0), 0, 4);
    }

    #[test]
    #[should_panic(expected = "invalid silicon parameters")]
    fn invalid_params_panic() {
        let mut p = SiliconParams::default();
        p.variation.sigma_random = f64::NAN;
        let _ = SiliconSim::new(p);
    }
}
