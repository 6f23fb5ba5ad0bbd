//! The synthetic Virginia Tech-style RO-frequency fleet.

use rand::rngs::StdRng;
use rand::SeedableRng;

use ropuf_core::fleet::parallel_map_indexed;
use ropuf_silicon::board::BoardId;
use ropuf_silicon::{Board, Environment, FrequencyCounter, SiliconParams, SiliconSim};

/// An operating condition, serializable and exactly comparable (the
/// dataset stores measurements keyed by condition).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Condition {
    /// Supply voltage, volts.
    pub voltage_v: f64,
    /// Temperature, °C.
    pub temperature_c: f64,
}

impl Condition {
    /// The fleet's nominal condition: 1.20 V / 25 °C.
    pub fn nominal() -> Self {
        Environment::nominal().into()
    }
}

impl From<Environment> for Condition {
    fn from(env: Environment) -> Self {
        Self {
            voltage_v: env.voltage_v,
            temperature_c: env.temperature_c,
        }
    }
}

impl From<Condition> for Environment {
    fn from(c: Condition) -> Self {
        Environment::new(c.voltage_v, c.temperature_c)
    }
}

/// One frequency sweep of one board at one condition.
#[derive(Debug, Clone, PartialEq)]
pub struct VtMeasurement {
    /// The operating condition.
    pub condition: Condition,
    /// Per-RO frequency, MHz, in placement order.
    pub freqs_mhz: Vec<f64>,
}

/// One board of the fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct VtBoard {
    /// Board index within the fleet.
    pub id: u32,
    /// Grid width used for RO placement (for die coordinates).
    pub cols: usize,
    /// Measurements, nominal first.
    pub measurements: Vec<VtMeasurement>,
}

impl VtBoard {
    /// Frequencies at the given condition, if measured.
    pub fn at(&self, condition: Condition) -> Option<&[f64]> {
        self.measurements
            .iter()
            .find(|m| {
                (m.condition.voltage_v - condition.voltage_v).abs() < 1e-9
                    && (m.condition.temperature_c - condition.temperature_c).abs() < 1e-9
            })
            .map(|m| m.freqs_mhz.as_slice())
    }

    /// Frequencies at the nominal condition.
    ///
    /// # Panics
    ///
    /// Panics if the board lacks a nominal measurement (generated boards
    /// always have one).
    pub fn nominal(&self) -> &[f64] {
        self.at(Condition::nominal())
            .expect("every generated board carries a nominal measurement")
    }

    /// Number of ROs on the board.
    pub fn ro_count(&self) -> usize {
        self.measurements.first().map_or(0, |m| m.freqs_mhz.len())
    }

    /// Normalized die position of RO `i` (same convention as
    /// [`ropuf_silicon::Board::position`]).
    pub fn position(&self, i: usize) -> (f64, f64) {
        let n = self.ro_count();
        assert!(i < n, "RO index {i} out of range {n}");
        let rows = n.div_ceil(self.cols);
        let norm = |k: usize, total: usize| {
            if total <= 1 {
                0.0
            } else {
                2.0 * k as f64 / (total - 1) as f64 - 1.0
            }
        };
        (norm(i % self.cols, self.cols), norm(i / self.cols, rows))
    }

    /// All RO positions in placement order.
    pub fn positions(&self) -> Vec<(f64, f64)> {
        (0..self.ro_count()).map(|i| self.position(i)).collect()
    }

    /// The environmental conditions this board was measured at.
    pub fn conditions(&self) -> Vec<Condition> {
        self.measurements.iter().map(|m| m.condition).collect()
    }
}

/// Generation parameters for the fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct VtConfig {
    /// Total boards (the real dataset has 198).
    pub boards: usize,
    /// How many of the last boards carry full V/T sweeps (real: 5).
    pub swept_boards: usize,
    /// ROs per board (real: 512; the paper's analyses use 480 of them).
    pub ros_per_board: usize,
    /// Placement grid width.
    pub cols: usize,
    /// Ring stages each measured RO represents (frequency scale only).
    pub stages_per_ro: usize,
    /// Master seed; the fleet is a pure function of the configuration.
    pub seed: u64,
    /// Silicon process parameters.
    pub params: SiliconParams,
}

impl Default for VtConfig {
    fn default() -> Self {
        Self {
            boards: 198,
            swept_boards: 5,
            ros_per_board: 512,
            cols: 16,
            stages_per_ro: 5,
            seed: 0x5eed_0001,
            params: SiliconParams::spartan3e(),
        }
    }
}

/// The synthetic fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct VtDataset {
    boards: Vec<VtBoard>,
    swept_boards: usize,
}

impl VtDataset {
    /// Grows the fleet. Every board gets a nominal measurement; the last
    /// [`VtConfig::swept_boards`] boards additionally get the five
    /// voltage corners (at 25 °C) and five temperature corners (at
    /// 1.20 V).
    ///
    /// Each board draws from its own RNG seeded by
    /// `(config.seed, board id)`, so any board is reproducible in
    /// isolation and generation parallelizes across all available cores
    /// without changing the output.
    ///
    /// # Panics
    ///
    /// Panics if `boards == 0`, `swept_boards > boards`, or the silicon
    /// parameters fail validation.
    pub fn generate(config: &VtConfig) -> Self {
        assert!(config.boards > 0, "the fleet needs at least one board");
        assert!(
            config.swept_boards <= config.boards,
            "cannot sweep more boards than exist"
        );
        let sim = SiliconSim::new(config.params);
        let counter = FrequencyCounter::from_params(&config.params.noise);
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let boards = parallel_map_indexed(config.boards, threads, |b| {
            generate_board(config, &sim, &counter, b)
        });
        Self {
            boards,
            swept_boards: config.swept_boards,
        }
    }

    /// Reassembles a dataset from parsed parts (used by the CSV reader).
    pub(crate) fn from_parts(boards: Vec<VtBoard>, swept_boards: usize) -> Self {
        Self {
            boards,
            swept_boards,
        }
    }

    /// All boards, in id order.
    pub fn boards(&self) -> &[VtBoard] {
        &self.boards
    }

    /// The boards measured only at nominal conditions (the paper's 194
    /// when generated with the default configuration minus the sweeps —
    /// here: all boards except the swept tail, each of which still
    /// includes its nominal row).
    pub fn nominal_boards(&self) -> &[VtBoard] {
        &self.boards[..self.boards.len() - self.swept_boards]
    }

    /// The environmentally swept boards (the paper's 5).
    pub fn swept_boards(&self) -> &[VtBoard] {
        &self.boards[self.boards.len() - self.swept_boards..]
    }
}

/// Grows and measures one board from its own `(seed, id)`-derived RNG.
fn generate_board(
    config: &VtConfig,
    sim: &SiliconSim,
    counter: &FrequencyCounter,
    b: usize,
) -> VtBoard {
    let mut rng = StdRng::seed_from_u64(
        config
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(b as u64 + 1)),
    );
    let silicon = sim.grow_board_with_id(
        &mut rng,
        BoardId(b as u32),
        config.ros_per_board,
        config.cols,
    );
    let swept = b + config.swept_boards >= config.boards;
    let mut conditions: Vec<Environment> = vec![Environment::nominal()];
    if swept {
        for env in Environment::voltage_sweep(25.0)
            .into_iter()
            .chain(Environment::temperature_sweep(1.20))
        {
            if !conditions.contains(&env) {
                conditions.push(env);
            }
        }
    }
    let measurements = conditions
        .into_iter()
        .map(|env| VtMeasurement {
            condition: env.into(),
            freqs_mhz: measure_board(
                &mut rng,
                &silicon,
                counter,
                env,
                sim.technology(),
                config.stages_per_ro,
            ),
        })
        .collect();
    VtBoard {
        id: b as u32,
        cols: config.cols,
        measurements,
    }
}

fn measure_board(
    rng: &mut StdRng,
    silicon: &Board,
    counter: &FrequencyCounter,
    env: Environment,
    tech: &ropuf_silicon::Technology,
    stages: usize,
) -> Vec<f64> {
    silicon
        .units()
        .iter()
        .map(|u| counter.measure_mhz(rng, stages as f64 * u.path_delay(true, env, tech)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> VtConfig {
        VtConfig {
            boards: 10,
            swept_boards: 3,
            ros_per_board: 24,
            cols: 6,
            ..VtConfig::default()
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let c = small_config();
        assert_eq!(VtDataset::generate(&c), VtDataset::generate(&c));
        let mut c2 = c.clone();
        c2.seed += 1;
        assert_ne!(VtDataset::generate(&c), VtDataset::generate(&c2));
    }

    #[test]
    fn boards_are_individually_reproducible() {
        // Growing a smaller prefix of the same fleet yields identical
        // boards: each board depends only on (seed, id).
        let big = VtDataset::generate(&small_config());
        let mut small = small_config();
        small.boards = 4;
        small.swept_boards = 0;
        let prefix = VtDataset::generate(&small);
        for (a, b) in prefix.boards().iter().zip(big.boards()) {
            assert_eq!(a.nominal(), b.nominal(), "board {}", a.id);
        }
    }

    #[test]
    fn structure_matches_config() {
        let data = VtDataset::generate(&small_config());
        assert_eq!(data.boards().len(), 10);
        assert_eq!(data.nominal_boards().len(), 7);
        assert_eq!(data.swept_boards().len(), 3);
        for b in data.nominal_boards() {
            assert_eq!(b.measurements.len(), 1);
            assert_eq!(b.ro_count(), 24);
        }
        for b in data.swept_boards() {
            // nominal + 4 extra voltages + 4 extra temperatures.
            assert_eq!(b.measurements.len(), 9);
        }
    }

    #[test]
    fn frequencies_are_plausible() {
        let data = VtDataset::generate(&small_config());
        for b in data.boards() {
            for f in b.nominal() {
                // 5 stages × ~135 ps ⇒ period ~1.35 ns ⇒ ~700-800 MHz.
                assert!(*f > 400.0 && *f < 1200.0, "f {f}");
            }
        }
    }

    #[test]
    fn lower_voltage_means_lower_frequency() {
        let data = VtDataset::generate(&small_config());
        let b = &data.swept_boards()[0];
        let low = b
            .at(Condition {
                voltage_v: 0.98,
                temperature_c: 25.0,
            })
            .unwrap();
        let high = b
            .at(Condition {
                voltage_v: 1.44,
                temperature_c: 25.0,
            })
            .unwrap();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(mean(low) < mean(high));
    }

    #[test]
    fn board_positions_cover_grid() {
        let data = VtDataset::generate(&small_config());
        let b = &data.boards()[0];
        assert_eq!(b.position(0), (-1.0, -1.0));
        let positions = b.positions();
        assert_eq!(positions.len(), 24);
        assert!(positions
            .iter()
            .all(|&(x, y)| (-1.0..=1.0).contains(&x) && (-1.0..=1.0).contains(&y)));
    }

    #[test]
    fn missing_condition_is_none() {
        let data = VtDataset::generate(&small_config());
        let b = &data.nominal_boards()[0];
        assert!(b
            .at(Condition {
                voltage_v: 0.98,
                temperature_c: 25.0
            })
            .is_none());
        assert!(b.at(Condition::nominal()).is_some());
    }

    #[test]
    fn condition_environment_round_trip() {
        let env = Environment::new(1.08, 45.0);
        let c: Condition = env.into();
        let back: Environment = c.into();
        assert_eq!(env, back);
    }

    #[test]
    #[should_panic(expected = "cannot sweep more boards")]
    fn too_many_swept_panics() {
        let mut c = small_config();
        c.swept_boards = 11;
        let _ = VtDataset::generate(&c);
    }
}
