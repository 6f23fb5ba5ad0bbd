#![warn(missing_docs)]

//! Process-variation and environment simulator for delay-based PUF
//! research.
//!
//! This crate stands in for the physical silicon of the DAC 2014 paper
//! *"A Highly Flexible Ring Oscillator PUF"* (Gao, Lai & Qu): Xilinx
//! Spartan-3E / Virtex-5 FPGA boards carrying arrays of ring-oscillator
//! *delay units* — an inverter followed by a 2-to-1 MUX that either
//! includes the inverter in the ring (`d + d1`) or bypasses it over a wire
//! (`d0`).
//!
//! The simulation decomposes each device delay into physically distinct
//! components, because the paper's algorithms are sensitive to exactly this
//! structure:
//!
//! * **inter-die variation** — one offset per board (`σ_inter`),
//! * **systematic intra-die variation** — a smooth random low-order
//!   polynomial field over die coordinates (`σ_sys`); this is what the
//!   regression distiller removes,
//! * **random local variation** — i.i.d. per device (`σ_rand`); this is
//!   the PUF entropy,
//! * **environmental response** — a common alpha-power-law `V`/`T` scaling
//!   shared by all devices plus a *small per-device sensitivity spread*
//!   (`σ_kv`, `σ_kt`); the spread is the physical cause of PUF bit flips
//!   when the operating point moves.
//!
//! Measurement is modelled too ([`measure`]): a gated frequency counter
//! with quantization and jitter, and a pulse-propagation delay probe with
//! additive noise — the paper's calibration procedure must survive both.
//!
//! # Examples
//!
//! ```
//! use rand::SeedableRng;
//! use ropuf_silicon::{Environment, SiliconSim};
//!
//! let mut sim = SiliconSim::default_spartan();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let board = sim.grow_board(&mut rng, 64, 8);
//! let env = Environment::nominal();
//! // Every unit has a positive path delay in both MUX positions.
//! for unit in board.units() {
//!     assert!(unit.path_delay(true, env, sim.technology()) > 0.0);
//!     assert!(unit.path_delay(false, env, sim.technology()) > 0.0);
//! }
//! ```

pub mod aging;
pub mod board;
pub mod defects;
pub mod device;
pub mod env;
pub mod faults;
pub mod measure;
pub mod noise;
pub mod params;
pub mod sim;

pub use aging::AgingModel;
pub use board::{Board, BoardId};
pub use defects::DefectModel;
pub use device::DelayUnit;
pub use env::{CornerSet, Environment, Technology};
pub use faults::{FaultModel, InjectedFault};
pub use measure::{ConfigSweep, DelayProbe, FrequencyCounter, MeasureArena, RingSweep};
pub use params::{NoiseParams, SiliconParams, VariationParams};
pub use sim::SiliconSim;
