#![warn(missing_docs)]

//! Synthetic measurement datasets mirroring the paper's two data
//! sources.
//!
//! The paper evaluates on (a) the public Virginia Tech RO-frequency
//! dataset — 198 Spartan-3E boards, 194 measured at 1.20 V / 25 °C and
//! five swept across supply-voltage and temperature corners — and (b)
//! in-house inverter-level delay measurements on nine Virtex-5 boards.
//! Neither dataset ships with this repository (see `DESIGN.md`), so this
//! crate *grows* statistically equivalent fleets from the
//! [`ropuf_silicon`] process-variation model:
//!
//! * [`vt`] — the RO-frequency fleet ([`VtDataset`]), deterministic per
//!   seed, with per-condition frequency tables and die positions for the
//!   distiller.
//! * [`inhouse`] — the inverter-level fleet ([`InHouseDataset`]):
//!   calibrated per-unit `ddiff` values obtained by actually running the
//!   leave-one-out measurement procedure on simulated silicon.
//! * [`csv`] — plain-text round-trip for both datasets, so experiments
//!   can be rerun against exported files (or, with matching headers,
//!   against the real datasets if you have them).
//!
//! CSV is the only file format: the workspace has no serialization
//! dependency, and no dataset type derives one.
//!
//! # Examples
//!
//! ```
//! use ropuf_dataset::vt::{VtConfig, VtDataset};
//!
//! let mut config = VtConfig::default();
//! config.boards = 8;       // keep the doctest fast
//! config.swept_boards = 2;
//! config.ros_per_board = 32;
//! let data = VtDataset::generate(&config);
//! assert_eq!(data.boards().len(), 8);
//! assert_eq!(data.swept_boards().len(), 2);
//! ```

pub mod csv;
pub mod extract;
pub mod inhouse;
pub mod vt;

pub use csv::ParseCsvError;
pub use inhouse::{InHouseConfig, InHouseDataset};
pub use vt::{Condition, VtConfig, VtDataset};
