#![warn(missing_docs)]

//! The configurable inverter-level ring-oscillator PUF of
//! *"A Highly Flexible Ring Oscillator PUF"* (Gao, Lai & Qu, DAC 2014).
//!
//! A classic RO PUF compares two identically laid-out ring oscillators and
//! emits one bit from the sign of their frequency difference. This crate
//! implements the paper's refinement: build the ring at **inverter
//! granularity**, measure per-stage delay differences post-silicon, and
//! *choose which inverters participate* so the delay difference between
//! the two rings — the reliability margin of the bit — is maximized.
//!
//! The crate is organized along the paper's sections:
//!
//! * [`config`] — configuration vectors (the MUX selection bits) and the
//!   odd-parity oscillation policy,
//! * [`calibrate`] — §III.B: recovering per-unit `ddiff` values from
//!   whole-ring measurements (the 3-stage X/Y/Z solve and the generalized
//!   leave-one-out scheme),
//! * [`select`] — §III.D: the Case-1 (shared configuration) and Case-2
//!   (independent configurations) inverter-selection algorithms, plus a
//!   brute-force oracle,
//! * [`ro`] — configurable rings over simulated silicon,
//! * [`puf`] — the end-to-end enrollment/response pipeline,
//! * [`fleet`] — the parallel fleet enrollment/evaluation engine, with
//!   deterministic per-board seed splitting,
//! * [`monitor`] — the fleet health observatory: §IV's quality figures
//!   sampled as classified gauges with drift detection,
//! * [`reenroll`] — drift-triggered re-enrollment: multi-corner
//!   selection re-run on aged silicon, accepted only when it beats the
//!   old configuration's worst-corner margin,
//! * [`error`] — the unified [`Error`] type every fallible entry point
//!   returns,
//! * [`traditional`] / [`one_of_eight`] / [`cooperative`] — the
//!   baselines the paper compares against (§II),
//! * [`distill`] — the regression-based distiller (Yin & Qu, DAC'13) that
//!   removes systematic variation before bit extraction,
//! * [`budget`] — Table V's bits-per-board accounting,
//! * [`crp`] — challenge-response operation of a *reconfigurable*
//!   deployment and the linear modeling attack that breaks it (the
//!   security argument for the paper's fixed configurations),
//! * [`fuzzy`] — a repetition-code fuzzy extractor, the ECC machinery
//!   whose cost the configurable PUF's margins avoid,
//! * [`lifecycle`] — the typestate enrollment lifecycle
//!   (`Device<Started> → Device<Enrolled>`, opaque [`lifecycle::KeyCode`])
//!   that deployments drive instead of the free functions.
//!
//! # Examples
//!
//! Select inverters for a pair of rings from measured per-stage delays:
//!
//! ```
//! use ropuf_core::select::{case1, case2};
//! use ropuf_core::config::ParityPolicy;
//!
//! let top =    [101.0, 99.5, 100.2, 98.9, 101.8];
//! let bottom = [100.1, 100.4, 99.8, 100.6, 99.2];
//! let shared = case1(&top, &bottom, ParityPolicy::Ignore);
//! let split = case2(&top, &bottom, ParityPolicy::Ignore);
//! // Independent configurations can only widen the margin.
//! assert!(split.margin() >= shared.margin());
//! ```

pub mod budget;
pub mod calibrate;
pub mod config;
pub mod cooperative;
pub mod crp;
pub mod distill;
pub mod error;
pub mod fleet;
pub mod fuzzy;
pub mod lifecycle;
pub mod monitor;
pub mod one_of_eight;
pub mod persist;
pub mod puf;
pub mod reenroll;
pub mod ro;
pub mod robust;
pub mod select;
pub mod traditional;

pub use config::{ConfigVector, ParityPolicy};
pub use error::Error;
pub use fleet::{
    split_seed, FleetAging, FleetConfig, FleetEngine, FleetRun, Quarantine, QuarantineReason,
};
pub use lifecycle::{Device, Enrolled, KeyCode, Started};
pub use monitor::{FleetHealth, FleetObservatory, SweepPlan};
pub use puf::BoundEnrollment;
pub use reenroll::{DriftAssessment, ReenrollOutcome, ReenrollRejected};
pub use robust::{FaultPlan, FaultSummary};
pub use select::{case1, case2, PairSelection, Selection};
