#![warn(missing_docs)]

//! Umbrella crate re-exporting the `ropuf` workspace.
//!
//! See the [README](https://example.invalid/ropuf) for a tour; the
//! typical imports live in [`prelude`].
pub use ropuf_attack as attack;
pub use ropuf_core as core;
pub use ropuf_dataset as dataset;
pub use ropuf_metrics as metrics;
pub use ropuf_nist as nist;
pub use ropuf_num as num;
pub use ropuf_server as server;
pub use ropuf_silicon as silicon;
pub use ropuf_telemetry as telemetry;

/// The types most programs start with.
///
/// # Examples
///
/// ```
/// use ropuf::prelude::*;
/// use rand::SeedableRng;
///
/// let mut sim = SiliconSim::default_spartan();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let board = sim.grow_board(&mut rng, 70, 10);
/// let puf = ConfigurableRoPuf::tiled_interleaved(70, 7);
/// let e = puf.enroll(
///     &mut rng,
///     &board,
///     sim.technology(),
///     Environment::nominal(),
///     &EnrollOptions::default(),
/// );
/// assert_eq!(e.bit_count(), 5);
/// ```
pub mod prelude {
    pub use ropuf_attack::model::LinearDelayAttack;
    pub use ropuf_attack::suite::{
        SuiteConfig as AttackSuiteConfig, SuiteReport as AttackSuiteReport,
    };
    pub use ropuf_core::crp::{respond as crp_respond, Challenge};
    pub use ropuf_core::error::Error;
    pub use ropuf_core::fleet::{
        split_seed, worker_threads, BoardRecord, FleetAging, FleetConfig, FleetEngine, FleetRun,
        Quarantine, QuarantineReason,
    };
    pub use ropuf_core::fuzzy::FuzzyExtractor;
    pub use ropuf_core::lifecycle::{Device, Enrolled, KeyCode, Started};
    pub use ropuf_core::monitor::{FleetHealth, FleetObservatory, MonitorConfig, SweepPlan};
    pub use ropuf_core::one_of_eight::{OneOfEightPuf, RoGroup};
    pub use ropuf_core::persist::{
        enrollment_from_bytes, enrollment_from_text, enrollment_to_bytes, enrollment_to_text,
    };
    pub use ropuf_core::puf::{
        ConfigurableRoPuf, EnrollOptions, Enrollment, PairSpec, SelectionMode,
    };
    pub use ropuf_core::ro::RoPair;
    pub use ropuf_core::robust::{
        enroll_robust, respond_robust_bound, FaultPlan, FaultSummary, RobustEnrollment,
        RobustOptions,
    };
    pub use ropuf_core::traditional::TraditionalRoPuf;
    pub use ropuf_core::{ConfigVector, ParityPolicy};
    pub use ropuf_dataset::extract::{distill_values, select_board, VirtualLayout};
    pub use ropuf_dataset::{InHouseConfig, InHouseDataset, VtConfig, VtDataset};
    pub use ropuf_metrics::hamming::HdStats;
    pub use ropuf_metrics::report::QualityReport;
    pub use ropuf_nist::suite::{run_suite, SuiteConfig};
    pub use ropuf_num::bits::BitVec;
    pub use ropuf_server::{DrillSpec, FsyncPolicy, PufService, ServiceConfig, Store};
    pub use ropuf_silicon::{
        Board, DelayProbe, Environment, FaultModel, FrequencyCounter, SiliconSim, Technology,
    };
}
