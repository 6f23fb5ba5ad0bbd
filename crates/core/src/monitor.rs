//! Fleet health observatory: §IV's quality statistics as an
//! operational dashboard.
//!
//! The paper evaluates its PUF with a handful of figures — uniqueness,
//! reliability across environment corners, uniformity — computed once
//! over a finished experiment. A deployed fleet needs the same figures
//! *continuously*: sampled on live silicon, compared against the values
//! enrolled at provisioning time, and classified into ok / warn /
//! critical so an operator notices drift before keys stop
//! reconstructing.
//!
//! [`FleetObservatory`] packages that loop. One [`sample`] call:
//!
//! 1. runs the fleet across its environment corners (a [`SweepPlan`]:
//!    an edge sweep or the full [`Environment::corner_grid`]) on fresh
//!    silicon,
//! 2. when the fleet configures aging, repeats the run on *aged*
//!    silicon ([`FleetAging`](crate::fleet::FleetAging) drives
//!    [`ropuf_silicon::aging::AgingModel`]) — enrollment stays at year
//!    zero, responses come from the drifted devices, exactly the
//!    deployment scenario,
//! 3. harvests the selection counters (`select.case1.*`,
//!    `enroll.degenerate`, …) through a scoped in-memory telemetry
//!    sink, leaving whatever sink the application installed untouched,
//! 4. feeds every gauge in the [`default_gauges`] catalogue to a
//!    [`HealthBoard`], which classifies each against absolute limits
//!    and (when a baseline is enrolled) drift limits with hysteresis.
//!
//! The resulting [`FleetHealth`] carries the classified
//! [`HealthReport`] (renderable as a human table, versioned JSON, or
//! Prometheus text exposition) alongside the raw runs, so callers can
//! drill past the verdict.
//!
//! Monitoring is an *observer*: the fleet bits produced under the
//! observatory are byte-identical to a plain [`FleetEngine`] run with
//! the same configuration (guarded by `tests/monitor.rs`).
//!
//! The observatory watches the *silicon* (quality statistics sampled
//! from fleet runs); the serving side has parallel rails built on
//! the same classification machinery — `ropuf_server::ops` feeds
//! rolling-window availability/latency SLO gauges through an identical
//! [`HealthBoard`], scraped over the admin HTTP listener. Both planes
//! share one threshold/hysteresis semantics, so an operator reads one
//! vocabulary (`docs/OBSERVABILITY.md`).
//!
//! # Examples
//!
//! ```
//! use ropuf_core::monitor::{FleetObservatory, SweepPlan};
//! use ropuf_core::fleet::FleetConfig;
//! use ropuf_silicon::SiliconSim;
//!
//! let mut obs = FleetObservatory::new(
//!     SiliconSim::default_spartan(),
//!     FleetConfig {
//!         boards: 6,
//!         units: 60,
//!         stages: 5,
//!         corners: SweepPlan::Nominal.corners(),
//!         threads: Some(1),
//!         ..FleetConfig::default()
//!     },
//! )
//! .unwrap();
//! let health = obs.sample(7, &[]);
//! println!("{}", health.report.render());
//! ```
//!
//! [`sample`]: FleetObservatory::sample

use std::sync::Arc;

use ropuf_metrics::report::QualityReport;
use ropuf_num::bits::BitVec;
use ropuf_silicon::env::Environment;
use ropuf_silicon::SiliconSim;
use ropuf_telemetry::health::{
    Baseline, Direction, GaugeSpec, HealthBoard, HealthReport, Thresholds,
};
use ropuf_telemetry::{self as telemetry, MemorySink, Snapshot};

use crate::error::Error;
use crate::fleet::{FleetConfig, FleetEngine, FleetRun};

/// Which environment corners a monitoring sample visits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepPlan {
    /// Nominal conditions only (1.20 V, 25 °C) — fastest, no corner
    /// coverage.
    Nominal,
    /// Nominal plus the voltage sweep at nominal temperature.
    Voltage,
    /// Nominal plus the temperature sweep at nominal voltage.
    Temperature,
    /// The full V×T grid ([`Environment::corner_grid`]) — every §IV.D
    /// operating point including the four extreme corners, where
    /// voltage and temperature stress combine.
    Full,
}

impl SweepPlan {
    /// The corner list this plan visits, nominal first, duplicates
    /// removed. Gauges index corner 0 as "nominal".
    pub fn corners(self) -> Vec<Environment> {
        let nominal = Environment::nominal();
        let mut corners = vec![nominal];
        let mut extend = |batch: Vec<Environment>| {
            for env in batch {
                if !corners.contains(&env) {
                    corners.push(env);
                }
            }
        };
        match self {
            SweepPlan::Nominal => {}
            SweepPlan::Voltage => extend(Environment::voltage_sweep(nominal.temperature_c)),
            SweepPlan::Temperature => extend(Environment::temperature_sweep(nominal.voltage_v)),
            SweepPlan::Full => extend(Environment::corner_grid()),
        }
        corners
    }
}

/// The default gauge catalogue: every §IV statistic the observatory
/// samples, with its alarm thresholds.
///
/// Level thresholds are calibrated so a healthy fleet (the paper's
/// simulated Spartan-6 technology, Case-2 selection, default probe)
/// reads `ok` across the full environment sweep, while ≥5 years of
/// default-model aging trips `aged_flip_rate_worst`. Drift thresholds
/// are deliberately tighter than level thresholds: a fleet can be
/// inside absolute limits yet drifting fast enough to warrant a look.
pub fn default_gauges() -> Vec<GaugeSpec> {
    let level = |warn: f64, critical: f64, hysteresis: f64| Thresholds {
        warn,
        critical,
        hysteresis,
    };
    vec![
        GaugeSpec {
            name: "flip_rate_nominal",
            help: "Mean response flip fraction at the nominal corner (ideal 0)",
            direction: Direction::HighIsBad,
            level: level(0.01, 0.05, 0.002),
            drift: Some(level(0.005, 0.02, 0.001)),
        },
        GaugeSpec {
            name: "flip_rate_worst_corner",
            help: "Mean response flip fraction at the worst environment corner (ideal 0)",
            direction: Direction::HighIsBad,
            level: level(0.05, 0.15, 0.005),
            drift: Some(level(0.02, 0.08, 0.002)),
        },
        GaugeSpec {
            name: "flip_rate_worst_board",
            help: "Worst per-board flip fraction across all corners (ideal 0)",
            direction: Direction::HighIsBad,
            level: level(0.10, 0.25, 0.01),
            drift: None,
        },
        GaugeSpec {
            name: "uniqueness",
            help: "Mean normalized inter-chip Hamming distance (ideal 0.5)",
            direction: Direction::LowIsBad,
            level: level(0.40, 0.30, 0.01),
            drift: None,
        },
        GaugeSpec {
            name: "uniqueness_bias",
            help: "Distance of uniqueness from the 0.5 ideal",
            direction: Direction::HighIsBad,
            level: level(0.10, 0.20, 0.01),
            drift: Some(level(0.05, 0.10, 0.005)),
        },
        GaugeSpec {
            name: "uniformity_bias",
            help: "Distance of the mean ones-fraction from the 0.5 ideal",
            direction: Direction::HighIsBad,
            // Looser than uniqueness_bias: with short responses the
            // per-board ones-fraction is quantized at 1/bits, so small
            // fleets legitimately wobble well past 0.1.
            level: level(0.15, 0.25, 0.01),
            drift: Some(level(0.05, 0.10, 0.005)),
        },
        GaugeSpec {
            name: "worst_aliasing",
            help: "Largest per-position bit-aliasing deviation from 0.5 (0.5 = stuck position)",
            direction: Direction::HighIsBad,
            level: level(0.45, 0.4999, 0.005),
            drift: None,
        },
        GaugeSpec {
            name: "min_entropy_per_bit",
            help: "Mean positional min-entropy per response bit (ideal 1)",
            direction: Direction::LowIsBad,
            level: level(0.30, 0.10, 0.02),
            drift: None,
        },
        GaugeSpec {
            name: "degenerate_pair_rate",
            help: "Fraction of enrolled pairs with zero selection margin (bits with no silicon signature)",
            direction: Direction::HighIsBad,
            level: level(0.01, 0.05, 0.002),
            drift: None,
        },
        GaugeSpec {
            name: "case_win_bias",
            help: "Distance of the selection win share (case1 positive / case2 forward) from 0.5",
            direction: Direction::HighIsBad,
            level: level(0.25, 0.40, 0.02),
            drift: Some(level(0.10, 0.25, 0.01)),
        },
        GaugeSpec {
            name: "aged_flip_rate_nominal",
            help: "Mean flip fraction at the nominal corner on aged silicon (ideal 0)",
            direction: Direction::HighIsBad,
            level: level(0.005, 0.05, 0.001),
            drift: Some(level(0.005, 0.02, 0.001)),
        },
        GaugeSpec {
            name: "aged_flip_rate_worst",
            help: "Mean flip fraction at the worst corner on aged silicon (ideal 0)",
            direction: Direction::HighIsBad,
            level: level(0.01, 0.10, 0.002),
            drift: Some(level(0.01, 0.05, 0.002)),
        },
        // Fault-tolerance gauges: observed only when a fault-injection
        // plan is active (or a genuine quarantine struck), so plain
        // monitoring reports are unchanged.
        GaugeSpec {
            name: "quarantined_board_rate",
            help: "Fraction of boards quarantined instead of evaluated (ideal 0)",
            direction: Direction::HighIsBad,
            level: level(0.05, 0.25, 0.01),
            drift: None,
        },
        GaugeSpec {
            name: "unrecoverable_read_rate",
            help: "Fraction of measurement reads that failed even after retry/read-back recovery",
            direction: Direction::HighIsBad,
            level: level(0.002, 0.02, 0.0005),
            drift: None,
        },
        GaugeSpec {
            name: "injected_fault_rate",
            help: "Fraction of measurement reads hit by an injected fault (chaos-drill dial, ideal 0)",
            direction: Direction::HighIsBad,
            level: level(0.05, 0.25, 0.01),
            drift: None,
        },
        // Security gauges: attacker advantage (accuracy − 0.5) of the
        // `ropuf-attack` suite, observed only when a caller supplies the
        // suite's readings ([`FleetObservatory::sample`]) —
        // the core crate cannot run the attacks itself without a
        // dependency cycle. Plain samples leave them unobserved, so
        // existing reports are unchanged.
        GaugeSpec {
            name: "attacker_advantage_count_leak",
            help: "Count-leak advantage against the guarded Case-2 kernel (ideal 0; >0 means the equal-count guard broke)",
            direction: Direction::HighIsBad,
            level: level(0.02, 0.10, 0.005),
            drift: Some(level(0.01, 0.05, 0.002)),
        },
        GaugeSpec {
            name: "attacker_advantage_degenerate",
            help: "Degenerate-tie distinguisher advantage on the production fleet (ideal 0)",
            direction: Direction::HighIsBad,
            level: level(0.02, 0.10, 0.005),
            drift: None,
        },
        GaugeSpec {
            name: "attacker_advantage_gradient",
            help: "Spatial-gradient inference advantage against the distilled enrollment (ideal 0)",
            direction: Direction::HighIsBad,
            level: level(0.10, 0.20, 0.01),
            drift: None,
        },
        GaugeSpec {
            name: "attacker_advantage_broken_guard",
            help: "Count-leak advantage against the deliberately unguarded kernel — a canary that must stay HIGH (~0.5); a drop means the attack harness lost its teeth",
            direction: Direction::LowIsBad,
            level: level(0.40, 0.20, 0.02),
            drift: None,
        },
    ]
}

/// One monitoring sample: the classified health verdict plus the raw
/// material it was derived from.
#[derive(Debug, Clone)]
pub struct FleetHealth {
    /// Classified gauge readings (render as human table, JSON, or
    /// Prometheus exposition).
    pub report: HealthReport,
    /// The fresh-silicon run the quality gauges were computed from.
    pub fresh: FleetRun,
    /// The aged-silicon run, when the fleet configures aging.
    pub aged: Option<FleetRun>,
    /// Selection/enrollment counters and span histograms harvested
    /// during the sample (scoped; the application's own telemetry
    /// registry is not disturbed).
    pub counters: Snapshot,
}

/// Samples fleet quality gauges and classifies them against thresholds
/// and an optional enrolled baseline. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct FleetObservatory {
    fresh: FleetEngine,
    aged: Option<FleetEngine>,
    health: HealthBoard,
}

impl FleetObservatory {
    /// Builds an observatory over `sim` for `fleet`. Each sample runs
    /// `fleet` without aging on fresh silicon and, when `fleet.aging`
    /// is set with a positive age, runs it as given on aged silicon.
    ///
    /// Fails like [`FleetEngine::new`] on an invalid fleet or aging
    /// configuration.
    pub fn new(sim: SiliconSim, fleet: FleetConfig) -> Result<Self, Error> {
        let aged = match fleet.aging {
            Some(a) if a.years > 0.0 => Some(FleetEngine::new(sim.clone(), fleet.clone())?),
            _ => None,
        };
        let fresh = FleetEngine::new(
            sim,
            FleetConfig {
                aging: None,
                ..fleet
            },
        )?;
        Ok(Self {
            fresh,
            aged,
            health: HealthBoard::new(default_gauges()),
        })
    }

    /// The corners each sample visits (nominal first).
    pub fn corners(&self) -> &[Environment] {
        &self.fresh.config().corners
    }

    /// The fleet configuration of the fresh-silicon pass.
    pub fn config(&self) -> &FleetConfig {
        self.fresh.config()
    }

    /// Installs the baseline that drift gauges compare against.
    pub fn set_baseline(&mut self, baseline: Baseline) {
        self.health.set_baseline(baseline);
    }

    /// The installed baseline, if any.
    pub fn baseline(&self) -> Option<&Baseline> {
        self.health.baseline()
    }

    /// Runs the fleet once and snapshots the current gauge values as a
    /// baseline — the enrollment half of drift detection. Persist the
    /// result ([`Baseline::to_json`]) and feed it back through
    /// [`set_baseline`](Self::set_baseline) on later samples.
    /// `security` readings (see [`sample`](Self::sample)) are included,
    /// so drift detection covers attacker advantage too.
    ///
    /// The enrollment run itself is classified level-only (no baseline
    /// is installed while it executes) and its alarm memory is
    /// discarded, so a subsequent [`sample`](Self::sample) starts from
    /// a clean hysteresis state.
    pub fn enroll_baseline(
        &mut self,
        master_seed: u64,
        security: &[(&'static str, f64)],
    ) -> Baseline {
        let before = self.health.clone();
        let health = self.sample(master_seed, security);
        self.health = before;
        Baseline {
            values: health
                .report
                .gauges
                .iter()
                .map(|g| (g.name.to_string(), g.value))
                .collect(),
        }
    }

    /// Runs one monitoring cycle at `master_seed`: fresh sweep, aged
    /// sweep (when configured), gauge classification. Deterministic —
    /// same seed, same silicon, same [`FleetHealth`] (timings aside) at
    /// any thread count.
    ///
    /// `security` carries externally supplied security-gauge readings —
    /// typically `ropuf_attack::suite::SuiteReport::security_readings()`,
    /// which the CLI `monitor` command feeds here. Readings whose names
    /// are not in the gauge catalogue are ignored; an empty slice
    /// leaves the security gauges unobserved.
    pub fn sample(&mut self, master_seed: u64, security: &[(&'static str, f64)]) -> FleetHealth {
        let sink = Arc::new(MemorySink::default());
        let (fresh, aged) = {
            let (fresh_engine, aged_engine) = (&self.fresh, &self.aged);
            telemetry::scoped(sink.clone(), || {
                let fresh = fresh_engine.run(master_seed);
                let aged = aged_engine.as_ref().map(|e| e.run(master_seed));
                (fresh, aged)
            })
        };
        let counters = sink.snapshot().unwrap_or_default();
        self.observe_gauges(&fresh, aged.as_ref(), &counters);
        for &(name, value) in security {
            if self.health.specs().iter().any(|s| s.name == name) {
                self.health.observe(name, value);
            }
        }
        FleetHealth {
            report: self.health.report(),
            fresh,
            aged,
            counters,
        }
    }

    fn observe_gauges(&mut self, fresh: &FleetRun, aged: Option<&FleetRun>, counters: &Snapshot) {
        let rates = fresh.corner_flip_rates();
        if let Some(&nominal) = rates.first() {
            self.health.observe("flip_rate_nominal", nominal);
        }
        if let Some(worst) = rates.iter().copied().reduce(f64::max) {
            self.health.observe("flip_rate_worst_corner", worst);
        }
        if let Some(worst) = worst_board_flip_rate(fresh) {
            self.health.observe("flip_rate_worst_board", worst);
        }
        // Quality statistics need equal-length responses (threshold
        // exclusions can desync board bit counts) and at least two
        // boards; skip the gauges rather than feed garbage.
        if let Some(report) = quality_report(fresh) {
            for (name, value) in report.health_gauges() {
                // `health_gauges` may grow figures the catalogue does
                // not watch (e.g. reliability when re-measurements
                // exist); only closed-catalogue names are observed.
                if self.health.specs().iter().any(|s| s.name == name) {
                    self.health.observe(name, value);
                }
            }
        }
        let count = |name: &str| {
            counters
                .counters
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |&(_, v)| v)
        };
        let pairs = count("enroll.pairs.case1") + count("enroll.pairs.case2");
        if pairs > 0 {
            let degenerate = count("enroll.degenerate");
            self.health
                .observe("degenerate_pair_rate", degenerate as f64 / pairs as f64);
        }
        // Win counters from whichever selection algorithm actually ran
        // (the aged pass re-enrolls identically, so the share is
        // unchanged by double counting).
        let case1 = (
            count("select.case1.positive_wins"),
            count("select.case1.negative_wins"),
        );
        let case2 = (
            count("select.case2.forward_wins"),
            count("select.case2.reverse_wins"),
        );
        let (a, b) = if case1.0 + case1.1 >= case2.0 + case2.1 {
            case1
        } else {
            case2
        };
        if a + b > 0 {
            let share = a as f64 / (a + b) as f64;
            self.health.observe("case_win_bias", (share - 0.5).abs());
        }
        if let Some(aged) = aged {
            let rates = aged.corner_flip_rates();
            if let Some(&nominal) = rates.first() {
                self.health.observe("aged_flip_rate_nominal", nominal);
            }
            if let Some(worst) = rates.iter().copied().reduce(f64::max) {
                self.health.observe("aged_flip_rate_worst", worst);
            }
        }
        // Fault-tolerance gauges: only meaningful when the fault layer
        // ran (a plan is configured) or a board was actually pulled —
        // an unfaulted sample leaves them unobserved so its report is
        // identical to the pre-fault-layer output.
        let fault_layer_active = self.fresh.config().faults.is_some();
        if fault_layer_active || !fresh.quarantined.is_empty() {
            let total_boards = fresh.records.len() + fresh.quarantined.len();
            if total_boards > 0 {
                self.health.observe(
                    "quarantined_board_rate",
                    fresh.quarantined.len() as f64 / total_boards as f64,
                );
            }
        }
        if fault_layer_active && fresh.faults.reads > 0 {
            let reads = fresh.faults.reads as f64;
            self.health.observe(
                "unrecoverable_read_rate",
                fresh.faults.failed_reads as f64 / reads,
            );
            self.health.observe(
                "injected_fault_rate",
                fresh.faults.injected_faults() as f64 / reads,
            );
        }
    }
}

/// Worst per-board flip fraction over all corners: for each board, the
/// flip count at its worst corner over its bit count; maximum across
/// boards. `None` when no board enrolled any bits.
fn worst_board_flip_rate(run: &FleetRun) -> Option<f64> {
    run.records
        .iter()
        .filter(|r| !r.expected_bits.is_empty())
        .filter_map(|r| {
            r.corner_flips
                .iter()
                .max()
                .map(|&flips| flips as f64 / r.expected_bits.len() as f64)
        })
        .reduce(f64::max)
}

/// [`QualityReport`] over the run's enrolled bits, when computable:
/// at least two boards, all responses the same non-zero length.
fn quality_report(run: &FleetRun) -> Option<QualityReport> {
    let bits: Vec<BitVec> = run
        .records
        .iter()
        .map(|r| r.expected_bits.clone())
        .collect();
    let len = bits.first().map(BitVec::len)?;
    if len == 0 || bits.iter().any(|b| b.len() != len) {
        return None;
    }
    QualityReport::evaluate(&bits, &[])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::FleetAging;

    fn small_config(sweep: SweepPlan, aging: Option<FleetAging>) -> FleetConfig {
        FleetConfig {
            boards: 6,
            units: 60,
            cols: 6,
            stages: 5,
            corners: sweep.corners(),
            aging,
            threads: Some(1),
            ..FleetConfig::default()
        }
    }

    #[test]
    fn sweep_plans_start_at_nominal_and_dedup() {
        for plan in [
            SweepPlan::Nominal,
            SweepPlan::Voltage,
            SweepPlan::Temperature,
            SweepPlan::Full,
        ] {
            let corners = plan.corners();
            assert_eq!(corners[0], Environment::nominal(), "{plan:?}");
            for (i, a) in corners.iter().enumerate() {
                assert!(
                    !corners[i + 1..].contains(a),
                    "{plan:?} repeats corner {a:?}"
                );
            }
        }
        assert_eq!(SweepPlan::Nominal.corners().len(), 1);
        assert_eq!(SweepPlan::Voltage.corners().len(), 5);
        assert_eq!(SweepPlan::Temperature.corners().len(), 5);
        // Full is the complete 5×5 V/T grid, including the extreme
        // corners the edge sweeps never visit.
        assert_eq!(SweepPlan::Full.corners().len(), 25);
        for extreme in Environment::extreme_corners() {
            assert!(SweepPlan::Full.corners().contains(&extreme));
        }
    }

    #[test]
    fn sample_reads_every_catalogue_gauge_it_has_data_for() {
        let mut obs = FleetObservatory::new(
            SiliconSim::default_spartan(),
            small_config(
                SweepPlan::Voltage,
                Some(FleetAging {
                    model: Default::default(),
                    years: 5.0,
                }),
            ),
        )
        .unwrap();
        let health = obs.sample(11, &[]);
        let names: Vec<_> = health.report.gauges.iter().map(|g| g.name).collect();
        for expected in [
            "flip_rate_nominal",
            "flip_rate_worst_corner",
            "flip_rate_worst_board",
            "uniqueness",
            "uniqueness_bias",
            "uniformity_bias",
            "worst_aliasing",
            "min_entropy_per_bit",
            "degenerate_pair_rate",
            "case_win_bias",
            "aged_flip_rate_nominal",
            "aged_flip_rate_worst",
        ] {
            assert!(names.contains(&expected), "missing gauge {expected}");
        }
        assert!(health.aged.is_some());
        assert!(!health.counters.counters.is_empty());
    }

    #[test]
    fn aged_gauges_absent_without_aging() {
        let mut obs = FleetObservatory::new(
            SiliconSim::default_spartan(),
            small_config(SweepPlan::Nominal, None),
        )
        .unwrap();
        let health = obs.sample(11, &[]);
        assert!(health.aged.is_none());
        assert!(health
            .report
            .gauges
            .iter()
            .all(|g| !g.name.starts_with("aged_")));
    }

    #[test]
    fn enroll_baseline_enables_drift_readings() {
        let mut obs = FleetObservatory::new(
            SiliconSim::default_spartan(),
            small_config(SweepPlan::Nominal, None),
        )
        .unwrap();
        let baseline = obs.enroll_baseline(3, &[]);
        assert!(baseline.get("flip_rate_nominal").is_some());
        obs.set_baseline(baseline);
        let health = obs.sample(3, &[]);
        let nominal = health
            .report
            .gauges
            .iter()
            .find(|g| g.name == "flip_rate_nominal")
            .unwrap();
        // Same seed as enrollment: drift is exactly zero.
        assert_eq!(nominal.drift, Some(0.0));
        assert!(nominal.drift_status.is_some());
    }

    #[test]
    fn security_gauges_appear_only_when_readings_are_supplied() {
        let mk = || {
            FleetObservatory::new(
                SiliconSim::default_spartan(),
                small_config(SweepPlan::Nominal, None),
            )
            .unwrap()
        };
        // Plain sample: no security gauge in the report.
        let plain = mk().sample(7, &[]);
        assert!(plain
            .report
            .gauges
            .iter()
            .all(|g| !g.name.starts_with("attacker_advantage_")));
        // With readings: all four classified, the canary via LowIsBad.
        let readings = [
            ("attacker_advantage_count_leak", 0.0),
            ("attacker_advantage_degenerate", 0.0),
            ("attacker_advantage_gradient", 0.03),
            ("attacker_advantage_broken_guard", 0.49),
            ("attacker_advantage_not_in_catalogue", 1.0),
        ];
        let health = mk().sample(7, &readings);
        let gauge = |name: &str| {
            health
                .report
                .gauges
                .iter()
                .find(|g| g.name == name)
                .unwrap_or_else(|| panic!("missing gauge {name}"))
        };
        assert_eq!(gauge("attacker_advantage_count_leak").value, 0.0);
        assert_eq!(gauge("attacker_advantage_broken_guard").value, 0.49);
        assert!(health
            .report
            .gauges
            .iter()
            .all(|g| g.name != "attacker_advantage_not_in_catalogue"));
        // A guarded-kernel leak and a limp canary both alarm.
        let bad = [
            ("attacker_advantage_count_leak", 0.2),
            ("attacker_advantage_broken_guard", 0.05),
        ];
        let health = mk().sample(7, &bad);
        assert_eq!(
            gauge_status(&health, "attacker_advantage_count_leak"),
            ropuf_telemetry::Status::Critical
        );
        assert_eq!(
            gauge_status(&health, "attacker_advantage_broken_guard"),
            ropuf_telemetry::Status::Critical
        );
    }

    fn gauge_status(health: &FleetHealth, name: &str) -> ropuf_telemetry::Status {
        health
            .report
            .gauges
            .iter()
            .find(|g| g.name == name)
            .unwrap_or_else(|| panic!("missing gauge {name}"))
            .status
    }

    #[test]
    fn security_baseline_covers_the_attack_gauges() {
        let mut obs = FleetObservatory::new(
            SiliconSim::default_spartan(),
            small_config(SweepPlan::Nominal, None),
        )
        .unwrap();
        let readings = [("attacker_advantage_count_leak", 0.0)];
        let baseline = obs.enroll_baseline(3, &readings);
        assert_eq!(baseline.get("attacker_advantage_count_leak"), Some(0.0));
        obs.set_baseline(baseline);
        let health = obs.sample(3, &readings);
        let gauge = health
            .report
            .gauges
            .iter()
            .find(|g| g.name == "attacker_advantage_count_leak")
            .unwrap();
        assert_eq!(gauge.drift, Some(0.0));
    }

    #[test]
    fn sampling_is_deterministic() {
        let mk = || {
            FleetObservatory::new(
                SiliconSim::default_spartan(),
                small_config(SweepPlan::Voltage, None),
            )
            .unwrap()
        };
        let a = mk().sample(42, &[]);
        let b = mk().sample(42, &[]);
        assert_eq!(a.fresh.records, b.fresh.records);
        assert_eq!(a.report.gauges, b.report.gauges);
        assert_eq!(a.counters.counters, b.counters.counters);
    }
}
