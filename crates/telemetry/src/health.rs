//! Fleet health: quality gauges, alarm thresholds with hysteresis,
//! drift detection against an enrolled baseline, and machine-readable
//! exposition.
//!
//! Counters and histograms (see [`crate::metrics`]) describe *how much
//! work* a run did; gauges describe *how healthy the PUF is* — point
//! samples of fleet-level figures of merit (flip rate, uniqueness,
//! uniformity bias, …) that an operator wants classified, not just
//! recorded. This module is the classification machinery; it is
//! deliberately value-only (no knowledge of what a gauge measures) so
//! the same code can watch any scalar the workspace produces. The
//! gauge *sources* live with the statistics they sample — e.g.
//! `ropuf_metrics::report::QualityReport::health_gauges` and the fleet
//! observatory in `ropuf_core::monitor`.
//!
//! # Model
//!
//! * A [`GaugeSpec`] declares a gauge: name, help text, which
//!   [`Direction`] is unhealthy, absolute-level [`Thresholds`], and
//!   optional drift thresholds applied to `|value − baseline|`.
//! * A [`HealthBoard`] holds the specs, an optional enrolled
//!   [`Baseline`], and per-gauge status memory for hysteresis. Feeding
//!   it samples with [`HealthBoard::observe`] yields a classified
//!   [`GaugeReading`] per gauge; [`HealthBoard::report`] bundles the
//!   current cycle into a versioned [`HealthReport`].
//! * A [`HealthReport`] renders three ways: a versioned JSON document
//!   ([`HealthReport::to_json`], `"version"` =
//!   [`HEALTH_REPORT_VERSION`]), a Prometheus text exposition
//!   ([`HealthReport::render_prometheus`]), and a human summary
//!   ([`HealthReport::render`]).
//!
//! # Hysteresis
//!
//! Alarms latch: once a gauge enters `warn` or `critical`, it only
//! demotes after the value has receded past the entry threshold by the
//! spec's `hysteresis` band. A gauge oscillating exactly on a
//! threshold therefore alarms once instead of flapping every cycle.
//!
//! # Examples
//!
//! ```
//! use ropuf_telemetry::health::{
//!     Direction, GaugeSpec, HealthBoard, Status, Thresholds,
//! };
//!
//! let mut board = HealthBoard::new(vec![GaugeSpec {
//!     name: "flip_rate_worst",
//!     help: "worst per-corner bit flip fraction",
//!     direction: Direction::HighIsBad,
//!     level: Thresholds { warn: 0.02, critical: 0.05, hysteresis: 0.005 },
//!     drift: None,
//! }]);
//! assert_eq!(board.observe("flip_rate_worst", 0.001), Status::Ok);
//! assert_eq!(board.observe("flip_rate_worst", 0.03), Status::Warn);
//! let report = board.report();
//! assert_eq!(report.overall, Status::Warn);
//! assert!(report.to_json().contains("\"version\""));
//! ```

use std::collections::BTreeMap;

use crate::json::{self, Value};

/// Version stamped into every JSON health report and baseline file.
/// Bump when a field changes meaning or shape.
pub const HEALTH_REPORT_VERSION: u32 = 1;

/// Classification of one gauge (or a whole report). Ordered:
/// `Ok < Warn < Critical`, so `max` composes statuses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Status {
    /// Within nominal bounds.
    #[default]
    Ok,
    /// Past the warn threshold (or drifted past the warn band).
    Warn,
    /// Past the critical threshold.
    Critical,
}

impl Status {
    /// Stable lowercase name (`ok` / `warn` / `critical`), as emitted
    /// in JSON reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Warn => "warn",
            Status::Critical => "critical",
        }
    }

    /// Numeric severity for Prometheus exposition: 0, 1, or 2.
    pub fn severity(self) -> u8 {
        match self {
            Status::Ok => 0,
            Status::Warn => 1,
            Status::Critical => 2,
        }
    }
}

impl std::fmt::Display for Status {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Which way a gauge degrades.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Larger values are unhealthy (flip rates, bias magnitudes).
    HighIsBad,
    /// Smaller values are unhealthy (min-entropy, margins).
    LowIsBad,
}

/// Warn/critical limits plus the hysteresis band a recovery must clear.
///
/// Limits are inclusive on the unhealthy side: with
/// [`Direction::HighIsBad`], `value >= warn` enters `warn`. All three
/// fields are in the gauge's own unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Thresholds {
    /// Entry limit for [`Status::Warn`].
    pub warn: f64,
    /// Entry limit for [`Status::Critical`].
    pub critical: f64,
    /// How far past a limit (on the healthy side) the value must
    /// recede before the alarm demotes. `0.0` disables latching.
    pub hysteresis: f64,
}

impl Thresholds {
    /// Classifies `value` against these limits with `direction`
    /// semantics, latching per `previous` (the gauge's last status).
    pub fn classify(&self, direction: Direction, value: f64, previous: Status) -> Status {
        let exceeds = |limit: f64| match direction {
            Direction::HighIsBad => value >= limit,
            Direction::LowIsBad => value <= limit,
        };
        // A previously latched level holds until the value clears its
        // entry limit by the hysteresis band.
        let holds = |limit: f64, latched: bool| {
            exceeds(limit)
                || (latched
                    && match direction {
                        Direction::HighIsBad => value > limit - self.hysteresis,
                        Direction::LowIsBad => value < limit + self.hysteresis,
                    })
        };
        if holds(self.critical, previous == Status::Critical) {
            Status::Critical
        } else if holds(self.warn, previous >= Status::Warn) {
            Status::Warn
        } else {
            Status::Ok
        }
    }
}

/// Declaration of one health gauge.
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeSpec {
    /// Gauge name: `[a-z0-9_]` by convention (used verbatim in JSON and
    /// sanitized for Prometheus).
    pub name: &'static str,
    /// One-line human description (Prometheus `# HELP`).
    pub help: &'static str,
    /// Which way the gauge degrades.
    pub direction: Direction,
    /// Absolute-level alarm limits.
    pub level: Thresholds,
    /// Optional drift alarm on `|value − baseline|`; only evaluated
    /// when the board holds a baseline value for this gauge. Drift is a
    /// magnitude, so these thresholds always read high-is-bad.
    pub drift: Option<Thresholds>,
}

/// One classified gauge sample.
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeReading {
    /// Gauge name (from the spec).
    pub name: &'static str,
    /// Help text (from the spec).
    pub help: &'static str,
    /// The sampled value.
    pub value: f64,
    /// Combined status: the worse of the level and drift
    /// classifications.
    pub status: Status,
    /// Status from the absolute-level thresholds alone.
    pub level_status: Status,
    /// Enrolled baseline value, when the board holds one.
    pub baseline: Option<f64>,
    /// `|value − baseline|`, when a baseline exists.
    pub drift: Option<f64>,
    /// Status from the drift thresholds, when both a baseline and
    /// drift thresholds exist.
    pub drift_status: Option<Status>,
}

/// Specs + baseline + per-gauge status memory: feed it samples, get
/// classified readings and a [`HealthReport`] per cycle.
#[derive(Debug, Clone)]
pub struct HealthBoard {
    specs: Vec<GaugeSpec>,
    baseline: Option<Baseline>,
    last: BTreeMap<&'static str, Status>,
    cycle: Vec<GaugeReading>,
}

impl HealthBoard {
    /// Creates a board watching `specs`.
    ///
    /// # Panics
    ///
    /// Panics if two specs share a name.
    pub fn new(specs: Vec<GaugeSpec>) -> Self {
        let mut seen = std::collections::HashSet::new();
        for s in &specs {
            assert!(seen.insert(s.name), "duplicate gauge spec {:?}", s.name);
        }
        Self {
            specs,
            baseline: None,
            last: BTreeMap::new(),
            cycle: Vec::new(),
        }
    }

    /// The specs the board watches.
    pub fn specs(&self) -> &[GaugeSpec] {
        &self.specs
    }

    /// Installs the enrolled baseline drift is measured against.
    pub fn set_baseline(&mut self, baseline: Baseline) {
        self.baseline = Some(baseline);
    }

    /// The installed baseline, if any.
    pub fn baseline(&self) -> Option<&Baseline> {
        self.baseline.as_ref()
    }

    /// Records one sample of gauge `name` and returns its combined
    /// status. The reading joins the current cycle (see
    /// [`report`](Self::report)); observing the same gauge again in
    /// one cycle replaces its reading (the alarm memory still advances
    /// through the intermediate value).
    ///
    /// # Panics
    ///
    /// Panics when `name` names no spec — gauges are a closed
    /// catalogue, and a typo should fail loudly in tests, not export a
    /// silently unclassified series.
    pub fn observe(&mut self, name: &'static str, value: f64) -> Status {
        let spec = self
            .specs
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("no gauge spec named {name:?}"))
            .clone();
        let previous = self.last.get(name).copied().unwrap_or_default();
        let level_status = spec.level.classify(spec.direction, value, previous);
        let baseline = self.baseline.as_ref().and_then(|b| b.get(name));
        let drift = baseline.map(|b| (value - b).abs());
        let drift_status = match (&spec.drift, drift) {
            (Some(t), Some(d)) => Some(t.classify(Direction::HighIsBad, d, previous)),
            _ => None,
        };
        let status = level_status.max(drift_status.unwrap_or(Status::Ok));
        self.last.insert(spec.name, status);
        let reading = GaugeReading {
            name: spec.name,
            help: spec.help,
            value,
            status,
            level_status,
            baseline,
            drift,
            drift_status,
        };
        match self.cycle.iter_mut().find(|r| r.name == name) {
            Some(slot) => *slot = reading,
            None => self.cycle.push(reading),
        }
        status
    }

    /// Bundles the current cycle's readings into a report and starts a
    /// new cycle (alarm memory carries over — that is the hysteresis).
    pub fn report(&mut self) -> HealthReport {
        let gauges = std::mem::take(&mut self.cycle);
        let overall = gauges.iter().map(|g| g.status).max().unwrap_or(Status::Ok);
        HealthReport {
            version: HEALTH_REPORT_VERSION,
            overall,
            gauges,
        }
    }

    /// A baseline snapshot of the current cycle's values, for
    /// enrolling: persist it and feed it back via
    /// [`set_baseline`](Self::set_baseline) on later runs.
    pub fn enroll_baseline(&self) -> Baseline {
        Baseline {
            values: self
                .cycle
                .iter()
                .map(|r| (r.name.to_string(), r.value))
                .collect(),
        }
    }
}

/// Sanitizes a metric name for the Prometheus exposition format:
/// `[a-zA-Z0-9_:]` pass through, everything else becomes `_`.
pub fn prometheus_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.starts_with(|c: char| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// A versioned, classified set of gauge readings.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// Schema version ([`HEALTH_REPORT_VERSION`]).
    pub version: u32,
    /// Worst status across the gauges (`ok` when there are none).
    pub overall: Status,
    /// The readings, in observation order.
    pub gauges: Vec<GaugeReading>,
}

impl HealthReport {
    /// Serializes the report as a versioned JSON document.
    pub fn to_json(&self) -> String {
        let gauges = self
            .gauges
            .iter()
            .map(|g| {
                let mut members = vec![
                    ("name", Value::from(g.name)),
                    ("value", Value::from(g.value)),
                    ("status", Value::from(g.status.as_str())),
                    ("level_status", Value::from(g.level_status.as_str())),
                ];
                if let Some(b) = g.baseline {
                    members.push(("baseline", Value::from(b)));
                }
                if let Some(d) = g.drift {
                    members.push(("drift", Value::from(d)));
                }
                if let Some(s) = g.drift_status {
                    members.push(("drift_status", Value::from(s.as_str())));
                }
                Value::object(members)
            })
            .collect();
        Value::object([
            ("version", Value::from(self.version)),
            ("overall", Value::from(self.overall.as_str())),
            ("gauges", Value::Array(gauges)),
        ])
        .to_document()
    }

    /// Renders the gauges in the Prometheus text exposition format.
    ///
    /// Every gauge becomes two series under `prefix` (conventionally
    /// `ropuf_`): the raw value, and a `<prefix>health_status` series
    /// labelled by gauge carrying the numeric severity (0/1/2). The
    /// overall status is exported as `<prefix>health_overall`. Drift
    /// magnitudes, when known, export as `<prefix><gauge>_drift`.
    pub fn render_prometheus(&self, prefix: &str) -> String {
        let mut out = String::new();
        for g in &self.gauges {
            let name = format!("{prefix}{}", prometheus_name(g.name));
            out.push_str(&format!("# HELP {name} {}\n", g.help));
            out.push_str(&format!("# TYPE {name} gauge\n"));
            out.push_str(&format!("{name} {}\n", prom_f64(g.value)));
            if let Some(d) = g.drift {
                out.push_str(&format!("# TYPE {name}_drift gauge\n"));
                out.push_str(&format!("{name}_drift {}\n", prom_f64(d)));
            }
        }
        let status = format!("{prefix}health_status");
        out.push_str(&format!(
            "# HELP {status} per-gauge health classification (0=ok, 1=warn, 2=critical)\n"
        ));
        out.push_str(&format!("# TYPE {status} gauge\n"));
        for g in &self.gauges {
            out.push_str(&format!(
                "{status}{{gauge=\"{}\"}} {}\n",
                prometheus_name(g.name),
                g.status.severity()
            ));
        }
        let overall = format!("{prefix}health_overall");
        out.push_str(&format!(
            "# HELP {overall} worst gauge status (0=ok, 1=warn, 2=critical)\n"
        ));
        out.push_str(&format!("# TYPE {overall} gauge\n"));
        out.push_str(&format!("{overall} {}\n", self.overall.severity()));
        out
    }

    /// Renders a compact human-readable table.
    pub fn render(&self) -> String {
        let mut out = format!("fleet health: {}\n", self.overall);
        for g in &self.gauges {
            out.push_str(&format!(
                "  [{:^8}] {:<28} {:>12.6}",
                g.status, g.name, g.value
            ));
            if let (Some(b), Some(d)) = (g.baseline, g.drift) {
                out.push_str(&format!("  (baseline {b:.6}, drift {d:.6}"));
                if let Some(s) = g.drift_status {
                    out.push_str(&format!(", {s}"));
                }
                out.push(')');
            }
            out.push('\n');
        }
        out
    }
}

/// Enrolled gauge values a later run's drift is measured against.
///
/// Persists as a small versioned JSON document
/// (`{"version": 1, "gauges": {"name": value, ...}}`) so baselines can
/// be committed next to bench baselines and diffed in review. A
/// non-finite value is written as `null` and reads back as NaN.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Baseline {
    /// `(gauge name, enrolled value)`, in enrollment order.
    pub values: Vec<(String, f64)>,
}

impl Baseline {
    /// The enrolled value of gauge `name`, if present.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Serializes the baseline as versioned JSON.
    pub fn to_json(&self) -> String {
        let gauges = self
            .values
            .iter()
            .map(|(name, value)| (name.clone(), Value::from(*value)));
        Value::object([
            ("version", Value::from(HEALTH_REPORT_VERSION)),
            ("gauges", Value::object(gauges)),
        ])
        .to_document()
    }

    /// Parses the JSON produced by [`to_json`](Self::to_json): an
    /// object holding exactly a `"version"` and a `"gauges"` object
    /// whose members are numbers or `null` (read as NaN).
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem: text that is not
    /// JSON (truncated, trailing content, `NaN`, a repeated gauge …),
    /// a missing or unsupported version, a missing `gauges` object, an
    /// unknown member, or a gauge that is not a number.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = json::parse(text).map_err(|e| format!("baseline is not valid JSON: {e}"))?;
        let Value::Object(members) = &doc else {
            return Err("baseline is not a JSON object".to_string());
        };
        if let Some((name, _)) = members
            .iter()
            .find(|(name, _)| name != "version" && name != "gauges")
        {
            return Err(format!("baseline has an unknown member {name:?}"));
        }
        match doc.get("version") {
            None => return Err("baseline is missing its \"version\"".to_string()),
            Some(v) if v.as_u64() == Some(u64::from(HEALTH_REPORT_VERSION)) => {}
            Some(v) => {
                return Err(format!(
                    "unsupported baseline version {} (expected {HEALTH_REPORT_VERSION})",
                    v.to_line()
                ))
            }
        }
        let Some(Value::Object(gauges)) = doc.get("gauges") else {
            return Err("baseline is missing a \"gauges\" object".to_string());
        };
        let values = gauges
            .iter()
            .map(|(name, value)| match value {
                Value::Null => Ok((name.to_string(), f64::NAN)),
                _ => value
                    .as_f64()
                    .map(|v| (name.to_string(), v))
                    .ok_or_else(|| {
                        format!("gauge {name:?} has non-numeric value {}", value.to_line())
                    }),
            })
            .collect::<Result<_, _>>()?;
        Ok(Self { values })
    }
}

/// Formats a value for Prometheus exposition (`NaN`/`+Inf`/`-Inf` are
/// legal there, unlike JSON).
fn prom_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(drift: Option<Thresholds>) -> GaugeSpec {
        GaugeSpec {
            name: "flip_rate",
            help: "worst corner flip fraction",
            direction: Direction::HighIsBad,
            level: Thresholds {
                warn: 0.02,
                critical: 0.05,
                hysteresis: 0.005,
            },
            drift,
        }
    }

    #[test]
    fn classification_is_inclusive_on_the_unhealthy_side() {
        let s = spec(None);
        let c = |v| s.level.classify(s.direction, v, Status::Ok);
        assert_eq!(c(0.0), Status::Ok);
        assert_eq!(c(0.0199), Status::Ok);
        assert_eq!(c(0.02), Status::Warn);
        assert_eq!(c(0.049), Status::Warn);
        assert_eq!(c(0.05), Status::Critical);
        assert_eq!(c(9.0), Status::Critical);
    }

    #[test]
    fn low_is_bad_flips_the_comparison() {
        let t = Thresholds {
            warn: 0.45,
            critical: 0.40,
            hysteresis: 0.01,
        };
        let c = |v, prev| t.classify(Direction::LowIsBad, v, prev);
        assert_eq!(c(0.50, Status::Ok), Status::Ok);
        assert_eq!(c(0.45, Status::Ok), Status::Warn);
        assert_eq!(c(0.40, Status::Ok), Status::Critical);
        // Recovery needs to clear warn + hysteresis.
        assert_eq!(c(0.455, Status::Warn), Status::Warn);
        assert_eq!(c(0.461, Status::Warn), Status::Ok);
    }

    #[test]
    fn hysteresis_latches_until_the_band_clears() {
        let s = spec(None);
        let c = |v, prev| s.level.classify(s.direction, v, prev);
        // Enter warn, dip just below the limit: still warn.
        assert_eq!(c(0.02, Status::Ok), Status::Warn);
        assert_eq!(c(0.0199, Status::Warn), Status::Warn);
        assert_eq!(c(0.016, Status::Warn), Status::Warn);
        // Clear the band: back to ok.
        assert_eq!(c(0.0149, Status::Warn), Status::Ok);
        // Same at the critical edge: demotes only to warn first.
        assert_eq!(c(0.046, Status::Critical), Status::Critical);
        assert_eq!(c(0.0449, Status::Critical), Status::Warn);
    }

    #[test]
    fn zero_hysteresis_does_not_latch() {
        let t = Thresholds {
            warn: 1.0,
            critical: 2.0,
            hysteresis: 0.0,
        };
        assert_eq!(
            t.classify(Direction::HighIsBad, 0.999, Status::Critical),
            Status::Ok
        );
    }

    #[test]
    fn drift_against_baseline_alarms_even_when_level_is_ok() {
        let mut board = HealthBoard::new(vec![spec(Some(Thresholds {
            warn: 0.005,
            critical: 0.01,
            hysteresis: 0.0,
        }))]);
        board.set_baseline(Baseline {
            values: vec![("flip_rate".into(), 0.001)],
        });
        // Absolute level fine (0.008 < warn 0.02), drift 0.007 >= 0.005.
        assert_eq!(board.observe("flip_rate", 0.008), Status::Warn);
        let report = board.report();
        assert_eq!(report.gauges[0].level_status, Status::Ok);
        assert_eq!(report.gauges[0].drift_status, Some(Status::Warn));
        assert_eq!(report.gauges[0].baseline, Some(0.001));
        assert!((report.gauges[0].drift.unwrap() - 0.007).abs() < 1e-12);
        assert_eq!(report.overall, Status::Warn);
    }

    #[test]
    fn report_cycles_and_overall_is_worst() {
        let mut board = HealthBoard::new(vec![
            spec(None),
            GaugeSpec {
                name: "uniqueness_bias",
                help: "|uniqueness - 0.5|",
                direction: Direction::HighIsBad,
                level: Thresholds {
                    warn: 0.05,
                    critical: 0.1,
                    hysteresis: 0.0,
                },
                drift: None,
            },
        ]);
        board.observe("flip_rate", 0.001);
        board.observe("uniqueness_bias", 0.2);
        let report = board.report();
        assert_eq!(report.overall, Status::Critical);
        assert_eq!(report.gauges.len(), 2);
        // New cycle starts empty; an empty report is ok overall.
        assert_eq!(board.report().overall, Status::Ok);
    }

    #[test]
    fn observing_twice_in_a_cycle_replaces_the_reading() {
        let mut board = HealthBoard::new(vec![spec(None)]);
        board.observe("flip_rate", 0.9);
        // Dips just under the critical limit: the band latches it.
        board.observe("flip_rate", 0.048);
        let report = board.report();
        assert_eq!(report.gauges.len(), 1);
        assert_eq!(report.gauges[0].value, 0.048);
        assert_eq!(report.gauges[0].status, Status::Critical);
    }

    #[test]
    #[should_panic(expected = "no gauge spec")]
    fn unknown_gauge_panics() {
        HealthBoard::new(vec![spec(None)]).observe("tyop", 1.0);
    }

    #[test]
    #[should_panic(expected = "duplicate gauge spec")]
    fn duplicate_specs_panic() {
        HealthBoard::new(vec![spec(None), spec(None)]);
    }

    #[test]
    fn json_report_is_versioned_and_complete() {
        let mut board = HealthBoard::new(vec![spec(Some(Thresholds {
            warn: 0.5,
            critical: 0.9,
            hysteresis: 0.0,
        }))]);
        board.set_baseline(Baseline {
            values: vec![("flip_rate".into(), 0.01)],
        });
        board.observe("flip_rate", 0.03);
        let doc = json::parse(&board.report().to_json()).expect("the report is JSON");
        assert_eq!(
            doc.get("version").and_then(Value::as_u64),
            Some(u64::from(HEALTH_REPORT_VERSION))
        );
        assert_eq!(doc.get("overall").and_then(Value::as_str), Some("warn"));
        let gauge = &doc.get("gauges").and_then(Value::as_array).expect("gauges")[0];
        assert_eq!(gauge.get("name").and_then(Value::as_str), Some("flip_rate"));
        assert_eq!(gauge.get("value").and_then(Value::as_f64), Some(0.03));
        assert_eq!(gauge.get("status").and_then(Value::as_str), Some("warn"));
        assert_eq!(gauge.get("baseline").and_then(Value::as_f64), Some(0.01));
        assert_eq!(
            gauge.get("drift_status").and_then(Value::as_str),
            Some("ok")
        );
    }

    #[test]
    fn prometheus_exposition_has_help_type_and_values() {
        let mut board = HealthBoard::new(vec![spec(None)]);
        board.set_baseline(Baseline {
            values: vec![("flip_rate".into(), 0.0)],
        });
        board.observe("flip_rate", 0.03);
        let text = board.report().render_prometheus("ropuf_");
        assert!(text.contains("# HELP ropuf_flip_rate worst corner flip fraction\n"));
        assert!(text.contains("# TYPE ropuf_flip_rate gauge\n"));
        assert!(text.contains("ropuf_flip_rate 0.03\n"));
        assert!(text.contains("ropuf_flip_rate_drift 0.03\n"));
        assert!(text.contains("ropuf_health_status{gauge=\"flip_rate\"} 1\n"));
        assert!(text.contains("ropuf_health_overall 1\n"));
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (series, value) = line.rsplit_once(' ').expect("two fields");
            assert!(value.parse::<f64>().is_ok(), "bad value in {line:?}");
            assert!(!series.is_empty());
        }
    }

    #[test]
    fn prometheus_names_are_sanitized() {
        assert_eq!(prometheus_name("fleet.enroll"), "fleet_enroll");
        assert_eq!(prometheus_name("9lives"), "_9lives");
        assert_eq!(prometheus_name("ok_name:sub"), "ok_name:sub");
    }

    #[test]
    fn baseline_round_trips_through_json() {
        let baseline = Baseline {
            values: vec![
                ("uniqueness".into(), 0.4969070961718023),
                ("flip_rate_worst".into(), 0.0),
            ],
        };
        let parsed = Baseline::parse(&baseline.to_json()).expect("parses");
        assert_eq!(parsed, baseline);
        // A non-finite gauge is written as null and reads back as NaN.
        let nan = Baseline {
            values: vec![("uniqueness".into(), f64::NAN)],
        };
        let parsed = Baseline::parse(&nan.to_json()).expect("parses");
        assert!(parsed.get("uniqueness").expect("present").is_nan());
    }

    #[test]
    fn baseline_parse_rejects_bad_documents() {
        let fails = |text: &str, why: &str| {
            let err = Baseline::parse(text).expect_err(text);
            assert!(err.contains(why), "{text}: {err}");
        };
        fails("{}", "missing its \"version\"");
        fails(
            "{\"version\": 99, \"gauges\": {}}",
            "unsupported baseline version 99",
        );
        fails(
            "{\"version\": 1.5, \"gauges\": {}}",
            "unsupported baseline version 1.5",
        );
        fails("{\"version\": 1}", "missing a \"gauges\" object");
        fails(
            "{\"version\": 1, \"gauges\": []}",
            "missing a \"gauges\" object",
        );
        fails(
            "{\"version\": 1, \"gauges\": {\"a\": \"x\"}}",
            "non-numeric value \"x\"",
        );
        fails("[1]", "not a JSON object");
        fails(
            "{\"version\": 1, \"gauges\": {}, \"extra\": 0}",
            "unknown member \"extra\"",
        );
        // What the old comma-split loader accepted.
        fails(
            "{\"version\": 1, \"gauges\": {\"a\": 0.5",
            "unexpected end of input",
        );
        fails(
            "{\"version\": 1, \"gauges\": {\"a\": NaN}}",
            "unexpected character 'N'",
        );
        fails(
            "{\"version\": 1, \"gauges\": {\"a\": 1}} }",
            "trailing content",
        );
        fails(
            "{\"version\": 1, \"gauges\": {\"a\": 1, \"a\": 2}}",
            "duplicate key \"a\"",
        );
        fails(
            "{\"gauges\": {\"version\": 1, \"a\": 1}}",
            "missing its \"version\"",
        );
        // Empty gauge set is fine.
        let empty = Baseline::parse("{\"version\": 1, \"gauges\": {}}").expect("ok");
        assert!(empty.values.is_empty());
    }
}
