//! The serve-path operations plane: rolling-window request accounting
//! and the two service-level objectives evaluated over it, always on
//! (unlike the opt-in `ROPUF_TRACE` telemetry sinks) because an
//! operator needs `/metrics` to answer even when no trace target was
//! configured at launch.
//!
//! The plane is strictly an *observer*: it reads the injected clock and
//! the reply the gate already produced, and never feeds anything back
//! into request handling — replies stay a pure function of the request
//! stream whether the plane's clock is wall time or a frozen
//! [`ManualClock`](ropuf_telemetry::ManualClock) (which the drill uses,
//! so drill transcripts stay a pure function of the seed).
//!
//! # Objectives
//!
//! Availability: 99% of auth-path requests succeed over the window.
//! That grants an *error budget* of 1%, and the gauge is the **burn
//! rate** `bad_fraction / (1 − target)`: `1.0` fails at exactly the
//! budgeted rate, `10.0` spends the window's budget in a tenth of it
//! (Google SRE workbook, ch. 5). Latency: the gauge is the windowed
//! auth-path `p99 / 1 ms`; above `1.0` the tail is slower than
//! promised. Both gauges join the service's own on one latching
//! [`HealthBoard`], so a service hovering at an alarm edge latches
//! instead of flapping.
//!
//! # What counts as "bad" for the availability SLO
//!
//! Not every reject is a failure. Replay rejections, unknown devices,
//! malformed requests, and double-enrolls are the service *working* —
//! denying what must be denied. The error budget burns on **quality
//! failures**: erasure-driven rejects (`LowCoverage`, `TooManyFlips`),
//! devices the degradation model parked (`Quarantined`, `LockedOut`),
//! and server-side errors on the auth path. That split keeps a clean drill (which
//! scripts replays on purpose) at burn rate zero while an
//! injected-fault drill lights the SLO up.

use std::sync::Arc;

use ropuf_telemetry::health::{
    Direction, GaugeSpec, HealthBoard, HealthReport, Thresholds, HEALTH_REPORT_VERSION,
};
use ropuf_telemetry::json::Value;
use ropuf_telemetry::metrics::Snapshot;
use ropuf_telemetry::window::{Clock, WindowSpec, WindowedCounter, WindowedHistogram};

use crate::proto::{RejectReason, Reply};

/// The rolling window every family and both objectives cover: 60
/// buckets of 5 s, five minutes.
const WINDOW: WindowSpec = WindowSpec {
    buckets: 60,
    bucket_width_us: 5_000_000,
};

/// Fraction of auth-path requests that must succeed. Generous for a
/// loopback bench, tight enough to catch a serve path drowning in
/// erasure-driven rejects.
const AVAILABILITY_TARGET: f64 = 0.99;

/// The auth-path p99 latency objective, microseconds.
const P99_OBJECTIVE_US: f64 = 1_000.0;

const AVAILABILITY_BURN_GAUGE: &str = "slo_availability_burn_rate";
const P99_RATIO_GAUGE: &str = "slo_p99_latency_ratio";

/// The two objectives' gauges, for the service's health board.
///
/// The burn rate warns when the budget is spent at its sustainable rate
/// (`1.0`) and goes critical at `10×` (the budget would be gone in a
/// tenth of the window). The latency ratio warns at the objective and
/// goes critical at twice it.
pub(crate) fn slo_gauges() -> [GaugeSpec; 2] {
    [
        GaugeSpec {
            name: AVAILABILITY_BURN_GAUGE,
            help: "error-budget burn rate of the availability objective (1 = at budget)",
            direction: Direction::HighIsBad,
            level: Thresholds {
                warn: 1.0,
                critical: 10.0,
                hysteresis: 0.1,
            },
            drift: None,
        },
        GaugeSpec {
            name: P99_RATIO_GAUGE,
            help: "windowed p99 latency as a fraction of its objective (1 = at objective)",
            direction: Direction::HighIsBad,
            level: Thresholds {
                warn: 1.0,
                critical: 2.0,
                hysteresis: 0.05,
            },
            drift: None,
        },
    ]
}

/// Rolling-window request accounting; the objectives read the same
/// windows.
pub struct OpsPlane {
    requests: WindowedCounter,
    /// Accepted auths. Only auth-path ops produce `AuthOk`/`Key`, so
    /// this is also the availability objective's good count.
    accepts: WindowedCounter,
    quality_rejects: WindowedCounter,
    /// Auth-path replay rejects.
    replays: WindowedCounter,
    errors: WindowedCounter,
    /// Auth-path errors: with the quality rejects, the requests that
    /// burn the availability budget.
    auth_errors: WindowedCounter,
    request_micros: WindowedHistogram,
    auth_micros: WindowedHistogram,
}

/// Whether a rejection burns the availability error budget (quality
/// failure) or is the service correctly denying a request.
pub fn is_quality_reject(reason: RejectReason) -> bool {
    matches!(
        reason,
        RejectReason::TooManyFlips
            | RejectReason::LowCoverage
            | RejectReason::Quarantined
            | RejectReason::LockedOut
    )
}

impl OpsPlane {
    /// A plane windowing over time from `clock`.
    pub fn new(clock: Arc<dyn Clock>) -> Self {
        let counter = || WindowedCounter::new(Arc::clone(&clock), WINDOW);
        let histogram = || WindowedHistogram::new(Arc::clone(&clock), WINDOW);
        Self {
            requests: counter(),
            accepts: counter(),
            quality_rejects: counter(),
            replays: counter(),
            errors: counter(),
            auth_errors: counter(),
            request_micros: histogram(),
            auth_micros: histogram(),
        }
    }

    /// Folds one handled request into the windows. `auth_path` marks
    /// the ops with an authentication verdict (auth/derive_key) —
    /// only those count toward the availability and latency SLOs.
    pub(crate) fn observe(&self, auth_path: bool, reply: &Reply, micros: u64) {
        self.requests.add(1);
        self.request_micros.record(micros);
        match reply {
            Reply::Error { .. } => {
                self.errors.add(1);
                if auth_path {
                    self.auth_errors.add(1);
                }
            }
            Reply::Reject { reason } if auth_path && is_quality_reject(*reason) => {
                self.quality_rejects.add(1);
            }
            Reply::Reject {
                reason: RejectReason::Replay,
            } if auth_path => self.replays.add(1),
            Reply::AuthOk { .. } | Reply::Key { .. } => self.accepts.add(1),
            _ => {}
        }
        if auth_path {
            self.auth_micros.record(micros);
        }
    }

    /// The service's two auth-rate gauges over the window now: the
    /// fraction of auth attempts accepted (`1` with no attempts, since
    /// none was refused) and the fraction rejected as replays. An
    /// auth-path error is an accepted auth whose key reconstruction
    /// failed, so it counts as accepted. Every auth attempt records one
    /// latency sample, so the latency window's count is the attempts.
    pub(crate) fn auth_rates(&self) -> (f64, f64) {
        let attempts = self.auth_micros.snapshot("serve.auth_rates").count;
        if attempts == 0 {
            return (1.0, 0.0);
        }
        let accepted = self.accepts.sum() + self.auth_errors.sum();
        let attempts = attempts as f64;
        (
            accepted as f64 / attempts,
            self.replays.sum() as f64 / attempts,
        )
    }

    /// Both objectives' figures over the window now.
    pub(crate) fn slo(&self) -> Slo {
        Slo {
            good: self.accepts.sum(),
            bad: self.quality_rejects.sum() + self.auth_errors.sum(),
            p99_us: self.auth_micros.snapshot("slo.latency").quantile(0.99),
        }
    }

    /// Renders the windowed families in the Prometheus text exposition
    /// format under `prefix`. Window sums export as gauges (they go
    /// down as buckets expire — they are not counters), the latency
    /// distribution as a standard histogram triplet.
    pub fn render_window_metrics(&self, prefix: &str) -> String {
        let mut out = String::new();
        let gauge = |out: &mut String, name: &str, help: &str, value: u64| {
            let name = format!("{prefix}{name}");
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}\n"
            ));
        };
        gauge(
            &mut out,
            "serve_window_seconds",
            "span of the rolling window these families cover",
            WINDOW.window_us() / 1_000_000,
        );
        gauge(
            &mut out,
            "serve_window_requests",
            "requests handled inside the rolling window",
            self.requests.sum(),
        );
        gauge(
            &mut out,
            "serve_window_accepts",
            "accepted auths (incl. key derivations) inside the rolling window",
            self.accepts.sum(),
        );
        gauge(
            &mut out,
            "serve_window_quality_rejects",
            "budget-burning rejects (flips/coverage/quarantine/lockout) inside the rolling window",
            self.quality_rejects.sum(),
        );
        gauge(
            &mut out,
            "serve_window_errors",
            "server-side errors inside the rolling window",
            self.errors.sum(),
        );
        out.push_str(
            &Snapshot {
                counters: vec![],
                histograms: vec![
                    self.request_micros.snapshot("serve.window.request_micros"),
                    self.auth_micros.snapshot("serve.window.auth_micros"),
                ],
            }
            .render_prometheus(prefix),
        );
        out
    }
}

/// Both objectives' window figures at one instant.
pub(crate) struct Slo {
    /// Accepted auth-path requests in the window.
    good: u64,
    /// Budget-burning auth-path requests in the window.
    bad: u64,
    /// Windowed auth-path p99 latency, microseconds (`None` with no
    /// traffic).
    p99_us: Option<u64>,
}

impl Slo {
    /// Fraction of window requests that were bad (`0` with no traffic).
    fn bad_fraction(&self) -> f64 {
        match self.good + self.bad {
            0 => 0.0,
            total => self.bad as f64 / total as f64,
        }
    }

    fn burn_rate(&self) -> f64 {
        self.bad_fraction() / (1.0 - AVAILABILITY_TARGET)
    }

    /// `p99 / objective` (`0` with no traffic).
    fn p99_ratio(&self) -> f64 {
        self.p99_us.map_or(0.0, |p| p as f64 / P99_OBJECTIVE_US)
    }

    /// Feeds both gauges into `board`, advancing their alarm latches.
    pub(crate) fn observe(&self, board: &mut HealthBoard) {
        board.observe(AVAILABILITY_BURN_GAUGE, self.burn_rate());
        board.observe(P99_RATIO_GAUGE, self.p99_ratio());
    }

    /// The versioned `/slo` document: these figures with `report`, the
    /// board's classification of them.
    pub(crate) fn to_json(&self, report: &HealthReport) -> String {
        let status_of = |gauge: &str| {
            report
                .gauges
                .iter()
                .find(|g| g.name == gauge)
                .map_or("ok", |g| g.status.as_str())
        };
        Value::object([
            ("version", Value::from(HEALTH_REPORT_VERSION)),
            ("overall", Value::from(report.overall.as_str())),
            ("window_us", Value::from(WINDOW.window_us())),
            (
                "availability",
                Value::object([
                    ("target", Value::from(AVAILABILITY_TARGET)),
                    ("good", Value::from(self.good)),
                    ("bad", Value::from(self.bad)),
                    ("bad_fraction", Value::from(self.bad_fraction())),
                    ("burn_rate", Value::from(self.burn_rate())),
                    ("status", Value::from(status_of(AVAILABILITY_BURN_GAUGE))),
                ]),
            ),
            (
                "p99_latency",
                Value::object([
                    ("objective_us", Value::from(P99_OBJECTIVE_US)),
                    ("p99_us", Value::from(self.p99_us)),
                    ("ratio", Value::from(self.p99_ratio())),
                    ("status", Value::from(status_of(P99_RATIO_GAUGE))),
                ]),
            ),
        ])
        .to_document()
    }
}

#[cfg(test)]
mod tests {
    use ropuf_telemetry::health::Status;
    use ropuf_telemetry::json::{self, Value};
    use ropuf_telemetry::window::ManualClock;

    use super::*;
    use crate::service::{PufService, ServiceOptions};
    use crate::store::{FsyncPolicy, Store};
    use crate::testutil::temp_dir;

    fn accept() -> Reply {
        Reply::AuthOk {
            compared: 8,
            flips: 0,
        }
    }

    fn reject(reason: RejectReason) -> Reply {
        Reply::Reject { reason }
    }

    /// The plane with a board of its two gauges, as the service holds
    /// them.
    struct Bench {
        clock: Arc<ManualClock>,
        plane: OpsPlane,
        board: HealthBoard,
    }

    impl Bench {
        fn new() -> Self {
            let clock = Arc::new(ManualClock::at(0));
            Self {
                plane: OpsPlane::new(clock.clone()),
                clock,
                board: HealthBoard::new(slo_gauges().to_vec()),
            }
        }

        fn feed(&self, n: u32, reply: Reply, micros: u64) {
            for _ in 0..n {
                self.plane.observe(true, &reply, micros);
            }
        }

        fn evaluate(&mut self) -> (Slo, HealthReport) {
            let slo = self.plane.slo();
            slo.observe(&mut self.board);
            (slo, self.board.report())
        }
    }

    #[test]
    fn reject_taxonomy_splits_budget_burners_from_correct_denials() {
        for burner in [
            RejectReason::TooManyFlips,
            RejectReason::LowCoverage,
            RejectReason::Quarantined,
            RejectReason::LockedOut,
        ] {
            assert!(is_quality_reject(burner), "{burner:?}");
        }
        for denial in [
            RejectReason::Replay,
            RejectReason::UnknownDevice,
            RejectReason::BadRequest,
            RejectReason::AlreadyEnrolled,
            RejectReason::UnsupportedVersion,
        ] {
            assert!(!is_quality_reject(denial), "{denial:?}");
        }
    }

    #[test]
    fn observe_routes_outcomes_to_the_right_windows() {
        let p = OpsPlane::new(Arc::new(ManualClock::at(0)));
        let error = Reply::Error {
            message: "disk".into(),
        };
        p.observe(true, &accept(), 5);
        p.observe(true, &reject(RejectReason::Replay), 3);
        p.observe(true, &reject(RejectReason::LowCoverage), 4);
        p.observe(true, &error, 6);
        p.observe(false, &Reply::Enrolled { bits: 64 }, 100);
        p.observe(false, &error, 9);
        assert_eq!(p.requests.sum(), 6);
        assert_eq!(p.accepts.sum(), 1);
        assert_eq!(p.quality_rejects.sum(), 1, "replay is not a quality reject");
        assert_eq!(p.errors.sum(), 2);
        let slo = p.slo();
        assert_eq!(
            (slo.good, slo.bad),
            (1, 2),
            "replay, enroll and the enroll error excluded"
        );
        // Latency SLO only sees the four auth-path ops.
        assert_eq!(p.auth_micros.snapshot("t").count, 4);
    }

    #[test]
    fn window_families_render_and_expire() {
        let clock = Arc::new(ManualClock::at(0));
        let p = OpsPlane::new(clock.clone());
        p.observe(true, &accept(), 7);
        let text = p.render_window_metrics("ropuf_");
        assert!(text.contains("# TYPE ropuf_serve_window_requests gauge\n"));
        assert!(text.contains("ropuf_serve_window_requests 1\n"));
        assert!(text.contains("ropuf_serve_window_seconds 300\n"));
        assert!(text.contains("# TYPE ropuf_serve_window_auth_micros histogram\n"));
        assert!(text.contains("ropuf_serve_window_auth_micros_count 1\n"));
        // Every bucket ages out: the families report an empty window.
        clock.advance(WINDOW.window_us());
        let text = p.render_window_metrics("ropuf_");
        assert!(text.contains("ropuf_serve_window_requests 0\n"));
        assert!(text.contains("ropuf_serve_window_auth_micros_count 0\n"));
    }

    #[test]
    fn idle_plane_is_healthy() {
        let (s, report) = Bench::new().evaluate();
        assert_eq!((s.good, s.bad), (0, 0));
        assert_eq!(s.burn_rate(), 0.0);
        assert_eq!(s.p99_us, None);
        assert_eq!(s.p99_ratio(), 0.0);
        assert_eq!(report.overall, Status::Ok);
    }

    #[test]
    fn burn_rate_is_bad_fraction_over_budget() {
        let mut b = Bench::new();
        b.feed(98, accept(), 5);
        b.feed(2, reject(RejectReason::TooManyFlips), 5);
        let (s, report) = b.evaluate();
        // 2% bad against a 1% budget: burning at 2×.
        assert!((s.bad_fraction() - 0.02).abs() < 1e-12);
        assert!((s.burn_rate() - 2.0).abs() < 1e-9);
        assert_eq!(report.overall, Status::Warn);
    }

    #[test]
    fn heavy_failure_goes_critical_and_recovers_after_the_window() {
        let mut b = Bench::new();
        b.feed(80, accept(), 5);
        b.feed(20, reject(RejectReason::Quarantined), 5);
        let (s, report) = b.evaluate();
        assert!(
            (s.burn_rate() - 20.0).abs() < 1e-6,
            "burn {}",
            s.burn_rate()
        );
        assert_eq!(report.overall, Status::Critical);
        // The incident ages out of the window: clean slate, no latch
        // (a zero value clears every hysteresis band).
        b.clock.advance(WINDOW.window_us());
        let (s, report) = b.evaluate();
        assert_eq!((s.good, s.bad), (0, 0));
        assert_eq!(report.overall, Status::Ok);
    }

    #[test]
    fn p99_ratio_alarms_on_slow_tails() {
        // Replays are neither good nor bad: latency samples only.
        let mut b = Bench::new();
        b.feed(100, reject(RejectReason::Replay), 100);
        assert_eq!(b.evaluate().1.overall, Status::Ok);
        // Push the p99 past twice the objective. Quantiles report
        // bucket edges capped at the max, so use one huge outlier pool.
        b.feed(10, reject(RejectReason::Replay), 5_000);
        let (s, report) = b.evaluate();
        assert_eq!(s.p99_us, Some(5_000));
        assert!((s.p99_ratio() - 5.0).abs() < 1e-9);
        assert_eq!(report.overall, Status::Critical);
    }

    #[test]
    fn outcomes_and_latencies_expire_with_their_buckets() {
        let mut b = Bench::new();
        b.feed(1, reject(RejectReason::LowCoverage), 7);
        // The last bucket of the window, then one past it.
        b.clock.advance(WINDOW.window_us() - WINDOW.bucket_width_us);
        b.feed(1, reject(RejectReason::Replay), 9);
        let (s, _) = b.evaluate();
        assert_eq!(s.bad, 1, "outcome still in window");
        assert_eq!(s.p99_us, Some(9));
        b.clock.advance(WINDOW.bucket_width_us);
        let (s, _) = b.evaluate();
        assert_eq!(s.bad, 0, "outcome expired");
        assert_eq!(s.p99_us, Some(9), "the later bucket is still live");
    }

    #[test]
    fn json_document_is_versioned_and_numeric() {
        let mut b = Bench::new();
        b.feed(5, accept(), 250);
        b.feed(5, reject(RejectReason::LowCoverage), 250);
        let (s, report) = b.evaluate();
        let doc = json::parse(&s.to_json(&report)).expect("/slo is JSON");
        let number = |section: &str, key: &str| {
            doc.get(section)
                .and_then(|s| s.get(key))
                .and_then(Value::as_f64)
        };
        assert_eq!(doc.get("version").and_then(Value::as_u64), Some(1));
        assert_eq!(doc.get("overall").and_then(Value::as_str), Some("critical"));
        assert_eq!(number("availability", "good"), Some(5.0));
        assert_eq!(number("availability", "bad"), Some(5.0));
        let burn = number("availability", "burn_rate").expect("burn_rate present");
        assert!((burn - 50.0).abs() < 1e-6, "burn {burn}");
        assert_eq!(
            doc.get("availability")
                .and_then(|s| s.get("status"))
                .and_then(Value::as_str),
            Some("critical")
        );
        assert_eq!(number("p99_latency", "p99_us"), Some(250.0));
    }

    #[test]
    fn gauge_catalogue_matches_the_plane() {
        let names = slo_gauges().map(|g| g.name);
        assert_eq!(names, [AVAILABILITY_BURN_GAUGE, P99_RATIO_GAUGE]);
    }

    #[test]
    fn idle_json_reports_null_p99() {
        let (s, report) = Bench::new().evaluate();
        let doc = json::parse(&s.to_json(&report)).expect("/slo is JSON");
        assert_eq!(
            doc.get("p99_latency").and_then(|l| l.get("p99_us")),
            Some(&Value::Null)
        );
        assert_eq!(doc.get("overall").and_then(Value::as_str), Some("ok"));
    }

    /// Feeds `n` copies of one handled request into the service's
    /// plane, whose windows the SLO and auth-rate gauges read.
    fn feed(svc: &PufService, n: u32, auth_path: bool, reply: Reply, micros: u64) {
        for _ in 0..n {
            svc.ops().observe(auth_path, &reply, micros);
        }
    }

    /// Every document the admin plane builds from the ops plane, at
    /// checkpoints before, during and after window expiry, matches the
    /// crate's committed `tests/golden/ops_plane.txt` byte for byte (rewrite it
    /// with `ROPUF_BLESS=1` after a declared change). The script walks
    /// both SLO gauges and the accept-rate gauge into an alarm, holds
    /// them inside their hysteresis bands, and lets the window drain.
    #[test]
    fn ops_plane_documents_match_the_golden_file() {
        let clock = Arc::new(ManualClock::at(0));
        let dir = temp_dir("ops-golden");
        let svc = PufService::with_options(
            Store::open(&dir, 1, FsyncPolicy::Batched).unwrap(),
            ServiceOptions {
                clock: clock.clone(),
                ..ServiceOptions::default()
            },
        );
        let ok = Reply::AuthOk {
            compared: 64,
            flips: 1,
        };
        let key = Reply::Key {
            key: [true, false, true].into_iter().collect(),
        };
        let reject = |reason| Reply::Reject { reason };
        let error = || Reply::Error {
            message: "scripted".into(),
        };
        let mut out = String::new();
        // `board` false scrapes `/slo` alone, as an operator polling
        // only the SLO would: its evaluation still moves the latches
        // the next merged report starts from.
        let mut checkpoint = |label: &str, board: bool| {
            let t = clock.now_us();
            out.push_str(&format!("== {label} t={t}us: window metrics ==\n"));
            out.push_str(&svc.ops().render_window_metrics("ropuf_"));
            if board {
                let report = svc.operations_report();
                out.push_str(&format!("== {label} t={t}us: health prometheus ==\n"));
                out.push_str(&report.render_prometheus("ropuf_"));
                out.push_str(&format!("== {label} t={t}us: health json ==\n"));
                out.push_str(&report.to_json());
            }
            out.push_str(&format!("== {label} t={t}us: slo ==\n"));
            out.push_str(&svc.slo_json());
        };

        // Period 0: mostly accepts; one quality reject warns the burn.
        feed(&svc, 40, true, ok.clone(), 120);
        feed(&svc, 10, true, key, 300);
        feed(&svc, 5, true, reject(RejectReason::Replay), 40);
        feed(&svc, 1, true, reject(RejectReason::TooManyFlips), 150);
        feed(&svc, 1, false, Reply::Enrolled { bits: 64 }, 2_000);
        feed(&svc, 1, false, Reply::Revoked, 900);
        feed(&svc, 1, false, error(), 50);
        checkpoint("warm", true);

        // Period 20: a quality-reject storm and a slow, failing tail,
        // seen through `/slo` alone.
        clock.set(100_000_000);
        feed(&svc, 10, true, reject(RejectReason::LowCoverage), 80);
        feed(&svc, 5, true, reject(RejectReason::Quarantined), 80);
        feed(&svc, 5, true, reject(RejectReason::LockedOut), 80);
        feed(&svc, 2, true, error(), 2_500);
        feed(&svc, 10, true, ok.clone(), 980);
        feed(&svc, 1, false, reject(RejectReason::AlreadyEnrolled), 70);
        checkpoint("storm", false);

        // Period 60: period 0 has expired. Fresh accepts pull the burn
        // rate just under its critical limit, where the latch `/slo`
        // set holds it; the p99 ratio demotes to warn, and the accept
        // rate holds warn in its band.
        clock.set(302_000_000);
        feed(&svc, 189, true, ok.clone(), 100);
        feed(
            &svc,
            1,
            false,
            Reply::Reenrolled {
                bits: 64,
                generation: 1,
            },
            1_500,
        );
        checkpoint("partial expiry", true);

        // Period 80: the storm has expired; the burn and the accept
        // rate clear at once, a few slow accepts hold the p99 ratio
        // inside its warn band.
        clock.set(402_000_000);
        feed(&svc, 3, true, ok, 970);
        checkpoint("recovering", true);

        // Period 140: every bucket has aged out; every gauge reads ok.
        clock.set(700_000_000);
        checkpoint("drained", true);

        let path =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/ops_plane.txt");
        if std::env::var_os("ROPUF_BLESS").is_some_and(|v| v == "1") {
            std::fs::write(&path, &out).unwrap();
        }
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: {e} (bless with ROPUF_BLESS=1)", path.display()));
        std::fs::remove_dir_all(&dir).unwrap();
        if let Some((line, (got, want))) = out
            .lines()
            .zip(want.lines())
            .enumerate()
            .find(|(_, (g, w))| g != w)
        {
            panic!("line {}: got {got:?}, want {want:?}", line + 1);
        }
        assert_eq!(out.len(), want.len(), "same lines, different length");
    }
}
