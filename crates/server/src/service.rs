//! Request handling: the gate pipeline, rate limiting, quarantine, and
//! per-op telemetry.
//!
//! Every decision here is deterministic in the request stream — no
//! wall-clock reads, no randomness — so a drill that replays the same
//! requests produces byte-identical replies regardless of worker-thread
//! count (per-device ordering is serialized by the store's shard lock).
//!
//! Rate limiting is failure-driven rather than time-driven: a device
//! that fails [`ServiceConfig::lockout_threshold`] consecutive auths is
//! locked out until it is revoked and re-enrolled. Quarantine follows
//! the `robust`/`faults` degradation model: auths that *succeed* but
//! carry erasures bump a degraded streak, and a sustained streak parks
//! the device ([`RejectReason::Quarantined`]) before it starts failing
//! outright.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ropuf_core::fuzzy::FuzzyExtractor;
use ropuf_num::bits::BitVec;
use ropuf_telemetry as telemetry;
use ropuf_telemetry::health::{Direction, GaugeSpec, HealthBoard, Thresholds};
use ropuf_telemetry::window::{Clock, WallClock};
use ropuf_telemetry::HealthReport;

use crate::access::{render_record, AccessLog, RequestId, StageTimer};
use crate::ops::{slo_gauges, OpsPlane};
use crate::proto::{RejectReason, Reply, Request, WireBits};
use crate::store::{DeviceState, Store, StoreError};

/// Tunable gate limits. Every field is a pure function of the request
/// stream — nothing here consults the clock.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Reject auth when more than this fraction of the *compared*
    /// (valid) bits disagree with the enrolled expected bits.
    pub max_flip_fraction: f64,
    /// Reject auth when fewer than this fraction of positions are
    /// valid (non-erased) — too little signal to judge.
    pub min_coverage_fraction: f64,
    /// Consecutive failed auths before the device locks out.
    pub lockout_threshold: u32,
    /// Consecutive erasure-carrying *accepted* auths before quarantine.
    pub degraded_threshold: u32,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            max_flip_fraction: 0.25,
            min_coverage_fraction: 0.5,
            lockout_threshold: 5,
            degraded_threshold: 3,
        }
    }
}

/// Monotonic operation counters, safe to read from any thread.
#[derive(Debug, Default)]
pub struct ServiceStats {
    /// Total requests handled.
    pub requests: AtomicU64,
    /// Successful enrollments.
    pub enrolls: AtomicU64,
    /// Accepted auths (including the auth phase of `derive_key`).
    pub auth_accepted: AtomicU64,
    /// Rejected auths, all reasons.
    pub auth_rejected: AtomicU64,
    /// Keys reconstructed.
    pub keys_derived: AtomicU64,
    /// Devices revoked.
    pub revokes: AtomicU64,
    /// Committed re-enrollments (generation supersedes).
    pub reenrolls: AtomicU64,
    /// Devices pushed into quarantine.
    pub quarantines: AtomicU64,
    /// Devices pushed into lockout.
    pub lockouts: AtomicU64,
    /// Server-side errors returned.
    pub errors: AtomicU64,
}

impl ServiceStats {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// Construction-time wiring for a [`PufService`] beyond the gate
/// limits: the operations-plane clock and an optional access log.
/// [`PufService::new`] uses the defaults (wall clock, no log).
pub struct ServiceOptions {
    /// Gate limits.
    pub config: ServiceConfig,
    /// Time source for the operations plane's windows: wall time for a
    /// server, a [`ManualClock`](ropuf_telemetry::ManualClock) for a
    /// drill or a test.
    pub clock: Arc<dyn Clock>,
    /// Sampled JSONL access log, when requested.
    pub access_log: Option<AccessLog>,
}

impl Default for ServiceOptions {
    fn default() -> Self {
        Self {
            config: ServiceConfig::default(),
            clock: Arc::new(WallClock::default()),
            access_log: None,
        }
    }
}

/// The authentication service: gate pipeline over a [`Store`].
pub struct PufService {
    store: Store,
    config: ServiceConfig,
    stats: ServiceStats,
    /// One board for the four service gauges and the two SLO gauges.
    health: Mutex<HealthBoard>,
    ops: OpsPlane,
    access: Option<AccessLog>,
}

/// What the per-device gate decided (computed under the shard lock).
enum AuthDecision {
    Reject(RejectReason),
    /// Accepted: compared/flips for the reply, plus whether the key
    /// material needed for `derive_key` was requested and extracted.
    Accept {
        compared: u32,
        flips: u32,
        key: Option<Result<BitVec, String>>,
    },
}

impl PufService {
    /// Wraps a store with the gate pipeline (default ops plane: wall
    /// clock, no access log).
    pub fn new(store: Store, config: ServiceConfig) -> Self {
        Self::with_options(
            store,
            ServiceOptions {
                config,
                ..ServiceOptions::default()
            },
        )
    }

    /// Wraps a store with explicit operations-plane wiring (injected
    /// clock, optional access log).
    pub fn with_options(store: Store, options: ServiceOptions) -> Self {
        let mut gauges = Self::gauges();
        gauges.extend(slo_gauges());
        Self {
            store,
            config: options.config,
            stats: ServiceStats::default(),
            health: Mutex::new(HealthBoard::new(gauges)),
            ops: OpsPlane::new(options.clock),
            access: options.access_log,
        }
    }

    fn gauges() -> Vec<GaugeSpec> {
        let high = |warn, critical| Thresholds {
            warn,
            critical,
            hysteresis: 0.0,
        };
        vec![
            GaugeSpec {
                name: "serve_auth_accept_rate",
                help: "Fraction of auth attempts accepted",
                direction: Direction::LowIsBad,
                level: Thresholds {
                    warn: 0.90,
                    critical: 0.50,
                    hysteresis: 0.02,
                },
                drift: None,
            },
            GaugeSpec {
                name: "serve_replay_reject_rate",
                help: "Fraction of auth attempts rejected as replays",
                direction: Direction::HighIsBad,
                level: high(0.05, 0.20),
                drift: None,
            },
            GaugeSpec {
                name: "serve_quarantined_fraction",
                help: "Fraction of enrolled devices in quarantine",
                direction: Direction::HighIsBad,
                level: high(0.02, 0.10),
                drift: None,
            },
            GaugeSpec {
                name: "serve_lockout_fraction",
                help: "Fraction of enrolled devices locked out",
                direction: Direction::HighIsBad,
                level: high(0.02, 0.10),
                drift: None,
            },
        ]
    }

    /// The backing store.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// The live counters.
    pub fn stats(&self) -> &ServiceStats {
        &self.stats
    }

    /// The rolling-window operations plane.
    pub fn ops(&self) -> &OpsPlane {
        &self.ops
    }

    /// The access log, when one is installed (exposed so the serve
    /// loop can flush it before exit).
    pub fn access_log(&self) -> Option<&AccessLog> {
        self.access.as_ref()
    }

    /// The full operator view: the service gauges (auth rates over the
    /// ops plane's rolling window, quarantine and lockout fractions of
    /// the store now) and the windowed SLO gauges, classified on one
    /// board into one report
    /// (one `health_status` family in the Prometheus exposition, one
    /// versioned JSON document on `/healthz`).
    pub fn operations_report(&self) -> HealthReport {
        let slo = self.ops.slo();
        let mut board = self.health.lock().expect("health board poisoned");
        self.observe_service_gauges(&mut board);
        slo.observe(&mut board);
        board.report()
    }

    /// The service gauges alone, sampled from the rolling window and
    /// store occupancy and classified.
    pub fn health_report(&self) -> HealthReport {
        let mut board = self.health.lock().expect("health board poisoned");
        self.observe_service_gauges(&mut board);
        board.report()
    }

    /// The `/slo` document: both objectives over the window, classified
    /// on the same board (and latches) as [`operations_report`].
    ///
    /// [`operations_report`]: Self::operations_report
    pub fn slo_json(&self) -> String {
        let slo = self.ops.slo();
        let mut board = self.health.lock().expect("health board poisoned");
        slo.observe(&mut board);
        slo.to_json(&board.report())
    }

    fn observe_service_gauges(&self, board: &mut HealthBoard) {
        let (accept_rate, replay_rate) = self.ops.auth_rates();
        let enrolled = self.store.len() as f64;
        let ratio = |num: f64, den: f64| num / den.max(1.0);
        board.observe("serve_auth_accept_rate", accept_rate);
        board.observe("serve_replay_reject_rate", replay_rate);
        board.observe(
            "serve_quarantined_fraction",
            ratio(self.store.quarantined_count() as f64, enrolled),
        );
        board.observe(
            "serve_lockout_fraction",
            ratio(self.store.locked_count() as f64, enrolled),
        );
    }

    /// Handles one request that did not arrive over a tracked
    /// connection (tests, the in-process serve bench). Equivalent to
    /// [`handle_traced`](Self::handle_traced) with
    /// [`RequestId::UNTRACED`].
    pub fn handle(&self, request: &Request) -> Reply {
        self.handle_traced(request, RequestId::UNTRACED)
    }

    /// Handles one request. Never panics on untrusted input; never
    /// returns (or logs) raw delay data. `id` identifies the request
    /// in traces and the access log; it never influences the reply.
    pub fn handle_traced(&self, request: &Request, id: RequestId) -> Reply {
        ServiceStats::bump(&self.stats.requests);
        let op = request.op_name();
        let _span = match op {
            "enroll" => telemetry::span("serve.enroll"),
            "auth" => telemetry::span("serve.auth"),
            "derive_key" => telemetry::span("serve.derive_key"),
            "reenroll" => telemetry::span("serve.reenroll"),
            _ => telemetry::span("serve.revoke"),
        };
        // The sampling decision is made up front (deterministic in the
        // request order); stage timers only run for sampled requests.
        let sampled = self.access.as_ref().filter(|log| log.sample_next());
        let mut timer = sampled.map(|_| StageTimer::new());
        let started = Instant::now();
        let reply = match request {
            Request::Enroll {
                device_id,
                enrollment,
                key_code,
            } => self.enroll(*device_id, enrollment, key_code),
            Request::Auth {
                device_id,
                nonce,
                response,
            } => self.auth(*device_id, *nonce, response, false, timer.as_mut()),
            Request::DeriveKey {
                device_id,
                nonce,
                response,
            } => self.auth(*device_id, *nonce, response, true, timer.as_mut()),
            Request::Revoke { device_id } => self.revoke(*device_id),
            Request::Reenroll {
                device_id,
                enrollment,
                key_code,
            } => self.reenroll(*device_id, enrollment, key_code),
        };
        let micros = started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        match op {
            "enroll" => telemetry::record("serve.enroll.micros", micros),
            "auth" => telemetry::record("serve.auth.micros", micros),
            "derive_key" => telemetry::record("serve.derive_key.micros", micros),
            "reenroll" => telemetry::record("serve.reenroll.micros", micros),
            _ => telemetry::record("serve.revoke.micros", micros),
        }
        if matches!(reply, Reply::Error { .. }) {
            ServiceStats::bump(&self.stats.errors);
        }
        let auth_path = matches!(request, Request::Auth { .. } | Request::DeriveKey { .. });
        self.ops.observe(auth_path, &reply, micros);
        if let Some(log) = sampled {
            let stages = timer.as_ref().map(|t| t.stages()).unwrap_or(&[]);
            log.write_line(&render_record(
                id,
                op,
                request.device_id(),
                &reply,
                micros,
                stages,
            ));
        }
        reply
    }

    fn enroll(&self, device_id: u64, enrollment: &[u8], key_code: &[u8]) -> Reply {
        match self.store.enroll(device_id, enrollment, key_code) {
            Ok(bits) => {
                ServiceStats::bump(&self.stats.enrolls);
                telemetry::counter("serve.enrolls", 1);
                Reply::Enrolled { bits }
            }
            Err(StoreError::AlreadyEnrolled) => Reply::Reject {
                reason: RejectReason::AlreadyEnrolled,
            },
            Err(StoreError::BadPayload(_)) => Reply::Reject {
                reason: RejectReason::BadRequest,
            },
            Err(StoreError::PayloadVersion { .. }) => Reply::Reject {
                reason: RejectReason::UnsupportedVersion,
            },
            Err(e) => Reply::Error {
                message: e.to_string(),
            },
        }
    }

    /// Commits a re-enrollment: the acceptance decision (drift trigger,
    /// worst-corner margin improvement) already ran device-side in
    /// `ropuf_core::reenroll` — the server's job is the durable
    /// generation swap and the gate heal, both inside
    /// [`Store::supersede`] under the shard lock.
    fn reenroll(&self, device_id: u64, enrollment: &[u8], key_code: &[u8]) -> Reply {
        match self.store.supersede(device_id, enrollment, key_code) {
            Ok((bits, generation)) => {
                ServiceStats::bump(&self.stats.reenrolls);
                telemetry::counter("serve.reenrolls", 1);
                Reply::Reenrolled { bits, generation }
            }
            Err(StoreError::UnknownDevice) => Reply::Reject {
                reason: RejectReason::UnknownDevice,
            },
            Err(StoreError::BadPayload(_)) => Reply::Reject {
                reason: RejectReason::BadRequest,
            },
            Err(StoreError::PayloadVersion { .. }) => Reply::Reject {
                reason: RejectReason::UnsupportedVersion,
            },
            Err(e) => Reply::Error {
                message: e.to_string(),
            },
        }
    }

    fn revoke(&self, device_id: u64) -> Reply {
        match self.store.revoke(device_id) {
            Ok(true) => {
                ServiceStats::bump(&self.stats.revokes);
                telemetry::counter("serve.revokes", 1);
                Reply::Revoked
            }
            Ok(false) => Reply::Reject {
                reason: RejectReason::UnknownDevice,
            },
            Err(e) => Reply::Error {
                message: e.to_string(),
            },
        }
    }

    /// The shared auth gate; `derive` additionally reconstructs the
    /// key on acceptance. All bookkeeping happens under the shard
    /// lock, so per-device decisions are atomic. The optional `timer`
    /// (sampled requests only) records per-stage micros; it never
    /// influences the decision.
    fn auth(
        &self,
        device_id: u64,
        nonce: u64,
        response: &WireBits,
        derive: bool,
        timer: Option<&mut StageTimer>,
    ) -> Reply {
        let config = self.config;
        let (decision, newly_locked, newly_quarantined) =
            self.store.with_device(device_id, |state| {
                let Some(state) = state else {
                    return (
                        AuthDecision::Reject(RejectReason::UnknownDevice),
                        false,
                        false,
                    );
                };
                let was = (state.locked, state.quarantined);
                let decision = Self::gate(state, nonce, response, derive, &config, timer);
                (
                    decision,
                    state.locked && !was.0,
                    state.quarantined && !was.1,
                )
            });
        if newly_locked {
            ServiceStats::bump(&self.stats.lockouts);
            telemetry::counter("serve.lockouts", 1);
        }
        if newly_quarantined {
            ServiceStats::bump(&self.stats.quarantines);
            telemetry::counter("serve.quarantines", 1);
        }
        match decision {
            AuthDecision::Reject(reason) => {
                ServiceStats::bump(&self.stats.auth_rejected);
                telemetry::counter("serve.auth_rejects", 1);
                Reply::Reject { reason }
            }
            AuthDecision::Accept {
                compared,
                flips,
                key,
            } => {
                ServiceStats::bump(&self.stats.auth_accepted);
                telemetry::counter("serve.auth_accepts", 1);
                match key {
                    None => Reply::AuthOk { compared, flips },
                    Some(Ok(key)) => {
                        ServiceStats::bump(&self.stats.keys_derived);
                        telemetry::counter("serve.keys_derived", 1);
                        Reply::Key { key }
                    }
                    Some(Err(message)) => Reply::Error { message },
                }
            }
        }
    }

    fn gate(
        state: &mut DeviceState,
        nonce: u64,
        response: &WireBits,
        derive: bool,
        config: &ServiceConfig,
        mut timer: Option<&mut StageTimer>,
    ) -> AuthDecision {
        // Stage marks close the pipeline stage just decided; a reject
        // mid-pipeline leaves a shorter stage list whose last entry
        // names where the gate stopped.
        let mut mark = |name: &'static str| {
            if let Some(t) = timer.as_deref_mut() {
                t.mark(name);
            }
        };
        if state.quarantined {
            return AuthDecision::Reject(RejectReason::Quarantined);
        }
        if state.locked {
            return AuthDecision::Reject(RejectReason::LockedOut);
        }
        let replayed = state.nonce_seen(nonce);
        if !replayed {
            // Past the replay check the nonce is burned — a replayed
            // copy of this very request (accepted or not) is rejected.
            state.remember_nonce(nonce);
        }
        mark("nonce");
        if replayed {
            return AuthDecision::Reject(RejectReason::Replay);
        }
        let shape_ok = response.len() == state.expected.len();
        mark("shape");
        if !shape_ok {
            return AuthDecision::Reject(RejectReason::BadRequest);
        }
        let fail = |state: &mut DeviceState, reason| {
            state.consecutive_failures += 1;
            if state.consecutive_failures >= config.lockout_threshold {
                state.locked = true;
            }
            AuthDecision::Reject(reason)
        };
        let (mut compared, mut flips) = (0u32, 0u32);
        for (i, bit) in response.bits().iter().enumerate() {
            if let Some(b) = bit {
                compared += 1;
                if *b != state.expected.get(i).expect("length checked") {
                    flips += 1;
                }
            }
        }
        let coverage = f64::from(compared) / state.expected.len().max(1) as f64;
        mark("coverage");
        if coverage < config.min_coverage_fraction {
            return fail(state, RejectReason::LowCoverage);
        }
        let too_many_flips = f64::from(flips) > config.max_flip_fraction * f64::from(compared);
        mark("flips");
        if too_many_flips {
            return fail(state, RejectReason::TooManyFlips);
        }
        // Accepted. Clean reads heal both streaks; erasure-carrying
        // accepts count toward quarantine (degrading silicon answers
        // correctly right up until it doesn't).
        state.consecutive_failures = 0;
        if compared == response.len() as u32 {
            state.degraded_streak = 0;
        } else {
            state.degraded_streak += 1;
            if state.degraded_streak >= config.degraded_threshold {
                state.quarantined = true;
            }
        }
        let key = derive.then(|| {
            let filled: BitVec = response
                .bits()
                .iter()
                .enumerate()
                .map(|(i, b)| b.unwrap_or_else(|| state.expected.get(i).expect("in range")))
                .collect();
            let fx = FuzzyExtractor::new(state.key_code.repetition());
            fx.reproduce(&filled, state.key_code.helper())
                .map_err(|e| format!("key reconstruction: {e}"))
        });
        mark("verdict");
        AuthDecision::Accept {
            compared,
            flips,
            key,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::FsyncPolicy;
    use crate::testutil::{enrolled_fixture, temp_dir, Fixture};
    use ropuf_telemetry::health::Status;

    fn service(name: &str, fx: &Fixture) -> (PufService, std::path::PathBuf) {
        let dir = temp_dir(name);
        let store = Store::open(&dir, 2, FsyncPolicy::Batched).unwrap();
        let svc = PufService::new(store, ServiceConfig::default());
        let reply = svc.handle(&Request::Enroll {
            device_id: 1,
            enrollment: fx.enrollment_bytes.clone(),
            key_code: fx.key_code_bytes.clone(),
        });
        assert!(
            matches!(reply, Reply::Enrolled { bits } if bits > 0),
            "{reply:?}"
        );
        (svc, dir)
    }

    fn clean_response(fx: &Fixture) -> WireBits {
        WireBits::new(fx.expected.iter().map(Some).collect())
    }

    fn auth(svc: &PufService, nonce: u64, response: WireBits) -> Reply {
        svc.handle(&Request::Auth {
            device_id: 1,
            nonce,
            response,
        })
    }

    #[test]
    fn clean_response_authenticates_and_derives_the_key() {
        let fx = enrolled_fixture(21);
        let (svc, dir) = service("svc-clean", &fx);
        let n = fx.expected.len() as u32;
        assert_eq!(
            auth(&svc, 1, clean_response(&fx)),
            Reply::AuthOk {
                compared: n,
                flips: 0
            }
        );
        let reply = svc.handle(&Request::DeriveKey {
            device_id: 1,
            nonce: 2,
            response: clean_response(&fx),
        });
        match reply {
            Reply::Key { key } => assert_eq!(key.len(), fx.key_code.key_bits()),
            other => panic!("expected a key, got {other:?}"),
        }
        assert_eq!(svc.stats().auth_accepted.load(Ordering::Relaxed), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replayed_nonce_is_rejected_even_across_ops() {
        let fx = enrolled_fixture(22);
        let (svc, dir) = service("svc-replay", &fx);
        assert!(matches!(
            auth(&svc, 9, clean_response(&fx)),
            Reply::AuthOk { .. }
        ));
        assert_eq!(
            auth(&svc, 9, clean_response(&fx)),
            Reply::Reject {
                reason: RejectReason::Replay
            }
        );
        // derive_key shares the nonce window with auth.
        let reply = svc.handle(&Request::DeriveKey {
            device_id: 1,
            nonce: 9,
            response: clean_response(&fx),
        });
        assert_eq!(
            reply,
            Reply::Reject {
                reason: RejectReason::Replay
            }
        );
        let (accept_rate, replay_rate) = svc.ops().auth_rates();
        assert_eq!((accept_rate, replay_rate), (1.0 / 3.0, 2.0 / 3.0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flip_storm_locks_the_device_out() {
        let fx = enrolled_fixture(23);
        let (svc, dir) = service("svc-lockout", &fx);
        let inverted = WireBits::new(fx.expected.iter().map(|b| Some(!b)).collect());
        let threshold = ServiceConfig::default().lockout_threshold as u64;
        for k in 0..threshold {
            assert_eq!(
                auth(&svc, 100 + k, inverted.clone()),
                Reply::Reject {
                    reason: RejectReason::TooManyFlips
                }
            );
        }
        // Locked now — even a perfect response is refused.
        assert_eq!(
            auth(&svc, 999, clean_response(&fx)),
            Reply::Reject {
                reason: RejectReason::LockedOut
            }
        );
        assert_eq!(svc.store().locked_count(), 1);
        // Revoke + re-enroll clears the lockout.
        assert_eq!(
            svc.handle(&Request::Revoke { device_id: 1 }),
            Reply::Revoked
        );
        svc.handle(&Request::Enroll {
            device_id: 1,
            enrollment: fx.enrollment_bytes.clone(),
            key_code: fx.key_code_bytes.clone(),
        });
        assert!(matches!(
            auth(&svc, 1, clean_response(&fx)),
            Reply::AuthOk { .. }
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reenroll_supersedes_in_place_and_heals_the_lockout() {
        let fx = enrolled_fixture(23);
        let replacement = enrolled_fixture(28);
        let (svc, dir) = service("svc-reenroll", &fx);
        // Drive the device into lockout against generation 0.
        let inverted = WireBits::new(fx.expected.iter().map(|b| Some(!b)).collect());
        let threshold = ServiceConfig::default().lockout_threshold as u64;
        for k in 0..threshold {
            auth(&svc, 100 + k, inverted.clone());
        }
        assert_eq!(svc.store().locked_count(), 1);
        // The supersede commits without revoking first: the device is
        // enrolled throughout, and the gate heals.
        let reply = svc.handle(&Request::Reenroll {
            device_id: 1,
            enrollment: replacement.enrollment_bytes.clone(),
            key_code: replacement.key_code_bytes.clone(),
        });
        assert!(
            matches!(reply, Reply::Reenrolled { bits, generation: 1 } if bits > 0),
            "{reply:?}"
        );
        assert_eq!(svc.store().len(), 1, "no unenrolled window");
        assert_eq!(svc.store().locked_count(), 0, "re-enroll heals the lockout");
        // Generation 1's bits authenticate; a pre-supersede nonce is
        // still burned.
        assert!(matches!(
            svc.handle(&Request::Auth {
                device_id: 1,
                nonce: 500,
                response: clean_response(&replacement),
            }),
            Reply::AuthOk { flips: 0, .. }
        ));
        assert_eq!(
            svc.handle(&Request::Auth {
                device_id: 1,
                nonce: 100,
                response: clean_response(&replacement),
            }),
            Reply::Reject {
                reason: RejectReason::Replay
            },
            "nonce ring survives the supersede"
        );
        // Re-enrolling an unknown id is refused.
        assert_eq!(
            svc.handle(&Request::Reenroll {
                device_id: 404,
                enrollment: replacement.enrollment_bytes.clone(),
                key_code: replacement.key_code_bytes.clone(),
            }),
            Reply::Reject {
                reason: RejectReason::UnknownDevice
            }
        );
        assert_eq!(svc.stats().reenrolls.load(Ordering::Relaxed), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sustained_erasures_quarantine_the_device() {
        let fx = enrolled_fixture(24);
        let (svc, dir) = service("svc-quarantine", &fx);
        // Degraded but passing: erase one bit, the rest agree.
        let degraded = WireBits::new(
            fx.expected
                .iter()
                .enumerate()
                .map(|(i, b)| (i != 0).then_some(b))
                .collect(),
        );
        let threshold = ServiceConfig::default().degraded_threshold as u64;
        for k in 0..threshold {
            assert!(matches!(
                auth(&svc, 200 + k, degraded.clone()),
                Reply::AuthOk { .. }
            ));
        }
        assert_eq!(svc.store().quarantined_count(), 1);
        assert_eq!(
            auth(&svc, 300, clean_response(&fx)),
            Reply::Reject {
                reason: RejectReason::Quarantined
            }
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn clean_reads_heal_the_degraded_streak() {
        let fx = enrolled_fixture(25);
        let (svc, dir) = service("svc-heal", &fx);
        let degraded = WireBits::new(
            fx.expected
                .iter()
                .enumerate()
                .map(|(i, b)| (i != 0).then_some(b))
                .collect(),
        );
        let threshold = ServiceConfig::default().degraded_threshold as u64;
        for k in 0..threshold - 1 {
            assert!(matches!(
                auth(&svc, 400 + k, degraded.clone()),
                Reply::AuthOk { .. }
            ));
        }
        assert!(matches!(
            auth(&svc, 500, clean_response(&fx)),
            Reply::AuthOk { .. }
        ));
        assert!(matches!(auth(&svc, 501, degraded), Reply::AuthOk { .. }));
        assert_eq!(svc.store().quarantined_count(), 0, "streak was reset");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn coverage_and_shape_gates_fire() {
        let fx = enrolled_fixture(26);
        let (svc, dir) = service("svc-coverage", &fx);
        let sparse = WireBits::new(
            fx.expected
                .iter()
                .enumerate()
                .map(|(i, b)| (i == 0).then_some(b))
                .collect(),
        );
        assert_eq!(
            auth(&svc, 1, sparse),
            Reply::Reject {
                reason: RejectReason::LowCoverage
            }
        );
        let wrong_len = WireBits::new(vec![Some(true); fx.expected.len() + 1]);
        assert_eq!(
            auth(&svc, 2, wrong_len),
            Reply::Reject {
                reason: RejectReason::BadRequest
            }
        );
        let unknown = svc.handle(&Request::Auth {
            device_id: 77,
            nonce: 1,
            response: clean_response(&fx),
        });
        assert_eq!(
            unknown,
            Reply::Reject {
                reason: RejectReason::UnknownDevice
            }
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fresh_service_reports_every_gauge_ok() {
        let dir = temp_dir("svc-fresh");
        let store = Store::open(&dir, 2, FsyncPolicy::Batched).unwrap();
        let svc = PufService::new(store, ServiceConfig::default());
        let report = svc.operations_report();
        for gauge in &report.gauges {
            assert_eq!(gauge.status, Status::Ok, "{gauge:?}");
        }
        assert_eq!(report.gauges.len(), 6);
        assert_eq!(report.overall, Status::Ok);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn health_report_tracks_rates() {
        let fx = enrolled_fixture(27);
        let (svc, dir) = service("svc-health", &fx);
        assert!(matches!(
            auth(&svc, 1, clean_response(&fx)),
            Reply::AuthOk { .. }
        ));
        auth(&svc, 1, clean_response(&fx)); // replay
        let report = svc.health_report();
        let find = |name: &str| {
            report
                .gauges
                .iter()
                .find(|r| r.name == name)
                .unwrap_or_else(|| panic!("gauge {name} missing"))
                .value
        };
        assert!((find("serve_auth_accept_rate") - 0.5).abs() < 1e-9);
        assert!((find("serve_replay_reject_rate") - 0.5).abs() < 1e-9);
        assert_eq!(find("serve_quarantined_fraction"), 0.0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rate_gauges_return_to_ok_once_the_incident_leaves_the_window() {
        let fx = enrolled_fixture(27);
        let clock = Arc::new(ropuf_telemetry::ManualClock::at(0));
        let dir = temp_dir("svc-rate-window");
        let svc = PufService::with_options(
            Store::open(&dir, 2, FsyncPolicy::Batched).unwrap(),
            ServiceOptions {
                clock: clock.clone(),
                ..ServiceOptions::default()
            },
        );
        svc.handle(&Request::Enroll {
            device_id: 1,
            enrollment: fx.enrollment_bytes.clone(),
            key_code: fx.key_code_bytes.clone(),
        });
        // An incident: one accept, then a burst of replays of it.
        auth(&svc, 1, clean_response(&fx));
        for _ in 0..3 {
            auth(&svc, 1, clean_response(&fx));
        }
        let gauge = |report: &HealthReport, name: &str| {
            let g = report.gauges.iter().find(|g| g.name == name).unwrap();
            (g.value, g.status)
        };
        let report = svc.health_report();
        assert_eq!(
            gauge(&report, "serve_auth_accept_rate"),
            (0.25, Status::Critical)
        );
        assert_eq!(
            gauge(&report, "serve_replay_reject_rate"),
            (0.75, Status::Critical)
        );

        // An hour later the five-minute window holds no attempt: no auth
        // has been refused in it, and the board is healthy again.
        clock.advance(3_600_000_000);
        let report = svc.operations_report();
        assert_eq!(gauge(&report, "serve_auth_accept_rate"), (1.0, Status::Ok));
        assert_eq!(
            gauge(&report, "serve_replay_reject_rate"),
            (0.0, Status::Ok)
        );
        assert_eq!(report.overall, Status::Ok);

        // Fresh traffic is judged on its own: one clean accept.
        auth(&svc, 2, clean_response(&fx));
        let report = svc.health_report();
        assert_eq!(gauge(&report, "serve_auth_accept_rate"), (1.0, Status::Ok));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
