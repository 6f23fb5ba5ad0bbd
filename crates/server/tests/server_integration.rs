//! Integration tests driving a live server over TCP through the public
//! API only: the same-seed drill must be byte-identical across runs and
//! worker-thread counts, and the server's `auth` verdict must agree
//! bit-for-bit with an offline [`respond_robust_bound`] read-out under
//! injected faults.

use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use ropuf_core::fleet::split_seed;
use ropuf_core::lifecycle::Device;
use ropuf_core::persist::{enrollment_to_bytes, FORMAT_VERSION, MAGIC};
use ropuf_core::puf::{ConfigurableRoPuf, EnrollOptions};
use ropuf_core::robust::{respond_robust_bound, FaultPlan};
use ropuf_num::bits::BitVec;
use ropuf_server::proto::{read_frame, write_frame};
use ropuf_server::{
    run_drill, serve, serve_with_admin, AccessLog, Client, DrillSpec, FsyncPolicy, PufService,
    RejectReason, Reply, Request, ServerHandle, ServiceConfig, ServiceOptions, Store, WireBits,
};
use ropuf_silicon::board::BoardId;
use ropuf_silicon::{Environment, SiliconSim};
use ropuf_telemetry::ManualClock;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ropuf-server-it-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn spawn_server(tag: &str, workers: usize) -> (ServerHandle, PathBuf) {
    let dir = temp_dir(tag);
    let store = Store::open(&dir, 4, FsyncPolicy::Batched).expect("store opens");
    let service = Arc::new(PufService::new(store, ServiceConfig::default()));
    let handle =
        serve(service, "127.0.0.1:0".parse().expect("loopback"), workers).expect("server binds");
    (handle, dir)
}

#[test]
fn drill_transcript_is_byte_identical_across_runs_and_worker_counts() {
    let spec = DrillSpec {
        seed: 0xFEED,
        devices: 6,
        ops_per_device: 10,
        ..DrillSpec::default()
    };
    let mut transcripts: Vec<(usize, usize, String)> = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        for run in 0..2 {
            let (server, dir) = spawn_server(&format!("drill-w{workers}-r{run}"), workers);
            let report = run_drill(server.addr(), &spec).expect("drill completes");
            server.shutdown();
            std::fs::remove_dir_all(&dir).expect("cleanup");
            assert!(report.accepted > 0, "drill exercised accepting ops");
            assert!(report.rejected > 0, "drill exercised the replay gate");
            transcripts.push((workers, run, report.transcript));
        }
    }
    let (_, _, reference) = &transcripts[0];
    for (workers, run, transcript) in &transcripts[1..] {
        assert_eq!(
            transcript, reference,
            "transcript diverged at workers={workers} run={run}"
        );
    }
}

#[test]
fn an_empty_configuration_field_is_rejected_and_the_worker_survives() {
    // Empty configuration fields used to panic the worker parsing the
    // enrollment: the sender got no reply, and with one worker no later
    // connection was served.
    let (server, dir) = spawn_server("empty-config", 1);
    let (_, key_code, _) = enrolled_device(5);
    let call = |request: &Request| -> Option<Reply> {
        let mut stream = TcpStream::connect(server.addr()).expect("connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout set");
        write_frame(&mut stream, &request.encode()).ok()?;
        Reply::decode(&read_frame(&mut stream).ok()??).ok()
    };
    // In either envelope version.
    for (version, text) in [
        (
            1u16,
            &b"ropuf-enrollment v1\nenv,1.2,25\npair,0,1,2,,,0,1.0\n"[..],
        ),
        (
            FORMAT_VERSION,
            b"ropuf-enrollment v2\nenv,1.2,25\nfloorplan,listed\npair,0,1,2,,,0,1.0\n",
        ),
    ] {
        let mut envelope = MAGIC.to_vec();
        envelope.extend_from_slice(&version.to_le_bytes());
        envelope.extend_from_slice(text);
        let bad = Request::Enroll {
            device_id: 1,
            enrollment: envelope,
            key_code: key_code.clone(),
        };
        assert_eq!(
            call(&bad),
            Some(Reply::Reject {
                reason: RejectReason::BadRequest
            })
        );
    }
    assert_eq!(
        call(&Request::Revoke { device_id: 1 }),
        Some(Reply::Reject {
            reason: RejectReason::UnknownDevice
        }),
        "a new connection to the one worker gets a reply"
    );
    server.shutdown();
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn shutdown_severs_idle_keepalive_connections() {
    // A client that connects and then goes silent must not wedge
    // shutdown (workers block in read_frame on idle connections).
    let (server, dir) = spawn_server("idle", 2);
    let _idle_a = TcpStream::connect(server.addr()).expect("connects");
    let _idle_b = TcpStream::connect(server.addr()).expect("connects");
    // Give the workers a moment to pick both connections up.
    std::thread::sleep(std::time::Duration::from_millis(50));
    server.shutdown(); // must return, not hang
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Blocking HTTP/1.1 GET against the admin listener; returns the full
/// raw response (status line + headers + body).
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    use std::io::{Read, Write};
    let mut stream = TcpStream::connect(addr).expect("admin connects");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: admin\r\n\r\n").expect("request writes");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("response reads");
    response
}

fn spawn_admin_server(tag: &str) -> (ServerHandle, Arc<PufService>, PathBuf) {
    let dir = temp_dir(tag);
    let store = Store::open(&dir, 4, FsyncPolicy::Batched).expect("store opens");
    // ManualClock pins every request into window period 0, so the
    // scraped figures are a pure function of the request stream.
    let options = ServiceOptions {
        clock: Arc::new(ManualClock::at(0)),
        ..ServiceOptions::default()
    };
    let service = Arc::new(PufService::with_options(store, options));
    let handle = serve_with_admin(
        Arc::clone(&service),
        "127.0.0.1:0".parse().expect("loopback"),
        2,
        Some("127.0.0.1:0".parse().expect("loopback")),
    )
    .expect("server binds");
    (handle, service, dir)
}

/// A fresh enrolled device: (enrollment bytes, key-code bytes,
/// expected response bits).
fn enrolled_device(seed: u64) -> (Vec<u8>, Vec<u8>, BitVec) {
    let sim = SiliconSim::default_spartan();
    let mut rng = StdRng::seed_from_u64(seed);
    let board = sim.grow_board_with_id(&mut rng, BoardId(seed as u32), 80, 12);
    let started = Device::start(
        &board,
        sim.technology(),
        Environment::nominal(),
        ConfigurableRoPuf::tiled_interleaved(board.len(), 4),
        EnrollOptions::default(),
    );
    let (device, code) = started
        .generate_key(seed, 3, &FaultPlan::scaled(0.0))
        .expect("clean-silicon enrollment succeeds");
    let expected = device.enrollment().expected_bits();
    (
        enrollment_to_bytes(device.enrollment()),
        code.to_bytes(),
        expected,
    )
}

#[test]
fn admin_endpoints_expose_windowed_metrics_health_and_slo() {
    let (server, _service, dir) = spawn_admin_server("admin-scrape");
    let admin = server.admin_addr().expect("admin listener bound");
    let (enrollment, key_code, expected) = enrolled_device(0xAD317);

    let mut client = Client::connect(server.addr()).expect("client connects");
    let reply = client
        .call(&Request::Enroll {
            device_id: 7,
            enrollment,
            key_code,
        })
        .expect("enroll round trip");
    assert!(matches!(reply, Reply::Enrolled { .. }), "{reply:?}");
    let honest: Vec<Option<bool>> = (0..expected.len())
        .map(|i| Some(expected.get(i).expect("in range")))
        .collect();
    for nonce in 1..=4u64 {
        let reply = client
            .call(&Request::Auth {
                device_id: 7,
                nonce,
                response: WireBits::new(honest.clone()),
            })
            .expect("auth round trip");
        assert!(matches!(reply, Reply::AuthOk { .. }), "{reply:?}");
    }

    let metrics = http_get(admin, "/metrics");
    assert!(metrics.starts_with("HTTP/1.1 200 OK\r\n"), "{metrics}");
    assert!(
        metrics.contains("Content-Type: text/plain; version=0.0.4; charset=utf-8"),
        "{metrics}"
    );
    assert!(
        metrics.contains("ropuf_serve_window_requests 5"),
        "windowed family with deterministic count expected: {metrics}"
    );
    assert!(
        metrics.contains("ropuf_serve_window_accepts 4"),
        "{metrics}"
    );
    assert!(
        metrics.contains("ropuf_slo_availability_burn_rate 0.0\n"),
        "clean traffic burns no budget: {metrics}"
    );
    assert!(
        metrics.contains("ropuf_serve_window_auth_micros_count 4"),
        "{metrics}"
    );

    let healthz = http_get(admin, "/healthz");
    assert!(healthz.starts_with("HTTP/1.1 200 OK\r\n"), "{healthz}");
    assert!(
        healthz.contains("Content-Type: application/json"),
        "{healthz}"
    );
    assert!(healthz.contains("\"version\": 1"), "{healthz}");
    assert!(
        healthz.contains("\"name\": \"slo_availability_burn_rate\""),
        "merged report must carry the SLO gauges: {healthz}"
    );
    assert!(
        healthz.contains("\"name\": \"serve_auth_accept_rate\""),
        "merged report must carry the service gauges: {healthz}"
    );

    let slo = http_get(admin, "/slo");
    assert!(slo.contains("\"version\": 1"), "{slo}");
    assert!(slo.contains("\"good\": 4"), "{slo}");
    assert!(slo.contains("\"burn_rate\": 0.0"), "{slo}");
    assert!(slo.contains("\"overall\": \"ok\""), "{slo}");

    let missing = http_get(admin, "/nope");
    assert!(
        missing.starts_with("HTTP/1.1 404 Not Found\r\n"),
        "{missing}"
    );

    // Non-GET methods are refused, not misrouted.
    {
        use std::io::{Read, Write};
        let mut stream = TcpStream::connect(admin).expect("admin connects");
        write!(stream, "POST /metrics HTTP/1.1\r\nHost: admin\r\n\r\n").expect("writes");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("reads");
        assert!(
            response.starts_with("HTTP/1.1 405 Method Not Allowed\r\n"),
            "{response}"
        );
    }

    server.shutdown();
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn slo_flips_unhealthy_under_quality_reject_storm() {
    let (server, _service, dir) = spawn_admin_server("admin-slo-flip");
    let admin = server.admin_addr().expect("admin listener bound");
    let (enrollment, key_code, expected) = enrolled_device(0x510F);

    let mut client = Client::connect(server.addr()).expect("client connects");
    let reply = client
        .call(&Request::Enroll {
            device_id: 9,
            enrollment,
            key_code,
        })
        .expect("enroll round trip");
    assert!(matches!(reply, Reply::Enrolled { .. }), "{reply:?}");

    // Every response bit inverted: flip fraction 1.0, a TooManyFlips
    // quality reject on each op until the lockout gate latches — all
    // of which burn error budget.
    let inverted: Vec<Option<bool>> = (0..expected.len())
        .map(|i| Some(!expected.get(i).expect("in range")))
        .collect();
    for nonce in 1..=8u64 {
        let reply = client
            .call(&Request::Auth {
                device_id: 9,
                nonce,
                response: WireBits::new(inverted.clone()),
            })
            .expect("auth round trip");
        assert!(
            matches!(
                reply,
                Reply::Reject {
                    reason: RejectReason::TooManyFlips | RejectReason::LockedOut
                }
            ),
            "{reply:?}"
        );
    }

    let slo = http_get(admin, "/slo");
    assert!(slo.contains("\"good\": 0"), "{slo}");
    assert!(slo.contains("\"bad\": 8"), "{slo}");
    assert!(
        slo.contains("\"overall\": \"critical\""),
        "an all-reject storm must blow the availability budget: {slo}"
    );

    let metrics = http_get(admin, "/metrics");
    assert!(
        metrics.contains("ropuf_serve_window_quality_rejects 8"),
        "{metrics}"
    );
    assert!(
        metrics.contains("ropuf_health_status{gauge=\"slo_availability_burn_rate\"} 2"),
        "{metrics}"
    );

    server.shutdown();
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn healthz_answers_while_every_worker_holds_an_idle_connection() {
    use std::io::{Read, Write};
    let (server, _service, dir) = spawn_admin_server("admin-idle-workers");
    let admin = server.admin_addr().expect("admin listener bound");
    // One answered frame per protocol connection (the admin server has
    // two workers): both workers now wait on clients that stay silent.
    let idle: Vec<TcpStream> = (0..2)
        .map(|_| {
            let mut stream = TcpStream::connect(server.addr()).expect("connects");
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .expect("timeout set");
            write_frame(&mut stream, &Request::Revoke { device_id: 1 }.encode()).expect("writes");
            read_frame(&mut stream).expect("reads").expect("a reply");
            stream
        })
        .collect();

    let started = std::time::Instant::now();
    let mut stream = TcpStream::connect(admin).expect("admin connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(3)))
        .expect("timeout set");
    write!(stream, "GET /healthz HTTP/1.1\r\nHost: admin\r\n\r\n").expect("request writes");
    let mut response = String::new();
    let read = stream.read_to_string(&mut response);
    let waited = started.elapsed();
    drop(idle);
    server.shutdown();
    std::fs::remove_dir_all(&dir).expect("cleanup");
    read.unwrap_or_else(|e| panic!("/healthz unanswered after {waited:?}: {e}"));
    assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
}

#[test]
fn drill_transcript_is_byte_identical_with_admin_plane_enabled() {
    let spec = DrillSpec {
        seed: 0xFACADE,
        devices: 5,
        ops_per_device: 8,
        ..DrillSpec::default()
    };

    let (plain_server, plain_dir) = spawn_server("admin-det-plain", 2);
    let plain = run_drill(plain_server.addr(), &spec).expect("plain drill completes");
    plain_server.shutdown();
    std::fs::remove_dir_all(&plain_dir).expect("cleanup");

    let dir = temp_dir("admin-det-wired");
    let store = Store::open(&dir, 4, FsyncPolicy::Batched).expect("store opens");
    let log_path = dir.join("access.jsonl");
    let options = ServiceOptions {
        clock: Arc::new(ManualClock::at(0)),
        access_log: Some(AccessLog::create(&log_path, 3).expect("log creates")),
        ..ServiceOptions::default()
    };
    let service = Arc::new(PufService::with_options(store, options));
    let server = serve_with_admin(
        Arc::clone(&service),
        "127.0.0.1:0".parse().expect("loopback"),
        2,
        Some("127.0.0.1:0".parse().expect("loopback")),
    )
    .expect("server binds");
    let admin = server.admin_addr().expect("admin listener bound");
    let wired = run_drill(server.addr(), &spec).expect("wired drill completes");

    assert_eq!(
        plain.transcript, wired.transcript,
        "the ops plane must be pure observation"
    );

    // Scraping mid-flight state right after the drill: the windowed
    // request count equals the drill's wire ops because ManualClock
    // pins everything into one live bucket.
    let metrics = http_get(admin, "/metrics");
    let total = plain.devices + plain.ops;
    assert!(
        metrics.contains(&format!("ropuf_serve_window_requests {total}")),
        "expected {total} windowed requests (enrolls + scripted ops): {metrics}"
    );

    if let Some(log) = service.access_log() {
        log.flush();
    }
    let logged = std::fs::read_to_string(&log_path).expect("access log written");
    let lines: Vec<&str> = logged.lines().collect();
    assert!(!lines.is_empty(), "sampled log must carry records");
    assert!(
        lines.len() < total as usize,
        "sample=3 must thin the stream: {} of {total}",
        lines.len()
    );
    for line in &lines {
        assert!(
            line.starts_with("{\"conn\": ") && line.contains("\"verdict\": "),
            "malformed access record: {line}"
        );
    }

    server.shutdown();
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// The offline mirror of the service gate: same thresholds, same
/// ordering, fed the same response bits. Nonces are always fresh and
/// lengths always match in this test, so those gates never fire.
struct MirrorGate {
    expected: BitVec,
    config: ServiceConfig,
    failures: u32,
    degraded: u32,
    locked: bool,
    quarantined: bool,
}

impl MirrorGate {
    fn new(expected: BitVec) -> Self {
        Self {
            expected,
            config: ServiceConfig::default(),
            failures: 0,
            degraded: 0,
            locked: false,
            quarantined: false,
        }
    }

    fn expect_reply(&mut self, bits: &[Option<bool>]) -> Reply {
        if self.quarantined {
            return Reply::Reject {
                reason: RejectReason::Quarantined,
            };
        }
        if self.locked {
            return Reply::Reject {
                reason: RejectReason::LockedOut,
            };
        }
        let (mut compared, mut flips) = (0u32, 0u32);
        for (i, bit) in bits.iter().enumerate() {
            if let Some(b) = bit {
                compared += 1;
                if *b != self.expected.get(i).expect("same length") {
                    flips += 1;
                }
            }
        }
        let coverage = f64::from(compared) / self.expected.len().max(1) as f64;
        let reject = if coverage < self.config.min_coverage_fraction {
            Some(RejectReason::LowCoverage)
        } else if f64::from(flips) > self.config.max_flip_fraction * f64::from(compared) {
            Some(RejectReason::TooManyFlips)
        } else {
            None
        };
        if let Some(reason) = reject {
            self.failures += 1;
            if self.failures >= self.config.lockout_threshold {
                self.locked = true;
            }
            return Reply::Reject { reason };
        }
        self.failures = 0;
        if compared == bits.len() as u32 {
            self.degraded = 0;
        } else {
            self.degraded += 1;
            if self.degraded >= self.config.degraded_threshold {
                self.quarantined = true;
            }
        }
        Reply::AuthOk { compared, flips }
    }
}

proptest! {
    /// For a random device and fault intensity, the server's auth
    /// verdict over TCP must agree bit-for-bit with the offline
    /// `respond_robust_bound` read-out pushed through a mirror of the
    /// gate — at every worker-thread count.
    #[test]
    fn server_auth_agrees_with_offline_respond_robust_bound(
        device_seed in 0u64..1_000_000,
        fault_scale in proptest::sample::select(vec![0.0f64, 0.15, 0.4, 0.6]),
        votes in proptest::sample::select(vec![1usize, 3]),
    ) {
        let sim = SiliconSim::default_spartan();
        let mut rng = StdRng::seed_from_u64(device_seed);
        let board = sim.grow_board_with_id(&mut rng, BoardId(device_seed as u32), 80, 12);
        let opts = EnrollOptions::default();
        let started = Device::start(
            &board,
            sim.technology(),
            Environment::nominal(),
            ConfigurableRoPuf::tiled_interleaved(board.len(), 4),
            opts,
        );
        // Enroll on clean silicon; the faults arrive at auth time.
        let enrolled = started.generate_key(device_seed, 3, &FaultPlan::scaled(0.0));
        prop_assume!(enrolled.is_ok());
        let (device, code) = enrolled.expect("checked");
        let enrollment_bytes = enrollment_to_bytes(device.enrollment());
        let key_code_bytes = code.to_bytes();
        let expected = device.enrollment().expected_bits();
        let bound = device.enrollment().bind(&board);
        let plan = FaultPlan::scaled(fault_scale);

        // One offline read-out per op, shared across worker counts —
        // the reads are deterministic in the seed, so every server
        // sees the same request stream.
        let reads: Vec<Vec<Option<bool>>> = (0..6u64)
            .map(|k| {
                let op_seed = split_seed(device_seed, k + 100);
                let (bits, _summary) = respond_robust_bound(
                    &bound,
                    op_seed,
                    sim.technology(),
                    Environment::nominal(),
                    &opts.probe,
                    votes,
                    &plan,
                );
                bits
            })
            .collect();

        for workers in [1usize, 2, 4, 8] {
            let (server, dir) = spawn_server(
                &format!("prop-{device_seed}-v{votes}-w{workers}"),
                workers,
            );
            let mut client = Client::connect(server.addr()).expect("client connects");
            let reply = client
                .call(&Request::Enroll {
                    device_id: 1,
                    enrollment: enrollment_bytes.clone(),
                    key_code: key_code_bytes.clone(),
                })
                .expect("enroll round trip");
            prop_assert!(matches!(reply, Reply::Enrolled { .. }), "{reply:?}");

            let mut mirror = MirrorGate::new(expected.clone());
            for (k, bits) in reads.iter().enumerate() {
                let reply = client
                    .call(&Request::Auth {
                        device_id: 1,
                        nonce: k as u64 + 1,
                        response: WireBits::new(bits.clone()),
                    })
                    .expect("auth round trip");
                let offline = mirror.expect_reply(bits);
                prop_assert_eq!(
                    &reply, &offline,
                    "op {} at {} worker(s) diverged from offline", k, workers
                );
            }
            server.shutdown();
            std::fs::remove_dir_all(&dir).expect("cleanup");
        }
    }
}
