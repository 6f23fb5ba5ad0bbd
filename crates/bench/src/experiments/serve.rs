//! Authentication-server benchmark: auth throughput and tail latency
//! of `ropuf_server` at fleet scale, plus a drill determinism check.
//!
//! `repro serve` renders the outcome and emits it as `BENCH_serve.json`
//! for the `check-bench` gate.
//!
//! Scale trick (logged, never silent): growing a million boards through
//! the silicon simulator would dominate the run without exercising the
//! server at all, so the bench grows [`Config::unique_boards`] real
//! enrollments through the typestate lifecycle and replicates their
//! payload bytes across the device-id space. Every stored record is a
//! genuine enrollment envelope + Key Code; only the silicon is shared.
//! The auth phase drives the full wire path in-process — request
//! encode, frame decode, gate pipeline, reply encode/decode — from
//! [`Config::threads`] workers, so the figure is the service's own
//! capacity, not the loopback TCP stack's.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use ropuf_core::fleet::{parallel_map_indexed, split_seed, worker_threads};
use ropuf_core::persist::enrollment_to_bytes;
use ropuf_core::puf::EnrollOptions;
use ropuf_core::robust::FaultPlan;
use ropuf_num::bits::BitVec;
use ropuf_server::{
    provision, run_drill, serve, DrillSpec, FsyncPolicy, PufService, Reply, Request, ServiceConfig,
    Store, WireBits,
};
use ropuf_telemetry::json::Value;

/// The enrolled-fleet sizes the bench sweeps (filtered by
/// [`Config::max_scale`]).
pub const SCALES: &[usize] = &[10_000, 100_000, 1_000_000];

/// Experiment configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// Master seed for silicon growth, enrollment, and the op schedule.
    pub seed: u64,
    /// Largest entry of [`SCALES`] to run (1M is opt-in: pass
    /// `--boards 1000000`).
    pub max_scale: usize,
    /// Worker threads for the auth phase; `None` = auto.
    pub threads: Option<usize>,
    /// Distinct silicon enrollments replicated across the id space.
    pub unique_boards: usize,
    /// Auth requests measured per scale.
    pub auth_ops: usize,
    /// Configurable units per unique board.
    pub units: usize,
    /// Spatial columns per unique board.
    pub cols: usize,
    /// Key Code repetition factor.
    pub repetition: usize,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            seed: 2015,
            max_scale: 100_000,
            threads: None,
            unique_boards: 256,
            auth_ops: 100_000,
            units: 80,
            cols: 12,
            repetition: 3,
        }
    }
}

/// Measurements at one enrolled-fleet size.
#[derive(Debug, Clone)]
pub struct ScaleOutcome {
    /// Devices enrolled in the store.
    pub enrolled: usize,
    /// Wall-clock seconds to enroll them (store writes included).
    pub enroll_secs: f64,
    /// Auth requests driven.
    pub auth_ops: usize,
    /// Wall-clock seconds of the auth phase.
    pub auth_secs: f64,
    /// Auth requests per second across all workers.
    pub auth_ops_per_sec: f64,
    /// Median per-op latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile per-op latency (nearest-rank), microseconds.
    pub p99_us: f64,
    /// Requests the gate accepted (must equal `auth_ops`).
    pub accepted: u64,
}

/// Everything `repro serve` reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Worker threads the auth phase ran on.
    pub threads: usize,
    /// Distinct silicon enrollments backing the fleet.
    pub unique_boards: usize,
    /// Whether the same-seed drill transcript was byte-identical
    /// across two runs at different server worker counts.
    pub deterministic: bool,
    /// One entry per swept scale.
    pub scales: Vec<ScaleOutcome>,
}

/// Short label of a scale (`10k`, `100k`, `1m`), as `check-bench`
/// names it.
pub fn scale_label(scale: usize) -> String {
    if scale.is_multiple_of(1_000_000) {
        format!("{}m", scale / 1_000_000)
    } else if scale.is_multiple_of(1_000) {
        format!("{}k", scale / 1_000)
    } else {
        scale.to_string()
    }
}

struct Payload {
    enrollment: Vec<u8>,
    key_code: Vec<u8>,
    expected: BitVec,
}

/// Same-seed drill twice, at 1 and 2 server workers: the transcripts
/// must be byte-identical (the server's ordering guarantees, not luck).
fn drill_determinism(config: &Config, threads: usize) -> bool {
    let spec = DrillSpec {
        seed: split_seed(config.seed, u64::MAX - 9),
        devices: 4,
        ops_per_device: 10,
        units: config.units,
        cols: config.cols,
        repetition: config.repetition,
        client_threads: threads,
        ..DrillSpec::default()
    };
    // Each drill gets a store of its own, also when several benchmark
    // runs share the process (the crate's tests run them in parallel).
    static DRILLS: AtomicUsize = AtomicUsize::new(0);
    let run_once = |workers: usize, tag: &str| {
        let dir = std::env::temp_dir().join(format!(
            "ropuf-serve-bench-drill-{tag}-{}-{}",
            std::process::id(),
            DRILLS.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::remove_dir_all(&dir).ok();
        let store = Store::open(&dir, 4, FsyncPolicy::Batched).expect("drill store opens");
        let service = std::sync::Arc::new(PufService::new(store, ServiceConfig::default()));
        let server = serve(service, "127.0.0.1:0".parse().expect("loopback"), workers)
            .expect("drill server binds");
        let report = run_drill(server.addr(), &spec).expect("drill completes");
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
        report.transcript
    };
    run_once(1, "a") == run_once(2, "b")
}

/// Runs the benchmark.
pub fn run(config: &Config) -> Outcome {
    let threads = config.threads.unwrap_or_else(worker_threads);
    let payloads = parallel_map_indexed(config.unique_boards, threads, |u| {
        let board = provision(
            split_seed(config.seed, u as u64),
            u as u32,
            config.units,
            config.cols,
            EnrollOptions::default(),
            config.repetition,
            &FaultPlan::scaled(0.0),
        )
        .expect("bench board enrolls");
        Payload {
            enrollment: enrollment_to_bytes(&board.enrollment),
            key_code: board.code.to_bytes(),
            expected: board.enrollment.expected_bits(),
        }
    });
    let deterministic = drill_determinism(config, threads);

    let mut scales = Vec::new();
    for &scale in SCALES.iter().filter(|&&s| s <= config.max_scale) {
        let dir = std::env::temp_dir().join(format!(
            "ropuf-serve-bench-{}-{}",
            scale,
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let store = Store::open(&dir, 64, FsyncPolicy::Batched).expect("bench store opens");

        let enroll_start = Instant::now();
        parallel_map_indexed(scale, threads, |d| {
            let p = &payloads[d % payloads.len()];
            store
                .enroll(d as u64, &p.enrollment, &p.key_code)
                .expect("bench device enrolls");
        });
        let enroll_secs = enroll_start.elapsed().as_secs_f64();

        let service = PufService::new(store, ServiceConfig::default());
        let auth_start = Instant::now();
        let mut latencies = parallel_map_indexed(config.auth_ops, threads, |i| {
            // Golden-ratio stride scatters ops across devices (and
            // therefore store shards); the global op index keeps every
            // nonce fresh so nothing trips the replay gate.
            let device_id = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) % scale as u64;
            let p = &payloads[(device_id as usize) % payloads.len()];
            let op_start = Instant::now();
            let request = Request::Auth {
                device_id,
                nonce: i as u64 + 1,
                response: WireBits::new(p.expected.iter().map(Some).collect()),
            };
            let decoded = Request::decode(&request.encode()).expect("self-encoded request");
            let reply = service.handle(&decoded);
            let reply = Reply::decode(&reply.encode()).expect("self-encoded reply");
            debug_assert!(matches!(reply, Reply::AuthOk { .. }), "{reply:?}");
            op_start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
        });
        let auth_secs = auth_start.elapsed().as_secs_f64();
        latencies.sort_unstable();
        // Nearest-rank percentiles over the full latency population.
        let pct = |p: f64| {
            let rank = ((p * latencies.len() as f64).ceil() as usize).clamp(1, latencies.len());
            latencies[rank - 1] as f64 / 1_000.0
        };
        let accepted = service
            .stats()
            .auth_accepted
            .load(std::sync::atomic::Ordering::Relaxed);
        scales.push(ScaleOutcome {
            enrolled: scale,
            enroll_secs,
            auth_ops: config.auth_ops,
            auth_secs,
            auth_ops_per_sec: config.auth_ops as f64 / auth_secs,
            p50_us: pct(0.50),
            p99_us: pct(0.99),
            accepted,
        });
        std::fs::remove_dir_all(&dir).ok();
    }
    Outcome {
        threads,
        unique_boards: payloads.len(),
        deterministic,
        scales,
    }
}

impl Outcome {
    /// Human-readable table.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        writeln!(
            out,
            "{} unique silicon enrollments replicated across each fleet; \
             {} auth ops per scale on {} thread(s); drill deterministic: {}",
            self.unique_boards,
            self.scales.first().map_or(0, |s| s.auth_ops),
            self.threads,
            self.deterministic,
        )
        .expect("write to String");
        writeln!(
            out,
            "{:>10}  {:>12}  {:>14}  {:>10}  {:>10}  {:>10}",
            "enrolled", "enroll (s)", "auth ops/sec", "p50 (us)", "p99 (us)", "accepted"
        )
        .expect("write to String");
        for s in &self.scales {
            writeln!(
                out,
                "{:>10}  {:>12.2}  {:>14.0}  {:>10.2}  {:>10.2}  {:>10}",
                s.enrolled, s.enroll_secs, s.auth_ops_per_sec, s.p50_us, s.p99_us, s.accepted
            )
            .expect("write to String");
        }
        out
    }

    /// The `BENCH_serve.json` document.
    pub fn to_json(&self) -> String {
        let scales = self
            .scales
            .iter()
            .map(|s| {
                Value::object([
                    ("enrolled", Value::from(s.enrolled)),
                    ("enroll_secs", Value::from(s.enroll_secs)),
                    ("auth_ops", Value::from(s.auth_ops)),
                    ("auth_secs", Value::from(s.auth_secs)),
                    ("auth_ops_per_sec", Value::from(s.auth_ops_per_sec)),
                    ("p50_us", Value::from(s.p50_us)),
                    ("p99_us", Value::from(s.p99_us)),
                    ("accepted", Value::from(s.accepted)),
                ])
            })
            .collect();
        Value::object([
            ("kind", Value::from("serve")),
            ("threads", Value::from(self.threads)),
            ("unique_boards", Value::from(self.unique_boards)),
            ("deterministic", Value::from(self.deterministic)),
            ("scales", Value::Array(scales)),
        ])
        .to_document()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> Config {
        Config {
            seed: 7,
            max_scale: 0, // no scale sweep: SCALES entries all exceed 0
            threads: Some(2),
            unique_boards: 3,
            auth_ops: 50,
            ..Config::default()
        }
    }

    #[test]
    fn scale_labels_read_in_thousands_and_millions() {
        assert_eq!(scale_label(10_000), "10k");
        assert_eq!(scale_label(100_000), "100k");
        assert_eq!(scale_label(1_000_000), "1m");
        assert_eq!(scale_label(123), "123");
    }

    #[test]
    fn drill_check_and_json_shape() {
        let out = run(&tiny_config());
        assert!(out.deterministic, "drill transcripts must match");
        assert!(out.scales.is_empty());
        let doc = ropuf_telemetry::json::parse(&out.to_json()).expect("the record is JSON");
        assert_eq!(doc.get("kind").and_then(Value::as_str), Some("serve"));
        assert_eq!(doc.get("threads").and_then(Value::as_u64), Some(2));
        assert_eq!(
            doc.get("deterministic").and_then(Value::as_bool),
            Some(true)
        );
        assert_eq!(doc.get("scales").and_then(Value::as_array), Some(&[][..]));
    }

    #[test]
    fn small_scale_sweep_accepts_every_op() {
        // A custom miniature scale exercises the full enroll + auth
        // pipeline without the CI cost of the real sweep.
        let mut config = tiny_config();
        config.max_scale = 10_000;
        config.auth_ops = 200;
        let out = run(&config);
        assert_eq!(out.scales.len(), 1);
        let s = &out.scales[0];
        assert_eq!(s.enrolled, 10_000);
        assert_eq!(s.accepted, s.auth_ops as u64, "every clean auth accepted");
        assert!(s.p99_us >= s.p50_us);
        assert!(s.auth_ops_per_sec > 0.0);
    }
}
