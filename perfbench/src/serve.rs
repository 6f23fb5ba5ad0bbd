//! The `auth_tcp` workload: `ropuf_server::serve` on loopback in this
//! process, over a store pre-filled with [`DEVICES`] enrollments, driven
//! by one open-loop generator thread. Its traced run also drives the
//! churn mix (enroll, reenroll, revoke and auth) on a fresh store, so the
//! write-path layers are measured too.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ropuf_core::fleet::{parallel_map_indexed, parallel_map_indexed_with, split_seed};
use ropuf_core::fuzzy::FuzzyExtractor;
use ropuf_num::bits::BitVec;
use ropuf_server::{
    serve, FsyncPolicy, PufService, RejectReason, Reply, Request, ServerHandle, ServiceConfig,
    Store, WireBits,
};
use ropuf_silicon::MeasureArena;
use ropuf_telemetry::{self as telemetry, MemorySink};

use crate::ledger::{self, Recorder, Row};
use crate::load::{
    CHURN_RPS, DEVICES, HIGH_RPS, IN_FLIGHT, LADDER, LOW_RPS, P90_LIMIT_US, POOL, SETUP_REPS,
    SHARDS,
};
use crate::loadgen::{run_phase, Class, Conn, Load, Op, Phase, Source};
use crate::provision::{Pipeline, REPETITION};
use crate::{stats, sys, Args, Report};

/// One distinct device's store payload, plus what the generator needs
/// to predict replies about it.
struct Payload {
    enrollment: Vec<u8>,
    key_code: Vec<u8>,
    expected: BitVec,
    key: BitVec,
}

/// Provisions `n` distinct boards through the provisioning workloads'
/// pipeline ([`Pipeline::board`], untraced) and keeps what the store
/// and the generator need.
fn grow_pool(seed: u64, n: usize) -> Vec<Payload> {
    let pipe = Pipeline::new(false, n);
    parallel_map_indexed_with(
        n,
        sys::nproc(),
        || (MeasureArena::new(), Recorder::new(false)),
        |(arena, rec), i| {
            let board = pipe.board(seed, i, i as u64, arena, rec);
            let expected = board.record.expected_bits;
            let key = FuzzyExtractor::new(REPETITION)
                .reproduce(&expected, board.key_code.helper())
                .expect("the helper came from this response");
            Payload {
                enrollment: board.persisted,
                key_code: board.key_code.to_bytes(),
                expected,
                key,
            }
        },
    )
}

/// Store set-up figures.
#[derive(Debug, Default, Clone, Copy)]
struct StoreFigures {
    fill_us: f64,
    open_s: f64,
    records: u64,
}

/// A running server over a freshly filled store.
struct Stand {
    pool: Vec<Payload>,
    dir: PathBuf,
    server: ServerHandle,
    figures: StoreFigures,
}

/// Set-up: grow the payload pool, fill the store (write-back batched,
/// then one sync), replay it with `Store::open` under the server's
/// default fsync policy (fdatasync after every record), and start
/// serving.
fn stand_up(args: &Args, rep: usize) -> Stand {
    let pool = grow_pool(split_seed(args.seed, 1), POOL);
    let dir = args.work_dir.join(format!(
        "store-{}-{}-{}",
        args.workload,
        std::process::id(),
        rep
    ));
    std::fs::remove_dir_all(&dir).ok();
    let fill = Instant::now();
    {
        let store = Store::open(&dir, SHARDS, FsyncPolicy::Batched).expect("store opens");
        parallel_map_indexed(DEVICES as usize, sys::nproc(), |d| {
            let p = &pool[d % pool.len()];
            store
                .enroll(d as u64, &p.enrollment, &p.key_code)
                .expect("fill enrollment is accepted");
        });
        store.sync_all().expect("store syncs");
    }
    let fill_us = fill.elapsed().as_secs_f64() * 1e6 / DEVICES as f64;
    let open = Instant::now();
    let store = Store::open(&dir, SHARDS, FsyncPolicy::EveryRecord).expect("store reopens");
    let open_s = open.elapsed().as_secs_f64();
    let service = Arc::new(PufService::new(store, ServiceConfig::default()));
    let server = serve(service, SocketAddr::from(([127, 0, 0, 1], 0)), sys::nproc())
        .expect("loopback server binds");
    Stand {
        pool,
        dir,
        server,
        figures: StoreFigures {
            fill_us,
            open_s,
            records: DEVICES,
        },
    }
}

impl Stand {
    fn tear_down(self) {
        self.server.shutdown();
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// Per-device state the auth model tracks: a mirror of the server
/// gate's bookkeeping.
#[derive(Debug, Clone, Copy, Default)]
struct Gate {
    last_nonce: Option<u64>,
    failures: u32,
    degraded: u32,
    locked: bool,
    quarantined: bool,
}

/// Predicted outcome counts.
#[derive(Debug, Default, Clone, Copy)]
struct Predicted {
    accepts: u64,
    rejects: u64,
}

/// The `auth_tcp` request source: devices uniform over the filled id
/// space, each pinned to connection `id % conns`.
struct AuthSource<'a> {
    pool: &'a [Payload],
    devices: u64,
    conns: usize,
    gates: Vec<Gate>,
    nonce: u64,
    rng: StdRng,
    config: ServiceConfig,
    predicted: Predicted,
}

impl AuthSource<'_> {
    /// A read-out of `expected` with `erasures` positions erased and
    /// `flips` other positions flipped; with `block_spread`, at most one
    /// flip per repetition block.
    fn response(
        &mut self,
        expected: &BitVec,
        flips: usize,
        erasures: usize,
        block_spread: bool,
    ) -> WireBits {
        let n = expected.len();
        let mut bits: Vec<Option<bool>> = expected.iter().map(Some).collect();
        let mut erased = 0;
        while erased < erasures {
            let i = self.rng.gen_range(0..n);
            if bits[i].is_some() {
                bits[i] = None;
                erased += 1;
            }
        }
        let mut flipped = 0;
        let mut used_blocks = Vec::new();
        while flipped < flips {
            let i = self.rng.gen_range(0..n);
            // Key derivation: at most one flip per repetition block, so
            // the key still reproduces exactly.
            let block = i / REPETITION;
            if bits[i] != expected.get(i) || (block_spread && used_blocks.contains(&block)) {
                continue;
            }
            bits[i] = bits[i].map(|b| !b);
            used_blocks.push(block);
            flipped += 1;
        }
        WireBits::new(bits)
    }

    /// The server gate, replayed on the model.
    fn gate(
        &mut self,
        device: u64,
        nonce: u64,
        compared: u32,
        len: u32,
        flips: u32,
    ) -> Result<(), RejectReason> {
        let config = self.config;
        let g = &mut self.gates[device as usize];
        if g.quarantined {
            return Err(RejectReason::Quarantined);
        }
        if g.locked {
            return Err(RejectReason::LockedOut);
        }
        if g.last_nonce == Some(nonce) {
            return Err(RejectReason::Replay);
        }
        g.last_nonce = Some(nonce);
        let fail = |g: &mut Gate, reason| {
            g.failures += 1;
            if g.failures >= config.lockout_threshold {
                g.locked = true;
            }
            Err(reason)
        };
        if f64::from(compared) / f64::from(len) < config.min_coverage_fraction {
            return fail(g, RejectReason::LowCoverage);
        }
        if f64::from(flips) > config.max_flip_fraction * f64::from(compared) {
            return fail(g, RejectReason::TooManyFlips);
        }
        g.failures = 0;
        if compared == len {
            g.degraded = 0;
        } else {
            g.degraded += 1;
            if g.degraded >= config.degraded_threshold {
                g.quarantined = true;
            }
        }
        Ok(())
    }
}

impl Source for AuthSource<'_> {
    fn next_op(&mut self) -> Op {
        let device = self.rng.gen_range(0..self.devices);
        let expected = self.pool[device as usize % self.pool.len()]
            .expected
            .clone();
        let len = expected.len();
        let roll: f64 = self.rng.gen();
        self.nonce += 1;
        let fresh = self.nonce;
        // (nonce, flips, erasures, derive)
        let (nonce, flips, erasures, derive) = if roll < 0.90 {
            let erasures = if self.rng.gen::<f64>() < 0.1 {
                self.rng.gen_range(1..=2)
            } else {
                0
            };
            (fresh, self.rng.gen_range(0..=3), erasures, false)
        } else if roll < 0.95 {
            (fresh, self.rng.gen_range(0..=2), 0, true)
        } else {
            match self.gates[device as usize].last_nonce {
                Some(last) if roll < 0.975 => (last, 0, 0, false),
                // Over a quarter of the compared bits flipped.
                _ => (fresh, len / 4 + 3, 0, false),
            }
        };
        let response = self.response(&expected, flips, erasures, derive);
        let compared = (len - erasures) as u32;
        let verdict = self.gate(device, nonce, compared, len as u32, flips as u32);
        let expect = match verdict {
            Err(reason) => {
                self.predicted.rejects += 1;
                Reply::Reject { reason }
            }
            Ok(()) if derive => {
                self.predicted.accepts += 1;
                Reply::Key {
                    key: self.pool[device as usize % self.pool.len()].key.clone(),
                }
            }
            Ok(()) => {
                self.predicted.accepts += 1;
                Reply::AuthOk {
                    compared,
                    flips: flips as u32,
                }
            }
        };
        let request = if derive {
            Request::DeriveKey {
                device_id: device,
                nonce,
                response,
            }
        } else {
            Request::Auth {
                device_id: device,
                nonce,
                response,
            }
        };
        Op {
            conn: device as usize % self.conns,
            request,
            expect,
            class: Class::Read,
        }
    }
}

/// A live device in the churn model.
#[derive(Debug, Clone, Copy)]
struct Live {
    payload: usize,
    generation: u32,
    slot: usize,
}

/// The churn mix's request source and its model of the live store.
struct ChurnSource<'a> {
    pool: &'a [Payload],
    conns: usize,
    live: HashMap<u64, Live>,
    ids: Vec<u64>,
    next_id: u64,
    nonce: u64,
    writes: u64,
    rng: StdRng,
}

impl ChurnSource<'_> {
    fn new<'a>(pool: &'a [Payload], devices: u64, conns: usize, rng: StdRng) -> ChurnSource<'a> {
        let ids: Vec<u64> = (0..devices).collect();
        let live = ids
            .iter()
            .map(|&d| {
                (
                    d,
                    Live {
                        payload: d as usize % pool.len(),
                        generation: 0,
                        slot: d as usize,
                    },
                )
            })
            .collect();
        ChurnSource {
            pool,
            conns,
            live,
            ids,
            next_id: devices,
            nonce: 0,
            writes: 0,
            rng,
        }
    }

    fn pick_live(&mut self) -> u64 {
        self.ids[self.rng.gen_range(0..self.ids.len())]
    }

    fn remove(&mut self, id: u64) {
        let gone = self.live.remove(&id).expect("picked from the live set");
        self.ids.swap_remove(gone.slot);
        if let Some(&moved) = self.ids.get(gone.slot) {
            self.live.get_mut(&moved).expect("live id").slot = gone.slot;
        }
    }
}

impl Source for ChurnSource<'_> {
    fn next_op(&mut self) -> Op {
        let roll: f64 = self.rng.gen();
        let (device, request, expect, class) = if roll < 0.40 {
            let id = self.next_id;
            self.next_id += 1;
            let payload = self.rng.gen_range(0..self.pool.len());
            let p = &self.pool[payload];
            self.live.insert(
                id,
                Live {
                    payload,
                    generation: 0,
                    slot: self.ids.len(),
                },
            );
            self.ids.push(id);
            (
                id,
                Request::Enroll {
                    device_id: id,
                    enrollment: p.enrollment.clone(),
                    key_code: p.key_code.clone(),
                },
                Reply::Enrolled {
                    bits: p.expected.len() as u32,
                },
                Class::Write,
            )
        } else if roll < 0.50 {
            let id = self.pick_live();
            let pool_len = self.pool.len();
            let shift = self.rng.gen_range(1..pool_len);
            let entry = self.live.get_mut(&id).expect("live id");
            entry.payload = (entry.payload + shift) % pool_len;
            entry.generation += 1;
            let p = &self.pool[entry.payload];
            (
                id,
                Request::Reenroll {
                    device_id: id,
                    enrollment: p.enrollment.clone(),
                    key_code: p.key_code.clone(),
                },
                Reply::Reenrolled {
                    bits: p.expected.len() as u32,
                    generation: entry.generation,
                },
                Class::Write,
            )
        } else if roll < 0.60 {
            let id = self.pick_live();
            self.remove(id);
            (
                id,
                Request::Revoke { device_id: id },
                Reply::Revoked,
                Class::Write,
            )
        } else {
            let id = self.pick_live();
            let expected = &self.pool[self.live[&id].payload].expected;
            let flips = self.rng.gen_range(0..=2usize);
            let mut bits: Vec<Option<bool>> = expected.iter().map(Some).collect();
            for k in 0..flips {
                // Distinct positions: one per stride of the response.
                let i = (k * bits.len() / 2 + self.rng.gen_range(0..bits.len() / 2)) % bits.len();
                bits[i] = bits[i].map(|b| !b);
            }
            self.nonce += 1;
            (
                id,
                Request::Auth {
                    device_id: id,
                    nonce: self.nonce,
                    response: WireBits::new(bits),
                },
                Reply::AuthOk {
                    compared: expected.len() as u32,
                    flips: flips as u32,
                },
                Class::Read,
            )
        };
        if class == Class::Write {
            self.writes += 1;
        }
        Op {
            conn: device as usize % self.conns,
            request,
            expect,
            class,
        }
    }
}

/// Bytes in every shard file of a store directory.
fn log_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Sets up `reps` times (median reported), keeping the last.
fn set_up(args: &Args, reps: usize, report: &mut Report) -> Stand {
    let mut times = Vec::new();
    let mut stand = None;
    for rep in 0..reps {
        if let Some(old) = stand.take() {
            Stand::tear_down(old);
        }
        let t = Instant::now();
        stand = Some(stand_up(args, rep));
        times.push(t.elapsed().as_secs_f64());
    }
    report.metric("setup_s", stats::median(&times), "s");
    stand.expect("at least one set-up repetition")
}

fn connect(addr: SocketAddr) -> Vec<Conn> {
    (0..sys::nproc())
        .map(|_| Conn::connect(addr).expect("loopback connect"))
        .collect()
}

/// Folds a phase's failures and mismatches into the report.
fn account(phase: &Phase, what: &str, report: &mut Report) {
    report.note(format!(
        "{what}: sent {}, late p99 {:.3} us, outstanding max {}, generator {:.3} us CPU/op, server {:.3} us CPU/op",
        phase.sent,
        stats::percentile(&phase.late_us, 0.99).unwrap_or(f64::NAN),
        phase.outstanding_max,
        phase.loadgen_cpu_ns as f64 / 1e3 / phase.sent.max(1) as f64,
        phase.server_cpu_ns as f64 / 1e3 / phase.sent.max(1) as f64,
    ));
    report.attempted += phase.sent;
    report.failed += phase.failed;
    if phase.mismatched > 0 {
        let mut problems = vec![format!(
            "{what}: {} of {} replies differ from the generator's prediction",
            phase.mismatched, phase.sent
        )];
        problems.extend(phase.mismatches.iter().cloned());
        report.fail_checks(problems);
    }
}

/// Runs the workload.
pub fn run(args: &Args) -> Report {
    let mut report = Report::new(args);
    // Set-up is timed in the plain run only; the traced run sets up once.
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let stand = set_up(args, reps, &mut report);
    let mut conns = connect(stand.server.addr());
    let mut rng = StdRng::seed_from_u64(split_seed(args.seed, 2));
    let mut source = AuthSource {
        pool: &stand.pool,
        devices: DEVICES,
        conns: conns.len(),
        gates: vec![Gate::default(); DEVICES as usize],
        nonce: 0,
        rng: StdRng::seed_from_u64(split_seed(args.seed, 3)),
        config: ServiceConfig::default(),
        predicted: Predicted::default(),
    };
    if args.trace {
        traced(
            args,
            "auth",
            &mut conns,
            &mut source,
            LOW_RPS,
            &AUTH_SPANS,
            &mut rng,
            &mut report,
        );
    } else {
        auth_plain(args, &mut conns, &mut source, &mut rng, &mut report);
    }
    check_rejects(&stand, source.predicted, &mut report);
    report.metric("peak_rss_mb", sys::peak_rss_mb(), "MB");
    drop(conns);
    stand.tear_down();
    if args.trace {
        churn(args, &mut rng, &mut report);
    }
    report
}

/// The churn mix on a fresh store, traced: 40% enroll of new ids, 10%
/// reenroll, 10% revoke and 40% auth of live devices at [`CHURN_RPS`],
/// every write fdatasync'd. Afterwards the store must reopen to exactly
/// the generator's model.
fn churn(args: &Args, rng: &mut StdRng, report: &mut Report) {
    let stand = stand_up(args, SETUP_REPS);
    let mut conns = connect(stand.server.addr());
    let model_rng = StdRng::seed_from_u64(split_seed(args.seed, 4));
    let mut source = ChurnSource::new(&stand.pool, DEVICES, conns.len(), model_rng);
    traced(
        args,
        "churn",
        &mut conns,
        &mut source,
        CHURN_RPS,
        &CHURN_SPANS,
        rng,
        report,
    );
    drop(conns);
    stand.server.shutdown();
    check_churn(&stand.dir, &stand.pool, &source, stand.figures, report);
    std::fs::remove_dir_all(&stand.dir).ok();
}

/// Records `throughput_per_s`: replies per server CPU second in the
/// p90 window of `phase` ([`Phase::window_rates`]).
fn throughput(phase: &Phase, what: &str, report: &mut Report) {
    let rates = phase.window_rates();
    let whole = phase.received as f64 / (phase.server_cpu_ns as f64 / 1e9);
    match ropuf_num::stats::percentile(&rates, 1.0 - stats::QUIET) {
        Some(rate) => {
            report.metric("throughput_per_s", rate, "1/s");
            report.note(format!(
                "{what}: throughput_per_s {rate:.1} replies per server CPU second = p{} \
                 across {} windows of {} s ({whole:.1} over the whole phase)",
                (1.0 - stats::QUIET) * 100.0,
                rates.len(),
                stats::WINDOW_S
            ));
        }
        None => report.fail_checks(vec![format!("{what}: no window to take a rate over")]),
    }
}

fn note_tail(report: &mut Report, what: &str, samples: &[f64]) {
    match (stats::p50(samples), stats::highest_tail(samples)) {
        (Some(p50), Some((q, v))) => report.note(format!(
            "{what}: p50 {p50:.3} us, p{} {v:.3} us, n = {}",
            q * 100.0,
            samples.len()
        )),
        _ => report.note(format!(
            "{what}: {} samples, too few for percentiles",
            samples.len()
        )),
    }
}

/// The plain `auth_tcp` run, in shares of `--seconds`: the `low` (40%)
/// open-loop phase gives `p50_us` and the `high` (30%) one
/// `throughput_per_s`; then closed-loop capacity with [`IN_FLIGHT`]
/// requests per connection (10%), and a binary search of the fixed rate
/// ladder (20%) for the highest rung that meets the p90 limit without a
/// growing backlog. Capacity and the ladder are printed, not recorded:
/// both move with how the generator and the server share the CPUs.
fn auth_plain(
    args: &Args,
    conns: &mut [Conn],
    source: &mut AuthSource<'_>,
    rng: &mut StdRng,
    report: &mut Report,
) {
    let mut rec = Recorder::new(false);
    let connections = conns.len();
    let mut phase = |load, share: f64, what: &str, report: &mut Report| {
        let phase = run_phase(conns, source, load, share * args.seconds, rng, &mut rec, 0);
        account(&phase, what, report);
        phase
    };
    let low = phase(Load::Open(LOW_RPS), 0.4, "low", report);
    report.windowed_percentiles("auth at low", &low.read_due_s, &low.read_us);
    note_tail(
        report,
        "auth_p99_us: auth at low, whole phase",
        &low.read_us,
    );
    drop(low);
    let high = phase(Load::Open(HIGH_RPS), 0.3, "high", report);
    note_tail(
        report,
        &format!("auth_p99_us_high: auth at {HIGH_RPS} req/s"),
        &high.read_us,
    );
    throughput(&high, "auth at high", report);
    drop(high);
    let closed = phase(Load::Closed(IN_FLIGHT), 0.1, "capacity", report);
    report.note(format!(
        "auth capacity: {:.1} req/s, closed loop with {} connections x {} in flight",
        closed.received as f64 / closed.send_window_s,
        connections,
        IN_FLIGHT
    ));
    // Binary search over the rungs: every rung below `begin` passed,
    // every rung from `end` on failed.
    let rungs = LADDER.len();
    let share = 0.2 / f64::from(usize::BITS - rungs.leading_zeros());
    let (mut begin, mut end) = (0, rungs);
    let mut best = None;
    while begin < end {
        let mid = (begin + end) / 2;
        let rate = LADDER[mid];
        let rung = phase(Load::Open(rate), share, "ladder", report);
        let p90 = stats::percentile(&rung.read_us, 0.9);
        let pass = p90.is_some_and(|p| p <= P90_LIMIT_US) && !rung.backlog_grew();
        report.note(format!(
            "ladder rung {rate} req/s: p90 {p90:?} us, backlog grew {}, {}",
            rung.backlog_grew(),
            if pass {
                "meets the limit"
            } else {
                "misses the limit"
            }
        ));
        if pass {
            best = Some((rate, rung.received as f64 / rung.send_window_s));
            begin = mid + 1;
        } else {
            end = mid;
        }
    }
    report.note(match best {
        Some((rung, achieved)) => {
            format!("auth_max_rps: rung {rung} req/s, achieved {achieved:.1} req/s")
        }
        None => "auth_max_rps: no rung meets the limit".to_string(),
    });
}

/// `service.reject_frac` must equal the generator's prediction.
fn check_rejects(stand: &Stand, predicted: Predicted, report: &mut Report) {
    let stats = stand.server.service().stats();
    let accepted = stats.auth_accepted.load(Ordering::Relaxed);
    let rejected = stats.auth_rejected.load(Ordering::Relaxed);
    if (accepted, rejected) != (predicted.accepts, predicted.rejects) {
        report.fail_checks(vec![format!(
            "server counted {accepted} accepts / {rejected} rejects, model predicted {} / {}",
            predicted.accepts, predicted.rejects
        )]);
    }
    report.metric(
        "service.reject_frac",
        rejected as f64 / (accepted + rejected).max(1) as f64,
        "frac",
    );
}

/// After a churn run the store must reopen to exactly the model's live
/// devices, each at the model's generation with the model's bits.
fn check_churn(
    dir: &Path,
    pool: &[Payload],
    source: &ChurnSource<'_>,
    figures: StoreFigures,
    report: &mut Report,
) {
    let bytes = log_bytes(dir);
    let open = Instant::now();
    let store = match Store::open(dir, SHARDS, FsyncPolicy::Batched) {
        Ok(store) => store,
        Err(e) => {
            report.fail_checks(vec![format!("store does not reopen after the run: {e}")]);
            return;
        }
    };
    let reopen_s = open.elapsed().as_secs_f64();
    let mut problems = Vec::new();
    if store.len() != source.live.len() {
        problems.push(format!(
            "reopened store holds {} devices, model holds {}",
            store.len(),
            source.live.len()
        ));
    }
    for (&id, live) in &source.live {
        let ok = store.with_device(id, |state| {
            state.is_some_and(|s| {
                s.generation == live.generation && s.expected == pool[live.payload].expected
            })
        });
        if !ok {
            problems.push(format!("device {id} does not match the model"));
            if problems.len() > 5 {
                break;
            }
        }
    }
    report.fail_checks(problems);
    report.note(format!(
        "churn: reopen after the run took {reopen_s:.4} s for {} live devices",
        store.len()
    ));
    let records = DEVICES + source.writes;
    store_metrics(figures, bytes, store.len() as f64 / records as f64, report);
}

/// The `store.*` layer figures.
fn store_metrics(figures: StoreFigures, log_bytes: u64, live_frac: f64, report: &mut Report) {
    report.metric("store.fill_us", figures.fill_us, "us");
    report.metric("store.open_s", figures.open_s, "s");
    report.metric(
        "store.open_records_per_s",
        figures.records as f64 / figures.open_s,
        "1/s",
    );
    report.metric("store.live_frac", live_frac, "frac");
    report.metric("store.log_bytes", log_bytes as f64, "B");
}

/// The program's `serve.*` spans whose means the auth part of the traced
/// run reports.
const AUTH_SPANS: [(&str, &str); 2] = [
    ("service.auth_us", "serve.auth"),
    ("service.derive_key_us", "serve.derive_key"),
];

/// The `serve.*` span means the churn part reports; it reports nothing
/// else, so the client and wire layers are the auth mix's.
const CHURN_SPANS: [(&str, &str); 3] = [
    ("service.enroll_us", "serve.enroll"),
    ("service.reenroll_us", "serve.reenroll"),
    ("service.revoke_us", "serve.revoke"),
];

/// One part of the traced run: a plain phase, then the same load traced,
/// both at `rate` for half of `--seconds` each. The ledger comes from
/// the traced phase; the auth part (`what` = "auth") also reports the
/// client, wire and generator layers.
#[allow(clippy::too_many_arguments)]
fn traced(
    args: &Args,
    what: &str,
    conns: &mut [Conn],
    source: &mut dyn Source,
    rate: f64,
    services: &[(&str, &str)],
    rng: &mut StdRng,
    report: &mut Report,
) {
    let half = args.seconds / 2.0;
    let mut off = Recorder::new(false);
    let plain = run_phase(conns, source, Load::Open(rate), half, rng, &mut off, 0);
    account(&plain, &format!("{what} plain"), report);
    note_tail(report, &format!("{what} plain, reads"), &plain.read_us);
    if !plain.write_us.is_empty() {
        note_tail(report, &format!("{what} plain, writes"), &plain.write_us);
    }
    let sink = Arc::new(MemorySink::default());
    telemetry::reset();
    telemetry::install(sink.clone());
    let mut rec = Recorder::new(true);
    let phase = run_phase(conns, source, Load::Open(rate), half, rng, &mut rec, 0);
    telemetry::uninstall();
    account(&phase, &format!("{what} traced"), report);
    let spans = rec.take();
    let totals = ledger::totals(&spans);
    let ops = phase.received.max(1) as f64;
    // Layer rows are self times; the whole is the root's full duration.
    let mean = |name: &str| totals.get(name).map_or(0.0, |t| t.2 as f64 / 1e3 / ops);
    let latency = totals
        .get("request")
        .map_or(0.0, |t| t.1 as f64 / 1e3 / ops);
    let program = sink.spans();
    let service_mean = |name: &str| {
        let durs: Vec<f64> = program
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us as f64)
            .collect();
        stats::mean(&durs)
    };
    let service_total: f64 = program
        .iter()
        .filter(|s| s.name.starts_with("serve."))
        .map(|s| s.dur_us as f64)
        .sum::<f64>()
        / ops;
    let wire = mean("net.wait") - service_total;
    let rows = [
        Row {
            name: "loadgen.late".into(),
            us: mean("loadgen.late"),
        },
        Row {
            name: "proto.encode".into(),
            us: mean("proto.encode"),
        },
        Row {
            name: "net.send".into(),
            us: mean("net.send"),
        },
        Row {
            name: "service (serve.* spans)".into(),
            us: service_total,
        },
        Row {
            name: "net.wire".into(),
            us: wire,
        },
        Row {
            name: "proto.decode".into(),
            us: mean("proto.decode"),
        },
    ];
    let (table, unattributed) = ledger::render(
        &format!(
            "{} {what} mix at {rate} req/s (per request, latency from due time)",
            args.workload
        ),
        latency,
        &rows,
    );
    report.ledger(table);
    report.spans(what, &spans);
    for &(metric, span) in services {
        report.metric(metric, service_mean(span), "us");
    }
    if what != "auth" {
        return;
    }
    let plain_p50 = stats::p50(&plain.read_us).unwrap_or(f64::NAN);
    let traced_p50 = stats::p50(&phase.read_us).unwrap_or(f64::NAN);
    report.metric("proto.encode_us", mean("proto.encode"), "us");
    report.metric("proto.decode_us", mean("proto.decode"), "us");
    report.metric(
        "server.cpu_us_per_op",
        phase.server_cpu_ns as f64 / 1e3 / ops,
        "us",
    );
    report.metric("net.wire_us", wire, "us");
    report.metric(
        "loadgen.late_p99_us",
        stats::percentile(&phase.late_us, 0.99).unwrap_or(f64::NAN),
        "us",
    );
    report.metric(
        "loadgen.outstanding_max",
        phase.outstanding_max as f64,
        "count",
    );
    report.metric(
        "loadgen.cpu_us_per_op",
        phase.loadgen_cpu_ns as f64 / 1e3 / phase.sent.max(1) as f64,
        "us",
    );
    report.metric("ledger.unattributed_frac", unattributed, "frac");
    report.metric(
        "ledger.trace_overhead_frac",
        traced_p50 / plain_p50 - 1.0,
        "frac",
    );
}
