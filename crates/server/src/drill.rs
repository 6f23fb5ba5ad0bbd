//! Deterministic end-to-end drills: grow silicon, enroll through the
//! typestate lifecycle, and drive a server over TCP with a scripted,
//! seed-derived op mix.
//!
//! Both drills run on one harness: [`provision`] enrolls each device,
//! whose seed-derived *script* per phase lists labelled steps (wire
//! requests or local notes); one session loop plays a phase and writes
//! `d={d} <label> -> <reply or note>` per step. The plain drill is one
//! phase, the re-enrollment drill four.
//!
//! Determinism contract: the transcript is a pure function of the
//! drill's spec. Each device's steps run sequentially on a dedicated
//! connection (so its server-side state evolves in program order), and
//! the per-device transcripts are assembled in device order after the
//! parallel fan-out — so the bytes are identical across runs *and*
//! across client/server thread counts.

use std::fmt::Write as _;
use std::io;
use std::net::SocketAddr;

use rand::rngs::StdRng;
use rand::SeedableRng;
use ropuf_core::fleet::{parallel_map_indexed, split_seed};
use ropuf_core::lifecycle::{Device, Enrolled, KeyCode};
use ropuf_core::monitor;
use ropuf_core::persist::enrollment_to_bytes;
use ropuf_core::puf::{ConfigurableRoPuf, EnrollOptions, Enrollment};
use ropuf_core::reenroll::{self, DriftAssessment, ReenrollOutcome};
use ropuf_core::robust::FaultPlan;
use ropuf_num::bits::BitVec;
use ropuf_silicon::aging::AgingModel;
use ropuf_silicon::board::BoardId;
use ropuf_silicon::{Board, Environment, SiliconSim, Technology};
use ropuf_telemetry as telemetry;
use ropuf_telemetry::health::HealthBoard;

use crate::net::Client;
use crate::proto::{Reply, Request, WireBits};

/// Seed stream for the aging draw of the re-enrollment drill. Distinct
/// from every other reserved high stream (`u64::MAX` / `u64::MAX - 1`
/// in `fleet`, `- 2`/`- 3` in `robust`, `- 4` in `lifecycle`, `- 9` in
/// the serve bench, `- 16` down in `puf`) and far above the small
/// per-op indices the drills split off a device seed.
const STREAM_DRILL_AGING: u64 = u64::MAX - 6;
/// Seed stream for the replacement enrollment (and its re-issued key
/// code) in the re-enrollment drill.
const STREAM_DRILL_REENROLL: u64 = u64::MAX - 7;

/// A device enrolled the way the drills, `repro serve` and the server
/// tests enroll one: its grown board, the helper data, and the Key Code
/// issued against it.
pub struct Provisioned {
    /// The grown board.
    pub board: Board,
    /// The board's technology (the default Spartan-class simulator's).
    pub tech: Technology,
    /// The enrollment `generate_key` produced.
    pub enrollment: Enrollment,
    /// The Key Code `generate_key` issued.
    pub code: KeyCode,
    opts: EnrollOptions,
}

impl Provisioned {
    /// The enrolled device, for fresh read-outs of the board.
    pub fn device(&self) -> Device<'_, Enrolled> {
        Device::resume(
            &self.board,
            &self.tech,
            Environment::nominal(),
            self.opts,
            self.enrollment.clone(),
        )
        .expect("generate_key enrolls at least one repetition block")
    }
}

/// Stages per ring of the drills' floorplan.
pub const STAGES: usize = 4;

/// The drills' floorplan: [`STAGES`]-stage interleaved pairs over the
/// board.
fn floorplan(units: usize) -> ConfigurableRoPuf {
    ConfigurableRoPuf::tiled_interleaved(units, STAGES)
}

/// Grows board `id` (`units` on a `cols`-wide grid) from `seed`, starts
/// a device on the drills' floorplan at the nominal corner, and
/// generates its key from the same `seed` under `plan`.
///
/// # Errors
///
/// The [`Device::generate_key`] failure: an even repetition factor, or
/// an enrollment too small for one repetition block.
pub fn provision(
    seed: u64,
    id: u32,
    units: usize,
    cols: usize,
    opts: EnrollOptions,
    repetition: usize,
    plan: &FaultPlan,
) -> Result<Provisioned, ropuf_core::Error> {
    let sim = SiliconSim::default_spartan();
    let board = sim.grow_board_with_id(&mut StdRng::seed_from_u64(seed), BoardId(id), units, cols);
    let (tech, env) = (*sim.technology(), Environment::nominal());
    let (device, code) = Device::start(&board, &tech, env, floorplan(units), opts)
        .generate_key(seed, repetition, plan)?;
    let enrollment = device.enrollment().clone();
    Ok(Provisioned {
        board,
        tech,
        enrollment,
        code,
        opts,
    })
}

/// One step of a device's script.
enum Step {
    /// A request whose reply the transcript describes and the report
    /// tallies.
    Call(Request),
    /// A request left out of the tallies (the plain drill's enroll).
    Untallied(Request),
    /// A line the client writes without touching the server.
    Note(String),
}

/// A device's steps for one phase, each with its transcript label.
type Script = Vec<(String, Step)>;

/// Aggregate outcome of a drill, or of one phase of one.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DrillReport {
    /// One line per step in device order — the determinism artefact.
    pub transcript: String,
    /// Devices enrolled.
    pub devices: u64,
    /// Tallied ops (the plain drill leaves out its enrolls).
    pub ops: u64,
    /// Accepted ops.
    pub accepted: u64,
    /// Rejected ops (the scripted replays land here).
    pub rejected: u64,
}

impl DrillReport {
    fn count(&mut self, reply: &Reply) {
        self.ops += 1;
        match reply {
            Reply::Enrolled { .. }
            | Reply::AuthOk { .. }
            | Reply::Key { .. }
            | Reply::Reenrolled { .. } => self.accepted += 1,
            Reply::Reject { .. } => self.rejected += 1,
            Reply::Revoked | Reply::Error { .. } => {}
        }
    }

    /// Appends a later device's or phase's transcript and tallies.
    fn absorb(&mut self, other: DrillReport) {
        self.transcript.push_str(&other.transcript);
        self.ops += other.ops;
        self.accepted += other.accepted;
        self.rejected += other.rejected;
    }
}

/// The session loop: runs one phase, device `d` playing `script(d)` on
/// its own connection (opened at its first request) with the devices
/// fanned out over `threads`, and folds the outcomes in device order.
///
/// # Errors
///
/// The first transport failure, in device order.
fn run_phase<'a>(
    addr: SocketAddr,
    devices: usize,
    threads: usize,
    script: impl Fn(usize) -> &'a [(String, Step)] + Sync,
) -> io::Result<DrillReport> {
    let sessions = parallel_map_indexed(devices, threads, |d| -> io::Result<DrillReport> {
        let mut client = None;
        let mut tally = DrillReport::default();
        for (label, step) in script(d) {
            let outcome = match step {
                Step::Note(text) => text.clone(),
                Step::Call(request) | Step::Untallied(request) => {
                    let client = match &mut client {
                        Some(client) => client,
                        slot => slot.insert(Client::connect(addr)?),
                    };
                    let reply = client.call(request)?;
                    if matches!(step, Step::Call(_)) {
                        tally.count(&reply);
                    }
                    describe(&reply)
                }
            };
            writeln!(tally.transcript, "d={d} {label} -> {outcome}").expect("write to String");
        }
        Ok(tally)
    });
    let mut phase = DrillReport {
        devices: devices as u64,
        ..DrillReport::default()
    };
    for session in sessions {
        phase.absorb(session?);
    }
    Ok(phase)
}

fn bits_hex(bits: &BitVec) -> String {
    let mut bytes = Vec::new();
    BitVec::pack(bits.iter(), &mut bytes);
    bytes
        .iter()
        .flat_map(|b| [b & 0xf, b >> 4])
        .take(bits.len().div_ceil(4))
        .map(|nibble| char::from_digit(u32::from(nibble), 16).expect("a nibble"))
        .collect()
}

fn describe(reply: &Reply) -> String {
    match reply {
        Reply::Enrolled { bits } => format!("enrolled bits={bits}"),
        Reply::AuthOk { compared, flips } => format!("auth_ok compared={compared} flips={flips}"),
        Reply::Key { key } => format!("key bits={} hex={}", key.len(), bits_hex(key)),
        Reply::Revoked => "revoked".to_string(),
        Reply::Reenrolled { bits, generation } => {
            format!("reenrolled bits={bits} gen={generation}")
        }
        Reply::Reject { reason } => format!("reject {}", reason.as_str()),
        Reply::Error { message } => format!("error {message}"),
    }
}

/// An `auth` request over read-out `bits`, or with `derive` a
/// `derive_key` one.
fn auth(device_id: u64, nonce: u64, bits: Vec<Option<bool>>, derive: bool) -> Step {
    let response = WireBits::new(bits);
    Step::Call(if derive {
        Request::DeriveKey {
            device_id,
            nonce,
            response,
        }
    } else {
        Request::Auth {
            device_id,
            nonce,
            response,
        }
    })
}

/// What a drill does. Everything that could perturb the transcript is
/// in here — the transcript is a pure function of this struct.
#[derive(Debug, Clone, Copy)]
pub struct DrillSpec {
    /// Master seed; device `d` derives `split_seed(seed, d)`.
    pub seed: u64,
    /// Devices to enroll and exercise.
    pub devices: u64,
    /// Scripted ops per device after enrollment.
    pub ops_per_device: u64,
    /// Configurable units per board.
    pub units: usize,
    /// Spatial columns per board.
    pub cols: usize,
    /// Majority votes per read-out (odd).
    pub votes: usize,
    /// Repetition factor of the Key Code sketch (odd).
    pub repetition: usize,
    /// Fault-campaign intensity (0.0 = clean silicon).
    pub fault_scale: f64,
    /// Client-side fan-out threads.
    pub client_threads: usize,
}

impl Default for DrillSpec {
    fn default() -> Self {
        Self {
            seed: 0xD21,
            devices: 16,
            ops_per_device: 10,
            units: 80,
            cols: 12,
            votes: 1,
            repetition: 3,
            fault_scale: 0.0,
            client_threads: 4,
        }
    }
}

/// Device `d`'s plain-drill script: its enroll, then the scripted op
/// mix over fresh read-outs.
fn drill_script(spec: &DrillSpec, d: u64) -> io::Result<Script> {
    let device_seed = split_seed(spec.seed, d);
    let plan = FaultPlan::scaled(spec.fault_scale);
    let provisioned = provision(
        device_seed,
        d as u32,
        spec.units,
        spec.cols,
        EnrollOptions::default(),
        spec.repetition,
        &plan,
    )
    .map_err(|e| io::Error::other(format!("device {d} failed to enroll: {e}")))?;
    let device = provisioned.device();
    let enroll = Request::Enroll {
        device_id: d,
        enrollment: enrollment_to_bytes(&provisioned.enrollment),
        key_code: provisioned.code.to_bytes(),
    };
    let mut script = vec![("op=enroll".to_string(), Step::Untallied(enroll))];
    for k in 0..spec.ops_per_device {
        let (bits, _summary) = device.respond(split_seed(device_seed, k + 1), spec.votes, &plan);
        // Op mix: every 5th op starting at k=3 replays the previous
        // nonce, the one op k-1 just used (must be rejected); every 5th
        // starting at k=4 derives the key; the rest are plain auths.
        // Nonces are 1-based.
        let (name, nonce) = match k % 5 {
            3 => ("replay", k),
            4 => ("derive_key", k + 1),
            _ => ("auth", k + 1),
        };
        let step = auth(d, nonce, bits, name == "derive_key");
        script.push((format!("k={k} op={name}"), step));
    }
    Ok(script)
}

/// Runs the drill against a live server and assembles the
/// deterministic transcript.
///
/// # Errors
///
/// The first per-device transport or enrollment failure.
pub fn run_drill(addr: SocketAddr, spec: &DrillSpec) -> io::Result<DrillReport> {
    let _span = telemetry::span("serve.drill");
    let n = spec.devices as usize;
    let scripts = parallel_map_indexed(n, spec.client_threads, |d| drill_script(spec, d as u64))
        .into_iter()
        .collect::<io::Result<Vec<_>>>()?;
    let report = run_phase(addr, n, spec.client_threads, |d| &scripts[d])?;
    debug_assert!(
        report
            .transcript
            .lines()
            .filter(|line| line.contains(" op=replay -> "))
            .all(|line| line.ends_with(" -> reject replay")),
        "a scripted replay was not rejected:\n{}",
        report.transcript
    );
    Ok(report)
}

/// The phase a re-enrollment drill stops after — the kill-and-restart
/// hook: run with `stop_after = Some(Reenroll)`, restart the server on
/// the same store, and a `resume` run's verify phase must find the
/// superseded generations the replay resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReenrollStage {
    /// After provisioning and the fresh-silicon auth.
    Enroll,
    /// After the drift assessment (and its fleet gauge line).
    Assess,
    /// After the supersede ops — the store holds mixed generations.
    Reenroll,
}

impl ReenrollStage {
    /// Parses the CLI spelling (`enroll` / `assess` / `reenroll`).
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "enroll" => Some(Self::Enroll),
            "assess" => Some(Self::Assess),
            "reenroll" => Some(Self::Reenroll),
            _ => None,
        }
    }
}

/// What a re-enrollment drill does. As with [`DrillSpec`], the
/// transcript is a pure function of this struct: every local quantity
/// (boards, aging, assessments, responses) derives from `seed`, and
/// the server replies are determined by the op sequence.
#[derive(Debug, Clone, Copy)]
pub struct ReenrollDrillSpec {
    /// Master seed; device `d` derives `split_seed(seed, d)`.
    pub seed: u64,
    /// Devices to enroll, age, and (where drifted) re-enroll.
    pub devices: u64,
    /// Configurable units per board.
    pub units: usize,
    /// Spatial columns per board.
    pub cols: usize,
    /// Majority votes per read-out (odd).
    pub votes: usize,
    /// Repetition factor of the Key Code sketch (odd).
    pub repetition: usize,
    /// Years of BTI aging applied between enrollment and assessment.
    pub years: f64,
    /// Client-side fan-out threads.
    pub client_threads: usize,
    /// Stop after this phase (leaving the store for a later resume).
    pub stop_after: Option<ReenrollStage>,
    /// Skip the already-committed phases and run only the verify phase
    /// against an existing store; local state is recomputed from the
    /// seed. Concatenating a `stop_after = Reenroll` transcript with a
    /// resumed one reproduces the full-run transcript byte for byte.
    pub resume: bool,
}

impl Default for ReenrollDrillSpec {
    fn default() -> Self {
        Self {
            seed: 4,
            devices: 24,
            units: 240,
            cols: 12,
            votes: 1,
            repetition: 3,
            years: 10.0,
            client_threads: 4,
            stop_after: None,
            resume: false,
        }
    }
}

/// Aggregate outcome of a re-enrollment drill.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReenrollDrillReport {
    /// Phase-ordered, device-ordered op lines plus the fleet gauge
    /// lines — the determinism artefact.
    pub transcript: String,
    /// Devices provisioned.
    pub devices: u64,
    /// Devices whose drift assessment triggered ([`DriftAssessment::drifted`]).
    pub drifted: u64,
    /// Devices whose replacement enrollment was accepted and superseded.
    pub reenrolled: u64,
    /// Wire ops issued (enrolls, auths, supersedes, derives).
    pub ops: u64,
    /// Accepted wire ops.
    pub accepted: u64,
    /// Rejected wire ops.
    pub rejected: u64,
}

/// Everything device `d` contributes to the drill, computed once up
/// front as a pure function of the spec (which is what lets a resumed
/// run rebuild its local state without the earlier phases' wire ops).
struct ReenrollBundle {
    /// The device's script for each phase: enroll, assess, reenroll,
    /// verify.
    scripts: [Script; 4],
    /// The old enrollment re-assessed on the aged silicon.
    pre: DriftAssessment,
    /// The in-force enrollment (replacement or old) re-assessed on the
    /// aged silicon — the heal evidence.
    post: DriftAssessment,
    /// Whether `pre` triggered re-enrollment.
    drifted: bool,
    /// Whether a replacement enrollment was accepted for supersede.
    reenrolled: bool,
}

/// Computes device `d`'s bundle: provision, age, assess, decide, and
/// pre-derive every wire response.
fn reenroll_bundle(spec: &ReenrollDrillSpec, d: u64) -> io::Result<ReenrollBundle> {
    let device_seed = split_seed(spec.seed, d);
    let plan = FaultPlan::scaled(0.0);
    let env = Environment::nominal();
    // The threshold keeps near-tie pairs out of the enrollment, so a
    // noiseless re-assessment on *unaged* silicon never flips — only
    // actual aging can trigger the loop.
    let opts = EnrollOptions {
        threshold_ps: 5.0,
        ..EnrollOptions::default()
    };
    let provisioned = provision(
        device_seed,
        d as u32,
        spec.units,
        spec.cols,
        opts,
        spec.repetition,
        &plan,
    )
    .map_err(|e| io::Error::other(format!("device {d} failed to enroll: {e}")))?;
    let tech = provisioned.tech;
    let old = &provisioned.enrollment;

    let model = AgingModel {
        sigma_drift_rel: 0.02,
        sigma_path_rel: 0.01,
        ..AgingModel::default()
    };
    let mut aging_rng = StdRng::seed_from_u64(split_seed(device_seed, STREAM_DRILL_AGING));
    let aged = model.age_board(&mut aging_rng, &provisioned.board, spec.years);

    // Read-out k draws from stream k of the device seed and travels
    // with nonce k.
    let read = |device: &Device<'_, Enrolled>, k: u64, derive: bool| {
        let bits = device
            .respond(split_seed(device_seed, k), spec.votes, &plan)
            .0;
        auth(d, k, bits, derive)
    };
    let corners = reenroll::assessment_corners(env);
    let pre = reenroll::assess_drift(old, &aged, &tech, &corners);
    let drifted = pre.drifted();
    let aged_device = Device::resume(&aged, &tech, env, opts, old.clone())
        .map_err(|e| io::Error::other(format!("device {d} failed to resume: {e}")))?;
    let auth_aged = read(&aged_device, 2, false);

    let (final_device, outcome) = aged_device.reenroll(
        &floorplan(provisioned.board.len()),
        split_seed(device_seed, STREAM_DRILL_REENROLL),
        &plan,
    );
    let post = reenroll::assess_drift(final_device.enrollment(), &aged, &tech, &corners);
    let reenroll_step = match outcome {
        ReenrollOutcome::Accepted {
            old_margin_ps,
            new_margin_ps,
            ..
        } => {
            // Old key codes are bound to the old response; re-issue
            // against the replacement before committing it.
            let code = final_device
                .issue_key(
                    split_seed(device_seed, STREAM_DRILL_REENROLL),
                    spec.repetition,
                )
                .map_err(|e| io::Error::other(format!("device {d} failed to re-key: {e}")))?;
            let supersede = Request::Reenroll {
                device_id: d,
                enrollment: enrollment_to_bytes(final_device.enrollment()),
                key_code: code.to_bytes(),
            };
            let label = format!("op=reenroll (margin {old_margin_ps:.2} -> {new_margin_ps:.2} ps)");
            (label, Step::Call(supersede))
        }
        ReenrollOutcome::Rejected(reason) => {
            let kept = Step::Note(format!("kept ({reason})"));
            ("op=reenroll".into(), kept)
        }
    };
    let fresh_device = provisioned.device();
    let assessment = format!(
        "drifted={drifted} flips={}/{} margin={:.2} ps worst={:.2} ps",
        pre.enrollment_point_flips, pre.bits, pre.min_margin_ps, pre.worst_corner_margin_ps
    );
    let reenrolled = matches!(reenroll_step.1, Step::Call(_));
    let enroll = Request::Enroll {
        device_id: d,
        enrollment: enrollment_to_bytes(old),
        key_code: provisioned.code.to_bytes(),
    };
    let scripts = [
        // Enroll: provision the device and prove the fresh silicon
        // authenticates.
        vec![
            ("op=enroll".into(), Step::Call(enroll)),
            ("op=auth_fresh".into(), read(&fresh_device, 1, false)),
        ],
        // Assess: the old enrollment on the aged silicon, locally and
        // on the wire.
        vec![
            ("op=assess".into(), Step::Note(assessment)),
            ("op=auth_aged".into(), auth_aged),
        ],
        // Reenroll: supersede an accepted replacement; a kept
        // enrollment is a local line only.
        vec![reenroll_step],
        // Verify: auth and key derivation against whatever generation
        // the store resolved.
        vec![
            ("op=auth_post".into(), read(&final_device, 3, false)),
            ("op=derive_key".into(), read(&final_device, 4, true)),
        ],
    ];
    Ok(ReenrollBundle {
        scripts,
        pre,
        post,
        drifted,
        reenrolled,
    })
}

/// Renders the fleet drift gauge line for one phase: the aggregate
/// enrollment-point flip rate classified through the fleet
/// observatory's own `aged_flip_rate_nominal` gauge, plus whether
/// [`reenroll::drift_flagged`] would nominate the fleet for
/// re-enrollment.
fn drift_gauge_line<'a>(
    phase: &str,
    assessments: impl Iterator<Item = &'a DriftAssessment>,
) -> String {
    const GAUGE: &str = "aged_flip_rate_nominal";
    let (flips, bits) = assessments.fold((0, 0), |(flips, bits), a| {
        (flips + a.enrollment_point_flips, bits + a.bits)
    });
    let value = flips as f64 / bits.max(1) as f64;
    let spec = monitor::default_gauges()
        .into_iter()
        .find(|g| g.name == GAUGE)
        .expect("the fleet observatory publishes aged_flip_rate_nominal");
    let mut health = HealthBoard::new(vec![spec]);
    health.observe(GAUGE, value);
    let report = health.report();
    format!(
        "phase={phase} gauge={GAUGE} value={value:.4} status={} drift_flagged={}\n",
        report.gauges[0].status,
        reenroll::drift_flagged(&report)
    )
}

/// Runs the aged-fleet re-enrollment drill against a live server:
/// enroll fresh silicon, age it, assess drift (fleet gauge goes
/// unhealthy), supersede the drifted devices' enrollments over the
/// wire, and verify the healed fleet authenticates and derives keys
/// against whatever generation the store now holds.
///
/// # Errors
///
/// The first per-device transport, enrollment, or re-key failure.
pub fn run_reenroll_drill(
    addr: SocketAddr,
    spec: &ReenrollDrillSpec,
) -> io::Result<ReenrollDrillReport> {
    let _span = telemetry::span("serve.reenroll_drill");
    let n = spec.devices as usize;
    let bundles = parallel_map_indexed(n, spec.client_threads, |d| reenroll_bundle(spec, d as u64))
        .into_iter()
        .collect::<io::Result<Vec<_>>>()?;
    // The four phases in order: the stop point each completes (verify
    // has none, and is the only phase a resumed run replays) and the
    // fleet gauge line closing it, with the assessment it sums.
    type Gauge = Option<(&'static str, fn(&ReenrollBundle) -> &DriftAssessment)>;
    let phases: [(Option<ReenrollStage>, Gauge); 4] = [
        (Some(ReenrollStage::Enroll), None),
        (Some(ReenrollStage::Assess), Some(("assess", |b| &b.pre))),
        (Some(ReenrollStage::Reenroll), None),
        (None, Some(("verify", |b| &b.post))),
    ];
    let mut tally = DrillReport::default();
    for (i, (stage, gauge)) in phases.into_iter().enumerate() {
        if spec.resume && stage.is_some() {
            continue;
        }
        tally.absorb(run_phase(addr, n, spec.client_threads, |d| {
            &bundles[d].scripts[i]
        })?);
        if let Some((name, assessment)) = gauge {
            tally.transcript += &drift_gauge_line(name, bundles.iter().map(assessment));
        }
        if stage == spec.stop_after {
            break;
        }
    }
    Ok(ReenrollDrillReport {
        transcript: tally.transcript,
        devices: spec.devices,
        drifted: bundles.iter().filter(|b| b.drifted).count() as u64,
        reenrolled: bundles.iter().filter(|b| b.reenrolled).count() as u64,
        ops: tally.ops,
        accepted: tally.accepted,
        rejected: tally.rejected,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::serve;
    use crate::service::{PufService, ServiceConfig};
    use crate::store::{FsyncPolicy, Store};
    use crate::testutil::temp_dir;
    use std::sync::Arc;

    fn spawn(name: &str, workers: usize) -> (crate::net::ServerHandle, std::path::PathBuf) {
        let dir = temp_dir(name);
        let store = Store::open(&dir, 4, FsyncPolicy::Batched).unwrap();
        let service = Arc::new(PufService::new(store, ServiceConfig::default()));
        let handle = serve(service, "127.0.0.1:0".parse().unwrap(), workers).unwrap();
        (handle, dir)
    }

    #[test]
    fn drill_is_deterministic_and_scripted_replays_reject() {
        let spec = DrillSpec {
            devices: 6,
            ops_per_device: 10,
            ..DrillSpec::default()
        };
        let (server_a, dir_a) = spawn("drill-a", 2);
        let report_a = run_drill(server_a.addr(), &spec).unwrap();
        server_a.shutdown();
        std::fs::remove_dir_all(&dir_a).unwrap();

        let (server_b, dir_b) = spawn("drill-b", 2);
        let report_b = run_drill(server_b.addr(), &spec).unwrap();
        server_b.shutdown();
        std::fs::remove_dir_all(&dir_b).unwrap();

        assert_eq!(report_a, report_b, "same spec, byte-identical transcript");
        // 10 ops per device: k=3,8 are replays — 2 rejects, 8 accepts.
        assert_eq!(report_a.rejected, 2 * spec.devices);
        assert_eq!(report_a.accepted, 8 * spec.devices);
        assert!(report_a.transcript.contains("op=replay -> reject replay"));
        assert!(report_a.transcript.contains("op=derive_key -> key bits="));
    }

    #[test]
    fn reenroll_drill_heals_the_gauge_and_survives_a_restart() {
        let spec = ReenrollDrillSpec {
            devices: 6,
            client_threads: 2,
            ..ReenrollDrillSpec::default()
        };

        // Full run: drift flags the fleet, supersedes heal it.
        let (server, dir) = spawn("reenroll-full", 2);
        let full = run_reenroll_drill(server.addr(), &spec).unwrap();
        server.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(full.drifted >= 1, "ten years must drift a device: {full:?}");
        assert_eq!(
            full.reenrolled, full.drifted,
            "every drifted device finds a strictly better enrollment"
        );
        assert!(full
            .transcript
            .contains("phase=assess gauge=aged_flip_rate_nominal"));
        let assess_line = full
            .transcript
            .lines()
            .find(|l| l.starts_with("phase=assess gauge="))
            .unwrap();
        assert!(assess_line.contains("drift_flagged=true"), "{assess_line}");
        let verify_line = full
            .transcript
            .lines()
            .find(|l| l.starts_with("phase=verify gauge="))
            .unwrap();
        assert!(
            verify_line.contains("status=ok drift_flagged=false"),
            "{verify_line}"
        );
        assert!(full.transcript.contains("-> reenrolled bits="));

        // Determinism across server worker and client thread counts.
        let (server_b, dir_b) = spawn("reenroll-threads", 4);
        let wide = run_reenroll_drill(
            server_b.addr(),
            &ReenrollDrillSpec {
                client_threads: 1,
                ..spec
            },
        )
        .unwrap();
        server_b.shutdown();
        std::fs::remove_dir_all(&dir_b).unwrap();
        assert_eq!(full.transcript, wide.transcript, "thread-count independent");

        // Kill-and-restart: stop after the supersedes, reopen the store
        // in a fresh service, and resume. The concatenated transcripts
        // must equal the full run's.
        let dir = temp_dir("reenroll-restart");
        let store = Store::open(&dir, 4, FsyncPolicy::Batched).unwrap();
        let service = Arc::new(PufService::new(store, ServiceConfig::default()));
        let server = serve(service.clone(), "127.0.0.1:0".parse().unwrap(), 2).unwrap();
        let stopped = run_reenroll_drill(
            server.addr(),
            &ReenrollDrillSpec {
                stop_after: Some(ReenrollStage::Reenroll),
                ..spec
            },
        )
        .unwrap();
        server.shutdown();
        service.store().sync_all().unwrap();
        drop(service);

        let store = Store::open(&dir, 4, FsyncPolicy::Batched).unwrap();
        let service = Arc::new(PufService::new(store, ServiceConfig::default()));
        let server = serve(service, "127.0.0.1:0".parse().unwrap(), 2).unwrap();
        let resumed = run_reenroll_drill(
            server.addr(),
            &ReenrollDrillSpec {
                resume: true,
                ..spec
            },
        )
        .unwrap();
        server.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(
            format!("{}{}", stopped.transcript, resumed.transcript),
            full.transcript,
            "stop-after + resume reproduces the full run"
        );
        assert_eq!(resumed.rejected, 0, "healed fleet authenticates cleanly");
    }

    #[test]
    fn reenroll_drill_keeps_every_device_of_an_unaged_fleet() {
        // Re-enrollment must never fire on healthy silicon: with no
        // aging every device is kept, the gauge stays ok and nothing is
        // superseded.
        let spec = ReenrollDrillSpec {
            devices: 6,
            client_threads: 2,
            years: 0.0,
            ..ReenrollDrillSpec::default()
        };
        let (server, dir) = spawn("reenroll-unaged", 2);
        let report = run_reenroll_drill(server.addr(), &spec).unwrap();
        server.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!((report.drifted, report.reenrolled), (0, 0), "{report:?}");
        assert_eq!(report.rejected, 0, "{}", report.transcript);
        let kept = report
            .transcript
            .lines()
            .filter(|l| l.contains("op=reenroll -> kept (not drifted (min margin "))
            .filter(|l| l.ends_with(" 0 enrollment-point flips))"))
            .count();
        assert_eq!(kept, spec.devices as usize, "{}", report.transcript);
        assert!(!report.transcript.contains("-> reenrolled"));
        for phase in ["assess", "verify"] {
            let line = report
                .transcript
                .lines()
                .find(|l| l.starts_with(&format!("phase={phase} gauge=")))
                .unwrap();
            assert!(
                line.ends_with("value=0.0000 status=ok drift_flagged=false"),
                "{line}"
            );
        }
    }
}
