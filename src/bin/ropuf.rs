//! `ropuf` — command-line front end for the workspace.
//!
//! Operates on plain files so the pieces compose with shell pipelines:
//!
//! ```sh
//! # Grow a synthetic fleet and extract one PUF bit-string per board.
//! ropuf generate-vt --boards 40 --seed 7 --out fleet.csv
//! ropuf extract --dataset fleet.csv --stages 5 --mode case1 --out bits.txt
//!
//! # Run the NIST battery on the bit-strings (one stream per line).
//! ropuf nist --bits bits.txt
//!
//! # Enroll a whole fleet in parallel. Deterministic in --seed: the
//! # output is identical at any thread count (RAYON_NUM_THREADS=1 to
//! # check against the serial reference).
//! ropuf fleet --boards 64 --seed 7
//!
//! # Simulate a device: enroll it, store the helper data, read it back
//! # at a voltage/temperature corner. The board is regenerated from the
//! # seed, so enroll and respond must agree on --seed/--units.
//! ropuf enroll --seed 42 --units 480 --stages 7 --out device42.enrollment
//! ropuf respond --enrollment device42.enrollment --seed 42 --units 480 \
//!     --voltage 0.98 --temperature 25
//! ```

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use ropuf::attack::suite::{SuiteConfig as AttackSuiteConfig, SuiteReport as AttackSuiteReport};
use ropuf::attack::transcript::Transcript as AttackTranscript;
use ropuf::core::distill::DistillError;
use ropuf::core::fleet::{worker_threads, FleetAging, FleetConfig, FleetEngine};
use ropuf::core::monitor::{FleetObservatory, SweepPlan};
use ropuf::core::persist::{enrollment_from_text, enrollment_to_text};
use ropuf::core::puf::{ConfigurableRoPuf, EnrollOptions, SelectionMode};
use ropuf::core::robust::FaultPlan;
use ropuf::core::select::case2;
use ropuf::core::ParityPolicy;
use ropuf::dataset::extract::{board_bits, VirtualLayout};
use ropuf::dataset::inhouse::{InHouseConfig, InHouseDataset};
use ropuf::dataset::vt::{VtConfig, VtDataset};
use ropuf::dataset::ParseCsvError;
use ropuf::nist::suite::{run_suite, SuiteConfig};
use ropuf::num::bits::{BitVec, ParseBitsError};
use ropuf::server::{
    serve_with_admin, AccessLog, DrillSpec, FsyncPolicy, PufService, ReenrollDrillSpec,
    ReenrollStage, ServerHandle, ServiceConfig, ServiceOptions, Store,
};
use ropuf::silicon::aging::AgingModel;
use ropuf::silicon::{DelayProbe, Environment, SiliconSim};
use ropuf::telemetry;
use ropuf::telemetry::health::{Baseline, Status};

/// Everything that can go wrong in the CLI, typed per domain so exit
/// paths stay greppable (no `Box<dyn Error>` laundering).
#[derive(Debug)]
enum CliError {
    /// Bad or missing command-line input.
    Usage(String),
    /// A file could not be read or written.
    Io {
        path: String,
        source: std::io::Error,
    },
    /// A core pipeline error (enrollment, fleet, persistence parse).
    Core(ropuf::core::Error),
    /// A dataset CSV did not parse.
    Csv(ParseCsvError),
    /// A bit-stream file did not parse.
    Bits(ParseBitsError),
    /// The distiller could not fit the systematic model.
    Distill(DistillError),
    /// `monitor --fail-on` tripped: the fleet health verdict reached
    /// the configured severity.
    Unhealthy(Status),
    /// `attack --assert-guard` tripped: the guarded kernel leaked, or
    /// the deliberately broken canary stopped being broken.
    Insecure(String),
    /// The enrollment store could not be opened or mutated.
    Store(ropuf::server::StoreError),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Usage(msg) => write!(f, "{msg}"),
            Self::Io { path, source } => write!(f, "{path}: {source}"),
            Self::Core(e) => write!(f, "{e}"),
            Self::Csv(e) => write!(f, "{e}"),
            Self::Bits(e) => write!(f, "{e}"),
            Self::Distill(e) => write!(f, "{e}"),
            Self::Unhealthy(status) => write!(f, "fleet health is {status}"),
            Self::Insecure(msg) => write!(f, "{msg}"),
            Self::Store(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io { source, .. } => Some(source),
            Self::Core(e) => Some(e),
            Self::Csv(e) => Some(e),
            Self::Bits(e) => Some(e),
            Self::Distill(e) => Some(e),
            Self::Store(e) => Some(e),
            Self::Usage(_) | Self::Unhealthy(_) | Self::Insecure(_) => None,
        }
    }
}

impl From<ropuf::server::StoreError> for CliError {
    fn from(e: ropuf::server::StoreError) -> Self {
        Self::Store(e)
    }
}

impl From<ropuf::core::Error> for CliError {
    fn from(e: ropuf::core::Error) -> Self {
        Self::Core(e)
    }
}

impl From<ropuf::core::persist::ParseEnrollmentError> for CliError {
    fn from(e: ropuf::core::persist::ParseEnrollmentError) -> Self {
        Self::Core(e.into())
    }
}

impl From<ParseCsvError> for CliError {
    fn from(e: ParseCsvError) -> Self {
        Self::Csv(e)
    }
}

impl From<ParseBitsError> for CliError {
    fn from(e: ParseBitsError) -> Self {
        Self::Bits(e)
    }
}

impl From<DistillError> for CliError {
    fn from(e: DistillError) -> Self {
        Self::Distill(e)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, mut options)) = parse(&args) else {
        return usage("expected: ropuf <command> [--flag value]...");
    };
    let result = lookup(&command, &options).and_then(|command| {
        init_tracing(&mut options)?;
        let result = {
            let _cmd_span = telemetry::span(command.span);
            (command.run)(&options)
        };
        telemetry::flush();
        result
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One subcommand: its name, its top-level span (span names are
/// interned `&'static str`s), its handler, and every flag it reads,
/// space-separated.
struct Command {
    name: &'static str,
    span: &'static str,
    run: fn(&HashMap<String, String>) -> Result<(), CliError>,
    flags: &'static str,
}

const COMMANDS: &[Command] = &[
    Command {
        name: "generate-vt",
        span: "cli.generate-vt",
        run: generate_vt,
        flags: "out boards swept ros seed",
    },
    Command {
        name: "generate-inhouse",
        span: "cli.generate-inhouse",
        run: generate_inhouse,
        flags: "out boards seed",
    },
    Command {
        name: "extract",
        span: "cli.extract",
        run: extract,
        flags: "dataset out stages mode raw",
    },
    Command {
        name: "nist",
        span: "cli.nist",
        run: nist,
        flags: "bits",
    },
    Command {
        name: "rth",
        span: "cli.rth",
        run: rth,
        flags: "dataset usable max-rth",
    },
    Command {
        name: "fleet",
        span: "cli.fleet",
        run: fleet,
        flags: "boards seed units stages cols threads votes threshold faults",
    },
    Command {
        name: "monitor",
        span: "cli.monitor",
        run: monitor,
        flags: "boards seed units stages cols threads years threshold sweep fail-on format faults security enroll-baseline baseline",
    },
    Command {
        name: "attack",
        span: "cli.attack",
        run: attack,
        flags: "seed boards units cols stages probed-pairs crp-boards crps threads format dump-transcript assert-guard",
    },
    Command {
        name: "enroll",
        span: "cli.enroll",
        run: enroll,
        flags: "out seed units stages threshold mode",
    },
    Command {
        name: "respond",
        span: "cli.respond",
        run: respond,
        flags: "enrollment seed units voltage temperature votes",
    },
    Command {
        name: "serve",
        span: "cli.serve",
        run: serve,
        flags: "store addr workers shards drill health linger admin sample access-log fsync seed devices ops units cols votes repetition faults threads",
    },
    Command {
        name: "reenroll",
        span: "cli.reenroll",
        run: reenroll,
        flags: "store workers shards fsync stop-after seed devices units cols votes repetition years threads resume",
    },
];

/// Finds `command` and checks that it reads every flag given, so a
/// misspelt flag fails before any work instead of silently running with
/// a default. `--trace-out` is accepted by every command.
fn lookup(command: &str, options: &HashMap<String, String>) -> Result<&'static Command, CliError> {
    let found = COMMANDS.iter().find(|c| c.name == command).ok_or_else(|| {
        CliError::Usage(format!(
            "unknown command {command:?} (run with no arguments for usage)"
        ))
    })?;
    let unknown = options
        .keys()
        .filter(|flag| *flag != "trace-out" && !found.flags.split(' ').any(|f| f == *flag))
        .min();
    match unknown {
        Some(flag) => Err(CliError::Usage(format!(
            "{command} has no --{flag} flag (run with no arguments for usage)"
        ))),
        None => Ok(found),
    }
}

/// Installs the telemetry sink from `--trace-out` (consumed here so
/// subcommands never see it) or, failing that, the `ROPUF_TRACE`
/// environment variable. Trace data goes to the named file (or stderr
/// for the `summary` target) — never stdout, which carries only
/// seed-determined results.
fn init_tracing(options: &mut HashMap<String, String>) -> Result<(), CliError> {
    match options.remove("trace-out") {
        Some(target) => telemetry::init_target(&target).map_err(|source| CliError::Io {
            path: target,
            source,
        }),
        None => telemetry::init_from_env()
            .map(|_| ())
            .map_err(|source| CliError::Io {
                path: format!("${}", telemetry::TRACE_ENV),
                source,
            }),
    }
}

/// Splits `<command> (--key value)*`; returns `None` on malformed input.
fn parse(args: &[String]) -> Option<(String, HashMap<String, String>)> {
    let mut iter = args.iter();
    let command = iter.next()?.clone();
    if command.starts_with('-') {
        return None;
    }
    let mut options = HashMap::new();
    while let Some(key) = iter.next() {
        let key = key.strip_prefix("--")?;
        let value = iter.next()?;
        options.insert(key.to_string(), value.clone());
    }
    Some((command, options))
}

/// Usage text listing every command and its flags; `lookup` accepts
/// exactly these (a test checks that the two agree).
const USAGE: &str = "\
         commands:\n\
           generate-vt       --out FILE [--boards N=40] [--swept N=5] [--ros N=512] [--seed N=1]\n\
           generate-inhouse  --out FILE [--boards N=9] [--seed N=1]\n\
           extract           --dataset FILE --out FILE [--stages N=5] [--mode case1|case2] [--raw true]\n\
           nist              --bits FILE (one 0/1 stream per line)\n\
           rth               --dataset FILE (in-house CSV) [--usable N=13] [--max-rth PS=5]\n\
           fleet             [--boards N=64] [--seed N=1] [--units N=480] [--stages N=7]\n\
                             [--cols N=16] [--threads N=auto] [--votes N=1] [--threshold PS=0]\n\
                             [--faults SCALE=off] (chaos drill: inject measurement faults)\n\
           monitor           [--boards N=16] [--seed N=1] [--units N=120] [--stages N=5]\n\
                             [--cols N=8] [--threads N=auto] [--sweep nominal|voltage|temperature|full]\n\
                             [--years Y=5] [--threshold PS=0] [--format human|json|prometheus]\n\
                             [--baseline FILE] [--enroll-baseline FILE] [--fail-on warn|critical|never]\n\
                             [--faults SCALE=off] [--security true] (adds attacker_advantage_* gauges)\n\
           attack            [--seed N=191007068] [--boards N=16] [--units N=224] [--cols N=16]\n\
                             [--stages N=7] [--probed-pairs N=8] [--crp-boards N=3] [--crps N=400]\n\
                             [--threads N=auto] [--format human|json]\n\
                             [--dump-transcript FILE] (write the CRP transcript for diffing)\n\
                             [--assert-guard true] (exit nonzero unless guarded<=chance, broken>=0.7)\n\
           enroll            --out FILE [--seed N=1] [--units N=480] [--stages N=7]\n\
                             [--mode case1|case2] [--threshold PS=0]\n\
           respond           --enrollment FILE [--seed N=1] [--units N=480]\n\
                             [--voltage V=1.20] [--temperature C=25] [--votes N=1]\n\
           serve             --store DIR [--addr HOST:PORT=127.0.0.1:0] [--workers N=auto]\n\
                             [--shards N=8] [--fsync every|batched] [--drill true]\n\
                             [--devices N=16] [--ops N=10] [--seed N=3361] [--units N=80]\n\
                             [--cols N=12] [--votes N=1] [--repetition N=3]\n\
                             [--threads N=auto] [--faults SCALE=0] [--health true]\n\
                             [--admin HOST:PORT] [--access-log FILE] [--sample N=1]\n\
                             [--linger true] (keep serving after a drill)\n\
           reenroll          --store DIR [--devices N=24] [--seed N=4] [--years Y=10]\n\
                             [--units N=240] [--cols N=12] [--votes N=1] [--repetition N=3]\n\
                             [--threads N=auto] [--workers N=auto] [--shards N=8]\n\
                             [--fsync every|batched] [--stop-after enroll|assess|reenroll]\n\
                             [--resume true] (verify against an existing store)\n\
         every command also accepts --trace-out FILE|summary (or set\n\
         ROPUF_TRACE) to write structured telemetry; see docs/OBSERVABILITY.md";

fn usage(problem: &str) -> ExitCode {
    eprintln!("error: {problem}\n\n{USAGE}");
    ExitCode::FAILURE
}

/// Parses `--faults SCALE` into a fault-injection plan: the default
/// chaos model with every rate multiplied by SCALE. `0` configures the
/// fault layer but injects nothing — output stays byte-identical to a
/// run without the flag. Absent flag means no fault layer at all.
fn fault_plan(opts: &HashMap<String, String>) -> Result<Option<FaultPlan>, CliError> {
    let Some(raw) = opts.get("faults") else {
        return Ok(None);
    };
    let scale: f64 = raw
        .parse()
        .map_err(|_| CliError::Usage(format!("--faults value {raw:?} is malformed")))?;
    if !(scale.is_finite() && scale >= 0.0) {
        return Err(CliError::Usage(format!(
            "--faults must be a finite non-negative scale, got {raw}"
        )));
    }
    let plan = FaultPlan::scaled(scale);
    plan.validate()
        .map_err(|e| CliError::Usage(format!("--faults {raw}: {e}")))?;
    Ok(Some(plan))
}

fn get<T: std::str::FromStr>(
    opts: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, CliError> {
    match opts.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse::<T>()
            .map_err(|_| CliError::Usage(format!("--{key} value {v:?} is malformed"))),
    }
}

fn required<'a>(opts: &'a HashMap<String, String>, key: &str) -> Result<&'a str, CliError> {
    opts.get(key)
        .map(String::as_str)
        .ok_or_else(|| CliError::Usage(format!("--{key} is required")))
}

fn parse_mode(opts: &HashMap<String, String>) -> Result<SelectionMode, CliError> {
    match opts.get("mode").map(String::as_str) {
        None | Some("case1") => Ok(SelectionMode::Case1),
        Some("case2") => Ok(SelectionMode::Case2),
        Some(other) => Err(CliError::Usage(format!(
            "--mode must be case1 or case2, got {other:?}"
        ))),
    }
}

fn read_file(path: &str) -> Result<String, CliError> {
    fs::read_to_string(path).map_err(|source| CliError::Io {
        path: path.to_string(),
        source,
    })
}

fn write_file(path: &str, contents: &str) -> Result<(), CliError> {
    fs::write(path, contents).map_err(|source| CliError::Io {
        path: path.to_string(),
        source,
    })
}

fn generate_vt(opts: &HashMap<String, String>) -> Result<(), CliError> {
    let out = required(opts, "out")?;
    let boards = get(opts, "boards", 40usize)?;
    let swept = get(opts, "swept", 5usize)?;
    let ros = get(opts, "ros", 512usize)?;
    let seed = get(opts, "seed", 1u64)?;
    let data = VtDataset::generate(&VtConfig {
        boards,
        swept_boards: swept.min(boards),
        ros_per_board: ros,
        seed,
        ..VtConfig::default()
    });
    write_file(out, &data.to_csv())?;
    eprintln!("wrote {boards} boards ({swept} swept, {ros} ROs each) to {out}");
    Ok(())
}

fn generate_inhouse(opts: &HashMap<String, String>) -> Result<(), CliError> {
    let out = required(opts, "out")?;
    let boards = get(opts, "boards", 9usize)?;
    let seed = get(opts, "seed", 1u64)?;
    let data = InHouseDataset::generate(&InHouseConfig {
        boards,
        seed,
        ..InHouseConfig::default()
    });
    write_file(out, &data.to_csv())?;
    eprintln!("wrote {boards} calibrated boards to {out}");
    Ok(())
}

fn extract(opts: &HashMap<String, String>) -> Result<(), CliError> {
    let dataset = required(opts, "dataset")?;
    let out = required(opts, "out")?;
    let stages = get(opts, "stages", 5usize)?;
    let raw = get(opts, "raw", false)?;
    let mode = parse_mode(opts)?;
    let data = VtDataset::from_csv(&read_file(dataset)?, 16, 0)?;
    let mut lines = String::new();
    for board in data.boards() {
        if board.ro_count() < 8 * stages {
            return Err(CliError::Usage(format!(
                "board {} has too few ROs ({}) for {stages}-stage rings",
                board.id,
                board.ro_count()
            )));
        }
        let bits = board_bits(board, stages, mode, !raw)?;
        lines.push_str(&bits.to_binary_string());
        lines.push('\n');
    }
    write_file(out, &lines)?;
    eprintln!(
        "extracted {} bit-strings ({} bits each) to {out}",
        data.boards().len(),
        VirtualLayout::new(
            data.boards()[0].ro_count() - data.boards()[0].ro_count() % (8 * stages),
            stages
        )
        .pair_count()
    );
    Ok(())
}

fn nist(opts: &HashMap<String, String>) -> Result<(), CliError> {
    let path = required(opts, "bits")?;
    let text = read_file(path)?;
    let streams: Vec<BitVec> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(BitVec::from_binary_str)
        .collect::<Result<_, _>>()?;
    if streams.is_empty() {
        return Err(CliError::Usage("no bit streams found".into()));
    }
    let config = if streams[0].len() < 1000 {
        SuiteConfig::short_streams()
    } else {
        SuiteConfig::default()
    };
    let suite_span = telemetry::span("cli.nist.suite");
    let report = run_suite(&streams, &config);
    drop(suite_span);
    println!("{report}");
    println!(
        "verdict: {}",
        if report.all_passed() { "PASS" } else { "FAIL" }
    );
    Ok(())
}

/// The §IV.E threshold sweep over an in-house (inverter-level) CSV:
/// reliable bits per board for the traditional and configurable schemes
/// as `Rth` rises.
fn rth(opts: &HashMap<String, String>) -> Result<(), CliError> {
    let dataset = required(opts, "dataset")?;
    let usable = get(opts, "usable", 13usize)?;
    let max_rth = get(opts, "max-rth", 5.0f64)?;
    let data = InHouseDataset::from_csv(&read_file(dataset)?)?;
    if usable > data.units_per_ro() {
        return Err(CliError::Usage(format!(
            "--usable {usable} exceeds the dataset's {} units per RO",
            data.units_per_ro()
        )));
    }
    let mut trad = Vec::new();
    let mut conf = Vec::new();
    for board in data.boards() {
        for p in 0..board.ros.len() / 2 {
            let top = &board.ros[2 * p].ddiffs_ps[..usable];
            let bottom = &board.ros[2 * p + 1].ddiffs_ps[..usable];
            let t: f64 = top.iter().sum::<f64>() - bottom.iter().sum::<f64>();
            trad.push(t.abs());
            conf.push(case2(top, bottom, ParityPolicy::Ignore).margin());
        }
    }
    let boards = data.boards().len() as f64;
    println!("Rth(ps)  traditional  configurable   (mean reliable bits per board)");
    let mut r = 0.0;
    while r <= max_rth + 1e-9 {
        let count = |m: &[f64]| m.iter().filter(|&&x| x >= r).count() as f64 / boards;
        println!("{r:7.1}  {:11.1}  {:12.1}", count(&trad), count(&conf));
        r += 1.0;
    }
    Ok(())
}

/// Grows, enrolls, and evaluates a whole fleet in parallel.
///
/// Stdout carries only seed-determined data (per-board bits and corner
/// flip counts, fleet statistics), so the output is byte-identical at
/// any thread count; timings go to stderr.
fn fleet(opts: &HashMap<String, String>) -> Result<(), CliError> {
    let boards = get(opts, "boards", 64usize)?;
    let seed = get(opts, "seed", 1u64)?;
    let units = get(opts, "units", 480usize)?;
    let stages = get(opts, "stages", 7usize)?;
    let cols = get(opts, "cols", 16usize)?;
    let threads = get(opts, "threads", worker_threads())?;
    let votes = get(opts, "votes", 1usize)?;
    let threshold = get(opts, "threshold", 0.0f64)?;
    let faults = fault_plan(opts)?;
    let opts = EnrollOptions {
        threshold_ps: threshold,
        ..EnrollOptions::default()
    }
    .validate()?;
    let config = FleetConfig {
        boards,
        units,
        cols,
        stages,
        opts,
        votes,
        faults,
        threads: Some(threads),
        corners: vec![
            Environment::nominal(),
            Environment::new(0.98, 25.0),
            Environment::new(1.20, 65.0),
        ],
        ..FleetConfig::default()
    };
    let corners = config.corners.clone();
    let setup_span = telemetry::span("cli.fleet.setup");
    let engine = FleetEngine::new(SiliconSim::default_spartan(), config)?;
    drop(setup_span);
    let run_span = telemetry::span("cli.fleet.run");
    let run = engine.run(seed);
    drop(run_span);
    let _report_span = telemetry::span("cli.fleet.report");
    for record in &run.records {
        println!(
            "board {:3}  {}  flips {}",
            record.board_index,
            record.expected_bits,
            record
                .corner_flips
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("/"),
        );
    }
    println!(
        "fleet: {} boards x {} bits, uniqueness {}",
        run.records.len(),
        engine.puf().pair_count(),
        run.uniqueness()
            .map_or("n/a".to_string(), |u| format!("{u:.4}")),
    );
    for (env, rate) in corners.iter().zip(run.corner_flip_rates()) {
        println!("corner {env}: flip rate {rate:.4}");
    }
    // Printed only when the fault layer actually did something, so a
    // zero-fault run stays byte-identical to the plain pipeline.
    if !run.quarantined.is_empty() || run.faults.has_activity() {
        for q in &run.quarantined {
            println!("board {:3}  QUARANTINED: {}", q.board_index, q.reason);
        }
        let f = &run.faults;
        println!(
            "faults: {} injected / {} reads, {} retries, {} recovered, {} unrecoverable, \
             {} pairs excluded, {} bits erased, {} boards quarantined, {} panics contained",
            f.injected_faults(),
            f.reads,
            f.retry_reads,
            f.recovered_reads,
            f.failed_reads,
            f.unreadable_pairs,
            f.response_erasures,
            f.quarantined_boards,
            f.contained_panics,
        );
    }
    eprintln!(
        "{} threads, {:.1} boards/sec ({:.2?})",
        run.threads,
        run.boards_per_sec(),
        run.elapsed
    );
    Ok(())
}

/// Samples the fleet health observatory once and reports the verdict.
///
/// Stdout carries only the seed-determined report (human table, JSON,
/// or Prometheus exposition per `--format`); timings go to stderr.
/// `--enroll-baseline FILE` snapshots the current gauge values for
/// later drift detection via `--baseline FILE`. `--fail-on` turns the
/// verdict into the exit code, so the command slots into CI gates and
/// cron-driven probes.
fn monitor(opts: &HashMap<String, String>) -> Result<(), CliError> {
    let boards = get(opts, "boards", 16usize)?;
    let seed = get(opts, "seed", 1u64)?;
    let units = get(opts, "units", 120usize)?;
    let stages = get(opts, "stages", 5usize)?;
    let cols = get(opts, "cols", 8usize)?;
    let threads = get(opts, "threads", worker_threads())?;
    let years = years(opts, 5.0)?;
    let threshold = get(opts, "threshold", 0.0f64)?;
    let sweep = match opts.get("sweep").map(String::as_str) {
        None | Some("full") => SweepPlan::Full,
        Some("nominal") => SweepPlan::Nominal,
        Some("voltage") => SweepPlan::Voltage,
        Some("temperature") => SweepPlan::Temperature,
        Some(other) => {
            return Err(CliError::Usage(format!(
                "--sweep must be nominal, voltage, temperature, or full, got {other:?}"
            )))
        }
    };
    let fail_on = match opts.get("fail-on").map(String::as_str) {
        None | Some("critical") => Some(Status::Critical),
        Some("warn") => Some(Status::Warn),
        Some("never") => None,
        Some(other) => {
            return Err(CliError::Usage(format!(
                "--fail-on must be warn, critical, or never, got {other:?}"
            )))
        }
    };
    let format = opts.get("format").map(String::as_str).unwrap_or("human");
    if !matches!(format, "human" | "json" | "prometheus") {
        return Err(CliError::Usage(format!(
            "--format must be human, json, or prometheus, got {format:?}"
        )));
    }
    let faults = fault_plan(opts)?;
    let config = FleetConfig {
        boards,
        units,
        cols,
        stages,
        opts: EnrollOptions {
            threshold_ps: threshold,
            ..EnrollOptions::default()
        }
        .validate()?,
        corners: sweep.corners(),
        aging: (years > 0.0).then(|| FleetAging {
            model: AgingModel::default(),
            years,
        }),
        faults,
        threads: Some(threads),
        ..FleetConfig::default()
    };
    let setup_span = telemetry::span("cli.monitor.setup");
    let mut obs = FleetObservatory::new(SiliconSim::default_spartan(), config)?;
    drop(setup_span);
    // `--security true` runs the attack suite (seeded from --seed, so
    // the readings are as deterministic as the fleet sample) and feeds
    // its attacker-advantage figures to the security gauges.
    let security: Vec<(&'static str, f64)> = if get(opts, "security", false)? {
        let attack_span = telemetry::span("cli.monitor.attack-suite");
        let report = AttackSuiteReport::run(&AttackSuiteConfig {
            seed,
            threads,
            ..AttackSuiteConfig::default()
        });
        drop(attack_span);
        report.security_readings()
    } else {
        Vec::new()
    };
    if let Some(path) = opts.get("enroll-baseline") {
        let enroll_span = telemetry::span("cli.monitor.enroll-baseline");
        let baseline = obs.enroll_baseline(seed, &security);
        drop(enroll_span);
        write_file(path, &baseline.to_json())?;
        eprintln!(
            "enrolled baseline of {} gauges to {path}",
            baseline.values.len()
        );
        return Ok(());
    }
    if let Some(path) = opts.get("baseline") {
        let baseline = Baseline::parse(&read_file(path)?)
            .map_err(|e| CliError::Usage(format!("{path}: {e}")))?;
        obs.set_baseline(baseline);
    }
    let sample_span = telemetry::span("cli.monitor.sample");
    let health = obs.sample(seed, &security);
    drop(sample_span);
    match format {
        "json" => print!("{}", health.report.to_json()),
        "prometheus" => print!("{}", health.report.render_prometheus("ropuf_")),
        _ => print!("{}", health.report.render()),
    }
    eprintln!(
        "{} corners x {} boards, {} threads, fresh pass {:.2?}{}",
        obs.corners().len(),
        boards,
        health.fresh.threads,
        health.fresh.elapsed,
        health
            .aged
            .as_ref()
            .map_or(String::new(), |a| format!(", aged pass {:.2?}", a.elapsed)),
    );
    match fail_on {
        Some(limit) if health.report.overall >= limit => {
            Err(CliError::Unhealthy(health.report.overall))
        }
        _ => Ok(()),
    }
}

/// Runs the `ropuf-attack` suite: every attack in the catalogue against
/// deterministic seed-split envelope fleets and CRP transcripts.
///
/// Stdout carries only the seed-determined report (human table or JSON
/// per `--format`), byte-identical at any thread count — CI diffs it
/// across runs and `--threads` values. `--dump-transcript FILE` writes
/// the exact CRP transcript the modeling arms attacked (also
/// thread-invariant). `--assert-guard true` turns the §III claim into
/// an exit code: fail unless the guarded kernel stays at chance AND the
/// deliberately broken variant is broken to at least 0.7 accuracy.
fn attack(opts: &HashMap<String, String>) -> Result<(), CliError> {
    let defaults = AttackSuiteConfig::default();
    let config = AttackSuiteConfig {
        seed: get(opts, "seed", defaults.seed)?,
        boards: positive(opts, "boards", defaults.boards)?,
        units: get(opts, "units", defaults.units)?,
        cols: positive(opts, "cols", defaults.cols)?,
        stages: positive(opts, "stages", defaults.stages)?,
        probed_pairs: get(opts, "probed-pairs", defaults.probed_pairs)?,
        crp_boards: positive(opts, "crp-boards", defaults.crp_boards)?,
        crps: get(opts, "crps", defaults.crps)?,
        parity: ParityPolicy::Ignore,
        threads: positive(opts, "threads", worker_threads())?,
    };
    let format = opts.get("format").map(String::as_str).unwrap_or("human");
    if !matches!(format, "human" | "json") {
        return Err(CliError::Usage(format!(
            "--format must be human or json, got {format:?}"
        )));
    }
    let pairs = config.pairs_per_board();
    if pairs == 0 {
        return Err(CliError::Usage(format!(
            "--units {} leaves no ring pairs at --stages {} (need units >= 2 x stages)",
            config.units, config.stages
        )));
    }
    if config.probed_pairs == 0 || config.probed_pairs >= pairs {
        return Err(CliError::Usage(format!(
            "--probed-pairs must leave at least one unprobed pair (1..{pairs}), got {}",
            config.probed_pairs
        )));
    }
    let params = 2 * config.stages + 1;
    if config.crps / 2 < params {
        return Err(CliError::Usage(format!(
            "--crps {} cannot train a {params}-parameter model on half the transcript",
            config.crps
        )));
    }
    if let Some(path) = opts.get("dump-transcript") {
        let dump_span = telemetry::span("cli.attack.transcript");
        let transcript = AttackTranscript::generate(&config.transcript_config());
        drop(dump_span);
        write_file(path, &transcript.to_text())?;
        eprintln!(
            "wrote {} CRPs x {} boards to {path}",
            config.crps, config.crp_boards
        );
    }
    let run_span = telemetry::span("cli.attack.suite");
    let report = AttackSuiteReport::run(&config);
    drop(run_span);
    match format {
        "json" => println!("{}", report.to_json()),
        _ => print!("{}", report.render()),
    }
    if get(opts, "assert-guard", false)? {
        let fetch = |name: &str| {
            report
                .outcome(name)
                .map(|o| (o.accuracy, o.advantage))
                .unwrap_or((0.5, 0.0))
        };
        let (_, guarded_adv) = fetch("count_leak_guarded");
        let (broken_acc, _) = fetch("count_leak_broken");
        if guarded_adv > 0.1 {
            return Err(CliError::Insecure(format!(
                "guarded kernel leaked: count-leak advantage {guarded_adv:.4} exceeds 0.1"
            )));
        }
        if broken_acc < 0.7 {
            return Err(CliError::Insecure(format!(
                "broken-kernel canary limp: count-leak accuracy {broken_acc:.4} below 0.7 \
                 (the attack harness lost its teeth)"
            )));
        }
        eprintln!(
            "guard assertion held: guarded advantage {guarded_adv:.4} <= 0.1, \
             broken accuracy {broken_acc:.4} >= 0.7"
        );
    }
    Ok(())
}

/// `FleetEngine::new`'s floorplan rule: a ring pair needs at least one
/// stage and `2 × stages` units.
fn check_floorplan(units: usize, stages: usize) -> Result<(), CliError> {
    if stages == 0 || units < 2 * stages {
        return Err(CliError::Usage(format!(
            "{units} units cannot host a {stages}-stage ring pair"
        )));
    }
    Ok(())
}

/// `FleetEngine::new`'s voting rule: a majority needs an odd vote count.
fn check_votes(votes: usize) -> Result<(), CliError> {
    if votes.is_multiple_of(2) {
        return Err(CliError::Usage(format!(
            "majority voting needs an odd vote count, got {votes}"
        )));
    }
    Ok(())
}

/// Regenerates the deterministic demo board for `seed`/`units`.
fn demo_board(seed: u64, units: usize) -> (ropuf::silicon::Board, ropuf::silicon::Technology) {
    let mut sim = SiliconSim::default_spartan();
    let mut rng = StdRng::seed_from_u64(seed);
    let board = sim.grow_board(&mut rng, units, 16);
    (board, *sim.technology())
}

fn enroll(opts: &HashMap<String, String>) -> Result<(), CliError> {
    let out = required(opts, "out")?;
    let seed = get(opts, "seed", 1u64)?;
    let units = get(opts, "units", 480usize)?;
    let stages = get(opts, "stages", 7usize)?;
    let threshold = get(opts, "threshold", 0.0f64)?;
    let mode = parse_mode(opts)?;
    check_floorplan(units, stages)?;
    let grow_span = telemetry::span("cli.enroll.grow");
    let (board, tech) = demo_board(seed, units);
    drop(grow_span);
    let enroll_opts = EnrollOptions {
        mode,
        threshold_ps: threshold,
        ..EnrollOptions::default()
    }
    .validate()?;
    let enroll_span = telemetry::span("cli.enroll.enroll");
    let enrollment = ConfigurableRoPuf::tiled_interleaved(units, stages).enroll_seeded(
        seed ^ 0xE14A,
        &board,
        &tech,
        Environment::nominal(),
        &enroll_opts,
    );
    drop(enroll_span);
    write_file(out, &enrollment_to_text(&enrollment))?;
    eprintln!(
        "enrolled {} bits ({} pairs provisioned) to {out}",
        enrollment.bit_count(),
        enrollment.pairs().len()
    );
    println!("{}", enrollment.expected_bits());
    Ok(())
}

fn respond(opts: &HashMap<String, String>) -> Result<(), CliError> {
    let path = required(opts, "enrollment")?;
    let seed = get(opts, "seed", 1u64)?;
    let units = get(opts, "units", 480usize)?;
    let voltage = get(opts, "voltage", 1.20f64)?;
    let temperature = get(opts, "temperature", 25.0f64)?;
    let votes = get(opts, "votes", 1usize)?;
    check_votes(votes)?;
    if !(voltage.is_finite() && voltage > 0.0) {
        return Err(CliError::Usage(format!(
            "--voltage must be a finite positive supply, got {voltage}"
        )));
    }
    if !(temperature.is_finite() && temperature > -273.15) {
        return Err(CliError::Usage(format!(
            "--temperature must be finite and above absolute zero (-273.15 C), got {temperature}"
        )));
    }
    let env = Environment::new(voltage, temperature);
    let enrollment = enrollment_from_text(&read_file(path)?)?;
    // The board must hold every unit the enrollment configures.
    let needed = enrollment
        .pairs()
        .iter()
        .flatten()
        .flat_map(|p| p.spec().top().iter().chain(p.spec().bottom()))
        .max()
        .map_or(1, |&unit| unit + 1);
    if units < needed {
        return Err(CliError::Usage(format!(
            "{units} units cannot host the enrollment, which needs {needed}"
        )));
    }
    let grow_span = telemetry::span("cli.respond.grow");
    let (board, tech) = demo_board(seed, units);
    drop(grow_span);
    tech.check_switches(env)
        .map_err(|e| CliError::Usage(format!("--voltage {voltage} at {temperature} C: {e}")))?;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4E5);
    let probe = DelayProbe::new(0.25, 1);
    let respond_span = telemetry::span("cli.respond.respond");
    let response = if votes > 1 {
        enrollment.respond_majority(&mut rng, &board, &tech, env, &probe, votes)
    } else {
        enrollment.respond(&mut rng, &board, &tech, env, &probe)
    };
    drop(respond_span);
    let flips = response
        .hamming_distance(&enrollment.expected_bits())
        .expect("lengths match");
    eprintln!("{flips} flips vs enrollment at {env}");
    println!("{response}");
    Ok(())
}

/// The store and server flags `serve` and `reenroll` share, checked
/// once for both.
struct ServerFlags<'a> {
    store: &'a str,
    workers: usize,
    shards: usize,
    fsync: FsyncPolicy,
}

impl<'a> ServerFlags<'a> {
    fn parse(opts: &'a HashMap<String, String>) -> Result<Self, CliError> {
        let store = required(opts, "store")?;
        let workers = positive(opts, "workers", worker_threads())?;
        let shards = positive(opts, "shards", 8)?;
        let fsync = match opts.get("fsync").map(String::as_str) {
            None | Some("every") => FsyncPolicy::EveryRecord,
            Some("batched") => FsyncPolicy::Batched,
            Some(other) => {
                return Err(CliError::Usage(format!(
                    "--fsync must be every or batched, got {other:?}"
                )))
            }
        };
        Ok(Self {
            store,
            workers,
            shards,
            fsync,
        })
    }

    /// Opens the store and serves it on `addr`, plus the admin plane on
    /// `admin`. A drill's service reads a frozen manual clock, so even
    /// the windowed ops-plane figures are a pure function of the
    /// request stream; a real server windows over wall time.
    fn stand_up(
        &self,
        addr: SocketAddr,
        admin: Option<SocketAddr>,
        drill: bool,
        access_log: Option<AccessLog>,
    ) -> Result<(Arc<PufService>, ServerHandle), CliError> {
        let open_span = telemetry::span("cli.store.open");
        let store = Store::open(std::path::Path::new(self.store), self.shards, self.fsync)?;
        let clock: Arc<dyn telemetry::Clock> = if drill {
            Arc::new(telemetry::ManualClock::at(0))
        } else {
            Arc::new(telemetry::WallClock::default())
        };
        let service = Arc::new(PufService::with_options(
            store,
            ServiceOptions {
                config: ServiceConfig::default(),
                clock,
                access_log,
            },
        ));
        drop(open_span);
        let server = serve_with_admin(Arc::clone(&service), addr, self.workers, admin).map_err(
            |source| CliError::Io {
                path: addr.to_string(),
                source,
            },
        )?;
        eprintln!(
            "serving on {} ({} workers, {} shards, fsync {})",
            server.addr(),
            self.workers,
            self.shards,
            if self.fsync == FsyncPolicy::EveryRecord {
                "every"
            } else {
                "batched"
            },
        );
        if let Some(admin_addr) = server.admin_addr() {
            eprintln!("admin on http://{admin_addr} (/metrics, /healthz, /slo)");
        }
        Ok((service, server))
    }
}

/// Reads a count flag that must be at least 1 (`--boards`, `--threads`,
/// `--shards`, ...).
fn positive(opts: &HashMap<String, String>, key: &str, default: usize) -> Result<usize, CliError> {
    let value = get(opts, key, default)?;
    if value == 0 {
        return Err(CliError::Usage(format!("--{key} must be at least 1")));
    }
    Ok(value)
}

/// Reads a flag that must be an odd count (`--votes`, `--repetition`).
fn odd(opts: &HashMap<String, String>, key: &str, default: usize) -> Result<usize, CliError> {
    let value = get(opts, key, default)?;
    if value.is_multiple_of(2) {
        return Err(CliError::Usage(format!("--{key} must be odd, got {value}")));
    }
    Ok(value)
}

/// Reads `--years`, an aging span: finite and non-negative, `0` for an
/// unaged fleet.
fn years(opts: &HashMap<String, String>, default: f64) -> Result<f64, CliError> {
    let years = get(opts, "years", default)?;
    if !(years.is_finite() && years >= 0.0) {
        return Err(CliError::Usage(format!(
            "--years must be a finite non-negative span, got {years}"
        )));
    }
    Ok(years)
}

/// Runs `drill` against a stood-up server: the transcript, the only
/// seed-determined output, goes to stdout and the tally line to
/// stderr; then the store is synced.
fn run_drill_on(
    service: &PufService,
    server: &ServerHandle,
    drill: impl FnOnce(SocketAddr) -> std::io::Result<(String, String)>,
) -> Result<(), CliError> {
    let drill_span = telemetry::span("cli.drill");
    let (transcript, tallies) = drill(server.addr()).map_err(|source| CliError::Io {
        path: format!("drill against {}", server.addr()),
        source,
    })?;
    drop(drill_span);
    print!("{transcript}");
    eprintln!("{tallies}");
    service.store().sync_all()?;
    Ok(())
}

/// Runs the device-authentication server over an on-disk enrollment
/// store. With `--drill true` the command enrolls `--devices` boards
/// through the typestate lifecycle, drives the scripted auth mix
/// against itself, prints the deterministic transcript to stdout, and
/// exits — the CI-facing smoke mode. Without it, the server blocks
/// serving the bound address until killed.
fn serve(opts: &HashMap<String, String>) -> Result<(), CliError> {
    let flags = ServerFlags::parse(opts)?;
    let addr_raw = get(opts, "addr", "127.0.0.1:0".to_string())?;
    let addr: SocketAddr = addr_raw
        .parse()
        .map_err(|_| CliError::Usage(format!("--addr value {addr_raw:?} is malformed")))?;
    let drill = get(opts, "drill", false)?;
    let health = get(opts, "health", false)?;
    let linger = get(opts, "linger", false)?;
    if linger && !drill {
        return Err(CliError::Usage(
            "--linger only applies to --drill true (a plain serve already runs forever)"
                .to_string(),
        ));
    }
    let admin: Option<SocketAddr> = match opts.get("admin") {
        None => None,
        Some(raw) => Some(
            raw.parse()
                .map_err(|_| CliError::Usage(format!("--admin value {raw:?} is malformed")))?,
        ),
    };
    let sample = get(opts, "sample", 1u64)?;
    if sample == 0 {
        return Err(CliError::Usage(
            "--sample must be at least 1 (1 logs every request)".to_string(),
        ));
    }
    if opts.contains_key("sample") && !opts.contains_key("access-log") {
        return Err(CliError::Usage(
            "--sample requires --access-log FILE".to_string(),
        ));
    }
    let spec = DrillSpec {
        seed: get(opts, "seed", DrillSpec::default().seed)?,
        devices: get(opts, "devices", 16u64)?,
        ops_per_device: get(opts, "ops", 10u64)?,
        units: get(opts, "units", 80usize)?,
        cols: get(opts, "cols", 12usize)?,
        votes: odd(opts, "votes", 1)?,
        repetition: odd(opts, "repetition", 3)?,
        fault_scale: get(opts, "faults", 0.0f64)?,
        client_threads: positive(opts, "threads", worker_threads())?,
    };
    if !(spec.fault_scale.is_finite() && spec.fault_scale >= 0.0) {
        return Err(CliError::Usage(format!(
            "--faults must be a finite non-negative scale, got {}",
            spec.fault_scale
        )));
    }
    let access_log = match opts.get("access-log") {
        None => None,
        Some(path) => Some(
            AccessLog::create(std::path::Path::new(path), sample).map_err(|source| {
                CliError::Io {
                    path: path.clone(),
                    source,
                }
            })?,
        ),
    };

    let (service, server) = flags.stand_up(addr, admin, drill, access_log)?;
    if drill {
        run_drill_on(&service, &server, |addr| {
            let r = ropuf::server::run_drill(addr, &spec)?;
            let tallies = format!(
                "drill: {} devices, {} ops ({} accepted, {} rejected)",
                r.devices, r.ops, r.accepted, r.rejected
            );
            Ok((r.transcript, tallies))
        })?;
        if let Some(log) = service.access_log() {
            log.flush();
        }
    }
    if health {
        eprint!("{}", service.health_report().render());
    }
    if drill && !linger {
        server.shutdown();
        return Ok(());
    }
    // Block: the accept/worker threads own the work now. A lingering
    // drill keeps serving (admin plane included) so a harness can scrape
    // `/metrics` and `/slo` against the drill's windowed state; kill the
    // process to exit.
    if drill {
        eprintln!("drill complete; lingering (kill to exit)");
    }
    loop {
        std::thread::park();
    }
}

/// Runs the aged-fleet re-enrollment drill against an in-process
/// server: enroll, age, assess drift (the fleet gauge goes unhealthy),
/// supersede the drifted enrollments, and verify the healed fleet.
/// `--stop-after` exits after a phase leaving the store on disk;
/// `--resume true` reopens it and runs only the verify phase, so a
/// kill-and-restart check can diff the concatenated transcripts
/// against a full run's.
fn reenroll(opts: &HashMap<String, String>) -> Result<(), CliError> {
    let flags = ServerFlags::parse(opts)?;
    let stop_after = match opts.get("stop-after").map(String::as_str) {
        None => None,
        Some(raw) => Some(ReenrollStage::parse(raw).ok_or_else(|| {
            CliError::Usage(format!(
                "--stop-after must be enroll, assess, or reenroll, got {raw:?}"
            ))
        })?),
    };
    let defaults = ReenrollDrillSpec::default();
    let spec = ReenrollDrillSpec {
        seed: get(opts, "seed", defaults.seed)?,
        devices: get(opts, "devices", defaults.devices)?,
        units: get(opts, "units", defaults.units)?,
        cols: get(opts, "cols", defaults.cols)?,
        votes: odd(opts, "votes", defaults.votes)?,
        repetition: odd(opts, "repetition", defaults.repetition)?,
        years: years(opts, defaults.years)?,
        client_threads: positive(opts, "threads", worker_threads())?,
        stop_after,
        resume: get(opts, "resume", false)?,
    };
    if spec.resume && spec.stop_after.is_some() {
        return Err(CliError::Usage(
            "--resume runs only the verify phase; --stop-after does not apply".to_string(),
        ));
    }

    let loopback = SocketAddr::from(([127, 0, 0, 1], 0));
    let (service, server) = flags.stand_up(loopback, None, true, None)?;
    run_drill_on(&service, &server, |addr| {
        let r = ropuf::server::run_reenroll_drill(addr, &spec)?;
        let tallies = format!(
            "reenroll: {} devices, {} drifted, {} superseded, {} ops ({} accepted, {} rejected)",
            r.devices, r.drifted, r.reenrolled, r.ops, r.accepted, r.rejected
        );
        Ok((r.transcript, tallies))
    })?;
    server.shutdown();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The usage text and the command table name the same flags for
    /// every command, so no documented flag is refused and no accepted
    /// flag goes undocumented.
    #[test]
    fn usage_text_and_command_table_agree() {
        let mut listed: HashMap<&str, Vec<&str>> = HashMap::new();
        let mut current = None;
        for line in USAGE
            .lines()
            .skip_while(|l| !l.starts_with("commands:"))
            .skip(1)
        {
            if line.starts_with("every command") {
                break;
            }
            if !line.starts_with('[') {
                current = line.split_whitespace().next();
            }
            let name = current.expect("a command line comes first");
            let flags = listed.entry(name).or_default();
            for (at, _) in line.match_indices("--") {
                let rest = &line[at + 2..];
                let end = rest
                    .find(|c: char| !(c.is_ascii_lowercase() || c == '-'))
                    .unwrap_or(rest.len());
                flags.push(&rest[..end]);
            }
        }
        assert_eq!(listed.len(), COMMANDS.len(), "{listed:?}");
        for command in COMMANDS {
            let mut documented = listed[command.name].clone();
            documented.sort();
            let mut accepted: Vec<&str> = command.flags.split(' ').collect();
            accepted.sort();
            assert_eq!(documented, accepted, "{}", command.name);
        }
    }
}
