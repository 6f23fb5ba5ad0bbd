//! Benchmark runner for the ropuf workspace.
//!
//! ```text
//! perfbench --workload <provision|provision_corners|auth_tcp>
//!           --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//! ```
//!
//! Every input is generated from `--seed`. The last stdout line is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`; lines
//! before it name each figure with its unit, the sample counts, the
//! environment and, in a traced run, the per-layer ledger. The process
//! exits nonzero when an output check fails.

mod ledger;
mod load;
mod loadgen;
mod provision;
mod serve;
mod stats;
mod sys;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer ledger) instead of the plain run.
    pub trace: bool,
    /// Directory run artefacts (store files, spans) go under.
    pub work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut map = BTreeMap::new();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        map.insert(key.to_string(), value.clone());
    }
    let mut take = |key: &str, default: Option<&str>| -> Result<String, String> {
        map.remove(key)
            .or_else(|| default.map(str::to_string))
            .ok_or_else(|| format!("missing --{key}"))
    };
    fn num<T: std::str::FromStr>(key: &str, v: String) -> Result<T, String> {
        v.parse()
            .map_err(|_| format!("--{key}: cannot parse {v:?}"))
    }
    let args = Args {
        workload: take("workload", None)?,
        seed: num("seed", take("seed", None)?)?,
        seconds: num("seconds", take("seconds", None)?)?,
        trace: match take("trace", Some("0"))?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
        work_dir: PathBuf::from(take("work-dir", Some(".perfbench"))?),
    };
    if let Some(unknown) = map.keys().next() {
        return Err(format!("unknown flag --{unknown}"));
    }
    if args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// The latency percentiles every workload records. BENCHMARK.json
/// gates `p50_us` only; `p90_us` and the printed p99 spread more
/// between runs on a small shared virtual machine than any usable
/// regression bound.
const RECORDED: [(&str, f64); 2] = [("p50_us", 0.5), ("p90_us", 0.9)];

/// Everything a run reports.
pub struct Report {
    workload: String,
    seed: u64,
    work_dir: PathBuf,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (errors, panics, missing replies).
    pub failed: u64,
    problems: Vec<String>,
    metrics: Vec<(String, f64, String)>,
    lines: Vec<String>,
}

impl Report {
    fn new(args: &Args) -> Self {
        Self {
            workload: args.workload.clone(),
            seed: args.seed,
            work_dir: args.work_dir.clone(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            metrics: Vec::new(),
            lines: Vec::new(),
        }
    }

    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    /// Adds an informational line.
    pub fn note(&mut self, line: String) {
        self.lines.push(line);
    }

    /// Records failed output checks; any one fails the run.
    pub fn fail_checks(&mut self, problems: Vec<String>) {
        self.problems.extend(problems);
    }

    /// Records `p50_us` and `p90_us` of `samples` (microseconds), with
    /// the highest tail percentile they support noted. A percentile
    /// without ten samples beyond it is refused and fails the run.
    pub fn percentiles(&mut self, what: &str, samples: &[f64]) {
        for (name, q) in RECORDED {
            match stats::percentile(samples, q) {
                Some(v) => self.metric(name, v, "us"),
                None => self.problems.push(format!(
                    "{what}: {} samples cannot support p{}",
                    samples.len(),
                    q * 100.0
                )),
            }
        }
        if let Some((q, v)) = stats::highest_tail(samples) {
            self.note(format!(
                "{what} latency: p50 {:.3} us, p{} {v:.3} us (highest with >= {} beyond), n = {}",
                stats::p50(samples).unwrap_or(f64::NAN),
                q * 100.0,
                stats::MIN_BEYOND,
                samples.len()
            ));
        }
    }

    /// Records `p50_us` and `p90_us` as the [`stats::QUIET`]-quantile
    /// across [`stats::WINDOW_S`] windows of each window's percentile
    /// ([`stats::windowed`]); the windowed p99 is noted, not recorded.
    pub fn windowed_percentiles(&mut self, what: &str, times: &[f64], samples: &[f64]) {
        let (window_s, across) = (stats::WINDOW_S, stats::QUIET);
        for (name, q) in RECORDED.into_iter().chain([("p99_us", 0.99)]) {
            match stats::windowed(times, samples, window_s, q, across) {
                Some((v, windows)) => {
                    if name != "p99_us" {
                        self.metric(name, v, "us");
                    }
                    self.note(format!(
                        "{what}: {name} {v:.3} us = p{} across {windows} windows of {window_s} s, n = {}",
                        across * 100.0,
                        samples.len()
                    ));
                }
                None if name == "p99_us" => {}
                None => self.problems.push(format!(
                    "{what}: {} samples cannot support p{} in any {window_s} s window",
                    samples.len(),
                    q * 100.0
                )),
            }
        }
    }

    /// Adds a rendered ledger table.
    pub fn ledger(&mut self, table: String) {
        self.lines.extend(table.lines().map(str::to_string));
    }

    /// Writes the spans of one part of the run next to its other
    /// artefacts.
    pub fn spans(&mut self, part: &str, spans: &[ledger::Span]) {
        let path = self.work_dir.join(format!(
            "spans-{}-{part}-{}.jsonl",
            self.workload, self.seed
        ));
        match ledger::write_spans(&path, spans) {
            Ok(()) => self.note(format!(
                "{} spans written to {}",
                spans.len(),
                path.display()
            )),
            Err(e) => self.problems.push(format!("writing spans: {e}")),
        }
    }

    fn finish(self) -> ExitCode {
        for line in &self.lines {
            println!("{line}");
        }
        for (name, value, unit) in &self.metrics {
            println!("metric {name} = {value} {unit}");
        }
        for p in &self.problems {
            println!("CHECK FAILED: {p}");
        }
        let correct = self.problems.is_empty();
        let mut json = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() {
                format!("{value}")
            } else {
                "null".to_string()
            };
            write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("write to String");
        }
        json.push_str("}}");
        println!("{json}");
        if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = match args.workload.as_str() {
        "provision" => provision::run(&args, false),
        "provision_corners" => provision::run(&args, true),
        "auth_tcp" => serve::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    report.note(format!(
        "env: nproc {}, workload seed {}, traffic loopback only (no real link), \
         store fdatasync'd to {} under {}, CPU time and RSS from /proc",
        sys::nproc(),
        args.seed,
        sys::cwd_filesystem(),
        args.work_dir.display()
    ));
    report.note(load::describe());
    report.finish()
}
