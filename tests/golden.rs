//! Golden transcripts: runs `ropuf` and compares stdout byte for byte
//! with the committed files under `tests/golden/`.
//!
//! Every command here is seed-determined on stdout, so a mismatch is an
//! output change, accidental or declared. To accept a declared change,
//! rerun with `ROPUF_BLESS=1`, which rewrites the files from the current
//! binary, and review the diff.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Runs `ropuf args` and checks (or, under `ROPUF_BLESS=1`, rewrites)
/// `tests/golden/<file>` against its stdout.
fn golden(file: &str, args: &[&str]) {
    let stdout = run(args);
    check(file, &stdout, &format!("{args:?}"));
}

/// Runs `ropuf args` to success and returns its stdout.
fn run(args: &[&str]) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_ropuf"))
        .args(args)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

/// Compares `got` with `tests/golden/<file>`, or rewrites the file
/// under `ROPUF_BLESS=1`; `what` names the output in a failure.
fn check(file: &str, got: &[u8], what: &str) {
    let path = golden_path(file);
    if std::env::var_os("ROPUF_BLESS").is_some_and(|v| v == "1") {
        std::fs::write(&path, got).expect("golden file written");
        return;
    }
    let want = std::fs::read(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (bless with ROPUF_BLESS=1)", path.display()));
    if got != want {
        let got = String::from_utf8_lossy(got);
        let want = String::from_utf8_lossy(&want);
        let (line, (g, w)) = got
            .lines()
            .chain(std::iter::repeat("<end of output>"))
            .zip(want.lines().chain(std::iter::repeat("<end of file>")))
            .enumerate()
            .find(|(_, (g, w))| g != w)
            .expect("outputs differ somewhere");
        panic!(
            "{what} differs from {file} at line {}:\n  got:  {g}\n  want: {w}\n\
             (bless a declared change with ROPUF_BLESS=1)",
            line + 1
        );
    }
}

fn golden_path(file: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file)
}

/// A fresh store directory for one test.
fn store(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ropuf-golden-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Runs `ropuf enroll args --out <file>` and checks both the envelope it
/// writes, against `tests/golden/<name>.enr`, and its stdout, the
/// expected bits, against `tests/golden/<name>.txt`.
fn golden_enrollment(name: &str, args: &[&str]) {
    let dir = store(name);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let file = dir.join("enrollment.enr");
    let mut full = vec!["enroll", "--out", file.to_str().unwrap()];
    full.extend_from_slice(args);
    let stdout = run(&full);
    let envelope = std::fs::read(&file).expect("enrollment written");
    check(&format!("{name}.enr"), &envelope, "the --out file");
    check(&format!("{name}.txt"), &stdout, &format!("{full:?}"));
    std::fs::remove_dir_all(&dir).ok();
}

/// The CLI's Case-1 default: 34 pairs of 7 stages.
#[test]
fn enroll_envelope() {
    golden_enrollment("enroll_seed7", &["--seed", "7"]);
}

/// Case-2 with a 10 ps threshold: 24 of the 34 pairs are excluded.
#[test]
fn enroll_envelope_with_excluded_pairs() {
    golden_enrollment(
        "enroll_seed7_case2_threshold10",
        &["--seed", "7", "--mode", "case2", "--threshold", "10"],
    );
}

/// 76 pairs of 13 stages: unit indices run to four digits.
#[test]
fn enroll_envelope_with_four_digit_units() {
    golden_enrollment(
        "enroll_seed7_units2000_stages13_case2",
        &[
            "--seed", "7", "--units", "2000", "--stages", "13", "--mode", "case2",
        ],
    );
}

/// The three enrollments above as `(name, extra respond flags)`: the
/// board `respond` regrows needs the units `enroll` grew.
const ENROLLMENTS: [(&str, &[&str]); 3] = [
    ("enroll_seed7", &[]),
    ("enroll_seed7_case2_threshold10", &[]),
    (
        "enroll_seed7_units2000_stages13_case2",
        &["--units", "2000"],
    ),
];

/// `respond` answers each committed v1 envelope (`<name>.v1.enr`) and
/// its v2 envelope (`<name>.enr`) alike, at nominal and at 0.98 V, and
/// both answer as `respond.txt` records.
#[test]
fn respond_reads_v1_and_v2_envelopes_alike() {
    let responses = |suffix: &str| -> Vec<u8> {
        let mut stdout = Vec::new();
        for (name, flags) in ENROLLMENTS {
            let file = golden_path(&format!("{name}{suffix}"));
            for voltage in ["1.2", "0.98"] {
                let mut args = vec![
                    "respond",
                    "--enrollment",
                    file.to_str().unwrap(),
                    "--seed",
                    "7",
                    "--voltage",
                    voltage,
                ];
                args.extend_from_slice(flags);
                stdout.extend(run(&args));
            }
        }
        stdout
    };
    let v1 = responses(".v1.enr");
    assert!(
        v1 == responses(".enr"),
        "v1 and v2 envelopes answer differently"
    );
    check("respond.txt", &v1, "respond on the committed envelopes");
}

#[test]
fn serve_drill_transcript() {
    let dir = store("drill");
    golden(
        "serve_drill.txt",
        &[
            "serve",
            "--drill",
            "true",
            "--seed",
            "7",
            "--devices",
            "16",
            "--ops",
            "10",
            "--fsync",
            "batched",
            "--store",
            dir.to_str().unwrap(),
        ],
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn faulted_serve_drill_transcript() {
    let dir = store("drill-faults");
    golden(
        "serve_drill_faults.txt",
        &[
            "serve",
            "--drill",
            "true",
            "--seed",
            "7",
            "--devices",
            "6",
            "--ops",
            "8",
            "--fsync",
            "batched",
            "--faults",
            "12",
            "--store",
            dir.to_str().unwrap(),
        ],
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reenroll_transcript() {
    let dir = store("reenroll");
    golden(
        "reenroll.txt",
        &[
            "reenroll",
            "--fsync",
            "batched",
            "--store",
            dir.to_str().unwrap(),
        ],
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reenroll_transcript_split_at_a_restart() {
    let dir = store("reenroll-split");
    let dir_arg = dir.to_str().unwrap();
    golden(
        "reenroll_stop_after_reenroll.txt",
        &[
            "reenroll",
            "--fsync",
            "batched",
            "--store",
            dir_arg,
            "--stop-after",
            "reenroll",
        ],
    );
    golden(
        "reenroll_resume.txt",
        &[
            "reenroll", "--fsync", "batched", "--store", dir_arg, "--resume", "true",
        ],
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fleet_report() {
    golden(
        "fleet_boards64_seed7.txt",
        &["fleet", "--boards", "64", "--seed", "7"],
    );
}

/// Majority voting at three stages, where three votes read different
/// flip counts from one (at the default seven stages they read alike).
#[test]
fn fleet_report_with_majority_votes() {
    golden(
        "fleet_boards64_seed7_stages3_votes3.txt",
        &[
            "fleet", "--boards", "64", "--seed", "7", "--stages", "3", "--votes", "3",
        ],
    );
}

#[test]
fn chaos_drill_report() {
    golden(
        "fleet_chaos_faults8.txt",
        &[
            "fleet", "--boards", "24", "--seed", "7", "--units", "60", "--stages", "3", "--cols",
            "6", "--faults", "8",
        ],
    );
}

#[test]
fn threshold_drill_report_under_an_inert_plan() {
    golden(
        "fleet_threshold6_faults0.txt",
        &[
            "fleet",
            "--boards",
            "24",
            "--seed",
            "7",
            "--units",
            "60",
            "--stages",
            "3",
            "--cols",
            "6",
            "--threshold",
            "6",
            "--faults",
            "0",
        ],
    );
}

#[test]
fn monitor_reports() {
    golden("monitor.txt", &["monitor", "--fail-on", "never"]);
    golden(
        "monitor.json",
        &["monitor", "--fail-on", "never", "--format", "json"],
    );
    golden(
        "monitor.prom",
        &["monitor", "--fail-on", "never", "--format", "prometheus"],
    );
}

#[test]
fn monitor_report_with_security_gauges() {
    golden(
        "monitor_security.json",
        &[
            "monitor",
            "--security",
            "true",
            "--format",
            "json",
            "--boards",
            "8",
            "--units",
            "80",
            "--fail-on",
            "never",
        ],
    );
}

/// `--enroll-baseline` writes exactly the committed baseline, and a
/// sample against that baseline reads the committed drift report.
#[test]
fn monitor_baseline_round_trip() {
    let dir = store("baseline");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let written = dir.join("baseline.json");
    run(&["monitor", "--enroll-baseline", written.to_str().unwrap()]);
    let baseline = std::fs::read(&written).expect("baseline written");
    check(
        "monitor_enrolled_baseline.json",
        &baseline,
        "the --enroll-baseline file",
    );
    std::fs::remove_dir_all(&dir).ok();
    golden(
        "monitor_against_baseline.txt",
        &[
            "monitor",
            "--baseline",
            golden_path("monitor_enrolled_baseline.json")
                .to_str()
                .unwrap(),
            "--fail-on",
            "never",
        ],
    );
}

#[test]
fn attack_report() {
    golden("attack.json", &["attack", "--format", "json"]);
}
