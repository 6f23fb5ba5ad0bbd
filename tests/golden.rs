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

/// The reenroll drill's store at one server worker, pinned as a
/// listing of its shard files (`reenroll_shards.txt`): per record its
/// kind, device id, generation, envelope and Key Code lengths and the
/// FNV-1a-64 of its bytes, then the shard's length. The files are read
/// by [`shard_listing`], a walker of the record grammar in the store's
/// module docs, not by `Store`, so a change to the writer or the reader
/// shows here. One client thread as well as one worker: the worker
/// appends sessions in the order it accepts them, so only a single
/// client puts the records in device order.
#[test]
fn reenroll_store_shards() {
    let dir = store("reenroll-shards");
    run(&[
        "reenroll",
        "--workers",
        "1",
        "--threads",
        "1",
        "--fsync",
        "batched",
        "--store",
        dir.to_str().unwrap(),
    ]);
    let mut shards: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("the drill wrote its store")
        .map(|entry| entry.expect("a directory entry").path())
        .collect();
    shards.sort();
    let mut listing = String::new();
    for path in &shards {
        let name = path.file_name().unwrap().to_string_lossy();
        let bytes = std::fs::read(path).expect("a shard file");
        listing.push_str(&shard_listing(&name, &bytes));
    }
    check(
        "reenroll_shards.txt",
        listing.as_bytes(),
        "the reenroll store",
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// One shard file, record by record, after the grammar
///
/// ```text
/// header    := "RPUFSTOR" u16:version
/// record    := u8:kind u64:device_id payload
/// enroll    := kind=1, payload = u32:elen elen*u8 u32:klen klen*u8
/// revoke    := kind=2, payload empty (tombstone)
/// supersede := kind=3, payload = u32:generation u32:elen elen*u8 u32:klen klen*u8
/// ```
///
/// (integers little-endian). Panics on anything else.
fn shard_listing(name: &str, bytes: &[u8]) -> String {
    fn take<'a>(bytes: &'a [u8], at: &mut usize, n: usize) -> &'a [u8] {
        let taken = &bytes[*at..*at + n];
        *at += n;
        taken
    }
    fn int(bytes: &[u8], at: &mut usize, n: usize) -> u64 {
        let mut le = [0u8; 8];
        le[..n].copy_from_slice(take(bytes, at, n));
        u64::from_le_bytes(le)
    }
    let mut at = 0;
    assert_eq!(take(bytes, &mut at, 8), b"RPUFSTOR", "{name}: header");
    let mut out = format!("{name}: version {}\n", int(bytes, &mut at, 2));
    while at < bytes.len() {
        let start = at;
        let kind = int(bytes, &mut at, 1);
        let device = int(bytes, &mut at, 8);
        let fields = match kind {
            2 => format!("revoke device {device}"),
            1 | 3 => {
                let generation = if kind == 3 { int(bytes, &mut at, 4) } else { 0 };
                let envelope = int(bytes, &mut at, 4) as usize;
                take(bytes, &mut at, envelope);
                let key_code = int(bytes, &mut at, 4) as usize;
                take(bytes, &mut at, key_code);
                let kind = if kind == 1 { "enroll" } else { "supersede" };
                format!(
                    "{kind} device {device} generation {generation} \
                     envelope {envelope} key_code {key_code}"
                )
            }
            other => panic!("{name}: record kind {other} at byte {start}"),
        };
        let fnv = bytes[start..at]
            .iter()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            });
        out.push_str(&format!("  {fields} fnv1a64 {fnv:016x}\n"));
    }
    out.push_str(&format!("  {} bytes\n", bytes.len()));
    out
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
