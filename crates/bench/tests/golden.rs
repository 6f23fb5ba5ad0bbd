//! Golden outputs of `repro`: the `repro verify --quick` transcript,
//! compared byte for byte with `tests/golden/verify_quick.txt`, and the
//! seed-determined fields of `repro fleet --boards 64`'s record,
//! compared with `tests/golden/fleet_boards64_record.json`.
//!
//! Both are seed-determined and thread-count invariant, so a mismatch
//! is an output change, accidental or declared. To accept a declared
//! change, rerun with `ROPUF_BLESS=1`, which rewrites the files from
//! the current binary, and review the diff.

use std::path::Path;
use std::process::Command;

use ropuf_telemetry::json::{self, Value};

/// Compares `got` with `tests/golden/<file>`, or rewrites the file
/// under `ROPUF_BLESS=1`; `what` names the output in a failure.
fn check(file: &str, got: &str, what: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file);
    if std::env::var_os("ROPUF_BLESS").is_some_and(|v| v == "1") {
        std::fs::write(&path, got).expect("golden file written");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (bless with ROPUF_BLESS=1)", path.display()));
    if got != want {
        let (line, (g, w)) = got
            .lines()
            .chain(std::iter::repeat("<end of output>"))
            .zip(want.lines().chain(std::iter::repeat("<end of file>")))
            .enumerate()
            .find(|(_, (g, w))| g != w)
            .expect("outputs differ somewhere");
        panic!(
            "{what} differs from {file} at line {}:\n  \
             got:  {g}\n  want: {w}\n(bless a declared change with ROPUF_BLESS=1)",
            line + 1
        );
    }
}

#[test]
fn verify_quick_report() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["verify", "--quick"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "repro verify --quick failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    check(
        "verify_quick.txt",
        &String::from_utf8_lossy(&out.stdout),
        "repro verify --quick",
    );
}

/// The record's fields that time a pass or describe the machine.
const TIMING: [&str; 6] = [
    "serial_secs",
    "parallel_secs",
    "boards_per_sec",
    "speedup",
    "threads",
    "cores",
];

/// Drops every member named in `keys` from `value`, if an object.
fn drop_members(value: &mut Value, keys: &[&str]) {
    if let Value::Object(members) = value {
        members.retain(|(key, _)| !keys.contains(&key.as_ref()));
    }
}

/// `repro fleet --boards 64`'s record without its timing fields reads
/// the same at one worker thread and at eight.
#[test]
fn fleet_record_non_timing_fields() {
    for threads in ["1", "8"] {
        let dir = std::env::temp_dir().join(format!(
            "ropuf-bench-golden-fleet-{threads}-{}",
            std::process::id()
        ));
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["fleet", "--boards", "64", "--out", dir.to_str().unwrap()])
            .env("RAYON_NUM_THREADS", threads)
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "repro fleet failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = std::fs::read_to_string(dir.join("BENCH_fleet.json")).expect("record written");
        std::fs::remove_dir_all(&dir).ok();
        let mut record = json::parse(&text).expect("the record is JSON");
        drop_members(&mut record, &TIMING);
        if let Value::Object(members) = &mut record {
            for (key, value) in members.iter_mut() {
                if let (true, Value::Array(points)) = (key == "speedup_curve", value) {
                    points
                        .iter_mut()
                        .for_each(|p| drop_members(p, &["secs", "speedup"]));
                }
            }
        }
        check(
            "fleet_boards64_record.json",
            &record.to_document(),
            &format!("the repro fleet record at {threads} thread(s)"),
        );
    }
}
