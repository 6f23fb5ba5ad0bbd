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
    let out = Command::new(env!("CARGO_BIN_EXE_ropuf"))
        .args(args)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file);
    if std::env::var_os("ROPUF_BLESS").is_some_and(|v| v == "1") {
        std::fs::write(&path, &out.stdout).expect("golden file written");
        return;
    }
    let want = std::fs::read(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (bless with ROPUF_BLESS=1)", path.display()));
    if out.stdout != want {
        let got = String::from_utf8_lossy(&out.stdout);
        let want = String::from_utf8_lossy(&want);
        let (line, (g, w)) = got
            .lines()
            .chain(std::iter::repeat("<end of output>"))
            .zip(want.lines().chain(std::iter::repeat("<end of file>")))
            .enumerate()
            .find(|(_, (g, w))| g != w)
            .expect("outputs differ somewhere");
        panic!(
            "{args:?} differs from {file} at line {}:\n  got:  {g}\n  want: {w}\n\
             (bless a declared change with ROPUF_BLESS=1)",
            line + 1
        );
    }
}

/// A fresh store directory for one test.
fn store(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ropuf-golden-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
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
