//! Golden transcript of `repro verify --quick`: runs the binary and
//! compares stdout byte for byte with `tests/golden/verify_quick.txt`.
//!
//! The self-check is seed-determined and thread-count invariant, so a
//! mismatch is an output change, accidental or declared. To accept a
//! declared change, rerun with `ROPUF_BLESS=1`, which rewrites the file
//! from the current binary, and review the diff.

use std::path::Path;
use std::process::Command;

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
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/verify_quick.txt");
    if std::env::var_os("ROPUF_BLESS").is_some_and(|v| v == "1") {
        std::fs::write(&path, &out.stdout).expect("golden file written");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (bless with ROPUF_BLESS=1)", path.display()));
    let got = String::from_utf8_lossy(&out.stdout);
    if got != want {
        let (line, (g, w)) = got
            .lines()
            .chain(std::iter::repeat("<end of output>"))
            .zip(want.lines().chain(std::iter::repeat("<end of file>")))
            .enumerate()
            .find(|(_, (g, w))| g != w)
            .expect("outputs differ somewhere");
        panic!(
            "repro verify --quick differs from verify_quick.txt at line {}:\n  \
             got:  {g}\n  want: {w}\n(bless a declared change with ROPUF_BLESS=1)",
            line + 1
        );
    }
}
