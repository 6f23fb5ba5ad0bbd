//! Integration tests driving the `ropuf` CLI binary end to end.

use std::path::PathBuf;
use std::process::{Command, Output};

use ropuf_telemetry::json::{self, Value};

fn ropuf(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ropuf"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn ropuf_with_threads(args: &[&str], threads: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ropuf"))
        .args(args)
        .env("RAYON_NUM_THREADS", threads)
        .output()
        .expect("binary runs")
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ropuf-cli-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

#[test]
fn usage_on_no_arguments() {
    let out = ropuf(&[]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("commands:"), "{err}");
}

#[test]
fn unknown_command_fails() {
    let out = ropuf(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn generate_extract_nist_pipeline() {
    let fleet = tmp("fleet.csv");
    let bits = tmp("bits.txt");
    // Seed pinned to a fleet whose 48-bit streams also clear the
    // (discreteness-sensitive) uniformity column; most seeds do.
    let out = ropuf(&[
        "generate-vt",
        "--boards",
        "40",
        "--swept",
        "0",
        "--seed",
        "1",
        "--out",
        fleet.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = ropuf(&[
        "extract",
        "--dataset",
        fleet.to_str().unwrap(),
        "--stages",
        "5",
        "--mode",
        "case1",
        "--out",
        bits.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let content = std::fs::read_to_string(&bits).unwrap();
    assert_eq!(content.lines().count(), 40);
    // 512 ROs → 480 usable at n=5 → 48 bits per line.
    assert!(content.lines().all(|l| l.len() == 48));

    let out = ropuf(&["nist", "--bits", bits.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("PROPORTION"), "{stdout}");
    assert!(stdout.contains("verdict: PASS"), "{stdout}");
}

#[test]
fn raw_extraction_fails_nist() {
    let fleet = tmp("fleet_raw.csv");
    let bits = tmp("bits_raw.txt");
    assert!(ropuf(&[
        "generate-vt",
        "--boards",
        "40",
        "--swept",
        "0",
        "--seed",
        "3",
        "--out",
        fleet.to_str().unwrap(),
    ])
    .status
    .success());
    assert!(ropuf(&[
        "extract",
        "--dataset",
        fleet.to_str().unwrap(),
        "--raw",
        "true",
        "--out",
        bits.to_str().unwrap(),
    ])
    .status
    .success());
    let out = ropuf(&["nist", "--bits", bits.to_str().unwrap()]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("verdict: FAIL"));
}

#[test]
fn enroll_then_respond_at_corner() {
    let enrollment = tmp("device.enrollment");
    let out = ropuf(&[
        "enroll",
        "--seed",
        "42",
        "--units",
        "140",
        "--stages",
        "7",
        "--out",
        enrollment.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let expected = String::from_utf8_lossy(&out.stdout).trim().to_string();
    assert_eq!(expected.len(), 10); // 140 units / (2*7)

    let out = ropuf(&[
        "respond",
        "--enrollment",
        enrollment.to_str().unwrap(),
        "--seed",
        "42",
        "--units",
        "140",
        "--voltage",
        "0.98",
        "--votes",
        "3",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let response = String::from_utf8_lossy(&out.stdout).trim().to_string();
    assert_eq!(response, expected, "corner response must match enrollment");
    assert!(String::from_utf8_lossy(&out.stderr).contains("0 flips"));
}

#[test]
fn respond_rejects_an_enrollment_with_an_empty_configuration() {
    // An empty configuration field is a typed parse error (exit 1), not
    // a panic (exit 101), in either envelope version.
    let enrollment = tmp("empty-config.enrollment");
    for (text, line) in [
        ("ropuf-enrollment v1\nenv,1.2,25\npair,0,1,2,,,0,1.0\n", 3),
        (
            "ropuf-enrollment v2\nenv,1.2,25\nfloorplan,tiled,2,1\npair,0,,,0,1.0\n",
            4,
        ),
    ] {
        std::fs::write(&enrollment, text).expect("enrollment written");
        let out = ropuf(&["respond", "--enrollment", enrollment.to_str().unwrap()]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{err}");
        assert!(
            err.contains(&format!(
                "line {line}: configuration length does not match the pair"
            )),
            "{err}"
        );
    }
}

#[test]
fn respond_with_wrong_board_differs() {
    // A different silicon seed is a different device: the response
    // cannot match the stored enrollment (authentication would reject).
    let enrollment = tmp("device_a.enrollment");
    let out = ropuf(&[
        "enroll",
        "--seed",
        "7",
        "--units",
        "280",
        "--stages",
        "7",
        "--out",
        enrollment.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let expected = String::from_utf8_lossy(&out.stdout).trim().to_string();

    let out = ropuf(&[
        "respond",
        "--enrollment",
        enrollment.to_str().unwrap(),
        "--seed",
        "8",
        "--units",
        "280",
    ]);
    assert!(out.status.success());
    let response = String::from_utf8_lossy(&out.stdout).trim().to_string();
    let hd: usize = expected
        .chars()
        .zip(response.chars())
        .filter(|(a, b)| a != b)
        .count();
    assert!(hd >= 4, "impostor HD only {hd} of {}", expected.len());
}

#[test]
fn enroll_and_respond_reject_unusable_flag_values_with_typed_errors() {
    // Flag values a user can type fail with exit 1 and the fleet
    // engine's wording, never a panic (exit 101).
    let fails_with = |args: &[&str], message: &str| {
        let out = ropuf(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(err.contains("error:"), "{args:?}: {err}");
        assert!(
            err.contains(message),
            "{args:?} should say {message:?}: {err}"
        );
    };
    let unused = tmp("never-written.enrollment");
    let unused = unused.to_str().unwrap();
    fails_with(
        &["enroll", "--stages", "0", "--out", unused],
        "480 units cannot host a 0-stage ring pair",
    );
    fails_with(
        &["enroll", "--units", "5", "--stages", "7", "--out", unused],
        "5 units cannot host a 7-stage ring pair",
    );
    fails_with(
        &["enroll", "--units", "0", "--out", unused],
        "0 units cannot host a 7-stage ring pair",
    );
    assert!(!std::path::Path::new(unused).exists());

    // A default 480-unit enrollment, then respond flags it cannot use.
    let enrollment = tmp("wide.enrollment");
    let enrollment = enrollment.to_str().unwrap();
    let out = ropuf(&["enroll", "--seed", "3", "--out", enrollment]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    fails_with(
        &[
            "respond",
            "--enrollment",
            enrollment,
            "--seed",
            "3",
            "--votes",
            "2",
        ],
        "majority voting needs an odd vote count, got 2",
    );
    fails_with(
        &[
            "respond",
            "--enrollment",
            enrollment,
            "--seed",
            "3",
            "--units",
            "20",
        ],
        "20 units cannot host the enrollment",
    );
}

#[test]
fn inhouse_generation_round_trips() {
    let path = tmp("inhouse.csv");
    let out = ropuf(&[
        "generate-inhouse",
        "--boards",
        "2",
        "--seed",
        "5",
        "--out",
        path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.starts_with("board,ro,unit,ddiff_ps,bypass_ps"));
    assert!(ropuf::dataset::inhouse::InHouseDataset::from_csv(&text).is_ok());
}

#[test]
fn missing_required_flag_is_reported() {
    let out = ropuf(&["generate-vt", "--boards", "4"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--out is required"));
}

/// A misspelt flag is a usage error naming the flag, raised before any
/// work: no stdout, no output file, no trace file. (It used to be
/// ignored, so `--bords 4` ran the 64-board default fleet and `--sead 3`
/// enrolled with seed 1.)
#[test]
fn unknown_flags_are_refused_before_any_work() {
    let trace = tmp("refused-flag-trace.jsonl");
    let _ = std::fs::remove_file(&trace);
    let out = ropuf(&[
        "fleet",
        "--bords",
        "4",
        "--seed",
        "7",
        "--trace-out",
        trace.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty(), "the fleet must not run");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error: fleet has no --bords flag"), "{err}");
    assert!(!trace.exists(), "no trace before the refusal");

    let enrollment = tmp("refused-flag.enr");
    let _ = std::fs::remove_file(&enrollment);
    let out = ropuf(&[
        "enroll",
        "--out",
        enrollment.to_str().unwrap(),
        "--sead",
        "3",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error: enroll has no --sead flag"), "{err}");
    assert!(!enrollment.exists(), "nothing may be enrolled");

    // A flag one command reads is still unknown to another.
    let out = ropuf(&["nist", "--bits", "x.txt", "--seed", "1"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("nist has no --seed flag"));

    // --trace-out is accepted by every command.
    let out = ropuf(&[
        "enroll",
        "--out",
        enrollment.to_str().unwrap(),
        "--units",
        "60",
        "--stages",
        "3",
        "--trace-out",
        trace.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(enrollment.exists() && trace.exists());
}

#[test]
fn rth_sweep_on_generated_inhouse_data() {
    let path = tmp("inhouse_rth.csv");
    assert!(ropuf(&[
        "generate-inhouse",
        "--boards",
        "3",
        "--seed",
        "9",
        "--out",
        path.to_str().unwrap(),
    ])
    .status
    .success());
    let out = ropuf(&["rth", "--dataset", path.to_str().unwrap(), "--max-rth", "4"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 6, "{stdout}"); // header + Rth 0..=4
    assert!(lines[1].contains("32.0"), "{stdout}");
    // Configurable column stays at 32 throughout the sweep.
    for line in &lines[1..] {
        assert!(line.trim_end().ends_with("32.0"), "{line}");
    }
}

#[test]
fn fleet_stdout_is_thread_count_invariant() {
    // Seed-determined data goes to stdout only; a serial run and a
    // multi-threaded run of the same fleet must be byte-identical.
    let args = [
        "fleet", "--boards", "8", "--seed", "7", "--units", "80", "--stages", "4",
    ];
    let serial = ropuf_with_threads(&args, "1");
    assert!(
        serial.status.success(),
        "{}",
        String::from_utf8_lossy(&serial.stderr)
    );
    let parallel = ropuf_with_threads(&args, "4");
    assert!(parallel.status.success());
    assert_eq!(
        String::from_utf8_lossy(&serial.stdout),
        String::from_utf8_lossy(&parallel.stdout),
        "fleet output must not depend on thread count"
    );
    let stdout = String::from_utf8_lossy(&serial.stdout);
    assert!(stdout.contains("fleet: 8 boards"), "{stdout}");
    assert!(stdout.contains("uniqueness"), "{stdout}");
}

#[test]
fn rth_rejects_oversized_usable() {
    let path = tmp("inhouse_rth2.csv");
    assert!(ropuf(&[
        "generate-inhouse",
        "--boards",
        "2",
        "--seed",
        "3",
        "--out",
        path.to_str().unwrap(),
    ])
    .status
    .success());
    let out = ropuf(&["rth", "--dataset", path.to_str().unwrap(), "--usable", "99"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("exceeds"));
}

#[test]
fn monitor_emits_prometheus_exposition() {
    let out = ropuf(&[
        "monitor",
        "--sweep",
        "nominal",
        "--boards",
        "8",
        "--units",
        "80",
        "--years",
        "0",
        "--format",
        "prometheus",
        "--fail-on",
        "never",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    // Every non-comment line is `name[{labels}] value` with a finite
    // numeric value — the text exposition contract.
    for line in text.lines() {
        if line.starts_with('#') {
            assert!(
                line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                "{line}"
            );
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("space-separated sample");
        assert!(!series.is_empty(), "{line}");
        assert!(value.parse::<f64>().is_ok(), "unparsable value in {line:?}");
    }
    assert!(text.contains("# TYPE ropuf_uniqueness gauge"), "{text}");
    assert!(text.contains("ropuf_health_overall"), "{text}");
}

#[test]
fn monitor_json_report_is_versioned() {
    let out = ropuf(&[
        "monitor",
        "--sweep",
        "nominal",
        "--boards",
        "8",
        "--units",
        "80",
        "--years",
        "0",
        "--format",
        "json",
        "--fail-on",
        "never",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"version\": 1"), "{text}");
    assert!(text.contains("\"overall\""), "{text}");
    assert!(text.contains("\"flip_rate_nominal\""), "{text}");
}

#[test]
fn monitor_baseline_round_trip_detects_no_drift_against_itself() {
    let base = tmp("monitor_baseline.json");
    let enroll = ropuf(&[
        "monitor",
        "--sweep",
        "nominal",
        "--boards",
        "8",
        "--units",
        "80",
        "--years",
        "0",
        "--seed",
        "11",
        "--enroll-baseline",
        base.to_str().unwrap(),
    ]);
    assert!(
        enroll.status.success(),
        "{}",
        String::from_utf8_lossy(&enroll.stderr)
    );
    // Enrollment writes the baseline file and nothing to stdout.
    assert!(enroll.stdout.is_empty());
    let watch = ropuf(&[
        "monitor",
        "--sweep",
        "nominal",
        "--boards",
        "8",
        "--units",
        "80",
        "--years",
        "0",
        "--seed",
        "11",
        "--baseline",
        base.to_str().unwrap(),
        "--format",
        "json",
        "--fail-on",
        "never",
    ]);
    assert!(
        watch.status.success(),
        "{}",
        String::from_utf8_lossy(&watch.stderr)
    );
    let text = String::from_utf8_lossy(&watch.stdout);
    assert!(text.contains("\"drift\": 0.0"), "{text}");
}

#[test]
fn monitor_stdout_is_thread_count_invariant() {
    let args = [
        "monitor",
        "--sweep",
        "voltage",
        "--boards",
        "8",
        "--units",
        "80",
        "--seed",
        "5",
        "--format",
        "json",
        "--fail-on",
        "never",
    ];
    let one = ropuf_with_threads(&args, "1");
    let four = ropuf_with_threads(&args, "4");
    assert!(one.status.success() && four.status.success());
    assert_eq!(one.stdout, four.stdout);
}

#[test]
fn monitor_rejects_bad_sweep() {
    let out = ropuf(&["monitor", "--sweep", "sideways"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--sweep"));
}

#[test]
fn monitor_baseline_missing_file_is_a_typed_error() {
    let missing = tmp("no-such-dir").join("baseline.json");
    let out = ropuf(&[
        "monitor",
        "--sweep",
        "nominal",
        "--boards",
        "4",
        "--units",
        "60",
        "--years",
        "0",
        "--baseline",
        missing.to_str().unwrap(),
    ]);
    assert!(!out.status.success(), "unreadable baseline must fail");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.starts_with("error: "), "typed error prefix: {err}");
    assert!(
        err.contains("baseline.json"),
        "names the offending path: {err}"
    );
}

/// Runs a small `monitor` against the baseline file `path`.
fn monitor_against(path: &std::path::Path) -> Output {
    ropuf(&[
        "monitor",
        "--sweep",
        "nominal",
        "--boards",
        "4",
        "--units",
        "60",
        "--years",
        "0",
        "--fail-on",
        "never",
        "--baseline",
        path.to_str().unwrap(),
    ])
}

#[test]
fn monitor_baseline_malformed_file_is_a_typed_error() {
    let golden = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden/monitor_enrolled_baseline.json"),
    )
    .expect("committed baseline");
    let uniqueness = golden
        .lines()
        .find(|l| l.contains("\"uniqueness\""))
        .expect("uniqueness gauge")
        .to_string();
    let with_value =
        |value: &str| golden.replace(&uniqueness, &format!("    \"uniqueness\": {value},"));
    let variants = [
        ("garbled", "hello, not json at all".to_string()),
        // Cut before the closing brace: the comma-split loader read it.
        (
            "truncated",
            golden[..golden.trim_end().len() - 1].to_string(),
        ),
        ("trailing", format!("{golden}garbage\n")),
        ("nan", with_value("NaN")),
        (
            "repeated",
            golden.replace(&uniqueness, &format!("{uniqueness}\n{uniqueness}")),
        ),
        (
            "nested_version",
            golden
                .replace("  \"version\": 1,\n", "")
                .replace("\"gauges\": {\n", "\"gauges\": {\n    \"version\": 1,\n"),
        ),
    ];
    for (name, text) in variants {
        assert_ne!(text, golden, "{name}: the variant differs from the golden");
        let path = tmp(&format!("{name}_baseline.json"));
        std::fs::write(&path, &text).unwrap();
        let out = monitor_against(&path);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{name} baseline must fail: {err}"
        );
        assert!(
            err.starts_with("error: ") && err.contains(path.to_str().unwrap()),
            "{name}: the error names the file: {err}"
        );
        assert!(
            err.contains("baseline"),
            "{name}: explains what was malformed: {err}"
        );
        std::fs::remove_file(&path).ok();
    }
    // A null gauge is what `--enroll-baseline` writes for a non-finite
    // value; it still loads.
    let path = tmp("null_gauge_baseline.json");
    std::fs::write(&path, with_value("null")).unwrap();
    let out = monitor_against(&path);
    assert!(
        out.status.success(),
        "a null gauge loads: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn trace_out_to_unwritable_path_is_a_typed_error() {
    let missing = tmp("no-such-dir").join("trace.jsonl");
    let out = ropuf(&[
        "fleet",
        "--boards",
        "2",
        "--units",
        "60",
        "--stages",
        "3",
        "--trace-out",
        missing.to_str().unwrap(),
    ]);
    assert!(!out.status.success(), "unwritable trace sink must fail");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.starts_with("error: "), "typed error prefix: {err}");
    assert!(
        err.contains("trace.jsonl"),
        "names the offending path: {err}"
    );
}

#[test]
fn fleet_rejects_malformed_fault_scale() {
    for bad in ["banana", "-1", "inf"] {
        let out = ropuf(&[
            "fleet", "--boards", "2", "--units", "60", "--stages", "3", "--faults", bad,
        ]);
        assert!(!out.status.success(), "--faults {bad} must fail");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("--faults"),
            "points at the flag for {bad}"
        );
    }
}

#[test]
fn fleet_with_zero_fault_scale_is_byte_identical_to_plain() {
    // `--faults 0` must not perturb the measurement RNG stream: the
    // robust read path falls back to plain reads and the report gains
    // no extra lines. At `--threshold 6` half of these boards enroll no
    // bits; they are recorded either way, never quarantined.
    let base = [
        "fleet", "--boards", "6", "--seed", "7", "--units", "60", "--stages", "3",
    ];
    for extra in [&[][..], &["--threshold", "6"][..]] {
        let plain = ropuf(&[&base[..], extra].concat());
        let zero = ropuf(&[&base[..], extra, &["--faults", "0"]].concat());
        assert!(plain.status.success() && zero.status.success());
        assert_eq!(
            plain.stdout, zero.stdout,
            "zero-rate fault layer must be byte-identical to no fault layer ({extra:?})"
        );
    }
}

#[test]
fn fleet_chaos_drill_quarantines_deterministically() {
    // Seed 7 at scale 8 provably quarantines at least one board (the
    // panic roll depends only on master seed, board index, and rate).
    let args = [
        "fleet", "--boards", "24", "--seed", "7", "--units", "60", "--stages", "3", "--cols", "6",
        "--faults", "8",
    ];
    let first = ropuf_with_threads(&args, "4");
    assert!(
        first.status.success(),
        "chaos drill is a success mode: {}",
        String::from_utf8_lossy(&first.stderr)
    );
    let stdout = String::from_utf8_lossy(&first.stdout);
    assert!(stdout.contains("QUARANTINED"), "{stdout}");
    assert!(stdout.contains("faults:"), "{stdout}");
    let again = ropuf_with_threads(&args, "4");
    assert_eq!(first.stdout, again.stdout, "chaos drill is deterministic");
    let serial = ropuf_with_threads(&args, "1");
    assert_eq!(
        first.stdout, serial.stdout,
        "chaos drill is thread-count invariant"
    );
}

#[test]
fn serve_flag_parse_failures_are_typed_nonzero_exits() {
    // Every malformed flag must exit nonzero with an error naming the
    // flag — the typed CliError::Usage path, not a panic or silence.
    let store = tmp("serve-flags-store");
    let store = store.to_str().unwrap();
    let cases: &[(&[&str], &str)] = &[
        (&["serve"], "--store"),
        (
            &["serve", "--store", store, "--addr", "not-an-addr"],
            "--addr",
        ),
        (&["serve", "--store", store, "--workers", "0"], "--workers"),
        (
            &["serve", "--store", store, "--workers", "nope"],
            "--workers",
        ),
        (&["serve", "--store", store, "--shards", "0"], "--shards"),
        (
            &["serve", "--store", store, "--fsync", "sometimes"],
            "--fsync",
        ),
        (&["serve", "--store", store, "--drill", "maybe"], "--drill"),
        (&["serve", "--store", store, "--votes", "2"], "--votes"),
        (
            &["serve", "--store", store, "--repetition", "4"],
            "--repetition",
        ),
        (&["serve", "--store", store, "--faults", "-1"], "--faults"),
        (
            &["serve", "--store", store, "--devices", "many"],
            "--devices",
        ),
        (
            &["serve", "--store", store, "--admin", "not-an-addr"],
            "--admin",
        ),
        (&["serve", "--store", store, "--sample", "0"], "--sample"),
        (
            &["serve", "--store", store, "--sample", "every-other"],
            "--sample",
        ),
        // --sample without --access-log is a contradiction, not a no-op.
        (&["serve", "--store", store, "--sample", "2"], "--sample"),
        // --access-log pointing into a missing directory is a typed
        // I/O error, not a panic.
        (
            &[
                "serve",
                "--store",
                store,
                "--access-log",
                "/nonexistent-ropuf-dir/access.jsonl",
            ],
            "/nonexistent-ropuf-dir/access.jsonl",
        ),
        // --linger only makes sense for a drill.
        (&["serve", "--store", store, "--linger", "true"], "--linger"),
    ];
    for (args, flag) in cases {
        let out = ropuf(args);
        assert!(!out.status.success(), "{args:?} must fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("error:"), "{args:?}: {err}");
        assert!(err.contains(flag), "{args:?} should name {flag}: {err}");
    }
}

#[test]
fn reenroll_flag_parse_failures_are_typed_nonzero_exits() {
    // `reenroll` shares its store, server and odd-count checks with
    // `serve`; each failure must still name its flag.
    let store = tmp("reenroll-flags-store");
    let store = store.to_str().unwrap();
    let cases: &[(&[&str], &str)] = &[
        (&["reenroll"], "--store"),
        (
            &["reenroll", "--store", store, "--workers", "0"],
            "--workers",
        ),
        (&["reenroll", "--store", store, "--shards", "0"], "--shards"),
        (
            &["reenroll", "--store", store, "--fsync", "sometimes"],
            "--fsync",
        ),
        (&["reenroll", "--store", store, "--votes", "2"], "--votes"),
        (
            &["reenroll", "--store", store, "--repetition", "0"],
            "--repetition",
        ),
        (&["reenroll", "--store", store, "--years", "-1"], "--years"),
        (
            &["reenroll", "--store", store, "--stop-after", "verify"],
            "--stop-after",
        ),
        (
            &[
                "reenroll",
                "--store",
                store,
                "--resume",
                "true",
                "--stop-after",
                "enroll",
            ],
            "--resume",
        ),
        (
            &["reenroll", "--store", store, "--devices", "many"],
            "--devices",
        ),
    ];
    for (args, flag) in cases {
        let out = ropuf(args);
        assert!(!out.status.success(), "{args:?} must fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("error:"), "{args:?}: {err}");
        assert!(err.contains(flag), "{args:?} should name {flag}: {err}");
    }
}

#[test]
fn fleet_flag_parse_failures_are_typed_nonzero_exits() {
    let cases: &[(&[&str], &str)] = &[
        (&["fleet", "--boards", "two"], "--boards"),
        (&["fleet", "--seed", "0x1"], "--seed"),
        (&["fleet", "--threads", "-3"], "--threads"),
        (&["fleet", "--threshold", "wide"], "--threshold"),
    ];
    for (args, flag) in cases {
        let out = ropuf(args);
        assert!(!out.status.success(), "{args:?} must fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("error:"), "{args:?}: {err}");
        assert!(err.contains(flag), "{args:?} should name {flag}: {err}");
    }
}

#[test]
fn monitor_flag_parse_failures_are_typed_nonzero_exits() {
    let cases: &[(&[&str], &str)] = &[
        (&["monitor", "--boards", "a-few"], "--boards"),
        (&["monitor", "--years", "forever"], "--years"),
        (&["monitor", "--format", "yaml"], "--format"),
        (&["monitor", "--fail-on", "meh"], "--fail-on"),
    ];
    for (args, flag) in cases {
        let out = ropuf(args);
        assert!(!out.status.success(), "{args:?} must fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("error:"), "{args:?}: {err}");
        assert!(err.contains(flag), "{args:?} should name {flag}: {err}");
    }
}

/// Both fleet-engine commands refuse a zero worker count with the
/// error every command gives it, naming the flag, instead of quietly
/// running on one thread.
#[test]
fn fleet_and_monitor_refuse_zero_threads() {
    for command in ["fleet", "monitor"] {
        let out = ropuf(&[command, "--threads", "0", "--boards", "4"]);
        assert!(!out.status.success(), "{command} --threads 0 must fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("error: --threads must be at least 1"),
            "{command}: {err}"
        );
    }
}

/// Flag values that panicked (exit 101), ran as if the flag were unset
/// or were blamed on another flag exit 1 before printing anything, with
/// an `error:` line naming the flag: a zero-stage, zero-width or
/// zero-board attack fleet, a respond corner outside the technology
/// model, an aging span that is negative or not a number, and zero
/// threads for the attack suite or a drill (`serve` runs with `--drill
/// true`, so without the refusal it exits after its drill instead of
/// serving forever).
#[test]
fn unusable_flag_values_exit_with_a_typed_error_naming_the_flag() {
    let enrollment = tmp("unusable-flags.enrollment");
    let enrollment = enrollment.to_str().unwrap();
    let store = tmp("unusable-flags-store");
    let store = store.to_str().unwrap();
    let out = ropuf(&["enroll", "--seed", "3", "--out", enrollment]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let respond = ["respond", "--enrollment", enrollment, "--seed", "3"];
    let at = |flag: &'static str, value: &'static str| -> Vec<&str> {
        respond.iter().copied().chain([flag, value]).collect()
    };
    let cases: Vec<(Vec<&str>, &str)> = vec![
        (vec!["attack", "--stages", "0"], "--stages"),
        (vec!["attack", "--cols", "0"], "--cols"),
        (vec!["attack", "--crp-boards", "0"], "--crp-boards"),
        (vec!["attack", "--boards", "0"], "--boards"),
        (vec!["attack", "--threads", "0"], "--threads"),
        (
            vec![
                "serve",
                "--store",
                store,
                "--drill",
                "true",
                "--threads",
                "0",
            ],
            "--threads",
        ),
        (
            vec!["reenroll", "--store", store, "--threads", "0"],
            "--threads",
        ),
        (
            vec!["serve", "--store", store, "--drill", "true", "--units", "3"],
            "--units",
        ),
        (
            vec!["serve", "--store", store, "--drill", "true", "--cols", "0"],
            "--cols",
        ),
        (
            vec!["reenroll", "--store", store, "--units", "7"],
            "--units",
        ),
        (vec!["reenroll", "--store", store, "--cols", "0"], "--cols"),
        // Below the 0.5 V threshold, the devices do not switch.
        (at("--voltage", "0.1"), "--voltage"),
        (at("--voltage", "inf"), "--voltage"),
        (at("--temperature", "nan"), "--temperature"),
        (at("--temperature", "-300"), "--temperature"),
        (vec!["monitor", "--years", "-1"], "--years"),
        (vec!["monitor", "--years", "nan"], "--years"),
        (vec!["monitor", "--years", "inf"], "--years"),
    ];
    for (args, flag) in &cases {
        let out = ropuf(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(err.contains("error:"), "{args:?}: {err}");
        assert!(err.contains(flag), "{args:?} should name {flag}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} printed before failing");
    }
}

#[test]
fn serve_drill_stdout_is_deterministic_across_runs_and_workers() {
    let run = |store: &str, workers: &str| {
        let out = ropuf(&[
            "serve",
            "--store",
            store,
            "--fsync",
            "batched",
            "--drill",
            "true",
            "--devices",
            "4",
            "--ops",
            "7",
            "--workers",
            workers,
            "--seed",
            "99",
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let a_dir = tmp("serve-det-a");
    let b_dir = tmp("serve-det-b");
    let c_dir = tmp("serve-det-c");
    for d in [&a_dir, &b_dir, &c_dir] {
        std::fs::remove_dir_all(d).ok();
    }
    let a = run(a_dir.to_str().unwrap(), "1");
    let b = run(b_dir.to_str().unwrap(), "1");
    let c = run(c_dir.to_str().unwrap(), "4");
    assert_eq!(a, b, "same spec, same transcript");
    assert_eq!(a, c, "worker count cannot perturb the transcript");
    assert!(!a.is_empty());
    for d in [&a_dir, &b_dir, &c_dir] {
        std::fs::remove_dir_all(d).ok();
    }
}

#[test]
fn serve_drill_stdout_is_identical_with_admin_plane_enabled() {
    // The ops plane (admin listener, access log, windowed metrics)
    // must be pure observation: enabling all of it cannot perturb a
    // single transcript byte.
    let plain_dir = tmp("serve-admin-det-a");
    let wired_dir = tmp("serve-admin-det-b");
    for d in [&plain_dir, &wired_dir] {
        std::fs::remove_dir_all(d).ok();
    }
    let log = tmp("serve-admin-det.jsonl");
    std::fs::remove_file(&log).ok();
    let base = |store: &str| {
        vec![
            "serve".to_string(),
            "--store".to_string(),
            store.to_string(),
            "--fsync".to_string(),
            "batched".to_string(),
            "--drill".to_string(),
            "true".to_string(),
            "--devices".to_string(),
            "4".to_string(),
            "--ops".to_string(),
            "7".to_string(),
            "--seed".to_string(),
            "99".to_string(),
        ]
    };
    let plain = base(plain_dir.to_str().unwrap());
    let mut wired = base(wired_dir.to_str().unwrap());
    wired.extend(
        [
            "--admin",
            "127.0.0.1:0",
            "--access-log",
            log.to_str().unwrap(),
            "--sample",
            "2",
        ]
        .map(String::from),
    );
    let run = |args: &[String]| {
        let refs: Vec<&str> = args.iter().map(String::as_str).collect();
        let out = ropuf(&refs);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        out
    };
    let a = run(&plain);
    let b = run(&wired);
    assert_eq!(a.stdout, b.stdout, "admin plane perturbed the transcript");
    assert!(
        String::from_utf8_lossy(&b.stderr).contains("admin on http://"),
        "admin bind line missing from stderr"
    );
    let logged = std::fs::read_to_string(&log).expect("access log written");
    assert!(
        logged.lines().count() > 0,
        "sampled access log must carry records"
    );
    for line in logged.lines() {
        let record = json::parse(line).unwrap_or_else(|e| panic!("{line:?}: {e}"));
        assert!(
            record.get("verdict").and_then(Value::as_str).is_some(),
            "every access record carries a verdict: {line}"
        );
    }
    for d in [&plain_dir, &wired_dir] {
        std::fs::remove_dir_all(d).ok();
    }
    std::fs::remove_file(&log).ok();
}

#[test]
fn serve_drill_stdout_is_identical_with_tracing_on() {
    // Replay telemetry is pure observation: a drill over a reopened
    // store prints the same transcript traced as untraced, and the
    // trace carries the replay spans and counters.
    let trace = tmp("serve-trace-det.jsonl");
    std::fs::remove_file(&trace).ok();
    let drill = |store: &std::path::Path, extra: &[&str]| {
        let mut args = vec![
            "serve",
            "--store",
            store.to_str().unwrap(),
            "--fsync",
            "batched",
            "--drill",
            "true",
            "--devices",
            "4",
            "--ops",
            "7",
            "--seed",
            "99",
        ];
        args.extend_from_slice(extra);
        let out = ropuf(&args);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let plain_dir = tmp("serve-trace-det-a");
    let traced_dir = tmp("serve-trace-det-b");
    for d in [&plain_dir, &traced_dir] {
        std::fs::remove_dir_all(d).ok();
        drill(d, &[]);
    }
    let plain = drill(&plain_dir, &[]);
    let traced = drill(&traced_dir, &["--trace-out", trace.to_str().unwrap()]);
    assert_eq!(plain, traced, "tracing cannot perturb the transcript");
    let trace = std::fs::read_to_string(&trace).expect("trace written");
    for name in [
        "\"serve.store.open\"",
        "\"serve.store.replay\"",
        "\"serve.store.records_replayed\"",
        "\"serve.store.bytes_replayed\"",
    ] {
        assert!(trace.contains(name), "trace lacks {name}");
    }
    for d in [&plain_dir, &traced_dir] {
        std::fs::remove_dir_all(d).ok();
    }
}

#[test]
fn serve_drill_store_survives_reopen() {
    // Drill once (fsync every record), then reopen the store with a
    // second drill run at different device ids... simpler: re-running
    // the same drill must now hit `already_enrolled` rejects, proving
    // the first run's records were durably replayed on reopen.
    let dir = tmp("serve-reopen");
    std::fs::remove_dir_all(&dir).ok();
    let store = dir.to_str().unwrap();
    let args = [
        "serve",
        "--store",
        store,
        "--drill",
        "true",
        "--devices",
        "2",
        "--ops",
        "3",
        "--seed",
        "7",
    ];
    let first = ropuf(&args);
    assert!(first.status.success());
    assert!(!String::from_utf8_lossy(&first.stdout).contains("already_enrolled"));
    let second = ropuf(&args);
    assert!(second.status.success());
    assert!(
        String::from_utf8_lossy(&second.stdout).contains("reject already_enrolled"),
        "reopened store remembered the first run:\n{}",
        String::from_utf8_lossy(&second.stdout)
    );
    std::fs::remove_dir_all(&dir).ok();
}
