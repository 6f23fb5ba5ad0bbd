//! Tolerance-banded comparison of two fleet bench records — the
//! `repro check-bench` CI gate.
//!
//! The committed `BENCH_fleet.json` is a claim about the engine:
//! deterministic, this uniqueness, roughly this throughput. This module
//! diffs a freshly measured record against the committed baseline and
//! reports every violated claim, so the CI job is one process exit
//! code instead of a human squinting at JSON:
//!
//! * **shape** (`boards`, `bits_per_board`) must match exactly — a
//!   drifted shape means the two records measure different workloads
//!   and every other comparison is meaningless;
//! * **determinism** must hold in *both* records — a `false` anywhere
//!   is a correctness bug, never a tolerance question;
//! * **uniqueness** may move only within an absolute band (the quality
//!   statistic is seed-determined, so any drift means the algorithm
//!   changed);
//! * **throughput** may regress only by a bounded fraction
//!   (wall-clock is noisy, so improvements and small dips pass).
//!
//! Records are the hand-rolled JSON written by
//! [`crate::experiments::fleet_engine::Outcome::to_json`]; parsing
//! reuses the first-occurrence scanner from the telemetry health layer
//! (the workspace carries no serde).

use ropuf_telemetry::health::extract_number;

/// The comparable subset of a `BENCH_fleet.json` record.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Fleet size the bench ran.
    pub boards: u64,
    /// Bits per board (floorplan pair count).
    pub bits_per_board: u64,
    /// Parallel throughput, boards per second.
    pub boards_per_sec: f64,
    /// Whether the parallel pass matched the serial reference.
    pub deterministic: bool,
    /// Fleet uniqueness, when the record carried one (`null` when
    /// fewer than two boards were comparable).
    pub uniqueness: Option<f64>,
    /// Worker threads the parallel pass ran on, when the record carried
    /// the field. `boards_per_sec` figures are only commensurable at
    /// equal thread counts.
    pub threads: Option<u64>,
    /// CPU cores available where the record was measured, when carried.
    /// The scaling gate can only demand as much speedup as the machine
    /// can physically deliver.
    pub cores: Option<u64>,
    /// The `(threads, speedup)` scaling curve, in document order; each
    /// speedup is relative to the sweep's own 1-thread pass. Empty for
    /// pre-curve records.
    pub speedup_curve: Vec<(u64, f64)>,
    /// Worst-corner flip rate of the aged fleet under nominal-only
    /// enrollment, when the record carries the corner-objective
    /// comparison.
    pub worst_corner_flip_rate_nominal: Option<f64>,
    /// Worst-corner flip rate of the same aged fleet under the
    /// multi-corner objective; the gate demands this sits strictly
    /// below the nominal-only rate.
    pub worst_corner_flip_rate_multi_corner: Option<f64>,
    /// Count-leak attack advantage against the guarded Case-2 kernel,
    /// when the record carries the attack headline. The gate demands
    /// this stays below `GUARDED_ADVANTAGE_CEILING` (0.1).
    pub attacker_advantage_guarded: Option<f64>,
    /// The same attack's advantage against the deliberately unguarded
    /// kernel — the canary proving the attack still has teeth; the gate
    /// demands it stays above `BROKEN_ADVANTAGE_FLOOR` (0.2).
    pub attacker_advantage_broken: Option<f64>,
}

impl BenchRecord {
    /// Parses the fields this gate compares out of a bench JSON
    /// document. Errors name the first missing field.
    pub fn parse(text: &str) -> Result<Self, String> {
        let number = |key: &str| {
            extract_number(text, key).ok_or_else(|| format!("missing numeric field {key:?}"))
        };
        let boards = number("boards")? as u64;
        let bits_per_board = number("bits_per_board")? as u64;
        let boards_per_sec = number("boards_per_sec")?;
        let deterministic = if text.contains("\"deterministic\": true") {
            true
        } else if text.contains("\"deterministic\": false") {
            false
        } else {
            return Err("missing boolean field \"deterministic\"".to_string());
        };
        Ok(Self {
            boards,
            bits_per_board,
            boards_per_sec,
            deterministic,
            uniqueness: extract_number(text, "uniqueness"),
            threads: extract_number(text, "threads").map(|t| t as u64),
            cores: extract_number(text, "cores").map(|c| c as u64),
            speedup_curve: parse_speedup_curve(text),
            worst_corner_flip_rate_nominal: extract_number(text, "worst_corner_flip_rate_nominal"),
            worst_corner_flip_rate_multi_corner: extract_number(
                text,
                "worst_corner_flip_rate_multi_corner",
            ),
            attacker_advantage_guarded: extract_number(text, "attacker_advantage_guarded"),
            attacker_advantage_broken: extract_number(text, "attacker_advantage_broken"),
        })
    }
}

/// Extracts the `"speedup_curve": [{"threads": …, "speedup": …}, …]`
/// array. The top-level `"threads"`/`"speedup"` keys come first in the
/// document, so the first-occurrence scanner cannot read the curve
/// entries directly; this slices the array out and scans each `{…}`
/// chunk on its own. Records without the key (or with an empty array)
/// parse to an empty curve.
fn parse_speedup_curve(text: &str) -> Vec<(u64, f64)> {
    let Some(key_at) = text.find("\"speedup_curve\"") else {
        return Vec::new();
    };
    let tail = &text[key_at..];
    let Some(open) = tail.find('[') else {
        return Vec::new();
    };
    let Some(close) = tail[open..].find(']') else {
        return Vec::new();
    };
    // Entries are flat objects (no nested arrays), so the first `]`
    // closes the curve; split the slice into per-point `{…}` chunks.
    tail[open + 1..open + close]
        .split('}')
        .filter_map(|chunk| {
            let threads = extract_number(chunk, "threads")?;
            let speedup = extract_number(chunk, "speedup")?;
            Some((threads as u64, speedup))
        })
        .collect()
}

/// Largest accepted fractional throughput loss (0.25 = fresh may be up
/// to 25 % slower than the baseline; faster always passes).
const MAX_THROUGHPUT_REGRESSION: f64 = 0.25;

/// Largest accepted fractional serve p99 latency growth (0.5 = fresh
/// p99 may be up to 50 % above the baseline; lower always passes). Wide
/// on purpose: tail latency on shared CI hardware is noisy, but a 10x
/// blow-up is a real regression and must fail.
const MAX_P99_REGRESSION: f64 = 0.5;

/// Largest accepted absolute change of the uniqueness statistic.
const MAX_UNIQUENESS_DELTA: f64 = 1e-9;

/// Smallest accepted fraction of the physically achievable speedup at
/// the gated thread count (0.7 = the 8-thread pass must reach at least
/// 70 % of `min(8, cores)`). A flat curve on a multi-core machine means
/// the parallel path stopped scaling — the regression this gate exists
/// to catch.
const MIN_SCALING_FRACTION: f64 = 0.7;

/// Compares `fresh` against `baseline`; returns one message per
/// violated claim (empty = gate passes) and the non-fatal notes the
/// comparison logged — today that is the reason a gate was skipped,
/// such as the throughput band when one record does not carry a thread
/// count.
///
/// Thread handling:
///
/// * both records carry `threads` and they match — throughput is
///   compared normally;
/// * both carry `threads` but they differ — a **violation**:
///   `boards_per_sec` at different worker counts is not a regression
///   signal, and the baseline must be regenerated at the pinned count;
/// * either record lacks `threads` (a pre-thread-field baseline) — the
///   throughput band is skipped with a logged note, because a silent
///   cross-thread comparison is exactly the bug this gate had.
pub fn compare_with_notes(
    baseline: &BenchRecord,
    fresh: &BenchRecord,
) -> (Vec<String>, Vec<String>) {
    let mut violations = Vec::new();
    let mut notes = Vec::new();
    if fresh.boards != baseline.boards {
        violations.push(format!(
            "fleet shape changed: baseline ran {} boards, fresh ran {}",
            baseline.boards, fresh.boards
        ));
    }
    if fresh.bits_per_board != baseline.bits_per_board {
        violations.push(format!(
            "fleet shape changed: baseline produced {} bits/board, fresh produced {}",
            baseline.bits_per_board, fresh.bits_per_board
        ));
    }
    if !baseline.deterministic {
        violations.push("baseline record claims deterministic: false".to_string());
    }
    if !fresh.deterministic {
        violations.push("fresh run was NOT deterministic (parallel != serial)".to_string());
    }
    match (baseline.uniqueness, fresh.uniqueness) {
        (Some(b), Some(f)) => {
            let delta = (f - b).abs();
            if delta > MAX_UNIQUENESS_DELTA {
                violations.push(format!(
                    "uniqueness drifted: baseline {b}, fresh {f} (|Δ| {delta:e} > \
                     {MAX_UNIQUENESS_DELTA:e})"
                ));
            }
        }
        (Some(b), None) => {
            violations.push(format!("uniqueness vanished: baseline {b}, fresh null"))
        }
        (None, Some(f)) => {
            violations.push(format!("uniqueness appeared: baseline null, fresh {f}"))
        }
        (None, None) => {}
    }
    // The corner-objective claim is within-record: the multi-corner
    // arm's worst-corner flip rate must sit strictly below the
    // nominal-only arm's on the same aged fleet. Assessment is
    // noiseless and seed-determined, so there is no tolerance band —
    // an inversion means the multi-corner objective stopped paying for
    // its bit cost. Records predating the fields are grandfathered
    // with a note.
    check_corner_objective("baseline", baseline, &mut violations, &mut notes);
    check_corner_objective("fresh", fresh, &mut violations, &mut notes);
    // The attack claim is also within-record and noiseless: the §III
    // guard must hold the count-leak attack near chance while the
    // broken-variant canary proves the attack itself still works.
    check_attack_guard("baseline", baseline, &mut violations, &mut notes);
    check_attack_guard("fresh", fresh, &mut violations, &mut notes);
    // Scaling is gated per record (against its own machine), not
    // cross-record: each record's 8-thread point must reach the
    // tolerance fraction of what its core count can deliver. This runs
    // before the thread-count match below because a skipped throughput
    // band must not also skip the scaling claim.
    check_scaling("baseline", baseline, &mut violations, &mut notes);
    check_scaling("fresh", fresh, &mut violations, &mut notes);
    // Only throughput is compared band-wise; the shape checks above
    // make the boards/sec figures commensurable — provided the two
    // records also ran on the same number of worker threads.
    match (baseline.threads, fresh.threads) {
        (Some(b), Some(f)) if b != f => {
            violations.push(format!(
                "thread counts differ: baseline ran on {b} thread(s), fresh on {f}; \
                 boards/sec is not comparable — regenerate the baseline at the pinned \
                 thread count"
            ));
            return (violations, notes);
        }
        (None, _) | (_, None) => {
            notes.push(format!(
                "throughput comparison skipped: {} record carries no \"threads\" field, \
                 so boards/sec figures may come from different worker counts",
                if baseline.threads.is_none() {
                    "baseline"
                } else {
                    "fresh"
                }
            ));
            return (violations, notes);
        }
        _ => {}
    }
    let floor = baseline.boards_per_sec * (1.0 - MAX_THROUGHPUT_REGRESSION);
    if fresh.boards_per_sec < floor {
        violations.push(format!(
            "throughput regressed beyond {:.0}%: baseline {:.1} boards/sec, fresh {:.1} \
             (floor {:.1})",
            100.0 * MAX_THROUGHPUT_REGRESSION,
            baseline.boards_per_sec,
            fresh.boards_per_sec,
            floor
        ));
    }
    (violations, notes)
}

/// Applies the within-record corner-objective claim to one record: a
/// multi-corner flip rate at or above the nominal-only rate is a
/// violation, a record without the fields is grandfathered with a
/// note, and a record carrying only one of the pair is malformed.
fn check_corner_objective(
    label: &str,
    record: &BenchRecord,
    violations: &mut Vec<String>,
    notes: &mut Vec<String>,
) {
    match (
        record.worst_corner_flip_rate_nominal,
        record.worst_corner_flip_rate_multi_corner,
    ) {
        (Some(nominal), Some(multi)) => {
            if multi >= nominal {
                violations.push(format!(
                    "{label} corner objective inverted: multi-corner worst-corner flip rate \
                     {multi} must sit strictly below nominal-only {nominal}"
                ));
            }
        }
        (None, None) => notes.push(format!(
            "corner-objective gate skipped: {label} record predates the \
             worst_corner_flip_rate fields"
        )),
        _ => violations.push(format!(
            "{label} record carries only one worst_corner_flip_rate field — \
             the corner-objective claim needs both arms"
        )),
    }
}

/// Largest count-leak advantage the guarded kernel may concede. The
/// attack abstains on every equal-count envelope, so a healthy record
/// carries exactly 0; the ceiling leaves room only for a future scoring
/// tweak, never for a real leak (one exploitable bit in ten is far past
/// broken). Matches the `ropuf attack --assert-guard` threshold.
const GUARDED_ADVANTAGE_CEILING: f64 = 0.1;

/// Smallest advantage the attack must extract from the deliberately
/// unguarded kernel. Below this the canary has gone quiet: a suite
/// that cannot break the broken variant proves nothing by failing to
/// break the guarded one, so "guarded looks safe" would be vacuous.
const BROKEN_ADVANTAGE_FLOOR: f64 = 0.2;

/// Applies the within-record §III attack claim to one record: the
/// guarded kernel must hold the count-leak advantage at (near) zero
/// while the unguarded canary stays cleanly broken. Both figures are
/// seed-determined and noiseless, so the bands are constants, not
/// tolerances. A record without the fields is grandfathered with a
/// note; one carrying only half the pair is malformed.
fn check_attack_guard(
    label: &str,
    record: &BenchRecord,
    violations: &mut Vec<String>,
    notes: &mut Vec<String>,
) {
    match (
        record.attacker_advantage_guarded,
        record.attacker_advantage_broken,
    ) {
        (Some(guarded), Some(broken)) => {
            if guarded > GUARDED_ADVANTAGE_CEILING {
                violations.push(format!(
                    "{label} guarded kernel leaks: count-leak advantage {guarded} exceeds \
                     {GUARDED_ADVANTAGE_CEILING} — the §III equal-count guard is not holding"
                ));
            }
            if broken < BROKEN_ADVANTAGE_FLOOR {
                violations.push(format!(
                    "{label} attack canary went quiet: advantage {broken} against the \
                     unguarded kernel is below {BROKEN_ADVANTAGE_FLOOR}, so the guarded \
                     figure proves nothing"
                ));
            }
        }
        (None, None) => notes.push(format!(
            "attack gate skipped: {label} record predates the attacker_advantage fields"
        )),
        _ => violations.push(format!(
            "{label} record carries only one attacker_advantage field — the attack \
             claim needs both the guarded figure and the broken-variant canary"
        )),
    }
}

/// The thread count whose curve point the scaling gate bands.
const GATED_CURVE_THREADS: u64 = 8;

/// Applies the multi-thread scaling band to one record. A record with
/// neither `cores` nor a curve predates the scaling fields and is
/// silently grandfathered; one carrying only half the information is
/// skipped with a note. A record with both must carry the gated thread
/// count and reach [`MIN_SCALING_FRACTION`] × `min(8, cores)`
/// there — the core count caps the demand at what the machine
/// can physically deliver, so a flat curve on one core passes while the
/// same curve on eight cores is a collapsed parallel path.
fn check_scaling(
    label: &str,
    record: &BenchRecord,
    violations: &mut Vec<String>,
    notes: &mut Vec<String>,
) {
    let Some(cores) = record.cores else {
        if !record.speedup_curve.is_empty() {
            notes.push(format!(
                "scaling gate skipped: {label} record carries a curve but no \"cores\" field"
            ));
        }
        return;
    };
    let curve = &record.speedup_curve;
    if curve.is_empty() {
        notes.push(format!(
            "scaling gate skipped: {label} record carries \"cores\" but no \"speedup_curve\""
        ));
        return;
    }
    let Some(&(_, speedup)) = curve.iter().find(|&&(t, _)| t == GATED_CURVE_THREADS) else {
        violations.push(format!(
            "{label} scaling curve carries no {GATED_CURVE_THREADS}-thread point"
        ));
        return;
    };
    let achievable = GATED_CURVE_THREADS.min(cores.max(1)) as f64;
    if achievable < 2.0 {
        // A single-core machine cannot express parallel speedup at all;
        // oversubscribed thread counts there measure scheduler noise,
        // not the engine. Record the curve, skip the band.
        notes.push(format!(
            "scaling gate skipped: {label} record was measured on a single core"
        ));
        return;
    }
    let floor = MIN_SCALING_FRACTION * achievable;
    if speedup < floor {
        violations.push(format!(
            "{label} parallel scaling collapsed: {GATED_CURVE_THREADS}-thread speedup \
             {speedup:.2}x on a {cores}-core machine (floor {floor:.2}x = {:.0}% of \
             min({GATED_CURVE_THREADS}, cores))",
            100.0 * MIN_SCALING_FRACTION
        ));
    }
}

/// One gated scale of a `BENCH_serve.json` record.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeScale {
    /// The flattened-key label (`10k`, `100k`, `1m`).
    pub label: String,
    /// Auth requests per second at this enrolled-fleet size.
    pub auth_ops_per_sec: f64,
    /// 99th-percentile per-op latency, microseconds. Banded by
    /// `MAX_P99_REGRESSION` at matching thread counts (a
    /// wide band — tail latency on shared CI hardware is noisy), and
    /// always reported as a note; vanishing is a violation.
    pub p99_us: f64,
}

/// The comparable subset of a `BENCH_serve.json` record.
///
/// Distinguished from [`BenchRecord`] by its `"kind": "serve"` marker;
/// [`ServeRecord::is_serve_record`] lets the CLI route a baseline file
/// to the right comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRecord {
    /// Worker threads the auth phase ran on, when recorded.
    pub threads: Option<u64>,
    /// Whether the same-seed drill transcript was byte-identical
    /// across two server worker counts.
    pub deterministic: bool,
    /// Per-scale figures, in document order.
    pub scales: Vec<ServeScale>,
}

impl ServeRecord {
    /// Whether `text` is a serve bench document (vs a fleet one).
    pub fn is_serve_record(text: &str) -> bool {
        text.contains("\"kind\": \"serve\"")
    }

    /// Parses the gated fields out of a `BENCH_serve.json` document.
    /// Errors name the first problem.
    pub fn parse(text: &str) -> Result<Self, String> {
        if !Self::is_serve_record(text) {
            return Err("not a serve bench record (no \"kind\": \"serve\")".to_string());
        }
        let deterministic = if text.contains("\"deterministic\": true") {
            true
        } else if text.contains("\"deterministic\": false") {
            false
        } else {
            return Err("missing boolean field \"deterministic\"".to_string());
        };
        let mut scales = Vec::new();
        for label in ["10k", "100k", "1m"] {
            let throughput = extract_number(text, &format!("auth_ops_per_sec_{label}"));
            let p99 = extract_number(text, &format!("p99_us_{label}"));
            match (throughput, p99) {
                (Some(auth_ops_per_sec), Some(p99_us)) => scales.push(ServeScale {
                    label: label.to_string(),
                    auth_ops_per_sec,
                    p99_us,
                }),
                (None, None) => {} // scale not run — fine if both agree
                (Some(_), None) => {
                    return Err(format!("scale {label} carries throughput but no p99_us"))
                }
                (None, Some(_)) => {
                    return Err(format!("scale {label} carries p99_us but no throughput"))
                }
            }
        }
        if scales.is_empty() {
            return Err("serve record carries no gated scales".to_string());
        }
        Ok(Self {
            threads: extract_number(text, "threads").map(|t| t as u64),
            deterministic,
            scales,
        })
    }
}

/// Compares a fresh serve record against the committed baseline under
/// the same thread-handling rules as [`compare_with_notes`]: drill
/// determinism is a hard claim in both records, per-scale auth
/// throughput is banded by `MAX_THROUGHPUT_REGRESSION` (only at
/// matching thread counts), and a scale present in the baseline may
/// not vanish from the fresh run. p99 figures are banded by
/// `MAX_P99_REGRESSION` (also only at matching thread counts) and
/// reported as notes either way.
pub fn compare_serve_with_notes(
    baseline: &ServeRecord,
    fresh: &ServeRecord,
) -> (Vec<String>, Vec<String>) {
    let mut violations = Vec::new();
    let mut notes = Vec::new();
    if !baseline.deterministic {
        violations.push("baseline record claims deterministic: false".to_string());
    }
    if !fresh.deterministic {
        violations.push("fresh drill was NOT deterministic across worker counts".to_string());
    }
    let comparable = match (baseline.threads, fresh.threads) {
        (Some(b), Some(f)) if b != f => {
            violations.push(format!(
                "thread counts differ: baseline ran on {b} thread(s), fresh on {f}; \
                 auth ops/sec is not comparable — regenerate the baseline at the pinned \
                 thread count"
            ));
            false
        }
        (None, _) | (_, None) => {
            notes.push(format!(
                "throughput comparison skipped: {} record carries no \"threads\" field, \
                 so auth ops/sec figures may come from different worker counts",
                if baseline.threads.is_none() {
                    "baseline"
                } else {
                    "fresh"
                }
            ));
            false
        }
        _ => true,
    };
    for base_scale in &baseline.scales {
        let Some(fresh_scale) = fresh.scales.iter().find(|s| s.label == base_scale.label) else {
            violations.push(format!(
                "scale {} vanished: baseline measured it, fresh did not",
                base_scale.label
            ));
            continue;
        };
        notes.push(format!(
            "scale {}: p99 {:.1} us (baseline {:.1} us)",
            base_scale.label, fresh_scale.p99_us, base_scale.p99_us
        ));
        if !comparable {
            continue;
        }
        let floor = base_scale.auth_ops_per_sec * (1.0 - MAX_THROUGHPUT_REGRESSION);
        if fresh_scale.auth_ops_per_sec < floor {
            violations.push(format!(
                "auth throughput at {} regressed beyond {:.0}%: baseline {:.1} ops/sec, \
                 fresh {:.1} (floor {:.1})",
                base_scale.label,
                100.0 * MAX_THROUGHPUT_REGRESSION,
                base_scale.auth_ops_per_sec,
                fresh_scale.auth_ops_per_sec,
                floor
            ));
        }
        let ceiling = base_scale.p99_us * (1.0 + MAX_P99_REGRESSION);
        if fresh_scale.p99_us > ceiling {
            violations.push(format!(
                "p99 latency at {} regressed beyond {:.0}%: baseline {:.1} us, \
                 fresh {:.1} (ceiling {:.1})",
                base_scale.label,
                100.0 * MAX_P99_REGRESSION,
                base_scale.p99_us,
                fresh_scale.p99_us,
                ceiling
            ));
        }
    }
    (violations, notes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(boards_per_sec: f64) -> BenchRecord {
        BenchRecord {
            boards: 64,
            bits_per_board: 34,
            boards_per_sec,
            deterministic: true,
            uniqueness: Some(0.4969070961718023),
            threads: Some(1),
            cores: None,
            speedup_curve: Vec::new(),
            worst_corner_flip_rate_nominal: Some(0.1),
            worst_corner_flip_rate_multi_corner: Some(0.01),
            attacker_advantage_guarded: Some(0.0),
            attacker_advantage_broken: Some(0.5),
        }
    }

    #[test]
    fn identical_records_pass() {
        let r = record(1000.0);
        assert!(compare_with_notes(&r, &r).0.is_empty());
    }

    #[test]
    fn parse_reads_the_committed_shape() {
        let text = r#"{
  "boards": 64,
  "bits_per_board": 34,
  "threads": 1,
  "serial_secs": 0.06798537,
  "parallel_secs": 0.044350082,
  "boards_per_sec": 1443.0638482246775,
  "speedup": 1.5329254633621647,
  "deterministic": true,
  "uniqueness": 0.4969070961718023,
  "corners": [{"voltage_v": 1.2, "temperature_c": 25, "flip_rate": 0}],
  "stages": {"grow_us": 5028, "enroll_us": 30641, "respond_us": 8297, "boards": 64, "steals": 0}
}"#;
        let r = BenchRecord::parse(text).unwrap();
        assert_eq!(r.boards, 64);
        assert_eq!(r.bits_per_board, 34);
        assert!(r.deterministic);
        assert_eq!(r.uniqueness, Some(0.4969070961718023));
        assert_eq!(r.threads, Some(1));
        assert!((r.boards_per_sec - 1443.0638482246775).abs() < 1e-9);
    }

    #[test]
    fn parse_rejects_missing_fields() {
        assert!(BenchRecord::parse("{}").unwrap_err().contains("boards"));
        assert!(BenchRecord::parse(
            "{\"boards\": 1, \"bits_per_board\": 2, \"boards_per_sec\": 3}"
        )
        .unwrap_err()
        .contains("deterministic"));
    }

    #[test]
    fn fabricated_2x_regression_fails() {
        let baseline = record(1000.0);
        let fresh = record(500.0); // 2x slower
        let violations = compare_with_notes(&baseline, &fresh).0;
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(
            violations[0].contains("throughput regressed"),
            "{violations:?}"
        );
    }

    #[test]
    fn small_throughput_dip_passes_but_speedup_always_passes() {
        let baseline = record(1000.0);
        assert!(compare_with_notes(&baseline, &record(800.0)).0.is_empty());
        assert!(compare_with_notes(&baseline, &record(5000.0)).0.is_empty());
        // Exactly at the floor still passes (band is inclusive).
        assert!(compare_with_notes(&baseline, &record(750.0)).0.is_empty());
        assert!(!compare_with_notes(&baseline, &record(749.0)).0.is_empty());
    }

    #[test]
    fn determinism_and_uniqueness_drift_are_hard_failures() {
        let baseline = record(1000.0);
        let mut broken = record(1000.0);
        broken.deterministic = false;
        assert!(compare_with_notes(&baseline, &broken)
            .0
            .iter()
            .any(|v| v.contains("NOT deterministic")));
        let mut drifted = record(1000.0);
        drifted.uniqueness = Some(0.51);
        assert!(compare_with_notes(&baseline, &drifted)
            .0
            .iter()
            .any(|v| v.contains("uniqueness drifted")));
        let mut vanished = record(1000.0);
        vanished.uniqueness = None;
        assert!(compare_with_notes(&baseline, &vanished)
            .0
            .iter()
            .any(|v| v.contains("vanished")));
    }

    #[test]
    fn mismatched_thread_counts_are_a_hard_failure() {
        // A fabricated baseline measured at 8 threads must NOT silently
        // gate a 1-thread fresh run, even when the fresh throughput
        // would pass the band on its own.
        let mut baseline = record(1000.0);
        baseline.threads = Some(8);
        let fresh = record(8000.0);
        let (violations, notes) = compare_with_notes(&baseline, &fresh);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(
            violations[0].contains("thread counts differ")
                && violations[0].contains("8 thread")
                && violations[0].contains("fresh on 1")
                && violations[0].contains("regenerate the baseline"),
            "{violations:?}"
        );
        assert!(notes.is_empty(), "{notes:?}");
    }

    #[test]
    fn missing_thread_count_skips_throughput_with_a_note() {
        // Pre-thread-field baseline: the would-be 2x regression must not
        // fire, and the skip must be explained.
        let mut baseline = record(1000.0);
        baseline.threads = None;
        let fresh = record(500.0);
        let (violations, notes) = compare_with_notes(&baseline, &fresh);
        assert!(violations.is_empty(), "{violations:?}");
        assert_eq!(notes.len(), 1, "{notes:?}");
        assert!(
            notes[0].contains("throughput comparison skipped") && notes[0].contains("baseline"),
            "{notes:?}"
        );
    }

    #[test]
    fn parse_reads_cores_and_speedup_curve() {
        let text = r#"{
  "boards": 1024,
  "bits_per_board": 34,
  "threads": 8,
  "cores": 8,
  "serial_secs": 2.0,
  "parallel_secs": 0.3,
  "boards_per_sec": 3413.3,
  "speedup": 6.67,
  "speedup_curve": [{"threads": 1, "secs": 2.0, "speedup": 1.0}, {"threads": 2, "secs": 1.05, "speedup": 1.9}, {"threads": 4, "secs": 0.54, "speedup": 3.7}, {"threads": 8, "secs": 0.31, "speedup": 6.4}],
  "deterministic": true,
  "uniqueness": 0.5
}"#;
        let r = BenchRecord::parse(text).unwrap();
        assert_eq!(r.cores, Some(8));
        assert_eq!(r.threads, Some(8), "top-level threads, not a curve entry");
        assert_eq!(r.speedup_curve.len(), 4);
        assert_eq!(r.speedup_curve[0], (1, 1.0));
        assert_eq!(r.speedup_curve[3].0, 8);
        assert!((r.speedup_curve[3].1 - 6.4).abs() < 1e-9);
        // Pre-curve records parse to the grandfathered shape.
        let old = BenchRecord::parse(
            "{\"boards\": 1, \"bits_per_board\": 2, \"boards_per_sec\": 3, \
             \"deterministic\": true}",
        )
        .unwrap();
        assert_eq!(old.cores, None);
        assert!(old.speedup_curve.is_empty());
    }

    #[test]
    fn fabricated_flat_curve_on_a_multicore_machine_fails() {
        // The must-fail proof for the scaling gate: an 8-core machine
        // whose 8-thread pass runs no faster than its 1-thread pass is
        // exactly the parallel-slower-than-serial regression this PR
        // fixed, and the gate must refuse it.
        let baseline = record(1000.0);
        let mut flat = record(1000.0);
        flat.cores = Some(8);
        flat.speedup_curve = vec![(1, 1.0), (2, 1.0), (4, 1.0), (8, 0.94)];
        let (violations, _) = compare_with_notes(&baseline, &flat);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(
            violations[0].contains("fresh parallel scaling collapsed")
                && violations[0].contains("8-thread speedup 0.94x")
                && violations[0].contains("8-core machine"),
            "{violations:?}"
        );
        // The same flat curve in the committed baseline is flagged too.
        let (violations, _) = compare_with_notes(&flat, &baseline);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("baseline parallel scaling collapsed")),
            "{violations:?}"
        );
    }

    #[test]
    fn flat_curve_on_a_single_core_machine_skips_with_a_note() {
        // Build containers may have one core; oversubscribed thread
        // counts there measure scheduler noise, not the engine, so an
        // honest flat (or even declining) curve is noted, never failed.
        let baseline = record(1000.0);
        let mut fresh = record(1000.0);
        fresh.cores = Some(1);
        fresh.speedup_curve = vec![(1, 1.0), (2, 0.91), (4, 0.81), (8, 0.66)];
        let (violations, notes) = compare_with_notes(&baseline, &fresh);
        assert!(violations.is_empty(), "{violations:?}");
        assert!(
            notes
                .iter()
                .any(|n| n.contains("scaling gate skipped") && n.contains("single core")),
            "{notes:?}"
        );
        // Two cores are enough to demand real scaling: 0.7 × min(8, 2).
        fresh.cores = Some(2);
        let (violations, _) = compare_with_notes(&baseline, &fresh);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(
            violations[0].contains("scaling collapsed"),
            "{violations:?}"
        );
    }

    #[test]
    fn healthy_scaling_curve_passes_and_partial_records_note() {
        let baseline = record(1000.0);
        let mut fresh = record(1000.0);
        fresh.cores = Some(8);
        fresh.speedup_curve = vec![(1, 1.0), (2, 1.9), (4, 3.7), (8, 6.4)];
        let (violations, _) = compare_with_notes(&baseline, &fresh);
        assert!(violations.is_empty(), "{violations:?}");

        // A curve whose gated point is missing is a malformed claim.
        fresh.speedup_curve = vec![(1, 1.0), (2, 1.9)];
        let (violations, _) = compare_with_notes(&baseline, &fresh);
        assert!(
            violations.iter().any(|v| v.contains("no 8-thread point")),
            "{violations:?}"
        );

        // Half-present scaling fields skip with a note, not a failure.
        let mut half = record(1000.0);
        half.cores = Some(8);
        let (violations, notes) = compare_with_notes(&baseline, &half);
        assert!(violations.is_empty(), "{violations:?}");
        assert!(
            notes
                .iter()
                .any(|n| n.contains("scaling gate skipped") && n.contains("no \"speedup_curve\"")),
            "{notes:?}"
        );
    }

    /// The must-fail proof for the corner-objective gate: a fabricated
    /// record where multi-corner enrollment flips *more* than
    /// nominal-only is exactly the regression the comparison exists to
    /// catch, and equality fails too (the claim is strict).
    #[test]
    fn fabricated_corner_objective_inversion_fails() {
        let baseline = record(1000.0);
        let mut inverted = record(1000.0);
        inverted.worst_corner_flip_rate_multi_corner = Some(0.2);
        let (violations, _) = compare_with_notes(&baseline, &inverted);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(
            violations[0].contains("fresh corner objective inverted"),
            "{violations:?}"
        );
        inverted.worst_corner_flip_rate_multi_corner = inverted.worst_corner_flip_rate_nominal;
        let (violations, _) = compare_with_notes(&baseline, &inverted);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("corner objective inverted")),
            "equality is not strictly below: {violations:?}"
        );
        // The same inversion in the committed baseline is flagged too.
        let (violations, _) = compare_with_notes(&inverted, &baseline);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("baseline corner objective inverted")),
            "{violations:?}"
        );
    }

    #[test]
    fn corner_objective_fields_grandfather_and_reject_half_presence() {
        let fresh = record(1000.0);
        let mut old = record(1000.0);
        old.worst_corner_flip_rate_nominal = None;
        old.worst_corner_flip_rate_multi_corner = None;
        let (violations, notes) = compare_with_notes(&old, &fresh);
        assert!(violations.is_empty(), "{violations:?}");
        assert!(
            notes
                .iter()
                .any(|n| n.contains("corner-objective gate skipped") && n.contains("baseline")),
            "{notes:?}"
        );
        let mut half = record(1000.0);
        half.worst_corner_flip_rate_multi_corner = None;
        let (violations, _) = compare_with_notes(&old, &half);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("only one worst_corner_flip_rate field")),
            "{violations:?}"
        );
    }

    #[test]
    fn parse_reads_the_corner_objective_fields() {
        let text = "{\"boards\": 1, \"bits_per_board\": 2, \"boards_per_sec\": 3, \
             \"deterministic\": true, \
             \"corner_objective\": {\"years\": 5, \"bits_nominal\": 34816, \
             \"corner_flips_nominal\": 4100, \"worst_corner_flip_rate_nominal\": 0.1177, \
             \"bits_multi_corner\": 30000, \"corner_flips_multi_corner\": 60, \
             \"worst_corner_flip_rate_multi_corner\": 0.002}}";
        let r = BenchRecord::parse(text).unwrap();
        assert_eq!(r.worst_corner_flip_rate_nominal, Some(0.1177));
        assert_eq!(r.worst_corner_flip_rate_multi_corner, Some(0.002));
        // Pre-objective records parse to the grandfathered shape.
        let old = BenchRecord::parse(
            "{\"boards\": 1, \"bits_per_board\": 2, \"boards_per_sec\": 3, \
             \"deterministic\": true}",
        )
        .unwrap();
        assert_eq!(old.worst_corner_flip_rate_nominal, None);
        assert_eq!(old.worst_corner_flip_rate_multi_corner, None);
    }

    /// The must-fail proof for the attack gate: a fabricated record
    /// whose guarded kernel concedes real advantage is exactly the
    /// regression `check-bench` exists to refuse — and a quiet canary
    /// (broken variant no longer broken) fails too, because a toothless
    /// attack would make the guarded figure vacuous.
    #[test]
    fn fabricated_guard_leak_fails() {
        let baseline = record(1000.0);
        let mut leaky = record(1000.0);
        leaky.attacker_advantage_guarded = Some(0.3);
        let (violations, _) = compare_with_notes(&baseline, &leaky);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(
            violations[0].contains("fresh guarded kernel leaks") && violations[0].contains("0.3"),
            "{violations:?}"
        );
        // Exactly at the ceiling still passes (the band is inclusive).
        leaky.attacker_advantage_guarded = Some(0.1);
        let (violations, _) = compare_with_notes(&baseline, &leaky);
        assert!(violations.is_empty(), "{violations:?}");
        // The same leak in the committed baseline is flagged too.
        leaky.attacker_advantage_guarded = Some(0.3);
        let (violations, _) = compare_with_notes(&leaky, &baseline);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("baseline guarded kernel leaks")),
            "{violations:?}"
        );
    }

    #[test]
    fn quiet_attack_canary_fails() {
        let baseline = record(1000.0);
        let mut quiet = record(1000.0);
        quiet.attacker_advantage_broken = Some(0.05);
        let (violations, _) = compare_with_notes(&baseline, &quiet);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(
            violations[0].contains("fresh attack canary went quiet"),
            "{violations:?}"
        );
    }

    #[test]
    fn attack_fields_grandfather_and_reject_half_presence() {
        let fresh = record(1000.0);
        let mut old = record(1000.0);
        old.attacker_advantage_guarded = None;
        old.attacker_advantage_broken = None;
        let (violations, notes) = compare_with_notes(&old, &fresh);
        assert!(violations.is_empty(), "{violations:?}");
        assert!(
            notes
                .iter()
                .any(|n| n.contains("attack gate skipped") && n.contains("baseline")),
            "{notes:?}"
        );
        let mut half = record(1000.0);
        half.attacker_advantage_broken = None;
        let (violations, _) = compare_with_notes(&old, &half);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("only one attacker_advantage field")),
            "{violations:?}"
        );
    }

    #[test]
    fn parse_reads_the_attack_fields() {
        let text = "{\"boards\": 1, \"bits_per_board\": 2, \"boards_per_sec\": 3, \
             \"deterministic\": true, \
             \"attack\": {\"attack_samples\": 96, \"attacker_advantage_guarded\": 0, \
             \"attacker_advantage_broken\": 0.5, \"attacker_accuracy_broken\": 1}}";
        let r = BenchRecord::parse(text).unwrap();
        assert_eq!(r.attacker_advantage_guarded, Some(0.0));
        assert_eq!(r.attacker_advantage_broken, Some(0.5));
        // Pre-attack records parse to the grandfathered shape.
        let old = BenchRecord::parse(
            "{\"boards\": 1, \"bits_per_board\": 2, \"boards_per_sec\": 3, \
             \"deterministic\": true}",
        )
        .unwrap();
        assert_eq!(old.attacker_advantage_guarded, None);
        assert_eq!(old.attacker_advantage_broken, None);
    }

    #[test]
    fn shape_changes_are_flagged() {
        let baseline = record(1000.0);
        let mut fresh = record(1000.0);
        fresh.boards = 32;
        fresh.bits_per_board = 17;
        let violations = compare_with_notes(&baseline, &fresh).0;
        assert_eq!(violations.len(), 2, "{violations:?}");
    }

    fn serve_record(per_sec: &[(&str, f64)]) -> ServeRecord {
        ServeRecord {
            threads: Some(1),
            deterministic: true,
            scales: per_sec
                .iter()
                .map(|&(label, auth_ops_per_sec)| ServeScale {
                    label: label.to_string(),
                    auth_ops_per_sec,
                    p99_us: 42.0,
                })
                .collect(),
        }
    }

    #[test]
    fn serve_parse_reads_flattened_keys_and_routes_by_kind() {
        let text = r#"{
  "kind": "serve",
  "threads": 1,
  "unique_boards": 256,
  "deterministic": true,
  "auth_ops_per_sec_10k": 61234.5,
  "p99_us_10k": 31.2,
  "auth_ops_per_sec_100k": 58111.0,
  "p99_us_100k": 44.8,
  "scales": []
}"#;
        assert!(ServeRecord::is_serve_record(text));
        assert!(!ServeRecord::is_serve_record("{\"boards\": 64}"));
        let r = ServeRecord::parse(text).unwrap();
        assert_eq!(r.threads, Some(1));
        assert!(r.deterministic);
        assert_eq!(r.scales.len(), 2, "1m absent from both keys is fine");
        assert_eq!(r.scales[0].label, "10k");
        assert!((r.scales[1].auth_ops_per_sec - 58111.0).abs() < 1e-9);
        assert!((r.scales[1].p99_us - 44.8).abs() < 1e-9);
    }

    #[test]
    fn serve_parse_rejects_half_present_scales_and_wrong_kind() {
        assert!(ServeRecord::parse("{\"boards\": 64}")
            .unwrap_err()
            .contains("not a serve"));
        let half = r#"{"kind": "serve", "deterministic": true, "auth_ops_per_sec_10k": 5.0}"#;
        assert!(ServeRecord::parse(half).unwrap_err().contains("no p99_us"));
        let none = r#"{"kind": "serve", "deterministic": true}"#;
        assert!(ServeRecord::parse(none)
            .unwrap_err()
            .contains("no gated scales"));
    }

    #[test]
    fn serve_identical_records_pass_with_p99_notes() {
        let r = serve_record(&[("10k", 60_000.0), ("100k", 55_000.0)]);
        let (violations, notes) = compare_serve_with_notes(&r, &r);
        assert!(violations.is_empty(), "{violations:?}");
        assert_eq!(notes.len(), 2, "one p99 note per scale: {notes:?}");
    }

    #[test]
    fn serve_per_scale_regression_and_vanished_scale_fail() {
        let baseline = serve_record(&[("10k", 60_000.0), ("100k", 55_000.0)]);
        let slow = serve_record(&[("10k", 60_000.0), ("100k", 20_000.0)]);
        let (violations, _) = compare_serve_with_notes(&baseline, &slow);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("auth throughput at 100k"));

        let missing = serve_record(&[("10k", 60_000.0)]);
        let (violations, _) = compare_serve_with_notes(&baseline, &missing);
        assert!(
            violations.iter().any(|v| v.contains("scale 100k vanished")),
            "{violations:?}"
        );
    }

    #[test]
    fn serve_p99_band_fails_on_fabricated_blowup_and_allows_improvement() {
        let baseline = serve_record(&[("10k", 60_000.0), ("100k", 55_000.0)]);

        // A fabricated 10x tail-latency regression must fail the gate
        // even though throughput is untouched.
        let mut blown = baseline.clone();
        blown.scales[1].p99_us = 420.0;
        let (violations, notes) = compare_serve_with_notes(&baseline, &blown);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(
            violations[0].contains("p99 latency at 100k"),
            "{violations:?}"
        );
        assert_eq!(notes.len(), 2, "p99 notes still reported: {notes:?}");

        // Just inside the 50% band: passes.
        let mut near = baseline.clone();
        near.scales[0].p99_us = 42.0 * 1.49;
        let (violations, _) = compare_serve_with_notes(&baseline, &near);
        assert!(violations.is_empty(), "{violations:?}");

        // Faster tail always passes.
        let mut faster = baseline.clone();
        faster.scales[0].p99_us = 1.0;
        let (violations, _) = compare_serve_with_notes(&baseline, &faster);
        assert!(violations.is_empty(), "{violations:?}");

        // Mismatched thread counts skip the p99 band too.
        let mut eight = baseline.clone();
        eight.threads = Some(8);
        eight.scales[1].p99_us = 420.0;
        let (violations, _) = compare_serve_with_notes(&baseline, &eight);
        assert_eq!(
            violations.len(),
            1,
            "only the thread mismatch: {violations:?}"
        );
        assert!(violations[0].contains("thread counts differ"));
    }

    #[test]
    fn serve_determinism_and_thread_rules_match_the_fleet_gate() {
        let baseline = serve_record(&[("10k", 60_000.0)]);
        let mut broken = baseline.clone();
        broken.deterministic = false;
        let (violations, _) = compare_serve_with_notes(&baseline, &broken);
        assert!(
            violations.iter().any(|v| v.contains("NOT deterministic")),
            "{violations:?}"
        );

        // Mismatched thread counts: hard failure, band not applied.
        let mut eight = serve_record(&[("10k", 10.0)]);
        eight.threads = Some(8);
        let (violations, _) = compare_serve_with_notes(&baseline, &eight);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("thread counts differ")),
            "{violations:?}"
        );
        assert_eq!(
            violations.len(),
            1,
            "band must not also fire: {violations:?}"
        );

        // Missing thread count: band skipped with a note, not a failure.
        let mut unknown = serve_record(&[("10k", 10.0)]);
        unknown.threads = None;
        let (violations, notes) = compare_serve_with_notes(&baseline, &unknown);
        assert!(violations.is_empty(), "{violations:?}");
        assert!(
            notes.iter().any(|n| n.contains("comparison skipped")),
            "{notes:?}"
        );
    }
}
