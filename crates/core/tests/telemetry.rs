//! Integration coverage for the telemetry instrumentation: JSON-lines
//! output must parse line by line, span nesting must balance, and the
//! counters the parallel runner and the enrollment kernel emit must be
//! exact.
//!
//! Telemetry is process-global: [`telemetry::scoped`] serializes scopes
//! against each other, but any test emitting *outside* a scope while
//! another test's scope is open lands in that scope's counts. So every
//! test in this binary does all its instrumented work inside a scope.

use std::sync::Arc;

use ropuf_core::fleet::{parallel_map_indexed, FleetConfig, FleetEngine};
use ropuf_core::puf::EnrollOptions;
use ropuf_silicon::{DelayProbe, Environment, SiliconSim};
use ropuf_telemetry::{self as telemetry, JsonLinesSink, MemorySink};

fn engine(boards: usize) -> FleetEngine {
    FleetEngine::new(
        SiliconSim::default_spartan(),
        FleetConfig {
            boards,
            units: 80,
            cols: 8,
            stages: 4,
            opts: EnrollOptions::default(),
            corners: vec![Environment::nominal(), Environment::new(1.32, 55.0)],
            response_probe: DelayProbe::new(0.25, 1),
            votes: 1,
            aging: None,
            faults: None,
            threads: None,
        },
    )
    .expect("valid fleet config")
}

/// Minimal structural validation of one JSON object on one line:
/// balanced braces/brackets outside strings, no control characters
/// inside strings, and the expected `"type"` tag. The workspace carries
/// no JSON parser, so this plays the role a real consumer's parser
/// would.
fn check_json_object(line: &str) -> Result<(), String> {
    let line = line.trim();
    if !line.starts_with('{') || !line.ends_with('}') {
        return Err(format!("not an object: {line:?}"));
    }
    let mut depth: i64 = 0;
    let mut in_string = false;
    let mut escaped = false;
    for c in line.chars() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            } else if (c as u32) < 0x20 {
                return Err(format!("raw control character in string: {line:?}"));
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' | '[' => depth += 1,
            '}' | ']' => {
                depth -= 1;
                if depth < 0 {
                    return Err(format!("unbalanced nesting: {line:?}"));
                }
            }
            _ => {}
        }
    }
    if depth != 0 || in_string {
        return Err(format!("unterminated object: {line:?}"));
    }
    if !line.contains("\"type\":") {
        return Err(format!("missing type tag: {line:?}"));
    }
    Ok(())
}

#[test]
fn jsonl_sink_emits_parseable_lines() {
    let dir = std::env::temp_dir().join(format!("ropuf-telemetry-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("trace.jsonl");
    let sink = Arc::new(JsonLinesSink::create(&path).expect("create trace file"));
    telemetry::scoped(sink, || {
        engine(4).run_on(3, 2);
        telemetry::warn("synthetic warning with \"quotes\" and a\ttab");
    });
    let text = std::fs::read_to_string(&path).expect("trace file readable");
    std::fs::remove_dir_all(&dir).ok();
    let lines: Vec<&str> = text.lines().collect();
    assert!(!lines.is_empty(), "trace file must not be empty");
    for line in &lines {
        check_json_object(line).unwrap();
    }
    // The stream must carry all three record kinds: per-board spans,
    // the warning, and the counter/histogram snapshot from the flush.
    for kind in [
        "\"type\":\"span\"",
        "\"type\":\"warn\"",
        "\"type\":\"counter\"",
    ] {
        assert!(
            lines.iter().any(|l| l.contains(kind)),
            "no {kind} line in trace"
        );
    }
    assert!(
        lines
            .iter()
            .any(|l| l.contains("\"type\":\"span\"") && l.contains("fleet.board")),
        "per-board spans missing from trace"
    );
    // The escaping survived: the tab must appear as \t, never raw.
    assert!(text.contains(r"\t"), "warning tab must be escaped");
}

#[test]
fn span_nesting_balances() {
    let sink = Arc::new(MemorySink::default());
    telemetry::scoped(sink.clone(), || {
        engine(6).run_on(11, 3);
    });
    let spans = sink.spans();
    assert!(!spans.is_empty());
    // Every closed span carries the depth at which it was opened; a
    // child (grow/enroll/respond, depth 1) implies its board parent
    // (depth 0) eventually closes too, on the same thread.
    for span in &spans {
        match span.name {
            "fleet.board" => assert_eq!(span.depth, 0, "board spans are roots"),
            "fleet.grow" | "fleet.enroll" | "fleet.respond" => {
                assert_eq!(span.depth, 1, "{} nests inside fleet.board", span.name);
            }
            _ => {}
        }
    }
    // Per board: one root span and exactly one grow/enroll/respond.
    assert_eq!(sink.span_count("fleet.board"), 6);
    assert_eq!(sink.span_count("fleet.grow"), 6);
    assert_eq!(sink.span_count("fleet.enroll"), 6);
    assert_eq!(sink.span_count("fleet.respond"), 6);
    // Each thread opened and closed strictly nested spans, so for
    // every (thread, depth=1) span there is a (thread, depth=0) span
    // that finished at or after it.
    for child in spans.iter().filter(|s| s.depth == 1) {
        let child_end = child.start_us + child.dur_us;
        assert!(
            spans.iter().any(|p| {
                p.depth == 0 && p.thread == child.thread && p.start_us + p.dur_us >= child_end
            }),
            "child span {child:?} has no enclosing root on its thread"
        );
    }
}

#[test]
fn parallel_counters_are_exact_at_every_thread_count() {
    const ITEMS: usize = 137;
    for threads in [1usize, 2, 4, 8] {
        let sink = Arc::new(MemorySink::default());
        let out = telemetry::scoped(sink.clone(), || {
            parallel_map_indexed(ITEMS, threads, |i| i * i)
        });
        assert_eq!(out, (0..ITEMS).map(|i| i * i).collect::<Vec<_>>());
        let snapshot = sink.snapshot().expect("flush delivered a snapshot");
        // Every item is processed exactly once, however the workers
        // raced for them.
        assert_eq!(
            snapshot.counter("parallel.items"),
            Some(ITEMS as u64),
            "threads = {threads}"
        );
        let workers = snapshot.counter("parallel.workers").expect("workers");
        assert!(
            workers >= 1 && workers <= threads as u64,
            "threads = {threads}, workers = {workers}"
        );
        // Work-stealing moves items between workers but never over the
        // total: no worker can claim more than count items above its
        // fair share, and with one thread nothing can be stolen.
        let steals = snapshot.counter("parallel.steals").unwrap_or(0);
        assert!(steals <= ITEMS as u64, "threads = {threads}");
        if threads == 1 {
            assert_eq!(steals, 0, "serial path cannot steal");
        }
        // The per-worker distribution histogram accounts for every item.
        let hist = snapshot
            .histogram("parallel.worker_items")
            .expect("worker histogram");
        assert_eq!(hist.count, workers, "threads = {threads}");
        assert_eq!(hist.sum, ITEMS as u64, "threads = {threads}");
    }
}

#[test]
fn warnings_reach_the_sink_verbatim() {
    let sink = Arc::new(MemorySink::default());
    telemetry::scoped(sink.clone(), || {
        telemetry::warn("RAYON_NUM_THREADS=\"8x\" is not a positive integer");
    });
    assert_eq!(
        sink.warnings(),
        vec!["RAYON_NUM_THREADS=\"8x\" is not a positive integer".to_string()]
    );
}

/// Runs one enrollment under a scoped sink and checks the kernel's
/// exact accounting: `readings` calibration readings in total and one
/// `enroll.pair` span per pair.
fn assert_kernel_counts(policy: &str, pairs: usize, readings: u64, enroll: impl FnOnce()) {
    let sink = Arc::new(MemorySink::default());
    telemetry::scoped(sink.clone(), enroll);
    let snapshot = sink.snapshot().expect("flush delivered a snapshot");
    assert_eq!(
        snapshot.counter("measure.batched"),
        Some(readings),
        "{policy}: readings"
    );
    assert_eq!(
        sink.span_count("enroll.pair"),
        pairs,
        "{policy}: pair spans"
    );
}

#[test]
fn enrollment_kernel_counts_are_exact() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ropuf_core::puf::{ConfigurableRoPuf, PairSpec};
    use ropuf_core::robust::{enroll_robust_in, FaultPlan};
    use ropuf_silicon::board::BoardId;
    use ropuf_silicon::{CornerSet, MeasureArena};

    let sim = SiliconSim::default_spartan();
    let tech = sim.technology();
    let board = sim.grow_board_with_id(&mut StdRng::seed_from_u64(5), BoardId(0), 64, 8);
    let uniform = ConfigurableRoPuf::tiled_interleaved(64, 5);
    let mixed = ConfigurableRoPuf::new(vec![
        PairSpec::split_at(0, 1),
        PairSpec::interleaved_at(2, 7),
        PairSpec::split_at(16, 4),
        PairSpec::interleaved_at(24, 2),
    ]);
    let env = Environment::nominal();
    let plan = FaultPlan::scaled(0.0);
    let mut arena = MeasureArena::new();
    for puf in [&uniform, &mixed] {
        for corners in [CornerSet::empty(), CornerSet::worst_case()] {
            let opts = EnrollOptions {
                corners,
                ..EnrollOptions::default()
            };
            // Σᵢ 2(nᵢ + 2) readings per corner.
            let per_corner: u64 = puf
                .specs()
                .iter()
                .map(|spec| 2 * (spec.stages() as u64 + 2))
                .sum();
            let readings = per_corner * opts.enrollment_corners(env).len() as u64;
            let pairs = puf.pair_count();
            assert_kernel_counts("shared", pairs, readings, || {
                let mut rng = StdRng::seed_from_u64(1);
                puf.enroll(&mut rng, &board, tech, env, &opts);
            });
            assert_kernel_counts("seeded", pairs, readings, || {
                puf.enroll_seeded_in(1, &board, tech, env, &opts, &mut arena);
            });
            assert_kernel_counts("screened", pairs, readings, || {
                enroll_robust_in(puf, 1, &board, tech, env, &opts, &plan, &mut arena);
            });
        }
    }
}

/// The multi-corner Case-2 solver reports its swap search once per call
/// as totals: swaps considered and swaps folded exactly. Two identical
/// calls count exactly twice one call, the prune bound skips most swaps
/// on a realistic five-corner pair, and the single-corner path (no swap
/// search) counts nothing.
#[test]
fn multi_corner_swap_counters_are_per_call_totals() {
    use ropuf_core::select::{case2_multi_corner, CornerDelays};
    use ropuf_core::ParityPolicy;

    let alpha = [24.1, 26.3, 25.7, 27.9, 25.2, 26.8, 24.9];
    let beta = [25.5, 24.4, 27.1, 26.0, 25.9, 24.7, 26.6];
    // Five corners: a global V/T scale with a little per-stage dispersion.
    let rings: Vec<(Vec<f64>, Vec<f64>, f64)> = [1.0, 0.93, 1.08, 0.97, 1.04]
        .iter()
        .enumerate()
        .map(|(c, &scale)| {
            let skew = |i: usize| scale * (1.0 + 0.002 * ((i * 7 + c * 3) % 5) as f64);
            (
                alpha.iter().enumerate().map(|(i, a)| a * skew(i)).collect(),
                beta.iter()
                    .enumerate()
                    .map(|(i, b)| b * skew(i + 1))
                    .collect(),
                0.4 * scale,
            )
        })
        .collect();
    let corners: Vec<CornerDelays<'_>> = rings
        .iter()
        .map(|(alpha, beta, offset_ps)| CornerDelays {
            alpha,
            beta,
            offset_ps: *offset_ps,
        })
        .collect();
    let counts = |corners: &[CornerDelays<'_>], calls: usize| {
        let sink = Arc::new(MemorySink::default());
        telemetry::scoped(sink.clone(), || {
            for _ in 0..calls {
                case2_multi_corner(corners, ParityPolicy::Ignore);
            }
        });
        let snapshot = sink.snapshot().expect("flush delivered a snapshot");
        (
            snapshot.counter("select.multi.case2.swaps"),
            snapshot.counter("select.multi.case2.swaps_exact"),
        )
    };
    let (Some(swaps), Some(exact)) = counts(&corners, 1) else {
        panic!("both swap counters are emitted");
    };
    assert!(swaps > 0 && exact < swaps, "swaps {swaps}, exact {exact}");
    assert_eq!(counts(&corners, 2), (Some(2 * swaps), Some(2 * exact)));
    assert_eq!(counts(&corners[..1], 1), (None, None));
}
