//! The `provision` and `provision_corners` workloads: closed batches of
//! boards through the provisioning pipeline on `nproc` workers.
//!
//! Each board is grown, enrolled at the nominal corner, turned into a
//! Key Code, persisted, and read back at the three `repro fleet`
//! corners — the path a provisioning line runs per board.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ropuf_core::fleet::{
    parallel_map_indexed_with, split_seed, BoardRecord, FleetConfig, FleetEngine,
};
use ropuf_core::lifecycle::{Device, KeyCode};
use ropuf_core::persist::enrollment_to_bytes;
use ropuf_core::puf::{ConfigurableRoPuf, EnrollOptions};
use ropuf_silicon::board::BoardId;
use ropuf_silicon::{CornerSet, DelayProbe, Environment, MeasureArena, SiliconSim};
use ropuf_telemetry::{self as telemetry, MemorySink};

use crate::ledger::{self, now_ns, Recorder, Row, Span};
use crate::load::{BATCH, SETUP_REPS};
use crate::{stats, sys, Args, Report};

/// Floorplan of `repro fleet`: 480 units on a 16-wide grid, 7 stages,
/// so 34 interleaved pairs.
pub(crate) const UNITS: usize = 480;
pub(crate) const COLS: usize = 16;
pub(crate) const STAGES: usize = 7;
/// Repetition factor of the provisioning Key Code.
pub(crate) const REPETITION: usize = 3;
/// Per-board seed streams, matching `FleetEngine` so boards are
/// comparable with its serial reference.
pub(crate) const STREAM_GROW: u64 = 0;
pub(crate) const STREAM_ENROLL: u64 = 1;
const STREAM_CORNER_BASE: u64 = 2;
/// Boards checked against the per-ring enrollment kernel.
const PER_RING_SAMPLE: usize = 8;

/// The three corners `repro fleet` reads responses at.
fn response_corners() -> Vec<Environment> {
    vec![
        Environment::nominal(),
        Environment::new(0.98, 25.0),
        Environment::new(1.20, 65.0),
    ]
}

/// The shared, read-only provisioning setup.
pub(crate) struct Pipeline {
    sim: SiliconSim,
    puf: ConfigurableRoPuf,
    opts: EnrollOptions,
    corners: Vec<Environment>,
    probe: DelayProbe,
    engine: FleetEngine,
}

impl Pipeline {
    pub(crate) fn new(multi_corner: bool, batch: usize) -> Self {
        let opts = EnrollOptions {
            corners: if multi_corner {
                CornerSet::worst_case()
            } else {
                CornerSet::empty()
            },
            ..EnrollOptions::default()
        };
        let corners = response_corners();
        let probe = DelayProbe::new(0.25, 1);
        let engine = FleetEngine::new(
            SiliconSim::default_spartan(),
            FleetConfig {
                boards: batch,
                units: UNITS,
                cols: COLS,
                stages: STAGES,
                opts,
                corners: corners.clone(),
                response_probe: probe,
                threads: Some(1),
                ..FleetConfig::default()
            },
        )
        .expect("the repro fleet floorplan is a valid fleet config");
        Self {
            sim: SiliconSim::default_spartan(),
            puf: ConfigurableRoPuf::tiled_interleaved(UNITS, STAGES),
            opts,
            corners,
            probe,
            engine,
        }
    }

    /// Runs one board through the pipeline; `id` tags its spans.
    pub(crate) fn board(
        &self,
        master: u64,
        index: usize,
        id: u64,
        arena: &mut MeasureArena,
        rec: &mut Recorder,
    ) -> Board {
        let start_ns = now_ns();
        let board_seed = split_seed(master, index as u64);
        let tech = self.sim.technology();
        let nominal = Environment::nominal();
        let board = rec.time(id, "silicon.grow", || {
            let mut rng = StdRng::seed_from_u64(split_seed(board_seed, STREAM_GROW));
            self.sim
                .grow_board_with_id(&mut rng, BoardId(index as u32), UNITS, COLS)
        });
        let enrollment = rec.time(id, "core.enroll", || {
            self.puf.enroll_seeded_in(
                split_seed(board_seed, STREAM_ENROLL),
                &board,
                tech,
                nominal,
                &self.opts,
                arena,
            )
        });
        let (device, key_code) = rec.time(id, "core.keycode", || {
            let device = Device::resume(&board, tech, nominal, self.opts, enrollment)
                .expect("a 34-pair enrollment has usable bits");
            let code = device
                .issue_key(board_seed, REPETITION)
                .expect("34 bits hold a repetition-3 key");
            (device, code)
        });
        let persisted = rec.time(id, "core.persist", || {
            enrollment_to_bytes(device.enrollment())
        });
        let enrollment = device.enrollment();
        let corner_flips = rec.time(id, "core.respond", || {
            let bound = enrollment.bind(&board);
            let expected = enrollment.expected_bits();
            self.corners
                .iter()
                .enumerate()
                .map(|(c, &env)| {
                    let mut rng = StdRng::seed_from_u64(split_seed(
                        board_seed,
                        STREAM_CORNER_BASE + c as u64,
                    ));
                    let response = bound.respond(&mut rng, tech, env, &self.probe);
                    (0..response.len().min(expected.len()))
                        .filter(|&k| response.get(k) != expected.get(k))
                        .count()
                })
                .collect()
        });
        let record = BoardRecord {
            board_index: index,
            board_seed,
            expected_bits: enrollment.expected_bits(),
            margins_ps: enrollment.margins_ps(),
            corner_flips,
            corner_erasures: vec![0; self.corners.len()],
        };
        let end_ns = now_ns();
        rec.push(id, "board", start_ns, end_ns);
        Board {
            record,
            persisted,
            key_code,
            start_ns,
            end_ns,
            worker: 0,
            spans: rec.take(),
        }
    }
}

/// What one board leaves behind.
pub(crate) struct Board {
    /// The board's enrollment outcome, as `FleetEngine` records it.
    pub(crate) record: BoardRecord,
    /// `enrollment_to_bytes` of its enrollment.
    pub(crate) persisted: Vec<u8>,
    /// The Key Code issued for it.
    pub(crate) key_code: KeyCode,
    start_ns: u64,
    end_ns: u64,
    worker: usize,
    spans: Vec<Span>,
}

/// One closed batch: every board's outcome (`None` for a board whose
/// pipeline panicked) and the batch's wall-clock span.
struct Batch {
    boards: Vec<Option<Board>>,
    start_ns: u64,
    end_ns: u64,
}

impl Batch {
    fn wall_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

fn run_batch(
    pipe: &Pipeline,
    master: u64,
    batch_no: u64,
    size: usize,
    threads: usize,
    traced: bool,
) -> Batch {
    let next_worker = AtomicUsize::new(0);
    let start_ns = now_ns();
    let boards = parallel_map_indexed_with(
        size,
        threads,
        || {
            (
                MeasureArena::new(),
                Recorder::new(traced),
                next_worker.fetch_add(1, Ordering::Relaxed),
            )
        },
        |(arena, rec, worker), i| {
            let id = batch_no << 32 | i as u64;
            catch_unwind(AssertUnwindSafe(|| pipe.board(master, i, id, arena, rec)))
                .ok()
                .map(|mut b| {
                    b.worker = *worker;
                    b
                })
        },
    );
    Batch {
        boards,
        start_ns,
        end_ns: now_ns(),
    }
}

/// Output checks on one batch: bit-identity with `FleetEngine`'s
/// serial reference and with the per-ring enrollment kernel, and
/// fleet uniqueness near one half. Returns the failures found.
fn check(pipe: &Pipeline, master: u64, batch: &Batch, rng: &mut StdRng) -> Vec<String> {
    let mut problems = Vec::new();
    let reference = pipe.engine.run_serial(master);
    if !reference.quarantined.is_empty() {
        problems.push(format!(
            "{} reference boards quarantined",
            reference.quarantined.len()
        ));
    }
    for (i, (ours, theirs)) in batch.boards.iter().zip(&reference.records).enumerate() {
        if ours.as_ref().map(|b| &b.record) != Some(theirs) {
            problems.push(format!("board {i} differs from FleetEngine::run_serial"));
        }
    }
    let tech = pipe.sim.technology();
    for _ in 0..PER_RING_SAMPLE {
        let i = rng.gen_range(0..batch.boards.len());
        let Some(ours) = &batch.boards[i] else {
            continue;
        };
        let board_seed = split_seed(master, i as u64);
        let mut grow = StdRng::seed_from_u64(split_seed(board_seed, STREAM_GROW));
        let board = pipe
            .sim
            .grow_board_with_id(&mut grow, BoardId(i as u32), UNITS, COLS);
        let per_ring = pipe.puf.enroll_par(
            split_seed(board_seed, STREAM_ENROLL),
            &board,
            tech,
            Environment::nominal(),
            &pipe.opts,
            1,
        );
        if per_ring.expected_bits() != ours.record.expected_bits
            || per_ring.margins_ps() != ours.record.margins_ps
        {
            problems.push(format!(
                "board {i} differs from the per-ring enrollment kernel"
            ));
        }
    }
    match reference.uniqueness() {
        Some(u) if (0.45..=0.55).contains(&u) => {}
        other => problems.push(format!("uniqueness {other:?} is not near 0.5")),
    }
    problems
}

/// Worker-timeline figures, summed over batches.
#[derive(Default)]
struct Timeline {
    busy_ns: u64,
    worker_ns: u64,
    tail_idle_ns: u64,
}

impl Timeline {
    fn add(&mut self, batch: &Batch, threads: usize) {
        let mut last_end = vec![batch.start_ns; threads];
        for b in batch.boards.iter().flatten() {
            self.busy_ns += b.end_ns - b.start_ns;
            last_end[b.worker] = last_end[b.worker].max(b.end_ns);
        }
        last_end.sort_unstable();
        // The stretch at the end of the batch where one worker runs alone.
        if threads > 1 {
            self.tail_idle_ns += batch.end_ns - last_end[threads - 2];
        }
        self.worker_ns += (batch.end_ns - batch.start_ns) * threads as u64;
    }
}

/// A run of batches, folded batch by batch so memory does not grow
/// with the run's length (except the spans of a traced run).
#[derive(Default)]
struct Tally {
    /// Boards per second of each batch.
    rates: Vec<f64>,
    /// Worker time of each board, microseconds.
    board_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    boards: u64,
    bits: u64,
    persist_bytes: u64,
    batches: u64,
    timeline: Timeline,
    spans: Vec<Span>,
    /// The batch kept for the output checks, with its master seed.
    kept: Option<(u64, Batch)>,
}

impl Tally {
    fn rate(&self) -> f64 {
        stats::median(&self.rates)
    }

    fn add(&mut self, master: u64, mut batch: Batch, threads: usize, keep: bool) {
        self.rates.push(batch.boards.len() as f64 / batch.wall_s());
        self.attempted += batch.boards.len() as u64;
        self.batches += 1;
        self.timeline.add(&batch, threads);
        for b in &mut batch.boards {
            let Some(b) = b else {
                self.failed += 1;
                continue;
            };
            self.board_us.push((b.end_ns - b.start_ns) as f64 / 1e3);
            self.boards += 1;
            self.bits += b.record.expected_bits.len() as u64;
            self.persist_bytes += b.persisted.len() as u64;
            self.spans.append(&mut b.spans);
        }
        if keep {
            self.kept = Some((master, batch));
        }
    }
}

/// Runs batches until `seconds` have passed (at least `min_batches`),
/// keeping batch number `keep` (counted from the first) for checks.
fn timed(
    pipe: &Pipeline,
    args: &Args,
    seconds: f64,
    first_batch: u64,
    min_batches: u64,
    traced: bool,
    keep: u64,
) -> Tally {
    let threads = sys::nproc();
    let started = Instant::now();
    let mut tally = Tally::default();
    let mut b = first_batch;
    while started.elapsed().as_secs_f64() < seconds || (b - first_batch) < min_batches {
        let master = split_seed(args.seed, b);
        let batch = run_batch(pipe, master, b, BATCH, threads, traced);
        tally.add(master, batch, threads, b - first_batch == keep);
        b += 1;
    }
    tally
}

/// Runs the workload; `multi_corner` selects `provision_corners`.
pub fn run(args: &Args, multi_corner: bool) -> Report {
    let threads = sys::nproc();
    // Set-up: build the pipeline and the serial reference engine, then
    // warm caches and the worker arenas with one untimed batch.
    let mut setups = Vec::new();
    let mut pipe = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let p = Pipeline::new(multi_corner, BATCH);
        run_batch(
            &p,
            split_seed(args.seed, u64::MAX - rep as u64),
            u64::MAX,
            BATCH,
            threads,
            false,
        );
        setups.push(t.elapsed().as_secs_f64());
        pipe = Some(p);
    }
    let pipe = pipe.expect("at least one set-up repetition");
    let mut report = Report::new(args);
    report.metric("setup_s", stats::median(&setups), "s");

    // The checked batch is drawn from the seed among the first three.
    let mut check_rng = StdRng::seed_from_u64(split_seed(args.seed, 0xC0FFEE));
    let min_batches = 3;
    let keep = check_rng.gen_range(0..min_batches);
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let plain = timed(&pipe, args, seconds, 0, min_batches, false, keep);
    let (master, batch) = plain.kept.as_ref().expect("the kept batch ran");
    report.fail_checks(check(&pipe, *master, batch, &mut check_rng));
    if !args.trace {
        report.attempted += plain.attempted;
        report.failed += plain.failed;
        report.metric("throughput_per_s", plain.rate(), "1/s");
        report.percentiles("board", &plain.board_us);
        report.note(format!(
            "boards_per_s = {:.3} 1/s (median of {} batches of {})",
            plain.rate(),
            plain.batches,
            BATCH
        ));
    } else {
        let sink = Arc::new(MemorySink::default());
        telemetry::reset();
        telemetry::install(sink.clone());
        let traced = timed(&pipe, args, seconds, plain.batches, 1, true, u64::MAX);
        let snapshot = telemetry::snapshot();
        telemetry::uninstall();
        report.attempted += traced.attempted;
        report.failed += traced.failed;
        report.note(format!(
            "trace overhead: plain {:.1} boards/s, traced {:.1} boards/s",
            plain.rate(),
            traced.rate()
        ));
        let overhead = plain.rate() / traced.rate() - 1.0;
        ledger_metrics(
            &pipe,
            &traced,
            &sink,
            &snapshot,
            overhead,
            args,
            &mut report,
        );
    }
    report.metric("peak_rss_mb", sys::peak_rss_mb(), "MB");
    report
}

fn ledger_metrics(
    pipe: &Pipeline,
    tally: &Tally,
    sink: &MemorySink,
    snapshot: &telemetry::Snapshot,
    overhead: f64,
    args: &Args,
    report: &mut Report,
) {
    let totals = ledger::totals(&tally.spans);
    let boards = tally.boards as f64;
    // Layer rows are self times of the benchmark's per-layer spans.
    let per_board = |name: &str| totals.get(name).map_or(0.0, |t| t.2 as f64 / 1e3 / boards);
    // The program's own spans: the per-pair loop inside enrollment.
    // Each board emits one `enroll.pair` span per pair on its worker
    // thread, so consecutive runs of `pairs` spans on one thread belong
    // to one board; the extent of a run (first start to last end, in
    // the program's whole microseconds) is that board's pair loop.
    let pairs = pipe.puf.pair_count();
    let program = sink.spans();
    let mut pair_runs: std::collections::BTreeMap<u64, Vec<(u64, u64)>> = Default::default();
    for s in program.iter().filter(|s| s.name == "enroll.pair") {
        pair_runs
            .entry(s.thread)
            .or_default()
            .push((s.start_us, s.start_us + s.dur_us));
    }
    let pair_loop_us: u64 = pair_runs
        .values()
        .flat_map(|runs| runs.chunks(pairs))
        .map(|run| run[run.len() - 1].1 - run[0].0)
        .sum();
    let select_us: u64 = program
        .iter()
        .filter(|s| s.name == "enroll.select")
        .map(|s| s.dur_us)
        .sum();
    let enroll_us = per_board("core.enroll");
    let outside_pair_us = enroll_us - pair_loop_us as f64 / boards;
    let select_per_board = select_us as f64 / boards;

    let tl = &tally.timeline;
    let rows = [
        Row {
            name: "silicon.grow".into(),
            us: per_board("silicon.grow"),
        },
        Row {
            name: "core.enroll.outside_pair".into(),
            us: outside_pair_us,
        },
        Row {
            name: "core.enroll.pair_rest".into(),
            us: enroll_us - outside_pair_us - select_per_board,
        },
        Row {
            name: "core.select".into(),
            us: select_per_board,
        },
        Row {
            name: "core.keycode".into(),
            us: per_board("core.keycode"),
        },
        Row {
            name: "core.persist".into(),
            us: per_board("core.persist"),
        },
        Row {
            name: "core.respond".into(),
            us: per_board("core.respond"),
        },
        Row {
            name: "fleet.idle".into(),
            us: (tl.worker_ns - tl.busy_ns) as f64 / 1e3 / boards,
        },
    ];
    let (table, unattributed) = ledger::render(
        &format!("{} (per board, worker time)", args.workload),
        tl.worker_ns as f64 / 1e3 / boards,
        &rows,
    );
    report.ledger(table);
    report.spans("boards", &tally.spans);

    let counter = |name: &str| snapshot.counter(name).unwrap_or(0) as f64;
    let nbatches = tally.batches as f64;
    report.metric("silicon.grow_us", per_board("silicon.grow"), "us");
    report.metric("core.enroll_us", enroll_us, "us");
    report.metric("core.enroll.outside_pair_us", outside_pair_us, "us");
    report.metric("core.select_us", select_per_board, "us");
    report.metric(
        "silicon.measurements_per_board",
        counter("measure.batched") / boards,
        "count",
    );
    report.metric(
        "core.bit_yield",
        tally.bits as f64 / (boards * pairs as f64),
        "frac",
    );
    report.metric("core.respond_us", per_board("core.respond"), "us");
    report.metric("core.keycode_us", per_board("core.keycode"), "us");
    report.metric("core.persist_us", per_board("core.persist"), "us");
    report.metric(
        "core.persist_bytes",
        tally.persist_bytes as f64 / boards,
        "B",
    );
    report.metric(
        "fleet.busy_frac",
        tl.busy_ns as f64 / tl.worker_ns as f64,
        "frac",
    );
    report.metric(
        "fleet.tail_idle_ms",
        tl.tail_idle_ns as f64 / 1e6 / nbatches,
        "ms",
    );
    report.metric(
        "fleet.steals",
        counter("parallel.steals") / nbatches,
        "count",
    );
    report.metric("ledger.unattributed_frac", unattributed, "frac");
    report.metric("ledger.trace_overhead_frac", overhead, "frac");
}
