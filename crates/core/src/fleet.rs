//! Parallel fleet enrollment/evaluation engine.
//!
//! The paper's headline claims are statistical: uniqueness and
//! reliability only mean something over *fleets* of boards. This module
//! grows boards, enrolls a [`ConfigurableRoPuf`] on each, and collects
//! responses across environment corners — in parallel across boards,
//! with **byte-identical results at any thread count**.
//!
//! # Determinism by seed splitting
//!
//! Every board derives its own RNG from a `(master_seed, board_index)`
//! split (see [`split_seed`]): the master seed is perturbed by the
//! index through an odd-multiplier and passed through the SplitMix64
//! finalizer, which is a bijection on `u64`. Distinct indices therefore
//! *cannot* collide for a fixed master seed, and no RNG state is shared
//! between boards — so the engine may evaluate boards in any order, on
//! any number of threads, and produce the same bits as the serial
//! reference loop ([`FleetEngine::run_serial`]).
//!
//! Thread count comes from the `RAYON_NUM_THREADS` environment
//! variable (kept for ecosystem compatibility) and defaults to the
//! machine's available parallelism.
//!
//! # Examples
//!
//! ```
//! use ropuf_core::fleet::{FleetConfig, FleetEngine};
//! use ropuf_silicon::SiliconSim;
//!
//! let engine = FleetEngine::new(
//!     SiliconSim::default_spartan(),
//!     FleetConfig {
//!         boards: 8,
//!         units: 80,
//!         stages: 5,
//!         ..FleetConfig::default()
//!     },
//! )
//! .unwrap();
//! let parallel = engine.run(7);
//! let serial = engine.run_serial(7);
//! assert_eq!(parallel.expected_bits(), serial.expected_bits());
//! ```

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ropuf_num::bits::BitVec;
use ropuf_silicon::aging::AgingModel;
use ropuf_silicon::board::BoardId;
use ropuf_silicon::{DelayProbe, Environment, MeasureArena, SiliconSim};
use ropuf_telemetry as telemetry;

use crate::error::Error;
use crate::puf::{ConfigurableRoPuf, EnrollOptions};
use crate::robust::{self, FaultPlan, FaultSummary};

/// Derives the seed for `index` under `master_seed`.
///
/// The index is folded in with an odd multiplier (a bijection mod
/// 2⁶⁴), then the sum runs through the SplitMix64 finalizer (also a
/// bijection), so **distinct indices always yield distinct seeds** for
/// a fixed master — adjacent boards can never share an RNG stream.
pub fn split_seed(master_seed: u64, index: u64) -> u64 {
    let mut z = master_seed.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Number of worker threads a fleet run will use: `RAYON_NUM_THREADS`
/// when set to a positive integer, otherwise the machine's available
/// parallelism.
///
/// A set-but-invalid value (`"0"`, `"8x"`, …) falls back to all cores
/// and emits a telemetry warning naming the rejected value (to the
/// installed sink, or stderr when telemetry is disabled) — it is never
/// silently ignored. A set-but-empty value counts as unset.
pub fn worker_threads() -> usize {
    let all_cores = || {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    };
    match std::env::var("RAYON_NUM_THREADS") {
        Err(_) => all_cores(),
        Ok(raw) => parse_worker_threads(&raw).unwrap_or_else(|| {
            let fallback = all_cores();
            if !raw.trim().is_empty() {
                telemetry::counter("fleet.thread_config_rejected", 1);
                telemetry::warn(&format!(
                    "RAYON_NUM_THREADS={raw:?} is not a positive integer; \
                     falling back to all {fallback} cores"
                ));
            }
            fallback
        }),
    }
}

/// Parses a `RAYON_NUM_THREADS` value: `Some(n)` for a positive
/// integer (surrounding whitespace tolerated), `None` otherwise —
/// including `"0"`, signs, and trailing garbage like `"8x"`. An empty
/// (or all-whitespace) value also returns `None`; [`worker_threads`]
/// treats that case as unset rather than invalid.
pub fn parse_worker_threads(raw: &str) -> Option<usize> {
    raw.trim().parse::<usize>().ok().filter(|&n| n > 0)
}

/// Applies `f` to `0..count` on `threads` workers and returns the
/// results in index order.
///
/// Work is claimed dynamically in chunked ranges (see
/// [`parallel_map_indexed_with`]), so uneven items balance across
/// workers; results are keyed by index, so the output is independent of
/// scheduling. With `threads == 1` the loop runs on the calling thread
/// with no thread spawned at all.
///
/// With telemetry enabled, every claimed item bumps the
/// `parallel.items` counter, each participating worker bumps
/// `parallel.workers` and records the number of items it won into the
/// `parallel.worker_items` histogram (the work-steal / thread-
/// utilization profile), and items claimed beyond an even per-worker
/// share count as `parallel.steals`. None of this touches the mapped
/// values: results are bit-identical with telemetry on or off.
///
/// # Panics
///
/// Propagates a panic from any invocation of `f`.
pub fn parallel_map_indexed<U, F>(count: usize, threads: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    parallel_map_indexed_with(count, threads, || (), move |(), i| f(i))
}

/// Items claimed per atomic-cursor bump: aim for ~4 claims per worker
/// so the spawn/claim overhead amortizes over a range of items, while
/// late joiners can still steal a meaningful share. Capped so huge
/// inputs keep rebalancing, floored at one so small inputs still spread.
fn claim_chunk(count: usize, threads: usize) -> usize {
    (count / (threads * 4)).clamp(1, 32)
}

/// [`parallel_map_indexed`] with per-worker scratch state: every worker
/// (and the `threads == 1` inline path) builds one `S` with `init` and
/// threads it through each of its `f(&mut state, index)` calls. This is
/// how fleet workers reuse one measurement arena across all the boards
/// they claim instead of allocating per board.
///
/// Work is claimed in chunked index ranges from a shared atomic cursor
/// — dynamic enough that a stalled worker sheds load, coarse enough
/// that claiming is not one atomic per item. Chunking only changes
/// *which worker* computes an index, never the result: `f` must be pure
/// in its index (state is scratch, not an accumulator), and results are
/// reassembled in index order.
///
/// Telemetry matches [`parallel_map_indexed`]: `parallel.items`,
/// `parallel.workers`, the `parallel.worker_items` histogram, and
/// `parallel.steals` (items won beyond an even share).
///
/// # Panics
///
/// Propagates a panic from any invocation of `f`.
pub fn parallel_map_indexed_with<S, U, I, F>(count: usize, threads: usize, init: I, f: F) -> Vec<U>
where
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> U + Sync,
{
    let threads = threads.clamp(1, count.max(1));
    // An even split would hand each worker ceil(count / threads) items;
    // anything above that was dynamically stolen from slower peers.
    let fair_share = count.div_ceil(threads);
    if threads == 1 {
        let mut state = init();
        let out = (0..count).map(|i| f(&mut state, i)).collect();
        telemetry::counter("parallel.items", count as u64);
        telemetry::counter("parallel.workers", 1);
        telemetry::record("parallel.worker_items", count as u64);
        return out;
    }
    let chunk = claim_chunk(count, threads);
    let cursor = AtomicUsize::new(0);
    let mut keyed: Vec<(usize, U)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    let mut out = Vec::new();
                    loop {
                        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if start >= count {
                            break;
                        }
                        for i in start..(start + chunk).min(count) {
                            out.push((i, f(&mut state, i)));
                        }
                    }
                    telemetry::counter("parallel.items", out.len() as u64);
                    telemetry::counter("parallel.workers", 1);
                    telemetry::record("parallel.worker_items", out.len() as u64);
                    telemetry::counter(
                        "parallel.steals",
                        out.len().saturating_sub(fair_share) as u64,
                    );
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| match w.join() {
                Ok(results) => results,
                Err(panic) => std::panic::resume_unwind(panic),
            })
            .collect()
    });
    keyed.sort_unstable_by_key(|&(i, _)| i);
    keyed.into_iter().map(|(_, u)| u).collect()
}

/// Lifetime drift injected between enrollment and response: each board
/// is enrolled fresh, then responds on silicon aged by
/// [`AgingModel::age_board`] — the deployment scenario where helper
/// data was provisioned at year 0 and the device answers years later.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetAging {
    /// The drift model.
    pub model: AgingModel,
    /// Device age at response time, years. `0.0` is exactly the fresh
    /// path (no RNG is drawn, so enrollment *and* response bits match a
    /// run with no aging configured).
    pub years: f64,
}

/// Configuration of a fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Number of boards to grow and enroll.
    pub boards: usize,
    /// Delay units per board.
    pub units: usize,
    /// Grid width the units are placed on.
    pub cols: usize,
    /// Stages per ring. Pairs are placed by
    /// [`ConfigurableRoPuf::tiled_interleaved`]: adjacent units alternate
    /// between a pair's two rings.
    pub stages: usize,
    /// Enrollment options (selection mode, parity, threshold, probe).
    pub opts: EnrollOptions,
    /// Environment corners responses are collected at, in order.
    pub corners: Vec<Environment>,
    /// Probe used for response measurements.
    pub response_probe: DelayProbe,
    /// Majority votes per response read (odd; `1` = single read).
    pub votes: usize,
    /// Optional lifetime drift applied to the silicon between
    /// enrollment and response (`None` = respond on fresh silicon).
    /// Aging draws from its own seed stream, so enrollment bits are
    /// identical with and without it.
    pub aging: Option<FleetAging>,
    /// Optional measurement-fault injection campaign (`None` = the
    /// plain pipeline, run as an inert plan). A plan with all rates at
    /// zero produces records byte-identical to `None` at every
    /// threshold: one evaluator serves both, and a board left with no
    /// bits is recorded, never quarantined. Fault rolls and retry reads
    /// draw from their own seed streams, so a fixed seed yields the
    /// same fault schedule — and the same quarantine set — at any
    /// thread count.
    pub faults: Option<FaultPlan>,
    /// Worker threads [`FleetEngine::run`] uses. `None` resolves
    /// [`worker_threads`] **once, at engine construction** — the
    /// environment is read a single time per run, so `run`, `run_on`,
    /// and `run_serial` can never disagree about the thread count
    /// mid-run even if `RAYON_NUM_THREADS` changes under them.
    pub threads: Option<usize>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            boards: 64,
            units: 480,
            cols: 16,
            stages: 5,
            opts: EnrollOptions::default(),
            corners: vec![Environment::nominal(), Environment::new(0.98, 25.0)],
            response_probe: DelayProbe::new(0.25, 1),
            votes: 1,
            aging: None,
            faults: None,
            threads: None,
        }
    }
}

/// Everything recorded about one evaluated board.
#[derive(Debug, Clone, PartialEq)]
pub struct BoardRecord {
    /// Index of the board in the fleet (also its [`BoardId`]).
    pub board_index: usize,
    /// The seed this board's RNG streams derive from.
    pub board_seed: u64,
    /// Bits recorded at enrollment.
    pub expected_bits: BitVec,
    /// Per-pair selection margins, picoseconds (excluded pairs skipped).
    pub margins_ps: Vec<f64>,
    /// Hamming distance to `expected_bits` of the response at each
    /// configured corner, in corner order. Erased bits (see
    /// `corner_erasures`) are not counted as flips.
    pub corner_flips: Vec<usize>,
    /// Response bits erased at each corner because their read-out
    /// failed unrecoverably, in corner order. All zeros unless fault
    /// injection is active.
    pub corner_erasures: Vec<usize>,
}

/// Why a board was quarantined instead of contributing a record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuarantineReason {
    /// Calibration failed the sanity check: more than the configured
    /// fraction of pairs was unreadable even after retries.
    CalibrationFailure {
        /// Pairs whose calibration reads failed unrecoverably.
        unreadable_pairs: usize,
        /// Pairs attempted.
        total_pairs: usize,
    },
    /// The board's evaluation panicked; the engine contained the
    /// unwind instead of letting it poison the thread map.
    WorkerPanic {
        /// The panic payload, when it carried a message.
        message: String,
    },
}

impl fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::CalibrationFailure {
                unreadable_pairs,
                total_pairs,
            } => write!(
                f,
                "calibration failed sanity checks ({unreadable_pairs}/{total_pairs} pairs unreadable)"
            ),
            Self::WorkerPanic { message } => write!(f, "worker panic contained: {message}"),
        }
    }
}

/// One quarantined board: identity plus the typed reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quarantine {
    /// Index of the board in the fleet.
    pub board_index: usize,
    /// The seed its RNG streams derived from.
    pub board_seed: u64,
    /// Why it was pulled from the run.
    pub reason: QuarantineReason,
}

/// Outcome of evaluating one board: a record, or a quarantine. Either
/// way the fault layer's counters ride along.
enum BoardOutcome {
    Healthy(BoardRecord, FaultSummary),
    Quarantined(Quarantine, FaultSummary),
}

/// Result of a fleet run.
///
/// Partial results are a success mode: boards that could not be
/// evaluated appear in `quarantined` with a typed reason instead of
/// panicking the run, and `faults` totals what the fault-tolerance
/// layer saw and did.
#[derive(Debug, Clone)]
pub struct FleetRun {
    /// Per-board records, in board order (quarantined boards omitted).
    pub records: Vec<BoardRecord>,
    /// Boards pulled from the run, in board order, with typed reasons.
    /// Empty unless fault injection (or a genuine bug) struck.
    pub quarantined: Vec<Quarantine>,
    /// Aggregate fault/retry/quarantine accounting for the whole run.
    pub faults: FaultSummary,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Worker threads the run used (`1` for the serial reference).
    pub threads: usize,
}

impl FleetRun {
    /// Boards evaluated per second of wall-clock.
    pub fn boards_per_sec(&self) -> f64 {
        self.records.len() as f64 / self.elapsed.as_secs_f64().max(1e-12)
    }

    /// The enrolled bit-string of every board, in board order.
    pub fn expected_bits(&self) -> Vec<&BitVec> {
        self.records.iter().map(|r| &r.expected_bits).collect()
    }

    /// Mean enrolled bits per board.
    pub fn mean_bit_count(&self) -> f64 {
        let total: usize = self.records.iter().map(|r| r.expected_bits.len()).sum();
        total as f64 / self.records.len().max(1) as f64
    }

    /// Mean normalized pairwise inter-chip Hamming distance — the
    /// fleet's uniqueness figure (ideal: 0.5). Boards whose bit-strings
    /// have different lengths (threshold or fault exclusions) are
    /// compared over their common prefix; pairs with no overlap at all
    /// are skipped and counted on the
    /// `fleet.uniqueness.skipped_pairs` telemetry counter. `None` when
    /// no comparable pair of boards exists.
    pub fn uniqueness(&self) -> Option<f64> {
        let mut sum = 0.0;
        let mut pairs = 0usize;
        let mut skipped = 0u64;
        for i in 0..self.records.len() {
            for j in i + 1..self.records.len() {
                let (a, b) = (
                    &self.records[i].expected_bits,
                    &self.records[j].expected_bits,
                );
                let n = a.len().min(b.len());
                if n == 0 {
                    skipped += 1;
                    continue;
                }
                let hd = (0..n).filter(|&k| a.get(k) != b.get(k)).count();
                sum += hd as f64 / n as f64;
                pairs += 1;
            }
        }
        if skipped > 0 {
            telemetry::counter("fleet.uniqueness.skipped_pairs", skipped);
        }
        (pairs > 0).then(|| sum / pairs as f64)
    }

    /// Mean flip fraction at each corner, in corner order (the fleet's
    /// reliability figure; ideal: 0.0). Robust to ragged records:
    /// boards missing a corner simply don't contribute to it, and
    /// erased bits are removed from the denominator rather than
    /// counted as stable.
    pub fn corner_flip_rates(&self) -> Vec<f64> {
        let corners = self
            .records
            .iter()
            .map(|r| r.corner_flips.len())
            .max()
            .unwrap_or(0);
        (0..corners)
            .map(|c| {
                let (flips, bits) = self
                    .records
                    .iter()
                    .fold((0usize, 0usize), |(f, b), r| match r.corner_flips.get(c) {
                        Some(&flipped) => {
                            let erased = r.corner_erasures.get(c).copied().unwrap_or(0);
                            (
                                f + flipped,
                                b + r.expected_bits.len().saturating_sub(erased),
                            )
                        }
                        None => (f, b),
                    });
                flips as f64 / bits.max(1) as f64
            })
            .collect()
    }
}

/// The engine: a silicon technology plus a fleet configuration.
#[derive(Debug, Clone)]
pub struct FleetEngine {
    sim: SiliconSim,
    puf: ConfigurableRoPuf,
    config: FleetConfig,
    /// [`FleetConfig::faults`], or an inert plan when it is `None`:
    /// every board runs under the fault-screened reader either way.
    plan: FaultPlan,
    /// Worker-thread count, resolved exactly once at construction from
    /// [`FleetConfig::threads`] (or the environment when `None`).
    threads: usize,
}

// Per-board RNG streams: each purpose draws from its own split of the
// board seed so adding corners or votes never perturbs enrollment bits.
const STREAM_GROW: u64 = 0;
const STREAM_ENROLL: u64 = 1;
const STREAM_CORNER_BASE: u64 = 2;
// Far above any realistic corner count so the aging stream can never
// collide with a corner stream.
const STREAM_AGING: u64 = u64::MAX;
// Board-level fault stream (injected worker panics); distinct from the
// aging stream and likewise collision-free with corner streams.
const STREAM_FAULTS: u64 = u64::MAX - 1;

/// Renders a caught panic payload for [`QuarantineReason::WorkerPanic`].
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

impl FleetEngine {
    /// Validates the configuration and builds the engine.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Fleet`] when the configuration cannot run:
    /// zero boards, a floorplan that does not fit the board, an even
    /// vote count, or no corners to respond at.
    pub fn new(sim: SiliconSim, config: FleetConfig) -> Result<Self, Error> {
        if config.boards == 0 {
            return Err(Error::Fleet("fleet needs at least one board".into()));
        }
        if config.cols == 0 {
            return Err(Error::Fleet("grid width must be nonzero".into()));
        }
        if config.votes.is_multiple_of(2) {
            return Err(Error::Fleet(format!(
                "majority voting needs an odd vote count, got {}",
                config.votes
            )));
        }
        if config.stages == 0 || config.units < 2 * config.stages {
            return Err(Error::Fleet(format!(
                "{} units cannot host a {}-stage ring pair",
                config.units, config.stages
            )));
        }
        if let Some(aging) = &config.aging {
            if let Err(msg) = aging.model.validate() {
                return Err(Error::Fleet(format!("invalid aging model: {msg}")));
            }
            if !(aging.years.is_finite() && aging.years >= 0.0) {
                return Err(Error::Fleet(format!(
                    "device age must be finite and non-negative, got {}",
                    aging.years
                )));
            }
        }
        if let Some(plan) = &config.faults {
            if let Err(msg) = plan.validate() {
                return Err(Error::Fleet(format!("invalid fault plan: {msg}")));
            }
        }
        if config.threads == Some(0) {
            return Err(Error::Fleet("thread count must be nonzero".into()));
        }
        let puf = ConfigurableRoPuf::tiled_interleaved(config.units, config.stages);
        // Resolve the environment exactly once so every `run` of this
        // engine agrees on the thread count (satellite of the
        // parallel-regression fix: `worker_threads()` used to be
        // re-read per call site).
        let threads = config.threads.unwrap_or_else(worker_threads);
        let plan = config
            .faults
            .clone()
            .unwrap_or_else(|| FaultPlan::scaled(0.0));
        Ok(Self {
            sim,
            puf,
            config,
            plan,
            threads,
        })
    }

    /// The configuration in force.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// The shared floorplan every board enrolls.
    pub fn puf(&self) -> &ConfigurableRoPuf {
        &self.puf
    }

    /// The worker-thread count every [`run`](Self::run) of this engine
    /// uses: [`FleetConfig::threads`] when set, otherwise
    /// [`worker_threads`] as read once at construction.
    pub fn resolved_threads(&self) -> usize {
        self.threads
    }

    /// Evaluates the fleet on [`Self::resolved_threads`] workers.
    ///
    /// Deterministic: produces exactly the bits of
    /// [`run_serial`](Self::run_serial) for the same `master_seed`,
    /// independent of thread count and scheduling.
    pub fn run(&self, master_seed: u64) -> FleetRun {
        self.run_on(master_seed, self.threads)
    }

    /// Serial reference loop: the same evaluation on the calling
    /// thread, reusing one measurement arena across all boards. Exists
    /// so tests (and the bench harness's speedup figures) can diff the
    /// parallel engine against a plain loop.
    pub fn run_serial(&self, master_seed: u64) -> FleetRun {
        let start = Instant::now();
        let mut arena = MeasureArena::new();
        let outcomes = (0..self.config.boards)
            .map(|i| self.eval_outcome(master_seed, i, &mut arena))
            .collect();
        Self::assemble(outcomes, 1, start.elapsed())
    }

    /// Evaluates the fleet on an explicit number of workers, each with
    /// its own reused measurement arena.
    pub fn run_on(&self, master_seed: u64, threads: usize) -> FleetRun {
        let start = Instant::now();
        let outcomes = parallel_map_indexed_with(
            self.config.boards,
            threads,
            MeasureArena::new,
            |arena, i| self.eval_outcome(master_seed, i, arena),
        );
        Self::assemble(
            outcomes,
            threads.clamp(1, self.config.boards.max(1)),
            start.elapsed(),
        )
    }

    /// Splits per-board outcomes into records and quarantines (both in
    /// board order — the input already is) and totals the fault
    /// accounting.
    fn assemble(outcomes: Vec<BoardOutcome>, threads: usize, elapsed: Duration) -> FleetRun {
        let mut records = Vec::new();
        let mut quarantined = Vec::new();
        let mut faults = FaultSummary::default();
        for outcome in outcomes {
            match outcome {
                BoardOutcome::Healthy(record, summary) => {
                    faults.merge(&summary);
                    records.push(record);
                }
                BoardOutcome::Quarantined(quarantine, summary) => {
                    faults.merge(&summary);
                    quarantined.push(quarantine);
                }
            }
        }
        FleetRun {
            records,
            quarantined,
            faults,
            elapsed,
            threads,
        }
    }

    /// Evaluates one board with panic containment: a worker panic —
    /// injected or genuine — becomes a [`QuarantineReason::WorkerPanic`]
    /// outcome instead of unwinding through the scoped thread map and
    /// aborting the whole run.
    fn eval_outcome(
        &self,
        master_seed: u64,
        index: usize,
        arena: &mut MeasureArena,
    ) -> BoardOutcome {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.eval_board(master_seed, index, arena)
        }));
        let outcome = match result {
            Ok(outcome) => outcome,
            Err(payload) => {
                let summary = FaultSummary {
                    contained_panics: 1,
                    quarantined_boards: 1,
                    ..FaultSummary::default()
                };
                BoardOutcome::Quarantined(
                    Quarantine {
                        board_index: index,
                        board_seed: split_seed(master_seed, index as u64),
                        reason: QuarantineReason::WorkerPanic {
                            message: panic_message(payload.as_ref()),
                        },
                    },
                    summary,
                )
            }
        };
        match &outcome {
            BoardOutcome::Healthy(_, summary) => robust::emit_summary_counters(summary),
            BoardOutcome::Quarantined(quarantine, summary) => {
                robust::emit_summary_counters(summary);
                telemetry::warn(&format!(
                    "board {} quarantined: {}",
                    quarantine.board_index, quarantine.reason
                ));
            }
        }
        outcome
    }

    /// Grows, enrolls, and reads back one board. Pure in
    /// `(master_seed, index)` — the engine shares no mutable state.
    ///
    /// Every read passes through the [`crate::robust`] retry/read-back
    /// pipeline under the engine's plan; with no plan configured that
    /// plan is inert, and the reads, seed streams and bits are exactly
    /// the plain pipeline's. A board whose calibration fails the sanity
    /// check is quarantined with a typed reason instead of producing
    /// garbage or panicking.
    ///
    /// With telemetry enabled, each stage (grow / enroll / age /
    /// respond) runs under its own span, all nested in a `fleet.board`
    /// span.
    fn eval_board(&self, master_seed: u64, index: usize, arena: &mut MeasureArena) -> BoardOutcome {
        let _board_span = telemetry::span("fleet.board");
        telemetry::counter("fleet.boards", 1);
        let config = &self.config;
        let plan = &self.plan;
        let board_seed = split_seed(master_seed, index as u64);
        let tech = self.sim.technology();
        // Injected worker panic: rolled from its own board-level stream
        // before any real work, so the panic schedule — like every
        // fault schedule — is a pure function of the master seed.
        if plan.model.panic_rate > 0.0 {
            let mut panic_rng = StdRng::seed_from_u64(split_seed(board_seed, STREAM_FAULTS));
            if panic_rng.gen::<f64>() < plan.model.panic_rate {
                panic!("injected fault: worker panic on board {index}");
            }
        }
        let board = {
            let _span = telemetry::span("fleet.grow");
            let mut grow_rng = StdRng::seed_from_u64(split_seed(board_seed, STREAM_GROW));
            self.sim.grow_board_with_id(
                &mut grow_rng,
                BoardId(index as u32),
                config.units,
                config.cols,
            )
        };
        let enrolled_at = *config.corners.first().unwrap_or(&Environment::nominal());
        let enrolled = {
            let _span = telemetry::span("fleet.enroll");
            robust::enroll_robust_in(
                &self.puf,
                split_seed(board_seed, STREAM_ENROLL),
                &board,
                tech,
                enrolled_at,
                &config.opts,
                plan,
                arena,
            )
        };
        let mut summary = enrolled.summary;
        if enrolled.total_pairs > 0 {
            let failed_fraction = enrolled.unreadable_pairs as f64 / enrolled.total_pairs as f64;
            if failed_fraction > plan.options.max_failed_pair_fraction {
                summary.quarantined_boards += 1;
                return BoardOutcome::Quarantined(
                    Quarantine {
                        board_index: index,
                        board_seed,
                        reason: QuarantineReason::CalibrationFailure {
                            unreadable_pairs: enrolled.unreadable_pairs,
                            total_pairs: enrolled.total_pairs,
                        },
                    },
                    summary,
                );
            }
        }
        let enrollment = enrolled.enrollment;
        let expected = enrollment.expected_bits();
        // Deployment drift: responses read back from aged silicon while
        // the enrollment above stays the year-0 reference. The aging
        // RNG is its own seed stream, so configuring it cannot perturb
        // enrollment or corner streams.
        let board = match &config.aging {
            Some(aging) if aging.years > 0.0 => {
                let _span = telemetry::span("fleet.age");
                let mut age_rng = StdRng::seed_from_u64(split_seed(board_seed, STREAM_AGING));
                aging.model.age_board(&mut age_rng, &board, aging.years)
            }
            _ => board,
        };
        let respond_span = telemetry::span("fleet.respond");
        // One binding of the (possibly aged) board serves every corner:
        // binding draws no randomness, so the sweep stays byte-identical
        // to per-corner rebinding.
        let bound = enrollment.bind(&board);
        let mut corner_flips = Vec::with_capacity(config.corners.len());
        let mut corner_erasures = Vec::with_capacity(config.corners.len());
        for (c, &env) in config.corners.iter().enumerate() {
            let corner_seed = split_seed(board_seed, STREAM_CORNER_BASE + c as u64);
            let (bits, corner_summary) = robust::respond_robust_bound(
                &bound,
                corner_seed,
                tech,
                env,
                &config.response_probe,
                config.votes,
                plan,
            );
            summary.merge(&corner_summary);
            let flips = bits
                .iter()
                .enumerate()
                .filter(|&(k, bit)| matches!(bit, Some(b) if Some(*b) != expected.get(k)))
                .count();
            corner_flips.push(flips);
            corner_erasures.push(bits.iter().filter(|bit| bit.is_none()).count());
        }
        drop(respond_span);
        BoardOutcome::Healthy(
            BoardRecord {
                board_index: index,
                board_seed,
                margins_ps: enrollment.margins_ps(),
                expected_bits: expected,
                corner_flips,
                corner_erasures,
            },
            summary,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_engine() -> FleetEngine {
        FleetEngine::new(
            SiliconSim::default_spartan(),
            FleetConfig {
                boards: 10,
                units: 60,
                cols: 6,
                stages: 3,
                ..FleetConfig::default()
            },
        )
        .expect("valid config")
    }

    #[test]
    fn thread_config_accepts_positive_integers() {
        assert_eq!(parse_worker_threads("1"), Some(1));
        assert_eq!(parse_worker_threads("8"), Some(8));
        assert_eq!(parse_worker_threads(" 4 "), Some(4), "whitespace trimmed");
        assert_eq!(
            parse_worker_threads("+2"),
            Some(2),
            "integer parse allows +"
        );
        assert_eq!(parse_worker_threads("128"), Some(128));
    }

    #[test]
    fn thread_config_rejects_zero_and_garbage() {
        // The historical bug: these fell back to all cores with no
        // signal that the requested value had been discarded.
        assert_eq!(parse_worker_threads("0"), None);
        assert_eq!(parse_worker_threads("8x"), None);
        assert_eq!(parse_worker_threads("-2"), None);
        assert_eq!(parse_worker_threads("2.0"), None);
        assert_eq!(parse_worker_threads("eight"), None);
        assert_eq!(parse_worker_threads(""), None);
        assert_eq!(parse_worker_threads("  "), None);
    }

    #[test]
    fn split_seed_is_injective_over_a_window() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(split_seed(99, i)), "collision at index {i}");
        }
    }

    #[test]
    fn split_seed_depends_on_master() {
        assert_ne!(split_seed(1, 0), split_seed(2, 0));
    }

    #[test]
    fn parallel_map_preserves_index_order() {
        let out = parallel_map_indexed(100, 7, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_with_one_thread_runs_inline() {
        let out = parallel_map_indexed(5, 1, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn configured_thread_count_governs_run() {
        // Regression: `run()` used to call `worker_threads()` on every
        // invocation, re-reading the environment each time. The count is
        // now resolved once at engine construction and pinned in the
        // config, so `run()` is immune to later environment changes and
        // a `FleetConfig { threads: Some(n) }` override wins outright.
        for threads in [1usize, 3, 8] {
            let engine = FleetEngine::new(
                SiliconSim::default_spartan(),
                FleetConfig {
                    boards: 8,
                    units: 60,
                    cols: 6,
                    stages: 3,
                    threads: Some(threads),
                    ..FleetConfig::default()
                },
            )
            .expect("valid config");
            assert_eq!(engine.resolved_threads(), threads);
            assert_eq!(engine.run(5).threads, threads);
        }
        // `None` resolves the environment exactly once, at construction;
        // the resolved count is stable across calls.
        let auto = small_engine();
        let resolved = auto.resolved_threads();
        assert!(resolved >= 1);
        assert_eq!(auto.resolved_threads(), resolved);
        assert_eq!(auto.run(5).threads, resolved);
    }

    #[test]
    fn zero_thread_config_is_rejected() {
        let err = FleetEngine::new(
            SiliconSim::default_spartan(),
            FleetConfig {
                boards: 4,
                units: 60,
                cols: 6,
                stages: 3,
                threads: Some(0),
                ..FleetConfig::default()
            },
        )
        .expect_err("zero threads must not construct");
        assert!(err.to_string().contains("thread count"), "{err}");
    }

    #[test]
    fn parallel_and_serial_runs_are_bit_identical() {
        let engine = small_engine();
        let serial = engine.run_serial(7);
        for threads in [1, 2, 4, 8] {
            let parallel = engine.run_on(7, threads);
            assert_eq!(parallel.records, serial.records, "threads = {threads}");
        }
    }

    #[test]
    fn different_master_seeds_differ() {
        let engine = small_engine();
        let a = engine.run_on(1, 2);
        let b = engine.run_on(2, 2);
        assert_ne!(a.expected_bits(), b.expected_bits());
    }

    #[test]
    fn boards_have_expected_bit_budget() {
        let engine = small_engine();
        let run = engine.run_on(3, 2);
        assert_eq!(run.records.len(), 10);
        for r in &run.records {
            assert_eq!(r.expected_bits.len(), 10); // 60 units / (2 * 3 stages)
            assert_eq!(r.corner_flips.len(), 2);
        }
        assert!(run.uniqueness().expect("comparable boards") > 0.2);
        assert_eq!(run.corner_flip_rates().len(), 2);
    }

    #[test]
    fn nominal_corner_is_stable() {
        // First corner is the enrollment point; with the default probe
        // and paper-style margins, flips there should be rare.
        let engine = small_engine();
        let run = engine.run_on(11, 2);
        let rates = run.corner_flip_rates();
        assert!(rates[0] < 0.05, "nominal flip rate {}", rates[0]);
    }

    #[test]
    fn aging_leaves_enrollment_bits_untouched() {
        let sim = SiliconSim::default_spartan;
        let config = FleetConfig {
            boards: 8,
            units: 60,
            cols: 6,
            stages: 3,
            ..FleetConfig::default()
        };
        let fresh = FleetEngine::new(sim(), config.clone())
            .unwrap()
            .run_on(5, 2);
        let aged = FleetEngine::new(
            sim(),
            FleetConfig {
                aging: Some(FleetAging {
                    model: AgingModel::default(),
                    years: 10.0,
                }),
                ..config
            },
        )
        .unwrap()
        .run_on(5, 2);
        // Enrollment (and its margins) happen at year 0 either way.
        assert_eq!(aged.expected_bits(), fresh.expected_bits());
        for (a, f) in aged.records.iter().zip(&fresh.records) {
            assert_eq!(a.board_seed, f.board_seed);
            assert_eq!(a.margins_ps, f.margins_ps);
        }
    }

    #[test]
    fn zero_years_aging_is_the_fresh_path() {
        let sim = SiliconSim::default_spartan;
        let config = FleetConfig {
            boards: 6,
            units: 60,
            cols: 6,
            stages: 3,
            ..FleetConfig::default()
        };
        let fresh = FleetEngine::new(sim(), config.clone())
            .unwrap()
            .run_on(9, 2);
        let zero = FleetEngine::new(
            sim(),
            FleetConfig {
                aging: Some(FleetAging {
                    model: AgingModel::default(),
                    years: 0.0,
                }),
                ..config
            },
        )
        .unwrap()
        .run_on(9, 2);
        assert_eq!(zero.records, fresh.records);
    }

    #[test]
    fn aged_fleet_stays_deterministic_across_thread_counts() {
        let engine = FleetEngine::new(
            SiliconSim::default_spartan(),
            FleetConfig {
                boards: 8,
                units: 60,
                cols: 6,
                stages: 3,
                aging: Some(FleetAging {
                    model: AgingModel::default(),
                    years: 7.0,
                }),
                ..FleetConfig::default()
            },
        )
        .unwrap();
        let serial = engine.run_serial(3);
        for threads in [2, 4] {
            assert_eq!(engine.run_on(3, threads).records, serial.records);
        }
    }

    #[test]
    fn invalid_aging_configs_are_rejected() {
        let bad = |aging| {
            FleetEngine::new(
                SiliconSim::default_spartan(),
                FleetConfig {
                    boards: 2,
                    units: 60,
                    cols: 6,
                    stages: 3,
                    aging: Some(aging),
                    ..FleetConfig::default()
                },
            )
            .unwrap_err()
        };
        assert!(matches!(
            bad(FleetAging {
                model: AgingModel::default(),
                years: f64::NAN,
            }),
            Error::Fleet(_)
        ));
        assert!(matches!(
            bad(FleetAging {
                model: AgingModel {
                    reference_years: 0.0,
                    ..AgingModel::default()
                },
                years: 1.0,
            }),
            Error::Fleet(_)
        ));
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let sim = SiliconSim::default_spartan;
        let bad = |cfg: FleetConfig| FleetEngine::new(sim(), cfg).unwrap_err();
        assert!(matches!(
            bad(FleetConfig {
                boards: 0,
                ..FleetConfig::default()
            }),
            Error::Fleet(_)
        ));
        assert!(matches!(
            bad(FleetConfig {
                votes: 2,
                ..FleetConfig::default()
            }),
            Error::Fleet(_)
        ));
        assert!(matches!(
            bad(FleetConfig {
                units: 4,
                stages: 5,
                ..FleetConfig::default()
            }),
            Error::Fleet(_)
        ));
        assert!(matches!(
            bad(FleetConfig {
                cols: 0,
                ..FleetConfig::default()
            }),
            Error::Fleet(_)
        ));
    }

    /// The record `run_serial` should hold for board `index`, built from
    /// the public plain pipeline alone: grow, `enroll_seeded_in` and age
    /// on the board's streams, then `bind` and `respond_majority` at
    /// each corner on its own stream.
    fn plain_pipeline_record(engine: &FleetEngine, master_seed: u64, index: usize) -> BoardRecord {
        let config = engine.config();
        let tech = engine.sim.technology();
        let board_seed = split_seed(master_seed, index as u64);
        let stream = |s: u64| StdRng::seed_from_u64(split_seed(board_seed, s));
        let board = engine.sim.grow_board_with_id(
            &mut stream(STREAM_GROW),
            BoardId(index as u32),
            config.units,
            config.cols,
        );
        let enrollment = engine.puf().enroll_seeded_in(
            split_seed(board_seed, STREAM_ENROLL),
            &board,
            tech,
            config.corners[0],
            &config.opts,
            &mut MeasureArena::new(),
        );
        let board = match &config.aging {
            Some(aging) => aging
                .model
                .age_board(&mut stream(STREAM_AGING), &board, aging.years),
            None => board,
        };
        let expected = enrollment.expected_bits();
        let bound = enrollment.bind(&board);
        let corner_flips = config
            .corners
            .iter()
            .enumerate()
            .map(|(c, &env)| {
                let mut rng = stream(STREAM_CORNER_BASE + c as u64);
                bound
                    .respond_majority(&mut rng, tech, env, &config.response_probe, config.votes)
                    .hamming_distance(&expected)
                    .expect("equal lengths")
            })
            .collect();
        BoardRecord {
            board_index: index,
            board_seed,
            margins_ps: enrollment.margins_ps(),
            expected_bits: expected,
            corner_flips,
            corner_erasures: vec![0; config.corners.len()],
        }
    }

    #[test]
    fn plain_fleet_equals_the_plain_pipeline() {
        // With no plan the engine reads through the fault-screened
        // pipeline under an inert plan; this pins that to the paper's
        // pipeline.
        let aged = FleetAging {
            model: AgingModel::default(),
            years: 10.0,
        };
        for votes in [1, 3] {
            for aging in [None, Some(aged)] {
                let engine = FleetEngine::new(
                    SiliconSim::default_spartan(),
                    FleetConfig {
                        boards: 6,
                        units: 60,
                        cols: 6,
                        stages: 3,
                        votes,
                        aging,
                        ..FleetConfig::default()
                    },
                )
                .expect("valid config");
                let run = engine.run_serial(5);
                let want: Vec<BoardRecord> = (0..6)
                    .map(|i| plain_pipeline_record(&engine, 5, i))
                    .collect();
                assert_eq!(run.records, want, "votes {votes}, aging {aging:?}");
                assert!(run.quarantined.is_empty());
                assert!(!run.faults.has_activity());
            }
        }
    }

    /// A synthetic run with ragged bit counts and corner lists — the
    /// shape fault exclusions produce.
    fn ragged_run() -> FleetRun {
        let record =
            |index: usize, bits: &str, flips: Vec<usize>, erasures: Vec<usize>| BoardRecord {
                board_index: index,
                board_seed: index as u64,
                expected_bits: BitVec::from_binary_str(bits).expect("binary literal"),
                margins_ps: vec![1.0; bits.len()],
                corner_flips: flips,
                corner_erasures: erasures,
            };
        FleetRun {
            records: vec![
                record(0, "10110", vec![1, 0], vec![0, 0]),
                // Shorter bit-string (two pairs excluded) and one
                // erased bit at the second corner.
                record(1, "011", vec![0, 1], vec![0, 1]),
                // Missing the second corner entirely.
                record(2, "11010", vec![2], vec![0]),
                // No bits at all.
                record(3, "", vec![0, 0], vec![0, 0]),
            ],
            quarantined: Vec::new(),
            faults: FaultSummary::default(),
            elapsed: Duration::from_millis(1),
            threads: 1,
        }
    }

    #[test]
    fn uniqueness_compares_ragged_boards_over_the_common_prefix() {
        let run = ragged_run();
        // Board 3 (empty) pairs with the other three are skipped; the
        // remaining three pairs compare over min-length prefixes:
        // (0,1): 101 vs 011 -> 2/3; (0,2): 10110 vs 11010 -> 2/5;
        // (1,2): 011 vs 110 -> 2/3.
        let expected = (2.0 / 3.0 + 2.0 / 5.0 + 2.0 / 3.0) / 3.0;
        let got = run.uniqueness().expect("three comparable pairs");
        assert!((got - expected).abs() < 1e-12, "got {got}, want {expected}");
    }

    #[test]
    fn corner_flip_rates_tolerate_ragged_corners_and_erasures() {
        let run = ragged_run();
        let rates = run.corner_flip_rates();
        assert_eq!(rates.len(), 2, "corner count is the maximum over records");
        // Corner 0: all four boards contribute (5+3+5+0 bits, 1+0+2+0 flips).
        assert!(
            (rates[0] - 3.0 / 13.0).abs() < 1e-12,
            "corner 0: {}",
            rates[0]
        );
        // Corner 1: board 2 has no such corner; board 1's erased bit
        // leaves the denominator (5 + (3-1) + 0 bits, 0+1+0 flips).
        assert!(
            (rates[1] - 1.0 / 7.0).abs() < 1e-12,
            "corner 1: {}",
            rates[1]
        );
    }

    #[test]
    fn equal_length_statistics_match_the_strict_formulas() {
        // On a healthy (equal-length) run the prefix-tolerant paths
        // must reproduce the historical values exactly.
        let run = small_engine().run_on(7, 2);
        let strict_uniqueness = {
            let mut sum = 0.0;
            let mut pairs = 0usize;
            for i in 0..run.records.len() {
                for j in i + 1..run.records.len() {
                    let (a, b) = (&run.records[i].expected_bits, &run.records[j].expected_bits);
                    assert_eq!(a.len(), b.len());
                    sum += a.hamming_distance(b).expect("equal lengths") as f64 / a.len() as f64;
                    pairs += 1;
                }
            }
            sum / pairs as f64
        };
        assert_eq!(run.uniqueness(), Some(strict_uniqueness));
    }
}
