//! The end-to-end configurable RO-PUF pipeline: floorplan → enrollment →
//! response.
//!
//! Enrollment happens once, at chip-test time, at a chosen operating
//! point: every ring pair is calibrated ([`crate::calibrate`]), the
//! selection algorithm picks its configuration
//! ([`crate::select`]), and the configuration plus expected bit are
//! stored. Deployed devices then [`Enrollment::respond`] by measuring the
//! *configured* rings only — possibly at a different operating point,
//! which is exactly where reliability is decided.
//!
//! # Examples
//!
//! ```
//! use rand::SeedableRng;
//! use ropuf_core::puf::{ConfigurableRoPuf, EnrollOptions};
//! use ropuf_silicon::board::BoardId;
//! use ropuf_silicon::{DelayProbe, Environment, SiliconSim};
//!
//! let sim = SiliconSim::default_spartan();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(4);
//! let board = sim.grow_board_with_id(&mut rng, BoardId(0), 64, 8);
//!
//! let puf = ConfigurableRoPuf::tiled(board.len(), 4); // 8 pairs of 4-stage rings
//! let enrollment = puf.enroll(
//!     &mut rng,
//!     &board,
//!     sim.technology(),
//!     Environment::nominal(),
//!     &EnrollOptions::default(),
//! );
//! let bits = enrollment.respond(
//!     &mut rng,
//!     &board,
//!     sim.technology(),
//!     Environment::nominal(),
//!     &DelayProbe::noiseless(),
//! );
//! assert_eq!(bits.len(), 8);
//! ```

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ropuf_num::bits::BitVec;
use ropuf_silicon::env::MAX_CORNERS;
use ropuf_silicon::{
    Board, CornerSet, DelayProbe, Environment, MeasureArena, RingSweep, Technology,
};
use ropuf_telemetry as telemetry;

use crate::calibrate::{calibrate, calibrate_pair, Calibration};
use crate::config::{ConfigVector, ParityPolicy};
use crate::error::Error;
use crate::fleet::{parallel_map_indexed, split_seed};
use crate::ro::{ConfigurableRo, RoPair};
use crate::select::{
    case1_multi_corner, case1_with_offset, case2_multi_corner, case2_with_offset, CornerDelays,
};

/// Base of the per-pair RNG stream family used for extra-corner
/// calibration: corner `c ≥ 1` of pair `i` draws from
/// `split_seed(split_seed(seed, i), BASE + c)`. Corner 0 (the
/// enrollment environment) keeps the legacy `split_seed(seed, i)`
/// stream, which is what makes corners-off enrollment byte-identical
/// to the pre-multi-corner pipeline. The base is chosen clear of the
/// other pair-seed-derived streams (`u64::MAX - 2 ..= u64::MAX - 4`).
const STREAM_ENROLL_CORNER_BASE: u64 = u64::MAX - 16;

/// RNG stream seed for calibrating pair `pair` at corner index `corner`
/// of the enrollment corner list (index 0 = the enrollment
/// environment).
pub(crate) fn corner_stream(seed: u64, pair: usize, corner: usize) -> u64 {
    let pair_seed = split_seed(seed, pair as u64);
    if corner == 0 {
        pair_seed
    } else {
        split_seed(pair_seed, STREAM_ENROLL_CORNER_BASE + corner as u64)
    }
}

/// Which selection algorithm enrollment runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SelectionMode {
    /// Case-1: one shared configuration for both rings.
    Case1,
    /// Case-2: independent configurations with equal selected counts.
    #[default]
    Case2,
}

/// Enrollment options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnrollOptions {
    /// Selection algorithm.
    pub mode: SelectionMode,
    /// Oscillation-parity policy for the selected configurations.
    pub parity: ParityPolicy,
    /// Reliability threshold `Rth` (ps): pairs whose selection margin
    /// falls below it produce no bit (§IV.E). Zero keeps every pair.
    pub threshold_ps: f64,
    /// Plausibility band for calibrated per-stage `ddiff` values, ps.
    /// Pairs with any stage outside the band are excluded — the
    /// §III.C escape hatch applied to *defective* silicon (see
    /// [`ropuf_silicon::defects`]). `None` disables screening.
    pub plausible_ddiff_ps: Option<(f64, f64)>,
    /// Delay probe used for calibration measurements.
    pub probe: DelayProbe,
    /// Operating points selection must hold margin at. Empty (the
    /// default) keeps the paper's nominal-only behavior: only the
    /// enrollment environment is calibrated and the §III.D solvers run
    /// unchanged. Non-empty switches to min-margin-across-corners
    /// selection over the listed corners *plus* the enrollment
    /// environment (which is deduplicated if listed); pairs degenerate
    /// at any corner — a tie or a polarity flip — are excluded via the
    /// §III.C escape hatch.
    pub corners: CornerSet,
}

impl Default for EnrollOptions {
    fn default() -> Self {
        Self {
            mode: SelectionMode::Case2,
            parity: ParityPolicy::ForceOdd,
            threshold_ps: 0.0,
            plausible_ddiff_ps: None,
            probe: DelayProbe::new(0.25, 4),
            corners: CornerSet::empty(),
        }
    }
}

impl EnrollOptions {
    /// Checks the options, passing them through when consistent. Every
    /// field is public, so callers build options as struct literals and
    /// validate the ones that came from untrusted input.
    ///
    /// # Examples
    ///
    /// ```
    /// use ropuf_core::puf::EnrollOptions;
    ///
    /// let opts = EnrollOptions {
    ///     threshold_ps: 3.0,
    ///     ..EnrollOptions::default()
    /// };
    /// assert_eq!(opts.validate().unwrap(), opts);
    /// let negative = EnrollOptions {
    ///     threshold_ps: -1.0,
    ///     ..EnrollOptions::default()
    /// };
    /// assert!(negative.validate().is_err());
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`Error::Enrollment`] when the threshold is negative or
    /// not finite, or the plausibility band is inverted or not finite.
    pub fn validate(self) -> Result<Self, Error> {
        if !self.threshold_ps.is_finite() || self.threshold_ps < 0.0 {
            return Err(Error::Enrollment(format!(
                "reliability threshold must be finite and non-negative, got {}",
                self.threshold_ps
            )));
        }
        if let Some((lo, hi)) = self.plausible_ddiff_ps {
            if !lo.is_finite() || !hi.is_finite() || lo > hi {
                return Err(Error::Enrollment(format!(
                    "plausibility band [{lo}, {hi}] must be finite and ordered"
                )));
            }
        }
        Ok(self)
    }

    /// The corners enrollment calibrates at: the enrollment
    /// environment `env` first, then every corner of
    /// [`EnrollOptions::corners`] other than `env`. A single corner
    /// means nominal-only enrollment — the paper's pipeline, byte for
    /// byte.
    pub fn enrollment_corners(&self, env: Environment) -> Vec<Environment> {
        std::iter::once(env)
            .chain(self.corners.iter().filter(|&c| c != env))
            .collect()
    }
}

/// Device-independent floorplan: which board units form each ring pair.
///
/// The unit lists are shared, not copied: every pair enrolled from a
/// floorplan holds the floorplan's allocation, so cloning a spec
/// allocates nothing.
#[derive(Clone, PartialEq, Eq)]
pub struct PairSpec {
    /// The top ring's units, then the bottom ring's (equal halves).
    units: Arc<[usize]>,
}

impl std::fmt::Debug for PairSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PairSpec")
            .field("top", &self.top())
            .field("bottom", &self.bottom())
            .finish()
    }
}

impl PairSpec {
    /// Builds a pair from explicit unit index lists, rejecting malformed
    /// layouts instead of panicking.
    ///
    /// # Errors
    ///
    /// [`Error::Selection`] when `top` is empty or the lists differ in
    /// length.
    pub fn try_new(top: Vec<usize>, bottom: Vec<usize>) -> Result<Self, Error> {
        Self::check_layout(top.len(), bottom.len())?;
        Ok(Self {
            units: top.into_iter().chain(bottom).collect(),
        })
    }

    /// [`PairSpec::try_new`]'s checks on the two ring lengths alone, for
    /// callers that validate a layout without building it.
    pub(crate) fn check_layout(top: usize, bottom: usize) -> Result<(), Error> {
        if top == 0 {
            return Err(Error::Selection(
                "rings need at least one stage".to_string(),
            ));
        }
        if top != bottom {
            return Err(Error::Selection(format!(
                "paired rings must be equally sized, got {top} and {bottom}"
            )));
        }
        Ok(())
    }

    /// Splits `2n` consecutive units starting at `start` into a
    /// top/bottom pair.
    pub fn split_at(start: usize, stages: usize) -> Self {
        Self::try_new(
            (start..start + stages).collect(),
            (start + stages..start + 2 * stages).collect(),
        )
        .expect("split ranges are equal-length by construction")
    }

    /// Interleaves `2n` consecutive units starting at `start`: even
    /// offsets form the top ring, odd offsets the bottom ring.
    ///
    /// Interleaving makes each stage's Δd a difference of *physically
    /// adjacent* devices, so the smooth systematic process gradient
    /// cancels stage-by-stage instead of accumulating into a
    /// board-global bias that correlates bits across chips. This is the
    /// classic "adjacent RO pairs" layout rule; the
    /// `repro ablate-layout` experiment quantifies the difference.
    pub fn interleaved_at(start: usize, stages: usize) -> Self {
        Self::try_new(
            (0..stages).map(|i| start + 2 * i).collect(),
            (0..stages).map(|i| start + 2 * i + 1).collect(),
        )
        .expect("interleaved ranges are equal-length by construction")
    }

    /// Unit indices of the top ring.
    pub fn top(&self) -> &[usize] {
        &self.units[..self.stages()]
    }

    /// Unit indices of the bottom ring.
    pub fn bottom(&self) -> &[usize] {
        &self.units[self.stages()..]
    }

    /// Stages per ring.
    pub fn stages(&self) -> usize {
        self.units.len() / 2
    }

    /// Materializes the pair as ring views over a board. The rings
    /// borrow this spec's unit lists, so binding allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if any index is outside the board.
    pub fn bind<'a>(&'a self, board: &'a Board) -> RoPair<'a> {
        let ring = |stages: &'a [usize]| {
            ConfigurableRo::try_borrowed(board, stages).expect("pair indices outside the board")
        };
        RoPair::try_new(ring(self.top()), ring(self.bottom()))
            .expect("paired rings are equal-length by construction")
    }
}

/// A configurable RO PUF floorplan: a list of ring pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigurableRoPuf {
    specs: Vec<PairSpec>,
}

impl ConfigurableRoPuf {
    /// Builds a PUF from explicit pair specs.
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty.
    pub fn new(specs: Vec<PairSpec>) -> Self {
        assert!(!specs.is_empty(), "a PUF needs at least one ring pair");
        Self { specs }
    }

    /// Tiles `total_units` board units into as many consecutive
    /// `stages`-per-ring pairs as fit (`⌊total / 2·stages⌋` pairs).
    ///
    /// # Panics
    ///
    /// Panics if fewer than one pair fits.
    pub fn tiled(total_units: usize, stages: usize) -> Self {
        assert!(stages > 0, "rings need at least one stage");
        let pairs = total_units / (2 * stages);
        assert!(
            pairs > 0,
            "{total_units} units cannot host a {stages}-stage pair"
        );
        Self::new(
            (0..pairs)
                .map(|p| PairSpec::split_at(p * 2 * stages, stages))
                .collect(),
        )
    }

    /// Like [`tiled`](Self::tiled) but with interleaved pairs (see
    /// [`PairSpec::interleaved_at`]) — the layout that decorrelates bits
    /// from the board's systematic process gradient. Prefer this for
    /// fleet-scale deployments.
    ///
    /// # Panics
    ///
    /// Panics if fewer than one pair fits.
    pub fn tiled_interleaved(total_units: usize, stages: usize) -> Self {
        assert!(stages > 0, "rings need at least one stage");
        let pairs = total_units / (2 * stages);
        assert!(
            pairs > 0,
            "{total_units} units cannot host a {stages}-stage pair"
        );
        Self::new(
            (0..pairs)
                .map(|p| PairSpec::interleaved_at(p * 2 * stages, stages))
                .collect(),
        )
    }

    /// The floorplan's pair specs.
    pub fn specs(&self) -> &[PairSpec] {
        &self.specs
    }

    /// Number of ring pairs (= maximum bits).
    pub fn pair_count(&self) -> usize {
        self.specs.len()
    }

    /// Enrolls the PUF on `board` at operating point `env`:
    /// calibrates every pair, runs selection, and applies the
    /// reliability threshold.
    ///
    /// Every reading draws from the caller's `rng`, pair-major: for
    /// each pair, its top then its bottom ring at `env`, then the same
    /// at each further corner of [`EnrollOptions::enrollment_corners`].
    pub fn enroll<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        board: &Board,
        tech: &Technology,
        env: Environment,
        opts: &EnrollOptions,
    ) -> Enrollment {
        let mut arena = MeasureArena::new();
        self.enroll_in(board, tech, env, opts, &mut arena, |_, _, top, bottom| {
            calibrate_pair(top, bottom, |d| Some(opts.probe.measure_ps(rng, d)))
        })
        .0
    }

    /// Enrolls with per-(pair, corner) RNG streams derived from `seed`
    /// via [`crate::fleet::split_seed`], instead of one shared RNG.
    ///
    /// Because pair `i` at corner `c` always draws from its own stream,
    /// the result is independent of evaluation order — bit-identical to
    /// the per-ring reference [`enroll_par`](Self::enroll_par) — and
    /// this is what the fleet engine runs per board.
    pub fn enroll_seeded(
        &self,
        seed: u64,
        board: &Board,
        tech: &Technology,
        env: Environment,
        opts: &EnrollOptions,
    ) -> Enrollment {
        let mut arena = MeasureArena::new();
        self.enroll_seeded_in(seed, board, tech, env, opts, &mut arena)
    }

    /// [`enroll_seeded`](Self::enroll_seeded) against a caller-owned
    /// [`MeasureArena`]: the enrollment kernel lays every ring of the
    /// board, at every enrollment corner, into one structure-of-arrays
    /// block, sweeps it once, and calibrates and selects pair by pair
    /// from arena views.
    ///
    /// Fleet workers pass one arena per worker and enroll board after
    /// board into it; [`MeasureArena::begin_block`] fully resets the
    /// block, so repeated enrollments of one board through one arena
    /// are bit-identical (no cross-board state).
    pub fn enroll_seeded_in(
        &self,
        seed: u64,
        board: &Board,
        tech: &Technology,
        env: Environment,
        opts: &EnrollOptions,
        arena: &mut MeasureArena,
    ) -> Enrollment {
        self.enroll_in(board, tech, env, opts, arena, |i, c, top, bottom| {
            let mut rng = StdRng::seed_from_u64(corner_stream(seed, i, c));
            calibrate_pair(top, bottom, |d| Some(opts.probe.measure_ps(&mut rng, d)))
        })
        .0
    }

    /// The per-ring reference for [`enroll_seeded`](Self::enroll_seeded):
    /// enrolls each pair on its own, ring by ring through [`calibrate`],
    /// fanning pairs out over `threads` workers. It draws from the same
    /// per-(pair, corner) streams, so it is bit-identical to the kernel
    /// path for the same `seed` at any thread count — the cross-check
    /// that pins the kernel's block layout, zero padding and pair walk.
    pub fn enroll_par(
        &self,
        seed: u64,
        board: &Board,
        tech: &Technology,
        env: Environment,
        opts: &EnrollOptions,
        threads: usize,
    ) -> Enrollment {
        let corners = opts.enrollment_corners(env);
        let pairs = parallel_map_indexed(self.specs.len(), threads, |i| {
            let _pair_span = telemetry::span("enroll.pair");
            let spec = &self.specs[i];
            let pair = spec.bind(board);
            let cals: Vec<(Calibration, Calibration)> = corners
                .iter()
                .enumerate()
                .map(|(c, &corner_env)| {
                    let mut rng = StdRng::seed_from_u64(corner_stream(seed, i, c));
                    let top = calibrate(&mut rng, pair.top(), &opts.probe, corner_env, tech);
                    let bottom = calibrate(&mut rng, pair.bottom(), &opts.probe, corner_env, tech);
                    (top, bottom)
                })
                .collect();
            select_pair(spec, &cals, opts)
        });
        Enrollment {
            pairs,
            enrolled_at: env,
        }
    }

    /// The enrollment kernel. Lays every ring of `board` at every
    /// enrollment corner into one `arena` block (pair `i`'s top and
    /// bottom rings at corner `c` in rows `2(i·C + c)` and
    /// `2(i·C + c) + 1`; shorter rings zero-padded to the longest),
    /// sweeps the block once, then walks pairs in index order.
    ///
    /// `read_pair(i, c, top, bottom)` calibrates pair `i` at corner `c`
    /// from its two ring sweeps; the caller's draw policy lives there.
    /// `None` marks a failed reading: the pair's remaining corners are
    /// still read, and then the pair is excluded (§III.C) and counted in
    /// the returned number of unreadable pairs.
    ///
    /// Each pair runs under one `enroll.pair` span covering its
    /// calibrations at every corner and its selection.
    pub(crate) fn enroll_in(
        &self,
        board: &Board,
        tech: &Technology,
        env: Environment,
        opts: &EnrollOptions,
        arena: &mut MeasureArena,
        mut read_pair: impl FnMut(
            usize,
            usize,
            RingSweep<'_>,
            RingSweep<'_>,
        ) -> Option<(Calibration, Calibration)>,
    ) -> (Enrollment, usize) {
        let corners = opts.enrollment_corners(env);
        let rows_per_pair = 2 * corners.len();
        let stages = self
            .specs
            .iter()
            .map(PairSpec::stages)
            .max()
            .expect("a PUF has at least one ring pair");
        let scales: Vec<f64> = corners.iter().map(|&c| tech.delay_scale(c)).collect();
        arena.begin_block(rows_per_pair * self.specs.len(), stages);
        for (i, spec) in self.specs.iter().enumerate() {
            let pair = spec.bind(board);
            for (c, (&corner_env, &scale)) in corners.iter().zip(&scales).enumerate() {
                let row = i * rows_per_pair + 2 * c;
                pair.top()
                    .stage_delays_into_scaled(scale, corner_env, tech, arena, row);
                pair.bottom()
                    .stage_delays_into_scaled(scale, corner_env, tech, arena, row + 1);
            }
        }
        let sweep = arena.sweep();
        let mut unreadable = 0;
        let mut cals = Vec::with_capacity(corners.len());
        let pairs = self
            .specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let _pair_span = telemetry::span("enroll.pair");
                let n = spec.stages();
                cals.clear();
                for c in 0..corners.len() {
                    let row = i * rows_per_pair + 2 * c;
                    cals.extend(read_pair(i, c, sweep.ring(row, n), sweep.ring(row + 1, n)));
                }
                if cals.len() < corners.len() {
                    unreadable += 1;
                    return None;
                }
                select_pair(spec, &cals, opts)
            })
            .collect();
        (
            Enrollment {
                pairs,
                enrolled_at: env,
            },
            unreadable,
        )
    }
}

/// Plausibility screen, §III.D selection, and margin thresholding of one
/// pair. `cals[c]` holds its (top, bottom) calibrations at corner `c` of
/// [`EnrollOptions::enrollment_corners`].
///
/// With one corner this runs the paper's solvers and merely flags a
/// degenerate (zero-margin) pair. With several it runs their
/// min-margin-across-corners forms, screens every corner, and excludes
/// a pair degenerate at *any* corner outright (§III.C): its bit would
/// flip with the environment.
///
/// With telemetry enabled, selection is timed under `enroll.select`,
/// and the `enroll.pairs.case1` / `enroll.pairs.case2`,
/// `enroll.excluded.*`, and `enroll.degenerate` counters track what
/// happened to the pair.
fn select_pair(
    spec: &PairSpec,
    cals: &[(Calibration, Calibration)],
    opts: &EnrollOptions,
) -> Option<EnrolledPair> {
    if let Some((lo, hi)) = opts.plausible_ddiff_ps {
        let suspicious = cals
            .iter()
            .flat_map(|(t, b)| t.ddiffs_ps().iter().chain(b.ddiffs_ps()))
            .any(|&d| !(lo..=hi).contains(&d));
        if suspicious {
            telemetry::counter("enroll.excluded.implausible", 1);
            return None;
        }
    }
    // Enrollment corners are the enrollment environment plus at most
    // `MAX_CORNERS` others, so their views fit on the stack.
    let mut views = [CornerDelays {
        alpha: &[],
        beta: &[],
        offset_ps: 0.0,
    }; MAX_CORNERS + 1];
    for (view, (t, b)) in views.iter_mut().zip(cals) {
        *view = CornerDelays {
            alpha: t.ddiffs_ps(),
            beta: b.ddiffs_ps(),
            offset_ps: t.bypass_ps() - b.bypass_ps(),
        };
    }
    let corners = &views[..cals.len()];
    let multi_corner = corners.len() > 1;
    let select_span = telemetry::span("enroll.select");
    let (top_config, bottom_config, margin, bit, degenerate) = match opts.mode {
        SelectionMode::Case1 => {
            let s = match corners {
                [one] => case1_with_offset(one.alpha, one.beta, one.offset_ps, opts.parity),
                _ => case1_multi_corner(corners, opts.parity),
            };
            telemetry::counter("enroll.pairs.case1", 1);
            let (margin, bit, degenerate) = (s.margin(), s.bit(), s.is_degenerate());
            let config = s.into_config();
            (config.clone(), config, margin, bit, degenerate)
        }
        SelectionMode::Case2 => {
            let s = match corners {
                [one] => case2_with_offset(one.alpha, one.beta, one.offset_ps, opts.parity),
                _ => case2_multi_corner(corners, opts.parity),
            };
            telemetry::counter("enroll.pairs.case2", 1);
            let (margin, bit, degenerate) = (s.margin(), s.bit(), s.is_degenerate());
            let (top, bottom) = s.into_configs();
            (top, bottom, margin, bit, degenerate)
        }
    };
    drop(select_span);
    if degenerate {
        // A zero-margin pair carries no silicon signature: its bit is a
        // selection-convention artifact, not entropy. Surface it so
        // fleet statistics can discount the bit.
        telemetry::counter("enroll.degenerate", 1);
        if multi_corner {
            telemetry::counter("enroll.excluded.corner_degenerate", 1);
            return None;
        }
    }
    if margin < opts.threshold_ps {
        telemetry::counter("enroll.excluded.threshold", 1);
        None
    } else {
        Some(EnrolledPair {
            spec: spec.clone(),
            top_config,
            bottom_config,
            expected_bit: bit,
            margin_ps: margin,
        })
    }
}

/// One enrolled ring pair: its configurations, expected bit, and margin.
#[derive(Debug, Clone, PartialEq)]
pub struct EnrolledPair {
    spec: PairSpec,
    top_config: ConfigVector,
    bottom_config: ConfigVector,
    expected_bit: bool,
    margin_ps: f64,
}

impl EnrolledPair {
    /// Reassembles a pair record from its parts (used by
    /// [`crate::persist`] and the baseline schemes).
    pub(crate) fn from_parts(
        spec: PairSpec,
        top_config: ConfigVector,
        bottom_config: ConfigVector,
        expected_bit: bool,
        margin_ps: f64,
    ) -> Self {
        Self {
            spec,
            top_config,
            bottom_config,
            expected_bit,
            margin_ps,
        }
    }

    /// The floorplan entry this enrollment configures.
    pub fn spec(&self) -> &PairSpec {
        &self.spec
    }

    /// Configuration applied to the top ring.
    pub fn top_config(&self) -> &ConfigVector {
        &self.top_config
    }

    /// Configuration applied to the bottom ring.
    pub fn bottom_config(&self) -> &ConfigVector {
        &self.bottom_config
    }

    /// The bit recorded at enrollment (`true` = top ring slower).
    pub fn expected_bit(&self) -> bool {
        self.expected_bit
    }

    /// The selection margin achieved at enrollment, picoseconds.
    pub fn margin_ps(&self) -> f64 {
        self.margin_ps
    }
}

/// An enrolled PUF: per-pair configurations ready to generate responses.
#[derive(Debug, Clone, PartialEq)]
pub struct Enrollment {
    pairs: Vec<Option<EnrolledPair>>,
    enrolled_at: Environment,
}

impl Enrollment {
    /// Reassembles an enrollment from its parts (used by
    /// [`crate::persist`] and the baseline schemes).
    pub(crate) fn from_parts(pairs: Vec<Option<EnrolledPair>>, enrolled_at: Environment) -> Self {
        Self { pairs, enrolled_at }
    }

    /// Per-pair enrollment records; `None` marks pairs excluded by the
    /// reliability threshold.
    pub fn pairs(&self) -> &[Option<EnrolledPair>] {
        &self.pairs
    }

    /// The operating point enrollment was performed at.
    pub fn enrolled_at(&self) -> Environment {
        self.enrolled_at
    }

    /// Number of pairs producing bits (after threshold exclusion).
    pub fn bit_count(&self) -> usize {
        self.pairs.iter().flatten().count()
    }

    /// The bits recorded at enrollment, in pair order (excluded pairs
    /// skipped).
    pub fn expected_bits(&self) -> BitVec {
        self.pairs
            .iter()
            .flatten()
            .map(EnrolledPair::expected_bit)
            .collect()
    }

    /// Enrollment margins in pair order (excluded pairs skipped),
    /// picoseconds.
    pub fn margins_ps(&self) -> Vec<f64> {
        self.pairs
            .iter()
            .flatten()
            .map(EnrolledPair::margin_ps)
            .collect()
    }

    /// Resolves every enrolled pair's ring views on `board` once,
    /// returning a context that can be read out repeatedly — e.g. across
    /// several operating-point corners or majority votes — without
    /// re-binding per read. Binding draws no randomness, so responses
    /// through the bound context are byte-identical to the unbound
    /// methods. The ring views borrow the enrollment's unit lists, so
    /// the one allocation is the list of bound pairs.
    ///
    /// # Panics
    ///
    /// Panics if a spec references units outside `board` (enrolling and
    /// responding must use the same board).
    pub fn bind<'a, 'b: 'a>(&'b self, board: &'a Board) -> BoundEnrollment<'a, 'b> {
        let mut pairs = Vec::with_capacity(self.pairs.len());
        pairs.extend(self.pairs.iter().flatten().map(|p| (p, p.spec.bind(board))));
        BoundEnrollment { pairs }
    }

    /// Generates a majority-voted response: reads the PUF `votes` times
    /// at `env` and takes the per-bit majority — the cheap first line of
    /// defence against measurement noise before any error correction.
    ///
    /// # Panics
    ///
    /// Panics if `votes` is zero or even, or if a spec references units
    /// outside `board`.
    pub fn respond_majority<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        board: &Board,
        tech: &Technology,
        env: Environment,
        probe: &DelayProbe,
        votes: usize,
    ) -> BitVec {
        self.bind(board)
            .respond_majority(rng, tech, env, probe, votes)
    }

    /// Generates a response at operating point `env` by measuring every
    /// configured ring pair with `probe`. Bit = `true` when the top ring
    /// measures slower.
    ///
    /// # Panics
    ///
    /// Panics if a spec references units outside `board` (enrolling and
    /// responding must use the same board).
    pub fn respond<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        board: &Board,
        tech: &Technology,
        env: Environment,
        probe: &DelayProbe,
    ) -> BitVec {
        self.bind(board).respond(rng, tech, env, probe)
    }
}

/// An [`Enrollment`] with its ring views resolved on a specific board —
/// the read-out context the fleet engine binds once per board and reuses
/// across every corner of its environment sweep.
#[derive(Debug, Clone)]
pub struct BoundEnrollment<'a, 'b> {
    pairs: Vec<(&'b EnrolledPair, RoPair<'a>)>,
}

impl<'a, 'b> BoundEnrollment<'a, 'b> {
    /// The enrolled pairs (threshold-excluded pairs already skipped),
    /// each with its bound ring views.
    pub(crate) fn pairs(&self) -> &[(&'b EnrolledPair, RoPair<'a>)] {
        &self.pairs
    }

    /// See [`Enrollment::respond`]; measurements and noise draws are
    /// identical, only the per-read ring binding is amortized.
    pub fn respond<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        tech: &Technology,
        env: Environment,
        probe: &DelayProbe,
    ) -> BitVec {
        self.respond_majority(rng, tech, env, probe, 1)
    }

    /// See [`Enrollment::respond_majority`].
    ///
    /// # Panics
    ///
    /// Panics if `votes` is zero or even.
    pub fn respond_majority<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        tech: &Technology,
        env: Environment,
        probe: &DelayProbe,
        votes: usize,
    ) -> BitVec {
        self.read_out::<Option<BitVec>>(tech, env, votes, |d| Some(probe.measure_ps(rng, d)))
            .expect("an odd number of valid votes never ties")
    }

    /// The read-out kernel behind every response path, plain and
    /// fault-screened ([`crate::robust::respond_robust_bound`]).
    ///
    /// Makes `votes` passes; each walks the pairs in order and reads the
    /// top ring, then the bottom ring, through `read` — both of them
    /// even when the first reading fails, so the measurement stream
    /// advances the same either way. A pair votes `top > bottom` when
    /// both readings are valid and casts no vote in that pass otherwise.
    /// Bit `i` is `Some(ones > zeros)`, or `None` (an erasure) when
    /// `ones == zeros`; with every reading valid and `votes` odd that
    /// is the plain majority rule.
    ///
    /// # Panics
    ///
    /// Panics if `votes` is zero or even.
    pub(crate) fn read_out<C: FromIterator<Option<bool>>>(
        &self,
        tech: &Technology,
        env: Environment,
        votes: usize,
        mut read: impl FnMut(f64) -> Option<f64>,
    ) -> C {
        assert!(
            votes % 2 == 1,
            "majority voting needs an odd vote count, got {votes}"
        );
        let scale = tech.delay_scale(env);
        // +1 for a `top > bottom` vote, -1 against, 0 for no vote.
        let mut vote = |(p, pair): &(&EnrolledPair, RoPair<'_>)| -> isize {
            let (top, bottom) = (pair.top(), pair.bottom());
            let top = read(top.ring_delay_ps_scaled(&p.top_config, scale, env, tech));
            let bottom = read(bottom.ring_delay_ps_scaled(&p.bottom_config, scale, env, tech));
            match (top, bottom) {
                (Some(t), Some(b)) if t > b => 1,
                (Some(_), Some(_)) => -1,
                _ => 0,
            }
        };
        // Every pass but the last tallies `ones - zeros` per pair; the
        // last adds its own vote and resolves the bit, so a single pass
        // collects straight into `C`.
        let mut tally = vec![0; if votes > 1 { self.pairs.len() } else { 0 }];
        for _ in 1..votes {
            for (t, pair) in tally.iter_mut().zip(&self.pairs) {
                *t += vote(pair);
            }
        }
        self.pairs
            .iter()
            .enumerate()
            .map(|(i, pair)| {
                let net = tally.get(i).copied().unwrap_or(0) + vote(pair);
                (net != 0).then_some(net > 0)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ropuf_silicon::board::BoardId;
    use ropuf_silicon::SiliconSim;

    fn setup(units: usize) -> (Board, Technology, StdRng) {
        let sim = SiliconSim::default_spartan();
        let mut rng = StdRng::seed_from_u64(123);
        let board = sim.grow_board_with_id(&mut rng, BoardId(0), units, 16);
        (board, *sim.technology(), rng)
    }

    #[test]
    fn tiled_floorplan_counts() {
        let puf = ConfigurableRoPuf::tiled(64, 4);
        assert_eq!(puf.pair_count(), 8);
        assert_eq!(puf.specs()[1].top(), &[8, 9, 10, 11]);
        assert_eq!(puf.specs()[1].bottom(), &[12, 13, 14, 15]);
        // Leftover units are unused.
        assert_eq!(ConfigurableRoPuf::tiled(65, 4).pair_count(), 8);
        // Explicit layouts are validated, not unwound.
        assert!(matches!(
            PairSpec::try_new(vec![], vec![]),
            Err(Error::Selection(_))
        ));
        let err = PairSpec::try_new(vec![0, 1], vec![2]).unwrap_err();
        assert!(err.to_string().contains("equally sized"), "{err}");
    }

    #[test]
    fn interleaved_floorplan_alternates_units() {
        let puf = ConfigurableRoPuf::tiled_interleaved(24, 3);
        assert_eq!(puf.pair_count(), 4);
        assert_eq!(puf.specs()[0].top(), &[0, 2, 4]);
        assert_eq!(puf.specs()[0].bottom(), &[1, 3, 5]);
        assert_eq!(puf.specs()[1].top(), &[6, 8, 10]);
    }

    #[test]
    fn interleaving_decorrelates_fleet_bits() {
        // With blocked pairs, the per-board systematic gradient pushes
        // all pairs of a board the same way, inflating the inter-chip HD
        // spread far beyond binomial; interleaved pairs cancel it.
        use ropuf_metrics_free::hd_sigma;
        mod ropuf_metrics_free {
            use ropuf_num::bits::BitVec;
            pub fn hd_sigma(responses: &[BitVec]) -> f64 {
                let mut hds = Vec::new();
                for i in 0..responses.len() {
                    for j in i + 1..responses.len() {
                        hds.push(responses[i].hamming_distance(&responses[j]).unwrap() as f64);
                    }
                }
                let m = hds.iter().sum::<f64>() / hds.len() as f64;
                (hds.iter().map(|h| (h - m) * (h - m)).sum::<f64>() / (hds.len() - 1) as f64).sqrt()
            }
        }

        let sim = ropuf_silicon::SiliconSim::default_spartan();
        let mut rng = StdRng::seed_from_u64(31);
        let boards: Vec<Board> = (0..24)
            .map(|i| sim.grow_board_with_id(&mut rng, BoardId(i), 320, 16))
            .collect();
        let opts = EnrollOptions {
            probe: DelayProbe::noiseless(),
            ..EnrollOptions::default()
        };
        let collect = |puf: &ConfigurableRoPuf, rng: &mut StdRng| {
            boards
                .iter()
                .map(|b| {
                    puf.enroll(rng, b, sim.technology(), Environment::nominal(), &opts)
                        .expected_bits()
                })
                .collect::<Vec<_>>()
        };
        let blocked = collect(&ConfigurableRoPuf::tiled(320, 5), &mut rng);
        let interleaved = collect(&ConfigurableRoPuf::tiled_interleaved(320, 5), &mut rng);
        let s_blocked = hd_sigma(&blocked);
        let s_inter = hd_sigma(&interleaved);
        // 32 bits: binomial sigma = sqrt(32)/2 = 2.83.
        assert!(s_inter < 5.0, "interleaved sigma {s_inter}");
        assert!(
            s_blocked > s_inter,
            "blocked {s_blocked} !> interleaved {s_inter}"
        );
    }

    #[test]
    fn enrollment_produces_bits_and_margins() {
        let (board, tech, mut rng) = setup(80);
        let puf = ConfigurableRoPuf::tiled(80, 5);
        let enrollment = puf.enroll(
            &mut rng,
            &board,
            &tech,
            Environment::nominal(),
            &EnrollOptions::default(),
        );
        assert_eq!(enrollment.bit_count(), 8);
        assert_eq!(enrollment.expected_bits().len(), 8);
        assert!(enrollment.margins_ps().iter().all(|&m| m >= 0.0));
    }

    #[test]
    fn response_at_enrollment_point_matches_expected_bits() {
        let (board, tech, mut rng) = setup(96);
        let puf = ConfigurableRoPuf::tiled(96, 6);
        let env = Environment::nominal();
        let opts = EnrollOptions {
            probe: DelayProbe::noiseless(),
            ..EnrollOptions::default()
        };
        let enrollment = puf.enroll(&mut rng, &board, &tech, env, &opts);
        let response = enrollment.respond(&mut rng, &board, &tech, env, &DelayProbe::noiseless());
        assert_eq!(response, enrollment.expected_bits());
    }

    #[test]
    fn case1_configs_are_shared() {
        let (board, tech, mut rng) = setup(60);
        let puf = ConfigurableRoPuf::tiled(60, 5);
        let opts = EnrollOptions {
            mode: SelectionMode::Case1,
            ..EnrollOptions::default()
        };
        let enrollment = puf.enroll(&mut rng, &board, &tech, Environment::nominal(), &opts);
        for pair in enrollment.pairs().iter().flatten() {
            assert_eq!(pair.top_config(), pair.bottom_config());
        }
    }

    #[test]
    fn case2_counts_are_equal() {
        let (board, tech, mut rng) = setup(60);
        let puf = ConfigurableRoPuf::tiled(60, 5);
        let enrollment = puf.enroll(
            &mut rng,
            &board,
            &tech,
            Environment::nominal(),
            &EnrollOptions::default(),
        );
        for pair in enrollment.pairs().iter().flatten() {
            assert_eq!(
                pair.top_config().selected_count(),
                pair.bottom_config().selected_count()
            );
        }
    }

    #[test]
    fn force_odd_configs_oscillate() {
        let (board, tech, mut rng) = setup(60);
        let puf = ConfigurableRoPuf::tiled(60, 5);
        let enrollment = puf.enroll(
            &mut rng,
            &board,
            &tech,
            Environment::nominal(),
            &EnrollOptions::default(),
        );
        for pair in enrollment.pairs().iter().flatten() {
            assert!(pair.top_config().oscillates());
            assert!(pair.bottom_config().oscillates());
        }
    }

    #[test]
    fn threshold_excludes_weak_pairs() {
        let (board, tech, mut rng) = setup(120);
        let puf = ConfigurableRoPuf::tiled(120, 5);
        let env = Environment::nominal();
        // Noiseless calibration makes margins identical across enrolls,
        // so a threshold derived from one run provably bites in the next.
        let base = EnrollOptions {
            probe: DelayProbe::noiseless(),
            ..EnrollOptions::default()
        };
        let all = puf.enroll(&mut rng, &board, &tech, env, &base);
        let strict = puf.enroll(
            &mut rng,
            &board,
            &tech,
            env,
            &EnrollOptions {
                threshold_ps: f64::MAX,
                ..base
            },
        );
        assert_eq!(all.bit_count(), 12);
        assert_eq!(strict.bit_count(), 0);
        let min_margin = all
            .margins_ps()
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        let mid = puf.enroll(
            &mut rng,
            &board,
            &tech,
            env,
            &EnrollOptions {
                threshold_ps: min_margin + 0.01,
                ..base
            },
        );
        assert!(mid.bit_count() < all.bit_count());
    }

    #[test]
    fn case2_margins_dominate_case1() {
        let (board, tech, _) = setup(150);
        let puf = ConfigurableRoPuf::tiled(150, 5);
        let env = Environment::nominal();
        let opts1 = EnrollOptions {
            mode: SelectionMode::Case1,
            parity: ParityPolicy::Ignore,
            probe: DelayProbe::noiseless(),
            ..EnrollOptions::default()
        };
        let opts2 = EnrollOptions {
            mode: SelectionMode::Case2,
            parity: ParityPolicy::Ignore,
            probe: DelayProbe::noiseless(),
            ..EnrollOptions::default()
        };
        let mut rng1 = StdRng::seed_from_u64(9);
        let mut rng2 = StdRng::seed_from_u64(9);
        let e1 = puf.enroll(&mut rng1, &board, &tech, env, &opts1);
        let e2 = puf.enroll(&mut rng2, &board, &tech, env, &opts2);
        for (m1, m2) in e1.margins_ps().iter().zip(e2.margins_ps()) {
            assert!(m2 >= m1 - 1e-9, "case2 {m2} < case1 {m1}");
        }
    }

    #[test]
    fn majority_vote_matches_single_reads_when_clean() {
        let (board, tech, mut rng) = setup(60);
        let puf = ConfigurableRoPuf::tiled(60, 5);
        let env = Environment::nominal();
        let e = puf.enroll(&mut rng, &board, &tech, env, &EnrollOptions::default());
        let probe = DelayProbe::noiseless();
        let single = e.respond(&mut rng, &board, &tech, env, &probe);
        let voted = e.respond_majority(&mut rng, &board, &tech, env, &probe, 5);
        assert_eq!(single, voted);
    }

    #[test]
    fn majority_vote_suppresses_noise() {
        let (board, tech, mut rng) = setup(60);
        let puf = ConfigurableRoPuf::tiled(60, 3); // small margins
        let env = Environment::nominal();
        let e = puf.enroll(&mut rng, &board, &tech, env, &EnrollOptions::default());
        // A brutally noisy probe: single reads flip bits, 9-vote
        // majorities flip (strictly) fewer on aggregate.
        let noisy = DelayProbe::new(8.0, 1);
        let truth = e.expected_bits();
        let count_errors = |r: &ropuf_num::bits::BitVec| r.hamming_distance(&truth).unwrap();
        let mut single_errors = 0;
        let mut voted_errors = 0;
        for _ in 0..40 {
            single_errors += count_errors(&e.respond(&mut rng, &board, &tech, env, &noisy));
            voted_errors +=
                count_errors(&e.respond_majority(&mut rng, &board, &tech, env, &noisy, 9));
        }
        assert!(
            voted_errors < single_errors,
            "voted {voted_errors} !< single {single_errors}"
        );
    }

    #[test]
    #[should_panic(expected = "odd vote count")]
    fn even_votes_panic() {
        let (board, tech, mut rng) = setup(60);
        let puf = ConfigurableRoPuf::tiled(60, 5);
        let e = puf.enroll(
            &mut rng,
            &board,
            &tech,
            Environment::nominal(),
            &EnrollOptions::default(),
        );
        let _ = e.respond_majority(
            &mut rng,
            &board,
            &tech,
            Environment::nominal(),
            &DelayProbe::noiseless(),
            4,
        );
    }

    #[test]
    fn responses_stay_stable_near_enrollment_conditions() {
        let (board, tech, mut rng) = setup(140);
        let puf = ConfigurableRoPuf::tiled(140, 7);
        let env = Environment::nominal();
        let enrollment = puf.enroll(&mut rng, &board, &tech, env, &EnrollOptions::default());
        let probe = DelayProbe::new(0.25, 1);
        for _ in 0..20 {
            let r = enrollment.respond(&mut rng, &board, &tech, env, &probe);
            assert_eq!(r, enrollment.expected_bits());
        }
    }

    #[test]
    fn validate_rejects_inconsistent_options() {
        use crate::error::Error;
        let with = |threshold_ps: f64, plausible_ddiff_ps: Option<(f64, f64)>| EnrollOptions {
            threshold_ps,
            plausible_ddiff_ps,
            ..EnrollOptions::default()
        };
        assert_eq!(
            EnrollOptions::default().validate().unwrap(),
            EnrollOptions::default()
        );
        assert_eq!(
            with(1.5, Some((50.0, 200.0))).validate().unwrap(),
            with(1.5, Some((50.0, 200.0)))
        );
        for bad in [
            with(-1.0, None),
            with(f64::NAN, None),
            with(0.0, Some((5.0, 1.0))),
            with(0.0, Some((0.0, f64::INFINITY))),
        ] {
            assert!(
                matches!(bad.validate(), Err(Error::Enrollment(_))),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn seeded_and_parallel_enrolls_are_bit_identical() {
        let (board, tech, _) = setup(120);
        let puf = ConfigurableRoPuf::tiled_interleaved(120, 5);
        let env = Environment::nominal();
        let opts = EnrollOptions::default();
        let serial = puf.enroll_seeded(42, &board, &tech, env, &opts);
        for threads in [1, 2, 4, 8] {
            let par = puf.enroll_par(42, &board, &tech, env, &opts, threads);
            assert_eq!(par, serial, "threads = {threads}");
        }
        // A different seed produces different calibration noise draws,
        // but the same silicon — bits agree wherever margins are wide.
        let other = puf.enroll_seeded(43, &board, &tech, env, &opts);
        assert_eq!(other.bit_count(), serial.bit_count());
    }

    #[test]
    fn nominal_only_corner_set_is_bit_identical_to_default_enrollment() {
        // corners = {env} deduplicates to nothing extra, which must take
        // the exact legacy code path — the byte-identity guarantee.
        let (board, tech, _) = setup(120);
        let puf = ConfigurableRoPuf::tiled_interleaved(120, 5);
        let env = Environment::nominal();
        let nominal_only = EnrollOptions {
            corners: CornerSet::try_from_slice(&[env]).unwrap(),
            ..EnrollOptions::default()
        };
        let baseline = puf.enroll_seeded(42, &board, &tech, env, &EnrollOptions::default());
        assert_eq!(
            puf.enroll_seeded(42, &board, &tech, env, &nominal_only),
            baseline
        );
        assert_eq!(
            puf.enroll_par(42, &board, &tech, env, &nominal_only, 4),
            baseline
        );
    }

    #[test]
    fn multi_corner_serial_parallel_and_per_ring_paths_agree() {
        let (board, tech, _) = setup(120);
        let puf = ConfigurableRoPuf::tiled_interleaved(120, 5);
        let env = Environment::nominal();
        let opts = EnrollOptions {
            corners: CornerSet::worst_case(),
            ..EnrollOptions::default()
        };
        let serial = puf.enroll_seeded(42, &board, &tech, env, &opts);
        for threads in [1, 2, 4, 8] {
            let par = puf.enroll_par(42, &board, &tech, env, &opts, threads);
            assert_eq!(par, serial, "threads = {threads}");
        }
        assert!(serial.bit_count() > 0, "multi-corner enrolls some pairs");
    }

    #[test]
    fn multi_corner_margin_never_exceeds_nominal_margin() {
        // The worst-corner margin is a min over a set containing the
        // enrollment corner, so it cannot beat the nominal-only margin
        // of the same configuration — and the multi-corner pick holds
        // margin at every corner, trading nominal slack for it.
        let (board, tech, _) = setup(120);
        let puf = ConfigurableRoPuf::tiled_interleaved(120, 5);
        let env = Environment::nominal();
        let noiseless = EnrollOptions {
            probe: DelayProbe::noiseless(),
            ..EnrollOptions::default()
        };
        let multi = EnrollOptions {
            corners: CornerSet::worst_case(),
            ..noiseless
        };
        let nominal = puf.enroll_seeded(42, &board, &tech, env, &noiseless);
        let corner = puf.enroll_seeded(42, &board, &tech, env, &multi);
        for (a, b) in nominal.pairs().iter().zip(corner.pairs()) {
            if let (Some(a), Some(b)) = (a, b) {
                assert!(
                    b.margin_ps() <= a.margin_ps() + 1e-9,
                    "worst-corner margin {} beats nominal optimum {}",
                    b.margin_ps(),
                    a.margin_ps()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one ring pair")]
    fn empty_floorplan_panics() {
        let _ = ConfigurableRoPuf::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "cannot host")]
    fn tiled_too_small_panics() {
        let _ = ConfigurableRoPuf::tiled(5, 3);
    }
}

#[cfg(test)]
mod defect_tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ropuf_silicon::board::BoardId;
    use ropuf_silicon::{DefectModel, SiliconSim};

    #[test]
    fn screening_excludes_exactly_the_defective_pairs() {
        let sim = SiliconSim::default_spartan();
        let mut rng = StdRng::seed_from_u64(61);
        let clean = sim.grow_board_with_id(&mut rng, BoardId(0), 400, 20);
        let model = DefectModel {
            stuck_slow_rate: 0.02,
            stuck_fast_rate: 0.01,
            ..DefectModel::default()
        };
        let (board, defects) = model.inject(&mut rng, &clean);
        assert!(!defects.is_empty(), "expect defects at these rates");

        let stages = 5;
        let puf = ConfigurableRoPuf::tiled(400, stages);
        // Plausible band around the Spartan-3E nominal ddiff (~105 ps).
        let opts = EnrollOptions {
            plausible_ddiff_ps: Some((50.0, 200.0)),
            probe: DelayProbe::noiseless(),
            ..EnrollOptions::default()
        };
        let e = puf.enroll(
            &mut rng,
            &board,
            sim.technology(),
            Environment::nominal(),
            &opts,
        );

        let defective_units: std::collections::HashSet<usize> =
            defects.iter().map(|(i, _)| *i).collect();
        for (spec, enrolled) in puf.specs().iter().zip(e.pairs()) {
            let touches_defect = spec
                .top()
                .iter()
                .chain(spec.bottom())
                .any(|u| defective_units.contains(u));
            assert_eq!(
                enrolled.is_none(),
                touches_defect,
                "pair {spec:?}: exclusion must track defects exactly"
            );
        }
        // The surviving pairs still respond correctly.
        let r = e.respond(
            &mut rng,
            &board,
            sim.technology(),
            Environment::nominal(),
            &DelayProbe::noiseless(),
        );
        assert_eq!(r, e.expected_bits());
    }

    #[test]
    fn screening_disabled_keeps_every_pair() {
        let sim = SiliconSim::default_spartan();
        let mut rng = StdRng::seed_from_u64(62);
        let clean = sim.grow_board_with_id(&mut rng, BoardId(0), 200, 20);
        let (board, _) = DefectModel::default().inject(&mut rng, &clean);
        let puf = ConfigurableRoPuf::tiled(200, 5);
        let e = puf.enroll(
            &mut rng,
            &board,
            sim.technology(),
            Environment::nominal(),
            &EnrollOptions::default(),
        );
        assert_eq!(e.bit_count(), puf.pair_count());
    }
}
