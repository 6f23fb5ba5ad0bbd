//! Fault-tolerant measurement: retries, read-back medians, and the
//! §III.C escape hatch.
//!
//! The paper's configurable RO PUF has a built-in robustness story:
//! because every pair can be *excluded* ("we don't have to use the PUF
//! bit generated from this pair", §III.C), a measurement that cannot be
//! trusted never has to poison enrollment — the pair is simply dropped.
//! This module turns that observation into a measurement pipeline that
//! survives the fault taxa of [`ropuf_silicon::faults`]:
//!
//! 1. **Plausibility band** — a read outside `PLAUSIBLE_PS`
//!    (stuck-at-rail, saturated, or dropped) is rejected outright.
//! 2. **Read-back verification** — every in-band read is confirmed by
//!    one independent re-read; agreement within a noise-scaled
//!    tolerance accepts the *primary* value verbatim (never an
//!    average, so a clean read is bit-identical to the plain path).
//! 3. **Median-of-k escalation** — on disagreement, up to
//!    `RETRY_BUDGET` extra reads are taken; with at
//!    least [`MIN_RECOVERY_READS`] in-band samples the value is the
//!    median after MAD outlier rejection, otherwise the read has
//!    *failed* and the surrounding pair is excluded (enrollment) or
//!    the bit erased (response).
//!
//! Determinism: the primary reads draw from the same measurement RNG,
//! in the same order, as the plain pipeline; fault rolls and
//! verification/retry reads draw from two *separate* split-seeded
//! streams. With a zero-rate [`ropuf_silicon::FaultModel`] the
//! verification machinery is skipped entirely, so a zero-fault run is
//! byte-identical to a run without the fault layer.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ropuf_silicon::faults::FaultModel;
use ropuf_silicon::{Board, DelayProbe, Environment, MeasureArena, Technology};
use ropuf_telemetry as telemetry;

use crate::calibrate::calibrate_pair;
use crate::fleet::split_seed;
use crate::puf::{corner_stream, BoundEnrollment, ConfigurableRoPuf, EnrollOptions, Enrollment};

/// Sub-stream index for per-pair / per-corner fault rolls.
const STREAM_FAULT: u64 = u64::MAX - 2;
/// Sub-stream index for verification and retry reads.
const STREAM_RETRY: u64 = u64::MAX - 3;

/// Minimum in-band samples needed before a disputed read can be
/// recovered by MAD-filtered median; below this the read fails.
pub const MIN_RECOVERY_READS: usize = 3;

/// Maximum extra reads spent recovering one disputed measurement.
const RETRY_BUDGET: usize = 8;

/// Target number of in-band samples for the recovery median.
const READBACK_K: usize = 5;

/// MAD multiple beyond which a sample is discarded as an outlier.
const MAD_K: f64 = 5.0;

/// Agreement tolerance between primary and verification read, in
/// multiples of the probe's effective noise sigma (×√2 for the
/// difference of two reads).
const AGREE_SIGMAS: f64 = 8.0;

/// Absolute floor on the agreement tolerance, picoseconds — keeps
/// verification meaningful with a noiseless probe.
const AGREE_FLOOR_PS: f64 = 0.5;

/// Closed plausibility band for a single ring-delay read, picoseconds;
/// anything outside is treated as a counter fault.
const PLAUSIBLE_PS: (f64, f64) = (1.0, 1.0e6);

/// A board whose unreadable-pair fraction exceeds this is quarantined
/// instead of enrolled.
pub(crate) const MAX_FAILED_PAIR_FRACTION: f64 = 0.5;

/// A fault-injection campaign: the fault taxa and rates to inject. The
/// measurement layer fights back with the fixed retry, read-back and
/// quarantine tuning above.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// The fault taxa and rates to inject.
    pub model: FaultModel,
}

impl FaultPlan {
    /// The default chaos drill with all rates multiplied by `scale`.
    /// `scaled(0.0)` injects nothing and leaves outputs byte-identical
    /// to a run without any plan, at every reliability threshold: it is
    /// the inert plan the fleet engine runs when none is configured.
    pub fn scaled(scale: f64) -> Self {
        Self {
            model: FaultModel::default().scaled(scale),
        }
    }

    /// Checks the model.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        self.model.validate()
    }
}

/// What the fault layer saw and did, aggregated over any scope (one
/// pair, one board, or a whole fleet run — summaries merge by field-wise
/// addition).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultSummary {
    /// Logical measurements requested by the pipeline (primary reads;
    /// verification and retry reads are counted separately).
    pub reads: u64,
    /// Reads corrupted with a stuck-at-rail value.
    pub injected_stuck: u64,
    /// Reads dropped (timed out) by injection.
    pub injected_dropped: u64,
    /// Reads corrupted with a transient glitch offset.
    pub injected_glitch: u64,
    /// Reads corrupted with a byzantine scale factor.
    pub injected_flaky: u64,
    /// Reads that failed plausibility or verification and escalated to
    /// median-of-k recovery.
    pub suspect_reads: u64,
    /// Extra reads spent by the fault layer: one verification read per
    /// in-band primary, plus recovery retries.
    pub retry_reads: u64,
    /// Suspect reads recovered by MAD-filtered median.
    pub recovered_reads: u64,
    /// Suspect reads that exhausted their budget unrecovered.
    pub failed_reads: u64,
    /// Enrollment pairs excluded because a calibration read failed
    /// (the §III.C escape hatch).
    pub unreadable_pairs: u64,
    /// Response bits erased because a read-out failed at every vote.
    pub response_erasures: u64,
    /// Boards quarantined instead of contributing records.
    pub quarantined_boards: u64,
    /// Worker panics contained by the fleet engine.
    pub contained_panics: u64,
}

impl FaultSummary {
    /// Total injected read faults across the four taxa.
    pub fn injected_faults(&self) -> u64 {
        self.injected_stuck + self.injected_dropped + self.injected_glitch + self.injected_flaky
    }

    /// True when anything at all fired: an injected fault, a retry, a
    /// failed read, an excluded pair, an erased bit, a quarantine, or a
    /// contained panic. A clean run — even one that *counted* its reads
    /// — reports no activity, which is what keeps zero-fault output
    /// byte-identical.
    pub fn has_activity(&self) -> bool {
        self.injected_faults() > 0
            || self.suspect_reads > 0
            || self.retry_reads > 0
            || self.recovered_reads > 0
            || self.failed_reads > 0
            || self.unreadable_pairs > 0
            || self.response_erasures > 0
            || self.quarantined_boards > 0
            || self.contained_panics > 0
    }

    /// Field-wise addition of another summary into this one.
    pub fn merge(&mut self, other: &FaultSummary) {
        self.reads += other.reads;
        self.injected_stuck += other.injected_stuck;
        self.injected_dropped += other.injected_dropped;
        self.injected_glitch += other.injected_glitch;
        self.injected_flaky += other.injected_flaky;
        self.suspect_reads += other.suspect_reads;
        self.retry_reads += other.retry_reads;
        self.recovered_reads += other.recovered_reads;
        self.failed_reads += other.failed_reads;
        self.unreadable_pairs += other.unreadable_pairs;
        self.response_erasures += other.response_erasures;
        self.quarantined_boards += other.quarantined_boards;
        self.contained_panics += other.contained_panics;
    }
}

/// Emits a summary's non-zero fields as telemetry counters. Counters
/// are additive atomics, so per-board emission order does not affect
/// totals and parallel runs count exactly like serial ones.
pub(crate) fn emit_summary_counters(s: &FaultSummary) {
    let pairs: [(&str, u64); 13] = [
        ("robust.reads", s.reads),
        ("robust.injected.stuck", s.injected_stuck),
        ("robust.injected.dropped", s.injected_dropped),
        ("robust.injected.glitch", s.injected_glitch),
        ("robust.injected.flaky", s.injected_flaky),
        ("robust.suspect_reads", s.suspect_reads),
        ("robust.retry_reads", s.retry_reads),
        ("robust.recovered_reads", s.recovered_reads),
        ("robust.failed_reads", s.failed_reads),
        ("robust.pairs.unreadable", s.unreadable_pairs),
        ("robust.erasures", s.response_erasures),
        ("fleet.quarantined", s.quarantined_boards),
        ("fleet.panics.contained", s.contained_panics),
    ];
    for (name, value) in pairs {
        if value > 0 {
            telemetry::counter(name, value);
        }
    }
}

/// One fault-screened measurement channel: owns the fault and retry RNG
/// streams plus the counters for everything it injects and repairs.
struct RobustMeasurer<'a> {
    model: &'a FaultModel,
    probe: DelayProbe,
    fault_rng: StdRng,
    retry_rng: StdRng,
    summary: FaultSummary,
}

impl<'a> RobustMeasurer<'a> {
    fn new(plan: &'a FaultPlan, probe: DelayProbe, fault_seed: u64, retry_seed: u64) -> Self {
        Self {
            model: &plan.model,
            probe,
            fault_rng: StdRng::seed_from_u64(fault_seed),
            retry_rng: StdRng::seed_from_u64(retry_seed),
            summary: FaultSummary::default(),
        }
    }

    fn plausible(v: f64) -> bool {
        let (lo, hi) = PLAUSIBLE_PS;
        v.is_finite() && (lo..=hi).contains(&v)
    }

    /// Primary-vs-verification agreement tolerance: [`AGREE_SIGMAS`]
    /// effective probe sigmas, ×√2 for a difference of two reads, with
    /// an absolute floor for noiseless probes.
    fn agree_tolerance_ps(&self) -> f64 {
        (AGREE_SIGMAS * self.probe.effective_sigma_ps() * std::f64::consts::SQRT_2)
            .max(AGREE_FLOOR_PS)
    }

    /// Passes a clean read through the fault model, counting what fired.
    fn inject(&mut self, clean_ps: f64) -> Option<f64> {
        use ropuf_silicon::InjectedFault::*;
        let (value, kind) = self.model.corrupt(&mut self.fault_rng, clean_ps);
        match kind {
            Clean => {}
            Stuck => self.summary.injected_stuck += 1,
            Dropped => self.summary.injected_dropped += 1,
            Glitch => self.summary.injected_glitch += 1,
            Flaky => self.summary.injected_flaky += 1,
        }
        value
    }

    /// An independent verification/retry read from the retry stream.
    fn read_from_retry_stream(&mut self, true_delay_ps: f64) -> Option<f64> {
        let clean = self.probe.measure_ps(&mut self.retry_rng, true_delay_ps);
        self.inject(clean)
    }

    /// One fault-screened measurement of `true_delay_ps`.
    ///
    /// The primary read always draws from `meas_rng`, keeping the
    /// measurement stream aligned with the plain pipeline; `None`
    /// means the read failed unrecoverably and the caller must invoke
    /// the §III.C escape hatch.
    fn read<R: Rng + ?Sized>(&mut self, meas_rng: &mut R, true_delay_ps: f64) -> Option<f64> {
        self.summary.reads += 1;
        let clean = self.probe.measure_ps(meas_rng, true_delay_ps);
        if self.model.reads_are_clean() {
            // Zero-rate fast path: no fault can fire, so skip
            // verification — byte-identical to the plain pipeline.
            return Some(clean);
        }
        let primary = self.inject(clean);
        let mut in_band = Vec::with_capacity(READBACK_K);
        if let Some(v) = primary.filter(|&v| Self::plausible(v)) {
            self.summary.retry_reads += 1;
            let verify = self.read_from_retry_stream(true_delay_ps);
            if let Some(w) = verify.filter(|&w| Self::plausible(w)) {
                if (v - w).abs() <= self.agree_tolerance_ps() {
                    return Some(v);
                }
                in_band.push(w);
            }
            in_band.insert(0, v);
        }
        self.summary.suspect_reads += 1;
        self.recover(true_delay_ps, in_band)
    }

    /// Median-of-k recovery: spend the retry budget collecting in-band
    /// samples, reject outliers by MAD, and answer with the median.
    fn recover(&mut self, true_delay_ps: f64, mut in_band: Vec<f64>) -> Option<f64> {
        let mut spent = 0;
        while in_band.len() < READBACK_K && spent < RETRY_BUDGET {
            spent += 1;
            self.summary.retry_reads += 1;
            if let Some(v) = self.read_from_retry_stream(true_delay_ps) {
                if Self::plausible(v) {
                    in_band.push(v);
                }
            }
        }
        if in_band.len() < MIN_RECOVERY_READS {
            self.summary.failed_reads += 1;
            return None;
        }
        self.summary.recovered_reads += 1;
        Some(mad_filtered_median(&mut in_band))
    }
}

/// Median after MAD outlier rejection ([`MAD_K`]). `values` must be
/// non-empty; the median itself always survives rejection, so the
/// result is always defined.
fn mad_filtered_median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let median = values[values.len() / 2];
    let mut deviations: Vec<f64> = values.iter().map(|v| (v - median).abs()).collect();
    deviations.sort_by(f64::total_cmp);
    // Floor the MAD so a set of identical samples still accepts itself.
    let mad = deviations[deviations.len() / 2].max(1.0e-9);
    let kept: Vec<f64> = values
        .iter()
        .copied()
        .filter(|v| (v - median).abs() <= MAD_K * mad)
        .collect();
    kept[kept.len() / 2]
}

/// Outcome of a fault-tolerant enrollment.
#[derive(Debug, Clone)]
pub struct RobustEnrollment {
    /// The enrollment; unreadable pairs appear as excluded (`None`)
    /// entries, exactly like threshold-excluded pairs.
    pub enrollment: Enrollment,
    /// Pairs dropped because a calibration read failed unrecoverably.
    pub unreadable_pairs: usize,
    /// Total pairs attempted.
    pub total_pairs: usize,
    /// Everything the fault layer saw while enrolling.
    pub summary: FaultSummary,
}

/// Fault-tolerant counterpart of
/// [`ConfigurableRoPuf::enroll_seeded`]: same per-pair seed
/// derivation and measurement order, but every read goes through the
/// retry/read-back pipeline and unreadable pairs are excluded via
/// §III.C instead of poisoning the enrollment.
pub fn enroll_robust(
    puf: &ConfigurableRoPuf,
    seed: u64,
    board: &Board,
    tech: &Technology,
    env: Environment,
    opts: &EnrollOptions,
    plan: &FaultPlan,
) -> RobustEnrollment {
    let mut arena = MeasureArena::new();
    enroll_robust_in(puf, seed, board, tech, env, opts, plan, &mut arena)
}

/// [`enroll_robust`] against a caller-owned [`MeasureArena`]: the
/// enrollment kernel behind [`ConfigurableRoPuf::enroll_seeded_in`],
/// with every reading fault-screened.
///
/// Pair `i` at corner `c` draws its measurement RNG from the same
/// per-(pair, corner) stream as the plain seeded path, and its fault
/// and retry streams from sub-splits of that seed, so every
/// (pair, corner) is independent of evaluation order. A reading that
/// fails unrecoverably skips the rest of its (pair, corner); a pair
/// with a failed reading at any corner is excluded via §III.C, since it
/// cannot promise a margin there. [`MeasureArena::begin_block`]'s full
/// reset guarantees no cross-board state when fleet workers reuse
/// arenas.
#[allow(clippy::too_many_arguments)]
pub fn enroll_robust_in(
    puf: &ConfigurableRoPuf,
    seed: u64,
    board: &Board,
    tech: &Technology,
    env: Environment,
    opts: &EnrollOptions,
    plan: &FaultPlan,
    arena: &mut MeasureArena,
) -> RobustEnrollment {
    let mut summary = FaultSummary::default();
    let (enrollment, unreadable_pairs) = puf.enroll_in(
        board,
        tech,
        env,
        opts,
        arena,
        |i, c, top, bottom, ddiffs| {
            let corner_seed = corner_stream(seed, i, c);
            let mut meas_rng = StdRng::seed_from_u64(corner_seed);
            let mut measurer = RobustMeasurer::new(
                plan,
                opts.probe,
                split_seed(corner_seed, STREAM_FAULT),
                split_seed(corner_seed, STREAM_RETRY),
            );
            let offset = calibrate_pair(top, bottom, ddiffs, |d| measurer.read(&mut meas_rng, d));
            summary.merge(&measurer.summary);
            offset
        },
    );
    summary.unreadable_pairs += unreadable_pairs as u64;
    RobustEnrollment {
        enrollment,
        unreadable_pairs,
        total_pairs: puf.pair_count(),
        summary,
    }
}

/// Fault-tolerant counterpart of [`BoundEnrollment::respond_majority`],
/// seeded the way the fleet engine seeds a corner read-out: the
/// measurement RNG comes straight from `seed`, the fault and retry
/// streams from sub-splits of it. Bind once with [`Enrollment::bind`]
/// and call this per corner; binding draws no randomness.
///
/// Every reading goes through the retry/read-back pipeline, and the
/// read-out kernel of the plain path turns readings into bits: each
/// bit is the majority over its *valid* votes, and a bit with no valid
/// votes, or a tie, is an erasure. With every vote valid this reduces
/// exactly to the plain majority rule.
///
/// # Panics
///
/// Panics if `votes` is zero or even (same contract as
/// [`Enrollment::respond_majority`]).
pub fn respond_robust_bound(
    bound: &BoundEnrollment<'_, '_>,
    seed: u64,
    tech: &Technology,
    env: Environment,
    probe: &DelayProbe,
    votes: usize,
    plan: &FaultPlan,
) -> (Vec<Option<bool>>, FaultSummary) {
    let mut meas_rng = StdRng::seed_from_u64(seed);
    let mut measurer = RobustMeasurer::new(
        plan,
        *probe,
        split_seed(seed, STREAM_FAULT),
        split_seed(seed, STREAM_RETRY),
    );
    let bits: Vec<Option<bool>> =
        bound.read_out(tech, env, votes, |d| measurer.read(&mut meas_rng, d));
    let mut summary = measurer.summary;
    summary.response_erasures += bits.iter().filter(|b| b.is_none()).count() as u64;
    (bits, summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::RngCore;
    use ropuf_silicon::board::BoardId;
    use ropuf_silicon::SiliconSim;

    /// The two read-out loops [`BoundEnrollment::read_out`] replaced,
    /// verbatim: the plain pass and majority
    /// (`BoundEnrollment::respond` / `respond_majority`) and the
    /// fault-screened pass and erasure-aware tally (`respond_once` /
    /// `respond_robust_bound`). The kernel is proptested against them.
    mod oracle {
        use super::*;
        use ropuf_num::bits::BitVec;

        pub fn respond<R: Rng + ?Sized>(
            bound: &BoundEnrollment<'_, '_>,
            rng: &mut R,
            tech: &Technology,
            env: Environment,
            probe: &DelayProbe,
        ) -> BitVec {
            let scale = tech.delay_scale(env);
            bound
                .pairs()
                .iter()
                .map(|(p, pair)| {
                    let d_top = probe.measure_ps(
                        rng,
                        pair.top()
                            .ring_delay_ps_scaled(p.top_config(), scale, env, tech),
                    );
                    let d_bottom = probe.measure_ps(
                        rng,
                        pair.bottom()
                            .ring_delay_ps_scaled(p.bottom_config(), scale, env, tech),
                    );
                    d_top > d_bottom
                })
                .collect()
        }

        pub fn respond_majority<R: Rng + ?Sized>(
            bound: &BoundEnrollment<'_, '_>,
            rng: &mut R,
            tech: &Technology,
            env: Environment,
            probe: &DelayProbe,
            votes: usize,
        ) -> BitVec {
            assert!(
                votes % 2 == 1,
                "majority voting needs an odd vote count, got {votes}"
            );
            let reads: Vec<BitVec> = (0..votes)
                .map(|_| respond(bound, rng, tech, env, probe))
                .collect();
            (0..reads[0].len())
                .map(|i| {
                    let ones = reads.iter().filter(|r| r.get(i).expect("in range")).count();
                    ones * 2 > votes
                })
                .collect()
        }

        fn respond_once<R: Rng + ?Sized>(
            bound: &BoundEnrollment<'_, '_>,
            meas_rng: &mut R,
            measurer: &mut RobustMeasurer<'_>,
            tech: &Technology,
            env: Environment,
        ) -> Vec<Option<bool>> {
            let scale = tech.delay_scale(env);
            bound
                .pairs()
                .iter()
                .map(|(p, pair)| {
                    let d_top = measurer.read(
                        meas_rng,
                        pair.top()
                            .ring_delay_ps_scaled(p.top_config(), scale, env, tech),
                    );
                    let d_bottom = measurer.read(
                        meas_rng,
                        pair.bottom()
                            .ring_delay_ps_scaled(p.bottom_config(), scale, env, tech),
                    );
                    match (d_top, d_bottom) {
                        (Some(t), Some(b)) => Some(t > b),
                        _ => None,
                    }
                })
                .collect()
        }

        pub fn respond_robust_bound(
            bound: &BoundEnrollment<'_, '_>,
            seed: u64,
            tech: &Technology,
            env: Environment,
            probe: &DelayProbe,
            votes: usize,
            plan: &FaultPlan,
        ) -> (Vec<Option<bool>>, FaultSummary) {
            assert!(
                votes % 2 == 1,
                "majority voting needs an odd vote count, got {votes}"
            );
            let mut meas_rng = StdRng::seed_from_u64(seed);
            let mut measurer = RobustMeasurer::new(
                plan,
                *probe,
                split_seed(seed, STREAM_FAULT),
                split_seed(seed, STREAM_RETRY),
            );
            let reads: Vec<Vec<Option<bool>>> = (0..votes)
                .map(|_| respond_once(bound, &mut meas_rng, &mut measurer, tech, env))
                .collect();
            let bits: Vec<Option<bool>> = (0..reads[0].len())
                .map(|i| {
                    let (mut ones, mut zeros) = (0usize, 0usize);
                    for vote in &reads {
                        match vote[i] {
                            Some(true) => ones += 1,
                            Some(false) => zeros += 1,
                            None => {}
                        }
                    }
                    if ones + zeros == 0 || ones == zeros {
                        None
                    } else {
                        Some(ones > zeros)
                    }
                })
                .collect();
            let mut summary = measurer.summary;
            summary.response_erasures += bits.iter().filter(|b| b.is_none()).count() as u64;
            (bits, summary)
        }
    }

    /// Heavy dropouts: recovery often fails even with the full retry
    /// budget, so readings come back `None` and bits are erased or tied.
    fn starved_plan() -> FaultPlan {
        FaultPlan {
            model: ropuf_silicon::FaultModel {
                drop_rate: 0.6,
                stuck_rate: 0.2,
                glitch_rate: 0.0,
                flaky_rate: 0.0,
                ..ropuf_silicon::FaultModel::default()
            },
        }
    }

    proptest! {
        /// The guard for the read-out kernel: the plain and the
        /// fault-screened response paths return exactly what the loops
        /// they replaced returned — bits, erasures and fault accounting,
        /// and on the plain path the caller's RNG position afterwards.
        #[test]
        fn read_out_matches_the_replaced_loops(
            seed in any::<u64>(),
            stages in 1usize..=9,
            votes in proptest::sample::select(vec![1usize, 3, 5, 7]),
            voltage in 0.95f64..1.45,
            temperature in -25.0f64..100.0,
            sigma_ps in 0.0f64..3.0,
            plan_kind in 0u8..3,
            scale in 0u32..12,
        ) {
            let sim = SiliconSim::default_spartan();
            let units = 12 * stages;
            let mut grow_rng = StdRng::seed_from_u64(seed);
            let board = sim.grow_board_with_id(&mut grow_rng, BoardId(0), units, 6);
            let tech = *sim.technology();
            let puf = ConfigurableRoPuf::tiled_interleaved(units, stages);
            let opts = EnrollOptions::default();
            let enrollment = puf.enroll_seeded(seed, &board, &tech, Environment::nominal(), &opts);
            let bound = enrollment.bind(&board);
            let env = Environment::new(voltage, temperature);
            let probe = DelayProbe::new(sigma_ps, 1);

            let mut rng = StdRng::seed_from_u64(seed.rotate_left(17));
            let mut oracle_rng = rng.clone();
            let single = bound.respond(&mut rng, &tech, env, &probe);
            let majority = bound.respond_majority(&mut rng, &tech, env, &probe, votes);
            prop_assert_eq!(&single, &oracle::respond(&bound, &mut oracle_rng, &tech, env, &probe));
            prop_assert_eq!(
                &majority,
                &oracle::respond_majority(&bound, &mut oracle_rng, &tech, env, &probe, votes)
            );
            prop_assert_eq!(rng.next_u64(), oracle_rng.next_u64(), "RNG out of lockstep");

            let plan = match plan_kind {
                0 => FaultPlan::scaled(0.0),
                1 => FaultPlan::scaled(f64::from(scale)),
                _ => starved_plan(),
            };
            let corner_seed = seed.rotate_left(31);
            let got = respond_robust_bound(&bound, corner_seed, &tech, env, &probe, votes, &plan);
            let want =
                oracle::respond_robust_bound(&bound, corner_seed, &tech, env, &probe, votes, &plan);
            prop_assert_eq!(got, want, "plan {}", plan_kind);
        }
    }

    fn setup(units: usize) -> (Board, Technology) {
        let sim = SiliconSim::default_spartan();
        let mut rng = StdRng::seed_from_u64(123);
        let board = sim.grow_board_with_id(&mut rng, BoardId(0), units, 16);
        (board, *sim.technology())
    }

    #[test]
    fn zero_rate_plan_reproduces_plain_enrollment_exactly() {
        let (board, tech) = setup(80);
        let puf = ConfigurableRoPuf::tiled_interleaved(80, 4);
        let opts = EnrollOptions::default();
        let env = Environment::nominal();
        let plain = puf.enroll_seeded(41, &board, &tech, env, &opts);
        let plan = FaultPlan::scaled(0.0);
        let robust = enroll_robust(&puf, 41, &board, &tech, env, &opts, &plan);
        assert_eq!(robust.enrollment, plain);
        assert_eq!(robust.unreadable_pairs, 0);
        assert!(!robust.summary.has_activity());
        assert!(robust.summary.reads > 0);
    }

    #[test]
    fn zero_rate_response_matches_plain_response_exactly() {
        let (board, tech) = setup(80);
        let puf = ConfigurableRoPuf::tiled_interleaved(80, 4);
        let opts = EnrollOptions::default();
        let env = Environment::nominal();
        let enrollment = puf.enroll_seeded(41, &board, &tech, env, &opts);
        let probe = DelayProbe::new(0.25, 1);
        let mut rng = StdRng::seed_from_u64(99);
        let plain = enrollment.respond(&mut rng, &board, &tech, env, &probe);
        let plan = FaultPlan::scaled(0.0);
        let bound = enrollment.bind(&board);
        let (bits, summary) = respond_robust_bound(&bound, 99, &tech, env, &probe, 1, &plan);
        let robust: Vec<bool> = bits.into_iter().map(|b| b.expect("no erasures")).collect();
        let plain: Vec<bool> = (0..plain.len()).map(|i| plain.get(i).unwrap()).collect();
        assert_eq!(robust, plain);
        assert!(!summary.has_activity());
    }

    #[test]
    fn faulty_enrollment_is_deterministic_and_counts_its_work() {
        let (board, tech) = setup(80);
        let puf = ConfigurableRoPuf::tiled_interleaved(80, 4);
        let opts = EnrollOptions::default();
        let env = Environment::nominal();
        let plan = FaultPlan::scaled(10.0);
        plan.validate().expect("valid plan");
        let a = enroll_robust(&puf, 41, &board, &tech, env, &opts, &plan);
        let b = enroll_robust(&puf, 41, &board, &tech, env, &opts, &plan);
        assert_eq!(a.enrollment, b.enrollment);
        assert_eq!(a.summary, b.summary);
        assert!(
            a.summary.injected_faults() > 0,
            "faults fired: {:?}",
            a.summary
        );
        assert!(a.summary.suspect_reads > 0);
        assert!(
            a.summary.recovered_reads + a.summary.failed_reads >= a.summary.suspect_reads
                || a.summary.recovered_reads > 0
        );
    }

    #[test]
    fn moderate_faults_rarely_change_the_enrolled_bits() {
        // The whole point of read-back + median recovery: the default
        // chaos rates perturb reads but the enrolled bits survive. A
        // recovered median can still land across a near-tie, so the
        // claim is a rate over boards 1000-1399 enrolled at seeds
        // 0-399: with the polar-method normal sampler these boards
        // flipped 81 of 6,000 compared bits (1.35%), and a run may
        // exceed that by at most four binomial standard errors.
        // Keeping the faulty read instead of recovering flips about 15%.
        const BOARDS: u64 = 400;
        const MEASURED_RATE: f64 = 81.0 / 6000.0;
        let sim = SiliconSim::default_spartan();
        let tech = *sim.technology();
        let puf = ConfigurableRoPuf::tiled_interleaved(120, 4);
        let opts = EnrollOptions::default();
        let env = Environment::nominal();
        let plan = FaultPlan::scaled(1.0);
        let (mut compared, mut flipped, mut injected) = (0u64, 0u64, 0u64);
        for seed in 0..BOARDS {
            let mut rng = StdRng::seed_from_u64(1000 + seed);
            let board = sim.grow_board_with_id(&mut rng, BoardId(seed as u32), 120, 16);
            let plain = puf.enroll_seeded(seed, &board, &tech, env, &opts);
            let robust = enroll_robust(&puf, seed, &board, &tech, env, &opts, &plan);
            injected += robust.summary.injected_faults();
            // Compare the bits of pairs enrolled by both paths.
            for (a, b) in plain.pairs().iter().zip(robust.enrollment.pairs()) {
                if let (Some(a), Some(b)) = (a, b) {
                    compared += 1;
                    flipped += u64::from(a.expected_bit() != b.expected_bit());
                }
            }
        }
        assert!(injected > 0);
        assert!(
            compared >= 10 * BOARDS,
            "most pairs enrolled under faults: {compared}"
        );
        let n = compared as f64;
        let bound = MEASURED_RATE + 4.0 * (MEASURED_RATE * (1.0 - MEASURED_RATE) / n).sqrt();
        let rate = flipped as f64 / n;
        assert!(
            rate <= bound,
            "recovery flipped {flipped} of {compared} bits ({rate:.4} > {bound:.4})"
        );
    }

    #[test]
    fn unrecoverable_reads_exclude_pairs_instead_of_poisoning() {
        let (board, tech) = setup(80);
        let puf = ConfigurableRoPuf::tiled_interleaved(80, 4);
        let opts = EnrollOptions::default();
        let env = Environment::nominal();
        let plan = starved_plan();
        plan.validate().expect("valid plan");
        let robust = enroll_robust(&puf, 5, &board, &tech, env, &opts, &plan);
        assert!(
            robust.unreadable_pairs > 0,
            "starved pairs: {:?}",
            robust.summary
        );
        assert_eq!(
            robust.summary.unreadable_pairs as usize,
            robust.unreadable_pairs
        );
        // Unreadable pairs show up as exclusions, not bogus bits.
        assert!(robust.enrollment.bit_count() < robust.total_pairs);
    }

    #[test]
    fn zero_rate_multi_corner_plan_reproduces_plain_multi_corner_enrollment() {
        let (board, tech) = setup(80);
        let puf = ConfigurableRoPuf::tiled_interleaved(80, 4);
        let opts = EnrollOptions {
            corners: ropuf_silicon::CornerSet::worst_case(),
            ..EnrollOptions::default()
        };
        let env = Environment::nominal();
        let plain = puf.enroll_seeded(41, &board, &tech, env, &opts);
        let plan = FaultPlan::scaled(0.0);
        let robust = enroll_robust(&puf, 41, &board, &tech, env, &opts, &plan);
        assert_eq!(robust.enrollment, plain);
        assert_eq!(robust.unreadable_pairs, 0);
        assert!(!robust.summary.has_activity());
        assert!(robust.summary.reads > 0);
    }

    #[test]
    fn faulty_multi_corner_enrollment_is_deterministic() {
        let (board, tech) = setup(80);
        let puf = ConfigurableRoPuf::tiled_interleaved(80, 4);
        let opts = EnrollOptions {
            corners: ropuf_silicon::CornerSet::worst_case(),
            ..EnrollOptions::default()
        };
        let env = Environment::nominal();
        let plan = FaultPlan::scaled(10.0);
        let a = enroll_robust(&puf, 41, &board, &tech, env, &opts, &plan);
        let b = enroll_robust(&puf, 41, &board, &tech, env, &opts, &plan);
        assert_eq!(a.enrollment, b.enrollment);
        assert_eq!(a.summary, b.summary);
        assert!(a.summary.injected_faults() > 0);
    }

    #[test]
    fn multi_corner_unrecoverable_reads_exclude_pairs() {
        let (board, tech) = setup(80);
        let puf = ConfigurableRoPuf::tiled_interleaved(80, 4);
        let opts = EnrollOptions {
            corners: ropuf_silicon::CornerSet::worst_case(),
            ..EnrollOptions::default()
        };
        let env = Environment::nominal();
        let robust = enroll_robust(&puf, 5, &board, &tech, env, &opts, &starved_plan());
        assert!(robust.unreadable_pairs > 0);
        assert_eq!(
            robust.summary.unreadable_pairs as usize,
            robust.unreadable_pairs
        );
        assert!(robust.enrollment.bit_count() < robust.total_pairs);
    }

    #[test]
    fn mad_median_rejects_planted_outliers() {
        let mut values = vec![5000.1, 5000.3, 4999.9, 5300.0, 5000.2];
        let v = mad_filtered_median(&mut values);
        assert!((v - 5000.2).abs() < 1.0, "outlier rejected, got {v}");
        let mut identical = vec![42.0; 5];
        assert_eq!(mad_filtered_median(&mut identical), 42.0);
    }
}
