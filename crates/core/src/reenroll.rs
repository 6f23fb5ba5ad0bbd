//! Drift-triggered re-enrollment: the reliability loop's actuator.
//!
//! The paper enrolls a device once and relies on §III.D's maximized
//! margins to absorb environmental stress. Deployed silicon also
//! *ages* — BTI drift shifts stage delays for years after enrollment
//! ([`ropuf_silicon::aging`]) — and the fleet observatory's
//! `aged_flip_rate_*` gauges ([`crate::monitor`]) exist to catch a
//! fleet whose enrolled margins are eroding. This module closes that
//! loop: a drift-flagged device is **re-enrolled** — §III.B calibration
//! and §III.D selection run again on the aged silicon, under the
//! min-margin-across-corners objective — and the new configuration is
//! accepted only when it demonstrably improves on what the device
//! already has.
//!
//! The pipeline is deliberately conservative:
//!
//! 1. [`assess_drift`] evaluates the *old* enrollment on the current
//!    silicon noiselessly (pure delay model, no probe noise): expected
//!    bits are re-derived at the enrollment point and every corner of
//!    [`CornerSet::worst_case`], and the worst-corner margin is the
//!    minimum over pairs, with a pair that flips anywhere contributing
//!    zero.
//! 2. A device that shows no drift at its enrollment point is left
//!    alone ([`ReenrollRejected::NotDrifted`]) — re-enrollment costs a
//!    maintenance window and invalidates issued key codes, so it must
//!    never fire on healthy silicon.
//! 3. The fresh multi-corner enrollment is accepted only if its
//!    assessed worst-corner margin *strictly beats* the old
//!    enrollment's re-assessed margin on the same silicon and corners
//!    ([`ReenrollRejected::NoImprovement`] otherwise). Aged silicon is
//!    still the same silicon: if the old configuration remains the
//!    best available, keeping it is free while replacing it is not.
//!
//! Determinism: assessment draws no randomness at all, and the fresh
//! enrollment is the standard seeded multi-corner pipeline, so the
//! whole decision is a pure function of `(seed, board)`.

use ropuf_silicon::{Board, CornerSet, Environment, Technology};
use ropuf_telemetry as telemetry;
use ropuf_telemetry::health::{HealthReport, Status};

use crate::puf::{ConfigurableRoPuf, EnrollOptions, Enrollment};
use crate::robust::{enroll_robust, FaultPlan};

/// What [`assess_drift`] saw: the old enrollment re-evaluated on the
/// current silicon, without measurement noise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftAssessment {
    /// Enrolled pairs still producing bits.
    pub bits: usize,
    /// Pairs whose bit flips at the enrollment point itself — the
    /// unambiguous drift signal (nothing but silicon change can flip a
    /// noiseless read at the point the device enrolled at).
    pub enrollment_point_flips: usize,
    /// Pairs whose bit flips (or ties) at *any* assessed corner.
    pub corner_flips: usize,
    /// Minimum over pairs of the margin at the enrollment point;
    /// a flipped pair contributes zero.
    pub min_margin_ps: f64,
    /// Minimum over pairs of the per-pair worst-corner margin; a pair
    /// that flips or ties at any corner contributes zero. This is the
    /// figure re-enrollment must beat.
    pub worst_corner_margin_ps: f64,
}

impl DriftAssessment {
    /// The re-enrollment trigger: a flip at the enrollment point.
    /// Corner flips alone do not trigger — a nominal-only enrollment
    /// legitimately flips at corners it never optimized for, aged or
    /// not.
    pub fn drifted(&self) -> bool {
        self.enrollment_point_flips > 0
    }
}

/// Typed reasons a re-enrollment left the old enrollment in place.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReenrollRejected {
    /// The device shows no drift at its enrollment point: re-enrolling
    /// would spend a maintenance window for nothing.
    NotDrifted {
        /// The assessment that cleared the device.
        assessment: DriftAssessment,
    },
    /// The fresh enrollment produced no usable bits at all.
    NoBits,
    /// The fresh enrollment's assessed worst-corner margin does not
    /// strictly beat the old enrollment's on the same silicon.
    NoImprovement {
        /// Old enrollment's re-assessed worst-corner margin, ps.
        old_margin_ps: f64,
        /// Candidate enrollment's worst-corner margin, ps.
        new_margin_ps: f64,
    },
}

impl std::fmt::Display for ReenrollRejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NotDrifted { assessment } => write!(
                f,
                "not drifted (min margin {:.2} ps, {} enrollment-point flips)",
                assessment.min_margin_ps, assessment.enrollment_point_flips
            ),
            Self::NoBits => write!(f, "replacement enrollment produced no bits"),
            Self::NoImprovement {
                old_margin_ps,
                new_margin_ps,
            } => write!(
                f,
                "no improvement (old worst-corner margin {old_margin_ps:.2} ps, new {new_margin_ps:.2} ps)"
            ),
        }
    }
}

/// Outcome of a [`reenroll`] attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum ReenrollOutcome {
    /// The replacement enrollment was accepted; the caller must
    /// supersede the old record with `enrollment` (and re-issue any
    /// key codes derived from the old response).
    Accepted {
        /// The replacement enrollment.
        enrollment: Enrollment,
        /// Old enrollment's re-assessed worst-corner margin, ps.
        old_margin_ps: f64,
        /// Replacement's assessed worst-corner margin, ps.
        new_margin_ps: f64,
    },
    /// The old enrollment stays in force.
    Rejected(ReenrollRejected),
}

impl ReenrollOutcome {
    /// The accepted replacement, if any.
    pub fn accepted(&self) -> Option<&Enrollment> {
        match self {
            Self::Accepted { enrollment, .. } => Some(enrollment),
            Self::Rejected(_) => None,
        }
    }
}

/// Re-evaluates `enrollment` on the *current* silicon of `board`,
/// noiselessly, at every corner in `corners` (index 0 must be the
/// enrollment environment — callers use [`assessment_corners`]).
///
/// Because the evaluation uses the pure delay model, any difference
/// from the enrolled bits is silicon change (aging, damage), never
/// measurement noise — which is what makes
/// [`DriftAssessment::drifted`] a sound trigger.
///
/// # Panics
///
/// Panics if `corners` is empty or a spec references units outside
/// `board`.
pub fn assess_drift(
    enrollment: &Enrollment,
    board: &Board,
    tech: &Technology,
    corners: &[Environment],
) -> DriftAssessment {
    assert!(
        !corners.is_empty(),
        "drift assessment needs at least one corner"
    );
    let _span = telemetry::span("reenroll.assess");
    let bound = enrollment.bind(board);
    let mut assessment = DriftAssessment {
        bits: bound.pairs().len(),
        enrollment_point_flips: 0,
        corner_flips: 0,
        min_margin_ps: f64::INFINITY,
        worst_corner_margin_ps: f64::INFINITY,
    };
    for (p, pair) in bound.pairs() {
        let mut pair_worst = f64::INFINITY;
        let mut pair_flipped = false;
        for (c, &env) in corners.iter().enumerate() {
            let scale = tech.delay_scale(env);
            let d = pair
                .top()
                .ring_delay_ps_scaled(p.top_config(), scale, env, tech)
                - pair
                    .bottom()
                    .ring_delay_ps_scaled(p.bottom_config(), scale, env, tech);
            let holds = d != 0.0 && (d > 0.0) == p.expected_bit();
            let margin = if holds { d.abs() } else { 0.0 };
            if !holds {
                pair_flipped = true;
                if c == 0 {
                    assessment.enrollment_point_flips += 1;
                }
            }
            if c == 0 {
                assessment.min_margin_ps = assessment.min_margin_ps.min(margin);
            }
            pair_worst = pair_worst.min(margin);
        }
        if pair_flipped {
            assessment.corner_flips += 1;
        }
        assessment.worst_corner_margin_ps = assessment.worst_corner_margin_ps.min(pair_worst);
    }
    if assessment.bits == 0 {
        assessment.min_margin_ps = 0.0;
        assessment.worst_corner_margin_ps = 0.0;
    }
    assessment
}

/// The corner list a re-enrollment decision evaluates: the enrollment
/// environment first, then [`CornerSet::worst_case`] (nominal plus the
/// four V/T extremes) with `env` deduplicated.
pub fn assessment_corners(env: Environment) -> Vec<Environment> {
    let mut corners = vec![env];
    corners.extend(CornerSet::worst_case().iter().filter(|&c| c != env));
    corners
}

/// Whether a fleet health report flags drift worth re-enrolling for:
/// any aged-silicon gauge at warn-or-worse, or any gauge whose drift
/// watch (value vs enrolled baseline) is at warn-or-worse. This is the
/// observatory half of the loop — it nominates the *fleet*; per-device
/// confirmation is [`assess_drift`]'s job.
pub fn drift_flagged(report: &HealthReport) -> bool {
    report.gauges.iter().any(|g| {
        (g.name.starts_with("aged_") && g.status >= Status::Warn)
            || g.drift_status.is_some_and(|s| s >= Status::Warn)
    })
}

/// Attempts to re-enroll a drift-flagged device. See the [module
/// docs](self) for the acceptance rules; `seed` drives the replacement
/// enrollment exactly like [`enroll_robust`], and the decision is
/// deterministic in `(seed, board)`. `puf` is the floorplan the device
/// was provisioned on, so any pair of it can be selected again.
///
/// The replacement runs with `opts` under [`CornerSet::worst_case`]
/// (min-margin-across-corners selection), through the fault-tolerant
/// pipeline of `plan`, so unreadable aged pairs are excluded via
/// §III.C instead of poisoning the candidate.
#[allow(clippy::too_many_arguments)] // the full enrollment context plus the old record
pub fn reenroll(
    puf: &ConfigurableRoPuf,
    seed: u64,
    board: &Board,
    tech: &Technology,
    env: Environment,
    opts: &EnrollOptions,
    plan: &FaultPlan,
    old: &Enrollment,
) -> ReenrollOutcome {
    let _span = telemetry::span("reenroll");
    let corners = assessment_corners(env);
    let assessment = assess_drift(old, board, tech, &corners);
    if !assessment.drifted() {
        telemetry::counter("reenroll.rejected.not_drifted", 1);
        return ReenrollOutcome::Rejected(ReenrollRejected::NotDrifted { assessment });
    }
    let new_opts = EnrollOptions {
        corners: CornerSet::worst_case(),
        ..*opts
    };
    let robust = enroll_robust(puf, seed, board, tech, env, &new_opts, plan);
    if robust.enrollment.bit_count() == 0 {
        telemetry::counter("reenroll.rejected.no_bits", 1);
        return ReenrollOutcome::Rejected(ReenrollRejected::NoBits);
    }
    let candidate = assess_drift(&robust.enrollment, board, tech, &corners);
    let (old_margin_ps, new_margin_ps) = (
        assessment.worst_corner_margin_ps,
        candidate.worst_corner_margin_ps,
    );
    if new_margin_ps <= old_margin_ps {
        telemetry::counter("reenroll.rejected.no_improvement", 1);
        return ReenrollOutcome::Rejected(ReenrollRejected::NoImprovement {
            old_margin_ps,
            new_margin_ps,
        });
    }
    telemetry::counter("reenroll.accepted", 1);
    ReenrollOutcome::Accepted {
        enrollment: robust.enrollment,
        old_margin_ps,
        new_margin_ps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ropuf_silicon::aging::AgingModel;
    use ropuf_silicon::board::BoardId;
    use ropuf_silicon::SiliconSim;

    fn setup(units: usize, seed: u64) -> (Board, Technology) {
        let sim = SiliconSim::default_spartan();
        let mut rng = StdRng::seed_from_u64(seed);
        let board = sim.grow_board_with_id(&mut rng, BoardId(0), units, 16);
        (board, *sim.technology())
    }

    fn harsh_aged(board: &Board, years: f64, seed: u64) -> Board {
        let model = AgingModel {
            sigma_drift_rel: 0.02,
            sigma_path_rel: 0.01,
            ..AgingModel::default()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        model.age_board(&mut rng, board, years)
    }

    fn stable_opts() -> EnrollOptions {
        // A threshold keeps near-tie pairs out, so noiseless
        // re-assessment of the enrolled bits cannot flip on unaged
        // silicon.
        EnrollOptions {
            threshold_ps: 5.0,
            ..EnrollOptions::default()
        }
    }

    #[test]
    fn unaged_board_is_not_drifted_and_reenroll_is_a_no_op() {
        let (board, tech) = setup(120, 3);
        let puf = ConfigurableRoPuf::tiled_interleaved(120, 5);
        let env = Environment::nominal();
        let opts = stable_opts();
        let old = puf.enroll_seeded(41, &board, &tech, env, &opts);
        let outcome = reenroll(
            &puf,
            42,
            &board,
            &tech,
            env,
            &opts,
            &FaultPlan::scaled(0.0),
            &old,
        );
        match outcome {
            ReenrollOutcome::Rejected(ReenrollRejected::NotDrifted { assessment }) => {
                assert_eq!(assessment.enrollment_point_flips, 0);
                assert!(assessment.min_margin_ps > 0.0);
            }
            other => panic!("expected NotDrifted, got {other:?}"),
        }
    }

    #[test]
    fn assessment_is_noiseless_and_deterministic() {
        let (board, tech) = setup(120, 3);
        let puf = ConfigurableRoPuf::tiled_interleaved(120, 5);
        let env = Environment::nominal();
        let old = puf.enroll_seeded(41, &board, &tech, env, &stable_opts());
        let corners = assessment_corners(env);
        let a = assess_drift(&old, &board, &tech, &corners);
        let b = assess_drift(&old, &board, &tech, &corners);
        assert_eq!(a, b);
        assert_eq!(a.bits, old.bit_count());
        assert!(a.worst_corner_margin_ps <= a.min_margin_ps);
    }

    #[test]
    fn harsh_aging_triggers_and_reenroll_improves_the_margin() {
        let (board, tech) = setup(240, 5);
        let puf = ConfigurableRoPuf::tiled_interleaved(240, 5);
        let env = Environment::nominal();
        let opts = stable_opts();
        let old = puf.enroll_seeded(41, &board, &tech, env, &opts);
        // Find an aging draw that actually flips an enrolled bit at the
        // enrollment point; the pessimistic model makes this common.
        let corners = assessment_corners(env);
        let aged = (0..64)
            .map(|s| harsh_aged(&board, 10.0, s))
            .find(|aged| assess_drift(&old, aged, &tech, &corners).enrollment_point_flips > 0)
            .expect("some aging draw flips a bit");
        let outcome = reenroll(
            &puf,
            43,
            &aged,
            &tech,
            env,
            &opts,
            &FaultPlan::scaled(0.0),
            &old,
        );
        match outcome {
            ReenrollOutcome::Accepted {
                enrollment,
                old_margin_ps,
                new_margin_ps,
            } => {
                assert!(new_margin_ps > old_margin_ps);
                assert!(enrollment.bit_count() > 0);
                // The accepted enrollment holds its bits on the aged
                // silicon at every assessed corner.
                let check = assess_drift(&enrollment, &aged, &tech, &corners);
                assert_eq!(check.corner_flips, 0, "{check:?}");
            }
            other => panic!("expected acceptance on drifted silicon, got {other:?}"),
        }
    }

    #[test]
    fn rejections_render_their_reason() {
        let rejected = ReenrollRejected::NoImprovement {
            old_margin_ps: 3.0,
            new_margin_ps: 2.5,
        };
        let text = rejected.to_string();
        assert!(text.contains("3.00"), "{text}");
        assert!(text.contains("2.50"), "{text}");
        assert!(ReenrollRejected::NoBits.to_string().contains("no bits"));
    }

    #[test]
    fn assessment_corners_start_at_env_and_dedup() {
        let env = Environment::nominal();
        let corners = assessment_corners(env);
        assert_eq!(corners[0], env);
        // worst_case contains nominal; it must not appear twice.
        assert_eq!(corners.len(), 5);
        for (i, c) in corners.iter().enumerate() {
            assert!(!corners[i + 1..].contains(c));
        }
    }
}
