//! Challenge-response operation and the modeling attack against it.
//!
//! §II of the paper distinguishes its *configurable* PUF (configuration
//! fixed once at enrollment) from *reconfigurable* PUFs that accept the
//! configuration as a runtime challenge: "Although these approaches can
//! achieve more challenge-response pairs, they also expose more
//! information and thus are vulnerable to attacks such as modeling and
//! machine learning."
//!
//! This module makes that argument concrete. [`Challenge`] treats a
//! configuration pair as a challenge and [`respond`] evaluates the bit a
//! reconfigurable deployment would emit. [`LinearDelayAttack`] then does
//! what an attacker would do: fit the obvious linear delay model
//! `bit = sign(w₀ + Σ wᵢ xᵢ − Σ vᵢ yᵢ)` to observed CRPs by least
//! squares and predict unseen challenges. A few hundred CRPs suffice for
//! near-perfect prediction (see the `modeling_attack` example) — which
//! is exactly why the paper freezes the configuration instead.

use rand::Rng;
use ropuf_num::linalg::Matrix;
use ropuf_silicon::{DelayProbe, Environment, Technology};

use crate::config::{ConfigVector, ParityPolicy};
use crate::error::Error;
use crate::ro::RoPair;

/// One challenge: a configuration for each ring of a pair, with equal
/// selected counts (the paper's structural constraint).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Challenge {
    top: ConfigVector,
    bottom: ConfigVector,
}

impl Challenge {
    /// Creates a challenge from two configurations, rejecting malformed
    /// (e.g. attacker- or wire-supplied) input instead of panicking.
    ///
    /// # Errors
    ///
    /// [`Error::Challenge`] when the configurations differ in length or
    /// in selected-stage count (the paper's structural constraint on a
    /// challenge).
    pub fn try_new(top: ConfigVector, bottom: ConfigVector) -> Result<Self, Error> {
        if top.len() != bottom.len() {
            return Err(Error::Challenge(format!(
                "configurations must be equally long, got {} and {}",
                top.len(),
                bottom.len()
            )));
        }
        if top.selected_count() != bottom.selected_count() {
            return Err(Error::Challenge(format!(
                "challenges must select equally many stages per ring, got {} and {}",
                top.selected_count(),
                bottom.selected_count()
            )));
        }
        Ok(Self { top, bottom })
    }

    /// Draws a uniform random challenge over `n` stages with equal
    /// selected counts (and an odd count under
    /// [`ParityPolicy::ForceOdd`]).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn random<R: Rng + ?Sized>(rng: &mut R, n: usize, parity: ParityPolicy) -> Self {
        assert!(n > 0, "challenges need at least one stage");
        let count = loop {
            let k = rng.gen_range(0..=n);
            if parity.admits(k) {
                break k;
            }
        };
        let pick = |rng: &mut R| -> ConfigVector {
            // Floyd-style sampling of `count` distinct indices.
            let mut chosen = Vec::with_capacity(count);
            for j in n - count..n {
                let t = rng.gen_range(0..=j);
                if chosen.contains(&t) {
                    chosen.push(j);
                } else {
                    chosen.push(t);
                }
            }
            ConfigVector::from_selected(n, &chosen)
        };
        Self::try_new(pick(rng), pick(rng)).expect("random challenges are valid by construction")
    }

    /// The top ring's configuration.
    pub fn top(&self) -> &ConfigVector {
        &self.top
    }

    /// The bottom ring's configuration.
    pub fn bottom(&self) -> &ConfigVector {
        &self.bottom
    }

    /// Stages per ring.
    pub fn stages(&self) -> usize {
        self.top.len()
    }
}

/// Evaluates the response bit a reconfigurable deployment would emit for
/// `challenge` on `pair` at `env`: `true` when the configured top ring
/// measures slower.
pub fn respond<R: Rng + ?Sized>(
    rng: &mut R,
    pair: &RoPair<'_>,
    challenge: &Challenge,
    probe: &DelayProbe,
    env: Environment,
    tech: &Technology,
) -> bool {
    let d_top = probe.measure_ps(rng, pair.top().ring_delay_ps(challenge.top(), env, tech));
    let d_bottom = probe.measure_ps(
        rng,
        pair.bottom().ring_delay_ps(challenge.bottom(), env, tech),
    );
    d_top > d_bottom
}

/// A least-squares linear delay model of one ring pair, learned from
/// observed challenge-response pairs.
///
/// The model regresses the ±1 response on the feature vector
/// `[1, x₁…x_n, y₁…y_n]` and predicts with the sign of the fit — the
/// standard first-order attack on delay-based PUFs.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearDelayAttack {
    weights: Vec<f64>,
    stages: usize,
}

/// Errors from [`LinearDelayAttack::train`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrainError {
    /// Fewer CRPs than model parameters (`2n + 1`).
    NotEnoughData {
        /// CRPs supplied.
        observed: usize,
        /// CRPs required.
        required: usize,
    },
    /// The training set does not span the feature space (e.g. all
    /// challenges identical).
    Degenerate,
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::NotEnoughData { observed, required } => {
                write!(f, "{observed} CRPs cannot fit a {required}-parameter model")
            }
            TrainError::Degenerate => write!(f, "training challenges are degenerate"),
        }
    }
}

impl std::error::Error for TrainError {}

impl LinearDelayAttack {
    /// Fits the model to observed CRPs.
    ///
    /// # Errors
    ///
    /// [`TrainError::NotEnoughData`] with fewer than `2n + 1` CRPs;
    /// [`TrainError::Degenerate`] if the challenges do not span the
    /// feature space.
    ///
    /// # Panics
    ///
    /// Panics if `challenges` and `responses` differ in length or the
    /// challenges differ in stage count.
    pub fn train(challenges: &[Challenge], responses: &[bool]) -> Result<Self, TrainError> {
        assert_eq!(
            challenges.len(),
            responses.len(),
            "one response per challenge"
        );
        let stages = challenges.first().map_or(0, Challenge::stages);
        let params = 2 * stages + 1;
        if challenges.len() < params {
            return Err(TrainError::NotEnoughData {
                observed: challenges.len(),
                required: params,
            });
        }
        let design = Matrix::from_fn(challenges.len(), params, |i, j| {
            features(&challenges[i], stages)[j]
        });
        let targets: Vec<f64> = responses
            .iter()
            .map(|&b| if b { 1.0 } else { -1.0 })
            .collect();
        // The equal-count constraint makes the stage columns exactly
        // collinear (their sum is the zero vector), so a whisker of
        // ridge regularization is required; it does not affect the
        // decision boundary.
        let weights = design
            .least_squares_ridge(&targets, 1e-6)
            .map_err(|_| TrainError::Degenerate)?;
        Ok(Self { weights, stages })
    }

    /// Predicts the response to a challenge.
    ///
    /// # Panics
    ///
    /// Panics if the challenge's stage count differs from the training
    /// data's.
    pub fn predict(&self, challenge: &Challenge) -> bool {
        assert_eq!(challenge.stages(), self.stages, "stage count mismatch");
        let f = features(challenge, self.stages);
        let score: f64 = self.weights.iter().zip(&f).map(|(w, x)| w * x).sum();
        score > 0.0
    }

    /// Prediction accuracy over a labelled test set.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length or the test set is empty.
    pub fn accuracy(&self, challenges: &[Challenge], responses: &[bool]) -> f64 {
        assert_eq!(
            challenges.len(),
            responses.len(),
            "one response per challenge"
        );
        assert!(
            !challenges.is_empty(),
            "accuracy needs a non-empty test set"
        );
        let hits = challenges
            .iter()
            .zip(responses)
            .filter(|(c, &r)| self.predict(c) == r)
            .count();
        hits as f64 / challenges.len() as f64
    }

    /// The fitted weights `[w₀, w₁…w_n, v₁…v_n]` (intercept, top-stage,
    /// bottom-stage). The top weights approximate the top ring's stage
    /// delays up to affine transformation — the leak the attack exploits.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }
}

fn features(challenge: &Challenge, stages: usize) -> Vec<f64> {
    let mut f = Vec::with_capacity(2 * stages + 1);
    f.push(1.0);
    for i in 0..stages {
        f.push(if challenge.top().is_selected(i) {
            1.0
        } else {
            0.0
        });
    }
    for i in 0..stages {
        f.push(if challenge.bottom().is_selected(i) {
            -1.0
        } else {
            0.0
        });
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ropuf_silicon::board::BoardId;
    use ropuf_silicon::SiliconSim;

    fn pair_and_tech(n: usize) -> (ropuf_silicon::Board, Technology) {
        let sim = SiliconSim::default_spartan();
        let mut rng = StdRng::seed_from_u64(3);
        (
            sim.grow_board_with_id(&mut rng, BoardId(0), 2 * n, n),
            *sim.technology(),
        )
    }

    #[test]
    fn random_challenges_have_equal_counts() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let c = Challenge::random(&mut rng, 9, ParityPolicy::Ignore);
            assert_eq!(c.top().selected_count(), c.bottom().selected_count());
        }
    }

    #[test]
    fn force_odd_challenges_oscillate() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..100 {
            let c = Challenge::random(&mut rng, 8, ParityPolicy::ForceOdd);
            assert!(c.top().oscillates());
            assert!(c.bottom().oscillates());
        }
    }

    #[test]
    fn random_challenges_are_diverse() {
        let mut rng = StdRng::seed_from_u64(3);
        let cs: Vec<Challenge> = (0..50)
            .map(|_| Challenge::random(&mut rng, 12, ParityPolicy::Ignore))
            .collect();
        let distinct: std::collections::HashSet<_> = cs.iter().collect();
        assert!(distinct.len() > 40, "only {} distinct", distinct.len());
    }

    #[test]
    fn responses_are_deterministic_without_noise() {
        let n = 7;
        let (board, tech) = pair_and_tech(n);
        let pair = RoPair::split_range(&board, 0..2 * n);
        let mut rng = StdRng::seed_from_u64(4);
        let c = Challenge::random(&mut rng, n, ParityPolicy::Ignore);
        let probe = DelayProbe::noiseless();
        let env = Environment::nominal();
        let r1 = respond(&mut rng, &pair, &c, &probe, env, &tech);
        let r2 = respond(&mut rng, &pair, &c, &probe, env, &tech);
        assert_eq!(r1, r2);
    }

    #[test]
    fn attack_learns_the_pair() {
        let n = 11;
        let (board, tech) = pair_and_tech(n);
        let pair = RoPair::split_range(&board, 0..2 * n);
        let mut rng = StdRng::seed_from_u64(5);
        let probe = DelayProbe::noiseless();
        let env = Environment::nominal();
        let crps: Vec<(Challenge, bool)> = (0..600)
            .map(|_| {
                let c = Challenge::random(&mut rng, n, ParityPolicy::Ignore);
                let r = respond(&mut rng, &pair, &c, &probe, env, &tech);
                (c, r)
            })
            .collect();
        let (train, test) = crps.split_at(300);
        let (tc, tr): (Vec<_>, Vec<_>) = train.iter().cloned().unzip();
        let model = LinearDelayAttack::train(&tc, &tr).expect("enough data");
        let (xc, xr): (Vec<_>, Vec<_>) = test.iter().cloned().unzip();
        let acc = model.accuracy(&xc, &xr);
        assert!(acc > 0.9, "attack accuracy {acc}");
        assert_eq!(model.weights().len(), 2 * n + 1);
    }

    #[test]
    fn attack_needs_enough_data() {
        let mut rng = StdRng::seed_from_u64(6);
        let cs: Vec<Challenge> = (0..5)
            .map(|_| Challenge::random(&mut rng, 9, ParityPolicy::Ignore))
            .collect();
        let rs = vec![true; 5];
        let err = LinearDelayAttack::train(&cs, &rs).unwrap_err();
        assert_eq!(
            err,
            TrainError::NotEnoughData {
                observed: 5,
                required: 19
            }
        );
        assert!(err.to_string().contains("19-parameter"));
    }

    #[test]
    fn degenerate_training_set_learns_only_the_constant() {
        // With ridge regularization a rank-deficient training set still
        // trains, but all it can learn is the constant answer: the
        // training challenge predicts correctly, everything else is
        // uninformed.
        let mut rng = StdRng::seed_from_u64(7);
        let c = Challenge::random(&mut rng, 4, ParityPolicy::Ignore);
        let cs = vec![c.clone(); 20];
        let rs = vec![true; 20];
        let model = LinearDelayAttack::train(&cs, &rs).expect("ridge keeps this solvable");
        assert!(model.predict(&c));
    }

    #[test]
    fn try_new_rejects_malformed_challenges() {
        let err = Challenge::try_new(
            ConfigVector::from_selected(4, &[0, 1]),
            ConfigVector::from_selected(5, &[0, 1]),
        )
        .unwrap_err();
        assert!(err.to_string().contains("equally long"), "{err}");
        let err = Challenge::try_new(
            ConfigVector::from_selected(4, &[0, 1]),
            ConfigVector::from_selected(4, &[2]),
        )
        .unwrap_err();
        assert!(err.to_string().contains("equally many stages"), "{err}");
        assert!(Challenge::try_new(
            ConfigVector::from_selected(4, &[0, 1]),
            ConfigVector::from_selected(4, &[2, 3]),
        )
        .is_ok());
    }
}
