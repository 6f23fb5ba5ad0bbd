//! Modeling attacks on CRP transcripts: least squares,
//! correlation/ordering and logistic regression.
//!
//! [`LinearDelayAttack`] is the standard first-order attack: a ridge
//! least-squares fit of the ±1 response. The other two generalize it.
//! The correlation attack is the cheapest statistic Wilde et al.
//! describe — per-stage Pearson correlation between the selection
//! indicator and the response, which already recovers the *ordering*
//! of the secret stage delays. The logistic attack fits the proper
//! Bernoulli model of the same features by IRLS, each inner step a
//! [`ropuf_num::linalg::Matrix::weighted_least_squares_ridge`] solve.

use ropuf_core::crp::Challenge;
use ropuf_num::linalg::Matrix;
use ropuf_num::stats::pearson;

/// The feature vector of the linear/logistic delay models:
/// `[1, x₁…x_n, −y₁…−y_n]` (intercept, top selections, negated bottom
/// selections), shared by every model in this module.
pub fn features(challenge: &Challenge, stages: usize) -> Vec<f64> {
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

/// Errors from the trainers in this module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// The training set is empty or shorter than the parameter count.
    NotEnoughData {
        /// CRPs supplied.
        observed: usize,
        /// CRPs required.
        required: usize,
    },
    /// The solver could not fit the training set (degenerate design).
    Degenerate,
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::NotEnoughData { observed, required } => {
                write!(f, "{observed} CRPs cannot fit a {required}-parameter model")
            }
            ModelError::Degenerate => write!(f, "training set is degenerate"),
        }
    }
}

impl std::error::Error for ModelError {}

/// The regression models' design matrix (one [`features`] row per
/// challenge) and stage count; fewer CRPs than the `2n + 1` parameters
/// is [`ModelError::NotEnoughData`].
fn design_matrix(
    challenges: &[Challenge],
    responses: &[bool],
) -> Result<(Matrix, usize), ModelError> {
    assert_eq!(
        challenges.len(),
        responses.len(),
        "one response per challenge"
    );
    let stages = challenges.first().map_or(0, Challenge::stages);
    let params = 2 * stages + 1;
    if challenges.len() < params {
        return Err(ModelError::NotEnoughData {
            observed: challenges.len(),
            required: params,
        });
    }
    let design = Matrix::from_fn(challenges.len(), params, |i, j| {
        features(&challenges[i], stages)[j]
    });
    Ok((design, stages))
}

/// A least-squares linear delay model of one ring pair, learned from
/// observed challenge-response pairs.
///
/// The model regresses the ±1 response on [`features`] and predicts
/// with the sign of the fit — the standard first-order attack on
/// delay-based PUFs.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearDelayAttack {
    weights: Vec<f64>,
    stages: usize,
}

impl LinearDelayAttack {
    /// Fits the model to observed CRPs.
    ///
    /// # Errors
    ///
    /// [`ModelError::NotEnoughData`] with fewer than `2n + 1` CRPs;
    /// [`ModelError::Degenerate`] if the challenges do not span the
    /// feature space.
    ///
    /// # Panics
    ///
    /// Panics if `challenges` and `responses` differ in length or the
    /// challenges differ in stage count.
    pub fn train(challenges: &[Challenge], responses: &[bool]) -> Result<Self, ModelError> {
        let (design, stages) = design_matrix(challenges, responses)?;
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
            .map_err(|_| ModelError::Degenerate)?;
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
        accuracy_of(|c| self.predict(c), challenges, responses)
    }

    /// The fitted weights `[w₀, w₁…w_n, v₁…v_n]` (intercept, top-stage,
    /// bottom-stage). The top weights approximate the top ring's stage
    /// delays up to affine transformation — the leak the attack exploits.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }
}

/// The correlation/ordering attack: per-feature Pearson correlation
/// with the ±1 response, used directly as a linear score. Needs no
/// matrix solve at all — the statistic-based floor of what a transcript
/// leaks.
#[derive(Debug, Clone, PartialEq)]
pub struct CorrelationAttack {
    weights: Vec<f64>,
    means: Vec<f64>,
    bias: f64,
    stages: usize,
}

impl CorrelationAttack {
    /// Correlates every feature column with the responses.
    ///
    /// # Errors
    ///
    /// [`ModelError::NotEnoughData`] on fewer than two CRPs.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length or the challenges differ
    /// in stage count.
    pub fn train(challenges: &[Challenge], responses: &[bool]) -> Result<Self, ModelError> {
        assert_eq!(
            challenges.len(),
            responses.len(),
            "one response per challenge"
        );
        if challenges.len() < 2 {
            return Err(ModelError::NotEnoughData {
                observed: challenges.len(),
                required: 2,
            });
        }
        let stages = challenges[0].stages();
        let dims = 2 * stages + 1;
        let targets: Vec<f64> = responses
            .iter()
            .map(|&b| if b { 1.0 } else { -1.0 })
            .collect();
        let rows: Vec<Vec<f64>> = challenges.iter().map(|c| features(c, stages)).collect();
        let mut weights = vec![0.0; dims];
        let mut means = vec![0.0; dims];
        for j in 0..dims {
            let column: Vec<f64> = rows.iter().map(|r| r[j]).collect();
            means[j] = column.iter().sum::<f64>() / column.len() as f64;
            // Constant columns (including the intercept) carry no
            // correlation signal; pearson() returns None there.
            weights[j] = pearson(&column, &targets).unwrap_or(0.0);
        }
        let bias = targets.iter().sum::<f64>() / targets.len() as f64;
        Ok(Self {
            weights,
            means,
            bias,
            stages,
        })
    }

    /// Predicts the response to a challenge.
    ///
    /// # Panics
    ///
    /// Panics on a stage-count mismatch with the training data.
    pub fn predict(&self, challenge: &Challenge) -> bool {
        assert_eq!(challenge.stages(), self.stages, "stage count mismatch");
        let f = features(challenge, self.stages);
        let score: f64 = self
            .weights
            .iter()
            .zip(&f)
            .zip(&self.means)
            .map(|((w, x), m)| w * (x - m))
            .sum::<f64>()
            + self.bias;
        score > 0.0
    }

    /// Prediction accuracy over a labelled test set.
    ///
    /// # Panics
    ///
    /// Panics on mismatched lengths or an empty test set.
    pub fn accuracy(&self, challenges: &[Challenge], responses: &[bool]) -> f64 {
        accuracy_of(|c| self.predict(c), challenges, responses)
    }

    /// The per-feature correlation weights
    /// (`[intercept, top stages, bottom stages]`). The top-stage block
    /// recovers the *ordering* of the top ring's secret stage delays —
    /// compare with [`spearman`].
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The top-stage correlation block (length = stages).
    pub fn top_weights(&self) -> &[f64] {
        &self.weights[1..=self.stages]
    }
}

/// Logistic-regression delay model fitted by iteratively reweighted
/// least squares. Each IRLS step solves the weighted ridge normal
/// equations via
/// [`Matrix::weighted_least_squares_ridge`], so the whole attack rides
/// the same `num::linalg` core as the defender's calibration code.
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticDelayAttack {
    weights: Vec<f64>,
    stages: usize,
    iterations: usize,
}

/// IRLS iteration cap — logistic fits on separable PUF data saturate
/// within a handful of steps.
const IRLS_MAX_ITERATIONS: usize = 12;
/// Ridge regularization: resolves the exact collinearity the equal-count
/// constraint induces (same reason as `LinearDelayAttack`) and bounds
/// the weights on separable data.
const IRLS_RIDGE: f64 = 1e-4;
/// Convergence threshold on the max weight update.
const IRLS_TOLERANCE: f64 = 1e-8;

impl LogisticDelayAttack {
    /// Fits `P(bit = 1) = σ(wᵀf)` to the transcript.
    ///
    /// # Errors
    ///
    /// [`ModelError::NotEnoughData`] with fewer CRPs than parameters;
    /// [`ModelError::Degenerate`] if an IRLS step cannot be solved.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length or the challenges differ
    /// in stage count.
    pub fn train(challenges: &[Challenge], responses: &[bool]) -> Result<Self, ModelError> {
        let (design, stages) = design_matrix(challenges, responses)?;
        let y: Vec<f64> = responses.iter().map(|&b| f64::from(u8::from(b))).collect();
        let mut beta = vec![0.0; design.cols()];
        let mut iterations = 0;
        for _ in 0..IRLS_MAX_ITERATIONS {
            iterations += 1;
            let eta = design.matvec(&beta);
            let p: Vec<f64> = eta.iter().map(|&e| sigmoid(e)).collect();
            // Working weights and response of the IRLS step; the 1e-6
            // floor keeps saturated points from zeroing their rows.
            let w: Vec<f64> = p.iter().map(|&pi| (pi * (1.0 - pi)).max(1e-6)).collect();
            let z: Vec<f64> = eta
                .iter()
                .zip(&p)
                .zip(&y)
                .zip(&w)
                .map(|(((e, pi), yi), wi)| e + (yi - pi) / wi)
                .collect();
            let next = design
                .weighted_least_squares_ridge(&z, &w, IRLS_RIDGE)
                .map_err(|_| ModelError::Degenerate)?;
            let delta = beta
                .iter()
                .zip(&next)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            beta = next;
            if delta < IRLS_TOLERANCE {
                break;
            }
        }
        Ok(Self {
            weights: beta,
            stages,
            iterations,
        })
    }

    /// Predicts the response to a challenge.
    ///
    /// # Panics
    ///
    /// Panics on a stage-count mismatch with the training data.
    pub fn predict(&self, challenge: &Challenge) -> bool {
        assert_eq!(challenge.stages(), self.stages, "stage count mismatch");
        let f = features(challenge, self.stages);
        let eta: f64 = self.weights.iter().zip(&f).map(|(w, x)| w * x).sum();
        eta > 0.0
    }

    /// Prediction accuracy over a labelled test set.
    ///
    /// # Panics
    ///
    /// Panics on mismatched lengths or an empty test set.
    pub fn accuracy(&self, challenges: &[Challenge], responses: &[bool]) -> f64 {
        accuracy_of(|c| self.predict(c), challenges, responses)
    }

    /// The fitted weights `[w₀, w₁…w_n, v₁…v_n]` — the attacker's
    /// `ddiff` estimates up to scale.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// IRLS iterations the fit actually used.
    pub fn iterations(&self) -> usize {
        self.iterations
    }
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

fn accuracy_of(
    predict: impl Fn(&Challenge) -> bool,
    challenges: &[Challenge],
    responses: &[bool],
) -> f64 {
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
        .filter(|(c, &r)| predict(c) == r)
        .count();
    hits as f64 / challenges.len() as f64
}

/// Spearman rank correlation of two equal-length samples — how well one
/// sequence recovers the *ordering* of the other. `None` under the same
/// conditions as [`pearson`].
pub fn spearman(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    pearson(&ranks(xs), &ranks(ys))
}

/// Average ranks (1-based; ties share their mean rank).
fn ranks(xs: &[f64]) -> Vec<f64> {
    let mut order: Vec<usize> = (0..xs.len()).collect();
    order.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
    let mut out = vec![0.0; xs.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && xs[order[j + 1]] == xs[order[i]] {
            j += 1;
        }
        let mean_rank = (i + j) as f64 / 2.0 + 1.0;
        for &idx in &order[i..=j] {
            out[idx] = mean_rank;
        }
        i = j + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transcript::{Transcript, TranscriptConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ropuf_core::config::ParityPolicy;
    use ropuf_core::crp::respond;
    use ropuf_core::ro::RoPair;
    use ropuf_silicon::board::BoardId;
    use ropuf_silicon::{DelayProbe, Environment, SiliconSim, Technology};

    fn pair_and_tech(n: usize) -> (ropuf_silicon::Board, Technology) {
        let sim = SiliconSim::default_spartan();
        let mut rng = StdRng::seed_from_u64(3);
        (
            sim.grow_board_with_id(&mut rng, BoardId(0), 2 * n, n),
            *sim.technology(),
        )
    }

    fn transcript() -> Transcript {
        Transcript::generate(&TranscriptConfig {
            boards: 2,
            stages: 9,
            crps: 500,
            threads: 2,
            ..TranscriptConfig::default()
        })
    }

    #[test]
    fn correlation_attack_beats_chance_and_recovers_ordering() {
        let t = transcript();
        for b in &t.boards {
            let half = b.challenges.len() / 2;
            let model =
                CorrelationAttack::train(&b.challenges[..half], &b.responses[..half]).unwrap();
            let acc = model.accuracy(&b.challenges[half..], &b.responses[half..]);
            // The per-feature statistic ignores covariance, so it is the
            // crudest model in the catalogue — well above chance is all
            // it claims; ordering recovery below is its real output.
            assert!(acc > 0.65, "board {} correlation accuracy {acc}", b.board);
            let rho = spearman(model.top_weights(), &b.true_top_ddiffs).unwrap();
            assert!(
                rho > 0.6,
                "board {} ordering recovery {rho} (weights should rank the secret delays)",
                b.board
            );
        }
    }

    #[test]
    fn logistic_attack_matches_or_beats_the_linear_seed() {
        let t = transcript();
        for b in &t.boards {
            let half = b.challenges.len() / 2;
            let train_c = &b.challenges[..half];
            let train_r = &b.responses[..half];
            let logistic = LogisticDelayAttack::train(train_c, train_r).unwrap();
            let linear = LinearDelayAttack::train(train_c, train_r).unwrap();
            let acc_logistic = logistic.accuracy(&b.challenges[half..], &b.responses[half..]);
            let acc_linear = linear.accuracy(&b.challenges[half..], &b.responses[half..]);
            assert!(
                acc_logistic >= acc_linear - 0.02,
                "board {}: logistic {acc_logistic} vs linear {acc_linear}",
                b.board
            );
            assert!(
                acc_logistic > 0.85,
                "board {} logistic {acc_logistic}",
                b.board
            );
            assert!(logistic.iterations() >= 1);
            assert_eq!(logistic.weights().len(), 2 * t.stages + 1);
        }
    }

    #[test]
    fn trainers_reject_tiny_transcripts() {
        let t = transcript();
        let b = &t.boards[0];
        assert!(matches!(
            LogisticDelayAttack::train(&b.challenges[..3], &b.responses[..3]),
            Err(ModelError::NotEnoughData { .. })
        ));
        assert!(matches!(
            CorrelationAttack::train(&b.challenges[..1], &b.responses[..1]),
            Err(ModelError::NotEnoughData { .. })
        ));
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
            ModelError::NotEnoughData {
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
    fn spearman_is_rank_invariant() {
        assert_eq!(spearman(&[1.0, 2.0, 3.0], &[10.0, 20.0, 30.0]), Some(1.0));
        assert_eq!(spearman(&[1.0, 2.0, 3.0], &[30.0, 20.0, 10.0]), Some(-1.0));
        // Monotone transforms do not change the statistic.
        let a: [f64; 4] = [0.1, 5.0, 2.0, 9.0];
        let b: Vec<f64> = a.iter().map(|x| x.exp()).collect();
        assert!((spearman(&a, &b).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(spearman(&[1.0], &[2.0]), None);
    }

    #[test]
    fn ranks_handle_ties() {
        assert_eq!(ranks(&[10.0, 20.0, 10.0]), vec![1.5, 3.0, 1.5]);
    }
}
