//! Challenge-response operation of a reconfigurable deployment.
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
//! reconfigurable deployment would emit. The modeling attacks in
//! `ropuf_attack::model` then do what an attacker would do: fit a delay
//! model to observed CRPs and predict unseen challenges. A few hundred
//! CRPs suffice for near-perfect prediction (see the `modeling_attack`
//! example) — which is exactly why the paper freezes the configuration
//! instead.

use rand::Rng;
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
