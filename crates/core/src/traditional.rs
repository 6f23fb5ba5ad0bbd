//! The traditional RO PUF baseline.
//!
//! Two identically designed rings with *every* inverter included; the bit
//! is the sign of their frequency (here: delay) difference. This is the
//! baseline the paper's Figure 4 and §IV.E compare against: it wastes the
//! per-stage delay information, so its margins — and therefore its
//! reliability — are whatever fabrication happened to produce.

use rand::Rng;
use ropuf_silicon::{Board, DelayProbe, Environment, Technology};

use crate::config::ConfigVector;
use crate::puf::{ConfigurableRoPuf, EnrolledPair, Enrollment, PairSpec};

/// A traditional RO PUF: the same pair floorplan as
/// [`ConfigurableRoPuf`], with all inverters always selected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraditionalRoPuf {
    floorplan: ConfigurableRoPuf,
}

impl TraditionalRoPuf {
    /// Builds a traditional PUF from explicit pair specs.
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty.
    pub fn new(specs: Vec<PairSpec>) -> Self {
        Self {
            floorplan: ConfigurableRoPuf::new(specs),
        }
    }

    /// Tiles `total_units` into consecutive `stages`-per-ring pairs,
    /// identical to [`ConfigurableRoPuf::tiled`] so comparisons are
    /// apples-to-apples.
    ///
    /// # Panics
    ///
    /// Panics if fewer than one pair fits.
    pub fn tiled(total_units: usize, stages: usize) -> Self {
        Self {
            floorplan: ConfigurableRoPuf::tiled(total_units, stages),
        }
    }

    /// The floorplan's pair specs.
    pub fn specs(&self) -> &[PairSpec] {
        self.floorplan.specs()
    }

    /// Number of ring pairs.
    pub fn pair_count(&self) -> usize {
        self.floorplan.pair_count()
    }

    /// Enrolls: measures every pair at `env`, top ring then bottom ring,
    /// and records the sign and magnitude of the delay difference as an
    /// all-selected [`EnrolledPair`]. Pairs with a magnitude below
    /// `threshold_ps` are excluded (§IV.E's `Rth`).
    pub fn enroll<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        board: &Board,
        tech: &Technology,
        env: Environment,
        probe: &DelayProbe,
        threshold_ps: f64,
    ) -> Enrollment {
        let pairs = self
            .specs()
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let config = ConfigVector::all_selected(spec.stages());
                let pair = spec.bind(board);
                let d_top = probe.measure_ps(rng, pair.top().ring_delay_ps(&config, env, tech));
                let d_bottom =
                    probe.measure_ps(rng, pair.bottom().ring_delay_ps(&config, env, tech));
                let diff = d_top - d_bottom;
                if diff.abs() < threshold_ps {
                    None
                } else {
                    Some(EnrolledPair::from_parts(
                        i,
                        config.clone(),
                        config,
                        diff > 0.0,
                        diff.abs(),
                    ))
                }
            })
            .collect();
        self.floorplan.enrollment_of(pairs, env)
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
        let mut rng = StdRng::seed_from_u64(77);
        let board = sim.grow_board_with_id(&mut rng, BoardId(0), units, 16);
        (board, *sim.technology(), rng)
    }

    #[test]
    fn bit_count_matches_floorplan() {
        let (board, tech, mut rng) = setup(80);
        let puf = TraditionalRoPuf::tiled(80, 5);
        assert_eq!(puf.pair_count(), 8);
        let e = puf.enroll(
            &mut rng,
            &board,
            &tech,
            Environment::nominal(),
            &DelayProbe::noiseless(),
            0.0,
        );
        assert_eq!(e.bit_count(), 8);
        assert_eq!(e.expected_bits().len(), 8);
    }

    #[test]
    fn noiseless_response_reproduces_enrollment() {
        let (board, tech, mut rng) = setup(60);
        let env = Environment::nominal();
        // The second floorplan mixes ring lengths: each pair is
        // configured at its own stage count.
        for puf in [
            TraditionalRoPuf::tiled(60, 5),
            TraditionalRoPuf::new(vec![PairSpec::split_at(0, 3), PairSpec::split_at(6, 5)]),
        ] {
            let e = puf.enroll(&mut rng, &board, &tech, env, &DelayProbe::noiseless(), 0.0);
            let r = e.respond(&mut rng, &board, &tech, env, &DelayProbe::noiseless());
            assert_eq!(r, e.expected_bits());
            assert_eq!(e.bit_count(), puf.pair_count());
        }
    }

    #[test]
    fn threshold_prunes_low_margin_pairs() {
        let (board, tech, mut rng) = setup(200);
        let puf = TraditionalRoPuf::tiled(200, 5);
        let env = Environment::nominal();
        let all = puf.enroll(&mut rng, &board, &tech, env, &DelayProbe::noiseless(), 0.0);
        let margins = all.margins_ps();
        let median = {
            let mut m = margins.clone();
            m.sort_by(f64::total_cmp);
            m[m.len() / 2]
        };
        let pruned = puf.enroll(
            &mut rng,
            &board,
            &tech,
            env,
            &DelayProbe::noiseless(),
            median,
        );
        assert!(pruned.bit_count() < all.bit_count());
        assert!(pruned.margins_ps().iter().all(|&m| m >= median));
    }

    #[test]
    fn configurable_margins_beat_traditional() {
        use crate::puf::{ConfigurableRoPuf, EnrollOptions, SelectionMode};
        use crate::ParityPolicy;
        let (board, tech, _) = setup(150);
        let env = Environment::nominal();
        let trad = TraditionalRoPuf::tiled(150, 5);
        let conf = ConfigurableRoPuf::tiled(150, 5);
        let mut rng1 = StdRng::seed_from_u64(1);
        let mut rng2 = StdRng::seed_from_u64(1);
        let et = trad.enroll(&mut rng1, &board, &tech, env, &DelayProbe::noiseless(), 0.0);
        let ec = conf.enroll(
            &mut rng2,
            &board,
            &tech,
            env,
            &EnrollOptions {
                mode: SelectionMode::Case2,
                parity: ParityPolicy::Ignore,
                probe: DelayProbe::noiseless(),
                ..EnrollOptions::default()
            },
        );
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&ec.margins_ps()) > mean(&et.margins_ps()),
            "configurable {} !> traditional {}",
            mean(&ec.margins_ps()),
            mean(&et.margins_ps())
        );
    }

    #[test]
    #[should_panic(expected = "at least one ring pair")]
    fn empty_specs_panic() {
        let _ = TraditionalRoPuf::new(vec![]);
    }
}
