//! The temperature-aware cooperative RO PUF baseline (Yin & Qu,
//! HOST 2009 — the paper's reference \[2\]).
//!
//! §II summarizes it: by characterizing every RO across the temperature
//! range at enrollment and only pairing ROs whose speed ordering is
//! consistent over the whole range, it reaches much higher hardware
//! utilization than 1-out-of-8 (the paper quotes 80 % higher) — at the
//! cost of a temperature sensor and a multi-corner enrollment.
//!
//! This module implements the scheme in its essential form:
//! [`CooperativePuf::enroll`] measures every ring at each supplied
//! operating corner, then greedily matches rings into disjoint pairs
//! whose delay ordering holds at *every* corner with at least
//! `min_margin_ps` of slack, preferring the most robust pairings. Rings
//! that cannot be consistently paired are left unused — the utilization
//! number the comparison is about.

use rand::Rng;
use ropuf_silicon::{Board, DelayProbe, Environment, Technology};

use crate::config::ConfigVector;
use crate::puf::{EnrolledPair, Enrollment, PairSpec};
use crate::ro::ConfigurableRo;

/// A cooperative RO PUF floorplan: a pool of equally sized rings that
/// enrollment will pair up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CooperativePuf {
    rings: Vec<Vec<usize>>,
}

impl CooperativePuf {
    /// Builds the pool from explicit ring unit-index lists.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two rings are given or they differ in size.
    pub fn new(rings: Vec<Vec<usize>>) -> Self {
        assert!(rings.len() >= 2, "pairing needs at least two rings");
        let stages = rings[0].len();
        assert!(stages > 0, "rings need at least one stage");
        assert!(
            rings.iter().all(|r| r.len() == stages),
            "all rings must be equally sized"
        );
        Self { rings }
    }

    /// Tiles `total_units` into consecutive `stages`-unit rings.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two rings fit.
    pub fn tiled(total_units: usize, stages: usize) -> Self {
        assert!(stages > 0, "rings need at least one stage");
        let count = total_units / stages;
        assert!(
            count >= 2,
            "{total_units} units cannot host two {stages}-stage rings"
        );
        Self::new(
            (0..count)
                .map(|r| (r * stages..(r + 1) * stages).collect())
                .collect(),
        )
    }

    /// Number of rings in the pool.
    pub fn ring_count(&self) -> usize {
        self.rings.len()
    }

    /// Hardware utilization of an enrollment of this pool: rings
    /// actually producing bits over rings provisioned (the traditional
    /// RO PUF's baseline is 1.0; 1-out-of-8 sits at 0.25).
    pub fn utilization(&self, enrollment: &Enrollment) -> f64 {
        2.0 * enrollment.bit_count() as f64 / self.rings.len() as f64
    }

    /// Enrolls: measures every ring at every corner in `corners`, then
    /// pairs rings whose ordering is corner-consistent with at least
    /// `min_margin_ps` of slack everywhere, most-robust pairs first.
    ///
    /// Each pair is an all-selected [`EnrolledPair`] with the
    /// lower-indexed ring on top, the expected bit `true` when that ring
    /// is slower at every corner, and the worst-corner separation as its
    /// margin. The enrollment is recorded at `corners[0]`.
    ///
    /// # Panics
    ///
    /// Panics if `corners` is empty or `min_margin_ps` is negative/not
    /// finite.
    pub fn enroll<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        board: &Board,
        tech: &Technology,
        corners: &[Environment],
        probe: &DelayProbe,
        min_margin_ps: f64,
    ) -> Enrollment {
        assert!(!corners.is_empty(), "enrollment needs at least one corner");
        assert!(
            min_margin_ps.is_finite() && min_margin_ps >= 0.0,
            "margin must be finite and non-negative"
        );
        let stages = self.rings[0].len();
        let config = ConfigVector::all_selected(stages);
        // delays[r][c] = ring r's measured delay at corner c.
        let delays: Vec<Vec<f64>> = self
            .rings
            .iter()
            .map(|units| {
                let ro = ConfigurableRo::try_new(board, units.clone())
                    .expect("cooperative rings fit the board");
                corners
                    .iter()
                    .map(|&env| probe.measure_ps(rng, ro.ring_delay_ps(&config, env, tech)))
                    .collect()
            })
            .collect();

        // Candidate pairs with corner-consistent ordering; robustness =
        // the worst-corner separation.
        let mut candidates: Vec<(usize, usize, f64, bool)> = Vec::new();
        for a in 0..self.rings.len() {
            for b in a + 1..self.rings.len() {
                let diffs: Vec<f64> = delays[a]
                    .iter()
                    .zip(&delays[b])
                    .map(|(da, db)| da - db)
                    .collect();
                let all_pos = diffs.iter().all(|&d| d >= min_margin_ps);
                let all_neg = diffs.iter().all(|&d| d <= -min_margin_ps);
                if all_pos || all_neg {
                    let worst = diffs.iter().map(|d| d.abs()).fold(f64::INFINITY, f64::min);
                    candidates.push((a, b, worst, all_pos));
                }
            }
        }
        candidates.sort_by(|x, y| y.2.total_cmp(&x.2));

        // Greedy disjoint matching, most robust first.
        let mut used = vec![false; self.rings.len()];
        let mut pairs = Vec::new();
        for (a, b, worst, a_slower) in candidates {
            if !used[a] && !used[b] {
                used[a] = true;
                used[b] = true;
                let spec = PairSpec::try_new(self.rings[a].clone(), self.rings[b].clone())
                    .expect("pool rings are equally sized");
                let pair = EnrolledPair::from_parts(
                    pairs.len(),
                    config.clone(),
                    config.clone(),
                    a_slower,
                    worst,
                );
                pairs.push(Some((spec, pair)));
            }
        }
        Enrollment::listed(pairs, corners[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ropuf_silicon::board::BoardId;
    use ropuf_silicon::SiliconSim;

    fn setup() -> (Board, Technology, StdRng) {
        let sim = SiliconSim::default_spartan();
        let mut rng = StdRng::seed_from_u64(41);
        let board = sim.grow_board_with_id(&mut rng, BoardId(0), 64 * 5, 20);
        (board, *sim.technology(), rng)
    }

    fn enroll(min_margin: f64) -> (Enrollment, Board, Technology, StdRng) {
        let (board, tech, mut rng) = setup();
        let puf = CooperativePuf::tiled(board.len(), 5);
        let e = puf.enroll(
            &mut rng,
            &board,
            &tech,
            &Environment::temperature_sweep(1.20),
            &DelayProbe::noiseless(),
            min_margin,
        );
        (e, board, tech, rng)
    }

    #[test]
    fn utilization_beats_one_of_eight() {
        let (e, board, _, _) = enroll(0.5);
        let utilization = CooperativePuf::tiled(board.len(), 5).utilization(&e);
        // Reference [2] claims ~80 % above 1-out-of-8's 25 %; anything
        // comfortably above 0.25 demonstrates the point.
        assert!(utilization > 0.5, "utilization {utilization}");
        assert!(e.bit_count() >= 16);
    }

    #[test]
    fn pairs_are_disjoint_and_sorted_by_robustness() {
        let (e, _, _, _) = enroll(0.5);
        let mut seen = std::collections::HashSet::new();
        let mut prev = f64::INFINITY;
        for p in e.pairs().iter().flatten() {
            let spec = e.spec(p);
            for u in spec.top().iter().chain(spec.bottom()) {
                assert!(seen.insert(*u), "unit {u} reused");
            }
            assert!(p.margin_ps() <= prev);
            prev = p.margin_ps();
        }
    }

    #[test]
    fn responses_are_corner_stable() {
        let (e, board, tech, mut rng) = enroll(1.0);
        let probe = DelayProbe::new(0.25, 1);
        for env in Environment::temperature_sweep(1.20) {
            let r = e.respond(&mut rng, &board, &tech, env, &probe);
            assert_eq!(r, e.expected_bits(), "flips at {env}");
        }
    }

    #[test]
    fn higher_margin_requirement_costs_bits() {
        let (loose, _, _, _) = enroll(0.0);
        let (strict, _, _, _) = enroll(5.0);
        assert!(strict.bit_count() <= loose.bit_count());
    }

    #[test]
    fn single_corner_enrollment_pairs_everything() {
        // With one corner and zero margin, ordering is always
        // consistent: utilization 1 (up to an odd leftover ring).
        let (board, tech, mut rng) = setup();
        let puf = CooperativePuf::tiled(board.len(), 5);
        let e = puf.enroll(
            &mut rng,
            &board,
            &tech,
            &[Environment::nominal()],
            &DelayProbe::noiseless(),
            0.0,
        );
        let utilization = puf.utilization(&e);
        assert!(utilization > 0.96, "utilization {utilization}");
    }

    #[test]
    #[should_panic(expected = "at least one corner")]
    fn empty_corners_panic() {
        let (board, tech, mut rng) = setup();
        let puf = CooperativePuf::tiled(board.len(), 5);
        let _ = puf.enroll(&mut rng, &board, &tech, &[], &DelayProbe::noiseless(), 0.0);
    }

    #[test]
    #[should_panic(expected = "cannot host two")]
    fn tiny_pool_panics() {
        let _ = CooperativePuf::tiled(5, 5);
    }
}
