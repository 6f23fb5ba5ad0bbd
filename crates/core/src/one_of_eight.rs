//! The 1-out-of-8 RO PUF baseline (Suh & Devadas, DAC 2007).
//!
//! Eight rings form a group; enrollment picks the *fastest* and *slowest*
//! rings of the group — the pair with the maximum delay separation — and
//! the bit is which of the two (by position) is faster. The huge margin
//! makes bits essentially flip-free across environment corners, at the
//! cost of 8 rings per bit versus 2 for the traditional/configurable
//! schemes (25 % hardware utilization, the paper's Table V).

use rand::Rng;
use ropuf_silicon::{Board, DelayProbe, Environment, Technology};

use crate::config::ConfigVector;
use crate::puf::{EnrolledPair, Enrollment, PairSpec};

/// A group of eight equally sized rings, described by the unit indices of
/// each ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoGroup {
    rings: [Vec<usize>; 8],
}

impl RoGroup {
    /// Builds a group from eight rings.
    ///
    /// # Panics
    ///
    /// Panics if the rings are empty or differ in length.
    pub fn new(rings: [Vec<usize>; 8]) -> Self {
        let len = rings[0].len();
        assert!(len > 0, "rings need at least one stage");
        assert!(
            rings.iter().all(|r| r.len() == len),
            "all eight rings must be equally sized"
        );
        Self { rings }
    }

    /// Stages per ring.
    pub fn stages(&self) -> usize {
        self.rings[0].len()
    }

    /// The unit indices of ring `i` (`i < 8`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 8`.
    pub fn ring(&self, i: usize) -> &[usize] {
        &self.rings[i]
    }

    fn ring_delay<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        board: &Board,
        tech: &Technology,
        env: Environment,
        probe: &DelayProbe,
        i: usize,
    ) -> f64 {
        let config = ConfigVector::all_selected(self.stages());
        let ro = crate::ro::ConfigurableRo::try_borrowed(board, &self.rings[i])
            .expect("group rings fit the board");
        probe.measure_ps(rng, ro.ring_delay_ps(&config, env, tech))
    }
}

/// A 1-out-of-8 PUF floorplan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OneOfEightPuf {
    groups: Vec<RoGroup>,
}

impl OneOfEightPuf {
    /// Builds from explicit groups.
    ///
    /// # Panics
    ///
    /// Panics if `groups` is empty.
    pub fn new(groups: Vec<RoGroup>) -> Self {
        assert!(!groups.is_empty(), "a PUF needs at least one group");
        Self { groups }
    }

    /// Tiles `total_units` into consecutive groups of eight
    /// `stages`-per-ring rings (`⌊total / 8·stages⌋` groups).
    ///
    /// # Panics
    ///
    /// Panics if fewer than one group fits.
    pub fn tiled(total_units: usize, stages: usize) -> Self {
        assert!(stages > 0, "rings need at least one stage");
        let groups = total_units / (8 * stages);
        assert!(
            groups > 0,
            "{total_units} units cannot host an 8-ring group"
        );
        Self::new(
            (0..groups)
                .map(|g| {
                    let base = g * 8 * stages;
                    RoGroup::new(std::array::from_fn(|r| {
                        (base + r * stages..base + (r + 1) * stages).collect()
                    }))
                })
                .collect(),
        )
    }

    /// The groups of the floorplan.
    pub fn groups(&self) -> &[RoGroup] {
        &self.groups
    }

    /// Number of groups (= bits).
    pub fn bit_capacity(&self) -> usize {
        self.groups.len()
    }

    /// Enrolls: measures all eight rings per group and records the
    /// fastest and slowest rings as one all-selected [`EnrolledPair`],
    /// the lower-positioned ring on top. The expected bit is `true` when
    /// the top ring measured slower; the margin is the separation
    /// between the two.
    pub fn enroll<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        board: &Board,
        tech: &Technology,
        env: Environment,
        probe: &DelayProbe,
    ) -> Enrollment {
        let pairs = self.groups.iter().enumerate().map(|(i, group)| {
            let delays: Vec<f64> = (0..8)
                .map(|i| group.ring_delay(rng, board, tech, env, probe, i))
                .collect();
            let (fast, _) = delays
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(b.1))
                .expect("eight rings");
            let (slow, _) = delays
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .expect("eight rings");
            let (a, b) = (fast.min(slow), fast.max(slow));
            let spec = PairSpec::try_new(group.ring(a).to_vec(), group.ring(b).to_vec())
                .expect("group rings are equally sized");
            let config = ConfigVector::all_selected(group.stages());
            let pair = EnrolledPair::from_parts(
                i,
                config.clone(),
                config,
                delays[a] > delays[b],
                (delays[fast] - delays[slow]).abs(),
            );
            Some((spec, pair))
        });
        Enrollment::listed(pairs, env)
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
        let mut rng = StdRng::seed_from_u64(55);
        let board = sim.grow_board_with_id(&mut rng, BoardId(0), units, 16);
        (board, *sim.technology(), rng)
    }

    #[test]
    fn tiled_group_geometry() {
        let puf = OneOfEightPuf::tiled(240, 5);
        assert_eq!(puf.bit_capacity(), 6);
        let g = &puf.groups()[1];
        assert_eq!(g.stages(), 5);
        assert_eq!(g.ring(0), &[40, 41, 42, 43, 44]);
        assert_eq!(g.ring(7), &[75, 76, 77, 78, 79]);
    }

    #[test]
    fn quarter_of_traditional_capacity() {
        // Table V: the 1-out-of-8 scheme yields 1/4 of the bits.
        for n in [3, 5] {
            let one8 = OneOfEightPuf::tiled(480, n);
            let trad = crate::traditional::TraditionalRoPuf::tiled(480, n);
            assert_eq!(one8.bit_capacity() * 4, trad.pair_count());
        }
    }

    #[test]
    fn enrollment_picks_extremes() {
        let (board, tech, mut rng) = setup(120);
        let puf = OneOfEightPuf::tiled(120, 3);
        let env = Environment::nominal();
        let e = puf.enroll(&mut rng, &board, &tech, env, &DelayProbe::noiseless());
        assert_eq!(e.pairs().len(), puf.bit_capacity());
        for (pick, group) in e.pairs().iter().zip(puf.groups()) {
            let pick = pick.as_ref().expect("every group enrolls");
            let config = ConfigVector::all_selected(3);
            let delays: Vec<f64> = (0..8)
                .map(|i| {
                    crate::ro::ConfigurableRo::try_new(&board, group.ring(i).to_vec())
                        .unwrap()
                        .ring_delay_ps(&config, env, &tech)
                })
                .collect();
            let max = delays.iter().cloned().fold(f64::MIN, f64::max);
            let min = delays.iter().cloned().fold(f64::MAX, f64::min);
            assert!((pick.margin_ps() - (max - min)).abs() < 1e-9);
            // The lower-positioned extreme ring is the top ring.
            let spec = e.spec(pick);
            assert!(spec.top()[0] < spec.bottom()[0]);
        }
    }

    #[test]
    fn noiseless_response_reproduces_enrollment() {
        let (board, tech, mut rng) = setup(240);
        let puf = OneOfEightPuf::tiled(240, 5);
        let env = Environment::nominal();
        let e = puf.enroll(&mut rng, &board, &tech, env, &DelayProbe::noiseless());
        let r = e.respond(&mut rng, &board, &tech, env, &DelayProbe::noiseless());
        assert_eq!(r, e.expected_bits());
    }

    #[test]
    fn margins_dwarf_traditional() {
        let (board, tech, _) = setup(240);
        let env = Environment::nominal();
        let mut r1 = StdRng::seed_from_u64(2);
        let mut r2 = StdRng::seed_from_u64(2);
        let one8 = OneOfEightPuf::tiled(240, 5).enroll(
            &mut r1,
            &board,
            &tech,
            env,
            &DelayProbe::noiseless(),
        );
        let trad = crate::traditional::TraditionalRoPuf::tiled(240, 5).enroll(
            &mut r2,
            &board,
            &tech,
            env,
            &DelayProbe::noiseless(),
            0.0,
        );
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(mean(&one8.margins_ps()) > 2.0 * mean(&trad.margins_ps()));
    }

    #[test]
    fn stable_across_environment_corners() {
        let (board, tech, mut rng) = setup(240);
        let puf = OneOfEightPuf::tiled(240, 5);
        let e = puf.enroll(
            &mut rng,
            &board,
            &tech,
            Environment::nominal(),
            &DelayProbe::noiseless(),
        );
        let probe = DelayProbe::new(0.25, 1);
        for env in Environment::voltage_sweep(25.0) {
            let r = e.respond(&mut rng, &board, &tech, env, &probe);
            assert_eq!(r, e.expected_bits(), "flips at {env}");
        }
    }

    #[test]
    #[should_panic(expected = "equally sized")]
    fn ragged_group_panics() {
        let _ = RoGroup::new([
            vec![0],
            vec![1],
            vec![2],
            vec![3],
            vec![4],
            vec![5],
            vec![6],
            vec![7, 8],
        ]);
    }
}
