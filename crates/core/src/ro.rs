//! Configurable ring oscillators over simulated silicon.
//!
//! A [`ConfigurableRo`] is a view of a contiguous-or-not group of delay
//! units on a [`Board`], in ring order. Applying a
//! [`ConfigVector`] yields the ring's round-trip delay; a
//! [`FrequencyCounter`] can read its oscillation frequency when the
//! configuration selects an odd number of inverters.
//!
//! # Examples
//!
//! ```
//! use rand::SeedableRng;
//! use ropuf_core::ro::{ConfigurableRo, RoPair};
//! use ropuf_core::ConfigVector;
//! use ropuf_silicon::{Environment, SiliconSim};
//! use ropuf_silicon::board::BoardId;
//!
//! let sim = SiliconSim::default_spartan();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let board = sim.grow_board_with_id(&mut rng, BoardId(0), 10, 5);
//! let pair = RoPair::split_range(&board, 0..10);
//! let config = ConfigVector::all_selected(5);
//! let env = Environment::nominal();
//! let d_top = pair.top().ring_delay_ps(&config, env, sim.technology());
//! assert!(d_top > 0.0);
//! ```

use std::borrow::Cow;
use std::ops::Range;

use rand::Rng;
use ropuf_silicon::{Board, DelayUnit, Environment, FrequencyCounter, MeasureArena, Technology};

use crate::config::ConfigVector;
use crate::error::Error;

/// A configurable ring oscillator: an ordered group of delay units on one
/// board.
///
/// The ring owns its unit indices, or borrows them from the floorplan it
/// was bound from, so [`crate::puf::PairSpec::bind`] copies nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigurableRo<'a> {
    board: &'a Board,
    stages: Cow<'a, [usize]>,
}

impl<'a> ConfigurableRo<'a> {
    /// Builds a ring from explicit unit indices (ring order).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Selection`] if `stages` is empty, contains
    /// duplicates, or references a unit outside the board.
    pub fn try_new(board: &'a Board, stages: Vec<usize>) -> Result<Self, Error> {
        Self::validated(board, Cow::Owned(stages))
    }

    /// [`try_new`](Self::try_new) over borrowed unit indices: the ring
    /// reads them in place instead of copying them.
    ///
    /// # Errors
    ///
    /// As [`try_new`](Self::try_new).
    pub(crate) fn try_borrowed(board: &'a Board, stages: &'a [usize]) -> Result<Self, Error> {
        Self::validated(board, Cow::Borrowed(stages))
    }

    fn validated(board: &'a Board, stages: Cow<'a, [usize]>) -> Result<Self, Error> {
        if stages.is_empty() {
            return Err(Error::Selection("a ring needs at least one stage".into()));
        }
        // Indices in ascending order (every floorplan this crate lays
        // out) cannot repeat; any other order is checked against a
        // board-wide mask.
        let ascending = stages.windows(2).all(|w| w[0] < w[1]);
        let mut seen = if ascending {
            Vec::new()
        } else {
            vec![false; board.len()]
        };
        for &i in stages.iter() {
            if i >= board.len() {
                return Err(Error::Selection(format!(
                    "unit index {i} out of range {}",
                    board.len()
                )));
            }
            if ascending {
                continue;
            }
            if seen[i] {
                return Err(Error::Selection(format!(
                    "unit index {i} appears twice in the ring"
                )));
            }
            seen[i] = true;
        }
        Ok(Self { board, stages })
    }

    /// Builds a ring from a contiguous unit range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or out of bounds.
    pub fn from_range(board: &'a Board, range: Range<usize>) -> Self {
        Self::try_new(board, range.collect()).expect("invalid ring layout")
    }

    /// The board this ring lives on.
    pub fn board(&self) -> &'a Board {
        self.board
    }

    /// Number of stages (delay units) in the ring.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Always false: rings are non-empty by construction.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// The board-unit indices of the stages, in ring order.
    pub fn stage_indices(&self) -> &[usize] {
        &self.stages
    }

    /// The delay unit backing stage `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn stage(&self, i: usize) -> &DelayUnit {
        let idx = self.stages[i];
        self.board
            .unit(idx)
            .expect("stage indices validated at construction")
    }

    /// True (noise-free) round-trip delay of the ring under `config`, in
    /// picoseconds. Every stage contributes: selected stages add
    /// `d + d1`, bypassed stages add `d0`.
    ///
    /// The common-mode [`Technology::delay_scale`] factor is hoisted out
    /// of the stage loop (it is a pure function of `(env, tech)`), so the
    /// walk costs one environment scaling instead of one per stage; the
    /// per-stage arithmetic is unchanged and the result bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if `config.len() != self.len()`.
    pub fn ring_delay_ps(&self, config: &ConfigVector, env: Environment, tech: &Technology) -> f64 {
        self.ring_delay_ps_scaled(config, tech.delay_scale(env), env, tech)
    }

    /// [`Self::ring_delay_ps`] with the common-mode scale supplied by a
    /// caller measuring many rings at one operating point (one
    /// [`Technology::delay_scale`] per sweep instead of per ring).
    /// Bit-identical to `ring_delay_ps` for `scale == tech.delay_scale(env)`.
    pub(crate) fn ring_delay_ps_scaled(
        &self,
        config: &ConfigVector,
        scale: f64,
        env: Environment,
        tech: &Technology,
    ) -> f64 {
        assert_eq!(
            config.len(),
            self.len(),
            "configuration has {} stages but the ring has {}",
            config.len(),
            self.len()
        );
        config
            .iter()
            .enumerate()
            .map(|(i, selected)| self.stage(i).path_delay_scaled(selected, scale, env, tech))
            .sum()
    }

    /// Total bypass delay (the all-zero configuration): the
    /// configuration-independent floor `B = Σ d0_i`.
    pub fn bypass_delay_ps(&self, env: Environment, tech: &Technology) -> f64 {
        let scale = tech.delay_scale(env);
        (0..self.len())
            .map(|i| self.stage(i).path_delay_scaled(false, scale, env, tech))
            .sum()
    }

    /// Fills ring `ring_index` of a [`MeasureArena`] block with this
    /// ring's per-stage selected/bypass contributions at `env` — the
    /// input of the §III.B calibration kernel. Each slot receives
    /// exactly the `path_delay` the corresponding whole-ring walk
    /// evaluates (same `path_delay_scaled` call, same hoisted scale), so
    /// sweeps derived from the arena are bit-identical to
    /// [`Self::ring_delay_ps`]. Stages past this ring's length keep the
    /// block's zero padding.
    ///
    /// # Panics
    ///
    /// Panics if the arena block has fewer stages than the ring or
    /// `ring_index` is outside the block.
    pub fn stage_delays_into(
        &self,
        env: Environment,
        tech: &Technology,
        arena: &mut MeasureArena,
        ring_index: usize,
    ) {
        self.stage_delays_into_scaled(tech.delay_scale(env), env, tech, arena, ring_index);
    }

    /// [`Self::stage_delays_into`] with the common-mode scale supplied by
    /// a caller filling many rings at one operating point (one
    /// [`Technology::delay_scale`] per corner instead of per ring).
    /// Bit-identical to `stage_delays_into` for
    /// `scale == tech.delay_scale(env)`.
    pub(crate) fn stage_delays_into_scaled(
        &self,
        scale: f64,
        env: Environment,
        tech: &Technology,
        arena: &mut MeasureArena,
        ring_index: usize,
    ) {
        for i in 0..self.len() {
            let unit = self.stage(i);
            arena.set_stage(
                ring_index,
                i,
                unit.path_delay_scaled(true, scale, env, tech),
                unit.path_delay_scaled(false, scale, env, tech),
            );
        }
    }

    /// True per-stage `ddiff` values at `env` (an oracle for calibration
    /// tests; real flows recover these through
    /// [`crate::calibrate`]).
    pub fn true_ddiffs_ps(&self, env: Environment, tech: &Technology) -> Vec<f64> {
        (0..self.len())
            .map(|i| self.stage(i).ddiff(env, tech))
            .collect()
    }

    /// Oscillation frequency (MHz) of the configured ring as read by
    /// `counter`.
    ///
    /// # Errors
    ///
    /// Returns [`RingError::DoesNotOscillate`] if `config` selects an
    /// even number of inverters.
    ///
    /// # Panics
    ///
    /// Panics if `config.len() != self.len()`.
    pub fn frequency_mhz<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        counter: &FrequencyCounter,
        config: &ConfigVector,
        env: Environment,
        tech: &Technology,
    ) -> Result<f64, RingError> {
        if !config.oscillates() {
            return Err(RingError::DoesNotOscillate {
                selected: config.selected_count(),
            });
        }
        let delay = self.ring_delay_ps(config, env, tech);
        Ok(counter.measure_mhz(rng, delay))
    }
}

/// A top/bottom pair of configurable rings — the unit that produces one
/// PUF bit.
#[derive(Debug, Clone, PartialEq)]
pub struct RoPair<'a> {
    top: ConfigurableRo<'a>,
    bottom: ConfigurableRo<'a>,
}

impl<'a> RoPair<'a> {
    /// Pairs two rings.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Selection`] if the rings have different stage
    /// counts (the paper's architecture deploys identically sized
    /// rings).
    pub fn try_new(top: ConfigurableRo<'a>, bottom: ConfigurableRo<'a>) -> Result<Self, Error> {
        if top.len() != bottom.len() {
            return Err(Error::Selection(format!(
                "paired rings must have equal stage counts, got {} and {}",
                top.len(),
                bottom.len()
            )));
        }
        Ok(Self { top, bottom })
    }

    /// Splits a contiguous range of `2n` units into a top ring (first
    /// half) and bottom ring (second half).
    ///
    /// # Panics
    ///
    /// Panics if the range length is odd, empty, or out of bounds.
    pub fn split_range(board: &'a Board, range: Range<usize>) -> Self {
        let len = range.end.saturating_sub(range.start);
        assert!(
            len > 0 && len.is_multiple_of(2),
            "range must contain an even, nonzero number of units"
        );
        let mid = range.start + len / 2;
        Self::try_new(
            ConfigurableRo::from_range(board, range.start..mid),
            ConfigurableRo::from_range(board, mid..range.end),
        )
        .expect("halved ranges are equal-length by construction")
    }

    /// The top ring.
    pub fn top(&self) -> &ConfigurableRo<'a> {
        &self.top
    }

    /// The bottom ring.
    pub fn bottom(&self) -> &ConfigurableRo<'a> {
        &self.bottom
    }

    /// Stages per ring.
    pub fn stages(&self) -> usize {
        self.top.len()
    }

    /// Signed configured delay difference `top − bottom` (ps), the
    /// quantity whose sign is the PUF bit.
    ///
    /// # Panics
    ///
    /// Panics if either configuration length mismatches its ring.
    pub fn delay_difference_ps(
        &self,
        top_config: &ConfigVector,
        bottom_config: &ConfigVector,
        env: Environment,
        tech: &Technology,
    ) -> f64 {
        self.top.ring_delay_ps(top_config, env, tech)
            - self.bottom.ring_delay_ps(bottom_config, env, tech)
    }
}

/// Errors from ring measurements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingError {
    /// The configuration selects an even number of inverters, so the ring
    /// is combinationally stable and produces no frequency.
    DoesNotOscillate {
        /// Number of inverters the offending configuration selects.
        selected: usize,
    },
}

impl std::fmt::Display for RingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RingError::DoesNotOscillate { selected } => write!(
                f,
                "ring with {selected} selected inverters does not oscillate (even count)"
            ),
        }
    }
}

impl std::error::Error for RingError {}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ropuf_silicon::board::BoardId;
    use ropuf_silicon::SiliconSim;

    fn board() -> (Board, Technology) {
        let sim = SiliconSim::default_spartan();
        let mut rng = StdRng::seed_from_u64(99);
        (
            sim.grow_board_with_id(&mut rng, BoardId(0), 20, 5),
            *sim.technology(),
        )
    }

    #[test]
    fn ring_delay_sums_stage_paths() {
        let (board, tech) = board();
        let ro = ConfigurableRo::from_range(&board, 0..5);
        let env = Environment::nominal();
        let config = ConfigVector::from_flags(&[true, false, true, false, true]);
        let expect: f64 = (0..5)
            .map(|i| {
                board
                    .unit(i)
                    .unwrap()
                    .path_delay(config.is_selected(i), env, &tech)
            })
            .sum();
        assert!((ro.ring_delay_ps(&config, env, &tech) - expect).abs() < 1e-12);
    }

    #[test]
    fn bypass_delay_is_all_zero_config() {
        let (board, tech) = board();
        let ro = ConfigurableRo::from_range(&board, 5..10);
        let env = Environment::nominal();
        let zero = ConfigVector::from_flags(&[false; 5]);
        assert!(
            (ro.bypass_delay_ps(env, &tech) - ro.ring_delay_ps(&zero, env, &tech)).abs() < 1e-12
        );
    }

    #[test]
    fn more_selected_stages_slow_the_ring() {
        let (board, tech) = board();
        let ro = ConfigurableRo::from_range(&board, 0..5);
        let env = Environment::nominal();
        let mut prev = 0.0;
        for k in 0..=5 {
            let flags: Vec<bool> = (0..5).map(|i| i < k).collect();
            let d = ro.ring_delay_ps(&ConfigVector::from_flags(&flags), env, &tech);
            assert!(d > prev, "k={k}");
            prev = d;
        }
    }

    #[test]
    fn frequency_requires_odd_selection() {
        let (board, tech) = board();
        let ro = ConfigurableRo::from_range(&board, 0..5);
        let mut rng = StdRng::seed_from_u64(0);
        let counter = FrequencyCounter::ideal();
        let even = ConfigVector::from_selected(5, &[0, 1]);
        let err = ro
            .frequency_mhz(&mut rng, &counter, &even, Environment::nominal(), &tech)
            .unwrap_err();
        assert_eq!(err, RingError::DoesNotOscillate { selected: 2 });
        assert!(err.to_string().contains("does not oscillate"));

        let odd = ConfigVector::from_selected(5, &[0, 1, 2]);
        let f = ro
            .frequency_mhz(&mut rng, &counter, &odd, Environment::nominal(), &tech)
            .unwrap();
        assert!(f > 0.0);
    }

    #[test]
    fn frequency_matches_delay() {
        let (board, tech) = board();
        let ro = ConfigurableRo::from_range(&board, 0..5);
        let mut rng = StdRng::seed_from_u64(0);
        let counter = FrequencyCounter::ideal();
        let config = ConfigVector::all_selected(5);
        let env = Environment::nominal();
        let f = ro
            .frequency_mhz(&mut rng, &counter, &config, env, &tech)
            .unwrap();
        let expect = 1e6 / (2.0 * ro.ring_delay_ps(&config, env, &tech));
        assert!((f - expect).abs() / expect < 1e-3, "{f} vs {expect}");
    }

    #[test]
    fn true_ddiffs_match_units() {
        let (board, tech) = board();
        let ro = ConfigurableRo::try_new(&board, vec![3, 1, 4]).unwrap();
        let env = Environment::nominal();
        let dd = ro.true_ddiffs_ps(env, &tech);
        assert_eq!(dd.len(), 3);
        assert!((dd[0] - board.unit(3).unwrap().ddiff(env, &tech)).abs() < 1e-12);
        assert!((dd[1] - board.unit(1).unwrap().ddiff(env, &tech)).abs() < 1e-12);
    }

    #[test]
    fn split_range_halves() {
        let (board, _) = board();
        let pair = RoPair::split_range(&board, 4..14);
        assert_eq!(pair.stages(), 5);
        assert_eq!(pair.top().stage_indices(), &[4, 5, 6, 7, 8]);
        assert_eq!(pair.bottom().stage_indices(), &[9, 10, 11, 12, 13]);
    }

    #[test]
    fn delay_difference_is_antisymmetric_in_configs() {
        let (board, tech) = board();
        let pair = RoPair::split_range(&board, 0..10);
        let env = Environment::nominal();
        let c = ConfigVector::from_selected(5, &[0, 2, 4]);
        let d1 = pair.delay_difference_ps(&c, &c, env, &tech);
        let swapped = RoPair::try_new(pair.bottom().clone(), pair.top().clone()).unwrap();
        let d2 = swapped.delay_difference_ps(&c, &c, env, &tech);
        assert!((d1 + d2).abs() < 1e-12);
    }

    #[test]
    fn arena_column_matches_ring_walk_bit_for_bit() {
        let (board, tech) = board();
        let ro = ConfigurableRo::try_new(&board, vec![2, 7, 0, 5, 9]).unwrap();
        for env in [Environment::nominal(), Environment::new(0.98, 65.0)] {
            // A 7-stage block: the 5-stage ring sits in it zero-padded.
            let mut arena = MeasureArena::new();
            arena.begin_block(1, 7);
            ro.stage_delays_into(env, &tech, &mut arena, 0);
            let sweep = arena.sweep();
            let delays = sweep.ring(0, 5);
            let all = ConfigVector::all_selected(5);
            let none = ConfigVector::from_flags(&[false; 5]);
            assert_eq!(
                delays.all_selected_ps().to_bits(),
                ro.ring_delay_ps(&all, env, &tech).to_bits()
            );
            assert_eq!(
                delays.all_bypassed_ps().to_bits(),
                ro.ring_delay_ps(&none, env, &tech).to_bits()
            );
            for skip in 0..5 {
                let config = ConfigVector::all_but(5, skip);
                assert_eq!(
                    delays.all_but_ps(skip).to_bits(),
                    ro.ring_delay_ps(&config, env, &tech).to_bits(),
                    "skip={skip}"
                );
            }
        }
    }

    #[test]
    fn try_new_reports_layout_errors() {
        let (board, _) = board();
        assert!(matches!(
            ConfigurableRo::try_new(&board, vec![]),
            Err(Error::Selection(_))
        ));
        let err = ConfigurableRo::try_new(&board, vec![0, 0]).unwrap_err();
        assert!(err.to_string().contains("appears twice"));
        let err = ConfigurableRo::try_new(&board, vec![999]).unwrap_err();
        assert!(err.to_string().contains("out of range"));
        let top = ConfigurableRo::from_range(&board, 0..3);
        let bottom = ConfigurableRo::from_range(&board, 3..7);
        let err = RoPair::try_new(top, bottom).unwrap_err();
        assert!(err.to_string().contains("equal stage counts"));
    }

    #[test]
    fn borrowed_rings_check_and_read_like_owned_ones() {
        let (board, tech) = board();
        // The first fault in ring order is reported, ascending or not.
        for (stages, fault) in [
            (vec![], "at least one stage"),
            (vec![3, 999], "index 999 out of range"),
            (vec![2, 0, 2], "index 2 appears twice"),
            (vec![5, 999, 5], "index 999 out of range"),
            (vec![4, 1, 4, 999], "index 4 appears twice"),
        ] {
            let borrowed = ConfigurableRo::try_borrowed(&board, &stages).unwrap_err();
            let owned = ConfigurableRo::try_new(&board, stages.clone()).unwrap_err();
            assert!(
                borrowed.to_string().contains(fault),
                "{stages:?}: {borrowed}"
            );
            assert_eq!(borrowed.to_string(), owned.to_string());
        }
        let stages = [6, 0, 3];
        let borrowed = ConfigurableRo::try_borrowed(&board, &stages).unwrap();
        let owned = ConfigurableRo::try_new(&board, stages.to_vec()).unwrap();
        assert_eq!(borrowed, owned);
        let config = ConfigVector::from_selected(3, &[0, 2]);
        let env = Environment::nominal();
        assert_eq!(
            borrowed.ring_delay_ps(&config, env, &tech).to_bits(),
            owned.ring_delay_ps(&config, env, &tech).to_bits()
        );
    }

    #[test]
    #[should_panic(expected = "even, nonzero")]
    fn odd_split_panics() {
        let (board, _) = board();
        let _ = RoPair::split_range(&board, 0..5);
    }
}
