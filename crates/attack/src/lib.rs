#![warn(missing_docs)]

//! Attack & security-analysis suite for the configurable RO PUF.
//!
//! The paper's §III security argument is structural: because Case-2
//! selection constrains both rings to *equal selected counts*, the
//! helper data a verifier persists (which inverters participate in each
//! ring) cannot leak the response bit through the one statistic a
//! passive attacker always gets for free — how many stages each ring
//! selected. Wilde et al., *Statistic-Based Security Analysis of Ring
//! Oscillator PUFs* (arXiv 1910.07068), show that RO PUFs routinely
//! leak through exactly such frequency statistics, so this crate stops
//! trusting the argument and verifies it empirically:
//!
//! * [`envelope`] — deterministic fleets of *enrollment envelopes*
//!   (the helper data an attacker can read), produced by the real
//!   guarded Case-2 kernel and by [`envelope::case2_unguarded`], a
//!   deliberately broken variant that skips the equal-count guard.
//! * [`count_leak`] — the unequal-selected-count attack: guess the bit
//!   from `sign(count_top − count_bottom)`. Against the guarded kernel
//!   it abstains on every envelope (counts are always equal) and sits
//!   at exactly the 0.5 coin-flip baseline; against the broken variant
//!   it wins almost every bit.
//! * [`gradient`] — spatial-gradient inference (motivated by the
//!   randomized-placement line, arXiv 2006.09290): an attacker who can
//!   measure part of a die fits the systematic degree-2 delay surface
//!   with [`ropuf_num::linalg`] and predicts *other* pairs' bits from
//!   their selected positions alone. Run with and without the
//!   [`ropuf_core::distill`] regression distiller in the enrollment
//!   pipeline — the distiller is the defense under test.
//! * [`transcript`] / [`model`] — CRP transcripts of a hypothetical
//!   *reconfigurable* deployment (the design the paper rejects in §II)
//!   and the modeling attacks that break it: the least-squares
//!   [`model::LinearDelayAttack`], a correlation/ordering attack and a
//!   logistic-regression harness (IRLS over
//!   [`ropuf_num::linalg::Matrix::weighted_least_squares_ridge`])
//!   generalizing it.
//! * [`suite`] — one deterministic run of every attack, reported as
//!   `attacker advantage` (accuracy − 0.5) per attack, plus the
//!   [`suite::SuiteReport::security_readings`] the
//!   `FleetObservatory` gauges and the `check-bench` gate consume.
//!
//! Everything is seeded through [`ropuf_core::fleet::split_seed`] and
//! fanned out with [`ropuf_core::fleet::parallel_map_indexed`], so
//! transcripts, envelopes, and every reported advantage are
//! bit-identical at any thread count.

pub mod count_leak;
pub mod envelope;
pub mod gradient;
pub mod model;
pub mod suite;
pub mod transcript;

/// Outcome of one attack: its accuracy against ground truth and the
/// advantage over the 0.5 coin-flip baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackOutcome {
    /// Stable attack identifier (also the JSON/report key).
    pub name: &'static str,
    /// Fraction of bits guessed correctly; abstentions score 0.5.
    pub accuracy: f64,
    /// `accuracy − 0.5`: 0 means the attack learned nothing.
    pub advantage: f64,
    /// Number of bits the attack was scored on.
    pub samples: usize,
}

impl AttackOutcome {
    /// Builds an outcome from a summed score (hits count 1, abstentions
    /// 0.5) over `samples` predictions.
    pub fn from_score(name: &'static str, score: f64, samples: usize) -> Self {
        let accuracy = if samples == 0 {
            0.5
        } else {
            score / samples as f64
        };
        Self {
            name,
            accuracy,
            advantage: accuracy - 0.5,
            samples,
        }
    }
}
