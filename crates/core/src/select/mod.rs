//! §III.D — the inverter selection problem.
//!
//! Given per-stage delays `α` (top ring) and `β` (bottom ring), choose
//! configuration vectors maximizing the delay difference between the two
//! configured rings:
//!
//! * [`case1`] — both rings share one configuration vector,
//! * [`case2`] — independent vectors constrained to equal selected
//!   counts (the paper's security argument: unequal counts would leak
//!   which ring is likely faster),
//! * `brute` — exhaustive oracles used by the test suite to prove both
//!   algorithms optimal,
//! * [`case1_multi_corner`] / [`case2_multi_corner`] — the same two
//!   problems under the min-margin-across-corners objective: maximize
//!   the margin at the *worst* V/T corner of a [`CornerDelays`] set
//!   (single-corner inputs reduce exactly to the solvers above).
//!
//! Both solvers accept a [`ParityPolicy`](crate::config::ParityPolicy);
//! `ForceOdd` restricts to
//! selections that oscillate as rings.

mod brute;
mod case1;
mod case2;
mod multi_corner;

pub use brute::{brute_force_case1, brute_force_case2};
pub use case1::{case1, case1_with_offset};
pub use case2::{case2, case2_with_offset};
pub(crate) use case2::{case2_with_offset_in, SelectScratch};
pub(crate) use multi_corner::case2_multi_corner_in;
pub use multi_corner::{case1_multi_corner, case2_multi_corner, CornerDelays};

use crate::config::ConfigVector;

/// Result of a Case-1 (shared-configuration) selection.
#[derive(Debug, Clone, PartialEq)]
pub struct Selection {
    config: ConfigVector,
    margin: f64,
    top_is_slower: bool,
}

impl Selection {
    pub(crate) fn new(config: ConfigVector, margin: f64, top_is_slower: bool) -> Self {
        debug_assert!(margin >= 0.0, "selection margin must be non-negative");
        Self {
            config,
            margin,
            top_is_slower,
        }
    }

    /// The shared configuration vector applied to both rings.
    pub fn config(&self) -> &ConfigVector {
        &self.config
    }

    /// Moves the shared configuration out.
    pub(crate) fn into_config(self) -> ConfigVector {
        self.config
    }

    /// The achieved delay-difference magnitude `|Σ Δd_i x_i|` — the
    /// reliability margin of the PUF bit.
    pub fn margin(&self) -> f64 {
        self.margin
    }

    /// The enrolled PUF bit: `true` when the configured top ring is
    /// slower than the bottom ring.
    ///
    /// When the selection is [degenerate](Self::is_degenerate) the two
    /// rings tie exactly and this returns the conventional `false` —
    /// check `is_degenerate()` before treating the bit as entropy.
    pub fn bit(&self) -> bool {
        self.top_is_slower
    }

    /// Whether the achieved margin is exactly zero: the configured
    /// rings tie, so [`bit`](Self::bit) is a convention (always
    /// `false`), not a silicon signature. Reliability metrics and
    /// fleet statistics should exclude or down-weight such pairs.
    pub fn is_degenerate(&self) -> bool {
        self.margin == 0.0
    }
}

/// Result of a Case-2 (independent-configuration) selection.
#[derive(Debug, Clone, PartialEq)]
pub struct PairSelection {
    top: ConfigVector,
    bottom: ConfigVector,
    margin: f64,
    top_is_slower: bool,
}

impl PairSelection {
    pub(crate) fn new(
        top: ConfigVector,
        bottom: ConfigVector,
        margin: f64,
        top_is_slower: bool,
    ) -> Self {
        debug_assert!(margin >= 0.0, "selection margin must be non-negative");
        debug_assert_eq!(
            top.selected_count(),
            bottom.selected_count(),
            "case-2 selections must use equal counts"
        );
        Self {
            top,
            bottom,
            margin,
            top_is_slower,
        }
    }

    /// Configuration vector of the top ring.
    pub fn top(&self) -> &ConfigVector {
        &self.top
    }

    /// Configuration vector of the bottom ring.
    pub fn bottom(&self) -> &ConfigVector {
        &self.bottom
    }

    /// Moves the top and bottom configurations out.
    pub(crate) fn into_configs(self) -> (ConfigVector, ConfigVector) {
        (self.top, self.bottom)
    }

    /// The achieved delay-difference magnitude.
    pub fn margin(&self) -> f64 {
        self.margin
    }

    /// The enrolled PUF bit: `true` when the configured top ring is
    /// slower than the bottom ring.
    ///
    /// When the selection is [degenerate](Self::is_degenerate) the two
    /// rings tie exactly (`D = 0`, e.g. constant rings) and the strict
    /// `D > 0` comparison resolves to `false` by convention — without
    /// [`is_degenerate`](Self::is_degenerate) such pairs silently
    /// biased downstream statistics toward 0.
    pub fn bit(&self) -> bool {
        self.top_is_slower
    }

    /// Whether the achieved margin is exactly zero: the optimal
    /// configurations tie, so [`bit`](Self::bit) carries no silicon
    /// signature. Callers computing reliability or uniqueness figures
    /// should exclude or down-weight degenerate pairs instead of
    /// counting their conventional 0 bits as entropy.
    pub fn is_degenerate(&self) -> bool {
        self.margin == 0.0
    }

    /// The 2n-bit combined `top ‖ bottom` vector used by the paper's
    /// Table IV configuration-uniqueness analysis.
    pub fn combined_config(&self) -> ConfigVector {
        self.top.concat(&self.bottom)
    }
}

/// Validates the delay-vector inputs shared by every solver.
///
/// # Panics
///
/// Panics if the slices are empty, of different lengths, or contain
/// non-finite values.
pub(crate) fn validate_inputs(alpha: &[f64], beta: &[f64]) {
    assert!(!alpha.is_empty(), "delay vectors must be non-empty");
    assert_eq!(
        alpha.len(),
        beta.len(),
        "top and bottom rings must have the same number of stages"
    );
    for (name, v) in [("alpha", alpha), ("beta", beta)] {
        assert!(
            v.iter().all(|x| x.is_finite()),
            "{name} contains a non-finite delay"
        );
    }
}
