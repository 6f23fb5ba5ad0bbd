//! Case-2: independent configurations with equal selected counts.
//!
//! For a fixed count `k`, the delay difference `Σ α x − Σ β y` is
//! maximized by taking the `k` slowest stages of the top ring and the `k`
//! fastest of the bottom ring (and symmetrically for the opposite
//! orientation). Sorting both delay vectors therefore reduces the problem
//! to choosing the best prefix length: exactly the paper's "pair the i-th
//! slowest with the i-th fastest and accumulate while the discrepancy
//! keeps its sign" procedure. Both orientations are evaluated and the
//! larger magnitude wins.
//!
//! [`case2_with_offset`] extends the objective to
//! `|offset + Σ α x − Σ β y|` for the configuration-independent bypass
//! delay offset of real hardware.

use ropuf_telemetry as telemetry;

use crate::config::{ConfigVector, ParityPolicy};
use crate::select::{validate_inputs, PairSelection};

/// Solves the Case-2 inverter selection problem.
///
/// Returns independent top/bottom configurations with equal selected
/// counts, the achieved margin, and the enrolled bit (`true` = top
/// slower).
///
/// # Panics
///
/// Panics if the inputs are empty, of different lengths, or non-finite.
///
/// # Examples
///
/// ```
/// use ropuf_core::select::case2;
/// use ropuf_core::config::ParityPolicy;
///
/// let top =    [10.0, 12.0, 11.0];
/// let bottom = [11.5, 10.5, 9.0];
/// let s = case2(&top, &bottom, ParityPolicy::Ignore);
/// assert_eq!(s.top().selected_count(), s.bottom().selected_count());
/// // Slowest-top {12, 11} against fastest-bottom {9, 10.5}:
/// // margin = (12+11) − (9+10.5) = 3.5.
/// assert!((s.margin() - 3.5).abs() < 1e-12);
/// assert!(s.bit());
/// ```
pub fn case2(alpha: &[f64], beta: &[f64], parity: ParityPolicy) -> PairSelection {
    case2_with_offset(alpha, beta, 0.0, parity)
}

/// Case-2 selection maximizing `|offset_ps + Σ α_i x_i − Σ β_i y_i|`
/// subject to `Σ x = Σ y`.
///
/// # Panics
///
/// Panics if the inputs are invalid (see [`case2`]) or `offset_ps` is not
/// finite.
pub fn case2_with_offset(
    alpha: &[f64],
    beta: &[f64],
    offset_ps: f64,
    parity: ParityPolicy,
) -> PairSelection {
    validate_inputs(alpha, beta);
    assert!(
        offset_ps.is_finite(),
        "offset must be finite, got {offset_ps}"
    );
    let n = alpha.len();
    let mut orders = StageOrders::new(n);
    orders.sort(alpha, beta);

    // Orientation A maximizes the signed difference D = offset + Σαx − Σβy:
    // slowest-k of α against fastest-k of β.
    let (k_max, d_max) = orders.best_prefix(Orientation::Forward, alpha, beta, offset_ps, parity);
    // Orientation B minimizes D: fastest-k of α against slowest-k of β,
    // equivalently maximizes −D = −offset + Σβy' − Σαx'.
    let (k_min, neg_d_min) =
        orders.best_prefix(Orientation::Reverse, alpha, beta, offset_ps, parity);
    let d_min = -neg_d_min;

    let (orientation, k, d) = if d_max.abs() >= d_min.abs() {
        telemetry::counter("select.case2.forward_wins", 1);
        (Orientation::Forward, k_max, d_max)
    } else {
        telemetry::counter("select.case2.reverse_wins", 1);
        (Orientation::Reverse, k_min, d_min)
    };
    let (top, bottom) = orders.picks(orientation, k);
    let selection = PairSelection::new(
        ConfigVector::from_selected(n, top),
        ConfigVector::from_selected(n, bottom),
        d.abs(),
        // Strict: an exact tie (D == 0) has no slower ring; the
        // conventional `false` is flagged via `is_degenerate`.
        d > 0.0,
    );
    if selection.is_degenerate() {
        telemetry::counter("select.case2.degenerate", 1);
        // A degenerate pair (margin exactly 0) has no slower ring, and
        // the strict `d > 0.0` comparison resolves every such tie to
        // the conventional 0 bit. That bias is unavoidable, but it is a
        // distinguisher an attacker can exploit on fleets with many
        // ties — count the zero-resolutions so the attack suite (and
        // operators) can see exactly how many bits were conventional
        // rather than silicon-derived.
        if !selection.bit() {
            telemetry::counter("select.case2.degenerate_zero_bias", 1);
        }
    }
    selection
}

/// Which way round a §III.D prefix selection runs: `Forward` takes the
/// slowest stages of the top ring against the fastest of the bottom
/// ring (maximizing `D`), `Reverse` the fastest of the top against the
/// slowest of the bottom (maximizing `−D`).
#[derive(Clone, Copy)]
pub(super) enum Orientation {
    Forward,
    Reverse,
}

/// The four stage orders the sorted-prefix construction reads at one
/// operating point: `α` descending, `α` ascending, `β` descending and
/// `β` ascending, each by value (`total_cmp`) and then by stage index.
///
/// The values read along an order are exactly the value-sorted delays,
/// bit for bit (`total_cmp`-equal floats are bitwise equal), so prefix
/// sums along the orders are the sums of the sorted delays, and the
/// first `k` entries of an order are the `k` slowest or fastest stages
/// with ties going to the lower index.
pub(super) struct StageOrders {
    /// `[α desc | α asc | β desc | β asc]`, `n` stage indices each.
    order: Vec<usize>,
    n: usize,
}

const ALPHA_DESC: usize = 0;
const ALPHA_ASC: usize = 1;
const BETA_DESC: usize = 2;
const BETA_ASC: usize = 3;

impl StageOrders {
    pub(super) fn new(n: usize) -> Self {
        let mut order = Vec::with_capacity(4 * n);
        for _ in 0..4 {
            order.extend(0..n);
        }
        Self { order, n }
    }

    /// Re-sorts the four orders for `alpha`/`beta`. Each descending
    /// order is insertion-sorted starting from its previous permutation,
    /// which is nearly sorted when consecutive corners rank their stages
    /// alike; the index tie-break makes the order strict and total, so
    /// the result is independent of the sort and its starting point.
    /// Each ascending order is its descending order reversed, with every
    /// run of equal values turned back to ascending index.
    pub(super) fn sort(&mut self, alpha: &[f64], beta: &[f64]) {
        let n = self.n;
        for (pair, v) in self.order.chunks_exact_mut(2 * n).zip([alpha, beta]) {
            let (desc, asc) = pair.split_at_mut(n);
            // Stage `i` goes before stage `j`: slower, or as slow and
            // lower-indexed.
            let before = |i: usize, j: usize| v[j].total_cmp(&v[i]).then(i.cmp(&j)).is_lt();
            for end in 1..n {
                let stage = desc[end];
                let mut at = end;
                while at > 0 && before(stage, desc[at - 1]) {
                    desc[at] = desc[at - 1];
                    at -= 1;
                }
                desc[at] = stage;
            }
            for (a, &d) in asc.iter_mut().zip(desc.iter().rev()) {
                *a = d;
            }
            let mut run = 0;
            for end in 1..=n {
                if end == n || v[asc[end]].to_bits() != v[asc[run]].to_bits() {
                    asc[run..end].reverse();
                    run = end;
                }
            }
        }
    }

    fn quarter(&self, q: usize) -> &[usize] {
        &self.order[q * self.n..(q + 1) * self.n]
    }

    /// The top-ring and bottom-ring stages of the `k`-prefix selection
    /// in `orientation`, in order position (not index) order.
    pub(super) fn picks(&self, orientation: Orientation, k: usize) -> (&[usize], &[usize]) {
        match orientation {
            Orientation::Forward => (&self.quarter(ALPHA_DESC)[..k], &self.quarter(BETA_ASC)[..k]),
            Orientation::Reverse => (&self.quarter(ALPHA_ASC)[..k], &self.quarter(BETA_DESC)[..k]),
        }
    }

    /// Best admissible prefix length `k` in `orientation` and its value:
    /// `D = offset + Σ_{i<k}(α_slow[i] − β_fast[i])` for `Forward`, and
    /// `−D = −offset + Σ_{i<k}(β_slow[i] − α_fast[i])` for `Reverse`.
    /// Under `ParityPolicy::Ignore` the scan includes `k = 0` (value
    /// `±offset`); under `ForceOdd` only odd `k` qualify. The first
    /// strict maximum wins.
    pub(super) fn best_prefix(
        &self,
        orientation: Orientation,
        alpha: &[f64],
        beta: &[f64],
        offset: f64,
        parity: ParityPolicy,
    ) -> (usize, f64) {
        let (slow, slow_order, fast, fast_order, offset) = match orientation {
            Orientation::Forward => (
                alpha,
                self.quarter(ALPHA_DESC),
                beta,
                self.quarter(BETA_ASC),
                offset,
            ),
            Orientation::Reverse => (
                beta,
                self.quarter(BETA_DESC),
                alpha,
                self.quarter(ALPHA_ASC),
                -offset,
            ),
        };
        let mut best: Option<(usize, f64)> = match parity {
            ParityPolicy::Ignore => Some((0, offset)),
            ParityPolicy::ForceOdd => None,
        };
        let mut acc = offset;
        for (k, (&s, &f)) in (1..).zip(slow_order.iter().zip(fast_order)) {
            acc += slow[s] - fast[f];
            if parity.admits(k) && best.is_none_or(|(_, m)| acc > m) {
                best = Some((k, acc));
            }
        }
        best.expect("at least one admissible k exists for n >= 1")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn signed_diff(alpha: &[f64], beta: &[f64], offset: f64, sel: &PairSelection) -> f64 {
        let top: f64 = sel.top().selected_indices().iter().map(|&i| alpha[i]).sum();
        let bottom: f64 = sel
            .bottom()
            .selected_indices()
            .iter()
            .map(|&i| beta[i])
            .sum();
        offset + top - bottom
    }

    #[test]
    fn reported_margin_matches_configs() {
        let alpha = [10.0, 12.5, 11.0, 9.0];
        let beta = [11.0, 10.0, 12.0, 10.5];
        let s = case2(&alpha, &beta, ParityPolicy::Ignore);
        assert!((s.margin() - signed_diff(&alpha, &beta, 0.0, &s).abs()).abs() < 1e-12);
    }

    #[test]
    fn equal_counts_enforced() {
        let alpha = [10.0, 12.5, 11.0, 9.0, 10.3];
        let beta = [11.0, 10.0, 12.0, 10.5, 9.9];
        for parity in [ParityPolicy::Ignore, ParityPolicy::ForceOdd] {
            let s = case2(&alpha, &beta, parity);
            assert_eq!(s.top().selected_count(), s.bottom().selected_count());
        }
    }

    #[test]
    fn orientation_flip_swaps_bit() {
        let alpha = [13.0, 11.0, 10.0];
        let beta = [10.0, 9.5, 10.2];
        let ab = case2(&alpha, &beta, ParityPolicy::Ignore);
        let ba = case2(&beta, &alpha, ParityPolicy::Ignore);
        assert!((ab.margin() - ba.margin()).abs() < 1e-12);
        assert_ne!(ab.bit(), ba.bit());
    }

    #[test]
    fn case2_beats_or_matches_case1() {
        use crate::select::case1;
        let alpha = [10.0, 12.5, 11.0, 9.0, 10.3, 11.7];
        let beta = [11.0, 10.0, 12.0, 10.5, 9.9, 10.8];
        let c1 = case1(&alpha, &beta, ParityPolicy::Ignore);
        let c2 = case2(&alpha, &beta, ParityPolicy::Ignore);
        assert!(c2.margin() >= c1.margin() - 1e-12);
    }

    #[test]
    fn identical_rings_still_find_margin() {
        let d = [10.0, 11.0, 12.0];
        let s = case2(&d, &d, ParityPolicy::Ignore);
        // Slowest of top (12) vs fastest of bottom (10): margin 2.
        assert!((s.margin() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn constant_rings_zero_margin() {
        let d = [10.0, 10.0, 10.0];
        let s = case2(&d, &d, ParityPolicy::Ignore);
        assert_eq!(s.margin(), 0.0);
        assert_eq!(s.top().selected_count(), 0);
    }

    #[test]
    fn zero_margin_pairs_are_flagged_degenerate() {
        // Regression: `d_max > 0.0` makes bit() always false when the
        // achieved margin is exactly 0 (constant rings), silently
        // biasing degenerate pairs toward 0. The bias is unavoidable —
        // there is no slower ring — but it must be *visible*.
        let d = [10.0, 10.0, 10.0];
        for parity in [ParityPolicy::Ignore, ParityPolicy::ForceOdd] {
            let s = case2(&d, &d, parity);
            assert_eq!(s.margin(), 0.0);
            assert!(!s.bit(), "tie resolves to the conventional 0 bit");
            assert!(s.is_degenerate(), "callers must be able to see the tie");
        }
        // A genuine margin is not degenerate, however small.
        let s = case2(&[10.0, 10.0], &[10.0, 10.000001], ParityPolicy::Ignore);
        assert!(!s.is_degenerate());
        assert!(s.margin() > 0.0);
    }

    /// Every degenerate tie resolves to the conventional 0, and that
    /// resolution must be observable: the
    /// `select.case2.degenerate_zero_bias` counter counts exactly the
    /// degenerate selections whose bit came from convention, not
    /// silicon. A non-degenerate selection must not bump it.
    #[test]
    fn degenerate_zero_bias_is_counted() {
        use std::sync::Arc;
        let sink = Arc::new(ropuf_telemetry::MemorySink::default());
        ropuf_telemetry::scoped(sink.clone(), || {
            let d = [10.0, 10.0, 10.0];
            let _ = case2(&d, &d, ParityPolicy::Ignore); // tie → 0 bit
            let _ = case2(&d, &d, ParityPolicy::ForceOdd); // tie → 0 bit
            let _ = case2(&[10.0, 12.0], &[11.0, 9.0], ParityPolicy::Ignore);
        });
        let snap = sink.snapshot().expect("counters recorded");
        assert_eq!(snap.counter("select.case2.degenerate"), Some(2));
        assert_eq!(snap.counter("select.case2.degenerate_zero_bias"), Some(2));
    }

    #[test]
    fn forced_parity_degenerate_pairs_are_flagged() {
        // ForceOdd on constant rings selects one stage per ring and
        // still ties exactly — degenerate even with a non-empty config.
        let d = [10.0, 10.0];
        let s = case2(&d, &d, ParityPolicy::ForceOdd);
        assert_eq!(s.top().selected_count(), 1);
        assert!(s.is_degenerate());
        assert!(!s.bit());
        // A nonzero bypass offset breaks the tie: margin |offset| > 0.
        let s = case2_with_offset(&d, &d, 4.0, ParityPolicy::Ignore);
        assert!(!s.is_degenerate());
    }

    #[test]
    fn force_odd_yields_odd_counts() {
        let alpha = [10.0, 12.5, 11.0, 9.0];
        let beta = [11.0, 10.0, 12.0, 10.5];
        let s = case2(&alpha, &beta, ParityPolicy::ForceOdd);
        assert_eq!(s.top().selected_count() % 2, 1);
        assert_eq!(s.bottom().selected_count() % 2, 1);
    }

    #[test]
    fn force_odd_constant_rings_pick_one_stage() {
        let d = [10.0, 10.0];
        let s = case2(&d, &d, ParityPolicy::ForceOdd);
        assert_eq!(s.top().selected_count(), 1);
        assert_eq!(s.margin(), 0.0);
    }

    #[test]
    fn hand_worked_example() {
        // α sorted desc: [12, 11, 10]; β sorted asc: [9, 10.5, 11.5].
        // increments: 3, 0.5, -1.5 → best k=2, margin 3.5, top slower.
        let alpha = [10.0, 12.0, 11.0];
        let beta = [11.5, 10.5, 9.0];
        let s = case2(&alpha, &beta, ParityPolicy::Ignore);
        assert_eq!(s.top().selected_indices(), vec![1, 2]);
        assert_eq!(s.bottom().selected_indices(), vec![1, 2]);
        assert!((s.margin() - 3.5).abs() < 1e-12);
        assert!(s.bit());
    }

    #[test]
    fn offset_is_added_to_margin() {
        let alpha = [10.0, 12.0, 11.0];
        let beta = [11.5, 10.5, 9.0];
        // Base optimum is +3.5 (top slower); an offset of +2 rides along.
        let s = case2_with_offset(&alpha, &beta, 2.0, ParityPolicy::Ignore);
        assert!((s.margin() - 5.5).abs() < 1e-12);
        assert!(s.bit());
        // An offset of −10 flips the preferred orientation.
        let s = case2_with_offset(&alpha, &beta, -10.0, ParityPolicy::Ignore);
        assert!(!s.bit());
        assert!((signed_diff(&alpha, &beta, -10.0, &s) + s.margin()).abs() < 1e-12);
    }

    #[test]
    fn offset_only_margin_with_empty_selection() {
        let d = [10.0, 10.0];
        let s = case2_with_offset(&d, &d, 4.0, ParityPolicy::Ignore);
        assert_eq!(s.top().selected_count(), 0);
        assert!((s.margin() - 4.0).abs() < 1e-12);
        assert!(s.bit());
    }

    #[test]
    fn combined_config_is_concatenation() {
        let alpha = [10.0, 12.0];
        let beta = [11.0, 9.0];
        let s = case2(&alpha, &beta, ParityPolicy::Ignore);
        let combined = s.combined_config();
        assert_eq!(combined.len(), 4);
        assert_eq!(combined.to_string(), format!("{}{}", s.top(), s.bottom()));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_inputs_panic() {
        let _ = case2(&[], &[], ParityPolicy::Ignore);
    }

    /// `StageOrders::sort` as it stood before the insertion sort, kept
    /// verbatim as the reference it must match: `order` holds the four
    /// `n`-entry orders and is sorted from its current permutation.
    fn sort_by_replaced_construction(order: &mut [usize], n: usize, alpha: &[f64], beta: &[f64]) {
        for (pair, v) in order.chunks_exact_mut(2 * n).zip([alpha, beta]) {
            let (desc, asc) = pair.split_at_mut(n);
            desc.sort_unstable_by(|&i, &j| v[j].total_cmp(&v[i]).then(i.cmp(&j)));
            for (a, &d) in asc.iter_mut().zip(desc.iter().rev()) {
                *a = d;
            }
            let mut run = 0;
            for end in 1..=n {
                if end == n || v[asc[end]].to_bits() != v[asc[run]].to_bits() {
                    asc[run..end].reverse();
                    run = end;
                }
            }
        }
    }

    proptest! {
        /// The insertion sort returns the four orders the replaced
        /// `sort_unstable_by` construction returned, index for index:
        /// on a small value grid (so most stages tie, `-0.0` and `+0.0`
        /// among them), sorted fresh and then warm-started for a second
        /// corner as `case2_multi_corner` re-sorts.
        #[test]
        fn stage_orders_match_the_replaced_sort_bit_for_bit(
            n in 1usize..=16,
            values in proptest::collection::vec(
                proptest::sample::select(vec![-0.0, 0.0, -1.0, 1.0, 2.5, 100.0, 100.0 + 1e-13]),
                64,
            ),
        ) {
            let mut orders = StageOrders::new(n);
            let mut oracle: Vec<usize> = (0..4).flat_map(|_| 0..n).collect();
            for corner in values.chunks_exact(32) {
                let (alpha, beta) = (&corner[..n], &corner[16..16 + n]);
                orders.sort(alpha, beta);
                sort_by_replaced_construction(&mut oracle, n, alpha, beta);
                prop_assert_eq!(&orders.order, &oracle);
            }
        }
    }
}
