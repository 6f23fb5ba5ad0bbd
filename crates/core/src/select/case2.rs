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
//!
//! Both this solver and [`case2_multi_corner`](super::case2_multi_corner)
//! read one corner's delays through their sorted order keys and hold
//! every selection as a bit-word stage set; the enrollment kernel keeps
//! their working memory in one [`SelectScratch`] for a whole enrollment.

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
    case2_with_offset_in(
        alpha,
        beta,
        offset_ps,
        parity,
        &mut SelectScratch::default(),
    )
}

/// [`case2_with_offset`] on caller-owned working memory.
pub(crate) fn case2_with_offset_in(
    alpha: &[f64],
    beta: &[f64],
    offset_ps: f64,
    parity: ParityPolicy,
    scratch: &mut SelectScratch,
) -> PairSelection {
    validate_inputs(alpha, beta);
    assert!(
        offset_ps.is_finite(),
        "offset must be finite, got {offset_ps}"
    );
    let n = alpha.len();
    let SelectScratch { keys, sets, .. } = scratch;
    sort_keys(keys, alpha, beta);

    // The forward orientation maximizes the signed difference
    // D = offset + Σαx − Σβy: slowest-k of α against fastest-k of β.
    // The reverse one minimizes D: fastest-k of α against slowest-k of
    // β, equivalently maximizes −D = −offset + Σβy' − Σαx'.
    let prefixes = best_prefixes(keys, offset_ps, parity);
    let [(_, d_max), (_, neg_d_min)] = prefixes;
    let d_min = -neg_d_min;
    let words = stage_words(n);
    sets.clear();
    sets.resize(4 * words, 0);
    let (forward, reverse) = sets.split_at_mut(2 * words);
    prefix_sets(keys, prefixes.map(|(k, _)| k), forward, reverse);
    let (set, d) = if d_max.abs() >= d_min.abs() {
        telemetry::counter("select.case2.forward_wins", 1);
        (forward, d_max)
    } else {
        telemetry::counter("select.case2.reverse_wins", 1);
        (reverse, d_min)
    };
    let (top, bottom) = set.split_at(words);
    let selection = PairSelection::new(
        ConfigVector::from_stage_set(n, top),
        ConfigVector::from_stage_set(n, bottom),
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

/// Working memory of the Case-2 solvers, reused from call to call: one
/// corner's order keys, the stage sets of candidates and of the current
/// selection, and the swap table with the per-corner folds and bounds.
/// It carries nothing from one call to the next: every call sizes and
/// overwrites what it reads.
#[derive(Debug, Default)]
pub(crate) struct SelectScratch {
    /// One corner's `α` then `β` as `total_cmp` order keys, by stage,
    /// then the same keys with each ring ascending ([`sort_keys`]).
    pub(super) keys: Vec<i64>,
    /// Stage sets, `top ‖ bottom`, [`stage_words`] words per ring.
    pub(super) sets: Vec<u64>,
    /// The swap table, `[ring][stage][corner]`, then per-corner rows.
    pub(super) table: Vec<f64>,
}

/// Writes into `keys` the order keys of `alpha` then `beta`, by stage,
/// then the same keys with each ring ascending.
///
/// `total_cmp`-equal floats are bitwise equal, so the sorted values,
/// read either way, are the values along any stage order by value,
/// however it breaks ties. Both rings go through one odd–even
/// transposition network, whose compare-exchanges are branch-free.
pub(super) fn sort_keys(keys: &mut Vec<i64>, alpha: &[f64], beta: &[f64]) {
    let n = alpha.len();
    keys.clear();
    keys.reserve(4 * n);
    keys.extend(alpha.iter().chain(beta).map(|&x| order_key(x)));
    keys.extend_from_within(..);
    let (a, b) = keys[2 * n..].split_at_mut(n);
    for round in 0..n {
        let mut i = round & 1;
        while i + 1 < n {
            for ring in [&mut *a, &mut *b] {
                let (low, high) = (ring[i], ring[i + 1]);
                ring[i] = low.min(high);
                ring[i + 1] = low.max(high);
            }
            i += 2;
        }
    }
}

/// Best admissible prefix length `k` and its value in each orientation,
/// forward then reverse, over the [`sort_keys`] `keys`:
/// `D = offset + Σ_{i<k}(α_slow[i] − β_fast[i])` forward, and
/// `−D = −offset + Σ_{i<k}(β_slow[i] − α_fast[i])` reverse. Under
/// `ParityPolicy::Ignore` the scan includes `k = 0` (value `±offset`);
/// under `ForceOdd` only odd `k` qualify. The first strict maximum
/// wins. The two scans run side by side, each its own left fold.
pub(super) fn best_prefixes(keys: &[i64], offset: f64, parity: ParityPolicy) -> [(usize, f64); 2] {
    let n = keys.len() / 4;
    let (alpha, beta) = keys[2 * n..].split_at(n);
    let mut scans = [Scan::new(offset, parity), Scan::new(-offset, parity)];
    let forward = alpha.iter().rev().zip(beta);
    let reverse = beta.iter().rev().zip(alpha);
    for (k, ((&a_slow, &b_fast), (&b_slow, &a_fast))) in (1..).zip(forward.zip(reverse)) {
        let admitted = parity.admits(k);
        scans[0].step(k, admitted, key_value(a_slow) - key_value(b_fast));
        scans[1].step(k, admitted, key_value(b_slow) - key_value(a_fast));
    }
    scans.map(|scan| {
        scan.best
            .expect("at least one admissible k exists for n >= 1")
    })
}

/// One orientation's prefix scan: the running sum and its first strict
/// admissible maximum.
struct Scan {
    acc: f64,
    best: Option<(usize, f64)>,
}

impl Scan {
    fn new(offset: f64, parity: ParityPolicy) -> Self {
        let best = (parity == ParityPolicy::Ignore).then_some((0, offset));
        Self { acc: offset, best }
    }

    fn step(&mut self, k: usize, admitted: bool, increment: f64) {
        self.acc += increment;
        if admitted && self.best.is_none_or(|(_, m)| self.acc > m) {
            self.best = Some((k, self.acc));
        }
    }
}

/// Words per ring of a stage set over `n` stages: stage `i` is bit
/// `i % 64` of word `i / 64`, one representation for any stage count.
pub(super) fn stage_words(n: usize) -> usize {
    n.div_ceil(64)
}

/// Adds stage `i` to `set`.
pub(super) fn insert(set: &mut [u64], i: usize) {
    set[i / 64] |= 1 << (i % 64);
}

/// Removes stage `i` from `set`.
pub(super) fn remove(set: &mut [u64], i: usize) {
    set[i / 64] &= !(1 << (i % 64));
}

/// The stages of `0..n` that are in `set` (`selected`) or not, ascending.
pub(super) fn stages(set: &[u64], n: usize, selected: bool) -> impl Iterator<Item = usize> + '_ {
    let flip = if selected { 0 } else { u64::MAX };
    let (mut next_word, mut rest) = (0, 0u64);
    std::iter::from_fn(move || loop {
        if rest != 0 {
            let bit = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            return Some(64 * (next_word - 1) + bit);
        }
        let word = set.get(next_word)?;
        let live = n - 64 * next_word;
        rest = (word ^ flip) & if live < 64 { (1 << live) - 1 } else { u64::MAX };
        next_word += 1;
    })
}

/// Writes into the zeroed `top ‖ bottom` stage sets `forward` and
/// `reverse` the `k`-prefix selections of both orientations, for `k`
/// from `[forward, reverse]`, over the [`sort_keys`] `keys`: the first
/// `k` stages of the matching stage orders, ties to the lower index.
/// One pass over each ring serves both.
pub(super) fn prefix_sets(keys: &[i64], k: [usize; 2], forward: &mut [u64], reverse: &mut [u64]) {
    let n = keys.len() / 4;
    let words = forward.len() / 2;
    let (forward_top, forward_bottom) = forward.split_at_mut(words);
    let (reverse_top, reverse_bottom) = reverse.split_at_mut(words);
    let ring = |r: usize| (&keys[r * n..][..n], &keys[(2 + r) * n..][..n]);
    let ((alpha, alpha_sorted), (beta, beta_sorted)) = (ring(0), ring(1));
    extreme_stages(
        alpha,
        [
            (Extreme::new(alpha_sorted, k[0], true), forward_top),
            (Extreme::new(alpha_sorted, k[1], false), reverse_top),
        ],
    );
    extreme_stages(
        beta,
        [
            (Extreme::new(beta_sorted, k[0], false), forward_bottom),
            (Extreme::new(beta_sorted, k[1], true), reverse_bottom),
        ],
    );
}

/// The `k` slowest or fastest stages of a ring, as a test on its order
/// keys: every stage beyond the `k`-th value, then stages equal to it
/// in ascending index until `k` are taken — the first `k` of a stage
/// order by value, ties to the lower index.
#[derive(Clone, Copy)]
struct Extreme {
    /// The `k`-th value, complemented for the fastest stages:
    /// complementing a key reverses the order, so "beyond" is one `>`.
    edge: i64,
    /// `0` for the slowest stages, `!0` for the fastest.
    flip: i64,
    /// Stages equal to the `k`-th value that the `k` take.
    ties: usize,
}

impl Extreme {
    fn new(sorted: &[i64], k: usize, slowest: bool) -> Self {
        let n = sorted.len();
        let flip = if slowest { 0 } else { !0 };
        let (edge, ties) = match (k, slowest) {
            // Nothing is beyond the extreme key, and no tie is taken.
            (0, _) => (i64::MAX ^ flip, 0),
            (_, true) => {
                let edge = sorted[n - k];
                (
                    edge,
                    sorted[n - k..].iter().take_while(|&&x| x == edge).count(),
                )
            }
            (_, false) => {
                let edge = sorted[k - 1];
                (
                    edge,
                    sorted[..k].iter().rev().take_while(|&&x| x == edge).count(),
                )
            }
        };
        Self {
            edge: edge ^ flip,
            flip,
            ties,
        }
    }

    /// The lowest stages of `equal` while ties remain to be taken.
    fn take_ties(&mut self, mut equal: u64) -> u64 {
        let mut taken = 0;
        while self.ties > 0 && equal != 0 {
            taken |= equal & equal.wrapping_neg();
            equal &= equal - 1;
            self.ties -= 1;
        }
        taken
    }
}

/// Adds to each set the stages its [`Extreme`] picks from a ring with
/// order keys `keys`, in one pass. Only taking ties branches on the
/// keys.
fn extreme_stages(keys: &[i64], picks: [(Extreme, &mut [u64]); 2]) {
    let [(mut first, first_set), (mut second, second_set)] = picks;
    for (w, keys) in keys.chunks(64).enumerate() {
        let (mut first_beyond, mut first_equal) = (0u64, 0u64);
        let (mut second_beyond, mut second_equal) = (0u64, 0u64);
        let mut bit = 1;
        for &x in keys {
            let (a, b) = (x ^ first.flip, x ^ second.flip);
            first_beyond |= bit & 0u64.wrapping_sub(u64::from(a > first.edge));
            first_equal |= bit & 0u64.wrapping_sub(u64::from(a == first.edge));
            second_beyond |= bit & 0u64.wrapping_sub(u64::from(b > second.edge));
            second_equal |= bit & 0u64.wrapping_sub(u64::from(b == second.edge));
            bit <<= 1;
        }
        first_set[w] |= first_beyond | first.take_ties(first_equal);
        second_set[w] |= second_beyond | second.take_ties(second_equal);
    }
}

/// `x`'s position in `f64::total_cmp`'s order, as an integer that
/// compares the same way.
fn order_key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// The float whose [`order_key`] is `key` (the map is its own inverse).
fn key_value(key: i64) -> f64 {
    f64::from_bits(order_key(f64::from_bits(key as u64)) as u64)
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

    /// The four stage orders (`α` descending, `α` ascending, `β`
    /// descending, `β` ascending) as the index-order construction the
    /// sorted values and stage sets replaced built them, kept verbatim
    /// as the reference they must match: `order` holds the four
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

    /// The replaced prefix scan: `offset + Σ_{i<k}(slow[s_i] − fast[f_i])`
    /// along the index orders, first strict maximum.
    fn best_prefix_along(
        slow: (&[f64], &[usize]),
        fast: (&[f64], &[usize]),
        offset: f64,
        parity: ParityPolicy,
    ) -> (usize, f64) {
        let mut best = (parity == ParityPolicy::Ignore).then_some((0, offset));
        let mut acc = offset;
        for (k, (&s, &f)) in (1..).zip(slow.1.iter().zip(fast.1)) {
            acc += slow.0[s] - fast.0[f];
            if parity.admits(k) && best.is_none_or(|(_, m)| acc > m) {
                best = Some((k, acc));
            }
        }
        best.unwrap()
    }

    proptest! {
        /// The sorted values and prefix stage sets say what the four
        /// index orders said: the values ascending are those read along
        /// the ascending orders, bit for bit; every `k`-prefix set in
        /// either orientation is the first `k` stages of the matching
        /// orders; and both orientations' best prefixes are the scan
        /// along them. On a small value grid (so most stages tie, `-0.0`
        /// and `+0.0` among them), up to 70 stages so sets span two
        /// words, with one scratch reused for a second corner as
        /// `case2_multi_corner` reuses it.
        #[test]
        fn stage_orders_match_the_replaced_sort_bit_for_bit(
            n in 1usize..=70,
            values in proptest::collection::vec(
                proptest::sample::select(vec![-0.0, 0.0, -1.0, 1.0, 2.5, 100.0, 100.0 + 1e-13]),
                280,
            ),
            offset in proptest::sample::select(vec![-0.0, 0.0, 1.5, -2.5]),
        ) {
            let mut keys = Vec::new();
            let mut oracle: Vec<usize> = (0..4).flat_map(|_| 0..n).collect();
            let words = stage_words(n);
            for corner in values.chunks_exact(140) {
                let (alpha, beta) = (&corner[..n], &corner[70..70 + n]);
                sort_keys(&mut keys, alpha, beta);
                sort_by_replaced_construction(&mut oracle, n, alpha, beta);
                let order = |q: usize| &oracle[q * n..(q + 1) * n];
                let (alpha_desc, alpha_asc, beta_desc, beta_asc) = (order(0), order(1), order(2), order(3));
                let along = |v: &[f64], o: &[usize]| o.iter().map(|&i| v[i].to_bits()).collect::<Vec<_>>();
                let sorted_bits: Vec<u64> = keys[2 * n..].iter().map(|&k| key_value(k).to_bits()).collect();
                prop_assert_eq!(&sorted_bits[..n], &along(alpha, alpha_asc)[..]);
                prop_assert_eq!(&sorted_bits[n..], &along(beta, beta_asc)[..]);
                for parity in [ParityPolicy::Ignore, ParityPolicy::ForceOdd] {
                    let [(k, d), (k_rev, d_rev)] = best_prefixes(&keys, offset, parity);
                    let (k_ref, d_ref) = best_prefix_along((alpha, alpha_desc), (beta, beta_asc), offset, parity);
                    prop_assert_eq!((k, d.to_bits()), (k_ref, d_ref.to_bits()));
                    let (k_ref, d_ref) = best_prefix_along((beta, beta_desc), (alpha, alpha_asc), -offset, parity);
                    prop_assert_eq!((k_rev, d_rev.to_bits()), (k_ref, d_ref.to_bits()));
                }
                // Every prefix length in each orientation, the two
                // lengths of one call apart.
                for k in 0..=n {
                    let mut sets = vec![0; 4 * words];
                    let (forward, reverse) = sets.split_at_mut(2 * words);
                    prefix_sets(&keys, [k, n - k], forward, reverse);
                    let mut expected = vec![0; 4 * words];
                    let firsts = [(alpha_desc, k), (beta_asc, k), (alpha_asc, n - k), (beta_desc, n - k)];
                    for (ring, (order, k)) in expected.chunks_exact_mut(words).zip(firsts) {
                        for &i in &order[..k] {
                            insert(ring, i);
                        }
                    }
                    prop_assert_eq!(&sets, &expected, "k = {}", k);
                }
            }
        }
    }
}
