//! Min-margin-across-corners selection: §III.D extended over a V/T
//! corner set.
//!
//! The paper selects configuration vectors at a single operating point;
//! §IV.D then shows that the resulting margins shrink at voltage and
//! temperature corners, and that the smallest-margin pairs are the ones
//! that flip. Because per-device V/T sensitivities disperse, the stage
//! ordering — and hence the optimal selection — is *corner-dependent*:
//! the nominal optimum can sit on a knife edge at 0.98 V.
//!
//! These solvers maximize the **worst-corner margin** instead: for a
//! candidate selection with signed delay difference `D_c` at corner `c`,
//! the objective is `min_c |D_c|` when every corner agrees on the sign
//! of `D_c`, and `0` otherwise — a bit that changes polarity with the
//! environment is not a PUF bit, so sign-inconsistent selections are
//! *degenerate* and fall to the §III.C escape hatch.
//!
//! Exact optimization of the min-margin objective is no longer a sign
//! partition (it is NP-hard in general); the solvers here are
//! deterministic heuristics with a guarantee that matters in practice:
//! the candidate pool contains every per-corner §III.D optimum, so the
//! result is never worse *at its worst corner* than the best of the
//! single-corner optima, and a strict-improvement refinement pass then
//! climbs from there. With a single corner, each solver reduces exactly
//! to its §III.D counterpart, bit for bit.
//!
//! # Case-2 exactness contract
//!
//! [`case2_multi_corner`] is written for speed, but its output — the
//! configurations, the margin's bits and the bit — is defined by the
//! plain algorithm: seed with both orientations of every corner's
//! §III.D optimum (deduplicated, first strict maximum wins), then apply
//! the best single count-preserving swap per round (scan order: top ring
//! then bottom ring, removed stage ascending, added stage ascending;
//! improvements must exceed the round's best by `1e-15`) until no swap
//! helps. Four rules keep the fast version bit-identical to it:
//!
//! * **Sorted values, stage sets.** Each corner's optimum is read from
//!   its delays sorted as `total_cmp` order keys; `total_cmp`-equal
//!   floats are bitwise equal, so every prefix sum over them is the one
//!   along the plain algorithm's stage orders. Its `k` stages are
//!   every stage beyond the `k`-th value plus the lowest-indexed stages
//!   equal to it: the first `k` of those orders, ties to the lower
//!   index. A selection is held as a bit-word stage set per ring, one
//!   representation for any stage count.
//! * **Index-order folds.** A candidate's delay difference at a corner
//!   is `D = (offset + Σ_top α) − Σ_bottom β`, each ring summed over its
//!   selected stages only, in ascending stage index, with the left fold
//!   `Iterator::sum` uses (it starts from `−0.0`; skipping an
//!   unselected stage is adding `−0.0`, which leaves every float
//!   unchanged). No other evaluation order is used for a margin that
//!   can be returned or compared: a swap that needs an exact fold is
//!   folded afresh over the swapped selection, like a seed. The best
//!   selection's `D` per corner is carried over from the fold that
//!   produced it.
//! * **Swap table.** Estimates read a per-pair table of every stage's
//!   delay at every corner, `[ring][stage][corner]`, so one swap's
//!   corners sit side by side; the part of an estimate that depends
//!   only on the removed stage is computed once per removed stage, with
//!   the rounding it had.
//! * **Pruning with a proven bound.** A swap is folded exactly only if
//!   its incremental estimate `D̃ = (D − v_out) + v_add` (for the bottom
//!   ring `(D + β_out) − β_add`), over the round's fixed best `D`, could
//!   beat the round's best. With unit
//!   roundoff `u = ε/2` and `A = |offset| + Σ|α| + Σ|β|` over all stages
//!   of the corner, each `D` computed as above is a summation tree of at
//!   most `2k + 1 ≤ 2n + 1` terms in which no term takes part in more
//!   than `k + 1 ≤ n + 1` roundings (the first top-ring term: `k − 1` in
//!   its fold, then `+ offset` and `− Σβ`), so `|D − D_exact| ≤ γ_{n+1}·A`
//!   with `γ_m = m·u / (1 − m·u)`. The estimate adds two roundings of
//!   terms bounded by `|D| + |v_out| + |v_add| ≤ (2 + γ_{n+1})·A`, so
//!   `|D̃ − D'_exact| ≤ γ_{n+1}·A + γ_2·(2 + γ_{n+1})·A`. The swap's
//!   computed `D'` is within `γ_{n+1}·A` of `D'_exact`. Together:
//!   `|D' − D̃| ≤ (2γ_{n+1} + 2γ_2 + γ_2·γ_{n+1})·A ≈ (n + 3)·ε·A`. The
//!   solver uses `E = (n + 4)·ε·A`; the extra `ε·A` absorbs the
//!   second-order terms and the rounding of `E` itself for any `n` below
//!   about 10⁷ stages. A swap's margin is `min_c D'_c` when every corner
//!   is positive and `min_c −D'_c` when every corner is negative (else
//!   `0`), so it can beat the bar `b` only if `D̃_c + E_c ≥ b` at every
//!   corner or `E_c − D̃_c ≥ b` at every corner (rounding is monotone, so
//!   the floating-point comparison keeps the inequality). Swaps failing
//!   both are skipped: they could not have been accepted.
//!
//! `select.multi.case2.swaps` counts the swaps considered and
//! `select.multi.case2.swaps_exact` those folded exactly.

use std::cmp::Ordering;

use ropuf_telemetry as telemetry;

use crate::config::{ConfigVector, ParityPolicy};
use crate::select::case1::extreme_subset;
use crate::select::case2::{
    best_prefixes, case2_with_offset_in, insert, prefix_sets, remove, sort_keys, stage_words,
    stages, SelectScratch,
};
use crate::select::{case1_with_offset, validate_inputs, PairSelection, Selection};

/// Per-corner inputs to a multi-corner selection: the §III.B calibrated
/// per-stage ddiffs of the two rings and the configuration-independent
/// bypass offset, all measured at one operating point.
#[derive(Debug, Clone, Copy)]
pub struct CornerDelays<'a> {
    /// Top-ring per-stage ddiffs at this corner, ps.
    pub alpha: &'a [f64],
    /// Bottom-ring per-stage ddiffs at this corner, ps.
    pub beta: &'a [f64],
    /// Configuration-independent delay offset `B_top − B_bottom`, ps.
    pub offset_ps: f64,
}

/// Worst-corner margin of a fixed selection whose signed delay
/// differences at the corners are `ds`: the minimum `|D_c|` when every
/// corner agrees on which ring is slower, `0.0` (degenerate) when any
/// corner ties or the corners disagree. The boolean is the enrolled bit
/// (`true` = top slower everywhere; `false` by convention when
/// degenerate).
pub(crate) fn consistent_min_margin(ds: &[f64]) -> (f64, bool) {
    if ds.iter().all(|&d| d > 0.0) {
        (ds.iter().fold(f64::INFINITY, |m, &d| m.min(d)), true)
    } else if ds.iter().all(|&d| d < 0.0) {
        (ds.iter().fold(f64::INFINITY, |m, &d| m.min(-d)), false)
    } else {
        (0.0, false)
    }
}

/// Validates corner inputs and returns the common stage count.
fn validate_corners(corners: &[CornerDelays<'_>]) -> usize {
    assert!(
        !corners.is_empty(),
        "multi-corner selection needs at least one corner"
    );
    let n = corners[0].alpha.len();
    for c in corners {
        validate_inputs(c.alpha, c.beta);
        assert_eq!(
            c.alpha.len(),
            n,
            "all corners must describe the same stages"
        );
        assert!(
            c.offset_ps.is_finite(),
            "offset must be finite, got {}",
            c.offset_ps
        );
    }
    n
}

/// Case-1 selection maximizing the worst-corner margin
/// `min_c |offset_c + Σ (α_c − β_c)·x|` over a shared configuration.
///
/// With one corner this is exactly [`case1_with_offset`]. With several,
/// the per-corner sign-class optima seed a deterministic
/// strict-improvement flip search on the min-margin objective.
///
/// # Panics
///
/// Panics if `corners` is empty, any corner's inputs are invalid, or
/// the corners disagree on the stage count.
pub fn case1_multi_corner(corners: &[CornerDelays<'_>], parity: ParityPolicy) -> Selection {
    let n = validate_corners(corners);
    if corners.len() == 1 {
        let c = &corners[0];
        return case1_with_offset(c.alpha, c.beta, c.offset_ps, parity);
    }
    let deltas: Vec<Vec<f64>> = corners
        .iter()
        .map(|c| c.alpha.iter().zip(c.beta).map(|(a, b)| a - b).collect())
        .collect();
    let eval = |flags: &[bool]| -> (f64, bool) {
        let ds: Vec<f64> = corners
            .iter()
            .zip(&deltas)
            .map(|(c, delta)| {
                c.offset_ps
                    + flags
                        .iter()
                        .zip(delta)
                        .filter_map(|(&on, d)| on.then_some(d))
                        .sum::<f64>()
            })
            .collect();
        consistent_min_margin(&ds)
    };

    // Candidate pool: both sign-class optima of every corner.
    let mut candidates: Vec<Vec<bool>> = Vec::new();
    for delta in &deltas {
        for maximize in [true, false] {
            let (set, _) = extreme_subset(delta, maximize, parity);
            let mut flags = vec![false; n];
            for &i in &set {
                flags[i] = true;
            }
            if !candidates.contains(&flags) {
                candidates.push(flags);
            }
        }
    }
    let mut best = candidates[0].clone();
    let (mut best_margin, mut best_bit) = eval(&best);
    for flags in &candidates[1..] {
        let (m, bit) = eval(flags);
        if m > best_margin {
            best = flags.clone();
            best_margin = m;
            best_bit = bit;
        }
    }

    // Strict-improvement refinement: single flips (pair flips under
    // ForceOdd) applied best-first until no move helps. Terminates
    // because the margin strictly increases over a finite config space.
    loop {
        let mut improved = false;
        let mut round_best = best.clone();
        let mut round_margin = best_margin;
        let mut round_bit = best_bit;
        let mut consider = |flags: Vec<bool>| {
            let (m, bit) = eval(&flags);
            if m > round_margin + 1e-15 {
                round_best = flags;
                round_margin = m;
                round_bit = bit;
            }
        };
        match parity {
            ParityPolicy::Ignore => {
                for i in 0..n {
                    let mut flags = best.clone();
                    flags[i] = !flags[i];
                    consider(flags);
                }
            }
            ParityPolicy::ForceOdd => {
                for i in 0..n {
                    for j in i + 1..n {
                        let mut flags = best.clone();
                        flags[i] = !flags[i];
                        flags[j] = !flags[j];
                        consider(flags);
                    }
                }
            }
        }
        if round_margin > best_margin + 1e-15 {
            best = round_best;
            best_margin = round_margin;
            best_bit = round_bit;
            improved = true;
        }
        if !improved {
            break;
        }
    }

    let selection = Selection::new(ConfigVector::from_flags(&best), best_margin, best_bit);
    if selection.is_degenerate() {
        telemetry::counter("select.multi.case1.degenerate", 1);
    }
    selection
}

/// Case-2 selection maximizing the worst-corner margin
/// `min_c |offset_c + Σ α_c x − Σ β_c y|` subject to `Σ x = Σ y`.
///
/// With one corner this is exactly
/// [`case2_with_offset`](super::case2_with_offset). With several, both
/// orientations of every corner's sorted-prefix optimum seed a
/// deterministic strict-improvement swap search (swaps preserve the
/// equal-count constraint and the parity of `k`). The result is exactly
/// the plain algorithm's, margin bits included; see the module-level
/// exactness contract.
///
/// # Panics
///
/// Panics if `corners` is empty, any corner's inputs are invalid, or
/// the corners disagree on the stage count.
pub fn case2_multi_corner(corners: &[CornerDelays<'_>], parity: ParityPolicy) -> PairSelection {
    case2_multi_corner_in(corners, parity, &mut SelectScratch::default())
}

/// [`case2_multi_corner`] on caller-owned working memory.
pub(crate) fn case2_multi_corner_in(
    corners: &[CornerDelays<'_>],
    parity: ParityPolicy,
    scratch: &mut SelectScratch,
) -> PairSelection {
    let n = validate_corners(corners);
    if corners.len() == 1 {
        let c = &corners[0];
        return case2_with_offset_in(c.alpha, c.beta, c.offset_ps, parity, scratch);
    }
    let nc = corners.len();
    let words = stage_words(n);
    let width = 2 * words;

    // Candidate pool: both orientations of every corner's §III.D optimum,
    // held as `top ‖ bottom` stage sets, then deduplicated in push order.
    let SelectScratch { keys, sets, table } = scratch;
    sets.clear();
    sets.resize(2 * nc * width, 0);
    for (c, candidates) in corners.iter().zip(sets.chunks_exact_mut(2 * width)) {
        sort_keys(keys, c.alpha, c.beta);
        let prefixes = best_prefixes(keys, c.offset_ps, parity);
        let (forward, reverse) = candidates.split_at_mut(width);
        prefix_sets(keys, prefixes.map(|(k, _)| k), forward, reverse);
    }
    let mut pool = 0;
    for idx in 0..2 * nc {
        let candidate = &sets[idx * width..(idx + 1) * width];
        let same = |s: &[u64]| s.iter().zip(candidate).all(|(a, b)| a == b);
        if !sets[..pool * width].chunks_exact(width).any(same) {
            sets.copy_within(idx * width..(idx + 1) * width, pool * width);
            pool += 1;
        }
    }
    // table[(ring · n + stage) · nc + corner]: one stage's delays at
    // every corner side by side, as a swap estimate reads them.
    table.clear();
    table.resize(2 * n * nc + 7 * nc, 0.0);
    let (table, rows) = table.split_at_mut(2 * n * nc);
    for (ci, c) in corners.iter().enumerate() {
        for (ring, v) in [c.alpha, c.beta].into_iter().enumerate() {
            for (i, &x) in v.iter().enumerate() {
                table[(ring * n + i) * nc + ci] = x;
            }
        }
    }
    let (offsets, rest) = rows.split_at_mut(nc);
    let (bound, rest) = rest.split_at_mut(nc);
    let (base, rest) = rest.split_at_mut(nc);
    let (bottom_sums, rest) = rest.split_at_mut(nc);
    let (mut best_ds, rest) = rest.split_at_mut(nc);
    let (mut trial, mut round_ds) = rest.split_at_mut(nc);
    for (offset, c) in offsets.iter_mut().zip(corners) {
        *offset = c.offset_ps;
    }
    let fold = |ds: &mut [f64], bottom_sums: &mut [f64], set: &[u64]| {
        fold_set(ds, bottom_sums, set, table, offsets, n)
    };

    // Seed: the first candidate, then the first strict maximum.
    fold(best_ds, bottom_sums, &sets[..width]);
    let (mut best_margin, mut best_bit) = consistent_min_margin(best_ds);
    let mut best = 0;
    for idx in 1..pool {
        fold(trial, bottom_sums, &sets[idx * width..(idx + 1) * width]);
        if beats(trial, best_margin) {
            best = idx;
            (best_margin, best_bit) = consistent_min_margin(trial);
            std::mem::swap(&mut best_ds, &mut trial);
        }
    }
    // The selection, then a swap's trial selection, at the pool's front.
    sets.copy_within(best * width..(best + 1) * width, 0);
    sets.truncate(width);
    sets.resize(2 * width, 0);

    // Strict-improvement refinement over count-preserving swaps in
    // either ring, exact per the module-level contract.
    for (e, c) in bound.iter_mut().zip(corners) {
        let mass = c.offset_ps.abs()
            + c.alpha.iter().map(|x| x.abs()).sum::<f64>()
            + c.beta.iter().map(|x| x.abs()).sum::<f64>();
        *e = (n as f64 + 4.0) * f64::EPSILON * mass;
    }
    let (mut swaps, mut exact) = (0u64, 0u64);
    loop {
        let mut round: Option<(usize, usize, usize)> = None;
        let (mut round_margin, mut round_bit) = (best_margin, best_bit);
        let (selection, swapped) = sets.split_at_mut(width);
        for ring in 0..2 {
            let selected = &selection[ring * words..(ring + 1) * words];
            // A top-ring swap moves D by −v_out + v_add, a bottom-ring
            // swap by +v_out − v_add.
            let sign = if ring == 0 { 1.0 } else { -1.0 };
            for out in stages(selected, n, true) {
                let v_out = &table[(ring * n + out) * nc..][..nc];
                for ((b, &d), &o) in base.iter_mut().zip(&*best_ds).zip(v_out) {
                    *b = d - sign * o;
                }
                for add in stages(selected, n, false) {
                    swaps += 1;
                    let bar = round_margin + 1e-15;
                    // Could the swap beat the bar with every corner
                    // positive, or with every corner negative? Only a
                    // bound certainly below the bar rules a sign out; NaN
                    // (from overflowed sums) never does.
                    let below = |x: f64| x.partial_cmp(&bar) == Some(Ordering::Less);
                    let v_add = &table[(ring * n + add) * nc..][..nc];
                    let (mut positive, mut negative) = (true, true);
                    for ((&b, &e), &a) in base.iter().zip(&*bound).zip(v_add) {
                        let estimate = b + sign * a;
                        positive &= !below(estimate + e);
                        negative &= !below(e - estimate);
                    }
                    if !(positive | negative) {
                        continue;
                    }
                    exact += 1;
                    swapped.copy_from_slice(selection);
                    let ring_set = &mut swapped[ring * words..(ring + 1) * words];
                    remove(ring_set, out);
                    insert(ring_set, add);
                    fold(trial, bottom_sums, swapped);
                    if beats(trial, bar) {
                        round = Some((ring, out, add));
                        (round_margin, round_bit) = consistent_min_margin(trial);
                        round_ds.copy_from_slice(trial);
                    }
                }
            }
        }
        // Any accepted swap beat best_margin + 1e-15, so a round with a
        // swap is always an improvement.
        let Some((ring, out, add)) = round else {
            break;
        };
        let ring_set = &mut sets[ring * words..(ring + 1) * words];
        remove(ring_set, out);
        insert(ring_set, add);
        best_margin = round_margin;
        best_bit = round_bit;
        std::mem::swap(&mut best_ds, &mut round_ds);
    }
    telemetry::counter("select.multi.case2.swaps", swaps);
    telemetry::counter("select.multi.case2.swaps_exact", exact);

    let selection = PairSelection::new(
        ConfigVector::from_stage_set(n, &sets[..words]),
        ConfigVector::from_stage_set(n, &sets[words..width]),
        best_margin,
        best_bit,
    );
    if selection.is_degenerate() {
        telemetry::counter("select.multi.case2.degenerate", 1);
    }
    selection
}

/// Writes into `ds` each corner's `D = (offset + Σ_top α) − Σ_bottom β`
/// for the `top ‖ bottom` stage set `set`, both rings folded over their
/// selected stages only, in ascending index order, from the value
/// `Iterator::sum` starts at; `bottom_sums` is working room.
fn fold_set(
    ds: &mut [f64],
    bottom_sums: &mut [f64],
    set: &[u64],
    table: &[f64],
    offsets: &[f64],
    n: usize,
) {
    let nc = ds.len();
    let (top, bottom) = set.split_at(set.len() / 2);
    for (sums, ring, ring_set) in [(&mut *ds, 0, top), (&mut *bottom_sums, 1, bottom)] {
        sums.fill(std::iter::empty::<f64>().sum());
        for i in stages(ring_set, n, true) {
            let row = &table[(ring * n + i) * nc..][..nc];
            for (sum, &v) in sums.iter_mut().zip(row) {
                *sum += v;
            }
        }
    }
    for ((d, &offset), &bottom) in ds.iter_mut().zip(offsets).zip(&*bottom_sums) {
        *d = offset + *d - bottom;
    }
}

/// Whether [`consistent_min_margin`] of `ds` exceeds `bar ≥ 0`: every
/// corner's `|D|` exceeds `bar` with corner 0's sign.
fn beats(ds: &[f64], bar: f64) -> bool {
    ds.iter()
        .all(|&d| d.abs() > bar && (d > 0.0) == (ds[0] > 0.0))
}

/// The Case-2 multi-corner solver as it stood before the pruned swap
/// search, kept verbatim (with the order helpers it called) as the
/// reference [`case2_multi_corner`] must match bit for bit.
#[cfg(test)]
mod oracle {
    use ropuf_telemetry as telemetry;

    use super::{consistent_min_margin, validate_corners, CornerDelays};
    use crate::config::{ConfigVector, ParityPolicy};
    use crate::select::{case2_with_offset, PairSelection};

    pub fn case2_multi_corner(corners: &[CornerDelays<'_>], parity: ParityPolicy) -> PairSelection {
        let n = validate_corners(corners);
        if corners.len() == 1 {
            let c = &corners[0];
            return case2_with_offset(c.alpha, c.beta, c.offset_ps, parity);
        }
        let eval = |top: &[usize], bottom: &[usize]| -> (f64, bool) {
            let ds: Vec<f64> = corners
                .iter()
                .map(|c| {
                    c.offset_ps + top.iter().map(|&i| c.alpha[i]).sum::<f64>()
                        - bottom.iter().map(|&i| c.beta[i]).sum::<f64>()
                })
                .collect();
            consistent_min_margin(&ds)
        };

        // Candidate pool: both orientations of every corner's §III.D optimum.
        let mut candidates: Vec<(Vec<usize>, Vec<usize>)> = Vec::new();
        for c in corners {
            let (k_fwd, _) = extreme_prefix(c.alpha, c.beta, c.offset_ps, parity);
            let fwd = (
                select_extreme(c.alpha, k_fwd, Extreme::Slowest),
                select_extreme(c.beta, k_fwd, Extreme::Fastest),
            );
            let (k_rev, _) = extreme_prefix(c.beta, c.alpha, -c.offset_ps, parity);
            let rev = (
                select_extreme(c.alpha, k_rev, Extreme::Fastest),
                select_extreme(c.beta, k_rev, Extreme::Slowest),
            );
            for cand in [fwd, rev] {
                if !candidates.contains(&cand) {
                    candidates.push(cand);
                }
            }
        }
        let (mut best_top, mut best_bottom) = candidates[0].clone();
        let (mut best_margin, mut best_bit) = eval(&best_top, &best_bottom);
        for (top, bottom) in &candidates[1..] {
            let (m, bit) = eval(top, bottom);
            if m > best_margin {
                best_top = top.clone();
                best_bottom = bottom.clone();
                best_margin = m;
                best_bit = bit;
            }
        }

        // Strict-improvement refinement over count-preserving swaps in
        // either ring.
        loop {
            let mut round = (best_top.clone(), best_bottom.clone(), best_margin, best_bit);
            for ring in 0..2 {
                let current = if ring == 0 { &best_top } else { &best_bottom };
                for (pos, &out) in current.iter().enumerate() {
                    for add in 0..n {
                        if current.contains(&add) {
                            continue;
                        }
                        let mut swapped = current.clone();
                        swapped[pos] = add;
                        swapped.sort_unstable();
                        let (top, bottom) = if ring == 0 {
                            (swapped, best_bottom.clone())
                        } else {
                            (best_top.clone(), swapped)
                        };
                        let (m, bit) = eval(&top, &bottom);
                        if m > round.2 + 1e-15 {
                            round = (top, bottom, m, bit);
                        }
                        let _ = out;
                    }
                }
            }
            if round.2 > best_margin + 1e-15 {
                (best_top, best_bottom, best_margin, best_bit) = round;
            } else {
                break;
            }
        }

        let selection = PairSelection::new(
            ConfigVector::from_selected(n, &best_top),
            ConfigVector::from_selected(n, &best_bottom),
            best_margin,
            best_bit,
        );
        if selection.is_degenerate() {
            telemetry::counter("select.multi.case2.degenerate", 1);
        }
        selection
    }

    /// Maximizes `offset + Σ_{i≤k}(slow_desc[i] − fast_asc[i])` over
    /// admissible `k`. Under `ParityPolicy::Ignore` the scan includes `k = 0`
    /// (value `offset`); under `ForceOdd` only odd `k` qualify.
    fn extreme_prefix(
        slow: &[f64],
        fast: &[f64],
        offset: f64,
        parity: ParityPolicy,
    ) -> (usize, f64) {
        let n = slow.len();
        let mut slow_sorted = slow.to_vec();
        slow_sorted.sort_by(|a, b| b.total_cmp(a)); // descending
        let mut fast_sorted = fast.to_vec();
        fast_sorted.sort_by(|a, b| a.total_cmp(b)); // ascending

        let mut best: Option<(usize, f64)> = match parity {
            ParityPolicy::Ignore => Some((0, offset)),
            ParityPolicy::ForceOdd => None,
        };
        let mut acc = offset;
        for k in 1..=n {
            acc += slow_sorted[k - 1] - fast_sorted[k - 1];
            if parity.admits(k) && best.is_none_or(|(_, m)| acc > m) {
                best = Some((k, acc));
            }
        }
        best.expect("at least one admissible k exists for n >= 1")
    }

    #[derive(Clone, Copy)]
    enum Extreme {
        Slowest,
        Fastest,
    }

    /// Indices of the `k` slowest (largest delay) or fastest stages; ties are
    /// broken by original index, matching the sorts in [`extreme_prefix`].
    fn select_extreme(delays: &[f64], k: usize, which: Extreme) -> Vec<usize> {
        let mut order: Vec<usize> = (0..delays.len()).collect();
        match which {
            Extreme::Slowest => {
                order.sort_by(|&a, &b| delays[b].total_cmp(&delays[a]).then(a.cmp(&b)))
            }
            Extreme::Fastest => {
                order.sort_by(|&a, &b| delays[a].total_cmp(&delays[b]).then(a.cmp(&b)))
            }
        }
        let mut chosen: Vec<usize> = order.into_iter().take(k).collect();
        chosen.sort_unstable();
        chosen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::{case1, case2, case2_with_offset};
    use proptest::prelude::*;

    fn delays(seed: u64, n: usize) -> (Vec<f64>, Vec<f64>) {
        let mut h = seed | 1;
        let mut next = move || {
            h ^= h << 13;
            h ^= h >> 7;
            h ^= h << 17;
            100.0 + (h % 997) as f64 / 100.0
        };
        (
            (0..n).map(|_| next()).collect(),
            (0..n).map(|_| next()).collect(),
        )
    }

    /// A second corner derived from the first by per-stage sensitivity
    /// dispersion, like a V/T excursion produces on real silicon.
    fn perturb(v: &[f64], seed: u64, scale: f64) -> Vec<f64> {
        let mut h = seed | 1;
        v.iter()
            .map(|&d| {
                h ^= h << 13;
                h ^= h >> 7;
                h ^= h << 17;
                d * (1.0 + scale * ((h % 2001) as f64 / 1000.0 - 1.0))
            })
            .collect()
    }

    #[test]
    fn single_corner_reduces_to_the_exact_solvers() {
        for seed in 0..20 {
            for n in 1..=9 {
                let (a, b) = delays(seed, n);
                for parity in [ParityPolicy::Ignore, ParityPolicy::ForceOdd] {
                    let corner = CornerDelays {
                        alpha: &a,
                        beta: &b,
                        offset_ps: 0.75,
                    };
                    assert_eq!(
                        case1_multi_corner(&[corner], parity),
                        case1_with_offset(&a, &b, 0.75, parity)
                    );
                    assert_eq!(
                        case2_multi_corner(&[corner], parity),
                        case2_with_offset(&a, &b, 0.75, parity)
                    );
                }
            }
        }
    }

    #[test]
    fn worst_corner_margin_never_beats_any_single_corner_optimum() {
        for seed in 0..20 {
            let (a0, b0) = delays(seed, 7);
            let a1 = perturb(&a0, seed.wrapping_add(99), 0.02);
            let b1 = perturb(&b0, seed.wrapping_add(177), 0.02);
            let corners = [
                CornerDelays {
                    alpha: &a0,
                    beta: &b0,
                    offset_ps: 0.0,
                },
                CornerDelays {
                    alpha: &a1,
                    beta: &b1,
                    offset_ps: 0.0,
                },
            ];
            let multi = case1_multi_corner(&corners, ParityPolicy::Ignore);
            let c0 = case1(&a0, &b0, ParityPolicy::Ignore);
            let c1 = case1(&a1, &b1, ParityPolicy::Ignore);
            assert!(multi.margin() <= c0.margin() + 1e-9, "seed {seed}");
            assert!(multi.margin() <= c1.margin() + 1e-9, "seed {seed}");
            let multi2 = case2_multi_corner(&corners, ParityPolicy::Ignore);
            let d0 = case2(&a0, &b0, ParityPolicy::Ignore);
            let d1 = case2(&a1, &b1, ParityPolicy::Ignore);
            assert!(multi2.margin() <= d0.margin() + 1e-9, "seed {seed}");
            assert!(multi2.margin() <= d1.margin() + 1e-9, "seed {seed}");
        }
    }

    /// The guarantee that matters: the multi-corner result is at least
    /// as good, at its worst corner, as every per-corner optimum is at
    /// *its* worst corner.
    #[test]
    fn beats_every_single_corner_optimum_at_the_worst_corner() {
        let worst_corner_of = |cfg: &ConfigVector, corners: &[CornerDelays<'_>]| -> f64 {
            let sel = cfg.selected_indices();
            let ds: Vec<f64> = corners
                .iter()
                .map(|c| c.offset_ps + sel.iter().map(|&i| c.alpha[i] - c.beta[i]).sum::<f64>())
                .collect();
            consistent_min_margin(&ds).0
        };
        for seed in 0..30 {
            let (a0, b0) = delays(seed, 7);
            let a1 = perturb(&a0, seed.wrapping_add(5), 0.03);
            let b1 = perturb(&b0, seed.wrapping_add(9), 0.03);
            let corners = [
                CornerDelays {
                    alpha: &a0,
                    beta: &b0,
                    offset_ps: 0.0,
                },
                CornerDelays {
                    alpha: &a1,
                    beta: &b1,
                    offset_ps: 0.0,
                },
            ];
            let multi = case1_multi_corner(&corners, ParityPolicy::Ignore);
            for (a, b) in [(&a0, &b0), (&a1, &b1)] {
                let single = case1(a, b, ParityPolicy::Ignore);
                assert!(
                    multi.margin() + 1e-9 >= worst_corner_of(single.config(), &corners),
                    "seed {seed}"
                );
            }
        }
    }

    #[test]
    fn sign_disagreement_is_degenerate() {
        // One stage, opposite polarity at the two corners: no selection
        // can satisfy both.
        let corners = [
            CornerDelays {
                alpha: &[11.0],
                beta: &[10.0],
                offset_ps: 0.0,
            },
            CornerDelays {
                alpha: &[10.0],
                beta: &[11.0],
                offset_ps: 0.0,
            },
        ];
        let s = case1_multi_corner(&corners, ParityPolicy::ForceOdd);
        assert!(s.is_degenerate());
        assert!(!s.bit());
        let p = case2_multi_corner(&corners, ParityPolicy::ForceOdd);
        assert!(p.is_degenerate());
    }

    #[test]
    fn force_odd_is_respected_across_corners() {
        for seed in 0..10 {
            let (a0, b0) = delays(seed, 8);
            let a1 = perturb(&a0, seed + 31, 0.02);
            let b1 = perturb(&b0, seed + 47, 0.02);
            let corners = [
                CornerDelays {
                    alpha: &a0,
                    beta: &b0,
                    offset_ps: 1.0,
                },
                CornerDelays {
                    alpha: &a1,
                    beta: &b1,
                    offset_ps: 1.2,
                },
            ];
            let s = case1_multi_corner(&corners, ParityPolicy::ForceOdd);
            assert!(s.config().oscillates(), "seed {seed}");
            let p = case2_multi_corner(&corners, ParityPolicy::ForceOdd);
            assert_eq!(p.top().selected_count(), p.bottom().selected_count());
            assert!(p.top().selected_count() % 2 == 1, "seed {seed}");
        }
    }

    #[test]
    fn case1_multi_corner_never_beats_brute_force_on_small_rings() {
        for seed in 0..15 {
            let (a0, b0) = delays(seed, 6);
            let a1 = perturb(&a0, seed + 3, 0.03);
            let b1 = perturb(&b0, seed + 8, 0.03);
            let corners = [
                CornerDelays {
                    alpha: &a0,
                    beta: &b0,
                    offset_ps: 0.0,
                },
                CornerDelays {
                    alpha: &a1,
                    beta: &b1,
                    offset_ps: 0.0,
                },
            ];
            // Brute-force the min-margin optimum over all 2^6 subsets.
            let mut brute = 0.0f64;
            for mask in 0u32..(1 << 6) {
                let flags: Vec<bool> = (0..6).map(|i| mask >> i & 1 == 1).collect();
                let ds: Vec<f64> = corners
                    .iter()
                    .map(|c| {
                        flags
                            .iter()
                            .enumerate()
                            .filter(|(_, &on)| on)
                            .map(|(i, _)| c.alpha[i] - c.beta[i])
                            .sum::<f64>()
                    })
                    .collect();
                brute = brute.max(consistent_min_margin(&ds).0);
            }
            let exact_seeded = case1_multi_corner(&corners, ParityPolicy::Ignore);
            assert!(exact_seeded.margin() <= brute + 1e-9, "seed {seed}");
        }
    }

    /// Per-corner `(α, β, offset)` inputs for the oracle comparison,
    /// drawn from `seed` in one of four styles:
    ///
    /// 0. realistic: stage delays around 100 ps, every corner a
    ///    dispersed copy of one nominal pair plus a bypass offset;
    /// 1. integers 0..5: many exact ties and zeros;
    /// 2. near-ties: whole picoseconds plus steps of 1e-13 ps, so
    ///    margins sit at the roundoff scale the prune bound covers;
    /// 3. mixed signs, with −0.0 and +0.0 among small values.
    fn oracle_inputs(
        seed: u64,
        n: usize,
        corners: usize,
        style: u8,
    ) -> Vec<(Vec<f64>, Vec<f64>, f64)> {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut unit = move || (next() >> 11) as f64 / (1u64 << 53) as f64;
        let nominal: Vec<f64> = (0..2 * n).map(|_| 90.0 + 20.0 * unit()).collect();
        let whole: Vec<f64> = (0..2 * n).map(|_| 100.0 + (unit() * 3.0).floor()).collect();
        let value = |i: usize, unit: &mut dyn FnMut() -> f64| match style {
            0 => nominal[i] * (1.0 + 0.04 * (unit() - 0.5)),
            1 => (unit() * 5.0).floor(),
            2 => whole[i] + (unit() * 4.0).floor() * 1e-13,
            _ => match (unit() * 6.0) as u8 {
                0 => -0.0,
                1 => 0.0,
                2 => (unit() * 7.0).floor() - 3.0,
                _ => 6.0 * unit() - 3.0,
            },
        };
        (0..corners)
            .map(|_| {
                let alpha = (0..n).map(|i| value(i, &mut unit)).collect();
                let beta = (n..2 * n).map(|i| value(i, &mut unit)).collect();
                let offset = match style {
                    0 => 4.0 * (unit() - 0.5),
                    1 => (unit() * 5.0).floor() - 2.0,
                    2 => ((unit() * 5.0).floor() - 2.0) * 1e-13,
                    _ => [-0.0, 0.0, 1.5, -1.5][(unit() * 4.0) as usize],
                };
                (alpha, beta, offset)
            })
            .collect()
    }

    proptest! {
        /// The guard for the pruned swap search: every output of
        /// `case2_multi_corner`, margin bits included, equals the
        /// verbatim pre-rewrite solver's, past `MAX_CORNERS` corners too.
        /// One case in 16 has 60–70 stages, so stage sets span two words.
        #[test]
        fn case2_multi_corner_matches_the_oracle_bit_for_bit(
            seed in any::<u64>(),
            n in 1usize..=15,
            wide_n in 60usize..=70,
            wide in 0u8..16,
            corner_count in 2usize..=12,
            style in 0u8..4,
        ) {
            let n = if wide == 0 { wide_n } else { n };
            let inputs = oracle_inputs(seed, n, corner_count, style);
            let corners: Vec<CornerDelays<'_>> = inputs
                .iter()
                .map(|(alpha, beta, offset_ps)| CornerDelays {
                    alpha,
                    beta,
                    offset_ps: *offset_ps,
                })
                .collect();
            for parity in [ParityPolicy::Ignore, ParityPolicy::ForceOdd] {
                let fast = case2_multi_corner(&corners, parity);
                let reference = oracle::case2_multi_corner(&corners, parity);
                prop_assert_eq!(&fast, &reference, "{:?}", parity);
                prop_assert_eq!(fast.margin().to_bits(), reference.margin().to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one corner")]
    fn empty_corner_list_panics() {
        let _ = case1_multi_corner(&[], ParityPolicy::Ignore);
    }

    #[test]
    #[should_panic(expected = "same stages")]
    fn mismatched_corner_lengths_panic() {
        let corners = [
            CornerDelays {
                alpha: &[1.0, 2.0],
                beta: &[1.0, 1.0],
                offset_ps: 0.0,
            },
            CornerDelays {
                alpha: &[1.0],
                beta: &[1.0],
                offset_ps: 0.0,
            },
        ];
        let _ = case1_multi_corner(&corners, ParityPolicy::Ignore);
    }
}
