//! Percentiles under the workspace's nearest-rank convention, and the
//! rule for which tail percentile a sample count can support.

use ropuf_num::stats;

/// Fewest samples that must lie beyond a percentile before it is
/// reported.
pub const MIN_BEYOND: usize = 10;

/// Width of the windows serve-workload figures are taken over, seconds.
pub const WINDOW_S: f64 = 0.1;

/// Across-window quantile the serve workloads report: a latency is the
/// p10 window (and a rate the p90 window), so a host stall that slows
/// part of a run, as a small shared virtual machine sees every few
/// seconds, moves the figure only when it covers most of the run.
pub const QUIET: f64 = 0.1;

/// Tail percentiles tried, highest first, when picking the highest
/// one a sample set supports.
const TAILS: [f64; 4] = [0.999, 0.99, 0.95, 0.9];

/// Samples strictly beyond the nearest-rank `q`-percentile of `n`
/// samples: the percentile is the `max(1, ceil(q·n))`-th smallest, so
/// `n − rank` samples rank above it.
pub fn beyond(n: usize, q: f64) -> usize {
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    n.saturating_sub(rank)
}

/// The nearest-rank `q`-percentile of `xs`
/// ([`ropuf_num::stats::percentile`]), refused (`None`) when fewer
/// than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(xs: &[f64], q: f64) -> Option<f64> {
    if beyond(xs.len(), q) < MIN_BEYOND {
        return None;
    }
    stats::percentile(xs, q)
}

/// Median (nearest-rank 0.5-percentile; needs [`MIN_BEYOND`] samples
/// above it like any other reported percentile).
pub fn p50(xs: &[f64]) -> Option<f64> {
    percentile(xs, 0.5)
}

/// The highest tail percentile in `TAILS` that `xs` supports, as
/// `(q, value)`.
pub fn highest_tail(xs: &[f64]) -> Option<(f64, f64)> {
    TAILS
        .iter()
        .find_map(|&q| percentile(xs, q).map(|v| (q, v)))
}

/// The `q`-percentile of each `window_s`-long window of `samples`
/// (bucketed by `times`, seconds), then the nearest-rank
/// `across`-quantile of those per-window figures, with the window count.
/// A window too small to support the percentile is left out; `None`
/// when no window supports it. A stall inside some windows moves those
/// windows' figures; a low `across` reports the quiet ones.
pub fn windowed(
    times: &[f64],
    samples: &[f64],
    window_s: f64,
    q: f64,
    across: f64,
) -> Option<(f64, usize)> {
    let mut windows: std::collections::BTreeMap<u64, Vec<f64>> = Default::default();
    for (&t, &x) in times.iter().zip(samples) {
        windows.entry((t / window_s) as u64).or_default().push(x);
    }
    let per_window: Vec<f64> = windows.values().filter_map(|w| percentile(w, q)).collect();
    Some((stats::percentile(&per_window, across)?, per_window.len()))
}

/// Median of a small set of repeated measurements (mean of the two
/// central values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    stats::median(xs).unwrap_or(f64::NAN)
}

/// Arithmetic mean, `0` for no samples.
pub fn mean(xs: &[f64]) -> f64 {
    stats::mean(xs).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_workspace_convention() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), Some(500.0));
        assert_eq!(percentile(&xs, 0.99), Some(990.0));
        assert_eq!(percentile(&xs, 0.99), stats::percentile(&xs, 0.99));
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 is rank 990, ten samples beyond.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(beyond(xs.len(), 0.99), 10);
        assert!(percentile(&xs, 0.99).is_some());
        // 999 samples: p99 is rank 990, nine beyond — refused.
        assert_eq!(beyond(999, 0.99), 9);
        assert!(percentile(&xs[..999], 0.99).is_none());
        assert!(percentile(&[], 0.5).is_none());
        assert!(p50(&xs[..19]).is_none());
        assert!(p50(&xs[..20]).is_some());
    }

    #[test]
    fn windowed_percentile_is_a_quantile_across_windows() {
        // Three 1 s windows of 1000 samples; the middle one stalls.
        let times: Vec<f64> = (0..3000).map(|i| f64::from(i) / 1000.0).collect();
        let samples: Vec<f64> = (0..3000)
            .map(|i| {
                if (1000..2000).contains(&i) {
                    1e4
                } else {
                    f64::from(i % 1000)
                }
            })
            .collect();
        assert_eq!(windowed(&times, &samples, 1.0, 0.99, 0.5), Some((989.0, 3)));
        assert_eq!(windowed(&times, &samples, 1.0, 0.99, 0.1), Some((989.0, 3)));
        assert_eq!(windowed(&times, &samples, 1.0, 0.99, 1.0), Some((1e4, 3)));
        // Windows without ten samples beyond p99 are left out.
        assert_eq!(
            windowed(&times[..500], &samples[..500], 1.0, 0.99, 0.5),
            None
        );
    }

    #[test]
    fn highest_tail_steps_down_with_fewer_samples() {
        let xs: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(highest_tail(&xs), Some((0.999, 9990.0)));
        assert_eq!(highest_tail(&xs[..5000]).map(|t| t.0), Some(0.99));
        assert_eq!(highest_tail(&xs[..150]).map(|t| t.0), Some(0.9));
        assert_eq!(highest_tail(&xs[..50]), None);
    }
}
