//! Descriptive statistics and histogram building.
//!
//! # Examples
//!
//! ```
//! use ropuf_num::stats::{mean, std_dev};
//! let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
//! assert_eq!(mean(&xs), Some(5.0));
//! assert!((std_dev(&xs).unwrap() - 2.138).abs() < 1e-3);
//! ```

use std::fmt;

/// Arithmetic mean, or `None` for an empty slice.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

/// Sample variance (Bessel-corrected, `n − 1` denominator), or `None` for
/// fewer than two samples.
pub fn variance(xs: &[f64]) -> Option<f64> {
    if xs.len() < 2 {
        return None;
    }
    let m = mean(xs)?;
    Some(xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64)
}

/// Sample standard deviation, or `None` for fewer than two samples.
pub fn std_dev(xs: &[f64]) -> Option<f64> {
    variance(xs).map(f64::sqrt)
}

/// Population variance (`n` denominator), or `None` for an empty slice.
pub fn population_variance(xs: &[f64]) -> Option<f64> {
    let m = mean(xs)?;
    Some(xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64)
}

/// Minimum value, or `None` for an empty slice. `NaN`s are ignored.
pub fn min(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().filter(|x| !x.is_nan()).reduce(f64::min)
}

/// Maximum value, or `None` for an empty slice. `NaN`s are ignored.
pub fn max(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().filter(|x| !x.is_nan()).reduce(f64::max)
}

/// The `q`-quantile (0 ≤ q ≤ 1) by the nearest-rank method on a sorted
/// copy, or `None` for an empty slice.
///
/// **Rank convention (pinned):** the result is the
/// `max(1, ceil(q·n))`-th smallest value — no interpolation, `q = 0`
/// maps to the minimum, `q = 1` to the maximum.
/// `ropuf_telemetry::HistogramSnapshot::quantile` uses the *same*
/// convention over bucketed data, so the two report the same order
/// statistic whenever a histogram bucket holds one distinct value; a
/// cross-crate test (`quantile_convention` in `ropuf-core`) enforces the
/// agreement.
///
/// **NaN contract:** like [`min`] and [`max`], `NaN` samples are
/// skipped — the rank is taken over the non-NaN values only, and an
/// all-NaN slice yields `None`. (Fault-injected measurement paths feed
/// these reducers, so a poisoned read must not panic the pipeline.)
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]`.
///
/// # Examples
///
/// ```
/// use ropuf_num::stats::percentile;
/// let xs = [3.0, 1.0, 2.0, 4.0];
/// assert_eq!(percentile(&xs, 0.0), Some(1.0));
/// assert_eq!(percentile(&xs, 0.5), Some(2.0)); // ceil(0.5·4) = 2nd smallest
/// assert_eq!(percentile(&xs, 1.0), Some(4.0));
/// ```
pub fn percentile(xs: &[f64], q: f64) -> Option<f64> {
    assert!(
        (0.0..=1.0).contains(&q),
        "quantile must be in [0, 1], got {q}"
    );
    // One copy, sized once, and a selection instead of a sort: floats
    // `total_cmp` calls equal are bitwise equal, so the value at `idx`
    // is the sorted order statistic, bit for bit.
    let mut v = Vec::with_capacity(xs.len());
    v.extend(xs.iter().copied().filter(|x| !x.is_nan()));
    if v.is_empty() {
        return None;
    }
    let idx = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1;
    Some(*v.select_nth_unstable_by(idx, f64::total_cmp).1)
}

/// Median (average of the two central order statistics for even n), or
/// `None` for an empty slice.
///
/// **NaN contract:** like [`min`], [`max`], and [`percentile`], `NaN`
/// samples are skipped; an all-NaN slice yields `None`.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v: Vec<f64> = xs.iter().copied().filter(|x| !x.is_nan()).collect();
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Pearson correlation coefficient of two equal-length samples, or `None`
/// if lengths differ, fewer than two points, or either sample is constant.
///
/// # Examples
///
/// ```
/// use ropuf_num::stats::pearson;
/// let x = [1.0, 2.0, 3.0, 4.0];
/// let y = [2.0, 4.0, 6.0, 8.0];
/// assert!((pearson(&x, &y).unwrap() - 1.0).abs() < 1e-12);
/// ```
pub fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let mx = mean(xs)?;
    let my = mean(ys)?;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    if sxx == 0.0 || syy == 0.0 {
        return None;
    }
    Some(sxy / (sxx * syy).sqrt())
}

/// A histogram over equal-width bins on a closed interval.
///
/// Out-of-range samples are clamped into the first/last bin and counted in
/// [`Histogram::clamped`], so totals always reconcile. `NaN` samples are
/// never binned — they are counted in [`Histogram::nan`] instead (a NaN
/// has no place on the axis, and silently dropping it into bin 0 — which
/// is what `NaN as usize` does — would skew attack statistics over faulty
/// reads).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<usize>,
    clamped: usize,
    nan: usize,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins spanning
    /// `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `lo >= hi`.
    ///
    /// # Examples
    ///
    /// ```
    /// use ropuf_num::stats::Histogram;
    /// let mut h = Histogram::new(0.0, 10.0, 5);
    /// h.add(3.2);
    /// h.add(9.9);
    /// assert_eq!(h.counts(), &[0, 1, 0, 0, 1]);
    /// ```
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(lo < hi, "histogram range must be non-empty: [{lo}, {hi}]");
        Self {
            lo,
            hi,
            counts: vec![0; bins],
            clamped: 0,
            nan: 0,
        }
    }

    /// Adds one sample. `NaN` is counted in [`Histogram::nan`] and does
    /// not touch any bin.
    pub fn add(&mut self, x: f64) {
        if x.is_nan() {
            self.nan += 1;
            return;
        }
        let bins = self.counts.len();
        let raw = ((x - self.lo) / (self.hi - self.lo) * bins as f64).floor();
        let idx = if raw < 0.0 {
            self.clamped += 1;
            0
        } else if raw as usize >= bins {
            if x > self.hi {
                self.clamped += 1;
            }
            bins - 1
        } else {
            raw as usize
        };
        self.counts[idx] += 1;
    }

    /// Adds every sample from an iterator.
    pub fn add_all<I: IntoIterator<Item = f64>>(&mut self, xs: I) {
        for x in xs {
            self.add(x);
        }
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// Total number of samples recorded.
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Number of samples that fell outside `[lo, hi]` and were clamped.
    pub fn clamped(&self) -> usize {
        self.clamped
    }

    /// Number of `NaN` samples rejected by [`Histogram::add`].
    pub fn nan(&self) -> usize {
        self.nan
    }

    /// `(low_edge, high_edge)` of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bin_edges(&self, i: usize) -> (f64, f64) {
        assert!(i < self.counts.len(), "bin {i} out of range");
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        (self.lo + w * i as f64, self.lo + w * (i + 1) as f64)
    }

    /// Renders an ASCII bar chart, one row per bin, scaled to `width`
    /// characters for the fullest bin.
    pub fn to_ascii(&self, width: usize) -> String {
        let maxc = self.counts.iter().copied().max().unwrap_or(0).max(1);
        let mut out = String::new();
        for (i, &c) in self.counts.iter().enumerate() {
            let (lo, hi) = self.bin_edges(i);
            let bar = "#".repeat(c * width / maxc);
            out.push_str(&format!("[{lo:8.2}, {hi:8.2}) {c:6} {bar}\n"));
        }
        out
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_ascii(40))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_known() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(mean(&xs), Some(3.0));
        assert_eq!(variance(&xs), Some(2.5));
        assert!((std_dev(&xs).unwrap() - 2.5f64.sqrt()).abs() < 1e-12);
        assert_eq!(population_variance(&xs), Some(2.0));
    }

    #[test]
    fn empty_inputs_yield_none() {
        assert_eq!(mean(&[]), None);
        assert_eq!(variance(&[1.0]), None);
        assert_eq!(std_dev(&[]), None);
        assert_eq!(median(&[]), None);
        assert_eq!(min(&[]), None);
        assert_eq!(max(&[]), None);
        assert_eq!(pearson(&[1.0], &[2.0]), None);
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&xs, 0.0), Some(10.0));
        assert_eq!(percentile(&xs, 0.2), Some(10.0));
        assert_eq!(percentile(&xs, 0.21), Some(20.0));
        assert_eq!(percentile(&xs, 1.0), Some(50.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    #[should_panic(expected = "quantile must be in")]
    fn percentile_out_of_range_panics() {
        let _ = percentile(&[1.0], 1.5);
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn min_max_ignore_nan() {
        let xs = [2.0, f64::NAN, -1.0, 5.0];
        assert_eq!(min(&xs), Some(-1.0));
        assert_eq!(max(&xs), Some(5.0));
    }

    /// Regression: `median` used to panic through
    /// `partial_cmp().expect(...)` the moment a NaN reached it. The
    /// contract is now the same as `min`/`max`: NaNs are skipped, and
    /// an all-NaN sample is `None`, not a panic.
    #[test]
    fn median_and_percentile_skip_nan() {
        let xs = [3.0, f64::NAN, 1.0, 2.0];
        assert_eq!(median(&xs), Some(2.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 1.0), Some(3.0));
        assert_eq!(median(&[f64::NAN, f64::NAN]), None);
        assert_eq!(percentile(&[f64::NAN], 0.5), None);
        // Even-n median still averages the two central non-NaN values.
        assert_eq!(median(&[4.0, f64::NAN, 1.0, 3.0, 2.0, f64::NAN]), Some(2.5));
    }

    #[test]
    fn pearson_anticorrelated() {
        let x = [1.0, 2.0, 3.0];
        let y = [3.0, 2.0, 1.0];
        assert!((pearson(&x, &y).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_constant_sample_is_none() {
        assert_eq!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), None);
    }

    #[test]
    fn histogram_binning_and_edges() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.add_all([0.0, 0.1, 0.3, 0.5, 0.99, 1.0].iter().copied());
        // 1.0 lands in the last bin (closed upper edge).
        assert_eq!(h.counts(), &[2, 1, 1, 2]);
        assert_eq!(h.total(), 6);
        assert_eq!(h.clamped(), 0);
        assert_eq!(h.bin_edges(0), (0.0, 0.25));
        assert_eq!(h.bin_edges(3), (0.75, 1.0));
    }

    #[test]
    fn histogram_clamps_outliers() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.add(-5.0);
        h.add(7.0);
        assert_eq!(h.counts(), &[1, 1]);
        assert_eq!(h.clamped(), 2);
    }

    /// Regression: a NaN sample used to fall through both range tests
    /// (`NaN < 0.0` is false, `NaN as usize` is 0) and land in bin 0
    /// with `clamped` untouched, so totals silently over-counted bin 0.
    /// NaN is now tracked in its own counter and never binned.
    #[test]
    fn histogram_counts_nan_separately() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.add_all([0.1, f64::NAN, 0.6, f64::NAN, f64::NAN].iter().copied());
        assert_eq!(h.counts(), &[1, 0, 1, 0], "NaN must not reach bin 0");
        assert_eq!(h.total(), 2);
        assert_eq!(h.clamped(), 0, "NaN is not a clamped out-of-range value");
        assert_eq!(h.nan(), 3);
    }

    #[test]
    fn histogram_ascii_contains_bars() {
        let mut h = Histogram::new(0.0, 2.0, 2);
        h.add_all([0.5, 0.5, 1.5].iter().copied());
        let s = h.to_ascii(10);
        assert!(s.contains('#'));
        assert_eq!(s.lines().count(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn histogram_zero_bins_panics() {
        let _ = Histogram::new(0.0, 1.0, 0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn histogram_empty_range_panics() {
        let _ = Histogram::new(1.0, 1.0, 3);
    }
}
