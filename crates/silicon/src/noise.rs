//! Gaussian sampling utilities.
//!
//! `rand` 0.8 ships only uniform primitives without the `rand_distr`
//! companion crate; the 256-layer ziggurat below (Marsaglia & Tsang,
//! *The Ziggurat Method for Generating Random Variables*, 2000) keeps the
//! workspace dependency-light while providing the normal draws every
//! variation and noise model needs. It is an exact sampler, not an
//! approximation: the layers tile the density at equal area, a point
//! that lands in a wedge is kept by testing it against `exp(−x²/2)`,
//! and draws beyond the base layer take Marsaglia's exact tail method.
//!
//! # Examples
//!
//! ```
//! use rand::SeedableRng;
//! use ropuf_silicon::noise::sample_normal;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let x = sample_normal(&mut rng, 10.0, 0.0);
//! assert_eq!(x, 10.0); // zero sigma is deterministic
//! ```

use std::sync::LazyLock;

use rand::Rng;

/// Where the base layer ends and the tail begins: Marsaglia & Tsang's
/// `R = 3.6541528853610088` for 256 layers (the same `f64`).
const TAIL_EDGE: f64 = 3.654_152_885_361_009;

/// The area of every layer: the base layer's rectangle `TAIL_EDGE ·
/// f(TAIL_EDGE)` plus the tail beyond it, for `f(x) = exp(−x²/2)`.
/// Marsaglia & Tsang publish `V = 0.00492867323399`; this is the same
/// area carried to double precision, with which the layer recursion
/// closes on `x = 0` to 1e-14 (the 12-digit value leaves the top layer
/// 1e-9 short of `V`).
const LAYER_AREA: f64 = 0.004_928_673_233_974_658;

/// `2⁻⁵¹`: the step of the `[−1, 1)` uniform a draw's top 52 bits make.
const TWO_POW_MINUS_51: f64 = 1.0 / (1u64 << 51) as f64;

/// `2⁻⁵³`: the step of a 53-bit uniform.
const TWO_POW_MINUS_53: f64 = 1.0 / (1u64 << 53) as f64;

/// The unnormalised standard normal density `exp(−x²/2)`.
fn density(x: f64) -> f64 {
    (-0.5 * x * x).exp()
}

/// The 256 layers: layer `i` is the rectangle `[0, x[i]] × [f[i],
/// f[i + 1]]`, except the base layer 0, which is `[0, x[0]] × [0, f[1]]`
/// with its part beyond `x[1] = TAIL_EDGE` standing in for the tail.
struct Ziggurat {
    /// Right edges, strictly decreasing from `x[0] = V / f(R)` through
    /// `x[1] = R` to `x[256] = 0`.
    x: [f64; 257],
    /// `f[i] = exp(−x[i]²/2)`.
    f: [f64; 257],
}

impl Ziggurat {
    /// Builds the layers from the recursion `x[i + 1] = f⁻¹(V / x[i] +
    /// f(x[i]))`, which gives each layer the area `V`.
    fn build() -> Self {
        let mut x = [0.0; 257];
        x[0] = LAYER_AREA / density(TAIL_EDGE);
        x[1] = TAIL_EDGE;
        for i in 2..256 {
            x[i] = (-2.0 * (LAYER_AREA / x[i - 1] + density(x[i - 1])).ln()).sqrt();
        }
        // x[256] = 0: the top layer reaches the peak.
        Self {
            x,
            f: x.map(density),
        }
    }
}

static ZIGGURAT: LazyLock<Ziggurat> = LazyLock::new(Ziggurat::build);

/// Draws one sample from `N(mean, sigma²)` with [`standard_normal`].
///
/// A `sigma` of zero returns `mean` exactly without touching the RNG.
///
/// # Panics
///
/// Panics if `sigma` is negative or not finite.
pub fn sample_normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, sigma: f64) -> f64 {
    assert!(
        sigma.is_finite() && sigma >= 0.0,
        "sigma must be finite and non-negative, got {sigma}"
    );
    if sigma == 0.0 {
        return mean;
    }
    mean + sigma * standard_normal(rng)
}

/// Draws one standard-normal sample with the 256-layer ziggurat.
///
/// Each attempt takes one `next_u64`: its low 8 bits pick a layer and
/// its top 52 bits a uniform `u` on `[−1, 1)`, and `x = u · x[layer]`.
/// About 99% of attempts land inside the density and return at once;
/// a point in a wedge draws a uniform height and is kept when it lies
/// under `exp(−x²/2)`; a point beyond the base layer's edge returns an
/// exact tail draw with the sign of `u`.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let zig = &*ZIGGURAT;
    loop {
        let bits = rng.next_u64();
        let layer = (bits & 0xff) as usize;
        let u = (bits >> 12) as f64 * TWO_POW_MINUS_51 - 1.0;
        let x = u * zig.x[layer];
        if x.abs() < zig.x[layer + 1] {
            return x;
        }
        if layer == 0 {
            return tail(rng, u < 0.0);
        }
        let (low, high) = (zig.f[layer], zig.f[layer + 1]);
        if low + (high - low) * rng.gen::<f64>() < density(x) {
            return x;
        }
    }
}

/// Marsaglia's exact draw from the normal tail beyond [`TAIL_EDGE`]:
/// an exponential proposal `R + x` kept with probability
/// `exp(−x²/2)`, negated when `negative`.
fn tail<R: Rng + ?Sized>(rng: &mut R, negative: bool) -> f64 {
    loop {
        let x = -unit_open_at_zero(rng).ln() / TAIL_EDGE;
        let y = -unit_open_at_zero(rng).ln();
        if y + y > x * x {
            let z = TAIL_EDGE + x;
            return if negative { -z } else { z };
        }
    }
}

/// A uniform on `(0, 1]`, so its logarithm is always finite.
fn unit_open_at_zero<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    ((rng.next_u64() >> 11) + 1) as f64 * TWO_POW_MINUS_53
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ropuf_num::special::{chi2_sf, normal_cdf};

    #[test]
    fn sample_statistics_match_parameters() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = 200_000;
        let mean = 3.0;
        let sigma = 2.0;
        let xs: Vec<f64> = (0..n)
            .map(|_| sample_normal(&mut rng, mean, sigma))
            .collect();
        let m = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (n - 1) as f64;
        assert!((m - mean).abs() < 0.02, "mean {m}");
        assert!((var - sigma * sigma).abs() < 0.1, "var {var}");
    }

    #[test]
    fn standard_normal_tail_fractions() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 100_000;
        let beyond_2: usize = (0..n)
            .filter(|_| standard_normal(&mut rng).abs() > 2.0)
            .count();
        let frac = beyond_2 as f64 / n as f64;
        // P(|Z| > 2) ≈ 4.55 %.
        assert!((frac - 0.0455).abs() < 0.01, "frac {frac}");
    }

    #[test]
    fn zero_sigma_is_exact_and_draws_nothing() {
        let mut rng = StdRng::seed_from_u64(0);
        let untouched = rng.clone();
        for _ in 0..10 {
            assert_eq!(sample_normal(&mut rng, -1.5, 0.0), -1.5);
        }
        assert_eq!(rng, untouched);
    }

    #[test]
    fn deterministic_under_seed() {
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..5)
                .map(|_| standard_normal(&mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(9), draw(9));
        assert_ne!(draw(9), draw(10));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_sigma_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = sample_normal(&mut rng, 0.0, -1.0);
    }

    #[test]
    fn layers_tile_the_density_at_equal_area() {
        let zig = &*ZIGGURAT;
        let rel = |area: f64| (area / LAYER_AREA - 1.0).abs();
        assert_eq!(zig.x[1], TAIL_EDGE);
        assert_eq!(zig.x[256], 0.0);
        assert!((zig.x[0] - 3.910_757_959_5).abs() < 1e-9, "{}", zig.x[0]);
        assert!(
            (zig.x[255] - 0.215_241_895_9).abs() < 1e-9,
            "{}",
            zig.x[255]
        );
        for i in 0..256 {
            assert!(zig.x[i + 1] < zig.x[i], "x[{}] >= x[{i}]", i + 1);
        }
        // The base layer: the rectangle under f(R) out to R plus the
        // tail ∫_R^∞ f = √(2π)·Φ(−R), and the rectangle that samples it.
        let tail = (2.0 * std::f64::consts::PI).sqrt() * normal_cdf(-TAIL_EDGE);
        let base = TAIL_EDGE * zig.f[1] + tail;
        assert!(rel(base) < 1e-12, "base layer {base}");
        assert!(rel(zig.x[0] * zig.f[1]) < 1e-12);
        // Every other layer, the top one (out to x[256] = 0) included.
        for i in 1..256 {
            let area = zig.x[i] * (zig.f[i + 1] - zig.f[i]);
            assert!(rel(area) < 1e-12, "layer {i}: area {area}");
        }
    }

    /// Draws `n` standard normals from `seed` and checks them against
    /// Φ: a chi-square over 0.1-wide bins on `[−4, 4)` plus the two
    /// open-ended bins beyond, the first four raw moments within five
    /// standard errors, and the mass beyond `±R` (the tail path's
    /// draws) on each side and in total within five binomial standard
    /// errors of `1 − Φ(R)`.
    fn check_against_phi(seed: u64, n: u64) {
        const BINS: usize = 82;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut counts = [0u64; BINS];
        let mut sums = [0.0f64; 4];
        let (mut below, mut above) = (0u64, 0u64);
        for _ in 0..n {
            let z = standard_normal(&mut rng);
            let bin = ((z + 4.0) * 10.0).floor().clamp(-1.0, 80.0) as i64 + 1;
            counts[bin as usize] += 1;
            let z2 = z * z;
            sums[0] += z;
            sums[1] += z2;
            sums[2] += z2 * z;
            sums[3] += z2 * z2;
            below += u64::from(z < -TAIL_EDGE);
            above += u64::from(z > TAIL_EDGE);
        }
        let nf = n as f64;
        let edge = |k: usize| match k {
            0 => 0.0,
            BINS => 1.0,
            k => normal_cdf(-4.0 + (k - 1) as f64 / 10.0),
        };
        let chi2: f64 = (0..BINS)
            .map(|k| {
                let expected = nf * (edge(k + 1) - edge(k));
                let d = counts[k] as f64 - expected;
                d * d / expected
            })
            .sum();
        let p = chi2_sf((BINS - 1) as f64, chi2);
        assert!(
            p > 1e-3,
            "chi-square {chi2:.1} on {} df: p = {p:.2e}",
            BINS - 1
        );

        // E[z^k] for k = 1..4 and Var(z^k) = E[z^2k] − E[z^k]².
        let want = [0.0, 1.0, 0.0, 3.0];
        let var = [1.0, 2.0, 15.0, 96.0];
        for k in 0..4 {
            let moment = sums[k] / nf;
            let se = (var[k] / nf).sqrt();
            assert!(
                (moment - want[k]).abs() < 5.0 * se,
                "E[z^{}] = {moment} against {} (se {se:.2e})",
                k + 1,
                want[k]
            );
        }

        let side = normal_cdf(-TAIL_EDGE);
        for (count, p, what) in [
            (below, side, "below -R"),
            (above, side, "above R"),
            (below + above, 2.0 * side, "beyond ±R"),
        ] {
            let expected = nf * p;
            let se = (nf * p * (1.0 - p)).sqrt();
            assert!(
                (count as f64 - expected).abs() < 5.0 * se,
                "{count} draws {what}, expected {expected:.1} ± {se:.1}"
            );
        }
    }

    #[test]
    fn standard_normal_matches_phi() {
        check_against_phi(2014, 1_000_000);
    }

    /// The same check at a sample size that resolves sub-percent
    /// distortions of single bins; CI runs it in release.
    #[test]
    #[ignore = "5×10⁷ draws; run in release with --ignored"]
    fn standard_normal_matches_phi_at_fifty_million_draws() {
        check_against_phi(1910, 50_000_000);
    }
}
