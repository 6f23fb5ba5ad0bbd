//! Offline stand-in for the crates.io `rand` 0.8 API surface this
//! workspace uses: [`Rng`], [`RngCore`], [`SeedableRng`], and
//! [`rngs::StdRng`].
//!
//! The container this repo builds in has no registry access, so the
//! workspace vendors the small slice of `rand` it needs. Semantics
//! match upstream (uniform ranges are half-open, `gen::<f64>()` is in
//! `[0, 1)`, `seed_from_u64` expands the seed with SplitMix64) with one
//! deliberate divergence: `StdRng` is xoshiro256++ rather than ChaCha12,
//! so the generated *stream* differs from crates.io `rand`. Everything
//! in this workspace treats seeds as opaque reproducibility handles, so
//! only determinism — not the exact stream — matters.

/// Low-level uniform bit source.
pub trait RngCore {
    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rest = chunks.into_remainder();
        if !rest.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rest.copy_from_slice(&bytes[..rest.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

impl<R: RngCore + ?Sized> RngCore for Box<R> {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// User-facing sampling methods, blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    /// Samples a value of type `T` from the standard distribution.
    fn gen<T>(&mut self) -> T
    where
        distributions::Standard: distributions::Distribution<T>,
    {
        distributions::Distribution::sample(&distributions::Standard, self)
    }

    /// Samples uniformly from `range` (half-open or inclusive).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, Rg>(&mut self, range: Rg) -> T
    where
        Rg: distributions::uniform::SampleRange<T>,
    {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p ≤ 1`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool p out of range: {p}");
        self.gen::<f64>() < p
    }

    /// Fills `dest` with random data.
    fn fill(&mut self, dest: &mut [u8]) {
        self.fill_bytes(dest)
    }

    /// Samples from an explicit distribution.
    fn sample<T, D: distributions::Distribution<T>>(&mut self, distr: D) -> T {
        distr.sample(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Seedable generators.
pub trait SeedableRng: Sized {
    /// Raw seed type.
    type Seed: Sized + Default + AsMut<[u8]>;

    /// Creates a generator from a raw seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Creates a generator from a `u64`, expanded with SplitMix64 —
    /// the same convention as upstream `rand`.
    fn seed_from_u64(mut state: u64) -> Self {
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(4) {
            // SplitMix64 (Steele, Lea & Flood 2014), upstream's expander.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let bytes = (z as u32).to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

/// Standard and uniform distributions.
pub mod distributions {
    use super::Rng;

    /// A distribution over values of type `T`.
    pub trait Distribution<T> {
        /// Draws one sample.
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T;
    }

    /// The "natural" distribution for a type: uniform over all values
    /// for integers and `bool`, uniform in `[0, 1)` for floats.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Standard;

    macro_rules! standard_int {
        ($($t:ty => $via:ident),*) => {$(
            impl Distribution<$t> for Standard {
                fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> $t {
                    rng.$via() as $t
                }
            }
        )*};
    }
    standard_int!(u8 => next_u32, u16 => next_u32, u32 => next_u32,
                  i8 => next_u32, i16 => next_u32, i32 => next_u32,
                  u64 => next_u64, i64 => next_u64, usize => next_u64,
                  isize => next_u64, u128 => next_u64, i128 => next_u64);

    impl Distribution<bool> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
            rng.next_u32() & 1 == 1
        }
    }

    impl Distribution<f64> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
            // 53 uniform bits into [0, 1), upstream's convention.
            (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    impl Distribution<f32> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f32 {
            (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
        }
    }

    /// Uniform range sampling.
    pub mod uniform {
        use super::super::Rng;
        use std::ops::{Range, RangeInclusive};

        /// Types samplable uniformly from a range.
        pub trait SampleUniform: Sized {
            /// Uniform sample from `[low, high)`.
            fn sample_half_open<R: Rng + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;
            /// Uniform sample from `[low, high]`.
            fn sample_inclusive<R: Rng + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;
        }

        macro_rules! uniform_int {
            ($($t:ty),*) => {$(
                impl SampleUniform for $t {
                    fn sample_half_open<R: Rng + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                        assert!(low < high, "gen_range: empty range");
                        let span = (high as i128 - low as i128) as u128;
                        // Wide-multiply rejection-free mapping is overkill
                        // here; 128-bit modulo bias over u64 draws is
                        // < 2^-64 for every span this workspace uses.
                        let draw = ((rng.next_u64() as u128) << 64 | rng.next_u64() as u128) % span;
                        (low as i128 + draw as i128) as $t
                    }
                    fn sample_inclusive<R: Rng + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                        assert!(low <= high, "gen_range: empty range");
                        if low == <$t>::MIN && high == <$t>::MAX {
                            return rng.next_u64() as $t;
                        }
                        Self::sample_half_open(rng, low, high.wrapping_add(1))
                    }
                }
            )*};
        }
        uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

        macro_rules! uniform_float {
            ($($t:ty),*) => {$(
                impl SampleUniform for $t {
                    fn sample_half_open<R: Rng + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                        assert!(low < high, "gen_range: empty range");
                        let unit: $t = super::Distribution::sample(&super::Standard, rng);
                        low + unit * (high - low)
                    }
                    fn sample_inclusive<R: Rng + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                        assert!(low <= high, "gen_range: empty range");
                        let unit: $t = super::Distribution::sample(&super::Standard, rng);
                        low + unit * (high - low)
                    }
                }
            )*};
        }
        uniform_float!(f32, f64);

        /// Range forms accepted by [`Rng::gen_range`].
        pub trait SampleRange<T> {
            /// Draws one sample from the range.
            fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> T;
        }

        impl<T: SampleUniform + PartialOrd> SampleRange<T> for Range<T> {
            fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> T {
                T::sample_half_open(rng, self.start, self.end)
            }
        }

        impl<T: SampleUniform + PartialOrd> SampleRange<T> for RangeInclusive<T> {
            fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> T {
                let (low, high) = self.into_inner();
                T::sample_inclusive(rng, low, high)
            }
        }
    }
}

/// Named generator implementations.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard deterministic generator: xoshiro256++
    /// (Blackman & Vigna 2019).
    ///
    /// Upstream `rand` 0.8 uses ChaCha12 here; this stand-in trades
    /// stream compatibility for a dependency-free implementation. All
    /// statistical properties the workspace's tests rely on hold.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl StdRng {
        fn from_u64_words(words: [u64; 4]) -> Self {
            // xoshiro must not start from the all-zero state.
            if words == [0; 4] {
                Self {
                    s: [
                        0x9E37_79B9_7F4A_7C15,
                        0xBF58_476D_1CE4_E5B9,
                        0x94D0_49BB_1331_11EB,
                        0x2545_F491_4F6C_DD1D,
                    ],
                }
            } else {
                Self { s: words }
            }
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> Self {
            let mut words = [0u64; 4];
            for (w, chunk) in words.iter_mut().zip(seed.chunks_exact(8)) {
                *w = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            }
            Self::from_u64_words(words)
        }
    }

    impl RngCore for StdRng {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }

    /// Alias kept for call sites that ask for a small fast generator.
    pub type SmallRng = StdRng;
}

/// Re-export mirroring `rand::prelude`.
pub mod prelude {
    pub use super::distributions::Distribution;
    pub use super::rngs::{SmallRng, StdRng};
    pub use super::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.gen::<u64>() == b.gen::<u64>()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_is_unit_interval_and_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = rng.gen::<f64>();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x = rng.gen_range(10usize..20);
            assert!((10..20).contains(&x));
            let y = rng.gen_range(0usize..=5);
            assert!(y <= 5);
            let z = rng.gen_range(-1.0f64..1.0);
            assert!((-1.0..1.0).contains(&z));
        }
    }

    #[test]
    fn gen_range_covers_every_value() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut seen = [false; 6];
        for _ in 0..1000 {
            seen[rng.gen_range(0usize..6)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn bool_is_roughly_fair() {
        let mut rng = StdRng::seed_from_u64(5);
        let ones = (0..100_000).filter(|_| rng.gen::<bool>()).count();
        assert!((ones as i64 - 50_000).abs() < 1500, "ones {ones}");
    }

    #[test]
    fn works_through_unsized_trait_bound() {
        fn draw<R: Rng + ?Sized>(rng: &mut R) -> f64 {
            rng.gen::<f64>()
        }
        let mut rng = StdRng::seed_from_u64(11);
        let _ = draw(&mut rng);
    }
}
