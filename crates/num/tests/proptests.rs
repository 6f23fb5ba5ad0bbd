//! Property-based tests for the numeric substrate.

use std::hash::{DefaultHasher, Hash, Hasher};

use proptest::prelude::*;
use ropuf_num::bits::BitVec;
use ropuf_num::fft::{dft_naive, fft, ifft, Complex};
use ropuf_num::gf2::{binary_rank, linear_complexity};
use ropuf_num::linalg::Matrix;
use ropuf_num::special::{chi2_sf, erf, erfc, igam, igamc};
use ropuf_num::stats::{mean, median, min, percentile, Histogram};

proptest! {
    #[test]
    fn bitvec_roundtrip_via_string(bits in proptest::collection::vec(any::<bool>(), 0..300)) {
        let v: BitVec = bits.iter().copied().collect();
        let s = v.to_binary_string();
        let back = BitVec::from_binary_str(&s).unwrap();
        prop_assert_eq!(&v, &back);
        prop_assert_eq!(v.to_bools(), bits);
    }

    #[test]
    fn bitvec_packs_lsb_first_and_unpacks_back(
        bits in proptest::collection::vec(any::<bool>(), 0..300),
        junk in any::<u8>(),
    ) {
        let v: BitVec = bits.iter().copied().collect();
        let mut packed = vec![0xA5]; // appends after what is there
        BitVec::pack(v.iter(), &mut packed);
        let mut expected = vec![0u8; bits.len().div_ceil(8)];
        for (i, &b) in bits.iter().enumerate() {
            expected[i / 8] |= u8::from(b) << (i % 8);
        }
        prop_assert_eq!(&packed[1..], &expected[..]);
        prop_assert_eq!(&BitVec::unpack(&packed[1..], bits.len()).collect::<BitVec>(), &v);
        prop_assert_eq!(&BitVec::from_packed(&packed[1..], bits.len()), &v);
        // Junk past the last bit and trailing bytes are ignored.
        if let Some(last) = expected.last_mut() {
            if bits.len() % 8 != 0 {
                *last |= junk << (bits.len() % 8);
            }
        }
        expected.push(junk);
        prop_assert_eq!(BitVec::unpack(&expected, bits.len()).collect::<BitVec>(), v.clone());
        // `from_packed` clears the junk too, so it equals the pushed
        // vector word for word.
        prop_assert_eq!(BitVec::from_packed(&expected, bits.len()), v);
    }

    /// Every operation agrees with a `Vec<bool>` model on lengths 0-300,
    /// across the 128 bits a vector holds in place, whichever way the
    /// vector was built (collected, pushed, zeros then set, unpacked
    /// from bytes, or grown from `with_capacity` on either side of 128):
    /// equal bits give `==` and the hash of the `(Vec<u64>, usize)` of
    /// their words and length.
    #[test]
    fn bitvec_matches_the_vec_bool_model_across_the_spill(
        bits in proptest::collection::vec(any::<bool>(), 0..=300),
        mask in proptest::collection::vec(any::<bool>(), 300),
        extra in proptest::collection::vec(any::<bool>(), 0..=300),
        ways in proptest::collection::vec(0usize..5, 2),
        cap in 0usize..1200,
        index in 0usize..300,
        pushed in any::<bool>(),
    ) {
        let n = bits.len();
        let v = build(&bits, ways[0], cap);
        let w = build(&bits, ways[1], cap);
        prop_assert_eq!(&v, &w);
        prop_assert_eq!(hash_of(&v), hash_of(&w));
        prop_assert_eq!(hash_of(&v), hash_of(&(model_words(&bits), n)));
        prop_assert_eq!(v.len(), n);
        prop_assert_eq!(v.is_empty(), n == 0);
        for (i, &b) in bits.iter().enumerate() {
            prop_assert_eq!(v.get(i), Some(b), "bit {}", i);
        }
        prop_assert_eq!(v.get(n), None);
        prop_assert_eq!(v.iter().len(), n);
        prop_assert_eq!(v.iter().collect::<Vec<bool>>(), bits.clone());
        prop_assert_eq!(v.to_bools(), bits.clone());
        let ones = bits.iter().filter(|&&b| b).count();
        prop_assert_eq!(v.count_ones(), ones);
        prop_assert_eq!(v.count_zeros(), n - ones);

        // Hamming distance and xor against a vector of the same length.
        let other: BitVec = mask[..n].iter().copied().collect();
        let xored: Vec<bool> = bits.iter().zip(&mask).map(|(a, b)| a ^ b).collect();
        prop_assert_eq!(v.hamming_distance(&other), Some(xored.iter().filter(|&&b| b).count()));
        prop_assert_eq!(v.xor(&other).to_bools(), xored.clone());
        prop_assert_eq!(v.xor(&other), build(&xored, ways[1], cap));
        let flipped: Vec<bool> = bits.iter().map(|b| !b).collect();
        prop_assert_eq!(v.complement().to_bools(), flipped.clone());
        prop_assert_eq!(v.complement(), build(&flipped, ways[0], cap));

        // Packing and unpacking.
        let mut packed = Vec::new();
        BitVec::pack(v.iter(), &mut packed);
        prop_assert_eq!(BitVec::unpack(&packed, n).collect::<Vec<bool>>(), bits.clone());
        prop_assert_eq!(&BitVec::from_packed(&packed, n), &v);

        // Setting one bit: the vector follows the model, and differs from
        // the unchanged one exactly when the bit changed.
        if n > 0 {
            let i = index % n;
            let mut set = w.clone();
            set.set(i, !bits[i]);
            let mut model = bits.clone();
            model[i] = !bits[i];
            prop_assert_eq!(set.to_bools(), model.clone());
            prop_assert_ne!(&set, &v);
            set.set(i, bits[i]);
            prop_assert_eq!(&set, &v);
            prop_assert_eq!(hash_of(&set), hash_of(&v));
        }

        // Growing: one push, then a whole vector, across the spill.
        let mut grown = v.clone();
        grown.push(pushed);
        let mut model = bits.clone();
        model.push(pushed);
        prop_assert_eq!(&grown, &build(&model, ways[1], cap));
        let tail = build(&extra, ways[0], cap);
        grown.extend_bits(&tail);
        model.extend_from_slice(&extra);
        prop_assert_eq!(grown.to_bools(), model.clone());
        prop_assert_eq!(&grown, &build(&model, ways[1], cap));
        prop_assert_eq!(hash_of(&grown), hash_of(&(model_words(&model), model.len())));
    }

    #[test]
    fn bitvec_hamming_is_metric(
        a in proptest::collection::vec(any::<bool>(), 1..200),
        b in proptest::collection::vec(any::<bool>(), 1..200),
        c in proptest::collection::vec(any::<bool>(), 1..200),
    ) {
        let n = a.len().min(b.len()).min(c.len());
        let va: BitVec = a[..n].iter().copied().collect();
        let vb: BitVec = b[..n].iter().copied().collect();
        let vc: BitVec = c[..n].iter().copied().collect();
        let dab = va.hamming_distance(&vb).unwrap();
        let dba = vb.hamming_distance(&va).unwrap();
        prop_assert_eq!(dab, dba); // symmetry
        prop_assert_eq!(va.hamming_distance(&va).unwrap(), 0); // identity
        let dac = va.hamming_distance(&vc).unwrap();
        let dcb = vc.hamming_distance(&vb).unwrap();
        prop_assert!(dab <= dac + dcb); // triangle inequality
    }

    #[test]
    fn bitvec_complement_flips_every_bit(bits in proptest::collection::vec(any::<bool>(), 0..200)) {
        let v: BitVec = bits.iter().copied().collect();
        let c = v.complement();
        prop_assert_eq!(c.len(), v.len());
        prop_assert_eq!(v.count_ones() + c.count_ones(), v.len());
        if !v.is_empty() {
            prop_assert_eq!(v.hamming_distance(&c), Some(v.len()));
        }
        prop_assert_eq!(c.complement(), v);
    }

    #[test]
    fn igam_plus_igamc_is_one(a in 0.05f64..50.0, x in 0.0f64..100.0) {
        let total = igam(a, x) + igamc(a, x);
        prop_assert!((total - 1.0).abs() < 1e-9, "a={a} x={x} total={total}");
    }

    #[test]
    fn igamc_in_unit_interval(a in 0.05f64..50.0, x in 0.0f64..100.0) {
        let q = igamc(a, x);
        prop_assert!((-1e-12..=1.0 + 1e-12).contains(&q));
    }

    #[test]
    fn erf_odd_erfc_complement(x in -6.0f64..6.0) {
        prop_assert!((erf(x) + erf(-x)).abs() < 1e-12);
        prop_assert!((erf(x) + erfc(x) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn chi2_sf_monotone(df in 1.0f64..30.0, x in 0.0f64..50.0, dx in 0.01f64..10.0) {
        prop_assert!(chi2_sf(df, x) >= chi2_sf(df, x + dx) - 1e-12);
    }

    #[test]
    fn fft_matches_naive(n in 1usize..40, seed in any::<u64>()) {
        // Pseudo-random but deterministic input from the seed.
        let x: Vec<Complex> = (0..n)
            .map(|i| {
                let h = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i as u64);
                let r = ((h >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0;
                Complex::new(r, -r * 0.5)
            })
            .collect();
        let a = fft(&x);
        let b = dft_naive(&x);
        for (u, v) in a.iter().zip(&b) {
            prop_assert!((u.re - v.re).abs() < 1e-7 && (u.im - v.im).abs() < 1e-7);
        }
    }

    #[test]
    fn ifft_inverts(n in 1usize..64, seed in any::<u64>()) {
        let x: Vec<Complex> = (0..n)
            .map(|i| {
                let h = seed.wrapping_add((i as u64) << 17).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                Complex::new((h as f64 / u64::MAX as f64) - 0.5, ((h >> 7) as f64 / u64::MAX as f64) - 0.5)
            })
            .collect();
        let y = ifft(&fft(&x));
        for (u, v) in x.iter().zip(&y) {
            prop_assert!((u.re - v.re).abs() < 1e-8 && (u.im - v.im).abs() < 1e-8);
        }
    }

    #[test]
    fn solve_then_multiply_recovers_rhs(
        n in 1usize..6,
        seed in any::<u64>(),
    ) {
        // Build a diagonally dominant (hence nonsingular) matrix.
        let mut a = Matrix::zeros(n, n);
        let mut h = seed | 1;
        let mut next = || {
            h ^= h << 13; h ^= h >> 7; h ^= h << 17;
            (h as f64 / u64::MAX as f64) - 0.5
        };
        for i in 0..n {
            let mut rowsum = 0.0;
            for j in 0..n {
                let v = next();
                a[(i, j)] = v;
                rowsum += v.abs();
            }
            a[(i, i)] += rowsum + 1.0;
        }
        let b: Vec<f64> = (0..n).map(|_| next()).collect();
        let x = a.solve(&b).unwrap();
        let back = a.matvec(&x);
        for (u, v) in back.iter().zip(&b) {
            prop_assert!((u - v).abs() < 1e-8);
        }
    }

    #[test]
    fn binary_rank_bounds(rows in 1usize..12, cols in 1usize..12, seed in any::<u64>()) {
        let rank = binary_rank(rows, cols, |i, j| {
            (seed >> ((i * cols + j) % 63)) & 1 == 1
        });
        prop_assert!(rank <= rows.min(cols));
    }

    #[test]
    fn rank_is_invariant_under_row_swap(seed in any::<u64>()) {
        let n = 6;
        let bit = |i: usize, j: usize| (seed >> ((i * n + j) % 63)) & 1 == 1;
        let r1 = binary_rank(n, n, bit);
        // Swap rows 0 and 1.
        let r2 = binary_rank(n, n, |i, j| {
            let i = match i { 0 => 1, 1 => 0, other => other };
            bit(i, j)
        });
        prop_assert_eq!(r1, r2);
    }

    #[test]
    fn linear_complexity_bounded_by_length(bits in proptest::collection::vec(any::<bool>(), 0..120)) {
        let l = linear_complexity(&bits);
        prop_assert!(l <= bits.len());
        // An LFSR of length L generating the sequence also generates any prefix.
        if !bits.is_empty() {
            let lp = linear_complexity(&bits[..bits.len() - 1]);
            prop_assert!(lp <= l);
        }
    }

    #[test]
    fn percentile_is_the_sorted_order_statistic_bit_for_bit(
        xs in proptest::collection::vec(
            proptest::sample::select(vec![
                f64::NAN, -f64::NAN, 0.0, -0.0, 1.0, 1.0, 1.0, -2.5, 7.0, 1e300,
                f64::INFINITY, f64::NEG_INFINITY, f64::MIN_POSITIVE, -f64::MIN_POSITIVE,
            ]),
            0..60,
        ),
        noise in proptest::collection::vec(-1e3f64..1e3, 0..40),
        q in proptest::sample::select(vec![0.0, 1.0, 0.5, 0.25, 0.9, 0.999, 1e-9, 1.0 - 1e-12]),
        q_any in 0.0f64..=1.0,
    ) {
        // The replaced construction: filter NaNs, sort by total_cmp,
        // take the nearest-rank order statistic.
        let sorted_rank = |xs: &[f64], q: f64| {
            let mut v: Vec<f64> = xs.iter().copied().filter(|x| !x.is_nan()).collect();
            if v.is_empty() {
                return None;
            }
            v.sort_by(f64::total_cmp);
            let idx = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1;
            Some(v[idx])
        };
        let all: Vec<f64> = xs.iter().chain(&noise).copied().collect();
        for sample in [&xs[..], &all[..]] {
            for q in [q, q_any] {
                prop_assert_eq!(
                    percentile(sample, q).map(f64::to_bits),
                    sorted_rank(sample, q).map(f64::to_bits),
                    "q = {}", q
                );
            }
        }
    }

    #[test]
    fn mean_between_min_and_max(xs in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
        let m = mean(&xs).unwrap();
        prop_assert!(m >= min(&xs).unwrap() - 1e-6);
        prop_assert!(m <= ropuf_num::stats::max(&xs).unwrap() + 1e-6);
        let med = median(&xs).unwrap();
        prop_assert!(med >= min(&xs).unwrap());
        prop_assert!(med <= ropuf_num::stats::max(&xs).unwrap());
    }

    #[test]
    fn histogram_total_matches_samples(xs in proptest::collection::vec(-10.0f64..10.0, 0..200)) {
        let mut h = Histogram::new(-5.0, 5.0, 7);
        h.add_all(xs.iter().copied());
        prop_assert_eq!(h.total(), xs.len());
    }
}

/// `bits` as a `BitVec` built one of five ways: 0 collects, 1 pushes
/// onto an empty vector, 2 sets bits of `zeros`, 3 unpacks the packed
/// bytes, 4 extends `with_capacity(cap)`.
fn build(bits: &[bool], way: usize, cap: usize) -> BitVec {
    match way {
        0 => bits.iter().copied().collect(),
        1 => {
            let mut v = BitVec::new();
            for &b in bits {
                v.push(b);
            }
            v
        }
        2 => {
            let mut v = BitVec::zeros(bits.len());
            for (i, &b) in bits.iter().enumerate() {
                v.set(i, b);
            }
            v
        }
        3 => {
            let mut bytes = vec![0u8; bits.len().div_ceil(8)];
            for (i, &b) in bits.iter().enumerate() {
                bytes[i / 8] |= u8::from(b) << (i % 8);
            }
            BitVec::from_packed(&bytes, bits.len())
        }
        _ => {
            let mut v = BitVec::with_capacity(cap);
            v.extend(bits.iter().copied());
            v
        }
    }
}

/// The words `bits` packs into, least-significant bit first.
fn model_words(bits: &[bool]) -> Vec<u64> {
    let mut words = vec![0u64; bits.len().div_ceil(64)];
    for (i, &b) in bits.iter().enumerate() {
        words[i / 64] |= u64::from(b) << (i % 64);
    }
    words
}

fn hash_of(value: &impl Hash) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}
