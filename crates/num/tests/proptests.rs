//! Property-based tests for the numeric substrate.

use proptest::prelude::*;
use ropuf_num::bits::BitVec;
use ropuf_num::fft::{dft_naive, fft, ifft, Complex};
use ropuf_num::gf2::{binary_rank, linear_complexity};
use ropuf_num::linalg::Matrix;
use ropuf_num::special::{chi2_sf, erf, erfc, igam, igamc};
use ropuf_num::stats::{mean, median, min, Histogram};

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
        // Junk past the last bit and trailing bytes are ignored.
        if let Some(last) = expected.last_mut() {
            if bits.len() % 8 != 0 {
                *last |= junk << (bits.len() % 8);
            }
        }
        expected.push(junk);
        prop_assert_eq!(BitVec::unpack(&expected, bits.len()).collect::<BitVec>(), v);
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
