//! Packed bit vectors.
//!
//! [`BitVec`] is the common currency for PUF responses, configuration
//! vectors and NIST input streams across the workspace: 64 bits per word,
//! O(1) indexed access, and word-parallel Hamming distance.
//!
//! # Examples
//!
//! ```
//! use ropuf_num::bits::BitVec;
//!
//! let mut v = BitVec::new();
//! v.push(true);
//! v.push(false);
//! v.push(true);
//! assert_eq!(v.len(), 3);
//! assert_eq!(v.count_ones(), 2);
//! assert_eq!(v.to_binary_string(), "101");
//! ```

use std::fmt;

/// A growable, packed vector of bits.
///
/// Bits are stored least-significant-first within 64-bit words. The type
/// implements [`FromIterator<bool>`] and [`Extend<bool>`] so responses can
/// be `collect()`ed directly, and word-parallel XOR/Hamming operations for
/// the metrics crate.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Creates an empty bit vector.
    ///
    /// # Examples
    ///
    /// ```
    /// use ropuf_num::bits::BitVec;
    /// assert!(BitVec::new().is_empty());
    /// ```
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty bit vector with room for `n` bits.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            words: Vec::with_capacity(n.div_ceil(64)),
            len: 0,
        }
    }

    /// Creates a bit vector of `n` zero bits.
    ///
    /// # Examples
    ///
    /// ```
    /// use ropuf_num::bits::BitVec;
    /// let v = BitVec::zeros(130);
    /// assert_eq!(v.len(), 130);
    /// assert_eq!(v.count_ones(), 0);
    /// ```
    pub fn zeros(n: usize) -> Self {
        Self {
            words: vec![0; n.div_ceil(64)],
            len: n,
        }
    }

    /// Parses a string of `'0'`/`'1'` characters.
    ///
    /// # Errors
    ///
    /// Returns [`ParseBitsError`] if any character is not `'0'` or `'1'`.
    ///
    /// # Examples
    ///
    /// ```
    /// use ropuf_num::bits::BitVec;
    /// # fn main() -> Result<(), ropuf_num::bits::ParseBitsError> {
    /// let v = BitVec::from_binary_str("1101")?;
    /// assert_eq!(v.count_ones(), 3);
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_binary_str(s: &str) -> Result<Self, ParseBitsError> {
        let mut v = Self::with_capacity(s.len());
        for (i, c) in s.chars().enumerate() {
            match c {
                '0' => v.push(false),
                '1' => v.push(true),
                other => {
                    return Err(ParseBitsError {
                        position: i,
                        found: other,
                    })
                }
            }
        }
        Ok(v)
    }

    /// Number of bits stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector holds no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one bit.
    pub fn push(&mut self, bit: bool) {
        let word = self.len / 64;
        let off = self.len % 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        if bit {
            self.words[word] |= 1u64 << off;
        }
        self.len += 1;
    }

    /// Returns the bit at `index`, or `None` if out of range.
    ///
    /// # Examples
    ///
    /// ```
    /// use ropuf_num::bits::BitVec;
    /// let v: BitVec = [true, false].iter().copied().collect();
    /// assert_eq!(v.get(0), Some(true));
    /// assert_eq!(v.get(2), None);
    /// ```
    pub fn get(&self, index: usize) -> Option<bool> {
        if index >= self.len {
            return None;
        }
        Some(self.words[index / 64] >> (index % 64) & 1 == 1)
    }

    /// Sets the bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn set(&mut self, index: usize, bit: bool) {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        let mask = 1u64 << (index % 64);
        if bit {
            self.words[index / 64] |= mask;
        } else {
            self.words[index / 64] &= !mask;
        }
    }

    /// Number of one bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of zero bits.
    pub fn count_zeros(&self) -> usize {
        self.len - self.count_ones()
    }

    /// Fraction of bits that are one, or `None` for an empty vector.
    ///
    /// # Examples
    ///
    /// ```
    /// use ropuf_num::bits::BitVec;
    /// let v = BitVec::from_binary_str("1100").unwrap();
    /// assert_eq!(v.ones_fraction(), Some(0.5));
    /// ```
    pub fn ones_fraction(&self) -> Option<f64> {
        if self.is_empty() {
            None
        } else {
            Some(self.count_ones() as f64 / self.len as f64)
        }
    }

    /// Hamming distance to another vector of the same length, or `None`
    /// if the lengths differ.
    ///
    /// # Examples
    ///
    /// ```
    /// use ropuf_num::bits::BitVec;
    /// let a = BitVec::from_binary_str("10110").unwrap();
    /// let b = BitVec::from_binary_str("11100").unwrap();
    /// assert_eq!(a.hamming_distance(&b), Some(2));
    /// ```
    pub fn hamming_distance(&self, other: &Self) -> Option<usize> {
        if self.len != other.len {
            return None;
        }
        Some(
            self.words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| (a ^ b).count_ones() as usize)
                .sum(),
        )
    }

    /// Bitwise XOR with another vector of the same length.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn xor(&self, other: &Self) -> Self {
        assert_eq!(self.len, other.len, "xor requires equal lengths");
        Self {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a ^ b)
                .collect(),
            len: self.len,
        }
    }

    /// Bitwise complement (within `len` bits).
    ///
    /// # Examples
    ///
    /// ```
    /// use ropuf_num::bits::BitVec;
    /// let v = BitVec::from_binary_str("101").unwrap();
    /// assert_eq!(v.complement().to_binary_string(), "010");
    /// ```
    pub fn complement(&self) -> Self {
        let mut words: Vec<u64> = self.words.iter().map(|w| !w).collect();
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
        Self {
            words,
            len: self.len,
        }
    }

    /// Concatenates `other` onto the end of `self`.
    pub fn extend_bits(&mut self, other: &Self) {
        for b in other.iter() {
            self.push(b);
        }
    }

    /// Iterator over the bits.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            bits: self,
            index: 0,
        }
    }

    /// Appends `bits` packed LSB-first: bit `i` becomes bit `i % 8` of
    /// byte `i / 8`, and a partial last byte is zero-padded. This is the
    /// byte form Key Codes and wire frames carry; [`unpack`](Self::unpack)
    /// reads it back.
    ///
    /// # Examples
    ///
    /// ```
    /// use ropuf_num::bits::BitVec;
    /// let v = BitVec::from_binary_str("1100000001").unwrap();
    /// let mut bytes = Vec::new();
    /// BitVec::pack(v.iter(), &mut bytes);
    /// assert_eq!(bytes, [0b0000_0011, 0b0000_0010]);
    /// assert_eq!(BitVec::unpack(&bytes, v.len()).collect::<BitVec>(), v);
    /// ```
    pub fn pack(bits: impl IntoIterator<Item = bool>, out: &mut Vec<u8>) {
        let (mut byte, mut filled) = (0u8, 0u32);
        for bit in bits {
            byte |= u8::from(bit) << filled;
            filled += 1;
            if filled == 8 {
                out.push(byte);
                (byte, filled) = (0, 0);
            }
        }
        if filled > 0 {
            out.push(byte);
        }
    }

    /// The first `len` bits of LSB-first packed `bytes`, in order: the
    /// inverse of [`pack`](Self::pack). Bits past `len` in the last byte
    /// are ignored. Collect them into a `BitVec`, or zip two planes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` holds fewer than `len.div_ceil(8)` bytes.
    #[inline]
    pub fn unpack(bytes: &[u8], len: usize) -> impl ExactSizeIterator<Item = bool> + '_ {
        let bytes = &bytes[..len.div_ceil(8)];
        (0..len).map(move |i| bytes[i / 8] >> (i % 8) & 1 == 1)
    }

    /// Collects the bits into a `Vec<bool>`.
    pub fn to_bools(&self) -> Vec<bool> {
        self.iter().collect()
    }

    /// Renders as a `'0'`/`'1'` string.
    pub fn to_binary_string(&self) -> String {
        self.iter().map(|b| if b { '1' } else { '0' }).collect()
    }

    /// Converts bits to ±1 values (`1 → +1.0`, `0 → −1.0`), the form most
    /// NIST tests consume.
    pub fn to_plus_minus_one(&self) -> Vec<f64> {
        self.iter().map(|b| if b { 1.0 } else { -1.0 }).collect()
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec({})", self.to_binary_string())
    }
}

impl fmt::Display for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_binary_string())
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let mut v = BitVec::new();
        v.extend(iter);
        v
    }
}

impl Extend<bool> for BitVec {
    fn extend<I: IntoIterator<Item = bool>>(&mut self, iter: I) {
        for b in iter {
            self.push(b);
        }
    }
}

impl From<&[bool]> for BitVec {
    fn from(bits: &[bool]) -> Self {
        bits.iter().copied().collect()
    }
}

/// Iterator over the bits of a [`BitVec`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    bits: &'a BitVec,
    index: usize,
}

impl Iterator for Iter<'_> {
    type Item = bool;

    fn next(&mut self) -> Option<bool> {
        let b = self.bits.get(self.index)?;
        self.index += 1;
        Some(b)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.bits.len - self.index;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a BitVec {
    type Item = bool;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Error returned by [`BitVec::from_binary_str`] on a non-binary character.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseBitsError {
    /// Byte position of the offending character.
    pub position: usize,
    /// The offending character.
    pub found: char,
}

impl fmt::Display for ParseBitsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid bit character {:?} at position {}",
            self.found, self.position
        )
    }
}

impl std::error::Error for ParseBitsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_roundtrip_across_word_boundary() {
        let mut v = BitVec::new();
        let pattern: Vec<bool> = (0..200).map(|i| i % 3 == 0).collect();
        for &b in &pattern {
            v.push(b);
        }
        assert_eq!(v.len(), 200);
        for (i, &b) in pattern.iter().enumerate() {
            assert_eq!(v.get(i), Some(b), "bit {i}");
        }
        assert_eq!(v.get(200), None);
    }

    #[test]
    fn set_updates_in_place() {
        let mut v = BitVec::zeros(100);
        v.set(0, true);
        v.set(63, true);
        v.set(64, true);
        v.set(99, true);
        assert_eq!(v.count_ones(), 4);
        v.set(63, false);
        assert_eq!(v.count_ones(), 3);
        assert_eq!(v.get(63), Some(false));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_panics() {
        let mut v = BitVec::zeros(4);
        v.set(4, true);
    }

    #[test]
    fn hamming_distance_basic_and_length_mismatch() {
        let a = BitVec::from_binary_str("1010101").unwrap();
        let b = BitVec::from_binary_str("1110001").unwrap();
        assert_eq!(a.hamming_distance(&b), Some(2));
        assert_eq!(a.hamming_distance(&a), Some(0));
        let c = BitVec::from_binary_str("10").unwrap();
        assert_eq!(a.hamming_distance(&c), None);
    }

    #[test]
    fn hamming_distance_equals_xor_popcount() {
        let a = BitVec::from_binary_str("110010111010001").unwrap();
        let b = BitVec::from_binary_str("011011010010110").unwrap();
        assert_eq!(a.hamming_distance(&b).unwrap(), a.xor(&b).count_ones());
    }

    #[test]
    fn complement_masks_tail_bits() {
        let v = BitVec::from_binary_str("111").unwrap();
        let c = v.complement();
        assert_eq!(c.count_ones(), 0);
        assert_eq!(c.len(), 3);
        // Complement across a word boundary.
        let v = BitVec::zeros(70);
        let c = v.complement();
        assert_eq!(c.count_ones(), 70);
        assert_eq!(c.complement(), v);
    }

    #[test]
    fn from_binary_str_rejects_garbage() {
        let err = BitVec::from_binary_str("10x1").unwrap_err();
        assert_eq!(err.position, 2);
        assert_eq!(err.found, 'x');
        assert!(err.to_string().contains("position 2"));
    }

    #[test]
    fn display_and_debug_roundtrip() {
        let v = BitVec::from_binary_str("10110").unwrap();
        assert_eq!(v.to_string(), "10110");
        assert_eq!(format!("{v:?}"), "BitVec(10110)");
        assert_eq!(BitVec::from_binary_str(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn collect_and_extend() {
        let v: BitVec = (0..10).map(|i| i % 2 == 0).collect();
        assert_eq!(v.len(), 10);
        assert_eq!(v.count_ones(), 5);
        let mut w = v.clone();
        w.extend_bits(&v);
        assert_eq!(w.len(), 20);
        assert_eq!(w.count_ones(), 10);
    }

    #[test]
    fn plus_minus_one_mapping() {
        let v = BitVec::from_binary_str("101").unwrap();
        assert_eq!(v.to_plus_minus_one(), vec![1.0, -1.0, 1.0]);
    }

    #[test]
    fn ones_fraction_empty_is_none() {
        assert_eq!(BitVec::new().ones_fraction(), None);
    }

    #[test]
    fn iter_exact_size() {
        let v = BitVec::zeros(77);
        let it = v.iter();
        assert_eq!(it.len(), 77);
        assert_eq!(v.iter().count(), 77);
    }
}
