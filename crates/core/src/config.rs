//! Configuration vectors: the collection of MUX selection bits.
//!
//! A ring with `n` delay units is configured by an `n`-bit vector; bit
//! `i = 1` routes stage `i` through its inverter, `0` bypasses it. A ring
//! only free-runs as an oscillator when an **odd** number of inverting
//! stages is selected; [`ParityPolicy`] lets callers choose between the
//! paper's idealized formulation (parity ignored — appropriate when each
//! "inverter" is really a whole RO, as in the public-dataset experiments)
//! and hardware-faithful odd-only selection.

use std::fmt;

use ropuf_num::bits::BitVec;

/// How selection algorithms treat the odd-inverter-count oscillation
/// constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ParityPolicy {
    /// Any number of selected stages is acceptable (the paper's
    /// §III.D formulation; also correct when stages are whole ROs).
    #[default]
    Ignore,
    /// The selected count must be odd so the configured ring oscillates.
    ForceOdd,
}

impl ParityPolicy {
    /// Whether a selection of `count` stages satisfies this policy.
    ///
    /// # Examples
    ///
    /// ```
    /// use ropuf_core::config::ParityPolicy;
    /// assert!(ParityPolicy::Ignore.admits(4));
    /// assert!(!ParityPolicy::ForceOdd.admits(4));
    /// assert!(ParityPolicy::ForceOdd.admits(5));
    /// ```
    pub fn admits(self, count: usize) -> bool {
        match self {
            ParityPolicy::Ignore => true,
            ParityPolicy::ForceOdd => count % 2 == 1,
        }
    }
}

/// An immutable configuration vector over `n` delay units.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct ConfigVector {
    bits: BitVec,
}

impl ConfigVector {
    /// Builds a configuration from per-stage selection flags.
    ///
    /// # Panics
    ///
    /// Panics if `flags` is empty.
    ///
    /// # Examples
    ///
    /// ```
    /// use ropuf_core::ConfigVector;
    /// let c = ConfigVector::from_flags(&[true, false, true]);
    /// assert_eq!(c.selected_count(), 2);
    /// assert_eq!(c.to_string(), "101");
    /// ```
    pub fn from_flags(flags: &[bool]) -> Self {
        assert!(
            !flags.is_empty(),
            "a configuration needs at least one stage"
        );
        Self {
            bits: flags.iter().copied().collect(),
        }
    }

    /// Builds a configuration selecting exactly the stages in `selected`
    /// out of `n` stages.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or any index is out of range.
    ///
    /// # Examples
    ///
    /// ```
    /// use ropuf_core::ConfigVector;
    /// let c = ConfigVector::from_selected(5, &[0, 3]);
    /// assert_eq!(c.to_string(), "10010");
    /// ```
    pub fn from_selected(n: usize, selected: &[usize]) -> Self {
        assert!(n > 0, "a configuration needs at least one stage");
        let mut bits = BitVec::zeros(n);
        for &i in selected {
            assert!(i < n, "stage index {i} out of range {n}");
            bits.set(i, true);
        }
        Self { bits }
    }

    /// Builds a configuration of `n` stages from a stage set held as bit
    /// words: stage `i` is selected when bit `i % 64` of `set[i / 64]`
    /// is. Bits at or past `n` are ignored.
    pub(crate) fn from_stage_set(n: usize, set: &[u64]) -> Self {
        assert!(n > 0, "a configuration needs at least one stage");
        let mut bits = BitVec::zeros(n);
        for i in (0..n).filter(|&i| set[i / 64] >> (i % 64) & 1 == 1) {
            bits.set(i, true);
        }
        Self { bits }
    }

    /// Configuration with every stage selected — the traditional RO.
    pub fn all_selected(n: usize) -> Self {
        Self::from_flags(&vec![true; n])
    }

    /// Configuration with every stage selected except `skip` — the
    /// leave-one-out calibration pattern.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `skip >= n`.
    pub fn all_but(n: usize, skip: usize) -> Self {
        assert!(skip < n, "skip index {skip} out of range {n}");
        let mut flags = vec![true; n];
        flags[skip] = false;
        Self::from_flags(&flags)
    }

    /// Number of stages (selected or not).
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Always false — configurations are non-empty by construction.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Whether stage `i` is selected.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn is_selected(&self, i: usize) -> bool {
        self.bits
            .get(i)
            .unwrap_or_else(|| panic!("stage index {i} out of range {}", self.len()))
    }

    /// Number of selected stages.
    pub fn selected_count(&self) -> usize {
        self.bits.count_ones()
    }

    /// Whether the configured ring has an odd number of inverting stages
    /// and therefore oscillates.
    pub fn oscillates(&self) -> bool {
        self.selected_count() % 2 == 1
    }

    /// Indices of the selected stages, ascending.
    pub fn selected_indices(&self) -> Vec<usize> {
        self.bits
            .iter()
            .enumerate()
            .filter_map(|(i, b)| b.then_some(i))
            .collect()
    }

    /// Iterator over the per-stage selection flags.
    pub fn iter(&self) -> ropuf_num::bits::Iter<'_> {
        self.bits.iter()
    }

    /// The underlying bit vector (for Hamming-distance analyses such as
    /// the paper's Tables III/IV).
    pub fn as_bits(&self) -> &BitVec {
        &self.bits
    }

    /// Hamming distance to another configuration of the same length, or
    /// `None` if lengths differ.
    pub fn hamming_distance(&self, other: &Self) -> Option<usize> {
        self.bits.hamming_distance(&other.bits)
    }

    /// Concatenation of two configurations (used for Case-2's 30-bit
    /// combined top‖bottom vectors in Table IV).
    pub fn concat(&self, other: &Self) -> Self {
        let mut bits = self.bits.clone();
        bits.extend_bits(&other.bits);
        Self { bits }
    }
}

impl fmt::Display for ConfigVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.bits.to_binary_string())
    }
}

impl fmt::Debug for ConfigVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ConfigVector({})", self.bits.to_binary_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_flags_and_selection_agree() {
        let a = ConfigVector::from_flags(&[true, false, true, true]);
        let b = ConfigVector::from_selected(4, &[0, 2, 3]);
        assert_eq!(a, b);
        assert_eq!(a.selected_indices(), vec![0, 2, 3]);
        assert_eq!(a.selected_count(), 3);
        assert!(a.oscillates());
    }

    #[test]
    fn even_count_does_not_oscillate() {
        let c = ConfigVector::from_selected(4, &[1, 2]);
        assert!(!c.oscillates());
    }

    #[test]
    fn all_selected_and_all_but() {
        let full = ConfigVector::all_selected(5);
        assert_eq!(full.selected_count(), 5);
        let loo = ConfigVector::all_but(5, 2);
        assert_eq!(loo.selected_count(), 4);
        assert!(!loo.is_selected(2));
        assert_eq!(full.hamming_distance(&loo), Some(1));
    }

    #[test]
    fn paper_three_stage_patterns() {
        // §III.B: "110" skips the last inverter, "101" the middle, "011"
        // the first.
        assert_eq!(ConfigVector::all_but(3, 2).to_string(), "110");
        assert_eq!(ConfigVector::all_but(3, 1).to_string(), "101");
        assert_eq!(ConfigVector::all_but(3, 0).to_string(), "011");
    }

    #[test]
    fn concat_produces_combined_vector() {
        let top = ConfigVector::from_flags(&[true, false]);
        let bottom = ConfigVector::from_flags(&[false, true]);
        let both = top.concat(&bottom);
        assert_eq!(both.to_string(), "1001");
        assert_eq!(both.len(), 4);
    }

    #[test]
    fn parity_policy_admits() {
        assert!(ParityPolicy::Ignore.admits(0));
        assert!(ParityPolicy::Ignore.admits(2));
        assert!(!ParityPolicy::ForceOdd.admits(0));
        assert!(ParityPolicy::ForceOdd.admits(1));
        assert!(!ParityPolicy::ForceOdd.admits(2));
        assert!(ParityPolicy::ForceOdd.admits(7));
    }

    #[test]
    fn display_debug() {
        let c = ConfigVector::from_flags(&[true, true, false]);
        assert_eq!(c.to_string(), "110");
        assert_eq!(format!("{c:?}"), "ConfigVector(110)");
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn empty_flags_panic() {
        let _ = ConfigVector::from_flags(&[]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_selection_panics() {
        let _ = ConfigVector::from_selected(3, &[3]);
    }
}
