//! Packed serial bitstreams.
//!
//! A [`Bitstream`] is the fundamental datum of unary computing: a finite
//! sequence of bits whose *fraction of ones* encodes a value (Fig. 3 of the
//! paper). Bits are stored packed, 64 per word, in stream order (bit 0 is
//! the first cycle).

use crate::UnaryError;

/// A finite serial bitstream, packed 64 bits per word.
///
/// The value of a bitstream depends on its polarity interpretation, see
/// [`crate::coding::Polarity`]. `Bitstream` itself is polarity-agnostic; it
/// only knows its bits.
///
/// # Example
///
/// ```
/// use usystolic_unary::Bitstream;
///
/// let bs: Bitstream = [true, false, true, true].into_iter().collect();
/// assert_eq!(bs.len(), 4);
/// assert_eq!(bs.count_ones(), 3);
/// assert!((bs.unipolar_value() - 0.75).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Bitstream {
    words: Vec<u64>,
    len: usize,
}

impl Bitstream {
    /// Creates an empty bitstream.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an all-zero bitstream of `len` bits.
    #[must_use]
    pub fn zeros(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Creates an all-one bitstream of `len` bits.
    #[must_use]
    pub fn ones(len: usize) -> Self {
        let mut bs = Self {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        bs.mask_tail();
        bs
    }

    /// Creates a bitstream with capacity reserved for `len` bits.
    #[must_use]
    pub fn with_capacity(len: usize) -> Self {
        Self {
            words: Vec::with_capacity(len.div_ceil(64)),
            len: 0,
        }
    }

    /// Creates a bitstream of `len` bits directly from packed words (64
    /// bits per word, bit 0 of word 0 is the first cycle) — the entry
    /// point of the word-packed generators in [`crate::packed`].
    ///
    /// `words` is resized to exactly `len.div_ceil(64)` words (missing
    /// words are zero-filled, surplus words dropped) and any bits of the
    /// last word beyond `len` are masked off, so `count_ones`-based
    /// reductions never see stray tail bits.
    #[must_use]
    pub fn from_words(mut words: Vec<u64>, len: usize) -> Self {
        words.resize(len.div_ceil(64), 0);
        let mut bs = Self { words, len };
        bs.mask_tail();
        bs
    }

    /// The packed backing words (64 bits per word, in stream order). Bits
    /// of the last word at positions `>= len % 64` are always zero.
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of bits in the stream.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the stream holds no bits.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one bit to the end of the stream.
    pub fn push(&mut self, bit: bool) {
        let word = self.len / 64;
        let offset = self.len % 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        if bit {
            self.words[word] |= 1u64 << offset;
        }
        self.len += 1;
    }

    /// Returns the bit at `index`, or `None` past the end.
    #[must_use]
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

    /// Number of 1-bits in the stream.
    #[must_use]
    pub fn count_ones(&self) -> u64 {
        popcount_words(&self.words)
    }

    /// Unipolar value of the stream: `P(1)` (Section II-B1, `V_u = P`).
    ///
    /// Returns `0.0` for an empty stream.
    #[must_use]
    pub fn unipolar_value(&self) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        self.count_ones() as f64 / self.len as f64
    }

    /// Bipolar value of the stream: `2 P(1) - 1` (Section II-B1, `V_b`).
    ///
    /// Returns `-1.0` for an empty stream (by convention of `P = 0`).
    #[must_use]
    pub fn bipolar_value(&self) -> f64 {
        2.0 * self.unipolar_value() - 1.0
    }

    /// Bitwise AND of two equal-length streams (the naive unipolar
    /// multiplier of Section II-B2).
    ///
    /// # Errors
    ///
    /// Returns [`UnaryError::LengthMismatch`] if lengths differ.
    pub fn and(&self, other: &Self) -> Result<Self, UnaryError> {
        self.zip_words(other, |a, b| a & b)
    }

    /// Bitwise OR of two equal-length streams (a saturating unary adder).
    ///
    /// # Errors
    ///
    /// Returns [`UnaryError::LengthMismatch`] if lengths differ.
    pub fn or(&self, other: &Self) -> Result<Self, UnaryError> {
        self.zip_words(other, |a, b| a | b)
    }

    /// Bitwise XOR of two equal-length streams (a bipolar multiplier takes
    /// the XNOR; XOR is its complement).
    ///
    /// # Errors
    ///
    /// Returns [`UnaryError::LengthMismatch`] if lengths differ.
    pub fn xor(&self, other: &Self) -> Result<Self, UnaryError> {
        self.zip_words(other, |a, b| a ^ b)
    }

    /// Bitwise XNOR of two equal-length streams (the naive *bipolar*
    /// multiplier).
    ///
    /// # Errors
    ///
    /// Returns [`UnaryError::LengthMismatch`] if lengths differ.
    pub fn xnor(&self, other: &Self) -> Result<Self, UnaryError> {
        let mut out = self.zip_words(other, |a, b| !(a ^ b))?;
        out.mask_tail();
        Ok(out)
    }

    /// Logical complement of the stream.
    #[must_use]
    pub fn not(&self) -> Self {
        let mut out = Self {
            words: self.words.iter().map(|w| !w).collect(),
            len: self.len,
        };
        out.mask_tail();
        out
    }

    /// Number of positions where both streams are 1 (overlap count used by
    /// the SCC metric).
    ///
    /// # Errors
    ///
    /// Returns [`UnaryError::LengthMismatch`] if lengths differ.
    pub fn overlap(&self, other: &Self) -> Result<u64, UnaryError> {
        if self.len != other.len {
            return Err(UnaryError::LengthMismatch {
                left: self.len,
                right: other.len,
            });
        }
        Ok(self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| u64::from((a & b).count_ones()))
            .sum())
    }

    /// Iterator over the bits in stream order.
    pub fn iter(&self) -> Iter<'_> {
        Iter { bs: self, index: 0 }
    }

    /// Truncates the stream to its first `len` bits (an early-terminated
    /// view of the stream). A no-op if `len >= self.len()`.
    pub fn truncate(&mut self, len: usize) {
        if len >= self.len {
            return;
        }
        self.len = len;
        self.words.truncate(len.div_ceil(64));
        self.mask_tail();
    }

    /// Rotates the stream left by `mid` bits (used to model the one-cycle
    /// lag of the spatial-temporal bitstream reuse pipeline).
    #[must_use]
    pub fn rotate_left(&self, mid: usize) -> Self {
        if self.len == 0 {
            return self.clone();
        }
        let mid = mid % self.len;
        let mut out = Self::with_capacity(self.len);
        for i in 0..self.len {
            out.push(self.get((i + mid) % self.len).unwrap_or(false));
        }
        out
    }

    /// Delays the stream by `lag` cycles, inserting `fill` bits at the front
    /// and dropping the tail; models a chain of D flip-flops (IDFF / RREG in
    /// Fig. 7 of the paper).
    #[must_use]
    pub fn delayed(&self, lag: usize, fill: bool) -> Self {
        let mut out = Self::with_capacity(self.len);
        for i in 0..self.len {
            if i < lag {
                out.push(fill);
            } else {
                out.push(self.get(i - lag).unwrap_or(false));
            }
        }
        out
    }

    fn zip_words(&self, other: &Self, f: impl Fn(u64, u64) -> u64) -> Result<Self, UnaryError> {
        if self.len != other.len {
            return Err(UnaryError::LengthMismatch {
                left: self.len,
                right: other.len,
            });
        }
        Ok(Self {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(&a, &b)| f(a, b))
                .collect(),
            len: self.len,
        })
    }

    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

/// Multi-word popcount reduction: four independent accumulator chains per
/// iteration, so wide streams (bitwidth ≥ 8 → ≥ 2 words) keep several
/// `popcnt` units in flight instead of serialising every word behind one
/// add.
fn popcount_words(words: &[u64]) -> u64 {
    let mut chunks = words.chunks_exact(4);
    let (mut a, mut b, mut c, mut d) = (0u64, 0u64, 0u64, 0u64);
    for quad in chunks.by_ref() {
        a += u64::from(quad[0].count_ones());
        b += u64::from(quad[1].count_ones());
        c += u64::from(quad[2].count_ones());
        d += u64::from(quad[3].count_ones());
    }
    let mut rest = 0u64;
    for word in chunks.remainder() {
        rest += u64::from(word.count_ones());
    }
    a + b + c + d + rest
}

impl FromIterator<bool> for Bitstream {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let mut bs = Bitstream::new();
        for bit in iter {
            bs.push(bit);
        }
        bs
    }
}

impl Extend<bool> for Bitstream {
    fn extend<I: IntoIterator<Item = bool>>(&mut self, iter: I) {
        for bit in iter {
            self.push(bit);
        }
    }
}

impl<'a> IntoIterator for &'a Bitstream {
    type Item = bool;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl core::fmt::Display for Bitstream {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        for bit in self.iter() {
            f.write_str(if bit { "1" } else { "0" })?;
        }
        Ok(())
    }
}

/// Borrowing iterator over the bits of a [`Bitstream`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    bs: &'a Bitstream,
    index: usize,
}

impl Iterator for Iter<'_> {
    type Item = bool;

    fn next(&mut self) -> Option<bool> {
        let bit = self.bs.get(self.index)?;
        self.index += 1;
        Some(bit)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.bs.len - self.index;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Iter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_str(s: &str) -> Bitstream {
        s.chars().map(|c| c == '1').collect()
    }

    #[test]
    fn push_and_get_roundtrip() {
        let mut bs = Bitstream::new();
        let pattern = [true, false, true, true, false];
        for &b in &pattern {
            bs.push(b);
        }
        assert_eq!(bs.len(), 5);
        for (i, &b) in pattern.iter().enumerate() {
            assert_eq!(bs.get(i), Some(b));
        }
        assert_eq!(bs.get(5), None);
    }

    #[test]
    fn crosses_word_boundary() {
        let bits: Vec<bool> = (0..200).map(|i| i % 3 == 0).collect();
        let bs: Bitstream = bits.iter().copied().collect();
        assert_eq!(bs.len(), 200);
        for (i, &b) in bits.iter().enumerate() {
            assert_eq!(bs.get(i), Some(b), "bit {i}");
        }
        assert_eq!(bs.count_ones(), bits.iter().filter(|&&b| b).count() as u64);
    }

    #[test]
    fn unipolar_and_bipolar_values() {
        let bs = from_str("0101010101010101"); // paper Fig. 3a: P = 0.5
        assert!((bs.unipolar_value() - 0.5).abs() < 1e-12);
        assert!(bs.bipolar_value().abs() < 1e-12);
    }

    #[test]
    fn and_matches_figure_4() {
        // Fig. 4 example: 8/16 AND 8/16 (correctly decorrelated) -> 4/16.
        let a = from_str("0101010101010101");
        let b = from_str("0100010001000100"); // 4/16 after C-BSG gating
        let p = a.and(&b).unwrap();
        assert_eq!(p.count_ones(), 4);
    }

    #[test]
    fn xnor_is_bipolar_multiplier_on_extremes() {
        let one = Bitstream::ones(32); // bipolar +1
        let minus_one = Bitstream::zeros(32); // bipolar -1
        let p = one.xnor(&minus_one).unwrap();
        assert!((p.bipolar_value() + 1.0).abs() < 1e-12);
        let p = minus_one.xnor(&minus_one).unwrap();
        assert!((p.bipolar_value() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn length_mismatch_is_rejected() {
        let a = Bitstream::ones(8);
        let b = Bitstream::ones(9);
        assert_eq!(
            a.and(&b).unwrap_err(),
            UnaryError::LengthMismatch { left: 8, right: 9 }
        );
        assert!(a.overlap(&b).is_err());
    }

    #[test]
    fn not_masks_tail_bits() {
        let bs = Bitstream::zeros(10);
        let inv = bs.not();
        assert_eq!(inv.count_ones(), 10);
        assert_eq!(inv.len(), 10);
    }

    #[test]
    fn ones_masks_tail() {
        let bs = Bitstream::ones(70);
        assert_eq!(bs.count_ones(), 70);
    }

    #[test]
    fn truncate_is_early_termination() {
        let mut bs = from_str("1111000011110000");
        bs.truncate(8);
        assert_eq!(bs.len(), 8);
        assert_eq!(bs.count_ones(), 4);
        bs.truncate(100); // no-op
        assert_eq!(bs.len(), 8);
    }

    #[test]
    fn delayed_inserts_fill_bits() {
        let bs = from_str("1010");
        let d = bs.delayed(1, false);
        assert_eq!(d.to_string(), "0101");
        let d2 = bs.delayed(2, true);
        assert_eq!(d2.to_string(), "1110");
    }

    #[test]
    fn rotate_left_wraps() {
        let bs = from_str("1000");
        assert_eq!(bs.rotate_left(1).to_string(), "0001");
        assert_eq!(bs.rotate_left(4).to_string(), "1000");
        assert_eq!(bs.rotate_left(5).to_string(), "0001");
    }

    #[test]
    fn display_roundtrip() {
        let s = "011010011";
        assert_eq!(from_str(s).to_string(), s);
    }

    #[test]
    fn iterator_has_exact_size() {
        let bs = Bitstream::ones(17);
        let it = bs.iter();
        assert_eq!(it.len(), 17);
        assert_eq!(it.count(), 17);
    }

    #[test]
    fn overlap_counts_joint_ones() {
        let a = from_str("1100");
        let b = from_str("1010");
        assert_eq!(a.overlap(&b).unwrap(), 1);
    }

    /// Lengths straddling the 64-bit word boundary, where a stray tail bit
    /// would silently corrupt every `count_ones`-based reduction.
    const EDGE_LENGTHS: [usize; 5] = [0, 63, 64, 65, 128];

    #[test]
    fn tail_masking_at_word_boundaries() {
        for len in EDGE_LENGTHS {
            // `ones`, `not` and `xnor` all write full words and then mask.
            let ones = Bitstream::ones(len);
            assert_eq!(ones.count_ones(), len as u64, "ones({len})");
            let zeros = Bitstream::zeros(len);
            assert_eq!(zeros.not().count_ones(), len as u64, "not/zeros({len})");
            assert_eq!(
                zeros.xnor(&zeros).unwrap().count_ones(),
                len as u64,
                "xnor({len})"
            );
            // No bit beyond `len` is set in the backing words.
            for (i, w) in ones.words().iter().enumerate() {
                let valid = (len - i * 64).min(64);
                let mask = if valid == 64 {
                    u64::MAX
                } else {
                    (1u64 << valid) - 1
                };
                assert_eq!(w & !mask, 0, "stray tail bits at len {len}, word {i}");
            }
        }
    }

    #[test]
    fn zip_words_at_word_boundaries() {
        for len in EDGE_LENGTHS {
            let a: Bitstream = (0..len).map(|i| i % 2 == 0).collect();
            let b: Bitstream = (0..len).map(|i| i % 3 == 0).collect();
            let and = a.and(&b).unwrap();
            let or = a.or(&b).unwrap();
            let xor = a.xor(&b).unwrap();
            let expect = |f: fn(bool, bool) -> bool| {
                (0..len).filter(|&i| f(i % 2 == 0, i % 3 == 0)).count() as u64
            };
            assert_eq!(and.count_ones(), expect(|x, y| x && y), "and({len})");
            assert_eq!(or.count_ones(), expect(|x, y| x || y), "or({len})");
            assert_eq!(xor.count_ones(), expect(|x, y| x ^ y), "xor({len})");
        }
    }

    #[test]
    fn from_iterator_at_word_boundaries() {
        for len in EDGE_LENGTHS {
            let bits: Vec<bool> = (0..len).map(|i| i % 5 != 0).collect();
            let bs: Bitstream = bits.iter().copied().collect();
            assert_eq!(bs.len(), len);
            assert_eq!(
                bs.count_ones(),
                bits.iter().filter(|&&b| b).count() as u64,
                "len {len}"
            );
            assert_eq!(bs.words().len(), len.div_ceil(64));
        }
    }

    #[test]
    fn from_words_masks_and_resizes() {
        // Surplus set bits beyond `len` must be dropped.
        let bs = Bitstream::from_words(vec![u64::MAX, u64::MAX, u64::MAX], 65);
        assert_eq!(bs.len(), 65);
        assert_eq!(bs.words().len(), 2);
        assert_eq!(bs.count_ones(), 65);
        // Missing words are zero-filled.
        let bs = Bitstream::from_words(vec![0b1011], 128);
        assert_eq!(bs.words().len(), 2);
        assert_eq!(bs.count_ones(), 3);
        // Round-trips through the bit accessor.
        assert_eq!(bs.get(0), Some(true));
        assert_eq!(bs.get(1), Some(true));
        assert_eq!(bs.get(2), Some(false));
        assert_eq!(bs.get(127), Some(false));
        // Empty stream.
        let bs = Bitstream::from_words(vec![7], 0);
        assert!(bs.is_empty());
        assert_eq!(bs.count_ones(), 0);
    }

    #[test]
    fn multiword_popcount_at_chunk_boundaries() {
        // The 4-words-per-chain reduction must agree with a scalar count at
        // every remainder class of the chunk width (0..=3 leftover words)
        // and across the chunk boundary itself.
        for len in [0usize, 191, 192, 255, 256, 257, 320, 449, 512] {
            let bits: Vec<bool> = (0..len).map(|i| (i * 11) % 5 < 2).collect();
            let bs: Bitstream = bits.iter().copied().collect();
            let expect = bits.iter().filter(|&&b| b).count() as u64;
            assert_eq!(bs.count_ones(), expect, "len {len}");
        }
    }
}
