//! Word-packed bitstream generation: 64 multiply cycles per `u64` word.
//!
//! The bit-serial generators of [`crate::bsg`] advance one comparator per
//! clock edge; simulating an `N`-bit rate-coded MAC window that way costs
//! `2^(N-1)` scalar iterations. This module evaluates the same comparators
//! word-at-a-time over a **precomputed number-source sequence**, packing 64
//! comparator bits into each [`Bitstream`] word, so downstream reductions
//! collapse to word AND + `count_ones` (the same trick tubGEMM/tuGEMM use
//! to evaluate unary streams in wide chunks).
//!
//! The conditional generator (C-BSG, Fig. 4 of the paper) needs one extra
//! observation to pack: its RNG advances **only on enabled cycles**, so
//! after `k` enable bits the RNG has emitted exactly the first `k` entries
//! of its free-running sequence. The number of asserted product bits of a
//! whole MAC window is therefore a *prefix popcount*:
//!
//! ```text
//! ones(window) = #{ j < popcount(enable) : seq_rng[j] < |W| }
//! ```
//!
//! which [`PackedCbsg`] answers in `O(words)` via
//! [`Bitstream::count_ones_first`]. `tests::packed_cbsg_matches_bit_serial`
//! proves bit-exact equivalence against [`crate::bsg::ConditionalBsg`].

use crate::bitstream::Bitstream;
use crate::rng::NumberSource;

/// Closed-form prefix count of the base-2 Sobol sequence (dimension 0):
/// the number of indices `i < prefix` whose output
/// `seq[i] = bitrev(gray(i))` is below `threshold`, in `O(width)` — no
/// drained sequence, no comparator stream.
///
/// This is the tuGEMM-style shortcut for rate- and temporal-coded MAC
/// windows (and uGEMM-H's ones phase): the weight C-BSG of every
/// uSystolic PE is driven by
/// [`crate::rng::SobolSource::dimension`]`(0, w)`, whose output at index
/// `i` is the bit-reversal of the Gray code of `i`. Fixing the top bits
/// of `i` fixes the *low* bits of the output, and the free low bits of
/// `i` sweep the output's high bits bijectively — so the count below a
/// threshold decomposes over the set bits of `prefix` into one interval
/// count each (a digit DP with no table).
///
/// Agrees exactly with counting a drained sequence
/// (`tests::vdc_prefix_count_matches_sobol_dimension_zero`).
///
/// # Panics
///
/// Panics if `width` is 0 or ≥ 64, or if `prefix` exceeds the period
/// `2^width` (the Gray-code generator is not periodic past one period,
/// so a longer prefix has no closed form).
#[must_use]
pub fn vdc_prefix_count(width: u32, prefix: u64, threshold: u64) -> u64 {
    assert!(width > 0 && width < 64, "unsupported Sobol width {width}");
    let period = 1u64 << width;
    assert!(
        prefix <= period,
        "prefix {prefix} exceeds the Sobol period {period}"
    );
    let threshold = threshold.min(period);
    if threshold == 0 {
        return 0;
    }
    if prefix == period {
        // Full period: the sequence is a permutation of 0..2^width.
        return threshold;
    }
    // Gray bit b of the prefix lands at output bit `width - 1 - b`; the
    // classes below `prefix` differ from it only in one flipped bit.
    let gray = prefix ^ (prefix >> 1);
    let mut fixed_low = 0u64;
    let mut count = 0u64;
    for b in (0..width).rev() {
        let pos = width - 1 - b;
        let gbit = (gray >> b) & 1;
        if (prefix >> b) & 1 == 1 {
            // Class `i_b = 0` (indices below `prefix` sharing the higher
            // bits): its Gray bit b is flipped relative to `gray`, its
            // low `pos + 1` output bits are fixed, and its `b` free index
            // bits sweep the output's high bits over `0..2^b` — count
            // the outputs `high · 2^(pos+1) + class_low < threshold`.
            let class_low = fixed_low | ((gbit ^ 1) << pos);
            if threshold > class_low {
                count += ((threshold - class_low - 1) >> (pos + 1)) + 1;
            }
        }
        fixed_low |= gbit << pos;
    }
    count
}

/// Closed-form prefix count of a wrapping counter source: the number of
/// cycles `t < cycles` with `t mod 2^width < threshold` — the enable-bit
/// popcount of a **temporal-coded** MAC window, with no drained sequence
/// (temporal streams are `threshold` ones then zeros, per period).
#[must_use]
pub fn counter_prefix_count(width: u32, cycles: u64, threshold: u64) -> u64 {
    assert!(width > 0 && width < 64, "unsupported counter width {width}");
    let period = 1u64 << width;
    let threshold = threshold.min(period);
    (cycles >> width) * threshold + (cycles & (period - 1)).min(threshold)
}

/// Drains `len` outputs from a number source into a plain vector, exactly
/// as `len` bit-serial [`NumberSource::next`] calls would (the source is
/// left in the same state).
///
/// This is the precomputation step of the packed generators: sources reset
/// per MAC window, so one drained sequence serves every window of a tile.
#[must_use]
pub fn sequence<S: NumberSource + ?Sized>(source: &mut S, len: u64) -> Vec<u64> {
    let mut seq = Vec::with_capacity(len as usize);
    for _ in 0..len {
        seq.push(source.next());
    }
    seq
}

/// Compares a stationary `magnitude` against every entry of a precomputed
/// source sequence, packing 64 comparator bits per `u64` word.
///
/// The result equals the stream a bit-serial [`crate::bsg::Bsg`] over the
/// same source would emit, bit for bit (`tests::comparator_matches_bsg`).
#[must_use]
pub fn comparator_stream(seq: &[u64], magnitude: u64) -> Bitstream {
    let mut words = Vec::with_capacity(seq.len().div_ceil(64));
    let mut word = 0u64;
    for (i, &v) in seq.iter().enumerate() {
        if v < magnitude {
            word |= 1u64 << (i % 64);
        }
        if i % 64 == 63 {
            words.push(word);
            word = 0;
        }
    }
    if !seq.len().is_multiple_of(64) {
        words.push(word);
    }
    Bitstream::from_words(words, seq.len())
}

/// A word-packed conditional bitstream generator: the whole-window answer
/// of a [`crate::bsg::ConditionalBsg`] without stepping it cycle by cycle.
///
/// Construction drains `max_enabled` outputs from the RNG (advancing it
/// exactly as `max_enabled` enabled cycles would) and packs the comparator
/// bits; [`ones_given`](Self::ones_given) then answers "how many product
/// bits does a window with `k` enable ones assert?" in `O(k / 64)` — the
/// RNG-advance gating is captured by the prefix length instead of a
/// per-cycle branch.
///
/// # Example
///
/// ```
/// use usystolic_unary::bsg::ConditionalBsg;
/// use usystolic_unary::packed::PackedCbsg;
/// use usystolic_unary::rng::SobolSource;
///
/// // Bit-serial reference: |W| = 100 gated by 77 enabled cycles.
/// let mut serial = ConditionalBsg::new(100, SobolSource::dimension(0, 7));
/// let ones = (0..77).filter(|_| serial.step(true)).count() as u64;
///
/// let packed = PackedCbsg::new(100, &mut SobolSource::dimension(0, 7), 128);
/// assert_eq!(packed.ones_given(77), ones);
/// ```
#[derive(Debug, Clone)]
pub struct PackedCbsg {
    stream: Bitstream,
}

impl PackedCbsg {
    /// Packs the comparator of `magnitude` against the next `max_enabled`
    /// outputs of `source` (the largest enable count any window may
    /// present — the multiply-cycle count for rate/temporal coding).
    #[must_use]
    pub fn new<S: NumberSource + ?Sized>(magnitude: u64, source: &mut S, max_enabled: u64) -> Self {
        let seq = sequence(source, max_enabled);
        Self {
            stream: comparator_stream(&seq, magnitude),
        }
    }

    /// Wraps an already-packed comparator stream (e.g. one shared sequence
    /// compared against many weight magnitudes).
    #[must_use]
    pub fn from_stream(stream: Bitstream) -> Self {
        Self { stream }
    }

    /// Product-bit count of a MAC window whose enable stream carried
    /// `enabled_cycles` ones (clamped to the packed budget).
    #[must_use]
    pub fn ones_given(&self, enabled_cycles: u64) -> u64 {
        self.stream
            .count_ones_first((enabled_cycles as usize).min(self.stream.len()))
    }

    /// The packed comparator stream (one bit per *enabled* cycle).
    #[must_use]
    pub fn stream(&self) -> &Bitstream {
        &self.stream
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bsg::{Bsg, ConditionalBsg};
    use crate::rng::{CounterSource, LfsrSource, SobolSource};

    #[test]
    fn vdc_prefix_count_matches_sobol_dimension_zero() {
        // Brute-force pin against the real weight-RNG sequence: for every
        // prefix 0..=period (covering the word boundaries 0/63/64/65/128)
        // and a spread of thresholds, the closed form must equal a drained
        // sequence count.
        for width in [1u32, 2, 3, 5, 7, 8, 13] {
            let period = 1u64 << width;
            let seq = sequence(&mut SobolSource::dimension(0, width), period);
            for threshold in [0, 1, period / 3, period / 2, period - 1, period, period + 5] {
                let mut running = 0u64;
                for prefix in 0..=period {
                    assert_eq!(
                        vdc_prefix_count(width, prefix, threshold),
                        running,
                        "width {width}, prefix {prefix}, threshold {threshold}"
                    );
                    if prefix < period && seq[prefix as usize] < threshold {
                        running += 1;
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the Sobol period")]
    fn vdc_prefix_count_rejects_prefixes_past_the_period() {
        // The Sobol recurrence wraps its direction index, so the second
        // period is NOT a repeat of the first — a longer prefix has no
        // closed form and must be refused, not silently extrapolated.
        let _ = vdc_prefix_count(4, 17, 3);
    }

    #[test]
    fn counter_prefix_count_matches_counter_source() {
        // Counter sources ARE periodic, so prefixes past the period (the
        // multi-period enable streams of folded windows) are exact too.
        for width in [1u32, 3, 6] {
            let period = 1u64 << width;
            let seq = sequence(&mut CounterSource::new(width), 3 * period);
            for threshold in [0, 1, period / 2, period - 1, period, period + 9] {
                let mut running = 0u64;
                for cycles in 0..=3 * period {
                    assert_eq!(
                        counter_prefix_count(width, cycles, threshold),
                        running,
                        "width {width}, cycles {cycles}, threshold {threshold}"
                    );
                    if cycles < 3 * period && seq[cycles as usize] < threshold {
                        running += 1;
                    }
                }
            }
        }
    }

    #[test]
    fn sequence_matches_serial_next_and_leaves_same_state() {
        let mut packed_src = SobolSource::dimension(2, 7);
        let seq = sequence(&mut packed_src, 100);
        let mut serial_src = SobolSource::dimension(2, 7);
        let serial: Vec<u64> = (0..100).map(|_| serial_src.next()).collect();
        assert_eq!(seq, serial);
        // Both sources continue identically afterwards.
        assert_eq!(packed_src.next(), serial_src.next());
    }

    #[test]
    fn comparator_matches_bsg() {
        for magnitude in [0u64, 1, 64, 100, 127, 128] {
            let seq = sequence(&mut SobolSource::dimension(0, 7), 128);
            let packed = comparator_stream(&seq, magnitude);
            let mut bsg = Bsg::new(magnitude, SobolSource::dimension(0, 7));
            let serial: Bitstream = (0..128).map(|_| bsg.next_bit()).collect();
            assert_eq!(packed, serial, "magnitude {magnitude}");
        }
    }

    #[test]
    fn comparator_word_boundaries() {
        // Lengths straddling the word boundary; counter source makes the
        // expected count exact: #{ i < len : i mod 2^6 < magnitude }.
        for len in [0usize, 63, 64, 65, 128] {
            let seq = sequence(&mut CounterSource::new(6), len as u64);
            let packed = comparator_stream(&seq, 40);
            let expect = seq.iter().filter(|&&v| v < 40).count() as u64;
            assert_eq!(packed.count_ones(), expect, "len {len}");
            assert_eq!(packed.len(), len);
        }
    }

    #[test]
    fn packed_cbsg_matches_bit_serial() {
        // Gate the C-BSG with every enable density over the full window and
        // several magnitudes; the packed prefix count must agree exactly.
        for magnitude in [0u64, 3, 64, 100, 128] {
            let packed = PackedCbsg::new(magnitude, &mut SobolSource::dimension(0, 7), 128);
            for enabled in [0u64, 1, 63, 64, 65, 77, 128] {
                let mut serial = ConditionalBsg::new(magnitude, SobolSource::dimension(0, 7));
                let mut ones = 0u64;
                for cycle in 0..128 {
                    // An arbitrary but fixed enable pattern with exactly
                    // `enabled` ones: the first `enabled` cycles.
                    if serial.step(cycle < enabled) {
                        ones += 1;
                    }
                }
                assert_eq!(
                    packed.ones_given(enabled),
                    ones,
                    "|W| {magnitude}, {enabled} enabled"
                );
            }
        }
    }

    #[test]
    fn packed_cbsg_gating_is_order_independent() {
        // The C-BSG only sees *how many* enable ones have passed, never
        // where they sit — scattering the enables must not change the
        // window count. This is the identity the packed kernel relies on.
        let packed = PackedCbsg::new(90, &mut SobolSource::dimension(0, 7), 128);
        let mut serial = ConditionalBsg::new(90, SobolSource::dimension(0, 7));
        let mut ones = 0u64;
        let mut enabled = 0u64;
        for cycle in 0..128u64 {
            let e = cycle % 3 != 1; // scattered enable pattern
            if serial.step(e) {
                ones += 1;
            }
            if e {
                enabled += 1;
            }
        }
        assert_eq!(serial.enabled_cycles(), enabled);
        assert_eq!(packed.ones_given(enabled), ones);
    }

    #[test]
    fn packed_cbsg_works_over_any_source() {
        // LFSR and counter sources pack identically to their serial forms.
        let packed = PackedCbsg::new(17, &mut LfsrSource::new(7, 5), 127);
        let mut serial = ConditionalBsg::new(17, LfsrSource::new(7, 5));
        let ones = (0..100).filter(|_| serial.step(true)).count() as u64;
        assert_eq!(packed.ones_given(100), ones);
        let s = PackedCbsg::from_stream(packed.stream().clone());
        assert_eq!(s.ones_given(100), ones);
    }

    #[test]
    fn ones_given_clamps_to_budget() {
        let packed = PackedCbsg::new(128, &mut CounterSource::new(7), 32);
        assert_eq!(packed.ones_given(1000), 32);
        assert_eq!(packed.stream().len(), 32);
    }
}
