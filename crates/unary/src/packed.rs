//! Whole-window comparator counts: closed-form prefix counts of the
//! number sources, and the drained, word-packed comparator streams they
//! replace.
//!
//! The bit-serial generators of [`crate::bsg`] advance one comparator per
//! clock edge, so stepping an `N`-bit rate-coded MAC window costs
//! `2^(N-1)` scalar iterations. A window only ever needs *how many*
//! comparator outputs of a source prefix fall below a threshold, and for
//! the sources of this crate that count has a closed form in `O(width)`:
//! [`sobol_prefix_count`] for any Sobol dimension and
//! [`counter_prefix_count`] for a counter (the tuGEMM-style shortcut).
//! The Sobol count splits into a per-prefix half, the prefix's classes,
//! and a branch-free per-threshold half ([`PrefixClasses::count`]), so one
//! prefix is counted against many thresholds for the price of one split;
//! [`PrefixClasses::count_lanes`] counts eight thresholds at once, class
//! by class. [`SobolPrefix::new`] splits one prefix; a [`PrefixTable`]
//! splits many prefixes of one generator once and stores their classes
//! compactly, so a caller that meets the same prefix again looks it up.
//!
//! The conditional generator (C-BSG, Fig. 4 of the paper) reduces to the
//! same count: its RNG advances **only on enabled cycles**, so after `k`
//! enable bits the RNG has emitted exactly the first `k` entries of its
//! free-running sequence, whatever the enable pattern:
//!
//! ```text
//! ones(window) = #{ j < popcount(enable) : seq_rng[j] < |W| }
//! ```
//!
//! `tests::packed_cbsg_matches_bit_serial` and
//! `tests::packed_cbsg_gating_is_order_independent` pin that identity
//! against a stepped [`crate::bsg::ConditionalBsg`].
//!
//! [`sequence`] and [`comparator_stream`] evaluate the comparators
//! word-at-a-time over a drained source sequence instead, 64 comparator
//! bits per [`Bitstream`] word. They serve sources without a closed form
//! and the word-packed reference row of `usystolic_core`.

use crate::bitstream::Bitstream;
use crate::rng::NumberSource;

/// Widest generator a prefix splits, and so most classes it holds (one per
/// bit): the widest the workspace builds, uGEMM-H's RNGs at
/// [`crate::MAX_BITWIDTH`]-bit data. A class then packs into one `u32`
/// ([`SHIFT_BITS`]), and a lane of [`PrefixClasses::count_lanes`] holds a
/// clamped threshold plus an offset, below `2^(width+1) ≤ 2^25`.
const MAX_WIDTH: usize = crate::MAX_BITWIDTH as usize;

/// Low bits of a packed class that hold its shift `s ≤ MAX_WIDTH`; the
/// offset `mask − low < 2^s` sits above them, so a class fits a `u32`.
/// One word per class also keeps the lane count's class loop scalar, with
/// its eight lanes in SIMD registers: compiled from separate offset and
/// shift arrays, it vectorised across classes instead, with per-lane
/// shifts that SSE2 lacks.
const SHIFT_BITS: u32 = 5;
const _: () = assert!(MAX_WIDTH < 1 << SHIFT_BITS && MAX_WIDTH + (SHIFT_BITS as usize) <= 32);

/// The shift field of a packed class.
const SHIFT_MASK: u32 = (1 << SHIFT_BITS) - 1;

/// Thresholds one [`PrefixClasses::count_lanes`] call counts at once.
pub const LANES: usize = 8;

/// The period `2^width` of a Sobol generator with these direction numbers.
///
/// # Panics
///
/// Panics if `directions` is empty or has more than [`MAX_WIDTH`] entries.
fn period(directions: &[u64]) -> u64 {
    let width = directions.len();
    assert!(
        width > 0 && width <= MAX_WIDTH,
        "unsupported Sobol width {width} (prefix counts split at most {MAX_WIDTH} bits)"
    );
    1 << width
}

/// Splits the first `prefix` outputs of the Sobol sequence with these
/// `directions` into classes (see [`SobolPrefix`]), in `O(width)` and with
/// no branch on the prefix's bits: writes each class, packed
/// ([`SHIFT_BITS`]), to `classes` (at least `width` long) and returns the
/// number of classes.
///
/// # Panics
///
/// Panics if `prefix` exceeds the `period` (the Gray-code generator is not
/// periodic past one period, so a longer prefix has no closed form).
fn split(directions: &[u64], period: u64, prefix: u64, classes: &mut [u32]) -> u8 {
    assert!(
        prefix <= period,
        "prefix {prefix} exceeds the Sobol period {period}"
    );
    if prefix == period {
        // Full period: the sequence is a permutation of 0..2^width, one
        // class `(0, 0)` with no fixed bits.
        classes[0] = 0;
        return 1;
    }
    let width = directions.len();
    let gray = prefix ^ (prefix >> 1);
    // XOR of the direction numbers selected by the Gray bits of `prefix`
    // above the current bit.
    let mut fixed = 0u64;
    let mut len = 0;
    for b in (0..width).rev() {
        let v = directions[b];
        // All ones when Gray bit b of `prefix` is set.
        let gbit = ((gray >> b) & 1).wrapping_neg();
        // Class `i_b = 0`: its Gray bit b is flipped relative to `gray`,
        // its low `width − b` output bits are fixed, and its `b` free index
        // bits sweep the high bits. Every bit writes its class, and only a
        // set bit of `prefix` keeps it (`len` grows by the bit), so the
        // split does not branch on the prefix.
        let class = fixed ^ (v & !gbit);
        let shift = width - b;
        let mask = (1u64 << shift) - 1;
        // `mask − low < 2^shift` and `shift = width − b ≤ MAX_WIDTH`, so
        // the packed class fits 32 bits: lint: allow(narrowing)
        classes[len] = (((mask - (class & mask)) << SHIFT_BITS) | shift as u64) as u32;
        len += usize::from((prefix >> b) & 1 == 1);
        fixed ^= v & gbit;
    }
    // At most `width ≤ MAX_WIDTH` classes: lint: allow(narrowing)
    len as u8
}

/// The classes of one Sobol prefix, borrowed from a [`SobolPrefix`] or a
/// row of a [`PrefixTable`]: the half of the comparator count that
/// depends on the threshold.
#[derive(Debug, Clone, Copy)]
pub struct PrefixClasses<'a> {
    /// `(mask − low) << SHIFT_BITS | s` per class.
    classes: &'a [u32],
    /// `2^width`: thresholds clamp to it.
    period: u32,
}

impl PrefixClasses<'_> {
    /// The number of the prefix's outputs below `threshold`: one add and
    /// one shift per class, no branch.
    #[must_use]
    #[inline]
    pub fn count(&self, threshold: u64) -> u64 {
        let threshold = threshold.min(u64::from(self.period));
        self.classes
            .iter()
            .map(|&class| (threshold + u64::from(class >> SHIFT_BITS)) >> (class & SHIFT_MASK))
            .sum()
    }

    /// [`count`](Self::count) of [`LANES`] thresholds at once, class by
    /// class: the class loop runs outside and the thresholds inside, so
    /// each class is one add and one shift by the same amount across every
    /// `u32` lane, with no branch. The tile sweep counts a whole weight row
    /// this way, eight weights per call, and sums each vector's counts
    /// over a row fold in `i32` lanes before they reach its partial sums.
    #[must_use]
    #[inline]
    pub fn count_lanes(&self, thresholds: [u32; LANES]) -> [u32; LANES] {
        let thresholds = thresholds.map(|threshold| threshold.min(self.period));
        let mut counts = [0u32; LANES];
        for &class in self.classes {
            let (offset, shift) = (class >> SHIFT_BITS, class & SHIFT_MASK);
            for (count, &threshold) in counts.iter_mut().zip(&thresholds) {
                *count += (threshold + offset) >> shift;
            }
        }
        counts
    }
}

/// One prefix of a Gray-code Sobol sequence of any dimension, split into
/// the classes its comparator count sums over: [`SobolPrefix::new`] is
/// the `O(width)` half of the digit DP that depends on the prefix alone,
/// and [`PrefixClasses::count`] the branch-free half that depends on the
/// threshold. One prefix serves any number of thresholds, the way the
/// leftmost PE of Fig. 7 generates the (IFM bit, random number) pair once
/// for its whole row. A [`PrefixTable`] holds the same classes for many
/// prefixes at once.
///
/// The sequence is `seq[i] = XOR { directions[b] : bit b of gray(i) }`,
/// with `width = directions.len()` and the generator's direction numbers
/// ([`crate::rng::SobolSource::directions`]). Every Sobol dimension has
/// `v_j = m_j · 2^(width−1−j)` with `m_j` odd, so the lowest set bit of
/// `v_j` is bit `width − 1 − j`. Split the indices below `prefix` by the
/// set bits `b` of `prefix`: the class that shares the bits of `prefix`
/// above `b` and clears bit `b` has `b` free low index bits. Their Gray
/// bits select among `v_0, …, v_(b−1)`, whose lowest set bits are
/// distinct and all in the output's top `b` bits, so the class sweeps
/// those bits bijectively over fixed low bits `low`: the XOR of the
/// direction numbers its Gray bits `b` and up select, masked to the low
/// `s = width − b` bits. Its outputs are `high · 2^s + low` for every
/// `high < 2^b`, so its count below a threshold `t ≤ 2^width` is
/// `⌈(t − low) / 2^s⌉` clamped at zero, which is exactly
/// `(t + mask − low) >> s` with `mask = 2^s − 1` (`mask − low < 2^s`
/// rounds a non-positive `t − low` down to zero). A prefix stores one
/// `(mask − low, s)` pair per set bit, and a full period one class with
/// no fixed bits, `(0, 0)`: the sequence is a permutation of
/// `0..2^width`. Dimension 0 (`v_j = 2^(width−1−j)`) is the base-2 van
/// der Corput sequence.
///
/// Agrees exactly with counting a drained sequence of every dimension
/// (`tests::sobol_prefix_count_matches_every_dimension`).
#[derive(Debug, Clone)]
pub struct SobolPrefix {
    /// `(mask − low) << SHIFT_BITS | s` per class.
    classes: [u32; MAX_WIDTH],
    /// Classes in use.
    len: u8,
    /// `2^width`.
    period: u32,
}

impl SobolPrefix {
    /// Splits the first `prefix` outputs of the Sobol sequence with these
    /// `directions` into classes, in `O(width)` and with no branch on the
    /// prefix's bits.
    ///
    /// # Panics
    ///
    /// Panics if `directions` is empty or has more entries than the
    /// widest generator the workspace builds ([`crate::MAX_BITWIDTH`]),
    /// or if `prefix` exceeds the period `2^width` (the Gray-code
    /// generator is not periodic past one period, so a longer prefix has
    /// no closed form).
    #[must_use]
    pub fn new(directions: &[u64], prefix: u64) -> Self {
        let period = period(directions);
        let mut classes = [0; MAX_WIDTH];
        let len = split(directions, period, prefix, &mut classes);
        Self {
            classes,
            len,
            // At most 2^MAX_WIDTH: lint: allow(narrowing)
            period: period as u32,
        }
    }

    /// The prefix's classes, to count against thresholds.
    #[must_use]
    #[inline]
    pub fn classes(&self) -> PrefixClasses<'_> {
        PrefixClasses {
            classes: &self.classes[..usize::from(self.len)],
            period: self.period,
        }
    }

    /// The number of the prefix's outputs below `threshold`
    /// ([`PrefixClasses::count`]).
    #[must_use]
    #[inline]
    pub fn count(&self, threshold: u64) -> u64 {
        self.classes().count(threshold)
    }
}

/// Many prefixes of one Sobol generator, each split into its classes once
/// ([`SobolPrefix`]) and looked up by row: the classes sit at a fixed
/// stride of `width` (one packed `u32` each, plus one `u8` class count per
/// row), so `r` rows take `r · (4 · width + 1)` bytes, about 3.7 KB for
/// the 129 input levels of an 8-bit rate-coded window and 92 KB for the
/// 2,049 of a 12-bit one.
#[derive(Debug, Clone)]
pub struct PrefixTable {
    /// Classes per row slot: the generator width.
    width: usize,
    /// `2^width`.
    period: u32,
    /// `(mask − low) << SHIFT_BITS | s` per class, `width` slots per row.
    classes: Vec<u32>,
    /// Classes in use per row.
    lens: Vec<u8>,
}

impl PrefixTable {
    /// Splits each of `prefixes` of the Sobol sequence with these
    /// `directions`, in order: row `i` holds the `i`-th prefix.
    ///
    /// # Panics
    ///
    /// Panics like [`SobolPrefix::new`] on an unsupported width or a
    /// prefix past the period.
    #[must_use]
    pub fn new(directions: &[u64], prefixes: impl IntoIterator<Item = u64>) -> Self {
        let width = directions.len();
        let period = period(directions);
        let prefixes = prefixes.into_iter();
        let rows = prefixes.size_hint().0;
        let mut table = Self {
            width,
            // At most 2^MAX_WIDTH: lint: allow(narrowing)
            period: period as u32,
            classes: Vec::with_capacity(rows * width),
            lens: Vec::with_capacity(rows),
        };
        for prefix in prefixes {
            let start = table.classes.len();
            table.classes.resize(start + width, 0);
            let len = split(directions, period, prefix, &mut table.classes[start..]);
            table.lens.push(len);
        }
        table
    }

    /// The classes of row `row`, the `row`-th prefix given to
    /// [`new`](Self::new).
    ///
    /// # Panics
    ///
    /// Panics if the table has no row `row`.
    #[must_use]
    #[inline]
    pub fn row(&self, row: usize) -> PrefixClasses<'_> {
        let start = row * self.width;
        PrefixClasses {
            classes: &self.classes[start..start + usize::from(self.lens[row])],
            period: self.period,
        }
    }
}

/// Closed-form prefix count of a Gray-code Sobol sequence of any
/// dimension: the number of indices `i < prefix` whose output is below
/// `threshold`, in `O(width)` with `width = directions.len()`. No drained
/// sequence, no comparator stream: `SobolPrefix::new(directions,
/// prefix).count(threshold)` (see [`SobolPrefix`] for the derivation).
/// Build the [`SobolPrefix`] once instead to count one prefix against
/// many thresholds.
///
/// # Panics
///
/// Panics like [`SobolPrefix::new`]: if `directions` is empty or wider
/// than [`crate::MAX_BITWIDTH`], or if `prefix` exceeds the period
/// `2^width`.
#[must_use]
pub fn sobol_prefix_count(directions: &[u64], prefix: u64, threshold: u64) -> u64 {
    SobolPrefix::new(directions, prefix).count(threshold)
}

/// Closed-form prefix count of a wrapping counter source: the number of
/// cycles `t < cycles` with `t mod 2^width < threshold` — the enable-bit
/// count of a **temporal-coded** MAC window, with no drained sequence
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
/// Sources reset per MAC window, so one drained sequence serves every
/// window of a tile.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bsg::{Bsg, ConditionalBsg};
    use crate::rng::{CounterSource, LfsrSource, SobolSource, SOBOL_DIMENSIONS};

    #[test]
    fn sobol_prefix_count_matches_every_dimension() {
        // Brute-force pin against the real generator of every dimension.
        // Widths 1..=9: one `SobolPrefix` per prefix 0..=period, counted
        // against every threshold 0..=period + 1. `below[t]` is the
        // drained count of outputs below `t` so far.
        for dim in 0..SOBOL_DIMENSIONS {
            for width in 1u32..=9 {
                let period = 1u64 << width;
                let directions = SobolSource::dimension(dim, width).directions().to_vec();
                let seq = sequence(&mut SobolSource::dimension(dim, width), period);
                let mut below = vec![0u64; period as usize + 2];
                for prefix in 0..=period {
                    let split = SobolPrefix::new(&directions, prefix);
                    for (threshold, &expect) in below.iter().enumerate() {
                        assert_eq!(
                            split.count(threshold as u64),
                            expect,
                            "dim {dim}, width {width}, prefix {prefix}, threshold {threshold}"
                        );
                    }
                    // The lane count, eight thresholds per call over the
                    // same 0..=period + 1 (the last call's spare lanes go
                    // unchecked).
                    for (call, expect) in below.chunks(LANES).enumerate() {
                        let mut lanes = [0u32; LANES];
                        for (lane, threshold) in lanes.iter_mut().zip(call * LANES..) {
                            *lane = threshold as u32;
                        }
                        let counts = split.classes().count_lanes(lanes);
                        for ((&count, &expect), threshold) in
                            counts.iter().zip(expect).zip(call * LANES..)
                        {
                            assert_eq!(
                                u64::from(count),
                                expect,
                                "lanes: dim {dim}, width {width}, prefix {prefix}, \
                                 threshold {threshold}"
                            );
                        }
                    }
                    if prefix < period {
                        for count in &mut below[seq[prefix as usize] as usize + 1..] {
                            *count += 1;
                        }
                    }
                }
            }
        }
        // Widths 10..=13: `sobol_prefix_count` at every prefix against a
        // spread of thresholds.
        let thresholds =
            |period: u64| [0, 1, period / 3, period / 2, period - 1, period, period + 5];
        for dim in 0..SOBOL_DIMENSIONS {
            for width in 10u32..=13 {
                let period = 1u64 << width;
                let mut src = SobolSource::dimension(dim, width);
                let seq = sequence(&mut src, period);
                for threshold in thresholds(period) {
                    let mut running = 0u64;
                    for prefix in 0..=period {
                        assert_eq!(
                            sobol_prefix_count(src.directions(), prefix, threshold),
                            running,
                            "dim {dim}, width {width}, prefix {prefix}, threshold {threshold}"
                        );
                        if prefix < period && seq[prefix as usize] < threshold {
                            running += 1;
                        }
                    }
                }
            }
        }
        // One wide generator, sampled: every 997th prefix plus both ends,
        // each split once and counted against sampled thresholds (both
        // ends, odd points, powers of two ± 1 and pseudo-random levels).
        // `hist[j]` counts the outputs so far that lie between thresholds
        // `j − 1` and `j`, so a prefix sum over it is the drained count.
        let width = 20u32;
        let period = 1u64 << width;
        let mut rng = crate::rng::SplitMix64::new(20);
        let mut thr: Vec<u64> = vec![0, 1, 2, 3, period / 3, period / 2, period - 1, period];
        thr.extend([period + 1, period + 5]);
        thr.extend((1..width).flat_map(|b| [(1u64 << b) - 1, 1 << b, (1 << b) + 1]));
        thr.extend((0..32).map(|_| rng.below(period)));
        thr.sort_unstable();
        thr.dedup();
        for dim in 0..SOBOL_DIMENSIONS {
            let mut src = SobolSource::dimension(dim, width);
            let directions = src.directions().to_vec();
            let mut hist = vec![0u64; thr.len() + 1];
            for prefix in 0..=period {
                if prefix % 997 == 0 || prefix + 1 >= period {
                    let split = SobolPrefix::new(&directions, prefix);
                    let mut expect = 0u64;
                    for (j, &threshold) in thr.iter().enumerate() {
                        expect += hist[j];
                        assert_eq!(
                            split.count(threshold),
                            expect,
                            "dim {dim}, width {width}, prefix {prefix}, threshold {threshold}"
                        );
                    }
                }
                if prefix < period {
                    let v = src.next();
                    hist[thr.partition_point(|&t| t <= v)] += 1;
                }
            }
        }
    }

    #[test]
    fn count_lanes_take_thresholds_up_to_the_widest_lane() {
        // On the widest generator a prefix splits (MAX_BITWIDTH bits),
        // thresholds up to u32::MAX clamp to the period, and every lane
        // agrees with the scalar count.
        let width = crate::MAX_BITWIDTH;
        let period = 1u32 << width;
        let directions = SobolSource::dimension(3, width).directions().to_vec();
        let thresholds = [
            0u32,
            1,
            period / 2,
            period - 1,
            period,
            period + 1,
            u32::MAX,
            12_345,
        ];
        for prefix in [0u64, 1, 12_345, u64::from(period) - 1, u64::from(period)] {
            let split = SobolPrefix::new(&directions, prefix);
            let counts = split.classes().count_lanes(thresholds);
            for (&count, &threshold) in counts.iter().zip(&thresholds) {
                assert_eq!(
                    u64::from(count),
                    split.count(u64::from(threshold)),
                    "prefix {prefix}, threshold {threshold}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "unsupported Sobol width 25")]
    fn prefixes_reject_generators_wider_than_max_bitwidth() {
        // A prefix holds one class per generator bit, up to the widest
        // generator the workspace builds; a table splits the same way.
        let directions = SobolSource::dimension(0, crate::MAX_BITWIDTH + 1)
            .directions()
            .to_vec();
        let _ = SobolPrefix::new(&directions, 7);
    }

    #[test]
    #[should_panic(expected = "unsupported Sobol width 25")]
    fn tables_reject_generators_wider_than_max_bitwidth() {
        let directions = SobolSource::dimension(2, crate::MAX_BITWIDTH + 1)
            .directions()
            .to_vec();
        let _ = PrefixTable::new(&directions, [7]);
    }

    #[test]
    fn table_rows_match_their_prefixes_at_every_threshold() {
        // Row by row, a table counts exactly what `SobolPrefix::new` of
        // the same prefix counts, at every threshold 0..=2^width (eight
        // per lane call): every prefix of widths 1..=10, sampled prefixes
        // (every 97th, both ends) of widths 11..=13, on the weight RNG
        // (dimension 0) and uGEMM-H's zeros-phase RNG (dimension 2).
        for dim in [0usize, 2] {
            for width in 1u32..=13 {
                let period = 1u64 << width;
                let directions = SobolSource::dimension(dim, width).directions().to_vec();
                let prefixes: Vec<u64> = (0..=period)
                    .filter(|&p| width <= 10 || p % 97 == 0 || p + 1 >= period)
                    .collect();
                let table = PrefixTable::new(&directions, prefixes.iter().copied());
                let thresholds: Vec<u32> = (0..=period as u32).collect();
                for (row, &prefix) in prefixes.iter().enumerate() {
                    let own = SobolPrefix::new(&directions, prefix);
                    for chunk in thresholds.chunks(LANES) {
                        let mut lanes = [0u32; LANES];
                        lanes[..chunk.len()].copy_from_slice(chunk);
                        assert_eq!(
                            table.row(row).count_lanes(lanes),
                            own.classes().count_lanes(lanes),
                            "dim {dim}, width {width}, prefix {prefix}, thresholds {chunk:?}"
                        );
                    }
                    assert_eq!(
                        table.row(row).count(period),
                        prefix,
                        "dim {dim}, width {width}, prefix {prefix}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the Sobol period")]
    fn vdc_prefix_count_rejects_prefixes_past_the_period() {
        // The Sobol recurrence wraps its direction index, so the second
        // period of the van der Corput sequence is NOT a repeat of the
        // first: a longer prefix has no closed form and must be refused,
        // not silently extrapolated.
        let _ = sobol_prefix_count(SobolSource::dimension(0, 4).directions(), 17, 3);
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
        // Gate a stepped C-BSG with every enable density over the full
        // window, on the weight RNG (dimension 0) and uGEMM-H's other
        // phase RNGs (dimensions 1 and 2); the whole-window answer is the
        // closed-form prefix count of the enable popcount.
        for dim in [0usize, 1, 2] {
            let dirs = SobolSource::dimension(dim, 7).directions().to_vec();
            for magnitude in [0u64, 3, 64, 100, 128] {
                for enabled in [0u64, 1, 63, 64, 65, 77, 128] {
                    let mut serial = ConditionalBsg::new(magnitude, SobolSource::dimension(dim, 7));
                    let mut ones = 0u64;
                    for cycle in 0..128 {
                        // An arbitrary but fixed enable pattern with
                        // exactly `enabled` ones: the first `enabled`
                        // cycles.
                        if serial.step(cycle < enabled) {
                            ones += 1;
                        }
                    }
                    assert_eq!(
                        sobol_prefix_count(&dirs, enabled, magnitude),
                        ones,
                        "dim {dim}, |W| {magnitude}, {enabled} enabled"
                    );
                }
            }
        }
    }

    #[test]
    fn packed_cbsg_gating_is_order_independent() {
        // The C-BSG only sees *how many* enable ones have passed, never
        // where they sit — scattering the enables must not change the
        // window count. This is the identity every closed-form window
        // relies on.
        for dim in [0usize, 2] {
            let mut serial = ConditionalBsg::new(90, SobolSource::dimension(dim, 7));
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
            let dirs = SobolSource::dimension(dim, 7).directions().to_vec();
            assert_eq!(sobol_prefix_count(&dirs, enabled, 90), ones, "dim {dim}");
        }
    }

    #[test]
    fn packed_cbsg_works_over_any_source() {
        // The prefix identity holds for every source: a counter-driven
        // C-BSG matches the counter's closed form, and an LFSR (no closed
        // form) matches its drained comparator stream.
        let mut serial = ConditionalBsg::new(17, CounterSource::new(7));
        let ones = (0..100).filter(|_| serial.step(true)).count() as u64;
        assert_eq!(counter_prefix_count(7, 100, 17), ones);
        let mut serial = ConditionalBsg::new(17, LfsrSource::new(7, 5));
        let ones = (0..100).filter(|_| serial.step(true)).count() as u64;
        let seq = sequence(&mut LfsrSource::new(7, 5), 100);
        assert_eq!(comparator_stream(&seq, 17).count_ones(), ones);
    }
}
