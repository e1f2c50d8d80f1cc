//! Accumulation structures for unary and hybrid unary-binary computing.
//!
//! Fully streaming unary (FSU) designs like uGEMM aggregate product
//! bitstreams *in the unary domain* ([`MuxAdder`], [`ParallelCounter`],
//! [`OrAdder`]), which is where their accuracy loss comes from
//! (Section II-B4a). Hybrid designs — uSystolic included — accumulate the
//! product bits *in binary* with a plain signed counter, the
//! [`BinaryAccumulator`] (the OREG + ADD of Fig. 7), which is lossless up
//! to its register width.

use crate::bitstream::Bitstream;
use crate::rng::NumberSource;
use crate::UnaryError;

/// Saturating unary adder: a plain OR gate.
///
/// Exact only when inputs never overlap; otherwise it under-counts
/// (saturation). Listed for completeness of the unary background.
#[derive(Debug, Clone, Copy, Default)]
pub struct OrAdder;

impl OrAdder {
    /// ORs two equal-length streams.
    ///
    /// # Errors
    ///
    /// Returns [`UnaryError::LengthMismatch`] if lengths differ.
    pub fn add(&self, a: &Bitstream, b: &Bitstream) -> Result<Bitstream, UnaryError> {
        a.or(b)
    }
}

/// Scaled unary adder: a MUX selecting one input per cycle.
///
/// Computes the *average* of its inputs (`(a + b) / 2` for two inputs), so
/// a tree of MUX adders loses `log2(n)` bits of magnitude — another FSU
/// accuracy cost uSystolic avoids.
#[derive(Debug, Clone)]
pub struct MuxAdder<S> {
    select: S,
}

impl<S: NumberSource> MuxAdder<S> {
    /// Creates a MUX adder whose select line is driven by `select` (a
    /// 1-bit-equivalent decision is taken from the source's LSB).
    #[must_use]
    pub fn new(select: S) -> Self {
        Self { select }
    }

    /// Adds (averages) two equal-length streams.
    ///
    /// # Errors
    ///
    /// Returns [`UnaryError::LengthMismatch`] if lengths differ.
    pub fn add(&mut self, a: &Bitstream, b: &Bitstream) -> Result<Bitstream, UnaryError> {
        if a.len() != b.len() {
            return Err(UnaryError::LengthMismatch {
                left: a.len(),
                right: b.len(),
            });
        }
        Ok((0..a.len())
            .map(|i| {
                let pick_a = self.select.next() & 1 == 0;
                if pick_a {
                    a.get(i).unwrap_or(false)
                } else {
                    b.get(i).unwrap_or(false)
                }
            })
            .collect())
    }
}

/// Accumulative parallel counter (APC): counts the ones across `n` parallel
/// product bits each cycle and adds the count to a binary register.
///
/// This is the uADD structure that converts a *column* of bitstreams to a
/// binary sum; uGEMM uses it at its outputs.
#[derive(Debug, Clone, Default)]
pub struct ParallelCounter {
    total: u64,
    cycles: u64,
}

impl ParallelCounter {
    /// Creates an empty counter.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes one cycle's worth of parallel bits.
    pub fn step(&mut self, bits: &[bool]) {
        self.total += bits.iter().filter(|&&b| b).count() as u64;
        self.cycles += 1;
    }

    /// Total ones counted so far.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Cycles consumed so far.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Resets the counter.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

/// Register widths a [`BinaryAccumulator`] supports: a signed `i64`
/// value with at least one magnitude bit.
pub const ACC_WIDTHS: core::ops::RangeInclusive<u32> = 2..=63;

/// Signed binary accumulator with a bounded register width: the
/// reduced-resolution OREG of Fig. 7.
///
/// uSystolic's HUB flow keeps the output at the *input* resolution
/// (`N` bits instead of the `2N` bits a binary multiplier would produce,
/// Section III-A), so the OREG can be `N` bits smaller than in binary
/// designs. The accumulator saturates at its width bounds and records
/// whether saturation ever occurred, so experiments can quantify the
/// accuracy cost of a too-narrow register.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinaryAccumulator {
    value: i64,
    width: u32,
    saturated: bool,
}

impl BinaryAccumulator {
    /// Creates a zeroed accumulator with a signed register of `width` bits
    /// (range `[-2^(width-1), 2^(width-1) - 1]`).
    ///
    /// # Panics
    ///
    /// Panics if `width` is outside [`ACC_WIDTHS`].
    #[must_use]
    pub fn new(width: u32) -> Self {
        assert!(
            ACC_WIDTHS.contains(&width),
            "unsupported accumulator width {width}"
        );
        Self {
            value: 0,
            width,
            saturated: false,
        }
    }

    /// Adds a signed amount (e.g. ±1 per product bit, or a partial sum from
    /// the PE below), saturating at the register bounds.
    pub fn add(&mut self, amount: i64) {
        let min = -(1i64 << (self.width - 1));
        let max = (1i64 << (self.width - 1)) - 1;
        let sum = self.value.saturating_add(amount);
        if sum > max {
            self.value = max;
            self.saturated = true;
        } else if sum < min {
            self.value = min;
            self.saturated = true;
        } else {
            self.value = sum;
        }
    }

    /// Adds +1 or -1 for an asserted product bit with the given sign — the
    /// MUX + ADD path of Fig. 7.
    pub fn add_bit(&mut self, negative: bool) {
        self.add(if negative { -1 } else { 1 });
    }

    /// Current register value.
    #[must_use]
    pub fn value(&self) -> i64 {
        self.value
    }

    /// Register width in bits.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Whether any addition saturated.
    #[must_use]
    pub fn saturated(&self) -> bool {
        self.saturated
    }

    /// Drains the register: returns the value and clears it (the OFM is
    /// streamed out and the OREG reused, step 4 of Fig. 7).
    pub fn drain(&mut self) -> i64 {
        let v = self.value;
        self.value = 0;
        self.saturated = false;
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SobolSource;

    fn bs(s: &str) -> Bitstream {
        s.chars().map(|c| c == '1').collect()
    }

    #[test]
    fn or_adder_saturates() {
        let a = bs("1100");
        let b = bs("1010");
        let sum = OrAdder.add(&a, &b).unwrap();
        assert_eq!(sum.count_ones(), 3); // 2 + 2 would need 4; OR gives 3.
    }

    #[test]
    fn mux_adder_averages() {
        let a = Bitstream::ones(256);
        let b = Bitstream::zeros(256);
        let sum = MuxAdder::new(SobolSource::dimension(0, 8))
            .add(&a, &b)
            .unwrap();
        assert!((sum.unipolar_value() - 0.5).abs() < 0.02);
    }

    #[test]
    fn mux_adder_rejects_mismatch() {
        let a = Bitstream::ones(8);
        let b = Bitstream::ones(9);
        assert!(MuxAdder::new(SobolSource::dimension(0, 8))
            .add(&a, &b)
            .is_err());
    }

    #[test]
    fn parallel_counter_counts() {
        let mut pc = ParallelCounter::new();
        pc.step(&[true, false, true]);
        pc.step(&[true, true, true]);
        assert_eq!(pc.total(), 5);
        assert_eq!(pc.cycles(), 2);
        pc.reset();
        assert_eq!(pc.total(), 0);
    }

    #[test]
    fn accumulator_adds_signed_bits() {
        let mut acc = BinaryAccumulator::new(8);
        for _ in 0..5 {
            acc.add_bit(false);
        }
        for _ in 0..2 {
            acc.add_bit(true);
        }
        assert_eq!(acc.value(), 3);
        assert!(!acc.saturated());
    }

    #[test]
    fn accumulator_saturates_at_width() {
        let mut acc = BinaryAccumulator::new(4); // range [-8, 7]
        acc.add(100);
        assert_eq!(acc.value(), 7);
        assert!(acc.saturated());
        acc.drain();
        acc.add(-100);
        assert_eq!(acc.value(), -8);
        assert!(acc.saturated());
    }

    #[test]
    fn accumulator_drain_clears() {
        let mut acc = BinaryAccumulator::new(8);
        acc.add(42);
        assert_eq!(acc.drain(), 42);
        assert_eq!(acc.value(), 0);
        assert!(!acc.saturated());
    }

    #[test]
    #[should_panic(expected = "unsupported accumulator width")]
    fn accumulator_rejects_width_one() {
        let _ = BinaryAccumulator::new(1);
    }
}
