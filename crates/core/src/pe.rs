//! Cycle-level uSystolic processing elements with spatial-temporal
//! bitstream reuse (Fig. 7 of the paper).
//!
//! One [`UnaryRow`] models a full row of the array processing a single
//! IFM element against the row's stationary weights for one MAC window:
//!
//! * the **leftmost PE** holds the IFM in sign-magnitude form (IABS /
//!   ISIGN), generates the IFM bit by comparing IABS against its RNG or
//!   CNT (comparator C-I), and conditionally advances the weight RNG —
//!   the C-BSG of Fig. 4;
//! * every **inner PE** receives the IFM bit through a one-cycle delay
//!   flip-flop (IDFF) and the weight random number through a one-cycle
//!   delay register (RREG), so both are generated *once* and reused
//!   spatially and temporally along the row (Eq. 3);
//! * each PE compares the (delayed) random number against its own weight
//!   magnitude (comparator C-W), ANDs with the (delayed) IFM bit and
//!   accumulates ±1 into its OREG according to `WSIGN ⊕ ISIGN`.
//!
//! Because column `c` sees exactly the sequence column `0` saw, lagged by
//! `c` cycles, the zero-SCC condition established at the leftmost column
//! holds at every column (Eq. 4) — the row-level simulation verifies this
//! bit-for-bit in its tests.

use usystolic_unary::coding::Coding;
use usystolic_unary::packed;
use usystolic_unary::rng::{CounterSource, NumberSource, SobolSource};
use usystolic_unary::sign::SignMagnitude;

/// The IFM bitstream source of a leftmost PE: an RNG for rate coding or a
/// counter for temporal coding (the `RNG/CNT` block of Fig. 7).
#[derive(Debug, Clone)]
pub enum IfmSource {
    /// Rate coding through a Sobol generator.
    Rate(SobolSource),
    /// Temporal coding through a counter.
    Temporal(CounterSource),
}

impl IfmSource {
    /// Creates the source for the given coding at `bitwidth`-bit data
    /// (`bitwidth − 1` comparator bits).
    ///
    /// Rate coding uses Sobol dimension 1, keeping it independent of the
    /// weight RNG (dimension 0) so the leftmost column satisfies the
    /// zero-SCC precondition of Eq. 2.
    #[must_use]
    pub fn for_coding(coding: Coding, bitwidth: u32) -> Self {
        match coding {
            Coding::Rate => IfmSource::Rate(SobolSource::dimension(1, bitwidth - 1)),
            Coding::Temporal => IfmSource::Temporal(CounterSource::new(bitwidth - 1)),
        }
    }
}

impl NumberSource for IfmSource {
    fn next(&mut self) -> u64 {
        match self {
            IfmSource::Rate(s) => s.next(),
            IfmSource::Temporal(s) => s.next(),
        }
    }

    fn width(&self) -> u32 {
        match self {
            IfmSource::Rate(s) => s.width(),
            IfmSource::Temporal(s) => s.width(),
        }
    }

    fn reset(&mut self) {
        match self {
            IfmSource::Rate(s) => s.reset(),
            IfmSource::Temporal(s) => s.reset(),
        }
    }
}

/// A cycle-level row of uSystolic PEs sharing one IFM element, with
/// spatial-temporal bitstream reuse between columns.
///
/// # Example
///
/// ```
/// use usystolic_core::UnaryRow;
/// use usystolic_unary::coding::Coding;
/// use usystolic_unary::SignMagnitude;
///
/// // One row, three stationary weights, one IFM element of -77/128.
/// let mut row = UnaryRow::new(
///     8,
///     SignMagnitude::from_signed(-77, 8),
///     vec![
///         SignMagnitude::from_signed(100, 8),
///         SignMagnitude::from_signed(-100, 8),
///         SignMagnitude::from_signed(50, 8),
///     ],
///     Coding::Rate,
/// );
/// let counts = row.run(128);
/// // Signs follow WSIGN xor ISIGN; magnitudes track |I||W|/128.
/// assert!(counts[0] < 0 && counts[1] > 0 && counts[2] < 0);
/// ```
#[derive(Debug, Clone)]
pub struct UnaryRow {
    bitwidth: u32,
    ifm: SignMagnitude,
    ifm_src: IfmSource,
    weight_rng: SobolSource,
    weights: Vec<SignMagnitude>,
    /// IDFF chain: `idff[c]` feeds column `c + 1`.
    idff: Vec<bool>,
    /// RREG chain: `rreg[c]` feeds column `c + 1`.
    rreg: Vec<u64>,
    last_r: u64,
    counts: Vec<i64>,
    cycle: u64,
}

impl UnaryRow {
    /// Creates a row with the given stationary weights (one per column),
    /// processing `ifm` under `coding` at `bitwidth`-bit data.
    ///
    /// The weight RNG is Sobol dimension 0 for every row of the array —
    /// "applying the same RNG to all rows … achieve\[s\] an identical
    /// accuracy level throughout all PEs" (Section III-B).
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or any magnitude exceeds
    /// `2^(bitwidth-1)`.
    #[must_use]
    pub fn new(
        bitwidth: u32,
        ifm: SignMagnitude,
        weights: Vec<SignMagnitude>,
        coding: Coding,
    ) -> Self {
        assert!(!weights.is_empty(), "a row needs at least one column");
        let max = usystolic_unary::stream_len(bitwidth);
        assert!(ifm.magnitude <= max, "IFM magnitude exceeds range");
        for w in &weights {
            assert!(w.magnitude <= max, "weight magnitude exceeds range");
        }
        let cols = weights.len();
        Self {
            bitwidth,
            ifm,
            ifm_src: IfmSource::for_coding(coding, bitwidth),
            weight_rng: SobolSource::dimension(0, bitwidth - 1),
            weights,
            idff: vec![false; cols.saturating_sub(1)],
            rreg: vec![0; cols.saturating_sub(1)],
            last_r: 0,
            counts: vec![0; cols],
            cycle: 0,
        }
    }

    /// Number of columns in the row.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.weights.len()
    }

    /// Advances the row by one clock cycle, returning the per-column
    /// product bits of this cycle (column `c`'s bit reflects the IFM bit
    /// generated `c` cycles ago).
    pub fn step(&mut self) -> Vec<bool> {
        // Leftmost PE: comparator C-I generates the IFM bit; the weight
        // RNG advances only when it is set (C-BSG).
        let e0 = self.ifm_src.next() < self.ifm.magnitude;
        if e0 {
            self.last_r = self.weight_rng.next();
        }
        let r0 = self.last_r;

        let cols = self.cols();
        let mut bits = Vec::with_capacity(cols);
        // Column 0 consumes (e0, r0) directly.
        bits.push(e0 && r0 < self.weights[0].magnitude);
        // Inner columns consume the delayed chain values.
        for c in 1..cols {
            let e = self.idff[c - 1];
            let r = self.rreg[c - 1];
            bits.push(e && r < self.weights[c].magnitude);
        }
        // Shift the delay chains right by one PE.
        for c in (1..cols.saturating_sub(1)).rev() {
            self.idff[c] = self.idff[c - 1];
            self.rreg[c] = self.rreg[c - 1];
        }
        if cols > 1 {
            self.idff[0] = e0;
            self.rreg[0] = r0;
        }
        self.cycle += 1;
        bits
    }

    /// Runs one full MAC window of `mul_cycles` multiply cycles per
    /// column, faithfully stepping the pipeline: the window is drained for
    /// `cols − 1` extra cycles so that every column observes the complete
    /// bit sequence (the systolic skew of the array). Product bits are
    /// accumulated as ±1 into the per-column counts according to the sign
    /// XOR.
    ///
    /// Returns the per-column signed counts.
    pub fn run(&mut self, mul_cycles: u64) -> &[i64] {
        let cols = self.cols() as u64;
        let total = mul_cycles + cols - 1;
        for cycle in 0..total {
            let bits = self.step();
            for (c, bit) in bits.iter().enumerate() {
                // Column c's window spans cycles [c, c + mul_cycles).
                let c64 = c as u64;
                if *bit && cycle >= c64 && cycle < c64 + mul_cycles {
                    self.counts[c] += self.ifm.product_increment(self.weights[c]);
                }
            }
        }
        &self.counts
    }

    /// Computes the same per-column counts as [`run`](Self::run) without
    /// simulating the delay pipeline (by the equivalence of Eq. 3, the
    /// delayed sequence is the original sequence), word-at-a-time: the IFM
    /// comparator and the per-column weight comparators are evaluated over
    /// precomputed source sequences packed 64 bits per word
    /// ([`usystolic_unary::packed`]), so each column's window collapses to
    /// one popcount instead of `mul_cycles` scalar iterations.
    ///
    /// The C-BSG gating (weight RNG advances only on enabled cycles)
    /// becomes a prefix length: after the window, exactly
    /// `popcount(enable)` RNG outputs have been consumed, and the column
    /// count is the prefix popcount of its weight comparator stream.
    /// Within one window every increment of a column carries the same sign
    /// (`ISIGN ⊕ WSIGN` is per-window constant), so the lump add is
    /// bit-exact. `tests::packed_path_matches_pipeline_across_shapes`
    /// proves the equivalence.
    pub fn run_packed(&mut self, mul_cycles: u64) -> &[i64] {
        let seq_i = packed::sequence(&mut self.ifm_src, mul_cycles);
        let enable = packed::comparator_stream(&seq_i, self.ifm.magnitude);
        let n_en = enable.count_ones();
        let seq_w = packed::sequence(&mut self.weight_rng, n_en);
        for (c, w) in self.weights.iter().enumerate() {
            let ones = packed::comparator_stream(&seq_w, w.magnitude).count_ones();
            self.counts[c] += self.ifm.product_increment(*w) * ones as i64;
        }
        &self.counts
    }

    /// Per-column signed counts accumulated so far.
    #[must_use]
    pub fn counts(&self) -> &[i64] {
        &self.counts
    }

    /// Cycles stepped so far.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Data bitwidth.
    #[must_use]
    pub fn bitwidth(&self) -> u32 {
        self.bitwidth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sm(v: i64) -> SignMagnitude {
        SignMagnitude::from_signed(v, 8)
    }

    #[test]
    fn single_column_matches_umul() {
        // One column is exactly the uMUL of Fig. 4.
        let mut row = UnaryRow::new(8, sm(77), vec![sm(100)], Coding::Rate);
        let counts = row.run(128).to_vec();
        let exact = 77.0 * 100.0 / 128.0;
        assert!(
            (counts[0] as f64 - exact).abs() <= 1.0,
            "{} vs {exact}",
            counts[0]
        );
    }

    #[test]
    fn every_column_is_equally_accurate() {
        // Eq. 4: all columns obey the same SCC constraint, so each column's
        // product is as accurate as the leftmost one.
        let weights: Vec<i64> = vec![100, 3, 77, 128, 55, 90, 13, 42];
        let ws: Vec<SignMagnitude> = weights.iter().map(|&w| sm(w)).collect();
        let mut row = UnaryRow::new(8, sm(111), ws, Coding::Rate);
        let counts = row.run(128).to_vec();
        for (c, &w) in weights.iter().enumerate() {
            let exact = 111.0 * w as f64 / 128.0;
            // Low-discrepancy bound: within ~2 counts of the exact product
            // at every column — no degradation away from the leftmost PE.
            assert!(
                (counts[c] as f64 - exact).abs() <= 2.5,
                "col {c}: {} vs {exact}",
                counts[c]
            );
        }
    }

    #[test]
    fn fast_path_matches_pipeline() {
        for ifm in [0i64, 1, -77, 111, 128, -128] {
            let weights: Vec<SignMagnitude> =
                [100, -3, 77, 0, -128, 55].iter().map(|&w| sm(w)).collect();
            let mut slow = UnaryRow::new(8, sm(ifm), weights.clone(), Coding::Rate);
            let mut packed = UnaryRow::new(8, sm(ifm), weights, Coding::Rate);
            let reference = slow.run(128).to_vec();
            assert_eq!(reference, packed.run_packed(128).to_vec(), "ifm {ifm}");
        }
    }

    #[test]
    fn fast_path_matches_pipeline_temporal() {
        let weights: Vec<SignMagnitude> = [64, -100, 17].iter().map(|&w| sm(w)).collect();
        let mut slow = UnaryRow::new(8, sm(-90), weights.clone(), Coding::Temporal);
        let mut packed = UnaryRow::new(8, sm(-90), weights, Coding::Temporal);
        let reference = slow.run(128).to_vec();
        assert_eq!(reference, packed.run_packed(128).to_vec());
    }

    #[test]
    fn fast_path_matches_pipeline_early_terminated() {
        let weights: Vec<SignMagnitude> = [100, 50, -25, 127].iter().map(|&w| sm(w)).collect();
        let mut slow = UnaryRow::new(8, sm(99), weights.clone(), Coding::Rate);
        let mut packed = UnaryRow::new(8, sm(99), weights, Coding::Rate);
        let reference = slow.run(32).to_vec();
        assert_eq!(reference, packed.run_packed(32).to_vec());
    }

    #[test]
    fn packed_path_matches_pipeline_across_shapes() {
        // Packed against the stepped pipeline over non-square rows (cols ≠
        // typical tile widths, including a single-column row) and the full
        // EBT sweep of multiply-cycle counts 2^0 .. 2^(N-1).
        for coding in [Coding::Rate, Coding::Temporal] {
            for cols in [1usize, 3, 6] {
                let weights: Vec<SignMagnitude> = [100, -3, 77, 0, -128, 55][..cols]
                    .iter()
                    .map(|&w| sm(w))
                    .collect();
                for mul in [1u64, 2, 4, 8, 16, 32, 64, 128] {
                    let mut slow = UnaryRow::new(8, sm(-111), weights.clone(), coding);
                    let mut packed = UnaryRow::new(8, sm(-111), weights.clone(), coding);
                    let reference = slow.run(mul).to_vec();
                    assert_eq!(
                        reference,
                        packed.run_packed(mul).to_vec(),
                        "{coding:?} cols {cols} mul {mul}"
                    );
                }
            }
        }
    }

    #[test]
    fn packed_path_accumulates_across_windows() {
        // Consecutive windows on one row: the RNG state carried between
        // windows must match a scalar C-BSG loop. (`run` cannot serve as
        // the reference: its `cols − 1` drain cycles advance the RNGs.)
        let weights: Vec<SignMagnitude> = [90, -70].iter().map(|&w| sm(w)).collect();
        let ifm = sm(101);
        let mut packed = UnaryRow::new(8, ifm, weights.clone(), Coding::Rate);
        let mut ifm_src = IfmSource::for_coding(Coding::Rate, 8);
        let mut weight_rng = SobolSource::dimension(0, 7);
        let mut expect = vec![0i64; weights.len()];
        for _ in 0..3 {
            packed.run_packed(32);
            for _ in 0..32 {
                if ifm_src.next() < ifm.magnitude {
                    let r = weight_rng.next();
                    for (count, w) in expect.iter_mut().zip(&weights) {
                        if r < w.magnitude {
                            *count += ifm.product_increment(*w);
                        }
                    }
                }
            }
        }
        assert_eq!(packed.counts().to_vec(), expect);
    }

    #[test]
    fn signs_steer_accumulation() {
        // (-I) × (+W) accumulates negatively; (-I) × (-W) positively.
        let mut row = UnaryRow::new(8, sm(-77), vec![sm(100), sm(-100)], Coding::Rate);
        let counts = row.run(128).to_vec();
        assert!(counts[0] < 0);
        assert!(counts[1] > 0);
        assert_eq!(counts[0], -counts[1]);
    }

    #[test]
    fn zero_operands_produce_zero() {
        let mut row = UnaryRow::new(8, sm(0), vec![sm(100)], Coding::Rate);
        assert_eq!(row.run(128)[0], 0);
        let mut row = UnaryRow::new(8, sm(100), vec![sm(0)], Coding::Rate);
        assert_eq!(row.run(128)[0], 0);
    }

    #[test]
    fn full_scale_product_is_exact() {
        // 128/128 × 128/128 = 1.0 → count = 128 exactly.
        let mut row = UnaryRow::new(8, sm(128), vec![sm(128)], Coding::Rate);
        assert_eq!(row.run(128)[0], 128);
    }

    #[test]
    fn early_termination_scales_counts() {
        // With 32 of 128 cycles, the count lands in the 6-bit domain:
        // ≈ |I|·|W| / 128 / 4.
        let mut row = UnaryRow::new(8, sm(120), vec![sm(120)], Coding::Rate);
        let c = row.run(32)[0];
        let exact_full = 120.0 * 120.0 / 128.0;
        assert!(
            ((c * 4) as f64 - exact_full).abs() <= 4.0 + exact_full * 0.05,
            "scaled {} vs {exact_full}",
            c * 4
        );
    }

    #[test]
    fn temporal_coding_is_accurate_without_et() {
        let weights: Vec<SignMagnitude> = [100, -3, 77].iter().map(|&w| sm(w)).collect();
        let mut row = UnaryRow::new(8, sm(111), weights, Coding::Temporal);
        let counts = row.run(128).to_vec();
        for (c, w) in [100i64, -3, 77].iter().enumerate() {
            let exact = 111.0 * *w as f64 / 128.0;
            assert!(
                (counts[c] as f64 - exact).abs() <= 1.5,
                "col {c}: {} vs {exact}",
                counts[c]
            );
        }
    }

    #[test]
    fn step_returns_one_bit_per_column() {
        let mut row = UnaryRow::new(8, sm(64), vec![sm(64); 5], Coding::Rate);
        assert_eq!(row.step().len(), 5);
        assert_eq!(row.cycle(), 1);
        assert_eq!(row.cols(), 5);
        assert_eq!(row.bitwidth(), 8);
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn empty_row_rejected() {
        let _ = UnaryRow::new(8, sm(0), vec![], Coding::Rate);
    }
}
