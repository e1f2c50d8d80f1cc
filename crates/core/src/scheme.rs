//! Computing schemes evaluated by the paper (Section IV-C2).
//!
//! Five systolic-array computing schemes share the weight-stationary
//! dataflow and differ only in how a PE performs its multiply-accumulate:
//!
//! | Scheme | Paper label | MAC cycles (N-bit, EBT n) |
//! |---|---|---|
//! | [`BinaryParallel`](ComputingScheme::BinaryParallel) | BP | 1 |
//! | [`BinarySerial`](ComputingScheme::BinarySerial) | BS | N + 1 |
//! | [`UGemmHybrid`](ComputingScheme::UGemmHybrid) | UG | 2^N + 1 |
//! | [`UnaryRate`](ComputingScheme::UnaryRate) | UR | 2^(n−1) + 1 |
//! | [`UnaryTemporal`](ComputingScheme::UnaryTemporal) | UT | 2^(N−1) + 1 |

use usystolic_unary::coding::Coding;
use usystolic_unary::EarlyTermination;

/// The computing scheme of a systolic-array PE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComputingScheme {
    /// Conventional bit-parallel binary MAC: 1 cycle (the TPU-style
    /// baseline \[30\]).
    BinaryParallel,
    /// Bit-serial binary multiplication (one serialised input, as in
    /// Stripes \[31\]): `N` multiply cycles + 1 accumulation cycle.
    BinarySerial,
    /// uGEMM-H: hybrid unary-binary baseline with the *bipolar* uMUL of
    /// uGEMM \[69\] directly on signed data: `2^N` multiply cycles + 1.
    UGemmHybrid,
    /// uSystolic with rate-coded IFM bitstreams: `2^(n−1)` multiply cycles
    /// + 1, early-terminable to any effective bitwidth `n ≤ N`.
    UnaryRate,
    /// uSystolic with temporal-coded IFM bitstreams: `2^(N−1)` multiply
    /// cycles + 1, no early termination (Section II-B3).
    UnaryTemporal,
}

impl ComputingScheme {
    /// All five schemes in the paper's presentation order (Fig. 11: BP, BS,
    /// UG, UR, UT).
    pub const ALL: [ComputingScheme; 5] = [
        ComputingScheme::BinaryParallel,
        ComputingScheme::BinarySerial,
        ComputingScheme::UGemmHybrid,
        ComputingScheme::UnaryRate,
        ComputingScheme::UnaryTemporal,
    ];

    /// The paper's two-letter label (BP / BS / UG / UR / UT).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            ComputingScheme::BinaryParallel => "BP",
            ComputingScheme::BinarySerial => "BS",
            ComputingScheme::UGemmHybrid => "UG",
            ComputingScheme::UnaryRate => "UR",
            ComputingScheme::UnaryTemporal => "UT",
        }
    }

    /// Whether the scheme is a unary (bitstream-based) design.
    #[must_use]
    pub fn is_unary(&self) -> bool {
        matches!(
            self,
            ComputingScheme::UGemmHybrid
                | ComputingScheme::UnaryRate
                | ComputingScheme::UnaryTemporal
        )
    }

    /// Whether the scheme admits early termination (rate-coded uSystolic
    /// only, Section III-C).
    #[must_use]
    pub fn supports_early_termination(&self) -> bool {
        matches!(self, ComputingScheme::UnaryRate)
    }

    /// Whether the scheme's unary operands are sign-magnitude pairs, so
    /// every increment of one MAC window carries the constant sign
    /// `ISIGN ⊕ WSIGN` (Fig. 7). False for binary schemes (multi-bit
    /// products, not ±1 increments) and for uGEMM-H, whose *bipolar*
    /// streams mix +1/−1 increments within a single window. This is the
    /// semantic property that makes the closed-form window legal: one
    /// signed count per window instead of a ±1 walk.
    #[must_use]
    pub fn sign_magnitude_operands(&self) -> bool {
        matches!(
            self,
            ComputingScheme::UnaryRate | ComputingScheme::UnaryTemporal
        )
    }

    /// The bitstream coding of the scheme's IFM path, if unary.
    #[must_use]
    pub fn coding(&self) -> Option<Coding> {
        match self {
            ComputingScheme::UGemmHybrid | ComputingScheme::UnaryRate => Some(Coding::Rate),
            ComputingScheme::UnaryTemporal => Some(Coding::Temporal),
            _ => None,
        }
    }

    /// Multiplication cycles for `bitwidth`-bit data under the given
    /// early-termination policy (ignored by schemes that do not support
    /// it).
    #[must_use]
    pub fn mul_cycles(&self, bitwidth: u32, et: EarlyTermination) -> u64 {
        match self {
            ComputingScheme::BinaryParallel => 1,
            ComputingScheme::BinarySerial => u64::from(bitwidth),
            ComputingScheme::UGemmHybrid => 1u64 << bitwidth,
            ComputingScheme::UnaryRate => et.mul_cycles(),
            ComputingScheme::UnaryTemporal => 1u64 << (bitwidth - 1),
        }
    }

    /// Total MAC cycles: multiplication plus the accumulation cycle
    /// (binary parallel folds both into its single cycle).
    #[must_use]
    pub fn mac_cycles(&self, bitwidth: u32, et: EarlyTermination) -> u64 {
        match self {
            ComputingScheme::BinaryParallel => 1,
            _ => self.mul_cycles(bitwidth, et) + 1,
        }
    }

    /// The divisor `D` such that the scheme's integer MAC result
    /// approximates `Σ wᵢ·iᵢ / D` in the quantised domain:
    ///
    /// * binary schemes are exact (`D = 1`);
    /// * uSystolic counts product-stream ones over `2^(N−1)` positions
    ///   (`D = 2^(N−1)`, independent of early termination thanks to the
    ///   top-row shifters);
    /// * uGEMM-H's bipolar ±1 accumulation over `2^N` positions yields
    ///   `D = 2^(N−2)`.
    #[must_use]
    pub fn product_divisor(&self, bitwidth: u32) -> f64 {
        match self {
            ComputingScheme::BinaryParallel | ComputingScheme::BinarySerial => 1.0,
            ComputingScheme::UnaryRate | ComputingScheme::UnaryTemporal => {
                (1u64 << (bitwidth - 1)) as f64
            }
            ComputingScheme::UGemmHybrid => (1u64 << (bitwidth - 2)) as f64,
        }
    }
}

impl core::fmt::Display for ComputingScheme {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            ComputingScheme::BinaryParallel => "Binary Parallel",
            ComputingScheme::BinarySerial => "Binary Serial",
            ComputingScheme::UGemmHybrid => "uGEMM-H",
            ComputingScheme::UnaryRate => "uSystolic Rate",
            ComputingScheme::UnaryTemporal => "uSystolic Temporal",
        })
    }
}

impl usystolic_obs::ToJson for ComputingScheme {
    fn to_json(&self) -> usystolic_obs::JsonValue {
        usystolic_obs::JsonValue::Str(self.label().to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_cycles_match_figure_10_notation() {
        // Fig. 10: BP = 1 (MAC), BS = 8 mul cycles, Unary-32c/64c/128c,
        // uGEMM-H = 256 mul cycles — all for 8-bit data.
        let full = EarlyTermination::full(8);
        assert_eq!(ComputingScheme::BinaryParallel.mac_cycles(8, full), 1);
        assert_eq!(ComputingScheme::BinarySerial.mul_cycles(8, full), 8);
        assert_eq!(ComputingScheme::BinarySerial.mac_cycles(8, full), 9);
        assert_eq!(ComputingScheme::UnaryTemporal.mul_cycles(8, full), 128);
        assert_eq!(ComputingScheme::UGemmHybrid.mul_cycles(8, full), 256);
        let et32 = EarlyTermination::new(8, 6).unwrap();
        assert_eq!(ComputingScheme::UnaryRate.mul_cycles(8, et32), 32);
        assert_eq!(ComputingScheme::UnaryRate.mac_cycles(8, et32), 33);
    }

    #[test]
    fn only_unary_rate_early_terminates() {
        for s in ComputingScheme::ALL {
            assert_eq!(
                s.supports_early_termination(),
                s == ComputingScheme::UnaryRate,
                "{s}"
            );
        }
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::HashSet<_> =
            ComputingScheme::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), 5);
    }

    #[test]
    fn coding_assignment() {
        use usystolic_unary::coding::Coding;
        assert_eq!(ComputingScheme::UnaryRate.coding(), Some(Coding::Rate));
        assert_eq!(
            ComputingScheme::UnaryTemporal.coding(),
            Some(Coding::Temporal)
        );
        assert_eq!(ComputingScheme::UGemmHybrid.coding(), Some(Coding::Rate));
        assert_eq!(ComputingScheme::BinaryParallel.coding(), None);
        assert!(!ComputingScheme::BinarySerial.is_unary());
        assert!(ComputingScheme::UnaryRate.is_unary());
    }

    #[test]
    fn product_divisors() {
        assert_eq!(ComputingScheme::BinaryParallel.product_divisor(8), 1.0);
        assert_eq!(ComputingScheme::UnaryRate.product_divisor(8), 128.0);
        assert_eq!(ComputingScheme::UGemmHybrid.product_divisor(8), 64.0);
    }
}
