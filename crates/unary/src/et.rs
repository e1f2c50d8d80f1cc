//! Early termination and effective bitwidth (Section III-C).
//!
//! Rate-coded uSystolic may stop a multiplication after `2^(n-1)` of the
//! full `2^(N-1)` cycles. Only the `n` most significant output bits are
//! then produced — `n` is the **effective bitwidth** (EBT) — and the
//! partial result must be scaled back by a left shift of `N − n` at the
//! top-row shifters. Temporal coding admits no early termination (the
//! leading-ones bit order would bias the product), which the constructor
//! enforces.

use crate::coding::Coding;

/// An early-termination policy: full data bitwidth `N` plus the effective
/// bitwidth `n ≤ N` actually computed.
///
/// # Example
///
/// ```
/// use usystolic_unary::EarlyTermination;
///
/// // The paper's "6-32" point: 6-bit EBT on 8-bit data, 32 multiply cycles.
/// let et = EarlyTermination::new(8, 6).unwrap();
/// assert_eq!(et.mul_cycles(), 32);
/// assert_eq!(et.mac_cycles(), 33);
/// assert_eq!(et.shift(), 2);
/// assert_eq!(et.scale(10), 40);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EarlyTermination {
    full_bitwidth: u32,
    effective_bitwidth: u32,
}

/// Error constructing an [`EarlyTermination`] policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum EtError {
    /// `effective_bitwidth` was zero or exceeded the full bitwidth.
    InvalidEffectiveBitwidth {
        /// Requested EBT.
        effective: u32,
        /// Full data bitwidth.
        full: u32,
    },
    /// Early termination was requested for temporal coding
    /// (Section II-B3: significant accuracy loss — not supported).
    TemporalCodingUnsupported,
    /// A multiply cycle count that is not a power of two in
    /// `1..=2^(full−1)`, the window lengths of EBT 1..=`full`.
    InvalidMulCycles {
        /// Requested multiply cycles.
        cycles: u64,
        /// Full data bitwidth.
        full: u32,
    },
}

impl core::fmt::Display for EtError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            EtError::InvalidEffectiveBitwidth { effective, full } => {
                write!(f, "effective bitwidth {effective} not in 1..={full}")
            }
            EtError::TemporalCodingUnsupported => {
                f.write_str("early termination is unsupported for temporal coding")
            }
            EtError::InvalidMulCycles { cycles, full } => write!(
                f,
                "multiply cycles {cycles} must be a power of two in 1..={}",
                1u64 << full.saturating_sub(1).min(63)
            ),
        }
    }
}

impl std::error::Error for EtError {}

impl EarlyTermination {
    /// Creates a policy computing `effective_bitwidth` of `full_bitwidth`
    /// bits.
    ///
    /// # Errors
    ///
    /// Returns [`EtError::InvalidEffectiveBitwidth`] unless
    /// `1 <= effective_bitwidth <= full_bitwidth`.
    pub fn new(full_bitwidth: u32, effective_bitwidth: u32) -> Result<Self, EtError> {
        if effective_bitwidth == 0 || effective_bitwidth > full_bitwidth {
            return Err(EtError::InvalidEffectiveBitwidth {
                effective: effective_bitwidth,
                full: full_bitwidth,
            });
        }
        Ok(Self {
            full_bitwidth,
            effective_bitwidth,
        })
    }

    /// The no-termination policy (`n = N`).
    #[must_use]
    pub fn full(bitwidth: u32) -> Self {
        Self {
            full_bitwidth: bitwidth,
            effective_bitwidth: bitwidth,
        }
    }

    /// Creates a policy checked against the coding: temporal coding only
    /// admits the full-length policy.
    ///
    /// # Errors
    ///
    /// Returns [`EtError::TemporalCodingUnsupported`] if a truncating
    /// policy is requested for [`Coding::Temporal`], or
    /// [`EtError::InvalidEffectiveBitwidth`] for a bad EBT.
    pub fn for_coding(
        coding: Coding,
        full_bitwidth: u32,
        effective_bitwidth: u32,
    ) -> Result<Self, EtError> {
        if coding == Coding::Temporal && effective_bitwidth != full_bitwidth {
            return Err(EtError::TemporalCodingUnsupported);
        }
        Self::new(full_bitwidth, effective_bitwidth)
    }

    /// Full data bitwidth `N`.
    #[must_use]
    pub fn full_bitwidth(&self) -> u32 {
        self.full_bitwidth
    }

    /// Effective bitwidth `n`.
    #[must_use]
    pub fn effective_bitwidth(&self) -> u32 {
        self.effective_bitwidth
    }

    /// Unary multiplication cycles: `2^(n-1)`.
    #[must_use]
    pub fn mul_cycles(&self) -> u64 {
        1u64 << (self.effective_bitwidth - 1)
    }

    /// MAC cycles: `2^(n-1) + 1` (one extra accumulation cycle,
    /// Section III-C).
    #[must_use]
    pub fn mac_cycles(&self) -> u64 {
        self.mul_cycles() + 1
    }

    /// Left-shift amount `N − n` applied by the top-row shifters.
    #[must_use]
    pub fn shift(&self) -> u32 {
        self.full_bitwidth - self.effective_bitwidth
    }

    /// Scales an early-terminated partial result back to `N`-bit range.
    #[must_use]
    pub fn scale(&self, partial: i64) -> i64 {
        partial << self.shift()
    }

    /// Whether this policy truncates at all.
    #[must_use]
    pub fn terminates_early(&self) -> bool {
        self.effective_bitwidth < self.full_bitwidth
    }

    /// Recovers the policy from a multiply cycle count, the notation used
    /// in the paper's figures ("Unary-32c" etc.).
    ///
    /// # Errors
    ///
    /// Returns [`EtError::InvalidMulCycles`] unless `mul_cycles` is a
    /// power of two in `1..=2^(full_bitwidth−1)`, the value the user
    /// gave rather than an effective bitwidth derived from it.
    pub fn from_mul_cycles(full_bitwidth: u32, mul_cycles: u64) -> Result<Self, EtError> {
        let invalid = EtError::InvalidMulCycles {
            cycles: mul_cycles,
            full: full_bitwidth,
        };
        if !mul_cycles.is_power_of_two() {
            return Err(invalid);
        }
        Self::new(full_bitwidth, mul_cycles.trailing_zeros() + 1).map_err(|_| invalid)
    }
}

impl core::fmt::Display for EarlyTermination {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Paper notation: (effective bitwidth)-(cycle count), e.g. "6-32".
        write!(f, "{}-{}", self.effective_bitwidth, self.mul_cycles())
    }
}

impl usystolic_obs::ToJson for EarlyTermination {
    fn to_json(&self) -> usystolic_obs::JsonValue {
        usystolic_obs::JsonValue::object(vec![
            ("full_bitwidth", self.full_bitwidth().to_json()),
            ("effective_bitwidth", self.effective_bitwidth().to_json()),
            ("mul_cycles", self.mul_cycles().to_json()),
            ("shift", self.shift().to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_ebt_cycle_pairs() {
        // Fig. 9 x-axis: 6-32, 7-64, 8-128, 9-256, 10-512, 11-1024, 12-2048.
        for (ebt, cycles) in [
            (6u32, 32u64),
            (7, 64),
            (8, 128),
            (9, 256),
            (10, 512),
            (11, 1024),
            (12, 2048),
        ] {
            let et = EarlyTermination::new(12, ebt).unwrap();
            assert_eq!(et.mul_cycles(), cycles, "EBT {ebt}");
            assert_eq!(et.to_string(), format!("{ebt}-{cycles}"));
        }
    }

    #[test]
    fn mac_cycles_adds_one() {
        let et = EarlyTermination::full(8);
        assert_eq!(et.mac_cycles(), 129);
        assert!(!et.terminates_early());
    }

    #[test]
    fn scale_shifts_by_n_minus_ebt() {
        let et = EarlyTermination::new(8, 6).unwrap();
        assert_eq!(et.shift(), 2);
        assert_eq!(et.scale(-3), -12);
        let full = EarlyTermination::full(8);
        assert_eq!(full.scale(100), 100);
    }

    #[test]
    fn invalid_ebt_rejected() {
        assert!(EarlyTermination::new(8, 0).is_err());
        assert!(EarlyTermination::new(8, 9).is_err());
        assert!(EarlyTermination::new(8, 8).is_ok());
    }

    #[test]
    fn temporal_coding_blocks_early_termination() {
        assert_eq!(
            EarlyTermination::for_coding(Coding::Temporal, 8, 6).unwrap_err(),
            EtError::TemporalCodingUnsupported
        );
        assert!(EarlyTermination::for_coding(Coding::Temporal, 8, 8).is_ok());
        assert!(EarlyTermination::for_coding(Coding::Rate, 8, 6).is_ok());
    }

    #[test]
    fn from_mul_cycles_roundtrip() {
        let et = EarlyTermination::from_mul_cycles(8, 32).unwrap();
        assert_eq!(et.effective_bitwidth(), 6);
        assert!(EarlyTermination::from_mul_cycles(8, 33).is_err());
        assert!(
            EarlyTermination::from_mul_cycles(8, 256).is_err(),
            "EBT 9 > N 8"
        );
    }

    #[test]
    fn bad_mul_cycles_name_the_cycles_given() {
        for cycles in [0u64, 3, 33, 256, 1 << 40] {
            let e = EarlyTermination::from_mul_cycles(8, cycles).unwrap_err();
            assert_eq!(e, EtError::InvalidMulCycles { cycles, full: 8 });
            assert_eq!(
                e.to_string(),
                format!("multiply cycles {cycles} must be a power of two in 1..=128")
            );
        }
        for (ebt, cycles) in [(1u32, 1u64), (6, 32), (8, 128)] {
            let et = EarlyTermination::from_mul_cycles(8, cycles).unwrap();
            assert_eq!(et.effective_bitwidth(), ebt);
        }
    }

    #[test]
    fn error_display() {
        let e = EarlyTermination::new(8, 9).unwrap_err();
        assert!(e.to_string().contains("9"));
        assert!(EtError::TemporalCodingUnsupported
            .to_string()
            .contains("temporal"));
    }
}
