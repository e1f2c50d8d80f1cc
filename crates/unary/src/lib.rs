//! Unary computing substrate for the uSystolic reproduction.
//!
//! This crate implements everything the paper's computing kernel is built
//! from (Section II-B of the paper):
//!
//! * [`bitstream`] — packed serial bitstreams, the data representation of
//!   unary computing.
//! * [`rng`] — deterministic number sources used by bitstream generators:
//!   a gray-code [Sobol](rng::SobolSource) low-discrepancy generator (the
//!   paper's RNG of choice, Section III-B), a maximal-length
//!   [LFSR](rng::LfsrSource) and a plain [counter](rng::CounterSource)
//!   for temporal coding.
//! * [`coding`] — rate and temporal coding of binary data into unipolar or
//!   bipolar bitstreams (Fig. 3) and decoding back.
//! * [`bsg`] — comparator-based bitstream generators, including the
//!   *conditional* bitstream generator (C-BSG) that underpins the accurate
//!   uMUL of Fig. 4.
//! * [`packed`] — whole-window comparator counts: closed-form prefix
//!   counts of every Sobol dimension and of a counter, plus the same
//!   comparators evaluated 64 cycles per `u64` word over drained source
//!   sequences, bit-exact against the serial generators.
//! * [`mod@scc`] — the stochastic cross-correlation metric; `SCC == 0` is the
//!   necessary-and-sufficient condition for accurate unary multiplication
//!   (Eq. 1).
//! * [`mul`] — cycle-level unipolar and bipolar unary multipliers.
//! * [`add`] — unary accumulation structures (OR / MUX / parallel-counter)
//!   and the binary accumulator used by hybrid unary-binary designs.
//! * [`sign`] — sign-magnitude conversion helpers used at the array edge.
//! * [`et`] — early-termination policies and the *effective bitwidth*
//!   arithmetic of Section III-C.
//!
//! # Example
//!
//! Multiply two 8-bit magnitudes with the rate-coded C-BSG uMUL and compare
//! against the exact product:
//!
//! ```
//! use usystolic_unary::mul::UnipolarMul;
//! use usystolic_unary::rng::SobolSource;
//!
//! let bitwidth = 8; // bitstream length 2^(8-1) = 128
//! let mut m = UnipolarMul::new(100, bitwidth, SobolSource::dimension(0, bitwidth - 1));
//! // Drive the multiplier with a rate-coded enable stream for 77/128.
//! let mut ones = 0u32;
//! let mut enable = usystolic_unary::coding::RateEncoder::unipolar(77, bitwidth,
//!     SobolSource::dimension(1, bitwidth - 1));
//! for _ in 0..128 {
//!     let e = enable.next_bit();
//!     if m.step(e) { ones += 1; }
//! }
//! let approx = f64::from(ones) / 128.0;
//! let exact = (100.0 / 128.0) * (77.0 / 128.0);
//! assert!((approx - exact).abs() < 0.02);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod add;
pub mod bitstream;
pub mod bsg;
pub mod coding;
pub mod div;
pub mod et;
pub mod mul;
pub mod packed;
pub mod rng;
pub mod scc;
pub mod sign;
pub mod stability;

pub use bitstream::Bitstream;
pub use coding::{Polarity, RateEncoder, TemporalEncoder};
pub use et::EarlyTermination;
pub use mul::{BipolarMul, UnipolarMul};
pub use rng::{CounterSource, LfsrSource, NumberSource, SobolSource};
pub use scc::scc;
pub use sign::SignMagnitude;

/// Errors produced by the unary substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum UnaryError {
    /// A magnitude does not fit in the requested bitwidth.
    MagnitudeOverflow {
        /// The offending magnitude.
        magnitude: u64,
        /// The data bitwidth it must fit in (as `2^(bitwidth-1)`).
        bitwidth: u32,
    },
    /// A bitwidth outside the supported `2..=MAX_BITWIDTH` range was given.
    UnsupportedBitwidth(u32),
    /// Two bitstreams of different lengths were combined.
    LengthMismatch {
        /// Length of the left operand.
        left: usize,
        /// Length of the right operand.
        right: usize,
    },
}

impl core::fmt::Display for UnaryError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            UnaryError::MagnitudeOverflow {
                magnitude,
                bitwidth,
            } => write!(
                f,
                "magnitude {magnitude} exceeds 2^({bitwidth}-1) for {bitwidth}-bit data"
            ),
            UnaryError::UnsupportedBitwidth(w) => {
                write!(
                    f,
                    "unsupported data bitwidth {w} (expected 2..={MAX_BITWIDTH})"
                )
            }
            UnaryError::LengthMismatch { left, right } => {
                write!(f, "bitstream length mismatch: {left} vs {right}")
            }
        }
    }
}

impl std::error::Error for UnaryError {}

/// Largest supported data bitwidth.
///
/// Bitstream lengths grow as `2^(N-1)`, so 24-bit data (8 Mi-bit streams) is
/// a practical ceiling for the functional simulator.
pub const MAX_BITWIDTH: u32 = 24;

/// Unary bitstream length for `bitwidth`-bit signed data in sign-magnitude
/// form: `2^(bitwidth-1)` (Section III-A of the paper).
///
/// # Panics
///
/// Panics if `bitwidth` is outside `2..=MAX_BITWIDTH`.
#[must_use]
pub fn stream_len(bitwidth: u32) -> u64 {
    assert!(
        (2..=MAX_BITWIDTH).contains(&bitwidth),
        "unsupported bitwidth {bitwidth}"
    );
    1u64 << (bitwidth - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_len_matches_paper() {
        // An 8-bit operand becomes a 128-bit unipolar stream (Section III-A).
        assert_eq!(stream_len(8), 128);
        assert_eq!(stream_len(16), 32_768);
        assert_eq!(stream_len(2), 2);
    }

    #[test]
    #[should_panic(expected = "unsupported bitwidth")]
    fn stream_len_rejects_zero() {
        let _ = stream_len(0);
    }

    #[test]
    fn error_display_is_meaningful() {
        let e = UnaryError::MagnitudeOverflow {
            magnitude: 300,
            bitwidth: 8,
        };
        assert!(e.to_string().contains("300"));
        let e = UnaryError::LengthMismatch { left: 4, right: 8 };
        assert!(e.to_string().contains("4"));
        let e = UnaryError::UnsupportedBitwidth(99);
        assert!(e.to_string().contains("99"));
    }
}
