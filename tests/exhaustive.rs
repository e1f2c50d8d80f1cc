//! Exhaustive small-space verification: for narrow bitwidths the entire
//! operand space is checked, turning statistical accuracy claims into
//! total ones.

use usystolic::arch::UnaryRow;
use usystolic::unary::coding::Coding;
use usystolic::unary::div::divide;
use usystolic::unary::rng::{NumberSource, SobolSource};
use usystolic::unary::{stream_len, SignMagnitude};

/// The uMUL error is at most ~2 counts for EVERY 6-bit operand pair
/// (32 × 32 magnitude combinations, both codings).
#[test]
fn umul_exhaustive_6bit() {
    let bitwidth = 6u32;
    let len = stream_len(bitwidth); // 32
    for coding in [Coding::Rate, Coding::Temporal] {
        let mut worst = 0.0f64;
        for i in 0..=len {
            for w in 0..=len {
                let mut row = UnaryRow::new(
                    bitwidth,
                    SignMagnitude {
                        negative: false,
                        magnitude: i,
                    },
                    vec![SignMagnitude {
                        negative: false,
                        magnitude: w,
                    }],
                    coding,
                );
                let count = row.run(len)[0] as f64;
                let exact = (i * w) as f64 / len as f64;
                worst = worst.max((count - exact).abs());
            }
        }
        assert!(
            worst <= 2.0,
            "{coding:?}: worst-case uMUL error {worst} counts over the full 6-bit space"
        );
    }
}

/// Signed products are exact in sign for every quadrant of the 5-bit
/// space (no sign flips from the sign-magnitude steering).
#[test]
fn sign_steering_exhaustive_5bit() {
    let bitwidth = 5u32;
    let len = stream_len(bitwidth) as i64; // 16
    for i in -len..=len {
        for w in -len..=len {
            let mut row = UnaryRow::new(
                bitwidth,
                SignMagnitude::from_signed(i, bitwidth),
                vec![SignMagnitude::from_signed(w, bitwidth)],
                Coding::Rate,
            );
            let count = row.run(len as u64)[0];
            let product = i * w;
            if product > 2 * len {
                assert!(count > 0, "i={i} w={w}: count {count} lost the sign");
            }
            if product < -2 * len {
                assert!(count < 0, "i={i} w={w}: count {count} lost the sign");
            }
        }
    }
}

/// Rate coding is exact over a full period for every magnitude at every
/// supported small bitwidth and Sobol dimension.
#[test]
fn rate_coding_exhaustive() {
    for bitwidth in 2..=8u32 {
        let len = stream_len(bitwidth);
        for dim in 0..4usize {
            for magnitude in 0..=len {
                let mut src = SobolSource::dimension(dim, bitwidth - 1);
                let ones = (0..len).filter(|_| src.next() < magnitude).count() as u64;
                assert_eq!(
                    ones, magnitude,
                    "bitwidth {bitwidth} dim {dim} magnitude {magnitude}"
                );
            }
        }
    }
}

/// CORDIV stays within a bounded error over the complete half-scale
/// divisor space at 6 bits.
#[test]
fn cordiv_exhaustive_6bit() {
    let len = stream_len(6);
    let mut worst = 0.0f64;
    for divisor in (len / 4)..=len {
        for dividend in 0..=divisor {
            let q = divide(dividend, divisor, 6);
            worst = worst.max((q - dividend as f64 / divisor as f64).abs());
        }
    }
    assert!(worst < 0.25, "worst-case CORDIV error {worst}");
}
