//! Exhaustive small-space verification: for narrow bitwidths the entire
//! operand space is checked, turning statistical accuracy claims into
//! total ones. Where a space is too large to enumerate, a fixed-seed
//! SplitMix64 sweep samples it instead, so every failure reproduces.

use usystolic::arch::{ComputingScheme, UnaryRow};
use usystolic::unary::coding::{encode_unipolar, Coding};
use usystolic::unary::div::divide;
use usystolic::unary::rng::{
    CounterSource, NumberSource, SobolSource, SplitMix64, SOBOL_DIMENSIONS,
};
use usystolic::unary::stability::{recommend_ebt, stability};
use usystolic::unary::{scc, stream_len, Bitstream, EarlyTermination, SignMagnitude};

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

/// The uMUL row stays within 2.5 counts of the exact product for every
/// signed 8-bit operand pair.
#[test]
fn umul_exhaustive_8bit_signed() {
    for i in -128i64..=128 {
        for w in -128i64..=128 {
            let mut row = UnaryRow::new(
                8,
                SignMagnitude::from_signed(i, 8),
                vec![SignMagnitude::from_signed(w, 8)],
                Coding::Rate,
            );
            let count = row.run(128)[0] as f64;
            let exact = (i * w) as f64 / 128.0;
            assert!(
                (count - exact).abs() <= 2.5,
                "i={i} w={w}: {count} vs {exact}"
            );
        }
    }
}

/// The packed fast path equals the stepped pipeline on random rows:
/// random IFM, one to nine random weights, either coding, and every
/// rate-coded EBT window from 8 to 128 cycles.
#[test]
fn packed_rows_match_the_pipeline_on_random_rows() {
    let mut rng = SplitMix64::new(0xFA57);
    for case in 0..64 {
        let ifm = SignMagnitude::from_signed(rng.range_i64(-128, 128), 8);
        let cols = 1 + rng.below(9) as usize;
        let weights: Vec<SignMagnitude> = (0..cols)
            .map(|_| SignMagnitude::from_signed(rng.range_i64(-128, 128), 8))
            .collect();
        let (coding, cycles) = if rng.below(2) == 0 {
            (Coding::Temporal, 128)
        } else {
            (Coding::Rate, 8 << rng.below(5))
        };
        let mut slow = UnaryRow::new(8, ifm, weights.clone(), coding);
        let mut packed = UnaryRow::new(8, ifm, weights, coding);
        assert_eq!(
            slow.run(cycles).to_vec(),
            packed.run_packed(cycles).to_vec(),
            "case {case}: {coding:?} over {cycles} cycles"
        );
    }
}

/// Every Sobol dimension emits a permutation of its range at every width
/// from 2 to 9 bits, so rate coding is exact over a full period for
/// every magnitude up to 10 bits.
#[test]
fn sobol_is_a_permutation_at_every_width() {
    for dim in 0..SOBOL_DIMENSIONS {
        for width in 2..=9u32 {
            let mut src = SobolSource::dimension(dim, width);
            let mut seen = vec![false; 1 << width];
            for _ in 0..(1u64 << width) {
                let v = src.next() as usize;
                assert!(!seen[v], "dim {dim} width {width}: {v} repeated");
                seen[v] = true;
            }
        }
    }
}

/// Counters wrap modulo 2^width from any starting phase.
#[test]
fn counters_wrap_from_any_phase() {
    let mut rng = SplitMix64::new(0xC0);
    for width in 1..16u32 {
        for _ in 0..4 {
            let phase = rng.next_u64();
            let mut c = CounterSource::starting_at(width, phase);
            let first = c.next();
            for _ in 1..(1u64 << width) {
                let _ = c.next();
            }
            assert_eq!(c.next(), first, "width {width} phase {phase}");
        }
    }
}

/// Sign-magnitude conversion round-trips over the whole 8-bit range, and
/// a product's sign is the XOR of its operands' signs.
#[test]
fn sign_magnitude_exhaustive_8bit() {
    for v in -128i64..=128 {
        let sv = SignMagnitude::from_signed(v, 8);
        assert_eq!(sv.to_signed(), v);
        for w in -128i64..=128 {
            let sw = SignMagnitude::from_signed(w, 8);
            assert_eq!(sv.product_negative(sw), (v < 0) ^ (w < 0), "{v}·{w}");
        }
    }
}

/// Early termination at every EBT scales counts back by an exact shift,
/// and a MAC takes one cycle more than its multiply.
#[test]
fn early_termination_scale_is_a_shift() {
    for ebt in 1..=8u32 {
        let et = EarlyTermination::new(8, ebt).expect("valid EBT");
        assert_eq!(et.mul_cycles(), 1u64 << (ebt - 1));
        assert_eq!(et.mac_cycles(), et.mul_cycles() + 1);
        for x in -1000i64..1000 {
            assert_eq!(et.scale(x), x << (8 - ebt), "ebt {ebt} x {x}");
        }
    }
}

/// At every width from 4 to 12 bits and every EBT, each scheme's MAC
/// takes its multiply plus one accumulate cycle; binary parallel takes
/// one cycle in all.
#[test]
fn mac_cycles_are_mul_cycles_plus_one() {
    for bits in 4..=12u32 {
        for ebt in 1..=bits {
            let et = EarlyTermination::new(bits, ebt).expect("valid EBT");
            for scheme in ComputingScheme::ALL {
                let mac = scheme.mac_cycles(bits, et);
                let expected = if scheme == ComputingScheme::BinaryParallel {
                    1
                } else {
                    scheme.mul_cycles(bits, et) + 1
                };
                assert_eq!(mac, expected, "{scheme} {bits}-bit EBT {ebt}");
            }
        }
    }
}

/// On random stream pairs, AND never has more ones than either operand
/// (a unipolar product never exceeds its factors), and SCC is symmetric
/// and bounded in [-1, 1].
#[test]
fn random_stream_pairs_keep_and_and_scc_bounds() {
    let mut rng = SplitMix64::new(0x5CC);
    for case in 0..256 {
        let len = 1 + rng.below(255) as usize;
        let a: Bitstream = (0..len).map(|_| rng.below(2) == 1).collect();
        let b: Bitstream = (0..len).map(|_| rng.below(2) == 1).collect();
        let p = a.and(&b).expect("equal lengths");
        assert!(
            p.count_ones() <= a.count_ones().min(b.count_ones()),
            "case {case}"
        );
        let ab = scc(&a, &b).expect("equal lengths");
        let ba = scc(&b, &a).expect("equal lengths");
        assert!((ab - ba).abs() < 1e-12, "case {case}: {ab} vs {ba}");
        assert!((-1.0..=1.0).contains(&ab), "case {case}: {ab}");
    }
}

/// Stability is bounded in [0, 1] and never drops as epsilon loosens,
/// and the EBT advisor stays within the bitwidth, for every 8-bit
/// magnitude.
#[test]
fn stability_is_bounded_and_monotone_in_epsilon() {
    let mut rng = SplitMix64::new(0x57AB);
    for magnitude in 0..=128u64 {
        let bs = encode_unipolar(magnitude, 8, SobolSource::dimension(0, 7)).expect("valid");
        let eps = rng.next_f64() * 0.5;
        let s = stability(&bs, eps).normalized;
        assert!((0.0..=1.0).contains(&s), "magnitude {magnitude}: {s}");
        let looser = stability(&bs, eps + 0.1).normalized;
        assert!(looser >= s - 1e-12, "magnitude {magnitude}: {looser} < {s}");
        let ebt = recommend_ebt(&bs, 8, eps);
        assert!((1..=8).contains(&ebt), "magnitude {magnitude}: EBT {ebt}");
    }
}

/// CORDIV stays within 0.15 of the exact quotient for every 8-bit
/// dividend over every divisor of at least quarter scale.
#[test]
fn cordiv_exhaustive_8bit() {
    for divisor in 32..=128u64 {
        for dividend in 0..=divisor {
            let q = divide(dividend, divisor, 8);
            let exact = dividend as f64 / divisor as f64;
            assert!(
                (0.0..=1.0 + 1e-9).contains(&q) && (q - exact).abs() < 0.15,
                "{dividend}/{divisor} -> {q}"
            );
        }
    }
}
