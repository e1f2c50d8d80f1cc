//! Golden-vector regression tests.
//!
//! The unary results are deterministic functions of the Sobol direction
//! numbers, the C-BSG gating and the reuse pipeline. These tests pin a
//! handful of exact outputs so that any accidental change to the RNG
//! tables, coding or accumulation order is caught immediately (accuracy
//! tests with tolerances would silently absorb small regressions).

use usystolic::arch::{ComputingScheme, GemmExecutor, SystolicConfig, UnaryRow};
use usystolic::gemm::{GemmConfig, Matrix};
use usystolic::unary::coding::{encode_unipolar, Coding};
use usystolic::unary::rng::{NumberSource, SobolSource};
use usystolic::unary::SignMagnitude;

#[test]
fn golden_sobol_prefixes() {
    let take = |dim: usize, w: u32, n: usize| -> Vec<u64> {
        let mut s = SobolSource::dimension(dim, w);
        (0..n).map(|_| s.next()).collect()
    };
    assert_eq!(take(0, 4, 8), [0, 8, 12, 4, 6, 14, 10, 2]);
    assert_eq!(take(1, 4, 8), [0, 8, 4, 12, 6, 14, 2, 10]);
    assert_eq!(take(2, 4, 8), [0, 8, 4, 12, 10, 2, 14, 6]);
    assert_eq!(take(3, 4, 8), [0, 8, 4, 12, 14, 6, 10, 2]);
}

#[test]
fn golden_rate_coded_stream() {
    let bs = encode_unipolar(5, 4, SobolSource::dimension(0, 3)).expect("valid encode");
    // Threshold 5 over the dim-0 sequence 0,4,2,6,3,7,1,5.
    assert_eq!(bs.to_string(), "11011001");
}

#[test]
fn golden_unary_row_counts() {
    let mut row = UnaryRow::new(
        8,
        SignMagnitude::from_signed(77, 8),
        vec![
            SignMagnitude::from_signed(100, 8),
            SignMagnitude::from_signed(-100, 8),
            SignMagnitude::from_signed(37, 8),
        ],
        Coding::Rate,
    );
    let counts = row.run(128).to_vec();
    assert_eq!(counts, [61, -61, 23]);
}

#[test]
fn golden_unary_row_counts_temporal() {
    let mut row = UnaryRow::new(
        8,
        SignMagnitude::from_signed(-90, 8),
        vec![
            SignMagnitude::from_signed(64, 8),
            SignMagnitude::from_signed(17, 8),
        ],
        Coding::Temporal,
    );
    let counts = row.run(128).to_vec();
    assert_eq!(counts, [-45, -12]);
}

#[test]
fn golden_unary_gemm_output() {
    let gemm = GemmConfig::matmul(2, 3, 2).expect("valid shape");
    let input = Matrix::from_vec(2, 3, vec![100, -50, 25, 0, 127, -127]).expect("shape");
    let weights = Matrix::from_vec(3, 2, vec![64, -64, 32, 32, -128, 128]).expect("shape");
    let cfg =
        SystolicConfig::new(3, 2, ComputingScheme::UnaryRate, 8).expect("valid configuration");
    let (out, _) = GemmExecutor::new(cfg)
        .execute_lowered(&gemm, &input, &weights)
        .expect("runs");
    // In the 1/128-count domain; pinned from the current implementation.
    assert_eq!(out.as_slice(), [12, -38, 158, -96]);
}

#[test]
fn golden_ugemm_h_output() {
    let gemm = GemmConfig::matmul(1, 2, 1).expect("valid shape");
    let input = Matrix::from_vec(1, 2, vec![100, -100]).expect("shape");
    let weights = Matrix::from_vec(2, 1, vec![64, 64]).expect("shape");
    let cfg =
        SystolicConfig::new(2, 1, ComputingScheme::UGemmHybrid, 8).expect("valid configuration");
    let (out, _) = GemmExecutor::new(cfg)
        .execute_lowered(&gemm, &input, &weights)
        .expect("runs");
    // Exact: (100·64 − 100·64)/64 = 0; bitstream noise stays small.
    assert!(out[(0, 0)].abs() <= 8, "got {}", out[(0, 0)]);
    // Pin the exact current value as the regression anchor.
    assert_eq!(out[(0, 0)], 0);
}
