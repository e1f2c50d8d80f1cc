//! Property-based tests (proptest) of the core data structures and the
//! arithmetic invariants the paper's accuracy claims rest on.

// Gated off by default: proptest is a registry crate and the workspace
// must build with no network access. Enable with
// `--features external-deps` after re-adding `proptest = "1"` to the
// root [dev-dependencies].
#![cfg(feature = "external-deps")]

use proptest::prelude::*;
use usystolic::arch::{ComputingScheme, SystolicConfig, TileMapping, UnaryRow};
use usystolic::gemm::quant::Quantizer;
use usystolic::gemm::GemmConfig;
use usystolic::unary::coding::{encode_unipolar, Coding};
use usystolic::unary::rng::{CounterSource, LfsrSource, NumberSource, SobolSource};
use usystolic::unary::{scc, Bitstream, EarlyTermination, SignMagnitude};

proptest! {
    /// Rate coding over a full Sobol period is exact for every magnitude
    /// and bitwidth — the foundation of the uMUL accuracy.
    #[test]
    fn rate_coding_exact_over_full_period(
        bitwidth in 3u32..=10,
        dim in 0usize..8,
        frac in 0.0f64..=1.0,
    ) {
        let max = usystolic::unary::stream_len(bitwidth);
        let magnitude = (frac * max as f64).round() as u64;
        let bs = encode_unipolar(magnitude, bitwidth, SobolSource::dimension(dim, bitwidth - 1))
            .expect("valid inputs");
        prop_assert_eq!(bs.count_ones(), magnitude);
    }

    /// Every Sobol dimension emits a permutation of its range.
    #[test]
    fn sobol_is_bijective(dim in 0usize..16, width in 2u32..=9) {
        let mut src = SobolSource::dimension(dim, width);
        let mut seen = vec![false; 1 << width];
        for _ in 0..(1u64 << width) {
            let v = src.next() as usize;
            prop_assert!(!seen[v], "value {} repeated", v);
            seen[v] = true;
        }
    }

    /// LFSR sequences never emit zero and repeat with maximal period.
    #[test]
    fn lfsr_period_is_maximal(width in 2u32..=12, seed in 1u64..1000) {
        let mut src = LfsrSource::new(width, seed);
        let first = src.next();
        prop_assert_ne!(first, 0);
        for _ in 1..src.period() {
            prop_assert_ne!(src.next(), 0);
        }
        prop_assert_eq!(src.next(), first, "period must close");
    }

    /// SCC is symmetric and bounded in [-1, 1].
    #[test]
    fn scc_symmetric_and_bounded(bits_a in proptest::collection::vec(any::<bool>(), 8..64),
                                 bits_b_seed in any::<u64>()) {
        let a: Bitstream = bits_a.iter().copied().collect();
        let b: Bitstream = bits_a
            .iter()
            .enumerate()
            .map(|(i, _)| (bits_b_seed >> (i % 64)) & 1 == 1)
            .collect();
        let ab = scc(&a, &b).expect("equal lengths");
        let ba = scc(&b, &a).expect("equal lengths");
        prop_assert!((ab - ba).abs() < 1e-12);
        prop_assert!((-1.0..=1.0).contains(&ab));
    }

    /// Bitstream AND never produces more ones than either operand
    /// (products never exceed their factors in unipolar coding).
    #[test]
    fn and_is_monotone(bits in proptest::collection::vec(any::<(bool, bool)>(), 1..256)) {
        let a: Bitstream = bits.iter().map(|p| p.0).collect();
        let b: Bitstream = bits.iter().map(|p| p.1).collect();
        let p = a.and(&b).expect("equal lengths");
        prop_assert!(p.count_ones() <= a.count_ones());
        prop_assert!(p.count_ones() <= b.count_ones());
    }

    /// Sign-magnitude conversion round-trips for in-range values and the
    /// product sign is the XOR of operand signs.
    #[test]
    fn sign_magnitude_roundtrip(v in -128i64..=128, w in -128i64..=128) {
        let sv = SignMagnitude::from_signed(v, 8);
        let sw = SignMagnitude::from_signed(w, 8);
        prop_assert_eq!(sv.to_signed(), v);
        prop_assert_eq!(sv.product_negative(sw), (v < 0) ^ (w < 0));
    }

    /// The uMUL row (with spatial-temporal reuse) approximates the exact
    /// product within a small count bound for every operand pair.
    #[test]
    fn unary_row_product_is_accurate(i in -128i64..=128, w in -128i64..=128) {
        let mut row = UnaryRow::new(
            8,
            SignMagnitude::from_signed(i, 8),
            vec![SignMagnitude::from_signed(w, 8)],
            Coding::Rate,
        );
        let count = row.run(128)[0];
        let exact = (i * w) as f64 / 128.0;
        prop_assert!(
            (count as f64 - exact).abs() <= 2.5,
            "i={} w={}: {} vs {}", i, w, count, exact
        );
    }

    /// The early-termination shift always recovers the N-bit scale:
    /// scale(x) = x · 2^(N−n).
    #[test]
    fn early_termination_scale_is_shift(n in 1u32..=8, x in -1000i64..1000) {
        let et = EarlyTermination::new(8, n).expect("valid EBT");
        prop_assert_eq!(et.scale(x), x << (8 - n));
        prop_assert_eq!(et.mul_cycles(), 1u64 << (n - 1));
        prop_assert_eq!(et.mac_cycles(), et.mul_cycles() + 1);
    }

    /// Quantisation round-trips within half a step for in-range values.
    #[test]
    fn quantizer_roundtrip(bits in 2u32..=16, x in -1.0f64..=1.0) {
        let q = Quantizer::from_max(bits, 1.0);
        let err = (q.dequantize(q.quantize(x)) - x).abs();
        prop_assert!(err <= 0.5 / (1u64 << (bits - 1)) as f64 + 1e-12);
    }

    /// Tile mapping covers exactly the K×N weight matrix: fold row/column
    /// counts sum back to K and N, and utilisation is in (0, 1].
    #[test]
    fn tile_mapping_covers_gemm(m in 1usize..40, k in 1usize..300, n in 1usize..300,
                                rows in 1usize..32, cols in 1usize..32) {
        let gemm = GemmConfig::matmul(m, k, n).expect("valid");
        let map = TileMapping::new(&gemm, rows, cols);
        let row_sum: usize = (0..map.row_folds()).map(|rf| map.rows_in_fold(rf)).sum();
        let col_sum: usize = (0..map.col_folds()).map(|cf| map.cols_in_fold(cf)).sum();
        prop_assert_eq!(row_sum, k);
        prop_assert_eq!(col_sum, n);
        let u = map.utilization();
        prop_assert!(u > 0.0 && u <= 1.0 + 1e-12);
    }

    /// MAC cycle counts are consistent across schemes: mul + 1 == mac for
    /// everything but binary parallel.
    #[test]
    fn mac_cycle_consistency(bits in 4u32..=12, ebt_frac in 0.2f64..=1.0) {
        let ebt = ((bits as f64 * ebt_frac).ceil() as u32).clamp(1, bits);
        let et = EarlyTermination::new(bits, ebt).expect("valid");
        for scheme in ComputingScheme::ALL {
            let mul = scheme.mul_cycles(bits, et);
            let mac = scheme.mac_cycles(bits, et);
            if scheme == ComputingScheme::BinaryParallel {
                prop_assert_eq!(mac, 1);
            } else {
                prop_assert_eq!(mac, mul + 1, "{}", scheme);
            }
        }
    }

    /// Counters wrap modulo 2^width from any phase.
    #[test]
    fn counter_wraps(width in 1u32..16, phase in any::<u64>()) {
        let mut c = CounterSource::starting_at(width, phase);
        let period = 1u64 << width;
        let first = c.next();
        for _ in 1..period {
            let _ = c.next();
        }
        prop_assert_eq!(c.next(), first);
    }

    /// GemmConfig derived quantities are internally consistent.
    #[test]
    fn gemm_config_consistency(ih in 1usize..32, iw in 1usize..32, ic in 1usize..8,
                               wh in 1usize..6, ww in 1usize..6, s in 1usize..4,
                               oc in 1usize..8) {
        prop_assume!(wh <= ih && ww <= iw);
        let g = GemmConfig::conv(ih, iw, ic, wh, ww, s, oc).expect("validated above");
        prop_assert_eq!(
            g.macs(),
            (g.output_pixels() * oc * g.reduction_len()) as u64
        );
        prop_assert_eq!(g.output_elems(), (g.output_pixels() * oc) as u64);
        prop_assert!(g.output_height() >= 1 && g.output_width() >= 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The faithful pipeline stepper and the fast path agree for random
    /// operands, weights, codings and window lengths — Eq. 3 of the paper
    /// as an executable property.
    #[test]
    fn pipeline_equals_fast_path(
        i in -128i64..=128,
        ws in proptest::collection::vec(-128i64..=128, 1..10),
        temporal in any::<bool>(),
        ebt in 4u32..=8,
    ) {
        let coding = if temporal { Coding::Temporal } else { Coding::Rate };
        let weights: Vec<SignMagnitude> =
            ws.iter().map(|&w| SignMagnitude::from_signed(w, 8)).collect();
        let cycles = if temporal { 128 } else { 1u64 << (ebt - 1) };
        let mut slow = UnaryRow::new(8, SignMagnitude::from_signed(i, 8), weights.clone(), coding);
        let mut fast = UnaryRow::new(8, SignMagnitude::from_signed(i, 8), weights, coding);
        prop_assert_eq!(slow.run(cycles).to_vec(), fast.run_packed(cycles).to_vec());
    }

    /// Quantised GEMM execution through the unary array respects the
    /// global error bound: each of the K products errs by at most ~2
    /// counts, so the output errs by at most ~2.5·K counts.
    #[test]
    fn unary_gemm_error_is_bounded(seed in any::<u32>()) {
        use usystolic::gemm::{FeatureMap, WeightSet};
        use usystolic::arch::GemmExecutor;
        let gemm = GemmConfig::conv(4, 4, 2, 2, 2, 1, 2).expect("valid");
        let s = seed as usize;
        let input = FeatureMap::from_fn(4, 4, 2, |h, w, c| {
            (((h * 7 + w * 3 + c + s) % 17) as f64 / 8.5) - 1.0
        });
        let weights = WeightSet::from_fn(2, 2, 2, 2, |oc, wh, ww, ic| {
            ((((oc * 5 + wh * 3 + ww + ic + s) % 13) as f64 / 13.0) - 0.5) * 0.8
        });
        let cfg = SystolicConfig::new(4, 2, ComputingScheme::UnaryRate, 8).expect("valid");
        let out = GemmExecutor::new(cfg).execute(&gemm, &input, &weights)
            .expect("execution succeeds");
        let reference = usystolic::gemm::loopnest::gemm_reference(&gemm, &input, &weights)
            .expect("shapes match");
        // K = 8 reduction terms; bound the worst output element.
        let max_err = reference
            .as_slice()
            .iter()
            .zip(out.output.as_slice())
            .map(|(r, o)| (r - o).abs())
            .fold(0.0f64, f64::max);
        // Quantisation scales vary per tensor; this is a coarse sanity
        // bound relative to the value range (|ref| <= 8 here).
        prop_assert!(max_err < 0.6, "max err {}", max_err);
    }
}
