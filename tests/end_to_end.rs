//! Cross-crate integration tests: full GEMMs through every computing
//! scheme, checked against the exact reference, plus network-level
//! simulation consistency. Fixed-seed SplitMix64 sweeps check the
//! supporting APIs (quantiser, tile mapping, padding, skew FIFOs, the
//! ISA, the differential checker, CSV tables and confusion matrices)
//! over random shapes.

use usystolic::arch::{
    differential_check, ComputingScheme, DelayLine, GemmExecutor, Instruction, Processor, Program,
    ProgramBuilder, SkewBank, SkewOrder, SystolicConfig, TileMapping,
};
use usystolic::gemm::loopnest::gemm_reference;
use usystolic::gemm::stats::ErrorStats;
use usystolic::gemm::{
    pad_feature_map, padded_conv, FeatureMap, GemmConfig, Matrix, Quantizer, WeightSet,
};
use usystolic::hw::evaluate_network;
use usystolic::models::dataset::CLASSES;
use usystolic::models::zoo::alexnet;
use usystolic::models::{ConfusionMatrix, Dataset};
use usystolic::sim::MemoryHierarchy;
use usystolic::unary::rng::SplitMix64;
use usystolic_bench::Table;

/// A uniform draw from `lo..=hi`.
fn pick(rng: &mut SplitMix64, lo: usize, hi: usize) -> usize {
    lo + rng.below((hi - lo + 1) as u64) as usize
}

fn test_case(seed: u64) -> (GemmConfig, FeatureMap<f64>, WeightSet<f64>) {
    let gemm = GemmConfig::conv(7, 7, 3, 3, 3, 1, 5).expect("valid test shape");
    let s = seed as usize;
    let input = FeatureMap::from_fn(7, 7, 3, |h, w, c| {
        (((h * 31 + w * 17 + c * 7 + s) % 29) as f64 / 14.5) - 1.0
    });
    let weights = WeightSet::from_fn(5, 3, 3, 3, |oc, wh, ww, ic| {
        ((((oc * 19 + wh * 11 + ww * 5 + ic * 3 + s) % 23) as f64 / 23.0) - 0.5) * 0.7
    });
    (gemm, input, weights)
}

#[test]
fn all_schemes_track_the_reference_end_to_end() {
    let (gemm, input, weights) = test_case(1);
    let reference = gemm_reference(&gemm, &input, &weights).expect("shapes match");
    let scale = reference
        .as_slice()
        .iter()
        .fold(0.0f64, |m, &x| m.max(x.abs()));
    for scheme in ComputingScheme::ALL {
        let cfg = SystolicConfig::new(8, 5, scheme, 8).expect("valid configuration");
        let out = GemmExecutor::new(cfg)
            .execute(&gemm, &input, &weights)
            .expect("execution succeeds");
        let err =
            ErrorStats::compare(reference.as_slice(), out.output.as_slice()).expect("equal shapes");
        assert!(
            err.rmse() < 0.15 * scale,
            "{scheme}: rmse {} vs scale {scale}",
            err.rmse()
        );
    }
}

#[test]
fn array_shape_does_not_change_results() {
    // Folding is value-preserving for every scheme: a 3×2 array computes
    // exactly what a 16×16 array computes.
    let (gemm, input, weights) = test_case(2);
    for scheme in ComputingScheme::ALL {
        let small =
            GemmExecutor::new(SystolicConfig::new(3, 2, scheme, 8).expect("valid configuration"))
                .execute(&gemm, &input, &weights)
                .expect("small array executes");
        let large =
            GemmExecutor::new(SystolicConfig::new(16, 16, scheme, 8).expect("valid configuration"))
                .execute(&gemm, &input, &weights)
                .expect("large array executes");
        let diff = small
            .output
            .as_slice()
            .iter()
            .zip(large.output.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(diff < 1e-9, "{scheme}: max diff {diff}");
    }
}

#[test]
fn wider_data_improves_every_scheme() {
    let (gemm, input, weights) = test_case(3);
    let reference = gemm_reference(&gemm, &input, &weights).expect("shapes match");
    for scheme in [
        ComputingScheme::BinaryParallel,
        ComputingScheme::UnaryRate,
        ComputingScheme::UnaryTemporal,
    ] {
        let rmse_at = |bits: u32| {
            let cfg = SystolicConfig::new(8, 5, scheme, bits).expect("valid configuration");
            let out = GemmExecutor::new(cfg)
                .execute(&gemm, &input, &weights)
                .expect("execution succeeds");
            ErrorStats::compare(reference.as_slice(), out.output.as_slice())
                .expect("equal shapes")
                .rmse()
        };
        let narrow = rmse_at(6);
        let wide = rmse_at(10);
        assert!(
            wide < narrow,
            "{scheme}: 10-bit rmse {wide} should beat 6-bit {narrow}"
        );
    }
}

#[test]
fn alexnet_evaluates_under_every_design() {
    // A smoke pass of the full hardware stack over all 8 AlexNet layers.
    let layers = alexnet().gemms();
    for scheme in ComputingScheme::ALL {
        let cfg = SystolicConfig::edge(scheme, 8);
        let memory = if scheme.is_unary() {
            MemoryHierarchy::no_sram()
        } else {
            MemoryHierarchy::edge_with_sram()
        };
        let evals = evaluate_network(&cfg, &memory, &layers);
        assert_eq!(evals.len(), 8);
        for (ev, gemm) in evals.iter().zip(&layers) {
            assert!(ev.report.runtime_s > 0.0, "{scheme} {gemm}");
            assert!(ev.energy.total_j() > ev.energy.on_chip_j());
            assert!(ev.power.total_w() > 0.0);
            assert!(ev.report.timing.runtime_cycles >= ev.report.timing.ideal_cycles);
        }
    }
}

#[test]
fn executor_surfaces_shape_errors() {
    let (gemm, input, _) = test_case(4);
    let wrong_weights = WeightSet::<f64>::zeros(5, 2, 2, 3); // wrong kernel
    let exec = GemmExecutor::new(
        SystolicConfig::new(4, 4, ComputingScheme::UnaryRate, 8).expect("valid configuration"),
    );
    assert!(exec.execute(&gemm, &input, &wrong_weights).is_err());
}

#[test]
fn facade_reexports_are_usable() {
    // The facade crate exposes every subsystem under stable names.
    let _ = usystolic::unary::stream_len(8);
    let _ = usystolic::gemm::GemmConfig::matmul(1, 2, 3).expect("valid");
    let _ = usystolic::arch::ComputingScheme::ALL;
    let _ = usystolic::sim::MemoryHierarchy::no_sram();
    let _ = usystolic::hw::tech::GE_AREA_UM2;
    let _ = usystolic::models::mlperf::mlperf_gemms().len();
}

/// Quantisation round-trips within half a step for every value up to the
/// top representable level, and within one step between it and
/// `max_abs`, at every width from 2 to 16 bits.
#[test]
fn quantizer_roundtrips_within_half_a_step() {
    for bits in 2..=16u32 {
        let q = Quantizer::from_max(bits, 1.0);
        let step = 1.0 / (1u64 << (bits - 1)) as f64;
        let top = q.dequantize((1 << (bits - 1)) - 1);
        for i in -1000..=1000 {
            let x = f64::from(i) / 1000.0;
            let bound = if x.abs() <= top { step / 2.0 } else { step };
            let err = (q.dequantize(q.quantize(x)) - x).abs();
            assert!(err <= bound + 1e-12, "{bits} bits x={x}: err {err}");
        }
    }
}

/// Tile folds cover exactly the K×N weight matrix on random GEMM and
/// array shapes, and utilisation lies in (0, 1].
#[test]
fn tile_mapping_covers_random_gemms() {
    let mut rng = SplitMix64::new(0x711E);
    for case in 0..256 {
        let (m, k, n) = (
            pick(&mut rng, 1, 39),
            pick(&mut rng, 1, 299),
            pick(&mut rng, 1, 299),
        );
        let (rows, cols) = (pick(&mut rng, 1, 31), pick(&mut rng, 1, 31));
        let gemm = GemmConfig::matmul(m, k, n).expect("valid");
        let map = TileMapping::new(&gemm, rows, cols);
        let row_sum: usize = (0..map.row_folds()).map(|rf| map.rows_in_fold(rf)).sum();
        let col_sum: usize = (0..map.col_folds()).map(|cf| map.cols_in_fold(cf)).sum();
        assert_eq!((row_sum, col_sum), (k, n), "case {case}");
        let u = map.utilization();
        assert!(u > 0.0 && u <= 1.0 + 1e-12, "case {case}: utilisation {u}");
    }
}

/// A random convolution's derived volumes agree: MACs are output pixels
/// × channels × reduction length, and the output is never empty.
#[test]
fn random_conv_configs_are_consistent() {
    let mut rng = SplitMix64::new(0xC0F6);
    for case in 0..256 {
        let (ih, iw) = (pick(&mut rng, 1, 31), pick(&mut rng, 1, 31));
        let (wh, ww) = (pick(&mut rng, 1, ih.min(5)), pick(&mut rng, 1, iw.min(5)));
        let (ic, s, oc) = (
            pick(&mut rng, 1, 7),
            pick(&mut rng, 1, 3),
            pick(&mut rng, 1, 7),
        );
        let g = GemmConfig::conv(ih, iw, ic, wh, ww, s, oc).expect("kernel fits the input");
        let outputs = g.output_pixels() * oc;
        assert_eq!(
            g.macs(),
            (outputs * g.reduction_len()) as u64,
            "case {case}"
        );
        assert_eq!(g.output_elems(), outputs as u64, "case {case}");
        assert!(
            g.output_height() >= 1 && g.output_width() >= 1,
            "case {case}"
        );
    }
}

/// Zero padding keeps every interior element, adds only zeros, and the
/// padded convolution has the standard output size, for every small
/// shape and pad.
#[test]
fn padding_keeps_the_interior_and_adds_zeros() {
    for (h, w, c) in (1..8).flat_map(|h| (1..8).flat_map(move |w| (1..4).map(move |c| (h, w, c)))) {
        // Every interior element is non-zero, so the padded map has
        // exactly `h·w·c` non-zero elements iff its border is all zeros.
        let fm = FeatureMap::from_fn(h, w, c, |hh, ww, cc| (hh * 100 + ww * 10 + cc) as i64 + 1);
        for pad in 0..4 {
            let p = pad_feature_map(&fm, pad);
            assert_eq!((p.height(), p.width()), (h + 2 * pad, w + 2 * pad));
            for hh in 0..h {
                for ww in 0..w {
                    for cc in 0..c {
                        assert_eq!(p[(hh + pad, ww + pad, cc)], fm[(hh, ww, cc)]);
                    }
                }
            }
            let nonzero = p.as_slice().iter().filter(|&&v| v != 0).count();
            assert_eq!(nonzero, h * w * c, "{h}x{w}x{c} pad {pad}");
            if h >= 3 && w >= 3 {
                let cfg = padded_conv(h, w, c, 3, 3, 1, pad, 2).expect("valid");
                assert_eq!(cfg.output_height(), h + 2 * pad - 2);
            }
        }
    }
}

/// A delay line is exactly a `depth`-cycle shift of its input, and an
/// ascending skew bank followed by a descending one is the identity with
/// `lanes − 1` cycles of latency, on random depths, lanes and payloads.
#[test]
fn skew_fifos_shift_and_realign_random_streams() {
    let mut rng = SplitMix64::new(0xF1F0);
    for case in 0..64 {
        let depth = pick(&mut rng, 0, 15);
        let data: Vec<u64> = (0..pick(&mut rng, 1, 63)).map(|_| rng.next_u64()).collect();
        let mut line = DelayLine::new(depth, 0u64);
        for (i, &v) in data.iter().enumerate() {
            let expected = if i < depth { 0 } else { data[i - depth] };
            assert_eq!(line.push(v), expected, "case {case} step {i}");
        }

        let lanes = pick(&mut rng, 1, 9);
        let mut skew = SkewBank::new(lanes, SkewOrder::Ascending, 0u64);
        let mut unskew = SkewBank::new(lanes, SkewOrder::Descending, 0u64);
        let frames: Vec<Vec<u64>> = (0..pick(&mut rng, 1, 11))
            .map(|_| (0..lanes).map(|_| rng.next_u64()).collect())
            .collect();
        let flush = vec![vec![0; lanes]; lanes - 1];
        let outs: Vec<Vec<u64>> = frames
            .iter()
            .chain(&flush)
            .map(|v| unskew.push(&skew.push(v)))
            .collect();
        for (f, v) in frames.iter().enumerate() {
            assert_eq!(&outs[f + lanes - 1], v, "case {case} frame {f}");
        }
    }
}

/// Random instruction streams never panic: each runs or returns a typed
/// sequencing error.
#[test]
fn random_isa_programs_never_panic() {
    let mut rng = SplitMix64::new(0x15A);
    let cfg = SystolicConfig::new(4, 3, ComputingScheme::BinaryParallel, 8).expect("valid");
    let gemm = GemmConfig::matmul(2, 7, 5).expect("valid shape");
    let input = Matrix::from_fn(2, 7, |p, k| (p + k) as i64 - 3);
    let weights = Matrix::from_fn(7, 5, |k, n| (k * n) as i64 % 9 - 4);
    for _ in 0..256 {
        let instructions = (0..rng.below(12))
            .map(|_| match rng.below(4) {
                0 => Instruction::SetMacCycles {
                    mac_cycles: rng.below(300),
                },
                1 => Instruction::LoadWeights {
                    row_fold: rng.below(6) as u32,
                    col_fold: rng.below(6) as u32,
                },
                2 => Instruction::MatMul {
                    accumulate: rng.below(2) == 1,
                },
                _ => Instruction::DrainOutputs {
                    col_fold: rng.below(6) as u32,
                },
            })
            .collect();
        let program = Program::from_instructions(instructions);
        let _ = Processor::new(cfg, gemm).run(&program, &input, &weights);
    }
}

/// Compiled programs always run and match the direct executor on random
/// GEMM and array shapes.
#[test]
fn compiled_programs_match_the_executor_on_random_shapes() {
    let mut rng = SplitMix64::new(0xC011);
    for case in 0..64 {
        let (m, k, n) = (
            pick(&mut rng, 1, 4),
            pick(&mut rng, 1, 19),
            pick(&mut rng, 1, 19),
        );
        let (rows, cols) = (pick(&mut rng, 1, 6), pick(&mut rng, 1, 6));
        let cfg = SystolicConfig::new(rows, cols, ComputingScheme::BinaryParallel, 8)
            .expect("valid configuration");
        let gemm = GemmConfig::matmul(m, k, n).expect("valid shape");
        let input = Matrix::from_fn(m, k, |_, _| rng.range_i64(-15, 15));
        let weights = Matrix::from_fn(k, n, |_, _| rng.range_i64(-14, 14));
        let program = ProgramBuilder::new(cfg).compile(&gemm);
        let via_isa = Processor::new(cfg, gemm)
            .run(&program, &input, &weights)
            .expect("compiled programs are always valid");
        let (direct, _) = GemmExecutor::new(cfg)
            .execute_lowered(&gemm, &input, &weights)
            .expect("direct execution succeeds");
        assert_eq!(via_isa, direct, "case {case}");
    }
}

/// The cross-scheme differential checker passes at 10 bits too (its unit
/// tests sweep seeds at 8 bits).
#[test]
fn differential_checker_passes_at_10_bits() {
    let mut rng = SplitMix64::new(0xD1FF);
    for _ in 0..4 {
        let seed = rng.next_u64();
        for c in differential_check(seed, 10).expect("check runs") {
            assert!(
                c.passed,
                "seed {seed} {}: rmse {} > tolerance {}",
                c.scheme, c.rmse, c.tolerance
            );
        }
    }
}

/// CSV output always has `rows + 2` lines with one cell per column.
#[test]
fn csv_tables_are_rectangular() {
    for rows in 0..10 {
        for cols in 1..6 {
            let headers: Vec<String> = (0..cols).map(|c| format!("h{c}")).collect();
            let refs: Vec<&str> = headers.iter().map(String::as_str).collect();
            let mut t = Table::new("prop", &refs);
            for r in 0..rows {
                t.push_row((0..cols).map(|c| format!("{r}:{c}")).collect());
            }
            let csv = t.to_csv();
            let lines: Vec<&str> = csv.lines().collect();
            assert_eq!(lines.len(), rows + 2);
            assert!(lines[1..].iter().all(|l| l.split(',').count() == cols));
        }
    }
}

/// A confusion matrix conserves the sample count, and its accuracy is
/// the fraction of matching predictions, for label-shifting predictors.
#[test]
fn confusion_matrices_conserve_samples() {
    for per_class in 1..6 {
        let d = Dataset::generate(per_class, 0.1, 7);
        for offset in 0..10 {
            let cm = ConfusionMatrix::build(&d, |s| (s.label + offset) % CLASSES);
            let total: u32 = (0..CLASSES)
                .flat_map(|t| (0..CLASSES).map(move |p| (t, p)))
                .map(|(t, p)| cm.count(t, p))
                .sum();
            assert_eq!(total as usize, d.len());
            let expected = if offset % CLASSES == 0 { 1.0 } else { 0.0 };
            assert!((cm.accuracy() - expected).abs() < 1e-12, "offset {offset}");
        }
    }
}
