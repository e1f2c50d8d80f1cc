//! Integration tests of the static invariant checker: every diagnostic
//! code is triggerable, legal paper configurations are clean, and the
//! analyzer's closed-form verdicts agree with the cycle-level simulator.

use usystolic::analyze::{analyze, required_acc_width, RawSpec, RngWiring, Severity};
use usystolic::arch::ComputingScheme;
use usystolic::gemm::GemmConfig;
use usystolic::obs::ToJson;
use usystolic::sim::runtime::layer_timing;
use usystolic::sim::MemoryHierarchy;

fn edge(scheme: ComputingScheme) -> RawSpec {
    RawSpec::new(12, 14, scheme, 8)
}

#[test]
fn paper_configurations_are_clean() {
    // Every scheme in both paper shapes, with and without the default
    // knobs, passes the analyzer.
    for scheme in ComputingScheme::ALL {
        for (rows, cols) in [(12usize, 14usize), (256, 256)] {
            let spec = RawSpec::new(rows, cols, scheme, 8);
            let report = analyze(&spec, None, None);
            assert!(report.is_legal(), "{scheme:?} {rows}x{cols}: {report}");
        }
    }
    // The paper's headline point: UR-128 on the edge shape.
    let spec = edge(ComputingScheme::UnaryRate).with_mul_cycles(128);
    assert!(analyze(&spec, None, None).is_legal());
}

#[test]
fn every_error_code_is_triggerable() {
    let gemm = GemmConfig::conv(27, 27, 96, 5, 5, 1, 256).unwrap();
    let no_sram = MemoryHierarchy::no_sram();
    let cases: Vec<(&str, RawSpec)> = vec![
        ("USY001", RawSpec::new(0, 14, ComputingScheme::UnaryRate, 8)),
        (
            "USY002",
            RawSpec::new(12, 14, ComputingScheme::UnaryRate, 99),
        ),
        (
            "USY010",
            edge(ComputingScheme::UnaryTemporal).with_effective_bitwidth(6),
        ),
        (
            "USY011",
            edge(ComputingScheme::UnaryRate).with_mul_cycles(256),
        ),
        (
            "USY012",
            edge(ComputingScheme::UnaryRate)
                .with_mul_cycles(32)
                .with_effective_bitwidth(7),
        ),
        ("USY020", edge(ComputingScheme::UnaryRate).with_acc_width(4)),
        (
            "USY030",
            edge(ComputingScheme::UnaryRate).with_wiring(RngWiring::Independent),
        ),
        (
            "USY040",
            edge(ComputingScheme::UnaryRate).with_fifo_depth(2),
        ),
        ("USY050", edge(ComputingScheme::BinaryParallel)),
    ];
    for (code, spec) in cases {
        let report = analyze(&spec, Some(&gemm), Some(&no_sram));
        assert!(report.has(code), "expected {code}, got: {report}");
        assert!(!report.is_legal(), "{code} must reject");
        assert!(
            report
                .diagnostics
                .iter()
                .all(|d| d.code.starts_with("USY") && !d.hint.is_empty()),
            "diagnostics carry codes and hints: {report}"
        );
    }
}

#[test]
fn acc_width_follows_reduced_resolution_rule() {
    // Section III-A: unary OREG is N bits smaller than binary for the
    // same reduction depth.
    let unary = required_acc_width(ComputingScheme::UnaryRate, 8, 12);
    let binary = required_acc_width(ComputingScheme::BinaryParallel, 8, 12);
    assert_eq!(binary - unary, 8);
    // Boundary: exactly sufficient passes, one bit short fails.
    assert!(analyze(
        &edge(ComputingScheme::UnaryRate).with_acc_width(unary),
        None,
        None
    )
    .is_legal());
    let short = analyze(
        &edge(ComputingScheme::UnaryRate).with_acc_width(unary - 1),
        None,
        None,
    );
    assert!(short.has("USY020"));
}

#[test]
fn required_widths_keep_every_fold_clamp_free() {
    // The width the analyzer accepts without USY020 must also let the
    // tile sweep prove every row fold of a full-scale GEMM clamp-free (no
    // `core.cycle.saturable_folds`), or default configurations would lose
    // the sweep's plain-sum M-end. Every scheme at 4/8/12 bits, on the
    // edge array and a 4-row array, with K = 2R + 1 (folds of R, R and 1
    // rows) and inputs of both signs. At bitwidth + 2 bits (uGEMM-H's
    // narrowest closed-form OREG) the R-row folds are not provable, so
    // the counter is live.
    use usystolic::arch::{cycle_accurate_gemm, SystolicConfig};
    use usystolic::gemm::Matrix;
    for scheme in ComputingScheme::ALL {
        for bitwidth in [4u32, 8, 12] {
            for (rows, cols) in [(12usize, 14usize), (4, 3)] {
                let case = format!("{scheme:?} {bitwidth}-bit {rows}x{cols}");
                let k = 2 * rows + 1;
                let gemm = GemmConfig::matmul(2, k, cols + 1).unwrap();
                let width = required_acc_width(scheme, bitwidth, rows);
                let spec = RawSpec::new(rows, cols, scheme, bitwidth).with_acc_width(width);
                let report = analyze(&spec, Some(&gemm), None);
                assert!(!report.has("USY020"), "{case}: {report}");

                let top = 1i64 << (bitwidth - 1);
                let input = Matrix::from_fn(2, k, |p, _| if p == 0 { top } else { -top });
                let weights = Matrix::from_fn(k, cols + 1, |_, _| top);
                let config = SystolicConfig::new(rows, cols, scheme, bitwidth).unwrap();
                let saturable = |acc_width| {
                    let previous = usystolic::obs::install(usystolic::obs::Session::new());
                    let (_, stats) = cycle_accurate_gemm(
                        &config.with_acc_width(acc_width),
                        &gemm,
                        &input,
                        &weights,
                    )
                    .unwrap();
                    let session = usystolic::obs::take().unwrap();
                    if let Some(prev) = previous {
                        usystolic::obs::install(prev);
                    }
                    let folds = session.metrics.counter("core.cycle.saturable_folds");
                    (folds, stats.saturation_events)
                };
                assert_eq!(saturable(width), (0, 0), "{case} at {width} bits");
                let (narrow, _) = saturable(bitwidth + 2);
                assert!(narrow >= 2, "{case}: {narrow} saturable folds");
            }
        }
    }
}

#[test]
fn analyzer_agrees_with_simulator_on_bandwidth() {
    // USY050 fires exactly when the timing model reports stalls for the
    // SRAM-free hierarchy.
    let gemm = GemmConfig::conv(27, 27, 96, 5, 5, 1, 256).unwrap();
    let memory = MemoryHierarchy::no_sram();
    for (scheme, cycles) in [
        (ComputingScheme::BinaryParallel, None),
        (ComputingScheme::UnaryRate, Some(128)),
    ] {
        let mut spec = edge(scheme);
        spec.mul_cycles = cycles;
        let report = analyze(&spec, Some(&gemm), Some(&memory));

        let mut cfg = usystolic::arch::SystolicConfig::edge(scheme, 8);
        if let Some(c) = cycles {
            cfg = cfg.with_mul_cycles(c).unwrap();
        }
        let timing = layer_timing(&gemm, &cfg, &memory);
        assert_eq!(
            report.has("USY050"),
            timing.stall_cycles > 0,
            "{scheme:?}: analyzer {report} vs {} stall cycles",
            timing.stall_cycles
        );
    }
}

#[test]
fn warnings_do_not_reject() {
    // A skinny GEMM on the cloud array wastes PEs: warned, not rejected.
    let gemm = GemmConfig::matmul(1, 4, 4).unwrap();
    let spec = RawSpec::new(256, 256, ComputingScheme::BinaryParallel, 8);
    let report = analyze(&spec, Some(&gemm), None);
    assert!(report.has("USY042"), "{report}");
    assert!(report.is_legal());
    assert!(report
        .diagnostics
        .iter()
        .all(|d| d.severity == Severity::Warning));
}

#[test]
fn report_json_is_machine_readable() {
    let spec = edge(ComputingScheme::UnaryRate).with_acc_width(4);
    let report = analyze(&spec, None, None);
    let json = report.to_json().render();
    let parsed = usystolic::obs::JsonValue::parse(&json).expect("valid JSON");
    assert_eq!(
        parsed.get("legal"),
        Some(&usystolic::obs::JsonValue::Bool(false))
    );
    assert!(json.contains("USY020"), "{json}");
}

// ---------------------------------------------------------------------
// Whole-network abstract interpretation (USY06x) and its agreement with
// the cycle-level executors.
// ---------------------------------------------------------------------

mod network_analysis {
    use super::*;
    use usystolic::analyze::{analyze_network, et_window_error, window_bound};
    use usystolic::arch::{GemmExecutor, SystolicConfig};
    use usystolic::gemm::Matrix;
    use usystolic::models::zoo::{mnist_cnn4, NamedLayer, Network};
    use usystolic::unary::rng::SplitMix64;

    /// A single-layer network around one GEMM, for controlled specs.
    fn single_layer(name: &str, gemm: GemmConfig) -> Network {
        Network {
            name: name.to_owned(),
            layers: vec![NamedLayer {
                name: "l0".to_owned(),
                gemm,
            }],
        }
    }

    #[test]
    fn every_network_code_is_triggerable() {
        let net = mnist_cnn4();
        // USY060: calibrated ranges prove a sub-worst-case width safe.
        let proved = analyze_network(
            &edge(ComputingScheme::UnaryRate).with_acc_width(9),
            &net,
            None,
        );
        assert!(proved.report.has("USY060"), "{}", proved.report);
        assert!(!proved.report.has("USY061"), "{}", proved.report);
        assert!(proved.report.is_legal());

        // USY061: the same ranges prove a 4-bit OREG saturates.
        let saturates = analyze_network(
            &edge(ComputingScheme::UnaryRate).with_acc_width(4),
            &net,
            None,
        );
        assert!(saturates.report.has("USY061"), "{}", saturates.report);
        assert!(!saturates.report.is_legal());

        // USY062/USY063: composed ET error against a budget. Truncating
        // UR to 8 multiply cycles (4 effective bits) gives a non-zero
        // composed bound; a budget below it rejects, a budget within 2x
        // of it warns.
        let truncated = edge(ComputingScheme::UnaryRate).with_mul_cycles(8);
        let err = analyze_network(&truncated, &net, None).composed_et_error;
        assert!(err > 0.0, "truncation must cost accuracy");
        let over = analyze_network(&truncated, &net, Some(err / 2.0));
        assert!(over.report.has("USY062"), "{}", over.report);
        assert!(!over.report.is_legal());
        let near = analyze_network(&truncated, &net, Some(err * 1.5));
        assert!(near.report.has("USY063"), "{}", near.report);
        assert!(near.report.is_legal());
        let roomy = analyze_network(&truncated, &net, Some(err * 10.0));
        assert!(roomy.report.diagnostics.iter().all(|d| d.code != "USY062"));
        assert!(roomy.report.diagnostics.iter().all(|d| d.code != "USY063"));
    }

    #[test]
    fn overflow_verdicts_agree_with_executor_saturation_counters() {
        // The interpreter's claim is two-sided where its window bound is
        // achieved at the range extremes (UR, BP): `acc_bound <= capacity`
        // proves no data inside the calibrated ranges can saturate, and
        // `acc_bound > capacity` proves data at the range extremes does.
        // uGEMM-H's bound (one ±1 per multiply cycle) is sound but not
        // achieved, so only the proof of safety is checked there. Feed
        // the executor exactly those extremes and compare counters.
        // mnist_cnn4 has K > rows, so every layer folds. uGEMM-H runs at
        // the narrowest width the analyzer proves safe (a packed width,
        // >= bitwidth + 2).
        let net = mnist_cnn4();
        for (scheme, widths, two_sided) in [
            (ComputingScheme::UnaryRate, &[4u32, 9][..], true),
            (ComputingScheme::BinaryParallel, &[10, 12], true),
            (ComputingScheme::UGemmHybrid, &[13], false),
        ] {
            for &acc in widths {
                let spec = edge(scheme).with_acc_width(acc);
                let analysis = analyze_network(&spec, &net, None);
                assert_eq!(analysis.layers.len(), net.layers.len());
                for (layer, verdict) in net.layers.iter().zip(&analysis.layers) {
                    let gemm = &layer.gemm;
                    let input =
                        Matrix::from_fn(gemm.output_pixels(), gemm.reduction_len(), |_, _| {
                            verdict.input_levels as i64
                        });
                    let weights =
                        Matrix::from_fn(gemm.reduction_len(), gemm.output_channels(), |_, _| {
                            verdict.weight_levels as i64
                        });
                    let config = SystolicConfig::edge(scheme, 8).with_acc_width(acc);
                    let (_, stats) = GemmExecutor::new(config)
                        .execute_lowered(gemm, &input, &weights)
                        .expect("lowered execution");
                    let proven_safe = verdict.acc_bound <= verdict.acc_capacity;
                    let what = format!(
                        "{scheme} {} at {acc} bits: static bound {} vs capacity {}, \
                         dynamic {} event(s)",
                        verdict.name,
                        verdict.acc_bound,
                        verdict.acc_capacity,
                        stats.saturation_events
                    );
                    if two_sided {
                        assert_eq!(stats.saturation_events == 0, proven_safe, "{what}");
                    } else if proven_safe {
                        assert_eq!(stats.saturation_events, 0, "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn measured_et_error_stays_within_the_composed_bound() {
        // Run the same integer GEMM at full precision and truncated to 8
        // multiply cycles; the measured count perturbation must respect
        // both the per-window bound and the composed relative bound the
        // interpreter reports (the counts share one scale: the truncated
        // kernel shifts its counts back to full-scale units).
        let gemm = GemmConfig::matmul(8, 12, 8).unwrap();
        let net = single_layer("one-fc", gemm);
        let spec = edge(ComputingScheme::UnaryRate).with_mul_cycles(8);
        let analysis = analyze_network(&spec, &net, None);
        let verdict = &analysis.layers[0];
        assert!(verdict.et_rel_error > 0.0);

        // Pseudorandom operands inside the calibrated level ranges.
        let mut rng = SplitMix64::new(7);
        let mut level = |bound: u64| {
            let span = 2 * bound + 1;
            (rng.next_u64() % span) as i64 - bound as i64
        };
        let input = Matrix::from_fn(8, 12, |_, _| level(verdict.input_levels));
        let weights = Matrix::from_fn(12, 8, |_, _| level(verdict.weight_levels));

        let run = |mul_cycles: u64| {
            let config = SystolicConfig::edge(ComputingScheme::UnaryRate, 8)
                .with_mul_cycles(mul_cycles)
                .unwrap();
            GemmExecutor::new(config)
                .execute_lowered(&gemm, &input, &weights)
                .expect("lowered execution")
                .0
        };
        let full = run(128);
        let truncated = run(8);

        let max_delta = full
            .as_slice()
            .iter()
            .zip(truncated.as_slice())
            .map(|(&a, &b)| (a - b).unsigned_abs())
            .max()
            .unwrap();
        // Per-element: 12 windows, each perturbed by the window bound.
        let per_window = et_window_error(8, 4);
        assert!(
            max_delta <= 12 * per_window,
            "measured {max_delta} > static {}",
            12 * per_window
        );
        // Composed relative bound vs the measured relative error against
        // the full-precision window ceiling.
        let full_bound = window_bound(
            ComputingScheme::UnaryRate,
            8,
            128,
            verdict.input_levels,
            verdict.weight_levels,
        );
        let measured_rel = max_delta as f64 / (12.0 * full_bound as f64);
        assert!(
            measured_rel <= analysis.composed_et_error,
            "measured relative error {measured_rel} exceeds composed bound {}",
            analysis.composed_et_error
        );
    }

    #[test]
    fn interpreter_beats_the_worst_case_rule_without_contradicting_it() {
        // Where the worst-case rule (USY020) rejects a width, the
        // interpreter may prove it safe (USY060) — but it must never
        // prove a width the worst-case rule accepts to be saturating.
        let net = mnist_cnn4();
        for acc in 4..=14u32 {
            let spec = edge(ComputingScheme::UnaryRate).with_acc_width(acc);
            let worst_ok = analyze(&spec, None, None).is_legal();
            let interp = analyze_network(&spec, &net, None);
            if worst_ok {
                assert!(
                    !interp.report.has("USY061"),
                    "acc {acc}: worst-case accepts but interpreter saturates"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Static serving feasibility (USY07x).
// ---------------------------------------------------------------------

mod serving_feasibility {
    use usystolic::analyze::{check_serving, ServiceEstimate, ServingSpec};
    use usystolic::arch::{ComputingScheme, SystolicConfig};
    use usystolic::gemm::GemmConfig;
    use usystolic::serve::workload::{LayerProfile, WorkloadProfile};
    use usystolic::sim::MemoryHierarchy;

    fn profile(scheme: ComputingScheme) -> WorkloadProfile {
        let mut config = SystolicConfig::edge(scheme, 8);
        if scheme == ComputingScheme::UnaryRate {
            config = config.with_mul_cycles(128).unwrap();
        }
        let memory = MemoryHierarchy::no_sram();
        let gemm = GemmConfig::conv(31, 31, 96, 5, 5, 1, 256).unwrap();
        let layers = vec![LayerProfile::compute(&gemm, &config, &memory)];
        WorkloadProfile::from_layers("conv2", &layers, &memory)
    }

    fn spec(mean_interarrival_cycles: f64) -> ServingSpec {
        ServingSpec {
            mean_interarrival_cycles,
            instances: 4,
            max_batch: 8,
            queue_capacity: 16,
            deadline_cycles: None,
        }
    }

    #[test]
    fn every_serving_code_is_triggerable() {
        let ur = profile(ComputingScheme::UnaryRate);
        let estimate = ur.service_estimate(8, 4);
        let batch = estimate.batch_cycles as f64;
        let capacity = 32.0 / batch;

        // USY070: one arrival per cycle swamps any real profile.
        let r = check_serving(&estimate, &spec(1.0));
        assert!(r.has("USY070"), "{r}");
        assert!(!r.is_legal());

        // USY071: target utilisation 0.9 warns without rejecting.
        let r = check_serving(&estimate, &spec(1.0 / (0.9 * capacity)));
        assert!(r.has("USY071"), "{r}");
        assert!(r.is_legal());

        // USY072: a deadline below the single-request floor.
        let mut s = spec(batch * 10.0);
        s.deadline_cycles = Some(estimate.single_cycles - 1);
        let r = check_serving(&estimate, &s);
        assert!(r.has("USY072"), "{r}");
        assert!(!r.is_legal());

        // USY073: binary parallel without SRAM is DRAM-limited.
        let bp = profile(ComputingScheme::BinaryParallel);
        let e = bp.service_estimate(8, 4);
        let r = check_serving(&e, &spec(e.batch_cycles as f64 * 10.0));
        assert!(r.has("USY073"), "{r}");
        assert!(r.is_legal());

        // A clean operating point reports nothing.
        let r = check_serving(&estimate, &spec(batch * 10.0));
        assert!(r.diagnostics.is_empty(), "{r}");
    }

    #[test]
    fn estimate_mirrors_the_service_model() {
        let p = profile(ComputingScheme::UnaryRate);
        let e: ServiceEstimate = p.service_estimate(8, 4);
        assert_eq!(e.batch_cycles, p.service_cycles(8, 4));
        assert_eq!(e.single_cycles, p.service_cycles(1, 1));
        assert_eq!(e.dram_limited, p.dram_limited(8, 4));
    }
}
