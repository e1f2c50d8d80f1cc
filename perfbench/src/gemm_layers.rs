//! `gemm_layers`: layer-shaped GEMM proxies on the paper's edge array.
//!
//! This is the hot path of the Fig. 9 accuracy study without the
//! training: every proxy runs through the functional executor under six
//! configurations, and its lowered operands then run through the
//! cycle-accurate machine (`KernelMode::Auto`, one worker) under four.
//! The benchmark makes the calls `GemmExecutor::execute` makes —
//! quantise, lower, `execute_lowered`, rescale and fold — one by one, so
//! that each lands in its own span; the warm-up checks the result
//! against `GemmExecutor::execute` bit for bit.

use crate::hostref::Kernel;
use crate::spans::Spans;
use crate::{Bench, Checked};
use std::collections::BTreeMap;
use std::time::Instant;
use usystolic_core::{
    cycle_accurate_gemm_with, ComputingScheme, CycleStats, ExecStats, GemmExecutor, KernelMode,
    SystolicConfig, UnaryRow,
};
use usystolic_gemm::{
    gemm_reference, im2col, ErrorStats, FeatureMap, GemmConfig, Matrix, Quantizer, WeightSet,
};
use usystolic_obs::Session;
use usystolic_unary::coding::Coding;
use usystolic_unary::rng::SplitMix64;
use usystolic_unary::SignMagnitude;

/// Largest normalised RMSE (RMSE over the reference's RMS) any
/// configuration may reach on any proxy. The worst measured case, UR at
/// EBT 6, stays well below it.
const NRMSE_BOUND: f64 = 0.25;

/// Unary rows timed per window-kernel probe.
const PROBE_ROWS: usize = 256;

/// One layer-shaped proxy with its inputs and FP64 reference.
struct Proxy {
    gemm: GemmConfig,
    input: FeatureMap<f64>,
    weights: WeightSet<f64>,
    reference: FeatureMap<f64>,
    reference_rms: f64,
}

/// One array configuration.
struct Config {
    label: &'static str,
    array: SystolicConfig,
    exec_span: &'static str,
    /// Span name of the cycle-accurate run, for the configurations that
    /// also run through the cycle-accurate machine.
    cycle_span: Option<&'static str>,
}

/// One proxy under one configuration.
pub struct LayerRun {
    lowered_input: Matrix<i64>,
    lowered_weights: Matrix<i64>,
    int_out: Matrix<i64>,
    stats: ExecStats,
    output: FeatureMap<f64>,
    cycle: Option<(Matrix<i64>, CycleStats)>,
}

/// The `gemm_layers` workload.
pub struct GemmLayers {
    proxies: Vec<Proxy>,
    configs: Vec<Config>,
    /// Checked iterations so far; picks the sub-sampled tile.
    checks: u64,
    fallbacks: f64,
    probe_rows: Vec<(u32, Vec<UnaryRow>)>,
}

fn edge(scheme: ComputingScheme, bitwidth: u32) -> SystolicConfig {
    SystolicConfig::edge(scheme, bitwidth)
}

fn configs() -> Result<Vec<Config>, String> {
    let ur8e6 = edge(ComputingScheme::UnaryRate, 8)
        .with_effective_bitwidth(6)
        .map_err(|e| e.to_string())?;
    Ok(vec![
        Config {
            label: "ur8",
            array: edge(ComputingScheme::UnaryRate, 8),
            exec_span: "core.exec_lowered_s.ur8",
            cycle_span: Some("core.cycle_accurate_s.ur8"),
        },
        Config {
            label: "ur8e6",
            array: ur8e6,
            exec_span: "core.exec_lowered_s.ur8e6",
            cycle_span: None,
        },
        Config {
            label: "ur12",
            array: edge(ComputingScheme::UnaryRate, 12),
            exec_span: "core.exec_lowered_s.ur12",
            cycle_span: None,
        },
        Config {
            label: "ut8",
            array: edge(ComputingScheme::UnaryTemporal, 8),
            exec_span: "core.exec_lowered_s.ut8",
            cycle_span: Some("core.cycle_accurate_s.ut8"),
        },
        Config {
            label: "ug8",
            array: edge(ComputingScheme::UGemmHybrid, 8),
            exec_span: "core.exec_lowered_s.ug8",
            cycle_span: Some("core.cycle_accurate_s.ug8"),
        },
        Config {
            label: "bp8",
            array: edge(ComputingScheme::BinaryParallel, 8),
            exec_span: "core.exec_lowered_s.bp8",
            cycle_span: Some("core.cycle_accurate_s.bp8"),
        },
    ])
}

/// The proxies: AlexNet Conv2-like (5×5), a ResNet18 3×3 block conv, the
/// MNIST-CNN4 first conv, and one FC matmul. `short` shrinks them.
fn shapes(short: bool) -> Result<Vec<GemmConfig>, String> {
    let shapes = if short {
        vec![
            GemmConfig::conv(7, 7, 8, 5, 5, 1, 16),
            GemmConfig::conv(6, 6, 8, 3, 3, 1, 16),
            GemmConfig::conv(12, 12, 1, 5, 5, 1, 16),
            GemmConfig::matmul(1, 256, 32),
        ]
    } else {
        vec![
            GemmConfig::conv(11, 11, 12, 5, 5, 1, 24),
            GemmConfig::conv(10, 10, 16, 3, 3, 1, 16),
            GemmConfig::conv(28, 28, 1, 5, 5, 1, 32),
            GemmConfig::matmul(1, 1024, 64),
        ]
    };
    shapes
        .into_iter()
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())
}

fn proxy(gemm: GemmConfig, rng: &mut SplitMix64) -> Result<Proxy, String> {
    let input = FeatureMap::from_fn(
        gemm.input_height(),
        gemm.input_width(),
        gemm.input_channels(),
        |_, _, _| rng.next_f64() * 2.0 - 1.0,
    );
    let weights = WeightSet::from_fn(
        gemm.output_channels(),
        gemm.weight_height(),
        gemm.weight_width(),
        gemm.input_channels(),
        |_, _, _, _| rng.next_f64() - 0.5,
    );
    let reference = gemm_reference(&gemm, &input, &weights).map_err(|e| e.to_string())?;
    let r = reference.as_slice();
    let reference_rms = (r.iter().map(|x| x * x).sum::<f64>() / r.len() as f64).sqrt();
    Ok(Proxy {
        gemm,
        input,
        weights,
        reference,
        reference_rms,
    })
}

/// Unary rows for the window-kernel probe: one per lowered input element
/// of `run`, with the matching row of lowered weights, one per column.
fn probe_rows(run: &LayerRun, bitwidth: u32) -> Vec<UnaryRow> {
    let (li, lw) = (&run.lowered_input, &run.lowered_weights);
    let cols = lw.cols().min(usystolic_core::EDGE_COLS);
    (0..PROBE_ROWS)
        .map(|i| {
            let (m, k) = (i % li.rows(), (i / li.rows()) % li.cols());
            let weights = (0..cols)
                .map(|n| SignMagnitude::from_signed(lw[(k, n)], bitwidth))
                .collect();
            UnaryRow::new(
                bitwidth,
                SignMagnitude::from_signed(li[(m, k)], bitwidth),
                weights,
                Coding::Rate,
            )
        })
        .collect()
}

/// Runs one proxy under one configuration, the way
/// `GemmExecutor::execute` does, plus the cycle-accurate machine.
fn run_layer(p: &Proxy, c: &Config, spans: &mut Spans) -> Result<LayerRun, String> {
    let gemm = &p.gemm;
    let bitwidth = c.array.bitwidth();
    let (qi, qw, input, weights) = spans.span("gemm", "gemm.quantize_s", || {
        let qi = Quantizer::calibrated(bitwidth, p.input.as_slice());
        let qw = Quantizer::calibrated(bitwidth, p.weights.as_slice());
        let input = FeatureMap::from_fn(
            p.input.height(),
            p.input.width(),
            p.input.channels(),
            |h, w, ch| qi.quantize(p.input[(h, w, ch)]),
        );
        let weights = WeightSet::from_fn(
            p.weights.out_channels(),
            p.weights.height(),
            p.weights.width(),
            p.weights.in_channels(),
            |o, h, w, i| qw.quantize(p.weights[(o, h, w, i)]),
        );
        (qi, qw, input, weights)
    });
    let (lowered_input, lowered_weights) = spans
        .span("gemm", "gemm.im2col_s", || {
            Ok::<_, usystolic_gemm::GemmError>((
                im2col::lower_input(gemm, &input)?,
                im2col::lower_weights(gemm, &weights)?,
            ))
        })
        .map_err(|e| e.to_string())?;
    let executor = GemmExecutor::new(c.array);
    let (int_out, stats) = spans
        .span("core", c.exec_span, || {
            executor.execute_lowered(gemm, &lowered_input, &lowered_weights)
        })
        .map_err(|e| e.to_string())?;
    let output = spans
        .span("gemm", "gemm.im2col_s", || {
            let divisor = c.array.scheme().product_divisor(bitwidth);
            let scale = divisor / (qi.scale() * qw.scale());
            im2col::fold_output(gemm, &int_out.map(|&v| v as f64 * scale))
        })
        .map_err(|e| e.to_string())?;
    let cycle = match c.cycle_span {
        Some(name) => Some(
            spans
                .span("core", name, || {
                    cycle_accurate_gemm_with(
                        &c.array,
                        gemm,
                        &lowered_input,
                        &lowered_weights,
                        KernelMode::Auto,
                        1,
                    )
                })
                .map_err(|e| e.to_string())?,
        ),
        None => None,
    };
    Ok(LayerRun {
        lowered_input,
        lowered_weights,
        int_out,
        stats,
        output,
        cycle,
    })
}

/// A sub-sampled tile of a lowered GEMM: at most one array's worth of
/// reduction rows and output columns, a few output pixels, at an offset
/// that moves with `pick`.
fn sub_tile(
    run: &LayerRun,
    array: &SystolicConfig,
    pick: u64,
) -> Result<(GemmConfig, Matrix<i64>, Matrix<i64>), String> {
    let (li, lw) = (&run.lowered_input, &run.lowered_weights);
    let (m, k, n) = (li.rows(), li.cols(), lw.cols());
    let (tm, tk, tn) = (m.min(6), k.min(array.rows()), n.min(array.cols()));
    let pick = pick as usize;
    let m0 = (pick * 7) % (m - tm + 1);
    let k0 = ((pick * 3) % k.div_ceil(tk)) * tk;
    let k0 = k0.min(k - tk);
    let n0 = ((pick * 5) % n.div_ceil(tn)) * tn;
    let n0 = n0.min(n - tn);
    let gemm = GemmConfig::matmul(tm, tk, tn).map_err(|e| e.to_string())?;
    let input = Matrix::from_fn(tm, tk, |r, c| li[(m0 + r, k0 + c)]);
    let weights = Matrix::from_fn(tk, tn, |r, c| lw[(k0 + r, n0 + c)]);
    Ok((gemm, input, weights))
}

impl GemmLayers {
    /// Builds the proxies' inputs and FP64 references from `seed`.
    pub fn setup(seed: u64, short: bool) -> Result<Self, String> {
        let mut rng = SplitMix64::new(seed);
        let proxies = shapes(short)?
            .into_iter()
            .map(|g| proxy(g, &mut rng))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            proxies,
            configs: configs()?,
            checks: 0,
            fallbacks: 0.0,
            probe_rows: Vec::new(),
        })
    }
}

impl Bench for GemmLayers {
    type Output = Result<Vec<Vec<LayerRun>>, String>;

    const HOST_REF: Kernel = Kernel::UnaryTile;

    fn setup_errors(&self) -> Vec<String> {
        Vec::new()
    }

    fn work(&self) -> (f64, f64) {
        let runs_per_proxy = self.configs.len()
            + self
                .configs
                .iter()
                .filter(|c| c.cycle_span.is_some())
                .count();
        let macs: u64 = self.proxies.iter().map(|p| p.gemm.macs()).sum();
        (
            (macs * runs_per_proxy as u64) as f64,
            (self.proxies.len() * runs_per_proxy) as f64,
        )
    }

    fn iterate(&mut self, spans: &mut Spans) -> Self::Output {
        self.proxies
            .iter()
            .map(|p| {
                self.configs
                    .iter()
                    .map(|c| run_layer(p, c, spans))
                    .collect()
            })
            .collect()
    }

    fn check(&mut self, out: Self::Output) -> Checked {
        let runs = match out {
            Ok(runs) => runs,
            Err(e) => {
                return Checked {
                    errors: vec![e],
                    exact: Vec::new(),
                }
            }
        };
        let pick = self.checks;
        self.checks += 1;
        let mut errors = Vec::new();
        let (mut rmse_sum, mut rmse_n) = (0.0, 0.0);
        let (mut windows, mut saturations) = (0u64, 0u64);
        for (pi, (p, row)) in self.proxies.iter().zip(&runs).enumerate() {
            for (ci, (c, run)) in self.configs.iter().zip(row).enumerate() {
                let where_ = format!("proxy {pi} {}", c.label);
                windows += run.stats.mac_windows;
                saturations += run.stats.saturation_events;
                match ErrorStats::compare(p.reference.as_slice(), run.output.as_slice()) {
                    Ok(e) => {
                        rmse_sum += e.rmse();
                        rmse_n += 1.0;
                        let nrmse = e.rmse() / p.reference_rms;
                        if nrmse.is_nan() || nrmse > NRMSE_BOUND {
                            errors
                                .push(format!("{where_}: normalised RMSE {nrmse} > {NRMSE_BOUND}"));
                        }
                    }
                    Err(e) => errors.push(format!("{where_}: {e}")),
                }
                let Some((cycle_out, cycle_stats)) = &run.cycle else {
                    continue;
                };
                saturations += cycle_stats.saturation_events;
                // The functional and cycle-accurate paths agree for these
                // schemes at the default accumulator width. uGEMM-H is
                // left out: its functional executor folds K through one
                // flat accumulator, a known divergence.
                if c.array.scheme() != ComputingScheme::UGemmHybrid && *cycle_out != run.int_out {
                    errors.push(format!(
                        "{where_}: cycle-accurate output differs from functional"
                    ));
                }
                // The Auto kernel must equal the bit-serial machine on one
                // sub-sampled tile per configuration and iteration.
                if pi == (pick as usize + ci) % self.proxies.len() {
                    let tile = sub_tile(run, &c.array, pick).and_then(|(g, i, w)| {
                        let auto =
                            cycle_accurate_gemm_with(&c.array, &g, &i, &w, KernelMode::Auto, 1);
                        let serial =
                            cycle_accurate_gemm_with(&c.array, &g, &i, &w, KernelMode::Serial, 1);
                        match (auto, serial) {
                            (Ok(a), Ok(s)) => Ok(a == s),
                            (Err(e), _) | (_, Err(e)) => Err(e.to_string()),
                        }
                    });
                    match tile {
                        Ok(true) => {}
                        Ok(false) => {
                            errors.push(format!("{where_}: Auto kernel differs from Serial"))
                        }
                        Err(e) => errors.push(format!("{where_}: tile check: {e}")),
                    }
                }
            }
        }
        if pick == 0 {
            // Warm-up only: the window-kernel probe samples the first
            // proxy's operands at 8 and 12 bits, and the decomposed
            // pipeline must be what GemmExecutor::execute computes.
            for (c, run) in self.configs.iter().zip(&runs[0]) {
                if c.label == "ur8" || c.label == "ur12" {
                    let bitwidth = c.array.bitwidth();
                    self.probe_rows.push((bitwidth, probe_rows(run, bitwidth)));
                }
            }
            for (pi, (p, row)) in self.proxies.iter().zip(&runs).enumerate() {
                for (c, run) in self.configs.iter().zip(row) {
                    match GemmExecutor::new(c.array).execute(&p.gemm, &p.input, &p.weights) {
                        Ok(o) if o.output == run.output && o.stats == run.stats => {}
                        Ok(_) => errors.push(format!(
                            "proxy {pi} {}: differs from GemmExecutor::execute",
                            c.label
                        )),
                        Err(e) => errors.push(format!("proxy {pi} {}: {e}", c.label)),
                    }
                }
            }
        }
        Checked {
            errors,
            exact: vec![
                ("exact.output_rmse", rmse_sum / rmse_n),
                ("core.mac_windows", windows as f64),
                ("core.saturation_events", saturations as f64),
            ],
        }
    }

    fn absorb(&mut self, session: &Session, _rss_growth_bytes: f64) {
        self.fallbacks = session
            .metrics
            .counters()
            .filter(|(key, _)| key.name() == "core.kernel.fallback")
            .map(|(_, v)| v)
            .sum::<u64>() as f64;
    }

    fn layer_metrics(
        &mut self,
        spans: &mut Spans,
        root: usize,
        wall_s: f64,
    ) -> BTreeMap<&'static str, f64> {
        let mut m = spans.self_s_by_name();
        m.remove("iteration");
        let by_layer = spans.self_s_by_layer_under(root);
        for (layer, share) in [("gemm", "share.gemm"), ("core", "share.core")] {
            m.insert(share, by_layer.get(layer).copied().unwrap_or(0.0) / wall_s);
        }
        for (bitwidth, rows) in &mut self.probe_rows {
            let name = if *bitwidth == 8 {
                "unary.window_ns.rate8"
            } else {
                "unary.window_ns.rate12"
            };
            let mul_cycles = edge(ComputingScheme::UnaryRate, *bitwidth).mul_cycles();
            let windows: usize = rows.iter().map(UnaryRow::cols).sum();
            let t = Instant::now();
            spans.span("unary", name, || {
                for row in rows.iter_mut() {
                    std::hint::black_box(row.run_packed(mul_cycles));
                }
            });
            m.insert(name, t.elapsed().as_secs_f64() * 1e9 / windows as f64);
        }
        m.insert("core.kernel.fallback", self.fallbacks);
        m
    }
}
