//! Unified high-level GEMM execution across computing schemes.
//!
//! [`GemmExecutor`] is the crate's main entry point: it quantises `f64`
//! tensors to the array's data bitwidth, lowers them (im2col), runs them
//! through the tile sweep of [`crate::array2d`], and dequantises the
//! result — giving each scheme the treatment the paper gives it in the
//! accuracy study (Section V-A).

use crate::array2d::cycle_accurate_gemm_with;
use crate::config::SystolicConfig;
use crate::kernel::KernelMode;
use crate::scheme::ComputingScheme;
use crate::CoreError;
use usystolic_gemm::im2col;
use usystolic_gemm::quant::{quantize_feature_map, quantize_weight_set};
use usystolic_gemm::{FeatureMap, GemmConfig, Matrix, WeightSet};
use usystolic_unary::et::EarlyTermination;

/// Execution statistics of one GEMM run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// MAC windows executed (one per weight/input element pair).
    pub mac_windows: u64,
    /// Accumulator saturation events (OREG overflow under the configured
    /// reduced-resolution width).
    pub saturation_events: u64,
    /// PE compute cycles summed over all MAC windows: `mac_windows ×
    /// mac_cycles` (the timing simulator models overlap and stalls).
    pub compute_cycles: u64,
}

impl ExecStats {
    /// Merges another run's statistics into this one (e.g. when summing
    /// over the layers of a network).
    pub fn absorb(&mut self, other: ExecStats) {
        self.mac_windows += other.mac_windows;
        self.saturation_events += other.saturation_events;
        self.compute_cycles += other.compute_cycles;
    }
}

impl usystolic_obs::ToJson for ExecStats {
    fn to_json(&self) -> usystolic_obs::JsonValue {
        usystolic_obs::JsonValue::object(vec![
            ("mac_windows", self.mac_windows.to_json()),
            ("saturation_events", self.saturation_events.to_json()),
            ("compute_cycles", self.compute_cycles.to_json()),
        ])
    }
}

/// The result of a scheme-accurate GEMM execution.
#[derive(Debug, Clone)]
pub struct GemmOutcome {
    /// The dequantised output feature map.
    pub output: FeatureMap<f64>,
    /// Functional execution statistics.
    pub stats: ExecStats,
}

/// Executes GEMMs under a fixed systolic-array configuration.
///
/// # Example
///
/// ```
/// use usystolic_core::{ComputingScheme, GemmExecutor, SystolicConfig};
/// use usystolic_gemm::{FeatureMap, GemmConfig, WeightSet};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cfg = SystolicConfig::new(4, 4, ComputingScheme::UnaryRate, 8)?;
/// let exec = GemmExecutor::new(cfg);
/// let gemm = GemmConfig::matmul(2, 4, 3)?;
/// let input = FeatureMap::from_fn(2, 1, 4, |m, _, k| (m + k) as f64 * 0.1);
/// let weights = WeightSet::from_fn(3, 1, 1, 4, |n, _, _, k| (n as f64 - k as f64) * 0.1);
/// let outcome = exec.execute(&gemm, &input, &weights)?;
/// assert_eq!(outcome.output.channels(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GemmExecutor {
    config: SystolicConfig,
    workers: usize,
}

impl GemmExecutor {
    /// Creates an executor for the given configuration (single-threaded
    /// tile sweep; see [`with_workers`](Self::with_workers)).
    #[must_use]
    pub fn new(config: SystolicConfig) -> Self {
        Self { config, workers: 1 }
    }

    /// Spreads the tile sweep's independent row folds across `workers`
    /// threads of the shared work-stealing pool. Results are bit-for-bit
    /// identical for every worker count — the per-fold partial sums are
    /// added sequentially in row-fold order.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// The executor's configuration.
    #[must_use]
    pub fn config(&self) -> &SystolicConfig {
        &self.config
    }

    /// Worker threads used for the tile sweep.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Executes a GEMM on real-valued tensors: quantise → lower → run the
    /// tile sweep → dequantise → fold.
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches from the GEMM substrate and scheme
    /// dispatch errors.
    pub fn execute(
        &self,
        gemm: &GemmConfig,
        input: &FeatureMap<f64>,
        weights: &WeightSet<f64>,
    ) -> Result<GemmOutcome, CoreError> {
        let mut t0 = 0.0;
        usystolic_obs::with(|o| t0 = o.tracer.now_us());

        let bitwidth = self.config.bitwidth();
        let (i_int, qi) = quantize_feature_map(input, bitwidth);
        let (w_int, qw) = quantize_weight_set(weights, bitwidth);

        let li = im2col::lower_input(gemm, &i_int)?;
        let lw = im2col::lower_weights(gemm, &w_int)?;
        let (int_out, stats) = self.execute_lowered(gemm, &li, &lw)?;

        let divisor = self.config.scheme().product_divisor(bitwidth);
        let scale = divisor / (qi.scale() * qw.scale());
        let real = int_out.map(|&v| v as f64 * scale);
        let output = im2col::fold_output(gemm, &real)?;

        usystolic_obs::with(|o| {
            use usystolic_obs::ToJson;
            let t1 = o.tracer.now_us();
            o.metrics.count("core.gemm_executions", 1);
            // Crawling dividend of early termination: cycles a full-length
            // unary window (2^(N-1) multiply cycles, not 2^N) would have
            // spent beyond the truncated one.
            let saved = match self.config.scheme() {
                scheme @ (ComputingScheme::UnaryRate | ComputingScheme::UnaryTemporal) => {
                    let full = scheme.mul_cycles(
                        self.config.bitwidth(),
                        EarlyTermination::full(self.config.bitwidth()),
                    );
                    stats.mac_windows * full.saturating_sub(self.config.mul_cycles())
                }
                _ => 0,
            };
            o.metrics.count("core.et_cycles_saved", saved);
            let scheme_label = self.config.scheme().label();
            o.metrics
                .count_labeled("core.gemm_executions", &[("scheme", scheme_label)], 1);
            o.metrics.count_labeled(
                "core.mac_windows",
                &[("scheme", scheme_label)],
                stats.mac_windows,
            );
            o.tracer.complete(
                format!("gemm.execute {}", self.config.scheme().label()),
                "core",
                usystolic_obs::PID_WALL,
                0,
                t0,
                t1 - t0,
                vec![
                    ("scheme".to_owned(), self.config.scheme().to_json()),
                    ("macs".to_owned(), gemm.macs().to_json()),
                    ("mac_windows".to_owned(), stats.mac_windows.to_json()),
                    (
                        "saturation_events".to_owned(),
                        stats.saturation_events.to_json(),
                    ),
                ],
            );
        });
        Ok(GemmOutcome { output, stats })
    }

    /// Executes a GEMM on already-quantised lowered matrices
    /// (`input: M × K`, `weights: K × N`, levels in
    /// `[-2^(N-1), 2^(N-1)]`), returning the raw integer result in the
    /// scheme's output domain (divide by
    /// [`ComputingScheme::product_divisor`] to recover the level-domain
    /// product).
    ///
    /// This is [`cycle_accurate_gemm_with`] under [`KernelMode::Auto`]
    /// on the executor's workers, so every scheme shares the stepped
    /// machine's OREG semantics; the statistics are derived from its
    /// [`crate::CycleStats`] (every window keeps one PE busy for
    /// `mac_cycles`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Shape`] for mismatched matrices and
    /// [`CoreError::Config`] if the worker pool fails.
    pub fn execute_lowered(
        &self,
        gemm: &GemmConfig,
        input: &Matrix<i64>,
        weights: &Matrix<i64>,
    ) -> Result<(Matrix<i64>, ExecStats), CoreError> {
        let (out, cycle) = cycle_accurate_gemm_with(
            &self.config,
            gemm,
            input,
            weights,
            KernelMode::Auto,
            self.workers,
        )?;
        let stats = ExecStats {
            mac_windows: cycle.busy_pe_cycles / self.config.mac_cycles(),
            saturation_events: cycle.saturation_events,
            compute_cycles: cycle.busy_pe_cycles,
        };
        usystolic_obs::with(|o| {
            o.metrics.count("core.mac_windows", stats.mac_windows);
            o.metrics
                .count("core.saturation_events", stats.saturation_events);
        });
        Ok((out, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usystolic_gemm::loopnest::gemm_reference;
    use usystolic_gemm::stats::ErrorStats;

    /// A lowered 2×2 convolution (`M = 9`, `K = 8`, `N = 3`) with its
    /// exact integer product.
    fn lowered_case(seedi: i64, seedw: i64) -> (GemmConfig, Matrix<i64>, Matrix<i64>, Matrix<i64>) {
        let gemm = GemmConfig::conv(4, 4, 2, 2, 2, 1, 3).unwrap();
        let input = FeatureMap::from_fn(4, 4, 2, |h, w, c| {
            ((h as i64 * 37 + w as i64 * 11 + c as i64 * 5 + seedi) % 257) - 128
        });
        let weights = WeightSet::from_fn(3, 2, 2, 2, |oc, wh, ww, ic| {
            ((oc as i64 * 53 + wh as i64 * 17 + ww as i64 * 7 + ic as i64 * 3 + seedw) % 257) - 128
        });
        let li = im2col::lower_input(&gemm, &input).unwrap();
        let lw = im2col::lower_weights(&gemm, &weights).unwrap();
        let exact = Matrix::from_fn(li.rows(), lw.cols(), |p, c| {
            (0..li.cols()).map(|k| li[(p, k)] * lw[(k, c)]).sum()
        });
        (gemm, li, lw, exact)
    }

    fn run_lowered(
        cfg: SystolicConfig,
        gemm: &GemmConfig,
        li: &Matrix<i64>,
        lw: &Matrix<i64>,
    ) -> (Matrix<i64>, ExecStats) {
        GemmExecutor::new(cfg)
            .execute_lowered(gemm, li, lw)
            .unwrap()
    }

    /// Asserts every output element lies within `bound` of the exact
    /// product divided by `divisor` (the scheme's output domain).
    fn assert_tracks(out: &Matrix<i64>, exact: &Matrix<i64>, divisor: f64, bound: f64) {
        for p in 0..out.rows() {
            for c in 0..out.cols() {
                let expect = exact[(p, c)] as f64 / divisor;
                assert!(
                    (out[(p, c)] as f64 - expect).abs() <= bound,
                    "({p},{c}): {} vs {expect}",
                    out[(p, c)]
                );
            }
        }
    }

    #[test]
    fn unary_rate_tracks_exact_product() {
        let (gemm, li, lw, exact) = lowered_case(1, 2);
        let cfg = SystolicConfig::new(4, 3, ComputingScheme::UnaryRate, 8).unwrap();
        let (out, stats) = run_lowered(cfg, &gemm, &li, &lw);
        assert_eq!(stats.saturation_events, 0);
        assert!(stats.mac_windows > 0);
        // Output is in the 2^(N-1)-divided domain; K = 8 terms, each
        // within ±1 count.
        assert_tracks(&out, &exact, 128.0, 8.0);
    }

    #[test]
    fn unary_temporal_tracks_exact_product() {
        let (gemm, li, lw, exact) = lowered_case(3, 4);
        let cfg = SystolicConfig::new(4, 3, ComputingScheme::UnaryTemporal, 8).unwrap();
        let (out, _) = run_lowered(cfg, &gemm, &li, &lw);
        assert_tracks(&out, &exact, 128.0, 10.0);
    }

    #[test]
    fn early_termination_preserves_scale() {
        let (gemm, li, lw, exact) = lowered_case(5, 6);
        let cfg = SystolicConfig::new(4, 3, ComputingScheme::UnaryRate, 8)
            .unwrap()
            .with_effective_bitwidth(6)
            .unwrap();
        let (out, _) = run_lowered(cfg, &gemm, &li, &lw);
        // Coarser: counts quantised to 4-count steps by the shift, and
        // per-term variance grows with the shorter window.
        assert_tracks(&out, &exact, 128.0, 48.0);
    }

    #[test]
    fn ugemm_h_tracks_exact_product() {
        let (gemm, li, lw, exact) = lowered_case(11, 12);
        let cfg = SystolicConfig::new(4, 3, ComputingScheme::UGemmHybrid, 8).unwrap();
        let (out, stats) = run_lowered(cfg, &gemm, &li, &lw);
        assert!(stats.mac_windows > 0);
        // uGEMM-H output is in the 2^(N-2)-divided domain.
        assert_tracks(&out, &exact, 64.0, 24.0);
    }

    #[test]
    fn binary_parallel_equals_exact_product() {
        let (gemm, li, lw, exact) = lowered_case(13, 14);
        let cfg = SystolicConfig::new(4, 3, ComputingScheme::BinaryParallel, 8).unwrap();
        let (out, stats) = run_lowered(cfg, &gemm, &li, &lw);
        assert_eq!(out, exact);
        assert_eq!(stats.mac_windows, gemm.macs());
        assert_eq!(stats.saturation_events, 0);
    }

    #[test]
    fn serial_matches_parallel_functionally() {
        let (gemm, li, lw, _) = lowered_case(17, 18);
        let bp = SystolicConfig::new(4, 3, ComputingScheme::BinaryParallel, 8).unwrap();
        let bs = SystolicConfig::new(4, 3, ComputingScheme::BinarySerial, 8).unwrap();
        let (a, sa) = run_lowered(bp, &gemm, &li, &lw);
        let (b, sb) = run_lowered(bs, &gemm, &li, &lw);
        assert_eq!(a, b);
        // But the serial scheme burns more cycles.
        assert!(sb.compute_cycles > sa.compute_cycles);
    }

    #[test]
    fn fold_boundaries_do_not_change_results() {
        let (gemm, li, lw, _) = lowered_case(7, 8);
        let big = SystolicConfig::new(8, 3, ComputingScheme::UnaryRate, 8).unwrap();
        let small = SystolicConfig::new(3, 2, ComputingScheme::UnaryRate, 8).unwrap();
        let (a, _) = run_lowered(big, &gemm, &li, &lw);
        let (b, _) = run_lowered(small, &gemm, &li, &lw);
        assert_eq!(a, b, "tiling must be value-preserving");
    }

    #[test]
    fn worker_count_does_not_change_results() {
        // The parallel tile sweep folds the tiles in the serial order, so
        // the output and the (order-sensitive) saturation stats are
        // identical for every worker count — including with a clamping
        // accumulator.
        let (gemm, li, lw, _) = lowered_case(15, 16);
        for acc_width in [32u32, 4] {
            for scheme in ComputingScheme::ALL {
                let cfg = SystolicConfig::new(3, 2, scheme, 8)
                    .unwrap()
                    .with_acc_width(acc_width);
                let one = run_lowered(cfg, &gemm, &li, &lw);
                for workers in [2usize, 3, 8] {
                    let many = GemmExecutor::new(cfg)
                        .with_workers(workers)
                        .execute_lowered(&gemm, &li, &lw)
                        .unwrap();
                    assert_eq!(one, many, "{scheme} acc {acc_width} workers {workers}");
                }
            }
        }
    }

    #[test]
    fn narrow_accumulator_saturates_and_reports() {
        let (gemm, li, lw, _) = lowered_case(9, 10);
        let cfg = SystolicConfig::new(4, 3, ComputingScheme::UnaryRate, 8)
            .unwrap()
            .with_acc_width(4);
        let (_, stats) = run_lowered(cfg, &gemm, &li, &lw);
        assert!(stats.saturation_events > 0);
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let (gemm, li, lw, _) = lowered_case(1, 1);
        let cfg = SystolicConfig::new(4, 3, ComputingScheme::UnaryRate, 8).unwrap();
        let exec = GemmExecutor::new(cfg);
        let bad_w = Matrix::<i64>::zeros(3, 3);
        assert!(exec.execute_lowered(&gemm, &li, &bad_w).is_err());
        let bad_i = Matrix::<i64>::zeros(2, 2);
        assert!(exec.execute_lowered(&gemm, &bad_i, &lw).is_err());
    }

    #[test]
    fn binary_rejects_bad_shapes() {
        let (gemm, li, _, _) = lowered_case(1, 1);
        let cfg = SystolicConfig::new(4, 2, ComputingScheme::BinaryParallel, 8).unwrap();
        let bad_w = Matrix::<i64>::zeros(5, 2);
        assert!(GemmExecutor::new(cfg)
            .execute_lowered(&gemm, &li, &bad_w)
            .is_err());
    }

    fn case() -> (GemmConfig, FeatureMap<f64>, WeightSet<f64>) {
        let gemm = GemmConfig::conv(5, 5, 2, 2, 2, 1, 3).unwrap();
        let input = FeatureMap::from_fn(5, 5, 2, |h, w, c| {
            (((h * 19 + w * 7 + c * 3) % 17) as f64 / 17.0 - 0.5) * 1.6
        });
        let weights = WeightSet::from_fn(3, 2, 2, 2, |oc, wh, ww, ic| {
            (((oc * 29 + wh * 13 + ww * 5 + ic) % 23) as f64 / 23.0 - 0.45) * 0.8
        });
        (gemm, input, weights)
    }

    fn rmse_for(scheme: ComputingScheme) -> f64 {
        let (gemm, input, weights) = case();
        let reference = gemm_reference(&gemm, &input, &weights).unwrap();
        let cfg = SystolicConfig::new(4, 3, scheme, 8).unwrap();
        let out = GemmExecutor::new(cfg)
            .execute(&gemm, &input, &weights)
            .unwrap();
        ErrorStats::compare(reference.as_slice(), out.output.as_slice())
            .unwrap()
            .rmse()
    }

    #[test]
    fn every_scheme_approximates_the_reference() {
        let (gemm, input, weights) = case();
        let reference = gemm_reference(&gemm, &input, &weights).unwrap();
        let ref_scale = reference
            .as_slice()
            .iter()
            .fold(0.0f64, |m, &x| m.max(x.abs()));
        for scheme in ComputingScheme::ALL {
            let rmse = rmse_for(scheme);
            assert!(
                rmse < ref_scale * 0.12,
                "{scheme}: rmse {rmse} too large vs scale {ref_scale}"
            );
        }
    }

    #[test]
    fn binary_parallel_error_is_pure_quantisation() {
        // 8-bit quantisation error only: far below the unary variance.
        let bp = rmse_for(ComputingScheme::BinaryParallel);
        let ur = rmse_for(ComputingScheme::UnaryRate);
        assert!(bp < ur, "BP {bp} should be more accurate than UR {ur}");
    }

    #[test]
    fn ugemm_h_matches_usystolic_accuracy_class() {
        // Section V-A: uGEMM-H has the same accuracy as uSystolic (the
        // bipolar uMUL changes hardware cost, not resolution). Allow 2×.
        let ug = rmse_for(ComputingScheme::UGemmHybrid);
        let ur = rmse_for(ComputingScheme::UnaryRate);
        assert!(ug < ur * 2.5 + 1e-9, "UG {ug} vs UR {ur}");
    }

    #[test]
    fn early_termination_degrades_gracefully() {
        let (gemm, input, weights) = case();
        let reference = gemm_reference(&gemm, &input, &weights).unwrap();
        let mut last = 0.0f64;
        // Decreasing EBT must not *improve* accuracy (up to noise).
        for ebt in [8u32, 7, 6, 5] {
            let cfg = SystolicConfig::new(4, 3, ComputingScheme::UnaryRate, 8)
                .unwrap()
                .with_effective_bitwidth(ebt)
                .unwrap();
            let out = GemmExecutor::new(cfg)
                .execute(&gemm, &input, &weights)
                .unwrap();
            let rmse = ErrorStats::compare(reference.as_slice(), out.output.as_slice())
                .unwrap()
                .rmse();
            assert!(
                rmse >= last * 0.5,
                "EBT {ebt}: rmse {rmse} vs previous {last}"
            );
            last = rmse;
        }
    }

    #[test]
    fn rate_and_temporal_have_similar_accuracy() {
        // Section V-A: "uSystolic accuracy for rate and temporal codings
        // with an identical EBT are almost the same".
        let ur = rmse_for(ComputingScheme::UnaryRate);
        let ut = rmse_for(ComputingScheme::UnaryTemporal);
        assert!(
            (ur - ut).abs() <= ur.max(ut),
            "rate {ur} and temporal {ut} should be the same class"
        );
    }

    #[test]
    fn et_cycles_saved_is_pinned_to_stream_length() {
        // A full-length unary MAC window is 2^(N-1) multiply cycles (the
        // unary stream length), not 2^N: the crawling dividend per window
        // is 2^(N-1) − mul_cycles. EBT 6 at N = 8 saves 128 − 32 = 96
        // cycles per window; full-length rate and temporal runs save 0.
        let (gemm, input, weights) = case();
        for (scheme, ebt, saved_per_window) in [
            (ComputingScheme::UnaryRate, 6u32, 96u64),
            (ComputingScheme::UnaryRate, 8, 0),
            (ComputingScheme::UnaryTemporal, 8, 0),
        ] {
            let cfg = SystolicConfig::new(4, 3, scheme, 8)
                .unwrap()
                .with_effective_bitwidth(ebt)
                .unwrap();
            let prior = usystolic_obs::install(usystolic_obs::Session::new());
            let outcome = GemmExecutor::new(cfg)
                .execute(&gemm, &input, &weights)
                .unwrap();
            let session = usystolic_obs::take().unwrap();
            if let Some(p) = prior {
                usystolic_obs::install(p);
            }
            assert!(outcome.stats.mac_windows > 0);
            assert_eq!(
                session.metrics.counter("core.et_cycles_saved"),
                outcome.stats.mac_windows * saved_per_window,
                "{scheme} EBT {ebt}"
            );
            // The per-window saving is pinned against the scheme's own
            // stream length, for both unary schemes.
            assert_eq!(
                scheme.mul_cycles(8, EarlyTermination::full(8)),
                usystolic_unary::stream_len(8)
            );
        }
    }

    #[test]
    fn executor_workers_do_not_change_results() {
        let (gemm, input, weights) = case();
        let cfg = SystolicConfig::new(4, 3, ComputingScheme::UnaryRate, 8).unwrap();
        let one = GemmExecutor::new(cfg)
            .execute(&gemm, &input, &weights)
            .unwrap();
        let four = GemmExecutor::new(cfg)
            .with_workers(4)
            .execute(&gemm, &input, &weights)
            .unwrap();
        assert_eq!(one.output, four.output);
        assert_eq!(one.stats, four.stats);
        assert_eq!(GemmExecutor::new(cfg).with_workers(0).workers(), 1);
    }

    #[test]
    fn matmul_path_works_end_to_end() {
        let gemm = GemmConfig::matmul(3, 6, 4).unwrap();
        let input = FeatureMap::from_fn(3, 1, 6, |m, _, k| ((m * 6 + k) as f64) / 18.0 - 0.5);
        let weights =
            WeightSet::from_fn(4, 1, 1, 6, |n, _, _, k| ((n * 6 + k) as f64) / 24.0 - 0.4);
        let reference = gemm_reference(&gemm, &input, &weights).unwrap();
        let cfg = SystolicConfig::new(4, 4, ComputingScheme::UnaryRate, 10).unwrap();
        let out = GemmExecutor::new(cfg)
            .execute(&gemm, &input, &weights)
            .unwrap();
        let e = ErrorStats::compare(reference.as_slice(), out.output.as_slice()).unwrap();
        assert!(e.rmse() < 0.05, "{e}");
    }
}
